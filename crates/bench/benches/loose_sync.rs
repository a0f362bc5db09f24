//! Extension experiment (paper Sec. 2 outlook, ref. [8]): loose
//! synchronization of event-triggered networks.
//!
//! Shape claims (EMSOFT'04): a globally clocked model deploys onto a
//! drifting, event-triggered network with a *small* logical-delay overhead
//! (1–2 periods for typical CAN parameters), provided the consumer
//! resynchronizes; the required depth grows with the latency envelope.

use automode_bench::{time_and_print, Arm};
use automode_platform::loose_sync::{required_depth, simulate, simulate_depths, LooseSyncConfig};

fn shape_report() {
    eprintln!("\n[E13 report] loose synchronization: required delay depth");
    eprintln!("  (10 ms period, +/-100 ppm drift, resync every 1000 ticks)");
    for (lo, hi) in [
        (200u64, 1_000u64),
        (200, 2_000),
        (2_000, 8_000),
        (8_000, 18_000),
    ] {
        let cfg = LooseSyncConfig {
            latency_min_us: lo,
            latency_max_us: hi,
            ..LooseSyncConfig::typical_can()
        };
        let d = required_depth(&cfg, 8, 100_000, 1).unwrap();
        eprintln!("  latency {lo:>5}..{hi:>5} us -> depth {d:?}");
    }
    let no_resync = LooseSyncConfig {
        resync_interval_ticks: 0,
        ..LooseSyncConfig::typical_can()
    };
    let broken = simulate(&no_resync, 2, 10_000_000, 1).unwrap();
    eprintln!(
        "  without resynchronization, depth 2 over 10^7 ticks: {} misses (drift wins)",
        broken.misses
    );
}

fn main() {
    shape_report();
    let depths: Vec<u32> = (0..=8).collect();
    let mut arms = Vec::new();
    for ticks in [10_000u64, 100_000, 1_000_000] {
        arms.push(Arm::iter(
            format!("loose_sync/simulate_ticks/{ticks}"),
            move || simulate(&LooseSyncConfig::typical_can(), 2, ticks, 1).unwrap(),
        ));
    }
    // Ablation: the envelope sweep (depths 0..=8) as one lane-major pass
    // over shared latency draws vs. nine sequential simulations.
    for ticks in [10_000u64, 100_000] {
        let depths = &depths;
        arms.push(Arm::iter(
            format!("loose_sync/depth_sweep_lanes/{ticks}"),
            move || simulate_depths(&LooseSyncConfig::typical_can(), depths, ticks, 1).unwrap(),
        ));
        arms.push(Arm::iter(
            format!("loose_sync/depth_sweep_sequential/{ticks}"),
            move || {
                depths
                    .iter()
                    .map(|&d| simulate(&LooseSyncConfig::typical_can(), d, ticks, 1).unwrap())
                    .collect::<Vec<_>>()
            },
        ));
    }
    time_and_print(arms);
}
