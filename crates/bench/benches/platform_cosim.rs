//! Platform co-simulation bench (experiment E20).
//!
//! Subject: the Fig. 7 engine deployment on two ECUs, co-simulated with
//! OSEK fixed-priority scheduling and CAN arbitration, differential-checked
//! against the LA reference semantics on every run.
//!
//! Three measurements:
//!
//! * `throughput` — end-to-end differential co-simulation rate (co-sim +
//!   LA reference + trace diff + contract monitor), base ticks/second.
//! * `e20` — the envelope-violation vs. bus-load curve: a babbling-idiot
//!   interference frame (8 bytes, CAN id 0x08 — wins every arbitration)
//!   sweeps its period from sparse to beyond saturation (an 8-byte frame
//!   occupies ~266 µs at 500 kbit/s, so periods below that push offered
//!   load past 1.0 and starve the real traffic). Per point: observed bus
//!   load, cross-ECU publications, envelope misses, worst slack.
//! * `lost_frame` — the named dropout scenario; robustness detection
//!   latency must be finite.
//!
//! Writes `BENCH_platform.json` at the repository root
//! (under `target/bench-quick/` in quick mode).
//! `AUTOMODE_BENCH_QUICK=1` shrinks the workload for CI smoke runs;
//! `AUTOMODE_BENCH_ENFORCE=1` exits nonzero when a gate fails. The gates
//! are semantic, not just throughput floors: fault-free must be clean,
//! saturation must violate, and the dropout must be detected.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use automode_core::ccd::FixedPriorityDataIntegrityPolicy;
use automode_engine::{engine_ccd_stimulus, engine_cosim_parts, engine_platform_scenarios};
use automode_platform::cosim::{CosimConfig, PlatformFault};
use automode_transform::cosim::{CosimHarness, CosimReport};
use automode_transform::deploy;

fn run_with(faults: Vec<PlatformFault>, ticks: u64) -> CosimReport {
    let (m, ccd, spec) = engine_cosim_parts().unwrap();
    let d = deploy(&m, &ccd, &FixedPriorityDataIntegrityPolicy::new(), &spec).unwrap();
    let config = CosimConfig {
        faults,
        ..CosimConfig::default()
    };
    let harness = CosimHarness::new(&m, &ccd, &d, &spec, config).unwrap();
    harness.run(&engine_ccd_stimulus(ticks), ticks).unwrap()
}

struct E20Point {
    babble_period_us: u64,
    bus_load: f64,
    pubs: u64,
    misses: u64,
    worst_slack_us: i64,
}

fn e20_point(babble_period_us: u64, ticks: u64) -> E20Point {
    let faults = if babble_period_us == 0 {
        Vec::new()
    } else {
        vec![PlatformFault::BusLoad {
            id: 0x08,
            dlc: 8,
            period_us: babble_period_us,
            offset_us: 50,
        }]
    };
    let report = run_with(faults, ticks);
    let o = &report.outcome;
    E20Point {
        babble_period_us,
        bus_load: o.bus_load(),
        pubs: o.channels.iter().map(|c| c.envelope.ticks).sum(),
        misses: o.envelope_misses(),
        worst_slack_us: o
            .channels
            .iter()
            .map(|c| c.envelope.worst_slack_us)
            .min()
            .unwrap_or(0),
    }
}

struct Gate {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn main() {
    let quick = automode_bench::quick_mode();
    let sweep_ticks: u64 = if quick { 240 } else { 1_000 };
    let tp_ticks: u64 = if quick { 2_000 } else { 10_000 };

    // Throughput of the full differential pipeline on one prepared harness.
    let (m, ccd, spec) = engine_cosim_parts().unwrap();
    let d = deploy(&m, &ccd, &FixedPriorityDataIntegrityPolicy::new(), &spec).unwrap();
    let harness = CosimHarness::new(&m, &ccd, &d, &spec, CosimConfig::default()).unwrap();
    let stim = engine_ccd_stimulus(tp_ticks);
    black_box(harness.run(&stim, tp_ticks).unwrap());
    let mut ticks_per_s = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(harness.run(&stim, tp_ticks).unwrap());
        ticks_per_s = ticks_per_s.max(tp_ticks as f64 / t0.elapsed().as_secs_f64());
    }
    println!("throughput: {ticks_per_s:>10.0} differential ticks/s ({tp_ticks} ticks/run)");

    // E20: babble period 0 = no interference; below ~266 µs the offered
    // load exceeds 1.0 and the id-0x08 babbler starves the real frames.
    let periods: &[u64] = &[0, 2_000, 1_000, 600, 400, 300, 260, 220, 200];
    let mut curve = Vec::new();
    println!("e20 (babble period -> bus load -> envelope misses):");
    for &p in periods {
        let pt = e20_point(p, sweep_ticks);
        println!(
            "  period {:>5} us   load {:>5.1}%   pubs {:>4}   misses {:>4}   worst slack {:>8} us",
            pt.babble_period_us,
            pt.bus_load * 100.0,
            pt.pubs,
            pt.misses,
            pt.worst_slack_us
        );
        curve.push(pt);
    }

    // Lost-frame scenario: structured detection.
    let lost = engine_platform_scenarios()
        .into_iter()
        .find(|s| s.name == "lost-frame")
        .unwrap();
    let lost_report = run_with(lost.faults, sweep_ticks);
    let detection = lost_report.metrics.detection_latency();
    println!(
        "lost_frame: {} violations, detection latency {detection:?} ticks",
        lost_report.robustness.violations.len()
    );

    let mut curve_json = String::new();
    for (i, pt) in curve.iter().enumerate() {
        let _ = write!(
            curve_json,
            "{}      {{ \"babble_period_us\": {}, \"bus_load\": {:.3}, \"pubs\": {}, \"misses\": {}, \"worst_slack_us\": {} }}",
            if i == 0 { "" } else { ",\n" },
            pt.babble_period_us,
            pt.bus_load,
            pt.pubs,
            pt.misses,
            pt.worst_slack_us
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"platform_cosim\",\n  \"scenarios\": {{\n    \"throughput\": {{ \"ticks\": {tp_ticks}, \"differential_ticks_per_s\": {ticks_per_s:.0} }},\n    \"e20\": {{ \"ticks\": {sweep_ticks}, \"curve\": [\n{curve_json}\n    ] }},\n    \"lost_frame\": {{ \"ticks\": {sweep_ticks}, \"violations\": {}, \"detection_latency_ticks\": {} }}\n  }}\n}}\n",
        lost_report.robustness.violations.len(),
        detection.map_or("null".to_string(), |l| l.to_string()),
    );
    automode_bench::write_results("BENCH_platform.json", &json);

    if std::env::var("AUTOMODE_BENCH_ENFORCE").is_ok_and(|v| v == "1") {
        let nominal = &curve[0];
        let saturated = curve.last().unwrap();
        let tp_floor = if quick { 5_000.0 } else { 10_000.0 };
        let gates = [
            Gate {
                name: "nominal_clean",
                ok: nominal.misses == 0 && nominal.worst_slack_us > 0,
                detail: format!(
                    "misses {} worst slack {} us",
                    nominal.misses, nominal.worst_slack_us
                ),
            },
            Gate {
                name: "saturation_violates",
                ok: saturated.misses > 0,
                detail: format!(
                    "misses {} at {:.1}% load",
                    saturated.misses,
                    saturated.bus_load * 100.0
                ),
            },
            Gate {
                name: "curve_monotone_ends",
                ok: saturated.misses >= nominal.misses
                    && saturated.worst_slack_us < nominal.worst_slack_us,
                detail: format!(
                    "misses {} -> {}, worst slack {} -> {} us",
                    nominal.misses,
                    saturated.misses,
                    nominal.worst_slack_us,
                    saturated.worst_slack_us
                ),
            },
            Gate {
                name: "lost_frame_detected",
                ok: detection.is_some(),
                detail: format!("detection latency {detection:?}"),
            },
            Gate {
                name: "throughput_floor",
                ok: ticks_per_s >= tp_floor,
                detail: format!("{ticks_per_s:.0} ticks/s (floor {tp_floor:.0})"),
            },
        ];
        let mut failed = false;
        for g in &gates {
            if g.ok {
                println!("gate: {} OK ({})", g.name, g.detail);
            } else {
                eprintln!("FAIL: {} ({})", g.name, g.detail);
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
