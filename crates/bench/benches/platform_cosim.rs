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

use automode_bench::{time_arms, Arm, Results};
use automode_core::ccd::FixedPriorityDataIntegrityPolicy;
use automode_core::json::JsonWriter;
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

fn main() {
    let quick = automode_bench::quick_mode();
    let sweep_ticks: u64 = if quick { 240 } else { 1_000 };
    let tp_ticks: u64 = if quick { 2_000 } else { 10_000 };
    let mut results = Results::new("platform_cosim", "ticks_per_second");

    // Throughput of the full differential pipeline on one prepared harness.
    let (m, ccd, spec) = engine_cosim_parts().unwrap();
    let d = deploy(&m, &ccd, &FixedPriorityDataIntegrityPolicy::new(), &spec).unwrap();
    let harness = CosimHarness::new(&m, &ccd, &d, &spec, CosimConfig::default()).unwrap();
    let stim = engine_ccd_stimulus(tp_ticks);
    let timings = time_arms(vec![Arm::new(
        "differential",
        tp_ticks as f64,
        || (),
        |()| harness.run(&stim, tp_ticks).unwrap(),
    )]);
    let ticks_per_s = timings[0].median;
    results.scenario("throughput", timings);

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

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field("throughput_ticks").uint(tp_ticks);
    w.field("e20").begin_object();
    w.field("ticks").uint(sweep_ticks);
    w.field("curve").begin_array();
    for pt in &curve {
        w.begin_object();
        w.field("babble_period_us").uint(pt.babble_period_us);
        w.field("bus_load")
            .number((pt.bus_load * 1000.0).round() / 1000.0);
        w.field("pubs").uint(pt.pubs);
        w.field("misses").uint(pt.misses);
        w.field("worst_slack_us").number(pt.worst_slack_us as f64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.field("lost_frame").begin_object();
    w.field("ticks").uint(sweep_ticks);
    w.field("violations")
        .uint(lost_report.robustness.violations.len() as u64);
    w.field("detection_latency_ticks");
    match detection {
        Some(l) => w.uint(l),
        None => w.null(),
    };
    w.end_object();
    w.end_object();
    results.data(w.finish());

    // The gates are semantic: fault-free clean, saturation violating
    // (with the curve's ends ordered), the dropout detected within the
    // run, plus a throughput floor.
    let nominal = &curve[0];
    let saturated = curve.last().unwrap();
    results.gate_at_most("nominal_clean misses", nominal.misses as f64, 0.0);
    results.gate_at_least(
        "nominal_clean worst_slack_us",
        nominal.worst_slack_us as f64,
        1.0,
    );
    results.gate_at_least("saturation_violates misses", saturated.misses as f64, 1.0);
    results.gate_at_least(
        "curve_monotone_ends misses gained",
        saturated.misses as f64 - nominal.misses as f64,
        0.0,
    );
    results.gate_at_least(
        "curve_monotone_ends worst_slack_us lost",
        (nominal.worst_slack_us - saturated.worst_slack_us) as f64,
        1.0,
    );
    results.gate_at_most(
        "lost_frame_detected latency_ticks",
        detection.map_or(f64::NAN, |l| l as f64),
        sweep_ticks as f64,
    );
    let tp_floor = if quick { 5_000.0 } else { 10_000.0 };
    results.gate_at_least("throughput_floor", ticks_per_s, tp_floor);
    automode_bench::write_results("BENCH_platform.json", results);
}
