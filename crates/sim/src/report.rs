//! JSON encodings of simulation results and compile-time facts.
//!
//! The sweep service streams one JSON document per scenario back to the
//! caller; these encoders render the pieces — [`SimStats`]/
//! [`PlanInfo`](automode_kernel::PlanInfo) compile facts, per-run summary
//! metrics, [`RobustnessReport`]s, and the canonical trace text — through
//! the minimal writer in [`automode_core::json`]. Everything here is a
//! pure function of its input, so the service encodes results on worker
//! threads without touching shared state, and the loopback tests can
//! assert byte equality between a streamed result and a direct
//! [`CompiledSim`](crate::CompiledSim) run encoded the same way.

use automode_core::json::JsonWriter;
use automode_kernel::trace::TextMode;
use automode_kernel::{PlanInfo, RobustnessReport};

use crate::compiled::SimStats;
use crate::simulate::SimRun;

/// Encodes a [`PlanInfo`] into `w` as one object value.
pub fn plan_info_to_json(w: &mut JsonWriter, plan: &PlanInfo) {
    w.begin_object();
    w.field("engine").string(&plan.kind.to_string());
    match plan.hyperperiod {
        Some(h) => w.field("hyperperiod").uint(h),
        None => w.field("hyperperiod").null(),
    };
    match &plan.wheel_rejection {
        Some(r) => w.field("wheel_rejection").string(&r.to_string()),
        None => w.field("wheel_rejection").null(),
    };
    w.end_object();
}

/// Encodes [`SimStats`] into `w` as one object value.
pub fn sim_stats_to_json(w: &mut JsonWriter, stats: &SimStats) {
    w.begin_object();
    w.field("nodes").uint(stats.nodes as u64);
    w.field("inputs").uint(stats.inputs as u64);
    w.field("plan");
    plan_info_to_json(w, &stats.plan);
    w.end_object();
}

/// Encodes a [`RobustnessReport`] into `w` as one object value.
pub fn robustness_to_json(w: &mut JsonWriter, report: &RobustnessReport) {
    w.begin_object();
    w.field("ticks").uint(report.ticks as u64);
    w.field("contracts_checked")
        .uint(report.contracts_checked as u64);
    w.field("clean").boolean(report.is_clean());
    match report.first_violation_tick() {
        Some(t) => w.field("first_violation_tick").uint(t),
        None => w.field("first_violation_tick").null(),
    };
    w.field("violations").begin_array();
    for v in &report.violations {
        w.begin_object();
        w.field("signal").string(&v.signal);
        w.field("tick").uint(v.tick);
        w.field("expected_present").boolean(v.expected_present);
        w.field("observed_present").boolean(v.observed_present);
        w.end_object();
    }
    w.end_array();
    w.field("missing_signals").begin_array();
    for s in &report.missing_signals {
        w.string(s);
    }
    w.end_array();
    w.end_object();
}

/// Encodes one run's summary metrics into `w` as one object value:
/// tick count plus, per signal, how many ticks carried a present message.
/// This is the cheap always-on part of a streamed scenario result; the
/// full trace rides along only when the sweep asks for it.
pub fn run_metrics_to_json(w: &mut JsonWriter, run: &SimRun) {
    w.begin_object();
    w.field("ticks").uint(run.ticks as u64);
    w.field("signals").begin_array();
    for (name, stream) in run.trace.signals() {
        w.begin_object();
        w.field("name").string(name);
        w.field("present").uint(stream.present_count() as u64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/// Encodes one full scenario result into `w` as one object value:
/// summary metrics, optionally the canonical trace text, optionally a
/// [`RobustnessReport`], optionally a VCD dump. The trace text is written
/// already escaped straight from the trace columns into `w`'s buffer.
pub fn sim_run_to_json(
    w: &mut JsonWriter,
    run: &SimRun,
    trace: bool,
    robustness: Option<&RobustnessReport>,
    vcd: Option<&str>,
) {
    w.begin_object();
    w.field("metrics");
    run_metrics_to_json(w, run);
    if trace {
        w.field("trace")
            .string_with(|out| run.trace.write_canonical(out, TextMode::Json));
    }
    if let Some(r) = robustness {
        w.field("robustness");
        robustness_to_json(w, r);
    }
    if let Some(v) = vcd {
        w.field("vcd").string(v);
    }
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledSim;
    use crate::stimulus;
    use automode_core::model::{Behavior, Component, Model};
    use automode_core::types::DataType;
    use automode_kernel::FaultKind;
    use automode_lang::parse;

    fn sim() -> CompiledSim {
        let mut m = Model::new("t");
        let id = m
            .add_component(
                Component::new("Gain")
                    .input("u", DataType::Float)
                    .output("y", DataType::Float)
                    .with_behavior(Behavior::expr("y", parse("u * 2.0").unwrap())),
            )
            .unwrap();
        m.set_root(id);
        CompiledSim::new(&m, id).unwrap()
    }

    #[test]
    fn stats_and_plan_encode() {
        let sim = sim();
        let mut w = JsonWriter::new();
        sim_stats_to_json(&mut w, &sim.stats());
        let text = w.finish();
        assert!(text.contains("\"nodes\":"), "{text}");
        assert!(text.contains("\"engine\":"), "{text}");
        assert!(text.contains("\"wheel_rejection\":\""), "{text}");
    }

    #[test]
    fn run_encoding_is_deterministic_and_complete() {
        let mut sim = sim();
        let u = stimulus::seeded_random(-1.0, 1.0, 8, 3);
        let run = sim.run(&[("u", u.clone())], 8).unwrap();
        let encode = |run: &SimRun| {
            let mut w = JsonWriter::new();
            sim_run_to_json(&mut w, run, true, None, None);
            w.finish()
        };
        let a = encode(&run);
        assert!(a.contains("\"metrics\":"), "{a}");
        assert!(a.contains("\"trace\":\"automode-trace v1"), "{a}");
        // Byte-identical across repeated runs of the same scenario — the
        // property the service loopback test leans on.
        let again = sim.run(&[("u", u)], 8).unwrap();
        assert_eq!(a, encode(&again));
    }

    #[test]
    fn robustness_report_encodes_violations() {
        let mut sim = sim();
        let monitor = sim
            .monitor()
            .expect_exact("y", automode_kernel::Clock::Base);
        sim.set_faults(&[("y", FaultKind::drop_every(2, 1))])
            .unwrap();
        let u = stimulus::constant(automode_kernel::Value::Float(1.0), 6);
        let (run, report) = sim.run_monitored(&[("u", u)], 6, &monitor).unwrap();
        let mut w = JsonWriter::new();
        sim_run_to_json(&mut w, &run, false, Some(&report), None);
        let text = w.finish();
        assert!(text.contains("\"clean\":false"), "{text}");
        assert!(text.contains("\"first_violation_tick\":1"), "{text}");
        assert!(!text.contains("\"trace\""), "{text}");
    }
}
