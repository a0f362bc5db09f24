//! Experiment E10 (Sec. 3.3): the MTD-to-dataflow transformation.
//!
//! Shape claims: the transformation produces a *semantically equivalent*
//! model (verified by trace comparison across mode counts) with bounded,
//! linear structural overhead (one selector + one instance per mode + one
//! mux per output), and its runtime scales with the number of modes.

use automode_bench::{ring_mtd, time_and_print, Arm};
use automode_kernel::TraceEquivalence;
use automode_sim::{simulate_component, stimulus};
use automode_transform::mode_dataflow::{mtd_to_dataflow, partition_count};

fn shape_report() {
    eprintln!("\n[E10 report] MTD -> dataflow equivalence and overhead:");
    for modes in [2usize, 4, 8, 16, 32] {
        let (mut model, owner) = ring_mtd(modes, modes as u64);
        let df = mtd_to_dataflow(&mut model, owner).unwrap();
        let parts = partition_count(&model, df).unwrap();

        let x = stimulus::seeded_random(-1.0, 2.0, 200, modes as u64);
        let a = simulate_component(&model, owner, &[("x", x.clone())], 200).unwrap();
        let b = simulate_component(&model, df, &[("x", x)], 200).unwrap();
        let rel = TraceEquivalence::exact().on_signals(["y"]);
        let equivalent = a.trace.equivalent(&b.trace, &rel);
        eprintln!(
            "  modes = {modes:>2}: partitions = {parts:>2} (modes + selector), trace-equivalent = {equivalent}"
        );
        assert!(equivalent, "{:?}", a.trace.diff(&b.trace, &rel));
        assert_eq!(parts, modes + 1);
    }
}

fn main() {
    shape_report();
    let x = stimulus::seeded_random(-1.0, 2.0, 500, 5);
    // Execution overhead: MTD interpreter vs. generated dataflow.
    let transformed = [2usize, 8, 32].map(|modes| {
        let (mut model, owner) = ring_mtd(modes, 1);
        let df = mtd_to_dataflow(&mut model, owner).unwrap();
        (modes, model, owner, df)
    });
    let mut arms = Vec::new();
    for (modes, model, owner, df) in &transformed {
        let modes = *modes;
        arms.push(Arm::iter(
            format!("fig7b_mtd_to_dataflow/transform/{modes}"),
            move || {
                let (mut model, owner) = ring_mtd(modes, 1);
                mtd_to_dataflow(&mut model, owner).unwrap()
            },
        ));
        arms.push(Arm::iter(
            format!("fig7b_mtd_to_dataflow/run_mtd/{modes}"),
            || simulate_component(model, *owner, &[("x", x.clone())], 500).unwrap(),
        ));
        arms.push(Arm::iter(
            format!("fig7b_mtd_to_dataflow/run_dataflow/{modes}"),
            || simulate_component(model, *df, &[("x", x.clone())], 500).unwrap(),
        ));
    }
    time_and_print(arms);
}
