//! Experiments E5/E9 (Fig. 5 / Sec. 3.2): DFD instantaneous semantics and
//! the causality check.
//!
//! Shape claims: the causality check accepts exactly the loop-free
//! networks (soundness/completeness checked over random instances) and
//! scales near-linearly with network size.

use automode_bench::{random_causal_dfd, random_looped_dfd, time_and_print, Arm};
use automode_core::causality_struct::check_component;
use automode_core::model::Model;
use automode_engine::momentum::{build_momentum_controller, MomentumGains};
use automode_kernel::causality;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn shape_report() {
    eprintln!("\n[E5/E9 report] causality check over random DFDs:");
    let mut accepted = 0;
    let mut rejected = 0;
    for seed in 0..50u64 {
        let (m, top) = random_causal_dfd(40, seed);
        if check_component(&m, top).is_ok() {
            accepted += 1;
        }
        let (m, top) = random_looped_dfd(40, seed);
        if check_component(&m, top).is_err() {
            rejected += 1;
        }
    }
    eprintln!("  50/50 causal DFDs accepted: {}", accepted == 50);
    eprintln!("  50/50 looped DFDs rejected: {}", rejected == 50);
    assert_eq!((accepted, rejected), (50, 50));

    // The Fig. 5 controller itself is causal despite its feedback loop.
    let mut m = Model::new("fig5");
    let id = build_momentum_controller(&mut m, MomentumGains::default()).unwrap();
    assert!(check_component(&m, id).is_ok());
    eprintln!("  momentum controller (delayed integrator feedback): causal");
}

/// Random edge list with `n` nodes and ~2n forward edges (a DAG).
fn random_dag(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..2 * n)
        .map(|_| {
            let a = rng.gen_range(0..n - 1);
            let b = rng.gen_range(a + 1..n);
            (a, b)
        })
        .collect()
}

fn main() {
    shape_report();
    let dags = [100usize, 1_000, 10_000, 50_000].map(|n| (n, random_dag(n, 7)));
    let dfds = [50usize, 200, 800].map(|n| (n, random_causal_dfd(n, 11)));
    // The Fig. 5 controller, its 16 target-speed variants and its inputs.
    let mut m = Model::new("fig5");
    let id = build_momentum_controller(&mut m, MomentumGains::default()).unwrap();
    let v = automode_sim::stimulus::ramp(0.0, 30.0, 1_000);
    let inputs = [("v_des", v.clone()), ("v_act", v.clone())];
    let lanes: Vec<Vec<(&str, automode_kernel::Stream)>> = (0..16)
        .map(|l| {
            let top = 15.0 + l as f64 * 2.0;
            vec![
                ("v_des", automode_sim::stimulus::ramp(0.0, top, 1_000)),
                ("v_act", automode_sim::stimulus::ramp(0.0, top * 0.8, 1_000)),
            ]
        })
        .collect();
    let specs: Vec<automode_sim::BatchScenario<'_>> = lanes
        .iter()
        .map(|inp| automode_sim::BatchScenario::new(inp, 1_000))
        .collect();
    let mut sim = automode_sim::CompiledSim::new(&m, id).unwrap();
    let batch_sim = automode_sim::CompiledSim::new(&m, id).unwrap();

    let mut arms = Vec::new();
    for (n, edges) in &dags {
        arms.push(Arm::iter(
            format!("fig5_causality_scaling/kernel_analyze/{n}"),
            || causality::analyze(*n, edges),
        ));
    }
    for (n, (m, top)) in &dfds {
        arms.push(Arm::iter(
            format!("fig5_causality_scaling/structural_check/{n}"),
            || check_component(m, *top).unwrap(),
        ));
        // Ablation: the same property checked at the kernel level, i.e.
        // full elaboration + schedule computation. The structural check on
        // the meta-model avoids elaborating at all.
        arms.push(Arm::iter(
            format!("fig5_causality_scaling/elaborate_and_prepare/{n}"),
            || automode_sim::elaborate(m, *top).unwrap().prepare().unwrap(),
        ));
    }
    // Simulation throughput of the Fig. 5 controller.
    arms.push(Arm::iter("fig5_momentum_1000_ticks", || {
        automode_sim::simulate_component(
            &m,
            id,
            &[("v_des", v.clone()), ("v_act", v.clone())],
            1_000,
        )
        .unwrap()
    }));
    // Ablations of the same run: a reused `CompiledSim` (no per-run
    // elaborate/prepare) and a 16-lane batch of target-speed variants.
    arms.push(Arm::iter("fig5_momentum_1000_ticks_compiled", || {
        sim.run(&inputs, 1_000).unwrap()
    }));
    arms.push(Arm::iter("fig5_momentum_1000_ticks_batch16", || {
        batch_sim.run_batch(&specs).unwrap()
    }));
    time_and_print(arms);
}
