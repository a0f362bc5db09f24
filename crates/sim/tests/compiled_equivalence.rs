//! Differential tests of [`CompiledSim`] against the one-shot pipeline.
//!
//! A reused compiled handle must match a fresh elaborate-and-run for every
//! run, and `run_batch` must match per-scenario sequential runs — on a
//! stateless component and on a stateful mode-switching (MTD) component.

use automode_core::model::{Behavior, Component, ComponentId, Model};
use automode_core::types::DataType;
use automode_core::Mtd;
use automode_kernel::Stream;
use automode_lang::parse;
use automode_sim::{simulate_component, stimulus, BatchScenario, CompiledSim};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn gain_model() -> (Model, ComponentId) {
    let mut m = Model::new("t");
    let id = m
        .add_component(
            Component::new("Gain")
                .input("u", DataType::Float)
                .output("y", DataType::Float)
                .with_behavior(Behavior::expr("y", parse("u * 3.0 + 1.0").unwrap())),
        )
        .unwrap();
    (m, id)
}

/// A two-mode MTD (constant vs. pass-through) whose transitions fire on
/// thresholds inside the stimulus range, so lanes genuinely switch modes
/// at lane-dependent ticks — the stateful case batching must replicate.
fn mtd_model() -> (Model, ComponentId) {
    let mut m = Model::new("t");
    let leaf = |m: &mut Model, name: &str, expr: &str| -> ComponentId {
        m.add_component(
            Component::new(name)
                .input("x", DataType::Float)
                .output("y", DataType::Float)
                .with_behavior(Behavior::expr("y", parse(expr).unwrap())),
        )
        .unwrap()
    };
    let a = leaf(&mut m, "Constant", "0.2 + x * 0.0");
    let b = leaf(&mut m, "Linear", "x * 1.0");
    let mut mtd = Mtd::new();
    let ma = mtd.add_mode("A", a);
    let mb = mtd.add_mode("B", b);
    mtd.add_transition(ma, mb, parse("x > 10.0").unwrap(), 0);
    mtd.add_transition(mb, ma, parse("x < 5.0").unwrap(), 0);
    let id = m
        .add_component(
            Component::new("Switcher")
                .input("x", DataType::Float)
                .output("y", DataType::Float)
                .with_behavior(Behavior::Mtd(mtd)),
        )
        .unwrap();
    (m, id)
}

/// Per-lane scenario inputs: same port, lane-specific stream and horizon.
/// The 0..20 value range straddles both MTD thresholds (5 and 10).
fn lane_inputs(port: &'static str, k: usize, base_ticks: usize, seed: u64) -> Vec<ScenarioInput> {
    (0..k)
        .map(|l| {
            let ticks = base_ticks + l;
            ScenarioInput {
                inputs: vec![(
                    port,
                    stimulus::seeded_random(0.0, 20.0, ticks, seed.wrapping_add(l as u64)),
                )],
                ticks,
            }
        })
        .collect()
}

struct ScenarioInput {
    inputs: Vec<(&'static str, Stream)>,
    ticks: usize,
}

fn check_batch(
    model: &Model,
    component: ComponentId,
    scenarios: &[ScenarioInput],
) -> Result<(), TestCaseError> {
    let sim = CompiledSim::new(model, component).unwrap();
    let specs: Vec<BatchScenario<'_>> = scenarios
        .iter()
        .map(|s| BatchScenario::new(&s.inputs, s.ticks))
        .collect();
    let batch = sim.run_batch(&specs).unwrap();
    prop_assert_eq!(batch.len(), scenarios.len());
    for (lane, s) in scenarios.iter().enumerate() {
        let fresh = simulate_component(model, component, &s.inputs, s.ticks).unwrap();
        prop_assert_eq!(&batch[lane], &fresh, "lane {}", lane);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A reused handle matches a fresh elaborate-and-run, run after run —
    /// including on the stateful MTD, whose mode register must be reset
    /// between runs.
    #[test]
    fn reused_compiled_sim_matches_fresh_runs(
        seed in any::<u64>(),
        runs in 1usize..5,
        ticks in 1usize..24,
    ) {
        for (model, component, port) in [
            { let (m, c) = gain_model(); (m, c, "u") },
            { let (m, c) = mtd_model(); (m, c, "x") },
        ] {
            let mut sim = CompiledSim::new(&model, component).unwrap();
            for r in 0..runs {
                let stream =
                    stimulus::seeded_random(0.0, 20.0, ticks, seed.wrapping_add(r as u64));
                let inputs = [(port, stream)];
                let reused = sim.run(&inputs, ticks).unwrap();
                let fresh = simulate_component(&model, component, &inputs, ticks).unwrap();
                prop_assert_eq!(reused, fresh, "run {}", r);
            }
        }
    }

    /// `run_batch` matches per-scenario sequential simulation on the
    /// stateless component (heterogeneous horizons).
    #[test]
    fn batch_matches_sequential_on_stateless_model(
        seed in any::<u64>(),
        k in 1usize..5,
        base_ticks in 1usize..20,
    ) {
        let (model, component) = gain_model();
        let scenarios = lane_inputs("u", k, base_ticks, seed);
        check_batch(&model, component, &scenarios)?;
    }

    /// `run_batch` matches per-scenario sequential simulation on the
    /// stateful MTD (each lane owns an independent mode register).
    #[test]
    fn batch_matches_sequential_on_stateful_mtd(
        seed in any::<u64>(),
        k in 1usize..5,
        base_ticks in 1usize..20,
    ) {
        let (model, component) = mtd_model();
        let scenarios = lane_inputs("x", k, base_ticks, seed);
        check_batch(&model, component, &scenarios)?;
    }
}
