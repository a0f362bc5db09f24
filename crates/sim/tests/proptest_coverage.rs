//! Differential tests of discrete-state coverage collection.
//!
//! The covered execution paths must all report the *same* coverage for the
//! same scenario: `run_batch_covered` on the typed-lane path, on the
//! scalar path (vectorization off: each lane run alone), and with clock
//! gating disabled must each equal K sequential `run_covered` calls,
//! which in turn must equal the interpretive [`ReferenceExecutor`] replay —
//! across per-lane fault injection (gating-safe drops and value-rewriting
//! faults that force the dense schedule).

use automode_core::model::{
    Behavior, Component, ComponentId, Composite, CompositeKind, Endpoint, Model,
};
use automode_core::std_machine::{Assign, StdMachine, StdTransition};
use automode_core::types::DataType;
use automode_core::Mtd;
use automode_kernel::network::rows_padded_with_absence;
use automode_kernel::{Corruptor, CoverageMap, FaultKind, FaultSpec, ReplicaReason, Stream, Value};
use automode_lang::parse;
use automode_sim::{elaborate, stimulus, BatchScenario, CompiledSim};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A three-mode MTD whose thresholds sit inside the 0..20 stimulus range,
/// so random lanes genuinely walk the mode graph at lane-dependent ticks.
fn mtd_model() -> (Model, ComponentId) {
    let mut m = Model::new("t");
    let id = add_mtd(&mut m);
    (m, id)
}

/// Adds [`mtd_model`]'s component (and its mode leaves) to `m`.
fn add_mtd(m: &mut Model) -> ComponentId {
    let leaf = |m: &mut Model, name: &str, expr: &str| -> ComponentId {
        m.add_component(
            Component::new(name)
                .input("x", DataType::Float)
                .output("y", DataType::Float)
                .with_behavior(Behavior::expr("y", parse(expr).unwrap())),
        )
        .unwrap()
    };
    let lo = leaf(m, "Low", "x * 0.0");
    let mid = leaf(m, "Mid", "x * 1.0");
    let hi = leaf(m, "High", "x * 2.0");
    let mut mtd = Mtd::new();
    let ml = mtd.add_mode("Low", lo);
    let mm = mtd.add_mode("Mid", mid);
    let mh = mtd.add_mode("High", hi);
    mtd.add_transition(ml, mm, parse("x > 5.0").unwrap(), 0);
    mtd.add_transition(mm, mh, parse("x > 15.0").unwrap(), 0);
    mtd.add_transition(mm, ml, parse("x < 2.0").unwrap(), 1);
    mtd.add_transition(mh, mm, parse("x < 10.0").unwrap(), 0);
    m.add_component(
        Component::new("Regimes")
            .input("x", DataType::Float)
            .output("y", DataType::Float)
            .with_behavior(Behavior::Mtd(mtd)),
    )
    .unwrap()
}

/// A three-state STD with a variable, so transition actions and guards both
/// participate in the walked state graph.
fn std_model() -> (Model, ComponentId) {
    let mut m = Model::new("t");
    let id = add_std(&mut m);
    (m, id)
}

/// Adds [`std_model`]'s component to `m`.
fn add_std(m: &mut Model) -> ComponentId {
    let mut fsm = StdMachine::new();
    let idle = fsm.add_state("Idle");
    let armed = fsm.add_state("Armed");
    let fired = fsm.add_state("Fired");
    fsm.add_transition(StdTransition {
        from: idle,
        to: armed,
        guard: parse("x > 8.0").unwrap(),
        actions: vec![Assign {
            target: "y".into(),
            expr: parse("1.0").unwrap(),
        }],
        priority: 0,
    });
    fsm.add_transition(StdTransition {
        from: armed,
        to: fired,
        guard: parse("x > 16.0").unwrap(),
        actions: vec![Assign {
            target: "y".into(),
            expr: parse("2.0").unwrap(),
        }],
        priority: 0,
    });
    fsm.add_transition(StdTransition {
        from: armed,
        to: idle,
        guard: parse("x < 2.0").unwrap(),
        actions: vec![],
        priority: 1,
    });
    fsm.add_transition(StdTransition {
        from: fired,
        to: idle,
        guard: parse("x < 4.0").unwrap(),
        actions: vec![Assign {
            target: "y".into(),
            expr: parse("0.0").unwrap(),
        }],
        priority: 0,
    });
    m.add_component(
        Component::new("Trigger")
            .input("x", DataType::Float)
            .output("y", DataType::Float)
            .with_behavior(Behavior::Std(fsm)),
    )
    .unwrap()
}

/// [`mtd_model`]'s MTD and [`std_model`]'s STD side by side in one DFD,
/// both reading `x`: a covered batch steps the MTD on its lane kernel and
/// the STD (which has none) on per-lane replicas.
fn mixed_model() -> (Model, ComponentId) {
    let mut m = Model::new("t");
    let regimes = add_mtd(&mut m);
    let trigger = add_std(&mut m);
    let mut dfd = Composite::new(CompositeKind::Dfd);
    dfd.instantiate("regimes", regimes);
    dfd.instantiate("trigger", trigger);
    dfd.connect(Endpoint::boundary("x"), Endpoint::child("regimes", "x"));
    dfd.connect(Endpoint::boundary("x"), Endpoint::child("trigger", "x"));
    dfd.connect(Endpoint::child("regimes", "y"), Endpoint::boundary("a"));
    dfd.connect(Endpoint::child("trigger", "y"), Endpoint::boundary("b"));
    let id = m
        .add_component(
            Component::new("Mixed")
                .input("x", DataType::Float)
                .output("a", DataType::Float)
                .output("b", DataType::Float)
                .with_behavior(Behavior::Composite(dfd)),
        )
        .unwrap();
    (m, id)
}

/// Lane `l`'s fault set: a rotation through nothing, a gating-safe drop,
/// a stuck-at, and a corruptor — the latter two force the dense schedule.
fn lane_faults(l: usize, with_faults: bool) -> Vec<(String, FaultKind)> {
    if !with_faults {
        return Vec::new();
    }
    match l % 4 {
        0 => Vec::new(),
        1 => vec![(
            "x".to_string(),
            FaultKind::drop_every(2 + l as u64 % 3, l as u64 % 2),
        )],
        2 => vec![("x".to_string(), FaultKind::StuckAt(Value::Float(12.0)))],
        _ => vec![("x".to_string(), FaultKind::Corrupt(Corruptor::scale(1.5)))],
    }
}

struct Lane {
    stream: Stream,
    ticks: usize,
    faults: Vec<(String, FaultKind)>,
}

fn make_lanes(k: usize, base_ticks: usize, seed: u64, with_faults: bool) -> Vec<Lane> {
    (0..k)
        .map(|l| Lane {
            stream: stimulus::seeded_random(0.0, 20.0, base_ticks + l, seed.wrapping_add(l as u64)),
            ticks: base_ticks + l,
            faults: lane_faults(l, with_faults),
        })
        .collect()
}

/// Sequential oracle: one `run_covered` per lane on a freshly faulted clone.
fn sequential_maps(
    base: &CompiledSim,
    port: &str,
    lanes: &[Lane],
) -> Result<Vec<CoverageMap>, TestCaseError> {
    let mut maps = Vec::with_capacity(lanes.len());
    for lane in lanes {
        let mut sim = base.clone();
        let faults: Vec<(&str, FaultKind)> = lane
            .faults
            .iter()
            .map(|(n, kind)| (n.as_str(), kind.clone()))
            .collect();
        sim.set_faults(&faults).unwrap();
        let (_, cov) = sim
            .run_covered(&[(port, lane.stream.clone())], lane.ticks)
            .unwrap();
        maps.push(cov);
    }
    Ok(maps)
}

fn batch_maps(
    sim: &CompiledSim,
    port: &str,
    lanes: &[Lane],
) -> Result<Vec<CoverageMap>, TestCaseError> {
    let inputs: Vec<[(&str, Stream); 1]> =
        lanes.iter().map(|l| [(port, l.stream.clone())]).collect();
    let scenarios: Vec<BatchScenario<'_>> = lanes
        .iter()
        .zip(&inputs)
        .map(|(lane, inp)| {
            let mut sc = BatchScenario::new(inp.as_slice(), lane.ticks);
            for (name, kind) in &lane.faults {
                sc = sc.with_fault(name.clone(), kind.clone());
            }
            sc
        })
        .collect();
    let (_, maps) = sim.run_batch_covered(&scenarios).unwrap();
    Ok(maps)
}

/// Interpretive oracle: the `ReferenceExecutor` replay of each lane.
fn reference_maps(
    model: &Model,
    component: ComponentId,
    lanes: &[Lane],
) -> Result<Vec<CoverageMap>, TestCaseError> {
    let mut maps = Vec::with_capacity(lanes.len());
    for lane in lanes {
        let mut exec = elaborate(model, component)
            .unwrap()
            .prepare_reference()
            .unwrap();
        let specs: Vec<FaultSpec> = lane
            .faults
            .iter()
            .map(|(_, kind)| FaultSpec::on_input(0, kind.clone()))
            .collect();
        exec.set_faults(&specs).unwrap();
        let layout = std::sync::Arc::new(exec.coverage_layout());
        let mut cov = CoverageMap::new(layout);
        let stim = rows_padded_with_absence(&[&lane.stream], lane.ticks);
        exec.run_covered(&stim, &mut cov).unwrap();
        maps.push(cov);
    }
    Ok(maps)
}

fn check_all_paths(
    model: &Model,
    component: ComponentId,
    port: &str,
    lanes: &[Lane],
) -> Result<(), TestCaseError> {
    let base = CompiledSim::new(model, component).unwrap();
    let seq = sequential_maps(&base, port, lanes)?;

    // Typed-lane batch path (the default).
    let typed = batch_maps(&base, port, lanes)?;
    prop_assert_eq!(&typed, &seq, "typed batch != sequential");

    // Scalar batch path: each lane alone through the single-run loop.
    let mut messages_sim = base.clone();
    messages_sim.set_batch_vectorization(false);
    let messages = batch_maps(&messages_sim, port, lanes)?;
    prop_assert_eq!(&messages, &seq, "message batch != sequential");

    // Clock gating disabled (dense schedule on every path).
    let mut dense_sim = base.clone();
    dense_sim.disable_clock_gating();
    let dense = batch_maps(&dense_sim, port, lanes)?;
    prop_assert_eq!(&dense, &seq, "ungated batch != sequential");

    // Interpretive replay.
    let reference = reference_maps(model, component, lanes)?;
    prop_assert_eq!(&reference, &seq, "reference replay != sequential");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MTD mode coverage agrees across every execution path, nominal lanes.
    #[test]
    fn mtd_coverage_is_path_independent(
        seed in any::<u64>(),
        k in 1usize..6,
        base_ticks in 1usize..24,
    ) {
        let (model, component) = mtd_model();
        let lanes = make_lanes(k, base_ticks, seed, false);
        check_all_paths(&model, component, "x", &lanes)?;
    }

    /// MTD mode coverage agrees across every execution path under per-lane
    /// faults (drops, stuck-at, corruption).
    #[test]
    fn mtd_coverage_is_path_independent_under_faults(
        seed in any::<u64>(),
        k in 1usize..6,
        base_ticks in 1usize..24,
    ) {
        let (model, component) = mtd_model();
        let lanes = make_lanes(k, base_ticks, seed, true);
        check_all_paths(&model, component, "x", &lanes)?;
    }

    /// STD state/transition coverage agrees across every execution path,
    /// with and without faults.
    #[test]
    fn std_coverage_is_path_independent(
        seed in any::<u64>(),
        k in 1usize..6,
        base_ticks in 1usize..24,
        with_faults in any::<bool>(),
    ) {
        let (model, component) = std_model();
        let lanes = make_lanes(k, base_ticks, seed, with_faults);
        check_all_paths(&model, component, "x", &lanes)?;
    }

    /// Wide batches (37 lanes, past the service's K = 32) hand each lane
    /// its own coverage map on every path.
    #[test]
    fn wide_batches_slice_coverage_per_chunk(
        seed in any::<u64>(),
        with_faults in any::<bool>(),
    ) {
        let (model, component) = mtd_model();
        let lanes = make_lanes(37, 12, seed, with_faults);
        check_all_paths(&model, component, "x", &lanes)?;
    }

    /// One covered batch mixes a kernel site (the MTD) and a replica site
    /// (the STD); past 16 lanes, under per-lane faults, every lane's map
    /// still equals its lone and reference runs'.
    #[test]
    fn mixed_kernel_and_replica_sites_agree_per_lane(
        seed in any::<u64>(),
        k in 17usize..40,
        base_ticks in 1usize..24,
    ) {
        let (model, component) = mixed_model();
        let lanes = make_lanes(k, base_ticks, seed, true);
        check_all_paths(&model, component, "x", &lanes)?;
    }
}

#[test]
fn mixed_model_plans_the_mtd_on_a_kernel_and_the_std_on_replicas() {
    let (model, component) = mixed_model();
    let sim = CompiledSim::new(&model, component).unwrap();
    let layout = sim.coverage_layout();
    assert_eq!(layout.sites().len(), 2);
    let plan = sim.lane_plan(32);
    let replicas: Vec<(&str, ReplicaReason)> = plan.replicas().collect();
    assert_eq!(replicas.len(), 1, "{plan}");
    assert_eq!(replicas[0].1, ReplicaReason::NoLaneKernel, "{plan}");
    let std_site = layout
        .sites()
        .iter()
        .find(|s| s.states.len() == 3 && s.name == replicas[0].0);
    assert!(
        std_site.is_some(),
        "the replica is not a coverage site: {plan}"
    );
}

#[test]
fn maps_from_two_batches_share_one_layout() {
    let (model, component) = mtd_model();
    let mut sim = CompiledSim::new(&model, component).unwrap();
    let lanes = make_lanes(3, 8, 7, false);
    let first = batch_maps(&sim, "x", &lanes).unwrap();
    let second = batch_maps(&sim, "x", &lanes).unwrap();
    let layout = sim.coverage_layout();
    for map in first.iter().chain(&second) {
        assert!(std::sync::Arc::ptr_eq(map.layout(), &layout));
    }
    let (_, lone) = sim
        .run_covered(&[("x", lanes[0].stream.clone())], lanes[0].ticks)
        .unwrap();
    assert!(std::sync::Arc::ptr_eq(lone.layout(), &layout));
    assert!(std::sync::Arc::ptr_eq(
        &sim.clone().coverage_layout(),
        &layout
    ));
}

#[test]
fn layouts_agree_between_compiled_and_reference() {
    let (model, component) = mtd_model();
    let sim = CompiledSim::new(&model, component).unwrap();
    let compiled = sim.coverage_layout();
    let reference = elaborate(&model, component)
        .unwrap()
        .prepare_reference()
        .unwrap()
        .coverage_layout();
    assert_eq!(compiled.total_states(), reference.total_states());
    assert_eq!(compiled.total_transitions(), reference.total_transitions());
    assert_eq!(compiled.sites().len(), reference.sites().len());
    for (a, b) in compiled.sites().iter().zip(reference.sites()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
    }
    // 3 modes, 4 declared transitions, no self-loops.
    assert_eq!(compiled.total_states(), 3);
    assert_eq!(compiled.total_transitions(), 4);
}

#[test]
fn a_full_sweep_covers_the_whole_mode_graph() {
    let (model, component) = mtd_model();
    let mut sim = CompiledSim::new(&model, component).unwrap();
    // A triangle wave 0 -> 20 -> 0 walks Low->Mid->High->Mid->Low.
    let up: Vec<f64> = (0..21).map(f64::from).collect();
    let down: Vec<f64> = (0..21).rev().map(f64::from).collect();
    let wave: Vec<f64> = up.into_iter().chain(down).collect();
    let ticks = wave.len();
    let stream = Stream::from_values(wave.into_iter().map(Value::Float));
    let (_, cov) = sim.run_covered(&[("x", stream)], ticks).unwrap();
    assert_eq!(cov.states_covered(), 3);
    assert_eq!(cov.transitions_covered(), 4);
}
