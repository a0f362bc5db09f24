//! Lane differential suite: the typed batch path — lane kernels for every
//! node, MTDs and `if`/`clamp` expressions included — against K sequential
//! [`CompiledSim::run`] calls and against the vectorization-off batch
//! (each lane run alone through the single-run loop), bit for bit, on
//! mode-switching models: the reengineered engine of Sec. 5, the Fig. 6
//! engine-operation MTD, a generated 8-mode controller, nested MTDs and
//! lanes of different lengths. A failing batch must report the error of
//! its lowest failing lane, exactly as that lane reports it alone,
//! whichever node fails and at whichever tick.

use automode_core::model::{
    Behavior, Component, ComponentId, Composite, CompositeKind, Endpoint, Model, Primitive,
};
use automode_core::types::DataType;
use automode_core::Mtd;
use automode_kernel::lanes::{encode, TAG_OTHER};
use automode_kernel::{Message, Placement, Stream, Trace, Value};
use automode_lang::parse;
use automode_sim::{BatchScenario, CompiledSim, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One message as its lane encoding: (tag, bits, non-scalar payload).
type Cell = (u8, u64, Message);

/// Every signal of a trace as lane encodings, so floats compare by bits
/// (NaN payloads and signed zeros included).
fn trace_bits(trace: &Trace) -> Vec<(String, Vec<Cell>)> {
    trace
        .signal_names()
        .map(|name| {
            let cells = trace
                .signal(name)
                .expect("declared signal")
                .iter()
                .map(|m| {
                    let (mut tag, mut bits, mut other) = (0u8, 0u64, Message::Absent);
                    encode(m, &mut tag, &mut bits, &mut other);
                    if tag != TAG_OTHER {
                        other = Message::Absent;
                    }
                    (tag, bits, other)
                })
                .collect();
            (name.to_string(), cells)
        })
        .collect()
}

/// The vectorization-off twin of `sim`: the scalar oracle, which runs
/// each lane alone.
fn scalar(sim: &CompiledSim) -> CompiledSim {
    let mut s = sim.clone();
    s.set_batch_vectorization(false);
    s
}

/// Asserts the typed batch, the scalar batch and one sequential run per
/// lane agree exactly.
fn assert_lanes_agree(sim: &CompiledSim, lanes: &[Vec<(&str, Stream)>], ticks: &[usize]) {
    let scenarios: Vec<BatchScenario<'_>> = lanes
        .iter()
        .zip(ticks)
        .map(|(inputs, &t)| BatchScenario::new(inputs, t))
        .collect();
    let typed = sim.run_batch(&scenarios).expect("typed batch runs");
    let messages = scalar(sim)
        .run_batch(&scenarios)
        .expect("scalar batch runs");
    assert_eq!(typed.len(), lanes.len());
    for (l, (inputs, &t)) in lanes.iter().zip(ticks).enumerate() {
        let solo = sim.clone().run(inputs, t).expect("sequential run");
        let got = trace_bits(&typed[l].trace);
        assert_eq!(
            got,
            trace_bits(&messages[l].trace),
            "lane {l}: typed vs scalar"
        );
        assert_eq!(
            got,
            trace_bits(&solo.trace),
            "lane {l}: typed vs sequential"
        );
        assert_eq!(typed[l].ticks, t);
    }
}

/// Seeded-random float stream over `[lo, hi)`.
fn random_stream(rng: &mut StdRng, ticks: usize, lo: f64, hi: f64) -> Stream {
    Stream::from_values(
        (0..ticks)
            .map(|_| Value::Float(rng.gen_range(lo..hi)))
            .collect::<Vec<_>>(),
    )
}

/// Engine-shaped inputs: ignition mostly on, random rpm/throttle/lambda.
fn engine_lanes(k: usize, ticks: usize, seed: u64) -> Vec<Vec<(&'static str, Stream)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            let key: Vec<Value> = (0..ticks)
                .map(|_| Value::Bool(rng.gen_range(0..10u32) != 0))
                .collect();
            vec![
                ("key_on", Stream::from_values(key)),
                ("rpm", random_stream(&mut rng, ticks, 0.0, 7000.0)),
                ("throttle", random_stream(&mut rng, ticks, 0.0, 1.0)),
                ("o2", random_stream(&mut rng, ticks, 0.0, 2.0)),
            ]
        })
        .collect()
}

#[test]
fn engine_matches_sequential_and_scalar_runs() {
    let engine = automode_engine::reengineer_engine().expect("engine reengineers");
    let sim = CompiledSim::new(&engine.model, engine.root).expect("engine compiles");
    for seed in [1, 2, 3] {
        let lanes = engine_lanes(32, 120, seed);
        assert_lanes_agree(&sim, &lanes, &[120; 32]);
    }
}

#[test]
fn engine_and_moded_controller_run_without_replicas() {
    // Every node of the Sec. 5 engine — its three MTDs and the `if`/`clamp`
    // trims included — steps on a lane kernel at the service's K = 32. A
    // model change that drops a node back to replicas fails here.
    let engine = automode_engine::reengineer_engine().unwrap();
    let sim = CompiledSim::new(&engine.model, engine.root).unwrap();
    let plan = sim.lane_plan(32);
    assert_eq!(plan.replicas().count(), 0, "{plan}");
    assert!(
        plan.nodes
            .iter()
            .filter(|(n, _)| n.starts_with("mtd:"))
            .count()
            >= 3
    );

    let (m, id) = automode_bench::moded_controller(8, 24, 1);
    let plan = CompiledSim::new(&m, id).unwrap().lane_plan(32);
    let root = plan.nodes.iter().find(|(n, _)| n == "mtd:Controller");
    assert_eq!(root.map(|(_, p)| *p), Some(Placement::Vectorized), "{plan}");
}

#[test]
fn engine_modes_and_moded_controller_match() {
    let mut m = Model::new("fig6");
    let id = automode_engine::build_engine_modes(&mut m).expect("fig. 6 builds");
    let sim = CompiledSim::new(&m, id).expect("fig. 6 compiles");
    let lanes: Vec<Vec<(&str, Stream)>> = engine_lanes(16, 80, 7)
        .into_iter()
        .map(|mut l| {
            l.truncate(3);
            l
        })
        .collect();
    assert_lanes_agree(&sim, &lanes, &[80; 16]);

    for seed in [11, 12] {
        let (m, id) = automode_bench::moded_controller(8, 24, seed);
        let sim = CompiledSim::new(&m, id).expect("moded controller compiles");
        let mut rng = StdRng::seed_from_u64(seed);
        // Ramps of different heights walk the mode ring different
        // distances, so lanes sit in different modes at every tick.
        let lanes: Vec<Vec<(&str, Stream)>> = (0..24)
            .map(|l| {
                let peak = 1.0 + l as f64 * 0.8;
                let vals: Vec<Value> = (0..60)
                    .map(|t| {
                        let ramp = peak * (t as f64 / 30.0).min(2.0 - t as f64 / 30.0);
                        Value::Float(ramp + rng.gen_range(-0.5..0.5))
                    })
                    .collect();
                vec![("in", Stream::from_values(vals))]
            })
            .collect();
        assert_lanes_agree(&sim, &lanes, &[60; 24]);
    }
}

/// A one-output expression component over float inputs `x` and `y`.
fn leaf(m: &mut Model, name: &str, expr: &str) -> ComponentId {
    m.add_component(
        Component::new(name)
            .input("x", DataType::Float)
            .input("y", DataType::Float)
            .output("out", DataType::Float)
            .with_behavior(Behavior::expr("out", parse(expr).unwrap())),
    )
    .unwrap()
}

/// An MTD component over `x`, `y` from `(mode name, behavior)` pairs and
/// `(from, to, trigger)` transitions.
fn mtd_component(
    m: &mut Model,
    name: &str,
    modes: &[(&str, ComponentId)],
    transitions: &[(usize, usize, &str)],
) -> ComponentId {
    let mut mtd = Mtd::new();
    for (mode, behavior) in modes {
        mtd.add_mode(*mode, *behavior);
    }
    for (prio, (from, to, trigger)) in transitions.iter().enumerate() {
        mtd.add_transition(*from, *to, parse(trigger).unwrap(), prio as u32);
    }
    m.add_component(
        Component::new(name)
            .input("x", DataType::Float)
            .input("y", DataType::Float)
            .output("out", DataType::Float)
            .with_behavior(Behavior::Mtd(mtd)),
    )
    .unwrap()
}

/// A stateful mode body: a leaky accumulator `out = x + 0.5 * out'` over
/// a unit delay, so a lane's mode state must survive the ticks it spends
/// in other modes.
fn accumulator(m: &mut Model) -> ComponentId {
    let mix = leaf(m, "Mix", "x + y * 0.5");
    let delay = m
        .add_component(
            Component::new("Prev")
                .input("in", DataType::Float)
                .output("out", DataType::Float)
                .with_behavior(Behavior::Primitive(Primitive::Delay {
                    init: Some(Value::Float(0.0)),
                })),
        )
        .unwrap();
    let mut dfd = Composite::new(CompositeKind::Dfd);
    dfd.instantiate("mix", mix);
    dfd.instantiate("prev", delay);
    dfd.connect(Endpoint::boundary("x"), Endpoint::child("mix", "x"));
    dfd.connect(Endpoint::child("prev", "out"), Endpoint::child("mix", "y"));
    dfd.connect(Endpoint::child("mix", "out"), Endpoint::child("prev", "in"));
    dfd.connect(Endpoint::child("mix", "out"), Endpoint::boundary("out"));
    m.add_component(
        Component::new("Acc")
            .input("x", DataType::Float)
            .input("y", DataType::Float)
            .output("out", DataType::Float)
            .with_behavior(Behavior::Composite(dfd)),
    )
    .unwrap()
}

/// An outer MTD whose second mode is itself an MTD — modes nest two deep,
/// with a stateful accumulator and `if`/`clamp`/`?` bodies inside.
fn nested_mtds() -> (Model, ComponentId) {
    let mut m = Model::new("nested");
    let low = accumulator(&mut m);
    let high = leaf(
        &mut m,
        "High",
        "if y > 0.0 then clamp(x, 0.0, 3.0) else x - y",
    );
    let hold = leaf(&mut m, "Hold", "(if x > 1.0 then x else y) ? 0.0");
    let inner = mtd_component(
        &mut m,
        "Inner",
        &[("Low", low), ("High", high)],
        &[(0, 1, "x > 2.0"), (1, 0, "x < 1.0 or y < -2.0")],
    );
    let outer = mtd_component(
        &mut m,
        "Outer",
        &[("Hold", hold), ("Run", inner)],
        &[(0, 1, "y > 0.5"), (1, 0, "y < -0.5")],
    );
    m.set_root(outer);
    (m, outer)
}

/// `k` lanes of random `x`, `y` streams of the given lengths.
fn xy_lanes(lens: &[usize], seed: u64) -> Vec<Vec<(&'static str, Stream)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    lens.iter()
        .map(|&n| {
            vec![
                ("x", random_stream(&mut rng, n, -1.0, 4.0)),
                ("y", random_stream(&mut rng, n, -3.0, 3.0)),
            ]
        })
        .collect()
}

#[test]
fn nested_mtds_match() {
    let (m, id) = nested_mtds();
    let sim = CompiledSim::new(&m, id).unwrap();
    let plan = sim.lane_plan(16);
    assert_eq!(plan.replicas().count(), 0, "{plan}");
    let lanes = xy_lanes(&[50; 16], 5);
    assert_lanes_agree(&sim, &lanes, &[50; 16]);
}

#[test]
fn heterogeneous_lane_lengths_match() {
    let (m, id) = nested_mtds();
    let sim = CompiledSim::new(&m, id).unwrap();
    let lens = [0, 1, 7, 40, 3, 40, 19, 2, 33];
    let lanes = xy_lanes(&lens, 9);
    assert_lanes_agree(&sim, &lanes, &lens);
    // Lanes ending mid-batch in the engine, where every node is a kernel.
    let engine = automode_engine::reengineer_engine().unwrap();
    let sim = CompiledSim::new(&engine.model, engine.root).unwrap();
    let lens: Vec<usize> = (0..12).map(|l| 5 + l * 7).collect();
    let lanes = engine_lanes(12, 82, 4)
        .into_iter()
        .zip(&lens)
        .map(|(l, &n)| {
            l.into_iter()
                .map(|(name, s)| (name, s.iter().take(n).cloned().collect::<Stream>()))
                .collect()
        })
        .collect::<Vec<_>>();
    assert_lanes_agree(&sim, &lanes, &lens);
}

/// Runs `lanes` (lane `l` for `ticks[l]` ticks) typed, scalar and — for
/// `culprit` — alone, expecting all three to fail with the same error;
/// returns it.
fn assert_same_error(
    sim: &CompiledSim,
    lanes: &[Vec<(&str, Stream)>],
    ticks: &[usize],
    culprit: usize,
) -> SimError {
    let scenarios: Vec<BatchScenario<'_>> = lanes
        .iter()
        .zip(ticks)
        .map(|(l, &t)| BatchScenario::new(l, t))
        .collect();
    let typed = sim.run_batch(&scenarios).expect_err("typed batch fails");
    let messages = scalar(sim)
        .run_batch(&scenarios)
        .expect_err("scalar batch fails");
    let solo = sim
        .clone()
        .run(&lanes[culprit], ticks[culprit])
        .expect_err("the culprit lane fails alone");
    assert_eq!(typed, messages);
    assert_eq!(typed, solo);
    typed
}

/// Replaces tick `t` of input `port` in `lane` with a symbol, which the
/// float operators reject.
fn poison(lane: &mut [(&str, Stream)], port: &str, t: usize) {
    let (_, s) = lane.iter_mut().find(|(n, _)| *n == port).unwrap();
    let mut vals: Vec<Message> = s.iter().cloned().collect();
    vals[t] = Message::Present(Value::sym("JUNK"));
    *s = vals.into_iter().collect();
}

/// Two modes switching on `x`; the mode bodies read `y`, so a symbol on
/// `y` fails a subnet node and a symbol on `x` fails a trigger.
fn faulty_switch() -> CompiledSim {
    let mut m = Model::new("faulty");
    let a = leaf(&mut m, "A", "y * 2.0");
    let b = leaf(&mut m, "B", "if y > 0.0 then y else 0.0 - y");
    let sw = mtd_component(
        &mut m,
        "Sw",
        &[("A", a), ("B", b)],
        &[(0, 1, "x > 2.0"), (1, 0, "x < 0.5")],
    );
    CompiledSim::new(&m, sw).unwrap()
}

#[test]
fn errors_are_attributed_to_the_lowest_failing_lane() {
    let sim = faulty_switch();
    let lanes = xy_lanes(&[12; 6], 3);

    // A subnet failure on lane 2 and a trigger failure on lane 4, both at
    // tick 5: lane 2's subnet error wins.
    let mut bad = lanes.clone();
    poison(&mut bad[2], "y", 5);
    poison(&mut bad[4], "x", 5);
    let e = assert_same_error(&sim, &bad, &[12; 6], 2);
    assert!(
        !e.to_string().contains("mtd:"),
        "subnet error expected: {e}"
    );

    // A trigger failure on lane 1 beats a subnet failure on lane 3.
    let mut bad = lanes.clone();
    poison(&mut bad[1], "x", 5);
    poison(&mut bad[3], "y", 5);
    let e = assert_same_error(&sim, &bad, &[12; 6], 1);
    assert!(
        e.to_string().contains("mtd:Sw"),
        "trigger error expected: {e}"
    );

    // Lanes parked in different modes: drive lane 1 into `B` and leave
    // lane 3 in `A`. Mode `A` is processed first, yet lane 1's failure in
    // `B` is the lowest and wins.
    let mut bad = lanes;
    for (l, x) in [(1, 3.0), (3, 1.0)] {
        let xs: Vec<Value> = (0..12).map(|_| Value::Float(x)).collect();
        bad[l][0].1 = Stream::from_values(xs);
    }
    poison(&mut bad[1], "y", 6);
    poison(&mut bad[3], "x", 6);
    assert_same_error(&sim, &bad, &[12; 6], 1);

    // A lower lane failing later beats a failure on an earlier tick, as
    // in K sequential runs.
    let mut bad = xy_lanes(&[12; 6], 8);
    poison(&mut bad[5], "y", 2);
    poison(&mut bad[0], "y", 9);
    assert_same_error(&sim, &bad, &[12; 6], 0);
}

/// Above 16 lanes, with an early failure high up (a trigger on lane 18 at
/// tick 2) and a later one low down (a subnet node on lane 3 at tick 9),
/// both paths report lane 3's error.
#[test]
fn above_sixteen_lanes_the_lowest_failing_lane_wins() {
    let sim = faulty_switch();
    let mut bad = xy_lanes(&[12; 20], 11);
    poison(&mut bad[18], "x", 2);
    poison(&mut bad[3], "y", 9);
    let e = assert_same_error(&sim, &bad, &[12; 20], 3);
    assert!(
        !e.to_string().contains("mtd:"),
        "subnet error expected: {e}"
    );
}

/// At every batch width the service and the tests use, the typed and the
/// scalar batch agree: identical traces when no lane fails, otherwise the
/// lowest failing lane's own error — with higher lanes failing earlier
/// and lower lanes of every length, some ending before the failure.
#[test]
fn every_batch_width_agrees_on_traces_and_errors() {
    let sim = faulty_switch();
    for k in [1, 6, 16, 20, 32] {
        let lens: Vec<usize> = (0..k).map(|l| 4 + (l * 7) % 9).collect();
        let lanes = xy_lanes(&lens, k as u64);
        assert_lanes_agree(&sim, &lanes, &lens);

        let culprit = k / 2;
        let mut lens: Vec<usize> = (0..k).map(|l| 1 + (l * 5) % 14).collect();
        lens[culprit] = 12;
        let mut bad = xy_lanes(&lens, 40 + k as u64);
        poison(&mut bad[culprit], "y", 10);
        for (l, lane) in bad.iter_mut().enumerate().skip(culprit + 1) {
            let t = (1 + l % 8).min(lens[l] - 1);
            poison(lane, if l % 2 == 0 { "x" } else { "y" }, t);
        }
        assert_same_error(&sim, &bad, &lens, culprit);
    }
}
