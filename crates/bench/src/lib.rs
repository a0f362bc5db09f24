//! # automode-bench
//!
//! The benchmark harness. Every figure of the paper has a bench target
//! under `benches/` (see `EXPERIMENTS.md` for the experiment index); this
//! library provides the parameterized model generators they sweep over,
//! the one timer they all use ([`time_arms`]: named arms in interleaved
//! rounds, each arm's median/p10/p90 rate) and the one results writer
//! ([`Results`]: the schema every `BENCH_*.json` shares).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;

pub use harness::{
    enforce_mode, quick_mode, time_and_print, time_arms, write_results, Arm, Results, Timing,
};

use automode_core::model::{
    Behavior, Component, ComponentId, Composite, CompositeKind, Endpoint, Model, Primitive,
};
use automode_core::types::DataType;
use automode_core::Mtd;
use automode_kernel::Value;
use automode_lang::{parse, Expr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adds to `model` a composite DFD component named `name` with boundary
/// ports `in`/`out`: `n` instances of the averaging component `block`
/// wired with forward edges only (guaranteed causal).
fn add_random_dfd(
    model: &mut Model,
    name: impl Into<String>,
    block: ComponentId,
    n: usize,
    rng: &mut StdRng,
) -> ComponentId {
    assert!(n > 0);
    let mut net = Composite::new(CompositeKind::Dfd);
    for i in 0..n {
        net.instantiate(format!("n{i}"), block);
    }
    // Forward wiring: inputs come from earlier blocks (or the boundary).
    for i in 0..n {
        for port in ["a", "b"] {
            if i == 0 || rng.gen_bool(0.15) {
                net.connect(
                    Endpoint::boundary("in"),
                    Endpoint::child(format!("n{i}"), port),
                );
            } else {
                let j = rng.gen_range(0..i);
                net.connect(
                    Endpoint::child(format!("n{j}"), "y"),
                    Endpoint::child(format!("n{i}"), port),
                );
            }
        }
    }
    net.connect(
        Endpoint::child(format!("n{}", n - 1), "y"),
        Endpoint::boundary("out"),
    );
    model
        .add_component(
            Component::new(name)
                .input("in", DataType::Float)
                .output("out", DataType::Float)
                .with_behavior(Behavior::Composite(net)),
        )
        .unwrap()
}

/// The shared averaging leaf block the random DFD generators instantiate.
fn averaging_block(model: &mut Model) -> ComponentId {
    model
        .add_component(
            Component::new("B")
                .input("a", DataType::Float)
                .input("b", DataType::Float)
                .output("y", DataType::Float)
                .with_behavior(Behavior::expr("y", parse("a * 0.5 + b * 0.5").unwrap())),
        )
        .unwrap()
}

/// Builds a random DFD of `n` expression blocks with forward edges only
/// (guaranteed causal), rooted in a single boundary input/output.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_causal_dfd(n: usize, seed: u64) -> (Model, ComponentId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new("random_dfd");
    let block = averaging_block(&mut model);
    let top = add_random_dfd(&mut model, "Top", block, n, &mut rng);
    model.set_root(top);
    (model, top)
}

/// Builds a mode-rich controller: an MTD with `modes` operating modes, each
/// mode's behaviour a random causal DFD of `blocks_per_mode` expression
/// blocks. Mode `i` hands over to `i + 1` (ring) once the input exceeds a
/// mode-specific threshold, so a swept input genuinely migrates through the
/// mode ring.
///
/// Compiling this model elaborates *every* mode's network while a run steps
/// only the active one — the calibration-sweep shape where compiled-plan
/// reuse pays off.
///
/// # Panics
///
/// Panics if `modes < 2` or `blocks_per_mode == 0`.
pub fn moded_controller(modes: usize, blocks_per_mode: usize, seed: u64) -> (Model, ComponentId) {
    assert!(modes >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new("moded_controller");
    let block = averaging_block(&mut model);
    let mut mtd = Mtd::new();
    for i in 0..modes {
        let behavior = add_random_dfd(
            &mut model,
            format!("Mode{i}"),
            block,
            blocks_per_mode,
            &mut rng,
        );
        mtd.add_mode(format!("M{i}"), behavior);
    }
    for i in 0..modes {
        // Thresholds climb steeply with the mode index, so a drive cycle
        // walks the ring only as far as its peak value reaches — every mode
        // is compiled, but each scenario executes just its own operating
        // region.
        let threshold = 2.0 + i as f64 * 2.0;
        mtd.add_transition(
            i,
            (i + 1) % modes,
            Expr::bin(
                automode_kernel::ops::BinOp::Gt,
                Expr::ident("in"),
                Expr::lit(Value::Float(threshold)),
            ),
            0,
        );
    }
    let owner = model
        .add_component(
            Component::new("Controller")
                .input("in", DataType::Float)
                .output("out", DataType::Float)
                .with_behavior(Behavior::Mtd(mtd)),
        )
        .unwrap();
    model.set_root(owner);
    (model, owner)
}

/// Builds a kernel-level network of `n` stateless float operator blocks —
/// `Lift2` arithmetic/min/max and three-input `AddN` fan-ins wired forward
/// from a single boundary input. Every node exposes a lane kernel, and on
/// all-float stimuli the columns stay uniformly `f64`, so this is the
/// shape where batched execution collapses into the kernel's tight
/// bit-column loops.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn stateless_ops_network(n: usize, seed: u64) -> automode_kernel::Network {
    use automode_kernel::network::PortRef;
    use automode_kernel::ops::{AddN, BinOp, Lift2};
    use automode_kernel::Network;

    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new("stateless_ops");
    let input = net.add_input("in");
    let mut outs: Vec<PortRef> = Vec::with_capacity(n);
    for i in 0..n {
        let pick = rng.gen_range(0..6u32);
        let (handle, arity) = match pick {
            0 => (net.add_block(Lift2::new(BinOp::Add)), 2),
            1 => (net.add_block(Lift2::new(BinOp::Sub)), 2),
            2 => (net.add_block(Lift2::new(BinOp::Mul)), 2),
            3 => (net.add_block(Lift2::new(BinOp::Min)), 2),
            4 => (net.add_block(Lift2::new(BinOp::Max)), 2),
            _ => (net.add_block(AddN::new(3)), 3),
        };
        // Forward wiring: operands come from earlier blocks or the input.
        for p in 0..arity {
            if i == 0 || rng.gen_bool(0.2) {
                net.connect_input(input, handle.input(p)).unwrap();
            } else {
                let j = rng.gen_range(0..i);
                net.connect(outs[j], handle.input(p)).unwrap();
            }
        }
        outs.push(handle.output(0));
    }
    net.expose_output("out", outs[n - 1]).unwrap();
    net
}

/// Like [`random_causal_dfd`] but closes one instantaneous back edge,
/// producing a causality violation.
pub fn random_looped_dfd(n: usize, seed: u64) -> (Model, ComponentId) {
    let n = n.max(2);
    let (mut model, top) = random_causal_dfd(n, seed);
    if let Behavior::Composite(net) = &mut model.component_mut(top).behavior {
        let last = format!("n{}", n - 1);
        // Guarantee a forward path n0 -> n_{n-1} ...
        if let Some(ch) = net
            .channels
            .iter_mut()
            .find(|c| c.to.instance.as_deref() == Some(last.as_str()) && c.to.port == "b")
        {
            ch.from = Endpoint::child("n0", "y");
        }
        // ... then close the instantaneous back edge n_{n-1} -> n0.
        if let Some(ch) = net
            .channels
            .iter_mut()
            .find(|c| c.to.instance.as_deref() == Some("n0") && c.to.port == "a")
        {
            ch.from = Endpoint::child(last, "y");
        }
    }
    (model, top)
}

/// Builds an SSD chain of `n` pass-through components (each hop adds one
/// message delay).
pub fn ssd_chain(n: usize) -> (Model, ComponentId) {
    let mut model = Model::new("ssd_chain");
    let stage = model
        .add_component(
            Component::new("Stage")
                .input("x", DataType::Float)
                .output("y", DataType::Float)
                .with_behavior(Behavior::expr("y", parse("x + 1.0").unwrap())),
        )
        .unwrap();
    let mut net = Composite::new(CompositeKind::Ssd);
    for i in 0..n {
        net.instantiate(format!("s{i}"), stage);
    }
    net.connect(Endpoint::boundary("in"), Endpoint::child("s0", "x"));
    for i in 1..n {
        net.connect(
            Endpoint::child(format!("s{}", i - 1), "y"),
            Endpoint::child(format!("s{i}"), "x"),
        );
    }
    net.connect(
        Endpoint::child(format!("s{}", n - 1), "y"),
        Endpoint::boundary("out"),
    );
    let top = model
        .add_component(
            Component::new("Chain")
                .input("in", DataType::Float)
                .output("out", DataType::Float)
                .with_behavior(Behavior::Composite(net)),
        )
        .unwrap();
    model.set_root(top);
    (model, top)
}

/// Builds an MTD with `modes` ring-connected modes (mode `i` hands over to
/// `i+1` when the input crosses a mode-specific threshold). All mode
/// behaviours are stateless expressions, so the MTD qualifies for the
/// dataflow transformation.
pub fn ring_mtd(modes: usize, seed: u64) -> (Model, ComponentId) {
    assert!(modes >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new("ring_mtd");
    let mut mtd = Mtd::new();
    for i in 0..modes {
        let gain = rng.gen_range(0.5..2.0);
        let behavior = model
            .add_component(
                Component::new(format!("Mode{i}Behavior"))
                    .input("x", DataType::Float)
                    .output("y", DataType::Float)
                    .with_behavior(Behavior::expr(
                        "y",
                        Expr::bin(
                            automode_kernel::ops::BinOp::Add,
                            Expr::bin(
                                automode_kernel::ops::BinOp::Mul,
                                Expr::ident("x"),
                                Expr::lit(Value::Float(gain)),
                            ),
                            Expr::lit(Value::Float(i as f64)),
                        ),
                    )),
            )
            .unwrap();
        mtd.add_mode(format!("M{i}"), behavior);
    }
    for i in 0..modes {
        let threshold = (i % 10) as f64 / 10.0;
        mtd.add_transition(
            i,
            (i + 1) % modes,
            Expr::bin(
                automode_kernel::ops::BinOp::Gt,
                Expr::ident("x"),
                Expr::lit(Value::Float(threshold)),
            ),
            0,
        );
    }
    let owner = model
        .add_component(
            Component::new("Ring")
                .input("x", DataType::Float)
                .output("y", DataType::Float)
                .with_behavior(Behavior::Mtd(mtd)),
        )
        .unwrap();
    model.set_root(owner);
    (model, owner)
}

/// A DFD accumulator used as a stateful reference workload.
pub fn accumulator() -> (Model, ComponentId) {
    let mut model = Model::new("acc");
    let add = model
        .add_component(
            Component::new("Add")
                .input("a", DataType::Float)
                .input("b", DataType::Float)
                .output("s", DataType::Float)
                .with_behavior(Behavior::expr("s", parse("a + b").unwrap())),
        )
        .unwrap();
    let dly = model
        .add_component(
            Component::new("Dly")
                .input("x", DataType::Float)
                .output("y", DataType::Float)
                .with_behavior(Behavior::Primitive(Primitive::Delay {
                    init: Some(Value::Float(0.0)),
                })),
        )
        .unwrap();
    let mut net = Composite::new(CompositeKind::Dfd);
    net.instantiate("add", add);
    net.instantiate("dly", dly);
    net.connect(Endpoint::boundary("u"), Endpoint::child("add", "a"));
    net.connect(Endpoint::child("dly", "y"), Endpoint::child("add", "b"));
    net.connect(Endpoint::child("add", "s"), Endpoint::child("dly", "x"));
    net.connect(Endpoint::child("add", "s"), Endpoint::boundary("acc"));
    let top = model
        .add_component(
            Component::new("Accumulator")
                .input("u", DataType::Float)
                .output("acc", DataType::Float)
                .with_behavior(Behavior::Composite(net)),
        )
        .unwrap();
    model.set_root(top);
    (model, top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use automode_core::causality_struct::check_component;

    #[test]
    fn random_causal_dfd_passes_causality() {
        for n in [1, 5, 50] {
            let (m, top) = random_causal_dfd(n, 1);
            m.validate_structure().unwrap();
            check_component(&m, top).unwrap();
        }
    }

    #[test]
    fn random_looped_dfd_fails_causality() {
        let (m, top) = random_looped_dfd(10, 2);
        assert!(check_component(&m, top).is_err());
    }

    #[test]
    fn ssd_chain_has_n_delays() {
        use automode_kernel::Value;
        let n = 5;
        let (m, top) = ssd_chain(n);
        let input = automode_sim::stimulus::constant(Value::Float(0.0), n + 2);
        let run = automode_sim::simulate_component(&m, top, &[("in", input)], n + 2).unwrap();
        let out = run.trace.signal("out").unwrap();
        // n+1 channels (in + n-1 internal + out): first value at tick n+1.
        for t in 0..=n {
            assert!(out[t].is_absent(), "tick {t} should still be absent");
        }
        assert!(out[n + 1].is_present());
    }

    #[test]
    fn ring_mtd_is_transformable() {
        let (mut m, owner) = ring_mtd(4, 3);
        automode_core::levels::validate_fda(&m).unwrap();
        automode_transform::mode_dataflow::mtd_to_dataflow(&mut m, owner).unwrap();
    }

    #[test]
    fn accumulator_accumulates() {
        use automode_kernel::Value;
        let (m, top) = accumulator();
        let input = automode_sim::stimulus::constant(Value::Float(2.0), 5);
        let run = automode_sim::simulate_component(&m, top, &[("u", input)], 5).unwrap();
        let vals: Vec<f64> = run
            .trace
            .signal("acc")
            .unwrap()
            .present_values()
            .iter()
            .map(|v| v.as_float().unwrap())
            .collect();
        assert_eq!(vals, vec![2.0, 4.0, 6.0, 8.0, 10.0]);
    }
}
