//! Differential tests of the compiled executor.
//!
//! Random block networks (acyclic on instantaneous edges, with delayed
//! feedback allowed) are executed two ways — compiled and interpretive
//! reference — and must produce identical traces.
//!
//! The network/stimulus generators live in [`common`] and are shared with
//! the batch-execution suite.

mod common;

use automode_kernel::network::Network;
use automode_kernel::ops::{Const, Lift1, UnOp};
use automode_kernel::{Message, Value};
use common::{build, stimulus, Spec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The compiled executor reproduces the interpretive reference exactly.
    #[test]
    fn compiled_matches_reference(
        seed in any::<u64>(),
        n_nodes in 1usize..24,
        n_inputs in 0usize..4,
        ticks in 1usize..48,
    ) {
        let spec = Spec { seed, n_nodes, n_inputs };
        let stim = stimulus(spec, ticks);
        let compiled = build(spec).run(&stim).unwrap();
        let reference = build(spec).run_reference(&stim).unwrap();
        prop_assert_eq!(compiled, reference);
    }

    /// Reset replays identically on the compiled executor.
    #[test]
    fn compiled_reset_replays(
        seed in any::<u64>(),
        n_nodes in 1usize..16,
        n_inputs in 0usize..3,
        ticks in 1usize..24,
    ) {
        let spec = Spec { seed, n_nodes, n_inputs };
        let stim = stimulus(spec, ticks);
        let mut ready = build(spec).prepare().unwrap();
        let t1 = ready.run(&stim).unwrap();
        ready.reset();
        let t2 = ready.run(&stim).unwrap();
        prop_assert_eq!(t1, t2);
    }
}

/// Two independent blocks that both fail in the first tick: node 1 negates
/// a Boolean constant (one instantaneous hop from node 0), node 2 applies
/// `not` to a Float input (no predecessor). Every executor steps the
/// causality check's lowest-index-first order 0, 1, 2, so each one stops
/// at node 1's error.
#[test]
fn every_executor_reports_the_first_failing_node_in_schedule_order() {
    let net = || {
        let mut net = Network::new("two_failures");
        let x = net.add_input("x");
        let flag = net.add_block(Const::new(true));
        let neg = net.add_block(Lift1::new(UnOp::Neg));
        let not = net.add_block(Lift1::new(UnOp::Not));
        net.connect(flag.output(0), neg.input(0)).unwrap();
        net.connect_input(x, not.input(0)).unwrap();
        net.expose_output("neg", neg.output(0)).unwrap();
        net.expose_output("not", not.output(0)).unwrap();
        net
    };
    let stim = vec![vec![Message::present(Value::Float(1.5))]; 3];
    let reference = net().run_reference(&stim).unwrap_err();
    assert!(
        reference.to_string().contains("lift(-)"),
        "reference stopped at {reference}"
    );
    assert_eq!(net().run(&stim).unwrap_err(), reference);
    let lanes = vec![stim.clone(); 3];
    for vectorize in [true, false] {
        let mut ready = net().prepare().unwrap();
        ready.set_batch_vectorization(vectorize);
        assert_eq!(
            ready.run_batch(&lanes).unwrap_err(),
            reference,
            "vectorization {vectorize}"
        );
    }
}
