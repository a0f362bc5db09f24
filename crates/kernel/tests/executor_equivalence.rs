//! Differential tests of the compiled executor.
//!
//! Random block networks (acyclic on instantaneous edges, with delayed
//! feedback allowed) are executed two ways — compiled and interpretive
//! reference — and must produce identical traces.
//!
//! The network/stimulus generators live in [`common`] and are shared with
//! the batch-execution suite.

mod common;

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
