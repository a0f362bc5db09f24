//! Differential tests of lane-major batched execution.
//!
//! A `run_batch` over K scenarios must be trace-identical to K sequential
//! `run` calls on fresh executors — with heterogeneous per-lane horizons,
//! and regardless of any incremental state the executor accumulated before
//! the batch.

mod common;

use common::{build, stimulus_salted, Spec};
use proptest::prelude::*;

/// Per-lane scenarios: same network spec, distinct stimulus streams and
/// horizons (lane `l` runs `base_ticks + l` ticks).
fn scenarios(spec: Spec, k: usize, base_ticks: usize) -> Vec<Vec<Vec<automode_kernel::Message>>> {
    (0..k)
        .map(|l| stimulus_salted(spec, base_ticks + l, l as u64 + 1))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `run_batch(K stimuli)` equals K sequential runs on fresh executors,
    /// including with heterogeneous per-lane horizons.
    #[test]
    fn batch_matches_sequential_runs(
        seed in any::<u64>(),
        n_nodes in 1usize..20,
        n_inputs in 0usize..4,
        k in 1usize..5,
        base_ticks in 1usize..24,
    ) {
        let spec = Spec { seed, n_nodes, n_inputs };
        let stimuli = scenarios(spec, k, base_ticks);
        let ready = build(spec).prepare().unwrap();
        let batch = ready.run_batch(&stimuli).unwrap();
        prop_assert_eq!(batch.len(), k);
        for (lane, stim) in stimuli.iter().enumerate() {
            let single = build(spec).prepare().unwrap().run(stim).unwrap();
            prop_assert_eq!(&batch[lane], &single, "lane {}", lane);
        }
    }

    /// Batches neither read nor disturb the executor's incremental state:
    /// a dirty executor produces the same batch as a fresh one, and its own
    /// single-run behavior is unchanged by having run a batch.
    #[test]
    fn batch_is_isolated_from_incremental_state(
        seed in any::<u64>(),
        n_nodes in 1usize..16,
        n_inputs in 0usize..3,
        k in 1usize..4,
        base_ticks in 1usize..16,
    ) {
        let spec = Spec { seed, n_nodes, n_inputs };
        let stimuli = scenarios(spec, k, base_ticks);
        let dirty_stim = stimulus_salted(spec, base_ticks, 0xdead_beef);

        let fresh = build(spec).prepare().unwrap();
        let expected = fresh.run_batch(&stimuli).unwrap();

        let mut dirty = build(spec).prepare().unwrap();
        let before = dirty.run(&dirty_stim).unwrap();
        // Dirty state does not leak into the batch...
        prop_assert_eq!(&dirty.run_batch(&stimuli).unwrap(), &expected);
        // ...and the batch does not disturb the single-run state machine:
        // replaying from reset matches the pre-batch run.
        dirty.reset();
        prop_assert_eq!(&dirty.run(&dirty_stim).unwrap(), &before);
        // Batches are repeatable on the same executor.
        prop_assert_eq!(&dirty.run_batch(&stimuli).unwrap(), &expected);
    }
}
