//! Differential property tests of clock-gated scheduling: on randomly
//! parameterized multi-rate networks, the gated executor must be
//! **trace-identical** to the ungated compiled executor and to the
//! reference executor — across sequential and batched stepping, and across
//! reset/replay.
//!
//! The generator varies sampled-subsystem periods and phases (including
//! unnormalized phases larger than the period, which are only eventually
//! periodic and exercise the plan's settle prefix), chain depth, input
//! presence patterns, and tick counts that straddle the settle boundary.

use automode_kernel::ops::{BinOp, Const, Current, Delay, EveryClockGen, Lift1, Lift2, UnOp, When};
use automode_kernel::{Clock, Message, Network, Value};
use proptest::prelude::*;

/// One sampled subsystem: `(period, phase, chain_depth)`.
type Sub = (u32, u32, usize);

/// A base-rate accumulator plus one sampled subsystem per entry of `subs`:
/// `every(n, phase)`-clocked `when`-sampling of the input, a strict
/// `Lift1` chain, a clocked `Const` gain combined by `Lift2`, a clocked
/// `Delay`, and a `Current` hold bridging back to the base rate.
fn multirate_net(subs: &[Sub]) -> Network {
    let mut net = Network::new("pt-multirate");
    let input = net.add_input("u");
    let acc = net.add_block(Lift2::new(BinOp::Add));
    let del = net.add_block(Delay::new(0i64));
    net.connect_input(input, acc.input(0)).unwrap();
    net.connect(del.output(0), acc.input(1)).unwrap();
    net.connect(acc.output(0), del.input(0)).unwrap();
    net.expose_output("acc", acc.output(0)).unwrap();

    for (k, &(n, phase, depth)) in subs.iter().enumerate() {
        let clk = net.add_block(EveryClockGen::new(n, phase));
        let when = net.add_block(When::new());
        net.connect_input(input, when.input(0)).unwrap();
        net.connect(clk.output(0), when.input(1)).unwrap();
        let mut src = when.output(0);
        for _ in 0..depth {
            let l = net.add_block(Lift1::new(UnOp::Neg));
            net.connect(src, l.input(0)).unwrap();
            src = l.output(0);
        }
        let gain = net.add_block(Const::on_clock(3i64, Clock::every(n, phase)));
        let scale = net.add_block(Lift2::new(BinOp::Add));
        net.connect(src, scale.input(0)).unwrap();
        net.connect(gain.output(0), scale.input(1)).unwrap();
        let sdel = net.add_block(Delay::on_clock(Some(Value::Int(0)), Clock::every(n, phase)));
        net.connect(scale.output(0), sdel.input(0)).unwrap();
        let hold = net.add_block(Current::new(0i64));
        net.connect(sdel.output(0), hold.input(0)).unwrap();
        net.expose_output(format!("slow{k}"), sdel.output(0))
            .unwrap();
        net.expose_output(format!("held{k}"), hold.output(0))
            .unwrap();
    }
    net
}

/// Periods from a harmonic-friendly set (keeps the hyperperiod small),
/// phases up to 9 — beyond the largest period, so unnormalized clocks with
/// a non-trivial settle prefix are generated routinely.
fn arb_subs() -> impl Strategy<Value = Vec<Sub>> {
    let period = (0usize..5).prop_map(|i| [1u32, 2, 3, 4, 6][i]);
    prop::collection::vec((period, 0u32..10, 0usize..4), 1..4)
}

/// An input stream with random values and random per-tick absence.
fn arb_stimulus() -> impl Strategy<Value = Vec<Vec<Message>>> {
    let cell = prop_oneof![
        3 => (-100i64..100).prop_map(Message::present),
        1 => Just(Message::Absent),
    ];
    prop::collection::vec(cell, 10..60)
        .prop_map(|cells| cells.into_iter().map(|c| vec![c]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gated, ungated, and reference execution agree tick-for-tick; a
    /// reset-and-replay of the gated executor reproduces its own trace.
    #[test]
    fn gated_matches_ungated_and_reference(subs in arb_subs(), stim in arb_stimulus()) {
        let mut gated = multirate_net(&subs).prepare().unwrap();
        // A subsystem slower than the base rate always yields a plan with
        // provably-inert phases; all-base-rate networks compile to none.
        prop_assert_eq!(
            gated.gated_hyperperiod().is_some(),
            subs.iter().any(|&(n, _, _)| n > 1)
        );
        let mut ungated = multirate_net(&subs).prepare().unwrap();
        ungated.disable_clock_gating();
        let mut reference = multirate_net(&subs).prepare_reference().unwrap();

        let g = gated.run(&stim).unwrap();
        let u = ungated.run(&stim).unwrap();
        let r = reference.run(&stim).unwrap();
        prop_assert_eq!(&g, &u);
        prop_assert_eq!(&g, &r);

        gated.reset();
        let replay = gated.run(&stim).unwrap();
        prop_assert_eq!(&g, &replay);
    }

    /// Batched execution takes the same gated plan paths and stays
    /// trace-identical.
    #[test]
    fn gated_batch_matches(subs in arb_subs(), stim in arb_stimulus()) {
        let mut sequential = multirate_net(&subs).prepare().unwrap();
        let expected = sequential.run(&stim).unwrap();

        // Batch lanes of different lengths, including a truncated replica.
        let half: Vec<Vec<Message>> = stim[..stim.len() / 2].to_vec();
        let batch = sequential.run_batch(&[stim.clone(), half.clone()]).unwrap();
        prop_assert_eq!(&batch[0], &expected);
        let mut short = multirate_net(&subs).prepare().unwrap();
        let short_expected = short.run(&half).unwrap();
        prop_assert_eq!(&batch[1], &short_expected);
    }
}
