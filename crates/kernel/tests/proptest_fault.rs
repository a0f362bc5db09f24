//! Differential property tests of the fault-injection layer: on randomly
//! parameterized multi-rate networks with random fault plans, the faulted
//! compiled executor must be **trace-identical** across gated / ungated /
//! reference execution, across reset/replay, and
//! batched per-lane faults must equal K sequential faulted runs.
//!
//! On a mismatch, the diverging traces are dumped as VCD files to
//! `$AUTOMODE_FAULT_ARTIFACT_DIR` (when set), so CI can upload them as
//! debugging artifacts.

use automode_kernel::ops::{BinOp, Const, Current, Delay, EveryClockGen, Lift1, Lift2, UnOp, When};
use automode_kernel::{Clock, Corruptor, FaultKind, FaultSpec, Message, Network, Trace, Value};
use proptest::prelude::*;

/// One sampled subsystem: `(period, phase, chain_depth)`.
type Sub = (u32, u32, usize);

/// The same multi-rate topology as `proptest_gated.rs`: a base-rate
/// accumulator plus one `every(n, phase)`-sampled subsystem per entry.
fn multirate_net(subs: &[Sub]) -> Network {
    let mut net = Network::new("pt-fault");
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

fn arb_subs() -> impl Strategy<Value = Vec<Sub>> {
    let period = (0usize..5).prop_map(|i| [1u32, 2, 3, 4, 6][i]);
    prop::collection::vec((period, 0u32..10, 0usize..4), 1..4)
}

fn arb_stimulus() -> impl Strategy<Value = Vec<Vec<Message>>> {
    let cell = prop_oneof![
        3 => (-100i64..100).prop_map(Message::present),
        1 => Just(Message::Absent),
    ];
    prop::collection::vec(cell, 10..50)
        .prop_map(|cells| cells.into_iter().map(|c| vec![c]).collect())
}

/// A random fault kind spanning every variant — gating-safe (`Drop`) and
/// not (everything else), stateless and stateful, value- and
/// presence-level.
fn arb_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (1u64..6, 0u64..8).prop_map(|(every, phase)| FaultKind::drop_every(every, phase)),
        (-50i64..50).prop_map(|v| FaultKind::StuckAt(Value::Int(v))),
        (0usize..4).prop_map(FaultKind::Delay),
        (0u64..1000, 0u32..10).prop_map(|(seed, h)| FaultKind::Jitter {
            seed,
            hold: f64::from(h) / 10.0
        }),
        Just(FaultKind::Corrupt(Corruptor::new("neg", |v| match v {
            Value::Int(x) => Value::Int(-x),
            other => other.clone(),
        }))),
    ]
}

/// A random fault plan over the targets every generated network has: the
/// external input and the `acc` / `slow0` / `held0` probes.
fn arb_faults() -> impl Strategy<Value = Vec<FaultSpec>> {
    let target = prop_oneof![
        Just(0usize), // external input "u"
        Just(1),      // signal "acc"
        Just(2),      // signal "slow0"
        Just(3),      // signal "held0"
    ];
    prop::collection::vec((target, arb_kind()), 0..4).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(t, kind)| match t {
                0 => FaultSpec::on_input(0, kind),
                1 => FaultSpec::on_signal("acc", kind),
                2 => FaultSpec::on_signal("slow0", kind),
                _ => FaultSpec::on_signal("held0", kind),
            })
            .collect()
    })
}

/// Dumps both traces as VCD artifacts when the env var is set; returns the
/// paths written (for the failure message).
fn dump_artifacts(label: &str, expected: &Trace, got: &Trace) -> String {
    let Some(dir) = std::env::var_os("AUTOMODE_FAULT_ARTIFACT_DIR") else {
        return "set AUTOMODE_FAULT_ARTIFACT_DIR to dump VCD artifacts".to_string();
    };
    let dir = std::path::PathBuf::from(dir);
    if std::fs::create_dir_all(&dir).is_err() {
        return format!("could not create artifact dir {}", dir.display());
    }
    let e = dir.join(format!("{label}-expected.vcd"));
    let g = dir.join(format!("{label}-got.vcd"));
    let _ = std::fs::write(&e, automode_kernel::vcd::to_vcd(expected, label));
    let _ = std::fs::write(&g, automode_kernel::vcd::to_vcd(got, label));
    format!("VCD artifacts: {} / {}", e.display(), g.display())
}

/// prop_assert_eq! with VCD artifact dumping on mismatch.
macro_rules! assert_traces {
    ($label:expr, $expected:expr, $got:expr) => {
        if $expected != $got {
            let note = dump_artifacts($label, $expected, $got);
            prop_assert_eq!($expected, $got, "{}: {}", $label, note);
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Executor invariance under faults: gated, gating-disabled, and
    /// reference execution of the *same* fault plan agree tick-for-tick,
    /// and a reset-and-replay reproduces the faulted trace exactly
    /// (stateful fault state — delay rings, jitter RNGs — must rewind).
    #[test]
    fn faulted_executors_agree_and_replay(
        subs in arb_subs(),
        stim in arb_stimulus(),
        faults in arb_faults(),
    ) {
        let mut gated = multirate_net(&subs).prepare().unwrap();
        gated.set_faults(&faults).unwrap();

        let mut ungated = multirate_net(&subs).prepare().unwrap();
        ungated.disable_clock_gating();
        ungated.set_faults(&faults).unwrap();

        let mut reference = multirate_net(&subs).prepare_reference().unwrap();
        reference.set_faults(&faults).unwrap();

        let g = gated.run(&stim).unwrap();
        let u = ungated.run(&stim).unwrap();
        let r = reference.run(&stim).unwrap();
        assert_traces!("gated-vs-ungated", &g, &u);
        assert_traces!("gated-vs-reference", &g, &r);

        gated.reset();
        let replay = gated.run(&stim).unwrap();
        assert_traces!("reset-replay", &g, &replay);
    }

    /// `run_batch_with_faults` with per-lane plans equals K sequential
    /// faulted runs — fresh fault state per lane, heterogeneous lane
    /// lengths, and installed+lane fault composition.
    #[test]
    fn batched_lane_faults_match_sequential_runs(
        subs in arb_subs(),
        stim in arb_stimulus(),
        base in arb_faults(),
        lane0 in arb_faults(),
        lane1 in arb_faults(),
    ) {
        let half: Vec<Vec<Message>> = stim[..stim.len() / 2].to_vec();
        let stimuli = [stim.clone(), half.clone(), stim.clone()];
        let lane_faults = [lane0.clone(), lane1.clone(), Vec::new()];

        let mut batcher = multirate_net(&subs).prepare().unwrap();
        batcher.set_faults(&base).unwrap();
        let batch = batcher.run_batch_with_faults(&stimuli, &lane_faults).unwrap();

        for (l, (rows, lane)) in stimuli.iter().zip(&lane_faults).enumerate() {
            let mut single = multirate_net(&subs).prepare().unwrap();
            let mut specs = base.clone();
            specs.extend(lane.iter().cloned());
            single.set_faults(&specs).unwrap();
            let expected = single.run(rows).unwrap();
            assert_traces!(&format!("batch-lane-{l}"), &expected, &batch[l]);
        }
    }
}
