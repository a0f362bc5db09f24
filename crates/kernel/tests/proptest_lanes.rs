//! Differential property tests of the typed-column ("vectorized") batch
//! lane path.
//!
//! `run_batch` now classifies nodes into lane-kernel execution over typed
//! `f64`/`i64`/`bool` columns vs per-lane fallback replicas
//! (`ReadyNetwork::set_batch_vectorization` toggles the whole path; off,
//! each lane runs alone through the single-run loop). These tests pin the
//! safety net: the typed path is **bit-identical** to the scalar batch and
//! to K sequential runs — mixed lane lengths, all-absent ticks, NaN
//! payload bits, and per-lane fault plans included.

mod common;

use automode_kernel::ops::{
    BinOp, Current, Delay, EveryClockGen, Identity, Lift2, UnitDelay, When,
};
use automode_kernel::{Corruptor, FaultKind, FaultSpec, Message, Network, Trace, Value};
use common::{build, stimulus_salted, Spec};
use proptest::prelude::*;

/// Per-lane scenarios with heterogeneous horizons (lane `l` runs
/// `base_ticks + l` ticks).
fn scenarios(spec: Spec, k: usize, base_ticks: usize) -> Vec<Vec<Vec<Message>>> {
    (0..k)
        .map(|l| stimulus_salted(spec, base_ticks + l, l as u64 + 1))
        .collect()
}

/// Collects every `Float` in the trace as raw bits, so NaN payloads compare
/// exactly (the trace's `PartialEq` uses `f64 ==`, under which NaN != NaN).
fn float_bits(trace: &Trace) -> Vec<(String, usize, Option<u64>)> {
    let mut out = Vec::new();
    let names: Vec<String> = trace.signal_names().map(str::to_string).collect();
    for name in names {
        let stream = trace.signal(&name).unwrap();
        for t in 0..trace.tick_count() {
            let bits = match stream[t].value() {
                Some(Value::Float(f)) => Some(f.to_bits()),
                _ => None,
            };
            out.push((name.clone(), t, bits));
        }
    }
    out
}

/// A small fixed multi-rate net with state, sampling, and hold — the fault
/// targets (`u`, `acc`, `slow`, `held`) exist regardless of parameters.
fn fault_net() -> Network {
    let mut net = Network::new("lanes-fault");
    let input = net.add_input("u");
    let acc = net.add_block(Lift2::new(BinOp::Add));
    let del = net.add_block(Delay::new(0i64));
    net.connect_input(input, acc.input(0)).unwrap();
    net.connect(del.output(0), acc.input(1)).unwrap();
    net.connect(acc.output(0), del.input(0)).unwrap();
    net.expose_output("acc", acc.output(0)).unwrap();

    let clk = net.add_block(EveryClockGen::new(3, 1));
    let when = net.add_block(When::new());
    net.connect_input(input, when.input(0)).unwrap();
    net.connect(clk.output(0), when.input(1)).unwrap();
    let hold = net.add_block(Current::new(0i64));
    net.connect(when.output(0), hold.input(0)).unwrap();
    net.expose_output("slow", when.output(0)).unwrap();
    net.expose_output("held", hold.output(0)).unwrap();
    net
}

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

fn arb_faults() -> impl Strategy<Value = Vec<FaultSpec>> {
    let target = 0usize..4;
    prop::collection::vec((target, arb_kind()), 0..4).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(t, kind)| match t {
                0 => FaultSpec::on_input(0, kind),
                1 => FaultSpec::on_signal("acc", kind),
                2 => FaultSpec::on_signal("slow", kind),
                _ => FaultSpec::on_signal("held", kind),
            })
            .collect()
    })
}

fn arb_int_stimulus() -> impl Strategy<Value = Vec<Vec<Message>>> {
    let cell = prop_oneof![
        3 => (-100i64..100).prop_map(Message::present),
        1 => Just(Message::Absent),
    ];
    prop::collection::vec(cell, 8..40)
        .prop_map(|cells| cells.into_iter().map(|c| vec![c]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The typed-column path equals the scalar batch (each lane run alone)
    /// on random networks over every block family, with mixed lane
    /// lengths.
    #[test]
    fn typed_batch_matches_message_batch(
        seed in any::<u64>(),
        n_nodes in 1usize..20,
        n_inputs in 0usize..4,
        k in 1usize..6,
        base_ticks in 1usize..24,
    ) {
        let spec = Spec { seed, n_nodes, n_inputs };
        let stimuli = scenarios(spec, k, base_ticks);
        let typed = build(spec).prepare().unwrap();
        let mut message = build(spec).prepare().unwrap();
        message.set_batch_vectorization(false);
        prop_assert_eq!(
            typed.run_batch(&stimuli).unwrap(),
            message.run_batch(&stimuli).unwrap()
        );
    }

    /// All-absent ticks (every input absent for whole rows) flow through
    /// the typed columns exactly as through K sequential runs.
    #[test]
    fn typed_batch_matches_sequential_with_all_absent_ticks(
        seed in any::<u64>(),
        n_nodes in 1usize..16,
        n_inputs in 1usize..4,
        k in 1usize..5,
        base_ticks in 2usize..20,
        stride in 2usize..4,
    ) {
        let spec = Spec { seed, n_nodes, n_inputs };
        let mut stimuli = scenarios(spec, k, base_ticks);
        for lane in &mut stimuli {
            for (t, row) in lane.iter_mut().enumerate() {
                if t % stride == 0 {
                    row.fill(Message::Absent);
                }
            }
        }
        let ready = build(spec).prepare().unwrap();
        let batch = ready.run_batch(&stimuli).unwrap();
        for (lane, stim) in stimuli.iter().enumerate() {
            let single = build(spec).prepare().unwrap().run(stim).unwrap();
            prop_assert_eq!(&batch[lane], &single, "lane {}", lane);
        }
    }

    /// `run_batch_with_faults` composes with the typed path: installed +
    /// per-lane fault plans produce identical traces with vectorization on
    /// and off, and equal K sequential faulted runs.
    #[test]
    fn typed_lane_faults_match_message_and_sequential(
        stim in arb_int_stimulus(),
        base in arb_faults(),
        lane0 in arb_faults(),
        lane1 in arb_faults(),
    ) {
        let half: Vec<Vec<Message>> = stim[..stim.len() / 2].to_vec();
        let stimuli = [stim.clone(), half, stim.clone()];
        let lane_faults = [lane0, lane1, Vec::new()];

        let mut typed = fault_net().prepare().unwrap();
        typed.set_faults(&base).unwrap();
        let batch = typed.run_batch_with_faults(&stimuli, &lane_faults).unwrap();

        let mut message = fault_net().prepare().unwrap();
        message.set_batch_vectorization(false);
        message.set_faults(&base).unwrap();
        prop_assert_eq!(
            &batch,
            &message.run_batch_with_faults(&stimuli, &lane_faults).unwrap()
        );

        for (l, (rows, lane)) in stimuli.iter().zip(&lane_faults).enumerate() {
            let mut single = fault_net().prepare().unwrap();
            let mut specs = base.clone();
            specs.extend(lane.iter().cloned());
            single.set_faults(&specs).unwrap();
            prop_assert_eq!(&batch[l], &single.run(rows).unwrap(), "lane {}", l);
        }
    }
}

/// NaN payloads (and signed zeros) survive the typed `f64` columns
/// bit-exactly: through a copy kernel, a `UnitDelay` rotation, and an
/// arithmetic fast-path loop that must not canonicalize them.
#[test]
fn nan_payloads_bit_exact_through_typed_columns() {
    let quiet = f64::from_bits(0x7ff8_dead_beef_0001);
    let weird = f64::from_bits(0xfff8_0000_c0ff_ee01);

    let nan_net = || {
        let mut net = Network::new("nan-lanes");
        let input = net.add_input("x");
        let id = net.add_block(Identity::new("wire"));
        net.connect_input(input, id.input(0)).unwrap();
        net.expose_output("copied", id.output(0)).unwrap();
        let ud = net.add_block(UnitDelay::new(Message::present(Value::Float(quiet))));
        net.connect_input(input, ud.input(0)).unwrap();
        net.expose_output("delayed", ud.output(0)).unwrap();
        net
    };

    let payloads = [quiet, weird, -0.0f64, f64::INFINITY, 1.5];
    let stimuli: Vec<Vec<Vec<Message>>> = (0..3)
        .map(|l| {
            payloads
                .iter()
                .cycle()
                .skip(l)
                .take(6)
                .map(|&f| vec![Message::present(Value::Float(f))])
                .collect()
        })
        .collect();

    let ready = nan_net().prepare().unwrap();
    let batch = ready.run_batch(&stimuli).unwrap();
    for (l, stim) in stimuli.iter().enumerate() {
        let mut single = nan_net().prepare().unwrap();
        let single = single.run(stim).unwrap();
        assert_eq!(
            float_bits(&batch[l]),
            float_bits(&single),
            "lane {l}: typed columns altered float bits"
        );
        // And the copy path really is the identity on bits.
        for (t, row) in stim.iter().enumerate() {
            let Some(Value::Float(sent)) = row[0].value() else {
                unreachable!()
            };
            let got = &batch[l].signal("copied").unwrap()[t];
            let Some(Value::Float(copied)) = got.value() else {
                panic!("lane {l} tick {t}: copied value missing")
            };
            assert_eq!(
                sent.to_bits(),
                copied.to_bits(),
                "lane {l} tick {t}: payload bits changed"
            );
        }
    }
}
