//! Differential property tests of the discrete-event engine: on randomly
//! parameterized networks the event-driven executor (wheel and heap
//! backends, silent-stretch fast-forward included) must be
//! **trace-identical** to dense execution and to the reference executor —
//! across faults, batch lanes K ∈ {1, 8, 32} with
//! vectorization on/off, and reset/replay.
//!
//! Three network families pin the three engine paths:
//!
//! * `heap_net` — sampled subsystems at periods 512 and 1000 (lcm 64000,
//!   past the wheel cap) plus an always-active base accumulator: the wheel
//!   is rejected with `HyperperiodCap` and the heap backend must cover it.
//! * `wheel_quiet_net` — zero-input clusters of clocked sources with
//!   harmonic periods: a wheel plan with provably silent phases, so runs
//!   exercise the bulk fast-forward.
//! * `sparse_heap_net` — heap backend *and* silent stretches *and* an
//!   externally-fed probe column, exercising the quiet-row patching.

use automode_kernel::ops::{BinOp, Const, Current, Delay, EveryClockGen, Lift1, Lift2, UnOp, When};
use automode_kernel::{
    Clock, Corruptor, EngineKind, FaultKind, FaultSpec, Message, Network, PlanRejection, Value,
};
use proptest::prelude::*;

/// One sampled subsystem: `(period, phase, chain_depth)`.
type Sub = (u32, u32, usize);

/// The `proptest_gated.rs` multi-rate topology, but with two guaranteed
/// subsystems at periods 512 and 1000 so the clock lcm (64000) exceeds the
/// wheel cap and the heap backend must engage.
fn heap_net(subs: &[Sub]) -> Network {
    let mut net = Network::new("pt-event-heap");
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

/// A zero-input network of clocked source clusters: `Const::on_clock` into
/// a strict `Lift1` chain into a clocked `Delay`. Periods divide 1000, so
/// the wheel compiles, and no node (there are no clock generators) is
/// base-rate — ticks between firings are provably silent.
fn wheel_quiet_net(clusters: &[Sub]) -> Network {
    let mut net = Network::new("pt-event-wheel");
    for (k, &(n, phase, depth)) in clusters.iter().enumerate() {
        let clock = Clock::every(n, phase);
        let src = net.add_block(Const::on_clock(7i64 + k as i64, clock.clone()));
        let mut out = src.output(0);
        for _ in 0..depth {
            let l = net.add_block(Lift1::new(UnOp::Neg));
            net.connect(out, l.input(0)).unwrap();
            out = l.output(0);
        }
        let sdel = net.add_block(Delay::on_clock(Some(Value::Int(0)), clock));
        net.connect(out, sdel.input(0)).unwrap();
        net.expose_output(format!("c{k}"), out).unwrap();
        net.expose_output(format!("d{k}"), sdel.output(0)).unwrap();
    }
    net
}

/// Heap backend with genuine silent stretches and an externally-fed probe:
/// clusters at periods 512 and 1000 (no base-rate node at all), plus an
/// otherwise-unused input echoed into the trace via `probe_input`.
fn sparse_heap_net(clusters: &[Sub]) -> Network {
    let mut net = Network::new("pt-event-sparse");
    let input = net.add_input("u");
    net.probe_input("u_echo", input).unwrap();
    for (k, &(n, phase, depth)) in clusters.iter().enumerate() {
        let clock = Clock::every(n, phase);
        let src = net.add_block(Const::on_clock(11i64 + k as i64, clock.clone()));
        let mut out = src.output(0);
        for _ in 0..depth {
            let l = net.add_block(Lift1::new(UnOp::Neg));
            net.connect(out, l.input(0)).unwrap();
            out = l.output(0);
        }
        let sdel = net.add_block(Delay::on_clock(Some(Value::Int(0)), clock));
        net.connect(out, sdel.input(0)).unwrap();
        net.expose_output(format!("d{k}"), sdel.output(0)).unwrap();
    }
    net
}

/// Random extra subsystems on top of the two cap-busting ones.
fn arb_heap_subs() -> impl Strategy<Value = Vec<Sub>> {
    let period = (0usize..4).prop_map(|i| [512u32, 1000, 250, 64][i]);
    prop::collection::vec((period, 0u32..10, 0usize..3), 0..2).prop_map(|extra| {
        let mut subs = vec![(512u32, 3u32, 1usize), (1000u32, 7u32, 2usize)];
        subs.extend(extra);
        subs
    })
}

/// Clusters whose periods all divide 1000 (wheel-compilable hyperperiod).
fn arb_wheel_clusters() -> impl Strategy<Value = Vec<Sub>> {
    let period = (0usize..4).prop_map(|i| [10u32, 50, 250, 1000][i]);
    prop::collection::vec((period, 0u32..10, 0usize..4), 1..4)
}

/// Clusters at heap-forcing periods (512 and 1000 guaranteed present).
fn arb_sparse_clusters() -> impl Strategy<Value = Vec<Sub>> {
    let period = (0usize..2).prop_map(|i| [512u32, 1000][i]);
    prop::collection::vec((period, 0u32..10, 0usize..3), 0..2).prop_map(|extra| {
        let mut subs = vec![(512u32, 1u32, 0usize), (1000u32, 5u32, 1usize)];
        subs.extend(extra);
        subs
    })
}

/// A one-input stimulus with random values and per-tick absence.
fn arb_stimulus() -> impl Strategy<Value = Vec<Vec<Message>>> {
    let cell = prop_oneof![
        3 => (-100i64..100).prop_map(Message::present),
        1 => Just(Message::Absent),
    ];
    prop::collection::vec(cell, 10..60)
        .prop_map(|cells| cells.into_iter().map(|c| vec![c]).collect())
}

/// A random fault plan over targets every `heap_net` has. Mixes the
/// gating-safe `Drop` with kinds that force dense per-tick execution.
fn arb_faults() -> impl Strategy<Value = Vec<FaultSpec>> {
    let kind = prop_oneof![
        (1u64..6, 0u64..8).prop_map(|(every, phase)| FaultKind::drop_every(every, phase)),
        (-50i64..50).prop_map(|v| FaultKind::StuckAt(Value::Int(v))),
        (0usize..4).prop_map(FaultKind::Delay),
        Just(FaultKind::Corrupt(Corruptor::new("neg", |v| match v {
            Value::Int(x) => Value::Int(-x),
            other => other.clone(),
        }))),
    ];
    let target = prop_oneof![Just(0usize), Just(1), Just(2)];
    prop::collection::vec((target, kind), 0..3).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(t, kind)| match t {
                0 => FaultSpec::on_input(0, kind),
                1 => FaultSpec::on_signal("acc", kind),
                _ => FaultSpec::on_signal("slow0", kind),
            })
            .collect()
    })
}

/// Lane counts the batch paths are exercised at.
const LANE_COUNTS: [usize; 3] = [1, 8, 32];

/// Builds `k` lanes as rotations/truncations of one stimulus so lanes have
/// heterogeneous lengths and contents.
fn lanes_of(stim: &[Vec<Message>], k: usize) -> Vec<Vec<Vec<Message>>> {
    (0..k)
        .map(|l| {
            let cut = stim.len() - (l % stim.len()) / 2;
            stim[..cut].to_vec()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Heap-backend networks (wheel rejected by the hyperperiod cap) agree
    /// with dense and reference execution tick-for-tick, and reset-replay
    /// reproduces the trace.
    #[test]
    fn heap_matches_dense_and_reference(subs in arb_heap_subs(), stim in arb_stimulus()) {
        let mut event = heap_net(&subs).prepare().unwrap();
        let info = event.plan_info();
        prop_assert_eq!(info.kind, EngineKind::Heap);
        prop_assert!(matches!(
            info.wheel_rejection,
            Some(PlanRejection::HyperperiodCap { .. } | PlanRejection::PlanCells { .. })
        ));
        prop_assert_eq!(event.gated_hyperperiod(), None);

        let mut dense = heap_net(&subs).prepare().unwrap();
        dense.disable_clock_gating();
        let mut reference = heap_net(&subs).prepare_reference().unwrap();

        let e = event.run(&stim).unwrap();
        let d = dense.run(&stim).unwrap();
        let r = reference.run(&stim).unwrap();
        prop_assert_eq!(&e, &d);
        prop_assert_eq!(&e, &r);

        event.reset();
        let replay = event.run(&stim).unwrap();
        prop_assert_eq!(&e, &replay);
    }

    /// Heap-backend execution composed with fault plans: event-driven,
    /// dense, and reference agree under the *same* faults, and replay
    /// rewinds fault state.
    #[test]
    fn heap_faulted_executors_agree(
        subs in arb_heap_subs(),
        stim in arb_stimulus(),
        faults in arb_faults(),
    ) {
        let mut event = heap_net(&subs).prepare().unwrap();
        event.set_faults(&faults).unwrap();
        let mut dense = heap_net(&subs).prepare().unwrap();
        dense.disable_clock_gating();
        dense.set_faults(&faults).unwrap();
        let mut reference = heap_net(&subs).prepare_reference().unwrap();
        reference.set_faults(&faults).unwrap();

        let e = event.run(&stim).unwrap();
        prop_assert_eq!(&e, &dense.run(&stim).unwrap());
        prop_assert_eq!(&e, &reference.run(&stim).unwrap());

        event.reset();
        prop_assert_eq!(&e, &event.run(&stim).unwrap());
    }

    /// Batch lanes (K ∈ {1, 8, 32}, vectorization on and off, per-lane
    /// faults included) on the heap backend equal K sequential runs.
    #[test]
    fn heap_batches_match(
        subs in arb_heap_subs(),
        stim in arb_stimulus(),
        lane_fault in arb_faults(),
    ) {
        let mut batcher = heap_net(&subs).prepare().unwrap();
        for &k in &LANE_COUNTS {
            let lanes = lanes_of(&stim, k);
            for vectorize in [true, false] {
                batcher.set_batch_vectorization(vectorize);
                let batch = batcher.run_batch(&lanes).unwrap();
                for (l, lane) in lanes.iter().enumerate() {
                    let mut single = heap_net(&subs).prepare().unwrap();
                    let want = single.run(lane).unwrap();
                    prop_assert_eq!(&batch[l], &want, "K={} lane {} vec={}", k, l, vectorize);
                }
            }
            // Per-lane faults on the first lane only.
            let lane_faults: Vec<Vec<FaultSpec>> =
                std::iter::once(lane_fault.clone()).chain((1..k).map(|_| Vec::new())).collect();
            let batch = batcher.run_batch_with_faults(&lanes, &lane_faults).unwrap();
            let mut single = heap_net(&subs).prepare().unwrap();
            single.set_faults(&lane_fault).unwrap();
            prop_assert_eq!(&batch[0], &single.run(&lanes[0]).unwrap());
        }
    }

    /// Wheel networks with provably silent phases: the fast-forwarded run
    /// equals per-tick stepping, dense execution, the reference, and batch
    /// lanes.
    #[test]
    fn wheel_quiet_matches_dense_and_reference(
        clusters in arb_wheel_clusters(),
        ticks in 10usize..600,
    ) {
        let stim: Vec<Vec<Message>> = vec![Vec::new(); ticks];
        let mut event = wheel_quiet_net(&clusters).prepare().unwrap();
        prop_assert_eq!(event.plan_info().kind, EngineKind::Wheel);

        let mut dense = wheel_quiet_net(&clusters).prepare().unwrap();
        dense.disable_clock_gating();
        let mut reference = wheel_quiet_net(&clusters).prepare_reference().unwrap();

        let e = event.run(&stim).unwrap();
        prop_assert_eq!(&e, &dense.run(&stim).unwrap());
        prop_assert_eq!(&e, &reference.run(&stim).unwrap());

        // Per-tick incremental stepping takes the non-fast-forward path.
        let mut stepper = wheel_quiet_net(&clusters).prepare().unwrap();
        let mut stepped = automode_kernel::Trace::new();
        for name_owned in e.signal_names().map(str::to_string).collect::<Vec<_>>() {
            stepped.declare(name_owned);
        }
        for row in &stim {
            let observed = stepper.step_tick_observed(row).unwrap().to_vec();
            stepped.push_row_indexed(&observed).unwrap();
        }
        prop_assert_eq!(&e, &stepped);

        let lanes = lanes_of(&stim, 8);
        let batch = wheel_quiet_net(&clusters).prepare().unwrap().run_batch(&lanes).unwrap();
        for (l, lane) in lanes.iter().enumerate() {
            let mut single = wheel_quiet_net(&clusters).prepare().unwrap();
            let want = single.run(lane).unwrap();
            prop_assert_eq!(&batch[l], &want, "lane {}", l);
        }
    }

    /// Heap networks with silent stretches and an externally-fed probe
    /// column: the quiet-row bulk emit must still reproduce the per-tick
    /// external echo bit-exactly, sequentially and across batch lanes.
    #[test]
    fn sparse_heap_quiet_matches_dense(
        clusters in arb_sparse_clusters(),
        stim in arb_stimulus(),
    ) {
        let mut event = sparse_heap_net(&clusters).prepare().unwrap();
        prop_assert_eq!(event.plan_info().kind, EngineKind::Heap);
        let mut dense = sparse_heap_net(&clusters).prepare().unwrap();
        dense.disable_clock_gating();
        let mut reference = sparse_heap_net(&clusters).prepare_reference().unwrap();

        let e = event.run(&stim).unwrap();
        prop_assert_eq!(&e, &dense.run(&stim).unwrap());
        prop_assert_eq!(&e, &reference.run(&stim).unwrap());

        event.reset();
        prop_assert_eq!(&e, &event.run(&stim).unwrap());

        let mut batcher = sparse_heap_net(&clusters).prepare().unwrap();
        for vectorize in [true, false] {
            batcher.set_batch_vectorization(vectorize);
            let lanes = lanes_of(&stim, 8);
            let batch = batcher.run_batch(&lanes).unwrap();
            for (l, lane) in lanes.iter().enumerate() {
                let mut single = sparse_heap_net(&clusters).prepare().unwrap();
                let want = single.run(lane).unwrap();
                prop_assert_eq!(&batch[l], &want, "lane {} vec={}", l, vectorize);
            }
        }
    }
}
