//! Differential property tests of identity-wire forwarding.
//!
//! `Network::prepare` forwards every reader of an identity wire
//! (`ops::Identity`, the `in:` port-boundary blocks elaboration inserts) to
//! the wire's own source and never steps the wire. Random networks thread
//! wires everywhere a reader can meet one — chains of wires, wires on
//! external inputs and on open ports, wires read by probes and by a
//! `Delay` in commit, wires on clock conditions and on clocked sources
//! under dense, wheel and heap plans — and every executor must equal the
//! interpretive reference, which steps every wire: the single-run loop, the
//! typed batch and the vectorization-off batch.
//!
//! A fault plan naming a wire's output keeps that wire: only its readers
//! see the fault, even where its source also feeds an unfaulted reader.

use automode_kernel::network::{InputId, PortRef};
use automode_kernel::ops::{
    BinOp, Const, Current, Delay, EveryClockGen, Identity, Lift1, Lift2, UnOp, When,
};
use automode_kernel::{Clock, EngineKind, FaultKind, FaultSpec, Message, Network, Trace, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which clock engine a generated network's clocked sources aim at.
#[derive(Debug, Clone, Copy)]
enum Rates {
    /// No declared clocks: the dense schedule.
    Dense,
    /// Harmonic periods: a hyperperiod wheel.
    Wheel,
    /// Periods 512 and 1000, past the wheel cap: the calendar heap.
    Heap,
}

/// A value (float) or condition (Boolean) source a port can read.
#[derive(Debug, Clone, Copy)]
enum Src {
    Node(PortRef),
    Input(InputId),
    Open,
}

/// Builds networks with identity wires named `w0`, `w1`, ... in creation
/// order, so fault plans can name them.
struct Builder {
    net: Network,
    rng: StdRng,
    wires: usize,
}

impl Builder {
    /// `src` behind a chain of zero to three fresh wires.
    fn through_wires(&mut self, src: Src) -> Src {
        let mut src = src;
        for _ in 0..self.rng.gen_range(0..4usize) {
            let w = self
                .net
                .add_block(Identity::new(format!("w{}", self.wires)));
            self.wires += 1;
            self.wire(src, w.input(0));
            src = Src::Node(w.output(0));
        }
        src
    }

    fn wire(&mut self, src: Src, port: PortRef) {
        match src {
            Src::Node(from) => self.net.connect(from, port).unwrap(),
            Src::Input(i) => self.net.connect_input(i, port).unwrap(),
            Src::Open => {}
        }
    }

    /// Reads one of `pool` (or, rarely, nothing) into `port`, often
    /// through wires.
    fn read(&mut self, pool: &[Src], port: PortRef) {
        let src = if pool.is_empty() || self.rng.gen_bool(0.1) {
            Src::Open
        } else {
            pool[self.rng.gen_range(0..pool.len())]
        };
        let src = self.through_wires(src);
        self.wire(src, port);
    }
}

/// A random network of `n` blocks over `n_inputs` float inputs; returns it
/// with its wire count. Instantaneous reads only reach earlier sources;
/// each `Delay` reads any value source in commit, feedback included.
fn wired_net(seed: u64, n: usize, n_inputs: usize, rates: Rates) -> (Network, usize) {
    let mut b = Builder {
        net: Network::new("forwarding"),
        rng: StdRng::seed_from_u64(seed),
        wires: 0,
    };
    let inputs: Vec<InputId> = (0..n_inputs)
        .map(|i| b.net.add_input(format!("u{i}")))
        .collect();
    for (i, &u) in inputs.iter().enumerate() {
        b.net.probe_input(format!("pu{i}"), u).unwrap();
    }
    let periods: &[u32] = match rates {
        Rates::Dense => &[1],
        Rates::Wheel => &[2, 3, 4],
        Rates::Heap => &[512, 1000],
    };
    let mut vals: Vec<Src> = inputs.iter().map(|&u| Src::Input(u)).collect();
    let mut conds: Vec<Src> = Vec::new();
    let mut delays = Vec::new();
    for _ in 0..n {
        let period = periods[b.rng.gen_range(0..periods.len())];
        let phase = b.rng.gen_range(0..period.min(3));
        let out = match b.rng.gen_range(0u32..7) {
            0 => {
                let c = Clock::every(period, phase);
                let v = f64::from(b.rng.gen_range(-8i32..8));
                b.net.add_block(Const::on_clock(v, c)).output(0)
            }
            1 => {
                let g = b.net.add_block(EveryClockGen::new(period, phase));
                let cond = b.through_wires(Src::Node(g.output(0)));
                conds.push(cond);
                continue;
            }
            2 => {
                let h = b.net.add_block(Lift2::new(BinOp::Add));
                b.read(&vals.clone(), h.input(0));
                b.read(&vals.clone(), h.input(1));
                h.output(0)
            }
            3 => {
                let h = b.net.add_block(Lift1::new(UnOp::Neg));
                b.read(&vals.clone(), h.input(0));
                h.output(0)
            }
            4 => {
                let h = b.net.add_block(When::new());
                b.read(&vals.clone(), h.input(0));
                b.read(&conds.clone(), h.input(1));
                h.output(0)
            }
            5 => {
                let h = b.net.add_block(Current::new(0.5f64));
                b.read(&vals.clone(), h.input(0));
                h.output(0)
            }
            _ => {
                let h = b.net.add_block(Delay::new(-1.0f64));
                delays.push(h);
                h.output(0)
            }
        };
        vals.push(b.through_wires(Src::Node(out)));
    }
    // Delays read in commit, so any value source will do, later ones
    // (feedback) included.
    for d in delays {
        b.read(&vals.clone(), d.input(0));
    }
    // Probe a handful of value sources, many of them wires.
    for (j, src) in vals.iter().enumerate().skip(n_inputs).take(8) {
        if let Src::Node(p) = *src {
            b.net.expose_output(format!("p{j}"), p).unwrap();
        }
    }
    (b.net, b.wires)
}

/// Float stimulus with a 25% absence rate, varied by `salt`.
fn stimulus(seed: u64, salt: u64, n_inputs: usize, ticks: usize) -> Vec<Vec<Message>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed ^ salt.wrapping_mul(0x9e37_79b9));
    (0..ticks)
        .map(|_| {
            (0..n_inputs)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        Message::Absent
                    } else {
                        Message::present(Value::Float(f64::from(rng.gen_range(-50i32..50))))
                    }
                })
                .collect()
        })
        .collect()
}

fn arb_rates() -> impl Strategy<Value = Rates> {
    prop_oneof![Just(Rates::Dense), Just(Rates::Wheel), Just(Rates::Heap)]
}

/// The reference trace of `stim` under `faults`.
fn reference(net: Network, stim: &[Vec<Message>], faults: &[FaultSpec]) -> Trace {
    let mut r = net.prepare_reference().unwrap();
    r.set_faults(faults).unwrap();
    r.run(stim).unwrap()
}

/// A random stuck or drop fault on wire `w`'s output.
fn wire_fault(w: usize, stuck: bool, v: i32) -> FaultSpec {
    let kind = if stuck {
        FaultKind::StuckAt(Value::Float(f64::from(v)))
    } else {
        FaultKind::drop_every(2, (v.unsigned_abs() % 3).into())
    };
    FaultSpec::on_block(format!("w{w}"), 0, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Nominal runs forward every wire — single run, typed batch and
    /// vectorization-off batch — and equal the reference lane by lane.
    #[test]
    fn forwarded_runs_match_reference(
        seed in any::<u64>(),
        n in 1usize..20,
        n_inputs in 0usize..3,
        ticks in 1usize..40,
        rates in arb_rates(),
    ) {
        let build = || wired_net(seed, n, n_inputs, rates);
        let (net, wires) = build();
        let mut ready = net.prepare().unwrap();
        prop_assert_eq!(ready.plan_info().forwarded, wires);
        prop_assert_eq!(ready.lane_plan(4).forwarded(), wires);

        let stims: Vec<Vec<Vec<Message>>> = (0..4)
            .map(|l| stimulus(seed, l, n_inputs, ticks - (l as usize % 2) * (ticks / 2)))
            .collect();
        let expected: Vec<Trace> = stims
            .iter()
            .map(|s| reference(build().0, s, &[]))
            .collect();

        prop_assert_eq!(&ready.run(&stims[0]).unwrap(), &expected[0]);
        for vectorize in [true, false] {
            ready.set_batch_vectorization(vectorize);
            let batch = ready.run_batch(&stims).unwrap();
            for (l, trace) in batch.iter().enumerate() {
                prop_assert_eq!(trace, &expected[l], "vectorize {} lane {}", vectorize, l);
            }
        }
    }

    /// A stuck or drop fault on a wire keeps that wire, installed or per
    /// lane, and every executor equals the reference under the same
    /// faults.
    #[test]
    fn faults_on_wires_keep_them(
        seed in any::<u64>(),
        n in 2usize..20,
        n_inputs in 1usize..3,
        ticks in 1usize..40,
        rates in arb_rates(),
        picks in prop::collection::vec((0usize..1000, any::<bool>(), -9i32..9), 1..4),
    ) {
        let build = || wired_net(seed, n, n_inputs, rates);
        let (net, wires) = build();
        prop_assume!(wires > 0);
        let faults: Vec<FaultSpec> = picks
            .iter()
            .map(|(w, stuck, v)| wire_fault(w % wires, *stuck, *v))
            .collect();
        let stim = stimulus(seed, 0, n_inputs, ticks);

        // Installed: the single-run loop keeps the named wires.
        let mut ready = net.prepare().unwrap();
        ready.set_faults(&faults).unwrap();
        prop_assert!(ready.plan_info().forwarded < wires);
        prop_assert_eq!(ready.run(&stim).unwrap(), reference(build().0, &stim, &faults));
        ready.clear_faults();
        prop_assert_eq!(ready.plan_info().forwarded, wires);

        // Per lane: lane 0 faulted, lane 1 nominal, lane 2 one fault.
        let lane_faults = vec![faults.clone(), Vec::new(), faults[..1].to_vec()];
        let stims: Vec<Vec<Vec<Message>>> =
            (0..3).map(|l| stimulus(seed, l, n_inputs, ticks)).collect();
        for vectorize in [true, false] {
            ready.set_batch_vectorization(vectorize);
            let batch = ready.run_batch_with_faults(&stims, &lane_faults).unwrap();
            for (l, trace) in batch.iter().enumerate() {
                let expected = reference(build().0, &stims[l], &lane_faults[l]);
                prop_assert_eq!(trace, &expected, "vectorize {} lane {}", vectorize, l);
            }
        }
        // One lane alone, as the live oracle runs it.
        ready.reset();
        let lane = ready.run_lane(&stims[2], &lane_faults[2]).unwrap();
        prop_assert_eq!(lane, reference(build().0, &stims[2], &lane_faults[2]));
    }
}

/// `u -> src`, fanning out to a wire `in:w` read by `a` and directly to
/// `b`; a `Delay` reads the wire in commit and a probe reads it too.
fn fan_out() -> Network {
    let mut net = Network::new("fan-out");
    let u = net.add_input("u");
    let src = net.add_block(Lift1::new(UnOp::Neg));
    let w = net.add_block(Identity::new("in:w"));
    let a = net.add_block(Lift1::new(UnOp::Neg));
    let b = net.add_block(Lift1::new(UnOp::Neg));
    let d = net.add_block(Delay::new(0.0f64));
    net.connect_input(u, src.input(0)).unwrap();
    net.connect(src.output(0), w.input(0)).unwrap();
    net.connect(w.output(0), a.input(0)).unwrap();
    net.connect(src.output(0), b.input(0)).unwrap();
    net.connect(w.output(0), d.input(0)).unwrap();
    net.expose_output("w", w.output(0)).unwrap();
    net.expose_output("a", a.output(0)).unwrap();
    net.expose_output("b", b.output(0)).unwrap();
    net.expose_output("d", d.output(0)).unwrap();
    net
}

#[test]
fn a_fault_on_a_wire_reaches_only_its_readers() {
    let stim: Vec<Vec<Message>> = (0..12)
        .map(|t| vec![Message::present(Value::Float(f64::from(t)))])
        .collect();
    let stuck = FaultSpec::on_block("in:w", 0, FaultKind::StuckAt(Value::Float(7.0)));
    let drop = FaultSpec::on_block("in:w", 0, FaultKind::drop_every(3, 1));

    let mut ready = fan_out().prepare().unwrap();
    assert_eq!(ready.plan_info().forwarded, 1);
    for fault in [&stuck, &drop] {
        let faults = std::slice::from_ref(fault);
        ready.set_faults(faults).unwrap();
        assert_eq!(ready.plan_info().forwarded, 0);
        let got = ready.run(&stim).unwrap();
        assert_eq!(got, reference(fan_out(), &stim, faults));
        // `b` reads the wire's source directly and never sees the fault.
        let nominal = fan_out().run(&stim).unwrap();
        assert_eq!(got.signal("b"), nominal.signal("b"));
        assert_ne!(got.signal("a"), nominal.signal("a"));
        ready.clear_faults();
        ready.reset();
    }
    assert_eq!(ready.plan_info().forwarded, 1);

    // The same two faults as lane faults, beside a nominal lane.
    let lane_faults = vec![vec![stuck], vec![drop], Vec::new()];
    let stims = vec![stim.clone(); 3];
    for vectorize in [true, false] {
        ready.set_batch_vectorization(vectorize);
        let batch = ready.run_batch_with_faults(&stims, &lane_faults).unwrap();
        for (l, trace) in batch.iter().enumerate() {
            let expected = reference(fan_out(), &stim, &lane_faults[l]);
            assert_eq!(trace, &expected, "vectorize {vectorize} lane {l}");
        }
    }
}

#[test]
fn a_signal_fault_on_a_probed_wire_names_the_wire() {
    // Probe `w` reads the wire: a fault on that signal keeps the wire
    // rather than landing on its source, which `b` also reads.
    let stim: Vec<Vec<Message>> = (0..6)
        .map(|t| vec![Message::present(Value::Float(f64::from(t)))])
        .collect();
    let faults = [FaultSpec::on_signal(
        "w",
        FaultKind::StuckAt(Value::Float(1.0)),
    )];
    let mut ready = fan_out().prepare().unwrap();
    ready.set_faults(&faults).unwrap();
    assert_eq!(ready.plan_info().forwarded, 0);
    assert_eq!(
        ready.run(&stim).unwrap(),
        reference(fan_out(), &stim, &faults)
    );
}

/// A base-rate accumulator beside a clocked source (period `period`)
/// read through a chain of two wires, plus a period-512 source.
fn gated_net(period: u32) -> Network {
    let mut net = Network::new("gated");
    let u = net.add_input("u");
    let acc = net.add_block(Lift2::new(BinOp::Add));
    let del = net.add_block(Delay::new(0.0f64));
    net.connect_input(u, acc.input(0)).unwrap();
    net.connect(del.output(0), acc.input(1)).unwrap();
    net.connect(acc.output(0), del.input(0)).unwrap();
    let c = net.add_block(Const::on_clock(2.0f64, Clock::every(period, 1)));
    let slow = net.add_block(Const::on_clock(3.0f64, Clock::every(512, 0)));
    let w1 = net.add_block(Identity::new("w1"));
    let w2 = net.add_block(Identity::new("w2"));
    let neg = net.add_block(Lift1::new(UnOp::Neg));
    net.connect(c.output(0), w1.input(0)).unwrap();
    net.connect(w1.output(0), w2.input(0)).unwrap();
    net.connect(w2.output(0), neg.input(0)).unwrap();
    net.expose_output("acc", acc.output(0)).unwrap();
    net.expose_output("neg", neg.output(0)).unwrap();
    net.expose_output("w2", w2.output(0)).unwrap();
    net.expose_output("slow", slow.output(0)).unwrap();
    net
}

#[test]
fn wires_leave_wheel_and_heap_plans_gated() {
    let stim: Vec<Vec<Message>> = (0..1100)
        .map(|t| vec![Message::present(Value::Float(f64::from(t % 7)))])
        .collect();
    for (period, kind) in [(4u32, EngineKind::Wheel), (1000, EngineKind::Heap)] {
        let expected = gated_net(period).run_reference(&stim).unwrap();
        let mut ready = gated_net(period).prepare().unwrap();
        let info = ready.plan_info();
        assert_eq!((info.kind, info.forwarded), (kind, 2), "{info}");
        assert_eq!(ready.run(&stim).unwrap(), expected, "{info}");
        let lanes = vec![stim.clone(); 3];
        assert!(ready
            .run_batch(&lanes)
            .unwrap()
            .iter()
            .all(|t| *t == expected));

        // A drop on the inner wire keeps it and keeps the plan gated.
        let faults = [FaultSpec::on_block("w2", 0, FaultKind::drop_every(3, 0))];
        ready.set_faults(&faults).unwrap();
        let info = ready.plan_info();
        assert_eq!((info.kind, info.forwarded), (kind, 1), "{info}");
        let mut reference = gated_net(period).prepare_reference().unwrap();
        reference.set_faults(&faults).unwrap();
        let expected = reference.run(&stim).unwrap();
        ready.reset();
        assert_eq!(ready.run(&stim).unwrap(), expected, "{info}");
        let lane_faults = vec![faults.to_vec(); 3];
        ready.clear_faults();
        let batch = ready.run_batch_with_faults(&lanes, &lane_faults).unwrap();
        assert!(batch.iter().all(|t| *t == expected));
    }
}
