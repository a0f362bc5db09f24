//! Discrete-event scheduling throughput.
//!
//! Five scenarios, each measuring steady-state ticks/second of the compiled
//! executor, pinning the event engine's wins and its no-regression guards:
//!
//! * `mixed` — rates 1/1, 1/64, and 1/1000 in one network. The clock lcm
//!   (8000) exceeds the hyperperiod wheel cap, so before the event engine
//!   this shape lost gating wholesale and ran the full dense schedule every
//!   tick; the heap backend must now beat that fallback by the sparsity
//!   ratio (gate: >= 5x full mode).
//! * `silent` — zero-input clusters of clocked sources at 1/1000 and
//!   1/4000 with probed outputs: a wheel plan where most phases are
//!   provably silent. Compares the fast-forwarding `run` against the
//!   per-tick gated walk (the PR-4 status quo) on the same wheel plan.
//!   Both sides still materialize one dense trace row per tick, and that
//!   `Vec<Message>` write is memory-bandwidth-bound (~30 ns/tick for two
//!   columns on the reference runner — the bulk fill alone, with zero
//!   engine work, costs that much), so the win saturates near 2x
//!   (gate: >= 1.5x full mode).
//! * `silent_headless` — the same clusters with nothing probed, i.e.
//!   fast-forward to a future state without a per-tick observation. With
//!   the output floor gone this isolates the engine itself: quiet
//!   stretches collapse to an O(1) horizon lookup plus one bulk row count
//!   (gate: >= 8x full mode).
//! * `dense_guard` — a base-rate-dominated multirate shape (hyperperiod
//!   100, no quiet phase): `run` with the event engine must not regress
//!   against the per-tick walk (gate: >= 0.95x full mode).
//! * `batch_guard` — the same dense shape through `run_batch` (K = 8
//!   lanes): the unified event-driven batch loop must not regress against
//!   the dense batch walk (gate: >= 0.95x full mode).
//!
//! Writes `BENCH_event.json` at the repository root
//! (under `target/bench-quick/` in quick mode).
//! `AUTOMODE_BENCH_QUICK=1` shrinks the workload for CI smoke runs (with
//! proportionally looser gates); `AUTOMODE_BENCH_ENFORCE=1` exits nonzero
//! when a gate fails. Every gate compares the two arms' median rates.

use automode_bench::{time_arms, Arm, Results};
use automode_kernel::network::Network;
use automode_kernel::ops::{BinOp, Const, Delay, EveryClockGen, Lift1, Lift2, UnOp, When};
use automode_kernel::{Clock, EngineKind, Message, ReadyNetwork, Trace, Value};

/// One sampled subsystem: `when(every(period))` feeding a strict `Lift1`
/// chain of `depth` nodes, closed by a clocked `Delay` probe.
fn add_sampled_chain(
    net: &mut Network,
    input: automode_kernel::network::InputId,
    tag: &str,
    period: u32,
    depth: usize,
) {
    let clk = net.add_block(EveryClockGen::new(period, 0));
    let when = net.add_block(When::new());
    net.connect_input(input, when.input(0)).unwrap();
    net.connect(clk.output(0), when.input(1)).unwrap();
    let mut src = when.output(0);
    for _ in 0..depth {
        let l = net.add_block(Lift1::new(UnOp::Neg));
        net.connect(src, l.input(0)).unwrap();
        src = l.output(0);
    }
    let gain = net.add_block(Const::on_clock(3i64, Clock::every(period, 0)));
    let scale = net.add_block(Lift2::new(BinOp::Add));
    net.connect(src, scale.input(0)).unwrap();
    net.connect(gain.output(0), scale.input(1)).unwrap();
    let del = net.add_block(Delay::on_clock(
        Some(Value::Int(0)),
        Clock::every(period, 0),
    ));
    net.connect(scale.output(0), del.input(0)).unwrap();
    net.expose_output(format!("slow_{tag}"), del.output(0))
        .unwrap();
}

/// A small always-active base accumulator (~16 nodes).
fn add_base(net: &mut Network, input: automode_kernel::network::InputId) {
    let mut prev = None;
    for _ in 0..7 {
        let one = net.add_block(Const::new(1i64));
        let add = net.add_block(Lift2::new(BinOp::Add));
        match prev {
            None => net.connect_input(input, add.input(0)).unwrap(),
            Some(p) => net.connect(p, add.input(0)).unwrap(),
        }
        net.connect(one.output(0), add.input(1)).unwrap();
        prev = Some(add.output(0));
    }
    let del = net.add_block(Delay::new(0i64));
    net.connect(prev.unwrap(), del.input(0)).unwrap();
    net.expose_output("base", del.output(0)).unwrap();
}

/// Rates 1/1, 1/64, 1/1000: clock lcm 8000 exceeds the wheel cap, so this
/// shape is exactly the "hyperperiod-cap cliff" — heap backend territory.
fn build_mixed() -> Network {
    let mut net = Network::new("mixed_event");
    let input = net.add_input("u");
    add_base(&mut net, input);
    add_sampled_chain(&mut net, input, "p64", 64, 97);
    add_sampled_chain(&mut net, input, "p1000", 1000, 97);
    net
}

/// Zero-input clusters of clocked sources (no clock generators, no
/// base-rate nodes): most ticks are provably silent under the wheel plan.
/// `probed` controls whether the cluster tails are exposed — headless runs
/// measure the engine without the per-tick trace materialization floor.
fn build_silent(probed: bool) -> Network {
    let mut net = Network::new("silent_event");
    for (k, period) in [(0usize, 1000u32), (1, 4000)] {
        let clock = Clock::every(period, 0);
        let src = net.add_block(Const::on_clock(7i64 + k as i64, clock.clone()));
        let mut out = src.output(0);
        for _ in 0..57 {
            let l = net.add_block(Lift1::new(UnOp::Neg));
            net.connect(out, l.input(0)).unwrap();
            out = l.output(0);
        }
        let del = net.add_block(Delay::on_clock(Some(Value::Int(0)), clock));
        net.connect(out, del.input(0)).unwrap();
        if probed {
            net.expose_output(format!("d{k}"), del.output(0)).unwrap();
        }
    }
    net
}

/// Base-heavy multirate shape (hyperperiod 100): every tick does base work,
/// so the event engine has nothing to skip — the no-regression guard.
fn build_dense() -> Network {
    let mut net = Network::new("dense_event");
    let input = net.add_input("u");
    add_base(&mut net, input);
    add_sampled_chain(&mut net, input, "p10", 10, 17);
    add_sampled_chain(&mut net, input, "p100", 100, 17);
    net
}

/// Arm `name`: `run` over `stim` (trace building included) on a fresh
/// copy of `ready`.
fn run<'a>(name: &str, ready: &'a ReadyNetwork, stim: &'a [Vec<Message>]) -> Arm<'a> {
    Arm::new(
        name,
        stim.len() as f64,
        || ready.clone(),
        |ready| ready.run(stim).unwrap(),
    )
}

/// Arm `name`: a per-tick `step_tick_observed` + `push_row_indexed` loop
/// over `stim` on a fresh copy of `ready` — exactly what `run` did before
/// silent-stretch fast-forwarding.
fn step_loop<'a>(name: &str, ready: &'a ReadyNetwork, stim: &'a [Vec<Message>]) -> Arm<'a> {
    let names: Vec<String> = ready
        .clone()
        .run(&stim[..1.min(stim.len())])
        .unwrap()
        .signal_names()
        .map(str::to_string)
        .collect();
    Arm::new(
        name,
        stim.len() as f64,
        || ready.clone(),
        move |ready| {
            let mut trace = Trace::new();
            for n in &names {
                trace.declare(n.clone());
            }
            for row in stim {
                let observed = ready.step_tick_observed(row).unwrap();
                trace.push_row_indexed(observed).unwrap();
            }
            trace
        },
    )
}

/// Arm `name`: `run_batch` of `lanes` on `ready`, in lane-ticks.
fn batch<'a>(name: &str, ready: &'a ReadyNetwork, lanes: &'a [Vec<Vec<Message>>]) -> Arm<'a> {
    let lane_ticks = lanes.iter().map(Vec::len).sum::<usize>();
    Arm::new(
        name,
        lane_ticks as f64,
        || (),
        |()| ready.run_batch(lanes).unwrap(),
    )
}

fn present_rows(ticks: usize) -> Vec<Vec<Message>> {
    (0..ticks)
        .map(|_| vec![Message::present(Value::Int(1))])
        .collect()
}

/// `build()` prepared with clock gating off: the dense schedule.
fn dense_plan(build: fn() -> Network) -> ReadyNetwork {
    let mut plain = build().prepare().unwrap();
    plain.disable_clock_gating();
    plain
}

/// `build()` prepared, asserting its plan compiles to `kind`.
fn plan_of_kind(build: impl Fn() -> Network, kind: EngineKind) -> ReadyNetwork {
    let ready = build().prepare().unwrap();
    let info = ready.plan_info();
    assert_eq!(info.kind, kind, "{info}");
    ready
}

fn main() {
    let quick = automode_bench::quick_mode();
    let ticks = if quick { 4_000 } else { 20_000 };
    let silent_ticks = if quick { 20_000 } else { 200_000 };
    let mut results = Results::new("sparse_multirate_event", "ticks_per_second");

    // mixed: heap backend vs the dense fallback these nets were stuck with.
    let stim = present_rows(ticks);
    let mixed = plan_of_kind(build_mixed, EngineKind::Heap);
    let mixed_dense = dense_plan(build_mixed);
    results.scenario(
        "mixed",
        time_arms(vec![
            step_loop("dense", &mixed_dense, &stim),
            step_loop("event", &mixed, &stim),
        ]),
    );
    let mixed_speedup = results.ratio("event", "dense");

    // silent: fast-forwarding run vs the per-tick gated walk on one wheel.
    let silent_stim: Vec<Vec<Message>> = vec![Vec::new(); silent_ticks];
    let silent = plan_of_kind(|| build_silent(true), EngineKind::Wheel);
    results.scenario(
        "silent",
        time_arms(vec![
            step_loop("gated_walk", &silent, &silent_stim),
            run("event", &silent, &silent_stim),
        ]),
    );
    let silent_speedup = results.ratio("event", "gated_walk");

    // silent_headless: same clusters, nothing probed — the engine alone.
    let headless = plan_of_kind(|| build_silent(false), EngineKind::Wheel);
    results.scenario(
        "silent_headless",
        time_arms(vec![
            step_loop("gated_walk", &headless, &silent_stim),
            run("event", &headless, &silent_stim),
        ]),
    );
    let headless_speedup = results.ratio("event", "gated_walk");

    // dense_guard: run must not regress vs the per-tick walk when nothing
    // can be skipped.
    let dense = build_dense().prepare().unwrap();
    assert_eq!(dense.gated_hyperperiod(), Some(100), "dense shape wheel");
    results.scenario(
        "dense_guard",
        time_arms(vec![
            step_loop("walk", &dense, &stim),
            run("run", &dense, &stim),
        ]),
    );
    let dense_ratio = results.ratio("run", "walk");

    // batch_guard: the unified event-driven batch loop vs the dense batch
    // walk on the same shape, K = 8 lanes.
    let lanes = vec![present_rows(ticks / 4); 8];
    let dense_batch = dense_plan(build_dense);
    results.scenario(
        "batch_guard",
        time_arms(vec![
            batch("dense", &dense_batch, &lanes),
            batch("event", &dense, &lanes),
        ]),
    );
    let batch_ratio = results.ratio("event", "dense");

    // Quick mode runs tiny workloads on noisy CI runners; gates scale
    // accordingly. Full-mode gates match the acceptance criteria.
    // The probed `silent` gate is deliberately modest: both sides pay
    // the memory-bandwidth-bound dense trace fill (see module docs),
    // so the engine's win there tops out near 2x. `silent_headless`
    // carries the uncapped engine-only gate.
    let mins = if quick {
        [2.5, 1.3, 5.0, 0.85, 0.85]
    } else {
        [5.0, 1.5, 8.0, 0.95, 0.95]
    };
    for ((name, value), min) in [
        ("mixed", mixed_speedup),
        ("silent", silent_speedup),
        ("silent_headless", headless_speedup),
        ("dense_guard", dense_ratio),
        ("batch_guard", batch_ratio),
    ]
    .into_iter()
    .zip(mins)
    {
        results.gate_at_least(name, value, min);
    }

    results.data(format!(
        r#"{{"ticks":{ticks},"silent_ticks":{silent_ticks},"batch_lanes":8,"batch_lane_ticks":{}}}"#,
        ticks / 4
    ));
    automode_bench::write_results("BENCH_event.json", results);
}
