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
//! when a gate fails.

use std::time::Instant;

use automode_kernel::network::Network;
use automode_kernel::ops::{BinOp, Const, Delay, EveryClockGen, Lift1, Lift2, UnOp, When};
use automode_kernel::{Clock, EngineKind, Message, Trace, Value};
use criterion::black_box;

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

/// Ticks/second of `run` over `stim` (trace building included), best of
/// one warmup plus timed repetition.
fn measure_run(ready: &mut automode_kernel::ReadyNetwork, stim: &[Vec<Message>]) -> f64 {
    ready.reset();
    black_box(ready.run(stim).unwrap());
    ready.reset();
    let start = Instant::now();
    black_box(ready.run(stim).unwrap());
    stim.len() as f64 / start.elapsed().as_secs_f64()
}

/// Ticks/second of a per-tick `step_tick_observed` + `push_row_indexed`
/// loop — exactly what `run` did before silent-stretch fast-forwarding.
fn measure_step_loop(ready: &mut automode_kernel::ReadyNetwork, stim: &[Vec<Message>]) -> f64 {
    let names: Vec<String> = {
        ready.reset();
        let t = ready.run(&stim[..1.min(stim.len())]).unwrap();
        t.signal_names().map(str::to_string).collect()
    };
    let go = |ready: &mut automode_kernel::ReadyNetwork| {
        ready.reset();
        let mut trace = Trace::new();
        for n in &names {
            trace.declare(n.clone());
        }
        for row in stim {
            let observed = ready.step_tick_observed(row).unwrap();
            trace.push_row_indexed(observed).unwrap();
        }
        trace
    };
    black_box(go(ready));
    let start = Instant::now();
    black_box(go(ready));
    stim.len() as f64 / start.elapsed().as_secs_f64()
}

/// Lane-ticks/second of `run_batch` over `k` equal lanes.
fn measure_batch(ready: &automode_kernel::ReadyNetwork, stim: &[Vec<Message>], k: usize) -> f64 {
    let lanes: Vec<Vec<Vec<Message>>> = (0..k).map(|_| stim.to_vec()).collect();
    black_box(ready.run_batch(&lanes).unwrap());
    let start = Instant::now();
    black_box(ready.run_batch(&lanes).unwrap());
    (stim.len() * k) as f64 / start.elapsed().as_secs_f64()
}

fn present_rows(ticks: usize) -> Vec<Vec<Message>> {
    (0..ticks)
        .map(|_| vec![Message::present(Value::Int(1))])
        .collect()
}

struct Gate {
    name: &'static str,
    speedup: f64,
    min: f64,
}

fn main() {
    let quick = automode_bench::quick_mode();
    let ticks = if quick { 4_000 } else { 20_000 };
    let silent_ticks = if quick { 20_000 } else { 200_000 };

    // mixed: heap backend vs the dense fallback these nets were stuck with.
    let mixed_stim = present_rows(ticks);
    let mut event = 0.0f64;
    let mut dense = 0.0f64;
    for _ in 0..3 {
        let mut ready = build_mixed().prepare().unwrap();
        let info = ready.plan_info();
        assert_eq!(
            info.kind,
            EngineKind::Heap,
            "mixed must use the heap: {info}"
        );
        event = event.max(measure_step_loop(&mut ready, &mixed_stim));
        let mut plain = build_mixed().prepare().unwrap();
        plain.disable_clock_gating();
        dense = dense.max(measure_step_loop(&mut plain, &mixed_stim));
    }
    let mixed_speedup = event / dense;
    println!(
        "mixed/heap_vs_dense         dense: {dense:>12.0} ticks/s   event: {event:>12.0} ticks/s   speedup: {mixed_speedup:.2}x"
    );

    // silent: fast-forwarding run vs the per-tick gated walk on one wheel.
    let silent_stim: Vec<Vec<Message>> = vec![Vec::new(); silent_ticks];
    let mut ff = 0.0f64;
    let mut walk = 0.0f64;
    for _ in 0..3 {
        let mut ready = build_silent(true).prepare().unwrap();
        let info = ready.plan_info();
        assert_eq!(
            info.kind,
            EngineKind::Wheel,
            "silent must compile a wheel: {info}"
        );
        ff = ff.max(measure_run(&mut ready, &silent_stim));
        walk = walk.max(measure_step_loop(&mut ready, &silent_stim));
    }
    let silent_speedup = ff / walk;
    println!(
        "silent/ff_vs_gated_walk     walk:  {walk:>12.0} ticks/s   event: {ff:>12.0} ticks/s   speedup: {silent_speedup:.2}x"
    );

    // silent_headless: same clusters, nothing probed — the engine alone.
    let mut ff_hl = 0.0f64;
    let mut walk_hl = 0.0f64;
    for _ in 0..3 {
        let mut ready = build_silent(false).prepare().unwrap();
        let info = ready.plan_info();
        assert_eq!(
            info.kind,
            EngineKind::Wheel,
            "headless must compile a wheel: {info}"
        );
        ff_hl = ff_hl.max(measure_run(&mut ready, &silent_stim));
        walk_hl = walk_hl.max(measure_step_loop(&mut ready, &silent_stim));
    }
    let headless_speedup = ff_hl / walk_hl;
    println!(
        "silent_headless/ff_vs_walk  walk:  {walk_hl:>12.0} ticks/s   event: {ff_hl:>12.0} ticks/s   speedup: {headless_speedup:.2}x"
    );

    // dense_guard: run must not regress vs the per-tick walk when nothing
    // can be skipped.
    let dense_stim = present_rows(ticks);
    let mut guarded = 0.0f64;
    let mut walk_dense = 0.0f64;
    for _ in 0..3 {
        let mut ready = build_dense().prepare().unwrap();
        assert_eq!(ready.gated_hyperperiod(), Some(100), "dense shape wheel");
        guarded = guarded.max(measure_run(&mut ready, &dense_stim));
        walk_dense = walk_dense.max(measure_step_loop(&mut ready, &dense_stim));
    }
    let dense_ratio = guarded / walk_dense;
    println!(
        "dense_guard/run_vs_walk     walk:  {walk_dense:>12.0} ticks/s   run:   {guarded:>12.0} ticks/s   ratio:   {dense_ratio:.2}x"
    );

    // batch_guard: the unified event-driven batch loop vs the dense batch
    // walk on the same shape, K = 8 lanes.
    let batch_stim = present_rows(ticks / 4);
    let mut batch_event = 0.0f64;
    let mut batch_dense = 0.0f64;
    for _ in 0..3 {
        let ready = build_dense().prepare().unwrap();
        batch_event = batch_event.max(measure_batch(&ready, &batch_stim, 8));
        let mut plain = build_dense().prepare().unwrap();
        plain.disable_clock_gating();
        batch_dense = batch_dense.max(measure_batch(&plain, &batch_stim, 8));
    }
    let batch_ratio = batch_event / batch_dense;
    println!(
        "batch_guard/event_vs_dense  dense: {batch_dense:>12.0} lane-ticks/s   event: {batch_event:>12.0} lane-ticks/s   ratio:   {batch_ratio:.2}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"sparse_multirate_event\",\n  \"unit\": \"ticks_per_second\",\n  \"scenarios\": {{\n    \"mixed\": {{ \"ticks\": {ticks}, \"dense\": {dense:.0}, \"event\": {event:.0}, \"speedup\": {mixed_speedup:.2} }},\n    \"silent\": {{ \"ticks\": {silent_ticks}, \"gated_walk\": {walk:.0}, \"event\": {ff:.0}, \"speedup\": {silent_speedup:.2} }},\n    \"silent_headless\": {{ \"ticks\": {silent_ticks}, \"gated_walk\": {walk_hl:.0}, \"event\": {ff_hl:.0}, \"speedup\": {headless_speedup:.2} }},\n    \"dense_guard\": {{ \"ticks\": {ticks}, \"walk\": {walk_dense:.0}, \"run\": {guarded:.0}, \"ratio\": {dense_ratio:.2} }},\n    \"batch_guard\": {{ \"lane_ticks\": {}, \"dense\": {batch_dense:.0}, \"event\": {batch_event:.0}, \"ratio\": {batch_ratio:.2} }}\n  }}\n}}\n",
        batch_stim.len() * 8
    );
    automode_bench::write_results("BENCH_event.json", &json);

    if std::env::var("AUTOMODE_BENCH_ENFORCE").is_ok_and(|v| v == "1") {
        // Quick mode runs tiny workloads on noisy CI runners; gates scale
        // accordingly. Full-mode gates match the acceptance criteria.
        // The probed `silent` gate is deliberately modest: both sides pay
        // the memory-bandwidth-bound dense trace fill (see module docs),
        // so the engine's win there tops out near 2x. `silent_headless`
        // carries the uncapped engine-only gate.
        let gates = if quick {
            [
                Gate {
                    name: "mixed",
                    speedup: mixed_speedup,
                    min: 2.5,
                },
                Gate {
                    name: "silent",
                    speedup: silent_speedup,
                    min: 1.3,
                },
                Gate {
                    name: "silent_headless",
                    speedup: headless_speedup,
                    min: 5.0,
                },
                Gate {
                    name: "dense_guard",
                    speedup: dense_ratio,
                    min: 0.85,
                },
                Gate {
                    name: "batch_guard",
                    speedup: batch_ratio,
                    min: 0.85,
                },
            ]
        } else {
            [
                Gate {
                    name: "mixed",
                    speedup: mixed_speedup,
                    min: 5.0,
                },
                Gate {
                    name: "silent",
                    speedup: silent_speedup,
                    min: 1.5,
                },
                Gate {
                    name: "silent_headless",
                    speedup: headless_speedup,
                    min: 8.0,
                },
                Gate {
                    name: "dense_guard",
                    speedup: dense_ratio,
                    min: 0.95,
                },
                Gate {
                    name: "batch_guard",
                    speedup: batch_ratio,
                    min: 0.95,
                },
            ]
        };
        let mut failed = false;
        for g in &gates {
            if g.speedup < g.min {
                eprintln!(
                    "FAIL: {} is {:.2}x (< {:.2}x gate)",
                    g.name, g.speedup, g.min
                );
                failed = true;
            } else {
                println!("gate: {} is {:.2}x (>= {:.2}x)", g.name, g.speedup, g.min);
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
