//! Steady-state tick throughput of the compiled executor vs the
//! interpretive reference, over three network shapes:
//!
//! * `deep` — a long instantaneous adder pipeline (levels of width 1),
//! * `wide` — many independent adders in one level,
//! * `multirate` — when/delay/current chains on mixed clocks.
//!
//! Besides the criterion-style console report, the run writes
//! `BENCH_executor.json` at the repository root
//! (under `target/bench-quick/` in quick mode) with before/after
//! ticks-per-second and the speedup per shape (acceptance gate: >= 2x on
//! `deep`).

use std::time::Instant;

use automode_kernel::network::Network;
use automode_kernel::ops::{BinOp, Const, Current, Delay, EveryClockGen, Lift2, When};
use automode_kernel::{Message, Value};
use criterion::black_box;

/// A deep instantaneous pipeline: `x -> (+1) -> (+1) -> ...`, `depth`
/// stages, one probe at the end. Every level has width 1, so this measures
/// raw per-node executor overhead.
fn build_deep(depth: usize) -> Network {
    let mut net = Network::new("deep");
    let input = net.add_input("x");
    let one = net.add_block(Const::new(1i64));
    let mut prev = None;
    for _ in 0..depth {
        let add = net.add_block(Lift2::new(BinOp::Add));
        match prev {
            None => net.connect_input(input, add.input(0)).unwrap(),
            Some(p) => net.connect(p, add.input(0)).unwrap(),
        }
        net.connect(one.output(0), add.input(1)).unwrap();
        prev = Some(add.output(0));
    }
    net.expose_output("y", prev.unwrap()).unwrap();
    net
}

/// A wide single level: `width` independent `x + c_i` adders, four probes.
fn build_wide(width: usize) -> Network {
    let mut net = Network::new("wide");
    let input = net.add_input("x");
    for i in 0..width {
        let c = net.add_block(Const::new(i as i64));
        let add = net.add_block(Lift2::new(BinOp::Add));
        net.connect_input(input, add.input(0)).unwrap();
        net.connect(c.output(0), add.input(1)).unwrap();
        if i % (width / 4).max(1) == 0 {
            net.expose_output(format!("y{i}"), add.output(0)).unwrap();
        }
    }
    net
}

/// Mixed-rate chains: `segments` copies of
/// `x -> when(every k) -> current -> (+1) -> delay`, probing each delay.
fn build_multirate(segments: usize) -> Network {
    let mut net = Network::new("multirate");
    let input = net.add_input("x");
    for i in 0..segments {
        let clk = net.add_block(EveryClockGen::new(2 + (i % 5) as u32, (i % 3) as u32));
        let when = net.add_block(When::new());
        let cur = net.add_block(Current::new(0i64));
        let one = net.add_block(Const::new(1i64));
        let add = net.add_block(Lift2::new(BinOp::Add));
        let del = net.add_block(Delay::new(0i64));
        net.connect_input(input, when.input(0)).unwrap();
        net.connect(clk.output(0), when.input(1)).unwrap();
        net.connect(when.output(0), cur.input(0)).unwrap();
        net.connect(cur.output(0), add.input(0)).unwrap();
        net.connect(one.output(0), add.input(1)).unwrap();
        net.connect(add.output(0), del.input(0)).unwrap();
        net.expose_output(format!("d{i}"), del.output(0)).unwrap();
    }
    net
}

/// Steady-state ticks/second of the compiled executor (prepared once,
/// stepped `ticks` times on the reused fast path).
fn measure_compiled(net: Network, ticks: usize) -> f64 {
    let mut ready = net.prepare().unwrap();
    let row = [Message::present(Value::Int(1))];
    // Warm up allocations and caches.
    for _ in 0..ticks / 10 {
        black_box(ready.step_tick_observed(&row).unwrap());
    }
    let start = Instant::now();
    for _ in 0..ticks {
        black_box(ready.step_tick_observed(&row).unwrap());
    }
    ticks as f64 / start.elapsed().as_secs_f64()
}

/// Steady-state ticks/second of the interpretive reference executor.
fn measure_reference(net: Network, ticks: usize) -> f64 {
    let mut ready = net.prepare_reference().unwrap();
    let row = [Message::present(Value::Int(1))];
    for _ in 0..ticks / 10 {
        black_box(ready.step_tick(&row).unwrap());
    }
    let start = Instant::now();
    for _ in 0..ticks {
        black_box(ready.step_tick(&row).unwrap());
    }
    ticks as f64 / start.elapsed().as_secs_f64()
}

struct ShapeResult {
    name: &'static str,
    ticks: usize,
    reference: f64,
    compiled: f64,
}

impl ShapeResult {
    fn speedup(&self) -> f64 {
        self.compiled / self.reference
    }
}

fn run_shape(name: &'static str, builder: fn() -> Network, ticks: usize) -> ShapeResult {
    // Interleave and take the best of three rounds per executor so one
    // scheduler hiccup cannot skew either side.
    let mut reference = 0.0f64;
    let mut compiled = 0.0f64;
    for _ in 0..3 {
        reference = reference.max(measure_reference(builder(), ticks));
        compiled = compiled.max(measure_compiled(builder(), ticks));
    }
    let r = ShapeResult {
        name,
        ticks,
        reference,
        compiled,
    };
    println!(
        "executor_throughput/{:<10} ref: {:>12.0} ticks/s   compiled: {:>12.0} ticks/s   speedup: {:.2}x",
        r.name,
        r.reference,
        r.compiled,
        r.speedup()
    );
    r
}

fn main() {
    // `AUTOMODE_BENCH_QUICK=1` shrinks the workload for CI smoke runs.
    let quick = automode_bench::quick_mode();
    let ticks = if quick { 4_000 } else { 20_000 };
    let results = [
        run_shape("deep", || build_deep(256), ticks),
        run_shape("wide", || build_wide(256), ticks),
        run_shape("multirate", || build_multirate(48), ticks),
    ];

    let mut json = String::from("{\n  \"bench\": \"executor_throughput\",\n  \"unit\": \"ticks_per_second\",\n  \"shapes\": {\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"ticks\": {}, \"reference\": {:.0}, \"compiled\": {:.0}, \"speedup\": {:.2} }}{}\n",
            r.name,
            r.ticks,
            r.reference,
            r.compiled,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    automode_bench::write_results("BENCH_executor.json", &json);
}
