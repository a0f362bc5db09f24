//! Steady-state tick throughput of the compiled executor vs the
//! interpretive reference, over three network shapes:
//!
//! * `deep` — a long instantaneous adder pipeline (levels of width 1),
//! * `wide` — many independent adders in one level,
//! * `multirate` — when/delay/current chains on mixed clocks.
//!
//! Writes `BENCH_executor.json` at the repository root (under
//! `target/bench-quick/` in quick mode): ticks per second of both
//! executors and the speedup per shape (acceptance gate: >= 2x on
//! `deep`).

use std::hint::black_box;

use automode_bench::{time_arms, Arm, Results};
use automode_kernel::network::Network;
use automode_kernel::ops::{BinOp, Const, Current, Delay, EveryClockGen, Lift2, When};
use automode_kernel::{Message, Value};

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

fn main() {
    // `AUTOMODE_BENCH_QUICK=1` shrinks the workload for CI smoke runs.
    let ticks = if automode_bench::quick_mode() {
        4_000
    } else {
        20_000
    };
    let row = [Message::present(Value::Int(1))];
    let mut results = Results::new("executor_throughput", "ticks_per_second");
    for (shape, build) in [
        ("deep", (|| build_deep(256)) as fn() -> Network),
        ("wide", || build_wide(256)),
        ("multirate", || build_multirate(48)),
    ] {
        // Each round prepares the network afresh, untimed.
        results.scenario(
            shape,
            time_arms(vec![
                Arm::new(
                    "reference",
                    ticks as f64,
                    || build().prepare_reference().unwrap(),
                    |ready| {
                        for _ in 0..ticks {
                            black_box(ready.step_tick(&row).unwrap());
                        }
                    },
                ),
                Arm::new(
                    "compiled",
                    ticks as f64,
                    || build().prepare().unwrap(),
                    |ready| {
                        for _ in 0..ticks {
                            black_box(ready.step_tick_observed(&row).unwrap());
                        }
                    },
                ),
            ]),
        );
        let speedup = results.ratio("compiled", "reference");
        if shape == "deep" {
            results.gate_at_least("deep", speedup, 2.0);
        }
    }
    results.data(format!(r#"{{"ticks":{ticks}}}"#));
    automode_bench::write_results("BENCH_executor.json", results);
}
