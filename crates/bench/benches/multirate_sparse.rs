//! Clock-gated scheduling and expression-bytecode throughput.
//!
//! Two scenarios, each measuring steady-state ticks/second of the compiled
//! executor:
//!
//! * `multirate_sparse` — a small always-active base subsystem plus two
//!   large sampled subsystems clocked at 1/10 and 1/100 of the base rate.
//!   Compares the clock-gated execution plan (per-phase node lists skip
//!   provably-inert nodes) against the same prepared network with gating
//!   disabled. The slow chains dominate the node count, so gating should
//!   approach the sparsity ratio.
//! * `expr_heavy` — 64 expression blocks with ~25-node arithmetic
//!   expressions. Compares the bytecode-VM `ExprBlock` against a
//!   bench-local block that interprets the same AST through `SliceScope`
//!   name resolution per tick (the pre-VM execution path).
//!
//! Writes `BENCH_clock.json` at the repository root
//! (under `target/bench-quick/` in quick mode).
//! `AUTOMODE_BENCH_QUICK=1` shrinks the workload for CI smoke runs;
//! `AUTOMODE_BENCH_ENFORCE=1` exits nonzero if gating yields < 2x on
//! `multirate_sparse`.

use std::sync::Arc;
use std::time::Instant;

use automode_kernel::network::Network;
use automode_kernel::ops::{BinOp, Block, Const, Delay, EveryClockGen, Lift1, Lift2, UnOp, When};
use automode_kernel::{Clock, KernelError, Message, Tick, Value};
use automode_lang::{parse, Expr, ExprBlock, SliceScope};
use criterion::black_box;

/// One sampled subsystem: `when(every(period))` feeding a strict `Lift1`
/// chain of `depth` nodes, closed by a clocked `Delay` probe. Inactive at
/// `period - 1` of every `period` ticks — exactly what the gated plan
/// should skip.
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

/// Base-rate accumulator subsystem (~16 always-active nodes) plus sampled
/// chains at 1/10 (60 nodes) and 1/100 (60 nodes) of the base rate:
/// roughly 140 nodes, of which ~6.6 are live on an average tick.
fn build_sparse() -> Network {
    let mut net = Network::new("multirate_sparse");
    let input = net.add_input("u");
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

    add_sampled_chain(&mut net, input, "p10", 10, 57);
    add_sampled_chain(&mut net, input, "p100", 100, 57);
    net
}

/// The pre-VM `ExprBlock` execution path, reproduced verbatim: per tick,
/// walk the AST with `SliceScope` resolving port names by linear scan.
#[derive(Debug, Clone)]
struct AstExprBlock {
    name: Arc<str>,
    inputs: Arc<[String]>,
    expr: Arc<Expr>,
}

impl AstExprBlock {
    fn new(name: &str, inputs: &[&str], expr: Expr) -> Self {
        AstExprBlock {
            name: name.into(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            expr: Arc::new(expr),
        }
    }
}

impl Block for AstExprBlock {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        self.inputs.len()
    }
    fn output_arity(&self) -> usize {
        1
    }
    fn step(&mut self, t: Tick, inputs: &[Message]) -> Result<Vec<Message>, KernelError> {
        let mut out = vec![Message::Absent; 1];
        self.step_into(t, inputs, &mut out)?;
        Ok(out)
    }
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        let scope = SliceScope::new(&self.inputs, inputs);
        out[0] = self.expr.eval_in(&scope).map_err(|e| KernelError::Block {
            block: self.name.to_string(),
            message: e.to_string(),
        })?;
        Ok(())
    }
    fn needs_commit(&self) -> bool {
        false
    }
    fn clone_block(&self) -> Box<dyn Block + Send + Sync> {
        Box::new(self.clone())
    }
}

const EXPR_SRC: &str =
    "clamp(a * b + b * c + a * c, a + b, a * b + 100) + abs(a - b) + min(a * c, b * c) + max(a + c, b + 10)";

/// 64 expression blocks over three shared inputs; `vm` selects the
/// bytecode-compiled `ExprBlock` or the AST-interpreting baseline.
fn build_expr_heavy(vm: bool) -> Network {
    let mut net = Network::new("expr_heavy");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let c = net.add_input("c");
    let expr = parse(EXPR_SRC).unwrap();
    for i in 0..64 {
        let h = if vm {
            net.add_block(ExprBlock::with_inputs(
                format!("vm{i}"),
                ["a", "b", "c"],
                expr.clone(),
            ))
        } else {
            net.add_block(AstExprBlock::new(
                &format!("ast{i}"),
                &["a", "b", "c"],
                expr.clone(),
            ))
        };
        net.connect_input(a, h.input(0)).unwrap();
        net.connect_input(b, h.input(1)).unwrap();
        net.connect_input(c, h.input(2)).unwrap();
        if i % 16 == 0 {
            net.expose_output(format!("y{i}"), h.output(0)).unwrap();
        }
    }
    net
}

/// Steady-state ticks/second of a prepared network over `row`.
fn measure(mut ready: automode_kernel::ReadyNetwork, row: &[Message], ticks: usize) -> f64 {
    for _ in 0..ticks / 10 {
        black_box(ready.step_tick_observed(row).unwrap());
    }
    let start = Instant::now();
    for _ in 0..ticks {
        black_box(ready.step_tick_observed(row).unwrap());
    }
    ticks as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = automode_bench::quick_mode();
    let ticks = if quick { 4_000 } else { 20_000 };

    // Interleave and take the best of three rounds per variant so one
    // scheduler hiccup cannot skew either side.
    let sparse_row = [Message::present(Value::Int(1))];
    let mut gated = 0.0f64;
    let mut ungated = 0.0f64;
    for _ in 0..3 {
        let ready = build_sparse().prepare().unwrap();
        assert_eq!(ready.gated_hyperperiod(), Some(100), "plan must compile");
        gated = gated.max(measure(ready, &sparse_row, ticks));
        let mut plain = build_sparse().prepare().unwrap();
        plain.disable_clock_gating();
        ungated = ungated.max(measure(plain, &sparse_row, ticks));
    }
    let sparse_speedup = gated / ungated;
    println!(
        "multirate_sparse/gating     ungated: {ungated:>12.0} ticks/s   gated: {gated:>12.0} ticks/s   speedup: {sparse_speedup:.2}x"
    );

    let expr_row = [
        Message::present(Value::Int(7)),
        Message::present(Value::Int(-3)),
        Message::present(Value::Int(11)),
    ];
    let mut bytecode = 0.0f64;
    let mut ast = 0.0f64;
    for _ in 0..3 {
        bytecode = bytecode.max(measure(
            build_expr_heavy(true).prepare().unwrap(),
            &expr_row,
            ticks,
        ));
        ast = ast.max(measure(
            build_expr_heavy(false).prepare().unwrap(),
            &expr_row,
            ticks,
        ));
    }
    let expr_speedup = bytecode / ast;
    println!(
        "expr_heavy/bytecode         ast:     {ast:>12.0} ticks/s   vm:    {bytecode:>12.0} ticks/s   speedup: {expr_speedup:.2}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"multirate_sparse\",\n  \"unit\": \"ticks_per_second\",\n  \"scenarios\": {{\n    \"multirate_sparse\": {{ \"ticks\": {ticks}, \"ungated\": {ungated:.0}, \"gated\": {gated:.0}, \"speedup\": {sparse_speedup:.2} }},\n    \"expr_heavy\": {{ \"ticks\": {ticks}, \"ast\": {ast:.0}, \"bytecode\": {bytecode:.0}, \"speedup\": {expr_speedup:.2} }}\n  }}\n}}\n"
    );
    automode_bench::write_results("BENCH_clock.json", &json);

    if std::env::var("AUTOMODE_BENCH_ENFORCE").is_ok_and(|v| v == "1") {
        if sparse_speedup < 2.0 {
            eprintln!("FAIL: clock-gating speedup is {sparse_speedup:.2}x (< 2x gate)");
            std::process::exit(1);
        }
        println!("gate: clock-gating speedup is {sparse_speedup:.2}x (>= 2x)");
    }
}
