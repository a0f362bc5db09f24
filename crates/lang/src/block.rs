//! Expression-defined kernel blocks.
//!
//! [`ExprBlock`] wraps a base-language expression as an executable
//! [`Block`]: this is the mechanism by which atomic DFD blocks are "defined
//! directly through an expression (function) in AutoMoDe's base language"
//! (paper, Sec. 3.2), and the way "adequate block libraries for
//! discrete-time computations" are populated.

use std::sync::Arc;

use automode_kernel::ops::{Block, ClockBehavior};
use automode_kernel::{KernelError, LaneKernel, Message, Tick};

use crate::ast::Expr;
use crate::bytecode::{LaneEval, Program, Scratch};
use crate::error::LangError;
use crate::parser::parse;

/// A stateless block whose single output is computed by a base-language
/// expression over named inputs.
///
/// ```
/// use automode_lang::ExprBlock;
/// use automode_kernel::ops::Block;
/// use automode_kernel::Message;
///
/// # fn main() -> Result<(), automode_lang::LangError> {
/// // The paper's ADD block: ch1+ch2+ch3, ports inferred from the expression.
/// let mut add = ExprBlock::parse("ADD", "ch1 + ch2 + ch3")?;
/// assert_eq!(add.input_arity(), 3);
/// let out = add
///     .step(0, &[Message::present(1i64), Message::present(2i64), Message::present(3i64)])
///     .unwrap();
/// assert_eq!(out[0], Message::present(6i64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExprBlock {
    // Shared, immutable fields: cloning an `ExprBlock` (per-lane replication
    // in batched execution, `ReadyNetwork::clone`) is a few refcount bumps —
    // no string, expression or bytecode copies. `scratch` is the only
    // per-instance state: reusable VM registers, empty until first use.
    name: Arc<str>,
    inputs: Arc<[String]>,
    expr: Arc<Expr>,
    program: Arc<Program>,
    scratch: Scratch,
}

impl ExprBlock {
    fn build(name: Arc<str>, inputs: Arc<[String]>, expr: Arc<Expr>) -> Self {
        let program = Arc::new(Program::compile(&expr, &inputs));
        ExprBlock {
            name,
            inputs,
            expr,
            program,
            scratch: Scratch::new(),
        }
    }

    /// Wraps an already-built expression; input ports are the expression's
    /// free identifiers in first-occurrence order.
    pub fn new(name: impl Into<String>, expr: Expr) -> Self {
        let inputs = expr.free_idents();
        ExprBlock::build(name.into().into(), inputs.into(), Arc::new(expr))
    }

    /// Wraps an expression with an explicit input-port order (ports not
    /// occurring in the expression are permitted and ignored).
    pub fn with_inputs(
        name: impl Into<String>,
        inputs: impl IntoIterator<Item = impl Into<String>>,
        expr: Expr,
    ) -> Self {
        ExprBlock::build(
            name.into().into(),
            inputs.into_iter().map(Into::into).collect(),
            Arc::new(expr),
        )
    }

    /// Parses the expression source and wraps it.
    ///
    /// # Errors
    ///
    /// Returns the parse error, if any.
    pub fn parse(name: impl Into<String>, src: &str) -> Result<Self, LangError> {
        Ok(ExprBlock::new(name, parse(src)?))
    }

    /// The wrapped expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The input port names, in order.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// The compiled bytecode program executing the expression.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

impl Block for ExprBlock {
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
        // Run the compiled bytecode over the input slice — ports are
        // pre-resolved to slot indices, registers are reused, and strict
        // expressions take value-mode or all-absent fast paths.
        out[0] = self
            .program
            .eval(inputs, &mut self.scratch)
            .map_err(|e| KernelError::Block {
                block: self.name.to_string(),
                message: e.to_string(),
            })?;
        Ok(())
    }

    fn needs_commit(&self) -> bool {
        false
    }

    fn clock_behavior(&self) -> ClockBehavior {
        // A strict program's output is provably absent (with no possible
        // error) whenever all its strict ports are absent — exactly the
        // `StrictAll` contract the clock-gated scheduler needs. Non-strict
        // programs (observing absence via `present`/`?`/`if`) stay opaque.
        match self.program.strict_ports() {
            Some(ports) if !ports.is_empty() => {
                ClockBehavior::StrictAll(ports.iter().map(|&p| p as usize).collect())
            }
            _ => ClockBehavior::Opaque,
        }
    }

    fn clone_block(&self) -> Box<dyn Block + Send + Sync> {
        Box::new(self.clone())
    }

    fn lane_kernel(&self, k: usize) -> Option<Box<dyn LaneKernel>> {
        // Every program gets the column interpreter stepping all K lanes
        // per instruction; control flow (`if`, `?`, builtin calls) runs
        // under per-instruction lane masks.
        Some(Box::new(LaneEval::new(
            Arc::clone(&self.program),
            Arc::clone(&self.name),
            k,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automode_kernel::network::{stimulus_from_streams, Network};
    use automode_kernel::{Stream, Value};

    #[test]
    fn expr_block_in_a_network() {
        let mut net = Network::new("ctrl");
        let v = net.add_input("v");
        let blk = net.add_block(ExprBlock::parse("sat", "clamp(v, 0.0, 1.0)").unwrap());
        net.connect_input(v, blk.input(0)).unwrap();
        net.expose_output("out", blk.output(0)).unwrap();
        let stim = stimulus_from_streams(&[Stream::from_values([
            Value::Float(-0.5),
            Value::Float(0.25),
            Value::Float(2.0),
        ])]);
        let trace = net.run(&stim).unwrap();
        assert_eq!(
            trace.signal("out").unwrap().present_values(),
            vec![Value::Float(0.0), Value::Float(0.25), Value::Float(1.0)]
        );
    }

    #[test]
    fn explicit_input_order() {
        let expr = parse("b - a").unwrap();
        let mut blk = ExprBlock::with_inputs("sub", ["a", "b"], expr);
        let out = blk
            .step(0, &[Message::present(1i64), Message::present(10i64)])
            .unwrap();
        assert_eq!(out[0], Message::present(9i64));
    }

    #[test]
    fn runtime_error_is_wrapped_with_block_name() {
        let mut blk = ExprBlock::parse("div", "a / b").unwrap();
        let err = blk
            .step(0, &[Message::present(1i64), Message::present(0i64)])
            .unwrap_err();
        match err {
            KernelError::Block { block, .. } => assert_eq!(block, "div"),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn absence_propagates_through_expr_blocks() {
        let mut blk = ExprBlock::parse("add", "a + b").unwrap();
        let out = blk
            .step(0, &[Message::present(1i64), Message::Absent])
            .unwrap();
        assert!(out[0].is_absent());
    }

    #[test]
    fn event_triggered_block_reacts_to_absence() {
        // The paper: event-triggered behaviour is modelled by reacting to
        // presence/absence explicitly.
        let mut blk = ExprBlock::parse("evt", "if present(req) then req else 0").unwrap();
        let out = blk.step(0, &[Message::Absent]).unwrap();
        assert_eq!(out[0], Message::present(0i64));
        let out = blk.step(1, &[Message::present(5i64)]).unwrap();
        assert_eq!(out[0], Message::present(5i64));
    }
}
