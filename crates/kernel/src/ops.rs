//! Executable blocks: the operator library of the operational model.
//!
//! Atomic computations are [`Block`]s. The library covers the operators named
//! by the paper — `when` ([`When`]), `delay` ([`Delay`], [`UnitDelay`]) — plus
//! the lifted arithmetic/logic needed to express DFD block libraries
//! ("adequate block libraries for discrete-time computations", Sec. 3.2).
//!
//! ## Instantaneity
//!
//! A block declares which of its inputs it reads *instantaneously* (in the
//! same tick). The network's causality check only considers instantaneous
//! reads; delayed reads (e.g. the data input of [`UnitDelay`]) break
//! feedback loops, exactly like SSD channels do in the paper.

use std::fmt;

use crate::error::KernelError;
use crate::lanes::{
    AddNLanes, ConstLanes, CopyLanes, CurrentLanes, DelayLanes, EveryLanes, LaneKernel, Lift1Lanes,
    Lift2Lanes, MergeLanes, SelectLanes, UnitDelayLanes, WhenLanes,
};
use crate::value::{Message, Value};
use crate::{Clock, Tick};

/// Static clock structure a block exposes to the plan compiler.
///
/// [`Network::prepare`](crate::network::Network::prepare) uses these
/// declarations to build clock-gated execution plans: per hyperperiod phase
/// it derives which nodes are provably inert and skips them — step, commit
/// and slot resolution — entirely. Every variant is a *contract*; a block
/// must only claim one whose conditions it meets, because the executor will
/// not call the block at ticks the contract marks inert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClockBehavior {
    /// No static information; the node runs at every tick (the default).
    Opaque,
    /// The block is driven by a statically known clock: at every *inactive*
    /// tick of the clock it is inert — all outputs absent, no state change
    /// in either [`Block::step`] or [`Block::commit`], and no error.
    Declared(Clock),
    /// The single output is an always-present Boolean carrying `true`
    /// exactly at the clock's active ticks (an `every(n, true)` generator).
    /// The node itself is never skipped, but a [`ClockBehavior::Sampler`]
    /// whose condition port it feeds inherits the clock.
    BoolGate(Clock),
    /// Strict element-wise operator: whenever **any** of the listed input
    /// ports carries an absent message, the block is inert — all outputs
    /// absent, no state change, and *no possibility of error* (the operator
    /// is never applied to a partially absent tuple). Listed ports must be
    /// read instantaneously and the block must be commit-free.
    StrictEach(Vec<usize>),
    /// Jointly strict operator: the block is inert — absent outputs, no
    /// state change, no error — whenever **all** of the listed input ports
    /// are absent simultaneously. This is the sound contract for expression
    /// trees whose inner operators may fire (and fail) while only a subset
    /// of inputs is absent. Listed ports must be read instantaneously and
    /// the block must be commit-free.
    StrictAll(Vec<usize>),
    /// `when`-style sampling: [`ClockBehavior::StrictEach`] over all inputs,
    /// and additionally gated by the Boolean condition port — when that port
    /// is fed by a [`ClockBehavior::BoolGate`], the node is also inert at
    /// every tick the gate carries `false`.
    Sampler {
        /// The condition input port index.
        cond: usize,
    },
    /// The single output reproduces instantaneous input 0 exactly (an
    /// identity wire): presence, value, and any Boolean gate stream flow
    /// through unchanged. The block must be stateless and commit-free.
    Passthrough,
}

impl ClockBehavior {
    /// [`ClockBehavior::StrictEach`] over every port of an `arity`-input
    /// block — the common case for lifted operators.
    pub fn strict_each(arity: usize) -> Self {
        ClockBehavior::StrictEach((0..arity).collect())
    }
}

/// An executable block: the atomic unit of behaviour in a network.
///
/// Execution happens in two phases per global tick:
///
/// 1. [`Block::step`] computes the tick's outputs. Only inputs the block
///    reads instantaneously are guaranteed to carry this tick's messages;
///    delayed inputs are passed as [`Message::Absent`].
/// 2. [`Block::commit`] runs after *all* blocks stepped and sees every
///    input's final message for the tick; state for the next tick is
///    captured here.
pub trait Block: fmt::Debug {
    /// Display name used in diagnostics and causality reports.
    fn name(&self) -> &str;

    /// Number of input ports.
    fn input_arity(&self) -> usize;

    /// Number of output ports.
    fn output_arity(&self) -> usize;

    /// Whether input `i` is read instantaneously in [`Block::step`].
    ///
    /// Defaults to `true` for every input; override to break feedback loops.
    fn input_is_instantaneous(&self, _i: usize) -> bool {
        true
    }

    /// Produces this tick's outputs.
    ///
    /// # Errors
    ///
    /// Implementations report type errors, overflow, or domain errors.
    fn step(&mut self, t: Tick, inputs: &[Message]) -> Result<Vec<Message>, KernelError>;

    /// Writes this tick's outputs into `out` (length [`Block::output_arity`]).
    ///
    /// The compiled executor calls this instead of [`Block::step`] so that
    /// steady-state ticks allocate nothing. The default delegates to `step`;
    /// the library blocks override it with in-place implementations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Block::step`].
    fn step_into(
        &mut self,
        t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        let produced = self.step(t, inputs)?;
        debug_assert_eq!(produced.len(), out.len());
        for (slot, msg) in out.iter_mut().zip(produced) {
            *slot = msg;
        }
        Ok(())
    }

    /// Observes the tick's final input messages (state update hook).
    fn commit(&mut self, _t: Tick, _inputs: &[Message]) {}

    /// Whether [`Block::commit`] must be invoked every tick.
    ///
    /// The compiled executor skips the phase-2 input re-gather entirely for
    /// blocks that return `false`, which removes roughly half the per-tick
    /// slot resolutions in commit-free networks. Defaults to `true` (always
    /// safe); blocks whose `commit` is a no-op override this to `false`.
    fn needs_commit(&self) -> bool {
        true
    }

    /// The block's static clock structure (see [`ClockBehavior`]).
    ///
    /// Defaults to [`ClockBehavior::Opaque`] (always safe). Blocks that
    /// override this promise the corresponding contract; the compiled
    /// executor skips them at ticks the contract proves inert.
    fn clock_behavior(&self) -> ClockBehavior {
        ClockBehavior::Opaque
    }

    /// Resets internal state to the initial configuration.
    fn reset(&mut self) {}

    /// Deep-copies the block, including its current internal state.
    ///
    /// Batched execution replicates every block once per scenario lane
    /// through this hook, so each lane owns independent state. Blocks that
    /// derive [`Clone`] can return `Box::new(self.clone())`.
    fn clone_block(&self) -> Box<dyn Block + Send + Sync>;

    /// An optional lane-batched kernel stepping all `k` scenario lanes in
    /// one call over typed columns (see [`crate::lanes`]).
    ///
    /// The returned kernel must start from the block's **freshly reset**
    /// state and replicate the per-lane `step_into`/`commit` semantics
    /// exactly — see the [`LaneKernel`] contract. Only single-output
    /// blocks may be vectorized; the batch executor ignores kernels on
    /// multi-output blocks. Defaults to `None` (the executor falls back to
    /// per-lane replicas via [`Block::clone_block`]).
    ///
    /// A block that also exposes a [`Block::coverage_space`] must override
    /// [`LaneKernel::coverage_state`] in its kernel: covered batches read
    /// each lane's discrete state from the kernel, not from a replica.
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        None
    }

    /// Why [`Block::lane_kernel`] returns `None`, for lane-plan
    /// explanations ([`ReadyNetwork::lane_plan`]); only consulted when it
    /// does. Defaults to [`ReplicaReason::NoLaneKernel`].
    ///
    /// [`ReadyNetwork::lane_plan`]: crate::network::ReadyNetwork::lane_plan
    /// [`ReplicaReason::NoLaneKernel`]: crate::network::ReplicaReason::NoLaneKernel
    fn lane_refusal(&self) -> crate::network::ReplicaReason {
        crate::network::ReplicaReason::NoLaneKernel
    }

    /// The discrete state space this block exposes for coverage
    /// observation, or `None` for stateless / continuous-state blocks.
    ///
    /// Called once per compiled plan when a covered run is requested;
    /// blocks that return `Some` must keep [`Block::coverage_state`] in the
    /// declared range at all times. Defaults to `None`.
    ///
    /// If the block also offers a [`Block::lane_kernel`], that kernel must
    /// override [`LaneKernel::coverage_state`] with the same per-lane
    /// answer, since covered batches step the block on its kernel.
    fn coverage_space(&self) -> Option<crate::coverage::CoverageSpace> {
        None
    }

    /// The current state index within [`Block::coverage_space`].
    ///
    /// Called once per stepped tick per lane on covered runs — must not
    /// allocate. Only meaningful when `coverage_space` returns `Some`.
    fn coverage_state(&self) -> usize {
        0
    }
}

/// Implements [`Block::step`] by delegating to [`Block::step_into`] — for
/// blocks whose primary implementation is the in-place variant.
macro_rules! step_via_into {
    () => {
        fn step(&mut self, t: Tick, inputs: &[Message]) -> Result<Vec<Message>, KernelError> {
            let mut out = vec![Message::Absent; self.output_arity()];
            self.step_into(t, inputs, &mut out)?;
            Ok(out)
        }
    };
}

/// Implements [`Block::clone_block`] via [`Clone`].
macro_rules! clone_block_via_clone {
    () => {
        fn clone_block(&self) -> Box<dyn Block + Send + Sync> {
            Box::new(self.clone())
        }
    };
}

/// Declares that this block's [`Block::commit`] is a no-op the executor may
/// skip.
macro_rules! commit_free {
    () => {
        fn needs_commit(&self) -> bool {
            false
        }
    };
}

// ---------------------------------------------------------------------------
// Value arithmetic shared by lifted blocks and the expression language.
// ---------------------------------------------------------------------------

/// Binary operators available to lifted blocks and the base language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (float semantics for floats, truncating for ints).
    Div,
    /// Remainder.
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Boolean negation.
    Not,
    /// Absolute value.
    Abs,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "-",
            UnOp::Not => "not",
            UnOp::Abs => "abs",
        };
        f.write_str(s)
    }
}

fn type_error(ctx: &str, expected: &'static str, v: &Value) -> KernelError {
    KernelError::TypeMismatch {
        block: ctx.to_string(),
        expected,
        found: format!("{} `{v}`", v.type_name()),
    }
}

/// Applies a binary operator to two values with numeric promotion
/// (`Int` is promoted to `Float`/`Fixed` when mixed; `Fixed` mixed with
/// `Float` promotes to `Float`).
///
/// # Errors
///
/// Returns a [`KernelError`] on type mismatch, overflow, or division by zero.
pub fn apply_binop(ctx: &str, op: BinOp, a: &Value, b: &Value) -> Result<Value, KernelError> {
    use Value::*;
    match op {
        BinOp::And | BinOp::Or => {
            let (x, y) = match (a, b) {
                (Bool(x), Bool(y)) => (*x, *y),
                (Bool(_), v) | (v, _) => return Err(type_error(ctx, "bool", v)),
            };
            Ok(Bool(if op == BinOp::And { x && y } else { x || y }))
        }
        BinOp::Eq => Ok(Bool(values_equal(a, b))),
        BinOp::Ne => Ok(Bool(!values_equal(a, b))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (x, y) = numeric_pair(ctx, a, b)?;
            let r = match op {
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                _ => x >= y,
            };
            Ok(Bool(r))
        }
        BinOp::Add
        | BinOp::Sub
        | BinOp::Mul
        | BinOp::Div
        | BinOp::Rem
        | BinOp::Min
        | BinOp::Max => arith(ctx, op, a, b),
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a.as_numeric(), b.as_numeric()) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

fn numeric_pair(ctx: &str, a: &Value, b: &Value) -> Result<(f64, f64), KernelError> {
    let x = a.as_numeric().ok_or_else(|| type_error(ctx, "number", a))?;
    let y = b.as_numeric().ok_or_else(|| type_error(ctx, "number", b))?;
    Ok((x, y))
}

fn arith(ctx: &str, op: BinOp, a: &Value, b: &Value) -> Result<Value, KernelError> {
    use Value::*;
    match (a, b) {
        (Int(x), Int(y)) => {
            let r = match op {
                BinOp::Add => x.checked_add(*y).ok_or(KernelError::Overflow("int add"))?,
                BinOp::Sub => x.checked_sub(*y).ok_or(KernelError::Overflow("int sub"))?,
                BinOp::Mul => x.checked_mul(*y).ok_or(KernelError::Overflow("int mul"))?,
                BinOp::Div => {
                    if *y == 0 {
                        return Err(KernelError::DivisionByZero { block: ctx.into() });
                    }
                    x / y
                }
                BinOp::Rem => {
                    if *y == 0 {
                        return Err(KernelError::DivisionByZero { block: ctx.into() });
                    }
                    x % y
                }
                BinOp::Min => *x.min(y),
                BinOp::Max => *x.max(y),
                _ => unreachable!(),
            };
            Ok(Int(r))
        }
        (Fixed(x), Fixed(y)) => {
            let r = match op {
                BinOp::Add => x.checked_add(*y)?,
                BinOp::Sub => x.checked_sub(*y)?,
                BinOp::Mul => x.checked_mul(*y)?,
                BinOp::Div => {
                    if y.raw() == 0 {
                        return Err(KernelError::DivisionByZero { block: ctx.into() });
                    }
                    crate::value::Fixed::from_f64(x.to_f64() / y.to_f64(), x.frac_bits())
                }
                BinOp::Rem => crate::value::Fixed::from_f64(x.to_f64() % y.to_f64(), x.frac_bits()),
                BinOp::Min => *x.min(y),
                BinOp::Max => *x.max(y),
                _ => unreachable!(),
            };
            Ok(Fixed(r))
        }
        (Fixed(x), Int(y)) => arith(
            ctx,
            op,
            &Fixed(*x),
            &Fixed(crate::value::Fixed::from_f64(*y as f64, x.frac_bits())),
        ),
        (Int(x), Fixed(y)) => arith(
            ctx,
            op,
            &Fixed(crate::value::Fixed::from_f64(*x as f64, y.frac_bits())),
            &Fixed(*y),
        ),
        _ => {
            let (x, y) = numeric_pair(ctx, a, b)?;
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return Err(KernelError::DivisionByZero { block: ctx.into() });
                    }
                    x / y
                }
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => unreachable!(),
            };
            Ok(Float(r))
        }
    }
}

/// Applies a unary operator.
///
/// # Errors
///
/// Returns a [`KernelError`] on type mismatch or overflow.
pub fn apply_unop(ctx: &str, op: UnOp, v: &Value) -> Result<Value, KernelError> {
    use Value::*;
    match (op, v) {
        (UnOp::Not, Bool(b)) => Ok(Bool(!b)),
        (UnOp::Not, v) => Err(type_error(ctx, "bool", v)),
        (UnOp::Neg, Int(i)) => i
            .checked_neg()
            .map(Int)
            .ok_or(KernelError::Overflow("int neg")),
        (UnOp::Neg, Float(x)) => Ok(Float(-x)),
        (UnOp::Neg, Fixed(q)) => Ok(Fixed(crate::value::Fixed::from_raw(
            -q.raw(),
            q.frac_bits(),
        ))),
        (UnOp::Abs, Int(i)) => i
            .checked_abs()
            .map(Int)
            .ok_or(KernelError::Overflow("int abs")),
        (UnOp::Abs, Float(x)) => Ok(Float(x.abs())),
        (UnOp::Abs, Fixed(q)) => Ok(Fixed(crate::value::Fixed::from_raw(
            q.raw().abs(),
            q.frac_bits(),
        ))),
        (_, v) => Err(type_error(ctx, "number", v)),
    }
}

// ---------------------------------------------------------------------------
// Source blocks
// ---------------------------------------------------------------------------

/// Emits a constant value on a clock (absent off-clock).
#[derive(Debug, Clone)]
pub struct Const {
    name: String,
    value: Value,
    clock: Clock,
}

impl Const {
    /// A constant on the base clock.
    pub fn new(value: impl Into<Value>) -> Self {
        Const::on_clock(value, Clock::base())
    }

    /// A constant emitted only at the clock's active ticks.
    pub fn on_clock(value: impl Into<Value>, clock: Clock) -> Self {
        let value = value.into();
        Const {
            name: format!("const({value})"),
            value,
            clock,
        }
    }
}

impl Block for Const {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        0
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn clock_behavior(&self) -> ClockBehavior {
        ClockBehavior::Declared(self.clock.clone())
    }
    fn step_into(
        &mut self,
        t: Tick,
        _inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        out[0] = if self.clock.is_active(t) {
            Message::Present(self.value.clone())
        } else {
            Message::Absent
        };
        Ok(())
    }
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(ConstLanes::new(&self.value, self.clock.clone())))
    }
}

/// Generates the Boolean stream of `every(n, true)`: always present,
/// carrying `true` at each active tick of the clock and `false` otherwise —
/// the condition input for a [`When`] as in the paper's Fig. 2.
#[derive(Debug, Clone)]
pub struct EveryClockGen {
    name: String,
    clock: Clock,
}

impl EveryClockGen {
    /// `every(n, true)` with phase offset.
    pub fn new(n: u32, phase: u32) -> Self {
        EveryClockGen {
            name: format!("every({n},true)"),
            clock: Clock::every(n, phase),
        }
    }
}

impl Block for EveryClockGen {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        0
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn clock_behavior(&self) -> ClockBehavior {
        ClockBehavior::BoolGate(self.clock.clone())
    }
    fn step_into(
        &mut self,
        t: Tick,
        _inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        out[0] = Message::Present(Value::Bool(self.clock.is_active(t)));
        Ok(())
    }
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(EveryLanes::new(self.clock.clone())))
    }
}

// ---------------------------------------------------------------------------
// Sampling operators
// ---------------------------------------------------------------------------

/// The `when` operator: samples input 0 at ticks where input 1 carries a
/// present `true`; absent otherwise (paper, Fig. 2).
#[derive(Debug, Clone, Default)]
pub struct When;

impl When {
    /// Creates a `when` operator.
    pub fn new() -> Self {
        When
    }
}

impl Block for When {
    fn name(&self) -> &str {
        "when"
    }
    fn input_arity(&self) -> usize {
        2
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn clock_behavior(&self) -> ClockBehavior {
        ClockBehavior::Sampler { cond: 1 }
    }
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        let pass = inputs[1].value().and_then(Value::as_bool) == Some(true);
        out[0] = if pass {
            inputs[0].clone()
        } else {
            Message::Absent
        };
        Ok(())
    }
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(WhenLanes))
    }
}

/// The `delay` operator on a statically known clock: at each active tick it
/// emits the value of the previous active tick (`init` at the first).
///
/// The data input is read *delayed*, so a `Delay` breaks instantaneous
/// loops — this is what makes a CCD slow-to-fast rate transition well-defined
/// on an OSEK target (paper, Sec. 3.3).
#[derive(Debug, Clone)]
pub struct Delay {
    name: String,
    init: Option<Value>,
    clock: Clock,
    held: Option<Value>,
    seeded: Option<Value>,
}

impl Delay {
    /// A delay on the base clock, emitting `init` at tick 0.
    pub fn new(init: impl Into<Value>) -> Self {
        Delay::on_clock(Some(init.into()), Clock::base())
    }

    /// A delay on `clock`. With `init == None` the first active tick is
    /// absent instead of carrying an initial value.
    pub fn on_clock(init: Option<Value>, clock: Clock) -> Self {
        let seeded = init.clone();
        Delay {
            name: "delay".to_string(),
            init,
            clock,
            held: seeded.clone(),
            seeded,
        }
    }
}

impl Block for Delay {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        1
    }
    fn output_arity(&self) -> usize {
        1
    }
    fn input_is_instantaneous(&self, _i: usize) -> bool {
        false
    }
    step_via_into!();
    clone_block_via_clone!();
    fn clock_behavior(&self) -> ClockBehavior {
        // At inactive ticks both `step` and `commit` are no-ops, so the
        // executor may skip the node (including its commit) entirely.
        ClockBehavior::Declared(self.clock.clone())
    }
    fn step_into(
        &mut self,
        t: Tick,
        _inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        out[0] = if self.clock.is_active(t) {
            self.held.clone().into()
        } else {
            Message::Absent
        };
        Ok(())
    }
    fn commit(&mut self, t: Tick, inputs: &[Message]) {
        if self.clock.is_active(t) {
            if let Message::Present(v) = &inputs[0] {
                self.held = Some(v.clone());
            }
        }
    }
    fn reset(&mut self) {
        self.held = self.seeded.clone();
        let _ = &self.init;
    }
    fn lane_kernel(&self, k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(DelayLanes::new(
            self.seeded.as_ref(),
            self.clock.clone(),
            k,
        )))
    }
}

/// A strict one-tick delay on the global base clock: `out(t) = in(t-1)`,
/// `out(0) = init`. This is the semantics of an SSD channel: "each SSD-level
/// channel introduces a message delay" (paper, Sec. 3.1). Absences are
/// delayed like values.
#[derive(Debug, Clone)]
pub struct UnitDelay {
    init: Message,
    held: Message,
}

impl UnitDelay {
    /// A unit delay whose tick-0 output is `init` (often absent).
    pub fn new(init: Message) -> Self {
        UnitDelay {
            held: init.clone(),
            init,
        }
    }
}

impl Block for UnitDelay {
    fn name(&self) -> &str {
        "z^-1"
    }
    fn input_arity(&self) -> usize {
        1
    }
    fn output_arity(&self) -> usize {
        1
    }
    fn input_is_instantaneous(&self, _i: usize) -> bool {
        false
    }
    step_via_into!();
    clone_block_via_clone!();
    fn step_into(
        &mut self,
        _t: Tick,
        _inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        out[0] = self.held.clone();
        Ok(())
    }
    fn commit(&mut self, _t: Tick, inputs: &[Message]) {
        self.held = inputs[0].clone();
    }
    fn reset(&mut self) {
        self.held = self.init.clone();
    }
    fn lane_kernel(&self, k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(UnitDelayLanes::new(&self.init, k)))
    }
}

/// Up-samples onto the base clock by holding the most recent present value
/// (`init` before the first message) — the `current` operator of the
/// synchronous tradition.
#[derive(Debug, Clone)]
pub struct Current {
    init: Value,
    held: Value,
}

impl Current {
    /// Creates a `current` operator with an initial hold value.
    pub fn new(init: impl Into<Value>) -> Self {
        let init = init.into();
        Current {
            held: init.clone(),
            init,
        }
    }
}

impl Block for Current {
    fn name(&self) -> &str {
        "current"
    }
    fn input_arity(&self) -> usize {
        1
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        if let Message::Present(v) = &inputs[0] {
            self.held = v.clone();
        }
        out[0] = Message::Present(self.held.clone());
        Ok(())
    }
    fn reset(&mut self) {
        self.held = self.init.clone();
    }
    fn lane_kernel(&self, k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(CurrentLanes::new(&self.init, k)))
    }
}

// ---------------------------------------------------------------------------
// Lifted computation blocks
// ---------------------------------------------------------------------------

/// A binary operator lifted pointwise over messages.
///
/// Output is present iff **both** inputs are present (strict clocked
/// semantics); a single absent input yields absence.
#[derive(Debug, Clone)]
pub struct Lift2 {
    name: String,
    op: BinOp,
}

impl Lift2 {
    /// Lifts `op` to a 2-input block.
    pub fn new(op: BinOp) -> Self {
        Lift2 {
            name: format!("lift({op})"),
            op,
        }
    }
}

impl Block for Lift2 {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        2
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn clock_behavior(&self) -> ClockBehavior {
        ClockBehavior::strict_each(2)
    }
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        out[0] = match (inputs[0].value(), inputs[1].value()) {
            (Some(a), Some(b)) => Message::Present(apply_binop(&self.name, self.op, a, b)?),
            _ => Message::Absent,
        };
        Ok(())
    }
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(Lift2Lanes::new(self.name.clone(), self.op)))
    }
}

/// A unary operator lifted pointwise over messages.
#[derive(Debug, Clone)]
pub struct Lift1 {
    name: String,
    op: UnOp,
}

impl Lift1 {
    /// Lifts `op` to a 1-input block.
    pub fn new(op: UnOp) -> Self {
        Lift1 {
            name: format!("lift({op})"),
            op,
        }
    }
}

impl Block for Lift1 {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        1
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn clock_behavior(&self) -> ClockBehavior {
        ClockBehavior::strict_each(1)
    }
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        out[0] = match inputs[0].value() {
            Some(v) => Message::Present(apply_unop(&self.name, self.op, v)?),
            None => Message::Absent,
        };
        Ok(())
    }
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(Lift1Lanes::new(self.name.clone(), self.op)))
    }
}

/// N-ary addition, e.g. the paper's `ADD` block defined by `ch1+ch2+ch3`.
#[derive(Debug, Clone)]
pub struct AddN {
    arity: usize,
}

impl AddN {
    /// An adder over `arity` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `arity == 0`.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "adder needs at least one input");
        AddN { arity }
    }
}

impl Block for AddN {
    fn name(&self) -> &str {
        "add"
    }
    fn input_arity(&self) -> usize {
        self.arity
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn clock_behavior(&self) -> ClockBehavior {
        ClockBehavior::strict_each(self.arity)
    }
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        let mut acc: Option<Value> = None;
        for m in inputs {
            match m.value() {
                Some(v) => {
                    acc = Some(match acc {
                        None => v.clone(),
                        Some(a) => apply_binop("add", BinOp::Add, &a, v)?,
                    });
                }
                None => {
                    out[0] = Message::Absent;
                    return Ok(());
                }
            }
        }
        out[0] = acc.into();
        Ok(())
    }
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(AddNLanes))
    }
}

/// Deterministic selection: inputs `[cond, then, else]`, output is `then`
/// when `cond` is present-true, `else` when present-false, absent otherwise.
#[derive(Debug, Clone, Default)]
pub struct Select;

impl Select {
    /// Creates a select (if-then-else) block.
    pub fn new() -> Self {
        Select
    }
}

impl Block for Select {
    fn name(&self) -> &str {
        "select"
    }
    fn input_arity(&self) -> usize {
        3
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        out[0] = match inputs[0].value().and_then(Value::as_bool) {
            Some(true) => inputs[1].clone(),
            Some(false) => inputs[2].clone(),
            None => Message::Absent,
        };
        Ok(())
    }
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(SelectLanes))
    }
}

/// Deterministic merge: forwards the first present input (lowest index).
#[derive(Debug, Clone)]
pub struct Merge {
    arity: usize,
}

impl Merge {
    /// A merge over `arity` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `arity == 0`.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "merge needs at least one input");
        Merge { arity }
    }
}

impl Block for Merge {
    fn name(&self) -> &str {
        "merge"
    }
    fn input_arity(&self) -> usize {
        self.arity
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        out[0] = inputs
            .iter()
            .find(|m| m.is_present())
            .cloned()
            .unwrap_or(Message::Absent);
        Ok(())
    }
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(MergeLanes))
    }
}

/// An identity wire: forwards input 0 unchanged, presence and all.
///
/// Elaboration inserts these at component port boundaries. Unlike an opaque
/// closure, `Identity` declares [`ClockBehavior::Passthrough`], so static
/// clock information — declared clocks, Boolean gate streams — flows through
/// component boundaries and keeps downstream nodes gateable.
#[derive(Debug, Clone)]
pub struct Identity {
    name: std::sync::Arc<str>,
}

impl Identity {
    /// An identity wire with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Identity {
            name: name.into().into(),
        }
    }
}

impl Block for Identity {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        1
    }
    fn output_arity(&self) -> usize {
        1
    }
    step_via_into!();
    clone_block_via_clone!();
    commit_free!();
    fn clock_behavior(&self) -> ClockBehavior {
        ClockBehavior::Passthrough
    }
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        out[0] = inputs[0].clone();
        Ok(())
    }
    fn lane_kernel(&self, _k: usize) -> Option<Box<dyn LaneKernel>> {
        Some(Box::new(CopyLanes))
    }
}

/// A stateless block defined by a closure — the escape hatch for custom
/// atomic DFD blocks.
///
/// The closure is shared behind an [`Arc`], so cloning a `PureFn` (e.g. when
/// replicating blocks across batch lanes) is cheap and sound: the block is
/// stateless by contract, so lanes can share one closure.
#[derive(Clone)]
pub struct PureFn {
    // The name is shared too: replicating a `PureFn` across batch lanes is
    // two refcount bumps, not a string allocation.
    name: std::sync::Arc<str>,
    inputs: usize,
    outputs: usize,
    #[allow(clippy::type_complexity)]
    f: std::sync::Arc<dyn Fn(Tick, &[Message]) -> Result<Vec<Message>, KernelError> + Send + Sync>,
}

impl PureFn {
    /// Wraps a closure as a block with the given arities.
    pub fn new(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        f: impl Fn(Tick, &[Message]) -> Result<Vec<Message>, KernelError> + Send + Sync + 'static,
    ) -> Self {
        PureFn {
            name: name.into().into(),
            inputs,
            outputs,
            f: std::sync::Arc::new(f),
        }
    }
}

impl fmt::Debug for PureFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PureFn")
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl Block for PureFn {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        self.inputs
    }
    fn output_arity(&self) -> usize {
        self.outputs
    }
    fn step(&mut self, t: Tick, inputs: &[Message]) -> Result<Vec<Message>, KernelError> {
        let out = (self.f)(t, inputs)?;
        if out.len() != self.outputs {
            return Err(KernelError::Block {
                block: self.name.to_string(),
                message: format!("produced {} outputs, declared {}", out.len(), self.outputs),
            });
        }
        Ok(out)
    }
    clone_block_via_clone!();
    commit_free!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step1(b: &mut dyn Block, t: Tick, inputs: &[Message]) -> Message {
        b.step(t, inputs).unwrap().remove(0)
    }

    #[test]
    fn binop_int_and_float_promotion() {
        let v = apply_binop("t", BinOp::Add, &Value::Int(1), &Value::Float(0.5)).unwrap();
        assert_eq!(v, Value::Float(1.5));
        let v = apply_binop("t", BinOp::Mul, &Value::Int(3), &Value::Int(4)).unwrap();
        assert_eq!(v, Value::Int(12));
    }

    #[test]
    fn binop_fixed_and_int() {
        let q = crate::value::Fixed::from_f64(1.5, 8);
        let v = apply_binop("t", BinOp::Add, &Value::Fixed(q), &Value::Int(2)).unwrap();
        assert_eq!(v.as_numeric(), Some(3.5));
    }

    #[test]
    fn binop_comparisons_and_logic() {
        assert_eq!(
            apply_binop("t", BinOp::Lt, &Value::Int(1), &Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            apply_binop("t", BinOp::And, &Value::Bool(true), &Value::Bool(false)).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            apply_binop("t", BinOp::Eq, &Value::sym("A"), &Value::sym("A")).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            apply_binop("t", BinOp::Eq, &Value::Int(1), &Value::Float(1.0)).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn binop_errors() {
        assert!(matches!(
            apply_binop("t", BinOp::Div, &Value::Int(1), &Value::Int(0)),
            Err(KernelError::DivisionByZero { .. })
        ));
        assert!(matches!(
            apply_binop("t", BinOp::And, &Value::Int(1), &Value::Bool(true)),
            Err(KernelError::TypeMismatch { .. })
        ));
        assert!(matches!(
            apply_binop("t", BinOp::Add, &Value::Int(i64::MAX), &Value::Int(1)),
            Err(KernelError::Overflow(_))
        ));
    }

    #[test]
    fn unop_cases() {
        assert_eq!(
            apply_unop("t", UnOp::Neg, &Value::Int(3)).unwrap(),
            Value::Int(-3)
        );
        assert_eq!(
            apply_unop("t", UnOp::Not, &Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            apply_unop("t", UnOp::Abs, &Value::Float(-2.5)).unwrap(),
            Value::Float(2.5)
        );
        assert!(apply_unop("t", UnOp::Not, &Value::Int(1)).is_err());
    }

    #[test]
    fn when_block_matches_reference_semantics() {
        let mut w = When::new();
        let out = step1(&mut w, 0, &[Message::present(5i64), Message::present(true)]);
        assert_eq!(out, Message::present(5i64));
        let out = step1(
            &mut w,
            1,
            &[Message::present(5i64), Message::present(false)],
        );
        assert!(out.is_absent());
        let out = step1(&mut w, 2, &[Message::present(5i64), Message::Absent]);
        assert!(out.is_absent());
    }

    #[test]
    fn delay_block_on_clock() {
        let mut d = Delay::on_clock(Some(Value::Int(-1)), Clock::every(2, 0));
        // t=0 active: emits init, stores input 10.
        assert_eq!(step1(&mut d, 0, &[]), Message::present(-1i64));
        d.commit(0, &[Message::present(10i64)]);
        // t=1 inactive.
        assert!(step1(&mut d, 1, &[]).is_absent());
        d.commit(1, &[Message::Absent]);
        // t=2 active: emits 10.
        assert_eq!(step1(&mut d, 2, &[]), Message::present(10i64));
    }

    #[test]
    fn delay_reset_restores_init() {
        let mut d = Delay::new(0i64);
        d.commit(0, &[Message::present(42i64)]);
        assert_eq!(step1(&mut d, 1, &[]), Message::present(42i64));
        d.reset();
        assert_eq!(step1(&mut d, 0, &[]), Message::present(0i64));
    }

    #[test]
    fn unit_delay_shifts_messages_including_absence() {
        let mut d = UnitDelay::new(Message::Absent);
        assert!(step1(&mut d, 0, &[]).is_absent());
        d.commit(0, &[Message::present(1i64)]);
        assert_eq!(step1(&mut d, 1, &[]), Message::present(1i64));
        d.commit(1, &[Message::Absent]);
        assert!(step1(&mut d, 2, &[]).is_absent());
    }

    #[test]
    fn current_holds_and_resets() {
        let mut c = Current::new(0i64);
        assert_eq!(step1(&mut c, 0, &[Message::Absent]), Message::present(0i64));
        assert_eq!(
            step1(&mut c, 1, &[Message::present(7i64)]),
            Message::present(7i64)
        );
        assert_eq!(step1(&mut c, 2, &[Message::Absent]), Message::present(7i64));
        c.reset();
        assert_eq!(step1(&mut c, 0, &[Message::Absent]), Message::present(0i64));
    }

    #[test]
    fn lift2_is_strict_in_presence() {
        let mut add = Lift2::new(BinOp::Add);
        let out = step1(&mut add, 0, &[Message::present(1i64), Message::Absent]);
        assert!(out.is_absent());
        let out = step1(
            &mut add,
            0,
            &[Message::present(1i64), Message::present(2i64)],
        );
        assert_eq!(out, Message::present(3i64));
    }

    #[test]
    fn addn_matches_paper_add_block() {
        // Block ADD defined by ch1+ch2+ch3.
        let mut add = AddN::new(3);
        let out = step1(
            &mut add,
            0,
            &[
                Message::present(1i64),
                Message::present(2i64),
                Message::present(3i64),
            ],
        );
        assert_eq!(out, Message::present(6i64));
    }

    #[test]
    fn select_and_merge() {
        let mut s = Select::new();
        let out = step1(
            &mut s,
            0,
            &[
                Message::present(false),
                Message::present(1i64),
                Message::present(2i64),
            ],
        );
        assert_eq!(out, Message::present(2i64));
        let mut m = Merge::new(3);
        let out = step1(
            &mut m,
            0,
            &[
                Message::Absent,
                Message::present(9i64),
                Message::present(1i64),
            ],
        );
        assert_eq!(out, Message::present(9i64));
    }

    #[test]
    fn purefn_checks_declared_arity() {
        let mut f = PureFn::new("bad", 0, 2, |_, _| Ok(vec![Message::Absent]));
        assert!(matches!(f.step(0, &[]), Err(KernelError::Block { .. })));
    }

    #[test]
    fn const_respects_clock() {
        let mut c = Const::on_clock(5i64, Clock::every(3, 1));
        assert!(step1(&mut c, 0, &[]).is_absent());
        assert_eq!(step1(&mut c, 1, &[]), Message::present(5i64));
        assert!(step1(&mut c, 2, &[]).is_absent());
    }

    #[test]
    fn every_clock_gen_is_always_present() {
        let mut g = EveryClockGen::new(2, 0);
        assert_eq!(step1(&mut g, 0, &[]), Message::present(true));
        assert_eq!(step1(&mut g, 1, &[]), Message::present(false));
    }

    #[test]
    fn identity_forwards_presence_and_values() {
        let mut id = Identity::new("wire");
        assert_eq!(
            step1(&mut id, 0, &[Message::present(3i64)]),
            Message::present(3i64)
        );
        assert!(step1(&mut id, 1, &[Message::Absent]).is_absent());
        assert_eq!(id.clock_behavior(), ClockBehavior::Passthrough);
    }

    #[test]
    fn clock_behaviors_reflect_block_contracts() {
        let c = Clock::every(4, 1);
        assert_eq!(
            Const::on_clock(1i64, c.clone()).clock_behavior(),
            ClockBehavior::Declared(c.clone())
        );
        assert_eq!(
            Delay::on_clock(None, c.clone()).clock_behavior(),
            ClockBehavior::Declared(c.clone())
        );
        assert_eq!(
            EveryClockGen::new(4, 1).clock_behavior(),
            ClockBehavior::BoolGate(c)
        );
        assert_eq!(
            When::new().clock_behavior(),
            ClockBehavior::Sampler { cond: 1 }
        );
        assert_eq!(
            Lift2::new(BinOp::Add).clock_behavior(),
            ClockBehavior::StrictEach(vec![0, 1])
        );
        assert_eq!(AddN::new(3).clock_behavior(), ClockBehavior::strict_each(3));
        // Stateful up-samplers and closures stay opaque.
        assert_eq!(Current::new(0i64).clock_behavior(), ClockBehavior::Opaque);
        assert_eq!(
            UnitDelay::new(Message::Absent).clock_behavior(),
            ClockBehavior::Opaque
        );
    }
}
