//! A register-based bytecode VM for base-language expressions.
//!
//! [`Program::compile`] lowers an [`Expr`] into forward-jumping bytecode with
//! input ports pre-resolved to slot indices, replacing the per-tick AST
//! walk (and its `SliceScope` string scans) that [`Expr::eval_in`] performs.
//! The compiler also runs a constant-folding pre-pass and records whether
//! the folded expression is *absence-strict*
//! ([`Expr::is_absence_strict`]) and provably error-free on skipped
//! operands; when it is, evaluation takes one of two fast paths:
//!
//! * **all strict ports present** — a value-mode loop over plain [`Value`]
//!   registers with no per-instruction presence checks;
//! * **all strict ports absent** — an immediate absent result with no
//!   instruction dispatched at all (the contract behind
//!   [`ClockBehavior::StrictAll`](automode_kernel::ClockBehavior)).
//!
//! The mixed case (and every non-strict program) runs a general loop over
//! [`Message`] registers that replicates `eval_in`'s semantics **exactly**,
//! including evaluation order, laziness of `if`/`?` branches, the early
//! exit of builtin calls on an absent argument, and error payloads — the
//! differential property suite asserts full `Result` equality against the
//! AST interpreter.

use std::sync::Arc;

use automode_kernel::lanes::{
    binop_lanes, copy_lanes, encode_value, unop_lanes, LaneKernel, LaneSlice, LaneSliceMut,
    LaneStore, TAG_ABSENT, TAG_BOOL, TAG_OTHER,
};
use automode_kernel::ops::{apply_binop, apply_unop, BinOp, UnOp};
use automode_kernel::{KernelError, Message, Tick, Value};

use crate::ast::Expr;
use crate::error::LangError;
use crate::eval::eval_builtin;

/// One bytecode instruction; registers and jump targets are `u32`.
///
/// `ctx` strings on operator instructions reproduce the context labels
/// `eval_in` passes to the kernel's `apply_binop`/`apply_unop` (`"expr"`
/// for operator nodes, the function name for builtin combines), so error
/// payloads match the AST interpreter byte for byte.
#[derive(Debug, Clone)]
enum Instr {
    /// `regs[dst] = inputs[port]`.
    Input { dst: u32, port: u32 },
    /// `regs[dst] = consts[idx]` (always present).
    Const { dst: u32, idx: u32 },
    /// Strict unary operator application.
    Unary {
        dst: u32,
        op: UnOp,
        src: u32,
        ctx: &'static str,
    },
    /// Strict binary operator application.
    Binary {
        dst: u32,
        op: BinOp,
        lhs: u32,
        rhs: u32,
        ctx: &'static str,
    },
    /// `regs[dst] = present(regs[src])`.
    Present { dst: u32, src: u32 },
    /// `regs[dst] = absent`.
    SetAbsent { dst: u32 },
    /// Unconditional jump.
    Jump { to: u32 },
    /// Jump when `regs[src]` is absent.
    JumpIfAbsent { src: u32, to: u32 },
    /// Jump when `regs[src]` is present.
    JumpIfPresent { src: u32, to: u32 },
    /// Three-way `if` dispatch on `regs[src]`: fall through on `true`,
    /// jump on `false`/absent, error on a present non-Boolean.
    Branch {
        src: u32,
        on_false: u32,
        on_absent: u32,
    },
    /// Raise `errs[err]` — compile-time-known failures (unbound
    /// identifiers, bad builtin arity, unknown functions) positioned where
    /// the AST walk would raise them.
    Fail { err: u32 },
}

/// Reusable register buffers for [`Program::eval`]; keep one per evaluator
/// (e.g. per block instance) and steady-state evaluation allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    msgs: Vec<Message>,
    vals: Vec<Value>,
}

impl Scratch {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// A compiled expression: bytecode, constant/error pools, and the strict
/// fast-path summary.
#[derive(Debug, Clone)]
pub struct Program {
    code: Vec<Instr>,
    consts: Vec<Value>,
    errs: Vec<LangError>,
    /// Port names in slot order — only consulted on error paths.
    port_names: Vec<String>,
    num_regs: usize,
    /// `Some(ports)` iff the folded expression is absence-strict, every
    /// identifier resolved, and no constant subtree failed to fold: the
    /// program's result is then absent whenever all listed ports are
    /// absent, and cannot error on such a row.
    strict_ports: Option<Vec<u32>>,
}

impl Program {
    /// Compiles `expr` against the input-port order `inputs` (the same
    /// order the message row passed to [`Program::eval`] follows).
    ///
    /// Compilation is infallible: unbound identifiers, bad builtin arities
    /// and unknown functions become [`Instr::Fail`] instructions positioned
    /// exactly where the AST walk would raise them, so laziness (an error
    /// in an untaken `if` branch never fires) is preserved.
    pub fn compile(expr: &Expr, inputs: &[String]) -> Program {
        let (folded, fold_errored) = fold(expr);
        let mut c = Compiler {
            inputs,
            code: Vec::new(),
            consts: Vec::new(),
            errs: Vec::new(),
            num_regs: 0,
            has_fail: false,
        };
        c.emit(&folded, 0);
        c.track_reg(0);
        // The all-absent shortcut must not mask errors the AST walk would
        // raise on a row where only the *other* operands are live: a `Fail`
        // anywhere (even a lazily guarded one) or a constant subtree that
        // errors at fold time disqualifies the strict summary outright.
        let strict = folded.is_absence_strict() && !fold_errored && !c.has_fail;
        let strict_ports = strict.then(|| {
            folded
                .free_idents()
                .iter()
                .map(|n| {
                    inputs
                        .iter()
                        .position(|i| i == n)
                        .expect("strict program resolved every identifier")
                        as u32
                })
                .collect::<Vec<u32>>()
        });
        Program {
            code: c.code,
            consts: c.consts,
            errs: c.errs,
            port_names: inputs.to_vec(),
            num_regs: c.num_regs,
            strict_ports,
        }
    }

    /// The strict fast-path ports, when the program qualifies (see
    /// [`Program`] field docs): the result is absent — with no possible
    /// error — whenever all listed input slots are absent.
    pub fn strict_ports(&self) -> Option<&[u32]> {
        self.strict_ports.as_deref()
    }

    /// Number of bytecode instructions.
    pub fn instruction_count(&self) -> usize {
        self.code.len()
    }

    /// Number of registers an evaluation uses.
    pub fn register_count(&self) -> usize {
        self.num_regs
    }

    /// Evaluates the program over one input row (messages in the port
    /// order given to [`Program::compile`]), reusing `scratch` buffers.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Expr::eval_in`] would produce on the same row.
    pub fn eval(&self, inputs: &[Message], scratch: &mut Scratch) -> Result<Message, LangError> {
        if let Some(ports) = &self.strict_ports {
            let mut all_present = true;
            let mut any_present = false;
            let mut resolvable = true;
            for &p in ports {
                match inputs.get(p as usize) {
                    None => {
                        // Shorter row than the compiled port order: fall
                        // through to the general loop, which reports the
                        // unbound identifier like the AST walk does.
                        resolvable = false;
                        break;
                    }
                    Some(m) if m.is_present() => any_present = true,
                    Some(_) => all_present = false,
                }
            }
            if resolvable {
                if all_present {
                    return self.eval_values(inputs, scratch);
                }
                if !any_present {
                    return Ok(Message::Absent);
                }
            }
        }
        self.eval_messages(inputs, scratch)
    }

    /// General loop: [`Message`] registers, exact `eval_in` semantics.
    fn eval_messages(
        &self,
        inputs: &[Message],
        scratch: &mut Scratch,
    ) -> Result<Message, LangError> {
        let regs = &mut scratch.msgs;
        regs.clear();
        regs.resize(self.num_regs, Message::Absent);
        let mut pc = 0usize;
        while pc < self.code.len() {
            match &self.code[pc] {
                Instr::Input { dst, port } => {
                    regs[*dst as usize] = match inputs.get(*port as usize) {
                        Some(m) => m.clone(),
                        None => {
                            return Err(LangError::Unbound(self.port_names[*port as usize].clone()))
                        }
                    };
                }
                Instr::Const { dst, idx } => {
                    regs[*dst as usize] = Message::Present(self.consts[*idx as usize].clone());
                }
                Instr::Unary { dst, op, src, ctx } => {
                    regs[*dst as usize] = match regs[*src as usize].value() {
                        Some(v) => Message::Present(apply_unop(ctx, *op, v)?),
                        None => Message::Absent,
                    };
                }
                Instr::Binary {
                    dst,
                    op,
                    lhs,
                    rhs,
                    ctx,
                } => {
                    regs[*dst as usize] =
                        match (regs[*lhs as usize].value(), regs[*rhs as usize].value()) {
                            (Some(x), Some(y)) => Message::Present(apply_binop(ctx, *op, x, y)?),
                            _ => Message::Absent,
                        };
                }
                Instr::Present { dst, src } => {
                    regs[*dst as usize] = Message::present(regs[*src as usize].is_present());
                }
                Instr::SetAbsent { dst } => regs[*dst as usize] = Message::Absent,
                Instr::Jump { to } => {
                    pc = *to as usize;
                    continue;
                }
                Instr::JumpIfAbsent { src, to } => {
                    if regs[*src as usize].is_absent() {
                        pc = *to as usize;
                        continue;
                    }
                }
                Instr::JumpIfPresent { src, to } => {
                    if regs[*src as usize].is_present() {
                        pc = *to as usize;
                        continue;
                    }
                }
                Instr::Branch {
                    src,
                    on_false,
                    on_absent,
                } => match regs[*src as usize].value() {
                    Some(Value::Bool(true)) => {}
                    Some(Value::Bool(false)) => {
                        pc = *on_false as usize;
                        continue;
                    }
                    Some(v) => {
                        return Err(LangError::Type(format!(
                            "`if` condition evaluated to {} `{v}`",
                            v.type_name()
                        )))
                    }
                    None => {
                        pc = *on_absent as usize;
                        continue;
                    }
                },
                Instr::Fail { err } => return Err(self.errs[*err as usize].clone()),
            }
            pc += 1;
        }
        Ok(std::mem::replace(&mut regs[0], Message::Absent))
    }

    /// Value-mode loop for strict programs with every strict port present:
    /// plain [`Value`] registers, no presence checks. Absence-observing
    /// instructions cannot occur in a strict program's live path but are
    /// implemented defensively.
    fn eval_values(&self, inputs: &[Message], scratch: &mut Scratch) -> Result<Message, LangError> {
        let regs = &mut scratch.vals;
        regs.clear();
        regs.resize(self.num_regs, Value::Bool(false));
        let mut pc = 0usize;
        while pc < self.code.len() {
            match &self.code[pc] {
                Instr::Input { dst, port } => {
                    regs[*dst as usize] = match inputs.get(*port as usize).and_then(|m| m.value()) {
                        Some(v) => v.clone(),
                        // Unreachable: dispatch verified every strict port
                        // present, and strict programs read no others.
                        None => {
                            return Err(LangError::Unbound(self.port_names[*port as usize].clone()))
                        }
                    };
                }
                Instr::Const { dst, idx } => {
                    regs[*dst as usize] = self.consts[*idx as usize].clone();
                }
                Instr::Unary { dst, op, src, ctx } => {
                    regs[*dst as usize] = apply_unop(ctx, *op, &regs[*src as usize])?;
                }
                Instr::Binary {
                    dst,
                    op,
                    lhs,
                    rhs,
                    ctx,
                } => {
                    let v = apply_binop(ctx, *op, &regs[*lhs as usize], &regs[*rhs as usize])?;
                    regs[*dst as usize] = v;
                }
                Instr::Present { dst, .. } => regs[*dst as usize] = Value::Bool(true),
                Instr::SetAbsent { .. } => {
                    // Unreachable: strict programs only target their
                    // absence pads through never-taken JumpIfAbsent.
                    return Err(LangError::Type(
                        "internal: absence pad reached in strict fast path".into(),
                    ));
                }
                Instr::Jump { to } => {
                    pc = *to as usize;
                    continue;
                }
                Instr::JumpIfAbsent { .. } => {} // value registers are never absent
                Instr::JumpIfPresent { to, .. } => {
                    pc = *to as usize; // ... and always present
                    continue;
                }
                Instr::Branch {
                    src,
                    on_false,
                    on_absent: _,
                } => match &regs[*src as usize] {
                    Value::Bool(true) => {}
                    Value::Bool(false) => {
                        pc = *on_false as usize;
                        continue;
                    }
                    v => {
                        return Err(LangError::Type(format!(
                            "`if` condition evaluated to {} `{v}`",
                            v.type_name()
                        )))
                    }
                },
                Instr::Fail { err } => return Err(self.errs[*err as usize].clone()),
            }
            pc += 1;
        }
        Ok(Message::Present(std::mem::replace(
            &mut regs[0],
            Value::Bool(false),
        )))
    }
}

/// Lane-batched interpreter: each instruction runs across all K lanes of
/// typed columns before the next dispatches, so per-tick cost is
/// `instructions × dispatch + K × work` instead of
/// `K × (instructions × dispatch + work)` — and uniform-`f64` (and
/// Boolean `and`/`or`) operator columns collapse into the kernel's tight
/// bit-column loops ([`binop_lanes`]/[`unop_lanes`]).
///
/// Control flow is masked. Every jump the compiler emits is forward, so one
/// linear pass over the code suffices: the pass carries the mask of lanes
/// executing the current instruction, `Branch`/`JumpIf*` split it, `Jump`
/// hands it to its target, and each target ORs its incoming lanes back in.
/// An instruction runs only on its masked lanes, so every lane executes
/// exactly the instructions — and raises exactly the errors — its own
/// per-lane evaluation would: a `Fail`, an `if` on a non-Boolean or an
/// operator error is reported only when an active lane reaches it (lazy
/// branches stay lazy).
///
/// Registers are K-lane columns; an operator computes into a spare column.
/// While every active lane is executing, the spare is swapped with the
/// destination register (the compiler's stack discipline makes
/// `dst == lhs` the norm, and the swap sidesteps that aliasing in O(1));
/// under a partial mask only the masked lanes are merged in, so the other
/// lanes keep their values. The interpreter holds no cross-tick state —
/// columns are fully recomputed from instruction 0 each call — so it
/// satisfies the [`LaneKernel`] statelessness contract for fallible
/// kernels.
#[derive(Debug)]
pub struct LaneEval {
    program: Arc<Program>,
    name: Arc<str>,
    k: usize,
    regs: Vec<LaneStore>,
    tmp: LaneStore,
    /// Constants pre-encoded as (tag, bits, payload) for broadcast.
    consts: Vec<(u8, u64, Message)>,
    /// Per pc: whether some jump targets it (only targets merge masks).
    target: Vec<bool>,
    /// Lanes jumping to each pc, `k` per pc plus one row for the end.
    incoming: Vec<bool>,
    /// Lanes executing the current instruction.
    cur: Vec<bool>,
}

impl LaneEval {
    /// Builds a lane interpreter for `program` over `k` lanes.
    pub fn new(program: Arc<Program>, name: Arc<str>, k: usize) -> LaneEval {
        let regs = (0..program.num_regs.max(1))
            .map(|_| LaneStore::new(1, k))
            .collect();
        let consts = program
            .consts
            .iter()
            .map(|v| {
                let (mut tag, mut bits, mut other) = (TAG_ABSENT, 0u64, Message::Absent);
                encode_value(v, &mut tag, &mut bits, &mut other);
                (tag, bits, other)
            })
            .collect();
        // The single masked pass is exact only if every jump is forward: a
        // lane sent back to an already-passed pc would silently drop out.
        let mut target = vec![false; program.code.len() + 1];
        for (pc, instr) in program.code.iter().enumerate() {
            let mut mark = |to: u32| {
                debug_assert!(to as usize > pc, "backward jump {pc} -> {to}");
                target[to as usize] = true;
            };
            match *instr {
                Instr::Jump { to }
                | Instr::JumpIfAbsent { to, .. }
                | Instr::JumpIfPresent { to, .. } => mark(to),
                Instr::Branch {
                    on_false,
                    on_absent,
                    ..
                } => {
                    mark(on_false);
                    mark(on_absent);
                }
                _ => {}
            }
        }
        LaneEval {
            incoming: vec![false; target.len() * k],
            program,
            name,
            k,
            regs,
            tmp: LaneStore::new(1, k),
            consts,
            target,
            cur: vec![false; k],
        }
    }

    fn lang_error(&self, e: LangError) -> KernelError {
        // Matches the per-lane wrapping in `ExprBlock::step_into`.
        KernelError::Block {
            block: self.name.to_string(),
            message: e.to_string(),
        }
    }

    fn wrap(&self, e: KernelError) -> KernelError {
        // `LangError::Kernel` displays as the inner kernel error.
        self.lang_error(LangError::from(e))
    }

    /// Moves the current lanes whose condition column selects them to
    /// `to`; returns whether any lane moved.
    fn divert(&mut self, to: u32, pick: impl Fn(u8, u64) -> bool, src: u32) -> bool {
        let k = self.k;
        let row = &mut self.incoming[to as usize * k..(to as usize + 1) * k];
        let col = self.regs[src as usize].slice(0);
        let mut moved = false;
        for (((r, c), &tag), &bits) in row
            .iter_mut()
            .zip(&mut self.cur)
            .zip(col.tags)
            .zip(col.bits)
        {
            if *c && pick(tag, bits) {
                *c = false;
                *r = true;
                moved = true;
            }
        }
        moved
    }
}

/// Writes an operator's spare column into register `dst`: a swap while
/// every active lane executes, a masked merge otherwise.
fn retire(regs: &mut [LaneStore], dst: u32, tmp: &mut LaneStore, full: bool, mask: &[bool]) {
    if full {
        std::mem::swap(tmp, &mut regs[dst as usize]);
    } else {
        copy_lanes(&mut regs[dst as usize].slice_mut(0), &tmp.slice(0), mask);
    }
}

impl LaneKernel for LaneEval {
    fn step_lanes(
        &mut self,
        _t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        let k = self.k;
        let program = Arc::clone(&self.program);
        self.cur.copy_from_slice(active);
        // `full`: the current mask equals `active`; `live`: it is non-empty.
        let mut full = true;
        let mut live = self.cur.iter().any(|&a| a);
        self.incoming.fill(false);
        for (pc, instr) in program.code.iter().enumerate() {
            if self.target[pc] {
                let row = &self.incoming[pc * k..(pc + 1) * k];
                if row.iter().any(|&b| b) {
                    for (c, &b) in self.cur.iter_mut().zip(row) {
                        *c |= b;
                    }
                    live = true;
                    full = self.cur == active;
                }
            }
            if !live {
                continue;
            }
            match instr {
                Instr::Input { dst, port } => {
                    let Some(src) = inputs.get(*port as usize) else {
                        let name = program.port_names[*port as usize].clone();
                        return Err(self.lang_error(LangError::Unbound(name)));
                    };
                    let mask = if full { active } else { &self.cur };
                    copy_lanes(&mut self.regs[*dst as usize].slice_mut(0), src, mask);
                }
                Instr::Const { dst, idx } => {
                    let (tag, bits, other) = &self.consts[*idx as usize];
                    let d = self.regs[*dst as usize].slice_mut(0);
                    if *tag == TAG_OTHER {
                        for l in 0..k {
                            if full || self.cur[l] {
                                d.tags[l] = *tag;
                                d.other[l] = other.clone();
                            }
                        }
                    } else if full {
                        d.tags.fill(*tag);
                        d.bits.fill(*bits);
                    } else {
                        // Branch-free blend over the masked lanes.
                        for ((t, b), &c) in d.tags.iter_mut().zip(d.bits.iter_mut()).zip(&self.cur)
                        {
                            *t = if c { *tag } else { *t };
                            *b = if c { *bits } else { *b };
                        }
                    }
                }
                Instr::Unary { dst, op, src, ctx } => {
                    let mask = if full { active } else { &self.cur };
                    let a = self.regs[*src as usize].slice(0);
                    if let Err(e) = unop_lanes(ctx, *op, &a, &mut self.tmp.slice_mut(0), mask) {
                        return Err(self.wrap(e));
                    }
                    retire(&mut self.regs, *dst, &mut self.tmp, full, mask);
                }
                Instr::Binary {
                    dst,
                    op,
                    lhs,
                    rhs,
                    ctx,
                } => {
                    let mask = if full { active } else { &self.cur };
                    let a = self.regs[*lhs as usize].slice(0);
                    let b = self.regs[*rhs as usize].slice(0);
                    if let Err(e) = binop_lanes(ctx, *op, &a, &b, &mut self.tmp.slice_mut(0), mask)
                    {
                        return Err(self.wrap(e));
                    }
                    retire(&mut self.regs, *dst, &mut self.tmp, full, mask);
                }
                Instr::Present { dst, src } => {
                    let mask = if full { active } else { &self.cur };
                    let s = self.regs[*src as usize].slice(0);
                    let d = self.tmp.slice_mut(0);
                    for ((dt, db), &st) in d.tags.iter_mut().zip(d.bits.iter_mut()).zip(s.tags) {
                        *dt = TAG_BOOL;
                        *db = u64::from(st != TAG_ABSENT);
                    }
                    retire(&mut self.regs, *dst, &mut self.tmp, full, mask);
                }
                Instr::SetAbsent { dst } => {
                    let d = self.regs[*dst as usize].slice_mut(0);
                    for (t, &c) in d.tags.iter_mut().zip(&self.cur) {
                        if c {
                            *t = TAG_ABSENT;
                        }
                    }
                }
                Instr::Jump { to } => {
                    let row = &mut self.incoming[*to as usize * k..(*to as usize + 1) * k];
                    for (r, c) in row.iter_mut().zip(self.cur.iter_mut()) {
                        *r |= *c;
                        *c = false;
                    }
                    live = false;
                    full = false;
                }
                Instr::JumpIfAbsent { src, to } => {
                    if self.divert(*to, |tag, _| tag == TAG_ABSENT, *src) {
                        full = false;
                        live = self.cur.iter().any(|&c| c);
                    }
                }
                Instr::JumpIfPresent { src, to } => {
                    if self.divert(*to, |tag, _| tag != TAG_ABSENT, *src) {
                        full = false;
                        live = self.cur.iter().any(|&c| c);
                    }
                }
                Instr::Branch {
                    src,
                    on_false,
                    on_absent,
                } => {
                    // A present non-Boolean condition on any executing lane
                    // is that lane's type error.
                    let col = self.regs[*src as usize].slice(0);
                    let bad = (0..k).find(|&l| {
                        self.cur[l] && col.tags[l] != TAG_ABSENT && col.tags[l] != TAG_BOOL
                    });
                    if let Some(l) = bad {
                        let v = col.get_value(l).expect("present lane decodes to a value");
                        return Err(self.lang_error(LangError::Type(format!(
                            "`if` condition evaluated to {} `{v}`",
                            v.type_name()
                        ))));
                    }
                    let a = self.divert(*on_absent, |tag, _| tag == TAG_ABSENT, *src);
                    let f = self.divert(*on_false, |_, bits| bits == 0, *src);
                    if a || f {
                        full = false;
                        live = self.cur.iter().any(|&c| c);
                    }
                }
                Instr::Fail { err } => {
                    return Err(self.lang_error(program.errs[*err as usize].clone()));
                }
            }
        }
        copy_lanes(out, &self.regs[0].slice(0), active);
        Ok(())
    }
}

struct Compiler<'a> {
    inputs: &'a [String],
    code: Vec<Instr>,
    consts: Vec<Value>,
    errs: Vec<LangError>,
    num_regs: usize,
    has_fail: bool,
}

impl Compiler<'_> {
    fn track_reg(&mut self, r: u32) {
        self.num_regs = self.num_regs.max(r as usize + 1);
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn push(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jump { to }
            | Instr::JumpIfAbsent { to, .. }
            | Instr::JumpIfPresent { to, .. } => *to = target,
            other => unreachable!("patched non-jump instruction {other:?}"),
        }
    }

    fn fail(&mut self, e: LangError) {
        self.has_fail = true;
        let err = self.errs.len() as u32;
        self.errs.push(e);
        self.code.push(Instr::Fail { err });
    }

    /// Emits code leaving the result in `dst`; registers above `dst` are
    /// free temporaries (stack discipline).
    fn emit(&mut self, e: &Expr, dst: u32) {
        self.track_reg(dst);
        match e {
            Expr::Lit(v) => {
                let idx = self.consts.len() as u32;
                self.consts.push(v.clone());
                self.push(Instr::Const { dst, idx });
            }
            Expr::Ident(n) => match self.inputs.iter().position(|i| i == n) {
                Some(p) => {
                    self.push(Instr::Input {
                        dst,
                        port: p as u32,
                    });
                }
                None => self.fail(LangError::Unbound(n.clone())),
            },
            Expr::Unary(op, a) => {
                self.emit(a, dst);
                self.push(Instr::Unary {
                    dst,
                    op: *op,
                    src: dst,
                    ctx: "expr",
                });
            }
            Expr::Binary(op, a, b) => {
                self.emit(a, dst);
                self.emit(b, dst + 1);
                self.push(Instr::Binary {
                    dst,
                    op: *op,
                    lhs: dst,
                    rhs: dst + 1,
                    ctx: "expr",
                });
            }
            Expr::Present(a) => {
                self.emit(a, dst);
                self.push(Instr::Present { dst, src: dst });
            }
            Expr::OrElse(a, b) => {
                self.emit(a, dst);
                let j = self.push(Instr::JumpIfPresent {
                    src: dst,
                    to: u32::MAX,
                });
                self.emit(b, dst);
                let end = self.here();
                self.patch(j, end);
            }
            Expr::If(c, t, el) => {
                self.emit(c, dst);
                let br = self.push(Instr::Branch {
                    src: dst,
                    on_false: u32::MAX,
                    on_absent: u32::MAX,
                });
                self.emit(t, dst);
                let j_then = self.push(Instr::Jump { to: u32::MAX });
                let l_false = self.here();
                self.emit(el, dst);
                let j_else = self.push(Instr::Jump { to: u32::MAX });
                let l_absent = self.here();
                self.push(Instr::SetAbsent { dst });
                let end = self.here();
                if let Instr::Branch {
                    on_false,
                    on_absent,
                    ..
                } = &mut self.code[br]
                {
                    *on_false = l_false;
                    *on_absent = l_absent;
                }
                self.patch(j_then, end);
                self.patch(j_else, end);
            }
            Expr::Call(name, args) => {
                // Arguments evaluate in order with an early exit on the
                // first absent one — later arguments are *not* evaluated,
                // unlike binary operators (mirrors `eval_in`).
                let mut absent_jumps = Vec::with_capacity(args.len());
                for (j, a) in args.iter().enumerate() {
                    let r = dst + j as u32;
                    self.emit(a, r);
                    absent_jumps.push(self.push(Instr::JumpIfAbsent {
                        src: r,
                        to: u32::MAX,
                    }));
                }
                // The combine sits after all argument code, where the AST
                // walk calls `eval_builtin` — arity and unknown-function
                // errors fire only once every argument came back present.
                let found = args.len();
                match (name.as_str(), found) {
                    ("min", 2) => {
                        self.push(Instr::Binary {
                            dst,
                            op: BinOp::Min,
                            lhs: dst,
                            rhs: dst + 1,
                            ctx: "min",
                        });
                    }
                    ("max", 2) => {
                        self.push(Instr::Binary {
                            dst,
                            op: BinOp::Max,
                            lhs: dst,
                            rhs: dst + 1,
                            ctx: "max",
                        });
                    }
                    ("abs", 1) => {
                        self.push(Instr::Unary {
                            dst,
                            op: UnOp::Abs,
                            src: dst,
                            ctx: "abs",
                        });
                    }
                    ("clamp", 3) => {
                        self.push(Instr::Binary {
                            dst,
                            op: BinOp::Max,
                            lhs: dst,
                            rhs: dst + 1,
                            ctx: "clamp",
                        });
                        self.push(Instr::Binary {
                            dst,
                            op: BinOp::Min,
                            lhs: dst,
                            rhs: dst + 2,
                            ctx: "clamp",
                        });
                    }
                    ("min" | "max", _) => self.fail(LangError::Arity {
                        function: name.clone(),
                        expected: 2,
                        found,
                    }),
                    ("abs", _) => self.fail(LangError::Arity {
                        function: name.clone(),
                        expected: 1,
                        found,
                    }),
                    ("clamp", _) => self.fail(LangError::Arity {
                        function: name.clone(),
                        expected: 3,
                        found,
                    }),
                    _ => self.fail(LangError::UnknownFunction(name.clone())),
                }
                let j_end = self.push(Instr::Jump { to: u32::MAX });
                let l_absent = self.here();
                self.push(Instr::SetAbsent { dst });
                let end = self.here();
                for aj in absent_jumps {
                    self.patch(aj, l_absent);
                }
                self.patch(j_end, end);
            }
        }
    }
}

/// Constant folding: collapses operator/builtin applications whose operands
/// are all literals, `if` on a literal Boolean condition, `?` and
/// `present` on literals. Returns the folded tree plus a flag set when an
/// all-literal subtree *errors* at fold time (e.g. `1 / 0`,
/// `nosuchfn(1)`) — such subtrees are left unfolded so the runtime
/// reproduces the exact error, and the flag disqualifies the strict
/// fast-path summary (the error must also fire on rows where unrelated
/// ports are absent).
fn fold(e: &Expr) -> (Expr, bool) {
    match e {
        Expr::Lit(_) | Expr::Ident(_) => (e.clone(), false),
        Expr::Unary(op, a) => {
            let (fa, ea) = fold(a);
            if let Expr::Lit(v) = &fa {
                if let Ok(r) = apply_unop("expr", *op, v) {
                    return (Expr::Lit(r), ea);
                }
                return (Expr::Unary(*op, Box::new(fa)), true);
            }
            (Expr::Unary(*op, Box::new(fa)), ea)
        }
        Expr::Binary(op, a, b) => {
            let (fa, ea) = fold(a);
            let (fb, eb) = fold(b);
            let errored = ea || eb;
            if let (Expr::Lit(x), Expr::Lit(y)) = (&fa, &fb) {
                if let Ok(r) = apply_binop("expr", *op, x, y) {
                    return (Expr::Lit(r), errored);
                }
                return (Expr::bin(*op, fa, fb), true);
            }
            (Expr::bin(*op, fa, fb), errored)
        }
        Expr::If(c, t, el) => {
            let (fc, ec) = fold(c);
            match &fc {
                // A literal Boolean condition selects its branch at compile
                // time; the discarded branch is never evaluated by the AST
                // walk either, so dropping it (errors included) is exact.
                Expr::Lit(Value::Bool(true)) => {
                    let (ft, et) = fold(t);
                    (ft, ec || et)
                }
                Expr::Lit(Value::Bool(false)) => {
                    let (fe, ee) = fold(el);
                    (fe, ec || ee)
                }
                // A literal non-Boolean condition is a guaranteed type
                // error — leave the `if` in place to raise it.
                _ => {
                    let (ft, et) = fold(t);
                    let (fe, ee) = fold(el);
                    (Expr::ite(fc, ft, fe), ec || et || ee)
                }
            }
        }
        Expr::OrElse(a, b) => {
            let (fa, ea) = fold(a);
            if matches!(fa, Expr::Lit(_)) {
                // A present literal never defers to the default.
                return (fa, ea);
            }
            let (fb, eb) = fold(b);
            (Expr::OrElse(Box::new(fa), Box::new(fb)), ea || eb)
        }
        Expr::Present(a) => {
            let (fa, ea) = fold(a);
            if matches!(fa, Expr::Lit(_)) {
                return (Expr::Lit(Value::Bool(true)), ea);
            }
            (Expr::Present(Box::new(fa)), ea)
        }
        Expr::Call(name, args) => {
            let mut errored = false;
            let fargs: Vec<Expr> = args
                .iter()
                .map(|a| {
                    let (fa, ea) = fold(a);
                    errored |= ea;
                    fa
                })
                .collect();
            let vals: Vec<&Value> = fargs
                .iter()
                .filter_map(|a| match a {
                    Expr::Lit(v) => Some(v),
                    _ => None,
                })
                .collect();
            if vals.len() == fargs.len() {
                let owned: Vec<Value> = vals.into_iter().cloned().collect();
                if let Ok(r) = eval_builtin(name, &owned) {
                    return (Expr::Lit(r), errored);
                }
                return (Expr::Call(name.clone(), fargs), true);
            }
            (Expr::Call(name.clone(), fargs), errored)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automode_kernel::lanes::encode;

    use crate::eval::Env;
    use crate::parser::parse;

    fn run(src: &str, pairs: &[(&str, Message)]) -> (Result<Message, LangError>, Program) {
        let expr = parse(src).unwrap();
        let names: Vec<String> = expr.free_idents();
        let program = Program::compile(&expr, &names);
        let row: Vec<Message> = names
            .iter()
            .map(|n| {
                pairs
                    .iter()
                    .find(|(p, _)| p == n)
                    .map(|(_, m)| m.clone())
                    .unwrap_or(Message::Absent)
            })
            .collect();
        let mut scratch = Scratch::new();
        (program.eval(&row, &mut scratch), program)
    }

    fn ast(src: &str, pairs: &[(&str, Message)]) -> Result<Message, LangError> {
        let env = Env::from_pairs(
            pairs
                .iter()
                .map(|(n, m)| (n.to_string(), m.clone()))
                .collect::<Vec<_>>(),
        );
        parse(src).unwrap().eval(&env)
    }

    #[test]
    fn matches_ast_on_arithmetic() {
        let pairs = [("a", Message::present(3i64)), ("b", Message::present(4i64))];
        let (vm, program) = run("a * a + b * b", &pairs);
        assert_eq!(vm, ast("a * a + b * b", &pairs));
        assert_eq!(vm.unwrap(), Message::present(25i64));
        assert!(program.strict_ports().is_some());
    }

    #[test]
    fn strict_all_absent_short_circuits() {
        let pairs = [("a", Message::Absent), ("b", Message::Absent)];
        let (vm, program) = run("min(a, b) + 1", &pairs);
        assert_eq!(vm, Ok(Message::Absent));
        assert_eq!(program.strict_ports().map(<[u32]>::len), Some(2));
    }

    #[test]
    fn mixed_absence_matches_ast_including_errors() {
        // `b / 0` must error even though `a` is absent — the general loop
        // replicates the AST walk's both-operands evaluation order.
        let pairs = [("a", Message::Absent), ("b", Message::present(1i64))];
        let (vm, _) = run("a + b / 0", &pairs);
        assert_eq!(vm, ast("a + b / 0", &pairs));
        assert!(vm.is_err());
    }

    #[test]
    fn division_by_literal_zero_disables_fast_path_only_when_constant() {
        // `x / 0` cannot error while `x` is absent, so it stays strict...
        let expr = parse("x / 0").unwrap();
        let p = Program::compile(&expr, &["x".to_string()]);
        assert!(p.strict_ports().is_some());
        // ...but `x + 1 / 0` errors regardless of `x`, so it must not.
        let expr = parse("x + 1 / 0").unwrap();
        let p = Program::compile(&expr, &["x".to_string()]);
        assert!(p.strict_ports().is_none());
        let mut s = Scratch::new();
        assert!(p.eval(&[Message::Absent], &mut s).is_err());
    }

    #[test]
    fn call_args_early_exit_on_absence() {
        // Call arguments evaluate in order with an early exit on the first
        // absent one: the division by zero in the second argument must not
        // fire. (`min`/`max` parse to binary operators, which *do* evaluate
        // both operands — `clamp` is the surviving call form.)
        let pairs = [("a", Message::Absent), ("b", Message::present(1i64))];
        let (vm, _) = run("clamp(a, b / 0, 9)", &pairs);
        assert_eq!(vm, ast("clamp(a, b / 0, 9)", &pairs));
        assert_eq!(vm, Ok(Message::Absent));

        // Binary `min` by contrast evaluates both operands — both the VM
        // and the AST walk raise the division error.
        let (vm, _) = run("min(a, b / 0)", &pairs);
        assert_eq!(vm, ast("min(a, b / 0)", &pairs));
        assert!(vm.is_err());
    }

    #[test]
    fn laziness_of_if_branches_is_preserved() {
        let pairs = [("c", Message::present(true)), ("x", Message::present(7i64))];
        let (vm, _) = run("if c then x else x / 0", &pairs);
        assert_eq!(vm, Ok(Message::present(7i64)));
        let pairs = [("c", Message::Absent), ("x", Message::present(7i64))];
        let (vm, _) = run("if c then x else x / 0", &pairs);
        assert_eq!(vm, Ok(Message::Absent));
    }

    #[test]
    fn if_type_error_message_matches_ast() {
        let pairs = [("c", Message::present(2i64))];
        let (vm, _) = run("if c then 1 else 2", &pairs);
        assert_eq!(vm, ast("if c then 1 else 2", &pairs));
    }

    #[test]
    fn constant_folding_collapses_literal_trees() {
        let expr = parse("1 + 2 * 3 + min(4, 5)").unwrap();
        let p = Program::compile(&expr, &[]);
        assert_eq!(p.instruction_count(), 1);
        let mut s = Scratch::new();
        assert_eq!(p.eval(&[], &mut s), Ok(Message::present(11i64)));
    }

    #[test]
    fn folding_keeps_literal_condition_branches_exact() {
        let pairs = [("x", Message::present(5i64))];
        for src in ["if true then x else x / 0", "if false then x / 0 else x"] {
            let (vm, p) = run(src, &pairs);
            assert_eq!(vm, ast(src, &pairs), "{src}");
            assert_eq!(vm, Ok(Message::present(5i64)), "{src}");
            // The discarded branch is gone, so the program is strict again.
            assert!(p.strict_ports().is_some(), "{src}");
        }
    }

    #[test]
    fn unbound_and_unknown_function_errors_match() {
        let (vm, p) = run("nope + 1", &[]);
        // `nope` is a free ident, so run() binds it as a port; compile
        // against an empty port list instead to exercise the error.
        drop((vm, p));
        let expr = parse("nope + 1").unwrap();
        let p = Program::compile(&expr, &[]);
        let mut s = Scratch::new();
        assert_eq!(
            p.eval(&[], &mut s),
            Err(LangError::Unbound("nope".to_string()))
        );
        assert!(p.strict_ports().is_none());

        let expr = parse("mystery(1)").unwrap();
        let p = Program::compile(&expr, &[]);
        assert_eq!(
            p.eval(&[], &mut s),
            Err(LangError::UnknownFunction("mystery".to_string()))
        );
    }

    /// Runs `src` through the lane interpreter over `rows` (one row per
    /// lane) and asserts each lane's column result equals the per-lane
    /// `Program::eval` on the same row, bit for bit.
    fn assert_lanes_match(src: &str, rows: &[Vec<Message>]) {
        let expr = parse(src).unwrap();
        let names: Vec<String> = expr.free_idents();
        let program = Arc::new(Program::compile(&expr, &names));
        let k = rows.len();
        let mut lanes = LaneEval::new(Arc::clone(&program), Arc::from(src), k);

        // Stage the rows as input columns.
        let n_ports = names.len();
        let mut cols = LaneStore::new(n_ports.max(1), k);
        for (l, row) in rows.iter().enumerate() {
            for (p, m) in row.iter().enumerate().take(n_ports) {
                cols.set(p, l, m);
            }
        }
        let port_slices: Vec<LaneSlice<'_>> = (0..n_ports).map(|p| cols.slice(p)).collect();
        let mut out = LaneStore::new(1, k);
        let active = vec![true; k];
        let lane_result = {
            let mut o = out.slice_mut(0);
            lanes.step_lanes(0, &port_slices, &mut o, &active)
        };

        let mut scratch = Scratch::new();
        let per_lane: Vec<Result<Message, LangError>> = rows
            .iter()
            .map(|row| program.eval(row, &mut scratch))
            .collect();
        let expect_err = per_lane.iter().any(Result::is_err);
        assert_eq!(
            lane_result.is_err(),
            expect_err,
            "{src}: error presence diverged"
        );
        if expect_err {
            // An error aborts the whole column call with garbage outputs —
            // the batch executor replays per lane to attribute it, so
            // there is nothing further to compare here.
            return;
        }
        for (l, res) in per_lane.iter().enumerate() {
            let m = res.as_ref().unwrap();
            let got = out.decode(0, l);
            // Compare through encoded bits so NaN payloads count as equal
            // when bit-identical.
            let (mut tg, mut te) = ((0u8, 0u64), (0u8, 0u64));
            let mut o = Message::Absent;
            encode(&got, &mut tg.0, &mut tg.1, &mut o);
            encode(m, &mut te.0, &mut te.1, &mut o);
            assert_eq!(tg, te, "{src}: lane {l} diverged: {got:?} vs {m:?}");
        }
    }

    #[test]
    fn lane_interpreter_matches_per_lane_eval() {
        let rows: Vec<Vec<Message>> = vec![
            vec![Message::present(1.5f64), Message::present(2.5f64)],
            vec![Message::Absent, Message::present(4.0f64)],
            vec![Message::present(-3.0f64), Message::Absent],
            vec![Message::Absent, Message::Absent],
            vec![Message::present(7i64), Message::present(2i64)],
        ];
        for src in [
            "a + b",
            "a * b - a",
            "-a + abs(b)",
            "a < b",
            "a == b",
            "present(a) and present(b)",
            "a + 1.0",
            "min(a, b)",
        ] {
            assert_lanes_match(src, &rows);
        }
    }

    #[test]
    fn lane_interpreter_matches_on_boolean_columns() {
        let rows: Vec<Vec<Message>> = vec![
            vec![Message::present(true), Message::present(false)],
            vec![Message::present(false), Message::present(false)],
            vec![Message::Absent, Message::present(true)],
            vec![Message::Absent, Message::Absent],
        ];
        for src in ["a and b", "a or b", "not a", "present(a) and present(b)"] {
            assert_lanes_match(src, &rows);
        }
    }

    #[test]
    fn lane_interpreter_preserves_nan_payload_bits() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let rows = vec![
            vec![Message::present(nan), Message::present(1.0f64)],
            vec![Message::present(-0.0f64), Message::present(nan)],
        ];
        assert_lanes_match("a + 0.0", &rows);
        assert_lanes_match("min(a, b)", &rows);
    }

    #[test]
    fn lane_interpreter_surfaces_division_errors() {
        let rows = vec![
            vec![Message::present(4i64), Message::present(2i64)],
            vec![Message::present(1i64), Message::present(0i64)],
        ];
        assert_lanes_match("a / b", &rows);
    }

    #[test]
    fn lane_interpreter_matches_on_control_flow() {
        // Lanes split at every `if`, `?` and early-exit builtin call: true,
        // false and absent conditions, absent call arguments, and a
        // division by zero sitting in the branch no lane takes.
        let rows: Vec<Vec<Message>> = vec![
            vec![Message::present(true), Message::present(3.0f64)],
            vec![Message::present(false), Message::present(-2.0f64)],
            vec![Message::Absent, Message::present(9.5f64)],
            vec![Message::present(true), Message::Absent],
            vec![Message::present(false), Message::Absent],
        ];
        for src in [
            "if c then x else 0.0 - x",
            "if c then clamp(x, 0.0, 5.0) else x * 2.0",
            "x ? 1.0",
            "(if c then x else 1.0) ? -1.0",
            "clamp(x, 0.0, 4.0) + 1.0",
            "if present(x) then x / 2.0 else 0.0",
            "if c then abs(x) else max(x, 0.0)",
        ] {
            assert_lanes_match(src, &rows);
        }
        // The untaken branch divides by zero on integers; no lane takes it.
        let ints: Vec<Vec<Message>> = vec![
            vec![Message::present(true), Message::present(4i64)],
            vec![Message::Absent, Message::present(7i64)],
        ];
        assert_lanes_match("if c then x else x / 0", &ints);
    }

    #[test]
    fn lane_interpreter_errors_only_when_a_lane_reaches_the_error() {
        // A non-Boolean condition, a division by zero and an unknown
        // function, each reached by one lane only.
        let rows: Vec<Vec<Message>> = vec![
            vec![Message::present(true), Message::present(1i64)],
            vec![Message::present(2i64), Message::present(1i64)],
        ];
        assert_lanes_match("if c then x else 0", &rows);
        let rows: Vec<Vec<Message>> = vec![
            vec![Message::present(true), Message::present(1i64)],
            vec![Message::present(false), Message::present(0i64)],
        ];
        assert_lanes_match("if c then x else 1 / x", &rows);
        let expr = parse("if c then x else mystery(x)").unwrap();
        let names = expr.free_idents();
        let program = Arc::new(Program::compile(&expr, &names));
        let mut lanes = LaneEval::new(program, Arc::from("m"), 2);
        let mut cols = LaneStore::new(2, 2);
        cols.set(0, 0, &Message::present(true));
        cols.set(0, 1, &Message::present(false));
        cols.set(1, 0, &Message::present(1i64));
        cols.set(1, 1, &Message::present(1i64));
        let ports = [cols.slice(0), cols.slice(1)];
        let mut out = LaneStore::new(1, 2);
        // Lane 1 reaches `mystery` only while active.
        let ok = lanes.step_lanes(0, &ports, &mut out.slice_mut(0), &[true, false]);
        assert!(ok.is_ok());
        assert_eq!(out.decode(0, 0), Message::present(1i64));
        let err = lanes.step_lanes(0, &ports, &mut out.slice_mut(0), &[true, true]);
        assert!(err.is_err());
    }

    #[test]
    fn orelse_and_present_match_ast() {
        let pairs = [("x", Message::Absent), ("y", Message::present(9i64))];
        for src in ["x ? 42", "y ? 42", "present(x)", "present(y)", "x ? y"] {
            let (vm, _) = run(src, &pairs);
            assert_eq!(vm, ast(src, &pairs), "{src}");
        }
    }
}
