//! Typed lane columns for vectorized batch execution.
//!
//! Batched execution ([`ReadyNetwork::run_batch`]) steps K independent
//! scenario lanes through one network. The lanes are independent by
//! construction — the paper's deterministic stream semantics make a tick a
//! pure function of (state, inputs) — so the per-tick inner loop over lanes
//! is data parallel. This module provides the storage and kernel API that
//! lets a node step **all K lanes in one loop over contiguous typed
//! slices** instead of K independent `step_into` calls on `&[Message]`:
//!
//! * Each arena cell (one output or input port) holds K lanes as three
//!   parallel columns: a `u8` tag per lane (the absence mask plus a scalar
//!   type code), a `u64` bit pattern per lane (`f64::to_bits` for floats —
//!   bit-exact, NaN payloads included — the raw `i64` for ints, 0/1 for
//!   bools), and a `Message` per lane consulted only for non-scalar
//!   payloads ([`TAG_OTHER`]: `Fixed`, `Sym`).
//! * [`LaneKernel`] is the lane-batched counterpart of
//!   [`Block::step_into`]/[`Block::commit`]: one call covers all K lanes.
//!   Blocks opt in via [`Block::lane_kernel`]; nodes without a kernel fall
//!   back to per-lane replicas.
//! * The lane loops are written as tight scalar loops over the bit columns
//!   so the compiler can auto-vectorize them.
//!
//! [`ReadyNetwork::run_batch`]: crate::network::ReadyNetwork::run_batch
//! [`Block::step_into`]: crate::ops::Block::step_into
//! [`Block::commit`]: crate::ops::Block::commit
//! [`Block::lane_kernel`]: crate::ops::Block::lane_kernel

use std::fmt;

use crate::error::KernelError;
use crate::ops::{apply_binop, apply_unop, BinOp, UnOp};
use crate::value::{Message, Value};
use crate::{Clock, Tick};

/// Lane tag: the message is absent.
pub const TAG_ABSENT: u8 = 0;
/// Lane tag: present `Value::Float`, bits are `f64::to_bits`.
pub const TAG_F64: u8 = 1;
/// Lane tag: present `Value::Int`, bits are the `i64` reinterpreted.
pub const TAG_I64: u8 = 2;
/// Lane tag: present `Value::Bool`, bits are 0 or 1.
pub const TAG_BOOL: u8 = 3;
/// Lane tag: present non-scalar payload (`Fixed`, `Sym`); the value lives
/// in the parallel `Message` column.
pub const TAG_OTHER: u8 = 4;

/// Encodes a message into a (tag, bits) pair, spilling non-scalar payloads
/// into `other`. `other` is only written (and later read) for
/// [`TAG_OTHER`]; for scalar tags its previous content is simply stale.
#[inline]
pub fn encode(m: &Message, tag: &mut u8, bits: &mut u64, other: &mut Message) {
    match m {
        Message::Absent => *tag = TAG_ABSENT,
        Message::Present(v) => encode_value(v, tag, bits, other),
    }
}

/// Encodes a present value into a (tag, bits) pair; see [`encode`].
#[inline]
pub fn encode_value(v: &Value, tag: &mut u8, bits: &mut u64, other: &mut Message) {
    match v {
        Value::Float(x) => {
            *tag = TAG_F64;
            *bits = x.to_bits();
        }
        Value::Int(i) => {
            *tag = TAG_I64;
            *bits = *i as u64;
        }
        Value::Bool(b) => {
            *tag = TAG_BOOL;
            *bits = u64::from(*b);
        }
        Value::Fixed(_) | Value::Sym(_) => {
            *tag = TAG_OTHER;
            *other = Message::Present(v.clone());
        }
    }
}

/// Decodes a (tag, bits, other) lane back into a message. The round trip
/// through [`encode`] is the identity on every value — floats go through
/// `to_bits`/`from_bits`, so NaN payloads survive bit-exactly.
#[inline]
pub fn decode(tag: u8, bits: u64, other: &Message) -> Message {
    match tag {
        TAG_ABSENT => Message::Absent,
        TAG_F64 => Message::Present(Value::Float(f64::from_bits(bits))),
        TAG_I64 => Message::Present(Value::Int(bits as i64)),
        TAG_BOOL => Message::Present(Value::Bool(bits != 0)),
        _ => other.clone(),
    }
}

/// Decodes a present lane into its value; `None` for [`TAG_ABSENT`].
#[inline]
pub fn decode_value(tag: u8, bits: u64, other: &Message) -> Option<Value> {
    match tag {
        TAG_ABSENT => None,
        TAG_F64 => Some(Value::Float(f64::from_bits(bits))),
        TAG_I64 => Some(Value::Int(bits as i64)),
        TAG_BOOL => Some(Value::Bool(bits != 0)),
        _ => other.value().cloned(),
    }
}

/// A read-only view of one cell's K lanes.
#[derive(Debug, Clone, Copy)]
pub struct LaneSlice<'a> {
    /// Per-lane tags (`TAG_*`): the absence mask plus scalar type codes.
    pub tags: &'a [u8],
    /// Per-lane scalar bit patterns.
    pub bits: &'a [u64],
    /// Per-lane non-scalar payloads, valid where the tag is [`TAG_OTHER`].
    pub other: &'a [Message],
}

impl<'a> LaneSlice<'a> {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the slice has zero lanes.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Decodes lane `l` into a message.
    #[inline]
    pub fn get(&self, l: usize) -> Message {
        decode(self.tags[l], self.bits[l], &self.other[l])
    }

    /// Decodes lane `l` into a value (`None` if absent).
    #[inline]
    pub fn get_value(&self, l: usize) -> Option<Value> {
        decode_value(self.tags[l], self.bits[l], &self.other[l])
    }
}

/// A mutable view of one cell's K lanes.
#[derive(Debug)]
pub struct LaneSliceMut<'a> {
    /// Per-lane tags (`TAG_*`).
    pub tags: &'a mut [u8],
    /// Per-lane scalar bit patterns.
    pub bits: &'a mut [u64],
    /// Per-lane non-scalar payloads, valid where the tag is [`TAG_OTHER`].
    pub other: &'a mut [Message],
}

impl LaneSliceMut<'_> {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the slice has zero lanes.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Reborrows as a read-only slice.
    pub fn as_slice(&self) -> LaneSlice<'_> {
        LaneSlice {
            tags: self.tags,
            bits: self.bits,
            other: self.other,
        }
    }

    /// Encodes `m` into lane `l`.
    #[inline]
    pub fn set(&mut self, l: usize, m: &Message) {
        encode(m, &mut self.tags[l], &mut self.bits[l], &mut self.other[l]);
    }

    /// Encodes a present value into lane `l`.
    #[inline]
    pub fn set_value(&mut self, l: usize, v: &Value) {
        encode_value(v, &mut self.tags[l], &mut self.bits[l], &mut self.other[l]);
    }

    /// Marks lane `l` absent.
    #[inline]
    pub fn set_absent(&mut self, l: usize) {
        self.tags[l] = TAG_ABSENT;
    }

    /// Copies lane `sl` of `src` into lane `l` of `self`.
    #[inline]
    pub fn copy_lane(&mut self, l: usize, src: &LaneSlice<'_>, sl: usize) {
        let tag = src.tags[sl];
        self.tags[l] = tag;
        self.bits[l] = src.bits[sl];
        if tag == TAG_OTHER {
            self.other[l] = src.other[sl].clone();
        }
    }
}

/// Owned column storage for a run of cells, K lanes each. Lanes of one cell
/// are contiguous: cell `c`, lane `l` lives at index `c * k + l`.
#[derive(Debug, Clone)]
pub struct LaneStore {
    k: usize,
    tags: Vec<u8>,
    bits: Vec<u64>,
    other: Vec<Message>,
}

impl LaneStore {
    /// A store of `cells` cells with `k` lanes each, all lanes absent.
    pub fn new(cells: usize, k: usize) -> Self {
        let n = cells * k;
        LaneStore {
            k,
            tags: vec![TAG_ABSENT; n],
            bits: vec![0; n],
            other: vec![Message::Absent; n],
        }
    }

    /// Lanes per cell.
    pub fn lanes(&self) -> usize {
        self.k
    }

    /// Read-only view of cell `cell`.
    #[inline]
    pub fn slice(&self, cell: usize) -> LaneSlice<'_> {
        let r = cell * self.k..(cell + 1) * self.k;
        LaneSlice {
            tags: &self.tags[r.clone()],
            bits: &self.bits[r.clone()],
            other: &self.other[r],
        }
    }

    /// Mutable view of cell `cell`.
    #[inline]
    pub fn slice_mut(&mut self, cell: usize) -> LaneSliceMut<'_> {
        let r = cell * self.k..(cell + 1) * self.k;
        LaneSliceMut {
            tags: &mut self.tags[r.clone()],
            bits: &mut self.bits[r.clone()],
            other: &mut self.other[r],
        }
    }

    /// Decodes lane `lane` of cell `cell` into a message.
    #[inline]
    pub fn decode(&self, cell: usize, lane: usize) -> Message {
        let i = cell * self.k + lane;
        decode(self.tags[i], self.bits[i], &self.other[i])
    }

    /// Encodes `m` into lane `lane` of cell `cell`.
    #[inline]
    pub fn set(&mut self, cell: usize, lane: usize, m: &Message) {
        let i = cell * self.k + lane;
        encode(m, &mut self.tags[i], &mut self.bits[i], &mut self.other[i]);
    }

    /// Marks every lane of the half-open cell range absent (the typed
    /// counterpart of a clock-gated arena clear).
    pub fn clear_cells(&mut self, cells: std::ops::Range<usize>) {
        self.tags[cells.start * self.k..cells.end * self.k].fill(TAG_ABSENT);
    }

    /// Overwrites cell `cell` with cell 0 of `src` (same lane count):
    /// contiguous tag/bit memcpy plus payload clones where tagged
    /// [`TAG_OTHER`].
    pub fn write_cell(&mut self, cell: usize, src: &LaneStore) {
        debug_assert_eq!(self.k, src.k);
        let r = cell * self.k..(cell + 1) * self.k;
        self.tags[r.clone()].copy_from_slice(&src.tags[..self.k]);
        self.bits[r.clone()].copy_from_slice(&src.bits[..self.k]);
        for (dst, l) in r.zip(0..self.k) {
            if src.tags[l] == TAG_OTHER {
                self.other[dst] = src.other[l].clone();
            }
        }
    }
}

/// One lane's failure in a lane-batched step: the lane index and the error
/// that lane would report under per-lane execution.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneFailure {
    /// The failing lane.
    pub lane: usize,
    /// The lane's own error.
    pub error: KernelError,
}

/// A lane-batched block kernel: the vectorized counterpart of
/// [`Block::step_into`] and [`Block::commit`], stepping all K lanes of a
/// single-output node in one call.
///
/// # Contract
///
/// * The kernel starts from the block's **freshly reset** state and must
///   replicate the block's per-lane `step_into`/`commit` semantics exactly
///   (bit-exactly for floats) on every lane where `active[l]` is true.
/// * Lanes where `active[l]` is false (the lane's scenario already ended,
///   or the lane is not routed through this kernel this tick) may receive
///   unspecified garbage in `inputs` and may write unspecified garbage to
///   `out` — the executor never reads those lanes — but the kernel's
///   *state* for inactive lanes must not change.
/// * A fallible kernel either
///   - is **stateless and deterministic**: on error the executor re-runs
///     the node's lanes on a fresh block replica to attribute the error to
///     each failing lane, which is only equivalent when replaying cannot
///     diverge; or
///   - **attributes failures itself** ([`LaneKernel::take_lane_failures`]
///     returns `true`): a failing call still steps every non-failing
///     active lane exactly, returns the lowest failing lane's error, and
///     hands every failing lane's own error to the executor, which then
///     skips the replay. Stateful fallible kernels (the MTD kernel) must
///     take this route.
///
///   Stateful kernels without attribution ([`Delay`], [`UnitDelay`],
///   [`Current`]) must be infallible.
///
/// [`Block::step_into`]: crate::ops::Block::step_into
/// [`Block::commit`]: crate::ops::Block::commit
/// [`Delay`]: crate::ops::Delay
/// [`UnitDelay`]: crate::ops::UnitDelay
/// [`Current`]: crate::ops::Current
pub trait LaneKernel: fmt::Debug {
    /// Computes the tick's output lanes from the instantaneous input lanes.
    ///
    /// `inputs` has one slice per input port (delayed ports read as
    /// all-absent, as in [`Block::step_into`]); `out` is the node's single
    /// output cell.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Block::step_into`]; see the trait-level
    /// contract for how the error is attributed to lanes.
    ///
    /// [`Block::step_into`]: crate::ops::Block::step_into
    fn step_lanes(
        &mut self,
        t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError>;

    /// Observes the tick's final input lanes (state update hook); the
    /// vectorized counterpart of [`Block::commit`].
    ///
    /// [`Block::commit`]: crate::ops::Block::commit
    fn commit_lanes(&mut self, _t: Tick, _inputs: &[LaneSlice<'_>], _active: &[bool]) {}

    /// After a failed [`LaneKernel::step_lanes`]: appends every failing
    /// lane's own error to `failures` in ascending lane order and returns
    /// `true`. The default returns `false` — the kernel is stateless and
    /// the executor attributes its error by replay.
    fn take_lane_failures(&mut self, _failures: &mut Vec<LaneFailure>) -> bool {
        false
    }

    /// Lane `l`'s current state index within the block's
    /// [`Block::coverage_space`]: the lane-wise counterpart of
    /// [`Block::coverage_state`], read once per stepped tick per active
    /// lane on covered runs — must not allocate.
    ///
    /// A kernel of a block that exposes a coverage space must override
    /// this. The default panics: a kernel without discrete state has no
    /// meaningful answer, and a silent 0 would corrupt coverage maps.
    ///
    /// [`Block::coverage_space`]: crate::ops::Block::coverage_space
    /// [`Block::coverage_state`]: crate::ops::Block::coverage_state
    fn coverage_state(&self, _l: usize) -> usize {
        panic!(
            "{self:?}: a lane kernel of a block with a coverage space must \
             override LaneKernel::coverage_state"
        )
    }
}

// ---------------------------------------------------------------------------
// Lane-loop helpers shared by the library kernels and the bytecode VM.
// ---------------------------------------------------------------------------

/// Whether every *active* lane of `s` carries the given tag. A
/// branch-free fold: it auto-vectorizes, where a short-circuiting scan
/// does not.
#[inline]
fn all_tagged(s: &LaneSlice<'_>, tag: u8, active: &[bool]) -> bool {
    active
        .iter()
        .zip(s.tags)
        .fold(true, |acc, (&a, &t)| acc & (!a | (t == tag)))
}

/// Whether every lane is active (branch-free, see [`all_tagged`]).
#[inline]
fn all_active(active: &[bool]) -> bool {
    active.iter().fold(true, |acc, &a| acc & a)
}

/// Applies `f` lane-wise over two `f64` bit columns.
#[inline]
fn f64_map2(a: &[u64], b: &[u64], out: &mut [u64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(f64::from_bits(x), f64::from_bits(y)).to_bits();
    }
}

/// Applies a boolean predicate lane-wise over two `f64` bit columns.
#[inline]
fn f64_cmp2(a: &[u64], b: &[u64], out: &mut [u64], f: impl Fn(f64, f64) -> bool) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = u64::from(f(f64::from_bits(x), f64::from_bits(y)));
    }
}

/// Applies `f` lane-wise over one `f64` bit column.
#[inline]
fn f64_map1(a: &[u64], out: &mut [u64], f: impl Fn(f64) -> f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(f64::from_bits(x)).to_bits();
    }
}

/// Copies every lane of `src` into `out` regardless of activity: a
/// contiguous tag/bit memcpy plus payload clones where tagged
/// [`TAG_OTHER`].
fn copy_all_lanes(out: &mut LaneSliceMut<'_>, src: &LaneSlice<'_>) {
    out.tags.copy_from_slice(src.tags);
    out.bits.copy_from_slice(src.bits);
    if src
        .tags
        .iter()
        .fold(false, |acc, &t| acc | (t == TAG_OTHER))
    {
        for l in 0..src.tags.len() {
            if src.tags[l] == TAG_OTHER {
                out.other[l] = src.other[l].clone();
            }
        }
    }
}

/// Copies all lanes of `src` into `out`. When every lane is active this is
/// a contiguous tag/bit memcpy (plus payload clones where tagged
/// [`TAG_OTHER`]); otherwise only active lanes are copied.
pub fn copy_lanes(out: &mut LaneSliceMut<'_>, src: &LaneSlice<'_>, active: &[bool]) {
    if all_active(active) {
        copy_all_lanes(out, src);
        return;
    }
    // Branch-free blend of the scalar columns, then payload clones for
    // the (rare) active non-scalar lanes.
    let mut any_other = false;
    for (((t, b), &a), (&st, &sb)) in out
        .tags
        .iter_mut()
        .zip(out.bits.iter_mut())
        .zip(active)
        .zip(src.tags.iter().zip(src.bits))
    {
        *t = if a { st } else { *t };
        *b = if a { sb } else { *b };
        any_other |= a & (st == TAG_OTHER);
    }
    if any_other {
        for (l, &a) in active.iter().enumerate() {
            if a && src.tags[l] == TAG_OTHER {
                out.other[l] = src.other[l].clone();
            }
        }
    }
}

/// Lane-batched strict binary operator: for each active lane, absent if
/// either side is absent, else `apply_binop`. All-`f64` columns take tight
/// bit-column loops for the infallible arithmetic and comparison operators,
/// and all-Boolean columns for `and`/`or`.
///
/// # Errors
///
/// Propagates the first [`apply_binop`] error in ascending lane order.
pub fn binop_lanes(
    ctx: &str,
    op: BinOp,
    a: &LaneSlice<'_>,
    b: &LaneSlice<'_>,
    out: &mut LaneSliceMut<'_>,
    active: &[bool],
) -> Result<(), KernelError> {
    if matches!(op, BinOp::And | BinOp::Or)
        && all_tagged(a, TAG_BOOL, active)
        && all_tagged(b, TAG_BOOL, active)
    {
        // Uniform Boolean fast path: bits are 0/1 on every active lane, so
        // the connective is a bitwise op over the columns. Inactive lanes
        // may hold garbage bits; the result is still a well-formed Boolean
        // lane the executor never reads.
        if op == BinOp::And {
            for ((o, &x), &y) in out.bits.iter_mut().zip(a.bits).zip(b.bits) {
                *o = x & y;
            }
        } else {
            for ((o, &x), &y) in out.bits.iter_mut().zip(a.bits).zip(b.bits) {
                *o = x | y;
            }
        }
        out.tags.fill(TAG_BOOL);
        return Ok(());
    }
    if all_tagged(a, TAG_F64, active) && all_tagged(b, TAG_F64, active) {
        // Uniform float fast path. Inactive lanes may hold garbage bits;
        // the ops below cannot error, and the executor never reads
        // inactive output lanes, so computing them is harmless.
        match op {
            BinOp::Add => {
                f64_map2(a.bits, b.bits, out.bits, |x, y| x + y);
                out.tags.fill(TAG_F64);
                return Ok(());
            }
            BinOp::Sub => {
                f64_map2(a.bits, b.bits, out.bits, |x, y| x - y);
                out.tags.fill(TAG_F64);
                return Ok(());
            }
            BinOp::Mul => {
                f64_map2(a.bits, b.bits, out.bits, |x, y| x * y);
                out.tags.fill(TAG_F64);
                return Ok(());
            }
            BinOp::Min => {
                f64_map2(a.bits, b.bits, out.bits, f64::min);
                out.tags.fill(TAG_F64);
                return Ok(());
            }
            BinOp::Max => {
                f64_map2(a.bits, b.bits, out.bits, f64::max);
                out.tags.fill(TAG_F64);
                return Ok(());
            }
            BinOp::Lt => {
                f64_cmp2(a.bits, b.bits, out.bits, |x, y| x < y);
                out.tags.fill(TAG_BOOL);
                return Ok(());
            }
            BinOp::Le => {
                f64_cmp2(a.bits, b.bits, out.bits, |x, y| x <= y);
                out.tags.fill(TAG_BOOL);
                return Ok(());
            }
            BinOp::Gt => {
                f64_cmp2(a.bits, b.bits, out.bits, |x, y| x > y);
                out.tags.fill(TAG_BOOL);
                return Ok(());
            }
            BinOp::Ge => {
                f64_cmp2(a.bits, b.bits, out.bits, |x, y| x >= y);
                out.tags.fill(TAG_BOOL);
                return Ok(());
            }
            BinOp::Eq => {
                f64_cmp2(a.bits, b.bits, out.bits, |x, y| x == y);
                out.tags.fill(TAG_BOOL);
                return Ok(());
            }
            BinOp::Ne => {
                f64_cmp2(a.bits, b.bits, out.bits, |x, y| x != y);
                out.tags.fill(TAG_BOOL);
                return Ok(());
            }
            // Div (division by zero) and Rem fall through to the general
            // per-lane loop.
            _ => {}
        }
    }
    for (l, &is_active) in active.iter().enumerate() {
        if !is_active {
            continue;
        }
        if a.tags[l] == TAG_ABSENT || b.tags[l] == TAG_ABSENT {
            out.set_absent(l);
            continue;
        }
        let va = a.get_value(l).expect("present lane decodes to a value");
        let vb = b.get_value(l).expect("present lane decodes to a value");
        let r = apply_binop(ctx, op, &va, &vb)?;
        out.set_value(l, &r);
    }
    Ok(())
}

/// Lane-batched strict unary operator; see [`binop_lanes`].
///
/// # Errors
///
/// Propagates the first [`apply_unop`] error in ascending lane order.
pub fn unop_lanes(
    ctx: &str,
    op: UnOp,
    a: &LaneSlice<'_>,
    out: &mut LaneSliceMut<'_>,
    active: &[bool],
) -> Result<(), KernelError> {
    match op {
        UnOp::Neg if all_tagged(a, TAG_F64, active) => {
            f64_map1(a.bits, out.bits, |x| -x);
            out.tags.fill(TAG_F64);
            return Ok(());
        }
        UnOp::Abs if all_tagged(a, TAG_F64, active) => {
            f64_map1(a.bits, out.bits, f64::abs);
            out.tags.fill(TAG_F64);
            return Ok(());
        }
        UnOp::Not if all_tagged(a, TAG_BOOL, active) => {
            for (o, &x) in out.bits.iter_mut().zip(a.bits) {
                *o = x ^ 1;
            }
            out.tags.fill(TAG_BOOL);
            return Ok(());
        }
        _ => {}
    }
    for (l, &is_active) in active.iter().enumerate() {
        if !is_active {
            continue;
        }
        if a.tags[l] == TAG_ABSENT {
            out.set_absent(l);
            continue;
        }
        let v = a.get_value(l).expect("present lane decodes to a value");
        let r = apply_unop(ctx, op, &v)?;
        out.set_value(l, &r);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Library lane kernels.
// ---------------------------------------------------------------------------

/// Lane kernel for identity wires: a contiguous column copy.
#[derive(Debug)]
pub struct CopyLanes;

impl LaneKernel for CopyLanes {
    fn step_lanes(
        &mut self,
        _t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        copy_lanes(out, &inputs[0], active);
        Ok(())
    }
}

/// Lane kernel for [`Const`](crate::ops::Const): a broadcast fill at the
/// clock's active ticks.
#[derive(Debug)]
pub struct ConstLanes {
    tag: u8,
    bits: u64,
    proto: Option<Message>,
    clock: Clock,
}

impl ConstLanes {
    /// A broadcast kernel for `value` on `clock`.
    pub fn new(value: &Value, clock: Clock) -> Self {
        let (mut tag, mut bits) = (TAG_ABSENT, 0u64);
        let mut other = Message::Absent;
        encode_value(value, &mut tag, &mut bits, &mut other);
        let proto = (tag == TAG_OTHER).then_some(other);
        ConstLanes {
            tag,
            bits,
            proto,
            clock,
        }
    }
}

impl LaneKernel for ConstLanes {
    fn step_lanes(
        &mut self,
        t: Tick,
        _inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        _active: &[bool],
    ) -> Result<(), KernelError> {
        if self.clock.is_active(t) {
            out.tags.fill(self.tag);
            out.bits.fill(self.bits);
            if let Some(proto) = &self.proto {
                for o in out.other.iter_mut() {
                    *o = proto.clone();
                }
            }
        } else {
            out.tags.fill(TAG_ABSENT);
        }
        Ok(())
    }
}

/// Lane kernel for [`EveryClockGen`](crate::ops::EveryClockGen): a Boolean
/// broadcast of the clock's activity.
#[derive(Debug)]
pub struct EveryLanes {
    clock: Clock,
}

impl EveryLanes {
    /// A gate-stream kernel for `clock`.
    pub fn new(clock: Clock) -> Self {
        EveryLanes { clock }
    }
}

impl LaneKernel for EveryLanes {
    fn step_lanes(
        &mut self,
        t: Tick,
        _inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        _active: &[bool],
    ) -> Result<(), KernelError> {
        out.tags.fill(TAG_BOOL);
        out.bits.fill(u64::from(self.clock.is_active(t)));
        Ok(())
    }
}

/// Lane kernel for [`When`](crate::ops::When): per-lane gated copy.
#[derive(Debug)]
pub struct WhenLanes;

impl LaneKernel for WhenLanes {
    fn step_lanes(
        &mut self,
        _t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        let (data, cond) = (&inputs[0], &inputs[1]);
        for (l, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            if cond.tags[l] == TAG_BOOL && cond.bits[l] != 0 {
                out.copy_lane(l, data, l);
            } else {
                out.set_absent(l);
            }
        }
        Ok(())
    }
}

/// Lane kernel for [`Select`](crate::ops::Select): per-lane conditional copy.
#[derive(Debug)]
pub struct SelectLanes;

impl LaneKernel for SelectLanes {
    fn step_lanes(
        &mut self,
        _t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        let cond = &inputs[0];
        for (l, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            if cond.tags[l] == TAG_BOOL {
                let src = if cond.bits[l] != 0 { 1 } else { 2 };
                out.copy_lane(l, &inputs[src], l);
            } else {
                out.set_absent(l);
            }
        }
        Ok(())
    }
}

/// Lane kernel for [`Merge`](crate::ops::Merge): per-lane first-present copy.
#[derive(Debug)]
pub struct MergeLanes;

impl LaneKernel for MergeLanes {
    fn step_lanes(
        &mut self,
        _t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        for (l, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            match inputs.iter().find(|s| s.tags[l] != TAG_ABSENT) {
                Some(src) => out.copy_lane(l, src, l),
                None => out.set_absent(l),
            }
        }
        Ok(())
    }
}

/// Lane kernel for [`Lift1`](crate::ops::Lift1).
#[derive(Debug)]
pub struct Lift1Lanes {
    name: String,
    op: UnOp,
}

impl Lift1Lanes {
    /// A lifted unary kernel named for diagnostics.
    pub fn new(name: String, op: UnOp) -> Self {
        Lift1Lanes { name, op }
    }
}

impl LaneKernel for Lift1Lanes {
    fn step_lanes(
        &mut self,
        _t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        unop_lanes(&self.name, self.op, &inputs[0], out, active)
    }
}

/// Lane kernel for [`Lift2`](crate::ops::Lift2).
#[derive(Debug)]
pub struct Lift2Lanes {
    name: String,
    op: BinOp,
}

impl Lift2Lanes {
    /// A lifted binary kernel named for diagnostics.
    pub fn new(name: String, op: BinOp) -> Self {
        Lift2Lanes { name, op }
    }
}

impl LaneKernel for Lift2Lanes {
    fn step_lanes(
        &mut self,
        _t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        binop_lanes(&self.name, self.op, &inputs[0], &inputs[1], out, active)
    }
}

/// Lane kernel for [`AddN`](crate::ops::AddN): lane-wise strict n-ary sum.
#[derive(Debug)]
pub struct AddNLanes;

impl LaneKernel for AddNLanes {
    fn step_lanes(
        &mut self,
        _t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        if inputs.iter().all(|s| all_tagged(s, TAG_F64, active)) {
            // All-float columns: accumulate in input order (same
            // association as the per-lane fold, so results are bit-equal).
            out.bits.copy_from_slice(inputs[0].bits);
            for s in &inputs[1..] {
                for (o, &y) in out.bits.iter_mut().zip(s.bits) {
                    *o = (f64::from_bits(*o) + f64::from_bits(y)).to_bits();
                }
            }
            out.tags.fill(TAG_F64);
            return Ok(());
        }
        'lanes: for (l, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            let mut acc: Option<Value> = None;
            for s in inputs {
                match s.get_value(l) {
                    Some(v) => {
                        acc = Some(match acc {
                            None => v,
                            Some(a) => apply_binop("add", BinOp::Add, &a, &v)?,
                        });
                    }
                    None => {
                        out.set_absent(l);
                        continue 'lanes;
                    }
                }
            }
            match acc {
                Some(v) => out.set_value(l, &v),
                None => out.set_absent(l),
            }
        }
        Ok(())
    }
}

/// Lane kernel for [`Current`](crate::ops::Current): per-lane held columns,
/// updated in step (the block is commit-free), always present.
#[derive(Debug)]
pub struct CurrentLanes {
    held: LaneStore,
}

impl CurrentLanes {
    /// A hold kernel seeded with `init` on all `k` lanes.
    pub fn new(init: &Value, k: usize) -> Self {
        let mut held = LaneStore::new(1, k);
        let m = Message::Present(init.clone());
        for l in 0..k {
            held.set(0, l, &m);
        }
        CurrentLanes { held }
    }
}

impl LaneKernel for CurrentLanes {
    fn step_lanes(
        &mut self,
        _t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        let src = &inputs[0];
        let mut held = self.held.slice_mut(0);
        for (l, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            if src.tags[l] != TAG_ABSENT {
                held.copy_lane(l, src, l);
            }
            out.copy_lane(l, &held.as_slice(), l);
        }
        Ok(())
    }
}

/// Lane kernel for [`Delay`](crate::ops::Delay): held columns emitted at
/// active clock ticks, stored from present commit inputs.
#[derive(Debug)]
pub struct DelayLanes {
    clock: Clock,
    held: LaneStore,
}

impl DelayLanes {
    /// A clocked delay kernel seeded with `init` (absent when `None`) on
    /// all `k` lanes.
    pub fn new(init: Option<&Value>, clock: Clock, k: usize) -> Self {
        let mut held = LaneStore::new(1, k);
        if let Some(v) = init {
            let m = Message::Present(v.clone());
            for l in 0..k {
                held.set(0, l, &m);
            }
        }
        DelayLanes { clock, held }
    }
}

impl LaneKernel for DelayLanes {
    fn step_lanes(
        &mut self,
        t: Tick,
        _inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        _active: &[bool],
    ) -> Result<(), KernelError> {
        if self.clock.is_active(t) {
            // Held state is valid for every lane, so copy the full columns
            // contiguously regardless of the active mask.
            copy_all_lanes(out, &self.held.slice(0));
        } else {
            out.tags.fill(TAG_ABSENT);
        }
        Ok(())
    }

    fn commit_lanes(&mut self, t: Tick, inputs: &[LaneSlice<'_>], active: &[bool]) {
        if !self.clock.is_active(t) {
            return;
        }
        let src = &inputs[0];
        let mut held = self.held.slice_mut(0);
        for (l, &is_active) in active.iter().enumerate() {
            if is_active && src.tags[l] != TAG_ABSENT {
                held.copy_lane(l, src, l);
            }
        }
    }
}

/// Lane kernel for [`UnitDelay`](crate::ops::UnitDelay): the commit is a
/// contiguous `copy_from_slice` rotation of the tag/bit columns.
#[derive(Debug)]
pub struct UnitDelayLanes {
    held: LaneStore,
}

impl UnitDelayLanes {
    /// A unit-delay kernel seeded with `init` on all `k` lanes.
    pub fn new(init: &Message, k: usize) -> Self {
        let mut held = LaneStore::new(1, k);
        for l in 0..k {
            held.set(0, l, init);
        }
        UnitDelayLanes { held }
    }
}

impl LaneKernel for UnitDelayLanes {
    fn step_lanes(
        &mut self,
        _t: Tick,
        _inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        _active: &[bool],
    ) -> Result<(), KernelError> {
        copy_all_lanes(out, &self.held.slice(0));
        Ok(())
    }

    fn commit_lanes(&mut self, _t: Tick, inputs: &[LaneSlice<'_>], active: &[bool]) {
        let src = &inputs[0];
        let mut held = self.held.slice_mut(0);
        if all_active(active) {
            // The rotation: next tick's output columns are this tick's
            // final input columns, moved as two contiguous memcpys.
            copy_all_lanes(&mut held, src);
        } else {
            for (l, &is_active) in active.iter().enumerate() {
                if is_active {
                    held.copy_lane(l, src, l);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: &Message) -> Message {
        let (mut tag, mut bits) = (TAG_ABSENT, 0u64);
        let mut other = Message::Absent;
        encode(m, &mut tag, &mut bits, &mut other);
        decode(tag, bits, &other)
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        let cases = [
            Message::Absent,
            Message::present(1.5f64),
            Message::present(-7i64),
            Message::present(i64::MIN),
            Message::present(true),
            Message::present(false),
            Message::Present(Value::Fixed(crate::value::Fixed::from_f64(2.25, 8))),
            Message::Present(Value::sym("MODE_A")),
        ];
        for m in &cases {
            assert_eq!(&roundtrip(m), m);
        }
    }

    #[test]
    fn nan_payloads_survive_bit_exactly() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        assert!(weird.is_nan());
        let m = Message::present(weird);
        match roundtrip(&m) {
            Message::Present(Value::Float(x)) => {
                assert_eq!(x.to_bits(), weird.to_bits());
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Negative zero too.
        match roundtrip(&Message::present(-0.0f64)) {
            Message::Present(Value::Float(x)) => {
                assert_eq!(x.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// Columns built from per-lane messages.
    fn store_from(msgs: &[Message]) -> LaneStore {
        let mut s = LaneStore::new(1, msgs.len());
        for (l, m) in msgs.iter().enumerate() {
            s.set(0, l, m);
        }
        s
    }

    #[test]
    fn binop_lanes_matches_per_lane_apply() {
        let a = store_from(&[
            Message::present(1.0f64),
            Message::Absent,
            Message::present(3i64),
            Message::present(-2.0f64),
        ]);
        let b = store_from(&[
            Message::present(2.0f64),
            Message::present(1.0f64),
            Message::present(4i64),
            Message::present(0.5f64),
        ]);
        let active = vec![true; 4];
        for op in [BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Lt, BinOp::Eq] {
            let mut out = LaneStore::new(1, 4);
            binop_lanes(
                "t",
                op,
                &a.slice(0),
                &b.slice(0),
                &mut out.slice_mut(0),
                &active,
            )
            .unwrap();
            for l in 0..4 {
                let expect = match (a.decode(0, l).value(), b.decode(0, l).value()) {
                    (Some(x), Some(y)) => Message::Present(apply_binop("t", op, x, y).unwrap()),
                    _ => Message::Absent,
                };
                assert_eq!(out.decode(0, l), expect, "op {op:?} lane {l}");
            }
        }
    }

    #[test]
    fn binop_lanes_fast_path_is_bit_exact_on_nan() {
        let weird = f64::from_bits(0x7ff8_0000_0000_1234);
        let a = store_from(&[Message::present(weird), Message::present(1.0f64)]);
        let b = store_from(&[Message::present(1.0f64), Message::present(weird)]);
        let mut out = LaneStore::new(1, 2);
        binop_lanes(
            "t",
            BinOp::Mul,
            &a.slice(0),
            &b.slice(0),
            &mut out.slice_mut(0),
            &[true, true],
        )
        .unwrap();
        for l in 0..2 {
            match out.decode(0, l) {
                Message::Present(Value::Float(x)) => {
                    assert_eq!(x.to_bits(), (weird * 1.0).to_bits());
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn binop_lanes_skips_inactive_garbage() {
        // Lane 1 is inactive and holds a type-mismatching pair that would
        // error if applied; the kernel must ignore it.
        let a = store_from(&[Message::present(true), Message::present(1i64)]);
        let b = store_from(&[Message::present(false), Message::present(true)]);
        let mut out = LaneStore::new(1, 2);
        binop_lanes(
            "t",
            BinOp::And,
            &a.slice(0),
            &b.slice(0),
            &mut out.slice_mut(0),
            &[true, false],
        )
        .unwrap();
        assert_eq!(out.decode(0, 0), Message::present(false));
    }

    #[test]
    fn bool_connectives_match_per_lane_apply() {
        let t = Message::present(true);
        let f = Message::present(false);
        // Uniform Boolean columns (fast path), then with an absent lane
        // mixed in (generic path).
        let uniform_a = [t.clone(), t.clone(), f.clone(), f.clone()];
        let uniform_b = [t.clone(), f.clone(), t.clone(), f.clone()];
        let mut absent_a = uniform_a.clone();
        absent_a[1] = Message::Absent;
        for (xs, ys) in [(&uniform_a, &uniform_b), (&absent_a, &uniform_b)] {
            let (a, b) = (store_from(xs), store_from(ys));
            for op in [BinOp::And, BinOp::Or] {
                let mut out = LaneStore::new(1, 4);
                binop_lanes(
                    "t",
                    op,
                    &a.slice(0),
                    &b.slice(0),
                    &mut out.slice_mut(0),
                    &[true; 4],
                )
                .unwrap();
                for l in 0..4 {
                    let expect = match (xs[l].value(), ys[l].value()) {
                        (Some(x), Some(y)) => Message::Present(apply_binop("t", op, x, y).unwrap()),
                        _ => Message::Absent,
                    };
                    assert_eq!(out.decode(0, l), expect, "op {op:?} lane {l}");
                }
            }
        }
    }

    #[test]
    fn bool_connectives_keep_generic_error_text_on_mixed_tags() {
        // Lane 1 pairs a Boolean with an Int: the fast path must not apply,
        // and the generic path reports exactly `apply_binop`'s error.
        let a = store_from(&[Message::present(true), Message::present(true)]);
        let b = store_from(&[Message::present(false), Message::present(3i64)]);
        let mut out = LaneStore::new(1, 2);
        let err = binop_lanes(
            "ctx",
            BinOp::Or,
            &a.slice(0),
            &b.slice(0),
            &mut out.slice_mut(0),
            &[true, true],
        )
        .unwrap_err();
        let expect = apply_binop("ctx", BinOp::Or, &Value::Bool(true), &Value::Int(3)).unwrap_err();
        assert_eq!(err, expect);
        assert_eq!(err.to_string(), expect.to_string());
    }

    #[test]
    fn bool_fast_path_ignores_inactive_garbage() {
        // Lane 1 is inactive and carries a float and an absent: the active
        // lanes are uniformly Boolean, so the bitwise path runs and lane 1's
        // output is never read.
        let a = store_from(&[
            Message::present(true),
            Message::present(2.5f64),
            Message::present(false),
        ]);
        let b = store_from(&[
            Message::present(true),
            Message::Absent,
            Message::present(true),
        ]);
        let active = [true, false, true];
        for (op, expect) in [(BinOp::And, [true, false]), (BinOp::Or, [true, true])] {
            let mut out = LaneStore::new(1, 3);
            binop_lanes(
                "t",
                op,
                &a.slice(0),
                &b.slice(0),
                &mut out.slice_mut(0),
                &active,
            )
            .unwrap();
            assert_eq!(out.decode(0, 0), Message::present(expect[0]), "{op:?}");
            assert_eq!(out.decode(0, 2), Message::present(expect[1]), "{op:?}");
        }
    }

    #[test]
    fn unit_delay_lanes_rotate() {
        let mut d = UnitDelayLanes::new(&Message::Absent, 3);
        let active = vec![true; 3];
        let inp = store_from(&[
            Message::present(1.0f64),
            Message::Absent,
            Message::present(2i64),
        ]);
        let mut out = LaneStore::new(1, 3);
        d.step_lanes(0, &[], &mut out.slice_mut(0), &active)
            .unwrap();
        assert!(out.decode(0, 0).is_absent());
        d.commit_lanes(0, &[inp.slice(0)], &active);
        d.step_lanes(1, &[], &mut out.slice_mut(0), &active)
            .unwrap();
        assert_eq!(out.decode(0, 0), Message::present(1.0f64));
        assert!(out.decode(0, 1).is_absent());
        assert_eq!(out.decode(0, 2), Message::present(2i64));
    }
}
