//! Discrete-event scheduling: compiling clock structure into firing events.
//!
//! One static clock analysis (`derive_activity`) bounds every node's
//! activity by a symbolic clock, derived from the blocks'
//! [`ClockBehavior`] contracts in schedule order. [`compile`] turns it into
//! an event-driven [`Engine`] with two backends:
//!
//! * **Wheel** — per-phase node lists over one hyperperiod, sampled from
//!   the activity clocks, annotated with which phases are *quiet* (no node
//!   steps, commits, or clears), so the run loops fast-forward silent
//!   stretches in O(1) per tick.
//! * **Heap** — for networks whose clock lcm exceeds the wheel caps: a
//!   calendar of `(next_tick, node)` events over the activity clocks
//!   produces the activation set for exactly the ticks where something
//!   fires. Silent gaps between events are skipped outright.
//!
//! Both backends feed the stepping loops one [`Activation`] per working
//! tick — the nodes to step, the commit list and the arena-clear list.
//! Every list is a subsequence of the causality check's order
//! ([`crate::causality::check`]), the order the dense schedule and the
//! reference executor step, so every engine meets a failing block in the
//! same order.
//!
//! ## Soundness
//!
//! Activity is always an *upper bound*: a node may be listed as firing on a
//! tick where its clock contract makes it inert. That is safe because the
//! [`ClockBehavior`](crate::ops::ClockBehavior) contracts guarantee inert
//! nodes are self-absent — stepping one produces absent outputs and no
//! state change, exactly what the dense executor does every tick. What is
//! *never* allowed is the converse: skipping a node on a tick where it
//! could act. The heap's [`Clock::next_active_from`] lower bound and the
//! wheel's sampled phase patterns both maintain that invariant.

use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use crate::clock::checked_lcm;
use crate::ops::ClockBehavior;
use crate::{Clock, Tick};

/// Upper bound on the hyperperiod a wheel plan may cover; larger lcms of
/// declared periods fall through to the heap backend.
pub(crate) const MAX_HYPERPERIOD: u64 = 4096;
/// Upper bound on `hyperperiod * node_count`, bounding wheel plan memory.
pub(crate) const MAX_PLAN_CELLS: u64 = 1 << 20;

/// A compiled input-port source, distilled from the network wiring for the
/// clock analysis (mirrors the private `Source` of [`crate::network`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcRef {
    /// Unconnected: always absent.
    Open,
    /// Wired to a named external input: presence unknowable, assume always.
    External,
    /// Wired to output `port` of node `node`.
    Node {
        /// Producing node index.
        node: usize,
        /// Producing output port.
        port: usize,
    },
}

/// Per-node facts the engine compiler needs, distilled by
/// [`crate::network::Network::prepare`] (which also applies the behavior
/// soundness demotions before handing them over).
#[derive(Debug)]
pub(crate) struct NodeMeta {
    /// The node's (already demoted) clock behavior contract.
    pub behavior: ClockBehavior,
    /// Resolved source of each input port.
    pub sources: Vec<SrcRef>,
}

/// Why no hyperperiod wheel was compiled for a network.
///
/// Reported through [`PlanInfo`] instead of a silent `None`, so callers can
/// see *which* cap or structural property rejected the plan — and whether
/// the heap backend picked the network up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanRejection {
    /// The network has no nodes.
    EmptyNetwork,
    /// No block declares a non-trivial clock (hyperperiod of one).
    NoDeclaredClocks,
    /// The lcm of declared periods exceeds the wheel cap.
    HyperperiodCap {
        /// The running lcm when the cap was exceeded.
        hyperperiod: u64,
        /// The cap it exceeded.
        cap: u64,
    },
    /// `hyperperiod * node_count` exceeds the wheel memory cap.
    PlanCells {
        /// The cell count that exceeded the cap.
        cells: u64,
        /// The cap it exceeded.
        cap: u64,
    },
    /// Clock period arithmetic overflowed `u64`.
    ClockOverflow,
    /// Clocks are declared but no node is ever provably inert.
    NoInertNodes,
}

impl fmt::Display for PlanRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanRejection::EmptyNetwork => write!(f, "network has no nodes"),
            PlanRejection::NoDeclaredClocks => write!(f, "no non-trivial declared clocks"),
            PlanRejection::HyperperiodCap { hyperperiod, cap } => {
                write!(f, "hyperperiod {hyperperiod} exceeds wheel cap {cap}")
            }
            PlanRejection::PlanCells { cells, cap } => {
                write!(f, "plan size {cells} cells exceeds cap {cap}")
            }
            PlanRejection::ClockOverflow => write!(f, "clock period arithmetic overflowed"),
            PlanRejection::NoInertNodes => write!(f, "no node is ever provably inert"),
        }
    }
}

/// Which backend the compiled engine runs ticks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Full schedule every tick (no usable clock structure, or gating
    /// disabled).
    Dense,
    /// Per-phase wheel over the hyperperiod with quiet-phase fast-forward.
    Wheel,
    /// Calendar heap of per-node firing events (hyperperiod over the wheel
    /// caps).
    Heap,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Dense => write!(f, "dense"),
            EngineKind::Wheel => write!(f, "wheel"),
            EngineKind::Heap => write!(f, "heap"),
        }
    }
}

/// How a prepared network will execute ticks, including why the wheel was
/// rejected when it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanInfo {
    /// The engine backend in effect.
    pub kind: EngineKind,
    /// The wheel's hyperperiod, when one was compiled.
    pub hyperperiod: Option<u64>,
    /// Why no wheel was compiled (`None` when one was). Set even when the
    /// heap backend covers the network — it explains *why* the heap is in
    /// use.
    pub wheel_rejection: Option<PlanRejection>,
}

impl fmt::Display for PlanInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine={}", self.kind)?;
        if let Some(h) = self.hyperperiod {
            write!(f, " hyperperiod={h}")?;
        }
        if let Some(r) = &self.wheel_rejection {
            write!(f, " wheel-rejected: {r}")?;
        }
        Ok(())
    }
}

/// A deterministic discrete-event calendar: a min-heap of `(time, event)`
/// entries with FIFO ordering among same-time entries.
///
/// This is the shared substrate under every calendar in the workspace: the
/// [`Engine::Heap`] network cursor keeps its firing and clear events here,
/// and the platform crate drives its OSEK task releases, CAN frame
/// queuings, and co-simulation alarms off the same type. Determinism is
/// structural — ties on `time` resolve by insertion order (a monotone
/// sequence number), never by heap internals — so any simulation built on
/// it replays bit-identically.
#[derive(Debug, Clone, Default)]
pub struct Calendar<E> {
    heap: BinaryHeap<CalEntry<E>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct CalEntry<E> {
    time: Tick,
    seq: u64,
    ev: E,
}

// Ordering is by (time, seq) only — `E` never participates, so no bounds
// leak onto the event payload. `BinaryHeap` is a max-heap; reverse the
// comparison to pop the earliest entry first.
impl<E> PartialEq for CalEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for CalEntry<E> {}
impl<E> PartialOrd for CalEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for CalEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `ev` to fire at `time`. Entries scheduled for the same
    /// time pop in the order they were scheduled.
    pub fn schedule(&mut self, time: Tick, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(CalEntry { time, seq, ev });
    }

    /// The earliest pending fire time, if any.
    pub fn next_time(&self) -> Option<Tick> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest entry.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        self.heap.pop().map(|e| (e.time, e.ev))
    }

    /// Pops the earliest entry if it is due at or before `time`.
    pub fn pop_due(&mut self, time: Tick) -> Option<(Tick, E)> {
        if self.next_time()? <= time {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending entries (the sequence counter keeps advancing, so
    /// FIFO ties stay well-defined across a clear).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// One working tick's activation sets, borrowed from whichever backend
/// produced them. The executors consume this and nothing else — the
/// schedule walk is identical across backends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Activation<'a> {
    /// Nodes to step, in schedule order, inert ones removed.
    pub nodes: &'a [usize],
    /// Commit-pass nodes, in schedule order, inert ones removed.
    pub commits: &'a [usize],
    /// Nodes whose arena outputs must be cleared to absent this tick
    /// (they just went inert).
    pub clears: &'a [usize],
}

/// The compiled clock engine of a prepared network.
#[derive(Debug, Clone)]
pub(crate) enum Engine {
    /// Run the full schedule every tick.
    Dense,
    /// Hyperperiod wheel (shared so cheap per-tick clones stay cheap).
    Wheel(Arc<WheelPlan>),
    /// Calendar heap over symbolic activity clocks.
    Heap(Arc<HeapPlan>),
}

impl Engine {
    /// The backend discriminant for [`PlanInfo`].
    pub fn kind(&self) -> EngineKind {
        match self {
            Engine::Dense => EngineKind::Dense,
            Engine::Wheel(_) => EngineKind::Wheel,
            Engine::Heap(_) => EngineKind::Heap,
        }
    }
}

/// The hyperperiod wheel: per-phase schedules plus quiet-phase annotation.
///
/// Phase `p` describes ticks `t >= settle` with
/// `(t - settle) % hyperperiod == p`. Ticks before `settle` — where clocks
/// with unnormalized phase offsets may still be settling — run the full
/// ungated schedule.
#[derive(Debug)]
pub(crate) struct WheelPlan {
    /// Least common multiple of every declared clock period.
    pub hyperperiod: u64,
    /// First tick from which every declared clock is strictly periodic,
    /// rounded up to a hyperperiod multiple.
    pub settle: Tick,
    /// `phase_nodes[p]`: the schedule order with the nodes inert at phase
    /// `p` removed.
    pub phase_nodes: Vec<Vec<usize>>,
    /// `phase_commits[p]`: the commit pass with inert nodes removed.
    pub phase_commits: Vec<Vec<usize>>,
    /// Nodes that go inert at phase `p` after being active at the previous
    /// phase: their arena outputs are cleared to absent once, and the skip
    /// keeps them absent until they reactivate.
    pub phase_clears: Vec<Vec<usize>>,
    /// Nodes inert at phase 0, cleared once when gating first engages.
    pub entry_clears: Vec<usize>,
    /// `quiet[p]`: phase `p` does no work at all — no steps, commits, or
    /// clears — so ticks landing on it can be skipped without touching the
    /// schedule.
    pub quiet: Vec<bool>,
    /// `quiet_run[p]`: number of consecutive quiet phases starting at `p`
    /// (circular), `u64::MAX` when every phase is quiet. Makes the quiet
    /// horizon an O(1) lookup instead of a per-tick scan.
    pub quiet_run: Vec<u64>,
    /// Whether the entry tick (`t == settle`, phase 0 with entry clears)
    /// is quiet.
    pub entry_quiet: bool,
    /// Any phase at all is quiet (fast-out for dense wheels).
    pub any_quiet: bool,
}

impl WheelPlan {
    /// The phase of tick `t`, or `None` while clocks are still settling.
    #[inline]
    pub fn phase_of(&self, t: Tick) -> Option<usize> {
        (t >= self.settle).then(|| ((t - self.settle) % self.hyperperiod) as usize)
    }

    /// The arena-clear list for tick `t` at phase `p`.
    #[inline]
    pub fn clears(&self, t: Tick, p: usize) -> &[usize] {
        if t == self.settle {
            &self.entry_clears
        } else {
            &self.phase_clears[p]
        }
    }

    /// The exclusive end of the quiet stretch starting at tick `t`, capped
    /// at `limit`. Returns `t` itself when tick `t` does work (including
    /// all pre-settle ticks, which run the full schedule). O(1): one run
    /// table lookup instead of a tick-by-tick scan.
    pub fn quiet_until(&self, t: Tick, limit: Tick) -> Tick {
        if !self.any_quiet || t < self.settle || t >= limit {
            return t;
        }
        let p = ((t - self.settle) % self.hyperperiod) as usize;
        // The entry tick swaps `phase_clears[0]` for `entry_clears`, so its
        // quietness differs from the steady-state phase 0; every later tick
        // of the stretch is steady-state and the run table applies.
        let first_quiet = if t == self.settle {
            self.entry_quiet
        } else {
            self.quiet[p]
        };
        if !first_quiet {
            return t;
        }
        let next_p = if p as u64 + 1 == self.hyperperiod {
            0
        } else {
            p + 1
        };
        let end = t.saturating_add(1).saturating_add(self.quiet_run[next_p]);
        end.min(limit)
    }
}

/// Symbolic per-node activity derived from the clock contracts.
#[derive(Debug, Clone)]
enum Act {
    /// May be active at every tick (or not skippable at all).
    Always,
    /// Provably never active.
    Never,
    /// Active at most on the clock's active ticks.
    On(Clock),
}

/// Cap on the structural size of a derived activity clock; larger
/// expressions degrade to [`Act::Always`] (sound — the node just stops
/// being skippable) rather than growing without bound along deep chains.
const MAX_ACT_CLOCK_SIZE: usize = 64;

fn clock_size(c: &Clock) -> usize {
    match c {
        Clock::Base | Clock::Every { .. } => 1,
        Clock::And(a, b) | Clock::Or(a, b) => 1 + clock_size(a) + clock_size(b),
    }
}

impl Act {
    /// Activity bound from a clock, normalizing the trivial ends: an
    /// always-active clock (e.g. `Clock::Base` on base-rate arithmetic)
    /// must become [`Act::Always`], or every base-rate node would count as
    /// "event-driven with period 1" and churn through the calendar heap on
    /// every single tick.
    fn on(c: &Clock) -> Act {
        if c.is_never_active() {
            Act::Never
        } else if c.is_always_active() {
            Act::Always
        } else {
            Act::On(c.clone())
        }
    }

    fn and(self, other: Act) -> Act {
        match (self, other) {
            (Act::Never, _) | (_, Act::Never) => Act::Never,
            (Act::Always, x) | (x, Act::Always) => x,
            (Act::On(a), Act::On(b)) => {
                if a == b {
                    Act::On(a)
                } else if clock_size(&a) + clock_size(&b) >= MAX_ACT_CLOCK_SIZE {
                    // Refusing to grow the expression is sound for `and`:
                    // keeping just one operand widens the activity bound.
                    Act::On(a)
                } else {
                    Act::On(a.and(b))
                }
            }
        }
    }

    fn or(self, other: Act) -> Act {
        match (self, other) {
            (Act::Always, _) | (_, Act::Always) => Act::Always,
            (Act::Never, x) | (x, Act::Never) => x,
            (Act::On(a), Act::On(b)) => {
                if a == b {
                    Act::On(a)
                } else if clock_size(&a) + clock_size(&b) >= MAX_ACT_CLOCK_SIZE {
                    // For `or` neither operand alone is an upper bound;
                    // widen all the way to Always.
                    Act::Always
                } else {
                    Act::On(a.or(b))
                }
            }
        }
    }
}

/// The calendar-heap plan: symbolic activity clocks for networks whose
/// hyperperiod exceeds the wheel caps.
#[derive(Debug)]
pub(crate) struct HeapPlan {
    /// `clock_of[i]`: the activity clock of skippable node `i`
    /// (`None` = not event-driven: either always active or never active).
    pub clock_of: Vec<Option<Clock>>,
    /// `never[i]`: node `i` is skippable and provably never active.
    pub never: Vec<bool>,
    /// `rank[i]`: node `i`'s position in the schedule order.
    pub rank: Vec<usize>,
    /// `needs_commit[i]` per node.
    pub needs_commit: Vec<bool>,
    /// Always-active nodes in schedule order: the activation served
    /// directly on event-free ticks. When non-empty, no tick is quiet.
    pub base_nodes: Vec<usize>,
    /// Always-active commit nodes, in schedule order.
    pub base_commits: Vec<usize>,
}

/// The runtime cursor over a [`HeapPlan`]: pending firing and clear events
/// plus the reused activation buffers for the current tick.
///
/// The cursor is positional — valid for one specific next tick. Executors
/// call [`HeapState::prepare`] per working tick and
/// [`HeapState::quiet_until`] to fast-forward gaps; any out-of-sequence
/// tick (mode switches, dense fault ticks in between) triggers a
/// conservative O(n) rebuild.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeapState {
    /// The tick the calendars are positioned at (`primed` guards first use).
    next_t: Tick,
    primed: bool,
    /// Pending node firing events, min-ordered by tick.
    fires: Calendar<usize>,
    /// Pending node arena-clear events, min-ordered by tick.
    clears: Calendar<usize>,
    /// Reused per-tick activation buffers. `nodes` and `commits` are
    /// rebuilt only on ticks where some node fires; otherwise the plan's
    /// base lists are served directly.
    nodes: Vec<usize>,
    commits: Vec<usize>,
    clear_list: Vec<usize>,
    fired: Vec<usize>,
}

impl HeapState {
    /// Repositions the calendar at tick `t` from scratch. Conservative:
    /// every event-driven node not firing at `t` gets a clear event, so
    /// stale arena values from whatever ran before (dense fault ticks, a
    /// different engine mode) are flushed.
    fn rebuild(&mut self, plan: &HeapPlan, t: Tick) {
        self.fires.clear();
        self.clears.clear();
        for (i, c) in plan.clock_of.iter().enumerate() {
            if plan.never[i] {
                self.clears.schedule(t, i);
                continue;
            }
            let Some(c) = c else { continue };
            match c.next_active_from(t) {
                Some(next) => {
                    self.fires.schedule(next, i);
                    if next > t {
                        self.clears.schedule(t, i);
                    }
                }
                // Never fires again in representable time; keep it absent.
                None => self.clears.schedule(t, i),
            }
        }
        self.next_t = t;
        self.primed = true;
    }

    /// Positions the calendar at tick `t` and materializes its activation
    /// sets into the reused buffers (readable via [`HeapState::activation`]
    /// until the next call).
    pub fn prepare(&mut self, plan: &HeapPlan, t: Tick) {
        if !self.primed || self.next_t != t {
            self.rebuild(plan, t);
        }

        self.clear_list.clear();
        while let Some((_, i)) = self.clears.pop_due(t) {
            self.clear_list.push(i);
        }

        self.fired.clear();
        while let Some((_, i)) = self.fires.pop_due(t) {
            self.fired.push(i);
        }

        self.next_t = t + 1;
        self.clear_list.sort_unstable();
        if self.fired.is_empty() {
            // Nothing fires at `t`: the activation is the plan's base
            // lists, no buffer rebuild needed. On sparse networks this is
            // the overwhelmingly common working tick.
            return;
        }
        self.fired.sort_unstable_by_key(|&i| plan.rank[i]);

        // Merge the fired nodes into the always-active ones in one pass,
        // both in schedule order; the commit list follows from it.
        self.nodes.clear();
        let mut fired = self.fired.iter().copied().peekable();
        for &b in &plan.base_nodes {
            while let Some(f) = fired.next_if(|&f| plan.rank[f] < plan.rank[b]) {
                self.nodes.push(f);
            }
            self.nodes.push(b);
        }
        self.nodes.extend(fired);
        self.commits.clear();
        self.commits
            .extend(self.nodes.iter().copied().filter(|&i| plan.needs_commit[i]));

        // Reschedule everything that fired; a gap before the next firing
        // schedules one clear so the skipped stretch reads absent.
        for &i in &self.fired {
            let c = plan.clock_of[i]
                .as_ref()
                .expect("fired nodes carry a clock");
            let after = t + 1;
            match c.next_active_from(after) {
                Some(next) => {
                    self.fires.schedule(next, i);
                    if next > after {
                        self.clears.schedule(after, i);
                    }
                }
                None => self.clears.schedule(after, i),
            }
        }
    }

    /// The activation sets materialized by the last [`HeapState::prepare`].
    pub fn activation<'a>(&'a self, plan: &'a HeapPlan) -> Activation<'a> {
        let (nodes, commits) = if self.fired.is_empty() {
            (&plan.base_nodes, &plan.base_commits)
        } else {
            (&self.nodes, &self.commits)
        };
        Activation {
            nodes,
            commits,
            clears: &self.clear_list,
        }
    }

    /// The exclusive end of the event-free stretch starting at tick `t`,
    /// capped at `limit`; positions the cursor there. Returns `t` when
    /// tick `t` has pending events (or the plan has always-active nodes,
    /// in which case no tick is quiet).
    pub fn quiet_until(&mut self, plan: &HeapPlan, t: Tick, limit: Tick) -> Tick {
        if !plan.base_nodes.is_empty() {
            return t;
        }
        if !self.primed || self.next_t != t {
            self.rebuild(plan, t);
        }
        let next_event = [self.fires.next_time(), self.clears.next_time()]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Tick::MAX);
        let end = next_event.max(t).min(limit);
        self.next_t = end;
        end
    }
}

/// Compiles the distilled clock facts into an [`Engine`], reporting why
/// the wheel was rejected when it was. `order` is the causality check's
/// evaluation order and `commit_nodes` the commit-pass nodes in that order.
pub(crate) fn compile(
    meta: &[NodeMeta],
    order: &[usize],
    commit_nodes: &[usize],
) -> (Engine, Option<PlanRejection>) {
    let n = meta.len();
    if n == 0 {
        return (Engine::Dense, Some(PlanRejection::EmptyNetwork));
    }

    // Fold the hyperperiod with overflow-checked arithmetic.
    let mut h: u64 = 1;
    let mut max_phase: u64 = 0;
    let mut rejection: Option<PlanRejection> = None;
    for m in meta {
        if let ClockBehavior::Declared(c) | ClockBehavior::BoolGate(c) = &m.behavior {
            let p = match c.checked_period() {
                Ok(p) => p,
                Err(_) => {
                    rejection = Some(PlanRejection::ClockOverflow);
                    break;
                }
            };
            h = match checked_lcm(h, p) {
                Ok(v) => v,
                Err(_) => {
                    rejection = Some(PlanRejection::ClockOverflow);
                    break;
                }
            };
            if h > MAX_HYPERPERIOD {
                rejection = Some(PlanRejection::HyperperiodCap {
                    hyperperiod: h,
                    cap: MAX_HYPERPERIOD,
                });
                break;
            }
            max_phase = max_phase.max(c.max_phase());
        }
    }
    if rejection.is_none() {
        if h <= 1 {
            rejection = Some(PlanRejection::NoDeclaredClocks);
        } else {
            let cells = h.saturating_mul(n as u64);
            if cells > MAX_PLAN_CELLS {
                rejection = Some(PlanRejection::PlanCells {
                    cells,
                    cap: MAX_PLAN_CELLS,
                });
            }
        }
    }

    let act = || derive_activity(meta, order);
    match rejection {
        None => match compile_wheel(&act(), order, commit_nodes, h, max_phase) {
            Some(wheel) => (Engine::Wheel(Arc::new(wheel)), None),
            None => (Engine::Dense, Some(PlanRejection::NoInertNodes)),
        },
        // Size-cap rejections are exactly the networks the heap backend is
        // for; structural rejections (no clocks at all) stay dense.
        Some(
            r @ (PlanRejection::HyperperiodCap { .. }
            | PlanRejection::PlanCells { .. }
            | PlanRejection::ClockOverflow),
        ) => match compile_heap(&act(), order, commit_nodes) {
            Some(heap) => (Engine::Heap(Arc::new(heap)), Some(r)),
            None => (Engine::Dense, Some(r)),
        },
        Some(r) => (Engine::Dense, Some(r)),
    }
}

/// Derives every node's activity bound from the clock contracts, in
/// schedule order so instantaneous sources resolve first. The invariant:
/// a node is inactive at `t` only if it is provably inert there — outputs
/// absent, no state change, no error. Nodes that are not skippable at all
/// get [`Act::Always`].
fn derive_activity(meta: &[NodeMeta], order: &[usize]) -> Vec<Act> {
    let src_act = |src: SrcRef, act: &[Act]| -> Act {
        match src {
            SrcRef::Open => Act::Never,
            SrcRef::External => Act::Always,
            SrcRef::Node { node, .. } => act[node].clone(),
        }
    };
    let mut act: Vec<Act> = vec![Act::Always; meta.len()];
    // A `BoolGate` node's output is always present; its *value* pattern
    // gates any sampler it feeds.
    let mut gate: Vec<Option<Clock>> = vec![None; meta.len()];
    for &i in order {
        let sources = &meta[i].sources;
        match &meta[i].behavior {
            ClockBehavior::Opaque => {}
            ClockBehavior::Declared(c) => act[i] = Act::on(c),
            ClockBehavior::BoolGate(c) => gate[i] = Some(c.clone()),
            ClockBehavior::StrictEach(ports) => {
                act[i] = ports
                    .iter()
                    .fold(Act::Always, |a, &p| a.and(src_act(sources[p], &act)));
            }
            // No message inputs read: a constant expression, always live.
            ClockBehavior::StrictAll(ports) if ports.is_empty() => {}
            ClockBehavior::StrictAll(ports) => {
                act[i] = ports
                    .iter()
                    .fold(Act::Never, |a, &p| a.or(src_act(sources[p], &act)));
            }
            ClockBehavior::Sampler { cond } => {
                let mut a = sources
                    .iter()
                    .fold(Act::Always, |a, &src| a.and(src_act(src, &act)));
                if let SrcRef::Node { node, port: 0 } = sources[*cond] {
                    if let Some(g) = &gate[node] {
                        a = a.and(Act::on(g));
                    }
                }
                act[i] = a;
            }
            ClockBehavior::Passthrough => match sources[0] {
                SrcRef::Open => act[i] = Act::Never,
                SrcRef::External => {}
                SrcRef::Node { node, port } => {
                    act[i] = act[node].clone();
                    if port == 0 {
                        gate[i] = gate[node].clone();
                    }
                }
            },
        }
    }
    act
}

/// Compiles the per-phase wheel by sampling the activity clocks over one
/// hyperperiod, plus quiet-phase annotation. Returns `None` when no node
/// is ever provably inert.
fn compile_wheel(
    act: &[Act],
    order: &[usize],
    commit_nodes: &[usize],
    h: u64,
    max_phase: u64,
) -> Option<WheelPlan> {
    let n = act.len();
    // Clocks with unnormalized phase offsets (constructible through the pub
    // `Every` fields) are only *eventually* periodic; gating engages at the
    // first hyperperiod boundary past every offset.
    let settle: Tick = max_phase.div_ceil(h) * h;
    let hh = h as usize;
    // `inert[i][p]`: node `i` is provably inert at every gated tick of
    // phase `p`.
    let inert: Vec<Vec<bool>> = act
        .iter()
        .map(|a| match a {
            Act::Always => vec![false; hh],
            Act::Never => vec![true; hh],
            Act::On(c) => (0..h).map(|p| !c.is_active(settle + p)).collect(),
        })
        .collect();
    if !inert.iter().flatten().any(|&x| x) {
        return None;
    }

    let live = |list: &[usize], p: usize| -> Vec<usize> {
        list.iter().copied().filter(|&i| !inert[i][p]).collect()
    };
    let phase_nodes: Vec<Vec<usize>> = (0..hh).map(|p| live(order, p)).collect();
    let phase_commits: Vec<Vec<usize>> = (0..hh).map(|p| live(commit_nodes, p)).collect();
    let phase_clears: Vec<Vec<usize>> = (0..hh)
        .map(|p| {
            let prev = (p + hh - 1) % hh;
            (0..n).filter(|&i| inert[i][p] && !inert[i][prev]).collect()
        })
        .collect();
    let entry_clears: Vec<usize> = (0..n).filter(|&i| inert[i][0]).collect();
    let quiet: Vec<bool> = (0..hh)
        .map(|p| {
            phase_nodes[p].is_empty() && phase_commits[p].is_empty() && phase_clears[p].is_empty()
        })
        .collect();
    let entry_quiet =
        phase_nodes[0].is_empty() && phase_commits[0].is_empty() && entry_clears.is_empty();
    let any_quiet = entry_quiet || quiet.iter().any(|&q| q);
    // Circular run lengths of consecutive quiet phases: walk backwards from
    // a non-quiet anchor so each entry extends its successor's run.
    let mut quiet_run = vec![0u64; hh];
    match quiet.iter().position(|&q| !q) {
        None => quiet_run.fill(u64::MAX),
        Some(anchor) => {
            let mut p = (anchor + hh - 1) % hh;
            while p != anchor {
                if quiet[p] {
                    quiet_run[p] = quiet_run[(p + 1) % hh] + 1;
                }
                p = (p + hh - 1) % hh;
            }
        }
    }
    Some(WheelPlan {
        hyperperiod: h,
        settle,
        phase_nodes,
        phase_commits,
        phase_clears,
        entry_clears,
        quiet,
        quiet_run,
        entry_quiet,
        any_quiet,
    })
}

/// Compiles the calendar-heap plan from the activity clocks. Returns
/// `None` when no node ends up event-driven (nothing to gain).
fn compile_heap(act: &[Act], order: &[usize], commit_nodes: &[usize]) -> Option<HeapPlan> {
    let n = act.len();
    let mut clock_of: Vec<Option<Clock>> = vec![None; n];
    let mut never = vec![false; n];
    for (i, a) in act.iter().enumerate() {
        match a {
            Act::Always => {}
            Act::On(c) if !c.is_never_active() => clock_of[i] = Some(c.clone()),
            Act::Never | Act::On(_) => never[i] = true,
        }
    }
    let is_base = |i: usize| !never[i] && clock_of[i].is_none();
    if (0..n).all(is_base) {
        return None;
    }

    let mut rank = vec![0usize; n];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    let mut needs_commit = vec![false; n];
    for &i in commit_nodes {
        needs_commit[i] = true;
    }
    Some(HeapPlan {
        base_nodes: order.iter().copied().filter(|&i| is_base(i)).collect(),
        base_commits: commit_nodes
            .iter()
            .copied()
            .filter(|&i| is_base(i))
            .collect(),
        clock_of,
        never,
        rank,
        needs_commit,
    })
}
