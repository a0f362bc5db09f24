//! Synchronous block networks and their executor.
//!
//! A [`Network`] is a set of [`Block`]s wired by channels. Execution follows
//! the paper's global discrete-time semantics: at every tick each channel
//! holds one [`Message`]; blocks are evaluated in an order compatible with
//! their *instantaneous* dependencies (checked by [`causality`]); channels
//! into delayed inputs carry values across ticks.
//!
//! ## Compiled execution
//!
//! [`Network::prepare`] compiles the wiring into a flat plan executed by
//! [`ReadyNetwork`]: all node outputs live in one message arena addressed by
//! precomputed slot indices, each input port's source and instantaneity are
//! resolved up front, and per-node input scratch buffers are reused across
//! ticks — the steady-state tick loop performs no heap allocation. Every
//! executor steps the causality check's one evaluation order (the event
//! engines only thin it per tick), so all of them meet a failing block in
//! the same order. The original interpretive loop survives as
//! [`ReferenceExecutor`] for differential tests and benchmarks.
//!
//! ## Batched execution
//!
//! [`ReadyNetwork::run_batch`] runs `K` independent scenarios through one
//! compiled plan at once on typed lane columns (see [`crate::lanes`]):
//! every arena cell widens to `K` contiguous lanes, nodes with a lane
//! kernel step all lanes per call, the rest step per-lane replicas made by
//! [`Block::clone_block`], and one pass over the schedule steps all lanes.
//! With [`ReadyNetwork::set_batch_vectorization`] off, each lane instead
//! runs alone through the single-run loop — the `run_batch` contract
//! spelled out literally, and the differential oracle for the typed loop.
//!
//! ## Discrete-event clock execution
//!
//! Multi-rate networks declare static clock structure through
//! [`ClockBehavior`](crate::ops::ClockBehavior). [`Network::prepare`]
//! compiles it into an event [`Engine`] (see [`crate::event`]): either a
//! hyperperiod *wheel* — per-phase node/commit lists with provably inert
//! nodes removed, plus quiet-phase annotation — or, when the clock lcm
//! exceeds the wheel caps, a calendar *heap* of per-node firing events.
//! Both stepping loops (single-run and typed batch) consume
//! one [`Activation`] per working tick from the engine and fast-forwards
//! provably silent stretches in O(1) per tick, so a 1/1000-rate subsystem
//! costs ~1/1000th of the work instead of a per-tick phase-list walk.
//! Observable semantics are tick-identical to the dense schedule;
//! [`ReadyNetwork::plan_info`] reports which backend is in effect and why.

use std::collections::BTreeMap;

use crate::causality;
use crate::coverage::{CoverageLayout, CoverageMap};
use crate::error::KernelError;
use crate::event::{
    self, Activation, Engine, HeapState, NodeMeta, PlanInfo, PlanRejection, SrcRef,
};
use crate::fault::{
    ChannelContract, ContractMonitor, FaultPlan, FaultSite, FaultSpec, FaultTarget,
};
use crate::lanes::{LaneFailure, LaneSlice, LaneStore};
use crate::ops::{Block, ClockBehavior};
use crate::trace::Trace;
use crate::value::Message;
use crate::{Clock, Tick};

mod stepper;

pub use stepper::{LanePlan, LaneStepper, ReplicaReason};

/// Index of a node (block instance) within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A reference to one port of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The node.
    pub node: NodeId,
    /// The port index on that node.
    pub port: usize,
}

/// Handle returned when adding a block; resolves ports ergonomically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    /// The node created for the block.
    pub id: NodeId,
}

impl BlockHandle {
    /// Reference to input port `i`.
    pub fn input(&self, i: usize) -> PortRef {
        PortRef {
            node: self.id,
            port: i,
        }
    }

    /// Reference to output port `o`.
    pub fn output(&self, o: usize) -> PortRef {
        PortRef {
            node: self.id,
            port: o,
        }
    }
}

/// Identifier of a named network input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputId(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Unconnected: always absent.
    Open,
    /// Wired to a node output.
    Node(NodeId, usize),
    /// Wired to a named network input.
    External(usize),
}

struct Node {
    block: Box<dyn Block + Send + Sync>,
    sources: Vec<Source>,
    /// Outputs computed this tick.
    outputs: Vec<Message>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("block", &self.block.name())
            .field("sources", &self.sources)
            .finish()
    }
}

/// A synchronous network of blocks.
///
/// Building: [`Network::add_block`], [`Network::add_input`],
/// [`Network::connect`], [`Network::expose_output`]. Running:
/// [`Network::run`] (batch) or [`Network::prepare`] +
/// [`ReadyNetwork::step_tick`] (incremental).
#[derive(Debug)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    input_names: Vec<String>,
    /// Named probes: signal name -> port to observe.
    probes: Vec<(String, Source)>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            input_names: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// The network's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of blocks.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of named external inputs.
    pub fn input_count(&self) -> usize {
        self.input_names.len()
    }

    /// Names of external inputs, in declaration order.
    pub fn input_names(&self) -> impl Iterator<Item = &str> {
        self.input_names.iter().map(String::as_str)
    }

    /// Names of exposed (probed) outputs, in declaration order.
    pub fn output_names(&self) -> impl Iterator<Item = &str> {
        self.probes.iter().map(|(n, _)| n.as_str())
    }

    /// Adds a block, returning a handle to its ports.
    pub fn add_block(&mut self, block: impl Block + Send + Sync + 'static) -> BlockHandle {
        let sources = vec![Source::Open; block.input_arity()];
        let outputs = vec![Message::Absent; block.output_arity()];
        self.nodes.push(Node {
            block: Box::new(block),
            sources,
            outputs,
        });
        BlockHandle {
            id: NodeId(self.nodes.len() - 1),
        }
    }

    /// Declares a named external input.
    pub fn add_input(&mut self, name: impl Into<String>) -> InputId {
        self.input_names.push(name.into());
        InputId(self.input_names.len() - 1)
    }

    /// The display name of a node's block.
    pub fn block_name(&self, id: NodeId) -> &str {
        self.nodes[id.0].block.name()
    }

    fn check_input_port(&self, to: PortRef) -> Result<(), KernelError> {
        let node = &self.nodes[to.node.0];
        let arity = node.block.input_arity();
        if to.port >= arity {
            return Err(KernelError::PortOutOfRange {
                node: node.block.name().to_string(),
                port: to.port,
                arity,
            });
        }
        if node.sources[to.port] != Source::Open {
            return Err(KernelError::InputAlreadyConnected {
                node: node.block.name().to_string(),
                port: to.port,
            });
        }
        Ok(())
    }

    fn check_output_port(&self, from: PortRef) -> Result<(), KernelError> {
        let node = &self.nodes[from.node.0];
        let arity = node.block.output_arity();
        if from.port >= arity {
            return Err(KernelError::PortOutOfRange {
                node: node.block.name().to_string(),
                port: from.port,
                arity,
            });
        }
        Ok(())
    }

    /// Connects a node output to a node input.
    ///
    /// # Errors
    ///
    /// Fails if a port is out of range or the input already has a writer
    /// (channels have exactly one writer).
    pub fn connect(&mut self, from: PortRef, to: PortRef) -> Result<(), KernelError> {
        self.check_output_port(from)?;
        self.check_input_port(to)?;
        self.nodes[to.node.0].sources[to.port] = Source::Node(from.node, from.port);
        Ok(())
    }

    /// Connects a named external input to a node input.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::connect`].
    pub fn connect_input(&mut self, input: InputId, to: PortRef) -> Result<(), KernelError> {
        self.check_input_port(to)?;
        self.nodes[to.node.0].sources[to.port] = Source::External(input.0);
        Ok(())
    }

    /// Exposes a node output under a signal name; it will be recorded in the
    /// trace of every run.
    ///
    /// # Errors
    ///
    /// Fails if the port is out of range or the name is already taken.
    pub fn expose_output(
        &mut self,
        name: impl Into<String>,
        from: PortRef,
    ) -> Result<(), KernelError> {
        self.check_output_port(from)?;
        let name = name.into();
        if self.probes.iter().any(|(n, _)| *n == name) {
            return Err(KernelError::DuplicateName(name));
        }
        self.probes.push((name, Source::Node(from.node, from.port)));
        Ok(())
    }

    /// Additionally records an external input in run traces.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names.
    pub fn probe_input(
        &mut self,
        name: impl Into<String>,
        input: InputId,
    ) -> Result<(), KernelError> {
        let name = name.into();
        if self.probes.iter().any(|(n, _)| *n == name) {
            return Err(KernelError::DuplicateName(name));
        }
        self.probes.push((name, Source::External(input.0)));
        Ok(())
    }

    /// The instantaneous dependency edges `(producer, consumer)` between
    /// nodes — the input to the causality check.
    pub fn instantaneous_edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for (port, src) in node.sources.iter().enumerate() {
                if let Source::Node(from, _) = src {
                    if node.block.input_is_instantaneous(port) {
                        edges.push((from.0, i));
                    }
                }
            }
        }
        edges
    }

    fn schedule(&self) -> Result<Vec<usize>, KernelError> {
        let edges = self.instantaneous_edges();
        let names: Vec<String> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{}#{}", n.block.name(), i))
            .collect();
        Ok(causality::check(self.nodes.len(), &edges, |i| {
            names[i].clone()
        })?)
    }

    /// Runs the causality check and compiles the wiring into a flat
    /// execution plan (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Causality`] if the network has an
    /// instantaneous loop.
    pub fn prepare(self) -> Result<ReadyNetwork, KernelError> {
        let order = self.schedule()?;
        let n = self.nodes.len();

        // Arena layout: node i's outputs occupy
        // `out_offset[i]..out_offset[i + 1]`; offsets ascend with the node
        // index.
        let mut out_offset = Vec::with_capacity(n + 1);
        out_offset.push(0usize);
        for node in &self.nodes {
            out_offset.push(out_offset.last().unwrap() + node.block.output_arity());
        }
        // Scratch layout mirrors it for inputs.
        let mut slot_offset = Vec::with_capacity(n + 1);
        slot_offset.push(0usize);
        for node in &self.nodes {
            slot_offset.push(slot_offset.last().unwrap() + node.block.input_arity());
        }
        let total_inputs = *slot_offset.last().unwrap();
        let total_outputs = *out_offset.last().unwrap();

        // Resolve every input port to a flat slot and cache its
        // instantaneity in a bitset over flat input indices.
        let mut slots = Vec::with_capacity(total_inputs);
        let mut inst_bits = vec![0u64; total_inputs.div_ceil(64)];
        for (i, node) in self.nodes.iter().enumerate() {
            for (port, src) in node.sources.iter().enumerate() {
                let k = slots.len();
                slots.push(match *src {
                    Source::Open => Slot::Open,
                    Source::Node(from, p) => Slot::Arena(out_offset[from.0] + p),
                    Source::External(e) => Slot::External(e),
                });
                if node.block.input_is_instantaneous(port) {
                    inst_bits[k >> 6] |= 1u64 << (k & 63);
                }
            }
            debug_assert_eq!(slots.len(), slot_offset[i + 1]);
        }

        let mut probe_names = Vec::with_capacity(self.probes.len());
        let mut probe_slots = Vec::with_capacity(self.probes.len());
        for (name, src) in &self.probes {
            probe_names.push(name.clone());
            probe_slots.push(match *src {
                Source::Open => Slot::Open,
                Source::Node(from, p) => Slot::Arena(out_offset[from.0] + p),
                Source::External(e) => Slot::External(e),
            });
        }

        let commit_nodes: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].block.needs_commit())
            .collect();

        // Distill the clock facts for the event-engine compiler, demoting
        // any behavior whose side conditions do not hold here. The presence
        // reasoning assumes the listed ports are read instantaneously, and
        // skipping a node assumes it observes nothing in the commit phase
        // (Declared blocks excepted — their contract covers commit
        // explicitly).
        let metas: Vec<NodeMeta> = self
            .nodes
            .iter()
            .map(|node| {
                let block = &node.block;
                let b = block.clock_behavior();
                let sound = match &b {
                    ClockBehavior::Opaque | ClockBehavior::Declared(_) => true,
                    ClockBehavior::BoolGate(_) => block.output_arity() == 1,
                    ClockBehavior::StrictEach(ports) | ClockBehavior::StrictAll(ports) => {
                        !block.needs_commit()
                            && ports.iter().all(|&p| {
                                p < block.input_arity() && block.input_is_instantaneous(p)
                            })
                    }
                    ClockBehavior::Sampler { cond } => {
                        !block.needs_commit()
                            && *cond < block.input_arity()
                            && (0..block.input_arity()).all(|p| block.input_is_instantaneous(p))
                    }
                    ClockBehavior::Passthrough => {
                        !block.needs_commit()
                            && block.input_arity() >= 1
                            && block.output_arity() == 1
                            && block.input_is_instantaneous(0)
                    }
                };
                NodeMeta {
                    behavior: if sound { b } else { ClockBehavior::Opaque },
                    sources: node
                        .sources
                        .iter()
                        .map(|src| match *src {
                            Source::Open => SrcRef::Open,
                            Source::External(_) => SrcRef::External,
                            Source::Node(from, p) => SrcRef::Node {
                                node: from.0,
                                port: p,
                            },
                        })
                        .collect(),
                }
            })
            .collect();
        let (engine, wheel_rejection) = event::compile(&metas, &order, &commit_nodes);

        let mut blocks: Vec<Box<dyn Block + Send + Sync>> = Vec::with_capacity(n);
        for node in self.nodes {
            let mut block = node.block;
            block.reset();
            blocks.push(block);
        }

        let observed = vec![Message::Absent; probe_slots.len()];
        // Probe columns fed by external inputs — the only ones that can
        // change on a quiet tick (the arena is untouched).
        let ext_probe_cols: Vec<(usize, usize)> = probe_slots
            .iter()
            .enumerate()
            .filter_map(|(j, s)| match s {
                Slot::External(e) => Some((j, *e)),
                _ => None,
            })
            .collect();
        Ok(ReadyNetwork {
            name: self.name,
            blocks,
            commit_nodes,
            engine,
            wheel_rejection,
            heap_state: None,
            n_inputs: self.input_names.len(),
            probe_names,
            probe_slots,
            ext_probe_cols,
            slot_offset,
            slots,
            inst_bits,
            out_offset,
            arena: vec![Message::Absent; total_outputs],
            scratch: vec![Message::Absent; total_inputs],
            order,
            observed,
            fault_specs: Vec::new(),
            faults: None,
            ext_scratch: Vec::new(),
            vectorize_batch: true,
            tick: 0,
        })
    }

    /// Batch-runs the network over a stimulus (one row of input messages per
    /// tick) and records all probed signals.
    ///
    /// # Errors
    ///
    /// Fails on causality violations, stimulus arity mismatches, or block
    /// evaluation errors.
    pub fn run(self, stimulus: &[Vec<Message>]) -> Result<Trace, KernelError> {
        let mut ready = self.prepare()?;
        ready.run(stimulus)
    }

    /// Prepares the pre-compilation interpretive executor.
    ///
    /// Kept as the semantic reference: differential tests pit it against the
    /// compiled [`ReadyNetwork`], and the executor benchmarks use it as the
    /// before/after baseline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::prepare`].
    pub fn prepare_reference(mut self) -> Result<ReferenceExecutor, KernelError> {
        let order = self.schedule()?;
        for node in &mut self.nodes {
            node.block.reset();
            node.outputs.fill(Message::Absent);
        }
        Ok(ReferenceExecutor {
            net: self,
            order,
            faults: None,
            tick: 0,
        })
    }

    /// Batch-runs the network with the interpretive reference executor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::run`].
    pub fn run_reference(self, stimulus: &[Vec<Message>]) -> Result<Trace, KernelError> {
        let mut ready = self.prepare_reference()?;
        ready.run(stimulus)
    }
}

/// Resolved message source in the compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Unconnected: always absent.
    Open,
    /// A flat index into the output arena.
    Arena(usize),
    /// An index into the external input row.
    External(usize),
}

#[inline]
fn resolve_slot(slot: Slot, arena: &[Message], externals: &[Message]) -> Message {
    match slot {
        Slot::Open => Message::Absent,
        Slot::Arena(a) => arena[a].clone(),
        Slot::External(e) => externals[e].clone(),
    }
}

/// Gathers one node's instantaneous inputs into its scratch range.
/// Non-instantaneous ports read `Absent` during phase 1; they are
/// re-gathered with final values in the commit pass. A free function (not a
/// method) so callers can keep disjoint `&mut` borrows of sibling fields.
#[inline]
fn gather_inputs(
    scratch: &mut [Message],
    slots: &[Slot],
    inst_bits: &[u64],
    range: std::ops::Range<usize>,
    arena: &[Message],
    externals: &[Message],
) {
    for k in range {
        let inst = (inst_bits[k >> 6] >> (k & 63)) & 1 == 1;
        scratch[k] = if inst {
            resolve_slot(slots[k], arena, externals)
        } else {
            Message::Absent
        };
    }
}

/// Resolves the tick's activation set from the compiled engine. The heap
/// backend's cursor lives in `heap` (created on first use) so both the
/// incremental path (`self.heap_state`, taken out for the tick) and batch
/// runs (a local cursor) share one implementation.
fn activation_for<'a>(
    engine: &'a Engine,
    order: &'a [usize],
    commit_nodes: &'a [usize],
    heap: &'a mut Option<Box<HeapState>>,
    t: Tick,
) -> Activation<'a> {
    let dense = Activation {
        nodes: order,
        commits: commit_nodes,
        clears: &[],
    };
    match engine {
        Engine::Dense => dense,
        Engine::Wheel(g) => match g.phase_of(t) {
            None => dense,
            Some(p) => Activation {
                nodes: &g.phase_nodes[p],
                commits: &g.phase_commits[p],
                clears: g.clears(t, p),
            },
        },
        Engine::Heap(h) => {
            let st = heap.get_or_insert_default();
            st.prepare(h, t);
            st.activation(h)
        }
    }
}

/// First tick in `[t, limit)` that might fire anything, i.e. the exclusive
/// end of the provably silent stretch starting at `t` (equal to `t` when
/// the tick itself may be active). The caller may fast-forward `[t, end)`
/// at O(1) per tick.
fn quiet_until_for(
    engine: &Engine,
    heap: &mut Option<Box<HeapState>>,
    t: Tick,
    limit: Tick,
) -> Tick {
    match engine {
        Engine::Dense => t,
        Engine::Wheel(g) => g.quiet_until(t, limit),
        Engine::Heap(h) => heap.get_or_insert_default().quiet_until(h, t, limit),
    }
}

/// Emits one trace row per stimulus row of a provably silent stretch, in
/// which no block steps: the arena-resolved probe columns are constant
/// (read once through `arena_probe`), only the externally fed ones
/// (`ext_probe_cols`) vary per row.
fn emit_quiet_rows(
    trace: &mut Trace,
    observed: &mut [Message],
    probe_slots: &[Slot],
    ext_probe_cols: &[(usize, usize)],
    arena_probe: impl Fn(usize) -> Message,
    rows: &[Vec<Message>],
) -> Result<(), KernelError> {
    for (j, &slot) in probe_slots.iter().enumerate() {
        observed[j] = match slot {
            // Placeholder; patched per row below.
            Slot::External(_) => Message::Absent,
            _ => arena_probe(j),
        };
    }
    if ext_probe_cols.is_empty() {
        trace.push_row_repeat_indexed(observed, rows.len())?;
    } else {
        for row in rows {
            for &(col, e) in ext_probe_cols {
                observed[col] = row[e].clone();
            }
            trace.push_row_indexed(observed)?;
        }
    }
    Ok(())
}

/// A causality-checked network compiled to a flat execution plan.
///
/// Steady-state ticks are allocation-free: outputs live in a single message
/// arena, inputs are gathered into reused scratch buffers through
/// precomputed slot indices, and probes resolve to arena slots
/// ([`ReadyNetwork::step_tick_observed`] returns a borrowed row).
///
/// When the network's blocks declare static clock structure
/// ([`crate::ops::ClockBehavior`]), [`Network::prepare`] additionally
/// compiles an event [`Engine`] and ticks skip provably inert nodes — and
/// provably silent ticks entirely — see the module docs.
#[derive(Debug)]
pub struct ReadyNetwork {
    name: String,
    blocks: Vec<Box<dyn Block + Send + Sync>>,
    /// Nodes whose blocks need the phase-2 commit pass
    /// ([`Block::needs_commit`]), in schedule order; commit-free nodes skip
    /// the input re-gather entirely.
    commit_nodes: Vec<usize>,
    /// The compiled clock engine (see [`crate::event`]); `Engine::Dense`
    /// runs the full schedule every tick.
    engine: Engine,
    /// Why no hyperperiod wheel was compiled, when one wasn't.
    wheel_rejection: Option<PlanRejection>,
    /// The heap backend's positional cursor for the incremental path
    /// (lazily created; batch runs use their own local cursors).
    heap_state: Option<Box<HeapState>>,
    n_inputs: usize,
    probe_names: Vec<String>,
    probe_slots: Vec<Slot>,
    /// `(column, input)` pairs of probes fed by external inputs — the only
    /// probe columns that vary across a quiet stretch.
    ext_probe_cols: Vec<(usize, usize)>,
    /// Flat input range of node `i`: `slot_offset[i]..slot_offset[i + 1]`.
    slot_offset: Vec<usize>,
    /// Resolved source of each flat input.
    slots: Vec<Slot>,
    /// Bit `k` set iff flat input `k` is read instantaneously.
    inst_bits: Vec<u64>,
    /// Arena range of node `i`: `out_offset[i]..out_offset[i + 1]`.
    out_offset: Vec<usize>,
    /// Every node output of the current tick, flattened.
    arena: Vec<Message>,
    /// Reused input gather buffer, laid out like `slots`.
    scratch: Vec<Message>,
    /// The causality check's evaluation order, stepped by every engine.
    order: Vec<usize>,
    /// Reused probe output row.
    observed: Vec<Message>,
    /// Installed fault specs — the source of truth from which per-run
    /// plans are compiled (batch lanes recompile with fresh state).
    fault_specs: Vec<FaultSpec>,
    /// Compiled fault plan for the incremental path (`None` = nominal).
    faults: Option<FaultPlan>,
    /// Reused row for faulted external inputs.
    ext_scratch: Vec<Message>,
    /// Whether batches run on the typed-column vectorized path (see
    /// [`crate::lanes`]); `false` runs each lane alone through the
    /// single-run loop.
    vectorize_batch: bool,
    tick: Tick,
}

// Batch handles cross thread pools: the sweep service shares one prepared
// network across its pool workers (`run_batch` takes `&self`) and
// ships clones to oracle threads. Keep that a compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReadyNetwork>();
};

impl ReadyNetwork {
    /// The network's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current tick (number of completed reactions).
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// The evaluation schedule (node indices in execution order).
    pub fn schedule(&self) -> &[usize] {
        &self.order
    }

    /// Probed signal names, in declaration order — the column layout of
    /// [`ReadyNetwork::step_tick_observed`] rows.
    pub fn probe_names(&self) -> impl Iterator<Item = &str> {
        self.probe_names.iter().map(String::as_str)
    }

    /// Disables clock gating: every tick runs the full schedule. Gating is
    /// semantically transparent, so this exists for benchmarks and
    /// differential tests that need the ungated executor.
    pub fn disable_clock_gating(&mut self) {
        self.engine = Engine::Dense;
        self.heap_state = None;
    }

    /// Enables or disables the typed-column vectorized batch path (enabled
    /// by default; see [`crate::lanes`]). With vectorization off, a batch
    /// runs each lane alone through the single-run loop on a freshly reset
    /// copy of this network — literally the [`ReadyNetwork::run_batch`]
    /// contract. Traces and errors are identical either way, bit-exactly;
    /// this exists for the live oracle, benchmarks and differential tests
    /// that pit the two loops against each other.
    pub fn set_batch_vectorization(&mut self, on: bool) {
        self.vectorize_batch = on;
    }

    /// The hyperperiod of the compiled clock-gating wheel, or `None` when
    /// the network exposes no usable static clock structure, runs on the
    /// heap backend, or gating has been disabled.
    pub fn gated_hyperperiod(&self) -> Option<u64> {
        match &self.engine {
            Engine::Wheel(g) => Some(g.hyperperiod),
            _ => None,
        }
    }

    /// Whether stepping this network never consults the tick number: it
    /// runs the dense schedule (no clock-gated wheel or heap), and every
    /// clock a node declares ([`ClockBehavior::Declared`],
    /// [`ClockBehavior::BoolGate`]) is active at every tick. Blocks
    /// declaring no clock are taken not to read the tick — true of every
    /// library and elaborated block. A tick-invariant network may be
    /// stepped with any tick numbering, e.g. per-lane step counts that
    /// differ from the caller's tick.
    pub fn is_tick_invariant(&self) -> bool {
        matches!(self.engine, Engine::Dense)
            && self.blocks.iter().all(|b| match b.clock_behavior() {
                ClockBehavior::Declared(c) | ClockBehavior::BoolGate(c) => c.is_always_active(),
                _ => true,
            })
    }

    /// Number of external inputs (the stimulus row width).
    pub fn input_count(&self) -> usize {
        self.n_inputs
    }

    /// How this network will execute ticks: the engine backend in effect,
    /// the wheel hyperperiod when one was compiled, and — when the wheel
    /// was rejected — the reason ([`PlanRejection`]) instead of a silent
    /// fallback.
    pub fn plan_info(&self) -> PlanInfo {
        PlanInfo {
            kind: self.engine.kind(),
            hyperperiod: self.gated_hyperperiod(),
            wheel_rejection: self.wheel_rejection,
        }
    }

    /// Number of compiled nodes.
    pub fn node_count(&self) -> usize {
        self.blocks.len()
    }

    /// Installs (replacing any previous set) fault specs intercepting
    /// channel values between commit and delivery: every reader of a
    /// faulted channel — same-tick instantaneous consumers, the phase-2
    /// commit re-gather, and probes — observes the perturbed message.
    ///
    /// Fault state (delay rings, jitter generators) starts fresh here and
    /// on every [`ReadyNetwork::reset`]. When any installed kind is not
    /// gating-safe (see [`crate::fault::FaultKind::is_gating_safe`]), ticks
    /// run the full ungated schedule — observable semantics are unchanged,
    /// only the skip optimization is bypassed.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownFaultTarget`] for targets that don't
    /// resolve to a channel and [`KernelError::InvalidFault`] for invalid
    /// fault parameters.
    pub fn set_faults(&mut self, specs: &[FaultSpec]) -> Result<(), KernelError> {
        let plan = self.compile_fault_plan(specs)?;
        self.fault_specs = specs.to_vec();
        self.faults = if plan.is_empty() { None } else { Some(plan) };
        Ok(())
    }

    /// Removes all installed faults; subsequent ticks run nominally.
    pub fn clear_faults(&mut self) {
        self.fault_specs.clear();
        self.faults = None;
    }

    /// The installed fault specs, in installation order.
    pub fn fault_specs(&self) -> &[FaultSpec] {
        &self.fault_specs
    }

    /// The arena-owning node and port of flat output index `a`.
    fn arena_owner(&self, a: usize) -> (usize, usize) {
        let i = self.out_offset.partition_point(|&o| o <= a) - 1;
        (i, a - self.out_offset[i])
    }

    fn resolve_fault_site(&self, target: &FaultTarget) -> Result<FaultSite, KernelError> {
        let unknown = || KernelError::UnknownFaultTarget {
            target: format!("{target:?}"),
        };
        match target {
            FaultTarget::External(e) => {
                if *e < self.n_inputs {
                    Ok(FaultSite::External(*e))
                } else {
                    Err(unknown())
                }
            }
            FaultTarget::Output(p) => {
                let i = p.node.index();
                if i < self.blocks.len() && p.port < self.out_offset[i + 1] - self.out_offset[i] {
                    Ok(FaultSite::Node {
                        node: i,
                        port: p.port,
                    })
                } else {
                    Err(unknown())
                }
            }
            FaultTarget::Signal(name) => {
                let j = self
                    .probe_names
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(unknown)?;
                match self.probe_slots[j] {
                    Slot::Arena(a) => {
                        let (node, port) = self.arena_owner(a);
                        Ok(FaultSite::Node { node, port })
                    }
                    Slot::External(e) => Ok(FaultSite::External(e)),
                    Slot::Open => Err(unknown()),
                }
            }
            FaultTarget::Block { name, port } => {
                let mut found = None;
                for (i, b) in self.blocks.iter().enumerate() {
                    if b.name() == name {
                        if found.is_some() {
                            return Err(KernelError::UnknownFaultTarget {
                                target: format!("block `{name}` (ambiguous: multiple instances)"),
                            });
                        }
                        found = Some(i);
                    }
                }
                let node = found.ok_or_else(unknown)?;
                if *port < self.out_offset[node + 1] - self.out_offset[node] {
                    Ok(FaultSite::Node { node, port: *port })
                } else {
                    Err(unknown())
                }
            }
        }
    }

    fn compile_fault_plan(&self, specs: &[FaultSpec]) -> Result<FaultPlan, KernelError> {
        let mut sites = Vec::with_capacity(specs.len());
        for spec in specs {
            sites.push((self.resolve_fault_site(&spec.target)?, spec.kind.clone()));
        }
        FaultPlan::build(self.blocks.len(), sites)
    }

    /// Builds a [`ContractMonitor`] over the probed signals from the
    /// blocks' declared clock structure — the same [`ClockBehavior`]
    /// contracts that drive clock gating. A probe fed by a
    /// [`ClockBehavior::Declared`] block gets a *subclock* contract on the
    /// declared clock (the block is provably inert off-clock but may also
    /// withhold messages on-clock); one fed by a [`ClockBehavior::BoolGate`]
    /// generator gets an *exact* base-clock contract (gates emit a Boolean
    /// at every tick). Other behaviours and probed external inputs yield no
    /// contract.
    pub fn inferred_contracts(&self) -> ContractMonitor {
        let mut monitor = ContractMonitor::new();
        for (j, &slot) in self.probe_slots.iter().enumerate() {
            let Slot::Arena(a) = slot else { continue };
            let (i, _) = self.arena_owner(a);
            match self.blocks[i].clock_behavior() {
                ClockBehavior::Declared(clock) => monitor.push(ChannelContract {
                    signal: self.probe_names[j].clone(),
                    clock,
                    exact: false,
                    from: 0,
                }),
                ClockBehavior::BoolGate(_) => monitor.push(ChannelContract {
                    signal: self.probe_names[j].clone(),
                    clock: Clock::base(),
                    exact: true,
                    from: 0,
                }),
                _ => {}
            }
        }
        monitor
    }

    /// Resets all blocks, the arena, the tick counter, and the state of any
    /// installed faults (delay rings drain, jitter generators reseed) — a
    /// reset-and-replay reproduces the faulted trace exactly.
    pub fn reset(&mut self) {
        for block in &mut self.blocks {
            block.reset();
        }
        self.arena.fill(Message::Absent);
        self.scratch.fill(Message::Absent);
        if let Some(fp) = &mut self.faults {
            fp.reset();
        }
        self.heap_state = None;
        self.tick = 0;
    }

    #[inline]
    fn inst(&self, k: usize) -> bool {
        (self.inst_bits[k >> 6] >> (k & 63)) & 1 == 1
    }

    /// Executes one global reaction and returns the probed row, borrowed
    /// from an internal buffer — the allocation-free fast path. Columns
    /// follow [`ReadyNetwork::probe_names`] order.
    ///
    /// # Errors
    ///
    /// Fails on stimulus arity mismatch or block evaluation errors.
    pub fn step_tick_observed(&mut self, externals: &[Message]) -> Result<&[Message], KernelError> {
        if externals.len() != self.n_inputs {
            return Err(KernelError::StimulusArity {
                expected: self.n_inputs,
                found: externals.len(),
                tick: self.tick,
            });
        }
        let t = self.tick;

        // Faulted external inputs are staged into a reused owned row so the
        // whole tick (gathers, commit re-gather, probes) reads the
        // perturbed values.
        let mut ext_owned: Option<Vec<Message>> = None;
        if self.faults.as_ref().is_some_and(|f| !f.ext.is_empty()) {
            let mut row = std::mem::take(&mut self.ext_scratch);
            row.clear();
            row.extend_from_slice(externals);
            let fp = self.faults.as_mut().expect("non-empty ext faults checked");
            for (e, st) in &mut fp.ext {
                st.apply(t, &mut row[*e]);
            }
            ext_owned = Some(row);
        }
        let externals: &[Message] = ext_owned.as_deref().unwrap_or(externals);

        // Non-gating-safe faults (anything but `Drop`) run the full
        // schedule: value-rewriting faults can invalidate the gate patterns
        // the plan was proven against, and stateful faults must advance at
        // every tick. Semantics are identical either way.
        let engine = if self.faults.as_ref().is_some_and(|f| !f.gating_safe) {
            Engine::Dense
        } else {
            self.engine.clone()
        };
        // The heap cursor moves out of `self` for the tick so its buffers
        // can be borrowed while stepping mutates disjoint fields; a `?`
        // early-out simply drops it, and the next tick rebuilds.
        let mut heap = self.heap_state.take();
        let act = activation_for(&engine, &self.order, &self.commit_nodes, &mut heap, t);

        // Clear the outputs of nodes that just went inert; the skip then
        // keeps them absent until they reactivate.
        for &i in act.clears {
            self.arena[self.out_offset[i]..self.out_offset[i + 1]].fill(Message::Absent);
        }

        // Phase 1: step in schedule order.
        for &i in act.nodes {
            gather_inputs(
                &mut self.scratch,
                &self.slots,
                &self.inst_bits,
                self.slot_offset[i]..self.slot_offset[i + 1],
                &self.arena,
                externals,
            );
            let inputs = &self.scratch[self.slot_offset[i]..self.slot_offset[i + 1]];
            let out = &mut self.arena[self.out_offset[i]..self.out_offset[i + 1]];
            self.blocks[i].step_into(t, inputs, out)?;
            if let Some(fp) = &mut self.faults {
                for (port, st) in &mut fp.node_faults[i] {
                    st.apply(t, &mut self.arena[self.out_offset[i] + *port]);
                }
            }
        }

        // Phase 2: commit with final input values — only for nodes whose
        // blocks actually observe them, minus any inert this tick.
        for &i in act.commits {
            for k in self.slot_offset[i]..self.slot_offset[i + 1] {
                self.scratch[k] = resolve_slot(self.slots[k], &self.arena, externals);
            }
            self.blocks[i].commit(
                t,
                &self.scratch[self.slot_offset[i]..self.slot_offset[i + 1]],
            );
        }

        // Observe probes into the reused row.
        for (j, &slot) in self.probe_slots.iter().enumerate() {
            self.observed[j] = resolve_slot(slot, &self.arena, externals);
        }
        self.tick += 1;
        self.heap_state = heap;
        if let Some(row) = ext_owned {
            self.ext_scratch = row;
        }
        Ok(&self.observed)
    }

    /// Executes one global reaction.
    ///
    /// `externals` supplies one message per declared network input. Returns
    /// the probed signals as `(name, message)` rows in declaration order.
    /// This is the compatibility wrapper around
    /// [`ReadyNetwork::step_tick_observed`]; it clones the probe names each
    /// tick.
    ///
    /// # Errors
    ///
    /// Fails on stimulus arity mismatch or block evaluation errors.
    pub fn step_tick(
        &mut self,
        externals: &[Message],
    ) -> Result<Vec<(String, Message)>, KernelError> {
        self.step_tick_observed(externals)?;
        Ok(self
            .probe_names
            .iter()
            .cloned()
            .zip(self.observed.iter().cloned())
            .collect())
    }

    /// Batch continuation: run further ticks and return their trace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReadyNetwork::step_tick`].
    pub fn run(&mut self, stimulus: &[Vec<Message>]) -> Result<Trace, KernelError> {
        self.run_inner(stimulus, None)
    }

    /// [`ReadyNetwork::run`] that additionally accumulates discrete-state
    /// coverage into `coverage` (built over this network's
    /// [`ReadyNetwork::coverage_layout`]). Every stepped tick observes each
    /// covered block's state after commit; quiet fast-forward stretches
    /// step no block and therefore cannot change discrete state, so the
    /// trace — and the coverage — is identical to an unskipped run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReadyNetwork::run`].
    pub fn run_covered(
        &mut self,
        stimulus: &[Vec<Message>],
        coverage: &mut CoverageMap,
    ) -> Result<Trace, KernelError> {
        self.run_inner(stimulus, Some(coverage))
    }

    fn run_inner(
        &mut self,
        stimulus: &[Vec<Message>],
        mut coverage: Option<&mut CoverageMap>,
    ) -> Result<Trace, KernelError> {
        let mut trace = Trace::new();
        for name in &self.probe_names {
            trace.declare(name.clone());
        }
        let mut i = 0;
        while i < stimulus.len() {
            // Fast-forward provably silent stretches: no node fires, so the
            // arena (and every arena-resolved probe) is constant and the
            // rows can be emitted in bulk without touching any block.
            // Faults (even gating-safe drops) need their per-tick state
            // advanced, so a faulted run steps every tick.
            if self.faults.is_none() {
                let limit = self.tick + (stimulus.len() - i) as Tick;
                let end = quiet_until_for(&self.engine, &mut self.heap_state, self.tick, limit);
                if end > self.tick {
                    let skip = (end - self.tick) as usize;
                    self.push_quiet_rows(&mut trace, &stimulus[i..i + skip])?;
                    i += skip;
                    continue;
                }
            }
            let observed = self.step_tick_observed(&stimulus[i])?;
            trace.push_row_indexed(observed)?;
            if let Some(cov) = coverage.as_deref_mut() {
                cov.observe_nodes(|node| self.blocks[node].coverage_state());
            }
            i += 1;
        }
        Ok(trace)
    }

    /// The discrete-state coverage layout of this compiled plan: one site
    /// per block exposing a [`Block::coverage_space`], in ascending node
    /// order. Executors built from the same [`Network`] produce identical
    /// layouts (node order is insertion order everywhere), which is what
    /// makes coverage differentially comparable.
    pub fn coverage_layout(&self) -> CoverageLayout {
        CoverageLayout::new(
            self.blocks
                .iter()
                .enumerate()
                .filter_map(|(i, b)| b.coverage_space().map(|s| (i, b.name().to_string(), s)))
                .collect(),
        )
    }

    /// Emits one trace row per stimulus row for a silent stretch without
    /// stepping any block (see [`emit_quiet_rows`]). Arity errors are
    /// reported at the exact offending tick, with all earlier rows already
    /// emitted.
    fn push_quiet_rows(
        &mut self,
        trace: &mut Trace,
        rows: &[Vec<Message>],
    ) -> Result<(), KernelError> {
        let mut ok = 0usize;
        let mut bad: Option<KernelError> = None;
        for (j, row) in rows.iter().enumerate() {
            if row.len() != self.n_inputs {
                bad = Some(KernelError::StimulusArity {
                    expected: self.n_inputs,
                    found: row.len(),
                    tick: self.tick + j as Tick,
                });
                break;
            }
            ok += 1;
        }
        emit_quiet_rows(
            trace,
            &mut self.observed,
            &self.probe_slots,
            &self.ext_probe_cols,
            |j| resolve_slot(self.probe_slots[j], &self.arena, &[]),
            &rows[..ok],
        )?;
        self.tick += ok as Tick;
        match bad {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs `stimuli.len()` independent scenarios ("lanes") through one
    /// compiled plan and returns one trace per lane, each identical to
    /// running its stimulus alone on a freshly reset copy of this network.
    ///
    /// The plan (slots, schedule, instantaneity bitset) is shared by every
    /// lane; block state is replicated per lane via [`Block::clone_block`]
    /// and reset, so `self`'s own incremental state is untouched. Messages
    /// live in typed lane columns: single-run arena cell `a` holds its `K`
    /// lanes contiguously at `a * K + l`, so one pass over the schedule
    /// steps all lanes of a node back to back (see [`crate::lanes`]).
    ///
    /// Lanes may have different lengths: lane `l` is stepped only while
    /// `t < stimuli[l].len()`, and its trace has exactly `stimuli[l].len()`
    /// rows.
    ///
    /// # Errors
    ///
    /// Stimulus arity mismatches are found before any lane steps, on the
    /// first offending row in lane order. Otherwise the batch fails with
    /// the block evaluation error of its lowest-index failing lane —
    /// exactly the error that lane returns when run alone, and the one `K`
    /// sequential runs would stop at.
    pub fn run_batch(&self, stimuli: &[Vec<Vec<Message>>]) -> Result<Vec<Trace>, KernelError> {
        self.run_batch_with_faults(stimuli, &[])
    }

    /// [`ReadyNetwork::run_batch`] with per-lane fault injection.
    ///
    /// `lane_faults` is either empty (no per-lane faults) or holds one spec
    /// list per stimulus lane. Lane `l` runs under the network's installed
    /// specs ([`ReadyNetwork::set_faults`]) *plus* `lane_faults[l]`, each
    /// lane with fresh fault state — exactly the semantics of `K`
    /// sequential runs on freshly reset faulted copies. When any lane's
    /// faults are not gating-safe, the whole batch runs ungated (lanes
    /// share one schedule pass per tick).
    ///
    /// # Errors
    ///
    /// In addition to the [`ReadyNetwork::run_batch`] conditions, fails
    /// with [`KernelError::FaultLaneArity`] when `lane_faults` is non-empty
    /// but does not match the lane count, and with the
    /// [`ReadyNetwork::set_faults`] conditions on unresolvable or invalid
    /// specs.
    pub fn run_batch_with_faults(
        &self,
        stimuli: &[Vec<Vec<Message>>],
        lane_faults: &[Vec<FaultSpec>],
    ) -> Result<Vec<Trace>, KernelError> {
        self.run_batch_inner(stimuli, lane_faults, None)
    }

    /// [`ReadyNetwork::run_batch_with_faults`] that additionally
    /// accumulates per-lane discrete-state coverage: `coverage[l]` (built
    /// over [`ReadyNetwork::coverage_layout`]) receives lane `l`'s covered
    /// states and transitions, identical to what
    /// [`ReadyNetwork::run_covered`] would collect for that lane alone.
    ///
    /// # Errors
    ///
    /// In addition to the [`ReadyNetwork::run_batch_with_faults`]
    /// conditions, fails with [`KernelError::CoverageLaneArity`] when the
    /// map count does not match the lane count.
    pub fn run_batch_covered(
        &self,
        stimuli: &[Vec<Vec<Message>>],
        lane_faults: &[Vec<FaultSpec>],
        coverage: &mut [CoverageMap],
    ) -> Result<Vec<Trace>, KernelError> {
        if coverage.len() != stimuli.len() {
            return Err(KernelError::CoverageLaneArity {
                lanes: stimuli.len(),
                maps: coverage.len(),
            });
        }
        self.run_batch_inner(stimuli, lane_faults, Some(coverage))
    }

    /// The prologue both batch loops share — lane-count and stimulus arity
    /// checks, and every lane's fault plan compiled with fresh state — so
    /// a bad lane is rejected identically before any lane steps.
    fn run_batch_inner(
        &self,
        stimuli: &[Vec<Vec<Message>>],
        lane_faults: &[Vec<FaultSpec>],
        coverage: Option<&mut [CoverageMap]>,
    ) -> Result<Vec<Trace>, KernelError> {
        if !lane_faults.is_empty() && lane_faults.len() != stimuli.len() {
            return Err(KernelError::FaultLaneArity {
                lanes: stimuli.len(),
                plans: lane_faults.len(),
            });
        }
        for lane in stimuli {
            self.check_arity(lane)?;
        }
        // `None` when nothing is faulted: the nominal path pays no
        // per-tick fault cost.
        let lane_plans: Option<Vec<FaultPlan>> =
            if !self.fault_specs.is_empty() || lane_faults.iter().any(|f| !f.is_empty()) {
                let mut plans = Vec::with_capacity(stimuli.len());
                for l in 0..stimuli.len() {
                    let mut specs = self.fault_specs.clone();
                    if let Some(extra) = lane_faults.get(l) {
                        specs.extend(extra.iter().cloned());
                    }
                    plans.push(self.compile_fault_plan(&specs)?);
                }
                Some(plans)
            } else {
                None
            };
        if self.vectorize_batch {
            self.run_batch_typed(stimuli, lane_plans, coverage)
        } else {
            self.run_batch_lone(stimuli, lane_plans, coverage)
        }
    }

    /// Rejects the first stimulus row whose width is not the input count.
    fn check_arity(&self, stimulus: &[Vec<Message>]) -> Result<(), KernelError> {
        match stimulus.iter().position(|row| row.len() != self.n_inputs) {
            Some(t) => Err(KernelError::StimulusArity {
                expected: self.n_inputs,
                found: stimulus[t].len(),
                tick: t as Tick,
            }),
            None => Ok(()),
        }
    }

    /// Runs one batch lane alone on this network, from the initial state:
    /// the trace (or error) lane `l` of
    /// [`ReadyNetwork::run_batch_with_faults`] gives for `stimulus` with
    /// `lane_faults` as its `lane_faults[l]`, on top of the installed
    /// specs. Unlike a one-lane batch it steps `self` in place instead of
    /// a clone, so a caller checking lanes one at a time pays for no copy
    /// of the network. The installed fault plan is left in place.
    ///
    /// # Errors
    ///
    /// As [`ReadyNetwork::run_batch_with_faults`] for a one-lane batch.
    pub fn run_lane(
        &mut self,
        stimulus: &[Vec<Message>],
        lane_faults: &[FaultSpec],
    ) -> Result<Trace, KernelError> {
        self.check_arity(stimulus)?;
        if lane_faults.is_empty() {
            self.reset();
            return self.run_inner(stimulus, None);
        }
        let mut specs = self.fault_specs.clone();
        specs.extend_from_slice(lane_faults);
        let plan = self.compile_fault_plan(&specs)?;
        let installed = self.faults.take();
        let trace = self.run_alone(stimulus, Some(plan), None);
        self.faults = installed;
        trace
    }

    /// Resets this network and runs `stimulus` under `plan` (`None` =
    /// nominal) — one lane of a vectorization-off batch.
    fn run_alone(
        &mut self,
        stimulus: &[Vec<Message>],
        plan: Option<FaultPlan>,
        coverage: Option<&mut CoverageMap>,
    ) -> Result<Trace, KernelError> {
        self.faults = plan.filter(|p| !p.is_empty());
        self.reset();
        self.run_inner(stimulus, coverage)
    }

    /// The vectorization-off batch: each lane alone through the single-run
    /// loop on a freshly reset copy of this network, under its own fault
    /// plan. The first failing lane's error stops the batch.
    fn run_batch_lone(
        &self,
        stimuli: &[Vec<Vec<Message>>],
        lane_plans: Option<Vec<FaultPlan>>,
        mut coverage: Option<&mut [CoverageMap]>,
    ) -> Result<Vec<Trace>, KernelError> {
        let mut lone = self.clone();
        let mut plans = lane_plans.map(Vec::into_iter);
        let mut traces = Vec::with_capacity(stimuli.len());
        for (l, stimulus) in stimuli.iter().enumerate() {
            let plan = plans.as_mut().and_then(Iterator::next);
            let cov = coverage.as_deref_mut().map(|c| &mut c[l]);
            traces.push(lone.run_alone(stimulus, plan, cov)?);
        }
        Ok(traces)
    }

    /// The typed-column vectorized batch path (see [`crate::lanes`]): a
    /// loop around one [`LaneStepper`], which owns the typed tick body.
    ///
    /// Messages live in a lane-contiguous typed arena — cell `a` (the
    /// single-run flat arena index) holds its K lanes at `a * K + l` as
    /// tag/bit columns — so input gather is a zero-copy column borrow
    /// instead of a per-(node, lane) `Message` clone. Nodes are classified
    /// once per batch: single-output blocks exposing a
    /// [`Block::lane_kernel`] step all K lanes per call over the columns;
    /// the rest fall back to per-lane replicas that decode from and encode
    /// back into the columns. The loop adds quiet-stretch skips, fault
    /// staging, trace observation and coverage. Traces and errors are
    /// bit-identical to K sequential runs, faults and gating included.
    fn run_batch_typed(
        &self,
        stimuli: &[Vec<Vec<Message>>],
        mut lane_plans: Option<Vec<FaultPlan>>,
        mut coverage: Option<&mut [CoverageMap]>,
    ) -> Result<Vec<Trace>, KernelError> {
        let k = stimuli.len();
        let mut traces: Vec<Trace> = (0..k)
            .map(|_| {
                let mut trace = Trace::new();
                for name in &self.probe_names {
                    trace.declare(name.clone());
                }
                trace
            })
            .collect();
        let lens: Vec<usize> = stimuli.iter().map(Vec::len).collect();
        let max_ticks = lens.iter().copied().max().unwrap_or(0);
        if k == 0 || max_ticks == 0 {
            return Ok(traces);
        }

        let gating_on = lane_plans
            .as_ref()
            .is_none_or(|ps| ps.iter().all(|p| p.gating_safe));
        let any_ext_faults = lane_plans
            .as_ref()
            .is_some_and(|ps| ps.iter().any(|p| !p.ext.is_empty()));
        let mut ext_rows: Vec<Vec<Message>> = if any_ext_faults {
            vec![vec![Message::Absent; self.n_inputs]; k]
        } else {
            Vec::new()
        };

        // Covered and nominal runs place nodes alike (`lane_plan`).
        let mut stepper = LaneStepper::build(self, k, gating_on);
        // External inputs as typed columns, restaged every tick.
        let mut ext = LaneStore::new(self.n_inputs, k);
        let mut active = vec![false; k];
        let mut observed = vec![Message::Absent; self.probe_slots.len()];
        let mut failures: Vec<LaneFailure> = Vec::new();
        // The batch fails like K sequential runs: with the error of its
        // lowest failing lane. A failing lane masks itself and every lane
        // above it (`live` drops to its index); the lanes below step on to
        // the end of their stimuli, since one of them may fail later.
        let mut failed: Option<KernelError> = None;
        let mut live = k;
        let mut last = max_ticks;

        // `t` indexes every lane's stimulus rows and gates lane activity.
        let mut t = 0usize;
        while t < last {
            let tick = t as Tick;
            for (l, &len) in lens.iter().enumerate() {
                active[l] = l < live && t < len;
            }

            // Fast-forward provably silent stretches. The typed arena is
            // frozen, so each lane's rows repeat except externally-fed
            // probe columns, which read straight from the stimulus (the
            // `LaneStore` roundtrip is bit-exact). Fault plans disable the
            // skip — fault state must advance per tick.
            if lane_plans.is_none() {
                let end = stepper.quiet_until(tick, last as Tick) as usize;
                if end > t {
                    for (l, &len) in lens.iter().enumerate().take(live) {
                        let upto = len.min(end);
                        if upto <= t {
                            continue;
                        }
                        emit_quiet_rows(
                            &mut traces[l],
                            &mut observed,
                            &self.probe_slots,
                            &self.ext_probe_cols,
                            |j| stepper.probe(j, &[]).get(l),
                            &stimuli[l][t..upto],
                        )?;
                    }
                    t = end;
                    continue;
                }
            }

            // Stage each active lane's faulted external row for the tick.
            if any_ext_faults {
                let plans = lane_plans.as_mut().expect("ext faults imply lane plans");
                for (l, &is_active) in active.iter().enumerate() {
                    if !is_active {
                        continue;
                    }
                    ext_rows[l].clear();
                    ext_rows[l].extend_from_slice(&stimuli[l][t]);
                    for (e, st) in &mut plans[l].ext {
                        st.apply(tick, &mut ext_rows[l][*e]);
                    }
                }
            }

            // Encode the tick's external rows into typed columns; inactive
            // lanes read as absent.
            for e in 0..self.n_inputs {
                for (l, &is_active) in active.iter().enumerate() {
                    if is_active {
                        let row: &[Message] = if any_ext_faults {
                            &ext_rows[l]
                        } else {
                            &stimuli[l][t]
                        };
                        ext.set(e, l, &row[e]);
                    } else {
                        ext.set(e, l, &Message::Absent);
                    }
                }
            }
            let ext_cols: Vec<LaneSlice<'_>> = (0..self.n_inputs).map(|e| ext.slice(e)).collect();

            stepper.step_faulted(
                tick,
                &ext_cols,
                &active,
                lane_plans.as_deref_mut(),
                &mut failures,
            );
            // Every new failure is below `live`, and a lane fails at most
            // once per step, so the lowest one is the new cutoff.
            if let Some(f) = failures.drain(..).min_by_key(|f| f.lane) {
                live = f.lane;
                last = lens[..live].iter().copied().max().unwrap_or(0);
                active[live..].fill(false);
                failed = Some(f.error);
            }

            // Observe each active lane's probes, decoded from the columns.
            for (l, &is_active) in active.iter().enumerate() {
                if !is_active {
                    continue;
                }
                for (j, m) in observed.iter_mut().enumerate() {
                    *m = stepper.probe(j, &ext_cols).get(l);
                }
                traces[l].push_row_indexed(&observed)?;
            }

            // Observe each active lane's discrete block state: a kernel
            // node's from its lane kernel, a replica node's from the
            // lane's replica.
            if let Some(cov) = coverage.as_deref_mut() {
                for (l, &is_active) in active.iter().enumerate() {
                    if !is_active {
                        continue;
                    }
                    cov[l].observe_nodes(|node| stepper.coverage_state(node, l));
                }
            }
            t += 1;
        }
        match failed {
            Some(error) => Err(error),
            None => Ok(traces),
        }
    }
}

impl Clone for ReadyNetwork {
    /// Deep copy, including current block state and tick position, via
    /// [`Block::clone_block`] — the same mechanism
    /// [`ReadyNetwork::run_batch`] uses to replicate per-lane state.
    fn clone(&self) -> Self {
        ReadyNetwork {
            name: self.name.clone(),
            blocks: self.blocks.iter().map(|b| b.clone_block()).collect(),
            n_inputs: self.n_inputs,
            probe_names: self.probe_names.clone(),
            probe_slots: self.probe_slots.clone(),
            slot_offset: self.slot_offset.clone(),
            slots: self.slots.clone(),
            inst_bits: self.inst_bits.clone(),
            commit_nodes: self.commit_nodes.clone(),
            engine: self.engine.clone(),
            wheel_rejection: self.wheel_rejection,
            heap_state: self.heap_state.clone(),
            ext_probe_cols: self.ext_probe_cols.clone(),
            out_offset: self.out_offset.clone(),
            arena: self.arena.clone(),
            scratch: self.scratch.clone(),
            order: self.order.clone(),
            observed: self.observed.clone(),
            fault_specs: self.fault_specs.clone(),
            faults: self.faults.clone(),
            ext_scratch: self.ext_scratch.clone(),
            vectorize_batch: self.vectorize_batch,
            tick: self.tick,
        }
    }
}

/// The pre-compilation interpretive executor, kept as the semantic
/// reference for differential tests and benchmark baselines.
///
/// Each tick allocates fresh input vectors per node and probe rows with
/// owned names — exactly the seed behaviour the compiled [`ReadyNetwork`]
/// replaces.
#[derive(Debug)]
pub struct ReferenceExecutor {
    net: Network,
    order: Vec<usize>,
    /// Compiled fault plan (`None` = nominal) — the oracle against which
    /// the compiled executors' fault injection is differentially tested.
    faults: Option<FaultPlan>,
    tick: Tick,
}

impl ReferenceExecutor {
    /// The current tick (number of completed reactions).
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// Resets all blocks, the tick counter, and any installed fault state.
    pub fn reset(&mut self) {
        for node in &mut self.net.nodes {
            node.block.reset();
            node.outputs.fill(Message::Absent);
        }
        if let Some(fp) = &mut self.faults {
            fp.reset();
        }
        self.tick = 0;
    }

    /// Installs (replacing any previous set) fault specs — the interpretive
    /// counterpart of [`ReadyNetwork::set_faults`], with identical
    /// interception semantics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReadyNetwork::set_faults`].
    pub fn set_faults(&mut self, specs: &[FaultSpec]) -> Result<(), KernelError> {
        let mut sites = Vec::with_capacity(specs.len());
        for spec in specs {
            sites.push((self.resolve_fault_site(&spec.target)?, spec.kind.clone()));
        }
        let plan = FaultPlan::build(self.net.nodes.len(), sites)?;
        self.faults = if plan.is_empty() { None } else { Some(plan) };
        Ok(())
    }

    /// Removes all installed faults.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    fn resolve_fault_site(&self, target: &FaultTarget) -> Result<FaultSite, KernelError> {
        let unknown = || KernelError::UnknownFaultTarget {
            target: format!("{target:?}"),
        };
        match target {
            FaultTarget::External(e) => {
                if *e < self.net.input_names.len() {
                    Ok(FaultSite::External(*e))
                } else {
                    Err(unknown())
                }
            }
            FaultTarget::Output(p) => {
                let i = p.node.index();
                if i < self.net.nodes.len() && p.port < self.net.nodes[i].outputs.len() {
                    Ok(FaultSite::Node {
                        node: i,
                        port: p.port,
                    })
                } else {
                    Err(unknown())
                }
            }
            FaultTarget::Signal(name) => {
                let (_, src) = self
                    .net
                    .probes
                    .iter()
                    .find(|(n, _)| n == name)
                    .ok_or_else(unknown)?;
                match *src {
                    Source::Node(n, p) => Ok(FaultSite::Node { node: n.0, port: p }),
                    Source::External(e) => Ok(FaultSite::External(e)),
                    Source::Open => Err(unknown()),
                }
            }
            FaultTarget::Block { name, port } => {
                let mut found = None;
                for (i, node) in self.net.nodes.iter().enumerate() {
                    if node.block.name() == name {
                        if found.is_some() {
                            return Err(KernelError::UnknownFaultTarget {
                                target: format!("block `{name}` (ambiguous: multiple instances)"),
                            });
                        }
                        found = Some(i);
                    }
                }
                let node = found.ok_or_else(unknown)?;
                if *port < self.net.nodes[node].outputs.len() {
                    Ok(FaultSite::Node { node, port: *port })
                } else {
                    Err(unknown())
                }
            }
        }
    }

    fn resolve(&self, src: Source, externals: &[Message]) -> Message {
        match src {
            Source::Open => Message::Absent,
            Source::Node(n, p) => self.net.nodes[n.0].outputs[p].clone(),
            Source::External(i) => externals[i].clone(),
        }
    }

    /// Executes one global reaction, interpretively.
    ///
    /// # Errors
    ///
    /// Fails on stimulus arity mismatch or block evaluation errors.
    pub fn step_tick(
        &mut self,
        externals: &[Message],
    ) -> Result<Vec<(String, Message)>, KernelError> {
        if externals.len() != self.net.input_names.len() {
            return Err(KernelError::StimulusArity {
                expected: self.net.input_names.len(),
                found: externals.len(),
                tick: self.tick,
            });
        }
        let t = self.tick;
        // Faulted external inputs are staged once so the whole tick reads
        // the perturbed values.
        let mut ext_owned: Option<Vec<Message>> = None;
        if let Some(fp) = &mut self.faults {
            if !fp.ext.is_empty() {
                let mut row = externals.to_vec();
                for (e, st) in &mut fp.ext {
                    st.apply(t, &mut row[*e]);
                }
                ext_owned = Some(row);
            }
        }
        let externals: &[Message] = ext_owned.as_deref().unwrap_or(externals);
        // Phase 1: step in schedule order.
        for idx in 0..self.order.len() {
            let i = self.order[idx];
            let inputs: Vec<Message> = self.net.nodes[i]
                .sources
                .iter()
                .enumerate()
                .map(|(port, &src)| {
                    if self.net.nodes[i].block.input_is_instantaneous(port) {
                        self.resolve(src, externals)
                    } else {
                        Message::Absent
                    }
                })
                .collect();
            let out = self.net.nodes[i].block.step(t, &inputs)?;
            debug_assert_eq!(out.len(), self.net.nodes[i].outputs.len());
            self.net.nodes[i].outputs = out;
            // Faults intercept between this node's commit of its outputs
            // and their delivery to any reader.
            if let Some(fp) = &mut self.faults {
                for (port, st) in &mut fp.node_faults[i] {
                    st.apply(t, &mut self.net.nodes[i].outputs[*port]);
                }
            }
        }
        // Phase 2: commit with final input values.
        for i in 0..self.net.nodes.len() {
            let inputs: Vec<Message> = self.net.nodes[i]
                .sources
                .iter()
                .map(|&src| self.resolve(src, externals))
                .collect();
            self.net.nodes[i].block.commit(t, &inputs);
        }
        // Observe probes.
        let observed = self
            .net
            .probes
            .iter()
            .map(|(name, src)| (name.clone(), self.resolve(*src, externals)))
            .collect();
        self.tick += 1;
        Ok(observed)
    }

    /// Batch continuation: run further ticks and return their trace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReferenceExecutor::step_tick`].
    pub fn run(&mut self, stimulus: &[Vec<Message>]) -> Result<Trace, KernelError> {
        let mut trace = Trace::new();
        for (name, _) in &self.net.probes {
            trace.declare(name.clone());
        }
        for row in stimulus {
            let observed = self.step_tick(row)?;
            trace.push_row(&observed)?;
        }
        Ok(trace)
    }

    /// The discrete-state coverage layout, identical to
    /// [`ReadyNetwork::coverage_layout`] of the same network (node index
    /// is insertion order in both executors).
    pub fn coverage_layout(&self) -> CoverageLayout {
        CoverageLayout::new(
            self.net
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(i, node)| {
                    node.block
                        .coverage_space()
                        .map(|s| (i, node.block.name().to_string(), s))
                })
                .collect(),
        )
    }

    /// [`ReferenceExecutor::run`] accumulating discrete-state coverage —
    /// the interpretive oracle the compiled covered paths are
    /// differentially tested against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReferenceExecutor::run`].
    pub fn run_covered(
        &mut self,
        stimulus: &[Vec<Message>],
        coverage: &mut CoverageMap,
    ) -> Result<Trace, KernelError> {
        let mut trace = Trace::new();
        for (name, _) in &self.net.probes {
            trace.declare(name.clone());
        }
        for row in stimulus {
            let observed = self.step_tick(row)?;
            trace.push_row(&observed)?;
            coverage.observe_nodes(|node| self.net.nodes[node].block.coverage_state());
        }
        Ok(trace)
    }
}

/// Builds a stimulus of `len` rows from per-input closures.
///
/// Convenience for tests and examples: each closure produces the message for
/// its input at each tick.
pub fn stimulus_from_fns(len: usize, fns: Vec<Box<dyn Fn(Tick) -> Message>>) -> Vec<Vec<Message>> {
    (0..len as Tick)
        .map(|t| fns.iter().map(|f| f(t)).collect())
        .collect()
}

/// Builds one stimulus row per tick in `0..len`, reading each stream at that
/// tick and padding past-the-end entries with [`Message::Absent`] — the
/// shared row builder behind [`stimulus_from_streams`] and the simulator
/// front-ends.
pub fn rows_padded_with_absence<S>(streams: &[S], len: usize) -> Vec<Vec<Message>>
where
    S: std::borrow::Borrow<crate::stream::Stream>,
{
    (0..len)
        .map(|t| {
            streams
                .iter()
                .map(|s| s.borrow().get(t).cloned().unwrap_or(Message::Absent))
                .collect()
        })
        .collect()
}

/// Builds a stimulus from named streams; inputs are matched by order.
pub fn stimulus_from_streams(streams: &[crate::stream::Stream]) -> Vec<Vec<Message>> {
    let len = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    rows_padded_with_absence(streams, len)
}

/// A labelled bundle of traces keyed by signal name — re-export point used by
/// higher layers that organize traces per component.
pub type SignalMap = BTreeMap<String, crate::stream::Stream>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Corruptor, FaultKind};
    use crate::ops::{AddN, BinOp, Const, Current, Delay, EveryClockGen, Lift2, UnitDelay, When};
    use crate::stream::{self, Stream};
    use crate::value::Value;

    #[test]
    fn add_network_computes_sum() {
        let mut net = Network::new("sum");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let add = net.add_block(Lift2::new(BinOp::Add));
        net.connect_input(a, add.input(0)).unwrap();
        net.connect_input(b, add.input(1)).unwrap();
        net.expose_output("sum", add.output(0)).unwrap();

        let stim = stimulus_from_streams(&[
            Stream::from_values([1i64, 2, 3]),
            Stream::from_values([10i64, 20, 30]),
        ]);
        let trace = net.run(&stim).unwrap();
        assert_eq!(
            trace.signal("sum").unwrap().present_values(),
            vec![Value::Int(11), Value::Int(22), Value::Int(33)]
        );
    }

    #[test]
    fn fig2_when_sampling_in_network() {
        let mut net = Network::new("fig2");
        let a = net.add_input("a");
        let clk = net.add_block(EveryClockGen::new(2, 0));
        let when = net.add_block(When::new());
        net.connect_input(a, when.input(0)).unwrap();
        net.connect(clk.output(0), when.input(1)).unwrap();
        net.expose_output("a'", when.output(0)).unwrap();

        let stim = stimulus_from_streams(&[Stream::from_values(0i64..6)]);
        let trace = net.run(&stim).unwrap();
        let s = trace.signal("a'").unwrap();
        // Matches the pure combinator.
        let expect = stream::when(&Stream::from_values(0i64..6), &stream::every(2, 0, 6));
        assert_eq!(s, &expect);
    }

    #[test]
    fn instantaneous_loop_is_rejected_with_cycle() {
        let mut net = Network::new("loop");
        let a = net.add_block(Lift2::new(BinOp::Add));
        let b = net.add_block(Lift2::new(BinOp::Add));
        net.connect(a.output(0), b.input(0)).unwrap();
        net.connect(b.output(0), a.input(0)).unwrap();
        let err = net.prepare().unwrap_err();
        match err {
            KernelError::Causality(e) => assert_eq!(e.cycle.len(), 2),
            other => panic!("expected causality error, got {other}"),
        }
    }

    #[test]
    fn delay_breaks_feedback_loop() {
        // Accumulator: acc = delay(acc) + in. Classic causal feedback.
        let mut net = Network::new("acc");
        let input = net.add_input("in");
        let add = net.add_block(Lift2::new(BinOp::Add));
        let del = net.add_block(Delay::new(0i64));
        net.connect_input(input, add.input(0)).unwrap();
        net.connect(del.output(0), add.input(1)).unwrap();
        net.connect(add.output(0), del.input(0)).unwrap();
        net.expose_output("acc", add.output(0)).unwrap();

        let stim = stimulus_from_streams(&[Stream::from_values([1i64, 2, 3, 4])]);
        let trace = net.run(&stim).unwrap();
        let vals: Vec<i64> = trace
            .signal("acc")
            .unwrap()
            .present_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 3, 6, 10]);
    }

    #[test]
    fn unit_delay_implements_ssd_channel_semantics() {
        // An SSD channel between two components introduces one tick delay.
        let mut net = Network::new("ssd");
        let input = net.add_input("x");
        let ch = net.add_block(UnitDelay::new(Message::Absent));
        net.connect_input(input, ch.input(0)).unwrap();
        net.expose_output("y", ch.output(0)).unwrap();

        let stim = stimulus_from_streams(&[Stream::from_values([5i64, 6, 7])]);
        let trace = net.run(&stim).unwrap();
        let y = trace.signal("y").unwrap();
        assert!(y[0].is_absent());
        assert_eq!(y[1], Message::present(5i64));
        assert_eq!(y[2], Message::present(6i64));
    }

    #[test]
    fn unconnected_input_reads_absent() {
        let mut net = Network::new("open");
        let add = net.add_block(Lift2::new(BinOp::Add));
        net.expose_output("out", add.output(0)).unwrap();
        let trace = net.run(&[vec![], vec![]]).unwrap();
        assert_eq!(trace.signal("out").unwrap().present_count(), 0);
    }

    #[test]
    fn double_connection_rejected() {
        let mut net = Network::new("dup");
        let c1 = net.add_block(Const::new(1i64));
        let c2 = net.add_block(Const::new(2i64));
        let add = net.add_block(Lift2::new(BinOp::Add));
        net.connect(c1.output(0), add.input(0)).unwrap();
        let err = net.connect(c2.output(0), add.input(0)).unwrap_err();
        assert!(matches!(err, KernelError::InputAlreadyConnected { .. }));
    }

    #[test]
    fn port_out_of_range_rejected() {
        let mut net = Network::new("oor");
        let c = net.add_block(Const::new(1i64));
        let add = net.add_block(AddN::new(2));
        assert!(matches!(
            net.connect(c.output(1), add.input(0)),
            Err(KernelError::PortOutOfRange { .. })
        ));
        assert!(matches!(
            net.connect(c.output(0), add.input(5)),
            Err(KernelError::PortOutOfRange { .. })
        ));
    }

    #[test]
    fn duplicate_probe_name_rejected() {
        let mut net = Network::new("dupname");
        let c = net.add_block(Const::new(1i64));
        net.expose_output("x", c.output(0)).unwrap();
        assert!(matches!(
            net.expose_output("x", c.output(0)),
            Err(KernelError::DuplicateName(_))
        ));
    }

    #[test]
    fn stimulus_arity_checked() {
        let mut net = Network::new("arity");
        let _a = net.add_input("a");
        let err = net.run(&[vec![]]).unwrap_err();
        assert!(matches!(err, KernelError::StimulusArity { .. }));
    }

    #[test]
    fn ready_network_reset_replays_identically() {
        let mut net = Network::new("replay");
        let input = net.add_input("in");
        let add = net.add_block(Lift2::new(BinOp::Add));
        let del = net.add_block(Delay::new(0i64));
        net.connect_input(input, add.input(0)).unwrap();
        net.connect(del.output(0), add.input(1)).unwrap();
        net.connect(add.output(0), del.input(0)).unwrap();
        net.expose_output("acc", add.output(0)).unwrap();

        let stim = stimulus_from_streams(&[Stream::from_values([1i64, 1, 1])]);
        let mut ready = net.prepare().unwrap();
        let t1 = ready.run(&stim).unwrap();
        ready.reset();
        let t2 = ready.run(&stim).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn stimulus_from_fns_builds_rows() {
        let stim = stimulus_from_fns(
            3,
            vec![
                Box::new(|t| Message::present(t as i64)),
                Box::new(|t| {
                    if t % 2 == 0 {
                        Message::present(true)
                    } else {
                        Message::Absent
                    }
                }),
            ],
        );
        assert_eq!(stim.len(), 3);
        assert_eq!(stim[1][0], Message::present(1i64));
        assert!(stim[1][1].is_absent());
        assert_eq!(stim[2][1], Message::present(true));
    }

    #[test]
    fn probe_input_records_stimulus() {
        let mut net = Network::new("probe");
        let a = net.add_input("a");
        net.probe_input("a", a).unwrap();
        let stim = stimulus_from_streams(&[Stream::from_values([4i64])]);
        let trace = net.run(&stim).unwrap();
        assert_eq!(
            trace.signal("a").unwrap().present_values(),
            vec![Value::Int(4)]
        );
    }

    /// A diamond with a delayed feedback edge: exercises fan-out/fan-in, delayed
    /// inputs, open ports, and external probes at once.
    fn diamond() -> Network {
        let mut net = Network::new("diamond");
        let input = net.add_input("x");
        let double = net.add_block(Lift2::new(BinOp::Add));
        let neg = net.add_block(Lift2::new(BinOp::Sub));
        let join = net.add_block(Lift2::new(BinOp::Add));
        let del = net.add_block(Delay::new(0i64));
        net.connect_input(input, double.input(0)).unwrap();
        net.connect_input(input, double.input(1)).unwrap();
        net.connect_input(input, neg.input(0)).unwrap();
        net.connect(del.output(0), neg.input(1)).unwrap();
        net.connect(double.output(0), join.input(0)).unwrap();
        net.connect(neg.output(0), join.input(1)).unwrap();
        net.connect(join.output(0), del.input(0)).unwrap();
        net.probe_input("x", input).unwrap();
        net.expose_output("y", join.output(0)).unwrap();
        net
    }

    #[test]
    fn compiled_executor_matches_reference_on_diamond() {
        let stim = stimulus_from_streams(&[Stream::from_values([1i64, 2, 3, 4, 5])]);
        let compiled = diamond().run(&stim).unwrap();
        let reference = diamond().run_reference(&stim).unwrap();
        assert_eq!(compiled, reference);
    }

    #[test]
    fn step_tick_observed_row_follows_probe_names() {
        let mut ready = diamond().prepare().unwrap();
        let names: Vec<String> = ready.probe_names().map(String::from).collect();
        assert_eq!(names, vec!["x", "y"]);
        let row = ready.step_tick_observed(&[Message::present(3i64)]).unwrap();
        assert_eq!(row[0], Message::present(3i64)); // probed input
        assert_eq!(row[1], Message::present(3i64 * 2 + 3)); // 2x + (x - 0)
    }

    #[test]
    fn run_batch_matches_sequential_runs() {
        let stims: Vec<Vec<Vec<Message>>> = (0..5)
            .map(|l| {
                stimulus_from_streams(&[Stream::from_values(
                    (0i64..8).map(|v| v * (l as i64 + 1)).collect::<Vec<_>>(),
                )])
            })
            .collect();
        let ready = diamond().prepare().unwrap();
        let batch = ready.run_batch(&stims).unwrap();
        for (lane, stim) in stims.iter().enumerate() {
            let mut fresh = diamond().prepare().unwrap();
            let expect = fresh.run(stim).unwrap();
            assert_eq!(batch[lane], expect, "lane {lane}");
        }
    }

    /// A stateless doubler whose lane kernel must never be requested.
    #[derive(Debug, Clone)]
    struct NoKernelPlease;

    impl Block for NoKernelPlease {
        fn name(&self) -> &str {
            "no-kernel-please"
        }
        fn input_arity(&self) -> usize {
            1
        }
        fn output_arity(&self) -> usize {
            1
        }
        fn step(&mut self, _t: Tick, inputs: &[Message]) -> Result<Vec<Message>, KernelError> {
            Ok(vec![match inputs[0].value() {
                Some(v) => Message::Present(crate::ops::apply_binop(
                    "double",
                    crate::ops::BinOp::Add,
                    v,
                    v,
                )?),
                None => Message::Absent,
            }])
        }
        fn clone_block(&self) -> Box<dyn Block + Send + Sync> {
            Box::new(self.clone())
        }
        fn lane_kernel(&self, _k: usize) -> Option<Box<dyn crate::lanes::LaneKernel>> {
            panic!("the scalar batch path asked for a lane kernel");
        }
    }

    #[test]
    fn scalar_batch_never_builds_lane_kernels() {
        // With vectorization off each lane runs alone through the
        // single-run loop: no lane kernel of any kind — an MTD's, a masked
        // expression interpreter — is ever built, so the scalar batch
        // stays an independent oracle for them.
        let mut net = Network::new("scalar");
        let x = net.add_input("x");
        let b = net.add_block(NoKernelPlease);
        net.connect_input(x, b.input(0)).unwrap();
        net.expose_output("y", b.output(0)).unwrap();
        let mut ready = net.prepare().unwrap();
        ready.set_batch_vectorization(false);
        let stims: Vec<Vec<Vec<Message>>> = (0..3)
            .map(|l| stimulus_from_streams(&[Stream::from_values([l as i64, 2, 3])]))
            .collect();
        let traces = ready.run_batch(&stims).unwrap();
        assert_eq!(traces[2].signal("y").unwrap()[0], Message::present(4i64));
    }

    /// A coverage site with a lane kernel: a three-state cycle that each
    /// present input advances, emitting the new state. Counts its clones,
    /// so a test can see whether a batch built per-lane replicas.
    #[derive(Debug, Clone)]
    struct CyclingSite {
        state: usize,
        clones: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Block for CyclingSite {
        fn name(&self) -> &str {
            "cycling-site"
        }
        fn input_arity(&self) -> usize {
            1
        }
        fn output_arity(&self) -> usize {
            1
        }
        fn step(&mut self, _t: Tick, inputs: &[Message]) -> Result<Vec<Message>, KernelError> {
            if inputs[0].is_present() {
                self.state = (self.state + 1) % 3;
            }
            Ok(vec![Message::present(self.state as i64)])
        }
        fn reset(&mut self) {
            self.state = 0;
        }
        fn clone_block(&self) -> Box<dyn Block + Send + Sync> {
            self.clones
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Box::new(self.clone())
        }
        fn lane_kernel(&self, k: usize) -> Option<Box<dyn crate::lanes::LaneKernel>> {
            Some(Box::new(CyclingSiteLanes { state: vec![0; k] }))
        }
        fn coverage_space(&self) -> Option<crate::coverage::CoverageSpace> {
            Some(crate::coverage::CoverageSpace {
                states: vec!["s0".into(), "s1".into(), "s2".into()],
                transitions: vec![(0, 1), (1, 2), (2, 0)],
                initial: 0,
            })
        }
        fn coverage_state(&self) -> usize {
            self.state
        }
    }

    /// [`CyclingSite`]'s lane kernel: one state per lane.
    #[derive(Debug)]
    struct CyclingSiteLanes {
        state: Vec<usize>,
    }

    impl crate::lanes::LaneKernel for CyclingSiteLanes {
        fn step_lanes(
            &mut self,
            _t: Tick,
            inputs: &[LaneSlice<'_>],
            out: &mut crate::lanes::LaneSliceMut<'_>,
            active: &[bool],
        ) -> Result<(), KernelError> {
            for (l, state) in self.state.iter_mut().enumerate() {
                if !active[l] {
                    continue;
                }
                if inputs[0].get(l).is_present() {
                    *state = (*state + 1) % 3;
                }
                out.set_value(l, &Value::Int(*state as i64));
            }
            Ok(())
        }
        fn coverage_state(&self, l: usize) -> usize {
            self.state[l]
        }
    }

    #[test]
    fn covered_batch_reads_coverage_from_lane_kernels() {
        // A covered batch steps a coverage site on its lane kernel: no
        // replica is cloned, and each lane's map and trace equal a lone
        // covered run's. Lane `l` sees `l` present inputs, so the lanes
        // stop at different points of the cycle (lane 3 wraps around).
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let clones = Arc::new(AtomicUsize::new(0));
        let build = || {
            let mut net = Network::new("covered");
            let x = net.add_input("x");
            let b = net.add_block(CyclingSite {
                state: 0,
                clones: Arc::clone(&clones),
            });
            net.connect_input(x, b.input(0)).unwrap();
            net.expose_output("y", b.output(0)).unwrap();
            net.prepare().unwrap()
        };
        let k = 8;
        let ready = build();
        assert_eq!(ready.lane_plan(k).replicas().count(), 0);
        let stims: Vec<Vec<Vec<Message>>> = (0..k)
            .map(|l| {
                let mut s = Stream::new();
                for t in 0..4 + l {
                    s.push(if t < l {
                        Message::present(t as i64)
                    } else {
                        Message::Absent
                    });
                }
                stimulus_from_streams(&[s])
            })
            .collect();
        let layout = Arc::new(ready.coverage_layout());
        let mut maps: Vec<CoverageMap> = (0..k)
            .map(|_| CoverageMap::new(Arc::clone(&layout)))
            .collect();
        clones.store(0, Ordering::SeqCst);
        let traces = ready.run_batch_covered(&stims, &[], &mut maps).unwrap();
        assert_eq!(clones.load(Ordering::SeqCst), 0, "the batch built replicas");
        for (l, stim) in stims.iter().enumerate() {
            let mut lone = build();
            let mut map = CoverageMap::new(Arc::clone(&layout));
            let trace = lone.run_covered(stim, &mut map).unwrap();
            assert_eq!(traces[l], trace, "lane {l} trace");
            assert_eq!(maps[l], map, "lane {l} coverage");
        }
        assert_eq!(maps[0].states_covered(), 1);
        assert_eq!(maps[1].states_covered(), 2);
        assert_eq!(maps[2].transitions_covered(), 2);
        assert_eq!(maps[3].transitions_covered(), 3);
    }

    #[test]
    fn lane_stepper_masks_lanes_and_attributes_failures() {
        // Three lanes through the (stateful) diamond: a mask that skips
        // lane 1, then a tick where lane 1 fails. Failures carry their
        // lane, and the other lanes step on exactly as lone runs do.
        let ready = diamond().prepare().unwrap();
        let y = ready.probe_names().position(|n| n == "y").unwrap();
        let lone = |xs: &[i64]| {
            let mut net = diamond().prepare().unwrap();
            let mut last = Message::Absent;
            for &x in xs {
                last = net.step_tick_observed(&[Message::present(x)]).unwrap()[y].clone();
            }
            last
        };
        let mut stepper = LaneStepper::new(&ready, 3);
        let mut ext = LaneStore::new(1, 3);
        for (l, v) in [(0, 1i64), (1, 2), (2, 3)] {
            ext.set(0, l, &Message::present(v));
        }
        let mut failures = Vec::new();
        stepper.step(0, &[ext.slice(0)], &[true, false, true], &mut failures);
        assert!(failures.is_empty());
        assert_eq!(stepper.probe(y, &[ext.slice(0)]).get(2), lone(&[3]));

        ext.set(0, 1, &Message::Present(crate::Value::sym("JUNK")));
        stepper.step(1, &[ext.slice(0)], &[true; 3], &mut failures);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].lane, 1);
        assert_eq!(stepper.probe(y, &[ext.slice(0)]).get(0), lone(&[1, 1]));
        assert_eq!(stepper.probe(y, &[ext.slice(0)]).get(2), lone(&[3, 3]));
    }

    #[test]
    fn run_batch_supports_heterogeneous_lane_lengths() {
        let stims: Vec<Vec<Vec<Message>>> = vec![
            stimulus_from_streams(&[Stream::from_values([1i64, 2, 3, 4, 5, 6, 7])]),
            stimulus_from_streams(&[Stream::from_values([9i64])]),
            Vec::new(), // zero-tick lane
            stimulus_from_streams(&[Stream::from_values([4i64, 4, 4])]),
        ];
        let ready = diamond().prepare().unwrap();
        let batch = ready.run_batch(&stims).unwrap();
        for (lane, stim) in stims.iter().enumerate() {
            assert_eq!(batch[lane].tick_count(), stim.len(), "lane {lane}");
            let expect = diamond().prepare().unwrap().run(stim).unwrap();
            assert_eq!(batch[lane], expect, "lane {lane}");
        }
    }

    #[test]
    fn run_batch_ignores_and_preserves_incremental_state() {
        // Lanes start from the initial state even when `self` has been
        // stepped, and running a batch does not disturb `self`'s state.
        let stim = stimulus_from_streams(&[Stream::from_values([1i64, 2, 3, 4])]);
        let mut dirty = diamond().prepare().unwrap();
        dirty.step_tick_observed(&[Message::present(7i64)]).unwrap();
        let before_tick = dirty.tick();
        let batch = dirty.run_batch(std::slice::from_ref(&stim)).unwrap();
        assert_eq!(dirty.tick(), before_tick);
        let expect = diamond().prepare().unwrap().run(&stim).unwrap();
        assert_eq!(batch[0], expect);
    }

    #[test]
    fn run_batch_checks_stimulus_arity_per_lane() {
        let ready = diamond().prepare().unwrap();
        let bad = vec![vec![vec![Message::present(1i64)]], vec![vec![]]];
        assert!(matches!(
            ready.run_batch(&bad),
            Err(KernelError::StimulusArity { .. })
        ));
    }

    #[test]
    fn run_batch_empty_scenario_list_returns_cleanly() {
        let ready = diamond().prepare().unwrap();
        assert_eq!(ready.run_batch(&[]).unwrap(), Vec::<Trace>::new());
        assert_eq!(
            ready.run_batch_with_faults(&[], &[]).unwrap(),
            Vec::<Trace>::new()
        );
    }

    #[test]
    fn run_batch_zero_tick_lanes_return_cleanly_with_faults() {
        let ready = diamond().prepare().unwrap();
        let stims: Vec<Vec<Vec<Message>>> = vec![Vec::new(), Vec::new()];
        let faults = vec![
            vec![FaultSpec::on_signal("y", FaultKind::drop_every(1, 0))],
            Vec::new(),
        ];
        let traces = ready.run_batch_with_faults(&stims, &faults).unwrap();
        assert_eq!(traces.len(), 2);
        for trace in &traces {
            assert_eq!(trace.tick_count(), 0);
            assert_eq!(trace.signal_count(), 2); // signals still declared
        }
    }

    #[test]
    fn run_batch_fault_plan_longer_than_stimulus_returns_cleanly() {
        // A 10-tick delay ring against a 3-tick stimulus: most in-flight
        // messages never come out, which must not trip any bound.
        let stim = stimulus_from_streams(&[Stream::from_values([1i64, 2, 3])]);
        let faults = vec![vec![FaultSpec::on_signal("y", FaultKind::Delay(10))]];
        let ready = diamond().prepare().unwrap();
        let batch = ready
            .run_batch_with_faults(std::slice::from_ref(&stim), &faults)
            .unwrap();
        assert_eq!(batch[0].tick_count(), 3);
        // Everything on `y` is still in flight.
        assert!(batch[0].signal("y").unwrap().iter().all(Message::is_absent));
        // Phase far beyond the stimulus: the drop never fires.
        let late = vec![vec![FaultSpec::on_signal(
            "y",
            FaultKind::drop_every(2, 100),
        )]];
        let nominal = diamond().prepare().unwrap().run(&stim).unwrap();
        let batch = ready
            .run_batch_with_faults(std::slice::from_ref(&stim), &late)
            .unwrap();
        assert_eq!(batch[0], nominal);
    }

    #[test]
    fn run_batch_with_faults_checks_lane_arity() {
        let ready = diamond().prepare().unwrap();
        let stims = vec![stimulus_from_streams(&[Stream::from_values([1i64, 2])])];
        let two_plans = vec![Vec::new(), Vec::new()];
        assert_eq!(
            ready.run_batch_with_faults(&stims, &two_plans),
            Err(KernelError::FaultLaneArity { lanes: 1, plans: 2 })
        );
        // Empty stimuli with a non-empty plan list is also a mismatch.
        assert_eq!(
            ready.run_batch_with_faults(&[], &two_plans),
            Err(KernelError::FaultLaneArity { lanes: 0, plans: 2 })
        );
    }

    /// `run_batch` on `ready` with vectorization on and off; both must
    /// fail with the same error, which is returned.
    fn batch_error_both_ways(
        ready: &ReadyNetwork,
        stims: &[Vec<Vec<Message>>],
        faults: &[Vec<FaultSpec>],
    ) -> KernelError {
        let typed = ready
            .run_batch_with_faults(stims, faults)
            .expect_err("typed batch fails");
        let mut lone = ready.clone();
        lone.set_batch_vectorization(false);
        let scalar = lone
            .run_batch_with_faults(stims, faults)
            .expect_err("scalar batch fails");
        assert_eq!(typed, scalar);
        typed
    }

    #[test]
    fn bad_lanes_are_rejected_before_any_lane_steps() {
        // Lane 0 fails at runtime (a symbol at tick 1) while lane 1 is
        // malformed; both paths report lane 1's malformation, found up
        // front, not lane 0's runtime error.
        let ready = diamond().prepare().unwrap();
        let junk = Message::Present(Value::sym("JUNK"));
        let failing = vec![
            vec![Message::present(1i64)],
            vec![junk],
            vec![Message::present(3i64)],
        ];
        assert!(diamond().prepare().unwrap().run(&failing).is_err());
        let ok = stimulus_from_streams(&[Stream::from_values([1i64, 2, 3])]);

        let mut short_row = ok.clone();
        short_row[2] = Vec::new();
        let e = batch_error_both_ways(&ready, &[failing.clone(), short_row], &[]);
        assert_eq!(
            e,
            KernelError::StimulusArity {
                expected: 1,
                found: 0,
                tick: 2
            }
        );

        let ghost = vec![
            Vec::new(),
            vec![FaultSpec::on_signal("ghost", FaultKind::drop_every(1, 0))],
        ];
        let e = batch_error_both_ways(&ready, &[failing, ok], &ghost);
        assert!(matches!(e, KernelError::UnknownFaultTarget { .. }), "{e}");
    }

    #[test]
    fn fault_targets_are_validated() {
        let mut ready = diamond().prepare().unwrap();
        for bad in [
            FaultSpec::on_signal("ghost", FaultKind::drop_every(1, 0)),
            FaultSpec::on_input(9, FaultKind::drop_every(1, 0)),
            FaultSpec::on_block("NoSuchBlock", 0, FaultKind::drop_every(1, 0)),
        ] {
            assert!(matches!(
                ready.set_faults(std::slice::from_ref(&bad)),
                Err(KernelError::UnknownFaultTarget { .. })
            ));
        }
        // Ambiguous block names are rejected rather than silently picking
        // one: the diamond has two `lift(+)` instances.
        assert!(matches!(
            ready.set_faults(&[FaultSpec::on_block(
                "lift(+)",
                0,
                FaultKind::drop_every(1, 0)
            )]),
            Err(KernelError::UnknownFaultTarget { .. })
        ));
        // A unique block name resolves (there is exactly one `lift(-)`).
        assert!(ready
            .set_faults(&[FaultSpec::on_block(
                "lift(-)",
                0,
                FaultKind::drop_every(2, 0)
            )])
            .is_ok());
        ready.clear_faults();
        // Invalid fault parameters surface through the same API.
        assert!(matches!(
            ready.set_faults(&[FaultSpec::on_signal("y", FaultKind::drop_every(0, 0))]),
            Err(KernelError::InvalidFault { .. })
        ));
        // A failed install leaves the network nominal.
        assert!(ready.fault_specs().is_empty());
    }

    /// Tentpole acceptance: a hand-built drop scenario whose exact
    /// first-violation tick the monitor must report.
    #[test]
    fn monitor_reports_exact_first_violation_on_executed_drop() {
        let stim = stimulus_from_streams(&[Stream::from_values((1i64..=9).collect::<Vec<_>>())]);
        let monitor = ContractMonitor::new().expect_exact("y", Clock::base());

        // Nominal run: `y` is present at every tick — clean.
        let nominal = diamond().run(&stim).unwrap();
        assert!(monitor.check(&nominal).is_clean());

        // Drop every 3rd delivery of `y` starting at tick 2.
        let mut faulted = diamond().prepare().unwrap();
        faulted
            .set_faults(&[FaultSpec::on_signal("y", FaultKind::drop_every(3, 2))])
            .unwrap();
        let trace = faulted.run(&stim).unwrap();
        let report = monitor.check(&trace);
        assert_eq!(report.first_violation_tick(), Some(2));
        let ticks: Vec<Tick> = report.violations_on("y").map(|v| v.tick).collect();
        assert_eq!(ticks, vec![2, 5, 8]);
        // The drop changes presence exactly on its schedule. (Values at
        // later ticks may legitimately differ from nominal: the diamond's
        // feedback delay stores the faulted `y`, as every reader must.)
        let y = trace.signal("y").unwrap();
        for t in 0..9 {
            assert_eq!(y[t].is_absent(), t % 3 == 2, "tick {t}");
        }
        // The interpretive oracle delivers the identical faulted trace.
        let mut reference = diamond().prepare_reference().unwrap();
        reference
            .set_faults(&[FaultSpec::on_signal("y", FaultKind::drop_every(3, 2))])
            .unwrap();
        assert_eq!(trace, reference.run(&stim).unwrap());
    }

    #[test]
    fn every_fault_kind_is_executor_invariant_on_diamond() {
        let stim = stimulus_from_streams(&[Stream::from_values((0i64..24).collect::<Vec<_>>())]);
        let cases: Vec<(&str, Vec<FaultSpec>)> = vec![
            (
                "drop-signal",
                vec![FaultSpec::on_signal("y", FaultKind::drop_every(2, 1))],
            ),
            (
                "drop-input",
                vec![FaultSpec::on_input(0, FaultKind::drop_every(3, 0))],
            ),
            (
                "stuck",
                vec![FaultSpec::on_signal(
                    "y",
                    FaultKind::StuckAt(Value::Int(42)),
                )],
            ),
            (
                "delay",
                vec![FaultSpec::on_signal("y", FaultKind::Delay(2))],
            ),
            (
                "jitter",
                vec![FaultSpec::on_input(
                    0,
                    FaultKind::Jitter { seed: 7, hold: 0.4 },
                )],
            ),
            (
                "corrupt",
                vec![FaultSpec::on_signal(
                    "y",
                    FaultKind::Corrupt(Corruptor::scale(2.0)),
                )],
            ),
            (
                "mixed",
                vec![
                    FaultSpec::on_input(0, FaultKind::Delay(1)),
                    FaultSpec::on_signal("y", FaultKind::drop_every(4, 2)),
                ],
            ),
        ];
        for (label, specs) in &cases {
            let mut ready = diamond().prepare().unwrap();
            ready.set_faults(specs).unwrap();
            let mut reference = diamond().prepare_reference().unwrap();
            reference.set_faults(specs).unwrap();
            let compiled = ready.run(&stim).unwrap();
            let interpreted = reference.run(&stim).unwrap();
            assert_eq!(compiled, interpreted, "{label}");

            // Faulted traces genuinely differ from nominal (the fault bites).
            let nominal = diamond().prepare().unwrap().run(&stim).unwrap();
            assert_ne!(compiled, nominal, "{label}");

            // Reset replays the faulted trace exactly (stateful kinds rewind).
            ready.reset();
            assert_eq!(ready.run(&stim).unwrap(), compiled, "{label} replay");
        }
    }

    #[test]
    fn faults_bypass_gating_only_when_unsafe() {
        let stim = stimulus_from_streams(&[Stream::from_values((0i64..25).collect::<Vec<_>>())]);
        // Drop faults are gating-safe: the plan stays engaged and traces
        // still match the reference.
        for specs in [
            vec![FaultSpec::on_signal("slow", FaultKind::drop_every(2, 0))],
            vec![FaultSpec::on_input(0, FaultKind::Delay(3))],
            vec![FaultSpec::on_signal(
                "held",
                FaultKind::StuckAt(Value::Int(5)),
            )],
            vec![FaultSpec::on_signal(
                "acc",
                FaultKind::Jitter { seed: 3, hold: 0.5 },
            )],
        ] {
            let mut ready = multirate(4, 1).prepare().unwrap();
            ready.set_faults(&specs).unwrap();
            let mut reference = multirate(4, 1).prepare_reference().unwrap();
            reference.set_faults(&specs).unwrap();
            assert_eq!(ready.run(&stim).unwrap(), reference.run(&stim).unwrap());
        }
    }

    #[test]
    fn clear_faults_restores_nominal_behavior() {
        let stim = stimulus_from_streams(&[Stream::from_values([1i64, 2, 3, 4])]);
        let nominal = diamond().prepare().unwrap().run(&stim).unwrap();
        let mut ready = diamond().prepare().unwrap();
        ready
            .set_faults(&[FaultSpec::on_signal("y", FaultKind::drop_every(1, 0))])
            .unwrap();
        assert_ne!(ready.run(&stim).unwrap(), nominal);
        ready.clear_faults();
        ready.reset();
        assert_eq!(ready.run(&stim).unwrap(), nominal);
    }

    #[test]
    fn cloned_network_carries_fault_state() {
        let stim = stimulus_from_streams(&[Stream::from_values((0i64..10).collect::<Vec<_>>())]);
        let mut a = diamond().prepare().unwrap();
        a.set_faults(&[FaultSpec::on_signal("y", FaultKind::Delay(2))])
            .unwrap();
        for row in &stim[..3] {
            a.step_tick_observed(row).unwrap();
        }
        let mut b = a.clone();
        assert_eq!(a.run(&stim[3..]).unwrap(), b.run(&stim[3..]).unwrap());
    }

    #[test]
    fn batch_lane_faults_match_sequential_faulted_runs() {
        let stims: Vec<Vec<Vec<Message>>> = (0..20)
            .map(|l| {
                stimulus_from_streams(&[Stream::from_values(
                    (0i64..6).map(|v| v + l as i64).collect::<Vec<_>>(),
                )])
            })
            .collect();
        // Heterogeneous per-lane faults, cycling through every kind.
        let lane_faults: Vec<Vec<FaultSpec>> = (0..20)
            .map(|l| match l % 5 {
                0 => vec![FaultSpec::on_signal(
                    "y",
                    FaultKind::drop_every(2, l as u64 % 3),
                )],
                1 => vec![FaultSpec::on_input(0, FaultKind::Delay(1 + l % 3))],
                2 => vec![FaultSpec::on_signal(
                    "y",
                    FaultKind::Jitter {
                        seed: l as u64,
                        hold: 0.3,
                    },
                )],
                3 => Vec::new(), // nominal lane inside a faulted batch
                _ => vec![FaultSpec::on_signal(
                    "y",
                    FaultKind::StuckAt(Value::Int(-1)),
                )],
            })
            .collect();
        let ready = diamond().prepare().unwrap();
        let batch = ready.run_batch_with_faults(&stims, &lane_faults).unwrap();
        for (lane, (stim, specs)) in stims.iter().zip(&lane_faults).enumerate() {
            let mut solo = diamond().prepare().unwrap();
            solo.set_faults(specs).unwrap();
            assert_eq!(batch[lane], solo.run(stim).unwrap(), "lane {lane}");
        }
    }

    #[test]
    fn batch_combines_installed_and_lane_faults() {
        // The network-wide spec applies to every lane; the lane spec stacks
        // on top — matching a sequential run with both installed.
        let stims: Vec<Vec<Vec<Message>>> = (0..2)
            .map(|l| {
                stimulus_from_streams(&[Stream::from_values(
                    (1i64..8).map(|v| v * (l + 1) as i64).collect::<Vec<_>>(),
                )])
            })
            .collect();
        let shared = FaultSpec::on_input(0, FaultKind::drop_every(3, 1));
        let lane_only = FaultSpec::on_signal("y", FaultKind::Delay(1));
        let mut ready = diamond().prepare().unwrap();
        ready.set_faults(std::slice::from_ref(&shared)).unwrap();
        let lane_faults = vec![Vec::new(), vec![lane_only.clone()]];
        let batch = ready.run_batch_with_faults(&stims, &lane_faults).unwrap();

        let mut lane0 = diamond().prepare().unwrap();
        lane0.set_faults(std::slice::from_ref(&shared)).unwrap();
        assert_eq!(batch[0], lane0.run(&stims[0]).unwrap());
        let mut lane1 = diamond().prepare().unwrap();
        lane1.set_faults(&[shared, lane_only]).unwrap();
        assert_eq!(batch[1], lane1.run(&stims[1]).unwrap());
    }

    #[test]
    fn inferred_contracts_catch_timing_faults() {
        // A network with genuine static clock structure on its probes: a
        // gate (always-present Boolean) and a declared every(2) constant.
        let build = || {
            let mut net = Network::new("contracts");
            let clk = net.add_block(EveryClockGen::new(2, 0));
            let c = net.add_block(Const::on_clock(7i64, Clock::every(2, 0)));
            net.expose_output("gate", clk.output(0)).unwrap();
            net.expose_output("c", c.output(0)).unwrap();
            net
        };
        let ready = build().prepare().unwrap();
        let monitor = ready.inferred_contracts();
        assert_eq!(monitor.len(), 2);
        let stim: Vec<Vec<Message>> = (0..8).map(|_| Vec::new()).collect();

        // Nominal execution satisfies the inferred contracts.
        let nominal = build().run(&stim).unwrap();
        assert!(monitor.check(&nominal).is_clean());

        // Delaying the declared signal by one tick pushes its messages onto
        // inactive ticks — caught by the subclock contract at tick 1.
        let mut faulted = build().prepare().unwrap();
        faulted
            .set_faults(&[FaultSpec::on_signal("c", FaultKind::Delay(1))])
            .unwrap();
        let report = monitor.check(&faulted.run(&stim).unwrap());
        assert_eq!(report.first_violation_tick(), Some(1));
        assert_eq!(report.first_violation().unwrap().signal, "c");

        // Dropping the gate violates its exact base-clock contract.
        let mut gate_fault = build().prepare().unwrap();
        gate_fault
            .set_faults(&[FaultSpec::on_signal("gate", FaultKind::drop_every(4, 3))])
            .unwrap();
        let report = monitor.check(&gate_fault.run(&stim).unwrap());
        assert_eq!(report.first_violation_tick(), Some(3));
        assert_eq!(report.first_violation().unwrap().signal, "gate");
    }

    #[test]
    fn cloned_ready_network_carries_block_state() {
        let stim = stimulus_from_streams(&[Stream::from_values([1i64, 1, 1, 1])]);
        let mut a = diamond().prepare().unwrap();
        // Advance two ticks, clone, then both must continue identically.
        for row in &stim[..2] {
            a.step_tick_observed(row).unwrap();
        }
        let mut b = a.clone();
        let ra = a.run(&stim[2..]).unwrap();
        let rb = b.run(&stim[2..]).unwrap();
        assert_eq!(ra, rb);
    }

    /// A mixed-rate fixture: a base-rate accumulator plus a `period`-rate
    /// sampled subsystem (clock gen → when → scale → slow delay → current)
    /// whose strict nodes are inert on all but one phase in `period`.
    fn multirate(period: u32, phase: u32) -> Network {
        let mut net = Network::new("multirate");
        let input = net.add_input("u");
        let acc = net.add_block(Lift2::new(BinOp::Add));
        let del = net.add_block(Delay::new(0i64));
        net.connect_input(input, acc.input(0)).unwrap();
        net.connect(del.output(0), acc.input(1)).unwrap();
        net.connect(acc.output(0), del.input(0)).unwrap();
        net.expose_output("acc", acc.output(0)).unwrap();

        let clk = net.add_block(EveryClockGen::new(period, phase));
        let when = net.add_block(When::new());
        net.connect_input(input, when.input(0)).unwrap();
        net.connect(clk.output(0), when.input(1)).unwrap();
        let gain = net.add_block(Const::on_clock(3i64, Clock::every(period, phase)));
        let scale = net.add_block(Lift2::new(BinOp::Mul));
        net.connect(when.output(0), scale.input(0)).unwrap();
        net.connect(gain.output(0), scale.input(1)).unwrap();
        let slow_del = net.add_block(Delay::on_clock(
            Some(Value::Int(0)),
            Clock::every(period, phase),
        ));
        net.connect(scale.output(0), slow_del.input(0)).unwrap();
        let hold = net.add_block(Current::new(0i64));
        net.connect(slow_del.output(0), hold.input(0)).unwrap();
        net.expose_output("slow", slow_del.output(0)).unwrap();
        net.expose_output("held", hold.output(0)).unwrap();
        net
    }

    #[test]
    fn clock_gating_compiles_for_multirate_networks() {
        let ready = multirate(4, 0).prepare().unwrap();
        assert_eq!(ready.gated_hyperperiod(), Some(4));
        // The all-base-rate diamond admits no gating.
        assert_eq!(diamond().prepare().unwrap().gated_hyperperiod(), None);
    }

    #[test]
    fn gated_run_matches_reference_and_ungated() {
        let stim = stimulus_from_streams(&[Stream::from_values((0i64..41).collect::<Vec<_>>())]);
        for phase in [0u32, 1, 3] {
            let mut gated = multirate(4, phase).prepare().unwrap();
            assert!(gated.gated_hyperperiod().is_some());
            let mut ungated = multirate(4, phase).prepare().unwrap();
            ungated.disable_clock_gating();
            let reference = multirate(4, phase).run_reference(&stim).unwrap();
            assert_eq!(gated.run(&stim).unwrap(), reference, "phase {phase}");
            assert_eq!(ungated.run(&stim).unwrap(), reference, "phase {phase}");
        }
    }

    #[test]
    fn gating_respects_unnormalized_phase_offsets() {
        // `Every { n: 4, phase: 6 }` built through the pub fields is only
        // eventually periodic; gating must not engage before the offset
        // settles, and the entry clear must drop stale pre-settle values.
        let build = || {
            let mut net = Network::new("unnorm");
            let c = net.add_block(Const::on_clock(2i64, Clock::Every { n: 4, phase: 6 }));
            let dbl = net.add_block(Lift2::new(BinOp::Add));
            net.connect(c.output(0), dbl.input(0)).unwrap();
            net.connect(c.output(0), dbl.input(1)).unwrap();
            net.expose_output("y", dbl.output(0)).unwrap();
            net
        };
        let stim: Vec<Vec<Message>> = (0..20).map(|_| Vec::new()).collect();
        let gated = build().run(&stim).unwrap();
        let reference = build().run_reference(&stim).unwrap();
        assert_eq!(gated, reference);
        let y = gated.signal("y").unwrap();
        assert_eq!(y[6], Message::present(4i64));
        assert_eq!(y[10], Message::present(4i64));
        assert!((0..6).all(|t| y[t].is_absent()));
        assert!(y[7].is_absent() && y[8].is_absent() && y[9].is_absent());
    }

    #[test]
    fn gated_batch_matches_ungated() {
        let stims: Vec<Vec<Vec<Message>>> = (0..3)
            .map(|l| {
                stimulus_from_streams(&[Stream::from_values(
                    (0i64..17).map(|v| v * (l as i64 + 1)).collect::<Vec<_>>(),
                )])
            })
            .collect();
        let gated = multirate(6, 2).prepare().unwrap();
        let mut ungated = multirate(6, 2).prepare().unwrap();
        ungated.disable_clock_gating();
        let expect = ungated.run_batch(&stims).unwrap();
        assert_eq!(gated.run_batch(&stims).unwrap(), expect);
    }

    #[test]
    fn gated_reset_replays_identically() {
        let stim = stimulus_from_streams(&[Stream::from_values((0i64..13).collect::<Vec<_>>())]);
        let mut ready = multirate(3, 1).prepare().unwrap();
        let t1 = ready.run(&stim).unwrap();
        ready.reset();
        let t2 = ready.run(&stim).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn rows_padded_with_absence_pads_short_streams() {
        let rows = rows_padded_with_absence(
            &[Stream::from_values([1i64]), Stream::from_values([7i64, 8])],
            3,
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            vec![Message::present(1i64), Message::present(7i64)]
        );
        assert_eq!(rows[1], vec![Message::Absent, Message::present(8i64)]);
        assert_eq!(rows[2], vec![Message::Absent, Message::Absent]);
    }
}
