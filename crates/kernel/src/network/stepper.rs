//! The typed lane tick body.
//!
//! [`LaneStepper`] holds the per-batch state of one prepared network at K
//! lanes — typed arena columns, one [`LaneKernel`] per vectorized node and
//! K per-lane replicas per remaining node — and steps all K lanes through
//! one tick per call. [`ReadyNetwork::run_batch`] drives one stepper over
//! the whole batch (adding quiet-stretch skips, fault staging, trace
//! observation and coverage around it); the MTD lane kernel drives one per
//! mode subnet, under a per-tick mask of the lanes currently in that mode.
//!
//! Failures are attributed per lane and never abort a tick: a failing lane
//! is recorded with its own first error — the error it would hit run in
//! isolation — and masked out, and the remaining lanes step on.

use std::borrow::Borrow;
use std::fmt;

use super::{activation_for, quiet_until_for, ReadyNetwork, Slot};
use crate::event::{Engine, HeapState};
use crate::fault::FaultPlan;
use crate::lanes::{LaneFailure, LaneKernel, LaneSlice, LaneStore};
use crate::ops::Block;
use crate::value::Message;
use crate::Tick;

/// Why a node runs on per-lane replicas instead of a lane kernel in a
/// typed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaReason {
    /// The block has more than one output port; lane kernels drive a
    /// single output cell.
    MultiOutput,
    /// The block offers no lane kernel.
    NoLaneKernel,
    /// An MTD whose mode subnets read the tick number (a clock-gated plan
    /// or a declared non-base clock): each lane's mode subnet counts its
    /// own ticks, so lanes cannot share one mode stepper.
    TickDependentModes,
}

impl fmt::Display for ReplicaReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplicaReason::MultiOutput => "multi-output",
            ReplicaReason::NoLaneKernel => "no lane kernel",
            ReplicaReason::TickDependentModes => "tick-dependent mode subnet",
        })
    }
}

/// Where each node of a prepared network runs in a typed batch of K
/// lanes ([`ReadyNetwork::lane_plan`]).
#[derive(Debug, Clone)]
pub struct LanePlan {
    /// The lane count the plan was made for.
    pub lanes: usize,
    /// Per node, in node order: the block name and `None` when a lane
    /// kernel steps it, or why it runs on replicas.
    pub nodes: Vec<(String, Option<ReplicaReason>)>,
}

impl LanePlan {
    /// Number of nodes stepped by lane kernels.
    pub fn vectorized(&self) -> usize {
        self.nodes.iter().filter(|(_, r)| r.is_none()).count()
    }

    /// The replica nodes with their reasons, in node order.
    pub fn replicas(&self) -> impl Iterator<Item = (&str, ReplicaReason)> {
        self.nodes
            .iter()
            .filter_map(|(n, r)| r.map(|r| (n.as_str(), r)))
    }
}

impl fmt::Display for LanePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let replicas = self.nodes.len() - self.vectorized();
        write!(
            f,
            "lanes={} vectorized={} replica={}",
            self.lanes,
            self.vectorized(),
            replicas
        )?;
        for (name, reason) in self.replicas() {
            write!(f, "\n  replica {name}: {reason}")?;
        }
        Ok(())
    }
}

/// Picks node `i`'s lane kernel, or the reason it runs on replicas.
fn classify(net: &ReadyNetwork, i: usize, k: usize) -> Result<Box<dyn LaneKernel>, ReplicaReason> {
    let block = &net.blocks[i];
    if net.out_offset[i + 1] - net.out_offset[i] != 1 {
        return Err(ReplicaReason::MultiOutput);
    }
    block.lane_kernel(k).ok_or_else(|| block.lane_refusal())
}

impl ReadyNetwork {
    /// Where each node runs in a typed batch of `k` lanes: on a lane
    /// kernel, or on per-lane replicas and why. Covered and nominal
    /// batches share one plan: a covered batch reads a kernel node's
    /// per-lane discrete state from its kernel
    /// ([`LaneKernel::coverage_state`]).
    pub fn lane_plan(&self, k: usize) -> LanePlan {
        LanePlan {
            lanes: k,
            nodes: (0..self.blocks.len())
                .map(|i| {
                    let reason = classify(self, i, k).err();
                    (self.blocks[i].name().to_string(), reason)
                })
                .collect(),
        }
    }
}

/// Empties `v` and re-types it for a new borrow lifetime. The in-place
/// `collect` keeps the allocation, so per-node port lists cost no
/// allocation after the first tick.
fn recycle<'b>(mut v: Vec<LaneSlice<'_>>) -> Vec<LaneSlice<'b>> {
    v.clear();
    v.into_iter()
        .map(|_| -> LaneSlice<'b> { unreachable!("the vector was cleared") })
        .collect()
}

/// The column an input port or probe reads.
#[inline]
fn column<'a>(
    slot: Slot,
    arena: &'a LaneStore,
    inputs: &[LaneSlice<'a>],
    absent: &'a LaneStore,
) -> LaneSlice<'a> {
    match slot {
        Slot::Open => absent.slice(0),
        Slot::Arena(a) => arena.slice(a),
        Slot::External(e) => inputs[e],
    }
}

/// Steps all K lanes of one prepared network per call over typed columns:
/// the one typed tick body (see the module docs).
///
/// `N` is how the stepper holds its network — a borrow for a batch run,
/// an `Arc` inside a lane kernel. The stepper starts from the network's
/// freshly reset state; the network's own incremental state is never
/// touched. Lanes that are not active in a call keep their state.
pub struct LaneStepper<N: Borrow<ReadyNetwork>> {
    net: N,
    k: usize,
    kernels: Vec<Option<Box<dyn LaneKernel>>>,
    /// Per-lane replicas of the nodes without a kernel (empty otherwise).
    replicas: Vec<Vec<Box<dyn Block + Send + Sync>>>,
    engine: Engine,
    heap: Option<Box<HeapState>>,
    arena: LaneStore,
    /// Shared all-absent cell for open and non-instantaneous ports.
    absent: LaneStore,
    /// Vectorized nodes step into this cell, which is then written back to
    /// the arena — keeping input borrows and output writes disjoint.
    out_buf: LaneStore,
    /// The tick's live lanes: the caller's mask minus failed lanes.
    mask: Vec<bool>,
    in_msgs: Vec<Message>,
    out_msgs: Vec<Message>,
    /// Recycled per-node port list (see [`recycle`]).
    ports: Vec<LaneSlice<'static>>,
}

impl<N: Borrow<ReadyNetwork>> fmt::Debug for LaneStepper<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneStepper")
            .field("network", &self.net.borrow().name())
            .field("lanes", &self.k)
            .finish()
    }
}

impl<N: Borrow<ReadyNetwork>> LaneStepper<N> {
    /// A stepper for `k` lanes of `net`, on the network's compiled clock
    /// engine.
    pub fn new(net: N, k: usize) -> Self {
        LaneStepper::build(net, k, true)
    }

    /// A stepper that optionally runs ungated (`gated == false`, for fault
    /// plans that do not compose with gating). Nodes are placed as in
    /// [`ReadyNetwork::lane_plan`], covered runs included.
    pub(crate) fn build(net: N, k: usize, gated: bool) -> Self {
        let r: &ReadyNetwork = net.borrow();
        let n = r.blocks.len();
        let kernels: Vec<Option<Box<dyn LaneKernel>>> =
            (0..n).map(|i| classify(r, i, k).ok()).collect();
        let replicas = (0..n)
            .map(|i| {
                if kernels[i].is_some() {
                    return Vec::new();
                }
                (0..k)
                    .map(|_| {
                        let mut replica = r.blocks[i].clone_block();
                        replica.reset();
                        replica
                    })
                    .collect()
            })
            .collect();
        let max_ia = (0..n)
            .map(|i| r.slot_offset[i + 1] - r.slot_offset[i])
            .max()
            .unwrap_or(0);
        let max_oa = (0..n)
            .map(|i| r.out_offset[i + 1] - r.out_offset[i])
            .max()
            .unwrap_or(0);
        let engine = if gated {
            r.engine.clone()
        } else {
            Engine::Dense
        };
        let arena = LaneStore::new(*r.out_offset.last().unwrap(), k);
        LaneStepper {
            k,
            kernels,
            replicas,
            engine,
            heap: None,
            arena,
            absent: LaneStore::new(1, k),
            out_buf: LaneStore::new(1, k),
            mask: vec![false; k],
            in_msgs: vec![Message::Absent; max_ia],
            out_msgs: vec![Message::Absent; max_oa.max(1)],
            ports: Vec::with_capacity(max_ia),
            net,
        }
    }

    /// Steps every lane with `active[l]` through tick `t`. `inputs` holds
    /// one column per external input of the network. Failing lanes are
    /// appended to `failures`, each once (see the module docs), and leave
    /// their probe columns unspecified; every other active lane
    /// steps exactly as a lone run would.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has fewer columns than the network has external
    /// inputs, or `active` does not have one entry per lane.
    pub fn step(
        &mut self,
        t: Tick,
        inputs: &[LaneSlice<'_>],
        active: &[bool],
        failures: &mut Vec<LaneFailure>,
    ) {
        self.step_faulted(t, inputs, active, None, failures);
    }

    /// [`LaneStepper::step`] with per-lane fault plans applied right after
    /// each node's outputs.
    pub(crate) fn step_faulted(
        &mut self,
        t: Tick,
        inputs: &[LaneSlice<'_>],
        active: &[bool],
        mut faults: Option<&mut [FaultPlan]>,
        failures: &mut Vec<LaneFailure>,
    ) {
        let LaneStepper {
            net,
            k,
            kernels,
            replicas,
            engine,
            heap,
            arena,
            absent,
            out_buf,
            mask,
            in_msgs,
            out_msgs,
            ports,
        } = self;
        let net: &ReadyNetwork = (*net).borrow();
        let k = *k;
        assert!(inputs.len() >= net.n_inputs, "one column per input");
        mask.copy_from_slice(active);
        let act = activation_for(engine, &net.order, &net.commit_nodes, heap, t);

        // Clear all lanes of nodes that just went inert.
        for &i in act.clears {
            arena.clear_cells(net.out_offset[i]..net.out_offset[i + 1]);
        }

        // Phase 1: step in schedule order. A vectorized node steps all
        // lanes in one kernel call over borrowed columns; a replica node
        // decodes per lane into `Message` scratch.
        for &i in act.nodes {
            let (lo, hi) = (net.slot_offset[i], net.slot_offset[i + 1]);
            let ia = hi - lo;
            let before = failures.len();
            if let Some(kern) = kernels[i].as_mut() {
                let mut cols = recycle(std::mem::take(ports));
                cols.extend((lo..hi).map(|flat| {
                    if net.inst(flat) {
                        column(net.slots[flat], arena, inputs, absent)
                    } else {
                        absent.slice(0)
                    }
                }));
                let stepped = kern.step_lanes(t, &cols, &mut out_buf.slice_mut(0), mask);
                if let Err(err) = stepped {
                    if !kern.take_lane_failures(failures) {
                        // A stateless kernel: replay its lanes on a
                        // fresh replica to attribute the error to each
                        // failing lane. The replica's outputs stand in
                        // for the kernel's on the surviving lanes.
                        let mut replica = net.blocks[i].clone_block();
                        replica.reset();
                        let mut out = out_buf.slice_mut(0);
                        for l in (0..k).filter(|&l| mask[l]) {
                            for (m, col) in in_msgs.iter_mut().zip(&cols) {
                                *m = col.get(l);
                            }
                            match replica.step_into(t, &in_msgs[..ia], &mut out_msgs[..1]) {
                                Ok(()) => out.set(l, &out_msgs[0]),
                                Err(error) => failures.push(LaneFailure { lane: l, error }),
                            }
                        }
                        if failures.len() == before {
                            // The kernel failed where no lane does:
                            // surface its error rather than hide it.
                            let lane = mask.iter().position(|&a| a).unwrap_or(0);
                            failures.push(LaneFailure { lane, error: err });
                        }
                    }
                }
                *ports = recycle(cols);
                arena.write_cell(net.out_offset[i], out_buf);
            } else {
                let (out_lo, oa) = (net.out_offset[i], net.out_offset[i + 1] - net.out_offset[i]);
                for l in 0..k {
                    if !mask[l] {
                        continue;
                    }
                    for (m, flat) in in_msgs.iter_mut().zip(lo..hi) {
                        *m = if net.inst(flat) {
                            column(net.slots[flat], arena, inputs, absent).get(l)
                        } else {
                            Message::Absent
                        };
                    }
                    match replicas[i][l].step_into(t, &in_msgs[..ia], &mut out_msgs[..oa]) {
                        Ok(()) => {
                            for (p, m) in out_msgs[..oa].iter().enumerate() {
                                arena.set(out_lo + p, l, m);
                            }
                        }
                        Err(error) => failures.push(LaneFailure { lane: l, error }),
                    }
                }
            }
            for f in &failures[before..] {
                mask[f.lane] = false;
            }
            // Faults land right after the node's outputs commit,
            // decoded through the columns per faulted (port, lane).
            if let Some(plans) = faults.as_deref_mut() {
                for (l, plan) in plans.iter_mut().enumerate() {
                    if !mask[l] {
                        continue;
                    }
                    for (port, st) in &mut plan.node_faults[i] {
                        let cell = net.out_offset[i] + *port;
                        let mut m = arena.decode(cell, l);
                        st.apply(t, &mut m);
                        arena.set(cell, l, &m);
                    }
                }
            }
        }

        // Phase 2: commit with final input values. Vectorized nodes borrow
        // every port as a column; replica nodes decode per lane.
        for &i in act.commits {
            let (lo, hi) = (net.slot_offset[i], net.slot_offset[i + 1]);
            if let Some(kern) = kernels[i].as_mut() {
                let mut cols = recycle(std::mem::take(ports));
                cols.extend((lo..hi).map(|flat| column(net.slots[flat], arena, inputs, absent)));
                kern.commit_lanes(t, &cols, mask);
                *ports = recycle(cols);
            } else {
                for l in 0..k {
                    if !mask[l] {
                        continue;
                    }
                    for (m, flat) in in_msgs.iter_mut().zip(lo..hi) {
                        *m = column(net.slots[flat], arena, inputs, absent).get(l);
                    }
                    replicas[i][l].commit(t, &in_msgs[..hi - lo]);
                }
            }
        }
    }

    /// Probe `j`'s column after a step ([`ReadyNetwork::probe_names`]
    /// order); `inputs` are the columns the step read.
    pub fn probe<'a>(&'a self, j: usize, inputs: &[LaneSlice<'a>]) -> LaneSlice<'a> {
        let slot = self.net.borrow().probe_slots[j];
        column(slot, &self.arena, inputs, &self.absent)
    }

    /// Exclusive end of the provably silent stretch starting at `t`,
    /// clamped to `limit` (see [`quiet_until_for`]).
    pub(crate) fn quiet_until(&mut self, t: Tick, limit: Tick) -> Tick {
        quiet_until_for(&self.engine, &mut self.heap, t, limit)
    }

    /// Lane `l`'s coverage state of `node`: read from the node's lane
    /// kernel when it has one, otherwise from its lane-`l` replica.
    pub(crate) fn coverage_state(&self, node: usize, l: usize) -> usize {
        match &self.kernels[node] {
            Some(kern) => kern.coverage_state(l),
            None => self.replicas[node][l].coverage_state(),
        }
    }
}
