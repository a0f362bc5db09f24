//! Elaboration: meta-model → executable kernel network.
//!
//! ## Stable block naming — the internal fault-injection surface
//!
//! Every block created during elaboration carries a deterministic name
//! derived from the component instance path, so tools (in particular
//! [`FaultTarget::Block`](automode_kernel::FaultTarget::Block)) can address
//! *internal* channels of an elaborated model without knowing arena indices:
//!
//! * `in:{path}.{port}` — the pass-through block fanning out input `port`
//!   of the instance at `path`; faulting its output port 0 intercepts
//!   everything that instance reads on that port.
//! * `{path}.{output}` — the expression block defining output `output` of a
//!   `Behavior::Expr` component.
//! * `stub:{path}.{port}` — the all-absent stub standing in for an
//!   unspecified output (legal at FAA).
//! * `mtd:{path}` / `std:{path}` — mode- and state-machine interpreter
//!   blocks.
//!
//! Composite instance paths join with `/` (`Root/child/grandchild`), so the
//! names are unique per instance; primitive blocks (`Delay`, `When`, ...)
//! keep their generic operator names and should be addressed through the
//! `in:` boundary of their owning instance instead.

use std::collections::BTreeMap;
use std::sync::Arc;

use automode_core::model::{Behavior, ComponentId, CompositeKind, Model, Primitive};
use automode_core::CoreError;
use automode_kernel::lanes::{LaneFailure, LaneSlice, LaneSliceMut, LaneStore, TAG_BOOL};
use automode_kernel::network::{LaneStepper, Network, PortRef, ReadyNetwork, ReplicaReason};
use automode_kernel::ops::{self, Block, PureFn};
use automode_kernel::{Clock, KernelError, LaneKernel, Message, Tick, Value};
use automode_lang::{Env, ExprBlock, LaneEval, Program, Scratch};

use crate::error::SimError;

/// The wiring interface of one elaborated component instance.
#[derive(Debug, Clone)]
struct Iface {
    /// Where to connect each input port's source.
    inputs: BTreeMap<String, PortRef>,
    /// Where each output port's value is produced.
    outputs: BTreeMap<String, PortRef>,
}

// Port-boundary wires use `ops::Identity` rather than an opaque closure:
// `Identity` declares `ClockBehavior::Passthrough`, so static clock
// information survives component boundaries and downstream nodes stay
// eligible for clock-gated scheduling.

fn absent_stub(name: String) -> PureFn {
    PureFn::new(name, 0, 1, |_, _: &[Message]| Ok(vec![Message::Absent]))
}

/// Elaborates `root` into a standalone [`Network`]: one external input per
/// input port, one exposed output per output port (both keep their port
/// names).
///
/// # Errors
///
/// Returns structural, typing, or causality errors discovered during
/// elaboration.
pub fn elaborate(model: &Model, root: ComponentId) -> Result<Network, SimError> {
    let comp = model.component(root);
    let mut net = Network::new(comp.name.clone());
    let mut ext = BTreeMap::new();
    for p in comp.inputs() {
        ext.insert(p.name.clone(), net.add_input(p.name.clone()));
    }
    let iface = build_instance(&mut net, model, root, comp.name.clone())?;
    for p in comp.inputs() {
        net.connect_input(ext[&p.name], iface.inputs[&p.name])?;
    }
    for p in comp.outputs() {
        net.expose_output(p.name.clone(), iface.outputs[&p.name])?;
    }
    Ok(net)
}

fn build_instance(
    net: &mut Network,
    model: &Model,
    cid: ComponentId,
    path: String,
) -> Result<Iface, SimError> {
    let comp = model.component(cid);
    let input_names: Vec<String> = comp.inputs().map(|p| p.name.clone()).collect();
    let output_names: Vec<String> = comp.outputs().map(|p| p.name.clone()).collect();

    // One pass-through block per input port: gives every input a stable
    // internal fan-out point.
    let mut in_handles = BTreeMap::new();
    for name in &input_names {
        let h = net.add_block(ops::Identity::new(format!("in:{path}.{name}")));
        in_handles.insert(name.clone(), h);
    }
    let inputs: BTreeMap<String, PortRef> = in_handles
        .iter()
        .map(|(n, h)| (n.clone(), h.input(0)))
        .collect();
    let mut outputs: BTreeMap<String, PortRef> = BTreeMap::new();

    match &comp.behavior {
        Behavior::Unspecified => {
            for name in &output_names {
                let h = net.add_block(absent_stub(format!("stub:{path}.{name}")));
                outputs.insert(name.clone(), h.output(0));
            }
        }
        Behavior::Expr(defs) => {
            for name in &output_names {
                let expr = defs.get(name).ok_or_else(|| CoreError::Level {
                    level: "FDA",
                    message: format!("output `{path}.{name}` has no defining expression"),
                })?;
                let blk = ExprBlock::with_inputs(
                    format!("{path}.{name}"),
                    input_names.clone(),
                    expr.clone(),
                );
                let h = net.add_block(blk);
                for (i, inp) in input_names.iter().enumerate() {
                    net.connect(in_handles[inp].output(0), h.input(i))?;
                }
                outputs.insert(name.clone(), h.output(0));
            }
        }
        Behavior::Primitive(p) => {
            let h = match p {
                Primitive::Delay { init } => {
                    net.add_block(ops::Delay::on_clock(init.clone(), Clock::base()))
                }
                Primitive::UnitDelay { init } => net.add_block(ops::UnitDelay::new(
                    init.clone()
                        .map(Message::Present)
                        .unwrap_or(Message::Absent),
                )),
                Primitive::When => net.add_block(ops::When::new()),
                Primitive::Current { init } => net.add_block(ops::Current::new(init.clone())),
            };
            for (i, inp) in input_names.iter().enumerate() {
                net.connect(in_handles[inp].output(0), h.input(i))?;
            }
            let out_name = output_names.first().ok_or_else(|| {
                SimError::Unsupported(format!("primitive `{path}` has no output port"))
            })?;
            outputs.insert(out_name.clone(), h.output(0));
        }
        Behavior::Mtd(mtd) => {
            mtd.validate(model, cid)?;
            let mut subnets = Vec::with_capacity(mtd.modes.len());
            let mut mode_names = Vec::with_capacity(mtd.modes.len());
            for mode in &mtd.modes {
                let sub = elaborate(model, mode.behavior)?;
                subnets.push(Arc::new(sub.prepare()?));
                mode_names.push(mode.name.clone());
            }
            // Transition triggers are compiled to bytecode once, at
            // elaboration — evaluation per tick is then a register-machine
            // run with ports pre-resolved to input slots.
            let mut triggers: Vec<Vec<(usize, Arc<Program>)>> = vec![Vec::new(); mtd.modes.len()];
            for (mode_idx, trigger_list) in triggers.iter_mut().enumerate() {
                for t in mtd.transitions_from(mode_idx) {
                    let program = Program::compile(&t.trigger, &input_names);
                    trigger_list.push((t.to, Arc::new(program)));
                }
            }
            let out_cols: Vec<Vec<Option<usize>>> = subnets
                .iter()
                .map(|sub| {
                    let probes: Vec<&str> = sub.probe_names().collect();
                    output_names
                        .iter()
                        .map(|n| probes.iter().position(|p| p == n))
                        .collect()
                })
                .collect();
            let h = net.add_block(MtdBlock {
                name: format!("mtd:{path}").into(),
                input_names: input_names.clone().into(),
                output_names: output_names.clone().into(),
                mode_names: mode_names.into(),
                pristine: subnets.clone().into(),
                subnets,
                out_cols: out_cols.into(),
                triggers: triggers.into(),
                scratch: Scratch::new(),
                initial: mtd.initial,
                current: mtd.initial,
            });
            for (i, inp) in input_names.iter().enumerate() {
                net.connect(in_handles[inp].output(0), h.input(i))?;
            }
            for (o, name) in output_names.iter().enumerate() {
                outputs.insert(name.clone(), h.output(o));
            }
        }
        Behavior::Std(fsm) => {
            fsm.validate(model, cid)?;
            let h = net.add_block(StdBlock {
                name: format!("std:{path}").into(),
                input_names: input_names.clone().into(),
                output_names: output_names.clone().into(),
                machine: std::sync::Arc::new(fsm.clone()),
                state: fsm.initial,
                vars: fsm.vars.iter().cloned().collect(),
            });
            for (i, inp) in input_names.iter().enumerate() {
                net.connect(in_handles[inp].output(0), h.input(i))?;
            }
            for (o, name) in output_names.iter().enumerate() {
                outputs.insert(name.clone(), h.output(o));
            }
        }
        Behavior::Composite(c) => {
            model.validate_composite(cid)?;
            let is_ssd = c.kind == CompositeKind::Ssd;
            let mut child_ifaces: BTreeMap<String, Iface> = BTreeMap::new();
            for inst in &c.instances {
                let iface =
                    build_instance(net, model, inst.component, format!("{path}/{}", inst.name))?;
                child_ifaces.insert(inst.name.clone(), iface);
            }
            for ch in &c.channels {
                let src: PortRef = match &ch.from.instance {
                    Some(inst) => child_ifaces[inst].outputs[&ch.from.port],
                    None => in_handles[&ch.from.port].output(0),
                };
                // "Each SSD-level channel introduces a message delay."
                let src = if is_ssd {
                    let d = net.add_block(ops::UnitDelay::new(Message::Absent));
                    net.connect(src, d.input(0))?;
                    d.output(0)
                } else {
                    src
                };
                match &ch.to.instance {
                    Some(inst) => {
                        net.connect(src, child_ifaces[inst].inputs[&ch.to.port])?;
                    }
                    None => {
                        outputs.insert(ch.to.port.clone(), src);
                    }
                }
            }
            for name in &output_names {
                if !outputs.contains_key(name) {
                    let h = net.add_block(absent_stub(format!("stub:{path}.{name}")));
                    outputs.insert(name.clone(), h.output(0));
                }
            }
        }
    }
    Ok(Iface { inputs, outputs })
}

/// Per mode: (target mode, compiled trigger) in priority order.
type Triggers = Arc<[Vec<(usize, Arc<Program>)>]>;

/// The MTD interpreter block: one elaborated sub-network per mode; only the
/// active mode steps. Transitions are evaluated over the current inputs and
/// switch immediately: the mode reached after the triggers fired produces
/// this tick's outputs (see `automode_core::mtd` docs).
///
/// Mode subnetworks are held copy-on-write: cloning an `MtdBlock` (per-lane
/// replication in batched execution) and [`Block::reset`] are O(modes)
/// reference bumps, and each clone deep-copies only the modes it actually
/// steps — a lane sweeping one operating region never pays for the others.
#[derive(Clone)]
struct MtdBlock {
    // All descriptor fields are shared and immutable after elaboration, so
    // replicating an `MtdBlock` is a handful of refcount bumps; only
    // `current` and the copy-on-write `subnets` carry per-replica state.
    name: Arc<str>,
    input_names: Arc<[String]>,
    output_names: Arc<[String]>,
    mode_names: Arc<[String]>,
    /// Working per-mode subnetworks; materialized from `pristine` on first
    /// step of a mode.
    subnets: Vec<Arc<ReadyNetwork>>,
    /// Never-stepped per-mode subnetworks in their initial state; `reset`
    /// restores these by reference.
    pristine: Arc<[Arc<ReadyNetwork>]>,
    /// Per mode: the probe column of each declared output in the subnet's
    /// observed row (`None` -> output is absent in that mode).
    out_cols: Arc<[Vec<Option<usize>>]>,
    /// Per mode: (target, compiled trigger) in priority order.
    triggers: Triggers,
    /// Reusable trigger-VM registers (per-replica, contents transient).
    scratch: Scratch,
    initial: usize,
    current: usize,
}

impl std::fmt::Debug for MtdBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MtdBlock")
            .field("name", &self.name)
            .field("modes", &self.mode_names)
            .field("current", &self.current)
            .finish()
    }
}

impl MtdBlock {
    /// The currently active mode's name (used in tests via downcasting is
    /// overkill; the name is also surfaced in Debug output).
    #[allow(dead_code)]
    fn current_mode(&self) -> &str {
        &self.mode_names[self.current]
    }

    /// Whether every mode subnet can be stepped by one lane stepper shared
    /// by all lanes: lanes in one mode have each stepped that mode a
    /// different number of times, so the subnets must not read the tick
    /// (elaborated blocks read it only through declared clocks).
    fn modes_tick_invariant(&self) -> bool {
        self.pristine
            .iter()
            .all(|n| n.is_tick_invariant() && n.input_count() == self.input_names.len())
    }
}

/// Wraps a trigger evaluation error as the MTD block's error.
fn trigger_error(block: &str, e: automode_lang::LangError) -> KernelError {
    KernelError::Block {
        block: block.to_string(),
        message: e.to_string(),
    }
}

impl Block for MtdBlock {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        self.input_names.len()
    }
    fn output_arity(&self) -> usize {
        self.output_names.len()
    }
    fn step(&mut self, t: Tick, inputs: &[Message]) -> Result<Vec<Message>, KernelError> {
        let mut out = vec![Message::Absent; self.output_names.len()];
        self.step_into(t, inputs, &mut out)?;
        Ok(out)
    }
    fn step_into(
        &mut self,
        _t: Tick,
        inputs: &[Message],
        out: &mut [Message],
    ) -> Result<(), KernelError> {
        // Evaluate transitions over the current inputs FIRST (immediate
        // switching): the mode that produces this tick's outputs is the one
        // reached after the triggers fired — exactly the branch-selection
        // semantics of the If-Then-Else cascades MTDs make explicit.
        for (target, trigger) in &self.triggers[self.current] {
            let fired = trigger
                .eval(inputs, &mut self.scratch)
                .map_err(|e| trigger_error(&self.name, e))?
                .value()
                .and_then(Value::as_bool)
                == Some(true);
            if fired {
                self.current = *target;
                break;
            }
        }
        let observed = Arc::make_mut(&mut self.subnets[self.current]).step_tick_observed(inputs)?;
        for (slot, col) in out.iter_mut().zip(&self.out_cols[self.current]) {
            *slot = col.map_or(Message::Absent, |j| observed[j].clone());
        }
        Ok(())
    }
    fn needs_commit(&self) -> bool {
        false
    }
    fn reset(&mut self) {
        self.current = self.initial;
        self.subnets.clear();
        self.subnets.extend(self.pristine.iter().cloned());
    }
    fn clone_block(&self) -> Box<dyn Block + Send + Sync> {
        Box::new(self.clone())
    }
    fn lane_kernel(&self, k: usize) -> Option<Box<dyn LaneKernel>> {
        if self.output_names.len() != 1 || !self.modes_tick_invariant() {
            return None;
        }
        Some(Box::new(MtdLanes {
            name: Arc::clone(&self.name),
            k,
            mode: vec![self.initial; k],
            next: vec![self.initial; k],
            pristine: Arc::clone(&self.pristine),
            triggers: Arc::clone(&self.triggers),
            out_cols: Arc::clone(&self.out_cols),
            modes: (0..self.pristine.len()).map(|_| None).collect(),
            live: vec![false; k],
            sel: vec![false; k],
            fired: LaneStore::new(1, k),
            failures: Vec::new(),
            sub_failures: Vec::new(),
            row: vec![Message::Absent; self.input_names.len()],
            scratch: Scratch::new(),
        }))
    }
    fn lane_refusal(&self) -> ReplicaReason {
        if self.modes_tick_invariant() {
            ReplicaReason::NoLaneKernel
        } else {
            ReplicaReason::TickDependentModes
        }
    }
    fn coverage_space(&self) -> Option<automode_kernel::CoverageSpace> {
        let mut transitions = Vec::new();
        for (mode, trigger_list) in self.triggers.iter().enumerate() {
            for (target, _) in trigger_list {
                transitions.push((mode, *target));
            }
        }
        Some(automode_kernel::CoverageSpace {
            states: self.mode_names.to_vec(),
            transitions,
            initial: self.initial,
        })
    }
    fn coverage_state(&self) -> usize {
        self.current
    }
}

/// The lane state of one MTD mode, built the first time a lane is in it.
#[derive(Debug)]
struct ModeLanes {
    /// The mode subnet's tick body over all K lanes; a lane's columns
    /// change only on ticks the lane spends in this mode.
    stepper: LaneStepper<Arc<ReadyNetwork>>,
    /// The mode's outgoing triggers, in priority order.
    triggers: Vec<LaneEval>,
}

/// The MTD lane kernel: [`MtdBlock`]'s per-lane semantics over K lanes.
///
/// Each lane carries its own current mode. Per tick, for every mode some
/// active lanes are in, the mode's triggers run as lane-batched bytecode
/// under the mask of those lanes, in priority order, and a firing lane
/// switches immediately (and leaves the remaining triggers' masks). Then
/// every occupied mode steps its subnet's [`LaneStepper`] under the mask
/// of the lanes now in it, and copies its output probe into the node's
/// output column. Mode state is built lazily, mirroring the block's
/// copy-on-write subnets: a batch pays only for the modes its lanes visit.
///
/// The kernel is stateful and can fail in a trigger or in a subnet node,
/// so it attributes failures itself ([`LaneKernel::take_lane_failures`]):
/// a failing lane is masked out for the rest of the tick, and the others
/// step on.
#[derive(Debug)]
struct MtdLanes {
    name: Arc<str>,
    k: usize,
    /// Per lane: the current mode.
    mode: Vec<usize>,
    /// Per lane: the mode after this tick's triggers.
    next: Vec<usize>,
    pristine: Arc<[Arc<ReadyNetwork>]>,
    triggers: Triggers,
    out_cols: Arc<[Vec<Option<usize>>]>,
    modes: Vec<Option<ModeLanes>>,
    /// Active lanes that have not failed this tick.
    live: Vec<bool>,
    /// The lanes of the mode being processed.
    sel: Vec<bool>,
    /// Trigger result column.
    fired: LaneStore,
    failures: Vec<LaneFailure>,
    sub_failures: Vec<LaneFailure>,
    /// One lane's decoded input row, for per-lane trigger attribution.
    row: Vec<Message>,
    scratch: Scratch,
}

impl MtdLanes {
    /// Marks in `sel` the live lanes whose mode is `m`; false if none is.
    fn select(&mut self, m: usize) -> bool {
        let mut any = false;
        for ((s, &live), &mode) in self.sel.iter_mut().zip(&self.live).zip(&self.mode) {
            *s = live && mode == m;
            any |= *s;
        }
        any
    }

    /// Mode `m`'s lane state, built on first use.
    fn mode_lanes(&mut self, m: usize) -> &mut ModeLanes {
        let (name, k) = (&self.name, self.k);
        let (net, triggers) = (&self.pristine[m], &self.triggers[m]);
        self.modes[m].get_or_insert_with(|| ModeLanes {
            stepper: LaneStepper::new(Arc::clone(net), k),
            triggers: triggers
                .iter()
                .map(|(_, p)| LaneEval::new(Arc::clone(p), Arc::clone(name), k))
                .collect(),
        })
    }

    /// Records lane `l`'s failure and takes it out of the tick.
    fn fail(&mut self, l: usize, error: KernelError) {
        self.live[l] = false;
        self.sel[l] = false;
        self.failures.push(LaneFailure { lane: l, error });
    }

    /// Evaluates mode `m`'s triggers for the lanes in `sel`, in priority
    /// order; a lane leaves `sel` once one fires or it fails.
    fn fire_triggers(&mut self, m: usize, t: Tick, inputs: &[LaneSlice<'_>]) {
        let triggers = Arc::clone(&self.triggers);
        for (j, (target, program)) in triggers[m].iter().enumerate() {
            if !self.sel.iter().any(|&s| s) {
                break;
            }
            let mut fired = std::mem::replace(&mut self.fired, LaneStore::new(0, 0));
            let sel = std::mem::take(&mut self.sel);
            let stepped =
                self.mode_lanes(m).triggers[j].step_lanes(t, inputs, &mut fired.slice_mut(0), &sel);
            self.sel = sel;
            match stepped {
                Ok(()) => {
                    let col = fired.slice(0);
                    for l in 0..self.k {
                        if self.sel[l] && col.tags[l] == TAG_BOOL && col.bits[l] != 0 {
                            self.next[l] = *target;
                            self.sel[l] = false;
                        }
                    }
                }
                Err(_) => {
                    // Some lane's trigger failed: evaluate per lane, as the
                    // block does, to attribute each lane's own outcome.
                    for l in 0..self.k {
                        if !self.sel[l] {
                            continue;
                        }
                        for (m, col) in self.row.iter_mut().zip(inputs) {
                            *m = col.get(l);
                        }
                        match program.eval(&self.row, &mut self.scratch) {
                            Ok(v) => {
                                if v.value().and_then(Value::as_bool) == Some(true) {
                                    self.next[l] = *target;
                                    self.sel[l] = false;
                                }
                            }
                            Err(e) => {
                                let error = trigger_error(&self.name, e);
                                self.fail(l, error);
                            }
                        }
                    }
                }
            }
            self.fired = fired;
        }
    }
}

impl LaneKernel for MtdLanes {
    fn step_lanes(
        &mut self,
        t: Tick,
        inputs: &[LaneSlice<'_>],
        out: &mut LaneSliceMut<'_>,
        active: &[bool],
    ) -> Result<(), KernelError> {
        self.failures.clear();
        self.live.copy_from_slice(active);
        let n_modes = self.pristine.len();

        // Triggers, per current mode; switches take effect this tick.
        self.next.copy_from_slice(&self.mode);
        for m in 0..n_modes {
            if !self.triggers[m].is_empty() && self.select(m) {
                self.fire_triggers(m, t, inputs);
            }
        }
        std::mem::swap(&mut self.mode, &mut self.next);

        // Step every occupied mode's subnet and route its output probe.
        for m in 0..n_modes {
            if !self.select(m) {
                continue;
            }
            let mut sub_failures = std::mem::take(&mut self.sub_failures);
            let sel = std::mem::take(&mut self.sel);
            let ml = self.mode_lanes(m);
            ml.stepper.step(t, inputs, &sel, &mut sub_failures);
            self.sel = sel;
            for f in sub_failures.drain(..) {
                self.fail(f.lane, f.error);
            }
            self.sub_failures = sub_failures;
            let ml = self.modes[m].as_ref().expect("built above");
            match self.out_cols[m][0] {
                None => {
                    for l in 0..self.k {
                        if self.sel[l] {
                            out.set_absent(l);
                        }
                    }
                }
                Some(j) => {
                    let src = ml.stepper.probe(j, inputs);
                    for l in 0..self.k {
                        if self.sel[l] {
                            out.copy_lane(l, &src, l);
                        }
                    }
                }
            }
        }

        if self.failures.is_empty() {
            return Ok(());
        }
        self.failures.sort_by_key(|f| f.lane);
        Err(self.failures[0].error.clone())
    }

    fn take_lane_failures(&mut self, failures: &mut Vec<LaneFailure>) -> bool {
        failures.append(&mut self.failures);
        true
    }

    fn coverage_state(&self, l: usize) -> usize {
        self.mode[l]
    }
}

/// The STD interpreter block: a flat extended state machine with local
/// variables; the highest-priority enabled transition fires, executing its
/// actions against the pre-state environment.
#[derive(Clone)]
struct StdBlock {
    // Shared descriptors (see `MtdBlock`): only `state` and `vars` are
    // per-replica.
    name: std::sync::Arc<str>,
    input_names: std::sync::Arc<[String]>,
    output_names: std::sync::Arc<[String]>,
    machine: std::sync::Arc<automode_core::std_machine::StdMachine>,
    state: usize,
    vars: BTreeMap<String, Value>,
}

impl std::fmt::Debug for StdBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StdBlock")
            .field("name", &self.name)
            .field("state", &self.machine.states.get(self.state))
            .finish()
    }
}

impl Block for StdBlock {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_arity(&self) -> usize {
        self.input_names.len()
    }
    fn output_arity(&self) -> usize {
        self.output_names.len()
    }
    fn step(&mut self, _t: Tick, inputs: &[Message]) -> Result<Vec<Message>, KernelError> {
        let mut env: Env = self
            .input_names
            .iter()
            .zip(inputs)
            .map(|(n, m)| (n.clone(), m.clone()))
            .collect();
        for (v, val) in &self.vars {
            env.bind(v.clone(), Message::Present(val.clone()));
        }
        let wrap = |e: automode_lang::LangError, name: &str| KernelError::Block {
            block: name.to_string(),
            message: e.to_string(),
        };
        let mut outputs = vec![Message::Absent; self.output_names.len()];
        let fired = {
            let mut fired = None;
            for t in self.machine.transitions_from(self.state) {
                let enabled = t
                    .guard
                    .eval(&env)
                    .map_err(|e| wrap(e, &self.name))?
                    .value()
                    .and_then(Value::as_bool)
                    == Some(true);
                if enabled {
                    fired = Some(t.clone());
                    break;
                }
            }
            fired
        };
        if let Some(t) = fired {
            // All actions evaluate against the pre-state environment.
            let mut writes: Vec<(String, Value)> = Vec::with_capacity(t.actions.len());
            for a in &t.actions {
                match a.expr.eval(&env).map_err(|e| wrap(e, &self.name))? {
                    Message::Present(v) => writes.push((a.target.clone(), v)),
                    Message::Absent => {}
                }
            }
            for (target, v) in writes {
                if let Some(pos) = self.output_names.iter().position(|n| *n == target) {
                    outputs[pos] = Message::Present(v);
                } else {
                    self.vars.insert(target, v);
                }
            }
            self.state = t.to;
        }
        Ok(outputs)
    }
    fn needs_commit(&self) -> bool {
        false
    }
    fn reset(&mut self) {
        self.state = self.machine.initial;
        self.vars = self.machine.vars.iter().cloned().collect();
    }
    fn clone_block(&self) -> Box<dyn Block + Send + Sync> {
        Box::new(self.clone())
    }
    fn coverage_space(&self) -> Option<automode_kernel::CoverageSpace> {
        Some(automode_kernel::CoverageSpace {
            states: self.machine.states.clone(),
            transitions: self
                .machine
                .transitions
                .iter()
                .map(|t| (t.from, t.to))
                .collect(),
            initial: self.machine.initial,
        })
    }
    fn coverage_state(&self) -> usize {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automode_core::model::{Component, Composite, Endpoint};
    use automode_core::std_machine::{Assign, StdMachine, StdTransition};
    use automode_core::types::DataType;
    use automode_core::Mtd;
    use automode_kernel::network::stimulus_from_streams;
    use automode_kernel::Stream;
    use automode_lang::parse;

    fn leaf(m: &mut Model, name: &str, expr: &str) -> ComponentId {
        m.add_component(
            Component::new(name)
                .input("x", DataType::Float)
                .output("y", DataType::Float)
                .with_behavior(Behavior::expr("y", parse(expr).unwrap())),
        )
        .unwrap()
    }

    #[test]
    fn expr_component_elaborates_and_runs() {
        let mut m = Model::new("t");
        let id = leaf(&mut m, "Twice", "x * 2.0");
        let net = elaborate(&m, id).unwrap();
        let stim =
            stimulus_from_streams(&[Stream::from_values([Value::Float(1.0), Value::Float(2.5)])]);
        let trace = net.run(&stim).unwrap();
        assert_eq!(
            trace.signal("y").unwrap().present_values(),
            vec![Value::Float(2.0), Value::Float(5.0)]
        );
    }

    #[test]
    fn dfd_is_instantaneous_ssd_delays() {
        let mut m = Model::new("t");
        let l = leaf(&mut m, "Id", "x");
        for (kind, name, delay) in [
            (CompositeKind::Dfd, "DfdTop", 0usize),
            (CompositeKind::Ssd, "SsdTop", 2usize),
        ] {
            let mut net = Composite::new(kind);
            net.instantiate("a", l);
            net.connect(Endpoint::boundary("in"), Endpoint::child("a", "x"));
            net.connect(Endpoint::child("a", "y"), Endpoint::boundary("out"));
            let top = m
                .add_component(
                    Component::new(name)
                        .input("in", DataType::Float)
                        .output("out", DataType::Float)
                        .with_behavior(Behavior::Composite(net)),
                )
                .unwrap();
            let knet = elaborate(&m, top).unwrap();
            let stim = stimulus_from_streams(&[Stream::from_values([
                Value::Float(7.0),
                Value::Float(8.0),
                Value::Float(9.0),
            ])]);
            let trace = knet.run(&stim).unwrap();
            let out = trace.signal("out").unwrap();
            // SSD: both boundary channels delay -> total shift `delay`.
            if delay == 0 {
                assert_eq!(out[0], Message::present(Value::Float(7.0)));
            } else {
                assert!(out[0].is_absent() && out[1].is_absent());
                assert_eq!(out[2], Message::present(Value::Float(7.0)));
            }
        }
    }

    #[test]
    fn stable_block_names_address_internal_channels_for_faults() {
        use automode_kernel::{FaultKind, FaultSpec, Value};

        // Composite `Top` with one instance `a` of `Twice`; the stable
        // `in:` boundary name lets a fault intercept what `a` reads on `x`
        // without touching the external stimulus name space.
        let mut m = Model::new("t");
        let l = leaf(&mut m, "Twice", "x * 2.0");
        let mut comp = Composite::new(CompositeKind::Dfd);
        comp.instantiate("a", l);
        comp.connect(Endpoint::boundary("in"), Endpoint::child("a", "x"));
        comp.connect(Endpoint::child("a", "y"), Endpoint::boundary("out"));
        let top = m
            .add_component(
                Component::new("Top")
                    .input("in", DataType::Float)
                    .output("out", DataType::Float)
                    .with_behavior(Behavior::Composite(comp)),
            )
            .unwrap();

        let mut ready = elaborate(&m, top).unwrap().prepare().unwrap();
        ready
            .set_faults(&[FaultSpec::on_block(
                "in:Top/a.x",
                0,
                FaultKind::StuckAt(Value::Float(10.0)),
            )])
            .unwrap();
        let stim =
            stimulus_from_streams(&[Stream::from_values([Value::Float(1.0), Value::Float(2.0)])]);
        let trace = ready.run(&stim).unwrap();
        assert_eq!(
            trace.signal("out").unwrap().present_values(),
            vec![Value::Float(20.0), Value::Float(20.0)]
        );

        // Typos in internal names are rejected at install time.
        let err = ready
            .set_faults(&[FaultSpec::on_block("in:Top/b.x", 0, FaultKind::Delay(1))])
            .unwrap_err();
        assert!(matches!(
            err,
            automode_kernel::KernelError::UnknownFaultTarget { .. }
        ));
    }

    #[test]
    fn unspecified_behavior_yields_absent() {
        let mut m = Model::new("t");
        let id = m
            .add_component(
                Component::new("U")
                    .input("x", DataType::Float)
                    .output("y", DataType::Float),
            )
            .unwrap();
        let net = elaborate(&m, id).unwrap();
        let stim = stimulus_from_streams(&[Stream::from_values([Value::Float(1.0)])]);
        let trace = net.run(&stim).unwrap();
        assert_eq!(trace.signal("y").unwrap().present_count(), 0);
    }

    #[test]
    fn mtd_switches_modes_immediately() {
        let mut m = Model::new("t");
        let a = leaf(&mut m, "Constant", "0.2 + x * 0.0");
        let b = leaf(&mut m, "Linear", "x * 1.0");
        let mut mtd = Mtd::new();
        let ma = mtd.add_mode("A", a);
        let mb = mtd.add_mode("B", b);
        mtd.add_transition(ma, mb, parse("x > 10.0").unwrap(), 0);
        mtd.add_transition(mb, ma, parse("x < 5.0").unwrap(), 0);
        let owner = m
            .add_component(
                Component::new("Switcher")
                    .input("x", DataType::Float)
                    .output("y", DataType::Float)
                    .with_behavior(Behavior::Mtd(mtd)),
            )
            .unwrap();
        let net = elaborate(&m, owner).unwrap();
        let xs = [1.0, 20.0, 20.0, 2.0, 2.0];
        let stim = stimulus_from_streams(&[Stream::from_values(
            xs.iter().map(|&x| Value::Float(x)).collect::<Vec<_>>(),
        )]);
        let trace = net.run(&stim).unwrap();
        let ys: Vec<f64> = trace
            .signal("y")
            .unwrap()
            .present_values()
            .iter()
            .map(|v| v.as_float().unwrap())
            .collect();
        // t0: x=1, stays A -> 0.2.
        // t1: x=20 fires A->B immediately -> 20.0.
        // t2: x=20, stays B -> 20.0.
        // t3: x=2 fires B->A immediately -> 0.2.
        // t4: x=2, stays A -> 0.2.
        assert_eq!(ys, vec![0.2, 20.0, 20.0, 0.2, 0.2]);
    }

    #[test]
    fn mtd_lane_kernel_matches_the_scalar_batch() {
        use automode_kernel::network::stimulus_from_fns;

        let mut m = Model::new("t");
        let a = leaf(&mut m, "Constant", "0.2 + x * 0.0");
        let b = leaf(
            &mut m,
            "Clamped",
            "if x > 15.0 then clamp(x, 0.0, 18.0) else x",
        );
        let mut mtd = Mtd::new();
        let ma = mtd.add_mode("A", a);
        let mb = mtd.add_mode("B", b);
        mtd.add_transition(ma, mb, parse("x > 10.0").unwrap(), 0);
        mtd.add_transition(mb, ma, parse("x < 5.0").unwrap(), 0);
        let owner = m
            .add_component(
                Component::new("Switcher")
                    .input("x", DataType::Float)
                    .output("y", DataType::Float)
                    .with_behavior(Behavior::Mtd(mtd)),
            )
            .unwrap();
        let mut ready = elaborate(&m, owner).unwrap().prepare().unwrap();
        let stims: Vec<Vec<Vec<Message>>> = (0..4)
            .map(|l| {
                stimulus_from_fns(
                    12,
                    vec![Box::new(move |t| {
                        Message::present(((t as i64 * (l + 1)) % 21) as f64)
                    })],
                )
            })
            .collect();
        // The MTD (with an `if … clamp` mode body) runs as a lane kernel.
        let plan = ready.lane_plan(stims.len());
        assert_eq!(plan.replicas().count(), 0, "{plan}");

        let typed = ready.run_batch(&stims).unwrap();
        ready.set_batch_vectorization(false);
        let scalar = ready.run_batch(&stims).unwrap();
        assert_eq!(typed, scalar);
    }

    #[test]
    fn mtd_transition_priorities_respected() {
        let mut m = Model::new("t");
        let a = leaf(&mut m, "A", "1.0 + x * 0.0");
        let b = leaf(&mut m, "B", "2.0 + x * 0.0");
        let c = leaf(&mut m, "C", "3.0 + x * 0.0");
        let mut mtd = Mtd::new();
        let ma = mtd.add_mode("A", a);
        let mb = mtd.add_mode("B", b);
        let mc = mtd.add_mode("C", c);
        // Both triggers true; priority 0 (to B) must win over 1 (to C).
        mtd.add_transition(ma, mc, parse("x > 0.0").unwrap(), 1);
        mtd.add_transition(ma, mb, parse("x > 0.0").unwrap(), 0);
        let owner = m
            .add_component(
                Component::new("P")
                    .input("x", DataType::Float)
                    .output("y", DataType::Float)
                    .with_behavior(Behavior::Mtd(mtd)),
            )
            .unwrap();
        let net = elaborate(&m, owner).unwrap();
        let stim =
            stimulus_from_streams(&[Stream::from_values([Value::Float(1.0), Value::Float(1.0)])]);
        let trace = net.run(&stim).unwrap();
        let ys: Vec<f64> = trace
            .signal("y")
            .unwrap()
            .present_values()
            .iter()
            .map(|v| v.as_float().unwrap())
            .collect();
        // Immediate switching: already at t0 the priority-0 transition to B
        // wins over the priority-1 transition to C.
        assert_eq!(ys, vec![2.0, 2.0]);
    }

    #[test]
    fn std_block_latches() {
        let mut m = Model::new("t");
        let mut fsm = StdMachine::new();
        let off = fsm.add_state("Off");
        let on = fsm.add_state("On");
        fsm.add_transition(StdTransition {
            from: off,
            to: on,
            guard: parse("set").unwrap(),
            actions: vec![Assign {
                target: "q".into(),
                expr: parse("true").unwrap(),
            }],
            priority: 0,
        });
        fsm.add_transition(StdTransition {
            from: on,
            to: off,
            guard: parse("rst").unwrap(),
            actions: vec![Assign {
                target: "q".into(),
                expr: parse("false").unwrap(),
            }],
            priority: 0,
        });
        let owner = m
            .add_component(
                Component::new("Latch")
                    .input("set", DataType::Bool)
                    .input("rst", DataType::Bool)
                    .output("q", DataType::Bool)
                    .with_behavior(Behavior::Std(fsm)),
            )
            .unwrap();
        let net = elaborate(&m, owner).unwrap();
        let set = Stream::from_values([true, false, false, false]);
        let rst = Stream::from_values([false, false, true, false]);
        let stim = stimulus_from_streams(&[set, rst]);
        let trace = net.run(&stim).unwrap();
        let q = trace.signal("q").unwrap();
        assert_eq!(q[0], Message::present(true)); // fired Off->On
        assert!(q[1].is_absent()); // no transition enabled
        assert_eq!(q[2], Message::present(false)); // fired On->Off
        assert!(q[3].is_absent());
    }

    #[test]
    fn std_vars_accumulate() {
        let mut m = Model::new("t");
        let mut fsm = StdMachine::new();
        let s = fsm.add_state("S");
        fsm.add_var("count", 0i64);
        fsm.add_transition(StdTransition {
            from: s,
            to: s,
            guard: parse("tick").unwrap(),
            actions: vec![
                Assign {
                    target: "count".into(),
                    expr: parse("count + 1").unwrap(),
                },
                Assign {
                    target: "n".into(),
                    expr: parse("count + 1").unwrap(),
                },
            ],
            priority: 0,
        });
        let owner = m
            .add_component(
                Component::new("Counter")
                    .input("tick", DataType::Bool)
                    .output("n", DataType::Int)
                    .with_behavior(Behavior::Std(fsm)),
            )
            .unwrap();
        let net = elaborate(&m, owner).unwrap();
        let stim = stimulus_from_streams(&[Stream::from_values([true, true, false, true])]);
        let trace = net.run(&stim).unwrap();
        let ns: Vec<i64> = trace
            .signal("n")
            .unwrap()
            .present_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(ns, vec![1, 2, 3]);
    }

    #[test]
    fn dfd_instantaneous_loop_rejected_at_prepare() {
        let mut m = Model::new("t");
        let f = leaf(&mut m, "F", "x + 1.0");
        let g = leaf(&mut m, "G", "x * 2.0");
        let mut net = Composite::new(CompositeKind::Dfd);
        net.instantiate("f", f);
        net.instantiate("g", g);
        net.connect(Endpoint::child("f", "y"), Endpoint::child("g", "x"));
        net.connect(Endpoint::child("g", "y"), Endpoint::child("f", "x"));
        let top = m
            .add_component(Component::new("Loop").with_behavior(Behavior::Composite(net)))
            .unwrap();
        let knet = elaborate(&m, top).unwrap();
        assert!(matches!(knet.prepare(), Err(KernelError::Causality(_))));
    }

    #[test]
    fn primitive_delay_elaborates() {
        let mut m = Model::new("t");
        let d = m
            .add_component(
                Component::new("D")
                    .input("x", DataType::Float)
                    .output("y", DataType::Float)
                    .with_behavior(Behavior::Primitive(Primitive::Delay {
                        init: Some(Value::Float(-1.0)),
                    })),
            )
            .unwrap();
        let net = elaborate(&m, d).unwrap();
        let stim =
            stimulus_from_streams(&[Stream::from_values([Value::Float(1.0), Value::Float(2.0)])]);
        let trace = net.run(&stim).unwrap();
        assert_eq!(
            trace.signal("y").unwrap().present_values(),
            vec![Value::Float(-1.0), Value::Float(1.0)]
        );
    }

    #[test]
    fn nested_composites_wire_through() {
        let mut m = Model::new("t");
        let l = leaf(&mut m, "Inc", "x + 1.0");
        let mut inner = Composite::new(CompositeKind::Dfd);
        inner.instantiate("i1", l);
        inner.connect(Endpoint::boundary("in"), Endpoint::child("i1", "x"));
        inner.connect(Endpoint::child("i1", "y"), Endpoint::boundary("out"));
        let mid = m
            .add_component(
                Component::new("Mid")
                    .input("in", DataType::Float)
                    .output("out", DataType::Float)
                    .with_behavior(Behavior::Composite(inner)),
            )
            .unwrap();
        let mut outer = Composite::new(CompositeKind::Dfd);
        outer.instantiate("m1", mid);
        outer.instantiate("m2", mid);
        outer.connect(Endpoint::boundary("in"), Endpoint::child("m1", "in"));
        outer.connect(Endpoint::child("m1", "out"), Endpoint::child("m2", "in"));
        outer.connect(Endpoint::child("m2", "out"), Endpoint::boundary("out"));
        let top = m
            .add_component(
                Component::new("Top")
                    .input("in", DataType::Float)
                    .output("out", DataType::Float)
                    .with_behavior(Behavior::Composite(outer)),
            )
            .unwrap();
        let net = elaborate(&m, top).unwrap();
        let stim = stimulus_from_streams(&[Stream::from_values([Value::Float(1.0)])]);
        let trace = net.run(&stim).unwrap();
        assert_eq!(
            trace.signal("out").unwrap().present_values(),
            vec![Value::Float(3.0)]
        );
    }
}
