//! A reusable compiled simulation handle.
//!
//! Every [`simulate_component`](crate::simulate_component) call elaborates
//! the model, runs the causality check, and compiles the execution plan —
//! then throws all three away. The paper's methodology leans on *repeated*
//! simulation of one model against many stimuli (drive-cycle sweeps,
//! flag-space sampling, differential test suites), so [`CompiledSim`] does
//! that work exactly once and amortizes it across every subsequent
//! [`CompiledSim::run`] / [`CompiledSim::run_batch`] call — the same shape
//! as batched inference amortizing weights across a request batch.

use std::collections::HashMap;

use std::fmt;
use std::sync::{Arc, OnceLock};

use automode_core::model::{ComponentId, Model};
use automode_kernel::network::rows_padded_with_absence;
use automode_kernel::{
    ContractMonitor, CoverageLayout, CoverageMap, FaultKind, FaultSpec, KernelError, Message,
    PlanInfo, RobustnessReport, Stream, Trace,
};

use crate::elaborate::elaborate;
use crate::error::SimError;
use crate::simulate::SimRun;

/// One lane of a batched simulation: named input streams plus a tick count,
/// optionally with lane-local fault injection.
///
/// Streams shorter than `ticks` are padded with absence, exactly like
/// [`simulate_component`](crate::simulate_component).
#[derive(Debug, Clone)]
pub struct BatchScenario<'a> {
    /// Named input streams driving this lane.
    pub inputs: &'a [(&'a str, Stream)],
    /// Number of ticks to execute for this lane.
    pub ticks: usize,
    /// Faults injected in this lane only, on top of any faults installed on
    /// the [`CompiledSim`] itself. Each entry names an input port or an
    /// output signal of the compiled component (resolution as in
    /// [`CompiledSim::set_faults`]).
    pub faults: Vec<(String, FaultKind)>,
}

impl<'a> BatchScenario<'a> {
    /// A nominal (fault-free) scenario.
    pub fn new(inputs: &'a [(&'a str, Stream)], ticks: usize) -> Self {
        BatchScenario {
            inputs,
            ticks,
            faults: Vec::new(),
        }
    }

    /// Adds a lane-local fault on a named input or output signal.
    /// Builder-style.
    pub fn with_fault(mut self, signal: impl Into<String>, kind: FaultKind) -> Self {
        self.faults.push((signal.into(), kind));
        self
    }
}

/// Compile-time facts about a [`CompiledSim`]: sizes plus how the kernel
/// will execute its ticks ([`PlanInfo`] — engine backend, wheel
/// hyperperiod, and the rejection reason when no wheel was compiled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Number of compiled kernel nodes.
    pub nodes: usize,
    /// Number of declared input ports.
    pub inputs: usize,
    /// The compiled clock-engine plan.
    pub plan: PlanInfo,
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} node(s), {} input(s), {}",
            self.nodes, self.inputs, self.plan
        )
    }
}

/// A component compiled for repeated simulation.
///
/// [`CompiledSim::new`] elaborates the component, runs the causality check,
/// and compiles the plan exactly once. [`CompiledSim::run`] then replays
/// scenarios from the initial state with none of that per-call cost, and
/// [`CompiledSim::run_batch`] runs many scenarios per schedule pass through
/// the kernel's lane-major batch executor
/// ([`ReadyNetwork::run_batch`](automode_kernel::ReadyNetwork::run_batch)).
#[derive(Debug, Clone)]
pub struct CompiledSim {
    ready: automode_kernel::ReadyNetwork,
    /// Declared input names, in port order.
    input_names: Vec<String>,
    /// Input name -> port index; the single-pass stimulus validator.
    input_index: HashMap<String, usize>,
    /// The coverage layout, built on the first covered run or layout
    /// request, so handles that never observe coverage never pay for it.
    coverage_layout: OnceLock<Arc<CoverageLayout>>,
}

// The sweep service shares one compiled handle across its worker pool
// (`run_batch` takes `&self`), so `CompiledSim` must stay `Send + Sync`;
// this fails to compile the moment a block or plan grows a thread-bound
// member.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledSim>();
};

impl CompiledSim {
    /// Elaborates and compiles `component` for repeated simulation.
    ///
    /// # Errors
    ///
    /// Fails on elaboration or causality errors.
    pub fn new(model: &Model, component: ComponentId) -> Result<CompiledSim, SimError> {
        let comp = model.component(component);
        let input_names: Vec<String> = comp.inputs().map(|p| p.name.clone()).collect();
        let input_index = input_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let ready = elaborate(model, component)?.prepare()?;
        Ok(CompiledSim {
            ready,
            input_names,
            input_index,
            coverage_layout: OnceLock::new(),
        })
    }

    /// Compiles the model's root component.
    ///
    /// # Errors
    ///
    /// Fails if no root is set, plus the conditions of [`CompiledSim::new`].
    pub fn new_root(model: &Model) -> Result<CompiledSim, SimError> {
        let root = model
            .root()
            .ok_or_else(|| SimError::Unsupported("model has no root component".to_string()))?;
        CompiledSim::new(model, root)
    }

    /// The compiled component's input port names, in port order.
    pub fn input_names(&self) -> impl Iterator<Item = &str> {
        self.input_names.iter().map(String::as_str)
    }

    /// Disables clock-gated scheduling, falling back to the full per-tick
    /// schedule (see
    /// [`ReadyNetwork::disable_clock_gating`](automode_kernel::ReadyNetwork::disable_clock_gating)).
    /// Useful for differential testing and perf comparisons.
    pub fn disable_clock_gating(&mut self) {
        self.ready.disable_clock_gating();
    }

    /// Toggles the typed-column vectorized batch path (see
    /// [`ReadyNetwork::set_batch_vectorization`](automode_kernel::ReadyNetwork::set_batch_vectorization)).
    /// On by default; turning it off runs each lane alone through the
    /// single-run loop — traces and errors are bit-identical either way,
    /// so this only matters for the live oracle, differential testing and
    /// perf comparisons.
    pub fn set_batch_vectorization(&mut self, on: bool) {
        self.ready.set_batch_vectorization(on);
    }

    /// The hyperperiod of the compiled clock-gated plan, if one applies
    /// (see
    /// [`ReadyNetwork::gated_hyperperiod`](automode_kernel::ReadyNetwork::gated_hyperperiod)).
    pub fn gated_hyperperiod(&self) -> Option<u64> {
        self.ready.gated_hyperperiod()
    }

    /// How the kernel will execute this component's ticks (see
    /// [`ReadyNetwork::plan_info`](automode_kernel::ReadyNetwork::plan_info)):
    /// the engine backend, the wheel hyperperiod when one was compiled, and
    /// the rejection reason when one wasn't.
    pub fn plan_info(&self) -> PlanInfo {
        self.ready.plan_info()
    }

    /// Where each node runs in a typed batch of `k` lanes (see
    /// [`ReadyNetwork::lane_plan`](automode_kernel::ReadyNetwork::lane_plan)).
    pub fn lane_plan(&self, k: usize) -> automode_kernel::LanePlan {
        self.ready.lane_plan(k)
    }

    /// Compile-time sizes and plan facts, for logs and perf triage.
    pub fn stats(&self) -> SimStats {
        SimStats {
            nodes: self.ready.node_count(),
            inputs: self.input_names.len(),
            plan: self.ready.plan_info(),
        }
    }

    /// Resets the compiled network to its initial state.
    ///
    /// [`CompiledSim::run`] already starts every run from the initial state;
    /// this only matters after direct incremental stepping through
    /// [`CompiledSim::ready_mut`].
    pub fn reset(&mut self) {
        self.ready.reset();
    }

    /// The underlying compiled network, for incremental stepping.
    pub fn ready_mut(&mut self) -> &mut automode_kernel::ReadyNetwork {
        &mut self.ready
    }

    /// Resolves a user-facing signal name to a kernel fault spec.
    ///
    /// Names matching an input port fault that port's stimulus as delivered;
    /// any other name is resolved by the kernel against the component's
    /// observed output signals, so typos surface as
    /// [`KernelError::UnknownFaultTarget`](automode_kernel::KernelError::UnknownFaultTarget).
    fn fault_spec(&self, name: &str, kind: FaultKind) -> FaultSpec {
        match self.input_index.get(name) {
            Some(&i) => FaultSpec::on_input(i, kind),
            None => FaultSpec::on_signal(name, kind),
        }
    }

    /// Installs a deterministic fault plan on the compiled network.
    ///
    /// Each entry names either an input port (the fault intercepts that
    /// port's stimulus) or an output signal of the component (the fault
    /// intercepts the channel feeding that signal's probe, so every
    /// downstream reader inside the network observes the faulted stream).
    /// The plan stays installed across [`CompiledSim::run`] calls and seeds
    /// every lane of [`CompiledSim::run_batch`]; per-lane fault state is
    /// reset at the start of every run.
    ///
    /// # Errors
    ///
    /// Fails if a name resolves to neither an input nor an observed signal,
    /// or if a fault kind is malformed (e.g. `Drop { every: 0, .. }`).
    pub fn set_faults(&mut self, faults: &[(&str, FaultKind)]) -> Result<(), SimError> {
        let specs: Vec<FaultSpec> = faults
            .iter()
            .map(|(name, kind)| self.fault_spec(name, kind.clone()))
            .collect();
        self.ready.set_faults(&specs)?;
        Ok(())
    }

    /// Builder form of [`CompiledSim::set_faults`].
    ///
    /// # Errors
    ///
    /// As [`CompiledSim::set_faults`].
    pub fn with_faults(mut self, faults: &[(&str, FaultKind)]) -> Result<CompiledSim, SimError> {
        self.set_faults(faults)?;
        Ok(self)
    }

    /// Removes any installed fault plan, restoring nominal behavior.
    pub fn clear_faults(&mut self) {
        self.ready.clear_faults();
    }

    /// Presence contracts inferred from the compiled network's declared
    /// clocks, ready for [`ContractMonitor::check`] /
    /// [`CompiledSim::run_monitored`].
    pub fn monitor(&self) -> ContractMonitor {
        self.ready.inferred_contracts()
    }

    /// Runs one scenario and checks the resulting trace against `monitor`,
    /// returning both the run and its [`RobustnessReport`].
    ///
    /// # Errors
    ///
    /// Fails on stimulus naming errors or execution errors.
    pub fn run_monitored(
        &mut self,
        inputs: &[(&str, Stream)],
        ticks: usize,
        monitor: &ContractMonitor,
    ) -> Result<(SimRun, RobustnessReport), SimError> {
        let run = self.run(inputs, ticks)?;
        let report = monitor.check(&run.trace);
        Ok((run, report))
    }

    /// Resolves named streams to port order in one pass over `inputs`.
    ///
    /// Rejects names matching no input port ([`SimError::UnknownInput`]),
    /// names driven twice ([`SimError::DuplicateInput`]), and undriven ports
    /// ([`SimError::MissingInput`]).
    fn ordered<'a>(&self, inputs: &'a [(&str, Stream)]) -> Result<Vec<&'a Stream>, SimError> {
        let mut by_port: Vec<Option<&'a Stream>> = vec![None; self.input_names.len()];
        for (name, stream) in inputs {
            let i = *self
                .input_index
                .get(*name)
                .ok_or_else(|| SimError::UnknownInput((*name).to_string()))?;
            if by_port[i].is_some() {
                return Err(SimError::DuplicateInput((*name).to_string()));
            }
            by_port[i] = Some(stream);
        }
        by_port
            .iter()
            .zip(&self.input_names)
            .map(|(s, n)| s.ok_or_else(|| SimError::MissingInput(n.clone())))
            .collect()
    }

    /// Attaches the `in:` echo streams recorded by every simulator run.
    fn echo_inputs(trace: &mut automode_kernel::Trace, inputs: &[(&str, Stream)], ticks: usize) {
        for (name, stream) in inputs {
            trace.insert(format!("in:{name}"), stream.clipped(ticks));
        }
    }

    /// Runs one scenario from the initial state.
    ///
    /// Semantically identical to
    /// [`simulate_component`](crate::simulate_component) on the same
    /// component, without the per-call elaboration and causality cost.
    ///
    /// # Errors
    ///
    /// Fails on stimulus naming errors or execution errors.
    pub fn run(&mut self, inputs: &[(&str, Stream)], ticks: usize) -> Result<SimRun, SimError> {
        self.run_scenario(&BatchScenario::new(inputs, ticks))
    }

    /// Resolves a scenario's lane-local faults to kernel fault specs.
    fn lane_faults(&self, sc: &BatchScenario<'_>) -> Vec<FaultSpec> {
        sc.faults
            .iter()
            .map(|(name, kind)| self.fault_spec(name, kind.clone()))
            .collect()
    }

    /// Runs every scenario as one lane of a batched execution, returning one
    /// [`SimRun`] per scenario — trace-identical to calling
    /// [`CompiledSim::run`] per scenario, but stepping all lanes in one pass
    /// over the compiled plan.
    ///
    /// Lane state is replicated internally, so this takes `&self` and leaves
    /// any incremental stepping state untouched.
    ///
    /// # Errors
    ///
    /// Fails on stimulus naming errors or execution errors.
    pub fn run_batch(&self, scenarios: &[BatchScenario<'_>]) -> Result<Vec<SimRun>, SimError> {
        self.run_lanes(scenarios, |stimuli, lane_faults| {
            self.ready.run_batch_with_faults(stimuli, lane_faults)
        })
    }

    /// The batch entry points' shared prologue and epilogue: orders every
    /// scenario's stimuli, resolves its lane faults (an empty list when no
    /// lane has any, so the kernel takes its nominal path), runs `batch`
    /// over them, and echoes each lane's `in:` streams onto its trace.
    fn run_lanes(
        &self,
        scenarios: &[BatchScenario<'_>],
        batch: impl FnOnce(&[Vec<Vec<Message>>], &[Vec<FaultSpec>]) -> Result<Vec<Trace>, KernelError>,
    ) -> Result<Vec<SimRun>, SimError> {
        let mut stimuli = Vec::with_capacity(scenarios.len());
        for sc in scenarios {
            let ordered = self.ordered(sc.inputs)?;
            stimuli.push(rows_padded_with_absence(&ordered, sc.ticks));
        }
        let lane_faults: Vec<Vec<FaultSpec>> = if scenarios.iter().any(|sc| !sc.faults.is_empty()) {
            scenarios.iter().map(|sc| self.lane_faults(sc)).collect()
        } else {
            Vec::new()
        };
        let traces = batch(&stimuli, &lane_faults)?;
        Ok(traces
            .into_iter()
            .zip(scenarios)
            .map(|(mut trace, sc)| {
                Self::echo_inputs(&mut trace, sc.inputs, sc.ticks);
                SimRun {
                    trace,
                    ticks: sc.ticks,
                }
            })
            .collect())
    }

    /// Runs one [`BatchScenario`] alone on this handle, from the initial
    /// state: the run (or error) that scenario gets as a lane of
    /// [`CompiledSim::run_batch`] with vectorization off, its own faults
    /// on top of the installed ones. The handle's network is reused, not
    /// cloned, so checking a batch lane by lane costs no copy per lane;
    /// the installed faults are left as they were.
    ///
    /// # Errors
    ///
    /// As [`CompiledSim::run_batch`] for a one-lane batch.
    pub fn run_scenario(&mut self, sc: &BatchScenario<'_>) -> Result<SimRun, SimError> {
        let ordered = self.ordered(sc.inputs)?;
        let stim = rows_padded_with_absence(&ordered, sc.ticks);
        let mut trace = self.ready.run_lane(&stim, &self.lane_faults(sc))?;
        Self::echo_inputs(&mut trace, sc.inputs, sc.ticks);
        Ok(SimRun {
            trace,
            ticks: sc.ticks,
        })
    }

    /// The discrete-state coverage layout of the compiled model: one site
    /// per MTD (modes and declared mode transitions) and STD (states and
    /// declared transitions) block, shared by every coverage map this
    /// handle produces. Built once, on first use; clones of the handle
    /// made after that share it.
    pub fn coverage_layout(&self) -> Arc<CoverageLayout> {
        Arc::clone(
            self.coverage_layout
                .get_or_init(|| Arc::new(self.ready.coverage_layout())),
        )
    }

    /// [`CompiledSim::run`] that also accumulates mode/state coverage.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledSim::run`].
    pub fn run_covered(
        &mut self,
        inputs: &[(&str, Stream)],
        ticks: usize,
    ) -> Result<(SimRun, CoverageMap), SimError> {
        let ordered = self.ordered(inputs)?;
        let stim = rows_padded_with_absence(&ordered, ticks);
        self.ready.reset();
        let mut coverage = CoverageMap::new(self.coverage_layout());
        let mut trace = self.ready.run_covered(&stim, &mut coverage)?;
        Self::echo_inputs(&mut trace, inputs, ticks);
        Ok((SimRun { trace, ticks }, coverage))
    }

    /// [`CompiledSim::run_batch`] that also accumulates one coverage map
    /// per lane (all sharing one layout `Arc`), each identical to what
    /// [`CompiledSim::run_covered`] would collect for that scenario alone.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledSim::run_batch`].
    pub fn run_batch_covered(
        &self,
        scenarios: &[BatchScenario<'_>],
    ) -> Result<(Vec<SimRun>, Vec<CoverageMap>), SimError> {
        let layout = self.coverage_layout();
        let mut coverage: Vec<CoverageMap> = (0..scenarios.len())
            .map(|_| CoverageMap::new(layout.clone()))
            .collect();
        let runs = self.run_lanes(scenarios, |stimuli, lane_faults| {
            self.ready
                .run_batch_covered(stimuli, lane_faults, &mut coverage)
        })?;
        Ok((runs, coverage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate_component;
    use crate::stimulus;
    use automode_core::model::{Behavior, Component};
    use automode_core::types::DataType;
    use automode_kernel::{Corruptor, Value};
    use automode_lang::parse;

    fn gain_model() -> (Model, ComponentId) {
        let mut m = Model::new("t");
        let id = m
            .add_component(
                Component::new("Gain")
                    .input("u", DataType::Float)
                    .output("y", DataType::Float)
                    .with_behavior(Behavior::expr("y", parse("u * 3.0").unwrap())),
            )
            .unwrap();
        m.set_root(id);
        (m, id)
    }

    #[test]
    fn reused_handle_matches_fresh_simulation() {
        let (m, id) = gain_model();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        for seed in 0..4u64 {
            let s = stimulus::seeded_random(-1.0, 1.0, 16, seed);
            let reused = sim.run(&[("u", s.clone())], 16).unwrap();
            let fresh = simulate_component(&m, id, &[("u", s)], 16).unwrap();
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn run_batch_matches_per_scenario_runs() {
        let (m, id) = gain_model();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        let streams: Vec<Stream> = (0..5u64)
            .map(|seed| stimulus::seeded_random(-2.0, 2.0, 12, seed))
            .collect();
        let inputs: Vec<[(&str, Stream); 1]> = streams.iter().map(|s| [("u", s.clone())]).collect();
        let scenarios: Vec<BatchScenario<'_>> = inputs
            .iter()
            .enumerate()
            .map(|(i, inp)| BatchScenario::new(inp.as_slice(), 8 + i)) // heterogeneous lengths
            .collect();
        let batch = sim.run_batch(&scenarios).unwrap();
        for (i, sc) in scenarios.iter().enumerate() {
            let single = sim.run(sc.inputs, sc.ticks).unwrap();
            assert_eq!(batch[i], single, "lane {i}");
        }
    }

    #[test]
    fn stats_report_sizes_and_plan() {
        let (m, id) = gain_model();
        let sim = CompiledSim::new(&m, id).unwrap();
        let stats = sim.stats();
        assert!(stats.nodes >= 1);
        assert_eq!(stats.inputs, 1);
        // A purely combinational component has no declared clocks, so the
        // engine is dense and the rejection says why.
        assert_eq!(stats.plan.kind, automode_kernel::EngineKind::Dense);
        assert!(stats.plan.wheel_rejection.is_some());
        assert_eq!(stats.plan, sim.plan_info());
        let text = stats.to_string();
        assert!(text.contains("node") && text.contains("input"), "{text}");
    }

    #[test]
    fn unknown_stimulus_name_is_rejected() {
        let (m, id) = gain_model();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        let err = sim
            .run(
                &[
                    ("u", stimulus::constant(Value::Float(1.0), 2)),
                    ("typo", stimulus::constant(Value::Float(1.0), 2)),
                ],
                2,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownInput(n) if n == "typo"));
    }

    #[test]
    fn duplicate_stimulus_name_is_rejected() {
        let (m, id) = gain_model();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        let err = sim
            .run(
                &[
                    ("u", stimulus::constant(Value::Float(1.0), 2)),
                    ("u", stimulus::constant(Value::Float(2.0), 2)),
                ],
                2,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::DuplicateInput(n) if n == "u"));
    }

    #[test]
    fn new_root_requires_a_root() {
        let m = Model::new("empty");
        assert!(matches!(
            CompiledSim::new_root(&m),
            Err(SimError::Unsupported(_))
        ));
    }

    #[test]
    fn installed_faults_alter_output_and_clear_restores_nominal() {
        let (m, id) = gain_model();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        let u = stimulus::seeded_random(-1.0, 1.0, 8, 7);
        let nominal = sim.run(&[("u", u.clone())], 8).unwrap();

        // Dropping every other delivery of the output signal `y`.
        sim.set_faults(&[("y", FaultKind::drop_every(2, 1))])
            .unwrap();
        let faulted = sim.run(&[("u", u.clone())], 8).unwrap();
        let y = faulted.trace.signal("y").unwrap();
        for t in 0..8 {
            assert_eq!(y[t].is_absent(), t % 2 == 1, "tick {t}");
        }
        assert_ne!(faulted, nominal);

        sim.clear_faults();
        assert_eq!(sim.run(&[("u", u)], 8).unwrap(), nominal);
    }

    #[test]
    fn input_faults_intercept_the_delivered_stimulus() {
        let (m, id) = gain_model();
        let mut sim = CompiledSim::new(&m, id)
            .unwrap()
            .with_faults(&[("u", FaultKind::StuckAt(Value::Float(2.0)))])
            .unwrap();
        let u = stimulus::seeded_random(-1.0, 1.0, 6, 3);
        let run = sim.run(&[("u", u)], 6).unwrap();
        let y = run.trace.signal("y").unwrap();
        for t in 0..6 {
            assert_eq!(y[t].value(), Some(&Value::Float(6.0)), "tick {t}");
        }
    }

    #[test]
    fn unknown_fault_target_is_rejected() {
        let (m, id) = gain_model();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        let err = sim
            .set_faults(&[("ghost", FaultKind::Delay(1))])
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Kernel(automode_kernel::KernelError::UnknownFaultTarget { .. })
        ));
    }

    #[test]
    fn batch_scenario_faults_match_sequential_faulted_runs() {
        let (m, id) = gain_model();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        let streams: Vec<Stream> = (0..6u64)
            .map(|seed| stimulus::seeded_random(-2.0, 2.0, 10, seed))
            .collect();
        let inputs: Vec<[(&str, Stream); 1]> = streams.iter().map(|s| [("u", s.clone())]).collect();
        let kinds: Vec<Option<FaultKind>> = vec![
            None,
            Some(FaultKind::drop_every(3, 0)),
            Some(FaultKind::Delay(2)),
            Some(FaultKind::StuckAt(Value::Float(0.5))),
            Some(FaultKind::Jitter {
                seed: 11,
                hold: 0.4,
            }),
            Some(FaultKind::Corrupt(Corruptor::scale(-1.0))),
        ];
        let scenarios: Vec<BatchScenario<'_>> = inputs
            .iter()
            .zip(&kinds)
            .enumerate()
            .map(|(i, (inp, kind))| {
                let sc = BatchScenario::new(inp.as_slice(), 7 + i);
                match kind {
                    Some(k) => sc.with_fault("y", k.clone()),
                    None => sc,
                }
            })
            .collect();
        let batch = sim.run_batch(&scenarios).unwrap();
        for (i, (sc, kind)) in scenarios.iter().zip(&kinds).enumerate() {
            match kind {
                Some(k) => sim.set_faults(&[("y", k.clone())]).unwrap(),
                None => sim.clear_faults(),
            }
            let single = sim.run(sc.inputs, sc.ticks).unwrap();
            assert_eq!(batch[i], single, "lane {i}");
        }
        sim.clear_faults();
    }

    #[test]
    fn run_scenario_on_one_handle_matches_every_batch_lane() {
        let (m, id) = gain_model();
        // An installed fault under every lane, plus lane-local ones.
        let mut sim = CompiledSim::new(&m, id)
            .unwrap()
            .with_faults(&[("u", FaultKind::Delay(1))])
            .unwrap();
        let streams: Vec<Stream> = (0..4u64)
            .map(|seed| stimulus::seeded_random(-2.0, 2.0, 10, seed))
            .collect();
        let inputs: Vec<[(&str, Stream); 1]> = streams.iter().map(|s| [("u", s.clone())]).collect();
        let scenarios: Vec<BatchScenario<'_>> = inputs
            .iter()
            .enumerate()
            .map(|(i, inp)| {
                let sc = BatchScenario::new(inp.as_slice(), 6 + i);
                match i {
                    1 => sc.with_fault("y", FaultKind::drop_every(2, 0)),
                    2 => sc.with_fault("y", FaultKind::Jitter { seed: 5, hold: 0.5 }),
                    _ => sc,
                }
            })
            .collect();
        let batch = sim.run_batch(&scenarios).unwrap();
        for (i, sc) in scenarios.iter().enumerate() {
            assert_eq!(sim.run_scenario(sc).unwrap(), batch[i], "lane {i}");
        }
        // The installed fault plan survives the lane-local ones.
        let installed = sim.run(scenarios[0].inputs, 6).unwrap();
        assert_eq!(installed, batch[0]);
    }

    #[test]
    fn run_monitored_reports_the_first_violation_tick() {
        let (m, id) = gain_model();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        // `y` is combinational on the base clock; state that as a contract.
        let monitor = sim
            .monitor()
            .expect_exact("y", automode_kernel::Clock::Base);
        let u = stimulus::constant(Value::Float(1.0), 6);
        let (_, clean) = sim.run_monitored(&[("u", u.clone())], 6, &monitor).unwrap();
        assert!(clean.is_clean());

        sim.set_faults(&[("y", FaultKind::drop_every(4, 2))])
            .unwrap();
        let (_, report) = sim.run_monitored(&[("u", u)], 6, &monitor).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.first_violation_tick(), Some(2));
    }
}
