//! The coverage-guided exploration loop.
//!
//! Each generation draws a population of scenarios — mutations of the
//! highest-novelty elites, mixed with fresh random draws — runs them as
//! one batched, coverage-instrumented pass
//! ([`CompiledSim::run_batch_covered`]), scores every lane's novelty
//! against the accumulated global coverage map, and promotes novel
//! genomes into the elite pool. Contract violations (and lane crashes)
//! become [`Repro`]s, shrunk on discovery by a caller-supplied
//! [`Shrinker`](crate::shrink::Shrinker).

use std::collections::BTreeMap;
use std::sync::Arc;

use automode_kernel::{ContractMonitor, CoverageLayout, CoverageMap, Stream};
use automode_sim::{BatchScenario, CompiledSim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::Scenario;
use crate::shrink::{signature_of_error, signature_of_report, Shrinker};
use crate::space::ScenarioSpace;

/// How one executed lane scored.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// The lane's discrete-state coverage.
    pub coverage: CoverageMap,
    /// The violation signature, if the lane violated a contract
    /// (`contract:<signal>`) or crashed (`error:<message>`).
    pub violation: Option<String>,
}

/// Executes scenario populations and scores them. [`DirectRunner`] runs
/// in-process; the sweep service runs populations through its worker
/// pool behind the same trait.
pub trait PopulationRunner {
    /// The coverage layout all outcome maps share.
    fn layout(&self) -> Arc<CoverageLayout>;
    /// Runs one population, one [`LaneOutcome`] per scenario (same order).
    fn run(&self, scenarios: &[Scenario]) -> Vec<LaneOutcome>;
}

/// In-process [`PopulationRunner`] over one [`CompiledSim`]: the whole
/// population becomes one coverage-instrumented batch.
pub struct DirectRunner {
    sim: Arc<CompiledSim>,
    monitor: ContractMonitor,
    layout: Arc<CoverageLayout>,
}

impl DirectRunner {
    /// Wraps a compiled handle; contracts are inferred from its declared
    /// clocks ([`CompiledSim::monitor`]).
    pub fn new(sim: Arc<CompiledSim>) -> DirectRunner {
        let monitor = sim.monitor();
        let layout = sim.coverage_layout();
        DirectRunner {
            sim,
            monitor,
            layout,
        }
    }

    /// Replaces the inferred contracts — e.g. with
    /// [`exact_output_monitor`] for models whose outputs are
    /// unconditionally time-triggered. Builder-style.
    pub fn with_monitor(mut self, monitor: ContractMonitor) -> DirectRunner {
        self.monitor = monitor;
        self
    }
}

/// A strict presence monitor: every output of `component` must be present
/// on every tick. Sound exactly for models whose outputs are
/// unconditionally computed (the engine controllers, the door lock) —
/// any fault that swallows or displaces an output delivery becomes a
/// reportable violation. Models with conditional outputs (e.g. the start
/// sequencer's event-style commands) need hand-written contracts instead.
pub fn exact_output_monitor(
    model: &automode_core::Model,
    component: automode_core::ComponentId,
) -> ContractMonitor {
    let mut monitor = ContractMonitor::new();
    for port in model.component(component).outputs() {
        monitor = monitor.expect_exact(port.name.clone(), automode_kernel::Clock::Base);
    }
    monitor
}

/// Expands scenarios to concrete named streams, keyed by borrowed port
/// names so the result can back [`BatchScenario`] lanes directly.
pub(crate) fn expand(scenarios: &[Scenario]) -> Vec<Vec<(&str, Stream)>> {
    scenarios
        .iter()
        .map(|sc| {
            sc.inputs
                .iter()
                .map(|(name, stim)| (name.as_str(), stim.stream(sc.ticks)))
                .collect()
        })
        .collect()
}

/// Borrows expanded streams as kernel batch lanes, faults attached.
pub(crate) fn lanes<'a>(
    scenarios: &'a [Scenario],
    expanded: &'a [Vec<(&'a str, Stream)>],
) -> Vec<BatchScenario<'a>> {
    scenarios
        .iter()
        .zip(expanded)
        .map(|(sc, inputs)| {
            let mut lane = BatchScenario::new(inputs.as_slice(), sc.ticks);
            for g in &sc.faults {
                lane = lane.with_fault(g.signal.clone(), g.kind.to_fault_kind());
            }
            lane
        })
        .collect()
}

impl PopulationRunner for DirectRunner {
    fn layout(&self) -> Arc<CoverageLayout> {
        self.layout.clone()
    }

    fn run(&self, scenarios: &[Scenario]) -> Vec<LaneOutcome> {
        let expanded = expand(scenarios);
        let batch = lanes(scenarios, &expanded);
        match self.sim.run_batch_covered(&batch) {
            Ok((runs, coverage)) => runs
                .iter()
                .zip(coverage)
                .map(|(run, coverage)| LaneOutcome {
                    coverage,
                    violation: signature_of_report(&self.monitor.check(&run.trace)),
                })
                .collect(),
            // A lane crashed, and the batch failed as K sequential runs
            // would: with its lowest failing lane's error and no runs.
            // Re-run each lane alone so healthy lanes still score and
            // every crashing lane surfaces as an `error:` finding.
            Err(_) => batch
                .iter()
                .map(
                    |lane| match self.sim.run_batch_covered(std::slice::from_ref(lane)) {
                        Ok((runs, mut coverage)) => LaneOutcome {
                            coverage: coverage.pop().expect("one lane in, one map out"),
                            violation: signature_of_report(&self.monitor.check(&runs[0].trace)),
                        },
                        Err(e) => LaneOutcome {
                            coverage: CoverageMap::new(self.layout.clone()),
                            violation: Some(signature_of_error(&e)),
                        },
                    },
                )
                .collect(),
        }
    }
}

/// Exploration budget and strategy knobs.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Number of generations.
    pub generations: usize,
    /// Scenarios per generation.
    pub population: usize,
    /// `true`: coverage-guided (elite mutation). `false`: pure random —
    /// the baseline the guided mode must beat.
    pub guided: bool,
    /// Maximum distinct violation signatures to keep (and shrink).
    pub max_repros: usize,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            seed: 0,
            generations: 12,
            population: 32,
            guided: true,
            max_repros: 8,
        }
    }
}

/// Per-generation coverage accounting (cumulative counters are monotone
/// by construction — the global map only ever gains bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Scenarios executed so far, across all generations.
    pub scenarios_run: usize,
    /// Cumulative distinct states visited.
    pub states_covered: usize,
    /// Cumulative distinct declared transitions taken.
    pub transitions_covered: usize,
    /// States first visited in this generation.
    pub new_states: usize,
    /// Transitions first taken in this generation.
    pub new_transitions: usize,
    /// Cumulative distinct violation signatures found.
    pub violations: usize,
}

/// One violation, shrunk to a minimal deterministic repro.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The violation signature (`contract:<signal>` or `error:<message>`).
    pub signature: String,
    /// The (shrunk) scenario reproducing it.
    pub scenario: Scenario,
    /// Canonical golden trace of the shrunk scenario (empty for `error:`
    /// findings, which have no trace).
    pub trace_text: String,
    /// Whether shrinking succeeded (the oracle reproduced the finding).
    pub shrunk: bool,
    /// Whether the shrunk repro is locally minimal: dropping any fault,
    /// blanking any stimulus, or cutting the last tick loses the finding.
    pub minimal: bool,
    /// Whether two oracle replays produced identical traces.
    pub deterministic: bool,
}

/// The explorer's result: the coverage curve plus every shrunk repro.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Total states in the model's coverage layout.
    pub total_states: usize,
    /// Total declared transitions in the layout.
    pub total_transitions: usize,
    /// Per-generation coverage accounting.
    pub generations: Vec<GenerationStats>,
    /// Distinct violations, shrunk to minimal repros.
    pub repros: Vec<Repro>,
}

impl ExploreReport {
    /// Final cumulative (states, transitions) coverage.
    pub fn final_coverage(&self) -> (usize, usize) {
        self.generations
            .last()
            .map(|g| (g.states_covered, g.transitions_covered))
            .unwrap_or((0, 0))
    }

    /// Total scenarios executed.
    pub fn scenarios_run(&self) -> usize {
        self.generations
            .last()
            .map(|g| g.scenarios_run)
            .unwrap_or(0)
    }

    /// Renders a human-readable coverage report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (s, t) = self.final_coverage();
        let _ = writeln!(
            out,
            "coverage: {s}/{} states, {t}/{} transitions after {} scenario(s)",
            self.total_states,
            self.total_transitions,
            self.scenarios_run()
        );
        let _ = writeln!(out, "gen  scenarios  states  transitions  new  violations");
        for g in &self.generations {
            let _ = writeln!(
                out,
                "{:>3}  {:>9}  {:>6}  {:>11}  {:>3}  {:>10}",
                g.generation,
                g.scenarios_run,
                g.states_covered,
                g.transitions_covered,
                g.new_states + g.new_transitions,
                g.violations
            );
        }
        for r in &self.repros {
            let _ = writeln!(
                out,
                "repro {} — {} tick(s), {} fault(s){}{}",
                r.signature,
                r.scenario.ticks,
                r.scenario.faults.len(),
                if r.minimal { ", minimal" } else { "" },
                if r.deterministic {
                    ", deterministic"
                } else {
                    ""
                },
            );
        }
        out
    }
}

/// Probability that a guided draw derives from the archive (vs. a fresh
/// random draw) once the archive is non-empty.
const P_FROM_ARCHIVE: f64 = 0.3;
/// Within archive-derived draws: probability of two-parent crossover
/// (regime-switching splice) vs. single-parent mutation.
const P_CROSSOVER: f64 = 0.25;

/// A MAP-Elites-style coverage archive: one parent slot per coverage bit
/// (every state and every declared transition), holding the first
/// scenario that covered it. Mutation parents are drawn uniformly over
/// *bits*, not over scenarios — a genome that reached a rare corner of
/// the state space gets the same parent probability as the genomes
/// covering the easy bulk, which is what keeps the search pushing on the
/// frontier instead of resampling the already-covered middle.
struct CoverageArchive {
    /// One slot per state bit, then per transition bit.
    slots: Vec<Option<Scenario>>,
    /// Indices of filled slots, in fill order (deterministic).
    filled: Vec<usize>,
}

impl CoverageArchive {
    fn new(layout: &CoverageLayout) -> CoverageArchive {
        let bits: usize = layout
            .sites()
            .iter()
            .map(|s| s.states.len() + s.transitions.len())
            .sum();
        CoverageArchive {
            slots: vec![None; bits],
            filled: Vec::new(),
        }
    }

    /// Claims every bit `coverage` holds that `global` doesn't yet, in
    /// favor of `scenario`. Call *before* merging into `global`.
    fn absorb(&mut self, scenario: &Scenario, coverage: &CoverageMap, global: &CoverageMap) {
        let mut bit = 0;
        for (site, s) in coverage.layout().sites().iter().enumerate() {
            for state in 0..s.states.len() {
                if coverage.state_covered(site, state) && !global.state_covered(site, state) {
                    self.slots[bit] = Some(scenario.clone());
                    self.filled.push(bit);
                }
                bit += 1;
            }
            for t in 0..s.transitions.len() {
                if coverage.transition_covered(site, t) && !global.transition_covered(site, t) {
                    self.slots[bit] = Some(scenario.clone());
                    self.filled.push(bit);
                }
                bit += 1;
            }
        }
    }

    fn parent(&self, rng: &mut StdRng) -> Option<&Scenario> {
        if self.filled.is_empty() {
            return None;
        }
        let bit = self.filled[rng.gen_range(0..self.filled.len())];
        self.slots[bit].as_ref()
    }
}

/// Runs the exploration loop. `on_generation` fires after every
/// generation with its stats — the service streams these as ndjson.
pub fn explore(
    runner: &dyn PopulationRunner,
    shrinker: Option<&Shrinker>,
    space: &ScenarioSpace,
    cfg: &ExploreConfig,
    mut on_generation: impl FnMut(&GenerationStats),
) -> ExploreReport {
    let layout = runner.layout();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut global = CoverageMap::new(layout.clone());
    let mut archive = CoverageArchive::new(&layout);
    let mut repros: BTreeMap<String, Repro> = BTreeMap::new();
    let mut generations = Vec::with_capacity(cfg.generations);
    let mut scenarios_run = 0usize;

    for generation in 0..cfg.generations {
        let population: Vec<Scenario> = (0..cfg.population)
            .map(|_| {
                if cfg.guided && rng.gen_bool(P_FROM_ARCHIVE) {
                    if let Some(parent) = archive.parent(&mut rng) {
                        let parent = parent.clone();
                        if rng.gen_bool(P_CROSSOVER) {
                            if let Some(other) = archive.parent(&mut rng) {
                                let other = other.clone();
                                return space.crossover(&parent, &other, &mut rng);
                            }
                        }
                        return space.mutate(&parent, &mut rng);
                    }
                }
                space.random(&mut rng)
            })
            .collect();
        let outcomes = runner.run(&population);
        scenarios_run += population.len();

        let (s0, t0) = (global.states_covered(), global.transitions_covered());
        for (scenario, outcome) in population.iter().zip(&outcomes) {
            archive.absorb(scenario, &outcome.coverage, &global);
            global.merge(&outcome.coverage);
            if let Some(signature) = &outcome.violation {
                if !repros.contains_key(signature) && repros.len() < cfg.max_repros {
                    let repro = match shrinker {
                        Some(sh) => sh.shrink(scenario, signature),
                        None => Repro {
                            signature: signature.clone(),
                            scenario: scenario.clone(),
                            trace_text: String::new(),
                            shrunk: false,
                            minimal: false,
                            deterministic: false,
                        },
                    };
                    repros.insert(signature.clone(), repro);
                }
            }
        }

        let stats = GenerationStats {
            generation,
            scenarios_run,
            states_covered: global.states_covered(),
            transitions_covered: global.transitions_covered(),
            new_states: global.states_covered() - s0,
            new_transitions: global.transitions_covered() - t0,
            violations: repros.len(),
        };
        on_generation(&stats);
        generations.push(stats);
    }

    ExploreReport {
        total_states: layout.total_states(),
        total_transitions: layout.total_transitions(),
        generations,
        repros: repros.into_values().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Stim;

    /// An MTD that passes `u` through in mode `Low` and computes
    /// `1 / (u - 2)` in mode `High`, entered while `u > 1`.
    const CRASH_MODEL: &str = "model crash

component Pass {
  in u: float
  out y: float
  expr y = (u * 1.0)
}

component Invert {
  in u: float
  out y: float
  expr y = (1.0 / (u - 2.0))
}

component Top {
  in u: float
  out y: float
  mtd initial Low {
    mode Low: Pass
    mode High: Invert
    trans Low -> High prio 0 when (u > 1.0)
    trans High -> Low prio 0 when (u <= 1.0)
  }
}

root Top
";

    fn scenario(stim: Stim) -> Scenario {
        Scenario {
            ticks: 8,
            inputs: vec![("u".to_string(), stim)],
            faults: Vec::new(),
        }
    }

    fn same_coverage(a: &CoverageMap, b: &CoverageMap) -> bool {
        a.new_states_vs(b) == 0
            && b.new_states_vs(a) == 0
            && a.new_transitions_vs(b) == 0
            && b.new_transitions_vs(a) == 0
    }

    #[test]
    fn a_crashing_lane_scores_an_error_and_the_rest_score_as_solo_runs() {
        let model = automode_core::text::from_text(CRASH_MODEL).unwrap();
        let runner = DirectRunner::new(Arc::new(CompiledSim::new_root(&model).unwrap()));
        let population = vec![
            scenario(Stim::ConstFloat(0.5)),
            // Enters `High` with u = 2 and divides by zero.
            scenario(Stim::ConstFloat(2.0)),
            scenario(Stim::Step {
                before: 0.5,
                after: 3.0,
                at: 3,
            }),
            scenario(Stim::Step {
                before: 3.0,
                after: 0.5,
                at: 4,
            }),
        ];
        let outcomes = runner.run(&population);
        assert_eq!(outcomes.len(), population.len());
        for (l, (outcome, sc)) in outcomes.iter().zip(&population).enumerate() {
            let solo = runner.run(std::slice::from_ref(sc)).pop().unwrap();
            assert_eq!(outcome.violation, solo.violation, "lane {l}");
            assert!(same_coverage(&outcome.coverage, &solo.coverage), "lane {l}");
            let crashed = outcome
                .violation
                .as_deref()
                .is_some_and(|v| v.starts_with("error:"));
            assert_eq!(crashed, l == 1, "lane {l}: {:?}", outcome.violation);
        }
        let error = outcomes[1].violation.as_deref().unwrap();
        assert!(error.contains("division by zero"), "{error}");
        // The lanes that switch modes covered more than the one that
        // stays in `Low`.
        assert!(outcomes[2].coverage.states_covered() > outcomes[0].coverage.states_covered());
    }
}
