//! `POST /explore` — coverage-guided exploration as a service.
//!
//! The request carries an `.amdl` model plus an exploration budget
//! (`generations × population × ticks` at most 2^24 scenario-ticks, like
//! a sweep's `count × ticks`); the handler reuses the sweep
//! infrastructure end to end: the compiled-model cache hands back the
//! shared [`CompiledSim`], and every generation's population is sharded
//! into `lanes`-wide chunks behind the explorer's
//! [`PopulationRunner`](automode_explore::PopulationRunner) trait. The
//! connection thread and up to `workers` pool jobs claim those shards one
//! at a time ([`WorkerPool::run_indexed`]), so a generation never waits
//! on a pool job still queued behind other requests. Results stream back
//! as ndjson: a header line, one line per generation with the cumulative
//! coverage and its delta, one line per shrunk violation repro (scenario
//! JSON + golden trace inline), and a done line.

use std::sync::Arc;

use automode_core::json::{Json, JsonWriter};
use automode_core::model::{ComponentId, Model};
use automode_core::text::from_text;
use automode_explore::{
    exact_output_monitor, explore, DirectRunner, ExploreConfig, ExploreReport, GenerationStats,
    LaneOutcome, PopulationRunner, Scenario, ScenarioSpace, Shrinker,
};
use automode_kernel::CoverageLayout;
use automode_sim::CompiledSim;

use crate::pool::WorkerPool;
use crate::sweep::{opt_bool, opt_num, opt_uint, uint, MAX_SCENARIO_TICKS};
use crate::ServiceError;

/// Hard ceiling on generations per request.
const MAX_GENERATIONS: usize = 256;
/// Hard ceiling on scenarios per generation.
const MAX_POPULATION: usize = 1024;
/// Hard ceiling on ticks per scenario.
const MAX_TICKS: usize = 10_000;
/// Hard ceiling on kept repros.
const MAX_REPROS: usize = 64;

/// A parsed and validated explore request.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// The `.amdl` model text.
    pub model: String,
    /// Component to explore (`None` = the model root).
    pub component: Option<String>,
    /// Number of generations.
    pub generations: usize,
    /// Scenarios per generation.
    pub population: usize,
    /// Ticks per scenario.
    pub ticks: usize,
    /// Master seed.
    pub seed: u64,
    /// Shard width for pool execution.
    pub lanes: usize,
    /// Coverage-guided (`true`, default) or pure-random baseline.
    pub guided: bool,
    /// Maximum distinct violation repros to keep and shrink.
    pub max_repros: usize,
    /// Score against the strict every-output-every-tick monitor (default)
    /// instead of the model's declared clock contracts.
    pub strict_monitor: bool,
    /// Maximum simultaneous fault genes per scenario.
    pub max_faults: Option<usize>,
    /// Per-port `[lo, hi]` generation-range overrides.
    ranges: Vec<(String, f64, f64)>,
}

impl ExploreSpec {
    /// Parses a request document.
    ///
    /// # Errors
    ///
    /// Missing/ill-typed fields map to [`ServiceError::BadRequest`],
    /// limit violations to [`ServiceError::TooLarge`].
    pub fn from_json(doc: &Json) -> Result<ExploreSpec, ServiceError> {
        let model = doc
            .get("model")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::BadRequest("missing string field `model`".into()))?
            .to_string();
        let component = match doc.get("component") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| ServiceError::BadRequest("`component` must be a string".into()))?
                    .to_string(),
            ),
        };
        let generations = opt_uint(doc, "generations", 8)? as usize;
        let population = opt_uint(doc, "population", 16)? as usize;
        let ticks = opt_uint(doc, "ticks", 16)? as usize;
        if generations == 0 || population == 0 || ticks == 0 {
            return Err(ServiceError::BadRequest(
                "`generations`, `population`, and `ticks` must be positive".into(),
            ));
        }
        for (what, n, limit) in [
            ("generations", generations, MAX_GENERATIONS),
            ("population", population, MAX_POPULATION),
            ("ticks", ticks, MAX_TICKS),
            (
                "generations x population x ticks",
                generations.saturating_mul(population).saturating_mul(ticks),
                MAX_SCENARIO_TICKS,
            ),
        ] {
            if n > limit {
                return Err(ServiceError::TooLarge(format!(
                    "{what} {n} exceeds limit {limit}"
                )));
            }
        }
        let max_repros = opt_uint(doc, "max_repros", 8)?.min(MAX_REPROS as u64) as usize;
        let mut ranges = Vec::new();
        if let Some(arr) = doc.get("ranges").and_then(Json::as_array) {
            for (idx, item) in arr.iter().enumerate() {
                let port = item
                    .get("port")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        ServiceError::BadRequest(format!("ranges[{idx}]: missing `port`"))
                    })?
                    .to_string();
                let lo = opt_num(item, "lo", 0.0)?;
                let hi = opt_num(item, "hi", 1.0)?;
                if !lo.is_finite() || !hi.is_finite() || lo > hi {
                    return Err(ServiceError::BadRequest(format!(
                        "ranges[{idx}]: need finite lo <= hi"
                    )));
                }
                ranges.push((port, lo, hi));
            }
        }
        Ok(ExploreSpec {
            model,
            component,
            generations,
            population,
            ticks,
            seed: opt_uint(doc, "seed", 0)?,
            lanes: opt_uint(doc, "lanes", 8)?.max(1) as usize,
            guided: opt_bool(doc, "guided", true)?,
            max_repros,
            strict_monitor: opt_bool(doc, "strict_monitor", true)?,
            max_faults: doc
                .get("max_faults")
                .map(|v| uint(v, "max_faults"))
                .transpose()?
                .map(|n| n as usize),
            ranges,
        })
    }

    /// Resolves the explored component in a freshly parsed copy of the
    /// model text (the compiled artifact comes from the cache; the parsed
    /// model only feeds space + monitor construction).
    ///
    /// # Errors
    ///
    /// Parse failures and unknown component names.
    pub fn parse_model(&self) -> Result<(Model, ComponentId), ServiceError> {
        let model = from_text(&self.model).map_err(|e| ServiceError::Model(e.to_string()))?;
        let id = match &self.component {
            Some(name) => model
                .find(name)
                .ok_or_else(|| ServiceError::Model(format!("unknown component `{name}`")))?,
            None => model
                .root()
                .ok_or_else(|| ServiceError::Model("model has no root component".into()))?,
        };
        Ok((model, id))
    }

    /// Builds the scenario space: declared ports plus the request's range
    /// and fault-budget overrides.
    pub fn space(&self, model: &Model, id: ComponentId) -> ScenarioSpace {
        let mut space = ScenarioSpace::from_component(model, id, self.ticks);
        for (port, lo, hi) in &self.ranges {
            space = space.with_range(port, *lo, *hi);
        }
        if let Some(n) = self.max_faults {
            space = space.with_max_faults(n);
        }
        space
    }
}

/// [`PopulationRunner`] over the service's worker pool: each generation
/// is split into `lanes`-wide shards that the calling (connection) thread
/// and the pool's workers claim one at a time through
/// [`WorkerPool::run_indexed`]; the outcomes are concatenated in shard
/// (so population) order.
pub struct PoolRunner<'a> {
    inner: Arc<DirectRunner>,
    pool: &'a WorkerPool,
    lanes: usize,
}

impl<'a> PoolRunner<'a> {
    /// Wraps an in-process runner for pool execution.
    pub fn new(inner: DirectRunner, pool: &'a WorkerPool, lanes: usize) -> PoolRunner<'a> {
        PoolRunner {
            inner: Arc::new(inner),
            pool,
            lanes: lanes.max(1),
        }
    }
}

impl PopulationRunner for PoolRunner<'_> {
    fn layout(&self) -> Arc<CoverageLayout> {
        self.inner.layout()
    }

    fn run(&self, scenarios: &[Scenario]) -> Vec<LaneOutcome> {
        let inner = self.inner.clone();
        let lanes = self.lanes;
        let population: Arc<[Scenario]> = scenarios.into();
        let shards = population.len().div_ceil(lanes);
        self.pool
            .run_indexed(shards, move |i| {
                let end = population.len().min((i + 1) * lanes);
                inner.run(&population[i * lanes..end])
            })
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Encodes the stream-header line.
pub fn header_line(spec: &ExploreSpec, key: u64, hit: bool, layout: &CoverageLayout) -> String {
    let mut w = JsonWriter::with_capacity(256);
    w.begin_object();
    w.field("explore");
    w.begin_object();
    w.field("model_hash").string(&format!("{key:016x}"));
    w.field("cache").string(if hit { "hit" } else { "miss" });
    w.field("generations").uint(spec.generations as u64);
    w.field("population").uint(spec.population as u64);
    w.field("ticks").uint(spec.ticks as u64);
    w.field("seed").uint(spec.seed);
    w.field("guided").boolean(spec.guided);
    w.field("total_states").uint(layout.total_states() as u64);
    w.field("total_transitions")
        .uint(layout.total_transitions() as u64);
    w.end_object();
    w.end_object();
    w.finish()
}

/// Encodes one per-generation coverage-delta line.
pub fn generation_line(g: &GenerationStats) -> String {
    let mut w = JsonWriter::with_capacity(192);
    w.begin_object();
    w.field("generation");
    w.begin_object();
    w.field("index").uint(g.generation as u64);
    w.field("scenarios_run").uint(g.scenarios_run as u64);
    w.field("states_covered").uint(g.states_covered as u64);
    w.field("transitions_covered")
        .uint(g.transitions_covered as u64);
    w.field("new_states").uint(g.new_states as u64);
    w.field("new_transitions").uint(g.new_transitions as u64);
    w.field("violations").uint(g.violations as u64);
    w.end_object();
    w.end_object();
    w.finish()
}

/// Encodes the repro lines + done line for a finished exploration.
pub fn tail_lines(report: &ExploreReport, elapsed_us: u64) -> Vec<String> {
    let mut lines = Vec::with_capacity(report.repros.len() + 1);
    for r in &report.repros {
        let mut w = JsonWriter::with_capacity(512);
        w.begin_object();
        w.field("repro");
        w.begin_object();
        w.field("signature").string(&r.signature);
        w.field("shrunk").boolean(r.shrunk);
        w.field("minimal").boolean(r.minimal);
        w.field("deterministic").boolean(r.deterministic);
        w.field("ticks").uint(r.scenario.ticks as u64);
        w.field("faults").uint(r.scenario.faults.len() as u64);
        // The scenario rides along as its own replayable JSON text — the
        // exact bytes `Scenario::from_json` accepts and the CLI writes.
        w.field("scenario").string(&r.scenario.to_json());
        w.field("trace").string(&r.trace_text);
        w.end_object();
        w.end_object();
        lines.push(w.finish());
    }
    let (s, t) = report.final_coverage();
    let mut w = JsonWriter::with_capacity(192);
    w.begin_object();
    w.field("done");
    w.begin_object();
    w.field("status").string("ok");
    w.field("scenarios").uint(report.scenarios_run() as u64);
    w.field("states_covered").uint(s as u64);
    w.field("transitions_covered").uint(t as u64);
    w.field("violations").uint(report.repros.len() as u64);
    w.field("elapsed_us").uint(elapsed_us);
    w.end_object();
    w.end_object();
    lines.push(w.finish());
    lines
}

/// Runs an exploration per `spec` against a cached compiled handle,
/// streaming lines through `emit` (header and generation lines during the
/// run, repro + done lines at the end).
///
/// # Errors
///
/// Returns the first `emit` error (client gone); the exploration itself
/// still runs to completion so pool workers are never abandoned
/// mid-generation.
pub fn execute_explore(
    spec: &ExploreSpec,
    sim: &Arc<CompiledSim>,
    key: u64,
    hit: bool,
    pool: &WorkerPool,
    started: std::time::Instant,
    emit: &mut dyn FnMut(&str) -> std::io::Result<()>,
) -> Result<ExploreReport, ServiceError> {
    let (model, id) = spec.parse_model()?;
    let monitor = if spec.strict_monitor {
        exact_output_monitor(&model, id)
    } else {
        sim.monitor()
    };
    let runner = PoolRunner::new(
        DirectRunner::new(sim.clone()).with_monitor(monitor.clone()),
        pool,
        spec.lanes,
    );
    let shrinker = Shrinker::new(sim).with_monitor(monitor);
    let space = spec.space(&model, id);
    let cfg = ExploreConfig {
        seed: spec.seed,
        generations: spec.generations,
        population: spec.population,
        guided: spec.guided,
        max_repros: spec.max_repros,
    };

    let mut io_err: Option<std::io::Error> = None;
    let mut sink = |line: &str| {
        if io_err.is_none() {
            if let Err(e) = emit(line) {
                io_err = Some(e);
            }
        }
    };
    sink(&header_line(spec, key, hit, &runner.layout()));
    let report = explore(&runner, Some(&shrinker), &space, &cfg, |g| {
        sink(&generation_line(g));
    });
    let elapsed_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    for line in tail_lines(&report, elapsed_us) {
        sink(&line);
    }
    match io_err {
        Some(e) => Err(ServiceError::Io(e)),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automode_core::json::parse;
    use automode_kernel::ContractMonitor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn spec_defaults_and_limits() {
        let doc = parse(r#"{"model":"model m\n"}"#).unwrap();
        let spec = ExploreSpec::from_json(&doc).unwrap();
        assert_eq!(spec.generations, 8);
        assert_eq!(spec.population, 16);
        assert!(spec.guided);
        assert!(spec.strict_monitor);
        assert!(
            ExploreSpec::from_json(&parse(r#"{"model":"m","generations":0}"#).unwrap()).is_err()
        );
        assert!(
            ExploreSpec::from_json(&parse(r#"{"model":"m","population":100000}"#).unwrap())
                .is_err()
        );
        assert!(ExploreSpec::from_json(
            &parse(r#"{"model":"m","ranges":[{"port":"x","lo":2,"hi":1}]}"#).unwrap()
        )
        .is_err());
        assert!(ExploreSpec::from_json(&parse(r#"{"count":4}"#).unwrap()).is_err());

        // An ill-typed field is a 400 naming it, never its default.
        for (field, value) in [
            ("generations", "-1"),
            ("population", "1.5"),
            ("ticks", "\"x\""),
            ("seed", "-3"),
            ("lanes", "true"),
            ("max_repros", "\"4\""),
            ("max_faults", "0.5"),
            ("guided", "1"),
            ("strict_monitor", "null"),
        ] {
            let doc = parse(&format!(r#"{{"model":"m","{field}":{value}}}"#)).unwrap();
            match ExploreSpec::from_json(&doc) {
                Err(ServiceError::BadRequest(m)) => assert!(m.contains(field), "{field}: {m}"),
                other => panic!("{field}: {value} gave {other:?}"),
            }
        }
        // An integer too large for its limit is a 413, not a default.
        let doc = parse(r#"{"model":"m","ticks":2e16}"#).unwrap();
        assert!(matches!(
            ExploreSpec::from_json(&doc),
            Err(ServiceError::TooLarge(_))
        ));
    }

    #[test]
    fn explore_work_is_bounded_per_request() {
        // Each field is within its own limit; the product is the budget.
        let at_budget =
            parse(r#"{"model":"m","generations":256,"population":1024,"ticks":64}"#).unwrap();
        assert!(ExploreSpec::from_json(&at_budget).is_ok());
        let over =
            parse(r#"{"model":"m","generations":256,"population":1024,"ticks":65}"#).unwrap();
        match ExploreSpec::from_json(&over) {
            Err(ServiceError::TooLarge(m)) => {
                assert!(m.contains("generations x population x ticks"), "{m}");
            }
            other => panic!("over budget gave {other:?}"),
        }
    }

    /// The compiled engine, its strict monitor and `n` random scenarios of
    /// 8 ticks (faults included).
    fn engine_population(n: usize) -> (Arc<CompiledSim>, ContractMonitor, Vec<Scenario>) {
        let eng = automode_engine::reengineer_engine().unwrap();
        let sim = Arc::new(CompiledSim::new(&eng.model, eng.root).unwrap());
        let monitor = exact_output_monitor(&eng.model, eng.root);
        let space = ScenarioSpace::from_component(&eng.model, eng.root, 8)
            .with_range("rpm", 0.0, 7000.0)
            .with_range("throttle", 0.0, 1.0)
            .with_range("o2", 0.0, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let scenarios = (0..n).map(|_| space.random(&mut rng)).collect();
        (sim, monitor, scenarios)
    }

    #[test]
    fn pool_runner_equals_one_direct_batch_in_population_order() {
        let (sim, monitor, all) = engine_population(30);
        let direct = DirectRunner::new(sim.clone()).with_monitor(monitor.clone());
        let mut violations = 0;
        for workers in [1, 3] {
            let pool = WorkerPool::new(workers);
            for n in [1, 7, 8, 9, 30] {
                let want = direct.run(&all[..n]);
                violations += want.iter().filter(|o| o.violation.is_some()).count();
                for lanes in [8, 64] {
                    let runner = PoolRunner::new(
                        DirectRunner::new(sim.clone()).with_monitor(monitor.clone()),
                        &pool,
                        lanes,
                    );
                    let got = runner.run(&all[..n]);
                    assert_eq!(got.len(), n);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let at = format!("workers {workers}, n {n}, lanes {lanes}, scenario {i}");
                        assert_eq!(g.coverage, w.coverage, "{at}");
                        assert_eq!(g.violation, w.violation, "{at}");
                    }
                }
            }
        }
        assert!(violations > 0, "the population exercises no violation");
    }

    #[test]
    fn pool_runner_finishes_a_generation_while_the_only_worker_is_busy() {
        let (sim, monitor, population) = engine_population(32);
        let pool = WorkerPool::new(1);
        let (release, gate) = mpsc::channel::<()>();
        let (parked, started) = mpsc::channel::<()>();
        pool.submit(move || {
            parked.send(()).expect("parked");
            let _ = gate.recv_timeout(Duration::from_secs(60));
        });
        started.recv().expect("worker parked");
        let runner = PoolRunner::new(DirectRunner::new(sim).with_monitor(monitor), &pool, 8);
        let got = std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let (runner, population) = (&runner, &population);
            s.spawn(move || {
                let _ = tx.send(runner.run(population));
            });
            let got = rx.recv_timeout(Duration::from_secs(30));
            // Release the worker either way, so the scope can end.
            release.send(()).unwrap();
            got
        });
        let got = got.expect("the generation must not wait on a queued pool job");
        assert_eq!(got.len(), population.len());
    }

    #[test]
    fn bad_model_text_is_a_model_error() {
        let doc = parse(r#"{"model":"not amdl"}"#).unwrap();
        let spec = ExploreSpec::from_json(&doc).unwrap();
        assert!(matches!(spec.parse_model(), Err(ServiceError::Model(_))));
    }
}
