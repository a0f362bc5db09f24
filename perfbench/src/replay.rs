//! In-process replays of a request through the same public functions the
//! service calls, one span per layer call.
//!
//! A replay yields the [`Digest`] the service's response must match byte
//! for byte, and, in the traced run, the per-layer spans. The spans are
//! recorded from outside the program, around each call into a layer;
//! nothing inside the service is instrumented.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use automode_core::json::{parse, JsonWriter};
use automode_core::text::from_text;
use automode_explore::{
    exact_output_monitor, explore, DirectRunner, ExploreConfig, ExploreReport, LaneOutcome,
    PopulationRunner, Scenario, Shrinker,
};
use automode_kernel::{CoverageLayout, Stream};
use automode_service::explore::{generation_line, tail_lines};
use automode_service::sweep::scenario_line;
use automode_service::{ExecOpts, ExploreSpec, SweepSpec};
use automode_sim::{elaborate, BatchScenario, CompiledSim};

use crate::client::Digest;
use crate::workload::{Explore, Sweep};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the request the span belongs to.
    pub request: usize,
}

/// An in-memory span recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.duration_since(self.origin),
            end: end.duration_since(self.origin),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Summed duration of request `request`'s spans named `name`.
    pub fn total(&self, request: usize, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.request == request && s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Number of request `request`'s spans named `name`.
    pub fn count(&self, request: usize, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.request == request && s.name == name)
            .count()
    }

    /// The spans as ndjson, one object per span.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut w = JsonWriter::with_capacity(128);
            w.begin_object();
            w.field("id").uint(id as u64);
            w.field("name").string(s.name);
            w.field("request").uint(s.request as u64);
            w.field("parent");
            match s.parent {
                Some(p) => w.uint(p as u64),
                None => w.null(),
            };
            w.field("start_us").number(s.start.as_secs_f64() * 1e6);
            w.field("end_us").number(s.end.as_secs_f64() * 1e6);
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

/// Mirrors the service's compiled-model cache, so a replay runs the
/// compile layers exactly when the service does: on a miss.
#[derive(Default)]
pub struct Cache {
    models: HashMap<String, Arc<CompiledSim>>,
}

impl Cache {
    /// The compiled handle for `text` and whether it was cached; a miss
    /// runs parse, elaborate and prepare each in its own span.
    ///
    /// # Errors
    ///
    /// Model errors, as text.
    pub fn get_or_compile(
        &mut self,
        text: &str,
        spans: &mut Spans,
        parent: usize,
        request: usize,
    ) -> Result<(Arc<CompiledSim>, bool), String> {
        if let Some(sim) = self.models.get(text) {
            return Ok((sim.clone(), true));
        }
        let p = Some(parent);
        let model = spans
            .time("core.text.parse", p, request, || from_text(text))
            .map_err(|e| e.to_string())?;
        let id = model.root().ok_or("model has no root component")?;
        let network = spans
            .time("sim.elaborate", p, request, || elaborate(&model, id))
            .map_err(|e| e.to_string())?;
        spans
            .time("kernel.prepare", p, request, || network.prepare())
            .map_err(|e| e.to_string())?;
        // `CompiledSim::new` repeats elaborate + prepare to build the
        // handle the service would cache; it is not a layer span.
        let sim = Arc::new(CompiledSim::new(&model, id).map_err(|e| e.to_string())?);
        self.models.insert(text.to_string(), sim.clone());
        Ok((sim, false))
    }
}

/// What replaying one sweep produced.
pub struct SweepReplay {
    /// The parsed spec.
    pub spec: Arc<SweepSpec>,
    /// The compiled handle.
    pub sim: Arc<CompiledSim>,
    /// The scenario lines the service must send.
    pub digest: Digest,
    /// Encoded scenario-line bytes, newlines included.
    pub bytes: u64,
    /// K-lane shards.
    pub shards: usize,
    /// Shards the differential oracle re-ran.
    pub oracle_shards: usize,
    /// Lanes × ticks stepped by the batch kernel.
    pub lane_ticks: u64,
}

/// Replays a sweep: decode, compile on a miss, then per shard the
/// stimulus, `run_batch`, the sampled oracle and the line encoder.
///
/// # Errors
///
/// Any layer failure or an oracle divergence, as text.
pub fn sweep(
    req: &Sweep,
    cache: &mut Cache,
    spans: &mut Spans,
    r: usize,
) -> Result<SweepReplay, String> {
    let root = spans.open("replay", None, r);
    let p = Some(root);
    let spec = spans.time("service.json.decode", p, r, || {
        parse(&req.body).and_then(|doc| SweepSpec::from_json(&doc).map_err(|e| e.to_string()))
    })?;
    let (sim, _) = cache.get_or_compile(&spec.model, spans, root, r)?;
    let oracle_every = ExecOpts::default().oracle_every;
    let oracle = spans.time("service.oracle", p, r, || {
        let mut o = (*sim).clone();
        o.set_batch_vectorization(false);
        o
    });
    let mut out = SweepReplay {
        shards: spec.shards(),
        spec: Arc::new(spec),
        sim: sim.clone(),
        digest: Digest::default(),
        bytes: 0,
        oracle_shards: 0,
        lane_ticks: 0,
    };
    for shard in 0..out.shards {
        let shard_span = spans.open("service.shard", p, r);
        let sp = Some(shard_span);
        let start = shard * req.lanes;
        let end = (start + req.lanes).min(req.count);
        let streams: Vec<Vec<(&str, Stream)>> = spans.time("sim.stimulus", sp, r, || {
            (start..end)
                .map(|i| {
                    req.inputs
                        .iter()
                        .map(|inp| (inp.port, inp.stream(i, req.ticks)))
                        .collect()
                })
                .collect()
        });
        let lanes: Vec<BatchScenario> = streams
            .iter()
            .map(|s| BatchScenario::new(s, req.ticks))
            .collect();
        let runs = spans
            .time("kernel.run_batch", sp, r, || sim.run_batch(&lanes))
            .map_err(|e| e.to_string())?;
        out.lane_ticks += (lanes.len() * req.ticks) as u64;
        if oracle_every > 0 && shard % oracle_every == 0 {
            let slow = spans
                .time("service.oracle", sp, r, || oracle.run_batch(&lanes))
                .map_err(|e| e.to_string())?;
            if slow != runs {
                return Err(format!("oracle divergence in shard {shard} of the replay"));
            }
            out.oracle_shards += 1;
        }
        let lines: Vec<String> = spans.time("sim.report", sp, r, || {
            runs.iter()
                .enumerate()
                .map(|(lane, run)| scenario_line(start + lane, run, req.trace, None, None))
                .collect()
        });
        for line in &lines {
            out.digest.result(line.as_bytes());
            out.bytes += line.len() as u64 + 1;
        }
        spans.close(shard_span);
    }
    spans.close(root);
    Ok(out)
}

/// A [`PopulationRunner`] that times each generation's population run.
struct TimedRunner {
    inner: DirectRunner,
    runs: RefCell<Vec<(Instant, Instant)>>,
}

impl PopulationRunner for TimedRunner {
    fn layout(&self) -> Arc<CoverageLayout> {
        self.inner.layout()
    }

    fn run(&self, scenarios: &[Scenario]) -> Vec<LaneOutcome> {
        let start = Instant::now();
        let out = self.inner.run(scenarios);
        self.runs.borrow_mut().push((start, Instant::now()));
        out
    }
}

/// What replaying one exploration produced.
pub struct ExploreReplay {
    /// The parsed spec.
    pub spec: ExploreSpec,
    /// The compiled handle.
    pub sim: Arc<CompiledSim>,
    /// Whether the handle was cached.
    pub hit: bool,
    /// The generation and repro lines the service must send.
    pub digest: Digest,
}

/// Replays an exploration: decode, compile on a miss, the model parse the
/// explorer needs, `explore()` with no shrinker over a timing runner,
/// then `Shrinker::shrink` on each violation.
///
/// # Errors
///
/// Any layer failure, as text.
pub fn exploration(
    req: &Explore,
    cache: &mut Cache,
    spans: &mut Spans,
    r: usize,
) -> Result<ExploreReplay, String> {
    let root = spans.open("replay", None, r);
    let p = Some(root);
    let spec = spans.time("service.json.decode", p, r, || {
        parse(&req.body).and_then(|doc| ExploreSpec::from_json(&doc).map_err(|e| e.to_string()))
    })?;
    let (sim, hit) = cache.get_or_compile(&spec.model, spans, root, r)?;
    let (model, id) = spans
        .time("core.text.parse", p, r, || spec.parse_model())
        .map_err(|e| e.to_string())?;
    if !spec.strict_monitor {
        return Err("the benchmark sends strict-monitor explorations only".into());
    }
    let monitor = exact_output_monitor(&model, id);
    let space = spec.space(&model, id);
    let runner = TimedRunner {
        inner: DirectRunner::new(sim.clone()).with_monitor(monitor.clone()),
        runs: RefCell::new(Vec::new()),
    };
    let cfg = ExploreConfig {
        seed: spec.seed,
        generations: spec.generations,
        population: spec.population,
        guided: spec.guided,
        max_repros: spec.max_repros,
    };
    let mut digest = Digest::default();
    let search_start = Instant::now();
    let found = explore(&runner, None, &space, &cfg, |g| {
        digest.result(generation_line(g).as_bytes());
    });
    let search = spans.record("explore.search", p, r, search_start, Instant::now());
    for (start, end) in runner.runs.take() {
        spans.record("explore.runner", Some(search), r, start, end);
    }
    let shrinker = Shrinker::new(&sim).with_monitor(monitor);
    let repros = found
        .repros
        .iter()
        .map(|v| {
            spans.time("explore.shrink", p, r, || {
                shrinker.shrink(&v.scenario, &v.signature)
            })
        })
        .collect();
    let shrunk = ExploreReport { repros, ..found };
    let tail = tail_lines(&shrunk, 0);
    for line in &tail[..tail.len() - 1] {
        digest.repro(line.as_bytes());
    }
    spans.close(root);
    Ok(ExploreReplay {
        spec,
        sim,
        hit,
        digest,
    })
}
