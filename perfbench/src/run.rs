//! One benchmark run: the untraced end-to-end measurement or the traced
//! per-layer run of one workload.
//!
//! The sweep service runs in this process with one simulation worker and
//! one connection thread, driven over loopback by one closed-loop client,
//! so at most two threads are busy at a time on a 2-vCPU host.

use std::collections::BTreeSet;
use std::time::Instant;

use automode_service::{
    execute, execute_explore, serve, ExecOpts, ModelCache, Server, ServerConfig, WorkerPool,
};

use crate::client::{self, Checker, Digest, Exchange, Expect};
use crate::host::{self, Facts};
use crate::replay::{self, Cache, Spans};
use crate::stats::{median, millis, quantile};
use crate::workload::{Plan, Request, Workload, DEFAULT_SEED};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Run length; sizes the fixed request list.
    pub seconds: u64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Small shapes, for the smoke test.
    pub quick: bool,
}

impl Args {
    /// Parses `--workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--quick]`.
    ///
    /// # Errors
    ///
    /// Unknown flags, bad values and a missing workload.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 20;
        let mut trace = false;
        let mut quick = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = value.parse().map_err(bad)?,
                "--seconds" => seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value `{value}` for --trace")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.max(1),
            trace,
            quick,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed a check.
    pub failed: usize,
    /// Checks that failed outside any one request (set-up, references).
    pub errors: Vec<String>,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Diagnostic lines, printed and never gated.
    pub notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut w = automode_core::json::JsonWriter::new();
        w.begin_object();
        w.field("correct").boolean(self.correct());
        w.field("attempted").uint(self.attempted as u64);
        w.field("failed").uint(self.failed as u64);
        w.field("metrics");
        w.begin_object();
        for m in &self.metrics {
            w.field(m.name);
            w.begin_object();
            w.field("value")
                .number(if m.value.is_finite() { m.value } else { 0.0 });
            w.field("unit").string(m.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// The server the benchmark drives: one simulation worker, one
/// connection thread, everything else at its production default (the
/// 1/16 differential oracle included).
fn config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        conn_threads: 1,
        ..ServerConfig::default()
    }
}

fn start(plan: &Plan, report: &mut Report) -> Result<Server, String> {
    let server = serve(config()).map_err(|e| format!("server failed to start: {e}"))?;
    match client::send(server.addr(), &plan.warmup).outcome {
        Ok(s) if !s.cache_hit => {}
        Ok(_) => report.errors.push("warm-up request hit the cache".into()),
        Err(e) => report.errors.push(format!("warm-up request: {e}")),
    }
    Ok(server)
}

/// Whether every timed request of `workload` should hit the cache.
fn expects_hit(workload: Workload) -> bool {
    workload != Workload::SweepCold
}

/// Runs one benchmark run.
///
/// # Errors
///
/// A server that cannot start, or an in-process reference that fails.
pub fn run(args: &Args) -> Result<Report, String> {
    let plan = Plan::build(args.workload, args.seed, args.seconds, args.quick);
    let mut report = if args.trace {
        traced(&plan, args.quick)?
    } else {
        untraced(&plan, args.quick)?
    };
    let facts = Facts::collect();
    report.notes.push(format!(
        "host: nproc={} rustc=\"{}\" rev={} workload={} seed={} seconds={} trace={}",
        facts.nproc,
        facts.rustc,
        facts.git_rev,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    Ok(report)
}

/// Blocks of consecutive requests the drift diagnostic reports rates for.
const RATE_BLOCKS: usize = 5;

fn untraced(plan: &Plan, quick: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let alu_ms = host::alu_reference_ms();

    // Identical requests share one in-process reference, computed before
    // any server starts.
    let shared_reference = match (plan.workload, &plan.requests[0]) {
        (Workload::SweepHot | Workload::SweepTrace, Request::Sweep(s)) => {
            let rep = replay::sweep(s, &mut Cache::default(), &mut Spans::default(), 0)?;
            Some(rep.digest)
        }
        _ => None,
    };

    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..plan.workload.setup_repeats(quick) {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let t0 = Instant::now();
        server = Some(start(plan, &mut report)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");

    let steal0 = host::steal_seconds();
    let t_start = Instant::now();
    let mut exchanges: Vec<Exchange> = Vec::with_capacity(plan.requests.len());
    let mut ends = Vec::with_capacity(plan.requests.len());
    for req in &plan.requests {
        exchanges.push(client::send(server.addr(), req));
        ends.push(Instant::now());
    }
    let wall = t_start.elapsed();
    let steal = host::steal_seconds().zip(steal0).map(|(b, a)| b - a);
    let peak_rss = host::peak_rss_mb().unwrap_or(0.0);
    server.shutdown();

    // Checks: every response complete and well-formed, the cache behaving
    // as the workload claims, and results byte-equal to in-process runs.
    let mut failed = BTreeSet::new();
    let hit = expects_hit(plan.workload);
    for (i, ex) in exchanges.iter().enumerate() {
        let verdict = ex.outcome.as_ref().map_err(Clone::clone).and_then(|s| {
            if s.cache_hit != hit {
                return Err(format!("cache hit = {}, expected {hit}", s.cache_hit));
            }
            shared_reference.map_or(Ok(()), |r| s.digest.verify(&r))
        });
        if let Err(e) = verdict {
            report.notes.push(format!("request {i} failed: {e}"));
            failed.insert(i);
        }
    }
    if shared_reference.is_none() {
        let n = plan.requests.len();
        let sample: BTreeSet<usize> = match plan.workload {
            Workload::Explore => [0, n - 1].into(),
            _ => (0..n).step_by((n / 16).max(1)).collect(),
        };
        for i in sample {
            let reference = match &plan.requests[i] {
                Request::Sweep(s) => {
                    replay::sweep(s, &mut Cache::default(), &mut Spans::default(), i)?.digest
                }
                Request::Explore(e) => {
                    replay::exploration(e, &mut Cache::default(), &mut Spans::default(), i)?.digest
                }
            };
            if let Ok(s) = &exchanges[i].outcome {
                if let Err(e) = s.digest.verify(&reference) {
                    report.notes.push(format!("request {i} failed: {e}"));
                    failed.insert(i);
                }
            }
        }
    }
    report.attempted = exchanges.len();
    report.failed = failed.len();

    let latencies = millis(&exchanges.iter().map(|e| e.latency).collect::<Vec<_>>());
    let firsts = millis(
        &exchanges
            .iter()
            .filter_map(|e| e.first_result)
            .collect::<Vec<_>>(),
    );
    let total_scenarios: usize = plan.requests.iter().map(Request::scenarios).sum();
    // Per-block rates are a diagnostic of drift within the run.
    let per_block = plan.requests.len().div_ceil(RATE_BLOCKS);
    let mut block_rates = Vec::new();
    let mut block_start = t_start;
    for (b, reqs) in plan.requests.chunks(per_block).enumerate() {
        let end = ends[(b * per_block + reqs.len()) - 1];
        let scenarios: usize = reqs.iter().map(Request::scenarios).sum();
        block_rates.push(scenarios as f64 / end.duration_since(block_start).as_secs_f64());
        block_start = end;
    }

    report.metric(
        "scenarios_per_s",
        total_scenarios as f64 / wall.as_secs_f64(),
        "1/s",
    );
    report.metric("request_p50_ms", median(&latencies), "ms");
    report.metric("first_result_p50_ms", median(&firsts), "ms");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss, "MiB");

    report.notes.push(format!(
        "requests={} scenarios={} response_bytes={} wall_s={:.3} block_scenarios_per_s={:?}",
        exchanges.len(),
        total_scenarios,
        exchanges
            .iter()
            .filter_map(|e| e.outcome.as_ref().ok())
            .map(|s| s.bytes)
            .sum::<u64>(),
        wall.as_secs_f64(),
        block_rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "request_p90_ms={:.3} (n={}) failed_share={} setup_s samples={:?}",
        quantile(&latencies, 0.9),
        latencies.len(),
        report.failed as f64 / report.attempted.max(1) as f64,
        setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "noise: steal_s={} alu_reference_ms={alu_ms:.2}",
        steal.map_or("unavailable".to_string(), |s| format!("{s:.2}"))
    ));
    Ok(report)
}

/// Per-request layer times of the traced run, in milliseconds.
#[derive(Default)]
struct Layers {
    decode: Vec<f64>,
    parse: Vec<f64>,
    elaborate: Vec<f64>,
    prepare: Vec<f64>,
    run_batch: Vec<f64>,
    oracle: Vec<f64>,
    pool_self: Vec<f64>,
    http_self: Vec<f64>,
    http: Vec<f64>,
    runner: Vec<f64>,
    search_self: Vec<f64>,
    shrink: Vec<f64>,
    repros: Vec<f64>,
    unaccounted: Vec<f64>,
    hits: usize,
    scenarios: u64,
    bytes: u64,
    lane_ticks: u64,
    shards: usize,
    oracle_shards: usize,
    report_total: f64,
}

/// Request index of the warm-up replay, whose spans no metric uses.
const WARMUP_ID: usize = usize::MAX;

fn traced(plan: &Plan, quick: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let server = start(plan, &mut report)?;
    let pool = WorkerPool::new(1);
    let mut spans = Spans::default();
    let mut cache = Cache::default();
    // The service's cache now holds the warm-up model; so must the replay's.
    match &plan.warmup {
        Request::Sweep(s) => drop(replay::sweep(s, &mut cache, &mut spans, WARMUP_ID)?),
        Request::Explore(e) => drop(replay::exploration(e, &mut cache, &mut spans, WARMUP_ID)?),
    }

    let mut l = Layers::default();
    let traced = plan
        .workload
        .traced_requests(quick)
        .min(plan.requests.len());
    let mut failed = BTreeSet::new();
    for (r, req) in plan.requests.iter().take(traced).enumerate() {
        let result = match req {
            Request::Sweep(s) => {
                let rep = replay::sweep(s, &mut cache, &mut spans, r)?;
                let mut inproc = Digest::default();
                let t0 = Instant::now();
                let outcome = execute(
                    &rep.spec,
                    &rep.sim,
                    &pool,
                    ExecOpts::default(),
                    &mut |line| {
                        inproc.result(line.as_bytes());
                        Ok(())
                    },
                );
                spans.record("service.execute", None, r, t0, Instant::now());
                let outcome = outcome.map_err(|e| e.to_string()).and_then(|o| {
                    if o.failed || o.oracle_divergences > 0 {
                        Err(format!("in-process execute failed: {o:?}"))
                    } else {
                        inproc.verify(&rep.digest)
                    }
                });
                l.scenarios += rep.spec.count as u64;
                l.bytes += rep.bytes;
                l.lane_ticks += rep.lane_ticks;
                l.shards += rep.shards;
                l.oracle_shards += rep.oracle_shards;
                outcome.map(|()| rep.digest)
            }
            Request::Explore(e) => {
                let rep = replay::exploration(e, &mut cache, &mut spans, r)?;
                let key = ModelCache::key(&rep.spec.model, rep.spec.component.as_deref());
                let t0 = Instant::now();
                let mut check = Checker::new(Expect::of(req), t0);
                let outcome =
                    execute_explore(&rep.spec, &rep.sim, key, rep.hit, &pool, t0, &mut |line| {
                        check.line(line.as_bytes());
                        Ok(())
                    });
                spans.record("service.execute", None, r, t0, Instant::now());
                outcome
                    .map_err(|e| e.to_string())
                    .and_then(|_| check.finish(200, true))
                    .and_then(|s| s.digest.verify(&rep.digest))
                    .map(|()| rep.digest)
            }
        };
        let sent = Instant::now();
        let ex = client::send(server.addr(), req);
        spans.record("service.http", None, r, sent, sent + ex.latency);
        let verdict = result.and_then(|reference| {
            let s = ex.outcome?;
            l.hits += usize::from(s.cache_hit);
            if s.cache_hit != expects_hit(plan.workload) {
                return Err(format!("cache hit = {}", s.cache_hit));
            }
            s.digest.verify(&reference)
        });
        if let Err(e) = verdict {
            report.notes.push(format!("traced request {r} failed: {e}"));
            failed.insert(r);
        }

        let ms = |name| spans_ms(&spans, r, name);
        let (decode, parse, elaborate, prepare) = (
            ms("service.json.decode"),
            ms("core.text.parse"),
            ms("sim.elaborate"),
            ms("kernel.prepare"),
        );
        let (execute_ms, http) = (ms("service.execute"), ms("service.http"));
        let compile = parse + elaborate + prepare;
        l.decode.push(decode);
        l.parse.push(parse);
        l.elaborate.push(elaborate);
        l.prepare.push(prepare);
        l.http.push(http);
        l.http_self.push(http - decode - compile - execute_ms);
        l.report_total += ms("sim.report");
        let leaves = match req {
            Request::Sweep(_) => {
                let (run_batch, oracle) = (ms("kernel.run_batch"), ms("service.oracle"));
                let shard_work = run_batch + oracle + ms("sim.report") + ms("sim.stimulus");
                l.run_batch.push(run_batch);
                l.oracle.push(oracle);
                l.pool_self.push(execute_ms - shard_work);
                decode + compile + shard_work
            }
            Request::Explore(_) => {
                let (runner, search, shrink) = (
                    ms("explore.runner"),
                    ms("explore.search"),
                    ms("explore.shrink"),
                );
                l.runner.push(runner);
                l.search_self.push(search - runner);
                l.shrink.push(shrink);
                l.pool_self.push(execute_ms - parse - search - shrink);
                l.repros.push(spans.count(r, "explore.shrink") as f64);
                decode + compile + search + shrink
            }
        };
        l.unaccounted.push((http - leaves) / http);
    }
    server.shutdown();
    pool.shutdown();
    report.attempted = traced;
    report.failed = failed.len();

    let us = 1e3;
    let n = traced.max(1) as f64;
    let scenarios = l.scenarios.max(1) as f64;
    report.metric("service.json.decode_us", median(&l.decode) * us, "us");
    report.metric("core.text.parse_us", median(&l.parse) * us, "us");
    report.metric("sim.elaborate_us", median(&l.elaborate) * us, "us");
    report.metric("kernel.prepare_us", median(&l.prepare) * us, "us");
    report.metric("service.cache.hit_ratio", l.hits as f64 / n, "count");
    report.metric("kernel.run_batch_ms", median(&l.run_batch), "ms");
    let run_batch_s = l.run_batch.iter().sum::<f64>() / 1e3;
    report.metric(
        "kernel.lane_ticks_per_s",
        if run_batch_s > 0.0 {
            l.lane_ticks as f64 / run_batch_s
        } else {
            0.0
        },
        "1/s",
    );
    report.metric("service.oracle_ms", median(&l.oracle), "ms");
    report.metric(
        "service.oracle_share",
        l.oracle_shards as f64 / l.shards.max(1) as f64,
        "count",
    );
    report.metric(
        "sim.report.us_per_scenario",
        l.report_total * us / scenarios,
        "us",
    );
    report.metric(
        "sim.report.bytes_per_scenario",
        l.bytes as f64 / scenarios,
        "bytes",
    );
    report.metric("service.pool.self_ms", median(&l.pool_self), "ms");
    report.metric("service.http.self_ms", median(&l.http_self), "ms");
    report.metric("explore.runner_ms", median(&l.runner), "ms");
    report.metric("explore.search.self_ms", median(&l.search_self), "ms");
    report.metric("explore.shrink_ms", median(&l.shrink), "ms");
    report.metric("explore.repros", median(&l.repros), "count");
    report.metric("trace.unaccounted_share", median(&l.unaccounted), "share");
    report.metric("trace.request_p50_ms", median(&l.http), "ms");

    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans-{}.ndjson", plan.workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_ndjson())) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
    Ok(report)
}

fn spans_ms(spans: &Spans, request: usize, name: &str) -> f64 {
    spans.total(request, name).as_secs_f64() * 1e3
}
