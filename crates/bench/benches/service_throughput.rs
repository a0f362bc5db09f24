//! End-to-end sweep-service throughput: scenarios/second over real
//! loopback HTTP, comparing the two extremes of the service's hot path:
//!
//! * `uncached` — the naive single-threaded baseline: every request
//!   submits a *distinct* `.amdl` model (a fresh random causal DFD per
//!   request), so each sweep pays the full elaborate + causality +
//!   prepare pipeline before its first tick, then runs scenarios one
//!   lane at a time (`lanes = 1`) on a single simulation worker;
//! * `cached` — the service hot path: every request submits the *same*
//!   model text, so after one warm-up miss each sweep is a
//!   sharded-cache hit sharing one `CompiledSim`, with K = 32-lane
//!   batch shards fanned across the worker pool.
//!
//! Both sides sweep the same scenario count and tick horizon through
//! the same chunked-ndjson streaming path (including the sampled
//! differential oracle at its production 1/16 rate), so the measured
//! gap is exactly what the compiled-model cache plus K-lane sharding
//! buy over recompile-and-loop.
//!
//! Per-request wall latency is recorded client-side in a
//! `core::metrics::LatencyHistogram`; p50/p99/max land in the report.
//!
//! Writes `BENCH_service.json` at the repository root
//! (under `target/bench-quick/` in quick mode).
//!
//! Env knobs: `AUTOMODE_BENCH_QUICK=1` shrinks the workload for CI;
//! `AUTOMODE_BENCH_ENFORCE=1` exits nonzero unless cached throughput is
//! >= 3x uncached at K = 32.

use std::net::SocketAddr;
use std::time::Instant;

use automode_bench::random_causal_dfd;
use automode_core::json::JsonWriter;
use automode_core::metrics::LatencyHistogram;
use automode_core::text::to_text;
use automode_service::{post_sweep, serve, ServerConfig};

/// Lanes per batch shard — the gate is defined at K = 32.
const K: usize = 32;

/// One sweep-request body: the (escaped) model text plus a flat spec
/// sweeping `count` ramp scenarios of `ticks` ticks at `lanes` lanes
/// per batch shard.
fn sweep_body(model_text: &str, count: usize, ticks: usize, lanes: usize) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field("model").string(model_text);
    w.end_object();
    let base = w.finish();
    format!(
        r#"{},"count":{count},"ticks":{ticks},"lanes":{lanes},"inputs":[{{"port":"in","kind":"ramp","from":0.0,"to":3.0,"to_step":0.1}}]}}"#,
        &base[..base.len() - 1]
    )
}

struct Measured {
    requests: usize,
    scenarios: u64,
    secs: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

impl Measured {
    fn scenarios_per_second(&self) -> f64 {
        self.scenarios as f64 / self.secs
    }
}

/// Posts every body in order, asserting each stream arrives complete
/// with one line per scenario, and returns wall throughput + latency
/// quantiles.
fn drive(addr: SocketAddr, bodies: &[String], count: usize) -> Measured {
    let hist = LatencyHistogram::new();
    let mut scenarios = 0u64;
    let start = Instant::now();
    for body in bodies {
        let t0 = Instant::now();
        let resp = post_sweep(addr, body).expect("sweep request");
        hist.record(t0.elapsed().as_micros() as u64);
        assert_eq!(resp.status, 200, "sweep rejected: {:?}", resp.lines.first());
        assert!(resp.complete, "truncated stream");
        // Header line + one line per scenario + done line.
        assert_eq!(resp.lines.len(), count + 2, "short stream");
        let done = resp.lines.last().unwrap();
        assert!(done.contains(r#""status":"ok""#), "sweep failed: {done}");
        scenarios += count as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    Measured {
        requests: bodies.len(),
        scenarios,
        secs,
        p50_us: hist.quantile(0.5),
        p99_us: hist.quantile(0.99),
        max_us: hist.quantile(1.0),
    }
}

fn report(side: &str, m: &Measured) {
    println!(
        "service_throughput/{side:<9} {:>8.1} scen/s   ({} requests, {} scenarios, {:.3}s)   p50: {}us   p99: {}us   max: {}us",
        m.scenarios_per_second(),
        m.requests,
        m.scenarios,
        m.secs,
        m.p50_us,
        m.p99_us,
        m.max_us
    );
}

fn main() {
    let quick = automode_bench::quick_mode();
    // `count = 16 * K` gives the cached side exactly 16 shards per
    // sweep, so the 1/16 differential oracle samples one shard per
    // request — its steady-state production rate — instead of rounding
    // up to a larger fraction.
    let (nodes, requests, count, ticks) = if quick {
        (48, 6, 16 * K, 20)
    } else {
        (64, 16, 16 * K, 40)
    };

    // Distinct model per request, one lane per shard — every submission
    // is a cache miss that recompiles from scratch, then loops
    // scenarios sequentially.
    let uncached_bodies: Vec<String> = (0..requests)
        .map(|i| {
            let (m, _) = random_causal_dfd(nodes, 1000 + i as u64);
            sweep_body(&to_text(&m), count, ticks, 1)
        })
        .collect();
    // One model for every request — after the warm-up miss, all hits.
    let (m, _) = random_causal_dfd(nodes, 7);
    let cached_body = sweep_body(&to_text(&m), count, ticks, K);
    let cached_bodies: Vec<String> = (0..requests).map(|_| cached_body.clone()).collect();

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Uncached single-threaded baseline: one simulation worker, and the
    // per-request distinct models above guarantee a miss every time.
    let uncached = {
        let server = serve(ServerConfig {
            workers: 1,
            conn_threads: 1,
            ..ServerConfig::default()
        })
        .expect("bind uncached server");
        let m = drive(server.addr(), &uncached_bodies, count);
        server.shutdown();
        m
    };
    report("uncached", &uncached);

    // Cached sharded path: full worker pool, one warm-up request to
    // populate the cache, then every timed request is a hit.
    let cached = {
        let server = serve(ServerConfig {
            workers,
            conn_threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind cached server");
        let warm = post_sweep(server.addr(), &cached_body).expect("warm-up sweep");
        assert_eq!(warm.status, 200);
        assert!(
            warm.lines[0].contains(r#""cache":"miss""#),
            "warm-up was not a miss"
        );
        let m = drive(server.addr(), &cached_bodies, count);
        server.shutdown();
        m
    };
    report("cached", &cached);

    let speedup = cached.scenarios_per_second() / uncached.scenarios_per_second();
    println!("service_throughput/speedup  cached vs uncached at K={K}: {speedup:.2}x");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"service_throughput\",\n",
            "  \"unit\": \"scenarios_per_second\",\n",
            "  \"k_lanes\": {k},\n",
            "  \"model_nodes\": {nodes},\n",
            "  \"scenarios_per_request\": {count},\n",
            "  \"ticks_per_scenario\": {ticks},\n",
            "  \"requests_per_side\": {requests},\n",
            "  \"sim_workers_cached\": {workers},\n",
            "  \"quick\": {quick},\n",
            "  \"uncached_single_threaded\": {{ \"lanes\": 1, \"workers\": 1, \"scenarios_per_second\": {u_tp:.1}, \"latency_us\": {{ \"p50\": {u50}, \"p99\": {u99}, \"max\": {umax} }} }},\n",
            "  \"cached_sharded\": {{ \"lanes\": {k}, \"workers\": {workers}, \"scenarios_per_second\": {c_tp:.1}, \"latency_us\": {{ \"p50\": {c50}, \"p99\": {c99}, \"max\": {cmax} }} }},\n",
            "  \"speedup_cached_vs_uncached\": {speedup:.2}\n",
            "}}\n"
        ),
        k = K,
        nodes = nodes,
        count = count,
        ticks = ticks,
        requests = requests,
        workers = workers,
        quick = quick,
        u_tp = uncached.scenarios_per_second(),
        u50 = uncached.p50_us,
        u99 = uncached.p99_us,
        umax = uncached.max_us,
        c_tp = cached.scenarios_per_second(),
        c50 = cached.p50_us,
        c99 = cached.p99_us,
        cmax = cached.max_us,
        speedup = speedup,
    );
    automode_bench::write_results("BENCH_service.json", &json);

    if std::env::var("AUTOMODE_BENCH_ENFORCE").is_ok_and(|v| v == "1") {
        if speedup < 3.0 {
            eprintln!("FAIL: cached sharded vs uncached single-threaded at K={K} is {speedup:.2}x (< 3x gate)");
            std::process::exit(1);
        }
        println!("gate: cached sharded >= 3x uncached single-threaded at K={K}");
    }
}
