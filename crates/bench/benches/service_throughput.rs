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
//! Each side runs in its own fresh server per timed round (started
//! untimed). Per-request wall latency is recorded client-side in a
//! `core::metrics::LatencyHistogram` per side; p50/p99/max over every
//! request (the warm-up round's included) land in the report.
//!
//! Writes `BENCH_service.json` at the repository root
//! (under `target/bench-quick/` in quick mode).
//!
//! Env knobs: `AUTOMODE_BENCH_QUICK=1` shrinks the workload for CI;
//! `AUTOMODE_BENCH_ENFORCE=1` exits nonzero unless cached throughput is
//! >= 3x uncached at K = 32.

use std::net::SocketAddr;
use std::time::Instant;

use automode_bench::{random_causal_dfd, time_arms, Arm, Results};
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

/// Posts every body in order, asserting each stream arrives complete
/// with one line per scenario, and records each request's wall latency.
fn drive(addr: SocketAddr, bodies: &[String], count: usize, hist: &LatencyHistogram) {
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
    }
}

/// A histogram's p50/p99/max as a JSON object.
fn latency_json(w: &mut JsonWriter, hist: &LatencyHistogram) {
    w.begin_object();
    w.field("p50").uint(hist.quantile(0.5));
    w.field("p99").uint(hist.quantile(0.99));
    w.field("max").uint(hist.quantile(1.0));
    w.end_object();
}

fn main() {
    let quick = automode_bench::quick_mode();
    // `count = 16 * K` gives the cached side exactly 16 shards per
    // sweep, so the 1/16 differential oracle samples one shard per
    // request — its steady-state production rate — instead of rounding
    // up to a larger fraction.
    let (nodes, requests, count, ticks) = if quick {
        (48, 2, 16 * K, 20)
    } else {
        (64, 4, 16 * K, 40)
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

    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let (uncached_hist, cached_hist) = (LatencyHistogram::new(), LatencyHistogram::new());
    let work = (requests * count) as f64;
    let timings = time_arms(vec![
        // Uncached single-threaded baseline: one simulation worker, and
        // each round's fresh server misses on every distinct model above.
        Arm::new(
            "uncached",
            work,
            || {
                serve(ServerConfig {
                    workers: 1,
                    conn_threads: 1,
                    ..ServerConfig::default()
                })
                .expect("bind uncached server")
            },
            |server| drive(server.addr(), &uncached_bodies, count, &uncached_hist),
        ),
        // Cached sharded path: full worker pool, one warm-up request to
        // populate the cache, then every timed request is a hit.
        Arm::new(
            "cached",
            work,
            || {
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
                server
            },
            |server| drive(server.addr(), &cached_bodies, count, &cached_hist),
        ),
    ]);

    let mut results = Results::new("service_throughput", "scenarios_per_second");
    results.scenario(format!("K={K}"), timings);
    let speedup = results.ratio("cached", "uncached");
    results.gate_at_least(format!("cached/uncached at K={K}"), speedup, 3.0);

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field("k_lanes").uint(K as u64);
    w.field("model_nodes").uint(nodes as u64);
    w.field("scenarios_per_request").uint(count as u64);
    w.field("ticks_per_scenario").uint(ticks as u64);
    w.field("requests_per_round").uint(requests as u64);
    w.field("sim_workers_cached").uint(workers as u64);
    w.field("latency_us").begin_object();
    w.field("uncached");
    latency_json(&mut w, &uncached_hist);
    w.field("cached");
    latency_json(&mut w, &cached_hist);
    w.end_object();
    w.end_object();
    results.data(w.finish());
    automode_bench::write_results("BENCH_service.json", results);
}
