//! Loopback integration tests: a real server on an ephemeral port, real
//! sockets, real catalog models.
//!
//! The core guarantee under test: scenario lines streamed over HTTP are
//! **byte-identical** to encoding a direct [`CompiledSim`] run with the
//! same functions — the service adds caching, sharding, and transport,
//! never different results.

use std::sync::Arc;

use automode_core::json::{parse, JsonWriter};
use automode_core::model::Model;
use automode_core::text::{from_text, to_text};
use automode_kernel::{Stream, Value};
use automode_service::sweep::scenario_line;
use automode_service::{get, post_explore, post_sweep, serve, ServerConfig};
use automode_sim::{stimulus, CompiledSim};

const TICKS: usize = 30;
const COUNT: usize = 10;

/// A catalog model: its `.amdl` text, the spec's `inputs` JSON fragment,
/// and a builder producing the *identical* streams for scenario `i` that
/// the service derives from that fragment.
struct Fixture {
    name: &'static str,
    text: String,
    inputs_json: &'static str,
    streams: fn(usize) -> Vec<(&'static str, Stream)>,
}

fn fixtures() -> Vec<Fixture> {
    let momentum = {
        let mut m = Model::new("momentum");
        let id = automode_engine::momentum::build_momentum_controller(
            &mut m,
            automode_engine::momentum::MomentumGains::default(),
        )
        .unwrap();
        m.set_root(id);
        m
    };
    let engine_modes = {
        let mut m = Model::new("engine_modes");
        let id = automode_engine::build_engine_modes(&mut m).unwrap();
        m.set_root(id);
        m
    };
    let engine = automode_engine::reengineer_engine().unwrap().model;
    vec![
        Fixture {
            name: "momentum",
            text: to_text(&momentum),
            inputs_json: r#"[
                {"port": "v_des", "kind": "constant", "value": 20.0, "value_step": 0.5},
                {"port": "v_act", "kind": "ramp", "from": 0.0, "to": 20.0, "to_step": 0.25}]"#,
            streams: |i| {
                vec![
                    (
                        "v_des",
                        stimulus::constant(Value::Float(20.0 + 0.5 * i as f64), TICKS),
                    ),
                    ("v_act", stimulus::ramp(0.0, 20.0 + 0.25 * i as f64, TICKS)),
                ]
            },
        },
        Fixture {
            name: "engine_modes",
            text: to_text(&engine_modes),
            inputs_json: r#"[
                {"port": "key_on", "kind": "constant", "value": true},
                {"port": "rpm", "kind": "ramp", "from": 0.0, "to": 4000.0, "to_step": 100.0},
                {"port": "throttle", "kind": "ramp", "from": 0.0, "to": 1.0}]"#,
            streams: |i| {
                vec![
                    ("key_on", stimulus::constant(Value::Bool(true), TICKS)),
                    ("rpm", stimulus::ramp(0.0, 4000.0 + 100.0 * i as f64, TICKS)),
                    ("throttle", stimulus::ramp(0.0, 1.0, TICKS)),
                ]
            },
        },
        Fixture {
            name: "engine",
            text: to_text(&engine),
            inputs_json: r#"[
                {"port": "key_on", "kind": "constant", "value": true},
                {"port": "rpm", "kind": "ramp", "from": 0.0, "to": 4000.0, "to_step": 50.0},
                {"port": "throttle", "kind": "ramp", "from": 0.0, "to": 1.0},
                {"port": "o2", "kind": "constant", "value": 0.5, "value_step": 0.01}]"#,
            streams: |i| {
                vec![
                    ("key_on", stimulus::constant(Value::Bool(true), TICKS)),
                    ("rpm", stimulus::ramp(0.0, 4000.0 + 50.0 * i as f64, TICKS)),
                    ("throttle", stimulus::ramp(0.0, 1.0, TICKS)),
                    (
                        "o2",
                        stimulus::constant(Value::Float(0.5 + 0.01 * i as f64), TICKS),
                    ),
                ]
            },
        },
    ]
}

/// Builds a sweep request body: the model text (JSON-escaped by the
/// writer) spliced with a raw fragment of extra fields.
fn sweep_body(model_text: &str, extra: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field("model").string(model_text);
    w.end_object();
    let base = w.finish();
    format!("{},{}}}", &base[..base.len() - 1], extra)
}

fn small_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        conn_threads: 2,
        oracle_every: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn streamed_results_are_byte_equal_to_direct_runs() {
    let server = serve(small_config()).unwrap();
    let addr = server.addr();
    for fx in fixtures() {
        let body = sweep_body(
            &fx.text,
            &format!(
                r#""count": {COUNT}, "ticks": {TICKS}, "lanes": 4, "inputs": {}"#,
                fx.inputs_json
            ),
        );
        let resp = post_sweep(addr, &body).unwrap();
        assert_eq!(resp.status, 200, "{}: {:?}", fx.name, resp.lines.first());
        assert!(resp.complete, "{}: truncated stream", fx.name);
        assert_eq!(resp.lines.len(), COUNT + 2, "{}", fx.name);

        let header = parse(&resp.lines[0]).unwrap();
        let sweep = header.get("sweep").expect("header line");
        assert_eq!(sweep.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(sweep.get("scenarios").unwrap().as_u64(), Some(COUNT as u64));
        assert_eq!(sweep.get("shards").unwrap().as_u64(), Some(3));

        // Byte-for-byte: each streamed line equals the direct compiled
        // run encoded with the same function.
        let model = from_text(&fx.text).unwrap();
        let mut direct = CompiledSim::new_root(&model).unwrap();
        for i in 0..COUNT {
            let run = direct.run(&(fx.streams)(i), TICKS).unwrap();
            assert_eq!(
                resp.lines[1 + i],
                scenario_line(i, &run, false, None, None),
                "{} scenario {i}",
                fx.name
            );
        }

        let done = parse(resp.lines.last().unwrap()).unwrap();
        let done = done.get("done").expect("done line");
        assert_eq!(done.get("status").unwrap().as_str(), Some("ok"));
        // oracle_every = 2 over 3 shards → shards 0 and 2 were re-run
        // scalar; zero divergence between the lane path and the oracle.
        assert_eq!(done.get("oracle_shards").unwrap().as_u64(), Some(2));
        assert_eq!(done.get("oracle_divergences").unwrap().as_u64(), Some(0));

        // The repeat submission must hit the compiled-model cache.
        let again = post_sweep(addr, &body).unwrap();
        let header = parse(&again.lines[0]).unwrap();
        assert_eq!(
            header.get("sweep").unwrap().get("cache").unwrap().as_str(),
            Some("hit"),
            "{}",
            fx.name
        );
        // (The done line differs in `elapsed_us`; scenario lines must not.)
        assert_eq!(again.lines[1..=COUNT], resp.lines[1..=COUNT]);
    }

    let (code, stats) = get(addr, "/stats").unwrap();
    assert_eq!(code, 200);
    let stats = parse(&stats).unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(3));
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(3));
    assert_eq!(cache.get("entries").unwrap().as_u64(), Some(3));
    let sweeps = stats.get("sweeps").unwrap();
    assert_eq!(sweeps.get("total").unwrap().as_u64(), Some(6));
    assert_eq!(sweeps.get("failed").unwrap().as_u64(), Some(0));
    assert_eq!(
        sweeps.get("scenarios").unwrap().as_u64(),
        Some(6 * COUNT as u64)
    );
    let lat = stats.get("latency_us").unwrap();
    assert_eq!(lat.get("count").unwrap().as_u64(), Some(6));
    assert!(lat.get("p99").unwrap().as_u64().unwrap() >= lat.get("p50").unwrap().as_u64().unwrap());
    server.shutdown();
}

#[test]
fn cache_eviction_is_observable() {
    let server = serve(ServerConfig {
        cache_shards: 1,
        cache_capacity: 2,
        oracle_every: 0,
        ..small_config()
    })
    .unwrap();
    let addr = server.addr();
    for gain in [2.0, 3.0, 4.0] {
        let text = format!(
            "model t\n\ncomponent Gain {{\n  in u: float\n  out y: float\n  expr y = (u * {gain:?})\n}}\n\nroot Gain\n"
        );
        let body = sweep_body(
            &text,
            r#""count": 2, "ticks": 4, "lanes": 2, "inputs": [{"port": "u", "kind": "constant", "value": 1.0}]"#,
        );
        assert_eq!(post_sweep(addr, &body).unwrap().status, 200);
    }
    let (_, stats) = get(addr, "/stats").unwrap();
    let stats = parse(&stats).unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(3));
    assert_eq!(cache.get("evictions").unwrap().as_u64(), Some(1));
    assert_eq!(cache.get("entries").unwrap().as_u64(), Some(2));
    server.shutdown();
}

#[test]
fn malformed_and_oversized_requests_are_rejected() {
    let server = serve(ServerConfig {
        max_body: 4096,
        ..small_config()
    })
    .unwrap();
    let addr = server.addr();

    // Not JSON at all.
    let resp = post_sweep(addr, "this is not json").unwrap();
    assert_eq!(resp.status, 400);
    // JSON but no model field.
    let resp = post_sweep(addr, r#"{"count": 4}"#).unwrap();
    assert_eq!(resp.status, 400);
    // A model that does not parse.
    let resp = post_sweep(addr, r#"{"model": "component without a header"}"#).unwrap();
    assert_eq!(resp.status, 400);
    // Bad limits.
    let resp = post_sweep(addr, r#"{"model": "model t\nroot X\n", "count": 0}"#).unwrap();
    assert_eq!(resp.status, 400);
    // An ill-typed count is rejected, not defaulted.
    let resp = post_sweep(addr, r#"{"model": "model t\nroot X\n", "count": 1.5}"#).unwrap();
    assert_eq!(resp.status, 400);
    // Unknown component selector.
    let body = sweep_body(
        "model t\n\ncomponent G {\n  in u: float\n  out y: float\n  expr y = (u * 1.0)\n}\n\nroot G\n",
        r#""component": "Ghost""#,
    );
    assert_eq!(post_sweep(addr, &body).unwrap().status, 400);
    // An oversized model body → 413 before any parsing.
    let big = sweep_body(&"x".repeat(8192), r#""count": 1"#);
    let resp = post_sweep(addr, &big).unwrap();
    assert_eq!(resp.status, 413);
    // Unknown route and liveness.
    assert_eq!(get(addr, "/nope").unwrap().0, 404);
    let (code, body) = get(addr, "/healthz").unwrap();
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn over_budget_sweep_is_rejected_up_front_and_the_next_one_runs() {
    let server = serve(small_config()).unwrap();
    let addr = server.addr();
    let text = "model t\n\ncomponent G {\n  in u: float\n  out y: float\n  expr y = (u * 2.0)\n}\n\nroot G\n";
    // Each field is within its own limit; their product is not.
    let resp = post_sweep(addr, &sweep_body(text, r#""count": 65536, "ticks": 1000"#)).unwrap();
    assert_eq!(resp.status, 413, "{:?}", resp.lines);
    let stats = |key: &str, field: &str| {
        let (_, body) = get(addr, "/stats").unwrap();
        let v = parse(&body).unwrap();
        v.get(key).unwrap().get(field).unwrap().as_u64().unwrap()
    };
    // Nothing was compiled or run for it.
    assert_eq!(stats("cache", "misses"), 0);
    assert_eq!(stats("pool", "executed"), 0);
    assert_eq!(stats("sweeps", "total"), 0);

    let body = sweep_body(
        text,
        r#""count": 6, "ticks": 4, "lanes": 2, "inputs": [{"port": "u", "kind": "constant", "value": 1.0}]"#,
    );
    let resp = post_sweep(addr, &body).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.lines.len(), 6 + 2);
    let done = parse(resp.lines.last().unwrap()).unwrap();
    let done = done.get("done").expect("done line");
    assert_eq!(done.get("status").unwrap().as_str(), Some("ok"));
    // A shard job sends its lines before its worker counts it, so the
    // count may trail the finished stream briefly: wait for it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while stats("pool", "executed") < 3 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(stats("pool", "executed"), 3);
    server.shutdown();
}

#[test]
fn over_budget_explore_is_rejected_up_front_and_the_next_one_runs() {
    let server = serve(small_config()).unwrap();
    let addr = server.addr();
    let engine_text = to_text(&automode_engine::reengineer_engine().unwrap().model);
    // Each field is within its own limit; their product is not.
    let huge = sweep_body(
        &engine_text,
        r#""generations": 256, "population": 1024, "ticks": 10000"#,
    );
    let resp = post_explore(addr, &huge).unwrap();
    assert_eq!(resp.status, 413, "{:?}", resp.lines);
    let stats = |key: &str, field: &str| {
        let (_, body) = get(addr, "/stats").unwrap();
        let v = parse(&body).unwrap();
        v.get(key).unwrap().get(field).unwrap().as_u64().unwrap()
    };
    // Nothing was compiled or run for it.
    assert_eq!(stats("cache", "misses"), 0);
    assert_eq!(stats("pool", "executed"), 0);
    assert_eq!(stats("explores", "total"), 0);

    let body = sweep_body(
        &engine_text,
        r#""generations": 2, "population": 4, "ticks": 8, "lanes": 2, "max_repros": 0"#,
    );
    let resp = post_explore(addr, &body).unwrap();
    assert_eq!(resp.status, 200, "{:?}", resp.lines.first());
    assert!(resp.complete, "truncated explore stream");
    let done = parse(resp.lines.last().unwrap()).unwrap();
    let done = done.get("done").expect("done line");
    assert_eq!(done.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(done.get("scenarios").unwrap().as_u64(), Some(8));
    assert_eq!(stats("explores", "total"), 1);
    server.shutdown();
}

#[test]
fn explore_streams_generations_repros_and_done() {
    let server = serve(small_config()).unwrap();
    let addr = server.addr();
    let engine_text = to_text(&automode_engine::reengineer_engine().unwrap().model);
    let body = sweep_body(
        &engine_text,
        r#""generations": 4, "population": 6, "ticks": 8, "seed": 0, "lanes": 2,
           "max_repros": 4,
           "ranges": [{"port": "rpm", "lo": 0, "hi": 7000},
                      {"port": "throttle", "lo": 0, "hi": 1},
                      {"port": "o2", "lo": 0, "hi": 2}]"#,
    );
    let resp = post_explore(addr, &body).unwrap();
    assert_eq!(resp.status, 200, "{:?}", resp.lines.first());
    assert!(resp.complete, "truncated explore stream");

    // Header line: totals for the engine's coverage space, cache miss.
    let header = parse(&resp.lines[0]).unwrap();
    let ex = header.get("explore").expect("header line");
    assert_eq!(ex.get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(ex.get("generations").unwrap().as_u64(), Some(4));
    let total_t = ex.get("total_transitions").unwrap().as_u64().unwrap();
    assert!(total_t > 0, "engine model declares transitions");

    // One line per generation, cumulative coverage monotone.
    let gens: Vec<_> = resp
        .lines
        .iter()
        .filter_map(|l| parse(l).ok())
        .filter(|j| j.get("generation").is_some())
        .collect();
    assert_eq!(gens.len(), 4);
    let mut prev = (0, 0);
    for (i, g) in gens.iter().enumerate() {
        let g = g.get("generation").unwrap();
        assert_eq!(g.get("index").unwrap().as_u64(), Some(i as u64));
        let s = g.get("states_covered").unwrap().as_u64().unwrap();
        let t = g.get("transitions_covered").unwrap().as_u64().unwrap();
        assert!(s >= prev.0 && t >= prev.1, "coverage regressed");
        prev = (s, t);
    }
    assert!(prev.1 > 0, "exploration covered no transitions");

    // Every repro line carries a replayable scenario document.
    for line in &resp.lines {
        let Ok(j) = parse(line) else { continue };
        let Some(r) = j.get("repro") else { continue };
        assert!(r.get("shrunk").unwrap().as_bool().unwrap());
        assert!(r.get("deterministic").unwrap().as_bool().unwrap());
        let scenario_json = r.get("scenario").unwrap().as_str().unwrap();
        let sc = automode_explore::Scenario::from_json(scenario_json).expect("replayable repro");
        assert_eq!(sc.ticks as u64, r.get("ticks").unwrap().as_u64().unwrap());
    }

    // Done line accounts for the full budget.
    let done = parse(resp.lines.last().unwrap()).unwrap();
    let done = done.get("done").expect("done line");
    assert_eq!(done.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(done.get("scenarios").unwrap().as_u64(), Some(24));

    // Same model resubmitted → compiled-model cache hit, and the explore
    // stream is deterministic line-for-line (elapsed_us differs).
    let again = post_explore(addr, &body).unwrap();
    let header = parse(&again.lines[0]).unwrap();
    assert_eq!(
        header
            .get("explore")
            .unwrap()
            .get("cache")
            .unwrap()
            .as_str(),
        Some("hit")
    );
    let n = resp.lines.len();
    assert_eq!(again.lines[1..n - 1], resp.lines[1..n - 1]);

    // Bad budgets are rejected before streaming starts.
    let bad = sweep_body(&engine_text, r#""generations": 0"#);
    assert_eq!(post_explore(addr, &bad).unwrap().status, 400);
    let huge = sweep_body(&engine_text, r#""population": 999999"#);
    assert_eq!(post_explore(addr, &huge).unwrap().status, 413);

    let (_, stats) = get(addr, "/stats").unwrap();
    let stats = parse(&stats).unwrap();
    let explores = stats.get("explores").unwrap();
    assert_eq!(explores.get("total").unwrap().as_u64(), Some(2));
    assert_eq!(explores.get("failed").unwrap().as_u64(), Some(0));
    server.shutdown();
}

/// Sends a large traced sweep from a hand-rolled client that reads (in
/// small pieces) until `marker` appears in the response and then drops
/// the socket, follows it
/// with a well-behaved sweep of the same spec, and waits until `/stats`
/// accounts for both. Returns the final `sweeps.failed` and
/// `pool.executed` counters and the shard count of one complete sweep.
/// With `oracle_every` > 0 the writer is re-running sampled lanes when
/// the client leaves.
fn disconnect_then_sweep(marker: &str, oracle_every: usize) -> (u64, u64, u64) {
    use std::io::{Read, Write};

    let server = serve(ServerConfig {
        workers: 2,
        conn_threads: 2,
        oracle_every,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let fx = &fixtures()[0];
    let count = 400usize;
    let lanes = 4usize;
    // trace + long runs → a response far larger than any socket buffer,
    // so the server's writes are guaranteed to hit the dead connection.
    let body = sweep_body(
        &fx.text,
        &format!(
            r#""count": {count}, "ticks": 200, "trace": true, "lanes": {lanes}, "inputs": {}"#,
            fx.inputs_json
        ),
    );

    {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        let req = format!(
            "POST /sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).unwrap();
        let mut start = Vec::new();
        let mut chunk = [0u8; 128];
        while !String::from_utf8_lossy(&start).contains(marker) {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "stream ended before {marker:?}");
            start.extend_from_slice(&chunk[..n]);
        }
        assert!(start.starts_with(b"HTTP/1.1 200"));
        // Dropping here closes with unread data in flight → RST; the
        // server's next write fails and its abort path runs.
    }

    // Immediately afterwards a well-behaved sweep of the same spec must
    // stream to completion — the pool and per-connection reorder buffer
    // recovered.
    let resp = post_sweep(addr, &body).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.complete, "stream truncated after a peer disconnect");
    assert_eq!(resp.lines.len(), count + 2);
    let done = parse(resp.lines.last().unwrap()).unwrap();
    assert_eq!(
        done.get("done").unwrap().get("status").unwrap().as_str(),
        Some("ok")
    );

    // The aborted connection's handler may still be draining its shards
    // in the background; poll until both sweeps are accounted for.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let (_, stats) = get(addr, "/stats").unwrap();
        let stats = parse(&stats).unwrap();
        let sweeps = stats.get("sweeps").unwrap();
        if sweeps.get("total").unwrap().as_u64() == Some(2) {
            let failed = sweeps.get("failed").unwrap().as_u64().unwrap();
            let executed = stats
                .get("pool")
                .unwrap()
                .get("executed")
                .unwrap()
                .as_u64()
                .unwrap();
            server.shutdown();
            return (failed, executed, (count as u64).div_ceil(lanes as u64));
        }
        assert!(
            std::time::Instant::now() < deadline,
            "aborted sweep never accounted for"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// A client that vanishes mid-stream must not poison the service: the
/// reorder buffer drains, no pool shard leaks, and the next sweep on the
/// same server completes in full.
#[test]
fn client_disconnect_mid_stream_recovers() {
    for oracle_every in [0, 2] {
        // Waiting for the first scenario line means shards are already
        // streaming when the client leaves.
        let (failed, executed, shards) = disconnect_then_sweep("{\"scenario\"", oracle_every);
        // Exactly the aborted sweep is failed. The abort path stops
        // *submitting* new shards but drains the in-flight window, so the
        // pool executed the complete sweep's shards plus a few from the
        // aborted one — and nothing is left queued.
        assert_eq!(failed, 1, "oracle_every {oracle_every}");
        assert!(
            executed > shards,
            "oracle_every {oracle_every}: pool executed only {executed} shards"
        );
    }
}

/// A client that leaves right after the response head — possibly before
/// the handler has written its header line or run any shard — still
/// leaves exactly one failed sweep in `/stats`, and the service recovers.
#[test]
fn client_disconnect_after_response_head_is_counted() {
    for oracle_every in [0, 2] {
        // One read of at most 128 bytes: the head and maybe the start of
        // the header line.
        let (failed, executed, shards) = disconnect_then_sweep("HTTP/1.1 200", oracle_every);
        assert_eq!(failed, 1, "oracle_every {oracle_every}");
        assert!(
            executed >= shards,
            "oracle_every {oracle_every}: pool executed only {executed} shards"
        );
    }
}

#[test]
fn graceful_shutdown_never_truncates_streams() {
    let server = serve(ServerConfig {
        workers: 2,
        conn_threads: 2,
        oracle_every: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let fx = &fixtures()[0];
    // Big enough that the sweeps are still streaming when shutdown lands.
    let count = 600usize;
    let body = Arc::new(sweep_body(
        &fx.text,
        &format!(
            r#""count": {count}, "ticks": 120, "trace": true, "lanes": 8, "inputs": {}"#,
            fx.inputs_json
        ),
    ));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || post_sweep(addr, &body).unwrap())
        })
        .collect();
    // Let both requests get accepted, then shut down mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(30));
    server.shutdown();
    for c in clients {
        let resp = c.join().unwrap();
        // The drained stream is complete: terminating chunk present,
        // every scenario line delivered, done line last.
        assert_eq!(resp.status, 200);
        assert!(resp.complete, "shutdown truncated a stream");
        assert_eq!(resp.lines.len(), count + 2);
        let done = parse(resp.lines.last().unwrap()).unwrap();
        assert_eq!(
            done.get("done").unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
    }
    // The listener is gone: new connections are refused.
    assert!(post_sweep(addr, &body).is_err());
}

/// With one connection handler, a connection that is still waiting in the
/// backlog when shutdown lands is served in full after the one in
/// progress.
#[test]
fn shutdown_serves_a_connection_still_in_the_backlog() {
    use std::io::{Read, Write};

    let server = serve(ServerConfig {
        workers: 2,
        conn_threads: 1,
        oracle_every: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let fx = &fixtures()[0];
    let send = |count: usize| {
        let body = sweep_body(
            &fx.text,
            &format!(
                r#""count": {count}, "ticks": 200, "trace": true, "lanes": 4, "inputs": {}"#,
                fx.inputs_json
            ),
        );
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        let req = format!(
            "POST /sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).unwrap();
        s
    };
    // The only handler takes the first sweep. Its client reads just the
    // status line until shutdown has begun, so the handler stays busy
    // writing a response far larger than the socket buffers.
    let busy_count = 400;
    let mut busy = send(busy_count);
    let mut status = [0u8; 12];
    busy.read_exact(&mut status).unwrap();
    assert_eq!(&status, b"HTTP/1.1 200");
    // The second connection is accepted into the backlog and waits there.
    // Nothing outside the server shows when the idle accept loop has
    // queued it, so wait well past that; one still unaccepted when the
    // shutdown flag lands is refused, which fails the test rather than
    // passing it.
    let queued_count = 16;
    let mut queued = send(queued_count);
    std::thread::sleep(std::time::Duration::from_millis(300));
    let stopper = std::thread::spawn(move || server.shutdown());

    for (stream, count) in [(&mut busy, busy_count), (&mut queued, queued_count)] {
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(
            raw.ends_with(b"\n\r\n0\r\n\r\n"),
            "stream of {count} truncated"
        );
        assert_eq!(text.matches("{\"scenario\":").count(), count);
        assert!(
            text.contains("\"status\":\"ok\""),
            "sweep of {count} failed"
        );
    }
    stopper.join().unwrap();
    assert!(std::net::TcpStream::connect(addr).is_err());
}
