//! The hand-rolled HTTP/1.1 server.
//!
//! std-only: a [`TcpListener`] accept loop feeding a bounded
//! [`sync_channel`] of connections drained by a fixed set of handler
//! threads; accept blocks while the channel is full. Each request
//! gets one response and the connection closes (`Connection: close`) —
//! keep-alive buys little when a single sweep response carries thousands
//! of scenario lines.
//!
//! `POST /sweep` is the hot path: parse spec → sharded compiled-model
//! cache ([`ModelCache`]) → worker pool ([`WorkerPool`]) → ordered
//! chunked ndjson stream (header line, one line per scenario, done
//! line). `GET /stats` reports cache/pool/latency counters and
//! `GET /healthz` is a liveness probe.
//!
//! Graceful shutdown drains: the accept loop stops (woken by a loopback
//! self-connect) and drops the channel's sender, the handlers serve every
//! connection still queued to completion — including their full result
//! streams — and exit when the channel is empty, and only then does the
//! worker pool wind down. The no-truncated-streams tests ride on this
//! order.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use automode_core::json::JsonWriter;
use automode_core::metrics::LatencyHistogram;
use automode_sim::report::sim_stats_to_json;

use crate::cache::ModelCache;
use crate::explore::{execute_explore, ExploreSpec};
use crate::pool::WorkerPool;
use crate::sweep::{execute, ExecOpts, SweepSpec};
use crate::ServiceError;

/// Maximum accepted request-header block size.
const MAX_HEADER: usize = 16 * 1024;
/// Accepted connections waiting for a handler before accept blocks.
const CONN_BACKLOG: usize = 64;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Simulation worker threads in the pool. A connection thread serving
    /// `/explore` also runs shards of its own generations beside them.
    pub workers: usize,
    /// Connection-handler threads (each drives one response at a time).
    pub conn_threads: usize,
    /// Compiled-model cache shards.
    pub cache_shards: usize,
    /// Compiled-model cache capacity (entries, across all shards).
    pub cache_capacity: usize,
    /// Largest accepted request body in bytes (`413` beyond this).
    pub max_body: usize,
    /// Differential-oracle sampling period N in shards: shards 0, N, 2N,
    /// … of every sweep are re-run lane by lane on the connection thread
    /// (`0` disables).
    pub oracle_every: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: cpus,
            conn_threads: 4,
            cache_shards: 16,
            cache_capacity: 64,
            max_body: 1024 * 1024,
            oracle_every: 16,
        }
    }
}

/// Cross-thread server state.
struct Shared {
    cfg: ServerConfig,
    cache: ModelCache,
    pool: WorkerPool,
    /// Per-sweep service latency in microseconds.
    latency: LatencyHistogram,
    sweeps: AtomicU64,
    failed_sweeps: AtomicU64,
    explores: AtomicU64,
    failed_explores: AtomicU64,
    scenarios: AtomicU64,
    oracle_shards: AtomicU64,
    oracle_divergences: AtomicU64,
    shutdown: AtomicBool,
}

/// A running sweep server; dropping or [`Server::shutdown`] stops it
/// gracefully.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

/// Binds and starts a server per `config`.
///
/// # Errors
///
/// Socket bind failures.
pub fn serve(config: ServerConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        cache: ModelCache::new(config.cache_shards, config.cache_capacity),
        pool: WorkerPool::new(config.workers),
        latency: LatencyHistogram::new(),
        sweeps: AtomicU64::new(0),
        failed_sweeps: AtomicU64::new(0),
        explores: AtomicU64::new(0),
        failed_explores: AtomicU64::new(0),
        scenarios: AtomicU64::new(0),
        oracle_shards: AtomicU64::new(0),
        oracle_divergences: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        cfg: config,
    });
    let (conn_tx, conn_rx) = sync_channel(CONN_BACKLOG);
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let handlers = (0..shared.cfg.conn_threads.max(1))
        .map(|i| {
            let shared = shared.clone();
            let conn_rx = conn_rx.clone();
            std::thread::Builder::new()
                .name(format!("sweep-conn-{i}"))
                .spawn(move || handler_loop(&shared, &conn_rx))
                .expect("spawn connection handler")
        })
        .collect();
    let accept = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("sweep-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared, &conn_tx))
            .expect("spawn accept loop")
    };
    Ok(Server {
        shared,
        addr,
        accept: Some(accept),
        handlers,
    })
}

impl Server {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, serves every already-accepted connection to
    /// completion (in-flight sweeps stream all their lines), then winds
    /// down the worker pool.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Relaxed) {
            return;
        }
        // Unblock the accept loop with a throwaway loopback connection;
        // it sees the flag and exits without queueing the socket, which
        // drops the channel's sender.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        // The handlers serve what is still queued, then exit.
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
        // All responses are fully written by now; the pool (owned by the
        // last Arc) drains and joins in its Drop.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared, conns: &SyncSender<TcpStream>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Relaxed) {
            return;
        }
        let Ok(conn) = conn else { continue };
        // Blocks while CONN_BACKLOG connections wait. The handlers hold
        // the receiver until this sender drops, so the send cannot fail.
        let _ = conns.send(conn);
    }
}

fn handler_loop(shared: &Arc<Shared>, conns: &Mutex<Receiver<TcpStream>>) {
    loop {
        // The guard is dropped at the end of this statement, so another
        // handler can take the next connection while this one serves.
        let conn = conns.lock().expect("connection queue poisoned").recv();
        let Ok(conn) = conn else { return };
        handle_conn(shared, conn);
    }
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: String,
}

fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, ServiceError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(p) = find_crlf2(&buf) {
            break p;
        }
        if buf.len() > MAX_HEADER {
            return Err(ServiceError::TooLarge("request headers too large".into()));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ServiceError::BadRequest("truncated request".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| ServiceError::BadRequest("non-utf8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServiceError::BadRequest("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ServiceError::BadRequest("missing request path".into()))?
        .to_string();
    let mut content_len = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_len = value
                    .trim()
                    .parse()
                    .map_err(|_| ServiceError::BadRequest("bad content-length".into()))?;
            }
        }
    }
    if content_len > max_body {
        // Drain what the client is still sending (bounded) before
        // responding; closing with unread data in flight would RST the
        // connection and destroy the 413 response.
        let mut remaining = content_len
            .saturating_sub(buf.len() - header_end - 4)
            .min(64 * 1024 * 1024);
        while remaining > 0 {
            let n = stream.read(&mut chunk).unwrap_or(0);
            if n == 0 {
                break;
            }
            remaining = remaining.saturating_sub(n);
        }
        return Err(ServiceError::TooLarge(format!(
            "body of {content_len} bytes exceeds limit {max_body}"
        )));
    }
    let mut body = buf[header_end + 4..].to_vec();
    if body.len() > content_len {
        return Err(ServiceError::BadRequest("body longer than declared".into()));
    }
    while body.len() < content_len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ServiceError::BadRequest("truncated body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
        if body.len() > content_len {
            return Err(ServiceError::BadRequest("body longer than declared".into()));
        }
    }
    let body = String::from_utf8(body)
        .map_err(|_| ServiceError::BadRequest("non-utf8 request body".into()))?;
    Ok(Request { method, path, body })
}

fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

// ---------------------------------------------------------------------------
// Response writing
// ---------------------------------------------------------------------------

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

fn write_simple(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        code,
        status_text(code),
        content_type,
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn error_body(code: u16, msg: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field("error").string(msg);
    w.field("status").uint(u64::from(code));
    w.end_object();
    w.finish()
}

fn service_error_response(stream: &mut TcpStream, e: &ServiceError) {
    let code = match e {
        ServiceError::BadRequest(_) | ServiceError::Model(_) => 400,
        ServiceError::TooLarge(_) => 413,
        ServiceError::ShuttingDown => 503,
        ServiceError::Io(_) => return, // socket is gone; nothing to say
    };
    write_simple(
        stream,
        code,
        "application/json",
        &error_body(code, &e.to_string()),
    );
}

/// Writes one ndjson line as one HTTP chunk with one `write_all`: the
/// size line, the line and its `\n\r\n` tail are framed in `buf`, which
/// the caller reuses for every chunk of a response. The socket is
/// unbuffered, so each line still leaves as soon as it is written.
fn write_chunk(stream: &mut TcpStream, buf: &mut Vec<u8>, line: &str) -> std::io::Result<()> {
    buf.clear();
    // line + newline, framed as a single chunk.
    write!(buf, "{:x}\r\n", line.len() + 1)?;
    buf.extend_from_slice(line.as_bytes());
    buf.extend_from_slice(b"\n\r\n");
    stream.write_all(buf)
}

// ---------------------------------------------------------------------------
// Routes
// ---------------------------------------------------------------------------

fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let req = match read_request(&mut stream, shared.cfg.max_body) {
        Ok(r) => r,
        Err(e) => {
            service_error_response(&mut stream, &e);
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/sweep") => handle_sweep(shared, &mut stream, &req.body),
        ("POST", "/explore") => handle_explore(shared, &mut stream, &req.body),
        ("GET", "/stats") => {
            write_simple(&mut stream, 200, "application/json", &stats_body(shared))
        }
        ("GET", "/healthz") => write_simple(&mut stream, 200, "text/plain", "ok\n"),
        ("POST", _) | ("GET", _) => write_simple(
            &mut stream,
            404,
            "application/json",
            &error_body(404, &format!("no route {} {}", req.method, req.path)),
        ),
        _ => write_simple(
            &mut stream,
            405,
            "application/json",
            &error_body(405, &format!("method {} not allowed", req.method)),
        ),
    }
}

fn handle_sweep(shared: &Arc<Shared>, stream: &mut TcpStream, body: &str) {
    let started = Instant::now();
    let spec = match automode_core::json::parse(body)
        .map_err(ServiceError::BadRequest)
        .and_then(|doc| SweepSpec::from_json(&doc))
    {
        Ok(s) => Arc::new(s),
        Err(e) => {
            service_error_response(stream, &e);
            return;
        }
    };
    let (sim, key, hit) = match shared
        .cache
        .get_or_compile(&spec.model, spec.component.as_deref())
    {
        Ok(r) => r,
        Err(e) => {
            service_error_response(stream, &ServiceError::Model(e.to_string()));
            return;
        }
    };

    let mut w = JsonWriter::with_capacity(256);
    w.begin_object();
    w.field("sweep");
    w.begin_object();
    w.field("model_hash").string(&format!("{key:016x}"));
    w.field("cache").string(if hit { "hit" } else { "miss" });
    w.field("scenarios").uint(spec.count as u64);
    w.field("lanes").uint(spec.lanes as u64);
    w.field("shards").uint(spec.shards() as u64);
    w.field("stats");
    sim_stats_to_json(&mut w, &sim.stats());
    w.end_object();
    w.end_object();
    let head =
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    let mut chunk = Vec::new();
    if stream.write_all(head.as_bytes()).is_err()
        || write_chunk(stream, &mut chunk, &w.finish()).is_err()
    {
        // The client left before any shard ran; the sweep still counts
        // (as failed).
        shared.sweeps.fetch_add(1, Relaxed);
        shared.failed_sweeps.fetch_add(1, Relaxed);
        return;
    }

    let opts = ExecOpts {
        oracle_every: shared.cfg.oracle_every,
    };
    let result = execute(&spec, &sim, &shared.pool, opts, &mut |line| {
        write_chunk(stream, &mut chunk, line)
    });
    shared.sweeps.fetch_add(1, Relaxed);
    match result {
        Ok(outcome) => {
            shared
                .scenarios
                .fetch_add(outcome.scenarios as u64, Relaxed);
            shared
                .oracle_shards
                .fetch_add(outcome.oracle_shards as u64, Relaxed);
            shared
                .oracle_divergences
                .fetch_add(outcome.oracle_divergences as u64, Relaxed);
            if outcome.failed {
                shared.failed_sweeps.fetch_add(1, Relaxed);
            }
            let elapsed_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            shared.latency.record(elapsed_us);
            let mut w = JsonWriter::with_capacity(128);
            w.begin_object();
            w.field("done");
            w.begin_object();
            w.field("status")
                .string(if outcome.failed { "failed" } else { "ok" });
            w.field("scenarios").uint(outcome.scenarios as u64);
            w.field("shards").uint(outcome.shards as u64);
            w.field("oracle_shards").uint(outcome.oracle_shards as u64);
            w.field("oracle_divergences")
                .uint(outcome.oracle_divergences as u64);
            w.field("elapsed_us").uint(elapsed_us);
            w.end_object();
            w.end_object();
            if write_chunk(stream, &mut chunk, &w.finish()).is_ok() {
                let _ = stream.write_all(b"0\r\n\r\n");
                let _ = stream.flush();
            }
        }
        Err(_) => {
            // Client went away mid-stream; shards were still drained.
            shared.failed_sweeps.fetch_add(1, Relaxed);
        }
    }
}

fn handle_explore(shared: &Arc<Shared>, stream: &mut TcpStream, body: &str) {
    let started = Instant::now();
    let spec = match automode_core::json::parse(body)
        .map_err(ServiceError::BadRequest)
        .and_then(|doc| ExploreSpec::from_json(&doc))
    {
        Ok(s) => s,
        Err(e) => {
            service_error_response(stream, &e);
            return;
        }
    };
    let (sim, key, hit) = match shared
        .cache
        .get_or_compile(&spec.model, spec.component.as_deref())
    {
        Ok(r) => r,
        Err(e) => {
            service_error_response(stream, &ServiceError::Model(e.to_string()));
            return;
        }
    };
    // Space/monitor construction needs the parsed model; surface those
    // errors as a plain 400 before committing to the chunked stream.
    if let Err(e) = spec.parse_model() {
        service_error_response(stream, &e);
        return;
    }

    let head =
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        shared.explores.fetch_add(1, Relaxed);
        shared.failed_explores.fetch_add(1, Relaxed);
        return;
    }
    let mut chunk = Vec::new();
    let result = execute_explore(&spec, &sim, key, hit, &shared.pool, started, &mut |line| {
        write_chunk(stream, &mut chunk, line)
    });
    shared.explores.fetch_add(1, Relaxed);
    match result {
        Ok(report) => {
            shared
                .scenarios
                .fetch_add(report.scenarios_run() as u64, Relaxed);
            let elapsed_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            shared.latency.record(elapsed_us);
            let _ = stream.write_all(b"0\r\n\r\n");
            let _ = stream.flush();
        }
        Err(ServiceError::Io(_)) => {
            // Client went away mid-stream; the exploration still ran to
            // completion so no pool shard was abandoned.
            shared.failed_explores.fetch_add(1, Relaxed);
        }
        Err(_) => {
            shared.failed_explores.fetch_add(1, Relaxed);
        }
    }
}

fn stats_body(shared: &Shared) -> String {
    let cache = shared.cache.stats();
    let pool = shared.pool.stats();
    let mut w = JsonWriter::with_capacity(512);
    w.begin_object();
    w.field("cache");
    w.begin_object();
    w.field("hits").uint(cache.hits);
    w.field("misses").uint(cache.misses);
    w.field("evictions").uint(cache.evictions);
    w.field("entries").uint(cache.entries as u64);
    w.field("capacity").uint(cache.capacity as u64);
    w.end_object();
    w.field("pool");
    w.begin_object();
    w.field("workers").uint(pool.workers as u64);
    // Pool jobs, not shards: an explore generation's claimers may run
    // several shards each, and the connection thread runs some itself.
    w.field("executed").uint(pool.executed);
    w.end_object();
    w.field("sweeps");
    w.begin_object();
    w.field("total").uint(shared.sweeps.load(Relaxed));
    w.field("failed").uint(shared.failed_sweeps.load(Relaxed));
    w.field("scenarios").uint(shared.scenarios.load(Relaxed));
    w.field("oracle_shards")
        .uint(shared.oracle_shards.load(Relaxed));
    w.field("oracle_divergences")
        .uint(shared.oracle_divergences.load(Relaxed));
    w.end_object();
    w.field("explores");
    w.begin_object();
    w.field("total").uint(shared.explores.load(Relaxed));
    w.field("failed").uint(shared.failed_explores.load(Relaxed));
    w.end_object();
    w.field("latency_us");
    w.begin_object();
    w.field("count").uint(shared.latency.count());
    w.field("mean").number(shared.latency.mean());
    w.field("p50").uint(shared.latency.quantile(0.5));
    w.field("p99").uint(shared.latency.quantile(0.99));
    w.field("max").uint(shared.latency.max());
    w.end_object();
    w.end_object();
    w.finish()
}
