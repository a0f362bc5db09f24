//! # automode-service
//!
//! The scenario-sweep **service**: a std-only HTTP/1.1 + JSON API that
//! turns the workspace's compile-once/run-many machinery into end-to-end
//! throughput for concurrent callers (ROADMAP item 4 — "millions of users
//! submit models + scenario sweeps").
//!
//! The hot path is two-level:
//!
//! 1. A **sharded, LRU-evicting compiled-model cache** ([`cache`]) keyed
//!    by an FNV-1a content hash of the submitted `.amdl` model text.
//!    Repeat submissions skip elaborate/causality/prepare entirely, and
//!    concurrent sweeps of the same model share one
//!    [`CompiledSim`](automode_sim::CompiledSim) (its `run_batch` takes
//!    `&self`, and the kernel guarantees `Send + Sync`).
//! 2. A **worker pool** ([`pool`]) — std threads taking jobs oldest-first
//!    from one `mpsc` queue — that runs each sweep's scenarios as K-lane
//!    typed batches (the lane cost amortizes from K = 8 up) through
//!    `run_batch`. Each shard's output comes back over its own channel,
//!    and the connection thread streams the per-scenario results in
//!    order over a chunked HTTP response, with at most a fixed window of
//!    shards in flight for backpressure ([`sweep`], [`http`]).
//!
//! An `/explore` generation ([`explore`]) is split into `lanes`-wide
//! covered batches that the connection thread and the pool's workers
//! claim one at a time ([`WorkerPool::run_indexed`]), so the connection
//! thread runs shards of its own request instead of parking on them.
//!
//! A sampled **live differential oracle** re-runs shards 0, 16, 32, … of
//! every sweep (so always its first shard) with batch vectorization
//! disabled and fails the sweep on any divergence — the typed-lane fast
//! path is continuously cross-checked in production, not just in
//! proptests. The connection thread checks each sampled shard lane by
//! lane as it streams it, while the pool runs the next shards.
//!
//! The workspace is offline: no tokio, no hyper, no serde. HTTP/1.1 is
//! hand-rolled over [`std::net::TcpListener`] with a connection thread
//! pool, and JSON parsing and encoding reuse [`automode_core::json`] /
//! [`automode_sim::report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod explore;
pub mod http;
pub mod pool;
pub mod sweep;

pub use cache::{CacheStats, ModelCache};
pub use client::{get, post_explore, post_sweep, SweepStream};
pub use explore::{execute_explore, ExploreSpec, PoolRunner};
pub use http::{serve, Server, ServerConfig};
pub use pool::{PoolStats, WorkerPool};
pub use sweep::{execute, ExecOpts, SweepOutcome, SweepSpec};

/// Errors surfaced by the service layers.
#[derive(Debug)]
pub enum ServiceError {
    /// The request body is not valid JSON, or is missing required fields.
    BadRequest(String),
    /// The submitted model failed to parse, elaborate, or compile.
    Model(String),
    /// The request exceeds a configured limit (body size, scenario count).
    TooLarge(String),
    /// A socket-level failure.
    Io(std::io::Error),
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::Model(m) => write!(f, "model error: {m}"),
            ServiceError::TooLarge(m) => write!(f, "too large: {m}"),
            ServiceError::Io(e) => write!(f, "io error: {e}"),
            ServiceError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}
