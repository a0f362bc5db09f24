//! Sweep specs, shard execution, and ordered result streaming.
//!
//! A sweep is `count` scenarios over one compiled model. Scenarios are
//! generated from per-input stimulus templates whose numeric fields can
//! scale per scenario (`*_step` knobs), sharded into K-lane batches
//! (K = `lanes`), and executed on the worker pool through
//! [`CompiledSim::run_batch`] — the typed-SoA fast path from the batch
//! lanes work.
//!
//! Results stream back **in scenario order**: every shard job sends its
//! output down its own channel, and the writer (the connection thread)
//! receives from the oldest shard's channel first. At most
//! `QUEUE_CAP.max(workers)` shards are in flight; the writer submits the
//! next one each time it takes one, so this window bounds how far
//! execution can run ahead of a slow client (backpressure). A worker's
//! send never blocks, so no pool worker ever waits on a connection.
//!
//! A sampled **live differential oracle** checks shards 0, N, 2N, …
//! (N = `oracle_every`) against a clone of the compiled model with batch
//! vectorization disabled and compares the runs exactly; any divergence
//! fails the sweep and names the offending scenarios. Every request's
//! first shard is therefore checked, and a 2-shard request re-runs half
//! its scenarios. The worker of a sampled shard hands over its bare runs,
//! and the writer (the connection thread) re-runs each lane alone on one
//! reused copy, compares, encodes and sends it while the pool runs on.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;

use automode_core::json::{Json, JsonWriter};
use automode_kernel::{vcd, ContractMonitor, FaultKind, Stream, Value};
use automode_sim::report::sim_run_to_json;
use automode_sim::{stimulus, BatchScenario, CompiledSim, SimRun};

use crate::pool::WorkerPool;
use crate::ServiceError;

/// Hard ceiling on scenarios per sweep (memory bound).
const MAX_SCENARIOS: usize = 65_536;
/// Hard ceiling on ticks per scenario (memory bound).
const MAX_TICKS: usize = 1_000_000;
/// Largest accepted lane width.
const MAX_LANES: usize = 1024;
/// Hard ceiling on `count × ticks`, the work of one sweep: 2^24, 131× the
/// largest benchmark sweep (64 × 2,000).
const MAX_SCENARIO_TICKS: usize = 1 << 24;

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

/// One input port's stimulus template. Numeric `*_step` fields add
/// `scenario_index * step` to the base, which is how a sweep spreads a
/// parameter across scenarios.
#[derive(Debug, Clone)]
enum Stim {
    Constant {
        value: Value,
        step: f64,
    },
    Ramp {
        from: f64,
        to: f64,
        from_step: f64,
        to_step: f64,
    },
    Step {
        before: Value,
        after: Value,
        at: u64,
        at_step: f64,
    },
    Random {
        lo: f64,
        hi: f64,
        seed: u64,
    },
}

#[derive(Debug, Clone)]
struct InputSpec {
    port: String,
    stim: Stim,
}

impl InputSpec {
    /// Materializes this input's stream for scenario `i`.
    fn stream(&self, i: usize, ticks: usize) -> Stream {
        let s = i as f64;
        match &self.stim {
            Stim::Constant { value, step } => {
                let v = match value {
                    Value::Float(f) => Value::Float(f + step * s),
                    other => other.clone(),
                };
                stimulus::constant(v, ticks)
            }
            Stim::Ramp {
                from,
                to,
                from_step,
                to_step,
            } => stimulus::ramp(from + from_step * s, to + to_step * s, ticks),
            Stim::Step {
                before,
                after,
                at,
                at_step,
            } => {
                let at = (*at as f64 + at_step * s).max(0.0) as usize;
                stimulus::step(before.clone(), after.clone(), at.min(ticks), ticks)
            }
            Stim::Random { lo, hi, seed } => {
                stimulus::seeded_random(*lo, *hi, ticks, seed.wrapping_add(i as u64))
            }
        }
    }
}

/// One fault template, optionally applied only to scenarios with
/// `i % lane_mod == 0`.
#[derive(Debug, Clone)]
struct FaultSpec {
    target: String,
    lane_mod: Option<u64>,
    kind: FaultKind,
}

/// A parsed and validated sweep request.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The `.amdl` model text.
    pub model: String,
    /// Component to simulate (`None` = the model root).
    pub component: Option<String>,
    /// Number of scenarios.
    pub count: usize,
    /// Ticks per scenario.
    pub ticks: usize,
    /// Lane width K of each batch shard.
    pub lanes: usize,
    /// Include the canonical trace text per scenario.
    pub trace: bool,
    /// Include a VCD dump per scenario.
    pub vcd: bool,
    /// Check channel contracts and include a robustness report.
    pub robustness: bool,
    inputs: Vec<InputSpec>,
    faults: Vec<FaultSpec>,
}

fn num(v: &Json, what: &str) -> Result<f64, ServiceError> {
    v.as_f64()
        .ok_or_else(|| ServiceError::BadRequest(format!("{what} must be a number")))
}

pub(crate) fn opt_num(obj: &Json, key: &str, default: f64) -> Result<f64, ServiceError> {
    match obj.get(key) {
        Some(v) => num(v, key),
        None => Ok(default),
    }
}

/// `v` as a non-negative integer. Integers beyond `u64` saturate, so an
/// oversized count still reaches its limit check.
pub(crate) fn uint(v: &Json, what: &str) -> Result<u64, ServiceError> {
    match v {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(ServiceError::BadRequest(format!(
            "`{what}` must be a non-negative integer"
        ))),
    }
}

/// Field `key` of `obj` as a non-negative integer, or `default` when the
/// field is absent.
pub(crate) fn opt_uint(obj: &Json, key: &str, default: u64) -> Result<u64, ServiceError> {
    obj.get(key).map_or(Ok(default), |v| uint(v, key))
}

/// Field `key` of `obj` as a bool, or `default` when the field is absent.
pub(crate) fn opt_bool(obj: &Json, key: &str, default: bool) -> Result<bool, ServiceError> {
    obj.get(key).map_or(Ok(default), |v| {
        v.as_bool()
            .ok_or_else(|| ServiceError::BadRequest(format!("`{key}` must be a bool")))
    })
}

fn value_of(v: &Json, what: &str) -> Result<Value, ServiceError> {
    match v {
        Json::Num(n) => Ok(Value::Float(*n)),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Str(s) => Ok(Value::sym(s.clone())),
        _ => Err(ServiceError::BadRequest(format!(
            "{what} must be a number, bool, or symbol string"
        ))),
    }
}

impl SweepSpec {
    /// Parses a request document.
    ///
    /// # Errors
    ///
    /// Missing/ill-typed fields and limit violations all map to
    /// [`ServiceError::BadRequest`] / [`ServiceError::TooLarge`].
    pub fn from_json(doc: &Json) -> Result<SweepSpec, ServiceError> {
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
        let count = opt_uint(doc, "count", 32)? as usize;
        let ticks = opt_uint(doc, "ticks", 100)? as usize;
        let lanes = opt_uint(doc, "lanes", 32)? as usize;
        if count == 0 || ticks == 0 || lanes == 0 {
            return Err(ServiceError::BadRequest(
                "`count`, `ticks`, and `lanes` must be positive".into(),
            ));
        }
        for (what, n, limit) in [
            ("count", count, MAX_SCENARIOS),
            ("ticks", ticks, MAX_TICKS),
            ("lanes", lanes, MAX_LANES),
            (
                "count x ticks",
                count.saturating_mul(ticks),
                MAX_SCENARIO_TICKS,
            ),
        ] {
            if n > limit {
                return Err(ServiceError::TooLarge(format!(
                    "{what} {n} exceeds limit {limit}"
                )));
            }
        }
        let mut inputs = Vec::new();
        if let Some(arr) = doc.get("inputs").and_then(Json::as_array) {
            for (idx, item) in arr.iter().enumerate() {
                inputs.push(parse_input(item, idx)?);
            }
        }
        let mut faults = Vec::new();
        if let Some(arr) = doc.get("faults").and_then(Json::as_array) {
            for (idx, item) in arr.iter().enumerate() {
                faults.push(parse_fault(item, idx)?);
            }
        }
        Ok(SweepSpec {
            model,
            component,
            count,
            ticks,
            lanes,
            trace: opt_bool(doc, "trace", false)?,
            vcd: opt_bool(doc, "vcd", false)?,
            robustness: opt_bool(doc, "robustness", false)?,
            inputs,
            faults,
        })
    }

    /// Number of K-lane shards this sweep splits into.
    pub fn shards(&self) -> usize {
        self.count.div_ceil(self.lanes)
    }
}

fn parse_input(item: &Json, idx: usize) -> Result<InputSpec, ServiceError> {
    let port = item
        .get("port")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::BadRequest(format!("inputs[{idx}]: missing `port`")))?
        .to_string();
    let kind = item
        .get("kind")
        .and_then(Json::as_str)
        .unwrap_or("constant");
    let stim = match kind {
        "constant" => Stim::Constant {
            value: value_of(
                item.get("value").unwrap_or(&Json::Num(0.0)),
                &format!("inputs[{idx}].value"),
            )?,
            step: opt_num(item, "value_step", 0.0)?,
        },
        "ramp" => Stim::Ramp {
            from: opt_num(item, "from", 0.0)?,
            to: opt_num(item, "to", 1.0)?,
            from_step: opt_num(item, "from_step", 0.0)?,
            to_step: opt_num(item, "to_step", 0.0)?,
        },
        "step" => Stim::Step {
            before: value_of(
                item.get("before").unwrap_or(&Json::Num(0.0)),
                &format!("inputs[{idx}].before"),
            )?,
            after: value_of(
                item.get("after").unwrap_or(&Json::Num(1.0)),
                &format!("inputs[{idx}].after"),
            )?,
            at: opt_num(item, "at", 0.0)? as u64,
            at_step: opt_num(item, "at_step", 0.0)?,
        },
        "random" => Stim::Random {
            lo: opt_num(item, "lo", 0.0)?,
            hi: opt_num(item, "hi", 1.0)?,
            seed: opt_uint(item, "seed", 1)?,
        },
        other => {
            return Err(ServiceError::BadRequest(format!(
                "inputs[{idx}]: unknown stimulus kind `{other}`"
            )))
        }
    };
    Ok(InputSpec { port, stim })
}

fn parse_fault(item: &Json, idx: usize) -> Result<FaultSpec, ServiceError> {
    let target = item
        .get("target")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::BadRequest(format!("faults[{idx}]: missing `target`")))?
        .to_string();
    let lane_mod = item
        .get("lane_mod")
        .map(|v| uint(v, "lane_mod"))
        .transpose()?;
    if lane_mod == Some(0) {
        return Err(ServiceError::BadRequest(format!(
            "faults[{idx}]: `lane_mod` must be positive"
        )));
    }
    let kind = item
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::BadRequest(format!("faults[{idx}]: missing `kind`")))?;
    let kind = match kind {
        "drop" => FaultKind::drop_every(
            opt_uint(item, "every", 1)?.max(1),
            opt_uint(item, "phase", 0)?,
        ),
        "stuck" => FaultKind::StuckAt(value_of(
            item.get("value").unwrap_or(&Json::Num(0.0)),
            &format!("faults[{idx}].value"),
        )?),
        "delay" => FaultKind::Delay(opt_uint(item, "ticks", 1)? as usize),
        "jitter" => {
            let hold = opt_num(item, "hold", 0.5)?;
            if !(0.0..1.0).contains(&hold) {
                return Err(ServiceError::BadRequest(format!(
                    "faults[{idx}]: `hold` must be in [0, 1)"
                )));
            }
            FaultKind::Jitter {
                seed: opt_uint(item, "seed", 1)?,
                hold,
            }
        }
        "corrupt_scale" => FaultKind::Corrupt(automode_kernel::Corruptor::scale(opt_num(
            item, "factor", 1.0,
        )?)),
        other => {
            return Err(ServiceError::BadRequest(format!(
                "faults[{idx}]: unknown fault kind `{other}`"
            )))
        }
    };
    Ok(FaultSpec {
        target,
        lane_mod,
        kind,
    })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// What one shard hands to the writer.
enum ShardOut {
    /// One encoded ndjson line per scenario, in scenario order: every
    /// unsampled shard, and any shard whose batch failed.
    Lines {
        lines: Vec<String>,
        /// Whether the batch failed.
        failed: bool,
    },
    /// A sampled shard: its runs, neither checked nor encoded. The writer
    /// checks, encodes and sends them lane by lane ([`LaneOracle`]).
    Unchecked(Vec<SimRun>),
}

/// Shards one sweep keeps in flight when the pool has fewer workers: how
/// far execution can run ahead of a slow client.
const QUEUE_CAP: usize = 8;

/// Knobs the server passes into [`execute`].
#[derive(Debug, Clone, Copy)]
pub struct ExecOpts {
    /// Differential-oracle sampling period N in shards: the writer re-runs
    /// shards 0, N, 2N, … lane by lane with vectorization disabled, so the
    /// first shard of every request (the last one included) is checked;
    /// `0` disables the oracle.
    pub oracle_every: usize,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts { oracle_every: 16 }
    }
}

/// Outcome counters of one executed sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepOutcome {
    /// Scenarios executed.
    pub scenarios: usize,
    /// K-lane shards executed.
    pub shards: usize,
    /// Shards re-run by the differential oracle.
    pub oracle_shards: usize,
    /// Scenarios where the oracle diverged from the vectorized run.
    pub oracle_divergences: usize,
    /// Whether any shard failed or diverged.
    pub failed: bool,
}

/// Whether the differential oracle checks shard `shard_idx` when it samples
/// every `every`-th shard: shards 0, N, 2N, … for N = `every`, none for
/// N = 0. Every request's first shard is therefore checked.
fn oracle_samples(shard_idx: usize, every: usize) -> bool {
    every > 0 && shard_idx.is_multiple_of(every)
}

/// Runs `spec` against `sim` on `pool`, feeding encoded ndjson lines to
/// `emit` **in scenario order**. Every scenario produces exactly one
/// line (a result object or an error object), so a stream is complete
/// iff it carries `spec.count` scenario lines — the invariant the
/// graceful-shutdown test leans on.
///
/// # Errors
///
/// Only sink (`emit`) failures abort the stream; simulation failures are
/// reported in-band and via [`SweepOutcome::failed`].
pub fn execute(
    spec: &Arc<SweepSpec>,
    sim: &Arc<CompiledSim>,
    pool: &WorkerPool,
    opts: ExecOpts,
    emit: &mut dyn FnMut(&str) -> std::io::Result<()>,
) -> std::io::Result<SweepOutcome> {
    // The oracle copy drops the typed-lane fast path: same compiled
    // artifact, each lane run alone through the single-run loop.
    let oracle = (opts.oracle_every > 0).then(|| {
        let mut o = (**sim).clone();
        o.set_batch_vectorization(false);
        o
    });
    execute_checked(spec, sim, oracle, pool, opts, emit)
}

/// [`execute`] against the given oracle handle (`None`: no oracle).
///
/// Every sampled shard goes to the writer unchecked; the writer re-runs it
/// lane by lane while the pool runs the next shards.
fn execute_checked(
    spec: &Arc<SweepSpec>,
    sim: &Arc<CompiledSim>,
    oracle: Option<CompiledSim>,
    pool: &WorkerPool,
    opts: ExecOpts,
    emit: &mut dyn FnMut(&str) -> std::io::Result<()>,
) -> std::io::Result<SweepOutcome> {
    let shards = spec.shards();
    let every = oracle.as_ref().map_or(0, |_| opts.oracle_every);
    let mut lane_oracle = oracle.map(|o| LaneOracle::new(o, spec, sim));
    // Each shard job sends its output down its own channel; a send never
    // blocks, so no pool worker ever parks on a connection.
    let submit = |shard_idx: usize| -> Receiver<ShardOut> {
        let spec = spec.clone();
        let sim = sim.clone();
        let sampled = oracle_samples(shard_idx, every);
        let (tx, rx) = mpsc::channel();
        pool.submit(move || {
            let _ = tx.send(run_shard(&spec, &sim, sampled, shard_idx));
        });
        rx
    };

    // Backpressure by sliding-window submission: at most `window` shards
    // are ever in flight, so how far execution can run ahead of a slow
    // client is bounded. The window never throttles the pool below full
    // width.
    let window = QUEUE_CAP.max(pool.workers());
    let mut in_flight: VecDeque<Receiver<ShardOut>> =
        (0..window.min(shards)).map(&submit).collect();
    let mut submitted = in_flight.len();

    // This thread (the connection handler) is the writer: it receives
    // shard outputs in shard order, checks the sampled ones, and pushes
    // the lines down the socket.
    let mut outcome = SweepOutcome {
        scenarios: spec.count,
        shards,
        ..SweepOutcome::default()
    };
    let mut sink_err: Option<std::io::Error> = None;
    let mut shard_idx = 0;
    while let Some(rx) = in_flight.pop_front() {
        let out = rx.recv().expect("a shard job sends its output");
        outcome.oracle_shards += usize::from(oracle_samples(shard_idx, every));
        let sent = match (out, &sink_err) {
            // The client is gone: drop the shard, checking nothing.
            (_, Some(_)) => Ok(()),
            (ShardOut::Lines { lines, failed }, None) => {
                outcome.failed |= failed;
                lines.iter().try_for_each(|line| emit(line))
            }
            (ShardOut::Unchecked(runs), None) => lane_oracle
                .as_mut()
                .expect("sampled shards have an oracle")
                .check_and_emit(spec, shard_idx, runs, &mut outcome, emit),
        };
        shard_idx += 1;
        if let Err(e) = sent {
            sink_err = Some(e);
        }
        // Refill the window — unless the client is gone, in which case we
        // only drain what is already in flight.
        if sink_err.is_none() && submitted < shards {
            in_flight.push_back(submit(submitted));
            submitted += 1;
        }
    }
    match sink_err {
        Some(e) => Err(e),
        None => Ok(outcome),
    }
}

/// The live oracle, run by the writer: a vectorization-off copy of the
/// compiled model, reused for every lane it re-runs.
struct LaneOracle {
    sim: CompiledSim,
    monitor: Option<ContractMonitor>,
}

impl LaneOracle {
    fn new(sim: CompiledSim, spec: &SweepSpec, fast: &CompiledSim) -> LaneOracle {
        LaneOracle {
            sim,
            monitor: spec.robustness.then(|| fast.monitor()),
        }
    }

    /// Checks, encodes and sends shard `shard_idx`'s runs one lane at a
    /// time: re-run the lane alone, compare the runs exactly, send the
    /// result (or divergence) line, drop both runs. Once a re-run fails,
    /// that lane and every later one in the shard get an `oracle re-run
    /// failed` line; the lanes before it matched and went out as results.
    ///
    /// # Errors
    ///
    /// The first failed `emit`; no further lane is re-run.
    fn check_and_emit(
        &mut self,
        spec: &SweepSpec,
        shard_idx: usize,
        runs: Vec<SimRun>,
        outcome: &mut SweepOutcome,
        emit: &mut dyn FnMut(&str) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut rerun_failed: Option<String> = None;
        for (run, i) in runs.into_iter().zip(shard_idx * spec.lanes..) {
            let line = match &rerun_failed {
                Some(msg) => error_line(i, msg),
                None => {
                    let inputs = lane_inputs(spec, i);
                    match self.sim.run_scenario(&lane_scenario(spec, &inputs, i)) {
                        Ok(slow) if slow == run => {
                            result_line(spec, self.monitor.as_ref(), i, &run)
                        }
                        Ok(_) => {
                            eprintln!(
                                "service: differential oracle divergence at scenario {i} \
                                 (shard {shard_idx}): vectorized batch run differs from \
                                 scalar reference"
                            );
                            outcome.oracle_divergences += 1;
                            outcome.failed = true;
                            error_line(i, DIVERGENCE)
                        }
                        Err(e) => {
                            outcome.failed = true;
                            let msg = format!("oracle re-run failed: {e}");
                            let line = error_line(i, &msg);
                            rerun_failed = Some(msg);
                            line
                        }
                    }
                }
            };
            emit(&line)?;
        }
        Ok(())
    }
}

/// The in-band error text of a diverged scenario.
const DIVERGENCE: &str = "differential oracle divergence";

/// Scenario `i`'s named input streams.
fn lane_inputs(spec: &SweepSpec, i: usize) -> Vec<(&str, Stream)> {
    spec.inputs
        .iter()
        .map(|inp| (inp.port.as_str(), inp.stream(i, spec.ticks)))
        .collect()
}

/// Scenario `i` as a batch lane over its `inputs`, with the faults that
/// apply to it.
fn lane_scenario<'a>(
    spec: &SweepSpec,
    inputs: &'a [(&'a str, Stream)],
    i: usize,
) -> BatchScenario<'a> {
    let mut sc = BatchScenario::new(inputs, spec.ticks);
    for f in &spec.faults {
        if f.lane_mod.is_none_or(|m| (i as u64).is_multiple_of(m)) {
            sc = sc.with_fault(f.target.clone(), f.kind.clone());
        }
    }
    sc
}

/// Encodes scenario `i`'s checked (or unsampled) run as its result line,
/// with the robustness report and VCD text the spec asks for.
fn result_line(
    spec: &SweepSpec,
    monitor: Option<&ContractMonitor>,
    i: usize,
    run: &SimRun,
) -> String {
    let report = monitor.map(|m| m.check(&run.trace));
    let vcd_text = spec.vcd.then(|| {
        let mut out = Vec::new();
        let _ = vcd::write_vcd(&run.trace, "sweep", &mut out);
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    });
    scenario_line(i, run, spec.trace, report.as_ref(), vcd_text.as_deref())
}

/// Executes one K-lane shard: builds the scenario streams and runs the
/// batch. An unsampled shard is encoded here; a sampled one goes back as
/// its bare runs for the writer to check.
fn run_shard(spec: &SweepSpec, sim: &CompiledSim, sampled: bool, shard_idx: usize) -> ShardOut {
    let start = shard_idx * spec.lanes;
    let end = (start + spec.lanes).min(spec.count);
    let inputs: Vec<Vec<(&str, Stream)>> = (start..end).map(|i| lane_inputs(spec, i)).collect();
    let scenarios: Vec<BatchScenario> = inputs
        .iter()
        .zip(start..)
        .map(|(inp, i)| lane_scenario(spec, inp, i))
        .collect();
    let runs = match sim.run_batch(&scenarios) {
        Ok(runs) if sampled => return ShardOut::Unchecked(runs),
        Ok(runs) => runs,
        Err(e) => {
            let msg = format!("simulation failed: {e}");
            return ShardOut::Lines {
                lines: (start..end).map(|i| error_line(i, &msg)).collect(),
                failed: true,
            };
        }
    };
    let monitor = spec.robustness.then(|| sim.monitor());
    // Each run is dropped as soon as its line is encoded, so a shard never
    // holds all its traces and all its lines at once.
    let lines = runs
        .into_iter()
        .zip(start..)
        .map(|(run, i)| result_line(spec, monitor.as_ref(), i, &run))
        .collect();
    ShardOut::Lines {
        lines,
        failed: false,
    }
}

/// Encodes one successful scenario as `{"scenario": i, "result": {...}}`.
///
/// The line is sized to its content: the trace writer reserves a bound of
/// its text up front, so the buffer grows once rather than by doubling,
/// and the unused tail of that bound is handed back at the end.
pub fn scenario_line(
    i: usize,
    run: &SimRun,
    trace: bool,
    robustness: Option<&automode_kernel::RobustnessReport>,
    vcd: Option<&str>,
) -> String {
    let mut w = JsonWriter::with_capacity(256);
    w.begin_object();
    w.field("scenario").uint(i as u64);
    w.field("result");
    sim_run_to_json(&mut w, run, trace, robustness, vcd);
    w.end_object();
    let mut line = w.finish();
    line.shrink_to_fit();
    line
}

/// Encodes one failed scenario as `{"scenario": i, "error": "..."}`.
fn error_line(i: usize, msg: &str) -> String {
    let mut w = JsonWriter::with_capacity(64);
    w.begin_object();
    w.field("scenario").uint(i as u64);
    w.field("error").string(msg);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use automode_core::json::parse;

    fn spec_doc(extra: &str) -> String {
        let model = gain_model();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field("model").string(&model);
        w.end_object();
        let base = w.finish();
        if extra.is_empty() {
            base
        } else {
            format!(
                "{}, {}}}",
                &base[..base.len() - 1],
                &extra[1..extra.len() - 1]
            )
        }
    }

    fn gain_model() -> String {
        model_with("(u * 2.0)")
    }

    fn model_with(expr: &str) -> String {
        format!(
            "model t\n\ncomponent Gain {{\n  in u: float\n  out y: float\n  expr y = {expr}\n}}\n\nroot Gain\n"
        )
    }

    fn compiled() -> Arc<CompiledSim> {
        Arc::new(sim_with("(u * 2.0)"))
    }

    /// A compiled handle computing `y = expr`.
    fn sim_with(expr: &str) -> CompiledSim {
        let model = automode_core::text::from_text(&model_with(expr)).unwrap();
        CompiledSim::new_root(&model).unwrap()
    }

    /// A vectorization-off oracle handle computing `y = expr` — a stand-in
    /// for a kernel whose two loops disagree.
    fn oracle_with(expr: &str) -> CompiledSim {
        let mut o = sim_with(expr);
        o.set_batch_vectorization(false);
        o
    }

    /// Runs a sweep of `sim` with `u = 1.0 + 0.5 i` against `oracle`,
    /// returning every line and the outcome.
    fn run_against(
        sim: CompiledSim,
        oracle: CompiledSim,
        count: usize,
        lanes: usize,
        every: usize,
    ) -> (Vec<String>, SweepOutcome) {
        let doc = parse(&spec_doc(&format!(
            r#"{{"count": {count}, "ticks": 6, "lanes": {lanes},
                "inputs": [{{"port": "u", "kind": "constant", "value": 1.0, "value_step": 0.5}}]}}"#
        )))
        .unwrap();
        let spec = Arc::new(SweepSpec::from_json(&doc).unwrap());
        let pool = WorkerPool::new(2);
        let mut lines = Vec::new();
        let opts = ExecOpts {
            oracle_every: every,
        };
        let outcome = execute_checked(&spec, &Arc::new(sim), Some(oracle), &pool, opts, &mut |l| {
            lines.push(l.to_string());
            Ok(())
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(lines.len(), count);
        (lines, outcome)
    }

    /// Asserts that the lines in `failing` carry the division-by-zero error
    /// `prefix: …` and that every other line is byte-equal to a direct
    /// `run_batch` of the gain model at `u = 1.0 + 0.5 i`.
    fn assert_errors_exactly_at(lines: &[String], failing: std::ops::Range<usize>, prefix: &str) {
        let direct = compiled();
        for (i, line) in lines.iter().enumerate() {
            if failing.contains(&i) {
                let e = error_of(line).unwrap();
                assert!(e.starts_with(prefix), "line {i}: {e}");
                assert!(e.contains("division by zero"), "line {i}: {e}");
            } else {
                let inputs = [(
                    "u",
                    stimulus::constant(Value::Float(1.0 + 0.5 * i as f64), 6),
                )];
                let run = direct.run_batch(&[BatchScenario::new(&inputs, 6)]).unwrap();
                assert_eq!(
                    line,
                    &scenario_line(i, &run[0], false, None, None),
                    "line {i}"
                );
            }
        }
    }

    /// The error text of a line, or `None` for a result line.
    fn error_of(line: &str) -> Option<String> {
        let v = parse(line).unwrap();
        v.get("error").map(|e| e.as_str().unwrap().to_string())
    }

    #[test]
    fn oracle_samples_shards_zero_n_2n() {
        // (count, lanes, N) → the sampled shard indices.
        let cases: [(usize, usize, usize, &[usize]); 6] = [
            (32, 32, 16, &[0]),
            (64, 32, 16, &[0]),
            (512, 32, 16, &[0]),
            (37, 8, 2, &[0, 2, 4]),
            (100, 4, 8, &[0, 8, 16, 24]),
            (64, 8, 0, &[]),
        ];
        let pool = WorkerPool::new(2);
        for (count, lanes, every, want) in cases {
            let doc = parse(&spec_doc(&format!(
                r#"{{"count": {count}, "ticks": 4, "lanes": {lanes},
                    "inputs": [{{"port": "u", "kind": "ramp", "to_step": 0.5}}]}}"#
            )))
            .unwrap();
            let spec = Arc::new(SweepSpec::from_json(&doc).unwrap());
            let sampled: Vec<usize> = (0..spec.shards())
                .filter(|&s| oracle_samples(s, every))
                .collect();
            assert_eq!(sampled, want, "count {count} lanes {lanes} N {every}");
            let opts = ExecOpts {
                oracle_every: every,
            };
            let outcome = execute(&spec, &compiled(), &pool, opts, &mut |_| Ok(())).unwrap();
            assert_eq!(outcome.oracle_shards, want.len());
            assert!(!outcome.failed);
        }
        // A 2-shard request checks half its shards.
        assert!(oracle_samples(0, 16) && !oracle_samples(1, 16));
        pool.shutdown();
    }

    #[test]
    fn mismatching_oracle_fails_every_sampled_lane() {
        // Shards of 4: shards 0 and 2 (the last) are sampled and checked
        // by the writer, shard 1 is not sampled.
        let (lines, outcome) =
            run_against(sim_with("(u * 2.0)"), oracle_with("(u * 3.0)"), 12, 4, 2);
        for (i, line) in lines.iter().enumerate() {
            let want = (!(4..8).contains(&i)).then(|| DIVERGENCE.to_string());
            assert_eq!(error_of(line), want, "line {i}");
        }
        assert_eq!(
            outcome,
            SweepOutcome {
                scenarios: 12,
                shards: 3,
                oracle_shards: 2,
                oracle_divergences: 8,
                failed: true,
            }
        );
    }

    #[test]
    fn oracle_error_on_a_writer_checked_lane_fails_it_and_the_rest() {
        // The oracle agrees with `u * 2.0` bit for bit except at u = 3.0
        // (scenario 4), where it divides by zero. Lanes below the failing
        // one matched and went out as results, as did the (unfailing)
        // last shard.
        let (lines, outcome) = run_against(
            sim_with("(u * 2.0)"),
            oracle_with("((u * 2.0) * ((u - 3.0) / (u - 3.0)))"),
            12,
            8,
            1,
        );
        assert_errors_exactly_at(&lines, 4..8, "oracle re-run failed: ");
        assert_eq!(
            outcome,
            SweepOutcome {
                scenarios: 12,
                shards: 2,
                oracle_shards: 2,
                oracle_divergences: 0,
                failed: true,
            }
        );
    }

    #[test]
    fn oracle_error_on_a_single_shard_fails_that_lane_and_the_rest() {
        // One shard, so it is also the last: the oracle divides by zero at
        // u = 3.5 (scenario 5), and only lanes 5.. fail.
        let (lines, outcome) = run_against(
            sim_with("(u * 2.0)"),
            oracle_with("((u * 2.0) * ((u - 3.5) / (u - 3.5)))"),
            8,
            8,
            16,
        );
        assert_errors_exactly_at(&lines, 5..8, "oracle re-run failed: ");
        assert_eq!(
            outcome,
            SweepOutcome {
                scenarios: 8,
                shards: 1,
                oracle_shards: 1,
                oracle_divergences: 0,
                failed: true,
            }
        );
    }

    #[test]
    fn failed_batch_fails_every_lane_of_its_shard() {
        // Shards of 4 with N = 2: the model divides by zero at u = 3.0
        // (scenario 4, unsampled shard 1) and u = 5.0 (scenario 8, sampled
        // shard 2), so both batches fail; shard 0 runs and is checked.
        let failing = "(((u * 2.0) * ((u - 3.0) / (u - 3.0))) * ((u - 5.0) / (u - 5.0)))";
        let (lines, outcome) = run_against(sim_with(failing), oracle_with(failing), 12, 4, 2);
        assert_errors_exactly_at(&lines, 4..12, "simulation failed: ");
        assert_eq!(
            outcome,
            SweepOutcome {
                scenarios: 12,
                shards: 3,
                oracle_shards: 2,
                oracle_divergences: 0,
                failed: true,
            }
        );
    }

    #[test]
    fn spec_defaults_and_limits() {
        let doc = parse(&spec_doc("")).unwrap();
        let spec = SweepSpec::from_json(&doc).unwrap();
        assert_eq!((spec.count, spec.ticks, spec.lanes), (32, 100, 32));
        assert_eq!(spec.shards(), 1);

        let doc = parse(&spec_doc(r#"{"count": 0}"#)).unwrap();
        assert!(matches!(
            SweepSpec::from_json(&doc),
            Err(ServiceError::BadRequest(_))
        ));
        let doc = parse(&spec_doc(r#"{"count": 100000000}"#)).unwrap();
        assert!(matches!(
            SweepSpec::from_json(&doc),
            Err(ServiceError::TooLarge(_))
        ));

        // An ill-typed field is a 400 naming it, never its default.
        for (field, extra) in [
            ("count", r#"{"count": -1}"#),
            ("count", r#"{"count": 1.5}"#),
            ("ticks", r#"{"ticks": "x"}"#),
            ("lanes", r#"{"lanes": true}"#),
            ("trace", r#"{"trace": 1}"#),
            ("vcd", r#"{"vcd": "yes"}"#),
            ("robustness", r#"{"robustness": null}"#),
            (
                "seed",
                r#"{"inputs": [{"port": "u", "kind": "random", "seed": -1}]}"#,
            ),
            (
                "every",
                r#"{"faults": [{"target": "y", "kind": "drop", "every": "2"}]}"#,
            ),
            (
                "lane_mod",
                r#"{"faults": [{"target": "y", "kind": "drop", "lane_mod": 0.5}]}"#,
            ),
        ] {
            let doc = parse(&spec_doc(extra)).unwrap();
            match SweepSpec::from_json(&doc) {
                Err(ServiceError::BadRequest(m)) => assert!(m.contains(field), "{field}: {m}"),
                other => panic!("{extra} gave {other:?}"),
            }
        }
        // An integer too large for its limit is a 413, not a default.
        let doc = parse(&spec_doc(r#"{"ticks": 2e16}"#)).unwrap();
        assert!(matches!(
            SweepSpec::from_json(&doc),
            Err(ServiceError::TooLarge(_))
        ));
    }

    #[test]
    fn scenario_ticks_are_capped_per_sweep() {
        let accepts = |count: usize, ticks: usize| {
            let doc = parse(&spec_doc(&format!(
                r#"{{"count": {count}, "ticks": {ticks}}}"#
            )))
            .unwrap();
            match SweepSpec::from_json(&doc) {
                Ok(_) => true,
                Err(ServiceError::TooLarge(_)) => false,
                Err(e) => panic!("{count} x {ticks}: {e}"),
            }
        };
        // The largest benchmark sweep, and the cap exactly.
        assert!(accepts(64, 2_000));
        assert!(accepts(16_384, 1_024));
        // One tick over the cap, and both per-field maxima at once.
        assert!(!accepts(16_384, 1_025));
        assert!(!accepts(MAX_SCENARIOS, MAX_TICKS));
        assert_eq!(16_384 * 1_024, MAX_SCENARIO_TICKS);
    }

    #[test]
    fn execute_streams_count_lines_in_order() {
        let doc = parse(&spec_doc(
            r#"{"count": 37, "ticks": 16, "lanes": 8,
                "inputs": [{"port": "u", "kind": "ramp", "from": 0, "to": 1, "to_step": 0.25}]}"#,
        ))
        .unwrap();
        let spec = Arc::new(SweepSpec::from_json(&doc).unwrap());
        let sim = compiled();
        let pool = WorkerPool::new(4);
        let mut lines = Vec::new();
        let outcome = execute(&spec, &sim, &pool, ExecOpts { oracle_every: 2 }, &mut |l| {
            lines.push(l.to_string());
            Ok(())
        })
        .unwrap();
        assert_eq!(lines.len(), 37);
        assert_eq!(outcome.scenarios, 37);
        assert_eq!(outcome.shards, 5);
        assert_eq!(outcome.oracle_shards, 3);
        assert_eq!(outcome.oracle_divergences, 0);
        assert!(!outcome.failed);
        for (i, line) in lines.iter().enumerate() {
            let v = parse(line).unwrap();
            assert_eq!(v.get("scenario").unwrap().as_u64(), Some(i as u64));
            assert!(v.get("result").is_some(), "line {i} missing result");
        }
        pool.shutdown();
    }

    #[test]
    fn scenario_results_match_direct_runs() {
        let doc = parse(&spec_doc(
            r#"{"count": 9, "ticks": 12, "lanes": 4,
                "inputs": [{"port": "u", "kind": "constant", "value": 1.0, "value_step": 0.5}]}"#,
        ))
        .unwrap();
        let spec = Arc::new(SweepSpec::from_json(&doc).unwrap());
        let sim = compiled();
        let pool = WorkerPool::new(2);
        let mut lines = Vec::new();
        execute(&spec, &sim, &pool, ExecOpts::default(), &mut |l| {
            lines.push(l.to_string());
            Ok(())
        })
        .unwrap();
        // Scenario i drives u = 1.0 + 0.5 i; the direct run must encode to
        // the identical line.
        let mut direct = (*sim).clone();
        for (i, line) in lines.iter().enumerate() {
            let inputs = vec![(
                "u",
                stimulus::constant(Value::Float(1.0 + 0.5 * i as f64), 12),
            )];
            let run = direct.run(&inputs, 12).unwrap();
            assert_eq!(line, &scenario_line(i, &run, false, None, None));
        }
        pool.shutdown();
    }

    #[test]
    fn lane_mod_faults_change_only_selected_scenarios() {
        let doc = parse(&spec_doc(
            r#"{"count": 8, "ticks": 10, "lanes": 4,
                "inputs": [{"port": "u", "kind": "constant", "value": 3.0}],
                "faults": [{"target": "y", "kind": "drop", "every": 1, "lane_mod": 4}]}"#,
        ))
        .unwrap();
        let spec = Arc::new(SweepSpec::from_json(&doc).unwrap());
        let sim = compiled();
        let pool = WorkerPool::new(2);
        let mut lines = Vec::new();
        execute(&spec, &sim, &pool, ExecOpts::default(), &mut |l| {
            lines.push(l.to_string());
            Ok(())
        })
        .unwrap();
        // Scenarios 0 and 4 have y fully dropped; others are identical to
        // each other.
        assert_ne!(
            lines[0].replace("\"scenario\":0", ""),
            lines[1].replace("\"scenario\":1", "")
        );
        assert_eq!(
            lines[1].replace("\"scenario\":1", ""),
            lines[2].replace("\"scenario\":2", "")
        );
        assert_eq!(
            lines[0].replace("\"scenario\":0", ""),
            lines[4].replace("\"scenario\":4", "")
        );
        pool.shutdown();
    }

    #[test]
    fn robustness_and_trace_flags_extend_lines() {
        let doc = parse(&spec_doc(
            r#"{"count": 2, "ticks": 6, "lanes": 2, "trace": true, "robustness": true,
                "inputs": [{"port": "u", "kind": "random", "lo": 0, "hi": 1, "seed": 7}]}"#,
        ))
        .unwrap();
        let spec = Arc::new(SweepSpec::from_json(&doc).unwrap());
        let sim = compiled();
        let pool = WorkerPool::new(1);
        let mut lines = Vec::new();
        execute(&spec, &sim, &pool, ExecOpts::default(), &mut |l| {
            lines.push(l.to_string());
            Ok(())
        })
        .unwrap();
        for line in &lines {
            let v = parse(line).unwrap();
            let result = v.get("result").unwrap();
            assert!(result.get("trace").is_some());
            assert!(result.get("robustness").is_some());
        }
        pool.shutdown();
    }

    #[test]
    fn sink_failure_drains_without_deadlock() {
        let doc = parse(&spec_doc(r#"{"count": 64, "ticks": 8, "lanes": 4}"#)).unwrap();
        let spec = Arc::new(SweepSpec::from_json(&doc).unwrap());
        let sim = compiled();
        let pool = WorkerPool::new(4);
        let mut emitted = 0usize;
        let err = execute(
            &spec,
            &sim,
            &pool,
            ExecOpts { oracle_every: 0 },
            &mut |_| {
                emitted += 1;
                if emitted > 5 {
                    Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // All jobs still drained; the pool shuts down cleanly.
        pool.shutdown();
    }

    #[test]
    fn sink_failure_stops_lane_checks() {
        // Shard 0 is checked by the writer; the sink fails on its third
        // line, after which no lane is re-run or sent.
        let doc = parse(&spec_doc(
            r#"{"count": 64, "ticks": 8, "lanes": 8,
                "inputs": [{"port": "u", "kind": "ramp", "to_step": 0.5}]}"#,
        ))
        .unwrap();
        let spec = Arc::new(SweepSpec::from_json(&doc).unwrap());
        let pool = WorkerPool::new(2);
        let mut calls = 0usize;
        let err = execute(
            &spec,
            &compiled(),
            &pool,
            ExecOpts { oracle_every: 2 },
            &mut |line| {
                calls += 1;
                assert!(line.contains("\"result\""), "{line}");
                if calls > 2 {
                    Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(calls, 3);
        pool.shutdown();
    }
}
