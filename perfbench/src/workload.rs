//! The four workloads and the fixed request lists they send.
//!
//! Every request body is a pure function of the workload seed, the run
//! length and the quick flag: the same arguments give the same bytes, and
//! the service sees nothing but those bytes. The request count scales
//! with `--seconds` through a fixed nominal rate per workload, never with
//! measured speed, so two runs with the same arguments do the same work.

use automode_core::json::JsonWriter;
use automode_core::text::to_text;
use automode_kernel::{Stream, Value};
use automode_sim::stimulus;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Identical engine sweeps: every request after warm-up hits the
    /// compiled-model cache, so the kernel's batch loop dominates.
    SweepHot,
    /// A distinct generated model per request: every request misses the
    /// cache, so parse/elaborate/prepare and the miss path are weighted.
    SweepCold,
    /// Engine sweeps with traces on: few, long scenarios whose encoded
    /// traces cost about as much as stepping them.
    SweepTrace,
    /// Coverage-guided exploration of the engine over a seed list: the
    /// only path through the explorer's search and shrinker.
    Explore,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SweepHot,
        Workload::SweepCold,
        Workload::SweepTrace,
        Workload::Explore,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepHot => "sweep_hot",
            Workload::SweepCold => "sweep_cold",
            Workload::SweepTrace => "sweep_trace",
            Workload::Explore => "explore",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per second the request list is sized by, about what one
    /// closed-loop client achieves against one pool worker on a 2-vCPU
    /// host. Only the list length depends on it.
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::SweepHot => 3.3,
            Workload::SweepCold => 120.0,
            Workload::SweepTrace => 1.0,
            Workload::Explore => 8.5,
        }
    }

    /// Length of the timed request list.
    pub fn request_count(self, seconds: u64, quick: bool) -> usize {
        if quick {
            return 4;
        }
        ((seconds as f64 * self.nominal_rate()).round() as usize).max(5)
    }

    /// How many times a run starts a server and sends the warm-up
    /// request; `setup_s` is the median.
    pub fn setup_repeats(self, quick: bool) -> usize {
        match (quick, self) {
            (true, _) => 2,
            (false, Workload::SweepCold) => 15,
            (false, _) => 5,
        }
    }

    /// How many requests of the list the traced run replays layer by layer.
    pub fn traced_requests(self, quick: bool) -> usize {
        match (quick, self) {
            (true, _) => 2,
            (false, Workload::SweepHot) => 6,
            (false, Workload::SweepCold) => 48,
            (false, Workload::SweepTrace) => 4,
            (false, Workload::Explore) => 8,
        }
    }
}

/// One input port's stimulus template, as sent and as the service
/// materializes it.
#[derive(Debug, Clone)]
pub enum Stim {
    /// A constant Boolean.
    Bool(bool),
    /// Seeded uniform floats in `[lo, hi)`; scenario `i` draws with
    /// `seed + i`.
    Random {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Base seed.
        seed: u64,
    },
}

/// A stimulus bound to an input port.
#[derive(Debug, Clone)]
pub struct Input {
    /// Port name.
    pub port: &'static str,
    /// Its stimulus.
    pub stim: Stim,
}

impl Input {
    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("port").string(self.port);
        match self.stim {
            Stim::Bool(b) => {
                w.field("kind").string("constant");
                w.field("value").boolean(b);
            }
            Stim::Random { lo, hi, seed } => {
                w.field("kind").string("random");
                w.field("lo").number(lo);
                w.field("hi").number(hi);
                w.field("seed").uint(seed);
            }
        }
        w.end_object();
    }

    /// The stream the service builds for scenario `i`.
    pub fn stream(&self, i: usize, ticks: usize) -> Stream {
        match self.stim {
            Stim::Bool(b) => stimulus::constant(Value::Bool(b), ticks),
            Stim::Random { lo, hi, seed } => {
                stimulus::seeded_random(lo, hi, ticks, seed.wrapping_add(i as u64))
            }
        }
    }
}

/// A `POST /sweep` request.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The request body.
    pub body: String,
    /// The input templates the body carries.
    pub inputs: Vec<Input>,
    /// Scenarios.
    pub count: usize,
    /// Ticks per scenario.
    pub ticks: usize,
    /// Lane width K.
    pub lanes: usize,
    /// Whether each scenario line carries its trace.
    pub trace: bool,
}

/// A `POST /explore` request.
#[derive(Debug, Clone)]
pub struct Explore {
    /// The request body.
    pub body: String,
    /// Generations.
    pub generations: usize,
    /// Scenarios per generation.
    pub population: usize,
}

/// One request of a workload.
#[derive(Debug, Clone)]
pub enum Request {
    /// A sweep.
    Sweep(Sweep),
    /// An exploration.
    Explore(Explore),
}

impl Request {
    /// The request body.
    pub fn body(&self) -> &str {
        match self {
            Request::Sweep(s) => &s.body,
            Request::Explore(e) => &e.body,
        }
    }

    /// The route the request goes to.
    pub fn path(&self) -> &'static str {
        match self {
            Request::Sweep(_) => "/sweep",
            Request::Explore(_) => "/explore",
        }
    }

    /// Scenarios the service runs for this request.
    pub fn scenarios(&self) -> usize {
        match self {
            Request::Sweep(s) => s.count,
            Request::Explore(e) => e.generations * e.population,
        }
    }
}

/// A workload's warm-up request and its fixed timed request list.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Sent once per server start; always a cache miss.
    pub warmup: Request,
    /// The timed requests, in order.
    pub requests: Vec<Request>,
}

/// Salt of the warm-up request's seed, distinct from every list index.
const WARMUP: u64 = u64::MAX;

/// Base of `explore`'s fixed seed list.
const EXPLORE_LIST: u64 = 2005;

/// SplitMix64 of `seed` and `salt`: independent sub-seeds per request.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reengineered engine controller of the paper's case study, as
/// `.amdl` text.
fn engine_text() -> String {
    let engine = automode_engine::reengineer_engine().expect("the engine model reengineers");
    to_text(&engine.model)
}

/// Engine inputs: ignition on, seeded-random rpm, throttle and lambda
/// probe readings over their operating ranges.
fn engine_inputs(seed: u64) -> Vec<Input> {
    let random = |port, lo, hi, salt| Input {
        port,
        stim: Stim::Random {
            lo,
            hi,
            seed: mix(seed, salt) >> 16,
        },
    };
    vec![
        Input {
            port: "key_on",
            stim: Stim::Bool(true),
        },
        random("rpm", 0.0, 7000.0, 1),
        random("throttle", 0.0, 1.0, 2),
        random("o2", 0.0, 2.0, 3),
    ]
}

fn sweep(
    model: &str,
    inputs: Vec<Input>,
    count: usize,
    ticks: usize,
    lanes: usize,
    trace: bool,
) -> Request {
    let mut w = JsonWriter::with_capacity(model.len() + 512);
    w.begin_object();
    w.field("model").string(model);
    w.field("count").uint(count as u64);
    w.field("ticks").uint(ticks as u64);
    w.field("lanes").uint(lanes as u64);
    w.field("trace").boolean(trace);
    w.field("inputs");
    w.begin_array();
    for input in &inputs {
        input.write(&mut w);
    }
    w.end_array();
    w.end_object();
    Request::Sweep(Sweep {
        body: w.finish(),
        inputs,
        count,
        ticks,
        lanes,
        trace,
    })
}

fn explore(model: &str, seed: u64, generations: usize, population: usize, ticks: usize) -> Request {
    let mut w = JsonWriter::with_capacity(model.len() + 512);
    w.begin_object();
    w.field("model").string(model);
    w.field("generations").uint(generations as u64);
    w.field("population").uint(population as u64);
    w.field("ticks").uint(ticks as u64);
    w.field("lanes").uint(8);
    w.field("seed").uint(seed);
    w.field("ranges");
    w.begin_array();
    for (port, hi) in [("rpm", 7000.0), ("throttle", 1.0), ("o2", 2.0)] {
        w.begin_object();
        w.field("port").string(port);
        w.field("lo").number(0.0);
        w.field("hi").number(hi);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    Request::Explore(Explore {
        body: w.finish(),
        generations,
        population,
    })
}

/// The mode-rich generated controller for `sweep_cold`, as `.amdl` text.
fn cold_model(seed: u64, quick: bool) -> String {
    let (modes, blocks) = if quick { (3, 4) } else { (8, 24) };
    to_text(&automode_bench::moded_controller(modes, blocks, seed).0)
}

fn cold_request(seed: u64, quick: bool) -> Request {
    let inputs = vec![Input {
        port: "in",
        stim: Stim::Random {
            lo: 0.0,
            hi: 16.0,
            seed: seed >> 16,
        },
    }];
    let (count, ticks) = if quick { (8, 8) } else { (8, 16) };
    sweep(&cold_model(seed, quick), inputs, count, ticks, 8, false)
}

impl Plan {
    /// Builds the request list of `workload` for `seed`.
    pub fn build(workload: Workload, seed: u64, seconds: u64, quick: bool) -> Plan {
        let n = workload.request_count(seconds, quick);
        match workload {
            Workload::SweepHot | Workload::SweepTrace => {
                let (count, ticks, lanes, trace) = match (workload, quick) {
                    (Workload::SweepHot, false) => (512, 200, 32, false),
                    (Workload::SweepHot, true) => (64, 16, 32, false),
                    (_, false) => (64, 2000, 32, true),
                    (_, true) => (8, 64, 8, true),
                };
                let req = sweep(
                    &engine_text(),
                    engine_inputs(seed),
                    count,
                    ticks,
                    lanes,
                    trace,
                );
                Plan {
                    workload,
                    warmup: req.clone(),
                    requests: vec![req; n],
                }
            }
            Workload::SweepCold => Plan {
                workload,
                warmup: cold_request(mix(seed, WARMUP), quick),
                requests: (0..n as u64)
                    .map(|i| cold_request(mix(seed, i), quick))
                    .collect(),
            },
            Workload::Explore => {
                let text = engine_text();
                let (generations, population, ticks) =
                    if quick { (2, 8, 16) } else { (12, 32, 64) };
                let req = |s| explore(&text, s, generations, population, ticks);
                // A fixed seed list, so every run explores the same seeds:
                // per-seed work varies widely with how many violations a
                // seed finds and shrinks, and a seed-drawn list made each
                // run do different work. `--seed` shuffles the order.
                let mut seeds: Vec<u64> =
                    (0..n as u64).map(|i| mix(EXPLORE_LIST, i) >> 16).collect();
                for i in (1..seeds.len()).rev() {
                    seeds.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
                }
                Plan {
                    workload,
                    warmup: req(mix(EXPLORE_LIST, WARMUP) >> 16),
                    requests: seeds.into_iter().map(req).collect(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_their_arguments() {
        for w in Workload::ALL {
            let a = Plan::build(w, 7, 1, true);
            let b = Plan::build(w, 7, 1, true);
            let c = Plan::build(w, 8, 1, true);
            let bodies = |p: &Plan| {
                p.requests
                    .iter()
                    .map(|r| r.body().to_string())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bodies(&a), bodies(&b), "{}", w.name());
            assert_ne!(bodies(&a), bodies(&c), "{}", w.name());
            if w == Workload::Explore {
                // Another seed reorders the same fixed seed list.
                let (mut x, mut y) = (bodies(&a), bodies(&c));
                x.sort();
                y.sort();
                assert_eq!(x, y);
            }
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
