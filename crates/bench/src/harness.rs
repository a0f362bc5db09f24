//! The one timer and results writer every bench target uses.

use std::hint::black_box;
use std::time::Instant;

use automode_core::json::JsonWriter;

/// Whether `AUTOMODE_BENCH_QUICK=1` asks for the small CI workload.
pub fn quick_mode() -> bool {
    std::env::var("AUTOMODE_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Whether `AUTOMODE_BENCH_ENFORCE=1` asks a bench to exit nonzero when
/// one of its gates fails.
pub fn enforce_mode() -> bool {
    std::env::var("AUTOMODE_BENCH_ENFORCE").is_ok_and(|v| v == "1")
}

/// One timed arm of a bench: a named routine doing `work` units (ticks,
/// scenarios, ...) per call.
pub struct Arm<'a> {
    name: String,
    work: f64,
    /// Whether the timer batches calls so a round lasts long enough to
    /// time (figure benches' short routines), or makes one call a round.
    batched: bool,
    /// Runs the arm's setup untimed, then `n` timed calls on its output;
    /// returns the timed seconds.
    run: Box<dyn FnMut(u64) -> f64 + 'a>,
}

impl<'a> Arm<'a> {
    /// An arm whose every round runs `setup` untimed and then times one
    /// `routine` call (`work` units) on its output. What the call returns
    /// is dropped inside the timed region; the setup's output after it.
    pub fn new<S, R>(
        name: impl Into<String>,
        work: f64,
        mut setup: impl FnMut() -> S + 'a,
        mut routine: impl FnMut(&mut S) -> R + 'a,
    ) -> Self {
        Arm {
            name: name.into(),
            work,
            batched: false,
            run: Box::new(move |n| {
                let mut input = setup();
                let start = Instant::now();
                for _ in 0..n {
                    black_box(routine(&mut input));
                }
                start.elapsed().as_secs_f64()
            }),
        }
    }

    /// An arm timing `routine` alone, in batches of calls sized so a round
    /// lasts long enough to time (50 ms; 5 ms in quick mode): its rates
    /// are calls per second.
    pub fn iter<R>(name: impl Into<String>, mut routine: impl FnMut() -> R + 'a) -> Self {
        Arm {
            batched: true,
            ..Arm::new(name, 1.0, || (), move |()| routine())
        }
    }
}

/// Timed rounds per arm: odd, so the median is one round's value.
fn rounds() -> usize {
    if quick_mode() {
        5
    } else {
        7
    }
}

/// One arm's rates over the rounds, in work units per second.
#[derive(Debug)]
pub struct Timing {
    /// The arm's name.
    pub arm: String,
    /// The median round's rate.
    pub median: f64,
    /// The 10th percentile of the round rates (the slow end).
    pub p10: f64,
    /// The 90th percentile of the round rates (the fast end).
    pub p90: f64,
}

/// The `q` quantile of `sorted` by linear interpolation between ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Times `arms` in interleaved rounds (7; 5 in quick mode; each round
/// runs every arm once, in order, so a slow stretch of the host hits all
/// of them) after one untimed warm-up call each, and returns each arm's
/// median, p10 and p90 rate. A batched arm's warm-up doubles its calls per
/// round until a round lasts 50 ms (5 ms in quick mode).
pub fn time_arms(mut arms: Vec<Arm<'_>>) -> Vec<Timing> {
    let rounds = rounds();
    let min_round = if quick_mode() { 0.005 } else { 0.05 };
    let calls: Vec<u64> = arms
        .iter_mut()
        .map(|arm| {
            let mut n = 1;
            while (arm.run)(n) < min_round && arm.batched {
                n *= 2;
            }
            n
        })
        .collect();
    let mut rates = vec![Vec::with_capacity(rounds); arms.len()];
    for _ in 0..rounds {
        for ((arm, &n), rates) in arms.iter_mut().zip(&calls).zip(&mut rates) {
            rates.push(arm.work * n as f64 / (arm.run)(n));
        }
    }
    arms.into_iter()
        .zip(rates)
        .map(|(arm, mut r)| {
            r.sort_by(f64::total_cmp);
            Timing {
                arm: arm.name,
                median: quantile(&r, 0.5),
                p10: quantile(&r, 0.1),
                p90: quantile(&r, 0.9),
            }
        })
        .collect()
}

/// Times a figure bench's [`Arm::iter`] arms and prints each one's time
/// per call as `[fast median slow]` (the p90, median and p10 rates).
pub fn time_and_print(arms: Vec<Arm<'_>>) {
    let secs = |rate: f64| {
        let s = 1.0 / rate;
        match s {
            s if s < 1e-6 => format!("{:.2} ns", s * 1e9),
            s if s < 1e-3 => format!("{:.2} µs", s * 1e6),
            s if s < 1.0 => format!("{:.2} ms", s * 1e3),
            s => format!("{s:.2} s"),
        }
    };
    for t in time_arms(arms) {
        println!(
            "{:<50} time: [{} {} {}]",
            t.arm,
            secs(t.p90),
            secs(t.median),
            secs(t.p10)
        );
    }
}

/// A gate: `value` must be at least (or at most) `threshold`.
struct Gate {
    name: String,
    value: f64,
    threshold: f64,
    at_least: bool,
}

impl Gate {
    fn rule(&self) -> &'static str {
        if self.at_least {
            ">="
        } else {
            "<="
        }
    }

    /// Whether the gate holds; a NaN value (nothing measured) fails.
    fn passes(&self) -> bool {
        if self.at_least {
            self.value >= self.threshold
        } else {
            self.value <= self.threshold
        }
    }
}

/// One scenario's arm timings and the ratios of their medians.
struct Scenario {
    name: String,
    timings: Vec<Timing>,
    ratios: Vec<(String, f64)>,
}

/// One bench's results in the schema every `BENCH_*.json` shares: the
/// bench, its unit, quick or full, the host, the round count, per
/// scenario each arm's median/p10/p90 rate and the ratios of medians,
/// each gate's threshold, value and verdict, and one field of non-timing
/// data. [`write_results`] writes the file.
pub struct Results {
    bench: &'static str,
    unit: &'static str,
    scenarios: Vec<Scenario>,
    gates: Vec<Gate>,
    data: Option<String>,
}

impl Results {
    /// Results of `bench`, whose rates are in `unit`.
    pub fn new(bench: &'static str, unit: &'static str) -> Results {
        Results {
            bench,
            unit,
            scenarios: Vec::new(),
            gates: Vec::new(),
            data: None,
        }
    }

    /// Records (and prints) scenario `name`'s arm timings.
    pub fn scenario(&mut self, name: impl Into<String>, timings: Vec<Timing>) {
        let name = name.into();
        for t in &timings {
            println!(
                "{}/{name}/{}: {:.1} {} (p10 {:.1}, p90 {:.1})",
                self.bench, t.arm, t.median, self.unit, t.p10, t.p90
            );
        }
        self.scenarios.push(Scenario {
            name,
            timings,
            ratios: Vec::new(),
        });
    }

    /// Records (and prints) the ratio of arm `num`'s median to arm `den`'s
    /// in the last recorded scenario, and returns it.
    ///
    /// # Panics
    ///
    /// If no scenario is recorded or it has no such arms.
    pub fn ratio(&mut self, num: &str, den: &str) -> f64 {
        let s = self.scenarios.last_mut().expect("a scenario first");
        let median = |arm: &str| {
            let t = s.timings.iter().find(|t| t.arm == arm);
            t.unwrap_or_else(|| panic!("{} has no arm {arm}", s.name))
                .median
        };
        let r = median(num) / median(den);
        println!("{}/{}: {num}/{den} = {r:.2}x", self.bench, s.name);
        s.ratios.push((format!("{num}/{den}"), r));
        r
    }

    /// Gates `value` at `>= threshold`.
    pub fn gate_at_least(&mut self, name: impl Into<String>, value: f64, threshold: f64) {
        self.gate(name.into(), value, threshold, true);
    }

    /// Gates `value` at `<= threshold`.
    pub fn gate_at_most(&mut self, name: impl Into<String>, value: f64, threshold: f64) {
        self.gate(name.into(), value, threshold, false);
    }

    fn gate(&mut self, name: String, value: f64, threshold: f64, at_least: bool) {
        self.gates.push(Gate {
            name,
            value,
            threshold,
            at_least,
        });
    }

    /// Sets the non-timing data: one JSON value (a curve, workload sizes).
    pub fn data(&mut self, json: String) {
        self.data = Some(json);
    }
}

/// Writes `results` as `file` (e.g. `BENCH_batch.json`): at the
/// repository root for a full run, under `target/bench-quick/` for a
/// quick one, so a smoke run never overwrites the committed results.
/// Prints every gate's verdict and, in [`enforce_mode`], exits 1 when
/// one fails.
///
/// # Panics
///
/// If the file cannot be written.
pub fn write_results(file: &str, results: Results) {
    let quick = quick_mode();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field("bench").string(results.bench);
    w.field("unit").string(results.unit);
    w.field("quick").boolean(quick);
    w.field("host").begin_object();
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    w.field("cpus").uint(cpus as u64);
    w.field("os").string(std::env::consts::OS);
    w.field("arch").string(std::env::consts::ARCH);
    w.end_object();
    w.field("rounds").uint(rounds() as u64);
    w.field("scenarios").begin_object();
    for s in &results.scenarios {
        w.field(&s.name).begin_object();
        for t in &s.timings {
            w.field(&t.arm).begin_object();
            w.field("median").number(round3(t.median));
            w.field("p10").number(round3(t.p10));
            w.field("p90").number(round3(t.p90));
            w.end_object();
        }
        if !s.ratios.is_empty() {
            w.field("ratios").begin_object();
            for (ratio, r) in &s.ratios {
                w.field(ratio).number(round3(*r));
            }
            w.end_object();
        }
        w.end_object();
    }
    w.end_object();
    w.field("gates").begin_array();
    for g in &results.gates {
        w.begin_object();
        w.field("name").string(&g.name);
        w.field("rule").string(g.rule());
        w.field("threshold").number(g.threshold);
        w.field("value").number(round3(g.value));
        w.field("pass").boolean(g.passes());
        w.end_object();
    }
    w.end_array();
    w.field("data");
    match &results.data {
        Some(json) => w.raw(json),
        None => w.null(),
    };
    w.end_object();
    let mut json = w.finish();
    json.push('\n');

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let dir = if quick {
        format!("{root}/target/bench-quick")
    } else {
        root.to_string()
    };
    let path = format!("{dir}/{file}");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");

    let mut failed = false;
    for g in &results.gates {
        let (name, value, rule, threshold) = (&g.name, g.value, g.rule(), g.threshold);
        if g.passes() {
            println!("gate: {name} = {value:.2} ({rule} {threshold})");
        } else {
            eprintln!("FAIL: {name} = {value:.2} (gate {rule} {threshold})");
            failed = true;
        }
    }
    if failed && enforce_mode() {
        std::process::exit(1);
    }
}

/// `v` to three decimal places, so results files stay readable.
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&sorted, 0.5), 3.0);
        assert_eq!(quantile(&sorted, 0.1), 1.4);
        assert_eq!(quantile(&sorted, 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn arms_come_back_in_order_with_their_setup_untimed() {
        let mut setups = 0;
        let timings = time_arms(vec![
            Arm::new(
                "slow_setup",
                10.0,
                || {
                    setups += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                },
                |()| black_box(1 + 1),
            ),
            Arm::iter("batched", || black_box(2 + 2)),
        ]);
        assert_eq!(setups, rounds() + 1, "one warm-up call, then one per round");
        let names: Vec<&str> = timings.iter().map(|t| t.arm.as_str()).collect();
        assert_eq!(names, ["slow_setup", "batched"]);
        for t in &timings {
            assert!(t.p10 <= t.median && t.median <= t.p90, "{t:?}");
        }
        // 10 units in far less than the 2 ms setup: the sleep is untimed.
        assert!(timings[0].median > 10.0 / 0.002, "{:?}", timings[0]);
    }

    #[test]
    fn a_gate_without_a_value_fails() {
        let gate = |value, at_least| Gate {
            name: String::new(),
            value,
            threshold: 1.0,
            at_least,
        };
        assert!(gate(2.0, true).passes() && !gate(2.0, false).passes());
        assert!(!gate(f64::NAN, true).passes() && !gate(f64::NAN, false).passes());
    }
}
