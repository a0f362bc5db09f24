//! Multi-scenario simulation throughput: how fast can K variants of a
//! drive scenario be swept?
//!
//! Three strategies, each measured over three workload shapes that stress
//! different parts of the vectorized batch executor:
//!
//! * `fresh` — the repeated single-run loop: one compile (elaborate +
//!   causality + prepare) *per scenario*, then `run`;
//! * `reuse` — one compiled handle, K sequential `run` calls (amortizes
//!   compilation, still one lane per pass);
//! * `batch` — one compiled handle, one `run_batch` over all K lanes
//!   (amortizes compilation *and* steps every lane per plan pass through
//!   the typed-column lane executor).
//!
//! Shapes:
//!
//! * `stateless_heavy` — a kernel-level network of `Lift2`/`AddN` float
//!   operators: every node takes the lane-kernel path and uniform `f64`
//!   columns hit the tight bit-column loops;
//! * `delay_heavy` — an SSD chain: per-hop delays exercise the stateful
//!   lane kernels' contiguous commit rotations;
//! * `expr_heavy` — a random causal DFD of expression blocks: the
//!   bytecode VM's lane-batched column interpreter.
//!
//! A mode-rich controller (its root MTD runs on the MTD lane kernel) is
//! cross-checked for batch == sequential correctness before timing, but
//! not timed.
//!
//! Writes `BENCH_batch.json` at the repository root
//! (under `target/bench-quick/` in quick mode) with
//! scenarios/second per strategy and the pairwise speedups, per shape,
//! for K in {1, 8, 32, 128}.
//!
//! Env knobs: `AUTOMODE_BENCH_QUICK=1` shrinks the workload for CI;
//! `AUTOMODE_BENCH_ENFORCE=1` exits nonzero unless at K = 32 every shape
//! has batch >= 2x fresh AND batch >= 2x reuse.

use std::hint::black_box;
use std::time::Instant;

use automode_bench::{moded_controller, random_causal_dfd, ssd_chain, stateless_ops_network};
use automode_kernel::{Message, Network, ReadyNetwork, Stream, Value};
use automode_sim::{stimulus, BatchScenario, CompiledSim};

/// K lane-scaled ramp scenarios: lane `l` ramps the boundary input to a
/// lane-specific peak, so each variant explores its own value region while
/// compilation is shared.
fn scenarios(k: usize, ticks: usize) -> Vec<Vec<(&'static str, Stream)>> {
    (0..k)
        .map(|l| {
            let top = 3.0 + l as f64 * 0.1;
            vec![("in", stimulus::ramp(0.0, top, ticks))]
        })
        .collect()
}

/// The same ramp scenarios as raw kernel stimulus rows (one float input).
fn kernel_stimuli(k: usize, ticks: usize) -> Vec<Vec<Vec<Message>>> {
    (0..k)
        .map(|l| {
            let top = 3.0 + l as f64 * 0.1;
            (0..ticks)
                .map(|t| {
                    let v = top * t as f64 / ticks.max(1) as f64;
                    vec![Message::present(Value::Float(v))]
                })
                .collect()
        })
        .collect()
}

struct KResult {
    k: usize,
    fresh: f64,
    reuse: f64,
    batch: f64,
}

struct ShapeResult {
    shape: &'static str,
    results: Vec<KResult>,
}

/// Measures one model-backed shape through `CompiledSim` for every K.
fn measure_model_shape(
    shape: &'static str,
    m: &automode_core::model::Model,
    id: automode_core::model::ComponentId,
    ks: &[usize],
    ticks: usize,
    rounds: usize,
) -> ShapeResult {
    // Correctness cross-check before timing anything: the batch must agree
    // with sequential runs on the exact scenarios being measured.
    {
        let inputs = scenarios(4, ticks);
        let specs: Vec<BatchScenario<'_>> = inputs
            .iter()
            .map(|lane| BatchScenario::new(lane, ticks))
            .collect();
        let mut sim = CompiledSim::new(m, id).unwrap();
        let batch = sim.run_batch(&specs).unwrap();
        for (lane, inp) in inputs.iter().enumerate() {
            assert_eq!(
                batch[lane],
                sim.run(inp, ticks).unwrap(),
                "{shape}: lane {lane}"
            );
        }
    }
    let mut results = Vec::new();
    for &k in ks {
        let inputs = scenarios(k, ticks);
        let (mut fresh, mut reuse, mut batch) = (0.0f64, 0.0f64, 0.0f64);
        // Best of `rounds` interleaved rounds per strategy, so a scheduler
        // hiccup cannot skew one side.
        for _ in 0..rounds {
            fresh = fresh.max({
                let start = Instant::now();
                for lane in &inputs {
                    let mut sim = CompiledSim::new(m, id).unwrap();
                    black_box(sim.run(lane, ticks).unwrap());
                }
                inputs.len() as f64 / start.elapsed().as_secs_f64()
            });
            reuse = reuse.max({
                let mut sim = CompiledSim::new(m, id).unwrap();
                let start = Instant::now();
                for lane in &inputs {
                    black_box(sim.run(lane, ticks).unwrap());
                }
                inputs.len() as f64 / start.elapsed().as_secs_f64()
            });
            batch = batch.max({
                let sim = CompiledSim::new(m, id).unwrap();
                let specs: Vec<BatchScenario<'_>> = inputs
                    .iter()
                    .map(|lane| BatchScenario::new(lane, ticks))
                    .collect();
                let start = Instant::now();
                black_box(sim.run_batch(&specs).unwrap());
                inputs.len() as f64 / start.elapsed().as_secs_f64()
            });
        }
        report_k(shape, k, fresh, reuse, batch);
        results.push(KResult {
            k,
            fresh,
            reuse,
            batch,
        });
    }
    ShapeResult { shape, results }
}

/// Measures the kernel-level stateless-ops shape (no model layer — the
/// network is built and prepared directly) for every K.
fn measure_kernel_shape(
    shape: &'static str,
    build: &dyn Fn() -> Network,
    ks: &[usize],
    ticks: usize,
    rounds: usize,
) -> ShapeResult {
    {
        let stimuli = kernel_stimuli(4, ticks);
        let mut ready: ReadyNetwork = build().prepare().unwrap();
        let batch = ready.run_batch(&stimuli).unwrap();
        for (lane, stim) in stimuli.iter().enumerate() {
            ready.reset();
            assert_eq!(
                batch[lane],
                ready.run(stim).unwrap(),
                "{shape}: lane {lane}"
            );
        }
    }
    let mut results = Vec::new();
    for &k in ks {
        let stimuli = kernel_stimuli(k, ticks);
        let (mut fresh, mut reuse, mut batch) = (0.0f64, 0.0f64, 0.0f64);
        for _ in 0..rounds {
            fresh = fresh.max({
                let start = Instant::now();
                for lane in &stimuli {
                    let mut ready = build().prepare().unwrap();
                    black_box(ready.run(lane).unwrap());
                }
                stimuli.len() as f64 / start.elapsed().as_secs_f64()
            });
            reuse = reuse.max({
                let mut ready = build().prepare().unwrap();
                let start = Instant::now();
                for lane in &stimuli {
                    ready.reset();
                    black_box(ready.run(lane).unwrap());
                }
                stimuli.len() as f64 / start.elapsed().as_secs_f64()
            });
            batch = batch.max({
                let ready = build().prepare().unwrap();
                let start = Instant::now();
                black_box(ready.run_batch(&stimuli).unwrap());
                stimuli.len() as f64 / start.elapsed().as_secs_f64()
            });
        }
        report_k(shape, k, fresh, reuse, batch);
        results.push(KResult {
            k,
            fresh,
            reuse,
            batch,
        });
    }
    ShapeResult { shape, results }
}

fn report_k(shape: &str, k: usize, fresh: f64, reuse: f64, batch: f64) {
    println!(
        "batch_throughput/{shape}/K={k:<4} fresh: {fresh:>9.1}/s   reuse: {reuse:>9.1}/s   batch: {batch:>9.1}/s   batch/reuse: {:.2}x   batch/fresh: {:.2}x",
        batch / reuse,
        batch / fresh
    );
}

fn main() {
    let quick = automode_bench::quick_mode();
    let (ticks, rounds, ks): (usize, usize, &[usize]) = if quick {
        (60, 2, &[1, 8, 32])
    } else {
        (200, 3, &[1, 8, 32, 128])
    };

    // MTD correctness cross-check: the moded controller's root MTD runs on
    // the MTD lane kernel, each mode subnet on its own lane stepper.
    {
        let (m, id) = moded_controller(if quick { 10 } else { 40 }, 40, 7);
        let inputs = scenarios(4, ticks);
        let specs: Vec<BatchScenario<'_>> = inputs
            .iter()
            .map(|lane| BatchScenario::new(lane, ticks))
            .collect();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        let batch = sim.run_batch(&specs).unwrap();
        for (lane, inp) in inputs.iter().enumerate() {
            assert_eq!(
                batch[lane],
                sim.run(inp, ticks).unwrap(),
                "moded_controller: lane {lane}"
            );
        }
    }

    let mut shapes: Vec<ShapeResult> = Vec::new();
    {
        let n = if quick { 48 } else { 96 };
        shapes.push(measure_kernel_shape(
            "stateless_heavy",
            &|| stateless_ops_network(n, 11),
            ks,
            ticks,
            rounds,
        ));
    }
    {
        let (m, id) = ssd_chain(if quick { 32 } else { 64 });
        shapes.push(measure_model_shape(
            "delay_heavy",
            &m,
            id,
            ks,
            ticks,
            rounds,
        ));
    }
    {
        let (m, id) = random_causal_dfd(if quick { 40 } else { 64 }, 7);
        shapes.push(measure_model_shape("expr_heavy", &m, id, ks, ticks, rounds));
    }

    let mut json = String::from(
        "{\n  \"bench\": \"batch_throughput\",\n  \"unit\": \"scenarios_per_second\",\n",
    );
    json.push_str(&format!(
        "  \"ticks_per_scenario\": {ticks},\n  \"quick\": {quick},\n  \"shapes\": {{\n"
    ));
    for (s, shape) in shapes.iter().enumerate() {
        json.push_str(&format!("    \"{}\": {{\n", shape.shape));
        for (i, r) in shape.results.iter().enumerate() {
            json.push_str(&format!(
                "      \"{}\": {{ \"fresh\": {:.1}, \"reuse\": {:.1}, \"batch\": {:.1}, \"speedup_reuse_vs_fresh\": {:.2}, \"speedup_batch_vs_reuse\": {:.2}, \"speedup_batch_vs_fresh\": {:.2} }}{}\n",
                r.k,
                r.fresh,
                r.reuse,
                r.batch,
                r.reuse / r.fresh,
                r.batch / r.reuse,
                r.batch / r.fresh,
                if i + 1 < shape.results.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    }}{}\n",
            if s + 1 < shapes.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    automode_bench::write_results("BENCH_batch.json", &json);

    if std::env::var("AUTOMODE_BENCH_ENFORCE").is_ok_and(|v| v == "1") {
        let mut ok = true;
        for shape in &shapes {
            let Some(r) = shape.results.iter().find(|r| r.k == 32) else {
                continue;
            };
            let vs_fresh = r.batch / r.fresh;
            let vs_reuse = r.batch / r.reuse;
            if vs_fresh < 2.0 {
                eprintln!(
                    "FAIL: {}: batch vs fresh at K=32 is {vs_fresh:.2}x (< 2x gate)",
                    shape.shape
                );
                ok = false;
            }
            if vs_reuse < 2.0 {
                eprintln!(
                    "FAIL: {}: batch vs reuse at K=32 is {vs_reuse:.2}x (< 2x gate)",
                    shape.shape
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!("gate: every shape has batch >= 2x fresh and >= 2x reuse at K=32");
    }
}
