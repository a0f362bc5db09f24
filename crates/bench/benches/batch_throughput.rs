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
//! for K in {1, 8, 32, 128} (no 128 in quick mode).
//!
//! Env knobs: `AUTOMODE_BENCH_QUICK=1` shrinks the workload for CI;
//! `AUTOMODE_BENCH_ENFORCE=1` exits nonzero unless at K = 32 every shape
//! has batch >= 2x fresh AND batch >= 2x reuse.

use std::hint::black_box;

use automode_bench::{
    moded_controller, random_causal_dfd, ssd_chain, stateless_ops_network, time_arms, Arm, Results,
};
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

/// Checks that a batch agrees with sequential runs on `inputs`.
fn check_batch_matches_runs(
    shape: &str,
    m: &automode_core::model::Model,
    id: automode_core::model::ComponentId,
    inputs: &[Vec<(&'static str, Stream)>],
    ticks: usize,
) {
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

/// Times one model-backed shape through `CompiledSim` for every K.
fn measure_model_shape(
    results: &mut Results,
    shape: &str,
    m: &automode_core::model::Model,
    id: automode_core::model::ComponentId,
    ks: &[usize],
    ticks: usize,
) {
    // Correctness cross-check before timing anything: the batch must agree
    // with sequential runs on the exact scenarios being measured.
    check_batch_matches_runs(shape, m, id, &scenarios(4, ticks), ticks);
    for &k in ks {
        let inputs = scenarios(k, ticks);
        let specs: Vec<BatchScenario<'_>> = inputs
            .iter()
            .map(|lane| BatchScenario::new(lane, ticks))
            .collect();
        let compile = || CompiledSim::new(m, id).unwrap();
        let timings = time_arms(vec![
            Arm::new(
                "fresh",
                k as f64,
                || (),
                |()| {
                    for lane in &inputs {
                        black_box(compile().run(lane, ticks).unwrap());
                    }
                },
            ),
            Arm::new("reuse", k as f64, compile, |sim| {
                for lane in &inputs {
                    black_box(sim.run(lane, ticks).unwrap());
                }
            }),
            Arm::new("batch", k as f64, compile, |sim| {
                sim.run_batch(&specs).unwrap()
            }),
        ]);
        record_k(results, shape, k, timings);
    }
}

/// Times the kernel-level stateless-ops shape (no model layer — the
/// network is built and prepared directly) for every K.
fn measure_kernel_shape(
    results: &mut Results,
    shape: &str,
    build: &dyn Fn() -> Network,
    ks: &[usize],
    ticks: usize,
) {
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
    for &k in ks {
        let stimuli = kernel_stimuli(k, ticks);
        let prepare = || build().prepare().unwrap();
        let timings = time_arms(vec![
            Arm::new(
                "fresh",
                k as f64,
                || (),
                |()| {
                    for lane in &stimuli {
                        black_box(prepare().run(lane).unwrap());
                    }
                },
            ),
            Arm::new("reuse", k as f64, prepare, |ready| {
                for lane in &stimuli {
                    ready.reset();
                    black_box(ready.run(lane).unwrap());
                }
            }),
            Arm::new("batch", k as f64, prepare, |ready| {
                ready.run_batch(&stimuli).unwrap()
            }),
        ]);
        record_k(results, shape, k, timings);
    }
}

/// Records shape `shape` at `k` lanes with its speedups, gating batch
/// against both other strategies at K = 32.
fn record_k(results: &mut Results, shape: &str, k: usize, timings: Vec<automode_bench::Timing>) {
    results.scenario(format!("{shape}/K={k}"), timings);
    results.ratio("reuse", "fresh");
    let vs_reuse = results.ratio("batch", "reuse");
    let vs_fresh = results.ratio("batch", "fresh");
    if k == 32 {
        results.gate_at_least(format!("{shape} K=32 batch/fresh"), vs_fresh, 2.0);
        results.gate_at_least(format!("{shape} K=32 batch/reuse"), vs_reuse, 2.0);
    }
}

fn main() {
    let quick = automode_bench::quick_mode();
    let (ticks, ks): (usize, &[usize]) = if quick {
        (60, &[1, 8, 32])
    } else {
        (200, &[1, 8, 32, 128])
    };

    // MTD correctness cross-check: the moded controller's root MTD runs on
    // the MTD lane kernel, each mode subnet on its own lane stepper.
    let (m, id) = moded_controller(if quick { 10 } else { 40 }, 40, 7);
    check_batch_matches_runs("moded_controller", &m, id, &scenarios(4, ticks), ticks);

    let mut results = Results::new("batch_throughput", "scenarios_per_second");
    let n = if quick { 48 } else { 96 };
    measure_kernel_shape(
        &mut results,
        "stateless_heavy",
        &|| stateless_ops_network(n, 11),
        ks,
        ticks,
    );
    let (m, id) = ssd_chain(if quick { 32 } else { 64 });
    measure_model_shape(&mut results, "delay_heavy", &m, id, ks, ticks);
    let (m, id) = random_causal_dfd(if quick { 40 } else { 64 }, 7);
    measure_model_shape(&mut results, "expr_heavy", &m, id, ks, ticks);

    results.data(format!(r#"{{"ticks_per_scenario":{ticks}}}"#));
    automode_bench::write_results("BENCH_batch.json", results);
}
