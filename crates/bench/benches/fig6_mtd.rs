//! Experiment E6 (Fig. 6): the engine-operation MTD.
//!
//! Verifies the mode coverage of the standard drive cycle (shape claim:
//! every mode of Fig. 6 is exercised) and measures the interpretation
//! overhead of explicit modes against a behaviourally equivalent flat
//! conditional expression.

use automode_bench::{time_and_print, Arm};
use automode_core::model::{Behavior, Component, Model};
use automode_core::types::DataType;
use automode_engine::build_engine_modes;
use automode_kernel::{Message, Stream, Value};
use automode_lang::parse;
use automode_sim::stimulus::standard_engine_cycle;
use automode_sim::{simulate_component, BatchScenario, CompiledSim};

fn cycle_inputs() -> (Stream, Stream, Stream, usize) {
    let (rpm, throttle) = standard_engine_cycle();
    let ticks = rpm.len();
    let key: Stream = (0..ticks)
        .map(|t| Message::present(Value::Bool(t < ticks - 5)))
        .collect();
    (key, rpm, throttle, ticks)
}

fn shape_report() {
    let mut m = Model::new("fig6");
    let id = build_engine_modes(&mut m).unwrap();
    let (key, rpm, throttle, ticks) = cycle_inputs();
    let run = simulate_component(
        &m,
        id,
        &[("key_on", key), ("rpm", rpm), ("throttle", throttle)],
        ticks,
    )
    .unwrap();
    let tis: Vec<f64> = run
        .trace
        .signal("ti")
        .unwrap()
        .present_values()
        .iter()
        .map(|v| v.as_float().unwrap())
        .collect();
    let has = |f: &dyn Fn(f64) -> bool| tis.iter().any(|&x| f(x));
    eprintln!("\n[E6 report] drive-cycle coverage of the Fig. 6 MTD:");
    eprintln!("  cranking (ti = 4.0):    {}", has(&|x| x == 4.0));
    eprintln!("  idle (ti = 1.0):        {}", has(&|x| x == 1.0));
    eprintln!("  part load (1 < ti < 8): {}", has(&|x| x > 1.0 && x < 8.0));
    eprintln!("  full load (ti > 8):     {}", has(&|x| x > 8.0));
    eprintln!("  fuel cut (ti = 0):      {}", has(&|x| x == 0.0));
}

fn main() {
    shape_report();
    let (key, rpm, throttle, ticks) = cycle_inputs();

    let mut m = Model::new("fig6");
    let mtd = build_engine_modes(&mut m).unwrap();
    // Baseline: the same behaviour as one flat conditional expression (the
    // "traditional" If-Then-Else structure the paper argues against).
    let flat = m
        .add_component(
            Component::new("FlatConditional")
                .input("key_on", DataType::Bool)
                .input("rpm", DataType::physical("EngineSpeed", "rpm"))
                .input("throttle", DataType::Float)
                .output("ti", DataType::Float)
                .with_behavior(Behavior::expr(
                    "ti",
                    parse(
                        "if not key_on then 0.0 else \
                         if rpm < 600.0 then 4.0 else \
                         if throttle < 0.01 and rpm > 1500.0 then 0.0 else \
                         if throttle < 0.1 then 1.0 else \
                         if throttle >= 0.9 then (1.0 + throttle * 8.0) * 1.2 else \
                         1.0 + throttle * 8.0",
                    )
                    .unwrap(),
                )),
        )
        .unwrap();
    let cycle = || {
        [
            ("key_on", key.clone()),
            ("rpm", rpm.clone()),
            ("throttle", throttle.clone()),
        ]
    };

    // Batched drive-cycle sweep: 16 throttle-scaled variants of the cycle
    // through the same MTD — the repeated single-run loop vs one reusable
    // `CompiledSim` stepping lanes sequentially vs one lane-major batch.
    let scaled_throttle = |factor: f64| -> Stream {
        throttle
            .iter()
            .map(|m| match m.value().and_then(Value::as_float) {
                Some(x) => Message::present(Value::Float((x * factor).min(1.0))),
                None => Message::Absent,
            })
            .collect()
    };
    let sweep: Vec<Vec<(&str, Stream)>> = (0..16)
        .map(|l| {
            vec![
                ("key_on", key.clone()),
                ("rpm", rpm.clone()),
                ("throttle", scaled_throttle(0.55 + 0.03 * l as f64)),
            ]
        })
        .collect();
    let mut sim = CompiledSim::new(&m, mtd).unwrap();
    let batch_sim = CompiledSim::new(&m, mtd).unwrap();
    let specs: Vec<BatchScenario<'_>> = sweep
        .iter()
        .map(|inp| BatchScenario::new(inp, ticks))
        .collect();
    time_and_print(vec![
        Arm::iter("fig6_mtd_drive_cycle", || {
            simulate_component(&m, mtd, &cycle(), ticks).unwrap()
        }),
        Arm::iter("fig6_cycle_sweep16_fresh", || {
            sweep
                .iter()
                .map(|inp| simulate_component(&m, mtd, inp, ticks).unwrap())
                .collect::<Vec<_>>()
        }),
        Arm::iter("fig6_cycle_sweep16_compiled_sequential", || {
            sweep
                .iter()
                .map(|inp| sim.run(inp, ticks).unwrap())
                .collect::<Vec<_>>()
        }),
        Arm::iter("fig6_cycle_sweep16_batch", || {
            batch_sim.run_batch(&specs).unwrap()
        }),
        Arm::iter("fig6_flat_ite_baseline", || {
            simulate_component(&m, flat, &cycle(), ticks).unwrap()
        }),
    ]);
}
