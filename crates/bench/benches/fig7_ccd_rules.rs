//! Experiment E7 (Fig. 7 / Sec. 3.3): CCD well-definedness conditions on
//! the OSEK target.
//!
//! Shape claims: injected rule violations (missing delays on slow→fast
//! channels) are detected in 100% of cases, conforming CCDs are never
//! flagged, and the rule corresponds to observable platform behaviour
//! (deterministic vs. schedule-dependent sampling on the OSEK simulator).

use automode_bench::{time_and_print, Arm};
use automode_core::ccd::{Ccd, CcdChannel, Cluster, FixedPriorityDataIntegrityPolicy};
use automode_core::model::{Behavior, Component, Model};
use automode_core::types::DataType;
use automode_engine::ccd::build_engine_ccd;
use automode_lang::parse;
use automode_platform::osek::{IpcRegime, MessageConfig, OsekSim, SimRunnable, SimTask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random n-cluster CCD over harmonic rates; every slow→fast
/// channel gets a delay unless it is in `sabotage` (by channel index).
fn random_ccd(model: &mut Model, n: usize, seed: u64, sabotage: &[usize]) -> Ccd {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ccd = Ccd::new();
    let rates = [1u32, 10, 100];
    let mut comps = Vec::new();
    for i in 0..n {
        let name = format!("C{seed}_{i}");
        let id = model
            .add_component(
                Component::new(name.clone())
                    .input("x", DataType::Float)
                    .output("y", DataType::Float)
                    .with_behavior(Behavior::expr("y", parse("x * 1.0").unwrap())),
            )
            .unwrap();
        let period = rates[rng.gen_range(0..rates.len())];
        ccd = ccd.cluster(Cluster::new(format!("cl{i}"), id, period));
        comps.push((format!("cl{i}"), period));
    }
    // A chain of channels cl0 -> cl1 -> ... (one writer per input).
    for i in 0..n - 1 {
        let (from, fp) = comps[i].clone();
        let (to, tp) = comps[i + 1].clone();
        let mut ch = CcdChannel::direct(from, "y", to, "x");
        if fp > tp && !sabotage.contains(&i) {
            ch = ch.with_delays(1);
        }
        ccd = ccd.channel(ch);
    }
    ccd
}

fn shape_report() {
    let policy = FixedPriorityDataIntegrityPolicy::new();
    let mut detected = 0usize;
    let mut injected = 0usize;
    let mut false_positives = 0usize;
    for seed in 0..40u64 {
        let mut model = Model::new("rnd");
        // Conforming CCD: zero findings expected.
        let good = random_ccd(&mut model, 6, seed, &[]);
        false_positives += good.violations(&model, &policy).len();
        // Sabotaged CCD: drop the delay on one slow->fast channel if any.
        let mut model2 = Model::new("rnd2");
        let probe = random_ccd(&mut model2, 6, seed, &[]);
        let slow_fast: Vec<usize> = probe
            .channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.delays > 0)
            .map(|(i, _)| i)
            .collect();
        if let Some(&victim) = slow_fast.first() {
            let mut model3 = Model::new("rnd3");
            let bad = random_ccd(&mut model3, 6, seed, &[victim]);
            injected += 1;
            detected += usize::from(!bad.violations(&model3, &policy).is_empty());
        }
    }
    eprintln!("\n[E7 report] rule detection over random CCDs:");
    eprintln!("  injected missing-delay faults: {injected}, detected: {detected}");
    eprintln!("  false positives on conforming CCDs: {false_positives}");
    assert_eq!(detected, injected);
    assert_eq!(false_positives, 0);

    // Dynamic half: determinism with delay, schedule dependence without.
    let sim = |delayed: bool| {
        let msg = MessageConfig::new("m", 2);
        let msg = if delayed { msg.delayed() } else { msg };
        OsekSim::new(IpcRegime::CopyInCopyOut)
            .task(SimTask::new("fast", 0, 10_000).runnable(SimRunnable::reader("r", "m")))
            .unwrap()
            .task(
                SimTask::new("slow", 1, 100_000)
                    .runnable(SimRunnable::compute("c", 30_000))
                    .runnable(SimRunnable::writer("w", "m", 2, 1_000)),
            )
            .unwrap()
            .message(msg)
            .unwrap()
            .run(1_000_000)
            .unwrap()
    };
    let det = sim(true);
    let vals = det.observed_values("fast", "m");
    let deterministic = vals
        .iter()
        .enumerate()
        .all(|(i, &v)| v == ((i as u64 * 10_000) / 100_000) as i64);
    let nondeterministic = {
        let out = sim(false);
        let vals = out.observed_values("fast", "m");
        (0..9).any(|k| {
            let w = &vals[k * 10..(k + 1) * 10];
            w.windows(2).any(|p| p[0] != p[1])
        })
    };
    eprintln!("  delayed publication deterministic per period: {deterministic}");
    eprintln!("  immediate publication schedule-dependent:     {nondeterministic}");
    assert!(deterministic && nondeterministic);
}

fn main() {
    shape_report();
    let policy = FixedPriorityDataIntegrityPolicy::new();
    let random: Vec<(usize, Model, Ccd)> = [4usize, 16, 64, 256]
        .into_iter()
        .map(|n| {
            let mut model = Model::new("bench");
            let ccd = random_ccd(&mut model, n, 99, &[]);
            (n, model, ccd)
        })
        .collect();
    let mut engine_model = Model::new("fig7");
    let (engine_ccd, _) = build_engine_ccd(&mut engine_model, 10, 100).unwrap();
    let mut arms: Vec<Arm> = random
        .iter()
        .map(|(n, model, ccd)| {
            Arm::iter(format!("fig7_ccd_rules/validate_clusters/{n}"), || {
                ccd.validate_against(model, &policy).unwrap()
            })
        })
        .collect();

    // Fig. 7 CCD end-to-end validation cost.
    arms.push(Arm::iter("fig7_engine_ccd_validate", || {
        engine_ccd
            .validate_against(&engine_model, &FixedPriorityDataIntegrityPolicy::new())
            .unwrap()
    }));

    // OSEK simulation cost per simulated second — ablation over the IPC
    // regime: the data-integrity mechanism's snapshot/publish overhead vs
    // direct shared memory.
    for (label, regime, delayed) in [
        (
            "fig7_osek_sim_1s_copyinout_delayed",
            IpcRegime::CopyInCopyOut,
            true,
        ),
        (
            "fig7_osek_sim_1s_copyinout",
            IpcRegime::CopyInCopyOut,
            false,
        ),
        ("fig7_osek_sim_1s_direct", IpcRegime::Direct, false),
    ] {
        let msg = MessageConfig::new("m", 2);
        let msg = if delayed { msg.delayed() } else { msg };
        let sim = OsekSim::new(regime)
            .task(SimTask::new("fast", 0, 10_000).runnable(SimRunnable::reader("r", "m")))
            .unwrap()
            .task(
                SimTask::new("slow", 1, 100_000).runnable(SimRunnable::writer("w", "m", 2, 1_000)),
            )
            .unwrap()
            .message(msg)
            .unwrap();
        arms.push(Arm::iter(label, move || sim.run(1_000_000).unwrap()));
    }
    time_and_print(arms);
}
