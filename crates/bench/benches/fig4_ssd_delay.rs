//! Experiment E4 (Fig. 4): SSD composition and its channel-delay semantics.
//!
//! Shape claim (Sec. 3.1): "each SSD-level channel introduces a message
//! delay" — an n-stage SSD chain with n+1 channels delivers its first
//! output after exactly n+1 ticks. The bench sweeps the chain length,
//! verifying the latency and measuring elaboration + execution cost.

use automode_bench::{ssd_chain, time_and_print, Arm};
use automode_kernel::Value;
use automode_sim::{elaborate, simulate_component, stimulus};

fn shape_report() {
    eprintln!("\n[E4 report] first-output latency of n-stage SSD chains:");
    for n in [1usize, 2, 4, 8, 16] {
        let (model, top) = ssd_chain(n);
        let ticks = n + 3;
        let run = simulate_component(
            &model,
            top,
            &[("in", stimulus::constant(Value::Float(0.0), ticks))],
            ticks,
        )
        .unwrap();
        let out = run.trace.signal("out").unwrap();
        let first = (0..ticks).find(|&t| out[t].is_present());
        eprintln!(
            "  n = {n:>2}: first output at tick {:?} (expected {})",
            first,
            n + 1
        );
        assert_eq!(first, Some(n + 1));
    }
}

fn main() {
    shape_report();
    let stim = stimulus::constant(Value::Float(1.0), 256);
    let chains = [8usize, 32, 128].map(|n| (n, ssd_chain(n)));
    let mut arms = Vec::new();
    for (n, (model, top)) in &chains {
        arms.push(Arm::iter(format!("fig4_ssd_delay/elaborate/{n}"), || {
            elaborate(model, *top).unwrap()
        }));
        arms.push(Arm::iter(
            format!("fig4_ssd_delay/run_256_ticks/{n}"),
            || simulate_component(model, *top, &[("in", stim.clone())], 256).unwrap(),
        ));
    }
    time_and_print(arms);
}
