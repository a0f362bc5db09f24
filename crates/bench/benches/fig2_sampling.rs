//! Experiment E2 (Fig. 2): explicit signal sampling with the `when`
//! operator and `every(n, true)` clocks.
//!
//! Sweeps the downsampling factor and verifies the sampled stream's rate
//! (the shape claim: `when` with `every(n)` passes exactly 1/n of the
//! messages), measuring kernel throughput.

use automode_bench::{time_and_print, Arm};
use automode_kernel::network::stimulus_from_streams;
use automode_kernel::ops::{EveryClockGen, When};
use automode_kernel::{Clock, Network, Stream};

fn build(factor: u32) -> Network {
    let mut net = Network::new("fig2");
    let a = net.add_input("a");
    let clk = net.add_block(EveryClockGen::new(factor, 0));
    let when = net.add_block(When::new());
    net.connect_input(a, when.input(0)).unwrap();
    net.connect(clk.output(0), when.input(1)).unwrap();
    net.expose_output("a_sampled", when.output(0)).unwrap();
    net
}

fn shape_report() {
    eprintln!("\n[E2 report] sampled message counts over 1024 ticks:");
    for factor in [2u32, 4, 8, 16, 32, 64] {
        let net = build(factor);
        let stim = stimulus_from_streams(&[Stream::from_values(0i64..1024)]);
        let trace = net.run(&stim).unwrap();
        let s = trace.signal("a_sampled").unwrap();
        let conforms = s.conforms_to_clock(&Clock::every(factor, 0));
        eprintln!(
            "  every({factor:>2}, true): {:>4} messages (expected {:>4}), clock-conformant: {conforms}",
            s.present_count(),
            1024 / factor as usize
        );
        assert_eq!(s.present_count(), 1024 / factor as usize);
        assert!(conforms);
    }
}

fn main() {
    shape_report();
    let ticks = 4096usize;
    let stim = stimulus_from_streams(&[Stream::from_values(0i64..ticks as i64)]);
    let arms = [2u32, 8, 64]
        .into_iter()
        .map(|factor| {
            let stim = &stim;
            Arm::iter(format!("fig2_sampling/when_every/{factor}"), move || {
                let mut ready = build(factor).prepare().unwrap();
                for row in stim {
                    ready.step_tick(row).unwrap();
                }
            })
        })
        .collect();
    time_and_print(arms);
}
