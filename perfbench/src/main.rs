//! `automode-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--quick]`
//!
//! Prints diagnostics, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 when the run
//! completed, whether or not its checks passed; 2 on bad arguments or a
//! run that could not complete.

use automode_perfbench::run::{run, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("automode-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for error in &report.errors {
                println!("# error: {error}");
            }
            for m in &report.metrics {
                println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("automode-perfbench: run failed: {e}");
            std::process::exit(2);
        }
    }
}
