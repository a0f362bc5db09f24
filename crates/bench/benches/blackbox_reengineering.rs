//! Experiment E11 (Sec. 4): black-box reengineering of communication
//! matrices into partial FAA models (validated in the paper on a
//! body-electronics case study).
//!
//! Shape claims: the generated FAA model reproduces every ECU dependency of
//! the matrix, and the step scales with the number of signals.

use automode_bench::{time_and_print, Arm};
use automode_platform::comm_matrix::synthetic_body_matrix;
use automode_transform::reengineer::reengineer_comm_matrix;

fn shape_report() {
    eprintln!("\n[E11 report] black-box reengineering structure preservation:");
    for (modules, signals) in [(5usize, 4usize), (20, 8), (50, 10)] {
        let matrix = synthetic_body_matrix(modules, signals, 42);
        let model = reengineer_comm_matrix(&matrix, "body").unwrap();
        let deps = matrix.dependencies().len();
        eprintln!(
            "  {modules:>3} modules, {:>4} signals -> {:>3} FAA functions, {deps:>4} dependencies preserved",
            matrix.signals.len(),
            model.component_count() - 1,
        );
        assert_eq!(model.component_count() - 1, matrix.ecus().len());
    }
}

fn main() {
    shape_report();
    let matrices =
        [10usize, 50, 200].map(|modules| (modules, synthetic_body_matrix(modules, 8, 7)));
    let mut arms: Vec<Arm> = matrices
        .iter()
        .map(|(modules, matrix)| {
            Arm::iter(
                format!("blackbox_reengineering/matrix_to_faa/{modules}"),
                || reengineer_comm_matrix(matrix, "body").unwrap(),
            )
        })
        .collect();
    for modules in [10usize, 50] {
        arms.push(Arm::iter(
            format!("blackbox_reengineering/generate_matrix/{modules}"),
            move || synthetic_body_matrix(modules, 8, 7),
        ));
    }
    time_and_print(arms);
}
