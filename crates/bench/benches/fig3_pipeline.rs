//! Experiment E3 (Fig. 3): the abstraction-level pipeline as a whole.
//!
//! Measures the cost of each tool-supported step on the engine case study:
//! FDA validation, clock-based clustering, LA validation, and deployment
//! (task formation + communication matrix + OA generation).

use automode_bench::{time_and_print, Arm};
use automode_core::ccd::FixedPriorityDataIntegrityPolicy;
use automode_engine::ccd::{build_engine_ccd, engine_cluster_wcets};
use automode_engine::reengineered::{engine_periods, reengineer_engine};
use automode_transform::deploy::{deploy, DeploymentSpec};
use automode_transform::refine::cluster_by_clocks;

fn shape_report() {
    let r = reengineer_engine().unwrap();
    let mut model = r.model.clone();
    let ccd = cluster_by_clocks(&mut model, r.root, &engine_periods()).unwrap();
    eprintln!("\n[E3 report] engine model through the pipeline:");
    eprintln!(
        "  FDA components: {}, clusters after clock clustering: {} (periods {:?})",
        r.metrics_after.components,
        ccd.clusters.len(),
        ccd.clusters.iter().map(|c| c.period).collect::<Vec<_>>()
    );
    let cross = ccd.channels.len();
    let delayed = ccd.channels.iter().filter(|c| c.delays > 0).count();
    eprintln!("  cross-cluster channels: {cross}, auto-delayed (slow->fast): {delayed}");
}

fn main() {
    shape_report();
    let r = reengineer_engine().unwrap();
    let mut model = automode_core::model::Model::new("fig3");
    let (ccd, _) = build_engine_ccd(&mut model, 10, 100).unwrap();
    let mut spec = DeploymentSpec::new(["engine_ecu", "diag_ecu"])
        .pin("fuel_control", "engine_ecu")
        .pin("ignition_control", "engine_ecu")
        .pin("diagnosis_monitoring", "diag_ecu");
    for (cl, w) in engine_cluster_wcets() {
        spec = spec.wcet(cl, w);
    }
    time_and_print(vec![
        Arm::iter("fig3_fda_validation", || {
            automode_core::levels::validate_fda(&r.model).unwrap()
        }),
        Arm::iter("fig3_clock_clustering", || {
            let mut model = r.model.clone();
            cluster_by_clocks(&mut model, r.root, &engine_periods()).unwrap()
        }),
        Arm::iter("fig3_full_reengineering", || reengineer_engine().unwrap()),
        Arm::iter("fig3_deployment", || {
            deploy(
                &model,
                &ccd,
                &FixedPriorityDataIntegrityPolicy::new(),
                &spec,
            )
            .unwrap()
        }),
    ]);
}
