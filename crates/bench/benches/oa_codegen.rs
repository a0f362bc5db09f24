//! Experiment E12 (Sec. 3.4): OA generation — ASCET projects per ECU plus
//! bus mapping.
//!
//! Shape claims: one project is generated per ECU that received clusters;
//! inter-ECU signals land in the communication matrix and the derived CAN
//! bus stays feasible; generation cost scales with the cluster count.

use automode_bench::{time_and_print, Arm};
use automode_core::ccd::{Ccd, CcdChannel, Cluster, FixedPriorityDataIntegrityPolicy};
use automode_core::model::{Behavior, Component, Model};
use automode_core::types::DataType;
use automode_engine::ccd::{build_engine_ccd, engine_cluster_wcets};
use automode_lang::parse;
use automode_platform::can::BusSim;
use automode_transform::deploy::{deploy, DeploymentSpec};

fn shape_report() {
    let mut model = Model::new("fig7");
    let (ccd, _) = build_engine_ccd(&mut model, 10, 100).unwrap();
    let mut spec = DeploymentSpec::new(["engine_ecu", "diag_ecu"])
        .pin("fuel_control", "engine_ecu")
        .pin("ignition_control", "engine_ecu")
        .pin("diagnosis_monitoring", "diag_ecu");
    for (cl, w) in engine_cluster_wcets() {
        spec = spec.wcet(cl, w);
    }
    let d = deploy(
        &model,
        &ccd,
        &FixedPriorityDataIntegrityPolicy::new(),
        &spec,
    )
    .unwrap();
    eprintln!("\n[E12 report] OA generation for the split engine deployment:");
    eprintln!(
        "  projects: {}, matrix signals: {}, frames: {}",
        d.projects.len(),
        d.comm_matrix.signals.len(),
        d.comm_matrix.frames.len()
    );
    for p in &d.projects {
        eprintln!(
            "  {}: {} files, {} bytes",
            p.ecu,
            p.files.len(),
            p.size_bytes()
        );
    }
    let bus = &d.ta.buses[0];
    let stats = BusSim::new(bus).run(1_000_000).unwrap();
    let max_latency = stats.values().map(|s| s.max_latency_us).max().unwrap_or(0);
    eprintln!(
        "  bus load: {:.4}, worst frame latency: {} us",
        bus.load(),
        max_latency
    );
    assert!(bus.load() < 1.0);
}

/// A CCD of `n` chained expression clusters (all same rate) spread over two
/// ECUs alternately — every channel crosses the bus.
fn chained_ccd(model: &mut Model, n: usize) -> (Ccd, DeploymentSpec) {
    let mut ccd = Ccd::new();
    let mut spec = DeploymentSpec::new(["e0", "e1"]);
    for i in 0..n {
        let comp = model
            .add_component(
                Component::new(format!("Chain{i}"))
                    .input("x", DataType::Float)
                    .output("y", DataType::Float)
                    .with_behavior(Behavior::expr("y", parse("x + 1.0").unwrap())),
            )
            .unwrap();
        ccd = ccd.cluster(Cluster::new(format!("c{i}"), comp, 10));
        spec = spec.pin(format!("c{i}"), if i % 2 == 0 { "e0" } else { "e1" });
    }
    for i in 0..n - 1 {
        ccd = ccd.channel(CcdChannel::direct(
            format!("c{i}"),
            "y",
            format!("c{}", i + 1),
            "x",
        ));
    }
    (ccd, spec)
}

fn main() {
    shape_report();
    let chains = [4usize, 16, 64].map(|n| {
        let mut model = Model::new("chain");
        let (ccd, spec) = chained_ccd(&mut model, n);
        (n, model, ccd, spec)
    });
    let arms = chains
        .iter()
        .map(|(n, model, ccd, spec)| {
            Arm::iter(format!("oa_codegen/deploy_clusters/{n}"), || {
                deploy(model, ccd, &FixedPriorityDataIntegrityPolicy::new(), spec).unwrap()
            })
        })
        .collect();
    time_and_print(arms);
}
