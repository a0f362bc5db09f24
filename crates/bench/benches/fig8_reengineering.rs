//! Experiment E8 (Fig. 8 / Sec. 5): white-box reengineering of the engine
//! controller.
//!
//! Shape claims: all implicit flag-guarded modes are made explicit (3 MTDs
//! with 6 modes from the synthetic engine model), the implicit-control-flow
//! metric drops, behaviour is preserved, and the reengineering cost scales
//! with model size.

use automode_ascet::model::{
    AscetModel, AscetType, MessageDecl, MessageKind, Module, Process, Stmt,
};
use automode_bench::{time_and_print, Arm};
use automode_core::model::Model;
use automode_engine::reengineer_engine;
use automode_lang::parse;
use automode_transform::reengineer::reengineer_module;

fn shape_report() {
    let r = reengineer_engine().unwrap();
    eprintln!("\n[E8 report] engine-controller reengineering (Sec. 5):");
    eprintln!(
        "  original:  {} If-Then-Else, {} flags",
        r.ifs_before, r.flags_before
    );
    eprintln!(
        "  result:    {} MTDs, {} explicit modes, {} residual ifs",
        r.report.mtds_extracted, r.report.modes_made_explicit, r.metrics_after.if_count
    );
    eprintln!(
        "  components: {} (FDA), trace equivalence: checked in tests/case_study.rs",
        r.metrics_after.components
    );
    assert_eq!(r.report.mtds_extracted, 3);
    assert!(r.metrics_after.if_count < r.ifs_before);
}

/// A synthetic ASCET module with `n` flag-guarded processes, to scale the
/// reengineering workload.
fn scaled_module(n: usize) -> AscetModel {
    let mut module = Module::new("scaled")
        .message(MessageDecl::new("u", AscetType::Cont, MessageKind::Receive))
        .message(MessageDecl::new(
            "flag",
            AscetType::Log,
            MessageKind::Receive,
        ));
    for i in 0..n {
        module = module
            .message(MessageDecl::new(
                format!("y{i}"),
                AscetType::Cont,
                MessageKind::Send,
            ))
            .process(Process::new(
                format!("p{i}"),
                10,
                vec![Stmt::If {
                    cond: parse("flag").unwrap(),
                    then_branch: vec![Stmt::assign(format!("y{i}"), parse("0.5").unwrap())],
                    else_branch: vec![Stmt::assign(
                        format!("y{i}"),
                        parse("clamp(u * 2.0, 0.0, 10.0)").unwrap(),
                    )],
                }],
            ));
    }
    AscetModel::new("scaled_model").module(module)
}

fn main() {
    shape_report();
    let modules = [10usize, 50, 200].map(|n| (n, scaled_module(n)));
    let mut arms = vec![Arm::iter("fig8_engine_reengineering", || {
        reengineer_engine().unwrap()
    })];
    for (n, ascet) in &modules {
        arms.push(Arm::iter(format!("fig8_scaling/processes/{n}"), || {
            let mut model = Model::new("out");
            reengineer_module(ascet, "scaled", &mut model).unwrap()
        }));
    }
    time_and_print(arms);
}
