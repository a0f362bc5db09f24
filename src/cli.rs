//! The AutoMoDe tool-prototype CLI, as a library.
//!
//! The paper's contribution is "a tool prototype ... in order to illustrate
//! and validate the key elements of our approach". This module is that
//! prototype's command surface over the built-in case-study models: list,
//! validate, analyze, simulate, render, reengineer, and deploy — each
//! returning its report as a `String` so the commands are unit-testable;
//! the `automode` binary only parses arguments and prints.

use std::fmt::Write as _;

use automode_core::ccd::FixedPriorityDataIntegrityPolicy;
use automode_core::model::{Behavior, ComponentId, Model};
use automode_core::{dot, levels, rules};
use automode_kernel::{Message, Stream, Value};
use automode_sim::{simulate_component, stimulus};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

macro_rules! from_error {
    ($($ty:ty),* $(,)?) => {
        $(impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError(e.to_string())
            }
        })*
    };
}

from_error!(
    automode_core::CoreError,
    automode_kernel::KernelError,
    automode_sim::SimError,
    automode_transform::TransformError,
    automode_ascet::AscetError,
    automode_platform::PlatformError,
    automode_service::ServiceError,
);

/// The built-in demonstration models.
pub const MODELS: &[(&str, &str)] = &[
    (
        "door_lock",
        "Fig. 1/4: DoorLockControl (event-triggered, SSD context)",
    ),
    ("momentum", "Fig. 5: longitudinal momentum controller DFD"),
    ("engine_modes", "Fig. 6: engine-operation MTD"),
    ("sequencer", "start sequencer STD"),
    ("engine", "Sec. 5: reengineered engine controller (FDA)"),
];

/// Builds a named built-in model; returns the model and its root component.
///
/// # Errors
///
/// Unknown names and construction failures.
pub fn build_model(name: &str) -> Result<(Model, ComponentId), CliError> {
    let mut m = Model::new(name);
    let id = match name {
        "door_lock" => automode_engine::build_door_lock(&mut m)?,
        "momentum" => automode_engine::momentum::build_momentum_controller(
            &mut m,
            automode_engine::momentum::MomentumGains::default(),
        )?,
        "engine_modes" => automode_engine::build_engine_modes(&mut m)?,
        "sequencer" => automode_engine::build_start_sequencer(&mut m)?,
        "engine" => {
            let r = automode_engine::reengineer_engine()?;
            return Ok((r.model, r.root));
        }
        other => {
            return Err(CliError(format!(
                "unknown model `{other}`; try `automode list`"
            )))
        }
    };
    m.set_root(id);
    Ok((m, id))
}

/// `automode list` — the model catalogue.
pub fn cmd_list() -> String {
    let mut out = String::from("built-in models:\n");
    for (name, desc) in MODELS {
        let _ = writeln!(out, "  {name:<14} {desc}");
    }
    out
}

/// `automode validate <model> [faa|fda]`.
///
/// # Errors
///
/// Unknown model/level; validation findings are part of the report, not
/// errors.
pub fn cmd_validate(model_name: &str, level: &str) -> Result<String, CliError> {
    let (m, _) = build_model(model_name)?;
    let verdict = match level {
        "faa" => levels::validate_faa(&m).map_err(|e| e.to_string()),
        "fda" => levels::validate_fda(&m).map_err(|e| e.to_string()),
        other => return Err(CliError(format!("unknown level `{other}` (faa|fda)"))),
    };
    Ok(match verdict {
        Ok(()) => format!("{model_name}: {} validation OK\n", level.to_uppercase()),
        Err(e) => format!(
            "{model_name}: {} validation FAILED: {e}\n",
            level.to_uppercase()
        ),
    })
}

/// `automode rules <model>` — the FAA design-rule findings.
///
/// # Errors
///
/// Unknown model.
pub fn cmd_rules(model_name: &str) -> Result<String, CliError> {
    let (m, _) = build_model(model_name)?;
    let findings = rules::check_faa_rules(&m);
    if findings.is_empty() {
        return Ok(format!("{model_name}: no findings\n"));
    }
    let mut out = format!("{model_name}: {} findings\n", findings.len());
    for f in findings {
        let _ = writeln!(out, "  {f}");
    }
    Ok(out)
}

/// Default stimulus per input port: drive cycles for engine-ish signals,
/// constants otherwise.
fn default_stream(port: &str, ticks: usize) -> Stream {
    match port {
        "rpm" => stimulus::ramp(0.0, 4000.0, ticks),
        "throttle" => stimulus::ramp(0.0, 1.0, ticks),
        "key_on" => stimulus::constant(Value::Bool(true), ticks),
        "v_des" => stimulus::constant(Value::Float(20.0), ticks),
        "v_act" => stimulus::ramp(0.0, 20.0, ticks),
        "FZG_V" => stimulus::constant(Value::Float(12.0), ticks),
        "T4S" => {
            let mut v = vec![Message::Absent; ticks];
            if ticks > 1 {
                v[1] = Message::present(Value::sym("Locked"));
            }
            if ticks > 5 {
                v[5] = Message::present(Value::sym("Unlocked"));
            }
            v.into_iter().collect()
        }
        "CRSH" => Stream::absent(ticks),
        _ => stimulus::constant(Value::Float(1.0), ticks),
    }
}

/// The lane count `--explain-plan` describes: the sweep service's default
/// lanes per batch.
const EXPLAIN_LANES: usize = 32;

/// `automode simulate <model> [ticks] [--explain-plan]` — run with the
/// default stimulus and print the Fig. 1-style trace table. With
/// `--explain-plan`, the compiled network's execution plan (engine
/// backend, gated hyperperiod, and the wheel-rejection reason when the
/// calendar fast path fell off) and its lane plan for a batch of
/// [`EXPLAIN_LANES`] lanes (vectorized and replica node counts, and why
/// each replica node fell off the lane path) are printed first.
///
/// # Errors
///
/// Unknown model or simulation failure.
pub fn cmd_simulate(
    model_name: &str,
    ticks: usize,
    explain_plan: bool,
) -> Result<String, CliError> {
    let (m, id) = build_model(model_name)?;
    let inputs: Vec<(String, Stream)> = m
        .component(id)
        .inputs()
        .map(|p| (p.name.clone(), default_stream(&p.name, ticks)))
        .collect();
    let borrowed: Vec<(&str, Stream)> = inputs
        .iter()
        .map(|(n, s)| (n.as_str(), s.clone()))
        .collect();
    let mut out = String::new();
    if explain_plan {
        let net = automode_sim::elaborate(&m, id)?.prepare()?;
        let _ = writeln!(out, "execution plan: {}", net.plan_info());
        let _ = writeln!(out, "lane plan: {}", net.lane_plan(EXPLAIN_LANES));
    }
    let run = simulate_component(&m, id, &borrowed, ticks)?;
    let _ = writeln!(out, "{}", run.trace);
    Ok(out)
}

/// `automode dot <model>` — render the root notation as Graphviz DOT.
///
/// # Errors
///
/// Unknown model.
pub fn cmd_dot(model_name: &str) -> Result<String, CliError> {
    let (m, id) = build_model(model_name)?;
    Ok(match &m.component(id).behavior {
        Behavior::Mtd(_) => dot::mtd_to_dot(&m, id),
        Behavior::Std(_) => dot::std_to_dot(&m, id),
        _ => dot::composite_to_dot(&m, id),
    })
}

/// `automode vcd <model> [ticks]` — simulate and stream the trace as a VCD
/// waveform for GTKWave-style viewers into `out`, without materializing the
/// whole dump.
///
/// # Errors
///
/// Unknown model, simulation failure, or an I/O error on `out`.
pub fn cmd_vcd_to<W: std::io::Write>(
    model_name: &str,
    ticks: usize,
    out: &mut W,
) -> Result<(), CliError> {
    let (m, id) = build_model(model_name)?;
    let inputs: Vec<(String, Stream)> = m
        .component(id)
        .inputs()
        .map(|p| (p.name.clone(), default_stream(&p.name, ticks)))
        .collect();
    let borrowed: Vec<(&str, Stream)> = inputs
        .iter()
        .map(|(n, s)| (n.as_str(), s.clone()))
        .collect();
    let run = simulate_component(&m, id, &borrowed, ticks)?;
    automode_kernel::vcd::write_vcd(&run.trace, model_name, out)
        .map_err(|e| CliError(format!("vcd write failed: {e}")))
}

/// `automode vcd` rendered into a `String` — the buffered convenience over
/// [`cmd_vcd_to`].
///
/// # Errors
///
/// Unknown model or simulation failure.
pub fn cmd_vcd(model_name: &str, ticks: usize) -> Result<String, CliError> {
    let mut buf = Vec::new();
    cmd_vcd_to(model_name, ticks, &mut buf)?;
    Ok(String::from_utf8(buf).expect("vcd output is ASCII"))
}

/// `automode export <model>` — serialize a built-in model to `.amdl` text.
///
/// # Errors
///
/// Unknown model.
pub fn cmd_export(model_name: &str) -> Result<String, CliError> {
    let (m, _) = build_model(model_name)?;
    Ok(automode_core::text::to_text(&m))
}

/// `automode check <file.amdl> [level]` — parse an external model file and
/// validate it at the given abstraction level.
///
/// # Errors
///
/// I/O, parse, or unknown-level errors; validation findings are part of
/// the report.
pub fn cmd_check(path: &str, level: &str) -> Result<String, CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    let model = automode_core::text::from_text(&src)?;
    let verdict = match level {
        "faa" => levels::validate_faa(&model).map_err(|e| e.to_string()),
        "fda" => levels::validate_fda(&model).map_err(|e| e.to_string()),
        other => return Err(CliError(format!("unknown level `{other}` (faa|fda)"))),
    };
    let metrics = automode_core::metrics::ModelMetrics::measure(&model);
    let mut out = format!(
        "{path}: parsed {} components ({} composites, {} MTDs, {} STDs)\n",
        metrics.components, metrics.composites, metrics.mtds, metrics.stds
    );
    match verdict {
        Ok(()) => {
            let _ = writeln!(out, "{}: {} validation OK", path, level.to_uppercase());
        }
        Err(e) => {
            let _ = writeln!(
                out,
                "{}: {} validation FAILED: {e}",
                path,
                level.to_uppercase()
            );
        }
    }
    Ok(out)
}

/// `automode reengineer` — the Sec. 5 case study end to end.
///
/// # Errors
///
/// Propagates reengineering failures.
pub fn cmd_reengineer() -> Result<String, CliError> {
    let r = automode_engine::reengineer_engine()?;
    let mut out = String::new();
    let _ = writeln!(out, "white-box reengineering of the engine controller:");
    let _ = writeln!(
        out,
        "  original: {} If-Then-Else, {} flags",
        r.ifs_before, r.flags_before
    );
    let _ = writeln!(
        out,
        "  result:   {} MTDs, {} explicit modes, {} residual ifs, {} components",
        r.report.mtds_extracted,
        r.report.modes_made_explicit,
        r.metrics_after.if_count,
        r.metrics_after.components
    );
    for (name, (_, period)) in &r.components {
        let _ = writeln!(out, "    {name:<28} @ {period} ms");
    }
    Ok(out)
}

/// `automode deploy` — the Fig. 7 CCD deployment with generated artifacts.
///
/// # Errors
///
/// Propagates deployment failures.
pub fn cmd_deploy() -> Result<String, CliError> {
    let mut m = Model::new("engine_la");
    let (ccd, _) = automode_engine::build_engine_ccd(&mut m, 10, 100)?;
    let policy = FixedPriorityDataIntegrityPolicy::new();
    let mut spec = automode_transform::DeploymentSpec::new(["engine_ecu", "diag_ecu"])
        .pin("fuel_control", "engine_ecu")
        .pin("ignition_control", "engine_ecu")
        .pin("diagnosis_monitoring", "diag_ecu");
    for (c, w) in automode_engine::ccd::engine_cluster_wcets() {
        spec = spec.wcet(c, w);
    }
    let d = automode_transform::deploy(&m, &ccd, &policy, &spec)?;
    let mut out = String::new();
    let _ = writeln!(out, "deployment of the Fig. 7 engine CCD:");
    for (cluster, (ecu, task)) in &d.assignments {
        let _ = writeln!(out, "  {cluster:<22} -> {ecu}/{task}");
    }
    let _ = writeln!(out, "generated files:");
    for p in &d.projects {
        for (path, content) in &p.files {
            let _ = writeln!(out, "  {path} ({} bytes)", content.len());
        }
    }
    let _ = writeln!(out, "bus signals: {}", d.comm_matrix.signals.len());
    Ok(out)
}

/// `automode cosim [scenario] [ticks] [--explain-plan]` — timing-accurate
/// platform co-simulation of the Fig. 7 engine deployment (two ECUs,
/// OSEK fixed-priority tasks, CAN frame arbitration) under a named
/// platform-fault scenario, differential-checked against the LA reference
/// semantics and the cross-ECU delivery contracts.
///
/// # Errors
///
/// Unknown scenario, or deployment/co-simulation failures.
pub fn cmd_cosim(scenario_name: &str, ticks: u64, explain_plan: bool) -> Result<String, CliError> {
    let scenarios = automode_engine::engine_platform_scenarios();
    let scenario = scenarios
        .iter()
        .find(|s| s.name == scenario_name)
        .ok_or_else(|| {
            let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
            CliError(format!(
                "unknown scenario `{scenario_name}` (try {})",
                names.join("|")
            ))
        })?;
    let (m, ccd, spec) = automode_engine::engine_cosim_parts()?;
    let policy = FixedPriorityDataIntegrityPolicy::new();
    let d = automode_transform::deploy(&m, &ccd, &policy, &spec)?;
    let config = automode_platform::cosim::CosimConfig {
        faults: scenario.faults.clone(),
        ..Default::default()
    };
    let harness = automode_transform::cosim::CosimHarness::new(&m, &ccd, &d, &spec, config)?;
    let report = harness.run(&automode_engine::engine_ccd_stimulus(ticks), ticks)?;

    let o = &report.outcome;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "platform co-simulation of the Fig. 7 engine deployment"
    );
    let _ = writeln!(out, "  scenario: {} — {}", scenario.name, scenario.summary);
    let _ = writeln!(
        out,
        "  horizon:  {} ticks ({} us), bus load {:.1}%",
        o.ticks,
        o.horizon_us,
        o.bus_load() * 100.0
    );
    if explain_plan {
        let _ = writeln!(out, "execution plans (per cluster body):");
        for (cluster, plan) in harness.explain_plans()? {
            let _ = writeln!(out, "  {cluster:<24} {plan}");
        }
    }
    let _ = writeln!(out, "tasks:");
    for t in &o.tasks {
        let s = &t.stats;
        let name = format!("{}/{}", t.ecu, t.task);
        let _ = writeln!(
            out,
            "  {name:<26} act {:>3}  done {:>3}  skip {:>2}  deadline-miss {:>2}  preempt {:>2}  max-resp {:>5} us",
            s.activations, s.completions, s.skipped, s.deadline_misses, s.preemptions,
            s.max_response_us
        );
    }
    if !o.frames.is_empty() {
        let _ = writeln!(out, "frames:");
        for f in &o.frames {
            let avg = f.total_latency_us.checked_div(f.delivered).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<26} queued {:>4}  sent {:>4}  delivered {:>4}  lost {:>3}  latency avg {:>4} us  max {:>4} us",
                f.frame, f.queued, f.sent, f.delivered, f.lost, avg, f.max_latency_us
            );
        }
    }
    if !o.channels.is_empty() {
        let _ = writeln!(out, "cross-ECU channels (loose-sync envelope):");
        for c in &o.channels {
            let _ = writeln!(
                out,
                "  {:<48} via {:<22} pubs {:>3}  late/lost {:>3}  worst slack {:>6} us",
                c.signal, c.frame, c.envelope.ticks, c.envelope.misses, c.envelope.worst_slack_us
            );
        }
    }
    let _ = writeln!(out, "refinement verdict:");
    if report.single_ecu {
        let verdict = if report.la_divergence.is_none() {
            "EQUAL".to_string()
        } else {
            format!(
                "DIVERGED\n{}",
                report.la_divergence.as_deref().unwrap_or("")
            )
        };
        let _ = writeln!(out, "  single-ECU deployment: LA bit-for-bit {verdict}");
    } else {
        let verdict = if o.envelope_preserved() {
            "envelope PRESERVED".to_string()
        } else {
            format!(
                "envelope VIOLATED ({} late/lost publications)",
                o.envelope_misses()
            )
        };
        let _ = writeln!(out, "  multi-ECU deployment: {verdict}");
    }
    let r = &report.robustness;
    if r.is_clean() {
        let _ = writeln!(
            out,
            "robustness: clean ({} delivery contracts over {} ticks)",
            r.contracts_checked, r.ticks
        );
    } else {
        let _ = writeln!(
            out,
            "robustness: {} violations over {} delivery contracts",
            r.violations.len(),
            r.contracts_checked
        );
        for v in r.violations.iter().take(5) {
            let _ = writeln!(out, "  {v}");
        }
        if r.violations.len() > 5 {
            let _ = writeln!(out, "  ... {} more", r.violations.len() - 5);
        }
        if let Some(first) = report.metrics.first_violation_tick {
            match (
                report.metrics.fault_tick,
                report.metrics.detection_latency(),
            ) {
                (Some(f), Some(l)) => {
                    let _ = writeln!(
                        out,
                        "  first violation at tick {first}; fault active from tick {f}: detection latency {l} ticks"
                    );
                }
                _ => {
                    let _ = writeln!(out, "  first violation at tick {first}");
                }
            }
        }
    }
    Ok(out)
}

/// Splits a verb's arguments into positional values and the
/// `--explain-plan` flag; any other `--flag` is rejected.
fn split_flags(args: &[String]) -> Result<(Vec<&String>, bool), CliError> {
    let mut explain = false;
    let mut pos = Vec::new();
    for a in args {
        if a == "--explain-plan" {
            explain = true;
        } else if a.starts_with("--") {
            return Err(CliError(format!("unknown flag `{a}`")));
        } else {
            pos.push(a);
        }
    }
    Ok((pos, explain))
}

/// The explorer's search space for a built-in model: port ranges wide
/// enough to reach every mode regime the model distinguishes.
fn explore_space(
    m: &Model,
    id: ComponentId,
    model_name: &str,
    ticks: usize,
) -> automode_explore::ScenarioSpace {
    let space = automode_explore::ScenarioSpace::from_component(m, id, ticks);
    match model_name {
        "engine" | "engine_modes" | "sequencer" => space
            .with_range("rpm", 0.0, 7000.0)
            .with_range("throttle", 0.0, 1.0)
            .with_range("o2", 0.0, 2.0),
        "momentum" => space
            .with_range("v_des", 0.0, 30.0)
            .with_range("v_act", 0.0, 30.0),
        "door_lock" => space.with_range("FZG_V", 0.0, 15.0),
        _ => space,
    }
}

/// The contract monitor the explorer scores against. Models whose outputs
/// are unconditionally computed every tick get the strict exact-presence
/// monitor; the start sequencer's event-style commands keep the (empty)
/// inferred monitor — coverage search still applies, violation search
/// does not.
fn explore_monitor(
    m: &Model,
    id: ComponentId,
    model_name: &str,
    sim: &automode_sim::CompiledSim,
) -> automode_sim::ContractMonitor {
    match model_name {
        "sequencer" => sim.monitor(),
        _ => automode_explore::exact_output_monitor(m, id),
    }
}

fn repro_file_stem(signature: &str) -> String {
    signature
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// `automode explore <model> [generations] [population] [seed]` — run the
/// coverage-guided scenario explorer over the model's fault × stimulus
/// space and report the coverage curve, every shrunk violation repro, and
/// the pure-random baseline at the identical scenario budget and seed.
/// With `--repros <dir>`, each distinct violation is written as a
/// replayable `<signature>.json` scenario plus a `<signature>.trace`
/// golden trace.
///
/// # Errors
///
/// Unknown models, compile failures, unwritable repro directories.
pub fn cmd_explore(
    model_name: &str,
    generations: usize,
    population: usize,
    seed: u64,
    repros_dir: Option<&str>,
) -> Result<String, CliError> {
    use automode_explore::{explore, DirectRunner, ExploreConfig, Shrinker};
    use std::sync::Arc;

    const TICKS: usize = 8;
    let (m, id) = build_model(model_name)?;
    let sim = Arc::new(automode_sim::CompiledSim::new(&m, id)?);
    let monitor = explore_monitor(&m, id, model_name, &sim);
    let runner = DirectRunner::new(sim.clone()).with_monitor(monitor.clone());
    let shrinker = Shrinker::new(&sim).with_monitor(monitor);
    let space = explore_space(&m, id, model_name, TICKS);

    let cfg = ExploreConfig {
        seed,
        generations,
        population,
        guided: true,
        max_repros: 8,
    };
    let report = explore(&runner, Some(&shrinker), &space, &cfg, |_| {});
    let baseline = explore(
        &runner,
        None,
        &space,
        &ExploreConfig {
            guided: false,
            max_repros: 0,
            ..cfg
        },
        |_| {},
    );

    let mut out = String::new();
    let _ = writeln!(
        out,
        "explore {model_name}: {generations} generation(s) x {population} scenario(s), \
         {TICKS} tick(s), seed {seed}"
    );
    out.push_str(&report.render());
    let (bs, bt) = baseline.final_coverage();
    let (gs, gt) = report.final_coverage();
    let _ = writeln!(
        out,
        "baseline (pure random, same budget): {bs}/{} states, {bt}/{} transitions",
        baseline.total_states, baseline.total_transitions
    );
    let _ = writeln!(
        out,
        "guided advantage: {:+} state(s), {:+} transition(s)",
        gs as i64 - bs as i64,
        gt as i64 - bt as i64
    );

    if let Some(dir) = repros_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError(format!("cannot create {}: {e}", dir.display())))?;
        for r in &report.repros {
            let stem = repro_file_stem(&r.signature);
            let scenario_path = dir.join(format!("{stem}.json"));
            std::fs::write(&scenario_path, r.scenario.to_json())
                .map_err(|e| CliError(format!("cannot write {}: {e}", scenario_path.display())))?;
            if !r.trace_text.is_empty() {
                let trace_path = dir.join(format!("{stem}.trace"));
                std::fs::write(&trace_path, &r.trace_text)
                    .map_err(|e| CliError(format!("cannot write {}: {e}", trace_path.display())))?;
            }
            let _ = writeln!(out, "wrote {}", scenario_path.display());
        }
    }
    Ok(out)
}

/// `automode sweep <model> [count] [ticks]` — loopback smoke run of the
/// scenario-sweep service: start a server on an ephemeral port, submit
/// the named built-in model as a sweep over real HTTP, stream the
/// results back, and report the sweep and cache/pool counters.
///
/// # Errors
///
/// Unknown models, rejected requests, truncated streams.
pub fn cmd_sweep(model_name: &str, count: usize, ticks: usize) -> Result<String, CliError> {
    use automode_core::json::{parse, Json, JsonWriter};
    use automode_core::types::DataType;

    let (m, id) = build_model(model_name)?;
    let text = automode_core::text::to_text(&m);
    let mut w = JsonWriter::with_capacity(text.len() + 512);
    w.begin_object();
    w.field("model").string(&text);
    w.field("count").uint(count as u64);
    w.field("ticks").uint(ticks as u64);
    w.field("lanes").uint(8);
    w.field("inputs");
    w.begin_array();
    for p in m.component(id).inputs() {
        w.begin_object();
        w.field("port").string(&p.name);
        match &p.ty {
            DataType::Bool => {
                w.field("kind").string("constant");
                w.field("value").boolean(true);
            }
            DataType::Enum(e) => {
                w.field("kind").string("constant");
                w.field("value").string(&e.literals[0]);
            }
            _ => {
                w.field("kind").string("ramp");
                w.field("from").number(0.0);
                w.field("to").number(1.0);
                w.field("to_step").number(0.25);
            }
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let body = w.finish();

    let server = automode_service::serve(automode_service::ServerConfig {
        oracle_every: 2,
        ..automode_service::ServerConfig::default()
    })
    .map_err(|e| CliError(format!("bind failed: {e}")))?;
    let resp = automode_service::post_sweep(server.addr(), &body)?;
    let (_, stats_body) = automode_service::get(server.addr(), "/stats")?;
    server.shutdown();

    if resp.status != 200 {
        return Err(CliError(format!(
            "sweep rejected ({}): {}",
            resp.status,
            resp.lines.join(" ")
        )));
    }
    if !resp.complete {
        return Err(CliError("truncated sweep stream".into()));
    }
    let parse_line = |l: &str| parse(l).map_err(CliError);
    let header = parse_line(&resp.lines[0])?;
    let sweep = header
        .get("sweep")
        .ok_or_else(|| CliError("missing sweep header line".into()))?;
    let done = parse_line(
        resp.lines
            .last()
            .ok_or_else(|| CliError("empty sweep stream".into()))?,
    )?;
    let done = done
        .get("done")
        .ok_or_else(|| CliError("missing done line".into()))?;
    let stats = parse_line(&stats_body)?;
    let uint = |v: Option<&Json>| v.and_then(|v| v.as_u64()).unwrap_or(0);
    let text_of = |v: Option<&Json>| v.and_then(|v| v.as_str()).unwrap_or("?").to_string();

    let mut out = String::new();
    let _ = writeln!(out, "scenario sweep: {model_name}");
    let _ = writeln!(
        out,
        "  scenarios: {}  lanes: {}  shards: {}",
        uint(sweep.get("scenarios")),
        uint(sweep.get("lanes")),
        uint(sweep.get("shards"))
    );
    let _ = writeln!(
        out,
        "  cache: {}  model hash: {}",
        text_of(sweep.get("cache")),
        text_of(sweep.get("model_hash"))
    );
    let _ = writeln!(
        out,
        "  status: {}  oracle shards: {}  divergences: {}",
        text_of(done.get("status")),
        uint(done.get("oracle_shards")),
        uint(done.get("oracle_divergences"))
    );
    let _ = writeln!(
        out,
        "  scenario lines: {}  elapsed: {} us",
        resp.lines.len().saturating_sub(2),
        uint(done.get("elapsed_us"))
    );
    let cache = stats.get("cache");
    let pool = stats.get("pool");
    let _ = writeln!(
        out,
        "  server: cache {} miss / {} hit, pool {} jobs",
        uint(cache.and_then(|c| c.get("misses"))),
        uint(cache.and_then(|c| c.get("hits"))),
        uint(pool.and_then(|p| p.get("executed")))
    );
    Ok(out)
}

/// `automode serve [addr]` — run the scenario-sweep service until the
/// process is killed. Streams the bound address to `out`, then blocks.
///
/// # Errors
///
/// Bind and write failures.
pub fn cmd_serve_to<W: std::io::Write>(addr: &str, out: &mut W) -> Result<(), CliError> {
    let server = automode_service::serve(automode_service::ServerConfig {
        addr: addr.to_string(),
        ..automode_service::ServerConfig::default()
    })
    .map_err(|e| CliError(format!("bind failed: {e}")))?;
    writeln!(out, "sweep service listening on http://{}", server.addr())
        .map_err(|e| CliError(format!("write failed: {e}")))?;
    out.flush()
        .map_err(|e| CliError(format!("flush failed: {e}")))?;
    // Serve until killed; graceful shutdown runs in the Server drop when
    // the process unwinds.
    loop {
        std::thread::park();
    }
}

/// Top-level dispatch used by the binary. `args` excludes the program name.
///
/// # Errors
///
/// Returns usage or command errors for the binary to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let usage =
        "usage: automode <list|validate|rules|simulate|explore|sweep|serve|dot|export|reengineer|deploy|cosim> [args]\n\
                 \n  list                      list built-in models\
                 \n  validate <model> [level]  check FAA/FDA conditions (default fda)\
                 \n  rules <model>             FAA design-rule findings\
                 \n  simulate <model> [ticks]  run with a default stimulus (default 20)\
                 \n                            [--explain-plan] print the execution plan\
                 \n  explore <model> [gens] [pop] [seed]\
                 \n                            coverage-guided exploration of the fault x stimulus\
                 \n                            space (default 6 generations x 4 scenarios, seed 0)\
                 \n                            with shrunk violation repros and a pure-random\
                 \n                            baseline; [--repros <dir>] write repro .json + .trace\
                 \n  sweep <model> [n] [ticks] loopback smoke run of the sweep service:\
                 \n                            n scenarios (default 64) through the compiled-model\
                 \n                            cache + K-lane batch worker pool (default 60 ticks)\
                 \n  serve [addr]              run the scenario-sweep HTTP service until killed\
                 \n                            (default 127.0.0.1:8080)\
                 \n  dot <model>               Graphviz rendering of the root notation\
                 \n  export <model>            serialize the model as .amdl text\
                 \n  check <file.amdl> [level] parse + validate an external model file\
                 \n  vcd <model> [ticks]       simulate and dump a VCD waveform\
                 \n  reengineer                Sec. 5 case study report\
                 \n  deploy                    Fig. 7 deployment + OA generation\
                 \n  cosim [scenario] [ticks]  timing-accurate OSEK/CAN co-simulation of the\
                 \n                            Fig. 7 deployment with LA differential + robustness\
                 \n                            checks; scenarios: nominal|lost-frame|bus-load\
                 \n                            (default nominal, 240 ticks) [--explain-plan]";
    match args.first().map(String::as_str) {
        Some("list") => Ok(cmd_list()),
        Some("validate") => {
            let model = args.get(1).ok_or_else(|| CliError(usage.into()))?;
            let level = args.get(2).map(String::as_str).unwrap_or("fda");
            cmd_validate(model, level)
        }
        Some("rules") => {
            let model = args.get(1).ok_or_else(|| CliError(usage.into()))?;
            cmd_rules(model)
        }
        Some("simulate") => {
            let (pos, explain) = split_flags(&args[1..])?;
            let model = pos.first().ok_or_else(|| CliError(usage.into()))?;
            let ticks = pos
                .get(1)
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| CliError(format!("bad tick count: {e}")))?
                .unwrap_or(20);
            cmd_simulate(model, ticks, explain)
        }
        Some("dot") => {
            let model = args.get(1).ok_or_else(|| CliError(usage.into()))?;
            cmd_dot(model)
        }
        Some("export") => {
            let model = args.get(1).ok_or_else(|| CliError(usage.into()))?;
            cmd_export(model)
        }
        Some("check") => {
            let path = args.get(1).ok_or_else(|| CliError(usage.into()))?;
            let level = args.get(2).map(String::as_str).unwrap_or("fda");
            cmd_check(path, level)
        }
        Some("vcd") => {
            let model = args.get(1).ok_or_else(|| CliError(usage.into()))?;
            let ticks = args
                .get(2)
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| CliError(format!("bad tick count: {e}")))?
                .unwrap_or(20);
            cmd_vcd(model, ticks)
        }
        Some("explore") => {
            // Positional args plus the one `--repros <dir>` flag.
            let mut pos: Vec<&String> = Vec::new();
            let mut repros = None;
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                if a == "--repros" {
                    repros = Some(
                        rest.next()
                            .ok_or_else(|| CliError("--repros needs a directory".into()))?
                            .as_str(),
                    );
                } else if a.starts_with("--") {
                    return Err(CliError(format!("unknown flag `{a}`")));
                } else {
                    pos.push(a);
                }
            }
            let model = pos.first().ok_or_else(|| CliError(usage.into()))?;
            let gens = pos
                .get(1)
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| CliError(format!("bad generation count: {e}")))?
                .unwrap_or(6);
            let pop = pos
                .get(2)
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| CliError(format!("bad population size: {e}")))?
                .unwrap_or(4);
            let seed = pos
                .get(3)
                .map(|s| s.parse::<u64>())
                .transpose()
                .map_err(|e| CliError(format!("bad seed: {e}")))?
                .unwrap_or(0);
            cmd_explore(model, gens, pop, seed, repros)
        }
        Some("sweep") => {
            let model = args.get(1).ok_or_else(|| CliError(usage.into()))?;
            let count = args
                .get(2)
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| CliError(format!("bad scenario count: {e}")))?
                .unwrap_or(64);
            let ticks = args
                .get(3)
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| CliError(format!("bad tick count: {e}")))?
                .unwrap_or(60);
            cmd_sweep(model, count, ticks)
        }
        Some("serve") => Err(CliError(
            "serve blocks forever; it is dispatched by the automode binary (run_to)".into(),
        )),
        Some("reengineer") => cmd_reengineer(),
        Some("deploy") => cmd_deploy(),
        Some("cosim") => {
            let (pos, explain) = split_flags(&args[1..])?;
            let scenario = pos.first().map(|s| s.as_str()).unwrap_or("nominal");
            let ticks = pos
                .get(1)
                .map(|s| s.parse::<u64>())
                .transpose()
                .map_err(|e| CliError(format!("bad tick count: {e}")))?
                .unwrap_or(240);
            cmd_cosim(scenario, ticks, explain)
        }
        _ => Err(CliError(usage.into())),
    }
}

/// Top-level dispatch that streams output into `out` — the binary's entry
/// point. `vcd` streams its waveform tick by tick ([`cmd_vcd_to`]); every
/// other command builds its report via [`run`] and writes it out.
///
/// # Errors
///
/// Same conditions as [`run`], plus I/O errors on `out`.
pub fn run_to<W: std::io::Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    if args.first().map(String::as_str) == Some("vcd") {
        let model = args
            .get(1)
            .ok_or_else(|| CliError("usage: automode vcd <model> [ticks]".into()))?;
        let ticks = args
            .get(2)
            .map(|s| s.parse::<usize>())
            .transpose()
            .map_err(|e| CliError(format!("bad tick count: {e}")))?
            .unwrap_or(20);
        return cmd_vcd_to(model, ticks, out);
    }
    if args.first().map(String::as_str) == Some("serve") {
        let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:8080");
        return cmd_serve_to(addr, out);
    }
    let report = run(args)?;
    out.write_all(report.as_bytes())
        .map_err(|e| CliError(format!("write failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_names_every_model() {
        let out = cmd_list();
        for (name, _) in MODELS {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn sweep_smoke_runs_the_service_loopback() {
        let out = run(&[
            "sweep".to_string(),
            "momentum".to_string(),
            "12".to_string(),
            "20".to_string(),
        ])
        .unwrap();
        assert!(out.contains("scenarios: 12"), "{out}");
        assert!(out.contains("status: ok"), "{out}");
        assert!(out.contains("divergences: 0"), "{out}");
        assert!(out.contains("scenario lines: 12"), "{out}");
        assert!(out.contains("cache: miss"), "{out}");
    }

    #[test]
    fn all_models_build_and_validate_fda() {
        for (name, _) in MODELS {
            let report = cmd_validate(name, "fda").unwrap();
            assert!(report.contains("OK"), "{name}: {report}");
        }
    }

    #[test]
    fn all_models_simulate() {
        for (name, _) in MODELS {
            let out = cmd_simulate(name, 10, false).unwrap();
            assert!(out.contains("t+0"), "{name} produced no trace:\n{out}");
        }
    }

    #[test]
    fn explain_plan_prints_plan_and_rejects_unknown_flags() {
        let out = cmd_simulate("momentum", 8, true).unwrap();
        assert!(out.contains("execution plan:"), "{out}");
        let out = run(&[
            "simulate".into(),
            "momentum".into(),
            "8".into(),
            "--explain-plan".into(),
        ])
        .unwrap();
        assert!(out.contains("execution plan:"));
        assert!(run(&["simulate".into(), "momentum".into(), "--bogus".into()]).is_err());
    }

    #[test]
    fn explain_plan_reports_the_lane_plan() {
        // The Sec. 5 engine runs every node on a lane kernel at K = 32,
        // in covered batches too: one plan serves both.
        let out = cmd_simulate("engine", 8, true).unwrap();
        assert!(out.contains("lane plan: lanes=32 "), "{out}");
        assert!(out.contains(" replica=0\n"), "{out}");
        assert!(!out.contains("  replica "), "{out}");
    }

    #[test]
    fn cosim_nominal_preserves_envelope() {
        let out = cmd_cosim("nominal", 120, false).unwrap();
        assert!(out.contains("envelope PRESERVED"), "{out}");
        assert!(out.contains("robustness: clean"), "{out}");
        assert!(cmd_cosim("nope", 10, false).is_err());
    }

    #[test]
    fn cosim_lost_frame_reports_detection_latency() {
        let out = cmd_cosim("lost-frame", 240, true).unwrap();
        assert!(out.contains("execution plans (per cluster body):"), "{out}");
        assert!(out.contains("envelope VIOLATED"), "{out}");
        assert!(out.contains("detection latency"), "{out}");
    }

    #[test]
    fn cosim_dispatches_with_defaults() {
        let out = run(&["cosim".into()]).unwrap();
        assert!(out.contains("scenario: nominal"), "{out}");
        let out = run(&["cosim".into(), "bus-load".into(), "120".into()]).unwrap();
        assert!(out.contains("babbling"), "{out}");
        assert!(run(&["cosim".into(), "nominal".into(), "abc".into()]).is_err());
    }

    #[test]
    fn explore_engine_beats_random_baseline_at_default_budget() {
        // The CI gate: the default budget and seed pin a configuration
        // where guided search strictly beats the random baseline on
        // transition coverage of the reengineered engine.
        let out = run(&["explore".into(), "engine".into()]).unwrap();
        assert!(out.contains("coverage:"), "{out}");
        let adv = out
            .lines()
            .find(|l| l.starts_with("guided advantage:"))
            .unwrap_or_else(|| panic!("no advantage line:\n{out}"));
        assert!(
            adv.contains("+2 transition(s)"),
            "expected the pinned +2 transition margin: {adv}"
        );
    }

    #[test]
    fn explore_writes_replayable_repro_files() {
        let dir = std::env::temp_dir().join("automode_cli_explore_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(&[
            "explore".into(),
            "engine".into(),
            "6".into(),
            "16".into(),
            "5".into(),
            "--repros".into(),
            dir.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("repro contract:"), "{out}");
        assert!(out.contains("deterministic"), "{out}");
        let mut wrote_scenario = false;
        let mut wrote_trace = false;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("json") => {
                    // Every repro file must parse back to a scenario.
                    let text = std::fs::read_to_string(&path).unwrap();
                    automode_explore::Scenario::from_json(&text)
                        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                    wrote_scenario = true;
                }
                Some("trace") => wrote_trace = true,
                _ => {}
            }
        }
        assert!(wrote_scenario, "no .json repro files written");
        assert!(wrote_trace, "no .trace golden traces written");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explore_rejects_bad_arguments() {
        assert!(run(&["explore".into()]).is_err());
        assert!(run(&["explore".into(), "nope".into()]).is_err());
        assert!(run(&["explore".into(), "engine".into(), "abc".into()]).is_err());
        assert!(run(&["explore".into(), "engine".into(), "--bogus".into()]).is_err());
        assert!(run(&["explore".into(), "engine".into(), "--repros".into()]).is_err());
    }

    #[test]
    fn explore_covers_every_builtin_model() {
        // Exploration must run on all built-ins, including those with no
        // coverage sites (door_lock) and event-style outputs (sequencer).
        for (name, _) in MODELS {
            let out = run(&["explore".into(), (*name).into(), "2".into(), "4".into()])
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.contains("coverage:"), "{name}:\n{out}");
        }
    }

    #[test]
    fn dot_renders_each_notation() {
        assert!(cmd_dot("engine_modes").unwrap().contains("(MTD)"));
        assert!(cmd_dot("sequencer").unwrap().contains("(STD)"));
        assert!(cmd_dot("momentum").unwrap().contains("(DFD)"));
    }

    #[test]
    fn reengineer_and_deploy_report() {
        let r = cmd_reengineer().unwrap();
        assert!(r.contains("3 MTDs"));
        let d = cmd_deploy().unwrap();
        assert!(d.contains("engine_ecu/project.amdesc"));
        assert!(d.contains("fuel_control"));
    }

    #[test]
    fn unknown_model_and_usage_errors() {
        assert!(build_model("nope").is_err());
        assert!(run(&[]).is_err());
        assert!(run(&["validate".into()]).is_err());
        assert!(run(&["simulate".into(), "momentum".into(), "abc".into()]).is_err());
    }

    #[test]
    fn check_roundtrips_an_exported_file() {
        let dir = std::env::temp_dir().join("automode_cli_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("momentum.amdl");
        std::fs::write(&path, cmd_export("momentum").unwrap()).unwrap();
        let report = cmd_check(path.to_str().unwrap(), "fda").unwrap();
        assert!(report.contains("validation OK"), "{report}");
        assert!(cmd_check("/nonexistent/file.amdl", "fda").is_err());
    }

    #[test]
    fn vcd_command_produces_valid_header() {
        let vcd = cmd_vcd("engine_modes", 10).unwrap();
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("ti"));
    }

    #[test]
    fn export_produces_parseable_amdl() {
        for (name, _) in MODELS {
            let text = cmd_export(name).unwrap();
            automode_core::text::from_text(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn run_dispatches() {
        let out = run(&["list".into()]).unwrap();
        assert!(out.contains("momentum"));
        let out = run(&["simulate".into(), "door_lock".into(), "8".into()]).unwrap();
        assert!(out.contains("T1C"));
    }
}
