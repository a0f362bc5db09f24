//! Experiment E1 (Fig. 1): message-based, time-synchronous communication.
//!
//! Regenerates the Fig. 1 trace of `DoorLockControl` (values and `-`
//! absences per tick) and measures simulation throughput of the
//! event-triggered component.

use automode_bench::{time_and_print, Arm};
use automode_core::model::Model;
use automode_engine::build_door_lock;
use automode_kernel::{Message, Value};
use automode_sim::elaborate;

fn fig1_trace_report() {
    let mut model = Model::new("fig1");
    let ctrl = build_door_lock(&mut model).unwrap();
    let ticks = 6usize;
    let mut t4s = vec![Message::Absent; ticks];
    t4s[1] = Message::present(Value::sym("Locked"));
    t4s[4] = Message::present(Value::sym("Unlocked"));
    let run = automode_sim::simulate_component(
        &model,
        ctrl,
        &[
            ("T4S", t4s.into_iter().collect()),
            ("CRSH", automode_kernel::Stream::absent(ticks)),
            (
                "FZG_V",
                automode_sim::stimulus::constant(Value::Float(12.0), ticks),
            ),
        ],
        ticks,
    )
    .unwrap();
    eprintln!("\n[E1 report] Fig. 1 regenerated trace:");
    eprintln!("{}", run.trace.project(&["in:T4S", "T1C", "T4C"]));
}

fn main() {
    fig1_trace_report();
    let mut model = Model::new("fig1");
    let ctrl = build_door_lock(&mut model).unwrap();

    let mut arms = Vec::new();
    for &ticks in &[100usize, 1_000, 10_000] {
        // Sporadic events at 10% density.
        let t4s = automode_sim::stimulus::sporadic(0.1, ticks, 1);
        let t4s: automode_kernel::Stream = t4s
            .iter()
            .map(|m| m.clone().map(|_| Value::sym("Locked")))
            .collect();
        let crsh = automode_kernel::Stream::absent(ticks);
        let volt = automode_sim::stimulus::constant(Value::Float(12.0), ticks);
        // Declaration order of DoorLockControl inputs: T4S, CRSH, FZG_V.
        let stim: Vec<Vec<Message>> = (0..ticks)
            .map(|t| {
                vec![
                    t4s.get(t).cloned().unwrap_or(Message::Absent),
                    crsh.get(t).cloned().unwrap_or(Message::Absent),
                    volt.get(t).cloned().unwrap_or(Message::Absent),
                ]
            })
            .collect();
        let (model, ctrl) = (&model, ctrl);
        arms.push(Arm::iter(
            format!("fig1_communication/simulate_ticks/{ticks}"),
            move || {
                let net = elaborate(model, ctrl).unwrap();
                let mut ready = net.prepare().unwrap();
                for row in &stim {
                    ready.step_tick(row).unwrap();
                }
            },
        ));
    }
    time_and_print(arms);
}
