//! Automatic shrinking of violating scenarios to minimal golden repros.
//!
//! The oracle is the compiled model itself with the vectorized batch path
//! disabled ([`CompiledSim::set_batch_vectorization`]), so every lane runs
//! alone through the single-run loop — a deliberately *different* loop
//! from the typed batch that found the violation, so a repro that
//! survives shrinking is already a two-executor reproduction. The
//! shrinker then greedily minimizes while preserving the violation
//! signature: truncate to the first violating tick, drop fault genes to a
//! fixpoint, simplify stimulus genes down a complexity ladder (constants,
//! then absence), and trim remaining ticks one by one. The result is
//! checked for determinism (two replays, identical canonical traces) and
//! local minimality (every single-step reduction loses the finding).

use automode_kernel::RobustnessReport;
use automode_sim::{CompiledSim, ContractMonitor, SimError};

use crate::explore::Repro;
use crate::scenario::{Scenario, Stim};

/// The stable signature of a contract violation: the *set* of violated
/// signals, sorted and joined. Ticks and observed values deliberately
/// stay out — shrinking moves them — but the full set stays in, so a
/// shrink step that breaks *additional* contracts (e.g. blanking an
/// input that starves every output) changes the signature and is
/// rejected: repros stay pinned to exactly the contracts they broke.
pub fn signature_of_report(report: &RobustnessReport) -> Option<String> {
    if report.is_clean() {
        return None;
    }
    let mut signals: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.signal.as_str())
        .chain(report.missing_signals.iter().map(String::as_str))
        .collect();
    signals.sort_unstable();
    signals.dedup();
    Some(format!("contract:{}", signals.join("+")))
}

/// The signature of a crashed lane.
pub fn signature_of_error(e: &SimError) -> String {
    format!("error:{e}")
}

/// What one oracle replay of a scenario produced.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    /// No violation, no crash.
    Clean,
    /// A contract violation: signature, first violating tick, canonical
    /// trace text.
    Violation(String, u64, String),
    /// The kernel rejected the scenario (signature only — no trace).
    Crash(String),
}

impl Verdict {
    fn signature(&self) -> Option<&str> {
        match self {
            Verdict::Clean => None,
            Verdict::Violation(sig, _, _) | Verdict::Crash(sig) => Some(sig),
        }
    }
}

/// The shrinking oracle: a clone of the compiled model pinned to the
/// single-run loop, plus its inferred contracts.
pub struct Shrinker {
    sim: CompiledSim,
    monitor: ContractMonitor,
    /// Per-input simplification budget — bounds the constant-halving
    /// ladder so shrinking always terminates quickly.
    max_ladder_steps: usize,
}

impl Shrinker {
    /// Builds the oracle from a compiled handle. The clone runs with
    /// batch vectorization off, so replays exercise the single-run loop
    /// rather than the typed lanes that found the violation.
    pub fn new(sim: &CompiledSim) -> Shrinker {
        let mut sim = sim.clone();
        sim.set_batch_vectorization(false);
        let monitor = sim.monitor();
        Shrinker {
            sim,
            monitor,
            max_ladder_steps: 64,
        }
    }

    /// Replaces the inferred contracts — must match the monitor the
    /// explorer searched with, or signatures won't reproduce.
    /// Builder-style.
    pub fn with_monitor(mut self, monitor: ContractMonitor) -> Shrinker {
        self.monitor = monitor;
        self
    }

    fn replay(&self, sc: &Scenario) -> Verdict {
        let scenarios = std::slice::from_ref(sc);
        let expanded = crate::explore::expand(scenarios);
        let batch = crate::explore::lanes(scenarios, &expanded);
        match self.sim.run_batch(&batch) {
            Err(e) => Verdict::Crash(signature_of_error(&e)),
            Ok(runs) => {
                let report = self.monitor.check(&runs[0].trace);
                match (signature_of_report(&report), report.first_violation_tick()) {
                    (Some(sig), Some(tick)) => {
                        Verdict::Violation(sig, tick, runs[0].trace.to_canonical_text())
                    }
                    _ => Verdict::Clean,
                }
            }
        }
    }

    fn reproduces(&self, sc: &Scenario, signature: &str) -> bool {
        self.replay(sc).signature() == Some(signature)
    }

    /// Shrinks `scenario` while preserving `signature`. If the oracle
    /// cannot reproduce the finding at all (a vectorization-dependent
    /// divergence would be a kernel bug), the original scenario comes
    /// back unshrunk with `shrunk: false`.
    pub fn shrink(&self, scenario: &Scenario, signature: &str) -> Repro {
        let mut cur = scenario.clone();
        let initial = self.replay(&cur);
        if initial.signature() != Some(signature) {
            return Repro {
                signature: signature.to_string(),
                scenario: cur,
                trace_text: String::new(),
                shrunk: false,
                minimal: false,
                deterministic: false,
            };
        }

        // 1. Jump-truncate: nothing after the first violating tick can
        //    matter for a presence violation.
        if let Verdict::Violation(_, tick, _) = &initial {
            let candidate_ticks = (*tick as usize + 1).min(cur.ticks);
            if candidate_ticks < cur.ticks {
                let mut cand = cur.clone();
                cand.ticks = candidate_ticks;
                if self.reproduces(&cand, signature) {
                    cur = cand;
                }
            }
        }

        // 2. Drop fault genes to a fixpoint (order-independent greedy).
        loop {
            let mut removed = false;
            let mut i = 0;
            while i < cur.faults.len() {
                let mut cand = cur.clone();
                cand.faults.remove(i);
                if self.reproduces(&cand, signature) {
                    cur = cand;
                    removed = true;
                } else {
                    i += 1;
                }
            }
            if !removed {
                break;
            }
        }

        // 3. Simplify each stimulus gene down its complexity ladder.
        for i in 0..cur.inputs.len() {
            let mut steps = 0;
            'ladder: while steps < self.max_ladder_steps {
                steps += 1;
                for simpler in simpler_stims(&cur.inputs[i].1) {
                    let mut cand = cur.clone();
                    cand.inputs[i].1 = simpler;
                    if self.reproduces(&cand, signature) {
                        cur = cand;
                        continue 'ladder;
                    }
                }
                break;
            }
        }

        // 4. Trim remaining ticks one at a time.
        while cur.ticks > 1 {
            let mut cand = cur.clone();
            cand.ticks -= 1;
            if self.reproduces(&cand, signature) {
                cur = cand;
            } else {
                break;
            }
        }

        // 5. Determinism: two independent replays must agree bit-for-bit.
        let a = self.replay(&cur);
        let b = self.replay(&cur);
        let deterministic = a == b && a.signature() == Some(signature);
        let trace_text = match &a {
            Verdict::Violation(_, _, text) => text.clone(),
            _ => String::new(),
        };

        // 6. Local minimality: every single-step reduction loses the
        //    finding. (True by construction after the fixpoints above —
        //    verified, not assumed.)
        let minimal = self.is_locally_minimal(&cur, signature);

        Repro {
            signature: signature.to_string(),
            scenario: cur,
            trace_text,
            shrunk: true,
            minimal,
            deterministic,
        }
    }

    /// `true` iff dropping any single fault gene, blanking any non-absent
    /// stimulus gene, or cutting the last tick loses the signature.
    pub fn is_locally_minimal(&self, sc: &Scenario, signature: &str) -> bool {
        for i in 0..sc.faults.len() {
            let mut cand = sc.clone();
            cand.faults.remove(i);
            if self.reproduces(&cand, signature) {
                return false;
            }
        }
        for i in 0..sc.inputs.len() {
            if sc.inputs[i].1 != Stim::Absent {
                let mut cand = sc.clone();
                cand.inputs[i].1 = Stim::Absent;
                if self.reproduces(&cand, signature) {
                    return false;
                }
            }
        }
        if sc.ticks > 1 {
            let mut cand = sc.clone();
            cand.ticks -= 1;
            if self.reproduces(&cand, signature) {
                return false;
            }
        }
        true
    }

    /// Replays a (typically shrunk) scenario and returns its canonical
    /// trace text, or `None` if it no longer produces a violation trace.
    pub fn golden_trace(&self, sc: &Scenario) -> Option<String> {
        match self.replay(sc) {
            Verdict::Violation(_, _, text) => Some(text),
            _ => None,
        }
    }

    /// Classifies a scenario: `Some(signature)` if it violates or
    /// crashes, `None` if clean.
    pub fn classify(&self, sc: &Scenario) -> Option<String> {
        self.replay(sc).signature().map(str::to_string)
    }
}

/// The next-simpler candidates for a stimulus gene, simplest first. Every
/// candidate is strictly lower on the complexity ladder (absent <
/// constant < shaped), so repeated acceptance terminates.
fn simpler_stims(stim: &Stim) -> Vec<Stim> {
    match stim {
        Stim::Absent => Vec::new(),
        Stim::ConstFloat(v) => {
            let mut c = vec![Stim::Absent];
            if *v != 0.0 {
                c.push(Stim::ConstFloat(0.0));
                if v.abs() > 1e-3 {
                    c.push(Stim::ConstFloat(v / 2.0));
                }
            }
            c
        }
        Stim::ConstInt(v) => {
            let mut c = vec![Stim::Absent];
            if *v != 0 {
                c.push(Stim::ConstInt(0));
                c.push(Stim::ConstInt(v / 2));
            }
            c
        }
        Stim::ConstBool(v) => {
            let mut c = vec![Stim::Absent];
            if *v {
                c.push(Stim::ConstBool(false));
            }
            c
        }
        Stim::ConstSym(_) => vec![Stim::Absent],
        Stim::Ramp { from, to } => vec![
            Stim::Absent,
            Stim::ConstFloat(*from),
            Stim::ConstFloat(*to),
            Stim::ConstFloat((*from + *to) / 2.0),
        ],
        Stim::Step { before, after, .. } => vec![
            Stim::Absent,
            Stim::ConstFloat(*before),
            Stim::ConstFloat(*after),
        ],
        Stim::RandomFloat { lo, hi, .. } => vec![
            Stim::Absent,
            Stim::ConstFloat((*lo + *hi) / 2.0),
            Stim::ConstFloat(*lo),
            Stim::ConstFloat(*hi),
        ],
        Stim::RandomInt { lo, hi, .. } => vec![
            Stim::Absent,
            Stim::ConstInt((*lo + *hi) / 2),
            Stim::ConstInt(*lo),
        ],
        Stim::RandomBool { .. } => {
            vec![Stim::Absent, Stim::ConstBool(false), Stim::ConstBool(true)]
        }
        Stim::SporadicSym { symbols, .. } => {
            let mut c = vec![Stim::Absent];
            if let Some(first) = symbols.first() {
                c.push(Stim::ConstSym(first.clone()));
            }
            c
        }
        // Either half alone is strictly shallower; depth decreases on
        // every acceptance, so nested splices unwind.
        Stim::Splice { first, second, .. } => {
            vec![Stim::Absent, (**second).clone(), (**first).clone()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_terminate_at_absent() {
        // Walking any gene downhill (always taking the last candidate,
        // the slowest route) must bottom out.
        let mut stim = Stim::RandomFloat {
            lo: -8.0,
            hi: 8.0,
            seed: 3,
        };
        let mut hops = 0;
        while let Some(next) = simpler_stims(&stim).pop() {
            stim = next;
            hops += 1;
            assert!(hops < 100, "ladder did not terminate");
        }
        assert_eq!(stim, Stim::Absent);
    }

    #[test]
    fn absent_has_no_simpler_form() {
        assert!(simpler_stims(&Stim::Absent).is_empty());
    }
}
