//! Execution traces and trace equivalence.
//!
//! A [`Trace`] records, per named signal, the message observed at every tick
//! of a run — exactly the tabular view of the paper's Fig. 1. Traces are the
//! semantic ground truth used to validate transformations: the paper requires
//! e.g. that the MTD-to-dataflow transformation produce a *semantically
//! equivalent* model (Sec. 3.3), which we check as trace equivalence under a
//! configurable [`TraceEquivalence`] relation.

use std::collections::HashMap;
use std::fmt;

use crate::error::KernelError;
use crate::stream::Stream;
use crate::value::Message;

mod text;

pub use text::{escape_json_into, write_float, write_u64, TextMode};

/// A recorded run: named signals, each with one message per tick.
///
/// Storage is columnar: one [`Stream`] per declared signal, in declaration
/// order, with an interned name → column index map. The hot append path is
/// [`Trace::push_row_indexed`], which touches no strings at all.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    names: Vec<String>,
    columns: Vec<Stream>,
    index: HashMap<String, usize>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        // Traces compare by content (name/column pairs in declaration
        // order); the index map is derived state.
        self.names == other.names && self.columns == other.columns
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Declares a signal (so zero-tick runs still list it) and returns its
    /// column index, interning the name on first sight.
    pub fn declare(&mut self, name: impl Into<String>) -> usize {
        let name = name.into();
        if let Some(&i) = self.index.get(&name) {
            return i;
        }
        let i = self.names.len();
        self.index.insert(name.clone(), i);
        self.names.push(name);
        self.columns.push(Stream::new());
        i
    }

    /// The column index of a declared signal.
    pub fn column_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Appends one tick of observations, given as `(signal, message)` pairs.
    ///
    /// # Errors
    ///
    /// Fails with [`KernelError::DuplicateName`] if a signal appears twice in
    /// the row.
    pub fn push_row(&mut self, row: &[(String, Message)]) -> Result<(), KernelError> {
        // Interned-index duplicate check: one hash lookup per entry instead
        // of a string scan over all columns.
        let mut seen: Vec<usize> = Vec::with_capacity(row.len());
        for (name, _) in row {
            let i = self.declare(name.clone());
            if seen.contains(&i) {
                return Err(KernelError::DuplicateName(name.clone()));
            }
            seen.push(i);
        }
        for ((_, msg), &i) in row.iter().zip(&seen) {
            self.columns[i].push(msg.clone());
        }
        Ok(())
    }

    /// Appends one tick of observations by column index: `row[i]` goes to
    /// the `i`-th declared signal. This is the zero-string fast path used by
    /// the compiled executor.
    ///
    /// # Errors
    ///
    /// Fails with [`KernelError::RowArity`] if `row` does not have exactly
    /// one message per declared signal.
    pub fn push_row_indexed(&mut self, row: &[Message]) -> Result<(), KernelError> {
        if row.len() != self.columns.len() {
            return Err(KernelError::RowArity {
                expected: self.columns.len(),
                found: row.len(),
            });
        }
        for (col, msg) in self.columns.iter_mut().zip(row) {
            col.push(msg.clone());
        }
        Ok(())
    }

    /// Appends `count` identical ticks of observations by column index —
    /// the bulk path the discrete-event engine uses to emit a provably
    /// silent stretch in one call per column instead of one per tick.
    ///
    /// # Errors
    ///
    /// Fails with [`KernelError::RowArity`] if `row` does not have exactly
    /// one message per declared signal.
    pub fn push_row_repeat_indexed(
        &mut self,
        row: &[Message],
        count: usize,
    ) -> Result<(), KernelError> {
        if row.len() != self.columns.len() {
            return Err(KernelError::RowArity {
                expected: self.columns.len(),
                found: row.len(),
            });
        }
        for (col, msg) in self.columns.iter_mut().zip(row) {
            col.extend_constant(msg, count);
        }
        Ok(())
    }

    /// Inserts or replaces a whole signal history.
    pub fn insert(&mut self, name: impl Into<String>, stream: Stream) {
        let i = self.declare(name);
        self.columns[i] = stream;
    }

    /// The history of one signal.
    pub fn signal(&self, name: &str) -> Option<&Stream> {
        self.index.get(name).map(|&i| &self.columns[i])
    }

    /// Signal names, in declaration order.
    pub fn signal_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Number of recorded signals.
    pub fn signal_count(&self) -> usize {
        self.columns.len()
    }

    /// Number of ticks recorded (length of the longest signal).
    pub fn tick_count(&self) -> usize {
        self.columns.iter().map(Stream::len).max().unwrap_or(0)
    }

    /// Signal names with their histories, in declaration order.
    pub fn signals(&self) -> impl Iterator<Item = (&str, &Stream)> {
        self.names.iter().map(String::as_str).zip(&self.columns)
    }

    /// Serializes the trace to a stable, line-oriented text form for golden
    /// snapshot files: a versioned header, then each signal in declaration
    /// order with one `  {tick} {message}` line per tick (absence prints as
    /// `-`). The format is deterministic — identical traces produce
    /// byte-identical text — so snapshot tests can compare with `==`.
    ///
    /// A wrapper over [`Trace::write_canonical`] in [`TextMode::Plain`].
    pub fn to_canonical_text(&self) -> String {
        let mut out = Vec::new();
        self.write_canonical(&mut out, TextMode::Plain);
        String::from_utf8(out).expect("the canonical text writer appends only UTF-8")
    }

    /// Restricts the trace to the named signals (missing names are skipped).
    pub fn project(&self, names: &[&str]) -> Trace {
        let mut t = Trace::new();
        for &n in names {
            if let Some(s) = self.signal(n) {
                t.insert(n, s.clone());
            }
        }
        t
    }

    /// Renames a signal, returning whether it existed.
    pub fn rename(&mut self, from: &str, to: impl Into<String>) -> bool {
        let Some(i) = self.index.remove(from) else {
            return false;
        };
        let to = to.into();
        self.names[i] = to.clone();
        self.index.insert(to, i);
        true
    }

    /// Compares against another trace under an equivalence relation,
    /// returning the first difference if any.
    pub fn diff(&self, other: &Trace, rel: &TraceEquivalence) -> Option<TraceDiff> {
        let names: Vec<&str> = match &rel.signals {
            Some(names) => names.iter().map(String::as_str).collect(),
            None => {
                // Union of names; a signal missing on either side is a diff.
                let mut names: Vec<&str> = self.signal_names().collect();
                for n in other.signal_names() {
                    if !names.contains(&n) {
                        names.push(n);
                    }
                }
                names
            }
        };
        for name in names {
            let (a, b) = match (self.signal(name), other.signal(name)) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Some(TraceDiff {
                        signal: name.to_string(),
                        tick: 0,
                        left: None,
                        right: None,
                        reason: "signal missing on one side".to_string(),
                    })
                }
            };
            let len = a.len().max(b.len());
            for t in rel.skip_ticks..len {
                let bt = t as i64 + rel.shift;
                let ma = a.get(t).cloned().unwrap_or(Message::Absent);
                let mb = if bt < 0 {
                    Message::Absent
                } else {
                    b.get(bt as usize).cloned().unwrap_or(Message::Absent)
                };
                if !rel.messages_equal(&ma, &mb) {
                    return Some(TraceDiff {
                        signal: name.to_string(),
                        tick: t as u64,
                        left: Some(ma),
                        right: Some(mb),
                        reason: "messages differ".to_string(),
                    });
                }
            }
        }
        None
    }

    /// `true` if the traces are equivalent under `rel`.
    pub fn equivalent(&self, other: &Trace, rel: &TraceEquivalence) -> bool {
        self.diff(other, rel).is_none()
    }

    /// Renders the trace as the paper's Fig. 1 table: one row per signal,
    /// one column per tick, `-` for absence.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let ticks = self.tick_count();
        let name_w = self.names.iter().map(String::len).max().unwrap_or(1).max(6);
        out.push_str(&format!("{:name_w$} |", "signal"));
        for t in 0..ticks {
            out.push_str(&format!(" t+{t:<4}"));
        }
        out.push('\n');
        for (name, s) in self.names.iter().zip(&self.columns) {
            out.push_str(&format!("{name:name_w$} |"));
            for t in 0..ticks {
                let cell = s
                    .get(t)
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "-".to_string());
                out.push_str(&format!(" {cell:<5}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

/// The first difference found between two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// The differing signal.
    pub signal: String,
    /// The tick (left-trace time base) of the difference.
    pub tick: u64,
    /// Left message at that tick.
    pub left: Option<Message>,
    /// Right message at the (shifted) tick.
    pub right: Option<Message>,
    /// A human-readable reason.
    pub reason: String,
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "signal `{}` differs at tick {}: {} vs {} ({})",
            self.signal,
            self.tick,
            self.left
                .as_ref()
                .map(|m| m.to_string())
                .unwrap_or_else(|| "?".into()),
            self.right
                .as_ref()
                .map(|m| m.to_string())
                .unwrap_or_else(|| "?".into()),
            self.reason
        )
    }
}

/// An equivalence relation on traces.
///
/// The default is exact equality on all shared signals. Relaxations cover
/// the legitimate differences introduced by AutoMoDe transformations:
///
/// * [`TraceEquivalence::with_tolerance`] — numeric tolerance, for comparing
///   a floating-point FDA model with its fixed-point LA refinement;
/// * [`TraceEquivalence::with_shift`] — constant latency, for SSD channels
///   and deployment delays;
/// * [`TraceEquivalence::on_signals`] — restrict to an observable interface;
/// * [`TraceEquivalence::skipping`] — ignore a startup transient.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceEquivalence {
    tolerance: f64,
    shift: i64,
    skip_ticks: usize,
    signals: Option<Vec<String>>,
    /// Treat absence on one side as equal to anything (projection onto the
    /// present ticks of the left trace).
    absent_wildcard: bool,
}

impl TraceEquivalence {
    /// Exact equality on all signals.
    pub fn exact() -> Self {
        TraceEquivalence::default()
    }

    /// Adds a numeric tolerance for value comparison.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Compares left tick `t` against right tick `t + shift`.
    pub fn with_shift(mut self, shift: i64) -> Self {
        self.shift = shift;
        self
    }

    /// Ignores the first `n` ticks (startup transient).
    pub fn skipping(mut self, n: usize) -> Self {
        self.skip_ticks = n;
        self
    }

    /// Restricts comparison to the named signals.
    pub fn on_signals(mut self, names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.signals = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Treats a left-side absence as matching anything (sampled comparison).
    pub fn with_absent_wildcard(mut self) -> Self {
        self.absent_wildcard = true;
        self
    }

    fn messages_equal(&self, a: &Message, b: &Message) -> bool {
        match (a, b) {
            (Message::Absent, Message::Absent) => true,
            (Message::Absent, _) if self.absent_wildcard => true,
            (Message::Present(x), Message::Present(y)) => x.approx_eq(y, self.tolerance),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn trace_of(name: &str, vals: Vec<Message>) -> Trace {
        let mut t = Trace::new();
        t.insert(name, vals.into_iter().collect());
        t
    }

    #[test]
    fn push_row_builds_columns() {
        let mut t = Trace::new();
        t.push_row(&[("x".into(), Message::present(1i64))]).unwrap();
        t.push_row(&[("x".into(), Message::Absent)]).unwrap();
        assert_eq!(t.tick_count(), 2);
        assert_eq!(t.signal("x").unwrap().present_count(), 1);
    }

    #[test]
    fn push_row_rejects_duplicates() {
        let mut t = Trace::new();
        let row = vec![
            ("x".to_string(), Message::present(1i64)),
            ("x".to_string(), Message::present(2i64)),
        ];
        assert!(t.push_row(&row).is_err());
    }

    #[test]
    fn exact_equivalence() {
        let a = trace_of("s", vec![Message::present(1i64), Message::Absent]);
        let b = trace_of("s", vec![Message::present(1i64), Message::Absent]);
        assert!(a.equivalent(&b, &TraceEquivalence::exact()));
        let c = trace_of("s", vec![Message::present(2i64), Message::Absent]);
        let d = a.diff(&c, &TraceEquivalence::exact()).unwrap();
        assert_eq!(d.signal, "s");
        assert_eq!(d.tick, 0);
    }

    #[test]
    fn missing_signal_is_a_difference() {
        let a = trace_of("s", vec![Message::present(1i64)]);
        let b = trace_of("t", vec![Message::present(1i64)]);
        assert!(!a.equivalent(&b, &TraceEquivalence::exact()));
        // ...unless comparison is restricted to a shared interface.
        let rel = TraceEquivalence::exact().on_signals(Vec::<String>::new());
        assert!(a.equivalent(&b, &rel));
    }

    #[test]
    fn tolerance_compares_across_numeric_kinds() {
        let a = trace_of("s", vec![Message::present(Value::Float(1.0))]);
        let b = trace_of(
            "s",
            vec![Message::present(Value::Fixed(
                crate::value::Fixed::from_f64(1.002, 8),
            ))],
        );
        assert!(!a.equivalent(&b, &TraceEquivalence::exact()));
        assert!(a.equivalent(&b, &TraceEquivalence::exact().with_tolerance(0.01)));
    }

    #[test]
    fn shift_matches_delayed_trace() {
        let a = trace_of("s", vec![Message::present(1i64), Message::present(2i64)]);
        let b = trace_of(
            "s",
            vec![
                Message::Absent,
                Message::present(1i64),
                Message::present(2i64),
            ],
        );
        // b is a by one tick of latency: compare a[t] with b[t+1].
        assert!(a.equivalent(&b, &TraceEquivalence::exact().with_shift(1)));
        assert!(!a.equivalent(&b, &TraceEquivalence::exact()));
    }

    #[test]
    fn skipping_ignores_startup() {
        let a = trace_of("s", vec![Message::present(0i64), Message::present(2i64)]);
        let b = trace_of("s", vec![Message::present(9i64), Message::present(2i64)]);
        assert!(a.equivalent(&b, &TraceEquivalence::exact().skipping(1)));
    }

    #[test]
    fn absent_wildcard_projects_left() {
        let a = trace_of("s", vec![Message::Absent, Message::present(2i64)]);
        let b = trace_of("s", vec![Message::present(7i64), Message::present(2i64)]);
        assert!(a.equivalent(&b, &TraceEquivalence::exact().with_absent_wildcard()));
        assert!(!b.equivalent(&a, &TraceEquivalence::exact().with_absent_wildcard()));
    }

    #[test]
    fn table_rendering_matches_fig1_style() {
        let mut t = Trace::new();
        t.insert(
            "T4S",
            vec![
                Message::present(20i64),
                Message::Absent,
                Message::present(23i64),
            ]
            .into_iter()
            .collect(),
        );
        let table = t.to_table();
        assert!(table.contains("T4S"));
        assert!(table.contains("20"));
        assert!(table.contains('-'));
        assert!(table.contains("23"));
    }

    #[test]
    fn project_and_rename() {
        let mut t = Trace::new();
        t.insert("a", Stream::from_values([1i64]));
        t.insert("b", Stream::from_values([2i64]));
        let p = t.project(&["b", "zzz"]);
        assert_eq!(p.signal_count(), 1);
        let mut t2 = t.clone();
        assert!(t2.rename("a", "alpha"));
        assert!(t2.signal("alpha").is_some());
        assert!(!t2.rename("nope", "x"));
    }
}
