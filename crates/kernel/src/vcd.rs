//! VCD (value change dump) export of traces.
//!
//! Renders a [`Trace`](crate::Trace) as a VCD waveform so runs can be
//! inspected in standard viewers (GTKWave et al.). The mapping per signal
//! kind, chosen from the first present message:
//!
//! * `Bool` → 1-bit wire (`0`/`1`); absence is `x`;
//! * `Int`/`Float`/`Fixed` → `real`; absence is `NaN` (rendered `rnan`);
//! * `Sym` → string variable (a GTKWave-supported extension); absence is
//!   the empty string.
//!
//! One VCD time unit is one tick of the global base clock; values are
//! emitted only on change, per VCD semantics.
//!
//! [`write_vcd`] streams the dump into any [`io::Write`] holding only one
//! tick's change block in memory — the right entry point for exporting long
//! traces from the CLI. [`to_vcd`] renders the same bytes into a `String`.

use std::fmt::Write as _;
use std::io;

use crate::stream::Stream;
use crate::trace::Trace;
use crate::value::{Message, Value};

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarKind {
    Wire,
    Real,
    Text,
}

fn kind_of(stream: &Stream) -> VarKind {
    for m in stream {
        if let Message::Present(v) = m {
            return match v {
                Value::Bool(_) => VarKind::Wire,
                Value::Sym(_) => VarKind::Text,
                _ => VarKind::Real,
            };
        }
    }
    VarKind::Real
}

/// VCD identifier codes: printable ASCII 33..=126, multi-char as needed.
fn id_code(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push(char::from(33 + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

fn emit_value(out: &mut String, kind: VarKind, msg: &Message, id: &str) {
    match kind {
        VarKind::Wire => {
            let bit = match msg.value().and_then(Value::as_bool) {
                Some(true) => '1',
                Some(false) => '0',
                None => 'x',
            };
            let _ = writeln!(out, "{bit}{id}");
        }
        VarKind::Real => match msg.value().and_then(Value::as_numeric) {
            Some(x) => {
                let _ = writeln!(out, "r{x} {id}");
            }
            None => {
                let _ = writeln!(out, "rnan {id}");
            }
        },
        VarKind::Text => {
            let s = msg.value().and_then(Value::as_sym).unwrap_or("");
            let _ = writeln!(out, "s{s} {id}");
        }
    }
}

static ABSENT: Message = Message::Absent;

/// Streams the trace as VCD text into `out` under the given module scope
/// name.
///
/// Only one tick's change block is buffered at a time, so exporting a long
/// trace never materializes the whole dump. [`to_vcd`] produces exactly
/// these bytes as a `String`.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_vcd<W: io::Write>(trace: &Trace, scope: &str, out: &mut W) -> io::Result<()> {
    // Resolve each signal's column and id once, outside the tick loop.
    let (names, streams): (Vec<&str>, Vec<&Stream>) = trace.signals().unzip();
    let kinds: Vec<VarKind> = streams.iter().map(|s| kind_of(s)).collect();
    let ids: Vec<String> = (0..names.len()).map(id_code).collect();

    writeln!(out, "$comment automode trace export $end")?;
    writeln!(out, "$timescale 1 ms $end")?;
    writeln!(out, "$scope module {scope} $end")?;
    for ((name, kind), id) in names.iter().zip(&kinds).zip(&ids) {
        // VCD identifiers may not contain spaces; replace for safety.
        let clean: String = name
            .chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect();
        match kind {
            VarKind::Wire => writeln!(out, "$var wire 1 {id} {clean} $end")?,
            VarKind::Real => writeln!(out, "$var real 64 {id} {clean} $end")?,
            VarKind::Text => writeln!(out, "$var string 1 {id} {clean} $end")?,
        }
    }
    writeln!(out, "$upscope $end")?;
    writeln!(out, "$enddefinitions $end")?;

    let ticks = trace.tick_count();
    let mut last: Vec<Option<&Message>> = vec![None; names.len()];
    let mut changes = String::new();
    for t in 0..ticks {
        changes.clear();
        for (i, stream) in streams.iter().enumerate() {
            let msg = stream.get(t).unwrap_or(&ABSENT);
            if last[i] != Some(msg) {
                emit_value(&mut changes, kinds[i], msg, &ids[i]);
                last[i] = Some(msg);
            }
        }
        if !changes.is_empty() || t == 0 {
            writeln!(out, "#{t}")?;
            out.write_all(changes.as_bytes())?;
        }
    }
    writeln!(out, "#{ticks}")?;
    Ok(())
}

/// Renders the trace as VCD text under the given module scope name.
///
/// Byte-identical to [`write_vcd`]; prefer the streaming variant when the
/// output goes to a file or pipe.
pub fn to_vcd(trace: &Trace, scope: &str) -> String {
    let mut buf = Vec::new();
    write_vcd(trace, scope, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("vcd output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Stream;

    fn trace() -> Trace {
        let mut t = Trace::new();
        t.insert(
            "flag",
            vec![
                Message::present(true),
                Message::present(true),
                Message::Absent,
                Message::present(false),
            ]
            .into_iter()
            .collect::<Stream>(),
        );
        t.insert("speed", Stream::from_values([1.5f64, 1.5, 2.5, 2.5]));
        t.insert(
            "mode",
            vec![
                Message::present(Value::sym("Idle")),
                Message::present(Value::sym("Load")),
                Message::present(Value::sym("Load")),
                Message::Absent,
            ]
            .into_iter()
            .collect::<Stream>(),
        );
        t
    }

    #[test]
    fn header_declares_each_kind() {
        let vcd = to_vcd(&trace(), "run");
        assert!(vcd.contains("$scope module run $end"));
        assert!(vcd.contains("$var wire 1 ! flag $end"));
        assert!(vcd.contains("$var string 1 # mode $end"));
        assert!(vcd.contains("real 64"));
        assert!(vcd.contains("$enddefinitions $end"));
    }

    #[test]
    fn values_emitted_only_on_change() {
        let vcd = to_vcd(&trace(), "run");
        // speed stays 1.5 at t1: no re-emission between #0 and #2.
        let t0 = vcd.find("#0").unwrap();
        let t2 = vcd.find("#2").unwrap();
        let between = &vcd[t0..t2];
        assert_eq!(between.matches("r1.5").count(), 1);
        // flag absence at t2 shows as x.
        let after2 = &vcd[t2..];
        assert!(after2.contains("x!"));
    }

    #[test]
    fn symbols_and_final_timestamp() {
        let vcd = to_vcd(&trace(), "run");
        assert!(vcd.contains("sIdle #"));
        assert!(vcd.contains("sLoad #"));
        assert!(vcd.trim_end().ends_with("#4"));
    }

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..500 {
            let id = id_code(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn empty_trace_still_valid() {
        let vcd = to_vcd(&Trace::new(), "empty");
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.trim_end().ends_with("#0"));
    }

    #[test]
    fn write_vcd_matches_rendered_string() {
        let tr = trace();
        let rendered = to_vcd(&tr, "run");
        let mut streamed = Vec::new();
        write_vcd(&tr, "run", &mut streamed).unwrap();
        assert_eq!(rendered.as_bytes(), streamed.as_slice());

        // Also on an empty trace and a single-signal trace with ragged
        // columns (shorter stream than tick_count).
        let empty_rendered = to_vcd(&Trace::new(), "e");
        let mut empty_streamed = Vec::new();
        write_vcd(&Trace::new(), "e", &mut empty_streamed).unwrap();
        assert_eq!(empty_rendered.as_bytes(), empty_streamed.as_slice());

        let mut ragged = Trace::new();
        ragged.insert("a", Stream::from_values([1.0f64, 2.0, 3.0]));
        ragged.insert("b", Stream::from_values([true]));
        let r = to_vcd(&ragged, "r");
        let mut w = Vec::new();
        write_vcd(&ragged, "r", &mut w).unwrap();
        assert_eq!(r.as_bytes(), w.as_slice());
    }

    #[test]
    fn streaming_writer_propagates_io_errors() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert!(write_vcd(&trace(), "run", &mut Failing).is_err());
    }
}
