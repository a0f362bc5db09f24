//! Byte-identity of the one-pass trace text writer.
//!
//! The writer formats every cell without `std::fmt` (a dedicated integer
//! and shortest-round-trip float formatter), so these properties compare
//! it against the `format!`-based text it replaced, kept verbatim below as
//! the reference: both writer modes over random traces of every `Value`
//! kind, the JSON escaper over random strings, and the float formatter
//! over random bit patterns plus a fixed list of edge values.

use automode_kernel::trace::{escape_json_into, write_float, TextMode};
use automode_kernel::{Fixed, Message, Stream, Trace, Value};
use proptest::prelude::*;

/// The canonical text as `Trace::to_canonical_text` built it with
/// `format!`, before the one-pass writer.
fn reference_text(trace: &Trace) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "automode-trace v1");
    let _ = writeln!(out, "ticks {}", trace.tick_count());
    let _ = writeln!(out, "signals {}", trace.signal_count());
    for (name, col) in trace.signals() {
        let _ = writeln!(out, "signal {name}");
        for (t, m) in col.iter().enumerate() {
            let _ = writeln!(out, "  {t} {m}");
        }
    }
    out
}

/// The JSON string-body escaper as `core::json` had it, before it moved
/// next to the trace writer.
fn escape_into(out: &mut String, s: &str) {
    use std::fmt::Write;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn reference_escaped(s: &str) -> String {
    let mut out = String::new();
    escape_into(&mut out, s);
    out
}

fn escaped(s: &str) -> String {
    let mut out = Vec::new();
    escape_json_into(&mut out, s);
    String::from_utf8(out).expect("escaped text is UTF-8")
}

fn formatted(x: f64) -> String {
    let mut out = Vec::new();
    write_float(&mut out, x);
    String::from_utf8(out).expect("a float's text is ASCII")
}

/// Plain characters, every escape class and multi-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '-', '_', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{8}', '\u{b}',
    '\u{c}', '\u{1b}', '\u{1f}', '\u{7f}', 'é', '☃', '𝄞',
];

fn arb_text(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..max_len)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Floats that stress the formatter and its fallback.
const SPECIAL_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    0.1,
    0.3,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    -9_007_199_254_740_992.0,
    1e300,
    -1e22,
    1e23,
];

fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => any::<u64>().prop_map(f64::from_bits),
        2 => (0..SPECIAL_FLOATS.len()).prop_map(|i| SPECIAL_FLOATS[i]),
        // Subnormals.
        1 => (1u64..1 << 52).prop_map(f64::from_bits),
        // Integral floats on both sides of 2^53.
        1 => (-(1i64 << 60)..1 << 60).prop_map(|i| i as f64),
        // Short decimals, where shortest and closest can differ.
        2 => (-100_000i64..100_000, 0i32..12).prop_map(|(k, d)| k as f64 / 10f64.powi(d)),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        arb_float().prop_map(Value::Float),
        (any::<i64>(), any::<u8>())
            .prop_map(|(raw, bits)| Value::Fixed(Fixed::from_raw(raw, bits))),
        arb_text(6).prop_map(Value::Sym),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        4 => arb_value().prop_map(Message::present),
        1 => Just(Message::Absent),
    ]
}

/// Up to five signals of unequal lengths (names may repeat, replacing the
/// earlier history), so the tick count is the longest column.
fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        (arb_text(5), prop::collection::vec(arb_message(), 0..24)),
        0..5,
    )
    .prop_map(|signals| {
        let mut trace = Trace::new();
        for (name, messages) in signals {
            trace.insert(name, messages.into_iter().collect::<Stream>());
        }
        trace
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Both writer modes and `to_canonical_text` reproduce the `format!`
    /// text, the JSON mode as the old escaper escaped it.
    #[test]
    fn trace_writer_matches_the_format_reference(trace in arb_trace()) {
        let reference = reference_text(&trace);
        prop_assert_eq!(&trace.to_canonical_text(), &reference);

        let mut plain = Vec::new();
        trace.write_canonical(&mut plain, TextMode::Plain);
        prop_assert_eq!(String::from_utf8(plain).expect("UTF-8"), reference.clone());

        let mut json = b"prefix ".to_vec();
        trace.write_canonical(&mut json, TextMode::Json);
        let expected = format!("prefix {}", reference_escaped(&reference));
        prop_assert_eq!(String::from_utf8(json).expect("UTF-8"), expected);
    }

    /// The byte-run escaper matches the old char-by-char one, `\u00XX`
    /// form included.
    #[test]
    fn escaper_matches_the_char_reference(s in arb_text(40)) {
        prop_assert_eq!(escaped(&s), reference_escaped(&s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    /// The float formatter prints every bit pattern as `Display` does.
    #[test]
    fn float_formatter_matches_display_on_random_bits(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(formatted(x), Value::Float(x).to_string(), "bits {:#018x}", bits);
    }
}

#[test]
fn float_formatter_matches_display_on_edge_values() {
    let mut edges: Vec<f64> = (-320..=308)
        .map(|e| format!("1e{e}").parse().expect("a power of ten parses"))
        .collect();
    edges.extend_from_slice(SPECIAL_FLOATS);
    // Each integral boundary at 2^53 ± 1, and the floats next to them.
    for i in [(1i64 << 53) - 1, 1 << 53, (1 << 53) + 1] {
        let x = i as f64;
        edges.extend([
            x,
            f64::from_bits(x.to_bits() - 1),
            f64::from_bits(x.to_bits() + 1),
        ]);
    }
    for x in edges.clone() {
        edges.push(-x);
    }
    for x in edges {
        assert_eq!(
            formatted(x),
            Value::Float(x).to_string(),
            "bits {:#018x}",
            x.to_bits()
        );
    }
}
