//! Minimal JSON writing, reading, and content hashing.
//!
//! The sweep service (ROADMAP item 4) speaks JSON over HTTP, the explorer
//! persists repro scenarios as `.json` files, and the workspace is offline
//! — no serde. This module provides the three primitives those layers
//! share:
//!
//! * [`JsonWriter`] — an append-only JSON emitter over a byte buffer. The
//!   caller drives structure (`begin_object`/`field`/`end_object` ...);
//!   the writer handles comma placement and string escaping. No
//!   intermediate DOM is built, so encoding a result is one pass over the
//!   data into one growing buffer.
//! * [`parse`] / [`Json`] — a recursive-descent reader into a small DOM.
//!   Documents here are small relative to the simulation work they
//!   trigger, so a DOM parse is the right simplicity/throughput trade.
//!   Depth is capped so adversarial nesting cannot overflow the stack.
//! * [`fnv1a_64`] — the FNV-1a 64-bit content hash used to key the
//!   compiled-model cache: repeat submissions of byte-identical model
//!   text hash to the same key and skip elaborate/causality/prepare
//!   entirely.

use std::collections::BTreeMap;
use std::io::Write as _;

use automode_kernel::trace::{escape_json_into, write_u64};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with FNV-1a (64-bit).
///
/// Deterministic across runs and platforms — cache keys derived from it
/// are stable identifiers that can be logged, compared across processes,
/// and returned to clients.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Serializes one `f64` the way JSON requires: finite numbers print
/// round-trippably, non-finite values (which JSON cannot represent) print
/// as `null`.
fn push_f64(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest round-trip float form and always
        // contains a `.` or exponent, so readers parse it back as f64.
        let _ = write!(out, "{v:?}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// An append-only JSON emitter.
///
/// The writer tracks, per nesting level, whether a comma is due before
/// the next element, so callers just emit fields and values in order:
///
/// ```
/// use automode_core::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.field("name").string("fig5");
/// w.field("lanes").number(32.0);
/// w.field("tags").begin_array();
/// w.string("a");
/// w.string("b");
/// w.end_array();
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"name":"fig5","lanes":32,"tags":["a","b"]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    /// UTF-8 text; bytes, so escaped runs and numbers append without
    /// per-push checks.
    out: Vec<u8>,
    /// Per-open-container flag: has this container already emitted an
    /// element (so the next one needs a leading comma)?
    has_elem: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer with an empty buffer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A fresh writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> JsonWriter {
        JsonWriter {
            out: Vec::with_capacity(cap),
            has_elem: Vec::new(),
        }
    }

    fn comma(&mut self) {
        if let Some(h) = self.has_elem.last_mut() {
            if *h {
                self.out.push(b',');
            }
            *h = true;
        }
    }

    /// Starts an object value (`{`).
    pub fn begin_object(&mut self) -> &mut Self {
        self.comma();
        self.out.push(b'{');
        self.has_elem.push(false);
        self
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) -> &mut Self {
        self.has_elem.pop();
        self.out.push(b'}');
        self
    }

    /// Starts an array value (`[`).
    pub fn begin_array(&mut self) -> &mut Self {
        self.comma();
        self.out.push(b'[');
        self.has_elem.push(false);
        self
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) -> &mut Self {
        self.has_elem.pop();
        self.out.push(b']');
        self
    }

    /// Emits an object key; the next emitted value becomes its value.
    pub fn field(&mut self, name: &str) -> &mut Self {
        self.comma();
        self.out.push(b'"');
        escape_json_into(&mut self.out, name);
        self.out.extend_from_slice(b"\":");
        // The value after a key must not get its own comma.
        if let Some(h) = self.has_elem.last_mut() {
            *h = false;
        }
        self
    }

    /// Emits a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.string_with(|out| escape_json_into(out, s))
    }

    /// Emits a string value whose body `body` appends straight into the
    /// buffer, already JSON-escaped (as by [`escape_json_into`]) and as
    /// UTF-8 — so a large body, such as a trace's canonical text, is
    /// written once with no intermediate `String`.
    pub fn string_with(&mut self, body: impl FnOnce(&mut Vec<u8>)) -> &mut Self {
        self.comma();
        self.out.push(b'"');
        body(&mut self.out);
        self.out.push(b'"');
        self
    }

    /// Emits a numeric value. Integral floats print without a fraction
    /// (`32` not `32.0`); non-finite values print as `null`.
    pub fn number(&mut self, v: f64) -> &mut Self {
        self.comma();
        if v.is_finite() && v.fract() == 0.0 && v.abs() < 9.0e15 {
            let _ = write!(self.out, "{}", v as i64);
        } else {
            push_f64(&mut self.out, v);
        }
        self
    }

    /// Emits an unsigned integer value exactly (no f64 rounding).
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.comma();
        write_u64(&mut self.out, v);
        self
    }

    /// Emits a boolean value.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.comma();
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
        self
    }

    /// Emits a `null` value.
    pub fn null(&mut self) -> &mut Self {
        self.comma();
        self.out.extend_from_slice(b"null");
        self
    }

    /// Emits pre-rendered JSON verbatim as one value. The caller vouches
    /// that `json` is well-formed.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.comma();
        self.out.extend_from_slice(json.as_bytes());
        self
    }

    /// Consumes the writer, returning the JSON text. A [`string_with`]
    /// body that broke its UTF-8 promise shows as U+FFFD.
    ///
    /// [`string_with`]: JsonWriter::string_with
    pub fn finish(self) -> String {
        String::from_utf8(self.out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

/// Maximum nesting depth accepted before a parse error.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not semantically meaningful; a sorted map
    /// keeps lookups simple and re-serialization deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses `src` as one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a message with a byte offset on the first syntax problem.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json at byte {}: {}", self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| self.err(&format!("bad number `{text}`: {e}")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are rejected rather than
                            // combined — model text is plain ASCII and the
                            // service never needs them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let s = &self.bytes[self.pos..];
                    let step = match s[0] {
                        c if c < 0x80 => 1,
                        c if c >= 0xf0 => 4,
                        c if c >= 0xe0 => 3,
                        _ => 2,
                    };
                    out.push_str(
                        std::str::from_utf8(&s[..step]).map_err(|_| self.err("bad utf8"))?,
                    );
                    self.pos += step;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_distinguishes_nearby_texts() {
        let a = fnv1a_64(b"model t\ncomponent X {}\n");
        let b = fnv1a_64(b"model t\ncomponent Y {}\n");
        assert_ne!(a, b);
        // Deterministic across calls.
        assert_eq!(a, fnv1a_64(b"model t\ncomponent X {}\n"));
    }

    #[test]
    fn writer_nests_and_escapes() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field("s").string("a\"b\\c\nd\u{1}");
        w.field("n").number(1.5);
        w.field("i").number(-3.0);
        w.field("u").uint(u64::MAX);
        w.field("t").boolean(true);
        w.field("z").null();
        w.field("a").begin_array();
        w.number(1.0);
        w.begin_object();
        w.field("k").string("v");
        w.end_object();
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\",\"n\":1.5,\"i\":-3,\
             \"u\":18446744073709551615,\"t\":true,\"z\":null,\"a\":[1,{\"k\":\"v\"}]}"
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.number(f64::NAN);
        w.number(f64::INFINITY);
        w.end_array();
        assert_eq!(w.finish(), "[null,null]");
    }

    #[test]
    fn raw_splices_prerendered_json() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field("inner").raw("{\"x\":1}");
        w.field("after").number(2.0);
        w.end_object();
        assert_eq!(w.finish(), "{\"inner\":{\"x\":1},\"after\":2}");
    }

    #[test]
    fn parses_nested_documents() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Json::Null));
    }

    #[test]
    fn reader_roundtrips_with_the_writer() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field("model").string("model t\ncomponent \"X\" {}\n");
        w.field("count").uint(32);
        w.end_object();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(
            v.get("model").unwrap().as_str(),
            Some("model t\ncomponent \"X\" {}\n")
        );
        assert_eq!(v.get("count").unwrap().as_u64(), Some(32));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "{\"a\": 01x}",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn unicode_strings_survive() {
        let v = parse("\"caf\u{e9} \u{2603} \\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9} \u{2603} A"));
    }
}
