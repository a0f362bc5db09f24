//! The canonical trace text writer: one pass from the [`Trace`] columns
//! into a byte buffer, plain or already JSON-escaped.
//!
//! The service returns traces as canonical text inside a JSON string, so
//! the JSON mode writes exactly what `JSON-escape(to_canonical_text())`
//! would, without building either intermediate. Cells are formatted
//! without `std::fmt`:
//!
//! * absence `-`, `true`/`false` and decimal integers through a two-digit
//!   table;
//! * integral floats with `|x| < 2^53` as the integer followed by `.0`;
//! * every other finite float through a shortest-round-trip formatter of
//!   the Ryu family (Adams, PLDI 2018) whose power-of-five table is
//!   computed by `const fn`, laid out without an exponent as `Display`
//!   does.
//!
//! Rare values keep their `Display` text through a fallback: NaN, ±inf,
//! integral floats with `|x| ≥ 2^53` and `Fixed`.

use std::io::Write as _;

use super::Trace;
use crate::value::{Message, Value};

/// How [`Trace::write_canonical`] lays out the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextMode {
    /// The canonical text itself, as [`Trace::to_canonical_text`] returns it.
    Plain,
    /// The canonical text as the body of a JSON string: newlines become
    /// `\n` and names and symbols are escaped as by [`escape_json_into`].
    Json,
}

/// Extra room reserved past a trace's text so the enclosing document can
/// close without growing the buffer again.
const CLOSING_SLACK: usize = 64;

impl Trace {
    /// Appends the canonical text (see [`Trace::to_canonical_text`]) to
    /// `out` in one pass over the columns, reserving an upper bound of its
    /// length first so `out` grows at most once.
    pub fn write_canonical(&self, out: &mut Vec<u8>, mode: TextMode) {
        match mode {
            TextMode::Plain => self.write_text::<false>(out),
            TextMode::Json => self.write_text::<true>(out),
        }
    }

    fn write_text<const JSON: bool>(&self, out: &mut Vec<u8>) {
        let nl: &[u8] = if JSON { b"\\n" } else { b"\n" };
        out.reserve(self.text_len_bound::<JSON>());
        out.extend_from_slice(b"automode-trace v1");
        out.extend_from_slice(nl);
        out.extend_from_slice(b"ticks ");
        write_u64(out, self.tick_count() as u64);
        out.extend_from_slice(nl);
        out.extend_from_slice(b"signals ");
        write_u64(out, self.signal_count() as u64);
        out.extend_from_slice(nl);
        for (name, col) in self.signals() {
            out.extend_from_slice(b"signal ");
            write_str::<JSON>(out, name);
            out.extend_from_slice(nl);
            for (t, m) in col.iter().enumerate() {
                out.extend_from_slice(b"  ");
                write_u64(out, t as u64);
                out.push(b' ');
                match m {
                    Message::Absent => out.push(b'-'),
                    Message::Present(v) => write_value::<JSON>(out, v),
                }
                out.extend_from_slice(nl);
            }
        }
    }

    /// An upper bound of the text's length, plus [`CLOSING_SLACK`].
    fn text_len_bound<const JSON: bool>(&self) -> usize {
        let nl = if JSON { 2 } else { 1 };
        // The version line and two counts of at most 20 digits.
        let mut n = 71 + 3 * nl + CLOSING_SLACK;
        for (name, col) in self.signals() {
            n += 7 + str_len::<JSON>(name) + nl;
            // Two-space indent, the tick, one space, the newline.
            n += col.len() * (3 + decimal_len(col.len() as u64) + nl);
            n += col.iter().map(cell_len_bound::<JSON>).sum::<usize>();
        }
        n
    }
}

/// An upper bound of one cell's text length.
fn cell_len_bound<const JSON: bool>(m: &Message) -> usize {
    match m {
        Message::Absent => 1,
        Message::Present(Value::Bool(_)) => 5,
        Message::Present(Value::Int(_)) => 20,
        Message::Present(Value::Float(x)) => float_len_bound(*x),
        // `{raw / 2^bits}q{bits}`: at most 17 digits, about 20 leading
        // zeros and the suffix.
        Message::Present(Value::Fixed(_)) => 64,
        Message::Present(Value::Sym(s)) => str_len::<JSON>(s),
    }
}

/// Appends one value's `Display` text.
fn write_value<const JSON: bool>(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Int(i) => write_i64(out, *i),
        Value::Float(x) => write_float(out, *x),
        Value::Fixed(_) => write_display(out, v),
        Value::Sym(s) => write_str::<JSON>(out, s),
    }
}

fn write_str<const JSON: bool>(out: &mut Vec<u8>, s: &str) {
    if JSON {
        escape_json_into(out, s);
    } else {
        out.extend_from_slice(s.as_bytes());
    }
}

fn str_len<const JSON: bool>(s: &str) -> usize {
    if JSON {
        s.bytes().map(|b| escape_of(b).map_or(1, <[u8]>::len)).sum()
    } else {
        s.len()
    }
}

/// The rare-value fallback: `Display` through `std::fmt`.
fn write_display(out: &mut Vec<u8>, v: &Value) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{v}");
}

/// The escape sequence of one byte in a JSON string body, if it needs one.
fn escape_of(b: u8) -> Option<&'static [u8]> {
    /// `\u00XX` for every control character, with lowercase hex digits.
    const CONTROL: [[u8; 6]; 32] = {
        let hex = b"0123456789abcdef";
        let mut t = [[0u8; 6]; 32];
        let mut c = 0;
        while c < 32 {
            t[c] = [b'\\', b'u', b'0', b'0', hex[c >> 4], hex[c & 15]];
            c += 1;
        }
        t
    };
    match b {
        b'"' => Some(b"\\\""),
        b'\\' => Some(b"\\\\"),
        b'\n' => Some(b"\\n"),
        b'\r' => Some(b"\\r"),
        b'\t' => Some(b"\\t"),
        0..=0x1f => Some(&CONTROL[b as usize]),
        _ => None,
    }
}

/// Appends `s` to `out` as a JSON string body (no surrounding quotes).
///
/// `"` and `\` are backslash-escaped; `\n`, `\r` and `\t` use their short
/// forms and every other control character below `0x20` the `\u00xx`
/// form. Runs of bytes that need no escaping are copied in one call.
/// Bytes of multi-byte UTF-8 sequences are all `≥ 0x80`, so they are
/// copied unchanged and the output is valid UTF-8.
pub fn escape_json_into(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some(esc) = escape_of(b) {
            out.extend_from_slice(&bytes[run..i]);
            out.extend_from_slice(esc);
            run = i + 1;
        }
    }
    out.extend_from_slice(&bytes[run..]);
}

/// `"00" "01" … "99"`: two decimal digits per entry.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes the decimal digits of `n` right-aligned into `buf`, returning
/// the index of the first digit.
fn digits_into(buf: &mut [u8; 20], mut n: u64) -> usize {
    let mut i = buf.len();
    // Eight digits at a time, each block in 32-bit arithmetic: a float's
    // 17 digits take two 64-bit divisions instead of eight.
    while n >= 100_000_000 {
        let mut block = (n % 100_000_000) as u32;
        n /= 100_000_000;
        for _ in 0..4 {
            let d = (block % 100) as usize * 2;
            block /= 100;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
        }
    }
    let mut n = n as u32;
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    i
}

/// Appends the decimal form of `n`.
pub fn write_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let i = digits_into(&mut buf, n);
    out.extend_from_slice(&buf[i..]);
}

fn write_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    write_u64(out, n.unsigned_abs());
}

/// The number of decimal digits of `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// 2^53: every integral float below it converts to `u64` exactly.
const TWO_53: f64 = 9_007_199_254_740_992.0;

/// Appends `Value::Float(x)`'s `Display` text: an integral `x` with
/// `|x| < 2^53` as its integer and `.0`, any other finite `x` as its
/// shortest round-trip digits without an exponent, and NaN, ±inf and
/// integral `|x| ≥ 2^53` through `Display` itself.
pub fn write_float(out: &mut Vec<u8>, x: f64) {
    let integral = x.fract() == 0.0;
    if !x.is_finite() || (integral && x.abs() >= TWO_53) {
        write_display(out, &Value::Float(x));
        return;
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    if integral {
        write_u64(out, x.abs() as u64);
        out.extend_from_slice(b".0");
        return;
    }
    let (mut digits, mut exp) = ryu::shortest(x.to_bits());
    while digits % 10 == 0 {
        digits /= 10;
        exp += 1;
    }
    let mut buf = [0u8; 20];
    let first = digits_into(&mut buf, digits);
    // `x` is not integral, so the decimal point falls inside or before the
    // digits: `point < 20 - first`.
    let point = (buf.len() - first) as i32 + exp;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(&buf[first..]);
    } else {
        // At most 17 digits, so `first ≥ 3`: shift the integer digits one
        // left to open the point in place.
        let point = point as usize;
        buf.copy_within(first..first + point, first - 1);
        buf[first - 1 + point] = b'.';
        out.extend_from_slice(&buf[first - 1..]);
    }
}

/// An upper bound of `write_float`'s output length, from the binary
/// exponent: `log10(2) < 78/256`.
fn float_len_bound(x: f64) -> usize {
    match (x.to_bits() >> 52) & 0x7ff {
        0x7ff => 4,
        0 if x == 0.0 => 4,
        0 => 345,
        e => 24 + (((e as i32 - 1023).unsigned_abs() as usize * 78) >> 8),
    }
}

/// Shortest round-trip decimal digits of a non-integral binary64 (the
/// general case of Ryu, Adams 2018).
mod ryu {
    const MANTISSA_BITS: u32 = 52;
    const BIAS: i32 = 1023;
    /// Bits kept of each power of five.
    const POW5_BITS: i32 = 125;
    /// Enough powers for the smallest subnormal.
    const POW5_LEN: usize = 326;

    /// `ceil(log2(5^e))` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
    const fn pow5bits(e: i32) -> i32 {
        ((e as u32 * 1_217_359) >> 19) as i32 + 1
    }

    /// `floor(log10(5^e))`, for `0 ≤ e ≤ 2620`.
    fn log10_pow5(e: i32) -> u32 {
        (e as u32 * 732_923) >> 20
    }

    /// Little-endian 64-bit limbs of a 1024-bit unsigned integer.
    type Big = [u64; 16];

    /// `floor(x / 2^shift) mod 2^128`.
    const fn low128_after_shr(x: &Big, shift: u32) -> u128 {
        let limb = (shift / 64) as usize;
        let bit = shift % 64;
        // Limb `limb + k` lands at bit `64 * k - bit` of the result.
        let mut out = (x[limb] >> bit) as u128;
        let mut k = 1;
        while k < 3 && limb + k < x.len() {
            let pos = 64 * k as u32 - bit;
            if pos < 128 {
                out |= (x[limb + k] as u128) << pos;
            }
            k += 1;
        }
        out
    }

    /// `POW5[i] = floor(5^i / 2^(pow5bits(i) - POW5_BITS))`: 5^i scaled
    /// to `POW5_BITS` bits.
    static POW5: [u128; POW5_LEN] = {
        let mut t = [0u128; POW5_LEN];
        let mut x: Big = [0; 16];
        x[0] = 1;
        let mut i = 0;
        while i < POW5_LEN {
            let excess = pow5bits(i as i32) - POW5_BITS;
            t[i] = if excess <= 0 {
                low128_after_shr(&x, 0) << (-excess)
            } else {
                low128_after_shr(&x, excess as u32)
            };
            // x *= 5
            let mut carry: u128 = 0;
            let mut k = 0;
            while k < x.len() {
                let v = x[k] as u128 * 5 + carry;
                x[k] = v as u64;
                carry = v >> 64;
                k += 1;
            }
            i += 1;
        }
        t
    };

    /// `floor(m * mul / 2^j)` for `m < 2^56`, `mul < 2^125`, `j ≥ 64`.
    fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
        let lo = m as u128 * (mul as u64) as u128;
        let hi = m as u128 * (mul >> 64);
        (((lo >> 64) + hi) >> (j - 64)) as u64
    }

    /// The shortest `(digits, exp)` with `digits * 10^exp` rounding back
    /// to the finite, non-integral binary64 with these `bits`, closest to
    /// it when several are shortest. The sign is ignored.
    ///
    /// Two parts of the published algorithm are left out:
    /// * A non-integral binary64 is below 2^52, so its binary exponent is
    ///   negative and only the half that multiplies by powers of five is
    ///   needed.
    /// * Ryu tracks whether an interval bound is exactly representable.
    ///   Here a bound has one more binary fraction digit than the value,
    ///   so its exact decimal is longer than the value's own and is never
    ///   the shortest; and an exact tie between two closest candidates
    ///   rounds up, not to even, as `Display` does.
    pub(super) fn shortest(bits: u64) -> (u64, i32) {
        let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
        let exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
        // The value is m2 * 2^e2, less 2 for the interval bounds.
        let (e2, m2) = if exponent == 0 {
            (1 - BIAS - MANTISSA_BITS as i32 - 2, mantissa)
        } else {
            (
                exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
                (1 << MANTISSA_BITS) | mantissa,
            )
        };
        debug_assert!(e2 < 0, "integral binary64 {bits:#x}");

        // The interval of decimals that round back is [mm, mp]; scale mv,
        // mp and mm by 2^e2 / 10^e10 into vr, vp and vm.
        let mv = 4 * m2;
        let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        let e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5bits(i) - POW5_BITS);
        let mul = POW5[i as usize];
        let mut vr = mul_shift(mv, mul, j);
        let mut vp = mul_shift(mv + 2, mul, j);
        let mut vm = mul_shift(mv - 1 - mm_shift, mul, j);

        // Drop digits while the interval still holds a shorter decimal,
        // rounding the last dropped digit into vr.
        let mut removed = 0;
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        (vr + u64::from(vr == vm || round_up), e10 + removed)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn table_matches_the_published_entries() {
            // The first entries of Ryu's published double table.
            assert_eq!(POW5[0], 1_152_921_504_606_846_976u128 << 64);
            assert_eq!(POW5[1], 1_441_151_880_758_558_720u128 << 64);
        }

        #[test]
        fn every_table_entry_has_the_kept_width() {
            for (i, &p) in POW5.iter().enumerate() {
                assert_eq!(128 - p.leading_zeros(), POW5_BITS as u32, "POW5[{i}]");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Fixed;

    #[test]
    fn integers_print_as_display_does() {
        for n in [
            0,
            9,
            10,
            99,
            100,
            99_999_999,
            100_000_000,
            1 << 53,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            write_u64(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
        for n in [i64::MIN, -1, i64::MAX] {
            let mut out = Vec::new();
            write_i64(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }

    #[test]
    fn the_cell_bound_covers_the_longest_cells() {
        let cells = [
            Value::Int(i64::MIN),
            Value::Float(5e-324),
            // The largest subnormal, negated.
            Value::Float(f64::from_bits(0x800f_ffff_ffff_ffff)),
            Value::Float(f64::MIN),
            Value::Float(-9_007_199_254_740_991.0),
            Value::Float(-0.1),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Fixed(Fixed::from_raw(i64::MIN, 62)),
            Value::Fixed(Fixed::from_raw(-1, 62)),
            Value::Fixed(Fixed::from_raw(i64::MIN, 0)),
            Value::Bool(false),
            Value::sym("\u{0}\"\\\u{1f}é"),
        ];
        for v in cells {
            let m = Message::present(v.clone());
            let mut plain = Vec::new();
            write_value::<false>(&mut plain, &v);
            assert!(plain.len() <= cell_len_bound::<false>(&m), "{v}");
            let mut json = Vec::new();
            write_value::<true>(&mut json, &v);
            assert!(json.len() <= cell_len_bound::<true>(&m), "{v}");
        }
    }
}
