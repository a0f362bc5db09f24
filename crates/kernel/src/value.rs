//! Values and messages on AutoMoDe channels.
//!
//! At every global tick, a channel holds either a [`Value`] or the `"-"`
//! ("tick") marker for the absence of a message — see Fig. 1 of the paper.
//! [`Message`] captures exactly this alternative.

use std::fmt;

use crate::error::KernelError;

/// A fixed-point number: `raw / 2^frac_bits`.
///
/// Fixed-point values appear when LA-level refinement maps floating-point
/// messages of the FDA to fixed-point implementation messages (paper,
/// Sec. 3.3). Arithmetic requires matching `frac_bits`; use
/// [`Fixed::rescale`] to align scales explicitly.
///
/// ```
/// use automode_kernel::Fixed;
/// let a = Fixed::from_f64(1.5, 8);
/// let b = Fixed::from_f64(2.25, 8);
/// assert_eq!((a.checked_add(b).unwrap()).to_f64(), 3.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fixed {
    raw: i64,
    frac_bits: u8,
}

impl Fixed {
    /// Creates a fixed-point value from a raw mantissa and a scale.
    pub fn from_raw(raw: i64, frac_bits: u8) -> Self {
        Fixed { raw, frac_bits }
    }

    /// Quantizes an `f64` to the nearest representable fixed-point value
    /// (saturating at the ends of the `i64` mantissa).
    pub fn from_f64(x: f64, frac_bits: u8) -> Self {
        Fixed {
            raw: (x * Self::scale(frac_bits)).round() as i64,
            frac_bits,
        }
    }

    /// `2^frac_bits`, exactly: every `u8` exponent is a normal `f64`, so
    /// the power is built from its exponent bits instead of an integer
    /// shift that would overflow from 63 bits up.
    fn scale(frac_bits: u8) -> f64 {
        f64::from_bits((1023 + u64::from(frac_bits)) << 52)
    }

    /// The raw mantissa.
    pub fn raw(&self) -> i64 {
        self.raw
    }

    /// The number of fractional bits.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// The real value represented, as `f64`.
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 / Self::scale(self.frac_bits)
    }

    /// Re-quantizes to a different number of fractional bits.
    ///
    /// Widening (`frac_bits` grows) is exact; narrowing rounds to nearest
    /// (halves up). Narrowing by 64 bits or more rounds every mantissa to
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Overflow`] when widening pushes a nonzero
    /// mantissa out of `i64` — always the case for a shift of 64 or more.
    pub fn rescale(&self, frac_bits: u8) -> Result<Fixed, KernelError> {
        let raw = i128::from(self.raw);
        let raw = if frac_bits >= self.frac_bits {
            let shift = u32::from(frac_bits - self.frac_bits);
            if raw == 0 {
                0
            } else if shift >= 64 {
                return Err(KernelError::Overflow("fixed rescale"));
            } else {
                i64::try_from(raw << shift).map_err(|_| KernelError::Overflow("fixed rescale"))?
            }
        } else {
            let shift = u32::from(self.frac_bits - frac_bits);
            if shift >= 64 {
                // |raw| <= 2^63, so |raw / 2^shift| <= 1/2 rounds to 0.
                0
            } else {
                // In i128 the half-up bias cannot overflow, and the result
                // is at most (2^63 - 1 + 2^62) / 2 < 2^63.
                ((raw + (1i128 << (shift - 1))) >> shift) as i64
            }
        };
        Ok(Fixed { raw, frac_bits })
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::FixedScaleMismatch`] if the scales differ and
    /// [`KernelError::Overflow`] on mantissa overflow.
    pub fn checked_add(self, rhs: Fixed) -> Result<Fixed, KernelError> {
        self.same_scale(rhs)?;
        let raw = self
            .raw
            .checked_add(rhs.raw)
            .ok_or(KernelError::Overflow("fixed add"))?;
        Ok(Fixed::from_raw(raw, self.frac_bits))
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fixed::checked_add`].
    pub fn checked_sub(self, rhs: Fixed) -> Result<Fixed, KernelError> {
        self.same_scale(rhs)?;
        let raw = self
            .raw
            .checked_sub(rhs.raw)
            .ok_or(KernelError::Overflow("fixed sub"))?;
        Ok(Fixed::from_raw(raw, self.frac_bits))
    }

    /// Checked multiplication; the result keeps `self`'s scale.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fixed::checked_add`].
    pub fn checked_mul(self, rhs: Fixed) -> Result<Fixed, KernelError> {
        self.same_scale(rhs)?;
        // |product| < 2^126, so shifting by 127 gives what any larger shift
        // would; an i128 shift of 128 or more panics.
        let wide = ((self.raw as i128) * (rhs.raw as i128)) >> self.frac_bits.min(127);
        let raw = i64::try_from(wide).map_err(|_| KernelError::Overflow("fixed mul"))?;
        Ok(Fixed::from_raw(raw, self.frac_bits))
    }

    fn same_scale(&self, rhs: Fixed) -> Result<(), KernelError> {
        if self.frac_bits == rhs.frac_bits {
            Ok(())
        } else {
            Err(KernelError::FixedScaleMismatch {
                lhs: self.frac_bits,
                rhs: rhs.frac_bits,
            })
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}q{}", self.to_f64(), self.frac_bits)
    }
}

/// A value carried by a message on a channel.
///
/// The kernel is dynamically typed: static typing is performed at the model
/// level (SSD ports are statically typed, DFD ports dynamically — paper,
/// Sec. 3). `Sym` carries enumeration literals such as mode names or the
/// `LockStatus` of Fig. 1.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A Boolean value.
    Bool(bool),
    /// An (abstract, unbounded-range) integer value.
    Int(i64),
    /// A floating-point value.
    Float(f64),
    /// A fixed-point value (implementation type at LA level).
    Fixed(Fixed),
    /// An enumeration literal, e.g. `"Locked"` or `"CrankingOverrun"`.
    Sym(String),
}

impl Value {
    /// Convenience constructor for symbols.
    pub fn sym(s: impl Into<String>) -> Self {
        Value::Sym(s.into())
    }

    /// Returns the Boolean payload if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the symbol if this is a `Sym`.
    pub fn as_sym(&self) -> Option<&str> {
        match self {
            Value::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// A numeric view of the value (`Int`, `Float`, and `Fixed` qualify).
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            Value::Fixed(q) => Some(q.to_f64()),
            _ => None,
        }
    }

    /// The name of the value's dynamic type, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Fixed(_) => "fixed",
            Value::Sym(_) => "sym",
        }
    }

    /// Structural equality with a floating-point tolerance.
    ///
    /// Used by trace equivalence when comparing a floating-point FDA model
    /// against its fixed-point LA refinement.
    pub fn approx_eq(&self, other: &Value, tol: f64) -> bool {
        match (self.as_numeric(), other.as_numeric()) {
            (Some(a), Some(b)) => (a - b).abs() <= tol,
            _ => self == other,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            // Keep a decimal point so a printed float never re-parses as an
            // integer literal.
            Value::Float(x) if x.fract() == 0.0 && x.is_finite() => write!(f, "{x:.1}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Fixed(q) => write!(f, "{q}"),
            Value::Sym(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<Fixed> for Value {
    fn from(q: Fixed) -> Self {
        Value::Fixed(q)
    }
}

/// The content of a channel at one global tick: a value, or the explicit
/// absence marker `"-"` ("tick") of the paper's Fig. 1.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Message {
    /// A message is present and carries a value.
    Present(Value),
    /// No message at this tick (the `"-"` marker).
    #[default]
    Absent,
}

impl Message {
    /// Wraps a value into a present message.
    pub fn present(v: impl Into<Value>) -> Self {
        Message::Present(v.into())
    }

    /// `true` if a message is present.
    pub fn is_present(&self) -> bool {
        matches!(self, Message::Present(_))
    }

    /// `true` if no message is present.
    pub fn is_absent(&self) -> bool {
        matches!(self, Message::Absent)
    }

    /// Borrows the payload, if present.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Message::Present(v) => Some(v),
            Message::Absent => None,
        }
    }

    /// Consumes the message, returning the payload if present.
    pub fn into_value(self) -> Option<Value> {
        match self {
            Message::Present(v) => Some(v),
            Message::Absent => None,
        }
    }

    /// Maps the payload, preserving absence.
    pub fn map(self, f: impl FnOnce(Value) -> Value) -> Message {
        match self {
            Message::Present(v) => Message::Present(f(v)),
            Message::Absent => Message::Absent,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Present(v) => write!(f, "{v}"),
            Message::Absent => write!(f, "-"),
        }
    }
}

impl From<Value> for Message {
    fn from(v: Value) -> Self {
        Message::Present(v)
    }
}

impl From<Option<Value>> for Message {
    fn from(v: Option<Value>) -> Self {
        match v {
            Some(v) => Message::Present(v),
            None => Message::Absent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_roundtrip() {
        let q = Fixed::from_f64(3.25, 8);
        assert_eq!(q.to_f64(), 3.25);
        assert_eq!(q.raw(), 3 * 256 + 64);
    }

    #[test]
    fn fixed_quantization_rounds_to_nearest() {
        let q = Fixed::from_f64(0.3, 4); // 0.3 * 16 = 4.8 -> 5 -> 0.3125
        assert_eq!(q.raw(), 5);
        assert!((q.to_f64() - 0.3).abs() <= 1.0 / 32.0);
    }

    #[test]
    fn fixed_arithmetic() {
        let a = Fixed::from_f64(1.5, 8);
        let b = Fixed::from_f64(0.25, 8);
        assert_eq!(a.checked_add(b).unwrap().to_f64(), 1.75);
        assert_eq!(a.checked_sub(b).unwrap().to_f64(), 1.25);
        assert_eq!(a.checked_mul(b).unwrap().to_f64(), 0.375);
    }

    #[test]
    fn fixed_scale_mismatch_is_an_error() {
        let a = Fixed::from_f64(1.0, 8);
        let b = Fixed::from_f64(1.0, 4);
        assert!(matches!(
            a.checked_add(b),
            Err(KernelError::FixedScaleMismatch { lhs: 8, rhs: 4 })
        ));
    }

    #[test]
    fn fixed_rescale_widening_is_exact() {
        let a = Fixed::from_f64(1.625, 4);
        assert_eq!(a.rescale(12).unwrap().to_f64(), 1.625);
    }

    #[test]
    fn fixed_rescale_narrowing_rounds() {
        let a = Fixed::from_raw(0b1011, 3); // 1.375
        let n = a.rescale(1).unwrap(); // quantum 0.5 -> 1.5
        assert_eq!(n.to_f64(), 1.5);
    }

    #[test]
    fn fixed_scales_from_62_bits_up_are_exact_and_positive() {
        for bits in [62u8, 63, 64, 200] {
            let scale = 2f64.powi(i32::from(bits));
            assert_eq!(Fixed::from_raw(3, bits).to_f64(), 3.0 / scale, "{bits}");
            assert_eq!(Fixed::from_raw(-3, bits).to_f64(), -3.0 / scale, "{bits}");
            assert_eq!(Fixed::from_f64(3.0 / scale, bits).raw(), 3, "{bits}");
        }
        // Out-of-range values saturate the mantissa.
        assert_eq!(Fixed::from_f64(1.0, 64).raw(), i64::MAX);
        // One half at 63 bits: a negative scale would flip the sign.
        assert_eq!(Fixed::from_raw(1 << 62, 63).to_f64(), 0.5);
        assert_eq!(
            Value::Fixed(Fixed::from_raw(1, 200)).to_string(),
            format!("{}q200", 2f64.powi(-200))
        );
        // Multiplication at scales past 127 bits underflows to 0 or -1.
        let tiny = Fixed::from_raw(5, 200);
        assert_eq!(tiny.checked_mul(tiny).unwrap().raw(), 0);
        assert_eq!(
            tiny.checked_mul(Fixed::from_raw(-5, 200)).unwrap().raw(),
            -1
        );
    }

    #[test]
    fn fixed_rescale_by_62_bits_and_up() {
        let one = Fixed::from_raw(1, 0);
        assert_eq!(one.rescale(62).unwrap().raw(), 1 << 62);
        // 2^63 is one past i64::MAX.
        assert!(matches!(one.rescale(63), Err(KernelError::Overflow(_))));
        assert_eq!(Fixed::from_raw(-1, 0).rescale(63).unwrap().raw(), i64::MIN);
        for bits in [64u8, 200] {
            assert!(
                matches!(one.rescale(bits), Err(KernelError::Overflow(_))),
                "{bits}"
            );
            assert_eq!(
                Fixed::from_raw(0, 0).rescale(bits).unwrap().raw(),
                0,
                "{bits}"
            );
        }
        // Narrowing rounds half up, with no overflow at the mantissa ends.
        let max = Fixed::from_raw(i64::MAX, 62);
        assert_eq!(max.rescale(0).unwrap().raw(), 2);
        assert_eq!(Fixed::from_raw(i64::MIN, 63).rescale(0).unwrap().raw(), -1);
        // 0.75 to a quantum of 0.5 rounds up to 1.0.
        assert_eq!(Fixed::from_raw(3 << 61, 63).rescale(1).unwrap().raw(), 2);
        for bits in [64u8, 200] {
            for raw in [i64::MAX, i64::MIN, 1, -1] {
                let n = Fixed::from_raw(raw, bits).rescale(0).unwrap();
                assert_eq!(n, Fixed::from_raw(0, 0), "{raw} at {bits}");
            }
        }
    }

    #[test]
    fn fixed_overflow_detected() {
        let a = Fixed::from_raw(i64::MAX, 0);
        let b = Fixed::from_raw(1, 0);
        assert!(matches!(a.checked_add(b), Err(KernelError::Overflow(_))));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::sym("Locked").as_sym(), Some("Locked"));
        assert_eq!(Value::Int(3).as_float(), None);
        assert_eq!(Value::Int(3).as_numeric(), Some(3.0));
        assert_eq!(
            Value::Fixed(Fixed::from_f64(1.5, 4)).as_numeric(),
            Some(1.5)
        );
    }

    #[test]
    fn value_approx_eq_mixes_numeric_kinds() {
        let a = Value::Float(1.0);
        let b = Value::Fixed(Fixed::from_f64(1.001, 10));
        assert!(a.approx_eq(&b, 0.01));
        assert!(!a.approx_eq(&b, 1e-6));
        assert!(Value::sym("A").approx_eq(&Value::sym("A"), 0.0));
        assert!(!Value::sym("A").approx_eq(&Value::sym("B"), 0.0));
    }

    #[test]
    fn message_display_uses_dash_for_absence() {
        assert_eq!(Message::Absent.to_string(), "-");
        assert_eq!(Message::present(Value::Int(23)).to_string(), "23");
    }

    #[test]
    fn message_conversions() {
        let m: Message = Value::Int(1).into();
        assert!(m.is_present());
        let m: Message = None.into();
        assert!(m.is_absent());
        assert_eq!(Message::present(7i64).into_value(), Some(Value::Int(7)));
    }

    #[test]
    fn message_map_preserves_absence() {
        let m = Message::Absent.map(|_| Value::Int(1));
        assert!(m.is_absent());
        let m = Message::present(1i64).map(|v| Value::Int(v.as_int().unwrap() + 1));
        assert_eq!(m, Message::present(2i64));
    }
}
