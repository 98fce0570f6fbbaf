//! Typed values stored in relations.
//!
//! `Value` is deliberately small: the paper's schemas (Table 2) only need
//! integers, floating-point numbers, text, and dates. Values are totally
//! ordered and hashable so they can serve directly as join keys, group-by
//! keys, and MIN/MAX operands in the executor.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A simple calendar date (no time component), ordered chronologically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Four-digit year.
    pub year: i32,
    /// Month, 1-12.
    pub month: u8,
    /// Day of month, 1-31.
    pub day: u8,
}

impl Date {
    /// Creates a date. Panics (debug assertion) on out-of-range month/day;
    /// dataset generators only produce valid dates.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        debug_assert!((1..=12).contains(&month) && (1..=31).contains(&day));
        Date { year, month, day }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A single attribute value.
///
/// Total order (used by MIN/MAX and deterministic sorting):
/// `Null < Int/Float (numeric order) < Str (lexicographic) < Date`.
/// `Int` and `Float` compare numerically against each other so that e.g.
/// `SUM` results mixing the two still order sensibly.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Ignored by aggregates per SQL semantics.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float. NaN is normalized on hash/compare.
    Float(f64),
    /// UTF-8 text.
    Str(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Shorthand for `Value::Str(s.into())`.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// True if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Case-insensitive containment test used by the `contains` predicate
    /// the paper puts in generated WHERE clauses. Non-string values match
    /// on their display form (so a numeric id can be matched by keyword).
    pub fn contains_ci(&self, needle_lower: &str) -> bool {
        match self {
            Value::Null => false,
            Value::Str(s) => contains_ci(s, needle_lower),
            other => contains_ci(&other.to_string(), needle_lower),
        }
    }

    /// A short name for the runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "text",
            Value::Date(_) => "date",
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
            Value::Date(_) => 3,
        }
    }

    /// Canonical bits for hashing floats: NaN collapses to one pattern and
    /// -0.0 to +0.0 so that `Eq`/`Hash` agree with `cmp`.
    fn float_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0.0f64.to_bits()
        } else {
            f.to_bits()
        }
    }
}

/// `haystack.to_lowercase().contains(needle_lower)`, the one definition
/// of the `contains` predicate on text. An ASCII haystack lowercases
/// byte by byte, so it is searched in place without allocating; on the
/// short names and codes scans test row by row this is several times
/// faster than allocating a lowercase copy. Any other haystack goes
/// through `to_lowercase`, whose Unicode mappings (`İ` to two chars,
/// final `ς`) a byte fold cannot reproduce.
pub fn contains_ci(haystack: &str, needle_lower: &str) -> bool {
    if !haystack.is_ascii() {
        return haystack.to_lowercase().contains(needle_lower);
    }
    let (hay, needle) = (haystack.as_bytes(), needle_lower.as_bytes());
    needle.is_empty()
        || hay
            .windows(needle.len())
            .any(|w| w.iter().zip(needle).all(|(h, n)| h.to_ascii_lowercase() == *n))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or_else(|| {
                // NaN sorts above all other floats, NaN == NaN.
                match (a.is_nan(), b.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => unreachable!(),
                }
            }),
            (Int(a), Float(_)) => Float(*a as f64).cmp(other),
            (Float(_), Int(b)) => self.cmp(&Float(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(i) => {
                // Hash ints as floats would hash, so Int(2) == Float(2.0)
                // implies equal hashes.
                state.write_u8(1);
                state.write_u64(Value::float_bits(*i as f64));
            }
            Value::Float(f) => {
                state.write_u8(1);
                state.write_u64(Value::float_bits(*f));
            }
            Value::Str(s) => {
                state.write_u8(2);
                s.hash(state);
            }
            Value::Date(d) => {
                state.write_u8(3);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn ordering_across_types() {
        let mut vals = [
            Value::str("abc"),
            Value::Int(5),
            Value::Null,
            Value::Date(Date::new(2011, 6, 13)),
            Value::Float(2.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Float(2.5));
        assert_eq!(vals[2], Value::Int(5));
        assert_eq!(vals[3], Value::str("abc"));
    }

    #[test]
    fn int_float_cross_equality_and_hash() {
        assert_eq!(Value::Int(4), Value::Float(4.0));
        assert_eq!(hash_of(&Value::Int(4)), hash_of(&Value::Float(4.0)));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn nan_and_negative_zero_are_canonical() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(hash_of(&Value::Float(f64::NAN)), hash_of(&Value::Float(-f64::NAN)));
        assert!(Value::Float(f64::NAN) > Value::Float(1e300));
    }

    #[test]
    fn contains_is_case_insensitive() {
        let v = Value::str("Indian Black Chocolate");
        assert!(v.contains_ci("black choc"));
        assert!(!v.contains_ci("white"));
        assert!(Value::Int(1234).contains_ci("23"));
        assert!(!Value::Null.contains_ci(""));
    }

    /// The ASCII fast path agrees with `to_lowercase().contains` on
    /// ASCII text, on case mappings that change length or depend on
    /// context, and on the empty needle.
    #[test]
    fn contains_ci_matches_to_lowercase_contains() {
        let hays = [
            "Indian Black Chocolate",
            "ROYAL olive",
            "",
            "a",
            "AbcAbcABC",
            "İstanbul",
            "STRASSE Straße",
            "ΟΔΟΣ Σίσυφος",
            "x\u{0}y",
        ];
        let needles = [
            "",
            "a",
            "abc",
            "black choc",
            "royal olive",
            "olive!",
            "i",
            "i\u{307}",
            "i̇stanbul",
            "ß",
            "strasse",
            "straße",
            "σ",
            "ς",
            "οδος",
            "οδοσ",
            "σίσυφος",
            "\u{0}",
            "z",
        ];
        for hay in hays {
            for needle in needles {
                assert_eq!(
                    contains_ci(hay, needle),
                    hay.to_lowercase().contains(needle),
                    "{hay:?} contains {needle:?}"
                );
            }
        }
    }

    #[test]
    fn date_display_and_order() {
        let a = Date::new(1994, 5, 1);
        let b = Date::new(2011, 6, 13);
        assert!(a < b);
        assert_eq!(b.to_string(), "2011-06-13");
    }

    #[test]
    fn float_display_shows_decimal_for_whole_numbers() {
        assert_eq!(Value::Float(5.0).to_string(), "5.0");
        assert_eq!(Value::Float(4.25).to_string(), "4.25");
    }
}
