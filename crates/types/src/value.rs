//! Dynamically-typed scalar values flowing through the engine.
//!
//! `Value` is the unit of data exchanged between the storage layers (the
//! relational store and the LLM-backed virtual storage), the expression
//! evaluator, and result sets. Values coming back from a language model are
//! textual and noisy, so this module also provides lenient parsing and
//! normalisation helpers used by the completion parser.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::schema::DataType;

/// A scalar value.
///
/// `Null` is a first-class member (SQL three-valued logic is implemented in
/// the expression evaluator). Floats are wrapped so that `Value` can be
/// `Eq + Hash` (needed for hash joins and group-by); NaN compares equal to
/// itself and sorts last.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL NULL / unknown.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
}

impl Value {
    /// The textual name of this value's runtime type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOLEAN",
            Value::Int(_) => "INTEGER",
            Value::Float(_) => "FLOAT",
            Value::Text(_) => "TEXT",
        }
    }

    /// The [`DataType`] this value naturally maps to, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// True if this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as a boolean if possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interpret the value as an integer if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interpret the value numerically (ints widen to float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interpret the value as a string slice if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if the value is numeric (int or float).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Cast this value to the given data type following SQL-ish coercion
    /// rules. NULL casts to NULL for every target type.
    pub fn cast(&self, to: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let out = match (self, to) {
            (Value::Bool(b), DataType::Bool) => Value::Bool(*b),
            (Value::Bool(b), DataType::Int) => Value::Int(i64::from(*b)),
            (Value::Bool(b), DataType::Float) => Value::Float(f64::from(u8::from(*b))),
            (Value::Bool(b), DataType::Text) => Value::Text(b.to_string()),

            (Value::Int(i), DataType::Int) => Value::Int(*i),
            (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
            (Value::Int(i), DataType::Bool) => Value::Bool(*i != 0),
            (Value::Int(i), DataType::Text) => Value::Text(i.to_string()),

            (Value::Float(f), DataType::Float) => Value::Float(*f),
            (Value::Float(f), DataType::Int) => Value::Int(*f as i64),
            (Value::Float(f), DataType::Bool) => Value::Bool(*f != 0.0),
            (Value::Float(f), DataType::Text) => Value::Text(format_float(*f)),

            (Value::Text(s), DataType::Text) => Value::Text(s.clone()),
            (Value::Text(s), DataType::Int) => {
                let parsed = parse_int_lenient(s)
                    .ok_or_else(|| Error::type_error(format!("cannot cast '{s}' to INTEGER")))?;
                Value::Int(parsed)
            }
            (Value::Text(s), DataType::Float) => {
                let parsed = parse_float_lenient(s)
                    .ok_or_else(|| Error::type_error(format!("cannot cast '{s}' to FLOAT")))?;
                Value::Float(parsed)
            }
            (Value::Text(s), DataType::Bool) => {
                let parsed = parse_bool_lenient(s)
                    .ok_or_else(|| Error::type_error(format!("cannot cast '{s}' to BOOLEAN")))?;
                Value::Bool(parsed)
            }
            (v, t) => {
                return Err(Error::type_error(format!(
                    "cannot cast {} to {}",
                    v.type_name(),
                    t
                )))
            }
        };
        Ok(out)
    }

    /// Lenient parse of text produced by a language model into the requested
    /// type. Unlike [`Value::cast`], failures fall back to `Null` instead of
    /// erroring, because noisy completions must not abort query execution.
    pub fn from_llm_text(raw: &str, ty: DataType) -> Value {
        let trimmed = normalize_llm_text(raw);
        if trimmed.is_empty() || is_nullish(trimmed) {
            return Value::Null;
        }
        match ty {
            DataType::Text => Value::Text(trimmed.to_string()),
            DataType::Int => parse_int_lenient(trimmed).map_or(Value::Null, Value::Int),
            DataType::Float => parse_float_lenient(trimmed).map_or(Value::Null, Value::Float),
            DataType::Bool => parse_bool_lenient(trimmed).map_or(Value::Null, Value::Bool),
        }
    }

    /// Total ordering used by ORDER BY and B-tree indexes.
    ///
    /// NULLs sort first; across types the order is
    /// NULL < BOOL < numeric < TEXT; NaN sorts after all other floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (Int(_) | Float(_), Text(_)) => Ordering::Less,
            (Text(_), Int(_) | Float(_)) => Ordering::Greater,
            (Text(a), Text(b)) => a.cmp(b),
        }
    }

    /// Non-SQL equality used for grouping and joining: NULL == NULL and
    /// numerics compare across int/float.
    pub fn semantic_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Text(a), Text(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64) == *b,
            (Float(a), Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            _ => false,
        }
    }

    /// Render the value the way it is embedded into prompts.
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Text(s) => s.clone(),
        }
    }
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // total-order: both sides are non-NaN here, so partial_cmp is total;
        // it is kept over total_cmp so -0.0 and 0.0 stay Equal, matching
        // semantic_eq.
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

/// Format floats without superfluous trailing zeros but keep a decimal point
/// so that round-tripping preserves the type.
pub fn format_float(f: f64) -> String {
    if f.is_nan() {
        return "NaN".to_string();
    }
    if f.is_infinite() {
        return if f > 0.0 { "inf".into() } else { "-inf".into() };
    }
    if f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

/// Strip markdown/formatting artefacts commonly produced by LLM completions:
/// surrounding whitespace, quotes, backticks, bullets and trailing periods.
/// It only ever trims, so the result is a subslice of `raw`.
pub fn normalize_llm_text(raw: &str) -> &str {
    // What a model usually writes starts and ends on a letter or a digit,
    // with at most the spaces that pad a `|`: no bullet, quoting or period
    // to peel, and no char to decode.
    let bytes = raw.as_bytes();
    let start = bytes.iter().take_while(|&&b| b == b' ').count();
    let end = bytes.len() - bytes.iter().rev().take_while(|&&b| b == b' ').count();
    // Spaces are ASCII, so both are char boundaries; `None` is all spaces.
    if let Some(inner) = raw.get(start..end) {
        let plain = |end: Option<&u8>| end.is_some_and(u8::is_ascii_alphanumeric);
        if plain(inner.as_bytes().first()) && plain(inner.as_bytes().last()) {
            return inner;
        }
    }
    let mut s = raw.trim();
    // strip list bullets like "- " or "* "
    if let Some(rest) = s.strip_prefix("- ").or_else(|| s.strip_prefix("* ")) {
        s = rest.trim_start();
    }
    // Repeatedly peel quoting/markdown characters and a single trailing
    // period until the string stabilises ("* `Tokyo`." -> "Tokyo").
    loop {
        let peeled = s.trim_matches(['`', '"', '\'', '*']).trim();
        let peeled = peeled.strip_suffix('.').unwrap_or(peeled).trim();
        if peeled.len() == s.len() {
            return s;
        }
        s = peeled;
    }
}

/// True for the words a model writes in place of a value it does not know
/// (`s` already normalised; any ASCII case).
pub fn is_nullish(s: &str) -> bool {
    const WORDS: [&str; 8] = ["null", "none", "n/a", "na", "unknown", "nil", "-", "?"];
    s.len() <= 7 && WORDS.iter().any(|word| s.eq_ignore_ascii_case(word))
}

/// `s` without thousands separators, copied only if it holds any.
fn without_separators(s: &str) -> std::borrow::Cow<'_, str> {
    if s.bytes().any(|b| b == b',' || b == b'_') {
        s.chars().filter(|c| *c != ',' && *c != '_').collect()
    } else {
        s.into()
    }
}

/// The leading run of `s` made of ASCII bytes `accepts` takes.
fn ascii_prefix(s: &str, accepts: impl Fn(u8) -> bool) -> &str {
    let len = s.bytes().take_while(|&b| accepts(b)).count();
    s.get(..len).unwrap_or(s)
}

/// Parse an integer tolerating thousands separators, surrounding text such as
/// units, and an optional leading sign.
pub fn parse_int_lenient(s: &str) -> Option<i64> {
    // What a model usually writes parses as it stands.
    if let Ok(v) = s.parse::<i64>() {
        return Some(v);
    }
    let cleaned = without_separators(s);
    let cleaned = cleaned.trim();
    if let Ok(v) = cleaned.parse::<i64>() {
        return Some(v);
    }
    // Accept floats that are integral ("12.0") and numbers followed by junk
    // ("12 million" is NOT scaled; we only strip trailing non-numerics).
    if let Ok(f) = cleaned.parse::<f64>() {
        if f.fract() == 0.0 && f.abs() < 9.2e18 {
            return Some(f as i64);
        }
    }
    ascii_prefix(cleaned, |b| b.is_ascii_digit() || b == b'-' || b == b'+')
        .parse::<i64>()
        .ok()
}

/// Parse a float tolerating thousands separators and trailing units.
pub fn parse_float_lenient(s: &str) -> Option<f64> {
    let cleaned = without_separators(s);
    let cleaned = cleaned.trim();
    if let Ok(v) = cleaned.parse::<f64>() {
        return Some(v);
    }
    ascii_prefix(cleaned, |b| {
        b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e')
    })
    .parse::<f64>()
    .ok()
}

/// Parse a boolean tolerating yes/no style answers.
pub fn parse_bool_lenient(s: &str) -> Option<bool> {
    let s = s.trim();
    let is_any = |words: &[&str]| words.iter().any(|word| s.eq_ignore_ascii_case(word));
    if is_any(&["true", "t", "yes", "y", "1"]) {
        Some(true)
    } else if is_any(&["false", "f", "no", "n", "0"]) {
        Some(false)
    } else {
        None
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.semantic_eq(other)
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Integral values must hash identically whether stored as Int or
            // Float so that hash joins agree with `semantic_eq`.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                if f.is_nan() {
                    f64::NAN.to_bits().hash(state);
                } else {
                    f.to_bits().hash(state);
                }
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
            other => write!(f, "{}", other.to_display_string()),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(inner) => inner.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "NULL");
        assert_eq!(Value::Bool(true).type_name(), "BOOLEAN");
        assert_eq!(Value::Int(3).type_name(), "INTEGER");
        assert_eq!(Value::Float(1.5).type_name(), "FLOAT");
        assert_eq!(Value::Text("x".into()).type_name(), "TEXT");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("hi".into()).as_str(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert!(Value::Int(1).is_numeric());
        assert!(!Value::Text("1".into()).is_numeric());
    }

    #[test]
    fn cast_int_to_others() {
        assert_eq!(
            Value::Int(3).cast(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Int(0).cast(DataType::Bool).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Value::Int(42).cast(DataType::Text).unwrap(),
            Value::Text("42".into())
        );
    }

    #[test]
    fn cast_text_to_numeric() {
        assert_eq!(
            Value::Text("1,234".into()).cast(DataType::Int).unwrap(),
            Value::Int(1234)
        );
        assert_eq!(
            Value::Text("3.25".into()).cast(DataType::Float).unwrap(),
            Value::Float(3.25)
        );
        assert!(Value::Text("abc".into()).cast(DataType::Int).is_err());
    }

    #[test]
    fn cast_null_is_null() {
        for ty in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Text,
        ] {
            assert_eq!(Value::Null.cast(ty).unwrap(), Value::Null);
        }
    }

    #[test]
    fn llm_text_parsing_is_lenient() {
        assert_eq!(Value::from_llm_text("  42 ", DataType::Int), Value::Int(42));
        assert_eq!(
            Value::from_llm_text("\"Paris\"", DataType::Text),
            Value::Text("Paris".into())
        );
        assert_eq!(
            Value::from_llm_text("- 1,234 km", DataType::Int),
            Value::Int(1234)
        );
        assert_eq!(Value::from_llm_text("unknown", DataType::Int), Value::Null);
        assert_eq!(Value::from_llm_text("N/A", DataType::Text), Value::Null);
        assert_eq!(
            Value::from_llm_text("yes", DataType::Bool),
            Value::Bool(true)
        );
        assert_eq!(
            Value::from_llm_text("garbage", DataType::Float),
            Value::Null
        );
    }

    #[test]
    fn normalization_strips_markdown() {
        assert_eq!(normalize_llm_text("* `Tokyo`."), "Tokyo");
        assert_eq!(normalize_llm_text("  \"Berlin\"  "), "Berlin");
        assert_eq!(normalize_llm_text("- 12"), "12");
    }

    #[test]
    fn ordering_across_types() {
        let mut vals = vec![
            Value::Text("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(5),
                Value::Text("a".into()),
            ]
        );
    }

    #[test]
    fn nan_sorts_last_among_floats() {
        let mut vals = [
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(-1.0),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Float(-1.0));
        assert_eq!(vals[1], Value::Float(1.0));
        assert!(matches!(vals[2], Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn semantic_eq_and_hash_agree_across_int_float() {
        use std::collections::hash_map::DefaultHasher;
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert!(a.semantic_eq(&b));
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn display_quotes_text() {
        assert_eq!(Value::Text("it's".into()).to_string(), "'it''s'");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_float(2.0), "2.0");
        assert_eq!(format_float(2.5), "2.5");
        assert_eq!(format_float(f64::NAN), "NaN");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Text("x".into()));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
        assert_eq!(Value::from(Some(2i64)), Value::Int(2));
    }

    #[test]
    fn lenient_parsers() {
        assert_eq!(parse_int_lenient("1_000"), Some(1000));
        assert_eq!(parse_int_lenient("12.0"), Some(12));
        assert_eq!(parse_int_lenient("12 km"), Some(12));
        assert_eq!(parse_int_lenient("km"), None);
        assert_eq!(parse_float_lenient("3.5 kg"), Some(3.5));
        assert_eq!(parse_bool_lenient("Yes"), Some(true));
        assert_eq!(parse_bool_lenient("nope"), None);
    }
}
