//! The lenient readers of model text mean what they meant before they
//! stopped allocating: `normalize_llm_text`, `is_nullish`, the three
//! `parse_*_lenient` helpers and `Value::from_llm_text` against the code they
//! replaced, kept here — and only here — as the oracle.

use llmsql_types::value::{
    is_nullish, normalize_llm_text, parse_bool_lenient, parse_float_lenient, parse_int_lenient,
};
use llmsql_types::{DataType, Value};
use proptest::prelude::*;

/// The readers as they were before PR 22, verbatim.
mod parent {
    use llmsql_types::{DataType, Value};

    pub fn normalize_llm_text(raw: &str) -> String {
        let mut s = raw.trim();
        if let Some(rest) = s.strip_prefix("- ").or_else(|| s.strip_prefix("* ")) {
            s = rest.trim_start();
        }
        let mut cur = s.to_string();
        loop {
            let trimmed = cur
                .trim_matches(|c| c == '`' || c == '"' || c == '\'' || c == '*')
                .trim();
            let trimmed = trimmed.strip_suffix('.').unwrap_or(trimmed).trim();
            if trimmed == cur {
                break;
            }
            cur = trimmed.to_string();
        }
        cur
    }

    pub fn is_nullish(s: &str) -> bool {
        let lower = s.to_ascii_lowercase();
        matches!(
            lower.as_str(),
            "null" | "none" | "n/a" | "na" | "unknown" | "nil" | "-" | "?"
        )
    }

    pub fn parse_int_lenient(s: &str) -> Option<i64> {
        let cleaned: String = s.chars().filter(|c| *c != ',' && *c != '_').collect();
        let cleaned = cleaned.trim();
        if let Ok(v) = cleaned.parse::<i64>() {
            return Some(v);
        }
        if let Ok(f) = cleaned.parse::<f64>() {
            if f.fract() == 0.0 && f.abs() < 9.2e18 {
                return Some(f as i64);
            }
        }
        let numeric_prefix: String = cleaned
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '-' || *c == '+')
            .collect();
        if numeric_prefix.is_empty() || numeric_prefix == "-" || numeric_prefix == "+" {
            None
        } else {
            numeric_prefix.parse::<i64>().ok()
        }
    }

    pub fn parse_float_lenient(s: &str) -> Option<f64> {
        let cleaned: String = s.chars().filter(|c| *c != ',' && *c != '_').collect();
        let cleaned = cleaned.trim();
        if let Ok(v) = cleaned.parse::<f64>() {
            return Some(v);
        }
        let numeric_prefix: String = cleaned
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '-' || *c == '+' || *c == '.' || *c == 'e')
            .collect();
        if numeric_prefix.is_empty() {
            None
        } else {
            numeric_prefix.parse::<f64>().ok()
        }
    }

    pub fn parse_bool_lenient(s: &str) -> Option<bool> {
        match s.trim().to_ascii_lowercase().as_str() {
            "true" | "t" | "yes" | "y" | "1" => Some(true),
            "false" | "f" | "no" | "n" | "0" => Some(false),
            _ => None,
        }
    }

    pub fn from_llm_text(raw: &str, ty: DataType) -> Value {
        let trimmed = normalize_llm_text(raw);
        if trimmed.is_empty() || is_nullish(&trimmed) {
            return Value::Null;
        }
        match ty {
            DataType::Text => Value::Text(trimmed),
            DataType::Int => parse_int_lenient(&trimmed).map_or(Value::Null, Value::Int),
            DataType::Float => parse_float_lenient(&trimmed).map_or(Value::Null, Value::Float),
            DataType::Bool => parse_bool_lenient(&trimmed).map_or(Value::Null, Value::Bool),
        }
    }
}

/// One cell as a model might write it: words, numbers with separators, signs
/// and units, NULL words, booleans, markdown quoting, bullets, periods, and
/// whitespace inside and outside ASCII.
fn arb_cell() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[A-Za-z]{1,6}",
        "[0-9]{1,7}",
        "[-+.,_eE]{1}",
        "[ \t'\"`*.?()]{1}",
        Just("- ".to_string()),
        Just("* ".to_string()),
        Just("\r".to_string()),
        Just("\u{a0}".to_string()),
        Just("\u{2003}".to_string()),
        Just("é".to_string()),
        Just("日本".to_string()),
        Just("NULL".to_string()),
        Just("n/a".to_string()),
        Just("None".to_string()),
        Just("unknown".to_string()),
        Just("Yes".to_string()),
        Just("false".to_string()),
        Just("37,400,000".to_string()),
        Just("1_000".to_string()),
        Just("12.0".to_string()),
        Just("-3.5e2".to_string()),
        Just("9300000000000000000".to_string()),
        Just("inf".to_string()),
        Just("NaN".to_string()),
        Just(" km".to_string()),
    ];
    proptest::collection::vec(piece, 0..6).prop_map(|pieces| pieces.concat())
}

/// `Value`'s own equality calls NaN equal to NaN, which is what a
/// differential wants; floats are compared by bits so `-0.0` is told apart.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Text(a), Value::Text(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

proptest! {
    /// Every reader gives the parent's answer, on the raw cell and on the
    /// normalised one.
    #[test]
    fn lenient_readers_read_what_the_parent_read(
        cells in proptest::collection::vec(arb_cell(), 40..41),
    ) {
        for cell in &cells {
            let normal = normalize_llm_text(cell);
            prop_assert_eq!(normal, parent::normalize_llm_text(cell), "normalize {:?}", cell);
            for text in [cell.as_str(), normal] {
                prop_assert_eq!(is_nullish(text), parent::is_nullish(text), "nullish {:?}", text);
                prop_assert_eq!(
                    parse_int_lenient(text),
                    parent::parse_int_lenient(text),
                    "int {:?}",
                    text
                );
                prop_assert_eq!(
                    parse_float_lenient(text).map(f64::to_bits),
                    parent::parse_float_lenient(text).map(f64::to_bits),
                    "float {:?}",
                    text
                );
                prop_assert_eq!(
                    parse_bool_lenient(text),
                    parent::parse_bool_lenient(text),
                    "bool {:?}",
                    text
                );
            }
            for ty in [DataType::Text, DataType::Int, DataType::Float, DataType::Bool] {
                let (new, old) = (Value::from_llm_text(cell, ty), parent::from_llm_text(cell, ty));
                prop_assert!(same(&new, &old), "{:?} as {}: {:?} vs {:?}", cell, ty, new, old);
            }
        }
    }

    /// Normalising only ever trims: the result is a slice of the input, and
    /// normalising it again changes nothing — unless a second bullet stood
    /// behind the first (`- - x`; one bullet is stripped per pass, as the
    /// parent did).
    #[test]
    fn normalize_returns_a_subslice_and_is_idempotent(
        cells in proptest::collection::vec(arb_cell(), 40..41),
    ) {
        for cell in &cells {
            let normal = normalize_llm_text(cell);
            let (outer, inner) = (cell.as_bytes().as_ptr_range(), normal.as_bytes().as_ptr_range());
            prop_assert!(
                outer.start <= inner.start && inner.end <= outer.end,
                "{:?} -> {:?} is not a slice of its input",
                cell,
                normal
            );
            if !normal.starts_with("- ") {
                prop_assert_eq!(normalize_llm_text(normal), normal);
            }
        }
    }
}

#[test]
fn normalize_borrows_from_what_it_was_given() {
    let raw = "  * `Tokyo`.  ";
    let normal = normalize_llm_text(raw);
    assert_eq!(normal, "Tokyo");
    assert!(std::ptr::eq(normal.as_ptr(), raw[5..].as_ptr()));
    // Nothing to peel: the very same slice.
    let plain = "Region 3";
    assert!(std::ptr::eq(normalize_llm_text(plain), plain));
}
