//! The one-pass answer scanner means what the parser it replaced meant.
//!
//! The parent's `parse_pipe_rows` / `parse_value_lines` (with the
//! `normalize_llm_text` and `is_nullish` they read cells through) are kept
//! here — and only here — as the oracle, with the two rules PR 22 fixed on
//! purpose turned into parameters: which line that *starts* like commentary
//! is commentary, and which field of a numeric column is "not a number" to
//! the header guess. Under the fixed rules the scanner equals the oracle on
//! every generated answer; under the parent's rules it equals it on every
//! answer neither fix applies to, and that exclusion is a predicate over the
//! input (`a_fix_applies`), not a list of seeds.

use llmsql_llm::{parse_pipe_rows, parse_value_lines, parse_yes_no, ParsedRows};
use llmsql_types::{DataType, Value};
use proptest::prelude::*;

/// The parser as it was before PR 22, verbatim but for the two rules.
mod parent {
    use llmsql_llm::{ParsedRows, YesNoAnswer};
    use llmsql_types::value::{parse_bool_lenient, parse_float_lenient, parse_int_lenient};
    use llmsql_types::{DataType, Row, Value};

    pub struct Rules {
        /// Whether a trimmed line that starts with a chatter opener is
        /// chatter. `separated`: several columns were asked for and the line
        /// holds a `|`.
        pub chatter: fn(line: &str, separated: bool) -> bool,
        /// Whether a numeric column's field makes a full-width first line a
        /// header.
        pub not_a_number: fn(field: &str, ty: DataType) -> bool,
    }

    /// What the parent did: the first words are enough, and a number is what
    /// `f64::from_str` takes.
    pub const PARENT: Rules = Rules {
        chatter: |_, _| true,
        not_a_number: |field, _| field.parse::<f64>().is_err(),
    };

    /// What PR 22 does instead (the module docs of `llmsql_llm::parse`).
    pub const FIXED: Rules = Rules {
        chatter: |line, separated| {
            let pressed_on = OPENERS.iter().any(|opener| {
                starts_with_ignoring_case(line, opener)
                    && matches!(
                        line.as_bytes().get(opener.len()),
                        Some(b',' | b':' | b'!' | b'.')
                    )
            });
            !separated && (pressed_on || line.ends_with(':'))
        },
        not_a_number: |field, ty| from_llm_text(field, ty).is_null(),
    };

    pub const OPENERS: [&str; 8] = [
        "here are",
        "here is",
        "sure",
        "note:",
        "i am",
        "i'm",
        "as an ai",
        "the following",
    ];

    fn starts_with_ignoring_case(line: &str, opener: &str) -> bool {
        line.to_ascii_lowercase().starts_with(opener)
    }

    pub fn starts_like_chatter(line: &str) -> bool {
        OPENERS
            .iter()
            .any(|opener| starts_with_ignoring_case(line, opener))
    }

    fn normalize_llm_text(raw: &str) -> String {
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

    /// `Value::from_llm_text` over the parent's `normalize_llm_text` and
    /// `is_nullish`; the `parse_*_lenient` helpers are held to their own
    /// parents in `crates/types/tests/llm_text.rs`.
    fn from_llm_text(raw: &str, ty: DataType) -> Value {
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

    fn is_noise_line(line: &str, rules: &Rules, separated: bool) -> bool {
        let t = line.trim();
        if t.is_empty() {
            return true;
        }
        if t.chars()
            .all(|c| matches!(c, '-' | '|' | '+' | ' ' | '=' | ':'))
        {
            return true;
        }
        if t.starts_with("```") {
            return true;
        }
        if t.starts_with('(') && t.ends_with(')') {
            return true;
        }
        starts_like_chatter(t) && (rules.chatter)(t, separated)
    }

    fn strip_bullet(line: &str) -> &str {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("- ").or_else(|| t.strip_prefix("* ")) {
            return rest;
        }
        let digits: usize = t.chars().take_while(|c| c.is_ascii_digit()).count();
        if digits > 0 && digits <= 3 {
            let rest = &t[digits..];
            if let Some(r) = rest.strip_prefix(". ").or_else(|| rest.strip_prefix(") ")) {
                return r;
            }
        }
        t
    }

    pub fn parse_yes_no(text: &str) -> YesNoAnswer {
        let lower = text.trim().to_ascii_lowercase();
        let first_word: String = lower
            .chars()
            .take_while(|c| c.is_ascii_alphabetic())
            .collect();
        match first_word.as_str() {
            "yes" | "y" | "true" => YesNoAnswer::Yes,
            "no" | "n" | "false" => YesNoAnswer::No,
            "unknown" | "unsure" | "uncertain" | "maybe" => YesNoAnswer::Unknown,
            _ => {
                let words: Vec<String> = lower
                    .split(|c: char| !c.is_ascii_alphabetic())
                    .filter(|w| !w.is_empty())
                    .map(|w| w.to_string())
                    .collect();
                let has_yes = words.iter().any(|w| w == "yes");
                let has_no = words.iter().any(|w| w == "no" || w == "not");
                match (has_yes, has_no) {
                    (true, false) => YesNoAnswer::Yes,
                    (false, true) => YesNoAnswer::No,
                    _ => YesNoAnswer::Unknown,
                }
            }
        }
    }

    pub fn parse_value_lines(text: &str, ty: DataType, rules: &Rules) -> ParsedRows {
        let mut out = ParsedRows::default();
        for line in text.lines() {
            if is_noise_line(line, rules, false) {
                continue;
            }
            let cleaned = strip_bullet(line);
            let value = from_llm_text(cleaned, ty);
            if value.is_null() && !cleaned.trim().is_empty() && ty != DataType::Text {
                out.dropped_lines += 1;
                continue;
            }
            if value.is_null() && cleaned.trim().is_empty() {
                out.dropped_lines += 1;
                continue;
            }
            out.rows.push(Row::new(vec![value]));
        }
        out
    }

    pub fn parse_pipe_rows(text: &str, types: &[DataType], rules: &Rules) -> ParsedRows {
        let mut out = ParsedRows::default();
        let arity = types.len().max(1);
        let mut header_names: Option<Vec<String>> = None;

        for line in text.lines() {
            if is_noise_line(line, rules, arity > 1 && line.contains('|')) {
                continue;
            }
            let cleaned = strip_bullet(line);
            let raw_fields: Vec<&str> = cleaned.split('|').map(|f| f.trim()).collect();
            if arity > 1 && raw_fields.len() == 1 {
                out.dropped_lines += 1;
                continue;
            }
            if header_names.is_none() && out.rows.is_empty() {
                let looks_like_header = raw_fields.len() == arity
                    && raw_fields.iter().all(|f| !f.is_empty() && !is_nullish(f))
                    && raw_fields
                        .iter()
                        .zip(types)
                        .any(|(f, ty)| ty.is_numeric() && (rules.not_a_number)(f, *ty));
                if looks_like_header {
                    header_names = Some(raw_fields.iter().map(|s| s.to_string()).collect());
                    continue;
                }
            }
            let mut values = Vec::with_capacity(arity);
            for i in 0..arity {
                let ty = types.get(i).copied().unwrap_or(DataType::Text);
                let field = raw_fields.get(i).copied().unwrap_or("");
                values.push(from_llm_text(field, ty));
            }
            let row = Row::new(values);
            if row.all_null() {
                out.dropped_lines += 1;
                continue;
            }
            out.rows.push(row);
        }
        out
    }
}

/// The inputs the two bugfixes change on purpose: some line starts like
/// commentary without the evidence the fixed rule asks for (or holds the
/// separator of a several-column answer), or some full-width line of named
/// fields has a numeric column's field on which `f64::from_str` and the
/// lenient reader disagree. Wider than strictly needed (the header guess only
/// ever looks at the first candidate line), which only excludes more.
fn a_fix_applies(text: &str, types: &[DataType]) -> bool {
    let arity = types.len().max(1);
    text.lines().any(|line| {
        let trimmed = line.trim();
        let separated = arity > 1 && line.contains('|');
        let chatter_moved =
            parent::starts_like_chatter(trimmed) && !(parent::FIXED.chatter)(trimmed, separated);
        let fields: Vec<&str> = line.split('|').map(str::trim).collect();
        let header_moved = fields.len() == arity
            && fields
                .iter()
                .all(|f| !f.is_empty() && !parent::is_nullish(f))
            && fields.iter().zip(types).any(|(field, ty)| {
                ty.is_numeric()
                    && (parent::PARENT.not_a_number)(field, *ty)
                        != (parent::FIXED.not_a_number)(field, *ty)
            });
        chatter_moved || header_moved
    })
}

fn arb_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Text),
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Bool),
    ]
}

/// An answer as a model might write it: words, numbers, the separator and
/// the markdown around it, line ends of both kinds, NULL words, bullets,
/// fences and text outside ASCII — and, in one answer of three, commentary
/// openers and numbers only a lenient reader takes.
fn arb_answer() -> impl Strategy<Value = String> {
    let fixed = |text: &'static str| Just(text.to_string());
    let common = || {
        prop_oneof![
            "[A-Za-z]{1,7}",
            "[0-9]{1,7}",
            "[-*.,_'\"`():?+=]{1}",
            fixed(" | "),
            fixed(" | "),
            fixed("|"),
            fixed(" "),
            fixed("\t"),
            fixed("\n"),
            fixed("\n"),
            fixed("\r\n"),
            fixed("NULL"),
            fixed("n/a"),
            fixed("None"),
            fixed("1. "),
            fixed("2) "),
            fixed("- "),
            fixed("* "),
            fixed("```"),
            fixed("--- | ---"),
            fixed("(none)"),
            fixed("é"),
            fixed("日本"),
            fixed("\u{a0}"),
            fixed("true"),
            fixed(":\n"),
        ]
    };
    let touched_by_a_fix = prop_oneof![
        fixed("\nSure"),
        fixed("\nHere are"),
        fixed("\nNote:"),
        fixed("\nI am"),
        fixed("\nThe following"),
        fixed("37,400,000"),
        fixed("8849 m"),
        fixed("nan"),
    ];
    let pieces = |piece| proptest::collection::vec(piece, 0..40).prop_map(|p| p.concat());
    prop_oneof![
        pieces(ArcStrategy::new(common())),
        pieces(ArcStrategy::new(common())),
        pieces(ArcStrategy::new(prop_oneof![
            common(),
            common(),
            touched_by_a_fix
        ])),
    ]
}

/// Compared as printed: `Value`'s own equality calls `Int(3)` and
/// `Float(3.0)` equal.
fn printed(parsed: &ParsedRows) -> String {
    format!("{parsed:?}")
}

proptest! {
    #[test]
    fn pipe_rows_mean_what_the_parent_meant(
        answers in proptest::collection::vec(arb_answer(), 30..31),
        types in proptest::collection::vec(arb_type(), 0..6),
    ) {
        let mut untouched = 0;
        for text in &answers {
            let got = printed(&parse_pipe_rows(text, &types));
            let fixed = parent::parse_pipe_rows(text, &types, &parent::FIXED);
            prop_assert_eq!(&got, &printed(&fixed), "{:?} as {:?}", text, types);
            if !a_fix_applies(text, &types) {
                untouched += 1;
                let parent = parent::parse_pipe_rows(text, &types, &parent::PARENT);
                prop_assert_eq!(&got, &printed(&parent), "{:?} as {:?}", text, types);
            }
        }
        // The exclusion is the exception, not the test.
        prop_assert!(untouched * 3 > answers.len(), "only {} answers compared", untouched);
    }

    #[test]
    fn value_lines_mean_what_the_parent_meant(
        answers in proptest::collection::vec(arb_answer(), 30..31),
        ty in arb_type(),
    ) {
        let mut untouched = 0;
        for text in &answers {
            let got = printed(&parse_value_lines(text, ty));
            let fixed = parent::parse_value_lines(text, ty, &parent::FIXED);
            prop_assert_eq!(&got, &printed(&fixed), "{:?} as {}", text, ty);
            // One column: no separator makes a line data, and no header guess.
            let chatter_moved = text.lines().map(str::trim).any(|line| {
                parent::starts_like_chatter(line) && !(parent::FIXED.chatter)(line, false)
            });
            if !chatter_moved {
                untouched += 1;
                let parent = parent::parse_value_lines(text, ty, &parent::PARENT);
                prop_assert_eq!(&got, &printed(&parent), "{:?} as {}", text, ty);
            }
        }
        prop_assert!(untouched * 3 > answers.len(), "only {} answers compared", untouched);
    }
}

/// A yes/no answer as a model might hedge it.
fn arb_verdict() -> impl Strategy<Value = String> {
    let word = prop_oneof![
        "[A-Za-z]{1,5}",
        "[ .,:!\n-]{1}",
        Just(" ".to_string()),
        Just("Yes".to_string()),
        Just("NO".to_string()),
        Just("not".to_string()),
        Just("y".to_string()),
        Just("True".to_string()),
        Just("false".to_string()),
        Just("Unknown".to_string()),
        Just("maybe".to_string()),
        Just("é".to_string()),
    ];
    proptest::collection::vec(word, 0..8).prop_map(|words| words.concat())
}

proptest! {
    #[test]
    fn yes_no_means_what_the_parent_meant(
        answers in proptest::collection::vec(arb_verdict(), 30..31),
    ) {
        for text in &answers {
            prop_assert_eq!(parse_yes_no(text), parent::parse_yes_no(text), "{:?}", text);
        }
    }
}

/// Twelve films, six of whose titles start like commentary.
const FILMS: [(&str, i64); 12] = [
    ("Alien", 1979),
    ("I Am Legend", 2007),
    ("Heat", 1995),
    ("The Following", 1998),
    ("Sure Thing", 1985),
    ("I'm Not There", 2007),
    ("Here Is Your Life", 1966),
    ("Note: Unsent", 2019),
    ("Zodiac", 2007),
    ("Ran", 1985),
    ("Up", 2009),
    ("Her", 2013),
];

#[test]
fn a_row_that_starts_like_chatter_is_a_row() {
    let two_columns: String = FILMS
        .iter()
        .map(|(title, year)| format!("{title} | {year}\n"))
        .collect();
    let parsed = parse_pipe_rows(&two_columns, &[DataType::Text, DataType::Int]);
    assert_eq!((parsed.rows.len(), parsed.dropped_lines), (12, 0));
    // The parent kept six: no line of these is chatter to the fixed rule,
    // six are to the parent's.
    let parent = parent::parse_pipe_rows(
        &two_columns,
        &[DataType::Text, DataType::Int],
        &parent::PARENT,
    );
    assert_eq!((parent.rows.len(), parent.dropped_lines), (6, 0));

    let titles: String = FILMS
        .iter()
        .map(|(title, _)| format!("{title}\n"))
        .collect();
    for parsed in [
        parse_pipe_rows(&titles, &[DataType::Text]),
        parse_value_lines(&titles, DataType::Text),
    ] {
        let read: Vec<&str> = parsed
            .rows
            .iter()
            .filter_map(|r| r.get(0).as_str())
            .collect();
        let written: Vec<&str> = FILMS.iter().map(|(title, _)| *title).collect();
        assert_eq!(read, written);
    }
    // "Surendranagar | India" went the same way.
    let parsed = parse_pipe_rows("Surendranagar | India\n", &[DataType::Text, DataType::Text]);
    assert_eq!(parsed.rows.len(), 1);
}

#[test]
fn commentary_is_still_skipped_uncounted() {
    let answer = "Sure, here you go.\nHere are the films:\nAlien\n\
                  I'm not sure about the rest.\nAs an AI I can only say:\nNote:\n";
    let parsed = parse_value_lines(answer, DataType::Text);
    // "I'm not sure about the rest." has no more than its first words to
    // show, so it is read as a value like any other line; the others are
    // skipped.
    let read: Vec<&str> = parsed
        .rows
        .iter()
        .filter_map(|r| r.get(0).as_str())
        .collect();
    assert_eq!(read, ["Alien", "I'm not sure about the rest"]);
    assert_eq!(parsed.dropped_lines, 0);
    // Where several columns were asked for, such a line has no separator:
    // dropped and counted, never a row.
    let parsed = parse_pipe_rows(
        "I'm not sure about the rest.\nAlien | 1979\n",
        &[DataType::Text, DataType::Int],
    );
    assert_eq!((parsed.rows.len(), parsed.dropped_lines), (1, 1));
}

#[test]
fn the_header_guess_reads_numbers_the_way_a_row_is_read() {
    let types = [DataType::Text, DataType::Int];
    // Still a header: `population` is no number to any reader.
    let parsed = parse_pipe_rows("name | population\nTokyo | 37,400,000\n", &types);
    assert_eq!(parsed.rows.len(), 1);
    assert_eq!(parsed.rows[0].get(1), &Value::Int(37_400_000));
    // A first row whose number carries separators or a unit is a row (the
    // parent took each for a header: one row short, nothing counted).
    for (answer, number) in [
        ("Tokyo | 37,400,000\nDelhi | 32,900,000\n", 37_400_000),
        ("Everest | 8849 m\nK2 | 8611 m\n", 8849),
    ] {
        let parsed = parse_pipe_rows(answer, &types);
        assert_eq!(
            (parsed.rows.len(), parsed.dropped_lines),
            (2, 0),
            "{answer}"
        );
        assert_eq!(parsed.rows[0].get(1), &Value::Int(number));
        let parent = parent::parse_pipe_rows(answer, &types, &parent::PARENT);
        assert_eq!(
            (parent.rows.len(), parent.dropped_lines),
            (1, 0),
            "{answer}"
        );
    }
    // Only the first line that could be a row is ever taken for a header.
    let parsed = parse_pipe_rows("Tokyo | 37\nname | population\n", &types);
    assert_eq!(parsed.rows.len(), 2);
    assert!(parsed.rows[1].get(1).is_null());
}
