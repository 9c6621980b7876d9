//! The lint rules. Each rule is a pure function from a classified source
//! file to violations; policy about baselines lives in [`crate::ledger`].
//!
//! Rules enforced (names are the ledger keys):
//!
//! - `atomic-ordering` — every `Ordering::{Relaxed,Acquire,Release,AcqRel,
//!   SeqCst}` use must carry an `// ordering:` justification comment on the
//!   same line or within the four lines above it. Applies to *all* code,
//!   tests included: orderings in stress tests encode invariants too.
//! - `banned-time` — `Instant::now`, `.elapsed()` (which is `Instant::now()
//!   - self`), `thread::sleep`, `thread::park` / `park_timeout` and
//!   `Condvar` are banned in non-test library code outside the one clock
//!   module ([`TIME_ALLOWLIST`]). A clock read anywhere else is a test that
//!   cannot pause time and has to sleep, and a wait anywhere else is one a
//!   paused or deployment clock cannot see; read through `clock::now` and
//!   wait through `clock::park_until` instead.
//! - `panic-in-lib` — `.unwrap()` / `.expect(` / `println!` are banned in
//!   non-test library code. Library errors flow through `llmsql_types::
//!   Result`; stdout belongs to bins and benches.
//! - `float-ordering` — `.partial_cmp(` is banned in non-test library code
//!   unless the same line also uses `total_cmp` or a `// total-order:`
//!   justification comment covers it. Partial float comparisons silently
//!   equate NaN with everything (or panic through `.unwrap()`), which breaks
//!   sort determinism; use `f64::total_cmp` or justify why NaN cannot reach
//!   the comparison.
//! - `forbid-unsafe` — every crate root must carry `#![forbid(unsafe_code)]`.
//! - `dead-pub` — a `pub fn` in non-test library code (the offline shims
//!   excepted) whose name, as a whole word of the code channel, appears
//!   nowhere else: on no non-test line of its own file but its definition,
//!   and on no line of any other file. A function only its own unit test
//!   calls is dead code with a test attached. This rule reads the whole
//!   tree at once ([`check_dead_pub`]); the others read one file.

use std::collections::HashMap;

use crate::scanner::{scan_source, Line};

/// A single rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule key (also the ledger key): one of the `RULE_*` constants.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending code text, trimmed.
    pub excerpt: String,
}

pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
pub const RULE_BANNED_TIME: &str = "banned-time";
pub const RULE_PANIC_IN_LIB: &str = "panic-in-lib";
pub const RULE_FLOAT_ORDERING: &str = "float-ordering";
pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
pub const RULE_DEAD_PUB: &str = "dead-pub";

/// The only library files allowed to read the wall clock or block a thread:
/// the one clock, whose `now` / `park_until` everything else goes through
/// (and which a test can pause).
pub const TIME_ALLOWLIST: &[&str] = &["crates/types/src/clock.rs"];

/// Atomic ordering variants that require justification. `cmp::Ordering`
/// variants (`Less`/`Equal`/`Greater`) are deliberately not listed.
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// How many lines above an atomic op an `// ordering:` comment may sit and
/// still count as attached when statement tracking doesn't already cover it
/// (e.g. a comment above an `if`/`else` whose branches bump counters).
const ORDERING_COMMENT_WINDOW: usize = 6;

/// Upper bound on how many lines one marker's statement coverage may span —
/// a malformed file can't silently blanket hundreds of lines.
const ORDERING_STATEMENT_SPAN: usize = 20;

/// Marker that justifies an atomic ordering when found in a comment.
pub const ORDERING_MARKER: &str = "ordering:";

/// Marker that justifies a partial float comparison when found in a comment.
pub const TOTAL_ORDER_MARKER: &str = "total-order:";

/// Classification of a file, derived from its repo-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileKind {
    /// Library code: `crates/*/src/**` or the facade `src/**`, excluding
    /// `/bin/` targets. Tests, benches, examples and bins are not library
    /// code — `panic-in-lib` and `banned-time` don't apply there.
    pub is_lib: bool,
    /// A crate root (`src/lib.rs` of a workspace member): must carry
    /// `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
}

/// Classify a repo-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileKind {
    let is_lib = (rel_path.starts_with("crates/") && rel_path.contains("/src/")
        || rel_path.starts_with("src/"))
        && !rel_path.contains("/bin/")
        && !rel_path.contains("/tests/")
        && !rel_path.contains("/benches/")
        && !rel_path.contains("/examples/");
    let is_crate_root = rel_path.ends_with("/src/lib.rs") || rel_path == "src/lib.rs";
    FileKind {
        is_lib,
        is_crate_root,
    }
}

/// Run every per-file rule over one file. `rel_path` must be repo-relative with
/// forward slashes; it drives classification and appears in violations.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Violation> {
    let kind = classify(rel_path);
    let lines = scan_source(src);
    let mut out = Vec::new();

    check_atomic_ordering(rel_path, &lines, &mut out);
    if kind.is_lib && !TIME_ALLOWLIST.contains(&rel_path) {
        check_banned_time(rel_path, &lines, &mut out);
    }
    if kind.is_lib {
        check_panic_in_lib(rel_path, &lines, &mut out);
        check_float_ordering(rel_path, &lines, &mut out);
    }
    if kind.is_crate_root {
        check_forbid_unsafe(rel_path, &lines, &mut out);
    }
    out
}

/// One violation per line that uses an atomic ordering without an attached
/// `// ordering:` comment. A marker justifies its own line, the next
/// [`ORDERING_COMMENT_WINDOW`] lines, and — so multi-line statements like a
/// `compare_exchange` argument list or a stats struct literal stay covered
/// — every line through the end of the statement that follows it (first
/// line whose code ends with `;` or `}`; a trailing `{` means the statement
/// continues into a literal or body), capped at
/// [`ORDERING_STATEMENT_SPAN`] lines.
fn check_atomic_ordering(rel_path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    let covered = marker_coverage(lines, ORDERING_MARKER);
    for (idx, line) in lines.iter().enumerate() {
        if !ATOMIC_ORDERINGS.iter().any(|o| line.code.contains(o)) {
            continue;
        }
        let justified = covered.get(idx).copied().unwrap_or(false);
        if !justified {
            out.push(Violation {
                rule: RULE_ATOMIC_ORDERING,
                file: rel_path.to_string(),
                line: line.number,
                excerpt: line.code.trim().to_string(),
            });
        }
    }
}

/// Per-line justification coverage for a comment marker (shared by the
/// `atomic-ordering` and `float-ordering` rules): the marker line, the next
/// [`ORDERING_COMMENT_WINDOW`] lines, and the first statement after it.
fn marker_coverage(lines: &[Line], marker: &str) -> Vec<bool> {
    let mut covered = vec![false; lines.len()];
    for (idx, line) in lines.iter().enumerate() {
        if !line.comment.contains(marker) {
            continue;
        }
        // Window coverage: marker line plus the next few lines.
        for slot in covered
            .iter_mut()
            .skip(idx)
            .take(ORDERING_COMMENT_WINDOW + 1)
        {
            *slot = true;
        }
        // Statement coverage: through the end of the first statement whose
        // code starts at or after the marker.
        let mut seen_code = false;
        for k in idx..lines.len().min(idx + ORDERING_STATEMENT_SPAN) {
            covered[k] = true;
            let code = lines[k].code.trim_end();
            if !code.trim().is_empty() {
                seen_code = true;
            }
            if seen_code && (code.ends_with(';') || code.ends_with('}')) {
                break;
            }
        }
    }
    covered
}

/// What reads the wall clock or blocks a thread, outside the clock module.
const BANNED_TIME: &[&str] = &[
    "Instant::now",
    ".elapsed()",
    "thread::sleep",
    "thread::park",
    "park_timeout",
    "Condvar",
];

/// Wall-clock reads and thread waits outside the clock module.
fn check_banned_time(rel_path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for line in lines {
        if line.in_test {
            continue;
        }
        if BANNED_TIME.iter().any(|banned| line.code.contains(banned)) {
            out.push(Violation {
                rule: RULE_BANNED_TIME,
                file: rel_path.to_string(),
                line: line.number,
                excerpt: line.code.trim().to_string(),
            });
        }
    }
}

/// `.unwrap()` / `.expect(` / `println!` in non-test library code.
fn check_panic_in_lib(rel_path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for line in lines {
        if line.in_test {
            continue;
        }
        let hit = line.code.contains(".unwrap()")
            || line.code.contains(".expect(")
            || line.code.contains("println!");
        if hit {
            out.push(Violation {
                rule: RULE_PANIC_IN_LIB,
                file: rel_path.to_string(),
                line: line.number,
                excerpt: line.code.trim().to_string(),
            });
        }
    }
}

/// `.partial_cmp(` in non-test library code. A line is exempt when it also
/// mentions `total_cmp` (e.g. a fallback chain ending in a total order) or
/// when a `// total-order:` marker covers it, same coverage rules as
/// `atomic-ordering`. The leading dot keeps `fn partial_cmp(` trait
/// implementations out of scope — defining the method is fine, calling it
/// on query data is what risks NaN-order bugs.
fn check_float_ordering(rel_path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    let covered = marker_coverage(lines, TOTAL_ORDER_MARKER);
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if !line.code.contains(".partial_cmp(") || line.code.contains("total_cmp") {
            continue;
        }
        if covered.get(idx).copied().unwrap_or(false) {
            continue;
        }
        out.push(Violation {
            rule: RULE_FLOAT_ORDERING,
            file: rel_path.to_string(),
            line: line.number,
            excerpt: line.code.trim().to_string(),
        });
    }
}

/// Crate roots must forbid `unsafe` so it can never creep in silently.
fn check_forbid_unsafe(rel_path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    let present = lines
        .iter()
        .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !present {
        out.push(Violation {
            rule: RULE_FORBID_UNSAFE,
            file: rel_path.to_string(),
            line: 1,
            excerpt: "missing #![forbid(unsafe_code)] in crate root".to_string(),
        });
    }
}

/// `dead-pub` over a whole tree: `files` pairs each repo-relative path with
/// its scanned lines. Only library files are checked, but every file counts
/// as a user, so pass the test and example trees too.
pub fn check_dead_pub(files: &[(String, Vec<Line>)]) -> Vec<Violation> {
    // Each word of the code channel -> the files naming it, ascending.
    let mut named_in: HashMap<&str, Vec<usize>> = HashMap::new();
    for (index, (_, lines)) in files.iter().enumerate() {
        for word in lines.iter().flat_map(|line| words(&line.code)) {
            let at = named_in.entry(word).or_default();
            if at.last() != Some(&index) {
                at.push(index);
            }
        }
    }
    let mut out = Vec::new();
    for (index, (rel_path, lines)) in files.iter().enumerate() {
        if !classify(rel_path).is_lib || rel_path.starts_with("crates/shims/") {
            continue;
        }
        for (at, def) in lines.iter().enumerate().filter(|(_, line)| !line.in_test) {
            let Some(name) = pub_fn_name(&def.code) else {
                continue;
            };
            let elsewhere = named_in[name].iter().any(|&file| file != index);
            let at_home = lines.iter().enumerate().any(|(k, line)| {
                k != at && !line.in_test && words(&line.code).any(|word| word == name)
            });
            if !elsewhere && !at_home {
                out.push(Violation {
                    rule: RULE_DEAD_PUB,
                    file: rel_path.clone(),
                    line: def.number,
                    excerpt: def.code.trim().to_string(),
                });
            }
        }
    }
    out
}

/// The identifiers and numbers of a code line.
fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// The name a `pub fn` (or `pub const fn`) line defines.
fn pub_fn_name(code: &str) -> Option<&str> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    words(rest.strip_prefix("fn ")?).next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert!(classify("crates/exec/src/slots.rs").is_lib);
        assert!(classify("src/lib.rs").is_lib);
        assert!(classify("src/lib.rs").is_crate_root);
        assert!(classify("crates/types/src/lib.rs").is_crate_root);
        assert!(!classify("crates/workload/src/bin/reproduce.rs").is_lib);
        assert!(!classify("tests/scheduler.rs").is_lib);
        assert!(!classify("examples/quickstart.rs").is_lib);
        assert!(!classify("crates/lint/tests/fixtures/bad_unwrap.rs").is_lib);
    }

    #[test]
    fn ordering_comment_window() {
        let bad = "x.load(Ordering::Relaxed);\n";
        let v = check_file("crates/x/src/a.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_ATOMIC_ORDERING);

        let good = "// ordering: counter only, no ordering needed\nx.load(Ordering::Relaxed);\n";
        assert!(check_file("crates/x/src/a.rs", good).is_empty());

        let trailing = "x.load(Ordering::Relaxed); // ordering: counter\n";
        assert!(check_file("crates/x/src/a.rs", trailing).is_empty());
    }

    #[test]
    fn atomic_rule_applies_in_tests_too() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.load(Ordering::SeqCst); }\n}\n";
        let v = check_file("crates/x/src/a.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn float_ordering_requires_total_cmp_or_marker() {
        let bad = "fn f() { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let v: Vec<_> = check_file("crates/x/src/a.rs", bad)
            .into_iter()
            .filter(|v| v.rule == RULE_FLOAT_ORDERING)
            .collect();
        assert_eq!(v.len(), 1, "{v:?}");

        let total = "fn f() { xs.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(check_file("crates/x/src/a.rs", total).is_empty());

        let justified = "// total-order: inputs are validated non-NaN scores\n\
                         fn f() { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert!(check_file("crates/x/src/a.rs", justified)
            .iter()
            .all(|v| v.rule != RULE_FLOAT_ORDERING));

        // Defining the trait method is not a violation; calling it is.
        let trait_impl = "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None }\n";
        assert!(check_file("crates/x/src/a.rs", trait_impl).is_empty());

        // Tests and non-lib targets are out of scope.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { a.partial_cmp(&b); }\n}\n";
        assert!(check_file("crates/x/src/a.rs", in_test).is_empty());
        assert!(check_file("benches/b.rs", bad).is_empty());
    }

    #[test]
    fn time_and_panic_skip_tests_and_non_lib() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { thread::sleep(d); x.unwrap(); }\n}\n";
        assert!(check_file("crates/x/src/a.rs", src).is_empty());
        let lib = "fn f() { thread::sleep(d); }\n";
        assert_eq!(check_file("crates/x/src/a.rs", lib).len(), 1);
        for wait in [
            "thread::park();",
            "park_timeout(d);",
            "let c = Condvar::new();",
        ] {
            assert_eq!(check_file("crates/x/src/a.rs", wait).len(), 1, "{wait}");
        }
        assert!(check_file("tests/foo.rs", lib).is_empty());
        assert!(
            check_file("crates/types/src/clock.rs", lib).is_empty(),
            "allowlisted"
        );
    }
}
