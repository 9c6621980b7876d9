//! Every `bad_*` fixture must trip exactly its rule; every `good_*`
//! fixture must pass clean. The fixtures live under `tests/fixtures/`,
//! which the repo walker skips, so they never pollute the real lint run.

use llmsql_lint::rules::{
    check_dead_pub, check_file, RULE_ATOMIC_ORDERING, RULE_BANNED_TIME, RULE_DEAD_PUB,
    RULE_FLOAT_ORDERING, RULE_FORBID_UNSAFE, RULE_PANIC_IN_LIB,
};
use llmsql_lint::scanner::scan_source;

/// Lint a fixture as if it sat at a library (non-root) path.
fn lint_as_lib(src: &str) -> Vec<&'static str> {
    let mut rules: Vec<_> = check_file("crates/fixture/src/module.rs", src)
        .into_iter()
        .map(|v| v.rule)
        .collect();
    rules.dedup();
    rules
}

#[test]
fn bad_atomic_ordering_is_flagged() {
    let rules = lint_as_lib(include_str!("fixtures/bad_atomic_ordering.rs"));
    assert_eq!(rules, vec![RULE_ATOMIC_ORDERING]);
}

#[test]
fn good_atomic_ordering_passes() {
    assert_eq!(
        lint_as_lib(include_str!("fixtures/good_atomic_ordering.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn bad_sleep_is_flagged() {
    assert_eq!(
        lint_as_lib(include_str!("fixtures/bad_sleep.rs")),
        vec![RULE_BANNED_TIME]
    );
}

#[test]
fn bad_wait_is_flagged() {
    let src = include_str!("fixtures/bad_wait.rs");
    assert_eq!(lint_as_lib(src), vec![RULE_BANNED_TIME]);
    let lines: Vec<usize> = check_file("crates/fixture/src/module.rs", src)
        .into_iter()
        .map(|v| v.line)
        .collect();
    // The import, the parameter, the park and the timed park.
    assert_eq!(lines, vec![3, 5, 13, 14]);
    assert!(check_file("crates/types/src/clock.rs", src).is_empty());
}

#[test]
fn bad_instant_is_flagged() {
    assert_eq!(
        lint_as_lib(include_str!("fixtures/bad_instant.rs")),
        vec![RULE_BANNED_TIME]
    );
}

#[test]
fn bad_elapsed_is_flagged() {
    assert_eq!(
        lint_as_lib(include_str!("fixtures/bad_elapsed.rs")),
        vec![RULE_BANNED_TIME]
    );
}

#[test]
fn sleep_in_allowlisted_clock_module_passes() {
    let src = include_str!("fixtures/bad_sleep.rs");
    assert!(check_file("crates/types/src/clock.rs", src).is_empty());
}

#[test]
fn bad_unwrap_expect_println_are_flagged() {
    for fixture in [
        include_str!("fixtures/bad_unwrap.rs"),
        include_str!("fixtures/bad_expect.rs"),
        include_str!("fixtures/bad_println.rs"),
    ] {
        assert_eq!(lint_as_lib(fixture), vec![RULE_PANIC_IN_LIB]);
    }
}

#[test]
fn bad_float_ordering_is_flagged() {
    assert_eq!(
        lint_as_lib(include_str!("fixtures/bad_float_ordering.rs")),
        vec![RULE_FLOAT_ORDERING]
    );
}

#[test]
fn good_float_ordering_passes() {
    assert_eq!(
        lint_as_lib(include_str!("fixtures/good_float_ordering.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn test_module_exempts_time_and_panic_rules() {
    assert_eq!(
        lint_as_lib(include_str!("fixtures/good_test_mod.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn missing_forbid_unsafe_flagged_only_at_crate_roots() {
    let bad = include_str!("fixtures/bad_missing_forbid.rs");
    let rules: Vec<_> = check_file("crates/fixture/src/lib.rs", bad)
        .into_iter()
        .map(|v| v.rule)
        .collect();
    assert_eq!(rules, vec![RULE_FORBID_UNSAFE]);
    // The same file at a non-root path is fine.
    assert!(check_file("crates/fixture/src/module.rs", bad).is_empty());

    let good = include_str!("fixtures/good_forbid.rs");
    assert!(check_file("crates/fixture/src/lib.rs", good).is_empty());
}

#[test]
fn tokens_inside_strings_and_comments_are_not_flagged() {
    assert_eq!(
        lint_as_lib(include_str!("fixtures/tricky_strings.rs")),
        Vec::<&str>::new()
    );
}

#[test]
fn non_lib_paths_skip_time_and_panic_rules() {
    let src = include_str!("fixtures/bad_unwrap.rs");
    assert!(check_file("crates/fixture/tests/t.rs", src).is_empty());
    assert!(check_file("crates/fixture/src/bin/tool.rs", src).is_empty());
    assert!(check_file("crates/fixture/benches/b.rs", src).is_empty());
}

#[test]
fn dead_pub_flags_what_only_its_own_test_or_a_comment_names() {
    let flagged = |library: &str| {
        let files = [
            (library, include_str!("fixtures/dead_pub.rs")),
            (
                "examples/user.rs",
                include_str!("fixtures/dead_pub_user.rs"),
            ),
        ]
        .map(|(path, src)| (path.to_string(), scan_source(src)));
        check_dead_pub(&files)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect::<Vec<_>>()
    };
    // `only_tested` and `only_named`; the file that calls
    // `called_elsewhere` is read for uses and checked for nothing.
    assert_eq!(
        flagged("crates/fixture/src/module.rs"),
        [(RULE_DEAD_PUB, 5), (RULE_DEAD_PUB, 20)]
    );
    // Only library code is checked, and the shims are not.
    assert!(flagged("crates/fixture/tests/t.rs").is_empty());
    assert!(flagged("crates/shims/fixture/src/lib.rs").is_empty());
}
