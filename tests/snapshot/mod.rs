//! Golden files under `tests/snapshots/`, shared by the snapshot suites.
//! Regenerate a suite's goldens with `UPDATE_SNAPSHOTS=1 cargo test --test
//! <suite>` and review the diff like code.

/// Compare `actual` with `tests/snapshots/<name>.txt`, or overwrite the
/// file when `UPDATE_SNAPSHOTS` is set.
pub fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/snapshots/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_SNAPSHOTS").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {path} ({e}); run with UPDATE_SNAPSHOTS=1"));
    assert_eq!(
        actual, expected,
        "output drifted from {name}.txt; if intended, rerun with UPDATE_SNAPSHOTS=1"
    );
}
