#![forbid(unsafe_code)]
//! In-repo static analysis for concurrency and robustness invariants.
//!
//! The engine's core claim — byte-identical rows and call counts at any
//! parallelism — rests on lock-free code being *correct*, and nothing about
//! a wrong `Ordering::Relaxed` fails a unit test. This crate is the cheap,
//! deterministic first line: a token-level scanner ([`scanner`]) plus six
//! rules ([`rules`]) with a ratcheting baseline ledger ([`ledger`]).
//!
//! Run it three ways, all equivalent:
//!
//! - `cargo test -p llmsql-lint` — the `repo_clean` integration test fails
//!   on any unledgered violation;
//! - `cargo run -p llmsql-lint --bin llmsql-lint` — same check as a binary
//!   (exit 1 on violation), used by the CI `static-analysis` job;
//! - `llmsql_lint::lint_repo(root)` — programmatic access.
//!
//! See `CONTRIBUTING.md` ("Concurrency invariants") for the conventions the
//! rules enforce and how to update the ledger.

pub mod ledger;
pub mod rules;
pub mod scanner;

use std::path::{Path, PathBuf};

use rules::Violation;

/// Everything `lint_repo` found, already reconciled against the ledger.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that fail the lint (not ledgered, or in excess of a
    /// ledger baseline).
    pub failures: Vec<Violation>,
    /// Per-group summaries for groups that outgrew their baseline.
    pub grown: Vec<(String, String, usize, usize)>,
    /// Stale-ledger notices (non-fatal): ratchet these down.
    pub stale: Vec<String>,
    /// Malformed ledger lines (fatal: a skipped entry un-enforces a rule).
    pub ledger_errors: Vec<String>,
    /// Total number of files scanned (sanity signal for the runner).
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is clean: no unledgered violations and a
    /// well-formed ledger.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.ledger_errors.is_empty()
    }

    /// Human-readable rendering of the report, one line per finding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.ledger_errors {
            out.push_str(&format!("ledger error: {e}\n"));
        }
        for (rule, file, live, baseline) in &self.grown {
            out.push_str(&format!(
                "{file}: {rule} count grew to {live} (ledger baseline {baseline})\n"
            ));
        }
        for v in &self.failures {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                v.file, v.line, v.rule, v.excerpt
            ));
        }
        for s in &self.stale {
            out.push_str(&format!("stale ledger: {s}\n"));
        }
        if self.is_clean() {
            out.push_str(&format!(
                "lint clean: {} files scanned, {} stale ledger entr{}\n",
                self.files_scanned,
                self.stale.len(),
                if self.stale.len() == 1 { "y" } else { "ies" }
            ));
        }
        out
    }
}

/// Locate the workspace root from this crate's build-time manifest dir.
/// Falls back to the current directory (the bin passes an explicit root).
pub fn default_root() -> PathBuf {
    let manifest: &str = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Run all rules over the workspace at `root` and reconcile against
/// `crates/lint/lint.ledger`. I/O errors surface as synthetic ledger errors
/// so a truncated checkout can never pass silently.
pub fn lint_repo(root: &Path) -> Report {
    let mut report = Report::default();
    let mut violations = Vec::new();

    let files = collect_rs_files(root, &["crates", "src"], &mut report);
    report.files_scanned = files.len();
    // `tests/` and `examples/` are read for uses of library functions only.
    let users = collect_rs_files(root, &["tests", "examples"], &mut report);
    let mut scanned = Vec::new();
    let read = files.iter().map(|rel| (rel, true));
    for (rel, lint) in read.chain(users.iter().map(|rel| (rel, false))) {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => {
                if lint {
                    violations.extend(rules::check_file(rel, &src));
                }
                scanned.push((rel.clone(), scanner::scan_source(&src)));
            }
            Err(e) => report.ledger_errors.push(format!("read {rel}: {e}")),
        }
    }
    violations.extend(rules::check_dead_pub(&scanned));

    let ledger_path = root.join("crates/lint/lint.ledger");
    let ledger_text = match std::fs::read_to_string(&ledger_path) {
        Ok(t) => t,
        Err(e) => {
            report
                .ledger_errors
                .push(format!("read {}: {e}", ledger_path.display()));
            String::new()
        }
    };
    let (entries, mut errors) = ledger::parse(&ledger_text);
    report.ledger_errors.append(&mut errors);
    for e in &entries {
        if !root.join(&e.file).is_file() {
            report
                .ledger_errors
                .push(format!("ledger entry for missing file: {}", e.file));
        }
    }

    let reconciled = ledger::reconcile(&violations, &entries);
    report.failures = reconciled.unledgered;
    report.grown = reconciled.grown;
    report.stale = reconciled.stale;
    report
}

/// Collect every `.rs` under the `tops` directories, skipping build output
/// and the lint fixture tree (fixtures are deliberately bad).
fn collect_rs_files(root: &Path, tops: &[&str], report: &mut Report) -> Vec<String> {
    let mut files = Vec::new();
    for top in tops {
        walk(&root.join(top), root, &mut files, report);
    }
    files.sort();
    files
}

fn walk(dir: &Path, root: &Path, files: &mut Vec<String>, report: &mut Report) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return, // absent top-level dir is fine (sparse checkout)
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == ".git" {
                continue;
            }
            walk(&path, root, files, report);
        } else if name.ends_with(".rs") {
            match path.strip_prefix(root) {
                Ok(rel) => files.push(rel.to_string_lossy().replace('\\', "/")),
                Err(e) => report
                    .ledger_errors
                    .push(format!("path {}: {e}", path.display())),
            }
        }
    }
}
