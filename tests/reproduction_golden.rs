//! The paper's tables (`llmsql_workload::reproduce`) against their committed
//! golden files, one test per table, and the orderings the paper reports,
//! read from the same run's typed cells.
//!
//! Every cell but a timing column is a function of (seed, config), so the
//! golden text repeats exactly in debug and release alike; a PR that moves a
//! number updates the golden in the same change and says why. Regenerate with:
//!
//! ```sh
//! UPDATE_SNAPSHOTS=1 cargo test --test reproduction_golden
//! ```

mod snapshot;

use llmsql_types::Result;
use llmsql_workload::{reproduce, Cell, Report};

/// Build a table and compare its deterministic columns with its golden file.
fn golden(name: &str, table: fn() -> Result<Report>) -> Report {
    let report = table().unwrap();
    snapshot::check(&format!("reproduce_{name}"), &report.golden());
    report
}

fn num(report: &Report, row: usize, header: &str) -> f64 {
    report
        .cell(row, header)
        .and_then(Cell::value)
        .unwrap_or_else(|| panic!("row {row} has no number under {header:?}"))
}

fn text(report: &Report, row: usize, header: &str) -> String {
    report
        .cell(row, header)
        .unwrap_or_else(|| panic!("row {row} has no cell under {header:?}"))
        .to_string()
}

/// The row whose `header` cell reads `label`.
fn row_of(report: &Report, header: &str, label: &str) -> usize {
    (0..report.len())
        .find(|&row| text(report, row, header) == label)
        .unwrap_or_else(|| panic!("no row with {header:?} = {label:?}"))
}

#[test]
fn e1_operator_accuracy() {
    golden("e1_operator_accuracy", reproduce::e1_operator_accuracy);
}

#[test]
fn e2_strategies() {
    let report = golden("e2_strategies", reproduce::e2_strategies);
    // Calls rise full-query < batched < tuple < decomposed.
    let calls: Vec<f64> = [
        "full-query",
        "batched-rows",
        "tuple-at-a-time",
        "decomposed-ops",
    ]
    .iter()
    .map(|strategy| num(&report, row_of(&report, "strategy", strategy), "llm calls"))
    .collect();
    assert!(
        calls.windows(2).all(|w| w[0] < w[1]),
        "calls by strategy: {calls:?}"
    );
}

#[test]
fn e3_cardinality() {
    let report = golden("e3_cardinality", reproduce::e3_cardinality);
    // Tuple-at-a-time pays one enumeration plus one lookup per row while the
    // model lists every row it is asked for.
    let mut checked = 0;
    for row in 0..report.len() {
        let k = num(&report, row, "limit k");
        if text(&report, row, "strategy") == "tuple-at-a-time" && k <= 40.0 {
            assert_eq!(num(&report, row, "llm calls"), k + 1.0, "k = {k}");
            checked += 1;
        }
    }
    assert_eq!(checked, 5);
}

#[test]
fn e4_complexity() {
    golden("e4_complexity", reproduce::e4_complexity);
}

#[test]
fn e5_model_quality() {
    let report = golden("e5_model_quality", reproduce::e5_model_quality);
    // F1 never falls as the model improves, and a perfect model is exact.
    let f1: Vec<f64> = (0..report.len())
        .map(|row| num(&report, row, "F1"))
        .collect();
    assert!(f1.windows(2).all(|w| w[0] <= w[1]), "F1 by quality: {f1:?}");
    let perfect = row_of(&report, "quality q", "1.0");
    assert_eq!(num(&report, perfect, "F1"), 1.0);
}

#[test]
fn e6_hybrid() {
    let report = golden("e6_hybrid", reproduce::e6_hybrid);
    // Once values are missing, filling them from the model beats leaving them
    // NULL.
    let mut checked = 0;
    for row in 0..report.len() {
        let missing = text(&report, row, "missing values");
        if text(&report, row, "mode") != "hybrid" || missing == "0%" {
            continue;
        }
        let traditional = (0..report.len())
            .find(|&r| {
                text(&report, r, "missing values") == missing
                    && text(&report, r, "mode") == "traditional"
            })
            .unwrap();
        let (hybrid_f1, traditional_f1) =
            (num(&report, row, "F1"), num(&report, traditional, "F1"));
        assert!(
            hybrid_f1 > traditional_f1,
            "{missing} missing: hybrid {hybrid_f1} vs traditional {traditional_f1}"
        );
        checked += 1;
    }
    assert_eq!(checked, 4);
}

#[test]
fn e7_cost() {
    golden("e7_cost", reproduce::e7_cost);
}

#[test]
fn e8_engine_overhead() {
    golden("e8_engine_overhead", reproduce::e8_engine_overhead);
}

#[test]
fn e9_ablation() {
    let report = golden("e9_ablation", reproduce::e9_ablation);
    let at =
        |config: &str, header: &str| num(&report, row_of(&report, "configuration", config), header);
    // The optimizer never costs calls or tokens, and the prompt cache cuts
    // tokens.
    for header in ["llm calls", "tokens"] {
        assert!(
            at("optimizer off", header) >= at("all rules on", header),
            "{header}"
        );
    }
    assert!(at("all rules on + prompt cache", "tokens") < at("all rules on", "tokens"));
}
