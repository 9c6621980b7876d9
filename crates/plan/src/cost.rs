//! The static per-operator cost model.
//!
//! Costs a [`LogicalPlan`] *before execution*: estimated output rows, LLM
//! calls, dollars and latency per operator, from three inputs the engine
//! already keeps — per-call pricing ([`LlmCostModel`], per backend via
//! `BackendSpec`), relation-cardinality hints (`relation_cardinality`), and
//! textbook selectivity heuristics per predicate form. The numbers are
//! deliberately coarse (System-R-style constants, not histograms): their job
//! is to *rank* plans and to flag hazards, and `EXPLAIN ANALYZE` reports the
//! estimated-vs-actual drift so the constants can be audited per query.
//!
//! Only `Scan` nodes of virtual relations spend model calls in this engine
//! (every other operator is native), so the LLM column concentrates there;
//! rows estimates still flow through every operator because they drive the
//! scan estimates of everything downstream of a join.

use std::collections::BTreeMap;

use llmsql_sql::ast::{BinaryOp, JoinKind};
use llmsql_types::{EngineConfig, LlmCostModel};

use crate::expr::{split_conjunction, BoundExpr};
use crate::logical::LogicalPlan;

/// Everything the cost model needs to know about the deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Rows requested per LLM enumeration page.
    pub batch_size: usize,
    /// Hard cap on rows a single virtual-table scan may request.
    pub max_scan_rows: usize,
    /// Per-call pricing and latency of the endpoint (for multi-backend
    /// deployments, pass the cheapest backend's model for a lower bound or
    /// the default model for the blended estimate).
    pub cost_model: LlmCostModel,
    /// Fallback cardinality for a relation with no hint.
    pub default_rows: u64,
    /// Known relation cardinalities, by table name (from
    /// `LanguageModel::relation_cardinality` or the catalog).
    pub cardinality_hints: BTreeMap<String, u64>,
}

impl CostParams {
    /// Derive parameters from an engine configuration. Cardinality hints
    /// start empty; add them with [`CostParams::with_hint`].
    pub fn from_config(config: &EngineConfig) -> Self {
        CostParams {
            batch_size: config.batch_size.max(1),
            max_scan_rows: config.max_scan_rows.max(1),
            cost_model: config.cost_model,
            default_rows: config.max_scan_rows.max(1) as u64,
            cardinality_hints: BTreeMap::new(),
        }
    }

    /// Builder-style: record that `table` holds `rows` rows.
    pub fn with_hint(mut self, table: impl Into<String>, rows: u64) -> Self {
        self.cardinality_hints.insert(table.into(), rows);
        self
    }

    /// Estimated base cardinality of a relation: its hint, or the fallback.
    fn cardinality(&self, table: &str) -> u64 {
        self.cardinality_hints
            .get(table)
            .copied()
            .unwrap_or(self.default_rows)
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::from_config(&EngineConfig::default())
    }
}

/// Estimated cost of one operator (exclusive of its children except for
/// `rows_out`, which is this operator's own output estimate).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OperatorCost {
    /// Estimated rows this operator emits.
    pub rows_out: f64,
    /// Estimated LLM calls this operator itself issues.
    pub llm_calls: u64,
    /// Estimated spend of those calls, dollars.
    pub usd: f64,
    /// Estimated wall time of those calls under sequential dispatch,
    /// milliseconds (an upper bound: `parallelism > 1` divides it).
    pub latency_ms: f64,
}

/// One costed plan node, identified by its pre-order path (root = `"0"`,
/// the i-th child of `p` = `"p.i"` — the same scheme the executor uses for
/// its per-operator actuals, so estimates and actuals join on this key).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCost {
    /// Pre-order path of the node.
    pub path: String,
    /// Operator name (matches the `ExecMetrics::operators` keys).
    pub operator: &'static str,
    /// The estimate.
    pub cost: OperatorCost,
}

/// The costed plan: per-node estimates in pre-order plus plan-wide totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanCost {
    /// Per-node costs, in the same pre-order as `LogicalPlan::explain`.
    pub nodes: Vec<NodeCost>,
    /// Plan totals: summed calls/usd/latency; `rows_out` is the root's.
    pub total: OperatorCost,
}

impl PlanCost {
    /// Look up a node's cost by its pre-order path.
    pub fn get(&self, path: &str) -> Option<&NodeCost> {
        self.nodes.iter().find(|n| n.path == path)
    }
}

/// The operator name of a plan node, matching `ExecMetrics::operators` keys.
pub fn operator_name(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "Scan",
        LogicalPlan::Values { .. } => "Values",
        LogicalPlan::Filter { .. } => "Filter",
        LogicalPlan::Project { .. } => "Project",
        LogicalPlan::Join { .. } => "Join",
        LogicalPlan::Aggregate { .. } => "Aggregate",
        LogicalPlan::Sort { .. } => "Sort",
        LogicalPlan::Limit { .. } => "Limit",
        LogicalPlan::Distinct { .. } => "Distinct",
    }
}

/// Cost a whole plan.
pub fn cost_plan(plan: &LogicalPlan, params: &CostParams) -> PlanCost {
    let mut nodes = Vec::with_capacity(plan.node_count());
    let root = cost_node(plan, params, "0", &mut nodes);
    let mut total = OperatorCost {
        rows_out: root.rows_out,
        ..OperatorCost::default()
    };
    for n in &nodes {
        total.llm_calls += n.cost.llm_calls;
        total.usd += n.cost.usd;
        total.latency_ms += n.cost.latency_ms;
    }
    PlanCost { nodes, total }
}

fn cost_node(
    plan: &LogicalPlan,
    params: &CostParams,
    path: &str,
    out: &mut Vec<NodeCost>,
) -> OperatorCost {
    // Reserve this node's pre-order slot before descending.
    let slot = out.len();
    out.push(NodeCost {
        path: path.to_string(),
        operator: operator_name(plan),
        cost: OperatorCost::default(),
    });
    let child_costs: Vec<OperatorCost> = plan
        .children()
        .iter()
        .enumerate()
        .map(|(i, c)| cost_node(c, params, &format!("{path}.{i}"), out))
        .collect();

    let cost = match plan {
        LogicalPlan::Scan {
            table,
            table_schema,
            pushed_filter,
            prompt_columns,
            virtual_table,
            pushed_limit,
            ..
        } => {
            let rows = estimate_scan_rows(
                params.cardinality(table),
                params.max_scan_rows,
                pushed_filter.as_ref(),
                *pushed_limit,
            );
            if !virtual_table {
                OperatorCost {
                    rows_out: rows,
                    ..OperatorCost::default()
                }
            } else {
                let batch = params.batch_size as f64;
                let calls = (rows / batch).ceil().max(1.0) as u64;
                let ncols = prompt_columns
                    .as_ref()
                    .map(Vec::len)
                    .unwrap_or(table_schema.arity());
                // Rough token heuristics: a fixed prompt preamble, ~10
                // tokens per requested column name/description, ~8 per
                // filter conjunct rendered into the prompt; completions run
                // ~6 tokens per cell. Coarse on purpose — see module docs.
                let conjuncts = pushed_filter
                    .as_ref()
                    .map(|f| split_conjunction(f).len())
                    .unwrap_or(0);
                let prompt_tokens = 30 + 10 * ncols + 8 * conjuncts;
                let rows_per_call = rows / calls as f64;
                let completion_tokens = (rows_per_call * ncols as f64 * 6.0).ceil() as usize;
                OperatorCost {
                    rows_out: rows,
                    llm_calls: calls,
                    usd: calls as f64
                        * params
                            .cost_model
                            .request_cost_usd(prompt_tokens, completion_tokens),
                    latency_ms: calls as f64
                        * params.cost_model.request_latency_ms(completion_tokens),
                }
            }
        }
        LogicalPlan::Values { rows, .. } => OperatorCost {
            rows_out: rows.len() as f64,
            ..OperatorCost::default()
        },
        LogicalPlan::Filter { predicate, .. } => OperatorCost {
            rows_out: child_costs[0].rows_out * estimate_selectivity(predicate),
            ..OperatorCost::default()
        },
        LogicalPlan::Project { .. } => OperatorCost {
            rows_out: child_costs[0].rows_out,
            ..OperatorCost::default()
        },
        LogicalPlan::Join { kind, on, .. } => {
            let l = child_costs[0].rows_out;
            let r = child_costs[1].rows_out;
            let est = match on {
                // ON-less / CROSS: the full Cartesian product.
                None => l * r,
                Some(on) if has_equi_conjunct(on) => {
                    // Equi join: assume the larger side carries the join key
                    // as (near-)unique — classic |L|*|R| / max(|L|,|R|).
                    l * r / l.max(r).max(1.0)
                }
                Some(on) => l * r * estimate_selectivity(on),
            };
            let rows = match kind {
                JoinKind::Left => est.max(l),
                JoinKind::Right => est.max(r),
                JoinKind::Inner | JoinKind::Cross => est,
            };
            OperatorCost {
                rows_out: rows,
                ..OperatorCost::default()
            }
        }
        LogicalPlan::Aggregate { group_exprs, .. } => OperatorCost {
            rows_out: if group_exprs.is_empty() {
                1.0
            } else {
                // Square-root rule of thumb for the number of groups.
                child_costs[0].rows_out.sqrt().ceil().max(1.0)
            },
            ..OperatorCost::default()
        },
        LogicalPlan::Sort { .. } => OperatorCost {
            rows_out: child_costs[0].rows_out,
            ..OperatorCost::default()
        },
        LogicalPlan::Limit { limit, offset, .. } => {
            let input = child_costs[0].rows_out;
            let after_offset = (input - *offset as f64).max(0.0);
            OperatorCost {
                rows_out: match limit {
                    Some(l) => after_offset.min(*l as f64),
                    None => after_offset,
                },
                ..OperatorCost::default()
            }
        }
        LogicalPlan::Distinct { .. } => OperatorCost {
            // Assume moderate duplication.
            rows_out: (child_costs[0].rows_out * 0.5).max(1.0),
            ..OperatorCost::default()
        },
    };
    out[slot].cost = cost;
    cost
}

// ---------------------------------------------------------------------------
// Selectivity heuristics
// ---------------------------------------------------------------------------

/// Estimated rows a scan emits: the relation's cardinality capped by
/// `max_scan_rows` (a scan never requests more), thinned by the pushed
/// filter's selectivity and capped by the pushed LIMIT. This is a scan's
/// `rows_out` in [`cost_plan`] — the number EXPLAIN prints — and the number
/// the executor's paged scan sizes its first dispatch window from (`W₀`, in
/// pages), so the two cannot drift. Against an exact estimate, an
/// underestimate costs that scan at most one round trip (once the answers
/// pass the estimate, the window opens to the fanout) and an overestimate
/// at most the estimated pages − 1 calls past the relation's end.
pub fn estimate_scan_rows(
    cardinality: u64,
    max_scan_rows: usize,
    pushed_filter: Option<&BoundExpr>,
    pushed_limit: Option<usize>,
) -> f64 {
    let base = cardinality.min(max_scan_rows as u64) as f64;
    let rows = base * pushed_filter.map_or(1.0, estimate_selectivity);
    pushed_limit.map_or(rows, |limit| rows.min(limit as f64))
}

/// Estimated fraction of rows a predicate keeps, in `[0.001, 1.0]` (the
/// floor keeps downstream estimates from collapsing to zero — a plan still
/// pays at least one page per scan). Conjunctions multiply; the per-form
/// constants are the System-R classics.
pub fn estimate_selectivity(predicate: &BoundExpr) -> f64 {
    let sel: f64 = split_conjunction(predicate)
        .iter()
        .map(conjunct_selectivity)
        .product();
    sel.clamp(0.001, 1.0)
}

fn conjunct_selectivity(expr: &BoundExpr) -> f64 {
    match expr {
        BoundExpr::Literal(v) => match v.as_bool() {
            Some(true) => 1.0,
            Some(false) => 0.001,
            None => 0.5,
        },
        BoundExpr::Binary { op, .. } => match op {
            BinaryOp::Eq => 0.1,
            BinaryOp::NotEq => 0.9,
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => 0.33,
            BinaryOp::Like => 0.25,
            BinaryOp::Or => {
                // Union bound via inclusion-exclusion on the two sides.
                if let BoundExpr::Binary { left, right, .. } = expr {
                    let l = conjunct_selectivity(left);
                    let r = conjunct_selectivity(right);
                    (l + r - l * r).clamp(0.0, 1.0)
                } else {
                    0.5
                }
            }
            BinaryOp::And => estimate_selectivity(expr),
            _ => 0.5,
        },
        BoundExpr::Unary { .. } => 0.5,
        BoundExpr::IsNull { negated, .. } => {
            if *negated {
                0.9
            } else {
                0.1
            }
        }
        BoundExpr::InList { list, negated, .. } => {
            let s = (0.1 * list.len() as f64).min(1.0);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        BoundExpr::Between { negated, .. } => {
            if *negated {
                0.75
            } else {
                0.25
            }
        }
        _ => 0.5,
    }
}

/// Relative evaluation weight of a conjunct (drives
/// [`crate::rules::llm_conjunct_reorder`]): expression size, with LIKE
/// counted heavier than plain comparisons.
pub fn conjunct_weight(expr: &BoundExpr) -> f64 {
    let mut weight = 0.0;
    expr.visit(&mut |e| {
        weight += match e {
            BoundExpr::Binary {
                op: BinaryOp::Like, ..
            } => 4.0,
            _ => 1.0,
        };
    });
    weight
}

fn has_equi_conjunct(on: &BoundExpr) -> bool {
    split_conjunction(on).iter().any(|c| {
        matches!(
            c,
            BoundExpr::Binary {
                op: BinaryOp::Eq,
                left,
                right,
            } if matches!(left.as_ref(), BoundExpr::Column(_))
                && matches!(right.as_ref(), BoundExpr::Column(_))
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::{Column, DataType, RelSchema, Schema};

    fn scan(virtual_table: bool, filter: Option<BoundExpr>, limit: Option<usize>) -> LogicalPlan {
        let table_schema = Schema::new(
            "t",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("x", DataType::Int),
                Column::new("y", DataType::Text),
            ],
        );
        LogicalPlan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema: RelSchema::from_table(&table_schema, "t"),
            table_schema,
            pushed_filter: filter,
            prompt_columns: None,
            virtual_table,
            pushed_limit: limit,
        }
    }

    fn gt(index: usize) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::col(index, "x", DataType::Int)),
            op: BinaryOp::Gt,
            right: Box::new(BoundExpr::lit(5i64)),
        }
    }

    #[test]
    fn pushed_filter_cuts_calls_and_dollars() {
        let params = CostParams::default().with_hint("t", 1000);
        let unfiltered = cost_plan(&scan(true, None, None), &params);
        let filtered = cost_plan(&scan(true, Some(gt(1)), None), &params);
        assert!(filtered.total.llm_calls < unfiltered.total.llm_calls);
        assert!(filtered.total.usd < unfiltered.total.usd);
        assert!(filtered.total.rows_out < unfiltered.total.rows_out);
    }

    #[test]
    fn materialized_scans_are_free() {
        let params = CostParams::default().with_hint("t", 1000);
        let c = cost_plan(&scan(false, None, None), &params);
        assert_eq!(c.total.llm_calls, 0);
        assert_eq!(c.total.usd, 0.0);
        assert_eq!(c.total.rows_out, 1000.0);
    }

    #[test]
    fn cardinality_hint_caps_at_max_scan_rows() {
        let params = CostParams::default().with_hint("t", 1_000_000);
        let c = cost_plan(&scan(true, None, None), &params);
        assert!(c.total.rows_out <= params.max_scan_rows as f64);
    }

    #[test]
    fn pushed_limit_caps_rows_and_calls() {
        let params = CostParams::default().with_hint("t", 1000);
        let c = cost_plan(&scan(true, None, Some(10)), &params);
        assert_eq!(c.total.rows_out, 10.0);
        assert_eq!(c.total.llm_calls, 1);
    }

    #[test]
    fn node_paths_are_preorder() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(true, None, None)),
                predicate: gt(1),
            }),
            limit: Some(5),
            offset: 0,
        };
        let c = cost_plan(&plan, &CostParams::default());
        let paths: Vec<&str> = c.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(paths, vec!["0", "0.0", "0.0.0"]);
        assert_eq!(c.get("0").map(|n| n.operator), Some("Limit"));
        assert_eq!(c.get("0.0.0").map(|n| n.operator), Some("Scan"));
    }

    #[test]
    fn selectivity_forms_are_ordered_sensibly() {
        let eq = BoundExpr::Binary {
            left: Box::new(BoundExpr::col(0, "x", DataType::Int)),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::lit(1i64)),
        };
        assert!(estimate_selectivity(&eq) < estimate_selectivity(&gt(0)));
        // Conjunctions multiply.
        let both = BoundExpr::Binary {
            left: Box::new(eq.clone()),
            op: BinaryOp::And,
            right: Box::new(gt(0)),
        };
        assert!(estimate_selectivity(&both) < estimate_selectivity(&eq));
    }
}
