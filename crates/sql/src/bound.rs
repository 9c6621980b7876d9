//! Bound (resolved) expressions: [`Expr`] over [`BoundColumn`].
//!
//! The binder (`llmsql-plan`) turns the parser's column names into
//! references that carry the flat input-row index, the resolved name and the
//! data type. The instantiation lives here, beside the tree, because its
//! constructors and typing are inherent methods of `Expr<BoundColumn>`;
//! `llmsql-plan` re-exports it and owns how one is made (`bind_expr`). Bound
//! expressions can be rendered back to SQL text (used when a predicate is
//! pushed down into a prompt) and report their result type.

use std::fmt;

use llmsql_types::{DataType, Error, Result};

use crate::ast::{AggregateFunc, BinaryOp, Expr, UnaryOp};
use crate::display::Ident;

/// A resolved column reference.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundColumn {
    /// Index into the flattened input row.
    pub index: usize,
    /// Column name (for display / prompt rendering).
    pub name: String,
    /// Data type of the column.
    pub data_type: DataType,
}

impl fmt::Display for BoundColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Ident(&self.name))
    }
}

/// An expression with resolved column references.
pub type BoundExpr = Expr<BoundColumn>;

impl Expr<BoundColumn> {
    /// Convenience: a column reference.
    pub fn col(index: usize, name: &str, data_type: DataType) -> BoundExpr {
        Expr::Column(BoundColumn {
            index,
            name: name.to_string(),
            data_type,
        })
    }

    /// The static result type of the expression (best effort).
    pub fn data_type(&self) -> DataType {
        match self {
            Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
            Expr::Column(c) => c.data_type,
            Expr::Binary { left, op, right } => match op {
                BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
                | BinaryOp::Like => DataType::Bool,
                BinaryOp::Concat => DataType::Text,
                BinaryOp::Divide => DataType::Float,
                _ => left.data_type().widen(right.data_type()),
            },
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => DataType::Bool,
                UnaryOp::Neg => expr.data_type(),
            },
            Expr::IsNull { .. } | Expr::InList { .. } | Expr::Between { .. } => DataType::Bool,
            Expr::Cast { data_type, .. } => *data_type,
            Expr::Case {
                branches,
                else_expr,
            } => branches
                .first()
                .map(|(_, v)| v.data_type())
                .or_else(|| else_expr.as_ref().map(|e| e.data_type()))
                .unwrap_or(DataType::Text),
            Expr::Aggregate { func, arg, .. } => match func {
                AggregateFunc::Count => DataType::Int,
                AggregateFunc::Avg => DataType::Float,
                AggregateFunc::Sum | AggregateFunc::Min | AggregateFunc::Max => {
                    arg.as_ref().map(|a| a.data_type()).unwrap_or(DataType::Int)
                }
            },
        }
    }

    /// Indices of all referenced input columns.
    pub fn referenced_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.index);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rewrite column indices through a mapping (used when pushing
    /// expressions through projections or to one side of a join). Returns
    /// `None` when a referenced column is not present in the mapping.
    pub fn remap_columns(&self, map: &impl Fn(usize) -> Option<usize>) -> Option<BoundExpr> {
        let column = |c: BoundColumn| match map(c.index) {
            Some(index) => Ok(Expr::Column(BoundColumn { index, ..c })),
            None => Err(()),
        };
        self.clone().try_map_columns(&column).ok()
    }

    /// Render the expression as SQL text over the referenced column *names*
    /// (used when pushing a predicate into a prompt). Fails if the expression
    /// contains an aggregate.
    pub fn to_sql_text(&self) -> Result<String> {
        if self.contains_aggregate() {
            return Err(Error::plan("cannot push an aggregate into a prompt"));
        }
        Ok(self.to_string())
    }

    /// A default output name for this expression.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column(c) => c.name.clone(),
            Expr::Aggregate { func, arg, .. } => match arg {
                Some(a) => format!("{}({})", func.sql().to_ascii_lowercase(), a.default_name()),
                None => format!("{}(*)", func.sql().to_ascii_lowercase()),
            },
            Expr::Literal(v) => v.to_display_string(),
            other => other.to_string().to_ascii_lowercase(),
        }
    }
}
