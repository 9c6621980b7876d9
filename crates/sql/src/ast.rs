//! The SQL abstract syntax tree.
//!
//! The AST is deliberately close to the surface syntax; name resolution and
//! typing happen later in the binder (`llmsql-plan`). Display impls render the
//! tree back to SQL, which the parser round-trips (property-tested).
//!
//! The scalar expression, [`Expr`], is the one tree every layer uses: the
//! binder changes what its column references hold, not the type.

use std::fmt;

use llmsql_types::{DataType, Value};

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(Box<SelectStatement>),
    /// `CREATE [VIRTUAL] TABLE ...`
    CreateTable(CreateTableStatement),
    /// `DROP TABLE [IF EXISTS] name`
    DropTable {
        /// Table to drop.
        name: String,
        /// Whether IF EXISTS was given.
        if_exists: bool,
    },
    /// `INSERT INTO name [(cols)] VALUES (...), (...)`
    Insert(InsertStatement),
    /// `EXPLAIN [ANALYZE] <select>`
    Explain {
        /// The statement being explained.
        statement: Box<Statement>,
        /// Whether ANALYZE was given: execute the statement and report
        /// actual per-operator counters alongside the estimates.
        analyze: bool,
    },
    /// `DESCRIBE table`
    Describe {
        /// Table to describe.
        name: String,
    },
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// Whether DISTINCT was specified.
    pub distinct: bool,
    /// The projection list.
    pub projection: Vec<SelectItem>,
    /// The FROM clause; empty means a single-row constant query.
    pub from: Option<TableExpr>,
    /// WHERE predicate.
    pub selection: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderByItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// OFFSET row count.
    pub offset: Option<u64>,
}

impl SelectStatement {
    /// An empty SELECT used as a builder starting point.
    pub fn empty() -> Self {
        SelectStatement {
            distinct: false,
            projection: vec![],
            from: None,
            selection: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
            offset: None,
        }
    }

    /// True if the projection or HAVING contains an aggregate call, or a
    /// GROUP BY clause is present.
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || self
                .having
                .as_ref()
                .map(|h| h.contains_aggregate())
                .unwrap_or(false)
    }
}

/// One item of the SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// Optional `AS alias`.
        alias: Option<String>,
    },
}

/// A table expression in the FROM clause: a base table or a join tree.
#[derive(Debug, Clone, PartialEq)]
pub enum TableExpr {
    /// A named table with an optional alias.
    Table {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A parenthesized sub-select with an alias.
    Subquery {
        /// The subquery.
        query: Box<SelectStatement>,
        /// Alias naming the derived table.
        alias: String,
    },
    /// A join between two table expressions.
    Join {
        /// Left input.
        left: Box<TableExpr>,
        /// Right input.
        right: Box<TableExpr>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition (None for CROSS joins).
        on: Option<Expr>,
    },
}

impl TableExpr {
    /// The alias (or name) this table expression is known by, when it is a
    /// simple relation.
    pub fn binding_name(&self) -> Option<&str> {
        match self {
            TableExpr::Table { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableExpr::Subquery { alias, .. } => Some(alias),
            TableExpr::Join { .. } => None,
        }
    }

    /// Collect the base-table names referenced anywhere in this expression.
    pub fn base_tables(&self) -> Vec<String> {
        match self {
            TableExpr::Table { name, .. } => vec![name.clone()],
            TableExpr::Subquery { query, .. } => query
                .from
                .as_ref()
                .map(|f| f.base_tables())
                .unwrap_or_default(),
            TableExpr::Join { left, right, .. } => {
                let mut v = left.base_tables();
                v.extend(right.base_tables());
                v
            }
        }
    }

    /// Number of join operators in this tree.
    pub fn join_count(&self) -> usize {
        match self {
            TableExpr::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            _ => 0,
        }
    }
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT OUTER JOIN.
    Left,
    /// RIGHT OUTER JOIN.
    Right,
    /// CROSS JOIN.
    Cross,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "JOIN",
            JoinKind::Left => "LEFT JOIN",
            JoinKind::Right => "RIGHT JOIN",
            JoinKind::Cross => "CROSS JOIN",
        };
        write!(f, "{s}")
    }
}

/// An ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending (default) or descending.
    pub ascending: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Like,
    Concat,
}

impl BinaryOp {
    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Like => "LIKE",
            BinaryOp::Concat => "||",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sql())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AggregateFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggregateFunc {
    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            AggregateFunc::Count => "COUNT",
            AggregateFunc::Sum => "SUM",
            AggregateFunc::Avg => "AVG",
            AggregateFunc::Min => "MIN",
            AggregateFunc::Max => "MAX",
        }
    }

    /// Parse from a (case-insensitive) name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggregateFunc::Count),
            "SUM" => Some(AggregateFunc::Sum),
            "AVG" => Some(AggregateFunc::Avg),
            "MIN" => Some(AggregateFunc::Min),
            "MAX" => Some(AggregateFunc::Max),
            _ => None,
        }
    }
}

impl fmt::Display for AggregateFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sql())
    }
}

/// A column reference as written in SQL text: `t.col` or `col`. What an
/// [`Expr`] holds until the binder resolves names.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    /// Optional table qualifier.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

/// A scalar expression, generic over what a column reference is: a
/// [`ColumnRef`] as parsed, a [`crate::bound::BoundColumn`] once the binder
/// has resolved it, a bare row position for the simulated model. There is
/// one tree, so there is one of each traversal — [`Expr::visit`],
/// [`Expr::try_map_children`], the printer (`Display`) and the evaluator
/// ([`crate::eval::eval`]) — and a construct added here cannot mean one
/// thing to the engine and another to the model.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<C = ColumnRef> {
    /// A literal value.
    Literal(Value),
    /// A column reference.
    Column(C),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr<C>>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr<C>>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr<C>>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr<C>>,
        /// True for IS NOT NULL.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// Operand.
        expr: Box<Expr<C>>,
        /// List items.
        list: Vec<Expr<C>>,
        /// True for NOT IN.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Operand.
        expr: Box<Expr<C>>,
        /// Low bound.
        low: Box<Expr<C>>,
        /// High bound.
        high: Box<Expr<C>>,
        /// True for NOT BETWEEN.
        negated: bool,
    },
    /// An aggregate function call. Only valid underneath an Aggregate plan
    /// node; the scalar evaluator rejects it.
    Aggregate {
        /// Which aggregate.
        func: AggregateFunc,
        /// Argument; `None` encodes `COUNT(*)`.
        arg: Option<Box<Expr<C>>>,
        /// DISTINCT aggregates, e.g. COUNT(DISTINCT x).
        distinct: bool,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Operand.
        expr: Box<Expr<C>>,
        /// Target type.
        data_type: DataType,
    },
    /// `CASE WHEN cond THEN val [WHEN ...] [ELSE val] END`.
    Case {
        /// WHEN/THEN branches.
        branches: Vec<(Expr<C>, Expr<C>)>,
        /// ELSE expression.
        else_expr: Option<Box<Expr<C>>>,
    },
}

impl<C> Expr<C> {
    /// Convenience constructor for a literal.
    pub fn lit(value: impl Into<Value>) -> Self {
        Expr::Literal(value.into())
    }

    /// Convenience constructor for a binary expression.
    pub fn binary(left: Self, op: BinaryOp, right: Self) -> Self {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `self AND other` (convenience).
    pub fn and(self, other: Self) -> Self {
        Expr::binary(self, BinaryOp::And, other)
    }

    /// True if this expression (recursively) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| found |= matches!(e, Expr::Aggregate { .. }));
        found
    }

    /// Visit every node of the expression tree, a node before its children.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Self)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) => {}
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.visit(f);
                }
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.visit(f);
                    v.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
        }
    }

    /// The one structural rebuild: this node with its column reference
    /// replaced by `column(c)` and every child expression by `child(e)`, in
    /// source order, stopping at the first error. It does not recurse — a
    /// caller that wants the whole tree rebuilt calls itself from `child` —
    /// and it may change what a column reference is (`bind_expr` goes from
    /// names to indices through it). `Option` callers use `E = ()`,
    /// infallible ones [`std::convert::Infallible`].
    pub fn try_map_children<D, E>(
        self,
        column: &impl Fn(C) -> Result<Expr<D>, E>,
        mut child: impl FnMut(Expr<C>) -> Result<Expr<D>, E>,
    ) -> Result<Expr<D>, E> {
        Ok(match self {
            Expr::Literal(v) => Expr::Literal(v),
            Expr::Column(c) => return column(c),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(child(*left)?),
                op,
                right: Box::new(child(*right)?),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op,
                expr: Box::new(child(*expr)?),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(child(*expr)?),
                negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(child(*expr)?),
                list: list.into_iter().map(&mut child).collect::<Result<_, E>>()?,
                negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(child(*expr)?),
                low: Box::new(child(*low)?),
                high: Box::new(child(*high)?),
                negated,
            },
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => Expr::Aggregate {
                func,
                arg: arg.map(|a| child(*a).map(Box::new)).transpose()?,
                distinct,
            },
            Expr::Cast { expr, data_type } => Expr::Cast {
                expr: Box::new(child(*expr)?),
                data_type,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .into_iter()
                    .map(|(c, v)| Ok((child(c)?, child(v)?)))
                    .collect::<Result<_, E>>()?,
                else_expr: else_expr.map(|e| child(*e).map(Box::new)).transpose()?,
            },
        })
    }

    /// Rebuild the whole tree with every column reference replaced by
    /// `column(c)`: how names become indices, indices other indices.
    pub fn try_map_columns<D, E>(
        self,
        column: &impl Fn(C) -> Result<Expr<D>, E>,
    ) -> Result<Expr<D>, E> {
        self.try_map_children(column, |e| e.try_map_columns(column))
    }
}

impl Expr {
    /// Convenience constructor for a column reference. (Not `col`: that is
    /// the bound instantiation's constructor, and a bare `Expr::col(..)` path
    /// could not tell the two apart.)
    pub fn column(name: &str) -> Expr {
        Expr::Column(ColumnRef {
            qualifier: None,
            name: name.to_string(),
        })
    }
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Data type.
    pub data_type: DataType,
    /// PRIMARY KEY constraint.
    pub primary_key: bool,
    /// NOT NULL constraint.
    pub not_null: bool,
    /// `COMMENT 'natural language description'`.
    pub comment: Option<String>,
}

/// `CREATE [VIRTUAL] TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStatement {
    /// Table name.
    pub name: String,
    /// Whether the table is virtual (LLM-backed).
    pub virtual_table: bool,
    /// Whether IF NOT EXISTS semantics were requested.
    pub if_not_exists: bool,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
    /// Table-level `COMMENT 'entity description'`.
    pub comment: Option<String>,
}

/// `INSERT INTO`.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStatement {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Vec<String>,
    /// Rows of value expressions.
    pub values: Vec<Vec<Expr>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders() {
        let e = Expr::binary(Expr::column("a"), BinaryOp::Gt, Expr::lit(5i64));
        assert!(matches!(e, Expr::Binary { .. }));
        let conj = Expr::column("x").and(Expr::column("y"));
        assert!(matches!(
            conj,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Aggregate {
            func: AggregateFunc::Sum,
            arg: Some(Box::new(Expr::column("population"))),
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::binary(agg, BinaryOp::Plus, Expr::lit(1i64));
        assert!(nested.contains_aggregate());
        assert!(!Expr::column("a").contains_aggregate());
    }

    #[test]
    fn select_is_aggregate() {
        let mut s = SelectStatement::empty();
        assert!(!s.is_aggregate());
        s.group_by.push(Expr::column("region"));
        assert!(s.is_aggregate());

        let mut s2 = SelectStatement::empty();
        s2.projection.push(SelectItem::Expr {
            expr: Expr::Aggregate {
                func: AggregateFunc::Count,
                arg: None,
                distinct: false,
            },
            alias: None,
        });
        assert!(s2.is_aggregate());
    }

    #[test]
    fn table_expr_helpers() {
        let join = TableExpr::Join {
            left: Box::new(TableExpr::Table {
                name: "a".into(),
                alias: None,
            }),
            right: Box::new(TableExpr::Table {
                name: "b".into(),
                alias: Some("bb".into()),
            }),
            kind: JoinKind::Inner,
            on: None,
        };
        assert_eq!(join.base_tables(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(join.join_count(), 1);
        assert_eq!(join.binding_name(), None);
        let t = TableExpr::Table {
            name: "x".into(),
            alias: Some("y".into()),
        };
        assert_eq!(t.binding_name(), Some("y"));
    }

    #[test]
    fn default_names() {
        use crate::bound::BoundExpr;
        let pop = BoundExpr::col(0, "pop", DataType::Int);
        assert_eq!(pop.default_name(), "pop");
        let agg = BoundExpr::Aggregate {
            func: AggregateFunc::Count,
            arg: None,
            distinct: false,
        };
        assert_eq!(agg.default_name(), "count(*)");
        let sum = BoundExpr::binary(pop, BinaryOp::Plus, BoundExpr::lit(1i64));
        assert_eq!(sum.default_name(), "(pop + 1)");
    }

    #[test]
    fn aggregate_func_parse() {
        assert_eq!(AggregateFunc::parse("sum"), Some(AggregateFunc::Sum));
        assert_eq!(AggregateFunc::parse("median"), None);
    }

    #[test]
    fn binary_op_properties() {
        assert_eq!(BinaryOp::NotEq.sql(), "<>");
    }
}
