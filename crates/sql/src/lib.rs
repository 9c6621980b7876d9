#![forbid(unsafe_code)]
//! # llmsql-sql
//!
//! A hand-written SQL front end: lexer, recursive-descent parser, AST, and a
//! SQL printer that round-trips with the parser — plus the one expression
//! tree every layer shares ([`Expr`], generic over its column reference;
//! [`bound`] is the binder's instantiation) and its one evaluator ([`eval`]).
//!
//! The dialect covers what the paper's workloads need: `SELECT` with joins,
//! grouping, ordering and limits; `CREATE [VIRTUAL] TABLE` with
//! natural-language `COMMENT`s (these feed the prompt builder);
//! `INSERT`/`DROP`/`EXPLAIN`/`DESCRIBE`.
//!
//! ```
//! use llmsql_sql::parse_statement;
//! let stmt = parse_statement("SELECT name FROM countries WHERE population > 50000000").unwrap();
//! assert!(matches!(stmt, llmsql_sql::ast::Statement::Select(_)));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod bound;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod token;

mod display;

pub use ast::{
    AggregateFunc, BinaryOp, ColumnDef, ColumnRef, CreateTableStatement, Expr, InsertStatement,
    JoinKind, OrderByItem, SelectItem, SelectStatement, Statement, TableExpr, UnaryOp,
};
pub use lexer::tokenize;
pub use parser::{parse_expression, parse_script, parse_statement};

#[cfg(test)]
mod proptests {
    use super::*;
    use llmsql_types::Value;
    use proptest::prelude::*;

    /// Random identifiers: bare words, keywords (a column literally named
    /// `in` or `end`) and names with a space or a `"` in them — the last two
    /// kinds only round-trip because the printer quotes them.
    fn arb_ident() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-z][a-z0-9_]{0,6}",
            "[a-zé \"][a-z0-9_ \"]{0,6}",
            Just("order".to_string()),
            Just("End".to_string()),
            Just("first name".to_string()),
        ]
    }

    /// Strategy producing random (simple but representative) expressions.
    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-1000i64..1000).prop_map(|i| Expr::Literal(Value::Int(i))),
            arb_ident().prop_map(|s| Expr::column(&s)),
            "[a-zãéôß日' ]{1,5}".prop_map(|s| Expr::Literal(Value::Text(s))),
            Just(Expr::Literal(Value::Null)),
            Just(Expr::Literal(Value::Bool(true))),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(
                    a,
                    BinaryOp::Plus,
                    b
                )),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(a, BinaryOp::Eq, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(a, BinaryOp::And, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(a, BinaryOp::Lt, b)),
                inner.clone().prop_map(|e| Expr::IsNull {
                    expr: Box::new(e),
                    negated: false
                }),
                (
                    inner.clone(),
                    proptest::collection::vec(inner.clone(), 1..4)
                )
                    .prop_map(|(e, list)| Expr::InList {
                        expr: Box::new(e),
                        list,
                        negated: true
                    }),
            ]
        })
    }

    proptest! {
        /// Printing an expression and parsing it back yields the same tree.
        #[test]
        fn expr_print_parse_roundtrip(e in arb_expr()) {
            let printed = e.to_string();
            let reparsed = parse_expression(&printed)
                .unwrap_or_else(|err| panic!("failed to reparse '{printed}': {err}"));
            prop_assert_eq!(reparsed, e);
        }

        /// The lexer never panics on arbitrary input, ASCII or not.
        #[test]
        fn lexer_never_panics(s in "[ -~éß€日]{0,80}") {
            let _ = tokenize(&s);
        }

        /// The parser never panics on arbitrary input, ASCII or not.
        #[test]
        fn parser_never_panics(s in "[ -~éß€日]{0,80}") {
            let _ = parse_statement(&s);
        }

        /// Statement printing is a fixpoint: print(parse(print(x))) == print(x).
        #[test]
        fn select_print_is_fixpoint(limit in proptest::option::of(0u64..50),
                                    distinct in any::<bool>(),
                                    cols in proptest::collection::vec(arb_ident(), 1..4)) {
            let mut stmt = SelectStatement::empty();
            stmt.distinct = distinct;
            stmt.limit = limit;
            for c in &cols {
                stmt.projection.push(SelectItem::Expr { expr: Expr::column(c), alias: None });
            }
            stmt.from = Some(TableExpr::Table { name: "t".into(), alias: None });
            let sql1 = Statement::Select(Box::new(stmt)).to_string();
            let reparsed = parse_statement(&sql1).unwrap();
            prop_assert_eq!(reparsed.to_string(), sql1);
        }
    }
}
