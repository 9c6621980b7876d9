//! Rendering the AST back to SQL text.
//!
//! The printer produces canonical SQL that the parser accepts again; the
//! round-trip property (`parse(print(ast)) == ast` modulo literal folding) is
//! checked by property tests in `lib.rs`. Every identifier goes through
//! [`Ident`], so a name the lexer would not read back as one bare word is
//! written quoted.

use std::fmt;

use llmsql_types::Value;

use crate::ast::*;
use crate::lexer::{continues_word, starts_word};
use crate::token::Keyword;

/// An identifier as SQL text. A bare word — what the lexer reads as one
/// word (a letter or `_`, then letters, digits and `_`) and not as a keyword
/// — prints as it is; anything else
/// (`first name`, `order`, an empty name) prints as `"…"` with an inner `"`
/// doubled, which is how the lexer reads a quoted identifier.
pub(crate) struct Ident<'a>(pub(crate) &'a str);

impl fmt::Display for Ident<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.0;
        let mut chars = name.chars();
        let bare = chars.next().is_some_and(starts_word)
            && chars.all(continues_word)
            && Keyword::parse(name).is_none();
        if bare {
            f.write_str(name)
        } else {
            write!(f, "\"{}\"", name.replace('"', "\"\""))
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::CreateTable(c) => write!(f, "{c}"),
            Statement::DropTable { name, if_exists } => {
                write!(f, "DROP TABLE ")?;
                if *if_exists {
                    write!(f, "IF EXISTS ")?;
                }
                write!(f, "{}", Ident(name))
            }
            Statement::Insert(i) => write!(f, "{i}"),
            Statement::Explain { statement, analyze } => {
                write!(f, "EXPLAIN ")?;
                if *analyze {
                    write!(f, "ANALYZE ")?;
                }
                write!(f, "{statement}")
            }
            Statement::Describe { name } => write!(f, "DESCRIBE {}", Ident(name)),
        }
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        if let Some(sel) = &self.selection {
            write!(f, " WHERE {sel}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", o.expr)?;
                if !o.ascending {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = self.offset {
            write!(f, " OFFSET {o}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{}.*", Ident(q)),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {}", Ident(a))?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for TableExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableExpr::Table { name, alias } => {
                write!(f, "{}", Ident(name))?;
                if let Some(a) = alias {
                    write!(f, " AS {}", Ident(a))?;
                }
                Ok(())
            }
            TableExpr::Subquery { query, alias } => write!(f, "({query}) AS {}", Ident(alias)),
            TableExpr::Join {
                left,
                right,
                kind,
                on,
            } => {
                write!(f, "{left} {kind} {right}")?;
                if let Some(on) = on {
                    write!(f, " ON {on}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(q) = &self.qualifier {
            write!(f, "{}.", Ident(q))?;
        }
        write!(f, "{}", Ident(&self.name))
    }
}

/// The one expression printer: the text a statement prints as, and — over
/// bound columns, which print as their bare names — the text of a predicate
/// pushed into a prompt.
impl<C: fmt::Display> fmt::Display for Expr<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => match v {
                Value::Null => write!(f, "NULL"),
                Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
                // The one integer with no literal: its digits overflow before
                // the sign applies, so the lexer would read a float back.
                Value::Int(i64::MIN) => write!(f, "({} - 1)", i64::MIN + 1),
                other => write!(f, "{other}"),
            },
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Binary { left, op, right } => {
                write!(f, "({left} {op} {right})")
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
            },
            Expr::IsNull { expr, negated } => {
                if *negated {
                    write!(f, "({expr} IS NOT NULL)")
                } else {
                    write!(f, "({expr} IS NULL)")
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} ")?;
                if *negated {
                    write!(f, "NOT ")?;
                }
                write!(f, "IN (")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                write!(f, "({expr} ")?;
                if *negated {
                    write!(f, "NOT ")?;
                }
                write!(f, "BETWEEN {low} AND {high})")
            }
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => {
                write!(f, "{func}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                match arg {
                    Some(a) => write!(f, "{a}")?,
                    None => write!(f, "*")?,
                }
                write!(f, ")")
            }
            Expr::Cast { expr, data_type } => write!(f, "CAST({expr} AS {data_type})"),
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (cond, val) in branches {
                    write!(f, " WHEN {cond} THEN {val}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
        }
    }
}

impl fmt::Display for CreateTableStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE ")?;
        if self.virtual_table {
            write!(f, "VIRTUAL ")?;
        }
        write!(f, "TABLE ")?;
        if self.if_not_exists {
            write!(f, "IF NOT EXISTS ")?;
        }
        write!(f, "{} (", Ident(&self.name))?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", Ident(&c.name), c.data_type)?;
            if c.primary_key {
                write!(f, " PRIMARY KEY")?;
            } else if c.not_null {
                write!(f, " NOT NULL")?;
            }
            if let Some(comment) = &c.comment {
                write!(f, " COMMENT '{}'", comment.replace('\'', "''"))?;
            }
        }
        write!(f, ")")?;
        if let Some(comment) = &self.comment {
            write!(f, " COMMENT '{}'", comment.replace('\'', "''"))?;
        }
        Ok(())
    }
}

impl fmt::Display for InsertStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", Ident(&self.table))?;
        if !self.columns.is_empty() {
            write!(f, " (")?;
            for (i, column) in self.columns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", Ident(column))?;
            }
            write!(f, ")")?;
        }
        write!(f, " VALUES ")?;
        for (i, row) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use llmsql_types::Value;

    use crate::ast::{BinaryOp, Expr};
    use crate::parser::{parse_expression, parse_statement};

    fn roundtrip_stmt(sql: &str) {
        let ast1 = parse_statement(sql).unwrap();
        let printed = ast1.to_string();
        let ast2 = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("re-parse of '{printed}' failed: {e}"));
        assert_eq!(ast1, ast2, "printed form: {printed}");
    }

    #[test]
    fn roundtrip_selects() {
        for sql in [
            "SELECT 1",
            "SELECT * FROM countries",
            "SELECT DISTINCT region FROM countries",
            "SELECT name, population FROM countries WHERE population > 50000000 ORDER BY population DESC LIMIT 10",
            "SELECT c.name, ci.name FROM countries AS c JOIN cities AS ci ON ci.country = c.name",
            "SELECT region, COUNT(*) FROM countries GROUP BY region HAVING COUNT(*) > 2",
            "SELECT name FROM countries WHERE region IN ('Europe', 'Asia') AND population BETWEEN 1 AND 2",
            "SELECT name FROM countries WHERE capital IS NOT NULL",
            "SELECT CAST(population AS FLOAT) FROM countries",
            "SELECT CASE WHEN population > 100 THEN 'big' ELSE 'small' END FROM countries",
            "SELECT a.* FROM t AS a",
            "SELECT x FROM (SELECT a AS x FROM t) AS sub WHERE x > 1",
            "SELECT * FROM a CROSS JOIN b",
            "SELECT * FROM a LEFT JOIN b ON a.x = b.x",
            "SELECT COUNT(DISTINCT name) FROM t",
            "SELECT name FROM t WHERE name LIKE 'A%' OFFSET 3",
        ] {
            roundtrip_stmt(sql);
        }
    }

    #[test]
    fn roundtrip_ddl_dml() {
        for sql in [
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT NOT NULL, c FLOAT)",
            "CREATE VIRTUAL TABLE countries (name TEXT PRIMARY KEY COMMENT 'common name', population INTEGER) COMMENT 'countries of the world'",
            "DROP TABLE IF EXISTS t",
            "DROP TABLE t",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
            "INSERT INTO t VALUES (1, TRUE, 2.5)",
            "EXPLAIN SELECT * FROM t",
            "DESCRIBE t",
        ] {
            roundtrip_stmt(sql);
        }
    }

    #[test]
    fn expr_display_parenthesizes() {
        let e = parse_expression("a + b * c").unwrap();
        assert_eq!(e.to_string(), "(a + (b * c))");
        let e = parse_expression("NOT x AND y").unwrap();
        assert_eq!(e.to_string(), "((NOT x) AND y)");
        let e = parse_expression("price BETWEEN 1 AND 10").unwrap();
        assert_eq!(e.to_string(), "(price BETWEEN 1 AND 10)");
    }

    /// Trees built from Rust strings, not from SQL text: a lexer that mangles
    /// a literal mangles it the same way on every parse, so only a tree that
    /// never went through it can tell.
    #[test]
    fn text_outside_ascii_survives_print_parse_print() {
        let cases = [
            (
                Expr::Literal(Value::Text("Côte d'Ivoire".into())),
                "'Côte d''Ivoire'",
            ),
            (Expr::Literal(Value::Text("São Tomé".into())), "'São Tomé'"),
            (
                Expr::binary(
                    Expr::column("Länder"),
                    BinaryOp::Eq,
                    Expr::Literal(Value::Text("日本".into())),
                ),
                "(Länder = '日本')",
            ),
        ];
        for (tree, text) in cases {
            assert_eq!(tree.to_string(), text);
            let reparsed = parse_expression(text).unwrap();
            assert_eq!(reparsed, tree, "{text}");
            assert_eq!(reparsed.to_string(), text);
        }
        // A quoted identifier that is a bare word prints bare and reads back
        // as the same name.
        let quoted = parse_statement(r#"SELECT "Länder" FROM t WHERE "Länder" = 'Åland'"#).unwrap();
        let printed = quoted.to_string();
        assert_eq!(printed, "SELECT Länder FROM t WHERE (Länder = 'Åland')");
        assert_eq!(parse_statement(&printed).unwrap(), quoted);
        assert_eq!(parse_statement(&printed).unwrap().to_string(), printed);
    }

    #[test]
    fn a_name_that_is_not_a_bare_word_prints_quoted() {
        let sql = r#"SELECT "first name", t."order", "say ""hi""" AS "select" FROM "my t" AS t WHERE ("order" > 5)"#;
        let parsed = parse_statement(sql).unwrap();
        assert_eq!(parsed.to_string(), sql);
        assert_eq!(parse_statement(&parsed.to_string()).unwrap(), parsed);
        // Bare words — `_`, digits after the first character, any alphabet —
        // print as they always did.
        for name in ["name", "_x1", "Länder", "birth_year"] {
            assert_eq!(Expr::column(name).to_string(), name);
        }
        for (name, text) in [
            ("", r#""""#),
            ("1st", r#""1st""#),
            ("a-b", r#""a-b""#),
            ("NULL", r#""NULL""#),
        ] {
            assert_eq!(Expr::column(name).to_string(), text);
            assert_eq!(parse_expression(text).unwrap(), Expr::column(name));
        }
    }

    #[test]
    fn string_literals_escape() {
        let e = parse_expression("name = 'it''s'").unwrap();
        assert_eq!(e.to_string(), "(name = 'it''s')");
        roundtrip_stmt("SELECT * FROM t WHERE name = 'it''s'");
    }
}
