//! Recursive-descent SQL parser.
//!
//! Grammar (informal):
//!
//! ```text
//! statement   := select | create | drop | insert | explain | describe
//! select      := SELECT [DISTINCT] items [FROM table_expr] [WHERE expr]
//!                [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
//!                [LIMIT n] [OFFSET n]
//! table_expr  := table_factor { join_clause }
//! join_clause := [INNER|LEFT [OUTER]|RIGHT [OUTER]|CROSS] JOIN table_factor [ON expr]
//! expr        := Pratt-parsed with precedence:
//!                OR < AND < NOT < comparison/IS/IN/BETWEEN/LIKE < +- < */% < unary < primary
//! ```

use llmsql_types::{DataType, Error, Result, Value};

use crate::ast::*;
use crate::lexer::tokenize;
use crate::token::{Keyword, SpannedToken, Token};

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut parser = Parser::new(sql)?;
    let stmt = parser.parse_statement()?;
    parser.expect_end()?;
    Ok(stmt)
}

/// Parse a script of semicolon-separated statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut parser = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        parser.skip_semicolons();
        if parser.peek().is_keyword_eof() {
            break;
        }
        out.push(parser.parse_statement()?);
        if !parser.consume_token(&Token::Semicolon) {
            break;
        }
    }
    parser.expect_end()?;
    Ok(out)
}

/// Parse a standalone scalar expression (used in tests and by the workload
/// query generators).
pub fn parse_expression(sql: &str) -> Result<Expr> {
    let mut parser = Parser::new(sql)?;
    let expr = parser.parse_expr()?;
    parser.expect_end()?;
    Ok(expr)
}

trait TokenExt {
    fn is_keyword_eof(&self) -> bool;
}
impl TokenExt for Token {
    fn is_keyword_eof(&self) -> bool {
        matches!(self, Token::Eof)
    }
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Self> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].token
    }

    fn peek_at(&self, ahead: usize) -> &Token {
        let idx = (self.pos + ahead).min(self.tokens.len() - 1);
        &self.tokens[idx].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].offset
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .token
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn consume_token(&mut self, tok: &Token) -> bool {
        if self.peek() == tok {
            self.advance();
            true
        } else {
            false
        }
    }

    fn consume_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        if self.consume_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("{kw:?}").to_uppercase()))
        }
    }

    fn expect_token(&mut self, tok: Token) -> Result<()> {
        if self.consume_token(&tok) {
            Ok(())
        } else {
            Err(self.unexpected(&tok.describe()))
        }
    }

    fn unexpected(&self, expected: &str) -> Error {
        Error::parse(format!(
            "expected {expected}, found {}",
            self.peek().describe()
        ))
        .at(self.offset())
    }

    fn expect_end(&mut self) -> Result<()> {
        self.skip_semicolons();
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(self.unexpected("end of statement"))
        }
    }

    fn skip_semicolons(&mut self) {
        while self.consume_token(&Token::Semicolon) {}
    }

    fn parse_identifier(&mut self) -> Result<String> {
        match self.peek().clone() {
            Token::Ident(name) => {
                self.advance();
                Ok(name)
            }
            // Allow a handful of non-reserved keywords to be used as
            // identifiers (aggregate names, KEY, COMMENT ...).
            Token::Keyword(kw)
                if matches!(
                    kw,
                    Keyword::Count
                        | Keyword::Sum
                        | Keyword::Avg
                        | Keyword::Min
                        | Keyword::Max
                        | Keyword::Key
                        | Keyword::Comment
                        | Keyword::Virtual
                ) =>
            {
                self.advance();
                Ok(format!("{kw:?}").to_ascii_lowercase())
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement> {
        match self.peek().clone() {
            Token::Keyword(Keyword::Select) => {
                Ok(Statement::Select(Box::new(self.parse_select()?)))
            }
            Token::Keyword(Keyword::Create) => self.parse_create_table(),
            Token::Keyword(Keyword::Drop) => self.parse_drop_table(),
            Token::Keyword(Keyword::Insert) => self.parse_insert(),
            Token::Keyword(Keyword::Explain) => {
                self.advance();
                let analyze = self.consume_keyword(Keyword::Analyze);
                let inner = self.parse_statement()?;
                Ok(Statement::Explain {
                    statement: Box::new(inner),
                    analyze,
                })
            }
            Token::Keyword(Keyword::Describe) => {
                self.advance();
                let name = self.parse_identifier()?;
                Ok(Statement::Describe { name })
            }
            _ => Err(self.unexpected("a statement (SELECT, CREATE, DROP, INSERT, EXPLAIN)")),
        }
    }

    fn parse_select(&mut self) -> Result<SelectStatement> {
        self.expect_keyword(Keyword::Select)?;
        let mut stmt = SelectStatement::empty();
        stmt.distinct = self.consume_keyword(Keyword::Distinct);
        if !stmt.distinct {
            self.consume_keyword(Keyword::All);
        }

        loop {
            stmt.projection.push(self.parse_select_item()?);
            if !self.consume_token(&Token::Comma) {
                break;
            }
        }

        if self.consume_keyword(Keyword::From) {
            stmt.from = Some(self.parse_table_expr()?);
        }
        if self.consume_keyword(Keyword::Where) {
            stmt.selection = Some(self.parse_expr()?);
        }
        if self.consume_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                stmt.group_by.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.consume_keyword(Keyword::Having) {
            stmt.having = Some(self.parse_expr()?);
        }
        if self.consume_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let ascending = if self.consume_keyword(Keyword::Desc) {
                    false
                } else {
                    self.consume_keyword(Keyword::Asc);
                    true
                };
                stmt.order_by.push(OrderByItem { expr, ascending });
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.consume_keyword(Keyword::Limit) {
            stmt.limit = Some(self.parse_unsigned()?);
        }
        if self.consume_keyword(Keyword::Offset) {
            stmt.offset = Some(self.parse_unsigned()?);
        }
        Ok(stmt)
    }

    fn parse_unsigned(&mut self) -> Result<u64> {
        match self.peek().clone() {
            Token::Integer(i) if i >= 0 => {
                self.advance();
                Ok(i as u64)
            }
            _ => Err(self.unexpected("a non-negative integer")),
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.consume_token(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* form
        if let (Token::Ident(name), Token::Dot, Token::Star) = (
            self.peek().clone(),
            self.peek_at(1).clone(),
            self.peek_at(2).clone(),
        ) {
            self.advance();
            self.advance();
            self.advance();
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.parse_expr()?;
        let alias = if self.consume_keyword(Keyword::As) {
            Some(self.parse_identifier()?)
        } else if let Token::Ident(_) = self.peek() {
            Some(self.parse_identifier()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_expr(&mut self) -> Result<TableExpr> {
        let mut left = self.parse_table_factor()?;
        loop {
            let kind = if self.consume_keyword(Keyword::Cross) {
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Cross)
            } else if self.consume_keyword(Keyword::Inner) {
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Inner)
            } else if self.consume_keyword(Keyword::Left) {
                self.consume_keyword(Keyword::Outer);
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Left)
            } else if self.consume_keyword(Keyword::Right) {
                self.consume_keyword(Keyword::Outer);
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Right)
            } else if self.consume_keyword(Keyword::Join) {
                Some(JoinKind::Inner)
            } else {
                None
            };
            let Some(kind) = kind else { break };
            let right = self.parse_table_factor()?;
            let on = if kind != JoinKind::Cross {
                self.expect_keyword(Keyword::On)?;
                Some(self.parse_expr()?)
            } else {
                None
            };
            left = TableExpr::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(left)
    }

    fn parse_table_factor(&mut self) -> Result<TableExpr> {
        if self.consume_token(&Token::LParen) {
            // subquery
            let query = self.parse_select()?;
            self.expect_token(Token::RParen)?;
            self.consume_keyword(Keyword::As);
            let alias = self.parse_identifier()?;
            return Ok(TableExpr::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.parse_identifier()?;
        let alias = if self.consume_keyword(Keyword::As) {
            Some(self.parse_identifier()?)
        } else if let Token::Ident(_) = self.peek() {
            Some(self.parse_identifier()?)
        } else {
            None
        };
        Ok(TableExpr::Table { name, alias })
    }

    fn parse_create_table(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Create)?;
        let virtual_table = self.consume_keyword(Keyword::Virtual);
        self.expect_keyword(Keyword::Table)?;
        let if_not_exists = if self.consume_keyword(Keyword::If) {
            self.expect_keyword(Keyword::Not)?;
            self.expect_keyword(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.parse_identifier()?;
        self.expect_token(Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.parse_identifier()?;
            let type_name = self.parse_identifier()?;
            let data_type = DataType::parse(&type_name)
                .ok_or_else(|| Error::parse(format!("unknown data type '{type_name}'")))?;
            let mut def = ColumnDef {
                name: col_name,
                data_type,
                primary_key: false,
                not_null: false,
                comment: None,
            };
            loop {
                if self.consume_keyword(Keyword::Primary) {
                    self.expect_keyword(Keyword::Key)?;
                    def.primary_key = true;
                    def.not_null = true;
                } else if self.consume_keyword(Keyword::Not) {
                    self.expect_keyword(Keyword::Null)?;
                    def.not_null = true;
                } else if self.consume_keyword(Keyword::Comment) {
                    match self.advance() {
                        Token::String(s) => def.comment = Some(s),
                        _ => return Err(self.unexpected("a string literal after COMMENT")),
                    }
                } else {
                    break;
                }
            }
            columns.push(def);
            if !self.consume_token(&Token::Comma) {
                break;
            }
        }
        self.expect_token(Token::RParen)?;
        let comment = if self.consume_keyword(Keyword::Comment) {
            match self.advance() {
                Token::String(s) => Some(s),
                _ => return Err(self.unexpected("a string literal after COMMENT")),
            }
        } else {
            None
        };
        Ok(Statement::CreateTable(CreateTableStatement {
            name,
            virtual_table,
            if_not_exists,
            columns,
            comment,
        }))
    }

    fn parse_drop_table(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Drop)?;
        self.expect_keyword(Keyword::Table)?;
        let if_exists = if self.consume_keyword(Keyword::If) {
            self.expect_keyword(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.parse_identifier()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Insert)?;
        self.expect_keyword(Keyword::Into)?;
        let table = self.parse_identifier()?;
        let mut columns = Vec::new();
        if self.consume_token(&Token::LParen) {
            loop {
                columns.push(self.parse_identifier()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(Token::RParen)?;
        }
        self.expect_keyword(Keyword::Values)?;
        let mut values = Vec::new();
        loop {
            self.expect_token(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(Token::RParen)?;
            values.push(row);
            if !self.consume_token(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(InsertStatement {
            table,
            columns,
            values,
        }))
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.consume_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.consume_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.consume_keyword(Keyword::Not) {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.consume_keyword(Keyword::Is) {
            let negated = self.consume_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        // [NOT] IN / BETWEEN / LIKE
        let negated = if self.peek().is_keyword(Keyword::Not)
            && (self.peek_at(1).is_keyword(Keyword::In)
                || self.peek_at(1).is_keyword(Keyword::Between)
                || self.peek_at(1).is_keyword(Keyword::Like))
        {
            self.advance();
            true
        } else {
            false
        };

        if self.consume_keyword(Keyword::In) {
            self.expect_token(Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.consume_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.consume_keyword(Keyword::Like) {
            let pattern = self.parse_additive()?;
            let like = Expr::binary(left, BinaryOp::Like, pattern);
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(like),
                }
            } else {
                like
            });
        }
        if negated {
            return Err(self.unexpected("IN, BETWEEN or LIKE after NOT"));
        }

        let op = match self.peek() {
            Token::Eq => Some(BinaryOp::Eq),
            Token::NotEq => Some(BinaryOp::NotEq),
            Token::Lt => Some(BinaryOp::Lt),
            Token::LtEq => Some(BinaryOp::LtEq),
            Token::Gt => Some(BinaryOp::Gt),
            Token::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => Some(BinaryOp::Plus),
                Token::Minus => Some(BinaryOp::Minus),
                Token::Concat => Some(BinaryOp::Concat),
                _ => None,
            };
            let Some(op) = op else { break };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => Some(BinaryOp::Multiply),
                Token::Slash => Some(BinaryOp::Divide),
                Token::Percent => Some(BinaryOp::Modulo),
                _ => None,
            };
            let Some(op) = op else { break };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.consume_token(&Token::Minus) {
            let inner = self.parse_unary()?;
            // Fold negation of literals immediately so `-5` is a literal.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.consume_token(&Token::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Token::Integer(i) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(i)))
            }
            Token::Float(f) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(f)))
            }
            Token::String(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Text(s)))
            }
            Token::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Value::Null))
            }
            Token::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Token::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Token::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect_token(Token::RParen)?;
                Ok(e)
            }
            Token::Keyword(Keyword::Cast) => {
                self.advance();
                self.expect_token(Token::LParen)?;
                let inner = self.parse_expr()?;
                self.expect_keyword(Keyword::As)?;
                let type_name = self.parse_identifier()?;
                let data_type = DataType::parse(&type_name)
                    .ok_or_else(|| Error::parse(format!("unknown data type '{type_name}'")))?;
                self.expect_token(Token::RParen)?;
                Ok(Expr::Cast {
                    expr: Box::new(inner),
                    data_type,
                })
            }
            Token::Keyword(Keyword::Case) => self.parse_case(),
            Token::Keyword(kw)
                if matches!(
                    kw,
                    Keyword::Count | Keyword::Sum | Keyword::Avg | Keyword::Min | Keyword::Max
                ) =>
            {
                self.parse_aggregate_or_column(kw)
            }
            Token::Ident(_) => self.parse_column_ref(),
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_keyword(Keyword::Case)?;
        let mut branches = Vec::new();
        while self.consume_keyword(Keyword::When) {
            let cond = self.parse_expr()?;
            self.expect_keyword(Keyword::Then)?;
            let val = self.parse_expr()?;
            branches.push((cond, val));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let else_expr = if self.consume_keyword(Keyword::Else) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword(Keyword::End)?;
        Ok(Expr::Case {
            branches,
            else_expr,
        })
    }

    fn parse_aggregate_or_column(&mut self, kw: Keyword) -> Result<Expr> {
        // An aggregate keyword followed by '(' is a call; otherwise treat the
        // word as a plain column name (e.g. a column named "count").
        if !matches!(self.peek_at(1), Token::LParen) {
            return self.parse_column_ref();
        }
        self.advance(); // keyword
        self.advance(); // (
        let func = AggregateFunc::parse(&format!("{kw:?}"))
            .ok_or_else(|| Error::parse(format!("unknown aggregate function '{kw:?}'")))?;
        let distinct = self.consume_keyword(Keyword::Distinct);
        let arg = if self.consume_token(&Token::Star) {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        self.expect_token(Token::RParen)?;
        Ok(Expr::Aggregate {
            func,
            arg,
            distinct,
        })
    }

    fn parse_column_ref(&mut self) -> Result<Expr> {
        let first = self.parse_identifier()?;
        if self.consume_token(&Token::Dot) {
            let second = self.parse_identifier()?;
            Ok(Expr::Column(ColumnRef {
                qualifier: Some(first),
                name: second,
            }))
        } else {
            Ok(Expr::Column(ColumnRef {
                qualifier: None,
                name: first,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStatement {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => *s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT name, capital FROM countries");
        assert_eq!(s.projection.len(), 2);
        assert!(matches!(
            s.from,
            Some(TableExpr::Table { ref name, .. }) if name == "countries"
        ));
        assert!(s.selection.is_none());
    }

    #[test]
    fn select_star_and_qualified_star() {
        let s = sel("SELECT * FROM t");
        assert_eq!(s.projection, vec![SelectItem::Wildcard]);
        let s = sel("SELECT t.* FROM t");
        assert_eq!(
            s.projection,
            vec![SelectItem::QualifiedWildcard("t".into())]
        );
    }

    #[test]
    fn where_precedence() {
        let s = sel("SELECT a FROM t WHERE a > 1 AND b < 2 OR c = 3");
        // OR is the top-level operator
        match s.selection.unwrap() {
            Expr::Binary { op, .. } => assert_eq!(op, BinaryOp::Or),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary { op, right, .. } => {
                assert_eq!(op, BinaryOp::Plus);
                assert!(matches!(
                    *right,
                    Expr::Binary {
                        op: BinaryOp::Multiply,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(
            parse_expression("-5").unwrap(),
            Expr::Literal(Value::Int(-5))
        );
        assert_eq!(
            parse_expression("-2.5").unwrap(),
            Expr::Literal(Value::Float(-2.5))
        );
        assert!(matches!(
            parse_expression("-x").unwrap(),
            Expr::Unary {
                op: UnaryOp::Neg,
                ..
            }
        ));
    }

    #[test]
    fn aliases() {
        let s = sel("SELECT population AS pop, name n FROM countries c");
        match &s.projection[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("pop")),
            _ => panic!(),
        }
        match &s.projection[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("n")),
            _ => panic!(),
        }
        assert_eq!(s.from.unwrap().binding_name(), Some("c"));
    }

    #[test]
    fn joins() {
        let s = sel(
            "SELECT * FROM countries c JOIN cities ci ON c.name = ci.country \
             LEFT JOIN rivers r ON r.country = c.name",
        );
        let from = s.from.unwrap();
        assert_eq!(from.join_count(), 2);
        assert_eq!(
            from.base_tables(),
            vec![
                "countries".to_string(),
                "cities".to_string(),
                "rivers".to_string()
            ]
        );
    }

    #[test]
    fn cross_join_has_no_on() {
        let s = sel("SELECT * FROM a CROSS JOIN b");
        match s.from.unwrap() {
            TableExpr::Join { kind, on, .. } => {
                assert_eq!(kind, JoinKind::Cross);
                assert!(on.is_none());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn group_by_having_order_limit() {
        let s = sel(
            "SELECT region, COUNT(*) AS n FROM countries GROUP BY region \
             HAVING COUNT(*) > 3 ORDER BY n DESC, region ASC LIMIT 10 OFFSET 2",
        );
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].ascending);
        assert!(s.order_by[1].ascending);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(2));
        assert!(s.is_aggregate());
    }

    #[test]
    fn aggregates() {
        let e = parse_expression("COUNT(DISTINCT name)").unwrap();
        assert!(matches!(
            e,
            Expr::Aggregate {
                func: AggregateFunc::Count,
                distinct: true,
                ..
            }
        ));
        let e = parse_expression("SUM(population)").unwrap();
        assert!(matches!(
            e,
            Expr::Aggregate {
                func: AggregateFunc::Sum,
                ..
            }
        ));
        let e = parse_expression("COUNT(*)").unwrap();
        assert!(matches!(e, Expr::Aggregate { arg: None, .. }));
    }

    #[test]
    fn aggregate_name_as_column() {
        // `count` not followed by '(' is just a column reference
        let e = parse_expression("count + 1").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Plus,
                ..
            }
        ));
    }

    #[test]
    fn in_between_like_null() {
        let e = parse_expression("x IN (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::InList { negated: false, .. }));
        let e = parse_expression("x NOT IN (1)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, .. }));
        let e = parse_expression("x BETWEEN 1 AND 10").unwrap();
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = parse_expression("x NOT BETWEEN 1 AND 10").unwrap();
        assert!(matches!(e, Expr::Between { negated: true, .. }));
        let e = parse_expression("name LIKE 'A%'").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Like,
                ..
            }
        ));
        let e = parse_expression("x IS NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: false, .. }));
        let e = parse_expression("x IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn case_and_cast() {
        let e = parse_expression("CASE WHEN x > 1 THEN 'big' ELSE 'small' END").unwrap();
        assert!(matches!(e, Expr::Case { .. }));
        let e = parse_expression("CAST(x AS INTEGER)").unwrap();
        assert!(matches!(
            e,
            Expr::Cast {
                data_type: DataType::Int,
                ..
            }
        ));
    }

    #[test]
    fn create_table() {
        let stmt = parse_statement(
            "CREATE VIRTUAL TABLE countries (\
               name TEXT PRIMARY KEY COMMENT 'the common English name', \
               capital TEXT, \
               population INTEGER NOT NULL\
             ) COMMENT 'sovereign countries of the world'",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable(c) => {
                assert!(c.virtual_table);
                assert_eq!(c.columns.len(), 3);
                assert!(c.columns[0].primary_key);
                assert_eq!(
                    c.columns[0].comment.as_deref(),
                    Some("the common English name")
                );
                assert!(c.columns[2].not_null);
                assert_eq!(
                    c.comment.as_deref(),
                    Some("sovereign countries of the world")
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn create_table_if_not_exists() {
        let stmt = parse_statement("CREATE TABLE IF NOT EXISTS t (a INT)").unwrap();
        match stmt {
            Statement::CreateTable(c) => {
                assert!(c.if_not_exists);
                assert!(!c.virtual_table);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn insert() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap();
        match stmt {
            Statement::Insert(i) => {
                assert_eq!(i.table, "t");
                assert_eq!(i.columns, vec!["a".to_string(), "b".to_string()]);
                assert_eq!(i.values.len(), 2);
                assert_eq!(i.values[1][1], Expr::Literal(Value::Null));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn drop_and_describe_and_explain() {
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
        assert!(matches!(
            parse_statement("DESCRIBE countries").unwrap(),
            Statement::Describe { .. }
        ));
        assert!(matches!(
            parse_statement("EXPLAIN SELECT 1").unwrap(),
            Statement::Explain { analyze: false, .. }
        ));
        assert!(matches!(
            parse_statement("EXPLAIN ANALYZE SELECT 1").unwrap(),
            Statement::Explain { analyze: true, .. }
        ));
        // ANALYZE is a plain identifier outside the EXPLAIN prefix.
        assert!(parse_statement("EXPLAIN ANALYZE ANALYZE SELECT 1").is_err());
    }

    #[test]
    fn subquery_in_from() {
        let s = sel("SELECT x FROM (SELECT a AS x FROM t) sub WHERE x > 1");
        assert!(matches!(s.from, Some(TableExpr::Subquery { .. })));
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_script("SELECT 1; SELECT 2;\n-- comment\nSELECT 3").unwrap();
        assert_eq!(stmts.len(), 3);
        assert_eq!(parse_script("").unwrap().len(), 0);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELECT * FORM t").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE").is_err());
        assert!(parse_statement("SELECT 1 LIMIT -1").is_err());
        assert!(parse_statement("BANANA").is_err());
        assert!(parse_statement("SELECT a FROM t GROUP region").is_err());
        assert!(parse_statement("SELECT a b c FROM t").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_statement("SELECT 1;").is_ok());
        assert!(parse_statement("SELECT 1 ; ;").is_ok());
    }

    #[test]
    fn constant_select_without_from() {
        let s = sel("SELECT 1 + 1 AS two");
        assert!(s.from.is_none());
        assert_eq!(s.projection.len(), 1);
    }
}
