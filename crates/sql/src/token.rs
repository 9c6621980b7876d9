//! SQL tokens and keywords.

use std::fmt;

/// A SQL keyword. The lexer upper-cases identifiers to match; the parser
/// treats non-reserved words as identifiers where the grammar allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Select,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Asc,
    Desc,
    Limit,
    Offset,
    As,
    And,
    Or,
    Not,
    Null,
    True,
    False,
    Is,
    In,
    Like,
    Between,
    Join,
    Inner,
    Left,
    Right,
    Full,
    Outer,
    Cross,
    On,
    Distinct,
    All,
    Create,
    Table,
    Virtual,
    Primary,
    Key,
    Insert,
    Into,
    Values,
    Drop,
    If,
    Exists,
    Explain,
    Analyze,
    Describe,
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Cast,
    Case,
    When,
    Then,
    Else,
    End,
    Union,
    Comment,
    With,
}

impl Keyword {
    /// Try to interpret a word as a keyword (case-insensitive).
    pub fn parse(word: &str) -> Option<Keyword> {
        let kw = match llmsql_types::ascii_upper(word, &mut [0; 16])? {
            "SELECT" => Keyword::Select,
            "FROM" => Keyword::From,
            "WHERE" => Keyword::Where,
            "GROUP" => Keyword::Group,
            "BY" => Keyword::By,
            "HAVING" => Keyword::Having,
            "ORDER" => Keyword::Order,
            "ASC" => Keyword::Asc,
            "DESC" => Keyword::Desc,
            "LIMIT" => Keyword::Limit,
            "OFFSET" => Keyword::Offset,
            "AS" => Keyword::As,
            "AND" => Keyword::And,
            "OR" => Keyword::Or,
            "NOT" => Keyword::Not,
            "NULL" => Keyword::Null,
            "TRUE" => Keyword::True,
            "FALSE" => Keyword::False,
            "IS" => Keyword::Is,
            "IN" => Keyword::In,
            "LIKE" => Keyword::Like,
            "BETWEEN" => Keyword::Between,
            "JOIN" => Keyword::Join,
            "INNER" => Keyword::Inner,
            "LEFT" => Keyword::Left,
            "RIGHT" => Keyword::Right,
            "FULL" => Keyword::Full,
            "OUTER" => Keyword::Outer,
            "CROSS" => Keyword::Cross,
            "ON" => Keyword::On,
            "DISTINCT" => Keyword::Distinct,
            "ALL" => Keyword::All,
            "CREATE" => Keyword::Create,
            "TABLE" => Keyword::Table,
            "VIRTUAL" => Keyword::Virtual,
            "PRIMARY" => Keyword::Primary,
            "KEY" => Keyword::Key,
            "INSERT" => Keyword::Insert,
            "INTO" => Keyword::Into,
            "VALUES" => Keyword::Values,
            "DROP" => Keyword::Drop,
            "IF" => Keyword::If,
            "EXISTS" => Keyword::Exists,
            "EXPLAIN" => Keyword::Explain,
            "ANALYZE" => Keyword::Analyze,
            "DESCRIBE" => Keyword::Describe,
            "COUNT" => Keyword::Count,
            "SUM" => Keyword::Sum,
            "AVG" => Keyword::Avg,
            "MIN" => Keyword::Min,
            "MAX" => Keyword::Max,
            "CAST" => Keyword::Cast,
            "CASE" => Keyword::Case,
            "WHEN" => Keyword::When,
            "THEN" => Keyword::Then,
            "ELSE" => Keyword::Else,
            "END" => Keyword::End,
            "UNION" => Keyword::Union,
            "COMMENT" => Keyword::Comment,
            "WITH" => Keyword::With,
            _ => return None,
        };
        Some(kw)
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)?;
        Ok(())
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A keyword such as SELECT.
    Keyword(Keyword),
    /// An identifier (table/column/alias name). The original spelling is kept.
    Ident(String),
    /// An integer literal.
    Integer(i64),
    /// A float literal.
    Float(f64),
    /// A single-quoted string literal (quotes removed, escapes resolved).
    String(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `||` string concatenation
    Concat,
    /// End of input.
    Eof,
}

impl Token {
    /// True if this token is the given keyword.
    pub fn is_keyword(&self, kw: Keyword) -> bool {
        matches!(self, Token::Keyword(k) if *k == kw)
    }

    /// A short human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Token::Keyword(k) => format!("keyword {}", format!("{k:?}").to_uppercase()),
            Token::Ident(s) => format!("identifier '{s}'"),
            Token::Integer(i) => format!("integer {i}"),
            Token::Float(f) => format!("float {f}"),
            Token::String(s) => format!("string '{s}'"),
            Token::Eof => "end of input".to_string(),
            other => format!("'{}'", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            Token::LParen => "(",
            Token::RParen => ")",
            Token::Comma => ",",
            Token::Dot => ".",
            Token::Semicolon => ";",
            Token::Star => "*",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Slash => "/",
            Token::Percent => "%",
            Token::Eq => "=",
            Token::NotEq => "<>",
            Token::Lt => "<",
            Token::LtEq => "<=",
            Token::Gt => ">",
            Token::GtEq => ">=",
            Token::Concat => "||",
            _ => "?",
        }
    }
}

/// A token plus its byte offset in the source text.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Byte offset of the first character of the token.
    pub offset: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_parse_case_insensitive() {
        assert_eq!(Keyword::parse("select"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("frobnicate"), None);
        assert_eq!(Keyword::parse("between"), Some(Keyword::Between));
    }

    #[test]
    fn token_keyword_check() {
        assert!(Token::Keyword(Keyword::From).is_keyword(Keyword::From));
        assert!(!Token::Keyword(Keyword::From).is_keyword(Keyword::Where));
        assert!(!Token::Comma.is_keyword(Keyword::From));
    }

    #[test]
    fn describe_is_readable() {
        assert_eq!(Token::Comma.describe(), "','");
        assert_eq!(Token::Ident("foo".into()).describe(), "identifier 'foo'");
        assert_eq!(Token::Integer(5).describe(), "integer 5");
        assert_eq!(Token::Eof.describe(), "end of input");
        assert!(Token::Keyword(Keyword::Select)
            .describe()
            .contains("SELECT"));
    }
}
