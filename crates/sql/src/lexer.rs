//! A hand-written SQL lexer.
//!
//! Produces a vector of [`SpannedToken`]s. Supports single-quoted strings with
//! `''` escaping, double-quoted identifiers with `""` escaping, line comments
//! (`-- ...`), block comments (`/* ... */`), integer and float literals
//! (including exponents), and the usual operator set.

use llmsql_types::{Error, Result};

use crate::token::{Keyword, SpannedToken, Token};

/// Tokenize a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<SpannedToken>> {
    Lexer::new(input).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    tokens: Vec<SpannedToken>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<SpannedToken>> {
        while let Some(c) = self.peek(0) {
            let start = self.pos;
            match c {
                c if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                '-' => {
                    if self.peek(1) == Some('-') {
                        self.skip_line_comment();
                    } else {
                        self.push(Token::Minus, start);
                        self.pos += 1;
                    }
                }
                '/' => {
                    if self.peek(1) == Some('*') {
                        self.skip_block_comment()?;
                    } else {
                        self.push(Token::Slash, start);
                        self.pos += 1;
                    }
                }
                '(' => {
                    self.push(Token::LParen, start);
                    self.pos += 1;
                }
                ')' => {
                    self.push(Token::RParen, start);
                    self.pos += 1;
                }
                ',' => {
                    self.push(Token::Comma, start);
                    self.pos += 1;
                }
                '.' => {
                    // A dot starting a number like ".5" is handled in number
                    // lexing only when preceded by nothing useful; standalone
                    // dots are member access.
                    if self.peek(1).map(|c| c.is_ascii_digit()).unwrap_or(false)
                        && !self.last_token_is_value_like()
                    {
                        self.lex_number()?;
                    } else {
                        self.push(Token::Dot, start);
                        self.pos += 1;
                    }
                }
                ';' => {
                    self.push(Token::Semicolon, start);
                    self.pos += 1;
                }
                '*' => {
                    self.push(Token::Star, start);
                    self.pos += 1;
                }
                '+' => {
                    self.push(Token::Plus, start);
                    self.pos += 1;
                }
                '%' => {
                    self.push(Token::Percent, start);
                    self.pos += 1;
                }
                '=' => {
                    self.push(Token::Eq, start);
                    self.pos += 1;
                    // tolerate '=='
                    if self.peek(0) == Some('=') {
                        self.pos += 1;
                    }
                }
                '!' => {
                    if self.peek(1) == Some('=') {
                        self.push(Token::NotEq, start);
                        self.pos += 2;
                    } else {
                        return Err(Error::parse("unexpected character '!'").at(start));
                    }
                }
                '<' => match self.peek(1) {
                    Some('=') => {
                        self.push(Token::LtEq, start);
                        self.pos += 2;
                    }
                    Some('>') => {
                        self.push(Token::NotEq, start);
                        self.pos += 2;
                    }
                    _ => {
                        self.push(Token::Lt, start);
                        self.pos += 1;
                    }
                },
                '>' => {
                    if self.peek(1) == Some('=') {
                        self.push(Token::GtEq, start);
                        self.pos += 2;
                    } else {
                        self.push(Token::Gt, start);
                        self.pos += 1;
                    }
                }
                '|' => {
                    if self.peek(1) == Some('|') {
                        self.push(Token::Concat, start);
                        self.pos += 2;
                    } else {
                        return Err(Error::parse("unexpected character '|'").at(start));
                    }
                }
                '\'' => self.lex_string()?,
                '"' => self.lex_quoted_ident()?,
                c if c.is_ascii_digit() => self.lex_number()?,
                c if starts_word(c) => self.lex_word(),
                other => {
                    return Err(Error::parse(format!("unexpected character '{other}'")).at(start))
                }
            }
        }
        self.push(Token::Eof, self.pos);
        Ok(self.tokens)
    }

    /// The character `ahead` characters past `pos`. `pos` is always on a
    /// character boundary: every advance is by the `len_utf8` of a character
    /// `peek` returned (1 for the ASCII ones the grammar is made of), and the
    /// comment skippers stop on ASCII bytes, which no multi-byte sequence
    /// contains.
    fn peek(&self, ahead: usize) -> Option<char> {
        self.src.get(self.pos..)?.chars().nth(ahead)
    }

    fn push(&mut self, token: Token, offset: usize) {
        self.tokens.push(SpannedToken { token, offset });
    }

    fn last_token_is_value_like(&self) -> bool {
        matches!(
            self.tokens.last().map(|t| &t.token),
            Some(Token::Ident(_))
                | Some(Token::Integer(_))
                | Some(Token::Float(_))
                | Some(Token::RParen)
        )
    }

    fn skip_line_comment(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    fn skip_block_comment(&mut self) -> Result<()> {
        let start = self.pos;
        self.pos += 2;
        loop {
            if self.pos + 1 >= self.bytes.len() {
                return Err(Error::parse("unterminated block comment").at(start));
            }
            if self.bytes[self.pos] == b'*' && self.bytes[self.pos + 1] == b'/' {
                self.pos += 2;
                return Ok(());
            }
            self.pos += 1;
        }
    }

    fn lex_string(&mut self) -> Result<()> {
        let start = self.pos;
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek(0) {
                None => return Err(Error::parse("unterminated string literal").at(start)),
                Some('\'') => {
                    if self.peek(1) == Some('\'') {
                        out.push('\'');
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
        self.push(Token::String(out), start);
        Ok(())
    }

    fn lex_quoted_ident(&mut self) -> Result<()> {
        let start = self.pos;
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek(0) {
                None => return Err(Error::parse("unterminated quoted identifier").at(start)),
                Some('"') => {
                    if self.peek(1) == Some('"') {
                        out.push('"');
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
        self.push(Token::Ident(out), start);
        Ok(())
    }

    fn lex_number(&mut self) -> Result<()> {
        let start = self.pos;
        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() {
                self.pos += 1;
            } else if c == '.' && !saw_dot && !saw_exp {
                // only treat as part of the number if followed by a digit
                if self.peek(1).map(|d| d.is_ascii_digit()).unwrap_or(false) {
                    saw_dot = true;
                    self.pos += 1;
                } else {
                    break;
                }
            } else if (c == 'e' || c == 'E') && !saw_exp {
                let next = self.peek(1);
                let next2 = self.peek(2);
                let exp_ok = match next {
                    Some(d) if d.is_ascii_digit() => true,
                    Some('+') | Some('-') => next2.map(|d| d.is_ascii_digit()).unwrap_or(false),
                    _ => false,
                };
                if exp_ok {
                    saw_exp = true;
                    self.pos += 2; // consume e and sign/digit
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        if saw_dot || saw_exp {
            let v: f64 = text
                .parse()
                .map_err(|_| Error::parse(format!("invalid float literal '{text}'")).at(start))?;
            self.push(Token::Float(v), start);
        } else {
            match text.parse::<i64>() {
                Ok(v) => self.push(Token::Integer(v), start),
                Err(_) => {
                    let v: f64 = text.parse().map_err(|_| {
                        Error::parse(format!("invalid numeric literal '{text}'")).at(start)
                    })?;
                    self.push(Token::Float(v), start);
                }
            }
        }
        Ok(())
    }

    fn lex_word(&mut self) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if continues_word(c) {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        let word = &self.src[start..self.pos];
        match Keyword::parse(word) {
            Some(kw) => self.push(Token::Keyword(kw), start),
            None => self.push(Token::Ident(word.to_string()), start),
        }
    }
}

/// May `c` begin a bare word (a keyword or an unquoted identifier)? The
/// printer asks the same question to decide whether a name needs quotes.
pub(crate) fn starts_word(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// May `c` continue a bare word?
pub(crate) fn continues_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(sql: &str) -> Vec<Token> {
        tokenize(sql)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        let t = toks("SELECT name FROM countries");
        assert_eq!(
            t,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Ident("name".into()),
                Token::Keyword(Keyword::From),
                Token::Ident("countries".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("1 2.5 1e3 3.25e-2"),
            vec![
                Token::Integer(1),
                Token::Float(2.5),
                Token::Float(1000.0),
                Token::Float(0.0325),
                Token::Eof
            ]
        );
        // A leading-dot float is recognised when it cannot be member access.
        assert_eq!(toks(".5"), vec![Token::Float(0.5), Token::Eof]);
    }

    #[test]
    fn huge_integer_becomes_float() {
        let t = toks("99999999999999999999");
        assert!(matches!(t[0], Token::Float(_)));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks("'it''s' 'a'"),
            vec![
                Token::String("it's".into()),
                Token::String("a".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn quoted_identifiers() {
        assert_eq!(
            toks(r#""Weird Name" "#),
            vec![Token::Ident("Weird Name".into()), Token::Eof]
        );
        // A doubled quote is one quote inside the name, as in a string.
        assert_eq!(
            toks(r#""a ""b"" c" """""#),
            vec![
                Token::Ident(r#"a "b" c"#.into()),
                Token::Ident("\"".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn text_outside_ascii_is_read_whole() {
        // A character is one token's worth of text however many bytes it
        // takes: nothing is cut to its first byte.
        assert_eq!(
            toks("'Côte d''Ivoire' = 'São Tomé'"),
            vec![
                Token::String("Côte d'Ivoire".into()),
                Token::Eq,
                Token::String("São Tomé".into()),
                Token::Eof
            ]
        );
        assert_eq!(
            toks(
                r#""Länder" größe_2 -- é
                /* ü */ x"#
            ),
            vec![
                Token::Ident("Länder".into()),
                Token::Ident("größe_2".into()),
                Token::Ident("x".into()),
                Token::Eof
            ]
        );
        // Offsets stay byte offsets into the source text.
        let spanned = tokenize("'é' x").unwrap();
        assert_eq!(spanned[1].offset, 5);
        let err = tokenize("a € b").unwrap_err();
        assert!(err.to_string().contains('€'), "{err}");
        assert_eq!(err.offset, Some(2));
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("= <> != < <= > >= + - * / % || ."),
            vec![
                Token::Eq,
                Token::NotEq,
                Token::NotEq,
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
                Token::Concat,
                Token::Dot,
                Token::Eof
            ]
        );
    }

    #[test]
    fn qualified_column_is_ident_dot_ident() {
        assert_eq!(
            toks("t.population"),
            vec![
                Token::Ident("t".into()),
                Token::Dot,
                Token::Ident("population".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("SELECT -- trailing comment\n 1 /* block\ncomment */ + 2"),
            vec![
                Token::Keyword(Keyword::Select),
                Token::Integer(1),
                Token::Plus,
                Token::Integer(2),
                Token::Eof
            ]
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let err = tokenize("SELECT @").unwrap_err();
        assert_eq!(err.offset, Some(7));
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("/* unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("a | b").is_err());
    }

    #[test]
    fn offsets_are_recorded() {
        let spanned = tokenize("SELECT a").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 7);
    }
}
