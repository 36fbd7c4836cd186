//! A hand-written lexer for the SQL-ish language.

use aggprov_algebra::num::Num;
use aggprov_krel::error::RelError;
use std::fmt;

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Token {
    /// An identifier or keyword (kept verbatim; keyword matching is
    /// case-insensitive at the parser level).
    Ident(String),
    /// A numeric literal.
    Number(Num),
    /// A single-quoted string literal.
    Str(String),
    /// A prepared-statement placeholder `$1`, `$2`, … (1-based).
    Param(u32),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Param(n) => write!(f, "${n}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Semi => write!(f, ";"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
        }
    }
}

fn err_at(pos: usize, msg: String) -> RelError {
    RelError::Parse {
        pos,
        msg: format!("syntax error: {msg}"),
    }
}

/// The end of the number whose first digit is at `j`: a dot is part of
/// it only if followed by a digit (so `r.a` lexes as ident-dot-ident).
fn number_end(bytes: &[u8], mut j: usize) -> usize {
    let digit = |k: usize| bytes.get(k).is_some_and(u8::is_ascii_digit);
    while digit(j) || (bytes.get(j) == Some(&b'.') && digit(j + 1)) {
        j += 1;
    }
    j
}

/// Tokenizes an input string. `--` starts a line comment. Convenience
/// wrapper over [`lex_spanned`] for callers that do not need positions.
pub fn lex(input: &str) -> Result<Vec<Token>, RelError> {
    Ok(lex_spanned(input)?.into_iter().map(|(t, _)| t).collect())
}

/// Tokenizes an input string, returning each token with the byte offset
/// it starts at — the positions carried by [`RelError::Parse`].
pub fn lex_spanned(input: &str) -> Result<Vec<(Token, usize)>, RelError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let c = b as char;
        let tok_start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while bytes.get(i).is_some_and(|&b| b != b'\n') {
                    i += 1;
                }
            }
            '(' => {
                out.push((Token::LParen, tok_start));
                i += 1;
            }
            ')' => {
                out.push((Token::RParen, tok_start));
                i += 1;
            }
            ',' => {
                out.push((Token::Comma, tok_start));
                i += 1;
            }
            ';' => {
                out.push((Token::Semi, tok_start));
                i += 1;
            }
            '.' => {
                out.push((Token::Dot, tok_start));
                i += 1;
            }
            '*' => {
                out.push((Token::Star, tok_start));
                i += 1;
            }
            '=' => {
                out.push((Token::Eq, tok_start));
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push((Token::Ne, tok_start));
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push((Token::Ne, tok_start));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::Le, tok_start));
                    i += 2;
                } else {
                    out.push((Token::Lt, tok_start));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::Ge, tok_start));
                    i += 2;
                } else {
                    out.push((Token::Gt, tok_start));
                    i += 1;
                }
            }
            '$' => {
                let start = i + 1;
                let mut j = start;
                while bytes.get(j).is_some_and(u8::is_ascii_digit) {
                    j += 1;
                }
                if j == start {
                    return Err(err_at(
                        tok_start,
                        "expected a parameter number after `$`".into(),
                    ));
                }
                let n: u32 = input[start..j].parse().map_err(|_| {
                    err_at(
                        tok_start,
                        format!("parameter `${}` out of range", &input[start..j]),
                    )
                })?;
                if n == 0 {
                    return Err(err_at(tok_start, "parameters are numbered from $1".into()));
                }
                out.push((Token::Param(n), tok_start));
                i = j;
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while bytes.get(j).is_some_and(|&b| b != b'\'') {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(err_at(tok_start, "unterminated string literal".into()));
                }
                out.push((Token::Str(input[start..j].to_string()), tok_start));
                i = j + 1;
            }
            '0'..='9' => {
                let j = number_end(bytes, i);
                let text = &input[i..j];
                let n = Num::parse(text)
                    .ok_or_else(|| err_at(tok_start, format!("invalid number `{text}`")))?;
                out.push((Token::Number(n), tok_start));
                i = j;
            }
            '-' => {
                // Negative literal: unary minus, optionally separated from
                // its digits by whitespace (`WHERE x > - 1`). The `--`
                // comment case was handled above, so a `-` followed by
                // another `-` (even after spaces) is stray.
                let mut j = i + 1;
                while bytes.get(j).is_some_and(|&b| (b as char).is_whitespace()) {
                    j += 1;
                }
                let digits_start = j;
                if !bytes.get(j).is_some_and(u8::is_ascii_digit) {
                    return Err(err_at(tok_start, "stray `-`".into()));
                }
                let j = number_end(bytes, j);
                let text = format!("-{}", &input[digits_start..j]);
                let n = Num::parse(&text)
                    .ok_or_else(|| err_at(tok_start, format!("invalid number `{text}`")))?;
                out.push((Token::Number(n), tok_start));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while bytes
                    .get(j)
                    .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    j += 1;
                }
                out.push((Token::Ident(input[start..j].to_string()), tok_start));
                i = j;
            }
            other => {
                // `other` is one byte; name the whole scalar starting here.
                let ch = input
                    .get(i..)
                    .and_then(|rest| rest.chars().next())
                    .unwrap_or(other);
                return Err(err_at(tok_start, format!("unexpected character `{ch}`")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let toks = lex("SELECT dept, SUM(sal) FROM r WHERE x = 'd1';").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[2], Token::Comma);
        assert!(toks.contains(&Token::Str("d1".into())));
        assert_eq!(*toks.last().unwrap(), Token::Semi);
    }

    #[test]
    fn numbers_and_qualified_names() {
        let toks = lex("r.a 12 3.5 -4").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("r".into()),
                Token::Dot,
                Token::Ident("a".into()),
                Token::Number(Num::int(12)),
                Token::Number(Num::ratio(7, 2)),
                Token::Number(Num::int(-4)),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("a <= b <> c >= d < e > f != g").unwrap();
        let ops: Vec<&Token> = toks
            .iter()
            .filter(|t| !matches!(t, Token::Ident(_)))
            .collect();
        assert_eq!(
            ops,
            vec![
                &Token::Le,
                &Token::Ne,
                &Token::Ge,
                &Token::Lt,
                &Token::Gt,
                &Token::Ne
            ]
        );
    }

    #[test]
    fn comments_and_errors() {
        assert_eq!(lex("-- hi\nx").unwrap(), vec![Token::Ident("x".into())]);
        assert!(lex("'unterminated").is_err());
        assert!(lex("@").is_err());
    }

    #[test]
    fn spans_point_at_token_starts() {
        let toks = lex_spanned("ab  <= 'str' $3").unwrap();
        let spans: Vec<usize> = toks.iter().map(|(_, p)| *p).collect();
        assert_eq!(spans, vec![0, 4, 7, 13]);
    }

    #[test]
    fn lex_errors_are_parse_errors_with_positions() {
        let err = lex("ab @").unwrap_err();
        let RelError::Parse { pos, msg } = &err else {
            panic!("expected RelError::Parse, got {err:?}");
        };
        assert_eq!(*pos, 3);
        assert!(msg.contains("unexpected character"), "{msg}");
        assert!(err.to_string().contains("at byte 3"), "{err}");
        // An unterminated string points at its opening quote.
        let err = lex("x = 'oops").unwrap_err();
        assert!(matches!(err, RelError::Parse { pos: 4, .. }), "{err:?}");
        // A non-ASCII character is named whole, at its first byte.
        for (sql, ch, at) in [("a WHERE é = 1", 'é', 8), ("'é' 日", '日', 5)] {
            let err = lex(sql).unwrap_err();
            let RelError::Parse { pos, msg } = &err else {
                panic!("expected RelError::Parse, got {err:?}");
            };
            assert_eq!(*pos, at, "{msg}");
            assert!(
                msg.ends_with(&format!("unexpected character `{ch}`")),
                "{msg}"
            );
        }
    }

    #[test]
    fn unary_minus_separated_from_digits() {
        // `WHERE x > - 1` must lex: whitespace between the unary minus and
        // its digits is allowed.
        let toks = lex("x > - 1").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("x".into()),
                Token::Gt,
                Token::Number(Num::int(-1)),
            ]
        );
        assert_eq!(
            lex("-   3.5").unwrap(),
            vec![Token::Number(Num::ratio(-7, 2))]
        );
        // A `-` with nothing numeric after it is still stray…
        assert!(lex("x > -").is_err());
        assert!(lex("x > - y").is_err());
        // …and two separated minuses do not merge into a comment.
        assert!(lex("- - 1").is_err());
    }

    #[test]
    fn negative_numbers_adjacent_to_comments() {
        // `--` still starts a comment, even right after a negative literal.
        assert_eq!(
            lex("-1--note\n-2").unwrap(),
            vec![Token::Number(Num::int(-1)), Token::Number(Num::int(-2))]
        );
        // A comment line followed by a spaced negative literal.
        assert_eq!(lex("-- c\n- 7").unwrap(), vec![Token::Number(Num::int(-7))]);
        // `--1` is a comment, not negative negative one.
        assert_eq!(lex("--1\n5").unwrap(), vec![Token::Number(Num::int(5))]);
    }
}
