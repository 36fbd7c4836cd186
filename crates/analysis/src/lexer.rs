//! A hand-written Rust token scanner with byte/line spans.
//!
//! The same approach as the SQL lexer in `engine/src/lexer.rs`: a single
//! forward pass over the bytes, producing tokens tagged with the line
//! they start on. It understands exactly as much Rust as the lint rules
//! need — identifiers, punctuation, string/char/lifetime literals and
//! numbers; comments are skipped. It does **not** build a syntax tree;
//! rules work over the token stream plus a bracket match map.

/// One lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// An identifier or keyword, kept verbatim.
    Ident(String),
    /// A lifetime (`'a`) — kept distinct so it never confuses char
    /// literal or indexing detection.
    Lifetime,
    /// A string literal (normal, raw, or byte); the content is not
    /// unescaped — rules only substring-match inside it.
    Str(String),
    /// A char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A numeric literal, kept verbatim (suffixes included) so rules can
    /// read concrete values — e.g. the thread counts passed to
    /// `with_threads(4)`.
    Num(String),
    /// A single punctuation byte (`.`, `(`, `[`, `!`, …). Multi-byte
    /// operators arrive as their constituent bytes, which is all the
    /// rules need.
    Punct(u8),
}

/// A token with the 1-based line it starts on.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line number of the token's first byte.
    pub line: u32,
}

impl Tok {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True iff this token is the given punctuation byte.
    pub fn is(&self, b: u8) -> bool {
        matches!(self, Tok::Punct(p) if *p == b)
    }

    /// True iff this token is the given identifier.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, Tok::Ident(s) if s == name)
    }

    /// The integer value of a numeric literal, ignoring any type suffix
    /// and underscores (`1_000i64` → 1000). `None` for non-numbers and
    /// for floats.
    pub fn num_value(&self) -> Option<u64> {
        let Tok::Num(text) = self else { return None };
        let digits: String = text
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '_')
            .filter(|c| *c != '_')
            .collect();
        if text.contains('.') || digits.is_empty() {
            return None;
        }
        digits.parse().ok()
    }
}

/// Scans Rust source into its non-comment tokens. Never fails:
/// unexpected bytes are skipped (the analyzer lints files that already
/// compile, so anything unrecognized is at worst inside an exotic
/// literal).
pub fn scan(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    while i < bytes.len() {
        let b = bytes[i];
        let start_line = line;
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (text, nl) = read_string(input, &mut i, 0);
                line += nl;
                out.push(Token {
                    tok: Tok::Str(text),
                    line: start_line,
                });
            }
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                let (text, nl) = read_prefixed_string(input, &mut i);
                line += nl;
                out.push(Token {
                    tok: Tok::Str(text),
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`): a
                // lifetime is a quote + ident run NOT followed by a
                // closing quote.
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                if j > i + 1 && bytes.get(j) != Some(&b'\'') {
                    out.push(Token {
                        tok: Tok::Lifetime,
                        line: start_line,
                    });
                    i = j;
                } else {
                    // Char literal: consume up to the closing quote,
                    // honoring one backslash escape.
                    i += 1;
                    if bytes.get(i) == Some(&b'\\') {
                        i += 2;
                        // `\u{...}` escapes run to the closing brace.
                        while i < bytes.len() && bytes[i] != b'\'' {
                            i += 1;
                        }
                    } else {
                        while i < bytes.len() && bytes[i] != b'\'' {
                            i += 1;
                        }
                    }
                    i += 1; // closing quote (or EOF)
                    out.push(Token {
                        tok: Tok::Char,
                        line: start_line,
                    });
                }
            }
            b'0'..=b'9' => {
                // Numbers: digits plus alphanumerics, `_` and `.` when
                // followed by a digit (so `x.0` field access still works
                // out — `0` after `.` lexes as a number, which rules
                // treat the same as a field name).
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || (bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)))
                {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Num(input[start..i].to_string()),
                    line: start_line,
                });
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(input[start..i].to_string()),
                    line: start_line,
                });
            }
            other => {
                out.push(Token {
                    tok: Tok::Punct(other),
                    line: start_line,
                });
                i += 1;
            }
        }
    }
    out
}

/// True iff position `i` starts a raw/byte string prefix: `r"`, `r#`,
/// `b"`, `br"`, `br#` (an identifier beginning with those letters is
/// caught by the alphabetic arm first only when this returns false).
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'r' => matches!(bytes.get(i + 1), Some(b'"') | Some(b'#')),
        b'b' => match bytes.get(i + 1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => matches!(bytes.get(i + 2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Reads a normal (escaped) string literal starting at the opening quote;
/// returns (content-with-quotes, newlines crossed).
fn read_string(input: &str, i: &mut usize, _hashes: usize) -> (String, u32) {
    let bytes = input.as_bytes();
    let start = *i;
    let mut nl = 0;
    *i += 1; // opening quote
    while *i < bytes.len() {
        match bytes[*i] {
            b'\\' => *i += 2,
            b'"' => {
                *i += 1;
                break;
            }
            b'\n' => {
                nl += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
    (input[start..(*i).min(bytes.len())].to_string(), nl)
}

/// Reads a raw or byte string (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, or a
/// byte char `b'…'`) starting at its prefix letter.
fn read_prefixed_string(input: &str, i: &mut usize) -> (String, u32) {
    let bytes = input.as_bytes();
    let start = *i;
    let mut nl = 0;
    // Skip the r/b/br prefix.
    while *i < bytes.len() && (bytes[*i] == b'r' || bytes[*i] == b'b') {
        *i += 1;
    }
    if bytes.get(*i) == Some(&b'\'') {
        // Byte char literal `b'x'`.
        *i += 1;
        if bytes.get(*i) == Some(&b'\\') {
            *i += 1;
        }
        while *i < bytes.len() && bytes[*i] != b'\'' {
            *i += 1;
        }
        *i += 1;
        return (input[start..(*i).min(bytes.len())].to_string(), 0);
    }
    let mut hashes = 0;
    while bytes.get(*i) == Some(&b'#') {
        hashes += 1;
        *i += 1;
    }
    if bytes.get(*i) != Some(&b'"') {
        // `r#ident` (raw identifier) — rewind to let the caller's ident
        // arm handle it: emit as-is up to here.
        return (input[start..*i].to_string(), 0);
    }
    if hashes == 0 && !input[start..*i].contains('r') {
        // Plain byte string `b"…"`: escapes apply.
        let (s, n) = read_string(input, i, 0);
        return (format!("b{s}"), n);
    }
    *i += 1; // opening quote
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    while *i < bytes.len() {
        if bytes[*i] == b'\n' {
            nl += 1;
        }
        if bytes[*i] == b'"' && bytes[*i..].starts_with(&closer) {
            *i += closer.len();
            break;
        }
        *i += 1;
    }
    (input[start..(*i).min(bytes.len())].to_string(), nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .iter()
            .filter_map(|t| t.tok.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let s = scan("fn f() {\n    x.unwrap()\n}\n");
        assert_eq!(s[0].tok, Tok::Ident("fn".into()));
        let unwrap = s.iter().find(|t| t.tok.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 2);
    }

    #[test]
    fn comments_are_skipped_and_lines_still_count() {
        let s = scan("a // line [comment]\n/* block\nspans */ b");
        assert_eq!(idents("a // c\nb"), vec!["a", "b"]);
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].tok, Tok::Ident("b".into()));
        assert_eq!(s[1].line, 3);
    }

    #[test]
    fn strings_hide_their_contents() {
        // Brackets and `//` inside strings must not produce tokens.
        let s = scan(r#"let x = "a[0] // not a comment"; y"#);
        assert!(s
            .iter()
            .any(|t| matches!(&t.tok, Tok::Str(x) if x.contains("not a comment"))));
        assert!(!s.iter().any(|t| t.tok.is(b'[')));
        assert!(s.iter().any(|t| t.tok.is_ident("y")));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let s = scan("r#\"has \"quotes\" inside\"# z");
        assert!(matches!(&s[0].tok, Tok::Str(t) if t.contains("quotes")));
        assert!(s[1].tok.is_ident("z"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) { let c = 'x'; }");
        let lifetimes = s.iter().filter(|t| matches!(t.tok, Tok::Lifetime)).count();
        let chars = s.iter().filter(|t| matches!(t.tok, Tok::Char)).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn escaped_char_literals() {
        let s = scan(r"let a = '\n'; let b = '\''; let c = '\u{1F600}'; d");
        assert!(s.iter().any(|t| t.tok.is_ident("d")));
        assert_eq!(s.iter().filter(|t| matches!(t.tok, Tok::Char)).count(), 3);
    }

    #[test]
    fn numbers_do_not_split_on_type_suffixes() {
        assert_eq!(
            idents("let x = 0usize; let y = 1_000i64; z"),
            vec!["let", "x", "let", "y", "z"]
        );
    }

    #[test]
    fn numbers_carry_their_value() {
        let s = scan("with_threads(4); serial(); n(1_000i64); f(2.5)");
        let nums: Vec<Option<u64>> = s
            .iter()
            .filter(|t| matches!(t.tok, Tok::Num(_)))
            .map(|t| t.tok.num_value())
            .collect();
        assert_eq!(nums, vec![Some(4), Some(1000), None]);
    }
}
