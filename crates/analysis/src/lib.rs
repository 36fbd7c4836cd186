//! `aggprov-lint` — project-invariant static analysis for the aggprov
//! workspace: the invariants that neither a type nor a compiler lint can
//! state.
//!
//! Most of the engine's disciplines are held by the compiler. A columnar
//! fast path cannot be gated on one operand because its kernel takes two
//! fringe-free `Ground` views (`core::ops::batch`); the execute, prepare
//! and serving paths cannot panic because their modules `#![deny]`
//! clippy's `indexing_slicing`/`unwrap_used`/`expect_used`/`panic` family,
//! with each exception an `#[expect(…, reason = "…")]` on the statement;
//! a new enum variant cannot slip past a designated dispatch function
//! because rustc's exhaustiveness check plus
//! `#[deny(clippy::wildcard_enum_match_arm)]` on that function demand an
//! arm; the wire protocol's op set is one table in the server crate
//! (`aggprov_server::Op`) that dispatch, `Client` and a doc test key off.
//! What is left for this crate are whole-program facts: the order in
//! which locks are taken across functions, and which property test calls
//! which oracle.
//!
//! It is a **two-phase analyzer** built on a lightweight token scanner
//! ([`lexer`]) in the same hand-rolled, zero-dependency style as the SQL
//! lexer (`engine/src/lexer.rs`) and the server's JSON parser — no
//! `syn`, no network. Phase 1 ([`graph`]) walks the workspace once and
//! builds a symbol graph: functions with spans, an approximate call
//! graph from unique-name resolution and per-function lock-guard events.
//! Phase 2 ([`rules`]) runs the rules over that graph and the token
//! streams. Everything is
//! deliberately conservative pattern matching for *this repository's*
//! idioms, not a general Rust analyzer, and every rule is pinned by
//! fixture tests in `tests/fixtures/`.
//!
//! # Rules
//!
//! | id | invariant |
//! |----|-----------|
//! | `lock` | no nested guards; no lock held across socket I/O (one function) |
//! | `lock-order` | no cycle in the global guard-acquisition order; no lock held across I/O *transitively through callees* |
//! | `oracle` | every `core::ops` operator's `specops::` twin is *called* from a proptest that also runs the physical path (threads 1 and 4 for `_opts` operators) |
//!
//! There is no waiver syntax: a finding is fixed, not annotated.
//!
//! Run locally with `cargo run -p analysis --bin aggprov-lint` from the
//! workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod graph;
pub mod json;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod walk;

use lexer::{scan, Tok, Token};

/// One lint finding, anchored to a file and line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id (`lock`, `lock-order`, `oracle`).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A scanned source file plus everything rules need: tokens, bracket
/// match map and `#[cfg(test)]` spans.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// For each token index: the index of the matching close/open
    /// bracket, for `(` `)` `[` `]` `{` `}` tokens; `usize::MAX`
    /// elsewhere or when unbalanced.
    pub matches: Vec<usize>,
    /// Sorted token-index ranges lying under `#[cfg(test)]` / `#[test]`
    /// items (rules skip these).
    pub test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Scans `text` into a rule-ready source file.
    pub fn new(path: impl Into<String>, text: impl AsRef<str>) -> SourceFile {
        let path = path.into();
        let tokens = scan(text.as_ref());
        let matches = match_brackets(&tokens);
        let test_ranges = find_test_ranges(&tokens, &matches);
        SourceFile {
            path,
            tokens,
            matches,
            test_ranges,
        }
    }

    /// True iff token index `i` lies inside a `#[cfg(test)]`/`#[test]`
    /// item.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }
}

/// Builds the bracket match map over the token stream.
fn match_brackets(tokens: &[Token]) -> Vec<usize> {
    let mut out = vec![usize::MAX; tokens.len()];
    let mut stack: Vec<(u8, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.tok {
            Tok::Punct(b @ (b'(' | b'[' | b'{')) => stack.push((b, i)),
            Tok::Punct(close @ (b')' | b']' | b'}')) => {
                let want = match close {
                    b')' => b'(',
                    b']' => b'[',
                    _ => b'{',
                };
                // Pop past any unbalanced entries (never happens on code
                // that compiles, but stay total).
                while let Some((open, at)) = stack.pop() {
                    if open == want {
                        out[at] = i;
                        out[i] = at;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Finds token ranges under `#[cfg(test)]` or `#[test]` attributes: from
/// the attribute to the end of the item's brace block (or its `;`).
fn find_test_ranges(tokens: &[Token], matches: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].tok.is(b'#') && i + 1 < tokens.len() && tokens[i + 1].tok.is(b'[') {
            let close = matches[i + 1];
            if close != usize::MAX && attr_is_test(&tokens[i + 2..close]) {
                // Skip any further attributes, then run to the item's
                // closing brace (derives etc. between attr and item).
                let mut j = close + 1;
                while j + 1 < tokens.len() && tokens[j].tok.is(b'#') && tokens[j + 1].tok.is(b'[') {
                    let c = matches[j + 1];
                    if c == usize::MAX {
                        break;
                    }
                    j = c + 1;
                }
                let mut end = j;
                while end < tokens.len() {
                    if tokens[end].tok.is(b';') {
                        break;
                    }
                    if tokens[end].tok.is(b'{') {
                        let c = matches[end];
                        end = if c == usize::MAX { tokens.len() - 1 } else { c };
                        break;
                    }
                    end += 1;
                }
                out.push((i, end.min(tokens.len().saturating_sub(1))));
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// True iff the attribute token slice is `cfg(test)` or `test`.
fn attr_is_test(inner: &[Token]) -> bool {
    match inner {
        [t] => t.tok.is_ident("test"),
        [c, p, t, q] => {
            c.tok.is_ident("cfg") && p.tok.is(b'(') && t.tok.is_ident("test") && q.tok.is(b')')
        }
        _ => false,
    }
}

/// A loaded workspace: all scanned sources.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All scanned `.rs` files.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// The file at `path`, if loaded.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_ranges_cover_test_modules() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n";
        let f = SourceFile::new("x.rs", src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.tok.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test(unwraps[0]));
        assert!(f.in_test(unwraps[1]));
    }

    #[test]
    fn bracket_matching_round_trips() {
        let f = SourceFile::new("x.rs", "fn f(a: &[u8]) { g(a[0], (1, [2])); }");
        for (i, t) in f.tokens.iter().enumerate() {
            if let Tok::Punct(b'(' | b'[' | b'{') = t.tok {
                let j = f.matches[i];
                assert_ne!(j, usize::MAX);
                assert_eq!(f.matches[j], i);
            }
        }
    }
}
