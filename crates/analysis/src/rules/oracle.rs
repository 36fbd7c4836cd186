//! Rule `oracle`: every physical operator has a proptested spec oracle.
//!
//! The correctness contract of the whole engine is "bit-identical to the
//! literal §4.3 / §3.2 specification": every hash-partitioned fast path
//! in `core::ops` is only trusted because a naive `specops::` twin
//! exists and a property test compares the two. This rule closes the
//! gaps a new operator could slip through, in escalating order:
//!
//! 1. every public operator function in `core/src/ops.rs` (an
//!    `MKRel`-taking, `Result`-returning `pub fn`) must have a `specops`
//!    function of the same base name (`_opts` variants share their
//!    base's oracle);
//! 2. some proptest file must **call** `specops::<base>(...)` — an
//!    actual call expression, not a name in a comment or string;
//! 3. that same file must also call the physical path
//!    (`ops::<base>(...)` or `ops::<base>_opts(...)`), so the oracle and
//!    the fast path actually meet in one test;
//! 4. for operators with an `_opts` variant (the threaded fast paths),
//!    an oracle-calling file must pin **both** `threads = 1` and
//!    `threads = 4`: via `with_threads(1)` / `with_threads(4)` literals,
//!    `ExecOptions::serial()` (= 1), or a `for t in [1, 4]` loop whose
//!    variable feeds `with_threads(t)`.

use crate::lexer::Tok;
use crate::{Diagnostic, SourceFile, Workspace};
use std::collections::BTreeSet;

/// Path of the physical operator module.
pub const OPS_PATH: &str = "crates/core/src/ops.rs";
/// Path of the specification oracle module.
pub const SPECOPS_PATH: &str = "crates/core/src/specops.rs";

/// Cross-checks operator exports against oracles and proptest use.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let Some(ops) = ws.file(OPS_PATH) else {
        return Vec::new();
    };
    let spec_fns: Vec<String> = ws.file(SPECOPS_PATH).map(fn_names).unwrap_or_default();
    let proptests: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| {
            f.path.contains("proptest")
                && (f.path.contains("/tests/") || f.path.ends_with("tests.rs"))
        })
        .collect();

    let exports = operator_exports(ops);
    let opts_bases: BTreeSet<&str> = exports
        .iter()
        .filter_map(|(n, _)| n.strip_suffix("_opts"))
        .collect();

    let mut out = Vec::new();
    for (name, line) in &exports {
        let base = name.strip_suffix("_opts").unwrap_or(name).to_string();
        if !spec_fns.contains(&base) {
            out.push(Diagnostic {
                path: ops.path.clone(),
                line: *line,
                rule: "oracle",
                message: format!(
                    "operator `{name}` has no `specops::{base}` oracle — add the \
                     literal-spec twin before trusting the fast path"
                ),
            });
            continue;
        }
        // The oracle must be *called*; a name inside a string or comment
        // earns nothing.
        let callers: Vec<&&SourceFile> = proptests
            .iter()
            .filter(|f| calls(f, "specops", &base))
            .collect();
        if callers.is_empty() {
            out.push(Diagnostic {
                path: ops.path.clone(),
                line: *line,
                rule: "oracle",
                message: format!(
                    "no proptest calls `specops::{base}(...)` — operator `{name}` \
                     is effectively unoracled (a textual mention is not a test)"
                ),
            });
            continue;
        }
        let paired: Vec<&&&SourceFile> = callers
            .iter()
            .filter(|f| calls(f, "ops", &base) || calls(f, "ops", &format!("{base}_opts")))
            .collect();
        if paired.is_empty() {
            out.push(Diagnostic {
                path: ops.path.clone(),
                line: *line,
                rule: "oracle",
                message: format!(
                    "`specops::{base}` is called, but no calling proptest file \
                     also runs the physical path (`ops::{base}`) — the oracle \
                     never meets the fast path"
                ),
            });
            continue;
        }
        if opts_bases.contains(base.as_str()) {
            let threads_ok = paired.iter().any(|f| {
                let ev = thread_evidence(f);
                ev.contains(&1) && ev.contains(&4)
            });
            if !threads_ok {
                out.push(Diagnostic {
                    path: ops.path.clone(),
                    line: *line,
                    rule: "oracle",
                    message: format!(
                        "operator `{name}` has a threaded fast path but no \
                         oracle proptest pins both threads=1 and threads=4 \
                         (use serial()/with_threads(1) and with_threads(4))"
                    ),
                });
            }
        }
    }
    out
}

/// Public operator exports of `ops.rs`: module-level `pub fn`s that take
/// a relational argument and return `Result`, with the line of the `fn`.
pub fn operator_exports(f: &SourceFile) -> Vec<(String, u32)> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct(b'{') => depth += 1,
            Tok::Punct(b'}') => depth -= 1,
            Tok::Ident(kw)
                if kw == "pub"
                    && depth == 0
                    && !f.in_test(i)
                    && toks.get(i + 1).is_some_and(|t| t.tok.is_ident("fn")) =>
            {
                if let Some(name) = toks.get(i + 2).and_then(|t| t.tok.ident()) {
                    // The signature runs to the body `{`; relational +
                    // Result detection is a token scan over it.
                    let mut j = i + 3;
                    let mut relational = false;
                    let mut fallible = false;
                    while j < toks.len() && !toks[j].tok.is(b'{') && !toks[j].tok.is(b';') {
                        if let Some(id) = toks[j].tok.ident() {
                            relational |= id == "MKRel";
                            fallible |= id == "Result";
                        }
                        j += 1;
                    }
                    if relational && fallible {
                        out.push((name.to_string(), toks[i].line));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// All `fn` names declared in a file (any visibility, any depth).
fn fn_names(f: &SourceFile) -> Vec<String> {
    let toks = &f.tokens;
    (0..toks.len())
        .filter(|&i| toks[i].tok.is_ident("fn"))
        .filter_map(|i| {
            toks.get(i + 1)
                .and_then(|t| t.tok.ident())
                .map(str::to_string)
        })
        .collect()
}

/// True iff the file contains a call expression
/// `<module>::<name>(...)` — optionally with a turbofish between the
/// name and the argument list.
fn calls(f: &SourceFile, module: &str, name: &str) -> bool {
    let toks = &f.tokens;
    (0..toks.len().saturating_sub(4)).any(|i| {
        if !(toks[i].tok.is_ident(module)
            && toks[i + 1].tok.is(b':')
            && toks[i + 2].tok.is(b':')
            && toks[i + 3].tok.is_ident(name))
        {
            return false;
        }
        let mut j = i + 4;
        if toks.get(j).is_some_and(|t| t.tok.is(b':'))
            && toks.get(j + 1).is_some_and(|t| t.tok.is(b':'))
            && toks.get(j + 2).is_some_and(|t| t.tok.is(b'<'))
        {
            let mut depth = 1u32;
            j += 3;
            while j < toks.len() && depth > 0 {
                if toks[j].tok.is(b'<') {
                    depth += 1;
                } else if toks[j].tok.is(b'>') {
                    depth -= 1;
                }
                j += 1;
            }
        }
        toks.get(j).is_some_and(|t| t.tok.is(b'('))
    })
}

/// Thread counts a test file demonstrably runs the physical path at:
/// `with_threads(<n>)` literals, `serial()` (= 1), and `with_threads(v)`
/// where `v` is a `for v in [<n>, ...]` loop variable over a literal
/// array.
fn thread_evidence(f: &SourceFile) -> BTreeSet<u64> {
    let toks = &f.tokens;
    let mut out = BTreeSet::new();

    // Loop variables drawn from literal arrays: `for t in [1, 4] { .. }`.
    let mut loop_vars: Vec<(&str, Vec<u64>)> = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].tok.is_ident("for") {
            continue;
        }
        let Some(var) = toks.get(i + 1).and_then(|t| t.tok.ident()) else {
            continue;
        };
        if !toks.get(i + 2).is_some_and(|t| t.tok.is_ident("in"))
            || !toks.get(i + 3).is_some_and(|t| t.tok.is(b'['))
        {
            continue;
        }
        let close = f.matches[i + 3];
        if close == usize::MAX {
            continue;
        }
        let nums: Vec<u64> = toks[i + 4..close]
            .iter()
            .filter_map(|t| t.tok.num_value())
            .collect();
        if !nums.is_empty() {
            loop_vars.push((var, nums));
        }
    }

    for i in 0..toks.len() {
        if toks[i].tok.is_ident("serial") && toks.get(i + 1).is_some_and(|t| t.tok.is(b'(')) {
            out.insert(1);
        }
        if toks[i].tok.is_ident("with_threads") && toks.get(i + 1).is_some_and(|t| t.tok.is(b'(')) {
            if let Some(t) = toks.get(i + 2) {
                if let Some(n) = t.tok.num_value() {
                    out.insert(n);
                } else if let Some(id) = t.tok.ident() {
                    for (v, nums) in &loop_vars {
                        if *v == id {
                            out.extend(nums.iter().copied());
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(ops: &str, spec: &str, prop: &str) -> Workspace {
        Workspace {
            files: vec![
                SourceFile::new(OPS_PATH, ops),
                SourceFile::new(SPECOPS_PATH, spec),
                SourceFile::new("crates/core/tests/hash_vs_spec_proptests.rs", prop),
            ],
        }
    }

    const OPS: &str = "\
pub fn union<A>(r1: &MKRel<A>, r2: &MKRel<A>) -> Result<MKRel<A>> { todo() }
pub fn union_opts<A>(r1: &MKRel<A>, r2: &MKRel<A>, o: Opts) -> Result<MKRel<A>> { todo() }
pub fn has_symbolic<A>(rel: &MKRel<A>) -> bool { false }
";
    const SPEC: &str =
        "pub fn union<A>(r1: &MKRel<A>, r2: &MKRel<A>) -> Result<MKRel<A>> { todo() }";

    #[test]
    fn covered_operator_at_both_thread_counts_passes() {
        let prop = "\
fn t() {
    let spec = specops::union(&a, &b).unwrap();
    let one = ops::union_opts(&a, &b, ExecOptions::serial()).unwrap();
    let four = ops::union_opts(&a, &b, ExecOptions::default().with_threads(4)).unwrap();
}
";
        let w = ws(OPS, SPEC, prop);
        let d = check(&w);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn thread_loop_variable_counts_as_evidence() {
        let prop = "\
fn t() {
    let spec = specops::union(&a, &b).unwrap();
    for threads in [1, 4] {
        let got = ops::union_opts(&a, &b, ExecOptions::default().with_threads(threads)).unwrap();
    }
}
";
        assert!(check(&ws(OPS, SPEC, prop)).is_empty());
    }

    #[test]
    fn missing_oracle_is_flagged_once_per_export() {
        let w = ws(OPS, "", "");
        let d = check(&w);
        // `union` and `union_opts` both fail (same base); the bool-
        // returning predicate is not an operator export.
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|x| x.rule == "oracle"));
        assert_eq!(d[0].line, 1);
        assert_eq!(d[1].line, 2);
    }

    #[test]
    fn textual_mention_without_a_call_is_flagged() {
        // `specops::union` appears as a fn-pointer reference (no call
        // parens) and inside a string — neither is an oracle run.
        let prop = "\
fn t() {
    let f = specops::union;
    log(\"compared against specops::union\");
    let got = ops::union(&a, &b).unwrap();
}
";
        let d = check(&ws(OPS, SPEC, prop));
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(
            d[0].message.contains("no proptest calls"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn oracle_call_without_physical_path_is_flagged() {
        let prop = "fn t() { let spec = specops::union(&a, &b).unwrap(); }";
        let d = check(&ws(OPS, SPEC, prop));
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(
            d[0].message.contains("never meets the fast path"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn missing_thread_evidence_is_flagged_for_opts_operators() {
        let prop = "\
fn t() {
    let spec = specops::union(&a, &b).unwrap();
    let got = ops::union_opts(&a, &b, ExecOptions::default().with_threads(4)).unwrap();
}
";
        let d = check(&ws(OPS, SPEC, prop));
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("threads=1"), "{}", d[0].message);

        // An operator with no `_opts` variant needs no thread evidence.
        let ops_single = "pub fn union<A>(r: &MKRel<A>) -> Result<MKRel<A>> { todo() }\n";
        let prop_single = "fn t() { specops::union(&a); ops::union(&a); }";
        assert!(check(&ws(ops_single, SPEC, prop_single)).is_empty());
    }

    #[test]
    fn turbofish_calls_count() {
        let prop = "\
fn t() {
    let spec = specops::union::<Tropical>(&a, &b).unwrap();
    let one = ops::union_opts::<Tropical>(&a, &b, ExecOptions::serial()).unwrap();
    let four = ops::union_opts::<Tropical>(&a, &b, opts.with_threads(4)).unwrap();
}
";
        assert!(check(&ws(OPS, SPEC, prop)).is_empty());
    }
}
