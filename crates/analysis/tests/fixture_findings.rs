//! End-to-end fixture tests: each rule fires at a pinned `file:line` on
//! its violation fixture.
//!
//! Fixtures live in `tests/fixtures/` and are *excluded* from the real
//! workspace walk — they exist only to be loaded here under in-scope
//! pseudo-paths.

use analysis::rules::run_all;
use analysis::{Diagnostic, SourceFile, Workspace};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn ws(files: Vec<(&str, String)>) -> Workspace {
    Workspace {
        files: files
            .into_iter()
            .map(|(p, text)| SourceFile::new(p, text))
            .collect(),
    }
}

fn of_rule<'a>(d: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    d.iter().filter(|x| x.rule == rule).collect()
}

#[test]
fn lock_rule_fires_on_nesting_and_io_at_pinned_lines() {
    let w = ws(vec![(
        "crates/server/src/stream.rs",
        fixture("lock_discipline.rs"),
    )]);
    let d = run_all(&w);
    let locks = of_rule(&d, "lock");
    assert_eq!(
        locks.iter().map(|x| x.line).collect::<Vec<_>>(),
        vec![6, 12],
        "{d:?}"
    );
    assert!(locks[0].message.contains("line 5"), "{}", locks[0].message);
    assert!(
        locks[1].message.contains("stream I/O"),
        "{}",
        locks[1].message
    );
    assert!(locks[1].message.contains("line 11"), "{}", locks[1].message);
}

#[test]
fn lock_order_cycle_fires_across_files_at_the_witness_call() {
    let w = ws(vec![
        ("crates/engine/src/fwd.rs", fixture("deadlock_forward.rs")),
        ("crates/server/src/bwd.rs", fixture("deadlock_backward.rs")),
    ]);
    let d = run_all(&w);
    let lo = of_rule(&d, "lock-order");
    assert_eq!(lo.len(), 1, "{d:?}");
    // The witness is the lexicographically-first edge on the cycle:
    // `backward` takes `db` (via `touch_db`) while holding `cache`.
    assert_eq!(
        (lo[0].path.as_str(), lo[0].line),
        ("crates/server/src/bwd.rs", 8)
    );
    assert!(lo[0].message.contains("cycle"), "{}", lo[0].message);
    assert!(lo[0].message.contains("cache"), "{}", lo[0].message);
    assert!(lo[0].message.contains("db"), "{}", lo[0].message);
}

#[test]
fn oracle_rule_flags_missing_and_uncalled_twins() {
    let w = ws(vec![
        ("crates/core/src/ops.rs", fixture("oracle_ops.rs")),
        ("crates/core/src/specops.rs", fixture("oracle_specops.rs")),
    ]);
    let d = run_all(&w);
    let o = of_rule(&d, "oracle");
    assert_eq!(o.len(), 2, "{d:?}");
    assert_eq!(o[0].line, 4);
    assert!(
        o[0].message.contains("no `specops::frobnicate` oracle"),
        "{}",
        o[0].message
    );
    assert_eq!(o[1].line, 8);
    assert!(
        o[1].message.contains("no proptest calls"),
        "{}",
        o[1].message
    );
}

#[test]
fn oracle_rule_rejects_textual_only_references() {
    // The proptest mentions `specops::orphaned` in a string and takes a
    // fn pointer to it, but never *calls* it — still unoracled, pinned
    // at the operator's export line.
    let w = ws(vec![
        ("crates/core/src/ops.rs", fixture("oracle_specops.rs")),
        ("crates/core/src/specops.rs", fixture("oracle_specops.rs")),
        (
            "crates/core/tests/textual_proptests.rs",
            fixture("oracle_textual_proptest.rs"),
        ),
    ]);
    let d = run_all(&w);
    let o = of_rule(&d, "oracle");
    assert_eq!(o.len(), 1, "{d:?}");
    assert_eq!(
        (o[0].path.as_str(), o[0].line),
        ("crates/core/src/ops.rs", 4)
    );
    assert!(
        o[0].message.contains("textual mention is not a test"),
        "{}",
        o[0].message
    );
}

#[test]
fn oracle_rule_is_satisfied_by_a_proptest_calling_both_paths() {
    let proptest = "#[test]\n\
                    fn orphaned_matches() {\n\
                    let s = specops::orphaned(&r).unwrap();\n\
                    let f = ops::orphaned(&r).unwrap();\n\
                    }\n";
    let w = ws(vec![
        ("crates/core/src/ops.rs", fixture("oracle_specops.rs")),
        ("crates/core/src/specops.rs", fixture("oracle_specops.rs")),
        ("crates/core/tests/x_proptests.rs", proptest.to_string()),
    ]);
    let d = run_all(&w);
    assert!(of_rule(&d, "oracle").is_empty(), "{d:?}");
}
