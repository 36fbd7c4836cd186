//! Hostile SQL text never panics the prepare path.
//!
//! `aggprov_engine` denies clippy's `indexing_slicing` / `unwrap_used` /
//! `expect_used` / `panic` family crate-wide, which rules out the panics
//! a lint can see. This suite covers the rest — string slicing on a
//! non-boundary, arithmetic, recursion — by running arbitrary text
//! through everything a client reaches with `prepare`/`query`:
//! [`lexer::lex`], [`parser::parse_query`] and [`ProvDb::prepare`]. Each
//! must return `Ok` or `Err`; a test here fails by the panic itself.
//!
//! Two generators: raw printable ASCII, and a soup of SQL fragments that
//! gets far enough to reach the planner — keywords, real table and column
//! names, unbalanced quotes and parentheses, a lone `$`, digits followed
//! by `.`, and multi-byte UTF-8 (including the two-byte characters whose
//! *second* byte is Latin-1 whitespace).

use aggprov_engine::{lexer, parser, ProvDb};
use proptest::prelude::*;

#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP BY", "HAVING", "UNION", "EXCEPT", "JOIN", "ON", "AS", "AND",
    "SUM(", "COUNT(*)", "AVG(", "MAX(", "emp", "dept", "sal", "r", "e.dept", "*", ",", ";", "(",
    ")", "'", "'d1'", "$", "$1", "$0", "$99999999999", "1", "1.", "1.5", "1.5.2", ".", "-", "- 1",
    "--", "=", "!=", "!", "<", "<=", "<>", ">", ">=", " ", "\n", "\t", "_", "é", "日本", "\u{85}",
    "\u{a0}", "😀", "\0",
];

fn fragment_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..24)
        .prop_map(|parts| parts.join(" "))
}

fn db() -> ProvDb {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE emp (dept TEXT, sal NUM);
         INSERT INTO emp VALUES ('d1', 20) PROVENANCE p1;
         CREATE TABLE r (dept TEXT, sal NUM);",
    )
    .expect("seed");
    db
}

/// Everything a client's SQL text passes through before execution.
fn prepare_path(db: &ProvDb, sql: &str) {
    let _ = lexer::lex(sql);
    let _ = parser::parse_query(sql);
    let _ = db.prepare(sql);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn printable_ascii_never_panics(sql in ".{0,80}") {
        prepare_path(&db(), &sql);
    }

    #[test]
    fn sql_fragment_soup_never_panics(sql in fragment_soup()) {
        prepare_path(&db(), &sql);
        // The same soup glued without separators: tokens end where the
        // next fragment begins.
        prepare_path(&db(), &sql.replace(' ', ""));
    }

    #[test]
    fn a_valid_query_with_one_fragment_spliced_in_never_panics(
        at in 0usize..60,
        piece in prop::sample::select(FRAGMENTS.to_vec()),
    ) {
        let base = "SELECT dept, SUM(sal) AS m FROM emp WHERE sal > 1.5 GROUP BY dept";
        let at = at.min(base.len());
        prepare_path(&db(), &format!("{}{piece}{}", &base[..at], &base[at..]));
    }
}
