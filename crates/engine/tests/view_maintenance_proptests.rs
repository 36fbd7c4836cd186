//! Property tests for materialized-view maintenance: under interleaved
//! `INSERT` / `delete_tokens` streams, every maintained view stays
//! bit-identical to a from-scratch re-execution of its SQL (at one *and*
//! four worker threads) and — for the directly oracled shapes — to an
//! expectation built from the literal §4.3 reference kernels
//! (`specops::group_by`, manual selection).
//!
//! Four view shapes ride along:
//! - `v1` plain `GROUP BY` — incremental group-state maintenance,
//! - `v2` selection (SPJ) — incremental additive delta merge,
//! - `v3` `HAVING` — degrades to eager recomputation (still maintained),
//! - `v4` join + `GROUP BY` — incremental through the join.

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_core::ops::AggSpec;
use aggprov_core::{specops, Value};
use aggprov_engine::{ExecOptions, MaintenanceStrategy, ProvDb};
use proptest::prelude::*;

const V1_SQL: &str = "SELECT dept, SUM(sal) AS total FROM emp GROUP BY dept";
const V2_SQL: &str = "SELECT dept, sal FROM emp WHERE sal > 10";
const V3_SQL: &str =
    "SELECT dept, SUM(sal) AS total, COUNT(*) AS n FROM emp GROUP BY dept HAVING total > 20";
const V4_SQL: &str = "SELECT d.region, SUM(e.sal) AS mass FROM emp e \
                      JOIN dept d ON e.dept = d.dept GROUP BY d.region";

/// Grouped shapes whose select list is not the aggregate's own column
/// order — what the view's composed root projection (`out_cols`) has to
/// get right, because a grouped view's relation is *rendered* from its
/// group state, not taken from the executor: the aggregate ahead of its
/// key, a key read twice, two keys in swapped order, and the join view
/// beside the plain one.
const RENDERED_VIEWS: [(&str, &str); 5] = [
    ("v1", V1_SQL),
    ("v4", V4_SQL),
    (
        "agg_first",
        "SELECT SUM(sal) AS total, dept FROM emp GROUP BY dept",
    ),
    (
        "key_twice",
        "SELECT dept AS a, dept AS b, MAX(sal) AS m FROM emp GROUP BY dept",
    ),
    (
        "keys_swapped",
        "SELECT sal, COUNT(*) AS n, dept FROM emp GROUP BY dept, sal",
    ),
];

const VIEWS: [(&str, &str); 4] = [
    ("v1", V1_SQL),
    ("v2", V2_SQL),
    ("v3", V3_SQL),
    ("v4", V4_SQL),
];

#[derive(Clone, Debug)]
enum Op {
    /// `INSERT INTO emp VALUES (dept, sal) PROVENANCE p<n>`.
    Insert { dept: i64, sal: i64 },
    /// Fire a batch of already-issued `p<i>` tokens.
    DeleteTokens(Vec<usize>),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0i64..4, 0i64..40).prop_map(|(dept, sal)| Op::Insert { dept, sal }),
            (0i64..4, 0i64..40).prop_map(|(dept, sal)| Op::Insert { dept, sal }),
            (0i64..4, 0i64..40).prop_map(|(dept, sal)| Op::Insert { dept, sal }),
            prop::collection::vec(0usize..16, 1..4).prop_map(Op::DeleteTokens),
        ],
        0..12,
    )
}

fn setup() -> ProvDb {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE emp (dept NUM, sal NUM);
         CREATE TABLE dept (dept NUM, region NUM);
         INSERT INTO dept VALUES (0, 100) PROVENANCE d0;
         INSERT INTO dept VALUES (1, 100) PROVENANCE d1;
         INSERT INTO dept VALUES (2, 200) PROVENANCE d2;
         INSERT INTO dept VALUES (3, 200) PROVENANCE d3;",
    )
    .unwrap();
    for (name, sql) in VIEWS {
        db.materialize(name, sql).unwrap();
    }
    db
}

/// Every view must equal a from-scratch re-execution of its SQL, bit for
/// bit, at one and at four worker threads.
fn check_against_reexecution(db: &ProvDb) {
    check_views_against_reexecution(db, &VIEWS);
}

fn check_views_against_reexecution(db: &ProvDb, views: &[(&str, &str)]) {
    for &(name, sql) in views {
        let view = db.view(name).unwrap();
        let prepared = db.prepare(sql).unwrap();
        let serial = prepared
            .execute_with_opts(&[], &ExecOptions::serial())
            .unwrap()
            .into_relation();
        assert_eq!(view, &serial, "view `{name}` != serial re-execution");
        let par = prepared
            .execute_with_opts(&[], &ExecOptions::with_threads(4))
            .unwrap()
            .into_relation();
        assert_eq!(view, &par, "view `{name}` != 4-thread re-execution");
    }
}

/// The directly oracled shapes: `v1` against the literal §4.3
/// `specops::group_by` over the base table, `v2` against a hand-rolled
/// selection (annotations untouched, rows kept verbatim).
fn check_against_specops(db: &ProvDb) {
    let emp = db.table("emp").unwrap();
    let expected_v1 = specops::group_by(
        emp,
        &["dept"],
        &[AggSpec {
            kind: MonoidKind::Sum,
            attr: "sal",
            out: "total",
        }],
    )
    .unwrap();
    assert_eq!(
        db.view("v1").unwrap(),
        &expected_v1,
        "v1 != specops::group_by"
    );

    let expected_v2 = emp.select(|schema, t| {
        let i = schema.index_of("sal").unwrap();
        matches!(t.get(i), Value::Const(Const::Num(n)) if *n > 10.into())
    });
    assert_eq!(
        db.view("v2").unwrap(),
        &expected_v2,
        "v2 != literal selection"
    );
}

fn apply_ops(db: &mut ProvDb, ops: &[Op], check_each: bool) {
    let mut issued = 0usize;
    for op in ops {
        match op {
            Op::Insert { dept, sal } => {
                db.exec(&format!(
                    "INSERT INTO emp VALUES ({dept}, {sal}) PROVENANCE p{issued}"
                ))
                .unwrap();
                issued += 1;
            }
            Op::DeleteTokens(picks) => {
                if issued == 0 {
                    continue;
                }
                let tokens: Vec<String> =
                    picks.iter().map(|i| format!("p{}", i % issued)).collect();
                db.delete_tokens(tokens.iter().map(|s| s.as_str())).unwrap();
            }
        }
        if check_each {
            check_against_reexecution(db);
            check_against_specops(db);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After *every* mutation of the stream, every view equals its
    /// re-execution (both thread counts) and the oracled shapes equal
    /// their `specops` expectations.
    #[test]
    fn maintained_views_track_mutation_streams(ops in arb_ops()) {
        let mut db = setup();
        check_against_reexecution(&db);
        check_against_specops(&db);
        apply_ops(&mut db, &ops, true);
    }

    /// Materializing over *populated* tables — after the stream, where
    /// the other properties materialize over empty ones — builds every
    /// grouped view from one fold of its input, and that render equals the
    /// executed query (both thread counts) and, for `v1`, the literal
    /// `specops::group_by`. The views then keep tracking mutations.
    #[test]
    fn materialize_over_populated_tables_equals_execution(
        ops in arb_ops(),
        more in arb_ops(),
    ) {
        let mut db = setup();
        apply_ops(&mut db, &ops, false);
        for (name, _) in VIEWS {
            db.drop_view(name).unwrap();
        }
        for (name, sql) in RENDERED_VIEWS {
            db.materialize(name, sql).unwrap();
            prop_assert_eq!(
                db.view_strategy(name).unwrap(),
                MaintenanceStrategy::Incremental,
                "strategy of `{}`", name
            );
        }
        check_views_against_reexecution(&db, &RENDERED_VIEWS);
        db.materialize("v2", V2_SQL).unwrap();
        check_against_specops(&db);
        apply_ops(&mut db, &more, false);
        check_views_against_reexecution(&db, &RENDERED_VIEWS);
    }

    /// A snapshot taken mid-stream keeps its frozen view state while the
    /// live database keeps mutating (views are epoch state).
    #[test]
    fn snapshots_freeze_views(ops in arb_ops(), cut in 0usize..12) {
        let mut db = setup();
        let cut = cut.min(ops.len());
        apply_ops(&mut db, &ops[..cut], false);
        let snap = db.snapshot();
        let frozen: Vec<_> = VIEWS
            .iter()
            .map(|(name, _)| snap.view(name).unwrap().clone())
            .collect();
        apply_ops(&mut db, &ops[cut..], false);
        check_against_reexecution(&db);
        for ((name, _), before) in VIEWS.iter().zip(&frozen) {
            assert_eq!(snap.view(name).unwrap(), before, "snapshot view `{name}` moved");
        }
    }
}

#[test]
fn strategies_classify_as_documented() {
    let db = setup();
    for (name, strategy) in [
        ("v1", MaintenanceStrategy::Incremental),
        ("v2", MaintenanceStrategy::Incremental),
        ("v3", MaintenanceStrategy::Recompute),
        ("v4", MaintenanceStrategy::Incremental),
    ] {
        assert_eq!(
            db.view_strategy(name).unwrap(),
            strategy,
            "strategy of `{name}`"
        );
    }
}

#[test]
fn view_lifecycle_and_errors() {
    let mut db = setup();
    // Duplicate names, unknown views, parameterized views are rejected.
    assert!(db.materialize("v1", V1_SQL).is_err());
    assert!(db.view("nope").is_err());
    assert!(db
        .materialize("p", "SELECT dept FROM emp WHERE sal = $1")
        .is_err());
    assert_eq!(db.view_sql("v1").unwrap(), V1_SQL);
    assert_eq!(db.view_names().count(), 4);
    db.drop_view("v2").unwrap();
    assert!(db.view("v2").is_err());
    assert_eq!(db.view_names().count(), 3);
    // Dropping a base table breaks its dependents loudly (no stale reads);
    // unaffected views keep working.
    db.exec("DROP TABLE dept").unwrap();
    let err = db.view("v4").unwrap_err().to_string();
    assert!(err.contains("broken"), "unexpected error: {err}");
    assert!(db.view("v1").is_ok());
}

#[test]
fn register_refreshes_dependent_views() {
    let mut db = setup();
    // Replace `emp` wholesale: views re-materialize from their SQL.
    let mut other = ProvDb::new();
    other
        .exec(
            "CREATE TABLE emp (dept NUM, sal NUM);
             INSERT INTO emp VALUES (1, 30) PROVENANCE q1;
             INSERT INTO emp VALUES (2, 12) PROVENANCE q2;",
        )
        .unwrap();
    db.register("emp", other.table("emp").unwrap().clone());
    check_against_reexecution(&db);
    check_against_specops(&db);
    // And the refreshed views keep delta-maintaining afterwards.
    db.exec("INSERT INTO emp VALUES (1, 5) PROVENANCE q3")
        .unwrap();
    db.delete_tokens(["q2"]).unwrap();
    check_against_reexecution(&db);
    check_against_specops(&db);
}
