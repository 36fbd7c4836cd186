//! The deletion-propagation contract: `examples/deletion_propagation.rs`
//! demos one-shot deletion on a stored result (fire tokens, substitute,
//! re-collapse — no re-evaluation). Incremental view maintenance is the
//! *live* generalization of exactly that machinery, so the two must agree
//! bit for bit: a materialized view after [`ProvDb::delete_tokens`] is the
//! example's `ResultSet::delete_tokens` output, and both collapse to the
//! same plain relation as the example's `Valuation::deleting` route.

use aggprov::prelude::*;
use aggprov::workloads::org::{org_database, OrgParams};
use aggprov_algebra::semiring::Nat;
use aggprov_engine::MaintenanceStrategy;

const QUERY: &str = "SELECT dept, SUM(sal) AS mass FROM emp GROUP BY dept";

/// The example's parameters, scenario ("every 7th employee resigns"), and
/// query — verbatim.
fn example_setup() -> (aggprov_engine::ProvDb, Vec<String>) {
    let (db, workload) = org_database(OrgParams {
        departments: 30,
        employees_per_dept: 60,
        ..Default::default()
    });
    let fired: Vec<String> = workload.emp_tokens.iter().step_by(7).cloned().collect();
    (db, fired)
}

#[test]
fn incremental_maintenance_matches_one_shot_deletion() {
    let (mut db, fired) = example_setup();

    // The example's route: evaluate once, fire the tokens on the stored
    // result.
    let symbolic = db.prepare(QUERY).unwrap().execute().unwrap();
    let one_shot = symbolic.delete_tokens(fired.iter().map(|s| s.as_str()));

    // The maintenance route: materialize first, mutate the database.
    db.materialize("mass", QUERY).unwrap();
    assert_eq!(
        db.view_strategy("mass").unwrap(),
        MaintenanceStrategy::Incremental
    );
    db.delete_tokens(fired.iter().map(|s| s.as_str())).unwrap();

    // Bit-identical at the provenance level: same rows, same symbolic
    // aggregate values, same annotation polynomials.
    assert_eq!(db.view("mass").unwrap(), one_shot.relation());
}

#[test]
fn maintained_view_collapses_like_the_examples_valuation_route() {
    let (mut db, fired) = example_setup();

    // Route 1 of the example: specialize the stored provenance under the
    // deleting valuation and collapse to plain bag semantics.
    let symbolic = db.prepare(QUERY).unwrap().execute().unwrap();
    let val: Valuation<Nat> = Valuation::deleting(fired.iter().map(|s| s.as_str()));
    let via_provenance = symbolic.valuate(&val).collapse().unwrap();

    // The maintained view after the same deletions, read at face value.
    db.materialize("mass", QUERY).unwrap();
    db.delete_tokens(fired.iter().map(|s| s.as_str())).unwrap();
    let via_view = ResultSet::from_relation(db.view("mass").unwrap().clone())
        .valuate(&Valuation::<Nat>::ones())
        .collapse()
        .unwrap();

    assert_eq!(via_provenance.relation(), via_view.relation());
}

#[test]
fn deletion_touches_only_what_mentions_a_fired_token() {
    let (mut db, fired) = example_setup();
    db.prepare("SELECT dept FROM dept").unwrap();
    db.prepare("SELECT emp FROM emp").unwrap();
    let plans = db.cached_plan_count();
    let before = db.snapshot();

    // A token no table mentions: nothing is remapped, copied or invalidated.
    db.delete_tokens(["no-such-token"]).unwrap();
    for table in ["emp", "dept"] {
        let (live, frozen) = (db.table(table).unwrap(), before.table(table).unwrap());
        assert!(live.shares_tuples_with(frozen), "`{table}` was rebuilt");
    }
    assert_eq!(db.cached_plan_count(), plans);

    // Employee tokens: `dept` keeps its store and its cached plan, `emp`
    // is rebuilt, and the surviving rows keep their annotations — carried
    // over, not re-derived: equal, and an annotation that holds shared
    // term storage holds the snapshot's.
    db.delete_tokens(fired.iter().map(|s| s.as_str())).unwrap();
    let (dept, emp) = (db.table("dept").unwrap(), db.table("emp").unwrap());
    assert!(dept.shares_tuples_with(before.table("dept").unwrap()));
    assert_eq!(db.cached_plan_count(), plans - 1);
    let frozen = before.table("emp").unwrap();
    assert_eq!(emp.len(), frozen.len() - fired.len());
    for (t, k) in emp.iter() {
        // Base rows are ground: any shared storage is the `ℕ[X]`'s (a
        // single token holds its term inline, so it has none).
        let (k, old) = (k.try_collapse().unwrap(), frozen.annotation(&t));
        let old = old.try_collapse().unwrap();
        assert_eq!(k, old, "row {t}");
        assert_eq!(
            k.shares_terms_with(&old),
            old.shares_terms_with(&old),
            "row {t}"
        );
    }
}

#[test]
fn an_spj_view_no_fired_token_reaches_keeps_its_store() {
    const LOW: &str = "SELECT emp, sal FROM r WHERE sal < 16";
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (emp NUM, dept TEXT, sal NUM);
         INSERT INTO r VALUES (1, 'd1', 20) PROVENANCE p1;
         INSERT INTO r VALUES (2, 'd1', 10) PROVENANCE p2;
         INSERT INTO r VALUES (3, 'd2', 15) PROVENANCE p3;",
    )
    .unwrap();
    db.materialize("low", LOW).unwrap();
    assert_eq!(
        db.view_strategy("low").unwrap(),
        MaintenanceStrategy::Incremental
    );
    let before = db.snapshot();

    // `p1` annotates a row of `r` that the view's WHERE drops: the table
    // loses it, and the view is not rebuilt — it keeps its store.
    db.delete_tokens(["p1"]).unwrap();
    assert_eq!(db.table("r").unwrap().len(), 2);
    let (live, frozen) = (db.view("low").unwrap(), before.view("low").unwrap());
    assert!(live.shares_tuples_with(frozen), "the view was rebuilt");

    // A token that reaches a view row edits that row, as re-execution
    // over the remaining rows reads it.
    db.delete_tokens(["p2"]).unwrap();
    let fresh = db.prepare(LOW).unwrap().execute().unwrap();
    assert_eq!(db.view("low").unwrap(), fresh.relation());
    assert_eq!(fresh.len(), 1);
}
