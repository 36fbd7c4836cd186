//! The prepared-statement API end to end: plan reuse with different `$n`
//! parameters, fluent `ResultSet` interrogation equivalent to the
//! free-function `map_hom_mk` + `collapse` path, and the error surface.

use aggprov::core::eval::{collapse, map_hom_mk, specialize};
use aggprov::core::km::Atom;
use aggprov::core::ops::{AggSpec, MKRel};
use aggprov::core::specops;
use aggprov::krel::relation::Relation;
use aggprov::krel::schema::Schema;
use aggprov::prelude::*;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::semiring::{Nat, Security};

fn figure_1_db() -> ProvDb {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (emp NUM, dept TEXT, sal NUM);
         INSERT INTO r VALUES (1, 'd1', 20) PROVENANCE p1;
         INSERT INTO r VALUES (2, 'd1', 10) PROVENANCE p2;
         INSERT INTO r VALUES (3, 'd1', 15) PROVENANCE p3;
         INSERT INTO r VALUES (4, 'd2', 10) PROVENANCE r1;
         INSERT INTO r VALUES (5, 'd2', 15) PROVENANCE r2;",
    )
    .unwrap();
    db
}

// ------------------------------------------------------------ reuse

#[test]
fn prepared_statement_reuses_the_plan_across_parameters() {
    let db = figure_1_db();
    let by_dept = db
        .prepare("SELECT emp, sal FROM r WHERE dept = $1")
        .unwrap();
    assert_eq!(by_dept.param_count(), 1);
    assert_eq!(by_dept.schema().to_string(), "emp, sal");

    let d1 = by_dept.execute_with(&[Const::str("d1")]).unwrap();
    let d2 = by_dept.execute_with(&[Const::str("d2")]).unwrap();
    assert_eq!(d1.len(), 3);
    assert_eq!(d2.len(), 2);

    // Executing twice with the same parameters is deterministic and does
    // not consume the statement.
    let d1_again = by_dept.execute_with(&[Const::str("d1")]).unwrap();
    assert_eq!(d1.relation(), d1_again.relation());
    // The plan is the same object across executions — nothing was
    // re-parsed or re-lowered.
    assert!(std::ptr::eq(by_dept.plan(), by_dept.plan()));
}

#[test]
fn parameters_work_in_having_and_with_numbers() {
    let db = figure_1_db();
    let stmt = db
        .prepare("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept HAVING total = $1")
        .unwrap();
    // Both groups stay symbolic; under the all-ones valuation only the
    // group matching the bound constant survives.
    let survivors = |total: i64| {
        stmt.execute_with(&[Const::int(total)])
            .unwrap()
            .valuate(&Valuation::<Nat>::ones())
            .collapse()
            .unwrap()
            .len()
    };
    assert_eq!(survivors(45), 1, "d1 sums to 45");
    assert_eq!(survivors(25), 1, "d2 sums to 25");
    assert_eq!(survivors(99), 0);
}

#[test]
fn query_is_a_thin_wrapper_over_prepare_execute() {
    let db = figure_1_db();
    let sql = "SELECT dept, SUM(sal) AS mass FROM r GROUP BY dept";
    let via_query = db.query(sql).unwrap();
    let via_prepare = db.prepare(sql).unwrap().execute().unwrap().into_relation();
    assert_eq!(via_query, via_prepare);
}

#[test]
fn prepared_statements_cover_joins_subqueries_and_set_ops() {
    let mut db = figure_1_db();
    db.exec(
        "CREATE TABLE heads (dept TEXT, head TEXT);
         INSERT INTO heads VALUES ('d1', 'alice') PROVENANCE h1;
         INSERT INTO heads VALUES ('d2', 'bob') PROVENANCE h2;",
    )
    .unwrap();

    let joined = db
        .prepare(
            "SELECT r.emp, heads.head FROM r JOIN heads ON r.dept = heads.dept \
             WHERE r.sal >= $1",
        )
        .unwrap();
    assert_eq!(joined.execute_with(&[Const::int(15)]).unwrap().len(), 3);
    assert_eq!(joined.execute_with(&[Const::int(20)]).unwrap().len(), 1);

    let nested = db
        .prepare(
            "SELECT SUM(s) AS total FROM \
             (SELECT dept, SUM(sal) AS s FROM r GROUP BY dept HAVING s = $1) g",
        )
        .unwrap();
    let out = nested.execute_with(&[Const::int(25)]).unwrap();
    let resolved = out.valuate(&Valuation::<Nat>::ones()).collapse().unwrap();
    assert_eq!(
        resolved.first().unwrap().get("total").unwrap(),
        &Value::int(25)
    );

    let setop = db
        .prepare("SELECT dept FROM r EXCEPT SELECT dept FROM heads WHERE head = $1")
        .unwrap();
    let out = setop.execute_with(&[Const::str("alice")]).unwrap();
    let resolved = out.valuate(&Valuation::<Nat>::ones()).collapse().unwrap();
    assert_eq!(resolved.len(), 1, "d1 closed by alice, d2 survives");
}

// ------------------------------------------- fluent ResultSet equivalence

#[test]
fn valuate_collapse_matches_the_free_function_path() {
    let db = figure_1_db();
    let out = db
        .prepare("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept HAVING total > 25")
        .unwrap()
        .execute()
        .unwrap();

    for val in [
        Valuation::<Nat>::ones(),
        Valuation::<Nat>::ones().set("p1", Nat(0)),
        Valuation::<Nat>::ones().set("p1", Nat(2)).set("r2", Nat(3)),
        Valuation::<Nat>::deleting(["p1", "p2", "p3"]),
    ] {
        let fluent = out.valuate(&val).collapse().unwrap();
        let free = collapse(&map_hom_mk(out.relation(), &|p: &NatPoly| val.eval(p))).unwrap();
        assert_eq!(fluent.relation(), &free);
        // …and both agree with core's `specialize`.
        let via_specialize = collapse(&specialize(out.relation(), &val)).unwrap();
        assert_eq!(fluent.relation(), &via_specialize);
    }
}

#[test]
fn delete_tokens_is_deletion_propagation() {
    let db = figure_1_db();
    let out = db
        .prepare("SELECT dept, SUM(sal) AS mass FROM r GROUP BY dept")
        .unwrap()
        .execute()
        .unwrap();

    // Fluent deletion propagation…
    let deleted = out.delete_tokens(["r1", "r2"]);
    // …equals the free-function substitution sending the deleted tokens to
    // zero and keeping every other token symbolic.
    let free = map_hom_mk(out.relation(), &|p: &NatPoly| {
        p.eval(
            &mut |v| {
                if v.name() == "r1" || v.name() == "r2" {
                    NatPoly::zero()
                } else {
                    NatPoly::token(v.name())
                }
            },
            &mut |c| NatPoly::from_nat(c.0),
        )
    });
    assert_eq!(deleted.relation(), &free);
    assert_eq!(deleted.len(), 1, "d2's group is gone");
    // The survivors' provenance is still symbolic, token for token.
    assert!(deleted
        .first()
        .unwrap()
        .annotation()
        .to_string()
        .contains("p1"));

    // Deletion stays symbolic: further interrogation still works.
    let plain = deleted
        .valuate(&Valuation::<Nat>::ones())
        .collapse()
        .unwrap();
    assert_eq!(plain.first().unwrap().get("mass").unwrap(), &Value::int(45));
}

#[test]
fn clearance_matches_the_manual_security_view() {
    let mut db: Database<Km<Security>> = Database::new();
    db.exec(
        "CREATE TABLE r (sal NUM);
         INSERT INTO r VALUES (20) PROVENANCE S;
         INSERT INTO r VALUES (10) PROVENANCE PUBLIC;
         INSERT INTO r VALUES (30) PROVENANCE S;",
    )
    .unwrap();
    let out = db
        .prepare("SELECT MAX(sal) AS top FROM r")
        .unwrap()
        .execute()
        .unwrap();

    // Example 3.5: the aggregate stays symbolic until credentials arrive.
    assert!(out.first().unwrap().get("top").unwrap().is_agg());

    for cred in [
        Security::Confidential,
        Security::Secret,
        Security::TopSecret,
    ] {
        let fluent = out.clearance(cred);
        let manual = map_hom_mk(out.relation(), &|s: &Security| {
            if s.visible_to(cred) {
                Security::Public
            } else {
                Security::Never
            }
        });
        assert_eq!(fluent.relation(), &manual);
    }
    assert_eq!(
        out.clearance(Security::Secret).first().unwrap().at(0),
        &Value::int(30)
    );
    assert_eq!(
        out.clearance(Security::Confidential).first().unwrap().at(0),
        &Value::int(10)
    );
}

#[test]
fn rows_give_by_name_access() {
    let db = figure_1_db();
    let out = db
        .prepare("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept")
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(out.columns(), vec!["dept", "total"]);
    assert_eq!(out.column_index("total").unwrap(), 1);

    let mut depts = Vec::new();
    for row in out.rows() {
        depts.push(row.get("dept").unwrap().to_string());
        assert!(row.get("total").unwrap().is_agg());
        assert!(row.get("nope").is_err());
        assert!(!row.annotation().is_zero());
    }
    assert_eq!(depts, vec!["'d1'", "'d2'"]);

    // scalar() reads 1×1 aggregates directly.
    let total = db
        .prepare("SELECT COUNT(*) AS n FROM r")
        .unwrap()
        .execute()
        .unwrap();
    assert!(total.scalar().is_ok());
    assert!(out.scalar().is_err(), "2×2 result has no scalar");
}

// ----------------------------------------------------------- error cases

#[test]
fn unknown_parameters_are_rejected() {
    let db = figure_1_db();

    // Two placeholders referenced but only one value supplied.
    let stmt = db
        .prepare("SELECT emp FROM r WHERE sal = $1 AND dept = $2")
        .unwrap();
    assert_eq!(stmt.param_count(), 2);
    let err = stmt.execute_with(&[Const::int(10)]).unwrap_err();
    assert!(err.to_string().contains("exactly 2 parameter"), "{err}");

    // Executing a parameterized query with no parameters at all.
    let err = stmt.execute().unwrap_err();
    assert!(err.to_string().contains("`$n`"), "{err}");

    // Supplying more parameters than the query uses is also an error.
    let stmt = db.prepare("SELECT emp FROM r WHERE sal = $1").unwrap();
    let err = stmt
        .execute_with(&[Const::int(10), Const::int(20)])
        .unwrap_err();
    assert!(err.to_string().contains("exactly 1 parameter"), "{err}");

    // Gaps in the numbering are rejected at prepare time: a query that
    // says $2 but never $1 has miscounted, and accepting it would
    // silently drop a bound value.
    let err = db.prepare("SELECT emp FROM r WHERE sal = $2").unwrap_err();
    assert!(err.to_string().contains("never $1"), "{err}");

    // $0 is a lex-time error; bare `$` too.
    assert!(db.prepare("SELECT emp FROM r WHERE sal = $0").is_err());
    assert!(db.prepare("SELECT emp FROM r WHERE sal = $").is_err());

    // Scripts cannot use parameters (no way to bind them).
    let mut db = figure_1_db();
    assert!(db.exec("SELECT emp FROM r WHERE sal = $1").is_err());
}

#[test]
fn param_arity_errors_are_a_dedicated_variant_on_both_paths() {
    use aggprov_krel::error::RelError;
    let db = figure_1_db();
    let stmt = db.prepare("SELECT emp FROM r WHERE sal = $1").unwrap();

    // The up-front arity check raises the dedicated variant…
    let err = stmt.execute_with(&[]).unwrap_err();
    assert_eq!(
        err,
        RelError::ParamArity {
            expected: 1,
            got: 0
        }
    );
    // …with the precise human-readable rendering.
    assert_eq!(
        err.to_string(),
        "query expects exactly 1 parameter (`$n`), got 0"
    );
    let err = stmt
        .execute_with(&[Const::int(1), Const::int(2)])
        .unwrap_err();
    assert_eq!(
        err,
        RelError::ParamArity {
            expected: 1,
            got: 2
        }
    );
    assert!(!matches!(err, RelError::Unsupported(_)));
}

#[test]
fn parse_errors_are_a_dedicated_variant_with_positions() {
    use aggprov_krel::error::RelError;
    let db = figure_1_db();

    // A parser error carries the byte offset of the offending token
    // (`FRM` starts at byte 11) in a dedicated variant…
    let err = db.prepare("SELECT emp FRM r").unwrap_err();
    let RelError::Parse { pos, msg } = &err else {
        panic!("expected RelError::Parse, got {err:?}");
    };
    assert_eq!(*pos, 11);
    assert!(msg.contains("expected `FROM`"), "{msg}");
    // …with the familiar `parse error:` rendering kept compatible.
    assert!(err.to_string().starts_with("parse error:"), "{err}");
    assert!(err.to_string().contains("at byte 11"), "{err}");
    assert!(!matches!(err, RelError::Unsupported(_)));

    // Lexer errors are the same variant (position of the bad character).
    let err = db.prepare("SELECT emp FROM r WHERE sal = $0").unwrap_err();
    assert!(matches!(err, RelError::Parse { pos: 30, .. }), "{err:?}");

    // Name-resolution failures are *not* parse errors: the taxonomy
    // separates "bad text" from "unknown name".
    let err = db.prepare("SELECT nope FROM r").unwrap_err();
    assert!(!matches!(err, RelError::Parse { .. }), "{err:?}");
}

// An aggregate call where only a column may stand gets its own message —
// the construct and the way out — at the call's byte offset, not the
// generic "expected …, found `(`" of the token after it.
fn aggregate_misuse(sql: &str) -> (usize, String) {
    match figure_1_db().prepare(sql).map(|_| ()).unwrap_err() {
        aggprov_krel::error::RelError::Parse { pos, msg } => (pos, msg),
        other => panic!("expected RelError::Parse for {sql}, got {other:?}"),
    }
}

#[test]
fn aggregate_in_where_points_at_having() {
    let sql = "SELECT dept FROM r WHERE SUM(sal) > 3";
    let (pos, msg) = aggregate_misuse(sql);
    assert_eq!(pos, sql.find("SUM").unwrap());
    assert!(
        msg.starts_with("aggregates are not allowed in WHERE"),
        "{msg}"
    );
    assert!(msg.contains("HAVING <alias>"), "{msg}");
    // The right-hand operand is checked as well.
    let sql = "SELECT dept FROM r WHERE 3 < max(sal)";
    assert_eq!(aggregate_misuse(sql), (sql.find("max").unwrap(), msg));
}

#[test]
fn aggregate_call_in_having_points_at_the_alias() {
    let sql = "SELECT dept, SUM(sal) AS total FROM r GROUP BY dept HAVING SUM(sal) > 5";
    let (pos, msg) = aggregate_misuse(sql);
    assert_eq!(pos, sql.rfind("SUM").unwrap());
    assert!(
        msg.starts_with("HAVING refers to an aggregate by its AS alias"),
        "{msg}"
    );
    // The alias form the message shows is accepted.
    let by_alias = sql.replace("HAVING SUM(sal)", "HAVING total");
    assert!(figure_1_db().prepare(&by_alias).is_ok());
}

#[test]
fn nested_aggregate_points_at_a_derived_table() {
    let sql = "SELECT dept, SUM(SUM(sal)) FROM r GROUP BY dept";
    let (pos, msg) = aggregate_misuse(sql);
    assert_eq!(pos, sql.rfind("SUM").unwrap());
    assert!(msg.starts_with("aggregates cannot be nested"), "{msg}");
    assert!(msg.contains("derived table"), "{msg}");
}

#[test]
fn aggregate_in_group_by_is_named() {
    let sql = "SELECT dept FROM r GROUP BY SUM(sal)";
    let (pos, msg) = aggregate_misuse(sql);
    assert_eq!(pos, sql.find("SUM").unwrap());
    assert_eq!(msg, "GROUP BY takes columns, not aggregates");
    // The planner's own aggregate error reads as before.
    let err = figure_1_db()
        .prepare("SELECT emp, SUM(sal) FROM r GROUP BY dept")
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("must appear in GROUP BY"), "{err}");
}

#[test]
fn aggregate_in_join_on_is_named() {
    let sql = "SELECT r.dept FROM r JOIN r AS s ON r.dept = s.dept AND SUM(r.sal) = s.sal";
    let (pos, msg) = aggregate_misuse(sql);
    assert_eq!(pos, sql.find("SUM").unwrap());
    assert!(
        msg.starts_with("aggregates are not allowed in JOIN … ON"),
        "{msg}"
    );
    assert!(msg.contains("derived table"), "{msg}");
    // The right-hand operand is checked as well.
    let sql = "SELECT r.dept FROM r JOIN r AS s ON r.sal = max(s.sal)";
    assert_eq!(aggregate_misuse(sql), (sql.find("max").unwrap(), msg));
}

#[test]
fn ungrouped_avg_over_empty_input_returns_no_rows() {
    let mut db = ProvDb::new();
    db.exec("CREATE TABLE t (x NUM);").unwrap();

    // SQL answers NULL for AVG over an empty table; with no NULLs in the
    // engine, the identity row is dropped and the result is empty (it
    // used to error with `Unsupported("AVG over an empty group")`).
    let out = db
        .prepare("SELECT AVG(x) FROM t")
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(out.len(), 0);

    // Grouped AVG over an empty table has no groups, hence no rows either.
    db.exec("CREATE TABLE u (g TEXT, x NUM);").unwrap();
    let out = db
        .prepare("SELECT g, AVG(x) FROM u GROUP BY g")
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(out.len(), 0);

    // Non-empty input still averages; SUM/COUNT still return their
    // identities on empty input (0 and 0) — only AVG's row is dropped.
    db.exec("INSERT INTO t VALUES (10); INSERT INTO t VALUES (20);")
        .unwrap();
    let avg = db.query("SELECT AVG(x) AS a FROM t").unwrap();
    let row = avg.iter().next().unwrap().0;
    assert_eq!(row.get(0).to_string(), "15");
    let empty_sum = db
        .query("SELECT SUM(x) AS s, COUNT(*) AS n FROM u")
        .unwrap();
    assert_eq!(empty_sum.len(), 1, "SUM/COUNT keep the §3.2 identity row");
}

#[test]
fn identity_projection_over_symbolic_rows_keeps_cross_tokens() {
    // `SELECT x FROM (…) q` selects every column in order — but over rows
    // that mix constants and symbolic aggregates it must still apply the
    // §4.3 projection (a constant row and an aggregate row carry a
    // nonzero equality token); only symbol-free inputs may take the
    // schema-rename shortcut.
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE t (x NUM);
         INSERT INTO t VALUES (20) PROVENANCE p1;
         CREATE TABLE u (y NUM);
         INSERT INTO u VALUES (10) PROVENANCE q1;
         INSERT INTO u VALUES (10) PROVENANCE q2;",
    )
    .unwrap();
    let inner_sql = "SELECT x FROM t UNION SELECT SUM(y) AS x FROM u";
    let inner = db.query(inner_sql).unwrap();
    let expected = aggprov::core::specops::project(&inner, &["x"]).unwrap();
    let outer = db.query(&format!("SELECT x FROM ({inner_sql}) q")).unwrap();
    assert_eq!(outer, expected);
    // The constant row's annotation must include the cross contribution
    // of the symbolic SUM row, guarded by an equality token.
    let (_, k) = outer
        .iter()
        .find(|(t, _)| !t.get(0).is_agg())
        .expect("constant row");
    assert!(k.to_string().contains("=SUM="), "cross token kept: {k}");
}

#[test]
fn scans_share_base_table_storage_across_executions() {
    let db = figure_1_db();
    let stmt = db.prepare("SELECT emp, dept, sal FROM r").unwrap();
    let a = stmt.execute().unwrap().into_relation();
    let b = stmt.execute().unwrap().into_relation();
    // `Plan::Scan` no longer deep-copies the base table: re-executions
    // share one Arc'd tuple store (schema-level renames only).
    assert!(a.shares_tuples_with(&b));
    assert!(a.shares_tuples_with(db.table("r").unwrap()));
}

#[test]
fn duplicated_select_items_project_positionally() {
    let db = figure_1_db();
    // The same column under two aliases is legal SQL; the symbolic
    // projection runs once over the distinct columns and the output is
    // expanded positionally.
    let out = db
        .prepare("SELECT dept AS a, dept AS b, sal FROM r WHERE emp = 1")
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(out.columns(), vec!["a", "b", "sal"]);
    let row = out.first().unwrap();
    assert_eq!(row.get("a").unwrap(), row.get("b").unwrap());
    assert_eq!(row.get("a").unwrap(), &Value::str("d1"));

    // Projection semantics (annotation merging) agree with the
    // single-copy projection.
    let doubled = db.prepare("SELECT dept AS a, dept AS b FROM r").unwrap();
    let single = db.query("SELECT dept FROM r").unwrap();
    let out = doubled.execute().unwrap();
    assert_eq!(out.len(), single.len());
    for (t, k) in out.iter() {
        assert_eq!(t.get(0), t.get(1));
        let single_tuple = aggprov_krel::relation::Tuple::from([t.get(0).clone()]);
        assert_eq!(&single.annotation(&single_tuple), k);
    }
}

#[test]
fn preparation_resolves_and_validates_names_eagerly() {
    let db = figure_1_db();
    // All of these fail at prepare() time — before any execution.
    assert!(db.prepare("SELECT nope FROM r").is_err());
    assert!(db.prepare("SELECT emp FROM missing").is_err());
    assert!(db.prepare("SELECT emp, SUM(sal) FROM r").is_err());
    assert!(db.prepare("SELECT emp FROM r HAVING emp = 1").is_err());
    assert!(db
        .prepare("SELECT emp FROM r UNION SELECT emp, sal FROM r")
        .is_err());
}

#[test]
fn collapse_reports_surviving_symbolic_atoms() {
    let db = figure_1_db();
    let out = db
        .prepare("SELECT dept, SUM(sal) AS mass FROM r GROUP BY dept")
        .unwrap()
        .execute()
        .unwrap();
    // Without a valuation the δ-annotations are still symbolic.
    let err = out.collapse().unwrap_err();
    assert!(err.to_string().contains("symbolic"), "{err}");
}

// `ResultSet::valuate` on a bag database (`Database<Nat>`) is a *compile*
// error — there are no tokens to valuate. See the `compile_fail` doctest on
// `ResultSet::valuate`. The runtime analogue: a bag database's results
// collapse/aggregate eagerly, so the fluent provenance methods simply are
// not there, and plain access still works:
#[test]
fn bag_databases_expose_plain_results_only() {
    let mut db: Database<Nat> = Database::new();
    db.exec(
        "CREATE TABLE r (dept TEXT, sal NUM);
         INSERT INTO r VALUES ('d1', 20) PROVENANCE 2;
         INSERT INTO r VALUES ('d1', 10);",
    )
    .unwrap();
    let out = db
        .prepare("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept")
        .unwrap()
        .execute()
        .unwrap();
    // Bag semantics resolve on the spot: 2·20 + 10 = 50.
    assert_eq!(out.first().unwrap().get("total").unwrap(), &Value::int(50));
}

// ------------------------------------------------------------ COUNT at size

/// `rows` single-token employees `(emp, dept)` over `depts` departments.
fn counted_db(rows: usize, depts: usize) -> ProvDb {
    let emp: MKRel<Prov> = Relation::from_rows(
        Schema::new(["emp", "dept"]).unwrap(),
        (0..rows).map(|i| {
            let row = vec![Value::int(i as i64), Value::int((i % depts) as i64)];
            (row, Km::embed(NatPoly::token(&format!("p{i}"))))
        }),
    )
    .unwrap();
    let mut db = ProvDb::new();
    db.register("emp", emp);
    db
}

/// The number of tokens summed in `k`, a bare membership sum `p0 + p1 + …`.
fn tokens_in(k: &Prov) -> usize {
    k.try_collapse().expect("a sum of base tokens").num_terms()
}

// `COUNT(*)` sums one element, `1`, over the whole input: every row lands
// in one run of equal tensor elements, which used to fold pair by pair —
// quadratic, 16 000 rows took 11.5 s. No clock here (the allocation
// budgets of `annotation_footprint` are the gate); this is the witness
// that the statements finish at a size where a quadratic sum does not,
// with the result the literal composition defines.
#[test]
fn count_star_is_the_literal_sum_at_every_size() {
    const COUNT: &str = "SELECT COUNT(*) AS n FROM emp";
    const COUNT_BY_DEPT: &str = "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept";
    const DEPTS: usize = 4;

    // 300 rows: bit-identical to the §3.2 / §4.3 composition — the unit
    // column as a product with `{(1) ↦ 1}`, then AGG / GB, then Π.
    let db = counted_db(300, DEPTS);
    let unit = Relation::from_rows(
        Schema::new(["one"]).unwrap(),
        [(vec![Value::int(1)], Prov::one())],
    )
    .unwrap();
    let with_one = specops::product(db.table("emp").unwrap(), &unit).unwrap();
    let n = [AggSpec {
        kind: MonoidKind::Sum,
        attr: "one",
        out: "n",
    }];
    let counted = specops::agg_all(&with_one, &n).unwrap();
    assert_eq!(
        db.query(COUNT).unwrap(),
        specops::project(&counted, &["n"]).unwrap()
    );
    let grouped = specops::group_by(&with_one, &["dept"], &n).unwrap();
    assert_eq!(
        db.query(COUNT_BY_DEPT).unwrap(),
        specops::project(&grouped, &["dept", "n"]).unwrap()
    );

    // 20 000 rows: one `SUM⟨(p0 + p1 + …)⊗1⟩` per output row, every input
    // token in exactly one of them — read by size, not by rendering.
    const ROWS: usize = 20_000;
    let db = counted_db(ROWS, DEPTS);
    let count_of = |value: &Value<Prov>| match value {
        Value::Agg(MonoidKind::Sum, tensor) => {
            let terms: Vec<_> = tensor.terms().collect();
            assert_eq!(terms.len(), 1, "every element is 1: one simple tensor");
            assert_eq!(terms[0].1, &Const::int(1));
            tokens_in(terms[0].0)
        }
        other => panic!("COUNT over tokens stays symbolic, got {other}"),
    };

    let total = db.prepare(COUNT).unwrap().execute().unwrap();
    assert_eq!(count_of(total.scalar().unwrap()), ROWS);
    assert!(total.rows().all(|row| row.annotation().is_one()));

    let by_dept = db.prepare(COUNT_BY_DEPT).unwrap().execute().unwrap();
    assert_eq!(by_dept.len(), DEPTS);
    for row in by_dept.rows() {
        assert_eq!(count_of(row.get("n").unwrap()), ROWS / DEPTS);
        // The group exists iff one of its members does: δ(p… + p…).
        let annotation = row.annotation().as_poly();
        let delta: Vec<_> = annotation.vars().collect();
        match delta.as_slice() {
            [Atom::Delta(members)] => assert_eq!(tokens_in(members), ROWS / DEPTS),
            other => panic!("a single δ over the group's tokens, got {other:?}"),
        }
    }
}

// ------------------------------------------------------------ parallelism

// The same prepared plan, executed serial and with 8 worker threads, must
// produce bit-identical ResultSets — including the symbolic HAVING tokens
// and the δ-annotations, which live on the sequential fringe.
#[test]
fn execute_with_opts_is_thread_count_invariant() {
    let db = figure_1_db();
    let prepared = db
        .prepare(
            "SELECT dept, SUM(sal) AS total FROM r GROUP BY dept \
             HAVING total = 25",
        )
        .unwrap();
    let serial = prepared
        .execute_with_opts(&[], &ExecOptions::serial())
        .unwrap();
    let parallel = prepared
        .execute_with_opts(&[], &ExecOptions::with_threads(8))
        .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 2, "both groups kept symbolically");

    // A join over the same table (renamed through subqueries) too.
    let join = db
        .prepare(
            "SELECT a.emp, b.emp2 FROM \
             (SELECT emp, dept FROM r) a JOIN \
             (SELECT emp AS emp2, dept AS dept2 FROM r) b \
             ON a.dept = b.dept2",
        )
        .unwrap();
    assert_eq!(
        join.execute_with_opts(&[], &ExecOptions::serial()).unwrap(),
        join.execute_with_opts(&[], &ExecOptions::with_threads(8))
            .unwrap()
    );
}

// Plan introspection: which nodes will shard across threads.
#[test]
fn plans_report_partition_parallel_nodes() {
    let db = figure_1_db();
    let scan = db.prepare("SELECT emp, dept, sal FROM r").unwrap();
    // The count is a static upper bound: an identity projection still
    // counts because whether it shards is decided by the data (over
    // symbol-free input it degrades to a pure schema rename; over
    // symbolic values it runs the sharded §4.3 merge).
    assert_eq!(scan.plan().partition_parallel_nodes(), 1);
    let grouped = db
        .prepare("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept")
        .unwrap();
    // Aggregate + the outer projection.
    assert_eq!(grouped.plan().partition_parallel_nodes(), 2);
    let unioned = db
        .prepare("SELECT dept FROM r UNION SELECT dept FROM r")
        .unwrap();
    // Two projections + the union.
    assert_eq!(unioned.plan().partition_parallel_nodes(), 3);
}
