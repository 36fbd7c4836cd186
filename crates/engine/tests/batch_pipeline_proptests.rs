//! End-to-end property tests for the engine's columnar batch pipeline:
//! prepared queries executed through the plan executor
//! (Scan → Filter → Project → Join chunks, Aggregate/SetOp breakers)
//! must be **bit-identical** to hand-composed `specops` oracles over
//! mixed ground/symbolic inputs, at `threads ∈ {1, 4}`.
//!
//! This is the PR 3 pattern one layer up: where
//! `par_determinism_proptests` pins the operators, these pin the whole
//! pipeline — the chunk conversions, the selection-vector filter, the
//! deferred-merge materialization at breakers, and the symbolic-fringe
//! fallbacks all sit between the SQL text and the result compared here.

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::semiring::CommutativeSemiring;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::km::{CmpPred, Km};
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::{difference, specops, ExecOptions, Value};
use aggprov_engine::{Prepared, ProvDb};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// One generated cell, as in the PR 2/3 suites (≈1/3 symbolic).
type RawVal = (u8, usize, i64);

fn decode_val(raw: RawVal) -> Value<P> {
    let (kind, vi, n) = raw;
    match kind {
        0..=2 => Value::int(n),
        3 => Value::str(if n % 2 == 0 { "s0" } else { "s1" }),
        _ => Value::agg_normalized(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok(VARS[vi]), Const::int(n))]),
        ),
    }
}

fn decode_num_val(raw: RawVal) -> Value<P> {
    let (kind, vi, n) = raw;
    if kind <= 3 {
        Value::int(n)
    } else {
        Value::agg_normalized(
            MonoidKind::Sum,
            Tensor::from_terms(&MonoidKind::Sum, [(tok(VARS[vi]), Const::int(n))]),
        )
    }
}

fn raw_val() -> impl Strategy<Value = RawVal> {
    (0u8..6, 0..VARS.len(), -2i64..5)
}

/// Builds a two-column relation; `b` numeric-or-symbolic (it sits under
/// order comparisons), `a` fully mixed.
fn rel2(prefix: &str, a: &str, b: &str, rows: Vec<(RawVal, RawVal)>) -> MKRel<P> {
    Relation::from_rows(
        Schema::new([a, b]).unwrap(),
        rows.into_iter().enumerate().map(|(i, (x, y))| {
            (
                vec![decode_val(x), decode_num_val(y)],
                tok(&format!("{prefix}{i}")),
            )
        }),
    )
    .unwrap()
}

fn arb_rows() -> impl Strategy<Value = Vec<(RawVal, RawVal)>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7)
}

/// A scan oracle: the registered relation with its alias-prefixed schema.
fn prefixed(rel: &MKRel<P>, names: &[&str]) -> MKRel<P> {
    rel.clone()
        .with_schema(Schema::new(names.iter().copied()).unwrap())
        .unwrap()
}

/// Executes a prepared query at `threads ∈ {1, 4}`, asserts both agree,
/// and returns the result.
fn run_both(db: &ProvDb, sql: &str) -> MKRel<P> {
    run_stmt(&db.prepare(sql).unwrap())
}

/// [`run_both`] for a statement prepared either way.
fn run_stmt(stmt: &Prepared<'_, P>) -> MKRel<P> {
    let t1 = stmt
        .execute_with_opts(&[], &ExecOptions::serial())
        .unwrap()
        .into_relation();
    let t4 = stmt
        .execute_with_opts(&[], &ExecOptions::with_threads(4))
        .unwrap()
        .into_relation();
    assert_eq!(t1, t4, "thread count changed the result");
    t1
}

/// The §4.3 oracle for `SUM(v) AS s, COUNT(*) AS n … GROUP BY g` over a
/// `(g, v)` table `t`: the unit column appended by hand, then the literal
/// group-by. Columns `t.g`, `s`, `n`.
fn sum_count_by_spec(t: &MKRel<P>) -> MKRel<P> {
    let mut unit = Relation::empty(Schema::new(["t.g", "t.v", "__one"]).unwrap());
    for (tu, k) in prefixed(t, &["t.g", "t.v"]).iter() {
        let mut row = tu.values().to_vec();
        row.push(Value::int(1));
        unit.insert(row, k.clone()).unwrap();
    }
    specops::group_by(
        &unit,
        &["t.g"],
        &[
            AggSpec {
                kind: MonoidKind::Sum,
                attr: "t.v",
                out: "s",
            },
            AggSpec {
                kind: MonoidKind::Sum,
                attr: "__one",
                out: "n",
            },
        ],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filter_project_join_matches_spec(r_rows in arb_rows(), s_rows in arb_rows(), v in -2i64..5) {
        // The headline pipeline: WHERE → JOIN → SELECT, all chunked on
        // ground data, token-path fallbacks on symbolic rows.
        let r = rel2("r", "a", "b", r_rows);
        let s = rel2("s", "c", "d", s_rows);
        let mut db = ProvDb::new();
        db.register("r", r.clone());
        db.register("s", s.clone());
        let got = run_both(
            &db,
            &format!("SELECT r.a, s.d FROM r JOIN s ON r.a = s.c WHERE r.b < {v}"),
        );

        let j = specops::join_on(
            &prefixed(&r, &["r.a", "r.b"]),
            &prefixed(&s, &["s.c", "s.d"]),
            &[("r.a", "s.c")],
        )
        .unwrap();
        let f = specops::select_cmp(&j, "r.b", CmpPred::Lt, &Value::int(v)).unwrap();
        let p = specops::project(&f, &["r.a", "s.d"]).unwrap();
        let want = p.with_schema(Schema::new(["a", "d"]).unwrap()).unwrap();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn group_by_having_matches_spec(rows in arb_rows(), h in -2i64..8) {
        // AddUnitColumn → Aggregate (breaker) → HAVING filter → Project.
        let t = rel2("t", "g", "v", rows);
        let mut db = ProvDb::new();
        db.register("t", t.clone());
        let got = run_both(
            &db,
            &format!("SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g HAVING s = {h}"),
        );

        // Oracle: the literal §4.3 group-by over the unit-extended
        // table, then the tokened selection and the projection.
        let grouped = sum_count_by_spec(&t);
        let had = specops::select_eq(&grouped, "s", &Value::int(h)).unwrap();
        let p = specops::project(&had, &["t.g", "s", "n"]).unwrap();
        let want = p.with_schema(Schema::new(["g", "s", "n"]).unwrap()).unwrap();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn union_and_except_match_ops(r_rows in arb_rows(), s_rows in arb_rows()) {
        // SetOp breakers over mixed inputs; EXCEPT runs the §5 hybrid
        // difference (including the token-weighted membership of symbolic
        // rows against ground supports).
        let r = rel2("r", "a", "b", r_rows);
        let s = rel2("s", "c", "d", s_rows);
        let mut db = ProvDb::new();
        db.register("r", r.clone());
        db.register("s", s.clone());

        let lhs = specops::project(&prefixed(&r, &["r.a", "r.b"]), &["r.a"])
            .unwrap()
            .with_schema(Schema::new(["a"]).unwrap())
            .unwrap();
        let rhs = specops::project(&prefixed(&s, &["s.c", "s.d"]), &["s.c"])
            .unwrap()
            .with_schema(Schema::new(["a"]).unwrap())
            .unwrap();

        let got = run_both(&db, "SELECT a FROM r UNION SELECT c FROM s");
        let want = specops::union(&lhs, &rhs).unwrap();
        prop_assert_eq!(got, want);

        let got = run_both(&db, "SELECT a FROM r EXCEPT SELECT c FROM s");
        let want = difference::difference(&lhs, &rhs).unwrap();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn avg_divides_sum_by_count(rows in prop::collection::vec((0i64..3, -5i64..20), 0..8)) {
        // The batched AVG-division kernel against the SUM/COUNT parts it
        // divides — over a bag database, where AVG resolves.
        let mut db: aggprov_engine::Database<aggprov_algebra::semiring::Nat> =
            aggprov_engine::Database::new();
        db.exec("CREATE TABLE t (g NUM, v NUM)").unwrap();
        for (g, v) in &rows {
            db.exec(&format!("INSERT INTO t VALUES ({g}, {v})")).unwrap();
        }
        let parts = db
            .query("SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g")
            .unwrap();
        let avg = db
            .query("SELECT g, AVG(v) AS m FROM t GROUP BY g")
            .unwrap();
        prop_assert_eq!(avg.len(), parts.len());
        for (tu, _) in parts.iter() {
            let g = tu.get(0).clone();
            let s = tu.get(1).as_const().unwrap().as_num().unwrap();
            let n = tu.get(2).as_const().unwrap().as_num().unwrap();
            let want = s.checked_div(&n).unwrap();
            let row = avg
                .iter()
                .find(|(a, _)| a.get(0) == &g)
                .expect("group present");
            prop_assert_eq!(
                row.0.get(1),
                &Value::Const(Const::Num(want)),
                "AVG for group {:?}", g
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn three_way_join_with_a_cross_side_where_matches_spec(
        r_rows in arb_rows(),
        s_rows in arb_rows(),
        t_rows in arb_rows(),
    ) {
        // Two joins and a predicate over both sides of the first, which no
        // pushdown can move below it: the join's deferred product meets a
        // filter, then a second join, in the optimized plan and in the
        // unoptimized one (filter over both joins), against the literal
        // composition.
        let r = rel2("r", "a", "b", r_rows);
        let s = rel2("s", "c", "d", s_rows);
        let t = rel2("t", "e", "f", t_rows);
        let mut db = ProvDb::new();
        db.register("r", r.clone());
        db.register("s", s.clone());
        db.register("t", t.clone());
        let sql = "SELECT r.a, s.d, t.f FROM r JOIN s ON r.a = s.c \
                   JOIN t ON s.c = t.e WHERE r.b < s.d";

        let rs = specops::join_on(
            &prefixed(&r, &["r.a", "r.b"]),
            &prefixed(&s, &["s.c", "s.d"]),
            &[("r.a", "s.c")],
        )
        .unwrap();
        let rst = specops::join_on(&rs, &prefixed(&t, &["t.e", "t.f"]), &[("s.c", "t.e")]).unwrap();
        let f = specops::select_attrs_cmp(&rst, "r.b", CmpPred::Lt, "s.d").unwrap();
        let p = specops::project(&f, &["r.a", "s.d", "t.f"]).unwrap();
        let want = p.with_schema(Schema::new(["a", "d", "f"]).unwrap()).unwrap();
        prop_assert_eq!(run_both(&db, sql), want.clone());
        prop_assert_eq!(run_stmt(&db.prepare_unoptimized(sql).unwrap()), want);
    }
}

#[test]
fn empty_and_all_symbolic_tables_through_the_pipeline() {
    // Edge cases named by the issue: empty batches and all-symbolic
    // relations must flow through every pipeline node.
    let mut db = ProvDb::new();
    db.register("e", Relation::empty(Schema::new(["a", "b"]).unwrap()));
    let sym_rel: MKRel<P> = Relation::from_rows(
        Schema::new(["a", "b"]).unwrap(),
        [
            (
                vec![decode_val((4, 0, 1)), decode_num_val((5, 1, 2))],
                tok("m0"),
            ),
            (
                vec![decode_val((5, 2, 3)), decode_num_val((4, 3, 4))],
                tok("m1"),
            ),
        ],
    )
    .unwrap();
    db.register("m", sym_rel.clone());

    let out = run_both(&db, "SELECT a FROM e WHERE b < 3");
    assert!(out.is_empty());
    let out = run_both(&db, "SELECT e.a FROM e JOIN m ON e.a = m.a");
    assert!(out.is_empty());

    // All-symbolic table: every node takes its fringe/fallback path.
    let got = run_both(&db, "SELECT a FROM m WHERE b < 3");
    let f = specops::select_cmp(
        &prefixed(&sym_rel, &["m.a", "m.b"]),
        "m.b",
        CmpPred::Lt,
        &Value::int(3),
    )
    .unwrap();
    let want = specops::project(&f, &["m.a"])
        .unwrap()
        .with_schema(Schema::new(["a"]).unwrap())
        .unwrap();
    assert_eq!(got, want);
}

/// The §4.3 oracle for `AVG(v) … GROUP BY g`: one division per row of
/// [`sum_count_by_spec`].
fn avg_by_spec(t: &MKRel<P>) -> MKRel<P> {
    let mut want = Relation::empty(Schema::new(["g", "m"]).unwrap());
    for (tu, k) in sum_count_by_spec(t).iter() {
        let num = |i: usize| tu.get(i).as_const().and_then(Const::as_num).unwrap();
        let m = num(1).checked_div(&num(2)).unwrap();
        want.insert(
            vec![tu.get(0).clone(), Value::Const(Const::Num(m))],
            k.clone(),
        )
        .unwrap();
    }
    want
}

#[test]
fn avg_over_a_symbolic_group_key_matches_spec() {
    // Rows annotated `1` under one symbolic group key: SUM and COUNT
    // resolve to numbers, so AVG divides — on the chunk's fringe, where
    // the unresolved key keeps the group row.
    let key = decode_val((4, 0, 3));
    let one = P::one();
    let t: MKRel<P> = Relation::from_rows(
        Schema::new(["g", "v"]).unwrap(),
        [
            (vec![key.clone(), Value::int(4)], one.clone()),
            (vec![key, Value::int(7)], one.clone()),
        ],
    )
    .unwrap();
    let mut db = ProvDb::new();
    db.register("t", t.clone());
    let sql = "SELECT g, AVG(v) AS m FROM t GROUP BY g";
    let got = run_both(&db, sql);
    assert_eq!(got.len(), 1);
    assert_eq!(got, avg_by_spec(&t));

    // A second, different symbolic key makes group membership — and so
    // SUM and COUNT — symbolic: the footnote-6 error at both thread
    // counts, not a partial result.
    let mut two_keys = t;
    two_keys
        .insert(vec![decode_val((4, 1, 2)), Value::int(1)], one)
        .unwrap();
    db.register("t", two_keys);
    let stmt = db.prepare(sql).unwrap();
    for threads in [1, 4] {
        let err = stmt
            .execute_with_opts(&[], &ExecOptions::with_threads(threads))
            .unwrap_err();
        assert!(err.to_string().contains("footnote 6"), "{err}");
    }
}

/// One `(g, v)` cell pair of a `t(k, g, v)` table, `k` being the row
/// number: small domains, so that distinct rows repeat `(g, v)` pairs, and
/// a quarter of the cells symbolic, so that some tables are all ground —
/// the aggregation folds their stored rows in place — and some carry a
/// fringe, which is materialized first.
type RawGv = ((u8, usize, i64), (u8, usize, i64));

fn arb_gv_rows() -> impl Strategy<Value = Vec<RawGv>> {
    let cell = || (0u8..8, 0..VARS.len(), 0i64..3);
    prop::collection::vec((cell(), cell()), 0..9)
}

/// An integer (kinds 0–4), a string (kind 5, only where `text` allows
/// it), or a one-token tensor of `kind`'s monoid (kinds 6 and 7).
fn decode_gv(raw: (u8, usize, i64), text: bool, kind: MonoidKind) -> Value<P> {
    match raw {
        (0..=4, _, n) => Value::int(n),
        (5, _, n) if text => Value::str(if n % 2 == 0 { "s0" } else { "s1" }),
        (5, _, n) => Value::int(n),
        (_, vi, n) => Value::agg_normalized(
            kind,
            Tensor::from_terms(&kind, [(tok(VARS[vi]), Const::int(n))]),
        ),
    }
}

/// `t(k, g, v)`, row `i` annotated `t<i>`; symbolic cells are tensors of
/// `kind`'s monoid, so that a `kind` aggregate over `v` is defined.
fn gv_table(rows: &[RawGv], kind: MonoidKind) -> MKRel<P> {
    Relation::from_rows(
        Schema::new(["k", "g", "v"]).unwrap(),
        rows.iter().enumerate().map(|(i, (g, v))| {
            let row = vec![
                Value::int(i as i64),
                decode_gv(*g, true, kind),
                decode_gv(*v, false, kind),
            ];
            (row, tok(&format!("t{i}")))
        }),
    )
    .unwrap()
}

/// `σ_{k < w}` of `t` under its scan's names, as the literal oracle has it.
fn rows_below(t: &MKRel<P>, w: i64) -> MKRel<P> {
    let scanned = prefixed(t, &["t.k", "t.g", "t.v"]);
    specops::select_cmp(&scanned, "t.k", CmpPred::Lt, &Value::int(w)).unwrap()
}

/// The statement's result, at both thread counts, planned optimized and
/// unoptimized.
fn run_both_plans(db: &ProvDb, sql: &str) -> MKRel<P> {
    let got = run_both(db, sql);
    assert_eq!(run_stmt(&db.prepare_unoptimized(sql).unwrap()), got);
    got
}

proptest! {
    #[test]
    fn where_group_by_over_stored_rows_matches_spec(rows in arb_gv_rows(), w in 0i64..10) {
        // Scan → Filter → Aggregate: over an all-ground table the fold
        // takes the filter's selected rows where the table stores them;
        // through a subquery's projection `(v, g)`, rows that share a
        // `(g, v)` pair stay distinct entries of the fold, where the
        // materialized projection merged them.
        for (kind, agg) in [(MonoidKind::Sum, "SUM"), (MonoidKind::Min, "MIN")] {
            let t = gv_table(&rows, kind);
            let mut db = ProvDb::new();
            db.register("t", t.clone());
            let spec = |out| [AggSpec { kind, attr: "t.v", out }];
            let f = rows_below(&t, w);

            let sql = format!("SELECT g, {agg}(v) AS s FROM t WHERE k < {w} GROUP BY g");
            let grouped = specops::group_by(&f, &["t.g"], &spec("s")).unwrap();
            let want = specops::project(&grouped, &["t.g", "s"])
                .unwrap()
                .with_schema(Schema::new(["g", "s"]).unwrap())
                .unwrap();
            prop_assert_eq!(run_both_plans(&db, &sql), want);

            let sql = format!(
                "SELECT g, {agg}(v) AS s FROM (SELECT v, g FROM t WHERE k < {w}) AS u GROUP BY g"
            );
            let projected = specops::project(&f, &["t.v", "t.g"]).unwrap();
            let grouped = specops::group_by(&projected, &["t.g"], &spec("s")).unwrap();
            let want = specops::project(&grouped, &["t.g", "s"])
                .unwrap()
                .with_schema(Schema::new(["g", "s"]).unwrap())
                .unwrap();
            prop_assert_eq!(run_both_plans(&db, &sql), want);
        }
    }

    #[test]
    fn where_ungrouped_sum_over_stored_rows_matches_spec(rows in arb_gv_rows(), w in 0i64..10) {
        // The one row of an ungrouped SUM, folded from the stored rows the
        // filter selected (or from the materialized ones, with a fringe).
        let t = gv_table(&rows, MonoidKind::Sum);
        let mut db = ProvDb::new();
        db.register("t", t.clone());
        let spec = [AggSpec { kind: MonoidKind::Sum, attr: "t.v", out: "s" }];
        let summed = specops::agg_all(&rows_below(&t, w), &spec).unwrap();
        let want = specops::project(&summed, &["s"]).unwrap();
        let sql = format!("SELECT SUM(v) AS s FROM t WHERE k < {w}");
        prop_assert_eq!(run_both_plans(&db, &sql), want);
    }
}

/// The properties above fold stored rows in place only over tables whose
/// every row is ground: their generator must reach such tables —
/// non-empty, and with a `(g, v)` pair that two rows share — as well as
/// tables with a symbolic row.
#[test]
fn generator_reaches_all_ground_tables() {
    let mut rng = TestRng::for_test("generator_reaches_all_ground_tables");
    let mut reached = BTreeSet::new();
    for _ in 0..128 {
        let t = gv_table(&arb_gv_rows().generate(&mut rng), MonoidKind::Sum);
        if t.is_empty() {
            continue;
        }
        if t.iter()
            .any(|(row, _)| row.values().iter().any(Value::is_agg))
        {
            reached.insert("a symbolic row");
            continue;
        }
        let pairs: BTreeSet<_> = t.iter().map(|(row, _)| row.project(&[1, 2])).collect();
        reached.insert(if pairs.len() < t.len() {
            "all ground, a (g, v) pair repeated"
        } else {
            "all ground, distinct (g, v) pairs"
        });
    }
    assert_eq!(
        reached,
        BTreeSet::from([
            "a symbolic row",
            "all ground, a (g, v) pair repeated",
            "all ground, distinct (g, v) pairs",
        ])
    );
}

#[test]
fn text_under_sum_raises_the_materialized_folds_error() {
    // The stored rows come in `k` order, `'zz'` first; the projected
    // relation `(v, g)` the materialized fold reads has `'aa'` first. The
    // error names the value the materialized fold meets first, through
    // either plan, at either thread count.
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE t (k NUM, g NUM, v TEXT);
         INSERT INTO t VALUES (1, 1, 'zz') PROVENANCE p1;
         INSERT INTO t VALUES (2, 1, 'aa') PROVENANCE p2;",
    )
    .unwrap();
    let projected = specops::project(
        &prefixed(db.table("t").unwrap(), &["u.k", "u.g", "u.v"]),
        &["u.v", "u.g"],
    )
    .unwrap();
    let spec = [AggSpec {
        kind: MonoidKind::Sum,
        attr: "u.v",
        out: "s",
    }];
    let want = ops::group_by_opts(&projected, &["u.g"], &spec, &ExecOptions::serial())
        .unwrap_err()
        .to_string();
    assert!(want.contains("'aa'"), "{want}");
    let sql = "SELECT g, SUM(v) AS s FROM (SELECT v, g FROM t WHERE k < 5) AS u GROUP BY g";
    for stmt in [
        db.prepare(sql).unwrap(),
        db.prepare_unoptimized(sql).unwrap(),
    ] {
        for threads in [1, 4] {
            let err = stmt
                .execute_with_opts(&[], &ExecOptions::with_threads(threads))
                .unwrap_err();
            assert_eq!(err.to_string(), want);
        }
    }
}
