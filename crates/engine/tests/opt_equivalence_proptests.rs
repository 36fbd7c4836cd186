//! Property tests for the plan optimizer ([`aggprov_engine::opt`]):
//! optimized plans must be **bit-identical** to the unoptimized lowered
//! plans — support, values, and every annotation — over mixed
//! ground/symbolic relations, at `threads ∈ {1, 4}`, and must agree with
//! hand-composed `specops` oracles on the shapes the rewrites target.
//!
//! Two input regimes matter:
//!
//! * **fully ground tables** — every gate opens, so pushdown and join
//!   reordering actually fire and the equivalence is exercised on the
//!   rewritten shapes;
//! * **mixed ground/symbolic tables** — the gates open selectively
//!   (per-column groundness from the catalog), so the same SQL sometimes
//!   rewrites and sometimes must not; either way the result is the same
//!   relation, bit for bit.
//!
//! Provenance equality under valuation is implied by bit-identity, but
//! one test valuates explicitly anyway — the optimizer must never change
//! what deletion propagation or clearance sees.

use aggprov_algebra::domain::Const;
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::semiring::Nat;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::km::Km;
use aggprov_core::ops::MKRel;
use aggprov_core::{specops, ExecOptions, Value};
use aggprov_engine::ProvDb;
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use proptest::prelude::*;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// One generated cell, as in the PR 2–4 suites (≈1/3 symbolic).
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

/// Numeric-or-symbolic cell, for columns under order comparisons or
/// aggregation (text there is a carrier-type error on both paths).
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

/// Ground-only cell: the regime where every optimizer gate opens.
fn decode_ground(raw: RawVal) -> Value<P> {
    let (kind, _, n) = raw;
    if kind == 3 {
        Value::str(if n % 2 == 0 { "s0" } else { "s1" })
    } else {
        Value::int(n)
    }
}

/// Ground numeric cell.
fn decode_ground_num(raw: RawVal) -> Value<P> {
    Value::int(raw.2)
}

fn raw_val() -> impl Strategy<Value = RawVal> {
    (0u8..6, 0..VARS.len(), -2i64..5)
}

fn arb_rows() -> impl Strategy<Value = Vec<(RawVal, RawVal)>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7)
}

fn rel2(
    prefix: &str,
    a: &str,
    b: &str,
    rows: Vec<(RawVal, RawVal)>,
    decode_a: fn(RawVal) -> Value<P>,
    decode_b: fn(RawVal) -> Value<P>,
) -> MKRel<P> {
    Relation::from_rows(
        Schema::new([a, b]).unwrap(),
        rows.into_iter()
            .enumerate()
            .map(|(i, (x, y))| (vec![decode_a(x), decode_b(y)], tok(&format!("{prefix}{i}")))),
    )
    .unwrap()
}

/// Executes the same SQL through the optimizer and through the literal
/// lowered plan, at two thread counts, and asserts all four agree bit for
/// bit. Returns the (shared) result.
fn assert_equivalent(db: &ProvDb, sql: &str) -> MKRel<P> {
    let optimized = db.prepare(sql).unwrap();
    let literal = db.prepare_unoptimized(sql).unwrap();
    let mut results = Vec::new();
    for opts in [ExecOptions::serial(), ExecOptions::with_threads(4)] {
        results.push(
            optimized
                .execute_with_opts(&[], &opts)
                .unwrap()
                .into_relation(),
        );
        results.push(
            literal
                .execute_with_opts(&[], &opts)
                .unwrap()
                .into_relation(),
        );
    }
    let first = results[0].clone();
    for r in &results[1..] {
        assert_eq!(
            &first,
            r,
            "optimized/unoptimized × threads disagree for {sql}\nplans:\n{}",
            optimized.plan_display()
        );
    }
    first
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pushdown_through_join_is_bit_identical(
        r_rows in arb_rows(),
        s_rows in arb_rows(),
        v in -2i64..5,
    ) {
        // Mixed values: the pushdown gate opens only when the generated
        // `r.b` column happens to be fully ground.
        let r = rel2("r", "a", "b", r_rows, decode_val, decode_num_val);
        let s = rel2("s", "c", "d", s_rows, decode_val, decode_num_val);
        let mut db = ProvDb::new();
        db.register("r", r.clone());
        db.register("s", s.clone());
        let got = assert_equivalent(
            &db,
            &format!("SELECT r.a, s.d FROM r JOIN s ON r.a = s.c WHERE r.b < {v}"),
        );

        // The specops oracle for the same query (σ after the join, as the
        // unoptimized plan evaluates it).
        let prefixed = |rel: &MKRel<P>, names: [&str; 2]| {
            rel.clone().with_schema(Schema::new(names).unwrap()).unwrap()
        };
        let j = specops::join_on(
            &prefixed(&r, ["r.a", "r.b"]),
            &prefixed(&s, ["s.c", "s.d"]),
            &[("r.a", "s.c")],
        ).unwrap();
        let f = aggprov_core::ops::select_cmp(
            &j, "r.b", aggprov_core::km::CmpPred::Lt, &Value::int(v),
        ).unwrap();
        let p = specops::project(&f, &["r.a", "s.d"]).unwrap();
        let want = p.with_schema(Schema::new(["a", "d"]).unwrap()).unwrap();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn ground_chains_with_reordering_are_bit_identical(
        a_rows in arb_rows(),
        b_rows in arb_rows(),
        c_rows in arb_rows(),
        v in -2i64..5,
    ) {
        // Fully ground three-way chain written largest-first-ish: both
        // pushdown and greedy reordering (with its compensating
        // projection) fire whenever cardinalities make it profitable.
        let a = rel2("a", "k", "u", a_rows, decode_ground, decode_ground_num);
        let b = rel2("b", "k2", "v", b_rows, decode_ground, decode_ground_num);
        let c = rel2("c", "k3", "w", c_rows, decode_ground, decode_ground_num);
        let mut db = ProvDb::new();
        db.register("a", a);
        db.register("b", b);
        db.register("c", c);
        assert_equivalent(
            &db,
            &format!(
                "SELECT a.u, b.v, c.w FROM a JOIN b ON a.k = b.k2 \
                 JOIN c ON b.v = c.k3 WHERE c.w < {v}"
            ),
        );
        // A comma-product chain with straddling and one-sided WHERE
        // conjuncts (products reorder too; straddling conjuncts may not
        // sink past the product that joins their sides).
        assert_equivalent(
            &db,
            &format!(
                "SELECT a.u, c.w FROM a, b, c \
                 WHERE a.k = b.k2 AND b.v = c.k3 AND a.u < {v}"
            ),
        );
    }

    #[test]
    fn aggregates_and_setops_stay_equivalent(
        t_rows in arb_rows(),
        s_rows in arb_rows(),
        h in -2i64..8,
    ) {
        // HAVING must not cross the aggregate; the derived-subquery filter
        // must stop at the union. Either way: bit-identical results.
        let t = rel2("t", "g", "n", t_rows, decode_val, decode_num_val);
        let s = rel2("s", "g2", "m", s_rows, decode_val, decode_num_val);
        let mut db = ProvDb::new();
        db.register("t", t);
        db.register("s", s);
        assert_equivalent(
            &db,
            &format!("SELECT g, SUM(n) AS total FROM t GROUP BY g HAVING total = {h}"),
        );
        assert_equivalent(
            &db,
            &format!(
                "SELECT q.g FROM (SELECT g FROM t UNION SELECT g2 AS g FROM s) q \
                 WHERE q.g = {h}"
            ),
        );
        assert_equivalent(
            &db,
            "SELECT g FROM t EXCEPT SELECT g2 FROM s",
        );
    }

    #[test]
    fn valuations_see_identical_provenance(
        r_rows in arb_rows(),
        s_rows in arb_rows(),
        v in -2i64..5,
    ) {
        // Bit-identity implies this, but the fluent path is what users
        // see: deletion propagation and valuation must not observe the
        // optimizer.
        let r = rel2("r", "a", "b", r_rows, decode_val, decode_num_val);
        let s = rel2("s", "c", "d", s_rows, decode_val, decode_num_val);
        let mut db = ProvDb::new();
        db.register("r", r);
        db.register("s", s);
        let sql = format!("SELECT r.a FROM r JOIN s ON r.a = s.c WHERE r.b < {v}");
        let opt = db.prepare(&sql).unwrap().execute().unwrap();
        let lit = db.prepare_unoptimized(&sql).unwrap().execute().unwrap();
        let val = Valuation::<Nat>::ones();
        prop_assert_eq!(
            opt.valuate(&val).relation(),
            lit.valuate(&val).relation()
        );
        prop_assert_eq!(
            opt.delete_tokens(["r0", "s1", "x"]).relation(),
            lit.delete_tokens(["r0", "s1", "x"]).relation()
        );
    }
}

// --------------------------------------------------------------- plan cache

#[test]
fn prepare_hits_the_plan_cache_until_invalidated() {
    let mut db = ProvDb::new();
    db.exec("CREATE TABLE t (a NUM, b NUM); INSERT INTO t VALUES (1, 2)")
        .unwrap();
    let sql = "SELECT a FROM t WHERE b = 1";

    let first = db.prepare(sql).unwrap();
    let second = db.prepare(sql).unwrap();
    // Same cached plan object — nothing was re-parsed or re-optimized.
    assert!(std::ptr::eq(first.plan(), second.plan()));
    assert!(std::ptr::eq(
        first.optimized_plan(),
        second.optimized_plan()
    ));
    assert_eq!(db.cached_plan_count(), 1);

    // Another statement caches separately.
    db.prepare("SELECT b FROM t").unwrap();
    assert_eq!(db.cached_plan_count(), 2);

    // prepare_unoptimized bypasses the cache entirely.
    db.prepare_unoptimized(sql).unwrap();
    assert_eq!(db.cached_plan_count(), 2);

    // INSERT invalidates the entries scanning the mutated table:
    // cardinalities (and potentially groundness) changed, so cached
    // optimization choices are stale. Both cached statements scan `t`.
    let before = db.prepare(sql).unwrap().plan() as *const _;
    db.exec("INSERT INTO t VALUES (3, 4)").unwrap();
    assert_eq!(db.cached_plan_count(), 0);
    let after = db.prepare(sql).unwrap();
    assert!(!std::ptr::eq(before, after.plan()));

    // Invalidation is per-table: DDL on an unrelated table leaves the
    // cached `t` statements alone...
    db.exec("CREATE TABLE u (x NUM)").unwrap();
    assert_eq!(db.cached_plan_count(), 1);
    db.prepare("SELECT x FROM u").unwrap();
    assert_eq!(db.cached_plan_count(), 2);
    // ...and dropping `u` kills exactly the `u`-scanning entry.
    db.exec("DROP TABLE u").unwrap();
    assert_eq!(db.cached_plan_count(), 1);
    db.exec("INSERT INTO t VALUES (5, 6)").unwrap();
    assert_eq!(db.cached_plan_count(), 0);

    // register() invalidates only the registered table's entries.
    db.prepare(sql).unwrap();
    let rel: MKRel<P> = Relation::empty(Schema::new(["y"]).unwrap());
    db.register("v", rel.clone());
    assert_eq!(db.cached_plan_count(), 1);
    db.prepare("SELECT y FROM v").unwrap();
    assert_eq!(db.cached_plan_count(), 2);
    db.register("v", rel);
    assert_eq!(db.cached_plan_count(), 1);
}

#[test]
fn cached_plans_execute_correctly_after_data_changes_invalidate() {
    // The cache must never serve a plan optimized for stale data: a
    // table that was fully ground gains a symbolic row via register();
    // re-preparing the same SQL re-runs the gates against the new data.
    let mut db = ProvDb::new();
    let ground: MKRel<P> = Relation::from_rows(
        Schema::new(["k", "v"]).unwrap(),
        [(vec![Value::int(1), Value::int(5)], tok("g0"))],
    )
    .unwrap();
    db.register("t", ground.clone());
    db.exec("CREATE TABLE u (k2 NUM, w NUM); INSERT INTO u VALUES (1, 9)")
        .unwrap();

    let sql = "SELECT t.k FROM t JOIN u ON t.k = u.k2 WHERE t.v = 5";
    let out = db.prepare(sql).unwrap().execute().unwrap();
    assert_eq!(out.len(), 1);

    // Now make t.v symbolic. The cache was invalidated by register(), so
    // the new prepare must refuse the pushdown — and still agree with the
    // unoptimized plan.
    let sym = Value::agg_normalized(
        MonoidKind::Sum,
        Tensor::from_terms(&MonoidKind::Sum, [(tok("x"), Const::int(5))]),
    );
    let mixed: MKRel<P> = Relation::from_rows(
        Schema::new(["k", "v"]).unwrap(),
        [
            (vec![Value::int(1), Value::int(5)], tok("g0")),
            (vec![Value::int(1), sym], tok("g1")),
        ],
    )
    .unwrap();
    db.register("t", mixed);
    let opt = db.prepare(sql).unwrap().execute().unwrap().into_relation();
    let lit = db
        .prepare_unoptimized(sql)
        .unwrap()
        .execute()
        .unwrap()
        .into_relation();
    assert_eq!(opt, lit);
    // Both rows project onto k = 1; the merged annotation carries the
    // symbolic row's equality token.
    assert_eq!(opt.len(), 1);
    let (_, k) = opt.iter().next().unwrap();
    assert!(k.to_string().contains("=SUM="), "symbolic guard kept: {k}");
}

#[test]
fn parameterized_statements_cache_and_rebind() {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE t (a NUM, b NUM);
         INSERT INTO t VALUES (1, 10); INSERT INTO t VALUES (2, 20)",
    )
    .unwrap();
    let sql = "SELECT a FROM t WHERE b = $1";
    let s1 = db.prepare(sql).unwrap();
    let s2 = db.prepare(sql).unwrap();
    assert!(std::ptr::eq(s1.plan(), s2.plan()));
    assert_eq!(s1.execute_with(&[Const::int(10)]).unwrap().len(), 1);
    assert_eq!(s2.execute_with(&[Const::int(99)]).unwrap().len(), 0);
}

/// Stacked conjuncts keep their written order in the optimized plan: the
/// order decides which rows reach an ordering comparison across types
/// (`dept < 5` compares text with a number and fails on any row it sees),
/// so the optimized and literal plans must agree on `Ok` versus `Err` —
/// and on the rows, when both succeed — at either thread count.
#[test]
fn stacked_conjuncts_fail_or_succeed_as_written() {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (emp NUM, dept TEXT, sal NUM);
         INSERT INTO r VALUES (1, 'd1', 20) PROVENANCE p1;
         INSERT INTO r VALUES (2, 'd2', 30) PROVENANCE p2;",
    )
    .unwrap();
    // No row has `sal > 1000`: written first, it leaves `dept < 5` no
    // rows to fail on.
    let cases = [
        ("SELECT emp FROM r WHERE sal > 1000 AND dept < 5", true),
        ("SELECT emp FROM r WHERE dept < 5 AND sal > 1000", false),
        (
            "SELECT q.e FROM (SELECT emp AS e, dept AS d FROM r WHERE sal > 1000) q WHERE q.d < 5",
            true,
        ),
    ];
    for (sql, ok) in cases {
        let optimized = db.prepare(sql).unwrap();
        let literal = db.prepare_unoptimized(sql).unwrap();
        for opts in [ExecOptions::serial(), ExecOptions::with_threads(4)] {
            let opt = optimized
                .execute_with_opts(&[], &opts)
                .map(|r| r.into_relation());
            let lit = literal
                .execute_with_opts(&[], &opts)
                .map(|r| r.into_relation());
            assert_eq!(lit.is_ok(), ok, "literal plan of {sql}: {lit:?}");
            assert_eq!(
                opt.is_ok(),
                lit.is_ok(),
                "optimized {opt:?} vs literal {lit:?} for {sql}\nplans:\n{}",
                optimized.plan_display()
            );
            if let (Ok(o), Ok(l)) = (&opt, &lit) {
                assert_eq!(o, l, "{sql}");
            }
        }
    }
}
