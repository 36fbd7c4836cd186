//! Property-tested equivalence between the columnar batch kernels
//! ([`aggprov_core::ops::batch`]) and the row-at-a-time operators /
//! literal §4.3 reference ([`aggprov_core::specops`]).
//!
//! Every kernel is total, so every kernel is checked over *mixed*
//! ground/symbolic relations. The per-row kernels (filter, unit-column
//! append) keep the symbolic fringe on the token path while the ground
//! partition runs vectorized; the cross-row kernels (`project_opts`,
//! `hash_join`) take the token path themselves the moment an operand
//! carries a fringe — a symbolic join key on the left only, the right
//! only or both, a ground key beside a symbolic payload, a fringe against
//! an empty ground partition, duplicated select items over a fringe. In
//! each case the recombined relation must be bit-identical to the literal
//! `specops` operator — same relation or same error message — at threads
//! 1 and 4. The ground-only suites pin the columnar fast paths; empty and
//! all-symbolic inputs get dedicated tests for every kernel.
//!
//! A chunk reads its ground rows' annotations in place, from the tuple
//! store of the relation it was split from. Two suites pin that form: one
//! to the dense annotation vector it replaced (same batch operations, same
//! relation out, and both equal to `specops`), one to isolation (an edit of
//! the source relation after the split is not seen by the chunk).

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::num::Num;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::km::{CmpPred, Km};
use aggprov_core::ops::batch::{hash_join, BatchCmp, BatchOperand, Chunk};
use aggprov_core::ops::{self, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{eval, specops, Value};
use aggprov_krel::batch::{ColumnBatch, GroundBatch};
use aggprov_krel::error::Result;
use aggprov_krel::relation::{Merge, Relation, Tuple};
use aggprov_krel::schema::Schema;
use proptest::prelude::*;

mod common;
use common::{decode_num_val, decode_val, raw_val, rel_from, tok, RawVal, VARS};

type P = Km<NatPoly>;

/// Fully ground cell.
fn decode_ground_val(raw: RawVal) -> Value<P> {
    let (kind, _, n) = raw;
    if kind == 3 {
        Value::str(if n % 2 == 0 { "s0" } else { "s1" })
    } else {
        Value::int(n)
    }
}

/// A mixed relation over `(a, b)` with `b` numeric-or-symbolic.
fn arb_mixed(
    prefix: &'static str,
    a: &'static str,
    b: &'static str,
) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7).prop_map(move |rows| {
        rel_from(
            prefix,
            Schema::new([a, b]).unwrap(),
            rows.into_iter()
                .map(|(x, y)| vec![decode_val(x), decode_num_val(y)])
                .collect(),
        )
    })
}

/// A fully ground relation over `(a, b)`.
fn arb_ground(
    prefix: &'static str,
    a: &'static str,
    b: &'static str,
) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), raw_val()), 0..9).prop_map(move |rows| {
        rel_from(
            prefix,
            Schema::new([a, b]).unwrap(),
            rows.into_iter()
                .map(|(x, y)| vec![decode_ground_val(x), decode_ground_val(y)])
                .collect(),
        )
    })
}

/// A relation over `(a, b)` whose columns are each ground, mixed or all
/// symbolic, as `shape` says (`0` ground, `1` mixed, `2` symbolic) — so
/// one generator reaches a symbolic key beside a ground payload, a ground
/// key beside a symbolic payload, and an empty ground partition. Values
/// are non-zero under the symbolic shape (`x⊗0` would normalize to `0`).
fn arb_shaped(
    prefix: &'static str,
    a: &'static str,
    b: &'static str,
) -> impl Strategy<Value = MKRel<P>> {
    let cell = |shape: u8, raw: RawVal| match shape {
        0 => decode_ground_val(raw),
        1 => decode_val(raw),
        _ => decode_num_val((5, raw.1, raw.2.abs() + 1)),
    };
    (
        0u8..3,
        0u8..3,
        prop::collection::vec((raw_val(), raw_val()), 0..7),
    )
        .prop_map(move |(sa, sb, rows)| {
            rel_from(
                prefix,
                Schema::new([a, b]).unwrap(),
                rows.into_iter()
                    .map(|(x, y)| vec![cell(sa, x), cell(sb, y)])
                    .collect(),
            )
        })
}

/// The join keys `hash_join_matches_spec_over_fringes` draws from, by
/// position and by name: one key, the other key, both, none.
type JoinKeys = (
    &'static [(usize, usize)],
    &'static [(&'static str, &'static str)],
);
const JOIN_KEYS: [JoinKeys; 4] = [
    (&[(0, 0)], &[("a", "c")]),
    (&[(1, 1)], &[("b", "d")]),
    (&[(0, 0), (1, 1)], &[("a", "c"), ("b", "d")]),
    (&[], &[]),
];

/// Asserts one kernel result against the `specops` oracle: the same
/// relation bit for bit, or the same error message.
fn assert_matches_spec(got: &Result<MKRel<P>>, want: &Result<MKRel<P>>, ctx: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(g, w, "{ctx}"),
        (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{ctx}"),
        _ => panic!("{ctx}: paths disagree on error: kernel {got:?} vs specops {want:?}"),
    }
}

/// `specops::project` over the distinct attributes, then the positional
/// expansion of a duplicated select list — the oracle for
/// `Chunk::project_opts(columns, …)`.
fn spec_project(rel: &MKRel<P>, columns: &[usize], schema: &Schema) -> Result<MKRel<P>> {
    let mut distinct: Vec<usize> = Vec::new();
    for c in columns {
        if !distinct.contains(c) {
            distinct.push(*c);
        }
    }
    let names: Vec<&str> = distinct
        .iter()
        .map(|i| rel.schema().attrs()[*i].name())
        .collect();
    let spec = specops::project(rel, &names)?;
    let mut out = Relation::empty(schema.clone());
    for (t, k) in spec.iter() {
        let row: Vec<Value<P>> = columns
            .iter()
            .map(|c| t.get(distinct.iter().position(|d| d == c).unwrap()).clone())
            .collect();
        out.insert(row, k.clone())?;
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn chunk_round_trip_is_lossless(rel in arb_mixed("a", "a", "b")) {
        let back = Chunk::from_relation(&rel).into_relation().unwrap();
        prop_assert_eq!(back, rel);
    }

    #[test]
    fn filter_eq_matches_select_eq(rel in arb_mixed("a", "a", "b"), v in raw_val()) {
        // Equality against a constant or symbolic value: the chunk path
        // (selection vector over ground, token path over the fringe) must
        // match the row-at-a-time §4.3 selection bit for bit.
        let value = decode_val(v);
        let want = ops::select_eq(&rel, "a", &value).unwrap();
        let got = match &value {
            Value::Const(c) => {
                let mut chunk = Chunk::from_relation(&rel);
                chunk
                    .filter(&BatchOperand::Col(0), BatchCmp::Eq, &BatchOperand::Lit(c.clone()), &ExecOptions::serial())
                    .unwrap();
                chunk.into_relation().unwrap()
            }
            // A symbolic comparison value never reaches the batch kernel
            // (operands there are Const); the engine routes it through the
            // same ops::select_eq. Nothing to compare.
            Value::Agg(..) => want.clone(),
        };
        prop_assert_eq!(got, want);
    }

    #[test]
    fn filter_cmp_matches_select_attrs_cmp(rel in arb_mixed("a", "a", "b"), which in 0u8..3) {
        // Column-vs-column order comparison over the numeric/symbolic
        // column pair; both paths error together on type mismatches.
        let pred = [CmpPred::Lt, CmpPred::Le, CmpPred::Ne][which as usize];
        let want = ops::select_attrs_cmp(&rel, "a", pred, "b");
        let mut chunk = Chunk::from_relation(&rel);
        let got = chunk
            .filter(&BatchOperand::Col(0), BatchCmp::Pred(pred), &BatchOperand::Col(1), &ExecOptions::serial())
            .map(|()| chunk.into_relation().unwrap());
        match (got, want) {
            (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
            (Err(_), Err(_)) => {}
            (g, w) => prop_assert!(false, "one path errored: batch {g:?} vs ops {w:?}"),
        }
    }

    #[test]
    fn project_matches_spec_on_ground(rel in arb_ground("a", "a", "b"), dup in prop::bool::ANY) {
        // The gather kernel (duplicates deferred to materialization)
        // against the literal §4.3 projection + positional expansion.
        let chunk = Chunk::from_relation(&rel);
        if dup {
            // SELECT b, b, a: a duplicated select item.
            let got = chunk
                .project(&[1, 1, 0], Schema::new(["b1", "b2", "a"]).unwrap())
                .unwrap()
                .into_relation()
                .unwrap();
            let spec = specops::project(&rel, &["b", "a"]).unwrap();
            let mut expanded = Relation::empty(Schema::new(["b1", "b2", "a"]).unwrap());
            for (t, k) in spec.iter() {
                expanded
                    .insert(vec![t.get(0).clone(), t.get(0).clone(), t.get(1).clone()], k.clone())
                    .unwrap();
            }
            prop_assert_eq!(got, expanded);
        } else {
            let got = chunk
                .project(&[0], Schema::new(["a"]).unwrap())
                .unwrap()
                .into_relation()
                .unwrap();
            let spec = specops::project(&rel, &["a"]).unwrap();
            prop_assert_eq!(got, spec);
        }
    }

    #[test]
    fn hash_join_matches_spec_on_ground(
        r1 in arb_ground("a", "a", "b"),
        r2 in arb_ground("b", "c", "d"),
    ) {
        let schema = Schema::new(["a", "b", "c", "d"]).unwrap();
        let got = hash_join(
            Chunk::from_relation(&r1),
            Chunk::from_relation(&r2),
            &[(0, 0)],
            schema.clone(),
            &ExecOptions::serial(),
        )
        .unwrap()
        .into_relation()
        .unwrap();
        let spec = specops::join_on(&r1, &r2, &[("a", "c")]).unwrap();
        prop_assert_eq!(got, spec);

        // The empty-`on` (cartesian product) shape as well.
        let got = hash_join(
            Chunk::from_relation(&r1),
            Chunk::from_relation(&r2),
            &[],
            schema,
            &ExecOptions::serial(),
        )
        .unwrap()
        .into_relation()
        .unwrap();
        let spec = specops::join_on(&r1, &r2, &[]).unwrap();
        prop_assert_eq!(got, spec);
    }

    #[test]
    fn pipeline_matches_composed_spec_on_ground(
        r1 in arb_ground("a", "a", "b"),
        r2 in arb_ground("b", "c", "d"),
        v in -2i64..5,
    ) {
        // σ → Π → ⋈ entirely in chunk land (one materialization at the
        // end) against the node-at-a-time spec composition.
        let mut chunk = Chunk::from_relation(&r1);
        chunk
            .filter(&BatchOperand::Col(1), BatchCmp::Eq, &BatchOperand::Lit(Const::int(v)), &ExecOptions::serial())
            .unwrap();
        let projected = chunk.project(&[0], Schema::new(["a"]).unwrap()).unwrap();
        let got = hash_join(
            projected,
            Chunk::from_relation(&r2),
            &[(0, 0)],
            Schema::new(["a", "c", "d"]).unwrap(),
            &ExecOptions::serial(),
        )
        .unwrap()
        .into_relation()
        .unwrap();

        let filtered = ops::select_eq(&r1, "b", &Value::int(v)).unwrap();
        let spec_p = specops::project(&filtered, &["a"]).unwrap();
        let spec = specops::join_on(&spec_p, &r2, &[("a", "c")]).unwrap();
        prop_assert_eq!(got, spec);
    }

    #[test]
    fn project_matches_spec_over_fringes(rel in arb_shaped("a", "a", "b"), which in 0usize..5) {
        // Single columns, a permutation, the identity and a duplicated
        // select item, over every ground/mixed/symbolic column shape.
        let (columns, names): (&[usize], &[&str]) = [
            (&[0][..], &["a"][..]),
            (&[1], &["b"]),
            (&[1, 0], &["b", "a"]),
            (&[0, 1], &["a", "b"]),
            (&[1, 1, 0], &["b1", "b2", "a"]),
        ][which];
        let schema = Schema::new(names.iter().copied()).unwrap();
        let want = spec_project(&rel, columns, &schema);
        for threads in [1usize, 4] {
            let got = Chunk::from_relation(&rel)
                .project_opts(columns, schema.clone(), &ExecOptions::with_threads(threads))
                .and_then(Chunk::into_relation);
            assert_matches_spec(&got, &want, &format!("columns {columns:?} threads {threads}"));
        }
    }

    #[test]
    fn hash_join_matches_spec_over_fringes(
        r1 in arb_shaped("a", "a", "b"),
        r2 in arb_shaped("b", "c", "d"),
        which in 0usize..4,
    ) {
        // One key, the other key, both, none (the product): with the
        // column shapes drawn independently per side this covers a
        // symbolic key on the left only, the right only and both sides, a
        // ground key with a symbolic payload, and a fringe on one operand
        // against an empty (or absent) ground partition on the other.
        let (on_idx, on_attrs) = JOIN_KEYS[which];
        let schema = Schema::new(["a", "b", "c", "d"]).unwrap();
        let want = specops::join_on(&r1, &r2, on_attrs);
        for threads in [1usize, 4] {
            let got = hash_join(
                Chunk::from_relation(&r1),
                Chunk::from_relation(&r2),
                on_idx,
                schema.clone(),
                &ExecOptions::with_threads(threads),
            )
            .and_then(Chunk::into_relation);
            assert_matches_spec(&got, &want, &format!("on {on_idx:?} threads {threads}"));
        }
    }

    #[test]
    fn pipeline_matches_composed_spec_over_fringes(
        r1 in arb_shaped("a", "a", "b"),
        r2 in arb_shaped("b", "c", "d"),
        v in -2i64..5,
    ) {
        // σ → ⋈ → Π in chunk land with fringes riding along: the fringe a
        // filter keeps (annotation × token) feeds the join's token path,
        // whose symbolic rows feed the projection's.
        let out_schema = Schema::new(["d", "a"]).unwrap();
        let want = specops::select_eq(&r1, "b", &Value::int(v))
            .and_then(|f| specops::join_on(&f, &r2, &[("a", "c")]))
            .and_then(|j| specops::project(&j, &["d", "a"]));
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads);
            let mut chunk = Chunk::from_relation(&r1);
            let got = chunk
                .filter(&BatchOperand::Col(1), BatchCmp::Eq, &BatchOperand::Lit(Const::int(v)), &opts)
                .and_then(|()| {
                    hash_join(
                        chunk,
                        Chunk::from_relation(&r2),
                        &[(0, 0)],
                        Schema::new(["a", "b", "c", "d"]).unwrap(),
                        &opts,
                    )
                })
                .and_then(|j| j.project_opts(&[3, 0], out_schema.clone(), &opts))
                .and_then(Chunk::into_relation);
            assert_matches_spec(&got, &want, &format!("threads {threads}"));
        }
    }

    #[test]
    fn all_symbolic_chunks_stay_on_the_token_path(rows in prop::collection::vec((0..VARS.len(), 1i64..5), 0..6)) {
        // Every row symbolic (values are nonzero so `x⊗n` cannot
        // normalize to a ground constant): the ground batch is empty and
        // the whole relation rides the fringe; filter must still match
        // the §4.3 selection exactly.
        let rel = rel_from(
            "s",
            Schema::new(["a"]).unwrap(),
            rows.into_iter()
                .map(|(vi, n)| {
                    vec![Value::agg_normalized(
                        MonoidKind::Sum,
                        Tensor::from_terms(&MonoidKind::Sum, [(tok(VARS[vi]), Const::int(n))]),
                    )]
                })
                .collect(),
        );
        let mut chunk = Chunk::from_relation(&rel);
        prop_assert_eq!(chunk.ground_len(), 0);
        chunk
            .filter(&BatchOperand::Col(0), BatchCmp::Eq, &BatchOperand::Lit(Const::int(1)), &ExecOptions::serial())
            .unwrap();
        let got = chunk.into_relation().unwrap();
        let want = ops::select_eq(&rel, "a", &Value::int(1)).unwrap();
        prop_assert_eq!(got, want);
    }
}

/// One `σ` over a join's output, by the literal §4.3 rule: `Eq` as
/// `select_attrs_eq` / `select_eq`, an order or `≠` as `select_attrs_cmp`
/// / `select_cmp`.
fn spec_filter(
    rel: &MKRel<P>,
    attr: &str,
    cmp: BatchCmp,
    other: &BatchOperand,
) -> Result<MKRel<P>> {
    match (cmp, other) {
        (BatchCmp::Eq, BatchOperand::Col(j)) => {
            specops::select_attrs_eq(rel, attr, rel.schema().attrs()[*j].name())
        }
        (BatchCmp::Pred(p), BatchOperand::Col(j)) => {
            specops::select_attrs_cmp(rel, attr, p, rel.schema().attrs()[*j].name())
        }
        (BatchCmp::Eq, BatchOperand::Lit(c)) => {
            specops::select_eq(rel, attr, &Value::Const(c.clone()))
        }
        (BatchCmp::Pred(p), BatchOperand::Lit(c)) => {
            specops::select_cmp(rel, attr, p, &Value::Const(c.clone()))
        }
    }
}

const CMPS: [BatchCmp; 4] = [
    BatchCmp::Eq,
    BatchCmp::Pred(CmpPred::Lt),
    BatchCmp::Pred(CmpPred::Le),
    BatchCmp::Pred(CmpPred::Ne),
];

/// `⋈ → σ → ⋈ → Π → materialize` against the `specops` composition, at
/// threads 1 and 4. The first join's output — its product deferred when
/// both operands are ground — is filtered by a cross-side `b ⋈ d` and by
/// `a ⋈ v`, then joined with `r3` once as the probe side and once as the
/// build side. Both orders project `(a, d, f)`. Ordering across value
/// types is a type error on both paths; which row raises it first
/// depends on row order, so only the error itself must agree.
fn check_deferred_pipeline(
    r1: &MKRel<P>,
    r2: &MKRel<P>,
    r3: &MKRel<P>,
    (cross, lit, v): (BatchCmp, BatchCmp, i64),
) {
    let (bd, av) = (BatchOperand::Col(3), BatchOperand::Lit(Const::int(v)));
    let spec_j1 = specops::join_on(r1, r2, &[("a", "c")])
        .and_then(|j| spec_filter(&j, "b", cross, &bd))
        .and_then(|j| spec_filter(&j, "a", lit, &av));
    let spec = |probe: bool| {
        spec_j1.clone().and_then(|f| {
            let j = if probe {
                specops::join_on(&f, r3, &[("c", "e")])
            } else {
                specops::join_on(r3, &f, &[("e", "c")])
            }?;
            specops::project(&j, &["a", "d", "f"])
        })
    };
    let abcd = Schema::new(["a", "b", "c", "d"]).unwrap();
    let adf = Schema::new(["a", "d", "f"]).unwrap();
    for threads in [1usize, 4] {
        let opts = ExecOptions::with_threads(threads);
        let filtered = hash_join(
            Chunk::from_relation(r1),
            Chunk::from_relation(r2),
            &[(0, 0)],
            abcd.clone(),
            &opts,
        )
        .and_then(|mut j| {
            j.filter(&BatchOperand::Col(1), cross, &bd, &opts)?;
            j.filter(&BatchOperand::Col(0), lit, &av, &opts)?;
            Ok(j)
        });
        let filtered = match (filtered, &spec_j1) {
            (Ok(f), Ok(_)) => f,
            (Err(_), Err(_)) => continue,
            (got, want) => panic!("threads {threads}: σ disagrees: {got:?} vs {want:?}"),
        };
        let got = hash_join(
            filtered.clone(),
            Chunk::from_relation(r3),
            &[(2, 0)],
            Schema::new(["a", "b", "c", "d", "e", "f"]).unwrap(),
            &opts,
        )
        .and_then(|j| j.project_opts(&[0, 3, 5], adf.clone(), &opts))
        .and_then(Chunk::into_relation);
        assert_matches_spec(&got, &spec(true), &format!("probe side, threads {threads}"));
        let got = hash_join(
            Chunk::from_relation(r3),
            filtered,
            &[(0, 2)],
            Schema::new(["e", "f", "a", "b", "c", "d"]).unwrap(),
            &opts,
        )
        .and_then(|j| j.project_opts(&[2, 5, 1], adf.clone(), &opts))
        .and_then(Chunk::into_relation);
        assert_matches_spec(
            &got,
            &spec(false),
            &format!("build side, threads {threads}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn deferred_join_pipeline_matches_spec_on_ground(
        r1 in arb_ground("a", "a", "b"),
        r2 in arb_ground("b", "c", "d"),
        r3 in arb_ground("c", "e", "f"),
        cross in 0usize..4,
        lit in 0usize..4,
        v in -2i64..5,
    ) {
        check_deferred_pipeline(&r1, &r2, &r3, (CMPS[cross], CMPS[lit], v));
    }

    #[test]
    fn deferred_join_pipeline_matches_spec_over_fringes(
        r1 in arb_shaped("a", "a", "b"),
        r2 in arb_shaped("b", "c", "d"),
        r3 in arb_shaped("c", "e", "f"),
        cross in 0usize..4,
        lit in 0usize..4,
        v in -2i64..5,
    ) {
        check_deferred_pipeline(&r1, &r2, &r3, (CMPS[cross], CMPS[lit], v));
    }

    #[test]
    fn a_cloned_deferred_chunk_materializes_like_the_original(
        r1 in arb_ground("a", "a", "b"),
        r2 in arb_ground("b", "c", "d"),
        v in -2i64..5,
    ) {
        // Cloned straight out of the join and again after a filter has
        // narrowed the original: each copy materializes as its original.
        let mut joined = hash_join(
            Chunk::from_relation(&r1),
            Chunk::from_relation(&r2),
            &[(0, 0)],
            Schema::new(["a", "b", "c", "d"]).unwrap(),
            &ExecOptions::serial(),
        )
        .unwrap();
        let unfiltered = joined.clone();
        joined
            .filter(&BatchOperand::Col(3), BatchCmp::Pred(CmpPred::Ne), &BatchOperand::Lit(Const::int(v)), &ExecOptions::serial())
            .unwrap();
        let copy = joined.clone();
        let spec = specops::join_on(&r1, &r2, &[("a", "c")]).unwrap();
        prop_assert_eq!(unfiltered.into_relation().unwrap(), spec.clone());
        let want = specops::select_cmp(&spec, "d", CmpPred::Ne, &Value::int(v)).unwrap();
        prop_assert_eq!(copy.into_relation().unwrap(), want.clone());
        prop_assert_eq!(joined.into_relation().unwrap(), want);
    }
}

/// A mixed relation over `(a, b)` with its fringe rows where the generator
/// says: row `i` has `a = i / 2`, so support order follows row order, and
/// `b` is a ground int or a symbolic tensor — at random positions, and
/// at the first and the last `a` when the two drawn flags say so, so that
/// a fringe row can be the first or the last row of the support.
fn arb_positioned(
    prefix: &'static str,
    a: &'static str,
    b: &'static str,
) -> impl Strategy<Value = MKRel<P>> {
    let rows = prop::collection::vec((0u8..10, raw_val()), 0..10);
    let ends = (prop::bool::ANY, prop::bool::ANY);
    (rows, ends).prop_map(move |(rows, (first, last))| {
        let end = rows.len().saturating_sub(1) / 2;
        let cells = rows.into_iter().enumerate().map(|(i, (dice, (_, vi, n)))| {
            let key = i / 2;
            let b = if dice < 3 || (first && key == 0) || (last && key == end) {
                decode_num_val((5, vi, n.abs() + 1))
            } else {
                Value::int(n)
            };
            vec![Value::int(key as i64), b]
        });
        rel_from(prefix, Schema::new([a, b]).unwrap(), cells.collect())
    })
}

/// The join key of a wide relation: an integer, a string or — under the
/// mixed flavour — one of the two or a boolean, by `x`.
fn wide_key(flavour: u8, x: u8) -> Value<P> {
    match (flavour, x % 3) {
        (0, _) | (2, 0) => Value::int(i64::from(x)),
        (1, _) | (2, 1) => Value::str(&format!("k{x}")),
        _ => Value::Const(Const::Bool(x.is_multiple_of(2))),
    }
}

/// Any constant: an integer, a short or a long string, a boolean, a
/// non-integer rational.
fn wide_const(kind: u8, n: i64) -> Const {
    match kind {
        0..=2 => Const::int(n),
        3 => Const::str(["s0", "s1", "a string past seven bytes"][n.rem_euclid(3) as usize]),
        4 => Const::Bool(n % 2 == 0),
        _ => Const::Num(Num::ratio(2 * n + 1, 2)),
    }
}

/// A relation over three columns of up to `max` rows — at 1 200, the
/// store's 512-row blocks are crossed: a join key of the drawn flavour
/// (integers, strings or mixed), a numeric column — an integer, a
/// non-integer rational or, on a fringe row, a symbolic tensor, so that
/// fringe rows interleave with ground ones in support order — and a
/// column of any constant type.
fn arb_wide(
    prefix: &'static str,
    names: [&'static str; 3],
    max: usize,
) -> impl Strategy<Value = MKRel<P>> {
    let row = (0u8..24, 0u8..10, 0u8..6, -3i64..6);
    (0u8..3, prop::collection::vec(row, 0..max)).prop_map(move |(flavour, rows)| {
        let cells = rows.into_iter().map(|(x, num, any, n)| {
            let num = match num {
                0..=5 => Value::int(n),
                6 | 7 => Value::Const(Const::Num(Num::ratio(2 * n + 1, 2))),
                _ => decode_num_val((5, n.rem_euclid(4) as usize, n.abs() + 1)),
            };
            vec![wide_key(flavour, x), num, Value::Const(wide_const(any, n))]
        });
        rel_from(prefix, Schema::new(names).unwrap(), cells.collect())
    })
}

/// `rel` as a chunk in both forms: split in place (its cells and
/// annotations read in the relation's store), and assembled from owned
/// columns — every ground cell copied into a `Vec<Const>`, every ground
/// annotation into a dense vector (`ColumnBatch::from_columns`) — beside
/// the same fringe, or, with `ground_only`, without one. Also the
/// relation the chunks hold.
fn both_forms(rel: &MKRel<P>, ground_only: bool) -> ([Chunk<P>; 2], MKRel<P>) {
    let (in_place, fringe) = GroundBatch::from_relation(rel, Value::as_const).into_parts();
    let ground: Vec<_> = rel
        .iter()
        .filter(|(t, _)| t.values().iter().all(|v| v.as_const().is_some()))
        .collect();
    let column = |i: usize| {
        let cells = ground
            .iter()
            .map(|(t, _)| t.get(i).as_const().unwrap().clone());
        cells.collect()
    };
    let cols = (0..rel.schema().arity()).map(column).collect();
    let anns = ground.iter().map(|(_, k)| (*k).clone()).collect();
    let owned = ColumnBatch::from_columns(cols, anns).unwrap();
    let held = if ground_only {
        let rows = ground.iter().map(|(t, k)| (*t, (*k).clone()));
        Relation::from_tuples(rel.schema().clone(), rows, Merge::Sum).unwrap()
    } else {
        rel.clone()
    };
    let fringe = if ground_only { Vec::new() } else { fringe };
    let chunk = |batch| {
        Chunk::from_parts(
            rel.schema().clone(),
            GroundBatch::from_parts(batch, fringe.clone()),
        )
    };
    ([chunk(in_place).unwrap(), chunk(owned).unwrap()], held)
}

const FORMS: [&str; 2] = ["in place", "owned"];

/// Both chunk forms of three wide relations — `(a, b, m)`, `(c, d, n)`,
/// `(e, f, o)` — through every kernel, at threads 1 and 4: materialized
/// whole, `σ(b < v)`, and `σ(m ⋈ lit)` under `=`, `≠` and `<` (an
/// ordering across types is the same error on every path) over the whole
/// relation, fringe included; then over the ground rows under every
/// pairing of forms, `σ(b < v)` on the first, `⋈ (a = c)` with the
/// second, the join's output under `σ(n ≠ lit)` and a duplicated
/// projection, and a second join `⋈ (d = f)` with the third as its build
/// side and as its probe side, projected on `(a, d, f)`. Every result is
/// the `specops` composition, bit for bit.
fn check_in_place_against_owned(r1: &MKRel<P>, r2: &MKRel<P>, r3: &MKRel<P>, v: i64, lit: &Const) {
    let (whole, _) = both_forms(r1, false);
    let (b, v) = (BatchOperand::Col(1), BatchOperand::Lit(Const::int(v)));
    let (m, lit) = (BatchOperand::Col(2), BatchOperand::Lit(lit.clone()));
    let spec_filter = |rel: &MKRel<P>, attr: &str, cmp: BatchCmp, op: &BatchOperand| {
        let BatchOperand::Lit(c) = op else {
            unreachable!()
        };
        let value = Value::Const(c.clone());
        match cmp {
            BatchCmp::Eq => specops::select_eq(rel, attr, &value),
            BatchCmp::Pred(p) => specops::select_cmp(rel, attr, p, &value),
        }
    };
    let lt = BatchCmp::Pred(CmpPred::Lt);
    let filters = [
        (&b, "b", lt),
        (&m, "m", BatchCmp::Eq),
        (&m, "m", BatchCmp::Pred(CmpPred::Ne)),
        (&m, "m", lt),
    ];
    for threads in [1usize, 4] {
        let opts = ExecOptions::with_threads(threads);
        for (form, chunk) in FORMS.iter().zip(&whole) {
            let ctx = format!("{form}, threads {threads}");
            assert_eq!(chunk.clone().into_relation().unwrap(), *r1, "{ctx}");
            for (op, attr, cmp) in filters {
                let mut c = chunk.clone();
                let got = c.filter(op, cmp, if attr == "b" { &v } else { &lit }, &opts);
                let got = got.and_then(|()| c.into_relation());
                let want = spec_filter(r1, attr, cmp, if attr == "b" { &v } else { &lit });
                // Ground rows are filtered before the fringe, so an
                // ordering across types may be raised by another row than
                // the first in support order: only the error must agree.
                match (&got, &want) {
                    (Err(_), Err(_)) => {}
                    _ => assert_matches_spec(&got, &want, &format!("σ({attr} {cmp:?}), {ctx}")),
                }
            }
        }
    }

    let ((c1, g1), (c2, g2), (c3, g3)) = (
        both_forms(r1, true),
        both_forms(r2, true),
        both_forms(r3, true),
    );
    let j12 =
        specops::join_on(&spec_filter(&g1, "b", lt, &v).unwrap(), &g2, &[("a", "c")]).unwrap();
    let want_ne = spec_filter(&j12, "n", BatchCmp::Pred(CmpPred::Ne), &lit).unwrap();
    let dup = Schema::new(["m1", "a", "m2"]).unwrap();
    let want_dup = spec_project(&j12, &[2, 0, 2], &dup).unwrap();
    let adf = Schema::new(["a", "d", "f"]).unwrap();
    let want_adf = specops::join_on(&j12, &g3, &[("d", "f")])
        .and_then(|j| specops::project(&j, &["a", "d", "f"]))
        .unwrap();
    let (s6, s9) = (
        Schema::new(["a", "b", "m", "c", "d", "n"]).unwrap(),
        Schema::new(["a", "b", "m", "c", "d", "n", "e", "f", "o"]).unwrap(),
    );
    let s9_built = Schema::new(["e", "f", "o", "a", "b", "m", "c", "d", "n"]).unwrap();
    for threads in [1usize, 4] {
        let opts = ExecOptions::with_threads(threads);
        for mask in 0..8usize {
            let ctx = format!(
                "forms {} ⋈ {} ⋈ {}, threads {threads}",
                FORMS[mask & 1],
                FORMS[mask >> 1 & 1],
                FORMS[mask >> 2 & 1]
            );
            let (mut first, second, third) = (
                c1[mask & 1].clone(),
                c2[mask >> 1 & 1].clone(),
                c3[mask >> 2 & 1].clone(),
            );
            first.filter(&b, lt, &v, &opts).unwrap();
            let joined = hash_join(first, second, &[(0, 0)], s6.clone(), &opts).unwrap();
            assert_eq!(joined.clone().into_relation().unwrap(), j12, "{ctx}");
            let mut ne = joined.clone();
            let n = BatchOperand::Col(5);
            ne.filter(&n, BatchCmp::Pred(CmpPred::Ne), &lit, &opts)
                .unwrap();
            assert_eq!(ne.into_relation().unwrap(), want_ne, "σ(n ≠ lit), {ctx}");
            let projected = joined.clone().project_opts(&[2, 0, 2], dup.clone(), &opts);
            assert_eq!(
                projected.unwrap().into_relation().unwrap(),
                want_dup,
                "Π, {ctx}"
            );
            let nested = hash_join(joined.clone(), third.clone(), &[(4, 1)], s9.clone(), &opts)
                .and_then(|j| j.project_opts(&[0, 4, 7], adf.clone(), &opts))
                .and_then(Chunk::into_relation);
            assert_eq!(nested.unwrap(), want_adf, "⋈ probing, {ctx}");
            let built = hash_join(third, joined, &[(1, 4)], s9_built.clone(), &opts)
                .and_then(|j| j.project_opts(&[3, 7, 1], adf.clone(), &opts))
                .and_then(Chunk::into_relation);
            assert_eq!(built.unwrap(), want_adf, "⋈ building, {ctx}");
        }
    }
}

/// A constant of any type, for the filters over the mixed column.
fn arb_const() -> impl Strategy<Value = Const> {
    (0u8..6, -3i64..6).prop_map(|(kind, n)| wide_const(kind, n))
}

/// Builds a chunk from a copy of `rel` — one sharing its store with a
/// pinned clone when `pinned` — edits the copy with `edit`, and checks
/// that the chunk materializes `rel` as it was (after `σ(b ≠ v)` taken
/// before the edit and after it, or whole), the copy shows the edit, and
/// the pinned clone does not: the chunk keeps reading the cells and
/// annotations it was split from.
fn check_isolation(rel: &MKRel<P>, v: i64, pinned: bool, edit: impl Fn(&mut MKRel<P>)) {
    let fresh = || {
        Relation::from_tuples(
            rel.schema().clone(),
            rel.iter().map(|(t, k)| (t, k.clone())),
            Merge::Sum,
        )
        .unwrap()
    };
    let mut table = fresh();
    let pin = pinned.then(|| table.clone());
    let whole = Chunk::from_relation(&table);
    let mut late = Chunk::from_relation(&table);
    let mut filtered = Chunk::from_relation(&table);
    let (b, ne) = (BatchOperand::Col(1), BatchCmp::Pred(CmpPred::Ne));
    let lit = BatchOperand::Lit(Const::int(v));
    let opts = ExecOptions::serial();
    filtered.filter(&b, ne, &lit, &opts).unwrap();
    let mut edited = fresh();
    edit(&mut table);
    edit(&mut edited);
    assert_eq!(table, edited, "the edit shows in the relation");
    assert_eq!(whole.into_relation().unwrap(), *rel);
    let want = specops::select_cmp(rel, "b", CmpPred::Ne, &Value::int(v)).unwrap();
    assert_eq!(filtered.into_relation().unwrap(), want);
    late.filter(&b, ne, &lit, &opts).unwrap();
    assert_eq!(late.into_relation().unwrap(), want);
    if let Some(pin) = pin {
        assert_eq!(pin, *rel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_shared_annotation_column_reads_as_the_dense_one(
        r1 in arb_wide("a", ["a", "b", "m"], 12),
        r2 in arb_wide("b", ["c", "d", "n"], 8),
        r3 in arb_wide("c", ["e", "f", "o"], 8),
        v in -2i64..5,
        lit in arb_const(),
    ) {
        // Small relations, many cases: the annotation and cell forms, the
        // positions a fringe row records, every kernel.
        check_in_place_against_owned(&r1, &r2, &r3, v, &lit);
    }

    #[test]
    fn deferred_join_pipeline_matches_spec_over_positioned_fringes(
        r1 in arb_positioned("a", "a", "b"),
        r2 in arb_positioned("b", "c", "d"),
        r3 in arb_positioned("c", "e", "f"),
        cross in 0usize..4,
        lit in 0usize..4,
        v in -2i64..5,
    ) {
        check_deferred_pipeline(&r1, &r2, &r3, (CMPS[cross], CMPS[lit], v));
    }

    #[test]
    fn a_chunk_does_not_see_its_relation_edited(
        rel in arb_positioned("a", "a", "b"),
        at in 0usize..16,
        v in -2i64..5,
    ) {
        // An existing row (its annotation grows, or it goes), a new one at
        // the front, in the middle or past the end, and the deletion of
        // one token through `map_hom_mk_where`.
        let rows: Vec<Tuple<Value<P>>> = rel.iter().map(|(t, _)| t.to_tuple()).collect();
        let existing = rows.get(at % rows.len().max(1)).cloned();
        let new_row = |key: i64| Tuple::new(vec![Value::int(key), Value::int(v)]);
        let gone = format!("a{}", at % 10);
        for pinned in [false, true] {
            if let Some(t) = &existing {
                check_isolation(&rel, v, pinned, |r| r.add(t.clone(), tok("new")).unwrap());
                check_isolation(&rel, v, pinned, |r| {
                    r.remove(t);
                });
            }
            for key in [-1, 2, 9] {
                check_isolation(&rel, v, pinned, |r| r.add(new_row(key), tok("new")).unwrap());
            }
            check_isolation(&rel, v, pinned, |r| {
                let moved = |p: &NatPoly| p.vars().any(|x| x.name() == gone);
                let drop = |p: &NatPoly| p.drop_vars(&mut |x| x.name() == gone);
                if let Some(out) = eval::map_hom_mk_where(r, &moved, &drop) {
                    *r = out;
                }
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn in_place_cells_read_as_owned_columns_across_blocks(
        r1 in arb_wide("a", ["a", "b", "m"], 1_200),
        r2 in arb_wide("b", ["c", "d", "n"], 24),
        r3 in arb_wide("c", ["e", "f", "o"], 24),
        v in -2i64..5,
        lit in arb_const(),
    ) {
        // A first operand of up to 1 200 rows: its stored columns span
        // three blocks, and its fringe rows interleave with them.
        check_in_place_against_owned(&r1, &r2, &r3, v, &lit);
    }
}

#[test]
fn empty_relation_through_every_kernel() {
    let schema = Schema::new(["a", "b"]).unwrap();
    let rel: MKRel<P> = Relation::empty(schema.clone());
    let mut chunk = Chunk::from_relation(&rel);
    chunk
        .filter(
            &BatchOperand::Col(0),
            BatchCmp::Pred(CmpPred::Lt),
            &BatchOperand::Lit(Const::int(3)),
            &ExecOptions::serial(),
        )
        .unwrap();
    let chunk = chunk
        .add_unit_column(Schema::new(["a", "b", "one"]).unwrap())
        .unwrap();
    let chunk = chunk
        .project(&[0, 2], Schema::new(["a", "one"]).unwrap())
        .unwrap();
    let joined = hash_join(
        chunk,
        Chunk::from_relation(&Relation::<P, Value<P>>::empty(Schema::new(["c"]).unwrap())),
        &[(0, 0)],
        Schema::new(["a", "one", "c"]).unwrap(),
        &ExecOptions::serial(),
    )
    .unwrap();
    let out = joined
        .avg_divide(
            &[(0, 1)],
            false,
            Schema::new(["a", "one", "c", "q"]).unwrap(),
        )
        .unwrap()
        .into_relation()
        .unwrap();
    assert!(out.is_empty());
}
