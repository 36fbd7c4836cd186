//! Property tests for the typed columnar storage and its kernels:
//! `TypedColumn` round-trips (unboxed `i64` runs, dictionary
//! re-materialization, mixed-type demotion to boxed) must be lossless,
//! and the columnar filter and join must be **bit-identical** to the
//! literal §4.3 `specops` reference — same relation or same error
//! message — over `num`, `str` and `boxed` columns (the data alone picks
//! the variant: mixed types, booleans and non-integer rationals box a
//! column), at `threads ∈ {1, 4}`, so the sharded selection-vector kernels
//! are under the same oracle as the serial loops.

use aggprov_algebra::domain::Const;
use aggprov_algebra::num::Num;
use aggprov_algebra::poly::NatPoly;
use aggprov_core::km::{CmpPred, Km};
use aggprov_core::ops::batch::{hash_join, BatchCmp, BatchOperand, Chunk};
use aggprov_core::ops::MKRel;
use aggprov_core::par::ExecOptions;
use aggprov_core::{specops, Value};
use aggprov_krel::batch::GroundBatch;
use aggprov_krel::error::Result;
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use aggprov_krel::typed::TypedColumn;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const STRS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One generated constant: integers dominate (the unboxed run), strings
/// share a small pool (real dictionaries), and the tail exercises the
/// boxed fallback — bools, non-integer rationals, infinities.
type RawConst = (u8, i64);

fn decode_const(raw: RawConst) -> Const {
    let (kind, n) = raw;
    match kind {
        0..=3 => Const::int(n),
        4..=6 => Const::str(STRS[(n.rem_euclid(4)) as usize]),
        7 => Const::Bool(n % 2 == 0),
        8 => Const::Num(Num::ratio(2 * n + 1, 2)),
        _ => Const::Num(if n % 2 == 0 { Num::PosInf } else { Num::NegInf }),
    }
}

fn raw_const() -> impl Strategy<Value = RawConst> {
    (0u8..10, -3i64..6)
}

/// A single-variant generator (all-int or all-string columns), for the
/// typed fast paths proper.
fn raw_int() -> impl Strategy<Value = RawConst> {
    (0u8..4, -3i64..6)
}

fn raw_str() -> impl Strategy<Value = RawConst> {
    (4u8..7, -3i64..6)
}

fn rel_from(prefix: &str, schema: Schema, rows: Vec<Vec<Const>>) -> MKRel<P> {
    Relation::from_rows(
        schema,
        rows.into_iter().enumerate().map(|(i, row)| {
            (
                row.into_iter().map(Value::Const).collect::<Vec<_>>(),
                tok(&format!("{prefix}{i}")),
            )
        }),
    )
    .unwrap()
}

/// The three-column rows every kernel property draws: an all-integer
/// column, an all-string column, and a mixed-type column.
type RawRow = (RawConst, RawConst, RawConst);

fn raw_rows(max: usize) -> impl Strategy<Value = Vec<RawRow>> {
    prop::collection::vec((raw_int(), raw_str(), raw_const()), 0..max)
}

fn rel3(prefix: &str, names: [&str; 3], rows: Vec<RawRow>) -> MKRel<P> {
    rel_from(
        prefix,
        Schema::new(names).unwrap(),
        rows.into_iter()
            .map(|(x, y, z)| vec![decode_const(x), decode_const(y), decode_const(z)])
            .collect(),
    )
}

/// Asserts one result of the columnar path against the `specops` oracle:
/// the same relation bit for bit, or the same error message.
fn assert_matches_spec(got: &Result<MKRel<P>>, want: &Result<MKRel<P>>, ctx: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(g, w, "{ctx}"),
        (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{ctx}"),
        _ => panic!("{ctx}: paths disagree on error: batch {got:?} vs specops {want:?}"),
    }
}

/// Asserts the columnar filter and the `specops` oracle agree at threads 1
/// and 4.
fn check_filter(rel: &MKRel<P>, col: usize, attr: &str, cmp: BatchCmp, lit: Const) {
    let value = Value::Const(lit.clone());
    let want = match cmp {
        BatchCmp::Eq => specops::select_eq(rel, attr, &value),
        BatchCmp::Pred(p) => specops::select_cmp(rel, attr, p, &value),
    };
    for threads in [1usize, 4] {
        let opts = ExecOptions::with_threads(threads);
        let mut chunk = Chunk::from_relation(rel);
        let got = chunk
            .filter(
                &BatchOperand::Col(col),
                cmp,
                &BatchOperand::Lit(lit.clone()),
                &opts,
            )
            .and_then(|()| chunk.into_relation());
        assert_matches_spec(&got, &want, &format!("column {attr} threads {threads}"));
    }
}

/// The variant each ground column of `rel` takes when its cells — read
/// in place, as a chunk's kernels read them — are typed by
/// [`TypedColumn::from_consts`], as a join types its build key.
fn column_variants(rel: &MKRel<P>) -> Vec<&'static str> {
    let batch = GroundBatch::from_relation(rel, Value::as_const);
    let ground = batch.ground();
    let variant = |i: usize| {
        let mut col = ground.column(i).unwrap();
        let cells = (0..ground.len() as u32).map(|r| col.get(r).unwrap().into_owned());
        TypedColumn::from_consts(cells.collect()).variant()
    };
    (0..rel.schema().arity()).map(variant).collect()
}

/// The kernel properties below are only as strong as the cell mixes their
/// generator reaches: [`raw_rows`] must yield columns that type as
/// unboxed, dictionary and boxed from the data alone — and the boxed ones
/// by each route the storage documents (two value types meeting, a
/// boolean, a non-integer rational). A scan types no column; the join's
/// build key and an owned column do, so the same cells are probed
/// through [`TypedColumn::from_consts`].
#[test]
fn generator_covers_every_column_variant() {
    let mut rng = TestRng::for_test("generator_covers_every_column_variant");
    let mut probed = BTreeSet::new();
    let mut boxed_by = BTreeSet::new();
    for _ in 0..128 {
        let rel = rel3("t", ["a", "b", "c"], raw_rows(14).generate(&mut rng));
        if rel.is_empty() {
            continue;
        }
        let variants = column_variants(&rel);
        if variants[2] == "boxed" {
            let mixed: Vec<Const> = rel
                .iter()
                .filter_map(|(t, _)| t.get(2).as_const().cloned())
                .collect();
            let types: BTreeSet<&str> = mixed.iter().map(Const::type_name).collect();
            boxed_by.extend((types.len() > 1).then_some("mixed types"));
            boxed_by.extend(
                mixed
                    .iter()
                    .any(|c| matches!(c, Const::Bool(_)))
                    .then_some("boolean"),
            );
            boxed_by.extend(
                mixed
                    .iter()
                    .any(|c| c.as_num().is_some_and(|n| n.as_int().is_none()))
                    .then_some("non-integer rational"),
            );
        }
        probed.extend(variants);
    }
    assert_eq!(probed, BTreeSet::from(["boxed", "num", "str"]));
    assert_eq!(
        boxed_by,
        BTreeSet::from(["boolean", "mixed types", "non-integer rational"])
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn typed_column_round_trips_all_variants(vals in prop::collection::vec(raw_const(), 0..40)) {
        // from_consts, then `get` on every row, is the identity whatever
        // variant the probe (and any mid-stream demotion) lands on.
        let consts: Vec<Const> = vals.into_iter().map(decode_const).collect();
        let col = TypedColumn::from_consts(consts.clone());
        prop_assert_eq!(col.len(), consts.len());
        for (r, c) in consts.iter().enumerate() {
            prop_assert_eq!(col.get(r).as_ref(), Some(c));
        }
        // One-past-the-end is None, not a panic.
        prop_assert!(col.get(consts.len()).is_none());
    }

    #[test]
    fn relation_batch_round_trip_is_lossless(
        rows in prop::collection::vec((raw_const(), raw_const(), raw_const()), 0..12),
    ) {
        // Relation → chunk → Relation is the identity, whatever mix of
        // variants the three columns probe into.
        let schema = Schema::new(["a", "b", "c"]).unwrap();
        let rel = rel_from(
            "t",
            schema,
            rows.into_iter()
                .map(|(x, y, z)| vec![decode_const(x), decode_const(y), decode_const(z)])
                .collect(),
        );
        let back = Chunk::from_relation(&rel).into_relation().unwrap();
        prop_assert_eq!(back, rel);
    }

    #[test]
    fn typed_filter_matches_boxed_and_ops(
        rows in raw_rows(14),
        lit in raw_const(),
        which in 0u8..4,
    ) {
        // Column 0 is all integers, column 1 all strings, column 2 mixed
        // (two kinds meeting, booleans, half-integers); the literal ranges
        // over every constant kind, so the compiled integer tests cover
        // same-type, cross-type (lazy errors), non-integer rational
        // folding and ±∞ folding, and the other cells the structural
        // comparison.
        let rel = rel3("t", ["a", "b", "c"], rows);
        let cmp = match which {
            0 => BatchCmp::Eq,
            1 => BatchCmp::Pred(CmpPred::Lt),
            2 => BatchCmp::Pred(CmpPred::Le),
            _ => BatchCmp::Pred(CmpPred::Ne),
        };
        let lit = decode_const(lit);
        for (col, attr) in ["a", "b", "c"].into_iter().enumerate() {
            check_filter(&rel, col, attr, cmp, lit.clone());
        }
    }

    #[test]
    fn typed_join_matches_boxed_and_specops(
        l_rows in raw_rows(10),
        r_rows in raw_rows(10),
        on in 0usize..3,
    ) {
        // Join on the integer column, the string column or the mixed
        // column: the build key types as an integer hash index, a
        // dictionary with a bucket per code or a structural `Const` index
        // (boxed keys), against the literal §4.3 join.
        let l = rel3("l", ["a", "b", "c"], l_rows);
        let r = rel3("r", ["d", "e", "f"], r_rows);
        let on_attrs = [(["a", "b", "c"][on], ["d", "e", "f"][on])];
        let schema = Schema::new(["a", "b", "c", "d", "e", "f"]).unwrap();
        let want = specops::join_on(&l, &r, &on_attrs);
        for threads in [1usize, 4] {
            let got = hash_join(
                Chunk::from_relation(&l),
                Chunk::from_relation(&r),
                &[(on, on)],
                schema.clone(),
                &ExecOptions::with_threads(threads),
            )
            .and_then(Chunk::into_relation);
            assert_matches_spec(&got, &want, &format!("on column {on} threads {threads}"));
        }
    }
}

/// Above the sharding threshold (8192 rows), the fan-out kernels must be
/// bit-identical to the serial loops and to `specops`, over typed columns
/// and over columns the data boxed. (A column-vs-literal filter shards
/// only from 262 144 selected rows; `ops::typed`'s unit tests take it
/// there, over owned and stored cells.)
#[test]
fn sharded_kernels_match_serial_above_threshold() {
    // Distinct rows (the `id` column), so nothing merges away: both
    // filters and the join probe see more than 8192 selected rows.
    const N: i64 = 24_000;
    // `typed`: an unboxed key column and a dictionary column. Otherwise
    // half-integer keys and one number among the strings box both.
    for typed in [true, false] {
        let key = |i: i64| {
            if typed {
                Const::int(i)
            } else {
                Const::Num(Num::ratio(2 * i + 1, 2))
            }
        };
        let rel = rel_from(
            "t",
            Schema::new(["a", "b", "id"]).unwrap(),
            (0..N)
                .map(|i| {
                    let b = if !typed && i == 0 {
                        Const::int(0)
                    } else {
                        Const::str(STRS[(i % 4) as usize])
                    };
                    vec![key(i % 257), b, Const::int(i)]
                })
                .collect(),
        );
        assert_eq!(rel.len(), N as usize);
        let want_variants = if typed {
            ["num", "str", "num"]
        } else {
            ["boxed", "boxed", "num"]
        };
        assert_eq!(column_variants(&rel), want_variants);
        let dim = rel_from(
            "d",
            Schema::new(["c", "e"]).unwrap(),
            (0..128).map(|i| vec![key(i), Const::int(i * 10)]).collect(),
        );
        let out_schema = Schema::new(["a", "b", "id", "c", "e"]).unwrap();
        let bound = key(128);
        let filtered = specops::select_cmp(&rel, "a", CmpPred::Lt, &Value::Const(bound.clone()))
            .and_then(|r| specops::select_cmp(&r, "b", CmpPred::Ne, &Value::str("delta")))
            .unwrap();
        assert!(
            filtered.len() > 8192,
            "join probe below the shard threshold"
        );
        let want = specops::join_on(&filtered, &dim, &[("a", "c")]).unwrap();
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads);
            let mut chunk = Chunk::from_relation(&rel);
            chunk
                .filter(
                    &BatchOperand::Col(0),
                    BatchCmp::Pred(CmpPred::Lt),
                    &BatchOperand::Lit(bound.clone()),
                    &opts,
                )
                .unwrap();
            chunk
                .filter(
                    &BatchOperand::Col(1),
                    BatchCmp::Pred(CmpPred::Ne),
                    &BatchOperand::Lit(Const::str("delta")),
                    &opts,
                )
                .unwrap();
            let joined = hash_join(
                chunk,
                Chunk::from_relation(&dim),
                &[(0, 0)],
                out_schema.clone(),
                &opts,
            )
            .unwrap()
            .into_relation()
            .unwrap();
            assert_eq!(joined, want, "typed {typed} threads {threads}");
        }
    }
}
