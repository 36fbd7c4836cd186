//! Property tests for the columnar kernels over cells read in place: the
//! `Relation ⇄ Chunk` round trip must be lossless, and the columnar filter
//! and join must be **bit-identical** to the literal §4.3 `specops`
//! reference — same relation or same error message — over integral,
//! all-string and mixed columns, so that a join's build key takes both of
//! its index arms (the integer-hashed index for a key integral in every
//! build row, the structural one for everything else, reached by two
//! types meeting, a boolean or a non-integer rational) and the join
//! indexes its left side, its right side and (on a tie) the right, at
//! `threads ∈ {1, 4}`, so the sharded selection-vector kernels are under
//! the same oracle as the serial loops.
//!
//! The file's name and two of its test names
//! (`typed_filter_matches_boxed_and_ops`,
//! `typed_join_matches_boxed_and_specops`) are those of the typed and
//! boxed column layouts these properties once compared. Both layouts are
//! gone: there is one column form, read as `&Const`, and each test checks
//! it against `specops` alone.

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
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const STRS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One generated constant: integers dominate (the integer index), strings
/// share a small pool (equal keys), and the tail exercises the cells no
/// integer index holds — bools, non-integer rationals, infinities.
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

/// A single-type generator (all-int or all-string columns), for the
/// columns whose cells share one type.
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

/// How a join indexes column `i` of `rel` as its build key: the cells of
/// the ground rows, read in place as the join reads them, are
/// `"integral"` (the integer-hashed index) or `"all strings"`, and
/// otherwise meet the structural index by each route they take — `"mixed
/// types"`, `"boolean"`, `"non-integer rational"` (`±∞` included).
fn key_shape(rel: &MKRel<P>, i: usize) -> BTreeSet<&'static str> {
    let batch = GroundBatch::from_relation(rel, Value::as_const);
    let mut col = batch.ground().column(i).unwrap();
    let cells: Vec<&Const> = (0..col.len() as u32).map(|r| col.get(r).unwrap()).collect();
    let integral = |c: &&Const| c.as_num().and_then(|n| n.as_int()).is_some();
    if cells.iter().all(integral) {
        return BTreeSet::from(["integral"]);
    }
    if cells.iter().all(|c| matches!(c, Const::Str(_))) {
        return BTreeSet::from(["all strings"]);
    }
    let types: BTreeSet<&str> = cells.iter().map(|c| c.type_name()).collect();
    let routes = [
        (types.len() > 1, "mixed types"),
        (cells.iter().any(|c| matches!(c, Const::Bool(_))), "boolean"),
        (
            cells
                .iter()
                .any(|c| c.as_num().is_some_and(|n| n.as_int().is_none())),
            "non-integer rational",
        ),
    ];
    routes
        .into_iter()
        .filter_map(|(hit, r)| hit.then_some(r))
        .collect()
}

/// The join property below is only as strong as the build keys its
/// generator reaches: over [`raw_rows`], a join on each column must meet
/// both index arms — an integral key (the integer-hashed index), and the
/// structural index by an all-string key and by a mixed key along each
/// route (two value types meeting, a boolean, a non-integer rational).
#[test]
fn generator_covers_both_join_index_arms() {
    let mut rng = TestRng::for_test("generator_covers_both_join_index_arms");
    let mut reached = BTreeSet::new();
    for _ in 0..128 {
        let rel = rel3("r", ["d", "e", "f"], raw_rows(10).generate(&mut rng));
        if rel.is_empty() {
            continue;
        }
        for i in 0..3 {
            reached.extend(key_shape(&rel, i));
        }
    }
    assert_eq!(
        reached,
        BTreeSet::from([
            "all strings",
            "boolean",
            "integral",
            "mixed types",
            "non-integer rational"
        ])
    );
}

/// The join property below runs both build sides only if its generator
/// reaches them: the join indexes the side with fewer selected rows (the
/// right one on a tie), so over pairs of [`raw_rows`] relations the left
/// must come out smaller, the right smaller, and the two equal — each of
/// them non-empty, so that an index is built and probed.
#[test]
fn generator_covers_both_build_sides() {
    let mut rng = TestRng::for_test("generator_covers_both_build_sides");
    let mut reached = BTreeSet::new();
    for _ in 0..128 {
        let l = rel3("l", ["a", "b", "c"], raw_rows(10).generate(&mut rng));
        let r = rel3("r", ["d", "e", "f"], raw_rows(10).generate(&mut rng));
        if l.is_empty() || r.is_empty() {
            continue;
        }
        reached.insert(match l.len().cmp(&r.len()) {
            std::cmp::Ordering::Less => "left indexed",
            std::cmp::Ordering::Greater => "right indexed",
            std::cmp::Ordering::Equal => "tie, right indexed",
        });
    }
    assert_eq!(
        reached,
        BTreeSet::from(["left indexed", "right indexed", "tie, right indexed"])
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn relation_batch_round_trip_is_lossless(
        rows in prop::collection::vec((raw_const(), raw_const(), raw_const()), 0..12),
    ) {
        // Relation → chunk → Relation is the identity, whatever mix of
        // constants the three columns hold.
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
        // column: the build key takes the integer-hashed index or the
        // structural one (`generator_covers_both_join_index_arms` shows
        // both are reached), on whichever side has fewer rows
        // (`generator_covers_both_build_sides` shows the left, the right
        // and a tie are reached), against the literal §4.3 join.
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
/// bit-identical to the serial loops and to `specops`, over an integral
/// join key and over a key the structural index holds. (A column-vs-literal filter shards
/// only from 262 144 selected rows; `ops::typed`'s unit tests take it
/// there, over owned and stored cells.)
#[test]
fn sharded_kernels_match_serial_above_threshold() {
    // Distinct rows (the `id` column), so nothing merges away: both
    // filters and the join probe see more than 8192 selected rows.
    const N: i64 = 24_000;
    // `integral`: an integral key column and an all-string one. Otherwise
    // half-integer keys and one number among the strings.
    for integral in [true, false] {
        let key = |i: i64| {
            if integral {
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
                    let b = if !integral && i == 0 {
                        Const::int(0)
                    } else {
                        Const::str(STRS[(i % 4) as usize])
                    };
                    vec![key(i % 257), b, Const::int(i)]
                })
                .collect(),
        );
        assert_eq!(rel.len(), N as usize);
        let want_shapes = if integral {
            ["integral", "all strings"]
        } else {
            ["non-integer rational", "mixed types"]
        };
        let dim = rel_from(
            "d",
            Schema::new(["c", "e"]).unwrap(),
            (0..128).map(|i| vec![key(i), Const::int(i * 10)]).collect(),
        );
        // The join's build key (`dim.c`), and the filtered columns.
        let shapes = [key_shape(&dim, 0), key_shape(&rel, 0), key_shape(&rel, 1)];
        assert_eq!(
            shapes,
            [want_shapes[0], want_shapes[0], want_shapes[1]].map(|s| BTreeSet::from([s]))
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
            assert_eq!(joined, want, "integral {integral} threads {threads}");
        }
    }
}
