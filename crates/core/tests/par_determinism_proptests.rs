//! Parallel determinism: the partition-parallel operator variants
//! (`ops::*_opts`) must produce relations **bit-identical** to the literal
//! §4.3 reference path (`specops`) at every thread count.
//!
//! The generated relations mix ground and symbolic values (as in
//! `specops_oracle_proptests`), and the thread counts deliberately straddle
//! the input sizes: with up to 7-row relations, `threads = 2` splits real
//! work while `threads = 8` produces more shards than tuples — so empty
//! shards, single-tuple shards and the shard-order merge are all exercised
//! on every case. A second, all-ground arm (more rows than threads, keys
//! that repeat across both union inputs and after projection) pins the
//! case the mixed generators only hit by chance: no fringe at all, every
//! row through the sharded buckets. Dedicated tests pin the degenerate
//! corners: empty inputs, all-symbolic relations (an empty ground
//! partition with a populated fringe), one symbolic key repeated on
//! several rows (its candidate is formed once), and a larger
//! deterministic workload where every shard is genuinely busy.
//!
//! A third arm aims at the keyed fold's **leading-run index** (symbolic
//! keys hashed by the key positions that are constant in all of them):
//! three-column keys whose columns are drawn ground / mixed / all-symbolic
//! independently, so the symbolic column comes first, in the middle and
//! last (runs of length 0, 1 and k−1) and some keys are ground where
//! others are symbolic. Over `Bool`, where a `SUM` comparison cannot be
//! expressed, the same shapes pin **error parity**: the index may only
//! skip pairs the literal left-to-right evaluation would have resolved to
//! `0` before reaching a token that fails.

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::semiring::Bool;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::km::Km;
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{specops, Value};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use proptest::prelude::*;

mod common;
use common::{arb_rel2, raw_val, rel_from, tok, RawVal, VARS};

type P = Km<NatPoly>;

/// The thread counts under test: serial, genuine splitting, and more
/// shards than tuples (empty shards).
const THREADS: [usize; 3] = [1, 2, 8];

/// One generated cell, decoded as `common::decode_val` decodes it, its
/// symbolic case through [`sym_val`] (which the key-shape generators
/// below share).
fn decode_val(raw: RawVal) -> Value<P> {
    let (kind, vi, n) = raw;
    match kind {
        0..=2 => Value::int(n),
        3 => Value::str(if n % 2 == 0 { "s0" } else { "s1" }),
        _ => sym_val(vi, n),
    }
}

fn sym_val(vi: usize, n: i64) -> Value<P> {
    Value::agg_normalized(
        MonoidKind::Sum,
        Tensor::from_terms(
            &MonoidKind::Sum,
            [(tok(VARS[vi % VARS.len()]), Const::int(n))],
        ),
    )
}

/// A `(group-key, numeric)` relation for the grouping tests (strings in
/// the aggregated column would be carrier-type errors on both paths).
fn arb_group_rel() -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7).prop_map(|rows| {
        rel_from(
            "g",
            Schema::new(["g", "v"]).unwrap(),
            rows.into_iter()
                .map(|(x, y)| {
                    let (kind, vi, n) = y;
                    let v = if kind <= 3 {
                        Value::int(n)
                    } else {
                        sym_val(vi, n)
                    };
                    vec![decode_val(x), v]
                })
                .collect(),
        )
    })
}

/// A fully ground `(a, b)` relation with more rows than the largest
/// thread count and few distinct values, so whole tuples repeat across
/// two draws and keys repeat after projecting or grouping on `a`: two of
/// its rows always share their `a` and differ in `b`, whatever the rest
/// draws.
fn arb_ground_rel(prefix: &'static str) -> impl Strategy<Value = MKRel<P>> {
    let rows = prop::collection::vec((0i64..4, 0i64..3), 7..22);
    (0i64..4, rows).prop_map(move |(shared, mut rows)| {
        rows.extend([(shared, 0), (shared, 1)]);
        rel_from(
            prefix,
            Schema::new(["a", "b"]).unwrap(),
            rows.into_iter()
                .map(|(a, b)| vec![Value::int(a), Value::int(b)])
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_ground_inputs_match_spec(r1 in arb_ground_rel("a"), r2 in arb_ground_rel("b")) {
        let spec_union = specops::union(&r1, &r2).unwrap();
        let spec_proj = specops::project(&r1, &["a"]).unwrap();
        let gspecs = [AggSpec::new(MonoidKind::Sum, "b")];
        let spec_group = specops::group_by(&r1, &["a"], &gspecs).unwrap();
        prop_assert!(spec_proj.len() < r1.len(), "projection merges keys");
        for t in THREADS {
            let opts = ExecOptions::with_threads(t);
            prop_assert_eq!(&ops::union_opts(&r1, &r2, &opts).unwrap(), &spec_union, "threads = {}", t);
            prop_assert_eq!(&ops::project_opts(&r1, &["a"], &opts).unwrap(), &spec_proj, "threads = {}", t);
            prop_assert_eq!(
                &ops::group_by_opts(&r1, &["a"], &gspecs, &opts).unwrap(),
                &spec_group,
                "threads = {}",
                t
            );
        }
    }

    #[test]
    fn union_parallel_matches_spec(r1 in arb_rel2("a", "a", "b"), r2 in arb_rel2("b", "a", "b")) {
        let spec = specops::union(&r1, &r2).unwrap();
        for t in THREADS {
            let par = ops::union_opts(&r1, &r2, &ExecOptions::with_threads(t)).unwrap();
            prop_assert_eq!(&par, &spec, "threads = {}", t);
        }
    }

    #[test]
    fn project_parallel_matches_spec(rel in arb_rel2("a", "a", "b"), keep_b in prop::bool::ANY) {
        let attrs: Vec<&str> = if keep_b { vec!["b", "a"] } else { vec!["a"] };
        let spec = specops::project(&rel, &attrs).unwrap();
        for t in THREADS {
            let par = ops::project_opts(&rel, &attrs, &ExecOptions::with_threads(t)).unwrap();
            prop_assert_eq!(&par, &spec, "threads = {}", t);
        }
    }

    #[test]
    fn join_on_parallel_matches_spec(r1 in arb_rel2("a", "a", "b"), r2 in arb_rel2("b", "c", "d")) {
        let spec = specops::join_on(&r1, &r2, &[("a", "c")]).unwrap();
        let spec2 = specops::join_on(&r1, &r2, &[("a", "c"), ("b", "d")]).unwrap();
        for t in THREADS {
            let opts = ExecOptions::with_threads(t);
            let par = ops::join_on_opts(&r1, &r2, &[("a", "c")], &opts).unwrap();
            prop_assert_eq!(&par, &spec, "threads = {}", t);
            let par2 = ops::join_on_opts(&r1, &r2, &[("a", "c"), ("b", "d")], &opts).unwrap();
            prop_assert_eq!(&par2, &spec2, "two-column, threads = {}", t);
        }
    }

    #[test]
    fn group_by_parallel_matches_spec(rel in arb_group_rel()) {
        let specs = [AggSpec::new(MonoidKind::Sum, "v")];
        let spec = specops::group_by(&rel, &["g"], &specs).unwrap();
        for t in THREADS {
            let par =
                ops::group_by_opts(&rel, &["g"], &specs, &ExecOptions::with_threads(t)).unwrap();
            prop_assert_eq!(&par, &spec, "threads = {}", t);
        }
    }

    #[test]
    fn parallel_is_deterministic_across_thread_counts(
        r1 in arb_rel2("a", "a", "b"),
        r2 in arb_rel2("b", "a", "b"),
    ) {
        // threads = 2 vs threads = 8 directly (not just both-equal-spec):
        // the merge order itself must not leak into the result.
        let two = ops::union_opts(&r1, &r2, &ExecOptions::with_threads(2)).unwrap();
        let eight = ops::union_opts(&r1, &r2, &ExecOptions::with_threads(8)).unwrap();
        prop_assert_eq!(two, eight);
    }
}

// ---------------------------------------------------------------------------
// The leading-run index: column-wise key shapes, and error parity
// ---------------------------------------------------------------------------

/// Thread counts of the index arm: the serial fold and sharded buckets.
const INDEX_THREADS: [usize; 2] = [1, 4];

/// How one key column is populated: 0 all ground, 1 mixed, 2 all symbolic.
type ColMode = u8;

/// One cell of a key column under its mode: few distinct values either
/// way, so key prefixes collide and differ.
fn key_cell(mode: ColMode, raw: (bool, usize, i64)) -> Value<P> {
    let (pick_sym, vi, n) = raw;
    match (mode, pick_sym) {
        (0, _) | (1, false) => Value::int(n),
        _ => sym_val(vi, 1 + n),
    }
}

/// A `(k1, k2, k3, v)` relation whose key columns follow `modes`.
fn arb_keyed_rel(prefix: &'static str) -> impl Strategy<Value = MKRel<P>> {
    let cell = || (prop::bool::ANY, 0usize..2, 0i64..2);
    (
        (0u8..3, 0u8..3, 0u8..3),
        prop::collection::vec((cell(), cell(), cell(), 1i64..4), 0..7),
    )
        .prop_map(move |((m1, m2, m3), rows)| {
            rel_from(
                prefix,
                sch(&["k1", "k2", "k3", "v"]),
                rows.into_iter()
                    .map(|(c1, c2, c3, v)| {
                        vec![
                            key_cell(m1, c1),
                            key_cell(m2, c2),
                            key_cell(m3, c3),
                            Value::int(v),
                        ]
                    })
                    .collect(),
            )
        })
}

/// A `Bool`-annotated relation over (`g`, `s`, `v`) in the given column
/// order: `g` ground, `s` a `SUM`-valued cell (or, one time in three, the
/// constant it could equal) — `Bool` cannot express a comparison between
/// two distinct `SUM` tensors, so reaching one is an error.
fn bool_rel(order: [&str; 3], rows: &[(i64, u8, i64, i64)]) -> MKRel<Bool> {
    let mut rel = Relation::empty(sch(&order));
    for (g, kind, n, v) in rows {
        let s = if *kind == 0 {
            Value::int(*n)
        } else {
            Value::Agg(
                MonoidKind::Sum,
                Tensor::from_terms(&MonoidKind::Sum, [(Bool(true), Const::int(*n))]),
            )
        };
        let cell = |name: &str| match name {
            "g" => Value::int(*g),
            "s" => s.clone(),
            _ => Value::int(*v),
        };
        rel.insert(order.map(cell).to_vec(), Bool(true)).unwrap();
    }
    rel
}

/// Both paths agree: equal relations, or the same error message.
macro_rules! assert_same_outcome {
    ($physical:expr, $spec:expr, $($ctx:tt)*) => {
        match ($physical, $spec) {
            (Ok(p), Ok(s)) => prop_assert_eq!(p, s, $($ctx)*),
            (Err(p), Err(s)) => prop_assert_eq!(p.to_string(), s.to_string(), $($ctx)*),
            (p, s) => prop_assert!(
                false,
                "paths diverge: physical ok={}, spec ok={} ({})",
                p.is_ok(),
                s.is_ok(),
                format!($($ctx)*)
            ),
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn column_wise_key_shapes_match_spec(r1 in arb_keyed_rel("a"), r2 in arb_keyed_rel("b")) {
        let keys = ["k1", "k2", "k3"];
        let gspecs = [AggSpec::new(MonoidKind::Sum, "v")];
        let spec_union = specops::union(&r1, &r2).unwrap();
        let spec_proj = specops::project(&r1, &keys).unwrap();
        let spec_group = specops::group_by(&r1, &keys, &gspecs).unwrap();
        for t in INDEX_THREADS {
            let opts = ExecOptions::with_threads(t);
            prop_assert_eq!(&ops::union_opts(&r1, &r2, &opts).unwrap(), &spec_union, "threads = {}", t);
            prop_assert_eq!(&ops::project_opts(&r1, &keys, &opts).unwrap(), &spec_proj, "threads = {}", t);
            prop_assert_eq!(
                &ops::group_by_opts(&r1, &keys, &gspecs, &opts).unwrap(),
                &spec_group,
                "threads = {}",
                t
            );
        }
    }

    /// A multi-column key whose positions are not a prefix of the tuple
    /// (columns `[2, 0]`): the fold reads its keys in place, so the key
    /// order — and with it the left-to-right token product and the
    /// leading-run index — has to come from the positions, not the tuple.
    #[test]
    fn non_prefix_keys_match_spec(r1 in arb_keyed_rel("a")) {
        let keys = ["k3", "k1"];
        let gspecs = [AggSpec::new(MonoidKind::Sum, "v")];
        let spec_proj = specops::project(&r1, &keys).unwrap();
        let spec_group = specops::group_by(&r1, &keys, &gspecs).unwrap();
        for t in INDEX_THREADS {
            let opts = ExecOptions::with_threads(t);
            prop_assert_eq!(&ops::project_opts(&r1, &keys, &opts).unwrap(), &spec_proj, "threads = {}", t);
            prop_assert_eq!(
                &ops::group_by_opts(&r1, &keys, &gspecs, &opts).unwrap(),
                &spec_group,
                "threads = {}",
                t
            );
        }
    }

    #[test]
    fn inexpressible_tokens_fail_on_both_paths_or_neither(
        rows in prop::collection::vec((0i64..3, 0u8..3, 1i64..3, 1i64..3), 0..6),
        more in prop::collection::vec((0i64..3, 0u8..3, 1i64..3, 1i64..3), 0..4),
    ) {
        let gspecs = [AggSpec::new(MonoidKind::Max, "v")];
        for order in [["g", "s", "v"], ["s", "g", "v"]] {
            let (r1, r2) = (bool_rel(order, &rows), bool_rel(order, &more));
            let keys = &order[..2];
            for t in INDEX_THREADS {
                let opts = ExecOptions::with_threads(t);
                assert_same_outcome!(
                    ops::project_opts(&r1, keys, &opts),
                    specops::project(&r1, keys),
                    "project {:?}, threads = {}", order, t
                );
                assert_same_outcome!(
                    ops::group_by_opts(&r1, keys, &gspecs, &opts),
                    specops::group_by(&r1, keys, &gspecs),
                    "group_by {:?}, threads = {}", order, t
                );
                assert_same_outcome!(
                    ops::union_opts(&r1, &r2, &opts),
                    specops::union(&r1, &r2),
                    "union {:?}, threads = {}", order, t
                );
            }
        }
    }
}

fn sch(names: &[&str]) -> Schema {
    Schema::new(names.iter().copied()).unwrap()
}

/// Empty inputs at high thread counts: shard planning must degrade to one
/// (empty) shard instead of spawning workers over nothing.
#[test]
fn empty_inputs_at_high_thread_counts() {
    let empty: MKRel<P> = Relation::empty(sch(&["a", "b"]));
    let opts = ExecOptions::with_threads(8);
    assert!(ops::union_opts(&empty, &empty, &opts).unwrap().is_empty());
    assert!(ops::project_opts(&empty, &["a"], &opts).unwrap().is_empty());
    assert!(ops::join_on_opts(
        &empty,
        &empty.clone().with_schema(sch(&["c", "d"])).unwrap(),
        &[("a", "c")],
        &opts
    )
    .unwrap()
    .is_empty());
    let grouped =
        ops::group_by_opts(&empty, &["a"], &[AggSpec::new(MonoidKind::Sum, "b")], &opts).unwrap();
    assert!(grouped.is_empty());
}

/// All-symbolic relations: the ground partition is empty, so every shard
/// is empty and the whole computation runs on the sequential token path.
#[test]
fn all_symbolic_relations_match_spec_at_every_thread_count() {
    let rows: Vec<Vec<Value<P>>> = (0..5)
        .map(|i| vec![sym_val(i, i as i64), sym_val(i + 1, 2)])
        .collect();
    let r1 = rel_from("a", sch(&["a", "b"]), rows.clone());
    let r2 = rel_from("b", sch(&["a", "b"]), rows.into_iter().rev().collect());
    let spec_union = specops::union(&r1, &r2).unwrap();
    let spec_proj = specops::project(&r1, &["a"]).unwrap();
    let r2j = r2.clone().with_schema(sch(&["c", "d"])).unwrap();
    let spec_join = specops::join_on(&r1, &r2j, &[("a", "c")]).unwrap();
    let gspecs = [AggSpec::new(MonoidKind::Sum, "b")];
    let spec_group = specops::group_by(&r1, &["a"], &gspecs).unwrap();
    for t in THREADS {
        let opts = ExecOptions::with_threads(t);
        assert_eq!(ops::union_opts(&r1, &r2, &opts).unwrap(), spec_union);
        assert_eq!(ops::project_opts(&r1, &["a"], &opts).unwrap(), spec_proj);
        assert_eq!(
            ops::join_on_opts(&r1, &r2j, &[("a", "c")], &opts).unwrap(),
            spec_join
        );
        assert_eq!(
            ops::group_by_opts(&r1, &["a"], &gspecs, &opts).unwrap(),
            spec_group
        );
    }
}

/// One symbolic key on several rows, beside ground rows it may equal under
/// a valuation: the key is a candidate once (one output row), and that
/// row sums every carrier of the key plus the token-weighted ground rows.
#[test]
fn repeated_symbolic_key_forms_one_candidate() {
    let key = || sym_val(0, 3);
    let r1 = rel_from(
        "a",
        sch(&["a", "b"]),
        vec![
            vec![key(), Value::int(1)],
            vec![key(), Value::int(2)],
            vec![key(), sym_val(1, 2)],
            vec![Value::int(3), Value::int(1)],
            vec![Value::int(3), Value::int(2)],
            vec![Value::int(4), Value::int(1)],
        ],
    );
    let r2 = rel_from(
        "b",
        sch(&["a", "b"]),
        vec![
            vec![key(), Value::int(1)],
            vec![Value::int(3), Value::int(1)],
        ],
    );
    let spec_union = specops::union(&r1, &r2).unwrap();
    let spec_proj = specops::project(&r1, &["a"]).unwrap();
    let gspecs = [AggSpec::new(MonoidKind::Sum, "b")];
    let spec_group = specops::group_by(&r1, &["a"], &gspecs).unwrap();
    for t in THREADS {
        let opts = ExecOptions::with_threads(t);
        assert_eq!(ops::union_opts(&r1, &r2, &opts).unwrap(), spec_union);
        let proj = ops::project_opts(&r1, &["a"], &opts).unwrap();
        assert_eq!(proj, spec_proj);
        assert_eq!(proj.iter().filter(|(t, _)| t.get(0) == &key()).count(), 1);
        let grouped = ops::group_by_opts(&r1, &["a"], &gspecs, &opts).unwrap();
        assert_eq!(grouped, spec_group);
        assert_eq!(grouped.len(), 3, "keys ⟨x⊗3⟩, 3 and 4");
    }
}

/// `n` rows of `(emp, dept, sal)` over 23 departments, drawn from a fixed
/// LCG.
fn emp_rows(n: usize) -> MKRel<P> {
    let mut emp = Relation::empty(sch(&["emp", "dept", "sal"]));
    let mut state: u64 = 0xDEAD_BEEF;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let dept = (state >> 33) as i64 % 23;
        let sal = 10 + (state >> 17) as i64 % 90;
        emp.insert(
            vec![Value::int(i as i64), Value::int(dept), Value::int(sal)],
            tok(&format!("p{i}")),
        )
        .unwrap();
    }
    emp
}

/// A workload big enough that every shard at `threads = 8` is busy:
/// parallel results must equal the serial hash path (which the
/// `specops_oracle` suite already ties to the literal operators) tuple
/// for tuple.
#[test]
fn busy_shards_match_serial_hash_path() {
    let emp = emp_rows(400);
    let mut dim = Relation::empty(sch(&["dept2", "region"]));
    for d in 0..23 {
        dim.insert(
            vec![Value::int(d), Value::int(d % 5)],
            tok(&format!("d{d}")),
        )
        .unwrap();
    }
    let serial = ExecOptions::serial();
    let par = ExecOptions::with_threads(8);
    assert_eq!(
        ops::join_on_opts(&emp, &dim, &[("dept", "dept2")], &par).unwrap(),
        ops::join_on_opts(&emp, &dim, &[("dept", "dept2")], &serial).unwrap()
    );
    // A join probe shards only from 8 192 probe rows on. Above that, with
    // one symbolic `dim` row (a ground key, a symbolic `region`), the join
    // leaves the columnar path for `join_at`, whose ground-key block
    // hashes that row too and shards its probe over `emp`.
    let big = emp_rows(9_000);
    let mut sym_dim = dim.clone();
    sym_dim
        .insert(vec![Value::int(7), sym_val(0, 3)], tok("d_sym"))
        .unwrap();
    let joined = ops::join_on_opts(&big, &sym_dim, &[("dept", "dept2")], &par).unwrap();
    assert_eq!(
        joined,
        ops::join_on_opts(&big, &sym_dim, &[("dept", "dept2")], &serial).unwrap()
    );
    assert!(joined.iter().any(|(t, _)| t.get(4).is_agg()));
    let gspecs = [AggSpec::new(MonoidKind::Sum, "sal")];
    assert_eq!(
        ops::group_by_opts(&emp, &["dept"], &gspecs, &par).unwrap(),
        ops::group_by_opts(&emp, &["dept"], &gspecs, &serial).unwrap()
    );
    assert_eq!(
        ops::project_opts(&emp, &["dept"], &par).unwrap(),
        ops::project_opts(&emp, &["dept"], &serial).unwrap()
    );
    assert_eq!(
        ops::union_opts(&emp, &emp, &par).unwrap(),
        ops::union_opts(&emp, &emp, &serial).unwrap()
    );
}
