//! The fast-path correctness sweep: targeted property tests for the
//! one-sided-ground bug class that PR 4 fixed in `ops::annotation_at`
//! (the structural fast path fired when only the *relation* was ground,
//! silently dropping the token cross terms a symbolic lookup tuple
//! carries against ground support tuples).
//!
//! Audit of the remaining groundness gates in `core::ops` (the operators
//! in `ops/physical.rs`, the chunk kernels in `ops/batch.rs`):
//!
//! * **`union_opts` partition** (the `is_ground_at` split over all
//!   positions): ground output keys explicitly add every symbolic
//!   tuple's token-weighted contribution (`sym_ref` loop inside the
//!   shard closure), and symbolic output keys sum over both partitions —
//!   two-sided by construction. The top-level structural merge only
//!   fires when **both** inputs pass `has_symbolic = false`.
//! * **`project_opts`** is `Chunk::project_opts` over the relation split
//!   into a chunk: the column pick (additive merge at materialization)
//!   needs the chunk to have *no* fringe row — a symbolic cell anywhere
//!   in a row, projected or not, sends the whole input through the keyed
//!   fold, whose partition adds cross terms in both directions.
//! * **`select_with_token`** (`tok.is_zero()` / `is_one()` shortcut):
//!   §4.3 selection is per-tuple — `(σR)(t) = R(t)·[cond]` has no
//!   cross-tuple sum, so dropping zero-token tuples and keeping
//!   one-token tuples verbatim cannot lose symbolic terms. The shortcut
//!   is exercised one-sidedly here (ground rows against a symbolic
//!   comparison value and vice versa) against a literal no-shortcut
//!   oracle.
//! * **`group_by_opts` partition** (the keyed fold `union_opts` and
//!   `project_opts` share): ground buckets fold the token-weighted
//!   contributions of symbolic-keyed tuples (`keyed_fold`'s per-bucket
//!   `sym` loop); symbolic candidate groups sum over every bucket and
//!   the symbolic fringe — two-sided.
//! * **`join_on_opts`** is `batch::hash_join` over both relations split
//!   into chunks: the columnar join needs *two* fringe-free chunks (the
//!   `Ground` witness); otherwise `join_at` partitions each side by key
//!   groundness, its build index joins only ground × ground key pairs,
//!   and all three one-or-two-sided symbolic blocks (`g×s`, `s×g`,
//!   `s×s`) run the token nested loop.
//!
//! No further instance of the bug class was found; these tests pin each
//! gate in exactly the regime where it would bite — one side (or one
//! column subset) fully ground, the other symbolic — bit-identical to
//! the literal §4.3 `specops` oracles at `threads ∈ {1, 4}`, mirroring
//! `difference_proptests.rs`.

use aggprov_algebra::domain::Const;
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::semiring::{CommutativeSemiring, Nat};
use aggprov_algebra::tensor::Tensor;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::eval::{collapse, map_hom_mk};
use aggprov_core::km::{CmpPred, Km};
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::par::ExecOptions;
use aggprov_core::{specops, Value};
use aggprov_krel::relation::{Merge, Relation, Tuple};
use aggprov_krel::schema::Schema;
use proptest::prelude::*;
use std::collections::BTreeMap;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const VARS: [&str; 3] = ["x", "y", "z"];

fn schema2() -> Schema {
    Schema::new(["a", "b"]).unwrap()
}

fn sym_value(vi: usize, n: i64) -> Value<P> {
    Value::agg_normalized(
        MonoidKind::Sum,
        Tensor::from_terms(&MonoidKind::Sum, [(tok(VARS[vi]), Const::int(n))]),
    )
}

/// A fully ground relation over `(a, b)` with distinct tokens.
fn arb_ground_rel(prefix: &'static str) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((-1i64..3, -1i64..3), 0..5).prop_map(move |rows| {
        let mut rel = Relation::empty(schema2());
        for (i, (a, b)) in rows.into_iter().enumerate() {
            rel.insert(
                vec![Value::int(a), Value::int(b)],
                tok(&format!("{prefix}{i}")),
            )
            .unwrap();
        }
        rel
    })
}

/// A relation over `(a, b)` whose **every** row is symbolic at `a` (the
/// one-sided regime: no row of this side lands in a ground partition
/// keyed on `a`); `b` stays a ground number.
fn arb_sym_rel(prefix: &'static str) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((0..VARS.len(), 1i64..4, -1i64..3), 0..4).prop_map(move |rows| {
        let mut rel = Relation::empty(schema2());
        for (i, (vi, n, b)) in rows.into_iter().enumerate() {
            rel.insert(
                vec![sym_value(vi, n), Value::int(b)],
                tok(&format!("{prefix}{i}")),
            )
            .unwrap();
        }
        rel
    })
}

/// Both thread counts of an `_opts` operator must agree with the oracle.
fn both_threads<F>(f: F) -> (MKRel<P>, MKRel<P>)
where
    F: Fn(&ExecOptions) -> MKRel<P>,
{
    (f(&ExecOptions::serial()), f(&ExecOptions::with_threads(4)))
}

/// A valuation covering the shared symbolic variables and row tokens.
fn valuation(bits: u32) -> Valuation<Nat> {
    let mut val = Valuation::<Nat>::ones();
    for (i, v) in VARS.iter().enumerate() {
        val = val.set(*v, Nat(u64::from((bits >> i) & 3)));
    }
    for (i, p) in ["g0", "g1", "g2", "g3", "g4"].iter().enumerate() {
        val = val.set(*p, Nat(u64::from((bits >> (i + 6)) & 1)));
    }
    for (i, p) in ["s0", "s1", "s2", "s3"].iter().enumerate() {
        val = val.set(*p, Nat(u64::from((bits >> (i + 11)) & 1)));
    }
    val
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn union_one_sided_ground_matches_spec(
        g in arb_ground_rel("g"),
        s in arb_sym_rel("s"),
    ) {
        // Ground ∪ symbolic, both orders: the ground partition's merge
        // must still pick up every cross term against the symbolic side.
        let want_gs = specops::union(&g, &s).unwrap();
        let (t1, t4) = both_threads(|o| ops::union_opts(&g, &s, o).unwrap());
        prop_assert_eq!(&t1, &want_gs);
        prop_assert_eq!(&t4, &want_gs);

        let want_sg = specops::union(&s, &g).unwrap();
        let (t1, t4) = both_threads(|o| ops::union_opts(&s, &g, o).unwrap());
        prop_assert_eq!(&t1, &want_sg);
        prop_assert_eq!(&t4, &want_sg);
    }

    #[test]
    fn union_one_sided_commutes_with_valuations(
        g in arb_ground_rel("g"),
        s in arb_sym_rel("s"),
        bits in 0u32..(1 << 15),
    ) {
        // The §4.3 semantic grounding, as in difference_proptests:
        // specializing the symbolic union agrees with unioning the
        // specialized inputs — support always; annotations whenever
        // specialization does not merge distinct input tuples (the
        // collision caveat of h_Rel's first-copy convention).
        let sym_union = ops::union(&g, &s).unwrap();
        let val = valuation(bits);
        let lhs = collapse(&map_hom_mk(&sym_union, &|p: &NatPoly| val.eval(p))).unwrap();
        let g_res = collapse(&map_hom_mk(&g, &|p: &NatPoly| val.eval(p))).unwrap();
        let s_res = collapse(&map_hom_mk(&s, &|p: &NatPoly| val.eval(p))).unwrap();
        let rhs = ops::union(&g_res, &s_res).unwrap();
        let support = |rel: &MKRel<Nat>| -> Vec<_> {
            rel.iter().map(|(t, _)| t.to_tuple()).collect()
        };
        prop_assert_eq!(support(&lhs), support(&rhs));
        if g_res.len() == g.len() && s_res.len() == s.len() {
            prop_assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn project_with_one_sided_symbolic_columns_matches_spec(
        g in arb_ground_rel("g"),
        s in arb_sym_rel("s"),
    ) {
        // One relation mixing ground rows and symbolic-at-`a` rows.
        let mut mixed = g.clone();
        for (t, k) in s.iter() {
            if mixed.annotation(&t).is_zero() {
                mixed.insert(t.values().to_vec(), k.clone()).unwrap();
            }
        }
        // Π_a: some projected keys symbolic, some ground — the
        // partitioned path with cross terms in both directions.
        let want = specops::project(&mixed, &["a"]).unwrap();
        let (t1, t4) = both_threads(|o| ops::project_opts(&mixed, &["a"], o).unwrap());
        prop_assert_eq!(&t1, &want);
        prop_assert_eq!(&t4, &want);

        // Π_b: every projected key ground even though the relation holds
        // symbolic values — the symbolic rows keep the input on the keyed
        // fold, whose ground buckets must agree with the literal rule
        // (tokens only read the projected column).
        let want = specops::project(&mixed, &["b"]).unwrap();
        let (t1, t4) = both_threads(|o| ops::project_opts(&mixed, &["b"], o).unwrap());
        prop_assert_eq!(&t1, &want);
        prop_assert_eq!(&t4, &want);
    }

    #[test]
    fn join_on_one_sided_ground_keys_matches_spec(
        g in arb_ground_rel("g"),
        s in arb_sym_rel("s"),
    ) {
        let g = g.rename("a", "a1").unwrap().rename("b", "b1").unwrap();
        let s = s.rename("a", "a2").unwrap().rename("b", "b2").unwrap();
        // Ground keys probe symbolic keys (and vice versa): every pair
        // runs the token loop, nothing may take the hash block.
        let want = specops::join_on(&g, &s, &[("a1", "a2")]).unwrap();
        let (t1, t4) = both_threads(|o| ops::join_on_opts(&g, &s, &[("a1", "a2")], o).unwrap());
        prop_assert_eq!(&t1, &want);
        prop_assert_eq!(&t4, &want);

        let want = specops::join_on(&s, &g, &[("a2", "a1")]).unwrap();
        let (t1, t4) = both_threads(|o| ops::join_on_opts(&s, &g, &[("a2", "a1")], o).unwrap());
        prop_assert_eq!(&t1, &want);
        prop_assert_eq!(&t4, &want);
    }

    #[test]
    fn group_by_with_one_sided_symbolic_keys_matches_spec(
        g in arb_ground_rel("g"),
        s in arb_sym_rel("s"),
    ) {
        let mut mixed = g.clone();
        for (t, k) in s.iter() {
            if mixed.annotation(&t).is_zero() {
                mixed.insert(t.values().to_vec(), k.clone()).unwrap();
            }
        }
        let specs = [AggSpec::new(MonoidKind::Sum, "b")];
        // Group keys on `a`: ground buckets must fold the token-weighted
        // membership of the symbolic-keyed rows, and symbolic candidate
        // groups must sum over the ground buckets.
        let want = specops::group_by(&mixed, &["a"], &specs).unwrap();
        let (t1, t4) = both_threads(|o| ops::group_by_opts(&mixed, &["a"], &specs, o).unwrap());
        prop_assert_eq!(&t1, &want);
        prop_assert_eq!(&t4, &want);

        // Group keys on `b` (all ground) with symbolic aggregated values
        // at `a`: the bucketing fast path with symbolic payloads.
        let specs = [AggSpec::new(MonoidKind::Sum, "a")];
        let want = specops::group_by(&mixed, &["b"], &specs).unwrap();
        let (t1, t4) = both_threads(|o| ops::group_by_opts(&mixed, &["b"], &specs, o).unwrap());
        prop_assert_eq!(&t1, &want);
        prop_assert_eq!(&t4, &want);
    }

    #[test]
    fn selection_shortcuts_match_the_literal_rule(
        g in arb_ground_rel("g"),
        s in arb_sym_rel("s"),
        vi in 0..VARS.len(),
        n in 1i64..4,
        c in -1i64..3,
    ) {
        // The literal §4.3 selection with no zero/one shortcut.
        let literal = |rel: &MKRel<P>, value: &Value<P>, pred: Option<CmpPred>| {
            let idx = rel.schema().index_of("a").unwrap();
            let mut out: BTreeMap<Tuple<Value<P>>, P> = BTreeMap::new();
            for (t, k) in rel.iter() {
                let tok = match pred {
                    None => P::value_eq(t.get(idx), value).unwrap(),
                    Some(p) => P::value_cmp(p, t.get(idx), value).unwrap(),
                };
                let ann = k.times(&tok);
                if !ann.is_zero() {
                    out.insert(t.to_tuple(), ann);
                }
            }
            Relation::from_tuples(rel.schema().clone(), out, Merge::First).unwrap()
        };

        // Ground rows against a symbolic comparison value: every kept
        // tuple's token is symbolic, the shortcut only skips zeros.
        let sym_val = sym_value(vi, n);
        let got = ops::select_eq(&g, "a", &sym_val).unwrap();
        prop_assert_eq!(got, literal(&g, &sym_val, None));
        let got = ops::select_cmp(&g, "a", CmpPred::Le, &sym_val).unwrap();
        prop_assert_eq!(got, literal(&g, &sym_val, Some(CmpPred::Le)));

        // Symbolic rows against a ground value (the mirrored side).
        let ground_val = Value::int(c);
        let got = ops::select_eq(&s, "a", &ground_val).unwrap();
        prop_assert_eq!(got, literal(&s, &ground_val, None));
        let got = ops::select_cmp(&s, "a", CmpPred::Lt, &ground_val).unwrap();
        prop_assert_eq!(got, literal(&s, &ground_val, Some(CmpPred::Lt)));
    }

    #[test]
    fn annotation_at_one_sided_matches_the_token_sum(
        g in arb_ground_rel("g"),
        vi in 0..VARS.len(),
        n in 1i64..4,
        b in -1i64..3,
    ) {
        // Regression guard for the PR 4 bug itself: a symbolic lookup
        // tuple against a fully ground relation must take the
        // token-weighted sum, never the structural lookup.
        let lookup = Tuple::new(vec![sym_value(vi, n), Value::int(b)]);
        let got = ops::annotation_at(&g, &lookup).unwrap();
        let mut want = P::zero();
        for (t, k) in g.iter() {
            let mut tok = P::one();
            for i in 0..2 {
                tok = tok.times(&P::value_eq(t.get(i), lookup.get(i)).unwrap());
            }
            let part = k.times(&tok);
            if !part.is_zero() {
                want = want.plus(&part);
            }
        }
        prop_assert_eq!(got, want);
    }
}
