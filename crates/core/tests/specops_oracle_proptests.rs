//! Property-tested equivalence between the remaining physical operators
//! ([`aggprov_core::ops`]) and their literal-spec oracles
//! ([`aggprov_core::specops`]): the extended annotation lookup, the
//! selection family, product, natural join, and single-spec aggregation.
//! Together with `hash_vs_spec_proptests.rs` (union, project, join_on,
//! group_by, agg_all) this gives every public operator in `core::ops` a
//! proptested `specops::` twin — the invariant `aggprov-lint`'s `oracle`
//! rule enforces.
//!
//! As in the sibling suite, relations mix ground constants with symbolic
//! `SUM` tensors so both the fast partitions and the token-weighted §4.3
//! paths are exercised, and equality is full structural equality — schema,
//! support, and every annotation, bit for bit. Where an operator's domain
//! excludes some generated inputs (ordering across types, symbolic natural
//! join keys), both paths must fail with the *same* error.

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::annotation::AggAnnotation;
use aggprov_core::km::{CmpPred, Km};
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::{specops, Value};
use aggprov_krel::relation::{Relation, Tuple};
use aggprov_krel::schema::Schema;
use proptest::prelude::*;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// One generated cell, as in `hash_vs_spec_proptests.rs`: kind 0–2 ground
/// ints, 3 a ground string, 4–5 a symbolic `SUM` tensor.
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

/// Numeric-only cell (for aggregated columns).
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

fn rel_from(prefix: &str, schema: Schema, rows: Vec<Vec<Value<P>>>) -> MKRel<P> {
    Relation::from_rows(
        schema,
        rows.into_iter()
            .enumerate()
            .map(|(i, row)| (row, tok(&format!("{prefix}{i}")))),
    )
    .unwrap()
}

fn arb_rel2(
    prefix: &'static str,
    a: &'static str,
    b: &'static str,
) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7).prop_map(move |rows| {
        rel_from(
            prefix,
            Schema::new([a, b]).unwrap(),
            rows.into_iter()
                .map(|(x, y)| vec![decode_val(x), decode_val(y)])
                .collect(),
        )
    })
}

/// Like [`arb_rel2`] but with an always-ground (int) second column — the
/// shape the natural-join success path needs on its shared attribute.
fn arb_rel2_ground_b(
    prefix: &'static str,
    a: &'static str,
    b: &'static str,
) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), -2i64..3), 0..7).prop_map(move |rows| {
        rel_from(
            prefix,
            Schema::new([a, b]).unwrap(),
            rows.into_iter()
                .map(|(x, n)| vec![decode_val(x), Value::int(n)])
                .collect(),
        )
    })
}

/// A `(group-key, numeric)` relation for the aggregation tests.
fn arb_group_rel() -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((raw_val(), raw_val()), 0..7).prop_map(|rows| {
        rel_from(
            "g",
            Schema::new(["g", "v"]).unwrap(),
            rows.into_iter()
                .map(|(x, y)| vec![decode_val(x), decode_num_val(y)])
                .collect(),
        )
    })
}

fn arb_cmp() -> impl Strategy<Value = CmpPred> {
    prop_oneof![Just(CmpPred::Lt), Just(CmpPred::Le), Just(CmpPred::Ne)]
}

/// Asserts both paths agree: equal relations on success, the same error
/// (message and all) when the input is outside the operator's domain.
macro_rules! assert_paths_agree {
    ($hash:expr, $spec:expr) => {
        match ($hash, $spec) {
            (Ok(h), Ok(s)) => prop_assert_eq!(h, s),
            (Err(h), Err(s)) => prop_assert_eq!(h.to_string(), s.to_string()),
            (h, s) => prop_assert!(
                false,
                "paths diverge: hash ok={}, spec ok={}",
                h.is_ok(),
                s.is_ok()
            ),
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn annotation_at_hash_matches_spec(
        rel in arb_rel2("a", "a", "b"),
        probe in (raw_val(), raw_val()),
        pick in prop::bool::ANY,
    ) {
        // Probe with a generated tuple — and, when possible, with an exact
        // support tuple (the case the structural fast path serves).
        let t = if pick && !rel.is_empty() {
            rel.iter().next().map(|(t, _)| t.to_tuple()).unwrap()
        } else {
            Tuple::new(vec![decode_val(probe.0), decode_val(probe.1)])
        };
        let hash = ops::annotation_at(&rel, &t).unwrap();
        let spec = specops::annotation_at(&rel, &t).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn select_eq_hash_matches_spec(rel in arb_rel2("a", "a", "b"), v in raw_val()) {
        let value = decode_val(v);
        let hash = ops::select_eq(&rel, "a", &value).unwrap();
        let spec = specops::select_eq(&rel, "a", &value).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn select_attrs_eq_hash_matches_spec(rel in arb_rel2("a", "a", "b")) {
        let hash = ops::select_attrs_eq(&rel, "a", "b").unwrap();
        let spec = specops::select_attrs_eq(&rel, "a", "b").unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn select_with_token_hash_matches_spec(rel in arb_rel2("a", "a", "b")) {
        let one = Value::int(1);
        let hash = ops::select_with_token(&rel, |_, t| P::value_eq(t.get(0), &one)).unwrap();
        let spec = specops::select_with_token(&rel, |_, t| P::value_eq(t.get(0), &one)).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn select_cmp_hash_matches_spec(
        rel in arb_rel2("a", "a", "b"),
        pred in arb_cmp(),
        v in raw_val(),
    ) {
        let value = decode_val(v);
        // Ordering across value types is a type error — on both paths, at
        // the same tuple.
        assert_paths_agree!(
            ops::select_cmp(&rel, "a", pred, &value),
            specops::select_cmp(&rel, "a", pred, &value)
        );
    }

    #[test]
    fn select_attrs_cmp_hash_matches_spec(rel in arb_rel2("a", "a", "b"), pred in arb_cmp()) {
        assert_paths_agree!(
            ops::select_attrs_cmp(&rel, "a", pred, "b"),
            specops::select_attrs_cmp(&rel, "a", pred, "b")
        );
    }

    #[test]
    fn select_where_hash_matches_spec(rel in arb_rel2("a", "a", "b")) {
        let keep_ground = |_: &Schema, t: &Tuple<Value<P>>| Ok(!t.get(0).is_agg());
        let hash = ops::select_where(&rel, keep_ground).unwrap();
        let spec = specops::select_where(&rel, keep_ground).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn product_hash_matches_spec(r1 in arb_rel2("a", "a", "b"), r2 in arb_rel2("b", "c", "d")) {
        let hash = ops::product(&r1, &r2).unwrap();
        let spec = specops::product(&r1, &r2).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn natural_join_hash_matches_spec(
        r1 in arb_rel2_ground_b("a", "a", "b"),
        r2 in arb_rel2_ground_b("b", "c", "b"),
    ) {
        // Shared attribute `b` is ground on both sides: the success path.
        let hash = ops::natural_join(&r1, &r2).unwrap();
        let spec = specops::natural_join(&r1, &r2).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn natural_join_rejects_symbolic_keys_on_both_paths(
        r1 in arb_rel2("a", "a", "b"),
        r2 in arb_rel2("b", "c", "b"),
    ) {
        // Shared attribute `b` may be symbolic here; when it is, both
        // paths must raise the same rename-and-join_on error.
        assert_paths_agree!(ops::natural_join(&r1, &r2), specops::natural_join(&r1, &r2));
    }

    #[test]
    fn agg_hash_matches_spec(rel in arb_group_rel()) {
        let spec_one = AggSpec::new(MonoidKind::Sum, "v");
        let hash = ops::agg(&rel, spec_one).unwrap();
        let spec = specops::agg(&rel, spec_one).unwrap();
        prop_assert_eq!(hash, spec);
    }
}
