//! Property-tested equivalence between the hash-partitioned physical
//! operators ([`aggprov_core::ops`]) and the literal §4.3 reference
//! implementations ([`aggprov_core::specops`]).
//!
//! The relations are generated with a *mixed* ground/symbolic population:
//! most values are constants (exercising the hash/merge fast partitions),
//! a fraction are symbolic `SUM` tensors (exercising the token-weighted
//! cross terms and the recombination of the two partitions). Equality is
//! full structural equality of the result relations — schema, support,
//! and every annotation, bit for bit.

use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_core::km::Km;
use aggprov_core::ops::{self, AggSpec, MKRel};
use aggprov_core::specops;
use aggprov_krel::schema::Schema;
use proptest::prelude::*;

mod common;
use common::{arb_rel2, decode_num_val, decode_val, raw_val, rel_from};

type P = Km<NatPoly>;

/// A `(group-key, numeric)` relation for the grouping/aggregation tests.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_hash_matches_spec(r1 in arb_rel2("a", "a", "b"), r2 in arb_rel2("b", "a", "b")) {
        let hash = ops::union(&r1, &r2).unwrap();
        let spec = specops::union(&r1, &r2).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn project_hash_matches_spec(rel in arb_rel2("a", "a", "b"), keep_b in prop::bool::ANY) {
        let attrs: Vec<&str> = if keep_b { vec!["b", "a"] } else { vec!["a"] };
        let hash = ops::project(&rel, &attrs).unwrap();
        let spec = specops::project(&rel, &attrs).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn join_on_hash_matches_spec(r1 in arb_rel2("a", "a", "b"), r2 in arb_rel2("b", "c", "d")) {
        let hash = ops::join_on(&r1, &r2, &[("a", "c")]).unwrap();
        let spec = specops::join_on(&r1, &r2, &[("a", "c")]).unwrap();
        prop_assert_eq!(hash, spec);

        // The empty-`on` (cartesian product) shape as well.
        let hash = ops::join_on(&r1, &r2, &[]).unwrap();
        let spec = specops::join_on(&r1, &r2, &[]).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn two_column_join_hash_matches_spec(
        r1 in arb_rel2("a", "a", "b"),
        r2 in arb_rel2("b", "c", "d"),
    ) {
        let on = [("a", "c"), ("b", "d")];
        let hash = ops::join_on(&r1, &r2, &on).unwrap();
        let spec = specops::join_on(&r1, &r2, &on).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn group_by_hash_matches_spec(rel in arb_group_rel()) {
        let specs = [AggSpec::new(MonoidKind::Sum, "v")];
        let hash = ops::group_by(&rel, &["g"], &specs).unwrap();
        let spec = specops::group_by(&rel, &["g"], &specs).unwrap();
        prop_assert_eq!(hash, spec);
    }

    #[test]
    fn agg_all_hash_matches_spec(rel in arb_group_rel()) {
        let specs = [AggSpec::new(MonoidKind::Sum, "v")];
        let hash = ops::agg_all(&rel, &specs).unwrap();
        let spec = specops::agg_all(&rel, &specs).unwrap();
        prop_assert_eq!(hash, spec);
    }
}
