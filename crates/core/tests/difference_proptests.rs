//! Property tests for relational difference (`EXCEPT`,
//! [`aggprov_core::difference`]) over mixed ground/symbolic relations —
//! the §5 hybrid semantics `(R − S)(t) = [S(t) ⊗ ⊤ = 0] · R(t)`.
//!
//! Oracles, in increasing symbolic content:
//!
//! * with `ℕ` annotations and ground values everything resolves, and the
//!   hybrid semantics must coincide with a directly-written membership
//!   filter (keep `t` with its full `R`-multiplicity iff `S(t) = 0`);
//! * with token annotations the result stays symbolic; the encoded form
//!   (`B̂`-aggregation, §5.1) must agree with the direct form under every
//!   valuation into `ℕ` (Proposition 5.1), and valuation must commute
//!   with the difference itself;
//! * with symbolic *values* in the tuples, valuation commutation is the
//!   oracle: specializing the symbolic difference agrees with taking the
//!   difference of the specialized inputs.

use aggprov_algebra::domain::Const;
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::semiring::Nat;
use aggprov_algebra::tensor::Tensor;
use aggprov_core::difference::{difference, difference_encoded};
use aggprov_core::eval::{collapse, map_hom_mk};
use aggprov_core::km::Km;
use aggprov_core::ops::MKRel;
use aggprov_core::Value;
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use proptest::prelude::*;

type P = Km<NatPoly>;

fn tok(name: &str) -> P {
    Km::embed(NatPoly::token(name))
}

const VARS: [&str; 3] = ["x", "y", "z"];

fn schema2() -> Schema {
    Schema::new(["a", "b"]).unwrap()
}

/// A ground `ℕ`-annotated relation over `(a, b)`.
fn arb_nat_rel() -> impl Strategy<Value = MKRel<Nat>> {
    prop::collection::vec(((-1i64..3, -1i64..3), 0u64..3), 0..6).prop_map(|rows| {
        let mut rel = Relation::empty(schema2());
        for ((a, b), n) in rows {
            rel.insert(vec![Value::int(a), Value::int(b)], Nat(n))
                .unwrap();
        }
        rel
    })
}

/// A ground-valued, token-annotated relation over `(a, b)`.
fn arb_tok_rel(prefix: &'static str) -> impl Strategy<Value = MKRel<P>> {
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

/// A mixed-value, token-annotated relation over `(a,)`: cells are ground
/// ints or symbolic `SUM` tensors over the shared variables.
fn arb_mixed_rel(prefix: &'static str) -> impl Strategy<Value = MKRel<P>> {
    prop::collection::vec((0u8..3, 0..VARS.len(), 1i64..4), 0..5).prop_map(move |rows| {
        let mut rel = Relation::empty(Schema::new(["a"]).unwrap());
        for (i, (kind, vi, n)) in rows.into_iter().enumerate() {
            let v = if kind < 2 {
                Value::int(n)
            } else {
                Value::agg_normalized(
                    MonoidKind::Sum,
                    Tensor::from_terms(&MonoidKind::Sum, [(tok(VARS[vi]), Const::int(n))]),
                )
            };
            rel.insert(vec![v], tok(&format!("{prefix}{i}"))).unwrap();
        }
        rel
    })
}

/// The membership reference for resolved inputs: keep `t` with its full
/// `R`-annotation iff `t` is absent from `S`.
fn membership_reference(r: &MKRel<Nat>, s: &MKRel<Nat>) -> MKRel<Nat> {
    let mut out = Relation::empty(r.schema().clone());
    for (t, k) in r.iter() {
        if s.annotation(&t) == Nat(0) {
            out.insert(t.values().to_vec(), *k).unwrap();
        }
    }
    out
}

/// A valuation sending the shared token space into small naturals.
fn valuation(bits: u32) -> Valuation<Nat> {
    let mut val = Valuation::<Nat>::ones();
    for (i, v) in VARS.iter().enumerate() {
        val = val.set(*v, Nat(u64::from((bits >> i) & 3)));
    }
    for (i, p) in ["r0", "r1", "r2", "r3", "r4"].iter().enumerate() {
        val = val.set(*p, Nat(u64::from((bits >> (2 * i + 3)) & 1)));
    }
    for (i, p) in ["s0", "s1", "s2", "s3", "s4"].iter().enumerate() {
        val = val.set(*p, Nat(u64::from((bits >> (2 * i + 4)) & 1)));
    }
    val
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hybrid_matches_membership_on_resolved_inputs(r in arb_nat_rel(), s in arb_nat_rel()) {
        // With ℕ annotations every [S(t)⊗⊤ = 0] token resolves on the
        // spot: existence in S deletes, survivors keep multiplicity.
        let got = difference(&r, &s).unwrap();
        prop_assert_eq!(got, membership_reference(&r, &s));
    }

    #[test]
    fn difference_with_empty_and_self(r in arb_tok_rel("r0")) {
        // R − ∅ = R (the guard token is [0⊗⊤ = 0] = 1) and, once
        // resolved, R − R = ∅ wherever R's annotation is non-zero.
        let empty: MKRel<P> = Relation::empty(schema2());
        prop_assert_eq!(difference(&r, &empty).unwrap(), r.clone());
        let self_diff = difference(&r, &r).unwrap();
        let resolved = collapse(&map_hom_mk(&self_diff, &|p: &NatPoly| {
            Valuation::<Nat>::ones().eval(p)
        }))
        .unwrap();
        prop_assert!(resolved.is_empty(), "R − R resolves empty, got {resolved}");
    }

    #[test]
    fn encoded_matches_direct_under_valuations(
        r in arb_tok_rel("r"),
        s in arb_tok_rel("s"),
        bits in 0u32..(1 << 14),
    ) {
        // Proposition 5.1: the §5.1 B̂-aggregation encoding and the direct
        // hybrid form agree under every valuation into ℕ.
        let direct = difference(&r, &s).unwrap();
        let encoded = difference_encoded(&r, &s).unwrap();
        let val = valuation(bits);
        let d = collapse(&map_hom_mk(&direct, &|p: &NatPoly| val.eval(p))).unwrap();
        let e = collapse(&map_hom_mk(&encoded, &|p: &NatPoly| val.eval(p))).unwrap();
        prop_assert_eq!(d, e);
    }

    #[test]
    fn valuation_commutes_with_difference_on_mixed_values(
        r in arb_mixed_rel("r"),
        s in arb_mixed_rel("s"),
        bits in 0u32..(1 << 14),
    ) {
        // Symbolic values in the tuples: specializing the symbolic
        // difference must agree with differencing the specialized inputs.
        // Supports always agree. Annotations agree whenever specialization
        // does not merge distinct tuples — when it does, `h_Rel` keeps the
        // first colliding annotation (the §4.3 convention, whose premise
        // "colliding annotations are equal by construction" holds for
        // query outputs but not for arbitrary hand-built inputs), while
        // the extended reading inside `difference` sums token-weighted
        // contributions, so only support equality is promised there.
        let sym = difference(&r, &s).unwrap();
        let val = valuation(bits);
        let lhs = collapse(&map_hom_mk(&sym, &|p: &NatPoly| val.eval(p))).unwrap();
        let r_res = collapse(&map_hom_mk(&r, &|p: &NatPoly| val.eval(p))).unwrap();
        let s_res = collapse(&map_hom_mk(&s, &|p: &NatPoly| val.eval(p))).unwrap();
        let rhs = difference(&r_res, &s_res).unwrap();
        let support = |rel: &MKRel<Nat>| -> Vec<_> { rel.iter().map(|(t, _)| t.to_tuple()).collect() };
        prop_assert_eq!(support(&lhs), support(&rhs));
        let collision_free = r_res.len() == r.len() && s_res.len() == s.len();
        if collision_free {
            prop_assert_eq!(lhs, rhs);
        }
    }
}
