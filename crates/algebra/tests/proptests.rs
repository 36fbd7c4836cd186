//! Property-based law suites for the algebra crate.
//!
//! Randomized counterparts of the exhaustive unit tests: semiring, monoid,
//! semimodule, δ and homomorphism laws over randomly generated elements of
//! every structure, plus the tensor-specific congruence properties.

use aggprov_algebra::domain::Const;
use aggprov_algebra::hierarchy::{to_bool_poly, to_lineage, to_posbool, to_trio, to_why, PosBool};
use aggprov_algebra::hom::{FnHom, Valuation};
use aggprov_algebra::laws::{
    check_delta, check_hom, check_monoid, check_nat_embedding, check_semimodule, check_semiring,
};
use aggprov_algebra::monoid::{CommutativeMonoid, MonoidKind};
use aggprov_algebra::num::{Num, Rational};
use aggprov_algebra::poly::{Monomial, NatPoly, Poly, Var};
use aggprov_algebra::semiring::{
    Bool, CommutativeSemiring, IntZ, Nat, Security, Tropical, Viterbi,
};
use aggprov_algebra::sn::Sn;
use aggprov_algebra::tensor::{Tensor, TensorModule};
use aggprov_core::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;

const VARS: [&str; 4] = ["x", "y", "z", "w"];

fn arb_var() -> impl Strategy<Value = Var> {
    prop::sample::select(VARS.to_vec()).prop_map(Var::new)
}

fn arb_monomial() -> impl Strategy<Value = Monomial<Var>> {
    prop::collection::vec((arb_var(), 1u32..3), 0..3).prop_map(Monomial::from_pairs)
}

fn arb_natpoly() -> impl Strategy<Value = NatPoly> {
    prop::collection::vec((arb_monomial(), 0u64..4), 0..4)
        .prop_map(|ts| Poly::from_terms(ts.into_iter().map(|(m, c)| (m, Nat(c)))))
}

fn arb_security() -> impl Strategy<Value = Security> {
    prop::sample::select(Security::ALL.to_vec())
}

fn arb_sn() -> impl Strategy<Value = Sn> {
    (0u64..4, 0u64..4, 0u64..4, 0u64..4).prop_map(|(p, c, s, t)| Sn {
        public: p,
        confidential: c,
        secret: s,
        top_secret: t,
    })
}

fn arb_tropical() -> impl Strategy<Value = Tropical> {
    prop_oneof![Just(Tropical::Inf), (0u64..50).prop_map(Tropical::Fin)]
}

fn arb_viterbi() -> impl Strategy<Value = Viterbi> {
    (0i64..=4, 1i64..=4).prop_map(|(n, d)| {
        if n > d {
            Viterbi::ratio(d, n)
        } else {
            Viterbi::ratio(n, d)
        }
    })
}

fn arb_rational() -> impl Strategy<Value = Rational> {
    (-50i64..50, 1i64..10).prop_map(|(n, d)| Rational::new(n, d))
}

fn arb_num() -> impl Strategy<Value = Num> {
    arb_rational().prop_map(Num::Rat)
}

fn arb_sum_tensor() -> impl Strategy<Value = Tensor<NatPoly, Const>> {
    prop::collection::vec((arb_natpoly(), -30i64..30), 0..4).prop_map(|ts| {
        Tensor::from_terms(
            &MonoidKind::Sum,
            ts.into_iter().map(|(k, v)| (k, Const::int(v))),
        )
    })
}

proptest! {
    // ---------------------------------------------------------------- laws

    #[test]
    fn natpoly_semiring_laws(a in arb_natpoly(), b in arb_natpoly(), c in arb_natpoly()) {
        check_semiring(&a, &b, &c).unwrap();
        check_nat_embedding(&a, 7).unwrap();
    }

    #[test]
    fn sn_semiring_laws(a in arb_sn(), b in arb_sn(), c in arb_sn()) {
        check_semiring(&a, &b, &c).unwrap();
        check_nat_embedding(&a, 7).unwrap();
        check_delta(&a, 3).unwrap();
    }

    #[test]
    fn hierarchy_semiring_laws(a in arb_natpoly(), b in arb_natpoly(), c in arb_natpoly()) {
        check_semiring(&to_trio(&a), &to_trio(&b), &to_trio(&c)).unwrap();
        check_semiring(&to_why(&a), &to_why(&b), &to_why(&c)).unwrap();
        check_semiring(&to_posbool(&a), &to_posbool(&b), &to_posbool(&c)).unwrap();
        check_semiring(&to_lineage(&a), &to_lineage(&b), &to_lineage(&c)).unwrap();
        check_semiring(&to_bool_poly(&a), &to_bool_poly(&b), &to_bool_poly(&c)).unwrap();
    }

    #[test]
    fn scalar_semiring_laws(
        a in arb_tropical(), b in arb_tropical(), c in arb_tropical(),
        va in arb_viterbi(), vb in arb_viterbi(), vc in arb_viterbi(),
        sa in arb_security(), sb in arb_security(), sc in arb_security(),
        za in -20i64..20, zb in -20i64..20, zc in -20i64..20,
    ) {
        check_semiring(&a, &b, &c).unwrap();
        check_semiring(&va, &vb, &vc).unwrap();
        check_semiring(&sa, &sb, &sc).unwrap();
        check_semiring(&IntZ(za), &IntZ(zb), &IntZ(zc)).unwrap();
    }

    #[test]
    fn numeric_monoid_laws(a in arb_num(), b in arb_num(), c in arb_num()) {
        for kind in [MonoidKind::Sum, MonoidKind::Min, MonoidKind::Max, MonoidKind::Prod] {
            check_monoid(&kind, &Const::Num(a), &Const::Num(b), &Const::Num(c)).unwrap();
        }
    }

    // ------------------------------------------------------ homomorphisms

    #[test]
    fn valuations_are_homomorphisms(
        a in arb_natpoly(),
        b in arb_natpoly(),
        vx in 0u64..4, vy in 0u64..4, vz in 0u64..4, vw in 0u64..4,
    ) {
        let val = Valuation::ones()
            .set("x", Nat(vx)).set("y", Nat(vy)).set("z", Nat(vz)).set("w", Nat(vw));
        check_hom(&val, &a, &b).unwrap();

        // The same valuation read in B (support).
        let bval = Valuation::ones()
            .set("x", Bool(vx > 0)).set("y", Bool(vy > 0))
            .set("z", Bool(vz > 0)).set("w", Bool(vw > 0));
        check_hom(&bval, &a, &b).unwrap();
    }

    #[test]
    fn factorization_through_nat_poly(
        a in arb_natpoly(),
        vx in 0u64..4, vy in 0u64..4, vz in 0u64..4, vw in 0u64..4,
    ) {
        // Evaluating in ℕ then dropping to B equals evaluating in B:
        // the factorization property of the free semiring.
        let nat_val = Valuation::ones()
            .set("x", Nat(vx)).set("y", Nat(vy)).set("z", Nat(vz)).set("w", Nat(vw));
        let bool_val = Valuation::ones()
            .set("x", Bool(vx > 0)).set("y", Bool(vy > 0))
            .set("z", Bool(vz > 0)).set("w", Bool(vw > 0));
        let via_nat = Bool(nat_val.eval(&a).0 > 0);
        prop_assert_eq!(via_nat, bool_val.eval(&a));
    }

    #[test]
    fn hierarchy_maps_are_homs(a in arb_natpoly(), b in arb_natpoly()) {
        check_hom(&FnHom(to_bool_poly), &a, &b).unwrap();
        check_hom(&FnHom(to_trio), &a, &b).unwrap();
        check_hom(&FnHom(to_why), &a, &b).unwrap();
        check_hom(&FnHom(to_posbool), &a, &b).unwrap();
        check_hom(&FnHom(to_lineage), &a, &b).unwrap();
    }

    #[test]
    fn sn_total_count_is_hom(a in arb_sn(), b in arb_sn()) {
        check_hom(&FnHom(|x: &Sn| Nat(x.total_count())), &a, &b).unwrap();
    }

    #[test]
    fn hierarchy_commutes_with_posbool_via_why(a in arb_natpoly()) {
        // ℕ[X] → Why(X) → PosBool(X) equals ℕ[X] → PosBool(X).
        let via_why = {
            let w = to_why(&a);
            w.witnesses().iter().fold(PosBool::zero(), |acc, ws| {
                let conj = ws.iter().fold(PosBool::one(), |c, v| {
                    c.times(&PosBool::token(v.name()))
                });
                acc.plus(&conj)
            })
        };
        prop_assert_eq!(via_why, to_posbool(&a));
    }

    // ------------------------------------------------------------- tensors

    #[test]
    fn tensor_semimodule_laws(
        v1 in arb_sum_tensor(), v2 in arb_sum_tensor(),
        k1 in arb_natpoly(), k2 in arb_natpoly(),
    ) {
        let module = TensorModule(MonoidKind::Sum);
        check_semimodule(&module, &k1, &k2, &v1, &v2).unwrap();
    }

    #[test]
    fn lifted_hom_is_linear(
        v1 in arb_sum_tensor(), v2 in arb_sum_tensor(), k in arb_natpoly(),
        vx in 0u64..3, vy in 0u64..3, vz in 0u64..3, vw in 0u64..3,
    ) {
        // h^M(a + b) = h^M(a) + h^M(b) and h^M(k ∗ a) = h(k) ∗ h^M(a):
        // the lifted map is a homomorphism of K-semimodules (Prop. B.2).
        let m = MonoidKind::Sum;
        let val = Valuation::ones()
            .set("x", Nat(vx)).set("y", Nat(vy)).set("z", Nat(vz)).set("w", Nat(vw));
        let mut h = |p: &NatPoly| val.eval(p);
        let lhs = v1.add(&v2, &m).map_coeffs(&m, &mut h);
        let rhs = v1.map_coeffs(&m, &mut h).add(&v2.map_coeffs(&m, &mut h), &m);
        prop_assert_eq!(lhs, rhs);

        let lhs = v1.scale(&k, &m).map_coeffs(&m, &mut h);
        let rhs = v1.map_coeffs(&m, &mut h).scale(&val.eval(&k), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn resolution_commutes_with_merge_by_coeff(v in arb_sum_tensor(),
        vx in 0u64..3, vy in 0u64..3, vz in 0u64..3, vw in 0u64..3,
    ) {
        // merge_by_coeff is congruence-sound: resolving before and after
        // merging gives the same ℕ⊗SUM read-off.
        let m = MonoidKind::Sum;
        let val = Valuation::ones()
            .set("x", Nat(vx)).set("y", Nat(vy)).set("z", Nat(vz)).set("w", Nat(vw));
        let ground = v.map_coeffs(&m, &mut |p| val.eval(p));
        let a = ground.try_resolve(&m);
        let b = ground.merge_by_coeff(&m).try_resolve(&m);
        prop_assert!(a.is_some(), "ground ℕ tensors always resolve");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn resolution_is_set_agg(entries in prop::collection::vec((0u64..5, -20i64..20), 0..5)) {
        // For ground ℕ coefficients, try_resolve equals the plain weighted
        // sum — the set/bag compatibility of §3.4 at the tensor level.
        let m = MonoidKind::Sum;
        let t = Tensor::<Nat, Const>::from_terms(
            &m,
            entries.iter().map(|(k, v)| (Nat(*k), Const::int(*v))),
        );
        let expected: i64 = entries.iter().map(|(k, v)| *k as i64 * *v).sum();
        prop_assert_eq!(t.try_resolve(&m), Some(Const::int(expected)));
    }

    #[test]
    fn idempotent_resolution_is_plain_fold(entries in prop::collection::vec((any::<bool>(), -20i64..20), 0..5)) {
        // B ⊗ MAX: resolution is max over present elements.
        let m = MonoidKind::Max;
        let t = Tensor::<Bool, Const>::from_terms(
            &m,
            entries.iter().map(|(k, v)| (Bool(*k), Const::int(*v))),
        );
        let expected = entries
            .iter()
            .filter(|(k, _)| *k)
            .map(|(_, v)| Const::int(*v))
            .fold(MonoidKind::Max.zero(), |a, b| MonoidKind::Max.plus(&a, &b));
        prop_assert_eq!(t.try_resolve(&m), Some(expected));
    }

    // ------------------------------------------------------------- numbers

    #[test]
    fn rational_field_laws(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + Rational::ZERO, a);
        prop_assert_eq!(a * Rational::ONE, a);
        prop_assert_eq!(a - a, Rational::ZERO);
        if b != Rational::ZERO {
            prop_assert_eq!((a / b) * b, a);
        }
    }

    #[test]
    fn rational_order_respects_addition(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        if a < b {
            prop_assert!(a + c < b + c);
        }
    }

    #[test]
    fn num_parse_roundtrip(n in -1000i64..1000, d in 1i64..60) {
        let x = Num::ratio(n, d);
        let parsed = Num::parse(&x.to_string()).unwrap();
        prop_assert_eq!(parsed, x);
    }
}

// ---------------------------------------------------------------------------
// `Poly` against the representation it replaced
// ---------------------------------------------------------------------------

/// The reference model: an ordered map from monomial to non-zero
/// coefficient, with the arithmetic written as `entry` loops — the
/// representation `Poly` had before its flat shared term slice. Derived
/// `Ord` on the map is the order the old `Poly` derived.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MapPoly<C>(BTreeMap<Monomial<Var>, C>);

impl<C: CommutativeSemiring> MapPoly<C> {
    fn add_term(&mut self, m: Monomial<Var>, c: C) {
        let sum = match self.0.get(&m) {
            Some(old) => old.plus(&c),
            None => c,
        };
        if sum.is_zero() {
            self.0.remove(&m);
        } else {
            self.0.insert(m, sum);
        }
    }

    fn from_terms(terms: impl IntoIterator<Item = (Monomial<Var>, C)>) -> Self {
        let mut out = MapPoly(BTreeMap::new());
        for (m, c) in terms {
            out.add_term(m, c);
        }
        out
    }

    fn plus(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for (m, c) in &other.0 {
            out.add_term(m.clone(), c.clone());
        }
        out
    }

    fn times(&self, other: &Self) -> Self {
        let mut out = MapPoly(BTreeMap::new());
        for (m1, c1) in &self.0 {
            for (m2, c2) in &other.0 {
                out.add_term(m1.times(m2), c1.times(c2));
            }
        }
        out
    }

    fn drop_vars(&self, dropped: impl Fn(&Var) -> bool) -> Self {
        let kept = self
            .0
            .iter()
            .filter(|(m, _)| !m.iter().any(|(v, _)| dropped(v)));
        MapPoly(kept.map(|(m, c)| (m.clone(), c.clone())).collect())
    }

    fn render(&self) -> String {
        if self.0.is_empty() {
            return "0".to_string();
        }
        let term = |(m, c): (&Monomial<Var>, &C)| {
            if m.is_unit() {
                format!("{c}")
            } else if *c == C::one() {
                format!("{m}")
            } else {
                format!("{c}*{m}")
            }
        };
        self.0.iter().map(term).collect::<Vec<_>>().join(" + ")
    }
}

/// `p` is in canonical form, and reads, renders and orders exactly as the
/// model does.
fn assert_matches_model<C: CommutativeSemiring>(
    p: &Poly<Var, C>,
    model: &MapPoly<C>,
    third: &Poly<Var, C>,
    what: &str,
) {
    let terms: Vec<_> = p.terms().collect();
    assert!(p.terms().eq(model.0.iter()), "{what}: {p} vs {model:?}");
    assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "{what}: order");
    assert!(terms.iter().all(|(_, c)| !c.is_zero()), "{what}: zero term");
    // One term of degree ≤ 1 is held inline and zero holds nothing (so
    // neither shares with anything); every other polynomial holds shared
    // storage.
    let inline = matches!(terms.as_slice(), [(m, _)] if m.degree() <= 1);
    assert_eq!(
        p.shares_terms_with(p),
        !terms.is_empty() && !inline,
        "{what}: storage"
    );
    assert_eq!(p.to_string(), model.render(), "{what}: Display");
    let third_model = MapPoly::from_terms(third.terms().map(|(m, c)| (m.clone(), c.clone())));
    assert_eq!(p.cmp(third), model.cmp(&third_model), "{what}: cmp");
}

type RawTerms<C> = Vec<(Monomial<Var>, C)>;

/// Raw terms with repeated monomials and zero coefficients.
fn arb_raw_terms<C: std::fmt::Debug>(
    coeff: impl Strategy<Value = C>,
) -> impl Strategy<Value = RawTerms<C>> {
    prop::collection::vec((arb_monomial(), coeff), 0..6)
}

fn arb_var_image() -> impl Strategy<Value = Vec<Var>> {
    prop::collection::vec(arb_var(), VARS.len())
}

/// Every operation of `Poly` on (`a`, `b`) against the model's.
fn check_against_model<C: CommutativeSemiring>(
    a: RawTerms<C>,
    b: RawTerms<C>,
    c: RawTerms<C>,
    dropped: &[bool],
    image: &[Var],
    killed: &C,
) {
    let third = Poly::from_terms(c);
    let (pa, ma) = (Poly::from_terms(a.clone()), MapPoly::from_terms(a));
    let (pb, mb) = (Poly::from_terms(b.clone()), MapPoly::from_terms(b));
    assert_matches_model(&pa, &ma, &third, "from_terms");
    assert_matches_model(&pb, &mb, &third, "from_terms");
    assert_matches_model(&pa.plus(&pb), &ma.plus(&mb), &third, "plus");
    assert_matches_model(&pa.times(&pb), &ma.times(&mb), &third, "times");
    // Multiplying by 1 takes a shortcut (the other operand's storage).
    let one = Poly::<Var, C>::one();
    assert_matches_model(&pa.times(&one), &ma, &third, "times 1");
    assert_matches_model(&one.times(&pa), &ma, &third, "1 times");

    let index = |v: &Var| VARS.iter().position(|n| *n == v.name()).unwrap();
    let is_dropped = |v: &Var| dropped[index(v)];
    assert_matches_model(
        &pa.drop_vars(&mut |v| is_dropped(v)),
        &ma.drop_vars(is_dropped),
        &third,
        "drop_vars",
    );
    // Images collide: four variables map into however many `image` names.
    let rename = |m: &Monomial<Var>| m.map_vars(&mut |v| image[index(v)].clone());
    let renamed = MapPoly::from_terms(ma.0.iter().map(|(m, k)| (rename(m), k.clone())));
    assert_matches_model(
        &pa.map_vars(&mut |v| image[index(v)].clone()),
        &renamed,
        &third,
        "map_vars",
    );
    // The same renaming as the free extension of `v ↦ image(v)`.
    assert_matches_model(
        &pa.eval(&mut |v| Poly::var(image[index(v)].clone()), &mut |k| {
            Poly::constant(k.clone())
        }),
        &renamed,
        &third,
        "eval",
    );
    // Some coefficients map to zero, the others to themselves.
    let kill = |k: &C| if k == killed { C::zero() } else { k.clone() };
    assert_matches_model(
        &pa.map_coeffs(&mut |k| kill(k)),
        &MapPoly::from_terms(ma.0.iter().map(|(m, k)| (m.clone(), kill(k)))),
        &third,
        "map_coeffs",
    );
}

proptest! {
    #[test]
    fn natpoly_matches_the_map_model(
        a in arb_raw_terms((0u64..3).prop_map(Nat)),
        b in arb_raw_terms((0u64..3).prop_map(Nat)),
        c in arb_raw_terms((0u64..3).prop_map(Nat)),
        dropped in prop::collection::vec(any::<bool>(), VARS.len()),
        image in arb_var_image(),
        killed in (1u64..4).prop_map(Nat),
    ) {
        check_against_model(a, b, c, &dropped, &image, &killed);
    }

    #[test]
    fn boolpoly_matches_the_map_model(
        a in arb_raw_terms(any::<bool>().prop_map(Bool)),
        b in arb_raw_terms(any::<bool>().prop_map(Bool)),
        c in arb_raw_terms(any::<bool>().prop_map(Bool)),
        dropped in prop::collection::vec(any::<bool>(), VARS.len()),
        image in arb_var_image(),
        killed in any::<bool>().prop_map(Bool),
    ) {
        check_against_model(a, b, c, &dropped, &image, &killed);
    }

    #[test]
    fn intpoly_matches_the_map_model(
        // ℤ coefficients: sums cancel to zero in the middle of a merge.
        a in arb_raw_terms((-2i64..3).prop_map(IntZ)),
        b in arb_raw_terms((-2i64..3).prop_map(IntZ)),
        c in arb_raw_terms((-2i64..3).prop_map(IntZ)),
        dropped in prop::collection::vec(any::<bool>(), VARS.len()),
        image in arb_var_image(),
        killed in (-2i64..3).prop_map(IntZ),
    ) {
        check_against_model(a, b, c, &dropped, &image, &killed);
    }
}

// ---------------------------------------------------------------------------
// The k-way `sum` and the run fold of `Tensor::from_terms`
// ---------------------------------------------------------------------------

/// `K::sum` of every prefix of `items` (the empty and the one-element sum
/// included) against the left fold of `plus`: equal, and rendered alike.
fn check_sum<K: CommutativeSemiring>(items: &[K]) {
    for n in 0..=items.len() {
        let folded = items[..n].iter().fold(K::zero(), |acc, k| acc.plus(k));
        let summed = K::sum(items[..n].to_vec());
        assert_eq!(summed, folded, "sum of {:?}", &items[..n]);
        assert_eq!(summed.to_string(), folded.to_string());
    }
}

fn arb_polys<C: CommutativeSemiring>(
    coeff: impl Strategy<Value = C>,
) -> impl Strategy<Value = Vec<Poly<Var, C>>> {
    prop::collection::vec(arb_raw_terms(coeff).prop_map(Poly::from_terms), 0..7)
}

/// The reference model of `Tensor::from_terms`: per monoid element, the
/// left fold of `plus` over its coefficients in input order; `0_M` and zero
/// coefficients leave, idempotent elements keep `idem_normal` of theirs.
fn model_tensor<K: CommutativeSemiring>(m: &MonoidKind, terms: &[(K, Const)]) -> Vec<(K, Const)> {
    let mut by_elem: BTreeMap<Const, K> = BTreeMap::new();
    for (k, e) in terms.iter().filter(|(_, e)| *e != m.zero()) {
        let sum = by_elem.get(e).map_or_else(|| k.clone(), |old| old.plus(k));
        by_elem.insert(e.clone(), sum);
    }
    let normal = |k: K| {
        if m.is_idempotent() {
            k.idem_normal()
        } else {
            k
        }
    };
    by_elem
        .into_iter()
        .map(|(e, k)| (normal(k), e))
        .filter(|(k, _)| !k.is_zero())
        .collect()
}

/// Few distinct elements, many terms: every element is a long run.
fn check_tensor_runs<K: CommutativeSemiring>(terms: Vec<(K, i64)>) {
    let terms: Vec<(K, Const)> = terms.into_iter().map(|(k, v)| (k, Const::int(v))).collect();
    for m in [MonoidKind::Sum, MonoidKind::Max, MonoidKind::Prod] {
        let t = Tensor::from_terms(&m, terms.clone());
        let got: Vec<(K, Const)> = t.terms().map(|(k, e)| (k.clone(), e.clone())).collect();
        assert_eq!(got, model_tensor(&m, &terms), "{m} over {terms:?}");
    }
}

proptest! {
    #[test]
    fn sum_is_the_left_fold_of_plus(
        nat in arb_polys((0u64..3).prop_map(Nat)),
        boolean in arb_polys(any::<bool>().prop_map(Bool)),
        // ℤ coefficients: a run cancels to zero in the middle of the sum.
        int in arb_polys((-2i64..3).prop_map(IntZ)),
        // Polynomial coefficients: every run recurses into `C::sum`.
        nested in arb_polys(arb_raw_terms((-2i64..3).prop_map(IntZ)).prop_map(Poly::from_terms)),
    ) {
        check_sum(&nat);
        check_sum(&boolean);
        check_sum(&int);
        check_sum(&nested);
        // The default body (scalars) is the same fold.
        check_sum(&int.iter().map(|p| IntZ(p.num_terms() as i64 - 2)).collect::<Vec<_>>());
    }

    #[test]
    fn tensor_from_terms_folds_runs_as_the_model_does(
        nat in prop::collection::vec((arb_natpoly(), -1i64..3), 0..14),
        int in prop::collection::vec(
            (arb_raw_terms((-2i64..3).prop_map(IntZ)).prop_map(Poly::from_terms), -1i64..3),
            0..14,
        ),
        scalar in prop::collection::vec(((0u64..3).prop_map(Nat), -1i64..3), 0..14),
    ) {
        check_tensor_runs(nat);
        check_tensor_runs::<Poly<Var, IntZ>>(int);
        check_tensor_runs(scalar);
    }
}

// ---------------------------------------------------------------------------
// `Monomial` and `Tensor` against the vectors they replaced
// ---------------------------------------------------------------------------

type Pairs = Vec<(Var, u32)>;

/// The reference model of `Monomial::from_pairs`: exponents summed per
/// indeterminate, zero exponents dropped, sorted — the `Vec` a monomial
/// used to hold (whose derived `==`/`cmp`/hash the monomial's must equal).
fn model_pairs(pairs: impl IntoIterator<Item = (Var, u32)>) -> Pairs {
    let mut by_var: BTreeMap<Var, u32> = BTreeMap::new();
    for (v, e) in pairs {
        *by_var.entry(v).or_insert(0) += e;
    }
    by_var.into_iter().filter(|(_, e)| *e > 0).collect()
}

/// The model of a `Value<NatPoly>` cell: the same variants, with the term
/// vector where the tensor handle is.
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum CellModel {
    Const(Const),
    Agg(MonoidKind, Vec<(NatPoly, Const)>),
}

fn hash_of(value: &impl std::hash::Hash) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    BuildHasherDefault::<DefaultHasher>::default().hash_one(value)
}

/// `m` walks the model's pair sequence, and compares and hashes as it
/// does (against `other`, whose model is `other_model`).
fn assert_monomial_is(m: &Monomial<Var>, model: &Pairs, other: (&Monomial<Var>, &Pairs)) {
    let pairs: Pairs = m.iter().map(|(v, e)| (v.clone(), e)).collect();
    assert_eq!(&pairs, model);
    assert_eq!((m.len(), m.is_unit()), (model.len(), model.is_empty()));
    assert_eq!(m.cmp(other.0), model.cmp(other.1), "{m} vs {}", other.0);
    assert_eq!(m == other.0, model == other.1, "{m} vs {}", other.0);
    assert_eq!(hash_of(m), hash_of(model), "{m}");
}

/// Zero to three pairs with repeats and zero exponents: normalizing lands
/// on every layout (no pair, one inline, a boxed slice) from every length.
fn arb_pairs() -> impl Strategy<Value = Pairs> {
    prop::collection::vec((arb_var(), 0u32..3), 0..4)
}

proptest! {
    #[test]
    fn monomial_matches_the_pair_vector_model(
        a in arb_pairs(),
        b in arb_pairs(),
        image in arb_var_image(),
    ) {
        let (ma, mb) = (Monomial::from_pairs(a.clone()), Monomial::from_pairs(b.clone()));
        let (va, vb) = (model_pairs(a), model_pairs(b));
        assert_monomial_is(&ma, &va, (&mb, &vb));
        assert_monomial_is(&mb, &vb, (&ma, &va));
        // 0 → 1 and 1 → 2 pairs (disjoint factors), 1 → 1 (a square).
        let product = model_pairs(va.iter().chain(&vb).cloned());
        assert_monomial_is(&ma.times(&mb), &product, (&ma, &va));
        assert_monomial_is(&mb.times(&ma), &product, (&mb, &vb));
        let flat: Pairs = va.iter().map(|(v, _)| (v.clone(), 1)).collect();
        assert_monomial_is(&ma.squarefree(), &flat, (&mb, &vb));
        // 2 → 1: images collide, exponents add.
        let index = |v: &Var| VARS.iter().position(|n| *n == v.name()).unwrap();
        let renamed = model_pairs(va.iter().map(|(v, e)| (image[index(v)].clone(), *e)));
        let mapped = ma.map_vars(&mut |v| image[index(v)].clone());
        assert_monomial_is(&mapped, &renamed, (&mb, &vb));
    }

    #[test]
    fn tensor_orders_hashes_and_shares_as_its_term_vector(
        a in prop::collection::vec((arb_natpoly(), -1i64..3), 0..6),
        b in prop::collection::vec((arb_natpoly(), -1i64..3), 0..6),
        same_terms in any::<bool>(),
        cells in ((any::<bool>(), -1i64..3), (any::<bool>(), -1i64..3)),
    ) {
        let consts = |terms: Vec<(NatPoly, i64)>| -> Vec<(NatPoly, Const)> {
            terms.into_iter().map(|(k, v)| (k, Const::int(v))).collect()
        };
        // Zero, one and several terms on each side; equal term vectors in
        // distinct storage when `same_terms`.
        let a = consts(a);
        let b = if same_terms { a.clone() } else { consts(b) };
        let kinds = [MonoidKind::Sum, MonoidKind::Max];
        for (ma, mb) in kinds.into_iter().flat_map(|ma| kinds.map(|mb| (ma, mb))) {
            let (ta, tb) = (Tensor::from_terms(&ma, a.clone()), Tensor::from_terms(&mb, b.clone()));
            let (va, vb) = (model_tensor(&ma, &a), model_tensor(&mb, &b));
            prop_assert_eq!(ta.cmp(&tb), va.cmp(&vb));
            prop_assert_eq!(ta == tb, va == vb);
            prop_assert_eq!(hash_of(&ta), hash_of(&va));
            // `simple` builds one term in place: it must normalize as the
            // general path does (zero coefficient, `0_M`, `idem_normal`).
            if let [(k, e)] = a.as_slice() {
                prop_assert_eq!(&Tensor::simple(&ma, k.clone(), e.clone()), &ta);
            }
            // A clone is the same storage; the zero tensor holds none, and
            // two builds of one term vector are equal without sharing.
            prop_assert_eq!(ta.clone().shares_terms_with(&ta), !va.is_empty());
            prop_assert!(!ta.shares_terms_with(&tb));
            prop_assert_eq!(ta.is_zero(), va.is_empty());
            prop_assert!(ta.clone() == ta && ta.clone().cmp(&ta).is_eq());
            // As a cell: a constant or the tagged tensor, ordered, compared
            // and hashed as its `(variant, kind, term vector)` model, and
            // cloned by sharing the terms.
            let cell = |(agg, c): (bool, i64), kind, t: &Tensor<NatPoly, Const>, v: &Vec<_>| {
                if agg {
                    (Value::Agg(kind, t.clone()), CellModel::Agg(kind, v.clone()))
                } else {
                    (Value::Const(Const::int(c)), CellModel::Const(Const::int(c)))
                }
            };
            let (ca, cma) = cell(cells.0, ma, &ta, &va);
            let (cb, cmb) = cell(cells.1, mb, &tb, &vb);
            prop_assert_eq!(ca.cmp(&cb), cma.cmp(&cmb));
            prop_assert_eq!(ca == cb, cma == cmb);
            prop_assert_eq!((hash_of(&ca), hash_of(&cb)), (hash_of(&cma), hash_of(&cmb)));
            if let (Value::Agg(_, copy), Value::Agg(_, t)) = (ca.clone(), &ca) {
                prop_assert_eq!(copy.shares_terms_with(t), !va.is_empty());
            }
        }
    }
}
