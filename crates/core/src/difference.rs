//! Relational difference via aggregation (paper §5).
//!
//! Difference is encoded with the monoid `B̂ = ({⊥,⊤}, ∨, ⊥)`:
//!
//! ```text
//! R − S = Π_{a1…an}( GB_{a1…an, b}(R × ⊥_b ∪ S × ⊤_b) ⋈ (R × ⊥_b) )
//! ```
//!
//! Running the §4.3 semantics over this query yields, up to equivalence
//! (Proposition 5.1), the *hybrid* semantics
//!
//! ```text
//! (R − S)(t) = [S(t) ⊗ ⊤ = 0] · R(t)
//! ```
//!
//! — the existence of `t` in `S` acts as a boolean condition, while
//! surviving tuples keep their full `R`-annotation (multiplicity). This is
//! deliberately different from bag monus and from ℤ-difference; the law
//! matrix of [`laws`] makes the §5.2 comparisons executable.

use crate::annotation::AggAnnotation;
use crate::ops::{self, AggSpec, MKRel};
use crate::value::Value;
use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::tensor::Tensor;
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;

/// The direct hybrid difference `(R − S)(t) = [S(t) ⊗ ⊤ = 0] · R(t)`.
pub fn difference<A: AggAnnotation>(r: &MKRel<A>, s: &MKRel<A>) -> Result<MKRel<A>> {
    if r.schema() != s.schema() {
        return Err(RelError::SchemaMismatch {
            left: r.schema().to_string(),
            right: s.schema().to_string(),
            op: "difference",
        });
    }
    let or = MonoidKind::Or;
    // Groundness is decided once per call, not once per lookup: between
    // constants the §4.3 reading of `R(t)`/`S(t)` is the structural lookup.
    let ground = !ops::has_symbolic(r) && !ops::has_symbolic(s);
    let mut out: MKRel<A> = Relation::empty(r.schema().clone());
    for (t, k) in r.iter() {
        // With symbolic values, structurally distinct tuples may become
        // equal under a homomorphism, so membership is token-weighted
        // across the whole support.
        let (r_ann, s_ann) = if ground {
            (k.clone(), s.annotation(&t))
        } else {
            (ops::annotation_at(r, t)?, ops::annotation_at(s, t)?)
        };
        let lhs = Tensor::simple(&or, s_ann, Const::Bool(true));
        let token = A::eq_token(or, &lhs, &Tensor::zero())?;
        let ann = token.times(&r_ann);
        if !ann.is_zero() && out.annotation(&t).is_zero() {
            out.add(t, ann)?;
        }
    }
    Ok(out)
}

/// The attribute name used internally by the aggregation encoding.
const B_ATTR: &str = "__diff_b";

/// The paper's §5.1 encoding of difference through `B̂`-aggregation,
/// evaluated with the extended semantics. Equivalent to [`difference`]
/// under every homomorphism into a semiring where `ι : B̂ → K⊗B̂` is an
/// isomorphism (Proposition 5.1) — the encoded form carries an extra
/// `δ(R(t) + S(t))` factor that such homomorphisms erase.
pub fn difference_encoded<A: AggAnnotation>(r: &MKRel<A>, s: &MKRel<A>) -> Result<MKRel<A>> {
    if r.schema() != s.schema() {
        return Err(RelError::SchemaMismatch {
            left: r.schema().to_string(),
            right: s.schema().to_string(),
            op: "difference",
        });
    }
    let attrs: Vec<String> = r
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();

    // ⊥_b and ⊤_b: single-attribute, single-tuple relations annotated 1.
    let bot: MKRel<A> = Relation::from_rows(
        Schema::new([B_ATTR])?,
        [(vec![Value::Const(Const::Bool(false))], A::one())],
    )?;
    let top: MKRel<A> = Relation::from_rows(
        Schema::new([B_ATTR])?,
        [(vec![Value::Const(Const::Bool(true))], A::one())],
    )?;

    let r_bot = ops::product(r, &bot)?;
    let s_top = ops::product(s, &top)?;
    let u = ops::union(&r_bot, &s_top)?;
    let g = ops::group_by(&u, &attr_refs, &[AggSpec::new(MonoidKind::Or, B_ATTR)])?;

    // Rename the aggregation result's attributes so the schemas are
    // disjoint, then join comparing every original attribute and the
    // b-attribute (tensor vs ⊥ — this comparison produces the
    // [S(t)⊗⊤ = 0] token).
    let mut g2 = g;
    let mut primed: Vec<String> = Vec::new();
    for a in attrs.iter().chain([&B_ATTR.to_string()]) {
        let p = format!("__g_{a}");
        g2 = g2.rename(a, &p)?;
        primed.push(p);
    }
    let on: Vec<(&str, &str)> = primed
        .iter()
        .map(|p| p.as_str())
        .zip(attr_refs.iter().copied().chain([B_ATTR]))
        .collect();
    let j = ops::join_on(&g2, &r_bot, &on)?;
    ops::project(&j, &attr_refs)
}

/// Executable difference laws for the §5.2 comparison matrix
/// (Propositions 5.4–5.7).
pub mod laws {
    use super::*;

    /// An equivalence law between two difference queries.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum DiffLaw {
        /// `A − (B ∪ B) ≡ A − B` (holds for ours; fails for bag monus).
        MinusUnionSelf,
        /// `(A ∪ B) − B ≡ A` (holds for bag monus; fails for ours and set).
        UnionMinus,
        /// `A − (B − C) ≡ (A ∪ C) − B` (holds for ℤ-semantics; fails for
        /// ours).
        MinusMinus,
        /// `(A − B) − C ≡ A − (B ∪ C)` (a classical set-difference law).
        MinusMinusUnion,
    }

    impl DiffLaw {
        /// All laws in the matrix.
        pub const ALL: [DiffLaw; 4] = [
            DiffLaw::MinusUnionSelf,
            DiffLaw::UnionMinus,
            DiffLaw::MinusMinus,
            DiffLaw::MinusMinusUnion,
        ];

        /// A human-readable rendering.
        pub fn name(&self) -> &'static str {
            match self {
                DiffLaw::MinusUnionSelf => "A − (B ∪ B) ≡ A − B",
                DiffLaw::UnionMinus => "(A ∪ B) − B ≡ A",
                DiffLaw::MinusMinus => "A − (B − C) ≡ (A ∪ C) − B",
                DiffLaw::MinusMinusUnion => "(A − B) − C ≡ A − (B ∪ C)",
            }
        }
    }

    /// Evaluates both sides of a law under the hybrid semantics for the
    /// annotation `A` and reports whether they agree on the given input.
    pub fn check_ours<A: AggAnnotation>(
        law: DiffLaw,
        a: &MKRel<A>,
        b: &MKRel<A>,
        c: &MKRel<A>,
    ) -> Result<bool> {
        let (lhs, rhs) = match law {
            DiffLaw::MinusUnionSelf => (difference(a, &ops::union(b, b)?)?, difference(a, b)?),
            DiffLaw::UnionMinus => (difference(&ops::union(a, b)?, b)?, a.clone()),
            DiffLaw::MinusMinus => (
                difference(a, &difference(b, c)?)?,
                difference(&ops::union(a, c)?, b)?,
            ),
            DiffLaw::MinusMinusUnion => (
                difference(&difference(a, b)?, c)?,
                difference(a, &ops::union(b, c)?)?,
            ),
        };
        Ok(lhs == rhs)
    }

    /// The same laws under bag monus (ℕ-relations).
    pub fn check_bag_monus(
        law: DiffLaw,
        a: &Relation<aggprov_algebra::semiring::Nat, Const>,
        b: &Relation<aggprov_algebra::semiring::Nat, Const>,
        c: &Relation<aggprov_algebra::semiring::Nat, Const>,
    ) -> Result<bool> {
        use aggprov_krel::monus::monus_difference as diff;
        let (lhs, rhs) = match law {
            DiffLaw::MinusUnionSelf => (diff(a, &b.union(b)?)?, diff(a, b)?),
            DiffLaw::UnionMinus => (diff(&a.union(b)?, b)?, a.clone()),
            DiffLaw::MinusMinus => (diff(a, &diff(b, c)?)?, diff(&a.union(c)?, b)?),
            DiffLaw::MinusMinusUnion => (diff(&diff(a, b)?, c)?, diff(a, &b.union(c)?)?),
        };
        Ok(lhs == rhs)
    }

    /// The same laws under ℤ-semantics.
    pub fn check_z(
        law: DiffLaw,
        a: &Relation<aggprov_algebra::semiring::IntZ, Const>,
        b: &Relation<aggprov_algebra::semiring::IntZ, Const>,
        c: &Relation<aggprov_algebra::semiring::IntZ, Const>,
    ) -> Result<bool> {
        use aggprov_krel::monus::z_difference as diff;
        let (lhs, rhs) = match law {
            DiffLaw::MinusUnionSelf => (diff(a, &b.union(b)?)?, diff(a, b)?),
            DiffLaw::UnionMinus => (diff(&a.union(b)?, b)?, a.clone()),
            DiffLaw::MinusMinus => (diff(a, &diff(b, c)?)?, diff(&a.union(c)?, b)?),
            DiffLaw::MinusMinusUnion => (diff(&diff(a, b)?, c)?, diff(a, &b.union(c)?)?),
        };
        Ok(lhs == rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{collapse, map_hom_mk};
    use crate::km::Km;
    use aggprov_algebra::hom::Valuation;
    use aggprov_algebra::poly::NatPoly;
    use aggprov_algebra::semiring::{CommutativeSemiring, Nat};
    use aggprov_krel::relation::Tuple;

    type P = Km<NatPoly>;

    fn tok(name: &str) -> P {
        Km::embed(NatPoly::token(name))
    }

    fn sch(names: &[&str]) -> Schema {
        Schema::new(names.iter().copied()).unwrap()
    }

    /// Example 5.3's relations: R(id, dep) and S(dep).
    fn example_5_3() -> (MKRel<P>, MKRel<P>) {
        let r = Relation::from_rows(
            sch(&["dep"]),
            [
                // Π_Dep R of the example, with t1 + t2 for d1 and t3 for d2.
                (vec![Value::str("d1")], tok("t1").plus(&tok("t2"))),
                (vec![Value::str("d2")], tok("t3")),
            ],
        )
        .unwrap();
        let s = Relation::from_rows(sch(&["dep"]), [(vec![Value::str("d1")], tok("t4"))]).unwrap();
        (r, s)
    }

    #[test]
    fn example_5_3_annotations() {
        let (r, s) = example_5_3();
        let d = difference(&r, &s).unwrap();
        let d1 = d.annotation(&Tuple::from([Value::str("d1")]));
        let d2 = d.annotation(&Tuple::from([Value::str("d2")]));
        // d1: [t4⊗⊤ = 0]·(t1 + t2), kept symbolic.
        assert!(d1.try_collapse().is_none());
        assert!(d1.to_string().contains("[0⊗ =OR= (t4)⊗true]"), "{d1}");
        // d2: [0 = 0]·t3 = t3.
        assert_eq!(d2.try_collapse(), Some(NatPoly::token("t3")));
    }

    #[test]
    fn example_5_3_revoking_the_closure() {
        // Mapping t4 ↦ 0 revives d1 with its original annotation.
        let (r, s) = example_5_3();
        let d = difference(&r, &s).unwrap();
        let revived = map_hom_mk(&d, &|p: &NatPoly| {
            Valuation::<NatPoly>::with_default(NatPoly::zero())
                .set("t1", NatPoly::token("t1"))
                .set("t2", NatPoly::token("t2"))
                .set("t3", NatPoly::token("t3"))
                .set("t4", NatPoly::zero())
                .eval(p)
        });
        assert_eq!(
            revived
                .annotation(&Tuple::from([Value::str("d1")]))
                .try_collapse(),
            Some(NatPoly::token("t1").plus(&NatPoly::token("t2")))
        );
        // Mapping t4 ↦ 1 removes d1 entirely.
        let closed = map_hom_mk(&d, &|p: &NatPoly| {
            Valuation::<Nat>::ones().set("t4", Nat(1)).eval(p)
        });
        assert_eq!(closed.len(), 1);
    }

    #[test]
    fn hybrid_vs_bag_semantics_example_5_6() {
        // t1 = t2 = t3 = t4 = 1: bag difference leaves d1 with multiplicity
        // 1, ours deletes d1 (the boolean condition fires).
        let (r, s) = example_5_3();
        let ours = collapse(&map_hom_mk(&difference(&r, &s).unwrap(), &|p: &NatPoly| {
            Valuation::<Nat>::ones().eval(p)
        }))
        .unwrap();
        assert_eq!(ours.len(), 1, "d1 gone under the hybrid semantics");
        assert_eq!(ours.annotation(&Tuple::from([Value::str("d2")])), Nat(1));

        let r_bag: Relation<Nat, Const> = Relation::from_rows(
            sch(&["dep"]),
            [([Const::str("d1")], Nat(2)), ([Const::str("d2")], Nat(1))],
        )
        .unwrap();
        let s_bag = Relation::from_rows(sch(&["dep"]), [([Const::str("d1")], Nat(1))]).unwrap();
        let bag = aggprov_krel::monus::monus_difference(&r_bag, &s_bag).unwrap();
        assert_eq!(
            bag.annotation(&Tuple::from([Const::str("d1")])),
            Nat(1),
            "bag monus keeps d1 with multiplicity 1"
        );
    }

    #[test]
    fn encoded_difference_matches_direct_under_valuations() {
        // Proposition 5.1 on Example 5.3, for several valuations into ℕ.
        let (r, s) = example_5_3();
        let direct = difference(&r, &s).unwrap();
        let encoded = difference_encoded(&r, &s).unwrap();
        for (v1, v2, v3, v4) in [(1, 1, 1, 1), (1, 0, 2, 0), (0, 0, 1, 3), (2, 1, 0, 0)] {
            let val = Valuation::<Nat>::ones()
                .set("t1", Nat(v1))
                .set("t2", Nat(v2))
                .set("t3", Nat(v3))
                .set("t4", Nat(v4));
            let d = collapse(&map_hom_mk(&direct, &|p: &NatPoly| val.eval(p))).unwrap();
            let e = collapse(&map_hom_mk(&encoded, &|p: &NatPoly| val.eval(p))).unwrap();
            assert_eq!(d, e, "valuation ({v1},{v2},{v3},{v4})");
        }
    }

    #[test]
    fn law_matrix_matches_paper() {
        use laws::*;
        // Concrete ℕ-annotated inputs (constants resolve all tokens).
        let mk = |rows: &[(i64, u64)]| -> MKRel<Nat> {
            Relation::from_rows(
                sch(&["x"]),
                rows.iter().map(|(v, n)| (vec![Value::int(*v)], Nat(*n))),
            )
            .unwrap()
        };
        let a = mk(&[(1, 2), (2, 1)]);
        let b = mk(&[(1, 1), (3, 2)]);
        let c = mk(&[(3, 1), (4, 1)]);

        // Ours: A−(B∪B) ≡ A−B holds; (A∪B)−B ≡ A fails (Prop 5.5).
        assert!(check_ours(DiffLaw::MinusUnionSelf, &a, &b, &c).unwrap());
        assert!(!check_ours(DiffLaw::UnionMinus, &a, &b, &c).unwrap());
        // Ours: A−(B−C) ≢ (A∪C)−B (Prop 5.7).
        assert!(!check_ours(DiffLaw::MinusMinus, &a, &b, &c).unwrap());

        // Bag monus: (A∪B)−B ≡ A holds; A−(B∪B) ≡ A−B fails.
        let ab = |r: &MKRel<Nat>| -> Relation<Nat, Const> {
            let mut out = Relation::empty(r.schema().clone());
            for (t, k) in r.iter() {
                let row: Vec<Const> = t
                    .values()
                    .iter()
                    .map(|v| v.as_const().unwrap().clone())
                    .collect();
                out.insert(row, *k).unwrap();
            }
            out
        };
        let (ba, bb, bc) = (ab(&a), ab(&b), ab(&c));
        assert!(check_bag_monus(DiffLaw::UnionMinus, &ba, &bb, &bc).unwrap());
        assert!(!check_bag_monus(DiffLaw::MinusUnionSelf, &ba, &bb, &bc).unwrap());

        // ℤ: A−(B−C) ≡ (A∪C)−B holds; (A∪B)−B ≡ A holds too.
        let zr = |rows: &[(i64, i64)]| -> Relation<aggprov_algebra::semiring::IntZ, Const> {
            Relation::from_rows(
                sch(&["x"]),
                rows.iter()
                    .map(|(v, n)| ([Const::int(*v)], aggprov_algebra::semiring::IntZ(*n))),
            )
            .unwrap()
        };
        let (za, zb, zc) = (
            zr(&[(1, 2), (2, 1)]),
            zr(&[(1, 1), (3, 2)]),
            zr(&[(3, 1), (4, 1)]),
        );
        assert!(check_z(DiffLaw::MinusMinus, &za, &zb, &zc).unwrap());
        assert!(check_z(DiffLaw::UnionMinus, &za, &zb, &zc).unwrap());
    }

    #[test]
    fn ground_difference_is_not_quadratic() {
        // 16 000 fully ground rows. Re-deciding groundness with a full
        // scan per lookup made this quadratic (5.5 s in a release build,
        // minutes in a debug one); one decision per call leaves an
        // `O(n log n)` pass, so the bound is generous on any host.
        let rows = |step: usize| -> MKRel<P> {
            Relation::from_rows(
                sch(&["a", "b"]),
                (0..16_000).step_by(step).map(|i| {
                    let row = vec![Value::int(i as i64), Value::int(i as i64 % 7)];
                    (row, tok(&format!("x{i}")))
                }),
            )
            .unwrap()
        };
        let (r, s) = (rows(1), rows(2));
        let started = std::time::Instant::now();
        let d = difference(&r, &s).unwrap();
        let elapsed = started.elapsed();
        // Same relation as the token-weighted reading of `R(t)`/`S(t)`
        // (the literal §4.3 lookup, spot-checked — it is the slow path).
        assert_eq!(d.len(), 16_000);
        let or = MonoidKind::Or;
        for (t, k) in d.iter().take(24) {
            let s_ann = crate::specops::annotation_at(&s, t).unwrap();
            let lhs = Tensor::simple(&or, s_ann, Const::Bool(true));
            let token = <P as AggAnnotation>::eq_token(or, &lhs, &Tensor::zero()).unwrap();
            assert_eq!(
                k,
                &token.times(&crate::specops::annotation_at(&r, t).unwrap())
            );
        }
        let kept = d.iter().filter(|(t, k)| *k == &r.annotation(t)).count();
        assert_eq!(kept, 8_000, "rows absent from `s` keep their annotation");
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "16 000-row ground EXCEPT took {elapsed:?}"
        );
    }

    #[test]
    fn difference_requires_same_schema() {
        let r: MKRel<Nat> = Relation::empty(sch(&["a"]));
        let s: MKRel<Nat> = Relation::empty(sch(&["b"]));
        assert!(difference(&r, &s).is_err());
    }
}
