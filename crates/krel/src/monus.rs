//! Baseline difference semantics (paper §5.2 comparators).
//!
//! The paper compares its aggregation-derived difference against previously
//! proposed semantics:
//!
//! * **monus** difference on naturally ordered semirings (Geerts & Poggi):
//!   `(R − S)(t) = R(t) ∸ S(t)`, which specializes to set difference on `B`
//!   and bag difference on `ℕ`;
//! * **ℤ-difference** (Green, Ives & Tannen): plain subtraction, allowing
//!   negative multiplicities.
//!
//! These are the comparison points for Propositions 5.5 and 5.7.

use crate::error::{RelError, Result};
use crate::relation::Relation;
use aggprov_algebra::semiring::{Bool, CommutativeSemiring, IntZ, Nat};
use std::fmt;
use std::hash::Hash;

/// A semiring with a *monus* (truncated difference): `a ∸ b` is the least
/// `c` with `a ≤ b + c` in the natural order, when that order makes the
/// semiring a "monus semiring" (Geerts & Poggi, J. Applied Logic 2010).
pub trait Monus: CommutativeSemiring {
    /// The truncated difference `a ∸ b`.
    fn monus(&self, other: &Self) -> Self;
}

impl Monus for Nat {
    fn monus(&self, other: &Self) -> Self {
        Nat(self.0.saturating_sub(other.0))
    }
}

impl Monus for Bool {
    fn monus(&self, other: &Self) -> Self {
        Bool(self.0 && !other.0)
    }
}

/// Tuple-wise monus difference: `(R ∸ S)(t) = R(t) ∸ S(t)`.
///
/// On `B` this is set difference; on `ℕ` bag difference.
pub fn monus_difference<K, V>(r: &Relation<K, V>, s: &Relation<K, V>) -> Result<Relation<K, V>>
where
    K: Monus,
    V: Clone + Ord + Hash + fmt::Debug,
{
    if r.schema() != s.schema() {
        return Err(RelError::SchemaMismatch {
            left: r.schema().to_string(),
            right: s.schema().to_string(),
            op: "difference",
        });
    }
    let mut out = Relation::empty(r.schema().clone());
    for (t, k) in r.iter() {
        let diff = k.monus(&s.annotation(&t));
        if !diff.is_zero() {
            out.add(t, diff)?;
        }
    }
    Ok(out)
}

/// ℤ-difference: `(R − S)(t) = R(t) − S(t)` on ℤ-relations, following
/// "Reconcilable differences" (ICDT 2009). Tuples of `S` absent from `R`
/// appear with negative multiplicity.
pub fn z_difference<V>(r: &Relation<IntZ, V>, s: &Relation<IntZ, V>) -> Result<Relation<IntZ, V>>
where
    V: Clone + Ord + Hash + fmt::Debug,
{
    if r.schema() != s.schema() {
        return Err(RelError::SchemaMismatch {
            left: r.schema().to_string(),
            right: s.schema().to_string(),
            op: "difference",
        });
    }
    let neg = s.map_annotations(&mut |k| IntZ(-k.0));
    r.union(&neg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Tuple;
    use crate::schema::Schema;
    use aggprov_algebra::domain::Const;

    fn sch() -> Schema {
        Schema::new(["a"]).unwrap()
    }

    fn bag(rows: &[(i64, u64)]) -> Relation<Nat, Const> {
        Relation::from_rows(sch(), rows.iter().map(|(v, n)| ([Const::int(*v)], Nat(*n)))).unwrap()
    }

    #[test]
    fn bag_monus() {
        let r = bag(&[(1, 3), (2, 1)]);
        let s = bag(&[(1, 1), (3, 5)]);
        let d = monus_difference(&r, &s).unwrap();
        assert_eq!(d.annotation(&Tuple::from([Const::int(1)])), Nat(2));
        assert_eq!(d.annotation(&Tuple::from([Const::int(2)])), Nat(1));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn set_monus() {
        let mk = |vals: &[i64]| {
            Relation::from_rows(sch(), vals.iter().map(|v| ([Const::int(*v)], Bool(true)))).unwrap()
        };
        let d = monus_difference(&mk(&[1, 2]), &mk(&[2, 3])).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.annotation(&Tuple::from([Const::int(1)])), Bool(true));
    }

    #[test]
    fn z_difference_goes_negative() {
        let r = Relation::from_rows(sch(), [([Const::int(1)], IntZ(1))]).unwrap();
        let s = Relation::from_rows(
            sch(),
            [([Const::int(1)], IntZ(1)), ([Const::int(2)], IntZ(2))],
        )
        .unwrap();
        let d = z_difference(&r, &s).unwrap();
        assert_eq!(d.annotation(&Tuple::from([Const::int(1)])), IntZ(0));
        assert_eq!(d.annotation(&Tuple::from([Const::int(2)])), IntZ(-2));
        assert_eq!(d.len(), 1, "zero annotations leave the support");
    }

    #[test]
    fn z_law_a_minus_b_minus_c() {
        // (A − (B − C)) ≡ (A ∪ C) − B holds for ℤ-semantics (Prop 5.7 cite).
        let a = Relation::from_rows(sch(), [([Const::int(1)], IntZ(2))]).unwrap();
        let b = Relation::from_rows(sch(), [([Const::int(1)], IntZ(1))]).unwrap();
        let c = Relation::from_rows(sch(), [([Const::int(1)], IntZ(3))]).unwrap();
        let lhs = z_difference(&a, &z_difference(&b, &c).unwrap()).unwrap();
        let rhs = z_difference(&a.union(&c).unwrap(), &b).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bag_law_union_then_minus() {
        // (A ∪ B) ∸ B ≡ A under bag semantics (Prop 5.5 contrast).
        let a = bag(&[(1, 2)]);
        let b = bag(&[(1, 5), (2, 1)]);
        let lhs = monus_difference(&a.union(&b).unwrap(), &b).unwrap();
        assert_eq!(lhs, a);
    }
}
