//! The provenance semiring hierarchy.
//!
//! `ℕ[X]` is the most informative provenance semiring; coarser forms used in
//! earlier provenance systems arise as quotients (Green, ICDT 2009):
//!
//! ```text
//!        ℕ[X]  (provenance polynomials)
//!        /   \
//!    B[X]     Trio(X)        drop coefficients / drop exponents
//!        \   /
//!        Why(X)              sets of sets of tokens (witnesses)
//!          |
//!       PosBool(X)           absorption (minimal witnesses)
//!          |
//!        Lin(X)              lineage: one set of tokens
//! ```
//!
//! Each arrow is a surjective semiring homomorphism; composing with any of
//! them after query evaluation equals evaluating with the coarser semiring
//! directly (the factorization property). `B[X]` and `Trio(X)` are
//! [`crate::poly::Poly`] instances; this module adds `Why(X)`, `PosBool(X)`
//! and `Lin(X)` together with the downward maps.

use crate::poly::{BoolPoly, Monomial, NatPoly, Poly, Var};
use crate::semiring::{Bool, CommutativeSemiring, DeltaSemiring, Nat};
use std::collections::BTreeSet;
use std::fmt;

/// `Trio(X)`: polynomials with natural coefficients and squarefree
/// monomials (exponents dropped), as in the Trio system's lineage.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Trio(Poly<Var, Nat>);

impl Trio {
    /// The token `x` as a Trio element.
    pub fn token(name: &str) -> Self {
        Trio(NatPoly::token(name))
    }

    /// The underlying (squarefree) polynomial.
    pub fn as_poly(&self) -> &Poly<Var, Nat> {
        &self.0
    }

    fn normalize(p: Poly<Var, Nat>) -> Self {
        Trio(Poly::from_terms(
            p.terms().map(|(m, c)| (m.squarefree(), *c)),
        ))
    }
}

impl CommutativeSemiring for Trio {
    fn zero() -> Self {
        Trio(Poly::zero())
    }
    fn one() -> Self {
        Trio(Poly::one())
    }
    fn plus(&self, other: &Self) -> Self {
        Trio(self.0.plus(&other.0))
    }
    fn times(&self, other: &Self) -> Self {
        Self::normalize(self.0.times(&other.0))
    }
    fn is_zero(&self) -> bool {
        self.0.is_zero()
    }
    fn is_one(&self) -> bool {
        self.0.is_one()
    }
    const PLUS_IDEMPOTENT: bool = false;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = true;
    fn as_nat(&self) -> Option<u64> {
        self.0.as_nat()
    }
    fn from_nat(n: u64) -> Self {
        Trio(NatPoly::from_nat(n))
    }
    fn idem_normal(&self) -> Self {
        Trio(self.0.idem_normal())
    }
}

impl fmt::Display for Trio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// `Why(X)`: witness sets — sets of sets of tokens. Both `+` and `·` are
/// idempotent but absorption does not hold.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Why(BTreeSet<BTreeSet<Var>>);

impl Why {
    /// The token `x` as a singleton witness.
    pub fn token(name: &str) -> Self {
        Why(BTreeSet::from([BTreeSet::from([Var::new(name)])]))
    }

    /// The witness sets.
    pub fn witnesses(&self) -> &BTreeSet<BTreeSet<Var>> {
        &self.0
    }
}

impl CommutativeSemiring for Why {
    fn zero() -> Self {
        Why(BTreeSet::new())
    }
    fn one() -> Self {
        Why(BTreeSet::from([BTreeSet::new()]))
    }
    fn plus(&self, other: &Self) -> Self {
        Why(self.0.union(&other.0).cloned().collect())
    }
    fn times(&self, other: &Self) -> Self {
        let mut out = BTreeSet::new();
        for a in &self.0 {
            for b in &other.0 {
                out.insert(a.union(b).cloned().collect());
            }
        }
        Why(out)
    }
    fn is_zero(&self) -> bool {
        self.0.is_empty()
    }
    fn is_one(&self) -> bool {
        is_unit_witness(&self.0)
    }
    const PLUS_IDEMPOTENT: bool = true;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = false;
    fn as_nat(&self) -> Option<u64> {
        if self.0.is_empty() {
            Some(0)
        } else if self.is_one() {
            Some(1)
        } else {
            None
        }
    }
    fn native_delta(&self) -> Option<Self> {
        Some(self.clone())
    }
}

impl DeltaSemiring for Why {
    /// Identity, as for the security semiring: lawful because `n·1 = 1` in
    /// any `+`-idempotent semiring, and it preserves the witness sets.
    fn delta(&self) -> Self {
        self.clone()
    }
}

impl fmt::Display for Why {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, v) in w.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

/// `PosBool(X)`: positive boolean expressions in irredundant DNF — an
/// antichain of witness sets (absorption applied). This is the free
/// distributive lattice on `X`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PosBool(BTreeSet<BTreeSet<Var>>);

impl PosBool {
    /// The token `x`.
    pub fn token(name: &str) -> Self {
        PosBool(BTreeSet::from([BTreeSet::from([Var::new(name)])]))
    }

    /// The minimal witness sets (the irredundant DNF).
    pub fn minimal_witnesses(&self) -> &BTreeSet<BTreeSet<Var>> {
        &self.0
    }

    fn absorb(sets: BTreeSet<BTreeSet<Var>>) -> Self {
        let minimal: BTreeSet<BTreeSet<Var>> = sets
            .iter()
            .filter(|s| !sets.iter().any(|other| other != *s && other.is_subset(s)))
            .cloned()
            .collect();
        PosBool(minimal)
    }
}

impl CommutativeSemiring for PosBool {
    fn zero() -> Self {
        PosBool(BTreeSet::new())
    }
    fn one() -> Self {
        PosBool(BTreeSet::from([BTreeSet::new()]))
    }
    fn plus(&self, other: &Self) -> Self {
        Self::absorb(self.0.union(&other.0).cloned().collect())
    }
    fn times(&self, other: &Self) -> Self {
        let mut out = BTreeSet::new();
        for a in &self.0 {
            for b in &other.0 {
                out.insert(a.union(b).cloned().collect());
            }
        }
        Self::absorb(out)
    }
    fn is_zero(&self) -> bool {
        self.0.is_empty()
    }
    fn is_one(&self) -> bool {
        is_unit_witness(&self.0)
    }
    const PLUS_IDEMPOTENT: bool = true;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = false;
    fn as_nat(&self) -> Option<u64> {
        if self.0.is_empty() {
            Some(0)
        } else if self.is_one() {
            Some(1)
        } else {
            None
        }
    }
    fn native_delta(&self) -> Option<Self> {
        Some(self.clone())
    }
}

impl DeltaSemiring for PosBool {
    /// Identity (see [`Why`]'s δ).
    fn delta(&self) -> Self {
        self.clone()
    }
}

impl fmt::Display for PosBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "⊥");
        }
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            if w.is_empty() {
                write!(f, "⊤")?;
            }
            for (j, v) in w.iter().enumerate() {
                if j > 0 {
                    write!(f, "∧")?;
                }
                write!(f, "{v}")?;
            }
        }
        Ok(())
    }
}

/// `Lin(X)`: lineage — a single set of contributing tokens, with a bottom
/// element for absent tuples.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Lineage {
    /// The zero (absent tuple).
    #[default]
    Bottom,
    /// The set of tokens the tuple depends on (`∅` is the semiring `1`).
    Set(BTreeSet<Var>),
}

impl Lineage {
    /// The token `x`.
    pub fn token(name: &str) -> Self {
        Lineage::Set(BTreeSet::from([Var::new(name)]))
    }

    /// The token set, if present.
    pub fn tokens(&self) -> Option<&BTreeSet<Var>> {
        match self {
            Lineage::Bottom => None,
            Lineage::Set(s) => Some(s),
        }
    }
}

impl CommutativeSemiring for Lineage {
    fn zero() -> Self {
        Lineage::Bottom
    }
    fn one() -> Self {
        Lineage::Set(BTreeSet::new())
    }
    fn plus(&self, other: &Self) -> Self {
        match (self, other) {
            (Lineage::Bottom, x) | (x, Lineage::Bottom) => x.clone(),
            (Lineage::Set(a), Lineage::Set(b)) => Lineage::Set(a.union(b).cloned().collect()),
        }
    }
    fn times(&self, other: &Self) -> Self {
        match (self, other) {
            (Lineage::Bottom, _) | (_, Lineage::Bottom) => Lineage::Bottom,
            (Lineage::Set(a), Lineage::Set(b)) => Lineage::Set(a.union(b).cloned().collect()),
        }
    }
    fn is_zero(&self) -> bool {
        matches!(self, Lineage::Bottom)
    }
    fn is_one(&self) -> bool {
        matches!(self, Lineage::Set(s) if s.is_empty())
    }
    const PLUS_IDEMPOTENT: bool = true;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = false;
    fn as_nat(&self) -> Option<u64> {
        match self {
            Lineage::Bottom => Some(0),
            Lineage::Set(s) if s.is_empty() => Some(1),
            _ => None,
        }
    }
    fn native_delta(&self) -> Option<Self> {
        Some(self.clone())
    }
}

impl DeltaSemiring for Lineage {
    /// Identity (see [`Why`]'s δ).
    fn delta(&self) -> Self {
        self.clone()
    }
}

impl fmt::Display for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lineage::Bottom => write!(f, "⊥"),
            Lineage::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Downward homomorphisms
// ---------------------------------------------------------------------------

/// `ℕ[X] → B[X]`: drop coefficients.
pub fn to_bool_poly(p: &NatPoly) -> BoolPoly {
    p.map_coeffs(&mut |c| Bool(c.0 != 0))
}

/// `ℕ[X] → Trio(X)`: drop exponents.
pub fn to_trio(p: &NatPoly) -> Trio {
    Trio::normalize(p.clone())
}

/// `ℕ[X] → Why(X)`: drop coefficients and exponents.
pub fn to_why(p: &NatPoly) -> Why {
    Why(p.terms().map(|(m, _)| monomial_vars(m)).collect())
}

/// `ℕ[X] → PosBool(X)`: additionally apply absorption.
pub fn to_posbool(p: &NatPoly) -> PosBool {
    PosBool::absorb(p.terms().map(|(m, _)| monomial_vars(m)).collect())
}

/// `ℕ[X] → Lin(X)`: union all tokens (zero goes to ⊥).
pub fn to_lineage(p: &NatPoly) -> Lineage {
    if p.is_zero() {
        Lineage::Bottom
    } else {
        Lineage::Set(p.vars().cloned().collect())
    }
}

/// True iff `sets` is `{∅}`, the `1` of the witness-set semirings.
fn is_unit_witness(sets: &BTreeSet<BTreeSet<Var>>) -> bool {
    sets.len() == 1 && sets.first().is_some_and(BTreeSet::is_empty)
}

fn monomial_vars(m: &Monomial<Var>) -> BTreeSet<Var> {
    m.iter().map(|(v, _)| v.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::FnHom;
    use crate::laws::{check_hom, check_semiring};

    fn sample() -> NatPoly {
        // 2x²y + xy + 3z
        let x = NatPoly::token("x");
        let y = NatPoly::token("y");
        let z = NatPoly::token("z");
        NatPoly::from_nat(2)
            .times(&x)
            .times(&x)
            .times(&y)
            .plus(&x.times(&y))
            .plus(&NatPoly::from_nat(3).times(&z))
    }

    #[test]
    fn drops_match_expected_forms() {
        let p = sample();
        assert_eq!(to_bool_poly(&p).to_string(), "x*y + x^2*y + z");
        assert_eq!(to_trio(&p).to_string(), "3*x*y + 3*z");
        assert_eq!(to_why(&p).to_string(), "{{x,y}, {z}}");
        assert_eq!(to_posbool(&p).to_string(), "x∧y ∨ z");
        assert_eq!(to_lineage(&p).to_string(), "{x,y,z}");
    }

    #[test]
    fn absorption_only_in_posbool() {
        // x + xy: Why keeps both witnesses, PosBool absorbs {x,y} ⊇ {x}.
        let p = NatPoly::token("x").plus(&NatPoly::token("x").times(&NatPoly::token("y")));
        assert_eq!(to_why(&p).witnesses().len(), 2);
        assert_eq!(to_posbool(&p).minimal_witnesses().len(), 1);
    }

    #[test]
    fn hierarchy_semiring_laws() {
        let ts = [
            Trio::zero(),
            Trio::one(),
            Trio::token("x"),
            Trio::token("y"),
        ];
        for a in &ts {
            for b in &ts {
                for c in &ts {
                    check_semiring(a, b, c).unwrap();
                }
            }
        }
        let ws = [Why::zero(), Why::one(), Why::token("x"), Why::token("y")];
        for a in &ws {
            for b in &ws {
                for c in &ws {
                    check_semiring(a, b, c).unwrap();
                }
            }
        }
        let ps = [
            PosBool::zero(),
            PosBool::one(),
            PosBool::token("x"),
            PosBool::token("y"),
        ];
        for a in &ps {
            for b in &ps {
                for c in &ps {
                    check_semiring(a, b, c).unwrap();
                }
            }
        }
        let ls = [
            Lineage::Bottom,
            Lineage::one(),
            Lineage::token("x"),
            Lineage::token("y"),
        ];
        for a in &ls {
            for b in &ls {
                for c in &ls {
                    check_semiring(a, b, c).unwrap();
                }
            }
        }
    }

    #[test]
    fn trio_collapses_exponents() {
        let x = Trio::token("x");
        assert_eq!(x.times(&x).to_string(), "x");
        // but keeps multiplicities: x + x = 2x.
        assert_eq!(x.plus(&x).to_string(), "2*x");
    }

    #[test]
    fn downward_maps_are_homomorphisms() {
        let samples = [
            NatPoly::zero(),
            NatPoly::one(),
            NatPoly::token("x"),
            NatPoly::token("y"),
            sample(),
        ];
        for a in &samples {
            for b in &samples {
                check_hom(&FnHom(to_bool_poly), a, b).unwrap();
                check_hom(&FnHom(to_trio), a, b).unwrap();
                check_hom(&FnHom(to_why), a, b).unwrap();
                check_hom(&FnHom(to_posbool), a, b).unwrap();
                check_hom(&FnHom(to_lineage), a, b).unwrap();
            }
        }
    }

    #[test]
    fn trio_has_hom_to_nat() {
        // Tokens ↦ 1 yields the term-count-with-multiplicity homomorphism.
        let h = FnHom(|t: &Trio| t.as_poly().eval(&mut |_| Nat(1), &mut |c| *c));
        check_hom(&h, &Trio::token("x"), &Trio::token("y")).unwrap();
    }
}
