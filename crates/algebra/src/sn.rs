//! The security-bag semiring `SN` (paper §3.4, "Constructing a compatible
//! semiring").
//!
//! The security semiring `S` is `+`-idempotent, hence incompatible with
//! non-idempotent aggregations such as `SUM`. The paper repairs this by
//! moving to `ℕ[S]` — polynomials whose "indeterminates" are clearance
//! levels — and quotienting by the identities that hold in `S`:
//!
//! * `s₁ ≥ s₂  ⟹  s₁ · s₂ = s₁` (joint use needs the stricter clearance),
//! * `0 · s = c · 0_S = 0`,
//! * `c · 1_S = c` for `c ∈ ℕ`.
//!
//! The quotient admits the canonical form `n·1_S + c·C + s·S + t·T` with
//! natural counts, multiplication acting by max-level on basis elements.
//! `SN` retains a homomorphism onto `ℕ` (total count), so by Theorem 3.13 it
//! is compatible with **every** commutative monoid — security annotations
//! and `SUM` finally coexist (Example 3.16, Corollary 3.15).

use crate::semiring::{CommutativeSemiring, DeltaSemiring, Security};
use std::fmt;

/// An element of `SN` in canonical form: counts of each non-zero clearance
/// level (`1_S = Public`, `C`, `S`, `T`). The semiring zero has all counts
/// zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Sn {
    /// Coefficient of `1_S` (the embedded naturals).
    pub public: u64,
    /// Count of `C` (confidential) summands.
    pub confidential: u64,
    /// Count of `S` (secret) summands.
    pub secret: u64,
    /// Count of `T` (top secret) summands.
    pub top_secret: u64,
}

impl Sn {
    /// Embeds a clearance level (the faithful embedding `S ↪ SN`;
    /// `Never` maps to the semiring zero).
    pub fn level(level: Security) -> Self {
        let mut out = Sn::default();
        match level {
            Security::Public => out.public = 1,
            Security::Confidential => out.confidential = 1,
            Security::Secret => out.secret = 1,
            Security::TopSecret => out.top_secret = 1,
            Security::Never => {}
        }
        out
    }

    /// The count for a given level (`Never` has no count; returns 0).
    pub fn count(&self, level: Security) -> u64 {
        match level {
            Security::Public => self.public,
            Security::Confidential => self.confidential,
            Security::Secret => self.secret,
            Security::TopSecret => self.top_secret,
            Security::Never => 0,
        }
    }

    fn with_count(level: Security, n: u64) -> Self {
        let mut out = Sn::default();
        match level {
            Security::Public => out.public = n,
            Security::Confidential => out.confidential = n,
            Security::Secret => out.secret = n,
            Security::TopSecret => out.top_secret = n,
            Security::Never => {}
        }
        out
    }

    /// The homomorphism `SN → ℕ` (total count) that powers compatibility
    /// with all monoids (Theorem 3.13 / Corollary 3.15).
    pub fn total_count(&self) -> u64 {
        self.public + self.confidential + self.secret + self.top_secret
    }

    /// Specializes for a principal with clearance `cred`: levels visible to
    /// `cred` count as present (`1`), others vanish — the multiplicity the
    /// principal observes. This is the composition of the per-level
    /// visibility valuation with `total_count`.
    pub fn multiplicity_for(&self, cred: Security) -> u64 {
        let mut n = 0;
        for level in [
            Security::Public,
            Security::Confidential,
            Security::Secret,
            Security::TopSecret,
        ] {
            if level.visible_to(cred) {
                n += self.count(level);
            }
        }
        n
    }
}

impl CommutativeSemiring for Sn {
    fn zero() -> Self {
        Sn::default()
    }

    fn one() -> Self {
        Sn::level(Security::Public)
    }

    fn plus(&self, other: &Self) -> Self {
        Sn {
            public: self.public.checked_add(other.public).expect("SN overflow"),
            confidential: self
                .confidential
                .checked_add(other.confidential)
                .expect("SN overflow"),
            secret: self.secret.checked_add(other.secret).expect("SN overflow"),
            top_secret: self
                .top_secret
                .checked_add(other.top_secret)
                .expect("SN overflow"),
        }
    }

    fn times(&self, other: &Self) -> Self {
        // Distribute over the canonical sums; on basis levels the product is
        // the max level, with counts multiplying.
        let levels = [
            Security::Public,
            Security::Confidential,
            Security::Secret,
            Security::TopSecret,
        ];
        let mut out = Sn::default();
        for a in levels {
            let ca = self.count(a);
            if ca == 0 {
                continue;
            }
            for b in levels {
                let cb = other.count(b);
                if cb == 0 {
                    continue;
                }
                let n = ca.checked_mul(cb).expect("SN overflow");
                out = out.plus(&Sn::with_count(a.times(&b), n));
            }
        }
        out
    }

    fn is_zero(&self) -> bool {
        self.as_nat() == Some(0)
    }

    fn is_one(&self) -> bool {
        self.as_nat() == Some(1)
    }

    const PLUS_IDEMPOTENT: bool = false;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = true;

    fn as_nat(&self) -> Option<u64> {
        (self.confidential == 0 && self.secret == 0 && self.top_secret == 0).then_some(self.public)
    }

    fn from_nat(n: u64) -> Self {
        Sn::with_count(Security::Public, n)
    }

    fn native_delta(&self) -> Option<Self> {
        Some(self.delta())
    }

    fn idem_normal(&self) -> Self {
        // Component-wise support, as for ℕ.
        Sn {
            public: self.public.min(1),
            confidential: self.confidential.min(1),
            secret: self.secret.min(1),
            top_secret: self.top_secret.min(1),
        }
    }
}

impl DeltaSemiring for Sn {
    /// `δ(x)`: the most public level present, with count 1 — "the group
    /// exists for whoever can see at least one member". Satisfies the
    /// δ-laws: `δ(0) = 0`, `δ(n·1_S) = 1_S`.
    fn delta(&self) -> Self {
        for level in [
            Security::Public,
            Security::Confidential,
            Security::Secret,
            Security::TopSecret,
        ] {
            if self.count(level) > 0 {
                return Sn::level(level);
            }
        }
        Sn::zero()
    }
}

impl fmt::Display for Sn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, n: u64, name: &str| -> fmt::Result {
            if n == 0 {
                return Ok(());
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            if name == "1s" {
                write!(f, "{n}")
            } else if n == 1 {
                write!(f, "{name}")
            } else {
                write!(f, "{n}*{name}")
            }
        };
        item(f, self.public, "1s")?;
        item(f, self.confidential, "C")?;
        item(f, self.secret, "S")?;
        item(f, self.top_secret, "T")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::FnHom;
    use crate::laws::{check_delta, check_hom, check_semiring};
    use crate::semiring::Nat;

    fn samples() -> Vec<Sn> {
        vec![
            Sn::zero(),
            Sn::one(),
            Sn::level(Security::Secret),
            Sn::level(Security::TopSecret),
            Sn::from_nat(3),
            Sn::level(Security::Secret).plus(&Sn::from_nat(2)),
            Sn::level(Security::Confidential).times(&Sn::level(Security::Secret)),
        ]
    }

    #[test]
    fn semiring_laws() {
        let xs = samples();
        for a in &xs {
            for b in &xs {
                for c in &xs {
                    check_semiring(a, b, c).unwrap();
                }
            }
        }
    }

    #[test]
    fn quotient_identities() {
        // s1 ≥ s2 ⟹ s1 · s2 = s1 (on the embedded levels).
        let t = Sn::level(Security::TopSecret);
        let s = Sn::level(Security::Secret);
        assert_eq!(t.times(&s), t);
        // c · 1_S = c.
        assert_eq!(Sn::from_nat(4).times(&Sn::one()), Sn::from_nat(4));
        // 0 annihilates.
        assert_eq!(s.times(&Sn::zero()), Sn::zero());
    }

    #[test]
    fn embeddings_are_faithful() {
        // ℕ ↪ SN and S ↪ SN are injective on representatives.
        assert_ne!(Sn::from_nat(2), Sn::from_nat(3));
        assert_ne!(
            Sn::level(Security::Secret),
            Sn::level(Security::Confidential)
        );
        // …and SN does *not* collapse T + S the way S does (Example 3.16).
        let sum = Sn::level(Security::TopSecret).plus(&Sn::level(Security::Secret));
        assert_eq!(sum.total_count(), 2);
        assert_ne!(sum, Sn::level(Security::Secret));
    }

    #[test]
    fn total_count_is_a_hom_to_nat() {
        let h = FnHom(|x: &Sn| Nat(x.total_count()));
        let xs = samples();
        for a in &xs {
            for b in &xs {
                check_hom(&h, a, b).unwrap();
            }
        }
    }

    #[test]
    fn example_3_16_annotation() {
        // (T ·SN S) +SN S = T + S (since T·S = T), i.e. counts {t:1, s:1}.
        let ann = Sn::level(Security::TopSecret)
            .times(&Sn::level(Security::Secret))
            .plus(&Sn::level(Security::Secret));
        assert_eq!(ann.count(Security::TopSecret), 1);
        assert_eq!(ann.count(Security::Secret), 1);
        // Principal with T sees multiplicity 2; with S sees 1; with C sees 0.
        assert_eq!(ann.multiplicity_for(Security::TopSecret), 2);
        assert_eq!(ann.multiplicity_for(Security::Secret), 1);
        assert_eq!(ann.multiplicity_for(Security::Confidential), 0);
    }

    #[test]
    fn delta_laws_and_choice() {
        for n in 0..4 {
            check_delta(&Sn::from_nat(2), n).unwrap();
        }
        let x = Sn::level(Security::Secret).plus(&Sn::level(Security::Confidential));
        assert_eq!(x.delta(), Sn::level(Security::Confidential));
    }

    #[test]
    fn compatible_with_sum_via_nat_hom() {
        use crate::domain::Const;
        use crate::monoid::MonoidKind;
        use crate::tensor::Tensor;
        // Ground SN coefficients resolve through ι⁻¹.
        let m = MonoidKind::Sum;
        let t = Tensor::<Sn, Const>::from_terms(
            &m,
            [
                (Sn::from_nat(2), Const::int(30)),
                (Sn::from_nat(1), Const::int(10)),
            ],
        );
        assert_eq!(t.try_resolve(&m), Some(Const::int(70)));
        // Symbolic (level-annotated) coefficients do not resolve yet.
        let t =
            Tensor::<Sn, Const>::from_terms(&m, [(Sn::level(Security::TopSecret), Const::int(30))]);
        assert_eq!(t.try_resolve(&m), None);
    }
}
