//! Commutative semirings for annotations (paper §2.1).
//!
//! Tuples of annotated relations carry elements of a commutative semiring
//! `(K, +_K, ·_K, 0_K, 1_K)`: `+` models alternative use of data, `·` joint
//! use, `1` unrestricted availability and `0` absence. This module defines
//! the [`CommutativeSemiring`] trait together with the concrete semirings
//! used throughout the paper: the boolean semiring `B` (sets), the natural
//! numbers `ℕ` (bags), the integers `ℤ`, the security semiring `S`, the
//! tropical cost semiring and the Viterbi (confidence) semiring. The
//! polynomial provenance semirings live in [`crate::poly`], the provenance
//! hierarchy in [`crate::hierarchy`], and the security-bag semiring `SN` in
//! [`crate::sn`].

use crate::num::Num;
use std::fmt;
use std::hash::Hash;

/// A commutative semiring element type.
///
/// Laws (checked by property tests for every implementation):
/// `(K, plus, zero)` and `(K, times, one)` are commutative monoids, `times`
/// distributes over `plus`, and `zero` annihilates `times`.
///
/// The associated constants expose the structural side conditions the paper
/// relies on; they gate compatibility (§3.4) and token resolution (§4.2) at
/// compile- or run-time.
///
/// `Send + Sync` is part of the contract: annotations are pure values
/// (every implementation here is plain data), and the physical operators
/// shard annotated relations across worker threads — see
/// `aggprov_core::par`.
pub trait CommutativeSemiring:
    Clone + Eq + Ord + Hash + fmt::Debug + fmt::Display + Send + Sync
{
    /// `0_K`, the identity of `+_K` (annihilator of `·_K`): absent data.
    fn zero() -> Self;

    /// `1_K`, the identity of `·_K`: unrestricted data.
    fn one() -> Self;

    /// Alternative use of data, `+_K`.
    fn plus(&self, other: &Self) -> Self;

    /// Joint use of data, `·_K`.
    fn times(&self, other: &Self) -> Self;

    /// The k-way sum `Σ items` (`0_K` for no items) — the Σ of the paper's
    /// `AGG_M(R) = Σ R(mᵢ) ⊗ mᵢ` (§3.2) and of §4.3's token-weighted sums.
    /// Equal to the left fold of [`plus`](CommutativeSemiring::plus); the
    /// default is a pairwise tree reduction, so summing n annotations of
    /// size 1 costs O(n log n) rather than the fold's O(n²) (each `plus`
    /// clones its left operand). Representations that can merge all
    /// operands in one pass override it (see `Poly`).
    fn sum(mut items: Vec<Self>) -> Self {
        while items.len() > 1 {
            let mut next = Vec::with_capacity(items.len().div_ceil(2));
            let mut iter = items.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => next.push(a.plus(&b)),
                    None => next.push(a),
                }
            }
            items = next;
        }
        items.pop().unwrap_or_else(Self::zero)
    }

    /// True iff `self == 0_K`.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// True iff `self == 1_K`.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// True iff `a +_K a = a` for all `a`. By Proposition 3.11, semirings
    /// with idempotent `+` are compatible only with idempotent monoids.
    const PLUS_IDEMPOTENT: bool;

    /// True iff `a +_K b = 0_K` implies `a = b = 0_K` ("positive with
    /// respect to `+`"). By Theorem 3.12, positive semirings are compatible
    /// with every idempotent monoid.
    const POSITIVE: bool;

    /// True iff a semiring homomorphism `K → ℕ` exists. By Theorem 3.13,
    /// such semirings are compatible with *all* commutative monoids.
    const HAS_HOM_TO_NAT: bool;

    /// If `self` is a *ground natural*, i.e. `self = n·1_K` and the canonical
    /// map `n ↦ n·1_K` is injective on the relevant range (faithful counting),
    /// returns `n`. Used to read aggregation results back off tensors
    /// (`ι⁻¹`, §3.4) and to resolve equality tokens (axiom (*), §4.2).
    ///
    /// Implementations for semirings whose `+` collapses counting (e.g. `B`,
    /// where `1+1 = 1`) must still answer consistently with their normal
    /// form; resolution is additionally gated by [`compatible`].
    fn as_nat(&self) -> Option<u64>;

    /// The canonical image of `n ∈ ℕ`: `n·1_K`.
    fn from_nat(n: u64) -> Self {
        let mut acc = Self::zero();
        let mut base = Self::one();
        let mut n = n;
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.plus(&base);
            }
            n >>= 1;
            if n > 0 {
                base = base.plus(&base);
            }
        }
        acc
    }

    /// The native `δ` operation if this semiring is a δ-semiring
    /// (Definition 3.6: `δ(0)=0`, `δ(n·1)=1` for `n ≥ 1`), otherwise `None`.
    ///
    /// Symbolic semirings (provenance polynomials) return `None`; their
    /// δ-structure is provided freely by `Km` (the `K^M` construction).
    fn native_delta(&self) -> Option<Self> {
        None
    }

    /// The canonical image of `self` under the quotient of `(K, +)` by the
    /// congruence generated by `k ~ k + k`.
    ///
    /// When a tensor term `k ⊗ m` has an *idempotent* monoid element
    /// (`m + m = m`), the §2.3 congruence identifies `k ⊗ m` with
    /// `(k+k) ⊗ m` (via `k ⊗ (m+m) ~ k⊗m + k⊗m`), so such coefficients are
    /// only meaningful up to this quotient. The tensor normal form applies
    /// this map to keep equality decisions canonical — e.g.
    /// `(b+b)⊗⊤ = b⊗⊤` in `K ⊗ B̂`, which underlies the paper's difference
    /// laws (`A − (B ∪ B) ≡ A − B`, §5.2).
    ///
    /// The default (identity) is always sound — it merely identifies fewer
    /// congruent forms. Overrides must be `+`/`·`-compatible quotient maps:
    /// for `ℕ` the support map `0 ↦ 0, n ↦ 1`; for `ℤ` the constant `0`
    /// (additive inverses collapse the quotient, which is why `ι : B̂ → ℤ⊗B̂`
    /// is not injective); for polynomials, coefficient-wise.
    fn idem_normal(&self) -> Self {
        self.clone()
    }
}

/// A semiring with a total, native δ operation (Definition 3.6).
///
/// Blanketly derivable from [`CommutativeSemiring::native_delta`] being
/// total; implemented explicitly to keep the δ-laws visible in the API.
pub trait DeltaSemiring: CommutativeSemiring {
    /// `δ_K`: `δ(0_K) = 0_K` and `δ(n·1_K) = 1_K` for `n ≥ 1`.
    fn delta(&self) -> Self;
}

/// Whether the pair `(K, M)` is *compatible* (Definition 3.10): `ι : M →
/// K⊗M`, `ι(m) = 1_K ⊗ m`, is injective, so results landing in `ι(M)` can be
/// read back as elements of `M`.
///
/// Sufficient conditions from the paper: Theorem 3.13 (`K` has a
/// homomorphism to `ℕ`; any `M`) and Theorem 3.12 (`K` positive, `M`
/// idempotent).
pub fn compatible<K: CommutativeSemiring, M: crate::monoid::CommutativeMonoid>(m: &M) -> bool {
    K::HAS_HOM_TO_NAT || (K::POSITIVE && m.is_idempotent())
}

// ---------------------------------------------------------------------------
// B — the boolean semiring (set semantics)
// ---------------------------------------------------------------------------

/// The boolean semiring `(B, ∨, ∧, ⊥, ⊤)`: set semantics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Bool(pub bool);

impl CommutativeSemiring for Bool {
    fn zero() -> Self {
        Bool(false)
    }
    fn one() -> Self {
        Bool(true)
    }
    fn plus(&self, other: &Self) -> Self {
        Bool(self.0 || other.0)
    }
    fn times(&self, other: &Self) -> Self {
        Bool(self.0 && other.0)
    }
    const PLUS_IDEMPOTENT: bool = true;
    const POSITIVE: bool = true;
    // `1+1 = 1` in `B` but `1+1 = 2` in `ℕ`: no homomorphism exists, which is
    // exactly why sets are incompatible with SUM (§3.4).
    const HAS_HOM_TO_NAT: bool = false;
    fn as_nat(&self) -> Option<u64> {
        Some(if self.0 { 1 } else { 0 })
    }
    fn native_delta(&self) -> Option<Self> {
        Some(*self)
    }
}

impl DeltaSemiring for Bool {
    fn delta(&self) -> Self {
        *self
    }
}

impl fmt::Display for Bool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", if self.0 { "⊤" } else { "⊥" })
    }
}

// ---------------------------------------------------------------------------
// ℕ — the natural numbers semiring (bag semantics)
// ---------------------------------------------------------------------------

/// The natural numbers semiring `(ℕ, +, ·, 0, 1)`: bag semantics
/// (annotations are multiplicities).
///
/// Arithmetic panics on `u64` overflow — a loud failure beats a silently
/// wrong multiplicity in a database kernel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Nat(pub u64);

impl CommutativeSemiring for Nat {
    fn zero() -> Self {
        Nat(0)
    }
    fn one() -> Self {
        Nat(1)
    }
    fn plus(&self, other: &Self) -> Self {
        Nat(self.0.checked_add(other.0).expect("ℕ annotation overflow"))
    }
    fn times(&self, other: &Self) -> Self {
        Nat(self.0.checked_mul(other.0).expect("ℕ annotation overflow"))
    }
    const PLUS_IDEMPOTENT: bool = false;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = true;
    fn as_nat(&self) -> Option<u64> {
        Some(self.0)
    }
    fn native_delta(&self) -> Option<Self> {
        Some(self.delta())
    }
    fn idem_normal(&self) -> Self {
        // ℕ/(n ~ 2n) identifies all positive counts: the support map.
        Nat(if self.0 == 0 { 0 } else { 1 })
    }
}

impl DeltaSemiring for Nat {
    fn delta(&self) -> Self {
        Nat(if self.0 == 0 { 0 } else { 1 })
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

// ---------------------------------------------------------------------------
// ℤ — the ring of integers (used by the difference comparisons, §5.2)
// ---------------------------------------------------------------------------

/// The ring of integers `(ℤ, +, ·, 0, 1)`, as used for ℤ-relations in
/// Green, Ives & Tannen, "Reconcilable differences" (ICDT 2009).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct IntZ(pub i64);

impl CommutativeSemiring for IntZ {
    fn zero() -> Self {
        IntZ(0)
    }
    fn one() -> Self {
        IntZ(1)
    }
    fn plus(&self, other: &Self) -> Self {
        IntZ(self.0.checked_add(other.0).expect("ℤ annotation overflow"))
    }
    fn times(&self, other: &Self) -> Self {
        IntZ(self.0.checked_mul(other.0).expect("ℤ annotation overflow"))
    }
    const PLUS_IDEMPOTENT: bool = false;
    // `1 + (−1) = 0`: ℤ is not positive, and (as the paper notes) has no
    // homomorphism to ℕ.
    const POSITIVE: bool = false;
    const HAS_HOM_TO_NAT: bool = false;
    fn as_nat(&self) -> Option<u64> {
        u64::try_from(self.0).ok()
    }
    fn native_delta(&self) -> Option<Self> {
        Some(self.delta())
    }
    fn idem_normal(&self) -> Self {
        // With additive inverses, k ~ 2k forces 0 ~ k for every k: the
        // quotient is trivial (and ι : B̂ → ℤ⊗B̂ is not injective).
        IntZ(0)
    }
}

impl DeltaSemiring for IntZ {
    /// The δ-laws only constrain `δ` on `0` and `n·1`; we extend with
    /// `δ(k) = 1` for every non-zero `k` (the "support" choice).
    fn delta(&self) -> Self {
        IntZ(if self.0 == 0 { 0 } else { 1 })
    }
}

impl fmt::Display for IntZ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

// ---------------------------------------------------------------------------
// S — the security semiring
// ---------------------------------------------------------------------------

/// A clearance level of the security semiring `S` (paper §2.1).
///
/// The semiring order is `1_S < C < S < T < 0_S`; an annotation is the
/// clearance required to access the tuple. The derived `Ord` follows the
/// declaration order, so `plus = min` ("alternative use needs the laxer
/// clearance") and `times = max` ("joint use needs the stricter one").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Security {
    /// `1_S`: public, always available.
    Public,
    /// `C`: confidential.
    Confidential,
    /// `S`: secret.
    Secret,
    /// `T`: top secret.
    TopSecret,
    /// `0_S`: never available.
    Never,
}

impl Security {
    /// All levels, most public first.
    pub const ALL: [Security; 5] = [
        Security::Public,
        Security::Confidential,
        Security::Secret,
        Security::TopSecret,
        Security::Never,
    ];

    /// True iff a principal holding clearance `cred` may see data annotated
    /// with `self` (i.e. `self ≤ cred` in the access order, with `Never`
    /// visible to no one).
    pub fn visible_to(&self, cred: Security) -> bool {
        *self != Security::Never && *self <= cred
    }
}

impl CommutativeSemiring for Security {
    fn zero() -> Self {
        Security::Never
    }
    fn one() -> Self {
        Security::Public
    }
    fn plus(&self, other: &Self) -> Self {
        *self.min(other)
    }
    fn times(&self, other: &Self) -> Self {
        *self.max(other)
    }
    const PLUS_IDEMPOTENT: bool = true;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = false;
    fn as_nat(&self) -> Option<u64> {
        match self {
            Security::Never => Some(0),
            Security::Public => Some(1),
            _ => None,
        }
    }
    fn native_delta(&self) -> Option<Self> {
        Some(*self)
    }
}

impl DeltaSemiring for Security {
    /// The paper: "for the security semiring, a reasonable choice for `δ_S`
    /// is the identity function."
    fn delta(&self) -> Self {
        *self
    }
}

impl fmt::Display for Security {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Security::Public => "1s",
            Security::Confidential => "C",
            Security::Secret => "S",
            Security::TopSecret => "T",
            Security::Never => "0s",
        };
        write!(f, "{s}")
    }
}

// ---------------------------------------------------------------------------
// Tropical — the cost semiring
// ---------------------------------------------------------------------------

/// The tropical cost semiring `(ℕ ∪ {∞}, min, +, ∞, 0)`: annotations are
/// costs of obtaining tuples; alternatives take the cheaper, joint use adds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Tropical {
    /// A finite cost.
    Fin(u64),
    /// Unobtainable (`0` of the semiring).
    Inf,
}

impl CommutativeSemiring for Tropical {
    fn zero() -> Self {
        Tropical::Inf
    }
    fn one() -> Self {
        Tropical::Fin(0)
    }
    fn plus(&self, other: &Self) -> Self {
        *self.min(other)
    }
    fn times(&self, other: &Self) -> Self {
        match (self, other) {
            (Tropical::Fin(a), Tropical::Fin(b)) => {
                Tropical::Fin(a.checked_add(*b).expect("tropical cost overflow"))
            }
            _ => Tropical::Inf,
        }
    }
    const PLUS_IDEMPOTENT: bool = true;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = false;
    fn as_nat(&self) -> Option<u64> {
        match self {
            Tropical::Inf => Some(0),
            Tropical::Fin(0) => Some(1),
            _ => None,
        }
    }
    fn native_delta(&self) -> Option<Self> {
        Some(self.delta())
    }
}

impl DeltaSemiring for Tropical {
    /// `δ(∞) = ∞` and `δ(c) = 0` for finite `c`: existence of a group member
    /// is free once some member is obtainable.
    fn delta(&self) -> Self {
        match self {
            Tropical::Inf => Tropical::Inf,
            Tropical::Fin(_) => Tropical::Fin(0),
        }
    }
}

impl fmt::Display for Tropical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tropical::Fin(c) => write!(f, "{c}"),
            Tropical::Inf => write!(f, "∞"),
        }
    }
}

// ---------------------------------------------------------------------------
// Viterbi — the confidence semiring
// ---------------------------------------------------------------------------

/// The Viterbi (confidence/trust) semiring `([0,1], max, ·, 0, 1)` over
/// exact rationals.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Viterbi(Num);

impl Viterbi {
    /// Builds a confidence value; panics if outside `[0, 1]`.
    pub fn new(p: Num) -> Self {
        assert!(
            Num::ZERO <= p && p <= Num::ONE,
            "confidence {p} outside [0,1]"
        );
        Viterbi(p)
    }

    /// Builds the confidence `num/den`.
    pub fn ratio(num: i64, den: i64) -> Self {
        Viterbi::new(Num::ratio(num, den))
    }

    /// The underlying number.
    pub fn value(&self) -> Num {
        self.0
    }
}

impl CommutativeSemiring for Viterbi {
    fn zero() -> Self {
        Viterbi(Num::ZERO)
    }
    fn one() -> Self {
        Viterbi(Num::ONE)
    }
    fn plus(&self, other: &Self) -> Self {
        Viterbi(self.0.max(other.0))
    }
    fn times(&self, other: &Self) -> Self {
        Viterbi(self.0 * other.0)
    }
    const PLUS_IDEMPOTENT: bool = true;
    const POSITIVE: bool = true;
    const HAS_HOM_TO_NAT: bool = false;
    fn as_nat(&self) -> Option<u64> {
        if self.0 == Num::ZERO {
            Some(0)
        } else if self.0 == Num::ONE {
            Some(1)
        } else {
            None
        }
    }
    fn native_delta(&self) -> Option<Self> {
        Some(self.delta())
    }
}

impl DeltaSemiring for Viterbi {
    /// `δ(0) = 0`, `δ(p) = 1` for `p > 0`: a group exists with certainty as
    /// soon as some member might.
    fn delta(&self) -> Self {
        if self.0 == Num::ZERO {
            Viterbi(Num::ZERO)
        } else {
            Viterbi(Num::ONE)
        }
    }
}

impl fmt::Display for Viterbi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_is_set_semantics() {
        let (t, f) = (Bool(true), Bool(false));
        assert_eq!(t.plus(&f), t);
        assert_eq!(t.times(&f), f);
        assert_eq!(Bool::zero(), f);
        assert_eq!(Bool::one(), t);
        assert_eq!(Bool::from_nat(7), t);
        assert_eq!(Bool::from_nat(0), f);
    }

    #[test]
    fn nat_counts() {
        assert_eq!(Nat(2).plus(&Nat(3)), Nat(5));
        assert_eq!(Nat(2).times(&Nat(3)), Nat(6));
        assert_eq!(Nat::from_nat(9), Nat(9));
        assert_eq!(Nat(0).delta(), Nat(0));
        assert_eq!(Nat(3).delta(), Nat(1));
    }

    #[test]
    fn security_order_matches_paper() {
        use Security::*;
        // 1s < C < S < T < 0s
        assert_eq!(Public.plus(&Secret), Public);
        assert_eq!(TopSecret.plus(&Confidential), Confidential);
        assert_eq!(Secret.times(&Confidential), Secret);
        assert_eq!(Security::zero(), Never);
        assert_eq!(Security::one(), Public);
        // Annihilation and identity.
        assert_eq!(Secret.times(&Never), Never);
        assert_eq!(Secret.times(&Public), Secret);
    }

    #[test]
    fn security_visibility() {
        use Security::*;
        assert!(Public.visible_to(Confidential));
        assert!(Secret.visible_to(Secret));
        assert!(!TopSecret.visible_to(Secret));
        assert!(!Never.visible_to(TopSecret));
    }

    #[test]
    fn tropical_costs() {
        use Tropical::*;
        assert_eq!(Fin(3).plus(&Fin(5)), Fin(3));
        assert_eq!(Fin(3).times(&Fin(5)), Fin(8));
        assert_eq!(Fin(3).times(&Inf), Inf);
        assert_eq!(Tropical::one(), Fin(0));
    }

    #[test]
    fn viterbi_confidence() {
        let half = Viterbi::ratio(1, 2);
        let third = Viterbi::ratio(1, 3);
        assert_eq!(half.plus(&third), half);
        assert_eq!(half.times(&half), Viterbi::ratio(1, 4));
        assert_eq!(half.delta(), Viterbi::one());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn viterbi_rejects_out_of_range() {
        Viterbi::ratio(3, 2);
    }

    #[test]
    fn as_nat_ground_detection() {
        assert_eq!(Nat(4).as_nat(), Some(4));
        assert_eq!(Bool(true).as_nat(), Some(1));
        assert_eq!(Security::Public.as_nat(), Some(1));
        assert_eq!(Security::Secret.as_nat(), None);
        assert_eq!(IntZ(-1).as_nat(), None);
        assert_eq!(Tropical::Fin(5).as_nat(), None);
    }

    #[test]
    fn from_nat_is_nfold_one() {
        // Spot-check against the naive fold for several semirings.
        for n in 0..10u64 {
            let mut acc = Nat::zero();
            for _ in 0..n {
                acc = acc.plus(&Nat::one());
            }
            assert_eq!(Nat::from_nat(n), acc);
        }
        assert_eq!(IntZ::from_nat(5), IntZ(5));
        assert_eq!(Security::from_nat(3), Security::Public);
        assert_eq!(Tropical::from_nat(2), Tropical::Fin(0));
    }

    #[test]
    fn compatibility_matrix_matches_paper() {
        use crate::monoid::MonoidKind::*;
        // ℕ is compatible with everything (Thm 3.13).
        assert!(compatible::<Nat, _>(&Sum));
        assert!(compatible::<Nat, _>(&Max));
        // B is compatible with idempotent monoids only (Thm 3.12 / §3.4).
        assert!(compatible::<Bool, _>(&Max));
        assert!(compatible::<Bool, _>(&Min));
        assert!(!compatible::<Bool, _>(&Sum));
        // S likewise.
        assert!(compatible::<Security, _>(&Max));
        assert!(!compatible::<Security, _>(&Sum));
        // ℤ is not positive and has no hom to ℕ: nothing guarantees MIN/MAX.
        assert!(!compatible::<IntZ, _>(&Max));
        assert!(!compatible::<IntZ, _>(&Sum));
    }
}
