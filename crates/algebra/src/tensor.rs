//! The tensor product `K ⊗ M` (paper §2.3).
//!
//! Aggregating a `K`-annotated relation over a monoid `M` cannot stay inside
//! `M`: the paper embeds `M` into the `K`-semimodule `K ⊗ M`, whose elements
//! are (congruence classes of) formal sums `k₁⊗m₁ + … + kₙ⊗mₙ`. The value
//! of `SUM(Sal)` over Example 3.4's relation is the *expression*
//! `r₁⊗20 + r₂⊗10 + r₃⊗30` — linear in the input, capturing every possible
//! aggregation result for every valuation of the tokens.
//!
//! ## Normal form
//!
//! A [`Tensor`] keeps terms sorted by monoid element with equal elements
//! merged by `+_K`, zero coefficients dropped, and `k⊗0_M` terms dropped —
//! all identifications licensed by the congruence of §2.3. Structural
//! equality is therefore *sound* for tensor equality (equal normal forms ⇒
//! congruent) but not complete in general: e.g. `x⊗50` and `x⊗20 + x⊗30`
//! are congruent yet distinct normal forms. Completeness is recovered
//! exactly where the paper needs it (axiom (*) of §4.2): when `(K, M)` are
//! *compatible* and all coefficients are ground, [`Tensor::try_resolve`]
//! canonicalizes to `ι(m)` and equality becomes decidable.
//!
//! ## Representation
//!
//! The normal-form terms sit in one shared immutable slice behind a thin
//! handle, `Option<Arc<Box<[(K, E)]>>>`: the zero tensor holds no
//! allocation, `clone` is a reference-count bump — an aggregate cell is
//! copied by every `Tuple::project`, by `to_tensor` on a nested aggregate
//! and twice into every comparison token — and `==`/`cmp` are the term
//! sequence's, answered at once for two handles on the same storage.
//!
//! The handle is one pointer, not the fat `Arc<[_]>` (pointer and length)
//! that [`crate::poly::Poly`] keeps, because a tensor is the payload of
//! every cell's other variant: `Value::Agg(MonoidKind, Tensor)` is then a
//! tag byte and 8 bytes, which rustc places in the bytes a `Const` leaves
//! free, so a cell is exactly a `Const` (24 bytes, where 16 bytes of
//! handle made it 32) and every base-table cell — which only ever holds a
//! constant — stops paying for the tensor it could hold. The price is a
//! second block per non-zero tensor (the `Arc` around the boxed slice)
//! and one more pointer hop to read the terms, paid only by aggregate
//! values. Safe Rust has no thin pointer to a slice in a single block.

use crate::monoid::CommutativeMonoid;
use crate::poly::{sort_combine, sum_run};
use crate::semimodule::Semimodule;
use crate::semiring::{compatible, CommutativeSemiring};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An element of `K ⊗ M` in normal form. `E` is the monoid element type
/// (`M::Elem` for the monoid instance `M` supplied to the operations).
///
/// ```
/// use aggprov_algebra::domain::Const;
/// use aggprov_algebra::monoid::MonoidKind;
/// use aggprov_algebra::poly::NatPoly;
/// use aggprov_algebra::tensor::Tensor;
///
/// // Example 3.4: the SUM aggregate r1⊗20 + r2⊗10 + r3⊗30.
/// let sum = MonoidKind::Sum;
/// let t = Tensor::<NatPoly, Const>::from_terms(
///     &sum,
///     [
///         (NatPoly::token("r1"), Const::int(20)),
///         (NatPoly::token("r2"), Const::int(10)),
///         (NatPoly::token("r3"), Const::int(30)),
///     ],
/// );
/// assert_eq!(t.len(), 3);
/// // Valuate r1 ↦ 1, r2 ↦ 0, r3 ↦ 2 and read the result back off:
/// use aggprov_algebra::hom::Valuation;
/// use aggprov_algebra::semiring::Nat;
/// let v = Valuation::<Nat>::ones().set("r2", Nat(0)).set("r3", Nat(2));
/// let ground = t.map_coeffs(&sum, &mut |p| v.eval(p));
/// assert_eq!(ground.try_resolve(&sum), Some(Const::int(80)));
/// ```
#[derive(Clone, Debug)]
pub struct Tensor<K, E: Ord> {
    /// `(coefficient, element)` pairs: sorted by element, elements unique,
    /// no zero coefficients, no `0_M` elements. `None` is the zero tensor
    /// (no allocation); `Some` holds at least one term.
    terms: Option<Terms<K, E>>,
}

/// A tensor's shared term storage: an `Arc` around a boxed slice, so that
/// the handle is one pointer (see the module docs).
type Terms<K, E> = Arc<Box<[(K, E)]>>;

impl<K, E: Ord> Tensor<K, E> {
    fn as_slice(&self) -> &[(K, E)] {
        self.terms.as_deref().map_or(&[], |terms| terms)
    }

    /// Wraps normal-form terms (at least one) in a shared handle.
    fn from_normal(terms: Box<[(K, E)]>) -> Self {
        Tensor {
            terms: Some(Arc::new(terms)),
        }
    }

    /// True iff both tensors are non-zero and hold the same term storage
    /// (sharing implies equality; the zero tensor holds no storage).
    pub fn shares_terms_with(&self, other: &Self) -> bool {
        match (&self.terms, &other.terms) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl<K: PartialEq, E: Ord> PartialEq for Tensor<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.shares_terms_with(other) || self.as_slice() == other.as_slice()
    }
}

impl<K: Eq, E: Ord> Eq for Tensor<K, E> {}

impl<K: Ord, E: Ord> PartialOrd for Tensor<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, E: Ord> Ord for Tensor<K, E> {
    /// Lexicographic over the normal-form term sequence.
    fn cmp(&self, other: &Self) -> Ordering {
        if self.shares_terms_with(other) {
            return Ordering::Equal;
        }
        self.as_slice().cmp(other.as_slice())
    }
}

impl<K: Hash, E: Ord + Hash> Hash for Tensor<K, E> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<K: CommutativeSemiring, E: Ord + Clone + Hash + fmt::Debug> Tensor<K, E> {
    /// The zero tensor `0_{K⊗M}` (the empty sum).
    pub fn zero() -> Self {
        Tensor { terms: None }
    }

    /// The simple tensor `k ⊗ m`, normalized: what [`Tensor::from_terms`]
    /// makes of the one term, built in its final block (no buffer to
    /// shrink).
    pub fn simple<M>(m: &M, k: K, elem: E) -> Self
    where
        M: CommutativeMonoid<Elem = E>,
    {
        if k.is_zero() || elem == m.zero() {
            return Self::zero();
        }
        let k = if m.is_idempotent() {
            k.idem_normal()
        } else {
            k
        };
        if k.is_zero() {
            return Self::zero();
        }
        Self::from_normal(Box::new([(k, elem)]))
    }

    /// The embedding `ι(m) = 1_K ⊗ m` of the monoid into `K ⊗ M`.
    pub fn iota<M>(m: &M, elem: E) -> Self
    where
        M: CommutativeMonoid<Elem = E>,
    {
        Self::simple(m, K::one(), elem)
    }

    /// Builds a tensor from arbitrary `(k, m)` pairs, normalizing.
    ///
    /// This is exactly the content of `AGG_M(R)` in §3.2: for a relation
    /// with support `{m₁, …, mₙ}` and annotations `kᵢ = R(mᵢ)`, the
    /// aggregate value is `Σ kᵢ ⊗ mᵢ`. The coefficients of each repeated
    /// element are summed by one k-way [`CommutativeSemiring::sum`], so a
    /// `COUNT`-shaped aggregate (every element equal) is one pass.
    pub fn from_terms<M>(m: &M, terms: impl IntoIterator<Item = (K, E)>) -> Self
    where
        M: CommutativeMonoid<Elem = E>,
    {
        let zero_m = m.zero();
        let mut terms: Vec<(K, E)> = terms
            .into_iter()
            .filter(|(k, e)| !k.is_zero() && *e != zero_m)
            .collect();
        sort_combine(
            &mut terms,
            |(_, e)| e,
            |(k, _), rest| *k = sum_run(k, rest.iter().map(|(k, _)| k)),
            |(k, _)| !k.is_zero(),
        );
        if m.is_idempotent() {
            // Coefficients of idempotent elements are canonical only up to
            // k ~ k+k (see CommutativeSemiring::idem_normal).
            for (k, _) in &mut terms {
                *k = k.idem_normal();
            }
            terms.retain(|(k, _)| !k.is_zero());
        }
        if terms.is_empty() {
            return Self::zero();
        }
        Self::from_normal(terms.into_boxed_slice())
    }

    /// True iff this is the zero tensor.
    pub fn is_zero(&self) -> bool {
        self.terms.is_none()
    }

    /// The number of simple-tensor summands (the representation size that
    /// the poly-size-overhead experiments measure).
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True iff the tensor has no terms (same as [`Tensor::is_zero`]).
    pub fn is_empty(&self) -> bool {
        self.terms.is_none()
    }

    /// Iterates over `(coefficient, element)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (&K, &E)> {
        self.as_slice().iter().map(|(k, e)| (k, e))
    }

    /// Tensor addition `+_{K⊗M}` (bag union of simple tensors, normalized).
    pub fn add<M>(&self, other: &Self, m: &M) -> Self
    where
        M: CommutativeMonoid<Elem = E>,
    {
        Self::from_terms(m, self.as_slice().iter().chain(other.as_slice()).cloned())
    }

    /// Scalar multiplication `k ∗ Σ kᵢ⊗mᵢ = Σ (k·kᵢ)⊗mᵢ`, renormalized.
    pub fn scale<M>(&self, k: &K, m: &M) -> Self
    where
        M: CommutativeMonoid<Elem = E>,
    {
        if k.is_zero() {
            return Self::zero();
        }
        Self::from_terms(m, self.terms().map(|(ki, e)| (k.times(ki), e.clone())))
    }

    /// The lifted homomorphism `h^M(Σ kᵢ⊗mᵢ) = Σ h(kᵢ)⊗mᵢ` (paper §2.3),
    /// renormalized in the target.
    pub fn map_coeffs<K2, M>(&self, m: &M, h: &mut impl FnMut(&K) -> K2) -> Tensor<K2, E>
    where
        K2: CommutativeSemiring,
        M: CommutativeMonoid<Elem = E>,
    {
        Tensor::from_terms(m, self.terms().map(|(k, e)| (h(k), e.clone())))
    }

    /// Reads the tensor back as a monoid element through `ι⁻¹`, when sound:
    /// requires `(K, M)` compatible (Definition 3.10 via Theorems 3.12/3.13)
    /// and every coefficient ground (`kᵢ = nᵢ·1_K`). Returns
    /// `Σ_M nᵢ·mᵢ`; the empty tensor resolves to `0_M`.
    ///
    /// `None` means the tensor genuinely denotes multiple possible results
    /// (symbolic coefficients) or the pair is incompatible (`ι` not
    /// injective, e.g. `B ⊗ SUM` where `ι(2) = ι(4)`, §3.4).
    pub fn try_resolve<M>(&self, m: &M) -> Option<E>
    where
        M: CommutativeMonoid<Elem = E>,
    {
        if !compatible::<K, M>(m) {
            return None;
        }
        let mut acc = m.zero();
        for (k, e) in self.terms() {
            let n = k.as_nat()?;
            acc = m.plus(&acc, &m.nfold(n, e));
        }
        Some(acc)
    }

    /// Simplifies by merging terms with *equal coefficients*:
    /// `k⊗m₁ + k⊗m₂ ⇝ k⊗(m₁ +_M m₂)` — the identification used in
    /// Example 3.5 (`S⊗20 + S⊗30 = S⊗(20 max 30)`). Sound by the congruence;
    /// the result is re-normalized. This trades term count for possibly
    /// losing the per-element grouping, so it is exposed as an explicit
    /// operation (and benchmarked as an ablation) rather than folded into
    /// the normal form.
    pub fn merge_by_coeff<M>(&self, m: &M) -> Self
    where
        M: CommutativeMonoid<Elem = E>,
    {
        let mut by_coeff = self.as_slice().to_vec();
        sort_combine(
            &mut by_coeff,
            |(k, _)| k,
            |(_, e), rest| {
                for (_, more) in rest {
                    *e = m.plus(e, more);
                }
            },
            |_| true,
        );
        Self::from_terms(m, by_coeff)
    }
}

impl<K, E> fmt::Display for Tensor<K, E>
where
    K: CommutativeSemiring,
    E: Ord + fmt::Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_none() {
            return write!(f, "0⊗");
        }
        for (i, (k, e)) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if k.is_one() {
                write!(f, "1⊗{e}")?;
            } else {
                write!(f, "({k})⊗{e}")?;
            }
        }
        Ok(())
    }
}

/// The `K`-semimodule structure of `K ⊗ M` for a monoid instance `M`
/// (Proposition B.1).
#[derive(Clone, Copy, Debug)]
pub struct TensorModule<M>(pub M);

impl<K, M> Semimodule<K> for TensorModule<M>
where
    K: CommutativeSemiring,
    M: CommutativeMonoid,
{
    type Vector = Tensor<K, M::Elem>;

    fn zero(&self) -> Self::Vector {
        Tensor::zero()
    }

    fn add(&self, a: &Self::Vector, b: &Self::Vector) -> Self::Vector {
        a.add(b, &self.0)
    }

    fn scale(&self, k: &K, v: &Self::Vector) -> Self::Vector {
        v.scale(k, &self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Const;
    use crate::laws::check_semimodule;
    use crate::monoid::{MonoidKind, MultisetMonoid};
    use crate::poly::NatPoly;
    use crate::semiring::{Bool, Nat, Security};

    fn n(v: i64) -> Const {
        Const::int(v)
    }

    type NT = Tensor<Nat, Const>;
    type PT = Tensor<NatPoly, Const>;

    #[test]
    fn example_3_4_sum_aggregation() {
        // AGG_SUM over {20↦r1, 10↦r2, 30↦r3}: r1⊗20 + r2⊗10 + r3⊗30.
        let m = MonoidKind::Sum;
        let t = PT::from_terms(
            &m,
            [
                (NatPoly::token("r1"), n(20)),
                (NatPoly::token("r2"), n(10)),
                (NatPoly::token("r3"), n(30)),
            ],
        );
        assert_eq!(t.len(), 3);
        // Valuate r1↦1, r2↦0, r3↦2 (paper: result 80).
        let v = t.map_coeffs(&m, &mut |p| {
            crate::hom::Valuation::<Nat>::ones()
                .set("r1", Nat(1))
                .set("r2", Nat(0))
                .set("r3", Nat(2))
                .eval(p)
        });
        assert_eq!(v.try_resolve(&m), Some(n(80)));
    }

    #[test]
    fn example_3_4_deletion_propagation() {
        // Delete the first tuple (r1 ↦ 0): remaining 2⊗30 resolves to 60.
        let m = MonoidKind::Sum;
        let t = NT::from_terms(&m, [(Nat(0), n(20)), (Nat(2), n(30))]);
        assert_eq!(t.len(), 1, "zero-annotated term dropped");
        assert_eq!(t.try_resolve(&m), Some(n(60)));
    }

    #[test]
    fn example_3_5_security_max() {
        // S⊗20 + 1s⊗10 + S⊗30 over MAX; merging by coefficient gives
        // S⊗30 + 1s⊗10 (paper: S⊗(20 max 30) + 1s⊗10).
        let m = MonoidKind::Max;
        let t = Tensor::<Security, Const>::from_terms(
            &m,
            [
                (Security::Secret, n(20)),
                (Security::Public, n(10)),
                (Security::Secret, n(30)),
            ],
        );
        let merged = t.merge_by_coeff(&m);
        assert_eq!(merged.len(), 2);
        // Unresolvable while the S coefficient is symbolic for ι.
        assert_eq!(merged.try_resolve(&m), None);

        // User with credentials C: S ↦ 0, 1s ↦ 1 — result 1⊗10.
        let for_c = merged.map_coeffs(&m, &mut |s| {
            if s.visible_to(Security::Confidential) {
                Security::Public
            } else {
                Security::Never
            }
        });
        assert_eq!(for_c.try_resolve(&m), Some(n(10)));

        // User with credentials S: both visible — result 1⊗30.
        let for_s = merged.map_coeffs(&m, &mut |s| {
            if s.visible_to(Security::Secret) {
                Security::Public
            } else {
                Security::Never
            }
        });
        assert_eq!(for_s.try_resolve(&m), Some(n(30)));
    }

    #[test]
    fn normal_form_merges_equal_elements() {
        let m = MonoidKind::Sum;
        let t = NT::from_terms(&m, [(Nat(1), n(30)), (Nat(1), n(30))]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.try_resolve(&m), Some(n(60))); // (1+1)⊗30 = 2⊗30 → 60
    }

    #[test]
    fn zero_monoid_elements_are_dropped() {
        let m = MonoidKind::Sum;
        let t = NT::from_terms(&m, [(Nat(5), n(0)), (Nat(2), n(7))]);
        assert_eq!(t.len(), 1, "k⊗0_M ~ 0");
        assert_eq!(t.try_resolve(&m), Some(n(14)));
    }

    #[test]
    fn empty_tensor_resolves_to_monoid_zero() {
        let m = MonoidKind::Sum;
        assert_eq!(NT::zero().try_resolve(&m), Some(n(0)));
        assert_eq!(
            NT::zero().try_resolve(&MonoidKind::Min),
            Some(Const::Num(crate::num::Num::PosInf))
        );
    }

    #[test]
    fn bool_sum_incompatibility() {
        // §3.4: ι : SUM → B⊗SUM is not injective (ι(4) "=" ι(2)); resolution
        // must refuse.
        let m = MonoidKind::Sum;
        let t = Tensor::<Bool, Const>::from_terms(&m, [(Bool(true), n(2))]);
        assert_eq!(t.try_resolve(&m), None);
        // But B ⊗ MAX is fine (sets + MAX).
        let t = Tensor::<Bool, Const>::from_terms(
            &MonoidKind::Max,
            [(Bool(true), n(2)), (Bool(true), n(9))],
        );
        assert_eq!(t.try_resolve(&MonoidKind::Max), Some(n(9)));
    }

    #[test]
    fn symbolic_coefficients_do_not_resolve() {
        let m = MonoidKind::Sum;
        let t = PT::from_terms(&m, [(NatPoly::token("x"), n(5))]);
        assert_eq!(t.try_resolve(&m), None);
        // Ground polynomial coefficients do resolve (ℕ[X] ⊆ compatible).
        let t = PT::from_terms(&m, [(NatPoly::from_nat(3), n(5))]);
        assert_eq!(t.try_resolve(&m), Some(n(15)));
    }

    #[test]
    fn prod_resolution_uses_exponentiation() {
        let m = MonoidKind::Prod;
        let t = NT::from_terms(&m, [(Nat(3), n(2)), (Nat(1), n(5))]);
        // 2³ · 5 = 40.
        assert_eq!(t.try_resolve(&m), Some(n(40)));
    }

    #[test]
    fn tensor_is_a_semimodule() {
        let module = TensorModule(MonoidKind::Sum);
        let m = MonoidKind::Sum;
        let v1 = PT::from_terms(
            &m,
            [(NatPoly::token("x"), n(5)), (NatPoly::token("y"), n(7))],
        );
        let v2 = PT::from_terms(
            &m,
            [(NatPoly::token("x"), n(5)), (NatPoly::from_nat(2), n(1))],
        );
        for k1 in [NatPoly::zero(), NatPoly::one(), NatPoly::token("z")] {
            for k2 in [NatPoly::one(), NatPoly::token("x")] {
                check_semimodule(&module, &k1, &k2, &v1, &v2).unwrap();
            }
        }
    }

    #[test]
    fn free_monoid_normal_form_is_exact() {
        // Over the free commutative monoid no cross-element identifications
        // exist, so distinct multisets stay distinct terms.
        let m = MultisetMonoid;
        let a = std::collections::BTreeMap::from([(1u8, 1u64)]);
        let b = std::collections::BTreeMap::from([(2u8, 1u64)]);
        let t = Tensor::<Nat, _>::from_terms(&m, [(Nat(1), a.clone()), (Nat(1), b.clone())]);
        assert_eq!(t.len(), 2);
        let merged = t.merge_by_coeff(&m);
        // Equal coefficients merge into the multiset union.
        assert_eq!(merged.len(), 1);
        assert_eq!(
            merged.terms().next().unwrap().1,
            &std::collections::BTreeMap::from([(1u8, 1u64), (2, 1)])
        );
    }

    #[test]
    fn display_matches_paper_style() {
        let m = MonoidKind::Sum;
        let t = PT::from_terms(
            &m,
            [(NatPoly::token("r2"), n(10)), (NatPoly::token("r1"), n(20))],
        );
        assert_eq!(t.to_string(), "(r2)⊗10 + (r1)⊗20");
    }
}
