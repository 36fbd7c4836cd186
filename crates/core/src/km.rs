//! The extended semiring `K^M` for nested aggregation (paper §4.2).
//!
//! Comparing aggregation results (selections or joins over aggregate
//! values) cannot be decided while annotations are symbolic, and no
//! `(M,K)`-relation semantics that decides them eagerly can satisfy the
//! desiderata (Proposition 4.2). The paper's solution: enlarge the
//! annotation semiring with **symbolic equality tokens** `[a = b]` over
//! tensor values, solving the domain equation
//! `K̂ = ℕ[K ∪ {[c₁ = c₂] | c₁, c₂ ∈ K̂ ⊗ M}]` and quotienting so that `K`
//! embeds with its own operations and decidable equalities collapse to
//! `0`/`1` (axiom (*)).
//!
//! Our representation uses the isomorphism
//! `ℕ[K ∪ T]/(K-embedding) ≅ K[T]`: an element of [`Km<K>`] is a polynomial
//! with coefficients in `K` whose indeterminates are symbolic [`Atom`]s —
//! equality tokens and δ-applications (the paper's group-by construct,
//! Definition 3.6, provided freely so any `K` gains a δ-structure).
//!
//! ## Representation
//!
//! The construction exists so that `K` *embeds with its own operations*,
//! and almost every annotation lives in that image: every base row, every
//! output of a scan/filter/join pipeline, every coefficient of a
//! non-nested `SUM`. Such a **ground** element is held as `K` holds it —
//! no polynomial over atoms around it — and ground operands add, multiply
//! and `Σ` in `K` directly; only an element in which an atom occurs is a
//! [`Poly`] over [`Atom`]s, and a ground operand meeting one is lifted to
//! a constant polynomial for that operation. Every element has exactly
//! one form (ground exactly when no atom occurs, zero included; every
//! operation re-collapses, which matters over `ℤ` where symbolic terms
//! cancel), so equality and hashing are structural, and [`Ord`] is
//! *written* to be the order of the canonical term sequences of
//! [`Km::as_poly`] — the order a polynomial-only representation derives —
//! so nothing rendered or sorted depends on which form an element takes.
//! `tests/km_model_proptests.rs` pins all of it to that polynomial-only
//! model.
//!
//! Two engineering generalizations, both conservative:
//! * tokens carry the [`MonoidKind`] they compare under, so one annotation
//!   semiring serves queries mixing SUM/MIN/MAX/PROD/OR aggregates
//!   (restricting to a single kind recovers the paper's `K^M` exactly);
//! * token resolution (axiom (*)) fires eagerly whenever both sides resolve
//!   through `ι⁻¹` — which requires `(K, M)` compatibility and ground
//!   coefficients — and is therefore stable under homomorphisms.

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::{Indeterminate, NoInline, Poly};
use aggprov_algebra::semiring::{CommutativeSemiring, DeltaSemiring};
use aggprov_algebra::tensor::Tensor;
use std::cmp::Ordering;
use std::fmt;

/// A comparison predicate on monoid elements, for the paper's noted
/// extension beyond `=`: "the results can easily be extended to arbitrary
/// comparison predicates, that can be decided for elements of M" (§4,
/// Note). Only the canonical predicates are stored in atoms (`>`/`≥`
/// normalize by swapping sides).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CmpPred {
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Not equal (symmetric; sides stored in canonical order).
    Ne,
}

impl CmpPred {
    /// Decides the predicate on resolved monoid elements (the total order
    /// on the constant domain).
    pub fn decide(&self, a: &Const, b: &Const) -> bool {
        match self {
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Ne => a != b,
        }
    }
}

impl std::fmt::Display for CmpPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}",
            match self {
                CmpPred::Lt => "<",
                CmpPred::Le => "≤",
                CmpPred::Ne => "≠",
            }
        )
    }
}

/// A symbolic indeterminate of the extended semiring.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom<K: CommutativeSemiring> {
    /// An equality token `[a = b]` between tensor values, each tagged with
    /// its monoid (mixed kinds arise from the multi-monoid generalization;
    /// the paper's `K^M` always has both sides under the same `M`). The
    /// pair is stored in canonical order.
    Eq(
        (MonoidKind, Tensor<Km<K>, Const>),
        (MonoidKind, Tensor<Km<K>, Const>),
    ),
    /// An order/inequality token `[a ⋈ b]` (paper's comparison-predicate
    /// extension). Unlike `Eq`, the sides are ordered (except `≠`, which is
    /// canonicalized).
    Cmp(
        CmpPred,
        (MonoidKind, Tensor<Km<K>, Const>),
        (MonoidKind, Tensor<Km<K>, Const>),
    ),
    /// A δ-application `δ(e)` (Definition 3.6) kept symbolic.
    Delta(Km<K>),
}

/// A polynomial over atoms holds every term in shared storage: an atom
/// holds polynomials itself, so no term of one fits inside a polynomial.
impl<K: CommutativeSemiring> Indeterminate for Atom<K> {
    type Inline<C> = NoInline;
}

/// An element of the extended semiring `K^M`: a polynomial over symbolic
/// [`Atom`]s with coefficients in `K` — held as the `K` element itself
/// when no atom occurs (see the module docs).
///
/// ```
/// use aggprov_algebra::domain::Const;
/// use aggprov_algebra::hom::Valuation;
/// use aggprov_algebra::monoid::MonoidKind;
/// use aggprov_algebra::poly::NatPoly;
/// use aggprov_algebra::semiring::{CommutativeSemiring, Nat};
/// use aggprov_algebra::tensor::Tensor;
/// use aggprov_core::km::Km;
///
/// // Example 4.3's token: [r1⊗20 + r2⊗10 =SUM= 1⊗20], symbolic until the
/// // tokens are valuated, then resolved non-monotonically.
/// type P = Km<NatPoly>;
/// let sum = MonoidKind::Sum;
/// let lhs = Tensor::<P, Const>::from_terms(
///     &sum,
///     [
///         (Km::embed(NatPoly::token("r1")), Const::int(20)),
///         (Km::embed(NatPoly::token("r2")), Const::int(10)),
///     ],
/// );
/// let token = P::eq_token(sum, &lhs, &Tensor::iota(&sum, Const::int(20)));
/// assert!(token.try_collapse().is_none());
/// let at = |r1, r2| {
///     let v = Valuation::<Nat>::ones().set("r1", Nat(r1)).set("r2", Nat(r2));
///     token.map_hom(&|p| v.eval(p)).try_collapse().unwrap()
/// };
/// assert_eq!(at(1, 0), Nat(1)); // 20 = 20
/// assert_eq!(at(1, 1), Nat(0)); // 30 ≠ 20 — adding data removed the tuple
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Km<K: CommutativeSemiring>(Repr<K>);

/// How a [`Km`] is held. Every element has exactly one form — `Ground`
/// exactly when no atom occurs, zero included — so the derived equality
/// and hash are the element's.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Repr<K: CommutativeSemiring> {
    /// An element of the image of `K`, held as `K` holds it.
    Ground(K),
    /// A polynomial in which at least one atom occurs.
    Symbolic(Poly<Atom<K>, K>),
}

impl<K: CommutativeSemiring> PartialOrd for Km<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: CommutativeSemiring> Ord for Km<K> {
    /// The order of the canonical term sequences of [`Km::as_poly`]
    /// (lexicographic, as [`Poly`] compares), without building them: a
    /// ground `a` is the sequence `[(1, a)]` — empty for zero, so zero is
    /// below everything — and a symbolic polynomial's constant term, if it
    /// has one, comes first because the unit monomial is the least; past
    /// it the ground side is the shorter sequence.
    fn cmp(&self, other: &Self) -> Ordering {
        let against = |a: &K, p: &Poly<Atom<K>, K>| match p.terms().next() {
            Some((m, c)) if m.is_unit() && !a.is_zero() => a.cmp(c).then(Ordering::Less),
            _ => Ordering::Less,
        };
        match (&self.0, &other.0) {
            (Repr::Ground(a), Repr::Ground(b)) => match (a.is_zero(), b.is_zero()) {
                (false, false) => a.cmp(b),
                (a_zero, b_zero) => b_zero.cmp(&a_zero),
            },
            (Repr::Ground(a), Repr::Symbolic(p)) => against(a, p),
            (Repr::Symbolic(p), Repr::Ground(a)) => against(a, p).reverse(),
            (Repr::Symbolic(p), Repr::Symbolic(q)) => p.cmp(q),
        }
    }
}

impl<K: CommutativeSemiring> Km<K> {
    /// Embeds a base annotation `k ∈ K`.
    pub fn embed(k: K) -> Self {
        Km(Repr::Ground(k))
    }

    /// The embedded value, if this element lies in the image of `K`
    /// (no symbolic atoms) — Proposition 4.4's collapse.
    pub fn try_collapse(&self) -> Option<K> {
        match &self.0 {
            Repr::Ground(k) => Some(k.clone()),
            Repr::Symbolic(_) => None,
        }
    }

    /// `δ(e)`, normalized by the δ-laws: `δ(0) = 0`; constants with a native
    /// δ use it; ground naturals use `δ(n·1) = 1` (`n ≥ 1`); anything else
    /// stays a symbolic atom.
    pub fn delta(&self) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        if let Repr::Ground(c) = &self.0 {
            if let Some(d) = c.native_delta() {
                return Km::embed(d);
            }
            if let Some(n) = c.as_nat() {
                return if n == 0 { Self::zero() } else { Self::one() };
            }
        }
        Km::atom(Atom::Delta(self.clone()))
    }

    /// The equality token `[lhs = rhs]` under `kind`, normalized by
    /// axiom (*): structurally equal sides give `1`; sides that both
    /// resolve through `ι⁻¹` (compatible pair, ground coefficients) compare
    /// in `M`; otherwise the token stays symbolic.
    pub fn eq_token(
        kind: MonoidKind,
        lhs: &Tensor<Km<K>, Const>,
        rhs: &Tensor<Km<K>, Const>,
    ) -> Self {
        Self::eq_token_mixed(kind, lhs, kind, rhs)
    }

    /// The general form of [`Km::eq_token`] comparing tensors of possibly
    /// different monoid kinds (each side resolves under its own monoid).
    pub fn eq_token_mixed(
        lk: MonoidKind,
        lhs: &Tensor<Km<K>, Const>,
        rk: MonoidKind,
        rhs: &Tensor<Km<K>, Const>,
    ) -> Self {
        if lk == rk && lhs == rhs {
            return Self::one();
        }
        if let (Some(a), Some(b)) = (lhs.try_resolve(&lk), rhs.try_resolve(&rk)) {
            return if a == b { Self::one() } else { Self::zero() };
        }
        let left = (lk, lhs.clone());
        let right = (rk, rhs.clone());
        let (a, b) = if left <= right {
            (left, right)
        } else {
            (right, left)
        };
        Km::atom(Atom::Eq(a, b))
    }

    /// The comparison token `[lhs ⋈ rhs]` for an arbitrary decidable
    /// predicate on `M` (the paper's §4 extension note): resolvable sides
    /// decide eagerly; otherwise the token stays symbolic. `pred` is one of
    /// the canonical predicates; `>`/`≥` callers swap sides first.
    pub fn cmp_token(
        pred: CmpPred,
        lk: MonoidKind,
        lhs: &Tensor<Km<K>, Const>,
        rk: MonoidKind,
        rhs: &Tensor<Km<K>, Const>,
    ) -> Self {
        if lk == rk && lhs == rhs {
            // Reflexivity decides two of the predicates outright.
            return match pred {
                CmpPred::Le => Self::one(),
                CmpPred::Lt | CmpPred::Ne => Self::zero(),
            };
        }
        if let (Some(a), Some(b)) = (lhs.try_resolve(&lk), rhs.try_resolve(&rk)) {
            return if pred.decide(&a, &b) {
                Self::one()
            } else {
                Self::zero()
            };
        }
        let left = (lk, lhs.clone());
        let right = (rk, rhs.clone());
        let (a, b) = if pred == CmpPred::Ne && right < left {
            (right, left) // ≠ is symmetric: canonical order.
        } else {
            (left, right)
        };
        Km::atom(Atom::Cmp(pred, a, b))
    }

    /// Applies a homomorphism `h : K → K'` recursively (the lifting
    /// `h^M : K^M → K'^M` of paper §4.2), re-normalizing so that
    /// newly-decidable tokens and δ-applications resolve.
    pub fn map_hom<K2: CommutativeSemiring>(&self, h: &impl Fn(&K) -> K2) -> Km<K2> {
        let p = match &self.0 {
            Repr::Ground(k) if k.is_zero() => return Km::zero(),
            Repr::Ground(k) => return Km::embed(h(k)),
            Repr::Symbolic(p) => p,
        };
        p.eval(
            &mut |atom| match atom {
                Atom::Delta(e) => e.map_hom(h).delta(),
                Atom::Cmp(pred, (lk, a), (rk, b)) => {
                    let a2 = a.map_coeffs(lk, &mut |km| km.map_hom(h));
                    let b2 = b.map_coeffs(rk, &mut |km| km.map_hom(h));
                    Km::cmp_token(*pred, *lk, &a2, *rk, &b2)
                }
                Atom::Eq((lk, a), (rk, b)) => {
                    let a2 = a.map_coeffs(lk, &mut |km| km.map_hom(h));
                    let b2 = b.map_coeffs(rk, &mut |km| km.map_hom(h));
                    Km::eq_token_mixed(*lk, &a2, *rk, &b2)
                }
            },
            &mut |c| Km::embed(h(c)),
        )
    }

    /// True iff `pred` holds for some base-semiring element this annotation
    /// is built from: a coefficient, or — recursively — a coefficient under
    /// a δ-application or inside a comparison token's tensors. A
    /// homomorphism that fixes every element `pred` rejects fixes the
    /// whole annotation.
    pub fn any_base(&self, pred: &impl Fn(&K) -> bool) -> bool {
        let in_tensor = |t: &Tensor<Km<K>, Const>| t.terms().any(|(k, _)| k.any_base(pred));
        let p = match &self.0 {
            Repr::Ground(k) => return !k.is_zero() && pred(k),
            Repr::Symbolic(p) => p,
        };
        p.terms().any(|(m, c)| {
            pred(c)
                || m.iter().any(|(atom, _)| match atom {
                    Atom::Delta(e) => e.any_base(pred),
                    Atom::Eq((_, a), (_, b)) | Atom::Cmp(_, (_, a), (_, b)) => {
                        in_tensor(a) || in_tensor(b)
                    }
                })
        })
    }

    /// The number of symbolic atoms (recursively) plus polynomial size — a
    /// representation-size measure for the overhead experiments.
    pub fn size(&self) -> usize {
        let Repr::Symbolic(p) = &self.0 else {
            return 1;
        };
        let mut n = p.size();
        for (m, _) in p.terms() {
            for (atom, _) in m.iter() {
                n += match atom {
                    Atom::Delta(e) => e.size(),
                    Atom::Eq((_, a), (_, b)) | Atom::Cmp(_, (_, a), (_, b)) => {
                        let t = |t: &Tensor<Km<K>, Const>| -> usize {
                            t.terms().map(|(k, _)| 1 + k.size()).sum::<usize>()
                        };
                        t(a) + t(b)
                    }
                };
            }
        }
        n
    }

    /// This element as a polynomial over atoms: shared storage for a
    /// symbolic element, a freshly built constant polynomial for a ground
    /// one.
    pub fn as_poly(&self) -> Poly<Atom<K>, K> {
        match &self.0 {
            Repr::Ground(k) => Poly::constant(k.clone()),
            Repr::Symbolic(p) => p.clone(),
        }
    }

    /// The element a polynomial over atoms denotes: ground when it is a
    /// constant (which sums and products of symbolic operands can be —
    /// over `ℤ` terms cancel).
    pub fn from_poly(p: Poly<Atom<K>, K>) -> Self {
        match p.as_constant() {
            Some(k) => Km(Repr::Ground(k)),
            None => Km(Repr::Symbolic(p)),
        }
    }

    /// Convenience: a single symbolic atom.
    pub fn atom(a: Atom<K>) -> Self {
        Km(Repr::Symbolic(Poly::var(a)))
    }
}

impl<K: CommutativeSemiring> CommutativeSemiring for Km<K> {
    fn zero() -> Self {
        Km::embed(K::zero())
    }
    fn one() -> Self {
        Km::embed(K::one())
    }
    /// Ground operands add in `K`; otherwise the ground side, if any, is
    /// lifted to a constant polynomial.
    fn plus(&self, other: &Self) -> Self {
        match (&self.0, &other.0) {
            (Repr::Ground(a), Repr::Ground(b)) => Km::embed(a.plus(b)),
            _ if self.is_zero() => other.clone(),
            _ if other.is_zero() => self.clone(),
            _ => Km::from_poly(self.as_poly().plus(&other.as_poly())),
        }
    }
    /// Ground operands multiply in `K`; otherwise the ground side, if any,
    /// is lifted to a constant polynomial.
    fn times(&self, other: &Self) -> Self {
        match (&self.0, &other.0) {
            (Repr::Ground(a), Repr::Ground(b)) => Km::embed(a.times(b)),
            _ if self.is_one() => other.clone(),
            _ if other.is_one() => self.clone(),
            _ => Km::from_poly(self.as_poly().times(&other.as_poly())),
        }
    }
    /// The ground operands are summed in `K` (an all-ground `Σ` never
    /// builds a polynomial over atoms) and join the symbolic ones as one
    /// constant.
    fn sum(items: Vec<Self>) -> Self {
        let mut ground = Vec::with_capacity(items.len());
        let mut symbolic = Vec::new();
        for Km(item) in items {
            match item {
                Repr::Ground(k) => ground.push(k),
                Repr::Symbolic(p) => symbolic.push(p),
            }
        }
        let ground = K::sum(ground);
        if symbolic.is_empty() {
            return Km::embed(ground);
        }
        symbolic.push(Poly::constant(ground));
        Km::from_poly(Poly::sum(symbolic))
    }
    fn is_zero(&self) -> bool {
        matches!(&self.0, Repr::Ground(k) if k.is_zero())
    }
    fn is_one(&self) -> bool {
        matches!(&self.0, Repr::Ground(k) if k.is_one())
    }
    const PLUS_IDEMPOTENT: bool = K::PLUS_IDEMPOTENT;
    const POSITIVE: bool = K::POSITIVE;
    // Atoms can always be mapped to 1 and coefficients through K's
    // homomorphism, so existence transfers from K.
    const HAS_HOM_TO_NAT: bool = K::HAS_HOM_TO_NAT;
    fn as_nat(&self) -> Option<u64> {
        match &self.0 {
            Repr::Ground(k) => k.as_nat(),
            Repr::Symbolic(_) => None,
        }
    }
    fn from_nat(n: u64) -> Self {
        Km::embed(K::from_nat(n))
    }
    fn native_delta(&self) -> Option<Self> {
        Some(self.delta())
    }
    fn idem_normal(&self) -> Self {
        match &self.0 {
            Repr::Ground(k) => Km::embed(k.idem_normal()),
            Repr::Symbolic(p) => Km::from_poly(p.idem_normal()),
        }
    }
}

impl<K: CommutativeSemiring> DeltaSemiring for Km<K> {
    fn delta(&self) -> Self {
        Km::delta(self)
    }
}

impl<K: CommutativeSemiring> fmt::Display for Km<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Ground(k) if k.is_zero() => write!(f, "0"),
            Repr::Ground(k) => write!(f, "{k}"),
            Repr::Symbolic(p) => write!(f, "{p}"),
        }
    }
}

impl<K: CommutativeSemiring> fmt::Display for Atom<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Delta(e) => write!(f, "δ({e})"),
            Atom::Eq((lk, a), (rk, b)) => {
                if lk == rk {
                    write!(f, "[{a} ={lk}= {b}]")
                } else {
                    write!(f, "[{lk}⟨{a}⟩ = {rk}⟨{b}⟩]")
                }
            }
            Atom::Cmp(pred, (lk, a), (rk, b)) => {
                if lk == rk {
                    write!(f, "[{a} {pred}{lk}{pred} {b}]")
                } else {
                    write!(f, "[{lk}⟨{a}⟩ {pred} {rk}⟨{b}⟩]")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_algebra::hom::Valuation;
    use aggprov_algebra::poly::NatPoly;
    use aggprov_algebra::semiring::{Bool, Nat, Security};

    type P = Km<NatPoly>;

    fn tok(name: &str) -> P {
        Km::embed(NatPoly::token(name))
    }

    fn t(pairs: &[(P, i64)]) -> Tensor<P, Const> {
        Tensor::from_terms(
            &MonoidKind::Sum,
            pairs.iter().map(|(k, v)| (k.clone(), Const::int(*v))),
        )
    }

    #[test]
    fn k_embeds_with_its_operations() {
        // k1 + k2 and k1 · k2 computed in K^M agree with K (§4.2 axioms).
        let (a, b) = (tok("x"), tok("y"));
        assert_eq!(
            a.plus(&b).try_collapse().unwrap(),
            NatPoly::token("x").plus(&NatPoly::token("y"))
        );
        assert_eq!(
            a.times(&b).try_collapse().unwrap(),
            NatPoly::token("x").times(&NatPoly::token("y"))
        );
        assert!(P::zero().try_collapse().unwrap().is_zero());
        assert!(P::one().try_collapse().unwrap().is_one());
    }

    #[test]
    fn delta_laws_normalize() {
        assert!(P::zero().delta().is_zero());
        assert!(P::from_nat(3).delta().is_one());
        // δ(x) stays symbolic over ℕ[X]…
        let d = tok("x").delta();
        assert!(d.try_collapse().is_none());
        assert_eq!(d.to_string(), "δ(x)");
        // …but resolves once x is valuated.
        let resolved = d.map_hom(&|p| Valuation::<Nat>::ones().set("x", Nat(2)).eval(p));
        assert!(resolved.try_collapse().unwrap().is_one());
        let gone = d.map_hom(&|p| Valuation::<Nat>::ones().set("x", Nat(0)).eval(p));
        assert!(gone.try_collapse().unwrap().is_zero());
    }

    #[test]
    fn delta_uses_native_delta_of_concrete_semirings() {
        // In Km<Security>, δ collapses through the identity δ_S.
        let s = Km::<Security>::embed(Security::Secret);
        assert_eq!(s.delta().try_collapse(), Some(Security::Secret));
    }

    #[test]
    fn eq_token_resolves_ground_sides() {
        // [1⊗20 = 1⊗20] = 1; [1⊗20 = 1⊗10] = 0.
        let a = t(&[(P::one(), 20)]);
        let b = t(&[(P::one(), 10)]);
        assert!(P::eq_token(MonoidKind::Sum, &a, &a).is_one());
        assert!(P::eq_token(MonoidKind::Sum, &a, &b).is_zero());
        // Congruent-but-distinct ground forms also resolve: 2⊗10 = 1⊗20.
        let two_tens = t(&[(P::from_nat(2), 10)]);
        assert!(P::eq_token(MonoidKind::Sum, &a, &two_tens).is_one());
    }

    #[test]
    fn eq_token_stays_symbolic_then_resolves_under_hom() {
        // Example 4.3's token: [r1⊗20 + r2⊗10 = 1⊗20].
        let lhs = t(&[(tok("r1"), 20), (tok("r2"), 10)]);
        let rhs = t(&[(P::one(), 20)]);
        let token = P::eq_token(MonoidKind::Sum, &lhs, &rhs);
        assert!(token.try_collapse().is_none());

        // r1 ↦ 1, r2 ↦ 0: 20 = 20, token becomes 1 (tuple survives).
        let yes = token.map_hom(&|p| {
            Valuation::<Nat>::ones()
                .set("r1", Nat(1))
                .set("r2", Nat(0))
                .eval(p)
        });
        assert!(yes.try_collapse().unwrap().is_one());

        // r1 ↦ 1, r2 ↦ 1: 30 ≠ 20, token becomes 0 — the non-monotone
        // behaviour of Example 4.1.
        let no = token.map_hom(&|p| {
            Valuation::<Nat>::ones()
                .set("r1", Nat(1))
                .set("r2", Nat(1))
                .eval(p)
        });
        assert!(no.try_collapse().unwrap().is_zero());
    }

    #[test]
    fn token_ordering_is_canonical() {
        let a = t(&[(tok("r1"), 20)]);
        let b = t(&[(tok("r2"), 10)]);
        assert_eq!(
            P::eq_token(MonoidKind::Sum, &a, &b),
            P::eq_token(MonoidKind::Sum, &b, &a)
        );
    }

    #[test]
    fn prop_4_4_collapse_for_compatible_pairs() {
        // Over K = ℕ (ι iso for every monoid), K^M collapses to K: any
        // expression built from ground pieces has no surviving atoms.
        let lhs = Tensor::<Km<Nat>, Const>::from_terms(
            &MonoidKind::Sum,
            [(Km::embed(Nat(2)), Const::int(10))],
        );
        let rhs = Tensor::<Km<Nat>, Const>::from_terms(
            &MonoidKind::Sum,
            [(Km::embed(Nat(1)), Const::int(20))],
        );
        let token = Km::<Nat>::eq_token(MonoidKind::Sum, &lhs, &rhs);
        assert_eq!(token.try_collapse(), Some(Nat(1)));
        let d = Km::<Nat>::embed(Nat(5)).delta();
        assert_eq!(d.try_collapse(), Some(Nat(1)));
    }

    #[test]
    fn incompatible_pairs_stay_symbolic() {
        // Km<Bool> with SUM: ι is not injective, axiom (*) does not apply,
        // the token must survive.
        let lhs = Tensor::<Km<Bool>, Const>::from_terms(
            &MonoidKind::Sum,
            [(Km::embed(Bool(true)), Const::int(2))],
        );
        let rhs = Tensor::<Km<Bool>, Const>::from_terms(
            &MonoidKind::Sum,
            [(Km::embed(Bool(true)), Const::int(4))],
        );
        let token = Km::<Bool>::eq_token(MonoidKind::Sum, &lhs, &rhs);
        assert!(token.try_collapse().is_none());
        // With MAX (idempotent) the same shapes resolve fine.
        let lhs = Tensor::<Km<Bool>, Const>::from_terms(
            &MonoidKind::Max,
            [(Km::embed(Bool(true)), Const::int(2))],
        );
        let rhs = Tensor::<Km<Bool>, Const>::from_terms(
            &MonoidKind::Max,
            [(Km::embed(Bool(true)), Const::int(4))],
        );
        assert!(Km::<Bool>::eq_token(MonoidKind::Max, &lhs, &rhs).is_zero());
    }

    #[test]
    fn value_eq_token_cases() {
        use crate::annotation::AggAnnotation;
        use crate::value::Value;
        let c20: Value<P> = Value::int(20);
        let c10: Value<P> = Value::int(10);
        assert!(P::value_eq(&c20, &c20).unwrap().is_one());
        assert!(P::value_eq(&c20, &c10).unwrap().is_zero());
        // Constant vs aggregate embeds through ι.
        let agg = Value::Agg(MonoidKind::Sum, t(&[(tok("r1"), 20)]));
        let token = P::value_eq(&c20, &agg).unwrap();
        assert!(token.try_collapse().is_none());
        // Strings never equal numeric aggregates.
        let s: Value<P> = Value::str("d1");
        assert!(P::value_eq(&s, &agg).unwrap().is_zero());
    }

    #[test]
    fn nested_tokens_inside_tokens() {
        // Example 4.5 shape: an annotation multiplying δ and a token, used
        // as a tensor coefficient inside a further token.
        let inner = P::eq_token(
            MonoidKind::Sum,
            &t(&[(tok("r1"), 20), (tok("r2"), 10)]),
            &t(&[(P::one(), 20)]),
        );
        let coeff = tok("r1").plus(&tok("r2")).delta().times(&inner);
        let outer_lhs = t(&[(coeff, 40)]);
        let outer = P::eq_token(MonoidKind::Sum, &outer_lhs, &t(&[(P::one(), 40)]));
        assert!(outer.try_collapse().is_none());
        // Full valuation collapses everything (r1=1, r2=0: inner token 1,
        // δ(1)=1, coeff=1, 1⊗40 = 1⊗40 → 1).
        let v = outer.map_hom(&|p| {
            Valuation::<Nat>::ones()
                .set("r1", Nat(1))
                .set("r2", Nat(0))
                .eval(p)
        });
        assert_eq!(v.try_collapse(), Some(Nat(1)));
    }

    #[test]
    fn cmp_tokens_resolve_and_normalize() {
        use super::CmpPred;
        let twenty = t(&[(P::one(), 20)]);
        let thirty = t(&[(P::one(), 30)]);
        // Ground sides decide eagerly.
        assert!(P::cmp_token(
            CmpPred::Lt,
            MonoidKind::Sum,
            &twenty,
            MonoidKind::Sum,
            &thirty
        )
        .is_one());
        assert!(P::cmp_token(
            CmpPred::Lt,
            MonoidKind::Sum,
            &thirty,
            MonoidKind::Sum,
            &twenty
        )
        .is_zero());
        assert!(P::cmp_token(
            CmpPred::Ne,
            MonoidKind::Sum,
            &twenty,
            MonoidKind::Sum,
            &thirty
        )
        .is_one());
        // Reflexivity on structurally equal symbolic sides.
        let sym = t(&[(tok("x"), 20)]);
        assert!(P::cmp_token(CmpPred::Le, MonoidKind::Sum, &sym, MonoidKind::Sum, &sym).is_one());
        assert!(P::cmp_token(CmpPred::Lt, MonoidKind::Sum, &sym, MonoidKind::Sum, &sym).is_zero());
        assert!(P::cmp_token(CmpPred::Ne, MonoidKind::Sum, &sym, MonoidKind::Sum, &sym).is_zero());
        // ≠ is symmetric: canonical ordering.
        let other = t(&[(tok("y"), 10)]);
        assert_eq!(
            P::cmp_token(CmpPred::Ne, MonoidKind::Sum, &sym, MonoidKind::Sum, &other),
            P::cmp_token(CmpPred::Ne, MonoidKind::Sum, &other, MonoidKind::Sum, &sym),
        );
        // < is NOT symmetric.
        assert_ne!(
            P::cmp_token(CmpPred::Lt, MonoidKind::Sum, &sym, MonoidKind::Sum, &other),
            P::cmp_token(CmpPred::Lt, MonoidKind::Sum, &other, MonoidKind::Sum, &sym),
        );
    }

    #[test]
    fn cmp_tokens_resolve_under_homomorphisms() {
        use super::CmpPred;
        // [x⊗20 + y⊗10 < 1⊗25] over SUM.
        let lhs = t(&[(tok("x"), 20), (tok("y"), 10)]);
        let rhs = t(&[(P::one(), 25)]);
        let token = P::cmp_token(CmpPred::Lt, MonoidKind::Sum, &lhs, MonoidKind::Sum, &rhs);
        assert!(token.try_collapse().is_none());
        let at = |x: u64, y: u64| {
            token
                .map_hom(&|p| {
                    Valuation::<Nat>::ones()
                        .set("x", Nat(x))
                        .set("y", Nat(y))
                        .eval(p)
                })
                .try_collapse()
                .unwrap()
        };
        assert_eq!(at(1, 0), Nat(1), "20 < 25");
        assert_eq!(at(1, 1), Nat(0), "30 ≥ 25");
        assert_eq!(at(0, 2), Nat(1), "20 < 25");
    }

    #[test]
    fn any_base_reaches_coefficients_deltas_and_token_tensors() {
        let mentions = |name: &'static str| move |p: &NatPoly| p.vars().any(|v| v.name() == name);
        let token = P::eq_token(
            MonoidKind::Sum,
            &t(&[(tok("r1"), 20), (tok("r2"), 10)]),
            &t(&[(P::one(), 20)]),
        );
        let k = tok("a").plus(&tok("b").delta().times(&token));
        for name in ["a", "b", "r1", "r2"] {
            assert!(k.any_base(&mentions(name)), "{name} occurs in {k}");
        }
        assert!(!k.any_base(&mentions("c")));
        assert!(!P::zero().any_base(&|_| true));
    }

    #[test]
    fn size_counts_nested_structure() {
        let token = P::eq_token(
            MonoidKind::Sum,
            &t(&[(tok("r1"), 20), (tok("r2"), 10)]),
            &t(&[(P::one(), 20)]),
        );
        assert!(token.size() >= 5);
    }
}
