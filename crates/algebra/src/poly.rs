//! Polynomial semirings, in particular the provenance polynomials `ℕ[X]`.
//!
//! `ℕ[X]` is the commutative semiring *freely generated* by the provenance
//! tokens `X` (paper §2.1): any valuation `X → K` extends uniquely to a
//! semiring homomorphism `ℕ[X] → K`, so every semiring-annotation semantics
//! factors through the provenance-polynomial semantics. This module
//! implements polynomials generically over the indeterminate type `A` and
//! the coefficient semiring `C`:
//!
//! * [`NatPoly`] `= Poly<Var, Nat>` is `ℕ[X]`;
//! * [`BoolPoly`] `= Poly<Var, Bool>` is `B[X]` of the provenance hierarchy;
//! * the extended semiring `K^M` of paper §4 is `Poly<Atom<K>, K>` — a
//!   polynomial whose indeterminates are symbolic equality tokens and
//!   δ-applications (see `aggprov-core`).
//!
//! ## Representation
//!
//! A polynomial is one **canonical flat term sequence** — sorted by
//! monomial, monomials unique, no zero coefficient — held in one of three
//! forms, chosen from the value alone: the zero polynomial holds nothing;
//! one term of degree ≤ 1 (a base row's token `1·p`, a constant such as
//! `1`, a scaled token `c·x`) is held **inline**, in the `Poly` itself;
//! anything else lives in shared immutable storage
//! (`Arc<[(Monomial, C)]>`). Every tuple and every aggregate value carries
//! one, and the paper gives every base tuple a token of its own, so the
//! cheap operations are the frequent ones: a base token costs no heap
//! block, `clone` never allocates (a copy of the inline term, or a
//! reference-count bump), `plus` is a two-pointer merge, and everything
//! that can produce unordered or repeated monomials (`times`,
//! `from_terms`, `map_vars`, …) goes through the one `sort_combine`
//! normalization. Every form lends its terms as one slice, in the order an
//! ordered map keyed by monomial iterates in, so `Ord`, `Hash`, `Display`
//! and [`Poly::terms`] do not depend on the form or on how a polynomial
//! was computed. Only polynomials over [`Var`] hold a term inline (the
//! [`Indeterminate`] trait says which): the atoms of `K^M` hold
//! polynomials themselves, and their polynomials stay a pointer wide.
//!
//! A [`Monomial`] lives *inside* its term: no pair is nothing, one token at
//! exponent 1 (a base row's token — nearly every monomial there is) is
//! stored inline, and anything else takes a boxed slice. A [`Var`]'s name
//! of at most 7 bytes lives inline too (`crate::name`), so
//! `NatPoly::token("p42")` allocates nothing, and a longer name adds its
//! own shared block. Cloning a term of degree ≤ 1 — all a `Σ`, `plus` or
//! `drop_vars` over base tokens does per surviving term — allocates
//! nothing, and over an inline name touches no reference count. A
//! monomial compares, hashes and iterates as its sorted pair sequence
//! whichever layout holds it, so no order anywhere depends on the layout.
//! `docs/ARCHITECTURE.md` ("Annotation representation") has the cost table.

use crate::name::Name;
use crate::semiring::{Bool, CommutativeSemiring, Nat};
use sealed::InlineTerm as _;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The one normalization behind every canonical form in this crate:
/// stable-sorts `items` by `key`, folds each run of equal keys into its
/// first item — `combine` receives that item and the rest of the run (one
/// or more items, in input order), once per run, so a fold that can take a
/// whole run at a time (a k-way [`CommutativeSemiring::sum`]) costs O(run),
/// not the O(run²) of folding pair by pair — then drops the items `keep`
/// rejects.
pub(crate) fn sort_combine<T, Q: Ord + ?Sized>(
    items: &mut Vec<T>,
    key: impl Fn(&T) -> &Q,
    mut combine: impl FnMut(&mut T, &[T]),
    keep: impl FnMut(&T) -> bool,
) {
    items.sort_by(|a, b| key(a).cmp(key(b)));
    // `items[..kept]` holds the folded runs so far; the run being folded
    // is `items[start]` and the `repeats` items after it.
    let (mut kept, mut start) = (0, 0);
    while start < items.len() {
        let repeats = items[start + 1..]
            .iter()
            .take_while(|item| key(item) == key(&items[start]))
            .count();
        if repeats > 0 {
            let (first, rest) = items[start..].split_at_mut(1);
            combine(&mut first[0], &rest[..repeats]);
        }
        items.swap(kept, start);
        kept += 1;
        start += 1 + repeats;
    }
    items.truncate(kept);
    items.retain(keep);
}

/// `Σ` over one run handed to a [`sort_combine`] fold: the first item's
/// value and the rest's, in input order, through the k-way
/// [`CommutativeSemiring::sum`].
pub(crate) fn sum_run<'a, K: CommutativeSemiring>(
    first: &'a K,
    rest: impl Iterator<Item = &'a K>,
) -> K {
    K::sum(std::iter::once(first).chain(rest).cloned().collect())
}

/// A provenance token ("indeterminate"), e.g. a tuple identifier. Its
/// [`Name`] is held inline when at most 7 bytes long, so a token like
/// `p99999` costs no heap block of its own; order, equality and hash are
/// the name's string's.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Name);

impl Var {
    /// Creates a token with the given name.
    pub fn new(name: &str) -> Self {
        Var(Name::new(name))
    }

    /// The token's name.
    pub fn name(&self) -> &str {
        self.0.as_str()
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Var {
        Var::new(s)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A monomial: a finite product of indeterminates with positive integer
/// exponents, kept sorted. The empty monomial is `1`.
///
/// One indeterminate at exponent 1 is held inline, anything else — two or
/// more pairs, or one at a higher exponent — in a boxed slice (the module
/// docs say why); equality, order and hash are those of the pair sequence
/// [`Monomial::iter`] walks, whichever layout holds it.
#[derive(Clone)]
pub struct Monomial<A: Ord>(Pairs<A>);

/// The (indeterminate, exponent) pairs of a [`Monomial`], by layout.
#[derive(Clone)]
enum Pairs<A> {
    /// The unit monomial.
    Unit,
    /// One indeterminate at exponent 1, inline.
    Gen(A),
    /// Two or more pairs sorted by indeterminate, or one at exponent > 1.
    Many(Box<[(A, u32)]>),
}

impl<A: Ord> Monomial<A> {
    /// Wraps pairs that already are sorted, unique and of positive
    /// exponent.
    fn from_sorted(mut pairs: Vec<(A, u32)>) -> Self {
        Monomial(match pairs.as_slice() {
            [] => Pairs::Unit,
            [(_, 1)] => pairs.pop().map_or(Pairs::Unit, |(a, _)| Pairs::Gen(a)),
            _ => Pairs::Many(pairs.into_boxed_slice()),
        })
    }

    /// The number of distinct indeterminates.
    pub fn len(&self) -> usize {
        match &self.0 {
            Pairs::Unit => 0,
            Pairs::Gen(_) => 1,
            Pairs::Many(pairs) => pairs.len(),
        }
    }

    /// True iff the monomial has no indeterminates (is the unit).
    pub fn is_empty(&self) -> bool {
        self.is_unit()
    }

    /// True iff this is the unit monomial.
    pub fn is_unit(&self) -> bool {
        matches!(self.0, Pairs::Unit)
    }

    /// Iterates over (indeterminate, exponent) pairs, in indeterminate
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&A, u32)> {
        let (single, many): (Option<&A>, &[(A, u32)]) = match &self.0 {
            Pairs::Unit => (None, &[]),
            Pairs::Gen(a) => (Some(a), &[]),
            Pairs::Many(pairs) => (None, pairs),
        };
        let single = single.map(|a| (a, 1));
        single.into_iter().chain(many.iter().map(|(a, e)| (a, *e)))
    }
}

impl<A: Ord> PartialEq for Monomial<A> {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Pairs::Gen(a), Pairs::Gen(b)) => a == b,
            _ => self.iter().eq(other.iter()),
        }
    }
}

impl<A: Ord> Eq for Monomial<A> {}

impl<A: Ord> PartialOrd for Monomial<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<A: Ord> Ord for Monomial<A> {
    /// Lexicographic over the sorted pair sequence.
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Pairs::Gen(a), Pairs::Gen(b)) => a.cmp(b),
            _ => self.iter().cmp(other.iter()),
        }
    }
}

impl<A: Ord + Hash> Hash for Monomial<A> {
    /// What hashing the pair sequence as a slice feeds the hasher: its
    /// length, then each pair.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for pair in self.iter() {
            pair.hash(state);
        }
    }
}

impl<A: Ord + fmt::Debug> fmt::Debug for Monomial<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pairs: Vec<_> = self.iter().collect();
        f.debug_tuple("Monomial").field(&pairs).finish()
    }
}

impl<A: Ord + Clone> Monomial<A> {
    /// The unit monomial `1`.
    pub fn unit() -> Self {
        Monomial(Pairs::Unit)
    }

    /// The monomial consisting of one indeterminate.
    pub fn var(a: A) -> Self {
        Monomial(Pairs::Gen(a))
    }

    /// Builds a monomial from (indeterminate, exponent) pairs; zero
    /// exponents are dropped and repeats combined.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (A, u32)>) -> Self {
        let mut pairs: Vec<(A, u32)> = pairs.into_iter().collect();
        sort_combine(
            &mut pairs,
            |(a, _)| a,
            |(_, e), rest| {
                for (_, more) in rest {
                    *e = e.checked_add(*more).expect("monomial exponent overflow");
                }
            },
            |(_, e)| *e > 0,
        );
        Self::from_sorted(pairs)
    }

    /// The product of two monomials (exponents add).
    pub fn times(&self, other: &Self) -> Self {
        if self.is_unit() {
            return other.clone();
        }
        if other.is_unit() {
            return self.clone();
        }
        let mut out: Vec<(A, u32)> = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        while let (Some(&(x, e)), Some(&(y, f))) = (a.peek(), b.peek()) {
            match x.cmp(y) {
                Ordering::Less => {
                    out.push((x.clone(), e));
                    a.next();
                }
                Ordering::Greater => {
                    out.push((y.clone(), f));
                    b.next();
                }
                Ordering::Equal => {
                    let e = e.checked_add(f).expect("monomial exponent overflow");
                    out.push((x.clone(), e));
                    a.next();
                    b.next();
                }
            }
        }
        out.extend(a.chain(b).map(|(x, e)| (x.clone(), e)));
        Self::from_sorted(out)
    }

    /// The total degree (sum of exponents).
    pub fn degree(&self) -> u64 {
        self.iter().map(|(_, e)| e as u64).sum()
    }

    /// Drops all exponents to 1 (Trio's / Why's absorption of exponents).
    pub fn squarefree(&self) -> Self {
        Self::from_sorted(self.iter().map(|(a, _)| (a.clone(), 1)).collect())
    }

    /// Maps the indeterminates, renormalizing (images may collide).
    pub fn map_vars<B: Ord + Clone>(&self, f: &mut impl FnMut(&A) -> B) -> Monomial<B> {
        Monomial::from_pairs(self.iter().map(|(a, e)| (f(a), e)))
    }
}

impl<A: Ord + fmt::Display> fmt::Display for Monomial<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unit() {
            return write!(f, "1");
        }
        for (i, (a, e)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "*")?;
            }
            if e == 1 {
                write!(f, "{a}")?;
            } else {
                write!(f, "{a}^{e}")?;
            }
        }
        Ok(())
    }
}

/// One term of a polynomial: a monomial and its non-zero coefficient.
type Term<A, C> = (Monomial<A>, C);

/// An indeterminate type a [`Poly`] ranges over. Its `Inline` form says
/// whether a polynomial of one term of degree ≤ 1 over it is held in the
/// `Poly` itself: for [`Var`] it is that term, for any other type the
/// uninhabited [`NoInline`], and then the inline arm takes no space. (The
/// atoms of `K^M` hold polynomials themselves, so a term of theirs cannot
/// live inside one.) The inline forms are sealed: [`NoInline`] is the only
/// one a type outside this crate can name.
pub trait Indeterminate: Ord + Sized {
    /// How a one-term polynomial of degree ≤ 1 over `Self` is held inline.
    type Inline<C>: sealed::InlineTerm<Self, C>;
}

/// The inline form of an indeterminate type whose polynomials hold every
/// term in shared storage: it has no values.
#[derive(Clone, Copy, Debug)]
pub enum NoInline {}

mod sealed {
    /// A polynomial term held in the polynomial itself.
    pub trait InlineTerm<A: Ord, C>: Sized {
        /// `term` held inline, or handed back if it is not held so.
        fn try_inline(term: super::Term<A, C>) -> Result<Self, super::Term<A, C>>;
        /// The term.
        fn term(&self) -> &super::Term<A, C>;
        /// A copy (which allocates nothing).
        fn clone_inline(&self) -> Self
        where
            C: Clone;
    }
}

impl<A: Ord, C> sealed::InlineTerm<A, C> for NoInline {
    fn try_inline(term: Term<A, C>) -> Result<Self, Term<A, C>> {
        Err(term)
    }

    fn term(&self) -> &Term<A, C> {
        match *self {}
    }

    fn clone_inline(&self) -> Self {
        *self
    }
}

/// A term over tokens is held inline when its monomial is `1` or one token:
/// a copy then allocates nothing (a longer name's block is shared).
impl<C> sealed::InlineTerm<Var, C> for Term<Var, C> {
    fn try_inline(term: Term<Var, C>) -> Result<Self, Term<Var, C>> {
        match term.0 .0 {
            Pairs::Many(_) => Err(term),
            Pairs::Unit | Pairs::Gen(_) => Ok(term),
        }
    }

    fn term(&self) -> &Term<Var, C> {
        self
    }

    fn clone_inline(&self) -> Self
    where
        C: Clone,
    {
        self.clone()
    }
}

impl Indeterminate for Var {
    type Inline<C> = Term<Var, C>;
}

/// A polynomial over indeterminates `A` with coefficients in the commutative
/// semiring `C`. The representation is canonical — terms sorted by
/// monomial, monomials unique, zero coefficients absent — so structural
/// equality decides semiring equality (for `C` with canonical
/// representations). Which form holds the terms follows from the value
/// alone (the module docs say which): cloning allocates nothing, and
/// annotations may be read from several threads at once.
pub struct Poly<A: Indeterminate, C>(Terms<A, C>);

/// The canonical term sequence of a [`Poly`], by form.
enum Terms<A: Indeterminate, C> {
    /// The zero polynomial: no term.
    Zero,
    /// One term of degree ≤ 1, held inline where `A` allows it (a base
    /// token `1·p`, a constant).
    One(A::Inline<C>),
    /// Any other non-empty sequence, in shared immutable storage.
    Shared(Arc<[Term<A, C>]>),
}

/// The provenance polynomial semiring `ℕ[X]` (paper §2.1).
pub type NatPoly = Poly<Var, Nat>;

/// The semiring `B[X]` of the provenance hierarchy: sets of monomials.
pub type BoolPoly = Poly<Var, Bool>;

impl<A: Indeterminate, C> Poly<A, C> {
    fn as_slice(&self) -> &[Term<A, C>] {
        match &self.0 {
            Terms::Zero => &[],
            Terms::One(term) => std::slice::from_ref(term.term()),
            Terms::Shared(terms) => terms,
        }
    }

    /// Wraps terms that already are in canonical form.
    fn from_canonical(mut terms: Vec<Term<A, C>>) -> Self {
        if terms.len() > 1 {
            return Poly(Terms::Shared(Arc::from(terms)));
        }
        terms.pop().map_or(Poly(Terms::Zero), Self::held)
    }

    /// The polynomial of one canonical term: inline if it is of degree
    /// ≤ 1 and `A` allows it, shared otherwise.
    fn held(term: Term<A, C>) -> Self {
        Poly(match A::Inline::<C>::try_inline(term) {
            Ok(inline) => Terms::One(inline),
            Err(term) => Terms::Shared(Arc::from([term])),
        })
    }

    /// True iff both polynomials hold the same shared term storage
    /// (sharing diagnostics; sharing implies equality). The zero
    /// polynomial and a term held inline hold no shared storage, so they
    /// share with nothing — not even themselves.
    pub fn shares_terms_with(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Terms::Shared(a), Terms::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl<A: Indeterminate, C: Clone> Clone for Poly<A, C> {
    fn clone(&self) -> Self {
        Poly(match &self.0 {
            Terms::Zero => Terms::Zero,
            Terms::One(term) => Terms::One(term.clone_inline()),
            Terms::Shared(terms) => Terms::Shared(Arc::clone(terms)),
        })
    }
}

impl<A: Indeterminate + fmt::Debug, C: fmt::Debug> fmt::Debug for Poly<A, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let terms = self.as_slice();
        f.debug_struct("Poly")
            .field("terms", &(!terms.is_empty()).then_some(terms))
            .finish()
    }
}

impl<A: Indeterminate, C: PartialEq> PartialEq for Poly<A, C> {
    fn eq(&self, other: &Self) -> bool {
        self.shares_terms_with(other) || self.as_slice() == other.as_slice()
    }
}

impl<A: Indeterminate, C: Eq> Eq for Poly<A, C> {}

impl<A: Indeterminate, C: Ord> PartialOrd for Poly<A, C> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<A: Indeterminate, C: Ord> Ord for Poly<A, C> {
    /// Lexicographic over the canonical term sequence.
    fn cmp(&self, other: &Self) -> Ordering {
        if self.shares_terms_with(other) {
            return Ordering::Equal;
        }
        self.as_slice().cmp(other.as_slice())
    }
}

impl<A: Indeterminate + Hash, C: Hash> Hash for Poly<A, C> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<A, C> Poly<A, C>
where
    A: Indeterminate + Clone + Hash + fmt::Debug,
    C: CommutativeSemiring,
{
    /// Canonicalizes arbitrary terms: the coefficients of each repeated
    /// monomial are summed (one `C::sum` per monomial, in input order) and
    /// zero coefficients dropped.
    fn normalized(mut terms: Vec<Term<A, C>>) -> Self {
        sort_combine(
            &mut terms,
            |(m, _)| m,
            |(_, c), rest| *c = sum_run(c, rest.iter().map(|(_, c)| c)),
            |(_, c)| !c.is_zero(),
        );
        Self::from_canonical(terms)
    }

    /// The one-term polynomial `c·m` (zero if `c` is).
    fn single(m: Monomial<A>, c: C) -> Self {
        if c.is_zero() {
            return Poly(Terms::Zero);
        }
        Self::held((m, c))
    }

    /// The constant polynomial `c`.
    pub fn constant(c: C) -> Self {
        Self::single(Monomial::unit(), c)
    }

    /// The polynomial consisting of a single indeterminate.
    pub fn var(a: A) -> Self {
        Self::single(Monomial::var(a), C::one())
    }

    /// Builds a polynomial from (monomial, coefficient) terms; repeated
    /// monomials are summed and zero coefficients dropped.
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial<A>, C)>) -> Self {
        Self::normalized(terms.into_iter().collect())
    }

    /// The number of terms (monomials with non-zero coefficient).
    pub fn num_terms(&self) -> usize {
        self.as_slice().len()
    }

    /// A representation-size measure: one node per term plus one per
    /// indeterminate occurrence. Used by the overhead experiments.
    pub fn size(&self) -> usize {
        self.as_slice().iter().map(|(m, _)| 1 + m.len()).sum()
    }

    /// The maximal total degree of any term; `0` for the zero polynomial.
    pub fn degree(&self) -> u64 {
        self.as_slice()
            .iter()
            .map(|(m, _)| m.degree())
            .max()
            .unwrap_or(0)
    }

    /// Iterates over (monomial, coefficient) terms, in monomial order.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial<A>, &C)> {
        self.as_slice().iter().map(|(m, c)| (m, c))
    }

    /// If this is a constant polynomial, returns its value (the zero
    /// polynomial is the constant `0`).
    pub fn as_constant(&self) -> Option<C> {
        match self.as_slice() {
            [] => Some(C::zero()),
            [(m, c)] => m.is_unit().then(|| c.clone()),
            _ => None,
        }
    }

    /// The set of indeterminates occurring in the polynomial.
    pub fn vars(&self) -> impl Iterator<Item = &A> {
        self.as_slice()
            .iter()
            .flat_map(|(m, _)| m.iter().map(|(a, _)| a))
    }

    /// Evaluates the polynomial in the semiring `K`, mapping indeterminates
    /// with `var` and coefficients with `coeff`. When `coeff` is a semiring
    /// homomorphism this is the free extension of the valuation (for
    /// `ℕ[X]`, the unique homomorphism determined by `var`).
    pub fn eval<K: CommutativeSemiring>(
        &self,
        var: &mut impl FnMut(&A) -> K,
        coeff: &mut impl FnMut(&C) -> K,
    ) -> K {
        let mut acc = K::zero();
        for (m, c) in self.as_slice() {
            let mut term = coeff(c);
            if term.is_zero() {
                continue;
            }
            for (a, e) in m.iter() {
                let base = var(a);
                term = term.times(&pow(&base, e));
            }
            acc = acc.plus(&term);
        }
        acc
    }

    /// Applies the valuation sending every indeterminate with
    /// `dropped(a) == true` to `0` and every other to itself: a monomial
    /// mentioning a dropped indeterminate vanishes, every other term is
    /// untouched. Agrees with the equivalent [`Poly::eval`] hom term for
    /// term, but runs in O(size) — removing terms from the canonical
    /// slice needs no re-summation — which is what makes deletion
    /// propagation over large membership sums O(n) instead of O(n²). A
    /// polynomial that mentions no dropped indeterminate is returned as
    /// the same shared storage.
    pub fn drop_vars(&self, dropped: &mut impl FnMut(&A) -> bool) -> Self {
        let terms = self.as_slice();
        let mut vanishes = |(m, _): &Term<A, C>| m.iter().any(|(a, _)| dropped(a));
        let Some(first) = terms.iter().position(&mut vanishes) else {
            return self.clone();
        };
        let mut out = Vec::with_capacity(terms.len() - 1);
        out.extend_from_slice(&terms[..first]);
        out.extend(terms[first + 1..].iter().filter(|t| !vanishes(t)).cloned());
        Self::from_canonical(out)
    }

    /// Maps coefficients through `f` (a homomorphism `C → C2`),
    /// renormalizing.
    pub fn map_coeffs<C2: CommutativeSemiring>(&self, f: &mut impl FnMut(&C) -> C2) -> Poly<A, C2> {
        Poly::from_terms(self.terms().map(|(m, c)| (m.clone(), f(c))))
    }

    /// Maps indeterminates through `f`, renormalizing (images may collide).
    pub fn map_vars<B: Indeterminate + Clone + Hash + fmt::Debug>(
        &self,
        f: &mut impl FnMut(&A) -> B,
    ) -> Poly<B, C> {
        Poly::from_terms(self.terms().map(|(m, c)| (m.map_vars(f), c.clone())))
    }
}

/// `base^exp` by repeated squaring in an arbitrary semiring.
pub fn pow<K: CommutativeSemiring>(base: &K, exp: u32) -> K {
    let mut acc = K::one();
    let mut base = base.clone();
    let mut e = exp;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc.times(&base);
        }
        e >>= 1;
        if e > 0 {
            base = base.times(&base);
        }
    }
    acc
}

impl NatPoly {
    /// Convenience: the polynomial for a single named token.
    pub fn token(name: &str) -> NatPoly {
        NatPoly::var(Var::new(name))
    }
}

impl<A, C> CommutativeSemiring for Poly<A, C>
where
    A: Indeterminate + Clone + Hash + fmt::Debug + fmt::Display + Send + Sync,
    A::Inline<C>: Send + Sync,
    C: CommutativeSemiring,
{
    fn zero() -> Self {
        Poly(Terms::Zero)
    }

    fn one() -> Self {
        Poly::constant(C::one())
    }

    /// A two-pointer merge of the two canonical slices; adding zero shares
    /// the other operand's storage.
    fn plus(&self, other: &Self) -> Self {
        let (a, b) = (self.as_slice(), other.as_slice());
        if b.is_empty() {
            return self.clone();
        }
        if a.is_empty() {
            return other.clone();
        }
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (&a[i], &b[j]);
            match x.0.cmp(&y.0) {
                Ordering::Less => {
                    out.push(x.clone());
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(y.clone());
                    j += 1;
                }
                Ordering::Equal => {
                    let sum = x.1.plus(&y.1);
                    if !sum.is_zero() {
                        out.push((x.0.clone(), sum));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Self::from_canonical(out)
    }

    /// One `sort` over the terms of all operands instead of a merge per
    /// operand: the terms are gathered by reference, stable-sorted by
    /// monomial (the operands are sorted runs, which the merge sort
    /// detects), the coefficients of each run of equal monomials summed by
    /// `C::sum` — recursively k-way for polynomial coefficients — and each
    /// surviving term cloned exactly once. A single operand is returned as
    /// the same shared storage.
    fn sum(items: Vec<Self>) -> Self {
        match items.as_slice() {
            [] => return Self::zero(),
            [p] => return p.clone(),
            _ => {}
        }
        let mut terms: Vec<&Term<A, C>> = items.iter().flat_map(|p| p.as_slice()).collect();
        terms.sort_by(|x, y| x.0.cmp(&y.0));
        let mut out = Vec::with_capacity(terms.len());
        for run in terms.chunk_by(|x, y| x.0 == y.0) {
            if let [(m, first), rest @ ..] = run {
                let c = match rest {
                    [] => first.clone(),
                    _ => sum_run(first, rest.iter().map(|(_, c)| c)),
                };
                if !c.is_zero() {
                    out.push((m.clone(), c));
                }
            }
        }
        Self::from_canonical(out)
    }

    /// Multiplying by `1` shares the other operand's storage (as
    /// multiplying by `0` allocates nothing), and two single-term operands
    /// — a join of base rows — multiply without the product buffer and its
    /// normalization.
    fn times(&self, other: &Self) -> Self {
        if self.is_one() {
            return other.clone();
        }
        if other.is_one() {
            return self.clone();
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        if let ([(m1, c1)], [(m2, c2)]) = (a, b) {
            return Self::single(m1.times(m2), c1.times(c2));
        }
        let mut products = Vec::with_capacity(a.len() * b.len());
        for (m1, c1) in a {
            for (m2, c2) in b {
                let c = c1.times(c2);
                if !c.is_zero() {
                    products.push((m1.times(m2), c));
                }
            }
        }
        Self::normalized(products)
    }

    fn is_zero(&self) -> bool {
        matches!(self.0, Terms::Zero)
    }

    fn is_one(&self) -> bool {
        matches!(self.as_slice(), [(m, c)] if m.is_unit() && c.is_one())
    }

    const PLUS_IDEMPOTENT: bool = C::PLUS_IDEMPOTENT;
    const POSITIVE: bool = C::POSITIVE;
    const HAS_HOM_TO_NAT: bool = C::HAS_HOM_TO_NAT;

    fn as_nat(&self) -> Option<u64> {
        self.as_constant().and_then(|c| c.as_nat())
    }

    fn from_nat(n: u64) -> Self {
        Poly::constant(C::from_nat(n))
    }

    /// A polynomial whose coefficients are all normal already (`ℕ[X]` with
    /// unit coefficients: every base token) is returned as the same shared
    /// storage.
    fn idem_normal(&self) -> Self {
        if self.terms().all(|(_, c)| c.idem_normal() == *c) {
            return self.clone();
        }
        // The quotient acts coefficient-wise (k ~ k+k propagates to each
        // monomial's coefficient through additivity of the congruence).
        self.map_coeffs(&mut |c| c.idem_normal())
    }
}

impl<A, C> fmt::Display for Poly<A, C>
where
    A: Indeterminate + Clone + Hash + fmt::Debug + fmt::Display,
    C: CommutativeSemiring,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if matches!(self.0, Terms::Zero) {
            return write!(f, "0");
        }
        for (i, (m, c)) in self.terms().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if m.is_unit() {
                write!(f, "{c}")?;
            } else if c.is_one() {
                write!(f, "{m}")?;
            } else {
                write!(f, "{c}*{m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> NatPoly {
        NatPoly::token("x")
    }
    fn y() -> NatPoly {
        NatPoly::token("y")
    }

    /// `drop_vars` is the token→0 valuation, term for term: it must agree
    /// with the general `eval`-based hom on a polynomial mixing pure,
    /// mixed, and constant terms.
    #[test]
    fn drop_vars_agrees_with_the_eval_hom() {
        let z = NatPoly::token("z");
        let p = x()
            .times(&y())
            .plus(&x())
            .plus(&z.times(&z))
            .plus(&NatPoly::from_nat(3));
        let dropped = |name: &str| name == "x";
        let via_eval: NatPoly = p.eval(
            &mut |v| {
                if dropped(v.name()) {
                    NatPoly::zero()
                } else {
                    NatPoly::token(v.name())
                }
            },
            &mut |c| NatPoly::from_nat(c.0),
        );
        let via_drop = p.drop_vars(&mut |v| dropped(v.name()));
        assert_eq!(via_drop, via_eval);
        assert_eq!(via_drop.to_string(), "3 + z^2");
        // Dropping nothing is the identity; dropping everything leaves the
        // constant part.
        assert_eq!(p.drop_vars(&mut |_| false), p);
        assert_eq!(p.drop_vars(&mut |_| true), NatPoly::from_nat(3));
    }

    #[test]
    fn clone_and_noop_operations_share_storage() {
        let p = x().times(&y()).plus(&NatPoly::from_nat(3));
        assert!(p.clone().shares_terms_with(&p), "clone is an Arc share");
        // Dropping an indeterminate `p` does not mention, and adding zero,
        // hand the same storage back.
        assert!(p.drop_vars(&mut |v| v.name() == "z").shares_terms_with(&p));
        assert!(p.plus(&NatPoly::zero()).shares_terms_with(&p));
        assert!(NatPoly::zero().plus(&p).shares_terms_with(&p));
        assert!(!p.drop_vars(&mut |v| v.name() == "x").shares_terms_with(&p));
        // Equal polynomials built separately are equal without sharing.
        let q = NatPoly::from_nat(3).plus(&y().times(&x()));
        assert_eq!(p, q);
        assert!(!p.shares_terms_with(&q));
        // Zero holds no storage, so there is nothing to share.
        assert!(!NatPoly::zero().shares_terms_with(&NatPoly::zero()));
        assert!(!x()
            .drop_vars(&mut |_| true)
            .shares_terms_with(&NatPoly::zero()));
    }

    /// `par::fan_out` shards read the same annotations from several
    /// threads, and every tuple carries one: keep both facts compile-time.
    #[test]
    fn poly_is_four_words_and_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NatPoly>();
        assert_send_sync::<BoolPoly>();
        // A base token's one term lives in the polynomial itself, and its
        // one-token monomial inside the term: no block of either's own.
        const { assert!(std::mem::size_of::<NatPoly>() <= 32) };
        const { assert!(std::mem::size_of::<Monomial<Var>>() <= 24) };
    }

    /// One term of degree ≤ 1 is held inline however it was computed, and
    /// anything else in shared storage.
    #[test]
    fn the_form_follows_from_the_value() {
        let inline = |p: &NatPoly| !p.is_zero() && !p.shares_terms_with(p);
        assert!(inline(&x()) && inline(&NatPoly::one()) && inline(&NatPoly::from_nat(3)));
        assert!(inline(&x().plus(&x())), "2*x");
        assert!(inline(&x().plus(&y()).drop_vars(&mut |v| v.name() == "y")));
        assert!(inline(&x().times(&NatPoly::from_nat(2))));
        assert!(inline(&NatPoly::from_terms([(
            Monomial::var(Var::new("p")),
            Nat(1)
        )])));
        let squared = x().times(&x());
        assert!(squared.shares_terms_with(&squared), "x^2 is shared");
        assert!(!inline(&x().times(&y())) && !inline(&x().plus(&y())));
        assert!(!inline(&NatPoly::zero()));
        assert_eq!(x().clone(), x());
        assert_eq!(
            format!("{:?}", x()),
            "Poly { terms: Some([(Monomial([(x, 1)]), Nat(1))]) }"
        );
    }

    /// Every `MIN`/`MAX`/`OR` tensor coefficient goes through
    /// `idem_normal`; a base token's polynomial must come back as it is.
    #[test]
    fn idem_normal_shares_what_it_does_not_change() {
        let p = x().plus(&y().times(&x()));
        assert!(p.idem_normal().shares_terms_with(&p));
        let q = x().plus(&x()).plus(&y());
        assert_eq!(q.to_string(), "2*x + y");
        assert_eq!(q.idem_normal().to_string(), "x + y");
        assert!(NatPoly::zero().idem_normal().is_zero());
    }

    #[test]
    fn sort_combine_folds_runs_in_input_order() {
        let mut items = [
            ("b", "1"),
            ("a", "2"),
            ("b", "3"),
            ("c", ""),
            ("a", "4"),
            ("b", "5"),
        ]
        .into_iter()
        .map(|(k, v)| (k, v.to_string()))
        .collect::<Vec<_>>();
        let mut runs = Vec::new();
        sort_combine(
            &mut items,
            |(k, _)| k,
            |(_, acc), rest| {
                runs.push(1 + rest.len());
                rest.iter().for_each(|(_, more)| acc.push_str(more));
            },
            |(_, v)| !v.is_empty(),
        );
        let got: Vec<(&str, &str)> = items.iter().map(|(k, v)| (*k, v.as_str())).collect();
        assert_eq!(got, [("a", "24"), ("b", "135")]);
        assert_eq!(runs, [2, 3], "one call per repeated key, the whole run");
    }

    #[test]
    fn sum_is_the_fold_of_plus_and_shares_a_lone_operand() {
        let ps = [x(), y().times(&x()), x(), NatPoly::from_nat(2), y(), x()];
        let folded = ps.iter().fold(NatPoly::zero(), |acc, p| acc.plus(p));
        assert_eq!(NatPoly::sum(ps.to_vec()), folded);
        assert_eq!(folded.to_string(), "2 + 3*x + x*y + y");
        assert!(NatPoly::sum(Vec::new()).is_zero());
        let p = x().plus(&y());
        assert!(NatPoly::sum(vec![p.clone()]).shares_terms_with(&p));
    }

    #[test]
    fn times_one_shares_storage() {
        let p = x().plus(&y());
        assert!(p.times(&NatPoly::one()).shares_terms_with(&p));
        assert!(NatPoly::one().times(&p).shares_terms_with(&p));
        assert_eq!(x().times(&y()).to_string(), "x*y");
        assert!(x().times(&NatPoly::zero()).is_zero());
    }

    #[test]
    fn construction_and_display() {
        let p = x().plus(&y()).times(&x());
        assert_eq!(p.to_string(), "x*y + x^2");
        assert_eq!(p.num_terms(), 2);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn zero_and_one_behave() {
        let p = x();
        assert_eq!(p.plus(&NatPoly::zero()), p);
        assert_eq!(p.times(&NatPoly::one()), p);
        assert!(p.times(&NatPoly::zero()).is_zero());
    }

    #[test]
    fn coefficients_accumulate() {
        let p = x().plus(&x()).plus(&x());
        assert_eq!(p.to_string(), "3*x");
        assert_eq!(p.as_nat(), None);
        assert_eq!(NatPoly::from_nat(5).as_nat(), Some(5));
        assert_eq!(NatPoly::zero().as_nat(), Some(0));
    }

    #[test]
    fn distributivity_example() {
        // (x + y)·(x + y) = x² + 2xy + y²
        let p = x().plus(&y());
        let sq = p.times(&p);
        assert_eq!(sq.to_string(), "2*x*y + x^2 + y^2");
    }

    #[test]
    fn eval_is_free_extension() {
        // p = 2x²y + 3, evaluated at x=2, y=3 in ℕ: 2·4·3 + 3 = 27.
        let p = NatPoly::from_terms([
            (
                Monomial::from_pairs([(Var::new("x"), 2), (Var::new("y"), 1)]),
                Nat(2),
            ),
            (Monomial::unit(), Nat(3)),
        ]);
        let v = p.eval(
            &mut |v: &Var| if v.name() == "x" { Nat(2) } else { Nat(3) },
            &mut |c: &Nat| *c,
        );
        assert_eq!(v, Nat(27));
    }

    #[test]
    fn eval_to_bool_is_support() {
        // Deletion propagation: x + y with x ↦ ⊥, y ↦ ⊤ gives ⊤.
        let p = x().plus(&y());
        let v = p.eval(&mut |v: &Var| Bool(v.name() == "y"), &mut |c: &Nat| {
            Bool(c.0 != 0)
        });
        assert_eq!(v, Bool(true));
    }

    #[test]
    fn map_vars_can_merge_tokens() {
        let p = x().plus(&y()); // x + y
        let q = p.map_vars(&mut |_| Var::new("z"));
        assert_eq!(q.to_string(), "2*z");
    }

    #[test]
    fn squarefree_monomials() {
        let m = Monomial::from_pairs([(Var::new("x"), 3), (Var::new("y"), 1)]);
        assert_eq!(m.squarefree().to_string(), "x*y");
    }

    #[test]
    fn pow_by_squaring() {
        assert_eq!(pow(&Nat(3), 0), Nat(1));
        assert_eq!(pow(&Nat(3), 5), Nat(243));
        let p = pow(&x().plus(&NatPoly::one()), 2);
        assert_eq!(p.to_string(), "1 + 2*x + x^2");
    }

    #[test]
    fn bool_poly_is_set_of_monomials() {
        let p = BoolPoly::var(Var::new("x"));
        let q = p.plus(&p);
        assert_eq!(q, p, "B[X] has idempotent +");
        const { assert!(BoolPoly::PLUS_IDEMPOTENT) };
    }

    #[test]
    fn size_measure() {
        let p = x().times(&y()).plus(&NatPoly::from_nat(2));
        // terms: {x*y: 1, 1: 2} → (1+2) + (1+0) = 4
        assert_eq!(p.size(), 4);
    }
}
