//! `Km` against the representation it replaced.
//!
//! A `Km` holds an element of the image of `K` inline and takes ground
//! operands through `K`'s own operations; the specification is the single
//! form it used to have — *every* element, ground ones included, a
//! polynomial over atoms. [`Model`] is that form, driven only through
//! [`Poly`] arithmetic and bridged by `from_poly`/`as_poly` where a tensor
//! needs `Km` coefficients. Random programs over `Km<ℕ[X]>` and `Km<ℤ>`
//! are run on both; every value must render, measure, collapse, compare
//! and hash as its model polynomial does, and must be in its one canonical
//! form. (`core::specops` shares the types, so it cannot pin this.)

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::{NatPoly, Poly};
use aggprov_algebra::semiring::{CommutativeSemiring, IntZ};
use aggprov_algebra::tensor::Tensor;
use aggprov_core::km::{Atom, CmpPred, Km};
use proptest::prelude::*;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};

/// The deleted representation: a polynomial over atoms, whatever it holds.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Model<K: CommutativeSemiring>(Poly<Atom<K>, K>);

impl<K: CommutativeSemiring> Model<K> {
    fn km(&self) -> Km<K> {
        Km::from_poly(self.0.clone())
    }

    /// `Km::delta` as it read over the polynomial.
    fn delta(&self) -> Self {
        if self.0.is_zero() {
            return Model(Poly::zero());
        }
        if let Some(c) = self.0.as_constant() {
            if let Some(d) = c.native_delta() {
                return Model(Poly::constant(d));
            }
            if let Some(n) = c.as_nat() {
                return Model(Poly::from_nat(n.min(1)));
            }
        }
        Model(Poly::var(Atom::Delta(self.km())))
    }

    /// `Km::size` as it read over the polynomial.
    fn size(&self) -> usize {
        let tensor = |t: &Tensor<Km<K>, Const>| t.terms().map(|(k, _)| 1 + k.size()).sum::<usize>();
        let atoms = self.0.vars().map(|atom| match atom {
            Atom::Delta(e) => e.size(),
            Atom::Eq((_, a), (_, b)) | Atom::Cmp(_, (_, a), (_, b)) => tensor(a) + tensor(b),
        });
        self.0.size().max(1) + atoms.sum::<usize>()
    }
}

/// One step of a generated program: an operation, three operands (indices
/// into the values so far, wrapping) and a monoid element.
type Step = (u8, usize, usize, usize, i64);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64, -1i64..3), 0..6)
}

/// `[x ⊗ n + y ⊗ (n+1) ⋈ z ⊗ n + 1 ⊗ (n+1)]` under `SUM`: `=` for `op`
/// 4, `<` otherwise.
fn token<K: CommutativeSemiring>(op: u8, n: i64, [x, y, z]: [Km<K>; 3]) -> Km<K> {
    let sum = MonoidKind::Sum;
    let tensor = |a, b| Tensor::from_terms(&sum, [(a, Const::int(n)), (b, Const::int(n + 1))]);
    let (lhs, rhs) = (tensor(x, y), tensor(z, Km::one()));
    if op == 4 {
        Km::eq_token(sum, &lhs, &rhs)
    } else {
        Km::cmp_token(CmpPred::Lt, sum, &lhs, sum, &rhs)
    }
}

/// Runs `steps` over 0, 1 and the embedded `seeds`, in `Km` and in the
/// model.
fn run<K: CommutativeSemiring>(seeds: &[K], steps: &[Step]) -> Vec<(Km<K>, Model<K>)> {
    let mut vals = vec![
        (Km::zero(), Model(Poly::zero())),
        (Km::one(), Model(Poly::one())),
    ];
    vals.extend(
        seeds
            .iter()
            .map(|k| (Km::embed(k.clone()), Model(Poly::constant(k.clone())))),
    );
    for &(op, a, b, c, n) in steps {
        let pick = |i: usize| vals[i % vals.len()].clone();
        let ((ka, ma), (kb, mb), (kc, mc)) = (pick(a), pick(b), pick(c));
        // A product of large operands becomes a sum: programs square.
        let small = ka.size() * kb.size() <= 64;
        vals.push(match op {
            1 if small => (ka.times(&kb), Model(ma.0.times(&mb.0))),
            0 | 1 => (ka.plus(&kb), Model(ma.0.plus(&mb.0))),
            2 => (
                Km::sum(vec![ka.clone(), kb, kc, ka]),
                Model(Poly::sum(vec![ma.0.clone(), mb.0, mc.0, ma.0])),
            ),
            3 => (ka.delta(), ma.delta()),
            _ => (
                token(op, n, [ka, kb, kc]),
                Model(token(op, n, [ma.km(), mb.km(), mc.km()]).as_poly()),
            ),
        });
    }
    vals
}

fn hash_of(value: &impl Hash) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(value)
}

/// Every value of a program reads as its model polynomial and is in
/// canonical form; every pair compares as the model polynomials do.
fn check<K: CommutativeSemiring>(vals: &[(Km<K>, Model<K>)]) {
    for (k, m) in vals {
        assert_eq!(k.as_poly(), m.0, "{k}");
        assert_eq!(k.to_string(), m.0.to_string());
        assert_eq!(k.size(), m.size(), "size of {k}");
        assert_eq!(k.try_collapse(), m.0.as_constant(), "collapse of {k}");
        assert_eq!(
            (k.is_zero(), k.is_one(), k.as_nat()),
            (m.0.is_zero(), m.0.is_one(), m.0.as_nat()),
            "{k}"
        );
        // One form per element: whichever way it is reached, and ground
        // exactly when its polynomial is a constant.
        assert_eq!(&m.km(), k, "from_poly of {k}");
        assert_eq!(hash_of(&m.km()), hash_of(k), "hash of {k}");
        assert_eq!(k.idem_normal().as_poly(), m.0.idem_normal(), "{k}");
    }
    for (k1, m1) in vals {
        for (k2, m2) in vals {
            assert_eq!(k1 == k2, m1 == m2, "{k1} == {k2}");
            assert_eq!(k1.cmp(k2), m1.cmp(m2), "{k1} cmp {k2}");
        }
    }
}

proptest! {
    #[test]
    fn km_over_provenance_polynomials_matches_the_polynomial_model(steps in arb_steps()) {
        let (x, y) = (NatPoly::token("x"), NatPoly::token("y"));
        check(&run(&[x.clone(), y.clone(), x.plus(&y), NatPoly::from_nat(2)], &steps));
    }

    #[test]
    fn km_over_the_integers_matches_the_polynomial_model(steps in arb_steps()) {
        // ℤ orders −1 below 0 (zero must still be least), has no
        // homomorphism to ℕ (ground tokens stay symbolic) and cancels:
        // every program starts from a token and its negative.
        let steps = [&CANCELLING[..2], &steps[..]].concat();
        check(&run(&[IntZ(-1), IntZ(2), IntZ(3)], &steps));
    }
}

/// Over `[0, 1, −1, 2, 3]`: `t = [1⊗1 + 1⊗2 = (−1)⊗1 + 1⊗2]` (no `ι⁻¹`
/// over `ℤ`, so it stays symbolic), `(−1)·t`, their sum, and
/// `Σ (t, −t, 0, t)`.
const CANCELLING: [Step; 4] = [
    (4, 1, 1, 2, 1),
    (1, 5, 2, 0, 0),
    (0, 5, 6, 0, 0),
    (2, 5, 6, 0, 0),
];

/// Over `ℤ` symbolic terms cancel: the sum of two symbolic elements is the
/// ground `0`, not a polynomial that happens to be empty.
#[test]
fn cancelling_symbolic_terms_collapse_to_the_ground_zero() {
    let vals = run(&[IntZ(-1), IntZ(2), IntZ(3)], &CANCELLING);
    check(&vals);
    let [.., (t, _), (minus_t, _), (plus, _), (sum, _)] = vals.as_slice() else {
        panic!("four steps");
    };
    assert!(t.try_collapse().is_none() && minus_t.try_collapse().is_none());
    assert_eq!(minus_t.to_string(), format!("-1*{t}"));
    assert_eq!(plus.try_collapse(), Some(IntZ(0)));
    // Σ (t, −t, 0, t) = t: symbolic again.
    assert_eq!(sum, t);
    assert_eq!(plus, &Km::zero());
    assert_eq!(hash_of(plus), hash_of(&Km::<IntZ>::zero()));
}
