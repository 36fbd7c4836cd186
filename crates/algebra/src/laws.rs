//! Executable algebraic laws.
//!
//! Every structure in this workspace states its laws in documentation; this
//! module makes them executable so that unit and property tests across
//! crates can share one implementation. Each checker returns `Err` with a
//! human-readable description of the first violated law.

use crate::monoid::CommutativeMonoid;
use crate::semimodule::Semimodule;
use crate::semiring::{CommutativeSemiring, DeltaSemiring};

macro_rules! law {
    ($cond:expr, $($msg:tt)*) => {
        if !$cond {
            return Err(format!($($msg)*));
        }
    };
}

/// Checks the commutative-monoid laws on a sample triple.
pub fn check_monoid<M: CommutativeMonoid>(
    m: &M,
    a: &M::Elem,
    b: &M::Elem,
    c: &M::Elem,
) -> Result<(), String> {
    law!(
        m.plus(a, b) == m.plus(b, a),
        "commutativity: {a:?}+{b:?} ≠ {b:?}+{a:?}"
    );
    law!(
        m.plus(a, &m.plus(b, c)) == m.plus(&m.plus(a, b), c),
        "associativity on {a:?},{b:?},{c:?}"
    );
    law!(m.plus(a, &m.zero()) == *a, "identity on {a:?}");
    if m.is_idempotent() {
        law!(m.plus(a, a) == *a, "claimed idempotence fails on {a:?}");
    }
    Ok(())
}

/// Checks the commutative-semiring laws on a sample triple.
pub fn check_semiring<K: CommutativeSemiring>(a: &K, b: &K, c: &K) -> Result<(), String> {
    let zero = K::zero();
    let one = K::one();
    law!(a.plus(b) == b.plus(a), "+ commutativity on {a}, {b}");
    law!(
        a.plus(&b.plus(c)) == a.plus(b).plus(c),
        "+ associativity on {a}, {b}, {c}"
    );
    law!(a.plus(&zero) == *a, "+ identity on {a}");
    law!(a.times(b) == b.times(a), "· commutativity on {a}, {b}");
    law!(
        a.times(&b.times(c)) == a.times(b).times(c),
        "· associativity on {a}, {b}, {c}"
    );
    law!(a.times(&one) == *a, "· identity on {a}");
    law!(
        a.times(&b.plus(c)) == a.times(b).plus(&a.times(c)),
        "distributivity on {a}, {b}, {c}"
    );
    law!(a.times(&zero) == zero, "annihilation on {a}");
    // Structural overrides must decide exactly what the defaults do.
    for x in [a, b, c, &zero, &one] {
        law!(
            x.is_zero() == (*x == zero),
            "is_zero disagrees with == 0 on {x}"
        );
        law!(
            x.is_one() == (*x == one),
            "is_one disagrees with == 1 on {x}"
        );
    }
    if K::PLUS_IDEMPOTENT {
        law!(a.plus(a) == *a, "claimed + idempotence fails on {a}");
    }
    if K::POSITIVE && a.plus(b).is_zero() {
        law!(
            a.is_zero() && b.is_zero(),
            "claimed positivity fails on {a}, {b}"
        );
    }
    Ok(())
}

/// Checks that the `as_nat`/`from_nat` pair is coherent on a sample.
pub fn check_nat_embedding<K: CommutativeSemiring>(a: &K, n: u64) -> Result<(), String> {
    if let Some(m) = a.as_nat() {
        law!(
            K::from_nat(m) == *a,
            "as_nat({a}) = {m} but from_nat({m}) differs"
        );
    }
    if K::HAS_HOM_TO_NAT {
        // On a semiring with a homomorphism to ℕ the canonical ℕ-image must
        // count faithfully, so round-tripping n must succeed.
        law!(
            K::from_nat(n).as_nat() == Some(n),
            "ℕ-image of {n} does not round-trip"
        );
    }
    Ok(())
}

/// Checks the δ-semiring laws (Definition 3.6) on a sample.
pub fn check_delta<K: DeltaSemiring>(a: &K, n: u64) -> Result<(), String> {
    law!(K::zero().delta().is_zero(), "δ(0) ≠ 0");
    if n >= 1 {
        law!(K::from_nat(n).delta().is_one(), "δ({n}·1) ≠ 1");
    }
    // Coherence with the optional native_delta hook.
    if let Some(d) = a.native_delta() {
        law!(d == a.delta(), "native_delta disagrees with delta on {a}");
    }
    Ok(())
}

/// Checks the six `K`-semimodule laws of Definition 2.1 on samples.
pub fn check_semimodule<K: CommutativeSemiring, W: Semimodule<K>>(
    w: &W,
    k1: &K,
    k2: &K,
    v1: &W::Vector,
    v2: &W::Vector,
) -> Result<(), String> {
    // (1) k ∗ (w1 + w2) = k ∗ w1 + k ∗ w2
    law!(
        w.scale(k1, &w.add(v1, v2)) == w.add(&w.scale(k1, v1), &w.scale(k1, v2)),
        "law (1) fails for {k1}, {v1:?}, {v2:?}"
    );
    // (2) k ∗ 0 = 0
    law!(w.scale(k1, &w.zero()) == w.zero(), "law (2) fails for {k1}");
    // (3) (k1 + k2) ∗ w = k1 ∗ w + k2 ∗ w
    law!(
        w.scale(&k1.plus(k2), v1) == w.add(&w.scale(k1, v1), &w.scale(k2, v1)),
        "law (3) fails for {k1}, {k2}, {v1:?}"
    );
    // (4) 0 ∗ w = 0
    law!(
        w.scale(&K::zero(), v1) == w.zero(),
        "law (4) fails for {v1:?}"
    );
    // (5) (k1 · k2) ∗ w = k1 ∗ (k2 ∗ w)
    law!(
        w.scale(&k1.times(k2), v1) == w.scale(k1, &w.scale(k2, v1)),
        "law (5) fails for {k1}, {k2}, {v1:?}"
    );
    // (6) 1 ∗ w = w
    law!(w.scale(&K::one(), v1) == *v1, "law (6) fails for {v1:?}");
    // The vectors also form a commutative monoid.
    law!(
        w.add(v1, v2) == w.add(v2, v1),
        "vector + commutativity fails"
    );
    law!(w.add(v1, &w.zero()) == *v1, "vector + identity fails");
    Ok(())
}

/// Checks the semiring-homomorphism laws on a sample pair.
pub fn check_hom<A, B>(h: &impl crate::hom::SemiringHom<A, B>, a: &A, b: &A) -> Result<(), String>
where
    A: CommutativeSemiring,
    B: CommutativeSemiring,
{
    law!(h.apply(&A::zero()).is_zero(), "h(0) ≠ 0");
    law!(h.apply(&A::one()).is_one(), "h(1) ≠ 1");
    law!(
        h.apply(&a.plus(b)) == h.apply(a).plus(&h.apply(b)),
        "h(a+b) ≠ h(a)+h(b) on {a}, {b}"
    );
    law!(
        h.apply(&a.times(b)) == h.apply(a).times(&h.apply(b)),
        "h(a·b) ≠ h(a)·h(b) on {a}, {b}"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Const;
    use crate::hom::FnHom;
    use crate::monoid::MonoidKind;
    use crate::semiring::{Bool, IntZ, Nat, Security, Tropical, Viterbi};

    #[test]
    fn builtin_monoids_satisfy_laws() {
        let samples = [Const::int(-3), Const::int(0), Const::int(7), Const::int(42)];
        for kind in [
            MonoidKind::Sum,
            MonoidKind::Min,
            MonoidKind::Max,
            MonoidKind::Prod,
        ] {
            for a in &samples {
                for b in &samples {
                    for c in &samples {
                        check_monoid(&kind, a, b, c).unwrap();
                    }
                }
            }
        }
        let bools = [Const::Bool(false), Const::Bool(true)];
        for a in &bools {
            for b in &bools {
                for c in &bools {
                    check_monoid(&MonoidKind::Or, a, b, c).unwrap();
                }
            }
        }
    }

    #[test]
    fn builtin_semirings_satisfy_laws() {
        fn exhaust<K: CommutativeSemiring>(samples: &[K]) {
            for a in samples {
                for b in samples {
                    for c in samples {
                        check_semiring(a, b, c).unwrap();
                    }
                    check_nat_embedding(a, 5).unwrap();
                }
            }
        }
        exhaust(&[Bool(false), Bool(true)]);
        exhaust(&[Nat(0), Nat(1), Nat(2), Nat(7)]);
        exhaust(&[IntZ(-2), IntZ(0), IntZ(1), IntZ(3)]);
        exhaust(&Security::ALL);
        exhaust(&[Tropical::Inf, Tropical::Fin(0), Tropical::Fin(4)]);
        exhaust(&[
            Viterbi::zero(),
            Viterbi::one(),
            Viterbi::ratio(1, 2),
            Viterbi::ratio(2, 3),
        ]);
    }

    #[test]
    fn builtin_deltas_satisfy_laws() {
        for n in 0..4 {
            check_delta(&Nat(3), n).unwrap();
            check_delta(&Bool(true), n).unwrap();
            check_delta(&Security::Secret, n).unwrap();
            check_delta(&Tropical::Fin(2), n).unwrap();
            check_delta(&IntZ(-5), n).unwrap();
        }
    }

    #[test]
    fn support_map_is_a_hom_nat_to_bool() {
        let h = FnHom(|n: &Nat| Bool(n.0 != 0));
        for a in [Nat(0), Nat(1), Nat(5)] {
            for b in [Nat(0), Nat(2)] {
                check_hom(&h, &a, &b).unwrap();
            }
        }
    }

    #[test]
    fn doubling_is_not_a_hom() {
        let h = FnHom(|n: &Nat| Nat(n.0 * 2));
        assert!(check_hom(&h, &Nat(1), &Nat(1)).is_err());
    }
}
