//! Values of `(M, K)`-relations (paper §3.2).
//!
//! The output domain of aggregate queries extends the constant domain `D`
//! with tensor values from `K ⊗ M`: an attribute either holds an ordinary
//! constant or an annotated aggregate expression `Σ kᵢ ⊗ mᵢ`. Plain
//! constants enter tensor positions through the embedding
//! `ι(m) = 1_K ⊗ m`.

use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::semiring::CommutativeSemiring;
use aggprov_algebra::tensor::Tensor;
use aggprov_krel::batch::AsConst;
use aggprov_krel::error::{RelError, Result};
use std::fmt;

/// A value in an `(M, K)`-relation: a constant from `D` or an annotated
/// aggregate expression from `K ⊗ M`. The annotation type `A` is the
/// relation's semiring (for nested aggregation, the extended semiring
/// `K^M`).
///
/// A cell is the size of a `Const` (24 bytes on 64-bit targets): the
/// `Agg` payload is a monoid tag and a one-pointer [`Tensor`] handle,
/// which fit beside `Const`'s own tag, so the variant costs a base table
/// — all constants — nothing.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value<A: Ord> {
    /// An ordinary constant.
    Const(Const),
    /// An aggregate value over the tagged monoid.
    Agg(MonoidKind, Tensor<A, Const>),
}

/// A batch reads a ground row's cell as its constant.
impl<A: CommutativeSemiring> AsConst for Value<A> {
    #[inline]
    fn as_const(&self) -> Option<&Const> {
        Value::as_const(self)
    }
}

impl<A: CommutativeSemiring> Value<A> {
    /// An integer constant.
    pub fn int(n: i64) -> Self {
        Value::Const(Const::int(n))
    }

    /// A string constant.
    pub fn str(s: &str) -> Self {
        Value::Const(Const::str(s))
    }

    /// The constant, if this is one.
    pub fn as_const(&self) -> Option<&Const> {
        match self {
            Value::Const(c) => Some(c),
            Value::Agg(..) => None,
        }
    }

    /// True iff the value is an aggregate expression.
    pub fn is_agg(&self) -> bool {
        matches!(self, Value::Agg(..))
    }

    /// Checks that a constant lies in the carrier of the monoid `kind`.
    pub fn carrier_check(kind: MonoidKind, c: &Const) -> Result<()> {
        let ok = match kind {
            MonoidKind::Or => matches!(c, Const::Bool(_)),
            _ => matches!(c, Const::Num(_)),
        };
        if ok {
            Ok(())
        } else {
            Err(RelError::TypeError(format!(
                "{kind} aggregation over {} value {c}",
                c.type_name()
            )))
        }
    }

    /// Views the value as a tensor of the given monoid kind: constants embed
    /// through `ι`, aggregate values must carry the same kind.
    pub fn to_tensor(&self, kind: MonoidKind) -> Result<Tensor<A, Const>> {
        match self {
            Value::Const(c) => {
                Self::carrier_check(kind, c)?;
                Ok(Tensor::iota(&kind, c.clone()))
            }
            Value::Agg(k, t) => {
                if *k == kind {
                    Ok(t.clone())
                } else {
                    Err(RelError::TypeError(format!(
                        "cannot use a {k} aggregate where a {kind} value is needed"
                    )))
                }
            }
        }
    }

    /// Builds an aggregate value, normalizing: a tensor that resolves to a
    /// unique monoid element (compatible pair, ground coefficients) becomes
    /// the plain constant — "stripping off ι" (paper §3.4).
    pub fn agg_normalized(kind: MonoidKind, t: Tensor<A, Const>) -> Self {
        match t.try_resolve(&kind) {
            Some(c) => Value::Const(c),
            None => Value::Agg(kind, t),
        }
    }

    /// Maps the tensor coefficients through a homomorphism (the value part
    /// of `h_Rel`, paper §3.2), renormalizing so that now-ground aggregates
    /// collapse to constants.
    pub fn map_hom<B: CommutativeSemiring>(&self, h: &mut impl FnMut(&A) -> B) -> Value<B> {
        match self {
            Value::Const(c) => Value::Const(c.clone()),
            Value::Agg(kind, t) => Value::agg_normalized(*kind, t.map_coeffs(kind, h)),
        }
    }

    /// A size measure counting tensor terms (constants cost 1).
    pub fn size(&self) -> usize {
        match self {
            Value::Const(_) => 1,
            Value::Agg(_, t) => 1 + t.len(),
        }
    }
}

impl<A: CommutativeSemiring> From<Const> for Value<A> {
    fn from(c: Const) -> Self {
        Value::Const(c)
    }
}

impl<A: CommutativeSemiring> fmt::Display for Value<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c}"),
            Value::Agg(kind, t) => write!(f, "{kind}⟨{t}⟩"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_algebra::num::Num;
    use aggprov_algebra::poly::NatPoly;
    use aggprov_algebra::semiring::Nat;

    /// Every tuple cell is a `Value`, every row carries a `Km` and every
    /// aggregate a `Tensor`: a ground `Km` is `K` (a base token's one term
    /// inline; the symbolic arm fits in the bytes it leaves free), and a
    /// tensor one shared pointer, so copying a cell never deep-copies
    /// terms.
    #[test]
    fn annotation_carriers_stay_small() {
        use crate::km::Km;
        type Prov = Km<NatPoly>;
        const { assert!(std::mem::size_of::<Prov>() <= 32) };
        const { assert!(std::mem::size_of::<Tensor<Prov, Const>>() <= 8) };
        const { assert!(std::mem::size_of::<Value<Prov>>() <= 24) };
    }

    #[test]
    fn const_embedding_via_iota() {
        let v: Value<NatPoly> = Value::int(20);
        let t = v.to_tensor(MonoidKind::Sum).unwrap();
        assert_eq!(t.to_string(), "1⊗20");
    }

    #[test]
    fn carrier_mismatch_is_error() {
        let v: Value<NatPoly> = Value::str("d1");
        assert!(v.to_tensor(MonoidKind::Sum).is_err());
        let b: Value<NatPoly> = Value::Const(Const::Bool(true));
        assert!(b.to_tensor(MonoidKind::Or).is_ok());
        assert!(b.to_tensor(MonoidKind::Max).is_err());
    }

    #[test]
    fn kind_mismatch_is_error() {
        let t = Tensor::<NatPoly, Const>::iota(&MonoidKind::Sum, Const::int(1));
        let v = Value::Agg(MonoidKind::Sum, t);
        assert!(v.to_tensor(MonoidKind::Max).is_err());
    }

    #[test]
    fn normalization_strips_iota_when_ground() {
        // 2⊗30 over ℕ resolves to the constant 60.
        let t = Tensor::<Nat, Const>::simple(&MonoidKind::Sum, Nat(2), Const::int(30));
        let v = Value::agg_normalized(MonoidKind::Sum, t);
        assert_eq!(v, Value::int(60));
        // Symbolic tensors stay symbolic.
        let t =
            Tensor::<NatPoly, Const>::simple(&MonoidKind::Sum, NatPoly::token("x"), Const::int(30));
        let v = Value::agg_normalized(MonoidKind::Sum, t);
        assert!(v.is_agg());
    }

    #[test]
    fn map_hom_resolves_ground_images() {
        // x⊗30 with x ↦ 2 becomes the constant 60.
        let t =
            Tensor::<NatPoly, Const>::simple(&MonoidKind::Sum, NatPoly::token("x"), Const::int(30));
        let v = Value::Agg(MonoidKind::Sum, t);
        let mapped = v.map_hom(&mut |p| {
            aggprov_algebra::hom::Valuation::<Nat>::ones()
                .set("x", Nat(2))
                .eval(p)
        });
        assert_eq!(mapped, Value::int(60));
    }

    #[test]
    fn empty_sum_tensor_is_zero_constant() {
        let v = Value::<Nat>::agg_normalized(MonoidKind::Sum, Tensor::zero());
        assert_eq!(v, Value::Const(Const::Num(Num::ZERO)));
    }
}
