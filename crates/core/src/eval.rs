//! Homomorphism application and read-off for `(M, K)`-relations.
//!
//! `h_Rel` (paper §3.2/§4.2) maps both the tuple annotations and the tensor
//! coefficients inside values. Colliding tuples keep one copy — see the
//! module documentation of [`crate::ops`] for why the §4.3 semantics makes
//! this the right merge.
//!
//! The read-off functions convert fully-ground annotated relations into the
//! plain bags/sets a database user expects, closing the loop for the
//! set/bag-compatibility experiments.

use crate::annotation::AggAnnotation;
use crate::km::Km;
use crate::ops::MKRel;
use crate::value::Value;
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::semiring::{Bool, CommutativeSemiring, Nat};
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::reference::BagRel;
use aggprov_krel::relation::{Merge, Relation, Tuple, TupleRef};
use std::collections::HashSet;

/// One row under `h_Rel`: `h` on the annotation and on every value
/// coefficient.
fn map_row<A: AggAnnotation, B: AggAnnotation>(
    t: TupleRef<'_, Value<A>>,
    k: &A,
    h: &impl Fn(&A) -> B,
) -> (Tuple<Value<B>>, B) {
    let values: Vec<Value<B>> = t
        .values()
        .iter()
        .map(|v| v.map_hom(&mut |a| h(a)))
        .collect();
    (Tuple::new(values), h(k))
}

/// Applies an annotation map to annotations *and* value coefficients
/// (`h_Rel`). Colliding tuples keep the first annotation (they are equal by
/// the §4.3 construction).
pub fn map_mk<A: AggAnnotation, B: AggAnnotation>(
    rel: &MKRel<A>,
    h: &impl Fn(&A) -> B,
) -> MKRel<B> {
    let rows = rel.iter().map(|(t, k)| map_row(t, k, h));
    Relation::from_tuples(rel.schema().clone(), rows, Merge::First).expect("arity preserved")
}

/// Applies a base-semiring homomorphism under `Km` (the lifting
/// `h^M : K^M → K'^M`), resolving newly-decidable tokens.
pub fn map_hom_mk<K1, K2>(rel: &MKRel<Km<K1>>, h: &impl Fn(&K1) -> K2) -> MKRel<Km<K2>>
where
    K1: CommutativeSemiring,
    K2: CommutativeSemiring,
{
    map_mk(rel, &|km: &Km<K1>| km.map_hom(h))
}

/// True iff `moved` accepts a base element of the row's annotation or of a
/// tensor coefficient in one of its values — the rows a homomorphism that
/// fixes everything `moved` rejects can change.
pub fn row_mentions<K: CommutativeSemiring>(
    t: TupleRef<'_, Value<Km<K>>>,
    k: &Km<K>,
    moved: &impl Fn(&K) -> bool,
) -> bool {
    k.any_base(moved)
        || t.values().iter().any(|v| match v {
            Value::Agg(_, tv) => tv.terms().any(|(a, _)| a.any_base(moved)),
            Value::Const(_) => false,
        })
}

/// [`map_hom_mk`] for an endomorphism `h` of `K` that fixes every element
/// `moved` rejects: a row none of whose annotation and value coefficients
/// is moved is its own image and stays where it is; the others are taken
/// out and their images put back, so the work is one scan plus an edit
/// per touched row, and every block of the store without one stays shared
/// with `rel`. `None` means no row is touched — the relation is its own
/// image and the caller keeps it, store and all.
pub fn map_hom_mk_where<K: CommutativeSemiring>(
    rel: &MKRel<Km<K>>,
    moved: &impl Fn(&K) -> bool,
    h: &impl Fn(&K) -> K,
) -> Option<MKRel<Km<K>>> {
    let lifted = |km: &Km<K>| km.map_hom(h);
    let images: Vec<_> = rel
        .iter()
        .filter(|(t, k)| row_mentions(*t, k, moved))
        .map(|(t, k)| (t.to_tuple(), map_row(t, k, &lifted)))
        .collect();
    if images.is_empty() {
        return None;
    }
    let mut out = rel.clone();
    for (t, _) in &images {
        out.remove(t);
    }
    // Colliding tuples keep the first annotation in `rel`'s order, as
    // `map_mk` does: an image that lands on an untouched row wins only if
    // its source came before that row, and loses to any earlier image.
    let mut placed = HashSet::new();
    for (t, (image, ann)) in images {
        if ann.is_zero() || !placed.insert(image.clone()) {
            continue;
        }
        if t < image {
            out.remove(&image);
        } else if t > image && !out.annotation(&image).is_zero() {
            continue;
        }
        out.add(image, ann).expect("arity preserved");
    }
    Some(out)
}

/// Specializes a provenance-annotated relation under a token valuation —
/// the workhorse for deletion propagation, security views, etc.
pub fn specialize<K2: CommutativeSemiring>(
    rel: &MKRel<Km<aggprov_algebra::poly::NatPoly>>,
    val: &Valuation<K2>,
) -> MKRel<Km<K2>> {
    map_hom_mk(rel, &|p| val.eval(p))
}

/// Collapses a `Km`-annotated relation whose tokens have all resolved into
/// its base-semiring annotated form. Fails if symbolic atoms survive.
pub fn collapse<K: CommutativeSemiring>(rel: &MKRel<Km<K>>) -> Result<MKRel<K>> {
    let mut out = Relation::empty(rel.schema().clone());
    for (t, k) in rel.iter() {
        let base = k.try_collapse().ok_or_else(|| {
            RelError::Unsupported(format!("annotation `{k}` still contains symbolic atoms"))
        })?;
        let values: Vec<Value<K>> = t
            .values()
            .iter()
            .map(|v| -> Result<Value<K>> {
                match v {
                    Value::Const(c) => Ok(Value::Const(c.clone())),
                    Value::Agg(kind, tensor) => {
                        let mut err = None;
                        let mapped = tensor.map_coeffs(kind, &mut |km: &Km<K>| {
                            km.try_collapse().unwrap_or_else(|| {
                                err = Some(km.clone());
                                K::zero()
                            })
                        });
                        if let Some(bad) = err {
                            return Err(RelError::Unsupported(format!(
                                "value coefficient `{bad}` still contains symbolic atoms"
                            )));
                        }
                        Ok(Value::agg_normalized(*kind, mapped))
                    }
                }
            })
            .collect::<Result<_>>()?;
        out.insert(values, base)?;
    }
    Ok(out)
}

/// Reads a fully-ground `ℕ`-annotated relation as a plain bag: every tuple
/// repeated by its multiplicity. Fails on unresolved aggregate values
/// (which cannot occur for relations produced by the operators, since
/// ground tensors normalize to constants).
pub fn read_off_bag(rel: &MKRel<Nat>) -> Result<BagRel> {
    let attrs: Vec<String> = rel
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let mut rows = Vec::new();
    for (t, k) in rel.iter() {
        let row: Vec<aggprov_algebra::domain::Const> = t
            .values()
            .iter()
            .map(|v| {
                v.as_const().cloned().ok_or_else(|| {
                    RelError::Unsupported(format!("unresolved aggregate value `{v}`"))
                })
            })
            .collect::<Result<_>>()?;
        for _ in 0..k.0 {
            rows.push(row.clone());
        }
    }
    let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
    Ok(BagRel::new(&attr_refs, rows))
}

/// Reads a fully-ground `B`-annotated relation as a plain set.
pub fn read_off_set(rel: &MKRel<Bool>) -> Result<BagRel> {
    let attrs: Vec<String> = rel
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let mut rows = Vec::new();
    for (t, k) in rel.iter() {
        debug_assert!(k.0, "support contains only non-zero annotations");
        let row: Vec<aggprov_algebra::domain::Const> = t
            .values()
            .iter()
            .map(|v| {
                v.as_const().cloned().ok_or_else(|| {
                    RelError::Unsupported(format!("unresolved aggregate value `{v}`"))
                })
            })
            .collect::<Result<_>>()?;
        rows.push(row);
    }
    let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
    Ok(BagRel::new(&attr_refs, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{group_by, AggSpec};
    use aggprov_algebra::monoid::MonoidKind;
    use aggprov_algebra::poly::NatPoly;
    use aggprov_krel::schema::Schema;

    type P = Km<NatPoly>;

    fn tok(name: &str) -> P {
        Km::embed(NatPoly::token(name))
    }

    fn grouped() -> MKRel<P> {
        let rel: MKRel<P> = Relation::from_rows(
            Schema::new(["dept", "sal"]).unwrap(),
            [
                (vec![Value::str("d1"), Value::int(20)], tok("r1")),
                (vec![Value::str("d1"), Value::int(10)], tok("r2")),
                (vec![Value::str("d2"), Value::int(10)], tok("r3")),
            ],
        )
        .unwrap();
        group_by(&rel, &["dept"], &[AggSpec::new(MonoidKind::Sum, "sal")]).unwrap()
    }

    #[test]
    fn specialize_resolves_groups() {
        // Example 3.8 continued: r1 ↦ 2, r2 ↦ 1, r3 ↦ 0 gives d1 with
        // 2·20 + 1·10 = 50 and deletes d2's group.
        let out = specialize(
            &grouped(),
            &Valuation::<Nat>::ones()
                .set("r1", Nat(2))
                .set("r2", Nat(1))
                .set("r3", Nat(0)),
        );
        let plain = collapse(&out).unwrap();
        assert_eq!(plain.len(), 1);
        let (t, k) = plain.iter().next().unwrap();
        assert_eq!(t.get(1), &Value::int(50));
        assert_eq!(k, &Nat(1), "δ(2 + 1) = 1");
    }

    #[test]
    fn map_hom_mk_where_maps_only_touched_rows() {
        let rel = grouped();
        let fire = |name: &'static str| {
            map_hom_mk_where(
                &rel,
                &|p: &NatPoly| p.vars().any(|v| v.name() == name),
                &|p: &NatPoly| p.drop_vars(&mut |v| v.name() == name),
            )
        };
        let full = |name: &'static str| {
            map_hom_mk(&rel, &|p: &NatPoly| p.drop_vars(&mut |v| v.name() == name))
        };
        // No row mentions `zz`: nothing to map, the caller keeps `rel`.
        assert!(fire("zz").is_none());
        // Firing r1 touches d1's row only; the result is the full h_Rel image.
        let out = fire("r1").unwrap();
        assert_eq!(out, full("r1"));
        assert_ne!(out, rel);
        // Firing r3 empties d2's group: its row leaves the support.
        let out = fire("r3").unwrap();
        assert_eq!(out, full("r3"));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn map_hom_mk_where_is_the_full_image_from_few_rows_to_all() {
        // 40 single-token rows: firing two of them touches two rows, firing
        // the token they all share touches every one; both are the full
        // `h_Rel` image.
        let rel: MKRel<P> = Relation::from_rows(
            Schema::new(["emp"]).unwrap(),
            (0..40).map(|i| {
                (
                    vec![Value::int(i)],
                    tok(&format!("e{i}")).times(&tok("all")),
                )
            }),
        )
        .unwrap();
        for (fired, left) in [(vec!["e3", "e17"], 38), (vec!["all"], 0)] {
            let gone = |v: &aggprov_algebra::poly::Var| fired.contains(&v.name());
            let h = |p: &NatPoly| p.drop_vars(&mut |v| gone(v));
            let out = map_hom_mk_where(&rel, &|p: &NatPoly| p.vars().any(gone), &h).unwrap();
            assert_eq!(out, map_hom_mk(&rel, &h));
            assert_eq!(out.len(), left);
        }
    }

    #[test]
    fn read_off_bag_expands_multiplicities() {
        let rel: MKRel<Nat> =
            Relation::from_rows(Schema::new(["a"]).unwrap(), [(vec![Value::int(7)], Nat(3))])
                .unwrap();
        let bag = read_off_bag(&rel).unwrap();
        assert_eq!(bag.rows.len(), 3);
    }

    #[test]
    fn collapse_rejects_symbolic_leftovers() {
        assert!(collapse(&grouped()).is_err());
    }
}
