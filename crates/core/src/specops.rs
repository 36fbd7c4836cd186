//! The literal §4.3 specification operators — the retained reference
//! (naive) execution path.
//!
//! Each operator here computes output annotations exactly as the paper
//! writes them: a sum over *all* support tuples weighted by per-attribute
//! equality tokens, with no ground/symbolic partitioning, no hash indexes
//! and no structural fast paths. That makes the implementations quadratic
//! in general — deliberately so. This module is the oracle that the
//! hash-partitioned physical operators in [`crate::ops`] are
//! property-tested against (`hash_vs_spec` proptests) and benchmarked
//! against (`hash_vs_naive`); both paths must produce bit-identical
//! relations.

use crate::annotation::AggAnnotation;
use crate::km::CmpPred;
use crate::ops::{from_map, group_by_layout, insert_distinct, AggSpec, MKRel};
use crate::value::Value;
use aggprov_algebra::domain::Const;
use aggprov_algebra::tensor::Tensor;
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::{Tuple, TupleRef};
use aggprov_krel::schema::Schema;
use std::collections::BTreeMap;

// The three literal helpers. `ops` has its own, optimized, forms of each
// (a k-way sum, `ι`-free accumulation, a lazy token product); the oracle
// keeps the paper's wording so that it pins them rather than runs them.

/// `Σ` by the literal rule: a plain left fold of `+_K`.
fn sum_many<A: AggAnnotation>(items: Vec<A>) -> A {
    items.iter().fold(A::zero(), |acc, k| acc.plus(k))
}

/// `terms[i] += k ∗ t(sidx[i])` per spec by the literal rule: the value
/// embeds through `ι` (a constant `c` becomes `1_K ⊗ c`) and every simple
/// tensor of it is multiplied by `k`.
fn accumulate_specs<A: AggAnnotation>(
    t: TupleRef<'_, Value<A>>,
    specs: &[AggSpec<'_>],
    sidx: &[usize],
    terms: &mut [Vec<(A, Const)>],
    k: &A,
) -> Result<()> {
    for ((spec, si), acc) in specs.iter().zip(sidx).zip(terms.iter_mut()) {
        let tv = t.get(*si).to_tensor(spec.kind)?;
        for (ki, e) in tv.terms() {
            let prod = k.times(ki);
            if !prod.is_zero() {
                acc.push((prod, e.clone()));
            }
        }
    }
    Ok(())
}

/// `Π_u [t'(u) = t(u)]` by the literal rule: the product starts at `1_K`
/// and takes one token per position, left to right, stopping at a `0`.
fn tuple_eq_token<A: AggAnnotation>(
    a: TupleRef<'_, Value<A>>,
    b: TupleRef<'_, Value<A>>,
    positions: &[usize],
) -> Result<A> {
    let mut acc = A::one();
    for &i in positions {
        let tok = A::value_eq(a.get(i), b.get(i))?;
        if tok.is_zero() {
            return Ok(A::zero());
        }
        acc = acc.times(&tok);
    }
    Ok(acc)
}

/// The extended annotation lookup `R(t)` by the literal §4.3 rule:
/// `Σ_{t' ∈ supp(R)} R(t') · Π_u [t'(u) = t(u)]` — the token-weighted sum
/// over *all* support tuples, with no structural fast path for the
/// all-ground case.
pub fn annotation_at<'t, A: AggAnnotation + 't>(
    rel: &MKRel<A>,
    t: impl Into<TupleRef<'t, Value<A>>>,
) -> Result<A> {
    let t = t.into();
    let positions: Vec<usize> = (0..rel.schema().arity()).collect();
    let mut parts = Vec::new();
    for (t2, k2) in rel.iter() {
        let tok = tuple_eq_token(t2, t, &positions)?;
        let part = k2.times(&tok);
        if !part.is_zero() {
            parts.push(part);
        }
    }
    Ok(sum_many(parts))
}

/// Union by the literal §4.3 rule: every output tuple sums contributions
/// from *all* input tuples weighted by equality tokens.
pub fn union<A: AggAnnotation>(r1: &MKRel<A>, r2: &MKRel<A>) -> Result<MKRel<A>> {
    if r1.schema() != r2.schema() {
        return Err(RelError::SchemaMismatch {
            left: r1.schema().to_string(),
            right: r2.schema().to_string(),
            op: "union",
        });
    }
    let all_positions: Vec<usize> = (0..r1.schema().arity()).collect();
    let mut out = BTreeMap::new();
    for (t, _) in r1.iter().chain(r2.iter()) {
        if out.contains_key(t.values()) {
            continue;
        }
        let mut parts = Vec::new();
        for (t2, k2) in r1.iter().chain(r2.iter()) {
            let tok = tuple_eq_token(t2, t, &all_positions)?;
            if tok.is_zero() {
                continue;
            }
            let part = k2.times(&tok);
            if !part.is_zero() {
                parts.push(part);
            }
        }
        insert_distinct(&mut out, t.to_tuple(), sum_many(parts));
    }
    from_map(r1.schema().clone(), out)
}

/// Projection `Π_{U'}` by the literal §4.3 rule: annotations sum over all
/// tuples weighted by tokens on the projected attributes.
pub fn project<A: AggAnnotation>(rel: &MKRel<A>, attrs: &[&str]) -> Result<MKRel<A>> {
    let positions = rel.schema().indices_of(attrs)?;
    let schema = rel.schema().project(attrs)?;
    let all: Vec<usize> = (0..positions.len()).collect();
    let mut out = BTreeMap::new();
    for (t, _) in rel.iter() {
        let proj = t.project(&positions);
        if out.contains_key(&proj) {
            continue;
        }
        let mut parts = Vec::new();
        for (t2, k2) in rel.iter() {
            let tok = tuple_eq_token((&t2.project(&positions)).into(), (&proj).into(), &all)?;
            if tok.is_zero() {
                continue;
            }
            let part = k2.times(&tok);
            if !part.is_zero() {
                parts.push(part);
            }
        }
        insert_distinct(&mut out, proj, sum_many(parts));
    }
    from_map(schema, out)
}

/// Value-based join on attribute pairs by the literal §4.3 rule: a full
/// nested loop, `R₁(t|U₁) · R₂(t|U₂) · Π [t(u₁ᵢ) = t(u₂ᵢ)]` per pair.
pub fn join_on<A: AggAnnotation>(
    r1: &MKRel<A>,
    r2: &MKRel<A>,
    on: &[(&str, &str)],
) -> Result<MKRel<A>> {
    if !r1.schema().shared_with(r2.schema()).is_empty() {
        return Err(RelError::SchemaMismatch {
            left: r1.schema().to_string(),
            right: r2.schema().to_string(),
            op: "join_on (schemas must be disjoint; rename first)",
        });
    }
    let left: Vec<usize> = on
        .iter()
        .map(|(a, _)| r1.schema().index_of(a))
        .collect::<Result<_>>()?;
    let right: Vec<usize> = on
        .iter()
        .map(|(_, b)| r2.schema().index_of(b))
        .collect::<Result<_>>()?;
    let schema = r1.schema().concat(r2.schema())?;
    let mut out = BTreeMap::new();
    for (t1, k1) in r1.iter() {
        for (t2, k2) in r2.iter() {
            let mut tok = A::one();
            for (i, j) in left.iter().zip(&right) {
                if tok.is_zero() {
                    break;
                }
                tok = tok.times(&A::value_eq(t1.get(*i), t2.get(*j))?);
            }
            if tok.is_zero() {
                continue;
            }
            insert_distinct(&mut out, t1.concat(t2.values()), k1.times(k2).times(&tok));
        }
    }
    from_map(schema, out)
}

/// Generic tokened selection by the literal §4.3 rule: every tuple's
/// annotation is multiplied by its token, with no `0`/`1` shortcuts.
pub fn select_with_token<A: AggAnnotation>(
    rel: &MKRel<A>,
    token: impl Fn(&Schema, &Tuple<Value<A>>) -> Result<A>,
) -> Result<MKRel<A>> {
    let mut out = BTreeMap::new();
    for (t, k) in rel.iter() {
        let t = t.to_tuple();
        let tok = token(rel.schema(), &t)?;
        insert_distinct(&mut out, t, k.times(&tok));
    }
    from_map(rel.schema().clone(), out)
}

/// Selection `σ_{u = v}` by the literal §4.3 rule:
/// `(σ R)(t) = R(t) · [t(u) = v]`.
pub fn select_eq<A: AggAnnotation>(
    rel: &MKRel<A>,
    attr: &str,
    value: &Value<A>,
) -> Result<MKRel<A>> {
    let idx = rel.schema().index_of(attr)?;
    select_with_token(rel, |_, t| A::value_eq(t.get(idx), value))
}

/// Selection `σ_{u1 = u2}` between two attributes by the literal §4.3
/// rule.
pub fn select_attrs_eq<A: AggAnnotation>(
    rel: &MKRel<A>,
    attr1: &str,
    attr2: &str,
) -> Result<MKRel<A>> {
    let i = rel.schema().index_of(attr1)?;
    let j = rel.schema().index_of(attr2)?;
    select_with_token(rel, |_, t| A::value_eq(t.get(i), t.get(j)))
}

/// Selection `σ_{u ⋈ v}` against a value with an order/inequality
/// predicate, by the literal comparison-token rule.
pub fn select_cmp<A: AggAnnotation>(
    rel: &MKRel<A>,
    attr: &str,
    pred: CmpPred,
    value: &Value<A>,
) -> Result<MKRel<A>> {
    let idx = rel.schema().index_of(attr)?;
    select_with_token(rel, |_, t| A::value_cmp(pred, t.get(idx), value))
}

/// Selection `σ_{u1 ⋈ u2}` between two attributes with an
/// order/inequality predicate, by the literal comparison-token rule.
pub fn select_attrs_cmp<A: AggAnnotation>(
    rel: &MKRel<A>,
    attr1: &str,
    pred: CmpPred,
    attr2: &str,
) -> Result<MKRel<A>> {
    let i = rel.schema().index_of(attr1)?;
    let j = rel.schema().index_of(attr2)?;
    select_with_token(rel, |_, t| A::value_cmp(pred, t.get(i), t.get(j)))
}

/// Classical selection `σ_P` over constant attributes: keep or drop per
/// tuple. Fails, like the physical operator, if the predicate must
/// inspect a symbolic aggregate.
pub fn select_where<A: AggAnnotation>(
    rel: &MKRel<A>,
    pred: impl Fn(&Schema, &Tuple<Value<A>>) -> Result<bool>,
) -> Result<MKRel<A>> {
    let mut out = BTreeMap::new();
    for (t, k) in rel.iter() {
        let t = t.to_tuple();
        if pred(rel.schema(), &t)? {
            insert_distinct(&mut out, t, k.clone());
        }
    }
    from_map(rel.schema().clone(), out)
}

/// Cartesian product — [`join_on`] with no comparison pairs (the token
/// product over an empty set is `1`).
pub fn product<A: AggAnnotation>(r1: &MKRel<A>, r2: &MKRel<A>) -> Result<MKRel<A>> {
    join_on(r1, r2, &[])
}

/// Natural join on the shared attributes by the literal rule: a full
/// nested loop multiplying equality tokens on every shared column, the
/// right side's shared columns dropped from the output. Shares the
/// physical operator's domain: shared columns must be constant-valued
/// (rename and use [`join_on`] for symbolic join keys).
pub fn natural_join<A: AggAnnotation>(r1: &MKRel<A>, r2: &MKRel<A>) -> Result<MKRel<A>> {
    let shared = r1.schema().shared_with(r2.schema());
    let i1: Vec<usize> = shared
        .iter()
        .map(|a| r1.schema().index_of(a.name()))
        .collect::<Result<_>>()?;
    let i2: Vec<usize> = shared
        .iter()
        .map(|a| r2.schema().index_of(a.name()))
        .collect::<Result<_>>()?;
    for (rel, idx) in [(r1, &i1), (r2, &i2)] {
        for (t, _) in rel.iter() {
            if let Some((_, a)) = idx.iter().zip(&shared).find(|(i, _)| t.get(**i).is_agg()) {
                return Err(RelError::Unsupported(format!(
                    "natural join on symbolic aggregate column `{a}`; \
                     rename and use join_on"
                )));
            }
        }
    }
    let keep2: Vec<usize> = (0..r2.schema().arity())
        .filter(|j| !i2.contains(j))
        .collect();
    let mut names: Vec<&str> = r1.schema().attrs().iter().map(|a| a.name()).collect();
    names.extend(
        r2.schema()
            .attrs()
            .iter()
            .enumerate()
            .filter(|(j, _)| keep2.contains(j))
            .map(|(_, a)| a.name()),
    );
    let schema = Schema::new(names)?;
    let mut out = BTreeMap::new();
    for (t1, k1) in r1.iter() {
        for (t2, k2) in r2.iter() {
            let mut tok = A::one();
            for (i, j) in i1.iter().zip(&i2) {
                if tok.is_zero() {
                    break;
                }
                tok = tok.times(&A::value_eq(t1.get(*i), t2.get(*j))?);
            }
            if tok.is_zero() {
                continue;
            }
            let mut row: Vec<Value<A>> = t1.values().to_vec();
            row.extend(
                t2.values()
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| keep2.contains(j))
                    .map(|(_, v)| v.clone()),
            );
            insert_distinct(&mut out, Tuple::new(row), k1.times(k2).times(&tok));
        }
    }
    from_map(schema, out)
}

/// Single-spec whole-relation aggregation — [`agg_all`] with one spec.
pub fn agg<A: AggAnnotation>(rel: &MKRel<A>, spec: AggSpec<'_>) -> Result<MKRel<A>> {
    agg_all(rel, &[spec])
}

/// Whole-relation aggregation by the literal §3.2 rule: one output tuple,
/// annotated `1`, value `Σ_{t' ∈ supp(R)} R(t') ∗ t'(u)` per spec — a
/// fold over the support, every value through `ι`.
pub fn agg_all<A: AggAnnotation>(rel: &MKRel<A>, specs: &[AggSpec<'_>]) -> Result<MKRel<A>> {
    let sidx: Vec<usize> = specs
        .iter()
        .map(|s| rel.schema().index_of(s.attr))
        .collect::<Result<_>>()?;
    let mut terms: Vec<Vec<(A, Const)>> = vec![Vec::new(); specs.len()];
    for (t, k) in rel.iter() {
        accumulate_specs(t, specs, &sidx, &mut terms, k)?;
    }
    let schema = Schema::new(specs.iter().map(|s| s.out))?;
    let row: Vec<Value<A>> = specs
        .iter()
        .zip(terms)
        .map(|(spec, ts)| Value::agg_normalized(spec.kind, Tensor::from_terms(&spec.kind, ts)))
        .collect();
    let mut out = BTreeMap::new();
    insert_distinct(&mut out, Tuple::new(row), A::one());
    from_map(schema, out)
}

/// `GB_{U', specs}(R)` by the literal §4.3 rule: every distinct group key
/// is a candidate group and membership of *every* tuple is weighted by
/// equality tokens on the grouping attributes.
pub fn group_by<A: AggAnnotation>(
    rel: &MKRel<A>,
    group_attrs: &[&str],
    specs: &[AggSpec<'_>],
) -> Result<MKRel<A>> {
    let (gidx, sidx, schema) = group_by_layout(rel, group_attrs, specs)?;
    let all: Vec<usize> = (0..gidx.len()).collect();
    let mut out = BTreeMap::new();
    let mut seen: Vec<Tuple<Value<A>>> = Vec::new();
    for (t, _) in rel.iter() {
        let g = t.project(&gidx);
        if seen.contains(&g) {
            continue;
        }
        seen.push(g.clone());
        let mut anns: Vec<A> = Vec::new();
        let mut terms: Vec<Vec<(A, aggprov_algebra::domain::Const)>> =
            vec![Vec::new(); specs.len()];
        for (t2, k2) in rel.iter() {
            let tok = tuple_eq_token((&t2.project(&gidx)).into(), (&g).into(), &all)?;
            if tok.is_zero() {
                continue;
            }
            let coeff = k2.times(&tok);
            if coeff.is_zero() {
                continue;
            }
            accumulate_specs(t2, specs, &sidx, &mut terms, &coeff)?;
            anns.push(coeff);
        }
        let total = sum_many(anns);
        let mut row: Vec<Value<A>> = g.values().to_vec();
        for (spec, ts) in specs.iter().zip(terms) {
            row.push(Value::agg_normalized(
                spec.kind,
                Tensor::from_terms(&spec.kind, ts),
            ));
        }
        insert_distinct(&mut out, Tuple::new(row), total.delta());
    }
    from_map(schema, out)
}

/// Incremental group-state fold by the literal one-tuple-at-a-time rule:
/// each delta tuple is folded individually, the touched state row found by
/// a linear scan — no per-group batching, no hash or map lookups. The
/// physical [`crate::ops::group_state_update`] must agree bit for bit
/// under any batch decomposition (accumulators stay in canonical normal
/// form, so summation order cannot show).
pub fn group_state_update<A: AggAnnotation>(
    state: &MKRel<A>,
    delta: &MKRel<A>,
    group_attrs: &[&str],
    specs: &[AggSpec<'_>],
) -> Result<MKRel<A>> {
    let (gidx, sidx, schema) = group_by_layout(delta, group_attrs, specs)?;
    if state.schema() != &schema {
        return Err(RelError::SchemaMismatch {
            left: state.schema().to_string(),
            right: schema.to_string(),
            op: "group_state_update",
        });
    }
    let key_positions: Vec<usize> = (0..group_attrs.len()).collect();
    let n_keys = group_attrs.len();
    let mut out = state.clone();
    for (t, k) in delta.iter() {
        let g = t.project(&gidx);
        if g.values().iter().any(Value::is_agg) {
            return Err(RelError::Unsupported(
                "group_state_update: symbolic group key in delta — incremental \
                 grouping is defined on ground keys only"
                    .to_string(),
            ));
        }
        let mut terms: Vec<Vec<(A, Const)>> = vec![Vec::new(); specs.len()];
        accumulate_specs(t, specs, &sidx, &mut terms, k)?;
        let old = out
            .iter()
            .find(|(t2, _)| t2.project(&key_positions) == g)
            .map(|(t2, _)| t2.to_tuple());
        let mut row: Vec<Value<A>> = g.values().to_vec();
        let ann = match old {
            Some(old_t) => {
                let old_ann = out.remove(&old_t).unwrap_or_else(A::zero);
                for ((spec, cell), ts) in specs
                    .iter()
                    .zip(old_t.values().iter().skip(n_keys))
                    .zip(terms)
                {
                    let merged = cell
                        .to_tensor(spec.kind)?
                        .add(&Tensor::from_terms(&spec.kind, ts), &spec.kind);
                    row.push(Value::Agg(spec.kind, merged));
                }
                old_ann.plus(k)
            }
            None => {
                for (spec, ts) in specs.iter().zip(terms) {
                    row.push(Value::Agg(spec.kind, Tensor::from_terms(&spec.kind, ts)));
                }
                k.clone()
            }
        };
        out.add(Tuple::new(row), ann)?;
    }
    Ok(out)
}

/// Group-state rendering — already a literal per-row map in the physical
/// layer (δ on the annotation, re-normalization on every aggregate cell),
/// so spec and physical paths coincide, like [`agg_all`].
pub fn delta_collapse<A: AggAnnotation>(state: &MKRel<A>) -> Result<MKRel<A>> {
    crate::ops::delta_collapse(state)
}
