//! The physical operators. Nothing leaves this module except through
//! [`super`]'s re-exports — the operator table, and the few non-operator
//! items named beside it: a `pub` item neither names fails the build
//! here.

#![deny(unreachable_pub)]

use super::batch::{self, Chunk};
use super::typed::{self, Selection, TupleKey, SHARD_MIN_ROWS};
use crate::annotation::AggAnnotation;
use crate::par::{fan_out, plan_shards, ExecOptions};
use crate::value::Value;
use aggprov_algebra::domain::Const;
use aggprov_algebra::monoid::{CommutativeMonoid, MonoidKind};
use aggprov_algebra::semiring::CommutativeSemiring;
use aggprov_algebra::sort;
use aggprov_algebra::tensor::Tensor;
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::{Merge, Relation, Tuple, TupleRef};
use aggprov_krel::schema::Schema;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// An `(M, K)`-relation: tuples of [`Value`]s annotated with `A`.
pub type MKRel<A> = Relation<A, Value<A>>;

/// The attribute of `COUNT(*)`, in SQL's own spelling: an [`AggSpec`]
/// over it reads no column and aggregates `ι(1)` per support tuple, the
/// cell a column of `1`s would hold. It names no attribute of any schema
/// (one called `*` cannot be aggregated).
pub const STAR: &str = "*";

/// One aggregation request: `kind(attr) AS out`.
#[derive(Clone, Copy, Debug)]
pub struct AggSpec<'a> {
    /// The aggregation monoid.
    pub kind: MonoidKind,
    /// The aggregated attribute, or [`STAR`] — `COUNT(*)`'s `ι(1)` per
    /// tuple (a `Sum` over it counts).
    pub attr: &'a str,
    /// The output attribute name.
    pub out: &'a str,
}

impl<'a> AggSpec<'a> {
    /// An aggregation whose output column keeps the input attribute name.
    pub fn new(kind: MonoidKind, attr: &'a str) -> Self {
        AggSpec {
            kind,
            attr,
            out: attr,
        }
    }
}

/// True iff any tuple contains a symbolic aggregate value.
pub fn has_symbolic<A: AggAnnotation>(rel: &MKRel<A>) -> bool {
    rel.iter()
        .any(|(t, _)| t.values().iter().any(Value::is_agg))
}

/// True iff a tuple holds only constants at the given positions — the
/// ground/symbolic partition criterion of the physical operators.
fn is_ground_at<A: AggAnnotation>(t: TupleRef<'_, Value<A>>, positions: &[usize]) -> bool {
    positions.iter().all(|i| !t.get(*i).is_agg())
}

/// Lifts a plain constant relation into an `(M, K)`-relation.
pub fn lift<A: AggAnnotation>(rel: &Relation<A, Const>) -> MKRel<A> {
    rel.map_values(&mut |c| Value::Const(c.clone()))
}

/// Inserts with the §4.3 collision rule: annotations of colliding tuples
/// are equal by construction, so the first copy is kept. Only the literal
/// oracle ([`crate::specops`]) collects its rows this way — a row-at-a-time
/// ordered map is what it is there to be; the operators here push theirs
/// onto a `Vec` and leave zeros and collisions to [`from_map`].
pub(crate) fn insert_distinct<T: Ord, K: CommutativeSemiring>(
    rows: &mut BTreeMap<T, K>,
    t: T,
    ann: K,
) {
    if !ann.is_zero() {
        rows.entry(t).or_insert(ann);
    }
}

/// The relation of an operator's output `rows` under the §4.3 collision
/// rule: the first of several rows with one tuple stays, zero-annotated
/// rows are dropped, and an arity mismatch surfaces as an error rather
/// than a panic.
pub(crate) fn from_map<A: AggAnnotation, R: Borrow<[Value<A>]>>(
    schema: Schema,
    rows: impl IntoIterator<Item = (R, A)>,
) -> Result<MKRel<A>> {
    Relation::from_tuples(schema, rows, Merge::First)
}

/// The extended annotation lookup, i.e. the §4.3 reading of `R(t)` on
/// relations whose values may be symbolic:
/// `Σ_{t' ∈ supp(R)} R(t') · Π_u [t'(u) = t(u)]`. Coincides with the
/// structural lookup when no symbolic values are present.
pub fn annotation_at<'t, A: AggAnnotation + 't>(
    rel: &MKRel<A>,
    t: impl Into<TupleRef<'t, Value<A>>>,
) -> Result<A> {
    let t = t.into();
    // The structural fast path needs *both* sides ground: a symbolic
    // lookup tuple carries nonzero equality tokens against ground support
    // tuples (and vice versa), so the token-weighted sum below is the only
    // correct reading whenever either side is symbolic.
    if !has_symbolic(rel) && !t.values().iter().any(Value::is_agg) {
        return Ok(rel.annotation(&t));
    }
    let positions: Vec<usize> = (0..rel.schema().arity()).collect();
    let mut contributions = Vec::new();
    for (t2, k2) in rel.iter() {
        push_coefficient(&mut contributions, (t2, k2), t, &positions)?;
    }
    Ok(coefficient_sum(&contributions))
}

/// Accumulates one tuple's per-spec aggregate contributions scaled by
/// `k`: `terms[i] += k ∗ t(sidx[i])` for each spec, walked as one zip so
/// no position is ever out of bounds; a [`STAR`] spec (`sidx[i]` is
/// `None`) reads the constant `1`. The simple tensors are pushed
/// without re-normalizing — the caller builds each tensor once at the end,
/// a single O(n log n) build instead of a merge per tuple. A constant `c`
/// contributes the pair `(k, c)` as it stands: `k ∗ ι(c) = (k·1_K) ⊗ c`,
/// so neither `ι(c)` nor the product with its `1_K` is built — what stays
/// is `ι`'s carrier check, its drop of `0_M`, and `∗`'s drop of a zero
/// `k`. Only a tensor-valued input (nested aggregation) is scaled term by
/// term.
fn accumulate_specs<A: AggAnnotation>(
    t: TupleRef<'_, Value<A>>,
    specs: &[AggSpec<'_>],
    sidx: &[Option<usize>],
    terms: &mut [Vec<(A, Const)>],
    k: &A,
) -> Result<()> {
    let one = Const::int(1);
    for ((spec, si), acc) in specs.iter().zip(sidx).zip(terms.iter_mut()) {
        let c = match si.map(|i| t.get(i)) {
            None => &one,
            Some(Value::Const(c)) => c,
            Some(agg) => {
                for (ki, e) in agg.to_tensor(spec.kind)?.terms() {
                    let prod = k.times(ki);
                    if !prod.is_zero() {
                        acc.push((prod, e.clone()));
                    }
                }
                continue;
            }
        };
        Value::<A>::carrier_check(spec.kind, c)?;
        if !k.is_zero() && *c != spec.kind.zero() {
            acc.push((k.clone(), c.clone()));
        }
    }
    Ok(())
}

/// The product of per-attribute equality tokens `Π_i [a(left[i]) =
/// b(right[i])]`, evaluated left to right with the literal rule's early
/// exit at the first `0` — so a token that cannot be expressed fails here
/// exactly when the literal evaluation reaches it. Two constants compare
/// structurally without building a token, and no `1` is allocated while
/// every factor so far resolved to `1`.
fn tuple_eq_token<A: AggAnnotation>(
    a: TupleRef<'_, Value<A>>,
    left: &[usize],
    b: TupleRef<'_, Value<A>>,
    right: &[usize],
) -> Result<A> {
    let mut acc: Option<A> = None;
    for (&i, &j) in left.iter().zip(right) {
        let tok = match (a.get(i), b.get(j)) {
            (Value::Const(x), Value::Const(y)) if x == y => continue,
            (Value::Const(_), Value::Const(_)) => return Ok(A::zero()),
            (x, y) => A::value_eq(x, y)?,
        };
        if tok.is_zero() {
            return Ok(A::zero());
        }
        if !tok.is_one() {
            acc = Some(match acc {
                Some(acc) => acc.times(&tok),
                None => tok,
            });
        }
    }
    Ok(acc.unwrap_or_else(A::one))
}

// ---------------------------------------------------------------------------
// The keyed token fold (§4.3 items 2, 3 and 7)
// ---------------------------------------------------------------------------

/// A support entry of [`keyed_fold`]: a tuple and its annotation, both
/// borrowed from the input relation. Its operator key is never built: it
/// is the tuple's cells at the fold's key positions, read in place.
type Entry<'a, A> = (TupleRef<'a, Value<A>>, &'a A);

/// One contribution to a candidate key: a support tuple and its non-zero
/// §4.3 coefficient `R(t') · Π_u [key(t')(u) = p(u)]` toward that key.
type Contribution<'a, A> = (TupleRef<'a, Value<A>>, A);

/// A ground bucket of [`keyed_fold`]: a tuple that carries the key (the
/// first member's) and the ground-keyed entries that share it, each tagged
/// with the bucket's dense id, in input order.
type Bucket<'b, 'a, A> = (TupleRef<'a, Value<A>>, &'b [(usize, Entry<'a, A>)]);

/// What a candidate of [`keyed_fold`] meets under one leading run of the
/// index: the symbolic-keyed entries and the ground buckets.
type Neighbours<'b, 'a, A> = (Vec<Entry<'a, A>>, Vec<Bucket<'b, 'a, A>>);

/// An operator key by view: the cells of `t` at `positions`, hashed and
/// compared where they lie. Two views of one map share their positions.
struct KeyView<'a, A: AggAnnotation> {
    t: TupleRef<'a, Value<A>>,
    positions: &'a [usize],
}

impl<A: AggAnnotation> KeyView<'_, A> {
    fn cells(&self) -> impl Iterator<Item = &Value<A>> {
        self.positions.iter().map(|i| self.t.get(*i))
    }
}

impl<A: AggAnnotation> Hash for KeyView<'_, A> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cells().for_each(|v| v.hash(state));
    }
}

impl<A: AggAnnotation> PartialEq for KeyView<'_, A> {
    fn eq(&self, other: &Self) -> bool {
        self.cells().eq(other.cells())
    }
}

impl<A: AggAnnotation> Eq for KeyView<'_, A> {}

/// Appends the coefficients of `members` — support tuples that share the
/// key of `rep` — toward the candidate `p`: the token
/// `Π_u [rep(u) = p(u)]` over the key `positions` is built once per call,
/// vanishing coefficients are dropped.
fn push_coefficients<'a, A: AggAnnotation>(
    out: &mut Vec<Contribution<'a, A>>,
    members: impl Iterator<Item = Entry<'a, A>>,
    rep: TupleRef<'_, Value<A>>,
    p: TupleRef<'_, Value<A>>,
    positions: &[usize],
) -> Result<()> {
    let tok = tuple_eq_token(rep, positions, p, positions)?;
    if tok.is_zero() {
        return Ok(());
    }
    for (t, k) in members {
        let coeff = k.times(&tok);
        if !coeff.is_zero() {
            out.push((t, coeff));
        }
    }
    Ok(())
}

/// [`push_coefficients`] of one entry under its own key.
fn push_coefficient<'a, A: AggAnnotation>(
    out: &mut Vec<Contribution<'a, A>>,
    (t, k): Entry<'a, A>,
    p: TupleRef<'_, Value<A>>,
    positions: &[usize],
) -> Result<()> {
    push_coefficients(out, std::iter::once((t, k)), t, p, positions)
}

/// `Σ coeff` over a candidate's contributions (a single one is its own
/// sum).
fn coefficient_sum<A: AggAnnotation>(contributions: &[Contribution<'_, A>]) -> A {
    match contributions {
        [(_, only)] => only.clone(),
        many => A::sum(many.iter().map(|(_, c)| c.clone()).collect()),
    }
}

/// The first `run` values of a row (all of them, if it is shorter).
fn key_prefix<A: AggAnnotation>(values: &[Value<A>], run: usize) -> &[Value<A>] {
    values.get(..run).unwrap_or(values)
}

/// The §4.3 sum-of-weighted-contributions rule, written once: the key of
/// an entry is its tuple's cells at `positions`, every distinct key `p`
/// among `entries` is a candidate output, every support tuple `t'`
/// contributes to it with the coefficient
/// `R(t') · Π_u [key(t')(u) = p(u)]`, and `finish` turns a candidate — a
/// tuple that carries its key — and its non-zero contributions into the
/// output row and annotation. Rows are kept as `finish` returns them;
/// [`from_map`] drops the zero-annotated ones.
///
/// Physical plan: one serial pass gives every entry with a **ground** key
/// a dense bucket id, from a hash over the borrowed key cells — between
/// constants the token is structural equality, so a bucket's members
/// contribute with coefficient `R(t')` and no other ground tuple
/// contributes at all. No key is built per row: an owned key exists only
/// in the row `finish` builds, once per bucket. Finishing the buckets
/// (including the token-weighted contributions of symbolic-keyed entries —
/// a constant key can equal a symbolic one under a valuation) is where the
/// time goes, and with more than one thread and from [`SHARD_MIN_ROWS`]
/// ground entries on (the join's probe minimum: below it a worker costs
/// more than the work it takes) contiguous ranges of buckets fan out over
/// [`fan_out`]; distinct keys finish into distinct rows, and
/// the ranges' rows are concatenated in range order. Each distinct **symbolic**
/// key then forms its candidate on the sequential token path, against the
/// ground buckets (one token per bucket, not per member) and the
/// symbolic-keyed entries. The result is identical at every thread count.
///
/// Symbolic keys are not a small fringe — every row a `GROUP BY` with a
/// symbolic aggregate emits has one, so a projection over such a result is
/// all symbolic-keyed — and pairing every candidate with every
/// symbolic-keyed entry is quadratic. The **leading-run index** removes
/// the pairs that provably vanish: `run` is the number of key positions,
/// from the first, that hold a constant in *every* symbolic key; symbolic
/// entries and ground buckets are hashed by those `run` cells, and a
/// candidate visits only the entries that agree with it there. Any other
/// pair differs at a position `u < run` where both keys hold constants,
/// and the literal left-to-right product reaches `u` through
/// constant/constant comparisons alone, which cannot fail: the pair
/// contributes `0` and no error, under every [`AggAnnotation`]. With an
/// empty run the index has one bucket and every pair is visited — a key
/// that is symbolic from its first position is all-pairs under §4.3.
fn keyed_fold<'a, A: AggAnnotation + 'a, R: Send + Sync>(
    mut entries: impl Iterator<Item = Entry<'a, A>>,
    positions: &[usize],
    opts: &ExecOptions,
    finish: impl Fn(TupleRef<'a, Value<A>>, &[Contribution<'a, A>]) -> Result<(R, A)> + Sync,
) -> Result<Vec<(R, A)>> {
    let mut ids: HashMap<KeyView<'_, A>, usize> = HashMap::new();
    let mut ground: Vec<(usize, Entry<'a, A>)> = Vec::new();
    let mut sym: Vec<Entry<'a, A>> = Vec::new();
    while let Some((t, k)) = entries.next() {
        if is_ground_at(t, positions) {
            if ground.capacity() == 0 {
                // Sized once, at the first ground entry, for it and every
                // entry after it: an all-symbolic input reserves nothing.
                ground.reserve_exact(entries.size_hint().0 + 1);
            }
            let next = ids.len();
            let id = *ids.entry(KeyView { t, positions }).or_insert(next);
            ground.push((id, (t, k)));
        } else {
            sym.push((t, k));
        }
    }
    // Stable, so a bucket keeps its members in input order.
    sort::sort_by(&mut ground, |a, b| a.0.cmp(&b.0));
    let buckets: Vec<Bucket<'_, 'a, A>> = ground
        .chunk_by(|a, b| a.0 == b.0)
        .filter_map(|members| Some((members.first()?.1 .0, members)))
        .collect();

    // The leading-run index: per run of leading constants that a symbolic
    // key has, the symbolic-keyed entries and the ground buckets under it.
    let run = positions
        .iter()
        .take_while(|u| sym.iter().all(|(t, _)| !t.get(**u).is_agg()))
        .count();
    let prefix = positions.get(..run).unwrap_or(positions);
    let at = |t| KeyView {
        t,
        positions: prefix,
    };
    let mut index: HashMap<KeyView<'_, A>, Neighbours<'_, 'a, A>> = HashMap::new();
    for entry in &sym {
        index.entry(at(entry.0)).or_default().0.push(*entry);
    }
    for bucket in &buckets {
        if let Some((_, ground)) = index.get_mut(&at(bucket.0)) {
            ground.push(*bucket);
        }
    }

    let shards = if ground.len() >= SHARD_MIN_ROWS {
        plan_shards(opts, buckets.len())
    } else {
        1
    };
    let per_shard = buckets.len().div_ceil(shards).max(1);
    let shard_rows = fan_out(buckets.chunks(per_shard).collect(), |shard| {
        let mut rows = Vec::with_capacity(shard.len());
        let mut contributions: Vec<Contribution<'a, A>> = Vec::new();
        for (g, members) in shard {
            contributions.clear();
            contributions.extend(members.iter().map(|(_, (t, k))| (*t, (*k).clone())));
            for (t, k) in index.get(&at(*g)).iter().flat_map(|near| &near.0) {
                push_coefficient(&mut contributions, (*t, *k), *g, positions)?;
            }
            rows.push(finish(*g, &contributions)?);
        }
        Ok(rows)
    })?;
    let mut out: Vec<(R, A)> = shard_rows.into_iter().flatten().collect();

    let mut seen = HashSet::new();
    let mut contributions = Vec::new();
    for (p, _) in &sym {
        if !seen.insert(KeyView { t: *p, positions }) {
            continue;
        }
        let Some((near_sym, near_ground)) = index.get(&at(*p)) else {
            continue;
        };
        contributions.clear();
        for (g, members) in near_ground {
            let members = members.iter().map(|(_, entry)| *entry);
            push_coefficients(&mut contributions, members, *g, *p, positions)?;
        }
        for (t, k) in near_sym {
            push_coefficient(&mut contributions, (*t, *k), *p, positions)?;
        }
        out.push(finish(*p, &contributions)?);
    }
    Ok(out)
}

/// Union (§4.3 item 2): the keyed fold over both supports with the whole
/// tuple as key — with symbolic values, every output tuple sums
/// contributions from *all* input tuples weighted by equality tokens.
/// Single-threaded; see [`union_opts`] for the partition-parallel form.
pub fn union<A: AggAnnotation>(r1: &MKRel<A>, r2: &MKRel<A>) -> Result<MKRel<A>> {
    union_opts(r1, r2, &ExecOptions::serial())
}

/// [`union`] with explicit [`ExecOptions`]: the keyed token fold over
/// both supports, whatever their size or groundness (over ground rows it
/// is the additive merge). The result is identical at every thread count.
pub fn union_opts<A: AggAnnotation>(
    r1: &MKRel<A>,
    r2: &MKRel<A>,
    opts: &ExecOptions,
) -> Result<MKRel<A>> {
    if r1.schema() != r2.schema() {
        return Err(RelError::SchemaMismatch {
            left: r1.schema().to_string(),
            right: r2.schema().to_string(),
            op: "union",
        });
    }
    let whole: Vec<usize> = (0..r1.schema().arity()).collect();
    let entries = r1.iter().chain(r2.iter());
    let out = keyed_fold(entries, &whole, opts, |t, contributions| {
        Ok((t, coefficient_sum(contributions)))
    })?;
    from_map(r1.schema().clone(), out)
}

/// Projection `Π_{U'}` (§4.3 item 3): with symbolic values, annotations
/// sum over all tuples weighted by tokens on the projected attributes.
/// Single-threaded; see [`project_opts`] for the partition-parallel form.
pub fn project<A: AggAnnotation>(rel: &MKRel<A>, attrs: &[&str]) -> Result<MKRel<A>> {
    project_opts(rel, attrs, &ExecOptions::serial())
}

/// [`project`] with explicit [`ExecOptions`]: the engine's projection
/// kernel, [`Chunk::project_opts`], over a chunk of the relation, its
/// output materialized. A fringe-free input picks its columns and merges
/// duplicates additively as it materializes; an input with symbolic rows
/// runs the keyed token fold (`project_fold`). The result is identical
/// at every thread count.
pub fn project_opts<A: AggAnnotation>(
    rel: &MKRel<A>,
    attrs: &[&str],
    opts: &ExecOptions,
) -> Result<MKRel<A>> {
    let positions = rel.schema().indices_of(attrs)?;
    let schema = rel.schema().project(attrs)?;
    Chunk::from_relation(rel)
        .project_opts(&positions, schema, opts)?
        .into_relation()
}

/// The keyed token fold of [`project_opts`], by position: the output rows
/// of `Π_{positions}` (distinct, in range), not yet under a schema. The
/// entry [`batch::Chunk::project_opts`] takes for a chunk with a fringe.
pub(crate) fn project_fold<A: AggAnnotation>(
    rel: &MKRel<A>,
    positions: &[usize],
    opts: &ExecOptions,
) -> Result<Vec<(Tuple<Value<A>>, A)>> {
    keyed_fold(rel.iter(), positions, opts, |t, contributions| {
        Ok((t.project(positions), coefficient_sum(contributions)))
    })
}

// ---------------------------------------------------------------------------
// Selection and join (§4.3 items 4–5)
// ---------------------------------------------------------------------------

/// Selection `σ_{u = v}` against a constant or aggregate value:
/// `(σ R)(t) = R(t) · [t(u) = v]`.
pub fn select_eq<A: AggAnnotation>(
    rel: &MKRel<A>,
    attr: &str,
    value: &Value<A>,
) -> Result<MKRel<A>> {
    let idx = rel.schema().index_of(attr)?;
    select_with_token(rel, |_, t| A::value_eq(t.get(idx), value))
}

/// Selection `σ_{u1 = u2}` comparing two attributes of the same relation.
pub fn select_attrs_eq<A: AggAnnotation>(
    rel: &MKRel<A>,
    attr1: &str,
    attr2: &str,
) -> Result<MKRel<A>> {
    let i = rel.schema().index_of(attr1)?;
    let j = rel.schema().index_of(attr2)?;
    select_with_token(rel, |_, t| A::value_eq(t.get(i), t.get(j)))
}

/// Generic tokened selection: multiplies each tuple's annotation by a
/// caller-computed token (which may be symbolic). This is the §4.3
/// selection rule with an arbitrary condition factory — `select_eq`,
/// `select_cmp` and the engine's WHERE/HAVING all reduce to it.
pub fn select_with_token<A: AggAnnotation>(
    rel: &MKRel<A>,
    token: impl Fn(&Schema, TupleRef<'_, Value<A>>) -> Result<A>,
) -> Result<MKRel<A>> {
    let mut out = Vec::new();
    for (t, k) in rel.iter() {
        let tok = token(rel.schema(), t)?;
        // Ground fast path: a predicate over constants yields `0`/`1`, so
        // the tuple is either dropped or kept verbatim — no semiring
        // multiplication on the hot path.
        if tok.is_zero() {
            continue;
        }
        let ann = if tok.is_one() {
            k.clone()
        } else {
            k.times(&tok)
        };
        out.push((t, ann));
    }
    from_map(rel.schema().clone(), out)
}

/// Selection `σ_{u ⋈ v}` with an order/inequality predicate against a
/// value (the paper's comparison-predicate extension).
pub fn select_cmp<A: AggAnnotation>(
    rel: &MKRel<A>,
    attr: &str,
    pred: crate::km::CmpPred,
    value: &Value<A>,
) -> Result<MKRel<A>> {
    let idx = rel.schema().index_of(attr)?;
    select_with_token(rel, |_, t| A::value_cmp(pred, t.get(idx), value))
}

/// Selection `σ_{u1 ⋈ u2}` comparing two attributes with an
/// order/inequality predicate.
pub fn select_attrs_cmp<A: AggAnnotation>(
    rel: &MKRel<A>,
    attr1: &str,
    pred: crate::km::CmpPred,
    attr2: &str,
) -> Result<MKRel<A>> {
    let i = rel.schema().index_of(attr1)?;
    let j = rel.schema().index_of(attr2)?;
    select_with_token(rel, |_, t| A::value_cmp(pred, t.get(i), t.get(j)))
}

/// Selection by an arbitrary predicate on constant attributes (classical
/// `σ_P`). Fails if the predicate needs to inspect a symbolic aggregate.
pub fn select_where<A: AggAnnotation>(
    rel: &MKRel<A>,
    pred: impl Fn(&Schema, &Tuple<Value<A>>) -> Result<bool>,
) -> Result<MKRel<A>> {
    let mut out = Vec::new();
    for (t, k) in rel.iter() {
        let t = t.to_tuple();
        if pred(rel.schema(), &t)? {
            out.push((t, k.clone()));
        }
    }
    from_map(rel.schema().clone(), out)
}

/// Value-based join on attribute pairs (schemas must be disjoint):
/// `R₁(t|U₁) · R₂(t|U₂) · Π [t(u₁ᵢ) = t(u₂ᵢ)]`. Single-threaded; see
/// [`join_on_opts`] for the partition-parallel form.
pub fn join_on<A: AggAnnotation>(
    r1: &MKRel<A>,
    r2: &MKRel<A>,
    on: &[(&str, &str)],
) -> Result<MKRel<A>> {
    join_on_opts(r1, r2, on, &ExecOptions::serial())
}

/// [`join_on`] with explicit [`ExecOptions`]: the engine's join kernel,
/// [`batch::hash_join`], over chunks of both relations, its
/// output materialized. Two fringe-free sides take the columnar join;
/// a symbolic row on either side sends both through `join_at`. With no
/// keys every pair matches: the Cartesian product. The result is
/// identical at every thread count.
pub fn join_on_opts<A: AggAnnotation>(
    r1: &MKRel<A>,
    r2: &MKRel<A>,
    on: &[(&str, &str)],
    opts: &ExecOptions,
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
    let on: Vec<(usize, usize)> = left.into_iter().zip(right).collect();
    let (c1, c2) = (Chunk::from_relation(r1), Chunk::from_relation(r2));
    batch::hash_join(c1, c2, &on, schema, opts)?.into_relation()
}

/// The equi-join of two materialized sides by position — key `left[i]`
/// of `r1` against key `right[i]` of `r2` (all in range), the
/// concatenated rows under `schema`: what [`batch::hash_join`] runs when
/// either chunk carries a fringe.
///
/// Each side is partitioned by groundness of its *key* cells. The
/// ground × ground block is the columnar join's, under the same rule:
/// `ops::typed`'s build index over the ground-keyed rows of the side with
/// fewer of them (the right on a tie), probed with the other side's
/// (sharded from its threshold on), so a row with a ground key and a
/// symbolic payload, which no column can hold, is still hashed. Pairs
/// with a symbolic key on either side run the sequential token-weighted
/// nested loop, which therefore costs `O(|G|·|S| + |S|²)` instead of
/// `O(n²)`. The result is identical at every thread count.
pub(crate) fn join_at<A: AggAnnotation>(
    r1: &MKRel<A>,
    r2: &MKRel<A>,
    left: &[usize],
    right: &[usize],
    schema: Schema,
    opts: &ExecOptions,
) -> Result<MKRel<A>> {
    type Side<'a, A> = Vec<(TupleRef<'a, Value<A>>, &'a A)>;
    let (g1, s1): (Side<'_, A>, Side<'_, A>) = r1.iter().partition(|(t, _)| is_ground_at(*t, left));
    let (g2, s2): (Side<'_, A>, Side<'_, A>) =
        r2.iter().partition(|(t, _)| is_ground_at(*t, right));

    let lkeys: Vec<_> = left.iter().map(|&i| TupleKey(&g1, i)).collect();
    let rkeys: Vec<_> = right.iter().map(|&j| TupleKey(&g2, j)).collect();
    let (lsel, rsel) = (
        Selection::new(None, g1.len()),
        Selection::new(None, g2.len()),
    );
    let (lrows, rrows) = typed::join_indexing_smaller(&lkeys, &rkeys, lsel, rsel, opts)?;
    let mut out = Vec::with_capacity(lrows.len());
    for (l, r) in lrows.into_iter().zip(rrows) {
        let (Some((t1, k1)), Some((t2, k2))) = (g1.get(l as usize), g2.get(r as usize)) else {
            return Err(RelError::Internal("join match row out of range".into()));
        };
        out.push((t1.concat(t2.values()), k1.times(k2)));
    }
    // Symbolic fringes: every pair with a symbolic key on at least one side
    // carries a genuine §4.3 token product.
    for (lhs, rhs) in [(&g1, &s2), (&s1, &g2), (&s1, &s2)] {
        for (t1, k1) in lhs.iter() {
            for (t2, k2) in rhs.iter() {
                let tok = tuple_eq_token(*t1, left, *t2, right)?;
                if tok.is_zero() {
                    continue;
                }
                out.push((t1.concat(t2.values()), k1.times(k2).times(&tok)));
            }
        }
    }
    from_map(schema, out)
}

/// Cartesian product (join with no comparisons).
pub fn product<A: AggAnnotation>(r1: &MKRel<A>, r2: &MKRel<A>) -> Result<MKRel<A>> {
    join_on(r1, r2, &[])
}

/// Natural join on the shared attributes. Requires the shared columns to be
/// constant-valued (use [`join_on`] with renaming for symbolic joins); the
/// classical hash build/probe join of
/// [`Relation::natural_join`](aggprov_krel::relation::Relation::natural_join)
/// then applies.
pub fn natural_join<A: AggAnnotation>(r1: &MKRel<A>, r2: &MKRel<A>) -> Result<MKRel<A>> {
    let shared = r1.schema().shared_with(r2.schema());
    for rel in [r1, r2] {
        // One pass per side: resolve the shared positions once, then scan.
        let idx: Vec<usize> = shared
            .iter()
            .map(|a| rel.schema().index_of(a.name()))
            .collect::<Result<_>>()?;
        for (t, _) in rel.iter() {
            if let Some((_, a)) = idx.iter().zip(&shared).find(|(i, _)| t.get(**i).is_agg()) {
                return Err(RelError::Unsupported(format!(
                    "natural join on symbolic aggregate column `{a}`; \
                     rename and use join_on"
                )));
            }
        }
    }
    r1.natural_join(r2)
}

// ---------------------------------------------------------------------------
// Aggregation (§3.2 / §4.3 item 6)
// ---------------------------------------------------------------------------

/// Whole-relation aggregation `AGG_M(R)`: one output tuple, annotated `1`,
/// whose value is `Σ_{t' ∈ supp(R)} R(t') ∗ t'(u)` in `K ⊗ M`.
pub fn agg<A: AggAnnotation>(rel: &MKRel<A>, spec: AggSpec<'_>) -> Result<MKRel<A>> {
    agg_all(rel, &[spec])
}

/// Whole-relation aggregation of several attributes at once: one output
/// tuple, annotated `1`, one tensor value per spec. Like SQL aggregates
/// without `GROUP BY`, the output row exists even for empty input (with
/// value `ι(0_M)`, §3.2).
pub fn agg_all<A: AggAnnotation>(rel: &MKRel<A>, specs: &[AggSpec<'_>]) -> Result<MKRel<A>> {
    agg_entries(rel.iter(), rel.schema(), None, specs)
}

/// [`agg_all`] over support entries read through a column map: the input
/// has `schema`, and its column `i` is cell `columns[i]` of an entry's
/// tuple (`None`: cell `i`). A relation's own rows are its entries; a
/// chunk's are the stored rows it selects, in store order, and equal rows
/// there are distinct entries — by bilinearity `∗` sums them as the
/// additive merge would, and the tensor's normal form does not depend on
/// the order of its terms.
pub(crate) fn agg_entries<'a, A: AggAnnotation + 'a>(
    entries: impl Iterator<Item = Entry<'a, A>>,
    schema: &Schema,
    columns: Option<&[usize]>,
    specs: &[AggSpec<'_>],
) -> Result<MKRel<A>> {
    let sidx = through_specs(columns, spec_positions(schema, specs)?)?;
    let mut terms: Vec<Vec<(A, Const)>> = vec![Vec::new(); specs.len()];
    for (t, k) in entries {
        accumulate_specs(t, specs, &sidx, &mut terms, k)?;
    }
    let tensors: Vec<Tensor<A, Const>> = specs
        .iter()
        .zip(terms)
        .map(|(spec, ts)| Tensor::from_terms(&spec.kind, ts))
        .collect();
    let schema = Schema::new(specs.iter().map(|s| s.out))?;
    let mut out = Relation::empty(schema);
    let row: Vec<Value<A>> = specs
        .iter()
        .zip(tensors)
        .map(|(spec, t)| Value::agg_normalized(spec.kind, t))
        .collect();
    out.insert(row, A::one())?;
    Ok(out)
}

/// Each spec's aggregated position in `schema`: `None` for [`STAR`].
fn spec_positions(schema: &Schema, specs: &[AggSpec<'_>]) -> Result<Vec<Option<usize>>> {
    specs
        .iter()
        .map(|s| {
            (s.attr != STAR)
                .then(|| schema.index_of(s.attr))
                .transpose()
        })
        .collect()
}

/// A position of an input read through a column map (see
/// [`agg_entries`]): position `i` becomes `columns[i]`.
fn through(columns: Option<&[usize]>, i: usize) -> Result<usize> {
    let Some(columns) = columns else {
        return Ok(i);
    };
    columns.get(i).copied().ok_or_else(|| {
        RelError::Internal(format!(
            "column {i} missing from a {}-column map",
            columns.len()
        ))
    })
}

/// [`spec_positions`] read through a column map: [`STAR`] stays `None`.
fn through_specs(
    columns: Option<&[usize]>,
    sidx: Vec<Option<usize>>,
) -> Result<Vec<Option<usize>>> {
    sidx.into_iter()
        .map(|s| s.map(|i| through(columns, i)).transpose())
        .collect()
}

// ---------------------------------------------------------------------------
// Group-by (§3.3 Definition 3.7 / §4.3 item 7)
// ---------------------------------------------------------------------------

/// Validates a grouping request and resolves its layout: grouping
/// positions, aggregated positions, and the output schema
/// `group_attrs ++ [spec.out, …]`. Shared between the physical
/// [`group_by`] and the reference [`crate::specops::group_by`].
pub(crate) fn group_by_layout<A: AggAnnotation>(
    rel: &MKRel<A>,
    group_attrs: &[&str],
    specs: &[AggSpec<'_>],
) -> Result<(Vec<usize>, Vec<Option<usize>>, Schema)> {
    layout(rel.schema(), group_attrs, specs)
}

/// [`group_by_layout`] of an input with `schema`.
fn layout(
    schema: &Schema,
    group_attrs: &[&str],
    specs: &[AggSpec<'_>],
) -> Result<(Vec<usize>, Vec<Option<usize>>, Schema)> {
    let gidx = schema.indices_of(group_attrs)?;
    let sidx = spec_positions(schema, specs)?;
    for (s, si) in specs.iter().zip(&sidx) {
        let Some(si) = si else { continue };
        if group_attrs.contains(&s.attr) || gidx.contains(si) {
            return Err(RelError::Unsupported(format!(
                "attribute `{}` cannot be both grouped and aggregated",
                s.attr
            )));
        }
    }
    let mut names: Vec<String> = group_attrs.iter().map(|a| (*a).to_string()).collect();
    for s in specs {
        names.push(s.out.to_string());
    }
    let schema = Schema::new(names.iter().map(|s| s.as_str()))?;
    Ok((gidx, sidx, schema))
}

/// `GB_{U', specs}(R)`: groups by `group_attrs` and aggregates each spec's
/// attribute. Output schema: `group_attrs ++ [spec.attr, …]`. The group
/// tuple's annotation is `δ(Σ_{t' ∈ group} coeff(t'))` where with symbolic
/// group values `coeff(t') = R(t') · Π_{u ∈ U'} [t'(u) = g(u)]`.
/// Single-threaded; see [`group_by_opts`] for the partition-parallel form.
pub fn group_by<A: AggAnnotation>(
    rel: &MKRel<A>,
    group_attrs: &[&str],
    specs: &[AggSpec<'_>],
) -> Result<MKRel<A>> {
    group_by_opts(rel, group_attrs, specs, &ExecOptions::serial())
}

/// The raw group-state row of one candidate group: the key cells of `g`,
/// then per spec the un-normalized tensor `Σ coeff(t') ∗ t'(attr)`,
/// annotated with the pre-δ sum `Σ coeff(t')`. [`collapse_row`] turns it
/// into the [`group_by`] row.
fn state_row<A: AggAnnotation>(
    g: TupleRef<'_, Value<A>>,
    gidx: &[usize],
    specs: &[AggSpec<'_>],
    sidx: &[Option<usize>],
    contributions: &[Contribution<'_, A>],
) -> Result<(Vec<Value<A>>, A)> {
    let mut terms: Vec<Vec<(A, Const)>> = vec![Vec::new(); specs.len()];
    for (t, coeff) in contributions {
        accumulate_specs(*t, specs, sidx, &mut terms, coeff)?;
    }
    let mut row: Vec<Value<A>> = Vec::with_capacity(gidx.len() + specs.len());
    row.extend(gidx.iter().map(|i| g.get(*i).clone()));
    for (spec, ts) in specs.iter().zip(terms) {
        row.push(Value::Agg(spec.kind, Tensor::from_terms(&spec.kind, ts)));
    }
    Ok((row, coefficient_sum(contributions)))
}

/// Renders one group-state row: every aggregate cell from position
/// `from` on re-normalizes through [`Value::agg_normalized`] (a resolved
/// tensor collapses to its constant) and the annotation takes its δ.
fn collapse_row<A: AggAnnotation>(
    mut row: Vec<Value<A>>,
    from: usize,
    k: &A,
) -> (Tuple<Value<A>>, A) {
    for cell in row.iter_mut().skip(from) {
        if let Value::Agg(kind, tv) = cell {
            *cell = Value::agg_normalized(*kind, tv.clone());
        }
    }
    (Tuple::new(row), k.delta())
}

/// [`group_by`] with explicit [`ExecOptions`]: the keyed token fold with
/// the grouping positions as key. Its finisher builds, per candidate
/// group, the group-state row ([`group_state_update`]'s: one tensor
/// `Σ coeff(t') ∗ t'(attr)` per spec, annotated `Σ coeff(t')`) and renders
/// it as [`delta_collapse`] does — the tensors re-normalized, the
/// annotation `δ(Σ coeff(t'))` — leaving the key cells as they are. The
/// result is identical at every thread count.
pub fn group_by_opts<A: AggAnnotation>(
    rel: &MKRel<A>,
    group_attrs: &[&str],
    specs: &[AggSpec<'_>],
    opts: &ExecOptions,
) -> Result<MKRel<A>> {
    group_by_entries(rel.iter(), rel.schema(), None, group_attrs, specs, opts)
}

/// [`group_by_opts`] over support entries read through a column map, as
/// [`agg_entries`] reads them: the keyed fold's keys and aggregated cells
/// are the entries' cells at the mapped positions. Equal rows among the
/// entries are distinct members of one bucket, and fold to the merged
/// row's value: each contributes its own `k ∗ v`, the tensor's normal
/// form merges equal monoid elements by `+_K`, and `Σ coeff` is canonical.
pub(crate) fn group_by_entries<'a, A: AggAnnotation + 'a>(
    entries: impl Iterator<Item = Entry<'a, A>>,
    schema: &Schema,
    columns: Option<&[usize]>,
    group_attrs: &[&str],
    specs: &[AggSpec<'_>],
    opts: &ExecOptions,
) -> Result<MKRel<A>> {
    let (gidx, sidx, schema) = layout(schema, group_attrs, specs)?;
    let gidx = gidx
        .into_iter()
        .map(|i| through(columns, i))
        .collect::<Result<Vec<_>>>()?;
    let sidx = through_specs(columns, sidx)?;
    let out = keyed_fold(entries, &gidx, opts, |g, contributions| {
        let (row, sum) = state_row(g, &gidx, specs, &sidx, contributions)?;
        Ok(collapse_row(row, gidx.len(), &sum))
    })?;
    from_map(schema, out)
}

// ---------------------------------------------------------------------------
// Incremental grouping deltas (view maintenance)
// ---------------------------------------------------------------------------

/// Folds a delta relation into a **group state** — the pre-δ accumulator
/// behind an incrementally maintained `GROUP BY`.
///
/// A group state for `(group_attrs, specs)` has the same schema as the
/// [`group_by`] output (`group_attrs ++ [spec.out, …]`), but keeps the
/// *raw* accumulators instead of the rendered result: every aggregate
/// cell is the un-normalized tensor `Σ_{t' ∈ group} R(t') ∗ t'(attr)`
/// (never collapsed to a constant) and every annotation is the pre-δ
/// membership sum `Σ_{t' ∈ group} R(t')`. [`delta_collapse`] renders a
/// state into the exact [`group_by`] output.
///
/// The delta is folded by the keyed fold of [`group_by_opts`] with the
/// rendering left off, and the folded rows merge into the state rows of
/// the groups they touch (an empty state has none to look for).
///
/// Because tensors and annotations are kept in canonical normal form
/// (sums merge and re-sort; zero coefficients drop), folding a relation
/// in *any* batch decomposition yields bit-identical state:
/// `fold(update, empty, batches(R)) = update(empty, R)` — the law the
/// `delta_kernel` proptests pin against [`crate::specops`].
///
/// Only ground group keys are supported (an insertion stream into an
/// incrementally maintained view flows through the ground partition);
/// a symbolic key in the delta is an error, because a token-weighted
/// candidate group cannot be attributed to a single state row.
pub fn group_state_update<A: AggAnnotation>(
    state: MKRel<A>,
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
    if delta.iter().any(|(t, _)| !is_ground_at(t, &gidx)) {
        return Err(RelError::Unsupported(
            "group_state_update: symbolic group key in delta — incremental \
             grouping is defined on ground keys only"
                .to_string(),
        ));
    }
    let folded = keyed_fold(
        delta.iter(),
        &gidx,
        &ExecOptions::serial(),
        |g, contributions| {
            let (row, sum) = state_row(g, &gidx, specs, &sidx, contributions)?;
            Ok((Tuple::new(row), sum))
        },
    )?;
    if state.is_empty() {
        return from_map(schema, folded);
    }

    // One pass over the state finds the touched rows, copied out of the
    // state's store; untouched groups are never visited again.
    let n_keys = gidx.len();
    let mut old_rows: HashMap<&[Value<A>], Option<Tuple<Value<A>>>> = folded
        .iter()
        .map(|(row, _)| (key_prefix(row.values(), n_keys), None))
        .collect();
    for (t, _) in state.iter() {
        if let Some(old) = old_rows.get_mut(key_prefix(t.values(), n_keys)) {
            *old = Some(t.to_tuple());
        }
    }

    let mut out = state;
    for (row, sum) in &folded {
        let Some(Some(old_t)) = old_rows.get(key_prefix(row.values(), n_keys)) else {
            // `add` drops zero annotations, so a group whose membership
            // sum cancels never enters the state — matching from-scratch
            // recomputation.
            out.add(row.values(), sum.clone())?;
            continue;
        };
        // Taking the old row out returns its annotation owned — no deep
        // clone of the accumulated sum.
        let old_ann = out.remove(old_t).unwrap_or_else(A::zero);
        let mut merged: Vec<Value<A>> = key_prefix(row.values(), n_keys).to_vec();
        for ((spec, old), new) in specs
            .iter()
            .zip(old_t.values().iter().skip(n_keys))
            .zip(row.values().iter().skip(n_keys))
        {
            let sum = old
                .to_tensor(spec.kind)?
                .add(&new.to_tensor(spec.kind)?, &spec.kind);
            merged.push(Value::Agg(spec.kind, sum));
        }
        out.insert(merged, old_ann.plus(sum))?;
    }
    Ok(out)
}

/// Renders a group state (see [`group_state_update`]) into the exact
/// [`group_by`] output: every aggregate cell re-normalizes through
/// [`Value::agg_normalized`] (a resolved tensor collapses to its
/// constant) and every annotation takes its δ. Rows whose δ is zero
/// (an empty membership sum) leave the result, exactly as an empty
/// candidate group never appears in [`group_by`].
pub fn delta_collapse<A: AggAnnotation>(state: &MKRel<A>) -> Result<MKRel<A>> {
    let rows = state
        .iter()
        .map(|(t, k)| collapse_row(t.values().to_vec(), 0, k));
    from_map(state.schema().clone(), rows)
}
