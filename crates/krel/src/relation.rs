//! `K`-relations and the positive relational algebra (paper §2.1 and
//! Appendix A, after Green, Karvounarakis & Tannen, PODS 2007).
//!
//! A `K`-relation is a function `R : D^U → K` of finite support. We store
//! the support as rows in tuple order — tuples with their (non-zero)
//! annotations — so iteration order, equality and rendering are
//! deterministic.
//!
//! ## The tuple store
//!
//! The rows sit, strictly ascending, in blocks of at most 512 (the private
//! `store` module): the paper's one mutation, `R(t) += k`, is a compare
//! with the last row and a push when `t` is greater than every tuple
//! present — how a table is loaded and how every ascending operator output
//! arrives — and a binary search over the block heads and inside one block
//! otherwise. [`Relation::from_tuples`] is the one bulk builder: rows in
//! any order, appended while they ascend, the rest sorted once (stably)
//! and merged in arrival order by the caller's [`Merge`] rule.
//!
//! A block is row-major: its rows' cells in one buffer, `arity` cells a
//! row, beside one buffer of their annotations — no allocation per row.
//! [`Relation::iter`] hands each row out where it lies, as a
//! [`TupleRef`]; an owned [`Tuple`] is what keys, operator outputs and a
//! batch's fringe rows are, and a row becomes one only through
//! [`TupleRef::to_tuple`]. A tuple and a row with the same values compare,
//! order and hash alike, so a map keyed by tuples is probed with a row's
//! values.
//!
//! The store sits behind one [`Arc`] and every block behind its own, so
//! cloning a relation shares everything, and the first write through a
//! clone copies the block pointers and then one block per block it
//! touches — never the table. Two equal relations built by different
//! routes have different block boundaries, so `==` compares rows.
//!
//! The value type `V` is generic: plain relations use
//! [`Const`](aggprov_algebra::domain::Const); the aggregate-provenance layer
//! instantiates `V` with values that may contain tensor expressions.

use crate::error::{RelError, Result};
use crate::schema::Schema;
use crate::store::{Block, Row, Store};
use aggprov_algebra::semiring::CommutativeSemiring;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// A tuple of values. Cheap to clone (shared storage).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tuple<V>(Arc<[V]>);

impl<V: Clone> Tuple<V> {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Vec<V>>) -> Self {
        Tuple(values.into().into())
    }

    /// The values.
    pub fn values(&self) -> &[V] {
        &self.0
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The value at a position.
    pub fn get(&self, idx: usize) -> &V {
        &self.0[idx]
    }

    /// The restriction `t|_{U'}` to the given positions.
    pub fn project(&self, indices: &[usize]) -> Tuple<V> {
        TupleRef(&self.0).project(indices)
    }

    /// Concatenation (for joins/products).
    pub fn concat(&self, other: &[V]) -> Tuple<V> {
        TupleRef(&self.0).concat(other)
    }
}

/// A tuple and the row it is read from compare, hash and order as one
/// slice, so a map keyed by tuples can be probed with a row.
impl<V> Borrow<[V]> for Tuple<V> {
    fn borrow(&self) -> &[V] {
        &self.0
    }
}

/// Collects the values of a tuple; an iterator of known length (a mapped
/// slice, say) fills the shared storage directly, in one allocation.
impl<V> FromIterator<V> for Tuple<V> {
    fn from_iter<I: IntoIterator<Item = V>>(values: I) -> Self {
        Tuple(values.into_iter().collect())
    }
}

impl<V: Clone, const N: usize> From<[V; N]> for Tuple<V> {
    fn from(values: [V; N]) -> Self {
        Tuple::new(values.to_vec())
    }
}

impl<V: fmt::Display> fmt::Display for Tuple<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        TupleRef(&self.0).fmt(f)
    }
}

/// A row of a [`Relation`], borrowed where the relation's store holds it:
/// what [`Relation::iter`] hands out. It reads as a [`Tuple`] does, and
/// compares, orders and hashes as its slice of values — as the tuple with
/// the same values does; [`to_tuple`](TupleRef::to_tuple) copies it out.
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleRef<'a, V>(&'a [V]);

impl<V> Clone for TupleRef<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for TupleRef<'_, V> {}

impl<'a, V> TupleRef<'a, V> {
    pub(crate) fn new(values: &'a [V]) -> Self {
        TupleRef(values)
    }

    /// The values.
    pub fn values(self) -> &'a [V] {
        self.0
    }

    /// The arity.
    pub fn arity(self) -> usize {
        self.0.len()
    }

    /// The value at a position.
    pub fn get(self, idx: usize) -> &'a V {
        &self.0[idx]
    }
}

impl<V: Clone> TupleRef<'_, V> {
    /// The restriction `t|_{U'}` to the given positions.
    pub fn project(self, indices: &[usize]) -> Tuple<V> {
        indices.iter().map(|i| self.0[*i].clone()).collect()
    }

    /// Concatenation (for joins/products).
    pub fn concat(self, other: &[V]) -> Tuple<V> {
        Tuple(self.0.iter().chain(other.iter()).cloned().collect())
    }

    /// The row as an owned tuple: its values copied into one allocation.
    pub fn to_tuple(self) -> Tuple<V> {
        Tuple(self.0.into())
    }
}

impl<'a, V> From<&'a Tuple<V>> for TupleRef<'a, V> {
    fn from(t: &'a Tuple<V>) -> Self {
        TupleRef(&t.0)
    }
}

impl<V> Borrow<[V]> for TupleRef<'_, V> {
    fn borrow(&self) -> &[V] {
        self.0
    }
}

/// As the tuple with the same values prints.
impl<V: fmt::Debug> fmt::Debug for TupleRef<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Tuple").field(&self.0).finish()
    }
}

impl<V: fmt::Display> fmt::Display for TupleRef<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// How [`Relation::from_tuples`] merges rows that carry equal tuples, in
/// the order they arrive. Zero annotations never enter under either rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// The `K`-relation update `R(t) += k`: annotations add, and a row
    /// whose sum is `0` leaves the support.
    Sum,
    /// The first row stays (paper §4.3: the annotations of colliding
    /// output tuples are equal by construction, so duplicates are
    /// ignored).
    First,
}

/// A `K`-relation: a schema plus a finite-support map from tuples to
/// non-zero annotations.
///
/// The tuple store sits behind an [`Arc`]: cloning a relation (a plan
/// `Scan`, a rename, a set-op alignment) shares the base data, and the
/// first mutation of a shared relation copies out the block it touches,
/// not the table — copy-on-write, per block (see the module docs). A
/// prepared statement re-executed with different `$n` parameters therefore
/// never duplicates its base tables.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation<K, V> {
    schema: Schema,
    tuples: Arc<Store<V, K>>,
}

/// `R(t) += k` on a row that is present: false when the sum is `0`.
fn add_annotation<K: CommutativeSemiring>(old: &mut K, k: K) -> bool {
    *old = old.plus(&k);
    !old.is_zero()
}

/// The one bulk builder behind [`Relation::from_tuples`]: rows are
/// appended for as long as they arrive in ascending order, and from the
/// first row that does not, the rest is collected flat and everything is
/// sorted once, stably, and merged in arrival order under `merge`.
pub(crate) struct Builder<V, K> {
    store: Store<V, K>,
    late: Block<V, K>,
    merge: Merge,
}

impl<V, K> Builder<V, K>
where
    K: CommutativeSemiring,
    V: Clone + Ord,
{
    pub(crate) fn new(arity: usize, merge: Merge) -> Self {
        Builder {
            store: Store::new(arity),
            late: Block::new(arity),
            merge,
        }
    }

    /// Takes one row; a row of another arity is an error.
    pub(crate) fn push_checked(&mut self, row: impl Row<V>, k: K) -> Result<()> {
        let (expected, got) = (self.late.arity(), row.cells().len());
        if got != expected {
            return Err(RelError::ArityMismatch { expected, got });
        }
        self.push(row, k);
        Ok(())
    }

    /// Takes one row of the builder's arity.
    pub(crate) fn push(&mut self, row: impl Row<V>, k: K) {
        if k.is_zero() {
            return;
        }
        if !self.late.is_empty() {
            return self.late.push(row, k);
        }
        match self
            .store
            .last()
            .map_or(Ordering::Greater, |last| row.cells().cmp(last))
        {
            Ordering::Greater => self.store.push(row, k),
            // A repeat of the last row, which first-wins leaves alone.
            Ordering::Equal if self.merge == Merge::First => {}
            Ordering::Equal => self.store.upsert(row, k, add_annotation),
            Ordering::Less => self.late.push(row, k),
        }
    }

    pub(crate) fn finish(self, schema: Schema) -> Relation<K, V> {
        let Builder {
            mut store,
            mut late,
            merge,
        } = self;
        if !late.is_empty() {
            // The head rows arrived first, and go in front of the late ones
            // (first-wins keeps the earlier row); the late block is then
            // sorted where it lies, each row held once.
            store.prepend_to(&mut late);
            store = Store::from_unsorted(
                late,
                |k| std::mem::replace(k, K::zero()),
                |old, k| match merge {
                    Merge::Sum => add_annotation(old, k),
                    Merge::First => true,
                },
            );
        }
        Relation {
            schema,
            tuples: Arc::new(store),
        }
    }
}

impl<K, V> Relation<K, V>
where
    K: CommutativeSemiring,
    V: Clone + Ord + Hash + fmt::Debug,
{
    /// The empty relation `∅_K` over a schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            tuples: Arc::new(Store::new(schema.arity())),
            schema,
        }
    }

    /// Builds a relation from `(row, annotation)` pairs; repeated rows sum.
    /// Each row vector's cells move into the store.
    pub fn from_rows<R>(schema: Schema, rows: impl IntoIterator<Item = (R, K)>) -> Result<Self>
    where
        R: Into<Vec<V>>,
    {
        let mut builder = Builder::new(schema.arity(), Merge::Sum);
        for (row, k) in rows {
            builder.push_checked(row.into(), k)?;
        }
        Ok(builder.finish(schema))
    }

    /// The bulk builder: a relation of `rows` — [`Tuple`]s, borrowed
    /// [`TupleRef`]s, anything that reads as a slice of values, whose
    /// values are copied into the store — which may arrive in any order
    /// and repeat tuples; equal tuples merge in arrival order under
    /// `merge`, and every tuple's arity is checked against the schema.
    ///
    /// Rows are appended for as long as they arrive in ascending order —
    /// a scan, a filter and a materialization keep the order of their
    /// input, so their output never leaves this path — and from the first
    /// row that does not, the rest is collected and everything is sorted
    /// once, stably. No ordered map is built on the way.
    pub fn from_tuples<R: Borrow<[V]>>(
        schema: Schema,
        rows: impl IntoIterator<Item = (R, K)>,
        merge: Merge,
    ) -> Result<Self> {
        let mut builder = Builder::new(schema.arity(), merge);
        for (t, k) in rows {
            builder.push_checked(t.borrow(), k)?;
        }
        Ok(builder.finish(schema))
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Adds `k` to the annotation of a row (the `K`-relation update
    /// `R(t) += k`); rows whose annotation becomes `0` leave the support.
    /// The row vector's cells move into the store.
    pub fn insert(&mut self, row: impl Into<Vec<V>>, k: K) -> Result<()> {
        self.add_row(row.into(), k)
    }

    /// Adds `k` to the annotation of an existing tuple or row (the same
    /// `R(t) += k` update as [`insert`](Relation::insert), its values
    /// copied into the store). Rows whose annotation becomes `0` leave the
    /// support.
    pub fn add(&mut self, t: impl Borrow<[V]>, k: K) -> Result<()> {
        self.add_row(t.borrow(), k)
    }

    fn add_row(&mut self, row: impl Row<V>, k: K) -> Result<()> {
        if row.cells().len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.cells().len(),
            });
        }
        if !k.is_zero() {
            // Copy-on-write: of the block pointers if the store is shared,
            // and of the one block the row lands in if that is.
            Arc::make_mut(&mut self.tuples).upsert(row, k, add_annotation);
        }
        Ok(())
    }

    /// Removes a tuple from the support entirely, returning its annotation
    /// (`None` if it was not present). This is *not* a semiring operation —
    /// semirings have no subtraction — but the primitive that lets a
    /// maintained materialization replace a stale row with its re-collapsed
    /// form.
    pub fn remove(&mut self, t: &(impl Borrow<[V]> + ?Sized)) -> Option<K> {
        let t = t.borrow();
        // Avoid copying anything out of a shared store to remove nothing.
        self.tuples.get(t)?;
        Arc::make_mut(&mut self.tuples).remove(t)
    }

    /// `R(t)`: the annotation of a tuple (`0_K` outside the support).
    pub fn annotation(&self, t: &(impl Borrow<[V]> + ?Sized)) -> K {
        self.tuples.get(t.borrow()).cloned().unwrap_or_else(K::zero)
    }

    /// The support size `|supp(R)|`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the support is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.len() == 0
    }

    /// Iterates over the support with annotations, each row borrowed
    /// where the store holds it.
    pub fn iter(&self) -> impl Iterator<Item = (TupleRef<'_, V>, &K)> {
        self.tuples.iter()
    }

    /// The tuple store, for a batch that reads its annotations in place.
    pub(crate) fn store(&self) -> &Arc<Store<V, K>> {
        &self.tuples
    }

    /// True iff the two relations share the same physical tuple store
    /// (copy-on-write diagnostics; sharing implies equal support).
    pub fn shares_tuples_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.tuples, &other.tuples)
    }

    /// True iff another handle (a snapshot, a cached plan input, a reader
    /// thread) aliases this *whole* tuple store, i.e. the next mutation
    /// through this handle first copies the block pointers out. `false`
    /// does not mean nothing is shared: a writer that has diverged from a
    /// snapshot still shares every block neither side has written, and
    /// pays one block copy the first time it touches each.
    ///
    /// Epoch-snapshot diagnostics for the serving layer: a freshly
    /// published epoch whose tables all report `false` proves the writer
    /// holds the only reference to each store; `true` means some reader
    /// still pins the previous epoch's.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.tuples) > 1
    }

    // ------------------------------------------------------------ algebra

    /// Union: `(R₁ ∪ R₂)(t) = R₁(t) + R₂(t)`.
    pub fn union(&self, other: &Self) -> Result<Self> {
        if self.schema != other.schema {
            return Err(RelError::SchemaMismatch {
                left: self.schema.to_string(),
                right: other.schema.to_string(),
                op: "union",
            });
        }
        let rows = self.iter().chain(other.iter());
        let rows = rows.map(|(t, k)| (t, k.clone()));
        Relation::from_tuples(self.schema.clone(), rows, Merge::Sum)
    }

    /// Projection: `(Π_{U'} R)(t) = Σ { R(t') : t'|_{U'} = t }`.
    pub fn project(&self, attrs: &[&str]) -> Result<Self> {
        let indices = self.schema.indices_of(attrs)?;
        let schema = self.schema.project(attrs)?;
        let mut builder = Builder::new(schema.arity(), Merge::Sum);
        let mut row = Vec::with_capacity(indices.len());
        for (t, k) in self.iter() {
            row.clear();
            row.extend(indices.iter().map(|&i| t.get(i).clone()));
            builder.push(&mut row, k.clone());
        }
        Ok(builder.finish(schema))
    }

    /// Selection with a boolean predicate: `(σ_P R)(t) = R(t) · P(t)` where
    /// `P(t) ∈ {0_K, 1_K}`.
    pub fn select(&self, pred: impl Fn(&Schema, TupleRef<'_, V>) -> bool) -> Self {
        let mut builder = Builder::new(self.schema.arity(), Merge::Sum);
        for (t, k) in self.iter().filter(|(t, _)| pred(&self.schema, *t)) {
            builder.push(t.values(), k.clone());
        }
        builder.finish(self.schema.clone())
    }

    /// Selection of tuples whose attribute equals a constant.
    pub fn select_eq(&self, attr: &str, value: &V) -> Result<Self> {
        let idx = self.schema.index_of(attr)?;
        Ok(self.select(|_, t| t.get(idx) == value))
    }

    /// Natural join: `(R₁ ⋈ R₂)(t) = R₁(t|U₁) · R₂(t|U₂)`.
    pub fn natural_join(&self, other: &Self) -> Result<Self> {
        let shared = self.schema.shared_with(&other.schema);
        let shared_names: Vec<&str> = shared.iter().map(|a| a.name()).collect();
        let left_keys = self.schema.indices_of(&shared_names)?;
        let right_keys = other.schema.indices_of(&shared_names)?;
        // Positions of the other relation's non-shared attributes.
        let right_extra: Vec<usize> = (0..other.schema.arity())
            .filter(|i| !shared_names.contains(&other.schema.attrs()[*i].name()))
            .collect();
        let schema = self.schema.join_with(&other.schema)?;

        // Hash-index the right side by its shared-key projection (build),
        // then stream the left side through it (probe).
        let mut index: HashMap<Tuple<V>, Vec<(TupleRef<'_, V>, &K)>> = HashMap::new();
        for (t, k) in other.iter() {
            index
                .entry(t.project(&right_keys))
                .or_default()
                .push((t, k));
        }

        let mut builder = Builder::new(schema.arity(), Merge::Sum);
        let mut row = Vec::with_capacity(schema.arity());
        for (t, k) in self.iter() {
            let key = t.project(&left_keys);
            for (t2, k2) in index.get(&key).into_iter().flatten() {
                row.clear();
                row.extend_from_slice(t.values());
                row.extend(right_extra.iter().map(|i| t2.get(*i).clone()));
                builder.push(&mut row, k.times(k2));
            }
        }
        Ok(builder.finish(schema))
    }

    /// Cartesian product (natural join with disjoint schemas).
    pub fn product(&self, other: &Self) -> Result<Self> {
        if !self.schema.shared_with(&other.schema).is_empty() {
            return Err(RelError::SchemaMismatch {
                left: self.schema.to_string(),
                right: other.schema.to_string(),
                op: "product (schemas must be disjoint)",
            });
        }
        self.natural_join(other)
    }

    /// Renames one attribute.
    pub fn rename(&self, from: &str, to: &str) -> Result<Self> {
        Ok(Relation {
            schema: self.schema.rename(from, to)?,
            tuples: self.tuples.clone(),
        })
    }

    /// Replaces the whole schema in one step (a simultaneous rename of all
    /// attributes). Unlike a chain of [`Relation::rename`] calls this cannot
    /// collide with existing names, never touches the tuples (it consumes
    /// `self`, so renaming an owned relation is free), and is what
    /// positional operations (SQL set operations, SELECT output naming)
    /// want: `(ρ_{U→U'} R)(t) = R(t)` tuple-for-tuple.
    pub fn with_schema(self, schema: Schema) -> Result<Self> {
        if schema.arity() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: schema.arity(),
            });
        }
        Ok(Relation {
            schema,
            tuples: self.tuples,
        })
    }

    /// Applies a semiring homomorphism to every annotation (`h_Rel`),
    /// renormalizing the support. Commutation of queries with this map is
    /// the paper's Theorem 3.3 (and its §4 extension).
    pub fn map_annotations<K2: CommutativeSemiring>(
        &self,
        h: &mut impl FnMut(&K) -> K2,
    ) -> Relation<K2, V> {
        let mut builder = Builder::new(self.schema.arity(), Merge::Sum);
        for (t, k) in self.iter() {
            builder.push(t.values(), h(k));
        }
        builder.finish(self.schema.clone())
    }

    /// Maps tuple values (e.g. applying `h^M` inside aggregate values);
    /// colliding images merge by `+_K`.
    pub fn map_values<V2: Clone + Ord + Hash + fmt::Debug>(
        &self,
        f: &mut impl FnMut(&V) -> V2,
    ) -> Relation<K, V2> {
        let mut builder = Builder::new(self.schema.arity(), Merge::Sum);
        let mut row = Vec::with_capacity(self.schema.arity());
        for (t, k) in self.iter() {
            row.clear();
            row.extend(t.values().iter().map(&mut *f));
            builder.push(&mut row, k.clone());
        }
        builder.finish(self.schema.clone())
    }

    /// Total annotation size under a user-supplied measure (for the
    /// overhead experiments).
    pub fn annotation_size(&self, measure: impl Fn(&K) -> usize) -> usize {
        self.iter().map(|(_, k)| measure(k)).sum()
    }
}

impl<K, V> fmt::Display for Relation<K, V>
where
    K: CommutativeSemiring,
    V: Clone + Ord + Hash + fmt::Debug + fmt::Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.schema)?;
        for (t, k) in self.iter() {
            writeln!(f, "  {t}  @ {k}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_algebra::domain::Const;
    use aggprov_algebra::poly::NatPoly;
    use aggprov_algebra::semiring::{Bool, Nat};

    fn s(names: &[&str]) -> Schema {
        Schema::new(names.iter().copied()).unwrap()
    }

    fn figure_1a() -> Relation<NatPoly, Const> {
        // EmpId, Dept, Sal with tokens p1..p3, r1, r2 (Figure 1(a)).
        Relation::from_rows(
            s(&["emp", "dept", "sal"]),
            [
                (
                    vec![Const::int(1), Const::str("d1"), Const::int(20)],
                    NatPoly::token("p1"),
                ),
                (
                    vec![Const::int(2), Const::str("d1"), Const::int(10)],
                    NatPoly::token("p2"),
                ),
                (
                    vec![Const::int(3), Const::str("d1"), Const::int(15)],
                    NatPoly::token("p3"),
                ),
                (
                    vec![Const::int(4), Const::str("d2"), Const::int(10)],
                    NatPoly::token("r1"),
                ),
                (
                    vec![Const::int(5), Const::str("d2"), Const::int(15)],
                    NatPoly::token("r2"),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure_1_projection() {
        // Π_Dept R: d1 ↦ p1+p2+p3, d2 ↦ r1+r2 (Figure 1(b)).
        let r = figure_1a();
        let p = r.project(&["dept"]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.annotation(&Tuple::from([Const::str("d1")])),
            NatPoly::token("p1")
                .plus(&NatPoly::token("p2"))
                .plus(&NatPoly::token("p3"))
        );
        assert_eq!(
            p.annotation(&Tuple::from([Const::str("d2")])),
            NatPoly::token("r1").plus(&NatPoly::token("r2"))
        );
    }

    #[test]
    fn figure_1_deletion_propagation() {
        // Setting p3 = r2 = 0 keeps both depts; also deleting r1 drops d2.
        let p = figure_1a().project(&["dept"]).unwrap();
        let del = aggprov_algebra::hom::Valuation::<NatPoly>::ones()
            .set("p3", NatPoly::zero())
            .set("r2", NatPoly::zero())
            .set("p1", NatPoly::token("p1"))
            .set("p2", NatPoly::token("p2"))
            .set("r1", NatPoly::token("r1"));
        let after = p.map_annotations(&mut |k| del.eval(k));
        assert_eq!(
            after.annotation(&Tuple::from([Const::str("d1")])),
            NatPoly::token("p1").plus(&NatPoly::token("p2"))
        );
        let del_more =
            aggprov_algebra::hom::Valuation::<NatPoly>::ones().set("r1", NatPoly::zero());
        let after2 = after.map_annotations(&mut |k| del_more.eval(k));
        assert_eq!(after2.len(), 1, "d2 deleted once r1 = r2 = 0");
    }

    #[test]
    fn union_sums_annotations() {
        let sch = s(&["a"]);
        let r1 = Relation::from_rows(sch.clone(), [([Const::int(1)], Nat(2))]).unwrap();
        let r2 = Relation::from_rows(sch, [([Const::int(1)], Nat(3))]).unwrap();
        let u = r1.union(&r2).unwrap();
        assert_eq!(u.annotation(&Tuple::from([Const::int(1)])), Nat(5));
    }

    #[test]
    fn union_requires_same_schema() {
        let r1: Relation<Nat, Const> = Relation::empty(s(&["a"]));
        let r2 = Relation::empty(s(&["b"]));
        assert!(r1.union(&r2).is_err());
    }

    #[test]
    fn join_multiplies_annotations() {
        let r = Relation::from_rows(
            s(&["a", "b"]),
            [
                (vec![Const::int(1), Const::int(10)], Nat(2)),
                (vec![Const::int(2), Const::int(20)], Nat(1)),
            ],
        )
        .unwrap();
        let q = Relation::from_rows(
            s(&["b", "c"]),
            [
                (vec![Const::int(10), Const::int(100)], Nat(3)),
                (vec![Const::int(10), Const::int(200)], Nat(1)),
            ],
        )
        .unwrap();
        let j = r.natural_join(&q).unwrap();
        assert_eq!(j.schema().to_string(), "a, b, c");
        assert_eq!(j.len(), 2);
        assert_eq!(
            j.annotation(&Tuple::from([
                Const::int(1),
                Const::int(10),
                Const::int(100)
            ])),
            Nat(6)
        );
    }

    #[test]
    fn select_keeps_annotations() {
        let r = figure_1a();
        let sel = r.select_eq("dept", &Const::str("d2")).unwrap();
        assert_eq!(sel.len(), 2);
        assert_eq!(
            sel.annotation(&Tuple::from([
                Const::int(4),
                Const::str("d2"),
                Const::int(10)
            ])),
            NatPoly::token("r1")
        );
    }

    #[test]
    fn zero_annotations_leave_support() {
        let mut r: Relation<Bool, Const> = Relation::empty(s(&["a"]));
        r.insert([Const::int(1)], Bool(false)).unwrap();
        assert!(r.is_empty());
        r.insert([Const::int(1)], Bool(true)).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn product_requires_disjoint_schemas() {
        let r: Relation<Nat, Const> = Relation::empty(s(&["a"]));
        let q = Relation::empty(s(&["a", "b"]));
        assert!(r.product(&q).is_err());
    }

    #[test]
    fn insert_arity_checked() {
        let mut r: Relation<Nat, Const> = Relation::empty(s(&["a", "b"]));
        assert!(r.insert([Const::int(1)], Nat(1)).is_err());
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let mut r = figure_1a();
        let snapshot = r.clone();
        assert!(snapshot.shares_tuples_with(&r), "clone is an Arc share");
        // Schema-level operations keep sharing (rename touches no tuples).
        let renamed = r.rename("sal", "salary").unwrap();
        assert!(renamed.shares_tuples_with(&r));
        let rel = r.clone().with_schema(s(&["a", "b", "c"])).unwrap();
        assert!(rel.shares_tuples_with(&r));
        // The first mutation copies the store out; the snapshot is intact.
        r.insert(
            [Const::int(6), Const::str("d3"), Const::int(5)],
            NatPoly::token("q1"),
        )
        .unwrap();
        assert!(!snapshot.shares_tuples_with(&r));
        assert_eq!(snapshot.len(), 5);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn is_shared_tracks_outstanding_snapshots() {
        let mut r = figure_1a();
        assert!(!r.is_shared(), "sole handle owns its store");
        let snapshot = r.clone();
        assert!(r.is_shared());
        assert!(snapshot.is_shared());
        // The CoW insert diverges the stores: both ends become sole owners.
        r.insert(
            [Const::int(6), Const::str("d3"), Const::int(5)],
            NatPoly::token("q1"),
        )
        .unwrap();
        assert!(!r.is_shared());
        assert!(!snapshot.is_shared());
        drop(snapshot);
        assert!(!r.is_shared());
    }

    /// The serving layer hands relations across threads; keep that a
    /// compile-time guarantee.
    #[test]
    fn stores_and_views_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Relation<NatPoly, Const>>();
        assert_send_sync::<Tuple<Const>>();
    }

    #[test]
    fn from_tuples_builds_without_reinsertion() {
        let r = figure_1a();
        let rows = r.iter().map(|(t, k)| (t, k.clone()));
        let rebuilt = Relation::from_tuples(r.schema().clone(), rows, Merge::First).unwrap();
        assert_eq!(rebuilt, r);
        // Zero annotations are dropped; arity mismatches are errors.
        let rows = [
            (Tuple::from([Const::int(1)]), Nat(0)),
            (Tuple::from([Const::int(2)]), Nat(3)),
        ];
        let rel = Relation::from_tuples(s(&["a"]), rows, Merge::Sum).unwrap();
        assert_eq!(rel.len(), 1);
        let bad = [(Tuple::from([Const::int(1), Const::int(2)]), Nat(1))];
        assert!(Relation::from_tuples(s(&["a"]), bad, Merge::Sum).is_err());
    }

    #[test]
    fn merge_rules_apply_in_arrival_order() {
        let one = |i| Tuple::from([Const::int(i)]);
        let rows = || {
            [
                (one(2), Nat(5)),
                (one(1), Nat(0)),
                (one(1), Nat(7)),
                (one(2), Nat(1)),
            ]
        };
        let sum = Relation::from_tuples(s(&["a"]), rows(), Merge::Sum).unwrap();
        assert_eq!(
            (sum.annotation(&one(1)), sum.annotation(&one(2))),
            (Nat(7), Nat(6))
        );
        // A zero is skipped before it can be "first".
        let first = Relation::from_tuples(s(&["a"]), rows(), Merge::First).unwrap();
        assert_eq!(
            (first.annotation(&one(1)), first.annotation(&one(2))),
            (Nat(7), Nat(5))
        );
        // ℤ: a sum that cancels leaves the support, and a later row re-enters.
        use aggprov_algebra::semiring::IntZ;
        let rows = [
            (one(1), IntZ(2)),
            (one(0), IntZ(1)),
            (one(1), IntZ(-2)),
            (one(1), IntZ(4)),
        ];
        let z = Relation::from_tuples(s(&["a"]), rows, Merge::Sum).unwrap();
        assert_eq!((z.len(), z.annotation(&one(1))), (2, IntZ(4)));
    }

    #[test]
    fn equality_and_debug_are_row_wise() {
        // 1 300 rows by ascending inserts (full blocks, then a tail) and by
        // the sorting bulk path (descending input): different block
        // boundaries, equal relations.
        let row = |i: i64| (Tuple::from([Const::int(i)]), Nat(1));
        let mut grown: Relation<Nat, Const> = Relation::empty(s(&["a"]));
        (0..1300).for_each(|i| grown.add(row(i).0, Nat(1)).unwrap());
        for split in [0, 650] {
            grown.remove(&row(split).0);
            grown.add(row(split).0, Nat(1)).unwrap();
        }
        let bulk = Relation::from_tuples(s(&["a"]), (0..1300).rev().map(row), Merge::Sum).unwrap();
        assert_eq!(grown, bulk);
        assert_eq!(format!("{grown:?}"), format!("{bulk:?}"));
        assert_ne!(grown, bulk.rename("a", "b").unwrap());
        let mut fewer = bulk.clone();
        fewer.remove(&row(7).0);
        assert_ne!(grown, fewer);
        let small = Relation::from_tuples(s(&["a"]), [row(1)], Merge::Sum).unwrap();
        assert_eq!(
            format!("{small:?}"),
            format!(
                "Relation {{ schema: {:?}, tuples: {{{:?}: {:?}}} }}",
                small.schema(),
                row(1).0,
                Nat(1)
            )
        );
    }

    #[test]
    fn map_values_merges_collisions() {
        let r = Relation::from_rows(
            s(&["a"]),
            [([Const::int(1)], Nat(2)), ([Const::int(2)], Nat(3))],
        )
        .unwrap();
        let merged = r.map_values(&mut |_| Const::int(0));
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.annotation(&Tuple::from([Const::int(0)])), Nat(5));
    }
}
