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
use crate::store::Store;
use aggprov_algebra::semiring::CommutativeSemiring;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
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
        Tuple(indices.iter().map(|i| self.0[*i].clone()).collect())
    }

    /// Concatenation (for joins/products).
    pub fn concat(&self, other: &[V]) -> Tuple<V> {
        Tuple(self.0.iter().chain(other.iter()).cloned().collect())
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
    tuples: Arc<Store<Tuple<V>, K>>,
}

/// `R(t) += k` on a row that is present: false when the sum is `0`.
fn add_annotation<K: CommutativeSemiring>(old: &mut K, k: K) -> bool {
    *old = old.plus(&k);
    !old.is_zero()
}

impl<K, V> Relation<K, V>
where
    K: CommutativeSemiring,
    V: Clone + Ord + Hash + fmt::Debug,
{
    /// The empty relation `∅_K` over a schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: Arc::new(Store::new()),
        }
    }

    /// Builds a relation from `(row, annotation)` pairs; repeated rows sum.
    pub fn from_rows<R>(schema: Schema, rows: impl IntoIterator<Item = (R, K)>) -> Result<Self>
    where
        R: Into<Vec<V>>,
    {
        let rows = rows.into_iter().map(|(row, k)| (Tuple::new(row), k));
        Relation::from_tuples(schema, rows, Merge::Sum)
    }

    /// The bulk builder: a relation of `rows`, which may arrive in any
    /// order and repeat tuples; equal tuples merge in arrival order under
    /// `merge`, and every tuple's arity is checked against the schema.
    ///
    /// Rows are appended for as long as they arrive in ascending order —
    /// a scan, a filter and a materialization keep the order of their
    /// input, so their output never leaves this path — and from the first
    /// row that does not, the rest is collected and everything is sorted
    /// once, stably. No ordered map is built on the way.
    pub fn from_tuples(
        schema: Schema,
        rows: impl IntoIterator<Item = (Tuple<V>, K)>,
        merge: Merge,
    ) -> Result<Self> {
        let expected = schema.arity();
        let mut mismatch = None;
        let checked = rows.into_iter().map_while(|(t, k)| {
            mismatch = (t.arity() != expected).then_some(t.arity());
            mismatch.is_none().then_some((t, k))
        });
        let rel = Relation::build(schema, checked, merge);
        match mismatch {
            Some(got) => Err(RelError::ArityMismatch { expected, got }),
            None => Ok(rel),
        }
    }

    /// [`from_tuples`](Relation::from_tuples) over rows of the schema's
    /// arity.
    fn build(schema: Schema, rows: impl Iterator<Item = (Tuple<V>, K)>, merge: Merge) -> Self {
        let on_equal = |old: &mut K, k: K| match merge {
            Merge::Sum => add_annotation(old, k),
            Merge::First => true,
        };
        let mut store = Store::new();
        let mut late: Vec<(Tuple<V>, K)> = Vec::new();
        for (t, k) in rows {
            if k.is_zero() {
                continue;
            }
            if !late.is_empty() {
                late.push((t, k));
                continue;
            }
            match store.last().map_or(Ordering::Greater, |last| t.cmp(last)) {
                Ordering::Greater => store.push(t, k),
                // A repeat of the last row, which first-wins leaves alone.
                Ordering::Equal if merge == Merge::First => {}
                Ordering::Equal => store.upsert(t, k, add_annotation),
                Ordering::Less => late.push((t, k)),
            }
        }
        if !late.is_empty() {
            let mut all = store.into_rows();
            all.append(&mut late);
            all.sort_by(|a, b| a.0.cmp(&b.0));
            let mut merged: Vec<(Tuple<V>, K)> = Vec::with_capacity(all.len());
            for (t, k) in all {
                match merged.last_mut() {
                    Some((last, old)) if *last == t => {
                        if !on_equal(old, k) {
                            merged.pop();
                        }
                    }
                    _ => merged.push((t, k)),
                }
            }
            store = Store::from_sorted(merged);
        }
        Relation {
            schema,
            tuples: Arc::new(store),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Adds `k` to the annotation of a row (the `K`-relation update
    /// `R(t) += k`); rows whose annotation becomes `0` leave the support.
    pub fn insert(&mut self, row: impl Into<Vec<V>>, k: K) -> Result<()> {
        let row: Vec<V> = row.into();
        if row.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.add_tuple(Tuple::new(row), k);
        Ok(())
    }

    /// Adds `k` to the annotation of an existing [`Tuple`] (the same
    /// `R(t) += k` update as [`insert`](Relation::insert), without
    /// rebuilding the tuple from a row vector). Rows whose annotation
    /// becomes `0` leave the support.
    pub fn add(&mut self, t: Tuple<V>, k: K) -> Result<()> {
        if t.arity() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: t.arity(),
            });
        }
        self.add_tuple(t, k);
        Ok(())
    }

    /// Removes a tuple from the support entirely, returning its annotation
    /// (`None` if it was not present). This is *not* a semiring operation —
    /// semirings have no subtraction — but the primitive that lets a
    /// maintained materialization replace a stale row with its re-collapsed
    /// form.
    pub fn remove(&mut self, t: &Tuple<V>) -> Option<K> {
        // Avoid copying anything out of a shared store to remove nothing.
        self.tuples.get(t)?;
        Arc::make_mut(&mut self.tuples).remove(t)
    }

    fn add_tuple(&mut self, t: Tuple<V>, k: K) {
        if k.is_zero() {
            return;
        }
        // Copy-on-write: of the block pointers if the store is shared, and
        // of the one block the row lands in if that is.
        Arc::make_mut(&mut self.tuples).upsert(t, k, add_annotation);
    }

    /// `R(t)`: the annotation of a tuple (`0_K` outside the support).
    pub fn annotation(&self, t: &Tuple<V>) -> K {
        self.tuples.get(t).cloned().unwrap_or_else(K::zero)
    }

    /// The support size `|supp(R)|`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the support is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.len() == 0
    }

    /// Iterates over the support with annotations.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple<V>, &K)> {
        self.tuples.iter()
    }

    /// The tuple store, for a batch that reads its annotations in place.
    pub(crate) fn store(&self) -> &Arc<Store<Tuple<V>, K>> {
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
        let rows = rows.map(|(t, k)| (t.clone(), k.clone()));
        Ok(Relation::build(self.schema.clone(), rows, Merge::Sum))
    }

    /// Projection: `(Π_{U'} R)(t) = Σ { R(t') : t'|_{U'} = t }`.
    pub fn project(&self, attrs: &[&str]) -> Result<Self> {
        let indices = self.schema.indices_of(attrs)?;
        let schema = self.schema.project(attrs)?;
        let rows = self.iter().map(|(t, k)| (t.project(&indices), k.clone()));
        Ok(Relation::build(schema, rows, Merge::Sum))
    }

    /// Selection with a boolean predicate: `(σ_P R)(t) = R(t) · P(t)` where
    /// `P(t) ∈ {0_K, 1_K}`.
    pub fn select(&self, pred: impl Fn(&Schema, &Tuple<V>) -> bool) -> Self {
        let kept = self.iter().filter(|(t, _)| pred(&self.schema, t));
        let rows = kept.map(|(t, k)| (t.clone(), k.clone()));
        Relation::build(self.schema.clone(), rows, Merge::Sum)
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
        let mut index: HashMap<Tuple<V>, Vec<(&Tuple<V>, &K)>> = HashMap::new();
        for (t, k) in other.iter() {
            index
                .entry(t.project(&right_keys))
                .or_default()
                .push((t, k));
        }

        let rows = self.iter().flat_map(|(t, k)| {
            let matches = index.get(&t.project(&left_keys));
            matches.into_iter().flatten().map(|(t2, k2)| {
                let extra: Vec<V> = right_extra.iter().map(|i| t2.get(*i).clone()).collect();
                (t.concat(&extra), k.times(k2))
            })
        });
        Ok(Relation::build(schema, rows, Merge::Sum))
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
        let rows = self.iter().map(|(t, k)| (t.clone(), h(k)));
        Relation::build(self.schema.clone(), rows, Merge::Sum)
    }

    /// Maps tuple values (e.g. applying `h^M` inside aggregate values);
    /// colliding images merge by `+_K`.
    pub fn map_values<V2: Clone + Ord + Hash + fmt::Debug>(
        &self,
        f: &mut impl FnMut(&V) -> V2,
    ) -> Relation<K, V2> {
        let rows = self.iter().map(|(t, k)| {
            let values: Vec<V2> = t.values().iter().map(&mut *f).collect();
            (Tuple::new(values), k.clone())
        });
        Relation::build(self.schema.clone(), rows, Merge::Sum)
    }

    /// Total annotation size under a user-supplied measure (for the
    /// overhead experiments).
    pub fn annotation_size(&self, measure: impl Fn(&K) -> usize) -> usize {
        self.iter().map(|(_, k)| measure(k)).sum()
    }
}

/// The deterministic shard index of a key: SipHash with the standard
/// library's fixed `DefaultHasher::new()` keys, reduced modulo `n`.
/// Deterministic across runs and processes *of the same build* — unlike
/// `HashMap`'s per-process-seeded state — which is what in-process
/// parallel determinism needs. It is **not** pinned across Rust releases
/// (std reserves the right to change `DefaultHasher`'s algorithm), so a
/// future cross-node deployment must swap in an explicitly keyed hasher
/// before shipping shard assignments between binaries.
pub fn shard_index<H: Hash>(key: &H, n: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % n.max(1) as u64) as usize
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
        let rows = r.iter().map(|(t, k)| (t.clone(), k.clone()));
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
