//! `K`-relations and the positive relational algebra (paper §2.1 and
//! Appendix A, after Green, Karvounarakis & Tannen, PODS 2007).
//!
//! A `K`-relation is a function `R : D^U → K` of finite support. We store
//! the support as an ordered map from tuples to (non-zero) annotations, so
//! iteration order, equality and rendering are deterministic.
//!
//! The value type `V` is generic: plain relations use
//! [`Const`](aggprov_algebra::domain::Const); the aggregate-provenance layer
//! instantiates `V` with values that may contain tensor expressions.

use crate::error::{RelError, Result};
use crate::schema::Schema;
use aggprov_algebra::semiring::CommutativeSemiring;
use std::collections::{BTreeMap, HashMap};
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

/// A `K`-relation: a schema plus a finite-support map from tuples to
/// non-zero annotations.
///
/// The tuple store sits behind an [`Arc`]: cloning a relation (a plan
/// `Scan`, a rename, a set-op alignment) shares the base data, and the
/// first mutation of a shared relation copies it out — copy-on-write. A
/// prepared statement re-executed with different `$n` parameters therefore
/// never duplicates its base tables.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation<K, V> {
    schema: Schema,
    tuples: Arc<BTreeMap<Tuple<V>, K>>,
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
            tuples: Arc::new(BTreeMap::new()),
        }
    }

    /// Builds a relation from `(row, annotation)` pairs; repeated rows sum.
    pub fn from_rows<R>(schema: Schema, rows: impl IntoIterator<Item = (R, K)>) -> Result<Self>
    where
        R: Into<Vec<V>>,
    {
        let mut rel = Relation::empty(schema);
        for (row, k) in rows {
            rel.insert(row, k)?;
        }
        Ok(rel)
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
        if !self.tuples.contains_key(t) {
            // Avoid cloning a shared store just to remove nothing.
            return None;
        }
        Arc::make_mut(&mut self.tuples).remove(t)
    }

    fn add_tuple(&mut self, t: Tuple<V>, k: K) {
        if k.is_zero() {
            return;
        }
        // Copy-on-write: clones the store only if it is currently shared.
        match Arc::make_mut(&mut self.tuples).entry(t) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(k);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let sum = e.get().plus(&k);
                if sum.is_zero() {
                    e.remove();
                } else {
                    *e.get_mut() = sum;
                }
            }
        }
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
        self.tuples.is_empty()
    }

    /// Iterates over the support with annotations.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple<V>, &K)> {
        self.tuples.iter()
    }

    /// True iff the two relations share the same physical tuple store
    /// (copy-on-write diagnostics; sharing implies equal support).
    pub fn shares_tuples_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.tuples, &other.tuples)
    }

    /// True iff another handle (a snapshot, a cached plan input, a reader
    /// thread) aliases this tuple store, i.e. the next mutation through
    /// this handle will copy the store out instead of editing in place.
    ///
    /// Epoch-snapshot diagnostics for the serving layer: a freshly
    /// published epoch whose tables all report `false` proves the writer
    /// holds the only reference and mutations stay O(log n); `true` means
    /// some reader still pins the previous epoch's storage.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.tuples) > 1
    }

    /// Builds a relation directly from a map of **distinct** tuples,
    /// reusing the map as the tuple store (no per-tuple re-insertion).
    /// Zero annotations are dropped to maintain the finite-support
    /// invariant; every tuple's arity is checked against the schema.
    ///
    /// This is the merge step of partition-parallel operators: shards
    /// produce disjoint sorted runs, the caller folds them into one
    /// `BTreeMap`, and the map becomes the relation wholesale.
    pub fn from_tuple_map(schema: Schema, mut tuples: BTreeMap<Tuple<V>, K>) -> Result<Self> {
        if let Some(t) = tuples.keys().find(|t| t.arity() != schema.arity()) {
            return Err(RelError::ArityMismatch {
                expected: schema.arity(),
                got: t.arity(),
            });
        }
        tuples.retain(|_, k| !k.is_zero());
        Ok(Relation {
            schema,
            tuples: Arc::new(tuples),
        })
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
        let mut out = self.clone();
        for (t, k) in other.tuples.iter() {
            out.add_tuple(t.clone(), k.clone());
        }
        Ok(out)
    }

    /// Projection: `(Π_{U'} R)(t) = Σ { R(t') : t'|_{U'} = t }`.
    pub fn project(&self, attrs: &[&str]) -> Result<Self> {
        let indices = self.schema.indices_of(attrs)?;
        let schema = self.schema.project(attrs)?;
        let mut out = Relation::empty(schema);
        for (t, k) in self.tuples.iter() {
            out.add_tuple(t.project(&indices), k.clone());
        }
        Ok(out)
    }

    /// Selection with a boolean predicate: `(σ_P R)(t) = R(t) · P(t)` where
    /// `P(t) ∈ {0_K, 1_K}`.
    pub fn select(&self, pred: impl Fn(&Schema, &Tuple<V>) -> bool) -> Self {
        let mut out = Relation::empty(self.schema.clone());
        for (t, k) in self.tuples.iter() {
            if pred(&self.schema, t) {
                out.add_tuple(t.clone(), k.clone());
            }
        }
        out
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
        for (t, k) in other.tuples.iter() {
            index
                .entry(t.project(&right_keys))
                .or_default()
                .push((t, k));
        }

        let mut out = Relation::empty(schema);
        for (t, k) in self.tuples.iter() {
            let key = t.project(&left_keys);
            if let Some(matches) = index.get(&key) {
                for (t2, k2) in matches {
                    let extra: Vec<V> = right_extra.iter().map(|i| t2.get(*i).clone()).collect();
                    out.add_tuple(t.concat(&extra), k.times(k2));
                }
            }
        }
        Ok(out)
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
        let mut out = Relation::empty(self.schema.clone());
        for (t, k) in self.tuples.iter() {
            out.add_tuple(t.clone(), h(k));
        }
        out
    }

    /// Maps tuple values (e.g. applying `h^M` inside aggregate values);
    /// colliding images merge by `+_K`.
    pub fn map_values<V2: Clone + Ord + Hash + fmt::Debug>(
        &self,
        f: &mut impl FnMut(&V) -> V2,
    ) -> Relation<K, V2> {
        let mut out = Relation::empty(self.schema.clone());
        for (t, k) in self.tuples.iter() {
            out.add_tuple(
                Tuple::new(t.values().iter().map(&mut *f).collect::<Vec<_>>()),
                k.clone(),
            );
        }
        out
    }

    /// Total annotation size under a user-supplied measure (for the
    /// overhead experiments).
    pub fn annotation_size(&self, measure: impl Fn(&K) -> usize) -> usize {
        self.tuples.values().map(measure).sum()
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
        for (t, k) in self.tuples.iter() {
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
    fn from_tuple_map_wraps_without_reinsertion() {
        let r = figure_1a();
        let map: BTreeMap<_, _> = r.iter().map(|(t, k)| (t.clone(), k.clone())).collect();
        let rebuilt = Relation::from_tuple_map(r.schema().clone(), map).unwrap();
        assert_eq!(rebuilt, r);
        // Zero annotations are dropped; arity mismatches are errors.
        let mut map = BTreeMap::new();
        map.insert(Tuple::from([Const::int(1)]), Nat(0));
        map.insert(Tuple::from([Const::int(2)]), Nat(3));
        let rel = Relation::from_tuple_map(s(&["a"]), map).unwrap();
        assert_eq!(rel.len(), 1);
        let mut bad = BTreeMap::new();
        bad.insert(Tuple::from([Const::int(1), Const::int(2)]), Nat(1));
        assert!(Relation::from_tuple_map(s(&["a"]), bad).is_err());
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
