//! Columnar batches over the ground partition of a relation.
//!
//! The row-wise sorted store of [`Relation`] is the right shape
//! for the §4.3 token semantics — symbolic values force sums over the
//! whole support — but it is the wrong shape for the ground hot path,
//! where every equality token is `0`/`1` and execution degenerates to
//! classical columnar work. A [`ColumnBatch`] holds that ground partition
//! column-major: one [`TypedColumn`] per attribute (unboxed `Vec<i64>`
//! for integer runs, dictionary codes for strings, boxed `Vec<Const>` as
//! the fallback — see [`crate::typed`]) plus an annotation column, so a
//! filter touches only the compared columns and a projection is a column
//! remap instead of a per-tuple rebuild.
//!
//! The annotation column has three forms, private to this module. In the
//! paper a selection annotates a kept tuple with `R(t) · P(t)` and a join
//! with `R₁(t₁) · R₂(t₂)` (§2.1, §4.3): a row's annotation is observable
//! only if the row reaches the result, so no form copies or multiplies an
//! annotation before then.
//!
//! * **Shared** — the annotations of the relation the batch was split
//!   from, read in place: an `Arc` on the relation's tuple store, the
//!   store's block-start index, and one support position per ground row
//!   only when a fringe row precedes a ground row. This is the form
//!   [`GroundBatch::from_relation`] builds, so a scan clones no
//!   annotation. An edit of the source relation copies out what it writes
//!   before writing (copy-on-write, see [`Relation`]), so the batch keeps
//!   reading the annotations it was split from.
//! * **Dense** — one annotation per row, for a column a kernel builds
//!   ([`ColumnBatch::from_columns`], or a deferred product multiplied out
//!   by a second join).
//! * A join's **deferred product** — row `r` is
//!   `left[lrows[r]] ⊗ right[rrows[r]]` over the two input columns, each
//!   kept shared or dense as it came ([`ColumnBatch::from_join`]).
//!
//! Who reads them: [`GroundBatch::into_relation_selected`] is the one
//! place annotations leave a batch — a dense column's are moved out, a
//! shared column's selected rows are cloned, a product's selected rows
//! are multiplied, and nothing else is. A join over the batch keeps a
//! shared or dense column as its operand, unread, and multiplies out a
//! product only at the rows its own pairs name. Row-wise equality reads
//! every form through one accessor.
//!
//! [`GroundBatch`] pairs a `ColumnBatch` with the **symbolic fringe** — the
//! rows that hold a non-constant value somewhere — kept row-wise, exactly
//! as they came out of the relation. The split is lossless:
//! [`GroundBatch::from_relation`] followed by [`GroundBatch::into_relation`]
//! reproduces the input relation bit for bit. The vectorized kernels over
//! these batches live in `aggprov_core::ops::batch`; this module is only
//! the container and the conversion.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::error::{RelError, Result};
use crate::relation::{Builder, Merge, Relation, Tuple};
use crate::schema::Schema;
use crate::store::Store;
use crate::typed::{IntoConsts, TypedColumn};
use aggprov_algebra::domain::Const;
use aggprov_algebra::semiring::CommutativeSemiring;
use std::borrow::Cow;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// A column-major batch of fully ground rows: `arity` parallel
/// [`TypedColumn`]s plus one annotation column. Row `r` is
/// `(cols[0][r], …, cols[arity-1][r])` annotated with the column's `r`-th
/// annotation, read in place from the relation the batch was split from,
/// held dense, or held as a join's deferred product (see the module docs).
/// `V` is the value type of that relation.
///
/// A batch is a *bag* of rows — unlike a [`Relation`], equal rows may
/// appear more than once (a pipeline defers the additive merge to its
/// next breaker); [`GroundBatch::into_relation`] merges duplicates
/// additively, which by distributivity agrees with merging eagerly.
///
/// Equality is row-wise: two batches are equal when they hold the same
/// columns and the same annotation on every row, whichever form holds it.
#[derive(Clone, Debug)]
pub struct ColumnBatch<K, V> {
    cols: Vec<TypedColumn>,
    anns: Anns<K, V>,
}

/// The annotation column of a [`ColumnBatch`].
#[derive(Clone, Debug)]
enum Anns<K, V> {
    /// Every row's annotation is stored, in the batch or in its source.
    Stored(Stored<K, V>),
    /// A join's output before its semiring product; boxed, so that a batch
    /// — and every chunk — stays the size of a stored column.
    Product(Box<Product<K, V>>),
}

/// A join's output before its semiring product: row `r` is
/// `left[lrows[r]] ⊗ right[rrows[r]]`, in the eager join's operand order.
/// `lrows` and `rrows` have the same length and index inside `left` and
/// `right` (checked by [`ColumnBatch::from_join`]).
#[derive(Clone, Debug)]
struct Product<K, V> {
    left: Stored<K, V>,
    right: Stored<K, V>,
    lrows: Vec<u32>,
    rrows: Vec<u32>,
}

/// A column whose every row has its annotation stored somewhere to read.
#[derive(Clone, Debug)]
enum Stored<K, V> {
    /// One annotation per row, built by a kernel.
    Dense(Vec<K>),
    /// The annotations of the relation the batch was split from.
    Shared(Shared<K, V>),
}

/// The annotations of the relation a batch was split from, read where
/// they lie: ground row `r` is support position `positions[r]`, or `r`
/// itself when `positions` is `None` (no fringe row precedes a ground
/// row).
#[derive(Clone)]
struct Shared<K, V> {
    store: Arc<Store<V, K>>,
    /// `store.block_starts()`.
    starts: Vec<usize>,
    positions: Option<Vec<u32>>,
    /// The number of ground rows.
    len: usize,
}

/// The row count, not the store: a base table's worth of rows.
impl<K, V> fmt::Debug for Shared<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("len", &self.len)
            .field("positions", &self.positions.is_some())
            .finish_non_exhaustive()
    }
}

impl<K, V> Stored<K, V> {
    fn len(&self) -> usize {
        match self {
            Stored::Dense(v) => v.len(),
            Stored::Shared(s) => s.len,
        }
    }

    /// The annotation of row `r`; `None` past the end.
    fn get(&self, r: usize) -> Option<&K> {
        match self {
            Stored::Dense(v) => v.get(r),
            Stored::Shared(s) => {
                let p = match &s.positions {
                    Some(positions) => *positions.get(r)? as usize,
                    None if r < s.len => r,
                    None => return None,
                };
                s.store.ann_at(&s.starts, p)
            }
        }
    }
}

impl<K: CommutativeSemiring, V> Anns<K, V> {
    fn len(&self) -> usize {
        match self {
            Anns::Stored(s) => s.len(),
            Anns::Product(p) => p.lrows.len(),
        }
    }

    /// The annotation of row `r`, borrowed when it is stored and
    /// multiplied when it is deferred. `None` past the end.
    fn get(&self, r: usize) -> Option<Cow<'_, K>> {
        match self {
            Anns::Stored(s) => s.get(r).map(Cow::Borrowed),
            Anns::Product(p) => {
                let (l, rr) = (*p.lrows.get(r)?, *p.rrows.get(r)?);
                let (l, rr) = (p.left.get(l as usize)?, p.right.get(rr as usize)?);
                Some(Cow::Owned(l.times(rr)))
            }
        }
    }

    /// The annotations of the rows `sel` names (`None` = every row), in
    /// that order. A dense column is consumed: its annotations are moved
    /// out and the rows `sel` skips are freed here. A shared column's
    /// named rows are cloned — the only annotations a scan ever copies —
    /// and a deferred product's are multiplied, here and nowhere else,
    /// into a vector sized up front. `None` if `sel` names a row past the
    /// end.
    fn take(&mut self, sel: Option<&[u32]>) -> Option<Vec<K>> {
        if let Anns::Stored(Stored::Dense(v)) = self {
            let mut v = std::mem::take(v);
            let Some(sel) = sel else { return Some(v) };
            return sel
                .iter()
                .map(|&r| Some(std::mem::replace(v.get_mut(r as usize)?, K::zero())))
                .collect();
        }
        let (named, all) = match sel {
            Some(sel) => (sel, 0),
            None => (&[][..], self.len()),
        };
        let mut out = Vec::with_capacity(named.len() + all);
        for r in named.iter().map(|&r| r as usize).chain(0..all) {
            out.push(self.get(r)?.into_owned());
        }
        Some(out)
    }

    /// The column as a join operand whose rows `named` are paired: a
    /// stored column stays as it is — shared or dense, read only where a
    /// pair is materialized — and a deferred one is multiplied out at the
    /// rows `named` mentions, each once, and is `0` at the others, which
    /// no pair reads. `None` if `named` names a row past the end.
    fn into_operand(self, named: &[u32]) -> Option<Stored<K, V>> {
        if let Anns::Stored(s) = self {
            return Some(s);
        }
        // `0` marks a row not multiplied yet (the zero element allocates
        // nothing). A product that is itself `0` — only in a semiring with
        // zero divisors — is recomputed when named again.
        let mut out = vec![K::zero(); self.len()];
        for &r in named {
            let slot = out.get_mut(r as usize)?;
            if slot.is_zero() {
                *slot = self.get(r as usize)?.into_owned();
            }
        }
        Some(Stored::Dense(out))
    }
}

impl<K: CommutativeSemiring, V> PartialEq for ColumnBatch<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols
            && self.len() == other.len()
            && (0..self.len()).all(|r| self.anns.get(r) == other.anns.get(r))
    }
}

impl<K: CommutativeSemiring, V> Eq for ColumnBatch<K, V> {}

impl<K: CommutativeSemiring, V> ColumnBatch<K, V> {
    /// Builds a batch from pre-assembled columns. All columns and the
    /// annotation vector must have the same length.
    pub fn from_columns(cols: Vec<TypedColumn>, anns: Vec<K>) -> Result<Self> {
        if let Some(c) = cols.iter().find(|c| c.len() != anns.len()) {
            return Err(RelError::ArityMismatch {
                expected: anns.len(),
                got: c.len(),
            });
        }
        Ok(ColumnBatch {
            cols,
            anns: Anns::Stored(Stored::Dense(anns)),
        })
    }

    /// Builds a join's output batch without taking its semiring product:
    /// row `r` holds `cols`' `r`-th values and is annotated
    /// `left[lrows[r]] ⊗ right[rrows[r]]`, where `left` and `right` are the
    /// two input batches' annotation columns — moved in as they are (a
    /// shared column keeps reading its relation's store), and multiplied
    /// only when the row is materialized
    /// ([`GroundBatch::into_relation_selected`]). The inputs' own columns
    /// are dropped: `cols` already holds what the join gathered from them.
    ///
    /// An input that is itself a deferred product is multiplied out first,
    /// at the rows its pairs name and nowhere else, so nested joins never
    /// compute more products than eager ones would.
    ///
    /// `lrows` and `rrows` must have one entry per row of `cols`, and must
    /// index inside `left` and `right`.
    pub fn from_join(
        cols: Vec<TypedColumn>,
        left: ColumnBatch<K, V>,
        lrows: Vec<u32>,
        right: ColumnBatch<K, V>,
        rrows: Vec<u32>,
    ) -> Result<Self> {
        let len = lrows.len();
        if let Some(got) = cols
            .iter()
            .map(TypedColumn::len)
            .chain([rrows.len()])
            .find(|&n| n != len)
        {
            return Err(RelError::ArityMismatch { expected: len, got });
        }
        let out_of_range = || RelError::Internal("join pair names a row past its input".into());
        let fits = |rows: &[u32], n: usize| rows.iter().all(|&r| (r as usize) < n);
        if !fits(&lrows, left.len()) || !fits(&rrows, right.len()) {
            return Err(out_of_range());
        }
        let left = left.anns.into_operand(&lrows).ok_or_else(out_of_range)?;
        let right = right.anns.into_operand(&rrows).ok_or_else(out_of_range)?;
        Ok(ColumnBatch {
            cols,
            anns: Anns::Product(Box::new(Product {
                left,
                right,
                lrows,
                rrows,
            })),
        })
    }

    /// The number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.anns.len()
    }

    /// True iff the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One column, typed. `None` if `i` is out of range.
    pub fn col(&self, i: usize) -> Option<&TypedColumn> {
        self.cols.get(i)
    }

    /// Appends a whole column (e.g. the constant-1 column for COUNT/AVG),
    /// probing its variant from the values. The column must have one
    /// value per row.
    pub fn push_column(&mut self, col: Vec<Const>) -> Result<()> {
        self.push_typed_column(TypedColumn::from_consts(col))
    }

    /// Appends a pre-shaped typed column with one value per row.
    pub fn push_typed_column(&mut self, col: TypedColumn) -> Result<()> {
        if col.len() != self.len() {
            return Err(RelError::ArityMismatch {
                expected: self.len(),
                got: col.len(),
            });
        }
        self.cols.push(col);
        Ok(())
    }

    /// Replaces the columns with what `f` makes of them (e.g. reordered
    /// wholesale through a projection view), keeping the annotation
    /// column as it is. Every returned column must have one value per row.
    pub fn map_columns(
        self,
        f: impl FnOnce(Vec<TypedColumn>) -> Result<Vec<TypedColumn>>,
    ) -> Result<Self> {
        let len = self.len();
        let cols = f(self.cols)?;
        if let Some(c) = cols.iter().find(|c| c.len() != len) {
            return Err(RelError::ArityMismatch {
                expected: len,
                got: c.len(),
            });
        }
        Ok(ColumnBatch {
            cols,
            anns: self.anns,
        })
    }
}

/// A relation split for vectorized execution: the fully ground rows as a
/// [`ColumnBatch`] plus the symbolic fringe as a row-wise side table, in
/// support order on both sides.
#[derive(Clone, Debug)]
pub struct GroundBatch<K, V> {
    ground: ColumnBatch<K, V>,
    fringe: Fringe<K, V>,
}

/// The symbolic rows of a [`GroundBatch`], row-wise.
type Fringe<K, V> = Vec<(Tuple<V>, K)>;

impl<K: CommutativeSemiring, V: PartialEq> PartialEq for GroundBatch<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.ground == other.ground && self.fringe == other.fringe
    }
}

impl<K: CommutativeSemiring, V: Eq> Eq for GroundBatch<K, V> {}

impl<K, V> GroundBatch<K, V>
where
    K: CommutativeSemiring,
    V: Clone + Ord + Hash + fmt::Debug,
{
    /// Splits a relation: rows whose every value reads back as a constant
    /// through `as_const` fill the columnar ground batch (every column
    /// probes its variant from the data, see [`TypedColumn::push`]); the
    /// rest land on the row-wise fringe. Both partitions keep support
    /// order, so the split (composed with [`GroundBatch::into_relation`])
    /// is lossless.
    ///
    /// The ground rows' annotations are not copied: the batch shares the
    /// relation's tuple store and reads them there, by support position
    /// (see the module docs). Fringe rows are cloned, tuple and annotation.
    pub fn from_relation(rel: &Relation<K, V>, as_const: impl Fn(&V) -> Option<&Const>) -> Self {
        let arity = rel.schema().arity();
        let mut cols: Vec<TypedColumn> = (0..arity)
            .map(|_| TypedColumn::Num(Vec::with_capacity(rel.len())))
            .collect();
        let mut ground = 0;
        let mut positions: Option<Vec<u32>> = None;
        let mut fringe = Vec::new();
        // One reused borrow buffer: the groundness check and the column
        // pushes share a single pass over the row's values.
        let mut row: Vec<&Const> = Vec::with_capacity(arity);
        for (p, (t, k)) in rel.iter().enumerate() {
            let vals = t.values();
            row.clear();
            for v in vals {
                match as_const(v) {
                    Some(c) => row.push(c),
                    None => break,
                }
            }
            if row.len() != vals.len() {
                fringe.push((t.to_tuple(), k.clone()));
                continue;
            }
            for (col, c) in cols.iter_mut().zip(&row) {
                col.push((*c).clone());
            }
            // From the first ground row a fringe row precedes on, ground
            // row and support position differ: record every position.
            if p != ground {
                positions
                    .get_or_insert_with(|| {
                        let mut all = Vec::with_capacity(ground + rel.len() - p);
                        all.extend(0..ground as u32);
                        all
                    })
                    .push(p as u32);
            }
            ground += 1;
        }
        let store = rel.store();
        let shared = Shared {
            store: Arc::clone(store),
            starts: store.block_starts(),
            positions,
            len: ground,
        };
        GroundBatch {
            ground: ColumnBatch {
                cols,
                anns: Anns::Stored(Stored::Shared(shared)),
            },
            fringe,
        }
    }

    /// Wraps a batch produced by downstream kernels, with a fringe carried
    /// alongside (possibly empty).
    pub fn from_parts(ground: ColumnBatch<K, V>, fringe: Fringe<K, V>) -> Self {
        GroundBatch { ground, fringe }
    }

    /// The columnar ground partition.
    pub fn ground(&self) -> &ColumnBatch<K, V> {
        &self.ground
    }

    /// The symbolic fringe rows, in support order.
    pub fn fringe(&self) -> &[(Tuple<V>, K)] {
        &self.fringe
    }

    /// True iff no row holds a symbolic value.
    pub fn is_all_ground(&self) -> bool {
        self.fringe.is_empty()
    }

    /// Decomposes into the ground batch and the fringe.
    pub fn into_parts(self) -> (ColumnBatch<K, V>, Fringe<K, V>) {
        (self.ground, self.fringe)
    }

    /// Rebuilds a relation under `schema`: ground rows are lifted back
    /// through `lift` with duplicates merged **additively** (zero sums
    /// leave the support, as in [`Relation::insert`]); fringe rows merge
    /// the same way. For a batch straight out of
    /// [`GroundBatch::from_relation`] there are no duplicates and the round
    /// trip is the identity; for a kernel output, the additive merge *is*
    /// the deferred merge of the pipeline.
    pub fn into_relation(
        self,
        schema: Schema,
        lift: impl Fn(Const) -> V,
    ) -> Result<Relation<K, V>> {
        self.into_relation_selected(schema, lift, None)
    }

    /// [`GroundBatch::into_relation`] restricted to the ground rows named
    /// by a strictly ascending selection vector (`None` = all rows); a
    /// selection that is not ascending or names a row the batch does not
    /// have is an internal error. The selected rows are gathered first, so
    /// the work is proportional to the selection, not to the batch, and
    /// values and dense annotations are **moved** into the relation (an
    /// `Arc` bump for dictionary strings) through [`Relation::from_tuples`]
    /// — a pipeline's final materialization never re-clones what its
    /// kernels already built, and builds no map on the way.
    ///
    /// This is where annotations leave the batch: a shared column's
    /// selected rows are cloned out of the source relation's store, and a
    /// join's deferred product is taken for exactly the selected rows,
    /// `l.times(r)` as the eager join did.
    pub fn into_relation_selected(
        self,
        schema: Schema,
        lift: impl Fn(Const) -> V,
        sel: Option<&[u32]>,
    ) -> Result<Relation<K, V>> {
        if self.ground.arity() != schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: schema.arity(),
                got: self.ground.arity(),
            });
        }
        let ColumnBatch {
            mut cols,
            anns: mut column,
        } = self.ground;
        let nrows = column.len();
        let bad_selection = || {
            RelError::Internal(format!(
                "selection vector not strictly ascending within the batch's {nrows} rows"
            ))
        };
        if let Some(sel) = sel {
            if !sel.is_sorted_by(|a, b| a < b) {
                return Err(bad_selection());
            }
            let gathered = cols.iter().map(|c| c.gather(sel)).collect::<Option<_>>();
            cols = gathered.ok_or_else(bad_selection)?;
        }
        // Every product before any row, as the eager join had them:
        // taking each product beside its row measured ≈ 1 ms slower on an
        // unfiltered 20 000-row join (the tuples then built no longer lay
        // together for the relation's builder to sort).
        let anns = column.take(sel).ok_or_else(bad_selection)?;
        let mut cols: Vec<IntoConsts> = cols.into_iter().map(TypedColumn::into_consts).collect();
        // No allocation per row: each row's cells are collected into one
        // reused buffer and moved from there into the store's blocks. A
        // column that ends early (a corrupt dictionary code) is flagged
        // and padded, and reported afterwards.
        let mut short = false;
        let mut builder = Builder::new(schema.arity(), Merge::Sum);
        let mut row = Vec::with_capacity(schema.arity());
        for k in anns {
            row.clear();
            row.extend(cols.iter_mut().map(|c| {
                lift(c.next().unwrap_or_else(|| {
                    short = true;
                    Const::Bool(false)
                }))
            }));
            builder.push(&mut row, k);
        }
        for (t, k) in self.fringe {
            builder.push_checked(t.values(), k)?;
        }
        let rel = builder.finish(schema);
        // A deferred product's operands — the join inputs' whole annotation
        // columns, where they are dense — are freed only now, with the
        // relation built (a dense column is already empty, a shared one
        // frees no annotation). Freed before the tuples, they left a
        // large block on top of the heap for glibc to trim and the next
        // execute to fault back in: ≈ 1 190 page faults per
        // `embed_scan_join` execute on both seeds measured, against 40–150
        // at the eager join. Freed here, no seed of ten did; that depends
        // on the heap's history, not on work done here.
        drop(column);
        if short {
            return Err(RelError::Internal(
                "batch column shorter than its row count".into(),
            ));
        }
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_algebra::poly::NatPoly;
    use aggprov_algebra::semiring::Nat;

    fn s(names: &[&str]) -> Schema {
        Schema::new(names.iter().copied()).unwrap()
    }

    /// In these tests the value type is `Const` itself; "symbolic" is
    /// played by boolean values so the split predicate has something to
    /// reject.
    fn as_non_bool(c: &Const) -> Option<&Const> {
        match c {
            Const::Bool(_) => None,
            _ => Some(c),
        }
    }

    fn nats<const N: usize>(ns: [u64; N]) -> Vec<Nat> {
        ns.into_iter().map(Nat).collect()
    }

    fn sample() -> Relation<NatPoly, Const> {
        Relation::from_rows(
            s(&["a", "b"]),
            [
                (vec![Const::int(1), Const::str("x")], NatPoly::token("p1")),
                (vec![Const::int(2), Const::Bool(true)], NatPoly::token("p2")),
                (vec![Const::int(3), Const::str("y")], NatPoly::token("p3")),
            ],
        )
        .unwrap()
    }

    #[test]
    fn split_round_trips_losslessly() {
        let rel = sample();
        let batch = GroundBatch::from_relation(&rel, as_non_bool);
        assert_eq!(batch.ground().len(), 2);
        assert_eq!(batch.fringe().len(), 1);
        // Variant detection kicked in: ints unboxed, strings encoded.
        assert_eq!(batch.ground().col(0), Some(&TypedColumn::Num(vec![1, 3])));
        assert_eq!(batch.ground().col(1).map(TypedColumn::variant), Some("str"));
        let back = batch.into_relation(rel.schema().clone(), |c| c).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn boxed_layout_round_trips_identically() {
        // One half-integer in `a`, one number in `b`: the data demotes
        // both columns to boxed, and the round trip is still the identity.
        let mut rel = sample();
        rel.insert(
            vec![
                Const::Num(aggprov_algebra::num::Num::ratio(7, 2)),
                Const::int(9),
            ],
            NatPoly::token("p4"),
        )
        .unwrap();
        let batch = GroundBatch::from_relation(&rel, as_non_bool);
        for i in 0..2 {
            assert_eq!(
                batch.ground().col(i).map(TypedColumn::variant),
                Some("boxed")
            );
        }
        let back = batch.into_relation(rel.schema().clone(), |c| c).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn empty_and_all_fringe_round_trip() {
        let empty: Relation<Nat, Const> = Relation::empty(s(&["a"]));
        let b = GroundBatch::from_relation(&empty, |c| Some(c));
        assert!(b.ground().is_empty() && b.is_all_ground());
        assert_eq!(b.into_relation(s(&["a"]), |c| c).unwrap(), empty);

        let rel = Relation::from_rows(
            s(&["a"]),
            [
                (vec![Const::Bool(true)], Nat(2)),
                (vec![Const::Bool(false)], Nat(1)),
            ],
        )
        .unwrap();
        let b = GroundBatch::from_relation(&rel, as_non_bool);
        assert!(b.ground().is_empty());
        assert_eq!(b.fringe().len(), 2);
        assert_eq!(b.into_relation(s(&["a"]), |c| c).unwrap(), rel);
    }

    #[test]
    fn into_relation_merges_duplicates_additively() {
        let ground =
            ColumnBatch::from_columns(vec![TypedColumn::Num(vec![1, 1, 2])], nats([2, 3, 1]))
                .unwrap();
        let rel = GroundBatch::<Nat, Const>::from_parts(ground, Vec::new())
            .into_relation(s(&["a"]), |c| c)
            .unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.annotation(&Tuple::from([Const::int(1)])), Nat(5));
    }

    #[test]
    fn selected_materialization_compacts_and_moves() {
        let rel = sample();
        let batch = GroundBatch::from_relation(&rel, as_non_bool);
        // Keep only the second ground row (absolute row index 1).
        let compacted = batch
            .into_relation_selected(s(&["a", "b"]), |c| c, Some(&[1]))
            .unwrap();
        assert_eq!(compacted.len(), 2, "selected ground row + fringe row");
        assert_eq!(
            compacted.annotation(&Tuple::from([Const::int(3), Const::str("y")])),
            NatPoly::token("p3")
        );
    }

    #[test]
    fn a_descending_selection_is_refused() {
        let batch = GroundBatch::from_relation(&sample(), as_non_bool);
        for sel in [[1, 0], [1, 1]] {
            let out = batch
                .clone()
                .into_relation_selected(s(&["a", "b"]), |c| c, Some(&sel));
            assert!(
                matches!(out, Err(RelError::Internal(_))),
                "{sel:?}: {out:?}"
            );
        }
    }

    #[test]
    fn an_out_of_range_selection_is_refused() {
        let batch = GroundBatch::from_relation(&sample(), as_non_bool);
        let out = batch.into_relation_selected(s(&["a", "b"]), |c| c, Some(&[0, 2]));
        assert!(matches!(out, Err(RelError::Internal(_))), "{out:?}");
    }

    #[test]
    fn arity_and_length_checks() {
        assert!(ColumnBatch::<Nat, Const>::from_columns(
            vec![TypedColumn::Num(vec![1]), TypedColumn::Num(vec![])],
            vec![Nat(1)]
        )
        .is_err());
        let mut b = ColumnBatch::from_columns(vec![TypedColumn::Num(vec![1])], nats([1])).unwrap();
        assert!(b.push_column(vec![]).is_err());
        assert!(b.clone().push_column(vec![Const::int(9)]).is_ok());
        assert!(b
            .clone()
            .map_columns(|_| Ok(vec![TypedColumn::Num(vec![])]))
            .is_err());
        let gb = GroundBatch::<Nat, Const>::from_parts(b, Vec::new());
        assert!(gb.into_relation(s(&["a", "b"]), |c| c).is_err());
    }

    #[test]
    fn a_deferred_product_reads_as_the_eager_one() {
        let tok = NatPoly::token;
        let batch = |vals: Vec<i64>, anns: Vec<NatPoly>| {
            ColumnBatch::from_columns(vec![TypedColumn::Num(vals)], anns).unwrap()
        };
        let (l, r) = (
            vec![tok("l0"), tok("l1"), tok("l2")],
            vec![tok("r0"), tok("r1")],
        );
        let (lrows, rrows) = (vec![0u32, 2, 2], vec![1u32, 0, 1]);
        let cols = || {
            vec![
                TypedColumn::Num(vec![1, 3, 3]),
                TypedColumn::Num(vec![20, 10, 20]),
            ]
        };
        let products = lrows.iter().zip(&rrows);
        let products = products.map(|(&a, &b)| l[a as usize].times(&r[b as usize]));
        let eager = ColumnBatch::from_columns(cols(), products.collect()).unwrap();
        let deferred = ColumnBatch::from_join(
            cols(),
            batch(vec![1, 2, 3], l),
            lrows,
            batch(vec![10, 20], r),
            rrows,
        )
        .unwrap();
        // Equality is row-wise, whichever form holds the annotations.
        assert_eq!(deferred, eager);
        let rel = |b: &ColumnBatch<NatPoly, Const>, sel: Option<&[u32]>| {
            GroundBatch::<NatPoly, Const>::from_parts(b.clone(), Vec::new())
                .into_relation_selected(s(&["a", "b"]), |c| c, sel)
                .unwrap()
        };
        assert_eq!(rel(&deferred, None), rel(&eager, None));
        assert_eq!(rel(&deferred, Some(&[0, 2])), rel(&eager, Some(&[0, 2])));
        // A deferred batch as one side of a second join: its products are
        // multiplied out first, at the rows the pairs name.
        let third = || batch(vec![7], vec![tok("t0")]);
        let cols = || vec![TypedColumn::Num(vec![1, 3]), TypedColumn::Num(vec![7, 7])];
        let nested = ColumnBatch::from_join(cols(), deferred, vec![0, 2], third(), vec![0, 0]);
        let flat = ColumnBatch::from_join(cols(), eager, vec![0, 2], third(), vec![0, 0]);
        assert_eq!(nested.unwrap(), flat.unwrap());
    }

    /// The shared column of `batch`, and the annotations it reads.
    fn shared<K: CommutativeSemiring>(
        batch: &GroundBatch<K, Const>,
    ) -> (&Shared<K, Const>, Vec<K>) {
        let Anns::Stored(Stored::Shared(shared)) = &batch.ground().anns else {
            panic!("a split reads its relation's annotations in place");
        };
        let read =
            (0..batch.ground().len()).map(|r| batch.ground().anns.get(r).unwrap().into_owned());
        (shared, read.collect())
    }

    #[test]
    fn a_split_resolves_every_position_through_block_splits_and_merges() {
        // 3 000 rows inserted out of order (an insert into a full block
        // splits it), then every third from the second on removed (a block
        // under a quarter full merges into a neighbour); a `true` marks a
        // fringe row — the first, the last and every seventh.
        let row = |i: u64| {
            let fringe = i == 0 || i == 2_999 || i % 7 == 3;
            let mark = if fringe {
                Const::Bool(true)
            } else {
                Const::int(0)
            };
            vec![Const::int(i as i64), mark]
        };
        let mut rel = Relation::empty(s(&["a", "b"]));
        for i in (0..3_000).map(|i| i * 1_009 % 3_000) {
            rel.insert(row(i), Nat(i + 1)).unwrap();
        }
        for i in (1..3_000).step_by(3) {
            rel.remove(&Tuple::new(row(i)));
        }
        let starts = rel.store().block_starts();
        let sizes: Vec<usize> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(sizes.iter().any(|&n| n != sizes[0]), "{sizes:?}");
        let batch = GroundBatch::from_relation(&rel, as_non_bool);
        let (column, read) = shared(&batch);
        assert!(column.positions.is_some(), "a fringe row comes first");
        let want: Vec<Nat> = rel
            .iter()
            .filter(|(t, _)| t.get(1) != &Const::Bool(true))
            .map(|(_, k)| *k)
            .collect();
        assert_eq!(read, want);
        assert!(batch.ground().anns.get(want.len()).is_none());
        assert_eq!(
            batch.into_relation(rel.schema().clone(), |c| c).unwrap(),
            rel
        );

        // With the fringe rows after every ground row no position is
        // recorded: ground row `r` is support position `r`.
        let ground = rel
            .iter()
            .skip(1)
            .take_while(|(t, _)| t.get(1) != &Const::Bool(true));
        let leading = ground.chain(rel.iter().last()).map(|(t, k)| (t, *k));
        let leading = Relation::from_tuples(s(&["a", "b"]), leading, Merge::Sum).unwrap();
        let ground = leading.len() - 1;
        let batch = GroundBatch::from_relation(&leading, as_non_bool);
        let (column, read) = shared(&batch);
        assert!(column.positions.is_none());
        assert_eq!(read.len(), ground);
        assert_eq!(batch.fringe().len(), 1);
        assert_eq!(batch.into_relation(s(&["a", "b"]), |c| c).unwrap(), leading);
    }

    #[test]
    fn from_join_refuses_pairs_past_its_inputs() {
        let one = || {
            ColumnBatch::<Nat, Const>::from_columns(vec![TypedColumn::Num(vec![1])], nats([1]))
                .unwrap()
        };
        let col = || vec![TypedColumn::Num(vec![0])];
        let join = |lrows, rrows| ColumnBatch::from_join(col(), one(), lrows, one(), rrows);
        assert!(join(vec![0], vec![0]).is_ok());
        assert!(matches!(join(vec![1], vec![0]), Err(RelError::Internal(_))));
        assert!(matches!(join(vec![0], vec![1]), Err(RelError::Internal(_))));
        assert!(matches!(
            join(vec![0], vec![0, 0]),
            Err(RelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn zero_sums_leave_the_support() {
        use aggprov_algebra::semiring::IntZ;
        let ground =
            ColumnBatch::from_columns(vec![TypedColumn::Num(vec![1, 1])], vec![IntZ(2), IntZ(-2)])
                .unwrap();
        let rel = GroundBatch::<IntZ, Const>::from_parts(ground, Vec::new())
            .into_relation(s(&["a"]), |c| c)
            .unwrap();
        assert!(rel.is_empty());
    }
}
