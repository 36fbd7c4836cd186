//! Columnar batches over the ground partition of a relation.
//!
//! The row-wise sorted store of [`Relation`] is the right shape
//! for the §4.3 token semantics — symbolic values force sums over the
//! whole support — but it is the wrong shape for the ground hot path,
//! where every equality token is `0`/`1` and execution degenerates to
//! classical columnar work. A [`ColumnBatch`] holds that ground partition
//! column-major: one [`TypedColumn`] per attribute (unboxed `Vec<i64>`
//! for integer runs, dictionary codes for strings, boxed `Vec<Const>` as
//! the fallback — see [`crate::typed`]) plus a dense annotation column,
//! so a filter touches only the compared columns and a projection is a
//! column remap instead of a per-tuple rebuild.
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
use crate::relation::{Merge, Relation, Tuple};
use crate::schema::Schema;
use crate::typed::{IntoConsts, TypedColumn};
use aggprov_algebra::domain::Const;
use aggprov_algebra::semiring::CommutativeSemiring;
use std::fmt;
use std::hash::Hash;

/// A column-major batch of fully ground rows: `arity` parallel
/// [`TypedColumn`]s plus one dense annotation column. Row `r` is
/// `(cols[0][r], …, cols[arity-1][r])` annotated `anns[r]`.
///
/// A batch is a *bag* of rows — unlike a [`Relation`], equal rows may
/// appear more than once (a pipeline defers the additive merge to its
/// next breaker); [`GroundBatch::into_relation`] merges duplicates
/// additively, which by distributivity agrees with merging eagerly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColumnBatch<K> {
    cols: Vec<TypedColumn>,
    anns: Vec<K>,
}

impl<K: CommutativeSemiring> ColumnBatch<K> {
    /// Builds a batch from pre-assembled columns. All columns and the
    /// annotation vector must have the same length.
    pub fn from_columns(cols: Vec<TypedColumn>, anns: Vec<K>) -> Result<Self> {
        if let Some(c) = cols.iter().find(|c| c.len() != anns.len()) {
            return Err(RelError::ArityMismatch {
                expected: anns.len(),
                got: c.len(),
            });
        }
        Ok(ColumnBatch { cols, anns })
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
        self.anns.is_empty()
    }

    /// One column, typed. `None` if `i` is out of range.
    pub fn col(&self, i: usize) -> Option<&TypedColumn> {
        self.cols.get(i)
    }

    /// The annotation column.
    pub fn anns(&self) -> &[K] {
        &self.anns
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

    /// Decomposes the batch into its columns and annotation vector
    /// (e.g. to reorder columns wholesale through a projection view).
    pub fn into_columns(self) -> (Vec<TypedColumn>, Vec<K>) {
        (self.cols, self.anns)
    }
}

/// A relation split for vectorized execution: the fully ground rows as a
/// [`ColumnBatch`] plus the symbolic fringe as a row-wise side table, in
/// support order on both sides.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroundBatch<K, V> {
    ground: ColumnBatch<K>,
    fringe: Vec<(Tuple<V>, K)>,
}

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
    pub fn from_relation(rel: &Relation<K, V>, as_const: impl Fn(&V) -> Option<&Const>) -> Self {
        let arity = rel.schema().arity();
        let mut cols: Vec<TypedColumn> = (0..arity)
            .map(|_| TypedColumn::Num(Vec::with_capacity(rel.len())))
            .collect();
        let mut anns = Vec::with_capacity(rel.len());
        let mut fringe = Vec::new();
        // One reused borrow buffer: the groundness check and the column
        // pushes share a single pass over the row's values.
        let mut row: Vec<&Const> = Vec::with_capacity(arity);
        for (t, k) in rel.iter() {
            let vals = t.values();
            row.clear();
            for v in vals {
                match as_const(v) {
                    Some(c) => row.push(c),
                    None => break,
                }
            }
            if row.len() != vals.len() {
                fringe.push((t.clone(), k.clone()));
                continue;
            }
            for (col, c) in cols.iter_mut().zip(&row) {
                col.push((*c).clone());
            }
            anns.push(k.clone());
        }
        GroundBatch {
            ground: ColumnBatch { cols, anns },
            fringe,
        }
    }

    /// Wraps a batch produced by downstream kernels, with a fringe carried
    /// alongside (possibly empty).
    pub fn from_parts(ground: ColumnBatch<K>, fringe: Vec<(Tuple<V>, K)>) -> Self {
        GroundBatch { ground, fringe }
    }

    /// The columnar ground partition.
    pub fn ground(&self) -> &ColumnBatch<K> {
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
    pub fn into_parts(self) -> (ColumnBatch<K>, Vec<(Tuple<V>, K)>) {
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
    /// values and annotations are **moved** into the relation (an `Arc`
    /// bump for dictionary strings) through [`Relation::from_tuples`] — a
    /// pipeline's final materialization never re-clones what its kernels
    /// already built, and builds no map on the way.
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
        let ColumnBatch { mut cols, mut anns } = self.ground;
        if let Some(sel) = sel {
            let nrows = anns.len();
            let bad_selection = || {
                RelError::Internal(format!(
                    "selection vector not strictly ascending within the batch's {nrows} rows"
                ))
            };
            if !sel.is_sorted_by(|a, b| a < b) {
                return Err(bad_selection());
            }
            let gathered = cols.iter().map(|c| c.gather(sel)).collect::<Option<_>>();
            cols = gathered.ok_or_else(bad_selection)?;
            let taken = sel
                .iter()
                .map(|r| Some(std::mem::replace(anns.get_mut(*r as usize)?, K::zero())))
                .collect::<Option<_>>();
            anns = taken.ok_or_else(bad_selection)?;
        }
        let mut cols: Vec<IntoConsts> = cols.into_iter().map(TypedColumn::into_consts).collect();
        // One allocation per row, the tuple itself: the cells are collected
        // straight into it, so a column that ends early (a corrupt
        // dictionary code) is flagged and padded, and reported afterwards.
        let mut short = false;
        let ground = anns.into_iter().map(|k| {
            let cells = cols.iter_mut().map(|c| {
                c.next().unwrap_or_else(|| {
                    short = true;
                    Const::Bool(false)
                })
            });
            (cells.map(&lift).collect::<Tuple<V>>(), k)
        });
        let rel = Relation::from_tuples(schema, ground.chain(self.fringe), Merge::Sum)?;
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
        assert!(ColumnBatch::<Nat>::from_columns(
            vec![TypedColumn::Num(vec![1]), TypedColumn::Num(vec![])],
            vec![Nat(1)]
        )
        .is_err());
        let mut b = ColumnBatch::from_columns(vec![TypedColumn::Num(vec![1])], nats([1])).unwrap();
        assert!(b.push_column(vec![]).is_err());
        assert!(b.clone().push_column(vec![Const::int(9)]).is_ok());
        let gb = GroundBatch::<Nat, Const>::from_parts(b, Vec::new());
        assert!(gb.into_relation(s(&["a", "b"]), |c| c).is_err());
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
