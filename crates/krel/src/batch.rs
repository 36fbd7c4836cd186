//! Columnar batches over the ground partition of a relation.
//!
//! The row-wise sorted store of [`Relation`] is the right shape
//! for the §4.3 token semantics — symbolic values force sums over the
//! whole support — but it is the wrong shape for the ground hot path,
//! where every equality token is `0`/`1` and execution degenerates to
//! classical columnar work. A [`ColumnBatch`] addresses that ground
//! partition column by column — one column per attribute plus an
//! annotation column — so a filter touches only the compared columns and
//! a projection is a column remap instead of a per-tuple rebuild.
//!
//! In the paper a selection annotates a kept tuple with `R(t) · P(t)` and
//! a join with `R₁(t₁) · R₂(t₂)` (§2.1, §4.3): a row's values and its
//! annotation are observable only if the row reaches the result. So no
//! column copies a cell, or copies or multiplies an annotation, before
//! then. A cell column has three forms, private to this module:
//!
//! * **Stored** — cell `c` of each ground row of the relation the batch
//!   was split from, read where the relation's tuple store keeps it: an
//!   `Arc` on the store, the store's block-start index, and the column
//!   number, read at stride `arity` in the row-major block. Ground row `r`
//!   is support position `r`, or `positions[r]` once a fringe row precedes
//!   a ground row. This is the form [`GroundBatch::from_relation`] and
//!   [`ColumnBatch::from_relation`] build, so a scan copies no cell.
//! * **Owned** — one `Vec<Const>` built by a kernel
//!   ([`ColumnBatch::from_columns`]).
//! * **Through** — a join's output column: row `r` is row `rows[r]` of an
//!   input column, `rows` being the join's left or right match rows
//!   ([`ColumnBatch::from_join`]). A join over a join's output reads
//!   through both index vectors.
//!
//! The annotation column has three forms too:
//!
//! * **Shared** — the stored rows' annotations, read in place through the
//!   same addressing as the stored cells.
//! * **Dense** — one annotation per row, for a column a kernel builds
//!   ([`ColumnBatch::from_columns`], or a deferred product multiplied out
//!   by a second join).
//! * A join's **deferred product** — row `r` is
//!   `left[lrows[r]] ⊗ right[rrows[r]]` over the two input columns, each
//!   kept shared or dense as it came ([`ColumnBatch::from_join`]).
//!
//! An edit of the source relation copies out what it writes before
//! writing (copy-on-write, see [`Relation`]), so a batch keeps reading the
//! cells and annotations it was split from.
//!
//! Who reads them: kernels read cells as `&Const`, where every form keeps
//! them, through a [`ColumnReader`], and narrow a selection vector;
//! nothing is copied. A batch whose every column reads one scan in place
//! is read by the aggregation breaker as that scan's rows
//! ([`ColumnBatch::stored_rows`]): the selected rows' tuples and
//! annotations, borrowed from the store, and the stored column each cell
//! column reads — again nothing is copied.
//! [`GroundBatch::into_relation_selected`] is the one place cells and
//! annotations leave a batch: the selected rows' stored cells are cloned
//! and owned ones lifted, a dense column's annotations are moved out, a
//! shared column's selected rows are cloned, a product's selected rows are
//! multiplied, and nothing else is. A join over the batch keeps a shared
//! or dense annotation column as its operand, unread, and multiplies out
//! a product only at the rows its own pairs name. Row-wise equality reads
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
use crate::relation::{Builder, Merge, Relation, Tuple, TupleRef};
use crate::schema::Schema;
use crate::store::{Counted, Cursor, RowAt, Store};
use aggprov_algebra::domain::Const;
use aggprov_algebra::semiring::CommutativeSemiring;
use std::borrow::Cow;
use std::convert::Infallible;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// How a batch reads a stored cell of a ground row: as the constant it
/// holds. A relation's value type implements it — `Const` as itself, the
/// aggregate-provenance layer's values as their constant — so the kernels
/// read cells with a direct call.
pub trait AsConst {
    /// The constant this value is; `None` for a symbolic value, which no
    /// ground row holds.
    fn as_const(&self) -> Option<&Const>;
}

impl AsConst for Const {
    #[inline]
    fn as_const(&self) -> Option<&Const> {
        Some(self)
    }
}

/// A column-major batch of fully ground rows: `arity` cell columns plus
/// one annotation column, each read in place from the relation the batch
/// was split from, held by the batch, or read through a join's match rows
/// (see the module docs). `V` is the value type of that relation.
///
/// A batch is a *bag* of rows — unlike a [`Relation`], equal rows may
/// appear more than once (a pipeline defers the additive merge to its
/// next breaker); [`GroundBatch::into_relation`] merges duplicates
/// additively, which by distributivity agrees with merging eagerly.
///
/// Equality is row-wise: two batches are equal when every row holds the
/// same constants and the same annotation, whichever form holds them.
#[derive(Clone, Debug)]
pub struct ColumnBatch<K, V> {
    cols: Vec<Column<K, V>>,
    anns: Anns<K, V>,
}

/// The ground rows of a relation, read where its tuple store keeps them:
/// ground row `r` is support position `positions[r]`, or `r` itself when
/// `positions` is `None` (no fringe row precedes a ground row).
struct Scan<K, V> {
    store: Arc<Store<V, K>>,
    /// `store.block_starts()`.
    starts: Vec<usize>,
    positions: Option<Vec<u32>>,
    /// The number of ground rows.
    len: usize,
}

/// The row count, not the store: a base table's worth of rows.
impl<K, V> fmt::Debug for Scan<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scan")
            .field("len", &self.len)
            .field("positions", &self.positions.is_some())
            .finish_non_exhaustive()
    }
}

impl<K, V> Scan<K, V> {
    /// The support position of ground row `r`; `None` past the end.
    fn position(&self, r: usize) -> Option<usize> {
        match &self.positions {
            Some(positions) => positions.get(r).map(|&p| p as usize),
            None => (r < self.len).then_some(r),
        }
    }

    /// Cell `c` of ground row `r`, read through `cur`, a cursor on this
    /// scan's store: rows read in ascending order cost a compare or two
    /// each.
    #[inline]
    fn cell<'a>(&'a self, r: usize, c: usize, cur: &mut Cursor<'a, V, K>) -> Option<&'a V> {
        cur.cell(&self.store, &self.starts, self.position(r)?, c)
    }

    /// The annotation of ground row `r` (see [`Scan::cell`]).
    fn ann<'a>(&'a self, r: usize, cur: &mut Cursor<'a, V, K>) -> Option<&'a K> {
        cur.ann(&self.store, &self.starts, self.position(r)?)
    }
}

/// One cell column of a [`ColumnBatch`]. Every form is cheap to clone: a
/// projection copies column handles, never cells.
enum Column<K, V> {
    /// Built by a kernel: one value per row.
    Owned(Arc<Vec<Const>>),
    /// Cell `.1` of each ground row of a scan.
    Stored(Arc<Scan<K, V>>, usize),
    /// Row `r` is row `rows[r]` of the inner column.
    Through(Arc<Vec<u32>>, Arc<Column<K, V>>),
}

impl<K, V> Clone for Column<K, V> {
    fn clone(&self) -> Self {
        match self {
            Column::Owned(col) => Column::Owned(Arc::clone(col)),
            Column::Stored(scan, c) => Column::Stored(Arc::clone(scan), *c),
            Column::Through(rows, inner) => Column::Through(Arc::clone(rows), Arc::clone(inner)),
        }
    }
}

/// The form and the row count, not the cells.
impl<K, V> fmt::Debug for Column<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Column::Owned(col) => f.debug_tuple("Owned").field(&col.len()).finish(),
            Column::Stored(scan, c) => f.debug_tuple("Stored").field(scan).field(c).finish(),
            Column::Through(rows, inner) => f
                .debug_struct("Through")
                .field("rows", &rows.len())
                .field("inner", inner)
                .finish(),
        }
    }
}

impl<K, V> Column<K, V> {
    fn len(&self) -> usize {
        match self {
            Column::Owned(col) => col.len(),
            Column::Stored(scan, _) => scan.len,
            Column::Through(rows, _) => rows.len(),
        }
    }
}

impl<K, V: AsConst> Column<K, V> {
    /// The constant at row `r`, borrowed where its column keeps it; `None`
    /// past the end. `cur` is a cursor on the store of the stored column at
    /// the bottom (see [`Scan::cell`]).
    #[inline]
    fn cell<'a>(&'a self, r: usize, cur: &mut Cursor<'a, V, K>) -> Option<&'a Const> {
        match self {
            Column::Owned(col) => col.get(r),
            Column::Stored(scan, c) => scan.cell(r, *c, cur)?.as_const(),
            Column::Through(rows, inner) => inner.cell(*rows.get(r)? as usize, cur),
        }
    }
}

/// Reads one column of a [`ColumnBatch`] as constants, row by row, where
/// the column keeps its cells: a stored cell is borrowed from the
/// relation's store, an owned one from its column, a join's output cell
/// through its match rows. Rows read in ascending order cost a compare or
/// two each to locate; any other order a binary search over the store's
/// blocks. Cloning a reader is how a sharded kernel gives each worker its
/// own.
pub struct ColumnReader<'a, K, V> {
    col: &'a Column<K, V>,
    cur: Cursor<'a, V, K>,
}

impl<K, V> Clone for ColumnReader<'_, K, V> {
    fn clone(&self) -> Self {
        ColumnReader {
            col: self.col,
            cur: self.cur,
        }
    }
}

impl<K, V> fmt::Debug for ColumnReader<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnReader")
            .field("col", self.col)
            .finish_non_exhaustive()
    }
}

impl<'a, K, V: AsConst> ColumnReader<'a, K, V> {
    /// The constant at row `r`; `None` past the end.
    #[inline]
    pub fn get(&mut self, r: u32) -> Option<&'a Const> {
        self.col.cell(r as usize, &mut self.cur)
    }
}

impl<K, V> ColumnReader<'_, K, V> {
    /// The number of rows.
    pub fn len(&self) -> usize {
        self.col.len()
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
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
/// `right` (checked by [`ColumnBatch::from_join`]); the output's cell
/// columns read through the same two vectors.
#[derive(Clone, Debug)]
struct Product<K, V> {
    left: Stored<K, V>,
    right: Stored<K, V>,
    lrows: Arc<Vec<u32>>,
    rrows: Arc<Vec<u32>>,
}

/// A column whose every row has its annotation stored somewhere to read.
#[derive(Clone, Debug)]
enum Stored<K, V> {
    /// One annotation per row, built by a kernel.
    Dense(Vec<K>),
    /// The annotations of the relation the batch was split from.
    Shared(Arc<Scan<K, V>>),
}

impl<K, V> Stored<K, V> {
    fn len(&self) -> usize {
        match self {
            Stored::Dense(v) => v.len(),
            Stored::Shared(s) => s.len,
        }
    }

    /// The annotation of row `r`; `None` past the end. `cur` as in
    /// [`Scan::cell`].
    fn get<'a>(&'a self, r: usize, cur: &mut Cursor<'a, V, K>) -> Option<&'a K> {
        match self {
            Stored::Dense(v) => v.get(r),
            Stored::Shared(s) => s.ann(r, cur),
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
    /// multiplied when it is deferred. `None` past the end. `curs` are
    /// cursors on the one or two stored columns read (see [`Scan::cell`]).
    fn get<'a>(&'a self, r: usize, curs: &mut [Cursor<'a, V, K>; 2]) -> Option<Cow<'a, K>> {
        let [lc, rc] = curs;
        match self {
            Anns::Stored(s) => s.get(r, lc).map(Cow::Borrowed),
            Anns::Product(p) => {
                let (l, rr) = (*p.lrows.get(r)?, *p.rrows.get(r)?);
                let (l, rr) = (p.left.get(l as usize, lc)?, p.right.get(rr as usize, rc)?);
                Some(Cow::Owned(l.times(rr)))
            }
        }
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
        let mut curs = [Cursor::new(); 2];
        for &r in named {
            let slot = out.get_mut(r as usize)?;
            if slot.is_zero() {
                *slot = self.get(r as usize, &mut curs)?.into_owned();
            }
        }
        Some(Stored::Dense(out))
    }
}

/// The rows of one scan that materializing a batch reads through one
/// chain of match rows: a join output's left columns and left annotations
/// are one source, its right ones another. Each output row is found there
/// once ([`Source::find`]) for all the cells and the annotation it reads.
struct Source<'a, K, V> {
    /// The match rows to follow, outermost first.
    through: Vec<&'a Arc<Vec<u32>>>,
    scan: &'a Arc<Scan<K, V>>,
    cur: Cursor<'a, V, K>,
    /// The row found for the current output row.
    row: Option<RowAt<'a, V, K>>,
}

impl<'a, K, V> Source<'a, K, V> {
    /// The index of the source reading `scan` through `through` in
    /// `sources`, added if there is none.
    fn index(
        sources: &mut Vec<Source<'a, K, V>>,
        through: Vec<&'a Arc<Vec<u32>>>,
        scan: &'a Arc<Scan<K, V>>,
    ) -> usize {
        let same = |s: &Source<'a, K, V>| {
            Arc::ptr_eq(s.scan, scan)
                && s.through.len() == through.len()
                && s.through
                    .iter()
                    .zip(&through)
                    .all(|(a, b)| Arc::ptr_eq(a, b))
        };
        sources.iter().position(same).unwrap_or_else(|| {
            sources.push(Source {
                through,
                scan,
                cur: Cursor::new(),
                row: None,
            });
            sources.len() - 1
        })
    }

    /// Finds output row `r`'s row in the scan.
    fn find(&mut self, r: usize) {
        let scan = &**self.scan;
        self.row = follow(&self.through, r)
            .and_then(|p| scan.position(p))
            .and_then(|p| self.cur.row(&scan.store, &scan.starts, p));
    }
}

/// Row `r` of a column read through `through` (outermost first): the row
/// of the innermost column it names.
fn follow(through: &[&Arc<Vec<u32>>], r: usize) -> Option<usize> {
    through
        .iter()
        .try_fold(r, |r, rows| rows.get(r).map(|&q| q as usize))
}

/// Where materializing a batch reads one column's cells.
enum Read<'a> {
    /// Cell `.1` of source `.0`'s row.
    Stored(usize, usize),
    /// A kernel-built column, through its match rows.
    Owned(Vec<&'a Arc<Vec<u32>>>, &'a [Const]),
}

impl<'a> Read<'a> {
    fn of<K, V>(mut col: &'a Column<K, V>, sources: &mut Vec<Source<'a, K, V>>) -> Self {
        let mut through = Vec::new();
        loop {
            match col {
                Column::Through(rows, inner) => {
                    through.push(rows);
                    col = inner;
                }
                Column::Stored(scan, c) => {
                    return Read::Stored(Source::index(sources, through, scan), *c)
                }
                Column::Owned(vals) => return Read::Owned(through, vals),
            }
        }
    }

    /// The cell of output row `r`, every source being at that row: a
    /// stored cell cloned, an owned one lifted.
    fn value<K, V: Clone>(
        &self,
        r: usize,
        sources: &[Source<'a, K, V>],
        lift: &impl Fn(Const) -> V,
    ) -> Option<V> {
        match self {
            Read::Stored(s, c) => sources.get(*s)?.row?.cell(*c).cloned(),
            Read::Owned(through, col) => col.get(follow(through, r)?).cloned().map(lift),
        }
    }
}

/// Where materializing a batch reads a row's annotation.
enum Ann<'a, K> {
    /// Moved out of the batch's own dense column.
    Moved,
    /// Read where it is stored.
    Read(Operand<'a, K>),
    /// A join's deferred product, multiplied here.
    Product(Operand<'a, K>, Operand<'a, K>),
}

/// A stored annotation of a materialized row.
enum Operand<'a, K> {
    /// In source `.0`'s row.
    Source(usize),
    /// Row `rows[r]` of a dense column.
    Dense(&'a [K], &'a [u32]),
}

impl<'a, K> Ann<'a, K> {
    fn of<V>(anns: &'a Anns<K, V>, sources: &mut Vec<Source<'a, K, V>>) -> Self {
        let mut operand = |side: &'a Stored<K, V>, rows: &'a Arc<Vec<u32>>| match side {
            Stored::Shared(scan) => Operand::Source(Source::index(sources, vec![rows], scan)),
            Stored::Dense(v) => Operand::Dense(v, rows),
        };
        match anns {
            Anns::Stored(Stored::Dense(_)) => Ann::Moved,
            Anns::Stored(Stored::Shared(scan)) => {
                Ann::Read(Operand::Source(Source::index(sources, Vec::new(), scan)))
            }
            Anns::Product(p) => {
                let left = operand(&p.left, &p.lrows);
                Ann::Product(left, operand(&p.right, &p.rrows))
            }
        }
    }
}

impl<'a, K> Operand<'a, K> {
    /// The annotation of output row `r`, every source being at that row.
    fn get<V>(&self, r: usize, sources: &[Source<'a, K, V>]) -> Option<&'a K> {
        match self {
            Operand::Source(s) => sources.get(*s)?.row?.ann(),
            Operand::Dense(v, rows) => v.get(*rows.get(r)? as usize),
        }
    }
}

impl<K: CommutativeSemiring, V: AsConst> PartialEq for ColumnBatch<K, V> {
    fn eq(&self, other: &Self) -> bool {
        let n = self.len();
        let cells_equal = |(a, b): (&Column<K, V>, &Column<K, V>)| {
            let (mut ca, mut cb) = (Cursor::new(), Cursor::new());
            (0..n).all(|r| a.cell(r, &mut ca) == b.cell(r, &mut cb))
        };
        let (mut ha, mut hb) = ([Cursor::new(); 2], [Cursor::new(); 2]);
        self.arity() == other.arity()
            && n == other.len()
            && self.cols.iter().zip(&other.cols).all(cells_equal)
            && (0..n).all(|r| self.anns.get(r, &mut ha) == other.anns.get(r, &mut hb))
    }
}

impl<K: CommutativeSemiring, V: AsConst> Eq for ColumnBatch<K, V> {}

impl<K: CommutativeSemiring, V> ColumnBatch<K, V> {
    /// Builds a batch from pre-assembled columns. All columns and the
    /// annotation vector must have the same length.
    pub fn from_columns(cols: Vec<Vec<Const>>, anns: Vec<K>) -> Result<Self> {
        if let Some(c) = cols.iter().find(|c| c.len() != anns.len()) {
            return Err(RelError::ArityMismatch {
                expected: anns.len(),
                got: c.len(),
            });
        }
        Ok(ColumnBatch {
            cols: cols
                .into_iter()
                .map(|c| Column::Owned(Arc::new(c)))
                .collect(),
            anns: Anns::Stored(Stored::Dense(anns)),
        })
    }

    /// Builds a join's output batch without copying a cell or taking a
    /// semiring product: row `r` is row `lrows[r]` of `left` followed by
    /// row `rrows[r]` of `right`, annotated
    /// `left[lrows[r]] ⊗ right[rrows[r]]`. The inputs' columns move in and
    /// are read through `lrows` and `rrows`; their annotation columns move
    /// in as they are (a shared column keeps reading its relation's store),
    /// and are multiplied only when the row is materialized
    /// ([`GroundBatch::into_relation_selected`]).
    ///
    /// An input that is itself a deferred product is multiplied out first,
    /// at the rows its pairs name and nowhere else, so nested joins never
    /// compute more products than eager ones would.
    ///
    /// `lrows` and `rrows` must have the same length, and must index
    /// inside `left` and `right`.
    pub fn from_join(
        left: ColumnBatch<K, V>,
        lrows: Vec<u32>,
        right: ColumnBatch<K, V>,
        rrows: Vec<u32>,
    ) -> Result<Self> {
        if lrows.len() != rrows.len() {
            return Err(RelError::ArityMismatch {
                expected: lrows.len(),
                got: rrows.len(),
            });
        }
        let out_of_range = || RelError::Internal("join pair names a row past its input".into());
        let fits = |rows: &[u32], n: usize| rows.iter().all(|&r| (r as usize) < n);
        if !fits(&lrows, left.len()) || !fits(&rrows, right.len()) {
            return Err(out_of_range());
        }
        let (lrows, rrows) = (Arc::new(lrows), Arc::new(rrows));
        let through = |rows: &Arc<Vec<u32>>, cols: Vec<Column<K, V>>| {
            let rows = Arc::clone(rows);
            cols.into_iter()
                .map(move |c| Column::Through(Arc::clone(&rows), Arc::new(c)))
        };
        let mut cols = Vec::with_capacity(left.arity() + right.arity());
        cols.extend(through(&lrows, left.cols));
        cols.extend(through(&rrows, right.cols));
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

    /// A reader of column `i`. `None` if `i` is out of range.
    pub fn column(&self, i: usize) -> Option<ColumnReader<'_, K, V>> {
        Some(ColumnReader {
            col: self.cols.get(i)?,
            cur: Cursor::new(),
        })
    }

    /// The constant at row `r` of column `i`. `None` if either is out of
    /// range. A kernel that reads many rows of one column takes a
    /// [`ColumnBatch::column`] reader instead.
    pub fn cell(&self, r: u32, i: usize) -> Option<&Const>
    where
        V: AsConst,
    {
        self.column(i)?.get(r)
    }

    /// The batch with its columns picked by position — `columns[i]` is
    /// the new column `i` (positions may repeat) — and the annotation
    /// column as it is. Column handles are copied, not cells.
    pub fn project(self, columns: &[usize]) -> Result<Self> {
        let cols = columns
            .iter()
            .map(|&c| {
                self.cols.get(c).cloned().ok_or_else(|| {
                    RelError::Internal(format!(
                        "projection column {c} out of range for a {}-column batch",
                        self.cols.len()
                    ))
                })
            })
            .collect::<Result<_>>()?;
        Ok(ColumnBatch {
            cols,
            anns: self.anns,
        })
    }

    /// The batch as rows of the relation it was split from, where it is
    /// one: when every cell column is a stored column of one scan and the
    /// annotation column is that scan's shared annotations — what filters
    /// and projections leave of a split relation — the stored column each
    /// cell column reads (cell column `i` is cell `map[i]` of a stored
    /// row) and the stored rows `sel` selects, tuple and annotation
    /// borrowed from the store, in store order, their count as the
    /// iterator's exact size hint. `sel` is a strictly
    /// ascending selection (`None` = every row); one that is not, or that
    /// names a row the batch does not have, is an internal error.
    ///
    /// `None` for any other batch — an owned column, a join's output read
    /// through its match rows, a dense or deferred annotation column: its
    /// rows are not stored rows. Equal rows of the batch are distinct
    /// stored rows here, not merged as [`GroundBatch::into_relation`]
    /// merges them.
    #[expect(
        clippy::type_complexity,
        reason = "the column map beside the rows it maps"
    )]
    pub fn stored_rows<'a>(
        &'a self,
        sel: Option<&'a [u32]>,
    ) -> Result<
        Option<(
            Vec<usize>,
            impl Iterator<Item = (TupleRef<'a, V>, &'a K)> + 'a,
        )>,
    > {
        let Anns::Stored(Stored::Shared(scan)) = &self.anns else {
            return Ok(None);
        };
        let map: Option<Vec<usize>> = self
            .cols
            .iter()
            .map(|col| match col {
                Column::Stored(s, c) if Arc::ptr_eq(s, scan) => Some(*c),
                _ => None,
            })
            .collect();
        let Some(map) = map else {
            return Ok(None);
        };
        let (named, all) = checked_selection(sel, scan.len)?;
        let mut cur = Cursor::new();
        let rows = named.iter().map(|&r| r as usize).chain(0..all);
        let entries = rows.map_while(move |r| {
            cur.row(&scan.store, &scan.starts, scan.position(r)?)?
                .entry()
        });
        Ok(Some((map, Counted(entries, named.len() + all))))
    }
}

/// A selection checked against a batch of `nrows` rows: the rows it names
/// and, for `None`, the count of all rows (`0` otherwise), so that
/// `named` then `0..all` are the selected rows.
fn checked_selection(sel: Option<&[u32]>, nrows: usize) -> Result<(&[u32], usize)> {
    let bad_selection = || {
        RelError::Internal(format!(
            "selection vector not strictly ascending within the batch's {nrows} rows"
        ))
    };
    match sel {
        Some(sel) if !sel.is_sorted_by(|a, b| a < b) => Err(bad_selection()),
        Some(sel) if sel.last().is_some_and(|&r| r as usize >= nrows) => Err(bad_selection()),
        Some(sel) => Ok((sel, 0)),
        None => Ok((&[][..], nrows)),
    }
}

impl<K, V> ColumnBatch<K, V>
where
    K: CommutativeSemiring,
    V: AsConst + Clone + Ord + Hash + fmt::Debug,
{
    /// The columns of a relation whose every row reads back as constants
    /// through `as_const`, read in place as [`GroundBatch::from_relation`]
    /// reads them; `None` if a row does not. The scan stops at the first
    /// such row, so finding a fringe clones nothing.
    pub fn from_relation(
        rel: &Relation<K, V>,
        as_const: impl Fn(&V) -> Option<&Const>,
    ) -> Option<Self> {
        split(rel, as_const, |_, _| Err(())).ok()
    }
}

/// The one pass that splits a relation: a row whose every value reads as
/// a constant through `as_const` is a ground row of the returned batch,
/// read in the relation's store by support position; every other row goes
/// to `fringe`, and the pass stops at the first error `fringe` returns.
fn split<K, V, E>(
    rel: &Relation<K, V>,
    as_const: impl Fn(&V) -> Option<&Const>,
    mut fringe: impl FnMut(TupleRef<'_, V>, &K) -> std::result::Result<(), E>,
) -> std::result::Result<ColumnBatch<K, V>, E>
where
    K: CommutativeSemiring,
    V: Clone + Ord + Hash + fmt::Debug,
{
    let mut ground = 0;
    let mut positions: Option<Vec<u32>> = None;
    for (p, (t, k)) in rel.iter().enumerate() {
        if !t.values().iter().all(|v| as_const(v).is_some()) {
            fringe(t, k)?;
            continue;
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
    let scan = Arc::new(Scan {
        store: Arc::clone(store),
        starts: store.block_starts(),
        positions,
        len: ground,
    });
    let cols = (0..rel.schema().arity())
        .map(|c| Column::Stored(Arc::clone(&scan), c))
        .collect();
    Ok(ColumnBatch {
        cols,
        anns: Anns::Stored(Stored::Shared(scan)),
    })
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

impl<K: CommutativeSemiring, V: AsConst + PartialEq> PartialEq for GroundBatch<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.ground == other.ground && self.fringe == other.fringe
    }
}

impl<K: CommutativeSemiring, V: AsConst + Eq> Eq for GroundBatch<K, V> {}

impl<K, V> GroundBatch<K, V>
where
    K: CommutativeSemiring,
    V: AsConst + Clone + Ord + Hash + fmt::Debug,
{
    /// Splits a relation: rows whose every value reads back as a constant
    /// through `as_const` form the ground batch; the rest land on the
    /// row-wise fringe. Both partitions keep support order, so the split
    /// (composed with [`GroundBatch::into_relation`]) is lossless.
    ///
    /// One pass decides each row's side; no ground cell or annotation is
    /// copied. The batch shares the relation's tuple store and reads the
    /// ground rows' cells and annotations there, by support position (see
    /// the module docs), as [`AsConst`] reads them. Fringe rows are cloned,
    /// tuple and annotation.
    pub fn from_relation(rel: &Relation<K, V>, as_const: impl Fn(&V) -> Option<&Const>) -> Self {
        let mut fringe = Vec::new();
        let Ok(ground) = split(rel, as_const, |t, k| {
            fringe.push((t.to_tuple(), k.clone()));
            Ok::<(), Infallible>(())
        });
        GroundBatch { ground, fringe }
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

    /// Decomposes into the ground batch and the fringe.
    pub fn into_parts(self) -> (ColumnBatch<K, V>, Fringe<K, V>) {
        (self.ground, self.fringe)
    }

    /// Rebuilds a relation under `schema`: ground rows come back with
    /// duplicates merged **additively** (zero sums leave the support, as
    /// in [`Relation::insert`]); fringe rows merge the same way. A stored
    /// cell is cloned as it lies, an owned one is lifted through `lift`.
    /// For a batch straight out of [`GroundBatch::from_relation`] there
    /// are no duplicates and the round trip is the identity; for a kernel
    /// output, the additive merge *is* the deferred merge of the pipeline.
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
    /// have is an internal error. The work is proportional to the
    /// selection, not to the batch: each selected row's cells are read
    /// where their columns keep them into one reused buffer, and moved from
    /// there into the relation's blocks ([`Relation::from_tuples`]'s
    /// builder) — no allocation per row, and no map on the way.
    ///
    /// This is where cells and annotations leave the batch: the selected
    /// rows' cells are cloned (or lifted), a shared column's selected
    /// annotations are cloned out of the source relation's store, a dense
    /// column's are moved, and a join's deferred product is taken for
    /// exactly the selected rows, `l.times(r)` as the eager join did. A
    /// row's cells and annotation are read row by row, and each stored
    /// relation they come from (one per join side) is searched once per
    /// row for all of them.
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
            cols,
            anns: mut column,
        } = self.ground;
        let (named, all) = checked_selection(sel, column.len())?;
        let rows = named.iter().map(|&r| r as usize).chain(0..all);
        // A dense annotation column is moved out row by row; every other
        // annotation and every stored cell is read in its source's row,
        // which is found once per output row for all of them.
        let mut dense = match &mut column {
            Anns::Stored(Stored::Dense(v)) => std::mem::take(v),
            _ => Vec::new(),
        };
        let mut sources = Vec::new();
        let reads: Vec<_> = cols.iter().map(|c| Read::of(c, &mut sources)).collect();
        let ann = Ann::of(&column, &mut sources);
        // No allocation per row: each row's cells are collected into one
        // reused buffer and moved from there into the store's blocks. A
        // column that ends early is reported afterwards.
        let mut short = false;
        let mut builder = Builder::new(schema.arity(), Merge::Sum);
        let mut row = Vec::with_capacity(schema.arity());
        for r in rows {
            for source in &mut sources {
                source.find(r);
            }
            row.clear();
            for read in &reads {
                match read.value(r, &sources, &lift) {
                    Some(v) => row.push(v),
                    None => short = true,
                }
            }
            let k = match &ann {
                Ann::Moved => dense.get_mut(r).map(|k| std::mem::replace(k, K::zero())),
                Ann::Read(operand) => operand.get(r, &sources).cloned(),
                Ann::Product(left, right) => left
                    .get(r, &sources)
                    .zip(right.get(r, &sources))
                    .map(|(a, b)| a.times(b)),
            };
            match k {
                Some(k) if !short => builder.push(&mut row, k),
                _ => {
                    short = true;
                    break;
                }
            }
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
        drop((dense, column, cols));
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

    fn ints<const N: usize>(ns: [i64; N]) -> Vec<Const> {
        ns.into_iter().map(Const::int).collect()
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

    /// Every constant of column `i`, read through one reader.
    fn read(batch: &ColumnBatch<NatPoly, Const>, i: usize) -> Vec<Const> {
        let mut col = batch.column(i).unwrap();
        (0..col.len() as u32)
            .map(|r| col.get(r).unwrap().clone())
            .collect()
    }

    #[test]
    fn split_round_trips_losslessly() {
        let rel = sample();
        let batch = GroundBatch::from_relation(&rel, as_non_bool);
        assert_eq!(batch.ground().len(), 2);
        assert_eq!(batch.fringe().len(), 1);
        // The cells are read where the store keeps them: ground row 1 is
        // support position 2, and its cell is the stored one, not a copy.
        assert_eq!(read(batch.ground(), 0), [Const::int(1), Const::int(3)]);
        assert_eq!(read(batch.ground(), 1), [Const::str("x"), Const::str("y")]);
        let cell: Option<&Const> = batch.ground().cell(1, 1);
        let stored = rel.iter().nth(2).map(|(t, _)| t.get(1));
        assert!(cell.zip(stored).is_some_and(|(a, b)| std::ptr::eq(a, b)));
        assert!(batch.ground().cell(2, 0).is_none() && batch.ground().column(2).is_none());
        let back = batch.into_relation(rel.schema().clone(), |c| c).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn boxed_layout_round_trips_identically() {
        // A half-integer in `a`, a number among the strings of `b`: a
        // stored column reads whatever its rows hold, and owned columns
        // of the same cells read as it does.
        let mut rel = sample();
        let half = Const::Num(aggprov_algebra::num::Num::ratio(7, 2));
        rel.insert(vec![half.clone(), Const::int(9)], NatPoly::token("p4"))
            .unwrap();
        let batch = GroundBatch::from_relation(&rel, as_non_bool);
        let a = [Const::int(1), Const::int(3), half];
        let b = [Const::str("x"), Const::str("y"), Const::int(9)];
        assert_eq!(read(batch.ground(), 0), a);
        assert_eq!(read(batch.ground(), 1), b);
        let cols = vec![a.to_vec(), b.to_vec()];
        let anns = (0..3).map(|r| {
            let mut curs = [Cursor::new(); 2];
            batch.ground().anns.get(r, &mut curs).unwrap().into_owned()
        });
        let owned = ColumnBatch::from_columns(cols, anns.collect()).unwrap();
        assert_eq!(&owned, batch.ground());
        let owned = GroundBatch::from_parts(owned, batch.fringe().to_vec());
        for batch in [batch, owned] {
            let back = batch.into_relation(rel.schema().clone(), |c| c).unwrap();
            assert_eq!(back, rel);
        }
    }

    #[test]
    fn empty_and_all_fringe_round_trip() {
        let empty: Relation<Nat, Const> = Relation::empty(s(&["a"]));
        let b = GroundBatch::from_relation(&empty, |c| Some(c));
        assert!(b.ground().is_empty() && b.fringe().is_empty());
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
        let ground = ColumnBatch::from_columns(vec![ints([1, 1, 2])], nats([2, 3, 1])).unwrap();
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
        assert!(
            ColumnBatch::<Nat, Const>::from_columns(vec![ints([1]), ints([])], vec![Nat(1)])
                .is_err()
        );
        let b = ColumnBatch::from_columns(vec![ints([1])], nats([1])).unwrap();
        assert!(matches!(
            b.clone().project(&[0, 1]),
            Err(RelError::Internal(_))
        ));
        let gb = GroundBatch::<Nat, Const>::from_parts(b.clone(), Vec::new());
        assert!(gb.into_relation(s(&["a", "b"]), |c| c).is_err());
        // A repeated column is one column read twice.
        let twice = b.project(&[0, 0]).unwrap();
        let rel = GroundBatch::<Nat, Const>::from_parts(twice, Vec::new())
            .into_relation(s(&["a", "b"]), |c| c)
            .unwrap();
        assert_eq!(
            rel.annotation(&Tuple::from([Const::int(1), Const::int(1)])),
            Nat(1)
        );
    }

    #[test]
    fn a_deferred_product_reads_as_the_eager_one() {
        let tok = NatPoly::token;
        let batch = |vals: Vec<Const>, anns: Vec<NatPoly>| {
            ColumnBatch::from_columns(vec![vals], anns).unwrap()
        };
        let (l, r) = (
            vec![tok("l0"), tok("l1"), tok("l2")],
            vec![tok("r0"), tok("r1")],
        );
        let (lrows, rrows) = (vec![0u32, 2, 2], vec![1u32, 0, 1]);
        let cols = || vec![ints([1, 3, 3]), ints([20, 10, 20])];
        let products = lrows.iter().zip(&rrows);
        let products = products.map(|(&a, &b)| l[a as usize].times(&r[b as usize]));
        let eager = ColumnBatch::from_columns(cols(), products.collect()).unwrap();
        let deferred = ColumnBatch::from_join(
            batch(ints([1, 2, 3]), l),
            lrows,
            batch(ints([10, 20]), r),
            rrows,
        )
        .unwrap();
        // Equality is row-wise, whichever form holds the cells and the
        // annotations: the deferred columns read through the match rows.
        assert_eq!(deferred, eager);
        let rel = |b: &ColumnBatch<NatPoly, Const>, sel: Option<&[u32]>| {
            GroundBatch::<NatPoly, Const>::from_parts(b.clone(), Vec::new())
                .into_relation_selected(s(&["a", "b"]), |c| c, sel)
                .unwrap()
        };
        assert_eq!(rel(&deferred, None), rel(&eager, None));
        assert_eq!(rel(&deferred, Some(&[0, 2])), rel(&eager, Some(&[0, 2])));
        // A deferred batch as one side of a second join: its products are
        // multiplied out first, at the rows the pairs name, and its cells
        // read through both index vectors.
        let third = || batch(ints([7]), vec![tok("t0")]);
        let nested = ColumnBatch::from_join(deferred, vec![0, 2], third(), vec![0, 0]).unwrap();
        let flat = ColumnBatch::from_join(eager, vec![0, 2], third(), vec![0, 0]).unwrap();
        assert_eq!(read(&nested, 1), [Const::int(20), Const::int(20)]);
        assert_eq!(nested, flat);
    }

    /// The scan behind the shared annotation column of `batch`, and the
    /// annotations it reads.
    fn shared<K: CommutativeSemiring>(batch: &GroundBatch<K, Const>) -> (&Scan<K, Const>, Vec<K>) {
        let Anns::Stored(Stored::Shared(shared)) = &batch.ground().anns else {
            panic!("a split reads its relation's annotations in place");
        };
        let mut curs = [Cursor::new(); 2];
        let read = (0..batch.ground().len())
            .map(|r| batch.ground().anns.get(r, &mut curs).unwrap().into_owned());
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
        let (scan, read) = shared(&batch);
        assert!(scan.positions.is_some(), "a fringe row comes first");
        let ground = rel.iter().filter(|(t, _)| t.get(1) != &Const::Bool(true));
        let (cells, want): (Vec<Const>, Vec<Nat>) =
            ground.map(|(t, k)| (t.get(0).clone(), *k)).unzip();
        assert_eq!(read, want);
        // The cells resolve as the annotations do: in order through one
        // reader, and one at a time out of order.
        let mut col = batch.ground().column(0).unwrap();
        let in_order: Vec<Const> = (0..cells.len() as u32)
            .map(|r| col.get(r).unwrap().clone())
            .collect();
        assert_eq!(in_order, cells);
        for r in (0..cells.len()).rev().step_by(97) {
            assert_eq!(col.get(r as u32), Some(&cells[r]));
        }
        assert!(col.get(cells.len() as u32).is_none());
        let mut curs = [Cursor::new(); 2];
        assert!(batch.ground().anns.get(want.len(), &mut curs).is_none());
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
        let (scan, read) = shared(&batch);
        assert!(scan.positions.is_none());
        assert_eq!(read.len(), ground);
        assert_eq!(batch.fringe().len(), 1);
        assert_eq!(batch.into_relation(s(&["a", "b"]), |c| c).unwrap(), leading);
    }

    #[test]
    fn a_split_keeps_reading_the_cells_it_was_split_from() {
        let mut rel = sample();
        let batch = GroundBatch::from_relation(&rel, as_non_bool);
        rel.remove(&Tuple::from([Const::int(1), Const::str("x")]));
        rel.insert(vec![Const::int(0), Const::str("w")], NatPoly::token("p0"))
            .unwrap();
        assert_eq!(read(batch.ground(), 0), [Const::int(1), Const::int(3)]);
        assert_eq!(
            batch.into_relation(s(&["a", "b"]), |c| c).unwrap(),
            sample()
        );
    }

    #[test]
    fn from_join_refuses_pairs_past_its_inputs() {
        let one = || ColumnBatch::<Nat, Const>::from_columns(vec![ints([1])], nats([1])).unwrap();
        let join = |lrows, rrows| ColumnBatch::from_join(one(), lrows, one(), rrows);
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
            ColumnBatch::from_columns(vec![ints([1, 1])], vec![IntZ(2), IntZ(-2)]).unwrap();
        let rel = GroundBatch::<IntZ, Const>::from_parts(ground, Vec::new())
            .into_relation(s(&["a"]), |c| c)
            .unwrap();
        assert!(rel.is_empty());
    }
}
