//! Monomorphic row loops for the batch kernels: branchless selection over
//! cells read in place, and the one join index both equi-joins build.
//! (The name is left from typed column layouts that no longer exist.)
//!
//! A chunk's columns are read where they lie — in the scanned relation's
//! tuple store, through a join's match rows, or in a column a kernel
//! built — by an [`aggprov_krel::batch::ColumnReader`], one `&Const` a
//! row; no kernel copies a column first. Two things keep the row loops
//! tight:
//!
//! * **Filters** compile the literal **once per kernel invocation** into
//!   an [`IntTest`] — an `i64` threshold, or a keep-all/keep-none/type-error
//!   verdict — which decides every integral `Num` cell with one machine
//!   compare; every other cell (a string, a boolean, a non-integer
//!   rational, `±∞`) takes the structural comparison it always had. The
//!   row loop compacts the selection vector branchlessly,
//!   `out[k] = row; k += keep as usize`.
//! * **Joins** index the key cells of the side with fewer selected rows
//!   (the right one on a tie: [`join_indexing_smaller`]): a single key
//!   column that is integral in every selected row becomes an
//!   integer-hashed index (a multiply-based hasher), anything else
//!   (strings, mixed types, several key columns, none) one structural
//!   index over the key cells, borrowed where they lie. Between constants
//!   the §4.3 equality token is `0`/`1`, so structural equality of the
//!   cells is the whole join condition, and which side is indexed is a
//!   physical choice the output relation cannot see. The other side, the
//!   probe side, reads its key cells in place, looks each one up as it
//!   lies, and writes the match rows straight into two index vectors, in
//!   its own order. Both joins read key cells through [`KeyColumn`]: the
//!   columnar join a chunk's [`ColumnReader`]s, the ground-key block of
//!   `ops::join_at` its ground-keyed rows ([`TupleKey`]).
//!
//! Large kernels additionally **shard across the [`crate::par::fan_out`]
//! workers**: the selection splits into contiguous ascending sub-ranges,
//! each worker reads its own range through its own reader, and the
//! per-shard results concatenate in shard order. Because the ranges are
//! contiguous and ascending, the concatenation is bit-identical to the
//! serial loop — including *which* row raises a type error first, since
//! the first error in shard order belongs to the globally first offending
//! row.
//!
//! Everything here is semantics-preserving by construction against
//! [`crate::ops::batch::const_cmp`] (`=` is structural, `≠` is total
//! across types, ordering across types is a type error raised only if a
//! row actually reaches the comparison) and is property-tested
//! bit-identical to [`crate::specops`] through the batch pipeline at
//! threads 1 and 4. These kernels only ever see constants: a
//! [`crate::ops::batch::Chunk`] keeps its symbolic fringe on the token
//! path, and the join reads either two fringe-free chunks (past
//! `hash_join`'s two-sided fringe gate) or rows that are ground at their
//! key positions (`ops::join_at`'s partition).

use crate::km::CmpPred;
use crate::ops::batch::BatchCmp;
use crate::par::{self, ExecOptions};
use aggprov_algebra::domain::Const;
use aggprov_algebra::num::Num;
use aggprov_krel::batch::{AsConst, ColumnReader};
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::relation::TupleRef;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Minimum number of selected rows before a join probe shards across
/// workers; below this the spawn cost dwarfs the probe.
pub(crate) const SHARD_MIN_ROWS: usize = 8192;

/// Minimum number of selected rows before a column-vs-literal filter
/// shards across workers. The filter reads each cell where its column
/// keeps it — for a scan, a strided pass over the store's blocks that is
/// bound by memory, not by compares: on a 2-CPU guest, over a 100 000-row
/// three-integer table, one shard took 1.1–1.3 ms and two shards lost in
/// 7 of 10 rounds of ten repetitions; two tied at 200 000 rows and won
/// (≈ 15 %) at 400 000.
pub(crate) const FILTER_SHARD_MIN_ROWS: usize = 1 << 18;

/// A column-vs-literal comparison compiled for the integral cells of a
/// column: the literal is bound exactly once per kernel invocation, and an
/// integral `Num` cell is decided by a machine compare.
#[derive(Clone, Copy, Debug)]
pub(crate) enum IntTest {
    /// Every integral cell passes (e.g. `≠` against a value of another
    /// type).
    KeepAll,
    /// No integral cell passes (e.g. `=` against a value of another type).
    KeepNone,
    /// `v == c`.
    Eq(i64),
    /// `v != c`.
    Ne(i64),
    /// `v < c`.
    Lt(i64),
    /// `v <= c` (also carries `col < q` / `col ≤ q` for a non-integer
    /// rational `q`, via `floor(q)`).
    Le(i64),
    /// `v > c` (also `q < col` / `q ≤ col` for non-integer `q`).
    Gt(i64),
    /// `v >= c`.
    Ge(i64),
    /// Ordering a number against another type: an error, but only if a
    /// row reaches it.
    TypeErr {
        /// `type_name` of the left operand, as the row loop would report.
        left: &'static str,
        /// `type_name` of the right operand.
        right: &'static str,
    },
}

/// Compiles a column-vs-literal test for a column's integral cells. The
/// orientation flag preserves both the comparison direction and the
/// operand order in error messages (`>`/`≥` arrive literal-on-left).
/// Non-integer rational literals fold into integer thresholds (`col < q ⟺
/// col ≤ ⌊q⌋` when `q` is not an integer); `±∞` and other-type literals
/// fold to keep-all/keep-none/type-error verdicts.
pub(crate) fn compile_int_test(cmp: BatchCmp, lit: &Const, lit_on_left: bool) -> IntTest {
    let Const::Num(n) = lit else {
        // Across types: structural `=` never holds, `≠` always holds,
        // ordering is a (lazy) type error.
        return match cmp {
            BatchCmp::Eq => IntTest::KeepNone,
            BatchCmp::Pred(CmpPred::Ne) => IntTest::KeepAll,
            BatchCmp::Pred(_) => {
                let (left, right) = if lit_on_left {
                    (lit.type_name(), "num")
                } else {
                    ("num", lit.type_name())
                };
                IntTest::TypeErr { left, right }
            }
        };
    };
    match cmp {
        BatchCmp::Eq => match n.as_int() {
            Some(k) => IntTest::Eq(k),
            // A non-integer rational or ±∞ structurally equals no `i64`.
            None => IntTest::KeepNone,
        },
        BatchCmp::Pred(CmpPred::Ne) => match n.as_int() {
            Some(k) => IntTest::Ne(k),
            None => IntTest::KeepAll,
        },
        BatchCmp::Pred(p) => {
            let strict = p == CmpPred::Lt;
            match n {
                Num::PosInf => {
                    // v < +∞ / v ≤ +∞ always; +∞ < v / +∞ ≤ v never.
                    if lit_on_left {
                        IntTest::KeepNone
                    } else {
                        IntTest::KeepAll
                    }
                }
                Num::NegInf => {
                    if lit_on_left {
                        IntTest::KeepAll
                    } else {
                        IntTest::KeepNone
                    }
                }
                Num::Rat(q) if q.is_integer() => {
                    let k = q.numer();
                    match (lit_on_left, strict) {
                        (false, true) => IntTest::Lt(k),
                        (false, false) => IntTest::Le(k),
                        (true, true) => IntTest::Gt(k),
                        (true, false) => IntTest::Ge(k),
                    }
                }
                Num::Rat(q) => {
                    // q is not an integer, so strict and non-strict agree:
                    // v < q ⟺ v ≤ q ⟺ v ≤ ⌊q⌋ and q < v ⟺ q ≤ v ⟺ v > ⌊q⌋.
                    // ⌊q⌋ fits i64 because |⌊q⌋| ≤ |numer|; the division
                    // runs in i128 since the denominator is a full u64.
                    let floor = (i128::from(q.numer())).div_euclid(i128::from(q.denom())) as i64;
                    if lit_on_left {
                        IntTest::Gt(floor)
                    } else {
                        IntTest::Le(floor)
                    }
                }
            }
        }
    }
}

/// The cell as an `i64`, if it is an integral number.
fn as_int(cell: &Const) -> Option<i64> {
    match cell {
        Const::Num(n) => n.as_int(),
        _ => None,
    }
}

/// Runs a column-vs-literal filter over the rows `sel` names, in order:
/// integral cells are decided by `test`, every other cell by `other` (the
/// structural comparison `test` specializes). One monomorphic row loop per
/// comparison; with more than [`FILTER_SHARD_MIN_ROWS`] selected rows and a
/// non-serial `opts` the scan shards across workers in contiguous ranges
/// (bit-identical to serial, including which row errors first).
pub(crate) fn filter_lit<K: Send + Sync, V: AsConst + Send + Sync>(
    col: &ColumnReader<'_, K, V>,
    sel: Selection<'_>,
    test: IntTest,
    other: impl Fn(&Const) -> Result<bool> + Sync,
    opts: &ExecOptions,
) -> Result<Vec<u32>> {
    let other = &other;
    // One monomorphic row loop per comparison: the integral cells' verdict
    // is resolved before the loop.
    match test {
        IntTest::KeepAll => filter_rows(col, sel, opts, by_int(|_| Ok(true), other)),
        IntTest::KeepNone => filter_rows(col, sel, opts, by_int(|_| Ok(false), other)),
        IntTest::Eq(c) => filter_rows(col, sel, opts, by_int(move |v| Ok(v == c), other)),
        IntTest::Ne(c) => filter_rows(col, sel, opts, by_int(move |v| Ok(v != c), other)),
        IntTest::Lt(c) => filter_rows(col, sel, opts, by_int(move |v| Ok(v < c), other)),
        IntTest::Le(c) => filter_rows(col, sel, opts, by_int(move |v| Ok(v <= c), other)),
        IntTest::Gt(c) => filter_rows(col, sel, opts, by_int(move |v| Ok(v > c), other)),
        IntTest::Ge(c) => filter_rows(col, sel, opts, by_int(move |v| Ok(v >= c), other)),
        IntTest::TypeErr { left, right } => {
            let err = move |_| {
                Err(RelError::TypeError(format!(
                    "cannot order {left} against {right}"
                )))
            };
            filter_rows(col, sel, opts, by_int(err, other))
        }
    }
}

/// A cell test that decides integral cells by `int` and the rest by
/// `other`.
fn by_int<'f>(
    int: impl Fn(i64) -> Result<bool> + Sync + 'f,
    other: &'f (impl Fn(&Const) -> Result<bool> + Sync),
) -> impl Fn(&Const) -> Result<bool> + Sync + 'f {
    move |cell| match as_int(cell) {
        Some(v) => int(v),
        None => other(cell),
    }
}

/// The sharded compaction loop: each shard reads a contiguous ascending
/// range of the selection through its own reader and compacts it, so
/// concatenating in shard order reproduces the serial output exactly.
fn filter_rows<K: Send + Sync, V: AsConst + Send + Sync>(
    col: &ColumnReader<'_, K, V>,
    sel: Selection<'_>,
    opts: &ExecOptions,
    keep: impl Fn(&Const) -> Result<bool> + Sync,
) -> Result<Vec<u32>> {
    let shards = par::ranges(sel.len(), FILTER_SHARD_MIN_ROWS, opts);
    let parts = par::fan_out(shards, |(start, end)| {
        let rows = sel.range(start, end).ok_or_else(shard_oob)?;
        let mut col = col.clone();
        let mut out = vec![0u32; end - start];
        let mut k = 0usize;
        for r in rows {
            let Some(cell) = col.get(r) else {
                return Err(RelError::Internal(format!(
                    "selection row {r} out of range for a {}-row column",
                    col.len()
                )));
            };
            let kept = keep(cell)?;
            #[expect(
                clippy::indexing_slicing,
                reason = "branchless compaction: k never exceeds the rows visited"
            )]
            let slot = &mut out[k];
            *slot = r;
            k += usize::from(kept);
        }
        out.truncate(k);
        Ok(out)
    })?;
    // The selection lives as long as its chunk: hand it back at the rows
    // kept, not the rows scanned (a copy of the kept rows; several shards
    // are concatenated into an exact vector already).
    let mut kept = concat(parts);
    kept.shrink_to_fit();
    Ok(kept)
}

/// The rows a kernel visits: those a selection vector names, or all `n`
/// rows of a chunk without one — iterated, never collected.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Selection<'a> {
    sel: Option<&'a [u32]>,
    n: usize,
}

impl<'a> Selection<'a> {
    /// The rows `sel` names, or (`None`) all of `0..n`.
    pub(crate) fn new(sel: Option<&'a [u32]>, n: usize) -> Self {
        Selection { sel, n }
    }

    /// How many rows are selected.
    pub(crate) fn len(&self) -> usize {
        self.sel.map_or(self.n, <[u32]>::len)
    }

    /// The `start..end`-th selected rows, in order; `None` past the end.
    fn range(self, start: usize, end: usize) -> Option<Rows<'a>> {
        match self.sel {
            Some(s) => s.get(start..end).map(|s| Rows::Named(s.iter())),
            None => {
                let rows = Rows::All(start as u32..end as u32);
                (start <= end && end <= self.n).then_some(rows)
            }
        }
    }
}

impl<'a> IntoIterator for Selection<'a> {
    type Item = u32;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        match self.sel {
            Some(s) => Rows::Named(s.iter()),
            None => Rows::All(0..self.n as u32),
        }
    }
}

/// A [`Selection`]'s rows, in order.
pub(crate) enum Rows<'a> {
    Named(std::slice::Iter<'a, u32>),
    All(std::ops::Range<u32>),
}

impl Iterator for Rows<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Rows::Named(rows) => rows.next().copied(),
            Rows::All(rows) => rows.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Rows::Named(rows) => rows.size_hint(),
            Rows::All(rows) => rows.size_hint(),
        }
    }
}

fn shard_oob() -> RelError {
    RelError::Internal("shard range exceeds the input length".into())
}

fn concat<T>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    if parts.len() == 1 {
        return parts.swap_remove(0);
    }
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend(p);
    }
    out
}

/// A multiply-based hasher for integer join keys (fxhash-style): one
/// xor-multiply per `u64`, far cheaper than the default SipHash and
/// irrelevant to determinism — output order is probe order × bucket
/// insertion order, never hash-iteration order.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct IntHasher(u64);

const HASH_K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(HASH_K);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(HASH_K);
    }

    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// One key column of a join side, read a row at a time: row `r`'s cell,
/// borrowed where it lies. Both equi-joins build and probe [`BuildIndex`]
/// through it, so they share its two arms and its sharded probe.
pub(crate) trait KeyColumn<'a>: Clone {
    /// Row `r`'s key cell; `None` past the end.
    fn cell(&mut self, r: u32) -> Option<&'a Const>;
}

impl<'a, K, V: AsConst> KeyColumn<'a> for ColumnReader<'a, K, V> {
    #[inline]
    fn cell(&mut self, r: u32) -> Option<&'a Const> {
        self.get(r)
    }
}

/// Key column `.1` of the rows `.0` (row `r` is `.0[r]`): the ground-keyed
/// rows of a materialized join side, whose payload may be symbolic.
#[derive(Clone)]
pub(crate) struct TupleKey<'s, 'a, V, K>(pub(crate) &'s [(TupleRef<'a, V>, K)], pub(crate) usize);

impl<'a, V: AsConst + Clone, K: Clone> KeyColumn<'a> for TupleKey<'_, 'a, V, K> {
    #[inline]
    fn cell(&mut self, r: u32) -> Option<&'a Const> {
        let (t, _) = self.0.get(r as usize)?;
        t.values().get(self.1)?.as_const()
    }
}

/// The build side of a join, keyed by its selected rows' key cells: an
/// integer-hashed index when the key is one column, integral in every
/// selected row, and a structural index over the key cells — borrowed
/// where they lie — for every other shape (strings, mixed types, several
/// key columns, none). Each bucket holds build rows in selection order.
enum BuildIndex<'a> {
    Int(IntMap<i64, Vec<u32>>),
    Consts(HashMap<Vec<&'a Const>, Vec<u32>>),
}

impl<'a> BuildIndex<'a> {
    /// Indexes the key cells of the rows `sel` names. A one-column key is
    /// hashed as integers while its cells are integral, which one pass over
    /// them decides; at the first other cell, and for a key of several
    /// columns, the index is structural.
    fn build<C: KeyColumn<'a>>(keys: &[C], sel: Selection<'_>) -> Result<Self> {
        let mut keys = keys.to_vec();
        if let [key] = keys.as_mut_slice() {
            let mut index: IntMap<i64, Vec<u32>> = IntMap::default();
            let mut integral = true;
            for r in sel {
                let Some(v) = as_int(key.cell(r).ok_or_else(join_row_oob)?) else {
                    integral = false;
                    break;
                };
                index.entry(v).or_default().push(r);
            }
            if integral {
                return Ok(BuildIndex::Int(index));
            }
        }
        let mut index: HashMap<Vec<&'a Const>, Vec<u32>> = HashMap::new();
        let mut key = Vec::with_capacity(keys.len());
        for r in sel {
            read_key(&mut keys, r, &mut key)?;
            match index.get_mut(key.as_slice()) {
                Some(rows) => rows.push(r),
                None => {
                    index.insert(key.clone(), vec![r]);
                }
            }
        }
        Ok(BuildIndex::Consts(index))
    }

    /// The build rows whose key structurally equals probe row `r`'s, read
    /// through `keys` (`buf` is the reused key buffer of the structural
    /// index). A non-integral cell probing the integer index matches
    /// nothing, as structural equality says.
    fn probe<C: KeyColumn<'a>>(
        &self,
        keys: &mut [C],
        r: u32,
        buf: &mut Vec<&'a Const>,
    ) -> Result<&[u32]> {
        let rows = match self {
            BuildIndex::Int(index) => as_int(one_key(keys, r)?).and_then(|v| index.get(&v)),
            BuildIndex::Consts(index) => {
                read_key(keys, r, buf)?;
                index.get(buf.as_slice())
            }
        };
        Ok(rows.map_or(&[], Vec::as_slice))
    }
}

/// Row `r`'s cell of a one-column key.
fn one_key<'a, C: KeyColumn<'a>>(keys: &mut [C], r: u32) -> Result<&'a Const> {
    match keys {
        [key] => key.cell(r).ok_or_else(join_row_oob),
        _ => Err(RelError::Internal(
            "an integer join index probed with several key columns".into(),
        )),
    }
}

/// Row `r`'s key cells, borrowed where they lie, into `key`.
fn read_key<'a, C: KeyColumn<'a>>(keys: &mut [C], r: u32, key: &mut Vec<&'a Const>) -> Result<()> {
    key.clear();
    for col in keys {
        key.push(col.cell(r).ok_or_else(join_row_oob)?);
    }
    Ok(())
}

/// What both equi-joins run: [`join_rows`] with the index built over
/// whichever side has fewer selected rows — the right one on a tie. Pair
/// `i` is still `(lrows[i], rrows[i])`; the pairs come out in the order of
/// the side that was not indexed, so a small dimension joined to a large
/// scan emits the scan's rows in the order it read them.
pub(crate) fn join_indexing_smaller<'a, C: KeyColumn<'a> + Sync>(
    lkeys: &[C],
    rkeys: &[C],
    lsel: Selection<'_>,
    rsel: Selection<'_>,
    opts: &ExecOptions,
) -> Result<(Vec<u32>, Vec<u32>)> {
    if lsel.len() < rsel.len() {
        let (rrows, lrows) = join_rows(rkeys, lkeys, rsel, lsel, opts)?;
        return Ok((lrows, rrows));
    }
    join_rows(lkeys, rkeys, lsel, rsel, opts)
}

/// The equi-join of the rows `lsel` and `rsel` name on structural
/// equality of their key cells: build (right), probe (left). Returns the
/// match rows of each side, pair `i` being `(lrows[i], rrows[i])`, in
/// probe order and, within one probe row, in build selection order —
/// written straight into the two vectors, sized for one match a probe
/// row. From [`SHARD_MIN_ROWS`] probe rows on, the probe shards across
/// workers in contiguous ranges. The joins call it through
/// [`join_indexing_smaller`], which may hand it the sides swapped.
pub(crate) fn join_rows<'a, C: KeyColumn<'a> + Sync>(
    lkeys: &[C],
    rkeys: &[C],
    lsel: Selection<'_>,
    rsel: Selection<'_>,
    opts: &ExecOptions,
) -> Result<(Vec<u32>, Vec<u32>)> {
    let index = BuildIndex::build(rkeys, rsel)?;
    let shards = par::ranges(lsel.len(), SHARD_MIN_ROWS, opts);
    let mut parts = par::fan_out(shards, |(start, end)| {
        let rows = lsel.range(start, end).ok_or_else(shard_oob)?;
        let mut keys = lkeys.to_vec();
        let mut buf = Vec::with_capacity(keys.len());
        let (mut lrows, mut rrows) = (
            Vec::with_capacity(end - start),
            Vec::with_capacity(end - start),
        );
        for r in rows {
            let matched = index.probe(&mut keys, r, &mut buf)?;
            lrows.extend(std::iter::repeat_n(r, matched.len()));
            rrows.extend_from_slice(matched);
        }
        Ok((lrows, rrows))
    })?;
    if parts.len() == 1 {
        return Ok(parts.swap_remove(0));
    }
    let (lrows, rrows) = parts.into_iter().unzip::<_, _, Vec<_>, Vec<_>>();
    Ok((concat(lrows), concat(rrows)))
}

fn join_row_oob() -> RelError {
    RelError::Internal("join key row out of range for its column".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_algebra::semiring::Nat;
    use aggprov_krel::batch::ColumnBatch;

    type Batch = ColumnBatch<Nat, Const>;

    /// A one-column batch of owned constants.
    fn batch(vals: Vec<Const>) -> Batch {
        let anns = vec![Nat(1); vals.len()];
        ColumnBatch::from_columns(vec![vals], anns).unwrap()
    }

    fn ints(vals: &[i64]) -> Batch {
        batch(vals.iter().map(|&v| Const::int(v)).collect())
    }

    fn strs(vals: &[&str]) -> Batch {
        batch(vals.iter().map(|s| Const::str(s)).collect())
    }

    fn run_opts(
        b: &Batch,
        sel: Option<&[u32]>,
        cmp: BatchCmp,
        lit: &Const,
        lit_on_left: bool,
        opts: &ExecOptions,
    ) -> Result<Vec<u32>> {
        let test = compile_int_test(cmp, lit, lit_on_left);
        let other = |cell: &Const| {
            if lit_on_left {
                crate::ops::batch::const_cmp(lit, cmp, cell)
            } else {
                crate::ops::batch::const_cmp(cell, cmp, lit)
            }
        };
        let col = b.column(0).unwrap();
        filter_lit(&col, Selection::new(sel, b.len()), test, other, opts)
    }

    fn run(b: &Batch, sel: Option<&[u32]>, cmp: BatchCmp, lit: &Const) -> Result<Vec<u32>> {
        run_opts(b, sel, cmp, lit, false, &ExecOptions::serial())
    }

    #[test]
    fn num_literal_compiles_once_and_filters() {
        let col = ints(&[5, 1, 9, 5, -2]);
        let got = run(&col, None, BatchCmp::Eq, &Const::int(5)).unwrap();
        assert_eq!(got, vec![0, 3]);
        let got = run(&col, None, BatchCmp::Pred(CmpPred::Lt), &Const::int(5)).unwrap();
        assert_eq!(got, vec![1, 4]);
        // Sparse: an existing selection narrows further.
        let sel = [0u32, 2, 4];
        let got = run(
            &col,
            Some(&sel),
            BatchCmp::Pred(CmpPred::Ne),
            &Const::int(9),
        )
        .unwrap();
        assert_eq!(got, vec![0, 4]);
    }

    #[test]
    fn rational_and_infinite_literals_fold_to_thresholds() {
        let col = ints(&[1, 2, 3]);
        let serial = ExecOptions::serial();
        // v < 5/2 ⟺ v ≤ 2; v ≤ 5/2 likewise.
        let q = Const::Num(Num::ratio(5, 2));
        let lt = BatchCmp::Pred(CmpPred::Lt);
        let le = BatchCmp::Pred(CmpPred::Le);
        assert_eq!(run(&col, None, lt, &q).unwrap(), vec![0, 1]);
        assert_eq!(run(&col, None, le, &q).unwrap(), vec![0, 1]);
        // Literal on the left: 5/2 < v ⟺ v ≥ 3.
        assert_eq!(
            run_opts(&col, None, lt, &q, true, &serial).unwrap(),
            vec![2]
        );
        // Negative floors: v < -5/2 ⟺ v ≤ -3.
        let nq = Const::Num(Num::ratio(-5, 2));
        assert_eq!(run(&ints(&[-3, -2, 0]), None, lt, &nq).unwrap(), vec![0]);
        // No i64 equals a non-integer rational; every one differs from it.
        assert!(run(&col, None, BatchCmp::Eq, &q).unwrap().is_empty());
        let ne = BatchCmp::Pred(CmpPred::Ne);
        assert_eq!(run(&col, None, ne, &q).unwrap(), vec![0, 1, 2]);
        // ±∞.
        let inf = Const::Num(Num::PosInf);
        assert_eq!(run(&col, None, lt, &inf).unwrap(), vec![0, 1, 2]);
        assert!(run_opts(&col, None, le, &inf, true, &serial)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn other_cells_take_the_structural_comparison() {
        let col = strs(&["b", "a", "c", "b"]);
        assert_eq!(
            run(&col, None, BatchCmp::Eq, &Const::str("b")).unwrap(),
            vec![0, 3]
        );
        assert!(run(&col, None, BatchCmp::Eq, &Const::str("zz"))
            .unwrap()
            .is_empty());
        let ne = BatchCmp::Pred(CmpPred::Ne);
        assert_eq!(
            run(&col, None, ne, &Const::str("zz")).unwrap(),
            vec![0, 1, 2, 3]
        );
        let le = BatchCmp::Pred(CmpPred::Le);
        assert_eq!(
            run(&col, None, le, &Const::str("b")).unwrap(),
            vec![0, 1, 3]
        );
        // A mixed column: each cell by its own type.
        let mixed = batch(vec![Const::int(1), Const::str("a"), Const::int(3)]);
        assert_eq!(
            run(&mixed, None, BatchCmp::Eq, &Const::int(3)).unwrap(),
            [2]
        );
        assert_eq!(run(&mixed, None, ne, &Const::str("a")).unwrap(), vec![0, 2]);
    }

    #[test]
    fn cross_type_errors_only_when_rows_are_selected() {
        let col = ints(&[1, 2]);
        let lit = Const::str("s");
        let lt = BatchCmp::Pred(CmpPred::Lt);
        let err = run(&col, None, lt, &lit).unwrap_err();
        assert_eq!(err.to_string(), "type error: cannot order num against text");
        // Orientation is preserved in the message.
        let err = run_opts(&col, None, lt, &lit, true, &ExecOptions::serial()).unwrap_err();
        assert_eq!(err.to_string(), "type error: cannot order text against num");
        // An empty selection never reaches the comparison.
        assert!(run(&col, Some(&[]), lt, &lit).unwrap().is_empty());
        // = / ≠ stay total across types.
        assert!(run(&col, None, BatchCmp::Eq, &lit).unwrap().is_empty());
        let ne = BatchCmp::Pred(CmpPred::Ne);
        assert_eq!(run(&col, None, ne, &lit).unwrap(), vec![0, 1]);
    }

    #[test]
    fn sharded_filter_matches_serial() {
        // Sparse selections shard too, so every other row must still be
        // past the threshold.
        let n = 2 * FILTER_SHARD_MIN_ROWS as i64 + 2_000;
        let vals: Vec<i64> = (0..n).map(|i| i * 7 % 101).collect();
        // An owned column, and the same cells where a relation's store
        // keeps them (`id` keeps the rows distinct).
        let owned = ints(&vals);
        let rel = aggprov_krel::relation::Relation::from_rows(
            aggprov_krel::schema::Schema::new(["v", "id"]).unwrap(),
            (0..n).map(|i| (vec![Const::int(vals[i as usize]), Const::int(i)], Nat(1))),
        )
        .unwrap();
        let stored = aggprov_krel::batch::GroundBatch::from_relation(&rel, |c| Some(c));
        let sel: Vec<u32> = (0..n as u32).step_by(2).collect();
        let lit = Const::int(50);
        let four = ExecOptions::with_threads(4);
        for cmp in [BatchCmp::Pred(CmpPred::Lt), BatchCmp::Pred(CmpPred::Le)] {
            for batch in [&owned, stored.ground()] {
                for sel in [None, Some(&sel[..])] {
                    let serial = run(batch, sel, cmp, &lit).unwrap();
                    assert_eq!(
                        serial,
                        run_opts(batch, sel, cmp, &lit, false, &four).unwrap()
                    );
                }
            }
        }
    }

    fn join(
        l: &Batch,
        r: &Batch,
        lsel: Selection<'_>,
        rsel: Selection<'_>,
        opts: &ExecOptions,
    ) -> Vec<(u32, u32)> {
        let (lkeys, rkeys) = ([l.column(0).unwrap()], [r.column(0).unwrap()]);
        let (lrows, rrows) = join_rows(&lkeys, &rkeys, lsel, rsel, opts).unwrap();
        lrows.into_iter().zip(rrows).collect()
    }

    #[test]
    fn join_pairs_probe_in_left_order() {
        let (l, r) = (ints(&[1, 2, 3, 2]), ints(&[2, 9, 2]));
        let all = |n: usize| Selection::new(None, n);
        let serial = ExecOptions::serial();
        let pairs = join(&l, &r, all(4), all(3), &serial);
        assert_eq!(pairs, vec![(1, 0), (1, 2), (3, 0), (3, 2)]);
        // A selection vector on either side narrows the pairs.
        let (lsel, rsel) = ([1u32, 2], [2u32]);
        let named = |s| Selection::new(Some(s), 4);
        assert_eq!(
            join(&l, &r, named(&lsel), named(&rsel), &serial),
            vec![(1, 2)]
        );
        // Sharded probing concatenates to the same order, over a selection
        // vector and over all rows.
        let big_l = ints(&(0..20_000).map(|i| i % 16).collect::<Vec<_>>());
        let evens: Vec<u32> = (0..20_000).step_by(2).collect();
        let small_r = ints(&(0..16).collect::<Vec<_>>());
        for lsel in [all(20_000), Selection::new(Some(&evens), 20_000)] {
            let probe = |opts| join(&big_l, &small_r, lsel, all(16), opts);
            assert_eq!(probe(&serial), probe(&ExecOptions::with_threads(4)));
        }
    }

    /// [`join_indexing_smaller`]'s pairs, as `(left row, right row)`.
    fn join_smaller(
        l: &Batch,
        r: &Batch,
        lsel: Selection<'_>,
        rsel: Selection<'_>,
        opts: &ExecOptions,
    ) -> Vec<(u32, u32)> {
        let (lkeys, rkeys) = ([l.column(0).unwrap()], [r.column(0).unwrap()]);
        let (lrows, rrows) = join_indexing_smaller(&lkeys, &rkeys, lsel, rsel, opts).unwrap();
        lrows.into_iter().zip(rrows).collect()
    }

    #[test]
    fn a_smaller_left_side_is_indexed_and_probed_in_right_order() {
        let all = |n: usize| Selection::new(None, n);
        let serial = ExecOptions::serial();
        let (l, r) = (ints(&[2, 1, 2]), ints(&[1, 2, 3, 2, 1]));
        let pairs = join_smaller(&l, &r, all(3), all(5), &serial);
        // Right order, and within one right row the left rows in selection
        // order: the left side was indexed and the right probed it.
        assert_eq!(pairs, vec![(1, 0), (0, 1), (2, 1), (0, 3), (2, 3), (1, 4)]);
        let swapped: Vec<(u32, u32)> = join(&r, &l, all(5), all(3), &serial)
            .into_iter()
            .map(|(r, l)| (l, r))
            .collect();
        assert_eq!(pairs, swapped);
        // The pairs are the ones `join_rows` finds, in another order.
        let mut probed_left = join(&l, &r, all(3), all(5), &serial);
        probed_left.sort_by_key(|&(l, r)| (r, l));
        assert_eq!(pairs, probed_left);
        // Selected rows decide, not the batch lengths: two of the right's
        // five rows against all three of the left's index the right.
        let two = [1u32, 4];
        let rsel = Selection::new(Some(&two), 5);
        assert_eq!(
            join_smaller(&l, &r, all(3), rsel, &serial),
            join(&l, &r, all(3), rsel, &serial)
        );
    }

    #[test]
    fn a_smaller_or_equal_right_side_is_indexed_as_join_rows_does() {
        let all = |n: usize| Selection::new(None, n);
        let serial = ExecOptions::serial();
        // Right smaller.
        let (l, r) = (ints(&[1, 2, 3, 2]), ints(&[2, 9, 2]));
        assert_eq!(
            join_smaller(&l, &r, all(4), all(3), &serial),
            join(&l, &r, all(4), all(3), &serial)
        );
        // A tie: the right side is indexed, the left probes in its order.
        let (l, r) = (ints(&[2, 1, 2]), ints(&[1, 2, 2]));
        let pairs = join_smaller(&l, &r, all(3), all(3), &serial);
        assert_eq!(pairs, join(&l, &r, all(3), all(3), &serial));
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 0), (2, 1), (2, 2)]);
        // A tie of selections over batches of different lengths.
        let (lsel, rsel) = ([0u32, 2], [1u32, 2]);
        let (lsel, rsel) = (
            Selection::new(Some(&lsel), 4),
            Selection::new(Some(&rsel), 3),
        );
        let l = ints(&[2, 1, 2, 7]);
        assert_eq!(
            join_smaller(&l, &r, lsel, rsel, &serial),
            join(&l, &r, lsel, rsel, &serial)
        );
    }

    #[test]
    fn a_larger_side_past_the_shard_threshold_probes_the_same_pairs_sharded() {
        let all = |n: usize| Selection::new(None, n);
        let n = 2 * SHARD_MIN_ROWS + 1_000;
        let big = ints(&(0..n as i64).map(|i| i % 16).collect::<Vec<_>>());
        let small = ints(&(0..16).collect::<Vec<_>>());
        let (serial, four) = (ExecOptions::serial(), ExecOptions::with_threads(4));
        // The large side probes on either side of the join, sharded at 4
        // threads, and the small side is indexed.
        let left_big = |opts| join_smaller(&big, &small, all(n), all(16), opts);
        assert_eq!(left_big(&serial), left_big(&four));
        assert_eq!(
            left_big(&serial),
            join(&big, &small, all(n), all(16), &serial)
        );
        let right_big = |opts| join_smaller(&small, &big, all(16), all(n), opts);
        let pairs = right_big(&serial);
        assert_eq!(pairs, right_big(&four));
        assert_eq!(pairs.len(), n);
        assert!(pairs
            .iter()
            .enumerate()
            .all(|(i, &(l, r))| r == i as u32 && l == r % 16));
    }

    /// The probe cells of a join over a string build key.
    fn probe_cells() -> Batch {
        let cells = ["x", "y", "z", "y"].map(Const::str);
        batch(cells.into_iter().chain([Const::int(1)]).collect())
    }

    #[test]
    fn a_string_build_key_goes_structural() {
        let all = |n: usize| Selection::new(None, n);
        // "x" matches right row 2, "y" right row 0, "z" nothing, and an
        // integer probe cell no string.
        let r = strs(&["y", "w", "x"]);
        let pairs = join(&probe_cells(), &r, all(5), all(3), &ExecOptions::serial());
        assert_eq!(pairs, vec![(0, 2), (1, 0), (3, 0)]);
    }

    #[test]
    fn a_mixed_build_key_goes_structural() {
        let all = |n: usize| Selection::new(None, n);
        let serial = ExecOptions::serial();
        let l = probe_cells();
        // Structural equality still matches by type and value: the string
        // "1" is not the number 1.
        let r = batch(vec![Const::int(1), Const::str("y"), Const::str("1")]);
        assert_eq!(
            join(&l, &r, all(5), all(3), &serial),
            vec![(1, 1), (3, 1), (4, 0)]
        );
        // Integral cells until the last build row: the index turns
        // structural there, built again from the first row, so both 2s
        // keep their selection order.
        let mut cells: Vec<Const> = [2, 3, 2].map(Const::int).into();
        cells.push(Const::str("x"));
        let r = batch(cells);
        let l = batch(vec![Const::int(2), Const::str("x"), Const::int(3)]);
        assert_eq!(
            join(&l, &r, all(3), all(4), &serial),
            vec![(0, 0), (0, 2), (1, 3), (2, 1)]
        );
        // Without that row the same key is integral: the integer index.
        let first3 = [0u32, 1, 2];
        assert_eq!(
            join(&l, &r, all(3), Selection::new(Some(&first3), 4), &serial),
            vec![(0, 0), (0, 2), (2, 1)]
        );
        // A non-integer probe cell matches no integral key.
        let l = batch(vec![Const::Num(Num::ratio(3, 2)), Const::int(2)]);
        assert_eq!(
            join(&l, &ints(&[2, 3]), all(2), all(2), &serial),
            vec![(1, 0)]
        );
    }
}
