//! Monomorphic kernels over typed columns: branchless selection and
//! unboxed join probing for the batch pipeline.
//!
//! The boxed kernels in [`crate::ops::batch`] compare one `Const` enum per
//! row — a discriminant branch plus (for numbers) a rational
//! numerator/denominator pair per cell. This module is the typed fast
//! path: the filter literal is **compiled once per kernel invocation**
//! into a [`ColTest`] (an `i64` threshold, a dictionary code, a
//! per-dictionary-entry decision table, or a keep-all/keep-none/type-error
//! verdict), and the row loop then runs over the unboxed `Vec<i64>` run or
//! the `Vec<u32>` code column with **branchless selection compaction** —
//! `out[k] = row; k += keep as usize` — so rustc autovectorizes it. Join
//! probing gets the same treatment: `i64` keys hash through a
//! multiply-based hasher into an integer index, and dictionary-encoded
//! keys probe through a left-dictionary → right-code translation table
//! plus dense per-code buckets, with no string comparison on the probe
//! loop.
//!
//! Large kernels additionally **shard across the [`crate::par::fan_out`]
//! workers**: the row range (or selection vector) splits into contiguous
//! ascending sub-ranges, each worker compacts its own range, and the
//! per-shard results concatenate in shard order. Because the ranges are
//! contiguous and ascending, the concatenation is bit-identical to the
//! serial loop — including *which* row raises a type error first, since
//! the first error in shard order belongs to the globally first offending
//! row.
//!
//! Everything here is semantics-preserving by construction against the
//! boxed row loop ([`crate::ops::batch::const_cmp`] semantics: `=` is
//! structural, `≠` is total across types, ordering across types is a type
//! error raised only if a row actually reaches the comparison) and is
//! property-tested bit-identical to [`crate::specops`] through the batch
//! pipeline at threads 1 and 4. These kernels only ever see the ground
//! partition: [`crate::ops::batch::Chunk`] keeps its symbolic fringe on
//! the token path, and the join entry points here are reached only past
//! `hash_join`'s two-sided fringe gate.

use crate::km::CmpPred;
use crate::ops::batch::BatchCmp;
use crate::par::{self, ExecOptions};
use aggprov_algebra::domain::Const;
use aggprov_algebra::num::Num;
use aggprov_krel::error::{RelError, Result};
use aggprov_krel::typed::{StrColumn, TypedColumn};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Minimum number of selected rows before a filter or probe kernel shards
/// across workers; below this the spawn cost dwarfs the scan.
pub(crate) const SHARD_MIN_ROWS: usize = 8192;

/// A column-vs-literal comparison compiled against one typed column: the
/// literal is bound (and, for strings, dictionary-encoded) exactly once
/// per kernel invocation, and the row loop reduces to a machine compare.
#[derive(Clone, Debug)]
pub(crate) enum ColTest {
    /// Every row passes (e.g. `≠` against a value of another type).
    KeepAll,
    /// No row passes (e.g. `=` against a value of another type).
    KeepNone,
    /// `v == c` over an unboxed `i64` run.
    NumEq(i64),
    /// `v != c`.
    NumNe(i64),
    /// `v < c`.
    NumLt(i64),
    /// `v <= c` (also carries `col < q` / `col ≤ q` for a non-integer
    /// rational `q`, via `floor(q)`).
    NumLe(i64),
    /// `v > c` (also `q < col` / `q ≤ col` for non-integer `q`).
    NumGt(i64),
    /// `v >= c`.
    NumGe(i64),
    /// `code == c` over a dictionary-encoded column.
    CodeEq(u32),
    /// `code != c`.
    CodeNe(u32),
    /// String ordering: one pre-decided boolean per dictionary entry,
    /// indexed by code.
    CodeTable(Vec<bool>),
    /// Ordering across types: an error, but only if a row reaches it —
    /// the row loop never raises on an empty selection.
    TypeErr {
        /// `type_name` of the left operand, as the row loop would report.
        left: &'static str,
        /// `type_name` of the right operand.
        right: &'static str,
    },
}

/// Compiles a column-vs-literal test against a typed column. `None` for
/// the boxed variant — the caller keeps its `Const` row loop. The
/// orientation flag preserves both the comparison direction and the
/// operand order in error messages (`>`/`≥` arrive literal-on-left).
///
/// Every `TypedColumn` variant has its own arm: a new column
/// representation needs a typed-kernel decision for predicate compilation
/// (or an explicit boxed fallback).
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn compile_lit_test(
    col: &TypedColumn,
    cmp: BatchCmp,
    lit: &Const,
    lit_on_left: bool,
) -> Option<ColTest> {
    match col {
        TypedColumn::Num(_) => Some(compile_num_test(cmp, lit, lit_on_left)),
        TypedColumn::Str(sc) => Some(compile_str_test(sc, cmp, lit, lit_on_left)),
        TypedColumn::Boxed(_) => None,
    }
}

/// The cross-type verdict shared by both typed variants: structural `=`
/// never holds, `≠` always holds, ordering is a (lazy) type error.
fn cross_type(cmp: BatchCmp, col_ty: &'static str, lit: &Const, lit_on_left: bool) -> ColTest {
    match cmp {
        BatchCmp::Eq => ColTest::KeepNone,
        BatchCmp::Pred(CmpPred::Ne) => ColTest::KeepAll,
        BatchCmp::Pred(_) => {
            let (left, right) = if lit_on_left {
                (lit.type_name(), col_ty)
            } else {
                (col_ty, lit.type_name())
            };
            ColTest::TypeErr { left, right }
        }
    }
}

/// Compiles a test for an unboxed `i64` column. Non-integer rational
/// literals fold into integer thresholds (`col < q ⟺ col ≤ ⌊q⌋` when `q`
/// is not an integer); `±∞` and other-type literals fold to
/// keep-all/keep-none/type-error verdicts.
fn compile_num_test(cmp: BatchCmp, lit: &Const, lit_on_left: bool) -> ColTest {
    let Const::Num(n) = lit else {
        return cross_type(cmp, "num", lit, lit_on_left);
    };
    match cmp {
        BatchCmp::Eq => match n.as_int() {
            Some(k) => ColTest::NumEq(k),
            // A non-integer rational or ±∞ structurally equals no `i64`.
            None => ColTest::KeepNone,
        },
        BatchCmp::Pred(CmpPred::Ne) => match n.as_int() {
            Some(k) => ColTest::NumNe(k),
            None => ColTest::KeepAll,
        },
        BatchCmp::Pred(p) => {
            let strict = p == CmpPred::Lt;
            match n {
                Num::PosInf => {
                    // v < +∞ / v ≤ +∞ always; +∞ < v / +∞ ≤ v never.
                    if lit_on_left {
                        ColTest::KeepNone
                    } else {
                        ColTest::KeepAll
                    }
                }
                Num::NegInf => {
                    if lit_on_left {
                        ColTest::KeepAll
                    } else {
                        ColTest::KeepNone
                    }
                }
                Num::Rat(q) if q.is_integer() => {
                    let k = q.numer();
                    match (lit_on_left, strict) {
                        (false, true) => ColTest::NumLt(k),
                        (false, false) => ColTest::NumLe(k),
                        (true, true) => ColTest::NumGt(k),
                        (true, false) => ColTest::NumGe(k),
                    }
                }
                Num::Rat(q) => {
                    // q is not an integer, so strict and non-strict agree:
                    // v < q ⟺ v ≤ q ⟺ v ≤ ⌊q⌋ and q < v ⟺ q ≤ v ⟺ v > ⌊q⌋.
                    // ⌊q⌋ fits i64 because |⌊q⌋| ≤ |numer|; the division
                    // runs in i128 since the denominator is a full u64.
                    let floor = (i128::from(q.numer())).div_euclid(i128::from(q.denom())) as i64;
                    if lit_on_left {
                        ColTest::NumGt(floor)
                    } else {
                        ColTest::NumLe(floor)
                    }
                }
            }
        }
    }
}

/// Compiles a test for a dictionary-encoded column: one dictionary lookup
/// for `=`/`≠`, one pre-decided boolean per dictionary entry for ordering.
fn compile_str_test(sc: &StrColumn, cmp: BatchCmp, lit: &Const, lit_on_left: bool) -> ColTest {
    let Const::Str(s) = lit else {
        return cross_type(cmp, "text", lit, lit_on_left);
    };
    match cmp {
        BatchCmp::Eq => match sc.code_of(s) {
            Some(c) => ColTest::CodeEq(c),
            None => ColTest::KeepNone,
        },
        BatchCmp::Pred(CmpPred::Ne) => match sc.code_of(s) {
            Some(c) => ColTest::CodeNe(c),
            None => ColTest::KeepAll,
        },
        BatchCmp::Pred(p) => {
            let strict = p == CmpPred::Lt;
            let lit: &str = s;
            let decide = |v: &str| -> bool {
                match (lit_on_left, strict) {
                    (false, true) => v < lit,
                    (false, false) => v <= lit,
                    (true, true) => lit < v,
                    (true, false) => lit <= v,
                }
            };
            ColTest::CodeTable(sc.dict().iter().map(|d| decide(d)).collect())
        }
    }
}

/// Runs a compiled test over a typed column, narrowing the selection
/// vector (`None` = all rows). The output is ascending; with more than
/// [`SHARD_MIN_ROWS`] selected rows and a non-serial `opts` the scan
/// shards across workers in contiguous ranges (bit-identical to serial,
/// including which row errors first).
pub(crate) fn run_filter(
    col: &TypedColumn,
    sel: Option<&[u32]>,
    test: &ColTest,
    opts: &ExecOptions,
) -> Result<Vec<u32>> {
    let selected = sel.map_or_else(|| col.len(), <[u32]>::len);
    match test {
        ColTest::KeepAll => Ok(match sel {
            Some(s) => s.to_vec(),
            None => (0..col.len() as u32).collect(),
        }),
        ColTest::KeepNone => Ok(Vec::new()),
        ColTest::TypeErr { left, right } => {
            if selected == 0 {
                Ok(Vec::new())
            } else {
                Err(RelError::TypeError(format!(
                    "cannot order {left} against {right}"
                )))
            }
        }
        ColTest::NumEq(c)
        | ColTest::NumNe(c)
        | ColTest::NumLt(c)
        | ColTest::NumLe(c)
        | ColTest::NumGt(c)
        | ColTest::NumGe(c) => {
            let TypedColumn::Num(vals) = col else {
                return Err(variant_mismatch("num", col));
            };
            let c = *c;
            // One monomorphic instantiation per comparison: the closure is
            // resolved before the row loop, so each arm compiles to a
            // straight-line compare-and-compact loop.
            match test {
                ColTest::NumEq(_) => filter_rows(vals, sel, opts, move |v| v == c),
                ColTest::NumNe(_) => filter_rows(vals, sel, opts, move |v| v != c),
                ColTest::NumLt(_) => filter_rows(vals, sel, opts, move |v| v < c),
                ColTest::NumLe(_) => filter_rows(vals, sel, opts, move |v| v <= c),
                ColTest::NumGt(_) => filter_rows(vals, sel, opts, move |v| v > c),
                _ => filter_rows(vals, sel, opts, move |v| v >= c),
            }
        }
        ColTest::CodeEq(c) | ColTest::CodeNe(c) => {
            let TypedColumn::Str(sc) = col else {
                return Err(variant_mismatch("str", col));
            };
            let c = *c;
            match test {
                ColTest::CodeEq(_) => filter_rows(sc.codes(), sel, opts, move |v| v == c),
                _ => filter_rows(sc.codes(), sel, opts, move |v| v != c),
            }
        }
        ColTest::CodeTable(tbl) => {
            let TypedColumn::Str(sc) = col else {
                return Err(variant_mismatch("str", col));
            };
            if tbl.len() < sc.dict().len() {
                return Err(RelError::Internal(
                    "string decision table shorter than the dictionary".into(),
                ));
            }
            let tbl: &[bool] = tbl;
            #[expect(
                clippy::indexing_slicing,
                reason = "codes index the dictionary by construction and tbl covers it (checked above)"
            )]
            filter_rows(sc.codes(), sel, opts, move |v| tbl[v as usize])
        }
    }
}

fn variant_mismatch(expected: &str, col: &TypedColumn) -> RelError {
    RelError::Internal(format!(
        "typed test compiled for a {expected} column applied to a {} column",
        col.variant()
    ))
}

/// Cuts `n` work items into contiguous ascending ranges, one per planned
/// worker; a single range means "stay serial".
fn ranges(n: usize, opts: &ExecOptions) -> Vec<(usize, usize)> {
    let shards = if n >= SHARD_MIN_ROWS {
        par::plan_shards(opts, n)
    } else {
        1
    };
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// The sharded compaction driver: dense mode scans `vals` directly,
/// sparse mode gathers through the selection vector. Each shard compacts
/// a contiguous ascending range, so concatenating in shard order
/// reproduces the serial output exactly.
fn filter_rows<T: Copy + Send + Sync>(
    vals: &[T],
    sel: Option<&[u32]>,
    opts: &ExecOptions,
    keep: impl Fn(T) -> bool + Copy + Sync,
) -> Result<Vec<u32>> {
    let parts = match sel {
        None => par::fan_out(ranges(vals.len(), opts), |(start, end)| {
            let chunk = vals.get(start..end).ok_or_else(shard_oob)?;
            Ok(compact_dense(chunk, start, keep))
        })?,
        Some(s) => par::fan_out(ranges(s.len(), opts), |(start, end)| {
            let rows = s.get(start..end).ok_or_else(shard_oob)?;
            compact_sparse(vals, rows, keep)
        })?,
    };
    Ok(concat(parts))
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

/// Branchless compaction over a dense row range: the write index advances
/// by the predicate's boolean, no taken branch in the loop body.
#[inline]
fn compact_dense<T: Copy>(vals: &[T], start: usize, keep: impl Fn(T) -> bool) -> Vec<u32> {
    let mut out = vec![0u32; vals.len()];
    let mut k = 0usize;
    for (i, &v) in vals.iter().enumerate() {
        #[expect(
            clippy::indexing_slicing,
            reason = "branchless compaction: k <= i < out.len() by construction"
        )]
        let slot = &mut out[k];
        *slot = (start + i) as u32;
        k += usize::from(keep(v));
    }
    out.truncate(k);
    out
}

/// Branchless compaction through an existing selection vector.
#[inline]
fn compact_sparse<T: Copy>(vals: &[T], sel: &[u32], keep: impl Fn(T) -> bool) -> Result<Vec<u32>> {
    let mut out = vec![0u32; sel.len()];
    let mut k = 0usize;
    for &r in sel {
        let Some(&v) = vals.get(r as usize) else {
            return Err(RelError::Internal(format!(
                "selection row {r} out of range for a {}-row column",
                vals.len()
            )));
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "branchless compaction: k never exceeds the rows visited"
        )]
        let slot = &mut out[k];
        *slot = r;
        k += usize::from(keep(v));
    }
    out.truncate(k);
    Ok(out)
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

/// Collects matching `(left_row, right_row)` pairs for a single-column
/// equi-join over two unboxed `i64` key columns: build an integer-hashed
/// index over the right selection, probe with the left. Probe order (and
/// bucket insertion order) reproduce the boxed kernel's pair order
/// exactly; large probes shard across workers in contiguous ranges.
pub(crate) fn join_pairs_num(
    lcol: &[i64],
    rcol: &[i64],
    lsel: Selection<'_>,
    rsel: Selection<'_>,
    opts: &ExecOptions,
) -> Result<Vec<(u32, u32)>> {
    let mut index: IntMap<i64, Vec<u32>> = IntMap::default();
    for rr in rsel {
        let Some(&k) = rcol.get(rr as usize) else {
            return Err(join_row_oob());
        };
        index.entry(k).or_default().push(rr);
    }
    let parts = par::fan_out(ranges(lsel.len(), opts), |(start, end)| {
        let rows = lsel.range(start, end).ok_or_else(shard_oob)?;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for lr in rows {
            let Some(k) = lcol.get(lr as usize) else {
                return Err(join_row_oob());
            };
            if let Some(matches) = index.get(k) {
                for &rr in matches {
                    pairs.push((lr, rr));
                }
            }
        }
        Ok(pairs)
    })?;
    Ok(concat(parts))
}

/// Collects matching pairs for a single-column equi-join over two
/// dictionary-encoded key columns: dense buckets indexed by right code,
/// plus a left-dictionary → bucket translation table built once per
/// *dictionary entry* (not per row), so the probe loop is pure integer
/// indexing — no string hashing or comparison per row. Left codes whose
/// string is absent from the right dictionary translate to a shared empty
/// sentinel bucket.
pub(crate) fn join_pairs_str(
    lcol: &StrColumn,
    rcol: &StrColumn,
    lsel: Selection<'_>,
    rsel: Selection<'_>,
    opts: &ExecOptions,
) -> Result<Vec<(u32, u32)>> {
    // buckets[right_code] = right rows with that code; the extra last
    // bucket stays empty and absorbs unmatched left codes.
    let sentinel = rcol.dict().len();
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); sentinel + 1];
    let rcodes = rcol.codes();
    for rr in rsel {
        let Some(&code) = rcodes.get(rr as usize) else {
            return Err(join_row_oob());
        };
        let Some(bucket) = buckets.get_mut(code as usize) else {
            return Err(join_row_oob());
        };
        bucket.push(rr);
    }
    let xlat: Vec<usize> = lcol
        .dict()
        .iter()
        .map(|s| rcol.code_of(s).map_or(sentinel, |c| c as usize))
        .collect();
    let lcodes = lcol.codes();
    let parts = par::fan_out(ranges(lsel.len(), opts), |(start, end)| {
        let rows = lsel.range(start, end).ok_or_else(shard_oob)?;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for lr in rows {
            let matched = lcodes
                .get(lr as usize)
                .and_then(|&c| xlat.get(c as usize))
                .and_then(|&b| buckets.get(b))
                .ok_or_else(join_row_oob)?;
            for &rr in matched {
                pairs.push((lr, rr));
            }
        }
        Ok(pairs)
    })?;
    Ok(concat(parts))
}

fn join_row_oob() -> RelError {
    RelError::Internal("join key row out of range for its column".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num_col(vals: &[i64]) -> TypedColumn {
        TypedColumn::Num(vals.to_vec())
    }

    fn str_col(vals: &[&str]) -> TypedColumn {
        TypedColumn::from_consts(vals.iter().map(|s| Const::str(s)).collect())
    }

    fn run(col: &TypedColumn, sel: Option<&[u32]>, cmp: BatchCmp, lit: &Const) -> Result<Vec<u32>> {
        let test = compile_lit_test(col, cmp, lit, false).expect("typed column");
        run_filter(col, sel, &test, &ExecOptions::serial())
    }

    #[test]
    fn num_literal_compiles_once_and_filters() {
        let col = num_col(&[5, 1, 9, 5, -2]);
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
        let col = num_col(&[1, 2, 3]);
        // v < 5/2 ⟺ v ≤ 2; v ≤ 5/2 likewise.
        let q = Const::Num(Num::ratio(5, 2));
        assert_eq!(
            run(&col, None, BatchCmp::Pred(CmpPred::Lt), &q).unwrap(),
            vec![0, 1]
        );
        assert_eq!(
            run(&col, None, BatchCmp::Pred(CmpPred::Le), &q).unwrap(),
            vec![0, 1]
        );
        // Literal on the left: 5/2 < v ⟺ v ≥ 3.
        let test = compile_lit_test(&col, BatchCmp::Pred(CmpPred::Lt), &q, true).unwrap();
        assert_eq!(
            run_filter(&col, None, &test, &ExecOptions::serial()).unwrap(),
            vec![2]
        );
        // Negative floors: v < -5/2 ⟺ v ≤ -3.
        let nq = Const::Num(Num::ratio(-5, 2));
        assert_eq!(
            run(
                &num_col(&[-3, -2, 0]),
                None,
                BatchCmp::Pred(CmpPred::Lt),
                &nq
            )
            .unwrap(),
            vec![0]
        );
        // No i64 equals a non-integer rational; every one differs from it.
        assert_eq!(
            run(&col, None, BatchCmp::Eq, &q).unwrap(),
            Vec::<u32>::new()
        );
        assert_eq!(
            run(&col, None, BatchCmp::Pred(CmpPred::Ne), &q).unwrap(),
            vec![0, 1, 2]
        );
        // ±∞.
        let inf = Const::Num(Num::PosInf);
        assert_eq!(
            run(&col, None, BatchCmp::Pred(CmpPred::Lt), &inf).unwrap(),
            vec![0, 1, 2]
        );
        let test = compile_lit_test(&col, BatchCmp::Pred(CmpPred::Le), &inf, true).unwrap();
        assert_eq!(
            run_filter(&col, None, &test, &ExecOptions::serial()).unwrap(),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn string_literal_encodes_once_and_orders_via_table() {
        let col = str_col(&["b", "a", "c", "b"]);
        assert_eq!(
            run(&col, None, BatchCmp::Eq, &Const::str("b")).unwrap(),
            vec![0, 3]
        );
        // A literal absent from the dictionary: = keeps none, ≠ keeps all.
        assert_eq!(
            run(&col, None, BatchCmp::Eq, &Const::str("zz")).unwrap(),
            Vec::<u32>::new()
        );
        assert_eq!(
            run(&col, None, BatchCmp::Pred(CmpPred::Ne), &Const::str("zz")).unwrap(),
            vec![0, 1, 2, 3]
        );
        // Ordering decides per dictionary entry.
        assert_eq!(
            run(&col, None, BatchCmp::Pred(CmpPred::Le), &Const::str("b")).unwrap(),
            vec![0, 1, 3]
        );
    }

    #[test]
    fn cross_type_errors_only_when_rows_are_selected() {
        let col = num_col(&[1, 2]);
        let lit = Const::str("s");
        let err = run(&col, None, BatchCmp::Pred(CmpPred::Lt), &lit).unwrap_err();
        assert_eq!(err.to_string(), "type error: cannot order num against text");
        // Orientation is preserved in the message.
        let test = compile_lit_test(&col, BatchCmp::Pred(CmpPred::Lt), &lit, true).unwrap();
        let err = run_filter(&col, None, &test, &ExecOptions::serial()).unwrap_err();
        assert_eq!(err.to_string(), "type error: cannot order text against num");
        // An empty selection never reaches the comparison.
        let got = run(&col, Some(&[]), BatchCmp::Pred(CmpPred::Lt), &lit).unwrap();
        assert!(got.is_empty());
        // = / ≠ stay total across types.
        assert_eq!(
            run(&col, None, BatchCmp::Eq, &lit).unwrap(),
            Vec::<u32>::new()
        );
        assert_eq!(
            run(&col, None, BatchCmp::Pred(CmpPred::Ne), &lit).unwrap(),
            vec![0, 1]
        );
    }

    #[test]
    fn sharded_filter_matches_serial() {
        let vals: Vec<i64> = (0..20_000).map(|i| i * 7 % 101).collect();
        let col = num_col(&vals);
        let lit = Const::int(50);
        let serial = run(&col, None, BatchCmp::Pred(CmpPred::Lt), &lit).unwrap();
        let test = compile_lit_test(&col, BatchCmp::Pred(CmpPred::Lt), &lit, false).unwrap();
        let sharded = run_filter(&col, None, &test, &ExecOptions::with_threads(4)).unwrap();
        assert_eq!(serial, sharded);
        // Sparse sharding too.
        let sel: Vec<u32> = (0..20_000).step_by(2).collect();
        let serial = run(&col, Some(&sel), BatchCmp::Pred(CmpPred::Le), &lit).unwrap();
        let test = compile_lit_test(&col, BatchCmp::Pred(CmpPred::Le), &lit, false).unwrap();
        let sharded = run_filter(&col, Some(&sel), &test, &ExecOptions::with_threads(4)).unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn join_pairs_probe_in_left_order() {
        let l = [1i64, 2, 3, 2];
        let r = [2i64, 9, 2];
        let all = |n: usize| Selection::new(None, n);
        let serial = ExecOptions::serial();
        let pairs = join_pairs_num(&l, &r, all(l.len()), all(r.len()), &serial).unwrap();
        assert_eq!(pairs, vec![(1, 0), (1, 2), (3, 0), (3, 2)]);
        // A selection vector on either side narrows the pairs.
        let (lsel, rsel) = ([1u32, 2], [2u32]);
        let named = |s| Selection::new(Some(s), 4);
        let pairs = join_pairs_num(&l, &r, named(&lsel), named(&rsel), &serial).unwrap();
        assert_eq!(pairs, vec![(1, 2)]);
        // Sharded probing concatenates to the same order, over a selection
        // vector and over all rows.
        let big_l: Vec<i64> = (0..20_000).map(|i| i % 16).collect();
        let evens: Vec<u32> = (0..20_000).step_by(2).collect();
        let small_r: Vec<i64> = (0..16).collect();
        for lsel in [all(big_l.len()), Selection::new(Some(&evens), big_l.len())] {
            let probe = |opts| join_pairs_num(&big_l, &small_r, lsel, all(16), opts).unwrap();
            assert_eq!(probe(&serial), probe(&ExecOptions::with_threads(4)));
        }
    }

    #[test]
    fn str_join_translates_dictionaries() {
        let mk = |vals: &[&str]| {
            let TypedColumn::Str(sc) = str_col(vals) else {
                panic!("expected dictionary column");
            };
            sc
        };
        let l = mk(&["x", "y", "z", "y"]);
        let r = mk(&["y", "w", "x"]);
        let (lsel, rsel) = (Selection::new(None, 4), Selection::new(None, 3));
        let pairs = join_pairs_str(&l, &r, lsel, rsel, &ExecOptions::serial()).unwrap();
        // "x" matches right row 2, "y" right row 0, "z" nothing.
        assert_eq!(pairs, vec![(0, 2), (1, 0), (3, 0)]);
    }

    #[test]
    fn boxed_columns_decline_compilation() {
        let col = TypedColumn::Boxed(Vec::new());
        assert!(compile_lit_test(&col, BatchCmp::Eq, &Const::int(1), false).is_none());
    }
}
