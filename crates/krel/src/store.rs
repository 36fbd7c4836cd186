//! The tuple store behind [`Relation`](crate::relation::Relation):
//! strictly ascending rows in [`Arc`]'d blocks of at most [`BLOCK_CAP`].
//!
//! A block is row-major: its rows' cells lie in one `Vec<V>`, `arity`
//! cells a row, beside one `Vec<K>` of their annotations, so a stored row
//! is its cells and its annotation and no allocation of its own.
//!
//! Appending a row greater than the last one is a compare and a push; any
//! other write is a binary search over the block heads, then inside one
//! block. A full block splits in half, one left under `BLOCK_CAP / 4` by a
//! removal merges into a neighbour it fits in, and none is ever empty. Each
//! block has its own `Arc`: a clone shares every block, and a write copies
//! only the one it lands in.

use crate::relation::TupleRef;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The most rows one block holds. 512 rows of a base table are ≈ 48 KiB —
/// what one write under a pinned snapshot copies; see the "Tuple store"
/// section of `docs/ARCHITECTURE.md` for the 128/256/512/1024 sweep.
pub(crate) const BLOCK_CAP: usize = 512;

/// A row a store takes: read as a slice to find its place, then its cells
/// appended to a block — moved out of a vector, cloned out of a slice.
pub(crate) trait Row<V> {
    fn cells(&self) -> &[V];
    fn append_to(self, cells: &mut Vec<V>);
}

/// A row vector's cells move in.
impl<V> Row<V> for Vec<V> {
    fn cells(&self) -> &[V] {
        self
    }

    fn append_to(mut self, cells: &mut Vec<V>) {
        cells.append(&mut self);
    }
}

/// A reused row buffer's cells move in; the buffer is left empty, its
/// capacity kept for the next row.
impl<V> Row<V> for &mut Vec<V> {
    fn cells(&self) -> &[V] {
        self
    }

    fn append_to(self, cells: &mut Vec<V>) {
        cells.append(self);
    }
}

/// A borrowed row's cells are cloned in.
impl<V: Clone> Row<V> for &[V] {
    fn cells(&self) -> &[V] {
        self
    }

    fn append_to(self, cells: &mut Vec<V>) {
        cells.extend_from_slice(self);
    }
}

/// Rows of `arity` cells, row-major: row `i` is
/// `cells[i * arity..(i + 1) * arity]`, annotated `anns[i]`. An arity of 0
/// (the nullary relation) has rows and no cells.
#[derive(Clone)]
pub(crate) struct Block<V, K> {
    arity: usize,
    cells: Vec<V>,
    anns: Vec<K>,
}

impl<V, K> Block<V, K> {
    pub(crate) fn new(arity: usize) -> Self {
        Block {
            arity,
            cells: Vec::new(),
            anns: Vec::new(),
        }
    }

    fn with_capacity(arity: usize, rows: usize) -> Self {
        Block {
            arity,
            cells: Vec::with_capacity(arity * rows),
            anns: Vec::with_capacity(rows),
        }
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    pub(crate) fn len(&self) -> usize {
        self.anns.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.anns.is_empty()
    }

    fn row(&self, i: usize) -> &[V] {
        &self.cells[i * self.arity..(i + 1) * self.arity]
    }

    fn last(&self) -> Option<&[V]> {
        let n = self.len();
        (n > 0).then(|| self.row(n - 1))
    }

    fn rows(&self) -> impl Iterator<Item = (TupleRef<'_, V>, &K)> {
        let rows = self.anns.iter().enumerate();
        rows.map(|(i, k)| (TupleRef::new(self.row(i)), k))
    }

    pub(crate) fn push(&mut self, row: impl Row<V>, k: K) {
        debug_assert_eq!(row.cells().len(), self.arity);
        row.append_to(&mut self.cells);
        self.anns.push(k);
    }

    /// Puts a row in at position `i`, shifting the rows after it.
    fn insert(&mut self, i: usize, row: impl Row<V>, k: K) {
        self.push(row, k);
        self.cells[i * self.arity..].rotate_right(self.arity);
        self.anns[i..].rotate_right(1);
    }

    fn remove(&mut self, i: usize) -> K {
        self.cells.drain(i * self.arity..(i + 1) * self.arity);
        self.anns.remove(i)
    }

    /// The rows from `at` on, moved into a block of their own.
    fn split_off(&mut self, at: usize) -> Self {
        Block {
            arity: self.arity,
            cells: self.cells.split_off(at * self.arity),
            anns: self.anns.split_off(at),
        }
    }

    pub(crate) fn append(&mut self, other: &mut Self) {
        self.cells.append(&mut other.cells);
        self.anns.append(&mut other.anns);
    }

    /// Swaps two distinct rows.
    fn swap_rows(&mut self, i: usize, j: usize) {
        let a = self.arity;
        let (lo, hi) = (i.min(j), i.max(j));
        let (head, tail) = self.cells.split_at_mut(hi * a);
        head[lo * a..(lo + 1) * a].swap_with_slice(&mut tail[..a]);
        self.anns.swap(i, j);
    }

    /// How many rows the block holds without reallocating.
    fn capacity(&self) -> usize {
        self.anns.capacity()
    }

    fn shrink_to_fit(&mut self) {
        self.cells.shrink_to_fit();
        self.anns.shrink_to_fit();
    }

    fn truncate(&mut self, rows: usize) {
        self.cells.truncate(rows * self.arity);
        self.anns.truncate(rows);
    }
}

impl<V: Ord, K> Block<V, K> {
    /// Where `t` is (`Ok`) or would go (`Err`).
    fn search(&self, t: &[V]) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(t) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }
}

#[derive(Clone)]
pub(crate) struct Store<V, K> {
    arity: usize,
    blocks: Vec<Arc<Block<V, K>>>,
    len: usize,
}

impl<V, K> Store<V, K> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (TupleRef<'_, V>, &K)> {
        let rows = self.blocks.iter().flat_map(|b| b.rows());
        Counted(rows, self.len)
    }

    /// The position of each block's first row: the index [`Store::find`]
    /// searches. One allocation of one word per block.
    pub(crate) fn block_starts(&self) -> Vec<usize> {
        let mut starts = Vec::with_capacity(self.blocks.len());
        let mut next = 0;
        for block in &self.blocks {
            starts.push(next);
            next += block.len();
        }
        starts
    }

    /// The block that holds position `p` in iteration order, and `p`'s
    /// row in it, given this store's [`block_starts`](Store::block_starts).
    /// `b` is the block the previous lookup found, and is moved to this
    /// one: the next block is tried before a binary search over the block
    /// starts.
    fn find(&self, starts: &[usize], p: usize, b: &mut usize) -> Option<(&Block<V, K>, usize)> {
        let holds = |b: usize| {
            let (start, block) = (*starts.get(b)?, self.blocks.get(b)?);
            (start <= p && p - start < block.len()).then(|| (&**block, p - start))
        };
        if let Some(found) = holds(*b + 1) {
            *b += 1;
            return Some(found);
        }
        *b = starts.partition_point(|&s| s <= p).checked_sub(1)?;
        holds(*b)
    }
}

/// Reads a store's rows by position in iteration order, given the store's
/// [`block_starts`](Store::block_starts), keeping the block the last read
/// found: a read in that block costs a subtraction and a compare, one in
/// the next block a few more, and any other a binary search over the
/// block starts. So rows read in ascending order are a strided pass over
/// each block's buffer.
pub(crate) struct Cursor<'a, V, K> {
    /// The block of the last read, its index and its first row's position.
    block: Option<&'a Block<V, K>>,
    b: usize,
    start: usize,
}

impl<V, K> Clone for Cursor<'_, V, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V, K> Copy for Cursor<'_, V, K> {}

impl<'a, V, K> Cursor<'a, V, K> {
    pub(crate) fn new() -> Self {
        Cursor {
            block: None,
            b: 0,
            start: 0,
        }
    }

    /// The row at position `p`.
    #[inline]
    pub(crate) fn row(
        &mut self,
        store: &'a Store<V, K>,
        starts: &[usize],
        p: usize,
    ) -> Option<RowAt<'a, V, K>> {
        if let Some(block) = self.block {
            let i = p.wrapping_sub(self.start);
            if i < block.len() {
                return Some(RowAt { block, i });
            }
        }
        let (block, i) = store.find(starts, p, &mut self.b)?;
        (self.block, self.start) = (Some(block), p - i);
        Some(RowAt { block, i })
    }

    /// Cell `col` of the row at position `p`.
    #[inline]
    pub(crate) fn cell(
        &mut self,
        store: &'a Store<V, K>,
        starts: &[usize],
        p: usize,
        col: usize,
    ) -> Option<&'a V> {
        self.row(store, starts, p)?.cell(col)
    }

    /// The annotation of the row at position `p`.
    pub(crate) fn ann(
        &mut self,
        store: &'a Store<V, K>,
        starts: &[usize],
        p: usize,
    ) -> Option<&'a K> {
        self.row(store, starts, p)?.ann()
    }
}

/// A row a [`Cursor`] found: its cells and its annotation are read
/// without another lookup.
pub(crate) struct RowAt<'a, V, K> {
    block: &'a Block<V, K>,
    i: usize,
}

impl<V, K> Clone for RowAt<'_, V, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V, K> Copy for RowAt<'_, V, K> {}

impl<'a, V, K> RowAt<'a, V, K> {
    /// Cell `col`; `None` past the arity.
    #[inline]
    pub(crate) fn cell(self, col: usize) -> Option<&'a V> {
        if col >= self.block.arity {
            return None;
        }
        self.block.cells.get(self.i * self.block.arity + col)
    }

    /// The annotation.
    #[inline]
    pub(crate) fn ann(self) -> Option<&'a K> {
        self.block.anns.get(self.i)
    }

    /// The row's cells and its annotation, as the store's iteration hands
    /// them out.
    #[inline]
    pub(crate) fn entry(self) -> Option<(TupleRef<'a, V>, &'a K)> {
        let a = self.block.arity;
        let cells = self.block.cells.get(self.i * a..(self.i + 1) * a)?;
        Some((TupleRef::new(cells), self.ann()?))
    }
}

/// `I` with the count it has left: a `collect` over a store allocates once.
struct Counted<I>(I, usize);

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.1 = self.1.saturating_sub(1);
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.1, Some(self.1))
    }
}

/// Row-wise: two equal stores built by different routes have different
/// block boundaries.
impl<V: PartialEq, K: PartialEq> PartialEq for Store<V, K> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V: Eq, K: Eq> Eq for Store<V, K> {}

/// A map of rows, whatever the blocks.
impl<V: fmt::Debug, K: fmt::Debug> fmt::Debug for Store<V, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V: Ord + Clone, K: Clone> Store<V, K> {
    pub(crate) fn new(arity: usize) -> Self {
        Store {
            arity,
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// The greatest row.
    pub(crate) fn last(&self) -> Option<&[V]> {
        self.blocks.last()?.last()
    }

    /// Where `t` is or would go: the last block whose head is `≤ t` (the
    /// first block before every head) and the search result inside it.
    fn locate(&self, t: &[V]) -> (usize, Result<usize, usize>) {
        let b = self
            .blocks
            .partition_point(|b| b.row(0) <= t)
            .saturating_sub(1);
        let at = self.blocks.get(b).map_or(Err(0), |rows| rows.search(t));
        (b, at)
    }

    pub(crate) fn get(&self, t: &[V]) -> Option<&K> {
        let (b, at) = self.locate(t);
        self.blocks.get(b)?.anns.get(at.ok()?)
    }

    /// Appends a row greater than every row present: no search, and a
    /// fresh block instead of a split when the last one is full.
    pub(crate) fn push(&mut self, row: impl Row<V>, k: K) {
        debug_assert!(self.last().is_none_or(|last| last < row.cells()));
        match self.blocks.last_mut() {
            Some(rows) if rows.len() < BLOCK_CAP => Arc::make_mut(rows).push(row, k),
            Some(_) => {
                let mut rows = Block::with_capacity(self.arity, BLOCK_CAP);
                rows.push(row, k);
                self.blocks.push(Arc::new(rows));
            }
            None => {
                let mut rows = Block::new(self.arity);
                rows.push(row, k);
                self.blocks.push(Arc::new(rows));
            }
        }
        self.len += 1;
    }

    /// Stores `k` under `row`. Where the row is already present, `merge`
    /// writes its annotation from `k` and says whether the row stays; the
    /// block is unshared first, so a rule that keeps the old row skips this.
    pub(crate) fn upsert(&mut self, row: impl Row<V>, k: K, merge: impl FnOnce(&mut K, K) -> bool) {
        if self.last().is_none_or(|last| last < row.cells()) {
            return self.push(row, k);
        }
        let (b, at) = self.locate(row.cells());
        let rows = Arc::make_mut(&mut self.blocks[b]);
        match at {
            Ok(i) => {
                if !merge(&mut rows.anns[i], k) {
                    self.remove_at(b, i);
                }
            }
            Err(i) => {
                self.len += 1;
                if rows.len() < BLOCK_CAP {
                    rows.insert(i, row, k);
                    return;
                }
                let mut upper = rows.split_off(BLOCK_CAP / 2);
                match i.checked_sub(rows.len()) {
                    Some(j) if j > 0 => upper.insert(j, row, k),
                    _ => rows.insert(i, row, k),
                }
                self.blocks.insert(b + 1, Arc::new(upper));
            }
        }
    }

    /// Takes the row `t` out.
    pub(crate) fn remove(&mut self, t: &[V]) -> Option<K> {
        let (b, at) = self.locate(t);
        Some(self.remove_at(b, at.ok()?))
    }

    fn remove_at(&mut self, b: usize, i: usize) -> K {
        let rows = Arc::make_mut(&mut self.blocks[b]);
        let k = rows.remove(i);
        self.len -= 1;
        let left = rows.len();
        if left == 0 {
            self.blocks.remove(b);
        } else if left < BLOCK_CAP / 4 {
            // Into the previous block if the two fit in one, else the next
            // one into this.
            let fits =
                |n: Option<&Arc<Block<V, K>>>| n.is_some_and(|n| n.len() + left <= BLOCK_CAP);
            let into = if b > 0 && fits(self.blocks.get(b - 1)) {
                Some(b - 1)
            } else if fits(self.blocks.get(b + 1)) {
                Some(b)
            } else {
                None
            };
            if let Some(into) = into {
                let mut upper = Arc::unwrap_or_clone(self.blocks.remove(into + 1));
                Arc::make_mut(&mut self.blocks[into]).append(&mut upper);
            }
        }
        k
    }

    /// A store of `rows`, which must be strictly ascending.
    pub(crate) fn from_sorted(mut rows: Block<V, K>) -> Self {
        debug_assert!((1..rows.len()).all(|i| rows.row(i - 1) < rows.row(i)));
        let (arity, len) = (rows.arity, rows.len());
        let mut blocks = Vec::with_capacity(len.div_ceil(BLOCK_CAP));
        // Blocks come off the back, so each row moves once, and the head
        // gives back its unused tail whenever it is half empty: the rows
        // are held about once (at most one and a half times), not once in
        // the head and once more in the blocks, for a number of
        // reallocations logarithmic in the blocks.
        while rows.len() > BLOCK_CAP {
            let at = (rows.len() - 1) / BLOCK_CAP * BLOCK_CAP;
            blocks.push(Arc::new(rows.split_off(at)));
            if 2 * rows.len() <= rows.capacity() {
                rows.shrink_to_fit();
            }
        }
        if !rows.is_empty() {
            rows.shrink_to_fit();
            blocks.push(Arc::new(rows));
        }
        blocks.reverse();
        Store { arity, blocks, len }
    }

    /// A store of `rows` in any order: sorted once, stably, and each run of
    /// equal rows merged in arrival order — `merge` folds a later row's
    /// annotation (moved out of its slot by `take`) into the kept one and
    /// says whether the kept row stays; a row that leaves lets an equal
    /// row after it in again. Positions are sorted, not rows, and then
    /// the permutation's cycles are followed with swaps that each put one
    /// row in its place: no cell is cloned.
    pub(crate) fn from_unsorted(
        mut rows: Block<V, K>,
        mut take: impl FnMut(&mut K) -> K,
        mut merge: impl FnMut(&mut K, K) -> bool,
    ) -> Self {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&i, &j| rows.row(i).cmp(rows.row(j)));
        // Position `p` takes the row at `order[p]`; a placed position
        // points at itself.
        for start in 0..order.len() {
            let mut p = start;
            while order[p] != start {
                let from = order[p];
                rows.swap_rows(p, from);
                order[p] = p;
                p = from;
            }
            order[p] = p;
        }
        let mut kept = 0;
        for r in 0..rows.len() {
            if kept > 0 && rows.row(kept - 1) == rows.row(r) {
                let k = take(&mut rows.anns[r]);
                if !merge(&mut rows.anns[kept - 1], k) {
                    kept -= 1;
                }
            } else {
                if kept != r {
                    rows.swap_rows(kept, r);
                }
                kept += 1;
            }
        }
        rows.truncate(kept);
        Store::from_sorted(rows)
    }

    /// Puts all rows, in order, in front of the rows of `rows`: each block
    /// is moved into the spare capacity behind them (copied if a clone
    /// shares it), then the whole block is rotated, so no row is held
    /// twice on the way.
    pub(crate) fn prepend_to(self, rows: &mut Block<V, K>) {
        let (cells, n) = (rows.cells.len(), rows.len());
        for block in self.blocks {
            rows.append(&mut Arc::unwrap_or_clone(block));
        }
        rows.cells.rotate_left(cells);
        rows.anns.rotate_left(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No empty block, at most `BLOCK_CAP` rows a block, `arity` cells a
    /// row, strictly ascending inside blocks and across block heads, `len`
    /// the row count.
    fn check(s: &Store<u32, u32>) {
        assert!(s
            .blocks
            .iter()
            .all(|b| !b.is_empty() && b.len() <= BLOCK_CAP && b.cells.len() == s.arity * b.len()));
        let keys: Vec<&[u32]> = s.iter().map(|(t, _)| t.values()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), s.len());
    }

    fn replace(old: &mut u32, new: u32) -> bool {
        *old = new;
        true
    }

    /// A two-cell row, so that a misplaced cell shows.
    fn row(i: u32) -> Vec<u32> {
        vec![i / 7, i]
    }

    fn unary(rows: impl Iterator<Item = (u32, u32)>) -> Block<u32, u32> {
        let mut block = Block::new(1);
        rows.for_each(|(t, k)| block.push(vec![t], k));
        block
    }

    #[test]
    fn ascending_appends_fill_blocks_without_splitting() {
        let mut s = Store::new(2);
        for i in 0..3 * BLOCK_CAP as u32 + 1 {
            s.upsert(row(i), i, replace);
        }
        check(&s);
        let sizes: Vec<usize> = s.blocks.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [BLOCK_CAP, BLOCK_CAP, BLOCK_CAP, 1]);
        assert_eq!(s.last(), Some(&row(3 * BLOCK_CAP as u32)[..]));
    }

    #[test]
    fn any_insertion_order_keeps_the_invariants() {
        // Descending, then a stride that lands in the middle of blocks.
        let n = 5 * BLOCK_CAP as u32;
        let mut s = Store::new(2);
        for i in (0..n).rev().step_by(2) {
            s.upsert(row(i), i, replace);
        }
        for i in (0..n).map(|i| i * 7919 % n) {
            s.upsert(&row(i)[..], i + 1, replace);
        }
        check(&s);
        assert_eq!(s.len(), n as usize);
        assert!((0..n).all(|i| s.get(&row(i)) == Some(&(i + 1))));
        assert!(s
            .iter()
            .enumerate()
            .all(|(i, (t, _))| *t.values() == row(i as u32)));
        assert_eq!(s.get(&row(n)), None);
        // A merge that says "gone" removes the row.
        s.upsert(row(7), 0, |_, _| false);
        assert_eq!((s.get(&row(7)), s.len()), (None, n as usize - 1));
        check(&s);
    }

    #[test]
    fn a_shrinking_store_merges_its_blocks() {
        let mut s = Store::from_sorted(unary((0..100_000).map(|i| (i, i))));
        assert_eq!(s.blocks.len(), 100_000usize.div_ceil(BLOCK_CAP));
        check(&s);
        for i in (0..100_000).filter(|i| i % 100 != 0) {
            assert_eq!(s.remove(&[i]), Some(i));
        }
        check(&s);
        assert_eq!(s.len(), 1_000);
        assert!(s.blocks.len() <= 8, "{} blocks", s.blocks.len());
        assert_eq!(s.remove(&[1]), None);
        for i in (0..100_000).step_by(100) {
            assert_eq!(s.remove(&[i]), Some(i));
        }
        assert!(s.blocks.is_empty() && s.len() == 0);
    }

    #[test]
    fn a_write_copies_one_block_of_a_shared_store() {
        let pinned = Store::from_sorted(unary((0..4 * BLOCK_CAP as u32).map(|i| (2 * i, i))));
        let mut s = pinned.clone();
        s.upsert(vec![3], 0, replace);
        s.remove(&[6 * BLOCK_CAP as u32]);
        // The insert split the first block, the removal hit the last.
        let shared = |p| s.blocks.iter().any(|b| Arc::ptr_eq(b, p));
        let still: Vec<bool> = pinned.blocks.iter().map(shared).collect();
        assert_eq!(still, [false, true, true, false]);
        assert_eq!(s.blocks.len(), 5);
        check(&s);
        check(&pinned);
        assert_eq!(pinned.len(), 4 * BLOCK_CAP);
        assert_eq!(pinned.get(&[3]), None);
        let mut rows = Block::new(1);
        s.prepend_to(&mut rows);
        assert_eq!(rows.len(), 4 * BLOCK_CAP);
    }

    #[test]
    fn prepended_rows_come_first_in_their_order() {
        let store = Store::from_sorted(unary((0..BLOCK_CAP as u32 + 3).map(|i| (i, i))));
        let mut late = unary([(9, 1), (1, 2)].into_iter());
        store.prepend_to(&mut late);
        let rows: Vec<(u32, u32)> = late.rows().map(|(t, k)| (t.values()[0], *k)).collect();
        let head = (0..BLOCK_CAP as u32 + 3).map(|i| (i, i));
        assert_eq!(rows, head.chain([(9, 1), (1, 2)]).collect::<Vec<_>>());
        assert_eq!(late.cells.len(), late.len());
    }

    #[test]
    fn a_nullary_store_holds_one_row() {
        let mut s = Store::new(0);
        s.upsert(Vec::new(), 2, replace);
        s.upsert(Vec::new(), 5, replace);
        check(&s);
        assert_eq!((s.len(), s.get(&[])), (1, Some(&5)));
        assert!(s.iter().all(|(t, _)| t.arity() == 0));
        assert_eq!(s.remove(&[]), Some(5));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn an_unsorted_build_is_stable_and_merges_in_arrival_order() {
        // Keys descend and repeat; the annotation records arrival.
        let keys = [5u32, 3, 5, 1, 3, 5, 0];
        let mut rows = Block::new(2);
        for (arrival, key) in keys.iter().enumerate() {
            rows.push(vec![*key, 9 - *key], arrival as u32);
        }
        // Sum each run, and let a sum of 7 leave: 5's run is 0+2 = 2, then
        // 2+5 = 7 leaves; 3's run is 1+4 = 5.
        let s = Store::from_unsorted(rows, std::mem::take, |old, k| {
            *old += k;
            *old != 7
        });
        check(&s);
        let got: Vec<(u32, u32)> = s.iter().map(|(t, k)| (*t.get(0), *k)).collect();
        assert_eq!(got, [(0, 6), (1, 3), (3, 5)]);
        assert!(s.iter().all(|(t, _)| t.get(0) + t.get(1) == 9));
    }
}
