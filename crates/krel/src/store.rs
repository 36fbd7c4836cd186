//! The tuple store behind [`Relation`](crate::relation::Relation):
//! strictly ascending rows in [`Arc`]'d blocks of at most [`BLOCK_CAP`].
//!
//! Appending a row greater than the last one is a compare and a push; any
//! other write is a binary search over the block heads, then inside one
//! block. A full block splits in half, one left under `BLOCK_CAP / 4` by a
//! removal merges into a neighbour it fits in, and none is ever empty. Each
//! block has its own `Arc`: a clone shares every block, and a write copies
//! only the one it lands in.

use std::fmt;
use std::sync::Arc;

/// The most rows one block holds. 512 rows of a base table are ≈ 20 KiB —
/// what one write under a pinned snapshot copies; see the "Tuple store"
/// section of `docs/ARCHITECTURE.md` for the 128/256/512/1024 sweep.
pub(crate) const BLOCK_CAP: usize = 512;

type Block<T, K> = Arc<Vec<(T, K)>>;

#[derive(Clone)]
pub(crate) struct Store<T, K> {
    blocks: Vec<Block<T, K>>,
    len: usize,
}

impl<T, K> Store<T, K> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&T, &K)> {
        let rows = self.blocks.iter().flat_map(|b| b.iter());
        Counted(rows.map(|(t, k)| (t, k)), self.len)
    }

    /// The position of each block's first row: the index [`Store::at`]
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

    /// The row at position `p` in iteration order, given this store's
    /// [`block_starts`](Store::block_starts).
    pub(crate) fn at(&self, starts: &[usize], p: usize) -> Option<&(T, K)> {
        let b = starts.partition_point(|&s| s <= p).checked_sub(1)?;
        self.blocks.get(b)?.get(p - starts.get(b)?)
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
impl<T: PartialEq, K: PartialEq> PartialEq for Store<T, K> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq, K: Eq> Eq for Store<T, K> {}

/// A map of rows, whatever the blocks.
impl<T: fmt::Debug, K: fmt::Debug> fmt::Debug for Store<T, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T: Ord + Clone, K: Clone> Store<T, K> {
    pub(crate) fn new() -> Self {
        Store {
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// The greatest row's tuple.
    pub(crate) fn last(&self) -> Option<&T> {
        Some(&self.blocks.last()?.last()?.0)
    }

    /// Where `t` is or would go: the last block whose head is `≤ t` (the
    /// first block before every head) and the search result inside it.
    fn locate(&self, t: &T) -> (usize, Result<usize, usize>) {
        let b = self
            .blocks
            .partition_point(|b| b.first().is_some_and(|(head, _)| head <= t))
            .saturating_sub(1);
        let at = self
            .blocks
            .get(b)
            .map_or(Err(0), |rows| rows.binary_search_by(|(row, _)| row.cmp(t)));
        (b, at)
    }

    pub(crate) fn get(&self, t: &T) -> Option<&K> {
        let (b, at) = self.locate(t);
        Some(&self.blocks.get(b)?.get(at.ok()?)?.1)
    }

    /// Appends a row greater than every row present: no search, and a
    /// fresh block instead of a split when the last one is full.
    pub(crate) fn push(&mut self, t: T, k: K) {
        debug_assert!(self.last().is_none_or(|last| *last < t));
        match self.blocks.last_mut() {
            Some(rows) if rows.len() < BLOCK_CAP => Arc::make_mut(rows).push((t, k)),
            Some(_) => {
                let mut rows = Vec::with_capacity(BLOCK_CAP);
                rows.push((t, k));
                self.blocks.push(Arc::new(rows));
            }
            None => self.blocks.push(Arc::new(vec![(t, k)])),
        }
        self.len += 1;
    }

    /// Stores `k` under `t`. Where `t` already holds a row, `merge` writes
    /// that row's annotation from `k` and says whether the row stays; the
    /// block is unshared first, so a rule that keeps the old row skips this.
    pub(crate) fn upsert(&mut self, t: T, k: K, merge: impl FnOnce(&mut K, K) -> bool) {
        if self.last().is_none_or(|last| *last < t) {
            return self.push(t, k);
        }
        let (b, at) = self.locate(&t);
        let rows = Arc::make_mut(&mut self.blocks[b]);
        match at {
            Ok(i) => {
                if !merge(&mut rows[i].1, k) {
                    self.remove_at(b, i);
                }
            }
            Err(i) => {
                self.len += 1;
                if rows.len() < BLOCK_CAP {
                    rows.insert(i, (t, k));
                    return;
                }
                let mut upper = Vec::with_capacity(BLOCK_CAP);
                upper.extend(rows.drain(BLOCK_CAP / 2..));
                match i.checked_sub(rows.len()) {
                    Some(j) if j > 0 => upper.insert(j, (t, k)),
                    _ => rows.insert(i, (t, k)),
                }
                self.blocks.insert(b + 1, Arc::new(upper));
            }
        }
    }

    /// Takes the row under `t` out.
    pub(crate) fn remove(&mut self, t: &T) -> Option<K> {
        let (b, at) = self.locate(t);
        Some(self.remove_at(b, at.ok()?))
    }

    fn remove_at(&mut self, b: usize, i: usize) -> K {
        let rows = Arc::make_mut(&mut self.blocks[b]);
        let (_, k) = rows.remove(i);
        self.len -= 1;
        let left = rows.len();
        if left == 0 {
            self.blocks.remove(b);
        } else if left < BLOCK_CAP / 4 {
            // Into the previous block if the two fit in one, else the next
            // one into this.
            let fits = |n: Option<&Block<T, K>>| n.is_some_and(|n| n.len() + left <= BLOCK_CAP);
            let into = if b > 0 && fits(self.blocks.get(b - 1)) {
                Some(b - 1)
            } else if fits(self.blocks.get(b + 1)) {
                Some(b)
            } else {
                None
            };
            if let Some(into) = into {
                let upper = Arc::unwrap_or_clone(self.blocks.remove(into + 1));
                Arc::make_mut(&mut self.blocks[into]).extend(upper);
            }
        }
        k
    }

    /// A store of `rows`, which must be strictly ascending.
    pub(crate) fn from_sorted(mut rows: Vec<(T, K)>) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        let len = rows.len();
        let mut blocks = Vec::with_capacity(len.div_ceil(BLOCK_CAP));
        // Blocks come off the back, so each row moves once.
        while rows.len() > BLOCK_CAP {
            let at = (rows.len() - 1) / BLOCK_CAP * BLOCK_CAP;
            blocks.push(Arc::new(rows.split_off(at)));
        }
        if !rows.is_empty() {
            rows.shrink_to_fit();
            blocks.push(Arc::new(rows));
        }
        blocks.reverse();
        Store { blocks, len }
    }

    /// All rows, in order.
    pub(crate) fn into_rows(self) -> Vec<(T, K)> {
        let mut rows = Vec::with_capacity(self.len);
        for block in self.blocks {
            rows.extend(Arc::unwrap_or_clone(block));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No empty block, at most `BLOCK_CAP` rows a block, strictly ascending
    /// inside blocks and across block heads, `len` the row count.
    fn check(s: &Store<u32, u32>) {
        assert!(s
            .blocks
            .iter()
            .all(|b| !b.is_empty() && b.len() <= BLOCK_CAP));
        let keys: Vec<u32> = s.iter().map(|(t, _)| *t).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), s.len());
    }

    fn replace(old: &mut u32, new: u32) -> bool {
        *old = new;
        true
    }

    #[test]
    fn ascending_appends_fill_blocks_without_splitting() {
        let mut s = Store::new();
        for i in 0..3 * BLOCK_CAP as u32 + 1 {
            s.upsert(i, i, replace);
        }
        check(&s);
        let sizes: Vec<usize> = s.blocks.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [BLOCK_CAP, BLOCK_CAP, BLOCK_CAP, 1]);
        assert_eq!(s.last(), Some(&(3 * BLOCK_CAP as u32)));
    }

    #[test]
    fn any_insertion_order_keeps_the_invariants() {
        // Descending, then a stride that lands in the middle of blocks.
        let n = 5 * BLOCK_CAP as u32;
        let mut s = Store::new();
        for i in (0..n).rev().step_by(2) {
            s.upsert(i, i, replace);
        }
        for i in (0..n).map(|i| i * 7919 % n) {
            s.upsert(i, i + 1, replace);
        }
        check(&s);
        assert_eq!(s.len(), n as usize);
        assert!((0..n).all(|i| s.get(&i) == Some(&(i + 1))));
        assert_eq!(s.get(&n), None);
        // A merge that says "gone" removes the row.
        s.upsert(7, 0, |_, _| false);
        assert_eq!((s.get(&7), s.len()), (None, n as usize - 1));
        check(&s);
    }

    #[test]
    fn a_shrinking_store_merges_its_blocks() {
        let mut s = Store::from_sorted((0..100_000).map(|i| (i, i)).collect());
        assert_eq!(s.blocks.len(), 100_000usize.div_ceil(BLOCK_CAP));
        check(&s);
        for i in (0..100_000).filter(|i| i % 100 != 0) {
            assert_eq!(s.remove(&i), Some(i));
        }
        check(&s);
        assert_eq!(s.len(), 1_000);
        assert!(s.blocks.len() <= 8, "{} blocks", s.blocks.len());
        assert_eq!(s.remove(&1), None);
        for i in (0..100_000).step_by(100) {
            assert_eq!(s.remove(&i), Some(i));
        }
        assert!(s.blocks.is_empty() && s.len() == 0);
    }

    #[test]
    fn a_write_copies_one_block_of_a_shared_store() {
        let pinned = Store::from_sorted((0..4 * BLOCK_CAP as u32).map(|i| (2 * i, i)).collect());
        let mut s = pinned.clone();
        s.upsert(3, 0, replace);
        s.remove(&(6 * BLOCK_CAP as u32));
        // The insert split the first block, the removal hit the last.
        let shared = |p| s.blocks.iter().any(|b| Arc::ptr_eq(b, p));
        let still: Vec<bool> = pinned.blocks.iter().map(shared).collect();
        assert_eq!(still, [false, true, true, false]);
        assert_eq!(s.blocks.len(), 5);
        check(&s);
        check(&pinned);
        assert_eq!(pinned.len(), 4 * BLOCK_CAP);
        assert_eq!(pinned.get(&3), None);
        assert_eq!(s.into_rows().len(), 4 * BLOCK_CAP);
    }
}
