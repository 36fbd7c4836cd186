//! The one stable sort behind every canonical form and every sorted build.
//!
//! The annotation types are generic, so a `slice::sort_by` over items of
//! each type compiles the whole stable merge sort once per item type and
//! comparator — for every annotation semiring an operator is instantiated
//! over. Here the sort runs once, over `u32` positions, asking one
//! type-erased comparator (`&dyn Fn(usize, usize) -> Ordering`) which of
//! two items comes first, and the items are then put in place by following
//! the permutation's cycles with swaps. What each item type compiles is
//! only the comparator and the swap loop.
//!
//! Equal items keep their input order: the positions start ascending and
//! the sort is stable. Positions are `u32`, so at most `u32::MAX` items
//! are sorted; up to 128 of them need no heap block for the
//! permutation.

use std::cmp::Ordering;

/// How many positions the permutation holds on the stack.
const INLINE: usize = 128;

/// Sorts `items` stably by `cmp`: equal items keep their input order.
pub fn sort_by<T>(items: &mut [T], cmp: impl Fn(&T, &T) -> Ordering) {
    if items.len() < 2 {
        return;
    }
    stable_permutation(items.len(), &|i, j| cmp(&items[i], &items[j]))
        .apply(|i, j| items.swap(i, j));
}

/// The stable sorting permutation of `n` items that `cmp` compares by
/// position, for items that are not the elements of one slice (the rows
/// of a row-major block): [`Permutation::apply`] puts them in place.
///
/// # Panics
///
/// If `n` exceeds `u32::MAX`.
pub fn stable_permutation(n: usize, cmp: &dyn Fn(usize, usize) -> Ordering) -> Permutation {
    let end = u32::try_from(n).expect("at most u32::MAX items are sorted");
    let mut perm = Permutation {
        inline: [0; INLINE],
        heap: Vec::new(),
        len: n,
    };
    if n > INLINE {
        perm.heap.resize(n, 0);
    }
    let order = perm.order();
    for (slot, i) in order.iter_mut().zip(0..end) {
        *slot = i;
    }
    order.sort_by(|&i, &j| cmp(i as usize, j as usize));
    perm
}

/// A stable sorting permutation: position `p` takes the item at `order[p]`.
#[derive(Debug)]
pub struct Permutation {
    inline: [u32; INLINE],
    heap: Vec<u32>,
    len: usize,
}

impl Permutation {
    fn order(&mut self) -> &mut [u32] {
        match self.inline.get_mut(..self.len) {
            Some(inline) => inline,
            None => &mut self.heap,
        }
    }

    /// Puts the items in their sorted places through `swap`, called with
    /// two positions whose items trade places; each call puts one item
    /// where it belongs.
    pub fn apply(mut self, mut swap: impl FnMut(usize, usize)) {
        let order = self.order();
        // A placed position points at itself.
        for start in 0..order.len() {
            let mut p = start;
            while order[p] as usize != start {
                let from = order[p] as usize;
                swap(p, from);
                order[p] = p as u32;
                p = from;
            }
            order[p] = p as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_keep_their_input_order() {
        for n in [0usize, 1, 2, 7, INLINE, INLINE + 1, 1_000] {
            let mut items: Vec<(u32, usize)> =
                (0..n).map(|i| ((i as u32 * 7919) % 13, i)).collect();
            let mut want = items.clone();
            want.sort_by_key(|&(k, _)| k);
            sort_by(&mut items, |a, b| a.0.cmp(&b.0));
            assert_eq!(items, want, "{n} items");
        }
    }

    #[test]
    fn a_permutation_swaps_items_held_elsewhere() {
        // Two parallel vectors sorted by the first, as a row-major block's
        // cells and annotations are.
        let mut keys = vec![5, 3, 5, 1, 3];
        let mut tags = vec!['a', 'b', 'c', 'd', 'e'];
        let snapshot = keys.clone();
        stable_permutation(keys.len(), &|i, j| snapshot[i].cmp(&snapshot[j])).apply(|i, j| {
            keys.swap(i, j);
            tags.swap(i, j);
        });
        assert_eq!(keys, [1, 3, 3, 5, 5]);
        assert_eq!(tags, ['d', 'b', 'e', 'a', 'c']);
    }
}
