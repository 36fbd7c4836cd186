//! The annotation footprint guard: what one base-row annotation costs on
//! the heap, and that copying one costs nothing — measured with a counting
//! global allocator, so it holds on every host and in every profile.
//!
//! Every tuple and every aggregate value carries a `Km<ℕ[X]>`, and a base
//! table holds one single-token annotation per row: this is the number
//! `peak_rss_mb` is made of. This binary is the only place in the
//! workspace with `unsafe` (the `GlobalAlloc` impl); it holds one test, so
//! nothing else allocates on the measuring thread.

use aggprov::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

thread_local! {
    /// Set on the measuring thread only, so the test harness's own
    /// threads never disturb the counts. Const-initialised and without a
    /// destructor: reading it from inside the allocator allocates nothing.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting what the measuring thread requests.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics and a
// const-initialised thread-local and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.get() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if MEASURING.get() {
            LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`
        // (the caller's obligation under `GlobalAlloc::dealloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's allocations counted; returns its result,
/// the live heap bytes it left behind and the allocations it made.
fn measured<T>(f: impl FnOnce() -> T) -> (T, isize, usize) {
    let (bytes, allocs) = (
        LIVE_BYTES.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
    );
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    (
        out,
        LIVE_BYTES.load(Ordering::Relaxed) - bytes,
        ALLOCATIONS.load(Ordering::Relaxed) - allocs,
    )
}

#[test]
fn single_token_annotations_are_small_and_clone_for_free() {
    const ROWS: usize = 10_000;
    let mut annotations: Vec<Km<NatPoly>> = Vec::with_capacity(ROWS);
    let mut copies: Vec<Km<NatPoly>> = Vec::with_capacity(ROWS);

    // One token per row, as `INSERT … PROVENANCE t<i>` builds them: the
    // outer `K^M` term, the inner `ℕ[X]` term, its monomial and the name.
    // (The B-tree representation requested 960 bytes for the same value.)
    let ((), live, _) = measured(|| {
        for i in 0..ROWS {
            annotations.push(Km::embed(NatPoly::token(&format!("t{i}"))));
        }
    });
    let per_row = live as usize / ROWS;
    assert!(per_row <= 200, "{per_row} live heap bytes per annotation");
    assert!(
        per_row >= 64,
        "{per_row} bytes: the counter is not counting"
    );

    // Cloning shares the term storage: a reference-count bump each.
    let ((), live, allocations) = measured(|| copies.extend(annotations.iter().cloned()));
    assert_eq!((allocations, live), (0, 0), "clone must not allocate");
    assert!(copies
        .iter()
        .zip(&annotations)
        .all(|(c, a)| c.as_poly().shares_terms_with(a.as_poly())));

    // Neither does the zero annotation.
    let (zero, _, allocations) = measured(Km::<NatPoly>::zero);
    assert!(zero.is_zero());
    assert_eq!(allocations, 0, "zero must not allocate");
}
