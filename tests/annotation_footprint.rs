//! The annotation footprint guard: what one base-row annotation costs on
//! the heap, that copying one costs nothing, and what the aggregate path's
//! sums allocate — measured with a counting global allocator, so it holds
//! on every host and in every profile.
//!
//! Every tuple and every aggregate value carries a `Km<ℕ[X]>`, and a base
//! table holds one single-token annotation per row: this is the number
//! `peak_rss_mb` is made of. The budgets further down are counts, not
//! times: allocations per input row of `Σ` and `GROUP BY`, and how the
//! count grows when the input doubles (a quadratic sum shows as ≈ 4×
//! without a clock). This binary is the only place in the workspace with
//! `unsafe` (the `GlobalAlloc` impl); it holds one test, so nothing else
//! allocates on the measuring thread, and every operator runs under
//! `ExecOptions::serial()`.

use aggprov::core::ops::{self, AggSpec, MKRel};
use aggprov::krel::relation::Relation;
use aggprov::krel::schema::Schema;
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

fn token(name: &str) -> Prov {
    Km::embed(NatPoly::token(name))
}

/// `rows` single-token rows `(emp, dept, sal, one)`: `emp` distinct,
/// `depts` departments, seven salaries (so every group's `SUM` has runs of
/// equal elements), `one` the unit column `COUNT(*)` sums.
fn emp(rows: usize, depts: usize) -> MKRel<Prov> {
    let schema = Schema::new(["emp", "dept", "sal", "one"]).unwrap();
    Relation::from_rows(
        schema,
        (0..rows).map(|i| {
            let row = vec![
                Value::int(i as i64),
                Value::int((i % depts) as i64),
                Value::int(10 + (i % 7) as i64),
                Value::int(1),
            ];
            (row, token(&format!("p{i}")))
        }),
    )
    .unwrap()
}

/// Allocations of `f` at input sizes `n` and `2n` (inputs built outside
/// the count).
fn doubling<I, T>(n: usize, input: impl Fn(usize) -> I, f: impl Fn(&I) -> T) -> (usize, usize) {
    let count = |n| {
        let input = input(n);
        measured(|| f(&input)).2
    };
    (count(n), count(2 * n))
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
    // (a) Multiplying by 1 hands the other operand's storage back.
    let (a, one) = (token("a"), Prov::one());
    let ((left, right), _, allocations) = measured(|| (a.times(&one), one.times(&a)));
    assert_eq!(allocations, 0, "times(1) must not allocate");
    assert!(left.as_poly().shares_terms_with(a.as_poly()));
    assert!(right.as_poly().shares_terms_with(a.as_poly()));

    // (b) The k-way Σ clones each surviving term once (its monomial),
    // where the pairwise tree re-cloned every term log n times (> 10·n).
    const N: usize = 1_000;
    let items = annotations[..N].to_vec();
    let (total, _, allocations) = measured(|| Prov::sum(items));
    assert_eq!(total.try_collapse().map(|p| p.num_terms()), Some(N));
    assert!(
        allocations <= 2 * N + 16,
        "Σ of {N} tokens: {allocations} allocations"
    );

    // (c) GROUP BY with one SUM over ground keys: `ι`-free accumulation
    // and one Σ per group (the ι/scale/tree path made 18–22 per row).
    let serial = ExecOptions::serial();
    let sum_sal = [AggSpec::new(MonoidKind::Sum, "sal")];
    let rel = emp(2_000, 20);
    let (grouped, _, allocations) =
        measured(|| ops::group_by_opts(&rel, &["dept"], &sum_sal, &serial).unwrap());
    assert_eq!(grouped.len(), 20);
    assert!(
        allocations <= 6 * rel.len(),
        "GROUP BY: {allocations} allocations for {} rows",
        rel.len()
    );

    // (d) COUNT-shaped AGG (every aggregated value equal): the run of
    // equal elements is one Σ, so doubling the input doubles the count
    // (the pair-by-pair fold of the run was quadratic: ≈ 4×).
    let count = [AggSpec::new(MonoidKind::Sum, "one")];
    let (small, large) = doubling(
        2_000,
        |n| emp(n, 20),
        |rel| ops::agg_all(rel, &count).unwrap(),
    );
    assert!(
        large * 10 <= small * 26,
        "COUNT over 2000 → 4000 rows: {small} → {large} allocations"
    );

    // (e) Projecting n rows with n distinct (ground, symbolic SUM) keys:
    // the leading-run index pairs a candidate only with the entries that
    // share its ground prefix (all-pairs was ≈ 4× per doubling).
    let (small, large) = doubling(
        200,
        |n| ops::group_by_opts(&emp(2 * n, n), &["dept"], &sum_sal, &serial).unwrap(),
        |grouped| {
            assert!(grouped.iter().all(|(t, _)| t.get(1).is_agg()));
            ops::project_opts(grouped, &["dept", "sal"], &serial).unwrap()
        },
    );
    assert!(
        large * 10 <= small * 26,
        "project over 200 → 400 symbolic rows: {small} → {large} allocations"
    );
}
