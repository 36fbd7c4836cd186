//! The annotation footprint guard: what one base-row annotation costs on
//! the heap, that copying one costs nothing, and what the aggregate path's
//! sums allocate — measured with a counting global allocator, so it holds
//! on every host and in every profile.
//!
//! Every tuple and every aggregate value carries a `Km<ℕ[X]>`, and a base
//! table holds one single-token annotation per row: this is the number
//! `peak_rss_mb` is made of (a base row's ground annotation is its one
//! term `1·p`, held in the `ℕ[X]` itself with its monomial and a short
//! token name: no block at all). The budgets further down are counts,
//! not times: allocations per loaded row, per input row of `Σ` and
//! `GROUP BY`, per join row of a filtered and an unfiltered join, and how
//! the count grows when the input doubles (a quadratic sum shows as ≈ 4×
//! without a clock). This binary is the only place in the workspace with
//! `unsafe` (the `GlobalAlloc` impl); it holds one test, so nothing else
//! allocates on the measuring thread, and every operator runs under
//! `ExecOptions::serial()`.

use aggprov::core::ops::batch::{BatchCmp, BatchOperand, Chunk};
use aggprov::core::ops::{self, AggSpec, MKRel};
use aggprov::krel::relation::{Merge, Relation, Tuple};
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
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting what the measuring thread requests.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics and a
// const-initialised thread-local and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.get() {
            let size = layout.size() as isize;
            let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
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
/// the live heap bytes it left behind, the allocations it made and the
/// most bytes it held live at once (its high-water mark).
fn measured<T>(f: impl FnOnce() -> T) -> (T, isize, usize, isize) {
    let (bytes, allocs) = (
        LIVE_BYTES.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
    );
    PEAK_BYTES.store(bytes, Ordering::Relaxed);
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    (
        out,
        LIVE_BYTES.load(Ordering::Relaxed) - bytes,
        ALLOCATIONS.load(Ordering::Relaxed) - allocs,
        PEAK_BYTES.load(Ordering::Relaxed) - bytes,
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
    // one term `1·t<i>`, with its one-token monomial and short name, held
    // inside the `ℕ[X]` and that held ground in the `Km` itself, so no
    // block at all. (With the term in a shared slice it was 1 block and 56
    // bytes, with the name in a block of its own besides 2 and 80; with an
    // outer `K^M` term and a monomial buffer 4 blocks and 152 bytes; the
    // B-tree representation requested 960 bytes for the same value.)
    let names: Vec<String> = (0..ROWS).map(|i| format!("t{i}")).collect();
    let ((), live, allocations, _) = measured(|| {
        for name in &names {
            annotations.push(Km::embed(NatPoly::token(name)));
        }
    });
    assert_eq!(
        (allocations, live),
        (0, 0),
        "{ROWS} base tokens: allocations and live heap bytes"
    );
    // A base table of the benchmark's `emp` shape, three integers and a
    // `p<i>` token a row, loaded through `Relation::insert`: the row
    // vector (its cells move into the store's block, and it is freed) and
    // nothing else, 1.006 allocations and 104.7 bytes a row — 72 bytes of
    // cells and a 32-byte annotation with its token inside (2.006 / 152.6
    // while the token was a 56-byte
    // term slice beside a 24-byte annotation, 3.004 / 184.2 while every
    // row was a tuple of its own behind a 40-byte block entry, 208.2 while
    // a cell was 32 bytes, 232.2 with each name in a block of its own
    // besides).
    let names: Vec<String> = (0..LOAD).map(|i| format!("p{i}")).collect();
    let schema = Schema::new(["emp", "dept", "sal"]).unwrap();
    let (table, live, allocations, _) = measured(|| {
        let mut table = Relation::empty(schema);
        for (i, name) in names.iter().enumerate() {
            let row = [i, i % 100, 10 + i % 190].map(|v| Value::<Prov>::int(v as i64));
            table.insert(row.to_vec(), token(name)).unwrap();
        }
        table
    });
    assert_eq!(table.len(), LOAD);
    assert!(allocations >= LOAD, "the counter is not counting");
    assert!(
        allocations * 100 <= LOAD * 101 && live as usize <= 105 * LOAD,
        "{LOAD} emp rows inserted: {allocations} allocations, {live} bytes"
    );
    drop((table, names));
    // A short string cell is held in the cell: a ground row with one costs
    // what an all-integer row costs (one more block a row when a string
    // was always an `Arc<str>`).
    let cells: Vec<String> = (0..1_000).map(|i| format!("d{i}")).collect();
    let rows = |cell: &dyn Fn(&str) -> Value<Prov>| {
        let (rows, live, allocations, _) = measured(|| {
            let row = |(i, c): (usize, &String)| Tuple::from([Value::int(i as i64), cell(c)]);
            cells.iter().enumerate().map(row).collect::<Vec<_>>()
        });
        assert_eq!(rows.len(), cells.len());
        (allocations, live)
    };
    let (with_str, with_int) = (rows(&|c| Value::str(c)), rows(&|_| Value::int(7)));
    assert_eq!(
        with_str, with_int,
        "rows with a short string cell against integer rows"
    );
    // Embedding a base annotation that already exists is a move.
    let inner = NatPoly::token("e");
    let (_, _, allocations, _) = measured(|| Km::embed(inner));
    assert_eq!(allocations, 0, "embed must not allocate");

    // Cloning copies the token where it lies.
    let ((), live, allocations, _) = measured(|| copies.extend(annotations.iter().cloned()));
    assert_eq!((allocations, live), (0, 0), "clone must not allocate");
    assert_eq!(copies, annotations);

    // Neither does the zero annotation.
    let (zero, _, allocations, _) = measured(Km::<NatPoly>::zero);
    assert!(zero.is_zero());
    assert_eq!(allocations, 0, "zero must not allocate");
    // (a) Multiplying by 1 hands the other operand back.
    let (a, one) = (token("a"), Prov::one());
    let ((left, right), _, allocations, _) = measured(|| (a.times(&one), one.times(&a)));
    assert_eq!(allocations, 0, "times(1) must not allocate");
    assert!(left == a && right == a);

    // A tensor's terms are shared as a polynomial's are: copying an
    // aggregate cell (every `Tuple::project` does) and the zero tensor
    // allocate nothing.
    let weighted = annotations
        .iter()
        .cloned()
        .zip([10, 20, 30].map(Const::int));
    let tensor = Tensor::<Prov, Const>::from_terms(&MonoidKind::Sum, weighted);
    let ((copy, zero), _, allocations, _) =
        measured(|| (tensor.clone(), Tensor::<Prov, Const>::zero()));
    assert_eq!(allocations, 0, "tensor clone/zero must not allocate");
    assert!(copy.len() == 3 && copy.shares_terms_with(&tensor) && zero.is_zero());
    // A non-zero tensor is two blocks, its term slice and the handle's
    // `Arc` around it: a simple tensor `k⊗m` is built in them directly,
    // normal-form terms are boxed where they lie, and a copy of either is
    // a reference-count bump.
    let kind = MonoidKind::Sum;
    let k = annotations[0].clone();
    let (simple, _, allocations, _) = measured(|| Tensor::simple(&kind, k, Const::int(20)));
    assert!(allocations <= 2, "k⊗20: {allocations} allocations");
    let terms: Vec<_> = annotations[..3]
        .iter()
        .cloned()
        .zip([10, 20, 30].map(Const::int))
        .collect();
    let (tensor, _, allocations, _) = measured(|| Tensor::<Prov, Const>::from_terms(&kind, terms));
    assert!(
        allocations <= 2,
        "a 3-term tensor: {allocations} allocations"
    );
    let ((a, b), _, allocations, _) = measured(|| (simple.clone(), tensor.clone()));
    assert_eq!(allocations, 0, "tensor clone must not allocate");
    assert!(a.shares_terms_with(&simple) && b.shares_terms_with(&tensor) && b.len() == 3);

    // (b) The k-way Σ of ground operands is `ℕ[X]`'s own, and cloning a
    // surviving term's one-token monomial is a reference-count bump: what
    // is left is the sort's and the result's buffers (cloning each
    // monomial's `Vec` made it ≈ n; the pairwise tree > 10·n).
    const N: usize = 1_000;
    let items = annotations[..N].to_vec();
    let (total, _, allocations, _) = measured(|| Prov::sum(items));
    assert_eq!(total.try_collapse().map(|p| p.num_terms()), Some(N));
    assert!(
        allocations <= 32,
        "Σ of {N} tokens: {allocations} allocations"
    );

    // (c) GROUP BY with one SUM over ground keys: `ι`-free accumulation
    // and one Σ per group (the ι/scale/tree path made 18–22 per row).
    let serial = ExecOptions::serial();
    let sum_sal = [AggSpec::new(MonoidKind::Sum, "sal")];
    let rel = emp(2_000, 20);
    let group_by = |specs: &[AggSpec<'_>]| {
        let (grouped, _, allocations, _) =
            measured(|| ops::group_by_opts(&rel, &["dept"], specs, &serial).unwrap());
        assert_eq!(grouped.len(), 20);
        allocations
    };
    let sum = group_by(&sum_sal);
    assert!(
        sum <= rel.len(),
        "GROUP BY: {sum} allocations for {} rows",
        rel.len()
    );
    // MAX is idempotent, so every tensor coefficient goes through
    // `idem_normal` — which hands a unit-coefficient `ℕ[X]` back as it is
    // (rebuilding each one made 18 allocations per tensor term).
    let max = group_by(&[AggSpec::new(MonoidKind::Max, "sal")]);
    assert!(
        max <= sum + 20 + 16,
        "GROUP BY MAX: {max} allocations against {sum} for SUM"
    );

    // The keyed fold reads its keys where they lie: no key tuple per
    // input row, in any of its three operators. A symbolic row in the
    // input keeps `project` on the fold (an all-ground input picks its
    // columns instead), and its leading ground cell differs from
    // every ground key, so no token is built either.
    let symbolic = {
        let sums = ops::group_by_opts(&emp(10, 2), &["dept"], &sum_sal, &serial).unwrap();
        let mut fringe = Relation::empty(rel.schema().clone());
        for (i, (t, k)) in sums.iter().enumerate() {
            let row = vec![
                Value::int(-1 - i as i64),
                Value::int(0),
                Value::int(10),
                t.get(1).clone(),
            ];
            fringe.insert(row, k.clone()).unwrap();
        }
        fringe
    };
    assert!(symbolic.len() == 2 && symbolic.iter().all(|(t, _)| t.get(3).is_agg()));
    let mixed = ops::union_opts(&rel, &symbolic, &serial).unwrap();
    assert_eq!(mixed.len(), rel.len() + symbolic.len());
    let (projected, _, allocations, _) =
        measured(|| ops::project_opts(&mixed, &["dept", "one"], &serial).unwrap());
    assert_eq!(projected.len(), 20 + symbolic.len());
    assert!(
        allocations <= mixed.len(),
        "project with symbolic rows present: {allocations} allocations for {} rows",
        mixed.len()
    );
    let (_, _, allocations, _) = measured(|| ops::union_opts(&rel, &symbolic, &serial).unwrap());
    assert!(
        allocations <= mixed.len(),
        "union over ground rows: {allocations} allocations for {} rows",
        mixed.len()
    );

    // Materializing a grouped view folds its input once: the view's
    // relation is rendered from the group state, not executed beside it
    // (two folds read ≈ 2×). A debug build does run the full plan as well,
    // inside the `debug_assert!` that compares the two.
    let mut db = ProvDb::new();
    db.register("emp", rel.clone());
    let ((), _, materialize, _) = measured(|| {
        db.materialize(
            "mass",
            "SELECT dept, SUM(sal) AS total FROM emp GROUP BY dept",
        )
        .unwrap()
    });
    assert_eq!(db.view("mass").unwrap().len(), 20);
    assert!(
        cfg!(debug_assertions) || materialize * 4 <= sum * 5,
        "materialize: {materialize} allocations against {sum} for one GROUP BY"
    );

    // The tuple store. Loading a table in tuple order is a compare with
    // the last row and a push of the row's cells into a 512-row block
    // (three allocations a block: its `Arc`, its cells, its annotations;
    // an ordered map made one node per six rows: 0.167 per row, 78 bytes).
    // The store's own bytes are the row's cell and annotation and a share
    // of the block: 610 allocations and 56.4 bytes a unary row, a 24-byte
    // cell and a 32-byte annotation (48.3 while an annotation was 24
    // bytes; the last block is sized for 512 rows). This budget counts the
    // cell the store now owns; it was 48 bytes while a row was a 40-byte
    // block entry pointing at a tuple allocated outside the measured
    // closure, …
    const LOAD: usize = 100_000;
    let unary = Schema::new(["emp"]).unwrap();
    let key = |i: usize| Tuple::from([Value::<Prov>::int(i as i64)]);
    let prebuilt: Vec<_> = (0..LOAD).map(|i| (key(2 * i), Prov::one())).collect();
    let (table, live, allocations, _) = measured(|| {
        let mut table = Relation::empty(unary.clone());
        for (t, k) in &prebuilt {
            table.add(t.clone(), k.clone()).unwrap();
        }
        table
    });
    assert_eq!(table.len(), LOAD);
    assert!(
        allocations * 100 <= LOAD && live as usize <= 57 * LOAD,
        "{LOAD} ascending adds: {allocations} allocations, {live} bytes"
    );
    // … a write under a pinned clone copies the block pointers and the
    // block it lands in, not the table (the map copied all of its 3 333
    // nodes, 1.56 MB, for 20 000 rows), …
    let mut table =
        Relation::from_tuples(unary, prebuilt[..20_000].iter().cloned(), Merge::Sum).unwrap();
    // Even keys are present: 40 000 goes past the end, 20 001 into the
    // middle of a full block (a split).
    for (what, i, remove) in [
        ("add at the end", 40_000, false),
        ("add in the middle", 20_001, false),
        ("remove", 10_000, true),
    ] {
        let pinned = table.clone();
        let t = key(i);
        let ((), live, allocations, _) = measured(|| {
            if remove {
                table.remove(&t).unwrap();
            } else {
                table.add(t, Prov::one()).unwrap();
            }
        });
        assert!(pinned.len() == 20_000 && table.len() != 20_000);
        assert!(
            allocations <= 16 && live <= 128 << 10,
            "{what} under a pinned clone: {allocations} allocations, {live} bytes"
        );
        table = pinned;
    }
    // … and materializing a chunk allocates nothing per row: each row's
    // cells are moved from one reused buffer into the blocks (145
    // allocations for 20 000 rows; 20 098 while every row was a tuple, 2
    // a row while the tuple was built in a `Vec` and copied again). A
    // chunk no kernel has split hands its relation back whole (budget
    // (i)), so a filter that keeps every row splits this one first.
    let mut chunk = Chunk::from_relation(&table);
    let col = BatchOperand::Col(0);
    chunk.filter(&col, BatchCmp::Eq, &col, &serial).unwrap();
    let (back, _, allocations, _) = measured(|| chunk.into_relation().unwrap());
    assert_eq!(back, table);
    assert!(
        allocations * 100 <= table.len(),
        "chunk → relation: {allocations} allocations for {} rows",
        table.len()
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

    // (f) A columnar join defers its product: `⊗` (2 allocations) runs at
    // materialization, on the join rows a later filter kept. 20 000 `emp`
    // rows joined with 100 `dim` rows on `dept = dept2`, prepared, second
    // serial execute. A filter over both sides stays above the join. The
    // join indexes the 100 `dim` rows, the side with fewer selected rows,
    // whichever side the plan puts them on.
    const JOIN_ROWS: usize = 20_000;
    let mut db = ProvDb::new();
    let emp = (0..JOIN_ROWS as i64).map(|i| {
        let row = [i, i % 100, 10 + 7919 * i % 190].map(Value::int).to_vec();
        (row, token(&format!("p{i}")))
    });
    let dim = (0..100).map(|d| {
        let row = [d, 10 + d % 20].map(Value::int).to_vec();
        (row, token(&format!("d{d}")))
    });
    let emp = Relation::from_rows(Schema::new(["emp", "dept", "sal"]).unwrap(), emp).unwrap();
    db.register("emp", emp);
    let dim = Relation::from_rows(Schema::new(["dept2", "cap"]).unwrap(), dim).unwrap();
    db.register("dim", dim);
    let run = |stmt: Prepared<'_, Prov>| {
        stmt.execute_with_opts(&[], &serial).unwrap();
        let (out, _, allocations, peak) =
            measured(|| stmt.execute_with_opts(&[], &serial).unwrap());
        (out.len(), allocations, peak as usize)
    };
    let execute = |sql: &str| run(db.prepare(sql).unwrap());
    let join = "SELECT e.emp, d.cap FROM emp e JOIN dim d ON e.dept = d.dept2";
    // 947 rows kept: 2 068 allocations, 0.10 per join row (2 703, 0.14,
    // while the join indexed the 20 000 `emp` rows the optimizer put on
    // the right; 0.18 while every kept row was a tuple of its own, 2.09
    // when every join row was multiplied before the filter ran).
    let (rows, cross_side, _) = execute(&format!("{join} WHERE e.sal < d.cap"));
    assert_eq!(rows, 947);
    assert!(
        cross_side * 100 <= JOIN_ROWS * 14,
        "cross-side filter over a join: {cross_side} allocations for {JOIN_ROWS} join rows"
    );
    // Every row kept: 40 282 allocations, 2.01 per row — the two of each
    // row's `⊗`, as when the join multiplied eagerly (deferring adds
    // nothing when nothing is dropped), and no tuple (40 931 while the
    // join indexed `emp`; 3.04 while every output row was a tuple of its
    // own).
    let (rows, unfiltered, _) = execute(join);
    assert_eq!(rows, JOIN_ROWS);
    assert!(
        unfiltered * 100 <= JOIN_ROWS * 205,
        "unfiltered join: {unfiltered} allocations for {JOIN_ROWS} rows"
    );
    // A join whose probe side is a deferred join: the inner products are
    // multiplied out once each, for the rows the outer pairs name. 100 412
    // allocations (101 063 while each join indexed its larger side,
    // 101 074 while each join gathered its output columns); 121 007 while
    // every output row was a tuple of its own, and 121 009 when besides
    // the join multiplied eagerly and every scan collected an identity
    // selection vector.
    let (rows, nested, _) = execute(&format!("{join} JOIN dim f ON e.dept = f.dept2"));
    assert_eq!(rows, JOIN_ROWS);
    assert!(
        nested <= 101_100,
        "join over a deferred join: {nested} allocations"
    );

    // (g) A scan copies no cell and no annotation: the chunk reads the
    // table's where its store keeps them, and only the rows that reach the
    // result are cloned. At its high-water mark an execute holds the
    // filter's selection vector (4 bytes a kept row), the result
    // relation's blocks and, joined, the join's index vectors and the
    // result's products: 6.4 bytes per `emp` row for the scan (11.9 while
    // the selection vector kept a slot for every scanned row, 10.8 besides
    // while an annotation was 24 bytes), 11.7 joined to `dim`. The join
    // indexes the 100 `dim` rows and probes with the kept `emp` rows, so
    // its pairs come out in `emp` order and the result's builder appends
    // them. It read 22.0 while the join indexed the kept `emp` rows, which
    // the optimizer puts on the right, and emitted its pairs in `dim`
    // order, sending every result row down the builder's out-of-order
    // path (22.0 too while the selection vector kept a slot for every
    // scanned row, 20.9 besides while an annotation was 24 bytes).
    // Copying the three scanned columns into `i64` runs read 28.9 and 30.7
    // (one such column alone adds 8 bytes a row, over either budget);
    // cloning every scanned row's annotation into the chunk besides, 52.9
    // and 55.0. A projection that leads with `dim`'s column puts the same
    // pairs out of order by construction: the builder collects the late
    // rows, moves the few in-order head rows in front of them and sorts
    // that one block where it lies, 16.7 (18.0 while the late rows were
    // copied behind the head rows first, held twice on the way; 21.8
    // while besides the late rows' emptied buffers stayed allocated
    // through the sort; 18.2 for the joined scan above when the join
    // indexes the kept `emp` rows again). The tuple store then gives back
    // the head's unused tail whenever the blocks it splits off leave it
    // half empty, which this allocator, counting a shrinking reallocation
    // as a copy, does not see. Budgets in tenths of a byte per row.
    for (what, sql, budget) in [
        (
            "scan",
            "SELECT emp, sal FROM emp WHERE sal < 20".to_string(),
            70,
        ),
        (
            "scan joined to dim",
            format!("{join} WHERE e.sal < 20"),
            130,
        ),
        (
            "dim columns first",
            "SELECT d.cap, e.emp FROM emp e JOIN dim d ON e.dept = d.dept2 WHERE e.sal < 20"
                .to_string(),
            175,
        ),
    ] {
        let (rows, _, peak) = execute(&sql);
        assert_eq!(rows, 1_054);
        assert!(
            peak * 10 <= budget * JOIN_ROWS,
            "{what}: {:.1} bytes at the high-water mark per emp row",
            peak as f64 / JOIN_ROWS as f64
        );
    }
    // The same join unoptimized (the filter above the join, as
    // `prepare_unoptimized` plans it): every `emp` row is joined before
    // the filter drops 95 % of them. The join writes its match rows into
    // the two index vectors its output reads through and gathers no
    // column: 19.5 bytes per join row at the high-water mark (the index
    // vectors, the selection vector, the result; 24.9 while the selection
    // vector kept a slot for every join row, 24.3 besides while an
    // annotation was 24 bytes). 72.1 while the join collected its pairs,
    // unzipped them and gathered five output columns.
    let (rows, _, peak) = run(db
        .prepare_unoptimized(&format!("{join} WHERE e.sal < 20"))
        .unwrap());
    assert_eq!(rows, 1_054);
    assert!(
        peak <= 21 * JOIN_ROWS,
        "unoptimized join then filter: {:.1} bytes at the high-water mark per join row",
        peak as f64 / JOIN_ROWS as f64
    );

    // (h) The aggregate workload's run pass retains nothing: `GROUP BY`
    // with a symbolic `SUM`, `HAVING` over it, then `delete_tokens` of 50
    // tokens on the result, over 5 000 `emp` rows in 500 departments.
    // After one warm-up round, each round — parameter and token set
    // rotating as the workload rotates them — leaves 0 live bytes once its
    // results are dropped.
    const AGG_ROWS: usize = 5_000;
    let mut db = ProvDb::new();
    let emp = (0..AGG_ROWS as i64).map(|i| {
        let row = [i, i % 500, 10 + 7919 * i % 190].map(Value::int).to_vec();
        (row, token(&format!("p{i}")))
    });
    let emp = Relation::from_rows(Schema::new(["emp", "dept", "sal"]).unwrap(), emp).unwrap();
    db.register("emp", emp);
    let stmt = db
        .prepare(
            "SELECT dept, SUM(sal) AS mass FROM emp WHERE sal > $1 \
             GROUP BY dept HAVING mass > 2000",
        )
        .unwrap();
    let token_sets: Vec<Vec<String>> = (0..4)
        .map(|set| {
            (0..50)
                .map(|i| format!("p{}", 97 * (50 * set + i) % AGG_ROWS))
                .collect()
        })
        .collect();
    let round = |r: usize| {
        let param = Const::int(10 + (r % 5) as i64);
        let result = stmt.execute_with_opts(&[param], &serial).unwrap();
        let after = result.delete_tokens(&token_sets[r % token_sets.len()]);
        (result.len(), after.len())
    };
    round(0);
    // One execute folds the rows the filter selected where `emp` stores
    // them, and materializes no relation in front of the `GROUP BY`: 176
    // bytes per `emp` row at the high-water mark — the fold's entries and
    // buckets over the stored rows beside the grouped result it builds
    // (184 while the entries' vector grew by doubling and its sort held a
    // scratch copy of them, 290 while the filtered rows were materialized
    // first).
    // `delete_tokens` maps only the rows that mention a deleted token:
    // 1 032 allocations for 50 tokens over the 500-row result (9 597
    // while it rebuilt every row).
    let (result, _, _, peak) =
        measured(|| stmt.execute_with_opts(&[Const::int(12)], &serial).unwrap());
    assert_eq!(result.len(), 500);
    assert!(
        peak as usize <= 190 * AGG_ROWS,
        "aggregate execute: {:.1} bytes at the high-water mark per emp row",
        peak as f64 / AGG_ROWS as f64
    );
    let (after, _, deleting, _) = measured(|| result.delete_tokens(&token_sets[0]));
    assert_eq!(after.len(), 500);
    assert!(
        deleting <= 1_250,
        "delete_tokens of 50 tokens: {deleting} allocations over a 500-row result"
    );
    drop((result, after));
    // `COUNT(*)` over the same rows folds them where `emp` stores them as
    // well: `*` reads no column, so no column of 1s is built and no
    // relation is materialized in front of the fold. 147 bytes per `emp`
    // row at the high-water mark (274 while COUNT aggregated an owned
    // unit column, which made the fold materialize its input first).
    let count = db
        .prepare("SELECT dept, COUNT(*) AS n FROM emp WHERE sal > $1 GROUP BY dept")
        .unwrap();
    let (counted, _, _, peak) =
        measured(|| count.execute_with_opts(&[Const::int(12)], &serial).unwrap());
    assert_eq!(counted.len(), 500);
    assert!(
        peak as usize <= 160 * AGG_ROWS,
        "count execute: {:.1} bytes at the high-water mark per emp row",
        peak as f64 / AGG_ROWS as f64
    );
    drop(counted);
    for r in 1..=10 {
        let ((rows, _), live, _, _) = measured(|| round(r));
        assert!(rows > 0);
        assert_eq!(
            live, 0,
            "aggregate round {r}: {live} live bytes left after execute and delete_tokens"
        );
    }

    // (i) A chunk decides when its relation becomes columns: one no
    // kernel has split hands back the relation it holds (0 allocations;
    // 146, a materialized copy, while every chunk was split on the way
    // in), and a projection over symbolic rows folds its input relation
    // and hands its output on unsplit (453 allocations over (e)'s 200
    // keys; 915 while both went through columns). `self::emp` is the
    // helper, which (h)'s table shadows.
    let (back, _, allocations, _) =
        measured(|| Chunk::from_relation(&table).into_relation().unwrap());
    assert!(
        allocations <= 16,
        "chunk handed back unsplit: {allocations} allocations for {} rows",
        table.len()
    );
    assert!(back.shares_tuples_with(&table));
    let grouped = ops::group_by_opts(&self::emp(400, 200), &["dept"], &sum_sal, &serial).unwrap();
    assert!(grouped.len() == 200 && grouped.iter().all(|(t, _)| t.get(1).is_agg()));
    let (_, _, allocations, _) =
        measured(|| ops::project_opts(&grouped, &["dept", "sal"], &serial).unwrap());
    assert!(
        allocations <= 3 * grouped.len(),
        "projection over symbolic rows unsplit: {allocations} allocations for {} rows",
        grouped.len()
    );
}
