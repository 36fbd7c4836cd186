//! The blocked tuple store against the representation it replaced.
//!
//! [`Relation`] used to keep its rows in a `BTreeMap<Tuple, K>`; it now
//! keeps them in sorted copy-on-write blocks of 512, each block's cells in
//! one row-major buffer. The model here *is* that map: random edits, pins
//! and bulk builds run on both, and after every step the relation must
//! read back as the map does — same `iter()`, `len`, `annotation`, `==`
//! and `Display` — while a pinned clone stays what it was. Sizes sit
//! around one to three blocks, so appends, splits, merges and block copies
//! under a pin all happen. Every sequence runs at arities 0 to 3: the
//! slicing of a block's buffer into rows serves each, and arity 0 is the
//! nullary relation, which holds at most one row. Annotations are in ℤ,
//! so sums cancel and rows leave the support.
//!
//! A batch reads a relation's columns where the store keeps them — cell
//! `col` of each row, at stride `arity` in a block's buffer — so the
//! column reader is checked against the map too: every column reads as
//! the model's rows' column, by support position and by ground row when
//! some rows are split off as a fringe, under an outstanding clone, and
//! after the relation it was split from has been edited.

use aggprov_algebra::domain::Const;
use aggprov_algebra::semiring::{CommutativeSemiring, IntZ};
use aggprov_krel::batch::GroundBatch;
use aggprov_krel::relation::{Merge, Relation, Tuple, TupleRef};
use aggprov_krel::schema::Schema;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::hash::{Hash, Hasher};

type Rel = Relation<IntZ, Const>;
type Model = BTreeMap<Tuple<Const>, IntZ>;

/// Keys are drawn from `0..KEYS`; fills hold about half of them.
const KEYS: i64 = 1_600;

fn schema(arity: usize) -> Schema {
    Schema::new(["a", "b", "c"].into_iter().take(arity)).unwrap()
}

/// The `i`-th tuple of an arity, ascending in `i`: `(i)`, `(i / 40,
/// "s<i % 40>")`, `(i / 400, "s<i / 40 % 10>", i % 40)` — a string cell
/// among the integers — and `()` for every `i` at arity 0.
fn key(arity: usize, i: i64) -> Tuple<Const> {
    let cells = match arity {
        0 => vec![],
        1 => vec![Const::int(i)],
        2 => vec![Const::int(i / 40), Const::str(&format!("s{:02}", i % 40))],
        _ => vec![
            Const::int(i / 400),
            Const::str(&format!("s{}", i / 40 % 10)),
            Const::int(i % 40),
        ],
    };
    Tuple::new(cells)
}

fn rows(arity: usize, raw: &[(i64, i64)]) -> impl Iterator<Item = (Tuple<Const>, IntZ)> + '_ {
    raw.iter().map(move |(i, k)| (key(arity, *i), IntZ(*k)))
}

/// `R(t) += k` on the map, as `Relation::add` documents it.
fn model_add(m: &mut Model, t: Tuple<Const>, k: IntZ) {
    if k.is_zero() {
        return;
    }
    let sum = m.get(&t).map_or(k, |old| old.plus(&k));
    if sum.is_zero() {
        m.remove(&t);
    } else {
        m.insert(t, sum);
    }
}

/// What `Display` printed off the map.
fn render(arity: usize, m: &Model) -> String {
    let mut out = format!("[{}]\n", schema(arity));
    for (t, k) in m {
        writeln!(out, "  {t}  @ {k}").unwrap();
    }
    out
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Every cell is ground.
fn every_cell(c: &Const) -> Option<&Const> {
    Some(c)
}

/// A string cell ending in an odd digit is not: its row goes to the
/// fringe, so ground rows and support positions part.
fn odd_strings_symbolic(c: &Const) -> Option<&Const> {
    match c {
        Const::Str(s) if s.ends_with(['1', '3', '5', '7', '9']) => None,
        _ => Some(c),
    }
}

/// The splits of [`assert_batch_reads_as`].
const SPLITS: [fn(&Const) -> Option<&Const>; 2] = [every_cell, odd_strings_symbolic];

/// `batch`, split from a relation by `as_const`, reads as the ground rows
/// of `m`: each column through one reader in row order, and again row
/// by row from the last, cell for cell.
fn assert_batch_reads_as(
    arity: usize,
    batch: &GroundBatch<IntZ, Const>,
    m: &Model,
    as_const: fn(&Const) -> Option<&Const>,
) {
    let ground: Vec<&Tuple<Const>> = m
        .keys()
        .filter(|t| t.values().iter().all(|c| as_const(c).is_some()))
        .collect();
    let (cells, fringe) = (batch.ground(), batch.fringe());
    assert_eq!((cells.len(), cells.arity()), (ground.len(), arity));
    assert_eq!(fringe.len(), m.len() - ground.len());
    for col in 0..arity {
        let want: Vec<&Const> = ground.iter().map(|t| t.get(col)).collect();
        let mut reader = cells.column(col).unwrap();
        let read: Vec<Const> = (0..want.len() as u32)
            .map(|r| reader.get(r).unwrap().clone())
            .collect();
        assert!(
            read.iter().eq(want.iter().copied()),
            "column {col} differs from the model"
        );
        for r in (0..want.len()).rev() {
            assert_eq!(reader.get(r as u32), Some(want[r]), "row {r}");
        }
        assert!(reader.get(want.len() as u32).is_none());
    }
    assert!(cells.column(arity).is_none());
}

/// Every way of reading `r` agrees with the map.
fn assert_reads_as(arity: usize, r: &Rel, m: &Model, probes: &[i64]) {
    for as_const in SPLITS {
        assert_batch_reads_as(arity, &GroundBatch::from_relation(r, as_const), m, as_const);
    }
    assert_eq!(r.len(), m.len());
    assert_eq!(r.is_empty(), m.is_empty());
    assert!(m.len() <= 1 || arity > 0, "a nullary relation has one row");
    let read = r.iter().map(|(t, k)| (t.to_tuple(), *k));
    assert!(
        read.eq(m.iter().map(|(t, k)| (t.clone(), *k))),
        "iteration differs from the model"
    );
    for i in probes {
        let want = m.get(&key(arity, *i)).copied().unwrap_or(IntZ(0));
        assert_eq!(r.annotation(&key(arity, *i)), want, "annotation of {i}");
    }
    // `==` against the same rows under a different block layout.
    let rebuilt = Relation::from_tuples(schema(arity), m.clone(), Merge::First).unwrap();
    assert_eq!(*r, rebuilt);
    assert_eq!(r.to_string(), render(arity, m));
}

/// A borrowed row and the tuple it came from are one key: `==`, `cmp`,
/// `DefaultHasher` output and `Display` agree pairwise, and a map keyed by
/// tuples finds the same entry by the row as by the tuple.
fn assert_rows_read_as_tuples(r: &Rel) {
    let rows: Vec<(TupleRef<'_, Const>, Tuple<Const>)> =
        r.iter().map(|(t, _)| (t, t.to_tuple())).collect();
    let index: HashMap<Tuple<Const>, usize> = rows
        .iter()
        .enumerate()
        .map(|(i, (_, t))| (t.clone(), i))
        .collect();
    // Each row against its neighbours and the first: equal, less, greater.
    for (i, (row, tuple)) in rows.iter().enumerate() {
        assert_eq!(hash_of(row), hash_of(tuple));
        assert_eq!(row.to_string(), tuple.to_string());
        assert_eq!(row.values(), tuple.values());
        assert_eq!(index.get(row.values()), Some(&i));
        assert_eq!(index.get(row.values()), index.get(tuple));
        for j in [0, i.saturating_sub(1), i, (i + 1).min(rows.len() - 1)] {
            let (other_row, other_tuple) = &rows[j];
            assert_eq!(row == other_row, tuple == other_tuple);
            assert_eq!(row.cmp(other_row), tuple.cmp(other_tuple));
            assert_eq!(row.partial_cmp(other_row), tuple.partial_cmp(other_tuple));
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Add(i64, i64),
    Remove(i64),
    /// Replace the pinned clone by a clone of the current state.
    Pin,
    /// Rebuild from the current rows plus these, through the bulk builder.
    Bulk(Vec<(i64, i64)>),
}

fn arb_raw(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..KEYS, -2i64..3), len)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS, -2i64..3).prop_map(|(i, k)| Op::Add(i, k)),
        // Twice the weight: the end of the key range is the append path.
        (KEYS - 8..KEYS + 8, 1i64..3).prop_map(|(i, k)| Op::Add(i, k)),
        (0..KEYS).prop_map(Op::Remove),
        (0..KEYS).prop_map(Op::Remove),
        Just(Op::Pin),
        arb_raw(0..40).prop_map(Op::Bulk),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edits_pins_and_bulk_builds_match_the_map(
        arity in 0usize..4,
        fill in arb_raw(500..1_400),
        ops in prop::collection::vec(arb_op(), 1..16),
    ) {
        let key = |i| key(arity, i);
        let mut rel = Relation::from_tuples(schema(arity), rows(arity, &fill), Merge::Sum).unwrap();
        let mut model = Model::new();
        rows(arity, &fill).for_each(|(t, k)| model_add(&mut model, t, k));
        let mut pinned = (rel.clone(), model.clone());
        assert_reads_as(arity, &rel, &model, &[0, KEYS / 2, KEYS - 1]);
        for op in ops {
            let mut probes = vec![0, KEYS - 1];
            // Split before the edit: the batch keeps reading the cells it
            // was split from.
            let split = SPLITS.map(|as_const| (GroundBatch::from_relation(&rel, as_const), as_const));
            let before = model.clone();
            match op {
                Op::Add(i, k) => {
                    rel.add(key(i), IntZ(k)).unwrap();
                    model_add(&mut model, key(i), IntZ(k));
                    probes.push(i);
                }
                Op::Remove(i) => {
                    prop_assert_eq!(rel.remove(&key(i)), model.remove(&key(i)));
                    probes.push(i);
                }
                Op::Pin => {
                    pinned = (rel.clone(), model.clone());
                    prop_assert!(pinned.0.shares_tuples_with(&rel) && rel.is_shared());
                }
                Op::Bulk(extra) => {
                    probes.extend(extra.iter().map(|(i, _)| *i));
                    // Descending, so the builder has to sort.
                    let old: Vec<_> = rel.iter().map(|(t, k)| (t.to_tuple(), *k)).collect();
                    let all = old.into_iter().rev().chain(rows(arity, &extra));
                    rel = Relation::from_tuples(schema(arity), all, Merge::Sum).unwrap();
                    rows(arity, &extra).for_each(|(t, k)| model_add(&mut model, t, k));
                }
            }
            assert_reads_as(arity, &rel, &model, &probes);
            // The writer moved (or did not); the pin did not.
            assert_reads_as(arity, &pinned.0, &pinned.1, &probes);
            for (batch, as_const) in &split {
                assert_batch_reads_as(arity, batch, &before, *as_const);
            }
        }
        assert_rows_read_as_tuples(&rel);
    }

    #[test]
    fn five_routes_reach_one_relation(
        arity in 0usize..4,
        raw in arb_raw(0..1_500),
        junk in arb_raw(0..700),
        salt in 1i64..1_000,
    ) {
        let key = |i| key(arity, i);
        let mut model = Model::new();
        rows(arity, &raw).for_each(|(t, k)| model_add(&mut model, t, k));
        let sorted: Vec<(Tuple<Const>, IntZ)> = model.clone().into_iter().collect();
        let mut shuffled = sorted.clone();
        shuffled.sort_by_key(|(t, _)| hash_of(&(t, salt)));
        let by_adds = |order: &[(Tuple<Const>, IntZ)]| {
            let mut r: Rel = Relation::empty(schema(arity));
            order.iter().for_each(|(t, k)| r.add(t.clone(), *k).unwrap());
            r
        };
        let ascending = by_adds(&sorted);
        let descending = by_adds(&sorted.iter().rev().cloned().collect::<Vec<_>>());
        let shuffled_adds = by_adds(&shuffled);
        let bulk = Relation::from_tuples(schema(arity), shuffled.clone(), Merge::Sum).unwrap();
        // Churn: junk rows go in between the real ones and come out again.
        let mut churned: Rel = Relation::empty(schema(arity));
        let junk_keys: Vec<_> = junk
            .iter()
            .map(|(i, _)| key(*i))
            .filter(|t| !model.contains_key(t))
            .collect();
        junk_keys.iter().for_each(|t| churned.add(t.clone(), IntZ(1)).unwrap());
        shuffled.iter().for_each(|(t, k)| churned.add(t.clone(), *k).unwrap());
        junk_keys.iter().for_each(|t| { churned.remove(t); });

        let want = render(arity, &model);
        for (route, r) in [
            ("descending", &descending),
            ("shuffled", &shuffled_adds),
            ("bulk", &bulk),
            ("churned", &churned),
        ] {
            prop_assert_eq!(r, &ascending, "{}", route);
            prop_assert_eq!(r.to_string(), want.as_str(), "{}", route);
            prop_assert_eq!(format!("{r:?}"), format!("{ascending:?}"), "{}", route);
        }
        prop_assert_eq!(ascending.to_string(), want);
        assert_rows_read_as_tuples(&bulk);
    }

    #[test]
    fn bulk_rules_are_loops_of_the_row_rules(arity in 0usize..4, raw in arb_raw(0..900)) {
        // Additive ≡ a loop of `add`.
        let bulk = Relation::from_tuples(schema(arity), rows(arity, &raw), Merge::Sum).unwrap();
        let mut looped: Rel = Relation::empty(schema(arity));
        rows(arity, &raw).for_each(|(t, k)| looped.add(t, k).unwrap());
        prop_assert_eq!(&bulk, &looped);
        // First-wins ≡ a loop of `insert_distinct`: zeros skipped, then the
        // first arrival stays.
        let first = Relation::from_tuples(schema(arity), rows(arity, &raw), Merge::First).unwrap();
        let mut model = Model::new();
        for (t, k) in rows(arity, &raw).filter(|(_, k)| !k.is_zero()) {
            model.entry(t).or_insert(k);
        }
        let read = first.iter().map(|(t, k)| (t.to_tuple(), *k));
        prop_assert!(read.eq(model.iter().map(|(t, k)| (t.clone(), *k))));
        prop_assert_eq!(first.to_string(), render(arity, &model));
    }
}
