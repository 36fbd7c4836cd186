//! The blocked tuple store against the representation it replaced.
//!
//! [`Relation`] used to keep its rows in a `BTreeMap<Tuple, K>`; it now
//! keeps them in sorted copy-on-write blocks of 512. The model here *is*
//! that map: random edits, pins and bulk builds run on both, and after
//! every step the relation must read back as the map does — same `iter()`,
//! `len`, `annotation`, `==` and `Display` — while a pinned clone stays
//! what it was. Sizes sit around one to three blocks, so appends, splits,
//! merges and block copies under a pin all happen. Annotations are in ℤ,
//! so sums cancel and rows leave the support.

use aggprov_algebra::domain::Const;
use aggprov_algebra::semiring::{CommutativeSemiring, IntZ};
use aggprov_krel::relation::{Merge, Relation, Tuple};
use aggprov_krel::schema::Schema;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write;

type Rel = Relation<IntZ, Const>;
type Model = BTreeMap<Tuple<Const>, IntZ>;

/// Keys are drawn from `0..KEYS`; fills hold about half of them.
const KEYS: i64 = 1_600;

fn schema() -> Schema {
    Schema::new(["a"]).unwrap()
}

fn key(i: i64) -> Tuple<Const> {
    Tuple::from([Const::int(i)])
}

fn rows(raw: &[(i64, i64)]) -> impl Iterator<Item = (Tuple<Const>, IntZ)> + '_ {
    raw.iter().map(|(i, k)| (key(*i), IntZ(*k)))
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
fn render(m: &Model) -> String {
    let mut out = format!("[{}]\n", schema());
    for (t, k) in m {
        writeln!(out, "  {t}  @ {k}").unwrap();
    }
    out
}

/// Every way of reading `r` agrees with the map.
fn assert_reads_as(r: &Rel, m: &Model, probes: &[i64]) {
    assert_eq!(r.len(), m.len());
    assert_eq!(r.is_empty(), m.is_empty());
    assert!(r.iter().eq(m.iter()), "iteration differs from the model");
    for i in probes {
        let want = m.get(&key(*i)).copied().unwrap_or(IntZ(0));
        assert_eq!(r.annotation(&key(*i)), want, "annotation of {i}");
    }
    // `==` against the same rows under a different block layout.
    let rebuilt = Relation::from_tuples(schema(), m.clone(), Merge::First).unwrap();
    assert_eq!(*r, rebuilt);
    assert_eq!(r.to_string(), render(m));
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
        fill in arb_raw(500..1_400),
        ops in prop::collection::vec(arb_op(), 1..16),
    ) {
        let mut rel = Relation::from_tuples(schema(), rows(&fill), Merge::Sum).unwrap();
        let mut model = Model::new();
        rows(&fill).for_each(|(t, k)| model_add(&mut model, t, k));
        let mut pinned = (rel.clone(), model.clone());
        assert_reads_as(&rel, &model, &[0, KEYS / 2, KEYS - 1]);
        for op in ops {
            let mut probes = vec![0, KEYS - 1];
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
                    let old: Vec<_> = rel.iter().map(|(t, k)| (t.clone(), *k)).collect();
                    let all = old.into_iter().rev().chain(rows(&extra));
                    rel = Relation::from_tuples(schema(), all, Merge::Sum).unwrap();
                    rows(&extra).for_each(|(t, k)| model_add(&mut model, t, k));
                }
            }
            assert_reads_as(&rel, &model, &probes);
            // The writer moved (or did not); the pin did not.
            assert_reads_as(&pinned.0, &pinned.1, &probes);
        }
    }

    #[test]
    fn five_routes_reach_one_relation(
        raw in arb_raw(0..1_500),
        junk in arb_raw(0..700),
        salt in 1i64..1_000,
    ) {
        let mut model = Model::new();
        rows(&raw).for_each(|(t, k)| model_add(&mut model, t, k));
        let sorted: Vec<(Tuple<Const>, IntZ)> = model.clone().into_iter().collect();
        let mut shuffled = sorted.clone();
        shuffled.sort_by_key(|(t, _)| match t.get(0) {
            Const::Num(n) => n.as_int().map(|i| (i * salt * 7_919) % 1_601),
            _ => None,
        });
        let by_adds = |order: &[(Tuple<Const>, IntZ)]| {
            let mut r: Rel = Relation::empty(schema());
            order.iter().for_each(|(t, k)| r.add(t.clone(), *k).unwrap());
            r
        };
        let ascending = by_adds(&sorted);
        let descending = by_adds(&sorted.iter().rev().cloned().collect::<Vec<_>>());
        let shuffled_adds = by_adds(&shuffled);
        let bulk = Relation::from_tuples(schema(), shuffled.clone(), Merge::Sum).unwrap();
        // Churn: junk rows go in between the real ones and come out again.
        let mut churned: Rel = Relation::empty(schema());
        let junk_keys: Vec<_> = junk
            .iter()
            .map(|(i, _)| key(*i))
            .filter(|t| !model.contains_key(t))
            .collect();
        junk_keys.iter().for_each(|t| churned.add(t.clone(), IntZ(1)).unwrap());
        shuffled.iter().for_each(|(t, k)| churned.add(t.clone(), *k).unwrap());
        junk_keys.iter().for_each(|t| { churned.remove(t); });

        let want = render(&model);
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
    }

    #[test]
    fn bulk_rules_are_loops_of_the_row_rules(raw in arb_raw(0..900)) {
        // Additive ≡ a loop of `add`.
        let bulk = Relation::from_tuples(schema(), rows(&raw), Merge::Sum).unwrap();
        let mut looped: Rel = Relation::empty(schema());
        rows(&raw).for_each(|(t, k)| looped.add(t, k).unwrap());
        prop_assert_eq!(&bulk, &looped);
        // First-wins ≡ a loop of `insert_distinct`: zeros skipped, then the
        // first arrival stays.
        let first = Relation::from_tuples(schema(), rows(&raw), Merge::First).unwrap();
        let mut model = Model::new();
        for (t, k) in rows(&raw).filter(|(_, k)| !k.is_zero()) {
            model.entry(t).or_insert(k);
        }
        prop_assert!(first.iter().eq(model.iter()));
        prop_assert_eq!(first.to_string(), render(&model));
    }
}
