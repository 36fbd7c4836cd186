//! Seeded generators: tables, parameter rotations and the churn stream.
//!
//! `--seed` is the only input. Every stream draws from its own generator
//! (seed mixed with the stream's name), so adding a draw to one stream
//! never shifts another, and two runs with one seed see identical tables
//! and identical op sequences. Nothing here depends on
//! `aggprov-workloads` or the older bench fixtures, so changes to those
//! cannot change the load.

use crate::stats::Digest;
use aggprov_algebra::poly::NatPoly;
use aggprov_core::{Km, MKRel, Prov, Value};
use aggprov_engine::ProvDb;
use aggprov_krel::relation::Relation;
use aggprov_krel::schema::Schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salaries are uniform over `SAL_LO..=SAL_HI`; the workloads' `sal`
/// predicates are sized against this range.
pub const SAL_LO: i64 = 10;
pub const SAL_HI: i64 = 199;

/// The generator of one named stream.
pub fn stream(seed: u64, name: &str) -> StdRng {
    let mut d = Digest::new();
    d.text(name);
    StdRng::seed_from_u64(seed ^ d.value())
}

fn token(name: &str) -> Prov {
    Km::embed(NatPoly::token(name))
}

fn schema(names: &[&str]) -> Schema {
    Schema::new(names.iter().copied()).expect("distinct column names")
}

/// `emp(emp, dept, sal)` with integer keys: `rows` ground rows, row `i`
/// annotated with its own token `p<i>`. Which department an employee
/// works in is seeded, how many work in each is not: every department
/// gets `rows / depts` of them (give or take one), so that result sizes —
/// and with them the load — are the same under every seed.
pub fn emp_int(seed: u64, rows: usize, depts: i64) -> MKRel<Prov> {
    let mut rng = stream(seed, "emp_int");
    let seats = permutation(seed, "emp_int_depts", rows);
    let mut rel = Relation::empty(schema(&["emp", "dept", "sal"]));
    for (i, seat) in seats.into_iter().enumerate() {
        let dept = seat as i64 % depts;
        let sal = rng.random_range(SAL_LO..=SAL_HI);
        rel.insert(
            vec![Value::int(i as i64), Value::int(dept), Value::int(sal)],
            token(&format!("p{i}")),
        )
        .expect("arity 3");
    }
    rel
}

/// `dim(dept2, region)`: one row per department, token `d<dept>`.
pub fn dim(depts: i64) -> MKRel<Prov> {
    let mut rel = Relation::empty(schema(&["dept2", "region"]));
    for d in 0..depts {
        rel.insert(
            vec![Value::int(d), Value::int(d % 7)],
            token(&format!("d{d}")),
        )
        .expect("arity 2");
    }
    rel
}

/// A database of the integer-keyed tables, `emp` and `dim`.
pub fn int_database(seed: u64, rows: usize, depts: usize) -> ProvDb {
    let mut db = ProvDb::new();
    db.register("emp", emp_int(seed, rows, depts as i64));
    db.register("dim", dim(depts as i64));
    db
}

/// The organisation tables with string department keys.
pub struct Org {
    /// `emp(emp, dept, sal)`: `depts × per_dept` rows, row `i` annotated
    /// with token `e<i>`.
    pub emp: MKRel<Prov>,
    /// `dept(dept, region)`: one row per department, token `d<dept>`.
    pub dept: MKRel<Prov>,
    /// `(department index, salary)` of employee `i`, for reference models.
    pub rows: Vec<(usize, i64)>,
}

pub fn org(seed: u64, depts: usize, per_dept: usize) -> Org {
    let mut rng = stream(seed, "org");
    let mut emp = Relation::empty(schema(&["emp", "dept", "sal"]));
    let mut dept = Relation::empty(schema(&["dept", "region"]));
    let mut rows = Vec::with_capacity(depts * per_dept);
    for d in 0..depts {
        dept.insert(
            vec![
                Value::str(&format!("d{d}")),
                Value::str(&format!("region{}", d % 4)),
            ],
            token(&format!("d{d}")),
        )
        .expect("arity 2");
        for _ in 0..per_dept {
            let (i, sal) = (rows.len(), rng.random_range(SAL_LO..=SAL_HI));
            emp.insert(
                vec![
                    Value::int(i as i64),
                    Value::str(&format!("d{d}")),
                    Value::int(sal),
                ],
                token(&format!("e{i}")),
            )
            .expect("arity 3");
            rows.push((d, sal));
        }
    }
    Org { emp, dept, rows }
}

/// A seeded permutation of `0..n`.
pub fn permutation(seed: u64, name: &str, n: usize) -> Vec<usize> {
    let mut rng = stream(seed, name);
    let mut items: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
    items
}

/// A parameter rotation: the inclusive range `lo..=hi` in seeded order.
pub fn rotation(seed: u64, name: &str, lo: i64, hi: i64) -> Vec<i64> {
    permutation(seed, name, (hi - lo + 1) as usize)
        .into_iter()
        .map(|i| lo + i as i64)
        .collect()
}

/// `count` sets of `size` distinct token names `<prefix><i>`, `i < universe`,
/// disjoint from one another while the universe lasts.
pub fn token_sets(
    seed: u64,
    name: &str,
    prefix: &str,
    universe: usize,
    count: usize,
    size: usize,
) -> Vec<Vec<String>> {
    permutation(seed, name, universe)
        .chunks(size.max(1))
        .take(count)
        .map(|chunk| chunk.iter().map(|i| format!("{prefix}{i}")).collect())
        .collect()
}

/// One churn op: single-row inserts, then one batch of tokens to fire.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnOp {
    /// `(dept index, salary)` of each inserted row; row `j` of op `i` is
    /// employee `1_000_000 + i·inserts + j` with token `c<i·inserts + j>`.
    pub inserts: Vec<(usize, i64)>,
    /// Indices of base employees whose tokens `e<i>` this op fires.
    pub deletes: Vec<usize>,
}

/// The churn stream over the [`org`] tables: `ops` ops of `inserts`
/// single-row inserts and one batch of `deletes` not-yet-fired base
/// tokens each.
pub fn churn(
    seed: u64,
    ops: usize,
    depts: usize,
    base_rows: usize,
    inserts: usize,
    deletes: usize,
) -> Vec<ChurnOp> {
    let mut rng = stream(seed, "churn_inserts");
    let victims = permutation(seed, "churn_deletes", base_rows);
    (0..ops)
        .map(|i| ChurnOp {
            inserts: (0..inserts)
                .map(|_| {
                    (
                        rng.random_range(0..depts),
                        rng.random_range(SAL_LO..=SAL_HI),
                    )
                })
                .collect(),
            deletes: victims
                .iter()
                .skip(i * deletes)
                .take(deletes)
                .copied()
                .collect(),
        })
        .collect()
}
