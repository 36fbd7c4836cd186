//! # aggprov-engine
//!
//! A small SQL front-end over provenance-annotated databases with
//! aggregation: lexer, recursive-descent parser, and an executor that maps
//! queries onto the `(M, K)`-relational operators of `aggprov-core`.
//!
//! The surface language covers the paper's query classes end to end:
//!
//! ```text
//! CREATE TABLE r (emp TEXT, dept TEXT, sal NUM);
//! INSERT INTO r VALUES ('e1', 'd1', 20) PROVENANCE p1;
//! SELECT dept, SUM(sal) AS total FROM r GROUP BY dept;          -- §3.3
//! SELECT dept, SUM(sal) AS total FROM r GROUP BY dept
//!     HAVING total = 20;                                        -- §4
//! SELECT dept FROM r EXCEPT SELECT dept FROM closed;            -- §5
//! ```
//!
//! The database is generic over the annotation semiring: [`ProvDb`] tracks
//! symbolic aggregate provenance (`ℕ[X]^M`); instantiations at `ℕ`, `B`,
//! `Security`, `SN`, … run the same queries under bag, set, or
//! security semantics directly.
//!
//! ## The prepared-statement pipeline
//!
//! Queries run through a three-stage pipeline:
//!
//! 1. [`Database::prepare`] parses and **lowers** the SQL to a logical-plan
//!    IR ([`plan::Plan`]): name resolution, schema computation and
//!    validation happen exactly once;
//! 2. [`Prepared::execute`] / [`Prepared::execute_with`] interpret the
//!    plan (re-executable, with `$n` parameters);
//! 3. the resulting [`ResultSet`] is interrogated fluently —
//!    [`ResultSet::valuate`], [`ResultSet::delete_tokens`],
//!    [`ResultSet::clearance`], [`ResultSet::collapse`], by-name rows.
//!
//! [`Database::query`] remains as the one-shot convenience wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod annot;
pub mod ast;
pub mod database;
pub mod exec;
pub mod lexer;
pub mod opt;
pub mod parser;
pub mod plan;
pub mod result;

pub use annot::ParseAnnotation;
pub use database::view::MaintenanceStrategy;
pub use database::{Database, DbSnapshot, Prepared, SnapPrepared, DEFAULT_PLAN_CACHE_CAPACITY};
pub use plan::Plan;
pub use result::{ResultSet, Row};

/// Constants, re-exported for `Prepared::execute_with` parameter lists.
pub use aggprov_algebra::domain::Const;

/// Execution options (worker-thread count, `AGGPROV_THREADS`), re-exported
/// for `Prepared::execute_with_opts`.
pub use aggprov_core::par::ExecOptions;

/// A database tracking full aggregate provenance (`ℕ[X]^M` annotations).
pub type ProvDb = Database<aggprov_core::Prov>;

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_algebra::hom::Valuation;
    use aggprov_algebra::poly::NatPoly;
    use aggprov_algebra::semiring::{Nat, Security};
    use aggprov_core::eval::{collapse, map_hom_mk};
    use aggprov_core::{Km, Value};
    use aggprov_krel::error::RelError;

    fn figure_1_db() -> ProvDb {
        let mut db = ProvDb::new();
        db.exec(
            "CREATE TABLE r (emp NUM, dept TEXT, sal NUM);
             INSERT INTO r VALUES (1, 'd1', 20) PROVENANCE p1;
             INSERT INTO r VALUES (2, 'd1', 10) PROVENANCE p2;
             INSERT INTO r VALUES (3, 'd1', 15) PROVENANCE p3;
             INSERT INTO r VALUES (4, 'd2', 10) PROVENANCE r1;
             INSERT INTO r VALUES (5, 'd2', 15) PROVENANCE r2;",
        )
        .unwrap();
        db
    }

    #[test]
    fn figure_1_projection() {
        let db = figure_1_db();
        let out = db.query("SELECT dept FROM r").unwrap();
        assert_eq!(out.len(), 2);
        let d1 = out.annotation(&aggprov_krel::relation::Tuple::from([Value::str("d1")]));
        assert_eq!(d1.try_collapse().unwrap().to_string(), "p1 + p2 + p3");
    }

    #[test]
    fn group_by_sum_produces_tensors() {
        let db = figure_1_db();
        let out = db
            .query("SELECT dept, SUM(sal) AS mass FROM r GROUP BY dept")
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().to_string(), "dept, mass");
        let rows: Vec<String> = out.iter().map(|(t, k)| format!("{t} @ {k}")).collect();
        assert!(
            rows[0].contains("(p2)⊗10 + (p3)⊗15 + (p1)⊗20"),
            "{}",
            rows[0]
        );
        assert!(rows[0].contains("δ(p1 + p2 + p3)"), "{}", rows[0]);
    }

    #[test]
    fn where_join_and_qualified_columns() {
        let mut db = figure_1_db();
        db.exec(
            "CREATE TABLE heads (dept TEXT, head TEXT);
             INSERT INTO heads VALUES ('d1', 'alice') PROVENANCE h1;",
        )
        .unwrap();
        let out = db
            .query(
                "SELECT r.emp, heads.head FROM r JOIN heads ON r.dept = heads.dept \
                 WHERE r.sal >= 15",
            )
            .unwrap();
        // d1 employees with sal ≥ 15: emp 1 (20) and emp 3 (15).
        assert_eq!(out.len(), 2);
        for (_, k) in out.iter() {
            assert!(k.to_string().contains("h1"));
        }
    }

    #[test]
    fn having_keeps_symbolic_tokens() {
        let db = figure_1_db();
        let out = db
            .query("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept HAVING total = 25")
            .unwrap();
        // Both groups survive symbolically with equality tokens.
        assert_eq!(out.len(), 2);
        // Valuate everything to 1: d1 = 45, d2 = 25 → only d2 survives.
        let resolved = collapse(&map_hom_mk(&out, &|p: &NatPoly| {
            Valuation::<Nat>::ones().eval(p)
        }))
        .unwrap();
        assert_eq!(resolved.len(), 1);
        let (t, _) = resolved.iter().next().unwrap();
        assert_eq!(t.get(0), &Value::str("d2"));
        assert_eq!(t.get(1), &Value::int(25));
    }

    #[test]
    fn count_and_avg() {
        // Over a bag database AVG resolves on the spot.
        let mut db: Database<Nat> = Database::new();
        db.exec(
            "CREATE TABLE r (sal NUM);
             INSERT INTO r VALUES (20) PROVENANCE 2;
             INSERT INTO r VALUES (30);",
        )
        .unwrap();
        let out = db
            .query("SELECT COUNT(*) AS n, AVG(sal) AS mean FROM r")
            .unwrap();
        let (t, _) = out.iter().next().unwrap();
        assert_eq!(t.get(0), &Value::int(3));
        assert_eq!(
            t.get(1),
            &Value::Const(aggprov_algebra::domain::Const::Num(
                aggprov_algebra::num::Num::ratio(70, 3)
            ))
        );

        // Over symbolic provenance AVG cannot resolve: the engine says so
        // and points at SUM/COUNT (paper footnote 6). COUNT alone is fine —
        // it stays a symbolic tensor over the tokens.
        let db = figure_1_db();
        let err = db.query("SELECT AVG(sal) AS mean FROM r").unwrap_err();
        assert!(err.to_string().contains("AVG"));
        let out = db.query("SELECT COUNT(*) AS n FROM r").unwrap();
        let resolved = collapse(&map_hom_mk(&out, &|p: &NatPoly| {
            Valuation::<Nat>::ones().eval(p)
        }))
        .unwrap();
        let (t, _) = resolved.iter().next().unwrap();
        assert_eq!(t.get(0), &Value::int(5));
    }

    #[test]
    fn having_with_order_comparison() {
        // The paper's comparison-predicate extension: HAVING total > 25
        // produces symbolic order tokens that resolve under valuations.
        let db = figure_1_db();
        let out = db
            .query("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept HAVING total > 25")
            .unwrap();
        assert_eq!(out.len(), 2, "both groups kept symbolically");
        // All tokens present: d1 = 45 > 25 kept, d2 = 25 not (> is strict).
        let resolved = collapse(&map_hom_mk(&out, &|p: &NatPoly| {
            Valuation::<Nat>::ones().eval(p)
        }))
        .unwrap();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved.iter().next().unwrap().0.get(0), &Value::str("d1"));

        // Deleting p1 (d1 drops to 25): nothing survives the strict >.
        let resolved = collapse(&map_hom_mk(&out, &|p: &NatPoly| {
            Valuation::<Nat>::ones().set("p1", Nat(0)).eval(p)
        }))
        .unwrap();
        assert_eq!(resolved.len(), 0);

        // >= keeps both under the all-ones valuation.
        let out = db
            .query("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept HAVING total >= 25")
            .unwrap();
        let resolved = collapse(&map_hom_mk(&out, &|p: &NatPoly| {
            Valuation::<Nat>::ones().eval(p)
        }))
        .unwrap();
        assert_eq!(resolved.len(), 2);
    }

    #[test]
    fn where_with_ne_on_symbolic_registered_table() {
        // <> over symbolic aggregates also stays symbolic.
        let db = figure_1_db();
        let grouped = db
            .query("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept HAVING total <> 25")
            .unwrap();
        assert_eq!(grouped.len(), 2);
        let resolved = collapse(&map_hom_mk(&grouped, &|p: &NatPoly| {
            Valuation::<Nat>::ones().eval(p)
        }))
        .unwrap();
        assert_eq!(resolved.len(), 1, "d2 = 25 filtered out");
    }

    #[test]
    fn union_and_except() {
        let mut db = ProvDb::new();
        db.exec(
            "CREATE TABLE a (x NUM); CREATE TABLE b (x NUM);
             INSERT INTO a VALUES (1) PROVENANCE t1;
             INSERT INTO a VALUES (2) PROVENANCE t2;
             INSERT INTO b VALUES (2) PROVENANCE t3;",
        )
        .unwrap();
        let u = db.query("SELECT x FROM a UNION SELECT x FROM b").unwrap();
        assert_eq!(u.len(), 2);
        let d = db.query("SELECT x FROM a EXCEPT SELECT x FROM b").unwrap();
        assert_eq!(d.len(), 2, "x = 2 is kept with a symbolic guard");
        // Valuating t3 ↦ 1 removes x = 2.
        let resolved = collapse(&map_hom_mk(&d, &|p: &NatPoly| {
            Valuation::<Nat>::ones().eval(p)
        }))
        .unwrap();
        assert_eq!(resolved.len(), 1);
    }

    #[test]
    fn bag_database_matches_sql_semantics() {
        let mut db: Database<Nat> = Database::new();
        db.exec(
            "CREATE TABLE r (dept TEXT, sal NUM);
             INSERT INTO r VALUES ('d1', 20) PROVENANCE 2;
             INSERT INTO r VALUES ('d1', 10);
             INSERT INTO r VALUES ('d2', 5) PROVENANCE 3;",
        )
        .unwrap();
        let out = db
            .query("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept")
            .unwrap();
        let rows: Vec<String> = out.iter().map(|(t, _)| t.to_string()).collect();
        assert_eq!(rows, vec!["('d1', 50)", "('d2', 15)"]);
    }

    #[test]
    fn security_database() {
        let mut db: Database<Km<Security>> = Database::new();
        db.exec(
            "CREATE TABLE r (sal NUM);
             INSERT INTO r VALUES (20) PROVENANCE S;
             INSERT INTO r VALUES (10) PROVENANCE PUBLIC;
             INSERT INTO r VALUES (30) PROVENANCE S;",
        )
        .unwrap();
        let out = db.query("SELECT MAX(sal) AS top FROM r").unwrap();
        let (t, _) = out.iter().next().unwrap();
        // Example 3.5's aggregate stays symbolic until credentials arrive.
        assert!(t.get(0).is_agg());
        // A user with credentials S sees 30.
        let view = map_hom_mk(&out, &|s: &Security| {
            if s.visible_to(Security::Secret) {
                Security::Public
            } else {
                Security::Never
            }
        });
        let (t, _) = view.iter().next().unwrap();
        assert_eq!(t.get(0), &Value::int(30));
    }

    #[test]
    fn subquery_in_from_runs_example_4_5_in_sql() {
        // Example 4.5 entirely in SQL: sum the salaries of the groups whose
        // summed salary equals 20.
        let mut db = ProvDb::new();
        db.exec(
            "CREATE TABLE r (dept TEXT, sal NUM);
             INSERT INTO r VALUES ('d1', 20) PROVENANCE r1;
             INSERT INTO r VALUES ('d1', 10) PROVENANCE r2;
             INSERT INTO r VALUES ('d2', 10) PROVENANCE r3;",
        )
        .unwrap();
        let out = db
            .query(
                "SELECT SUM(s) AS total FROM                  (SELECT dept, SUM(sal) AS s FROM r GROUP BY dept HAVING s = 20) g",
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        // h(r1)=1, h(r2)=0, h(r3)=2: both groups sum to 20 → total 40.
        let resolve = |r1: u64, r2: u64, r3: u64| {
            let val = Valuation::<Nat>::ones()
                .set("r1", Nat(r1))
                .set("r2", Nat(r2))
                .set("r3", Nat(r3));
            let plain = collapse(&map_hom_mk(&out, &|p: &NatPoly| val.eval(p))).unwrap();
            let value = plain.iter().next().unwrap().0.get(0).clone();
            value
        };
        assert_eq!(resolve(1, 0, 2), Value::int(40));
        // r2 ↦ 1 flips d1 out non-monotonically: total 20.
        assert_eq!(resolve(1, 1, 2), Value::int(20));
        // Subqueries also nest in joins and set operations.
        let nested = db
            .query(
                "SELECT g.dept FROM                  (SELECT dept, SUM(sal) AS s FROM r GROUP BY dept) g                  WHERE g.s = 30",
            )
            .unwrap();
        assert_eq!(nested.len(), 2, "symbolic filter keeps both candidates");
    }

    #[test]
    fn errors() {
        let mut db = ProvDb::new();
        db.exec("CREATE TABLE t (a NUM)").unwrap();
        assert!(db.exec("CREATE TABLE t (b NUM)").is_err());
        assert!(db.exec("INSERT INTO t VALUES ('str')").is_err());
        assert!(db.exec("INSERT INTO missing VALUES (1)").is_err());
        assert!(db.query("SELECT b FROM t").is_err());
        assert!(db.query("SELECT a FROM t HAVING a = 1").is_err());
        assert!(
            db.query("SELECT a, SUM(a) FROM t").is_err(),
            "a not grouped"
        );
        assert!(db.exec("DROP TABLE t").is_ok());
        assert!(db.query("SELECT a FROM t").is_err());
    }

    #[test]
    fn a_failed_insert_keeps_the_epoch() {
        // A registered table declares no column types: arity is all there
        // is to check, and it must be checked before anything is copied,
        // stamped or re-versioned.
        let mut db = ProvDb::new();
        let rel = aggprov_krel::relation::Relation::from_rows(
            aggprov_krel::schema::Schema::new(["a", "b"]).unwrap(),
            [(
                vec![Value::int(1), Value::int(2)],
                Km::embed(NatPoly::token("p1")),
            )],
        )
        .unwrap();
        db.register("t", rel);
        let before = db.prepare("SELECT a FROM t").unwrap().plan() as *const Plan;
        let epoch = db.epoch();
        let err = db.exec("INSERT INTO t VALUES (1)").unwrap_err();
        assert!(matches!(err, RelError::ArityMismatch { .. }), "{err:?}");
        assert_eq!(db.epoch(), epoch);
        // The table kept its version, so the cached plan is still served.
        let after = db.prepare("SELECT a FROM t").unwrap().plan() as *const Plan;
        assert!(std::ptr::eq(before, after));
    }

    #[test]
    fn a_failed_drop_keeps_the_epoch() {
        let mut db = figure_1_db();
        let epoch = db.epoch();
        let err = db.exec("DROP TABLE missing").unwrap_err();
        assert!(matches!(err, RelError::UnknownAttr(_)), "{err:?}");
        assert_eq!(db.epoch(), epoch);
    }

    #[test]
    fn hostile_depth_is_a_typed_error_not_a_stack_overflow() {
        // Each statement is a few hundred KB of valid SQL; unbounded
        // recursion (parser, lowering, `Drop`) overflowed the stack of a
        // server connection thread (2 MiB) and aborted the process.
        let check = || {
            let mut db = ProvDb::new();
            db.exec("CREATE TABLE r (a NUM); INSERT INTO r VALUES (1) PROVENANCE p1;")
                .unwrap();
            let nested = |levels: usize| {
                (0..levels).fold("SELECT a FROM r".to_string(), |q, i| {
                    format!("SELECT a FROM ({q}) t{i}")
                })
            };
            let tables: Vec<String> = (0..20_000).map(|i| format!("r t{i}")).collect();
            let hostile = [
                (nested(5_000), "SELECT blocks"),
                (
                    vec!["SELECT a FROM r"; 20_000].join(" UNION "),
                    "SELECT blocks",
                ),
                (
                    format!(
                        "SELECT a FROM r WHERE {}",
                        vec!["a = 1"; 20_000].join(" AND ")
                    ),
                    "deeper than 512 operators",
                ),
                (
                    format!("SELECT t0.a FROM {}", tables.join(", ")),
                    "deeper than 512 operators",
                ),
            ];
            for (sql, limit) in &hostile {
                let err = db.prepare(sql).expect_err("hostile depth must not prepare");
                assert!(
                    matches!(err, RelError::Parse { .. } | RelError::Unsupported(_)),
                    "{err:?}"
                );
                assert!(err.to_string().contains(limit), "{err}");
                assert!(db.exec(sql).is_err());
            }
            // Ordinary depth is untouched.
            let ok = format!(
                "{} UNION SELECT a FROM r WHERE {}",
                nested(8),
                vec!["a = 1"; 16].join(" AND ")
            );
            assert_eq!(db.query(&ok).unwrap().len(), 1);
            // The deepest conjunction `lower_query` accepts (one conjunct
            // more is refused) prepares and executes: the executor runs
            // the stacked filters in one frame.
            let deepest = format!(
                "SELECT a FROM r WHERE {}",
                vec!["a = 1"; plan::MAX_PLAN_DEPTH - 3].join(" AND ")
            );
            assert_eq!(db.query(&deepest).unwrap().len(), 1);
            let literal = db.prepare_unoptimized(&deepest).unwrap();
            assert_eq!(literal.execute().unwrap().len(), 1);
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(check)
            .unwrap()
            .join()
            .unwrap();
    }
}
