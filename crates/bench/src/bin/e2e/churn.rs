//! `embed_churn`: writes beside reads. Two materialized views over the
//! organisation tables are kept current while single-row inserts and
//! batches of token deletions arrive, and a reader pins each new epoch.
//!
//! One op is eight `INSERT … PROVENANCE c<i>` through `Database::exec`,
//! one `Database::delete_tokens` batch of 50 base tokens, a read of both
//! views, and a `snapshot()`. The snapshot stays pinned until the next op
//! replaces it, as a session pinned to the latest epoch would hold it, so
//! every op's first mutation pays the epoch's copy-on-write.

use crate::gen::{self, ChurnOp};
use crate::oracle;
use crate::probes;
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workloads::{self, err, Cfg, Ops, Outcome, Spec};
use aggprov_core::Prov;
use aggprov_engine::{DbSnapshot, MaintenanceStrategy, ProvDb};

const DEPTS: usize = 100;
const PER_DEPT: usize = 200;
const INSERTS: usize = 8;
const DELETES: usize = 50;
const LOW_PAID_BELOW: i64 = 21;
const MASS_SQL: &str = "SELECT dept, SUM(sal) AS mass FROM emp GROUP BY dept";
const LOW_PAID_SQL: &str = "SELECT e.emp, d.region FROM emp e JOIN dept d ON e.dept = d.dept \
                            WHERE e.sal < 21";
const VIEWS: [(&str, &str); 2] = [("mass", MASS_SQL), ("low_paid", LOW_PAID_SQL)];
/// Ops between restores of the post-warm-up database. Deletions outrun
/// insertions (50 against 8 rows an op), so an op gets cheaper as the run
/// goes on; replaying a short cycle keeps the table within 3 % of its
/// size, every slice of a run under the same load, and the load the same
/// however many ops a run fits in.
const CYCLE: usize = 14;
const CANARY_DEPTS: usize = 4;
const CANARY_PER_DEPT: usize = 50;
const CANARY_OPS: usize = 3;

fn database(
    seed: u64,
    depts: usize,
    per_dept: usize,
) -> Result<(ProvDb, Vec<(usize, i64)>), String> {
    let org = gen::org(seed, depts, per_dept);
    let mut db = ProvDb::new();
    db.register("emp", org.emp);
    db.register("dept", org.dept);
    for (name, sql) in VIEWS {
        db.materialize(name, sql).map_err(err)?;
    }
    Ok((db, org.rows))
}

/// One op's statements, rendered before timing.
struct Rendered {
    inserts: Vec<String>,
    tokens: Vec<String>,
}

fn render(stream: &[ChurnOp]) -> Vec<Rendered> {
    stream
        .iter()
        .enumerate()
        .map(|(i, op)| Rendered {
            inserts: op
                .inserts
                .iter()
                .enumerate()
                .map(|(j, (dept, sal))| {
                    let n = i * INSERTS + j;
                    format!(
                        "INSERT INTO emp VALUES ({}, 'd{dept}', {sal}) PROVENANCE c{n}",
                        1_000_000 + n
                    )
                })
                .collect(),
            tokens: op.deletes.iter().map(|e| format!("e{e}")).collect(),
        })
        .collect()
}

/// The reference model: after each op of the stream, how many rows each
/// view must hold — `mass` one per department with a live employee,
/// `low_paid` one per live employee paid under the bound.
fn model(rows: &[(usize, i64)], depts: usize, stream: &[ChurnOp]) -> Vec<(usize, usize)> {
    let mut live = vec![0usize; depts];
    for (d, _) in rows {
        live[*d] += 1;
    }
    let mut low = rows.iter().filter(|(_, s)| *s < LOW_PAID_BELOW).count();
    stream
        .iter()
        .map(|op| {
            for (d, sal) in &op.inserts {
                live[*d] += 1;
                low += usize::from(*sal < LOW_PAID_BELOW);
            }
            for e in &op.deletes {
                let (d, sal) = rows[*e];
                live[d] -= 1;
                low -= usize::from(sal < LOW_PAID_BELOW);
            }
            (live.iter().filter(|n| **n > 0).count(), low)
        })
        .collect()
}

/// Both views against the statement run from scratch, optimizer off, on
/// one thread.
fn views_match_reexecution(db: &ProvDb) -> Result<(), String> {
    for (name, sql) in VIEWS {
        let fresh = oracle::expected(db, sql, &[])?;
        oracle::identical(name, db.view(name).map_err(err)?, &fresh)?;
    }
    Ok(())
}

struct Churn {
    db: ProvDb,
    /// The database as the first timed op saw it (an `Arc` bump).
    first_timed: Option<ProvDb>,
    pinned: Option<DbSnapshot<Prov>>,
    stream: Vec<Rendered>,
    warmup: usize,
    expected_rows: Vec<(usize, usize)>,
}

impl Ops for Churn {
    /// Rows read from `mass` and from `low_paid`.
    type Reply = (usize, usize);

    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<Self::Reply, String> {
        let op = &self.stream[i];
        let db = &mut self.db;
        for insert in &op.inserts {
            t.span("engine.view_insert", || db.exec(insert))
                .map_err(err)?;
        }
        t.span("engine.view_delete", || db.delete_tokens(&op.tokens))
            .map_err(err)?;
        let mut read = |name| {
            t.span("engine.view_read", || {
                db.view(name).map(|v| v.iter().count())
            })
            .map_err(err)
        };
        let reply = (read("mass")?, read("low_paid")?);
        self.pinned = Some(t.span("engine.snapshot", || db.snapshot()));
        Ok(reply)
    }

    fn check(&mut self, i: usize, reply: &Self::Reply) -> Result<(), String> {
        if *reply != self.expected_rows[i] {
            return Err(format!(
                "op {i}: the views hold {reply:?} rows, the model says {:?}",
                self.expected_rows[i]
            ));
        }
        // Every op is checked against the model's row counts; the last of
        // the cycle, where maintained state has drifted furthest, bit for
        // bit against re-execution.
        if i + 1 == self.stream.len() {
            views_match_reexecution(&self.db).map_err(|e| format!("op {i}: {e}"))?;
        }
        Ok(())
    }

    fn cycle(&self) -> usize {
        self.stream.len() - self.warmup
    }

    fn warmed(&mut self) {
        self.first_timed = Some(self.db.clone());
    }

    fn rewind(&mut self) {
        if let Some(first) = &self.first_timed {
            self.db = first.clone();
            self.pinned = None;
        }
    }

    fn probe(&mut self, i: usize, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        // What maintenance competes with: both view queries from scratch.
        let db = &self.db;
        let fresh = t.span("engine.reexecute", || {
            VIEWS.map(|(_, sql)| db.prepare(sql).and_then(|s| s.execute()))
        });
        for ((name, _), fresh) in VIEWS.iter().zip(fresh) {
            let fresh = fresh.map_err(err)?;
            if db.view(name).map_err(err)? != fresh.relation() {
                return Err(format!("op {i}: view `{name}` differs from re-execution"));
            }
            // The provenance maintenance carries: `mass`'s tensor sums and δ.
            if *name == "mass" {
                probes::algebra(&fresh, t, out);
            }
        }
        Ok(())
    }

    /// The replayed ops are the view-maintenance spans; what is left to
    /// take once is the front end and the materializations set-up pays,
    /// on the base tables without their views.
    fn probe_once(&mut self, t: &mut Tracer) -> Result<(), String> {
        let mut bare = ProvDb::new();
        for table in ["emp", "dept"] {
            bare.register(table, self.db.table(table).map_err(err)?.clone());
        }
        probes::front_end(&bare, MASS_SQL, t)?;
        for (name, sql) in VIEWS {
            t.span("engine.materialize", || bare.materialize(name, sql))
                .map_err(err)?;
        }
        Ok(())
    }
}

/// The maintained views against `specops` compositions over the base
/// tables, and against re-execution, through a short churn stream on a
/// 200-row instance.
fn canary(cfg: &Cfg) -> Result<(), String> {
    let (db, rows) = database(cfg.seed, CANARY_DEPTS, CANARY_PER_DEPT)?;
    let stream = gen::churn(cfg.seed, CANARY_OPS, CANARY_DEPTS, rows.len(), INSERTS, 10);
    let mut churn = Churn {
        db,
        first_timed: None,
        pinned: None,
        expected_rows: model(&rows, CANARY_DEPTS, &stream),
        stream: render(&stream),
        warmup: 0,
    };
    for i in 0..CANARY_OPS {
        let reply = churn.op(i, &mut Tracer::off())?;
        churn.check(i, &reply)?;
        views_match_reexecution(&churn.db)?;
        let (emp, dept) = (
            churn.db.table("emp").map_err(err)?,
            churn.db.table("dept").map_err(err)?,
        );
        let mass = churn.db.view("mass").map_err(err)?;
        oracle::identical("canary mass", mass, &oracle::spec_mass(emp)?)?;
        let low = churn.db.view("low_paid").map_err(err)?;
        let want = oracle::spec_low_paid(emp, dept, LOW_PAID_BELOW)?;
        oracle::identical("canary low_paid", low, &want)?;
    }
    Ok(())
}

pub fn run(cfg: &Cfg, spec: &Spec) -> Result<Outcome, String> {
    canary(cfg)?;
    let (depts, per_dept) = (DEPTS, cfg.rows(PER_DEPT));
    // Set-up: generate and register the tables, materialize both views.
    let ((db, rows), setup_s) =
        workloads::setups(cfg, || database(cfg.seed, depts, per_dept), drop)?;
    for (name, _) in VIEWS {
        if db.view_strategy(name).map_err(err)? != MaintenanceStrategy::Incremental {
            return Err(format!("view `{name}` is not maintained incrementally"));
        }
    }
    views_match_reexecution(&db)?;

    let (warmup, cycle) = (cfg.warmup(spec), CYCLE.min(cfg.ops(spec)));
    let deletes = DELETES.min(rows.len() / (warmup + cycle));
    let stream = gen::churn(
        cfg.seed,
        warmup + cycle,
        depts,
        rows.len(),
        INSERTS,
        deletes,
    );
    let expected_rows = model(&rows, depts, &stream);
    let mut digest = Digest::new();
    for name in ["mass", "low_paid"] {
        digest.text(&db.view(name).map_err(err)?.to_string());
    }
    digest.text(&format!("{stream:?}{expected_rows:?}"));

    let mut churn = Churn {
        db,
        first_timed: None,
        pinned: None,
        stream: render(&stream),
        warmup,
        expected_rows,
    };
    let mut out = Outcome {
        setup_s,
        digest: digest.hex(),
        ..Outcome::default()
    };
    workloads::run_pass(&mut churn, cfg, spec, &mut out)?;
    Ok(out)
}
