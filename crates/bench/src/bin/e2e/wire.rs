//! `wire_point` and `wire_report`: one `Client` against an in-process
//! `Server` on loopback, SQL text in, wire bytes out.
//!
//! Both run on the same tables and differ only in the statement: a point
//! filter returning about 1 KB, where the fixed per-request cost of the
//! server layer is nearly everything, and a grouped report returning
//! 20–30 KB of tensors, `δ(…)` and comparison tokens, where JSON and
//! annotation rendering take over.

use crate::gen;
use crate::oracle;
use crate::probes::{self, Layers, Offline, Replay, Wire};
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workloads::{self, err, Cfg, Ops, Outcome, Spec};
use aggprov_core::km::CmpPred;
use aggprov_core::ops::batch::BatchCmp;
use aggprov_core::{MKRel, Prov, Value};
use aggprov_engine::{Const, ProvDb};
use aggprov_server::Json;

const EMP_ROWS: usize = 10_000;
const DEPTS: usize = 500;
const POINT_PARAMS: usize = 40;
const POINT_SQL: &str = "SELECT sal FROM emp WHERE dept = $1";
const REPORT_SQL: &str = "SELECT dept, SUM(sal) AS mass FROM emp WHERE dept < $1 \
                          GROUP BY dept HAVING mass > 400";
const REPORT_HAVING: i64 = 400;
/// 25–37 departments of ~20 employees render to the 20–30 KB the
/// workload is meant to return. (The issue's `40..=60` renders to
/// 33–49 KB, and since `Json::parse` is quadratic that is ~0.55 s per op:
/// too few ops in a run for a steady percentile.)
const REPORT_LO: i64 = 25;
const REPORT_HI: i64 = 37;
const CANARY_ROWS: usize = 400;
const CANARY_DEPTS: i64 = 20;

#[derive(Clone, Copy, PartialEq)]
pub enum Statement {
    Point,
    Report,
}

impl Statement {
    fn sql(self) -> &'static str {
        match self {
            Statement::Point => POINT_SQL,
            Statement::Report => REPORT_SQL,
        }
    }

    /// The `$1` rotation: distinct seeded departments for the point
    /// query, the whole `25..=37` range in seeded order for the report.
    fn params(self, cfg: &Cfg, depts: usize) -> Vec<i64> {
        match self {
            Statement::Point => gen::permutation(cfg.seed, "point_params", depts)
                .into_iter()
                .take(POINT_PARAMS)
                .map(|d| d as i64)
                .collect(),
            Statement::Report => gen::rotation(cfg.seed, "report_params", REPORT_LO, REPORT_HI),
        }
    }

    fn spec(self, emp: &MKRel<Prov>, p: i64) -> Result<MKRel<Prov>, String> {
        match self {
            Statement::Point => oracle::spec_point(emp, &Value::int(p)),
            Statement::Report => oracle::spec_report(emp, p, REPORT_HAVING),
        }
    }

    fn replay(self, emp: &MKRel<Prov>) -> Replay {
        let (cmp, project, group) = match self {
            Statement::Point => (BatchCmp::Eq, vec![2], false),
            Statement::Report => (BatchCmp::Pred(CmpPred::Lt), vec![1, 2], true),
        };
        Replay {
            scan: emp.clone(),
            pred: (1, cmp, false),
            join: None,
            project,
            group,
        }
    }
}

/// Engine ≡ `specops` on a 400-row instance of the same tables.
fn canary(cfg: &Cfg, statement: Statement) -> Result<(), String> {
    let db = gen::int_database(cfg.seed, CANARY_ROWS, CANARY_DEPTS as usize);
    let emp = db.table("emp").map_err(err)?;
    let stmt = db.prepare(statement.sql()).map_err(err)?;
    for p in [3, CANARY_DEPTS / 2, CANARY_DEPTS - 1] {
        let got = stmt.execute_with(&[Const::int(p)]).map_err(err)?;
        oracle::identical("canary", got.relation(), &statement.spec(emp, p)?)?;
    }
    Ok(())
}

struct WireOps {
    wire: Wire,
    /// The served tables (an `Arc` bump), for the probes.
    db: ProvDb,
    statement: Statement,
    params: Vec<i64>,
    /// `expected[k]`: the rendered-rows digest and row count op `i` must
    /// return, `k = i mod params`.
    expected: Vec<(u64, i64)>,
    /// The traced replay's probes: the server layer without the socket,
    /// and the layers below it.
    probes: Option<(Offline, Layers)>,
}

impl Ops for WireOps {
    type Reply = Json;

    fn cycle(&self) -> usize {
        self.params.len()
    }

    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<Json, String> {
        let p = self.params[i % self.params.len()];
        t.span("server.roundtrip", || self.wire.execute(Json::Int(p)))
    }

    fn check(&mut self, i: usize, reply: &Json) -> Result<(), String> {
        let (digest, rows) = self.expected[i % self.expected.len()];
        if oracle::rendered_wire(reply) != Some(digest)
            || reply.get("count").and_then(Json::as_int) != Some(rows)
        {
            return Err(format!(
                "op {i}: the reply's rows differ from the expected result"
            ));
        }
        Ok(())
    }

    fn start_probes(&mut self) -> Result<(), String> {
        let sql = self.statement.sql();
        let replay = self.statement.replay(self.db.table("emp").map_err(err)?);
        self.probes = Some((
            Offline::open(self.db.clone(), sql)?,
            Layers::new(&self.db, sql, replay)?,
        ));
        Ok(())
    }

    fn probe(&mut self, i: usize, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        let p = self.params[i % self.params.len()];
        t.span("server.ping", || self.wire.ping())?;
        if let Some((offline, layers)) = &mut self.probes {
            offline.probe(Json::Int(p), t, out)?;
            layers.probe(&Const::int(p), t, out)?;
        }
        Ok(())
    }

    fn probe_once(&mut self, t: &mut Tracer) -> Result<(), String> {
        probes::front_end(&self.db, self.statement.sql(), t)
    }
}

pub fn run(cfg: &Cfg, spec: &Spec, statement: Statement) -> Result<Outcome, String> {
    canary(cfg, statement)?;
    let (rows, depts) = (cfg.rows(EMP_ROWS), cfg.rows(DEPTS));
    // Set-up as a user pays it: generate and register the tables, bind,
    // connect, prepare. A copy of the database (an `Arc` bump) stays
    // behind for the expected results.
    let ((wire, db), setup_s) = workloads::setups(
        cfg,
        || {
            let db = gen::int_database(cfg.seed, rows, depts);
            let wire = Wire::start(db.clone(), statement.sql())?;
            Ok((wire, db))
        },
        |(wire, _)| {
            let _ = wire.stop();
        },
    )?;

    let params = statement.params(cfg, depts);
    let mut digest = Digest::new();
    let mut expected = Vec::with_capacity(params.len());
    for p in &params {
        let rel = oracle::expected(&db, statement.sql(), &[Const::int(*p)])?;
        let rendered = oracle::rendered(&rel);
        digest.bytes(&rendered.to_le_bytes());
        expected.push((rendered, rel.len() as i64));
    }

    let mut ops = WireOps {
        wire,
        db,
        statement,
        params,
        expected,
        probes: None,
    };
    let mut out = Outcome {
        setup_s,
        digest: digest.hex(),
        ..Outcome::default()
    };
    workloads::run_pass(&mut ops, cfg, spec, &mut out)?;
    ops.wire.stop()?;
    Ok(out)
}
