//! `embed_scan_join` and `embed_agg_prov`: the engine called in-process
//! through `Prepared::execute_with`, no server anywhere.
//!
//! `embed_scan_join` reads 100 000 ground rows to return a few thousand:
//! the `Relation`→`Chunk` conversion and the typed filter/join kernels do
//! the work and polynomial arithmetic is one multiply per output row.
//! `embed_agg_prov` is the paper's query class — tensor sums, `δ`,
//! comparison tokens — followed by deletion propagation on the result, so
//! polynomial and tensor arithmetic and `group_by` dominate.

use crate::gen;
use crate::oracle;
use crate::probes::{self, Layers, Replay};
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workloads::{self, err, Cfg, Ops, Outcome, Spec};
use aggprov_core::km::CmpPred;
use aggprov_core::ops::batch::BatchCmp;
use aggprov_core::{MKRel, Prov};
use aggprov_engine::{Const, Prepared, ProvDb, ResultSet};

const DEPTS: usize = 500;
const CANARY_ROWS: usize = 400;
const CANARY_DEPTS: usize = 20;

const JOIN_ROWS: usize = 100_000;
const JOIN_SQL: &str = "SELECT e.emp, d.region FROM emp e JOIN dim d ON e.dept = d.dept2 \
                        WHERE e.sal < $1";
const JOIN_LO: i64 = 15;
const JOIN_HI: i64 = 27;

const AGG_ROWS: usize = 5_000;
const AGG_SQL: &str = "SELECT dept, SUM(sal) AS mass FROM emp WHERE sal > $1 \
                       GROUP BY dept HAVING mass > 2000";
const AGG_HAVING: i64 = 2000;
const AGG_LO: i64 = 10;
const AGG_HI: i64 = 14;
/// Token sets `delete_tokens` rotates over, and tokens per set.
const AGG_TOKEN_SETS: usize = 4;
const AGG_TOKENS: usize = 50;

/// Set-up as an embedding program pays it: generate and register the
/// tables and prepare the statement (a plan-cache miss each time).
fn setup(cfg: &Cfg, rows: usize, depts: usize, sql: &str) -> Result<(ProvDb, Vec<f64>), String> {
    workloads::setups(
        cfg,
        || {
            let db = gen::int_database(cfg.seed, rows, depts);
            db.prepare(sql).map_err(err)?;
            Ok(db)
        },
        drop,
    )
}

// ---------------------------------------------------------------------
// embed_scan_join
// ---------------------------------------------------------------------

struct ScanJoin<'db> {
    db: &'db ProvDb,
    stmt: Prepared<'db, Prov>,
    params: Vec<i64>,
    /// `expected[k]`: the rendered-rows digest of the result for
    /// `params[k]`.
    expected: Vec<u64>,
    layers: Option<Layers>,
}

impl Ops for ScanJoin<'_> {
    type Reply = ResultSet<Prov>;

    fn cycle(&self) -> usize {
        self.params.len()
    }

    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<Self::Reply, String> {
        let p = Const::int(self.params[i % self.params.len()]);
        t.span("engine.execute", || self.stmt.execute_with(&[p]))
            .map_err(err)
    }

    fn check(&mut self, i: usize, reply: &Self::Reply) -> Result<(), String> {
        if oracle::rendered(reply.relation()) != self.expected[i % self.expected.len()] {
            return Err(format!(
                "op {i}: the result differs from the expected result"
            ));
        }
        Ok(())
    }

    fn start_probes(&mut self) -> Result<(), String> {
        let replay = Replay {
            scan: self.db.table("emp").map_err(err)?.clone(),
            pred: (2, BatchCmp::Pred(CmpPred::Lt), false),
            join: Some((self.db.table("dim").map_err(err)?.clone(), (1, 0))),
            project: vec![2, 1],
            group: false,
        };
        self.layers = Some(Layers::new(self.db, JOIN_SQL, replay)?);
        Ok(())
    }

    fn probe(&mut self, i: usize, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        let p = Const::int(self.params[i % self.params.len()]);
        self.layers
            .as_ref()
            .map_or(Ok(()), |layers| layers.probe(&p, t, out))
    }

    fn probe_once(&mut self, t: &mut Tracer) -> Result<(), String> {
        probes::front_end(self.db, JOIN_SQL, t)
    }
}

pub fn scan_join(cfg: &Cfg, spec: &Spec) -> Result<Outcome, String> {
    {
        let db = gen::int_database(cfg.seed, CANARY_ROWS, CANARY_DEPTS);
        let (emp, dim) = (db.table("emp").map_err(err)?, db.table("dim").map_err(err)?);
        let stmt = db.prepare(JOIN_SQL).map_err(err)?;
        for p in [JOIN_LO, JOIN_HI, 100] {
            let got = stmt.execute_with(&[Const::int(p)]).map_err(err)?;
            let want = oracle::spec_scan_join(emp, dim, p)?;
            oracle::identical("canary", got.relation(), &want)?;
        }
    }
    let (rows, depts) = (cfg.rows(JOIN_ROWS), cfg.rows(DEPTS));
    let (db, setup_s) = setup(cfg, rows, depts, JOIN_SQL)?;
    let params = gen::rotation(cfg.seed, "scan_join_params", JOIN_LO, JOIN_HI);
    let mut digest = Digest::new();
    let mut expected = Vec::with_capacity(params.len());
    for p in &params {
        let rendered = oracle::rendered(&oracle::expected(&db, JOIN_SQL, &[Const::int(*p)])?);
        digest.bytes(&rendered.to_le_bytes());
        expected.push(rendered);
    }
    let mut ops = ScanJoin {
        db: &db,
        stmt: db.prepare(JOIN_SQL).map_err(err)?,
        layers: None,
        params,
        expected,
    };
    let mut out = Outcome {
        setup_s,
        digest: digest.hex(),
        ..Outcome::default()
    };
    workloads::run_pass(&mut ops, cfg, spec, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// embed_agg_prov
// ---------------------------------------------------------------------

struct AggProv<'db> {
    db: &'db ProvDb,
    stmt: Prepared<'db, Prov>,
    params: Vec<i64>,
    tokens: Vec<Vec<String>>,
    /// `expected[p]`: the rendered-rows digest of the query result for
    /// parameter `p`.
    expected: Vec<u64>,
    /// `after[p][s]`: that of the result after firing token set `s`,
    /// computed by the other route — the query run on a database the
    /// tokens were deleted from (deletion propagation commutes with the
    /// query).
    after: Vec<Vec<u64>>,
    layers: Option<Layers>,
}

impl Ops for AggProv<'_> {
    type Reply = (ResultSet<Prov>, ResultSet<Prov>);

    /// Parameters and token sets rotate independently; their counts are
    /// coprime, so every pairing comes up once per cycle.
    fn cycle(&self) -> usize {
        self.params.len() * self.tokens.len()
    }

    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<Self::Reply, String> {
        let p = Const::int(self.params[i % self.params.len()]);
        let tokens = &self.tokens[i % self.tokens.len()];
        let result = t
            .span("engine.execute", || self.stmt.execute_with(&[p]))
            .map_err(err)?;
        let after = t.span("engine.delete_tokens", || result.delete_tokens(tokens));
        Ok((result, after))
    }

    fn check(&mut self, i: usize, (result, after): &Self::Reply) -> Result<(), String> {
        let (p, s) = (i % self.params.len(), i % self.tokens.len());
        if oracle::rendered(result.relation()) != self.expected[p] {
            return Err(format!(
                "op {i}: the result differs from the expected result"
            ));
        }
        if oracle::rendered(after.relation()) != self.after[p][s] {
            return Err(format!(
                "op {i}: delete_tokens differs from the query over the deleted database"
            ));
        }
        Ok(())
    }

    fn start_probes(&mut self) -> Result<(), String> {
        let replay = Replay {
            scan: self.db.table("emp").map_err(err)?.clone(),
            pred: (2, BatchCmp::Pred(CmpPred::Lt), true),
            join: None,
            project: vec![1, 2],
            group: true,
        };
        self.layers = Some(Layers::new(self.db, AGG_SQL, replay)?);
        Ok(())
    }

    fn probe(&mut self, i: usize, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        let p = Const::int(self.params[i % self.params.len()]);
        self.layers
            .as_ref()
            .map_or(Ok(()), |layers| layers.probe(&p, t, out))
    }

    fn probe_once(&mut self, t: &mut Tracer) -> Result<(), String> {
        probes::front_end(self.db, AGG_SQL, t)
    }
}

/// `expected` on a copy of `db` that `tokens` were deleted from.
fn expected_after(db: &ProvDb, tokens: &[String], p: i64) -> Result<MKRel<Prov>, String> {
    let mut deleted = db.clone();
    deleted.delete_tokens(tokens).map_err(err)?;
    oracle::expected(&deleted, AGG_SQL, &[Const::int(p)])
}

pub fn agg_prov(cfg: &Cfg, spec: &Spec) -> Result<Outcome, String> {
    {
        let db = gen::int_database(cfg.seed, CANARY_ROWS, CANARY_DEPTS);
        let stmt = db.prepare(AGG_SQL).map_err(err)?;
        let tokens = gen::token_sets(cfg.seed, "agg_canary", "p", CANARY_ROWS, 1, AGG_TOKENS);
        for p in [AGG_LO, AGG_HI, 100] {
            let got = stmt.execute_with(&[Const::int(p)]).map_err(err)?;
            let emp = db.table("emp").map_err(err)?;
            oracle::identical(
                "canary",
                got.relation(),
                &oracle::spec_agg(emp, p, AGG_HAVING)?,
            )?;
            let mut deleted = db.clone();
            deleted.delete_tokens(&tokens[0]).map_err(err)?;
            let want = oracle::spec_agg(deleted.table("emp").map_err(err)?, p, AGG_HAVING)?;
            let got = got.delete_tokens(&tokens[0]);
            oracle::identical("canary delete_tokens", got.relation(), &want)?;
        }
    }
    let (rows, depts) = (cfg.rows(AGG_ROWS), cfg.rows(DEPTS));
    let (db, setup_s) = setup(cfg, rows, depts, AGG_SQL)?;
    let params = gen::rotation(cfg.seed, "agg_params", AGG_LO, AGG_HI);
    let tokens = gen::token_sets(
        cfg.seed,
        "agg_tokens",
        "p",
        rows,
        AGG_TOKEN_SETS,
        AGG_TOKENS,
    );
    let mut digest = Digest::new();
    let (mut expected, mut after) = (Vec::new(), Vec::new());
    for p in &params {
        expected.push(oracle::rendered(&oracle::expected(
            &db,
            AGG_SQL,
            &[Const::int(*p)],
        )?));
        let mut per_set = Vec::with_capacity(tokens.len());
        for set in &tokens {
            per_set.push(oracle::rendered(&expected_after(&db, set, *p)?));
        }
        for rendered in expected.last().into_iter().chain(&per_set) {
            digest.bytes(&rendered.to_le_bytes());
        }
        after.push(per_set);
    }
    let mut ops = AggProv {
        db: &db,
        stmt: db.prepare(AGG_SQL).map_err(err)?,
        layers: None,
        params,
        tokens,
        expected,
        after,
    };
    let mut out = Outcome {
        setup_s,
        digest: digest.hex(),
        ..Outcome::default()
    };
    workloads::run_pass(&mut ops, cfg, spec, &mut out)?;
    Ok(out)
}
