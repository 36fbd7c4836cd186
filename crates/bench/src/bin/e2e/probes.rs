//! The traced pass's per-layer probes: each times calls into one layer's
//! public functions, from outside, on the inputs of the op being replayed.
//!
//! Times are recorded as spans (the metric is the median over the
//! replayed ops); exact counts and per-unit figures go into the outcome's
//! samples. A workload probes the layers its op calls — the wire
//! workloads the server around the request, every workload that executes
//! a statement the engine under three semirings and the `krel`/`core`
//! kernels of that statement's plan — and leaves the others' metrics
//! absent.

use crate::trace::Tracer;
use crate::workloads::{err, Outcome};
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::monoid::MonoidKind;
use aggprov_algebra::poly::NatPoly;
use aggprov_algebra::semiring::{Bool, CommutativeSemiring, Nat};
use aggprov_core::eval::map_mk;
use aggprov_core::ops::batch::{hash_join, BatchCmp, BatchOperand, Chunk};
use aggprov_core::ops::{self, AggSpec};
use aggprov_core::{AggAnnotation, Atom, ExecOptions, MKRel, Prov, Value};
use aggprov_engine::{Const, Database, ParseAnnotation, ProvDb, ResultSet};
use aggprov_krel::batch::GroundBatch;
use aggprov_server::{Client, Json, Server, Session};
use std::collections::BTreeSet;
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------
// server
// ---------------------------------------------------------------------

/// An in-process server on loopback with one connected client and one
/// prepared statement: the wire workloads' system under test.
pub struct Wire {
    client: Client,
    stmt: i64,
    serve: JoinHandle<std::io::Result<()>>,
}

impl Wire {
    /// Binds, serves on a thread, connects and prepares `sql`.
    pub fn start(db: ProvDb, sql: &str) -> Result<Wire, String> {
        let server = Server::bind_with("127.0.0.1:0", db).map_err(err)?;
        let addr = server.local_addr().map_err(err)?;
        let serve = std::thread::spawn(move || server.serve());
        let mut client = Client::connect(addr).map_err(err)?;
        let stmt = client.prepare(sql).map_err(err)?;
        Ok(Wire {
            client,
            stmt,
            serve,
        })
    }

    pub fn execute(&mut self, arg: Json) -> Result<Json, String> {
        self.client.execute(self.stmt, vec![arg]).map_err(err)
    }

    pub fn ping(&mut self) -> Result<i64, String> {
        self.client.ping().map_err(err)
    }

    /// Stops the server and waits for its threads.
    pub fn stop(mut self) -> Result<(), String> {
        self.client.shutdown().map_err(err)?;
        match self.serve.join() {
            Ok(served) => served.map_err(err),
            Err(_) => Err("the server thread panicked".into()),
        }
    }
}

/// The server layer without a socket: a `Session` over the same data,
/// fed the request lines the client would send.
pub struct Offline {
    session: Session,
    stmt: i64,
}

impl Offline {
    pub fn open(db: ProvDb, sql: &str) -> Result<Offline, String> {
        let mut session = Session::new(Arc::new(RwLock::new(db)));
        let request = Json::obj([("op", Json::str("prepare")), ("sql", Json::str(sql))]);
        let (reply, _) = session.handle_line(&request.to_string());
        let stmt = reply
            .get("stmt")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("offline prepare failed: {reply}"))?;
        Ok(Offline { session, stmt })
    }

    /// `server.session`, `server.json_encode` and `server.json_parse` on
    /// the request `Client::execute(stmt, [arg])` sends.
    pub fn probe(&mut self, arg: Json, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        let line = Json::obj([
            ("id", Json::Int(1)),
            ("op", Json::str("execute")),
            ("stmt", Json::Int(self.stmt)),
            ("args", Json::Arr(vec![arg])),
        ])
        .to_string();
        let (reply, _) = t.span("server.session", || self.session.handle_line(&line));
        let text = t.span("server.json_encode", || reply.to_string());
        let parsed = t.span("server.json_parse", || Json::parse(&text))?;
        out.sample("server.resp_bytes", text.len() as f64);
        match parsed.get("rows") {
            Some(_) => Ok(()),
            None => Err(format!("offline execute failed: {text}")),
        }
    }
}

// ---------------------------------------------------------------------
// engine front end
// ---------------------------------------------------------------------

/// Front-end probes repeat this many times (the statement text is the
/// same for every op, so they run once per run, not once per op).
const FRONT_END_REPS: usize = 20;

/// Lexing, parsing, optimizing and preparing `sql`, [`FRONT_END_REPS`]
/// times each.
/// A prepare miss needs a plan cache without the statement: each one runs
/// on a clone of the database whose one-entry cache holds another
/// statement (a clone starts with the original's entries).
pub fn front_end(db: &ProvDb, sql: &str, t: &mut Tracer) -> Result<(), String> {
    for _ in 0..FRONT_END_REPS {
        t.span("engine.lex", || aggprov_engine::lexer::lex(sql))
            .map_err(err)?;
        let query = t
            .span("engine.parse", || aggprov_engine::parser::parse_query(sql))
            .map_err(err)?;
        let lowered = aggprov_engine::plan::lower_query(db, &query).map_err(err)?;
        let catalog = aggprov_engine::opt::Catalog::of_plan(db, &lowered.plan);
        t.span("engine.optimize", || {
            aggprov_engine::opt::optimize(&lowered.plan, &catalog)
        });
        let cold = db.clone();
        cold.set_plan_cache_capacity(1);
        cold.prepare("SELECT emp FROM emp").map_err(err)?;
        t.span("engine.prepare_miss", || cold.prepare(sql).map(|_| ()))
            .map_err(err)?;
        t.span("engine.prepare_hit", || cold.prepare(sql).map(|_| ()))
            .map_err(err)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// engine execution, the provenance-overhead arm, interrogation
// ---------------------------------------------------------------------

/// The same tables under another semiring, through the all-ones
/// valuation (every source tuple present once).
fn mapped<B>(db: &ProvDb, tables: &[&str], h: &impl Fn(&Prov) -> B) -> Result<Database<B>, String>
where
    B: AggAnnotation + ParseAnnotation,
{
    let mut out = Database::new();
    for name in tables {
        out.register(name, map_mk(db.table(name).map_err(err)?, h));
    }
    Ok(out)
}

/// One statement on the workload's data under `ℕ[X]`, `ℕ` and `𝔹`.
pub struct Engine {
    db: ProvDb,
    nat: Database<Nat>,
    boolean: Database<Bool>,
    sql: String,
}

impl Engine {
    pub fn new(db: &ProvDb, tables: &[&str], sql: &str) -> Result<Engine, String> {
        let ones = Valuation::<Nat>::ones();
        let present = Valuation::<Bool>::ones();
        Ok(Engine {
            db: db.clone(),
            nat: mapped(db, tables, &|k: &Prov| {
                k.map_hom(&|p| ones.eval(p))
                    .try_collapse()
                    .unwrap_or(Nat(1))
            })?,
            boolean: mapped(db, tables, &|k: &Prov| {
                k.map_hom(&|p| present.eval(p))
                    .try_collapse()
                    .unwrap_or(Bool(true))
            })?,
            sql: sql.to_string(),
        })
    }

    /// Executes under every semiring, renders, and interrogates the
    /// `ℕ[X]` result; returns it for the algebra probes.
    pub fn probe(
        &self,
        params: &[Const],
        t: &mut Tracer,
        out: &mut Outcome,
    ) -> Result<ResultSet<Prov>, String> {
        let stmt = self.db.prepare(&self.sql).map_err(err)?;
        let result = t
            .span("engine.execute", || stmt.execute_with(params))
            .map_err(err)?;
        t.span("engine.execute_t1", || {
            stmt.execute_with_opts(params, &ExecOptions::serial())
        })
        .map_err(err)?;
        let nat = self.nat.prepare(&self.sql).map_err(err)?;
        t.span("engine.execute_nat", || nat.execute_with(params))
            .map_err(err)?;
        // A statement a semiring cannot run (SUM has no meaning over 𝔹)
        // is reported with the engine's own words, not dropped.
        let under_bool = self
            .boolean
            .prepare(&self.sql)
            .and_then(|b| t.span("engine.execute_bool", || b.execute_with(params)));
        if let Err(e) = under_bool {
            out.not_available
                .insert("engine.execute_bool_ms", e.to_string());
        }
        let rendered = t.span("engine.render", || result.to_string());
        std::hint::black_box(rendered);
        out.sample("engine.result_rows", result.len() as f64);
        let tokens = first_tokens(&harvest(&result), 50);
        t.span("engine.delete_tokens", || result.delete_tokens(&tokens));
        t.span("engine.valuate", || {
            result.valuate(&Valuation::<Nat>::ones())
        });
        Ok(result)
    }
}

// ---------------------------------------------------------------------
// krel and core
// ---------------------------------------------------------------------

/// How a statement's plan reads its input, for the replay with `core`'s
/// public kernels: scan `scan`, filter column `pred.0` against the op's
/// literal, then join with `join`'s table or group by `dept`, as the plan
/// does.
pub struct Replay {
    pub scan: MKRel<Prov>,
    /// Filtered column, comparison, and whether the literal is the left
    /// operand (`col > lit` runs as `lit < col`).
    pub pred: (usize, BatchCmp, bool),
    /// The joined table and the key columns, `scan`'s then the table's.
    pub join: Option<(MKRel<Prov>, (usize, usize))>,
    /// Output columns: positions in the joined table's columns followed
    /// by `scan`'s when the plan joins, in `scan`'s alone when it does not.
    pub project: Vec<usize>,
    /// Whether the plan ends in `GROUP BY dept` with `SUM(sal)`.
    pub group: bool,
}

impl Replay {
    /// The statement's plan step by step under `core.replay`, then
    /// `krel`'s conversions of the scanned table.
    pub fn probe(&self, lit: &Const, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        let opts = ExecOptions::from_env().map_err(err)?;
        let mut count = |name, n: usize| out.sample(name, n as f64);
        t.enter("core.replay");
        let mut flow = t.span("core.chunk_from_relation", || {
            Chunk::from_relation(&self.scan)
        });
        let (col, cmp, lit_left) = self.pred;
        let (col, lit) = (BatchOperand::Col(col), BatchOperand::Lit(lit.clone()));
        let (left, right) = if lit_left { (&lit, &col) } else { (&col, &lit) };
        t.span("core.filter", || flow.filter(left, cmp, right, &opts))
            .map_err(err)?;
        count("core.selected_rows", flow.ground_len());
        if let Some((other, on)) = &self.join {
            // As the optimizer orders it at these cardinalities: the small
            // table converted to columns and probing, the filtered scan on
            // the build side.
            let schema = other.schema().concat(self.scan.schema()).map_err(err)?;
            flow = t
                .span("core.hash_join", || {
                    let probe = Chunk::from_relation(other);
                    hash_join(probe, flow, &[(on.1, on.0)], schema, &opts)
                })
                .map_err(err)?;
        }
        let names: Vec<&str> = self
            .project
            .iter()
            .filter_map(|i| flow.schema().attrs().get(*i).map(|a| a.name()))
            .collect();
        let projected = flow.schema().project(&names).map_err(err)?;
        let flow = flow.project(&self.project, projected).map_err(err)?;
        let rel = t
            .span("core.chunk_into_relation", || flow.into_relation())
            .map_err(err)?;
        if self.group {
            let sum = AggSpec {
                kind: MonoidKind::Sum,
                attr: "sal",
                out: "mass",
            };
            t.span("core.group_by", || {
                ops::group_by_opts(&rel, &["dept"], &[sum], &opts)
            })
            .map_err(err)?;
        }
        t.exit();

        let batch = t.span("krel.ground_batch", || {
            GroundBatch::from_relation(&self.scan, Value::as_const)
        });
        count("core.ground_rows", batch.ground().len());
        count("core.fringe_rows", batch.fringe().len());
        let schema = self.scan.schema().clone();
        t.span("krel.into_relation", || {
            batch.into_relation(schema, Value::Const)
        })
        .map_err(err)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// algebra
// ---------------------------------------------------------------------

/// Every `ℕ[X]` polynomial inside an annotation: the embedded one, and
/// those under `δ(…)` and inside comparison tokens' tensors.
fn polys_of(k: &Prov, pool: &mut Vec<NatPoly>) {
    for (monomial, coeff) in k.as_poly().terms() {
        pool.push(coeff.clone());
        for (atom, _) in monomial.iter() {
            match atom {
                Atom::Delta(e) => polys_of(e, pool),
                Atom::Eq((_, a), (_, b)) | Atom::Cmp(_, (_, a), (_, b)) => {
                    for (c, _) in a.terms().chain(b.terms()) {
                        polys_of(c, pool);
                    }
                }
            }
        }
    }
}

fn harvest(result: &ResultSet<Prov>) -> Vec<NatPoly> {
    let mut pool = Vec::new();
    for (tuple, annotation) in result.iter() {
        polys_of(annotation, &mut pool);
        for value in tuple.values() {
            if let Value::Agg(_, tensor) = value {
                for (c, _) in tensor.terms() {
                    polys_of(c, &mut pool);
                }
            }
        }
    }
    pool
}

/// The first `n` distinct tokens of a result's polynomials, in row order.
fn first_tokens(pool: &[NatPoly], n: usize) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut tokens = Vec::new();
    for p in pool {
        for v in p.vars() {
            if tokens.len() < n && seen.insert(v.name().to_string()) {
                tokens.push(v.name().to_string());
            }
        }
    }
    tokens
}

/// Polynomial pairs [`algebra`] adds and multiplies per op.
const ARITHMETIC_PAIRS: usize = 256;

/// Polynomial arithmetic on the annotations of an op's result, and the
/// provenance-size counts.
pub fn algebra(result: &ResultSet<Prov>, t: &mut Tracer, out: &mut Outcome) {
    let pool = harvest(result);
    let mut sample = |name, v: f64| out.sample(name, v);
    // Neighbouring pairs, not a running sum: a sum over the whole pool
    // would time ever-larger operands instead of the result's own.
    let pairs = pool.len().saturating_sub(1).min(ARITHMETIC_PAIRS);
    if pairs > 0 {
        let before = t.spans.len();
        t.span("algebra.poly_add", || {
            for w in pool.windows(2).take(pairs) {
                std::hint::black_box(w[0].plus(&w[1]));
            }
        });
        sample(
            "algebra.poly_add_ns",
            t.spans[before].ns() as f64 / pairs as f64,
        );
        let before = t.spans.len();
        t.span("algebra.poly_mul", || {
            for w in pool.windows(2).take(pairs) {
                std::hint::black_box(w[0].times(&w[1]));
            }
        });
        sample(
            "algebra.poly_mul_ns",
            t.spans[before].ns() as f64 / pairs as f64,
        );
    }
    let fired: BTreeSet<String> = first_tokens(&pool, 50).into_iter().collect();
    t.span("algebra.drop_vars", || {
        for p in &pool {
            std::hint::black_box(p.drop_vars(&mut |v| fired.contains(v.name())));
        }
    });

    let terms: Vec<usize> = pool.iter().map(NatPoly::num_terms).collect();
    let tokens: BTreeSet<&str> = pool
        .iter()
        .flat_map(|p| p.vars())
        .map(|v| v.name())
        .collect();
    let rows = result.len().max(1) as f64;
    sample("algebra.polys", pool.len() as f64);
    sample(
        "algebra.terms_mean",
        terms.iter().sum::<usize>() as f64 / pool.len().max(1) as f64,
    );
    sample(
        "algebra.terms_max",
        terms.iter().copied().max().unwrap_or(0) as f64,
    );
    sample(
        "algebra.degree_max",
        pool.iter().map(NatPoly::degree).max().unwrap_or(0) as f64,
    );
    sample("algebra.distinct_tokens", tokens.len() as f64);
    sample(
        "algebra.size_mean",
        result.iter().map(|(_, k)| k.size()).sum::<usize>() as f64 / rows,
    );
    sample(
        "algebra.annotation_bytes_mean",
        result
            .iter()
            .map(|(_, k)| k.to_string().len())
            .sum::<usize>() as f64
            / rows,
    );
}

// ---------------------------------------------------------------------
// the bundle of a workload whose op executes a statement
// ---------------------------------------------------------------------

/// The per-op probes below the server: the engine under three semirings,
/// the `krel`/`core` replay of the statement's plan, and the algebra on
/// the result's annotations.
pub struct Layers {
    engine: Engine,
    replay: Replay,
}

impl Layers {
    pub fn new(db: &ProvDb, sql: &str, replay: Replay) -> Result<Layers, String> {
        Ok(Layers {
            engine: Engine::new(db, &["emp", "dim"], sql)?,
            replay,
        })
    }

    pub fn probe(&self, lit: &Const, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        let result = self.engine.probe(std::slice::from_ref(lit), t, out)?;
        self.replay.probe(lit, t, out)?;
        algebra(&result, t, out);
        Ok(())
    }
}
