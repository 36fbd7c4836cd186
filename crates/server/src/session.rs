//! One client's session: a pinned epoch snapshot, prepared-statement and
//! result handles, and the op dispatcher.
//!
//! Every read op (`prepare`, `execute`, `query`, and the provenance
//! interrogation ops) runs against the session's pinned [`DbSnapshot`] —
//! a frozen epoch the writer can never disturb — so execution takes no
//! lock at all. Only `sql` (the write path) takes the database write
//! lock, and `refresh` briefly takes the read lock to pin the newest
//! epoch. Handles are plain integers scoped to the session; closing the
//! connection drops everything.

use crate::json::Json;
use crate::op::Op;
use aggprov_algebra::domain::Const;
use aggprov_algebra::hom::Valuation;
use aggprov_algebra::semiring::{CommutativeSemiring, Nat, Security};
use aggprov_core::{Prov, Value};
use aggprov_engine::{
    DbSnapshot, MaintenanceStrategy, ParseAnnotation, ProvDb, ResultSet, SnapPrepared,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// What the connection loop should do after a response is sent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// Close this connection (client said goodbye).
    Close,
    /// Stop the whole server (drain, then exit).
    Shutdown,
}

/// Per-session handle budget: statements and stored results each.
/// A session trying to hoard more gets an error, not an OOM.
pub const MAX_HANDLES: usize = 1024;

/// One connected client's state.
pub struct Session {
    db: Arc<RwLock<ProvDb>>,
    snap: DbSnapshot<Prov>,
    stmts: HashMap<i64, (String, SnapPrepared<Prov>)>,
    results: HashMap<i64, ResultSet<Prov>>,
    next_handle: i64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("epoch", &self.snap.epoch())
            .field("stmts", &self.stmts.len())
            .field("results", &self.results.len())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a session, pinning the database's current epoch.
    ///
    /// Lock poisoning is deliberately shrugged off everywhere in this
    /// module: a panicking writer must not brick the server, and every
    /// published epoch is a consistent database (mutations validate
    /// before they publish), so recovering the inner value is safe.
    pub fn new(db: Arc<RwLock<ProvDb>>) -> Session {
        let snap = db.read().unwrap_or_else(PoisonError::into_inner).snapshot();
        Session {
            db,
            snap,
            stmts: HashMap::new(),
            results: HashMap::new(),
            next_handle: 1,
        }
    }

    /// Handles one request line, returning the response and what the
    /// connection should do next. Never panics on bad input: every
    /// failure becomes an `{"ok":false,"error":…}` response so one
    /// misbehaving request can't take the connection (or the process)
    /// down.
    pub fn handle_line(&mut self, line: &str) -> (Json, Control) {
        let req = match Json::parse(line) {
            Ok(req) => req,
            Err(e) => {
                return (
                    error_response(Json::Null, &format!("bad json: {e}")),
                    Control::Continue,
                )
            }
        };
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        let op = match req.get("op").and_then(Json::as_str) {
            Some(name) => Op::parse(name).ok_or_else(|| format!("unknown op {name:?}")),
            None => Err("missing \"op\"".to_string()),
        };
        match op.and_then(|op| self.dispatch(op, &req)) {
            Ok((mut body, control)) => {
                if let Json::Obj(map) = &mut body {
                    map.insert("id".into(), id);
                    map.insert("ok".into(), Json::Bool(true));
                }
                (body, control)
            }
            Err(e) => (error_response(id, &e), Control::Continue),
        }
    }

    /// Runs one op. Every [`Op`] has its own arm: a row added to the op
    /// table does not compile until the session serves it.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn dispatch(&mut self, op: Op, req: &Json) -> Result<(Json, Control), String> {
        let body = match op {
            Op::Ping => Json::obj([("pong", Json::Bool(true)), ("epoch", self.epoch())]),
            Op::Tables => {
                let tables = self.snap.table_names().map(Json::str).collect();
                Json::obj([("tables", Json::Arr(tables)), ("epoch", self.epoch())])
            }
            Op::Views => {
                let views = self.snap.view_names().map(Json::str).collect();
                Json::obj([("views", Json::Arr(views)), ("epoch", self.epoch())])
            }
            Op::Sql => self.op_sql(req)?,
            Op::Materialize => self.op_materialize(req)?,
            Op::View => self.op_view(req)?,
            Op::DropView => self.op_drop_view(req)?,
            Op::DbDeleteTokens => self.op_db_delete_tokens(req)?,
            Op::Refresh => self.op_refresh(),
            Op::Prepare => self.op_prepare(req)?,
            Op::Execute => self.op_execute(req)?,
            Op::Query => self.op_query(req)?,
            Op::Valuate => self.op_valuate(req)?,
            Op::DeleteTokens => self.op_delete_tokens(req)?,
            Op::Clearance => self.op_clearance(req)?,
            Op::Close => self.op_close(req)?,
            Op::Bye => return Ok((Json::obj([]), Control::Close)),
            Op::Shutdown => return Ok((Json::obj([]), Control::Shutdown)),
        };
        Ok((body, Control::Continue))
    }

    /// The pinned epoch, as a reply field.
    fn epoch(&self) -> Json {
        Json::Int(self.snap.epoch() as i64)
    }

    /// The write path: executes a SQL script on the **live** database
    /// under the write lock. The session's snapshot stays pinned — call
    /// `refresh` to observe the new epoch.
    fn op_sql(&mut self, req: &Json) -> Result<Json, String> {
        let script = str_field(req, Op::Sql, "sql")?;
        let mut db = self.db.write().unwrap_or_else(PoisonError::into_inner);
        let out = db.exec(script).map_err(|e| e.to_string())?;
        let mut body = vec![("epoch", Json::Int(db.epoch() as i64))];
        drop(db);
        if let Some(rel) = out {
            let rendered = render_relation_body(&ResultSet::from_relation(rel));
            body.extend(rendered);
        }
        Ok(Json::obj(body))
    }

    /// Materializes a view on the **live** database under the write lock:
    /// the SQL is evaluated once and the annotated result is retained and
    /// delta-maintained from then on. Like `sql`, the session's own
    /// snapshot stays pinned — `refresh` to observe the view.
    fn op_materialize(&mut self, req: &Json) -> Result<Json, String> {
        let name = str_field(req, Op::Materialize, "name")?;
        let sql = str_field(req, Op::Materialize, "sql")?;
        let mut db = self.db.write().unwrap_or_else(PoisonError::into_inner);
        db.materialize(name, sql).map_err(|e| e.to_string())?;
        let strategy = db.view_strategy(name).map_err(|e| e.to_string())?;
        let epoch = db.epoch();
        drop(db);
        Ok(Json::obj([
            ("epoch", Json::Int(epoch as i64)),
            ("strategy", Json::str(strategy_name(strategy))),
        ]))
    }

    /// Reads a maintained view from the session's **pinned snapshot** —
    /// no lock, no re-evaluation; the rows are whatever the view held
    /// when this epoch was published. `"store": true` parks the view's
    /// annotated relation under a result handle so the provenance
    /// interrogation ops (`valuate`, `delete_tokens`, `clearance`) can
    /// run against it.
    fn op_view(&mut self, req: &Json) -> Result<Json, String> {
        let name = str_field(req, Op::View, "name")?;
        let rel = self.snap.view(name).map_err(|e| e.to_string())?.clone();
        let strategy = self.snap.view_strategy(name).map_err(|e| e.to_string())?;
        let out = ResultSet::from_relation(rel);
        let mut body = render_relation_body(&out);
        body.push(("strategy", Json::str(strategy_name(strategy))));
        body.push(("epoch", self.epoch()));
        self.reply_storing(req, body, out)
    }

    /// Drops a materialized view on the live database.
    fn op_drop_view(&mut self, req: &Json) -> Result<Json, String> {
        let name = str_field(req, Op::DropView, "name")?;
        let mut db = self.db.write().unwrap_or_else(PoisonError::into_inner);
        db.drop_view(name).map_err(|e| e.to_string())?;
        let epoch = db.epoch();
        drop(db);
        Ok(Json::obj([("epoch", Json::Int(epoch as i64))]))
    }

    /// Database-level deletion propagation: zeroes the tokens in every
    /// base table and delta-propagates into every materialized view, on
    /// the **live** database under the write lock. (Contrast with
    /// `delete_tokens`, which rewrites one stored result and leaves the
    /// database alone.)
    fn op_db_delete_tokens(&mut self, req: &Json) -> Result<Json, String> {
        let names = token_names(req, Op::DbDeleteTokens)?;
        let mut db = self.db.write().unwrap_or_else(PoisonError::into_inner);
        db.delete_tokens(names).map_err(|e| e.to_string())?;
        let epoch = db.epoch();
        drop(db);
        Ok(Json::obj([("epoch", Json::Int(epoch as i64))]))
    }

    /// Re-pins the session to the newest published epoch and re-prepares
    /// every held statement against it. Statements whose SQL no longer
    /// plans (a dropped table, say) are closed and reported, in ascending
    /// handle order.
    fn op_refresh(&mut self) -> Json {
        self.snap = self
            .db
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot();
        let mut invalidated = Vec::new();
        for (handle, (sql, stmt)) in &mut self.stmts {
            match self.snap.prepare(sql) {
                Ok(fresh) => *stmt = fresh,
                Err(_) => invalidated.push(*handle),
            }
        }
        invalidated.sort_unstable();
        for handle in &invalidated {
            self.stmts.remove(handle);
        }
        Json::obj([
            ("epoch", self.epoch()),
            (
                "invalidated",
                Json::Arr(invalidated.into_iter().map(Json::Int).collect()),
            ),
        ])
    }

    fn op_prepare(&mut self, req: &Json) -> Result<Json, String> {
        let sql = str_field(req, Op::Prepare, "sql")?;
        if self.stmts.len() >= MAX_HANDLES {
            return Err(format!("prepare: session holds {MAX_HANDLES} statements"));
        }
        let stmt = self.snap.prepare(sql).map_err(|e| e.to_string())?;
        let handle = self.next_handle;
        self.next_handle += 1;
        let columns = schema_columns(stmt.schema());
        let body = Json::obj([
            ("stmt", Json::Int(handle)),
            ("params", Json::Int(stmt.param_count() as i64)),
            ("columns", columns),
            ("epoch", Json::Int(stmt.epoch() as i64)),
        ]);
        self.stmts.insert(handle, (sql.to_string(), stmt));
        Ok(body)
    }

    fn op_execute(&mut self, req: &Json) -> Result<Json, String> {
        let handle = req
            .get("stmt")
            .and_then(Json::as_int)
            .ok_or("execute: missing \"stmt\"")?;
        let (_, stmt) = self
            .stmts
            .get(&handle)
            .ok_or_else(|| format!("execute: unknown stmt {handle}"))?;
        let params = parse_params(req.get("args"))?;
        let out = stmt.execute_with(&params).map_err(|e| e.to_string())?;
        self.reply_storing(req, render_relation_body(&out), out)
    }

    /// One-shot prepare + execute against the pinned snapshot, without
    /// taking a statement handle.
    fn op_query(&mut self, req: &Json) -> Result<Json, String> {
        let sql = str_field(req, Op::Query, "sql")?;
        let stmt = self.snap.prepare(sql).map_err(|e| e.to_string())?;
        let params = parse_params(req.get("args"))?;
        let out = stmt.execute_with(&params).map_err(|e| e.to_string())?;
        self.reply_storing(req, render_relation_body(&out), out)
    }

    /// Answers with `body`; `"store": true` additionally parks `out`
    /// under a fresh result handle for later interrogation.
    fn reply_storing(
        &mut self,
        req: &Json,
        mut body: Vec<(&'static str, Json)>,
        out: ResultSet<Prov>,
    ) -> Result<Json, String> {
        if req.get("store").and_then(Json::as_bool) == Some(true) {
            if self.results.len() >= MAX_HANDLES {
                return Err(format!("store: session holds {MAX_HANDLES} results"));
            }
            let handle = self.next_handle;
            self.next_handle += 1;
            self.results.insert(handle, out);
            body.push(("result", Json::Int(handle)));
        }
        Ok(Json::obj(body))
    }

    /// The stored result a request for `op` names.
    fn stored(&self, req: &Json, op: Op) -> Result<&ResultSet<Prov>, String> {
        let op = op.name();
        let handle = req
            .get("result")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("{op}: missing \"result\""))?;
        self.results
            .get(&handle)
            .ok_or_else(|| format!("{op}: unknown result {handle}"))
    }

    /// Token valuation into ℕ (deletion propagation, bag multiplicities):
    /// `bindings` maps token names to naturals, everything else gets
    /// `default` (1 when omitted). This interrogates the **stored**
    /// symbolic result — the query is not re-evaluated.
    fn op_valuate(&mut self, req: &Json) -> Result<Json, String> {
        let out = self.stored(req, Op::Valuate)?;
        let default = match req.get("default") {
            None => Nat(1),
            Some(v) => Nat(nat_binding(v, "default")?),
        };
        let mut val = Valuation::<Nat>::with_default(default);
        if let Some(bindings) = req.get("bindings") {
            let map = bindings
                .as_obj()
                .ok_or("valuate: \"bindings\" must be an object")?;
            for (token, v) in map {
                val = val.set(token.as_str(), Nat(nat_binding(v, token)?));
            }
        }
        let valuated = out.valuate(&val);
        Ok(render_km_result(&valuated))
    }

    /// Deletion propagation: zeroes the given tokens, keeps the rest
    /// symbolic. `"store": true` parks the shrunken (still symbolic)
    /// result under a fresh handle so interrogation can continue.
    fn op_delete_tokens(&mut self, req: &Json) -> Result<Json, String> {
        let out = self.stored(req, Op::DeleteTokens)?;
        let names = token_names(req, Op::DeleteTokens)?;
        let deleted = out.delete_tokens(names);
        self.reply_storing(req, render_relation_body(&deleted), deleted)
    }

    /// Security reading (paper Example 3.5): `levels` maps tokens to
    /// clearance levels (`PUBLIC`/`C`/`S`/`T`/`NEVER`), `cred` is the
    /// principal's credential; tuples and aggregate contributions visible
    /// at that clearance survive, the rest vanish.
    fn op_clearance(&mut self, req: &Json) -> Result<Json, String> {
        let out = self.stored(req, Op::Clearance)?;
        let cred = str_field(req, Op::Clearance, "cred")?;
        let cred = parse_level(cred)?;
        let default = match req.get("default_level").and_then(Json::as_str) {
            None => Security::Public,
            Some(text) => parse_level(text)?,
        };
        let mut val = Valuation::<Security>::with_default(default);
        if let Some(levels) = req.get("levels") {
            let map = levels
                .as_obj()
                .ok_or("clearance: \"levels\" must be an object")?;
            for (token, v) in map {
                let text = v
                    .as_str()
                    .ok_or_else(|| format!("clearance: level for {token:?} must be a string"))?;
                val = val.set(token.as_str(), parse_level(text)?);
            }
        }
        let view = out.valuate(&val).clearance(cred);
        Ok(render_km_result(&view))
    }

    fn op_close(&mut self, req: &Json) -> Result<Json, String> {
        if let Some(handle) = req.get("stmt").and_then(Json::as_int) {
            self.stmts
                .remove(&handle)
                .ok_or_else(|| format!("close: unknown stmt {handle}"))?;
        } else if let Some(handle) = req.get("result").and_then(Json::as_int) {
            self.results
                .remove(&handle)
                .ok_or_else(|| format!("close: unknown result {handle}"))?;
        } else {
            return Err("close: pass \"stmt\" or \"result\"".into());
        }
        Ok(Json::obj([]))
    }
}

/// Wire rendering of a view's maintenance strategy.
///
/// Every `MaintenanceStrategy` variant has its own arm: a new strategy
/// must pick its protocol name.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn strategy_name(strategy: MaintenanceStrategy) -> &'static str {
    match strategy {
        MaintenanceStrategy::Incremental => "incremental",
        MaintenanceStrategy::Recompute => "recompute",
    }
}

/// An `"ok": false` frame.
pub(crate) fn error_response(id: Json, message: &str) -> Json {
    Json::obj([
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
    ])
}

/// The string field `field` of a request for `op`.
fn str_field<'r>(req: &'r Json, op: Op, field: &str) -> Result<&'r str, String> {
    req.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{}: missing {field:?}", op.name()))
}

/// The `tokens` array of a request for `op`, every item a string.
fn token_names(req: &Json, op: Op) -> Result<Vec<&str>, String> {
    let op = op.name();
    let tokens = req
        .get("tokens")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{op}: missing \"tokens\" array"))?;
    tokens
        .iter()
        .map(|t| {
            t.as_str()
                .ok_or_else(|| format!("{op}: tokens must be strings"))
        })
        .collect()
}

fn parse_level(text: &str) -> Result<Security, String> {
    <Security as ParseAnnotation>::parse_annotation(text)
        .ok_or_else(|| format!("unknown security level {text:?}"))
}

fn nat_binding(v: &Json, token: &str) -> Result<u64, String> {
    v.as_int()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| format!("binding for {token:?} must be a non-negative integer"))
}

/// Typed JSON statement parameters → SQL constants.
fn parse_params(args: Option<&Json>) -> Result<Vec<Const>, String> {
    let Some(args) = args else {
        return Ok(Vec::new());
    };
    let items = args.as_arr().ok_or("\"args\" must be an array")?;
    items
        .iter()
        .map(|v| match v {
            Json::Int(n) => Ok(Const::int(*n)),
            Json::Str(s) => Ok(Const::str(s)),
            Json::Bool(b) => Ok(Const::Bool(*b)),
            other => Err(format!("unsupported parameter {other}")),
        })
        .collect()
}

fn schema_columns(schema: &aggprov_krel::schema::Schema) -> Json {
    Json::Arr(schema.attrs().iter().map(|a| Json::str(a.name())).collect())
}

/// Renders a result as response fields: column names, then one
/// `{"values": […], "annotation": "…"}` object per row (support order).
/// Cells and annotations go over the wire in their `Display` form — the
/// same renderings every example and doctest in this repo asserts on.
fn render_relation_body<A>(out: &ResultSet<A>) -> Vec<(&'static str, Json)>
where
    A: CommutativeSemiring + fmt::Display,
    Value<A>: fmt::Display,
{
    let rows: Vec<Json> = out
        .rows()
        .map(|row| {
            let values: Vec<Json> = (0..out.schema().arity())
                .map(|i| Json::str(row.at(i).to_string()))
                .collect();
            let mut obj = BTreeMap::new();
            obj.insert("values".to_string(), Json::Arr(values));
            obj.insert(
                "annotation".to_string(),
                Json::str(row.annotation().to_string()),
            );
            Json::Obj(obj)
        })
        .collect();
    vec![
        ("columns", schema_columns(out.schema())),
        ("count", Json::Int(out.len() as i64)),
        ("rows", Json::Arr(rows)),
    ]
}

/// Renders a valuated `Km<K>` result, collapsing to the base semiring
/// when every symbolic atom has resolved (`"collapsed": true`) and
/// falling back to the symbolic rendering otherwise.
fn render_km_result<K>(out: &ResultSet<aggprov_core::Km<K>>) -> Json
where
    K: CommutativeSemiring + fmt::Display,
    Value<K>: fmt::Display,
    Value<aggprov_core::Km<K>>: fmt::Display,
    aggprov_core::Km<K>: CommutativeSemiring + fmt::Display,
{
    let (mut body, collapsed) = match out.collapse() {
        Ok(collapsed) => (render_relation_body(&collapsed), true),
        Err(_) => (render_relation_body(out), false),
    };
    body.push(("collapsed", Json::Bool(collapsed)));
    Json::obj(body)
}
