//! A small blocking client for the wire protocol, used by the REPL's
//! `\connect` mode, the `e2e` benchmark, the smoke binary and the
//! integration tests.

use crate::json::Json;
use crate::op::Op;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected protocol client. One request in flight at a time.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: i64,
}

/// A client-side protocol failure: transport errors, or a well-formed
/// `{"ok":false}` response (the server-reported message is carried).
#[derive(Debug)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError(format!("i/o: {e}"))
    }
}

/// Client-call result.
pub type Result<T> = std::result::Result<T, ClientError>;

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            next_id: 1,
        })
    }

    /// Sends one request object (an `id` is added) and reads the
    /// response. Error responses (`"ok": false`) become `Err`, so callers
    /// can `?` their way through a protocol script.
    pub fn request(&mut self, mut req: Json) -> Result<Json> {
        let id = self.next_id;
        self.next_id += 1;
        if let Json::Obj(map) = &mut req {
            map.insert("id".into(), Json::Int(id));
        }
        req.write_line(&mut self.writer)?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError("server closed the connection".into()));
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        let response =
            Json::parse(line.trim()).map_err(|e| ClientError(format!("bad response: {e}")))?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(response)
        } else {
            let message = response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown server error");
            Err(ClientError(message.to_string()))
        }
    }

    /// Sends `op` with `fields`: every typed method below goes through here.
    fn call(
        &mut self,
        op: Op,
        fields: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> Result<Json> {
        let op = std::iter::once(("op", Json::str(op.name())));
        self.request(Json::obj(op.chain(fields)))
    }

    /// `ping`, returning the session's pinned epoch.
    pub fn ping(&mut self) -> Result<i64> {
        let r = self.call(Op::Ping, [])?;
        Ok(r.get("epoch").and_then(Json::as_int).unwrap_or(0))
    }

    /// Runs a SQL script on the live database (the write path).
    pub fn sql(&mut self, script: &str) -> Result<Json> {
        self.call(Op::Sql, [("sql", Json::str(script))])
    }

    /// Re-pins the session snapshot to the newest epoch.
    pub fn refresh(&mut self) -> Result<Json> {
        self.call(Op::Refresh, [])
    }

    /// One-shot query against the pinned snapshot.
    pub fn query(&mut self, sql: &str) -> Result<Json> {
        self.call(Op::Query, [("sql", Json::str(sql))])
    }

    /// Prepares a statement, returning its handle.
    pub fn prepare(&mut self, sql: &str) -> Result<i64> {
        let r = self.call(Op::Prepare, [("sql", Json::str(sql))])?;
        r.get("stmt")
            .and_then(Json::as_int)
            .ok_or_else(|| ClientError("prepare: no stmt handle in response".into()))
    }

    /// Executes a prepared statement with positional args.
    pub fn execute(&mut self, stmt: i64, args: Vec<Json>) -> Result<Json> {
        self.call(
            Op::Execute,
            [("stmt", Json::Int(stmt)), ("args", Json::Arr(args))],
        )
    }

    /// Lists the snapshot's tables.
    pub fn tables(&mut self) -> Result<Vec<String>> {
        self.call(Op::Tables, []).map(|r| names(&r, "tables"))
    }

    /// Materializes a view on the live database, returning the server's
    /// chosen maintenance strategy (`"incremental"` or `"recompute"`).
    pub fn materialize(&mut self, name: &str, sql: &str) -> Result<String> {
        let r = self.call(
            Op::Materialize,
            [("name", Json::str(name)), ("sql", Json::str(sql))],
        )?;
        Ok(r.get("strategy")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string())
    }

    /// Reads a maintained view from the pinned snapshot.
    pub fn view(&mut self, name: &str) -> Result<Json> {
        self.call(Op::View, [("name", Json::str(name))])
    }

    /// Lists the snapshot's materialized views.
    pub fn views(&mut self) -> Result<Vec<String>> {
        self.call(Op::Views, []).map(|r| names(&r, "views"))
    }

    /// Drops a materialized view on the live database.
    pub fn drop_view(&mut self, name: &str) -> Result<Json> {
        self.call(Op::DropView, [("name", Json::str(name))])
    }

    /// Database-level deletion propagation: zeroes the tokens in every
    /// base table and maintains every materialized view.
    pub fn db_delete_tokens(&mut self, tokens: &[&str]) -> Result<Json> {
        self.call(Op::DbDeleteTokens, [("tokens", strs(tokens))])
    }

    /// Valuates a stored result: `bindings` maps provenance tokens to
    /// naturals (unbound tokens take `default`, or 1 when `None`).
    pub fn valuate(
        &mut self,
        result: i64,
        bindings: &[(&str, i64)],
        default: Option<i64>,
    ) -> Result<Json> {
        let bindings = bindings
            .iter()
            .map(|(t, v)| (t.to_string(), Json::Int(*v)))
            .collect();
        let fields = [
            ("result", Json::Int(result)),
            ("bindings", Json::Obj(bindings)),
        ];
        let default = default.map(|d| ("default", Json::Int(d)));
        self.call(Op::Valuate, fields.into_iter().chain(default))
    }

    /// Deletion propagation on a stored result: zeroes the given tokens,
    /// keeps the rest symbolic. `store` parks the shrunken result under
    /// a fresh handle.
    pub fn delete_tokens(&mut self, result: i64, tokens: &[&str], store: bool) -> Result<Json> {
        self.call(
            Op::DeleteTokens,
            [
                ("result", Json::Int(result)),
                ("tokens", strs(tokens)),
                ("store", Json::Bool(store)),
            ],
        )
    }

    /// Security reading of a stored result (paper Example 3.5): `levels`
    /// maps tokens to clearance levels, `cred` is the principal's
    /// credential.
    pub fn clearance(&mut self, result: i64, cred: &str, levels: &[(&str, &str)]) -> Result<Json> {
        let levels = levels
            .iter()
            .map(|(t, l)| (t.to_string(), Json::str(*l)))
            .collect();
        self.call(
            Op::Clearance,
            [
                ("result", Json::Int(result)),
                ("cred", Json::str(cred)),
                ("levels", Json::Obj(levels)),
            ],
        )
    }

    /// Releases a stored result handle.
    pub fn close_result(&mut self, result: i64) -> Result<Json> {
        self.call(Op::Close, [("result", Json::Int(result))])
    }

    /// Releases a prepared-statement handle.
    pub fn close_stmt(&mut self, stmt: i64) -> Result<Json> {
        self.call(Op::Close, [("stmt", Json::Int(stmt))])
    }

    /// Says goodbye: the server acknowledges and closes this connection.
    pub fn bye(&mut self) -> Result<()> {
        self.call(Op::Bye, []).map(drop)
    }

    /// Asks the server to stop (drains and exits).
    pub fn shutdown(&mut self) -> Result<()> {
        self.call(Op::Shutdown, []).map(drop)
    }
}

/// A JSON array of strings.
fn strs(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|t| Json::str(*t)).collect())
}

/// The string items of the array field `field` of a reply.
fn names(reply: &Json, field: &str) -> Vec<String> {
    reply
        .get(field)
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|t| t.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}
