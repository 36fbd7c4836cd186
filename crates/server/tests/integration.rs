//! In-process integration tests: a real server on a real socket, real
//! clients on real threads.

use aggprov_engine::ProvDb;
use aggprov_server::{Client, Json, Op, Server};
use std::thread::JoinHandle;

/// Spawns a server on an OS-assigned port over a seeded database,
/// returning its address and the serve-thread handle.
fn spawn_server(seed_sql: &str) -> (String, JoinHandle<()>) {
    let mut db = ProvDb::new();
    if !seed_sql.is_empty() {
        db.exec(seed_sql).expect("seed");
    }
    let server = Server::bind_with("127.0.0.1:0", db).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        server.serve().expect("serve");
    });
    (addr, handle)
}

const SEED: &str = "CREATE TABLE emp (dept TEXT, sal NUM);
    INSERT INTO emp VALUES ('d1', 20) PROVENANCE p1;
    INSERT INTO emp VALUES ('d1', 10) PROVENANCE p2;
    INSERT INTO emp VALUES ('d2', 15) PROVENANCE p3;";

const GROUPED: &str = "SELECT dept, SUM(sal) AS total FROM emp GROUP BY dept";

#[test]
fn multi_client_smoke() {
    let (addr, server) = spawn_server(SEED);

    // Eight concurrent clients: prepare, execute, parameterized execute.
    let mut clients = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr.as_str()).expect("connect");
            c.ping().expect("ping");
            let stmt = c.prepare(GROUPED).expect("prepare");
            let grouped = c.execute(stmt, vec![]).expect("execute");
            assert_eq!(grouped.get("count"), Some(&Json::Int(2)));
            let by_dept = c
                .prepare("SELECT sal FROM emp WHERE dept = $1")
                .expect("prepare param");
            let d1 = c
                .execute(by_dept, vec![Json::str("d1")])
                .expect("execute param");
            assert_eq!(d1.get("count"), Some(&Json::Int(2)));
            let d2 = c
                .execute(by_dept, vec![Json::str("d2")])
                .expect("execute param");
            assert_eq!(d2.get("count"), Some(&Json::Int(1)));
            grouped.get("rows").cloned().expect("rows")
        }));
    }
    let renders: Vec<Json> = clients
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect();
    assert!(
        renders.windows(2).all(|w| w[0] == w[1]),
        "every client must see the identical grouped result"
    );

    let mut admin = Client::connect(addr.as_str()).expect("connect");
    admin.shutdown().expect("shutdown");
    server.join().expect("serve thread");
}

#[test]
fn errors_never_kill_the_connection_or_the_server() {
    let (addr, server) = spawn_server(SEED);
    let mut c = Client::connect(addr.as_str()).expect("connect");

    // Parse error, unknown op, bad SQL, bad handle, bad params: each is
    // an error *response*; the session keeps serving afterwards.
    let (bad_json, _) = raw_roundtrip(&addr, "{not json");
    assert_eq!(bad_json.get("ok"), Some(&Json::Bool(false)));
    assert!(c
        .request(Json::obj([("op", Json::str("frobnicate"))]))
        .is_err());
    assert!(c.sql("SELEKT 1").is_err());
    assert!(c.query("SELECT missing FROM emp").is_err());
    assert!(c.execute(999, vec![]).is_err());
    let stmt = c
        .prepare("SELECT sal FROM emp WHERE dept = $1")
        .expect("prepare");
    assert!(c.execute(stmt, vec![]).is_err(), "missing arg");
    assert!(
        c.execute(stmt, vec![Json::Float(1.5)]).is_err(),
        "unsupported param type"
    );

    // The same session still works.
    let ok = c.execute(stmt, vec![Json::str("d1")]).expect("recovered");
    assert_eq!(ok.get("count"), Some(&Json::Int(2)));

    c.shutdown().expect("shutdown");
    server.join().expect("serve thread");
}

/// Sends one raw line (bypassing the client's JSON encoding) and reads
/// one response line.
fn raw_roundtrip(addr: &str, line: &str) -> (Json, std::net::TcpStream) {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{line}").expect("write");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    (Json::parse(response.trim()).expect("parse"), stream)
}

#[test]
fn sessions_pin_epochs_until_refresh() {
    let (addr, server) = spawn_server(SEED);

    let mut reader = Client::connect(addr.as_str()).expect("connect reader");
    let stmt = reader.prepare(GROUPED).expect("prepare");
    let before = reader.execute(stmt, vec![]).expect("execute");

    // A second connection plays writer and publishes a new epoch.
    let mut writer = Client::connect(addr.as_str()).expect("connect writer");
    writer
        .sql("INSERT INTO emp VALUES ('d3', 99) PROVENANCE p4")
        .expect("insert");

    // The reader's pinned snapshot is bit-identical to before the write.
    let after = reader.execute(stmt, vec![]).expect("execute again");
    assert_eq!(before.get("rows"), after.get("rows"));
    assert_eq!(before.get("epoch"), after.get("epoch"));

    // After refresh, the same statement handle sees the new epoch.
    let refreshed = reader.refresh().expect("refresh");
    assert_eq!(
        refreshed.get("invalidated"),
        Some(&Json::Arr(vec![])),
        "statement re-prepares cleanly"
    );
    let now = reader.execute(stmt, vec![]).expect("execute refreshed");
    assert_eq!(now.get("count"), Some(&Json::Int(3)));

    // DDL that drops a scanned table invalidates the handle on refresh.
    writer.sql("DROP TABLE emp").expect("drop");
    let refreshed = reader.refresh().expect("refresh after drop");
    assert_eq!(
        refreshed.get("invalidated"),
        Some(&Json::Arr(vec![Json::Int(stmt)])),
        "dropped table invalidates the statement"
    );
    assert!(reader.execute(stmt, vec![]).is_err());

    writer.shutdown().expect("shutdown");
    server.join().expect("serve thread");
}

#[test]
fn refresh_reports_invalidated_handles_in_ascending_order() {
    let (addr, server) = spawn_server(SEED);
    let mut c = Client::connect(addr.as_str()).expect("connect");
    c.sql("CREATE TABLE keep (x NUM)").expect("ddl");
    c.refresh().expect("refresh");
    // Sixteen statements, alternating between the table about to go and
    // one that stays.
    let mut doomed = Vec::new();
    for i in 0..16 {
        let table = if i % 2 == 0 { "emp" } else { "keep" };
        let stmt = c
            .prepare(&format!("SELECT * FROM {table} WHERE {i} = {i}"))
            .expect("prepare");
        if table == "emp" {
            doomed.push(Json::Int(stmt));
        }
    }
    c.sql("DROP TABLE emp").expect("drop");
    let refreshed = c.refresh().expect("refresh");
    assert_eq!(refreshed.get("invalidated"), Some(&Json::Arr(doomed)));
    c.shutdown().expect("shutdown");
    server.join().expect("serve thread");
}

/// Stores the result of `sql` under a result handle.
fn store(c: &mut Client, sql: &str) -> i64 {
    let stored = c
        .request(Json::obj([
            ("op", Json::str(Op::Query.name())),
            ("sql", Json::str(sql)),
            ("store", Json::Bool(true)),
        ]))
        .expect("store");
    stored.get("result").and_then(Json::as_int).expect("handle")
}

/// Drives every op of the table through its `Client` method, in dispatch
/// order, against a live server. The `match` has no wildcard arm, so an
/// op without a client call does not compile.
#[test]
fn every_op_goes_through_its_client_method() {
    let (addr, server) = spawn_server(SEED);
    let mut c = Client::connect(addr.as_str()).expect("connect");
    let (mut stmt, mut result) = (0, 0);
    for &op in Op::ALL {
        match op {
            Op::Ping => assert!(c.ping().expect("ping") > 0),
            Op::Tables => assert_eq!(c.tables().expect("tables"), ["emp"]),
            Op::Views => assert!(c.views().expect("views").is_empty()),
            Op::Sql => {
                let r = c
                    .sql("INSERT INTO emp VALUES ('d3', 5) PROVENANCE p4")
                    .expect("sql");
                assert!(r.get("epoch").is_some(), "{r}");
            }
            Op::Materialize => {
                let strategy = c.materialize("mass", GROUPED).expect("materialize");
                assert_eq!(strategy, "incremental");
            }
            Op::View => {
                c.refresh().expect("refresh");
                let mass = c.view("mass").expect("view");
                assert_eq!(mass.get("count"), Some(&Json::Int(3)));
            }
            Op::DropView => {
                c.drop_view("mass").expect("drop_view");
                assert!(c.drop_view("mass").is_err());
            }
            Op::DbDeleteTokens => {
                c.db_delete_tokens(&["p4"]).expect("db_delete_tokens");
            }
            Op::Refresh => {
                let r = c.refresh().expect("refresh");
                assert_eq!(r.get("invalidated"), Some(&Json::Arr(vec![])));
                assert!(c.views().expect("views").is_empty());
            }
            Op::Prepare => {
                stmt = c
                    .prepare("SELECT sal FROM emp WHERE dept = $1")
                    .expect("prepare");
            }
            Op::Execute => {
                let d1 = c.execute(stmt, vec![Json::str("d1")]).expect("execute");
                assert_eq!(d1.get("count"), Some(&Json::Int(2)));
            }
            Op::Query => {
                // p4 was deleted, so d3 is gone again.
                let grouped = c.query(GROUPED).expect("query");
                assert_eq!(grouped.get("count"), Some(&Json::Int(2)));
                result = store(&mut c, GROUPED);
            }
            Op::Valuate => {
                let plain = c.valuate(result, &[("p2", 0)], None).expect("valuate");
                assert_eq!(plain.get("collapsed"), Some(&Json::Bool(true)));
                let rows = plain.get("rows").map(Json::to_string).unwrap_or_default();
                assert!(rows.contains("20") && !rows.contains("30"), "{rows}");
            }
            Op::DeleteTokens => {
                let deleted = c.delete_tokens(result, &["p2"], true).expect("delete");
                assert!(deleted.get("result").and_then(Json::as_int).is_some());
            }
            Op::Clearance => {
                let levels = [("p1", "C"), ("p2", "C"), ("p3", "S")];
                let view = c.clearance(result, "C", &levels).expect("clearance");
                let rows = view.get("rows").map(Json::to_string).unwrap_or_default();
                assert!(rows.contains("d1") && !rows.contains("d2"), "{rows}");
            }
            Op::Close => {
                c.close_stmt(stmt).expect("close stmt");
                assert!(c.execute(stmt, vec![Json::str("d1")]).is_err());
                c.close_result(result).expect("close result");
                assert!(c.close_result(result).is_err());
            }
            Op::Bye => {
                let mut other = Client::connect(addr.as_str()).expect("connect");
                other.bye().expect("bye");
                assert!(other.ping().is_err(), "bye closes the connection");
            }
            Op::Shutdown => c.shutdown().expect("shutdown"),
        }
    }
    server.join().expect("serve thread");
}

#[test]
fn provenance_interrogation_over_the_wire() {
    let (addr, server) = spawn_server(SEED);
    let mut c = Client::connect(addr.as_str()).expect("connect");

    let stored = c
        .request(Json::obj([
            ("op", Json::str("query")),
            ("sql", Json::str(GROUPED)),
            ("store", Json::Bool(true)),
        ]))
        .expect("store");
    let result = stored.get("result").and_then(Json::as_int).expect("handle");

    // Valuating everything to 1 collapses to the plain bag answer.
    let plain = c
        .request(Json::obj([
            ("op", Json::str("valuate")),
            ("result", Json::Int(result)),
        ]))
        .expect("valuate");
    assert_eq!(plain.get("collapsed"), Some(&Json::Bool(true)));
    assert_eq!(plain.get("count"), Some(&Json::Int(2)));
    let rendered = plain.get("rows").map(Json::to_string).unwrap_or_default();
    assert!(rendered.contains("30"), "d1 total: {rendered}");

    // Deleting p2 shrinks d1's sum to 20 (deletion propagation without
    // re-running the query).
    let deleted = c
        .request(Json::obj([
            ("op", Json::str("delete_tokens")),
            ("result", Json::Int(result)),
            ("tokens", Json::Arr(vec![Json::str("p2")])),
            ("store", Json::Bool(true)),
        ]))
        .expect("delete");
    let shrunk = deleted
        .get("result")
        .and_then(Json::as_int)
        .expect("handle");
    let plain = c
        .request(Json::obj([
            ("op", Json::str("valuate")),
            ("result", Json::Int(shrunk)),
        ]))
        .expect("valuate shrunk");
    let rendered = plain.get("rows").map(Json::to_string).unwrap_or_default();
    assert!(rendered.contains("20"), "after deletion: {rendered}");
    assert!(!rendered.contains("30"), "after deletion: {rendered}");

    // Security reading: p1/p2 confidential, p3 secret; a C-cleared
    // principal sees d1's total but not d2's.
    let view = c
        .request(Json::obj([
            ("op", Json::str("clearance")),
            ("result", Json::Int(result)),
            (
                "levels",
                Json::obj([
                    ("p1", Json::str("C")),
                    ("p2", Json::str("C")),
                    ("p3", Json::str("S")),
                ]),
            ),
            ("cred", Json::str("C")),
        ]))
        .expect("clearance");
    let rendered = view.to_string();
    assert!(rendered.contains("d1"), "C sees d1: {rendered}");

    // Handles close; closing twice is an error.
    c.request(Json::obj([
        ("op", Json::str("close")),
        ("result", Json::Int(result)),
    ]))
    .expect("close");
    assert!(c
        .request(Json::obj([
            ("op", Json::str("close")),
            ("result", Json::Int(result))
        ]))
        .is_err());

    c.shutdown().expect("shutdown");
    server.join().expect("serve thread");
}

#[test]
fn materialized_views_over_the_wire() {
    let (addr, server) = spawn_server(SEED);
    let mut writer = Client::connect(addr.as_str()).expect("connect writer");

    // Materialize on the live database; the server reports the chosen
    // maintenance strategy.
    let strategy = writer.materialize("mass", GROUPED).expect("materialize");
    assert_eq!(strategy, "incremental");

    // The writer's own snapshot predates the view: reads fail until the
    // session re-pins.
    assert!(writer.view("mass").is_err());
    writer.refresh().expect("refresh");
    let mass = writer.view("mass").expect("view");
    assert_eq!(mass.get("count"), Some(&Json::Int(2)));
    assert_eq!(mass.get("strategy"), Some(&Json::str("incremental")));
    assert_eq!(writer.views().expect("views"), vec!["mass".to_string()]);

    // A reader pins the epoch, the writer mutates: the reader's view is
    // frozen until refresh, then shows the *maintained* (not re-run) rows.
    let mut reader = Client::connect(addr.as_str()).expect("connect reader");
    // `connect` returns once the kernel has queued the connection; the
    // session (and its pinned epoch) exists once it has answered.
    reader.ping().expect("pin");
    writer
        .sql("INSERT INTO emp VALUES ('d3', 99) PROVENANCE p4")
        .expect("insert");
    let frozen = reader.view("mass").expect("frozen view");
    assert_eq!(frozen.get("count"), Some(&Json::Int(2)));
    reader.refresh().expect("refresh");
    let maintained = reader.view("mass").expect("maintained view");
    assert_eq!(maintained.get("count"), Some(&Json::Int(3)));
    let rendered = maintained
        .get("rows")
        .map(Json::to_string)
        .unwrap_or_default();
    assert!(rendered.contains("d3"), "maintained view: {rendered}");

    // Database-level deletion propagation flows into the view: firing p2
    // shrinks d1's total from 30 to 20.
    writer.db_delete_tokens(&["p2"]).expect("db_delete_tokens");
    reader.refresh().expect("refresh");
    let shrunk = reader.view("mass").expect("view after deletion");
    let rendered = shrunk.get("rows").map(Json::to_string).unwrap_or_default();
    assert!(rendered.contains("20"), "after deletion: {rendered}");
    assert!(!rendered.contains("30"), "after deletion: {rendered}");

    // `"store": true` parks the view's annotated relation under a result
    // handle, so the interrogation ops compose with views.
    let stored = reader
        .request(Json::obj([
            ("op", Json::str("view")),
            ("name", Json::str("mass")),
            ("store", Json::Bool(true)),
        ]))
        .expect("store view");
    let handle = stored.get("result").and_then(Json::as_int).expect("handle");
    let plain = reader
        .request(Json::obj([
            ("op", Json::str("valuate")),
            ("result", Json::Int(handle)),
        ]))
        .expect("valuate view");
    assert_eq!(plain.get("collapsed"), Some(&Json::Bool(true)));

    // Dropping the base table breaks the dependent view loudly.
    writer.sql("DROP TABLE emp").expect("drop");
    writer.refresh().expect("refresh");
    let err = writer.view("mass").expect_err("broken view").to_string();
    assert!(err.contains("broken"), "unexpected error: {err}");

    // drop_view removes it; unknown views stay errors.
    writer.drop_view("mass").expect("drop_view");
    writer.refresh().expect("refresh");
    assert!(writer.views().expect("views").is_empty());
    assert!(writer.view("mass").is_err());
    assert!(writer.drop_view("nope").is_err());
    assert!(writer.materialize("bad", "SELECT x FROM nope").is_err());

    writer.shutdown().expect("shutdown");
    server.join().expect("serve thread");
}

#[test]
fn graceful_shutdown_wakes_idle_connections() {
    let (addr, server) = spawn_server("");
    // An idle connection sits blocked in read; shutdown must unblock it.
    let idle = std::net::TcpStream::connect(addr.as_str()).expect("idle connect");
    let mut admin = Client::connect(addr.as_str()).expect("connect");
    admin.sql("CREATE TABLE t (x NUM)").expect("ddl");
    admin.shutdown().expect("shutdown");
    server.join().expect("serve thread drains");
    // The idle socket is shut down by the server: reads see EOF.
    use std::io::Read;
    let mut buf = [0u8; 8];
    let n = (&idle).read(&mut buf).expect("read after shutdown");
    assert_eq!(n, 0, "idle connection sees EOF");
}

#[test]
fn an_oversized_request_line_is_refused_and_the_server_lives() {
    use aggprov_server::MAX_REQUEST_BYTES;
    use std::io::{BufRead, BufReader, Read, Write};
    let (addr, server) = spawn_server("");

    // A line of exactly the limit is an ordinary (here: malformed)
    // request on a connection that stays open.
    let at_limit = "x".repeat(MAX_REQUEST_BYTES);
    let (reply, mut stream) = raw_roundtrip(&addr, &at_limit);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    writeln!(stream, "{{\"op\":\"ping\"}}").expect("write");
    let mut pong = String::new();
    BufReader::new(&stream).read_line(&mut pong).expect("read");
    assert!(pong.contains("\"ok\":true"), "same connection: {pong}");

    // One byte more and no newline in sight: one error frame naming the
    // limit, then the connection closes.
    let mut hostile = std::net::TcpStream::connect(addr.as_str()).expect("connect");
    hostile
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("write");
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error frame");
    let reply = Json::parse(line.trim()).expect("parse");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    let error = reply.get("error").and_then(Json::as_str).expect("error");
    assert!(error.contains(&MAX_REQUEST_BYTES.to_string()), "{error}");
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("eof"), 0);

    // The next connection still gets its ping.
    let mut next = Client::connect(addr.as_str()).expect("connect");
    next.ping().expect("ping after the refusal");
    next.shutdown().expect("shutdown");
    server.join().expect("serve thread");
}

#[test]
fn a_request_line_that_is_not_utf8_closes_only_its_connection() {
    use std::io::{Read, Write};
    let (addr, server) = spawn_server("");
    let mut bystander = Client::connect(addr.as_str()).expect("connect");
    bystander.ping().expect("ping before");

    // No reply frame: the server closes the connection, and the client
    // reads EOF.
    let mut hostile = std::net::TcpStream::connect(addr.as_str()).expect("connect");
    hostile.write_all(&[0xff, 0xfe, b'\n']).expect("write");
    let mut rest = Vec::new();
    assert_eq!(hostile.read_to_end(&mut rest).expect("eof"), 0);

    // The other client's connection is open, and a new one is served.
    bystander.ping().expect("ping on the other connection");
    let mut next = Client::connect(addr.as_str()).expect("connect");
    next.ping().expect("ping on a new connection");
    next.shutdown().expect("shutdown");
    server.join().expect("serve thread");
}

/// The number of file descriptors this process has open.
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    // Every accepted socket is registered (a dup'd handle) so shutdown
    // can wake it; the entry must go when the session does, or each
    // short-lived client leaks one descriptor until `accept` hits EMFILE.
    const CYCLES: usize = 400;
    // Headroom for the other tests of this binary running beside this
    // one (a few dozen sockets at most) — far below the `CYCLES`
    // descriptors a leak would leave behind.
    const SLACK: usize = 100;
    let (addr, server) = spawn_server("");
    let baseline = open_fds();
    for _ in 0..CYCLES {
        let mut c = Client::connect(addr.as_str()).expect("connect");
        c.ping().expect("ping");
    }
    // Sessions notice EOF on their own threads; give them a moment.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while open_fds() > baseline + SLACK && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let open = open_fds();
    assert!(
        open <= baseline + SLACK,
        "{open} descriptors open after {CYCLES} closed connections (baseline {baseline})"
    );
    let mut last = Client::connect(addr.as_str()).expect("connect after churn");
    last.ping().expect("ping after churn");
    last.shutdown().expect("shutdown");
    server.join().expect("serve thread");
}
