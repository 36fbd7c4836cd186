//! End-to-end smoke test against a **running** server (CI drives this
//! against the release binary): seeds a table, queries it from three
//! concurrent clients, interrogates provenance over the wire, opens and
//! closes 1 500 short-lived connections (past the default 1 024-descriptor
//! limit: a server that keeps a handle per closed connection stops
//! accepting), sends two hostile over-deep requests (which must come back
//! as error frames from a server that is still up), and shuts the server
//! down.
//!
//! ```text
//! smoke ADDR
//! ```
//!
//! Exits 0 iff every step (including the shutdown handshake) succeeds.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use aggprov_server::{Client, Json, Op};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

/// Sends one raw request line on a connection of its own and returns the
/// response line — for input no well-formed `Json` value can carry.
fn raw_request(addr: &str, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply)
}

fn run(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut admin = Client::connect(addr)?;
    admin.ping()?;
    admin.sql(
        "CREATE TABLE emp (dept TEXT, sal NUM);
         INSERT INTO emp VALUES ('d1', 20) PROVENANCE p1;
         INSERT INTO emp VALUES ('d1', 10) PROVENANCE p2;
         INSERT INTO emp VALUES ('d2', 15) PROVENANCE p3;",
    )?;
    admin.refresh()?;

    // A bad statement is an error response, not a dead connection.
    assert!(admin.sql("SELEKT nonsense").is_err());
    admin.ping()?;

    // Three clients, each preparing and executing against its own
    // pinned snapshot.
    let mut handles = Vec::new();
    for _ in 0..3 {
        handles.push(std::thread::spawn({
            let addr = addr.to_string();
            move || -> Result<String, String> {
                let mut c = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
                let stmt = c
                    .prepare("SELECT dept, SUM(sal) AS total FROM emp GROUP BY dept")
                    .map_err(|e| e.to_string())?;
                let out = c.execute(stmt, vec![]).map_err(|e| e.to_string())?;
                Ok(out.get("rows").map(Json::to_string).unwrap_or_default())
            }
        }));
    }
    let mut renders = Vec::new();
    for h in handles {
        renders.push(h.join().map_err(|_| "client thread panicked")??);
    }
    assert!(
        renders
            .iter()
            .zip(renders.iter().skip(1))
            .all(|(a, b)| a == b),
        "clients disagreed: {renders:?}"
    );

    // Provenance interrogation over the wire: store, then delete p2.
    let stored = admin.request(Json::obj([
        ("op", Json::str(Op::Query.name())),
        (
            "sql",
            Json::str("SELECT dept, SUM(sal) AS total FROM emp GROUP BY dept"),
        ),
        ("store", Json::Bool(true)),
    ]))?;
    let result = stored
        .get("result")
        .and_then(Json::as_int)
        .ok_or("no result handle")?;
    let valuated = admin.valuate(result, &[("p2", 0)], None)?;
    assert_eq!(
        valuated.get("collapsed"),
        Some(&Json::Bool(true)),
        "ground valuation must collapse"
    );
    admin.delete_tokens(result, &["p2"], false)?;
    admin.close_result(result)?;

    // Connection churn: more short-lived clients, one after another, than
    // the server may hold descriptors for — each must get its `ping`.
    for i in 0..1_500 {
        Client::connect(addr)
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("short-lived connection {i}: {e}"))?;
    }

    // Hostile depth: a 10 000-deep JSON array and a query nesting 5 000
    // derived tables are error frames, and the server outlives both.
    let deep_json = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let reply = raw_request(addr, &deep_json)?;
    assert!(reply.contains("\"ok\":false"), "deep JSON: {reply}");
    let deep_sql = (0..5_000).fold("SELECT dept FROM emp".to_string(), |q, i| {
        format!("SELECT dept FROM ({q}) t{i}")
    });
    let Err(err) = admin.query(&deep_sql) else {
        return Err("deep SQL must be refused".into());
    };
    assert!(err.to_string().contains("SELECT blocks"), "deep SQL: {err}");
    admin.ping()?;

    admin.shutdown()?;
    Ok(())
}

fn main() -> ExitCode {
    let Some(addr) = std::env::args().nth(1) else {
        eprintln!("usage: smoke ADDR");
        return ExitCode::FAILURE;
    };
    match run(&addr) {
        Ok(()) => {
            println!("smoke: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smoke failed: {e}");
            ExitCode::FAILURE
        }
    }
}
