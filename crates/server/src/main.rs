//! The `aggprov-server` binary: serves one provenance database over TCP.
//!
//! ```text
//! aggprov-server [ADDR] [--init FILE]
//! ```
//!
//! `ADDR` defaults to `127.0.0.1:7878`; `--init FILE` runs a SQL script
//! into the database before serving (tables survive for every client).

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use aggprov_engine::ProvDb;
use aggprov_server::Server;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut addr = String::from("127.0.0.1:7878");
    let mut init: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--init" => match args.next() {
                Some(path) => init = Some(path),
                None => {
                    eprintln!("--init needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: aggprov-server [ADDR] [--init FILE]");
                return ExitCode::SUCCESS;
            }
            other => addr = other.to_string(),
        }
    }

    let mut db = ProvDb::new();
    if let Some(path) = init {
        let script = match std::fs::read_to_string(&path) {
            Ok(script) => script,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = db.exec(&script) {
            eprintln!("init script failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("loaded {path}: {} table(s)", db.table_names().count());
    }

    let server = match Server::bind_with(&addr, db) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(bound) => eprintln!("aggprov-server listening on {bound}"),
        Err(_) => eprintln!("aggprov-server listening on {addr}"),
    }
    match server.serve() {
        Ok(()) => {
            eprintln!("aggprov-server: drained, bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}
