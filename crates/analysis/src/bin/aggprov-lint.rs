//! `aggprov-lint` — the workspace invariant linter.
//!
//! Usage: `cargo run -p analysis --bin aggprov-lint -- --workspace`
//! (run from anywhere inside the repository; `--root <dir>` overrides
//! discovery). Prints `path:line: [rule] message` per finding, sorted,
//! and exits nonzero if there is any. With `--json`, prints one JSON
//! object (`findings`, `counts`) instead — same exit code contract,
//! nothing else on stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use analysis::json::render;
use analysis::rules::run_all;
use analysis::walk::{find_root, load_workspace};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => {}
            "--json" => json = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "aggprov-lint: project-invariant static analysis\n\n\
                     USAGE: aggprov-lint [--workspace] [--json] [--root <dir>]\n\n\
                     Rules: lock, lock-order, oracle\n\
                     --json emits {{\"findings\": [...], \"counts\": ...}}"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("aggprov-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => {
            eprintln!("aggprov-lint: no workspace root found (pass --root <dir>)");
            return ExitCode::from(2);
        }
    };
    let ws = load_workspace(&root);
    let findings = run_all(&ws);
    if json {
        println!("{}", render(&findings));
    } else {
        for d in &findings {
            println!("{d}");
        }
    }
    if findings.is_empty() {
        eprintln!(
            "aggprov-lint: clean ({} files, 3 rule kinds, 0 findings)",
            ws.files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("aggprov-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
