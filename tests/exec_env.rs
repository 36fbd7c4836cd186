//! `AGGPROV_THREADS` handling end to end, isolated in its own test binary:
//! the variable is process-global and every `Prepared::execute` reads it,
//! so mutating it must not share a process with the rest of the test
//! suite.

use aggprov::prelude::*;

fn figure_1_db() -> ProvDb {
    let mut db = ProvDb::new();
    db.exec(
        "CREATE TABLE r (emp NUM, dept TEXT, sal NUM);
         INSERT INTO r VALUES (1, 'd1', 20) PROVENANCE p1;
         INSERT INTO r VALUES (2, 'd1', 10) PROVENANCE p2;
         INSERT INTO r VALUES (3, 'd2', 15) PROVENANCE p3;",
    )
    .unwrap();
    db
}

// AGGPROV_THREADS drives Prepared::execute through ExecOptions::from_env;
// a bad value surfaces as the loud InvalidEnv error. This is the only
// test in this binary touching the variable, and it restores the prior
// value (the CI thread matrix sets it for the whole test run).
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "saves AGGPROV_THREADS to restore it"
)]
fn execute_reads_aggprov_threads_loudly() {
    let saved = std::env::var("AGGPROV_THREADS").ok();
    std::env::set_var("AGGPROV_THREADS", "not-a-number");
    let db = figure_1_db();
    let err = db
        .prepare("SELECT dept FROM r")
        .unwrap()
        .execute()
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("AGGPROV_THREADS") && msg.contains("`not-a-number`"),
        "loud error names variable and value: {msg}"
    );
    std::env::set_var("AGGPROV_THREADS", "2");
    assert!(db.prepare("SELECT dept FROM r").unwrap().execute().is_ok());
    match saved {
        Some(v) => std::env::set_var("AGGPROV_THREADS", v),
        None => std::env::remove_var("AGGPROV_THREADS"),
    }
}
