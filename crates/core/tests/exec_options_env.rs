//! `AGGPROV_THREADS` handling, isolated in its own test binary: the
//! variable is process-global and this test mutates it (including
//! setting invalid values), so it must not share a process with tests
//! that might read it concurrently.

use aggprov_core::par::{ExecOptions, THREADS_ENV};

#[test]
fn from_env_reads_and_rejects_loudly() {
    // Restores the prior value so a CI thread-matrix env survives.
    let saved = std::env::var(THREADS_ENV).ok();
    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(ExecOptions::from_env().unwrap().threads(), 3);
    std::env::set_var(THREADS_ENV, " 2 ");
    assert_eq!(ExecOptions::from_env().unwrap().threads(), 2);
    for bad in ["", "0", "-1", "many", "4.0"] {
        std::env::set_var(THREADS_ENV, bad);
        let err = ExecOptions::from_env().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(THREADS_ENV) && msg.contains(&format!("`{bad}`")),
            "loud error names variable and value: {msg}"
        );
    }
    match saved {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    assert!(ExecOptions::from_env().is_ok());
}
