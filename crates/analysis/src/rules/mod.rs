//! The project-invariant rules and the driver that runs them.
//!
//! [`run_all`] builds the phase-1 symbol graph once, hands it to each
//! rule's `check`, and returns the sorted findings. There is no
//! suppression syntax — a finding is fixed.
//!
//! What used to be rules here and is now the compiler's job is listed in
//! the crate documentation: one-sided ground gates (a witness type),
//! panics and bare indexing (`#![deny(clippy::…)]` in the modules
//! themselves), exhaustive enum dispatch (rustc plus two clippy lints on
//! the designated functions), and the env-var registry (unit tests in
//! [`crate::registry`]).

pub mod lock_order;
pub mod oracle;

use crate::graph::SymbolGraph;
use crate::{Diagnostic, Workspace};

/// Runs every rule over the workspace. The findings are sorted by path,
/// line, rule.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let graph = SymbolGraph::build(ws);
    let mut findings = oracle::check(ws);
    findings.extend(lock_order::check(&graph));
    findings.sort();
    findings.dedup();
    findings
}
