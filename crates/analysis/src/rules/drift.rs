//! Rule `wire`: three-way agreement on the wire-protocol op set.
//!
//! The protocol's source of truth is the server's session dispatch —
//! the string arms of the `match op` in `Session::dispatch`
//! (`crates/server/src/session.rs`). Two mirrors must agree with it:
//!
//! - the **op table** in `docs/WIRE_PROTOCOL.md` (the rows under the
//!   `## Operation index` heading): an op the server speaks but the spec
//!   doesn't list is undocumented; a row for an op the server no longer
//!   speaks is stale;
//! - the blocking **`Client`** (`crates/server/src/client.rs`): every
//!   server op needs a typed client method (recognized by its
//!   `("op", Json::str("<name>"))` request literal), so integration
//!   tests and the smoke binary can exercise the whole surface without
//!   hand-built request objects.
//!
//! The checks only run when the dispatch function is in the workspace —
//! fixture tests lint partial trees, and without the source of truth
//! there is nothing to drift from.

use crate::graph::SymbolGraph;
use crate::lexer::Tok;
use crate::{Diagnostic, SourceFile, Workspace};

/// Path of the session dispatch (the op-set source of truth).
pub const SESSION_PATH: &str = "crates/server/src/session.rs";
/// Path of the blocking client.
pub const CLIENT_PATH: &str = "crates/server/src/client.rs";
/// The heading in `docs/WIRE_PROTOCOL.md` whose table rows list the ops.
pub const OP_INDEX_HEADING: &str = "## Operation index";

/// Cross-checks dispatch arms, client request literals, and the doc
/// table.
pub fn check(ws: &Workspace, graph: &SymbolGraph) -> Vec<Diagnostic> {
    let dispatch_fns = graph.fns_in(SESSION_PATH, "dispatch");
    let Some(dispatch) = dispatch_fns.first() else {
        return Vec::new();
    };
    let mut server_ops: Vec<(String, u32)> = Vec::new();
    for (op, line) in &dispatch.arm_strings {
        if !server_ops.iter().any(|(o, _)| o == op) {
            server_ops.push((op.clone(), *line));
        }
    }
    let mut out = Vec::new();
    if server_ops.is_empty() {
        out.push(Diagnostic {
            path: SESSION_PATH.to_string(),
            line: dispatch.line,
            rule: "wire",
            message: "`dispatch` has no string-literal op arms — the wire rule \
                      lost its source of truth"
                .to_string(),
        });
        return out;
    }

    // Doc table: ops named in the operation-index rows.
    let (doc_ops, doc_line) = doc_table_ops(&ws.wire_doc);
    for (op, line) in &server_ops {
        if !doc_ops.iter().any(|(o, _)| o == op) {
            out.push(Diagnostic {
                path: SESSION_PATH.to_string(),
                line: *line,
                rule: "wire",
                message: format!(
                    "op `{op}` is dispatched by the server but missing from the \
                     `{OP_INDEX_HEADING}` table in docs/WIRE_PROTOCOL.md"
                ),
            });
        }
    }
    for (op, row) in &doc_ops {
        if !server_ops.iter().any(|(o, _)| o == op) {
            out.push(Diagnostic {
                path: "docs/WIRE_PROTOCOL.md".to_string(),
                line: *row,
                rule: "wire",
                message: format!(
                    "stale row: op `{op}` is in the `{OP_INDEX_HEADING}` table but \
                     the server session no longer dispatches it"
                ),
            });
        }
    }
    if doc_ops.is_empty() {
        out.push(Diagnostic {
            path: "docs/WIRE_PROTOCOL.md".to_string(),
            line: doc_line,
            rule: "wire",
            message: format!(
                "no `{OP_INDEX_HEADING}` table found — the op index is the \
                 machine-checked half of the spec"
            ),
        });
    }

    // Client coverage: every server op needs a request literal.
    if let Some(client) = ws.file(CLIENT_PATH) {
        let client_ops = client_op_literals(client);
        for (op, line) in &server_ops {
            if !client_ops.contains(op) {
                out.push(Diagnostic {
                    path: SESSION_PATH.to_string(),
                    line: *line,
                    rule: "wire",
                    message: format!(
                        "op `{op}` has no `Client` method (no `(\"op\", \
                         Json::str(\"{op}\"))` request in {CLIENT_PATH})"
                    ),
                });
            }
        }
    }
    out.sort();
    out
}

/// Ops named by the operation-index table rows: for each markdown row
/// under [`OP_INDEX_HEADING`] (up to the next heading), the eligible
/// first backquoted cell. Returns the ops with their 1-based lines, and
/// the line of the heading (1 when absent).
fn doc_table_ops(doc: &str) -> (Vec<(String, u32)>, u32) {
    let mut ops = Vec::new();
    let mut in_table = false;
    let mut heading_line = 1;
    for (i, line) in doc.lines().enumerate() {
        let lineno = i as u32 + 1;
        if line.trim_end() == OP_INDEX_HEADING {
            in_table = true;
            heading_line = lineno;
            continue;
        }
        if in_table && line.starts_with('#') {
            break;
        }
        if !in_table || !line.starts_with('|') {
            continue;
        }
        // Skip the header and separator rows.
        let cell = line.trim_start_matches('|').trim();
        let Some(op) = cell
            .strip_prefix('`')
            .and_then(|c| c.split('`').next())
            .filter(|o| !o.is_empty())
        else {
            continue;
        };
        ops.push((op.to_string(), lineno));
    }
    (ops, heading_line)
}

/// Op names the client can speak: every `("op", Json::str("<name>"))`
/// token sequence in the client file.
fn client_op_literals(f: &SourceFile) -> Vec<String> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Tok::Str(s) = &toks[i].tok else { continue };
        if s.trim_matches('"') != "op" {
            continue;
        }
        // `"op" , Json :: str ( "<name>" )`
        let name = toks
            .get(i + 1)
            .filter(|t| t.tok.is(b','))
            .and_then(|_| toks.get(i + 2))
            .filter(|t| t.tok.is_ident("Json"))
            .and_then(|_| toks.get(i + 5))
            .filter(|t| t.tok.is_ident("str") || t.tok.is_ident("Str"))
            .and_then(|_| toks.get(i + 7))
            .and_then(|t| match &t.tok {
                Tok::Str(name) => Some(name.trim_matches('"').to_string()),
                _ => None,
            });
        if let Some(name) = name {
            if !out.contains(&name) {
                out.push(name);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SESSION: &str = "\
impl Session {
    fn dispatch(&mut self, op: &str) -> Result<Json, String> {
        match op {
            \"ping\" => self.op_ping(),
            \"sql\" => self.op_sql(),
            \"bye\" => self.op_bye(),
            other => Err(format!(\"unknown op {other:?}\")),
        }
    }
}
";
    const CLIENT: &str = "\
impl Client {
    pub fn ping(&mut self) { self.request(Json::obj([(\"op\", Json::str(\"ping\"))])); }
    pub fn sql(&mut self) { self.request(Json::obj([(\"op\", Json::str(\"sql\"))])); }
    pub fn bye(&mut self) { self.request(Json::obj([(\"op\", Json::str(\"bye\"))])); }
}
";
    const DOC: &str = "\
# Protocol

## Operation index

| op | kind |
| --- | --- |
| `ping` | read |
| `sql` | write |
| `bye` | lifecycle |

## Next section
";

    fn run(session: &str, client: &str, doc: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: vec![
                SourceFile::new(SESSION_PATH, session),
                SourceFile::new(CLIENT_PATH, client),
            ],
            wire_doc: doc.to_string(),
        };
        let graph = SymbolGraph::build(&ws);
        check(&ws, &graph)
    }

    #[test]
    fn agreement_is_clean() {
        assert!(run(SESSION, CLIENT, DOC).is_empty());
    }

    #[test]
    fn undocumented_op_and_stale_row_fire() {
        let doc_missing_bye_extra_flush = "\
## Operation index

| op | kind |
| --- | --- |
| `ping` | read |
| `sql` | write |
| `flush` | write |
";
        let d = run(SESSION, CLIENT, doc_missing_bye_extra_flush);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d
            .iter()
            .any(|x| x.path == SESSION_PATH && x.message.contains("`bye`")));
        let stale = d
            .iter()
            .find(|x| x.path == "docs/WIRE_PROTOCOL.md")
            .unwrap();
        assert_eq!(stale.line, 7);
        assert!(stale.message.contains("`flush`"), "{}", stale.message);
    }

    #[test]
    fn missing_client_method_fires() {
        let client_no_bye = "\
impl Client {
    pub fn ping(&mut self) { self.request(Json::obj([(\"op\", Json::str(\"ping\"))])); }
    pub fn sql(&mut self) { self.request(Json::obj([(\"op\", Json::str(\"sql\"))])); }
}
";
        let d = run(SESSION, client_no_bye, DOC);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("no `Client` method"),
            "{}",
            d[0].message
        );
        assert!(d[0].message.contains("bye"));
    }

    #[test]
    fn absent_session_is_silent_for_partial_workspaces() {
        let ws = Workspace {
            files: vec![SourceFile::new("crates/core/src/ops.rs", "fn f() {}")],
            ..Workspace::default()
        };
        let graph = SymbolGraph::build(&ws);
        assert!(check(&ws, &graph).is_empty());
    }
}
