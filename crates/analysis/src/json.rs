//! Machine-readable lint output (`aggprov-lint --json`).
//!
//! Renders the findings as one JSON object:
//!
//! ```json
//! {
//!   "findings": [ {"rule": "...", "path": "...", "line": N,
//!                  "message": "..."}, ... ],
//!   "counts":   {"findings": N}
//! }
//! ```
//!
//! The escaping follows the same conventions as the server's vendored
//! JSON module (`crates/server/src/json.rs`): `"` `\\` and the three
//! whitespace escapes by name, all other control characters as
//! `\u00XX`, everything else verbatim. The round-trip test in
//! `tests/json_roundtrip.rs` parses this output with that very parser,
//! so the two dialects cannot part ways.

use crate::Diagnostic;
use std::fmt::Write;

/// Renders the findings as a single-object JSON document (no trailing
/// newline).
pub fn render(findings: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\"findings\":[");
    for (i, d) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        push_escaped(&mut out, d.rule);
        out.push_str(",\"path\":");
        push_escaped(&mut out, &d.path);
        let _ = write!(out, ",\"line\":{}", d.line);
        out.push_str(",\"message\":");
        push_escaped(&mut out, &d.message);
        out.push('}');
    }
    let _ = write!(out, "],\"counts\":{{\"findings\":{}}}}}", findings.len());
    out
}

/// Escapes a string the same way the server's JSON printer does.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, msg: &str) -> Diagnostic {
        Diagnostic {
            path: "crates/core/src/ops.rs".to_string(),
            line: 7,
            rule,
            message: msg.to_string(),
        }
    }

    #[test]
    fn renders_counts_and_escapes() {
        let s = render(&[
            diag("lock", "don't \"nest\"\nhere"),
            diag("oracle", "tab\there"),
        ]);
        assert!(s.starts_with("{\"findings\":["), "{s}");
        assert!(s.contains("\\\"nest\\\"\\nhere"), "{s}");
        assert!(s.contains("tab\\there"), "{s}");
        assert!(s.ends_with("\"counts\":{\"findings\":2}}"), "{s}");
    }

    #[test]
    fn empty_report_is_a_complete_object() {
        assert_eq!(render(&[]), "{\"findings\":[],\"counts\":{\"findings\":0}}");
    }
}
