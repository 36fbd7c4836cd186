//! Rule `env`: every `AGGPROV_*` knob is registered and documented.
//!
//! PR 3 made the runtime loud about malformed env values; this rule
//! makes the *set* of knobs auditable. Any `AGGPROV_*` string literal in
//! workspace code must name a variable declared in
//! [`crate::registry::ENV_REGISTRY`], every registered variable must be
//! documented in the README, and a registered variable nothing reads is
//! flagged too — the registry describes reality, it doesn't collect
//! souvenirs.

use crate::lexer::Tok;
use crate::registry::ENV_REGISTRY;
use crate::{Diagnostic, Workspace};

/// Path of the registry declaration (exempt from the usage check).
pub const REGISTRY_PATH: &str = "crates/analysis/src/registry.rs";

/// Cross-checks `AGGPROV_*` literals against the registry and README.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut used: Vec<&str> = Vec::new();
    for f in &ws.files {
        if f.path == REGISTRY_PATH {
            continue;
        }
        for (i, t) in f.tokens.iter().enumerate() {
            let Tok::Str(text) = &t.tok else { continue };
            if f.in_test(i) {
                continue;
            }
            for var in extract_vars(text) {
                if let Some(entry) = ENV_REGISTRY.iter().find(|(n, _)| *n == var) {
                    if !used.contains(&entry.0) {
                        used.push(entry.0);
                    }
                } else {
                    out.push(Diagnostic {
                        path: f.path.clone(),
                        line: t.line,
                        rule: "env",
                        message: format!(
                            "`{var}` is not in ENV_REGISTRY \
                             (crates/analysis/src/registry.rs) — register and \
                             document every AGGPROV_* knob"
                        ),
                    });
                }
            }
        }
    }
    let registry_file = ws.file(REGISTRY_PATH);
    for (name, _) in ENV_REGISTRY {
        let line = registry_file
            .and_then(|f| {
                f.tokens
                    .iter()
                    .find(|t| matches!(&t.tok, Tok::Str(s) if s.contains(name)))
            })
            .map_or(1, |t| t.line);
        if !ws.readme.contains(name) {
            out.push(Diagnostic {
                path: REGISTRY_PATH.to_string(),
                line,
                rule: "env",
                message: format!("registered env var `{name}` is not documented in README.md"),
            });
        }
        if !used.contains(name) {
            out.push(Diagnostic {
                path: REGISTRY_PATH.to_string(),
                line,
                rule: "env",
                message: format!("registered env var `{name}` is never read by workspace code"),
            });
        }
    }
    out
}

/// Extracts `AGGPROV_<NAME>` variable names from a string literal's raw
/// text (which still carries its quotes/prefixes).
fn extract_vars(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(at) = text[i..].find("AGGPROV_") {
        let start = i + at;
        let mut end = start + "AGGPROV_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end] == b'_'
                || bytes[end].is_ascii_digit())
        {
            end += 1;
        }
        // A bare prefix (e.g. a format template) names nothing.
        if end > start + "AGGPROV_".len() {
            out.push(text[start..end].to_string());
        }
        i = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    #[test]
    fn extracts_vars_from_literals() {
        assert_eq!(
            extract_vars("\"AGGPROV_THREADS and AGGPROV_BENCH_SAMPLES=x\""),
            vec!["AGGPROV_THREADS", "AGGPROV_BENCH_SAMPLES"]
        );
        assert!(extract_vars("\"AGGPROV_ prefix only\"").is_empty());
    }

    fn ws_with(code_path: &str, code: &str, readme: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::new(code_path, code)],
            readme: readme.to_string(),
            ..Workspace::default()
        }
    }

    const ALL_DOCUMENTED: &str = "AGGPROV_THREADS AGGPROV_BENCH_SAMPLES";
    const READS_ALL: &str = "fn f() {\n\
        env(\"AGGPROV_THREADS\");\n\
        env(\"AGGPROV_BENCH_SAMPLES\");\n\
        }\n";

    #[test]
    fn registered_documented_and_read_is_clean() {
        let w = ws_with("crates/core/src/par.rs", READS_ALL, ALL_DOCUMENTED);
        assert!(check(&w).is_empty());
    }

    #[test]
    fn unregistered_var_is_flagged() {
        let code = "fn f() { env(\"AGGPROV_SECRET_KNOB\"); }";
        let w = ws_with("crates/core/src/par.rs", code, ALL_DOCUMENTED);
        let d = check(&w);
        assert!(d
            .iter()
            .any(|x| x.rule == "env" && x.line == 1 && x.message.contains("AGGPROV_SECRET_KNOB")));
    }

    #[test]
    fn undocumented_registry_entry_is_flagged() {
        let w = ws_with("crates/core/src/par.rs", READS_ALL, "no vars here");
        let d = check(&w);
        assert_eq!(
            d.iter()
                .filter(|x| x.message.contains("not documented"))
                .count(),
            ENV_REGISTRY.len()
        );
    }
}
