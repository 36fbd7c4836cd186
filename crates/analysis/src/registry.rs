//! The single declared registry of `AGGPROV_*` environment variables.
//!
//! Adding a knob means adding it in three places — the code that reads
//! it, this table, and the README — and this module's tests fail until
//! all three agree: one walks the workspace and requires every
//! `"AGGPROV_…"` string literal in non-test source to be a key here (and
//! every key to be read somewhere), the other pins the README's table to
//! this one row for row. Unknown *values* are rejected at runtime
//! (`ExecOptions::from_env`); unknown *names* are rejected here.

/// Every environment variable the workspace reads, with a one-line
/// purpose. Keep sorted.
pub const ENV_REGISTRY: &[(&str, &str)] = &[
    (
        "AGGPROV_BENCH_SAMPLES",
        "sample-count override for the benchmark harness",
    ),
    (
        "AGGPROV_THREADS",
        "worker-thread count for the parallel ground-partition pipeline",
    ),
];

/// Looks up a variable's description.
pub fn lookup(name: &str) -> Option<&'static str> {
    ENV_REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Tok;
    use crate::walk::{find_root, load_workspace};
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in ENV_REGISTRY.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn lookup_finds_threads() {
        assert!(lookup("AGGPROV_THREADS").is_some());
        assert!(lookup("AGGPROV_NO_SUCH").is_none());
    }

    /// Every `AGGPROV_<NAME>` inside a string literal of non-test source
    /// names a registered variable, and every registered variable is read
    /// somewhere outside this file.
    #[test]
    fn every_env_literal_in_the_workspace_is_registered() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let mut read = BTreeSet::new();
        for f in &load_workspace(&root).files {
            for (i, t) in f.tokens.iter().enumerate() {
                let Tok::Str(text) = &t.tok else { continue };
                if f.in_test(i) {
                    continue;
                }
                for rest in text.split("AGGPROV_").skip(1) {
                    let suffix = rest
                        .split(|c: char| {
                            !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                        })
                        .next()
                        .unwrap_or_default();
                    // A bare prefix (a format template) names nothing.
                    if suffix.is_empty() {
                        continue;
                    }
                    let name = format!("AGGPROV_{suffix}");
                    assert!(
                        lookup(&name).is_some(),
                        "{}:{}: `{name}` is not in ENV_REGISTRY — register and document it",
                        f.path,
                        t.line
                    );
                    if f.path != "crates/analysis/src/registry.rs" {
                        read.insert(name);
                    }
                }
            }
        }
        for (name, _) in ENV_REGISTRY {
            assert!(
                read.contains(*name),
                "`{name}` is registered but never read"
            );
        }
    }

    /// The README's environment-variable table must match this registry
    /// *exactly* — same variables, same one-line purposes.
    #[test]
    fn readme_env_table_matches_registry() {
        let readme = include_str!("../../../README.md");
        for (name, desc) in ENV_REGISTRY {
            let row = format!("| `{name}` | {desc} |");
            assert!(
                readme.contains(&row),
                "README env table disagrees with the registry: expected the row {row:?}"
            );
        }
        for line in readme.lines().filter(|l| l.starts_with("| `AGGPROV_")) {
            let name = line
                .trim_start_matches("| `")
                .split('`')
                .next()
                .unwrap_or_default();
            assert!(
                lookup(name).is_some(),
                "README env table documents `{name}`, which is not in ENV_REGISTRY"
            );
        }
    }
}
