//! The registry of environment variables the workspace reads.
//!
//! Reading a variable is a disallowed method (`clippy.toml`): each read
//! site carries an `#[expect(clippy::disallowed_methods)]` whose reason
//! names its variable, so a new read fails clippy until it is given one.
//! This table lists every variable with its purpose and its one read
//! site, and the checks below hold the table to the sources and to the
//! README's *Environment variables* table. (The tests that save and
//! restore a variable carry their own `#[expect]`; they read nothing the
//! program uses.)

/// One variable: its name, its purpose as the README states it, the file
/// that reads it, and that file's text.
struct Var {
    name: &'static str,
    purpose: &'static str,
    site: &'static str,
    source: &'static str,
}

/// Every environment variable the workspace reads. Keep sorted.
const REGISTRY: &[Var] = &[
    Var {
        name: "AGGPROV_BENCH_SAMPLES",
        purpose: "sample-count override for the benchmark harness",
        site: "vendor/criterion/src/lib.rs",
        source: include_str!("../vendor/criterion/src/lib.rs"),
    },
    Var {
        name: "AGGPROV_THREADS",
        purpose: "worker-thread count for the parallel ground-partition pipeline",
        site: "crates/core/src/par.rs",
        source: include_str!("../crates/core/src/par.rs"),
    },
    Var {
        name: "PROPTEST_CASES",
        purpose: "case-count override for every property suite",
        site: "vendor/proptest/src/lib.rs",
        source: include_str!("../vendor/proptest/src/lib.rs"),
    },
];

#[test]
fn registry_is_sorted_and_unique() {
    for w in REGISTRY.windows(2) {
        assert!(w[0].name < w[1].name, "{} !< {}", w[0].name, w[1].name);
    }
}

/// Each listed site names its variable, reads the environment, and
/// carries the `#[expect]` that lets it.
#[test]
fn every_variable_is_read_at_its_site() {
    for var in REGISTRY {
        let name = var.name;
        let site = var.site;
        assert!(
            var.source.contains(&format!("\"{name}\"")),
            "{site} does not name {name}"
        );
        assert!(
            var.source.contains("std::env::var("),
            "{site} reads no environment variable"
        );
        assert!(
            var.source.contains(&format!(
                "reason = \"{name} is read here and nowhere else\""
            )),
            "{site} has no `#[expect(clippy::disallowed_methods)]` naming {name}"
        );
    }
}

/// The README's table lists exactly the registry, row for row and in
/// order: name, purpose, read site.
#[test]
fn readme_table_is_the_registry() {
    let readme = include_str!("../README.md");
    let rows: Vec<&str> = readme
        .lines()
        .skip_while(|l| l.trim_end() != "### Environment variables")
        .skip(1)
        .take_while(|l| !l.starts_with('#'))
        .filter(|l| l.starts_with("| `"))
        .collect();
    let expected: Vec<String> = REGISTRY
        .iter()
        .map(|v| format!("| `{}` | {} | `{}` |", v.name, v.purpose, v.site))
        .collect();
    assert_eq!(rows, expected);
}
