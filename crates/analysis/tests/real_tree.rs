//! Acceptance test against the actual repository tree: the shipped
//! workspace lints clean under every rule.

use analysis::rules::run_all;
use analysis::walk::{find_root, load_workspace};
use analysis::Workspace;
use std::path::Path;

fn load() -> Workspace {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    load_workspace(&root)
}

#[test]
fn the_real_tree_lints_clean() {
    let ws = load();
    assert!(
        ws.files.len() > 30,
        "workspace walk looks broken: only {} files",
        ws.files.len()
    );
    let d = run_all(&ws);
    assert!(
        d.is_empty(),
        "the real tree has lint findings:\n{}",
        d.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
