//! Workspace file discovery for the lint driver.

use crate::{SourceFile, Workspace};
use std::fs;
use std::path::{Path, PathBuf};

/// Directories never descended into: build output, VCS metadata, and
/// the analyzer's own fixtures (each seeded with an intentional
/// violation). The vendored stand-ins are included — they are
/// first-party code here and read registered env knobs.
fn skip_dir(rel: &str) -> bool {
    let last = rel.rsplit('/').next().unwrap_or(rel);
    last == "target" || last.starts_with('.') || rel == "crates/analysis/tests/fixtures"
}

/// Walks `root` and loads every workspace `.rs` file into a
/// [`Workspace`]. Paths are stored root-relative with forward slashes.
/// I/O errors on individual files are skipped (`aggprov-lint` lints a
/// tree that already builds).
pub fn load_workspace(root: &Path) -> Workspace {
    let mut ws = Workspace::default();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            let rel = relpath(root, &path);
            if path.is_dir() {
                if !skip_dir(&rel) {
                    stack.push(path);
                }
            } else if rel.ends_with(".rs") {
                if let Ok(text) = fs::read_to_string(&path) {
                    ws.files.push(SourceFile::new(rel, text));
                }
            }
        }
    }
    ws.files.sort_by(|a, b| a.path.cmp(&b.path));
    ws
}

/// Root-relative path with forward slashes.
fn relpath(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_fixtures_and_target() {
        assert!(skip_dir("crates/analysis/tests/fixtures"));
        assert!(skip_dir("target"));
        assert!(skip_dir("crates/core/target"));
        assert!(!skip_dir("vendor"));
        assert!(!skip_dir("crates/analysis/tests"));
        assert!(!skip_dir("crates/core/src"));
    }
}
