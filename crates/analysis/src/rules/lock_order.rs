//! Rules `lock` and `lock-order`: guard discipline, within one function
//! and across the call graph, both read off the phase-1 guard events.
//!
//! **`lock`** — one guard at a time on the serving path. Two
//! deadlock/stall classes for the epoch-publish vs. plan-cache `RwLock`
//! pair and the session table `Mutex`:
//!
//! 1. *Nested acquisition* — an `Acquire` event with a guard already
//!    live in the same function. `drop(guard)` ends a guard's life early
//!    (the `op_sql` idiom in `session.rs`).
//! 2. *Lock held across socket I/O* — an `Io` event with a guard live:
//!    a blocking `TcpStream` read or write stalls every other session on
//!    that lock for as long as the peer cares to dawdle.
//!
//! **`lock-order`** closes the cross-function gap:
//!
//! 1. *Acquisition-order cycles.* Every acquisition event contributes
//!    edges `H → L` for each guard `H` live when lock `L` is taken —
//!    directly, or transitively when a call is made under `H` to a
//!    function that (transitively) acquires `L`. A cycle in the union of
//!    these edges across `engine`/`server` is a deadlock waiting for a
//!    scheduler: two sessions taking the same pair of locks in opposite
//!    orders. The canonical order (documented in
//!    `docs/ARCHITECTURE.md`) is *database lock before plan-cache
//!    lock*; this rule is what keeps that sentence true.
//! 2. *Transitive I/O under a guard.* Holding a guard while calling a
//!    helper that blocks on a socket is flagged at the call site.
//!
//! Name resolution is unique-name (see `graph.rs` for the approximation
//! limits). `does_io` and `locks_acquired` are computed as fixpoints over
//! the call graph, so arbitrarily deep helper chains are seen through;
//! recursion converges because the sets only grow.

use crate::graph::{Event, EventKind, FnInfo, SymbolGraph};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Files subject to the `lock` rule: the execute and serving path — the
/// operator kernels and their columnar storage, the engine's
/// plan/execute pipeline, and all of the server crate.
fn lock_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/ops")
        || path.starts_with("crates/server/src/")
        || matches!(
            path,
            "crates/core/src/par.rs"
                | "crates/krel/src/batch.rs"
                | "crates/krel/src/typed.rs"
                | "crates/engine/src/exec.rs"
                | "crates/engine/src/opt.rs"
                | "crates/engine/src/view.rs"
        )
}

/// The `lock` finding of one event, if any: an acquisition or stream I/O
/// in a [`lock_scope`] file while a guard is live in the same function.
fn lock_finding(f: &FnInfo, e: &Event) -> Option<Diagnostic> {
    if e.live.is_empty() || !lock_scope(&f.path) {
        return None;
    }
    let (what, why) = match &e.kind {
        EventKind::Acquire(lock) => (
            format!("`{lock}` locked"),
            "drop it first (one guard at a time)",
        ),
        EventKind::Io(method) => (
            format!("stream I/O (`.{method}`)"),
            "a slow peer stalls every session on that lock",
        ),
        EventKind::Call(_) => return None,
    };
    Some(Diagnostic {
        path: f.path.clone(),
        line: e.line,
        rule: "lock",
        message: format!(
            "{what} while the guard acquired on line {} is still live — {why}",
            e.held_since
        ),
    })
}

/// Files whose functions participate in the global lock graph: crate
/// sources only (tests construct deadlocks on purpose).
pub fn lock_order_scope(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

/// Checks nesting and I/O under a guard per function, then
/// acquisition-order cycles and transitive I/O across the call graph.
pub fn check(graph: &SymbolGraph) -> Vec<Diagnostic> {
    let in_scope: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| lock_order_scope(&graph.fns[i].path) && !graph.fns[i].in_test)
        .collect();

    // Fixpoint: the set of locks each function (transitively) acquires,
    // and whether it (transitively) performs stream I/O.
    let mut acquired: Vec<BTreeSet<String>> = vec![BTreeSet::new(); graph.fns.len()];
    let mut does_io: Vec<bool> = vec![false; graph.fns.len()];
    for &i in &in_scope {
        for e in &graph.fns[i].events {
            match &e.kind {
                EventKind::Acquire(lock) => {
                    acquired[i].insert(lock.clone());
                }
                EventKind::Io(_) => does_io[i] = true,
                EventKind::Call(_) => {}
            }
        }
    }
    loop {
        let mut changed = false;
        for &i in &in_scope {
            for e in &graph.fns[i].events {
                let EventKind::Call(callee) = &e.kind else {
                    continue;
                };
                let Some(j) = graph.resolve(callee).filter(|j| in_scope.contains(j)) else {
                    continue;
                };
                if does_io[j] && !does_io[i] {
                    does_io[i] = true;
                    changed = true;
                }
                let extra: Vec<String> = acquired[j].difference(&acquired[i]).cloned().collect();
                if !extra.is_empty() {
                    acquired[i].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edge collection: held-lock → acquired-lock, with one witness site
    // per edge (first in path/line order wins; fns are in file order).
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    let mut out = Vec::new();
    for &i in &in_scope {
        let f = &graph.fns[i];
        for e in &f.events {
            out.extend(lock_finding(f, e));
            let targets: BTreeSet<String> = match &e.kind {
                EventKind::Acquire(lock) => std::iter::once(lock.clone()).collect(),
                EventKind::Call(callee) => {
                    let Some(j) = graph.resolve(callee).filter(|j| in_scope.contains(j)) else {
                        continue;
                    };
                    if !e.live.is_empty() && does_io[j] {
                        out.push(Diagnostic {
                            path: f.path.clone(),
                            line: e.line,
                            rule: "lock-order",
                            message: format!(
                                "call to `{callee}` performs stream I/O (transitively) \
                                 while the `{}` guard is live — a slow peer stalls \
                                 every session on that lock",
                                e.live.join("`/`")
                            ),
                        });
                    }
                    acquired[j].clone()
                }
                EventKind::Io(_) => continue,
            };
            for held in &e.live {
                for target in &targets {
                    if held == target {
                        continue;
                    }
                    edges
                        .entry((held.clone(), target.clone()))
                        .or_insert_with(|| (f.path.clone(), e.line, f.name.clone()));
                }
            }
        }
    }

    // Cycle detection over the edge graph (tiny: one node per lock
    // name). Report each 2+-lock cycle once, at the lexicographically
    // first witness edge on it.
    let nodes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let succ = |n: &String| -> Vec<&String> {
        edges
            .keys()
            .filter(|(a, _)| a == n)
            .map(|(_, b)| b)
            .collect()
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in &nodes {
        // DFS from `start` looking for a path back to it.
        let mut stack: Vec<(&String, Vec<String>)> = vec![(start, vec![(*start).clone()])];
        while let Some((n, path)) = stack.pop() {
            for next in succ(n) {
                if next == *start && path.len() >= 2 {
                    let mut cycle = path.clone();
                    let mut canonical = cycle.clone();
                    canonical.sort();
                    if reported.insert(canonical) {
                        cycle.push((*start).clone());
                        let (wpath, wline, wfn) = &edges[&(path[0].clone(), path[1].clone())];
                        out.push(Diagnostic {
                            path: wpath.clone(),
                            line: *wline,
                            rule: "lock-order",
                            message: format!(
                                "lock acquisition cycle {} (witness: `{wfn}` takes \
                                 `{}` while holding `{}`) — pin one global order \
                                 (see docs/ARCHITECTURE.md)",
                                cycle.join(" → "),
                                path[1],
                                path[0],
                            ),
                        });
                    }
                } else if !path.contains(next) {
                    let mut p = path.clone();
                    p.push(next.clone());
                    stack.push((next, p));
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SourceFile, Workspace};

    fn run(files: Vec<(&str, &str)>) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: files
                .into_iter()
                .map(|(p, s)| SourceFile::new(p, s))
                .collect(),
        };
        check(&SymbolGraph::build(&ws))
    }

    /// The `lock` findings on one serving-path file.
    fn locks(src: &str) -> Vec<Diagnostic> {
        let mut d = run(vec![("crates/server/src/server.rs", src)]);
        d.retain(|x| x.rule == "lock");
        d
    }

    #[test]
    fn nested_guards_are_flagged() {
        let src = "fn f(&self) {\n\
                   let db = self.db.read();\n\
                   let cache = self.cache.lock();\n\
                   }\n";
        let d = locks(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("line 2"), "{}", d[0].message);
    }

    #[test]
    fn drop_ends_the_guard() {
        let src = "fn f(&self) {\n\
                   let db = self.db.read();\n\
                   drop(db);\n\
                   let cache = self.cache.lock();\n\
                   }\n";
        assert!(locks(src).is_empty());
    }

    #[test]
    fn scope_close_ends_the_guard() {
        let src = "fn f(&self) {\n\
                   { let db = self.db.read(); use_it(&db); }\n\
                   let cache = self.cache.lock();\n\
                   }\n";
        assert!(locks(src).is_empty());
    }

    #[test]
    fn io_under_a_guard_is_flagged() {
        let src = "fn f(&self, w: &mut TcpStream) {\n\
                   let db = self.db.read();\n\
                   w.write_all(b\"x\");\n\
                   }\n";
        let d = locks(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("stream I/O"));
    }

    #[test]
    fn io_read_write_are_not_acquisitions() {
        let src = "fn f(r: &mut TcpStream) {\n\
                   let mut buf = [0u8; 4];\n\
                   r.read(&mut buf);\n\
                   r.write(&buf);\n\
                   r.flush();\n\
                   }\n";
        assert!(locks(src).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn f(&self) {\n\
                   touch(self.a.lock());\n\
                   touch(self.b.lock());\n\
                   }\n";
        // Neither acquisition is let-bound, so each guard is a
        // temporary dead at its own `;`.
        assert!(locks(src).is_empty());
    }

    #[test]
    fn lock_findings_stop_at_the_serving_path() {
        // `engine::database` nests db → cache on purpose; that pair is
        // `lock-order`'s to judge, not `lock`'s.
        let src = "fn f(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n";
        let d = run(vec![("crates/engine/src/database.rs", src)]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn opposite_order_in_two_fns_is_a_cycle() {
        let src = "\
impl S {
    fn forward(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
    }
    fn backward(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
    }
}
";
        let d = run(vec![("crates/server/src/x.rs", src)]);
        let cycles: Vec<&Diagnostic> = d.iter().filter(|x| x.message.contains("cycle")).collect();
        assert_eq!(cycles.len(), 1, "{d:?}");
        assert!(cycles[0].message.contains("alpha"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("beta"), "{}", cycles[0].message);
    }

    #[test]
    fn consistent_order_is_clean_and_interprocedural_cycle_fires() {
        let consistent = "\
impl S {
    fn one(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
    fn two(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
}
";
        assert!(run(vec![("crates/engine/src/x.rs", consistent)]).is_empty());

        // The cycle only closes through the call graph: `backward` takes
        // beta then *calls* a helper that takes alpha.
        let a = "\
impl S {
    fn forward(&self) { let a = self.alpha.lock(); self.take_beta(); }
    fn take_beta(&self) { let b = self.beta.lock(); }
}
";
        let b = "\
impl T {
    fn backward(&self) { let b = self.beta.lock(); self.take_alpha(); }
    fn take_alpha(&self) { let a = self.alpha.lock(); }
}
";
        let d = run(vec![
            ("crates/engine/src/a.rs", a),
            ("crates/server/src/b.rs", b),
        ]);
        assert!(
            d.iter().any(|x| x.message.contains("cycle")),
            "interprocedural cycle not found: {d:?}"
        );
    }

    #[test]
    fn transitive_io_under_guard_fires_at_the_call_site() {
        let src = "\
impl S {
    fn handler(&self, s: &mut TcpStream) {
        let g = self.conns.lock();
        self.respond(s);
    }
    fn respond(&self, s: &mut TcpStream) {
        s.write_all(b\"ok\");
    }
}
";
        let d = run(vec![("crates/server/src/x.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("respond"), "{}", d[0].message);
        assert!(d[0].message.contains("conns"), "{}", d[0].message);
    }

    #[test]
    fn test_functions_do_not_participate() {
        let src = "\
#[cfg(test)]
mod tests {
    fn forward(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
    fn backward(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }
}
";
        assert!(run(vec![("crates/server/src/x.rs", src)]).is_empty());
    }
}
