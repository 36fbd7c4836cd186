//! Phase 1: the workspace **symbol graph**.
//!
//! One pass over every scanned file builds the whole-program facts the
//! graph-aware rules (phase 2) consume:
//!
//! - every function item with its body span and declaration line;
//! - an approximate **call graph** from name resolution: a `name(` or
//!   `.name(` call site resolves to a workspace function iff exactly one
//!   workspace function bears that name (ambiguous names and std-library
//!   methods resolve to nothing — the analysis under-approximates rather
//!   than guesses);
//! - per-function **guard events**: each `.lock()` / `.read()` /
//!   `.write()` acquisition (empty argument lists — the `Mutex`/`RwLock`
//!   methods take none), each stream-I/O call, and each resolvable call,
//!   all annotated with the set of guards live at that point — a guard
//!   lives to the close of its scope if `let`-bound, to the end of its
//!   statement if a temporary, or to its `drop(guard)`; both lock rules
//!   read these events, so there is one lifetime model.
//!
//! Approximation limits, by design (documented in
//! `docs/ARCHITECTURE.md`): no trait-object or closure resolution, no
//! generic instantiation, field-name-based lock identity (`self.db` and
//! `other.db` are the same lock "db" — in this workspace each lock field
//! name is used for exactly one lock). A bare `self.read()` with no
//! named field is treated as a *call* (the `PlanCache::read` wrapper
//! idiom), not an acquisition, so wrapper methods resolve through the
//! call graph to the real acquisition inside them.

use crate::lexer::{Tok, Token};
use crate::{SourceFile, Workspace};
use std::collections::BTreeMap;

/// Method names that perform (possibly blocking) stream I/O.
pub const IO_METHODS: &[&str] = &[
    "write_all",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "read_until",
    "flush",
];

/// True iff a `.name(` call is stream I/O: a known I/O method, or
/// `read`/`write` with a non-empty argument list (the `io` traits take
/// buffers; the lock methods take nothing).
pub fn is_io(name: &str, after_open: Option<&Tok>) -> bool {
    if IO_METHODS.contains(&name) {
        return true;
    }
    (name == "read" || name == "write") && !after_open.is_some_and(|t| t.is(b')'))
}

/// What happened at one point inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A guard acquisition on the named lock (the receiver's last field
    /// name).
    Acquire(String),
    /// A call that resolved to the named workspace function (unique-name
    /// resolution).
    Call(String),
    /// Direct stream I/O via the named method.
    Io(String),
}

/// One event, with the guards live immediately **before** it (so an
/// acquisition that is also a wrapper call does not order against
/// itself).
#[derive(Clone, Debug)]
pub struct Event {
    /// 1-based line of the event.
    pub line: u32,
    /// Lock names of guards live when the event fires, outermost first.
    pub live: Vec<String>,
    /// The line the outermost live guard was acquired on (0 when none
    /// is live).
    pub held_since: u32,
    /// What the event is.
    pub kind: EventKind,
}

/// One function item in the workspace.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the item lies under `#[cfg(test)]` / `#[test]`.
    pub in_test: bool,
    /// Guard/call/I-O events in body order.
    pub events: Vec<Event>,
}

/// The phase-1 result: every function and resolvable call edge in the
/// workspace.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// All function items, in file/offset order.
    pub fns: Vec<FnInfo>,
    /// Function name → indices into `fns` bearing it (resolution is only
    /// trusted when the list has exactly one entry).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolGraph {
    /// Builds the symbol graph for a loaded workspace.
    pub fn build(ws: &Workspace) -> SymbolGraph {
        let mut g = SymbolGraph::default();
        for f in &ws.files {
            collect_fns(f, &mut g.fns);
        }
        for (i, f) in g.fns.iter().enumerate() {
            g.by_name.entry(f.name.clone()).or_default().push(i);
        }
        g
    }

    /// The index of the unique workspace function named `name`, if the
    /// name resolves unambiguously.
    pub fn resolve(&self, name: &str) -> Option<usize> {
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([only]) => Some(*only),
            _ => None,
        }
    }
}

/// Collects function items and walks each body for events.
fn collect_fns(f: &SourceFile, out: &mut Vec<FnInfo>) {
    let toks = &f.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].tok.is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.tok.ident()) else {
            i += 1;
            continue;
        };
        // Find the body `{` (trait method declarations end in `;`).
        let Some(open) = body_open(f, i + 2) else {
            i += 2;
            continue;
        };
        let close = f.matches[open];
        if close == usize::MAX {
            i += 2;
            continue;
        }
        let mut info = FnInfo {
            path: f.path.clone(),
            name: name.to_string(),
            line: toks[i].line,
            in_test: f.in_test(i),
            events: Vec::new(),
        };
        walk_body(f, open, close, &mut info);
        out.push(info);
        // Nested fns are rare and benign to re-walk; skip the whole body
        // so inner closures' tokens aren't scanned twice at top level.
        i = close + 1;
    }
}

/// Skips a fn signature from just after the name to its body `{`.
/// `None` when the item has no body. Brackets inside the signature
/// (parameter lists, slices, parenthesized types) are jumped via the
/// match map so a `{` inside a default-expression cannot mislead.
fn body_open(f: &SourceFile, mut j: usize) -> Option<usize> {
    let toks = &f.tokens;
    let mut angle = 0i32;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct(b'{') if angle == 0 => return Some(j),
            Tok::Punct(b';') if angle == 0 => return None,
            Tok::Punct(b'<') => angle += 1,
            Tok::Punct(b'>') if angle > 0 && !toks[j - 1].tok.is(b'-') => angle -= 1,
            Tok::Punct(b'(' | b'[') => {
                let c = f.matches[j];
                if c != usize::MAX {
                    j = c;
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// A live guard inside `walk_body`: its binding (if `let`-bound), the
/// lock name it holds, the brace depth of the acquisition, and whether
/// it is a temporary dropped at statement end.
struct Guard {
    binding: Option<String>,
    lock: String,
    line: u32,
    depth: i32,
    temporary: bool,
}

/// Walks one fn body, recording acquisition/call/I-O events with live
/// guard sets. Guard lifetimes: scope close
/// kills deeper guards, `;` kills temporaries, `drop(name)` kills a named
/// guard.
fn walk_body(f: &SourceFile, open: usize, close: usize, info: &mut FnInfo) {
    let toks = &f.tokens;
    let mut depth: i32 = 0;
    let mut live: Vec<Guard> = Vec::new();
    let mut stmt_start = open + 1;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        match &t.tok {
            Tok::Punct(b'{') => {
                depth += 1;
                stmt_start = i + 1;
            }
            Tok::Punct(b'}') => {
                depth -= 1;
                live.retain(|g| g.depth <= depth);
                stmt_start = i + 1;
            }
            Tok::Punct(b';') => {
                live.retain(|g| !(g.temporary && g.depth == depth));
                stmt_start = i + 1;
            }
            Tok::Ident(name)
                if name == "drop" && toks.get(i + 1).is_some_and(|n| n.tok.is(b'(')) =>
            {
                if let Some(arg) = toks.get(i + 2).and_then(|a| a.tok.ident()) {
                    live.retain(|g| g.binding.as_deref() != Some(arg));
                }
            }
            Tok::Ident(name) if toks.get(i + 1).is_some_and(|n| n.tok.is(b'(')) => {
                let method = i > 0 && toks[i - 1].tok.is(b'.');
                let empty_args = toks.get(i + 2).is_some_and(|n| n.tok.is(b')'));
                let event = |kind| Event {
                    line: t.line,
                    live: live.iter().map(|g| g.lock.clone()).collect(),
                    held_since: live.first().map_or(0, |g| g.line),
                    kind,
                };
                if method
                    && empty_args
                    && matches!(name.as_str(), "lock" | "read" | "write")
                    && receiver_field(toks, i).is_some()
                {
                    // `.lock()` / `.read()` / `.write()` on a named
                    // field: an acquisition.
                    let lock = receiver_field(toks, i).unwrap_or_default();
                    info.events.push(event(EventKind::Acquire(lock.clone())));
                    let binding = let_binding(toks, stmt_start, i);
                    live.push(Guard {
                        temporary: binding.is_none(),
                        binding,
                        lock,
                        line: t.line,
                        depth,
                    });
                } else if method && is_io(name, toks.get(i + 2).map(|n| &n.tok)) {
                    info.events.push(event(EventKind::Io(name.clone())));
                } else if !(KEYWORD_CALLS.contains(&name.as_str())
                    || method && STD_METHODS.contains(&name.as_str()))
                {
                    // A plain or method call — the callee is recorded by
                    // name; rules resolve it through the graph. Method
                    // calls bearing well-known std names are dropped:
                    // `conn.shutdown(..)` is `TcpStream::shutdown`, and
                    // resolving it to a same-named workspace fn would
                    // fabricate edges.
                    info.events.push(event(EventKind::Call(name.clone())));
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Keywords and macro-like identifiers a `name(` sequence must not treat
/// as calls.
const KEYWORD_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "impl", "loop", "move", "drop",
];

/// Std method names whose `.name(` call sites never resolve to workspace
/// functions, even when a workspace fn happens to share the name
/// (`TcpStream::shutdown` vs. `Client::shutdown`, `JoinHandle::join` vs.
/// a join operator). Unique-name resolution is the approximation; this
/// list plugs its known collisions with the standard library.
const STD_METHODS: &[&str] = &[
    "shutdown", "join", "push", "pop", "insert", "remove", "get", "len", "clone", "drain", "iter",
    "send", "recv", "wait", "spawn", "take", "parse", "finish", "next", "collect", "extend",
];

/// The receiver's last field name for a `.method(` at token `i`: the
/// identifier before the `.`, unless it is `self` (a bare `self.read()`
/// is a wrapper *call*, not an acquisition on a named lock).
fn receiver_field(toks: &[Token], i: usize) -> Option<String> {
    if i < 2 || !toks[i - 1].tok.is(b'.') {
        return None;
    }
    let name = toks[i - 2].tok.ident()?;
    if name == "self" {
        return None;
    }
    Some(name.to_string())
}

/// If the statement beginning at `stmt_start` is `let [mut] NAME = ...`,
/// returns NAME.
fn let_binding(toks: &[Token], stmt_start: usize, before: usize) -> Option<String> {
    let mut j = stmt_start;
    while j < before && !toks[j].tok.is_ident("let") {
        j += 1;
    }
    if j >= before {
        return None;
    }
    let mut k = j + 1;
    if toks.get(k).is_some_and(|t| t.tok.is_ident("mut")) {
        k += 1;
    }
    toks.get(k).and_then(|t| t.tok.ident()).map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn graph(files: Vec<(&str, &str)>) -> SymbolGraph {
        let ws = Workspace {
            files: files
                .into_iter()
                .map(|(p, s)| SourceFile::new(p, s))
                .collect(),
        };
        SymbolGraph::build(&ws)
    }

    #[test]
    fn fns_and_unique_resolution() {
        let g = graph(vec![
            ("a.rs", "fn alpha() { beta(); }\nfn beta() {}\n"),
            ("b.rs", "fn beta() {}\n"),
        ]);
        assert_eq!(g.fns.len(), 3);
        assert!(g.resolve("alpha").is_some());
        assert!(
            g.resolve("beta").is_none(),
            "ambiguous names must not resolve"
        );
        let alpha = &g.fns[g.resolve("alpha").unwrap()];
        assert_eq!(alpha.events.len(), 1);
        assert_eq!(alpha.events[0].kind, EventKind::Call("beta".into()));
    }

    #[test]
    fn acquisitions_record_live_sets_and_wrappers_are_calls() {
        let src = "\
impl S {
    fn read(&self) -> G { self.inner.read() }
    fn f(&self) {
        let db = self.db.write();
        let c = self.cache.lock();
        drop(c);
        drop(db);
        self.other.read();
    }
}
";
        let g = graph(vec![("x.rs", src)]);
        let read = &g.fns[g.resolve("read").unwrap()];
        // Inside the wrapper, the acquisition is on `inner` with nothing
        // live — and `self.read()` elsewhere is a call, not an acquire.
        assert_eq!(read.events[0].kind, EventKind::Acquire("inner".into()));
        assert!(read.events[0].live.is_empty());
        let f = &g.fns[g.resolve("f").unwrap()];
        let kinds: Vec<&EventKind> = f.events.iter().map(|e| &e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &EventKind::Acquire("db".into()),
                &EventKind::Acquire("cache".into()),
                &EventKind::Acquire("other".into()),
            ]
        );
        assert_eq!(f.events[1].live, vec!["db".to_string()]);
        assert!(f.events[2].live.is_empty(), "drops must clear the live set");
    }

    #[test]
    fn io_events_and_guarded_calls() {
        let src = "\
fn f(&self, s: &mut TcpStream) {
    let g = self.conns.lock();
    helper();
    s.write_all(b\"x\");
}
fn helper() {}
";
        let g = graph(vec![("x.rs", src)]);
        let f = &g.fns[g.resolve("f").unwrap()];
        let call = f
            .events
            .iter()
            .find(|e| e.kind == EventKind::Call("helper".into()))
            .unwrap();
        assert_eq!(call.live, vec!["conns".to_string()]);
        let io = f
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Io(_)))
            .unwrap();
        assert_eq!(io.live, vec!["conns".to_string()]);
    }
}
