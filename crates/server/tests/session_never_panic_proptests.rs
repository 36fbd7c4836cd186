//! Never-panic properties for `Session::handle_line`, with no socket:
//! whatever line arrives, the session answers one JSON object with a
//! boolean `ok`, and echoes the request's `id` whenever the line parsed.
//! The inputs are every op name crossed with a soup of wrongly-typed
//! fields, truncated prefixes of valid requests, and handles used after
//! their `close`.

use aggprov_engine::ProvDb;
use aggprov_server::{Json, Op, Session};
use proptest::prelude::*;
use std::sync::{Arc, RwLock};

const SEED: &str = "CREATE TABLE emp (dept TEXT, sal NUM);
    INSERT INTO emp VALUES ('d1', 20) PROVENANCE p1;
    INSERT INTO emp VALUES ('d1', 10) PROVENANCE p2;
    INSERT INTO emp VALUES ('d2', 15) PROVENANCE p3;";

const GROUPED: &str = "SELECT dept, SUM(sal) AS total FROM emp GROUP BY dept";

/// A session over a fresh seeded database with a view `mass`, holding
/// statement handle 1 and stored result handle 2.
fn session() -> Session {
    let mut db = ProvDb::new();
    db.exec(SEED).expect("seed");
    db.materialize("mass", GROUPED).expect("materialize");
    let mut s = Session::new(Arc::new(RwLock::new(db)));
    let prepare = r#"{"op":"prepare","sql":"SELECT sal FROM emp WHERE dept = $1"}"#;
    let store = format!(r#"{{"op":"query","sql":"{GROUPED}","store":true}}"#);
    for (line, handle) in [(prepare, ("stmt", 1)), (store.as_str(), ("result", 2))] {
        let reply = check(&mut s, line);
        assert_eq!(reply.get(handle.0), Some(&Json::Int(handle.1)), "{reply}");
    }
    s
}

/// Sends `line` and checks the reply's shape: one object, a boolean
/// `ok`, and the request's `id` (null when absent) whenever `line`
/// parses.
fn check(s: &mut Session, line: &str) -> Json {
    let (reply, _) = s.handle_line(line);
    assert!(matches!(reply, Json::Obj(_)), "{line:?} → {reply}");
    assert!(
        matches!(reply.get("ok"), Some(Json::Bool(_))),
        "{line:?} → {reply}"
    );
    if let Ok(req) = Json::parse(line) {
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        assert_eq!(reply.get("id"), Some(&id), "{line:?} → {reply}");
    }
    reply
}

/// Every op name, plus names and values the table does not know.
fn op() -> impl Strategy<Value = Option<Json>> {
    let mut ops: Vec<Option<Json>> = Op::ALL
        .iter()
        .map(|op| Some(Json::str(op.name())))
        .collect();
    ops.extend([Some(Json::str("frobnicate")), Some(Json::Int(1)), None]);
    prop::sample::select(ops)
}

fn id() -> impl Strategy<Value = Option<Json>> {
    prop::sample::select(vec![
        None,
        Some(Json::Int(7)),
        Some(Json::str("seven")),
        Some(Json::Null),
        Some(Json::Arr(vec![Json::Int(7)])),
    ])
}

/// The request fields the ops read.
const FIELDS: [&str; 12] = [
    "stmt",
    "result",
    "args",
    "store",
    "tokens",
    "sql",
    "name",
    "bindings",
    "default",
    "levels",
    "cred",
    "default_level",
];

/// Field values: live, unknown, negative, huge and wrongly-typed
/// handles; every JSON type; SQL that plans, fails or writes; token
/// arrays that are not all strings; binding and level maps with bad
/// entries.
fn value() -> impl Strategy<Value = Json> {
    prop::sample::select(vec![
        Json::Int(1),
        Json::Int(2),
        Json::Int(0),
        Json::Int(-1),
        Json::Int(i64::MIN),
        Json::Int(i64::MAX),
        Json::str("1"),
        Json::Float(2.5),
        Json::Null,
        Json::Bool(true),
        Json::Bool(false),
        Json::Arr(vec![]),
        Json::Arr(vec![Json::str("d1")]),
        Json::Arr(vec![Json::Int(1), Json::Null, Json::Arr(vec![])]),
        Json::Arr(vec![Json::str("p1"), Json::Bool(true)]),
        Json::obj([]),
        Json::obj([("p1", Json::Int(0))]),
        Json::obj([("p1", Json::Int(-1))]),
        Json::obj([("p1", Json::str("S")), ("p2", Json::str("Q"))]),
        Json::str("SELECT sal FROM emp WHERE dept = $1"),
        Json::str(GROUPED),
        Json::str("SELEKT"),
        Json::str("INSERT INTO emp VALUES ('d3', 5) PROVENANCE p4"),
        Json::str("DROP TABLE emp"),
        Json::str("mass"),
        Json::str("C"),
        Json::str("NEVER"),
        Json::str(""),
    ])
}

/// One request object from the soup.
fn request() -> impl Strategy<Value = Json> {
    let fields = prop::collection::vec((0..FIELDS.len(), value()), 0..5);
    (op(), id(), fields).prop_map(|(op, id, fields)| {
        let fields = fields
            .into_iter()
            .filter_map(|(i, v)| Some((*FIELDS.get(i)?, v)));
        let head = [("op", op), ("id", id)];
        Json::obj(
            head.into_iter()
                .filter_map(|(k, v)| Some((k, v?)))
                .chain(fields),
        )
    })
}

/// Valid request lines, ASCII only, so every byte offset is a cut point.
const VALID: [&str; 8] = [
    r#"{"id":1,"op":"ping"}"#,
    r#"{"id":2,"op":"execute","stmt":1,"args":["d1"],"store":true}"#,
    r#"{"id":3,"op":"valuate","result":2,"bindings":{"p1":0},"default":1}"#,
    r#"{"id":4,"op":"clearance","result":2,"cred":"C","levels":{"p1":"S"}}"#,
    r#"{"id":"five","op":"delete_tokens","result":2,"tokens":["p1"],"store":true}"#,
    r#"{"id":[6],"op":"query","sql":"SELECT dept FROM emp WHERE sal > 12"}"#,
    r#"{"id":null,"op":"view","name":"mass","store":true}"#,
    r#"{"id":8,"op":"close","result":2}"#,
];

#[test]
fn the_valid_lines_are_valid() {
    for line in VALID {
        let reply = check(&mut session(), line);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line} → {reply}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_op_with_a_soup_of_fields_answers_a_frame(requests in prop::collection::vec(request(), 1..6)) {
        let mut s = session();
        for req in requests {
            check(&mut s, &req.to_string());
        }
        let pong = check(&mut s, r#"{"op":"ping"}"#);
        prop_assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn truncated_requests_answer_a_frame(which in 0..VALID.len(), cut in 0usize..90) {
        let mut s = session();
        let line = VALID.get(which).copied().unwrap_or_default();
        let prefix = line.get(..cut.min(line.len())).unwrap_or_default();
        let reply = check(&mut s, prefix);
        if cut < line.len() {
            prop_assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{}", prefix);
        }
        let pong = check(&mut s, r#"{"op":"ping"}"#);
        prop_assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    }
}

#[test]
fn handles_are_dead_after_close() {
    let mut s = session();
    for line in [r#"{"op":"close","stmt":1}"#, r#"{"op":"close","result":2}"#] {
        let reply = check(&mut s, line);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    }
    for &op in Op::ALL {
        let line = Json::obj([
            ("id", Json::Int(9)),
            ("op", Json::str(op.name())),
            ("stmt", Json::Int(1)),
            ("result", Json::Int(2)),
            ("args", Json::Arr(vec![Json::str("d1")])),
            ("tokens", Json::Arr(vec![Json::str("p1")])),
            ("cred", Json::str("C")),
        ])
        .to_string();
        let reply = check(&mut s, &line);
        if matches!(
            op,
            Op::Execute | Op::Valuate | Op::DeleteTokens | Op::Clearance | Op::Close
        ) {
            let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
            assert!(error.contains("unknown"), "{op:?} after close → {reply}");
        }
    }
}
