//! The `--json` output contract: whatever `analysis::json::render`
//! emits must parse with the server's vendored JSON module and carry
//! the findings losslessly — rule, path, line, message, and the counts
//! object. The two printers share escaping conventions;
//! this test is what keeps that sentence true.

use aggprov_server::Json;
use analysis::json::render;
use analysis::Diagnostic;

fn diag(rule: &'static str, path: &str, line: u32, message: &str) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line,
        rule,
        message: message.to_string(),
    }
}

#[test]
fn rendered_report_round_trips_through_the_server_parser() {
    let text = render(&[
        diag(
            "lock",
            "crates/engine/src/exec.rs",
            5,
            "don't \"nest\" on the execute path\n(second line)",
        ),
        diag(
            "oracle",
            "crates/core/src/ops.rs",
            9,
            "no proptest calls:\t`specops::flush`",
        ),
    ]);
    let v = Json::parse(&text).expect("server parser accepts --json output");

    let findings = v.get("findings").and_then(Json::as_arr).unwrap();
    assert_eq!(findings.len(), 2);
    let f0 = &findings[0];
    assert_eq!(f0.get("rule").and_then(Json::as_str), Some("lock"));
    assert_eq!(
        f0.get("path").and_then(Json::as_str),
        Some("crates/engine/src/exec.rs")
    );
    assert_eq!(f0.get("line").and_then(Json::as_int), Some(5));
    assert_eq!(
        f0.get("message").and_then(Json::as_str),
        Some("don't \"nest\" on the execute path\n(second line)")
    );
    assert_eq!(
        findings[1].get("message").and_then(Json::as_str),
        Some("no proptest calls:\t`specops::flush`")
    );

    let counts = v.get("counts").unwrap();
    assert_eq!(counts.get("findings").and_then(Json::as_int), Some(2));
}

#[test]
fn empty_report_parses_to_empty_arrays() {
    let v = Json::parse(&render(&[])).unwrap();
    assert_eq!(v.get("findings").and_then(Json::as_arr), Some(&[][..]));
    assert_eq!(
        v.get("counts")
            .and_then(|c| c.get("findings"))
            .and_then(Json::as_int),
        Some(0)
    );
}
