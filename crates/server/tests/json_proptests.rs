//! Never-panic and round-trip properties for the wire protocol's JSON
//! parser. Request lines come straight off a socket, so `Json::parse`
//! must answer `Ok` or `Err` on *any* string — the inputs here are
//! biased toward what a hand-rolled string scanner gets wrong: quotes,
//! backslashes, `\u` escapes with good and bad hex, surrogate halves in
//! every pairing, and multi-byte UTF-8 next to all of them.

use aggprov_server::Json;
use proptest::prelude::*;

/// Input fragments, concatenated in random order.
const FRAGMENTS: [&str; 32] = [
    "\"",
    "\\",
    "\\\"",
    "\\\\",
    "\\u",
    "\\u0041",
    "\\u00e9",
    "\\ud800",
    "\\udbff",
    "\\udc00",
    "\\udfff",
    "\\ud83d\\ude00",
    "\\uD83D",
    "\\u+041",
    "\\u12",
    "\\x",
    "\\n",
    "0041",
    "g",
    "é",
    "δ⊗",
    "😀",
    "\u{7f}",
    "\t",
    " ",
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "-1e5",
];

fn fragments(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..max)
        .prop_map(|parts| parts.concat())
}

/// Characters for generated string *values*: everything the writer must
/// escape, plus multi-byte and astral scalars.
const CHARS: [char; 20] = [
    '"',
    '\\',
    '/',
    'u',
    'd',
    '8',
    '0',
    'a',
    ' ',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\u{1}',
    'é',
    '⊗',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn string() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(CHARS.to_vec()), 0..10)
        .prop_map(|chars| chars.into_iter().collect())
}

fn leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        prop::bool::ANY.prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        // Non-integral, so the rendering stays a float on the way back.
        (-1000i64..1000).prop_map(|n| Json::Float(n as f64 + 0.5)),
        string().prop_map(Json::Str),
    ]
}

/// One level of nesting over `inner`: the value itself, an array of
/// them, or an object of them.
fn nest(inner: fn() -> BoxedStrategy<Json>) -> BoxedStrategy<Json> {
    prop_oneof![
        inner(),
        prop::collection::vec(inner(), 0..4).prop_map(Json::Arr),
        prop::collection::vec((string(), inner()), 0..4)
            .prop_map(|pairs| Json::Obj(pairs.into_iter().collect())),
    ]
    .boxed()
}

fn value() -> BoxedStrategy<Json> {
    nest(|| nest(|| leaf().boxed()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics(s in fragments(16)) {
        // Bare, and inside a string literal (where most fragments land in
        // the escape scanner). Either outcome is fine; unwinding is not.
        for text in [s.clone(), format!("\"{s}\""), format!("[\"{s}")] {
            match Json::parse(&text) {
                // Whatever parsed renders to something that parses.
                Ok(v) => prop_assert!(Json::parse(&v.to_string()).is_ok(), "{text:?}"),
                Err(msg) => prop_assert!(!msg.is_empty()),
            }
        }
    }

    #[test]
    fn display_then_parse_is_the_identity(v in value()) {
        let text = v.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(v), "{}", text);
    }
}
