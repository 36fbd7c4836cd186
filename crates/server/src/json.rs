//! A minimal JSON value, parser and writer for the wire protocol.
//!
//! The build environment is offline (no serde), and the protocol only
//! needs scalars, arrays and string-keyed objects, so this is a small
//! hand-rolled recursive-descent parser over one line of input plus an
//! escaping writer. Integers are kept exact (`i64`) and separate from
//! floats so statement parameters round-trip without loss.

use std::collections::BTreeMap;
use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one hostile line of `[[[[…`
/// overflows the connection thread's stack and aborts the whole server;
/// no protocol message nests deeper than a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that parsed as an exact integer.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an exact integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Parses one JSON value from the full input (trailing garbage is an
    /// error — the protocol sends exactly one value per line, and so is
    /// nesting deeper than [`MAX_DEPTH`]).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Writes the value and its terminating newline as **one** `write`
    /// (then flushes). Both ends of the protocol send a line this way: a
    /// `Display` written straight onto a socket leaves as one tiny
    /// segment per token and stalls on Nagle + delayed ACK.
    pub fn write_line(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        let line = format!("{self}\n");
        w.write_all(line.as_bytes())?;
        w.flush()
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    // JSON has no Inf/NaN; null is the least-bad encoding.
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`; every successful step leaves it on a
    /// character boundary.
    pos: usize,
    /// How many arrays/objects enclose `pos` (bounded by [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        let rest = self.bytes().get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of ordinary characters up to the next quote or
            // backslash in one slice. Both delimiters are ASCII, so the
            // run ends on a character boundary.
            let rest = self.bytes().get(self.pos..).unwrap_or(&[]);
            let run = rest
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .ok_or("unterminated string")?;
            let text = self
                .src
                .get(self.pos..self.pos + run)
                .ok_or("invalid utf-8")?;
            out.push_str(text);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            // The run ended at a backslash.
            let esc = self
                .bytes()
                .get(self.pos + 1)
                .copied()
                .ok_or("unterminated escape")?;
            self.pos += 2;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000c}'),
                b'u' => {
                    let hex = self
                        .bytes()
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or("bad \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    self.pos += 4;
                    // Surrogate pairs: 😀 etc.
                    let c = if (0xd800..0xdc00).contains(&code) {
                        let low = self
                            .bytes()
                            .get(self.pos..self.pos + 6)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| h.strip_prefix("\\u"))
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .filter(|low| (0xdc00..0xe000).contains(low))
                            .ok_or("unpaired surrogate")?;
                        self.pos += 6;
                        let joined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        char::from_u32(joined).ok_or("bad surrogate pair")?
                    } else {
                        char::from_u32(code).ok_or("bad \\u code point")?
                    };
                    out.push(c);
                }
                _ => return Err(format!("bad escape '\\{}'", esc as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let digits = self.bytes().get(start..self.pos).unwrap_or(&[]);
        let text = std::str::from_utf8(digits).map_err(|_| "invalid number")?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number '{text}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "123456789012345"] {
            assert_eq!(Json::parse(text).unwrap().to_string(), text);
        }
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::str("a \"b\"\n\tc \\ d");
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(
            Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::str("é😀")
        );
    }

    #[test]
    fn nested_values_round_trip() {
        let text = r#"{"args":[1,"x",true,null],"id":7,"op":"execute"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("execute"));
        assert_eq!(v.get("id").and_then(Json::as_int), Some(7));
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn garbage_is_rejected() {
        for text in ["", "{", "[1,", "\"abc", "1 2", "{'a':1}", "nul"] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn broken_surrogates_are_errors_not_panics() {
        // A high half followed by a non-low escape, a lone low half, and
        // a pair cut off after `\u`.
        for (text, why) in [
            ("\"\\ud800\\u0041\"", "unpaired surrogate"),
            ("\"\\udc00\"", "bad \\u code point"),
            ("\"\\ud800\\u", "unpaired surrogate"),
        ] {
            assert_eq!(Json::parse(text), Err(why.to_string()), "{text:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 200 KB of string-heavy input, multi-byte characters and escapes
        // included. Re-validating the remaining input per character made
        // this quadratic (~10 s); one pass is a few milliseconds, so the
        // bound is generous on any host.
        let cell = Json::str("δ(p1 + p2)·⟨x⊗20⟩ \"quoted\" \\ tab\t");
        let doc = Json::Arr(vec![cell; 4500]);
        let text = doc.to_string();
        assert!(text.len() > 200_000, "{} bytes", text.len());
        let started = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed, doc);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // One 20 KB line; unbounded recursion overflowed the 2 MiB stack
        // of a connection thread and aborted the process.
        let check = || {
            for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
                let text = format!("{}1{}", open.repeat(10_000), close.repeat(10_000));
                let err = Json::parse(&text).unwrap_err();
                assert!(err.contains("nesting deeper than 128"), "{err}");
            }
            let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
            assert!(Json::parse(&deepest).is_ok(), "the limit itself parses");
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(check)
            .unwrap()
            .join()
            .unwrap();
    }

    /// A sink that records each `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_reaches_the_sink_in_one_write() {
        let v = Json::obj([
            ("id", Json::Int(7)),
            ("rows", Json::Arr(vec![Json::str("a"); 3])),
        ]);
        let mut sink = CountingWriter::default();
        v.write_line(&mut sink).unwrap();
        assert_eq!(sink.writes, vec![format!("{v}\n").into_bytes()]);
    }
}
