//! A dependency-free JSON value: compact writer and strict parser.
//!
//! The build environment is offline, so virgil-rs cannot pull `serde`. All
//! machine-readable output (`vglc stats --json`, the daemon trace, bench
//! exports) goes through this module, and tests parse it back with
//! [`parse`] to assert shape.

use std::fmt;

/// A JSON value. Object keys keep insertion order (stable output).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers render without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// A value with one JSON rendering. Stats structs get theirs from
/// [`crate::stats!`]: an object with every field under its own name.
pub trait ToJson {
    /// The value as JSON.
    fn to_json(&self) -> Json;
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Sets `key` on an object (replaces an existing key, preserves order).
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(entries) = self else {
            panic!("Json::set on non-object");
        };
        if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            entries.push((key.to_string(), value));
        }
    }

    /// [`Json::set`] by value, for building an object in one expression.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn with(mut self, key: &str, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Looks up `key` on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a u64 (rounded), when numeric and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact rendering (no whitespace).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_num(v: f64, out: &mut String) {
    if v.is_finite() && v == v.trunc() && v.abs() < 9e15 {
        out.push_str(&format!("{}", v as i64));
    } else if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        // JSON has no NaN/Inf; degrade to null.
        out.push_str("null");
    }
}

fn render_into(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) => render_num(*v, out),
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        render_into(self, &mut s);
        f.write_str(&s)
    }
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, nothing
/// else after the value).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex_escape()?;
                            match code {
                                // High surrogate: must be followed by a low
                                // surrogate escape; the pair recombines into
                                // one supplementary-plane scalar.
                                0xD800..=0xDBFF => {
                                    let lo = if self.bytes[self.pos + 1..].starts_with(b"\\u")
                                    {
                                        self.pos += 2;
                                        Some(self.hex_escape()?)
                                    } else {
                                        None
                                    };
                                    match lo {
                                        Some(lo @ 0xDC00..=0xDFFF) => {
                                            let c = 0x10000
                                                + ((code - 0xD800) << 10)
                                                + (lo - 0xDC00);
                                            s.push(
                                                char::from_u32(c).unwrap_or('\u{fffd}'),
                                            );
                                        }
                                        // Lone or mismatched surrogate: no
                                        // scalar exists; degrade to U+FFFD
                                        // (plus the second escape's value when
                                        // it was consumed but not a low
                                        // surrogate).
                                        Some(other) => {
                                            s.push('\u{fffd}');
                                            s.push(
                                                char::from_u32(other)
                                                    .unwrap_or('\u{fffd}'),
                                            );
                                        }
                                        None => s.push('\u{fffd}'),
                                    }
                                }
                                // Lone low surrogate: not a scalar value.
                                0xDC00..=0xDFFF => s.push('\u{fffd}'),
                                c => s.push(char::from_u32(c).unwrap_or('\u{fffd}')),
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole unescaped run at once. Validating
                    // per character (`from_utf8` on the full remainder for
                    // every byte) made parsing quadratic — a 4 MB trace
                    // file effectively never finished.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    s.push_str(chunk);
                }
            }
        }
    }

    /// Parses the four hex digits of a `\uXXXX` escape. On entry `pos` is at
    /// the `u`; on success `pos` is at the last hex digit (the caller's
    /// shared `pos += 1` then steps past it).
    fn hex_escape(&mut self) -> Result<u32, JsonError> {
        if self.pos + 5 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = &self.bytes[self.pos + 1..self.pos + 5];
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("bad \\u escape"));
        }
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_values() {
        let mut obj = Json::object();
        obj.set("a", Json::from(1u64));
        obj.set("b", Json::Str("x \"quoted\"\n".into()));
        obj.set("c", Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(1.5)]));
        obj.set("d", Json::Num(-7.0));
        let text = obj.render();
        let back = parse(&text).expect("parses");
        assert_eq!(back, obj);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(42u64).render(), "42");
        assert_eq!(Json::Num(42.5).render(), "42.5");
        assert_eq!(Json::from(-3i64).render(), "-3");
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut o = Json::object();
        o.set("k", Json::from(1u64));
        o.set("k", Json::from(2u64));
        assert_eq!(o.get("k").unwrap().as_u64(), Some(2));
        assert_eq!(o.render(), "{\"k\":2}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_accepts_nested_whitespace() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").expect("parses");
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn escapes_survive_round_trip() {
        let s = Json::Str("tab\there \\ and \u{1} control".into());
        let back = parse(&s.render()).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn every_control_character_round_trips() {
        let all: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let s = Json::Str(all);
        let back = parse(&s.render()).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn non_bmp_code_points_round_trip() {
        // Raw UTF-8 supplementary-plane characters in the writer's output.
        let s = Json::Str("emoji \u{1F600} and math \u{1D54A} mixed with ascii".into());
        let back = parse(&s.render()).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn surrogate_pair_escapes_recombine() {
        // "\uD83D\uDE00" is U+1F600 written the JSON-escape way.
        let v = parse("\"\\uD83D\\uDE00\"").expect("parses");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Lowercase hex too.
        let v = parse("\"\\ud835\\udd4a\"").expect("parses");
        assert_eq!(v.as_str(), Some("\u{1D54A}"));
        // Pair in the middle of other text.
        let v = parse("\"a\\uD83D\\uDE00b\"").expect("parses");
        assert_eq!(v.as_str(), Some("a\u{1F600}b"));
    }

    #[test]
    fn lone_surrogates_degrade_to_replacement() {
        // High surrogate with no continuation.
        assert_eq!(parse("\"\\uD83D\"").unwrap().as_str(), Some("\u{fffd}"));
        // High surrogate followed by ordinary text.
        assert_eq!(parse("\"\\uD83Dxy\"").unwrap().as_str(), Some("\u{fffd}xy"));
        // High surrogate followed by a non-surrogate escape keeps both.
        assert_eq!(parse("\"\\uD83D\\u0041\"").unwrap().as_str(), Some("\u{fffd}A"));
        // Lone low surrogate.
        assert_eq!(parse("\"\\uDE00ok\"").unwrap().as_str(), Some("\u{fffd}ok"));
        // Two high surrogates in a row.
        assert_eq!(
            parse("\"\\uD83D\\uD83D\"").unwrap().as_str(),
            Some("\u{fffd}\u{fffd}")
        );
    }

    #[test]
    fn large_documents_parse_in_linear_time() {
        // Regression test for quadratic string scanning: the old parser
        // re-validated the entire remaining input per character, so this
        // megabyte-scale document (the size of a real `vglc trace` export)
        // effectively never finished. It must parse in well under a second.
        let long = "x".repeat(500_000);
        let mut events = Vec::new();
        for i in 0..20_000 {
            let mut o = Json::object();
            o.set("name", Json::Str(format!("span-{i} with \u{1F600} and \"quotes\"")));
            o.set("ts", Json::from(i as u64));
            events.push(o);
        }
        let mut doc = Json::object();
        doc.set("big", Json::Str(long));
        doc.set("traceEvents", Json::Arr(events));
        let text = doc.render();
        assert!(text.len() > 1_000_000);
        let back = parse(&text).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn bad_hex_escapes_are_rejected() {
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\uZZZZ\"").is_err());
        assert!(parse("\"\\u+12f\"").is_err());
        assert!(parse("\"\\uD83D\\uZZ00\"").is_err());
    }
}
