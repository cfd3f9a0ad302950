//! A minimal JSON parser **and canonical serializer** for telemetry and
//! report output.
//!
//! The workspace builds offline (no serde); tests and CI still need to
//! assert that `JsonlSink` output *parses* and that its fields reconcile
//! with the campaign report. This is a small, strict, recursive-descent
//! parser over the JSON grammar — ample for one-line event objects — plus
//! [`JsonValue::to_json`], the emitter for documents built as values:
//! campaign specs, daemon status and control-plane replies, and
//! `BENCH_<n>.json` A/B records. The two high-volume writers render
//! directly into a string instead: telemetry events through the codec the
//! `event` module's table generates, and checkpoint journal records
//! (shard reports, lease records) through `write!`. This parser reads all
//! of them back.
//!
//! The rendering is **canonical**: object keys in sorted (`BTreeMap`)
//! order, integers exact, floats in Rust's shortest round-trip form. For
//! any value produced by [`parse`], `parse(v.to_json())` re-renders
//! byte-identically — the invariant the `BENCH_<n>.json` round-trip test
//! pins.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any non-integral (or exponent-form) JSON number.
    Number(f64),
    /// An integral JSON number, kept exact. `f64` silently rounds integers
    /// past 2^53 — fatal for journaled 64-bit shard seeds — so the parser
    /// routes plain integer tokens here and only falls back to [`Number`]
    /// for fractions and exponent forms.
    ///
    /// [`Number`]: JsonValue::Number
    Int(i128),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (keys sorted by `BTreeMap`).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => i64::try_from(*i).ok(),
            JsonValue::Number(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as an exact `i128`, if it is an integral number.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Number(n) if n.fract() == 0.0 => Some(*n as i128),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as canonical JSON: object keys in sorted order,
    /// integers exact, floats in shortest round-trip form (non-finite
    /// floats, which JSON cannot represent, render as `null`). Parsing the
    /// output and re-rendering it is byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Number(n) if !n.is_finite() => out.push_str("null"),
            JsonValue::Number(n) => {
                // `{}` on f64 is the shortest string that parses back to the
                // same bits, so emit → parse → re-emit is stable. Integral
                // floats would print without a fraction and re-parse as
                // `Int`; keep them in the float lane with an explicit `.0`.
                if n.fract() == 0.0 && n.abs() < 1e19 {
                    let _ = write!(out, "{n:.1}");
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::String(s) => out.push_str(&escape_string(s)),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape_string(key));
                    out.push(':');
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// Builds an object from `(key, value)` pairs (later duplicates win).
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Quotes and escapes `s` as a JSON string literal (the escaping used by
/// every serializer in the workspace — see `event::json_string`).
pub fn escape_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos.saturating_sub(1)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(map)),
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        self.pos += 4;
                        // Surrogate pairs are not needed for telemetry
                        // output; map lone surrogates to the replacement
                        // character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x20 => return Err("control char in string".into()),
                Some(b) => {
                    // Reassemble multi-byte UTF-8 sequences.
                    let len = match b {
                        0x00..=0x7f => 0,
                        0xc0..=0xdf => 1,
                        0xe0..=0xef => 2,
                        _ => 3,
                    };
                    let start = self.pos - 1;
                    self.pos += len;
                    if self.pos > self.bytes.len() {
                        return Err("truncated utf-8".into());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Plain integer tokens stay exact (i128 covers the full u64 range);
        // fractions and exponent forms fall back to f64.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_event_shaped_objects() {
        let v = parse(
            r#"{"shard":0,"seq":12,"type":"deviation","case_id":3,"engine":"Rhino","kind":"WrongOutput"}"#,
        )
        .expect("parses");
        assert_eq!(v.get("seq").and_then(JsonValue::as_u64), Some(12));
        assert_eq!(v.get("engine").and_then(JsonValue::as_str), Some("Rhino"));
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"s":"x\"\nA"}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\"\nA"));
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(JsonValue::as_bool), Some(true));
        let JsonValue::Array(items) = v.get("a").unwrap() else { panic!("array") };
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].as_i64(), Some(-3));
    }

    #[test]
    fn integers_past_2_pow_53_stay_exact() {
        let seed = u64::MAX - 12345;
        let v = parse(&format!("{{\"seed\":{seed}}}")).unwrap();
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(seed));
        // Fractions and exponent forms still parse as floats.
        let v = parse("[2.5,1e3]").unwrap();
        let JsonValue::Array(items) = &v else { panic!("array") };
        assert_eq!(items[0].as_f64(), Some(2.5));
        assert_eq!(items[1].as_f64(), Some(1000.0));
        assert_eq!(items[0].as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn canonical_rendering_is_parse_stable() {
        // parse → to_json → parse → to_json must be byte-identical, across
        // exact big integers, fractional and integral floats, escapes, and
        // nesting — the invariant the BENCH_<n>.json round-trip test relies on.
        let v = JsonValue::object([
            ("seed", JsonValue::Int((u64::MAX - 7) as i128)),
            ("ratio", JsonValue::from(2.5)),
            ("whole", JsonValue::from(1.0)),
            ("tiny", JsonValue::from(1.25e-7)),
            ("label", JsonValue::from("a\"b\nc\td\u{1}")),
            ("flags", JsonValue::from(vec![true, false])),
            (
                "nested",
                JsonValue::object([
                    ("xs", JsonValue::from(vec![1u64, 2, 3])),
                    ("none", JsonValue::Null),
                ]),
            ),
        ]);
        let first = v.to_json();
        let reparsed = parse(&first).expect("canonical output parses");
        assert_eq!(reparsed.to_json(), first);
        let again = parse(&reparsed.to_json()).unwrap();
        assert_eq!(again, reparsed);
    }

    #[test]
    fn integral_floats_stay_in_the_float_lane() {
        // 1.0 must render as "1.0" (not "1") so re-parsing keeps it a
        // Number; otherwise emit → parse → re-emit would flip lanes.
        assert_eq!(JsonValue::Number(1.0).to_json(), "1.0");
        assert_eq!(JsonValue::Number(-3.0).to_json(), "-3.0");
        assert_eq!(JsonValue::Number(2.5).to_json(), "2.5");
        assert_eq!(JsonValue::Int(1).to_json(), "1");
        assert_eq!(JsonValue::Number(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_json(), "null");
        let v = parse("1.0").unwrap();
        assert!(matches!(v, JsonValue::Number(_)));
        assert_eq!(v.to_json(), "1.0");
    }

    #[test]
    fn object_keys_render_sorted() {
        let v = parse(r#"{"zeta":1,"alpha":2,"mid":3}"#).unwrap();
        assert_eq!(v.to_json(), r#"{"alpha":2,"mid":3,"zeta":1}"#);
    }

    #[test]
    fn escape_string_matches_parser() {
        let raw = "plain \"quoted\" back\\slash\nnew\ttab\u{2} unicode é";
        let escaped = escape_string(raw);
        let v = parse(&escaped).expect("escaped string parses");
        assert_eq!(v.as_str(), Some(raw));
    }

    #[test]
    fn roundtrips_rendered_events() {
        use crate::event::{Event, EventKind, LogicalClock};
        let e = Event {
            clock: LogicalClock { shard: 1, seq: 4 },
            kind: EventKind::CaseGenerated {
                case_id: 9,
                base: 2,
                origin: "ecma-mutation".into(),
                mutant: true,
            },
        };
        let v = parse(&e.to_json()).expect("rendered events parse");
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("case_generated"));
        assert_eq!(v.get("mutant").and_then(JsonValue::as_bool), Some(true));
    }
}
