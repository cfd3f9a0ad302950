//! A minimal JSON parser, a canonical serializer, and the one typed-field
//! codec of the workspace's wire formats.
//!
//! The workspace builds offline (no serde). [`parse`] is a small, strict,
//! recursive-descent parser. [`JsonValue::to_json`] emits documents built as
//! values (daemon status, control-plane replies, `BENCH_<n>.json` records)
//! **canonically**: object keys sorted, integers exact, floats in shortest
//! round-trip form, so `parse(v.to_json())` re-renders byte-identically.
//!
//! Telemetry events, checkpoint journal records, campaign specs, control
//! request frames and bench records render straight into a string through
//! [`Field`] and read back through it, each from one table that generates
//! both directions (`event_kinds!`, [`json_record!`](crate::json_record)).

use std::collections::BTreeMap;
use std::marker::PhantomData;

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
            JsonValue::String(s) => write_string(s, out),
            JsonValue::Array(items) => write_items(items, out),
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
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
/// every serializer in the workspace).
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(s, &mut out);
    out
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
pub fn write_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
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
}

/// The typed-field codec: a field type's JSON text and how it reads back.
/// A member (a key and its value in an object) is always written and must
/// be present, unless its type is an `Option` or its table names a [`Rule`].
/// Every read error names the member's path, as in `field 'lm.order' is
/// missing`.
pub trait Field: Sized {
    /// Appends the value's JSON text to `out`.
    fn write(&self, out: &mut String);
    /// Reads a value; the error says what is wrong with it.
    fn read(v: &JsonValue) -> Result<Self, String>;
    /// Appends member `key` (quoted name and colon, as in `"seed":`) unless
    /// the value is left out.
    fn render(&self, key: &str, out: &mut String) {
        member(out, key);
        self.write(out);
    }
    /// Reads member `name` of the object `v`.
    fn parse(v: &JsonValue, name: &str) -> Result<Self, String> {
        let value = v.get(name).ok_or_else(|| format!("field '{name}' is missing"))?;
        Self::read(value).map_err(|e| in_member(name, e))
    }
    /// Clears a wall-clock member.
    fn clear_wall_clock(&mut self) {}
}

/// Starts member `key` of the object being written: a comma first, unless
/// the member opens the object.
pub fn member(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(key);
}

/// Puts member `name` in front of the path of an error read inside it.
fn in_member(name: &str, e: String) -> String {
    match e.strip_prefix("field '") {
        Some(path) => format!("field '{name}.{path}"),
        None => format!("field '{name}' {e}"),
    }
}

/// Reads the object member `name` of `v`, if present, with `read`: for
/// nested types that are no [`Record`].
pub fn nested<T>(
    v: &JsonValue,
    name: &str,
    read: impl FnOnce(&JsonValue) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let read = |v: &JsonValue| match v {
        JsonValue::Object(_) => read(v),
        _ => Err("must be an object".to_string()),
    };
    v.get(name).map(read).transpose().map_err(|e| in_member(name, e))
}

/// No integer of these formats is negative, so an integer reads as a
/// non-negative value that fits its type.
macro_rules! integer_fields {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                use std::fmt::Write as _;
                let _ = write!(out, "{self}");
            }
            fn read(v: &JsonValue) -> Result<Self, String> {
                let n = v.as_u64().and_then(|n| <$ty>::try_from(n).ok());
                n.ok_or_else(|| concat!("must be an integer that fits ", stringify!($ty)).into())
            }
        }
    )+};
}

integer_fields!(u64, u32, usize, i32);

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "must be a boolean".into())
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        write_string(self, out);
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        v.as_str().map(str::to_string).ok_or_else(|| "must be a string".into())
    }
}

/// A JSON number (journal records write theirs through [`Bits`]).
impl Field for f64 {
    fn write(&self, out: &mut String) {
        JsonValue::Number(*self).write_json(out);
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "must be a number".into())
    }
}

/// The optional member, such as an event's wall-clock field: written only
/// when `Some`, read as `None` when absent, and `null` is refused. Clearing
/// a wall clock sets it to `None`. As a bare value, `None` is `null`.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        Ok(if *v == JsonValue::Null { None } else { Some(T::read(v)?) })
    }
    fn render(&self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.render(key, out);
        }
    }
    fn parse(v: &JsonValue, name: &str) -> Result<Self, String> {
        v.get(name).map(|_| T::parse(v, name)).transpose()
    }
    fn clear_wall_clock(&mut self) {
        *self = None;
    }
}

/// Any JSON, written canonically.
impl Field for JsonValue {
    fn write(&self, out: &mut String) {
        self.write_json(out);
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        Ok(v.clone())
    }
}

fn write_items<T: Field>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out);
    }
    out.push(']');
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        write_items(self, out);
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        let items = v.as_array().ok_or("must be an array")?.iter().enumerate();
        items.map(|(i, item)| T::read(item).map_err(|e| in_member(&i.to_string(), e))).collect()
    }
}

/// A fixed-length array: any other length is refused.
impl<T: Field, const N: usize> Field for [T; N] {
    fn write(&self, out: &mut String) {
        write_items(self, out);
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        let items = Vec::read(v)?;
        let len = items.len();
        items.try_into().map_err(|_| format!("must hold {N} items, not {len}"))
    }
}

/// A member rule: how a [`json_record!`](crate::json_record) table writes and reads a member
/// whose wire form is not its type's own [`Field`] form.
pub trait Rule<T> {
    /// Appends member `key`, unless the rule leaves the value out.
    fn render(value: &T, key: &str, out: &mut String);
    /// Reads member `name` of the object `v`.
    fn parse(v: &JsonValue, name: &str) -> Result<T, String>;
}

/// The type's own [`Field`] form: the rule of a member that names none.
pub struct Plain;

impl<T: Field> Rule<T> for Plain {
    fn render(value: &T, key: &str, out: &mut String) {
        value.render(key, out);
    }
    fn parse(v: &JsonValue, name: &str) -> Result<T, String> {
        T::parse(v, name)
    }
}

/// An `f64` as its exact bit pattern, so it round-trips bit for bit.
pub struct Bits;

impl Rule<f64> for Bits {
    fn render(value: &f64, key: &str, out: &mut String) {
        value.to_bits().render(key, out);
    }
    fn parse(v: &JsonValue, name: &str) -> Result<f64, String> {
        u64::parse(v, name).map(f64::from_bits)
    }
}

/// A counter left out while 0, and read as 0 when absent.
pub struct OmitZero;

impl Rule<u64> for OmitZero {
    fn render(value: &u64, key: &str, out: &mut String) {
        if *value > 0 {
            value.render(key, out);
        }
    }
    fn parse(v: &JsonValue, name: &str) -> Result<u64, String> {
        Option::parse(v, name).map(Option::unwrap_or_default)
    }
}

/// An `Option` written as `null` when `None`, and under rule `R` when
/// `Some`; absent or `null` reads as `None`.
pub struct Nullable<R = Plain>(PhantomData<R>);

impl<T, R: Rule<T>> Rule<Option<T>> for Nullable<R> {
    fn render(value: &Option<T>, key: &str, out: &mut String) {
        match value {
            Some(value) => R::render(value, key, out),
            None => {
                member(out, key);
                out.push_str("null");
            }
        }
    }
    fn parse(v: &JsonValue, name: &str) -> Result<Option<T>, String> {
        match v.get(name) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(_) => R::parse(v, name).map(Some),
        }
    }
}

/// A nested [`Record`] whose members sit in the enclosing object (its own
/// key is unused).
pub struct Flatten;

impl<T: Record> Rule<T> for Flatten {
    fn render(value: &T, _: &str, out: &mut String) {
        value.write_members(out);
    }
    fn parse(v: &JsonValue, _: &str) -> Result<T, String> {
        T::read_members(v)
    }
}

/// A struct written as a JSON object by a [`json_record!`](crate::json_record) table.
pub trait Record: Sized {
    /// Appends every member, in wire order.
    fn write_members(&self, out: &mut String);
    /// Reads every member from the object `v`.
    fn read_members(v: &JsonValue) -> Result<Self, String>;
}

/// A record is an object of its members; any other value is refused.
impl<T: Record> Field for T {
    fn write(&self, out: &mut String) {
        out.push('{');
        self.write_members(out);
        out.push('}');
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Object(_) => T::read_members(v),
            _ => Err("must be an object".to_string()),
        }
    }
}

/// Declares a struct's JSON object as one table in wire order, and
/// generates its [`Record`] impl, both directions, from it. An entry is a
/// field, then `= "key"` if its wire key is not its name and `=> Rule` if
/// its member is not in its type's [`Field`] form. Every field needs an
/// entry: reading builds the struct.
#[macro_export]
macro_rules! json_record {
    (@rule) => { $crate::json::Plain };
    (@rule $rule:ty) => { $rule };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    ($ty:ty { $( $field:ident $(= $key:literal)? $(=> $rule:ty)? ),+ $(,)? }) => {
        impl $crate::json::Record for $ty {
            fn write_members(&self, out: &mut String) {
                $(
                    <$crate::json_record!(@rule $($rule)?) as $crate::json::Rule<_>>::render(
                        &self.$field,
                        concat!("\"", $crate::json_record!(@key $field $($key)?), "\":"),
                        out,
                    );
                )+
            }
            fn read_members(v: &$crate::json::JsonValue) -> Result<Self, String> {
                Ok(Self { $(
                    $field: <$crate::json_record!(@rule $($rule)?) as $crate::json::Rule<_>>::parse(
                        v,
                        $crate::json_record!(@key $field $($key)?),
                    )?,
                )+ })
            }
        }
    };
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
