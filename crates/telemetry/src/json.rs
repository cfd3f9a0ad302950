//! A JSON grammar check and a text view that reads documents in place, a
//! tree for documents built as values, a canonical serializer, and the one
//! typed-field codec of the workspace's wire formats.
//!
//! The workspace builds offline (no serde). Every document is read the same
//! way: [`Text::check`] runs one strict grammar check over it, which refuses
//! malformed text and arrays and objects nested deeper than [`MAX_DEPTH`],
//! and hands out the document's [`Text`]. A text view reads in place: an
//! object's members are indexed once as (key, value text) pairs
//! ([`Object`]), an array's items are walked one by one, and a scalar
//! converts only when a field reads it. Telemetry events, checkpoint journal
//! records, campaign specs, control request frames and bench records read
//! back this way through [`Field`], each from the one table that also
//! renders it (`event_kinds!`, [`json_record!`](crate::json_record)), so
//! reading a record builds no tree.
//!
//! [`parse`] builds a [`JsonValue`] tree on the same check, for documents
//! built as values (daemon status, control-plane replies, the runs of a
//! `BENCH_<n>.json` record). [`JsonValue::to_json`] emits those
//! **canonically**: object keys sorted, integers exact, floats in shortest
//! round-trip form, so `parse(v.to_json())` re-renders byte-identically.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// The deepest nesting of arrays and objects a document may have. Journal
/// shard records nest 6 levels and bench records 8; the bound keeps the
/// grammar check's recursion, and every reader's after it, far from the end
/// of a thread's stack whatever the input.
pub const MAX_DEPTH: usize = 128;

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
                // `Int`; keep them in the float lane with an explicit `.0`,
                // or in exponent form once the digits grow long.
                if n.fract() != 0.0 {
                    let _ = write!(out, "{n}");
                } else if n.abs() < 1e19 {
                    let _ = write!(out, "{n:.1}");
                } else {
                    let _ = write!(out, "{n:e}");
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
    /// Reads a value from its checked text; the error says what is wrong
    /// with it.
    fn read(v: Text<'_>) -> Result<Self, String>;
    /// Appends member `key` (quoted name and colon, as in `"seed":`) unless
    /// the value is left out.
    fn render(&self, key: &str, out: &mut String) {
        member(out, key);
        self.write(out);
    }
    /// Reads member `name` of the object `v`.
    fn parse(v: &Object<'_>, name: &str) -> Result<Self, String> {
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
    v: &Object<'_>,
    name: &str,
    read: impl FnOnce(&Object<'_>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let read = |v: Text<'_>| match v.members() {
        Some(object) => read(&object),
        None => Err("must be an object".to_string()),
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
            fn read(v: Text<'_>) -> Result<Self, String> {
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
    fn read(v: Text<'_>) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "must be a boolean".into())
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        write_string(self, out);
    }
    fn read(v: Text<'_>) -> Result<Self, String> {
        v.as_str().map(Cow::into_owned).ok_or_else(|| "must be a string".into())
    }
}

/// A JSON number (journal records write theirs through [`Bits`]).
impl Field for f64 {
    fn write(&self, out: &mut String) {
        JsonValue::Number(*self).write_json(out);
    }
    fn read(v: Text<'_>) -> Result<Self, String> {
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
    fn read(v: Text<'_>) -> Result<Self, String> {
        Ok(if v.is_null() { None } else { Some(T::read(v)?) })
    }
    fn render(&self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.render(key, out);
        }
    }
    fn parse(v: &Object<'_>, name: &str) -> Result<Self, String> {
        v.get(name).map(|_| T::parse(v, name)).transpose()
    }
    fn clear_wall_clock(&mut self) {
        *self = None;
    }
}

/// Any JSON, written canonically and read as its tree: the one field that
/// builds one, for documents kept as values.
impl Field for JsonValue {
    fn write(&self, out: &mut String) {
        self.write_json(out);
    }
    fn read(v: Text<'_>) -> Result<Self, String> {
        Ok(v.to_value())
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
    fn read(v: Text<'_>) -> Result<Self, String> {
        let items = v.items().ok_or("must be an array")?.enumerate();
        items.map(|(i, item)| T::read(item).map_err(|e| in_member(&i.to_string(), e))).collect()
    }
}

/// A fixed-length array: any other length is refused.
impl<T: Field, const N: usize> Field for [T; N] {
    fn write(&self, out: &mut String) {
        write_items(self, out);
    }
    fn read(v: Text<'_>) -> Result<Self, String> {
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
    fn parse(v: &Object<'_>, name: &str) -> Result<T, String>;
}

/// The type's own [`Field`] form: the rule of a member that names none.
pub struct Plain;

impl<T: Field> Rule<T> for Plain {
    fn render(value: &T, key: &str, out: &mut String) {
        value.render(key, out);
    }
    fn parse(v: &Object<'_>, name: &str) -> Result<T, String> {
        T::parse(v, name)
    }
}

/// An `f64` as its exact bit pattern, so it round-trips bit for bit.
pub struct Bits;

impl Rule<f64> for Bits {
    fn render(value: &f64, key: &str, out: &mut String) {
        value.to_bits().render(key, out);
    }
    fn parse(v: &Object<'_>, name: &str) -> Result<f64, String> {
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
    fn parse(v: &Object<'_>, name: &str) -> Result<u64, String> {
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
    fn parse(v: &Object<'_>, name: &str) -> Result<Option<T>, String> {
        match v.get(name) {
            Some(value) if !value.is_null() => R::parse(v, name).map(Some),
            _ => Ok(None),
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
    fn parse(v: &Object<'_>, _: &str) -> Result<T, String> {
        T::read_members(v)
    }
}

/// A struct written as a JSON object by a [`json_record!`](crate::json_record) table.
pub trait Record: Sized {
    /// Appends every member, in wire order.
    fn write_members(&self, out: &mut String);
    /// Reads every member from the object `v`.
    fn read_members(v: &Object<'_>) -> Result<Self, String>;
}

/// A record is an object of its members; any other value is refused.
impl<T: Record> Field for T {
    fn write(&self, out: &mut String) {
        out.push('{');
        self.write_members(out);
        out.push('}');
    }
    fn read(v: Text<'_>) -> Result<Self, String> {
        match v.members() {
            Some(object) => T::read_members(&object),
            None => Err("must be an object".to_string()),
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
            fn read_members(v: &$crate::json::Object<'_>) -> Result<Self, String> {
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

/// Parses one JSON document into a tree; trailing non-whitespace is an
/// error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    Text::check(input).map(Text::to_value)
}

/// Reads one JSON document as a `T`, through its [`Field`] form.
pub fn read<T: Field>(input: &str) -> Result<T, String> {
    T::read(Text::check(input)?)
}

/// The text of one value of a document that passed [`Text::check`], read
/// in place. Only the check makes one, so every reader below may rely on
/// the grammar.
#[derive(Debug, Clone, Copy)]
pub struct Text<'a>(&'a str);

impl<'a> Text<'a> {
    /// Checks `input` as one JSON document: strict grammar, at most
    /// [`MAX_DEPTH`] levels of nesting, whitespace around the value and
    /// nothing else. Returns the value's text.
    pub fn check(input: &'a str) -> Result<Text<'a>, String> {
        let mut c = Checker { bytes: input.as_bytes(), pos: skip_ws(input.as_bytes(), 0) };
        let start = c.pos;
        c.value(0)?;
        let end = c.pos;
        c.pos = skip_ws(c.bytes, end);
        if c.pos != input.len() {
            return Err(format!("trailing input at byte {}", c.pos));
        }
        Ok(Text(&input[start..end]))
    }

    /// The value's first byte, which names its type.
    fn lead(self) -> u8 {
        self.0.as_bytes()[0]
    }

    /// `true` for `null`.
    pub fn is_null(self) -> bool {
        self.0 == "null"
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(self) -> Option<bool> {
        match self.0 {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// The value as a number, in the lane the tree keeps it in.
    fn number(self) -> Option<JsonValue> {
        if matches!(self.lead(), b'-' | b'0'..=b'9') {
            number(self.0)
        } else {
            None
        }
    }

    /// The value as a non-negative integer, as [`JsonValue::as_u64`] reads
    /// it.
    pub fn as_u64(self) -> Option<u64> {
        self.number()?.as_u64()
    }

    /// The value as an exact `i128`, as [`JsonValue::as_i128`] reads it.
    pub fn as_i128(self) -> Option<i128> {
        self.number()?.as_i128()
    }

    /// The value as an `f64`, if it is any kind of number.
    pub fn as_f64(self) -> Option<f64> {
        self.number()?.as_f64()
    }

    /// The value as a string, unescaped: borrowed when it holds no escape.
    pub fn as_str(self) -> Option<Cow<'a, str>> {
        (self.lead() == b'"').then(|| unescape(&self.0[1..self.0.len() - 1]))
    }

    /// The items, if the value is an array.
    pub fn items(self) -> Option<Items<'a>> {
        (self.lead() == b'[').then_some(Items { text: self.0, pos: 1 })
    }

    /// The indexed members, if the value is an object.
    pub fn members(self) -> Option<Object<'a>> {
        (self.lead() == b'{').then(|| Object::index(self.0))
    }

    /// The value's tree.
    pub fn to_value(self) -> JsonValue {
        match self.lead() {
            b'{' => JsonValue::Object(
                Object::index(self.0)
                    .members
                    .into_iter()
                    .map(|(key, value)| (key.into_owned(), value.to_value()))
                    .collect(),
            ),
            b'[' => JsonValue::Array(Items { text: self.0, pos: 1 }.map(Text::to_value).collect()),
            b'"' => JsonValue::String(unescape(&self.0[1..self.0.len() - 1]).into_owned()),
            b't' => JsonValue::Bool(true),
            b'f' => JsonValue::Bool(false),
            b'n' => JsonValue::Null,
            _ => self.number().expect("the check admits only numbers here"),
        }
    }
}

/// An array's items, walked in order over its checked text.
#[derive(Debug, Clone)]
pub struct Items<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Iterator for Items<'a> {
    type Item = Text<'a>;

    fn next(&mut self) -> Option<Text<'a>> {
        let bytes = self.text.as_bytes();
        let start = skip_ws(bytes, self.pos);
        if bytes[start] == b']' {
            self.pos = start;
            return None;
        }
        let end = value_end(bytes, start);
        let next = skip_ws(bytes, end);
        self.pos = next + usize::from(bytes[next] == b',');
        Some(Text(&self.text[start..end]))
    }
}

/// An object's members, indexed once as (key, value text) pairs in
/// document order. Keys are compared unescaped, and a key that occurs
/// twice reads as its last member, as in the tree. A value with no members
/// is the default.
#[derive(Debug, Clone, Default)]
pub struct Object<'a> {
    members: Vec<(Cow<'a, str>, Text<'a>)>,
}

impl<'a> Object<'a> {
    /// Indexes the checked object `text`.
    fn index(text: &'a str) -> Object<'a> {
        let bytes = text.as_bytes();
        let mut members = Vec::with_capacity(8);
        let mut pos = skip_ws(bytes, 1);
        while bytes[pos] == b'"' {
            let key_end = string_end(bytes, pos);
            let start = skip_ws(bytes, skip_ws(bytes, key_end) + 1);
            let end = value_end(bytes, start);
            members.push((unescape(&text[pos + 1..key_end - 1]), Text(&text[start..end])));
            pos = skip_ws(bytes, end);
            if bytes[pos] == b',' {
                pos = skip_ws(bytes, pos + 1);
            }
        }
        Object { members }
    }

    /// Member `key`'s value, if present.
    pub fn get(&self, key: &str) -> Option<Text<'a>> {
        self.members.iter().rev().find(|(k, _)| k == key).map(|&(_, value)| value)
    }
}

/// The first byte at or after `pos` that is no JSON whitespace.
fn skip_ws(bytes: &[u8], mut pos: usize) -> usize {
    while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

/// The end (past the closing quote) of the checked string opening at `pos`.
fn string_end(bytes: &[u8], mut pos: usize) -> usize {
    pos += 1;
    loop {
        pos += bytes[pos..].iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(0);
        match bytes[pos] {
            b'"' => return pos + 1,
            _ => pos += 2,
        }
    }
}

/// The end of the checked value starting at `pos`.
fn value_end(bytes: &[u8], pos: usize) -> usize {
    match bytes[pos] {
        b'"' => string_end(bytes, pos),
        b'[' | b'{' => {
            let (mut pos, mut depth) = (pos, 0usize);
            loop {
                match bytes[pos] {
                    b'"' => {
                        pos = string_end(bytes, pos);
                        continue;
                    }
                    b'[' | b'{' => depth += 1,
                    b']' | b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            return pos + 1;
                        }
                    }
                    _ => {}
                }
                pos += 1;
            }
        }
        _ => {
            let scalar = bytes[pos..]
                .iter()
                .position(|b| matches!(b, b',' | b']' | b'}' | b' ' | b'\t' | b'\n' | b'\r'));
            scalar.map_or(bytes.len(), |len| pos + len)
        }
    }
}

/// A checked string's contents, between its quotes, unescaped.
fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut pos = 0;
    while let Some(offset) = raw[pos..].find('\\') {
        out.push_str(&raw[pos..pos + offset]);
        pos += offset + 1;
        let (c, len) = escape(raw.as_bytes(), pos).expect("the check admits only valid escapes");
        out.push(c);
        pos += len;
    }
    out.push_str(&raw[pos..]);
    Cow::Owned(out)
}

/// The escape whose letter is at `pos`, just past a backslash: its
/// character and the bytes it spans from `pos`.
fn escape(bytes: &[u8], pos: usize) -> Result<(char, usize), String> {
    let c = match bytes.get(pos) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'u') => {
            let hex = bytes.get(pos + 1..pos + 5).ok_or("truncated \\u escape")?;
            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
            let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
            // Surrogate pairs are not needed by these formats; a surrogate
            // reads as the replacement character rather than an error.
            return Ok((char::from_u32(code).unwrap_or('\u{fffd}'), 5));
        }
        other => return Err(format!("bad escape {other:?}")),
    };
    Ok((c, 1))
}

/// A number token's value, or `None` when it is none: a plain integer
/// token stays exact as [`JsonValue::Int`] (i128 covers the full u64
/// range), and fractions, exponent forms and integers past i128 fall back
/// to [`JsonValue::Number`].
fn number(token: &str) -> Option<JsonValue> {
    let digits = token.strip_prefix('-').unwrap_or(token);
    if (1..=38).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit()) {
        // At most 38 digits always fit: the common case, without `parse`.
        let n = digits.bytes().fold(0i128, |n, d| n * 10 + i128::from(d - b'0'));
        return Some(JsonValue::Int(if digits.len() < token.len() { -n } else { n }));
    }
    if !token.contains(['.', 'e', 'E']) {
        if let Ok(i) = token.parse::<i128>() {
            return Some(JsonValue::Int(i));
        }
    }
    token.parse::<f64>().ok().map(JsonValue::Number)
}

/// The grammar check behind [`Text::check`]: a strict recursive descent
/// that reads nothing, with its depth bounded by [`MAX_DEPTH`].
struct Checker<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Checker<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        self.pos = skip_ws(self.bytes, self.pos);
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos.saturating_sub(1)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// A value inside `depth` levels of arrays and objects.
    fn value(&mut self, depth: usize) -> Result<(), String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.pos += 1;
                if open == b'{' {
                    self.object(depth + 1)
                } else {
                    self.array(depth + 1)
                }
            }
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// The rest of an object, past its `{`.
    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    /// The rest of an array, past its `[`.
    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(depth)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            let rest = &self.bytes[self.pos..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(()),
                Some(b'\\') => self.pos += escape(self.bytes, self.pos)?.1,
                Some(b) if b < 0x20 => return Err("control char in string".into()),
                Some(_) => {}
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let token = &self.bytes[start..self.pos];
        let digits = token.strip_prefix(b"-").unwrap_or(token);
        // Plain digits always read; any other token reads as it converts.
        if !digits.is_empty() && digits.iter().all(u8::is_ascii_digit) {
            return Ok(());
        }
        let token = std::str::from_utf8(token).expect("ascii");
        match number(token) {
            Some(_) => Ok(()),
            None => Err(format!("invalid number {token:?} at byte {start}")),
        }
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
    fn text_reads_keep_the_tree_rules() {
        let text = r#"{"a":1,"\u0061":2,"whole":1.0,"big":18446744073709551615,"s":"\ud800x",
            "nested":{"list":[1,"two"]},"unknown":[{}]}"#;
        let v = Text::check(text).expect("checks").members().expect("an object");
        // The last of a repeated key wins, and keys compare unescaped.
        assert_eq!(u64::parse(&v, "a"), Ok(2));
        assert_eq!(u64::parse(&v, "whole"), Ok(1));
        assert_eq!(u64::parse(&v, "big"), Ok(u64::MAX));
        assert_eq!(String::parse(&v, "s").as_deref(), Ok("\u{fffd}x"));
        let err = nested(&v, "nested", |n| Vec::<u64>::parse(n, "list")).unwrap_err();
        assert_eq!(err, "field 'nested.list.1' must be an integer that fits u64");
        assert_eq!(u64::parse(&v, "gone"), Err("field 'gone' is missing".to_string()));
        assert_eq!(Text::check(text).unwrap().to_value(), parse(text).unwrap());
    }

    #[test]
    fn nesting_past_the_bound_is_refused_before_any_read() {
        let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        assert!(read::<Vec<u64>>(&"[".repeat(1_000_000)).is_err());
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
