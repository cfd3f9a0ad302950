//! Runtime values and heap objects.

use std::cell::RefCell;
use std::rc::Rc;

/// Index of an object in the interpreter heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId(pub u32);

/// Index of a scope environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnvId(pub u32);

/// A JavaScript value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// `undefined`
    #[default]
    Undefined,
    /// `null`
    Null,
    /// Boolean primitive.
    Bool(bool),
    /// Number primitive (IEEE-754 double, as in JS).
    Number(f64),
    /// String primitive.
    Str(Rc<str>),
    /// Reference to a heap object.
    Obj(ObjId),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// `true` for `undefined`.
    pub fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }

    /// `true` for `null` or `undefined`.
    pub fn is_nullish(&self) -> bool {
        matches!(self, Value::Undefined | Value::Null)
    }

    /// Strict (`===`) equality for primitives and reference equality for
    /// objects, per the SameValueNonNumber/StrictEquality algorithms.
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) | (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

/// Native error kinds (the built-in `Error` subclasses COMFORT observes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// `Error`
    Error,
    /// `TypeError`
    Type,
    /// `RangeError`
    Range,
    /// `SyntaxError`
    Syntax,
    /// `ReferenceError`
    Reference,
    /// `EvalError`
    Eval,
    /// `URIError`
    Uri,
}

impl ErrorKind {
    /// The constructor / `name` property string.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Error => "Error",
            ErrorKind::Type => "TypeError",
            ErrorKind::Range => "RangeError",
            ErrorKind::Syntax => "SyntaxError",
            ErrorKind::Reference => "ReferenceError",
            ErrorKind::Eval => "EvalError",
            ErrorKind::Uri => "URIError",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Element type of a typed array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TaKind {
    I8,
    U8,
    U8Clamped,
    I16,
    U16,
    I32,
    U32,
    F32,
    F64,
}

impl TaKind {
    /// Bytes per element.
    pub fn size(self) -> usize {
        match self {
            TaKind::I8 | TaKind::U8 | TaKind::U8Clamped => 1,
            TaKind::I16 | TaKind::U16 => 2,
            TaKind::I32 | TaKind::U32 | TaKind::F32 => 4,
            TaKind::F64 => 8,
        }
    }

    /// Constructor name (`"Uint32Array"`, …).
    pub fn name(self) -> &'static str {
        match self {
            TaKind::I8 => "Int8Array",
            TaKind::U8 => "Uint8Array",
            TaKind::U8Clamped => "Uint8ClampedArray",
            TaKind::I16 => "Int16Array",
            TaKind::U16 => "Uint16Array",
            TaKind::I32 => "Int32Array",
            TaKind::U32 => "Uint32Array",
            TaKind::F32 => "Float32Array",
            TaKind::F64 => "Float64Array",
        }
    }
}

/// Signature of a native (builtin) function.
pub type NativeFn = fn(&mut crate::Interp<'_>, Value, &[Value]) -> Result<Value, crate::Control>;

/// Closure data for an interpreted function: a function proto inside a
/// shared compiled chunk (the program's, or an `eval`'s), plus what the
/// closure captured. Cloning is cheap — the chunk is refcounted.
#[derive(Debug, Clone)]
pub struct FuncData {
    /// The compiled chunk the function lives in.
    pub chunk: std::sync::Arc<crate::CompiledChunk>,
    /// Index into the chunk's function-proto table.
    pub index: u32,
    /// Captured defining environment.
    pub env: EnvId,
    /// `true` for arrow functions (lexical `this`).
    pub is_arrow: bool,
    /// The lexically captured `this` for arrows.
    pub captured_this: Value,
    /// `true` if the function body (or enclosing code) is strict.
    pub strict: bool,
}

impl FuncData {
    /// The function's name, if it has one (for display / `Function.name`).
    pub fn name(&self) -> Option<&str> {
        let proto = &self.chunk.arena.funcs[self.index as usize];
        (proto.name != comfort_syntax::arena::NONE).then(|| self.chunk.arena.atom(proto.name))
    }
}

/// Shared mutable backing store of an `ArrayBuffer`.
pub type BufferData = Rc<RefCell<Vec<u8>>>;

/// The specialized part of a heap object.
///
/// Cloning is shallow where the variant is refcounted: `Function` shares
/// its immutable [`FuncData`], and buffer-backed variants share their
/// `BufferData` store (which is what `ArrayBuffer` view semantics want).
#[derive(Debug, Clone)]
pub enum ObjKind {
    /// Ordinary object.
    Plain,
    /// `Array` exotic object. `None` entries are holes.
    Array {
        /// Dense element storage; `None` is a hole.
        elems: Vec<Option<Value>>,
    },
    /// Interpreted function.
    Function(Rc<FuncData>),
    /// Builtin function.
    Native {
        /// Diagnostic / API name, e.g. `"substr"`.
        name: &'static str,
        /// Implementation.
        func: NativeFn,
    },
    /// `Error` instance.
    Error {
        /// Which error constructor made it.
        kind: ErrorKind,
    },
    /// `RegExp` instance.
    Regex {
        /// Source pattern.
        source: String,
        /// Flag string.
        flags: String,
    },
    /// `ArrayBuffer`.
    ArrayBuffer {
        /// Byte store, shared with views.
        data: BufferData,
    },
    /// A typed-array view.
    TypedArray {
        /// Element type.
        kind: TaKind,
        /// Underlying buffer.
        buf: BufferData,
        /// Byte offset of the view.
        offset: usize,
        /// Element count.
        len: usize,
    },
    /// `DataView` over a buffer.
    DataView {
        /// Underlying buffer.
        buf: BufferData,
        /// Byte offset.
        offset: usize,
        /// Byte length.
        len: usize,
    },
    /// `Date` instance.
    Date {
        /// Milliseconds since the epoch (deterministic in this simulator).
        ms: f64,
    },
    /// Boxed primitive from `new Boolean(…)`.
    BoolWrap(bool),
    /// Boxed primitive from `new Number(…)`.
    NumWrap(f64),
    /// Boxed primitive from `new String(…)`.
    StrWrap(Rc<str>),
}

impl ObjKind {
    /// The `[[Class]]`-style name used by `Object.prototype.toString` and by
    /// the bug catalog's receiver predicates.
    pub fn class_name(&self) -> &'static str {
        match self {
            ObjKind::Plain => "Object",
            ObjKind::Array { .. } => "Array",
            ObjKind::Function(_) | ObjKind::Native { .. } => "Function",
            ObjKind::Error { .. } => "Error",
            ObjKind::Regex { .. } => "RegExp",
            ObjKind::ArrayBuffer { .. } => "ArrayBuffer",
            ObjKind::TypedArray { kind, .. } => kind.name(),
            ObjKind::DataView { .. } => "DataView",
            ObjKind::Date { .. } => "Date",
            ObjKind::BoolWrap(_) => "Boolean",
            ObjKind::NumWrap(_) => "Number",
            ObjKind::StrWrap(_) => "String",
        }
    }
}

/// A property descriptor.
#[derive(Debug, Clone)]
pub struct Prop {
    /// The property value.
    pub value: Value,
    /// `[[Writable]]`
    pub writable: bool,
    /// `[[Enumerable]]`
    pub enumerable: bool,
    /// `[[Configurable]]`
    pub configurable: bool,
}

impl Prop {
    /// A normal data property (writable, enumerable, configurable).
    pub fn data(value: Value) -> Prop {
        Prop { value, writable: true, enumerable: true, configurable: true }
    }

    /// A builtin-style property (writable, configurable, **not** enumerable).
    pub fn builtin(value: Value) -> Prop {
        Prop { value, writable: true, enumerable: false, configurable: true }
    }

    /// A fully frozen property.
    pub fn frozen(value: Value) -> Prop {
        Prop { value, writable: false, enumerable: false, configurable: false }
    }
}

/// Insertion-ordered string-keyed property map.
#[derive(Debug, Clone, Default)]
pub struct PropMap {
    entries: Vec<(Rc<str>, Prop)>,
}

impl PropMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        PropMap::default()
    }

    /// Looks up a property.
    pub fn get(&self, key: &str) -> Option<&Prop> {
        self.entries.iter().find(|(k, _)| &**k == key).map(|(_, p)| p)
    }

    /// Looks up a property mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Prop> {
        self.entries.iter_mut().find(|(k, _)| &**k == key).map(|(_, p)| p)
    }

    /// Inserts or replaces a property, preserving insertion order.
    pub fn insert(&mut self, key: impl AsRef<str>, prop: Prop) {
        let key = key.as_ref();
        match self.get_mut(key) {
            Some(slot) => *slot = prop,
            None => self.entries.push((Rc::from(key), prop)),
        }
    }

    /// Removes a property; returns `true` if it existed.
    pub fn remove(&mut self, key: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(k, _)| &**k != key);
        self.entries.len() != before
    }

    /// `true` if the key exists.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterates `(key, prop)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Prop)> {
        self.entries.iter().map(|(k, p)| (&**k, p))
    }

    /// Mutable iteration in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut Prop)> {
        self.entries.iter_mut().map(|(k, p)| (&**k, p))
    }

    /// Number of own properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when there are no own properties.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A heap object: specialized kind + ordinary named properties + prototype.
#[derive(Debug, Clone)]
pub struct Obj {
    /// Specialized behaviour.
    pub kind: ObjKind,
    /// Named own properties.
    pub props: PropMap,
    /// Prototype link.
    pub proto: Option<ObjId>,
    /// `[[Extensible]]` (cleared by `Object.freeze`/`seal`/`preventExtensions`).
    pub extensible: bool,
}

impl Obj {
    /// Creates an object of `kind` with the given prototype.
    pub fn new(kind: ObjKind, proto: Option<ObjId>) -> Self {
        Obj { kind, props: PropMap::new(), proto, extensible: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propmap_preserves_insertion_order() {
        let mut m = PropMap::new();
        m.insert("b", Prop::data(Value::Number(1.0)));
        m.insert("a", Prop::data(Value::Number(2.0)));
        m.insert("b", Prop::data(Value::Number(3.0)));
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert!(matches!(m.get("b").unwrap().value, Value::Number(n) if n == 3.0));
    }

    #[test]
    fn propmap_iter_mut_and_len() {
        let mut m = PropMap::new();
        m.insert("a", Prop::data(Value::Number(1.0)));
        m.insert("b", Prop::data(Value::Number(2.0)));
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        for (_, p) in m.iter_mut() {
            p.writable = false;
        }
        assert!(m.iter().all(|(_, p)| !p.writable));
    }

    #[test]
    fn propmap_remove() {
        let mut m = PropMap::new();
        m.insert("x", Prop::data(Value::Null));
        assert!(m.remove("x"));
        assert!(!m.remove("x"));
        assert!(m.is_empty());
    }

    #[test]
    fn strict_eq_nan_is_false() {
        assert!(!Value::Number(f64::NAN).strict_eq(&Value::Number(f64::NAN)));
        assert!(Value::Number(0.0).strict_eq(&Value::Number(-0.0)));
    }

    #[test]
    fn class_names() {
        assert_eq!(ObjKind::Plain.class_name(), "Object");
        assert_eq!(ObjKind::Array { elems: Vec::new() }.class_name(), "Array");
        assert_eq!(TaKind::U32.name(), "Uint32Array");
        assert_eq!(TaKind::F64.size(), 8);
    }
}
