//! The builtin library: globals, prototypes, and native functions.
//!
//! Every builtin registers under a canonical API name (the same name the
//! ECMA-262 spec database in `comfort-ecma262` uses, e.g.
//! `"String.prototype.substr"`), which is what the seeded-bug catalog in
//! `comfort-engines` matches on.

mod array;
mod json;
mod misc;
mod number_math;
mod object;
mod regexp;
mod string;
mod typedarray;

use crate::value::{ErrorKind, NativeFn, Obj, ObjId, ObjKind, Prop, TaKind, Value};
use crate::{Control, Interp};

/// Installs every global and prototype into a fresh interpreter.
pub(crate) fn install(interp: &mut Interp<'_>) {
    // Allocate the prototype skeleton first so natives can link to it.
    let object_proto = interp.alloc(Obj::new(ObjKind::Plain, None));
    interp.protos.object = object_proto;
    let function_proto = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    interp.protos.function = function_proto;
    interp.protos.array = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    interp.protos.string = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    interp.protos.number = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    interp.protos.boolean = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    interp.protos.regexp = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    interp.protos.typed_array = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    interp.protos.array_buffer = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    interp.protos.data_view = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    interp.protos.date = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
    for kind in ErrorKind::ALL {
        let proto = interp.alloc(Obj::new(ObjKind::Plain, Some(object_proto)));
        interp.protos.error[kind as usize] = proto;
    }

    object::install(interp);
    array::install(interp);
    string::install(interp);
    number_math::install(interp);
    json::install(interp);
    regexp::install(interp);
    typedarray::install(interp);
    misc::install(interp);
}

/// Allocates a native-function object.
pub(crate) fn native(interp: &mut Interp<'_>, name: &'static str, func: NativeFn) -> Value {
    let proto = interp.protos.function;
    let id = interp.alloc(Obj::new(ObjKind::Native { name, func }, Some(proto)));
    Value::Obj(id)
}

/// Defines `obj.key` as a native method registered under `api`.
pub(crate) fn def_method(
    interp: &mut Interp<'_>,
    obj: ObjId,
    key: &'static str,
    api: &'static str,
    func: NativeFn,
) {
    let f = native(interp, api, func);
    interp.obj_mut(obj).props.insert(key, Prop::builtin(f));
}

/// Defines a non-enumerable data property.
pub(crate) fn def_value(interp: &mut Interp<'_>, obj: ObjId, key: &'static str, value: Value) {
    interp.obj_mut(obj).props.insert(key, Prop::builtin(value));
}

/// Binds a global variable.
pub(crate) fn def_global(interp: &mut Interp<'_>, name: &'static str, value: Value) {
    interp.define_global(name, value);
}

/// Creates a global constructor: a native function whose `prototype` is
/// `proto`, with `proto.constructor` back-linked.
pub(crate) fn def_ctor(
    interp: &mut Interp<'_>,
    name: &'static str,
    proto: ObjId,
    func: NativeFn,
) -> ObjId {
    let ctor = native(interp, name, func);
    let Value::Obj(ctor_id) = ctor else { unreachable!("native returns object") };
    interp.obj_mut(ctor_id).props.insert("prototype", Prop::frozen(Value::Obj(proto)));
    interp.obj_mut(proto).props.insert("constructor", Prop::builtin(Value::Obj(ctor_id)));
    def_global(interp, name, Value::Obj(ctor_id));
    ctor_id
}

// -- shared coercion helpers --------------------------------------------------

/// `RequireObjectCoercible` + `ToString(this)`.
pub(crate) fn this_string(interp: &mut Interp<'_>, this: &Value) -> Result<String, Control> {
    if this.is_nullish() {
        return Err(
            interp.throw(ErrorKind::Type, "String.prototype method called on null or undefined")
        );
    }
    interp.to_js_string(this)
}

/// `thisNumberValue`.
pub(crate) fn this_number(interp: &mut Interp<'_>, this: &Value) -> Result<f64, Control> {
    match this {
        Value::Number(n) => Ok(*n),
        Value::Obj(id) => match interp.obj(*id).kind {
            ObjKind::NumWrap(n) => Ok(n),
            _ => Err(interp.throw(ErrorKind::Type, "not a Number object")),
        },
        _ => Err(interp.throw(ErrorKind::Type, "not a Number object")),
    }
}

/// The argument at `i`, or `undefined`.
pub(crate) fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).cloned().unwrap_or(Value::Undefined)
}

/// Requires `this` to be an `Array` object; returns its id.
pub(crate) fn this_array(interp: &mut Interp<'_>, this: &Value) -> Result<ObjId, Control> {
    if let Value::Obj(id) = this {
        if matches!(interp.obj(*id).kind, ObjKind::Array { .. }) {
            return Ok(*id);
        }
    }
    Err(interp.throw(ErrorKind::Type, "Array.prototype method called on non-array"))
}

/// The element slots of an array object, borrowed (empty for any other
/// object).
pub(crate) fn array_slots<'a>(interp: &'a Interp<'_>, id: ObjId) -> &'a [Option<Value>] {
    match &interp.obj(id).kind {
        ObjKind::Array { elems } => elems,
        _ => &[],
    }
}

/// The length of an array object.
pub(crate) fn array_len(interp: &Interp<'_>, id: ObjId) -> usize {
    array_slots(interp, id).len()
}

/// Element `i` of an array object; `None` for a hole or past the end.
pub(crate) fn array_elem(interp: &Interp<'_>, id: ObjId, i: usize) -> Option<Value> {
    array_slots(interp, id).get(i).cloned().flatten()
}

/// Runs `f` on the element slots of an array object in place. The write
/// goes through `obj_mut`, so an object of the shared builtin snapshot is
/// copied first; for any other object `f` edits an empty scratch vector.
pub(crate) fn edit_array<T>(
    interp: &mut Interp<'_>,
    id: ObjId,
    f: impl FnOnce(&mut Vec<Option<Value>>) -> T,
) -> T {
    match &mut interp.obj_mut(id).kind {
        ObjKind::Array { elems } => f(elems),
        _ => f(&mut Vec::new()),
    }
}

/// Clones the element slots of an array object: the snapshot a builtin
/// works on when a callback or a conversion could change the array
/// meanwhile.
pub(crate) fn array_elems(interp: &Interp<'_>, id: ObjId) -> Vec<Option<Value>> {
    array_slots(interp, id).to_vec()
}

/// Replaces the element slots of an array object.
pub(crate) fn set_array_elems(interp: &mut Interp<'_>, id: ObjId, elems: Vec<Option<Value>>) {
    if let ObjKind::Array { elems: slot } = &mut interp.obj_mut(id).kind {
        *slot = elems;
    }
}

// -- typed-array element access -------------------------------------------------

/// Loads one element of `kind` at byte offset `at` (reads past the end yield
/// `NaN`, matching a detached/short view in our simplification).
pub(crate) fn typed_load(buf: &[u8], kind: TaKind, at: usize) -> f64 {
    let size = kind.size();
    if at + size > buf.len() {
        return f64::NAN;
    }
    let b = &buf[at..at + size];
    match kind {
        TaKind::I8 => b[0] as i8 as f64,
        TaKind::U8 | TaKind::U8Clamped => b[0] as f64,
        TaKind::I16 => i16::from_le_bytes([b[0], b[1]]) as f64,
        TaKind::U16 => u16::from_le_bytes([b[0], b[1]]) as f64,
        TaKind::I32 => i32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64,
        TaKind::U32 => u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64,
        TaKind::F32 => f32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64,
        TaKind::F64 => f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
    }
}

/// Stores `v` as one element of `kind` at byte offset `at` (out-of-range
/// stores are ignored, as for out-of-bounds typed-array writes).
pub(crate) fn typed_store(buf: &mut [u8], kind: TaKind, at: usize, v: f64) {
    let size = kind.size();
    if at + size > buf.len() {
        return;
    }
    let dst = &mut buf[at..at + size];
    match kind {
        TaKind::I8 | TaKind::U8 => dst[0] = crate::ops::to_uint32(v) as u8,
        TaKind::U8Clamped => {
            dst[0] = if v.is_nan() { 0 } else { v.round().clamp(0.0, 255.0) as u8 };
        }
        TaKind::I16 | TaKind::U16 => {
            dst.copy_from_slice(&((crate::ops::to_uint32(v) as u16).to_le_bytes()));
        }
        TaKind::I32 | TaKind::U32 => {
            dst.copy_from_slice(&crate::ops::to_uint32(v).to_le_bytes());
        }
        TaKind::F32 => dst.copy_from_slice(&(v as f32).to_le_bytes()),
        TaKind::F64 => dst.copy_from_slice(&v.to_le_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip() {
        let mut buf = vec![0u8; 16];
        typed_store(&mut buf, TaKind::U32, 0, 4000000000.0);
        assert_eq!(typed_load(&buf, TaKind::U32, 0), 4000000000.0);
        typed_store(&mut buf, TaKind::I8, 4, -1.0);
        assert_eq!(typed_load(&buf, TaKind::I8, 4), -1.0);
        typed_store(&mut buf, TaKind::F64, 8, 3.25);
        assert_eq!(typed_load(&buf, TaKind::F64, 8), 3.25);
    }

    #[test]
    fn typed_wrapping_semantics() {
        let mut buf = vec![0u8; 4];
        typed_store(&mut buf, TaKind::U8, 0, 257.0);
        assert_eq!(typed_load(&buf, TaKind::U8, 0), 1.0);
        typed_store(&mut buf, TaKind::U8Clamped, 1, 300.0);
        assert_eq!(typed_load(&buf, TaKind::U8Clamped, 1), 255.0);
        typed_store(&mut buf, TaKind::U8Clamped, 2, f64::NAN);
        assert_eq!(typed_load(&buf, TaKind::U8Clamped, 2), 0.0);
    }

    #[test]
    fn out_of_bounds_access_is_safe() {
        let mut buf = vec![0u8; 2];
        typed_store(&mut buf, TaKind::U32, 0, 5.0); // ignored
        assert!(typed_load(&buf, TaKind::U32, 0).is_nan());
    }
}
