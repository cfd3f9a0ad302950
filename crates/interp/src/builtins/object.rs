//! `Object` constructor, statics, and `Object.prototype`.

use super::{arg, def_method, native};
use crate::value::{ErrorKind, Obj, ObjId, ObjKind, Prop, Value};
use crate::{Control, Interp};

pub(super) fn install(interp: &mut Interp<'_>) {
    let proto = interp.protos.object;
    def_method(interp, proto, "toString", "Object.prototype.toString", obj_to_string);
    def_method(interp, proto, "valueOf", "Object.prototype.valueOf", obj_value_of);
    def_method(
        interp,
        proto,
        "hasOwnProperty",
        "Object.prototype.hasOwnProperty",
        has_own_property,
    );
    def_method(interp, proto, "isPrototypeOf", "Object.prototype.isPrototypeOf", is_prototype_of);
    def_method(
        interp,
        proto,
        "propertyIsEnumerable",
        "Object.prototype.propertyIsEnumerable",
        property_is_enumerable,
    );

    let ctor = super::def_ctor(interp, "Object", proto, object_ctor);
    def_method(interp, ctor, "keys", "Object.keys", keys);
    def_method(interp, ctor, "values", "Object.values", values);
    def_method(interp, ctor, "entries", "Object.entries", entries);
    def_method(interp, ctor, "assign", "Object.assign", assign);
    def_method(interp, ctor, "freeze", "Object.freeze", freeze);
    def_method(interp, ctor, "isFrozen", "Object.isFrozen", is_frozen);
    def_method(interp, ctor, "seal", "Object.seal", seal);
    def_method(interp, ctor, "isSealed", "Object.isSealed", is_sealed);
    def_method(interp, ctor, "preventExtensions", "Object.preventExtensions", prevent_extensions);
    def_method(interp, ctor, "isExtensible", "Object.isExtensible", is_extensible);
    def_method(interp, ctor, "defineProperty", "Object.defineProperty", define_property);
    def_method(
        interp,
        ctor,
        "getOwnPropertyNames",
        "Object.getOwnPropertyNames",
        get_own_property_names,
    );
    def_method(
        interp,
        ctor,
        "getOwnPropertyDescriptor",
        "Object.getOwnPropertyDescriptor",
        get_own_property_descriptor,
    );
    def_method(interp, ctor, "getPrototypeOf", "Object.getPrototypeOf", get_prototype_of);
    def_method(interp, ctor, "setPrototypeOf", "Object.setPrototypeOf", set_prototype_of);
    def_method(interp, ctor, "create", "Object.create", create);
}

fn object_ctor(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    match arg(args, 0) {
        Value::Undefined | Value::Null => {
            let proto = interp.protos.object;
            Ok(Value::Obj(interp.alloc(Obj::new(ObjKind::Plain, Some(proto)))))
        }
        other => to_object(interp, other),
    }
}

/// `ToObject` — wraps primitives.
pub(crate) fn to_object(interp: &mut Interp<'_>, v: Value) -> Result<Value, Control> {
    Ok(match v {
        Value::Obj(_) => v,
        Value::Bool(b) => {
            let proto = interp.protos.boolean;
            Value::Obj(interp.alloc(Obj::new(ObjKind::BoolWrap(b), Some(proto))))
        }
        Value::Number(n) => {
            let proto = interp.protos.number;
            Value::Obj(interp.alloc(Obj::new(ObjKind::NumWrap(n), Some(proto))))
        }
        Value::Str(s) => {
            let proto = interp.protos.string;
            Value::Obj(interp.alloc(Obj::new(ObjKind::StrWrap(s), Some(proto))))
        }
        Value::Undefined | Value::Null => {
            return Err(interp.throw(ErrorKind::Type, "Cannot convert undefined or null to object"))
        }
    })
}

fn obj_to_string(interp: &mut Interp<'_>, this: Value, _args: &[Value]) -> Result<Value, Control> {
    let tag = match &this {
        Value::Undefined => "Undefined",
        Value::Null => "Null",
        Value::Bool(_) => "Boolean",
        Value::Number(_) => "Number",
        Value::Str(_) => "String",
        Value::Obj(id) => interp.obj(*id).kind.class_name(),
    };
    Ok(Value::str(format!("[object {tag}]")))
}

fn obj_value_of(interp: &mut Interp<'_>, this: Value, _args: &[Value]) -> Result<Value, Control> {
    // Boxed primitives unwrap; everything else returns itself.
    if let Value::Obj(id) = &this {
        match &interp.obj(*id).kind {
            ObjKind::BoolWrap(b) => return Ok(Value::Bool(*b)),
            ObjKind::NumWrap(n) => return Ok(Value::Number(*n)),
            ObjKind::StrWrap(s) => return Ok(Value::Str(s.clone())),
            ObjKind::Date { ms } => return Ok(Value::Number(*ms)),
            _ => {}
        }
    }
    Ok(this)
}

fn has_own_property(
    interp: &mut Interp<'_>,
    this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let key = {
        let k = arg(args, 0);
        interp.to_js_string(&k)?
    };
    let Value::Obj(id) = &this else {
        // Primitive receivers: only strings have indexed own properties.
        if let Value::Str(s) = &this {
            if key == "length" {
                return Ok(Value::Bool(true));
            }
            if let Some(i) = crate::ops::array_index(&key) {
                return Ok(Value::Bool(i < s.chars().count()));
            }
        }
        return Ok(Value::Bool(false));
    };
    let found = match &interp.obj(*id).kind {
        ObjKind::Array { elems } => {
            key == "length"
                || crate::ops::array_index(&key)
                    .is_some_and(|i| elems.get(i).cloned().flatten().is_some())
                || interp.obj(*id).props.contains(&key)
        }
        ObjKind::TypedArray { len, .. } => {
            key == "length"
                || crate::ops::array_index(&key).is_some_and(|i| i < *len)
                || interp.obj(*id).props.contains(&key)
        }
        _ => interp.obj(*id).props.contains(&key),
    };
    Ok(Value::Bool(found))
}

fn is_prototype_of(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let (Value::Obj(proto_id), Value::Obj(mut id)) = (this, arg(args, 0)) else {
        return Ok(Value::Bool(false));
    };
    loop {
        match interp.obj(id).proto {
            Some(p) if p == proto_id => return Ok(Value::Bool(true)),
            Some(p) => id = p,
            None => return Ok(Value::Bool(false)),
        }
    }
}

fn property_is_enumerable(
    interp: &mut Interp<'_>,
    this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let key = {
        let k = arg(args, 0);
        interp.to_js_string(&k)?
    };
    let Value::Obj(id) = this else { return Ok(Value::Bool(false)) };
    if let ObjKind::Array { elems } = &interp.obj(id).kind {
        if let Some(i) = crate::ops::array_index(&key) {
            return Ok(Value::Bool(elems.get(i).cloned().flatten().is_some()));
        }
    }
    Ok(Value::Bool(interp.obj(id).props.get(&key).is_some_and(|p| p.enumerable)))
}

fn require_object(interp: &mut Interp<'_>, v: &Value, who: &str) -> Result<ObjId, Control> {
    match v {
        Value::Obj(id) => Ok(*id),
        _ => Err(interp.throw(ErrorKind::Type, format!("{who} called on non-object"))),
    }
}

fn keys(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let target = arg(args, 0);
    let keys = interp.enumerate_keys(&target)?;
    let elems = keys.into_iter().map(|k| Some(Value::str(k))).collect();
    Ok(interp.new_array(elems))
}

fn values(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let target = arg(args, 0);
    let keys = interp.enumerate_keys(&target)?;
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        out.push(Some(interp.get_property(&target, &k)?));
    }
    Ok(interp.new_array(out))
}

fn entries(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let target = arg(args, 0);
    let keys = interp.enumerate_keys(&target)?;
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = interp.get_property(&target, &k)?;
        let pair = interp.new_array(vec![Some(Value::str(&k)), Some(v)]);
        out.push(Some(pair));
    }
    Ok(interp.new_array(out))
}

fn assign(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let target = arg(args, 0);
    require_object(interp, &target, "Object.assign")?;
    for source in args.iter().skip(1) {
        if source.is_nullish() {
            continue;
        }
        for k in interp.enumerate_keys(source)? {
            let v = interp.get_property(source, &k)?;
            interp.set_property(&target, &k, v)?;
        }
    }
    Ok(target)
}

fn freeze(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let target = arg(args, 0);
    if let Value::Obj(id) = &target {
        let obj = interp.obj_mut(*id);
        obj.extensible = false;
        let keys: Vec<String> = obj.props.iter().map(|(k, _)| k.to_string()).collect();
        for k in keys {
            if let Some(p) = interp.obj_mut(*id).props.get_mut(&k) {
                p.writable = false;
                p.configurable = false;
            }
        }
    }
    Ok(target)
}

fn is_frozen(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let target = arg(args, 0);
    let Value::Obj(id) = &target else { return Ok(Value::Bool(true)) };
    let obj = interp.obj(*id);
    let frozen = !obj.extensible && obj.props.iter().all(|(_, p)| !p.writable && !p.configurable);
    Ok(Value::Bool(frozen))
}

fn seal(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let target = arg(args, 0);
    if let Value::Obj(id) = &target {
        let obj = interp.obj_mut(*id);
        obj.extensible = false;
        let keys: Vec<String> = obj.props.iter().map(|(k, _)| k.to_string()).collect();
        for k in keys {
            if let Some(p) = interp.obj_mut(*id).props.get_mut(&k) {
                p.configurable = false;
            }
        }
    }
    Ok(target)
}

fn is_sealed(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let target = arg(args, 0);
    let Value::Obj(id) = &target else { return Ok(Value::Bool(true)) };
    let obj = interp.obj(*id);
    Ok(Value::Bool(!obj.extensible && obj.props.iter().all(|(_, p)| !p.configurable)))
}

fn prevent_extensions(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let target = arg(args, 0);
    if let Value::Obj(id) = &target {
        interp.obj_mut(*id).extensible = false;
    }
    Ok(target)
}

fn is_extensible(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let target = arg(args, 0);
    let Value::Obj(id) = &target else { return Ok(Value::Bool(false)) };
    Ok(Value::Bool(interp.obj(*id).extensible))
}

/// `Object.defineProperty` (§19.1.2.4) — the V8 Listing-1 bug hooks in here
/// via [`crate::hooks::ConformanceProfile::on_define_property`].
fn define_property(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let target = arg(args, 0);
    let id = require_object(interp, &target, "Object.defineProperty")?;
    let key = {
        let k = arg(args, 1);
        interp.to_js_string(&k)?
    };
    let desc = arg(args, 2);
    require_object(interp, &desc, "property descriptor")?;

    let class = interp.obj(id).kind.class_name();
    let strict = interp.is_strict();
    let profile = interp.profile;
    let deviation = profile.on_define_property(class, &key, strict);

    let has = |interp: &mut Interp<'_>, name: &str| -> Result<Option<Value>, Control> {
        let Value::Obj(did) = &desc else { return Ok(None) };
        Ok(interp.obj(*did).props.get(name).map(|p| p.value.clone()))
    };
    let value = has(interp, "value")?;
    let writable = has(interp, "writable")?.map(|v| interp.to_boolean(&v));
    let enumerable = has(interp, "enumerable")?.map(|v| interp.to_boolean(&v));
    let configurable = has(interp, "configurable")?.map(|v| interp.to_boolean(&v));

    // Redefining array `length` through defineProperty: spec (ArraySetLength,
    // §9.4.2.4) forbids making it configurable and redefines length values.
    if matches!(interp.obj(id).kind, ObjKind::Array { .. }) && key == "length" {
        let illegal = configurable == Some(true);
        if illegal {
            // The seeded V8/Graaljs bug swallows this TypeError.
            if let crate::hooks::Deviation::SuppressThrow(recipe) = &deviation {
                return interp.materialize(recipe, &target, args);
            }
            return Err(interp.throw(ErrorKind::Type, "Cannot redefine property: length"));
        }
        if let Some(v) = value {
            let n = interp.to_number(&v)?;
            if n.is_nan() || n.fract() != 0.0 || n < 0.0 {
                return Err(interp.throw(ErrorKind::Range, "Invalid array length"));
            }
            interp.resize_array(id, n as usize)?;
        }
        return Ok(target);
    }

    // Ordinary properties.
    let existing = interp.obj(id).props.get(&key).cloned();
    match existing {
        Some(old) if !old.configurable => {
            let changes_flags = configurable == Some(true)
                || enumerable.is_some_and(|e| e != old.enumerable)
                || (writable == Some(true) && !old.writable);
            let changes_value =
                value.as_ref().is_some_and(|v| !v.strict_eq(&old.value)) && !old.writable;
            if changes_flags || changes_value {
                if let crate::hooks::Deviation::SuppressThrow(recipe) = &deviation {
                    return interp.materialize(recipe, &target, args);
                }
                return Err(
                    interp.throw(ErrorKind::Type, format!("Cannot redefine property: {key}"))
                );
            }
            let mut new = old.clone();
            if let Some(v) = value {
                new.value = v;
            }
            if let Some(w) = writable {
                new.writable = w;
            }
            interp.obj_mut(id).props.insert(&key, new);
        }
        Some(old) => {
            let new = Prop {
                value: value.unwrap_or(old.value),
                writable: writable.unwrap_or(old.writable),
                enumerable: enumerable.unwrap_or(old.enumerable),
                configurable: configurable.unwrap_or(old.configurable),
            };
            interp.obj_mut(id).props.insert(&key, new);
        }
        None => {
            if !interp.obj(id).extensible {
                return Err(interp.throw(
                    ErrorKind::Type,
                    format!("Cannot define property {key}, object is not extensible"),
                ));
            }
            let new = Prop {
                value: value.unwrap_or(Value::Undefined),
                writable: writable.unwrap_or(false),
                enumerable: enumerable.unwrap_or(false),
                configurable: configurable.unwrap_or(false),
            };
            interp.obj_mut(id).props.insert(&key, new);
        }
    }
    Ok(target)
}

fn get_own_property_names(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let target = arg(args, 0);
    let id = require_object(interp, &target, "Object.getOwnPropertyNames")?;
    let mut names: Vec<String> = Vec::new();
    if let ObjKind::Array { elems } = &interp.obj(id).kind {
        names.extend(
            elems.iter().enumerate().filter(|(_, e)| e.is_some()).map(|(i, _)| i.to_string()),
        );
        names.push("length".to_string());
    }
    names.extend(interp.obj(id).props.iter().map(|(k, _)| k.to_string()));
    let elems = names.into_iter().map(|n| Some(Value::str(n))).collect();
    Ok(interp.new_array(elems))
}

fn get_own_property_descriptor(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let target = arg(args, 0);
    let id = require_object(interp, &target, "Object.getOwnPropertyDescriptor")?;
    let key = {
        let k = arg(args, 1);
        interp.to_js_string(&k)?
    };
    let Some(p) = interp.obj(id).props.get(&key).cloned() else {
        return Ok(Value::Undefined);
    };
    let proto = interp.protos.object;
    let did = interp.alloc(Obj::new(ObjKind::Plain, Some(proto)));
    interp.obj_mut(did).props.insert("value", Prop::data(p.value));
    interp.obj_mut(did).props.insert("writable", Prop::data(Value::Bool(p.writable)));
    interp.obj_mut(did).props.insert("enumerable", Prop::data(Value::Bool(p.enumerable)));
    interp.obj_mut(did).props.insert("configurable", Prop::data(Value::Bool(p.configurable)));
    Ok(Value::Obj(did))
}

fn get_prototype_of(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let target = arg(args, 0);
    let id = require_object(interp, &target, "Object.getPrototypeOf")?;
    Ok(match interp.obj(id).proto {
        Some(p) => Value::Obj(p),
        None => Value::Null,
    })
}

fn set_prototype_of(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let target = arg(args, 0);
    let id = require_object(interp, &target, "Object.setPrototypeOf")?;
    match arg(args, 1) {
        Value::Obj(p) => interp.obj_mut(id).proto = Some(p),
        Value::Null => interp.obj_mut(id).proto = None,
        _ => {
            return Err(
                interp.throw(ErrorKind::Type, "Object prototype may only be an Object or null")
            )
        }
    }
    Ok(target)
}

fn create(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let proto = match arg(args, 0) {
        Value::Obj(p) => Some(p),
        Value::Null => None,
        _ => {
            return Err(
                interp.throw(ErrorKind::Type, "Object prototype may only be an Object or null")
            )
        }
    };
    let id = interp.alloc(Obj::new(ObjKind::Plain, proto));
    // Property-descriptor second argument.
    if let Value::Obj(descs) = arg(args, 1) {
        let keys: Vec<String> =
            interp.obj(descs).props.iter().map(|(k, _)| k.to_string()).collect();
        for k in keys {
            let desc = interp.obj(descs).props.get(&k).expect("key just listed").value.clone();
            let dp = native(interp, "Object.defineProperty", define_property);
            interp.call_value(&dp, Value::Undefined, &[Value::Obj(id), Value::str(&k), desc])?;
        }
    }
    Ok(Value::Obj(id))
}
