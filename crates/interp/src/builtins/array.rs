//! `Array` constructor and `Array.prototype`.

use super::{
    arg, array_elem, array_elems, array_len, array_slots, def_method, edit_array, set_array_elems,
    this_array,
};
use crate::ops;
use crate::value::{ErrorKind, ObjKind, Value};
use crate::{Control, Interp};

pub(super) fn install(interp: &mut Interp<'_>) {
    let proto = interp.protos.array;
    let ctor = super::def_ctor(interp, "Array", proto, array_ctor);
    def_method(interp, ctor, "isArray", "Array.isArray", is_array);
    def_method(interp, ctor, "of", "Array.of", of);
    def_method(interp, ctor, "from", "Array.from", from);

    def_method(interp, proto, "push", "Array.prototype.push", push);
    def_method(interp, proto, "pop", "Array.prototype.pop", pop);
    def_method(interp, proto, "shift", "Array.prototype.shift", shift);
    def_method(interp, proto, "unshift", "Array.prototype.unshift", unshift);
    def_method(interp, proto, "slice", "Array.prototype.slice", slice);
    def_method(interp, proto, "splice", "Array.prototype.splice", splice);
    def_method(interp, proto, "concat", "Array.prototype.concat", concat);
    def_method(interp, proto, "join", "Array.prototype.join", join);
    def_method(interp, proto, "reverse", "Array.prototype.reverse", reverse);
    def_method(interp, proto, "indexOf", "Array.prototype.indexOf", index_of);
    def_method(interp, proto, "lastIndexOf", "Array.prototype.lastIndexOf", last_index_of);
    def_method(interp, proto, "includes", "Array.prototype.includes", includes);
    def_method(interp, proto, "find", "Array.prototype.find", find);
    def_method(interp, proto, "findIndex", "Array.prototype.findIndex", find_index);
    def_method(interp, proto, "filter", "Array.prototype.filter", filter);
    def_method(interp, proto, "map", "Array.prototype.map", map);
    def_method(interp, proto, "forEach", "Array.prototype.forEach", for_each);
    def_method(interp, proto, "reduce", "Array.prototype.reduce", reduce);
    def_method(interp, proto, "reduceRight", "Array.prototype.reduceRight", reduce_right);
    def_method(interp, proto, "some", "Array.prototype.some", some);
    def_method(interp, proto, "every", "Array.prototype.every", every);
    def_method(interp, proto, "sort", "Array.prototype.sort", sort);
    def_method(interp, proto, "fill", "Array.prototype.fill", fill);
    def_method(interp, proto, "flat", "Array.prototype.flat", flat);
    def_method(interp, proto, "toString", "Array.prototype.toString", to_string);
}

fn array_ctor(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    // `new Array(n)` makes a holey array of length n; `Array(a, b)` packs.
    if args.len() == 1 {
        if let Value::Number(n) = &args[0] {
            if n.fract() != 0.0 || *n < 0.0 || *n > u32::MAX as f64 {
                return Err(interp.throw(ErrorKind::Range, "Invalid array length"));
            }
            let Value::Obj(id) = interp.new_array(Vec::new()) else {
                unreachable!("new_array returns an object")
            };
            interp.resize_array(id, *n as usize)?;
            return Ok(Value::Obj(id));
        }
    }
    Ok(interp.new_array(args.iter().cloned().map(Some).collect()))
}

fn is_array(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    Ok(Value::Bool(matches!(
        arg(args, 0),
        Value::Obj(id) if matches!(interp.obj(id).kind, ObjKind::Array { .. })
    )))
}

fn of(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    Ok(interp.new_array(args.iter().cloned().map(Some).collect()))
}

fn from(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let src = arg(args, 0);
    let mapper = arg(args, 1);
    let items: Vec<Value> = match &src {
        Value::Str(s) => s.chars().map(|c| Value::str(c.to_string())).collect(),
        Value::Obj(id) => match &interp.obj(*id).kind {
            ObjKind::Array { elems } => {
                elems.iter().map(|e| e.clone().unwrap_or(Value::Undefined)).collect()
            }
            ObjKind::TypedArray { .. } | ObjKind::StrWrap(_) => {
                let len = interp.get_property(&src, "length")?;
                let len = ops::to_length(interp.to_number(&len)?);
                let mut out = Vec::with_capacity(len as usize);
                for i in 0..len {
                    out.push(interp.get_property(&src, &i.to_string())?);
                }
                out
            }
            _ => {
                // Array-like: anything with a length.
                let len = interp.get_property(&src, "length")?;
                let len = ops::to_length(interp.to_number(&len)?);
                let mut out = Vec::with_capacity(len.min(1 << 20) as usize);
                for i in 0..len {
                    out.push(interp.get_property(&src, &i.to_string())?);
                }
                out
            }
        },
        _ => {
            return Err(interp.throw(ErrorKind::Type, "Array.from called on non-iterable"));
        }
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        let v = if matches!(mapper, Value::Undefined) {
            item
        } else {
            interp.call_value(&mapper, Value::Undefined, &[item, Value::Number(i as f64)])?
        };
        out.push(Some(v));
    }
    Ok(interp.new_array(out))
}

fn push(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let len = edit_array(interp, id, |elems| {
        elems.extend(args.iter().cloned().map(Some));
        elems.len()
    });
    Ok(Value::Number(len as f64))
}

fn pop(interp: &mut Interp<'_>, this: Value, _args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    Ok(edit_array(interp, id, |elems| elems.pop().flatten()).unwrap_or(Value::Undefined))
}

fn shift(interp: &mut Interp<'_>, this: Value, _args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    if array_len(interp, id) == 0 {
        return Ok(Value::Undefined);
    }
    Ok(edit_array(interp, id, |elems| elems.remove(0)).unwrap_or(Value::Undefined))
}

fn unshift(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let len = edit_array(interp, id, |elems| {
        elems.splice(0..0, args.iter().cloned().map(Some));
        elems.len()
    });
    Ok(Value::Number(len as f64))
}

/// Resolves a relative index (`-1` = last) to an absolute clamped index.
fn rel_index(len: usize, n: f64) -> usize {
    let n = ops::to_integer(n);
    if n < 0.0 {
        (len as f64 + n).max(0.0) as usize
    } else {
        (n as usize).min(len)
    }
}

fn slice(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    // A snapshot: converting an argument may run `valueOf`, which sees the
    // array before the call.
    let elems = array_elems(interp, id);
    let len = elems.len();
    let start = match arg(args, 0) {
        Value::Undefined => 0,
        v => rel_index(len, interp.to_number(&v)?),
    };
    let end = match arg(args, 1) {
        Value::Undefined => len,
        v => rel_index(len, interp.to_number(&v)?),
    };
    let out = if start < end { elems[start..end].to_vec() } else { Vec::new() };
    Ok(interp.new_array(out))
}

fn splice(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    // A snapshot, written back whole after the arguments are converted.
    let mut elems = array_elems(interp, id);
    let len = elems.len();
    let start = match arg(args, 0) {
        Value::Undefined => 0,
        v => rel_index(len, interp.to_number(&v)?),
    };
    let delete_count = match arg(args, 1) {
        Value::Undefined if args.len() <= 1 => len - start,
        v => {
            let n = ops::to_integer(interp.to_number(&v)?).max(0.0) as usize;
            n.min(len - start)
        }
    };
    let removed: Vec<Option<Value>> =
        elems.splice(start..start + delete_count, args.iter().skip(2).cloned().map(Some)).collect();
    set_array_elems(interp, id, elems);
    Ok(interp.new_array(removed))
}

fn concat(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let mut out = array_elems(interp, id);
    for a in args {
        match a {
            Value::Obj(aid) if matches!(interp.obj(*aid).kind, ObjKind::Array { .. }) => {
                out.extend_from_slice(array_slots(interp, *aid));
            }
            other => out.push(Some(other.clone())),
        }
    }
    Ok(interp.new_array(out))
}

fn join(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let sep = match arg(args, 0) {
        Value::Undefined => ",".to_string(),
        v => interp.to_js_string(&v)?,
    };
    let elems = array_elems(interp, id);
    let mut parts = Vec::with_capacity(elems.len());
    for e in elems {
        parts.push(match e {
            None | Some(Value::Undefined) | Some(Value::Null) => String::new(),
            Some(v) => interp.to_js_string(&v)?,
        });
    }
    Ok(Value::str(parts.join(&sep)))
}

fn to_string(interp: &mut Interp<'_>, this: Value, _args: &[Value]) -> Result<Value, Control> {
    join(interp, this, &[])
}

fn reverse(interp: &mut Interp<'_>, this: Value, _args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    edit_array(interp, id, |elems| elems.reverse());
    Ok(this)
}

fn index_of(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let needle = arg(args, 0);
    let elems = array_elems(interp, id);
    let from = match arg(args, 1) {
        Value::Undefined => 0,
        v => rel_index(elems.len(), interp.to_number(&v)?),
    };
    for (i, e) in elems.iter().enumerate().skip(from) {
        if let Some(v) = e {
            if v.strict_eq(&needle) {
                return Ok(Value::Number(i as f64));
            }
        }
    }
    Ok(Value::Number(-1.0))
}

fn last_index_of(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let needle = arg(args, 0);
    for (i, e) in array_slots(interp, id).iter().enumerate().rev() {
        if let Some(v) = e {
            if v.strict_eq(&needle) {
                return Ok(Value::Number(i as f64));
            }
        }
    }
    Ok(Value::Number(-1.0))
}

fn includes(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let needle = arg(args, 0);
    let nan_needle = matches!(needle, Value::Number(n) if n.is_nan());
    let found = array_slots(interp, id).iter().any(|e| match e {
        Some(v) => {
            v.strict_eq(&needle) || (nan_needle && matches!(v, Value::Number(n) if n.is_nan()))
        }
        // `includes` treats holes as undefined (unlike indexOf).
        None => needle.is_undefined(),
    });
    Ok(Value::Bool(found))
}

/// Iterates with a callback `(elem, index, array)`. The length is read
/// once and each element when its turn comes, so the callback sees (and
/// makes) live changes: a slot it removed is skipped.
fn each<F>(
    interp: &mut Interp<'_>,
    this: &Value,
    callback: &Value,
    mut f: F,
) -> Result<Value, Control>
where
    F: FnMut(&mut Interp<'_>, usize, &Value, Value) -> Result<Option<Value>, Control>,
{
    let id = this_array(interp, this)?;
    for i in 0..array_len(interp, id) {
        let Some(elem) = array_elem(interp, id, i) else {
            continue; // skip holes, per spec
        };
        let r = interp.call_value(
            callback,
            Value::Undefined,
            &[elem.clone(), Value::Number(i as f64), this.clone()],
        )?;
        if let Some(out) = f(interp, i, &elem, r)? {
            return Ok(out);
        }
    }
    Ok(Value::Undefined)
}

fn find(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let cb = arg(args, 0);
    each(interp, &this, &cb, |interp, _i, elem, r| {
        Ok(if interp.to_boolean(&r) { Some(elem.clone()) } else { None })
    })
}

fn find_index(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let cb = arg(args, 0);
    let r = each(interp, &this, &cb, |interp, i, _elem, r| {
        Ok(if interp.to_boolean(&r) { Some(Value::Number(i as f64)) } else { None })
    })?;
    Ok(if r.is_undefined() { Value::Number(-1.0) } else { r })
}

fn filter(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let cb = arg(args, 0);
    let mut kept = Vec::new();
    each(interp, &this, &cb, |interp, _i, elem, r| {
        if interp.to_boolean(&r) {
            kept.push(Some(elem.clone()));
        }
        Ok(None)
    })?;
    Ok(interp.new_array(kept))
}

/// Reads the array live, as [`each`] does; a removed slot stays a hole in
/// the result.
#[allow(clippy::needless_range_loop)] // hole-preserving positional writes
fn map(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let cb = arg(args, 0);
    let len = array_len(interp, id);
    let mut out = vec![None; len];
    for i in 0..len {
        if let Some(elem) = array_elem(interp, id, i) {
            let r = interp.call_value(
                &cb,
                Value::Undefined,
                &[elem, Value::Number(i as f64), this.clone()],
            )?;
            out[i] = Some(r);
        }
    }
    Ok(interp.new_array(out))
}

fn for_each(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let cb = arg(args, 0);
    each(interp, &this, &cb, |_, _, _, _| Ok(None))
}

fn reduce(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    reduce_impl(interp, this, args, false)
}

fn reduce_right(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    reduce_impl(interp, this, args, true)
}

fn reduce_impl(
    interp: &mut Interp<'_>,
    this: Value,
    args: &[Value],
    right: bool,
) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let cb = arg(args, 0);
    let elems = array_elems(interp, id);
    let order: Vec<usize> =
        if right { (0..elems.len()).rev().collect() } else { (0..elems.len()).collect() };
    let mut iter = order.into_iter().filter(|&i| elems[i].is_some());
    let mut acc = if args.len() >= 2 {
        arg(args, 1)
    } else {
        match iter.next() {
            Some(i) => elems[i].clone().expect("filtered to non-holes"),
            None => {
                return Err(
                    interp.throw(ErrorKind::Type, "Reduce of empty array with no initial value")
                )
            }
        }
    };
    for i in iter {
        let elem = elems[i].clone().expect("filtered to non-holes");
        acc = interp.call_value(
            &cb,
            Value::Undefined,
            &[acc, elem, Value::Number(i as f64), this.clone()],
        )?;
    }
    Ok(acc)
}

fn some(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let cb = arg(args, 0);
    let r = each(interp, &this, &cb, |interp, _i, _e, r| {
        Ok(if interp.to_boolean(&r) { Some(Value::Bool(true)) } else { None })
    })?;
    Ok(if r.is_undefined() { Value::Bool(false) } else { r })
}

fn every(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let cb = arg(args, 0);
    let r = each(interp, &this, &cb, |interp, _i, _e, r| {
        Ok(if !interp.to_boolean(&r) { Some(Value::Bool(false)) } else { None })
    })?;
    Ok(if r.is_undefined() { Value::Bool(true) } else { r })
}

fn sort(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let cmp = arg(args, 0);
    let elems = array_elems(interp, id);
    // Holes and undefineds sort last, per spec.
    let mut values: Vec<Value> =
        elems.iter().filter_map(|e| e.clone()).filter(|v| !v.is_undefined()).collect();
    let undefined_count = elems.iter().filter(|e| matches!(e, Some(Value::Undefined))).count();
    let hole_count = elems.iter().filter(|e| e.is_none()).count();

    // Insertion sort so the user comparator can throw mid-way.
    for i in 1..values.len() {
        let mut j = i;
        while j > 0 {
            let ord = if cmp.is_undefined() {
                let a = interp.to_js_string(&values[j - 1])?;
                let b = interp.to_js_string(&values[j])?;
                if a <= b {
                    break;
                }
                1.0
            } else {
                let r = interp.call_value(
                    &cmp,
                    Value::Undefined,
                    &[values[j - 1].clone(), values[j].clone()],
                )?;
                let n = interp.to_number(&r)?;
                // NaN comparators sort nothing (spec: treated as 0).
                if n.is_nan() || n <= 0.0 {
                    break;
                }
                n
            };
            let _ = ord;
            values.swap(j - 1, j);
            j -= 1;
        }
        interp.charge(i as u64 / 8 + 1)?;
    }
    let mut out: Vec<Option<Value>> = values.into_iter().map(Some).collect();
    out.extend(std::iter::repeat_n(Some(Value::Undefined), undefined_count));
    out.extend(std::iter::repeat_n(None, hole_count));
    set_array_elems(interp, id, out);
    Ok(this)
}

fn fill(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let value = arg(args, 0);
    let mut elems = array_elems(interp, id);
    let len = elems.len();
    let start = match arg(args, 1) {
        Value::Undefined => 0,
        v => rel_index(len, interp.to_number(&v)?),
    };
    let end = match arg(args, 2) {
        Value::Undefined => len,
        v => rel_index(len, interp.to_number(&v)?),
    };
    for slot in elems.iter_mut().take(end).skip(start) {
        *slot = Some(value.clone());
    }
    set_array_elems(interp, id, elems);
    Ok(this)
}

fn flat(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let id = this_array(interp, &this)?;
    let depth = match arg(args, 0) {
        Value::Undefined => 1.0,
        v => ops::to_integer(interp.to_number(&v)?),
    };
    fn go(interp: &Interp<'_>, elems: &[Option<Value>], depth: f64, out: &mut Vec<Option<Value>>) {
        for e in elems.iter().flatten() {
            match e {
                Value::Obj(id)
                    if depth >= 1.0 && matches!(interp.obj(*id).kind, ObjKind::Array { .. }) =>
                {
                    go(interp, array_slots(interp, *id), depth - 1.0, out);
                }
                v => out.push(Some(v.clone())),
            }
        }
    }
    let mut out = Vec::new();
    go(interp, array_slots(interp, id), depth, &mut out);
    Ok(interp.new_array(out))
}
