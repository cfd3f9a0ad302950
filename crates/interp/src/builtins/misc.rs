//! Remaining globals: `print`, `console`, `eval`, global numeric parsers,
//! `Function.prototype`, the `Error` constructor family, and a deterministic
//! `Date`.

use super::{arg, def_method, def_value, native};
use crate::ops;
use crate::value::{ErrorKind, Obj, ObjKind, Prop, Value};
use crate::{Control, Interp};

/// The fixed epoch used by the deterministic `Date` (2020-06-01T00:00:00Z,
/// within the paper's evaluation window).
pub(crate) const FIXED_NOW_MS: f64 = 1_590_969_600_000.0;

pub(super) fn install(interp: &mut Interp<'_>) {
    // print / console.log — the differential-testing observation channel.
    let print = native(interp, "print", print_fn);
    super::def_global(interp, "print", print.clone());
    let proto = interp.protos.object;
    let console = interp.alloc(Obj::new(ObjKind::Plain, Some(proto)));
    interp.obj_mut(console).props.insert("log", Prop::builtin(print.clone()));
    interp.obj_mut(console).props.insert("error", Prop::builtin(print.clone()));
    interp.obj_mut(console).props.insert("warn", Prop::builtin(print));
    super::def_global(interp, "console", Value::Obj(console));

    let eval = native(interp, "eval", eval_fn);
    super::def_global(interp, "eval", eval);
    let f = native(interp, "parseInt", global_parse_int);
    super::def_global(interp, "parseInt", f);
    let f = native(interp, "parseFloat", global_parse_float);
    super::def_global(interp, "parseFloat", f);
    let f = native(interp, "isNaN", global_is_nan);
    super::def_global(interp, "isNaN", f);
    let f = native(interp, "isFinite", global_is_finite);
    super::def_global(interp, "isFinite", f);

    // Function.prototype.
    let fproto = interp.protos.function;
    def_method(interp, fproto, "call", "Function.prototype.call", fn_call);
    def_method(interp, fproto, "apply", "Function.prototype.apply", fn_apply);
    def_method(interp, fproto, "bind", "Function.prototype.bind", fn_bind);
    def_method(interp, fproto, "toString", "Function.prototype.toString", fn_to_string);

    // Error family.
    install_error(interp, "Error", ErrorKind::Error);
    install_error(interp, "TypeError", ErrorKind::Type);
    install_error(interp, "RangeError", ErrorKind::Range);
    install_error(interp, "SyntaxError", ErrorKind::Syntax);
    install_error(interp, "ReferenceError", ErrorKind::Reference);
    install_error(interp, "EvalError", ErrorKind::Eval);
    install_error(interp, "URIError", ErrorKind::Uri);

    // Date.
    let dproto = interp.protos.date;
    let ctor = super::def_ctor(interp, "Date", dproto, date_ctor);
    def_method(interp, ctor, "now", "Date.now", date_now);
    def_method(interp, dproto, "getTime", "Date.prototype.getTime", date_get_time);
    def_method(interp, dproto, "valueOf", "Date.prototype.valueOf", date_get_time);
    def_method(interp, dproto, "getFullYear", "Date.prototype.getFullYear", date_get_full_year);
    def_method(interp, dproto, "toISOString", "Date.prototype.toISOString", date_to_iso);
    def_method(interp, dproto, "toString", "Date.prototype.toString", date_to_iso);

    super::def_global(interp, "globalThis", Value::Undefined);
}

fn print_fn(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let parts: Vec<String> = args.iter().map(|a| interp.to_display_string(a)).collect();
    interp.write_output(&parts.join(" "));
    interp.write_output("\n");
    Ok(Value::Undefined)
}

fn eval_fn(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    match arg(args, 0) {
        // Per spec, non-string arguments are returned unchanged.
        Value::Str(src) => interp.eval_source(&src),
        other => Ok(other),
    }
}

fn global_parse_int(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let s = {
        let v = arg(args, 0);
        interp.to_js_string(&v)?
    };
    let radix = interp.to_number(&arg(args, 1))?;
    Ok(Value::Number(ops::parse_int(&s, radix)))
}

fn global_parse_float(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let s = {
        let v = arg(args, 0);
        interp.to_js_string(&v)?
    };
    Ok(Value::Number(ops::parse_float(&s)))
}

fn global_is_nan(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let n = interp.to_number(&arg(args, 0))?;
    Ok(Value::Bool(n.is_nan()))
}

fn global_is_finite(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    let n = interp.to_number(&arg(args, 0))?;
    Ok(Value::Bool(n.is_finite()))
}

fn fn_call(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let this_arg = arg(args, 0);
    interp.call_value(&this, this_arg, args.get(1..).unwrap_or(&[]))
}

fn fn_apply(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    let this_arg = arg(args, 0);
    let list = match arg(args, 1) {
        Value::Undefined | Value::Null => Vec::new(),
        Value::Obj(id) => match &interp.obj(id).kind {
            ObjKind::Array { elems } => {
                elems.iter().map(|e| e.clone().unwrap_or(Value::Undefined)).collect()
            }
            _ => {
                return Err(
                    interp.throw(ErrorKind::Type, "CreateListFromArrayLike called on non-object")
                )
            }
        },
        _ => {
            return Err(
                interp.throw(ErrorKind::Type, "CreateListFromArrayLike called on non-object")
            )
        }
    };
    interp.call_value(&this, this_arg, &list)
}

fn fn_bind(interp: &mut Interp<'_>, this: Value, args: &[Value]) -> Result<Value, Control> {
    // Represent the bound function as a plain array-backed closure record:
    // [target, boundThis, ...boundArgs], dispatched by a native trampoline.
    let record = interp
        .new_array(std::iter::once(Some(this)).chain(args.iter().cloned().map(Some)).collect());
    let tramp = native(interp, "bound function", bound_trampoline);
    if let (Value::Obj(tid), Value::Obj(_)) = (&tramp, &record) {
        interp.obj_mut(*tid).props.insert("__bound__", Prop::frozen(record));
    }
    Ok(tramp)
}

fn bound_trampoline(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
) -> Result<Value, Control> {
    // `this` for natives is the receiver of the call, so the record must be
    // read off the function object itself; the interpreter passes the callee
    // as receiver only for method calls. We instead stash the record on the
    // currently-executing native via a thread-local—simpler: natives receive
    // the *bound record* through the `this` slot when invoked as a plain
    // call; to keep this robust we look the record up on the callee object,
    // which `call_value` exposes via `current_native_self`.
    let record = interp
        .current_native_self()
        .ok_or_else(|| interp.throw(ErrorKind::Type, "bound function lost its target"))?;
    let Value::Obj(rid) = interp
        .obj(record)
        .props
        .get("__bound__")
        .map(|p| p.value.clone())
        .unwrap_or(Value::Undefined)
    else {
        return Err(interp.throw(ErrorKind::Type, "bound function lost its target"));
    };
    let elems = match &interp.obj(rid).kind {
        ObjKind::Array { elems } => elems.clone(),
        _ => return Err(interp.throw(ErrorKind::Type, "bound function lost its target")),
    };
    let target = elems.first().cloned().flatten().unwrap_or(Value::Undefined);
    let bound_this = elems.get(1).cloned().flatten().unwrap_or(Value::Undefined);
    let mut all: Vec<Value> =
        elems.iter().skip(2).map(|e| e.clone().unwrap_or(Value::Undefined)).collect();
    all.extend(args.iter().cloned());
    interp.call_value(&target, bound_this, &all)
}

fn fn_to_string(interp: &mut Interp<'_>, this: Value, _args: &[Value]) -> Result<Value, Control> {
    Ok(Value::str(interp.to_display_string(&this)))
}

fn install_error(interp: &mut Interp<'_>, name: &'static str, kind: ErrorKind) {
    let proto = interp.protos.error[kind as usize];
    def_value(interp, proto, "name", Value::str(name));
    def_value(interp, proto, "message", Value::str(""));
    def_method(interp, proto, "toString", "Error.prototype.toString", error_to_string);

    macro_rules! ctor_shim {
        ($k:expr) => {
            |i: &mut Interp<'_>, t: Value, a: &[Value]| error_ctor(i, t, a, $k)
        };
    }
    let func: crate::value::NativeFn = match kind {
        ErrorKind::Error => ctor_shim!(ErrorKind::Error),
        ErrorKind::Type => ctor_shim!(ErrorKind::Type),
        ErrorKind::Range => ctor_shim!(ErrorKind::Range),
        ErrorKind::Syntax => ctor_shim!(ErrorKind::Syntax),
        ErrorKind::Reference => ctor_shim!(ErrorKind::Reference),
        ErrorKind::Eval => ctor_shim!(ErrorKind::Eval),
        ErrorKind::Uri => ctor_shim!(ErrorKind::Uri),
    };
    super::def_ctor(interp, name, proto, func);
}

fn error_ctor(
    interp: &mut Interp<'_>,
    _this: Value,
    args: &[Value],
    kind: ErrorKind,
) -> Result<Value, Control> {
    let message = match arg(args, 0) {
        Value::Undefined => String::new(),
        v => interp.to_js_string(&v)?,
    };
    let proto = interp.protos.error[kind as usize];
    let mut obj = Obj::new(ObjKind::Error { kind }, Some(proto));
    obj.props.insert("message", Prop::builtin(Value::str(&message)));
    Ok(Value::Obj(interp.alloc(obj)))
}

fn error_to_string(
    interp: &mut Interp<'_>,
    this: Value,
    _args: &[Value],
) -> Result<Value, Control> {
    let name = {
        let v = interp.get_property(&this, "name")?;
        if v.is_undefined() {
            "Error".to_string()
        } else {
            interp.to_js_string(&v)?
        }
    };
    let message = {
        let v = interp.get_property(&this, "message")?;
        if v.is_undefined() {
            String::new()
        } else {
            interp.to_js_string(&v)?
        }
    };
    Ok(Value::str(if message.is_empty() {
        name
    } else if name.is_empty() {
        message
    } else {
        format!("{name}: {message}")
    }))
}

fn date_ctor(interp: &mut Interp<'_>, _this: Value, args: &[Value]) -> Result<Value, Control> {
    let ms = match args.first() {
        None => FIXED_NOW_MS,
        Some(v) => interp.to_number(v)?,
    };
    let proto = interp.protos.date;
    Ok(Value::Obj(interp.alloc(Obj::new(ObjKind::Date { ms }, Some(proto)))))
}

fn date_now(_interp: &mut Interp<'_>, _this: Value, _args: &[Value]) -> Result<Value, Control> {
    Ok(Value::Number(FIXED_NOW_MS))
}

fn this_date(interp: &mut Interp<'_>, this: &Value) -> Result<f64, Control> {
    if let Value::Obj(id) = this {
        if let ObjKind::Date { ms } = interp.obj(*id).kind {
            return Ok(ms);
        }
    }
    Err(interp.throw(ErrorKind::Type, "this is not a Date object"))
}

fn date_get_time(interp: &mut Interp<'_>, this: Value, _args: &[Value]) -> Result<Value, Control> {
    let ms = this_date(interp, &this)?;
    Ok(Value::Number(ms))
}

fn date_get_full_year(
    interp: &mut Interp<'_>,
    this: Value,
    _args: &[Value],
) -> Result<Value, Control> {
    let ms = this_date(interp, &this)?;
    // Days since epoch → civil year (Howard Hinnant's algorithm, simplified).
    let days = (ms / 86_400_000.0).floor() as i64;
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let year = if doy >= 306 { y + 1 } else { y };
    Ok(Value::Number(year as f64))
}

fn date_to_iso(interp: &mut Interp<'_>, this: Value, _args: &[Value]) -> Result<Value, Control> {
    let ms = this_date(interp, &this)?;
    // Deterministic, simplified rendering.
    Ok(Value::str(format!("[Date {ms}]")))
}
