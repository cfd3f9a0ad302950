//! Language-level (non-builtin) semantics: scoping, hoisting, closures,
//! control flow, exceptions, ASI, and coercion corners. Ground truth checked
//! against real engines.

use comfort_interp::{hooks::SpecProfile, run_source, ErrorKind, RunOptions, RunStatus};

fn out(src: &str) -> String {
    let r = run_source(src, &SpecProfile, &RunOptions::default())
        .unwrap_or_else(|e| panic!("parse error for {src:?}: {e}"));
    assert!(r.status.is_completed(), "expected completion for {src:?}: {:?}", r.status);
    r.output
}

fn threw(src: &str) -> ErrorKind {
    let r = run_source(src, &SpecProfile, &RunOptions::default())
        .unwrap_or_else(|e| panic!("parse error for {src:?}: {e}"));
    match r.status {
        RunStatus::Threw { kind: Some(k), .. } => k,
        other => panic!("expected throw for {src:?}, got {other:?}"),
    }
}

#[test]
fn var_is_function_scoped_not_block_scoped() {
    assert_eq!(out("{ var x = 2; } print(x);"), "2\n");
    assert_eq!(out("if (true) { var y = 7; } print(y);"), "7\n");
    assert_eq!(out("function f() { if (true) { var z = 9; } return z; } print(f());"), "9\n");
    assert_eq!(out("for (var i = 0; i < 3; i++) { var w = i; } print(w, i);"), "2 3\n");
    assert_eq!(out("for (var k in {a: 1}) {} print(k);"), "a\n");
    assert_eq!(out("var n = 0; while (n < 2) { var inner = n; n++; } print(inner);"), "1\n");
}

#[test]
fn let_is_block_scoped() {
    assert_eq!(out("var x = 1; { let x = 2; print(x); } print(x);"), "2\n1\n");
    assert_eq!(out("let a = 'outer'; if (true) { let a = 'inner'; } print(a);"), "outer\n");
}

#[test]
fn var_redeclaration_keeps_one_binding() {
    assert_eq!(out("var x = 1; var x = 2; print(x);"), "2\n");
    assert_eq!(out("var x = 1; var x; print(x);"), "1\n");
}

#[test]
fn function_declarations_hoist_above_use() {
    assert_eq!(out("print(add(2, 3)); function add(a, b) { return a + b; }"), "5\n");
    // Function declarations win over var hoisting of the same name.
    assert_eq!(out("print(typeof f); function f() {} var f;"), "function\n");
}

#[test]
fn closures_capture_bindings_not_values() {
    assert_eq!(out("var c = 0; function inc() { c++; } inc(); inc(); print(c);"), "2\n");
    assert_eq!(
        out("function counter() { var n = 0; return function() { return ++n; }; } var c = counter(); c(); print(c());"),
        "2\n"
    );
}

#[test]
fn this_binding_rules() {
    assert_eq!(out("var o = {v: 1, m: function() { return this.v; }}; print(o.m());"), "1\n");
    // Detached method loses its receiver.
    assert_eq!(
        out("var o = {v: 1, m: function() { return typeof this; }}; var f = o.m; print(f());"),
        "undefined\n"
    );
    // Arrows see the enclosing this.
    assert_eq!(
        out("var o = {v: 5, m: function() { return [1].map(() => this.v)[0]; }}; print(o.m());"),
        "5\n"
    );
}

#[test]
fn try_finally_control_flow() {
    assert_eq!(
        out("function f() { try { return 'try'; } finally { print('fin'); } } print(f());"),
        "fin\ntry\n"
    );
    assert_eq!(
        out("var r = ''; try { try { throw 1; } finally { r += 'f'; } } catch (e) { r += 'c'; } print(r);"),
        "fc\n"
    );
    assert_eq!(
        out("function g() { try { throw 'x'; } catch (e) { return 'caught'; } } print(g());"),
        "caught\n"
    );
}

#[test]
fn switch_fallthrough_and_default() {
    assert_eq!(
        out("switch (9) { case 1: print('a'); default: print('d'); case 2: print('b'); }"),
        "d\nb\n"
    );
    assert_eq!(
        out("switch ('1') { case 1: print('num'); break; default: print('none'); }"),
        "none\n"
    );
}

#[test]
fn loops_break_continue() {
    assert_eq!(
        out("var s = ''; for (var i = 0; i < 5; i++) { if (i === 2) continue; if (i === 4) break; s += i; } print(s);"),
        "013\n"
    );
    assert_eq!(out("var n = 0; do { n++; if (n > 2) break; } while (true); print(n);"), "3\n");
}

#[test]
fn asi_behaviour() {
    assert_eq!(out("var a = 1\nvar b = 2\nprint(a + b)"), "3\n");
    assert_eq!(out("function f() { return\n42; } print(f());"), "undefined\n");
}

#[test]
fn update_and_compound_assignment() {
    assert_eq!(out("var x = 5; print(x++, x, ++x);"), "5 6 7\n");
    assert_eq!(out("var x = 5; print(x--, --x);"), "5 3\n");
    assert_eq!(out("var s = 'a'; s += 1; print(s);"), "a1\n");
    assert_eq!(out("var n = 7; n %= 4; n <<= 2; print(n);"), "12\n");
    assert_eq!(out("var o = {k: 1}; o.k += 9; print(o.k);"), "10\n");
    assert_eq!(out("var a = [1]; a[0] *= 8; print(a[0]);"), "8\n");
}

#[test]
fn exceptions_propagate_through_frames() {
    assert_eq!(
        out("function a() { throw new RangeError('deep'); } function b() { a(); } try { b(); } catch (e) { print(e.name, e.message); }"),
        "RangeError deep\n"
    );
    assert_eq!(threw("function a() { null.x; } a();"), ErrorKind::Type);
}

#[test]
fn throw_non_error_values() {
    assert_eq!(out("try { throw 42; } catch (e) { print(typeof e, e); }"), "number 42\n");
    assert_eq!(out("try { throw 'msg'; } catch (e) { print(e); }"), "msg\n");
    assert_eq!(out("try { throw {code: 7}; } catch (e) { print(e.code); }"), "7\n");
}

#[test]
fn prototype_chain_lookup_and_shadowing() {
    assert_eq!(
        out("function A() {} A.prototype.tag = 'proto'; var a = new A(); print(a.tag); a.tag = 'own'; print(a.tag); delete a.tag; print(a.tag);"),
        "proto\nown\nproto\n"
    );
}

#[test]
fn constructor_return_object_overrides_this() {
    assert_eq!(out("function C() { this.x = 1; return {x: 2}; } print(new C().x);"), "2\n");
    assert_eq!(out("function C() { this.x = 1; return 99; } print(new C().x);"), "1\n");
}

#[test]
fn sequence_and_comma_operator() {
    assert_eq!(out("var x = (1, 2, 3); print(x);"), "3\n");
    assert_eq!(out("var i = 0; var j = (i++, i + 10); print(i, j);"), "1 11\n");
}

#[test]
fn string_char_indexing() {
    assert_eq!(out("var s = 'abc'; print(s[0], s[2], s[9]);"), "a c undefined\n");
    assert_eq!(out("print('abc'.length + 'x');"), "3x\n");
}

#[test]
fn nested_functions_and_shadowed_params() {
    assert_eq!(
        out("function outer(v) { function inner(v) { return v * 2; } return inner(v + 1); } print(outer(3));"),
        "8\n"
    );
}

#[test]
fn eval_shares_global_scope() {
    assert_eq!(out("eval('var shared = 41;'); print(shared + 1);"), "42\n");
}

#[test]
fn for_in_enumerates_insertion_order() {
    assert_eq!(
        out("var keys = ''; for (var k in {z: 1, a: 2, m: 3}) keys += k; print(keys);"),
        "zam\n"
    );
    assert_eq!(
        out("var ks = []; for (var k in [7, 8]) ks.push(k); print(ks, typeof ks[0]);"),
        "0,1 string\n"
    );
}

#[test]
fn logical_operators_return_operands() {
    assert_eq!(out("print(null || 'dflt', 'a' && 'b', 0 && 'x');"), "dflt b 0\n");
}

#[test]
fn call_depth_limit_is_configurable() {
    // A self-recursive function that reports how deep it got before the
    // interpreter raised "Maximum call stack size exceeded".
    let src = "var depth = 0;\n\
               function down() { depth++; down(); }\n\
               try { down(); } catch (e) { print(e instanceof RangeError, depth); }";

    let shallow = run_source(src, &SpecProfile, &RunOptions::builder().max_call_depth(8).build())
        .expect("parses");
    assert!(shallow.status.is_completed(), "{:?}", shallow.status);
    assert_eq!(shallow.output, "true 8\n");

    let deeper = run_source(src, &SpecProfile, &RunOptions::builder().max_call_depth(32).build())
        .expect("parses");
    assert_eq!(deeper.output, "true 32\n");

    // The default limit still applies when the builder never touches it.
    let default = run_source(src, &SpecProfile, &RunOptions::default()).expect("parses");
    assert_eq!(default.output, format!("true {}\n", RunOptions::DEFAULT_MAX_CALL_DEPTH));
}

#[test]
fn arrows_read_the_enclosing_functions_arguments() {
    assert_eq!(
        out("function f() { var g = () => arguments[0] + arguments.length; return g(9); } \
             print(f(7, 8));"),
        "9\n"
    );
    assert_eq!(
        out("function f() { return (() => () => arguments[1])()(); } print(f('a', 'b'));"),
        "b\n"
    );
}

/// A chunk that spells no `arguments` builds no `arguments` binding. `eval`
/// code runs in the global env, so it cannot see the binding either way:
/// both chunks below answer alike.
#[test]
fn eval_code_never_sees_a_functions_arguments() {
    let without = "function f() { return eval('typeof arguments'); }\n\
                   function g() { return eval('argu' + 'ments'); }\n\
                   print(f(1));\n\
                   try { g(1); } catch (e) { print(e.name); }";
    let program = comfort_syntax::parse(without).expect("parses");
    assert!(!comfort_interp::compile(&program).names_arguments());
    assert_eq!(out(without), "undefined\nReferenceError\n");
    assert_eq!(
        threw("function g() { return eval('argu' + 'ments'); } g(1);"),
        ErrorKind::Reference
    );

    let with = format!("var spelled = 'arguments';\n{without}");
    let program = comfort_syntax::parse(&with).expect("parses");
    assert!(comfort_interp::compile(&program).names_arguments());
    assert_eq!(out(&with), "undefined\nReferenceError\n");
}
