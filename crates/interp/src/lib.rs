#![warn(missing_docs)]

//! The reference JavaScript interpreter for the COMFORT reproduction.
//!
//! This crate is the **engine substrate**: a from-scratch, deterministic
//! evaluator for the ES2015-era subset that COMFORT's generators emit.
//! Programs are [`compile`]d once into a shareable [`CompiledChunk`] (arena
//! AST + interned atoms) and executed by the arena VM, the one evaluator;
//! `eval`'d source is built into a chunk of its own and runs on the same VM.
//! The runtime provides
//!
//! * a full builtin library (Object, Function, Array, String, Number, Math,
//!   JSON, RegExp, typed arrays, DataView, Date, eval, Error family),
//! * **fuel metering** instead of wall-clock timeouts (deterministic
//!   "runtime timeout" classification, §3.4 of the paper),
//! * **coverage instrumentation** of the test program (statement / function
//!   / branch, §5.3.3),
//! * **conformance-profile hooks** ([`hooks::ConformanceProfile`]) through
//!   which `comfort-engines` injects seeded spec deviations — the simulated
//!   equivalents of the real engine bugs the paper reports.
//!
//! # Examples
//!
//! ```
//! use comfort_interp::{run_source, hooks::SpecProfile, RunOptions};
//!
//! let result = run_source(
//!     "var s = 'Name: Albert'; print(s.substr(6, undefined));",
//!     &SpecProfile,
//!     &RunOptions::default(),
//! ).expect("parses");
//! assert_eq!(result.output, "Albert\n");
//! assert!(result.status.is_completed());
//! ```

mod builtins;
pub mod chunk;
pub mod coverage;
pub mod footprint;
pub mod hooks;
mod interp;
pub mod ops;
pub mod value;

use std::sync::Arc;

pub use chunk::{compile, CompiledChunk};
pub use coverage::{Coverage, Universe};
pub use footprint::{extract_footprint, ApiFootprint};
pub use interp::{Backend, Control, Interp, RunOptions, RunOptionsBuilder, RunResult, RunStatus};
pub use value::{ErrorKind, ObjId, TaKind, Value};

use comfort_syntax::{parse, SyntaxError};
use hooks::ConformanceProfile;

/// Parses, compiles, and runs `src` under `profile`.
///
/// Compiles once and executes via [`run_chunk`].
///
/// # Errors
///
/// Returns the parse error if `src` is not syntactically valid (runtime
/// failures are reported inside [`RunResult`]'s status, not as `Err`).
pub fn run_source(
    src: &str,
    profile: &dyn ConformanceProfile,
    options: &RunOptions,
) -> Result<RunResult, SyntaxError> {
    let program = parse(src)?;
    let chunk = compile(&program);
    Ok(run_chunk(&chunk, profile, options))
}

/// Runs a compiled chunk under `profile` — phase two of the two-phase
/// compile/execute contract. Compile once with [`compile`], then call this
/// for every (profile, options) combination; the chunk is shared read-only.
pub fn run_chunk(
    chunk: &Arc<CompiledChunk>,
    profile: &dyn ConformanceProfile,
    options: &RunOptions,
) -> RunResult {
    let mut interp = Interp::new(profile);
    interp.run_chunk(chunk, options)
}

#[cfg(test)]
mod tests {
    use super::hooks::SpecProfile;
    use super::*;

    fn run(src: &str) -> RunResult {
        run_source(src, &SpecProfile, &RunOptions::default())
            .unwrap_or_else(|e| panic!("parse error for {src:?}: {e}"))
    }

    fn out(src: &str) -> String {
        let r = run(src);
        assert!(
            r.status.is_completed(),
            "expected completion for {src:?}, got {:?} (output so far: {:?})",
            r.status,
            r.output
        );
        r.output
    }

    fn threw(src: &str) -> ErrorKind {
        match run(src).status {
            RunStatus::Threw { kind: Some(k), .. } => k,
            other => panic!("expected throw for {src:?}, got {other:?}"),
        }
    }

    // -- language basics ------------------------------------------------------

    #[test]
    fn arithmetic_and_print() {
        assert_eq!(out("print(1 + 2 * 3);"), "7\n");
        assert_eq!(out("print(10 / 4);"), "2.5\n");
        assert_eq!(out("print(7 % 3);"), "1\n");
        assert_eq!(out("print(2 ** 10);"), "1024\n");
        assert_eq!(out("print(1 / 0);"), "Infinity\n");
        assert_eq!(out("print(0 / 0);"), "NaN\n");
    }

    #[test]
    fn string_concat_coercion() {
        assert_eq!(out("print('a' + 1);"), "a1\n");
        assert_eq!(out("print(1 + '1');"), "11\n");
        assert_eq!(out("print('5' - 1);"), "4\n");
        assert_eq!(out("print([1,2] + '');"), "1,2\n");
        assert_eq!(out("print({} + '');"), "[object Object]\n");
    }

    #[test]
    fn variables_and_scope() {
        assert_eq!(out("var x = 1; { let x = 2; print(x); } print(x);"), "2\n1\n");
        assert_eq!(out("var x = 5; function f() { return x; } print(f());"), "5\n");
    }

    #[test]
    fn hoisting() {
        assert_eq!(out("print(f()); function f() { return 42; }"), "42\n");
        assert_eq!(out("print(typeof x); var x = 1;"), "undefined\n");
    }

    #[test]
    fn closures() {
        assert_eq!(
            out("function mk(n) { return function(m) { return n + m; }; } print(mk(2)(3));"),
            "5\n"
        );
        assert_eq!(
            out("var fns = []; for (var i = 0; i < 3; i++) { fns.push((function(j) { return function() { return j; }; })(i)); } print(fns[0](), fns[2]());"),
            "0 2\n"
        );
    }

    #[test]
    fn arrow_functions_capture_this() {
        assert_eq!(out("var f = (a, b) => a * b; print(f(6, 7));"), "42\n");
        assert_eq!(
            out("var o = { v: 9, m: function() { var g = () => this.v; return g(); } }; print(o.m());"),
            "9\n"
        );
    }

    #[test]
    fn control_flow() {
        assert_eq!(out("var s = 0; for (var i = 1; i <= 10; i++) s += i; print(s);"), "55\n");
        assert_eq!(out("var n = 0; while (n < 5) n++; print(n);"), "5\n");
        assert_eq!(out("var n = 9; do { n++; } while (false); print(n);"), "10\n");
        assert_eq!(out("var s = ''; for (var k in {a: 1, b: 2}) s += k; print(s);"), "ab\n");
        assert_eq!(out("var s = 0; for (var v of [1, 2, 3]) s += v; print(s);"), "6\n");
        assert_eq!(
            out("switch (2) { case 1: print('one'); case 2: print('two'); case 3: print('three'); break; default: print('d'); }"),
            "two\nthree\n"
        );
    }

    #[test]
    fn exceptions() {
        assert_eq!(
            out("try { throw new TypeError('boom'); } catch (e) { print(e.message); }"),
            "boom\n"
        );
        assert_eq!(out("var r; try { r = 'a'; } finally { r += 'b'; } print(r);"), "ab\n");
        assert_eq!(threw("null.x;"), ErrorKind::Type);
        assert_eq!(threw("undefinedVariable + 1;"), ErrorKind::Reference);
        assert_eq!(threw("var x = 1; x();"), ErrorKind::Type);
    }

    #[test]
    fn typeof_and_equality() {
        assert_eq!(
            out("print(typeof 1, typeof 'a', typeof {}, typeof print);"),
            "number string object function\n"
        );
        assert_eq!(out("print(typeof neverDeclared);"), "undefined\n");
        assert_eq!(out("print(null == undefined, null === undefined);"), "true false\n");
        assert_eq!(out("print('1' == 1, '1' === 1);"), "true false\n");
        assert_eq!(out("print(NaN == NaN);"), "false\n");
    }

    #[test]
    fn recursion_and_stack_limit() {
        assert_eq!(
            out("function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); } print(fib(15));"),
            "610\n"
        );
        assert_eq!(threw("function r() { return r(); } r();"), ErrorKind::Range);
    }

    #[test]
    fn fuel_exhaustion_is_timeout() {
        let r = run_source(
            "while (true) {}",
            &SpecProfile,
            &RunOptions { fuel: 10_000, ..RunOptions::default() },
        )
        .expect("parses");
        assert_eq!(r.status, RunStatus::OutOfFuel);
    }

    // -- strict mode ------------------------------------------------------------

    #[test]
    fn strict_mode_undeclared_assignment() {
        assert_eq!(out("x = 1; print(x);"), "1\n"); // sloppy: implicit global
        assert_eq!(threw("\"use strict\"; y = 1;"), ErrorKind::Reference);
    }

    #[test]
    fn forced_strict_testbed() {
        let r = run_source(
            "z = 1; print(z);",
            &SpecProfile,
            &RunOptions { strict: true, ..RunOptions::default() },
        )
        .expect("parses");
        assert!(matches!(r.status, RunStatus::Threw { kind: Some(ErrorKind::Reference), .. }));
    }

    #[test]
    fn strict_readonly_write_throws() {
        let src = "var o = {}; Object.defineProperty(o, 'x', { value: 1, writable: false }); o.x = 2; print(o.x);";
        assert_eq!(out(src), "1\n"); // sloppy: silently ignored
        let strict = format!("\"use strict\"; {src}");
        assert_eq!(threw(&strict), ErrorKind::Type);
    }

    // -- builtins ---------------------------------------------------------------

    #[test]
    fn string_methods() {
        assert_eq!(out("print('Name: Albert'.substr(6));"), "Albert\n");
        assert_eq!(out("print('abcdef'.substr(-2));"), "ef\n");
        assert_eq!(out("print('abcdef'.substr(1, 2));"), "bc\n");
        assert_eq!(out("print('abc'.substr(5, 1));"), "\n"); // empty string
        assert_eq!(out("print('hello'.toUpperCase());"), "HELLO\n");
        assert_eq!(out("print('a,b,c'.split(','));"), "a,b,c\n");
        assert_eq!(out("print('a,b,c'.split(',').length);"), "3\n");
        assert_eq!(out("print('  x '.trim());"), "x\n");
        assert_eq!(out("print('ab'.repeat(3));"), "ababab\n");
        assert_eq!(out("print('7'.padStart(3, '0'));"), "007\n");
        assert_eq!(out("print('abc'.indexOf('b'), 'abc'.indexOf('z'));"), "1 -1\n");
        assert_eq!(out("print('hello'.charAt(1), 'hello'.charCodeAt(0));"), "e 104\n");
        assert_eq!(out("print('a-b'.replace('-', '+'));"), "a+b\n");
        assert_eq!(out("print('x1y2'.replace(/[0-9]/g, '#'));"), "x#y#\n");
        assert_eq!(out("print('anA'.split(/^A/));"), "anA\n"); // Listing 8, conforming
        assert_eq!(out("print(String.fromCharCode(72, 105));"), "Hi\n");
    }

    #[test]
    fn substr_undefined_length_is_suffix() {
        // Figure 2: the conforming answer.
        let src = r#"
function foo(str, start, len) { var ret = str.substr(start, len); return ret; }
var s = "Name: Albert";
var pre = "Name: ";
var len = undefined;
var name = foo(s, pre.length, len);
print(name);
"#;
        assert_eq!(out(src), "Albert\n");
    }

    #[test]
    fn number_methods() {
        assert_eq!(out("print((3.14159).toFixed(2));"), "3.14\n");
        assert_eq!(threw("(-634619).toFixed(-2);"), ErrorKind::Range); // Listing 4
        assert_eq!(out("print((255).toString(16));"), "ff\n");
        assert_eq!(threw("(1).toString(99);"), ErrorKind::Range);
        assert_eq!(out("print(parseInt('42px'), parseFloat('2.5x'));"), "42 2.5\n");
        assert_eq!(out("print(Number.isInteger(5), Number.isInteger(5.5));"), "true false\n");
        assert_eq!(out("print(Number('0x10'), Number(''), Number('abc'));"), "16 0 NaN\n");
    }

    #[test]
    fn math_object() {
        assert_eq!(out("print(Math.max(1, 9, 4), Math.min(2, -3));"), "9 -3\n");
        assert_eq!(out("print(Math.floor(2.9), Math.ceil(2.1), Math.round(2.5));"), "2 3 3\n");
        assert_eq!(out("print(Math.abs(-7), Math.sqrt(81));"), "7 9\n");
        // Deterministic Math.random: identical across runs.
        let a = out("print(Math.random());");
        let b = out("print(Math.random());");
        assert_eq!(a, b);
    }

    #[test]
    fn array_methods() {
        assert_eq!(out("var a = [1,2,3]; a.push(4); print(a, a.length);"), "1,2,3,4 4\n");
        assert_eq!(out("print([3,1,2].sort());"), "1,2,3\n");
        assert_eq!(out("print([10, 2].sort());"), "10,2\n"); // string sort
        assert_eq!(out("print([10, 2].sort(function(a,b){return a-b;}));"), "2,10\n");
        assert_eq!(out("print([1,2,3].map(function(x){return x*2;}));"), "2,4,6\n");
        assert_eq!(out("print([1,2,3,4].filter(function(x){return x%2===0;}));"), "2,4\n");
        assert_eq!(out("print([1,2,3].reduce(function(a,b){return a+b;}, 10));"), "16\n");
        assert_eq!(out("print([1,2,3].indexOf(2), [1].indexOf(9));"), "1 -1\n");
        assert_eq!(out("print([1,[2,[3]]].flat(2));"), "1,2,3\n");
        assert_eq!(out("print(['a','b'].join('-'));"), "a-b\n");
        assert_eq!(out("var a = [1,2,3]; print(a.slice(1), a.splice(0, 2), a);"), "2,3 1,2 3\n");
        assert_eq!(out("print(Array.isArray([]), Array.isArray('no'));"), "true false\n");
        assert_eq!(out("print(new Array(3).length);"), "3\n");
        assert_eq!(out("print(Array.from('abc'));"), "a,b,c\n");
    }

    #[test]
    fn object_builtins() {
        assert_eq!(out("print(Object.keys({a:1, b:2}));"), "a,b\n");
        assert_eq!(out("print(Object.values({a:1, b:2}));"), "1,2\n");
        assert_eq!(out("var o = Object.assign({}, {a:1}, {b:2}); print(o.a, o.b);"), "1 2\n");
        assert_eq!(
            out("var o = {x: 1}; Object.freeze(o); o.x = 2; print(o.x, Object.isFrozen(o));"),
            "1 true\n"
        );
        assert_eq!(
            out("var o = {}; Object.defineProperty(o, 'k', {value: 7}); print(o.k);"),
            "7\n"
        );
        assert_eq!(
            out("print(({a:1}).hasOwnProperty('a'), ({}).hasOwnProperty('a'));"),
            "true false\n"
        );
        assert_eq!(out("print(Object.getPrototypeOf({}) === Object.prototype);"), "true\n");
    }

    #[test]
    fn define_property_array_length_conforming() {
        // Listing 1: conforming engines must throw TypeError.
        let src = r#"
var arrobj = [0, 1];
Object.defineProperty(arrobj, "length", { value: 1, configurable: true });
"#;
        assert_eq!(threw(src), ErrorKind::Type);
    }

    #[test]
    fn prototypes_and_new() {
        assert_eq!(
            out("function P(n) { this.n = n; } P.prototype.get = function() { return this.n; }; print(new P(4).get());"),
            "4\n"
        );
        assert_eq!(
            out("function P() {} var p = new P(); print(p instanceof P, ({}) instanceof P);"),
            "true false\n"
        );
    }

    #[test]
    fn json_roundtrip() {
        assert_eq!(
            out("print(JSON.stringify({a: [1, 'x', null], b: true}));"),
            "{\"a\":[1,\"x\",null],\"b\":true}\n"
        );
        assert_eq!(
            out("var o = JSON.parse('{\"a\": [1, 2], \"b\": \"s\"}'); print(o.a[1], o.b);"),
            "2 s\n"
        );
        assert_eq!(threw("var a = []; a.push(a); JSON.stringify(a);"), ErrorKind::Type);
        assert_eq!(threw("JSON.parse('{bad}');"), ErrorKind::Syntax);
        assert_eq!(out("print(JSON.stringify(undefined));"), "undefined\n");
    }

    #[test]
    fn regexp_builtin() {
        assert_eq!(out("print(/a+/.test('caaat'), /z/.test('cat'));"), "true false\n");
        assert_eq!(
            out("var m = /(\\w+)@(\\w+)/.exec('bob@host'); print(m[1], m[2], m.index);"),
            "bob host 0\n"
        );
        assert_eq!(out("print('aXbXc'.split(/X/));"), "a,b,c\n");
        assert_eq!(out("var re = /o/g; re.exec('foo'); print(re.lastIndex);"), "2\n");
        assert_eq!(out("print(new RegExp('a.c').test('abc'));"), "true\n");
        assert_eq!(threw("new RegExp('(');"), ErrorKind::Syntax);
    }

    #[test]
    fn typed_arrays() {
        assert_eq!(out("var a = new Uint32Array(3.14); print(a.length);"), "3\n"); // Listing 3
        assert_eq!(
            out("var e = '123'; var A = new Uint8Array(5); A.set(e); print(A);"),
            "1,2,3,0,0\n" // Listing 5 conforming output
        );
        assert_eq!(out("var a = new Uint8Array(2); a[0] = 257; print(a[0]);"), "1\n");
        assert_eq!(out("var a = new Int8Array([1, -1]); print(a[1]);"), "-1\n");
        assert_eq!(out("var b = new ArrayBuffer(8); print(b.byteLength);"), "8\n");
        assert_eq!(
            out("var b = new ArrayBuffer(8); var v = new DataView(b); v.setUint32(0, 7); print(v.getUint32(0));"),
            "7\n"
        );
        assert_eq!(
            out("var a = new Float64Array(2); a.fill(1.5); print(a.join('+'));"),
            "1.5+1.5\n"
        );
    }

    #[test]
    fn eval_builtin() {
        assert_eq!(out("eval('print(40 + 2)');"), "42\n");
        assert_eq!(threw("eval('for(var i = 0; i < 1; ++i)');"), ErrorKind::Syntax); // Listing 7
        assert_eq!(out("print(eval(5));"), "5\n"); // non-string passthrough
    }

    #[test]
    fn array_property_key_conforming() {
        // Listing 6: a boolean key becomes a named property, not an element.
        let src = r#"
var property = true;
var obj = [1,2,5];
obj[property] = 10;
print(obj);
print(obj[property]);
"#;
        assert_eq!(out(src), "1,2,5\n10\n");
    }

    #[test]
    fn function_call_apply_bind() {
        assert_eq!(
            out("function f(a, b) { return this.x + a + b; } print(f.call({x: 1}, 2, 3));"),
            "6\n"
        );
        assert_eq!(out("function f(a, b) { return a * b; } print(f.apply(null, [6, 7]));"), "42\n");
        assert_eq!(
            out("function f(a, b) { return a + b; } var g = f.bind(null, 10); print(g(5));"),
            "15\n"
        );
        assert_eq!(out("print('x'.big.call('y'));"), "<big>y</big>\n"); // Listing 10 API
    }

    #[test]
    fn string_prototype_big_null_receiver_throws() {
        // Listing 10: conforming engines throw a TypeError on a null receiver.
        assert_eq!(threw("String.prototype.big.call(null);"), ErrorKind::Type);
    }

    #[test]
    fn date_is_deterministic() {
        let a = out("print(Date.now());");
        let b = out("print(new Date().getTime());");
        assert_eq!(a, b);
        assert_eq!(out("print(new Date().getFullYear());"), "2020\n");
    }

    #[test]
    fn arguments_object() {
        assert_eq!(
            out("function f() { return arguments.length + ':' + arguments[0]; } print(f('a', 'b'));"),
            "2:a\n"
        );
    }

    #[test]
    fn user_defined_to_primitive() {
        assert_eq!(out("var o = { valueOf: function() { return 7; } }; print(o * 2);"), "14\n");
        assert_eq!(out("var o = { toString: function() { return 'S'; } }; print('' + o);"), "S\n");
    }

    #[test]
    fn coverage_recording() {
        let src = "function f(a) { if (a) { return 1; } return 2; } print(f(1));";
        let r =
            run_source(src, &SpecProfile, &RunOptions { coverage: true, ..RunOptions::default() })
                .expect("parses");
        let cov = r.coverage.expect("coverage requested");
        let prog = comfort_syntax::parse(src).expect("parses");
        let universe = Universe::of(&prog);
        assert!(cov.func_ratio(&universe) > 0.99);
        assert!(cov.stmt_ratio(&universe) > 0.5); // `return 2` unreached
        assert!(cov.stmt_ratio(&universe) < 1.0);
        assert_eq!(cov.branch_ratio(&universe), 0.5); // only the true arm
    }

    #[test]
    fn template_literals_evaluate() {
        assert_eq!(out("var x = 6; print(`v=${x * 7}!`);"), "v=42!\n");
    }

    #[test]
    fn delete_and_in_operators() {
        assert_eq!(
            out("var o = {a: 1}; print('a' in o); delete o.a; print('a' in o);"),
            "true\nfalse\n"
        );
        assert_eq!(out("print(0 in [7], 1 in [7], 'length' in []);"), "true false true\n");
    }

    #[test]
    fn output_bounded_under_runaway_print() {
        let r = run_source(
            "for (var i = 0; i < 100000; i++) print('xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx');",
            &SpecProfile,
            &RunOptions::default(),
        )
        .expect("parses");
        assert!(r.output.len() <= (1 << 20) + 64);
    }
}
