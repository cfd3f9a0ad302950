//! Builtin-semantics conformance suite: a table of expressions with their
//! ground-truth ECMA-262 results (checked against real engines), executed on
//! the conforming reference profile. This is the substrate's own mini
//! Test262 — if the reference interpreter drifts, differential testing
//! upstream becomes meaningless.

use comfort_interp::{hooks::SpecProfile, run_source, RunOptions, RunStatus};

fn eval_print(expr: &str) -> String {
    let src = format!("print({expr});");
    let r = run_source(&src, &SpecProfile, &RunOptions::default())
        .unwrap_or_else(|e| panic!("parse error for {expr:?}: {e}"));
    match r.status {
        RunStatus::Completed => r.output.strip_suffix('\n').unwrap_or(&r.output).to_string(),
        other => format!("{other:?}"),
    }
}

fn check_all(cases: &[(&str, &str)]) {
    for (expr, expected) in cases {
        assert_eq!(&eval_print(expr), expected, "mismatch for {expr}");
    }
}

#[test]
fn string_builtin_table() {
    check_all(&[
        ("'hello'.length", "5"),
        ("''.length", "0"),
        ("'hello'.charAt(0)", "h"),
        ("'hello'.charAt(99)", ""),
        ("'hello'.charCodeAt(99)", "NaN"),
        ("'abc'.codePointAt(1)", "98"),
        ("'hello'.indexOf('l')", "2"),
        ("'hello'.indexOf('l', 3)", "3"),
        ("'hello'.lastIndexOf('l')", "3"),
        ("'hello'.includes('ell')", "true"),
        ("'hello'.includes('xyz')", "false"),
        ("'hello'.startsWith('he')", "true"),
        ("'hello'.startsWith('ello', 1)", "true"),
        ("'hello'.endsWith('lo')", "true"),
        ("'hello'.endsWith('hell', 4)", "true"),
        ("'hello'.slice(1, 3)", "el"),
        ("'hello'.slice(-2)", "lo"),
        ("'hello'.substring(3, 1)", "el"),
        ("'hello'.substring(-5, 2)", "he"),
        ("'hello'.substr(1, 3)", "ell"),
        ("'hello'.substr(-3, 2)", "ll"),
        ("'hello'.substr(1)", "ello"),
        ("'aBc'.toUpperCase()", "ABC"),
        ("'aBc'.toLowerCase()", "abc"),
        ("'  x  '.trim()", "x"),
        ("'  x  '.trimStart()", "x  "),
        ("'  x  '.trimEnd()", "  x"),
        ("'ab'.repeat(0)", ""),
        ("'ab'.repeat(2)", "abab"),
        ("'5'.padStart(3, '0')", "005"),
        ("'5'.padEnd(3, '!')", "5!!"),
        ("'5'.padStart(1, '0')", "5"),
        ("'a,b,,c'.split(',').length", "4"),
        ("'abc'.split('').length", "3"),
        ("'x'.split(undefined).length", "1"),
        ("'aa'.replace('a', 'b')", "ba"),
        ("'aa'.replace(/a/g, 'b')", "bb"),
        ("'a1b2'.replace(/(\\d)/g, '[$1]')", "a[1]b[2]"),
        ("'ab'.concat('cd', 'ef')", "abcdef"),
        ("'b'.localeCompare('a')", "1"),
        ("'a'.localeCompare('a')", "0"),
        ("String.fromCharCode(97, 98)", "ab"),
        ("'abc'.normalize('NFC')", "abc"),
        ("'anA'.split(/^A/).length", "1"),
        ("'Abc'.split(/^A/).length", "2"),
    ]);
}

#[test]
fn number_builtin_table() {
    check_all(&[
        ("(3.14159).toFixed(2)", "3.14"),
        ("(0).toFixed(0)", "0"),
        ("(1.005).toFixed(1)", "1.0"),
        ("(NaN).toFixed(2)", "NaN"),
        ("(255).toString(16)", "ff"),
        ("(255).toString(2)", "11111111"),
        ("(8.5).toString(2)", "1000.1"),
        ("(123.456).toPrecision(4)", "123.5"),
        ("(123.456).toPrecision(2)", "1.2e+2"),
        ("Number('42')", "42"),
        ("Number('  ')", "0"),
        ("Number('x')", "NaN"),
        ("Number(true)", "1"),
        ("Number(null)", "0"),
        ("Number(undefined)", "NaN"),
        ("Number.isInteger(4)", "true"),
        ("Number.isInteger(4.5)", "false"),
        ("Number.isInteger('4')", "false"),
        ("Number.isSafeInteger(9007199254740991)", "true"),
        ("Number.isSafeInteger(9007199254740992)", "false"),
        ("Number.isNaN(NaN)", "true"),
        ("Number.isNaN('x')", "false"), // no coercion, unlike global isNaN
        ("isNaN('x')", "true"),
        ("isFinite('10')", "true"),
        ("parseInt('  42abc')", "42"),
        ("parseInt('0x1A')", "26"),
        ("parseInt('11', 2)", "3"),
        ("parseInt('z', 36)", "35"),
        ("parseFloat('3.14.15')", "3.14"),
        ("parseFloat('.5')", "0.5"),
        ("Number.MAX_SAFE_INTEGER", "9007199254740991"),
    ]);
}

#[test]
fn math_builtin_table() {
    check_all(&[
        ("Math.abs(-3)", "3"),
        ("Math.floor(-1.5)", "-2"),
        ("Math.ceil(-1.5)", "-1"),
        ("Math.round(2.5)", "3"),
        ("Math.round(-2.5)", "-2"), // JS rounds half toward +Infinity
        ("Math.trunc(-2.7)", "-2"),
        ("Math.sign(-7)", "-1"),
        ("Math.sign(0)", "0"),
        ("Math.sqrt(144)", "12"),
        ("Math.cbrt(27)", "3"),
        ("Math.pow(2, 8)", "256"),
        ("Math.max()", "-Infinity"),
        ("Math.min()", "Infinity"),
        ("Math.max(1, NaN)", "NaN"),
        ("Math.hypot(3, 4)", "5"),
        ("Math.log2(8)", "3"),
        ("Math.log10(1000)", "3"),
    ]);
}

#[test]
fn array_builtin_table() {
    check_all(&[
        ("[1, 2, 3].length", "3"),
        ("new Array(4).length", "4"),
        ("Array.of(4).length", "1"),
        ("[1, 2].concat(3, [4, 5]).length", "5"),
        ("[1, 2, 3].join('')", "123"),
        ("[1, , 3].join('-')", "1--3"),
        ("[null, undefined].join(',')", ","),
        ("[3, 1, 2].sort().join(',')", "1,2,3"),
        ("[10, 9].sort().join(',')", "10,9"),
        ("[3, 1].sort(function(a, b) { return b - a; }).join(',')", "3,1"),
        ("[1, 2, 3].slice(-2).join(',')", "2,3"),
        ("[1, 2, 3].indexOf(4)", "-1"),
        ("[1, NaN].indexOf(NaN)", "-1"),    // strict equality
        ("[1, NaN].includes(NaN)", "true"), // SameValueZero
        ("[1, 2, 3].lastIndexOf(3)", "2"),
        ("[1, 2, 3, 4].filter(function(x) { return x > 2; }).length", "2"),
        ("[1, 2, 3].map(function(x) { return x * x; }).join(',')", "1,4,9"),
        ("[1, 2, 3, 4].reduce(function(a, b) { return a + b; })", "10"),
        ("[].reduce(function(a, b) { return a + b; }, 5)", "5"),
        ("[1, 2].some(function(x) { return x > 1; })", "true"),
        ("[1, 2].every(function(x) { return x > 1; })", "false"),
        ("[1, 2, 3].find(function(x) { return x > 1; })", "2"),
        ("[1, 2, 3].findIndex(function(x) { return x > 1; })", "1"),
        ("[1, [2, [3]]].flat().length", "3"),
        ("[1, [2, [3]]].flat(2).length", "3"),
        ("[0, 0, 0].fill(7, 1).join(',')", "0,7,7"),
        ("[1, 2, 3].reverse().join(',')", "3,2,1"),
        ("Array.from([1, 2], function(x) { return x + 1; }).join(',')", "2,3"),
        ("Array.isArray(new Array(1))", "true"),
    ]);
}

#[test]
fn object_builtin_table() {
    check_all(&[
        ("Object.keys({b: 1, a: 2}).join(',')", "b,a"), // insertion order
        ("Object.values({x: 7}).join(',')", "7"),
        ("Object.entries({x: 7})[0].join(':')", "x:7"),
        ("Object.keys([9, 9]).join(',')", "0,1"),
        ("Object.assign({a: 1}, {a: 2, b: 3}).a", "2"),
        ("Object.isFrozen(Object.freeze({}))", "true"),
        ("Object.isSealed(Object.seal({}))", "true"),
        ("Object.isExtensible(Object.preventExtensions({}))", "false"),
        ("Object.getOwnPropertyDescriptor({k: 1}, 'k').writable", "true"),
        ("Object.create(null) + ''", "Threw { kind: Some(Type), message: \"TypeError: Cannot convert object to primitive value\" }"),
        ("({}).toString()", "[object Object]"),
        ("Object.prototype.toString.call([])", "[object Array]"),
        ("Object.prototype.toString.call(null)", "[object Null]"),
        ("({a: 1}).propertyIsEnumerable('a')", "true"),
        ("Object.prototype.isPrototypeOf({})", "true"),
    ]);
}

#[test]
fn json_builtin_table() {
    check_all(&[
        ("JSON.stringify(1)", "1"),
        ("JSON.stringify('x')", "\"x\""),
        ("JSON.stringify(null)", "null"),
        ("JSON.stringify(NaN)", "null"),
        ("JSON.stringify(Infinity)", "null"),
        ("JSON.stringify([1, undefined, 3])", "[1,null,3]"),
        ("JSON.stringify({f: function() {}})", "{}"),
        ("JSON.stringify({a: undefined})", "{}"),
        ("JSON.parse('[1, 2, 3]')[1]", "2"),
        ("JSON.parse('\"\\\\u0041\"')", "A"),
        ("JSON.parse('-1.5e2')", "-150"),
        ("JSON.parse('{\"a\":{\"b\":true}}').a.b", "true"),
    ]);
}

#[test]
fn typed_array_table() {
    check_all(&[
        ("new Uint8Array(3).join(',')", "0,0,0"),
        ("new Uint8Array([255, 256, 257]).join(',')", "255,0,1"),
        ("new Uint8ClampedArray([300, -5]).join(',')", "255,0"),
        ("new Int8Array([200]).join(',')", "-56"),
        ("new Int32Array([1.9]).join(',')", "1"),
        ("new Float64Array([1.5])[0]", "1.5"),
        ("new Uint16Array(new ArrayBuffer(8)).length", "4"),
        ("new Uint32Array(4).byteLength", "16"),
        ("new Uint8Array(8).subarray(2, 5).length", "3"),
        ("new Uint8Array([1, 2, 3]).slice(1).join(',')", "2,3"),
        ("new Uint8Array([5, 6]).indexOf(6)", "1"),
        ("new DataView(new ArrayBuffer(4)).byteLength", "4"),
    ]);
}

#[test]
fn operators_and_coercion_table() {
    check_all(&[
        ("1 + '2'", "12"),
        ("'3' * '2'", "6"),
        ("1 + null", "1"),
        ("1 + undefined", "NaN"),
        ("[] + []", ""),
        ("[] + {}", "[object Object]"),
        ("null == 0", "false"),
        ("'' == 0", "true"),
        ("' \\t ' == 0", "true"),
        ("[1] == 1", "true"),
        ("typeof null", "object"),
        ("typeof (function() {})", "function"),
        ("-'5'", "-5"),
        ("+true", "1"),
        ("~-1", "0"),
        ("5 >> 1", "2"),
        ("-1 >>> 28", "15"),
        ("1 << 31", "-2147483648"),
        ("'b' > 'a'", "true"),
        ("'10' < '9'", "true"), // string comparison
        ("10 < '9'", "false"),  // numeric comparison
        ("NaN === NaN", "false"),
        ("0 === -0", "true"),
        ("void 0", "undefined"),
        ("true && 'yes'", "yes"),
        ("0 || 'fallback'", "fallback"),
    ]);
}

#[test]
fn error_messages_have_kinds() {
    let cases = [
        ("null.prop;", "TypeError"),
        ("undefinedName;", "ReferenceError"),
        ("(5).toFixed(101);", "RangeError"),
        ("'a'.repeat(-1);", "RangeError"),
        ("new RegExp('[');", "SyntaxError"),
        ("JSON.parse('nope');", "SyntaxError"),
        ("[].reduce(function() {});", "TypeError"),
        ("new Array(-1);", "RangeError"),
        ("Object.defineProperty(1, 'x', {});", "TypeError"),
    ];
    for (src, kind) in cases {
        let r = run_source(src, &SpecProfile, &RunOptions::default())
            .unwrap_or_else(|e| panic!("parse error for {src:?}: {e}"));
        match r.status {
            RunStatus::Threw { kind: Some(k), .. } => {
                assert_eq!(k.name(), kind, "wrong error kind for {src}");
            }
            other => panic!("expected {kind} for {src}, got {other:?}"),
        }
    }
}

#[test]
fn regexp_builtin_table() {
    check_all(&[
        ("/a+b/.test('caaab')", "true"),
        ("/^a/.test('ba')", "false"),
        ("/(a)(b)?/.exec('a')[2]", "undefined"),
        ("/x/.exec('abc')", "null"),
        ("/[0-9]+/.exec('ab12cd').index", "2"),
        ("'The Fox'.match(/fox/i)[0]", "Fox"),
        ("'a1b2'.search(/\\d/)", "1"),
        ("new RegExp('a.c').source", "a.c"),
        ("/ab/gi.flags.length", "2"),
        ("/a/g.global", "true"),
        ("/a/.global", "false"),
    ]);
}

#[test]
fn function_and_this_table() {
    check_all(&[
        ("(function() { return typeof this; })()", "undefined"),
        ("({m: function() { return this.v; }, v: 3}).m()", "3"),
        ("(function(a, b) { return arguments.length; })(1, 2, 3)", "3"),
        ("(function f(n) { return n <= 1 ? 1 : n * f(n - 1); })(5)", "120"),
        ("(function() {}).length", "0"),
        ("(function(a, b, c) {}).length", "3"),
        ("Math.max.apply(null, [3, 9, 4])", "9"),
        ("(function() { return this; }).call('s') + ''", "s"),
    ]);
}

/// Dense arrays spend 24 bytes a slot, so every write that could grow one
/// to billions of slots throws `RangeError` above `1 << 20` slots instead of
/// asking the allocator for up to 100 GB, which aborts the whole process.
#[test]
fn dense_array_growth_is_bounded() {
    let growths = [
        "var a = new Array(4294967295); print(a.length);",
        "var a = []; a[4294967294] = 1;",
        "var a = []; a.length = 4294967295;",
        "var a = []; Object.defineProperty(a, 'length', { value: 4294967295 });",
        "var a = []; Object.defineProperty(a, 'length', { value: 1e300 });",
        "new Array(1048577);",
        "var a = [1]; a[1048576] = 2;",
    ];
    for src in growths {
        let r = run_source(src, &SpecProfile, &RunOptions::default())
            .unwrap_or_else(|e| panic!("parse error for {src:?}: {e}"));
        let expected = RunStatus::Threw {
            kind: Some(comfort_interp::ErrorKind::Range),
            message: "RangeError: Invalid array length".to_string(),
        };
        assert_eq!(r.status, expected, "{src}");
    }
    // At the cap arrays grow as before, and the error is catchable.
    check_all(&[
        ("new Array(1048576).length", "1048576"),
        ("(function () { var a = []; a[1048575] = 1; return a.length; })()", "1048576"),
        ("(function () { var a = [1, 2]; a.length = 1048576; return a[1]; })()", "2"),
        (
            "(function () { var a = []; Object.defineProperty(a, 'length', { value: 5 }); \
             return a.length; })()",
            "5",
        ),
        (
            "(function () { try { new Array(4294967295); } catch (e) { \
             return e instanceof RangeError; } })()",
            "true",
        ),
    ]);
}

/// `forEach`, `map` and `filter` read the array live: the length is fixed
/// when the call starts, each element is read when its turn comes, and a
/// slot the callback removed is skipped (a hole in `map`'s result).
#[test]
fn array_callbacks_that_grow_or_shrink_their_array() {
    check_all(&[
        (
            "(function () { var a = [1, 2, 3]; var seen = []; a.forEach(function (x, i) { \
             seen.push(x + ':' + i); if (a.length < 6) { a.push(x * 10); } }); \
             return seen.join() + '|' + a.join(); })()",
            "1:0,2:1,3:2|1,2,3,10,20,30",
        ),
        (
            "(function () { var a = [1, 2, 3, 4]; var seen = []; a.forEach(function (x, i) { \
             seen.push(x + ':' + i); a.pop(); }); return seen.join() + '|' + a.join(); })()",
            "1:0,2:1|1,2",
        ),
        (
            "(function () { var a = [1, 2, 3, 4]; var seen = []; a.forEach(function (x, i) { \
             seen.push(x + ':' + i); a.length = 1; }); return seen.join() + '|' + a.join(); })()",
            "1:0|1",
        ),
        (
            "(function () { var a = [1, 2, 3]; var r = a.map(function (x) { a.push(x); \
             return x * 2; }); return r.join() + '|' + r.length + '|' + a.join(); })()",
            "2,4,6|3|1,2,3,1,2,3",
        ),
        (
            "(function () { var a = [1, 2, 3, 4]; var r = a.map(function (x) { a.pop(); \
             return x * 2; }); return r.join() + '|' + r.length + '|' + a.join(); })()",
            "2,4,,|4|1,2",
        ),
        (
            "(function () { var a = [1, 2, 3, 4]; var r = a.map(function (x, i) { \
             if (i === 1) { a.length = 2; } return x + i; }); \
             return r.join() + '|' + r.length + '|' + a.join(); })()",
            "1,3,,|4|1,2",
        ),
        (
            "(function () { var a = [1, 2, 3]; var r = a.filter(function (x) { a.push(x + 3); \
             return x % 2 === 1; }); return r.join() + '|' + a.join(); })()",
            "1,3|1,2,3,4,5,6",
        ),
        (
            "(function () { var a = [1, 2, 3, 4, 5]; var r = a.filter(function (x) { a.pop(); \
             return true; }); return r.join() + '|' + a.join(); })()",
            "1,2,3|1,2",
        ),
        (
            "(function () { var a = [5, 6, 7, 8]; var r = a.filter(function (x, i) { \
             a.length = 3 - i; return x > 5; }); \
             return r.join() + '|' + r.length + '|' + a.join(); })()",
            "6|1|5,6",
        ),
    ]);
}
