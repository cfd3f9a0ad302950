//! Golden gate for the evaluator: every observable of every run below must
//! equal the line recorded for it in `evaluator_golden.txt`.
//!
//! The lines were recorded from the AST tree-walker that the arena VM
//! replaced, so the data file is the walker's standing verdict: status,
//! fuel used, an output hash and a coverage hash per run. The inputs are the 120
//! corpus seeds, the ECMA-guided mutants of seeds 0..24, a fixed draw of
//! fuel-truncated corpus runs, differential outcomes over the latest
//! testbeds, the seed-6 campaign checksum, and a set of `eval` programs run
//! under the reference profile at full fuel, at five fuel cuts and on every
//! testbed. `eval`'d code is where the walker ran last, so those programs
//! cover every statement and expression kind inside `eval`, functions that
//! outlive it, nesting to the depth limit, strict callers, the seeded
//! headless-`for` leniency and a fuel cut inside `eval`'d code.
//!
//! A mismatch names each differing entry and prints its current line. The
//! test never rewrites the file.

use std::collections::BTreeMap;

use comfort::core::campaign::{Campaign, CampaignConfig};
use comfort::core::checkpoint::{report_checksum, Fingerprint};
use comfort::core::datagen::{DataGen, DataGenConfig};
use comfort::core::differential::run_differential;
use comfort::engines::{all_testbeds, latest_testbeds, Testbed};
use comfort::interp::{compile, hooks::SpecProfile, run_chunk, RunOptions, RunResult, RunStatus};
use comfort::lm::GeneratorConfig;
use comfort::syntax::{parse, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = include_str!("evaluator_golden.txt");

/// The fuel budget of a full run.
const FUEL: u64 = 300_000;

fn options(fuel: u64) -> RunOptions {
    RunOptions { fuel, coverage: true, ..RunOptions::default() }
}

fn hash(text: &str) -> String {
    let mut fp = Fingerprint::new();
    fp.mix_str(text);
    format!("{:016x}", fp.finish())
}

/// One run's golden line: status, fuel used, output and coverage.
fn line(r: &RunResult) -> String {
    let status = match &r.status {
        RunStatus::Completed => "ok".to_string(),
        RunStatus::OutOfFuel => "fuel".to_string(),
        RunStatus::Crashed(msg) => format!("crash {msg:?}"),
        RunStatus::Threw { kind, message } => format!("threw {kind:?} {message:?}"),
    };
    let coverage = match &r.coverage {
        Some(c) => hash(&format!("{c:?}")),
        None => "-".to_string(),
    };
    format!(
        "{status} fuel={} out={}:{} cov={coverage}",
        r.fuel_used,
        r.output.len(),
        hash(&r.output)
    )
}

fn run_program(program: &Program, fuel: u64) -> RunResult {
    run_chunk(&compile(program), &SpecProfile, &options(fuel))
}

fn corpus_program(seed: u64) -> Program {
    let src = comfort::corpus::training_corpus(seed, 1).remove(0);
    parse(&src).expect("corpus parses")
}

fn corpus_entries() -> Vec<(String, String)> {
    (0..120u64)
        .map(|seed| (format!("corpus/{seed}"), line(&run_program(&corpus_program(seed), FUEL))))
        .collect()
}

/// The datagen mutants reach API boundary values the plain corpus does not
/// (NaN lengths, negative indices, dropped arguments).
fn mutant_entries() -> Vec<(String, String)> {
    let datagen = DataGen::new(comfort::ecma262::spec_db(), DataGenConfig::default());
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut next_id = 0u64;
    let mut out = Vec::new();
    for seed in 0..24u64 {
        for case in datagen.mutate(&corpus_program(seed), seed, &mut next_id, &mut rng) {
            out.push((
                format!("mutant/{seed}/{}", case.id),
                line(&run_program(&case.program, FUEL)),
            ));
        }
    }
    out
}

/// Budgets small enough to stop a corpus program part-way.
fn truncation_entries() -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(0xF0E1);
    (0..64)
        .map(|_| {
            let seed = rng.random_range(0u64..4000);
            let fuel = rng.random_range(1u64..2000);
            (format!("truncated/{seed}/{fuel}"), line(&run_program(&corpus_program(seed), fuel)))
        })
        .collect()
}

fn differential_entries() -> Vec<(String, String)> {
    let testbeds = latest_testbeds();
    (0..30u64)
        .map(|seed| {
            let outcome = run_differential(&corpus_program(seed), &testbeds, &options(FUEL));
            (format!("differential/{seed}"), hash(&format!("{outcome:?}")))
        })
        .collect()
}

fn campaign_entries() -> Vec<(String, String)> {
    let config = CampaignConfig::builder()
        .seed(6)
        .corpus_programs(80)
        .lm(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 })
        .max_cases(40)
        .fuel(200_000)
        .threads(1)
        .include_strict(true)
        .include_legacy(false)
        .reduce_cases(true)
        .shard_cases(20)
        .build()
        .expect("valid seed-6 config");
    let checksum = report_checksum(&Campaign::new(config).run());
    vec![("campaign/seed6".to_string(), format!("{checksum:016x}"))]
}

/// Programs whose work happens inside `eval`, by name.
const EVAL_PROGRAMS: &[(&str, &str)] = &[
    (
        "decls",
        r#"eval('var a = 1; let b = 2; const c = 3; var d; var a; print(a + b + c, d);');
print(a, b, c, typeof d);"#,
    ),
    (
        "block_if",
        r#"eval('{ let x = 1; if (x > 0) { print("pos"); } else { print("neg"); } if (!x) print("never"); else if (x === 1) print("one"); }');"#,
    ),
    (
        "loops",
        r#"eval('var s = 0; var i = 0; while (i < 5) { i++; if (i === 2) continue; s += i; } do { s--; } while (s > 10); for (var j = 0; j < 3; j++) { s += j; } for (let k = 0; k < 3; k++) { if (k === 2) break; s *= 2; } for (j = 0; j < 2; j = j + 1) s++; for (;;) { break; } print(s, i, j);');"#,
    ),
    (
        "for_in_of",
        r#"eval('var o = {a: 1, b: 2}; var keys = []; for (var k in o) keys.push(k); for (let v of [3, 4]) keys.push(v); for (k of "xy") keys.push(k); for (const c in [7, 8]) keys.push(c); print(keys.join(","), k);');"#,
    ),
    (
        "switch",
        r#"eval('function sw(x) { switch (x) { case 1: return "one"; case "2": print("two"); break; default: print("dflt"); case 3: return "three"; } return "end"; } print(sw(1), sw("2"), sw(9), sw(3));');"#,
    ),
    (
        "try_throw",
        r#"eval('try { throw new TypeError("bad"); } catch (e) { print(e.name, e.message); } finally { print("fin"); } try { null.x; } catch (e) { print(e instanceof TypeError); } try { print("t"); } finally { print("f"); }');
eval('throw 7');"#,
    ),
    (
        "empty_directive",
        r#"eval('"use strict"; ; ; var q = 1; implicitGlobal = 2; print(q, implicitGlobal);');"#,
    ),
    (
        "literals",
        r#"eval('print(1.5, "s", true, false, null, undefined, NaN, Infinity, /a+b/g.source, typeof /x/i, /x/gim.flags);');
try { eval('/(/'); } catch (e) { print(e.name); }"#,
    ),
    (
        "this_array_object",
        r#"eval('print(this === undefined, (1, 2), [1, , 3].length, [1, [2, 3]].join("|")); var k = "c"; var x = 9; var o = {a: 1, "b": 2, 3: 4, [k + "d"]: 5, x}; print(JSON.stringify(o), Object.keys(o).join());');
var holder = {v: 42, m: function () { eval('print(this.v)'); }};
holder.m();"#,
    ),
    (
        "functions_and_arrows",
        r#"eval('function add(a, b) { return a + b; } var mul = function (a, b) { return a * b; }; var fact = function f(n) { return n <= 1 ? 1 : n * f(n - 1); }; var sq = x => x * x; var blk = (a, b) => { var t = a - b; return t; };');
print(add(2, 3), mul(4, 5), fact(5), sq(6), blk(9, 4), add.name, fact.name, sq.length, typeof fact, typeof f);
print(add, new add(1, 2) instanceof add, add.prototype.constructor === add);"#,
    ),
    (
        "closures_after_return",
        r#"eval('var counter = (function () { var n = 0; return { inc: function () { n += 1; return n; }, get: () => n }; })();');
counter.inc(); counter.inc();
print(counter.get(), counter.inc());
eval('var arrows = [1, 2, 3].map(x => () => x * 10);');
print(arrows[2](), arrows.length);
eval('var made = [1, 2].map(function (x) { return () => this === undefined ? x : -x; });');
print(made[0](), made[1]());"#,
    ),
    (
        "unary",
        r#"eval('var u = 5; print(-u, +"3", !u, ~u, typeof u, typeof undeclaredName, void u, typeof null, typeof print); var o = {p: 1, q: 2}; print(delete o.p, delete o["q"], delete u, Object.keys(o).length); var arr = [1, 2, 3]; delete arr[1]; print(arr.length, arr[1], delete Math.PI);');"#,
    ),
    (
        "update_assign",
        r#"eval('var n = 1; var o = {v: 10}; var a = [5]; n++; ++n; n--; --n; o.v++; ++o["v"]; a[0]--; var x = 7; x += 3; x -= 1; x *= 2; x /= 3; x %= 4; x <<= 3; x >>= 1; x >>>= 1; x &= 7; x |= 8; x ^= 3; print(n, o.v, a[0], x); (n) = 9; print(n);');"#,
    ),
    (
        "binary_logical_cond",
        r#"eval('print(7 + "1", 7 - 2, 3 * 4, 7 / 2, 7 % 3, 2 ** 10, 1 == "1", 1 != 2, 1 === 1, 1 !== "1", 1 < 2, 2 <= 2, 3 > 4, 4 >= 5, 1 << 4, -16 >> 2, -16 >>> 28, 6 & 3, 6 | 3, 6 ^ 3, "a" in {a: 1}, [] instanceof Array); print(0 || "or", 1 && "and", null && missing, 0 ? "y" : "n", 1 ? "y" : "n");');"#,
    ),
    (
        "seq_call_new_template",
        r#"eval('var s = (1, 2, 3); var d = new Date(0); var e = new Error("m"); var o = {f: function (x) { return this.k + x; }, k: 2}; print(s, o.f(3), o["f"](4), o.k, o["k"], typeof d, e.message, `t${s}-${o.k}`);');"#,
    ),
    (
        "array_key_hook",
        r#"eval('var a = [1, 2]; a[true] = 3; a[1.5] = 4; a["2"] = 5; a[null] = 6; print(a.length, a.join());');"#,
    ),
    (
        "builtins_inside_eval",
        r#"eval('print("Name: Albert".substr(6, undefined)); print((5).toFixed(2)); try { (1.005).toFixed(-1); } catch (e) { print(e.name); } print("a,b".split(/,/).length, "abc".split(/^/).length); print([1, 2, 3].indexOf(2, undefined)); print("x".replace(/[0-9]/g, true), "".normalize(true));');"#,
    ),
    (
        "eval_values",
        r#"print(eval(42), eval('1 + 2'), typeof eval(''), eval(true), eval(), eval({}) instanceof Object);"#,
    ),
    (
        "syntax_errors",
        r#"try { eval('var = 1'); } catch (e) { print(e.name, e.message); }
try { eval(''); print('empty ok'); } catch (e) { print(e.name); }
try { eval(false); print('bool ok'); } catch (e) { print(e.name); }"#,
    ),
    (
        "headless_for",
        r#"try { eval('for (var i = 0; i < 3; i++)'); print('accepted', i); } catch (e) { print(e.name, typeof i); }"#,
    ),
    (
        "nested_eval",
        r#"var src = "print('deep')";
for (var i = 0; i < 7; i++) src = 'eval(' + JSON.stringify(src) + ')';
eval(src);
try { eval('eval(' + JSON.stringify(src) + ')'); } catch (e) { print(e.name, e.message); }
var depth = 0;
function dive() { depth++; return eval('dive()'); }
try { dive(); } catch (e) { print(e.name, e.message, depth); }"#,
    ),
    (
        "strict_caller",
        r#""use strict";
function g() { eval('undeclared2 = 1'); }
try { g(); print(undeclared2); } catch (e) { print(e.name); }
try { eval('delete Math'); } catch (e) { print(e.name); }
eval('function sf() { return this; }');
print(typeof sf());
try { eval('var frozen = Object.freeze({p: 1}); frozen.p = 2;'); } catch (e) { print(e.name); }"#,
    ),
    (
        "strict_inside_eval",
        r#"eval('function s2() { "use strict"; return typeof this; } function s3() { return typeof this; }');
print(s2(), s3());
eval('x9 = 5');
print(x9);"#,
    ),
    (
        "fuel_cut",
        r#"print('before');
eval('var k = 0; while (true) { k++; }');
print('never');"#,
    ),
    (
        "world_writes",
        r#"eval('function w() { Array.prototype.extra = 1; return [].extra; }');
print(w(), [].extra);
eval('var Math = 3;');
print(Math);"#,
    ),
    (
        "function_scope",
        r#"function outer() {
  var local = 1;
  try { eval('var fromEval = local + 1'); } catch (e) { print(e.name); }
  eval('var fromEval2 = 2');
  return typeof fromEval2;
}
print(outer(), fromEval2);"#,
    ),
    (
        "conversions",
        r#"eval('var obj = { toString: function () { return "custom"; }, valueOf: () => 7 };');
print(obj + 1, String(obj), obj * 2, `${obj}`);"#,
    ),
    (
        "hoisting",
        r#"print(typeof hoisted);
eval('print(typeof hoisted, typeof later); function hoisted() { return 1; } var later = 2;');
print(hoisted(), later);"#,
    ),
    (
        "completions",
        r#"function f() { eval('return 5'); return 1; }
print(f());
for (var i = 0; i < 3; i++) { eval('break'); }
print(i);
eval('return 1');"#,
    ),
];

/// Full fuel and five cuts under the reference profile, then every testbed.
fn eval_entries(testbeds: &[Testbed]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for &(name, src) in EVAL_PROGRAMS {
        let chunk = compile(&parse(src).expect("eval program parses"));
        let full = run_chunk(&chunk, &SpecProfile, &options(FUEL));
        out.push((format!("eval/{name}/spec"), line(&full)));
        for cut in 1..=5 {
            let fuel = full.fuel_used * cut / 6;
            let r = run_chunk(&chunk, &SpecProfile, &options(fuel));
            out.push((format!("eval/{name}/cut{cut}"), format!("budget={fuel} {}", line(&r))));
        }
        for bed in testbeds {
            let r = bed.run_compiled(&chunk, &options(FUEL));
            out.push((format!("eval/{name}/{}", bed.label()), line(&r)));
        }
    }
    out
}

/// Compares `entries` against the golden lines under `prefix`.
fn check(prefix: &str, entries: Vec<(String, String)>) {
    let current: BTreeMap<String, String> = entries.into_iter().collect();
    let golden: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter(|l| l.starts_with(prefix))
        .map(|l| l.split_once('\t').expect("golden lines are `label<TAB>line`"))
        .collect();
    let mut problems = Vec::new();
    for (label, now) in &current {
        match golden.get(label.as_str()) {
            Some(want) if want == now => {}
            Some(want) => {
                problems.push(format!("{label}\n    golden:  {want}\n    current: {now}"))
            }
            None => problems.push(format!("{label} has no golden line\n    current: {now}")),
        }
    }
    for label in golden.keys().filter(|label| !current.contains_key(**label)) {
        problems.push(format!("{label} has a golden line but was not run"));
    }
    assert!(
        problems.is_empty(),
        "{} of {} `{prefix}` entries differ from the golden file:\n{}",
        problems.len(),
        current.len(),
        problems.join("\n")
    );
}

#[test]
fn corpus_runs_match_the_golden_file() {
    check("corpus/", corpus_entries());
}

#[test]
fn ecma_mutant_runs_match_the_golden_file() {
    let entries = mutant_entries();
    assert!(entries.len() > 50, "mutation sweep too small ({} mutants)", entries.len());
    check("mutant/", entries);
}

#[test]
fn fuel_truncated_runs_match_the_golden_file() {
    check("truncated/", truncation_entries());
}

#[test]
fn differential_outcomes_match_the_golden_file() {
    check("differential/", differential_entries());
}

#[test]
fn seed6_campaign_checksum_matches_the_golden_file() {
    check("campaign/", campaign_entries());
}

#[test]
fn eval_runs_match_the_golden_file() {
    check("eval/", eval_entries(&all_testbeds()));
}
