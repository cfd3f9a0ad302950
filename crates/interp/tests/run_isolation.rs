//! Run isolation: nothing one run does to the builtin world reaches the
//! next run on the same thread.
//!
//! Every interpreter on a thread starts from the same frozen snapshot of the
//! builtin heap, shared by reference, plus its own copy of the global
//! environment; a run's writes to snapshot objects go to a per-run overlay.
//! Each check here runs a program that writes the builtin world and then a
//! probe on the same thread, and requires the probe's whole `RunResult` to
//! equal that of the probe on a thread that has run nothing before. Some
//! writes come from `eval`'d code, whose closures hold the `eval`'s own
//! chunk.

use comfort_interp::hooks::SpecProfile;
use comfort_interp::{compile, run_chunk, RunOptions, RunResult, RunStatus};
use comfort_syntax::parse;
use proptest::prelude::*;

/// Writes to the builtin world, one kind per entry.
const WRITES: &[(&str, &str)] = &[
    ("assign on a prototype", "Array.prototype.push = function () { return -1; };"),
    ("add on a prototype", "Array.prototype.extra = 1;"),
    ("delete on a prototype", "delete Array.prototype.join;"),
    (
        "defineProperty on a prototype",
        "Object.defineProperty(Object.prototype, 'hidden', { value: 1, enumerable: true });",
    ),
    ("assign on a constructor", "Array.isArray = function () { return false; };"),
    ("add on a constructor", "Object.extra = 1;"),
    ("delete on a constructor", "delete Object.keys; delete Number.isNaN;"),
    (
        "defineProperty on a constructor",
        "Object.defineProperty(Number, 'isInteger', { value: 3 });",
    ),
    ("assign on a namespace object", "Math.max = Math.min; JSON.stringify = null;"),
    ("freeze a prototype", "Object.freeze(Array.prototype);"),
    ("preventExtensions on a prototype", "Object.preventExtensions(Object.prototype);"),
    ("rebind Math/JSON by assignment", "Math = 1; JSON = 2;"),
    ("rebind Math/JSON by var", "var Math = 1; var JSON = 2;"),
    (
        "rebind Math/JSON and add a global from a sloppy function",
        "(function () { Math = 1; JSON = 2; implicitGlobal = 3; })();",
    ),
    ("assign on a prototype inside eval", "eval('Array.prototype.push = function () { return -1; };');"),
    ("rebind Math/JSON by var inside eval", "eval('var Math = 1; var JSON = 2;');"),
    (
        "a function defined by eval writes the world after eval returns",
        "eval('function writeLater() { Array.prototype.extra = 2; Object.keys = null; }'); writeLater();",
    ),
];

/// Reads every part of the world some entry of [`WRITES`] writes.
const PROBE: &str = r#"
print(typeof Math, typeof JSON, typeof implicitGlobal);
var a = [3, 1, 2];
print(a.push(4), a.join("-"), a.extra, Array.isArray(a), typeof Array.from);
print("abcdef".substr(1, 2), typeof Object.keys, typeof Number.isNaN, Number.isInteger(2));
print(Object.isFrozen(Array.prototype), Object.isExtensible(Object.prototype));
print(Object.keys(Object).length, Object.getOwnPropertyNames(Array.prototype).length);
print(Object.getOwnPropertyNames(Object.prototype).length);
print(Math.max(1, 2), JSON.stringify({ a: [1, "x"] }));
"#;

fn run(src: &str) -> RunResult {
    let program = parse(src).unwrap_or_else(|e| panic!("parse error {e} in:\n{src}"));
    let options = RunOptions { coverage: true, fuel: 300_000, ..RunOptions::default() };
    run_chunk(&compile(&program), &SpecProfile, &options)
}

/// Runs `f` on a new thread, whose interpreters start from a newly built
/// builtin world.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("run thread panicked"))
}

/// `second`'s result after `first` ran on the same thread must equal its
/// result on a fresh thread.
fn assert_isolated(first: &str, second: &str, label: &str) {
    let alone = on_fresh_thread(|| run(second));
    let after = on_fresh_thread(|| {
        run(first);
        run(second)
    });
    assert_eq!(after, alone, "{label} leaked into the next run");
}

#[test]
fn the_probe_sees_every_write_in_its_own_run() {
    // Otherwise the isolation checks below could pass vacuously.
    let clean = on_fresh_thread(|| run(PROBE));
    assert_eq!(clean.status, RunStatus::Completed, "{}", clean.output);
    for (label, write) in WRITES {
        let written = on_fresh_thread(|| run(&format!("{write}\n{PROBE}")));
        assert!(
            written.status != clean.status || written.output != clean.output,
            "{label} is invisible to the probe"
        );
    }
}

#[test]
fn writes_to_the_builtin_world_do_not_reach_the_next_run() {
    for (label, write) in WRITES {
        assert_isolated(write, PROBE, label);
        // The probe also runs after the write in the same program.
        assert_isolated(&format!("{write}\n{PROBE}"), PROBE, label);
    }
    let all: Vec<&str> = WRITES.iter().map(|(_, w)| *w).collect();
    assert_isolated(&all.join("\n"), PROBE, "all writes at once");
}

fn corpus_program(seed: u64) -> String {
    comfort_corpus::training_corpus(seed, 1).remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_corpus_run_does_not_reach_the_next(
        a in 0u64..2000,
        b in 0u64..2000,
        write in 0usize..WRITES.len() + 1,
    ) {
        // The first program optionally opens with a write to the builtins;
        // the second opens with the probe, which completes on a clean world.
        let prefix = WRITES.get(write).map_or("", |(_, w)| *w);
        let first = format!("{prefix}\n{}", corpus_program(a));
        let second = format!("{PROBE}\n{}", corpus_program(b));
        assert_isolated(&first, &second, "a corpus program");
    }
}
