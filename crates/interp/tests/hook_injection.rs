//! Failure-injection tests for the conformance-profile hook layer: every
//! [`Deviation`] variant and every special hook must change engine behaviour
//! in exactly the documented way, and only when its trigger condition holds.

use comfort_interp::hooks::{
    ArraySetBehavior, BuiltinSite, ConformanceProfile, Deviation, ValuePreview, ValueRecipe,
};
use comfort_interp::{run_source, ErrorKind, RunOptions, RunStatus};

/// A profile that deviates on exactly one API with one effect. Recipes are
/// owned by the profile and handed out by reference, mirroring how the
/// engine profiles serve `Deviation` payloads from the seeded-bug catalog.
struct OneBug {
    api: &'static str,
    effect: Effect,
}

enum Effect {
    Return(ValueRecipe),
    Throw(ErrorKind, &'static str),
    Suppress(ValueRecipe),
    Crash(&'static str),
}

impl ConformanceProfile for OneBug {
    fn on_builtin(&self, site: &BuiltinSite) -> Deviation<'_> {
        if site.api != self.api {
            return Deviation::None;
        }
        match &self.effect {
            Effect::Return(recipe) => Deviation::ReturnValue(recipe),
            Effect::Throw(kind, msg) => Deviation::ThrowError(*kind, (*msg).to_string()),
            Effect::Suppress(recipe) => Deviation::SuppressThrow(recipe),
            Effect::Crash(msg) => Deviation::Crash((*msg).to_string()),
        }
    }
}

fn run_with(profile: &dyn ConformanceProfile, src: &str) -> (RunStatus, String) {
    let r = run_source(src, profile, &RunOptions::default()).expect("test source parses");
    (r.status, r.output)
}

#[test]
fn return_value_replaces_the_result() {
    let profile = OneBug {
        api: "String.prototype.substr",
        effect: Effect::Return(ValueRecipe::Str("WRONG".into())),
    };
    let (status, out) = run_with(&profile, "print('abcdef'.substr(1, 2));");
    assert!(status.is_completed());
    assert_eq!(out, "WRONG\n");
    // Other APIs are untouched.
    let (_, out) = run_with(&profile, "print('abcdef'.slice(1, 3));");
    assert_eq!(out, "bc\n");
}

#[test]
fn throw_error_injects_exceptions() {
    let profile =
        OneBug { api: "Array.prototype.join", effect: Effect::Throw(ErrorKind::Type, "seeded") };
    let (status, _) = run_with(&profile, "print([1, 2].join('-'));");
    assert!(matches!(status, RunStatus::Threw { kind: Some(ErrorKind::Type), .. }));
}

#[test]
fn suppress_throw_swallows_spec_errors() {
    let profile = OneBug {
        api: "Number.prototype.toFixed",
        effect: Effect::Suppress(ValueRecipe::ReceiverToString),
    };
    // Spec: RangeError. Seeded bug: plain string (the Listing 4 shape).
    let (status, out) = run_with(&profile, "print((-634619).toFixed(-2));");
    assert!(status.is_completed(), "{status:?}");
    assert_eq!(out, "-634619\n");
    // When the real builtin does NOT throw, SuppressThrow is transparent.
    let (_, out) = run_with(&profile, "print((1.5).toFixed(1));");
    assert_eq!(out, "1.5\n");
}

#[test]
fn crash_deviation_aborts_the_run() {
    let profile = OneBug { api: "String.prototype.normalize", effect: Effect::Crash("segfault") };
    let (status, _) = run_with(&profile, "''.normalize();");
    assert!(matches!(status, RunStatus::Crashed(msg) if msg.contains("segfault")));
}

#[test]
fn slowdown_burns_fuel() {
    struct Slow;
    impl ConformanceProfile for Slow {
        fn on_builtin(&self, site: &BuiltinSite) -> Deviation<'_> {
            if site.api == "Array.prototype.push" {
                Deviation::Slowdown(5_000)
            } else {
                Deviation::None
            }
        }
    }
    let src = "var a = []; for (var i = 0; i < 50; i++) a.push(i); print(a.length);";
    let r = run_source(src, &Slow, &RunOptions { fuel: 100_000, ..RunOptions::default() })
        .expect("parses");
    assert_eq!(r.status, RunStatus::OutOfFuel);
    // A conforming profile completes comfortably in the same budget.
    let ok = run_source(
        src,
        &comfort_interp::hooks::SpecProfile,
        &RunOptions { fuel: 100_000, ..RunOptions::default() },
    )
    .expect("parses");
    assert!(ok.status.is_completed());
}

#[test]
fn recipes_materialize_receiver_and_args() {
    let profile =
        OneBug { api: "String.prototype.concat", effect: Effect::Return(ValueRecipe::Arg(0)) };
    let (_, out) = run_with(&profile, "print('left'.concat('right'));");
    assert_eq!(out, "right\n");
    let profile =
        OneBug { api: "String.prototype.concat", effect: Effect::Return(ValueRecipe::Receiver) };
    let (_, out) = run_with(&profile, "print('left'.concat('right'));");
    assert_eq!(out, "left\n");
}

#[test]
fn array_key_set_hook_changes_store_semantics() {
    struct BoolKey;
    impl ConformanceProfile for BoolKey {
        fn on_array_key_set(&self, key: &ValuePreview) -> ArraySetBehavior {
            if matches!(key, ValuePreview::Bool(true)) {
                ArraySetBehavior::AppendElement
            } else {
                ArraySetBehavior::Normal
            }
        }
    }
    let src = "var a = [1]; a[true] = 9; print(a); print(a[true]);";
    let (_, out) = run_with(&BoolKey, src);
    assert_eq!(out, "1,9\nundefined\n");
    // `false` keys keep spec behaviour even on the buggy profile.
    let src2 = "var a = [1]; a[false] = 9; print(a); print(a[false]);";
    let (_, out) = run_with(&BoolKey, src2);
    assert_eq!(out, "1\n9\n");
}

#[test]
fn eval_leniency_hook_recovers_headless_for() {
    struct Lenient;
    impl ConformanceProfile for Lenient {
        fn eval_tolerates_headless_for(&self) -> bool {
            true
        }
    }
    let src = "eval('for(var i = 0; i < 1; ++i)'); print('ok');";
    let (_, out) = run_with(&Lenient, src);
    assert_eq!(out, "ok\n");
    // Other syntax errors still throw even on the lenient profile.
    let (status, _) = run_with(&Lenient, "eval('var x = ;');");
    assert!(matches!(status, RunStatus::Threw { kind: Some(ErrorKind::Syntax), .. }));
}

#[test]
fn split_anchor_hook_only_affects_anchored_patterns() {
    struct Anchor;
    impl ConformanceProfile for Anchor {
        fn split_anchor_broken(&self) -> bool {
            true
        }
    }
    let (_, out) = run_with(&Anchor, "print('anA'.split(/^A/));");
    assert_eq!(out, "an\n");
    // Unanchored split behaves per spec.
    let (_, out) = run_with(&Anchor, "print('aXb'.split(/X/));");
    assert_eq!(out, "a,b\n");
}

#[test]
fn reverse_fill_penalty_only_hits_descending_fills() {
    struct Penalty;
    impl ConformanceProfile for Penalty {
        fn array_reverse_fill_penalty(&self) -> u64 {
            48
        }
    }
    let opts = RunOptions { fuel: 3_000_000, ..RunOptions::default() };
    // Ascending fill is unaffected.
    let fwd = run_source(
        "var a = new Array(20000); for (var i = 0; i < 20000; i++) a[i] = 0; print('f');",
        &Penalty,
        &opts,
    )
    .expect("parses");
    assert!(fwd.status.is_completed(), "{:?}", fwd.status);
    // Descending fill of the same size blows the budget (Listing 2).
    let rev = run_source(
        "var n = 20000; var a = new Array(n); while (n--) { a[n] = 0; } print('r');",
        &Penalty,
        &opts,
    )
    .expect("parses");
    assert_eq!(rev.status, RunStatus::OutOfFuel);
}

#[test]
fn strict_flag_is_visible_to_profiles() {
    struct StrictOnly {
        recipe: ValueRecipe,
    }
    impl ConformanceProfile for StrictOnly {
        fn on_builtin(&self, site: &BuiltinSite) -> Deviation<'_> {
            if site.api == "String.prototype.trim" && site.strict {
                Deviation::ReturnValue(&self.recipe)
            } else {
                Deviation::None
            }
        }
    }
    let strict_only = StrictOnly { recipe: ValueRecipe::Str("STRICT".into()) };
    let (_, out) = run_with(&strict_only, "print(' x '.trim());");
    assert_eq!(out, "x\n");
    let r = run_source(
        "print(' x '.trim());",
        &strict_only,
        &RunOptions { strict: true, ..RunOptions::default() },
    )
    .expect("parses");
    assert_eq!(r.output, "STRICT\n");
}
