#![warn(missing_docs)]

//! Simulated JavaScript engines for the COMFORT reproduction.
//!
//! The paper tests ten production engines across 51 version configurations
//! and 102 testbeds (normal + strict per configuration, §4.1–4.2). This crate
//! simulates that matrix: every engine version is the reference interpreter
//! (`comfort-interp`) configured with the *seeded conformance bugs* of
//! [`catalog`], so engines deviate from ECMA-262 in hidden, input-dependent
//! ways — exactly the kind of defect differential conformance testing must
//! surface.
//!
//! # Examples
//!
//! Running the paper's Figure 2 test case on conforming engines and on
//! Rhino (which carries the `substr(start, undefined)` bug):
//!
//! ```
//! use comfort_engines::{Engine, EngineName};
//! use comfort_interp::{compile, RunOptions};
//!
//! let program = comfort_syntax::parse(
//!     "var s = 'Name: Albert'; print(s.substr(6, undefined));",
//! ).expect("valid JS");
//! let chunk = compile(&program); // compile once, run everywhere
//!
//! let opts = RunOptions::default();
//! let v8 = Engine::latest(EngineName::V8);
//! let rhino = Engine::latest(EngineName::Rhino);
//! assert_eq!(v8.run_compiled(&chunk, &opts).output, "Albert\n");
//! assert_eq!(rhino.run_compiled(&chunk, &opts).output, "\n"); // the seeded Figure-2 bug
//! ```

pub mod catalog;
pub mod chaos;
pub mod harness;
mod profile;
pub mod registry;

pub use catalog::{quota, ApiType, BugId, Component, Discovery, Effect, SeededBug, Trigger};
pub use chaos::{
    fatal_signal_message, signal_name, ChaosAbort, ChaosPanic, FaultKind, FaultPlan, RawFault,
};
pub use harness::{
    run_isolated_compiled, silence_chaos_panics, FaultObserved, IsolatedRun, IsolationPolicy,
    RetryPolicy,
};
pub use profile::EngineProfile;
pub use registry::{all_versions, versions_of, EngineName, EngineVersion, EsEdition};

use comfort_interp::hooks::Agreement;
use comfort_interp::run_chunk;
pub use comfort_interp::{
    compile, Backend, CompiledChunk, RunOptions, RunOptionsBuilder, RunResult,
};
use std::sync::{Arc, OnceLock};

/// The shared, lazily-built bug catalog (deterministic; see [`catalog`]).
pub fn shared_catalog() -> &'static [SeededBug] {
    static CATALOG: OnceLock<Vec<SeededBug>> = OnceLock::new();
    CATALOG.get_or_init(catalog::build_catalog)
}

/// One runnable engine version.
#[derive(Debug, Clone)]
pub struct Engine {
    profile: EngineProfile,
}

impl Engine {
    /// Builds the engine for a specific [`EngineVersion`].
    pub fn new(version: EngineVersion) -> Self {
        Engine { profile: EngineProfile::new(version) }
    }

    /// The latest version of `name` (the trunk build in Table 1).
    pub fn latest(name: EngineName) -> Self {
        let version = *versions_of(name).last().expect("every engine has versions");
        Engine::new(version)
    }

    /// The oldest version of `name`.
    pub fn oldest(name: EngineName) -> Self {
        let version = versions_of(name)[0];
        Engine::new(version)
    }

    /// Engine name.
    pub fn name(&self) -> EngineName {
        self.profile.engine()
    }

    /// Version metadata.
    pub fn version(&self) -> &EngineVersion {
        self.profile.version()
    }

    /// Seeded bugs active in this version (test/debug introspection).
    pub fn active_bugs(&self) -> &[SeededBug] {
        self.profile.bugs()
    }

    /// Runs a compiled chunk with the given options. This is the execution
    /// entry point: fuel, strict mode and coverage all travel in
    /// [`RunOptions`] (`&RunOptions::default()` for a plain
    /// normal-mode run). Compile once with [`compile`], then call this for
    /// every engine — the chunk is shared read-only.
    pub fn run_compiled(&self, chunk: &Arc<CompiledChunk>, options: &RunOptions) -> RunResult {
        run_chunk(chunk, &self.profile, options)
    }
}

/// A testbed = engine version × mode (§4.2). 51 versions × 2 modes = 102.
///
/// A testbed may additionally carry a chaos [`FaultPlan`] (see
/// [`Testbed::with_chaos`]): a "ChaosTestbed" is an ordinary testbed whose
/// runs deterministically panic, hang, emit garbage, or fail transiently —
/// the adversarial input the hardened execution layer is tested against.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// The engine version.
    pub engine: Engine,
    /// `true` for the strict-mode testbed.
    pub strict: bool,
    /// Seeded fault injection, when this is a chaos testbed.
    pub chaos: Option<FaultPlan>,
}

impl Testbed {
    /// A well-behaved testbed.
    pub fn new(engine: Engine, strict: bool) -> Self {
        Testbed { engine, strict, chaos: None }
    }

    /// Attaches a fault-injection plan, turning this into a chaos testbed.
    /// Also installs the process-wide hook keeping injected panics quiet.
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        silence_chaos_panics();
        self.chaos = Some(plan);
        self
    }

    /// `true` when a fault plan is attached.
    pub fn is_chaotic(&self) -> bool {
        self.chaos.is_some()
    }

    /// `true` when the attached chaos plan injects a fault for this chunk
    /// on the *first* attempt. Such a testbed must not share an execution
    /// with peers: even a Garbage fault silently alters output. A `None`
    /// decision at attempt 0 means the run is clean and no retries occur
    /// (retries only follow an injected fault), so sharing is safe.
    /// The decision reads the chunk's arena, its content address; a
    /// testbed without chaos answers `false` without hashing anything.
    pub fn has_pending_fault(&self, chunk: &Arc<CompiledChunk>) -> bool {
        self.chaos.as_ref().is_some_and(|plan| plan.decide(&chunk.arena, 0).is_some())
    }

    /// Display label, e.g. `"Rhino v1.7.12 [strict]"`.
    pub fn label(&self) -> String {
        let base = if self.strict {
            format!("{} [strict]", self.engine.version().label())
        } else {
            self.engine.version().label()
        };
        if self.is_chaotic() {
            format!("{base} [chaos]")
        } else {
            base
        }
    }

    /// Runs a compiled chunk on this testbed. The testbed's mode is merged
    /// into the options: a strict testbed always runs strict, regardless of
    /// `options.strict`.
    ///
    /// This is the *contained* entry point: it delegates to
    /// [`run_isolated_compiled`] with default policies, so panics surface as
    /// [`comfort_interp::RunStatus::Crashed`] and wedges as
    /// [`comfort_interp::RunStatus::OutOfFuel`] instead of escaping.
    pub fn run_compiled(&self, chunk: &Arc<CompiledChunk>, options: &RunOptions) -> RunResult {
        run_isolated_compiled(
            self,
            &[],
            chunk,
            options,
            &IsolationPolicy::default(),
            &RetryPolicy::default(),
        )
        .result
    }

    /// One raw, *uncontained* execution attempt: applies the chaos plan (if
    /// any) and runs the engine. Injected panics really panic and injected
    /// hangs really sleep — callers are expected to go through
    /// [`run_isolated_compiled`] (or [`Testbed::run_compiled`]) rather than
    /// call this directly.
    ///
    /// Fault decisions are content-addressed on the chunk's arena (every
    /// node, atom, number, `extra` record and function proto, but not the
    /// AST ids), so separately compiled chunks of one program text
    /// misbehave identically on a chaos testbed.
    ///
    /// The run carries `peers` (see [`comfort_interp::hooks::Agreement`])
    /// and returns, beside its result, the positions in `peers` of those
    /// that answered every hook query of the run as this testbed did: each
    /// would have produced this very result on its own. A peer of the other
    /// mode, or with a fault pending for the chunk, never agrees, and an
    /// injected fault leaves no peer agreeing.
    pub fn run_attempt_compiled(
        &self,
        chunk: &Arc<CompiledChunk>,
        options: &RunOptions,
        attempt: u32,
        peers: &[&Testbed],
    ) -> Result<(RunResult, Vec<usize>), RawFault> {
        if let Some(plan) = &self.chaos {
            match plan.decide(&chunk.arena, attempt) {
                Some(FaultKind::Abort) => {
                    if chaos_signals_are_real() {
                        // A jailed worker process dies for real so the
                        // supervisor can exercise signal-death handling.
                        raise_fatal_signal(plan.abort_signal);
                    }
                    std::panic::panic_any(chaos::ChaosAbort {
                        testbed: self.label(),
                        signal: plan.abort_signal,
                    })
                }
                Some(FaultKind::Panic) => {
                    std::panic::panic_any(ChaosPanic { testbed: self.label() })
                }
                Some(FaultKind::Hang) => {
                    std::thread::sleep(std::time::Duration::from_millis(plan.hang_millis));
                    return Err(RawFault::Wedged { millis: plan.hang_millis });
                }
                Some(FaultKind::Garbage) => {
                    let garbage = RunResult {
                        status: comfort_interp::RunStatus::Completed,
                        output: plan.garbage_output(&chunk.arena),
                        fuel_used: 0,
                        coverage: None,
                    };
                    return Ok((garbage, Vec::new()));
                }
                Some(FaultKind::Transient) => {
                    return Err(RawFault::Transient {
                        message: format!("simulated transient fault on {}", self.label()),
                    });
                }
                None => {}
            }
        }
        let options = options.to_builder().strict(self.strict || options.strict).build();
        if peers.is_empty() {
            return Ok((self.engine.run_compiled(chunk, &options), Vec::new()));
        }
        let mut live = Vec::with_capacity(peers.len());
        live.extend(
            (0..peers.len())
                .filter(|&k| peers[k].strict == self.strict && !peers[k].has_pending_fault(chunk)),
        );
        let agreement =
            Agreement::new(&self.engine.profile, peers, |peer| &peer.engine.profile, live);
        let result = run_chunk(chunk, &agreement, &options);
        Ok((result, agreement.into_agreed()))
    }
}

/// Process-wide "chaos signals are real" flag. Jailed worker processes set
/// this (`comfortd --worker-once --jail`) so injected abort faults raise
/// the actual signal and kill the process — the whole point of process
/// isolation. Everywhere else abort faults are contained panics with a
/// deterministic `Crashed` outcome.
static CHAOS_SIGNALS_REAL: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Makes injected abort faults raise their real signal in this process.
pub fn arm_real_chaos_signals() {
    CHAOS_SIGNALS_REAL.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// `true` when [`arm_real_chaos_signals`] was called in this process.
pub fn chaos_signals_are_real() -> bool {
    CHAOS_SIGNALS_REAL.load(std::sync::atomic::Ordering::SeqCst)
}

/// Raises `signal` on the current process. `std` links libc, so the raw
/// extern resolves without adding a dependency (same pattern as the
/// `signal()` handler registration in `comfortd`).
fn raise_fatal_signal(signal: i32) {
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    unsafe {
        raise(signal);
    }
    // SIGKILL/SIGABRT never return; for ignorable signals fall through to
    // the contained panic path so the run still fails deterministically.
}

/// All 102 testbeds (Table 1 × {normal, strict}).
pub fn all_testbeds() -> Vec<Testbed> {
    let mut out = Vec::with_capacity(102);
    for version in all_versions() {
        for strict in [false, true] {
            out.push(Testbed::new(Engine::new(version), strict));
        }
    }
    out
}

/// The *latest-version* testbeds only (one normal testbed per engine), the
/// default comparison set for differential runs.
pub fn latest_testbeds() -> Vec<Testbed> {
    EngineName::ALL.into_iter().map(|name| Testbed::new(Engine::latest(name), false)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_interp::{ErrorKind, RunStatus};
    use comfort_syntax::parse;

    fn run_on(engine: &Engine, src: &str) -> RunResult {
        let chunk = compile(&parse(src).expect("test source parses"));
        engine.run_compiled(&chunk, &RunOptions::default())
    }

    #[test]
    fn testbed_matrix_size() {
        assert_eq!(all_testbeds().len(), 102);
        assert_eq!(latest_testbeds().len(), 10);
    }

    #[test]
    fn figure2_rhino_substr_bug() {
        let src = r#"
function foo(str, start, len) { var ret = str.substr(start, len); return ret; }
var name = foo("Name: Albert", 6, undefined);
print(name);
"#;
        assert_eq!(run_on(&Engine::latest(EngineName::V8), src).output, "Albert\n");
        assert_eq!(run_on(&Engine::latest(EngineName::Rhino), src).output, "\n");
    }

    #[test]
    fn listing1_v8_defineproperty_bug() {
        let src = r#"
var arrobj = [0, 1];
Object.defineProperty(arrobj, "length", { value: 1, configurable: true });
print("no error");
"#;
        // V8 and Graaljs silently accept; conforming engines throw TypeError.
        assert_eq!(run_on(&Engine::latest(EngineName::V8), src).output, "no error\n");
        assert_eq!(run_on(&Engine::latest(EngineName::GraalJs), src).output, "no error\n");
        let jsc = run_on(&Engine::latest(EngineName::Jsc), src);
        assert!(
            matches!(jsc.status, RunStatus::Threw { kind: Some(ErrorKind::Type), .. }),
            "JSC should throw, got {:?}",
            jsc.status
        );
    }

    #[test]
    fn listing2_hermes_perf_bug() {
        let src = r#"
var foo = function(size) {
  var array = new Array(size);
  while (size--) { array[size] = 0; }
}
var parameter = 300000;
foo(parameter);
print("done");
"#;
        // Hermes v0.1.1 times out; v0.3.0+ (fixed) completes.
        let old = Engine::oldest(EngineName::Hermes);
        assert_eq!(run_on(&old, src).status, RunStatus::OutOfFuel);
        let new = Engine::latest(EngineName::Hermes);
        assert_eq!(run_on(&new, src).output, "done\n");
        let v8 = Engine::latest(EngineName::V8);
        assert_eq!(run_on(&v8, src).output, "done\n");
    }

    #[test]
    fn listing3_spidermonkey_uint32array_bug() {
        let src = "var a = new Uint32Array(3.14); print(a.length);";
        let old = Engine::oldest(EngineName::SpiderMonkey); // v1.7, bug present
        assert!(matches!(
            run_on(&old, src).status,
            RunStatus::Threw { kind: Some(ErrorKind::Type), .. }
        ));
        let new = Engine::latest(EngineName::SpiderMonkey); // ≥ v52.9, fixed
        assert_eq!(run_on(&new, src).output, "3\n");
    }

    #[test]
    fn listing4_rhino_tofixed_bug() {
        let src = "var p = (-634619).toFixed(-2); print(p);";
        assert_eq!(run_on(&Engine::latest(EngineName::Rhino), src).output, "-634619\n");
        assert!(matches!(
            run_on(&Engine::latest(EngineName::V8), src).status,
            RunStatus::Threw { kind: Some(ErrorKind::Range), .. }
        ));
    }

    #[test]
    fn listing5_jsc_typedarray_set_bug() {
        let src = "var e = '123'; var A = new Uint8Array(5); A.set(e); print(A);";
        // JSC trunk builds prior to 261782 threw; 261782 is fixed.
        let old = Engine::new(versions_of(EngineName::Jsc)[2]);
        assert!(matches!(
            run_on(&old, src).status,
            RunStatus::Threw { kind: Some(ErrorKind::Type), .. }
        ));
        let fixed = Engine::latest(EngineName::Jsc);
        assert_eq!(run_on(&fixed, src).output, "1,2,3,0,0\n");
        // Graaljs carries the same bug (unfixed).
        assert!(matches!(
            run_on(&Engine::latest(EngineName::GraalJs), src).status,
            RunStatus::Threw { .. }
        ));
    }

    #[test]
    fn listing6_quickjs_array_key_bug() {
        let src = r#"
var property = true;
var obj = [1,2,5];
obj[property] = 10;
print(obj);
print(obj[property]);
"#;
        let quickjs = run_on(&Engine::latest(EngineName::QuickJs), src);
        assert_eq!(quickjs.output, "1,2,5,10\nundefined\n");
        let v8 = run_on(&Engine::latest(EngineName::V8), src);
        assert_eq!(v8.output, "1,2,5\n10\n");
    }

    #[test]
    fn listing7_chakracore_eval_bug() {
        let src = "var a = eval(\"for(var i = 0; i < 1; ++i)\"); print('ran');";
        assert_eq!(run_on(&Engine::latest(EngineName::ChakraCore), src).output, "ran\n");
        assert!(matches!(
            run_on(&Engine::latest(EngineName::V8), src).status,
            RunStatus::Threw { kind: Some(ErrorKind::Syntax), .. }
        ));
    }

    #[test]
    fn listing8_jerryscript_split_bug() {
        let src = "var a = \"anA\".split(/^A/); print(a);";
        assert_eq!(run_on(&Engine::latest(EngineName::JerryScript), src).output, "an\n");
        assert_eq!(run_on(&Engine::latest(EngineName::V8), src).output, "anA\n");
    }

    #[test]
    fn listing9_quickjs_normalize_crash() {
        let src = "var s = ''; s.normalize(true);";
        let r = run_on(&Engine::latest(EngineName::QuickJs), src);
        assert!(matches!(r.status, RunStatus::Crashed(_)), "got {:?}", r.status);
        // Conforming engines throw a RangeError for the invalid form.
        assert!(matches!(
            run_on(&Engine::latest(EngineName::V8), src).status,
            RunStatus::Threw { kind: Some(ErrorKind::Range), .. }
        ));
    }

    #[test]
    fn strict_testbed_differs_from_normal() {
        let bed_normal = Testbed::new(Engine::latest(EngineName::V8), false);
        let bed_strict = Testbed::new(Engine::latest(EngineName::V8), true);
        let chunk = compile(&parse("x = 1; print(x);").expect("parses"));
        let opts = RunOptions::with_fuel(100_000);
        assert!(bed_normal.run_compiled(&chunk, &opts).status.is_completed());
        assert!(!bed_strict.run_compiled(&chunk, &opts).status.is_completed());
        assert!(bed_strict.label().contains("[strict]"));
    }

    #[test]
    fn engines_agree_on_conforming_programs() {
        // A program exercising no seeded bug must be identical on all ten.
        let chunk = compile(
            &parse(
                "var a = [5, 3, 9]; var t = 0; for (var i = 0; i < a.length; i++) { t += a[i]; } print(t);",
            )
            .expect("parses"),
        );
        let outputs: Vec<String> = latest_testbeds()
            .iter()
            .map(|t| t.run_compiled(&chunk, &RunOptions::with_fuel(1_000_000)).output)
            .collect();
        assert!(outputs.iter().all(|o| o == "17\n"), "{outputs:?}");
    }

    #[test]
    fn active_bug_counts_follow_catalog() {
        let rhino = Engine::latest(EngineName::Rhino);
        // Rhino's latest version carries the lion's share of its 44 bugs.
        assert!(rhino.active_bugs().len() >= 40, "{}", rhino.active_bugs().len());
        let sm = Engine::latest(EngineName::SpiderMonkey);
        assert!(sm.active_bugs().len() <= 3);
    }
}
