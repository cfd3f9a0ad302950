//! The isolation harness: panic containment, output caps, and
//! transient-fault retry around every testbed run.
//!
//! [`run_isolated_compiled`] is the hardened execution entry point. It wraps
//! [`Testbed::run_attempt_compiled`](crate::Testbed::run_attempt_compiled)
//! so that *no* misbehaviour of a testbed — a panic, a wedge, unbounded
//! output, or a flaky transient error — can escape as anything other than a
//! deterministic [`RunResult`] plus a [`FaultObserved`] classification.
//! `Testbed::run_compiled` delegates here with default policies, so every
//! call site (reduction, version probing, examples) is contained for free.
//! Fuel bounds every run, so the harness keeps no wall-clock watch: a
//! chaos fault reports its own wedge, and a process-isolated fleet worker
//! that wedges anyway stops making progress, loses its lease and is killed
//! by its supervisor.
//!
//! A run may carry *peers*, testbeds it may stand for (see
//! [`comfort_interp::hooks::Agreement`]); [`IsolatedRun::agreed`] names
//! those it serves. Only a clean first attempt serves any: a fault, a
//! retry or a truncated output is the testbed's own, and a wedged or
//! panicked run ended before its agreement was known.

use crate::chaos::{fatal_signal_message, ChaosAbort, ChaosPanic, RawFault};
use crate::Testbed;
use comfort_interp::{CompiledChunk, RunOptions, RunResult, RunStatus};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread;

/// Containment knobs for one testbed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationPolicy {
    /// Catch panics inside the run and map them to [`RunStatus::Crashed`].
    pub contain_panics: bool,
    /// Output size cap in bytes; larger outputs are truncated (with a
    /// marker) and flagged [`FaultObserved::OutputTruncated`].
    pub max_output_bytes: usize,
}

impl Default for IsolationPolicy {
    fn default() -> Self {
        IsolationPolicy { contain_panics: true, max_output_bytes: 1 << 20 }
    }
}

// The retry policy moved to the dependency-free telemetry crate so the
// durable `JsonlSink` can share it; the original path stays valid.
pub use comfort_telemetry::retry::RetryPolicy;

/// How a contained run misbehaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultObserved {
    /// The run panicked; the panic was contained and mapped to
    /// [`RunStatus::Crashed`].
    Panic,
    /// The run wedged (self-reported) and was mapped to
    /// [`RunStatus::OutOfFuel`] — the deterministic timeout outcome.
    Hang,
    /// Transient faults persisted through the whole retry budget; the run
    /// was mapped to [`RunStatus::Crashed`].
    TransientExhausted,
    /// The run completed but its output exceeded the cap and was
    /// truncated. A *soft* fault: the (truncated) result still votes.
    OutputTruncated,
}

impl FaultObserved {
    /// Stable label used in telemetry (`FaultInjected.kind`).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultObserved::Panic => "panic",
            FaultObserved::Hang => "hang",
            FaultObserved::TransientExhausted => "transient-exhausted",
            FaultObserved::OutputTruncated => "output-truncated",
        }
    }

    /// Hard faults feed the quarantine circuit breaker; soft faults don't.
    pub fn is_hard(self) -> bool {
        !matches!(self, FaultObserved::OutputTruncated)
    }
}

/// The outcome of one isolated run: always a usable [`RunResult`], plus
/// fault provenance the resilience layer needs for health tracking.
#[derive(Debug)]
pub struct IsolatedRun {
    /// The (possibly synthesized) run result. Panics become
    /// [`RunStatus::Crashed`], hangs become [`RunStatus::OutOfFuel`].
    pub result: RunResult,
    /// The fault observed, if any.
    pub fault: Option<FaultObserved>,
    /// Transient retries consumed before the final outcome.
    pub retries: u32,
    /// Positions in the `peers` passed to [`run_isolated_compiled`] of the
    /// testbeds whose own run would be this one, bit for bit, ascending.
    /// Empty unless the run was a clean first attempt.
    pub agreed: Vec<usize>,
}

/// Marker appended to truncated output (kept inside the cap).
pub const TRUNCATION_MARKER: &str = "\n…[output truncated by harness]";

/// Installs (once, process-wide) a panic hook that keeps *injected* chaos
/// panics off stderr while delegating every other panic to the previous
/// hook. Containment itself never depends on this — it only silences
/// expected noise during chaos campaigns.
pub fn silence_chaos_panics() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosPanic>().is_none()
                && info.payload().downcast_ref::<ChaosAbort>().is_none()
            {
                previous(info);
            }
        }));
    });
}

/// Runs a compiled `chunk` on `testbed` under full containment, carrying
/// `peers` (pass `&[]` for a plain run). With `contain_panics` set it never
/// panics; fuel bounds each attempt, and only the retry backoff sleeps.
pub fn run_isolated_compiled(
    testbed: &Testbed,
    peers: &[&Testbed],
    chunk: &Arc<CompiledChunk>,
    options: &RunOptions,
    isolation: &IsolationPolicy,
    retry: &RetryPolicy,
) -> IsolatedRun {
    let mut last_transient = String::new();
    for attempt in 0..=retry.max_retries {
        if attempt > 0 {
            thread::sleep(retry.backoff(attempt));
        }
        let outcome = execute_once(testbed, peers, chunk, options, isolation, attempt);
        match outcome {
            Execution::Done(result, agreed) => {
                let mut run = IsolatedRun { result, fault: None, retries: attempt, agreed };
                cap_output(&mut run, isolation.max_output_bytes);
                if run.fault.is_some() || run.retries > 0 {
                    run.agreed.clear();
                }
                return run;
            }
            Execution::Wedged => {
                return IsolatedRun {
                    result: timeout_result(options),
                    fault: Some(FaultObserved::Hang),
                    retries: attempt,
                    agreed: Vec::new(),
                };
            }
            Execution::Panicked(message) => {
                return IsolatedRun {
                    result: crash_result(format!("contained panic: {message}")),
                    fault: Some(FaultObserved::Panic),
                    retries: attempt,
                    agreed: Vec::new(),
                };
            }
            Execution::Transient(message) => {
                last_transient = message;
            }
        }
    }
    IsolatedRun {
        result: crash_result(format!("transient fault persisted: {last_transient}")),
        fault: Some(FaultObserved::TransientExhausted),
        retries: retry.max_retries,
        agreed: Vec::new(),
    }
}

enum Execution {
    /// A result and the positions of the peers that agreed.
    Done(RunResult, Vec<usize>),
    Wedged,
    Panicked(String),
    Transient(String),
}

fn execute_once(
    testbed: &Testbed,
    peers: &[&Testbed],
    chunk: &Arc<CompiledChunk>,
    options: &RunOptions,
    isolation: &IsolationPolicy,
    attempt: u32,
) -> Execution {
    let run = || testbed.run_attempt_compiled(chunk, options, attempt, peers);
    if !isolation.contain_panics {
        return raw_to_execution(run());
    }
    match panic::catch_unwind(AssertUnwindSafe(run)) {
        Ok(raw) => raw_to_execution(raw),
        Err(payload) => Execution::Panicked(panic_message(payload.as_ref())),
    }
}

fn raw_to_execution(raw: Result<(RunResult, Vec<usize>), RawFault>) -> Execution {
    match raw {
        Ok((result, agreed)) => Execution::Done(result, agreed),
        Err(RawFault::Transient { message }) => Execution::Transient(message),
        Err(RawFault::Wedged { .. }) => Execution::Wedged,
    }
}

/// What a panic says: an injected chaos fault by its testbed, any other
/// panic by its message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(chaos) = payload.downcast_ref::<ChaosPanic>() {
        format!("injected chaos panic on {}", chaos.testbed)
    } else if let Some(abort) = payload.downcast_ref::<ChaosAbort>() {
        fatal_signal_message(abort.signal, &abort.testbed)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn cap_output(run: &mut IsolatedRun, max_bytes: usize) {
    if run.result.output.len() <= max_bytes {
        return;
    }
    let keep = max_bytes.saturating_sub(TRUNCATION_MARKER.len());
    let mut cut = keep;
    while cut > 0 && !run.result.output.is_char_boundary(cut) {
        cut -= 1;
    }
    run.result.output.truncate(cut);
    run.result.output.push_str(TRUNCATION_MARKER);
    run.fault = Some(FaultObserved::OutputTruncated);
}

/// The deterministic outcome substituted for a hung run: the same shape a
/// fuel exhaustion produces, so voting treats both as `Timeout`.
fn timeout_result(options: &RunOptions) -> RunResult {
    RunResult {
        status: RunStatus::OutOfFuel,
        output: String::new(),
        fuel_used: options.fuel,
        coverage: None,
    }
}

fn crash_result(message: String) -> RunResult {
    RunResult {
        status: RunStatus::Crashed(message),
        output: String::new(),
        fuel_used: 0,
        coverage: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::{Engine, EngineName};
    use comfort_interp::compile;
    use comfort_syntax::parse;

    fn chaotic(plan: FaultPlan) -> Testbed {
        Testbed::new(Engine::latest(EngineName::V8), false).with_chaos(plan)
    }

    fn chunk(src: &str) -> Arc<CompiledChunk> {
        compile(&parse(src).expect("test source parses"))
    }

    #[test]
    fn injected_panic_is_contained_as_crash() {
        let bed = chaotic(FaultPlan::new(1).panic_rate(1.0));
        let run = run_isolated_compiled(
            &bed,
            &[],
            &chunk("print(1);"),
            &RunOptions::default(),
            &IsolationPolicy::default(),
            &RetryPolicy::default(),
        );
        assert!(matches!(run.result.status, RunStatus::Crashed(_)), "{:?}", run.result.status);
        assert_eq!(run.fault, Some(FaultObserved::Panic));
    }

    #[test]
    fn injected_hang_maps_to_timeout() {
        let bed = chaotic(FaultPlan::new(1).hang_rate(1.0).hang_millis(1));
        let run = run_isolated_compiled(
            &bed,
            &[],
            &chunk("print(1);"),
            &RunOptions::default(),
            &IsolationPolicy::default(),
            &RetryPolicy::default(),
        );
        assert_eq!(run.result.status, RunStatus::OutOfFuel);
        assert_eq!(run.fault, Some(FaultObserved::Hang));
    }

    #[test]
    fn transient_faults_retry_to_success() {
        let bed = chaotic(FaultPlan::new(1).transient_rate(1.0).transient_persistence(1));
        let run = run_isolated_compiled(
            &bed,
            &[],
            &chunk("print(1);"),
            &RunOptions::default(),
            &IsolationPolicy::default(),
            &RetryPolicy::default(),
        );
        assert!(run.result.status.is_completed(), "{:?}", run.result.status);
        assert_eq!(run.retries, 1);
        assert!(run.fault.is_none());
    }

    #[test]
    fn transient_exhaustion_becomes_hard_fault() {
        let bed = chaotic(FaultPlan::new(1).transient_rate(1.0).transient_persistence(10));
        let run = run_isolated_compiled(
            &bed,
            &[],
            &chunk("print(1);"),
            &RunOptions::default(),
            &IsolationPolicy::default(),
            &RetryPolicy { max_retries: 2, backoff_base_millis: 0 },
        );
        assert!(matches!(run.result.status, RunStatus::Crashed(_)));
        assert_eq!(run.fault, Some(FaultObserved::TransientExhausted));
        assert!(run.fault.expect("fault").is_hard());
    }

    #[test]
    fn oversized_output_is_truncated_and_flagged() {
        let bed = Testbed::new(Engine::latest(EngineName::V8), false);
        let src = "for (var i = 0; i < 200; i++) { print('xxxxxxxxxx'); }";
        let isolation = IsolationPolicy { max_output_bytes: 100, ..IsolationPolicy::default() };
        let run = run_isolated_compiled(
            &bed,
            &[],
            &chunk(src),
            &RunOptions::default(),
            &isolation,
            &RetryPolicy::default(),
        );
        assert!(run.result.output.len() <= 100);
        assert!(run.result.output.ends_with(TRUNCATION_MARKER));
        assert_eq!(run.fault, Some(FaultObserved::OutputTruncated));
        assert!(!run.fault.expect("fault").is_hard());
    }

    #[test]
    fn chaos_faults_depend_only_on_the_program_text() {
        // Fault decisions hash the chunk's arena content, so separately
        // compiled chunks of one program, even laid out differently, fault
        // alike.
        silence_chaos_panics();
        let run = |bed: &Testbed, src: &str| {
            run_isolated_compiled(
                bed,
                &[],
                &chunk(src),
                &RunOptions::default(),
                &IsolationPolicy::default(),
                &RetryPolicy::default(),
            )
        };
        let clean = run(&Testbed::new(Engine::latest(EngineName::V8), false), "print('target');");
        for plan in [
            FaultPlan::new(9).panic_rate(1.0),
            FaultPlan::new(9).transient_rate(1.0).transient_persistence(1),
            FaultPlan::new(9).garbage_rate(1.0),
        ] {
            let bed = chaotic(plan);
            let a = run(&bed, "print('target');");
            let b = run(&bed, "print ( 'target' ) ;");
            assert_ne!((&a.result, a.retries), (&clean.result, clean.retries), "no fault fired");
            assert_eq!((a.result, a.fault, a.retries), (b.result, b.fault, b.retries));
        }
    }

    #[test]
    fn clean_runs_pass_through_unchanged() {
        let bed = Testbed::new(Engine::latest(EngineName::V8), false);
        let run = run_isolated_compiled(
            &bed,
            &[],
            &chunk("print(41 + 1);"),
            &RunOptions::default(),
            &IsolationPolicy::default(),
            &RetryPolicy::default(),
        );
        assert_eq!(run.result.output, "42\n");
        assert!(run.fault.is_none());
        assert_eq!(run.retries, 0);
    }
}
