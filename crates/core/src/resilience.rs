//! Fault-tolerant campaign execution: policy, health tracking, quarantine,
//! and the hardened per-case runner.
//!
//! The paper's harness only works because it keeps voting while individual
//! engines crash, hang, and print garbage (§3.4). This module is that
//! property, made explicit: every testbed run goes through the
//! `comfort-engines` isolation harness, observed faults feed a per-testbed
//! health ledger, a circuit breaker quarantines testbeds after
//! [`ExecPolicy::quarantine_after`] consecutive hard faults, and voting
//! degrades to the surviving quorum
//! ([`vote_on_signatures_quorum`](crate::differential::vote_on_signatures_quorum)).
//!
//! Everything here is deterministic at any thread count: fault decisions
//! are content-addressed (see `comfort_engines::chaos`), health state is
//! per-shard (the shard plan is a pure function of the config), and the
//! observation lists are ordered by testbed index.

use comfort_engines::{
    compile, run_isolated_compiled, CompiledChunk, FaultObserved, FaultPlan, IsolatedRun,
    IsolationPolicy, RetryPolicy, RunOptions, Testbed,
};
use comfort_syntax::Program;
use std::sync::Arc;

use crate::differential::{
    execute_classed, vote_on_signatures_quorum, CaseOutcome, GroupQuorum, QuorumPolicy, Signature,
};

/// Execution-hardening policy for a campaign: isolation and retry knobs for
/// every testbed run, the quarantine threshold, and the voting quorum.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPolicy {
    /// Containment applied to every run (panic catching, watchdog, output
    /// cap).
    pub isolation: IsolationPolicy,
    /// Retry policy for transient faults.
    pub retry: RetryPolicy,
    /// Consecutive *hard* faults (panic, hang, exhausted transient) before
    /// a testbed is quarantined for the rest of the shard. `0` disables
    /// quarantine.
    pub quarantine_after: u32,
    /// Half-open probe: after a quarantined testbed has skipped this many
    /// cases, the next case runs on it as a probe; a clean probe reinstates
    /// the testbed into the quorum, a faulty one re-arms the wait. `0`
    /// (default) disables probing — quarantine is then final for the shard.
    pub probe_after: u32,
    /// Minimum healthy voters per mode group.
    pub quorum: QuorumPolicy,
    /// Footprint-based execution dedup: collapse testbeds that are provably
    /// equivalent on a chunk into one physical run per behaviour class (see
    /// [`ExecutionClasses`](crate::differential::ExecutionClasses)). Purely
    /// an execution-count optimization — every observation, vote, and
    /// report is bit-identical either way — so it defaults to on; turn off
    /// to force the full matrix (oracle mode).
    pub dedup: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            isolation: IsolationPolicy::default(),
            retry: RetryPolicy::default(),
            quarantine_after: 5,
            probe_after: 0,
            quorum: QuorumPolicy::default(),
            dedup: true,
        }
    }
}

/// A cooperative cancellation token, checked at shard boundaries and
/// between testbed slots inside [`run_case_hardened_cancellable`].
///
/// An explicit [`CancelToken::cancel`] **latches**: the token stays
/// cancelled for good. A passed deadline reads cancelled only until a later
/// deadline replaces it (see [`CancelToken::set_deadline`]), so a campaign
/// whose deadline fired can run again on the same token. Clones share
/// state, so one token can fan out across worker threads.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: std::sync::Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    flag: std::sync::atomic::AtomicBool,
    deadline: std::sync::Mutex<Option<std::time::Instant>>,
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent, latching).
    pub fn cancel(&self) {
        self.inner.flag.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Arms a wall-clock deadline after which the token reads cancelled.
    /// The first armed deadline wins; later calls are no-ops, so a shard
    /// keeps the deadline its campaign armed at start.
    pub fn arm_deadline(&self, deadline: std::time::Instant) {
        let mut slot = self.inner.deadline.lock().expect("cancel token poisoned");
        if slot.is_none() {
            *slot = Some(deadline);
        }
    }

    /// Replaces the deadline with `deadline` (`None` clears it). Every
    /// campaign run calls this at start, so each run measures its deadline
    /// from its own start.
    pub fn set_deadline(&self, deadline: Option<std::time::Instant>) {
        *self.inner.deadline.lock().expect("cancel token poisoned") = deadline;
    }

    /// `true` when an armed deadline has elapsed (used to distinguish a
    /// deadline interruption from an explicit cancel in telemetry).
    pub fn deadline_passed(&self) -> bool {
        let deadline = *self.inner.deadline.lock().expect("cancel token poisoned");
        deadline.is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// `true` once cancelled explicitly, or while the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(std::sync::atomic::Ordering::SeqCst) || self.deadline_passed()
    }
}

/// Attaches a chaos [`FaultPlan`] to selected testbeds of a campaign's
/// matrix (by index into `testbeds_for`'s output) — the configuration
/// surface for fault-injection campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The fault plan. A plan with seed [`FaultPlan::DERIVE`] gets its seed
    /// derived from the campaign seed when the matrix is built.
    pub plan: FaultPlan,
    /// Indices of the testbeds to wrap (out-of-range indices are ignored).
    pub testbeds: Vec<usize>,
}

impl ChaosConfig {
    /// Wraps only the first testbed of the matrix.
    pub fn on_first(plan: FaultPlan) -> Self {
        ChaosConfig { plan, testbeds: vec![0] }
    }

    /// Wraps the given testbed indices.
    pub fn on(plan: FaultPlan, testbeds: Vec<usize>) -> Self {
        ChaosConfig { plan, testbeds }
    }
}

/// Per-testbed health ledger, reported in `CampaignReport::health` and
/// merged additively across shards.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TestbedHealth {
    /// Testbed label.
    pub label: String,
    /// Runs that completed without any fault.
    pub runs_ok: u64,
    /// Contained panics.
    pub panics: u64,
    /// Hangs (self-reported wedges or watchdog timeouts).
    pub hangs: u64,
    /// Runs whose transient faults outlasted the retry budget.
    pub transients_exhausted: u64,
    /// Runs whose output was truncated by the cap.
    pub outputs_truncated: u64,
    /// Total transient retry attempts consumed.
    pub retries: u64,
    /// Runs skipped because the testbed was quarantined.
    pub runs_skipped: u64,
    /// Quarantine transitions (at most one per shard).
    pub quarantines: u64,
    /// Reinstatements by a successful half-open probe.
    pub reinstatements: u64,
    /// `true` when the testbed ended (some shard of) the campaign
    /// quarantined.
    pub quarantined: bool,
}

impl TestbedHealth {
    /// Total hard faults recorded.
    pub fn hard_faults(&self) -> u64 {
        self.panics + self.hangs + self.transients_exhausted
    }

    /// Total faults of any kind recorded.
    pub fn faults(&self) -> u64 {
        self.hard_faults() + self.outputs_truncated
    }

    /// Adds another shard's ledger for the same testbed into this one.
    pub fn merge_from(&mut self, other: &TestbedHealth) {
        debug_assert!(self.label.is_empty() || other.label.is_empty() || self.label == other.label);
        if self.label.is_empty() {
            self.label = other.label.clone();
        }
        self.runs_ok += other.runs_ok;
        self.panics += other.panics;
        self.hangs += other.hangs;
        self.transients_exhausted += other.transients_exhausted;
        self.outputs_truncated += other.outputs_truncated;
        self.retries += other.retries;
        self.runs_skipped += other.runs_skipped;
        self.quarantines += other.quarantines;
        self.reinstatements += other.reinstatements;
        self.quarantined |= other.quarantined;
    }
}

/// A testbed's quarantine transition during one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// Index into the campaign's testbed matrix.
    pub testbed: usize,
    /// Testbed label.
    pub label: String,
    /// Consecutive hard faults at the moment the breaker opened.
    pub hard_faults: u64,
}

/// A testbed's reinstatement (successful half-open probe) during one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReinstateEvent {
    /// Index into the campaign's testbed matrix.
    pub testbed: usize,
    /// Testbed label.
    pub label: String,
    /// Cases the testbed sat out in quarantine before this probe.
    pub skipped: u64,
}

/// One observed fault on one testbed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Index into the campaign's testbed matrix.
    pub testbed: usize,
    /// Testbed label.
    pub label: String,
    /// The fault class.
    pub fault: FaultObserved,
}

/// The per-shard health state machine: fault counters, consecutive-hard-
/// fault streaks, and the quarantine circuit breaker.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    threshold: u32,
    probe_after: u32,
    entries: Vec<TestbedHealth>,
    streaks: Vec<u32>,
    active: Vec<bool>,
    /// Cases skipped since the testbed's current quarantine began (drives
    /// the half-open probe schedule; reset by a failed probe).
    quarantine_skips: Vec<u32>,
    /// Testbeds running the *current* case as a half-open probe.
    probing: Vec<bool>,
}

impl HealthTracker {
    /// A fresh tracker for `testbeds`, quarantining after `threshold`
    /// consecutive hard faults (`0` disables quarantine).
    pub fn new(testbeds: &[Testbed], threshold: u32) -> Self {
        HealthTracker {
            threshold,
            probe_after: 0,
            entries: testbeds
                .iter()
                .map(|t| TestbedHealth { label: t.label(), ..TestbedHealth::default() })
                .collect(),
            streaks: vec![0; testbeds.len()],
            active: vec![true; testbeds.len()],
            quarantine_skips: vec![0; testbeds.len()],
            probing: vec![false; testbeds.len()],
        }
    }

    /// Enables the half-open probe: after `probe_after` skipped cases a
    /// quarantined testbed gets one probe run; a clean probe reinstates it.
    /// `0` disables probing (the default).
    pub fn with_probe(mut self, probe_after: u32) -> Self {
        self.probe_after = probe_after;
        self
    }

    /// Whether testbed `i` still participates in runs and votes.
    pub fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Starts a new case: returns the run mask (active testbeds plus any
    /// quarantined testbed whose probe is due) and remembers which slots are
    /// probes so their results get probe semantics.
    fn begin_case(&mut self) -> Vec<bool> {
        (0..self.active.len())
            .map(|i| {
                let probe = !self.active[i]
                    && self.probe_after > 0
                    && self.quarantine_skips[i] >= self.probe_after;
                self.probing[i] = probe;
                self.active[i] || probe
            })
            .collect()
    }

    /// Whether testbed `i` runs the current case as a half-open probe.
    fn is_probe(&self, i: usize) -> bool {
        self.probing[i]
    }

    /// A clean probe run: the testbed rejoins the quorum.
    fn reinstate(&mut self, i: usize) -> ReinstateEvent {
        let skipped = u64::from(self.quarantine_skips[i]);
        self.active[i] = true;
        self.probing[i] = false;
        self.streaks[i] = 0;
        self.quarantine_skips[i] = 0;
        self.entries[i].runs_ok += 1;
        self.entries[i].reinstatements += 1;
        self.entries[i].quarantined = false;
        ReinstateEvent { testbed: i, label: self.entries[i].label.clone(), skipped }
    }

    /// A faulty probe run: the testbed stays quarantined and the probe
    /// schedule re-arms from zero.
    fn fail_probe(&mut self, i: usize) {
        self.probing[i] = false;
        self.quarantine_skips[i] = 0;
    }

    /// Number of testbeds still active.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Records a clean run (resets the hard-fault streak).
    fn observe_success(&mut self, i: usize) {
        self.entries[i].runs_ok += 1;
        self.streaks[i] = 0;
    }

    /// Records transient retries consumed by one run.
    fn record_retries(&mut self, i: usize, retries: u32) {
        self.entries[i].retries += u64::from(retries);
    }

    /// Records a skipped (quarantined) run.
    fn record_skip(&mut self, i: usize) {
        self.entries[i].runs_skipped += 1;
        self.quarantine_skips[i] = self.quarantine_skips[i].saturating_add(1);
    }

    /// Records a fault; returns `Some(streak)` when this fault tripped the
    /// circuit breaker (the testbed is quarantined from the next run on).
    fn observe_fault(&mut self, i: usize, fault: FaultObserved) -> Option<u64> {
        match fault {
            FaultObserved::Panic => self.entries[i].panics += 1,
            FaultObserved::Hang => self.entries[i].hangs += 1,
            FaultObserved::TransientExhausted => self.entries[i].transients_exhausted += 1,
            FaultObserved::OutputTruncated => self.entries[i].outputs_truncated += 1,
        }
        if !fault.is_hard() {
            return None;
        }
        self.streaks[i] += 1;
        if self.threshold > 0 && self.streaks[i] >= self.threshold && self.active[i] {
            self.active[i] = false;
            self.quarantine_skips[i] = 0;
            self.entries[i].quarantines += 1;
            self.entries[i].quarantined = true;
            return Some(u64::from(self.streaks[i]));
        }
        None
    }

    /// The accumulated per-testbed ledgers.
    pub fn reports(&self) -> Vec<TestbedHealth> {
        self.entries.clone()
    }
}

/// Everything one hardened case execution produced: the vote, per-group
/// quorum info, and the fault/retry/quarantine observations (all ordered by
/// testbed index, so telemetry emission is deterministic).
#[derive(Debug)]
pub struct CaseObservation {
    /// The (possibly degraded) voting outcome.
    pub outcome: CaseOutcome,
    /// Per-mode-group quorum summary.
    pub groups: Vec<GroupQuorum>,
    /// Faults observed this case.
    pub faults: Vec<FaultRecord>,
    /// Runs that needed transient retries: `(testbed index, retries)`.
    pub retried: Vec<(usize, u32)>,
    /// Quarantine transitions tripped by this case's faults.
    pub quarantined: Vec<QuarantineEvent>,
    /// Reinstatements (successful half-open probes) this case.
    pub reinstated: Vec<ReinstateEvent>,
    /// Testbeds that participated (logical runs: every masked-in slot,
    /// whether it executed or reused a classmate's execution).
    pub active_runs: usize,
    /// Executions actually performed (one per behaviour class). Equal to
    /// `active_runs` when dedup is off or the chunk's footprint is
    /// poisoned.
    pub physical_runs: usize,
    /// Behaviour-equivalence classes this case partitioned into
    /// (= `physical_runs`; kept separate for telemetry clarity).
    pub classes: usize,
    /// Runs skipped (testbed already quarantined).
    pub skipped_runs: usize,
    /// `true` when the case was abandoned by a [`CancelToken`] between
    /// testbed slots. A cancelled observation carries **no** vote and made
    /// **no** tracker updates — the caller must discard the case entirely.
    pub cancelled: bool,
}

/// Runs one case across the matrix under full containment, updates the
/// health tracker, and votes over the surviving quorum.
///
/// Quarantined testbeds are skipped (their signature slot stays `None`)
/// unless their half-open probe is due; a quarantine tripped by *this* case
/// takes effect from the next case. The runs execute one after another on
/// the calling thread. `_threads` is ignored: shards are the only
/// parallelism, and the argument stays so that existing callers keep
/// compiling.
pub fn run_case_hardened(
    program: &Program,
    testbeds: &[Testbed],
    options: &RunOptions,
    _threads: usize,
    policy: &ExecPolicy,
    tracker: &mut HealthTracker,
) -> CaseObservation {
    run_case_hardened_cancellable(program, testbeds, options, policy, tracker, None)
}

/// [`run_case_hardened`] with a cooperative cancellation point between
/// testbed slots: when `cancel` trips mid-case, remaining runs are skipped
/// and the observation comes back `cancelled` with the tracker untouched
/// (the interrupted shard's state is discarded wholesale, so a partial case
/// must not leak into the health ledger).
pub fn run_case_hardened_cancellable(
    program: &Program,
    testbeds: &[Testbed],
    options: &RunOptions,
    policy: &ExecPolicy,
    tracker: &mut HealthTracker,
    cancel: Option<&CancelToken>,
) -> CaseObservation {
    // Compile once per case; every testbed slot (and every watchdog thread)
    // shares the same read-only chunk via its `Arc`.
    let chunk = compile(program);
    let mask = tracker.begin_case();
    // Partition the masked-in slots into behaviour classes and run their
    // representatives. A half-open probe must observe its own run (its
    // result drives reinstatement), so it is a forced singleton like a slot
    // with a pending chaos fault: classing composes with quarantine,
    // probing, chaos, and retry without changing any outcome.
    let (classes, (runs, cancelled)) = execute_classed(
        &chunk,
        testbeds,
        &mask,
        policy.dedup,
        |i| tracker.is_probe(i),
        |run_mask| isolated_runs(&chunk, testbeds, options, policy, run_mask, cancel),
    );
    if cancelled {
        return CaseObservation {
            outcome: CaseOutcome::NoQuorum,
            groups: Vec::new(),
            faults: Vec::new(),
            retried: Vec::new(),
            quarantined: Vec::new(),
            reinstated: Vec::new(),
            active_runs: 0,
            physical_runs: 0,
            classes: 0,
            cancelled: true,
            skipped_runs: 0,
        };
    }

    // Process every masked-in slot in index order against its class
    // representative's run (`rep(i) == i` for slots that executed). Health
    // updates, fault records, and signatures replicate to classmates
    // exactly as the full matrix would have produced them — class members
    // are behaviourally identical, so the representative's run *is* their
    // run — keeping the tracker ledger and every report bit-identical.
    let physical_runs = runs.iter().flatten().count();
    let mut signatures: Vec<Option<Signature>> = vec![None; testbeds.len()];
    let mut faults = Vec::new();
    let mut retried = Vec::new();
    let mut quarantined = Vec::new();
    let mut reinstated = Vec::new();
    let mut active_runs = 0;
    let mut skipped_runs = 0;
    for i in 0..testbeds.len() {
        if !mask[i] {
            tracker.record_skip(i);
            skipped_runs += 1;
            continue;
        }
        let run = runs[classes.rep(i)].as_ref().expect("class representative ran");
        active_runs += 1;
        if run.retries > 0 {
            tracker.record_retries(i, run.retries);
            retried.push((i, run.retries));
        }
        let probe = tracker.is_probe(i);
        match run.fault {
            Some(fault) => {
                faults.push(FaultRecord { testbed: i, label: testbeds[i].label(), fault });
                if let Some(streak) = tracker.observe_fault(i, fault) {
                    quarantined.push(QuarantineEvent {
                        testbed: i,
                        label: testbeds[i].label(),
                        hard_faults: streak,
                    });
                }
                if probe {
                    // Failed probe: stay quarantined, re-arm the schedule,
                    // and keep the faulty signature out of the vote.
                    tracker.fail_probe(i);
                    continue;
                }
            }
            None => {
                if probe {
                    reinstated.push(tracker.reinstate(i));
                } else {
                    tracker.observe_success(i);
                }
            }
        }
        signatures[i] = Some(Signature::of(&run.result.status, &run.result.output));
    }

    let (outcome, groups) = vote_on_signatures_quorum(testbeds, &signatures, &policy.quorum);
    CaseObservation {
        outcome,
        groups,
        faults,
        retried,
        quarantined,
        reinstated,
        active_runs,
        physical_runs,
        classes: classes.class_count(),
        skipped_runs,
        cancelled: false,
    }
}

/// Executes the isolated runs for every unmasked testbed in index order.
/// Returns `(slots, cancelled)`; a trip of `cancel` between slots stops
/// further runs.
fn isolated_runs(
    chunk: &Arc<CompiledChunk>,
    testbeds: &[Testbed],
    options: &RunOptions,
    policy: &ExecPolicy,
    mask: &[bool],
    cancel: Option<&CancelToken>,
) -> (Vec<Option<IsolatedRun>>, bool) {
    let mut slots = Vec::with_capacity(testbeds.len());
    for (i, &masked_in) in mask.iter().enumerate() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return (slots, true);
        }
        slots.push(masked_in.then(|| {
            run_isolated_compiled(&testbeds[i], chunk, options, &policy.isolation, &policy.retry)
        }));
    }
    (slots, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_engines::{latest_testbeds, Engine, EngineName};
    use comfort_syntax::parse;

    fn program(src: &str) -> Program {
        parse(src).expect("test source parses")
    }

    fn chaos_matrix(plan: FaultPlan) -> Vec<Testbed> {
        let mut beds = latest_testbeds();
        beds[0] = Testbed::new(Engine::latest(EngineName::V8), false).with_chaos(plan);
        beds
    }

    #[test]
    fn hardened_case_survives_certain_panic() {
        let beds = chaos_matrix(FaultPlan::new(5).panic_rate(1.0));
        let mut tracker = HealthTracker::new(&beds, 0);
        let obs = run_case_hardened(
            &program("print(1);"),
            &beds,
            &RunOptions::with_fuel(100_000),
            1,
            &ExecPolicy::default(),
            &mut tracker,
        );
        assert_eq!(obs.faults.len(), 1);
        assert_eq!(obs.faults[0].fault, FaultObserved::Panic);
        // The panicking testbed crashes and is outvoted by the other nine.
        let CaseOutcome::Deviations(devs) = obs.outcome else {
            panic!("expected deviation, got {:?}", obs.outcome);
        };
        assert_eq!(devs.len(), 1);
    }

    #[test]
    fn circuit_breaker_quarantines_after_streak() {
        let beds = chaos_matrix(FaultPlan::new(5).panic_rate(1.0).hang_millis(1));
        let mut tracker = HealthTracker::new(&beds, 2);
        let opts = RunOptions::with_fuel(100_000);
        let policy = ExecPolicy { quarantine_after: 2, ..ExecPolicy::default() };
        let first =
            run_case_hardened(&program("print(1);"), &beds, &opts, 1, &policy, &mut tracker);
        assert!(first.quarantined.is_empty());
        let second =
            run_case_hardened(&program("print(2);"), &beds, &opts, 1, &policy, &mut tracker);
        assert_eq!(second.quarantined.len(), 1, "second consecutive panic trips the breaker");
        assert_eq!(second.quarantined[0].testbed, 0);
        // From the third case on, testbed 0 is skipped and the rest vote.
        let third =
            run_case_hardened(&program("print(3);"), &beds, &opts, 1, &policy, &mut tracker);
        assert_eq!(third.skipped_runs, 1);
        assert_eq!(third.active_runs, beds.len() - 1);
        assert!(matches!(third.outcome, CaseOutcome::Pass), "{:?}", third.outcome);
        assert!(third.groups[0].degraded());
        let health = tracker.reports();
        assert!(health[0].quarantined);
        assert_eq!(health[0].quarantines, 1);
        assert_eq!(health[0].panics, 2);
        assert_eq!(health[0].runs_skipped, 1);
    }

    #[test]
    fn half_open_probe_reinstates_a_healed_testbed() {
        // Panic on exactly the first two cases, then run clean forever:
        // deterministic content-addressed chaos can't express "heal after
        // N", so drive the tracker directly.
        let beds = latest_testbeds();
        let mut tracker = HealthTracker::new(&beds, 2).with_probe(3);
        assert!(tracker.observe_fault(0, FaultObserved::Panic).is_none());
        assert!(tracker.observe_fault(0, FaultObserved::Panic).is_some());
        assert!(!tracker.is_active(0));

        // Three skipped cases arm the probe; the fourth case runs it.
        for _ in 0..3 {
            let mask = tracker.begin_case();
            assert!(!mask[0], "still quarantined");
            tracker.record_skip(0);
        }
        let mask = tracker.begin_case();
        assert!(mask[0], "probe is due");
        assert!(tracker.is_probe(0));

        // A clean probe reinstates the testbed.
        let event = tracker.reinstate(0);
        assert_eq!(event.testbed, 0);
        assert_eq!(event.skipped, 3);
        assert!(tracker.is_active(0));
        let health = &tracker.reports()[0];
        assert_eq!(health.reinstatements, 1);
        assert!(!health.quarantined, "reinstated testbed no longer ends quarantined");
        assert_eq!(health.quarantines, 1, "the historical transition stays counted");
    }

    #[test]
    fn failed_probe_rearms_the_wait() {
        let beds = latest_testbeds();
        let mut tracker = HealthTracker::new(&beds, 1).with_probe(2);
        assert!(tracker.observe_fault(0, FaultObserved::Hang).is_some());
        tracker.record_skip(0);
        tracker.record_skip(0);
        let mask = tracker.begin_case();
        assert!(mask[0] && tracker.is_probe(0));
        // The probe faults: stay quarantined, schedule re-arms from zero.
        tracker.observe_fault(0, FaultObserved::Hang);
        tracker.fail_probe(0);
        assert!(!tracker.is_active(0));
        let mask = tracker.begin_case();
        assert!(!mask[0], "probe not due again until two more skips");
        tracker.record_skip(0);
        tracker.record_skip(0);
        assert!(tracker.begin_case()[0]);
    }

    #[test]
    fn cancel_token_latches_and_honours_deadline() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());

        let deadline = CancelToken::new();
        deadline.arm_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert!(deadline.is_cancelled(), "passed deadline reads cancelled");
        // First armed deadline wins.
        let far = CancelToken::new();
        far.arm_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        far.arm_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1));
        assert!(!far.is_cancelled(), "later arm attempts are no-ops");
        // A passed deadline does not latch: a new one replaces it.
        deadline
            .set_deadline(Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)));
        assert!(!deadline.is_cancelled(), "a replaced deadline no longer reads cancelled");
        token.set_deadline(None);
        assert!(token.is_cancelled(), "an explicit cancel stays latched");
    }

    #[test]
    fn cancelled_case_makes_no_tracker_updates() {
        let beds = latest_testbeds();
        let mut tracker = HealthTracker::new(&beds, 2);
        let before = tracker.reports();
        let token = CancelToken::new();
        token.cancel();
        let obs = run_case_hardened_cancellable(
            &program("print(1);"),
            &beds,
            &RunOptions::with_fuel(100_000),
            &ExecPolicy::default(),
            &mut tracker,
            Some(&token),
        );
        assert!(obs.cancelled);
        assert_eq!(obs.active_runs, 0);
        assert_eq!(tracker.reports(), before, "no ledger mutation on cancel");
    }

    #[test]
    fn success_resets_the_streak() {
        let beds = latest_testbeds();
        let mut tracker = HealthTracker::new(&beds, 2);
        assert!(tracker.observe_fault(0, FaultObserved::Panic).is_none());
        tracker.observe_success(0);
        assert!(tracker.observe_fault(0, FaultObserved::Panic).is_none(), "streak was reset");
        assert!(tracker.observe_fault(0, FaultObserved::Panic).is_some());
        assert!(!tracker.is_active(0));
    }

    #[test]
    fn soft_faults_do_not_trip_the_breaker() {
        let beds = latest_testbeds();
        let mut tracker = HealthTracker::new(&beds, 1);
        assert!(tracker.observe_fault(0, FaultObserved::OutputTruncated).is_none());
        assert!(tracker.is_active(0));
        assert_eq!(tracker.reports()[0].outputs_truncated, 1);
    }

    #[test]
    fn health_merge_is_additive() {
        let mut a =
            TestbedHealth { label: "X".into(), panics: 2, runs_ok: 5, ..Default::default() };
        let b = TestbedHealth {
            label: "X".into(),
            panics: 1,
            hangs: 3,
            quarantines: 1,
            quarantined: true,
            ..Default::default()
        };
        a.merge_from(&b);
        assert_eq!(a.panics, 3);
        assert_eq!(a.hangs, 3);
        assert_eq!(a.runs_ok, 5);
        assert_eq!(a.hard_faults(), 6);
        assert!(a.quarantined);
    }
}
