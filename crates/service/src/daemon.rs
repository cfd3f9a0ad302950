//! The supervised multi-tenant campaign daemon.
//!
//! One [`Daemon`] multiplexes many concurrent campaigns over a single
//! global worker pool. Each campaign's shard state — result slots, the
//! ordered flush frontier, the write-ahead journal, the commit and the
//! order-preserving merge — is a [`ShardRuntime`], the same one
//! `CampaignSession::run` drives, so a campaign run under the daemon
//! produces a report **bit-identical** (in every deterministic field) to
//! the library's on the same spec. What the daemon adds is *supervision*:
//!
//! * every shard executes under a TTL [`lease`](crate::lease) with a
//!   fencing sequence; a supervisor heartbeat renews leases whose shard is
//!   advancing and reclaims the rest, so a wedged or SIGKILLed worker
//!   never strands a shard;
//! * admission control bounds the active-campaign queue and enforces
//!   per-tenant quotas, rejecting with a typed `retry_after` instead of
//!   queueing unboundedly;
//! * scheduling is fair-share round-robin across tenants, with idle
//!   workers stealing from any tenant that has runnable shards;
//! * a panic anywhere in one campaign's execution is caught at the worker
//!   boundary and fails *that campaign only*;
//! * [`Daemon::drain`] stops leasing, lets in-flight shards finish and
//!   checkpoint, and shuts the pool down cleanly — journalled campaigns
//!   resume in the next daemon life with bit-identical final reports.
//!
//! Every scheduling decision is emitted as a typed service event (on
//! [`SERVICE_SHARD`](comfort_telemetry::SERVICE_SHARD)), and
//! [`Daemon::metrics`] is the count of those events, kept under the lock
//! that orders the stream (see [`MetricsSnapshot::count`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use comfort_core::campaign::{CampaignConfig, CampaignReport};
use comfort_core::checkpoint::{
    report_checksum, CampaignCheckpoint, LeaseAction, LeaseRecord, ShardRecord,
};
use comfort_core::resilience::CancelToken;
use comfort_core::runtime::ShardRuntime;
use comfort_core::session::CampaignSession;
use comfort_engines::harness::panic_message;
use comfort_telemetry::json::JsonValue;
use comfort_telemetry::{
    Event, EventKind, JsonlSink, MemorySink, Recorder, Sink, SinkHandle, SERVICE_SHARD,
};

use crate::fleet::{ChildFate, ProcessJail, WorkerArgs, WorkerChild};
use crate::lease::{Claim, LeaseTable, Transition};
use crate::metrics::MetricsSnapshot;
use crate::spec::CampaignSpec;
use crate::worker::WorkerError;

// The daemon shares each campaign entry between workers, the supervisor,
// and control-plane threads; pin the Send/Sync audit at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CampaignConfig>();
    assert_send_sync::<CampaignSession>();
    assert_send_sync::<LeaseTable>();
};

/// Daemon-level tuning knobs.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads in the global pool (`0` = available parallelism).
    pub workers: usize,
    /// Base lease TTL; doubles per reclaim of the same shard (capped).
    pub lease_ttl: Duration,
    /// Supervisor heartbeat interval.
    pub heartbeat: Duration,
    /// Maximum non-terminal campaigns admitted at once (the bounded
    /// submission queue; beyond it, submissions reject with retry-after).
    /// Also how many finished campaigns keep their event tail.
    pub max_active: usize,
    /// Maximum non-terminal campaigns per tenant.
    pub tenant_quota: usize,
    /// The `retry_after` hint attached to backpressure rejections.
    pub retry_after: Duration,
    /// Service-plane telemetry sink (lease/admission/drain events).
    pub sink: SinkHandle,
    /// Where shards execute: on pool threads, or in jailed child
    /// processes (the hard-fault-contained worker fleet).
    pub isolation: IsolationMode,
}

/// How the pool executes leased shards.
#[derive(Clone)]
pub enum IsolationMode {
    /// On the pool's own threads (panics contained by `catch_unwind`).
    InProcess,
    /// In forked `comfortd --worker-once` children under resource jails
    /// (fatal signals contained by the process boundary).
    Processes(ProcessJail),
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            lease_ttl: Duration::from_millis(1000),
            heartbeat: Duration::from_millis(50),
            max_active: 8,
            tenant_quota: 2,
            retry_after: Duration::from_millis(250),
            sink: SinkHandle::null(),
            isolation: IsolationMode::InProcess,
        }
    }
}

/// A typed admission-control rejection: why, and when to retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Machine-readable reason: `draining`, `quota`, `queue_full`,
    /// `invalid_spec`, or `journal_conflict`.
    pub reason: String,
    /// Human-readable detail.
    pub message: String,
    /// Suggested retry delay in milliseconds (`0` = don't retry).
    pub retry_after_millis: u64,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "campaign rejected ({}): {}", self.reason, self.message)
    }
}

impl std::error::Error for Rejection {}

/// Why [`Daemon::tail_events`] has no stream to give.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailError {
    /// No campaign has this id.
    NotFound,
    /// The campaign finished and its event tail was evicted: only the
    /// `max_active` most recently finished campaigns keep theirs. Its
    /// status, checksum and final report remain.
    Expired,
}

impl TailError {
    /// Machine-readable reason: `not_found` or `expired`.
    pub fn reason(self) -> &'static str {
        match self {
            TailError::NotFound => "not_found",
            TailError::Expired => "expired",
        }
    }
}

impl std::fmt::Display for TailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailError::NotFound => write!(f, "no such campaign"),
            TailError::Expired => write!(f, "the campaign's event tail has expired"),
        }
    }
}

impl std::error::Error for TailError {}

/// A campaign's lifecycle under the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Admitted, no shard leased yet.
    Queued,
    /// At least one shard has been leased.
    Running,
    /// All shards committed and merged.
    Completed,
    /// Cancelled (explicitly or by deadline) before completion.
    Cancelled,
    /// Failed at the supervisor's panic boundary.
    Failed,
}

impl CampaignState {
    /// `true` for states no scheduler touches again.
    pub fn is_terminal(self) -> bool {
        matches!(self, CampaignState::Completed | CampaignState::Cancelled | CampaignState::Failed)
    }

    /// Lower-case wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Completed => "completed",
            CampaignState::Cancelled => "cancelled",
            CampaignState::Failed => "failed",
        }
    }
}

/// A point-in-time public view of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStatus {
    /// Daemon-assigned campaign id (`c-0001`, ...).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Human-readable name.
    pub name: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Shards in the plan.
    pub shards_total: usize,
    /// Shards committed (salvaged or run).
    pub shards_done: usize,
    /// Shards currently under lease.
    pub shards_held: usize,
    /// Lease reclaims across the campaign so far.
    pub reclaims: u64,
    /// Cases completed.
    pub cases_done: u64,
    /// Bugs found.
    pub bugs_found: u64,
    /// Deterministic report checksum, once completed.
    pub checksum: Option<u64>,
    /// Panic message, once failed.
    pub failure: Option<String>,
    /// `true` when the campaign resumed from a journal.
    pub resumed: bool,
}

impl CampaignStatus {
    /// Renders the status as one JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// The status as a JSON object value, for embedding in a response.
    pub fn to_json_value(&self) -> JsonValue {
        let mut pairs = vec![
            ("id", JsonValue::String(self.id.clone())),
            ("tenant", JsonValue::String(self.tenant.clone())),
            ("name", JsonValue::String(self.name.clone())),
            ("state", JsonValue::String(self.state.as_str().to_string())),
            ("shards_total", JsonValue::Int(self.shards_total as i128)),
            ("shards_done", JsonValue::Int(self.shards_done as i128)),
            ("shards_held", JsonValue::Int(self.shards_held as i128)),
            ("reclaims", JsonValue::Int(self.reclaims as i128)),
            ("cases_done", JsonValue::Int(self.cases_done as i128)),
            ("bugs_found", JsonValue::Int(self.bugs_found as i128)),
            ("resumed", JsonValue::Bool(self.resumed)),
        ];
        if let Some(c) = self.checksum {
            pairs.push(("checksum", JsonValue::String(format!("{c:016x}"))));
        }
        if let Some(f) = &self.failure {
            pairs.push(("failure", JsonValue::String(f.clone())));
        }
        JsonValue::object(pairs)
    }
}

/// Campaign-plane sink: buffers the event stream for `tail` and tees it
/// into an optional JSONL file requested by the spec. Clones share both.
#[derive(Clone)]
struct TeeSink {
    tail: MemorySink,
    file: Arc<Mutex<Option<JsonlSink>>>,
}

impl Sink for TeeSink {
    fn emit(&self, event: &Event) {
        self.tail.emit(event);
        if let Some(file) = self.file.lock().expect("telemetry file poisoned").as_ref() {
            file.emit(event);
        }
    }
}

/// One supervised campaign: its session, its shard runtime, and the
/// supervision state around it.
struct CampaignEntry {
    id: String,
    tenant: String,
    name: String,
    /// The campaign's session, built untrained at admission and dropped
    /// when the campaign retires. Its runtime shares the session's progress
    /// handle; thread isolation trains it on first use (its `OnceLock` is
    /// the training gate) and runs shards through it, while worker children
    /// train their own.
    session: Mutex<Option<Arc<CampaignSession>>>,
    cancel: CancelToken,
    tee: TeeSink,
    runtime: ShardRuntime,
    leases: LeaseTable,
    state: Mutex<CampaignState>,
    final_report: Mutex<Option<(CampaignReport, u64)>>,
    failure: Mutex<Option<String>>,
    /// The spec file handed to worker children (process isolation only).
    spec_path: Option<PathBuf>,
    /// Consecutive worker deaths per shard (the poison-quarantine fuse;
    /// reset by a successful commit or an exoneration).
    deaths: Vec<AtomicU64>,
    /// Commits mid-settlement: workers that have already flipped a lease
    /// (`complete`/`abandon`) but not yet journalled the balancing
    /// `Released` record. Finalization waits for zero, so a campaign is
    /// never observable as terminal with an unbalanced lease ledger.
    settling: AtomicU64,
    /// Set once the finished campaign starts releasing its session, shard
    /// runtime and telemetry file (see [`DaemonShared::retire`]).
    retired: AtomicBool,
    /// Set once the finished campaign's event tail has been evicted.
    tail_expired: AtomicBool,
}

/// Marks one lease settlement window on a campaign: arm *before* the
/// lease-table mutation, drop *after* the `Released` record and the
/// shard's flush (and before the follow-up `maybe_finalize`). Drop-based
/// so a panicking commit cannot wedge finalization — the supervisor
/// heartbeat retries `maybe_finalize` every tick, so a transient skip
/// self-heals.
struct SettleGuard<'a>(&'a AtomicU64);

impl<'a> SettleGuard<'a> {
    fn arm(counter: &'a AtomicU64) -> SettleGuard<'a> {
        counter.fetch_add(1, Ordering::SeqCst);
        SettleGuard(counter)
    }
}

impl Drop for SettleGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl CampaignEntry {
    fn state(&self) -> CampaignState {
        *self.state.lock().expect("campaign state poisoned")
    }

    /// The session, until the campaign retires.
    fn session(&self) -> Option<Arc<CampaignSession>> {
        self.session.lock().expect("session slot poisoned").clone()
    }

    fn schedulable(&self) -> bool {
        !self.state().is_terminal() && !self.cancel.is_cancelled() && self.leases.counts().2 > 0
    }

    fn status(&self) -> CampaignStatus {
        let (done, held, _) = self.leases.counts();
        let snap = self.runtime.progress().snapshot();
        CampaignStatus {
            id: self.id.clone(),
            tenant: self.tenant.clone(),
            name: self.name.clone(),
            state: self.state(),
            shards_total: self.runtime.plan().len(),
            shards_done: done,
            shards_held: held,
            reclaims: self.leases.total_reclaims(),
            cases_done: snap.cases_done,
            bugs_found: snap.bugs_found,
            checksum: self
                .final_report
                .lock()
                .expect("final report poisoned")
                .as_ref()
                .map(|(_, checksum)| *checksum),
            failure: self.failure.lock().expect("failure poisoned").clone(),
            resumed: self.runtime.resumed(),
        }
    }
}

/// How one babysat worker child ended, after the fault policy's
/// bookkeeping for that ending has been applied.
enum ChildOutcome {
    /// Exit 0, shard record adopted, lease released.
    Committed,
    /// Exit 0 but the fencing sequence was superseded; result discarded.
    Fenced,
    /// Death by signal (the fault-policy arm runs next).
    Died(i32),
    /// Nonzero exit with (code, captured stderr).
    FailedExit(i32, String),
    /// The campaign was cancelled; the child was killed and the lease
    /// abandoned.
    Cancelled,
    /// The supervisor reclaimed the lease mid-run; the child was killed.
    LostLease,
    /// The child never started (or its commit could not be adopted);
    /// already reported via `fail_campaign`.
    SpawnFailed,
}

struct DaemonShared {
    cfg: ServiceConfig,
    /// The service stream's recorder and the counts of what it emitted:
    /// one lock, so a reading of the counts equals the stream so far.
    service: Mutex<(Recorder, MetricsSnapshot)>,
    campaigns: Mutex<Vec<Arc<CampaignEntry>>>,
    next_id: AtomicU64,
    rotation: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    park: Mutex<()>,
    bell: Condvar,
    /// Worker slots allowed to lease (the crash-storm breaker halves it;
    /// slots beyond it park). Equals the pool width when healthy.
    effective_width: AtomicUsize,
    /// Consecutive fleet-wide child deaths (reset by any success).
    consecutive_deaths: AtomicU64,
    /// Chaos-monkey budget: children the parent SIGKILLs on purpose.
    monkey_kills: AtomicU64,
    /// Live worker children right now.
    workers_active: AtomicU64,
    /// Worker children that exited on their own (any code).
    workers_exited: AtomicU64,
    /// Retired campaigns still holding their event tail, oldest first
    /// (at most `max_active`).
    tails_kept: Mutex<VecDeque<Arc<CampaignEntry>>>,
}

impl DaemonShared {
    fn emit_service(&self, kind: EventKind) {
        let mut service = self.service.lock().expect("service recorder poisoned");
        service.1.count(&kind);
        service.0.emit(kind);
    }

    fn wake_workers(&self) {
        let _guard = self.park.lock().expect("park lock poisoned");
        self.bell.notify_all();
    }

    /// Journals and emits one lease transition.
    fn record_lease(&self, entry: &CampaignEntry, action: LeaseAction, t: &Transition) {
        if let Some(journal) = entry.runtime.journal() {
            let _ = journal.append_lease(&LeaseRecord {
                shard: t.shard as u64,
                worker: t.holder.clone(),
                action,
                lease_seq: t.lease_seq,
                ttl_millis: t.ttl_millis,
                unix_millis: unix_millis_now(),
            });
        }
        let campaign = entry.id.clone();
        let lease_shard = t.shard as u64;
        let worker = t.holder.clone();
        let kind = match action {
            LeaseAction::Acquired => {
                EventKind::LeaseAcquired { campaign, lease_shard, worker, ttl_millis: t.ttl_millis }
            }
            LeaseAction::Renewed => EventKind::LeaseRenewed { campaign, lease_shard, worker },
            LeaseAction::Released => EventKind::LeaseReleased { campaign, lease_shard, worker },
            LeaseAction::Expired => EventKind::LeaseExpired { campaign, lease_shard, worker },
            LeaseAction::Reclaimed => EventKind::LeaseReclaimed {
                campaign,
                lease_shard,
                worker,
                reclaims: t.reclaims as u64,
            },
        };
        self.emit_service(kind);
    }

    /// Fair-share selection: tenants rotate in first-seen order, and within
    /// the chosen tenant campaigns are scanned in submission order. An idle
    /// worker that finds its rotation tenant dry keeps scanning the rest —
    /// that continuation *is* the work-stealing path.
    fn next_candidate(&self) -> Option<Arc<CampaignEntry>> {
        if self.draining.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let campaigns = self.campaigns.lock().expect("campaign registry poisoned");
        let mut tenants: Vec<&str> = Vec::new();
        for entry in campaigns.iter() {
            if !tenants.contains(&entry.tenant.as_str()) {
                tenants.push(&entry.tenant);
            }
        }
        if tenants.is_empty() {
            return None;
        }
        let start = (self.rotation.fetch_add(1, Ordering::Relaxed) as usize) % tenants.len();
        for k in 0..tenants.len() {
            let tenant = tenants[(start + k) % tenants.len()];
            for entry in campaigns.iter() {
                if entry.tenant == tenant && entry.schedulable() {
                    return Some(Arc::clone(entry));
                }
            }
        }
        None
    }

    fn find(&self, id: &str) -> Option<Arc<CampaignEntry>> {
        self.campaigns
            .lock()
            .expect("campaign registry poisoned")
            .iter()
            .find(|e| e.id == id)
            .map(Arc::clone)
    }

    /// Executes one leased shard on this worker. The `catch_unwind` here is
    /// the panic-isolation boundary: whatever a chaos-faulted campaign does,
    /// the damage is contained to that campaign.
    fn execute_on(&self, entry: &Arc<CampaignEntry>, worker: &str) {
        if matches!(self.cfg.isolation, IsolationMode::InProcess) {
            // Train the session *before* the lease clock starts, so a cold
            // first shard is not mistaken for a wedged worker. (Process
            // isolation skips this: children train their own generator,
            // the parent never runs one.)
            let Some(session) = entry.session() else {
                return; // finished while this worker picked it
            };
            if catch_unwind(AssertUnwindSafe(|| session.executor())).is_err() {
                self.fail_campaign(
                    entry,
                    "panic while training the campaign generator".to_string(),
                );
                return;
            }
            if entry.session().is_none() {
                return; // retired while this worker trained: claim nothing
            }
        }
        let snap = entry.runtime.progress().snapshot();
        let progress = move |i: usize| snap.shards.get(i).map(|s| s.cases_done).unwrap_or_default();
        let claim = match entry.leases.claim_pending(worker, &progress) {
            Some(claim) => claim,
            None => return, // another worker drained this campaign's queue
        };
        {
            let mut state = entry.state.lock().expect("campaign state poisoned");
            if *state == CampaignState::Queued {
                *state = CampaignState::Running;
            }
        }
        let transition = Transition {
            shard: claim.shard,
            holder: worker.to_string(),
            lease_seq: claim.lease_seq,
            ttl_millis: claim.ttl.as_millis() as u64,
            reclaims: 0,
        };
        self.record_lease(entry, LeaseAction::Acquired, &transition);

        match &self.cfg.isolation {
            IsolationMode::InProcess => self.execute_inline(entry, &claim, &transition),
            IsolationMode::Processes(jail) => {
                self.execute_in_child(entry, worker, &claim, &transition, &jail.clone())
            }
        }
    }

    /// Runs one leased shard on this pool thread (thread isolation).
    fn execute_inline(&self, entry: &Arc<CampaignEntry>, claim: &Claim, transition: &Transition) {
        let spec = entry.runtime.plan()[claim.shard];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            entry.session().map(|session| session.run_shard(&spec))
        }));
        match outcome {
            Ok(None) => {
                // Retired between the warm-up and the claim: nothing to run.
                entry.leases.abandon(claim.shard, claim.lease_seq);
                self.record_lease(entry, LeaseAction::Released, transition);
            }
            Err(payload) => {
                self.release_and_fail(entry, transition, panic_message(payload.as_ref()))
            }
            Ok(Some(record)) if record.report.interrupted => {
                // Cancelled or past deadline mid-shard: discard the partial
                // attempt whole (the library contract) and let finalization
                // decide the campaign's fate.
                let settle = SettleGuard::arm(&entry.settling);
                entry.leases.abandon(claim.shard, claim.lease_seq);
                self.record_lease(entry, LeaseAction::Released, transition);
                drop(settle);
                self.maybe_finalize(entry);
            }
            Ok(Some(record)) => {
                self.commit_shard(entry, transition, record, false);
            }
        }
    }

    /// Commits a finished shard under its lease, in either isolation mode:
    /// pass the fence, commit and flush, journal `Released`, finalize.
    /// `journalled` says a worker child appended the record itself. Returns
    /// `false` when the lease was fenced off.
    fn commit_shard(
        &self,
        entry: &Arc<CampaignEntry>,
        lease: &Transition,
        record: ShardRecord,
        journalled: bool,
    ) -> bool {
        // Arm before `complete()` marks the shard Done: a finalizer that
        // sees it Done also sees `settling > 0` and defers until the commit
        // below has filled the shard's slot.
        let settle = SettleGuard::arm(&entry.settling);
        if !entry.leases.complete(lease.shard, lease.lease_seq) {
            // Fenced: the supervisor reclaimed this lease and the shard
            // belongs to someone else now. Only the current sequence may
            // commit the journal record and telemetry.
            return false;
        }
        // Commit (and so flush) inside the settlement window: finalization
        // and retirement wait for it, so every shard's events reach the
        // sink before the merge's.
        entry.runtime.commit(record, journalled);
        self.record_lease(entry, LeaseAction::Released, lease);
        drop(settle);
        self.maybe_finalize(entry);
        true
    }

    /// Gives a held lease back and fails the campaign: the abandon and its
    /// journalled `Released` record keep the lease ledger balanced.
    fn release_and_fail(&self, entry: &Arc<CampaignEntry>, lease: &Transition, message: String) {
        entry.leases.abandon(lease.shard, lease.lease_seq);
        self.record_lease(entry, LeaseAction::Released, lease);
        self.fail_campaign(entry, message);
    }

    /// Runs one leased shard in a jailed worker child (process isolation),
    /// applying the fault policy on the way out: forced lease expiry on
    /// death-by-signal, poison-shard quarantine after repeated deaths, and
    /// the crash-storm breaker across the fleet.
    fn execute_in_child(
        &self,
        entry: &Arc<CampaignEntry>,
        worker: &str,
        claim: &Claim,
        transition: &Transition,
        jail: &ProcessJail,
    ) {
        let Some(spec_path) = entry.spec_path.clone() else {
            let message = "process isolation requires a spec file".to_string();
            self.release_and_fail(entry, transition, message);
            return;
        };
        let args = WorkerArgs {
            spec: spec_path.clone(),
            worker: worker.to_string(),
            shard: claim.shard as u64,
            lease_seq: Some(claim.lease_seq),
            probe: false,
            limit_cases: None,
            jail: true,
        };
        // Chaos monkey: claim one of the configured storm kills for this
        // child. Only regular jailed children are ever doomed — probes and
        // rescues run the containment path the storm is meant to exercise.
        let doomed = self
            .monkey_kills
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        match self.babysit(entry, worker, claim, transition, jail, &args, doomed) {
            ChildOutcome::Committed => {
                entry.deaths[claim.shard].store(0, Ordering::SeqCst);
                self.consecutive_deaths.store(0, Ordering::SeqCst);
            }
            ChildOutcome::Fenced
            | ChildOutcome::LostLease
            | ChildOutcome::Cancelled
            | ChildOutcome::SpawnFailed => {}
            ChildOutcome::Died(signal) => {
                self.on_child_death(entry, worker, claim, signal, jail, &spec_path);
            }
            ChildOutcome::FailedExit(code, stderr) => {
                let class = WorkerError::classify(code).unwrap_or("unknown");
                let message = format!("worker child failed (exit {code}, class {class}): {stderr}");
                self.release_and_fail(entry, transition, message);
            }
        }
    }

    /// The death-by-signal arm of the fault policy.
    fn on_child_death(
        &self,
        entry: &Arc<CampaignEntry>,
        worker: &str,
        claim: &Claim,
        signal: i32,
        jail: &ProcessJail,
        spec_path: &Path,
    ) {
        let deaths = entry.deaths[claim.shard].fetch_add(1, Ordering::SeqCst) + 1;
        let storm = self.consecutive_deaths.fetch_add(1, Ordering::SeqCst) + 1;
        // Forced expiry: the holder is dead, hand the shard back now
        // instead of waiting out the TTL. The journalled Expired/Reclaimed
        // pair keeps the lease ledger identical to a heartbeat reclaim.
        if let Some(t) = entry.leases.expire(claim.shard, claim.lease_seq) {
            self.record_lease(entry, LeaseAction::Expired, &t);
            self.record_lease(entry, LeaseAction::Reclaimed, &t);
            self.wake_workers();
        }
        if storm >= jail.storm_threshold {
            self.degrade_pool(storm);
        }
        if deaths >= jail.poison_after {
            self.handle_poison(entry, worker, claim.shard, deaths, signal, jail, spec_path);
        } else {
            // Exponential respawn backoff per consecutive death on this
            // shard, so a hot crash loop cannot saturate the fleet.
            let shift = (deaths - 1).min(6) as u32;
            std::thread::sleep(Duration::from_millis(jail.backoff_base_millis << shift));
        }
    }

    /// Spawns one worker child for `claim` and supervises it to the end:
    /// progress heartbeats feed the lease renewals, cancellation and lease
    /// loss kill the process group, and the exit status is classified.
    #[allow(clippy::too_many_arguments)]
    fn babysit(
        &self,
        entry: &Arc<CampaignEntry>,
        worker: &str,
        claim: &Claim,
        transition: &Transition,
        jail: &ProcessJail,
        args: &WorkerArgs,
        doomed: bool,
    ) -> ChildOutcome {
        let mut child = match WorkerChild::spawn(jail, args) {
            Ok(child) => child,
            Err(e) => {
                self.release_and_fail(entry, transition, format!("cannot spawn worker child: {e}"));
                return ChildOutcome::SpawnFailed;
            }
        };
        self.emit_service(EventKind::WorkerSpawned {
            campaign: entry.id.clone(),
            worker: worker.to_string(),
            lease_shard: claim.shard as u64,
            pid: child.pid as u64,
        });
        self.workers_active.fetch_add(1, Ordering::SeqCst);
        let progress = entry.runtime.progress();
        progress.shard_started(claim.shard);
        let kill_at = if doomed { Some(Instant::now() + jail.kill_after) } else { None };
        let mut applied = 0u64;
        let apply = |applied: &mut u64, reported: u64| {
            while *applied < reported {
                progress.case_done(claim.shard);
                *applied += 1;
            }
        };
        let fate = loop {
            match child.poll() {
                Ok(Some(fate)) => break fate,
                Ok(None) => {}
                Err(_) => {}
            }
            // The child's stdout heartbeat drives the campaign progress
            // handle — which is exactly what the supervisor's tick renews
            // leases on, so a live child keeps its lease with no new
            // renewal machinery at all.
            apply(&mut applied, child.progress.load(Ordering::SeqCst));
            if entry.cancel.is_cancelled() {
                child.kill_group();
                let _ = child.wait();
                self.workers_active.fetch_sub(1, Ordering::SeqCst);
                self.workers_exited.fetch_add(1, Ordering::SeqCst);
                let settle = SettleGuard::arm(&entry.settling);
                entry.leases.abandon(claim.shard, claim.lease_seq);
                self.record_lease(entry, LeaseAction::Released, transition);
                drop(settle);
                self.maybe_finalize(entry);
                return ChildOutcome::Cancelled;
            }
            if !entry.leases.holds(claim.shard, claim.lease_seq) {
                // TTL expiry: the supervisor reclaimed the lease (and
                // journalled the Expired/Reclaimed pair). Kill-on-expiry
                // guarantees the stale holder stops consuming resources.
                child.kill_group();
                let fate = child.wait();
                self.workers_active.fetch_sub(1, Ordering::SeqCst);
                match fate {
                    Ok(ChildFate::Signaled(sig)) => {
                        self.emit_service(EventKind::WorkerDied {
                            campaign: entry.id.clone(),
                            worker: worker.to_string(),
                            lease_shard: claim.shard as u64,
                            signal: sig as u64,
                        });
                    }
                    _ => {
                        // Beat the kill to the exit: a completed child's
                        // journal record is a benign duplicate (first one
                        // wins, identical content).
                        self.workers_exited.fetch_add(1, Ordering::SeqCst);
                    }
                }
                return ChildOutcome::LostLease;
            }
            if let Some(t) = kill_at {
                if Instant::now() >= t {
                    child.kill_group();
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        child.join_readers();
        apply(&mut applied, child.progress.load(Ordering::SeqCst));
        match fate {
            ChildFate::Signaled(signal) => {
                self.emit_service(EventKind::WorkerDied {
                    campaign: entry.id.clone(),
                    worker: worker.to_string(),
                    lease_shard: claim.shard as u64,
                    signal: signal as u64,
                });
                self.workers_active.fetch_sub(1, Ordering::SeqCst);
                ChildOutcome::Died(signal)
            }
            ChildFate::Exited(0) => {
                self.workers_active.fetch_sub(1, Ordering::SeqCst);
                self.workers_exited.fetch_add(1, Ordering::SeqCst);
                self.adopt_child_commit(entry, transition)
            }
            ChildFate::Exited(code) => {
                self.workers_active.fetch_sub(1, Ordering::SeqCst);
                self.workers_exited.fetch_add(1, Ordering::SeqCst);
                ChildOutcome::FailedExit(code, child.stderr_tail())
            }
        }
    }

    /// Adopts a committed child's journalled shard record into the
    /// campaign through [`commit_shard`](Self::commit_shard); the child
    /// appended the record itself, and only that record is read back
    /// ([`CampaignCheckpoint::read_shard`]).
    fn adopt_child_commit(&self, entry: &Arc<CampaignEntry>, lease: &Transition) -> ChildOutcome {
        let Some(journal) = entry.runtime.journal() else {
            let message = "process isolation lost its journal".to_string();
            self.release_and_fail(entry, lease, message);
            return ChildOutcome::SpawnFailed;
        };
        let shard = lease.shard;
        let record = CampaignCheckpoint::read_shard(journal.path(), shard as u64);
        let Ok(Some(record)) = record else {
            let failure = match record {
                Err(e) => format!("worker journal for shard {shard} does not load: {e}"),
                _ => format!("worker exited 0 without journalling shard {shard}"),
            };
            self.release_and_fail(entry, lease, failure);
            return ChildOutcome::SpawnFailed;
        };
        if self.commit_shard(entry, lease, record, true) {
            ChildOutcome::Committed
        } else {
            ChildOutcome::Fenced
        }
    }

    /// The poison-shard arm: quarantine, bisect with jailed probes to
    /// localize the lethal case, then rescue the shard in a *contained*
    /// (non-jailed) child so the case lands in the report as a `Crashed`
    /// outcome — bit-identical to what an in-process run records.
    #[allow(clippy::too_many_arguments)]
    fn handle_poison(
        &self,
        entry: &Arc<CampaignEntry>,
        worker: &str,
        shard: usize,
        deaths: u64,
        last_signal: i32,
        jail: &ProcessJail,
        spec_path: &Path,
    ) {
        if !entry.leases.quarantine(shard) {
            return; // another thread owns this shard's fault handling
        }
        let cases = entry.runtime.plan()[shard].cases;
        let probe = |limit: usize| -> Option<i32> {
            let args = WorkerArgs {
                spec: spec_path.to_path_buf(),
                worker: format!("{worker}-probe"),
                shard: shard as u64,
                lease_seq: None,
                probe: true,
                limit_cases: Some(limit),
                jail: true,
            };
            match WorkerChild::spawn(jail, &args).and_then(|c| c.wait()) {
                Ok(ChildFate::Signaled(sig)) => Some(sig),
                _ => None,
            }
        };
        // Exoneration first: if the full prefix survives a fresh jailed
        // run, the deaths were environmental (a chaos monkey, an OOM
        // neighbour) — the shard itself is innocent.
        let Some(mut fatal) = probe(cases) else {
            entry.leases.unquarantine(shard);
            entry.deaths[shard].store(0, Ordering::SeqCst);
            self.wake_workers();
            return;
        };
        // Binary search over prefix length: the smallest prefix that dies
        // ends at the poison case. Generation is sequential from the shard
        // seed, so prefixes are well-defined and deterministic.
        let (mut lo, mut hi) = (1usize, cases);
        while lo < hi {
            if entry.cancel.is_cancelled() {
                return;
            }
            let mid = lo + (hi - lo) / 2;
            match probe(mid) {
                Some(sig) => {
                    fatal = sig;
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        let poison_case = (lo - 1) as u64;
        let _ = last_signal; // the probe's signal is the authoritative one
        self.emit_service(EventKind::ShardPoisoned {
            campaign: entry.id.clone(),
            lease_shard: shard as u64,
            deaths,
            poison_case,
            signal: fatal as u64,
        });
        // Rescue: one more directed run, contained instead of jailed. The
        // lethal case unwinds through the harness's panic boundary into a
        // `Crashed` outcome, and the shard commits normally.
        let Some(rescue) = entry.leases.claim_shard(shard, worker) else {
            return;
        };
        let transition = Transition {
            shard,
            holder: worker.to_string(),
            lease_seq: rescue.lease_seq,
            ttl_millis: rescue.ttl.as_millis() as u64,
            reclaims: 0,
        };
        self.record_lease(entry, LeaseAction::Acquired, &transition);
        let args = WorkerArgs {
            spec: spec_path.to_path_buf(),
            worker: worker.to_string(),
            shard: shard as u64,
            lease_seq: Some(rescue.lease_seq),
            probe: false,
            limit_cases: None,
            jail: false,
        };
        match self.babysit(entry, worker, &rescue, &transition, jail, &args, false) {
            ChildOutcome::Died(signal) => {
                if let Some(t) = entry.leases.expire(shard, rescue.lease_seq) {
                    self.record_lease(entry, LeaseAction::Expired, &t);
                    self.record_lease(entry, LeaseAction::Reclaimed, &t);
                }
                self.fail_campaign(
                    entry,
                    format!(
                        "rescue worker for poisoned shard {shard} died by signal {signal} \
                         even in containment"
                    ),
                );
            }
            ChildOutcome::FailedExit(code, stderr) => {
                let message = format!(
                    "rescue worker for poisoned shard {shard} failed (exit {code}): {stderr}"
                );
                self.release_and_fail(entry, &transition, message);
            }
            ChildOutcome::Committed
            | ChildOutcome::Fenced
            | ChildOutcome::Cancelled
            | ChildOutcome::LostLease
            | ChildOutcome::SpawnFailed => {}
        }
    }

    /// The crash-storm breaker: halve the schedulable pool width (floor
    /// one) and reset the storm counter.
    fn degrade_pool(&self, consecutive: u64) {
        let from = self.effective_width.load(Ordering::SeqCst);
        let to = (from / 2).max(1);
        if to < from {
            self.effective_width.store(to, Ordering::SeqCst);
            self.emit_service(EventKind::PoolDegraded {
                from_workers: from as u64,
                to_workers: to as u64,
                consecutive_deaths: consecutive,
            });
        }
        self.consecutive_deaths.store(0, Ordering::SeqCst);
    }

    fn fail_campaign(&self, entry: &Arc<CampaignEntry>, message: String) {
        {
            let mut state = entry.state.lock().expect("campaign state poisoned");
            if state.is_terminal() {
                return;
            }
            *entry.failure.lock().expect("failure poisoned") = Some(message);
            entry.cancel.cancel();
            self.record_finish(entry, "failed");
            *state = CampaignState::Failed;
        }
        self.retire(entry);
        self.wake_workers();
    }

    /// Emits `CampaignFinished` and counts the outcome. Called under the
    /// campaign's state lock *before* the state turns terminal, so anyone
    /// who sees the terminal state (a returning [`Daemon::wait`]) also sees
    /// the campaign ledger balanced.
    fn record_finish(&self, entry: &CampaignEntry, outcome: &str) {
        let (done, _, _) = entry.leases.counts();
        self.emit_service(EventKind::CampaignFinished {
            campaign: entry.id.clone(),
            outcome: outcome.to_string(),
            shards_run: done.saturating_sub(entry.runtime.salvaged().len()) as u64,
        });
    }

    /// Releases what only a live campaign needs: its session, its
    /// shard runtime's slots (their merge is in `final_report`), waiting
    /// events and journal, and its telemetry file. Its event tail stays
    /// until `max_active` more recently finished campaigns have retired.
    ///
    /// Called right after the terminal transition, once the campaign's
    /// state lock is released: closing the telemetry file flushes and
    /// syncs it, and the scheduler reads every campaign's state under the
    /// registry lock. The files close last, so once they are closed the
    /// rest is done. Does nothing while a lease is held or settling: a
    /// failed campaign with shards still in flight retires on a later
    /// heartbeat. Idempotent.
    fn retire(&self, entry: &Arc<CampaignEntry>) {
        if entry.leases.counts().1 > 0
            || entry.settling.load(Ordering::SeqCst) > 0
            || entry.retired.swap(true, Ordering::SeqCst)
        {
            return;
        }
        {
            let mut kept = self.tails_kept.lock().expect("tail queue poisoned");
            kept.push_back(Arc::clone(entry));
            while kept.len() > self.cfg.max_active {
                if let Some(oldest) = kept.pop_front() {
                    // Flag first: a reader that got the events before the
                    // take sees the flag afterwards and reports `expired`.
                    oldest.tail_expired.store(true, Ordering::SeqCst);
                    oldest.tee.tail.take();
                }
            }
        }
        entry.session.lock().expect("session slot poisoned").take();
        entry.runtime.release();
        let file = entry.tee.file.lock().expect("telemetry file poisoned").take();
        // Closed outside its slot lock too.
        drop(file);
    }

    /// Completes or cancels a campaign when its leases say so. The merge
    /// runs under the state lock, so exactly one caller finalizes.
    fn maybe_finalize(&self, entry: &Arc<CampaignEntry>) {
        {
            let mut state = entry.state.lock().expect("campaign state poisoned");
            // Over when every shard is done, or when it is cancelled with
            // nothing in flight: nothing will be leased again.
            let over = entry.leases.all_done()
                || (entry.cancel.is_cancelled() && entry.leases.counts().1 == 0);
            // Ledger barrier: read the lease table *before* the settling
            // count. If this observer sees the state a mid-commit worker
            // produced (Done / no longer Held), the worker's `SettleGuard`
            // arm is visible too, so `settling > 0` and we defer — the
            // worker re-runs finalization right after its `Released`
            // record (and the supervisor heartbeat retries every tick).
            // This keeps "terminal campaign" ⇒ "balanced lease ledger".
            if state.is_terminal() || !over || entry.settling.load(Ordering::SeqCst) > 0 {
                return;
            }
            let (merged, outcome) = entry.runtime.finish();
            let finished = if merged.interrupted {
                CampaignState::Cancelled
            } else {
                CampaignState::Completed
            };
            let checksum = report_checksum(&merged);
            *entry.final_report.lock().expect("final report poisoned") = Some((merged, checksum));
            self.record_finish(entry, outcome);
            *state = finished;
        }
        self.retire(entry);
        self.wake_workers();
    }

    /// One supervisor heartbeat over every live campaign. Each campaign
    /// ticks inside its own `catch_unwind`, so a poisoned campaign cannot
    /// take the supervisor (or its neighbours) down with it.
    fn heartbeat(&self) {
        let campaigns: Vec<Arc<CampaignEntry>> =
            self.campaigns.lock().expect("campaign registry poisoned").clone();
        let now = Instant::now();
        for entry in campaigns {
            if entry.state().is_terminal() {
                // A failed campaign's last in-flight shard may have settled
                // since the failure.
                self.retire(&entry);
                continue;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                let snap = entry.runtime.progress().snapshot();
                let progress =
                    move |i: usize| snap.shards.get(i).map(|s| s.cases_done).unwrap_or_default();
                let beat = entry.leases.tick(now, &progress);
                for t in &beat.renewed {
                    self.record_lease(&entry, LeaseAction::Renewed, t);
                }
                for t in &beat.reclaimed {
                    self.record_lease(&entry, LeaseAction::Expired, t);
                    self.record_lease(&entry, LeaseAction::Reclaimed, t);
                }
                if !beat.reclaimed.is_empty() {
                    self.wake_workers();
                }
                self.maybe_finalize(&entry);
            }));
            if result.is_err() {
                self.fail_campaign(&entry, "panic during supervisor heartbeat".to_string());
            }
        }
    }

    fn worker_loop(self: &Arc<Self>, index: usize, worker: String) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if index >= self.effective_width.load(Ordering::SeqCst) {
                // Degraded by the crash-storm breaker: this slot parks
                // (it still drains and shuts down normally).
                if self.draining.load(Ordering::SeqCst) {
                    return;
                }
                let guard = self.park.lock().expect("park lock poisoned");
                let _ = self
                    .bell
                    .wait_timeout(guard, Duration::from_millis(10))
                    .expect("park lock poisoned");
                continue;
            }
            match self.next_candidate() {
                Some(entry) => self.execute_on(&entry, &worker),
                None => {
                    if self.draining.load(Ordering::SeqCst) {
                        return; // nothing leasable and nothing will be
                    }
                    let guard = self.park.lock().expect("park lock poisoned");
                    let _ = self
                        .bell
                        .wait_timeout(guard, Duration::from_millis(10))
                        .expect("park lock poisoned");
                }
            }
        }
    }
}

/// The long-lived campaign service: a worker pool, a supervisor, and the
/// admission-controlled campaign registry. See the [module docs](self).
pub struct Daemon {
    shared: Arc<DaemonShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    drained: Mutex<bool>,
}

impl Daemon {
    /// Starts the worker pool and supervisor.
    pub fn start(cfg: ServiceConfig) -> Arc<Daemon> {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
        } else {
            cfg.workers
        };
        let recorder = Recorder::new(cfg.sink.clone(), SERVICE_SHARD);
        let monkey_kills = match &cfg.isolation {
            IsolationMode::Processes(jail) => jail.storm_kills,
            IsolationMode::InProcess => 0,
        };
        let shared = Arc::new(DaemonShared {
            cfg,
            service: Mutex::new((recorder, MetricsSnapshot::default())),
            campaigns: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            rotation: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            park: Mutex::new(()),
            bell: Condvar::new(),
            effective_width: AtomicUsize::new(workers),
            consecutive_deaths: AtomicU64::new(0),
            monkey_kills: AtomicU64::new(monkey_kills),
            workers_active: AtomicU64::new(0),
            workers_exited: AtomicU64::new(0),
            tails_kept: Mutex::new(VecDeque::new()),
        });
        let mut pool = Vec::with_capacity(workers);
        for k in 0..workers {
            let shared = Arc::clone(&shared);
            let label = format!("worker-{k}");
            pool.push(
                std::thread::Builder::new()
                    .name(label.clone())
                    .spawn(move || shared.worker_loop(k, label))
                    .expect("spawn worker"),
            );
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("supervisor".to_string())
                .spawn(move || {
                    while !shared.shutdown.load(Ordering::SeqCst) {
                        std::thread::sleep(shared.cfg.heartbeat);
                        shared.heartbeat();
                    }
                })
                .expect("spawn supervisor")
        };
        Arc::new(Daemon {
            shared,
            workers: Mutex::new(pool),
            supervisor: Mutex::new(Some(supervisor)),
            drained: Mutex::new(false),
        })
    }

    /// Submits a campaign through admission control. On success the
    /// campaign id is returned and shards begin leasing immediately; on
    /// rejection the typed [`Rejection`] says why and when to retry.
    pub fn submit(&self, spec: &CampaignSpec) -> Result<String, Rejection> {
        let shared = &self.shared;
        let retry = shared.cfg.retry_after.as_millis() as u64;
        let reject = |reason: &str, message: String, retry_after_millis: u64| {
            shared.emit_service(EventKind::CampaignRejected {
                tenant: spec.tenant.clone(),
                reason: reason.to_string(),
                retry_after_millis,
            });
            Err(Rejection { reason: reason.to_string(), message, retry_after_millis })
        };
        if shared.draining.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
            return reject("draining", "the daemon is draining".to_string(), retry);
        }
        let config = match spec.build_config() {
            Ok(config) => config,
            Err(e) => return reject("invalid_spec", e, 0),
        };
        if matches!(shared.cfg.isolation, IsolationMode::Processes(_))
            && config.checkpoint.is_none()
        {
            // Worker children report results through the journal; without
            // one there is no result channel at all.
            return reject(
                "invalid_spec",
                "process isolation requires a checkpoint journal in the spec".to_string(),
                0,
            );
        }
        // Admission bounds: a full queue or an exhausted tenant quota is a
        // *backpressure* outcome (retry later), not an error.
        {
            let campaigns = shared.campaigns.lock().expect("campaign registry poisoned");
            let active = campaigns.iter().filter(|entry| !entry.state().is_terminal()).count();
            if active >= shared.cfg.max_active {
                return reject(
                    "queue_full",
                    format!("{active} active campaigns (cap {})", shared.cfg.max_active),
                    retry,
                );
            }
            let tenant_active = campaigns
                .iter()
                .filter(|entry| entry.tenant == spec.tenant && !entry.state().is_terminal())
                .count();
            if tenant_active >= shared.cfg.tenant_quota {
                return reject(
                    "quota",
                    format!(
                        "tenant '{}' already has {tenant_active} active campaigns (quota {})",
                        spec.tenant, shared.cfg.tenant_quota
                    ),
                    retry,
                );
            }
        }
        let id = format!("c-{:04}", shared.next_id.fetch_add(1, Ordering::Relaxed));
        let entry = match build_entry(shared, &id, spec, config) {
            Ok(entry) => entry,
            Err(e) => return reject("journal_conflict", e, 0),
        };
        let shards = entry.runtime.plan().len() as u64;
        shared.campaigns.lock().expect("campaign registry poisoned").push(Arc::clone(&entry));
        shared.emit_service(EventKind::CampaignAdmitted {
            campaign: id.clone(),
            tenant: spec.tenant.clone(),
            shards,
        });
        // A fully-salvaged resubmission needs no worker at all.
        shared.maybe_finalize(&entry);
        shared.wake_workers();
        Ok(id)
    }

    /// Status of every campaign, in submission order.
    pub fn status(&self) -> Vec<CampaignStatus> {
        self.shared
            .campaigns
            .lock()
            .expect("campaign registry poisoned")
            .iter()
            .map(|entry| entry.status())
            .collect()
    }

    /// Status of one campaign.
    pub fn campaign_status(&self, id: &str) -> Option<CampaignStatus> {
        self.shared.find(id).map(|entry| entry.status())
    }

    /// Requests cancellation of a campaign; in-flight shards drain at
    /// their next cancellation point. Returns `false` for unknown ids.
    pub fn cancel(&self, id: &str) -> bool {
        match self.shared.find(id) {
            Some(entry) => {
                entry.cancel.cancel();
                self.shared.maybe_finalize(&entry);
                self.shared.wake_workers();
                true
            }
            None => false,
        }
    }

    /// The final merged report and its deterministic checksum, once the
    /// campaign reached a terminal state that produced one.
    pub fn final_report(&self, id: &str) -> Option<(CampaignReport, u64)> {
        let entry = self.shared.find(id)?;
        let report = entry.final_report.lock().expect("final report poisoned").clone();
        report
    }

    /// The campaign's buffered telemetry from `from` onward, plus whether
    /// the campaign is terminal (the tail stream can close). A finished
    /// campaign's tail expires once `max_active` more recently finished
    /// campaigns have kept theirs.
    pub fn tail_events(&self, id: &str, from: usize) -> Result<(Vec<Event>, bool), TailError> {
        let entry = self.shared.find(id).ok_or(TailError::NotFound)?;
        let terminal = entry.state().is_terminal();
        let events = entry.tee.tail.events_from(from);
        if entry.tail_expired.load(Ordering::SeqCst) {
            return Err(TailError::Expired);
        }
        Ok((events, terminal))
    }

    /// Blocks until campaign `id` reaches a terminal state (or `timeout`
    /// elapses); returns its final status.
    pub fn wait(&self, id: &str, timeout: Duration) -> Option<CampaignStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.campaign_status(id)?;
            if status.state.is_terminal() {
                return Some(status);
            }
            if Instant::now() >= deadline {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// `true` once a drain has started.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// The service counters: the count of every service event emitted so
    /// far.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.service.lock().expect("service recorder poisoned").1
    }

    /// Shards currently under lease across every campaign (the `still_held`
    /// term of the lease conservation ledger).
    pub fn leases_held(&self) -> u64 {
        self.shared
            .campaigns
            .lock()
            .expect("campaign registry poisoned")
            .iter()
            .map(|entry| entry.leases.counts().1 as u64)
            .sum()
    }

    /// Live worker children right now (the `active` term of the worker
    /// conservation ledger; always 0 for in-process isolation).
    pub fn fleet_workers_active(&self) -> u64 {
        self.shared.workers_active.load(Ordering::SeqCst)
    }

    /// Worker children that exited on their own, any code (the `exited`
    /// term of the worker conservation ledger).
    pub fn fleet_workers_exited(&self) -> u64 {
        self.shared.workers_exited.load(Ordering::SeqCst)
    }

    /// Worker slots currently allowed to lease (less than the configured
    /// width once the crash-storm breaker has tripped).
    pub fn pool_width(&self) -> usize {
        self.shared.effective_width.load(Ordering::SeqCst)
    }

    /// Non-terminal campaigns (the `active` term of the campaign ledger).
    pub fn campaigns_active(&self) -> u64 {
        self.shared
            .campaigns
            .lock()
            .expect("campaign registry poisoned")
            .iter()
            .filter(|entry| !entry.state().is_terminal())
            .count() as u64
    }

    /// Graceful drain: stop admitting and leasing, let in-flight shards
    /// finish and checkpoint, stop the pool and the supervisor. Journalled
    /// campaigns left incomplete resume in the next daemon life. Idempotent.
    pub fn drain(&self) {
        {
            let mut drained = self.drained.lock().expect("drain guard poisoned");
            if *drained {
                return;
            }
            *drained = true;
        }
        let active = self.campaigns_active();
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.emit_service(EventKind::DrainStarted { active_campaigns: active });
        self.shared.wake_workers();
        for worker in self.workers.lock().expect("worker pool poisoned").drain(..) {
            let _ = worker.join();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(supervisor) = self.supervisor.lock().expect("supervisor poisoned").take() {
            let _ = supervisor.join();
        }
        // Nothing emits any more. Retirement closes a finished campaign's
        // telemetry file; a campaign left running keeps its file open, so
        // flush it to hold every event of the campaign's tail.
        for entry in self.shared.campaigns.lock().expect("campaign registry poisoned").iter() {
            if let Some(file) = entry.tee.file.lock().expect("telemetry file poisoned").as_ref() {
                let _ = file.flush();
            }
        }
    }

    /// The health/occupancy table: one row per campaign plus a pool footer.
    pub fn occupancy(&self) -> String {
        let mut table =
            comfort_core::report::Table::new("Service occupancy", &[8, 10, 9, 12, 8, 10, 8]);
        table.row(&["Campaign", "Tenant", "State", "Shards", "Held", "Reclaims", "Bugs"]);
        for status in self.status() {
            table.row(&[
                &status.id,
                &status.tenant,
                status.state.as_str(),
                &format!("{}/{}", status.shards_done, status.shards_total),
                &status.shards_held.to_string(),
                &status.reclaims.to_string(),
                &status.bugs_found.to_string(),
            ]);
        }
        let snap = self.metrics();
        table.text(format!(
            "workers {} (width {}) | active {} | leases held {} | acquired {} renewed {} released {} expired {} reclaimed {} | admitted {} rejected {} | fleet spawned {} died {} poisoned {} degraded {}{}",
            self.workers.lock().expect("worker pool poisoned").len(),
            self.pool_width(),
            self.campaigns_active(),
            self.leases_held(),
            snap.leases_acquired,
            snap.leases_renewed,
            snap.leases_released,
            snap.leases_expired,
            snap.leases_reclaimed,
            snap.campaigns_admitted,
            snap.campaigns_rejected,
            snap.workers_spawned,
            snap.workers_died,
            snap.shards_poisoned,
            snap.pool_degradations,
            if self.is_draining() { " | DRAINING" } else { "" },
        ));
        table.render()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Undrained drops (test failures, panics) must not leave the pool
        // spinning: flag shutdown so every thread exits at its next check.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_workers();
    }
}

/// Builds a campaign entry. The spec's journal, if one exists, is checked
/// before any file is touched: a rejected submission must not truncate the
/// telemetry file or rewrite the worker spec file of a campaign that runs
/// on the same paths.
fn build_entry(
    shared: &DaemonShared,
    id: &str,
    spec: &CampaignSpec,
    mut config: CampaignConfig,
) -> Result<Arc<CampaignEntry>, String> {
    let salvage = ShardRuntime::check(&config)
        .map_err(|e| format!("journal {}: {e}", spec.checkpoint.as_deref().unwrap_or_default()))?;
    let file = match &spec.telemetry {
        Some(path) => Some(
            JsonlSink::create(path)
                .map_err(|e| format!("cannot open telemetry file {path}: {e}"))?,
        ),
        None => None,
    };
    // Process isolation: persist the spec next to the journal so worker
    // children rebuild the identical campaign (same fingerprint) from it.
    let mut spec_path = None;
    if matches!(shared.cfg.isolation, IsolationMode::Processes(_)) {
        if let Some(path) = &config.checkpoint {
            let p = PathBuf::from(format!("{}.spec.json", path.display()));
            std::fs::write(&p, spec.to_json())
                .map_err(|e| format!("cannot write worker spec file {p:?}: {e}"))?;
            spec_path = Some(p);
        }
    }
    let tee = TeeSink { tail: MemorySink::new(), file: Arc::new(Mutex::new(file)) };
    config.sink = SinkHandle::new(tee.clone());
    config.cancel = CancelToken::new();
    let session = CampaignSession::new(config);

    let shards = session.plan().len();
    let leases = LeaseTable::new(shards, shared.cfg.lease_ttl);
    if let Some(salvage) = &salvage {
        let checkpoint = salvage.checkpoint();
        for record in &checkpoint.shards {
            leases.restore_done(record.index as usize);
        }
        // Adopt the journal's lease state: a shard journalled as held with
        // no shard record means its holder died mid-shard. The adopted
        // lease runs out its recorded TTL (the dead holder makes no
        // progress) and is then reclaimed and re-leased.
        for lease in checkpoint.latest_leases() {
            let shard = lease.shard as usize;
            if shard < shards
                && matches!(lease.action, LeaseAction::Acquired | LeaseAction::Renewed)
            {
                let ttl = Duration::from_millis(lease.ttl_millis);
                leases.restore_held(shard, &lease.worker, lease.lease_seq, ttl);
                // Re-emitting Acquired on adoption keeps the lease ledger
                // balanced within this daemon life.
                shared.emit_service(EventKind::LeaseAcquired {
                    campaign: id.to_string(),
                    lease_shard: lease.shard,
                    worker: lease.worker.clone(),
                    ttl_millis: lease.ttl_millis,
                });
            }
        }
    }
    // A campaign under the daemon starts the moment it is admitted, and
    // its deadline with it.
    let runtime = ShardRuntime::start(session.config(), session.progress(), salvage);
    Ok(Arc::new(CampaignEntry {
        id: id.to_string(),
        tenant: spec.tenant.clone(),
        name: spec.name.clone().unwrap_or_else(|| id.to_string()),
        cancel: session.config().cancel.clone(),
        session: Mutex::new(Some(Arc::new(session))),
        tee,
        runtime,
        leases,
        state: Mutex::new(CampaignState::Queued),
        final_report: Mutex::new(None),
        failure: Mutex::new(None),
        spec_path,
        deaths: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        settling: AtomicU64::new(0),
        retired: AtomicBool::new(false),
        tail_expired: AtomicBool::new(false),
    }))
}

fn unix_millis_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_config_defaults_are_sane() {
        let cfg = ServiceConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.heartbeat < cfg.lease_ttl);
        assert!(cfg.max_active >= cfg.tenant_quota);
    }

    #[test]
    fn rejection_displays_reason_and_detail() {
        let r = Rejection {
            reason: "quota".to_string(),
            message: "tenant 'acme' is at its quota".to_string(),
            retry_after_millis: 250,
        };
        let text = r.to_string();
        assert!(text.contains("quota"), "{text}");
        assert!(text.contains("acme"), "{text}");
    }

    #[test]
    fn campaign_states_expose_terminality() {
        assert!(!CampaignState::Queued.is_terminal());
        assert!(!CampaignState::Running.is_terminal());
        assert!(CampaignState::Completed.is_terminal());
        assert!(CampaignState::Cancelled.is_terminal());
        assert!(CampaignState::Failed.is_terminal());
        assert_eq!(CampaignState::Running.as_str(), "running");
    }

    #[test]
    fn status_json_includes_checksum_only_when_present() {
        let mut status = CampaignStatus {
            id: "c-0001".to_string(),
            tenant: "t".to_string(),
            name: "n".to_string(),
            state: CampaignState::Running,
            shards_total: 3,
            shards_done: 1,
            shards_held: 1,
            reclaims: 0,
            cases_done: 20,
            bugs_found: 2,
            checksum: None,
            failure: None,
            resumed: false,
        };
        assert!(!status.to_json().contains("checksum"));
        status.checksum = Some(0xdead_beef);
        assert!(status.to_json().contains("00000000deadbeef"));
    }
}
