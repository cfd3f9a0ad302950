//! The typed event taxonomy and its deterministic JSON rendering.
//!
//! Every event carries a [`LogicalClock`]: the shard that produced it and a
//! per-shard sequence number assigned by the emitting
//! [`Recorder`](crate::sink::Recorder). Sorting a stream by `(shard, seq)`
//! therefore yields the same total order at every thread count — the
//! executor already delivers events to sinks in that order. Wall-clock
//! durations are *optional* fields; [`Event::to_json_deterministic`] omits
//! them so streams can be compared bit-for-bit across runs and thread
//! counts.

use std::fmt::Write as _;

/// A deterministic event timestamp: `(shard, seq)`.
///
/// `seq` counts events within one shard's stream; `shard` is the shard's
/// merge-order index ([`MERGE_SHARD`] for events emitted by the cross-shard
/// merge itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogicalClock {
    /// Shard index in merge order.
    pub shard: u64,
    /// Position within the shard's event stream.
    pub seq: u64,
}

/// The `shard` value used for events emitted during the cross-shard merge
/// (which runs after every per-shard stream, in deterministic merge order).
pub const MERGE_SHARD: u64 = u64::MAX;

/// The `shard` value used for **control-plane** events — checkpoint writes,
/// resume/interrupt lifecycle — which describe how one particular execution
/// unfolded rather than what the campaign computed. Control events are
/// excluded from the determinism contract (a resumed run legitimately emits
/// a `campaign_resumed` event an uninterrupted run does not); filter them
/// with [`Event::is_control`] before comparing streams.
pub const CONTROL_SHARD: u64 = u64::MAX - 1;

/// The `shard` value used for **service-plane** events — lease grants and
/// reclaims, admission decisions, drains — emitted by the `comfort-service`
/// supervisor rather than by any campaign's pipeline. Like
/// [`CONTROL_SHARD`], service events describe one particular execution of
/// the daemon and are excluded from the determinism contract; they render
/// as shard `-3` and are flagged by [`Event::is_control`].
pub const SERVICE_SHARD: u64 = u64::MAX - 2;

/// The six pipeline stages metrics and timings are keyed by, in pipeline
/// order: generation → validity filter → data-gen mutation → differential
/// voting → reduction → identical-bug filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// LM program generation (§3.2).
    Generation,
    /// Front-end validity filtering of generated sources.
    Validity,
    /// ECMA-262-guided test-data mutation (Algorithm 1).
    Datagen,
    /// Differential execution + majority voting (§3.4).
    Differential,
    /// Bug-exposing test-case reduction (§3.5).
    Reduction,
    /// Three-layer identical-bug filtering (§3.6).
    Filter,
}

impl Stage {
    /// All stages in pipeline order (also the metrics array layout).
    pub const ALL: [Stage; 6] = [
        Stage::Generation,
        Stage::Validity,
        Stage::Datagen,
        Stage::Differential,
        Stage::Reduction,
        Stage::Filter,
    ];

    /// Stable snake-case label (used in JSONL output).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Generation => "generation",
            Stage::Validity => "validity",
            Stage::Datagen => "datagen",
            Stage::Differential => "differential",
            Stage::Reduction => "reduction",
            Stage::Filter => "filter",
        }
    }

    /// Parses the stable label produced by [`Stage::as_str`].
    pub fn parse_label(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|stage| stage.as_str() == s)
    }

    /// Index into [`Stage::ALL`] (and the per-stage metrics array).
    pub fn index(self) -> usize {
        match self {
            Stage::Generation => 0,
            Stage::Validity => 1,
            Stage::Datagen => 2,
            Stage::Differential => 3,
            Stage::Reduction => 4,
            Stage::Filter => 5,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happened (the payload of an [`Event`]).
///
/// Engine names, deviation kinds, and bug keys travel as plain strings so
/// this crate stays dependency-free and the JSONL output is self-contained.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A shard began executing its slice of the case budget.
    ShardStarted {
        /// The shard's derived campaign seed.
        seed: u64,
        /// The shard's share of `max_cases`.
        case_budget: u64,
    },
    /// A shard finished.
    ShardFinished {
        /// Cases the shard executed.
        cases_run: u64,
        /// Unique bugs the shard reported.
        bugs_reported: u64,
        /// Wall-clock shard duration (excluded from determinism
        /// comparisons).
        wall_nanos: Option<u64>,
    },
    /// A test case entered the execution queue.
    CaseGenerated {
        /// Campaign-unique case id.
        case_id: u64,
        /// Id of the base generated program this case derives from.
        base: u64,
        /// Provenance label (`"program-gen"` / `"ecma-mutation"`).
        origin: String,
        /// `true` for data-mutation cases, `false` for the base program.
        mutant: bool,
    },
    /// A generated source failed the validity filter (front-end rejection).
    CaseRejected {
        /// Generation counter of the rejected source.
        base: u64,
        /// `true` when the invalid program was kept as a parser test
        /// (§3.2 keeps 20%).
        kept: bool,
    },
    /// One case ran across the testbed matrix and was voted on.
    DifferentialRun {
        /// The case.
        case_id: u64,
        /// Number of testbeds that voted.
        testbeds: u64,
        /// Outcome label (`"pass"`, `"deviations"`, `"parse-error"`,
        /// `"all-timeout"`).
        outcome: String,
    },
    /// The execution-dedup layer collapsed a case's testbed matrix:
    /// `classes` physical executions served `classes + saved` logical runs
    /// (emitted only when `saved > 0`).
    ExecutionDeduped {
        /// The case.
        case_id: u64,
        /// Classes, one per representative (= physical executions).
        classes: u64,
        /// Executions avoided (logical runs − physical executions).
        saved: u64,
    },
    /// One engine deviated from the majority on one case.
    Deviation {
        /// The case.
        case_id: u64,
        /// Deviating engine.
        engine: String,
        /// Deviation class label.
        kind: String,
    },
    /// The identical-bug filter discarded an observation as a duplicate.
    BugDeduped {
        /// Engine layer of the duplicate key.
        engine: String,
        /// Full `engine / api / behavior` key.
        key: String,
        /// `true` when the duplicate was found while merging shard
        /// reports (the bug was first reported by an earlier shard).
        cross_shard: bool,
    },
    /// A harness-level fault was observed on one testbed run (contained
    /// panic, wedge/watchdog timeout, transient-retry exhaustion, or
    /// output-cap truncation). Distinct from [`EventKind::Deviation`]:
    /// faults describe *testbed* misbehaviour, deviations describe voting
    /// outcomes.
    FaultInjected {
        /// The case being executed when the fault was observed.
        case_id: u64,
        /// Label of the faulting testbed.
        testbed: String,
        /// Fault class label (`"panic"`, `"hang"`, `"transient-exhausted"`,
        /// `"output-truncated"`).
        kind: String,
    },
    /// A testbed run hit transient faults and was retried to completion
    /// (emitted once per retried run, carrying the attempt count).
    RunRetried {
        /// The case.
        case_id: u64,
        /// Label of the retried testbed.
        testbed: String,
        /// Number of extra attempts the run needed.
        retries: u64,
    },
    /// The circuit breaker sidelined a testbed after consecutive hard
    /// faults; it casts no further votes in this shard.
    TestbedQuarantined {
        /// The case whose fault tripped the breaker.
        case_id: u64,
        /// Label of the quarantined testbed.
        testbed: String,
        /// Consecutive hard faults observed at the moment of quarantine.
        hard_faults: u64,
    },
    /// A mode group voted with fewer than its full membership (members
    /// quarantined), or was skipped entirely for falling below the quorum
    /// threshold.
    QuorumDegraded {
        /// The case.
        case_id: u64,
        /// `true` for the strict testbed group.
        strict: bool,
        /// Healthy voters that actually cast signatures.
        healthy: u64,
        /// Full membership of the group.
        total: u64,
        /// `false` when the group fell below the quorum threshold and its
        /// vote was skipped.
        voted: bool,
    },
    /// A quarantined testbed passed its half-open probe and rejoined the
    /// voting quorum (see `HealthTracker` probing in `comfort-core`).
    TestbedReinstated {
        /// The case that served as the successful probe.
        case_id: u64,
        /// Label of the reinstated testbed.
        testbed: String,
        /// Cases the testbed sat out in quarantine before this probe.
        skipped: u64,
    },
    /// One shard's result was durably appended to the checkpoint journal
    /// (control-plane; stamped with [`CONTROL_SHARD`]).
    CheckpointWritten {
        /// Index of the checkpointed shard.
        checkpointed_shard: u64,
        /// Cases that shard executed.
        cases_run: u64,
        /// Journal size in bytes after the append (0 when unknown).
        journal_bytes: u64,
    },
    /// A campaign was resumed from a checkpoint journal (control-plane).
    CampaignResumed {
        /// Shards salvaged from the journal.
        shards_salvaged: u64,
        /// Total shards in the plan.
        shards_total: u64,
        /// Torn-tail bytes dropped during recovery.
        dropped_bytes: u64,
    },
    /// A campaign stopped early on cancellation or deadline (control-plane).
    /// Completed shards were checkpointed; in-flight shards were discarded
    /// and will re-run on resume.
    CampaignInterrupted {
        /// Shards fully completed (and journaled, when checkpointing).
        shards_completed: u64,
        /// Total shards in the plan.
        shards_total: u64,
        /// Why the campaign stopped (`"cancelled"` / `"deadline"`).
        reason: String,
    },
    /// A worker acquired a lease on one shard of a supervised campaign
    /// (service-plane; stamped with [`SERVICE_SHARD`]).
    LeaseAcquired {
        /// The leased campaign's id.
        campaign: String,
        /// The leased shard's index within that campaign's plan.
        lease_shard: u64,
        /// The acquiring worker's label.
        worker: String,
        /// Lease time-to-live granted, in milliseconds.
        ttl_millis: u64,
    },
    /// A live worker's lease was renewed by the supervisor heartbeat
    /// (service-plane). Liveness is progress-based: the lease renews only
    /// while the shard's case counter is advancing.
    LeaseRenewed {
        /// The leased campaign's id.
        campaign: String,
        /// The leased shard's index.
        lease_shard: u64,
        /// The holding worker's label.
        worker: String,
    },
    /// A worker completed its shard and released the lease (service-plane).
    LeaseReleased {
        /// The leased campaign's id.
        campaign: String,
        /// The released shard's index.
        lease_shard: u64,
        /// The releasing worker's label.
        worker: String,
    },
    /// A lease outlived its TTL without renewal — the holder is wedged or
    /// dead (service-plane).
    LeaseExpired {
        /// The leased campaign's id.
        campaign: String,
        /// The expired shard's index.
        lease_shard: u64,
        /// The delinquent worker's label.
        worker: String,
    },
    /// The supervisor reclaimed an expired lease so the shard can be
    /// reassigned (service-plane). The fencing sequence number increments,
    /// so a late completion from the old holder is discarded.
    LeaseReclaimed {
        /// The leased campaign's id.
        campaign: String,
        /// The reclaimed shard's index.
        lease_shard: u64,
        /// The worker whose lease was reclaimed.
        worker: String,
        /// How many times this shard's lease has now been reclaimed.
        reclaims: u64,
    },
    /// Admission control accepted a campaign into the run queue
    /// (service-plane).
    CampaignAdmitted {
        /// The admitted campaign's id.
        campaign: String,
        /// The submitting tenant.
        tenant: String,
        /// Shards in the campaign's plan.
        shards: u64,
    },
    /// Admission control rejected a submission — tenant over quota, queue
    /// full, or the daemon is draining (service-plane).
    CampaignRejected {
        /// The rejected tenant.
        tenant: String,
        /// Rejection class (`"quota"` / `"queue_full"` / `"draining"`).
        reason: String,
        /// Suggested client backoff before resubmitting, in milliseconds.
        retry_after_millis: u64,
    },
    /// A supervised campaign reached a terminal state (service-plane).
    CampaignFinished {
        /// The finished campaign's id.
        campaign: String,
        /// Terminal outcome (`"completed"` / `"cancelled"` / `"failed"`).
        outcome: String,
        /// Shards executed by this daemon process (salvaged shards not
        /// included).
        shards_run: u64,
    },
    /// The daemon began a graceful drain: no new leases, in-flight shards
    /// checkpoint, telemetry flushes, then exit 0 (service-plane).
    DrainStarted {
        /// Campaigns still active when the drain began.
        active_campaigns: u64,
    },
    /// The fleet supervisor spawned a jailed worker process for a pool
    /// slot (service-plane).
    WorkerSpawned {
        /// The supervised campaign's id.
        campaign: String,
        /// The spawned worker's label.
        worker: String,
        /// The shard the worker was directed at.
        lease_shard: u64,
        /// The worker's OS process id.
        pid: u64,
    },
    /// A jailed worker process died by signal instead of exiting
    /// (service-plane). Its lease is force-expired and the shard
    /// reclaimed.
    WorkerDied {
        /// The supervised campaign's id.
        campaign: String,
        /// The dead worker's label.
        worker: String,
        /// The shard the worker held when it died.
        lease_shard: u64,
        /// The fatal signal number (SIGKILL=9, SIGSEGV=11, SIGABRT=6, …).
        signal: u64,
    },
    /// A shard killed workers K times consecutively and entered poison
    /// quarantine; bisection localized the poison case (service-plane).
    ShardPoisoned {
        /// The supervised campaign's id.
        campaign: String,
        /// The quarantined shard's index.
        lease_shard: u64,
        /// Consecutive worker deaths that triggered quarantine.
        deaths: u64,
        /// Case index within the shard localized as the poison case.
        poison_case: u64,
        /// The fatal signal the poison case raises.
        signal: u64,
    },
    /// The crash-storm breaker tripped: the supervisor narrowed the pool
    /// instead of spinning through restarts (service-plane).
    PoolDegraded {
        /// Pool width before degradation.
        from_workers: u64,
        /// Pool width after degradation.
        to_workers: u64,
        /// Consecutive signal deaths that tripped the breaker.
        consecutive_deaths: u64,
    },
    /// Aggregated per-stage counters for one shard (emitted at shard end).
    StageTiming {
        /// The pipeline stage.
        stage: Stage,
        /// Times the stage ran.
        invocations: u64,
        /// Items the stage processed.
        items: u64,
        /// Deterministic cost units consumed (stage-specific: bytes
        /// generated, testbed runs, reduction candidates, …).
        logical_cost: u64,
        /// Wall-clock time spent in the stage (excluded from determinism
        /// comparisons).
        wall_nanos: Option<u64>,
    },
}

impl EventKind {
    /// Stable snake-case type tag (the JSONL `"type"` field).
    pub fn type_str(&self) -> &'static str {
        match self {
            EventKind::ShardStarted { .. } => "shard_started",
            EventKind::ShardFinished { .. } => "shard_finished",
            EventKind::CaseGenerated { .. } => "case_generated",
            EventKind::CaseRejected { .. } => "case_rejected",
            EventKind::DifferentialRun { .. } => "differential_run",
            EventKind::ExecutionDeduped { .. } => "execution_deduped",
            EventKind::Deviation { .. } => "deviation",
            EventKind::BugDeduped { .. } => "bug_deduped",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::RunRetried { .. } => "run_retried",
            EventKind::TestbedQuarantined { .. } => "testbed_quarantined",
            EventKind::QuorumDegraded { .. } => "quorum_degraded",
            EventKind::TestbedReinstated { .. } => "testbed_reinstated",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::CampaignResumed { .. } => "campaign_resumed",
            EventKind::CampaignInterrupted { .. } => "campaign_interrupted",
            EventKind::LeaseAcquired { .. } => "lease_acquired",
            EventKind::LeaseRenewed { .. } => "lease_renewed",
            EventKind::LeaseReleased { .. } => "lease_released",
            EventKind::LeaseExpired { .. } => "lease_expired",
            EventKind::LeaseReclaimed { .. } => "lease_reclaimed",
            EventKind::CampaignAdmitted { .. } => "campaign_admitted",
            EventKind::CampaignRejected { .. } => "campaign_rejected",
            EventKind::CampaignFinished { .. } => "campaign_finished",
            EventKind::DrainStarted { .. } => "drain_started",
            EventKind::WorkerSpawned { .. } => "worker_spawned",
            EventKind::WorkerDied { .. } => "worker_died",
            EventKind::ShardPoisoned { .. } => "shard_poisoned",
            EventKind::PoolDegraded { .. } => "pool_degraded",
            EventKind::StageTiming { .. } => "stage_timing",
        }
    }
}

/// One telemetry event: a logical clock plus its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When, in logical time.
    pub clock: LogicalClock,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one JSON object (one JSONL line, no trailing
    /// newline), including wall-clock fields.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// Renders the event as JSON **without** wall-clock fields — the form
    /// compared in determinism tests (logical content only).
    pub fn to_json_deterministic(&self) -> String {
        self.render(false)
    }

    /// `true` for control-plane ([`CONTROL_SHARD`]) and service-plane
    /// ([`SERVICE_SHARD`]) events — checkpoint/resume lifecycle and
    /// supervisor decisions — which are excluded from the determinism
    /// contract. Filter with this before comparing streams bit-for-bit.
    pub fn is_control(&self) -> bool {
        self.clock.shard == CONTROL_SHARD || self.clock.shard == SERVICE_SHARD
    }

    /// Strips wall-clock fields, leaving only deterministic content.
    pub fn without_wall_clock(&self) -> Event {
        let mut e = self.clone();
        match &mut e.kind {
            EventKind::ShardFinished { wall_nanos, .. }
            | EventKind::StageTiming { wall_nanos, .. } => *wall_nanos = None,
            _ => {}
        }
        e
    }

    fn render(&self, include_wall: bool) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"shard\":{},\"seq\":{},\"type\":\"{}\"",
            // u64::MAX is not representable in every JSON reader; render the
            // merge pseudo-shard as -1, the control pseudo-shard as -2, and
            // the service pseudo-shard as -3.
            match self.clock.shard {
                MERGE_SHARD => -1i64,
                CONTROL_SHARD => -2i64,
                SERVICE_SHARD => -3i64,
                s => s as i64,
            },
            self.clock.seq,
            self.kind.type_str()
        );
        match &self.kind {
            EventKind::ShardStarted { seed, case_budget } => {
                let _ = write!(out, ",\"seed\":{seed},\"case_budget\":{case_budget}");
            }
            EventKind::ShardFinished { cases_run, bugs_reported, wall_nanos } => {
                let _ = write!(out, ",\"cases_run\":{cases_run},\"bugs_reported\":{bugs_reported}");
                if include_wall {
                    if let Some(w) = wall_nanos {
                        let _ = write!(out, ",\"wall_nanos\":{w}");
                    }
                }
            }
            EventKind::CaseGenerated { case_id, base, origin, mutant } => {
                let _ = write!(
                    out,
                    ",\"case_id\":{case_id},\"base\":{base},\"origin\":{},\"mutant\":{mutant}",
                    json_string(origin)
                );
            }
            EventKind::CaseRejected { base, kept } => {
                let _ = write!(out, ",\"base\":{base},\"kept\":{kept}");
            }
            EventKind::DifferentialRun { case_id, testbeds, outcome } => {
                let _ = write!(
                    out,
                    ",\"case_id\":{case_id},\"testbeds\":{testbeds},\"outcome\":{}",
                    json_string(outcome)
                );
            }
            EventKind::ExecutionDeduped { case_id, classes, saved } => {
                let _ =
                    write!(out, ",\"case_id\":{case_id},\"classes\":{classes},\"saved\":{saved}");
            }
            EventKind::Deviation { case_id, engine, kind } => {
                let _ = write!(
                    out,
                    ",\"case_id\":{case_id},\"engine\":{},\"kind\":{}",
                    json_string(engine),
                    json_string(kind)
                );
            }
            EventKind::BugDeduped { engine, key, cross_shard } => {
                let _ = write!(
                    out,
                    ",\"engine\":{},\"key\":{},\"cross_shard\":{cross_shard}",
                    json_string(engine),
                    json_string(key)
                );
            }
            EventKind::FaultInjected { case_id, testbed, kind } => {
                let _ = write!(
                    out,
                    ",\"case_id\":{case_id},\"testbed\":{},\"kind\":{}",
                    json_string(testbed),
                    json_string(kind)
                );
            }
            EventKind::RunRetried { case_id, testbed, retries } => {
                let _ = write!(
                    out,
                    ",\"case_id\":{case_id},\"testbed\":{},\"retries\":{retries}",
                    json_string(testbed)
                );
            }
            EventKind::TestbedQuarantined { case_id, testbed, hard_faults } => {
                let _ = write!(
                    out,
                    ",\"case_id\":{case_id},\"testbed\":{},\"hard_faults\":{hard_faults}",
                    json_string(testbed)
                );
            }
            EventKind::QuorumDegraded { case_id, strict, healthy, total, voted } => {
                let _ = write!(
                    out,
                    ",\"case_id\":{case_id},\"strict\":{strict},\"healthy\":{healthy},\"total\":{total},\"voted\":{voted}"
                );
            }
            EventKind::TestbedReinstated { case_id, testbed, skipped } => {
                let _ = write!(
                    out,
                    ",\"case_id\":{case_id},\"testbed\":{},\"skipped\":{skipped}",
                    json_string(testbed)
                );
            }
            EventKind::CheckpointWritten { checkpointed_shard, cases_run, journal_bytes } => {
                let _ = write!(
                    out,
                    ",\"checkpointed_shard\":{checkpointed_shard},\"cases_run\":{cases_run},\"journal_bytes\":{journal_bytes}"
                );
            }
            EventKind::CampaignResumed { shards_salvaged, shards_total, dropped_bytes } => {
                let _ = write!(
                    out,
                    ",\"shards_salvaged\":{shards_salvaged},\"shards_total\":{shards_total},\"dropped_bytes\":{dropped_bytes}"
                );
            }
            EventKind::CampaignInterrupted { shards_completed, shards_total, reason } => {
                let _ = write!(
                    out,
                    ",\"shards_completed\":{shards_completed},\"shards_total\":{shards_total},\"reason\":{}",
                    json_string(reason)
                );
            }
            EventKind::LeaseAcquired { campaign, lease_shard, worker, ttl_millis } => {
                let _ = write!(
                    out,
                    ",\"campaign\":{},\"lease_shard\":{lease_shard},\"worker\":{},\"ttl_millis\":{ttl_millis}",
                    json_string(campaign),
                    json_string(worker)
                );
            }
            EventKind::LeaseRenewed { campaign, lease_shard, worker }
            | EventKind::LeaseReleased { campaign, lease_shard, worker }
            | EventKind::LeaseExpired { campaign, lease_shard, worker } => {
                let _ = write!(
                    out,
                    ",\"campaign\":{},\"lease_shard\":{lease_shard},\"worker\":{}",
                    json_string(campaign),
                    json_string(worker)
                );
            }
            EventKind::LeaseReclaimed { campaign, lease_shard, worker, reclaims } => {
                let _ = write!(
                    out,
                    ",\"campaign\":{},\"lease_shard\":{lease_shard},\"worker\":{},\"reclaims\":{reclaims}",
                    json_string(campaign),
                    json_string(worker)
                );
            }
            EventKind::CampaignAdmitted { campaign, tenant, shards } => {
                let _ = write!(
                    out,
                    ",\"campaign\":{},\"tenant\":{},\"shards\":{shards}",
                    json_string(campaign),
                    json_string(tenant)
                );
            }
            EventKind::CampaignRejected { tenant, reason, retry_after_millis } => {
                let _ = write!(
                    out,
                    ",\"tenant\":{},\"reason\":{},\"retry_after_millis\":{retry_after_millis}",
                    json_string(tenant),
                    json_string(reason)
                );
            }
            EventKind::CampaignFinished { campaign, outcome, shards_run } => {
                let _ = write!(
                    out,
                    ",\"campaign\":{},\"outcome\":{},\"shards_run\":{shards_run}",
                    json_string(campaign),
                    json_string(outcome)
                );
            }
            EventKind::DrainStarted { active_campaigns } => {
                let _ = write!(out, ",\"active_campaigns\":{active_campaigns}");
            }
            EventKind::WorkerSpawned { campaign, worker, lease_shard, pid } => {
                let _ = write!(
                    out,
                    ",\"campaign\":{},\"worker\":{},\"lease_shard\":{lease_shard},\"pid\":{pid}",
                    json_string(campaign),
                    json_string(worker)
                );
            }
            EventKind::WorkerDied { campaign, worker, lease_shard, signal } => {
                let _ = write!(
                    out,
                    ",\"campaign\":{},\"worker\":{},\"lease_shard\":{lease_shard},\"signal\":{signal}",
                    json_string(campaign),
                    json_string(worker)
                );
            }
            EventKind::ShardPoisoned { campaign, lease_shard, deaths, poison_case, signal } => {
                let _ = write!(
                    out,
                    ",\"campaign\":{},\"lease_shard\":{lease_shard},\"deaths\":{deaths},\"poison_case\":{poison_case},\"signal\":{signal}",
                    json_string(campaign)
                );
            }
            EventKind::PoolDegraded { from_workers, to_workers, consecutive_deaths } => {
                let _ = write!(
                    out,
                    ",\"from_workers\":{from_workers},\"to_workers\":{to_workers},\"consecutive_deaths\":{consecutive_deaths}"
                );
            }
            EventKind::StageTiming { stage, invocations, items, logical_cost, wall_nanos } => {
                let _ = write!(
                    out,
                    ",\"stage\":\"{}\",\"invocations\":{invocations},\"items\":{items},\"logical_cost\":{logical_cost}",
                    stage.as_str()
                );
                if include_wall {
                    if let Some(w) = wall_nanos {
                        let _ = write!(out, ",\"wall_nanos\":{w}");
                    }
                }
            }
        }
        out.push('}');
        out
    }
}

/// Parses one rendered event line back into an [`Event`] — the inverse of
/// [`Event::to_json`], used when replaying journaled shard streams on
/// resume. Accepts both wall-clock and deterministic renderings.
pub fn event_from_json(v: &crate::json::JsonValue) -> Result<Event, String> {
    let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field {key:?}"));
    let num = |key: &str| field(key)?.as_u64().ok_or_else(|| format!("field {key:?} not a u64"));
    let string = |key: &str| {
        field(key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field {key:?} not a string"))
    };
    let boolean =
        |key: &str| field(key)?.as_bool().ok_or_else(|| format!("field {key:?} not a bool"));
    let opt_num = |key: &str| match v.get(key) {
        None => Ok(None),
        Some(w) => w.as_u64().map(Some).ok_or_else(|| format!("field {key:?} not a u64")),
    };

    let shard = match field("shard")?.as_i128().ok_or("field \"shard\" not an integer")? {
        -1 => MERGE_SHARD,
        -2 => CONTROL_SHARD,
        -3 => SERVICE_SHARD,
        s => u64::try_from(s).map_err(|_| format!("shard {s} out of range"))?,
    };
    let clock = LogicalClock { shard, seq: num("seq")? };

    let ty = string("type")?;
    let kind = match ty.as_str() {
        "shard_started" => {
            EventKind::ShardStarted { seed: num("seed")?, case_budget: num("case_budget")? }
        }
        "shard_finished" => EventKind::ShardFinished {
            cases_run: num("cases_run")?,
            bugs_reported: num("bugs_reported")?,
            wall_nanos: opt_num("wall_nanos")?,
        },
        "case_generated" => EventKind::CaseGenerated {
            case_id: num("case_id")?,
            base: num("base")?,
            origin: string("origin")?,
            mutant: boolean("mutant")?,
        },
        "case_rejected" => EventKind::CaseRejected { base: num("base")?, kept: boolean("kept")? },
        "differential_run" => EventKind::DifferentialRun {
            case_id: num("case_id")?,
            testbeds: num("testbeds")?,
            outcome: string("outcome")?,
        },
        "execution_deduped" => EventKind::ExecutionDeduped {
            case_id: num("case_id")?,
            classes: num("classes")?,
            saved: num("saved")?,
        },
        "deviation" => EventKind::Deviation {
            case_id: num("case_id")?,
            engine: string("engine")?,
            kind: string("kind")?,
        },
        "bug_deduped" => EventKind::BugDeduped {
            engine: string("engine")?,
            key: string("key")?,
            cross_shard: boolean("cross_shard")?,
        },
        "fault_injected" => EventKind::FaultInjected {
            case_id: num("case_id")?,
            testbed: string("testbed")?,
            kind: string("kind")?,
        },
        "run_retried" => EventKind::RunRetried {
            case_id: num("case_id")?,
            testbed: string("testbed")?,
            retries: num("retries")?,
        },
        "testbed_quarantined" => EventKind::TestbedQuarantined {
            case_id: num("case_id")?,
            testbed: string("testbed")?,
            hard_faults: num("hard_faults")?,
        },
        "quorum_degraded" => EventKind::QuorumDegraded {
            case_id: num("case_id")?,
            strict: boolean("strict")?,
            healthy: num("healthy")?,
            total: num("total")?,
            voted: boolean("voted")?,
        },
        "testbed_reinstated" => EventKind::TestbedReinstated {
            case_id: num("case_id")?,
            testbed: string("testbed")?,
            skipped: num("skipped")?,
        },
        "checkpoint_written" => EventKind::CheckpointWritten {
            checkpointed_shard: num("checkpointed_shard")?,
            cases_run: num("cases_run")?,
            journal_bytes: num("journal_bytes")?,
        },
        "campaign_resumed" => EventKind::CampaignResumed {
            shards_salvaged: num("shards_salvaged")?,
            shards_total: num("shards_total")?,
            dropped_bytes: num("dropped_bytes")?,
        },
        "campaign_interrupted" => EventKind::CampaignInterrupted {
            shards_completed: num("shards_completed")?,
            shards_total: num("shards_total")?,
            reason: string("reason")?,
        },
        "lease_acquired" => EventKind::LeaseAcquired {
            campaign: string("campaign")?,
            lease_shard: num("lease_shard")?,
            worker: string("worker")?,
            ttl_millis: num("ttl_millis")?,
        },
        "lease_renewed" => EventKind::LeaseRenewed {
            campaign: string("campaign")?,
            lease_shard: num("lease_shard")?,
            worker: string("worker")?,
        },
        "lease_released" => EventKind::LeaseReleased {
            campaign: string("campaign")?,
            lease_shard: num("lease_shard")?,
            worker: string("worker")?,
        },
        "lease_expired" => EventKind::LeaseExpired {
            campaign: string("campaign")?,
            lease_shard: num("lease_shard")?,
            worker: string("worker")?,
        },
        "lease_reclaimed" => EventKind::LeaseReclaimed {
            campaign: string("campaign")?,
            lease_shard: num("lease_shard")?,
            worker: string("worker")?,
            reclaims: num("reclaims")?,
        },
        "campaign_admitted" => EventKind::CampaignAdmitted {
            campaign: string("campaign")?,
            tenant: string("tenant")?,
            shards: num("shards")?,
        },
        "campaign_rejected" => EventKind::CampaignRejected {
            tenant: string("tenant")?,
            reason: string("reason")?,
            retry_after_millis: num("retry_after_millis")?,
        },
        "campaign_finished" => EventKind::CampaignFinished {
            campaign: string("campaign")?,
            outcome: string("outcome")?,
            shards_run: num("shards_run")?,
        },
        "drain_started" => EventKind::DrainStarted { active_campaigns: num("active_campaigns")? },
        "worker_spawned" => EventKind::WorkerSpawned {
            campaign: string("campaign")?,
            worker: string("worker")?,
            lease_shard: num("lease_shard")?,
            pid: num("pid")?,
        },
        "worker_died" => EventKind::WorkerDied {
            campaign: string("campaign")?,
            worker: string("worker")?,
            lease_shard: num("lease_shard")?,
            signal: num("signal")?,
        },
        "shard_poisoned" => EventKind::ShardPoisoned {
            campaign: string("campaign")?,
            lease_shard: num("lease_shard")?,
            deaths: num("deaths")?,
            poison_case: num("poison_case")?,
            signal: num("signal")?,
        },
        "pool_degraded" => EventKind::PoolDegraded {
            from_workers: num("from_workers")?,
            to_workers: num("to_workers")?,
            consecutive_deaths: num("consecutive_deaths")?,
        },
        "stage_timing" => EventKind::StageTiming {
            stage: {
                let label = string("stage")?;
                Stage::parse_label(&label).ok_or_else(|| format!("unknown stage {label:?}"))?
            },
            invocations: num("invocations")?,
            items: num("items")?,
            logical_cost: num("logical_cost")?,
            wall_nanos: opt_num("wall_nanos")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    };
    Ok(Event { clock, kind })
}

impl Event {
    /// Parses one JSONL line into an [`Event`] (see [`event_from_json`]).
    pub fn parse(line: &str) -> Result<Event, String> {
        event_from_json(&crate::json::parse(line)?)
    }
}

/// Escapes `s` as a JSON string literal (with quotes). Alias for the
/// shared [`crate::json::escape_string`].
pub fn json_string(s: &str) -> String {
    crate::json::escape_string(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_index_matches_all_order() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }

    #[test]
    fn json_rendering_includes_clock_and_type() {
        let e = Event {
            clock: LogicalClock { shard: 2, seq: 7 },
            kind: EventKind::Deviation {
                case_id: 13,
                engine: "Rhino".into(),
                kind: "WrongOutput".into(),
            },
        };
        let j = e.to_json();
        assert!(j.starts_with("{\"shard\":2,\"seq\":7,\"type\":\"deviation\""), "{j}");
        assert!(j.contains("\"engine\":\"Rhino\""));
    }

    #[test]
    fn deterministic_rendering_strips_wall_clock() {
        let e = Event {
            clock: LogicalClock { shard: 0, seq: 0 },
            kind: EventKind::StageTiming {
                stage: Stage::Differential,
                invocations: 3,
                items: 30,
                logical_cost: 30,
                wall_nanos: Some(12345),
            },
        };
        assert!(e.to_json().contains("wall_nanos"));
        assert!(!e.to_json_deterministic().contains("wall_nanos"));
        assert_eq!(e.without_wall_clock().to_json(), e.to_json_deterministic());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn every_event_kind_roundtrips_through_json() {
        let kinds = vec![
            EventKind::ShardStarted { seed: u64::MAX - 7, case_budget: 20 },
            EventKind::ShardFinished { cases_run: 20, bugs_reported: 3, wall_nanos: Some(99) },
            EventKind::ShardFinished { cases_run: 20, bugs_reported: 3, wall_nanos: None },
            EventKind::CaseGenerated {
                case_id: 1,
                base: 0,
                origin: "program-gen".into(),
                mutant: false,
            },
            EventKind::CaseRejected { base: 4, kept: true },
            EventKind::DifferentialRun { case_id: 2, testbeds: 12, outcome: "pass".into() },
            EventKind::ExecutionDeduped { case_id: 2, classes: 3, saved: 7 },
            EventKind::Deviation { case_id: 2, engine: "JSC".into(), kind: "Crash".into() },
            EventKind::BugDeduped {
                engine: "V8".into(),
                key: "V8 / eval \"x\" / Crash".into(),
                cross_shard: true,
            },
            EventKind::FaultInjected {
                case_id: 3,
                testbed: "V8 v8 [chaos]".into(),
                kind: "hang".into(),
            },
            EventKind::RunRetried { case_id: 3, testbed: "V8 v8".into(), retries: 2 },
            EventKind::TestbedQuarantined { case_id: 5, testbed: "V8 v8".into(), hard_faults: 2 },
            EventKind::QuorumDegraded {
                case_id: 6,
                strict: true,
                healthy: 4,
                total: 6,
                voted: false,
            },
            EventKind::TestbedReinstated { case_id: 9, testbed: "V8 v8".into(), skipped: 7 },
            EventKind::CheckpointWritten {
                checkpointed_shard: 1,
                cases_run: 20,
                journal_bytes: 512,
            },
            EventKind::CampaignResumed { shards_salvaged: 2, shards_total: 3, dropped_bytes: 17 },
            EventKind::CampaignInterrupted {
                shards_completed: 1,
                shards_total: 3,
                reason: "deadline".into(),
            },
            EventKind::LeaseAcquired {
                campaign: "c-0001".into(),
                lease_shard: 2,
                worker: "worker-1".into(),
                ttl_millis: 500,
            },
            EventKind::LeaseRenewed {
                campaign: "c-0001".into(),
                lease_shard: 2,
                worker: "worker-1".into(),
            },
            EventKind::LeaseReleased {
                campaign: "c-0001".into(),
                lease_shard: 2,
                worker: "worker-1".into(),
            },
            EventKind::LeaseExpired {
                campaign: "c-0001".into(),
                lease_shard: 2,
                worker: "worker-1".into(),
            },
            EventKind::LeaseReclaimed {
                campaign: "c-0001".into(),
                lease_shard: 2,
                worker: "worker-1".into(),
                reclaims: 3,
            },
            EventKind::CampaignAdmitted {
                campaign: "c-0001".into(),
                tenant: "tenant-a".into(),
                shards: 4,
            },
            EventKind::CampaignRejected {
                tenant: "tenant-b".into(),
                reason: "queue_full".into(),
                retry_after_millis: 250,
            },
            EventKind::CampaignFinished {
                campaign: "c-0001".into(),
                outcome: "completed".into(),
                shards_run: 4,
            },
            EventKind::DrainStarted { active_campaigns: 2 },
            EventKind::WorkerSpawned {
                campaign: "c-0001".into(),
                worker: "fleet-0".into(),
                lease_shard: 1,
                pid: 4242,
            },
            EventKind::WorkerDied {
                campaign: "c-0001".into(),
                worker: "fleet-0".into(),
                lease_shard: 1,
                signal: 9,
            },
            EventKind::ShardPoisoned {
                campaign: "c-0001".into(),
                lease_shard: 1,
                deaths: 3,
                poison_case: 7,
                signal: 6,
            },
            EventKind::PoolDegraded { from_workers: 4, to_workers: 2, consecutive_deaths: 6 },
            EventKind::StageTiming {
                stage: Stage::Reduction,
                invocations: 1,
                items: 2,
                logical_cost: 3,
                wall_nanos: Some(4),
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            for shard in [0, 3, MERGE_SHARD, CONTROL_SHARD, SERVICE_SHARD] {
                let e = Event { clock: LogicalClock { shard, seq: i as u64 }, kind: kind.clone() };
                let back = Event::parse(&e.to_json()).unwrap_or_else(|err| {
                    panic!("{err} for {}", e.to_json());
                });
                assert_eq!(back, e, "roundtrip of {}", e.to_json());
            }
        }
    }

    #[test]
    fn control_events_are_flagged_and_render_as_minus_two() {
        let e = Event {
            clock: LogicalClock { shard: CONTROL_SHARD, seq: 0 },
            kind: EventKind::CheckpointWritten {
                checkpointed_shard: 0,
                cases_run: 20,
                journal_bytes: 100,
            },
        };
        assert!(e.is_control());
        assert!(e.to_json().starts_with("{\"shard\":-2,"), "{}", e.to_json());
        let data = Event {
            clock: LogicalClock { shard: 1, seq: 0 },
            kind: EventKind::CaseRejected { base: 0, kept: false },
        };
        assert!(!data.is_control());
    }

    #[test]
    fn service_events_are_control_and_render_as_minus_three() {
        let e = Event {
            clock: LogicalClock { shard: SERVICE_SHARD, seq: 5 },
            kind: EventKind::LeaseAcquired {
                campaign: "c-0002".into(),
                lease_shard: 0,
                worker: "w-3".into(),
                ttl_millis: 1000,
            },
        };
        assert!(e.is_control(), "service events are excluded from determinism");
        assert!(e.to_json().starts_with("{\"shard\":-3,"), "{}", e.to_json());
        assert_eq!(Event::parse(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn merge_shard_renders_as_minus_one() {
        let e = Event {
            clock: LogicalClock { shard: MERGE_SHARD, seq: 0 },
            kind: EventKind::BugDeduped {
                engine: "V8".into(),
                key: "V8 / None / Crash".into(),
                cross_shard: true,
            },
        };
        assert!(e.to_json().starts_with("{\"shard\":-1,"), "{}", e.to_json());
    }
}
