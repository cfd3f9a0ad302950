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
//!
//! Each event kind is declared once, in the `event_kinds!` table below:
//! its variant, its wire tag and its fields in wire order. The table
//! generates the enum, [`EventKind::type_str`], the field rendering, the
//! parser behind [`Event::parse`] and [`Event::without_wall_clock`], so an
//! event's wire form is written in exactly one place, on the shared
//! [`Field`] codec.

use std::fmt::Write as _;

use crate::json::{Field, Object, Text};

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

/// A stage travels by its label.
impl Field for Stage {
    fn write(&self, out: &mut String) {
        out.push('"');
        out.push_str(self.as_str());
        out.push('"');
    }
    fn read(v: Text<'_>) -> Result<Self, String> {
        let label = String::read(v)?;
        Stage::parse_label(&label).ok_or_else(|| format!("is an unknown stage {label:?}"))
    }
}

/// Declares [`EventKind`] from one table: each entry is a variant, its
/// wire tag and its documented fields, in the order they render. Adding an
/// event is adding an entry; every field type must implement the shared
/// [`Field`] codec, where `Option<u64>` is the wall-clock field type.
macro_rules! event_kinds {
    (
        $(#[$meta:meta])*
        pub enum EventKind {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident = $tag:literal {
                    $( $(#[$field_meta:meta])* $field:ident: $ty:ty, )+
                },
            )+
        }
    ) => {
        $(#[$meta])*
        pub enum EventKind {
            $(
                $(#[$variant_meta])*
                $variant { $( $(#[$field_meta])* $field: $ty, )+ },
            )+
        }

        impl EventKind {
            /// Stable snake-case type tag (the JSONL `"type"` field).
            pub fn type_str(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $tag, )+
                }
            }

            /// Appends every field as a member, in table order.
            fn render_fields(&self, out: &mut String) {
                match self {
                    $( EventKind::$variant { $($field),+ } => {
                        $(
                            let key = concat!("\"", stringify!($field), "\":");
                            $field.render(key, out);
                        )+
                    } )+
                }
            }

            /// Reads the fields of the kind tagged `tag` from the members `v`.
            fn parse_fields(tag: &str, v: &Object<'_>) -> Result<EventKind, String> {
                Ok(match tag {
                    $( $tag => EventKind::$variant {
                        $( $field: <$ty as Field>::parse(v, stringify!($field))?, )+
                    }, )+
                    other => return Err(format!("unknown event type {other:?}")),
                })
            }

            /// Clears every wall-clock field.
            fn clear_wall_clock(&mut self) {
                match self {
                    $( EventKind::$variant { $($field),+ } => {
                        $( $field.clear_wall_clock(); )+
                    } )+
                }
            }
        }
    };
}

event_kinds! {
    /// What happened (the payload of an [`Event`]).
    ///
    /// Engine names, deviation kinds, and bug keys travel as plain strings so
    /// this crate stays dependency-free and the JSONL output is self-contained.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EventKind {
        /// A shard began executing its slice of the case budget.
        ShardStarted = "shard_started" {
            /// The shard's derived campaign seed.
            seed: u64,
            /// The shard's share of `max_cases`.
            case_budget: u64,
        },
        /// A shard finished.
        ShardFinished = "shard_finished" {
            /// Cases the shard executed.
            cases_run: u64,
            /// Unique bugs the shard reported.
            bugs_reported: u64,
            /// Wall-clock shard duration (excluded from determinism
            /// comparisons).
            wall_nanos: Option<u64>,
        },
        /// A test case entered the execution queue.
        CaseGenerated = "case_generated" {
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
        CaseRejected = "case_rejected" {
            /// Generation counter of the rejected source.
            base: u64,
            /// `true` when the invalid program was kept as a parser test
            /// (§3.2 keeps 20%).
            kept: bool,
        },
        /// One case ran across the testbed matrix and was voted on.
        DifferentialRun = "differential_run" {
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
        ExecutionDeduped = "execution_deduped" {
            /// The case.
            case_id: u64,
            /// Classes, one per representative (= physical executions).
            classes: u64,
            /// Executions avoided (logical runs − physical executions).
            saved: u64,
        },
        /// One engine deviated from the majority on one case.
        Deviation = "deviation" {
            /// The case.
            case_id: u64,
            /// Deviating engine.
            engine: String,
            /// Deviation class label.
            kind: String,
        },
        /// The identical-bug filter discarded an observation as a duplicate.
        BugDeduped = "bug_deduped" {
            /// Engine layer of the duplicate key.
            engine: String,
            /// Full `engine / api / behavior` key.
            key: String,
            /// `true` when the duplicate was found while merging shard
            /// reports (the bug was first reported by an earlier shard).
            cross_shard: bool,
        },
        /// A harness-level fault was observed on one testbed run (contained
        /// panic, self-reported wedge, transient-retry exhaustion, or
        /// output-cap truncation). Distinct from [`EventKind::Deviation`]:
        /// faults describe *testbed* misbehaviour, deviations describe voting
        /// outcomes.
        FaultInjected = "fault_injected" {
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
        RunRetried = "run_retried" {
            /// The case.
            case_id: u64,
            /// Label of the retried testbed.
            testbed: String,
            /// Number of extra attempts the run needed.
            retries: u64,
        },
        /// The circuit breaker sidelined a testbed after consecutive hard
        /// faults; it casts no further votes in this shard.
        TestbedQuarantined = "testbed_quarantined" {
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
        QuorumDegraded = "quorum_degraded" {
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
        TestbedReinstated = "testbed_reinstated" {
            /// The case that served as the successful probe.
            case_id: u64,
            /// Label of the reinstated testbed.
            testbed: String,
            /// Cases the testbed sat out in quarantine before this probe.
            skipped: u64,
        },
        /// One shard's result was durably appended to the checkpoint journal
        /// (control-plane; stamped with [`CONTROL_SHARD`]).
        CheckpointWritten = "checkpoint_written" {
            /// Index of the checkpointed shard.
            checkpointed_shard: u64,
            /// Cases that shard executed.
            cases_run: u64,
            /// Journal size in bytes after the append (0 when unknown).
            journal_bytes: u64,
        },
        /// A campaign was resumed from a checkpoint journal (control-plane).
        CampaignResumed = "campaign_resumed" {
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
        CampaignInterrupted = "campaign_interrupted" {
            /// Shards fully completed (and journaled, when checkpointing).
            shards_completed: u64,
            /// Total shards in the plan.
            shards_total: u64,
            /// Why the campaign stopped (`"cancelled"` / `"deadline"`).
            reason: String,
        },
        /// A worker acquired a lease on one shard of a supervised campaign
        /// (service-plane; stamped with [`SERVICE_SHARD`]).
        LeaseAcquired = "lease_acquired" {
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
        LeaseRenewed = "lease_renewed" {
            /// The leased campaign's id.
            campaign: String,
            /// The leased shard's index.
            lease_shard: u64,
            /// The holding worker's label.
            worker: String,
        },
        /// A worker completed its shard and released the lease (service-plane).
        LeaseReleased = "lease_released" {
            /// The leased campaign's id.
            campaign: String,
            /// The released shard's index.
            lease_shard: u64,
            /// The releasing worker's label.
            worker: String,
        },
        /// A lease outlived its TTL without renewal — the holder is wedged or
        /// dead (service-plane).
        LeaseExpired = "lease_expired" {
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
        LeaseReclaimed = "lease_reclaimed" {
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
        CampaignAdmitted = "campaign_admitted" {
            /// The admitted campaign's id.
            campaign: String,
            /// The submitting tenant.
            tenant: String,
            /// Shards in the campaign's plan.
            shards: u64,
        },
        /// Admission control rejected a submission — tenant over quota, queue
        /// full, or the daemon is draining (service-plane).
        CampaignRejected = "campaign_rejected" {
            /// The rejected tenant.
            tenant: String,
            /// Rejection class (`"quota"` / `"queue_full"` / `"draining"`).
            reason: String,
            /// Suggested client backoff before resubmitting, in milliseconds.
            retry_after_millis: u64,
        },
        /// A supervised campaign reached a terminal state (service-plane).
        CampaignFinished = "campaign_finished" {
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
        DrainStarted = "drain_started" {
            /// Campaigns still active when the drain began.
            active_campaigns: u64,
        },
        /// The fleet supervisor spawned a jailed worker process for a pool
        /// slot (service-plane).
        WorkerSpawned = "worker_spawned" {
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
        WorkerDied = "worker_died" {
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
        ShardPoisoned = "shard_poisoned" {
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
        PoolDegraded = "pool_degraded" {
            /// Pool width before degradation.
            from_workers: u64,
            /// Pool width after degradation.
            to_workers: u64,
            /// Consecutive signal deaths that tripped the breaker.
            consecutive_deaths: u64,
        },
        /// Aggregated per-stage counters for one shard (emitted at shard end).
        StageTiming = "stage_timing" {
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
        let mut out = String::with_capacity(96);
        self.write(&mut out);
        out
    }

    /// Renders the event as JSON **without** wall-clock fields — the form
    /// compared in determinism tests (logical content only).
    pub fn to_json_deterministic(&self) -> String {
        self.without_wall_clock().to_json()
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
        e.kind.clear_wall_clock();
        e
    }

    /// Parses one JSONL line into an [`Event`].
    pub fn parse(line: &str) -> Result<Event, String> {
        crate::json::read(line)
    }
}

/// An event as a JSON value: its [`Event::to_json`] rendering, read back by
/// [`Event::parse`] and when a journalled shard's stream is replayed on
/// resume. Reading accepts both wall-clock and deterministic renderings.
impl Field for Event {
    fn write(&self, out: &mut String) {
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
        self.kind.render_fields(out);
        out.push('}');
    }
    fn read(v: Text<'_>) -> Result<Self, String> {
        // Any other value reads as an object without members.
        let v = v.members().unwrap_or_default();
        let shard = v.get("shard").and_then(Text::as_i128).ok_or("field 'shard' is no integer")?;
        let shard = match shard {
            -1 => MERGE_SHARD,
            -2 => CONTROL_SHARD,
            -3 => SERVICE_SHARD,
            s => u64::try_from(s).map_err(|_| format!("shard {s} out of range"))?,
        };
        let clock = LogicalClock { shard, seq: u64::parse(&v, "seq")? };
        let kind = EventKind::parse_fields(&String::parse(&v, "type")?, &v)?;
        Ok(Event { clock, kind })
    }
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
        assert_eq!(crate::json::escape_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    /// Every kind, with the exact line `to_json` renders for it at the
    /// pinned clock (the shard cycles through the real and pseudo-shards).
    /// Journals and JSONL files on disk hold these bytes, so the renderer
    /// must reproduce them exactly, not merely parse back.
    #[test]
    fn every_event_kind_roundtrips_through_json() {
        let shards = [0, 3, MERGE_SHARD, CONTROL_SHARD, SERVICE_SHARD];
        let kinds = vec![
            (
                EventKind::ShardStarted { seed: u64::MAX - 7, case_budget: 20 },
                r#"{"shard":0,"seq":0,"type":"shard_started","seed":18446744073709551608,"case_budget":20}"#,
            ),
            (
                EventKind::ShardFinished { cases_run: 20, bugs_reported: 3, wall_nanos: Some(99) },
                r#"{"shard":3,"seq":1,"type":"shard_finished","cases_run":20,"bugs_reported":3,"wall_nanos":99}"#,
            ),
            (
                EventKind::ShardFinished { cases_run: 20, bugs_reported: 3, wall_nanos: None },
                r#"{"shard":-1,"seq":2,"type":"shard_finished","cases_run":20,"bugs_reported":3}"#,
            ),
            (
                EventKind::CaseGenerated {
                    case_id: 1,
                    base: 0,
                    origin: "program-gen".into(),
                    mutant: false,
                },
                r#"{"shard":-2,"seq":3,"type":"case_generated","case_id":1,"base":0,"origin":"program-gen","mutant":false}"#,
            ),
            (
                EventKind::CaseRejected { base: 4, kept: true },
                r#"{"shard":-3,"seq":4,"type":"case_rejected","base":4,"kept":true}"#,
            ),
            (
                EventKind::DifferentialRun { case_id: 2, testbeds: 12, outcome: "pass".into() },
                r#"{"shard":0,"seq":5,"type":"differential_run","case_id":2,"testbeds":12,"outcome":"pass"}"#,
            ),
            (
                EventKind::ExecutionDeduped { case_id: 2, classes: 3, saved: 7 },
                r#"{"shard":3,"seq":6,"type":"execution_deduped","case_id":2,"classes":3,"saved":7}"#,
            ),
            (
                EventKind::Deviation { case_id: 2, engine: "JSC".into(), kind: "Crash".into() },
                r#"{"shard":-1,"seq":7,"type":"deviation","case_id":2,"engine":"JSC","kind":"Crash"}"#,
            ),
            (
                EventKind::BugDeduped {
                    engine: "V8".into(),
                    key: "V8 / eval \"x\" / Crash".into(),
                    cross_shard: true,
                },
                r#"{"shard":-2,"seq":8,"type":"bug_deduped","engine":"V8","key":"V8 / eval \"x\" / Crash","cross_shard":true}"#,
            ),
            (
                EventKind::FaultInjected {
                    case_id: 3,
                    testbed: "V8 v8 [chaos]".into(),
                    kind: "hang".into(),
                },
                r#"{"shard":-3,"seq":9,"type":"fault_injected","case_id":3,"testbed":"V8 v8 [chaos]","kind":"hang"}"#,
            ),
            (
                EventKind::RunRetried { case_id: 3, testbed: "V8 v8".into(), retries: 2 },
                r#"{"shard":0,"seq":10,"type":"run_retried","case_id":3,"testbed":"V8 v8","retries":2}"#,
            ),
            (
                EventKind::TestbedQuarantined {
                    case_id: 5,
                    testbed: "V8 v8".into(),
                    hard_faults: 2,
                },
                r#"{"shard":3,"seq":11,"type":"testbed_quarantined","case_id":5,"testbed":"V8 v8","hard_faults":2}"#,
            ),
            (
                EventKind::QuorumDegraded {
                    case_id: 6,
                    strict: true,
                    healthy: 4,
                    total: 6,
                    voted: false,
                },
                r#"{"shard":-1,"seq":12,"type":"quorum_degraded","case_id":6,"strict":true,"healthy":4,"total":6,"voted":false}"#,
            ),
            (
                EventKind::TestbedReinstated { case_id: 9, testbed: "V8 v8".into(), skipped: 7 },
                r#"{"shard":-2,"seq":13,"type":"testbed_reinstated","case_id":9,"testbed":"V8 v8","skipped":7}"#,
            ),
            (
                EventKind::CheckpointWritten {
                    checkpointed_shard: 1,
                    cases_run: 20,
                    journal_bytes: 512,
                },
                r#"{"shard":-3,"seq":14,"type":"checkpoint_written","checkpointed_shard":1,"cases_run":20,"journal_bytes":512}"#,
            ),
            (
                EventKind::CampaignResumed {
                    shards_salvaged: 2,
                    shards_total: 3,
                    dropped_bytes: 17,
                },
                r#"{"shard":0,"seq":15,"type":"campaign_resumed","shards_salvaged":2,"shards_total":3,"dropped_bytes":17}"#,
            ),
            (
                EventKind::CampaignInterrupted {
                    shards_completed: 1,
                    shards_total: 3,
                    reason: "deadline".into(),
                },
                r#"{"shard":3,"seq":16,"type":"campaign_interrupted","shards_completed":1,"shards_total":3,"reason":"deadline"}"#,
            ),
            (
                EventKind::LeaseAcquired {
                    campaign: "c-0001".into(),
                    lease_shard: 2,
                    worker: "worker-1".into(),
                    ttl_millis: 500,
                },
                r#"{"shard":-1,"seq":17,"type":"lease_acquired","campaign":"c-0001","lease_shard":2,"worker":"worker-1","ttl_millis":500}"#,
            ),
            (
                EventKind::LeaseRenewed {
                    campaign: "c-0001".into(),
                    lease_shard: 2,
                    worker: "worker-1".into(),
                },
                r#"{"shard":-2,"seq":18,"type":"lease_renewed","campaign":"c-0001","lease_shard":2,"worker":"worker-1"}"#,
            ),
            (
                EventKind::LeaseReleased {
                    campaign: "c-0001".into(),
                    lease_shard: 2,
                    worker: "worker-1".into(),
                },
                r#"{"shard":-3,"seq":19,"type":"lease_released","campaign":"c-0001","lease_shard":2,"worker":"worker-1"}"#,
            ),
            (
                EventKind::LeaseExpired {
                    campaign: "c-0001".into(),
                    lease_shard: 2,
                    worker: "worker-1".into(),
                },
                r#"{"shard":0,"seq":20,"type":"lease_expired","campaign":"c-0001","lease_shard":2,"worker":"worker-1"}"#,
            ),
            (
                EventKind::LeaseReclaimed {
                    campaign: "c-0001".into(),
                    lease_shard: 2,
                    worker: "worker-1".into(),
                    reclaims: 3,
                },
                r#"{"shard":3,"seq":21,"type":"lease_reclaimed","campaign":"c-0001","lease_shard":2,"worker":"worker-1","reclaims":3}"#,
            ),
            (
                EventKind::CampaignAdmitted {
                    campaign: "c-0001".into(),
                    tenant: "tenant-a".into(),
                    shards: 4,
                },
                r#"{"shard":-1,"seq":22,"type":"campaign_admitted","campaign":"c-0001","tenant":"tenant-a","shards":4}"#,
            ),
            (
                EventKind::CampaignRejected {
                    tenant: "tenant-b".into(),
                    reason: "queue_full".into(),
                    retry_after_millis: 250,
                },
                r#"{"shard":-2,"seq":23,"type":"campaign_rejected","tenant":"tenant-b","reason":"queue_full","retry_after_millis":250}"#,
            ),
            (
                EventKind::CampaignFinished {
                    campaign: "c-0001".into(),
                    outcome: "completed".into(),
                    shards_run: 4,
                },
                r#"{"shard":-3,"seq":24,"type":"campaign_finished","campaign":"c-0001","outcome":"completed","shards_run":4}"#,
            ),
            (
                EventKind::DrainStarted { active_campaigns: 2 },
                r#"{"shard":0,"seq":25,"type":"drain_started","active_campaigns":2}"#,
            ),
            (
                EventKind::WorkerSpawned {
                    campaign: "c-0001".into(),
                    worker: "fleet-0".into(),
                    lease_shard: 1,
                    pid: 4242,
                },
                r#"{"shard":3,"seq":26,"type":"worker_spawned","campaign":"c-0001","worker":"fleet-0","lease_shard":1,"pid":4242}"#,
            ),
            (
                EventKind::WorkerDied {
                    campaign: "c-0001".into(),
                    worker: "fleet-0".into(),
                    lease_shard: 1,
                    signal: 9,
                },
                r#"{"shard":-1,"seq":27,"type":"worker_died","campaign":"c-0001","worker":"fleet-0","lease_shard":1,"signal":9}"#,
            ),
            (
                EventKind::ShardPoisoned {
                    campaign: "c-0001".into(),
                    lease_shard: 1,
                    deaths: 3,
                    poison_case: 7,
                    signal: 6,
                },
                r#"{"shard":-2,"seq":28,"type":"shard_poisoned","campaign":"c-0001","lease_shard":1,"deaths":3,"poison_case":7,"signal":6}"#,
            ),
            (
                EventKind::PoolDegraded { from_workers: 4, to_workers: 2, consecutive_deaths: 6 },
                r#"{"shard":-3,"seq":29,"type":"pool_degraded","from_workers":4,"to_workers":2,"consecutive_deaths":6}"#,
            ),
            (
                EventKind::StageTiming {
                    stage: Stage::Reduction,
                    invocations: 1,
                    items: 2,
                    logical_cost: 3,
                    wall_nanos: Some(4),
                },
                r#"{"shard":0,"seq":30,"type":"stage_timing","stage":"reduction","invocations":1,"items":2,"logical_cost":3,"wall_nanos":4}"#,
            ),
        ];
        for (i, (kind, line)) in kinds.into_iter().enumerate() {
            let pinned =
                Event { clock: LogicalClock { shard: shards[i % 5], seq: i as u64 }, kind };
            assert_eq!(pinned.to_json(), line, "bytes of {:?}", pinned.kind);
            for shard in shards {
                let e = Event { clock: LogicalClock { shard, seq: i as u64 }, ..pinned.clone() };
                let back = Event::parse(&e.to_json()).unwrap_or_else(|err| {
                    panic!("{err} for {}", e.to_json());
                });
                assert_eq!(back, e, "roundtrip of {}", e.to_json());
            }
        }
        // The deterministic form drops exactly the wall-clock fields.
        for (kind, line) in [
            (
                EventKind::ShardFinished { cases_run: 20, bugs_reported: 3, wall_nanos: Some(99) },
                r#"{"shard":1,"seq":2,"type":"shard_finished","cases_run":20,"bugs_reported":3}"#,
            ),
            (
                EventKind::StageTiming {
                    stage: Stage::Reduction,
                    invocations: 1,
                    items: 2,
                    logical_cost: 3,
                    wall_nanos: Some(4),
                },
                r#"{"shard":1,"seq":2,"type":"stage_timing","stage":"reduction","invocations":1,"items":2,"logical_cost":3}"#,
            ),
        ] {
            let e = Event { clock: LogicalClock { shard: 1, seq: 2 }, kind };
            assert_eq!(e.to_json_deterministic(), line);
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
