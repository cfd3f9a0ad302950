//! Per-stage counters and histograms, aggregated per campaign.
//!
//! [`CampaignMetrics`] embeds in the campaign report and merges across
//! shards **conservation-exactly**: every additive counter of a merged
//! metrics value equals the sum of the shard values (the cross-shard bug
//! dedup pass moves bugs from `bugs_reported` to `bugs_deduped`, preserving
//! their sum). The counters an event records are the count of those events
//! ([`CampaignMetrics::count`]), so they cannot disagree with the stream.
//! Wall-clock fields (`wall_nanos`) are measurement-only and excluded from
//! determinism comparisons via [`CampaignMetrics::without_wall_clock`].
//! Their journal records are declared here, and one `counters!` table
//! drives the counters' merge, journal members and JSONL summary members.

use crate::event::{EventKind, Stage};
use crate::json::{Field, OmitZero, Rule, Text};

/// A log₂-bucketed histogram of per-invocation logical cost.
///
/// Bucket `i` counts observations in `[2^i, 2^(i+1))` (bucket 0 also takes
/// zero); the last bucket is open-ended. Buckets are additive under merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostHistogram {
    /// Observation counts per power-of-two bucket.
    pub buckets: [u64; Self::BUCKETS],
}

impl CostHistogram {
    /// Number of buckets (costs ≥ 2³¹ land in the last).
    pub const BUCKETS: usize = 32;

    /// Records one observation.
    pub fn record(&mut self, cost: u64) {
        let bucket = (64 - cost.leading_zeros() as usize).min(Self::BUCKETS).saturating_sub(1);
        self.buckets[bucket] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds `other`'s buckets into `self`.
    pub fn merge_from(&mut self, other: &CostHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// A histogram travels as its bare bucket array (32 counts).
impl Field for CostHistogram {
    fn write(&self, out: &mut String) {
        self.buckets.write(out);
    }
    fn read(v: Text<'_>) -> Result<Self, String> {
        Field::read(v).map(|buckets| CostHistogram { buckets })
    }
}

/// Counters for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageMetrics {
    /// Times the stage ran.
    pub invocations: u64,
    /// Items the stage processed (stage-specific unit: programs, testbed
    /// runs, filter observations, …).
    pub items: u64,
    /// Deterministic cost units consumed.
    pub logical_cost: u64,
    /// Wall-clock nanoseconds spent (measurement-only; excluded from
    /// determinism comparisons).
    pub wall_nanos: u64,
    /// Distribution of per-invocation logical cost.
    pub cost_histogram: CostHistogram,
}

impl StageMetrics {
    /// Records one invocation.
    pub fn record(&mut self, items: u64, logical_cost: u64, wall_nanos: u64) {
        self.invocations += 1;
        self.items += items;
        self.logical_cost += logical_cost;
        self.wall_nanos += wall_nanos;
        self.cost_histogram.record(logical_cost);
    }

    /// Adds `other` into `self` (all fields are additive).
    pub fn merge_from(&mut self, other: &StageMetrics) {
        self.invocations += other.invocations;
        self.items += other.items;
        self.logical_cost += other.logical_cost;
        self.wall_nanos += other.wall_nanos;
        self.cost_histogram.merge_from(&other.cost_histogram);
    }
}

crate::json_record!(StageMetrics {
    invocations, items, logical_cost, wall_nanos, cost_histogram = "hist",
});

/// Aggregated campaign metrics: one [`StageMetrics`] per pipeline stage
/// plus campaign-level counters. Embedded in `CampaignReport`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignMetrics {
    /// Per-stage counters, indexed by [`Stage::index`].
    pub stages: [StageMetrics; Stage::ALL.len()],
    /// Cases enqueued for execution (base programs + mutants).
    pub cases_generated: u64,
    /// Generated sources rejected by the validity filter.
    pub cases_rejected: u64,
    /// Cases actually executed against the budget.
    pub cases_run: u64,
    /// Raw deviation observations before deduplication.
    pub deviations_observed: u64,
    /// Unique bugs reported (reconciles with the report's bug list).
    pub bugs_reported: u64,
    /// Observations discarded as duplicates (within-shard and, after a
    /// merge, cross-shard).
    pub bugs_deduped: u64,
    /// Harness-level faults observed on testbed runs (contained panics,
    /// hangs, transient-retry exhaustion, output truncation).
    pub faults_observed: u64,
    /// Testbed runs that needed at least one transient-fault retry.
    pub runs_retried: u64,
    /// Testbed runs skipped because the testbed was quarantined.
    pub runs_skipped: u64,
    /// Quarantine transitions (circuit breaker openings).
    pub testbeds_quarantined: u64,
    /// Quarantined testbeds reinstated by a successful half-open probe.
    pub testbeds_reinstated: u64,
    /// Mode-group votes taken (or skipped) below full membership.
    pub quorum_degraded: u64,
    /// Shards merged into this value (1 for an unmerged shard).
    pub shards: u64,
    /// Physical executions avoided by agreement classing: logical runs
    /// minus representatives executed, where a representative's run serves
    /// every peer that answered its hook queries alike.
    /// Execution-strategy observability only: excluded from determinism
    /// comparisons via [`CampaignMetrics::without_wall_clock`] because the
    /// same campaign produces identical reports with dedup on or off.
    pub executions_saved: u64,
    /// Equivalence classes formed on cases where classing saved at least one
    /// execution. Excluded from determinism comparisons like
    /// `executions_saved`.
    pub equivalence_classes: u64,
}

impl CampaignMetrics {
    /// Fresh metrics for a single shard.
    pub fn new() -> Self {
        CampaignMetrics { shards: 1, ..CampaignMetrics::default() }
    }

    /// The metrics of `stage`.
    pub fn stage(&self, stage: Stage) -> &StageMetrics {
        &self.stages[stage.index()]
    }

    /// Mutable access to the metrics of `stage`.
    pub fn stage_mut(&mut self, stage: Stage) -> &mut StageMetrics {
        &mut self.stages[stage.index()]
    }

    /// Adds `other` into `self`. Every counter is additive, so merged
    /// totals are exactly the sums of the inputs.
    pub fn merge_from(&mut self, other: &CampaignMetrics) {
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.merge_from(b);
        }
        self.merge_counters(other);
    }

    /// Counts one event into the counters it records: the campaign twin of
    /// the service's `MetricsSnapshot::count`. A shard and the shard merge
    /// call it on every event they emit, so these twelve counters move
    /// nowhere else. A cross-shard `bug_deduped` also takes its bug back
    /// from `bugs_reported`, conserving `bugs_reported + bugs_deduped`.
    ///
    /// No event carries the rest, so their sites set them: `runs_skipped`
    /// (a quarantined testbed's skipped run emits nothing), `bugs_reported`
    /// (a new bug lands in the report, not the stream), `shards` (set by
    /// [`new`](Self::new) and summed by [`merge_from`](Self::merge_from)),
    /// and the six stage records, whose wall time and cost histogram
    /// travel in no event (`stage_timing` reports a shard's totals).
    pub fn count(&mut self, kind: &EventKind) {
        match kind {
            EventKind::CaseGenerated { .. } => self.cases_generated += 1,
            EventKind::CaseRejected { kept, .. } => {
                self.cases_rejected += 1;
                // A kept invalid program runs as a parser test.
                self.cases_run += u64::from(*kept);
            }
            EventKind::DifferentialRun { .. } => self.cases_run += 1,
            EventKind::ExecutionDeduped { classes, saved, .. } => {
                self.executions_saved += saved;
                self.equivalence_classes += classes;
            }
            EventKind::Deviation { .. } => self.deviations_observed += 1,
            EventKind::BugDeduped { cross_shard, .. } => {
                if *cross_shard {
                    self.bugs_reported = self.bugs_reported.saturating_sub(1);
                }
                self.bugs_deduped += 1;
            }
            EventKind::FaultInjected { .. } => self.faults_observed += 1,
            EventKind::RunRetried { .. } => self.runs_retried += 1,
            EventKind::TestbedQuarantined { .. } => self.testbeds_quarantined += 1,
            EventKind::TestbedReinstated { .. } => self.testbeds_reinstated += 1,
            EventKind::QuorumDegraded { .. } => self.quorum_degraded += 1,
            _ => {}
        }
    }

    /// A copy with every wall-clock field zeroed — the form compared in
    /// determinism tests. Also zeroes the execution-dedup counters: they
    /// describe *how* the campaign was executed (how many physical runs the
    /// classing layer skipped), not *what* it observed, and must not perturb
    /// report checksums when dedup is toggled.
    pub fn without_wall_clock(&self) -> CampaignMetrics {
        let mut m = self.clone();
        for stage in &mut m.stages {
            stage.wall_nanos = 0;
        }
        m.executions_saved = 0;
        m.equivalence_classes = 0;
        m
    }

    /// Renders the per-stage table as JSON (embedded in JSONL summaries).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"stages\":{");
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            let s = self.stage(stage);
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"invocations\":{},\"items\":{},\"logical_cost\":{}}}",
                stage.as_str(),
                s.invocations,
                s.items,
                s.logical_cost
            );
        }
        out.push('}');
        self.write_counters(&mut out);
        out.push('}');
        out
    }
}

/// Declares the campaign counters once, in wire order, each with its
/// member rule: `merge_from` adds them, `to_json` writes them after its
/// stage summary, and the journal record is the stages followed by them.
macro_rules! counters {
    ($( $counter:ident $(=> $rule:ty)? ),+ $(,)?) => {
        impl CampaignMetrics {
            fn merge_counters(&mut self, other: &CampaignMetrics) {
                $( self.$counter += other.$counter; )+
            }

            fn write_counters(&self, out: &mut String) {
                $(
                    <crate::json_record!(@rule $($rule)?) as Rule<u64>>::render(
                        &self.$counter,
                        concat!("\"", stringify!($counter), "\":"),
                        out,
                    );
                )+
            }
        }

        crate::json_record!(CampaignMetrics { stages, $( $counter $(=> $rule)? ),+ });
    };
}

// The dedup counters are left out while zero, so reports of campaigns
// without execution classing, and determinism-stripped forms (where they
// are zeroed), keep their historical byte layout.
counters! {
    cases_generated, cases_rejected, cases_run, deviations_observed, bugs_reported, bugs_deduped,
    faults_observed, runs_retried, runs_skipped, testbeds_quarantined, testbeds_reinstated,
    quorum_degraded, shards, executions_saved => OmitZero, equivalence_classes => OmitZero,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = CostHistogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.count(), 5);
        h.record(u64::MAX); // clamped to last bucket
        assert_eq!(h.buckets[CostHistogram::BUCKETS - 1], 1);
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = CampaignMetrics::new();
        a.stage_mut(Stage::Generation).record(1, 100, 5);
        a.cases_generated = 4;
        a.bugs_reported = 2;
        let mut b = CampaignMetrics::new();
        b.stage_mut(Stage::Generation).record(2, 50, 7);
        b.cases_generated = 3;
        b.bugs_deduped = 1;

        let mut merged = a.clone();
        merged.merge_from(&b);
        assert_eq!(merged.stage(Stage::Generation).invocations, 2);
        assert_eq!(merged.stage(Stage::Generation).items, 3);
        assert_eq!(merged.stage(Stage::Generation).logical_cost, 150);
        assert_eq!(merged.stage(Stage::Generation).wall_nanos, 12);
        assert_eq!(merged.cases_generated, 7);
        assert_eq!(merged.bugs_reported, 2);
        assert_eq!(merged.bugs_deduped, 1);
        assert_eq!(merged.shards, 2);
    }

    #[test]
    fn count_moves_exactly_the_counters_an_event_records() {
        use EventKind::*;
        let s = String::new;
        let base = CampaignMetrics::new();
        // Each counted kind and the counters it moves on a fresh value.
        type Moves = fn(&mut CampaignMetrics);
        let counted: [(EventKind, Moves); 12] = [
            (CaseGenerated { case_id: 1, base: 0, origin: s(), mutant: true }, |m| {
                m.cases_generated = 1
            }),
            (CaseRejected { base: 0, kept: false }, |m| m.cases_rejected = 1),
            (CaseRejected { base: 0, kept: true }, |m| (m.cases_rejected, m.cases_run) = (1, 1)),
            (DifferentialRun { case_id: 1, testbeds: 10, outcome: s() }, |m| m.cases_run = 1),
            (ExecutionDeduped { case_id: 1, classes: 3, saved: 7 }, |m| {
                (m.executions_saved, m.equivalence_classes) = (7, 3)
            }),
            (Deviation { case_id: 1, engine: s(), kind: s() }, |m| m.deviations_observed = 1),
            (BugDeduped { engine: s(), key: s(), cross_shard: false }, |m| m.bugs_deduped = 1),
            (FaultInjected { case_id: 1, testbed: s(), kind: s() }, |m| m.faults_observed = 1),
            (RunRetried { case_id: 1, testbed: s(), retries: 2 }, |m| m.runs_retried = 1),
            (TestbedQuarantined { case_id: 1, testbed: s(), hard_faults: 3 }, |m| {
                m.testbeds_quarantined = 1
            }),
            (TestbedReinstated { case_id: 1, testbed: s(), skipped: 4 }, |m| {
                m.testbeds_reinstated = 1
            }),
            (
                QuorumDegraded { case_id: 1, strict: false, healthy: 2, total: 3, voted: true },
                |m| m.quorum_degraded = 1,
            ),
        ];
        for (kind, moves) in counted {
            let (mut m, mut expected) = (base.clone(), base.clone());
            m.count(&kind);
            moves(&mut expected);
            assert_eq!(m, expected, "{}", kind.type_str());
        }

        // Shard lifecycle, stage timings, control and service events
        // record no campaign counter.
        let stage = Stage::Filter;
        let uncounted = [
            ShardStarted { seed: 1, case_budget: 20 },
            ShardFinished { cases_run: 20, bugs_reported: 2, wall_nanos: Some(9) },
            StageTiming { stage, invocations: 1, items: 2, logical_cost: 3, wall_nanos: Some(4) },
            CheckpointWritten { checkpointed_shard: 0, cases_run: 20, journal_bytes: 9 },
            CampaignResumed { shards_salvaged: 1, shards_total: 3, dropped_bytes: 0 },
            CampaignInterrupted { shards_completed: 1, shards_total: 3, reason: s() },
            LeaseAcquired { campaign: s(), lease_shard: 0, worker: s(), ttl_millis: 9 },
            LeaseRenewed { campaign: s(), lease_shard: 0, worker: s() },
            LeaseReleased { campaign: s(), lease_shard: 0, worker: s() },
            LeaseExpired { campaign: s(), lease_shard: 0, worker: s() },
            LeaseReclaimed { campaign: s(), lease_shard: 0, worker: s(), reclaims: 1 },
            CampaignAdmitted { campaign: s(), tenant: s(), shards: 3 },
            CampaignRejected { tenant: s(), reason: s(), retry_after_millis: 5 },
            CampaignFinished { campaign: s(), outcome: s(), shards_run: 3 },
            DrainStarted { active_campaigns: 1 },
            WorkerSpawned { campaign: s(), worker: s(), lease_shard: 0, pid: 7 },
            WorkerDied { campaign: s(), worker: s(), lease_shard: 0, signal: 9 },
            ShardPoisoned { campaign: s(), lease_shard: 0, deaths: 3, poison_case: 4, signal: 9 },
            PoolDegraded { from_workers: 4, to_workers: 2, consecutive_deaths: 3 },
        ];
        for kind in uncounted {
            let mut m = base.clone();
            m.count(&kind);
            assert_eq!(m, base, "{}", kind.type_str());
        }

        // A cross-shard duplicate moves a reported bug to the deduped
        // count: their sum is conserved.
        let mut m = CampaignMetrics { bugs_reported: 3, bugs_deduped: 1, ..base.clone() };
        m.count(&BugDeduped { engine: s(), key: s(), cross_shard: true });
        assert_eq!((m.bugs_reported, m.bugs_deduped), (2, 2));
    }

    #[test]
    fn without_wall_clock_zeroes_only_wall_fields() {
        let mut m = CampaignMetrics::new();
        m.stage_mut(Stage::Reduction).record(1, 9, 1234);
        let stripped = m.without_wall_clock();
        assert_eq!(stripped.stage(Stage::Reduction).wall_nanos, 0);
        assert_eq!(stripped.stage(Stage::Reduction).logical_cost, 9);
    }

    #[test]
    fn json_rendering_parses() {
        let mut m = CampaignMetrics::new();
        m.stage_mut(Stage::Differential).record(10, 100, 0);
        m.cases_run = 10;
        let parsed = crate::json::parse(&m.to_json()).expect("valid json");
        assert_eq!(parsed.get("cases_run").and_then(|v| v.as_u64()), Some(10));
        let diff = parsed.get("stages").and_then(|s| s.get("differential")).expect("stage");
        assert_eq!(diff.get("invocations").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(diff.get("items").and_then(|v| v.as_u64()), Some(10));
    }
}
