//! The shard runtime: one campaign's shard state, shared by every driver.
//!
//! A campaign runs as a plan of shards (see [`plan_shards`]).
//! [`CampaignSession`](crate::session::CampaignSession) drives the plan with
//! a scoped worker loop, and the `comfort-service` daemon drives it with
//! leased pool workers. Both hand every finished shard to one
//! [`ShardRuntime`], which owns what makes the report independent of the
//! driver:
//!
//! * the result slots and the **ordered flush frontier**: a shard's events
//!   reach the campaign sink once every earlier shard's have, so the sink
//!   sees logical `(shard, seq)` order at any width, while shard 0's events
//!   still arrive as soon as shard 0 commits;
//! * the **write-ahead journal**: [`ShardRuntime::check`] loads and
//!   validates an existing journal without touching any file, and
//!   [`ShardRuntime::start`] replays its salvaged shards exactly as if they
//!   had just run, then reopens it for append (or creates a fresh one);
//! * the control events `CampaignResumed`, `CheckpointWritten` and
//!   `CampaignInterrupted`, stamped with the [`CONTROL_SHARD`] pseudo-shard
//!   and excluded from determinism comparisons (`Event::is_control`);
//! * the shard **commit** (journal record, result slot, progress row,
//!   flush) and the **finish** (merge in shard order, interruption flag,
//!   resume provenance).
//!
//! The driver decides only which worker runs which shard, and when the
//! campaign is over.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use comfort_telemetry::{Event, EventKind, ProgressHandle, Recorder, SinkHandle, CONTROL_SHARD};

use crate::campaign::{CampaignConfig, CampaignReport};
use crate::checkpoint::{
    config_fingerprint, CampaignCheckpoint, CheckpointError, CheckpointJournal, RecoveryReport,
    ResumeInfo, ShardRecord,
};
use crate::executor::{merge_shard_reports_with_sink, plan_shards, ShardSpec};
use crate::resilience::CancelToken;

/// A journal that passed [`ShardRuntime::check`], waiting to be replayed
/// by [`ShardRuntime::start`].
pub struct Salvage {
    path: PathBuf,
    checkpoint: CampaignCheckpoint,
    recovery: RecoveryReport,
}

impl Salvage {
    /// The journal's intact records (a supervisor adopts its leases).
    pub fn checkpoint(&self) -> &CampaignCheckpoint {
        &self.checkpoint
    }
}

/// Where a resumed campaign picked up.
struct Resumed {
    from: String,
    salvaged: Vec<usize>,
    dropped_tail_bytes: u64,
}

/// Committed shards' events, flushed strictly in shard order.
struct Frontier {
    /// Next shard to flush.
    next: usize,
    /// Each committed shard's events until every earlier shard has flushed.
    waiting: Vec<Option<Vec<Event>>>,
}

/// One campaign's shard state. See the [module docs](self).
pub struct ShardRuntime {
    plan: Vec<ShardSpec>,
    sink: SinkHandle,
    cancel: CancelToken,
    progress: ProgressHandle,
    slots: Vec<Mutex<Option<CampaignReport>>>,
    frontier: Mutex<Frontier>,
    journal: Mutex<Option<Arc<CheckpointJournal>>>,
    /// The control recorder and the `CheckpointWritten` events it emitted.
    control: Mutex<(Recorder, u64)>,
    resumed: Option<Resumed>,
}

impl ShardRuntime {
    /// Checks the configured journal, if one exists on disk: it must have
    /// been written under this config's fingerprint and shard plan. Reads
    /// only, so a rejected campaign leaves every file as it was. `Ok(None)`
    /// means there is nothing to resume.
    pub fn check(config: &CampaignConfig) -> Result<Option<Salvage>, CheckpointError> {
        let Some(path) = config.checkpoint.as_ref().filter(|path| path.exists()) else {
            return Ok(None);
        };
        let (checkpoint, recovery) = CampaignCheckpoint::load(path)?;
        let expected = config_fingerprint(config);
        if checkpoint.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                expected,
                found: checkpoint.fingerprint,
            });
        }
        let plan = plan_shards(config);
        if checkpoint.shards_total != plan.len() as u64 {
            return Err(CheckpointError::PlanMismatch(format!(
                "journal plans {} shards, config plans {}",
                checkpoint.shards_total,
                plan.len()
            )));
        }
        for record in &checkpoint.shards {
            let spec = plan.get(record.index as usize).ok_or_else(|| {
                CheckpointError::PlanMismatch(format!(
                    "record for out-of-plan shard {}",
                    record.index
                ))
            })?;
            if record.seed != spec.seed || record.cases != spec.cases as u64 {
                return Err(CheckpointError::PlanMismatch(format!(
                    "shard {}: journal has (seed {}, cases {}), plan derives (seed {}, cases {})",
                    record.index, record.seed, record.cases, spec.seed, spec.cases
                )));
            }
        }
        Ok(Some(Salvage { path: path.clone(), checkpoint, recovery }))
    }

    /// Starts the campaign: arms its deadline, resets `progress` to the
    /// plan, replays `salvage` (see [`check`](Self::check)) and opens the
    /// journal. Journaling is best-effort: a journal that cannot be opened
    /// degrades to an unjournaled run rather than failing the campaign.
    ///
    /// This is the only place a deadline is armed. A shard run arms none,
    /// so a fleet worker child runs its whole shard; its supervisor, which
    /// started the runtime, kills it when the deadline passes.
    pub fn start(
        config: &CampaignConfig,
        progress: ProgressHandle,
        salvage: Option<Salvage>,
    ) -> ShardRuntime {
        // Armed from this run's start, replacing an earlier run's deadline
        // that may have fired; every shard config clone shares the token,
        // so per-case checks all see the same instant.
        config.cancel.set_deadline(config.deadline.map(|deadline| Instant::now() + deadline));
        let plan = plan_shards(config);
        progress.reset(&plan.iter().map(|s| s.cases as u64).collect::<Vec<u64>>());
        let mut runtime = ShardRuntime {
            slots: plan.iter().map(|_| Mutex::new(None)).collect(),
            frontier: Mutex::new(Frontier {
                next: 0,
                waiting: plan.iter().map(|_| None).collect(),
            }),
            plan,
            sink: config.sink.clone(),
            cancel: config.cancel.clone(),
            progress,
            journal: Mutex::new(None),
            control: Mutex::new((Recorder::new(config.sink.clone(), CONTROL_SHARD), 0)),
            resumed: None,
        };
        let journal = match (salvage, &config.checkpoint) {
            (Some(salvage), _) => runtime.replay(salvage),
            (None, Some(path)) => CheckpointJournal::create(
                path,
                config_fingerprint(config),
                runtime.plan.len() as u64,
            )
            .ok(),
            (None, None) => None,
        };
        runtime.journal = Mutex::new(journal.map(Arc::new));
        runtime
    }

    /// Replays salvaged shards into their slots, the progress handle and
    /// the flush frontier, then reopens the journal past them (truncating
    /// any torn tail first).
    fn replay(&mut self, salvage: Salvage) -> Option<CheckpointJournal> {
        let Salvage { path, checkpoint, recovery } = salvage;
        self.emit_control(EventKind::CampaignResumed {
            shards_salvaged: checkpoint.shards.len() as u64,
            shards_total: self.plan.len() as u64,
            dropped_bytes: recovery.dropped_tail_bytes,
        });
        let mut salvaged = Vec::with_capacity(checkpoint.shards.len());
        for record in checkpoint.shards {
            salvaged.push(record.index as usize);
            self.settle(record);
        }
        self.resumed = Some(Resumed {
            from: path.display().to_string(),
            salvaged,
            dropped_tail_bytes: recovery.dropped_tail_bytes,
        });
        CheckpointJournal::open_append(&path, &recovery).ok()
    }

    /// The shard plan.
    pub fn plan(&self) -> &[ShardSpec] {
        &self.plan
    }

    /// The live progress handle (salvaged shards count as finished).
    pub fn progress(&self) -> &ProgressHandle {
        &self.progress
    }

    /// The journal, until [`release`](Self::release).
    pub fn journal(&self) -> Option<Arc<CheckpointJournal>> {
        self.journal.lock().expect("journal slot poisoned").clone()
    }

    /// `true` when the campaign picked up an existing journal.
    pub fn resumed(&self) -> bool {
        self.resumed.is_some()
    }

    /// The shards salvaged from the journal, in shard order.
    pub fn salvaged(&self) -> &[usize] {
        self.resumed.as_ref().map_or(&[], |resumed| &resumed.salvaged)
    }

    /// Fills shard `index`'s result slot ahead of its commit, for a driver
    /// that must have the slot filled before other threads can see the
    /// shard as done.
    pub fn stage(&self, index: usize, report: CampaignReport) {
        *self.slots[index].lock().expect("shard slot poisoned") = Some(report);
    }

    /// Commits a finished shard: appends its journal record, unless
    /// `journalled` says a worker process already did, then fills its
    /// result slot, sets its progress row to the record's counts and
    /// flushes every event stream the frontier releases.
    pub fn commit(&self, record: ShardRecord, journalled: bool) {
        let journal_bytes = self.journal().and_then(|journal| {
            if journalled {
                Some(std::fs::metadata(journal.path()).map_or(0, |m| m.len()))
            } else {
                journal.append_shard(&record).ok()
            }
        });
        if let Some(journal_bytes) = journal_bytes {
            self.emit_control(EventKind::CheckpointWritten {
                checkpointed_shard: record.index,
                cases_run: record.report.cases_run,
                journal_bytes,
            });
        }
        self.settle(record);
    }

    /// Emits a control event, counting `CheckpointWritten` events under the
    /// recorder's lock so the count always equals the stream's.
    fn emit_control(&self, kind: EventKind) {
        let mut control = self.control.lock().expect("control recorder poisoned");
        control.1 += u64::from(matches!(kind, EventKind::CheckpointWritten { .. }));
        control.0.emit(kind);
    }

    /// Fills the record's slot, sets its progress row to the record's
    /// counts and advances the flush frontier.
    fn settle(&self, record: ShardRecord) {
        let index = record.index as usize;
        let bugs = record.report.bugs.len() as u64;
        self.progress.shard_committed(index, record.report.cases_run, bugs);
        self.stage(index, record.report);
        let mut guard = self.frontier.lock().expect("flush frontier poisoned");
        let frontier = &mut *guard;
        frontier.waiting[index] = Some(record.events);
        while let Some(events) = frontier.waiting.get_mut(frontier.next).and_then(Option::take) {
            for event in &events {
                self.sink.emit(event);
            }
            frontier.next += 1;
        }
    }

    /// Merges every committed shard in shard order into the campaign
    /// report. A campaign that stopped short merges what it committed and
    /// is flagged `interrupted`. Returns the report and the outcome:
    /// `"completed"`, or why it stopped, `"deadline"` or `"cancelled"`.
    pub fn finish(&self) -> (CampaignReport, &'static str) {
        let reports: Vec<CampaignReport> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("shard slot poisoned").take())
            .collect();
        let mut merged = merge_shard_reports_with_sink(&reports, &self.sink);
        let mut outcome = "completed";
        if reports.len() < self.plan.len() {
            outcome = if self.cancel.deadline_passed() { "deadline" } else { "cancelled" };
            merged.interrupted = true;
            self.emit_control(EventKind::CampaignInterrupted {
                shards_completed: reports.len() as u64,
                shards_total: self.plan.len() as u64,
                reason: outcome.to_string(),
            });
        }
        if let Some(resumed) = &self.resumed {
            merged.resume = Some(ResumeInfo {
                resumed_from: resumed.from.clone(),
                shards_salvaged: resumed.salvaged.len() as u64,
                shards_rerun: (self.plan.len() - resumed.salvaged.len()) as u64,
                shards_total: self.plan.len() as u64,
                dropped_tail_bytes: resumed.dropped_tail_bytes,
                checkpoints_written: self.control.lock().expect("control recorder poisoned").1,
            });
        }
        (merged, outcome)
    }

    /// Releases what only a running campaign needs: result slots, events
    /// waiting for the frontier, and the journal.
    pub fn release(&self) {
        for slot in &self.slots {
            slot.lock().expect("shard slot poisoned").take();
        }
        for waiting in &mut self.frontier.lock().expect("flush frontier poisoned").waiting {
            waiting.take();
        }
        // Closed outside its slot lock.
        let journal = self.journal.lock().expect("journal slot poisoned").take();
        drop(journal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_telemetry::{LogicalClock, MemorySink};

    /// Three one-case shards; nothing here runs a shard, so no LM is
    /// trained.
    fn config(seed: u64, sink: &MemorySink) -> CampaignConfig {
        CampaignConfig {
            seed,
            max_cases: 3,
            shard_cases: 1,
            sink: SinkHandle::new(sink.clone()),
            ..CampaignConfig::default()
        }
    }

    fn shard_events(shard: u64) -> Vec<Event> {
        (0..2)
            .map(|seq| Event {
                clock: LogicalClock { shard, seq },
                kind: EventKind::ShardStarted { seed: shard, case_budget: 1 },
            })
            .collect()
    }

    /// Shard `index`'s record: one case run and two events.
    fn record(runtime: &ShardRuntime, index: usize) -> ShardRecord {
        let spec = runtime.plan()[index];
        ShardRecord {
            index: index as u64,
            seed: spec.seed,
            cases: spec.cases as u64,
            report: CampaignReport { cases_run: 1, ..CampaignReport::default() },
            events: shard_events(index as u64),
        }
    }

    fn shards_seen(sink: &MemorySink) -> Vec<u64> {
        sink.events().iter().map(|e| e.clock.shard).filter(|&s| s != CONTROL_SHARD).collect()
    }

    #[test]
    fn the_frontier_flushes_in_shard_order() {
        let sink = MemorySink::new();
        let runtime = ShardRuntime::start(&config(1, &sink), ProgressHandle::new(), None);
        runtime.commit(record(&runtime, 2), false);
        runtime.commit(record(&runtime, 1), false);
        assert!(shards_seen(&sink).is_empty(), "shards 1 and 2 wait for shard 0");
        runtime.commit(record(&runtime, 0), false);
        assert_eq!(shards_seen(&sink), [0, 0, 1, 1, 2, 2]);
        let (merged, outcome) = runtime.finish();
        assert_eq!((merged.cases_run, merged.interrupted, outcome), (3, false, "completed"));
    }

    #[test]
    fn a_campaign_that_stops_short_is_flagged_interrupted() {
        let sink = MemorySink::new();
        let runtime = ShardRuntime::start(&config(1, &sink), ProgressHandle::new(), None);
        runtime.commit(record(&runtime, 0), false);
        let (merged, outcome) = runtime.finish();
        assert_eq!((merged.cases_run, merged.interrupted, outcome), (1, true, "cancelled"));
        assert!(sink.events().iter().any(|e| matches!(
            e.kind,
            EventKind::CampaignInterrupted { shards_completed: 1, shards_total: 3, .. }
        )));
    }

    #[test]
    fn a_committed_shard_counts_once_however_often_it_ran() {
        let sink = MemorySink::new();
        let progress = ProgressHandle::new();
        let runtime = ShardRuntime::start(&config(1, &sink), progress.clone(), None);
        // Two attempts at shard 0 each count its one case: a reclaimed
        // lease whose first holder kept running, say.
        for _ in 0..2 {
            progress.shard_started(0);
            progress.case_done(0);
            progress.shard_finished(0);
        }
        runtime.commit(record(&runtime, 0), false);
        let snap = progress.snapshot();
        assert_eq!((snap.cases_done, snap.shards_done), (1, 1));
        assert_eq!(snap.cases_done, snap.shards.iter().map(|s| s.cases_done).sum::<u64>());
    }

    #[test]
    fn the_check_reads_only_and_resume_replays_the_journal() {
        let dir = std::env::temp_dir().join(format!("comfort-runtime-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("runtime.ckpt");
        let sink = MemorySink::new();
        let mut first = config(1, &sink);
        first.checkpoint = Some(path.clone());
        let runtime = ShardRuntime::start(&first, ProgressHandle::new(), None);
        runtime.commit(record(&runtime, 0), false);
        drop(runtime);
        // A torn tail, which resuming truncates but checking must not.
        let mut bytes = std::fs::read(&path).expect("journal written");
        bytes.extend_from_slice(b"J1 torn");
        std::fs::write(&path, &bytes).expect("tear the journal");

        let mut other = config(2, &sink);
        other.checkpoint = Some(path.clone());
        assert!(matches!(
            ShardRuntime::check(&other),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        let salvage = ShardRuntime::check(&first).expect("same config").expect("a journal");
        assert_eq!(std::fs::read(&path).expect("journal kept"), bytes, "the check wrote");

        let resumed = MemorySink::new();
        first.sink = SinkHandle::new(resumed.clone());
        let runtime = ShardRuntime::start(&first, ProgressHandle::new(), Some(salvage));
        assert_eq!(runtime.salvaged(), [0]);
        assert_eq!(shards_seen(&resumed), [0, 0], "salvaged events replay at once");
        assert!(std::fs::read(&path).expect("journal kept").len() < bytes.len());
        runtime.commit(record(&runtime, 1), false);
        runtime.commit(record(&runtime, 2), false);
        let (merged, _) = runtime.finish();
        let info = merged.resume.expect("resume provenance");
        assert_eq!((info.shards_salvaged, info.shards_rerun, info.checkpoints_written), (1, 2, 2));
        assert_eq!(info.dropped_tail_bytes, 7);
        let _ = std::fs::remove_file(&path);
    }
}
