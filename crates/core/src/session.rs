//! The one way to run a campaign.
//!
//! Build a [`CampaignConfig`] and call
//! [`CampaignSession::new(config).run()`](CampaignSession::run). The session
//! reads everything from its config: `threads` shard workers, the
//! `checkpoint` journal, the `cancel` token, the `deadline` and the telemetry
//! `sink`. It is resume-aware: with a checkpoint path configured it salvages
//! an existing journal and re-runs only the missing shards; without one it
//! runs fresh and always returns `Ok`. It drives the campaign's
//! [`ShardRuntime`] with a plain scoped worker loop; the `comfort-service`
//! daemon drives the same runtime with leased workers.
//!
//! The session is the campaign's one trained runner: it holds the
//! generator and testbed matrix (trained lazily, once) and runs every shard
//! through [`run_shard`](CampaignSession::run_shard), which yields the
//! shard's journal record. The scoped loop here, the daemon's pool threads
//! and its `--worker-once` children all run shards that way. Sweeping
//! thread counts with [`run_with_threads`](CampaignSession::run_with_threads)
//! — as perfbench does for its one-thread references and its timed runs —
//! trains the language model a single time and re-runs the identical
//! workload at each width. Reports are **bit-identical** in every
//! deterministic field at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use comfort_engines::Testbed;
use comfort_lm::Generator;
use comfort_telemetry::{MemorySink, ProgressHandle, SinkHandle};

use crate::campaign::{train, Campaign, CampaignConfig, CampaignReport};
use crate::checkpoint::{CheckpointError, ShardRecord};
use crate::executor::{plan_shards, resolve_threads, ShardSpec};
use crate::runtime::ShardRuntime;

/// A configured, reusable campaign run. See the [module docs](self).
///
/// ```no_run
/// use comfort_core::campaign::CampaignConfig;
/// use comfort_core::session::CampaignSession;
///
/// let config = CampaignConfig::builder()
///     .max_cases(240)
///     .shard_cases(40) // 6 shards
///     .threads(4)
///     .checkpoint_path("campaign.ckpt") // crash-safe: re-running resumes
///     .build()
///     .expect("valid config");
/// let report = CampaignSession::new(config).run().expect("campaign run");
/// println!("{} bugs", report.bugs.len());
/// ```
pub struct CampaignSession {
    config: CampaignConfig,
    progress: ProgressHandle,
    /// The trained generator and testbed matrix; the first caller trains
    /// and concurrent callers wait for it.
    trained: OnceLock<(Arc<Generator>, Vec<Testbed>)>,
}

impl CampaignSession {
    /// Creates a session over `config`. Nothing runs (or trains) until the
    /// first [`run`](Self::run) call, but the progress handle is armed from
    /// the shard plan already, so a poller reads the real totals while the
    /// first run trains; every run re-arms it.
    pub fn new(config: CampaignConfig) -> Self {
        let progress = ProgressHandle::new();
        progress.reset(&plan_shards(&config).iter().map(|s| s.cases as u64).collect::<Vec<u64>>());
        CampaignSession { config, progress, trained: OnceLock::new() }
    }

    /// The configuration the session runs.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The shard plan this session will run (a pure function of the
    /// configuration).
    pub fn plan(&self) -> Vec<ShardSpec> {
        plan_shards(&self.config)
    }

    /// The live progress handle: poll it from another thread while
    /// [`run`](Self::run) executes.
    pub fn progress(&self) -> ProgressHandle {
        self.progress.clone()
    }

    /// Runs the campaign with the configured thread count.
    ///
    /// With a checkpoint path configured this is the crash-safe path: an
    /// intact journal on disk is salvaged (error if it was written under a
    /// different config fingerprint or shard plan) and only missing shards
    /// re-run. Without one the run is fresh and the result is always `Ok`.
    pub fn run(&self) -> Result<CampaignReport, CheckpointError> {
        self.run_with_threads(self.config.threads)
    }

    /// [`run`](Self::run) on `threads` shard workers (`0` = available
    /// parallelism; never more workers than shards), reusing the session's
    /// trained generator and testbed matrix. Sweeping widths re-runs the
    /// identical workload; the report is bit-identical in every
    /// deterministic field at each width.
    pub fn run_with_threads(&self, threads: usize) -> Result<CampaignReport, CheckpointError> {
        let salvage = ShardRuntime::check(&self.config)?;
        // Train first: the deadline the runtime arms then covers the
        // shards, not the training.
        self.executor();
        let runtime = ShardRuntime::start(&self.config, self.progress.clone(), salvage);
        let plan = runtime.plan();
        let pending: Vec<usize> =
            (0..plan.len()).filter(|i| !runtime.salvaged().contains(i)).collect();
        // Shard-level workers are the only parallelism: each shard runs its
        // cases' testbeds serially, so threads beyond the shard count stay
        // idle rather than spawning a pool per case.
        let workers = resolve_threads(threads).clamp(1, plan.len());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Cooperative shutdown at the shard boundary: claimed
                    // shards drain at their next cancellation point; nothing
                    // new is claimed.
                    if self.config.cancel.is_cancelled() {
                        break;
                    }
                    let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let record = self.run_shard(&plan[i]);
                    if record.report.interrupted {
                        // A partially-run shard is discarded whole: its
                        // events would desync the replayed stream, and
                        // resume re-runs the shard from scratch.
                        break;
                    }
                    runtime.commit(record, false);
                });
            }
        });
        Ok(runtime.finish().0)
    }

    /// Trains the session: the generator and testbed matrix every shard
    /// runs over, built on the first call (concurrent first callers wait
    /// for it) and kept for the session's life. A panic while training
    /// leaves the session untrained, and the next call trains again.
    pub fn executor(&self) {
        self.trained();
    }

    fn trained(&self) -> &(Arc<Generator>, Vec<Testbed>) {
        self.trained.get_or_init(|| train(&self.config))
    }

    /// Runs one shard (training the session first if need be) into its
    /// journal record: the shard's report and event stream. The run is a
    /// plain serial campaign over the shard's slice of the budget, on the
    /// calling thread, reporting live progress on the session's handle. It
    /// arms no deadline; it stops early only when the config's `cancel`
    /// token reads cancelled, and then returns a report flagged
    /// `interrupted`. Every driver runs its shards here, so they all merge
    /// to bit-identical reports.
    pub fn run_shard(&self, spec: &ShardSpec) -> ShardRecord {
        let (generator, testbeds) = self.trained();
        let events = MemorySink::new();
        let mut config = self.config.clone();
        config.seed = spec.seed;
        config.max_cases = spec.cases;
        config.sink = SinkHandle::new(events.clone());
        let mut campaign = Campaign::with_shared(config, Arc::clone(generator), testbeds.clone());
        campaign.set_shard(spec.index as u64);
        campaign.set_progress(self.progress.clone());
        let report = campaign.run();
        ShardRecord {
            index: spec.index as u64,
            seed: spec.seed,
            cases: spec.cases as u64,
            report,
            events: events.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::report_to_json_deterministic;

    fn small_config() -> CampaignConfig {
        CampaignConfig::builder()
            .seed(11)
            .corpus_programs(80)
            .lm(comfort_lm::GeneratorConfig {
                order: 8,
                bpe_merges: 200,
                top_k: 10,
                max_tokens: 800,
            })
            .max_cases(40)
            .fuel(200_000)
            .include_strict(false)
            .include_legacy(false)
            .reduce_cases(false)
            .shard_cases(20)
            .build()
            .expect("valid config")
    }

    #[test]
    fn a_new_session_reports_its_plan_before_the_first_run() {
        let session = CampaignSession::new(small_config());
        let snap = session.progress().snapshot();
        assert_eq!(snap.total_cases, 40);
        assert_eq!(snap.shards.len(), session.plan().len());
        assert_eq!((snap.cases_done, snap.shards_done), (0, 0));
    }

    #[test]
    fn fresh_sessions_always_succeed_and_sweeps_are_bit_identical() {
        let session = CampaignSession::new(small_config());
        let one = session.run_with_threads(1).expect("fresh run is infallible");
        let two = session.run_with_threads(2).expect("fresh run is infallible");
        assert_eq!(one.cases_run, 40);
        assert_eq!(report_to_json_deterministic(&one), report_to_json_deterministic(&two));
    }

    #[test]
    fn checkpointed_session_resumes_its_own_journal() {
        let dir = std::env::temp_dir().join(format!("comfort-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("session.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut config = small_config();
        config.checkpoint = Some(path.clone());
        let session = CampaignSession::new(config);
        let fresh = session.run().expect("fresh checkpointed run");
        assert!(fresh.resume.is_none());
        // Re-running the same session salvages every shard from the journal.
        let resumed = session.run().expect("resumed run");
        let info = resumed.resume.as_ref().expect("resume provenance");
        assert_eq!(info.shards_salvaged, 2);
        assert_eq!(info.shards_rerun, 0);
        assert_eq!(report_to_json_deterministic(&fresh), report_to_json_deterministic(&resumed));
        let _ = std::fs::remove_file(&path);
    }
}
