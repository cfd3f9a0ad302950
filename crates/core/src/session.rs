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
//! The session owns the trained generator and testbed matrix (built
//! lazily, once), so sweeping thread counts with
//! [`run_with_threads`](CampaignSession::run_with_threads) — as the
//! `comfort-bench` harness does — trains the language model a single time
//! and re-runs the identical workload at each width. Reports are
//! **bit-identical** in every deterministic field at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use comfort_telemetry::{MemorySink, ProgressHandle};

use crate::campaign::{CampaignConfig, CampaignReport};
use crate::checkpoint::CheckpointError;
use crate::executor::{plan_shards, resolve_threads, ShardSpec, ShardedCampaign};
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
    executor: OnceLock<ShardedCampaign>,
}

impl CampaignSession {
    /// Creates a session over `config`. Nothing runs (or trains) until the
    /// first [`run`](Self::run) call.
    pub fn new(config: CampaignConfig) -> Self {
        CampaignSession { config, progress: ProgressHandle::new(), executor: OnceLock::new() }
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
        let executor = self.executor();
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
                    let events = MemorySink::new();
                    let report = executor.run_shard(&plan[i], &events);
                    if report.interrupted {
                        // A partially-run shard is discarded whole: its
                        // events would desync the replayed stream, and
                        // resume re-runs the shard from scratch.
                        break;
                    }
                    runtime.commit(runtime.record(i, report, events.take()), false);
                });
            }
        });
        Ok(runtime.finish().0)
    }

    /// The lazily-built executor (trains the LM on first use).
    ///
    /// Public so a worker process of the `comfort-service` daemon can run
    /// its one leased shard via [`ShardedCampaign::run_shard`] with the
    /// session's trained generator and testbed matrix.
    pub fn executor(&self) -> &ShardedCampaign {
        self.executor.get_or_init(|| {
            let mut executor = ShardedCampaign::new(self.config.clone());
            executor.attach_progress(self.progress.clone());
            executor
        })
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
