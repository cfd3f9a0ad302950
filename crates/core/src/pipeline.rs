//! The user-facing COMFORT facade.
//!
//! [`Comfort`] wires the whole pipeline of Figure 3 together: GPT-2-style
//! program generation → ECMA-262-guided test data → differential testing →
//! reduction → identical-bug filtering, behind one small API. Each budget
//! runs as a [`CampaignSession`]; with the default `shard_cases = 0` the
//! plan is a single shard, so reports are bit-identical to the serial
//! pipeline at every `threads` setting. Crash-safe, journalled runs use a
//! [`CampaignSession`] directly.

use comfort_lm::GeneratorConfig;
use comfort_telemetry::{CampaignMetrics, ProgressHandle, SinkHandle};

use crate::campaign::{BugReport, CampaignConfig, ConfigError};
use crate::datagen::DataGenConfig;
use crate::resilience::{CancelToken, ChaosConfig, ExecPolicy, TestbedHealth};
use crate::session::CampaignSession;

/// Facade configuration (a curated subset of [`CampaignConfig`]).
#[derive(Debug, Clone)]
pub struct ComfortConfig {
    /// Master seed.
    pub seed: u64,
    /// LM training-corpus size.
    pub corpus_programs: usize,
    /// Language-model configuration.
    pub lm: GeneratorConfig,
    /// Fuel per engine run.
    pub fuel: u64,
    /// Run the strict testbed group too.
    pub strict_testbeds: bool,
    /// Reduce bug-exposing cases before reporting.
    pub reduce: bool,
    /// Worker threads for campaign execution. `0` (the default) uses all
    /// available parallelism; `1` is the legacy serial executor. Reports are
    /// bit-identical at every thread count.
    pub threads: usize,
    /// Cases per shard. `0` (the default) runs the whole budget as a single
    /// shard, which reproduces the legacy serial case stream exactly.
    pub shard_cases: usize,
    /// Telemetry sink receiving the run's typed event stream (JSONL-ready;
    /// see `comfort_telemetry`). Defaults to the discarding `NullSink`.
    pub sink: SinkHandle,
    /// Execution-hardening policy (isolation, retry, quarantine, quorum).
    pub exec: ExecPolicy,
    /// Optional seeded fault injection over selected testbeds.
    pub chaos: Option<ChaosConfig>,
    /// Cooperative-shutdown token, shared with every shard the run spawns.
    pub cancel: CancelToken,
    /// Optional wall-clock budget per budgeted run.
    pub deadline: Option<std::time::Duration>,
}

impl Default for ComfortConfig {
    fn default() -> Self {
        ComfortConfig {
            seed: 42,
            corpus_programs: 120,
            lm: GeneratorConfig { order: 8, bpe_merges: 250, top_k: 10, max_tokens: 1000 },
            fuel: 300_000,
            strict_testbeds: false,
            reduce: true,
            threads: 0,
            shard_cases: 0,
            sink: SinkHandle::null(),
            exec: ExecPolicy::default(),
            chaos: None,
            cancel: CancelToken::new(),
            deadline: None,
        }
    }
}

impl ComfortConfig {
    /// Starts a validated builder over the facade configuration.
    ///
    /// ```
    /// use comfort_core::pipeline::ComfortConfig;
    ///
    /// let config = ComfortConfig::builder()
    ///     .seed(7)
    ///     .threads(4)
    ///     .shard_cases(50)
    ///     .build()
    ///     .expect("valid config");
    /// assert_eq!(config.seed, 7);
    /// ```
    pub fn builder() -> ComfortConfigBuilder {
        ComfortConfigBuilder { config: ComfortConfig::default() }
    }
}

/// Chainable builder for [`ComfortConfig`]; `build` validates the result.
#[derive(Debug, Clone)]
pub struct ComfortConfigBuilder {
    config: ComfortConfig,
}

impl ComfortConfigBuilder {
    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the LM training-corpus size.
    pub fn corpus_programs(mut self, n: usize) -> Self {
        self.config.corpus_programs = n;
        self
    }

    /// Sets the language-model configuration.
    pub fn lm(mut self, lm: GeneratorConfig) -> Self {
        self.config.lm = lm;
        self
    }

    /// Sets the fuel budget per engine run.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.config.fuel = fuel;
        self
    }

    /// Enables or disables the strict testbed group.
    pub fn strict_testbeds(mut self, on: bool) -> Self {
        self.config.strict_testbeds = on;
        self
    }

    /// Enables or disables test-case reduction.
    pub fn reduce(mut self, on: bool) -> Self {
        self.config.reduce = on;
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the per-shard case budget (`0` = single shard).
    pub fn shard_cases(mut self, cases: usize) -> Self {
        self.config.shard_cases = cases;
        self
    }

    /// Sets the telemetry sink for the run's event stream.
    pub fn sink(mut self, sink: SinkHandle) -> Self {
        self.config.sink = sink;
        self
    }

    /// Sets the execution-hardening policy.
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.config.exec = exec;
        self
    }

    /// Enables seeded fault injection over selected testbeds.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.config.chaos = Some(chaos);
        self
    }

    /// Installs a cooperative-shutdown token (cancel it from any thread to
    /// drain in-flight shards, checkpoint, and return an interrupted report).
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.config.cancel = cancel;
        self
    }

    /// Sets a wall-clock budget per budgeted run.
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ComfortConfig, ConfigError> {
        if self.config.fuel == 0 {
            return Err(ConfigError::ZeroFuel);
        }
        if self.config.corpus_programs == 0 {
            return Err(ConfigError::EmptyCorpus);
        }
        if self.config.chaos.as_ref().is_some_and(|chaos| !chaos.plan.rates_valid()) {
            return Err(ConfigError::InvalidFaultPlan);
        }
        Ok(self.config)
    }
}

/// Result of a budgeted run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Test cases executed.
    pub cases_run: u64,
    /// Unique deviations reported (post-reduction, post-dedup).
    pub deviations: Vec<BugReport>,
    /// Simulated testing hours consumed.
    pub sim_hours: f64,
    /// Observations discarded as duplicates of known bugs.
    pub duplicates_filtered: u64,
    /// Per-stage counters and histograms for the run (merged across shards).
    pub metrics: CampaignMetrics,
    /// Per-testbed health ledger (fault counts, quarantine state).
    pub health: Vec<TestbedHealth>,
    /// The run was interrupted (cancel token or deadline) before finishing
    /// its budget.
    pub interrupted: bool,
}

/// The COMFORT pipeline, ready to fuzz.
pub struct Comfort {
    config: ComfortConfig,
    runs: u64,
    progress: ProgressHandle,
}

impl Comfort {
    /// Builds the pipeline (does not train yet; training happens per run so
    /// each budgeted run is a pure function of the seed and budget).
    pub fn new(config: ComfortConfig) -> Self {
        Comfort { config, runs: 0, progress: ProgressHandle::new() }
    }

    /// Live progress for the run in flight: poll it from another thread for
    /// cases done, bugs found, and per-shard throughput. The handle stays
    /// valid across `run_budgeted` calls (each run resets its counters).
    pub fn progress(&self) -> ProgressHandle {
        self.progress.clone()
    }

    /// Runs a `cases`-sized fuzzing budget and reports unique deviations.
    ///
    /// The budget is split into shards per `shard_cases` and executed on a
    /// `threads`-wide worker pool; the report is bit-identical regardless of
    /// thread count.
    pub fn run_budgeted(&mut self, cases: usize) -> PipelineReport {
        let session = CampaignSession::new(self.campaign_config_for(cases))
            .share_progress(self.progress.clone());
        let report = session.run().expect("a journal-free run cannot fail");
        PipelineReport {
            cases_run: report.cases_run,
            deviations: report.bugs,
            sim_hours: report.sim_hours,
            duplicates_filtered: report.duplicates_filtered,
            metrics: report.metrics,
            health: report.health,
            interrupted: report.interrupted,
        }
    }

    /// Lowers the facade config into a full [`CampaignConfig`] for one
    /// budgeted run (each run advances the seed so runs stay independent).
    fn campaign_config_for(&mut self, cases: usize) -> CampaignConfig {
        let campaign_config = CampaignConfig {
            seed: self.config.seed.wrapping_add(self.runs),
            corpus_programs: self.config.corpus_programs,
            lm: self.config.lm.clone(),
            datagen: DataGenConfig::default(),
            max_cases: cases,
            fuel: self.config.fuel,
            backend: comfort_engines::Backend::default(),
            sim_seconds_per_case: 2.88,
            include_strict: self.config.strict_testbeds,
            include_legacy: false,
            reduce_cases: self.config.reduce,
            keep_invalid_fraction: 0.2,
            threads: self.config.threads,
            shard_cases: self.config.shard_cases,
            sink: self.config.sink.clone(),
            exec: self.config.exec.clone(),
            chaos: self.config.chaos.clone(),
            cancel: self.config.cancel.clone(),
            deadline: self.config.deadline,
            checkpoint: None,
        };
        self.runs += 1;
        campaign_config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_runs_a_small_budget() {
        let mut comfort = Comfort::new(ComfortConfig {
            corpus_programs: 80,
            lm: GeneratorConfig { order: 8, bpe_merges: 150, top_k: 10, max_tokens: 600 },
            reduce: false,
            ..ComfortConfig::default()
        });
        let report = comfort.run_budgeted(60);
        assert_eq!(report.cases_run, 60);
        assert!(report.sim_hours > 0.0);
    }

    #[test]
    fn facade_builder_validates() {
        assert!(matches!(ComfortConfig::builder().fuel(0).build(), Err(ConfigError::ZeroFuel)));
        assert!(matches!(
            ComfortConfig::builder().corpus_programs(0).build(),
            Err(ConfigError::EmptyCorpus)
        ));
        let config = ComfortConfig::builder().threads(2).build().expect("valid");
        assert_eq!(config.threads, 2);
    }
}
