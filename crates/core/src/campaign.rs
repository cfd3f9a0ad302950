//! Campaign orchestration: the paper's §4–5 evaluation loop.
//!
//! A campaign generates test cases (LM programs + ECMA-guided data mutants),
//! runs them differentially over the testbed matrix, reduces and
//! deduplicates the deviations, attributes each discovered bug to the
//! earliest affected engine version (Table 3), and passes the report through
//! a stochastic **developer model** that reproduces the confirm/fix/reject
//! dynamics of Tables 2–4 (simulated time replaces the paper's 200-hour
//! wall-clock budget).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use comfort_engines::{
    shared_catalog, versions_of, ApiType, Backend, Component, Engine, EngineName, RunOptions,
    SeededBug, Testbed,
};
use comfort_lm::{Generator, GeneratorConfig};
use comfort_syntax::{parse, print_program, Program};
use comfort_telemetry::{CampaignMetrics, EventKind, ProgressHandle, Recorder, SinkHandle, Stage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::ResumeInfo;
use crate::datagen::{DataGen, DataGenConfig};
use crate::differential::{
    run_differential, run_differential_masked, CaseOutcome, DeviationKind, DeviationRecord,
    Signature,
};
use crate::filter::{behavior_label, BugKey, BugTree};
use crate::reduce::reduce_counted;
use crate::resilience::{
    run_case_hardened_cancellable, CancelToken, ChaosConfig, ExecPolicy, HealthTracker,
    TestbedHealth,
};
use crate::testcase::{Origin, TestCase};
use comfort_engines::FaultPlan;

/// Stable snake-case provenance label used in telemetry events.
fn origin_label(origin: Origin) -> &'static str {
    origin.slug()
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: the whole campaign is a pure function of it.
    pub seed: u64,
    /// Training-corpus size for the LM.
    pub corpus_programs: usize,
    /// LM configuration.
    pub lm: GeneratorConfig,
    /// Data-mutation configuration.
    pub datagen: DataGenConfig,
    /// Test-case budget (the paper runs 250k; scale to taste).
    pub max_cases: usize,
    /// Fuel per engine run.
    pub fuel: u64,
    /// The evaluator. [`Backend`] has one variant, the arena VM, and no run
    /// reads this field; it stays so that code reading it keeps compiling.
    /// Excluded from the checkpoint fingerprint.
    pub backend: Backend,
    /// Simulated seconds of testing time per test case (the paper's 200 h /
    /// 250 k cases ≈ 2.88 s each).
    pub sim_seconds_per_case: f64,
    /// Also run the strict-mode testbed group (§4.2).
    pub include_strict: bool,
    /// Also include each engine's *oldest* version as extra testbeds —
    /// the paper tests 51 version configurations, which is how bugs fixed
    /// before trunk (Listings 2/3/5) are found in stable releases.
    pub include_legacy: bool,
    /// Reduce each bug-exposing case before reporting (§3.5).
    pub reduce_cases: bool,
    /// Fraction of syntactically invalid generations to keep as parser
    /// tests (§3.2 keeps 20%).
    pub keep_invalid_fraction: f64,
    /// Shard workers of a [`CampaignSession`](crate::session::CampaignSession)
    /// (`0` = available parallelism, `1` = serial). Nothing else reads it: a
    /// shard runs each case's testbeds one after another. Affects
    /// scheduling only — results are bit-identical at every thread count.
    pub threads: usize,
    /// Cases per shard for the sharded executor (`0` = a single shard, which
    /// reproduces the legacy serial case stream exactly). The shard plan is
    /// a pure function of this value and `max_cases`, never of the hardware.
    pub shard_cases: usize,
    /// Telemetry sink receiving the campaign's typed event stream (see
    /// `comfort_telemetry`). Defaults to the discarding `NullSink`; the
    /// stream's *logical* content is identical at every thread count.
    pub sink: SinkHandle,
    /// Execution-hardening policy: isolation, retry, quarantine threshold,
    /// and voting quorum (see [`ExecPolicy`]).
    pub exec: ExecPolicy,
    /// Optional seeded fault injection: wraps selected testbeds of the
    /// matrix in a chaos [`FaultPlan`] (see [`ChaosConfig`]).
    pub chaos: Option<ChaosConfig>,
    /// Cooperative-shutdown token, checked at every case boundary and
    /// between testbed slots. Cloned configs **share** the token, so
    /// cancelling the campaign cancels every shard derived from it.
    /// Scheduling only — excluded from the checkpoint fingerprint.
    pub cancel: CancelToken,
    /// Optional wall-clock budget: the campaign cancels itself this long
    /// after a run starts. [`ShardRuntime::start`](crate::runtime::ShardRuntime::start)
    /// arms it afresh on the `cancel` token at the start of each session or
    /// daemon run, so re-running a config whose deadline fired makes
    /// progress; shards share their run's instant. Nothing else arms it: a
    /// shard run alone, or in a fleet worker child, runs its whole budget.
    pub deadline: Option<std::time::Duration>,
    /// Write-ahead checkpoint journal path. When set, the campaign durably
    /// appends every completed shard and a later
    /// [`CampaignSession`](crate::session::CampaignSession) run resumes
    /// from it to a bit-identical report.
    pub checkpoint: Option<std::path::PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC0FF,
            corpus_programs: 260,
            lm: GeneratorConfig { bpe_merges: 400, max_tokens: 1500, ..GeneratorConfig::default() },
            datagen: DataGenConfig::default(),
            max_cases: 1500,
            fuel: 400_000,
            backend: Backend::default(),
            sim_seconds_per_case: 2.88,
            include_strict: true,
            include_legacy: true,
            reduce_cases: true,
            keep_invalid_fraction: 0.2,
            threads: 1,
            shard_cases: 0,
            sink: SinkHandle::null(),
            exec: ExecPolicy::default(),
            chaos: None,
            cancel: CancelToken::new(),
            deadline: None,
            checkpoint: None,
        }
    }
}

impl CampaignConfig {
    /// Starts a builder pre-populated with the defaults.
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder { config: CampaignConfig::default() }
    }
}

/// A configuration rejected by a builder's validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `max_cases` must be positive — a zero-budget campaign is a no-op.
    ZeroMaxCases,
    /// `keep_invalid_fraction` is a probability and must lie in `[0, 1]`.
    InvalidKeepFraction(f64),
    /// `fuel` must be positive — zero fuel times out every run.
    ZeroFuel,
    /// `corpus_programs` must be positive — the LM needs training data.
    EmptyCorpus,
    /// A chaos fault plan's rates must be probabilities whose sum fits one
    /// uniform draw (each in `[0, 1]`, sum ≤ 1).
    InvalidFaultPlan,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMaxCases => write!(f, "max_cases must be > 0"),
            ConfigError::InvalidKeepFraction(v) => {
                write!(f, "keep_invalid_fraction must be within [0, 1], got {v}")
            }
            ConfigError::ZeroFuel => write!(f, "fuel must be > 0"),
            ConfigError::EmptyCorpus => write!(f, "corpus_programs must be > 0"),
            ConfigError::InvalidFaultPlan => {
                write!(f, "chaos fault rates must lie in [0, 1] and sum to at most 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Chainable builder for [`CampaignConfig`] (see [`CampaignConfig::builder`]).
///
/// Struct-literal construction remains supported; the builder adds
/// validation at the boundary.
///
/// ```
/// use comfort_core::campaign::CampaignConfig;
///
/// let config = CampaignConfig::builder()
///     .seed(7)
///     .max_cases(200)
///     .include_strict(false)
///     .build()
///     .expect("valid config");
/// assert_eq!(config.max_cases, 200);
/// assert!(CampaignConfig::builder().max_cases(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CampaignConfigBuilder {
    config: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Training-corpus size for the LM.
    pub fn corpus_programs(mut self, n: usize) -> Self {
        self.config.corpus_programs = n;
        self
    }

    /// LM configuration.
    pub fn lm(mut self, lm: GeneratorConfig) -> Self {
        self.config.lm = lm;
        self
    }

    /// Data-mutation configuration.
    pub fn datagen(mut self, datagen: DataGenConfig) -> Self {
        self.config.datagen = datagen;
        self
    }

    /// Test-case budget.
    pub fn max_cases(mut self, n: usize) -> Self {
        self.config.max_cases = n;
        self
    }

    /// Fuel per engine run.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.config.fuel = fuel;
        self
    }

    /// Simulated seconds of testing time per test case.
    pub fn sim_seconds_per_case(mut self, secs: f64) -> Self {
        self.config.sim_seconds_per_case = secs;
        self
    }

    /// Also run the strict-mode testbed group.
    pub fn include_strict(mut self, yes: bool) -> Self {
        self.config.include_strict = yes;
        self
    }

    /// Also include each engine's oldest version as extra testbeds.
    pub fn include_legacy(mut self, yes: bool) -> Self {
        self.config.include_legacy = yes;
        self
    }

    /// Reduce each bug-exposing case before reporting.
    pub fn reduce_cases(mut self, yes: bool) -> Self {
        self.config.reduce_cases = yes;
        self
    }

    /// Fraction of invalid generations kept as parser tests.
    pub fn keep_invalid_fraction(mut self, fraction: f64) -> Self {
        self.config.keep_invalid_fraction = fraction;
        self
    }

    /// A session's shard workers (`0` = available parallelism, `1` =
    /// serial).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Cases per shard (`0` = single shard / legacy stream).
    pub fn shard_cases(mut self, cases: usize) -> Self {
        self.config.shard_cases = cases;
        self
    }

    /// Telemetry sink for the campaign's event stream.
    pub fn sink(mut self, sink: SinkHandle) -> Self {
        self.config.sink = sink;
        self
    }

    /// Execution-hardening policy (isolation, retry, quarantine, quorum).
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.config.exec = exec;
        self
    }

    /// Seeded fault injection over selected testbeds.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.config.chaos = Some(chaos);
        self
    }

    /// Cooperative-shutdown token (cloned configs share it).
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.config.cancel = cancel;
        self
    }

    /// Wall-clock campaign budget; the campaign interrupts itself cleanly
    /// once it elapses.
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Write-ahead checkpoint journal path (crash-safe resume).
    pub fn checkpoint_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.config.checkpoint = Some(path.into());
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<CampaignConfig, ConfigError> {
        let c = &self.config;
        if c.max_cases == 0 {
            return Err(ConfigError::ZeroMaxCases);
        }
        if !(0.0..=1.0).contains(&c.keep_invalid_fraction) {
            return Err(ConfigError::InvalidKeepFraction(c.keep_invalid_fraction));
        }
        if c.fuel == 0 {
            return Err(ConfigError::ZeroFuel);
        }
        if c.corpus_programs == 0 {
            return Err(ConfigError::EmptyCorpus);
        }
        if c.chaos.as_ref().is_some_and(|chaos| !chaos.plan.rates_valid()) {
            return Err(ConfigError::InvalidFaultPlan);
        }
        Ok(self.config)
    }
}

/// The developer-model verdict on one submitted bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Adjudication {
    /// Confirmed by the engine developers.
    pub verified: bool,
    /// Fixed after confirmation.
    pub fixed: bool,
    /// Rejected (feature unclear in ECMA-262 / unsupported version).
    pub rejected: bool,
    /// Test case accepted into Test262.
    pub accepted_test262: bool,
    /// Newly discovered (not independently reported before).
    pub novel: bool,
}

/// One submitted bug report.
#[derive(Debug, Clone)]
pub struct BugReport {
    /// Filter-tree identity.
    pub key: BugKey,
    /// Simulated time of discovery, in hours from campaign start.
    pub sim_hours: f64,
    /// Reduced (or raw) bug-exposing test case.
    pub test_case: String,
    /// Provenance of the triggering input (Table 4).
    pub origin: Origin,
    /// Earliest engine version exhibiting the deviation (Table 3).
    pub earliest_version: String,
    /// Deviation class observed.
    pub kind: DeviationKind,
    /// Only reproduces on the strict testbed.
    pub strict_only: bool,
    /// Affected component (Figure 7).
    pub component: Component,
    /// Buggy API object type (Table 5).
    pub api_type: ApiType,
    /// Ground-truth seeded bug this report maps to, when identifiable
    /// (evaluation-only — the fuzzing pipeline itself never reads it).
    pub matched_bug: Option<comfort_engines::BugId>,
    /// Developer-model outcome.
    pub adjudication: Adjudication,
}

/// Aggregate result of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Test cases executed.
    pub cases_run: u64,
    /// Cases rejected by the front end (consistent parsing error group).
    pub parse_errors: u64,
    /// Cases where every engine agreed.
    pub passes: u64,
    /// Raw deviation observations before deduplication.
    pub deviations_observed: u64,
    /// Observations the filter discarded as duplicates.
    pub duplicates_filtered: u64,
    /// Submitted bug reports (unique filter leaves).
    pub bugs: Vec<BugReport>,
    /// Simulated campaign duration in hours.
    pub sim_hours: f64,
    /// Per-stage counters and histograms (see `comfort_telemetry`); merged
    /// conservation-exactly across shards. Wall-clock fields are
    /// measurement-only and excluded from determinism comparisons.
    pub metrics: CampaignMetrics,
    /// Per-testbed health ledger (fault counts, retries, quarantine state),
    /// indexed like the campaign's testbed matrix; merged additively across
    /// shards.
    pub health: Vec<TestbedHealth>,
    /// The campaign was cancelled (token or deadline) before finishing its
    /// budget: the report covers completed work only. Provenance — excluded
    /// from determinism comparisons.
    pub interrupted: bool,
    /// Resume provenance when this campaign picked up a journal. Excluded
    /// from determinism comparisons.
    pub resume: Option<ResumeInfo>,
}

impl CampaignReport {
    /// (submitted, verified, fixed, test262) totals.
    pub fn totals(&self) -> (usize, usize, usize, usize) {
        let submitted = self.bugs.len();
        let verified = self.bugs.iter().filter(|b| b.adjudication.verified).count();
        let fixed = self.bugs.iter().filter(|b| b.adjudication.fixed).count();
        let t262 = self.bugs.iter().filter(|b| b.adjudication.accepted_test262).count();
        (submitted, verified, fixed, t262)
    }
}

/// Builds the testbed matrix a config asks for: every engine's latest
/// version, plus legacy and strict groups when enabled.
pub fn testbeds_for(config: &CampaignConfig) -> Vec<Testbed> {
    let mut testbeds = comfort_engines::latest_testbeds();
    if config.include_legacy {
        for name in EngineName::ALL {
            let oldest = Engine::oldest(name);
            if oldest.version().ordinal != Engine::latest(name).version().ordinal {
                testbeds.push(Testbed::new(oldest, false));
            }
        }
    }
    if config.include_strict {
        for name in EngineName::ALL {
            testbeds.push(Testbed::new(Engine::latest(name), true));
        }
    }
    if let Some(chaos) = &config.chaos {
        let mut plan = chaos.plan.clone();
        if plan.seed == FaultPlan::DERIVE {
            plan.seed = FaultPlan::derived_from(config.seed).seed;
        }
        for &i in &chaos.testbeds {
            if let Some(bed) = testbeds.get_mut(i) {
                *bed = bed.clone().with_chaos(plan.clone());
            }
        }
    }
    testbeds
}

/// Trains the generator on the config's corpus and builds its testbed
/// matrix: what every shard of the campaign shares. Training depends only
/// on `(seed, corpus_programs, lm)`, so one training serves every shard.
pub fn train(config: &CampaignConfig) -> (std::sync::Arc<Generator>, Vec<Testbed>) {
    let corpus = comfort_corpus::training_corpus(config.seed, config.corpus_programs);
    let generator = std::sync::Arc::new(Generator::train(&corpus, config.lm.clone()));
    (generator, testbeds_for(config))
}

/// The campaign runner.
pub struct Campaign {
    config: CampaignConfig,
    generator: std::sync::Arc<Generator>,
    testbeds: Vec<Testbed>,
    rng: StdRng,
    next_case_id: u64,
    /// Base (unmutated) programs of recent generations, for Table 4's
    /// mechanism attribution.
    base_programs: std::collections::HashMap<u64, Program>,
    /// Stamps telemetry events with `(shard, seq)` logical clocks.
    recorder: Recorder,
    /// Shard index in the executor's merge order (0 when run directly).
    shard: u64,
    /// Per-stage counters for the run in flight.
    metrics: CampaignMetrics,
    /// Live progress counters, safe to poll from other threads.
    progress: ProgressHandle,
}

impl Campaign {
    /// The per-run options every differential/hardened run of this campaign
    /// uses: the configured fuel.
    fn case_options(&self) -> RunOptions {
        RunOptions::with_fuel(self.config.fuel)
    }

    /// Trains the generator and prepares the testbed matrix ([`train`]).
    pub fn new(config: CampaignConfig) -> Self {
        let (generator, testbeds) = train(&config);
        Campaign::with_shared(config, generator, testbeds)
    }

    /// Builds a campaign around an already-trained generator and testbed
    /// matrix. This is how a [`CampaignSession`](crate::session::CampaignSession)
    /// avoids re-training the LM per shard: training depends only on
    /// `(seed, corpus_programs, lm)`, which shards share — only the
    /// case-stream seed differs.
    pub fn with_shared(
        config: CampaignConfig,
        generator: std::sync::Arc<Generator>,
        testbeds: Vec<Testbed>,
    ) -> Self {
        let rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
        let recorder = Recorder::new(config.sink.clone(), 0);
        let progress = ProgressHandle::new();
        progress.reset(&[config.max_cases as u64]);
        Campaign {
            config,
            generator,
            testbeds,
            rng,
            next_case_id: 0,
            base_programs: std::collections::HashMap::new(),
            recorder,
            shard: 0,
            metrics: CampaignMetrics::default(),
            progress,
        }
    }

    /// Does nothing: a case's testbeds always run one after another, and
    /// shards are the only parallelism. Kept so that existing callers keep
    /// compiling.
    pub fn set_exec_threads(&mut self, _threads: usize) {}

    /// Assigns this campaign's shard index (the plan's merge order);
    /// telemetry events are stamped with it. Scheduling metadata only.
    pub fn set_shard(&mut self, shard: u64) {
        self.shard = shard;
        self.recorder = Recorder::new(self.config.sink.clone(), shard);
    }

    /// Replaces the progress handle (a session shares one across all
    /// shards). The handle must already be `reset` for the full plan.
    pub fn set_progress(&mut self, progress: ProgressHandle) {
        self.progress = progress;
    }

    /// The live progress handle for this campaign (poll from any thread).
    pub fn progress(&self) -> ProgressHandle {
        self.progress.clone()
    }

    /// The trained generator (shared with quality measurements).
    pub fn generator(&self) -> &Generator {
        &self.generator
    }

    /// Runs the campaign to its case budget: the shard body.
    ///
    /// It runs the whole `max_cases` budget as one serial stream on the
    /// calling thread and ignores `threads`, `shard_cases`, `checkpoint`
    /// and `deadline`: it stops early only when the `cancel` token reads
    /// cancelled. Run a whole campaign through
    /// [`CampaignSession`](crate::session::CampaignSession), which plans the
    /// shards, arms the deadline, runs the shards on `threads` workers and
    /// journals them; with `shard_cases = 0` its report equals this one.
    pub fn run(&mut self) -> CampaignReport {
        let run_start = std::time::Instant::now();
        self.metrics = CampaignMetrics::new();
        let mut report = CampaignReport::default();
        let mut tree = BugTree::new();
        let dev = DeveloperModel { seed: self.config.seed };
        let datagen = DataGen::new(comfort_ecma262::spec_db(), self.config.datagen.clone());
        let mut tracker = HealthTracker::new(&self.testbeds, self.config.exec.quarantine_after)
            .with_probe(self.config.exec.probe_after);

        self.progress.shard_started(self.shard as usize);
        self.emit(EventKind::ShardStarted {
            seed: self.config.seed,
            case_budget: self.config.max_cases as u64,
        });

        let mut queue: Vec<TestCase> = Vec::new();
        let mut base_counter = 0u64;

        while (report.cases_run as usize) < self.config.max_cases {
            if self.config.cancel.is_cancelled() {
                report.interrupted = true;
                break;
            }
            if queue.is_empty() {
                // Generate the next base program and its mutants.
                let gen_start = std::time::Instant::now();
                let source = self.generator.generate(&mut self.rng);
                base_counter += 1;
                self.metrics.stage_mut(Stage::Generation).record(
                    1,
                    source.len() as u64,
                    gen_start.elapsed().as_nanos() as u64,
                );
                let parse_start = std::time::Instant::now();
                let parsed = parse(&source);
                self.metrics.stage_mut(Stage::Validity).record(
                    1,
                    source.len() as u64,
                    parse_start.elapsed().as_nanos() as u64,
                );
                match parsed {
                    Ok(program) => {
                        let mutate_start = std::time::Instant::now();
                        let base = datagen.base_case(
                            &program,
                            base_counter,
                            &mut self.next_case_id,
                            &mut self.rng,
                        );
                        let mutants = datagen.mutate(
                            &base.program,
                            base_counter,
                            &mut self.next_case_id,
                            &mut self.rng,
                        );
                        self.metrics.stage_mut(Stage::Datagen).record(
                            1 + mutants.len() as u64,
                            mutants.len() as u64,
                            mutate_start.elapsed().as_nanos() as u64,
                        );
                        for c in std::iter::once(&base).chain(mutants.iter()) {
                            self.emit(EventKind::CaseGenerated {
                                case_id: c.id,
                                base: c.base,
                                origin: origin_label(c.origin).to_string(),
                                mutant: c.origin == Origin::EcmaMutation,
                            });
                        }
                        queue.push(base);
                        queue.extend(mutants);
                    }
                    Err(_) => {
                        // Keep a fraction of invalid programs as parser tests.
                        let kept = self.rng.random_bool(self.config.keep_invalid_fraction);
                        self.emit(EventKind::CaseRejected { base: base_counter, kept });
                        if kept {
                            report.cases_run += 1;
                            report.parse_errors += 1;
                            report.sim_hours += self.config.sim_seconds_per_case / 3600.0;
                            self.progress.case_done(self.shard as usize);
                        }
                        continue;
                    }
                }
            }
            let case = queue.remove(0);
            let diff_start = std::time::Instant::now();
            let obs = run_case_hardened_cancellable(
                &case.program,
                &self.testbeds,
                &self.case_options(),
                &self.config.exec,
                &mut tracker,
                Some(&self.config.cancel),
            );
            if obs.cancelled {
                // Cancelled between testbed slots: the case made no tracker
                // updates and must leave no trace in the report either — an
                // interrupted shard is discarded whole and re-run on resume.
                report.interrupted = true;
                break;
            }
            report.cases_run += 1;
            report.sim_hours += self.config.sim_seconds_per_case / 3600.0;
            self.metrics.stage_mut(Stage::Differential).record(
                obs.active_runs as u64,
                obs.active_runs as u64,
                diff_start.elapsed().as_nanos() as u64,
            );
            let outcome_label = match &obs.outcome {
                CaseOutcome::ParseError => "parse-error",
                CaseOutcome::AllTimeout => "all-timeout",
                CaseOutcome::Pass => "pass",
                CaseOutcome::Deviations(_) => "deviations",
                CaseOutcome::NoQuorum => "no-quorum",
            };
            self.emit(EventKind::DifferentialRun {
                case_id: case.id,
                testbeds: obs.active_runs as u64,
                outcome: outcome_label.to_string(),
            });
            if obs.active_runs > obs.physical_runs {
                self.emit(EventKind::ExecutionDeduped {
                    case_id: case.id,
                    classes: obs.classes as u64,
                    saved: (obs.active_runs - obs.physical_runs) as u64,
                });
            }
            self.metrics.runs_skipped += obs.skipped_runs as u64;
            for fault in &obs.faults {
                self.emit(EventKind::FaultInjected {
                    case_id: case.id,
                    testbed: fault.label.clone(),
                    kind: fault.fault.as_str().to_string(),
                });
            }
            for &(testbed, retries) in &obs.retried {
                self.emit(EventKind::RunRetried {
                    case_id: case.id,
                    testbed: self.testbeds[testbed].label(),
                    retries: u64::from(retries),
                });
            }
            for q in &obs.quarantined {
                self.emit(EventKind::TestbedQuarantined {
                    case_id: case.id,
                    testbed: q.label.clone(),
                    hard_faults: q.hard_faults,
                });
            }
            for r in &obs.reinstated {
                self.emit(EventKind::TestbedReinstated {
                    case_id: case.id,
                    testbed: r.label.clone(),
                    skipped: r.skipped,
                });
            }
            for group in &obs.groups {
                if group.degraded() {
                    self.emit(EventKind::QuorumDegraded {
                        case_id: case.id,
                        strict: group.strict,
                        healthy: group.present as u64,
                        total: group.total as u64,
                        voted: group.voted,
                    });
                }
            }
            match obs.outcome {
                CaseOutcome::ParseError | CaseOutcome::AllTimeout | CaseOutcome::NoQuorum => {}
                CaseOutcome::Pass => report.passes += 1,
                CaseOutcome::Deviations(devs) => {
                    report.deviations_observed += devs.len() as u64;
                    for dev_rec in devs {
                        self.emit(EventKind::Deviation {
                            case_id: case.id,
                            engine: dev_rec.engine.as_str().to_string(),
                            kind: dev_rec.kind.to_string(),
                        });
                        self.process_deviation(&case, &dev_rec, &mut tree, &dev, &mut report);
                    }
                }
            }
            self.progress.case_done(self.shard as usize);
            if case.origin == Origin::ProgramGen {
                // The base case runs before its mutants, and only they read
                // its program back, for mechanism attribution (bounded: drop
                // entries once the queue has drained).
                if self.base_programs.len() > 64 {
                    self.base_programs.clear();
                }
                self.base_programs.insert(case.base, case.program);
            }
        }
        if report.interrupted {
            // No ShardFinished / StageTiming emissions: the executor discards
            // an interrupted shard's event buffer, and on resume the shard
            // re-runs from scratch — a half-emitted tail would desync the
            // replayed stream from an uninterrupted run's.
            report.metrics = self.metrics.clone();
            report.health = tracker.reports();
            return report;
        }
        report.duplicates_filtered = tree.duplicates_filtered();
        let filter_stats = tree.stats();
        self.metrics.stage_mut(Stage::Filter).record(
            filter_stats.observed,
            filter_stats.duplicates,
            0,
        );
        for stage in Stage::ALL {
            let s = *self.metrics.stage(stage);
            self.emit(EventKind::StageTiming {
                stage,
                invocations: s.invocations,
                items: s.items,
                logical_cost: s.logical_cost,
                wall_nanos: Some(s.wall_nanos),
            });
        }
        self.emit(EventKind::ShardFinished {
            cases_run: report.cases_run,
            bugs_reported: report.bugs.len() as u64,
            wall_nanos: Some(run_start.elapsed().as_nanos() as u64),
        });
        self.progress.shard_finished(self.shard as usize);
        report.metrics = self.metrics.clone();
        report.health = tracker.reports();
        report
    }

    /// Counts `kind` into the shard's metrics, then records it: every
    /// event-backed counter moves here and nowhere else.
    fn emit(&mut self, kind: EventKind) {
        self.metrics.count(&kind);
        self.recorder.emit(kind);
    }

    fn process_deviation(
        &mut self,
        case: &TestCase,
        dev_rec: &DeviationRecord,
        tree: &mut BugTree,
        dev: &DeveloperModel,
        report: &mut CampaignReport,
    ) {
        let behavior = behavior_label(dev_rec);
        let provisional = BugKey {
            engine: dev_rec.engine,
            api: dominant_api(&case.program),
            behavior: behavior.clone(),
        };
        if tree.contains(&provisional) {
            tree.observe(&provisional); // count the duplicate
            self.emit(EventKind::BugDeduped {
                engine: provisional.engine.as_str().to_string(),
                key: provisional.to_string(),
                cross_shard: false,
            });
            return;
        }

        // Reduce the exposing test case (§3.5) against this deviation. The
        // final bug identity uses the *reduced* program, whose remaining API
        // call is the one actually involved in the bug.
        let (reduced, reduced_program) = if self.config.reduce_cases {
            let engine = dev_rec.engine;
            let opts = self.case_options();
            let reduce_start = std::time::Instant::now();
            let (program, reduce_stats) = reduce_counted(&case.program, &mut |p: &Program| {
                matches!(
                    run_differential(p, &self.testbeds, &opts),
                    CaseOutcome::Deviations(d) if d.iter().any(|r| r.engine == engine)
                )
            });
            self.metrics.stage_mut(Stage::Reduction).record(
                reduce_stats.candidates_tried,
                reduce_stats.removals_kept,
                reduce_start.elapsed().as_nanos() as u64,
            );
            (print_program(&program), program)
        } else {
            (case.source.clone(), case.program.clone())
        };
        let api = dominant_api(&reduced_program);
        let key = BugKey { engine: dev_rec.engine, api: api.clone(), behavior };
        tree.observe(&provisional);
        if key != provisional && !tree.observe(&key) {
            // The reduced identity collides with a known bug.
            self.emit(EventKind::BugDeduped {
                engine: key.engine.as_str().to_string(),
                key: key.to_string(),
                cross_shard: false,
            });
            return;
        }

        // Earliest-version attribution (Table 3).
        let earliest_version =
            earliest_affected_version(dev_rec, &case.program, &self.case_options());

        // Strict-only check: does the normal-mode group, voting alone, also
        // deviate?
        let strict_only = dev_rec.strict && {
            let normal: Vec<bool> = self.testbeds.iter().map(|t| !t.strict).collect();
            let opts = self.case_options();
            let outcome = run_differential_masked(&case.program, &self.testbeds, &normal, &opts);
            let engine = dev_rec.engine;
            !matches!(outcome, CaseOutcome::Deviations(d) if d.iter().any(|r| r.engine == engine))
        };

        let matched = match_seeded_bug(dev_rec, api.as_deref());
        let component = matched.map(|b| b.component).unwrap_or(match dev_rec.kind {
            DeviationKind::Timeout => Component::Optimizer,
            DeviationKind::Crash => Component::CodeGen,
            _ => Component::Implementation,
        });
        let api_type =
            matched.map(|b| b.api_type).unwrap_or_else(|| api_type_by_name(api.as_deref()));

        // Table 4 attribution: a bug first seen on a mutant still counts as
        // "test program generation" if the *unmutated* program already
        // triggers the same deviation — the ECMA-guided data was not needed.
        let mut origin = case.origin;
        if origin == Origin::EcmaMutation {
            if let Some(base_program) = self.base_programs.get(&case.base) {
                let base_deviates = matches!(
                    run_differential(base_program, &self.testbeds, &self.case_options()),
                    CaseOutcome::Deviations(d)
                        if d.iter().any(|r| r.engine == dev_rec.engine && r.kind == dev_rec.kind)
                );
                if base_deviates {
                    origin = Origin::ProgramGen;
                }
            }
        }

        let adjudication = dev.adjudicate(&key, origin, self.config.seed);
        self.metrics.bugs_reported += 1;
        self.progress.bug_found(self.shard as usize);
        report.bugs.push(BugReport {
            key,
            sim_hours: report.sim_hours,
            test_case: reduced,
            origin,
            earliest_version,
            kind: dev_rec.kind,
            strict_only,
            component,
            api_type,
            matched_bug: matched.map(|b| b.id),
            adjudication,
        });
    }
}

/// Finds the earliest version of the deviating engine that still deviates
/// from the expected signature (Table 3's attribution rule: "we only
/// attribute the discovered bugs to the earliest bug-exposing version").
fn earliest_affected_version(
    dev_rec: &DeviationRecord,
    program: &Program,
    options: &RunOptions,
) -> String {
    // One compile serves the whole version walk.
    let chunk = comfort_engines::compile(program);
    let options = options.to_builder().strict(dev_rec.strict).build();
    for version in versions_of(dev_rec.engine) {
        let engine = Engine::new(version);
        let r = engine.run_compiled(&chunk, &options);
        let sig = Signature::of(&r.status, &r.output);
        if sig == dev_rec.actual && sig != dev_rec.expected {
            return version.label();
        }
    }
    // Fall back to the version the deviation was seen on.
    dev_rec.version.clone()
}

/// Picks the API name to file the bug under: the first called API known to
/// the spec database, else the first standard-looking call, else `None`.
pub fn dominant_api(program: &Program) -> Option<String> {
    let names = comfort_syntax::visit::called_api_names(program);
    let db = comfort_ecma262::spec_db();
    names
        .iter()
        .find(|n| db.get_by_short_name(n).is_some())
        .or_else(|| {
            names.iter().find(|n| {
                shared_catalog()
                    .iter()
                    .any(|b| b.api.is_some_and(|api| api.rsplit('.').next() == Some(n.as_str())))
            })
        })
        .cloned()
}

/// Ground-truth linkage: the seeded catalog bug this deviation most likely
/// corresponds to (evaluation bookkeeping only).
fn match_seeded_bug(dev_rec: &DeviationRecord, api: Option<&str>) -> Option<&'static SeededBug> {
    let catalog = shared_catalog();
    // API-specific bugs first.
    if let Some(short) = api {
        if let Some(b) = catalog.iter().find(|b| {
            b.engine == dev_rec.engine && b.api.is_some_and(|a| a.rsplit('.').next() == Some(short))
        }) {
            return Some(b);
        }
    }
    // Special-hook bugs by behaviour.
    catalog.iter().find(|b| {
        b.engine == dev_rec.engine
            && b.api.is_none()
            && match dev_rec.kind {
                DeviationKind::Timeout => b.effect == comfort_engines::Effect::ArrayReverseFill,
                DeviationKind::Crash => b.effect == comfort_engines::Effect::Crash,
                _ => matches!(
                    b.effect,
                    comfort_engines::Effect::EvalHeadlessFor
                        | comfort_engines::Effect::SplitAnchor
                        | comfort_engines::Effect::ArrayBoolKeyAppend
                        | comfort_engines::Effect::DefinePropLengthSuppress
                ),
            }
    })
}

/// Table 5 classification when no catalog linkage exists.
fn api_type_by_name(api: Option<&str>) -> ApiType {
    let Some(name) = api else { return ApiType::NonApi };
    let db = comfort_ecma262::spec_db();
    let Some(spec) = db.get_by_short_name(name) else { return ApiType::NonApi };
    let full = &spec.name;
    if full.starts_with("String") {
        ApiType::String
    } else if full.starts_with("Array") {
        ApiType::Array
    } else if full.starts_with("Object") {
        ApiType::Object
    } else if full.starts_with("Number") || full == "parseInt" || full == "parseFloat" {
        ApiType::Number
    } else if full.contains("TypedArray") || full.ends_with("Array") && full.len() < 14 {
        ApiType::TypedArray
    } else if full.starts_with("DataView") {
        ApiType::DataView
    } else if full.starts_with("JSON") {
        ApiType::Json
    } else if full.starts_with("RegExp") {
        ApiType::RegExp
    } else if full.starts_with("Date") {
        ApiType::Date
    } else if full == "eval" {
        ApiType::Eval
    } else {
        ApiType::NonApi
    }
}

// ---------------------------------------------------------------------------
// Developer model
// ---------------------------------------------------------------------------

/// Stochastic stand-in for the human bug-triage process, calibrated to the
/// per-engine verify/fix ratios of Table 2 and the Table 4 Test262
/// acceptance split.
#[derive(Debug, Clone, Copy)]
pub struct DeveloperModel {
    /// Model seed (verdicts are a pure function of seed × bug identity).
    pub seed: u64,
}

impl DeveloperModel {
    /// Adjudicates one bug report.
    pub fn adjudicate(&self, key: &BugKey, origin: Origin, salt: u64) -> Adjudication {
        let mut hasher = DefaultHasher::new();
        (self.seed, salt, &key.api, &key.behavior, key.engine as u8).hash(&mut hasher);
        let mut rng = StdRng::seed_from_u64(hasher.finish());

        let (p_verify, p_fix) = engine_triage_rates(key.engine);
        let verified = rng.random_bool(p_verify);
        let fixed = verified && rng.random_bool(p_fix);
        let rejected = !verified && rng.random_bool(0.3); // 9 of 29 unverified
                                                          // Table 4: 16/61 ECMA-guided cases reached Test262 vs 5/97 generated.
        let p_262 = match origin {
            Origin::EcmaMutation => 0.26,
            Origin::ProgramGen => 0.05,
        };
        let accepted_test262 = verified && rng.random_bool(p_262);
        // 109 of 158 were newly discovered.
        let novel = rng.random_bool(109.0 / 158.0);
        Adjudication { verified, fixed, rejected, accepted_test262, novel }
    }
}

/// (P(verified | submitted), P(fixed | verified)) per engine, from Table 2.
fn engine_triage_rates(engine: EngineName) -> (f64, f64) {
    match engine {
        EngineName::V8 => (1.0, 0.75),
        EngineName::ChakraCore => (1.0, 0.71),
        EngineName::Jsc => (11.0 / 12.0, 1.0),
        EngineName::SpiderMonkey => (1.0, 1.0),
        EngineName::Rhino => (29.0 / 44.0, 1.0),
        EngineName::Nashorn => (12.0 / 18.0, 2.0 / 12.0), // EOL June 2020
        EngineName::Hermes => (1.0, 15.0 / 16.0),
        EngineName::JerryScript => (31.0 / 35.0, 1.0),
        EngineName::QuickJs => (14.0 / 17.0, 1.0),
        EngineName::GraalJs => (1.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CampaignConfig {
        // Seed chosen so the 120-case stream actually trips seeded engine
        // bugs; some seeds (e.g. 11, 13) happen to produce a bug-free stream
        // at this budget, which would make the discovery assertions vacuous.
        CampaignConfig::builder()
            .seed(2)
            .corpus_programs(80)
            .lm(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 })
            .datagen(DataGenConfig { max_mutants_per_program: 10, random_mutants: 2 })
            .max_cases(120)
            .fuel(200_000)
            .sim_seconds_per_case(2.88)
            .include_strict(false)
            .include_legacy(false)
            .reduce_cases(false)
            .keep_invalid_fraction(0.2)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn small_campaign_finds_bugs() {
        let mut campaign = Campaign::new(tiny_config());
        let report = campaign.run();
        assert_eq!(report.cases_run, 120);
        assert!(
            !report.bugs.is_empty(),
            "a 120-case campaign should surface at least one seeded bug"
        );
        // Unique keys only.
        let mut keys: Vec<String> = report.bugs.iter().map(|b| b.key.to_string()).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "bug reports must be dedup'd");
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = Campaign::new(tiny_config()).run();
        let b = Campaign::new(tiny_config()).run();
        assert_eq!(a.cases_run, b.cases_run);
        assert_eq!(a.bugs.len(), b.bugs.len());
        let ka: Vec<String> = a.bugs.iter().map(|x| x.key.to_string()).collect();
        let kb: Vec<String> = b.bugs.iter().map(|x| x.key.to_string()).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn developer_model_is_deterministic_and_calibrated() {
        let dev = DeveloperModel { seed: 1 };
        let key = BugKey {
            engine: EngineName::Rhino,
            api: Some("substr".into()),
            behavior: "WrongOutput".into(),
        };
        assert_eq!(
            dev.adjudicate(&key, Origin::EcmaMutation, 0),
            dev.adjudicate(&key, Origin::EcmaMutation, 0)
        );
        // Aggregate rates over many synthetic bugs approximate Table 2.
        let mut verified = 0;
        let mut n = 0;
        for i in 0..400 {
            let k = BugKey {
                engine: EngineName::Rhino,
                api: Some(format!("api{i}")),
                behavior: "WrongOutput".into(),
            };
            if dev.adjudicate(&k, Origin::ProgramGen, 0).verified {
                verified += 1;
            }
            n += 1;
        }
        let rate = verified as f64 / n as f64;
        assert!((rate - 29.0 / 44.0).abs() < 0.1, "verify rate {rate}");
    }

    #[test]
    fn dominant_api_prefers_spec_known_calls() {
        let program = parse("var r = customThing(1); print('x'.substr(0));").expect("parses");
        assert_eq!(dominant_api(&program).as_deref(), Some("substr"));
        let none = parse("var x = 1 + 2; print(x);").expect("parses");
        assert_eq!(dominant_api(&none), None);
    }

    #[test]
    fn figure2_end_to_end_discovery() {
        // Feed the exact Figure 2 case through deviation processing.
        let mut campaign = Campaign::new(CampaignConfig {
            reduce_cases: true,
            include_strict: false,
            ..tiny_config()
        });
        let source = "var s = 'Name: Albert';\nvar junk = [1, 2, 3].join('-');\nprint(junk);\nvar len = undefined;\nprint(s.substr(6, len));";
        let program = parse(source).expect("parses");
        let case = TestCase::new(0, source.to_string(), program, Origin::EcmaMutation, 0);
        let mut tree = BugTree::new();
        let devmodel = DeveloperModel { seed: 3 };
        let mut report = CampaignReport::default();
        let outcome =
            run_differential(&case.program, &campaign.testbeds, &RunOptions::with_fuel(200_000));
        let CaseOutcome::Deviations(devs) = outcome else { panic!("expected deviation") };
        for d in devs {
            campaign.process_deviation(&case, &d, &mut tree, &devmodel, &mut report);
        }
        assert_eq!(report.bugs.len(), 1);
        let bug = &report.bugs[0];
        assert_eq!(bug.key.engine, EngineName::Rhino);
        assert_eq!(bug.key.api.as_deref(), Some("substr"));
        assert_eq!(bug.origin, Origin::EcmaMutation);
        // The reducer must have stripped the junk statements.
        assert!(!bug.test_case.contains("junk"), "{}", bug.test_case);
        // Ground truth: this is catalog bug B000 (the Figure 2 Rhino bug).
        assert_eq!(bug.matched_bug, Some(comfort_engines::BugId(0)));
        // The substr bug exists in every Rhino version; earliest is v1.7R3.
        assert!(bug.earliest_version.contains("1.7R3"), "{}", bug.earliest_version);
    }
}
