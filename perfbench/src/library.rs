//! The `explore` and `triage` workloads: `CampaignSession::run` in-process.
//!
//! The untraced run times whole campaigns. The traced run replays each
//! shard's case stream — same shard seed, same RNG draw order — through
//! the public calls `Campaign::run` makes, with a span around each, and
//! proves the replay faithful by comparing its counters and bug keys with
//! the library's own report for the same seed.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use comfort_core::campaign::{
    dominant_api, testbeds_for, BugReport, CampaignConfig, CampaignReport, DeveloperModel,
};
use comfort_core::checkpoint::report_checksum;
use comfort_core::datagen::DataGen;
use comfort_core::differential::{run_differential, CaseOutcome, DeviationKind, DeviationRecord};
use comfort_core::executor::{merge_shard_reports, plan_shards, shard_seed, ShardSpec};
use comfort_core::filter::{BugKey, BugTree};
use comfort_core::reduce::reduce_counted;
use comfort_core::resilience::{run_case_hardened, HealthTracker};
use comfort_core::session::CampaignSession;
use comfort_core::testcase::{Origin, TestCase};
use comfort_engines::{compile, versions_of, ApiType, Component, Engine, RunOptions, Testbed};
use comfort_lm::{Generator, GeneratorConfig};
use comfort_syntax::{parse, print_program, Program};
use comfort_telemetry::{
    CampaignMetrics, EventKind, JsonValue, MemorySink, Recorder, SinkHandle, Stage,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{median, Profile, Span, Tracer, NO_CASE};
use crate::Workload;
use crate::{osstat, per_layer_metrics, secs, width, Args, Checks, LayerCounts, Outcome, Sample};

/// Untraced/traced campaign pairs in a traced run (one per campaign of
/// the cycle, from the first).
const TRACE_PAIRS: usize = 3;

/// Distinct campaigns per run. Each has its own seed, so its own corpus,
/// language model and case stream: one seed's campaign finds a different
/// mix of bugs at a different cost, and a cycle of several keeps the
/// per-run figures steady from one `--seed` to the next.
pub fn cycle(workload: Workload) -> usize {
    match workload {
        Workload::Explore => 8,
        Workload::Triage => 12,
        Workload::Service => unreachable!("the service workload runs through the daemon"),
    }
}

/// Training-corpus size of the small language model.
pub const SMALL_CORPUS: usize = 80;

/// The small language model of the daemon's test suites: a fraction of
/// the default's training time.
pub fn small_lm() -> GeneratorConfig {
    GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 }
}

/// Campaign `k` of the workload's cycle: library defaults except seed,
/// budget, shard size, testbed matrix and reduction.
pub fn config(workload: Workload, seed: u64, k: usize) -> CampaignConfig {
    let builder = CampaignConfig::builder().seed(shard_seed(seed, k as u64));
    let builder = match workload {
        // The steady generation phase: ten latest-version testbeds, no
        // reduction, no journal, four shards per thread.
        Workload::Explore => builder
            .max_cases(6_000)
            .shard_cases(750)
            .include_strict(false)
            .include_legacy(false)
            .reduce_cases(false),
        // Triage: the wide matrix, reduction on, and small shards that each
        // rediscover and reduce their own bugs. After reduction the few
        // reports with no catalog match are the same three keys in almost
        // every campaign of the small language model, which keeps their
        // count steady from seed to seed.
        Workload::Triage => builder
            .corpus_programs(SMALL_CORPUS)
            .lm(small_lm())
            .max_cases(2_000)
            .shard_cases(250)
            .include_strict(true)
            .include_legacy(true)
            .reduce_cases(true),
        Workload::Service => unreachable!("the service workload runs through the daemon"),
    };
    builder.build().expect("workload config is valid")
}

/// The deterministic view of a report: everything a run must reproduce
/// exactly at every thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub checksum: u64,
    pub cases: u64,
    pub catalog_bugs: usize,
    pub unexplained_reports: usize,
    pub logical_runs: u64,
    pub physical_runs: u64,
    pub reduce_candidates: u64,
}

impl Counts {
    pub fn of(report: &CampaignReport) -> Counts {
        let diff = report.metrics.stage(Stage::Differential);
        Counts {
            checksum: report_checksum(report),
            cases: report.cases_run,
            catalog_bugs: catalog_bugs(report).len(),
            unexplained_reports: report.bugs.iter().filter(|b| b.matched_bug.is_none()).count(),
            logical_runs: diff.items,
            physical_runs: diff.items - report.metrics.executions_saved,
            reduce_candidates: report.metrics.stage(Stage::Reduction).items,
        }
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("checksum", JsonValue::from(format!("{:016x}", self.checksum))),
            ("cases", JsonValue::Int(i128::from(self.cases))),
            ("catalog_bugs", JsonValue::Int(self.catalog_bugs as i128)),
            ("unexplained_reports", JsonValue::Int(self.unexplained_reports as i128)),
            ("logical_runs", JsonValue::Int(i128::from(self.logical_runs))),
            ("physical_runs", JsonValue::Int(i128::from(self.physical_runs))),
            ("reduce_candidates", JsonValue::Int(i128::from(self.reduce_candidates))),
        ])
    }
}

/// Distinct seeded catalog bugs a report found.
pub fn catalog_bugs(report: &CampaignReport) -> BTreeSet<u32> {
    report.bugs.iter().filter_map(|b| b.matched_bug.map(|id| id.0)).collect()
}

pub fn run(args: &Args) -> Outcome {
    let threads = width();
    let campaigns = if args.trace { TRACE_PAIRS } else { cycle(args.workload) };
    let configs: Vec<CampaignConfig> =
        (0..campaigns).map(|k| config(args.workload, args.seed, k)).collect();
    let mut checks = Checks::default();

    // Set-up, once per campaign of the cycle: corpus + LM training +
    // testbed matrix.
    let mut setup = Vec::new();
    let sessions: Vec<CampaignSession> = configs
        .iter()
        .map(|config| {
            let start = Instant::now();
            let session = CampaignSession::new(config.clone());
            session.executor();
            setup.push(secs(start));
            session
        })
        .collect();

    // The references: each campaign on one thread (two references at a
    // time; they are not timed).
    let references: Vec<CampaignReport> = crate::par_map(&sessions, |s| {
        s.run_with_threads(1).expect("a journal-free run cannot fail")
    });
    let expected: Vec<Counts> = references.iter().map(Counts::of).collect();
    // One untimed warm-up; the first parallel run of a process is slower.
    let warm = Counts::of(&sessions[0].run_with_threads(threads).expect("journal-free run"));
    checks.require(warm == expected[0], || {
        format!("warm-up {warm:?} != reference {:?}", expected[0])
    });

    let mut info =
        vec![("references", JsonValue::Array(expected.iter().map(Counts::to_json).collect()))];
    let metrics = if args.trace {
        traced(args, &configs, &sessions, &references, &mut checks, &mut info)
    } else {
        timed(args, &sessions, &references, &mut checks, &mut info, median(&setup))
    };
    Outcome { checks, metrics, info }
}

/// The untraced timed loop, cycling through the campaigns until the run
/// time is up, in whole cycles so that every campaign counts the same
/// number of times: end-to-end metrics.
fn timed(
    args: &Args,
    sessions: &[CampaignSession],
    references: &[CampaignReport],
    checks: &mut Checks,
    info: &mut Vec<(&'static str, JsonValue)>,
    setup_s: f64,
) -> Vec<crate::Metric> {
    let threads = width();
    let expected: Vec<Counts> = references.iter().map(Counts::of).collect();
    let extra = crate::count_only_campaigns(sessions.len());
    let counted = crate::par_map(&extra, |&k| {
        let session = CampaignSession::new(config(args.workload, args.seed, k));
        Counts::of(&session.run_with_threads(1).expect("a journal-free run cannot fail"))
    });
    info.push(("count_only", JsonValue::Array(counted.iter().map(Counts::to_json).collect())));
    let mut samples = Vec::new();
    osstat::reset_peak_rss();
    let ticks = osstat::cpu_ticks();
    let start = Instant::now();
    while !crate::cycle_done(samples.len(), sessions.len(), start, args.seconds) {
        let k = samples.len() % sessions.len();
        let cpu0 = osstat::cpu_seconds();
        let t0 = Instant::now();
        let report = sessions[k].run_with_threads(threads).expect("journal-free run");
        samples.push(Sample { campaign: k, wall: secs(t0), cpu: osstat::cpu_seconds() - cpu0 });
        let got = Counts::of(&report);
        checks.attempt(got == expected[k], || {
            format!("campaign {k}: {got:?} != reference {:?}", expected[k])
        });
    }
    info.push(("host_steal_share", osstat::steal_share_since(ticks).into()));
    info.extend(crate::sample_info(&samples));
    let counted: Vec<Counts> = expected.iter().cloned().chain(counted).collect();
    crate::end_to_end(setup_s, &samples, &expected, &counted, osstat::peak_rss_kib())
}

/// The traced run: for each campaign, an untraced run and then a traced
/// replay over a set-up traced call by call. Writes the span file and the
/// layer table.
fn traced(
    args: &Args,
    configs: &[CampaignConfig],
    sessions: &[CampaignSession],
    references: &[CampaignReport],
    checks: &mut Checks,
    info: &mut Vec<(&'static str, JsonValue)>,
) -> Vec<crate::Metric> {
    let threads = width();
    let mut setup = Profile::default();
    let mut profile = Profile::default();
    let (mut untraced, mut traced, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    for ((config, session), reference) in configs.iter().zip(sessions).zip(references) {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let root = t.open("executor.setup", NO_CASE);
        let corpus = t.time("lm.corpus", NO_CASE, || {
            comfort_corpus::training_corpus(config.seed, config.corpus_programs)
        });
        let generator =
            t.time("lm.train", NO_CASE, || Generator::train(&corpus, config.lm.clone()));
        let testbeds = t.time("differential.testbeds", NO_CASE, || testbeds_for(config));
        t.close(root);
        setup.add_pass(vec![t.into_spans()], epoch.elapsed().as_nanos() as u64, 1);

        let cpu0 = osstat::cpu_seconds();
        let t0 = Instant::now();
        let report = session.run_with_threads(threads).expect("journal-free run");
        let wall = secs(t0);
        busy.push((osstat::cpu_seconds() - cpu0) / (wall * threads as f64));
        untraced.push(wall);
        checks.require(Counts::of(&report) == Counts::of(reference), || {
            "untraced campaign differs from the reference".to_string()
        });

        let replay = Replay { config, generator: &generator, testbeds: &testbeds };
        let (spans, wall_ns, merged) = replay.pass(threads);
        traced.push(wall_ns as f64 * 1e-9);
        profile.add_pass(spans, wall_ns, threads);
        let (got, want) = (counters_only(&merged.metrics), counters_only(&reference.metrics));
        checks.attempt(got == want, || {
            format!(
                "traced replay counters differ from the library's:\n  replay  {}\n  library {}",
                got.to_json(),
                want.to_json()
            )
        });
        let keys =
            |r: &CampaignReport| r.bugs.iter().map(|b| b.key.to_string()).collect::<Vec<_>>();
        checks.require(keys(&merged) == keys(reference), || {
            format!(
                "traced replay bug keys differ ({} vs {})",
                merged.bugs.len(),
                reference.bugs.len()
            )
        });
        checks.require(merged.cases_run == reference.cases_run, || {
            "traced replay ran a different number of cases".to_string()
        });
    }

    let overhead_s = median(&traced) - median(&untraced);
    let physical_runs: u64 = references.iter().map(|r| Counts::of(r).physical_runs).sum();
    let counts = LayerCounts {
        lm_train_s: setup.p50("lm.train", 1e9),
        differential_us_per_physical_run: profile.total_s("differential.case") * 1e6
            / physical_runs as f64,
        executor_busy_share: median(&busy),
        executor_shards: plan_shards(&configs[0]).len() as f64,
        overhead_s,
        overhead_share: overhead_s / median(&untraced),
        ..counter_ratios(references.iter().map(|r| &r.metrics))
    };
    let table = JsonValue::object([
        ("workload", JsonValue::from(args.workload.name())),
        ("seed", JsonValue::Int(i128::from(args.seed))),
        ("setup", setup.to_json()),
        ("campaign", profile.to_json()),
        ("untraced_wall_s", JsonValue::Array(untraced.iter().map(|&w| w.into()).collect())),
        ("traced_wall_s", JsonValue::Array(traced.iter().map(|&w| w.into()).collect())),
    ]);
    crate::write_trace_files(args, &table, &profile, checks);
    info.push(("trace_pairs", JsonValue::from(configs.len())));
    per_layer_metrics(&profile, &counts)
}

/// Per-layer ratios of the campaign counters (summed over `metrics`).
pub fn counter_ratios<'m>(metrics: impl IntoIterator<Item = &'m CampaignMetrics>) -> LayerCounts {
    let mut m = CampaignMetrics::default();
    for each in metrics {
        m.merge_from(each);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let generation = m.stage(Stage::Generation);
    let datagen = m.stage(Stage::Datagen);
    let diff = m.stage(Stage::Differential);
    let reduction = m.stage(Stage::Reduction);
    let filter = m.stage(Stage::Filter);
    LayerCounts {
        lm_bytes_per_generate: ratio(generation.logical_cost, generation.invocations),
        syntax_reject_share: ratio(m.cases_rejected, generation.invocations),
        datagen_cases_per_base: ratio(datagen.items, datagen.invocations),
        differential_logical_runs_per_case: ratio(diff.items, diff.invocations),
        differential_physical_runs_per_case: ratio(
            diff.items - m.executions_saved,
            diff.invocations,
        ),
        reduce_candidates_per_bug: ratio(reduction.items, reduction.invocations),
        reduce_kept_share: ratio(reduction.logical_cost, reduction.items),
        filter_duplicate_share: ratio(filter.logical_cost, filter.items),
        ..LayerCounts::default()
    }
}

/// Campaign counters with every wall-clock field zeroed. Unlike
/// `CampaignMetrics::without_wall_clock` this keeps the dedup counters,
/// so physical runs are compared too.
fn counters_only(metrics: &CampaignMetrics) -> CampaignMetrics {
    let mut m = metrics.clone();
    for stage in &mut m.stages {
        stage.wall_nanos = 0;
    }
    m
}

/// A traced replay of the sharded executor over one trained generator and
/// testbed matrix.
struct Replay<'a> {
    config: &'a CampaignConfig,
    generator: &'a Generator,
    testbeds: &'a [Testbed],
}

impl Replay<'_> {
    /// Runs every shard on `threads` workers claiming shards in plan order,
    /// then merges in shard order. Returns each thread's spans, the pass
    /// wall time and the merged report.
    fn pass(&self, threads: usize) -> (Vec<Vec<Span>>, u64, CampaignReport) {
        let plan = plan_shards(self.config);
        let workers = threads.clamp(1, plan.len());
        let per_shard_threads = (threads / workers).max(1);
        let slots: Vec<Mutex<Option<CampaignReport>>> =
            plan.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let epoch = Instant::now();
        let mut spans: Vec<Vec<Span>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut t = Tracer::new(epoch);
                        let root = t.open("executor.worker", NO_CASE);
                        loop {
                            let p = next.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = plan.get(p) else { break };
                            let report = self.shard(spec, per_shard_threads, &mut t);
                            *slots[p].lock().expect("slot lock") = Some(report);
                        }
                        t.close(root);
                        t.into_spans()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("traced worker panicked")).collect()
        });
        let reports: Vec<CampaignReport> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot lock").expect("every shard ran"))
            .collect();
        let mut t = Tracer::new(epoch);
        let merged = t.time("executor.merge", NO_CASE, || merge_shard_reports(&reports));
        let wall_ns = epoch.elapsed().as_nanos() as u64;
        spans.push(t.into_spans());
        (spans, wall_ns, merged)
    }

    /// One shard, call for call as `Campaign::run` makes them. Events go
    /// to a buffer that is dropped, as the executor flushes them to the
    /// configured (null) sink. No fault is injected in these workloads, so
    /// the fault, retry and quarantine events never fire and are left out;
    /// their counters are still kept.
    fn shard(&self, spec: &ShardSpec, exec_threads: usize, t: &mut Tracer) -> CampaignReport {
        let mut config = self.config.clone();
        config.seed = spec.seed;
        config.max_cases = spec.cases;
        let shard_span = t.open("executor.shard", NO_CASE);
        let buffer = MemorySink::new();
        let mut recorder = Recorder::new(SinkHandle::new(buffer.clone()), spec.index as u64);
        let mut state = ShardState {
            rng: StdRng::seed_from_u64(config.seed ^ 0x5EED),
            metrics: CampaignMetrics::new(),
            report: CampaignReport::default(),
            tree: BugTree::new(),
            base_programs: HashMap::new(),
        };
        let datagen = DataGen::new(comfort_ecma262::spec_db(), config.datagen.clone());
        let mut tracker = HealthTracker::new(self.testbeds, config.exec.quarantine_after)
            .with_probe(config.exec.probe_after);
        let options = RunOptions::builder().fuel(config.fuel).backend(config.backend).build();
        let dev = DeveloperModel { seed: config.seed };
        recorder
            .emit(EventKind::ShardStarted { seed: config.seed, case_budget: spec.cases as u64 });

        let mut queue: VecDeque<TestCase> = VecDeque::new();
        let (mut base_counter, mut next_case_id) = (0u64, 0u64);
        while (state.report.cases_run as usize) < config.max_cases {
            if queue.is_empty() {
                let source =
                    t.time("lm.generate", NO_CASE, || self.generator.generate(&mut state.rng));
                base_counter += 1;
                state.metrics.stage_mut(Stage::Generation).record(1, source.len() as u64, 0);
                let parsed = t.time("syntax.parse", NO_CASE, || parse(&source));
                state.metrics.stage_mut(Stage::Validity).record(1, source.len() as u64, 0);
                let Ok(program) = parsed else {
                    let kept = state.rng.random_bool(config.keep_invalid_fraction);
                    state.metrics.cases_rejected += 1;
                    recorder.emit(EventKind::CaseRejected { base: base_counter, kept });
                    if kept {
                        state.report.cases_run += 1;
                        state.report.parse_errors += 1;
                        state.report.sim_hours += config.sim_seconds_per_case / 3600.0;
                        state.metrics.cases_run += 1;
                    }
                    continue;
                };
                let (base, mutants) = t.time("datagen.mutate", next_case_id, || {
                    let base = datagen.base_case(
                        &program,
                        base_counter,
                        &mut next_case_id,
                        &mut state.rng,
                    );
                    let mutants = datagen.mutate(
                        &base.program,
                        base_counter,
                        &mut next_case_id,
                        &mut state.rng,
                    );
                    (base, mutants)
                });
                let n = mutants.len() as u64;
                state.metrics.stage_mut(Stage::Datagen).record(1 + n, n, 0);
                state.metrics.cases_generated += 1 + n;
                for c in std::iter::once(&base).chain(mutants.iter()) {
                    recorder.emit(EventKind::CaseGenerated {
                        case_id: c.id,
                        base: c.base,
                        origin: c.origin.slug().to_string(),
                        mutant: c.origin == Origin::EcmaMutation,
                    });
                }
                if state.base_programs.len() > 64 {
                    state.base_programs.clear();
                }
                state.base_programs.insert(base_counter, base.program.clone());
                queue.push_back(base);
                queue.extend(mutants);
            }
            let case = queue.pop_front().expect("queue refilled above");
            // Compile probe: `run_case_hardened` compiles internally, so the
            // compile is timed here on its own as well (this work is extra
            // and shows up in the tracing overhead).
            t.time("interp.compile", case.id, || compile(&case.program));
            let obs = t.time("differential.case", case.id, || {
                run_case_hardened(
                    &case.program,
                    self.testbeds,
                    &options,
                    exec_threads,
                    &config.exec,
                    &mut tracker,
                )
            });
            state.report.cases_run += 1;
            state.report.sim_hours += config.sim_seconds_per_case / 3600.0;
            let m = &mut state.metrics;
            m.cases_run += 1;
            m.stage_mut(Stage::Differential).record(
                obs.active_runs as u64,
                obs.active_runs as u64,
                0,
            );
            let outcome_label = match &obs.outcome {
                CaseOutcome::ParseError => "parse-error",
                CaseOutcome::AllTimeout => "all-timeout",
                CaseOutcome::Pass => "pass",
                CaseOutcome::Deviations(_) => "deviations",
                CaseOutcome::NoQuorum => "no-quorum",
            };
            recorder.emit(EventKind::DifferentialRun {
                case_id: case.id,
                testbeds: obs.active_runs as u64,
                outcome: outcome_label.to_string(),
            });
            if obs.active_runs > obs.physical_runs {
                let saved = (obs.active_runs - obs.physical_runs) as u64;
                m.executions_saved += saved;
                m.equivalence_classes += obs.classes as u64;
                recorder.emit(EventKind::ExecutionDeduped {
                    case_id: case.id,
                    classes: obs.classes as u64,
                    saved,
                });
            }
            m.faults_observed += obs.faults.len() as u64;
            m.runs_retried += obs.retried.len() as u64;
            m.runs_skipped += obs.skipped_runs as u64;
            m.testbeds_quarantined += obs.quarantined.len() as u64;
            m.testbeds_reinstated += obs.reinstated.len() as u64;
            m.quorum_degraded += obs.groups.iter().filter(|g| g.degraded()).count() as u64;
            match obs.outcome {
                CaseOutcome::ParseError | CaseOutcome::AllTimeout | CaseOutcome::NoQuorum => {}
                CaseOutcome::Pass => state.report.passes += 1,
                CaseOutcome::Deviations(devs) => {
                    state.report.deviations_observed += devs.len() as u64;
                    state.metrics.deviations_observed += devs.len() as u64;
                    for dev_rec in devs {
                        recorder.emit(EventKind::Deviation {
                            case_id: case.id,
                            engine: dev_rec.engine.as_str().to_string(),
                            kind: dev_rec.kind.to_string(),
                        });
                        self.deviation(
                            &config,
                            &options,
                            &case,
                            &dev_rec,
                            &dev,
                            &mut state,
                            &mut recorder,
                            t,
                        );
                    }
                }
            }
        }

        let ShardState { mut metrics, mut report, tree, .. } = state;
        report.duplicates_filtered = tree.duplicates_filtered();
        let filter_stats = tree.stats();
        metrics.stage_mut(Stage::Filter).record(filter_stats.observed, filter_stats.duplicates, 0);
        for stage in Stage::ALL {
            let s = *metrics.stage(stage);
            recorder.emit(EventKind::StageTiming {
                stage,
                invocations: s.invocations,
                items: s.items,
                logical_cost: s.logical_cost,
                wall_nanos: Some(s.wall_nanos),
            });
        }
        recorder.emit(EventKind::ShardFinished {
            cases_run: report.cases_run,
            bugs_reported: report.bugs.len() as u64,
            wall_nanos: Some(0),
        });
        buffer.take();
        report.metrics = metrics;
        report.health = tracker.reports();
        t.close(shard_span);
        report
    }

    /// `Campaign::process_deviation`: dedup, reduction, attribution.
    /// Catalog linkage (`matched_bug`, component, API type) is
    /// evaluation-only bookkeeping and is left empty here.
    #[allow(clippy::too_many_arguments)]
    fn deviation(
        &self,
        config: &CampaignConfig,
        options: &RunOptions,
        case: &TestCase,
        dev_rec: &DeviationRecord,
        dev: &DeveloperModel,
        state: &mut ShardState,
        recorder: &mut Recorder,
        t: &mut Tracer,
    ) {
        let behavior = behavior_label(dev_rec);
        let dedup = |key: &BugKey, recorder: &mut Recorder, state: &mut ShardState| {
            state.metrics.bugs_deduped += 1;
            recorder.emit(EventKind::BugDeduped {
                engine: key.engine.as_str().to_string(),
                key: key.to_string(),
                cross_shard: false,
            });
        };
        let (provisional, known) = t.time("filter.dedup", case.id, || {
            let key = BugKey {
                engine: dev_rec.engine,
                api: dominant_api(&case.program),
                behavior: behavior.clone(),
            };
            let known = state.tree.contains(&key);
            if known {
                state.tree.observe(&key);
            }
            (key, known)
        });
        if known {
            dedup(&provisional, recorder, state);
            return;
        }

        let (reduced, reduced_program) = if config.reduce_cases {
            let engine = dev_rec.engine;
            let (program, stats) = t.time("reduce.case", case.id, || {
                reduce_counted(&case.program, &mut |p: &Program| {
                    matches!(
                        run_differential(p, self.testbeds, options),
                        CaseOutcome::Deviations(d) if d.iter().any(|r| r.engine == engine)
                    )
                })
            });
            state.metrics.stage_mut(Stage::Reduction).record(
                stats.candidates_tried,
                stats.removals_kept,
                0,
            );
            (print_program(&program), program)
        } else {
            (case.source.clone(), case.program.clone())
        };
        let (key, fresh) = t.time("filter.dedup", case.id, || {
            let key =
                BugKey { engine: dev_rec.engine, api: dominant_api(&reduced_program), behavior };
            state.tree.observe(&provisional);
            let fresh = key == provisional || state.tree.observe(&key);
            (key, fresh)
        });
        if !fresh {
            dedup(&key, recorder, state);
            return;
        }

        let attribute = t.open("differential.attribute", case.id);
        let earliest_version = earliest_affected_version(dev_rec, &case.program, options);
        let strict_only = dev_rec.strict && {
            let normal: Vec<Testbed> =
                self.testbeds.iter().filter(|t| !t.strict).cloned().collect();
            !matches!(
                run_differential(&case.program, &normal, options),
                CaseOutcome::Deviations(d) if d.iter().any(|r| r.engine == dev_rec.engine)
            )
        };
        let mut origin = case.origin;
        if origin == Origin::EcmaMutation {
            if let Some(base_program) = state.base_programs.get(&case.base) {
                let base_deviates = matches!(
                    run_differential(base_program, self.testbeds, options),
                    CaseOutcome::Deviations(d)
                        if d.iter().any(|r| r.engine == dev_rec.engine && r.kind == dev_rec.kind)
                );
                if base_deviates {
                    origin = Origin::ProgramGen;
                }
            }
        }
        t.close(attribute);

        let adjudication = dev.adjudicate(&key, origin, config.seed);
        state.metrics.bugs_reported += 1;
        state.report.bugs.push(BugReport {
            key,
            sim_hours: state.report.sim_hours,
            test_case: reduced,
            origin,
            earliest_version,
            kind: dev_rec.kind,
            strict_only,
            component: Component::Implementation,
            api_type: ApiType::NonApi,
            matched_bug: None,
            adjudication,
        });
    }
}

/// Per-shard state of the replayed campaign loop.
struct ShardState {
    rng: StdRng,
    metrics: CampaignMetrics,
    report: CampaignReport,
    tree: BugTree,
    base_programs: HashMap<u64, Program>,
}

/// The filter tree's behaviour label, as the campaign derives it.
fn behavior_label(dev_rec: &DeviationRecord) -> String {
    match dev_rec.kind {
        DeviationKind::UnexpectedError => dev_rec.actual.to_string(),
        DeviationKind::MissingError => format!("Missing{}", dev_rec.expected),
        DeviationKind::WrongOutput => "WrongOutput".to_string(),
        DeviationKind::Crash => "Crash".to_string(),
        DeviationKind::Timeout => "TimeOut".to_string(),
    }
}

/// Table 3's attribution walk: the earliest version of the deviating
/// engine that still deviates.
fn earliest_affected_version(
    dev_rec: &DeviationRecord,
    program: &Program,
    options: &RunOptions,
) -> String {
    let chunk = compile(program);
    let options = options.to_builder().strict(dev_rec.strict).build();
    for version in versions_of(dev_rec.engine) {
        let r = Engine::new(version).run_compiled(&chunk, &options);
        let sig = comfort_core::differential::Signature::of(&r.status, &r.output);
        if sig == dev_rec.actual && sig != dev_rec.expected {
            return version.label();
        }
    }
    dev_rec.version.clone()
}
