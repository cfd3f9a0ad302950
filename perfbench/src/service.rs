//! The `service` workload: the submit-to-report path of `comfortd`.
//!
//! Two tenants take turns submitting campaigns to an in-process `Daemon`
//! with `IsolationMode::Processes`; each shard runs in a jailed child that
//! re-executes this binary as `--worker-once`. Each campaign has its own
//! seed and its own checkpoint journal, and the next one is submitted only
//! when the previous report is final.
//!
//! A traced campaign is one whose journal has a `<journal>.spans`
//! directory beside it: its children then run the worker's steps one call
//! at a time and leave their spans there. The supervisor's side comes
//! from the daemon's own service events, stamped on arrival by a sink
//! installed here.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use comfort_core::campaign::{testbeds_for, Campaign, CampaignReport};
use comfort_core::checkpoint::{
    report_to_json, CampaignCheckpoint, CheckpointJournal, ShardRecord,
};
use comfort_core::executor::{plan_shards, shard_seed};
use comfort_core::session::CampaignSession;
use comfort_lm::Generator;
use comfort_service::daemon::{CampaignState, Daemon, IsolationMode, ServiceConfig};
use comfort_service::fleet::ProcessJail;
use comfort_service::spec::CampaignSpec;
use comfort_service::worker::{run_worker_once, WorkerError, WorkerOnceOptions};
use comfort_telemetry::{
    Event, EventKind, JsonValue, MemorySink, ProgressHandle, Sink, SinkHandle,
};

use crate::library::{Counts, SMALL_CORPUS};
use crate::trace::{median, spans_from_text, spans_to_text, Profile, Span, Tracer, NO_CASE};
use crate::{osstat, per_layer_metrics, secs, width, Args, Checks, Outcome, Sample};

/// Distinct campaigns in one cycle (tenants alternate between them).
const SPECS: usize = 6;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Untraced/traced campaign pairs in a traced run.
const TRACE_PAIRS: usize = 3;
/// Daemon starts per run; `setup_s` is their median. A start takes about
/// 0.1 ms, so it takes many for a steady median.
const SETUP_REPS: usize = 31;
/// A campaign that is not terminal by then counts as failed.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(120);
/// Spans a traced worker child writes.
const CHILD_SPANS: [&str; 8] = [
    "fleet.child_main",
    "fleet.child_setup",
    "lm.corpus",
    "lm.train",
    "differential.testbeds",
    "checkpoint.open",
    "executor.run_shard",
    "checkpoint.append",
];

/// Campaign `k` of the cycle: its own seed, the library's language model
/// on the small corpus (every child retrains it), 4000 cases in two
/// shards over the latest-version testbeds.
fn spec(seed: u64, k: usize, journal: &Path) -> CampaignSpec {
    CampaignSpec {
        name: Some(format!("perfbench-{k}")),
        seed: Some(shard_seed(seed, k as u64)),
        corpus_programs: Some(SMALL_CORPUS),
        max_cases: Some(4_000),
        shard_cases: Some(2_000),
        include_strict: Some(false),
        include_legacy: Some(false),
        reduce_cases: Some(false),
        checkpoint: Some(journal.display().to_string()),
        ..CampaignSpec::for_tenant(TENANTS[k % TENANTS.len()])
    }
}

/// Stamps every service-plane event with its arrival time.
#[derive(Clone, Default)]
struct EventClock {
    events: Arc<Mutex<Vec<(Instant, EventKind)>>>,
}

impl Sink for EventClock {
    fn emit(&self, event: &Event) {
        self.events.lock().expect("event clock lock").push((Instant::now(), event.kind.clone()));
    }
}

/// One submitted campaign, as the submitting client saw it.
struct Submitted {
    wall: f64,
    cpu: f64,
    start: Instant,
    submit_s: f64,
    state: Option<CampaignState>,
    report: Option<CampaignReport>,
    checksum: Option<u64>,
    id: String,
    leases_acquired: u64,
    leases_reclaimed: u64,
    workers_spawned: u64,
    problem: Option<String>,
}

fn submit_and_wait(daemon: &Daemon, spec: &CampaignSpec) -> Submitted {
    let before = daemon.metrics();
    let cpu0 = osstat::cpu_seconds();
    let start = Instant::now();
    let submitted = daemon.submit(spec);
    let submit_s = secs(start);
    let (id, state, problem) = match submitted {
        Ok(id) => {
            let state = daemon.wait(&id, CAMPAIGN_TIMEOUT).map(|s| s.state);
            (id, state, None)
        }
        Err(rejection) => (String::new(), None, Some(rejection.to_string())),
    };
    let wall = secs(start);
    let cpu = osstat::cpu_seconds() - cpu0;
    let after = daemon.metrics();
    let (report, checksum) = daemon.final_report(&id).unzip();
    Submitted {
        wall,
        cpu,
        start,
        submit_s,
        state,
        report,
        checksum,
        id,
        leases_acquired: after.leases_acquired - before.leases_acquired,
        leases_reclaimed: after.leases_reclaimed - before.leases_reclaimed,
        workers_spawned: after.workers_spawned - before.workers_spawned,
        problem,
    }
}

/// The library's report for campaign `k`: the same spec on one thread,
/// without a journal.
fn reference(seed: u64, k: usize) -> CampaignReport {
    let mut config = spec(seed, k, Path::new("unused")).build_config().expect("valid spec");
    config.checkpoint = None;
    CampaignSession::new(config).run_with_threads(1).expect("a journal-free run cannot fail")
}

/// Checks one campaign against its reference and the lease/worker ledgers.
fn check(checks: &mut Checks, run: &Submitted, expected: u64, shards: u64, timed: bool) {
    let problem = run.problem.clone().or_else(|| {
        if run.state != Some(CampaignState::Completed) {
            Some(format!("campaign {} ended {:?}", run.id, run.state))
        } else if run.checksum != Some(expected) {
            Some(format!(
                "campaign {} checksum {:016x?} != library {expected:016x}",
                run.id, run.checksum
            ))
        } else if run.leases_reclaimed != 0 || run.workers_spawned != shards {
            Some(format!(
                "campaign {}: {} leases reclaimed, {} workers for {shards} shards",
                run.id, run.leases_reclaimed, run.workers_spawned
            ))
        } else {
            None
        }
    });
    if timed {
        checks.attempt(problem.is_none(), || problem.clone().unwrap_or_default());
    } else {
        checks.require(problem.is_none(), || problem.clone().unwrap_or_default());
    }
}

/// Removes a finished campaign's journal and worker spec file.
fn remove_journal(journal: &Path) {
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(format!("{}.spec.json", journal.display()));
}

pub fn run(args: &Args) -> Outcome {
    let dir = std::env::current_dir()
        .expect("working directory")
        .join(crate::OUT_DIR)
        .join(format!("service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the journal directory");
    let clock = EventClock::default();
    let cfg = ServiceConfig {
        workers: width(),
        // Generous: a lease must never lapse on a busy two-core host, so
        // any reclaim is a real fault.
        lease_ttl: Duration::from_secs(10),
        sink: if args.trace { SinkHandle::new(clock.clone()) } else { SinkHandle::null() },
        isolation: IsolationMode::Processes(ProcessJail::new(
            std::env::current_exe().expect("own executable path"),
        )),
        ..ServiceConfig::default()
    };
    let mut checks = Checks::default();

    // The references: each campaign through the library on one thread (two
    // references at a time; they are not timed).
    let campaigns = if args.trace { TRACE_PAIRS } else { SPECS };
    let specs: Vec<usize> = (0..campaigns).collect();
    let references: Vec<Counts> = crate::par_map(&specs, |&k| Counts::of(&reference(args.seed, k)));
    let extra = if args.trace { Vec::new() } else { crate::count_only_campaigns(SPECS) };
    let counted = crate::par_map(&extra, |&k| Counts::of(&reference(args.seed, k)));

    let mut setup = Vec::new();
    let mut daemon: Option<Arc<Daemon>> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let fresh = Daemon::start(cfg.clone());
        setup.push(secs(start));
        if let Some(old) = daemon.replace(fresh) {
            old.drain();
        }
    }
    let daemon = daemon.expect("at least one daemon");
    let shards = plan_shards(&spec(args.seed, 0, &dir).build_config().expect("valid spec")).len();

    let journal = |name: String| dir.join(name);
    let warm_journal = journal("warm.ckpt".to_string());
    let warm = submit_and_wait(&daemon, &spec(args.seed, 0, &warm_journal));
    remove_journal(&warm_journal);

    let mut info = Vec::new();
    let (metrics, runs) = if args.trace {
        traced(args, &daemon, &clock, &dir, shards, &mut checks, &mut info)
    } else {
        let mut runs = Vec::new();
        osstat::reset_peak_rss();
        let ticks = osstat::cpu_ticks();
        let start = Instant::now();
        while !crate::cycle_done(runs.len(), SPECS, start, args.seconds) {
            let i = runs.len();
            let path = journal(format!("c{i:04}.ckpt"));
            runs.push((i % SPECS, submit_and_wait(&daemon, &spec(args.seed, i % SPECS, &path))));
            remove_journal(&path);
        }
        info.push(("host_steal_share", osstat::steal_share_since(ticks).into()));
        (Vec::new(), runs)
    };
    daemon.drain();

    // Output check: every campaign against the library's report.
    check(&mut checks, &warm, references[0].checksum, shards as u64, false);
    for (k, run) in &runs {
        check(&mut checks, run, references[*k].checksum, shards as u64, true);
    }
    let children_kib = children_peak_rss_kib(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    info.push(("campaigns", JsonValue::from(runs.len())));
    info.push(("references", JsonValue::Array(references.iter().map(Counts::to_json).collect())));
    info.push(("count_only", JsonValue::Array(counted.iter().map(Counts::to_json).collect())));
    if args.trace {
        return Outcome { checks, metrics, info };
    }

    let samples: Vec<Sample> =
        runs.iter().map(|(k, r)| Sample { campaign: *k, wall: r.wall, cpu: r.cpu }).collect();
    info.extend(crate::sample_info(&samples));
    let peak_kib = osstat::peak_rss_kib().max(children_kib);
    let counted: Vec<Counts> = references.iter().cloned().chain(counted).collect();
    let metrics = crate::end_to_end(median(&setup), &samples, &references, &counted, peak_kib);
    Outcome { checks, metrics, info }
}

/// Untraced and traced campaigns in alternation, one pair per spec from
/// the first. Returns the per-layer metrics and the campaigns run.
fn traced(
    args: &Args,
    daemon: &Daemon,
    clock: &EventClock,
    dir: &Path,
    shards: usize,
    checks: &mut Checks,
    info: &mut Vec<(&'static str, JsonValue)>,
) -> (Vec<crate::Metric>, Vec<(usize, Submitted)>) {
    let mut profile = Profile::default();
    let mut probes = Profile::default();
    let (mut untraced, mut traced, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queue_wait, mut spawn_overhead, mut record_kb) = (Vec::new(), Vec::new(), Vec::new());
    let mut runs = Vec::new();
    for k in 0..TRACE_PAIRS {
        let plain = dir.join(format!("u{k}.ckpt"));
        let run = submit_and_wait(daemon, &spec(args.seed, k, &plain));
        remove_journal(&plain);
        untraced.push(run.wall);
        busy.push(run.cpu / (run.wall * width() as f64));
        runs.push((k, run));

        let path = dir.join(format!("t{k}.ckpt"));
        let spans_dir = PathBuf::from(format!("{}.spans", path.display()));
        std::fs::create_dir_all(&spans_dir).expect("create the spans directory");
        let run = submit_and_wait(daemon, &spec(args.seed, k, &path));
        traced.push(run.wall);
        let events = std::mem::take(&mut *clock.events.lock().expect("event clock lock"));
        match campaign_spans(&events, &run, &spans_dir) {
            Ok(pass) => {
                queue_wait.extend(pass.queue_wait_s);
                spawn_overhead.extend(pass.spawn_overhead_s);
                profile.add_pass(pass.threads, (run.wall * 1e9) as u64, width());
            }
            Err(e) => checks.require(false, || format!("traced campaign {}: {e}", run.id)),
        }
        // Probe: the journal load the supervisor performs per commit.
        let mut t = Tracer::new(Instant::now());
        let loaded = t.time("checkpoint.load", NO_CASE, || CampaignCheckpoint::load(&path));
        probes.add_pass(vec![t.into_spans()], 0, 1);
        if let Ok((checkpoint, _)) = loaded {
            for record in &checkpoint.shards {
                let events: usize = record.events.iter().map(|e| e.to_json().len() + 1).sum();
                record_kb.push((report_to_json(&record.report).len() + events) as f64 / 1024.0);
            }
        }
        remove_journal(&path);
        let _ = std::fs::remove_dir_all(&spans_dir);
        runs.push((k, run));
    }

    // Counter ratios come from the campaigns' own merged metrics.
    let reports: Vec<&CampaignReport> =
        runs.iter().filter_map(|(_, r)| r.report.as_ref()).collect();
    let mut counts = crate::library::counter_ratios(reports.iter().map(|r| &r.metrics));
    let overhead_s = median(&traced) - median(&untraced);
    let per_campaign = |f: fn(&Submitted) -> u64| per_campaign_f(&runs, |r| f(r) as f64);
    counts.lm_train_s = profile.p50("lm.train", 1e9);
    counts.executor_busy_share = median(&busy);
    counts.executor_shards = shards as f64;
    counts.checkpoint_record_kb = if record_kb.is_empty() { 0.0 } else { median(&record_kb) };
    counts.service_leases_acquired = per_campaign(|r| r.leases_acquired);
    counts.service_leases_reclaimed =
        runs.iter().map(|(_, r)| r.leases_reclaimed as f64).sum::<f64>();
    counts.fleet_workers_spawned = per_campaign(|r| r.workers_spawned);
    counts.overhead_s = overhead_s;
    counts.overhead_share = overhead_s / median(&untraced);
    let p50_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    counts.checkpoint_load_us = probes.p50("checkpoint.load", 1e3);
    counts.service_submit_us = per_campaign_f(&runs, |r| r.submit_s * 1e6);
    counts.service_queue_wait_s = p50_or_zero(&queue_wait);
    counts.fleet_spawn_overhead_s = p50_or_zero(&spawn_overhead);

    let table = JsonValue::object([
        ("workload", JsonValue::from(args.workload.name())),
        ("seed", JsonValue::Int(i128::from(args.seed))),
        ("campaign", profile.to_json()),
        ("probes", probes.to_json()),
        ("queue_wait_s", JsonValue::Array(queue_wait.iter().map(|&w| w.into()).collect())),
        ("spawn_overhead_s", JsonValue::Array(spawn_overhead.iter().map(|&w| w.into()).collect())),
        ("untraced_wall_s", JsonValue::Array(untraced.iter().map(|&w| w.into()).collect())),
        ("traced_wall_s", JsonValue::Array(traced.iter().map(|&w| w.into()).collect())),
    ]);
    crate::write_trace_files(args, &table, &profile, checks);
    info.push(("trace_pairs", JsonValue::from(TRACE_PAIRS)));
    (per_layer_metrics(&profile, &counts), runs)
}

/// Median of `f` over the campaigns run.
fn per_campaign_f(runs: &[(usize, Submitted)], f: impl Fn(&Submitted) -> f64) -> f64 {
    median(&runs.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
}

/// One traced campaign rebuilt as spans: the client thread, then one
/// timeline per pool slot.
struct CampaignPass {
    threads: Vec<Vec<Span>>,
    queue_wait_s: Option<f64>,
    spawn_overhead_s: Vec<f64>,
}

/// Rebuilds a traced campaign from the daemon's service events and the
/// children's span files. Per pool slot: `fleet.spawn` from lease grant to
/// child spawn, then `fleet.child` from spawn to lease release, with the
/// child's own spans grafted inside.
fn campaign_spans(
    events: &[(Instant, EventKind)],
    run: &Submitted,
    spans_dir: &Path,
) -> Result<CampaignPass, String> {
    let at = |when: &Instant| when.saturating_duration_since(run.start).as_nanos() as u64;
    let end_ns = (run.wall * 1e9) as u64;
    let mine = |campaign: &str| campaign == run.id;
    let mut client = Tracer::new(run.start);
    let submit = client.open_at("service.submit", NO_CASE, 0);
    client.close_at(submit, (run.submit_s * 1e9) as u64);

    let mut slots: std::collections::BTreeMap<String, Tracer> = Default::default();
    let mut first_lease: Option<u64> = None;
    let mut last_release = 0u64;
    let mut spawn_overhead_s = Vec::new();
    for (when, kind) in events {
        let EventKind::LeaseAcquired { campaign, lease_shard, worker, .. } = kind else { continue };
        if !mine(campaign) {
            continue;
        }
        let acquired = at(when);
        first_lease = Some(first_lease.map_or(acquired, |f| f.min(acquired)));
        let find = |pred: &dyn Fn(&EventKind) -> bool| {
            events
                .iter()
                .filter(|(w, _)| at(w) >= acquired)
                .find(|(_, k)| pred(k))
                .map(|(w, _)| at(w))
        };
        let spawned = find(&|k| {
            matches!(k, EventKind::WorkerSpawned { campaign: c, worker: w, lease_shard: s, .. }
                if mine(c) && w == worker && s == lease_shard)
        })
        .ok_or_else(|| format!("no worker spawned for shard {lease_shard}"))?;
        let released = find(&|k| {
            matches!(k, EventKind::LeaseReleased { campaign: c, worker: w, lease_shard: s }
                if mine(c) && w == worker && s == lease_shard)
        })
        .ok_or_else(|| format!("shard {lease_shard} was never released"))?;
        last_release = last_release.max(released);

        let file = spans_dir.join(format!("shard-{lease_shard}.tsv"));
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let child = spans_from_text(&text, &CHILD_SPANS)?;
        let total = |name: &str| -> u64 {
            child.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
        };
        let setup_and_shard = total("fleet.child_setup") + total("executor.run_shard");
        spawn_overhead_s.push((released - spawned).saturating_sub(setup_and_shard) as f64 * 1e-9);

        let slot = slots.entry(worker.clone()).or_insert_with(|| Tracer::new(run.start));
        let spawn = slot.open_at("fleet.spawn", NO_CASE, acquired);
        slot.close_at(spawn, spawned);
        let life = slot.open_at("fleet.child", NO_CASE, spawned);
        slot.graft(&child, spawned);
        slot.close_at(life, released);
    }
    let finalize = client.open_at("service.finalize", NO_CASE, last_release);
    client.close_at(finalize, end_ns);
    let mut threads = vec![client.into_spans()];
    threads.extend(slots.into_values().map(Tracer::into_spans));
    Ok(CampaignPass {
        threads,
        queue_wait_s: first_lease.map(|ns| ns as f64 * 1e-9),
        spawn_overhead_s,
    })
}

/// Suffix of the files in which worker children leave their peak resident
/// set (KiB), next to their campaign's journal.
const HWM_SUFFIX: &str = ".hwm";

/// The largest peak resident set any worker child left in `dir`.
fn children_peak_rss_kib(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(HWM_SUFFIX))
        .filter_map(|e| std::fs::read_to_string(e.path()).ok()?.trim().parse().ok())
        .max()
        .unwrap_or(0)
}

/// `--worker-once`: the arguments `comfortd --worker-once` takes.
pub fn worker_main(argv: &[String]) -> ExitCode {
    let opts = match worker_options(argv) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench --worker-once: {e}");
            return ExitCode::from(2);
        }
    };
    let spans_dir = opts.spec.checkpoint.as_ref().map(|c| PathBuf::from(format!("{c}.spans")));
    let result = match spans_dir {
        Some(dir) if dir.is_dir() && opts.lease_seq.is_some() => traced_worker(&opts, &dir),
        _ => run_worker_once(&opts),
    };
    if let Some(journal) = &opts.spec.checkpoint {
        let hwm = format!("{journal}.{}{HWM_SUFFIX}", std::process::id());
        let _ = std::fs::write(hwm, osstat::peak_rss_kib().to_string());
    }
    match result {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench --worker-once: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn worker_options(argv: &[String]) -> Result<WorkerOnceOptions, String> {
    let mut spec_path = None;
    let mut worker = "worker-once".to_string();
    let mut opts = WorkerOnceOptions::standalone(CampaignSpec::default(), "");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--spec" => spec_path = Some(value()?),
            "--worker" => worker = value()?,
            "--ttl-millis" => opts.ttl_millis = num(value()?)?,
            "--hold-millis" => opts.hold_millis = num(value()?)?,
            "--shard" => opts.shard = Some(num(value()?)?),
            "--lease-seq" => opts.lease_seq = Some(num(value()?)?),
            "--heartbeat-millis" => opts.heartbeat_millis = Some(num(value()?)?),
            "--limit-cases" => opts.limit_cases = Some(num(value()?)? as usize),
            "--probe" => opts.probe = true,
            "--jail" => opts.jail = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let spec_path = spec_path.ok_or("--spec is required")?;
    let text = std::fs::read_to_string(&spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    opts.spec = CampaignSpec::from_json_str(&text)?;
    opts.worker = worker;
    Ok(opts)
}

/// `run_worker_once` in directed mode, one public call at a time, each in
/// a span. The shard runs exactly as `ShardedCampaign::run_shard` runs it,
/// so the journalled record is identical.
fn traced_worker(opts: &WorkerOnceOptions, spans_dir: &Path) -> Result<String, WorkerError> {
    let mut t = Tracer::new(Instant::now());
    let root = t.open("fleet.child_main", NO_CASE);
    if opts.jail {
        comfort_engines::arm_real_chaos_signals();
    }
    let setup = t.open("fleet.child_setup", NO_CASE);
    let config = opts.spec.build_config().map_err(WorkerError::Spec)?;
    let corpus = t.time("lm.corpus", NO_CASE, || {
        comfort_corpus::training_corpus(config.seed, config.corpus_programs)
    });
    let generator =
        Arc::new(t.time("lm.train", NO_CASE, || Generator::train(&corpus, config.lm.clone())));
    let testbeds = t.time("differential.testbeds", NO_CASE, || testbeds_for(&config));
    t.close(setup);

    let plan = plan_shards(&config);
    let (Some(shard), Some(lease_seq)) = (opts.shard, opts.lease_seq) else {
        return Err(WorkerError::Spec("traced workers run directed shards only".to_string()));
    };
    let spec = *plan
        .get(shard as usize)
        .ok_or_else(|| WorkerError::Spec(format!("shard {shard} is outside the plan")))?;
    let path = config.checkpoint.clone().ok_or_else(|| {
        WorkerError::Spec("worker-once requires a checkpoint in the spec".to_string())
    })?;
    let journal = t
        .time("checkpoint.open", NO_CASE, || CheckpointJournal::open_append_shared(&path))
        .map_err(|e| WorkerError::Journal(format!("cannot append to {path:?}: {e}")))?;

    let progress = ProgressHandle::new();
    progress.reset(&plan.iter().map(|s| s.cases as u64).collect::<Vec<u64>>());
    let buffer = MemorySink::new();
    let report = {
        let _beat = opts.heartbeat_millis.map(|millis| {
            Beat::start(progress.clone(), shard as usize, Duration::from_millis(millis))
        });
        t.time("executor.run_shard", NO_CASE, || {
            let mut shard_config = config.clone();
            shard_config.seed = spec.seed;
            shard_config.max_cases = spec.cases;
            shard_config.sink = SinkHandle::new(buffer.clone());
            let mut campaign =
                Campaign::with_shared(shard_config, Arc::clone(&generator), testbeds.clone());
            campaign.set_exec_threads(1);
            campaign.set_shard(spec.index as u64);
            campaign.set_progress(progress.clone());
            campaign.run()
        })
    };
    let record = ShardRecord {
        index: shard,
        seed: spec.seed,
        cases: spec.cases as u64,
        report,
        events: buffer.events(),
    };
    t.time("checkpoint.append", NO_CASE, || journal.append_shard(&record))
        .map_err(|e| WorkerError::Journal(e.to_string()))?;
    println!("committed {shard}");
    t.close(root);
    let file = spans_dir.join(format!("shard-{shard}.tsv"));
    std::fs::write(&file, spans_to_text(&t.into_spans()))
        .map_err(|e| WorkerError::Exec(format!("cannot write {}: {e}", file.display())))?;
    Ok(format!(
        "worker {} committed shard {shard} ({} cases) under lease seq {lease_seq}",
        opts.worker, record.report.cases_run
    ))
}

/// Prints `progress <cases>` lines while a shard runs, as the worker does,
/// so the supervisor renews the lease on real progress.
struct Beat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Beat {
    fn start(progress: ProgressHandle, shard: usize, interval: Duration) -> Beat {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            use std::io::Write as _;
            let mut last = 0;
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(interval);
                let done = progress.snapshot().shards.get(shard).map_or(0, |s| s.cases_done);
                if done > last {
                    last = done;
                    println!("progress {done}");
                    let _ = std::io::stdout().flush();
                }
            }
        });
        Beat { stop, handle: Some(handle) }
    }
}

impl Drop for Beat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
