//! `perfbench` — the discovery benchmark for COMFORT-rs.
//!
//! ```text
//! perfbench --workload explore|triage|service --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop from one process: the next campaign
//! starts only when the previous report is final. The program is driven
//! only through its public API (`CampaignSession`, `Daemon`); every span
//! of the traced pass is recorded here, around calls into the crates.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics without `--trace`, the per-layer metrics with it. Any report
//! that misses its reference checksum is a failed operation and the exit
//! code is non-zero. See `perfbench/README.md`.
//!
//! The binary doubles as the fleet's worker: the `service` workload's
//! daemon re-executes it as `perfbench --worker-once ...`, the same
//! arguments `comfortd --worker-once` takes.

mod library;
mod osstat;
mod service;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use comfort_telemetry::JsonValue;

use crate::trace::{Profile, LAYERS};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Explore,
    Triage,
    Service,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "explore" => Some(Workload::Explore),
            "triage" => Some(Workload::Triage),
            "service" => Some(Workload::Service),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Triage => "triage",
            Workload::Service => "service",
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                seconds = Some(Duration::try_from_secs_f64(s).map_err(|e| format!("{s}: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Output checks: timed operations attempted and failed, plus any failed
/// check outside the timed loop (reference, warm-up, determinism).
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    /// Records one timed operation.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records a check that is not itself a timed operation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Per-layer numbers that come from counters rather than spans. Unset
/// fields are layers the workload never enters.
#[derive(Default)]
pub struct LayerCounts {
    pub lm_train_s: f64,
    pub lm_bytes_per_generate: f64,
    pub syntax_reject_share: f64,
    pub datagen_cases_per_base: f64,
    pub differential_logical_runs_per_case: f64,
    pub differential_physical_runs_per_case: f64,
    pub reduce_candidates_per_bug: f64,
    pub reduce_kept_share: f64,
    pub filter_duplicate_share: f64,
    pub executor_busy_share: f64,
    pub executor_shards: f64,
    pub differential_us_per_physical_run: f64,
    pub checkpoint_record_kb: f64,
    pub checkpoint_load_us: f64,
    pub service_submit_us: f64,
    pub service_queue_wait_s: f64,
    pub service_leases_acquired: f64,
    pub service_leases_reclaimed: f64,
    pub fleet_workers_spawned: f64,
    pub fleet_spawn_overhead_s: f64,
    /// Traced wall time minus untraced wall time, per campaign.
    pub overhead_s: f64,
    /// `overhead_s` over the untraced campaign wall time.
    pub overhead_share: f64,
}

/// Per-call timings in the per-layer set: metric name, span, unit and
/// nanoseconds per unit. Each is the span's median duration over the
/// traced passes, 0 where the workload never makes that call; the trace
/// file adds the sample count and the p99.
const SPAN_P50S: [(&str, &str, &str, f64); 10] = [
    ("lm.generate_us", "lm.generate", "us", 1e3),
    ("syntax.parse_us", "syntax.parse", "us", 1e3),
    ("datagen.mutate_us", "datagen.mutate", "us", 1e3),
    ("interp.compile_us", "interp.compile", "us", 1e3),
    ("differential.case_us", "differential.case", "us", 1e3),
    ("reduce.us_per_bug", "reduce.case", "us", 1e3),
    ("executor.merge_us", "executor.merge", "us", 1e3),
    ("checkpoint.append_us", "checkpoint.append", "us", 1e3),
    ("fleet.child_setup_s", "fleet.child_setup", "s", 1e9),
    ("fleet.child_shard_s", "executor.run_shard", "s", 1e9),
];

/// The per-layer metric set, identical for every workload: counters, per
/// call timings, each layer's self-time share and the trace's own
/// accounting.
pub fn per_layer_metrics(profile: &Profile, c: &LayerCounts) -> Vec<Metric> {
    let mut out = vec![
        metric("lm.train_s", c.lm_train_s, "s"),
        metric("lm.bytes_per_generate", c.lm_bytes_per_generate, "bytes"),
        metric("syntax.reject_share", c.syntax_reject_share, "share"),
        metric("datagen.cases_per_base", c.datagen_cases_per_base, "count"),
        metric("differential.logical_runs_per_case", c.differential_logical_runs_per_case, "count"),
        metric(
            "differential.physical_runs_per_case",
            c.differential_physical_runs_per_case,
            "count",
        ),
        metric("differential.us_per_physical_run", c.differential_us_per_physical_run, "us"),
        metric("reduce.candidates_per_bug", c.reduce_candidates_per_bug, "count"),
        metric("reduce.kept_share", c.reduce_kept_share, "share"),
        metric("filter.duplicate_share", c.filter_duplicate_share, "share"),
        metric("executor.busy_share", c.executor_busy_share, "share"),
        metric("executor.shards", c.executor_shards, "count"),
        metric("checkpoint.record_kb", c.checkpoint_record_kb, "KiB"),
        metric("checkpoint.load_us", c.checkpoint_load_us, "us"),
        metric("service.submit_us", c.service_submit_us, "us"),
        metric("service.queue_wait_s", c.service_queue_wait_s, "s"),
        metric("service.leases_acquired", c.service_leases_acquired, "count"),
        metric("service.leases_reclaimed", c.service_leases_reclaimed, "count"),
        metric("fleet.workers_spawned", c.fleet_workers_spawned, "count"),
        metric("fleet.spawn_overhead_s", c.fleet_spawn_overhead_s, "s"),
        metric("trace.overhead_s", c.overhead_s, "s"),
        metric("trace.overhead_share", c.overhead_share, "share"),
        metric(
            "trace.unattributed_share",
            profile.unattributed_s() / profile.capacity_s(),
            "share",
        ),
    ];
    out.extend(
        SPAN_P50S.iter().map(|&(name, span, unit, ns)| metric(name, profile.p50(span, ns), unit)),
    );
    out.extend(LAYERS.iter().map(|l| metric(format!("{l}.self_share"), profile.share(l), "share")));
    out
}

/// What one workload run produced.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Context printed on the line before the result (thread counts,
    /// sample counts, deterministic counts).
    pub info: Vec<(&'static str, JsonValue)>,
}

/// Where runs leave their files, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench";

/// Writes a traced run's layer table (`trace-<workload>-<seed>.json`) and
/// span list (`….spans.tsv`) under `OUT_DIR`, and prints the layer shares.
pub fn write_trace_files(args: &Args, table: &JsonValue, profile: &Profile, checks: &mut Checks) {
    let stem =
        std::path::Path::new(OUT_DIR).join(format!("trace-{}-{}", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(stem.with_extension("json"), table.to_json() + "\n"))
        .and_then(|()| profile.write_spans(&stem.with_extension("spans.tsv")));
    checks.require(written.is_ok(), || format!("cannot write {}: {written:?}", stem.display()));
    // Self times are carved out of nested spans, so together they cannot
    // exceed the capacity unless the span tree is broken.
    checks.require(profile.unattributed_s() >= -0.01 * profile.capacity_s(), || {
        format!("layer self times exceed the capacity by {:.3} s", -profile.unattributed_s())
    });
    eprintln!("layer          self_s    share   (capacity {:.3} s)", profile.capacity_s());
    for layer in LAYERS {
        eprintln!("{layer:<14} {:>8.3} {:>8.4}", profile.self_s(layer), profile.share(layer));
    }
    eprintln!(
        "{:<14} {:>8.3} {:>8.4}",
        "unattributed",
        profile.unattributed_s(),
        profile.unattributed_s() / profile.capacity_s()
    );
}

/// Seconds since `start`, as measured.
pub fn secs(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `f` over `items` on `width()` threads, results in input order. Used for
/// the untimed single-threaded reference runs, two at a time.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..width() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot") = Some(f(item));
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("result slot").expect("item ran")).collect()
}

/// Whole cycles a timed loop runs at least, so that each campaign's wall
/// and CPU time is the median of three or more repetitions.
pub const MIN_CYCLES: usize = 3;

/// `true` once `seconds` have passed since `start` and `done` campaigns
/// make at least `MIN_CYCLES` whole cycles of `cycle`: each campaign of a
/// workload's cycle then runs equally often, whatever its own cost.
pub fn cycle_done(done: usize, cycle: usize, start: std::time::Instant, seconds: Duration) -> bool {
    done >= MIN_CYCLES * cycle && done.is_multiple_of(cycle) && start.elapsed() >= seconds
}

/// One timed campaign: its index in the cycle, wall seconds, CPU seconds.
pub struct Sample {
    pub campaign: usize,
    pub wall: f64,
    pub cpu: f64,
}

/// Campaigns, after a cycle of `cycle`, that run once on one thread for
/// their bug counts only. The counts are exact for a seed but vary with it
/// far more than the timings do, so they are taken over twice the cycle.
pub fn count_only_campaigns(cycle: usize) -> Vec<usize> {
    (cycle..2 * cycle).collect()
}

/// The end-to-end metrics of a timed loop over a cycle of campaigns whose
/// reference reports have the counts `cycle`; `counted` are the counts of
/// the campaigns the bug counts are averaged over.
///
/// A campaign's wall and CPU time are its median repetition, which drops
/// the odd repetition a burst of host steal time or a noisy neighbour
/// slowed down. Summed over the cycle, they weigh every seed of the cycle
/// alike. The bug counts are per campaign, averaged over `counted`.
pub fn end_to_end(
    setup_s: f64,
    samples: &[Sample],
    cycle: &[library::Counts],
    counted: &[library::Counts],
    peak_rss_kib: u64,
) -> Vec<Metric> {
    let per_campaign = |f: fn(&Sample) -> f64| -> Vec<f64> {
        let of = |k| {
            trace::median(&samples.iter().filter(|s| s.campaign == k).map(f).collect::<Vec<_>>())
        };
        (0..cycle.len()).map(of).collect()
    };
    let walls = per_campaign(|s| s.wall);
    let cycle_wall: f64 = walls.iter().sum();
    let cycle_cpu: f64 = per_campaign(|s| s.cpu).iter().sum();
    let per_counted = |f: fn(&library::Counts) -> usize| -> f64 {
        counted.iter().map(f).sum::<usize>() as f64 / counted.len() as f64
    };
    let cases: f64 = cycle.iter().map(|c| c.cases as f64).sum();
    let catalog = per_counted(|c| c.catalog_bugs);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("cases_per_s", cases / cycle_wall, "1/s"),
        metric("cpu_s_per_kcase", 1000.0 * cycle_cpu / cases, "s"),
        metric("campaign_s_p50", trace::median(&walls), "s"),
        metric("catalog_bugs", catalog, "count"),
        metric("unexplained_reports", per_counted(|c| c.unexplained_reports), "count"),
        metric("bugs_per_cpu_s", catalog * cycle.len() as f64 / cycle_cpu, "1/s"),
        metric("peak_rss_mb", peak_rss_kib as f64 / 1024.0, "MiB"),
    ]
}

/// The timed campaigns' wall and CPU seconds, for the context line.
pub fn sample_info(samples: &[Sample]) -> [(&'static str, JsonValue); 2] {
    [
        ("campaign_s", JsonValue::Array(samples.iter().map(|s| s.wall.into()).collect())),
        ("campaign_cpu_s", JsonValue::Array(samples.iter().map(|s| s.cpu.into()).collect())),
    ]
}

/// Worker threads and pool width: two, or fewer on a smaller machine.
pub fn width() -> usize {
    osstat::nproc().min(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--worker-once") {
        return service::worker_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload explore|triage|service --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::Explore | Workload::Triage => library::run(&args),
        Workload::Service => service::run(&args),
    };
    let Outcome { checks, metrics, mut info } = outcome;
    for problem in &checks.problems {
        eprintln!("perfbench: FAILED: {problem}");
    }
    let correct = checks.problems.is_empty();
    info.extend([
        ("workload", JsonValue::from(args.workload.name())),
        ("seed", JsonValue::Int(i128::from(args.seed))),
        ("nproc", JsonValue::Int(osstat::nproc() as i128)),
        ("threads", JsonValue::Int(width() as i128)),
    ]);
    println!("{}", JsonValue::object(info).to_json());
    let metrics = metrics.into_iter().map(|m| {
        let row = JsonValue::object([
            ("value", JsonValue::Number(m.value)),
            ("unit", JsonValue::from(m.unit)),
        ]);
        (m.name, row)
    });
    let result = JsonValue::object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Int(i128::from(checks.attempted))),
        ("failed", JsonValue::Int(i128::from(checks.failed))),
        ("metrics", JsonValue::Object(metrics.collect())),
    ]);
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
