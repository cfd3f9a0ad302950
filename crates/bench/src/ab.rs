//! perfbench A/B records (`BENCH_<n>.json`) and the gate that judges them.
//!
//! `bench-ab` runs perfbench, the command `BENCHMARK.json` declares, on a
//! parent and a change tree: [`PAIRS`] pairs per workload, alternating which
//! tree goes first, plus one traced run per tree. It keeps every raw value
//! the runs print in a [`Record`]. `bench-diff` reads a record back and
//! [`gate`]s it. Medians, quartiles and wins are computed from the raw values
//! each time and never stored.
//!
//! The workloads, run length and each metric's direction and bound come
//! from `BENCHMARK.json` ([`Benchmark`]); nothing here is a setting.

use comfort_core::report::Table;
use comfort_telemetry::json::{self, Field, JsonValue, Object, Text};
use comfort_telemetry::json_record;

/// Pairs per workload: the fewest the claim rule can be met on.
pub const PAIRS: usize = 10;

/// Pairs a claimed metric must win.
pub const CLAIM_WINS: usize = 9;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as perfbench prints it.
    pub name: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// How much worse than the parent's median the change's may be, as a
    /// fraction of the parent's (end-to-end metrics only; 0 otherwise).
    pub bound: f64,
}

/// The benchmark declaration, `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// The command that runs perfbench from a tree's root.
    pub command: Vec<String>,
    /// `--seconds` of every run.
    pub run_seconds: f64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// The gated metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// The metrics of a traced run, printed and not gated.
    pub per_layer: Vec<MetricSpec>,
}

impl Benchmark {
    /// Parses `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Benchmark, String> {
        let v = Text::check(text)?.members().unwrap_or_default();
        let bad = |e: String| format!("BENCHMARK.json: {e}");
        // A list member's entries, each read as an object.
        let entries = |key: &str| -> Result<Vec<Object<'_>>, String> {
            let list = v.get(key).ok_or_else(|| bad(format!("field '{key}' is missing")))?;
            let items =
                list.items().ok_or_else(|| bad(format!("field '{key}' must be an array")))?;
            Ok(items.map(|entry| entry.members().unwrap_or_default()).collect())
        };
        let metric = |m: &Object<'_>| -> Result<MetricSpec, String> {
            let higher_is_better = match String::parse(m, "better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("field 'better' is {other:?}, not higher or lower")),
            };
            let bound = Option::parse(m, "bound")?.unwrap_or(0.0);
            Ok(MetricSpec { name: String::parse(m, "name")?, higher_is_better, bound })
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            entries(key)?.iter().map(|m| metric(m).map_err(bad)).collect()
        };
        let workloads = entries("workloads")?.into_iter();
        let workloads = workloads.map(|w| String::parse(&w, "name").map_err(bad));
        Ok(Benchmark {
            command: Field::parse(&v, "command").map_err(bad)?,
            run_seconds: Field::parse(&v, "run_seconds").map_err(bad)?,
            workloads: workloads.collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Splits a claim, `METRIC@WORKLOAD`, that names an end-to-end metric
    /// and a workload of the benchmark.
    pub fn claim<'a>(&self, claim: &'a str) -> Result<(&'a str, &'a str), String> {
        match claim.split_once('@') {
            Some((metric, workload))
                if self.end_to_end.iter().any(|m| m.name == metric)
                    && self.workloads.iter().any(|w| w == workload) =>
            {
                Ok((metric, workload))
            }
            _ => Err(format!(
                "claim {claim:?} is not METRIC@WORKLOAD for an end-to-end metric and a workload \
                 of BENCHMARK.json"
            )),
        }
    }
}

/// One perfbench run's result line, kept as printed: `{"attempted",
/// "correct", "failed", "metrics": {NAME: {"unit", "value"}}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Run(JsonValue);

impl Run {
    /// Checks the shape of a result line.
    pub fn new(line: JsonValue) -> Result<Run, String> {
        let counted = ["attempted", "failed"]
            .iter()
            .all(|k| line.get(k).and_then(JsonValue::as_u64).is_some());
        match line.get("metrics") {
            Some(JsonValue::Object(_)) if counted => Ok(Run(line)),
            _ => Err("a result line needs attempted, failed and a metrics object".into()),
        }
    }

    /// A printed metric's value: NaN when absent or not finite.
    pub fn metric(&self, name: &str) -> f64 {
        let value = self.0.get("metrics").and_then(|m| m.get(name)?.get("value"));
        value.and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
    }

    fn count(&self, key: &str) -> u64 {
        self.0.get(key).and_then(JsonValue::as_u64).unwrap_or_default()
    }
}

/// What one perfbench run printed on its last two stdout lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The result line.
    pub run: Run,
    /// `{"references", "count_only"}` of the context line: the
    /// deterministic counts of the reference reports, which both trees must
    /// print alike.
    pub counts: JsonValue,
    /// CPUs of the host.
    pub nproc: u64,
}

impl Output {
    /// Parses a run's stdout: a context line, then the result line.
    pub fn parse(stdout: &str) -> Result<Output, String> {
        let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
        let (Some(result), Some(context)) = (lines.next(), lines.next()) else {
            return Err("perfbench printed fewer than two lines".into());
        };
        let context = Text::check(context).map_err(|e| format!("context line: {e}"))?;
        let context = context.members().unwrap_or_default();
        let counts = ["references", "count_only"]
            .into_iter()
            .filter_map(|key| context.get(key).map(|v| (key, v.to_value())));
        Ok(Output {
            run: Run::new(json::parse(result).map_err(|e| format!("result line: {e}"))?)?,
            counts: JsonValue::object(counts),
            nproc: u64::parse(&context, "nproc")?,
        })
    }
}

/// One tree's runs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// The untraced runs, in pair order.
    pub runs: Vec<Run>,
    /// The `--trace 1` run.
    pub traced: Run,
    /// Each distinct `counts` the untraced runs printed, in first-seen
    /// order: one entry when the tree is deterministic.
    pub counts: Vec<JsonValue>,
}

impl Side {
    /// A side from its untraced outputs and its traced run.
    pub fn new(outputs: Vec<Output>, traced: Run) -> Side {
        let mut counts = Vec::new();
        let mut runs = Vec::new();
        for out in outputs {
            if !counts.contains(&out.counts) {
                counts.push(out.counts);
            }
            runs.push(out.run);
        }
        Side { runs, traced, counts }
    }

    /// Failed and attempted operations, traced run included.
    pub fn failed_share(&self) -> (u64, u64) {
        let runs = self.runs.iter().chain([&self.traced]);
        runs.fold((0, 0), |(f, a), r| (f + r.count("failed"), a + r.count("attempted")))
    }
}

/// Both trees' runs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRecord {
    /// Workload name.
    pub name: String,
    /// The parent tree's runs.
    pub parent: Side,
    /// The change tree's runs.
    pub change: Side,
}

/// A `BENCH_<n>.json` file: every raw value of one A/B measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The parent commit.
    pub parent: String,
    /// The change commit.
    pub change: String,
    /// perfbench `--seed` of every run.
    pub seed: u64,
    /// The claimed gain, `METRIC@WORKLOAD`, if any.
    pub claim: Option<String>,
    /// CPUs of the measuring host.
    pub nproc: u64,
    /// One entry per workload.
    pub workloads: Vec<WorkloadRecord>,
}

// The canonical rendering of these records keeps object keys sorted, so
// each table lists its fields in key order.
json_record!(Side { counts, runs, traced });
json_record!(WorkloadRecord { change, name, parent });
json_record!(Record { change, claim, nproc, parent, seed, workloads });

/// A run travels as its result line.
impl Field for Run {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }
    fn read(v: Text<'_>) -> Result<Self, String> {
        Run::new(v.to_value())
    }
}

impl Record {
    /// Canonical JSON: `parse(to_json())` re-renders byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a record written by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<Record, String> {
        let record: Record = json::read(text)?;
        for side in record.workloads.iter().flat_map(|w| [&w.parent, &w.change]) {
            if side.runs.len() != PAIRS {
                return Err(format!("a side holds {} runs, not {PAIRS}", side.runs.len()));
            }
        }
        Ok(record)
    }
}

/// First quartile, median and third quartile, interpolating linearly
/// between order statistics.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Pairs in which the change reads strictly better; ties count for neither.
pub fn wins(parent: &[f64], change: &[f64], higher_is_better: bool) -> usize {
    parent.iter().zip(change).filter(|&(p, c)| if higher_is_better { c > p } else { c < p }).count()
}

/// One (workload, end-to-end metric) row of the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The parent's quartiles.
    pub parent: [f64; 3],
    /// The change's quartiles.
    pub change: [f64; 3],
    /// How much worse the change's median is, as a fraction of the
    /// parent's (negative when better).
    pub worse_by: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// The row's verdict.
    pub verdict: Verdict,
}

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound, the runs' spread narrower than it.
    Ok,
    /// Within its bound, but a tree's interquartile range is wider than the
    /// bound and the change's runs do not all beat the parent's.
    Unresolved,
    /// Worse than the parent's median by more than the bound: fails.
    Worse,
    /// The claimed metric, with its claim met.
    ClaimMet,
    /// The claimed metric, with its claim not met: fails.
    ClaimNotMet,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "WORSE",
            Verdict::ClaimMet => "claim met",
            Verdict::ClaimNotMet => "CLAIM NOT MET",
        }
    }
}

/// The gate's outcome: the rows, every failure, and the rendered table.
#[derive(Debug, Clone)]
pub struct Judgement {
    /// One row per workload and end-to-end metric.
    pub rows: Vec<Row>,
    /// Everything that fails the gate; empty when it passes.
    pub failures: Vec<String>,
    /// The table `bench-diff` prints.
    pub table: String,
}

impl Judgement {
    /// `true` when the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Appends to `out` each leaf where `parent` and `change` differ, as
/// `path parent → change` (`references[2].physical_runs 19923 → 7402`); a
/// leaf one side lacks shows as `absent`.
fn differences(path: String, parent: &JsonValue, change: &JsonValue, out: &mut Vec<String>) {
    let mut leaf = |path: String, p: Option<&JsonValue>, c: Option<&JsonValue>| match (p, c) {
        (Some(p), Some(c)) => differences(path, p, c, out),
        _ => {
            let shown = |v: Option<&JsonValue>| v.map_or("absent".into(), JsonValue::to_json);
            out.push(format!("{path} {} → {}", shown(p), shown(c)));
        }
    };
    match (parent, change) {
        (JsonValue::Object(p), JsonValue::Object(c)) => {
            for key in p.keys().chain(c.keys().filter(|key| !p.contains_key(*key))) {
                let sub = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                leaf(sub, p.get(key), c.get(key));
            }
        }
        (JsonValue::Array(p), JsonValue::Array(c)) => {
            for k in 0..p.len().max(c.len()) {
                leaf(format!("{path}[{k}]"), p.get(k), c.get(k));
            }
        }
        _ if parent != change => {
            out.push(format!("{path} {} → {}", parent.to_json(), change.to_json()));
        }
        _ => {}
    }
}

/// Judges a record against the benchmark's metrics and bounds.
///
/// Fails when a workload of the benchmark is missing, when a side printed
/// more than one set of reference counts or the trees' sets differ, when
/// the change fails a larger share of operations, when an end-to-end median
/// is worse than the parent's by more than its bound, and when a claim is
/// not met: at least [`CLAIM_WINS`] wins, and a median gap in the better
/// direction wider than the parent's interquartile range.
pub fn gate(record: &Record, bench: &Benchmark) -> Judgement {
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    let claim = match record.claim.as_deref().map(|c| bench.claim(c)).transpose() {
        Ok(claim) => claim,
        Err(e) => {
            failures.push(e);
            None
        }
    };
    let mut t = Table::new(
        format!(
            "bench-diff: parent {} vs change {}, seed {}, {PAIRS} pairs, nproc {}, claim {}",
            record.parent,
            record.change,
            record.seed,
            record.nproc,
            record.claim.as_deref().unwrap_or("none"),
        ),
        &[9, 20, 11, 11, 11, 11, 7, 5, 5],
    );
    t.row(&[
        "workload", "metric", "parent", "IQR", "change", "IQR", "delta", "wins", "bound", "verdict",
    ]);
    let mut notes = Vec::new();
    for name in &bench.workloads {
        let Some(w) = record.workloads.iter().find(|w| &w.name == name) else {
            failures.push(format!("{name}: not recorded"));
            continue;
        };
        for spec in &bench.end_to_end {
            let values = |s: &Side| s.runs.iter().map(|r| r.metric(&spec.name)).collect();
            let (p, c): (Vec<f64>, Vec<f64>) = (values(&w.parent), values(&w.change));
            if p.iter().chain(&c).any(|v| !v.is_finite()) {
                failures.push(format!("{name}: {} is missing or not a number", spec.name));
                continue;
            }
            let row = judge(name, spec, &p, &c, claim == Some((spec.name.as_str(), name)));
            match row.verdict {
                Verdict::Worse => failures.push(format!(
                    "{name}: {} median is {:.1}% worse than the parent's (bound {:.0}%)",
                    spec.name,
                    100.0 * row.worse_by,
                    100.0 * spec.bound
                )),
                Verdict::ClaimNotMet => failures.push(format!(
                    "{name}: claimed {} won {}/{PAIRS} pairs with a median gap of {} against \
                     the parent's IQR {}",
                    spec.name,
                    row.wins,
                    sig((row.change[1] - row.parent[1]).abs()),
                    sig(row.parent[2] - row.parent[0]),
                )),
                _ => {}
            }
            t.row(&[
                name,
                &spec.name,
                &sig(row.parent[1]),
                &sig(row.parent[2] - row.parent[0]),
                &sig(row.change[1]),
                &sig(row.change[2] - row.change[0]),
                &relative(row.parent[1], row.change[1]),
                &format!("{}/{PAIRS}", row.wins),
                &format!("{:.0}%", 100.0 * spec.bound),
                row.verdict.label(),
            ]);
            rows.push(row);
        }
        let (pf, pa) = w.parent.failed_share();
        let (cf, ca) = w.change.failed_share();
        if cf as f64 * pa.max(1) as f64 > pf as f64 * ca.max(1) as f64 {
            failures.push(format!("{name}: failed operations rose from {pf}/{pa} to {cf}/{ca}"));
        }
        let counts_agree = w.parent.counts.len() == 1 && w.parent.counts == w.change.counts;
        if let ([parent], [change]) = (&w.parent.counts[..], &w.change.counts[..]) {
            let mut fields = Vec::new();
            differences(String::new(), parent, change, &mut fields);
            failures.extend(fields.into_iter().map(|field| format!("{name}: {field}")));
        } else if !counts_agree {
            failures.push(format!(
                "{name}: references/count_only differ (parent printed {} distinct, change {})",
                w.parent.counts.len(),
                w.change.counts.len()
            ));
        }
        notes.push(format!(
            "{name}: failed {pf}/{pa} -> {cf}/{ca}; references/count_only {}",
            if counts_agree { "identical" } else { "DIFFER" },
        ));
    }
    for note in notes {
        t.text(note);
    }
    let mut layers = Table::new(
        "\nper-layer metrics of one traced run per tree, not gated (layers a workload never \
         enters are left out):",
        &[9, 36, 11, 11],
    );
    layers.row(&["workload", "metric", "parent", "change", "ratio"]);
    for w in &record.workloads {
        for spec in &bench.per_layer {
            let (p, c) = (w.parent.traced.metric(&spec.name), w.change.traced.metric(&spec.name));
            if p != 0.0 || c != 0.0 {
                layers.row(&[&w.name, &spec.name, &sig(p), &sig(c), &format!("{:.3}", c / p)]);
            }
        }
    }
    layers.text(if failures.is_empty() { "\ngate: PASS" } else { "\ngate: FAIL" });
    for f in &failures {
        layers.text(format!("  - {f}"));
    }
    Judgement { rows, failures, table: t.render() + &layers.render() }
}

fn judge(workload: &str, spec: &MetricSpec, parent: &[f64], change: &[f64], claimed: bool) -> Row {
    let (p, c) = (quartiles(parent), quartiles(change));
    let higher = spec.higher_is_better;
    // Signed so that positive is worse, whatever the metric's direction.
    let worse = if higher { p[1] - c[1] } else { c[1] - p[1] };
    let worse_by = if worse == 0.0 { 0.0 } else { worse / p[1].abs() };
    let wins = wins(parent, change, higher);
    let spread = (p[2] - p[0]).max(c[2] - c[0]);
    let beats = |c: f64, p: f64| if higher { c > p } else { c < p };
    let dominates = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let verdict = if claimed {
        if wins >= CLAIM_WINS && -worse > p[2] - p[0] {
            Verdict::ClaimMet
        } else {
            Verdict::ClaimNotMet
        }
    } else if worse_by > spec.bound {
        Verdict::Worse
    } else if spread > spec.bound * p[1].abs() && !dominates {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        workload: workload.to_string(),
        metric: spec.name.clone(),
        parent: p,
        change: c,
        worse_by,
        wins,
        verdict,
    }
}

/// The change from `parent` to `change`, as a signed percentage.
fn relative(parent: f64, change: f64) -> String {
    let delta = if change == parent { 0.0 } else { (change - parent) / parent.abs() };
    format!("{:+.1}%", 100.0 * delta)
}

/// Four significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}
