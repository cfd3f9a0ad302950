//! In-memory span recording and per-layer self-time accounting.
//!
//! The benchmark opens a span around every call it makes into a layer's
//! public function. A span's layer is its name up to the first `.`
//! (`differential.case` belongs to `differential`). A span's self time is
//! its duration minus the durations of its direct children, so the layer
//! self times of a pass plus its unattributed time add up exactly to the
//! pass's capacity: wall time × threads.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use comfort_telemetry::JsonValue;

/// The layers a case or a campaign passes through, outermost last.
pub const LAYERS: [&str; 11] = [
    "lm",
    "syntax",
    "datagen",
    "interp",
    "differential",
    "reduce",
    "filter",
    "executor",
    "checkpoint",
    "service",
    "fleet",
];

/// Span `case` value for spans not tied to one test case.
pub const NO_CASE: u64 = u64::MAX;
const NO_PARENT: u32 = u32::MAX;

/// One timed call: nanoseconds since the recording thread's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, or `NO_PARENT`.
    pub parent: u32,
    pub case: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer with a stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now, nested in the innermost open span.
    pub fn open(&mut self, name: &'static str, case: u64) -> usize {
        let now = self.now_ns();
        self.open_at(name, case, now)
    }

    /// Opens a span that started at `start_ns` (for intervals observed
    /// from outside, such as a child process's lifetime).
    pub fn open_at(&mut self, name: &'static str, case: u64, start_ns: u64) -> usize {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, case });
        self.open.push(id as u32);
        id
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.close_at(id, now);
    }

    pub fn close_at(&mut self, id: usize, end_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id as u32), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, case: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, case);
        let out = f();
        self.close(id);
        out
    }

    /// Adds spans recorded elsewhere (another process) under the innermost
    /// open span, shifted so the first starts at `start_ns`.
    pub fn graft(&mut self, spans: &[Span], start_ns: u64) {
        let base = self.spans.len() as u32;
        let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        for s in spans {
            self.spans.push(Span {
                start_ns: s.start_ns - origin + start_ns,
                end_ns: s.end_ns - origin + start_ns,
                parent: if s.parent == NO_PARENT { parent } else { s.parent + base },
                ..*s
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "trace finished with open spans");
        self.spans
    }
}

/// Self time of every span of one thread's buffer, by index.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

fn layer_of(name: &str) -> &'static str {
    let prefix = name.split('.').next().unwrap_or(name);
    LAYERS
        .iter()
        .find(|l| **l == prefix)
        .unwrap_or_else(|| panic!("span {name} names no known layer"))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice, or `None` unless at least
/// ten samples lie beyond it (so a p99 needs 1000 samples).
pub fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len() as f64;
    if n * (1.0 - q) < 10.0 {
        return None;
    }
    let rank = (q * n).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Per-layer self time and per-span-name samples over one or more passes.
#[derive(Default)]
pub struct Profile {
    samples: BTreeMap<&'static str, Vec<u64>>,
    layer_self_ns: BTreeMap<&'static str, u64>,
    capacity_ns: u64,
    wall_ns: Vec<u64>,
    threads: usize,
    passes: Vec<Vec<Vec<Span>>>,
}

impl Profile {
    /// Adds one pass: each thread's spans, the pass wall time and the
    /// number of threads the capacity is counted over.
    pub fn add_pass(&mut self, threads: Vec<Vec<Span>>, wall_ns: u64, width: usize) {
        for spans in &threads {
            for (span, own) in spans.iter().zip(self_times(spans)) {
                self.samples.entry(span.name).or_default().push(span.duration_ns());
                *self.layer_self_ns.entry(layer_of(span.name)).or_default() += own;
            }
        }
        self.capacity_ns += wall_ns * width as u64;
        self.wall_ns.push(wall_ns);
        self.threads = width;
        if self.passes.is_empty() {
            self.passes.push(threads);
        }
    }

    /// Durations of every span named `name`, in nanoseconds.
    fn samples(&self, name: &str) -> &[u64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration of spans named `name`, in `unit_ns` units (0 when
    /// the pass never called that function).
    pub fn p50(&self, name: &str, unit_ns: f64) -> f64 {
        let s = self.samples(name);
        if s.is_empty() {
            return 0.0;
        }
        median(&s.iter().map(|&v| v as f64).collect::<Vec<_>>()) / unit_ns
    }

    /// Summed duration of spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.samples(name).iter().sum::<u64>() as f64 * 1e-9
    }

    pub fn self_s(&self, layer: &str) -> f64 {
        self.layer_self_ns.get(layer).copied().unwrap_or(0) as f64 * 1e-9
    }

    pub fn capacity_s(&self) -> f64 {
        self.capacity_ns as f64 * 1e-9
    }

    /// A layer's self time as a share of the passes' capacity.
    pub fn share(&self, layer: &str) -> f64 {
        self.self_s(layer) / self.capacity_s()
    }

    pub fn unattributed_s(&self) -> f64 {
        self.capacity_s() - LAYERS.iter().map(|l| self.self_s(l)).sum::<f64>()
    }

    fn wall_s_p50(&self) -> f64 {
        median(&self.wall_ns.iter().map(|&w| w as f64 * 1e-9).collect::<Vec<_>>())
    }

    /// The full layer table: self time and share per layer, and count,
    /// p50, p99 (when ten samples lie beyond it) and total per span name.
    pub fn to_json(&self) -> JsonValue {
        let layers = LAYERS.iter().map(|l| {
            let row = JsonValue::object([
                ("self_s", JsonValue::Number(self.self_s(l))),
                ("share", JsonValue::Number(self.share(l))),
            ]);
            (l.to_string(), row)
        });
        let spans = self.samples.iter().map(|(name, durations)| {
            let mut sorted = durations.clone();
            sorted.sort_unstable();
            let median_ns = median(&sorted.iter().map(|&v| v as f64).collect::<Vec<_>>());
            let mut row = vec![
                ("n", JsonValue::Int(sorted.len() as i128)),
                ("p50_us", JsonValue::Number(median_ns * 1e-3)),
                ("total_s", JsonValue::Number(sorted.iter().sum::<u64>() as f64 * 1e-9)),
            ];
            if let Some(p99) = tail(&sorted, 0.99) {
                row.push(("p99_us", JsonValue::Number(p99 as f64 * 1e-3)));
            }
            (name.to_string(), JsonValue::object(row))
        });
        JsonValue::object([
            ("passes", JsonValue::Int(self.wall_ns.len() as i128)),
            ("threads", JsonValue::Int(self.threads as i128)),
            ("wall_s_p50", JsonValue::Number(self.wall_s_p50())),
            ("capacity_s", JsonValue::Number(self.capacity_s())),
            ("unattributed_s", JsonValue::Number(self.unattributed_s())),
            ("unattributed_share", JsonValue::Number(self.unattributed_s() / self.capacity_s())),
            ("layers", JsonValue::Object(layers.collect())),
            ("spans", JsonValue::Object(spans.collect())),
        ])
    }

    /// Writes the first pass's spans, one per line:
    /// `thread id parent case start_ns end_ns name` (tab-separated;
    /// `-` for no parent or no case).
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\tid\tparent\tcase\tstart_ns\tend_ns\tname")?;
        for (thread, spans) in self.passes.iter().flatten().enumerate() {
            for (id, s) in spans.iter().enumerate() {
                let parent =
                    if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
                let case = if s.case == NO_CASE { "-".to_string() } else { s.case.to_string() };
                writeln!(
                    out,
                    "{thread}\t{id}\t{parent}\t{case}\t{}\t{}\t{}",
                    s.start_ns, s.end_ns, s.name
                )?;
            }
        }
        out.flush()
    }
}

/// Span text format used to hand a child process's spans to its parent.
pub fn spans_to_text(spans: &[Span]) -> String {
    spans
        .iter()
        .map(|s| {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            format!("{}\t{}\t{}\t{}\n", s.name, s.start_ns, s.end_ns, parent)
        })
        .collect()
}

/// Parses [`spans_to_text`] output; `names` maps the text back to the
/// static span names this binary uses.
pub fn spans_from_text(text: &str, names: &[&'static str]) -> Result<Vec<Span>, String> {
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let [name, start, end, parent] = f[..] else {
                return Err(format!("bad span line {line:?}"));
            };
            let name = names
                .iter()
                .copied()
                .find(|n| *n == name)
                .ok_or_else(|| format!("unknown span {name}"))?;
            let num = |v: &str| v.parse::<i64>().map_err(|e| format!("{v}: {e}"));
            let parent = num(parent)?;
            Ok(Span {
                name,
                start_ns: num(start)? as u64,
                end_ns: num(end)? as u64,
                parent: if parent < 0 { NO_PARENT } else { parent as u32 },
                case: NO_CASE,
            })
        })
        .collect()
}
