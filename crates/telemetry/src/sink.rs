//! Event sinks and the emitting [`Recorder`].
//!
//! A [`Sink`] consumes [`Event`]s; a cloneable [`SinkHandle`] travels
//! through campaign configuration structs (which must stay `Clone +
//! Debug`); a [`Recorder`] stamps logical clocks at the emission site.
//!
//! The sharded executor guarantees that sinks observe events in **logical
//! order** (shard-major, then sequence): each shard's stream is buffered
//! and flushed as soon as every earlier shard has flushed, so a `JsonlSink`
//! file is byte-identical (modulo wall-clock fields) at every thread count.

use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind, LogicalClock};
use crate::retry::RetryPolicy;

/// A durable-sink failure, surfaced as a typed value instead of being
/// silently swallowed. Telemetry writes stay best-effort — a full disk
/// degrades observability, never aborts a campaign — but every degradation
/// is now counted and queryable through [`JsonlSink::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkError {
    /// The underlying writer kept failing after `retries` extra attempts.
    Write {
        /// Retries consumed before giving up (bounded by the sink's
        /// [`RetryPolicy`]).
        retries: u32,
        /// The final I/O error, rendered.
        message: String,
    },
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Write { retries, message } => {
                write!(f, "sink write failed after {retries} retries: {message}")
            }
        }
    }
}

impl std::error::Error for SinkError {}

/// Health counters for a durable sink, updated on every failed write.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkHealth {
    /// Events dropped after exhausting the retry budget.
    pub events_dropped: u64,
    /// Total retry attempts consumed (including those that eventually
    /// succeeded).
    pub retries: u64,
    /// The most recent error, when any write has ever failed.
    pub last_error: Option<SinkError>,
}

impl SinkHealth {
    /// `true` once at least one event has been dropped — the stream on disk
    /// is no longer complete.
    pub fn degraded(&self) -> bool {
        self.events_dropped > 0
    }
}

/// Consumes telemetry events. Implementations must be thread-safe: shards
/// run in parallel and the executor flushes completed shard streams from
/// worker threads.
pub trait Sink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &Event);
}

/// Discards every event (the default sink; zero observable cost).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Captures events in memory. Cloning shares the underlying buffer, so a
/// clone can be handed to a campaign while the original is later drained.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// An empty capture buffer.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A snapshot of every event captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// A copy of the events captured from position `from` on (empty when
    /// `from` is at or past the end).
    pub fn events_from(&self, from: usize) -> Vec<Event> {
        let events = self.events.lock().expect("memory sink poisoned");
        events.get(from..).map_or_else(Vec::new, <[Event]>::to_vec)
    }

    /// Drains the buffer, returning the captured events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("memory sink poisoned"))
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// `true` when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().expect("memory sink poisoned").push(event.clone());
    }
}

/// A file writer that flushes OS buffers to stable storage (`sync_all`)
/// when dropped, so a JSONL stream survives the process exiting normally
/// right before a power cut.
struct SyncOnDropFile {
    file: std::fs::File,
}

impl Write for SyncOnDropFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Drop for SyncOnDropFile {
    fn drop(&mut self) {
        let _ = self.file.sync_all();
    }
}

/// Writes one JSON object per line to an arbitrary writer (a file, a pipe,
/// an in-memory buffer). Clones share the writer.
#[derive(Clone)]
pub struct JsonlSink {
    out: Arc<Mutex<Box<dyn Write + Send>>>,
    retry: RetryPolicy,
    health: Arc<Mutex<SinkHealth>>,
}

impl JsonlSink {
    /// Wraps a writer.
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        JsonlSink {
            out: Arc::new(Mutex::new(Box::new(writer))),
            retry: RetryPolicy::default(),
            health: Arc::new(Mutex::new(SinkHealth::default())),
        }
    }

    /// Creates (truncating) a JSONL file at `path`. Buffered; flushed and
    /// synced to stable storage when the last clone drops.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = SyncOnDropFile { file: std::fs::File::create(path)? };
        Ok(JsonlSink::new(std::io::BufWriter::new(file)))
    }

    /// Overrides the bounded retry applied to failing writes (default:
    /// [`RetryPolicy::default`], two zero-backoff retries).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// A snapshot of the sink's write-failure counters. Shared across
    /// clones, so the campaign can hand a clone to the executor and query
    /// degradation afterwards.
    pub fn health(&self) -> SinkHealth {
        self.health.lock().expect("jsonl sink poisoned").clone()
    }

    /// Writes one event, retrying transient failures under the sink's
    /// [`RetryPolicy`]. On exhaustion the typed error is returned *and*
    /// recorded in [`JsonlSink::health`]; the stream on disk is missing
    /// the event but remains well-formed.
    pub fn try_emit(&self, event: &Event) -> Result<(), SinkError> {
        let mut line = event.to_json();
        line.push('\n');
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        match self.retry.run(|| out.write_all(line.as_bytes())) {
            Ok(((), retries)) => {
                if retries > 0 {
                    self.health.lock().expect("jsonl sink poisoned").retries += retries as u64;
                }
                Ok(())
            }
            Err((io, retries)) => {
                drop(out);
                self.health.lock().expect("jsonl sink poisoned").retries += retries as u64;
                let err = SinkError::Write { retries, message: io.to_string() };
                self.record_failure(err.clone());
                Err(err)
            }
        }
    }

    fn record_failure(&self, err: SinkError) {
        let mut health = self.health.lock().expect("jsonl sink poisoned");
        health.events_dropped += 1;
        health.last_error = Some(err);
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("jsonl sink poisoned").flush()
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink(..)")
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        // A full pipe/disk is not a reason to abort a campaign; the error
        // is retried, then counted in `health` rather than propagated.
        let _ = self.try_emit(event);
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// A cheaply cloneable, `Debug`-able handle to a shared [`Sink`] — the form
/// a sink takes inside configuration structs.
#[derive(Clone)]
pub struct SinkHandle {
    sink: Arc<dyn Sink>,
}

impl SinkHandle {
    /// Wraps a sink.
    pub fn new(sink: impl Sink + 'static) -> Self {
        SinkHandle { sink: Arc::new(sink) }
    }

    /// The discarding default.
    pub fn null() -> Self {
        SinkHandle::new(NullSink)
    }

    /// Forwards one event to the sink.
    pub fn emit(&self, event: &Event) {
        self.sink.emit(event);
    }
}

impl Default for SinkHandle {
    fn default() -> Self {
        SinkHandle::null()
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}

/// Stamps events with a shard-local logical clock and forwards them to a
/// sink. One recorder per shard; the sequence number is the per-shard event
/// count, which depends only on the shard's (deterministic) case stream.
#[derive(Debug, Clone)]
pub struct Recorder {
    sink: SinkHandle,
    shard: u64,
    seq: u64,
}

impl Recorder {
    /// A recorder for `shard`, emitting into `sink` starting at sequence 0.
    pub fn new(sink: SinkHandle, shard: u64) -> Self {
        Recorder { sink, shard, seq: 0 }
    }

    /// The shard this recorder stamps.
    pub fn shard(&self) -> u64 {
        self.shard
    }

    /// Stamps and emits one event.
    pub fn emit(&mut self, kind: EventKind) {
        let event = Event { clock: LogicalClock { shard: self.shard, seq: self.seq }, kind };
        self.seq += 1;
        self.sink.emit(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;

    #[test]
    fn recorder_assigns_consecutive_seqs() {
        let mem = MemorySink::new();
        let mut rec = Recorder::new(SinkHandle::new(mem.clone()), 3);
        for _ in 0..4 {
            rec.emit(EventKind::CaseRejected { base: 0, kept: false });
        }
        let events = mem.events();
        assert_eq!(events.len(), 4);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.clock.shard, 3);
            assert_eq!(e.clock.seq, i as u64);
        }
    }

    #[test]
    fn events_from_copies_only_the_suffix() {
        let mem = MemorySink::new();
        let mut rec = Recorder::new(SinkHandle::new(mem.clone()), 0);
        for base in 0..5 {
            rec.emit(EventKind::CaseRejected { base, kept: false });
        }
        let all = mem.events();
        assert_eq!(mem.events_from(0), all);
        assert_eq!(mem.events_from(3), all[3..]);
        assert!(mem.events_from(5).is_empty());
        assert!(mem.events_from(9).is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        let sink = JsonlSink::new(buf.clone());
        let mut rec = Recorder::new(SinkHandle::new(sink), 0);
        rec.emit(EventKind::StageTiming {
            stage: Stage::Filter,
            invocations: 1,
            items: 1,
            logical_cost: 1,
            wall_nanos: None,
        });
        rec.emit(EventKind::CaseRejected { base: 9, kept: true });
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("stage_timing"));
        assert!(lines[1].contains("case_rejected"));
    }

    #[test]
    fn created_file_holds_every_event_once_the_sink_drops() {
        let dir = std::env::temp_dir().join(format!("comfort-sink-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.jsonl");
        let kinds: Vec<EventKind> =
            (0..3).map(|base| EventKind::CaseRejected { base, kept: base == 1 }).collect();
        {
            let mut rec = Recorder::new(SinkHandle::new(JsonlSink::create(&path).unwrap()), 1);
            for kind in &kinds {
                rec.emit(kind.clone());
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let read: Vec<EventKind> =
            text.lines().map(|line| Event::parse(line).unwrap().kind).collect();
        assert_eq!(read, kinds);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A writer that fails its first `failures` writes, then succeeds.
    #[derive(Clone)]
    struct FlakyWriter {
        failures: Arc<Mutex<u32>>,
        written: Arc<Mutex<Vec<u8>>>,
    }

    impl FlakyWriter {
        fn new(failures: u32) -> Self {
            FlakyWriter {
                failures: Arc::new(Mutex::new(failures)),
                written: Arc::new(Mutex::new(Vec::new())),
            }
        }
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut left = self.failures.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                return Err(std::io::Error::other("disk full"));
            }
            self.written.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_retries_transient_write_failures() {
        let writer = FlakyWriter::new(2);
        let sink = JsonlSink::new(writer.clone())
            .with_retry(RetryPolicy { max_retries: 3, backoff_base_millis: 0 });
        sink.try_emit(&Event {
            clock: LogicalClock { shard: 0, seq: 0 },
            kind: EventKind::CaseRejected { base: 1, kept: false },
        })
        .expect("retry should absorb two transient failures");
        let health = sink.health();
        assert_eq!(health.retries, 2);
        assert_eq!(health.events_dropped, 0);
        assert!(!health.degraded());
        assert!(!writer.written.lock().unwrap().is_empty());
    }

    #[test]
    fn jsonl_sink_exhausted_retries_degrade_without_aborting() {
        let writer = FlakyWriter::new(u32::MAX);
        let sink = JsonlSink::new(writer)
            .with_retry(RetryPolicy { max_retries: 2, backoff_base_millis: 0 });
        let event = Event {
            clock: LogicalClock { shard: 0, seq: 0 },
            kind: EventKind::CaseRejected { base: 1, kept: false },
        };
        // The Sink-trait path must not panic or propagate.
        sink.emit(&event);
        let err = sink.try_emit(&event).expect_err("writer always fails");
        assert!(matches!(err, SinkError::Write { retries: 2, .. }), "got {err:?}");
        let health = sink.health();
        assert_eq!(health.events_dropped, 2);
        assert_eq!(health.retries, 4);
        assert!(health.degraded());
        assert!(health.last_error.unwrap().to_string().contains("disk full"));
    }

    #[test]
    fn sink_health_is_shared_across_clones() {
        let sink = JsonlSink::new(FlakyWriter::new(u32::MAX)).with_retry(RetryPolicy::NONE);
        let clone = sink.clone();
        clone.emit(&Event {
            clock: LogicalClock { shard: 0, seq: 0 },
            kind: EventKind::CaseRejected { base: 1, kept: false },
        });
        assert!(sink.health().degraded());
    }

    #[test]
    fn memory_sink_take_drains() {
        let mem = MemorySink::new();
        let mut rec = Recorder::new(SinkHandle::new(mem.clone()), 0);
        rec.emit(EventKind::CaseRejected { base: 1, kept: false });
        assert_eq!(mem.take().len(), 1);
        assert!(mem.is_empty());
    }
}
