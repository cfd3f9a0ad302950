#![warn(missing_docs)]

//! Structured campaign telemetry for the COMFORT pipeline.
//!
//! A long differential campaign is a black box until its `CampaignReport`
//! lands; this crate makes the run observable while it happens, without
//! giving up the executor's determinism contract:
//!
//! * [`event`] — the typed event taxonomy ([`Event`]/[`EventKind`]): one
//!   event per pipeline action (case generated, case rejected, differential
//!   run, deviation, bug dedup, shard lifecycle, per-stage timing), each
//!   stamped with a [`LogicalClock`] of `(shard, seq)` so the stream has a
//!   total logical order that is independent of thread count. Wall-clock
//!   durations live in *optional* fields excluded from determinism
//!   comparisons ([`Event::to_json_deterministic`]).
//! * [`sink`] — the [`Sink`] trait and its three stock implementations:
//!   [`NullSink`] (default, zero cost), [`MemorySink`] (in-process capture),
//!   and [`JsonlSink`] (one JSON object per line, machine-readable). A
//!   cloneable [`SinkHandle`] travels through the campaign configuration;
//!   a [`Recorder`] assigns logical clocks at the emission site.
//! * [`metrics`] — per-stage counters and log₂ cost histograms aggregated
//!   into a [`CampaignMetrics`] that embeds in the campaign report and
//!   merges across shards conservation-exactly; the counters an event
//!   records are counted from the events ([`CampaignMetrics::count`]).
//! * [`progress`] — a polling [`ProgressHandle`] (cases done, bugs found,
//!   per-shard throughput) safe to read from any thread while a campaign
//!   runs.
//! * [`frame`] — crash-safe line framing (`J1 <len> <crc32> <payload>`)
//!   for the campaign checkpoint journal in `comfort-core`: a torn write
//!   corrupts at most the final line, and the loader salvages everything
//!   before it.
//! * [`json`] — a JSON grammar check with a text view that reads documents
//!   in place, a tree and canonical writer for documents built as values
//!   (the workspace is offline; there is no serde), and the one typed-field
//!   codec that events, journal records, specs and bench records are
//!   written and read with.
//!
//! # Example
//!
//! ```
//! use comfort_telemetry::{Event, EventKind, MemorySink, Recorder, SinkHandle, Stage};
//!
//! let mem = MemorySink::new();
//! let mut recorder = Recorder::new(SinkHandle::new(mem.clone()), 0);
//! recorder.emit(EventKind::CaseGenerated {
//!     case_id: 0,
//!     base: 1,
//!     origin: "program-gen".into(),
//!     mutant: false,
//! });
//! recorder.emit(EventKind::StageTiming {
//!     stage: Stage::Generation,
//!     invocations: 1,
//!     items: 1,
//!     logical_cost: 42,
//!     wall_nanos: Some(1_000),
//! });
//! let events: Vec<Event> = mem.events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].clock.seq, 1);
//! // Deterministic rendering strips the wall-clock field:
//! assert!(!events[1].to_json_deterministic().contains("wall_nanos"));
//! ```

pub mod event;
pub mod frame;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod retry;
pub mod sink;

pub use event::{Event, EventKind, LogicalClock, Stage, CONTROL_SHARD, MERGE_SHARD, SERVICE_SHARD};
pub use frame::{crc32, frame_line, parse_frame, read_framed, FrameError, FramedRead};
pub use json::JsonValue;
pub use metrics::{CampaignMetrics, CostHistogram, StageMetrics};
pub use progress::{ProgressHandle, ProgressSnapshot, ShardSnapshot};
pub use retry::RetryPolicy;
pub use sink::{
    JsonlSink, MemorySink, NullSink, Recorder, Sink, SinkError, SinkHandle, SinkHealth,
};
