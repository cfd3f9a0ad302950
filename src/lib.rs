#![warn(missing_docs)]

//! # COMFORT-rs
//!
//! A Rust reproduction of *"Automated Conformance Testing for JavaScript
//! Engines via Deep Compiler Fuzzing"* (Ye et al., PLDI 2021).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate. See the individual crates for details:
//!
//! * [`regex`] — backtracking regex engine (substrate for spec parsing and
//!   the JS `RegExp` builtin).
//! * [`syntax`] — JS lexer, parser, AST, and pretty-printer.
//! * [`interp`] — the reference JS interpreter with coverage instrumentation.
//! * [`engines`] — simulated JS engines with a seeded conformance-bug catalog.
//! * [`ecma262`] — the ECMA-262 pseudo-code rule parser and spec database.
//! * [`corpus`] — training-corpus synthesizer.
//! * [`lm`] — BPE tokenizer and n-gram language model (the GPT-2 stand-in).
//! * [`core`] — the COMFORT pipeline: generation, ECMA-guided mutation,
//!   differential testing, reduction, deduplication, campaign simulation.
//! * [`baselines`] — DeepSmith / Fuzzilli / CodeAlchemist / DIE / Montage
//!   baseline fuzzers.
//! * [`telemetry`] — structured campaign telemetry: typed events, sinks,
//!   per-stage metrics, and a live progress handle.
//! * [`service`] — the supervised multi-tenant campaign daemon behind the
//!   `comfortd`/`comfortctl` binaries: lease-based shards, heartbeats,
//!   crash recovery, admission control, and graceful drain.
//!
//! # Quickstart
//!
//! A campaign is a [`CampaignConfig`](core::CampaignConfig) run by a
//! [`CampaignSession`](core::CampaignSession), the one way to run one:
//!
//! ```
//! use comfort::lm::GeneratorConfig;
//! use comfort::prelude::*;
//!
//! let config = CampaignConfig::builder()
//!     .seed(42)
//!     .corpus_programs(120)
//!     .lm(GeneratorConfig { order: 8, bpe_merges: 250, top_k: 10, max_tokens: 1000 })
//!     .max_cases(50)
//!     .fuel(300_000)
//!     .include_strict(false)
//!     .include_legacy(false)
//!     .build()
//!     .expect("valid config");
//! let report = CampaignSession::new(config).run().expect("a journal-free run cannot fail");
//! // Differential testing over the simulated engines produced a report:
//! println!("{} test cases, {} bugs", report.cases_run, report.bugs.len());
//! ```

pub use comfort_baselines as baselines;
pub use comfort_core as core;
pub use comfort_corpus as corpus;
pub use comfort_ecma262 as ecma262;
pub use comfort_engines as engines;
pub use comfort_interp as interp;
pub use comfort_lm as lm;
pub use comfort_regex as regex;
pub use comfort_service as service;
pub use comfort_syntax as syntax;
pub use comfort_telemetry as telemetry;

pub mod prelude {
    //! The commonly used surface in one import: `use comfort::prelude::*;`.
    //!
    //! Covers the campaign layer ([`CampaignConfig`] run by a
    //! [`CampaignSession`], which trains once and runs each shard into its
    //! [`ShardRecord`]; [`Campaign`] is one shard's body), the
    //! differential harness, the engine matrix, and the telemetry surface
    //! (sinks, metrics, progress).

    pub use comfort_core::campaign::{
        testbeds_for, BugReport, Campaign, CampaignConfig, CampaignConfigBuilder, CampaignReport,
        ConfigError,
    };
    pub use comfort_core::checkpoint::{
        config_fingerprint, report_checksum, report_to_json, report_to_json_deterministic,
        CampaignCheckpoint, CheckpointError, CheckpointJournal, RecoveryReport, ResumeInfo,
        ShardRecord,
    };
    pub use comfort_core::datagen::{DataGen, DataGenConfig};
    pub use comfort_core::differential::{
        run_differential, vote_on_signatures_quorum, CaseOutcome, DeviationKind, DeviationRecord,
        GroupQuorum, QuorumPolicy, Signature,
    };
    pub use comfort_core::executor::{plan_shards, ShardSpec};
    pub use comfort_core::filter::{BugKey, BugTree};
    pub use comfort_core::resilience::{
        run_case_hardened, run_case_hardened_cancellable, CancelToken, CaseObservation,
        ChaosConfig, ExecPolicy, FaultRecord, HealthTracker, QuarantineEvent, ReinstateEvent,
        TestbedHealth,
    };
    pub use comfort_core::session::CampaignSession;
    pub use comfort_core::testcase::{Origin, TestCase};
    pub use comfort_engines::{
        all_testbeds, compile, latest_testbeds, run_isolated_compiled, Backend, CompiledChunk,
        Engine, EngineName, FaultKind, FaultObserved, FaultPlan, IsolatedRun, IsolationPolicy,
        RetryPolicy, RunOptions, RunOptionsBuilder, Testbed,
    };
    pub use comfort_telemetry::{
        CampaignMetrics, Event, EventKind, JsonlSink, MemorySink, NullSink, ProgressHandle,
        ProgressSnapshot, SinkHandle, Stage, CONTROL_SHARD, MERGE_SHARD,
    };
}

/// The README's Rust snippets, compiled (and, unless marked `no_run`, run)
/// as doctests so the README cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
