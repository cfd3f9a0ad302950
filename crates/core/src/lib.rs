#![warn(missing_docs)]

//! The COMFORT pipeline (Figure 3).
//!
//! This crate assembles the paper's system out of the workspace substrates:
//!
//! * [`datagen`] — **Algorithm 1**, ECMA-262-guided test-data generation,
//! * [`differential`] — the §3.4 differential harness with Figure 5's
//!   outcome classification and majority voting,
//! * [`reduce`] — the §3.5 AST-traversal test-case reducer,
//! * [`filter`] — the §3.6 three-layer identical-bug filter tree,
//! * [`campaign`] — the §4–5 evaluation loop with version attribution and a
//!   calibrated developer model,
//! * [`executor`] — the shard plan and the order-preserving merge,
//! * [`runtime`] — [`ShardRuntime`], one campaign's shard state (slots,
//!   ordered flush, journal, commit, finish) shared by every driver,
//! * [`session`] — [`CampaignSession`], the one way to run a campaign
//!   (fresh or crash-safe resumable) and its one trained runner, which
//!   runs each shard into its journal record for every driver,
//! * [`compare`] / [`quality`] — the Figure 8 and Figure 9 harnesses,
//! * [`report`] — renders every table and figure.
//!
//! # Examples
//!
//! ```no_run
//! use comfort_core::{CampaignConfig, CampaignSession};
//!
//! let config = CampaignConfig::builder().max_cases(200).build().expect("valid config");
//! let report = CampaignSession::new(config).run().expect("a journal-free run cannot fail");
//! for bug in &report.bugs {
//!     println!("{} — {}", bug.key, bug.earliest_version);
//! }
//! ```

pub mod campaign;
pub mod checkpoint;
pub mod compare;
pub mod datagen;
pub mod differential;
pub mod executor;
pub mod extensions;
pub mod filter;
pub mod fuzzer;
pub mod quality;
pub mod reduce;
pub mod report;
pub mod resilience;
pub mod runtime;
pub mod session;
pub mod test262;
pub mod testcase;

pub use campaign::{
    testbeds_for, BugReport, Campaign, CampaignConfig, CampaignConfigBuilder, CampaignReport,
    ConfigError, DeveloperModel,
};
pub use checkpoint::{
    config_fingerprint, report_checksum, report_from_json, report_to_json,
    report_to_json_deterministic, CampaignCheckpoint, CheckpointError, CheckpointJournal,
    Fingerprint, LeaseAction, LeaseRecord, RecoveryReport, ResumeInfo, ShardRecord,
};
pub use comfort_telemetry as telemetry;
pub use differential::{
    run_differential, vote_on_signatures_quorum, CaseOutcome, DeviationKind, DeviationRecord,
    ExecutionClasses, GroupQuorum, QuorumPolicy, Signature,
};
pub use executor::{merge_shard_reports, merge_shard_reports_with_sink, plan_shards, ShardSpec};
pub use filter::{BugKey, BugTree};
pub use fuzzer::{ComfortFuzzer, Fuzzer};
pub use reduce::reduce as reduce_case;
pub use resilience::{
    run_case_hardened, run_case_hardened_cancellable, CancelToken, CaseObservation, ChaosConfig,
    ExecPolicy, FaultRecord, HealthTracker, QuarantineEvent, ReinstateEvent, TestbedHealth,
};
pub use runtime::ShardRuntime;
pub use session::CampaignSession;
pub use testcase::{Origin, TestCase};
