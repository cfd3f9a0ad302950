#![warn(missing_docs)]

//! `comfort-service`: the supervised multi-tenant campaign daemon.
//!
//! The library behind the `comfortd` / `comfortctl` binaries. It
//! multiplexes many concurrent fuzzing campaigns over one global worker
//! pool while preserving the workspace's determinism contract: a campaign
//! run under the daemon — even one interrupted by SIGKILL and resumed in
//! a later daemon life — merges to a report **bit-identical** (in every
//! deterministic field) to a plain `CampaignSession::run`.
//!
//! * [`daemon`] — the worker pool, lease supervisor, admission control,
//!   fair-share scheduler, and graceful drain;
//! * [`lease`] — per-shard TTL leases with fencing sequences and
//!   progress-based heartbeat renewal;
//! * [`spec`] — the JSON campaign submission format;
//! * [`wire`] / [`server`] / [`client`] — the length-prefixed JSON
//!   control protocol over a Unix socket;
//! * [`metrics`] — service counters and their event-stream conservation
//!   contract;
//! * [`fleet`] — process-isolation primitives: jailed worker children,
//!   capped capture, signal/exit classification;
//! * [`worker`] — the single-shot out-of-process shard worker
//!   (`comfortd --worker-once`): standalone, directed, and probe modes.

pub mod client;
pub mod daemon;
pub mod fleet;
pub mod lease;
pub mod metrics;
pub mod server;
pub mod spec;
pub mod wire;
pub mod worker;

pub use client::Client;
pub use daemon::{
    CampaignState, CampaignStatus, Daemon, IsolationMode, Rejection, ServiceConfig, TailError,
};
pub use fleet::{ChildFate, ProcessJail};
pub use lease::{Claim, LeaseTable, ShardLease, ShardPhase};
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use server::Server;
pub use spec::{CampaignSpec, ChaosSpec};
pub use wire::Request;
pub use worker::{run_worker_once, WorkerError, WorkerOnceOptions};
