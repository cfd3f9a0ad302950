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
//! * [`metrics`] — service counters, counted from the service events,
//!   and their conservation ledgers;
//! * [`fleet`] — process-isolation primitives: jailed worker children,
//!   capped capture, signal/exit classification;
//! * [`worker`] — the single-shot out-of-process shard worker
//!   (`comfortd --worker-once`) the fleet spawns: a directed run of one
//!   daemon-leased shard, or a journal-free probe. The daemon's
//!   [`LeaseTable`] is the only lease owner.

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
pub use metrics::MetricsSnapshot;
pub use server::Server;
pub use spec::CampaignSpec;
pub use wire::Request;
pub use worker::{run_worker_once, WorkerError, WorkerOnceOptions};
