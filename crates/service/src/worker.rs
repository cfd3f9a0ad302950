//! The single-shot out-of-process shard worker (`comfortd --worker-once`).
//!
//! The fleet supervisor spawns it in one of two modes:
//!
//! * **Directed** (`--shard N --lease-seq S`): the supervisor owns the
//!   lease and journals every lease transition itself; the child just runs
//!   the shard, reports progress on stdout, and appends the shard record.
//! * **Probe** (`--probe --shard N --limit-cases M`): runs the first `M`
//!   cases of the shard with *no journal writes at all*. Under `--jail`
//!   an injected abort kills the process for real, so the exit status
//!   tells the poison-shard bisection whether the prefix is lethal.
//!
//! A call that selects neither mode is refused as a spec error before
//! anything is journalled: the daemon's lease table is the only lease
//! owner, and no worker claims a shard by itself.
//!
//! `--jail` additionally arms real chaos signals and is set by the fleet
//! supervisor, which wraps the process in rlimits and its own process
//! group (see [`crate::fleet`]).

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use comfort_core::checkpoint::{CheckpointJournal, ShardRecord};
use comfort_core::executor::ShardSpec;
use comfort_core::session::CampaignSession;
use comfort_engines::harness::panic_message;

use crate::spec::CampaignSpec;

/// A typed worker failure, classifiable by the supervisor through the
/// process exit code (see [`WorkerError::exit_code`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerError {
    /// The spec is invalid, names no checkpoint journal, or the call
    /// selects no mode.
    Spec(String),
    /// The journal cannot be appended.
    Journal(String),
    /// Shard execution failed: a panic escaped the harness's containment
    /// (the message is the panic's).
    Exec(String),
}

impl WorkerError {
    /// The process exit code for this error class (the supervisor's
    /// signal-free classification channel).
    pub fn exit_code(&self) -> u8 {
        match self {
            WorkerError::Spec(_) => 10,
            WorkerError::Journal(_) => 11,
            WorkerError::Exec(_) => 13,
        }
    }

    /// Maps an exit code back to its class label (`None` for codes this
    /// worker never produces).
    pub fn classify(code: i32) -> Option<&'static str> {
        match code {
            10 => Some("spec"),
            11 => Some("journal"),
            13 => Some("exec"),
            _ => None,
        }
    }
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Spec(m) => write!(f, "spec error: {m}"),
            WorkerError::Journal(m) => write!(f, "journal error: {m}"),
            WorkerError::Exec(m) => write!(f, "exec error: {m}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Options for one worker-once execution.
#[derive(Debug, Clone)]
pub struct WorkerOnceOptions {
    /// The campaign spec (must name a checkpoint journal except in probe
    /// mode).
    pub spec: CampaignSpec,
    /// Worker label, echoed in the summary line.
    pub worker: String,
    /// Not read: the supervisor journals every lease with its own TTL.
    /// Kept because perfbench's worker entry point assigns it.
    pub ttl_millis: u64,
    /// Not read: a worker starts its shard at once. Kept because
    /// perfbench's worker entry point assigns it.
    pub hold_millis: u64,
    /// Directed and probe mode: the shard to run.
    pub shard: Option<u64>,
    /// Directed mode: the supervisor-owned fencing sequence. The worker
    /// writes no lease records; the parent owns the lease ledger.
    pub lease_seq: Option<u64>,
    /// Probe mode: no journal writes; the exit status is the result.
    pub probe: bool,
    /// Run only the first `n` cases of the shard (probe bisection).
    pub limit_cases: Option<usize>,
    /// Arm real chaos signals: injected aborts kill this process.
    pub jail: bool,
    /// Print `progress <cases>` lines on stdout at this interval so a
    /// supervising parent can renew the lease on real progress.
    pub heartbeat_millis: Option<u64>,
}

impl WorkerOnceOptions {
    /// The defaults for `spec`, with no mode selected: set `shard` and
    /// `lease_seq`, or `probe` and `shard`, before running. The name is
    /// kept because perfbench builds its options from it.
    pub fn standalone(spec: CampaignSpec, worker: &str) -> Self {
        WorkerOnceOptions {
            spec,
            worker: worker.to_string(),
            ttl_millis: 1000,
            hold_millis: 0,
            shard: None,
            lease_seq: None,
            probe: false,
            limit_cases: None,
            jail: false,
            heartbeat_millis: None,
        }
    }
}

/// Runs one supervisor-leased shard (or probes one, journal-free).
/// Returns a summary line for the CLI.
pub fn run_worker_once(opts: &WorkerOnceOptions) -> Result<String, WorkerError> {
    if opts.jail {
        comfort_engines::arm_real_chaos_signals();
    }
    let config = opts.spec.build_config().map_err(WorkerError::Spec)?;
    let path = config.checkpoint.clone();
    let session = CampaignSession::new(config);
    let plan = session.plan();

    if opts.probe {
        return run_probe(opts, &session, &plan);
    }

    let (Some(target), Some(lease_seq)) = (opts.shard, opts.lease_seq) else {
        return Err(WorkerError::Spec(
            "worker-once runs a leased shard (--shard N --lease-seq S) or a probe \
             (--probe --shard N); the daemon owns every lease"
                .to_string(),
        ));
    };
    let path = path.ok_or_else(|| {
        WorkerError::Spec("worker-once requires a checkpoint in the spec".to_string())
    })?;
    let spec = *plan.get(target as usize).ok_or_else(|| {
        WorkerError::Spec(format!(
            "directed shard {target} is outside the {}-shard plan",
            plan.len()
        ))
    })?;
    let journal = CheckpointJournal::open_append_shared(&path)
        .map_err(|e| WorkerError::Journal(format!("cannot append to {path:?}: {e}")))?;

    let record = {
        // Progress sampling: run_shard drives the session's shared progress
        // handle, armed from the plan, so a sampler thread can stream
        // `progress` lines to stdout.
        let _beat = opts.heartbeat_millis.map(|millis| {
            ProgressBeat::start(session.progress(), target as usize, Duration::from_millis(millis))
        });
        run_shard(&session, &spec)?
    };
    journal.append_shard(&record).map_err(|e| WorkerError::Journal(e.to_string()))?;
    println!("committed {target}");
    Ok(format!(
        "worker {} committed shard {} ({} cases) under lease seq {}",
        opts.worker, target, record.report.cases_run, lease_seq
    ))
}

/// Probe mode: run the first `limit_cases` cases of the shard with no
/// journal writes. Under `--jail` a lethal case kills the process; a
/// clean exit means the prefix survived.
fn run_probe(
    opts: &WorkerOnceOptions,
    session: &CampaignSession,
    plan: &[ShardSpec],
) -> Result<String, WorkerError> {
    let shard =
        opts.shard.ok_or_else(|| WorkerError::Spec("--probe requires --shard".to_string()))?;
    let spec = *plan
        .get(shard as usize)
        .ok_or_else(|| WorkerError::Spec(format!("probe shard {shard} is out of plan")))?;
    let cases = opts.limit_cases.unwrap_or(spec.cases).min(spec.cases);
    // A prefix probe is valid because generation is sequential from the
    // shard seed: the first `cases` cases of the truncated spec are
    // exactly the first `cases` cases of the full shard.
    let probe_spec = ShardSpec { cases, ..spec };
    let record = run_shard(session, &probe_spec)?;
    Ok(format!(
        "probe survived shard {shard} prefix of {cases} cases ({} run)",
        record.report.cases_run
    ))
}

/// Runs one shard into its record, turning a panic that escapes the
/// harness's containment (a spec with `contain_panics: false`) into
/// [`WorkerError::Exec`], so the child exits with its class and message
/// instead of Rust's panic status. Nothing arms a deadline here: the
/// supervisor owns the campaign's and kills the child when it passes, so
/// the record a directed child journals always covers its whole shard.
fn run_shard(session: &CampaignSession, spec: &ShardSpec) -> Result<ShardRecord, WorkerError> {
    let run = || session.run_shard(spec);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_err(|panic| {
        WorkerError::Exec(format!("shard panicked: {}", panic_message(panic.as_ref())))
    })
}

/// A sampler thread that prints `progress <cases>` lines while a shard
/// runs, so a supervising parent can renew the worker's lease on real
/// progress (and only on real progress — a wedged run prints nothing).
struct ProgressBeat {
    /// The stop flag, and the condition its setter signals.
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressBeat {
    fn start(
        progress: comfort_telemetry::ProgressHandle,
        shard: usize,
        interval: Duration,
    ) -> ProgressBeat {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            use std::io::Write as _;
            let (flag, wake) = &*signal;
            let mut last = 0u64;
            let mut stopped = false;
            while !stopped {
                // One interval, cut short when the beat is dropped.
                let guard = flag.lock().expect("beat flag lock");
                let (guard, _) = wake
                    .wait_timeout_while(guard, interval, |stop| !*stop)
                    .expect("beat flag lock");
                stopped = *guard;
                drop(guard);
                let snap = progress.snapshot();
                let done = snap.shards.get(shard).map(|s| s.cases_done).unwrap_or_default();
                if done > last {
                    last = done;
                    println!("progress {done}");
                    let _ = std::io::stdout().flush();
                }
            }
        });
        ProgressBeat { stop, handle: Some(handle) }
    }
}

impl Drop for ProgressBeat {
    fn drop(&mut self) {
        let (flag, wake) = &*self.stop;
        *flag.lock().expect("beat flag lock") = true;
        wake.notify_one();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dropped_beat_stops_without_waiting_out_its_interval() {
        let beat = ProgressBeat::start(
            comfort_telemetry::ProgressHandle::new(),
            0,
            Duration::from_secs(5),
        );
        // Let the thread reach its wait.
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        drop(beat);
        let waited = started.elapsed();
        assert!(waited < Duration::from_millis(500), "drop waited {waited:?}");
    }

    #[test]
    fn exit_codes_round_trip_through_classification() {
        let errors = [
            WorkerError::Spec("s".into()),
            WorkerError::Journal("j".into()),
            WorkerError::Exec("e".into()),
        ];
        let mut seen = std::collections::HashSet::new();
        for e in &errors {
            let code = e.exit_code();
            assert!(seen.insert(code), "exit codes must be distinct");
            assert!(WorkerError::classify(code as i32).is_some());
        }
        assert_eq!(WorkerError::classify(0), None);
        assert_eq!(WorkerError::classify(1), None);
    }
}
