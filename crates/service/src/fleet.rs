//! Multi-process worker fleet: hard-fault containment primitives.
//!
//! In [`IsolationMode::Processes`](crate::daemon::IsolationMode) each pool
//! slot forks a `comfortd --worker-once` child per shard instead of
//! running it on the thread. The child is a **resource jail**:
//!
//! * its own process group (one `SIGKILL` reaps the whole subtree),
//! * `RLIMIT_CPU` and `RLIMIT_AS` applied between fork and exec,
//! * stdout parsed for heartbeats and stored nowhere, stderr kept up to a
//!   byte cap (a runaway child cannot balloon the daemon),
//! * real chaos signals armed (`--jail`), so an injected abort kills the
//!   child dead instead of unwinding.
//!
//! The parent babysits: child `progress <n>` stdout lines feed the shard's
//! progress handle (which is what the supervisor heartbeat renews leases
//! on), death-by-signal is classified from the wait status, and exit codes
//! map back to [`WorkerError`](crate::worker::WorkerError) classes. The
//! fault policy itself — forced lease expiry, poison-shard quarantine,
//! bisection, crash-storm pool degradation — lives in the daemon, built on
//! these primitives.
//!
//! This module is Unix-only in effect (rlimits, process groups, signal
//! classification); on other platforms the fleet mode is rejected at
//! admission.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Jail parameters for fleet worker children.
#[derive(Debug, Clone)]
pub struct ProcessJail {
    /// The `comfortd` binary to exec for `--worker-once` children.
    pub worker_bin: PathBuf,
    /// `RLIMIT_CPU` (seconds) applied to each child; `None` = unlimited.
    pub rlimit_cpu_secs: Option<u64>,
    /// `RLIMIT_AS` (bytes) applied to each child; `None` = unlimited.
    pub rlimit_as_bytes: Option<u64>,
    /// Per-stream capture cap; past it output is drained and discarded.
    pub max_capture_bytes: usize,
    /// Child progress-report interval (stdout heartbeat lines).
    pub heartbeat_millis: u64,
    /// Consecutive deaths on one shard before it is quarantined as poison.
    pub poison_after: u64,
    /// Consecutive deaths across the fleet before the pool degrades.
    pub storm_threshold: u64,
    /// Base respawn backoff after a death (doubles per consecutive death).
    pub backoff_base_millis: u64,
    /// Chaos monkey: SIGKILL this many of our own regular children.
    pub storm_kills: u64,
    /// Chaos monkey: how long a doomed child runs before the SIGKILL.
    pub kill_after: Duration,
}

impl ProcessJail {
    /// A jail around `worker_bin` with production defaults.
    pub fn new(worker_bin: PathBuf) -> ProcessJail {
        ProcessJail {
            worker_bin,
            rlimit_cpu_secs: Some(900),
            rlimit_as_bytes: Some(8 << 30),
            max_capture_bytes: 64 * 1024,
            heartbeat_millis: 20,
            poison_after: 3,
            storm_threshold: 6,
            backoff_base_millis: 10,
            storm_kills: 0,
            kill_after: Duration::from_millis(30),
        }
    }
}

/// How a worker child left this world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildFate {
    /// Exited normally with this code (0 = committed its shard).
    Exited(i32),
    /// Killed by this signal (SIGKILL, SIGABRT, SIGXCPU, ...).
    Signaled(i32),
}

/// What a worker child is asked to do.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// The spec file the child loads.
    pub spec: PathBuf,
    /// Worker label journalled by the parent's lease records.
    pub worker: String,
    /// The directed shard.
    pub shard: u64,
    /// The supervisor-owned fencing sequence (`None` for probes).
    pub lease_seq: Option<u64>,
    /// Probe mode: journal-free prefix run, exit status is the verdict.
    pub probe: bool,
    /// Probe prefix length.
    pub limit_cases: Option<usize>,
    /// Arm real chaos signals in the child.
    pub jail: bool,
}

/// A spawned, babysat worker child: the process, its capped output
/// readers, and the live progress counter fed by its stdout heartbeat.
pub struct WorkerChild {
    child: Child,
    /// Child pid (also its process-group id).
    pub pid: u32,
    /// Total cases the child has reported done (monotonic).
    pub progress: Arc<AtomicU64>,
    stderr_tail: Arc<Mutex<String>>,
    readers: Vec<JoinHandle<()>>,
}

const SIGKILL: i32 = 9;

// std links libc; these are the raw prototypes (the crate tree itself
// stays dependency-free, matching the daemon's signal(2) precedent).
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_CPU: i32 = 0;
#[cfg(target_os = "linux")]
const RLIMIT_AS: i32 = 9;

impl WorkerChild {
    /// Forks and execs one jailed `--worker-once` child.
    pub fn spawn(jail: &ProcessJail, args: &WorkerArgs) -> std::io::Result<WorkerChild> {
        let mut cmd = Command::new(&jail.worker_bin);
        cmd.arg("--worker-once")
            .arg("--spec")
            .arg(&args.spec)
            .arg("--worker")
            .arg(&args.worker)
            .arg("--shard")
            .arg(args.shard.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(seq) = args.lease_seq {
            cmd.arg("--lease-seq").arg(seq.to_string());
            cmd.arg("--heartbeat-millis").arg(jail.heartbeat_millis.to_string());
        }
        if args.probe {
            cmd.arg("--probe");
        }
        if let Some(limit) = args.limit_cases {
            cmd.arg("--limit-cases").arg(limit.to_string());
        }
        if args.jail {
            cmd.arg("--jail");
        }
        #[cfg(unix)]
        {
            use std::os::unix::process::CommandExt;
            // Own process group: the parent's kill(-pid) reaps the child
            // and anything it spawned, and a fatal signal to the group
            // cannot reach the daemon.
            cmd.process_group(0);
            #[cfg(target_os = "linux")]
            {
                let cpu = jail.rlimit_cpu_secs;
                let mem = jail.rlimit_as_bytes;
                // Safety: between fork and exec only async-signal-safe
                // calls are allowed; setrlimit(2) qualifies.
                unsafe {
                    cmd.pre_exec(move || {
                        if let Some(secs) = cpu {
                            let lim = RLimit { rlim_cur: secs, rlim_max: secs };
                            setrlimit(RLIMIT_CPU, &lim);
                        }
                        if let Some(bytes) = mem {
                            let lim = RLimit { rlim_cur: bytes, rlim_max: bytes };
                            setrlimit(RLIMIT_AS, &lim);
                        }
                        Ok(())
                    });
                }
            }
        }
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let progress = Arc::new(AtomicU64::new(0));
        let stderr_tail = Arc::new(Mutex::new(String::new()));
        let mut readers = Vec::new();
        if let Some(stdout) = child.stdout.take() {
            let progress = Arc::clone(&progress);
            readers.push(std::thread::spawn(move || read_stdout(stdout, &progress)));
        }
        if let Some(stderr) = child.stderr.take() {
            let tail = Arc::clone(&stderr_tail);
            let cap = jail.max_capture_bytes;
            readers.push(std::thread::spawn(move || read_stderr(stderr, &tail, cap)));
        }
        Ok(WorkerChild { child, pid, progress, stderr_tail, readers })
    }

    /// Non-blocking reap: `Some(fate)` once the child is gone.
    pub fn poll(&mut self) -> std::io::Result<Option<ChildFate>> {
        match self.child.try_wait()? {
            Some(status) => Ok(Some(classify_status(status))),
            None => Ok(None),
        }
    }

    /// Blocking reap (joins the output readers too).
    pub fn wait(mut self) -> std::io::Result<ChildFate> {
        let status = self.child.wait()?;
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        Ok(classify_status(status))
    }

    /// SIGKILLs the child's whole process group.
    pub fn kill_group(&mut self) {
        kill_process_group(self.pid);
    }

    /// Joins the output-drain threads (safe once the child is reaped —
    /// the pipes are closed, so the readers finish promptly).
    pub fn join_readers(&mut self) {
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }

    /// The (capped) stderr the child produced — diagnostics for failures.
    pub fn stderr_tail(&self) -> String {
        self.stderr_tail.lock().expect("stderr tail poisoned").clone()
    }
}

impl Drop for WorkerChild {
    fn drop(&mut self) {
        // A dropped babysitter must not leak the child or its pipes:
        // kill the group, reap, and join the drain threads.
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill_group();
            let _ = self.child.wait();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// SIGKILLs a whole process group by its leader's pid.
pub fn kill_process_group(pid: u32) {
    unsafe {
        kill(-(pid as i32), SIGKILL);
    }
}

fn classify_status(status: std::process::ExitStatus) -> ChildFate {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return ChildFate::Signaled(sig);
        }
    }
    ChildFate::Exited(status.code().unwrap_or(-1))
}

/// Parses `progress <n>` heartbeat lines into the shared counter and
/// ignores any other stdout, storing none of it. The reader always drains
/// to EOF so a child cannot deadlock on a full pipe.
fn read_stdout(stdout: impl Read, progress: &AtomicU64) {
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if let Some(rest) = line.strip_prefix("progress ") {
            if let Ok(done) = rest.trim().parse::<u64>() {
                progress.fetch_max(done, Ordering::SeqCst);
            }
        }
    }
}

/// Buffers stderr up to `cap` bytes, then keeps draining and discarding.
fn read_stderr(stderr: impl Read, tail: &Mutex<String>, cap: usize) {
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { break };
        let mut tail = tail.lock().expect("stderr tail poisoned");
        if tail.len() < cap {
            let room = cap - tail.len();
            if line.len() <= room {
                tail.push_str(&line);
                tail.push('\n');
            } else {
                tail.push_str(&line[..room]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jail_defaults_are_conservative() {
        let jail = ProcessJail::new(PathBuf::from("/bin/true"));
        assert!(jail.rlimit_cpu_secs.is_some());
        assert!(jail.rlimit_as_bytes.unwrap() >= 1 << 30);
        assert!(jail.poison_after >= 1);
        assert!(jail.storm_threshold >= jail.poison_after);
        assert_eq!(jail.storm_kills, 0, "the monkey is opt-in");
    }

    #[test]
    fn stdout_reader_tracks_the_high_water_mark() {
        let input = b"progress 3\nnoise\nprogress 11\nprogress 7\n" as &[u8];
        let progress = AtomicU64::new(0);
        read_stdout(input, &progress);
        // Monotonic: a late lower sample (pipe reordering is impossible,
        // but a restarted child starts over) never rolls the counter back.
        assert_eq!(progress.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn stderr_reader_caps_storage_but_drains_everything() {
        let line = "x".repeat(100);
        let input = format!("{line}\n{line}\n{line}\n");
        let tail = Mutex::new(String::new());
        read_stderr(input.as_bytes(), &tail, 150);
        let stored = tail.lock().unwrap().clone();
        assert!(stored.len() <= 151, "{} bytes stored", stored.len());
        assert!(stored.starts_with(&line));
    }

    #[cfg(unix)]
    #[test]
    fn fate_classification_separates_signals_from_exits() {
        use std::process::Command;
        let ok = Command::new("/bin/sh").arg("-c").arg("exit 14").status().unwrap();
        assert_eq!(classify_status(ok), ChildFate::Exited(14));
        let killed = Command::new("/bin/sh").arg("-c").arg("kill -9 $$").status().unwrap();
        assert_eq!(classify_status(killed), ChildFate::Signaled(9));
    }
}
