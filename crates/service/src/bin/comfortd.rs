//! `comfortd` — the supervised multi-tenant campaign daemon.
//!
//! ```text
//! comfortd --socket PATH [--workers N] [--ttl-millis N] [--heartbeat-millis N]
//!          [--max-active N] [--tenant-quota N] [--retry-after-millis N]
//!          [--service-log PATH]
//! comfortd --fleet --spec FILE [--pool N] [--ttl-millis N] [--heartbeat-millis N]
//! comfortd --worker-once --spec FILE --worker LABEL
//!          (--shard N --lease-seq N | --probe --shard N [--limit-cases N])
//!          [--jail] [--heartbeat-millis N]
//! ```
//!
//! The daemon serves the length-prefixed JSON control protocol on a Unix
//! socket (drive it with `comfortctl`). SIGTERM triggers a graceful
//! drain: stop leasing, finish and checkpoint in-flight shards, flush
//! telemetry, exit 0.
//!
//! `--worker-once` is the fleet's child process: it runs one shard the
//! supervisor has already leased (`--shard --lease-seq`), appending only
//! the shard record, or probes a prefix of one without journalling
//! (`--probe --shard`), and exits. A call that selects neither mode is
//! refused. Failures map to classifiable exit codes so the supervisor can
//! tell a bad spec from a broken journal without parsing stderr: 10 spec
//! (also the refusal), 11 journal, 13 exec.
//!
//! `--fleet` runs one campaign to completion under the multi-process
//! worker fleet: each pool slot forks a jailed `comfortd --worker-once`
//! child per shard and babysits it (see the `fleet` module docs).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use comfort_service::daemon::{Daemon, IsolationMode, ServiceConfig};
use comfort_service::fleet::ProcessJail;
use comfort_service::server::Server;
use comfort_service::spec::CampaignSpec;
use comfort_service::worker::{run_worker_once, WorkerOnceOptions};
use comfort_telemetry::{JsonlSink, SinkHandle};

static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    // No libc in the dependency tree: register the handler through the
    // raw signal(2) ABI. The handler only flips an atomic flag (the one
    // async-signal-safe thing worth doing); the main loop does the drain.
    extern "C" fn on_sigterm(_sig: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn usage() -> ExitCode {
    eprintln!(
        "usage: comfortd --socket PATH [--workers N] [--ttl-millis N] \
         [--heartbeat-millis N] [--max-active N] [--tenant-quota N] \
         [--retry-after-millis N] [--service-log PATH]\n\
         \x20      comfortd --fleet --spec FILE [--pool N] [--ttl-millis N]\n\
         \x20      comfortd --worker-once --spec FILE --worker LABEL \
         (--shard N --lease-seq N | --probe --shard N [--limit-cases N]) \
         [--jail] [--heartbeat-millis N]"
    );
    ExitCode::from(2)
}

fn load_spec(spec_path: &PathBuf) -> Result<CampaignSpec, String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    CampaignSpec::from_json_str(&text).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<PathBuf> = None;
    let mut cfg = ServiceConfig::default();
    let mut service_log: Option<PathBuf> = None;
    let mut worker_once = false;
    let mut fleet = false;
    let mut pool: Option<usize> = None;
    let mut spec_path: Option<PathBuf> = None;
    let mut worker_label = "worker-once".to_string();
    let mut ttl_millis = cfg.lease_ttl.as_millis() as u64;
    let mut heartbeat_millis: Option<u64> = None;
    let mut shard: Option<u64> = None;
    let mut lease_seq: Option<u64> = None;
    let mut probe = false;
    let mut limit_cases: Option<usize> = None;
    let mut jail = false;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        let parsed: Option<()> = (|| {
            match args[i].as_str() {
                "--socket" => socket = Some(PathBuf::from(take(&mut i)?)),
                "--workers" => cfg.workers = take(&mut i)?.parse().ok()?,
                "--ttl-millis" => ttl_millis = take(&mut i)?.parse().ok()?,
                "--heartbeat-millis" => heartbeat_millis = Some(take(&mut i)?.parse().ok()?),
                "--max-active" => cfg.max_active = take(&mut i)?.parse().ok()?,
                "--tenant-quota" => cfg.tenant_quota = take(&mut i)?.parse().ok()?,
                "--retry-after-millis" => {
                    cfg.retry_after = Duration::from_millis(take(&mut i)?.parse().ok()?)
                }
                "--service-log" => service_log = Some(PathBuf::from(take(&mut i)?)),
                "--worker-once" => worker_once = true,
                "--fleet" => fleet = true,
                "--pool" => pool = Some(take(&mut i)?.parse().ok()?),
                "--spec" => spec_path = Some(PathBuf::from(take(&mut i)?)),
                "--worker" => worker_label = take(&mut i)?,
                "--shard" => shard = Some(take(&mut i)?.parse().ok()?),
                "--lease-seq" => lease_seq = Some(take(&mut i)?.parse().ok()?),
                "--probe" => probe = true,
                "--limit-cases" => limit_cases = Some(take(&mut i)?.parse().ok()?),
                "--jail" => jail = true,
                _ => return None,
            }
            Some(())
        })();
        if parsed.is_none() {
            return usage();
        }
        i += 1;
    }
    cfg.lease_ttl = Duration::from_millis(ttl_millis);

    if worker_once {
        let Some(spec_path) = spec_path else {
            return usage();
        };
        let spec = match load_spec(&spec_path) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("comfortd: {e}");
                return ExitCode::FAILURE;
            }
        };
        let opts = WorkerOnceOptions {
            shard,
            lease_seq,
            probe,
            limit_cases,
            jail,
            heartbeat_millis,
            ..WorkerOnceOptions::standalone(spec, &worker_label)
        };
        return match run_worker_once(&opts) {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("comfortd: {e}");
                ExitCode::from(e.exit_code())
            }
        };
    }

    if let Some(millis) = heartbeat_millis {
        cfg.heartbeat = Duration::from_millis(millis);
    }

    if fleet {
        let Some(spec_path) = spec_path else {
            return usage();
        };
        let spec = match load_spec(&spec_path) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("comfortd: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(pool) = pool {
            cfg.workers = pool;
        }
        let worker_bin = match std::env::current_exe() {
            Ok(path) => path,
            Err(e) => {
                eprintln!("comfortd: cannot locate own binary: {e}");
                return ExitCode::FAILURE;
            }
        };
        cfg.isolation = IsolationMode::Processes(ProcessJail::new(worker_bin));
        let daemon = Daemon::start(cfg);
        let id = match daemon.submit(&spec) {
            Ok(id) => id,
            Err(e) => {
                eprintln!("comfortd: submit rejected ({}): {}", e.reason, e.message);
                daemon.drain();
                return ExitCode::FAILURE;
            }
        };
        eprintln!("comfortd: fleet campaign {id} running");
        let outcome = daemon.wait(&id, Duration::from_secs(24 * 3600));
        let code = match outcome.map(|s| s.state) {
            Some(comfort_service::daemon::CampaignState::Completed) => {
                if let Some((report, checksum)) = daemon.final_report(&id) {
                    let (submitted, verified, fixed, t262) = report.totals();
                    println!(
                        "fleet campaign complete: {} cases | bugs {submitted} submitted \
                         {verified} verified {fixed} fixed {t262} test262 | checksum {checksum:016x}",
                        report.cases_run,
                    );
                }
                ExitCode::SUCCESS
            }
            other => {
                eprintln!("comfortd: fleet campaign ended as {other:?}");
                ExitCode::FAILURE
            }
        };
        daemon.drain();
        return code;
    }

    let Some(socket) = socket else {
        return usage();
    };
    if let Some(path) = &service_log {
        match JsonlSink::create(path) {
            Ok(sink) => cfg.sink = SinkHandle::new(sink),
            Err(e) => {
                eprintln!("comfortd: cannot open service log {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    install_sigterm_handler();
    let daemon = Daemon::start(cfg);
    let server = match Server::serve(daemon.clone(), &socket) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("comfortd: cannot bind {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!("comfortd: serving on {}", socket.display());
    loop {
        if TERMINATE.load(Ordering::SeqCst) {
            eprintln!("comfortd: SIGTERM — draining");
            daemon.drain();
            break;
        }
        if server.stopping() {
            // A drain request already stopped the pool.
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    server.stop();
    eprintln!("comfortd: drained, exiting");
    ExitCode::SUCCESS
}
