//! In-process integration tests for the campaign daemon: determinism of
//! daemon-run campaigns against plain library runs, admission control,
//! cancellation, panic isolation, journal resume, and the exact
//! reconciliation of service metrics with the service event stream.

use std::path::PathBuf;
use std::time::Duration;

use comfort_core::checkpoint::{config_fingerprint, report_checksum, CheckpointJournal};
use comfort_core::resilience::ChaosConfig;
use comfort_core::session::CampaignSession;
use comfort_engines::FaultPlan;
use comfort_lm::GeneratorConfig;
use comfort_service::daemon::{CampaignState, Daemon, IsolationMode, ServiceConfig};
use comfort_service::fleet::ProcessJail;
use comfort_service::metrics::MetricsSnapshot;
use comfort_service::spec::CampaignSpec;
use comfort_service::worker::{run_worker_once, WorkerOnceOptions};
use comfort_telemetry::{Event, EventKind, MemorySink, SinkHandle, CONTROL_SHARD};

/// A small two-shard campaign that finishes in a couple of seconds.
fn small_spec(tenant: &str, seed: u64) -> CampaignSpec {
    CampaignSpec {
        tenant: tenant.to_string(),
        seed: Some(seed),
        corpus_programs: Some(60),
        lm: Some(GeneratorConfig { order: 6, bpe_merges: 120, top_k: 8, max_tokens: 400 }),
        max_cases: Some(30),
        shard_cases: Some(15),
        fuel: Some(200_000),
        include_strict: Some(false),
        include_legacy: Some(false),
        reduce_cases: Some(false),
        ..CampaignSpec::default()
    }
}

/// Checksum of the uninterrupted single-process library run of `spec`
/// (journal and daemon plumbing stripped) at `threads` worker threads.
fn library_checksum(spec: &CampaignSpec, threads: usize) -> u64 {
    let mut bare = spec.clone();
    bare.checkpoint = None;
    bare.telemetry = None;
    let config = bare.build_config().expect("spec builds a config");
    let report =
        CampaignSession::new(config).run_with_threads(threads).expect("library run succeeds");
    report_checksum(&report)
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("comfort-daemon-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Waits until campaign `id` has committed at least `shards` shards.
fn wait_committed(daemon: &Daemon, id: &str, shards: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while daemon.campaign_status(id).expect("campaign exists").shards_done < shards {
        assert!(std::time::Instant::now() < deadline, "campaign {id} committed no shard");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The JSONL file a campaign's telemetry sink writes for `events`.
fn jsonl(events: &[Event]) -> String {
    events.iter().map(|e| e.to_json() + "\n").collect()
}

fn wait_terminal(daemon: &Daemon, id: &str) -> comfort_service::daemon::CampaignStatus {
    let status = daemon.wait(id, Duration::from_secs(300)).expect("campaign exists");
    assert!(status.state.is_terminal(), "campaign {id} stuck in {:?}", status.state);
    status
}

/// Asserts the two scheduling ledgers reconcile: the counters rebuilt from
/// the service event stream equal the live metrics, and both balance their
/// conservation equations against the daemon's current occupancy.
fn assert_ledgers_reconcile(daemon: &Daemon, service_events: &MemorySink) {
    let events = service_events.events();
    let from_events = MetricsSnapshot::from_events(events.iter());
    let live = daemon.metrics();
    assert_eq!(from_events, live, "event-derived counters diverge from live metrics");
    live.leases_conserved(daemon.leases_held()).expect("lease ledger conserved");
    live.campaigns_conserved(daemon.campaigns_active()).expect("campaign ledger conserved");
}

#[test]
fn two_tenants_complete_bit_identically_and_ledgers_reconcile() {
    let service_events = MemorySink::new();
    let daemon = Daemon::start(ServiceConfig {
        workers: 3,
        sink: SinkHandle::new(service_events.clone()),
        ..ServiceConfig::default()
    });

    let spec_a = small_spec("acme", 11);
    let spec_b = small_spec("umbrella", 12);
    let id_a = daemon.submit(&spec_a).expect("acme admitted");
    let id_b = daemon.submit(&spec_b).expect("umbrella admitted");

    let status_a = wait_terminal(&daemon, &id_a);
    let status_b = wait_terminal(&daemon, &id_b);
    assert_eq!(status_a.state, CampaignState::Completed);
    assert_eq!(status_b.state, CampaignState::Completed);

    // Bit-identical to the plain library run, independent of how the
    // daemon's shared pool interleaved the two campaigns' shards.
    assert_eq!(status_a.checksum, Some(library_checksum(&spec_a, 1)));
    assert_eq!(status_b.checksum, Some(library_checksum(&spec_b, 1)));
    let (report_a, checksum_a) = daemon.final_report(&id_a).expect("final report stored");
    assert_eq!(Some(checksum_a), status_a.checksum);
    assert!(report_a.cases_run > 0);
    assert!(!report_a.interrupted);

    // The campaign telemetry stream was buffered for `tail` and is closed.
    let (tail, terminal) = daemon.tail_events(&id_a, 0).expect("tail available");
    assert!(terminal);
    assert!(!tail.is_empty(), "campaign stream should carry events");

    // Ledger reconciliation: every scheduling decision was emitted as an
    // event AND counted; the equations balance with nothing in flight.
    let snap = daemon.metrics();
    assert_eq!(snap.campaigns_admitted, 2);
    assert_eq!(snap.campaigns_completed, 2);
    assert_eq!(snap.campaigns_rejected, 0);
    assert_eq!(snap.leases_acquired, snap.leases_released);
    assert!(snap.leases_acquired >= 4, "two campaigns x two shards");
    assert_ledgers_reconcile(&daemon, &service_events);

    daemon.drain();
    assert_eq!(daemon.metrics().drains_started, 1);
}

/// The campaign-ledger race: a campaign's outcome is counted before its
/// terminal state becomes visible, so the ledger balances the moment any
/// `wait` returns. Many short campaigns, one at a time, ending each of the
/// three ways: completed, failed at the panic boundary, and cancelled.
#[test]
fn campaign_ledger_balances_whenever_wait_returns() {
    let service_events = MemorySink::new();
    let daemon = Daemon::start(ServiceConfig {
        workers: 2,
        sink: SinkHandle::new(service_events.clone()),
        ..ServiceConfig::default()
    });
    for k in 0..60u64 {
        let mut spec = CampaignSpec {
            corpus_programs: Some(12),
            lm: Some(GeneratorConfig { order: 4, bpe_merges: 40, top_k: 8, max_tokens: 200 }),
            max_cases: Some(4),
            shard_cases: Some(2),
            ..small_spec("stress", 500 + k)
        };
        if k % 3 == 1 {
            spec.chaos =
                Some(ChaosConfig::on_first(FaultPlan::new(FaultPlan::DERIVE).panic_rate(1.0)));
            spec.contain_panics = Some(false);
        }
        let id = daemon.submit(&spec).expect("admitted");
        if k % 3 == 2 {
            daemon.cancel(&id);
        }
        let status = wait_terminal(&daemon, &id);
        let snap = daemon.metrics();
        if let Err(e) = snap.campaigns_conserved(daemon.campaigns_active()) {
            panic!("campaign {k} ({:?}): {e}", status.state);
        }
        if status.state == CampaignState::Failed {
            assert!(status.failure.is_some(), "a failed campaign's status carries its panic");
        }
    }
    let snap = daemon.metrics();
    assert_eq!(snap.campaigns_admitted, 60);
    for (outcome, count) in [
        ("completed", snap.campaigns_completed),
        ("failed", snap.campaigns_failed),
        ("cancelled", snap.campaigns_cancelled),
    ] {
        assert!(count > 0, "no campaign ended {outcome}");
    }
    assert_ledgers_reconcile(&daemon, &service_events);
}

/// Every event a campaign's shards and merge produce reaches both its tail
/// and its telemetry file, in the library's order, under both isolation
/// modes. A shard flushes before its commit settles, so finalization (and
/// retirement, which empties the shard buffers) cannot overtake it. Twelve
/// six-shard campaigns on three workers, and a heartbeat so fast that the
/// supervisor tries to finalize between almost any two steps of a commit.
#[test]
fn campaign_streams_reach_tail_and_file_in_full() {
    let render = |events: &[Event]| -> Vec<String> {
        events
            .iter()
            .filter(|e| e.clock.shard != CONTROL_SHARD)
            .map(Event::to_json_deterministic)
            .collect()
    };
    let spec = |k: u64| CampaignSpec {
        corpus_programs: Some(12),
        lm: Some(GeneratorConfig { order: 4, bpe_merges: 40, top_k: 8, max_tokens: 200 }),
        max_cases: Some(12),
        shard_cases: Some(2),
        ..small_spec("streams", 900 + k)
    };
    // The library's streams: every shard's events, then the merge's.
    let library: Vec<Vec<String>> = (0..12)
        .map(|k| {
            let events = MemorySink::new();
            let mut config = spec(k).build_config().expect("spec builds a config");
            config.sink = SinkHandle::new(events.clone());
            CampaignSession::new(config).run_with_threads(1).expect("library run succeeds");
            render(&events.events())
        })
        .collect();
    let fleet = ProcessJail::new(PathBuf::from(env!("CARGO_BIN_EXE_comfortd")));
    for (mode, isolation) in
        [("threads", IsolationMode::InProcess), ("processes", IsolationMode::Processes(fleet))]
    {
        let daemon = Daemon::start(ServiceConfig {
            workers: 3,
            heartbeat: Duration::from_micros(100),
            max_active: library.len(),
            tenant_quota: library.len(),
            isolation,
            ..ServiceConfig::default()
        });
        // One campaign at a time, then all at once: a commit races the
        // heartbeat, then also other campaigns' commits and merges.
        let all: Vec<usize> = (0..library.len()).collect();
        for batch in [1, all.len()] {
            for ks in all.chunks(batch) {
                let submitted: Vec<_> = ks
                    .iter()
                    .map(|&k| {
                        let name = format!("stream-{mode}-{batch}-{k}");
                        let journal = temp_path(&format!("{name}.ckpt"));
                        let telemetry = temp_path(&format!("{name}.jsonl"));
                        let spec = CampaignSpec {
                            checkpoint: Some(journal.display().to_string()),
                            telemetry: Some(telemetry.display().to_string()),
                            ..spec(k as u64)
                        };
                        (k, daemon.submit(&spec).expect("admitted"), journal, telemetry)
                    })
                    .collect();
                for (k, id, journal, telemetry) in submitted {
                    assert_eq!(wait_terminal(&daemon, &id).state, CampaignState::Completed);
                    let (tail, _) = daemon.tail_events(&id, 0).expect("a fresh tail is kept");
                    assert_eq!(render(&tail), library[k], "{mode}: campaign {id} tail");

                    // The file is flushed when it closes, just after the
                    // campaign turns terminal.
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    let lines = loop {
                        let lines =
                            std::fs::read_to_string(&telemetry).map_or(0, |s| s.lines().count());
                        if lines >= tail.len() || std::time::Instant::now() >= deadline {
                            break lines;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    };
                    assert_eq!(lines, tail.len(), "{mode}: campaign {id} telemetry file");
                    let spec_file = journal.with_extension("ckpt.spec.json");
                    for path in [journal, telemetry, spec_file] {
                        let _ = std::fs::remove_file(path);
                    }
                }
            }
        }
        daemon.drain();
    }
}

/// A submission naming a running campaign's journal and telemetry file,
/// but with another seed, is rejected before it touches either file or
/// the worker spec file beside the journal: the running campaign's worker
/// children keep reading its own spec, and its file keeps its stream.
#[test]
fn a_conflicting_submission_leaves_the_running_campaign_alone() {
    let fleet = ProcessJail::new(PathBuf::from(env!("CARGO_BIN_EXE_comfortd")));
    let daemon = Daemon::start(ServiceConfig {
        workers: 1,
        isolation: IsolationMode::Processes(fleet),
        ..ServiceConfig::default()
    });
    let journal = temp_path("conflict.ckpt");
    let telemetry = temp_path("conflict.jsonl");
    let spec = |seed: u64| CampaignSpec {
        corpus_programs: Some(12),
        lm: Some(GeneratorConfig { order: 4, bpe_merges: 40, top_k: 8, max_tokens: 200 }),
        max_cases: Some(24),
        shard_cases: Some(2),
        checkpoint: Some(journal.display().to_string()),
        telemetry: Some(telemetry.display().to_string()),
        ..small_spec("conflict", seed)
    };
    let running = spec(71);
    let id = daemon.submit(&running).expect("admitted");
    wait_committed(&daemon, &id, 1);
    let conflict = daemon.submit(&spec(72)).expect_err("another seed on the same journal");
    assert_eq!(conflict.reason, "journal_conflict");

    let status = wait_terminal(&daemon, &id);
    assert_eq!(status.state, CampaignState::Completed);
    assert_eq!(status.checksum, Some(library_checksum(&running, 1)));
    let (tail, _) = daemon.tail_events(&id, 0).expect("a fresh tail is kept");
    // The file is flushed when it closes, just after the campaign turns
    // terminal.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let file = loop {
        let file = std::fs::read_to_string(&telemetry).unwrap_or_default();
        if file == jsonl(&tail) || std::time::Instant::now() >= deadline {
            break file;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(file == jsonl(&tail), "the telemetry file lost the campaign's stream");
    daemon.drain();
    let spec_file = journal.with_extension("ckpt.spec.json");
    for path in [journal, telemetry, spec_file] {
        let _ = std::fs::remove_file(path);
    }
}

/// `drain` certifies a clean stop, so a campaign it leaves running has
/// every event of its tail in its telemetry file when `drain` returns.
#[test]
fn drain_flushes_the_telemetry_of_campaigns_it_leaves_running() {
    let daemon = Daemon::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let journal = temp_path("drained.ckpt");
    let telemetry = temp_path("drained.jsonl");
    let spec = CampaignSpec {
        max_cases: Some(120),
        shard_cases: Some(10),
        checkpoint: Some(journal.display().to_string()),
        telemetry: Some(telemetry.display().to_string()),
        ..small_spec("drained", 81)
    };
    let id = daemon.submit(&spec).expect("admitted");
    wait_committed(&daemon, &id, 2);
    daemon.drain();
    let status = daemon.campaign_status(&id).expect("campaign exists");
    assert!(!status.state.is_terminal(), "the drain should leave the campaign running");
    let (tail, _) = daemon.tail_events(&id, 0).expect("a live tail");
    let file = std::fs::read_to_string(&telemetry).expect("telemetry file");
    assert!(
        file == jsonl(&tail),
        "the telemetry file holds {} of the tail's {} events",
        file.lines().count(),
        tail.len()
    );
    for path in [journal, telemetry] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn backpressure_quota_queue_full_and_drain_rejections() {
    let service_events = MemorySink::new();
    let daemon = Daemon::start(ServiceConfig {
        workers: 1,
        max_active: 2,
        tenant_quota: 1,
        retry_after: Duration::from_millis(123),
        sink: SinkHandle::new(service_events.clone()),
        ..ServiceConfig::default()
    });

    let a1 = daemon.submit(&small_spec("acme", 21)).expect("first acme campaign admitted");

    // Tenant quota: acme already has one active campaign.
    let quota = daemon.submit(&small_spec("acme", 22)).expect_err("quota exceeded");
    assert_eq!(quota.reason, "quota");
    assert_eq!(quota.retry_after_millis, 123);

    let b1 = daemon.submit(&small_spec("umbrella", 23)).expect("umbrella admitted");

    // Bounded queue: two active campaigns is the cap.
    let full = daemon.submit(&small_spec("initech", 24)).expect_err("queue full");
    assert_eq!(full.reason, "queue_full");
    assert_eq!(full.retry_after_millis, 123);

    // An invalid spec is an error (`retry_after == 0`: retrying won't help).
    let mut bad = small_spec("acme", 25);
    bad.max_cases = Some(0);
    let invalid = daemon.submit(&bad).expect_err("invalid spec rejected");
    assert_eq!(invalid.reason, "invalid_spec");
    assert_eq!(invalid.retry_after_millis, 0);

    // Terminal campaigns free their quota and queue slots.
    wait_terminal(&daemon, &a1);
    wait_terminal(&daemon, &b1);
    let c2 = daemon.submit(&small_spec("initech", 24)).expect("slot freed after completion");
    wait_terminal(&daemon, &c2);

    // A draining daemon admits nothing.
    daemon.drain();
    let draining = daemon.submit(&small_spec("acme", 26)).expect_err("draining rejects");
    assert_eq!(draining.reason, "draining");

    let snap = daemon.metrics();
    assert_eq!(snap.campaigns_admitted, 3);
    assert_eq!(snap.campaigns_rejected, 4);
    assert_eq!(snap.campaigns_completed, 3);
    let rejected_events = service_events
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CampaignRejected { .. }))
        .count();
    assert_eq!(rejected_events, 4, "every rejection is emitted as an event");
    assert_ledgers_reconcile(&daemon, &service_events);
}

#[test]
fn cancellation_reaches_a_terminal_state_and_marks_interruption() {
    let service_events = MemorySink::new();
    let daemon = Daemon::start(ServiceConfig {
        workers: 1,
        sink: SinkHandle::new(service_events.clone()),
        ..ServiceConfig::default()
    });

    // With a single worker the second campaign queues behind the first;
    // cancelling it exercises the no-shard-started finalization path, and
    // cancelling the first exercises the in-flight abandon path.
    let front = daemon.submit(&small_spec("acme", 31)).expect("front admitted");
    let queued = daemon.submit(&small_spec("umbrella", 32)).expect("queued admitted");

    assert!(daemon.cancel(&queued), "known id cancels");
    assert!(!daemon.cancel("c-9999"), "unknown id does not");
    assert!(daemon.cancel(&front));

    let front_status = wait_terminal(&daemon, &front);
    let queued_status = wait_terminal(&daemon, &queued);
    assert_eq!(queued_status.state, CampaignState::Cancelled);
    // The front campaign may have slipped past its last cancellation point.
    assert!(matches!(front_status.state, CampaignState::Cancelled | CampaignState::Completed));

    let (report, _) = daemon.final_report(&queued).expect("cancelled campaigns report");
    assert!(report.interrupted, "partial report is marked interrupted");

    daemon.drain();
    assert_ledgers_reconcile(&daemon, &service_events);
}

#[test]
fn panic_isolation_degrades_only_the_faulty_campaign() {
    let service_events = MemorySink::new();
    let daemon = Daemon::start(ServiceConfig {
        workers: 2,
        sink: SinkHandle::new(service_events.clone()),
        ..ServiceConfig::default()
    });

    // The chaos campaign disables in-run panic containment, so the
    // injected panic unwinds all the way to the daemon's worker boundary.
    let mut chaotic = small_spec("chaos", 41);
    chaotic.chaos = Some(ChaosConfig::on_first(FaultPlan::new(FaultPlan::DERIVE).panic_rate(1.0)));
    chaotic.contain_panics = Some(false);
    let steady = small_spec("steady", 42);

    let id_chaos = daemon.submit(&chaotic).expect("chaotic admitted");
    let id_steady = daemon.submit(&steady).expect("steady admitted");

    let chaos_status = wait_terminal(&daemon, &id_chaos);
    let steady_status = wait_terminal(&daemon, &id_steady);

    assert_eq!(chaos_status.state, CampaignState::Failed);
    let failure = chaos_status.failure.expect("failure carries the panic message");
    assert!(failure.contains("injected chaos panic on"), "failure names no chaos panic: {failure}");

    // The healthy campaign on the same pool is untouched — still
    // bit-identical to its library baseline.
    assert_eq!(steady_status.state, CampaignState::Completed);
    assert_eq!(steady_status.checksum, Some(library_checksum(&steady, 1)));

    let snap = daemon.metrics();
    assert_eq!(snap.campaigns_failed, 1);
    assert_eq!(snap.campaigns_completed, 1);
    assert_ledgers_reconcile(&daemon, &service_events);
}

#[test]
fn daemon_resumes_a_partial_journal_bit_identically() {
    let journal = temp_path("partial.ckpt");
    let mut spec = small_spec("acme", 51);
    spec.checkpoint = Some(journal.display().to_string());

    // A directed single-shot worker commits shard 0 to a fresh journal and
    // exits cleanly, leaving a half-finished journal on disk.
    let session = CampaignSession::new(spec.build_config().expect("spec builds a config"));
    CheckpointJournal::create(
        &journal,
        config_fingerprint(session.config()),
        session.plan().len() as u64,
    )
    .expect("create journal");
    let summary = run_worker_once(&WorkerOnceOptions {
        shard: Some(0),
        lease_seq: Some(1),
        ..WorkerOnceOptions::standalone(spec.clone(), "prep")
    })
    .expect("worker-once commits one shard");
    assert!(summary.contains("shard 0"), "unexpected summary: {summary}");

    let service_events = MemorySink::new();
    let daemon = Daemon::start(ServiceConfig {
        workers: 2,
        sink: SinkHandle::new(service_events.clone()),
        ..ServiceConfig::default()
    });
    let id = daemon.submit(&spec).expect("resubmission admitted");
    let status = wait_terminal(&daemon, &id);

    assert_eq!(status.state, CampaignState::Completed);
    assert!(status.resumed, "journal on disk marks the campaign resumed");
    assert_eq!(status.checksum, Some(library_checksum(&spec, 1)));
    let (report, _) = daemon.final_report(&id).expect("final report stored");
    let resume = report.resume.expect("resume provenance attached");
    assert_eq!(resume.shards_salvaged, 1);
    assert_eq!(resume.shards_rerun, 1);
    assert_eq!(resume.shards_total, 2);

    daemon.drain();
    assert_ledgers_reconcile(&daemon, &service_events);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn fully_salvaged_resubmission_finalizes_without_workers() {
    let journal = temp_path("complete.ckpt");
    let mut spec = small_spec("acme", 61);
    spec.checkpoint = Some(journal.display().to_string());

    // An uninterrupted library run leaves a complete journal behind.
    let config = spec.build_config().expect("spec builds a config");
    let baseline = CampaignSession::new(config).run_with_threads(1).expect("library run succeeds");
    let baseline_checksum = report_checksum(&baseline);

    let service_events = MemorySink::new();
    let daemon = Daemon::start(ServiceConfig {
        workers: 1,
        sink: SinkHandle::new(service_events.clone()),
        ..ServiceConfig::default()
    });
    let id = daemon.submit(&spec).expect("resubmission admitted");
    let status = wait_terminal(&daemon, &id);

    assert_eq!(status.state, CampaignState::Completed);
    assert_eq!(status.checksum, Some(baseline_checksum));
    let (report, _) = daemon.final_report(&id).expect("final report stored");
    let resume = report.resume.expect("resume provenance attached");
    assert_eq!(resume.shards_salvaged, resume.shards_total);
    assert_eq!(resume.shards_rerun, 0);

    // Nothing ran, so no lease was ever taken for this campaign.
    let snap = daemon.metrics();
    assert_eq!(snap.leases_acquired, 0);
    daemon.drain();
    assert_ledgers_reconcile(&daemon, &service_events);
    let _ = std::fs::remove_file(&journal);
}
