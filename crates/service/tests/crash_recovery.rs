//! Crash recovery from an orphaned lease. A worker killed mid-shard
//! leaves a journal with a held lease and no shard record; these tests
//! seed that journal directly and prove the daemon adopts the orphaned
//! lease, expires it, reclaims the shard, re-runs it, and merges a final
//! report bit-identical to the uninterrupted single-process run at pool
//! widths 1, 2, and 4. A real process kill is covered by
//! `examples/service_campaign.rs`, which SIGKILLs a whole daemon mid-run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use comfort_core::checkpoint::{
    config_fingerprint, report_checksum, CampaignCheckpoint, CheckpointJournal, LeaseAction,
    LeaseRecord,
};
use comfort_core::resilience::ChaosConfig;
use comfort_core::session::CampaignSession;
use comfort_engines::FaultPlan;
use comfort_lm::GeneratorConfig;
use comfort_service::daemon::{CampaignState, Daemon, ServiceConfig};
use comfort_service::metrics::MetricsSnapshot;
use comfort_service::spec::CampaignSpec;
use comfort_telemetry::{EventKind, MemorySink, SinkHandle};

fn crash_spec(journal: &Path) -> CampaignSpec {
    CampaignSpec {
        tenant: "crash-lab".to_string(),
        seed: Some(77),
        corpus_programs: Some(60),
        lm: Some(GeneratorConfig { order: 6, bpe_merges: 120, top_k: 8, max_tokens: 400 }),
        max_cases: Some(30),
        shard_cases: Some(15),
        fuel: Some(200_000),
        include_strict: Some(false),
        include_legacy: Some(false),
        reduce_cases: Some(false),
        checkpoint: Some(journal.display().to_string()),
        ..CampaignSpec::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("comfort-crash-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Leaves `journal` as a worker SIGKILLed mid-shard would: the header and
/// an `Acquired` lease on shard 0 (worker `doomed`, TTL 200 ms), with no
/// shard record and no `Released` after it.
fn orphan_a_lease_mid_shard(spec: &CampaignSpec, journal: &Path) {
    let session = CampaignSession::new(spec.build_config().expect("spec builds"));
    let fingerprint = config_fingerprint(session.config());
    CheckpointJournal::create(journal, fingerprint, session.plan().len() as u64)
        .expect("create journal")
        .append_lease(&LeaseRecord {
            shard: 0,
            worker: "doomed".to_string(),
            action: LeaseAction::Acquired,
            lease_seq: 1,
            ttl_millis: 200,
            unix_millis: 1_700_000_000_000,
        })
        .expect("journal the lease acquisition");

    let (checkpoint, _) = CampaignCheckpoint::load(journal).expect("orphaned journal readable");
    assert!(checkpoint.shards.is_empty(), "no shard may have committed before the kill");
    let held = checkpoint.latest_leases();
    assert!(
        held.iter().any(|l| l.action == LeaseAction::Acquired),
        "journal must end with the orphaned lease held"
    );
}

#[test]
fn orphaned_lease_is_reclaimed_and_resume_is_bit_identical_at_1_2_4_workers() {
    // The uninterrupted single-process baseline, checked at several thread
    // counts: the library's determinism contract makes them all agree.
    let mut bare = crash_spec(&temp_path("unused"));
    bare.checkpoint = None;
    let baseline = {
        let config = bare.build_config().expect("spec builds");
        let report =
            CampaignSession::new(config).run_with_threads(1).expect("baseline run succeeds");
        report_checksum(&report)
    };
    for threads in [2usize, 4] {
        let config = bare.build_config().expect("spec builds");
        let report =
            CampaignSession::new(config).run_with_threads(threads).expect("baseline run succeeds");
        assert_eq!(
            report_checksum(&report),
            baseline,
            "library baseline must not depend on thread count"
        );
    }

    for workers in [1usize, 2, 4] {
        let journal = temp_path(&format!("w{workers}.ckpt"));
        let spec = crash_spec(&journal);
        orphan_a_lease_mid_shard(&spec, &journal);

        // A daemon in a later life adopts the orphaned lease from the
        // journal; its supervisor sees no progress, expires it after the
        // recorded TTL, reclaims the shard, and re-runs it.
        let service_events = MemorySink::new();
        let daemon = Daemon::start(ServiceConfig {
            workers,
            lease_ttl: Duration::from_millis(150),
            heartbeat: Duration::from_millis(25),
            sink: SinkHandle::new(service_events.clone()),
            ..ServiceConfig::default()
        });
        let id = daemon.submit(&spec).expect("crashed campaign resubmits cleanly");
        let status = daemon.wait(&id, Duration::from_secs(300)).expect("campaign exists");

        assert_eq!(status.state, CampaignState::Completed, "workers={workers}");
        assert!(status.resumed, "the journal marks the campaign resumed");
        assert!(status.reclaims >= 1, "the orphaned lease must have been reclaimed");
        assert_eq!(
            status.checksum,
            Some(baseline),
            "resumed report diverges from the uninterrupted run at workers={workers}"
        );

        // The lease lifecycle is visible in both ledgers and they agree:
        // expiry and reclaim events were emitted, counted, and conserved.
        let events = service_events.events();
        let expired =
            events.iter().filter(|e| matches!(e.kind, EventKind::LeaseExpired { .. })).count()
                as u64;
        let reclaimed =
            events.iter().filter(|e| matches!(e.kind, EventKind::LeaseReclaimed { .. })).count()
                as u64;
        assert!(expired >= 1, "orphaned lease must expire (workers={workers})");
        assert_eq!(expired, reclaimed, "every expiry is reclaimed exactly once");
        let snap = daemon.metrics();
        assert_eq!(snap.leases_expired, expired);
        assert_eq!(snap.leases_reclaimed, reclaimed);
        assert_eq!(
            MetricsSnapshot::from_events(events.iter()),
            snap,
            "event-derived counters diverge from live metrics"
        );
        snap.leases_conserved(daemon.leases_held()).expect("lease ledger conserved");
        snap.campaigns_conserved(daemon.campaigns_active()).expect("campaign ledger conserved");

        daemon.drain();
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn comfortctl_inspects_a_crashed_journal_offline() {
    let journal = temp_path("inspect.ckpt");
    orphan_a_lease_mid_shard(&crash_spec(&journal), &journal);

    let output = Command::new(env!("CARGO_BIN_EXE_comfortctl"))
        .args(["journal", "inspect", &journal.display().to_string()])
        .output()
        .expect("run comfortctl journal inspect");
    assert!(output.status.success(), "inspect failed: {output:?}");
    let text = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(text.contains("doomed"), "lease holder missing from report:\n{text}");
    assert!(text.contains("acquired"), "lease action missing from report:\n{text}");

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn worker_once_without_a_mode_is_refused_before_journalling() {
    // Only the daemon's lease table writes lease records: a worker given
    // neither a leased shard nor a probe must not claim one by itself.
    let journal = temp_path("bare.ckpt");
    let spec_file = temp_path("bare.spec.json");
    std::fs::write(&spec_file, crash_spec(&journal).to_json()).expect("write spec file");

    let output = Command::new(env!("CARGO_BIN_EXE_comfortd"))
        .args(["--worker-once", "--spec", &spec_file.display().to_string(), "--worker", "w"])
        .output()
        .expect("run comfortd --worker-once");
    assert_eq!(output.status.code(), Some(10), "expected a spec refusal: {output:?}");
    assert!(!journal.exists(), "a refused worker must leave no journal");

    let _ = std::fs::remove_file(&spec_file);
}

#[test]
fn a_shard_panic_past_containment_exits_13_with_its_message() {
    // Panics run uncontained and every run panics, so the shard's panic
    // unwinds out of the executor: the worker must exit with the exec
    // class and say why, not with Rust's panic status and nothing said.
    let journal = temp_path("panic.ckpt");
    let spec_file = temp_path("panic.spec.json");
    let mut spec = crash_spec(&journal);
    spec.contain_panics = Some(false);
    spec.chaos = Some(ChaosConfig::on_first(FaultPlan::new(FaultPlan::DERIVE).panic_rate(1.0)));
    std::fs::write(&spec_file, spec.to_json()).expect("write spec file");
    let session = CampaignSession::new(spec.build_config().expect("spec builds"));
    let shards = session.plan().len() as u64;
    CheckpointJournal::create(&journal, config_fingerprint(session.config()), shards)
        .expect("create journal");

    let output = Command::new(env!("CARGO_BIN_EXE_comfortd"))
        .args(["--worker-once", "--spec", &spec_file.display().to_string(), "--worker", "w"])
        .args(["--shard", "0", "--lease-seq", "1"])
        .output()
        .expect("run comfortd --worker-once");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(13), "expected the exec class: {output:?}");
    assert!(stderr.contains("exec error:"), "stderr names no exec error: {stderr}");
    let (checkpoint, _) = CampaignCheckpoint::load(&journal).expect("journal still loads");
    assert!(checkpoint.shards.is_empty(), "a panicked shard must not be journalled");

    let _ = std::fs::remove_file(&spec_file);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn a_worker_child_journals_its_whole_shard_whatever_the_spec_deadline() {
    // The supervisor owns the campaign deadline and kills a child when it
    // passes. A child arms none, so the record it journals covers its whole
    // shard: an interrupted record would be salvaged as a finished shard.
    let journal = temp_path("deadline.ckpt");
    let spec_file = temp_path("deadline.spec.json");
    let mut spec = crash_spec(&journal);
    spec.deadline_millis = Some(0);
    std::fs::write(&spec_file, spec.to_json()).expect("write spec file");
    let session = CampaignSession::new(spec.build_config().expect("spec builds"));
    let plan = session.plan();
    CheckpointJournal::create(&journal, config_fingerprint(session.config()), plan.len() as u64)
        .expect("create journal");

    let output = Command::new(env!("CARGO_BIN_EXE_comfortd"))
        .args(["--worker-once", "--spec", &spec_file.display().to_string(), "--worker", "w"])
        .args(["--shard", "0", "--lease-seq", "1"])
        .output()
        .expect("run comfortd --worker-once");
    assert!(output.status.success(), "worker-once failed: {output:?}");
    let record = CampaignCheckpoint::read_shard(&journal, 0)
        .expect("journal loads")
        .expect("shard 0 journalled");
    assert!(!record.report.interrupted, "the child journalled an interrupted shard");
    assert_eq!(record.report.cases_run, plan[0].cases as u64);
    // The session's shard run arms no deadline either.
    let reference = session.run_shard(&plan[0]);
    assert_eq!(report_checksum(&record.report), report_checksum(&reference.report));

    let _ = std::fs::remove_file(&spec_file);
    let _ = std::fs::remove_file(&journal);
}
