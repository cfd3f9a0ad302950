//! Crash-storm end-to-end for the multi-process worker fleet.
//!
//! A chaos campaign whose fault plan raises **real fatal signals** inside
//! jailed worker children runs at pool widths 1, 2, and 4, while a chaos
//! monkey SIGKILLs some of the fleet's own children mid-shard. The final
//! report checksum must equal the uninterrupted in-process baseline at
//! every width: deaths force lease expiry and reclaim, repeatedly lethal
//! shards are quarantined and bisected to the poison case, and the rescue
//! run commits the shard with the identical contained `Crashed` outcome
//! the baseline records. The worker lifecycle ledgers (events vs counters
//! vs live gauges) must reconcile exactly throughout.

use std::path::{Path, PathBuf};
use std::time::Duration;

use comfort_core::checkpoint::report_checksum;
use comfort_core::resilience::ChaosConfig;
use comfort_core::session::CampaignSession;
use comfort_engines::FaultPlan;
use comfort_lm::GeneratorConfig;
use comfort_service::daemon::{CampaignState, Daemon, IsolationMode, ServiceConfig};
use comfort_service::fleet::ProcessJail;
use comfort_service::metrics::MetricsSnapshot;
use comfort_service::spec::CampaignSpec;
use comfort_telemetry::{EventKind, MemorySink, SinkHandle};

/// A campaign whose chaos plan aborts (signal 6) on testbed 0 often
/// enough that at least one shard carries a lethal case.
fn storm_spec(journal: &Path) -> CampaignSpec {
    CampaignSpec {
        tenant: "storm-lab".to_string(),
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
        chaos: Some(ChaosConfig::on_first(
            FaultPlan::new(FaultPlan::DERIVE).abort_rate(0.10).abort_signal(6),
        )),
        ..CampaignSpec::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("comfort-fleet-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn cleanup(journal: &Path) {
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(format!("{}.spec.json", journal.display()));
}

#[test]
fn crash_storm_fleet_reports_are_bit_identical_to_in_process_at_1_2_4_workers() {
    // The uninterrupted in-process baseline. Chaos signals are NOT armed
    // in this process, so the lethal cases unwind through the containment
    // boundary into `Crashed` outcomes — the exact outcomes the fleet's
    // rescue path must reproduce.
    let mut bare = storm_spec(&temp_path("unused"));
    bare.checkpoint = None;
    let (baseline, abort_cases) = {
        let config = bare.build_config().expect("spec builds");
        let report =
            CampaignSession::new(config).run_with_threads(1).expect("baseline run succeeds");
        // Chaos aborts contained in-process land in the chaos testbed's
        // panic ledger (panic_rate is zero, so every one is an abort).
        let aborts = report.health.first().map_or(0, |h| h.panics);
        (report_checksum(&report), aborts)
    };
    assert!(
        abort_cases > 0,
        "the chaos plan must make at least one case die by a fatal signal, \
         or this test exercises nothing"
    );
    for threads in [2usize, 4] {
        let config = bare.build_config().expect("spec builds");
        let report =
            CampaignSession::new(config).run_with_threads(threads).expect("baseline run succeeds");
        assert_eq!(report_checksum(&report), baseline, "baseline thread-count dependence");
    }

    for workers in [1usize, 2, 4] {
        let journal = temp_path(&format!("storm-w{workers}.ckpt"));
        cleanup(&journal);
        let spec = storm_spec(&journal);

        let jail = ProcessJail {
            poison_after: 2,
            storm_threshold: 2,
            backoff_base_millis: 5,
            heartbeat_millis: 10,
            // The chaos monkey: SIGKILL two of our own children mid-shard
            // on top of the SIGABRTs the fault plan raises in-jail.
            storm_kills: 2,
            kill_after: Duration::from_millis(40),
            ..ProcessJail::new(PathBuf::from(env!("CARGO_BIN_EXE_comfortd")))
        };
        let service_events = MemorySink::new();
        let daemon = Daemon::start(ServiceConfig {
            workers,
            // Children train their generator inside the lease window, so
            // the base TTL is generous; the fault policy reclaims dead
            // holders by forced expiry, never by TTL.
            lease_ttl: Duration::from_secs(120),
            heartbeat: Duration::from_millis(25),
            sink: SinkHandle::new(service_events.clone()),
            isolation: IsolationMode::Processes(jail),
            ..ServiceConfig::default()
        });
        let id = daemon.submit(&spec).expect("fleet campaign admitted");
        let status = daemon.wait(&id, Duration::from_secs(600)).expect("campaign exists");

        assert_eq!(
            status.state,
            CampaignState::Completed,
            "workers={workers} failure={:?}",
            status.failure
        );
        assert_eq!(
            status.checksum,
            Some(baseline),
            "fleet report diverges from the in-process baseline at workers={workers}"
        );

        // Worker lifecycle ledgers: every spawned child is accounted dead,
        // exited, or still alive — and after the campaign none is alive.
        let snap = daemon.metrics();
        let events = service_events.events();
        snap.workers_conserved(daemon.fleet_workers_active(), daemon.fleet_workers_exited())
            .expect("worker ledger conserved");
        assert_eq!(daemon.fleet_workers_active(), 0, "no child survives the campaign");
        assert!(
            snap.workers_spawned >= 2,
            "at least one child per shard must have been spawned (workers={workers})"
        );
        assert!(
            snap.workers_died >= 2,
            "the monkey SIGKILLs two children; at least those must die (workers={workers})"
        );
        let died_events =
            events.iter().filter(|e| matches!(e.kind, EventKind::WorkerDied { .. })).count() as u64;
        let spawned_events =
            events.iter().filter(|e| matches!(e.kind, EventKind::WorkerSpawned { .. })).count()
                as u64;
        assert_eq!(spawned_events, snap.workers_spawned, "spawn events vs counter");
        assert_eq!(died_events, snap.workers_died, "death events vs counter");
        assert_eq!(
            MetricsSnapshot::from_events(events.iter()),
            snap,
            "event-derived counters diverge from live metrics (workers={workers})"
        );

        // Poison conservation: every quarantined shard must have ended in
        // the report anyway (the checksum equality above proves the
        // content); here the event says which case was lethal, and the
        // baseline must agree a fatal signal happened at all.
        let poisoned: Vec<(u64, u64, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ShardPoisoned { lease_shard, poison_case, signal, .. } => {
                    Some((lease_shard, poison_case, signal))
                }
                _ => None,
            })
            .collect();
        assert_eq!(poisoned.len() as u64, snap.shards_poisoned, "poison events vs counter");
        for (shard, poison_case, signal) in &poisoned {
            assert!(*shard < 2, "poisoned shard index out of plan");
            assert!(*poison_case < 15, "poison case outside the shard");
            assert_eq!(*signal, 6, "the fault plan aborts with SIGABRT");
        }

        // Deaths force expiry: the lease ledger balances exactly like the
        // in-process reclaim path.
        assert_eq!(snap.leases_expired, snap.leases_reclaimed, "every expiry reclaims once");
        snap.leases_conserved(daemon.leases_held()).expect("lease ledger conserved");
        snap.campaigns_conserved(daemon.campaigns_active()).expect("campaign ledger conserved");

        daemon.drain();
        cleanup(&journal);
    }
}

#[test]
fn fleet_rejects_specs_without_a_checkpoint_journal() {
    let jail = ProcessJail::new(PathBuf::from(env!("CARGO_BIN_EXE_comfortd")));
    let daemon = Daemon::start(ServiceConfig {
        workers: 1,
        isolation: IsolationMode::Processes(jail),
        ..ServiceConfig::default()
    });
    let mut spec = storm_spec(&temp_path("never-created.ckpt"));
    spec.checkpoint = None;
    let err = daemon.submit(&spec).expect_err("journal-less spec must be rejected");
    assert_eq!(err.reason, "invalid_spec");
    assert!(err.message.contains("checkpoint"), "{}", err.message);
    daemon.drain();
}
