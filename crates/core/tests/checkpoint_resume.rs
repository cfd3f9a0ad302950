//! Integration tests for crash-safe checkpointing: a campaign killed after
//! `k` of `n` shards must resume to a **bit-identical** final report and an
//! identical data-plane telemetry stream at every thread count; a torn
//! journal tail must be dropped, never trusted, and an unreadable intact
//! record refused, never dropped; cooperative shutdown must
//! always leave a loadable journal behind; a journal written by an earlier
//! build must still load whole and resume.

use std::path::PathBuf;

use comfort_core::campaign::{CampaignConfig, CampaignReport};
use comfort_core::checkpoint::{
    config_fingerprint, report_checksum, report_to_json_deterministic, CampaignCheckpoint,
    CheckpointError, CheckpointJournal,
};
use comfort_core::resilience::{CancelToken, ChaosConfig, ExecPolicy};
use comfort_core::session::CampaignSession;
use comfort_engines::FaultPlan;
use comfort_lm::GeneratorConfig;
use comfort_telemetry::{Event, EventKind, MemorySink, Sink, SinkHandle};
use proptest::prelude::*;

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comfort-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.ckpt"))
}

fn base_config(sink: SinkHandle) -> CampaignConfig {
    CampaignConfig::builder()
        .seed(2)
        .corpus_programs(80)
        .lm(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 })
        .max_cases(60)
        .fuel(200_000)
        .include_strict(false)
        .include_legacy(false)
        .reduce_cases(false)
        .keep_invalid_fraction(0.2)
        .shard_cases(20) // 3 shards
        .sink(sink)
        .build()
        .expect("valid test config")
}

/// The determinism view of an event stream: control-plane events (resume /
/// checkpoint bookkeeping, stamped with the CONTROL_SHARD pseudo-shard) are
/// operational facts about one particular execution and are excluded; the
/// rest is compared without wall-clock fields.
fn data_plane(events: &[Event]) -> Vec<String> {
    events.iter().filter(|e| !e.is_control()).map(Event::to_json_deterministic).collect()
}

/// Reference: the uninterrupted, unjournaled run every resumed run must
/// reproduce byte-for-byte (deterministic view).
fn reference_run() -> (CampaignReport, Vec<String>) {
    let mem = MemorySink::new();
    let session = CampaignSession::new(base_config(SinkHandle::new(mem.clone())));
    let report = session.run_with_threads(1).expect("fresh run is infallible");
    (report, data_plane(&mem.take()))
}

/// A complete journal for the base config, as a fresh journaled run leaves
/// it on disk.
fn complete_journal(path: &PathBuf) {
    let mut config = base_config(SinkHandle::null());
    config.checkpoint = Some(path.clone());
    std::fs::remove_file(path).ok();
    let report = CampaignSession::new(config).run().expect("fresh journaled run");
    assert!(!report.interrupted);
}

#[test]
fn resume_after_k_of_n_shards_is_bit_identical_at_every_thread_count() {
    let (reference, reference_events) = reference_run();
    let full = temp_path("full");
    complete_journal(&full);
    let (checkpoint, _) = CampaignCheckpoint::load(&full).expect("full journal loads");
    assert_eq!(checkpoint.shards.len(), 3);

    for salvaged in 0..3usize {
        // Rebuild a journal holding only the first `salvaged` shard records —
        // exactly what a kill at that shard boundary leaves behind.
        let partial = temp_path(&format!("partial-{salvaged}"));
        let journal = CheckpointJournal::create(&partial, checkpoint.fingerprint, 3)
            .expect("partial journal");
        for record in checkpoint.shards.iter().take(salvaged) {
            journal.append_shard(record).expect("append salvaged record");
        }
        drop(journal);

        for threads in [1usize, 2, 8] {
            let bytes = std::fs::read(&partial).expect("journal bytes");
            let mem = MemorySink::new();
            let mut config = base_config(SinkHandle::new(mem.clone()));
            config.checkpoint = Some(partial.clone());
            let report =
                CampaignSession::new(config).run_with_threads(threads).expect("resume succeeds");
            // Restore the partial journal for the next thread count (the
            // resumed run appended the missing shards to it).
            let after = std::fs::read(&partial).expect("journal bytes");
            assert!(after.len() >= bytes.len(), "resume only ever appends");
            std::fs::write(&partial, &bytes).expect("restore partial journal");

            assert_eq!(
                report_to_json_deterministic(&report),
                report_to_json_deterministic(&reference),
                "salvaged {salvaged}, threads {threads}"
            );
            assert_eq!(
                data_plane(&mem.take()),
                reference_events,
                "salvaged {salvaged}, threads {threads}"
            );
            let resume = report.resume.expect("resumed run carries provenance");
            assert_eq!(resume.shards_salvaged, salvaged as u64);
            assert_eq!(resume.shards_rerun, 3 - salvaged as u64);
            assert_eq!(resume.shards_total, 3);
            assert_eq!(resume.checkpoints_written, 3 - salvaged as u64);
            assert!(!report.interrupted);
        }
    }
}

#[test]
fn resuming_a_finished_journal_reruns_nothing() {
    let (reference, reference_events) = reference_run();
    let path = temp_path("finished");
    complete_journal(&path);

    let mem = MemorySink::new();
    let mut config = base_config(SinkHandle::new(mem.clone()));
    config.checkpoint = Some(path);
    let report = CampaignSession::new(config).run().expect("resume");
    assert_eq!(report_to_json_deterministic(&report), report_to_json_deterministic(&reference));
    assert_eq!(data_plane(&mem.take()), reference_events);
    let resume = report.resume.expect("provenance");
    assert_eq!(resume.shards_salvaged, 3);
    assert_eq!(resume.shards_rerun, 0);
    assert_eq!(resume.checkpoints_written, 0);
}

#[test]
fn fingerprint_mismatch_refuses_to_resume() {
    let path = temp_path("fingerprint");
    complete_journal(&path);

    let mut other = base_config(SinkHandle::null());
    other.seed ^= 1;
    other.checkpoint = Some(path);
    let err = CampaignSession::new(other).run().expect_err("must refuse");
    assert!(
        matches!(err, CheckpointError::FingerprintMismatch { .. }),
        "expected fingerprint mismatch, got {err}"
    );
}

/// A complete journal of the base config, written by the build at commit
/// 07aafde and checked in. Its events were rendered by that build's
/// codec, so it guards the parser against stranding journals already on
/// disk. Re-record it only with a change that moves campaign results on
/// purpose.
const EARLIER_BUILD_JOURNAL: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/seed2-3x20.ckpt");

#[test]
fn a_journal_written_by_an_earlier_build_loads_and_resumes() {
    let fixture = PathBuf::from(EARLIER_BUILD_JOURNAL);
    let (checkpoint, recovery) = CampaignCheckpoint::load(&fixture).expect("the journal loads");
    assert_eq!(recovery.dropped_tail_bytes, 0, "{:?}", recovery.tail_error);
    assert_eq!(recovery.shards_salvaged, 3);
    assert_eq!(checkpoint.shards.len(), 3);
    assert_eq!(checkpoint.fingerprint, config_fingerprint(&base_config(SinkHandle::null())));

    // Resume from a copy: nothing re-runs, and the report and the replayed
    // data-plane stream equal a fresh run's.
    let (reference, reference_events) = reference_run();
    let copy = temp_path("earlier-build");
    std::fs::copy(&fixture, &copy).expect("copy the journal");
    let mem = MemorySink::new();
    let mut config = base_config(SinkHandle::new(mem.clone()));
    config.checkpoint = Some(copy.clone());
    let resumed = CampaignSession::new(config).run().expect("resume");
    let resume = resumed.resume.as_ref().expect("provenance");
    assert_eq!(resume.shards_salvaged, 3);
    assert_eq!(resume.shards_rerun, 0);
    assert_eq!(report_checksum(&resumed), report_checksum(&reference));
    assert_eq!(data_plane(&mem.take()), reference_events);
    std::fs::remove_file(&copy).ok();
}

/// Cancels its token on the first `CheckpointWritten` event. The shard
/// runtime emits it while committing a shard, before a one-thread session
/// claims the next, so exactly one shard completes.
struct CancelOnFirstCheckpoint(CancelToken);

impl Sink for CancelOnFirstCheckpoint {
    fn emit(&self, event: &Event) {
        if matches!(event.kind, EventKind::CheckpointWritten { .. }) {
            self.0.cancel();
        }
    }
}

#[test]
fn cancel_token_drains_checkpoints_and_resumes_identically() {
    let (reference, reference_events) = reference_run();
    let path = temp_path("cancel");
    std::fs::remove_file(&path).ok();

    // A mid-campaign shutdown: cancel once the first shard is journalled.
    let cancel = CancelToken::new();
    let mut config = base_config(SinkHandle::new(CancelOnFirstCheckpoint(cancel.clone())));
    config.checkpoint = Some(path.clone());
    config.cancel = cancel;
    config.threads = 1;
    let interrupted = CampaignSession::new(config).run().expect("journaled run");

    // The shutdown drained cleanly: completed work reported, rest pending.
    assert!(interrupted.interrupted, "report must be flagged interrupted");
    assert!(interrupted.cases_run < reference.cases_run);
    let (checkpoint, _) = CampaignCheckpoint::load(&path).expect("the journal loads");
    assert_eq!(checkpoint.shards.len(), 1, "exactly one shard completes");

    // The journal is loadable and the resume completes to the reference
    // (fresh token: the config's cancelled one must not leak into it).
    let mem = MemorySink::new();
    let mut resume_config = base_config(SinkHandle::new(mem.clone()));
    resume_config.checkpoint = Some(path);
    let resumed = CampaignSession::new(resume_config).run().expect("resume");
    assert!(!resumed.interrupted);
    assert_eq!(report_to_json_deterministic(&resumed), report_to_json_deterministic(&reference));
    assert_eq!(data_plane(&mem.take()), reference_events);
    assert_eq!(resumed.resume.expect("provenance").shards_salvaged, 1);
}

#[test]
fn zero_deadline_interrupts_immediately_but_leaves_a_loadable_journal() {
    let path = temp_path("deadline");
    std::fs::remove_file(&path).ok();

    let mut config = base_config(SinkHandle::null());
    config.checkpoint = Some(path.clone());
    config.deadline = Some(std::time::Duration::ZERO);
    let report = CampaignSession::new(config).run().expect("journaled run");
    assert!(report.interrupted);
    assert_eq!(report.cases_run, 0, "a zero deadline cancels before the first case");

    // Resume without the deadline finishes the whole budget.
    let (reference, _) = reference_run();
    let mut resume_config = base_config(SinkHandle::null());
    resume_config.checkpoint = Some(path);
    let resumed = CampaignSession::new(resume_config).run().expect("resume");
    assert!(!resumed.interrupted);
    assert_eq!(report_to_json_deterministic(&resumed), report_to_json_deterministic(&reference));
}

#[test]
fn rerunning_a_config_whose_deadline_fired_finishes_the_campaign() {
    let path = temp_path("deadline-rerun");
    std::fs::remove_file(&path).ok();

    let mut config = base_config(SinkHandle::null());
    config.checkpoint = Some(path.clone());
    config.deadline = Some(std::time::Duration::ZERO);
    let fired = CampaignSession::new(config.clone()).run().expect("journaled run");
    assert!(fired.interrupted);

    // The clone shares the token whose deadline fired; its run arms its own
    // deadline from its own start, so it finishes the budget.
    config.deadline = Some(std::time::Duration::from_secs(3600));
    let finished = CampaignSession::new(config).run().expect("resume");
    assert!(!finished.interrupted);
    let (reference, _) = reference_run();
    assert_eq!(report_to_json_deterministic(&finished), report_to_json_deterministic(&reference));
    std::fs::remove_file(&path).ok();
}

#[test]
fn probe_reinstatements_are_deterministic_and_reconciled() {
    let run = |threads: usize| {
        let mem = MemorySink::new();
        let config = CampaignConfig::builder()
            .seed(2)
            .corpus_programs(80)
            .lm(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 })
            .max_cases(60)
            .fuel(200_000)
            .include_strict(false)
            .include_legacy(false)
            .reduce_cases(false)
            .keep_invalid_fraction(0.2)
            .shard_cases(20)
            .sink(SinkHandle::new(mem.clone()))
            .exec(ExecPolicy { quarantine_after: 2, probe_after: 3, ..ExecPolicy::default() })
            .chaos(ChaosConfig::on_first(
                FaultPlan::new(1003).panic_rate(0.15).transient_rate(0.05).hang_millis(1),
            ))
            .build()
            .expect("valid chaos config");
        let report = CampaignSession::new(config)
            .run_with_threads(threads)
            .expect("fresh run is infallible");
        (report, mem.take())
    };

    let (r1, e1) = run(1);
    let (r4, e4) = run(4);
    assert_eq!(report_to_json_deterministic(&r1), report_to_json_deterministic(&r4));
    assert_eq!(data_plane(&e1), data_plane(&e4));

    // The half-open probe actually reinstated a quarantined testbed, the
    // counter reconciles with the event stream, and the health ledger saw it.
    let reinstated_events = e1
        .iter()
        .filter(|e| matches!(e.kind, comfort_telemetry::EventKind::TestbedReinstated { .. }))
        .count() as u64;
    assert_eq!(r1.metrics.testbeds_reinstated, reinstated_events);
    assert!(
        reinstated_events > 0,
        "this seed/fault-rate combination is expected to quarantine and reinstate"
    );
    assert_eq!(
        r1.health.iter().map(|h| h.reinstatements).sum::<u64>(),
        reinstated_events,
        "health ledger reconciles with the event stream"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A journal truncated at *any* byte — simulating a kill mid-append at an
    /// arbitrary point — either salvages an intact prefix and resumes to the
    /// bit-identical reference report, or (cut inside the header) reports a
    /// typed recovery error. It never fabricates records and never panics.
    #[test]
    fn resume_survives_truncation_at_any_byte(fraction in 0.0f64..1.0) {
        let full = temp_path("prop-full");
        if !full.exists() {
            complete_journal(&full);
        }
        let bytes = std::fs::read(&full).expect("journal bytes");
        let cut = ((bytes.len() as f64) * fraction) as usize;
        let truncated = temp_path(&format!("prop-cut-{cut}"));
        std::fs::write(&truncated, &bytes[..cut]).expect("write truncated journal");

        let mut config = base_config(SinkHandle::null());
        let fingerprint = config_fingerprint(&config);
        config.checkpoint = Some(truncated.clone());
        match CampaignSession::new(config).run() {
            Ok(report) => {
                prop_assert!(!report.interrupted);
                prop_assert_eq!(report.cases_run, 60);
                let resume = report.resume.expect("provenance");
                prop_assert_eq!(resume.shards_salvaged + resume.shards_rerun, 3);
                // The resumed journal is complete and internally consistent.
                let (reloaded, recovery) =
                    CampaignCheckpoint::load(&truncated).expect("resumed journal loads");
                prop_assert_eq!(reloaded.fingerprint, fingerprint);
                prop_assert_eq!(reloaded.shards.len(), 3);
                prop_assert_eq!(recovery.dropped_tail_bytes, 0);
            }
            Err(CheckpointError::MissingHeader) => {
                // The cut fell inside the header line: nothing salvageable,
                // and the error is typed rather than a fabricated resume.
                prop_assert!(cut < 100, "header truncation only happens near byte 0, got {cut}");
            }
            Err(other) => prop_assert!(false, "unexpected recovery error: {other}"),
        }
        std::fs::remove_file(&truncated).ok();
    }

    /// A CRC-intact record the codec cannot read — an unknown kind, broken
    /// JSON, or a shard record missing fields — is refused wherever a run
    /// of them starts and whether or not a torn write tops it: `run`
    /// returns `BadRecord` naming the record, and the journal stays
    /// byte-identical, because dropping the record would truncate readable
    /// work away and re-run its shard. A torn frame alone still salvages,
    /// resumes, and is truncated on open.
    #[test]
    fn resume_refuses_garbled_records_and_salvages_a_torn_frame(
        garbled in proptest::collection::vec(0usize..3, 0..5),
        torn_tail in any::<bool>(),
    ) {
        let full = temp_path("prop-garbled-full");
        if !full.exists() {
            complete_journal(&full);
        }
        let mut bytes = std::fs::read(&full).expect("journal bytes");
        for (i, kind) in garbled.iter().enumerate() {
            let payload = match kind {
                0 => format!("{{\"kind\":\"mystery-{i}\"}}"),
                1 => format!("{{broken json {i}"),
                _ => format!("{{\"kind\":\"shard\",\"index\":{i}}}"), // fields missing
            };
            bytes.extend_from_slice(
                comfort_telemetry::frame_line(&payload).expect("frames").as_bytes(),
            );
        }
        if torn_tail {
            bytes.extend_from_slice(b"J1 250 0badf00d {\"kind\":\"shard\",\"ind");
        }
        let path = temp_path(&format!("prop-garbled-{}-{torn_tail}", garbled.len()));
        std::fs::write(&path, &bytes).expect("write garbled journal");

        let mut config = base_config(SinkHandle::null());
        config.checkpoint = Some(path.clone());
        let result = CampaignSession::new(config).run();
        if garbled.is_empty() {
            let report = result.expect("resumes over the salvage");
            prop_assert!(!report.interrupted);
            prop_assert_eq!(report.cases_run, 60);
            let resume = report.resume.expect("provenance");
            prop_assert_eq!(resume.shards_salvaged, 3);
            prop_assert_eq!(resume.shards_rerun, 0);
            let (reloaded, recovery) =
                CampaignCheckpoint::load(&path).expect("resumed journal loads");
            prop_assert_eq!(reloaded.shards.len(), 3);
            prop_assert_eq!(recovery.dropped_tail_bytes, 0, "open_append truncated the tear");
        } else {
            // Header and three shard records precede the first garbled one.
            match result {
                Err(CheckpointError::BadRecord(e)) => {
                    prop_assert!(e.contains("record 4"), "{}", e);
                }
                other => prop_assert!(false, "not refused: {:?}", other.map(|r| r.cases_run)),
            }
            let after = std::fs::read(&path).expect("journal bytes");
            prop_assert!(after == bytes, "the refused journal was modified");
        }
        std::fs::remove_file(&path).ok();
    }
}
