//! Tier-1 guard for model identity and the shared shard runtime: the
//! seed-6 `bench-harness` workload (`comfort_bench::harness::workload(false)`)
//! must keep its report checksum however it runs. The report depends on
//! every token the language model samples, so any change to how the BPE
//! tokenizer or the n-gram model is trained that alters the trained model
//! moves this checksum; so does any drift between the library's and the
//! daemon's way of committing, replaying and merging shards. A second pin
//! runs the same workload over the widest matrix with reduction on, so the
//! reduction oracle, the strict-only check and the attribution runs are
//! held to their report too.

use std::time::Duration;

use comfort::core::campaign::CampaignConfig;
use comfort::core::checkpoint::{config_fingerprint, report_checksum};
use comfort::core::session::CampaignSession;
use comfort::lm::GeneratorConfig;
use comfort::service::daemon::{CampaignState, Daemon, ServiceConfig};
use comfort::service::spec::CampaignSpec;
use comfort::telemetry::Stage;

/// The BENCH_7 baseline checksum of the seed-6 workload.
const SEED6_CHECKSUM: &str = "a92f73d7d5a0c004";

/// The checksum of the seed-6 workload with strict and legacy testbeds and
/// reduction on, recorded when reduction still ran the full matrix.
const SEED6_REDUCED_CHECKSUM: &str = "f709b4d473061418";

fn seed6_config() -> CampaignConfig {
    CampaignConfig {
        seed: 6,
        corpus_programs: 80,
        lm: GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 },
        max_cases: 120,
        fuel: 200_000,
        shard_cases: 30,
        include_strict: false,
        include_legacy: false,
        reduce_cases: false,
        ..CampaignConfig::default()
    }
}

fn hex(checksum: u64) -> String {
    format!("{checksum:016x}")
}

#[test]
fn seed6_bench_workload_keeps_its_checksum_at_one_and_two_threads() {
    let session = CampaignSession::new(seed6_config());
    for threads in [1, 2] {
        let report = session.run_with_threads(threads).expect("a journal-free run cannot fail");
        assert_eq!(
            hex(report_checksum(&report)),
            SEED6_CHECKSUM,
            "seed-6 report drifted at {threads} threads"
        );
    }
}

#[test]
fn seed6_reduced_workload_keeps_its_checksum_at_one_and_two_threads() {
    let config = CampaignConfig {
        include_strict: true,
        include_legacy: true,
        reduce_cases: true,
        ..seed6_config()
    };
    let session = CampaignSession::new(config);
    for threads in [1, 2] {
        let report = session.run_with_threads(threads).expect("a journal-free run cannot fail");
        assert!(report.metrics.stage(Stage::Reduction).invocations > 0, "nothing was reduced");
        assert_eq!(
            hex(report_checksum(&report)),
            SEED6_REDUCED_CHECKSUM,
            "seed-6 reduced report drifted at {threads} threads"
        );
    }
}

#[test]
fn seed6_workload_keeps_its_checksum_when_resumed_from_a_cut_journal() {
    let journal =
        std::env::temp_dir().join(format!("comfort-model-identity-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let config = CampaignConfig { checkpoint: Some(journal.clone()), ..seed6_config() };
    CampaignSession::new(config.clone()).run_with_threads(1).expect("journalled run");

    // Keep the header and the first two shard records, one line each.
    let bytes = std::fs::read(&journal).expect("journal written");
    let cut = bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').nth(2).expect("two shards").0;
    std::fs::write(&journal, &bytes[..=cut]).expect("cut the journal");

    let report = CampaignSession::new(config).run_with_threads(2).expect("resumed run");
    let _ = std::fs::remove_file(&journal);
    let resume = report.resume.as_ref().expect("resume provenance");
    assert_eq!((resume.shards_salvaged, resume.shards_rerun), (2, 2));
    assert_eq!(hex(report_checksum(&report)), SEED6_CHECKSUM, "seed-6 report drifted on resume");
}

#[test]
fn seed6_workload_keeps_its_checksum_under_the_daemon() {
    let spec = CampaignSpec {
        seed: Some(6),
        corpus_programs: Some(80),
        lm: Some(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 }),
        max_cases: Some(120),
        fuel: Some(200_000),
        shard_cases: Some(30),
        include_strict: Some(false),
        include_legacy: Some(false),
        reduce_cases: Some(false),
        ..CampaignSpec::for_tenant("model-identity")
    };
    let built = spec.build_config().expect("the spec builds a config");
    assert_eq!(config_fingerprint(&built), config_fingerprint(&seed6_config()));

    let daemon = Daemon::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let id = daemon.submit(&spec).expect("admitted");
    let status = daemon.wait(&id, Duration::from_secs(600)).expect("campaign exists");
    daemon.drain();
    assert_eq!(status.state, CampaignState::Completed);
    assert_eq!(status.checksum.map(hex).as_deref(), Some(SEED6_CHECKSUM));
}
