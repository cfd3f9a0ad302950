//! Tier-1 guard for model identity: the seed-6 `bench-harness` workload
//! (`comfort_bench::harness::workload(false)`) must keep its report
//! checksum. The report depends on every token the language model
//! samples, so any change to how the BPE tokenizer or the n-gram model is
//! trained that alters the trained model moves this checksum.

use comfort::core::campaign::CampaignConfig;
use comfort::core::checkpoint::report_checksum;
use comfort::core::session::CampaignSession;
use comfort::lm::GeneratorConfig;

/// The BENCH_7 baseline checksum of the seed-6 workload.
const SEED6_CHECKSUM: &str = "a92f73d7d5a0c004";

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

#[test]
fn seed6_bench_workload_keeps_its_checksum_at_one_and_two_threads() {
    let session = CampaignSession::new(seed6_config());
    for threads in [1, 2] {
        let report = session.run_with_threads(threads).expect("a journal-free run cannot fail");
        assert_eq!(
            format!("{:016x}", report_checksum(&report)),
            SEED6_CHECKSUM,
            "seed-6 report drifted at {threads} threads"
        );
    }
}
