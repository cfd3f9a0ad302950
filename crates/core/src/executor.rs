//! The shard plan and the order-preserving merge.
//!
//! The paper's evaluation runs 250k cases over 102 testbeds in a 200-hour
//! budget; a strictly serial loop cannot approach that. A campaign's
//! `max_cases` budget is split into **shards**: independent sub-campaigns
//! whose seeds are a pure function of `(master_seed, shard_index)`.
//! [`CampaignSession::run_shard`](crate::session::CampaignSession::run_shard)
//! runs one shard over a generator trained once, and
//! [`merge_shard_reports`] folds the shard reports into one
//! [`CampaignReport`]. Which worker runs which shard is up to the driver
//! (see [`runtime`](crate::runtime)).
//!
//! # Determinism contract
//!
//! * The shard plan depends only on the configuration (`max_cases`,
//!   `shard_cases`, `seed`), never on thread count or hardware.
//! * A shard's report and event stream depend only on its [`ShardSpec`].
//! * Shard reports merge in shard order, so the campaign report is
//!   **bit-identical** at `threads = 1`, `2`, `8`, or any other width.
//! * A single-shard plan (`shard_cases = 0`, the default) reproduces the
//!   serial `Campaign::run` case stream exactly.
//!
//! Shards are the only parallelism: a shard runs each case's class
//! representatives one after another on its worker's thread, and threads
//! beyond the shard count stay idle.

use comfort_engines::Testbed;
use comfort_lm::Generator;
use comfort_telemetry::{EventKind, Recorder, SinkHandle, MERGE_SHARD};

use crate::campaign::{CampaignConfig, CampaignReport};
use crate::filter::BugTree;

// Shard workers share programs, testbeds, and the trained generator across
// threads by reference; these assertions pin the Send/Sync audit of the
// engine substrate at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Testbed>();
    assert_send_sync::<comfort_engines::Engine>();
    assert_send_sync::<comfort_syntax::Program>();
    assert_send_sync::<Generator>();
    assert_send_sync::<CampaignReport>();
};

/// One shard's slice of the campaign budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Position in the shard plan (merge order).
    pub index: usize,
    /// The shard's campaign seed, `mix(master_seed, index)`.
    pub seed: u64,
    /// The shard's share of `max_cases`.
    pub cases: usize,
}

/// Derives a shard's seed from the master seed (splitmix64-style mixing, so
/// neighbouring shard indices produce unrelated streams).
pub fn shard_seed(master_seed: u64, shard_index: u64) -> u64 {
    let mut z = master_seed
        .wrapping_add(shard_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `config.max_cases` into the shard plan — a pure function of the
/// configuration. With `shard_cases = 0` (or one shard's worth of budget)
/// the plan is a single shard carrying the master seed, i.e. exactly the
/// legacy serial campaign.
pub fn plan_shards(config: &CampaignConfig) -> Vec<ShardSpec> {
    let per_shard = if config.shard_cases == 0 { config.max_cases } else { config.shard_cases };
    let count = config.max_cases.div_ceil(per_shard.max(1)).max(1);
    if count == 1 {
        return vec![ShardSpec { index: 0, seed: config.seed, cases: config.max_cases }];
    }
    // Even split: the first `max_cases % count` shards carry one extra case,
    // so the shares always sum to exactly `max_cases`.
    let base = config.max_cases / count;
    let extra = config.max_cases % count;
    (0..count)
        .map(|i| ShardSpec {
            index: i,
            seed: shard_seed(config.seed, i as u64),
            cases: base + usize::from(i < extra),
        })
        .collect()
}

/// Resolves a `threads` knob: `0` means all available parallelism.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Merges per-shard reports (in shard order) into one campaign report.
///
/// Counters are summed; each bug's `sim_hours` is re-based by the simulated
/// time of the preceding shards (shards model consecutive slices of one
/// testing budget); bugs whose [`BugKey`](crate::filter::BugKey) was already
/// reported by an earlier shard are counted into `duplicates_filtered`
/// instead of being reported twice.
pub fn merge_shard_reports(shard_reports: &[CampaignReport]) -> CampaignReport {
    merge_shard_reports_with_sink(shard_reports, &SinkHandle::null())
}

/// [`merge_shard_reports`], additionally emitting a cross-shard
/// [`BugDeduped`](comfort_telemetry::EventKind::BugDeduped) event (stamped
/// with the [`MERGE_SHARD`] pseudo-shard) for every bug an earlier shard
/// already reported. Metrics merge conservation-exactly: every counter of
/// the merged value is the sum of the shard values, with cross-shard
/// duplicates moved from `bugs_reported` to `bugs_deduped` by counting
/// their events.
pub fn merge_shard_reports_with_sink(
    shard_reports: &[CampaignReport],
    sink: &SinkHandle,
) -> CampaignReport {
    let mut merged = CampaignReport::default();
    let mut tree = BugTree::new();
    let mut recorder = Recorder::new(sink.clone(), MERGE_SHARD);
    for report in shard_reports {
        merged.cases_run += report.cases_run;
        merged.parse_errors += report.parse_errors;
        merged.passes += report.passes;
        merged.deviations_observed += report.deviations_observed;
        merged.duplicates_filtered += report.duplicates_filtered;
        merged.metrics.merge_from(&report.metrics);
        if merged.health.is_empty() {
            merged.health = report.health.clone();
        } else {
            debug_assert_eq!(merged.health.len(), report.health.len());
            for (acc, shard) in merged.health.iter_mut().zip(&report.health) {
                acc.merge_from(shard);
            }
        }
        for bug in &report.bugs {
            if tree.observe(&bug.key) {
                let mut rebased = bug.clone();
                rebased.sim_hours += merged.sim_hours;
                merged.bugs.push(rebased);
            } else {
                merged.duplicates_filtered += 1;
                let kind = EventKind::BugDeduped {
                    engine: bug.key.engine.as_str().to_string(),
                    key: bug.key.to_string(),
                    cross_shard: true,
                };
                merged.metrics.count(&kind);
                recorder.emit(kind);
            }
        }
        merged.sim_hours += report.sim_hours;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded_config() -> CampaignConfig {
        CampaignConfig::builder()
            .seed(11)
            .corpus_programs(80)
            .lm(comfort_lm::GeneratorConfig {
                order: 8,
                bpe_merges: 200,
                top_k: 10,
                max_tokens: 800,
            })
            .datagen(crate::datagen::DataGenConfig {
                max_mutants_per_program: 10,
                random_mutants: 2,
            })
            .max_cases(90)
            .fuel(200_000)
            .include_strict(false)
            .include_legacy(false)
            .reduce_cases(false)
            .shard_cases(30)
            .build()
            .expect("valid config")
    }

    #[test]
    fn shard_plan_is_even_and_exact() {
        // ceil(100/30) = 4 shards of 25
        let config =
            CampaignConfig { max_cases: 100, shard_cases: 30, ..CampaignConfig::default() };
        let plan = plan_shards(&config);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.iter().map(|s| s.cases).sum::<usize>(), 100);
        assert!(plan.iter().all(|s| s.cases == 25));
        // Distinct seeds per shard, all derived from the master seed.
        let mut seeds: Vec<u64> = plan.iter().map(|s| s.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn single_shard_plan_keeps_the_master_seed() {
        let config = CampaignConfig::default();
        let plan = plan_shards(&config);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].seed, config.seed);
        assert_eq!(plan[0].cases, config.max_cases);
    }

    #[test]
    fn uneven_budgets_still_sum_exactly() {
        // 5 shards: 21,21,21,20,20
        let config =
            CampaignConfig { max_cases: 103, shard_cases: 25, ..CampaignConfig::default() };
        let plan = plan_shards(&config);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.iter().map(|s| s.cases).sum::<usize>(), 103);
        let max = plan.iter().map(|s| s.cases).max().unwrap();
        let min = plan.iter().map(|s| s.cases).min().unwrap();
        assert!(max - min <= 1, "shares must differ by at most one case");
    }

    #[test]
    fn merge_preserves_counts_and_dedups_keys() {
        let session = crate::session::CampaignSession::new(sharded_config());
        let plan = session.plan();
        assert_eq!(plan.len(), 3);
        let shard_reports: Vec<CampaignReport> =
            plan.iter().map(|s| session.run_shard(s).report).collect();
        let merged = merge_shard_reports(&shard_reports);
        assert_eq!(merged.cases_run, shard_reports.iter().map(|r| r.cases_run).sum::<u64>());
        let total_bugs: usize = shard_reports.iter().map(|r| r.bugs.len()).sum();
        let cross_shard_dups: u64 = merged.duplicates_filtered
            - shard_reports.iter().map(|r| r.duplicates_filtered).sum::<u64>();
        assert_eq!(merged.bugs.len() + cross_shard_dups as usize, total_bugs);
        // Every surviving key is unique.
        let mut keys: Vec<String> = merged.bugs.iter().map(|b| b.key.to_string()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(before, keys.len());
    }
}
