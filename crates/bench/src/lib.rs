#![warn(missing_docs)]

//! Experiment harness of the `tables` binary: canned configurations for
//! each table/figure of the paper.
//!
//! See DESIGN.md §3 for the experiment index; EXPERIMENTS.md records the
//! paper-vs-measured comparison produced by `tables -- all`.
//!
//! [`ab`] holds the perfbench A/B records (`BENCH_<n>.json`) that the
//! `bench-ab` binary writes and `bench-diff` gates (DESIGN.md §11).

pub mod ab;

use comfort_core::campaign::{CampaignConfig, CampaignReport};
use comfort_core::compare::{compare, CompareConfig, FuzzerSeries};
use comfort_core::fuzzer::ComfortFuzzer;
use comfort_core::quality::{measure, QualityReport};
use comfort_core::session::CampaignSession;
use comfort_core::Fuzzer;
use comfort_lm::GeneratorConfig;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: seconds.
    Quick,
    /// Paper-shaped: minutes (used for EXPERIMENTS.md).
    Full,
}

impl Scale {
    /// Campaign case budget.
    pub fn campaign_cases(self) -> usize {
        match self {
            Scale::Quick => 400,
            Scale::Full => 20000,
        }
    }

    /// Per-fuzzer budget for Figure 8.
    pub fn compare_cases(self) -> usize {
        match self {
            Scale::Quick => 150,
            Scale::Full => 2500,
        }
    }

    /// Programs per fuzzer for Figure 9 validity (paper: 10,000).
    pub fn quality_programs(self) -> usize {
        match self {
            Scale::Quick => 150,
            Scale::Full => 2000,
        }
    }

    /// Valid programs sampled for coverage (paper: 9,000).
    pub fn coverage_sample(self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Full => 600,
        }
    }
}

/// The campaign configuration used for Tables 2–5 / Figure 7.
pub fn campaign_config(seed: u64, scale: Scale) -> CampaignConfig {
    CampaignConfig {
        seed,
        corpus_programs: 300,
        lm: GeneratorConfig { order: 12, bpe_merges: 400, top_k: 10, max_tokens: 1500 },
        max_cases: scale.campaign_cases(),
        include_strict: true,
        reduce_cases: true,
        ..CampaignConfig::default()
    }
}

/// Runs the main campaign (Tables 2–5, Figure 7).
pub fn run_campaign(seed: u64, scale: Scale) -> CampaignReport {
    CampaignSession::new(campaign_config(seed, scale))
        .run()
        .expect("a journal-free run cannot fail")
}

/// Builds COMFORT as a comparison fuzzer.
pub fn comfort_fuzzer(seed: u64) -> ComfortFuzzer {
    ComfortFuzzer::new(
        seed,
        300,
        GeneratorConfig { order: 12, bpe_merges: 400, top_k: 10, max_tokens: 1500 },
    )
}

/// Runs the Figure 8 comparison: COMFORT vs the five baselines.
pub fn run_figure8(seed: u64, scale: Scale) -> Vec<FuzzerSeries> {
    let mut comfort = comfort_fuzzer(seed);
    let mut deepsmith = comfort_baselines::DeepSmith::new(seed, 300);
    let mut fuzzilli = comfort_baselines::Fuzzilli::new();
    let mut codealchemist = comfort_baselines::CodeAlchemist::new(seed, 300);
    let mut die = comfort_baselines::Die::new(seed, 300);
    let mut montage = comfort_baselines::Montage::new(seed, 300);
    let mut fuzzers: Vec<&mut dyn Fuzzer> = vec![
        &mut comfort,
        &mut deepsmith,
        &mut fuzzilli,
        &mut codealchemist,
        &mut die,
        &mut montage,
    ];
    compare(
        &mut fuzzers,
        &CompareConfig {
            seed,
            cases_each: scale.compare_cases(),
            hours: 72.0,
            fuel: 300_000,
            include_strict: false,
        },
    )
}

/// Runs the Figure 9 quality measurement for all six fuzzers.
pub fn run_figure9(seed: u64, scale: Scale) -> Vec<QualityReport> {
    let n = scale.quality_programs();
    let cov = scale.coverage_sample();
    let mut out = Vec::new();
    // §5.3.3 measures generated *test programs* — data mutants share their
    // base program's syntax/structure, so they are excluded here (counting
    // them would just re-measure each base program ~20 times).
    let mut comfort = comfort_fuzzer(seed).without_ecma_mutation();
    out.push(measure(&mut comfort, seed, n, cov));
    let mut deepsmith = comfort_baselines::DeepSmith::new(seed, 300);
    out.push(measure(&mut deepsmith, seed, n, cov));
    let mut fuzzilli = comfort_baselines::Fuzzilli::new();
    out.push(measure(&mut fuzzilli, seed, n, cov));
    let mut codealchemist = comfort_baselines::CodeAlchemist::new(seed, 300);
    out.push(measure(&mut codealchemist, seed, n, cov));
    let mut die = comfort_baselines::Die::new(seed, 300);
    out.push(measure(&mut die, seed, n, cov));
    let mut montage = comfort_baselines::Montage::new(seed, 300);
    out.push(measure(&mut montage, seed, n, cov));
    out
}

/// Ablation (DESIGN.md §4.1): unique bugs with vs without ECMA-guided data.
pub fn run_ablation_data(seed: u64, scale: Scale) -> Vec<FuzzerSeries> {
    let mut with = comfort_fuzzer(seed);
    let mut without = comfort_fuzzer(seed).without_ecma_mutation();
    let mut fuzzers: Vec<&mut dyn Fuzzer> = vec![&mut with, &mut without];
    let mut series = compare(
        &mut fuzzers,
        &CompareConfig {
            seed,
            cases_each: scale.compare_cases(),
            hours: 72.0,
            fuel: 300_000,
            include_strict: false,
        },
    );
    series[0].name = "COMFORT (spec-guided data)".into();
    series[1].name = "COMFORT (random data only)".into();
    series
}

/// Ablation (DESIGN.md §4.3): developer-inspection load with and without
/// the identical-bug filter tree. Returns `(reports with filter, reports a
/// filterless pipeline would submit, duplicates discarded)`.
pub fn run_ablation_filter(seed: u64, scale: Scale) -> (usize, u64, u64) {
    let report = run_campaign(seed, scale);
    let with_filter = report.bugs.len();
    let without_filter = report.deviations_observed;
    (with_filter, without_filter, report.duplicates_filtered)
}

/// Ablation (DESIGN.md §4.2): syntactic validity as a function of context
/// order — the GPT-2-vs-LSTM capacity sweep.
pub fn run_ablation_order(seed: u64, scale: Scale) -> Vec<QualityReport> {
    let corpus = comfort_corpus::training_corpus(seed, 300);
    let mut out = Vec::new();
    for order in [2usize, 3, 4, 6, 8, 12] {
        let generator = comfort_lm::Generator::train(
            &corpus,
            GeneratorConfig { order, bpe_merges: 400, top_k: 10, max_tokens: 1200 },
        );
        let mut fuzzer = ComfortFuzzer::with_generator(
            generator,
            comfort_core::datagen::DataGenConfig { max_mutants_per_program: 0, random_mutants: 0 },
        );
        let mut q = measure(&mut fuzzer, seed, scale.quality_programs() / 2, 0);
        q.fuzzer = format!("order-{order}");
        out.push(q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_produces_bugs_in_most_engines() {
        let report = run_campaign(7, Scale::Quick);
        assert!(report.bugs.len() >= 5, "{} bugs", report.bugs.len());
        let engines: std::collections::BTreeSet<_> =
            report.bugs.iter().map(|b| b.key.engine).collect();
        assert!(engines.len() >= 3, "bugs spread over ≥3 engines, got {engines:?}");
    }

    #[test]
    fn ablation_order_is_monotone_ish() {
        let series = run_ablation_order(5, Scale::Quick);
        let first = series.first().expect("has entries").syntax_pass_rate;
        let last = series.last().expect("has entries").syntax_pass_rate;
        assert!(last > first, "order-12 ({last}) must beat order-2 ({first})");
    }
}
