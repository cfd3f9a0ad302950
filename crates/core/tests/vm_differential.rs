//! Backend differential suite: the bytecode VM against the tree-walking
//! reference oracle.
//!
//! The VM's contract is **bit-identical observables** — status, output,
//! fuel accounting, coverage hits — on every program, at every thread
//! width. These tests sweep the training corpus and ECMA-guided mutants,
//! drive the differential harness under both backends, and pin the
//! acceptance criterion: a full seed-6 campaign produces checksum-equal
//! reports under both backends.

use comfort_core::campaign::{Campaign, CampaignConfig};
use comfort_core::checkpoint::report_checksum;
use comfort_core::datagen::{DataGen, DataGenConfig};
use comfort_core::differential::run_differential;
use comfort_engines::{latest_testbeds, Backend, RunOptions};
use comfort_interp::{compile, hooks::SpecProfile, run_chunk};
use comfort_lm::GeneratorConfig;
use comfort_syntax::{parse, Program};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn backend_options(backend: Backend) -> RunOptions {
    RunOptions { coverage: true, fuel: 300_000, backend, ..RunOptions::default() }
}

/// Asserts the two backends agree on every observable of `program`.
fn assert_backends_agree(program: &Program, label: &str) {
    let chunk = compile(program);
    let vm = run_chunk(&chunk, &SpecProfile, &backend_options(Backend::Bytecode));
    let oracle = run_chunk(&chunk, &SpecProfile, &backend_options(Backend::TreeWalk));
    assert_eq!(vm, oracle, "backend divergence on {label}");
}

#[test]
fn corpus_sweep_backends_agree() {
    for seed in 0..120u64 {
        let src = comfort_corpus::training_corpus(seed, 1).remove(0);
        let program = parse(&src).expect("corpus parses");
        assert_backends_agree(&program, &format!("corpus seed {seed}"));
    }
}

#[test]
fn ecma_mutants_backends_agree() {
    // The datagen mutants reach API boundary values the plain corpus
    // doesn't (NaN lengths, negative indices, dropped arguments).
    let db = comfort_ecma262::spec_db();
    let datagen = DataGen::new(db, DataGenConfig::default());
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut next_id = 0u64;
    let mut mutants = 0usize;
    for seed in 0..24u64 {
        let src = comfort_corpus::training_corpus(seed, 1).remove(0);
        let base = parse(&src).expect("corpus parses");
        for case in datagen.mutate(&base, seed, &mut next_id, &mut rng) {
            assert_backends_agree(&case.program, &format!("mutant {} of seed {seed}", case.id));
            mutants += 1;
        }
    }
    assert!(mutants > 50, "mutation sweep too small to be meaningful ({mutants} mutants)");
}

#[test]
fn differential_outcomes_agree_across_backends() {
    let testbeds = latest_testbeds();
    for seed in 0..30u64 {
        let src = comfort_corpus::training_corpus(seed, 1).remove(0);
        let program = parse(&src).expect("corpus parses");
        let [vm, oracle] = [Backend::Bytecode, Backend::TreeWalk].map(|backend| {
            let options = RunOptions { fuel: 300_000, backend, ..RunOptions::default() };
            run_differential(&program, &testbeds, &options)
        });
        assert_eq!(vm, oracle, "differential outcome varies with the backend on seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuel-bounded termination parity: with a fuel budget small enough to
    /// interrupt mid-program, both backends stop at the *same* point with
    /// the same partial output and identical fuel consumption.
    #[test]
    fn fuel_truncation_is_backend_identical(seed in 0u64..4000, fuel in 1u64..2000) {
        let src = comfort_corpus::training_corpus(seed, 1).remove(0);
        let chunk = compile(&parse(&src).expect("corpus parses"));
        let vm = run_chunk(
            &chunk,
            &SpecProfile,
            &RunOptions { fuel, backend: Backend::Bytecode, ..RunOptions::default() },
        );
        let oracle = run_chunk(
            &chunk,
            &SpecProfile,
            &RunOptions { fuel, backend: Backend::TreeWalk, ..RunOptions::default() },
        );
        prop_assert_eq!(vm, oracle);
    }
}

fn seed6_config(backend: Backend, threads: usize) -> CampaignConfig {
    CampaignConfig::builder()
        .seed(6)
        .corpus_programs(80)
        .lm(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 })
        .max_cases(40)
        .fuel(200_000)
        .backend(backend)
        .threads(threads)
        .include_strict(true)
        .include_legacy(false)
        .reduce_cases(true)
        .shard_cases(20)
        .build()
        .expect("valid seed-6 config")
}

#[test]
fn seed6_campaign_reports_are_checksum_equal_across_backends() {
    let vm = Campaign::new(seed6_config(Backend::Bytecode, 1)).run();
    let oracle = Campaign::new(seed6_config(Backend::TreeWalk, 1)).run();
    assert_eq!(
        report_checksum(&vm),
        report_checksum(&oracle),
        "seed-6 campaign reports differ between backends"
    );
    // And the contract holds at width too: a threaded VM campaign matches
    // the serial tree-walk oracle checksum exactly.
    let vm_wide = Campaign::new(seed6_config(Backend::Bytecode, 8)).run();
    assert_eq!(report_checksum(&vm), report_checksum(&vm_wide));
}
