//! Integration tests for footprint-based execution dedup: classing a case's
//! testbed matrix into behaviour-equivalence classes and running one
//! representative per class must be a pure execution-count optimization —
//! every outcome, signature, health ledger, report, and (modulo the
//! `execution_deduped` events themselves) telemetry stream is bit-identical
//! to the full matrix, at every thread count, with or without chaos. The
//! partition itself must be the one `relevant_behavior` keys, and
//! `run_differential` (the reduction and attribution oracle) must vote
//! exactly as the full matrix would.

use std::sync::Arc;

use comfort_core::campaign::{testbeds_for, CampaignConfig, CampaignReport};
use comfort_core::checkpoint::{report_checksum, report_to_json_deterministic};
use comfort_core::datagen::{DataGen, DataGenConfig};
use comfort_core::differential::{
    run_differential, vote_on_signatures_quorum, CaseOutcome, ExecutionClasses, QuorumPolicy,
    Signature,
};
use comfort_core::resilience::{run_case_hardened, ChaosConfig, ExecPolicy, HealthTracker};
use comfort_core::session::CampaignSession;
use comfort_engines::{
    all_testbeds, compile, shared_catalog, BugBehavior, CompiledChunk, FaultPlan, RunOptions,
    Testbed,
};
use comfort_interp::ApiFootprint;
use comfort_lm::GeneratorConfig;
use comfort_syntax::Program;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seed-6 workload's report checksum, recorded from the full-matrix
/// executor before execution dedup existed (`BENCH_7.json`, kept in git
/// history). Dedup must reproduce it bit-for-bit.
const SEED6_CHECKSUM: &str = "a92f73d7d5a0c004";

/// The seed-6 workload, the same config as tier-1 `tests/model_identity.rs`.
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

fn run_seed6(dedup: bool, threads: usize) -> CampaignReport {
    let mut config = seed6_config();
    config.exec.dedup = dedup;
    CampaignSession::new(config).run_with_threads(threads).expect("fresh run is infallible")
}

#[test]
fn seed6_checksum_matches_bench7_baseline_at_every_thread_count() {
    for threads in [1, 2, 4, 8] {
        let report = run_seed6(true, threads);
        assert_eq!(
            format!("{:016x}", report_checksum(&report)),
            SEED6_CHECKSUM,
            "dedup-on report drifted from the BENCH_7 baseline at {threads} threads"
        );
        assert!(
            report.metrics.executions_saved > 0,
            "the seed-6 workload must actually collapse classes"
        );
    }
}

#[test]
fn seed6_report_is_identical_with_dedup_on_and_off() {
    let on = run_seed6(true, 2);
    let off = run_seed6(false, 2);
    assert_eq!(report_to_json_deterministic(&on), report_to_json_deterministic(&off));
    assert_eq!(format!("{:016x}", report_checksum(&off)), SEED6_CHECKSUM);
    // Only the how-it-ran counters may differ — and only in one direction.
    assert_eq!(off.metrics.executions_saved, 0);
    assert_eq!(off.metrics.equivalence_classes, 0);
    assert!(on.metrics.executions_saved > 0);
    // Logical work recorded per case is unchanged: the differential stage
    // still counts every masked-in testbed slot, not physical executions.
    assert_eq!(
        on.metrics.stage(comfort_core::telemetry::Stage::Differential).items,
        off.metrics.stage(comfort_core::telemetry::Stage::Differential).items
    );
}

/// Per-case oracle: over a pinned corpus slice, run the hardened slot path
/// with dedup on and off against the *widest* matrix (strict + legacy
/// testbeds) and require identical outcomes, quorum summaries, and health
/// ledgers — while dedup performs strictly fewer executions overall.
#[test]
fn classed_execution_matches_full_matrix_oracle() {
    let config =
        CampaignConfig { include_strict: true, include_legacy: true, ..CampaignConfig::default() };
    let testbeds = testbeds_for(&config);
    assert!(testbeds.len() >= 12, "oracle needs a wide matrix");
    let on = ExecPolicy { dedup: true, ..ExecPolicy::default() };
    let off = ExecPolicy { dedup: false, ..ExecPolicy::default() };
    let options = RunOptions { fuel: 200_000, ..RunOptions::default() };

    let mut total_physical = 0usize;
    let mut total_logical = 0usize;
    for src in comfort_corpus::training_corpus(6, 40) {
        let program = comfort_syntax::parse(&src).expect("corpus parses");
        let mut tracker_on = HealthTracker::new(&testbeds, 0);
        let mut tracker_off = HealthTracker::new(&testbeds, 0);
        let a = run_case_hardened(&program, &testbeds, &options, 1, &on, &mut tracker_on);
        let b = run_case_hardened(&program, &testbeds, &options, 1, &off, &mut tracker_off);
        assert_eq!(a.outcome, b.outcome, "outcome diverged on: {src}");
        assert_eq!(a.groups, b.groups, "quorum summary diverged on: {src}");
        assert_eq!(a.active_runs, b.active_runs);
        assert_eq!(b.active_runs, b.physical_runs, "dedup-off must run the full matrix");
        assert!(a.physical_runs <= a.active_runs);
        assert_eq!(a.physical_runs, a.classes);
        assert_eq!(tracker_on.reports(), tracker_off.reports(), "ledger diverged on: {src}");
        total_physical += a.physical_runs;
        total_logical += a.active_runs;
    }
    // The widest matrix (strict + legacy, 29 testbeds) shares less than the
    // bench matrix — each engine/version/mode key is distinct — but classing
    // must still drop a large fraction of executions.
    assert!(
        total_physical * 5 <= total_logical * 3,
        "classing should save at least 40% of executions on the corpus \
         ({total_physical} physical vs {total_logical} logical)"
    );
}

/// Classing soundness at the signature level: any two testbeds the
/// partition coalesces must produce byte-identical run signatures on that
/// chunk. This is the invariant the whole optimization rests on.
#[test]
fn classmates_produce_identical_signatures() {
    let config =
        CampaignConfig { include_strict: true, include_legacy: true, ..CampaignConfig::default() };
    let testbeds = testbeds_for(&config);
    let options = RunOptions { fuel: 200_000, ..RunOptions::default() };
    let mask = vec![true; testbeds.len()];
    let shareable = vec![true; testbeds.len()];
    for src in comfort_corpus::training_corpus(11, 30) {
        let program = comfort_syntax::parse(&src).expect("corpus parses");
        let chunk = comfort_engines::compile(&program);
        let classes = ExecutionClasses::compute(&chunk, &testbeds, &mask, &shareable);
        for (i, bed) in testbeds.iter().enumerate() {
            let rep = classes.rep(i);
            if rep == i {
                continue;
            }
            let mine = bed.run_compiled(&chunk, &options);
            let leaders = testbeds[rep].run_compiled(&chunk, &options);
            assert_eq!(
                comfort_core::differential::Signature::of(&mine.status, &mine.output),
                comfort_core::differential::Signature::of(&leaders.status, &leaders.output),
                "testbeds {i} and {rep} were classed together but diverged on: {src}"
            );
        }
    }
}

#[test]
fn forced_singletons_and_poisoned_footprints_disable_sharing() {
    let config = CampaignConfig::default();
    let testbeds = testbeds_for(&config);
    let n = testbeds.len();
    let mask = vec![true; n];

    // A poisoned footprint (e.g. eval in the program) yields the identity
    // partition regardless of shareability.
    let poisoned = comfort_engines::compile(
        &comfort_syntax::parse("var x = eval(\"1\"); print(x);").expect("parses"),
    );
    assert!(poisoned.footprint.is_poisoned());
    let classes = ExecutionClasses::compute(&poisoned, &testbeds, &mask, &vec![true; n]);
    assert_eq!(classes.class_count(), n);
    assert!((0..n).all(|i| classes.is_representative(i)));

    // A non-shareable slot stays a singleton even when a classmate exists.
    let clean = comfort_engines::compile(&comfort_syntax::parse("print(1 + 2);").expect("parses"));
    assert!(!clean.footprint.is_poisoned());
    let mut shareable = vec![true; n];
    shareable[0] = false;
    let classes = ExecutionClasses::compute(&clean, &testbeds, &mask, &shareable);
    assert!(classes.is_representative(0));
    assert!((0..n).all(|i| classes.rep(i) != 0 || i == 0), "no slot may reuse a singleton");

    // Masked-out slots neither run nor join classes.
    let mut masked = vec![true; n];
    masked[1] = false;
    let classes = ExecutionClasses::compute(&clean, &testbeds, &masked, &vec![true; n]);
    let sizes = classes.class_sizes(&masked);
    assert_eq!(sizes.iter().sum::<usize>(), n - 1);
    assert_eq!(classes.class_count(), sizes.len());
}

/// The full-matrix oracle for [`run_differential`]: every slot's own run,
/// voted with the legacy quorum.
fn full_matrix_outcome(
    program: &Program,
    testbeds: &[Testbed],
    options: &RunOptions,
) -> CaseOutcome {
    let chunk = compile(program);
    let signatures: Vec<Option<Signature>> = testbeds
        .iter()
        .map(|bed| {
            let r = bed.run_compiled(&chunk, options);
            Some(Signature::of(&r.status, &r.output))
        })
        .collect();
    vote_on_signatures_quorum(testbeds, &signatures, &QuorumPolicy::LEGACY).0
}

/// `run_differential` runs one representative per class; over the widest
/// matrix, with panic, garbage and transient chaos plans on some slots, it
/// must still vote exactly as the full matrix does. The programs are corpus
/// programs, their ECMA-guided mutants, and poisoned variants that run the
/// whole matrix.
#[test]
fn run_differential_matches_the_full_matrix_oracle() {
    let config =
        CampaignConfig { include_strict: true, include_legacy: true, ..CampaignConfig::default() };
    let mut testbeds = testbeds_for(&config);
    assert_eq!(testbeds.len(), 29, "the widest matrix");
    for (slot, plan) in [
        (1, FaultPlan::new(31).panic_rate(0.3)),
        (12, FaultPlan::new(32).garbage_rate(0.3)),
        (21, FaultPlan::new(33).transient_rate(0.4).transient_persistence(2)),
        (25, FaultPlan::new(34).panic_rate(0.1).garbage_rate(0.1).transient_rate(0.1)),
    ] {
        testbeds[slot] = testbeds[slot].clone().with_chaos(plan);
    }
    let options = RunOptions::with_fuel(200_000);

    let datagen = DataGen::new(comfort_ecma262::spec_db(), DataGenConfig::default());
    let mut rng = StdRng::seed_from_u64(0xC1A55);
    let mut next_id = 0u64;
    let mut programs: Vec<(String, Program)> = Vec::new();
    for (k, src) in comfort_corpus::training_corpus(8, 24).into_iter().enumerate() {
        let base = comfort_syntax::parse(&src).expect("corpus parses");
        if k < 8 {
            for case in datagen.mutate(&base, k as u64, &mut next_id, &mut rng) {
                programs.push((format!("mutant {} of corpus program {k}", case.id), case.program));
            }
            let poisoned = format!("var escape = eval;\n{src}");
            let program = comfort_syntax::parse(&poisoned).expect("poisoned variant parses");
            assert!(compile(&program).footprint.is_poisoned());
            programs.push((format!("poisoned corpus program {k}"), program));
        }
        programs.push((format!("corpus program {k}"), base));
    }
    assert!(programs.len() > 60, "too few programs to mean anything ({})", programs.len());

    let mut deviating = 0;
    for (label, program) in &programs {
        let classed = run_differential(program, &testbeds, &options);
        assert_eq!(
            classed,
            full_matrix_outcome(program, &testbeds, &options),
            "run_differential diverged from the full matrix on {label}"
        );
        deviating += usize::from(classed.is_deviating());
    }
    assert!(deviating > 0, "no program deviated: the oracle compared nothing but passes");
}

/// The partition as `relevant_behavior` keys it: the reference the bug
/// table must reproduce. Returns each slot's representative and the class
/// count.
fn reference_partition(
    chunk: &CompiledChunk,
    testbeds: &[Testbed],
    mask: &[bool],
    shareable: &[bool],
) -> (Vec<usize>, usize) {
    let mut rep: Vec<usize> = (0..testbeds.len()).collect();
    if chunk.footprint.is_poisoned() {
        return (rep, mask.iter().filter(|m| **m).count());
    }
    let mut classes = 0;
    let mut seen: Vec<(bool, Vec<BugBehavior<'_>>, usize)> = Vec::new();
    for (i, bed) in testbeds.iter().enumerate() {
        if !mask[i] {
            continue;
        }
        if !shareable[i] {
            classes += 1;
            continue;
        }
        let strict_sites = bed.strict || chunk.footprint.has_strict_sites();
        let key = bed.engine.relevant_behavior(&chunk.footprint, strict_sites);
        match seen.iter().find(|(strict, k, _)| *strict == bed.strict && *k == key) {
            Some((_, _, leader)) => rep[i] = *leader,
            None => {
                seen.push((bed.strict, key, i));
                classes += 1;
            }
        }
    }
    (rep, classes)
}

/// Chaos composition: with the first testbed wrapped in a seeded fault
/// plan, dedup must leave the deterministic report untouched and the event
/// stream untouched modulo its own `execution_deduped` events — at every
/// thread count.
#[test]
fn chaos_campaign_is_identical_with_dedup_on_and_off() {
    use comfort_telemetry::{Event, EventKind, MemorySink, SinkHandle};

    let chaos_config = |dedup: bool, sink: SinkHandle| CampaignConfig {
        seed: 2,
        corpus_programs: 80,
        lm: GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 },
        max_cases: 60,
        fuel: 200_000,
        shard_cases: 20,
        include_strict: false,
        include_legacy: false,
        reduce_cases: false,
        keep_invalid_fraction: 0.2,
        exec: ExecPolicy { quarantine_after: 2, probe_after: 3, dedup, ..ExecPolicy::default() },
        chaos: Some(ChaosConfig::on_first(
            FaultPlan::new(1005)
                .panic_rate(0.10)
                .hang_rate(0.05)
                .transient_rate(0.08)
                .hang_millis(1),
        )),
        sink,
        ..CampaignConfig::default()
    };
    let run = |dedup: bool, threads: usize| -> (Vec<Event>, CampaignReport) {
        let mem = MemorySink::new();
        let session = CampaignSession::new(chaos_config(dedup, SinkHandle::new(mem.clone())));
        let report = session.run_with_threads(threads).expect("fresh run is infallible");
        (mem.take(), report)
    };
    let det = |events: &[Event]| -> Vec<String> {
        events.iter().map(Event::to_json_deterministic).collect()
    };
    // The extra execution_deduped events consume (shard, seq) slots, so the
    // on/off comparison looks at the ordered deterministic *payloads* with
    // the per-stream clock prefix stripped.
    let without_dedup_events = |events: &[Event]| -> Vec<String> {
        events
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::ExecutionDeduped { .. }))
            .map(|e| {
                let json = e.to_json_deterministic();
                let idx = json.find("\"type\"").expect("event JSON has a type field");
                format!("{{{}", &json[idx..])
            })
            .collect()
    };

    let (e1, r1) = run(true, 1);
    let (e2, r2) = run(true, 2);
    let (e8, r8) = run(true, 8);
    assert_eq!(det(&e1), det(&e2), "dedup-on chaos streams diverged: threads 1 vs 2");
    assert_eq!(det(&e1), det(&e8), "dedup-on chaos streams diverged: threads 1 vs 8");
    assert_eq!(report_to_json_deterministic(&r1), report_to_json_deterministic(&r2));
    assert_eq!(report_to_json_deterministic(&r1), report_to_json_deterministic(&r8));

    let (eoff, roff) = run(false, 1);
    assert_eq!(report_to_json_deterministic(&r1), report_to_json_deterministic(&roff));
    assert_eq!(
        without_dedup_events(&e1),
        without_dedup_events(&eoff),
        "dedup may only add execution_deduped events, never reorder or drop others"
    );
    assert!(eoff.iter().all(|e| !matches!(e.kind, EventKind::ExecutionDeduped { .. })));
    // The chaotic campaign still found sharing on chaos-free slots.
    assert!(r1.metrics.executions_saved > 0);
    assert!(r1.metrics.faults_observed > 0, "the fault plan must actually fire");
    assert_eq!(r1.metrics.faults_observed, roff.metrics.faults_observed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The bug table keys exactly as `relevant_behavior` does: over all 102
    /// testbeds, with random masks and shareable flags, the partition of a
    /// random footprint is the reference partition. Footprints draw atoms
    /// from the catalog's API names (terminal segments and full names) and
    /// the special-hook atoms, with index stores and poisoning; one case in
    /// three instead compiles a `"use strict"` program mentioning the same
    /// atoms, so normal testbeds see strict sites too.
    #[test]
    fn table_partition_matches_the_relevant_behavior_partition(seed in 0u64..4000) {
        let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut pool: Vec<&'static str> = vec!["eval", "split", "defineProperty", "x"];
        for api in shared_catalog().iter().filter_map(|b| b.api) {
            pool.push(api);
            pool.push(api.rsplit('.').next().unwrap_or(api));
        }
        pool.sort_unstable();
        pool.dedup();
        let density = 1 + next() % 16; // one atom in `density`
        let atoms: Vec<&str> = pool.iter().copied().filter(|_| next() % density == 0).collect();
        let index_store = next() % 3 == 0;
        let poisoned = next() % 16 == 0;
        let chunk = if next() % 3 == 0 {
            let mut src = String::from("\"use strict\";\nvar o = {};\n");
            for atom in atoms.iter().filter(|a| !a.contains('.') && **a != "eval") {
                src.push_str(&format!("o.{atom};\n"));
            }
            if index_store {
                src.push_str("o[1] = 0;\n");
            }
            compile(&comfort_syntax::parse(&src).expect("generated source parses"))
        } else {
            let mut chunk = Arc::try_unwrap(compile(&comfort_syntax::parse("0;").expect("parses")))
                .expect("the only reference");
            chunk.footprint = ApiFootprint::from_parts(atoms, index_store, poisoned);
            Arc::new(chunk)
        };
        let testbeds = all_testbeds();
        let n = testbeds.len();
        let mask: Vec<bool> = (0..n).map(|_| next() % 5 != 0).collect();
        let shareable: Vec<bool> = (0..n).map(|_| next() % 6 != 0).collect();

        let classes = ExecutionClasses::compute(&chunk, &testbeds, &mask, &shareable);
        let (rep, count) = reference_partition(&chunk, &testbeds, &mask, &shareable);
        prop_assert_eq!(classes.class_count(), count);
        for (i, want) in rep.iter().enumerate() {
            prop_assert_eq!(classes.rep(i), *want, "slot {} ({})", i, testbeds[i].label());
        }
    }

    /// Footprint-relevance monotonicity: growing a footprint (more atoms,
    /// index stores, or poisoning) can only grow each engine's relevant-bug
    /// set — the conservative direction. A shrinking set could class two
    /// genuinely-divergent testbeds together.
    #[test]
    fn relevance_is_monotone_under_footprint_growth(seed in 0u64..2000) {
        const POOL: [&str; 12] = [
            "split", "eval", "defineProperty", "reverse", "push", "toFixed",
            "charAt", "slice", "sort", "replace", "parse", "exec",
        ];
        let mut rng = seed;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        let small: Vec<&str> =
            POOL.iter().copied().filter(|_| next() % 3 == 0).collect();
        let mut large = small.clone();
        large.extend(POOL.iter().copied().filter(|_| next() % 2 == 0));
        let small_fp = ApiFootprint::from_parts(small, next() % 4 == 0, false);
        let large_fp = ApiFootprint::from_parts(large, true, next() % 5 == 0);
        let poisoned = ApiFootprint::poisoned_all();

        for bed in testbeds_for(&CampaignConfig {
            include_strict: true,
            include_legacy: true,
            ..CampaignConfig::default()
        }) {
            let lo = bed.engine.relevant_bugs(&small_fp);
            let hi = bed.engine.relevant_bugs(&large_fp);
            let all = bed.engine.relevant_bugs(&poisoned);
            prop_assert!(
                lo.iter().all(|id| hi.contains(id)),
                "bug set shrank when the footprint grew ({})", bed.label()
            );
            prop_assert!(hi.iter().all(|id| all.contains(id)));
        }
    }

    /// Random-footprint partitions are well-formed: representatives are the
    /// lowest index of their class, class sizes cover the mask exactly, and
    /// classmates share the (strict, relevant-behaviour) key — bug *ids*
    /// may differ across a class, because behaviourally identical bugs of
    /// different engines merge.
    #[test]
    fn random_partitions_are_well_formed(seed in 0u64..1500) {
        let src = comfort_corpus::training_corpus(seed, 1).remove(0);
        let program = comfort_syntax::parse(&src).expect("corpus parses");
        let chunk = comfort_engines::compile(&program);
        let testbeds = testbeds_for(&CampaignConfig {
            include_strict: true,
            ..CampaignConfig::default()
        });
        let n = testbeds.len();
        let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut bits = |i: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            rng >> 62 != 0 // true 3/4 of the time
        };
        let mask: Vec<bool> = (0..n as u64).map(&mut bits).collect();
        let shareable: Vec<bool> = (0..n as u64).map(|i| bits(i + 64)).collect();

        let classes = ExecutionClasses::compute(&chunk, &testbeds, &mask, &shareable);
        let masked_in = mask.iter().filter(|m| **m).count();
        prop_assert_eq!(classes.class_sizes(&mask).iter().sum::<usize>(), masked_in);
        prop_assert_eq!(classes.class_sizes(&mask).len(), classes.class_count());
        for i in 0..n {
            let rep = classes.rep(i);
            if !mask[i] {
                prop_assert_eq!(rep, i, "masked-out slot joined a class");
                continue;
            }
            prop_assert!(rep <= i, "representative must be the lowest index");
            prop_assert!(classes.is_representative(rep));
            if rep != i {
                prop_assert!(mask[rep] && shareable[rep] && shareable[i]);
                prop_assert_eq!(testbeds[i].strict, testbeds[rep].strict);
                let strict_sites =
                    testbeds[i].strict || chunk.footprint.has_strict_sites();
                prop_assert_eq!(
                    testbeds[i].engine.relevant_behavior(&chunk.footprint, strict_sites),
                    testbeds[rep].engine.relevant_behavior(&chunk.footprint, strict_sites)
                );
            }
        }
    }
}
