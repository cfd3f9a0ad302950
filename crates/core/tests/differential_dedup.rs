//! Integration tests for execution dedup by agreement classing: a run
//! standing for every peer that answered its hook queries alike must be a
//! pure execution-count optimization — every outcome, signature, health
//! ledger, report, and (modulo the `execution_deduped` events themselves)
//! telemetry stream is bit-identical to the full matrix, at every thread
//! count, with or without chaos. Forced singletons must neither serve nor
//! be served, and `run_differential` (the reduction and attribution oracle)
//! must vote exactly as the full matrix would.

use comfort_core::campaign::{testbeds_for, CampaignConfig, CampaignReport};
use comfort_core::checkpoint::{report_checksum, report_to_json_deterministic};
use comfort_core::datagen::{DataGen, DataGenConfig};
use comfort_core::differential::{
    execute_classed, run_differential, vote_on_signatures_quorum, CaseOutcome, QuorumPolicy,
    Signature,
};
use comfort_core::resilience::{run_case_hardened, ChaosConfig, ExecPolicy, HealthTracker};
use comfort_core::session::CampaignSession;
use comfort_engines::{
    compile, run_isolated_compiled, FaultPlan, IsolationPolicy, RetryPolicy, RunOptions, Testbed,
};
use comfort_lm::GeneratorConfig;
use comfort_syntax::Program;
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

/// A half-open probe and a slot with a pending chaos fault are forced
/// singletons: each runs alone and serves no other slot, while the slots
/// around them still share. Dedup off runs every masked-in slot alone.
#[test]
fn forced_singletons_neither_serve_nor_are_served() {
    let config = CampaignConfig { include_strict: true, ..CampaignConfig::default() };
    let mut testbeds = testbeds_for(&config);
    let n = testbeds.len();
    let program = comfort_syntax::parse("print(1 + 2);").expect("parses");
    let chunk = compile(&program);
    // A garbage fault pending on every chunk: the run completes with
    // corrupted output and no observed fault, the case a shared run would
    // hide.
    let faulty = 3;
    testbeds[faulty] = testbeds[faulty].clone().with_chaos(FaultPlan::new(7).garbage_rate(1.0));
    assert!(testbeds[faulty].has_pending_fault(&chunk));
    let probe = 1;
    let mut mask = vec![true; n];
    mask[5] = false;
    let options = RunOptions::with_fuel(100_000);
    let classify = |dedup: bool| {
        execute_classed(
            &chunk,
            &testbeds,
            &mask,
            dedup,
            |i| i == probe,
            |bed, peers| {
                Some(run_isolated_compiled(
                    bed,
                    peers,
                    &chunk,
                    &options,
                    &IsolationPolicy::default(),
                    &RetryPolicy::default(),
                ))
            },
        )
        .expect("nothing cancels")
    };

    let (classes, runs) = classify(true);
    for single in [probe, faulty] {
        assert!(classes.is_representative(single), "slot {single} was served");
        assert!(runs[single].as_ref().expect("it ran").agreed.is_empty());
        assert!(
            (0..n).all(|i| i == single || classes.rep(i) != single),
            "slot {single} served another slot"
        );
    }
    assert!(runs[5].is_none() && classes.is_representative(5), "a masked-out slot ran");
    let served = (0..n).filter(|&i| mask[i] && !classes.is_representative(i)).count();
    assert!(served > 0, "the conforming slots around the singletons share");
    assert_eq!(classes.class_count(), runs.iter().flatten().count());
    assert_eq!(classes.class_count() + served, n - 1);

    let (identity, runs) = classify(false);
    assert_eq!(identity.class_count(), n - 1);
    assert!((0..n).all(|i| identity.is_representative(i)));
    assert!(runs.iter().flatten().all(|run| run.agreed.is_empty()));
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

/// `run_differential` runs each representative with its peers; over the
/// widest matrix, with panic, garbage and transient chaos plans on some
/// slots, it must still vote exactly as the full matrix does. The programs
/// are corpus programs, their ECMA-guided mutants, and variants that alias
/// `eval`.
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
