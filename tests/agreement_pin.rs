//! Pin for agreement classing: over the evaluator golden file's inputs (the
//! 120 corpus seeds and the ECMA-guided mutants of seeds 0..24) on all 102
//! testbeds, each slot a run serves must read exactly the result its own
//! run gives (status, output and fuel), each run that carries peers must
//! equal its testbed's plain run, and the number of physical runs is pinned.
//!
//! A run stands for every peer that answered its hook queries alike, so a
//! change to what a profile answers, to which queries the interpreter asks
//! or to how representatives pick their peers shows up here as a differing
//! result or a moved count.

use std::sync::Arc;

use comfort::core::datagen::{DataGen, DataGenConfig};
use comfort::core::differential::{execute_classed, ExecutionClasses};
use comfort::engines::{
    all_testbeds, run_isolated_compiled, EngineName, IsolatedRun, IsolationPolicy, RetryPolicy,
    Testbed,
};
use comfort::interp::{compile, CompiledChunk, RunOptions};
use comfort::syntax::{parse, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Physical runs agreement classing makes over the golden inputs on all
/// 102 testbeds (64,158 logical runs).
const PHYSICAL_RUNS: usize = 1_887;

/// The fuel budget of every run (the golden file's full-run budget).
const FUEL: u64 = 300_000;

fn corpus_program(seed: u64) -> Program {
    let src = comfort::corpus::training_corpus(seed, 1).remove(0);
    parse(&src).expect("corpus parses")
}

fn golden_chunks() -> Vec<Arc<CompiledChunk>> {
    let mut chunks: Vec<_> = (0..120u64).map(|seed| compile(&corpus_program(seed))).collect();
    let datagen = DataGen::new(comfort::ecma262::spec_db(), DataGenConfig::default());
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut next_id = 0u64;
    for seed in 0..24u64 {
        for case in datagen.mutate(&corpus_program(seed), seed, &mut next_id, &mut rng) {
            chunks.push(compile(&case.program));
        }
    }
    chunks
}

/// Agreement classing of `chunk` over every slot of `testbeds`.
fn classed(
    chunk: &Arc<CompiledChunk>,
    testbeds: &[Testbed],
    options: &RunOptions,
) -> (ExecutionClasses, Vec<Option<IsolatedRun>>) {
    let mask = vec![true; testbeds.len()];
    execute_classed(
        chunk,
        testbeds,
        &mask,
        true,
        |_| false,
        |bed, peers| {
            Some(run_isolated_compiled(
                bed,
                peers,
                chunk,
                options,
                &IsolationPolicy::default(),
                &RetryPolicy::default(),
            ))
        },
    )
    .expect("nothing cancels")
}

#[test]
fn every_served_slot_reads_its_own_run() {
    let testbeds = all_testbeds();
    let options = RunOptions::with_fuel(FUEL);
    let chunks = golden_chunks();
    assert_eq!(chunks.len(), 629, "the golden programs");
    let mut physical = 0;
    for (c, chunk) in chunks.iter().enumerate() {
        let (classes, runs) = classed(chunk, &testbeds, &options);
        physical += classes.class_count();
        for (i, bed) in testbeds.iter().enumerate() {
            let rep = classes.rep(i);
            let run = runs[rep].as_ref().expect("representatives run");
            assert!(rep <= i, "slot {i} is served by a later slot {rep}");
            assert_eq!(testbeds[rep].strict, bed.strict, "a run served the other mode");
            assert_eq!(
                run.result,
                bed.run_compiled(chunk, &options),
                "program {c}: slot {i} ({}) read slot {rep}'s run ({})",
                bed.label(),
                testbeds[rep].label()
            );
        }
    }
    eprintln!("{physical} physical runs for {} logical", chunks.len() * testbeds.len());
    assert_eq!(physical, PHYSICAL_RUNS);
}

#[test]
fn figure2_rhino_testbeds_are_served_by_rhino_alone() {
    let program = parse("var s = 'Name: Albert'; var len = undefined; print(s.substr(6, len));")
        .expect("parses");
    let chunk = compile(&program);
    let testbeds = all_testbeds();
    let (classes, runs) = classed(&chunk, &testbeds, &RunOptions::with_fuel(FUEL));
    let rhino = |i: usize| testbeds[i].engine.name() == EngineName::Rhino;
    let mut buggy = 0;
    for i in (0..testbeds.len()).filter(|&i| rhino(i)) {
        let rep = classes.rep(i);
        assert!(rhino(rep), "{} is served by {}", testbeds[i].label(), testbeds[rep].label());
        let output = &runs[rep].as_ref().expect("representatives run").result.output;
        buggy += usize::from(output == "\n");
    }
    assert!(buggy > 0, "no Rhino testbed shows the seeded substr bug");
    // The conforming majority still shares: far fewer runs than testbeds.
    assert!(classes.class_count() < testbeds.len() / 4, "{} runs", classes.class_count());
}
