//! Allocation budget of a physical run: the mean number of allocator calls
//! one testbed run makes over the evaluator golden file's inputs (the 120
//! corpus seeds and the ECMA-guided mutants of seeds 0..24, as
//! `agreement_pin.rs` builds them) on every latest testbed, plain and
//! carrying the nine other latest testbeds as peers (the path every
//! differential step takes), and the count for the empty program.
//!
//! A run's cost bounds the differential step's throughput, and most of its
//! allocations were interpreter overhead rather than program work: copied
//! name keys, builtin-site previews no seeded bug reads, argument vectors,
//! unreachable `arguments` objects, error-object keys. The budget keeps
//! that overhead from creeping back.
//!
//! The counting allocator keeps thread-local counters, so the tests of this
//! binary may run in parallel, and each thread runs one program before it
//! counts, so the once-per-thread builtins install is not charged to a run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use comfort::core::datagen::{DataGen, DataGenConfig};
use comfort::engines::{
    latest_testbeds, run_isolated_compiled, IsolationPolicy, RetryPolicy, Testbed,
};
use comfort::interp::{compile, CompiledChunk, RunOptions};
use comfort::syntax::{parse, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The most allocator calls a run may make, on average over the inputs.
const MEAN_BUDGET: f64 = 60.0;

/// The most allocator calls a run of the empty program may make.
const EMPTY_BUDGET: u64 = 4;

/// The most allocator calls a run of each [`ARRAY_LOOPS`] program may make.
const ARRAY_LOOP_BUDGET: u64 = 100;

/// Array builtins called 2,000 times on one array or over 2,000 elements:
/// a builtin that copied the element vector per call or per element would
/// spend thousands of allocations here.
const ARRAY_LOOPS: [&str; 2] = [
    "var a = [];\nfor (var i = 0; i < 2000; i++) {\n  a.push(i);\n}\nprint(a.length);\n",
    "var a = new Array(2000).fill(1);\nvar b = a.map(Math.abs);\nprint(b.length, b[1999]);\n",
];

/// The fuel budget of every run (the golden file's full-run budget).
const FUEL: u64 = 300_000;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls on the calling thread.
struct Counting;

impl Counting {
    fn count() {
        // `try_with` fails only while the thread is tearing down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` unchanged; counting touches a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

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

/// Runs `chunks` on every latest testbed, each carrying the other latest
/// testbeds as peers when `with_peers` is set; returns each run's
/// allocations.
fn per_run_allocations(chunks: &[Arc<CompiledChunk>], with_peers: bool) -> Vec<u64> {
    let testbeds = latest_testbeds();
    let options = RunOptions::with_fuel(FUEL);
    // Warm-up: the first run on a thread installs the builtins world.
    testbeds[0].run_compiled(&compile(&parse("print(1);").expect("parses")), &options);
    let peers: Vec<Vec<&Testbed>> = (0..testbeds.len())
        .map(|k| {
            let others = testbeds.iter().enumerate().filter(|&(j, _)| with_peers && j != k);
            others.map(|(_, bed)| bed).collect()
        })
        .collect();
    let (isolation, retry) = (IsolationPolicy::default(), RetryPolicy::default());
    let mut counts = Vec::with_capacity(chunks.len() * testbeds.len());
    for chunk in chunks {
        for (bed, peers) in testbeds.iter().zip(&peers) {
            let before = allocations();
            let run = run_isolated_compiled(bed, peers, chunk, &options, &isolation, &retry);
            drop(run);
            counts.push(allocations() - before);
        }
    }
    counts
}

fn assert_mean_within_budget(counts: &[u64], what: &str) {
    assert_eq!(counts.len(), 6_290, "629 golden programs on the 10 latest testbeds");
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    eprintln!("{mean:.2} allocations per {what} over {} runs", counts.len());
    assert!(mean <= MEAN_BUDGET, "{mean:.1} allocations per {what}, budget {MEAN_BUDGET}");
}

#[test]
fn golden_runs_stay_within_the_mean_allocation_budget() {
    assert_mean_within_budget(&per_run_allocations(&golden_chunks(), false), "run");
}

#[test]
fn golden_runs_carrying_peers_stay_within_the_mean_allocation_budget() {
    assert_mean_within_budget(&per_run_allocations(&golden_chunks(), true), "run with peers");
}

#[test]
fn the_empty_program_stays_within_its_allocation_budget() {
    let counts = per_run_allocations(&[compile(&parse("").expect("parses"))], false);
    eprintln!("empty program: {counts:?} allocations per run");
    assert!(
        counts.iter().all(|&n| n <= EMPTY_BUDGET),
        "empty-program runs allocate {counts:?}, budget {EMPTY_BUDGET}"
    );
}

#[test]
fn array_loops_stay_within_their_allocation_budget() {
    let counts: Vec<Vec<u64>> = ARRAY_LOOPS
        .iter()
        .map(|src| per_run_allocations(&[compile(&parse(src).expect("parses"))], false))
        .collect();
    for (src, counts) in ARRAY_LOOPS.iter().zip(&counts) {
        eprintln!("{src:?}: {counts:?} allocations per run");
    }
    for (src, counts) in ARRAY_LOOPS.iter().zip(&counts) {
        assert!(
            counts.iter().all(|&n| n <= ARRAY_LOOP_BUDGET),
            "{src:?} allocates {counts:?} per run, budget {ARRAY_LOOP_BUDGET}"
        );
    }
}
