//! Criterion benches for the engine substrate: interpreter throughput on
//! the workload classes the campaign executes constantly.
//!
//! Each source is compiled once outside the timed loop (the campaign's
//! compile-once contract) and the bench times `run_chunk` — the per-testbed
//! execution the matrix repeats. `frontend.rs` covers the parse side;
//! `compile_corpus` here covers the chunk build.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use comfort_interp::{compile, hooks::SpecProfile, run_chunk, CompiledChunk, RunOptions};

fn chunk(src: &str) -> Arc<CompiledChunk> {
    compile(&comfort_syntax::parse(src).expect("bench source parses"))
}

fn run(chunk: &Arc<CompiledChunk>) {
    let r = run_chunk(black_box(chunk), &SpecProfile, &RunOptions::default());
    black_box(r.output);
}

const FIB: &str = "function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); } print(fib(18));";
const STRINGS: &str = "var s = 'Name: Albert'; var t = ''; for (var i = 0; i < 50; i++) { t = s.substr(3, 6).toUpperCase().split(':').join('-'); } print(t);";
const ARRAYS: &str = "var a = []; for (var i = 0; i < 200; i++) a.push(i); print(a.filter(function(x){return x % 3 === 0;}).map(function(x){return x * 2;}).reduce(function(p, q){return p + q;}, 0));";
const REGEX: &str = "var s = 'a1b22c333d'; for (var i = 0; i < 20; i++) { s.split(/[0-9]+/); s.replace(/[a-z]/g, '#'); } print(s.length);";
const JSON_RT: &str = "var o = {a: [1, 2, 3], b: 'text', c: {d: true}}; for (var i = 0; i < 20; i++) { JSON.parse(JSON.stringify(o)); } print('ok');";

fn bench_interp(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp");
    let cases = [
        ("startup_and_trivial", chunk("print(1);")),
        ("fib_18", chunk(FIB)),
        ("string_apis", chunk(STRINGS)),
        ("array_pipeline", chunk(ARRAYS)),
        ("regex_split_replace", chunk(REGEX)),
        ("json_roundtrip", chunk(JSON_RT)),
    ];
    for (name, ch) in &cases {
        group.bench_function(name, |b| {
            b.iter(|| run(ch));
        });
    }
    // Compile cost in isolation — paid once per case, not per testbed.
    group.bench_function("compile_corpus", |b| {
        let programs: Vec<_> = comfort_corpus::training_corpus(6, 4)
            .iter()
            .map(|src| comfort_syntax::parse(src).expect("corpus parses"))
            .collect();
        b.iter(|| {
            for p in &programs {
                black_box(compile(black_box(p)));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
