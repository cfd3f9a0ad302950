//! `bench-diff` — renders a recorded perfbench A/B (`BENCH_<n>.json`) and
//! applies the gate to it.
//!
//! ```text
//! cargo run --release -p comfort-bench --bin bench-diff -- BENCH_<n>.json
//! ```
//!
//! Run from the repository root: the metrics' directions and bounds come
//! from `BENCHMARK.json` there. Exit codes: `0` the gate passes, `1` it
//! fails, `2` usage or I/O error.

use std::process::ExitCode;

use comfort_bench::ab::{gate, Benchmark, Record};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: bench-diff BENCH_<n>.json");
        return ExitCode::from(2);
    };
    let (bench, record) = match load(path) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let judgement = gate(&record, &bench);
    print!("{}", judgement.table);
    if judgement.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<(Benchmark, Record), String> {
    let read = |file: &str| std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"));
    let bench = Benchmark::parse(&read("BENCHMARK.json")?)?;
    let record = Record::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    Ok((bench, record))
}
