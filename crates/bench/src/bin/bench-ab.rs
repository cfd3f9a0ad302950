//! `bench-ab` — measures a change against its parent on perfbench, writes
//! every raw value to `BENCH_<n>.json` and applies `bench-diff`'s gate.
//!
//! ```text
//! cargo run --release -p comfort-bench --bin bench-ab -- \
//!     --parent REV [--change REV] --seed N --out BENCH_<n>.json [--claim METRIC@WORKLOAD]
//! ```
//!
//! Run from the repository root; `--change` defaults to `HEAD`. Each
//! revision is `git archive`d into `target/bench-ab/parent` or
//! `target/bench-ab/change`, and each tree builds its perfbench once in its
//! own directory, where its runs leave `.perfbench/`. Then, for every
//! workload of `BENCHMARK.json`, it runs `PAIRS` pairs of untraced runs, the
//! parent first in even pairs and the change first in odd ones, and one
//! `--trace 1` run per tree. Exit codes as `bench-diff`.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use comfort_bench::ab::{gate, Benchmark, Output, Record, Side, WorkloadRecord, PAIRS};

/// Where the trees go. The two directory names have one length: paths end
/// up inside the binaries and shift their layout, and a change built at a
/// longer path than its parent's has measured a few percent slower.
const TREES: [&str; 2] = ["target/bench-ab/parent", "target/bench-ab/change"];

struct Args {
    parent: String,
    change: String,
    seed: u64,
    out: String,
    claim: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut parent, mut change, mut seed, mut out, mut claim) = (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?.clone();
        match flag.as_str() {
            "--parent" => parent = Some(value),
            "--change" => change = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--out" => out = Some(value),
            "--claim" => claim = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        parent: parent.ok_or("--parent is required")?,
        change: change.unwrap_or_else(|| "HEAD".to_string()),
        seed: seed.ok_or("--seed is required")?,
        out: out.ok_or("--out is required")?,
        claim,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench-ab: {e}");
            eprintln!(
                "usage: bench-ab --parent REV [--change REV] --seed N --out BENCH_<n>.json \
                 [--claim METRIC@WORKLOAD]"
            );
            return ExitCode::from(2);
        }
    };
    let measured = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| Benchmark::parse(&text))
        .and_then(|bench| {
            let record = measure(&args, &bench)?;
            std::fs::write(&args.out, record.to_json() + "\n")
                .map_err(|e| format!("{}: {e}", args.out))?;
            Ok(gate(&record, &bench))
        });
    match measured {
        Ok(judgement) => {
            eprintln!("bench-ab: wrote {}", args.out);
            print!("{}", judgement.table);
            if judgement.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench-ab: {e}");
            ExitCode::from(2)
        }
    }
}

/// Extracts and builds both trees, then runs every workload's pairs and
/// traced runs.
fn measure(args: &Args, bench: &Benchmark) -> Result<Record, String> {
    if let Some(claim) = &args.claim {
        bench.claim(claim)?;
    }
    let mut commits = [String::new(), String::new()];
    for (side, rev) in [&args.parent, &args.change].into_iter().enumerate() {
        let (commit, dir) = (commit_of(rev)?, TREES[side]);
        extract(&commit, Path::new(dir))?;
        eprintln!("bench-ab: building perfbench of {commit} in {dir}");
        let built = in_tree("cargo", dir)
            .args(["build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"])
            .status()
            .map_err(|e| format!("cargo: {e}"))?;
        if !built.success() {
            return Err(format!("building perfbench in {dir} failed"));
        }
        commits[side] = commit;
    }
    let mut nproc = 0;
    let mut workloads = Vec::new();
    for name in &bench.workloads {
        let mut outputs = [Vec::new(), Vec::new()];
        for pair in 0..PAIRS {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let out = perfbench(bench, TREES[side], name, args.seed, false)?;
                eprintln!("bench-ab: {name} pair {}/{PAIRS} ran in {}", pair + 1, TREES[side]);
                nproc = out.nproc;
                outputs[side].push(out);
            }
        }
        let [parent_traced, change_traced] =
            TREES.map(|dir| perfbench(bench, dir, name, args.seed, true));
        let [parent, change] = outputs;
        workloads.push(WorkloadRecord {
            name: name.clone(),
            parent: Side::new(parent, parent_traced?.run),
            change: Side::new(change, change_traced?.run),
        });
    }
    let [parent, change] = commits;
    Ok(Record { parent, change, seed: args.seed, claim: args.claim.clone(), nproc, workloads })
}

/// Replaces `dir` with the tree of `commit`.
fn extract(commit: &str, dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut archive = Command::new("git")
        .args(["archive", commit])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let stdout = archive.stdout.take().expect("git archive's stdout is piped");
    let untar = Command::new("tar").arg("-x").arg("-C").arg(dir).stdin(stdout).status();
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    match untar {
        Ok(status) if status.success() && archived.success() => Ok(()),
        _ => Err(format!("cannot extract {commit} into {}", dir.display())),
    }
}

/// One perfbench run in `dir` with the benchmark's command and run length.
fn perfbench(
    bench: &Benchmark,
    dir: &str,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<Output, String> {
    let (program, args) = bench.command.split_first().ok_or("BENCHMARK.json: empty command")?;
    let seconds = bench.run_seconds.to_string();
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    let output = in_tree(program, dir)
        .args(args)
        .args(["--workload", workload, "--seed", &seed, "--seconds", &seconds, "--trace", trace])
        .output()
        .map_err(|e| format!("{program}: {e}"))?;
    Output::parse(&String::from_utf8_lossy(&output.stdout)).map_err(|e| {
        let stderr = String::from_utf8_lossy(&output.stderr);
        format!("{workload} in {dir} ({}): {e}\n{stderr}", output.status)
    })
}

/// `program` in `dir`, so that cargo builds into that tree's own target
/// directories.
fn in_tree(program: &str, dir: &str) -> Command {
    let mut command = Command::new(program);
    command.current_dir(dir).env_remove("CARGO_TARGET_DIR").env_remove("CARGO_BUILD_TARGET_DIR");
    command
}

/// The full hash of the commit `rev` names.
fn commit_of(rev: &str) -> Result<String, String> {
    let out = Command::new("git")
        .args(["rev-parse", "--verify", &format!("{rev}^{{commit}}")])
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!("{rev}: {}", String::from_utf8_lossy(&out.stderr).trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}
