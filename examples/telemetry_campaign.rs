//! Campaign observability demo: run a small sharded campaign with a
//! `JsonlSink`, poll the live `ProgressHandle` from another thread (to
//! stderr), then validate the JSONL stream and reconcile the metrics with
//! the campaign report and every counter an event records with its events.
//! Exits nonzero on any mismatch, so CI can run it as an end-to-end
//! telemetry check; its stdout is the same on every run.
//!
//! ```text
//! cargo run --release --example telemetry_campaign
//! ```

use comfort::prelude::*;
use comfort::telemetry::json;

fn main() {
    let jsonl_path = std::env::temp_dir().join("comfort_telemetry_campaign.jsonl");
    let sink = JsonlSink::create(&jsonl_path).expect("create JSONL file");

    let config = CampaignConfig::builder()
        .seed(2)
        .corpus_programs(80)
        .max_cases(30)
        .include_strict(false)
        .include_legacy(false)
        .reduce_cases(false)
        .shard_cases(10) // 3 shards
        .threads(0)
        .sink(SinkHandle::new(sink.clone()))
        .build()
        .expect("valid config");

    println!("running a 30-case campaign, streaming events to {}…", jsonl_path.display());
    let session = CampaignSession::new(config);
    let progress = session.progress();

    let report = std::thread::scope(|scope| {
        let runner = scope.spawn(|| session.run_with_threads(0).expect("fresh run"));
        // Poll the live progress handle while the campaign runs. How many
        // polls land depends on timing, so they go to stderr and stdout
        // stays the same from run to run.
        loop {
            let snap = progress.snapshot();
            eprintln!(
                "  progress: {}/{} cases, {} bugs, {}/{} shards done",
                snap.cases_done,
                snap.total_cases,
                snap.bugs_found,
                snap.shards_done,
                snap.shards.len()
            );
            if runner.is_finished() {
                break runner.join().expect("campaign thread panicked");
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    });
    sink.flush().expect("flush JSONL");

    // Validate: every line parses as JSON, clocks arrive in logical order.
    let text = std::fs::read_to_string(&jsonl_path).expect("read JSONL");
    let mut last_clock = (-1i64, -1i64);
    let mut counted = std::collections::BTreeMap::new();
    // Kept invalid programs, and the execution_deduped field totals.
    let (mut kept, mut saved, mut classes) = (0u64, 0u64, 0u64);
    for (i, line) in text.lines().enumerate() {
        let value = json::parse(line).unwrap_or_else(|e| {
            eprintln!("line {} is not valid JSON ({e}): {line}", i + 1);
            std::process::exit(1);
        });
        let shard = value.get("shard").and_then(|v| v.as_i64()).expect("shard field");
        let seq = value.get("seq").and_then(|v| v.as_i64()).expect("seq field");
        // The merge pseudo-shard (-1) flushes after every real shard.
        let ordinal = if shard < 0 { i64::MAX } else { shard };
        check(
            (ordinal, seq) > last_clock,
            &format!("clock ({shard},{seq}) arrived out of logical order"),
        );
        last_clock = (ordinal, seq);
        let kind = value.get("type").and_then(|v| v.as_str()).expect("type field").to_string();
        let field = |name: &str| value.get(name).expect("event field");
        match kind.as_str() {
            "case_rejected" => kept += u64::from(field("kept").as_bool().expect("bool")),
            "execution_deduped" => {
                saved += field("saved").as_u64().expect("u64");
                classes += field("classes").as_u64().expect("u64");
            }
            _ => {}
        }
        *counted.entry(kind).or_insert(0u64) += 1;
    }
    println!("\n{} JSONL events, all valid:", text.lines().count());
    for (kind, n) in &counted {
        println!("  {kind:<18} {n}");
    }

    // Reconcile the event stream and the embedded metrics with the report.
    let m = &report.metrics;
    check(m.cases_run == report.cases_run, "metrics.cases_run == report.cases_run");
    check(m.bugs_reported == report.bugs.len() as u64, "metrics.bugs_reported == bugs");
    check(m.bugs_deduped == report.duplicates_filtered, "metrics.bugs_deduped == duplicates");
    check(
        m.deviations_observed == report.deviations_observed,
        "metrics.deviations_observed == report.deviations_observed",
    );
    let events = |kind: &str| counted.get(kind).copied().unwrap_or(0);
    check(
        events("case_generated") == m.cases_generated,
        "case_generated events == cases_generated",
    );
    check(events("case_rejected") == m.cases_rejected, "case_rejected events == cases_rejected");
    check(
        events("differential_run") + kept == m.cases_run,
        "differential_run + kept case_rejected events == cases_run",
    );
    check(events("deviation") == m.deviations_observed, "deviation events == deviations_observed");
    check(events("bug_deduped") == m.bugs_deduped, "bug_deduped events == bugs_deduped");
    check(saved == m.executions_saved, "execution_deduped saved == executions_saved");
    check(classes == m.equivalence_classes, "execution_deduped classes == equivalence_classes");
    check(events("shard_started") == m.shards, "one start per shard");

    println!("\nper-stage metrics:\n{}", m.to_json());
    println!(
        "\nreport: {} cases, {} unique bugs, {} duplicates filtered — telemetry reconciles ✓",
        report.cases_run,
        report.bugs.len(),
        report.duplicates_filtered
    );
}

fn check(ok: bool, what: &str) {
    if !ok {
        eprintln!("telemetry mismatch: {what}");
        std::process::exit(1);
    }
}
