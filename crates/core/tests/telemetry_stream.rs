//! Integration tests for the campaign observability layer: the event-stream
//! determinism contract (logical streams identical at every thread count),
//! metrics/report reconciliation, and live-progress monotonicity.

use comfort_core::campaign::CampaignConfig;
use comfort_core::session::CampaignSession;
use comfort_lm::GeneratorConfig;
use comfort_telemetry::{Event, EventKind, MemorySink, SinkHandle, Stage};

fn telemetry_config(sink: SinkHandle) -> CampaignConfig {
    CampaignConfig::builder()
        .seed(2)
        .corpus_programs(80)
        .lm(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 })
        .max_cases(60)
        .fuel(200_000)
        .include_strict(false)
        .include_legacy(false)
        .reduce_cases(false)
        .keep_invalid_fraction(0.2)
        .shard_cases(20) // 3 shards
        .sink(sink)
        .build()
        .expect("valid test config")
}

fn run_and_capture(threads: usize) -> (Vec<Event>, comfort_core::campaign::CampaignReport) {
    let mem = MemorySink::new();
    let session = CampaignSession::new(telemetry_config(SinkHandle::new(mem.clone())));
    let report = session.run_with_threads(threads).expect("fresh run is infallible");
    (mem.take(), report)
}

#[test]
fn event_streams_identical_across_thread_counts() {
    let (e1, r1) = run_and_capture(1);
    let (e2, r2) = run_and_capture(2);
    let (e8, r8) = run_and_capture(8);
    assert_eq!(r1.cases_run, 60);
    assert_eq!(r1.bugs.len(), r2.bugs.len());
    assert_eq!(r1.bugs.len(), r8.bugs.len());
    assert!(!e1.is_empty(), "an instrumented campaign must emit events");

    // The *logical* streams (everything except wall-clock durations) must be
    // identical, event for event and in the same order, at every width.
    let det = |events: &[Event]| -> Vec<String> {
        events.iter().map(Event::to_json_deterministic).collect()
    };
    assert_eq!(det(&e1), det(&e2), "threads 1 vs 2");
    assert_eq!(det(&e1), det(&e8), "threads 1 vs 8");
}

#[test]
fn event_stream_arrives_in_logical_clock_order() {
    let (events, _) = run_and_capture(8);
    // Shard-major, then sequence: exactly the order a serial run produces.
    let clocks: Vec<(u64, u64)> = events.iter().map(|e| (e.clock.shard, e.clock.seq)).collect();
    let mut sorted = clocks.clone();
    sorted.sort();
    assert_eq!(clocks, sorted, "sink must observe events in (shard, seq) order");
    // Per-shard sequences are gapless from zero.
    let mut expected_seq = std::collections::HashMap::new();
    for (shard, seq) in clocks {
        let next = expected_seq.entry(shard).or_insert(0u64);
        assert_eq!(seq, *next, "shard {shard} skipped a sequence number");
        *next += 1;
    }
}

#[test]
fn metrics_reconcile_with_report_and_events() {
    let (events, report) = run_and_capture(4);
    let m = &report.metrics;

    // Metrics ↔ report reconciliation (exact, not approximate).
    assert_eq!(m.cases_run, report.cases_run);
    assert_eq!(m.deviations_observed, report.deviations_observed);
    assert_eq!(m.bugs_reported, report.bugs.len() as u64);
    assert_eq!(m.bugs_deduped, report.duplicates_filtered);
    assert_eq!(m.shards, 3);

    // Metrics ↔ event-stream reconciliation.
    let count =
        |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count() as u64;
    assert_eq!(count(&|k| matches!(k, EventKind::CaseGenerated { .. })), m.cases_generated);
    assert_eq!(count(&|k| matches!(k, EventKind::CaseRejected { .. })), m.cases_rejected);
    assert_eq!(count(&|k| matches!(k, EventKind::Deviation { .. })), m.deviations_observed);
    assert_eq!(count(&|k| matches!(k, EventKind::BugDeduped { .. })), m.bugs_deduped);
    // A kept invalid program runs as a parser test without a differential run.
    let runs = count(&|k| matches!(k, EventKind::DifferentialRun { .. }));
    let kept = count(&|k| matches!(k, EventKind::CaseRejected { kept: true, .. }));
    assert_eq!(runs + kept, m.cases_run);
    assert_eq!(count(&|k| matches!(k, EventKind::ShardStarted { .. })), 3);
    assert_eq!(count(&|k| matches!(k, EventKind::ShardFinished { .. })), 3);
    assert_eq!(
        count(&|k| matches!(k, EventKind::DifferentialRun { .. })),
        m.stage(Stage::Differential).invocations
    );

    // Every event renders as valid JSON.
    for event in &events {
        comfort_telemetry::json::parse(&event.to_json()).expect("event renders valid JSON");
    }
}

#[test]
fn execution_dedup_events_conserve_metrics_counters() {
    let (events, report) = run_and_capture(4);
    let m = &report.metrics;

    // Every execution the dedup layer saved is announced by exactly one
    // `execution_deduped` event, and vice versa: the event stream's totals
    // and the metrics counters are the same numbers.
    let mut saved = 0u64;
    let mut classes = 0u64;
    let mut dedup_events = 0u64;
    for event in &events {
        if let EventKind::ExecutionDeduped { saved: s, classes: c, .. } = &event.kind {
            assert!(*s > 0, "execution_deduped must only be emitted when runs were saved");
            assert!(*c > 0);
            saved += s;
            classes += c;
            dedup_events += 1;
        }
    }
    assert_eq!(saved, m.executions_saved);
    assert_eq!(classes, m.equivalence_classes);
    assert!(dedup_events > 0, "this workload must exercise the dedup layer");

    // Saved executions never exceed the logical differential work, and the
    // deterministic (checksummed) view carries none of these counters.
    assert!(m.executions_saved < m.stage(Stage::Differential).items);
    let stripped = m.without_wall_clock();
    assert_eq!(stripped.executions_saved, 0);
    assert_eq!(stripped.equivalence_classes, 0);
}

#[test]
fn merged_metrics_conserve_shard_totals() {
    let mem = MemorySink::new();
    let session = CampaignSession::new(telemetry_config(SinkHandle::new(mem.clone())));
    let merged = session.run_with_threads(2).expect("fresh run");
    let events = mem.take();

    // Reconstruct per-shard totals from the shard-finished events and check
    // the merged metrics conserve them exactly.
    let mut shard_cases = 0u64;
    let mut shard_bugs = 0u64;
    for event in &events {
        if let EventKind::ShardFinished { cases_run, bugs_reported, .. } = &event.kind {
            shard_cases += cases_run;
            shard_bugs += bugs_reported;
        }
    }
    assert_eq!(merged.metrics.cases_run, shard_cases);
    // Cross-shard dedup moves bugs from reported to deduped, conserving sum.
    let cross_dups = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BugDeduped { cross_shard: true, .. }))
        .count() as u64;
    assert_eq!(merged.metrics.bugs_reported + cross_dups, shard_bugs);
    assert_eq!(merged.bugs.len() as u64 + cross_dups, shard_bugs);
}

#[test]
fn progress_handle_observes_monotonic_completion() {
    let session = CampaignSession::new(telemetry_config(SinkHandle::null()));
    let progress = session.progress();

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let report = session.run_with_threads(2).expect("fresh run");
            done.store(true, std::sync::atomic::Ordering::Release);
            report
        });

        let mut last = 0u64;
        let mut observations = 0u32;
        while !done.load(std::sync::atomic::Ordering::Acquire) {
            let now = progress.cases_done();
            assert!(now >= last, "completed-case count went backwards: {last} -> {now}");
            last = now;
            observations += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let report = runner.join().expect("campaign thread panicked");
        assert!(observations > 0);

        let snapshot = progress.snapshot();
        assert_eq!(snapshot.cases_done, report.cases_run);
        assert_eq!(snapshot.total_cases, 60);
        // Shards count their own bug discoveries; the merged report may
        // dedup across shards, so the live counter is an upper bound.
        assert!(snapshot.bugs_found >= report.bugs.len() as u64);
        assert_eq!(snapshot.shards_done, 3);
        assert!((snapshot.fraction_done() - 1.0).abs() < 1e-9);
        for shard in &snapshot.shards {
            assert!(shard.finished);
            assert_eq!(shard.cases_done, shard.case_budget);
        }
    });
}
