//! Fault-tolerance demo: run a campaign where one testbed is wrapped in a
//! seeded chaos plan (panics on ~10% of runs, hangs on ~5%, transient faults
//! on ~8%) and show that the harness contains every fault, retries
//! transients, quarantines the testbed after consecutive hard faults, and
//! keeps voting over the surviving quorum. The whole run is repeated at
//! several thread counts and the health ledgers and fault telemetry are
//! checked for bit-identical agreement; the process exits nonzero on any
//! mismatch so CI can run this as an end-to-end robustness check.
//!
//! ```text
//! cargo run --release --example chaos_campaign
//! ```

use comfort::core::report::health_report;
use comfort::prelude::*;

fn build_config(sink: SinkHandle) -> CampaignConfig {
    let plan =
        FaultPlan::new(1003).panic_rate(0.10).hang_rate(0.05).transient_rate(0.08).hang_millis(1);
    CampaignConfig::builder()
        .seed(2)
        .corpus_programs(80)
        .max_cases(60)
        .include_strict(false)
        .include_legacy(false)
        .reduce_cases(false)
        .exec(ExecPolicy { quarantine_after: 2, ..ExecPolicy::default() })
        .chaos(ChaosConfig::on_first(plan))
        .sink(sink)
        .build()
        .expect("valid chaos config")
}

fn run_at(threads: usize) -> (Vec<Event>, comfort::core::campaign::CampaignReport) {
    let mem = MemorySink::new();
    let session = CampaignSession::new(build_config(SinkHandle::new(mem.clone())));
    let report = session.run_with_threads(threads).expect("fresh run is infallible");
    (mem.take(), report)
}

fn main() {
    println!("running a 60-case campaign with a chaotic testbed (threads = 1)…\n");
    let (events, report) = run_at(1);

    println!("{}", health_report(&report));
    println!(
        "campaign: {} cases, {} passes, {} deviations observed, {} unique bugs",
        report.cases_run,
        report.passes,
        report.deviations_observed,
        report.bugs.len()
    );
    println!(
        "fault telemetry: {} faults, {} retried runs, {} quarantines, {} degraded votes\n",
        report.metrics.faults_observed,
        report.metrics.runs_retried,
        report.metrics.testbeds_quarantined,
        report.metrics.quorum_degraded
    );

    let mut failures = 0;
    let mut check = |label: &str, ok: bool| {
        println!("  [{}] {label}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    // The acceptance contract of DESIGN.md §9.
    check("campaign completed its whole budget", report.cases_run == 60);
    let sick = &report.health[0];
    check("chaotic testbed recorded panics and hangs", sick.panics > 0 && sick.hangs > 0);
    check("transient faults were retried", sick.retries > 0);
    check("circuit breaker quarantined the testbed", sick.quarantined);
    check("quarantined testbed was skipped afterwards", sick.runs_skipped > 0);
    check(
        "all other testbeds stayed clean",
        report.health[1..].iter().all(|h| h.faults() == 0 && !h.quarantined),
    );
    check("votes degraded to the surviving quorum", report.metrics.quorum_degraded > 0);
    let fault_events =
        events.iter().filter(|e| matches!(e.kind, EventKind::FaultInjected { .. })).count() as u64;
    check("fault events reconcile with metrics", fault_events == report.metrics.faults_observed);

    // Determinism: reports and logical event streams must be bit-identical
    // at every thread count.
    println!("\nre-running at threads = 2 and 8 for the determinism check…");
    let (e2, r2) = run_at(2);
    let (e8, r8) = run_at(8);
    let det = |events: &[Event]| -> Vec<String> {
        events.iter().map(Event::to_json_deterministic).collect()
    };
    check("telemetry identical at threads 1 vs 2", det(&events) == det(&e2));
    check("telemetry identical at threads 1 vs 8", det(&events) == det(&e8));
    check("health ledger identical at threads 1 vs 2", report.health == r2.health);
    check("health ledger identical at threads 1 vs 8", report.health == r8.health);

    if failures > 0 {
        println!("\n{failures} check(s) failed");
        std::process::exit(1);
    }
    println!("\nall robustness checks passed");
}
