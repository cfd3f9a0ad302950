//! Quickstart: fuzz the simulated engine matrix with a small budget and
//! print every unique conformance bug COMFORT finds.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use comfort::lm::GeneratorConfig;
use comfort::prelude::*;

fn main() {
    let config = CampaignConfig::builder()
        .seed(2026)
        .corpus_programs(120)
        .lm(GeneratorConfig { order: 8, bpe_merges: 250, top_k: 10, max_tokens: 1000 })
        .fuel(300_000)
        .include_strict(false)
        .include_legacy(false)
        .max_cases(300)
        .threads(0) // all cores; reports are identical at any thread count
        .build()
        .expect("valid config");

    println!("training the program generator and fuzzing (300 test cases)…\n");
    let report = CampaignSession::new(config).run().expect("a journal-free run cannot fail");

    println!(
        "ran {} test cases ({:.1} simulated hours), filtered {} duplicate deviations\n",
        report.cases_run, report.sim_hours, report.duplicates_filtered
    );
    println!("unique bugs discovered: {}\n", report.bugs.len());
    for bug in &report.bugs {
        println!(
            "[{}] {} — first seen in {} ({}, via {})",
            if bug.adjudication.verified { "confirmed" } else { "submitted" },
            bug.key,
            bug.earliest_version,
            bug.kind,
            bug.origin.as_str(),
        );
        for line in bug.test_case.lines() {
            println!("    {line}");
        }
        println!();
    }
}
