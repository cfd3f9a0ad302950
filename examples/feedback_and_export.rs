//! Demonstrates the paper-sketched feedback extension implemented in
//! `comfort_core::extensions`, plus the Test262 exporter:
//!
//! 1. run a small campaign;
//! 2. feed the reduced bug-exposing cases back through Algorithm 1 to probe
//!    the neighbourhood of each confirmed defect (§6's "mutate bug-exposing
//!    test cases" idea);
//! 3. render the Test262-accepted cases in contribution format (§5.4).
//!
//! ```text
//! cargo run --release --example feedback_and_export
//! ```

use comfort::core::extensions::feedback_round;
use comfort::core::test262;
use comfort::lm::GeneratorConfig;
use comfort::prelude::*;

fn main() {
    println!("phase 1: base campaign (400 cases)…");
    let config = CampaignConfig::builder()
        .seed(7)
        .corpus_programs(200)
        .lm(GeneratorConfig { order: 10, bpe_merges: 300, top_k: 10, max_tokens: 1200 })
        .max_cases(400)
        .build()
        .expect("valid config");
    let report = CampaignSession::new(config).run().expect("a journal-free run cannot fail");
    println!(
        "  {} unique bugs from {} cases ({} duplicates filtered)\n",
        report.bugs.len(),
        report.cases_run,
        report.duplicates_filtered
    );

    println!("phase 2: feedback round over the reduced bug-exposing cases…");
    let beds = comfort::engines::latest_testbeds();
    let fresh = feedback_round(&report.bugs, &beds, 400_000, 7);
    println!("  neighbourhood probing surfaced {} additional unique deviations:", fresh.len());
    for key in &fresh {
        println!("    {key}");
    }

    println!("\nphase 3: Test262 export of accepted cases…");
    let files = test262::export_accepted(&report.bugs);
    let (from_gen, from_ecma) = test262::accepted_by_origin(&report.bugs);
    println!(
        "  {} accepted cases ({} from program generation, {} from ECMA-guided mutation)\n",
        files.len(),
        from_gen,
        from_ecma
    );
    if let Some((name, body)) = files.first() {
        println!("--- {name} ---");
        println!("{body}");
    }
}
