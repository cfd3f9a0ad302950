//! The perfbench A/B gate on fixture perfbench output: statistics, wins,
//! claims, bounds, unresolved spreads, failed shares, reference counts, and
//! the `BENCH_<n>.json` round trip.

use comfort_bench::ab::{
    gate, quartiles, wins, Benchmark, Judgement, Output, Record, Row, Side, Verdict,
    WorkloadRecord, PAIRS,
};

const BENCHMARK: &str = r#"{
  "command": ["perfbench"],
  "run_seconds": 1,
  "workloads": [{"name": "w", "why": "fixture"}],
  "end_to_end": [
    {"name": "cases_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
  ],
  "per_layer": [{"name": "lm.train_s", "unit": "s", "better": "lower"}]
}"#;

/// A perfbench run's stdout: a log line, the context line, the result line.
fn stdout(cases_per_s: f64, failed: u64, checksum: &str) -> String {
    format!(
        "progress\n\
         {{\"count_only\":[{{\"checksum\":\"{checksum}\",\"cases\":60}}],\
         \"host_steal_share\":0.01,\"nproc\":2,\
         \"references\":[{{\"checksum\":\"{checksum}\",\"cases\":60}}],\"seed\":5}}\n\
         {{\"attempted\":24,\"correct\":{},\"failed\":{failed},\"metrics\":{{\
         \"cases_per_s\":{{\"unit\":\"1/s\",\"value\":{cases_per_s:?}}},\
         \"setup_s\":{{\"unit\":\"s\",\"value\":0.5}}}}}}\n",
        failed == 0
    )
}

fn traced(train_s: f64) -> String {
    format!(
        "{{\"nproc\":2,\"references\":[]}}\n\
         {{\"attempted\":0,\"correct\":true,\"failed\":0,\"metrics\":{{\
         \"lm.train_s\":{{\"unit\":\"s\",\"value\":{train_s:?}}}}}}}\n"
    )
}

fn side(cases_per_s: &[f64], failed: u64, checksum: &str) -> Side {
    let outputs = cases_per_s
        .iter()
        .map(|&v| Output::parse(&stdout(v, failed, checksum)).expect("fixture parses"))
        .collect();
    Side::new(outputs, Output::parse(&traced(1.5)).expect("fixture parses").run)
}

fn record(parent: Side, change: Side, claim: Option<&str>) -> Record {
    Record {
        parent: "a".repeat(40),
        change: "b".repeat(40),
        seed: 5,
        claim: claim.map(str::to_string),
        nproc: 2,
        workloads: vec![WorkloadRecord { name: "w".into(), parent, change }],
    }
}

fn judge(parent: &[f64], change: &[f64], claim: Option<&str>) -> Judgement {
    let bench = Benchmark::parse(BENCHMARK).expect("fixture benchmark parses");
    gate(&record(side(parent, 0, "c1"), side(change, 0, "c1"), claim), &bench)
}

fn row<'a>(j: &'a Judgement, metric: &str) -> &'a Row {
    j.rows.iter().find(|r| r.metric == metric).expect("row present")
}

/// `PAIRS` values from 100 up in steps of `step`.
fn ramp(step: f64) -> Vec<f64> {
    (0..PAIRS).map(|i| 100.0 + step * i as f64).collect()
}

#[test]
fn quartiles_interpolate_between_order_statistics() {
    assert_eq!(quartiles(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]), [3.25, 5.5, 7.75]);
    assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [2.0, 3.0, 4.0]);
    assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
}

#[test]
fn wins_follow_each_metrics_direction_and_ties_count_for_neither() {
    let parent = [1.0, 2.0, 3.0, 4.0];
    let change = [2.0, 2.0, 1.0, 5.0];
    assert_eq!(wins(&parent, &change, true), 2);
    assert_eq!(wins(&parent, &change, false), 1);
    assert_eq!(wins(&parent, &parent, true), 0);
    assert_eq!(wins(&parent, &parent, false), 0);
}

#[test]
fn output_parsing_takes_the_last_two_lines() {
    let out = Output::parse(&stdout(123.5, 1, "c1")).expect("parses");
    assert_eq!(
        (out.run.metric("cases_per_s"), out.run.metric("setup_s"), out.nproc),
        (123.5, 0.5, 2)
    );
    assert!(out.run.metric("peak_rss_mb").is_nan());
    assert!(out.counts.get("references").is_some() && out.counts.get("count_only").is_some());
    assert!(Output::parse("{\"attempted\":1}\n").is_err());
    assert!(Output::parse("{\"nproc\":2}\n{\"attempted\":1,\"failed\":0}\n").is_err());
}

#[test]
fn unchanged_runs_pass_and_print_every_row() {
    let j = judge(&ramp(1.0), &ramp(1.0), None);
    assert!(j.passed(), "{:?}", j.failures);
    assert_eq!(j.rows.len(), 2);
    assert!(j.rows.iter().all(|r| r.verdict == Verdict::Ok && r.wins == 0));
    assert!(j.table.contains("references/count_only identical"), "{}", j.table);
    assert!(j.table.contains("lm.train_s"), "{}", j.table);
    assert!(j.table.contains("gate: PASS"), "{}", j.table);
}

#[test]
fn a_claim_needs_nine_wins_and_a_gap_beyond_the_parent_iqr() {
    let claim = |parent: &[f64], change: &[f64]| {
        let j = judge(parent, change, Some("cases_per_s@w"));
        let r = row(&j, "cases_per_s");
        assert_eq!(j.passed(), r.verdict == Verdict::ClaimMet, "{:?}", j.failures);
        (r.verdict, r.wins)
    };
    let parent = ramp(1.0);
    let mut change: Vec<f64> = parent.iter().map(|v| v + 20.0).collect();
    assert_eq!(claim(&parent, &change), (Verdict::ClaimMet, PAIRS));
    // A tie and a loss leave 8 wins.
    change[3] = parent[3];
    change[7] = parent[7] - 1.0;
    assert_eq!(claim(&parent, &change), (Verdict::ClaimNotMet, 8));
    // Parent quartiles 122.5 and 167.5: an IQR of 45 against a gap of 5.
    let parent = ramp(10.0);
    let change: Vec<f64> = parent.iter().map(|v| v + 5.0).collect();
    assert_eq!(claim(&parent, &change), (Verdict::ClaimNotMet, PAIRS));
}

#[test]
fn a_claim_naming_no_benchmark_metric_fails() {
    let j = judge(&ramp(1.0), &ramp(1.0), Some("speed@w"));
    assert!(j.failures.iter().any(|f| f.contains("speed@w")), "{:?}", j.failures);
}

#[test]
fn a_median_worse_than_its_bound_fails() {
    let parent = ramp(1.0);
    let change: Vec<f64> = parent.iter().map(|v| v * 0.7).collect();
    let j = judge(&parent, &change, None);
    assert!(!j.passed());
    let r = row(&j, "cases_per_s");
    assert_eq!(r.verdict, Verdict::Worse);
    assert!((r.worse_by - 0.3).abs() < 1e-9, "{}", r.worse_by);
    // 20% worse stays inside the 25% bound.
    let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
    assert!(judge(&parent, &change, None).passed());
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_the_change_dominates() {
    // Parent IQR 45 against a median of 145: 31%, wider than the 25% bound.
    let parent = ramp(10.0);
    let j = judge(&parent, &parent, None);
    assert_eq!(row(&j, "cases_per_s").verdict, Verdict::Unresolved);
    assert!(j.passed(), "unresolved is reported, not failed: {:?}", j.failures);
    assert!(j.table.contains("unresolved"));
    let above: Vec<f64> = parent.iter().map(|v| v + 100.0).collect();
    assert_eq!(row(&judge(&parent, &above, None), "cases_per_s").verdict, Verdict::Ok);
}

#[test]
fn missing_workloads_and_metrics_fail_and_layers_are_not_gated() {
    let bench = Benchmark::parse(BENCHMARK).expect("parses");
    let mut rec = record(side(&ramp(1.0), 0, "c1"), side(&ramp(1.0), 0, "c1"), None);
    rec.workloads[0].change.traced = Output::parse(&traced(15.0)).expect("parses").run;
    assert!(gate(&rec, &bench).passed(), "a 10x layer value is printed, not gated");
    let no_setup = stdout(100.0, 0, "c1").replace("\"setup_s\"", "\"other\"");
    rec.workloads[0].change.runs[0] = Output::parse(&no_setup).expect("parses").run;
    let j = gate(&rec, &bench);
    assert!(j.failures.iter().any(|f| f.contains("setup_s is missing")), "{:?}", j.failures);
    rec.workloads.clear();
    assert!(gate(&rec, &bench).failures.iter().any(|f| f.contains("w: not recorded")));
}

#[test]
fn a_rise_in_the_failed_share_fails() {
    let bench = Benchmark::parse(BENCHMARK).expect("parses");
    let j = gate(&record(side(&ramp(1.0), 0, "c1"), side(&ramp(1.0), 1, "c1"), None), &bench);
    assert!(j.failures.iter().any(|f| f.contains("failed operations rose from 0/240 to 10/240")));
    let j = gate(&record(side(&ramp(1.0), 1, "c1"), side(&ramp(1.0), 1, "c1"), None), &bench);
    assert!(j.passed(), "an equal share passes: {:?}", j.failures);
}

#[test]
fn differing_reference_counts_fail() {
    let bench = Benchmark::parse(BENCHMARK).expect("parses");
    let j = gate(&record(side(&ramp(1.0), 0, "c1"), side(&ramp(1.0), 0, "c2"), None), &bench);
    assert!(!j.passed());
    assert!(j.table.contains("references/count_only DIFFER"), "{}", j.table);
    // A tree whose runs disagree among themselves fails too.
    let mut outputs: Vec<Output> =
        ramp(1.0).iter().map(|&v| Output::parse(&stdout(v, 0, "c1")).expect("parses")).collect();
    outputs[4] = Output::parse(&stdout(104.0, 0, "c3")).expect("parses");
    let wobbly = Side::new(outputs, Output::parse(&traced(1.5)).expect("parses").run);
    assert_eq!(wobbly.counts.len(), 2);
    let j = gate(&record(wobbly.clone(), wobbly, None), &bench);
    assert!(!j.passed());
}

#[test]
fn differing_reference_fields_are_named_with_both_values() {
    let bench = Benchmark::parse(BENCHMARK).expect("parses");
    let moved = |runs: u64| {
        let outputs = ramp(1.0)
            .iter()
            .map(|&v| {
                let text = stdout(v, 0, "c1").replacen(
                    "\"references\":[{\"checksum\":\"c1\",\"cases\":60}]",
                    &format!(
                        "\"references\":[{{\"checksum\":\"c1\",\"cases\":60}},\
                         {{\"checksum\":\"c1\",\"cases\":60,\"physical_runs\":{runs}}}]"
                    ),
                    1,
                );
                Output::parse(&text).expect("fixture parses")
            })
            .collect();
        Side::new(outputs, Output::parse(&traced(1.5)).expect("parses").run)
    };
    let j = gate(&record(moved(19923), moved(7402), None), &bench);
    assert_eq!(j.failures, ["w: references[1].physical_runs 19923 → 7402"]);
    let j = gate(&record(side(&ramp(1.0), 0, "c1"), side(&ramp(1.0), 0, "c2"), None), &bench);
    assert_eq!(
        j.failures,
        ["w: count_only[0].checksum \"c1\" → \"c2\"", "w: references[0].checksum \"c1\" → \"c2\""]
    );
    // A field one side lacks shows as absent.
    let j = gate(&record(side(&ramp(1.0), 0, "c1"), moved(7), None), &bench);
    assert_eq!(
        j.failures,
        ["w: references[1] absent → {\"cases\":60,\"checksum\":\"c1\",\"physical_runs\":7}"]
    );
}

#[test]
fn records_round_trip_byte_identically() {
    let rec = record(side(&ramp(1.0), 0, "c1"), side(&ramp(2.0), 1, "c1"), Some("setup_s@w"));
    let text = rec.to_json();
    let back = Record::parse(&text).expect("parses");
    assert_eq!(back, rec);
    assert_eq!(back.to_json(), text);
    let mut short = rec.clone();
    short.workloads[0].change.runs.pop();
    assert!(Record::parse(&short.to_json()).is_err(), "a side must hold {PAIRS} runs");
}

#[test]
fn checked_in_records_round_trip_against_the_benchmark() {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Benchmark::parse(&bench).expect("BENCHMARK.json parses");
    assert_eq!(bench.workloads, ["explore", "triage", "service"]);
    for entry in std::fs::read_dir(root).expect("repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable");
        let rec = Record::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rec.to_json() + "\n", text, "{name} re-renders byte-identically");
        assert_eq!(rec.workloads.len(), bench.workloads.len(), "{name}");
    }
}
