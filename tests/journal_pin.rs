//! Byte pins of the checkpoint journal's wire form. Journals already on
//! disk must keep loading, and `report_checksum` hashes the report's
//! journal rendering, so every record must render exactly these bytes:
//!
//! - the three shard records of the checked-in seed-2 journal, journalled
//!   again, reproduce the file byte for byte;
//! - a report with every branch that journal lacks (resume provenance, an
//!   interrupt, absent API and catalog bug, strict-only and quarantined
//!   flags, nonzero dedup counters and wall clocks) renders a pinned line,
//!   as do its metrics' JSONL summary and a journal holding one lease;
//! - `sim_hours` survives the round trip bit for bit, however odd its bits.

use std::path::{Path, PathBuf};

use comfort::core::campaign::{Adjudication, BugReport, CampaignReport};
use comfort::core::checkpoint::{
    report_checksum, report_from_json, report_to_json, CampaignCheckpoint, CheckpointJournal,
    LeaseAction, LeaseRecord, ResumeInfo,
};
use comfort::core::differential::DeviationKind;
use comfort::core::filter::BugKey;
use comfort::core::resilience::TestbedHealth;
use comfort::core::testcase::Origin;
use comfort::engines::{ApiType, BugId, Component, EngineName};
use comfort::telemetry::{CampaignMetrics, Stage};

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/crates/core/tests/fixtures/seed2-3x20.ckpt");

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comfort-journal-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.ckpt"))
}

#[test]
fn rejournalled_fixture_records_reproduce_the_file() {
    let fixture = Path::new(FIXTURE);
    let (checkpoint, recovery) = CampaignCheckpoint::load(fixture).expect("the fixture loads");
    assert_eq!(recovery.dropped_tail_bytes, 0, "{:?}", recovery.tail_error);
    assert_eq!(checkpoint.shards.len(), 3);

    let path = temp_path("rejournal");
    {
        let journal =
            CheckpointJournal::create(&path, checkpoint.fingerprint, checkpoint.shards_total)
                .expect("create");
        for record in &checkpoint.shards {
            journal.append_shard(record).expect("append");
        }
    }
    let written = std::fs::read(&path).expect("read the new journal");
    let original = std::fs::read(fixture).expect("read the fixture");
    assert!(written == original, "the re-journalled records differ from the fixture");
    std::fs::remove_file(&path).ok();
}

fn metrics() -> CampaignMetrics {
    let mut m = CampaignMetrics::new();
    m.stage_mut(Stage::Generation).record(3, 900, 41_000);
    m.stage_mut(Stage::Differential).record(12, 120, 77_000);
    m.stage_mut(Stage::Differential).record(1, 1 << 40, 5);
    m.cases_generated = 14;
    m.cases_rejected = 2;
    m.cases_run = 13;
    m.deviations_observed = 5;
    m.bugs_reported = 2;
    m.bugs_deduped = 3;
    m.faults_observed = 4;
    m.runs_retried = 6;
    m.runs_skipped = 7;
    m.testbeds_quarantined = 1;
    m.testbeds_reinstated = 1;
    m.quorum_degraded = 8;
    m.shards = 2;
    m.executions_saved = 91;
    m.equivalence_classes = 17;
    m
}

fn report() -> CampaignReport {
    let bug = |api: Option<&str>, matched_bug, strict_only| BugReport {
        key: BugKey {
            engine: EngineName::ChakraCore,
            api: api.map(str::to_string),
            behavior: "TypeError: \"x\"\tis\\not".into(),
        },
        sim_hours: 0.1 + 0.2,
        test_case: "var s = \"é\\n\";\nprint(s.replace(/[0-9]/g, true));".into(),
        origin: Origin::EcmaMutation,
        earliest_version: "ChakraCore v1.11.19".into(),
        kind: DeviationKind::Crash,
        strict_only,
        component: Component::RegexEngine,
        api_type: ApiType::Eval,
        matched_bug,
        adjudication: Adjudication {
            verified: true,
            fixed: false,
            rejected: true,
            accepted_test262: false,
            novel: true,
        },
    };
    CampaignReport {
        cases_run: 13,
        parse_errors: 2,
        passes: 8,
        deviations_observed: 5,
        duplicates_filtered: 3,
        bugs: vec![bug(None, None, true), bug(Some("replace"), Some(BugId(19)), false)],
        sim_hours: 13.0 * 2.88 / 3600.0,
        metrics: metrics(),
        health: vec![TestbedHealth {
            label: "V8 v8.8 [chaos]".into(),
            runs_ok: 10,
            panics: 2,
            hangs: 1,
            transients_exhausted: 3,
            outputs_truncated: 4,
            retries: 5,
            runs_skipped: 6,
            quarantines: 1,
            reinstatements: 0,
            quarantined: true,
        }],
        interrupted: true,
        resume: Some(ResumeInfo {
            resumed_from: "journals/c-0001.ckpt".into(),
            shards_salvaged: 2,
            shards_rerun: 1,
            shards_total: 3,
            dropped_tail_bytes: 37,
            checkpoints_written: 1,
        }),
    }
}

const REPORT_JSON: &str = r#"{"cases_run":13,"parse_errors":2,"passes":8,"deviations_observed":5,"duplicates_filtered":3,"sim_hours_bits":4577148813605009044,"interrupted":true,"resume":{"resumed_from":"journals/c-0001.ckpt","shards_salvaged":2,"shards_rerun":1,"shards_total":3,"dropped_tail_bytes":37,"checkpoints_written":1},"metrics":{"stages":[{"invocations":1,"items":3,"logical_cost":900,"wall_nanos":41000,"hist":[0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},{"invocations":0,"items":0,"logical_cost":0,"wall_nanos":0,"hist":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},{"invocations":0,"items":0,"logical_cost":0,"wall_nanos":0,"hist":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},{"invocations":2,"items":13,"logical_cost":1099511627896,"wall_nanos":77005,"hist":[0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]},{"invocations":0,"items":0,"logical_cost":0,"wall_nanos":0,"hist":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},{"invocations":0,"items":0,"logical_cost":0,"wall_nanos":0,"hist":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}],"cases_generated":14,"cases_rejected":2,"cases_run":13,"deviations_observed":5,"bugs_reported":2,"bugs_deduped":3,"faults_observed":4,"runs_retried":6,"runs_skipped":7,"testbeds_quarantined":1,"testbeds_reinstated":1,"quorum_degraded":8,"shards":2,"executions_saved":91,"equivalence_classes":17},"health":[{"label":"V8 v8.8 [chaos]","runs_ok":10,"panics":2,"hangs":1,"transients_exhausted":3,"outputs_truncated":4,"retries":5,"runs_skipped":6,"quarantines":1,"reinstatements":0,"quarantined":true}],"bugs":[{"engine":"ChakraCore","api":null,"behavior":"TypeError: \"x\"\tis\\not","sim_hours_bits":4599075939470750516,"test_case":"var s = \"é\\n\";\nprint(s.replace(/[0-9]/g, true));","origin":"ecma-mutation","earliest_version":"ChakraCore v1.11.19","kind":"Crash","strict_only":true,"component":"Regex Engine","api_type":"eval function","matched_bug":null,"adjudication":{"verified":true,"fixed":false,"rejected":true,"accepted_test262":false,"novel":true}},{"engine":"ChakraCore","api":"replace","behavior":"TypeError: \"x\"\tis\\not","sim_hours_bits":4599075939470750516,"test_case":"var s = \"é\\n\";\nprint(s.replace(/[0-9]/g, true));","origin":"ecma-mutation","earliest_version":"ChakraCore v1.11.19","kind":"Crash","strict_only":false,"component":"Regex Engine","api_type":"eval function","matched_bug":19,"adjudication":{"verified":true,"fixed":false,"rejected":true,"accepted_test262":false,"novel":true}}]}"#;

const METRICS_JSON: &str = r#"{"stages":{"generation":{"invocations":1,"items":3,"logical_cost":900},"validity":{"invocations":0,"items":0,"logical_cost":0},"datagen":{"invocations":0,"items":0,"logical_cost":0},"differential":{"invocations":2,"items":13,"logical_cost":1099511627896},"reduction":{"invocations":0,"items":0,"logical_cost":0},"filter":{"invocations":0,"items":0,"logical_cost":0}},"cases_generated":14,"cases_rejected":2,"cases_run":13,"deviations_observed":5,"bugs_reported":2,"bugs_deduped":3,"faults_observed":4,"runs_retried":6,"runs_skipped":7,"testbeds_quarantined":1,"testbeds_reinstated":1,"quorum_degraded":8,"shards":2,"executions_saved":91,"equivalence_classes":17}"#;

const REPORT_CHECKSUM: u64 = 0x97414048c5f9d2a5;

#[test]
fn a_report_with_every_branch_renders_its_pinned_bytes() {
    let report = report();
    let json = report_to_json(&report);
    assert_eq!(json, REPORT_JSON);
    assert_eq!(report.metrics.to_json(), METRICS_JSON);
    assert_eq!(report_checksum(&report), REPORT_CHECKSUM);
    let back = report_from_json(&json).expect("reads back");
    assert_eq!(report_to_json(&back), json);
}

const LEASE_JOURNAL: &str = "J1 75 f9f28860 {\"kind\":\"header\",\"version\":1,\"fingerprint\":18446744073709551614,\"shards\":4}\nJ1 129 74afdce1 {\"kind\":\"lease\",\"shard\":3,\"worker\":\"fleet-\\\"0\\\"\",\"action\":\"reclaimed\",\"lease_seq\":2,\"ttl_millis\":500,\"unix_millis\":1700000000123}\n";

#[test]
fn a_journal_with_one_lease_renders_its_pinned_bytes() {
    let path = temp_path("lease");
    {
        let journal = CheckpointJournal::create(&path, u64::MAX - 1, 4).expect("create");
        journal
            .append_lease(&LeaseRecord {
                shard: 3,
                worker: "fleet-\"0\"".into(),
                action: LeaseAction::Reclaimed,
                lease_seq: 2,
                ttl_millis: 500,
                unix_millis: 1_700_000_000_123,
            })
            .expect("append");
    }
    let written = std::fs::read_to_string(&path).expect("read");
    assert_eq!(written, LEASE_JOURNAL);
    let (checkpoint, recovery) = CampaignCheckpoint::load(&path).expect("loads");
    assert_eq!(recovery.dropped_tail_bytes, 0);
    assert_eq!(checkpoint.leases.len(), 1);
    assert_eq!(checkpoint.leases[0].worker, "fleet-\"0\"");
    std::fs::remove_file(&path).ok();
}

#[test]
fn sim_hours_round_trips_bit_for_bit() {
    let nan_with_payload = f64::from_bits(0x7ff8_0000_dead_beef);
    let subnormal = f64::from_bits(0x0000_0000_0000_0001);
    for sim_hours in [-0.0, nan_with_payload, subnormal] {
        let mut report = report();
        report.sim_hours = sim_hours;
        report.bugs[0].sim_hours = sim_hours;
        let back = report_from_json(&report_to_json(&report)).expect("reads back");
        assert_eq!(back.sim_hours.to_bits(), sim_hours.to_bits());
        assert_eq!(back.bugs[0].sim_hours.to_bits(), sim_hours.to_bits());
    }
}
