//! Byte pins of the control plane's wire form. Specs are persisted next to
//! journals for worker processes, and a spec file submitted again after a
//! daemon crash must derive the same campaign, so the renderings are
//! frozen:
//!
//! - `CampaignSpec::to_json` of a minimal spec, of a spec with every member
//!   (two chaos testbeds, a name that needs escapes) and of a spec whose
//!   `keep_invalid_fraction` is a whole number;
//! - the frame of every `Request` variant;
//! - the fleet spec of the CI end-to-end check, whose `chaos` object is
//!   partial, rendered again with the absent members at their defaults.
//!
//! Every pinned text also reads back to the value it was rendered from.

use comfort::core::resilience::ChaosConfig;
use comfort::engines::FaultPlan;
use comfort::lm::GeneratorConfig;
use comfort::service::spec::CampaignSpec;
use comfort::service::wire::Request;

fn full_spec() -> CampaignSpec {
    let plan = FaultPlan {
        seed: 7,
        abort_rate: 0.125,
        abort_signal: 9,
        panic_rate: 0.5,
        hang_rate: 0.0625,
        garbage_rate: 0.03,
        transient_rate: 0.2,
        transient_persistence: 3,
        hang_millis: 5,
        garbage_bytes: 128,
    };
    CampaignSpec {
        tenant: "acme".to_string(),
        name: Some("nightly \"deep\"\\run\n\t\u{1}".to_string()),
        seed: Some(u64::MAX - 3),
        corpus_programs: Some(80),
        lm: Some(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 }),
        max_cases: Some(60),
        shard_cases: Some(20),
        fuel: Some(200_000),
        include_strict: Some(true),
        include_legacy: Some(false),
        reduce_cases: Some(true),
        keep_invalid_fraction: Some(0.25),
        checkpoint: Some("runs/nightly.ckpt".to_string()),
        telemetry: Some("runs/nightly.jsonl".to_string()),
        deadline_millis: Some(90_000),
        contain_panics: Some(false),
        chaos: Some(ChaosConfig::on(plan, vec![0, 2])),
    }
}

const FULL_SPEC: &str = concat!(
    r#"{"chaos":{"abort_rate":0.125,"abort_signal":9,"garbage_bytes":128,"garbage_rate":0.03,"#,
    r#""hang_millis":5,"hang_rate":0.0625,"panic_rate":0.5,"seed":7,"testbeds":[0,2],"#,
    r#""transient_persistence":3,"transient_rate":0.2},"checkpoint":"runs/nightly.ckpt","#,
    r#""contain_panics":false,"corpus_programs":80,"deadline_millis":90000,"fuel":200000,"#,
    r#""include_legacy":false,"include_strict":true,"keep_invalid_fraction":0.25,"#,
    r#""lm":{"bpe_merges":200,"max_tokens":800,"order":8,"top_k":10},"max_cases":60,"#,
    r#""name":"nightly \"deep\"\\run\n\t\u0001","reduce_cases":true,"#,
    r#""seed":18446744073709551612,"shard_cases":20,"telemetry":"runs/nightly.jsonl","#,
    r#""tenant":"acme"}"#,
);

/// The spec of the CI fleet check, as the CI file writes it.
const CI_FLEET_SPEC: &str = concat!(
    r#"{"tenant":"ci-fleet","seed":77,"corpus_programs":60,"#,
    r#""lm":{"order":6,"bpe_merges":120,"top_k":8,"max_tokens":400},"max_cases":30,"#,
    r#""shard_cases":15,"fuel":200000,"include_strict":false,"include_legacy":false,"#,
    r#""reduce_cases":false,"checkpoint":"/tmp/fleet-ci.ckpt","#,
    r#""chaos":{"abort_rate":0.10,"abort_signal":6}}"#,
);

/// [`CI_FLEET_SPEC`] rendered again.
const CI_FLEET_RENDERED: &str = concat!(
    r#"{"chaos":{"abort_rate":0.1,"abort_signal":6,"garbage_bytes":64,"garbage_rate":0.0,"#,
    r#""hang_millis":20,"hang_rate":0.0,"panic_rate":0.0,"seed":0,"testbeds":[0],"#,
    r#""transient_persistence":1,"transient_rate":0.0},"checkpoint":"/tmp/fleet-ci.ckpt","#,
    r#""corpus_programs":60,"fuel":200000,"include_legacy":false,"include_strict":false,"#,
    r#""lm":{"bpe_merges":120,"max_tokens":400,"order":6,"top_k":8},"max_cases":30,"#,
    r#""reduce_cases":false,"seed":77,"shard_cases":15,"tenant":"ci-fleet"}"#,
);

fn pin_spec(spec: &CampaignSpec, expected: &str) {
    assert_eq!(spec.to_json(), expected);
    assert_eq!(&CampaignSpec::from_json_str(expected).expect("the pinned spec reads"), spec);
}

#[test]
fn specs_render_their_pinned_bytes() {
    pin_spec(&CampaignSpec::for_tenant("acme"), r#"{"tenant":"acme"}"#);
    pin_spec(&full_spec(), FULL_SPEC);
    let whole = CampaignSpec { keep_invalid_fraction: Some(1.0), ..CampaignSpec::for_tenant("t") };
    pin_spec(&whole, r#"{"keep_invalid_fraction":1.0,"tenant":"t"}"#);
}

#[test]
fn every_request_renders_its_pinned_frame() {
    let full_submit = format!(r#"{{"cmd":"submit","spec":{FULL_SPEC}}}"#);
    let frames = [
        (
            Request::Submit(Box::new(CampaignSpec::for_tenant("a"))),
            r#"{"cmd":"submit","spec":{"tenant":"a"}}"#,
        ),
        (Request::Submit(Box::new(full_spec())), full_submit.as_str()),
        (Request::Status(None), r#"{"cmd":"status"}"#),
        (Request::Status(Some("c-0001".to_string())), r#"{"campaign":"c-0001","cmd":"status"}"#),
        (Request::Cancel("c-0002".to_string()), r#"{"campaign":"c-0002","cmd":"cancel"}"#),
        (Request::Drain, r#"{"cmd":"drain"}"#),
        (Request::Tail("c-0003".to_string()), r#"{"campaign":"c-0003","cmd":"tail"}"#),
    ];
    for (request, frame) in frames {
        assert_eq!(request.to_json(), frame);
        assert_eq!(Request::from_json_str(frame).expect("the pinned frame reads"), request);
    }
}

#[test]
fn the_ci_fleet_spec_renders_with_its_chaos_defaults() {
    let spec = CampaignSpec::from_json_str(CI_FLEET_SPEC).expect("the CI spec reads");
    let chaos = spec.chaos.as_ref().expect("chaos is set");
    assert_eq!(chaos.plan, FaultPlan { abort_rate: 0.1, ..FaultPlan::new(FaultPlan::DERIVE) });
    assert_eq!(chaos.testbeds, [0]);
    pin_spec(&spec, CI_FLEET_RENDERED);
}
