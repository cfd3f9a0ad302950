//! Wire-level campaign descriptions.
//!
//! A [`CampaignSpec`] is the JSON document a tenant submits over the
//! control socket. It is a declarative subset of
//! [`CampaignConfig`](comfort_core::campaign::CampaignConfig): every field
//! that participates in the config fingerprint can be expressed, nothing
//! process-local (sinks, cancel tokens, thread counts) can. The daemon
//! turns a spec into a config with [`CampaignSpec::build_config`], wiring
//! in its own telemetry and cancellation plumbing — so the *same spec
//! file* submitted before and after a daemon crash derives the same
//! fingerprint and resumes the same journal.

use comfort_core::campaign::{CampaignConfig, CampaignConfigBuilder};
use comfort_core::resilience::ChaosConfig;
use comfort_engines::FaultPlan;
use comfort_lm::GeneratorConfig;
use comfort_telemetry::json::{self, Field, JsonValue};

/// A tenant's campaign submission: identity, budget, and determinism
/// knobs, all optional except the tenant name. Unset fields keep the
/// library defaults, so a minimal spec is `{"tenant": "acme"}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignSpec {
    /// Tenant the campaign is accounted to (admission quotas key on this).
    pub tenant: String,
    /// Human-readable campaign name (defaults to the campaign id).
    pub name: Option<String>,
    /// Master seed.
    pub seed: Option<u64>,
    /// LM training-corpus size.
    pub corpus_programs: Option<usize>,
    /// LM configuration (order, BPE merges, top-k, max tokens).
    pub lm: Option<GeneratorConfig>,
    /// Test-case budget.
    pub max_cases: Option<usize>,
    /// Cases per shard (`0` = single shard).
    pub shard_cases: Option<usize>,
    /// Fuel per engine run.
    pub fuel: Option<u64>,
    /// Also run the strict-mode testbed group.
    pub include_strict: Option<bool>,
    /// Also include each engine's oldest version.
    pub include_legacy: Option<bool>,
    /// Reduce bug-exposing cases before reporting.
    pub reduce_cases: Option<bool>,
    /// Fraction of invalid generations kept as parser tests.
    pub keep_invalid_fraction: Option<f64>,
    /// Write-ahead checkpoint journal path (crash-safe resume).
    pub checkpoint: Option<String>,
    /// JSONL telemetry file the daemon tees the campaign stream into.
    pub telemetry: Option<String>,
    /// Wall-clock budget in milliseconds.
    pub deadline_millis: Option<u64>,
    /// Catch panics inside engine runs (default `true`; `false` lets
    /// injected panics escape to the daemon's supervisor boundary).
    pub contain_panics: Option<bool>,
    /// Seeded fault injection over selected testbeds. In JSON, an object of
    /// the plan's fields plus `testbeds`; absent fields default to
    /// `FaultPlan::new(FaultPlan::DERIVE)` and testbed 0.
    pub chaos: Option<ChaosConfig>,
}

impl CampaignSpec {
    /// A minimal spec for `tenant` with everything else defaulted.
    pub fn for_tenant(tenant: impl Into<String>) -> Self {
        CampaignSpec { tenant: tenant.into(), ..CampaignSpec::default() }
    }

    /// Renders the spec as a canonical JSON object (round-trips through
    /// [`CampaignSpec::from_json`]).
    pub fn to_json(&self) -> String {
        let mut pairs: Vec<(&str, JsonValue)> =
            vec![("tenant", JsonValue::String(self.tenant.clone()))];
        if let Some(v) = &self.name {
            pairs.push(("name", JsonValue::String(v.clone())));
        }
        if let Some(v) = self.seed {
            pairs.push(("seed", JsonValue::Int(v as i128)));
        }
        if let Some(v) = self.corpus_programs {
            pairs.push(("corpus_programs", JsonValue::Int(v as i128)));
        }
        if let Some(lm) = &self.lm {
            pairs.push((
                "lm",
                JsonValue::object([
                    ("order", JsonValue::Int(lm.order as i128)),
                    ("bpe_merges", JsonValue::Int(lm.bpe_merges as i128)),
                    ("top_k", JsonValue::Int(lm.top_k as i128)),
                    ("max_tokens", JsonValue::Int(lm.max_tokens as i128)),
                ]),
            ));
        }
        if let Some(v) = self.max_cases {
            pairs.push(("max_cases", JsonValue::Int(v as i128)));
        }
        if let Some(v) = self.shard_cases {
            pairs.push(("shard_cases", JsonValue::Int(v as i128)));
        }
        if let Some(v) = self.fuel {
            pairs.push(("fuel", JsonValue::Int(v as i128)));
        }
        if let Some(v) = self.include_strict {
            pairs.push(("include_strict", JsonValue::Bool(v)));
        }
        if let Some(v) = self.include_legacy {
            pairs.push(("include_legacy", JsonValue::Bool(v)));
        }
        if let Some(v) = self.reduce_cases {
            pairs.push(("reduce_cases", JsonValue::Bool(v)));
        }
        if let Some(v) = self.keep_invalid_fraction {
            pairs.push(("keep_invalid_fraction", JsonValue::Number(v)));
        }
        if let Some(v) = &self.checkpoint {
            pairs.push(("checkpoint", JsonValue::String(v.clone())));
        }
        if let Some(v) = &self.telemetry {
            pairs.push(("telemetry", JsonValue::String(v.clone())));
        }
        if let Some(v) = self.deadline_millis {
            pairs.push(("deadline_millis", JsonValue::Int(v as i128)));
        }
        if let Some(v) = self.contain_panics {
            pairs.push(("contain_panics", JsonValue::Bool(v)));
        }
        if let Some(ChaosConfig { plan, testbeds }) = &self.chaos {
            pairs.push((
                "chaos",
                JsonValue::object([
                    ("seed", JsonValue::Int(plan.seed as i128)),
                    ("abort_rate", JsonValue::Number(plan.abort_rate)),
                    ("abort_signal", JsonValue::Int(plan.abort_signal as i128)),
                    ("panic_rate", JsonValue::Number(plan.panic_rate)),
                    ("hang_rate", JsonValue::Number(plan.hang_rate)),
                    ("garbage_rate", JsonValue::Number(plan.garbage_rate)),
                    ("transient_rate", JsonValue::Number(plan.transient_rate)),
                    ("transient_persistence", JsonValue::Int(plan.transient_persistence as i128)),
                    ("hang_millis", JsonValue::Int(plan.hang_millis as i128)),
                    ("garbage_bytes", JsonValue::Int(plan.garbage_bytes as i128)),
                    (
                        "testbeds",
                        JsonValue::Array(
                            testbeds.iter().map(|&t| JsonValue::Int(t as i128)).collect(),
                        ),
                    ),
                ]),
            ));
        }
        JsonValue::object(pairs).to_json()
    }

    /// Parses a spec from its JSON form. A field that is present must have
    /// its documented type and fit its Rust type; the error names it.
    pub fn from_json(v: &JsonValue) -> Result<CampaignSpec, String> {
        let spec = CampaignSpec {
            tenant: Field::parse(v, "tenant")?,
            name: Field::parse(v, "name")?,
            seed: Field::parse(v, "seed")?,
            corpus_programs: Field::parse(v, "corpus_programs")?,
            lm: json::nested(v, "lm", |lm| {
                Ok(GeneratorConfig {
                    order: Field::parse(lm, "order")?,
                    bpe_merges: Field::parse(lm, "bpe_merges")?,
                    top_k: Field::parse(lm, "top_k")?,
                    max_tokens: Field::parse(lm, "max_tokens")?,
                })
            })?,
            max_cases: Field::parse(v, "max_cases")?,
            shard_cases: Field::parse(v, "shard_cases")?,
            fuel: Field::parse(v, "fuel")?,
            include_strict: Field::parse(v, "include_strict")?,
            include_legacy: Field::parse(v, "include_legacy")?,
            reduce_cases: Field::parse(v, "reduce_cases")?,
            keep_invalid_fraction: Field::parse(v, "keep_invalid_fraction")?,
            checkpoint: Field::parse(v, "checkpoint")?,
            telemetry: Field::parse(v, "telemetry")?,
            deadline_millis: Field::parse(v, "deadline_millis")?,
            contain_panics: Field::parse(v, "contain_panics")?,
            chaos: json::nested(v, "chaos", |c| {
                let d = FaultPlan::new(FaultPlan::DERIVE);
                let plan = FaultPlan {
                    seed: Option::parse(c, "seed")?.unwrap_or(d.seed),
                    abort_rate: Option::parse(c, "abort_rate")?.unwrap_or(d.abort_rate),
                    abort_signal: Option::parse(c, "abort_signal")?.unwrap_or(d.abort_signal),
                    panic_rate: Option::parse(c, "panic_rate")?.unwrap_or(d.panic_rate),
                    hang_rate: Option::parse(c, "hang_rate")?.unwrap_or(d.hang_rate),
                    garbage_rate: Option::parse(c, "garbage_rate")?.unwrap_or(d.garbage_rate),
                    transient_rate: Option::parse(c, "transient_rate")?.unwrap_or(d.transient_rate),
                    transient_persistence: Option::parse(c, "transient_persistence")?
                        .unwrap_or(d.transient_persistence),
                    hang_millis: Option::parse(c, "hang_millis")?.unwrap_or(d.hang_millis),
                    garbage_bytes: Option::parse(c, "garbage_bytes")?.unwrap_or(d.garbage_bytes),
                };
                let testbeds = Option::parse(c, "testbeds")?.unwrap_or_else(|| vec![0]);
                Ok(ChaosConfig::on(plan, testbeds))
            })?,
        };
        if spec.tenant.is_empty() {
            return Err("spec field 'tenant' must be non-empty".to_string());
        }
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    pub fn from_json_str(text: &str) -> Result<CampaignSpec, String> {
        CampaignSpec::from_json(&json::parse(text)?)
    }

    /// Builds the validated [`CampaignConfig`] this spec describes.
    ///
    /// Only fingerprinted fields are populated here; the daemon attaches
    /// its own sink and cancel token afterwards (neither participates in
    /// the fingerprint, so resubmitting the same spec after a crash
    /// matches the journal on disk).
    pub fn build_config(&self) -> Result<CampaignConfig, String> {
        let mut b: CampaignConfigBuilder = CampaignConfig::builder();
        if let Some(v) = self.seed {
            b = b.seed(v);
        }
        if let Some(v) = self.corpus_programs {
            b = b.corpus_programs(v);
        }
        if let Some(lm) = &self.lm {
            b = b.lm(lm.clone());
        }
        if let Some(v) = self.max_cases {
            b = b.max_cases(v);
        }
        if let Some(v) = self.shard_cases {
            b = b.shard_cases(v);
        }
        if let Some(v) = self.fuel {
            b = b.fuel(v);
        }
        if let Some(v) = self.include_strict {
            b = b.include_strict(v);
        }
        if let Some(v) = self.include_legacy {
            b = b.include_legacy(v);
        }
        if let Some(v) = self.reduce_cases {
            b = b.reduce_cases(v);
        }
        if let Some(v) = self.keep_invalid_fraction {
            b = b.keep_invalid_fraction(v);
        }
        if let Some(path) = &self.checkpoint {
            b = b.checkpoint_path(path);
        }
        if let Some(ms) = self.deadline_millis {
            b = b.deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(chaos) = &self.chaos {
            b = b.chaos(chaos.clone());
        }
        let mut config = b.build().map_err(|e| format!("invalid campaign spec: {e}"))?;
        if let Some(contain) = self.contain_panics {
            config.exec.isolation.contain_panics = contain;
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> CampaignSpec {
        CampaignSpec {
            tenant: "acme".to_string(),
            name: Some("nightly".to_string()),
            seed: Some(u64::MAX - 3),
            corpus_programs: Some(80),
            lm: Some(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 }),
            max_cases: Some(60),
            shard_cases: Some(20),
            fuel: Some(200_000),
            include_strict: Some(false),
            include_legacy: Some(false),
            reduce_cases: Some(false),
            keep_invalid_fraction: Some(0.25),
            checkpoint: Some("/tmp/x.ckpt".to_string()),
            telemetry: Some("/tmp/x.jsonl".to_string()),
            deadline_millis: Some(90_000),
            contain_panics: Some(false),
            chaos: Some(ChaosConfig::on(
                FaultPlan::new(FaultPlan::DERIVE).panic_rate(0.5),
                vec![0, 2],
            )),
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        for spec in [CampaignSpec::for_tenant("t"), full_spec()] {
            let text = spec.to_json();
            let back = CampaignSpec::from_json_str(&text).expect("round-trip parse");
            assert_eq!(back, spec);
            // Canonical form: render → parse → render is byte-identical.
            assert_eq!(back.to_json(), text);
        }
    }

    #[test]
    fn build_config_applies_every_field() {
        let spec = full_spec();
        let config = spec.build_config().expect("valid spec");
        assert_eq!(config.seed, u64::MAX - 3);
        assert_eq!(config.max_cases, 60);
        assert_eq!(config.shard_cases, 20);
        assert_eq!(config.checkpoint.as_deref(), Some(std::path::Path::new("/tmp/x.ckpt")));
        assert_eq!(config.deadline, Some(std::time::Duration::from_millis(90_000)));
        assert!(!config.exec.isolation.contain_panics);
        let chaos = config.chaos.as_ref().expect("chaos attached");
        assert_eq!(chaos.plan.panic_rate, 0.5);
        assert_eq!(chaos.testbeds, vec![0, 2]);
    }

    #[test]
    fn same_spec_derives_the_same_fingerprint() {
        let a = full_spec().build_config().expect("valid");
        let b = CampaignSpec::from_json_str(&full_spec().to_json())
            .expect("parse")
            .build_config()
            .expect("valid");
        assert_eq!(
            comfort_core::checkpoint::config_fingerprint(&a),
            comfort_core::checkpoint::config_fingerprint(&b)
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_field_names() {
        let err = CampaignSpec::from_json_str("{}").unwrap_err();
        assert!(err.contains("tenant"), "{err}");
        let err = CampaignSpec::from_json_str(r#"{"tenant":"t","max_cases":"lots"}"#).unwrap_err();
        assert!(err.contains("max_cases"), "{err}");
        let err = CampaignSpec::from_json_str(r#"{"tenant":"t","lm":{"order":4}}"#).unwrap_err();
        assert!(err.contains("lm."), "{err}");
        // Present but wrong-typed or out-of-range fields never fall back to
        // a default or truncate.
        for (spec, field) in [
            (r#"{"tenant":"t","seed":null}"#, "'seed'"),
            (r#"{"tenant":"t","checkpoint":7}"#, "'checkpoint'"),
            (r#"{"tenant":"t","name":false}"#, "'name'"),
            (r#"{"tenant":"t","telemetry":["x"]}"#, "'telemetry'"),
            (r#"{"tenant":"t","chaos":{"hang_millis":"lots"}}"#, "'chaos.hang_millis'"),
            (r#"{"tenant":"t","chaos":{"abort_signal":4294967302}}"#, "'chaos.abort_signal'"),
            (
                r#"{"tenant":"t","chaos":{"transient_persistence":4294967297}}"#,
                "'chaos.transient_persistence'",
            ),
            (r#"{"tenant":"t","chaos":{"testbeds":"0,1"}}"#, "'chaos.testbeds'"),
            (r#"{"tenant":"t","chaos":{"seed":-1}}"#, "'chaos.seed'"),
            (r#"{"tenant":"t","chaos":true}"#, "'chaos'"),
        ] {
            let err = CampaignSpec::from_json_str(spec).expect_err(spec);
            assert!(err.contains(field), "{spec}: {err}");
        }
    }
}
