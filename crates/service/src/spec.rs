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
use comfort_telemetry::json::{self, member, Field, Object, Rule};
use comfort_telemetry::json_record;

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

    /// Renders the spec as its canonical JSON object: keys sorted, unset
    /// members left out (round-trips through [`CampaignSpec::from_json_str`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out);
        out
    }

    /// Parses a spec from JSON text. A member that is present must have
    /// its documented type and fit its Rust type; the error names it.
    pub fn from_json_str(text: &str) -> Result<CampaignSpec, String> {
        json::read(text)
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

// The spec's wire form, one table in key order, as the canonical rendering
// sorts its keys. Only three members are not in their type's own form.
json_record!(CampaignSpec {
    chaos => Chaos, checkpoint, contain_panics, corpus_programs, deadline_millis, fuel,
    include_legacy, include_strict, keep_invalid_fraction, lm => Lm, max_cases, name,
    reduce_cases, seed, shard_cases, telemetry, tenant => NonEmpty,
});

/// `tenant`: a string that must not be empty.
struct NonEmpty;

impl Rule<String> for NonEmpty {
    fn render(value: &String, key: &str, out: &mut String) {
        value.render(key, out);
    }
    fn parse(v: &Object<'_>, name: &str) -> Result<String, String> {
        let value = String::parse(v, name)?;
        if value.is_empty() {
            return Err(format!("field '{name}' must be non-empty"));
        }
        Ok(value)
    }
}

/// The last field of a field path, as a string: the path's JSON key.
macro_rules! key {
    ($field:ident) => { stringify!($field) };
    ($head:ident . $($rest:ident).+) => { key!($($rest).+) };
}

/// Declares member rule `$rule` for an optional `$ty` of another crate,
/// written as an object: one table of field paths in key order, each keyed
/// by its last field. Reading starts from `$base` and reads each member
/// into it with `$read`, `required` or `if_present`.
macro_rules! object_rule {
    ($rule:ident: $ty:ty = $base:expr, $read:ident { $($($path:ident).+),+ $(,)? }) => {
        struct $rule;

        impl Rule<Option<$ty>> for $rule {
            fn render(value: &Option<$ty>, key: &str, out: &mut String) {
                if let Some(value) = value {
                    member(out, key);
                    out.push('{');
                    $( value.$($path).+.render(concat!("\"", key!($($path).+), "\":"), out); )+
                    out.push('}');
                }
            }
            fn parse(v: &Object<'_>, name: &str) -> Result<Option<$ty>, String> {
                json::nested(v, name, |object| {
                    let mut value: $ty = $base;
                    $( $read(object, key!($($path).+), &mut value.$($path).+)?; )+
                    Ok(value)
                })
            }
        }
    };
}

/// Reads member `name` of `v` into `slot`; it must be present.
fn required<T: Field>(v: &Object<'_>, name: &str, slot: &mut T) -> Result<(), String> {
    *slot = T::parse(v, name)?;
    Ok(())
}

/// Reads member `name` of `v` into `slot` if it is present.
fn if_present<T: Field>(v: &Object<'_>, name: &str, slot: &mut T) -> Result<(), String> {
    if let Some(value) = Option::parse(v, name)? {
        *slot = value;
    }
    Ok(())
}

// `lm`: every member of the generator config.
object_rule!(Lm: GeneratorConfig = GeneratorConfig::default(), required {
    bpe_merges, max_tokens, order, top_k,
});

// `chaos`: the fault plan's members and `testbeds`. An absent one keeps its
// value in a derived-seed plan on testbed 0.
object_rule!(
    Chaos: ChaosConfig = ChaosConfig::on_first(FaultPlan::new(FaultPlan::DERIVE)), if_present {
        plan.abort_rate, plan.abort_signal, plan.garbage_bytes, plan.garbage_rate,
        plan.hang_millis, plan.hang_rate, plan.panic_rate, plan.seed, testbeds,
        plan.transient_persistence, plan.transient_rate,
    }
);

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
