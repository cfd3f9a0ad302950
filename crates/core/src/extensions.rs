//! An extension the paper sketches as future work, implemented here:
//! [`BugSeedMutator`] — §6 (vs AutoTest): *"extending COMFORT to mutate
//! bug-exposing test cases could be valuable."* A LangFuzz-style feedback
//! loop that re-mutates reduced bug-exposing cases to hunt for sibling
//! bugs on the same or neighbouring APIs.

use comfort_syntax::parse;
use rand::rngs::StdRng;

use crate::campaign::BugReport;
use crate::datagen::{DataGen, DataGenConfig};
use crate::testcase::TestCase;

/// LangFuzz-style feedback: mutate reduced bug-exposing cases (§6).
#[derive(Debug)]
pub struct BugSeedMutator {
    datagen_config: DataGenConfig,
}

impl BugSeedMutator {
    /// Creates the mutator with the standard Algorithm-1 configuration.
    pub fn new(datagen_config: DataGenConfig) -> Self {
        BugSeedMutator { datagen_config }
    }

    /// Derives fresh test cases from the reduced test cases of already
    /// discovered bugs. The reduced cases are minimal bug triggers, so their
    /// mutants probe the *neighbourhood* of a confirmed defect — where
    /// sibling defects cluster.
    pub fn derive(&self, bugs: &[BugReport], rng: &mut StdRng) -> Vec<TestCase> {
        let datagen = DataGen::new(comfort_ecma262::spec_db(), self.datagen_config.clone());
        let mut out = Vec::new();
        let mut next_id = 1_000_000; // distinct id space from the main campaign
        for (i, bug) in bugs.iter().enumerate() {
            let Ok(program) = parse(&bug.test_case) else { continue };
            let mutants = datagen.mutate(&program, i as u64, &mut next_id, rng);
            out.extend(mutants);
        }
        out
    }
}

impl Default for BugSeedMutator {
    fn default() -> Self {
        BugSeedMutator::new(DataGenConfig { max_mutants_per_program: 8, random_mutants: 2 })
    }
}

/// Runs one feedback round on top of a finished campaign: mutate the
/// discovered bugs' reduced cases and count how many *new* unique deviations
/// the neighbourhood probing yields.
pub fn feedback_round(
    bugs: &[BugReport],
    testbeds: &[comfort_engines::Testbed],
    fuel: u64,
    seed: u64,
) -> Vec<crate::filter::BugKey> {
    use crate::differential::{run_differential, CaseOutcome};
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let mutator = BugSeedMutator::default();
    let mut tree = crate::filter::BugTree::new();
    // Pre-seed the tree with the known bugs so only *new* paths count.
    for bug in bugs {
        tree.observe(&bug.key);
    }
    let mut fresh = Vec::new();
    for case in mutator.derive(bugs, &mut rng) {
        if let CaseOutcome::Deviations(devs) =
            run_differential(&case.program, testbeds, &comfort_engines::RunOptions::with_fuel(fuel))
        {
            for d in devs {
                let key = crate::filter::BugKey {
                    engine: d.engine,
                    api: crate::campaign::dominant_api(&case.program),
                    behavior: crate::filter::behavior_label(&d),
                };
                if tree.observe(&key) {
                    fresh.push(key);
                }
            }
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bug_seed_mutants_parse_and_probe_the_same_api() {
        use crate::campaign::Adjudication;
        use crate::differential::DeviationKind;
        use crate::filter::BugKey;
        use comfort_engines::{ApiType, Component, EngineName};

        let bug = BugReport {
            key: BugKey {
                engine: EngineName::Rhino,
                api: Some("substr".into()),
                behavior: "WrongOutput".into(),
            },
            sim_hours: 0.0,
            test_case: "var s = 'Name: Albert';\nvar len = 3;\nprint(s.substr(6, len));".into(),
            origin: crate::testcase::Origin::EcmaMutation,
            earliest_version: "Rhino v1.7R3".into(),
            kind: DeviationKind::WrongOutput,
            strict_only: false,
            component: Component::Implementation,
            api_type: ApiType::String,
            matched_bug: None,
            adjudication: Adjudication {
                verified: true,
                fixed: false,
                rejected: false,
                accepted_test262: false,
                novel: true,
            },
        };
        let mutator = BugSeedMutator::default();
        let mut rng = StdRng::seed_from_u64(1);
        let derived = mutator.derive(&[bug], &mut rng);
        assert!(!derived.is_empty());
        for case in &derived {
            parse(&case.source).expect("feedback mutants are valid JS");
            assert!(case.source.contains("substr"));
        }
    }

    #[test]
    fn feedback_round_keys_deviations_like_the_campaign() {
        use crate::campaign::Adjudication;
        use crate::differential::DeviationKind;
        use crate::filter::BugKey;
        use comfort_engines::{ApiType, Component, EngineName};

        // Three engines skip toFixed's RangeError, and a campaign files
        // each as `MissingRangeError`. The round's mutants re-expose those
        // same bugs, which must count as known rather than as new keys.
        let bugs: Vec<BugReport> =
            [EngineName::Rhino, EngineName::JerryScript, EngineName::QuickJs]
                .into_iter()
                .map(|engine| BugReport {
                    key: BugKey {
                        engine,
                        api: Some("toFixed".into()),
                        behavior: "MissingRangeError".into(),
                    },
                    sim_hours: 0.0,
                    test_case: "var x = (11).toFixed(Infinity);\nprint(x);".into(),
                    origin: crate::testcase::Origin::EcmaMutation,
                    earliest_version: String::new(),
                    kind: DeviationKind::MissingError,
                    strict_only: false,
                    component: Component::Implementation,
                    api_type: ApiType::Number,
                    matched_bug: None,
                    adjudication: Adjudication {
                        verified: true,
                        fixed: false,
                        rejected: false,
                        accepted_test262: false,
                        novel: true,
                    },
                })
                .collect();
        let fresh = feedback_round(&bugs, &comfort_engines::latest_testbeds(), 400_000, 7);
        assert!(fresh.is_empty(), "known bugs re-reported under another label: {fresh:?}");
    }

    #[test]
    fn feedback_round_only_reports_new_keys() {
        use crate::campaign::{Campaign, CampaignConfig};
        use comfort_lm::GeneratorConfig;
        let mut campaign = Campaign::new(CampaignConfig {
            seed: 77,
            corpus_programs: 80,
            lm: GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 700 },
            max_cases: 80,
            include_strict: false,
            include_legacy: false,
            reduce_cases: true,
            ..CampaignConfig::default()
        });
        let report = campaign.run();
        let beds = comfort_engines::latest_testbeds();
        let fresh = feedback_round(&report.bugs, &beds, 300_000, 9);
        // Every returned key must be genuinely new.
        for key in &fresh {
            assert!(
                !report.bugs.iter().any(|b| &b.key == key),
                "feedback returned a known bug: {key}"
            );
        }
    }
}
