//! Fuzzer comparison harness (Figure 8): equal test-execution budgets, a
//! shared testbed matrix, per-fuzzer dedup trees, and the shared developer
//! model for the confirm/fix window.

use comfort_syntax::parse;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::campaign::DeveloperModel;
use crate::differential::{run_differential, CaseOutcome};
use crate::filter::{behavior_label, BugKey, BugTree};
use crate::fuzzer::Fuzzer;

/// Comparison parameters.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Seed shared by every fuzzer's RNG (fresh stream per fuzzer).
    pub seed: u64,
    /// Test-case budget per fuzzer (the paper gives each fuzzer 72 h; time
    /// maps linearly onto the case budget).
    pub cases_each: usize,
    /// Simulated hours the budget corresponds to.
    pub hours: f64,
    /// Fuel per engine run.
    pub fuel: u64,
    /// Include the strict testbed group.
    pub include_strict: bool,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            seed: 72,
            cases_each: 400,
            hours: 72.0,
            fuel: 300_000,
            include_strict: false,
        }
    }
}

/// One fuzzer's result series.
#[derive(Debug, Clone)]
pub struct FuzzerSeries {
    /// Fuzzer name.
    pub name: String,
    /// `(sim hours, cumulative unique bugs)` per discovery event.
    pub discoveries: Vec<(f64, usize)>,
    /// Distinct bugs found within the budget.
    pub unique_bugs: usize,
    /// Of those, confirmed by the developer model within the window.
    pub confirmed: usize,
    /// Of those, fixed within the 3-month window.
    pub fixed: usize,
    /// Bugs no other compared fuzzer found (filled by [`compare`]).
    pub exclusive: usize,
    /// The discovered bug keys.
    pub keys: Vec<BugKey>,
}

/// Runs every fuzzer on an equal budget and reports per-fuzzer series.
pub fn compare(fuzzers: &mut [&mut dyn Fuzzer], config: &CompareConfig) -> Vec<FuzzerSeries> {
    let mut testbeds = comfort_engines::latest_testbeds();
    if config.include_strict {
        for name in comfort_engines::EngineName::ALL {
            testbeds
                .push(comfort_engines::Testbed::new(comfort_engines::Engine::latest(name), true));
        }
    }
    let dev = DeveloperModel { seed: config.seed };

    let mut all: Vec<FuzzerSeries> = Vec::new();
    for fuzzer in fuzzers.iter_mut() {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut tree = BugTree::new();
        let mut discoveries = Vec::new();
        let mut keys = Vec::new();
        let mut confirmed = 0;
        let mut fixed = 0;
        for i in 0..config.cases_each {
            let source = fuzzer.next_case(&mut rng);
            let Ok(program) = parse(&source) else { continue };
            let origin = fuzzer.current_origin();
            if let CaseOutcome::Deviations(devs) = run_differential(
                &program,
                &testbeds,
                &comfort_engines::RunOptions::with_fuel(config.fuel),
            ) {
                for d in devs {
                    let behavior = behavior_label(&d);
                    let provisional = BugKey {
                        engine: d.engine,
                        api: crate::campaign::dominant_api(&program),
                        behavior: behavior.clone(),
                    };
                    if tree.contains(&provisional) {
                        tree.observe(&provisional);
                        continue;
                    }
                    // Reduce before keying so the API layer of the dedup
                    // tree names the API actually involved — without this,
                    // one bug manifests once per distinct leading API of
                    // the triggering programs (massive over-counting).
                    let engine = d.engine;
                    let reduced = crate::reduce::reduce(&program, &mut |p| {
                        matches!(
                            run_differential(p, &testbeds, &comfort_engines::RunOptions::with_fuel(config.fuel)),
                            CaseOutcome::Deviations(dd)
                                if dd.iter().any(|r| r.engine == engine)
                        )
                    });
                    let key = BugKey {
                        engine: d.engine,
                        api: crate::campaign::dominant_api(&reduced),
                        behavior,
                    };
                    tree.observe(&provisional);
                    let fresh = key == provisional || tree.observe(&key);
                    if fresh {
                        let hours = config.hours * (i + 1) as f64 / config.cases_each as f64;
                        discoveries.push((hours, keys.len() + 1));
                        let verdict = dev.adjudicate(&key, origin, 0);
                        if verdict.verified {
                            confirmed += 1;
                            if verdict.fixed {
                                fixed += 1;
                            }
                        }
                        keys.push(key);
                    }
                }
            }
        }
        all.push(FuzzerSeries {
            name: fuzzer.name().to_string(),
            unique_bugs: keys.len(),
            discoveries,
            confirmed,
            fixed,
            exclusive: 0,
            keys,
        });
    }

    // Exclusivity: bugs no other fuzzer's key set contains.
    for i in 0..all.len() {
        let mine = all[i].keys.clone();
        let exclusive = mine
            .iter()
            .filter(|k| {
                all.iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .all(|(_, other)| !other.keys.contains(k))
            })
            .count();
        all[i].exclusive = exclusive;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::Origin;

    /// A degenerate fuzzer that always emits the Figure 2 bug trigger.
    struct OneTrick;
    impl Fuzzer for OneTrick {
        fn name(&self) -> &'static str {
            "one-trick"
        }
        fn next_case(&mut self, _rng: &mut StdRng) -> String {
            "print('Name: Albert'.substr(6, undefined));".to_string()
        }
        fn current_origin(&self) -> Origin {
            Origin::EcmaMutation
        }
    }

    /// A fuzzer that only emits conforming programs.
    struct Boring;
    impl Fuzzer for Boring {
        fn name(&self) -> &'static str {
            "boring"
        }
        fn next_case(&mut self, _rng: &mut StdRng) -> String {
            "print(1 + 1);".to_string()
        }
    }

    #[test]
    fn dedup_counts_one_bug_for_repeated_triggers() {
        let mut a = OneTrick;
        let mut b = Boring;
        let series = compare(
            &mut [&mut a, &mut b],
            &CompareConfig { cases_each: 10, fuel: 100_000, ..CompareConfig::default() },
        );
        assert_eq!(series[0].unique_bugs, 1);
        assert_eq!(series[0].exclusive, 1);
        assert_eq!(series[1].unique_bugs, 0);
        assert_eq!(series[1].exclusive, 0);
        // Discovery timeline is monotone.
        assert!(series[0].discoveries.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
