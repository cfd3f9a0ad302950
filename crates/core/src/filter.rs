//! The tree-based identical-miscompilation filter (§3.6, Figure 6).
//!
//! Three layers: **engine** → **API function** (or `None`) → **behaviour**
//! (TypeError, TimeOut, Crash, WrongOutput, …). A test case whose path
//! already exists in the tree is considered a duplicate of a known bug; a
//! new path adds a leaf and reports a new bug.

use std::collections::{BTreeMap, BTreeSet};

use comfort_engines::EngineName;

use crate::differential::{DeviationKind, DeviationRecord};

/// Key of one leaf: the (engine, API, behaviour) path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BugKey {
    /// Layer 1: the deviating engine.
    pub engine: EngineName,
    /// Layer 2: the JS API involved, if the test case calls one.
    pub api: Option<String>,
    /// Layer 3: the miscompilation behaviour label.
    pub behavior: String,
}

impl std::fmt::Display for BugKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} / {} / {}", self.engine, self.api.as_deref().unwrap_or("None"), self.behavior)
    }
}

/// The behaviour label (layer 3) of a deviation. Every site that keys the
/// tree must use it, or one bug files under two labels and a tree seeded
/// with known keys re-reports it as new.
pub fn behavior_label(dev_rec: &DeviationRecord) -> String {
    match dev_rec.kind {
        DeviationKind::UnexpectedError => dev_rec.actual.to_string(),
        DeviationKind::MissingError => format!("Missing{}", dev_rec.expected),
        DeviationKind::WrongOutput => "WrongOutput".to_string(),
        DeviationKind::Crash => "Crash".to_string(),
        DeviationKind::Timeout => "TimeOut".to_string(),
    }
}

/// A point-in-time summary of the filter tree, for campaign metrics and
/// telemetry (dedup pressure = `duplicates / observed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Distinct bugs (leaf decision nodes).
    pub leaves: usize,
    /// Total observations classified.
    pub observed: u64,
    /// Observations rejected as duplicates.
    pub duplicates: u64,
}

/// The knowledge-base tree.
#[derive(Debug, Clone, Default)]
pub struct BugTree {
    layers: BTreeMap<EngineName, BTreeMap<Option<String>, BTreeSet<String>>>,
    observed: u64,
    duplicates: u64,
}

impl BugTree {
    /// An empty knowledge base.
    pub fn new() -> Self {
        BugTree::default()
    }

    /// Classifies an observation. Returns `true` when the path is **new**
    /// (a new leaf is added); `false` for a duplicate of a known bug.
    pub fn observe(&mut self, key: &BugKey) -> bool {
        self.observed += 1;
        let fresh = self
            .layers
            .entry(key.engine)
            .or_default()
            .entry(key.api.clone())
            .or_default()
            .insert(key.behavior.clone());
        if !fresh {
            self.duplicates += 1;
        }
        fresh
    }

    /// `true` if the path is already known (no mutation).
    pub fn contains(&self, key: &BugKey) -> bool {
        self.layers
            .get(&key.engine)
            .and_then(|apis| apis.get(&key.api))
            .is_some_and(|set| set.contains(&key.behavior))
    }

    /// Number of leaf decision nodes (distinct bugs).
    pub fn leaf_count(&self) -> usize {
        self.layers.values().flat_map(|apis| apis.values()).map(BTreeSet::len).sum()
    }

    /// Leaves under one engine.
    pub fn leaves_for(&self, engine: EngineName) -> usize {
        self.layers.get(&engine).map(|apis| apis.values().map(BTreeSet::len).sum()).unwrap_or(0)
    }

    /// Total observations fed to the filter.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Observations rejected as duplicates (the paper reports tens of
    /// thousands filtered).
    pub fn duplicates_filtered(&self) -> u64 {
        self.duplicates
    }

    /// Snapshot of the tree's classification counters.
    pub fn stats(&self) -> FilterStats {
        FilterStats {
            leaves: self.leaf_count(),
            observed: self.observed,
            duplicates: self.duplicates,
        }
    }

    /// Iterates all leaves as [`BugKey`]s.
    pub fn keys(&self) -> impl Iterator<Item = BugKey> + '_ {
        self.layers.iter().flat_map(|(engine, apis)| {
            apis.iter().flat_map(move |(api, behaviors)| {
                behaviors.iter().map(move |b| BugKey {
                    engine: *engine,
                    api: api.clone(),
                    behavior: b.clone(),
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(engine: EngineName, api: Option<&str>, behavior: &str) -> BugKey {
        BugKey { engine, api: api.map(str::to_string), behavior: behavior.to_string() }
    }

    #[test]
    fn first_observation_is_new_second_is_duplicate() {
        let mut tree = BugTree::new();
        let k = key(EngineName::Rhino, Some("substr"), "WrongOutput");
        assert!(tree.observe(&k));
        assert!(!tree.observe(&k));
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.observed(), 2);
        assert_eq!(tree.duplicates_filtered(), 1);
        assert_eq!(tree.stats(), FilterStats { leaves: 1, observed: 2, duplicates: 1 });
    }

    #[test]
    fn layers_distinguish_engine_api_behavior() {
        let mut tree = BugTree::new();
        assert!(tree.observe(&key(EngineName::Rhino, Some("substr"), "WrongOutput")));
        assert!(tree.observe(&key(EngineName::V8, Some("substr"), "WrongOutput")));
        assert!(tree.observe(&key(EngineName::Rhino, Some("toFixed"), "WrongOutput")));
        assert!(tree.observe(&key(EngineName::Rhino, Some("substr"), "TypeError")));
        assert!(tree.observe(&key(EngineName::Rhino, None, "TimeOut")));
        assert_eq!(tree.leaf_count(), 5);
        assert_eq!(tree.leaves_for(EngineName::Rhino), 4);
        assert_eq!(tree.leaves_for(EngineName::Jsc), 0);
    }

    #[test]
    fn contains_does_not_mutate() {
        let mut tree = BugTree::new();
        let k = key(EngineName::Hermes, None, "TimeOut");
        assert!(!tree.contains(&k));
        tree.observe(&k);
        assert!(tree.contains(&k));
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn keys_roundtrip() {
        let mut tree = BugTree::new();
        let k1 = key(EngineName::QuickJs, Some("normalize"), "Crash");
        let k2 = key(EngineName::QuickJs, None, "WrongOutput");
        tree.observe(&k1);
        tree.observe(&k2);
        let all: Vec<BugKey> = tree.keys().collect();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&k1));
        assert!(all.contains(&k2));
    }
}
