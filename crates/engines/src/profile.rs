//! [`EngineProfile`] — glues a seeded-bug catalog slice to the interpreter's
//! [`ConformanceProfile`] hook interface.

use comfort_interp::hooks::{
    ArraySetBehavior, BuiltinSite, ConformanceProfile, Deviation, ValuePreview, ValueRecipe,
};
use comfort_interp::ApiFootprint;

use crate::bug_table::{bug_may_fire, BehaviorId, ClassedBug, GateAnswers};
use crate::catalog::{BugId, Effect, SeededBug, Trigger};
use crate::registry::{EngineName, EngineVersion};

/// Shared recipe for the define-property suppression path, served by
/// reference from the hook (the hook returns borrowed recipes).
static ARG0: ValueRecipe = ValueRecipe::Arg(0);

/// The behaviour of one engine *version*: the reference interpreter plus the
/// catalog bugs active in that version.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    version: EngineVersion,
    bugs: Vec<SeededBug>,
    /// `classed[k]` is `bugs[k]` as the shared bug table classes it.
    classed: Vec<ClassedBug>,
    /// The APIs some bug of `bugs` hooks, each once: the builtins whose
    /// sites [`ConformanceProfile::on_builtin`] can deviate at.
    hooked: Vec<&'static str>,
}

impl EngineProfile {
    /// Builds the profile for `version` from the shared catalog.
    pub fn new(version: EngineVersion) -> Self {
        let table = crate::shared_bug_table();
        let (bugs, classed): (Vec<SeededBug>, _) = crate::shared_catalog()
            .iter()
            .enumerate()
            .filter(|(_, b)| b.engine == version.engine && b.active_in(version.ordinal))
            .map(|(k, b)| (b.clone(), table.bug(k)))
            .unzip();
        let mut hooked: Vec<&'static str> = bugs.iter().filter_map(|b| b.api).collect();
        hooked.sort_unstable();
        hooked.dedup();
        EngineProfile { version, bugs, classed, hooked }
    }

    /// The engine this profile simulates.
    pub fn engine(&self) -> EngineName {
        self.version.engine
    }

    /// The version row this profile simulates.
    pub fn version(&self) -> &EngineVersion {
        &self.version
    }

    /// The seeded bugs active in this version.
    pub fn bugs(&self) -> &[SeededBug] {
        &self.bugs
    }

    /// The bug whose trigger matches `site`, if any (first catalog order).
    fn matching_bug(&self, site: &BuiltinSite) -> Option<&SeededBug> {
        self.bugs.iter().find(|b| {
            b.api == Some(site.api)
                && (!b.strict_only || site.strict)
                && b.triggers.iter().all(|t| t.matches(&site.receiver, &site.args))
        })
    }

    /// The relevance query: ids of this profile's bugs that `footprint`
    /// cannot rule out for a given chunk, in catalog order.
    ///
    /// Two testbeds of the same mode whose relevant-bug sets are equal are
    /// behaviourally identical on that chunk — bugs are the *only* runtime
    /// difference between profiles, and a bug whose hook site is provably
    /// unreachable can never fire. `Effect::Perf` bugs are included like any
    /// other (burning fuel changes `OutOfFuel` outcomes). A poisoned
    /// footprint returns every active bug, i.e. no collapse.
    pub fn relevant_bugs(&self, footprint: &ApiFootprint) -> Vec<BugId> {
        self.bugs.iter().filter(|b| bug_may_fire(b, footprint)).map(|b| b.id).collect()
    }

    /// The behaviour-level relevance query: semantic descriptions of the
    /// bugs `footprint` cannot rule out, in catalog order. Unlike
    /// [`Self::relevant_bugs`] this compares *across engines*: two testbeds
    /// with pairwise-equal sequences respond identically at every reachable
    /// hook site, so the execution-dedup layer can put them in one class
    /// even when their bug ids differ. Bugs that only manifest at strict
    /// sites are dropped when `strict_sites` is `false` (a non-strict
    /// testbed running a program with no `"use strict"` prologue — pass
    /// `testbed.strict || footprint.has_strict_sites()`).
    pub fn relevant_behavior(
        &self,
        footprint: &ApiFootprint,
        strict_sites: bool,
    ) -> Vec<BugBehavior<'_>> {
        self.bugs
            .iter()
            .filter(|b| (strict_sites || !b.strict_only) && bug_may_fire(b, footprint))
            .map(BugBehavior::of)
            .collect()
    }

    /// See [`crate::Engine::push_class_key`].
    pub(crate) fn push_class_key(
        &self,
        gates: &GateAnswers,
        strict_sites: bool,
        key: &mut Vec<BehaviorId>,
    ) {
        key.extend(
            self.classed
                .iter()
                .filter(|b| (strict_sites || !b.strict_only) && gates.admits(b.gate))
                .map(|b| b.behavior),
        );
    }
}

/// Engine-independent description of what one seeded bug does at its hook
/// site: where it hooks, when it triggers, and the deviation it applies.
/// Two testbeds of the same mode whose relevant-bug sequences are pairwise
/// equal under this comparison produce bit-identical runs on the chunk —
/// the hook layer is the *only* behavioural difference between profiles,
/// and first-match resolution walks the same semantic sequence. The one
/// engine-dependent observable is the synthesized `WrongThrow` message
/// (it embeds the engine name), so those bugs carry `message_engine` and
/// only compare equal within a single engine.
#[derive(Debug, Clone, PartialEq)]
pub struct BugBehavior<'a> {
    api: Option<&'static str>,
    triggers: &'a [Trigger],
    effect: &'a Effect,
    strict_only: bool,
    message_engine: Option<EngineName>,
}

impl<'a> BugBehavior<'a> {
    /// The behaviour of `bug`, tagged with its engine when it throws.
    pub(crate) fn of(bug: &'a SeededBug) -> BugBehavior<'a> {
        BugBehavior {
            api: bug.api,
            triggers: &bug.triggers,
            effect: &bug.effect,
            strict_only: bug.strict_only,
            message_engine: matches!(bug.effect, Effect::WrongThrow(_)).then_some(bug.engine),
        }
    }
}

impl ConformanceProfile for EngineProfile {
    /// `true` exactly for the APIs an active bug names: elsewhere
    /// `matching_bug` finds nothing and `on_builtin` answers `None`.
    fn hooks_api(&self, api: &str) -> bool {
        self.hooked.contains(&api)
    }

    fn on_builtin(&self, site: &BuiltinSite) -> Deviation<'_> {
        match self.matching_bug(site).map(|b| &b.effect) {
            None => Deviation::None,
            Some(Effect::WrongValue(recipe)) => Deviation::ReturnValue(recipe),
            Some(Effect::WrongThrow(kind)) => Deviation::ThrowError(
                *kind,
                format!("invalid argument to {} ({})", site.api, self.version.engine),
            ),
            Some(Effect::MissingThrow(recipe)) => Deviation::SuppressThrow(recipe),
            Some(Effect::Crash) => {
                Deviation::Crash(format!("Segmentation fault (core dumped) in {}", site.api))
            }
            Some(Effect::Perf(extra)) => Deviation::Slowdown(*extra),
            // Special-hook effects never route through `on_builtin`.
            Some(
                Effect::EvalHeadlessFor
                | Effect::SplitAnchor
                | Effect::ArrayBoolKeyAppend
                | Effect::ArrayReverseFill
                | Effect::DefinePropLengthSuppress,
            ) => Deviation::None,
        }
    }

    fn on_define_property(
        &self,
        target_class: &'static str,
        key: &str,
        _strict: bool,
    ) -> Deviation<'_> {
        if target_class == "Array"
            && key == "length"
            && self.bugs.iter().any(|b| b.effect == Effect::DefinePropLengthSuppress)
        {
            Deviation::SuppressThrow(&ARG0)
        } else {
            Deviation::None
        }
    }

    fn on_array_key_set(&self, key: &ValuePreview) -> ArraySetBehavior {
        if matches!(key, ValuePreview::Bool(true))
            && self.bugs.iter().any(|b| b.effect == Effect::ArrayBoolKeyAppend)
        {
            ArraySetBehavior::AppendElement
        } else {
            ArraySetBehavior::Normal
        }
    }

    fn eval_tolerates_headless_for(&self) -> bool {
        self.bugs.iter().any(|b| b.effect == Effect::EvalHeadlessFor)
    }

    fn split_anchor_broken(&self) -> bool {
        self.bugs.iter().any(|b| b.effect == Effect::SplitAnchor)
    }

    fn array_reverse_fill_penalty(&self) -> u64 {
        if self.bugs.iter().any(|b| b.effect == Effect::ArrayReverseFill) {
            48
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::all_versions;
    use comfort_interp::hooks::SpecProfile;

    /// Every API a catalog bug names, plus builtins no bug needs to name.
    fn apis() -> Vec<&'static str> {
        let mut apis: Vec<&'static str> =
            crate::shared_catalog().iter().filter_map(|b| b.api).collect();
        apis.extend(["print", "eval", "Math.max", "Array.prototype.push", "Object.keys", ""]);
        apis.sort_unstable();
        apis.dedup();
        apis
    }

    #[test]
    fn hooks_api_admits_exactly_the_apis_of_active_bugs() {
        let apis = apis();
        let (mut admitted, mut refused) = (0, 0);
        for version in all_versions() {
            let profile = EngineProfile::new(version);
            for &api in &apis {
                let named = profile.bugs().iter().any(|b| b.api == Some(api));
                assert_eq!(profile.hooks_api(api), named, "{:?}: {api}", profile.version());
                if named {
                    admitted += 1;
                } else {
                    // A refused API is one where no site can deviate.
                    let site = BuiltinSite {
                        api,
                        receiver: ValuePreview::Undefined,
                        args: Vec::new(),
                        strict: true,
                    };
                    assert_eq!(profile.on_builtin(&site), Deviation::None);
                    refused += 1;
                }
            }
        }
        assert!(admitted > 0 && refused > 0, "{admitted} admitted, {refused} refused");
    }

    #[test]
    fn the_spec_profile_hooks_no_api() {
        assert!(apis().iter().all(|&api| !SpecProfile.hooks_api(api)));
    }
}
