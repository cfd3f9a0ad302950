//! [`EngineProfile`] — glues a seeded-bug catalog slice to the interpreter's
//! [`ConformanceProfile`] hook interface.

use comfort_interp::hooks::{
    ArraySetBehavior, BuiltinSite, ConformanceProfile, Deviation, ValuePreview, ValueRecipe,
};

use crate::catalog::{Effect, SeededBug};
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
    /// The APIs some bug of `bugs` hooks, each once: the builtins whose
    /// sites [`ConformanceProfile::on_builtin`] can deviate at.
    hooked: Vec<&'static str>,
    /// The special-hook effects some bug of `bugs` has, read once here
    /// because the interpreter asks on every array store, and a run that
    /// carries peers asks every peer too.
    specials: Specials,
}

/// Which special-hook effects a profile's bugs have.
#[derive(Debug, Clone, Copy)]
struct Specials {
    define_prop_length_suppress: bool,
    array_bool_key_append: bool,
    eval_headless_for: bool,
    split_anchor: bool,
    array_reverse_fill: bool,
}

impl EngineProfile {
    /// Builds the profile for `version` from the shared catalog.
    pub fn new(version: EngineVersion) -> Self {
        let bugs: Vec<SeededBug> = crate::shared_catalog()
            .iter()
            .filter(|b| b.engine == version.engine && b.active_in(version.ordinal))
            .cloned()
            .collect();
        let mut hooked: Vec<&'static str> = bugs.iter().filter_map(|b| b.api).collect();
        hooked.sort_unstable();
        hooked.dedup();
        let has = |effect: Effect| bugs.iter().any(|b| b.effect == effect);
        let specials = Specials {
            define_prop_length_suppress: has(Effect::DefinePropLengthSuppress),
            array_bool_key_append: has(Effect::ArrayBoolKeyAppend),
            eval_headless_for: has(Effect::EvalHeadlessFor),
            split_anchor: has(Effect::SplitAnchor),
            array_reverse_fill: has(Effect::ArrayReverseFill),
        };
        EngineProfile { version, bugs, hooked, specials }
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
        if target_class == "Array" && key == "length" && self.specials.define_prop_length_suppress {
            Deviation::SuppressThrow(&ARG0)
        } else {
            Deviation::None
        }
    }

    fn on_array_key_set(&self, key: &ValuePreview) -> ArraySetBehavior {
        if matches!(key, ValuePreview::Bool(true)) && self.specials.array_bool_key_append {
            ArraySetBehavior::AppendElement
        } else {
            ArraySetBehavior::Normal
        }
    }

    fn eval_tolerates_headless_for(&self) -> bool {
        self.specials.eval_headless_for
    }

    fn split_anchor_broken(&self) -> bool {
        self.specials.split_anchor
    }

    fn array_reverse_fill_penalty(&self) -> u64 {
        if self.specials.array_reverse_fill {
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
