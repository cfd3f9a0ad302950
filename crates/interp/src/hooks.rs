//! The conformance-profile hook interface.
//!
//! A [`ConformanceProfile`] is how `comfort-engines` injects *seeded
//! conformance bugs* into the reference interpreter: the interpreter calls
//! the hooks at well-defined points (builtin invocation, `defineProperty`,
//! array element stores, `eval` parsing, regex-driven `split`) and applies
//! whatever [`Deviation`] the profile returns. The reference engine is the
//! profile that always answers [`Deviation::None`].
//!
//! The hook payloads are *plain data* ([`ValuePreview`]), so profiles can be
//! table-driven and engine-agnostic.
//!
//! Building a [`BuiltinSite`] copies the receiver's and every argument's
//! preview, so the interpreter first asks [`ConformanceProfile::hooks_api`]
//! whether the profile can deviate at that API at all; where it answers
//! `false` the builtin runs directly, with no site and no `on_builtin` call.
//! A profile may answer `false` only for an API at whose every site
//! `on_builtin` answers [`Deviation::None`], so the gate skips only work
//! whose answer is already known.

/// A shallow, heap-free preview of a [`crate::Value`], handed to profiles.
#[derive(Debug, Clone, PartialEq)]
pub enum ValuePreview {
    /// `undefined`
    Undefined,
    /// `null`
    Null,
    /// Boolean primitive.
    Bool(bool),
    /// Number primitive.
    Number(f64),
    /// String primitive (truncated to 64 chars).
    Str(String),
    /// Array object with its current length.
    Array {
        /// `length` at call time.
        len: usize,
    },
    /// Any other object, identified by its class name.
    Object {
        /// `[[Class]]`-style name, e.g. `"RegExp"`, `"Uint32Array"`.
        class: &'static str,
    },
    /// A callable object.
    Function,
}

impl ValuePreview {
    /// `true` for `undefined`.
    pub fn is_undefined(&self) -> bool {
        matches!(self, ValuePreview::Undefined)
    }

    /// The numeric value, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            ValuePreview::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ValuePreview::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A builtin call site, as seen by [`ConformanceProfile::on_builtin`].
#[derive(Debug, Clone)]
pub struct BuiltinSite {
    /// Canonical API name, e.g. `"String.prototype.substr"`, `"parseInt"`,
    /// `"Uint32Array"` (for construction).
    pub api: &'static str,
    /// Receiver preview (`this`).
    pub receiver: ValuePreview,
    /// Argument previews.
    pub args: Vec<ValuePreview>,
    /// `true` when executing in strict mode.
    pub strict: bool,
}

/// A recipe the interpreter can materialize into a [`crate::Value`] without
/// needing heap access in the profile.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueRecipe {
    /// `undefined`
    Undefined,
    /// `null`
    Null,
    /// Boolean.
    Bool(bool),
    /// Number.
    Number(f64),
    /// String.
    Str(String),
    /// The receiver, unchanged.
    Receiver,
    /// Argument `i` (or `undefined` if absent), unchanged.
    Arg(usize),
    /// `ToString(receiver)` — e.g. Rhino's `toFixed(-2)` bug returns the
    /// plain decimal string instead of throwing a `RangeError`.
    ReceiverToString,
}

/// What a seeded bug does when its trigger fires.
///
/// Recipes are *borrowed* from the profile's catalog (`&'a ValueRecipe`):
/// `on_builtin` runs on the hot path of every builtin call, and the common
/// deviation payload is a recipe that already lives in a `'static` bug
/// table — cloning it per hit would be pure allocator traffic. The error
/// variants keep owned `String`s because their messages are formatted per
/// site.
#[derive(Debug, Clone, PartialEq)]
pub enum Deviation<'a> {
    /// No deviation: behave per ECMA-262.
    None,
    /// Skip the real builtin and return this value instead.
    ReturnValue(&'a ValueRecipe),
    /// Throw an error the spec does not call for.
    ThrowError(crate::ErrorKind, String),
    /// Run the real builtin, but if it throws, swallow the error and return
    /// the recipe instead (models "engine forgets to throw").
    SuppressThrow(&'a ValueRecipe),
    /// Simulated engine crash (segfault-style abort).
    Crash(String),
    /// Burn this much extra fuel (models a performance bug; enough fuel
    /// makes the testbed time out, like Hermes in Listing 2).
    Slowdown(u64),
}

/// How an array element store behaves (hook for the QuickJS Listing-6 bug).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArraySetBehavior {
    /// Per spec: a boolean key stringifies to a named property.
    Normal,
    /// Bug: append the value as a new dense element instead.
    AppendElement,
}

/// Engine-behaviour hooks. All methods default to spec behaviour.
///
/// `comfort-engines` implements this for each simulated engine version by
/// matching the site against its seeded-bug catalog.
pub trait ConformanceProfile {
    /// `false` only if [`Self::on_builtin`] answers [`Deviation::None`] at
    /// every site of `api`; the interpreter then calls the builtin without
    /// building the site. The default, `true`, consults `on_builtin` at
    /// every builtin call.
    fn hooks_api(&self, _api: &str) -> bool {
        true
    }

    /// Consulted before every builtin call (and builtin construction) whose
    /// API [`Self::hooks_api`] admits.
    fn on_builtin(&self, _site: &BuiltinSite) -> Deviation<'_> {
        Deviation::None
    }

    /// Consulted by `Object.defineProperty` before validity checks.
    /// Returning [`Deviation::SuppressThrow`] models V8's Listing-1 bug
    /// (silently accepting an illegal redefinition of array `length`).
    fn on_define_property(
        &self,
        _target_class: &'static str,
        _key: &str,
        _strict: bool,
    ) -> Deviation<'_> {
        Deviation::None
    }

    /// Consulted on `array[key] = value` when `key` is not an index.
    fn on_array_key_set(&self, _key: &ValuePreview) -> ArraySetBehavior {
        ArraySetBehavior::Normal
    }

    /// `true` if `eval` tolerates a `for(…)` head with no body (ChakraCore's
    /// Listing-7 bug: should be a `SyntaxError`).
    fn eval_tolerates_headless_for(&self) -> bool {
        false
    }

    /// `true` if the engine's regex engine mishandles a leading `^` anchor in
    /// `String.prototype.split` (JerryScript's Listing-8 bug).
    fn split_anchor_broken(&self) -> bool {
        false
    }

    /// Extra fuel charged per slot when filling an array in descending index
    /// order (Hermes's Listing-2 reallocation bug). `0` = no penalty.
    fn array_reverse_fill_penalty(&self) -> u64 {
        0
    }
}

/// The reference profile: a fully conformant engine (no deviations).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecProfile;

impl ConformanceProfile for SpecProfile {
    fn hooks_api(&self, _api: &str) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_profile_never_deviates() {
        let p = SpecProfile;
        let site = BuiltinSite {
            api: "String.prototype.substr",
            receiver: ValuePreview::Str("abc".into()),
            args: vec![ValuePreview::Number(0.0), ValuePreview::Undefined],
            strict: false,
        };
        assert!(!p.hooks_api(site.api));
        assert_eq!(p.on_builtin(&site), Deviation::None);
        assert_eq!(p.on_array_key_set(&ValuePreview::Bool(true)), ArraySetBehavior::Normal);
        assert!(!p.eval_tolerates_headless_for());
        assert!(!p.split_anchor_broken());
        assert_eq!(p.array_reverse_fill_penalty(), 0);
    }

    #[test]
    fn previews_expose_accessors() {
        assert!(ValuePreview::Undefined.is_undefined());
        assert_eq!(ValuePreview::Number(2.5).as_number(), Some(2.5));
        assert_eq!(ValuePreview::Str("x".into()).as_str(), Some("x"));
        assert_eq!(ValuePreview::Bool(true).as_number(), None);
    }
}
