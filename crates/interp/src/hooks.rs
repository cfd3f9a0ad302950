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
//!
//! # The purity contract
//!
//! A run is a pure function of its chunk, its options and the answers its
//! profile gives: the interpreter reads no other state of the profile, and
//! the questions it asks depend only on the answers it got before. Two
//! profiles that answer every question of one run alike therefore produce
//! that run bit for bit (status, output, fuel and coverage). [`Agreement`]
//! rests on this: it runs one profile and keeps, among its *peers*, those
//! that would have answered every question of the run alike, so the run
//! stands for theirs too. The [`ConformanceProfile::hooks_api`] gate is no
//! answer: by its contract a refused API answers [`Deviation::None`] at
//! every site, so answers compare after the gate.

use std::cell::RefCell;

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

/// A profile that answers every query as `own` does while it carries
/// `peers` along: a peer stays *live* while its answer to every query so far
/// equals `own`'s, and is dropped at the first that differs.
///
/// Under the purity contract (see the module docs) a run under an
/// `Agreement` is the run under `own`, and each peer still live when it
/// ends ([`Agreement::into_agreed`]) would have produced the same run on
/// its own. The compared answers are `on_builtin` (each side gated by its
/// own `hooks_api`), `on_define_property`, `on_array_key_set` and the three
/// capability queries. `hooks_api` admits an API while `own` or any live
/// peer hooks it, so every peer that could deviate there is asked.
///
/// `profile_of` reads a peer's profile out of the `peers` slice, so callers
/// pass the slice they already hold instead of collecting profiles.
pub struct Agreement<'p, P, T> {
    own: &'p P,
    peers: &'p [T],
    profile_of: fn(&T) -> &P,
    /// Positions in `peers` of the peers that agreed so far, ascending.
    live: RefCell<Vec<usize>>,
}

impl<'p, P: ConformanceProfile, T> Agreement<'p, P, T> {
    /// Answers as `own`, carrying the peers at positions `live` of `peers`
    /// (ascending; a position may be left out to drop that peer up front).
    pub fn new(own: &'p P, peers: &'p [T], profile_of: fn(&T) -> &P, live: Vec<usize>) -> Self {
        Agreement { own, peers, profile_of, live: RefCell::new(live) }
    }

    /// The positions in `peers` of the peers whose every answer equalled
    /// `own`'s, ascending.
    pub fn into_agreed(self) -> Vec<usize> {
        self.live.into_inner()
    }

    fn peer(&self, k: usize) -> &'p P {
        (self.profile_of)(&self.peers[k])
    }

    /// Drops every live peer whose `answer` differs from `own`'s.
    fn sift<A: PartialEq>(&self, own: &A, answer: impl Fn(&'p P) -> A) {
        self.live.borrow_mut().retain(|&k| answer(self.peer(k)) == *own);
    }
}

/// `profile`'s answer at `site`, gated as the interpreter gates it.
fn gated<'a, P: ConformanceProfile>(profile: &'a P, site: &BuiltinSite) -> Deviation<'a> {
    if profile.hooks_api(site.api) {
        profile.on_builtin(site)
    } else {
        Deviation::None
    }
}

impl<P: ConformanceProfile, T> ConformanceProfile for Agreement<'_, P, T> {
    fn hooks_api(&self, api: &str) -> bool {
        self.own.hooks_api(api) || self.live.borrow().iter().any(|&k| self.peer(k).hooks_api(api))
    }

    fn on_builtin(&self, site: &BuiltinSite) -> Deviation<'_> {
        let own = gated(self.own, site);
        self.sift(&own, |peer| gated(peer, site));
        own
    }

    fn on_define_property(
        &self,
        target_class: &'static str,
        key: &str,
        strict: bool,
    ) -> Deviation<'_> {
        let own = self.own.on_define_property(target_class, key, strict);
        self.sift(&own, |peer| peer.on_define_property(target_class, key, strict));
        own
    }

    fn on_array_key_set(&self, key: &ValuePreview) -> ArraySetBehavior {
        let own = self.own.on_array_key_set(key);
        self.sift(&own, |peer| peer.on_array_key_set(key));
        own
    }

    fn eval_tolerates_headless_for(&self) -> bool {
        let own = self.own.eval_tolerates_headless_for();
        self.sift(&own, |peer| peer.eval_tolerates_headless_for());
        own
    }

    fn split_anchor_broken(&self) -> bool {
        let own = self.own.split_anchor_broken();
        self.sift(&own, |peer| peer.split_anchor_broken());
        own
    }

    fn array_reverse_fill_penalty(&self) -> u64 {
        let own = self.own.array_reverse_fill_penalty();
        self.sift(&own, |peer| peer.array_reverse_fill_penalty());
        own
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

    /// Burns one extra unit of fuel at one API and answers spec elsewhere.
    struct SlowAt(&'static str);

    impl ConformanceProfile for SlowAt {
        fn hooks_api(&self, api: &str) -> bool {
            api == self.0
        }

        fn on_builtin(&self, site: &BuiltinSite) -> Deviation<'_> {
            if site.api == self.0 {
                Deviation::Slowdown(1)
            } else {
                Deviation::None
            }
        }
    }

    #[test]
    fn agreement_keeps_exactly_the_peers_that_answer_alike() {
        use crate::{compile, run_chunk, RunOptions};
        let chunk = compile(
            &comfort_syntax::parse("print('abc'.substr(1), Math.abs(-2));").expect("parses"),
        );
        let options = RunOptions::with_fuel(10_000);
        let own = SlowAt("JSON.parse");
        let peers = [
            SlowAt("String.prototype.substr"),
            SlowAt("Math.max"),
            SlowAt("Math.abs"),
            SlowAt("parseInt"),
        ];
        let agreement = Agreement::new(&own, &peers, |peer| peer, vec![0, 1, 2, 3]);
        let run = run_chunk(&chunk, &agreement, &options);
        assert_eq!(run, run_chunk(&chunk, &own, &options), "the run is own's");
        assert_eq!(agreement.into_agreed(), vec![1, 3]);
        for (k, peer) in peers.iter().enumerate() {
            let alone = run_chunk(&chunk, peer, &options);
            assert_eq!(alone == run, k % 2 == 1, "peer {k} agreed but runs otherwise");
        }
        // A peer left out up front never agrees.
        let agreement = Agreement::new(&own, &peers, |peer| peer, vec![3]);
        run_chunk(&chunk, &agreement, &options);
        assert_eq!(agreement.into_agreed(), vec![3]);
    }

    #[test]
    fn previews_expose_accessors() {
        assert!(ValuePreview::Undefined.is_undefined());
        assert_eq!(ValuePreview::Number(2.5).as_number(), Some(2.5));
        assert_eq!(ValuePreview::Str("x".into()).as_str(), Some("x"));
        assert_eq!(ValuePreview::Bool(true).as_number(), None);
    }
}
