//! The precomputed bug table behind footprint classing.
//!
//! Classing a chunk's testbed matrix (`ExecutionClasses` in `comfort-core`)
//! keys each testbed by the behaviours of its active bugs that the chunk's
//! footprint cannot rule out. [`EngineProfile::relevant_behavior`] answers
//! that question directly, and stays as its reference; it builds behaviour
//! vectors to deep-compare. The table answers it from data interned once
//! per process over the shared catalog:
//!
//! * each seeded bug's **gate**, the footprint query that can rule it out.
//!   A chunk answers every distinct gate once, in one pass over its
//!   footprint's atoms ([`GateAnswers`]), where `relevant_behavior` asks
//!   the footprint again for every active bug of every testbed;
//! * each seeded bug's **behaviour id** ([`BehaviorId`]), equal exactly when
//!   the [`BugBehavior`]s are, so testbed keys compare as short id slices.
//!
//! [`EngineProfile::relevant_behavior`]: crate::EngineProfile::relevant_behavior

use std::collections::HashMap;

use comfort_interp::ApiFootprint;

use crate::catalog::{Effect, SeededBug};
use crate::profile::BugBehavior;

/// The footprint query that can rule a seeded bug out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// A shape the analysis doesn't model: the bug may always fire.
    Always,
    /// The program may store through a computed index.
    IndexStore,
    /// The footprint mentions this atom.
    Mentions(&'static str),
    /// The footprint mentions this API by terminal segment or by full name.
    MentionsApi(&'static str),
}

impl Gate {
    fn of(bug: &SeededBug) -> Gate {
        match &bug.effect {
            // Special-hook effects ignore `bug.api`; gate on the construct
            // that reaches their hook instead.
            Effect::EvalHeadlessFor => Gate::Mentions("eval"),
            Effect::SplitAnchor => Gate::Mentions("split"),
            Effect::ArrayBoolKeyAppend | Effect::ArrayReverseFill => Gate::IndexStore,
            Effect::DefinePropLengthSuppress => Gate::Mentions("defineProperty"),
            // API-keyed effects fire only via `on_builtin`. The footprint
            // tracks explicit sites by terminal name segment and the natives
            // implicit `ToPrimitive` can dispatch by full API name (see
            // `comfort_interp::footprint::IMPLICIT_COERCION_APIS`), so a bug
            // may fire if either form is mentioned.
            _ => bug.api.map_or(Gate::Always, Gate::MentionsApi),
        }
    }

    /// `false` only when `fp` proves the gated hook site unreachable. A
    /// poisoned footprint admits every gate.
    fn admits(self, fp: &ApiFootprint) -> bool {
        match self {
            Gate::Always => true,
            Gate::IndexStore => fp.has_index_store(),
            Gate::Mentions(atom) => fp.mentions(atom),
            Gate::MentionsApi(api) => fp.mentions(terminal_segment(api)) || fp.mentions(api),
        }
    }
}

/// `"String.prototype.substr"` → `"substr"`; dotless names pass through.
fn terminal_segment(api: &str) -> &str {
    api.rsplit('.').next().unwrap_or(api)
}

/// `false` only when `footprint` proves the bug's hook site unreachable.
pub(crate) fn bug_may_fire(bug: &SeededBug, footprint: &ApiFootprint) -> bool {
    Gate::of(bug).admits(footprint)
}

/// A seeded bug's interned behaviour: two ids are equal exactly when their
/// [`BugBehavior`]s are.
///
/// That equality is not reflexive, just as the `f64`s inside a behaviour's
/// triggers and recipes are not: a behaviour holding a NaN (a
/// `WrongValue(Number(NaN))` recipe) is unequal to every behaviour, itself
/// included, and so is its id. A testbed whose class key holds one shares
/// no class, as with `relevant_behavior` keys.
#[derive(Debug, Clone, Copy)]
pub struct BehaviorId(u32);

impl BehaviorId {
    /// The id of every behaviour that is unequal to itself.
    const UNEQUAL: BehaviorId = BehaviorId(u32::MAX);
}

impl PartialEq for BehaviorId {
    fn eq(&self, other: &BehaviorId) -> bool {
        self.0 == other.0 && self.0 != BehaviorId::UNEQUAL.0
    }
}

/// One catalog bug as the classing layer sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassedBug {
    /// Index into [`BugTable::gates`].
    pub(crate) gate: u32,
    pub(crate) behavior: BehaviorId,
    pub(crate) strict_only: bool,
}

/// Gates and behaviour ids for every bug of one catalog, in catalog order.
#[derive(Debug)]
pub(crate) struct BugTable {
    /// The distinct gates, each listed once.
    gates: Vec<Gate>,
    /// The gates a footprint atom opens: a `Mentions` gate under its atom, a
    /// `MentionsApi` gate under its API's terminal segment and full name.
    by_atom: HashMap<&'static str, Vec<u32>>,
    /// `bugs[k]` classes catalog bug `k`.
    bugs: Vec<ClassedBug>,
}

impl BugTable {
    pub(crate) fn new(catalog: &[SeededBug]) -> BugTable {
        let mut gates: Vec<Gate> = Vec::new();
        let mut behaviors: Vec<BugBehavior<'_>> = Vec::new();
        let bugs = catalog
            .iter()
            .map(|bug| {
                let gate = Gate::of(bug);
                let gate = gates.iter().position(|g| *g == gate).unwrap_or_else(|| {
                    gates.push(gate);
                    gates.len() - 1
                });
                let behavior = BugBehavior::of(bug);
                // Interning relies on equality being reflexive; a behaviour
                // unequal to itself gets the id that is unequal to all.
                let behavior = if !PartialEq::eq(&behavior, &behavior) {
                    BehaviorId::UNEQUAL
                } else {
                    let id = behaviors.iter().position(|b| *b == behavior).unwrap_or_else(|| {
                        behaviors.push(behavior);
                        behaviors.len() - 1
                    });
                    BehaviorId(id as u32)
                };
                ClassedBug { gate: gate as u32, behavior, strict_only: bug.strict_only }
            })
            .collect();
        let mut by_atom: HashMap<&'static str, Vec<u32>> = HashMap::new();
        for (g, gate) in gates.iter().enumerate() {
            let atoms = match *gate {
                Gate::Always | Gate::IndexStore => vec![],
                Gate::Mentions(atom) => vec![atom],
                Gate::MentionsApi(api) => vec![terminal_segment(api), api],
            };
            for atom in atoms {
                by_atom.entry(atom).or_default().push(g as u32);
            }
        }
        BugTable { gates, by_atom, bugs }
    }

    /// The classing data of catalog bug `index`.
    pub(crate) fn bug(&self, index: usize) -> ClassedBug {
        self.bugs[index]
    }
}

/// One chunk's answers to every gate of the shared bug table, found in one
/// pass over the chunk's footprint atoms.
#[derive(Debug)]
pub struct GateAnswers {
    open: Vec<bool>,
}

impl GateAnswers {
    /// The answers for the chunk whose footprint is `footprint`: exactly
    /// what each gate's own footprint query would return.
    pub fn new(footprint: &ApiFootprint) -> GateAnswers {
        let table = crate::shared_bug_table();
        let mut open: Vec<bool> = table
            .gates
            .iter()
            .map(|gate| match gate {
                Gate::Always | Gate::IndexStore => gate.admits(footprint),
                // Closed until one of its atoms turns up below.
                Gate::Mentions(_) | Gate::MentionsApi(_) => footprint.is_poisoned(),
            })
            .collect();
        for atom in footprint.atoms() {
            for &g in table.by_atom.get(atom).into_iter().flatten() {
                open[g as usize] = true;
            }
        }
        GateAnswers { open }
    }

    /// The answer to gate `gate` (a [`ClassedBug::gate`]).
    pub(crate) fn admits(&self, gate: u32) -> bool {
        self.open[gate as usize]
    }
}
