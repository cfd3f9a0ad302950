//! Differential testing with majority voting (§3.4, Figure 5).
//!
//! A test case runs on every testbed; per *mode group* (normal testbeds are
//! compared with normal testbeds, strict with strict — the two groups have
//! different legal semantics), results collapse to a signature and the
//! majority signature defines expected behaviour. Engines whose signature
//! deviates from a strict majority are flagged.

use comfort_engines::{
    compile, BehaviorId, CompiledChunk, EngineName, GateAnswers, RunOptions, Testbed,
};
use comfort_interp::{ErrorKind, RunStatus};
use comfort_syntax::Program;
use std::ops::Range;
use std::sync::Arc;

/// Canonicalized result of one run: the comparison key for voting.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Signature {
    /// Completed with this output.
    Completed(String),
    /// Threw an error of this kind (message excluded: engines word their
    /// diagnostics differently even when conforming).
    Threw(Option<ErrorKind>),
    /// Deterministic timeout (fuel exhaustion).
    Timeout,
    /// Engine crash.
    Crash,
}

impl Signature {
    /// Builds the signature of a run result.
    pub fn of(status: &RunStatus, output: &str) -> Signature {
        match status {
            RunStatus::Completed => Signature::Completed(output.to_string()),
            RunStatus::Threw { kind, .. } => Signature::Threw(*kind),
            RunStatus::OutOfFuel => Signature::Timeout,
            RunStatus::Crashed(_) => Signature::Crash,
        }
    }
}

impl std::fmt::Display for Signature {
    /// Short human-readable rendering, used by reports and as the
    /// behaviour layer of the bug-filter tree.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Signature::Completed(out) => {
                let trimmed: String = out.chars().take(80).collect();
                write!(f, "output {trimmed:?}")
            }
            Signature::Threw(Some(kind)) => f.write_str(kind.name()),
            Signature::Threw(None) => f.write_str("throw"),
            Signature::Timeout => f.write_str("Timeout"),
            Signature::Crash => f.write_str("Crash"),
        }
    }
}

/// How an engine deviated from the majority (the Figure 5 buggy outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviationKind {
    /// Completed but with different output.
    WrongOutput,
    /// Threw where the majority completed (or threw a different kind).
    UnexpectedError,
    /// Completed where the majority threw.
    MissingError,
    /// Crashed.
    Crash,
    /// Timed out while the majority terminated.
    Timeout,
}

impl DeviationKind {
    /// Classifies a deviating signature against the majority's.
    pub fn classify(deviant: &Signature, majority: &Signature) -> DeviationKind {
        match (deviant, majority) {
            (Signature::Crash, _) => DeviationKind::Crash,
            (Signature::Timeout, _) => DeviationKind::Timeout,
            (Signature::Threw(_), Signature::Threw(_)) => DeviationKind::UnexpectedError,
            (Signature::Threw(_), _) => DeviationKind::UnexpectedError,
            (_, Signature::Threw(_)) => DeviationKind::MissingError,
            _ => DeviationKind::WrongOutput,
        }
    }

    /// Label used in reports and the bug-filter tree.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviationKind::WrongOutput => "WrongOutput",
            DeviationKind::UnexpectedError => "UnexpectedError",
            DeviationKind::MissingError => "MissingError",
            DeviationKind::Crash => "Crash",
            DeviationKind::Timeout => "TimeOut",
        }
    }

    /// Parses the label produced by [`DeviationKind::as_str`].
    pub fn parse_label(s: &str) -> Option<DeviationKind> {
        [
            DeviationKind::WrongOutput,
            DeviationKind::UnexpectedError,
            DeviationKind::MissingError,
            DeviationKind::Crash,
            DeviationKind::Timeout,
        ]
        .into_iter()
        .find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for DeviationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One engine's deviation on one test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviationRecord {
    /// Deviating engine.
    pub engine: EngineName,
    /// Version label (`"Rhino v1.7.12"`).
    pub version: String,
    /// `true` when observed on the strict testbed group.
    pub strict: bool,
    /// Classification.
    pub kind: DeviationKind,
    /// The deviating signature.
    pub actual: Signature,
    /// The majority signature.
    pub expected: Signature,
}

/// Outcome of running one test case across the testbeds (Figure 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// All testbeds rejected the program (consistent parsing error).
    ParseError,
    /// Every engine timed out (ignored per §3.4 — a huge/infinite loop).
    AllTimeout,
    /// All testbeds agreed.
    Pass,
    /// At least one engine deviates from a strict majority.
    Deviations(Vec<DeviationRecord>),
    /// No mode group had enough healthy voters to meet the quorum
    /// threshold (degraded execution; see [`QuorumPolicy`]). The case is
    /// recorded but cannot vote.
    NoQuorum,
}

impl CaseOutcome {
    /// `true` for [`CaseOutcome::Deviations`].
    pub fn is_deviating(&self) -> bool {
        matches!(self, CaseOutcome::Deviations(_))
    }
}

/// Runs `program` on `testbeds` and applies majority voting per mode group.
///
/// The program must already have parsed (a shared front end means a parse
/// error is consistent across engines; the caller classifies those as
/// [`CaseOutcome::ParseError`] without spending engine time).
///
/// `options` configures every per-testbed run; each testbed still overrides
/// the strict flag with its own mode (see [`Testbed::run_compiled`]).
///
/// Execution is classed like the campaign's case path (see
/// [`ExecutionClasses`]): one representative per behaviour class runs, and
/// its signature stands for its classmates. The outcome is the full
/// matrix's: every slot's own run voted with [`QuorumPolicy::LEGACY`].
pub fn run_differential(
    program: &Program,
    testbeds: &[Testbed],
    options: &RunOptions,
) -> CaseOutcome {
    run_differential_masked(program, testbeds, &vec![true; testbeds.len()], options)
}

/// [`run_differential`] over the masked-in slots only: a slot with
/// `mask[i] = false` neither runs nor votes, so the outcome's deviations are
/// those of the masked-in testbeds voting alone.
pub(crate) fn run_differential_masked(
    program: &Program,
    testbeds: &[Testbed],
    mask: &[bool],
    options: &RunOptions,
) -> CaseOutcome {
    let chunk = compile(program);
    let run = |bed: &Testbed| {
        let r = bed.run_compiled(&chunk, options);
        Signature::of(&r.status, &r.output)
    };
    let (classes, runs) = execute_classed(
        &chunk,
        testbeds,
        mask,
        true,
        |_| false,
        |run_mask| {
            run_mask
                .iter()
                .zip(testbeds)
                .map(|(&due, bed)| due.then(|| run(bed)))
                .collect::<Vec<_>>()
        },
    );
    let signatures: Vec<Option<Signature>> = (0..testbeds.len())
        .map(|i| mask[i].then(|| runs[classes.rep(i)].clone().expect("representative ran")))
        .collect();
    vote_on_signatures_quorum(testbeds, &signatures, &QuorumPolicy::LEGACY).0
}

/// Classed execution of one chunk, shared by [`run_differential`] and the
/// hardened case runner: partitions the masked-in slots into behaviour
/// classes and hands `execute` the run mask, which is `true` for each
/// class's representative. Slot `i` then reads its run from slot
/// `classes.rep(i)` of what `execute` produced.
///
/// A slot with a pending chaos fault diverges from its classmates by
/// construction, and so does any slot `exclusive` names: both are forced
/// singletons. With `dedup` off every masked-in slot runs.
pub(crate) fn execute_classed<R>(
    chunk: &Arc<CompiledChunk>,
    testbeds: &[Testbed],
    mask: &[bool],
    dedup: bool,
    exclusive: impl Fn(usize) -> bool,
    execute: impl FnOnce(&[bool]) -> R,
) -> (ExecutionClasses, R) {
    let classes = if dedup {
        let shareable: Vec<bool> = testbeds
            .iter()
            .enumerate()
            .map(|(i, bed)| !exclusive(i) && !bed.has_pending_fault(chunk))
            .collect();
        ExecutionClasses::compute(chunk, testbeds, mask, &shareable)
    } else {
        ExecutionClasses::identity(mask)
    };
    let runs: Vec<bool> =
        (0..testbeds.len()).map(|i| mask[i] && classes.is_representative(i)).collect();
    let results = execute(&runs);
    (classes, results)
}

/// Partition of a testbed matrix into behaviour-equivalence classes for one
/// chunk: `rep[i]` is the slot whose execution testbed `i` reuses
/// (`rep[i] == i` for class representatives and singletons).
///
/// Two testbeds fall in the same class when they have the same mode
/// (normal/strict vote separately and may differ semantically) and the same
/// sequence of bug *behaviours* the chunk's
/// [`comfort_interp::ApiFootprint`] cannot rule out
/// ([`comfort_engines::BugBehavior`]). Behaviours compare by hook site,
/// trigger, and deviation rather than by engine-specific bug id, so
/// testbeds of *different engines* merge when their relevant bugs are
/// semantically identical — the hook layer is the only behavioural
/// difference between profiles, and equal empty sequences mean both behave
/// as the clean reference. Either way the runs are bit-identical and one
/// execution can serve the whole class.
///
/// The key is read from the shared bug table
/// ([`comfort_engines::Engine::push_class_key`]): interned behaviour ids,
/// filtered by the table's footprint gates, which the chunk answers once
/// ([`GateAnswers`]). It compares exactly as `Engine::relevant_behavior`
/// sequences do, which stays as the reference.
///
/// Forced singletons keep the partition composable with the rest of the
/// harness: a slot with a pending chaos fault or a half-open quarantine
/// probe must observe its *own* run (`shareable[i] = false`). A poisoned
/// footprint disables classing entirely (full matrix).
#[derive(Debug, Clone)]
pub struct ExecutionClasses {
    rep: Vec<usize>,
    classes: usize,
}

impl ExecutionClasses {
    /// The trivial partition (every masked-in slot its own class) — the
    /// dedup-off path, identical to historical execution.
    pub fn identity(mask: &[bool]) -> ExecutionClasses {
        ExecutionClasses {
            rep: (0..mask.len()).collect(),
            classes: mask.iter().filter(|m| **m).count(),
        }
    }

    /// Computes the partition for `chunk`. `mask[i] = false` excludes slot
    /// `i` (quarantined — it neither runs nor joins a class);
    /// `shareable[i] = false` forces a masked-in slot into a singleton
    /// class. Representatives are chosen deterministically as the lowest
    /// masked-in index of each class, independent of thread count.
    pub fn compute(
        chunk: &CompiledChunk,
        testbeds: &[Testbed],
        mask: &[bool],
        shareable: &[bool],
    ) -> ExecutionClasses {
        debug_assert_eq!(testbeds.len(), mask.len());
        debug_assert_eq!(testbeds.len(), shareable.len());
        let mut out = ExecutionClasses::identity(mask);
        if chunk.footprint.is_poisoned() {
            return out; // analysis gave up: full matrix
        }
        out.classes = 0;
        let strict_sites = chunk.footprint.has_strict_sites();
        let gates = GateAnswers::new(&chunk.footprint);
        // The class keys lie back to back in `keys`; each class keeps its
        // mode, its key's span and its representative.
        let mut keys: Vec<BehaviorId> = Vec::new();
        let mut seen: Vec<(bool, Range<usize>, usize)> = Vec::new();
        for (i, bed) in testbeds.iter().enumerate() {
            if !mask[i] {
                continue;
            }
            if !shareable[i] {
                out.classes += 1; // forced singleton, rep[i] stays i
                continue;
            }
            let start = keys.len();
            bed.engine.push_class_key(&gates, bed.strict || strict_sites, &mut keys);
            let (known, key) = keys.split_at(start);
            match seen
                .iter()
                .find(|(strict, span, _)| *strict == bed.strict && known[span.clone()] == *key)
            {
                Some(&(_, _, leader)) => {
                    out.rep[i] = leader;
                    keys.truncate(start);
                }
                None => {
                    seen.push((bed.strict, start..keys.len(), i));
                    out.classes += 1;
                }
            }
        }
        out
    }

    /// The slot whose execution slot `i` reuses.
    pub fn rep(&self, i: usize) -> usize {
        self.rep[i]
    }

    /// `true` when slot `i` executes its own run.
    pub fn is_representative(&self, i: usize) -> bool {
        self.rep[i] == i
    }

    /// Number of classes over the masked-in slots (= physical executions).
    pub fn class_count(&self) -> usize {
        self.classes
    }

    /// Size of each class, keyed by representative index in ascending
    /// order (bench histograms).
    pub fn class_sizes(&self, mask: &[bool]) -> Vec<usize> {
        let mut sizes: Vec<(usize, usize)> = Vec::new();
        for (&r, &masked_in) in self.rep.iter().zip(mask) {
            if !masked_in {
                continue;
            }
            match sizes.iter_mut().find(|(leader, _)| *leader == r) {
                Some((_, n)) => *n += 1,
                None => sizes.push((r, 1)),
            }
        }
        sizes.sort_unstable_by_key(|(leader, _)| *leader);
        sizes.into_iter().map(|(_, n)| n).collect()
    }
}

/// Quorum threshold for degraded voting: how many healthy voters a mode
/// group needs before its majority vote counts. Groups below the threshold
/// are observed (for telemetry) but cast no vote, and a case where *no*
/// group reaches quorum resolves to [`CaseOutcome::NoQuorum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumPolicy {
    /// Minimum healthy voters per mode group.
    pub min_voters: usize,
}

impl Default for QuorumPolicy {
    /// Two voters: a single surviving engine has nothing to differ from,
    /// so its lone "majority" is not evidence.
    fn default() -> Self {
        QuorumPolicy { min_voters: 2 }
    }
}

impl QuorumPolicy {
    /// The legacy threshold (1): every non-empty group votes, which is
    /// exactly the pre-quorum behaviour of the harness.
    pub const LEGACY: QuorumPolicy = QuorumPolicy { min_voters: 1 };
}

/// Per-mode-group voting summary produced by
/// [`vote_on_signatures_quorum`] — the raw material for `QuorumDegraded`
/// telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupQuorum {
    /// `true` for the strict group.
    pub strict: bool,
    /// Healthy voters that cast a signature.
    pub present: usize,
    /// Full group membership (healthy + quarantined).
    pub total: usize,
    /// Whether the group met the quorum threshold and voted.
    pub voted: bool,
}

impl GroupQuorum {
    /// `true` when the group voted short-handed or was skipped entirely.
    pub fn degraded(&self) -> bool {
        self.present < self.total || !self.voted
    }
}

/// Degraded-quorum majority voting: `signatures[i]` is `None` when
/// `testbeds[i]` did not run (quarantined). Each mode group votes over its
/// *present* signatures only, and only when at least
/// [`QuorumPolicy::min_voters`] of them are present. Returns the outcome
/// plus one [`GroupQuorum`] per non-empty group.
///
/// With every signature present and the [`QuorumPolicy::LEGACY`] threshold
/// this is exactly the historical voting function.
pub fn vote_on_signatures_quorum(
    testbeds: &[Testbed],
    signatures: &[Option<Signature>],
    quorum: &QuorumPolicy,
) -> (CaseOutcome, Vec<GroupQuorum>) {
    debug_assert_eq!(testbeds.len(), signatures.len());
    let mut deviations = Vec::new();
    let mut groups = Vec::new();
    let mut all_timeout = true;
    let mut any_group = false;
    let mut any_present = false;
    let mut any_voted = false;

    for strict in [false, true] {
        let members: Vec<(&Testbed, &Option<Signature>)> =
            testbeds.iter().zip(signatures).filter(|(t, _)| t.strict == strict).collect();
        if members.is_empty() {
            continue;
        }
        any_group = true;
        let group: Vec<(&Testbed, &Signature)> =
            members.iter().filter_map(|(t, s)| s.as_ref().map(|sig| (*t, sig))).collect();
        let voted = group.len() >= quorum.min_voters.max(1);
        groups.push(GroupQuorum { strict, present: group.len(), total: members.len(), voted });
        if group.is_empty() {
            continue;
        }
        any_present = true;
        let results: Vec<Signature> = group.iter().map(|(_, s)| (*s).clone()).collect();
        if results.iter().any(|s| !matches!(s, Signature::Timeout)) {
            all_timeout = false;
        }
        if !voted {
            continue; // below quorum: observe, don't vote
        }
        any_voted = true;
        // With one or two voters, `majority_signature` can never flag a
        // deviation (a strict majority requires agreement), so small groups
        // degrade gracefully rather than producing false positives.
        let Some(majority) = majority_signature(&results) else {
            continue; // no strict majority: ambiguous, skip (paper does too)
        };
        for (bed, sig) in &group {
            if **sig != majority {
                deviations.push(DeviationRecord {
                    engine: bed.engine.name(),
                    version: bed.engine.version().label(),
                    strict,
                    kind: DeviationKind::classify(sig, &majority),
                    actual: (*sig).clone(),
                    expected: majority.clone(),
                });
            }
        }
    }

    let outcome = if !any_group {
        CaseOutcome::Pass
    } else if !any_present {
        CaseOutcome::NoQuorum
    } else if all_timeout {
        CaseOutcome::AllTimeout
    } else if !any_voted {
        CaseOutcome::NoQuorum
    } else if deviations.is_empty() {
        CaseOutcome::Pass
    } else {
        CaseOutcome::Deviations(deviations)
    };
    (outcome, groups)
}

/// The signature shared by more than half the voters, if any.
pub fn majority_signature(results: &[Signature]) -> Option<Signature> {
    let mut counts: Vec<(usize, &Signature)> = Vec::new();
    for sig in results {
        match counts.iter_mut().find(|(_, s)| *s == sig) {
            Some((n, _)) => *n += 1,
            None => counts.push((1, sig)),
        }
    }
    counts
        .into_iter()
        .max_by_key(|(n, _)| *n)
        .filter(|(n, _)| *n * 2 > results.len())
        .map(|(_, s)| s.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_engines::latest_testbeds;
    use comfort_syntax::parse;

    #[test]
    fn conforming_program_passes() {
        let program = parse("print(1 + 1);").expect("parses");
        let outcome =
            run_differential(&program, &latest_testbeds(), &RunOptions::with_fuel(100_000));
        assert!(matches!(outcome, CaseOutcome::Pass));
    }

    #[test]
    fn figure2_case_flags_rhino_only() {
        let program =
            parse("var s = 'Name: Albert'; var len = undefined; print(s.substr(6, len));")
                .expect("parses");
        let outcome =
            run_differential(&program, &latest_testbeds(), &RunOptions::with_fuel(100_000));
        let CaseOutcome::Deviations(devs) = outcome else {
            panic!("expected deviations, got {outcome:?}");
        };
        assert_eq!(devs.len(), 1);
        assert_eq!(devs[0].engine, EngineName::Rhino);
        assert_eq!(devs[0].kind, DeviationKind::WrongOutput);
    }

    #[test]
    fn listing9_crash_is_classified() {
        let program = parse("''.normalize(true);").expect("parses");
        let outcome =
            run_differential(&program, &latest_testbeds(), &RunOptions::with_fuel(100_000));
        let CaseOutcome::Deviations(devs) = outcome else {
            panic!("expected deviations, got {outcome:?}");
        };
        assert!(devs
            .iter()
            .any(|d| d.engine == EngineName::QuickJs && d.kind == DeviationKind::Crash));
    }

    #[test]
    fn all_engines_looping_is_ignored() {
        let program = parse("while (true) {}").expect("parses");
        let outcome = run_differential(&program, &latest_testbeds(), &RunOptions::with_fuel(5_000));
        assert!(matches!(outcome, CaseOutcome::AllTimeout));
    }

    #[test]
    fn masked_run_votes_like_the_masked_in_testbeds_alone() {
        let beds = crate::campaign::testbeds_for(&crate::campaign::CampaignConfig {
            include_strict: true,
            include_legacy: true,
            ..Default::default()
        });
        let normal_mask: Vec<bool> = beds.iter().map(|t| !t.strict).collect();
        let normal: Vec<Testbed> = beds.iter().filter(|t| !t.strict).cloned().collect();
        let options = RunOptions::with_fuel(100_000);
        // A strict-only seeded bug deviates in the strict group alone.
        let strict_only =
            parse("var o = {}; print(Object.preventExtensions(o) === o);").expect("parses");
        assert!(run_differential(&strict_only, &beds, &options).is_deviating());
        assert_eq!(
            run_differential_masked(&strict_only, &beds, &normal_mask, &options),
            CaseOutcome::Pass
        );
        for src in [
            "var s = 'Name: Albert'; print(s.substr(6, undefined));",
            "print(1 + 1);",
            "while (true) {}",
            "x = 1; print(x);",
        ] {
            let program = parse(src).expect("parses");
            assert_eq!(
                run_differential_masked(&program, &beds, &normal_mask, &options),
                run_differential(&program, &normal, &options),
                "masked vote diverged on {src}"
            );
        }
    }

    #[test]
    fn majority_requires_strict_majority() {
        use Signature::*;
        let even = vec![
            Completed("a".into()),
            Completed("a".into()),
            Completed("b".into()),
            Completed("b".into()),
        ];
        assert_eq!(majority_signature(&even), None);
        let clear = vec![
            Completed("a".into()),
            Completed("a".into()),
            Completed("a".into()),
            Completed("b".into()),
        ];
        assert_eq!(majority_signature(&clear), Some(Completed("a".into())));
    }

    #[test]
    fn display_renders_filter_labels() {
        assert_eq!(Signature::Timeout.to_string(), "Timeout");
        assert_eq!(Signature::Crash.to_string(), "Crash");
        assert_eq!(Signature::Threw(None).to_string(), "throw");
        assert_eq!(Signature::Threw(Some(ErrorKind::Type)).to_string(), "TypeError");
        assert_eq!(Signature::Completed("hi\n".into()).to_string(), "output \"hi\\n\"");
        assert_eq!(DeviationKind::Timeout.to_string(), "TimeOut");
        assert_eq!(DeviationKind::WrongOutput.to_string(), "WrongOutput");
    }

    #[test]
    fn quorum_voting_ignores_quarantined_slots() {
        // 4 normal testbeds; slot 0 quarantined, remaining three agree.
        let beds = latest_testbeds().into_iter().take(4).collect::<Vec<_>>();
        let sig = |s: &str| Signature::Completed(s.into());
        let sigs = vec![None, Some(sig("a")), Some(sig("a")), Some(sig("a"))];
        let (outcome, groups) = vote_on_signatures_quorum(&beds, &sigs, &QuorumPolicy::default());
        assert!(matches!(outcome, CaseOutcome::Pass), "{outcome:?}");
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].present, 3);
        assert_eq!(groups[0].total, 4);
        assert!(groups[0].voted && groups[0].degraded());
    }

    #[test]
    fn quorum_voting_flags_deviant_among_survivors() {
        let beds = latest_testbeds().into_iter().take(4).collect::<Vec<_>>();
        let sig = |s: &str| Signature::Completed(s.into());
        let sigs = vec![None, Some(sig("a")), Some(sig("a")), Some(sig("b"))];
        let (outcome, _) = vote_on_signatures_quorum(&beds, &sigs, &QuorumPolicy::default());
        let CaseOutcome::Deviations(devs) = outcome else {
            panic!("expected deviations");
        };
        assert_eq!(devs.len(), 1);
        assert_eq!(devs[0].engine, beds[3].engine.name());
    }

    #[test]
    fn below_quorum_group_does_not_vote() {
        let beds = latest_testbeds().into_iter().take(3).collect::<Vec<_>>();
        let sigs = vec![None, None, Some(Signature::Completed("a".into()))];
        let (outcome, groups) =
            vote_on_signatures_quorum(&beds, &sigs, &QuorumPolicy { min_voters: 2 });
        assert!(matches!(outcome, CaseOutcome::NoQuorum), "{outcome:?}");
        assert!(!groups[0].voted);
        // With every voter quarantined the outcome is also NoQuorum.
        let none = vec![None, None, None];
        let (outcome, _) = vote_on_signatures_quorum(&beds, &none, &QuorumPolicy::default());
        assert!(matches!(outcome, CaseOutcome::NoQuorum));
    }

    #[test]
    fn legacy_threshold_matches_historical_voting() {
        let beds = latest_testbeds();
        let chunk = compile(&parse("print(1 + 1);").expect("parses"));
        let sigs: Vec<Option<Signature>> = beds
            .iter()
            .map(|t| {
                let r = t.run_compiled(&chunk, &RunOptions::with_fuel(100_000));
                Some(Signature::of(&r.status, &r.output))
            })
            .collect();
        let (outcome, groups) = vote_on_signatures_quorum(&beds, &sigs, &QuorumPolicy::LEGACY);
        assert!(matches!(outcome, CaseOutcome::Pass));
        assert!(groups.iter().all(|g| g.voted && !g.degraded()));
    }

    #[test]
    fn classification_matrix() {
        use DeviationKind as K;
        use Signature as S;
        let done = S::Completed("x".into());
        let threw = S::Threw(Some(ErrorKind::Type));
        assert_eq!(K::classify(&S::Crash, &done), K::Crash);
        assert_eq!(K::classify(&S::Timeout, &done), K::Timeout);
        assert_eq!(K::classify(&threw, &done), K::UnexpectedError);
        assert_eq!(K::classify(&done, &threw), K::MissingError);
        assert_eq!(K::classify(&S::Completed("y".into()), &done), K::WrongOutput);
    }
}
