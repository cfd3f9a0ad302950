//! Test-case reduction (§3.5).
//!
//! "Traverse the abstract syntax tree of the input test program to
//! iteratively remove code structures and test if the resulting program can
//! still trigger the same compilation or execution outcome … repeat until a
//! fixpoint."
//!
//! The reducer tries removing each statement (at the top level, then inside
//! every function/block body), keeping a removal whenever the caller's
//! `still_fails` oracle accepts the smaller program. It runs to a fixpoint.

use comfort_syntax::ast::{Function, Stmt, StmtKind};
use comfort_syntax::Program;

/// Reduction effort counters, for per-stage telemetry: each oracle call is
/// one candidate differential run, which dominates reduction cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Candidate programs offered to the oracle.
    pub candidates_tried: u64,
    /// Candidates the oracle accepted (statements actually removed).
    pub removals_kept: u64,
}

/// Reduces `program`, keeping only removals the oracle accepts.
///
/// `still_fails(candidate)` must return `true` iff the candidate still
/// reproduces the original anomalous behaviour. The input program itself is
/// assumed to satisfy the oracle.
pub fn reduce(program: &Program, still_fails: &mut dyn FnMut(&Program) -> bool) -> Program {
    reduce_counted(program, still_fails).0
}

/// Like [`reduce`], but also reports how much work the reduction did (for
/// the campaign's per-stage metrics).
pub fn reduce_counted(
    program: &Program,
    still_fails: &mut dyn FnMut(&Program) -> bool,
) -> (Program, ReduceStats) {
    let mut stats = ReduceStats::default();
    let mut counting_oracle = |candidate: &Program| {
        stats.candidates_tried += 1;
        let accepted = still_fails(candidate);
        if accepted {
            stats.removals_kept += 1;
        }
        accepted
    };
    let reduced = fixpoint_reduce(program, &mut counting_oracle);
    (reduced, stats)
}

/// The §3.5 fixpoint loop.
fn fixpoint_reduce(program: &Program, still_fails: &mut dyn FnMut(&Program) -> bool) -> Program {
    let mut current = program.clone();
    loop {
        let mut changed = false;

        // Pass 1: drop whole top-level statements.
        let mut i = 0;
        while i < current.body.len() {
            if current.body.len() == 1 {
                break; // never reduce to an empty program
            }
            let mut candidate = current.clone();
            candidate.body.remove(i);
            candidate.renumber();
            if still_fails(&candidate) {
                current = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }

        // Pass 2: drop statements inside nested bodies.
        if reduce_nested(&mut current, still_fails) {
            changed = true;
        }

        if !changed {
            return current;
        }
    }
}

/// Attempts removals inside nested statement lists; returns `true` if any
/// removal was kept.
fn reduce_nested(current: &mut Program, still_fails: &mut dyn FnMut(&Program) -> bool) -> bool {
    // Collect candidate paths: (index path to the nested list, position).
    // To keep this simple and allocation-friendly, we retry whole-program
    // clones guided by a path enumeration.
    let paths = enumerate_paths(&mut current.body, &mut Vec::new());
    let mut changed = false;
    for path in paths.iter().rev() {
        let mut candidate = current.clone();
        if !remove_at(&mut candidate.body, path) {
            continue;
        }
        candidate.renumber();
        if still_fails(&candidate) {
            *current = candidate;
            changed = true;
        }
    }
    changed
}

/// A path into nested statement lists: indices alternate between "statement
/// position" and an implicit descent into that statement's primary body.
type Path = Vec<usize>;

/// Enumerates the paths into `body`'s nested statement lists. It edits
/// nothing, but reaches the lists through the one accessor,
/// [`primary_body_mut`].
fn enumerate_paths(body: &mut [Stmt], prefix: &mut Vec<usize>) -> Vec<Path> {
    let mut out = Vec::new();
    for (i, stmt) in body.iter_mut().enumerate() {
        prefix.push(i);
        if let Some(inner) = primary_body_mut(stmt) {
            for (j, _) in inner.iter().enumerate() {
                let mut p = prefix.clone();
                p.push(j);
                out.push(p);
            }
            // Recurse one more level (two levels cover generated programs).
            prefix.push(usize::MAX); // marker: descend
            for (j, s2) in inner.iter_mut().enumerate() {
                if let Some(inner2) = primary_body_mut(s2) {
                    for (k, _) in inner2.iter().enumerate() {
                        let mut p = prefix.clone();
                        let m = p.len() - 1;
                        p[m] = j;
                        p.push(k);
                        out.push(p);
                    }
                }
            }
            prefix.pop();
        }
        prefix.pop();
    }
    out
}

/// The statement's primary nested statement list, if it has one.
fn primary_body_mut(stmt: &mut Stmt) -> Option<&mut Vec<Stmt>> {
    match &mut stmt.kind {
        StmtKind::FunctionDecl(f) => Some(&mut f.body),
        StmtKind::Block(b) => Some(b),
        StmtKind::Decl { decls, .. } => decls.iter_mut().find_map(|d| match &mut d.init {
            Some(e) => match &mut e.kind {
                comfort_syntax::ExprKind::Function(Function { body, .. }) => Some(body),
                _ => None,
            },
            None => None,
        }),
        _ => None,
    }
}

/// Removes the statement addressed by `path`; `true` on success.
fn remove_at(body: &mut Vec<Stmt>, path: &[usize]) -> bool {
    match path {
        [] => false,
        [i] => {
            if *i < body.len() && body.len() > 1 {
                body.remove(*i);
                true
            } else {
                false
            }
        }
        [i, rest @ ..] => {
            let Some(stmt) = body.get_mut(*i) else { return false };
            let Some(inner) = primary_body_mut(stmt) else { return false };
            remove_at(inner, rest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_syntax::{parse, print_program};

    #[test]
    fn removes_irrelevant_statements() {
        let program =
            parse("var junk1 = 1; var keep = 'MARKER'; var junk2 = [1,2,3]; print(keep);")
                .expect("parses");
        let reduced = reduce(&program, &mut |p| print_program(p).contains("MARKER"));
        let text = print_program(&reduced);
        assert!(text.contains("MARKER"));
        assert!(!text.contains("junk1"));
        assert!(!text.contains("junk2"));
    }

    #[test]
    fn reduces_inside_function_bodies() {
        let program =
            parse("function f() { var a = 1; var b = 'MARKER'; var c = 3; return b; } print(f());")
                .expect("parses");
        let reduced = reduce(&program, &mut |p| print_program(p).contains("MARKER"));
        let text = print_program(&reduced);
        assert!(text.contains("MARKER"));
        assert!(!text.contains("var a"), "{text}");
        assert!(!text.contains("var c"), "{text}");
    }

    #[test]
    fn fixpoint_is_reached() {
        // Removing `x` only becomes possible after `y` is gone — requires a
        // second outer iteration.
        let program = parse("var x = 1; var y = x + 'MARKER'; print('MARKER');").expect("parses");
        let reduced = reduce(&program, &mut |p| {
            let t = print_program(p);
            t.contains("print('MARKER')") || t.contains("print(\"MARKER\")")
        });
        assert_eq!(reduced.body.len(), 1);
    }

    #[test]
    fn counted_reduction_reports_effort() {
        let program = parse("var junk = 1; var junk2 = 2; print('MARKER');").expect("parses");
        let (reduced, stats) =
            reduce_counted(&program, &mut |p| print_program(p).contains("MARKER"));
        assert!(stats.removals_kept >= 2, "{stats:?}");
        assert!(stats.candidates_tried >= stats.removals_kept, "{stats:?}");
        assert!(print_program(&reduced).contains("MARKER"));
        // The uncounted wrapper reduces identically.
        let plain = reduce(&program, &mut |p| print_program(p).contains("MARKER"));
        assert_eq!(print_program(&plain), print_program(&reduced));
    }

    #[test]
    fn never_empties_the_program() {
        let program = parse("print(1);").expect("parses");
        let reduced = reduce(&program, &mut |_| true);
        assert_eq!(reduced.body.len(), 1);
    }

    #[test]
    fn oracle_rejection_keeps_statements() {
        let program = parse("var a = 1; print(a);").expect("parses");
        let reduced = reduce(&program, &mut |p| {
            // Only the full program "fails": any removal is rejected.
            p.body.len() == 2
        });
        assert_eq!(reduced.body.len(), 2);
    }

    #[test]
    fn reduction_against_a_real_engine_deviation() {
        use crate::differential::{run_differential, CaseOutcome};
        use comfort_engines::latest_testbeds;
        let program = parse(
            "var noise = [9, 8, 7].join('-');\nprint(noise.length);\nvar s = 'Name: Albert';\nvar len = undefined;\nprint(s.substr(6, len));",
        )
        .expect("parses");
        let beds = latest_testbeds();
        let mut oracle = |p: &Program| {
            matches!(run_differential(p, &beds, &comfort_engines::RunOptions::with_fuel(100_000)), CaseOutcome::Deviations(d)
                if d.iter().any(|r| r.engine == comfort_engines::EngineName::Rhino))
        };
        assert!(oracle(&program), "base case must deviate");
        let reduced = reduce(&program, &mut oracle);
        let text = print_program(&reduced);
        assert!(text.contains("substr"));
        assert!(!text.contains("noise"), "noise statements must be gone:\n{text}");
    }
}
