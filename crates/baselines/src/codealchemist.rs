//! CodeAlchemist (Han et al., NDSS 2019) reimplementation.
//!
//! CodeAlchemist breaks seed programs into **code bricks** tagged with
//! assembly constraints — the variables a brick *uses* (preconditions) and
//! *defines* (postconditions) — then assembles new programs by chaining
//! bricks whose constraints are satisfied, renaming variables to match.

use std::collections::BTreeSet;

use comfort_core::Fuzzer;
use comfort_syntax::ast::{Stmt, StmtKind};
use comfort_syntax::{parse, print_stmt, visit};
use rand::rngs::StdRng;
use rand::Rng;

/// A code brick: one statement plus its def/use constraint tags.
#[derive(Debug, Clone)]
pub struct Brick {
    /// Statement source text.
    pub text: String,
    /// Variables the brick defines.
    pub defines: Vec<String>,
    /// Free variables the brick needs already defined.
    pub uses: Vec<String>,
}

/// The CodeAlchemist-style assembler.
pub struct CodeAlchemist {
    bricks: Vec<Brick>,
    bricks_per_program: usize,
}

impl CodeAlchemist {
    /// Shatters the standard seed corpus into bricks.
    pub fn new(seed: u64, corpus_programs: usize) -> Self {
        let corpus = comfort_corpus::training_corpus(seed, corpus_programs);
        let mut bricks = Vec::new();
        for program_src in &corpus {
            let Ok(program) = parse(program_src) else { continue };
            for stmt in &program.body {
                if let Some(b) = brick_of(stmt) {
                    bricks.push(b);
                }
                // The real tool shatters whole programs; statements inside
                // function bodies become bricks too (their parameters turn
                // into use-constraints).
                if let StmtKind::FunctionDecl(f) = &stmt.kind {
                    for inner in &f.body {
                        if let Some(b) = brick_of(inner) {
                            bricks.push(b);
                        }
                    }
                }
                if let StmtKind::Decl { decls, .. } = &stmt.kind {
                    for d in decls {
                        if let Some(comfort_syntax::Expr {
                            kind: comfort_syntax::ExprKind::Function(f),
                            ..
                        }) = &d.init
                        {
                            for inner in &f.body {
                                if let Some(b) = brick_of(inner) {
                                    bricks.push(b);
                                }
                            }
                        }
                    }
                }
            }
        }
        CodeAlchemist { bricks, bricks_per_program: 7 }
    }

    /// Number of harvested bricks.
    pub fn brick_count(&self) -> usize {
        self.bricks.len()
    }
}

/// Tags one top-level statement as a brick.
fn brick_of(stmt: &Stmt) -> Option<Brick> {
    // Bricks are declaration or expression statements (control flow stays
    // glued to its context in the real tool too).
    let defines: Vec<String> = match &stmt.kind {
        StmtKind::Decl { decls, .. } => decls.iter().map(|d| d.name.clone()).collect(),
        StmtKind::FunctionDecl(f) => vec![f.name.clone().expect("named decl")],
        StmtKind::Expr(_) => Vec::new(),
        _ => return None,
    };
    // Free uses: identifiers referenced that the brick does not define
    // itself (approximation: globals and parameters are filtered later).
    struct Uses {
        names: BTreeSet<String>,
    }
    impl visit::Visitor<'_> for Uses {
        fn visit_expr(&mut self, e: &comfort_syntax::Expr) {
            if let comfort_syntax::ExprKind::Ident(n) = &e.kind {
                self.names.insert(n.clone());
            }
        }
    }
    let mut u = Uses { names: BTreeSet::new() };
    visit::walk_stmt(stmt, &mut u);
    let builtin = |n: &str| {
        matches!(
            n,
            "print"
                | "console"
                | "Math"
                | "JSON"
                | "Object"
                | "Array"
                | "String"
                | "Number"
                | "Boolean"
                | "RegExp"
                | "Date"
                | "parseInt"
                | "parseFloat"
                | "isNaN"
                | "isFinite"
                | "eval"
                | "undefined"
                | "NaN"
                | "Infinity"
                | "Uint8Array"
                | "Uint32Array"
                | "Int32Array"
                | "Float64Array"
                | "ArrayBuffer"
                | "DataView"
                | "arguments"
        )
    };
    let uses: Vec<String> =
        u.names.into_iter().filter(|n| !defines.contains(n) && !builtin(n)).collect();
    Some(Brick { text: print_stmt(stmt), defines, uses })
}

impl Fuzzer for CodeAlchemist {
    fn name(&self) -> &'static str {
        "CodeAlchemist"
    }

    fn next_case(&mut self, rng: &mut StdRng) -> String {
        let mut defined: BTreeSet<String> = BTreeSet::new();
        let mut out = String::new();
        let mut placed = 0;
        let mut attempts = 0;
        while placed < self.bricks_per_program && attempts < 200 {
            attempts += 1;
            if self.bricks.is_empty() {
                break;
            }
            let brick = &self.bricks[rng.random_range(0..self.bricks.len())];
            if brick.uses.len() > 2 {
                continue;
            }
            // Assembly constraint: every use must be defined before the
            // brick runs. The real tool satisfies unmet preconditions by
            // inserting *load bricks* whose postcondition provides a value
            // of a plausible type; we guess the type from how the brick
            // uses the variable.
            let unmet_uses: Vec<String> =
                brick.uses.iter().filter(|u| !defined.contains(*u)).cloned().collect();
            for unmet in &unmet_uses {
                let load = match guessed_type(&brick.text, unmet, rng) {
                    GuessedType::Str => format!("var {unmet} = \"hello world\";\n"),
                    GuessedType::Num => format!("var {unmet} = {};\n", rng.random_range(0..50)),
                    GuessedType::Arr => format!("var {unmet} = [3, 1, 4];\n"),
                    GuessedType::Func => {
                        format!("var {unmet} = function(a) {{ return a; }};\n")
                    }
                };
                out.push_str(&load);
                defined.insert(unmet.clone());
            }
            out.push_str(&brick.text);
            out.push('\n');
            defined.extend(brick.defines.iter().cloned());
            placed += 1;
        }
        if out.is_empty() {
            out.push_str("print(0);\n");
        }
        out
    }
}

/// Plausible type of an unmet use, inferred from brick text.
enum GuessedType {
    Str,
    Num,
    Arr,
    Func,
}

fn guessed_type(text: &str, var: &str, rng: &mut StdRng) -> GuessedType {
    // A direct call (`var(...)`) needs a callable.
    if text.contains(&format!("{var}(")) {
        return GuessedType::Func;
    }
    let string_methods = [
        ".substr",
        ".toUpperCase",
        ".toLowerCase",
        ".charAt",
        ".split",
        ".trim",
        ".replace",
        ".indexOf",
        ".concat",
        ".repeat",
        ".padStart",
        ".padEnd",
        ".startsWith",
        ".endsWith",
        ".normalize",
    ];
    let array_methods =
        [".push", ".join", ".sort", ".map", ".filter", ".reduce", ".slice", ".fill", ".reverse"];
    let dotted = format!("{var}.");
    if text.contains(&dotted) {
        if string_methods.iter().any(|m| text.contains(&format!("{var}{m}"))) {
            return GuessedType::Str;
        }
        if array_methods.iter().any(|m| text.contains(&format!("{var}{m}"))) {
            return GuessedType::Arr;
        }
    }
    match rng.random_range(0..3) {
        0 => GuessedType::Str,
        1 => GuessedType::Arr,
        _ => GuessedType::Num,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn harvests_bricks_from_seeds() {
        let ca = CodeAlchemist::new(41, 60);
        assert!(ca.brick_count() > 50, "{}", ca.brick_count());
    }

    #[test]
    fn assembled_programs_are_mostly_valid() {
        let mut ca = CodeAlchemist::new(41, 60);
        let mut rng = StdRng::seed_from_u64(4);
        let mut valid = 0;
        const N: usize = 40;
        for _ in 0..N {
            if comfort_syntax::lint(&ca.next_case(&mut rng)).is_ok() {
                valid += 1;
            }
        }
        assert!(valid * 2 >= N, "validity {valid}/{N}");
    }

    #[test]
    fn assembly_respects_def_use_order() {
        // A brick using an undefined variable is only placed after renaming
        // or once a definer ran; sanity-check by running a few programs.
        use comfort_interp::{hooks::SpecProfile, run_source, RunOptions};
        let mut ca = CodeAlchemist::new(42, 60);
        let mut rng = StdRng::seed_from_u64(5);
        let mut clean = 0;
        let mut runs = 0;
        for _ in 0..20 {
            let p = ca.next_case(&mut rng);
            if let Ok(r) = run_source(&p, &SpecProfile, &RunOptions::default()) {
                runs += 1;
                if r.status.is_completed() {
                    clean += 1;
                }
            }
        }
        assert!(runs > 0);
        // Brick assembly with renamed uses often miscalls values (that is
        // realistic — the real tool's programs throw frequently too), but a
        // meaningful fraction must still run cleanly.
        assert!(clean * 5 >= runs, "too many runtime failures: {clean}/{runs}");
    }
}
