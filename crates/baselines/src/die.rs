//! DIE (Park et al., S&P 2020) reimplementation.
//!
//! DIE performs **aspect-preserving** mutation: it mutates seed programs
//! while deliberately preserving the structural "aspects" that made the seed
//! interesting (types, control structure), changing only literals and
//! operators within the same type class. Output therefore stays
//! syntactically valid but explores different values.

use comfort_core::Fuzzer;
use comfort_syntax::ast::*;
use comfort_syntax::visit::{walk_program, walk_program_mut, Visitor, VisitorMut};
use comfort_syntax::{parse, print_program, Program};
use rand::rngs::StdRng;
use rand::Rng;

/// The DIE-style aspect-preserving mutator.
pub struct Die {
    seeds: Vec<Program>,
    mutations_per_case: usize,
}

impl Die {
    /// Parses the standard seed corpus.
    pub fn new(seed: u64, corpus_programs: usize) -> Self {
        let seeds = comfort_corpus::training_corpus(seed, corpus_programs)
            .iter()
            .filter_map(|s| parse(s).ok())
            .collect();
        Die { seeds, mutations_per_case: 6 }
    }

    /// Number of usable seed programs.
    pub fn seed_count(&self) -> usize {
        self.seeds.len()
    }
}

impl Fuzzer for Die {
    fn name(&self) -> &'static str {
        "DIE"
    }

    fn next_case(&mut self, rng: &mut StdRng) -> String {
        if self.seeds.is_empty() {
            return "print(1);".to_string();
        }
        let mut program = self.seeds[rng.random_range(0..self.seeds.len())].clone();
        for _ in 0..self.mutations_per_case {
            mutate_one(&mut program, rng);
        }
        program.renumber();
        print_program(&program)
    }
}

/// Applies one aspect-preserving mutation at a random expression.
fn mutate_one(program: &mut Program, rng: &mut StdRng) {
    // Pick a target index among the expressions, then walk the same order
    // mutably, counting until we hit it.
    struct Mutate {
        target: usize,
        seen: usize,
        roll: u32,
    }
    impl VisitorMut for Mutate {
        fn visit_expr(&mut self, e: &mut Expr) {
            if self.seen == self.target {
                mutate_expr(e, self.roll);
            }
            self.seen += 1;
        }
    }
    let total = count_exprs(program);
    if total == 0 {
        return;
    }
    let target = rng.random_range(0..total);
    let roll: u32 = rng.random_range(0..100);
    walk_program_mut(program, &mut Mutate { target, seen: 0, roll });
}

fn mutate_expr(e: &mut Expr, roll: u32) {
    match &mut e.kind {
        // Same-type literal replacement (the aspect-preserving core): DIE
        // keeps values in the same ballpark so the seed's type/shape aspects
        // survive — it deliberately does NOT probe boundary values, which is
        // exactly why it misses the conformance bugs COMFORT's spec-guided
        // data finds (§5.3.2).
        ExprKind::Lit(Lit::Number(n)) => {
            *n = match roll % 6 {
                0 => *n + 1.0,
                1 => (*n - 1.0).abs(),
                2 => *n * 2.0,
                3 => (*n / 2.0).trunc(),
                4 => *n + 7.0,
                _ => 13.0,
            };
        }
        ExprKind::Lit(Lit::String(s)) => {
            *s = match roll % 3 {
                0 => format!("{s}{s}"),
                1 => s.to_uppercase(),
                _ => format!("{s}!"),
            };
        }
        ExprKind::Lit(Lit::Bool(b)) => *b = !*b,
        // Operator replacement within the same class.
        ExprKind::Binary { op, .. } => {
            use BinaryOp::*;
            *op = match (*op, roll % 3) {
                (Add, 0) => Sub,
                (Add, 1) => Mul,
                (Sub, _) => Add,
                (Mul, _) => Rem,
                (Lt, 0) => LtEq,
                (Lt, _) => Gt,
                (Eq, _) => StrictEq,
                (StrictEq, _) => Eq,
                (other, _) => other,
            };
        }
        ExprKind::Logical { op, .. } => {
            *op = match op {
                LogicalOp::And => LogicalOp::Or,
                LogicalOp::Or => LogicalOp::And,
            };
        }
        _ => {}
    }
}

fn count_exprs(program: &Program) -> usize {
    struct C(usize);
    impl Visitor<'_> for C {
        fn visit_expr(&mut self, _: &Expr) {
            self.0 += 1;
        }
    }
    let mut c = C(0);
    walk_program(program, &mut c);
    c.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mutants_stay_syntactically_valid() {
        let mut die = Die::new(51, 60);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            let p = die.next_case(&mut rng);
            comfort_syntax::lint(&p).unwrap_or_else(|e| panic!("invalid mutant: {e}\n{p}"));
        }
    }

    #[test]
    fn mutants_differ_from_seeds() {
        let mut die = Die::new(52, 30);
        let mut rng = StdRng::seed_from_u64(7);
        let seeds: Vec<String> = comfort_corpus::training_corpus(52, 30);
        let mut distinct = 0;
        for _ in 0..20 {
            let m = die.next_case(&mut rng);
            if !seeds.iter().any(|s| s == &m) {
                distinct += 1;
            }
        }
        assert!(distinct >= 15, "{distinct}");
    }

    #[test]
    fn seeds_loaded() {
        assert!(Die::new(53, 40).seed_count() >= 35);
    }
}
