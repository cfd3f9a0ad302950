//! Property-based tests over the core data structures and invariants:
//!
//! * printer round-trip stability on generated programs,
//! * interpreter determinism (same seed ⇒ same run),
//! * regex engine consistency (escaped literals always match themselves;
//!   `find_iter` terminates and yields non-overlapping matches),
//! * every case `DataGen` makes, base case and mutants over every boundary
//!   value, re-parses from its printed source to the program it runs,
//! * the read-only and the mutable AST walks visit the same nodes in the
//!   same order, and `renumber` numbers them in that order,
//! * the bug-filter tree behaves like a set keyed by (engine, api, behavior).

#[path = "../crates/syntax/tests/strip/mod.rs"]
mod strip;

use proptest::prelude::*;

use comfort::core::datagen::{DataGen, DataGenConfig};
use comfort::core::filter::{BugKey, BugTree};
use comfort::engines::EngineName;
use comfort::interp::{hooks::SpecProfile, run_source, RunOptions};
use comfort::regex::Regex;
use comfort::syntax::ast::{Function, NodeId};
use comfort::syntax::visit::{walk_program, walk_program_mut, Visitor, VisitorMut};
use comfort::syntax::{parse, print_program, Expr, Program, Stmt};
use rand::SeedableRng;
use strip::strip_program;

fn escape_regex(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        if "\\^$.|?*+()[]{}/".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// One node as a walk meets it.
#[derive(Debug, PartialEq)]
enum Visited {
    Stmt(NodeId),
    Expr(NodeId),
    Function(NodeId),
}

/// The nodes a walk visits, in order; records through either walk.
#[derive(Default)]
struct Order(Vec<Visited>);

impl Visitor<'_> for Order {
    fn visit_stmt(&mut self, stmt: &Stmt) {
        self.0.push(Visited::Stmt(stmt.id));
    }
    fn visit_expr(&mut self, expr: &Expr) {
        self.0.push(Visited::Expr(expr.id));
    }
    fn visit_function(&mut self, func: &Function) {
        self.0.push(Visited::Function(func.id));
    }
}

impl VisitorMut for Order {
    fn visit_stmt(&mut self, stmt: &mut Stmt) {
        self.0.push(Visited::Stmt(stmt.id));
    }
    fn visit_expr(&mut self, expr: &mut Expr) {
        self.0.push(Visited::Expr(expr.id));
    }
    fn visit_function(&mut self, func: &mut Function) {
        self.0.push(Visited::Function(func.id));
    }
}

fn read_order(program: &Program) -> Vec<Visited> {
    let mut order = Order::default();
    walk_program(program, &mut order);
    order.0
}

fn id_of(visited: &Visited) -> u32 {
    match visited {
        Visited::Stmt(id) | Visited::Expr(id) | Visited::Function(id) => id.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corpus_programs_roundtrip_through_the_printer(seed in 0u64..5000) {
        for src in comfort::corpus::training_corpus(seed, 2) {
            let p1 = parse(&src).expect("corpus programs parse");
            let printed1 = print_program(&p1);
            let p2 = parse(&printed1).expect("printed program parses");
            let printed2 = print_program(&p2);
            prop_assert_eq!(printed1, printed2, "printer not stable for seed {}", seed);
        }
    }

    #[test]
    fn interpreter_runs_are_deterministic(seed in 0u64..5000) {
        for src in comfort::corpus::training_corpus(seed, 1) {
            let a = run_source(&src, &SpecProfile, &RunOptions::default()).expect("parses");
            let b = run_source(&src, &SpecProfile, &RunOptions::default()).expect("parses");
            prop_assert_eq!(a.output, b.output);
            prop_assert_eq!(a.fuel_used, b.fuel_used);
        }
    }

    #[test]
    fn escaped_literal_regex_matches_itself(s in "[ -~]{0,24}") {
        let re = Regex::new(&escape_regex(&s)).expect("escaped pattern is valid");
        let m = re.find(&s).expect("pattern must match its own source");
        prop_assert_eq!(m.start, 0usize);
        prop_assert_eq!(m.text, s.as_str());
    }

    #[test]
    fn find_iter_yields_nonoverlapping_matches(hay in "[ab0-9]{0,40}") {
        let re = Regex::new("[0-9]+").expect("valid");
        let mut last_end = 0usize;
        for m in re.find_iter(&hay) {
            prop_assert!(m.start >= last_end, "overlap at {}", m.start);
            prop_assert!(m.end > m.start);
            last_end = m.end;
        }
    }

    #[test]
    fn datagen_mutants_always_parse(seed in 0u64..2000) {
        // `DataGen` does not re-parse what it prints: a case runs its
        // `program`, while reports and exports carry its `source`. This is
        // the guard that the two agree.
        // No cap, so every boundary value of every spec-known call site
        // yields its mutant.
        let datagen = DataGen::new(
            comfort::ecma262::spec_db(),
            DataGenConfig { max_mutants_per_program: usize::MAX, random_mutants: 4 },
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut next = 0;
        let mut cases = Vec::new();
        // Six programs per seed: constructs such as flagged regex literals
        // occur in only a few percent of corpus programs.
        for src in comfort::corpus::training_corpus(seed, 6) {
            let program = parse(&src).expect("corpus parses");
            cases.push(datagen.base_case(&program, 0, &mut next, &mut rng));
            cases.extend(datagen.mutate(&program, 0, &mut next, &mut rng));
        }
        for case in &cases {
            let reparsed = parse(&case.source)
                .unwrap_or_else(|err| panic!("case failed to parse: {err}\n{}", case.source));
            prop_assert_eq!(
                format!("{:?}", strip_program(&case.program)),
                format!("{:?}", strip_program(&reparsed)),
                "source does not re-parse to the program:\n{}",
                case.source
            );
        }
    }

    #[test]
    fn mutable_walk_and_renumber_follow_the_read_only_walk(seed in 0u64..5000) {
        // Renumbering, the generator's argument edits and DIE's mutation
        // walk mutably, while call-site discovery and DIE's target count
        // walk read-only; each pair must meet the same node at each step.
        let datagen = DataGen::new(comfort::ecma262::spec_db(), DataGenConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut next = 0;
        let mut programs = Vec::new();
        for src in comfort::corpus::training_corpus(seed, 3) {
            let program = parse(&src).expect("corpus parses");
            programs.push(datagen.base_case(&program, 0, &mut next, &mut rng).program);
            programs.extend(datagen.mutate(&program, 0, &mut next, &mut rng).into_iter().map(|c| c.program));
            programs.push(program);
        }
        for program in &programs {
            let mut walked = program.clone();
            let mut order = Order::default();
            walk_program_mut(&mut walked, &mut order);
            let expected = read_order(program);
            prop_assert_eq!(&order.0, &expected, "walk orders differ:\n{}", print_program(program));

            let mut renumbered = program.clone();
            renumbered.renumber();
            let ids: Vec<u32> = read_order(&renumbered).iter().map(id_of).collect();
            prop_assert_eq!(
                ids,
                (0..renumbered.node_count).collect::<Vec<_>>(),
                "renumber does not follow the walk:\n{}",
                print_program(program)
            );
        }
    }

    #[test]
    fn bug_tree_acts_like_a_set(ops in proptest::collection::vec((0usize..10, 0u8..4, 0u8..3), 1..60)) {
        let mut tree = BugTree::new();
        let mut reference = std::collections::HashSet::new();
        for (engine_idx, api, behavior) in ops {
            let key = BugKey {
                engine: EngineName::ALL[engine_idx],
                api: if api == 0 { None } else { Some(format!("api{api}")) },
                behavior: format!("b{behavior}"),
            };
            let fresh_expected = reference.insert(key.to_string());
            let fresh = tree.observe(&key);
            prop_assert_eq!(fresh, fresh_expected);
            prop_assert!(tree.contains(&key));
        }
        prop_assert_eq!(tree.leaf_count(), reference.len());
    }

    #[test]
    fn js_number_printing_roundtrips_through_eval(n in -1.0e9f64..1.0e9) {
        // print(ToString(n)) must re-read as the same number.
        let text = comfort::syntax::printer::fmt_number(n);
        let src = format!("print({text} === {text});");
        let r = run_source(&src, &SpecProfile, &RunOptions::default()).expect("parses");
        prop_assert_eq!(r.output.as_str(), "true\n");
    }

    #[test]
    fn fuel_monotone_under_budget_increase(seed in 0u64..1000) {
        let src = comfort::corpus::training_corpus(seed, 1).remove(0);
        let small = run_source(&src, &SpecProfile, &RunOptions { fuel: 3_000, ..RunOptions::default() })
            .expect("parses");
        let large = run_source(&src, &SpecProfile, &RunOptions::default()).expect("parses");
        // If the run completed under a small budget, the big budget must
        // reproduce it exactly.
        if small.status.is_completed() {
            prop_assert_eq!(small.output, large.output);
        }
    }
}
