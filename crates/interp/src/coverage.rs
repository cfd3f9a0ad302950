//! Test-program coverage instrumentation (the Istanbul substitute, §5.3.3).
//!
//! The paper measures three metrics *of the generated test program itself*:
//! statement, function, and branch coverage during a test run. The evaluator
//! records hits keyed by [`NodeId`]; the static universe (what *could* be
//! covered) is computed by [`Universe::of`].

use std::collections::{BTreeSet, HashSet};

use comfort_syntax::ast::{NodeId, Program};
use comfort_syntax::visit::{self, Visitor};
use comfort_syntax::{Expr, ExprKind, Stmt, StmtKind};

/// The statically countable coverage targets of a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Universe {
    /// Ids of all statements.
    pub stmts: HashSet<NodeId>,
    /// Ids of all function definitions.
    pub funcs: HashSet<NodeId>,
    /// Ids of all branch points; each contributes two arms.
    pub branches: HashSet<NodeId>,
}

impl Universe {
    /// Computes the coverage universe of `program`.
    pub fn of(program: &Program) -> Universe {
        struct Scan {
            u: Universe,
        }
        impl Visitor for Scan {
            fn visit_stmt(&mut self, stmt: &Stmt) {
                match &stmt.kind {
                    // Blocks and empty statements are structure, not
                    // executable statements, mirroring Istanbul.
                    StmtKind::Block(_) | StmtKind::Empty | StmtKind::Directive(_) => {}
                    _ => {
                        self.u.stmts.insert(stmt.id);
                    }
                }
                match &stmt.kind {
                    StmtKind::If { .. }
                    | StmtKind::While { .. }
                    | StmtKind::DoWhile { .. }
                    | StmtKind::For { .. }
                    | StmtKind::ForInOf { .. } => {
                        self.u.branches.insert(stmt.id);
                    }
                    StmtKind::Switch { disc: _, cases } => {
                        // Each case arm is a branch point.
                        for c in cases {
                            if let Some(s) = c.body.first() {
                                self.u.branches.insert(s.id);
                            }
                        }
                    }
                    _ => {}
                }
            }

            fn visit_expr(&mut self, expr: &Expr) {
                match &expr.kind {
                    ExprKind::Cond { .. } | ExprKind::Logical { .. } => {
                        self.u.branches.insert(expr.id);
                    }
                    _ => {}
                }
            }

            fn visit_function(&mut self, func: &comfort_syntax::ast::Function) {
                self.u.funcs.insert(func.id);
            }
        }
        let mut scan = Scan { u: Universe::default() };
        visit::walk_program(program, &mut scan);
        scan.u
    }
}

/// Runtime coverage recorder.
///
/// The hit sets are ordered, so a recorder's `Debug` text (and that of a
/// [`crate::RunResult`] holding it) reads the same in every process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    stmts_hit: BTreeSet<NodeId>,
    funcs_hit: BTreeSet<NodeId>,
    /// `(branch id, arm)` — `true` arm / `false` arm.
    branches_hit: BTreeSet<(NodeId, bool)>,
}

impl Coverage {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Records execution of a statement.
    pub fn hit_stmt(&mut self, id: NodeId) {
        self.stmts_hit.insert(id);
    }

    /// Records entry into a function body.
    pub fn hit_func(&mut self, id: NodeId) {
        self.funcs_hit.insert(id);
    }

    /// Records one arm of a branch point.
    pub fn hit_branch(&mut self, id: NodeId, arm: bool) {
        self.branches_hit.insert((id, arm));
    }

    /// Statement coverage in `[0, 1]` against `universe` (1.0 if there are
    /// no statements).
    pub fn stmt_ratio(&self, universe: &Universe) -> f64 {
        ratio(
            self.stmts_hit.iter().filter(|id| universe.stmts.contains(id)).count(),
            universe.stmts.len(),
        )
    }

    /// Function coverage in `[0, 1]`.
    pub fn func_ratio(&self, universe: &Universe) -> f64 {
        ratio(
            self.funcs_hit.iter().filter(|id| universe.funcs.contains(id)).count(),
            universe.funcs.len(),
        )
    }

    /// Branch coverage in `[0, 1]`; each branch point has two arms.
    pub fn branch_ratio(&self, universe: &Universe) -> f64 {
        let hit = self.branches_hit.iter().filter(|(id, _)| universe.branches.contains(id)).count();
        ratio(hit, universe.branches.len() * 2)
    }

    /// Merges another run's coverage into this one.
    pub fn merge(&mut self, other: &Coverage) {
        self.stmts_hit.extend(other.stmts_hit.iter().copied());
        self.funcs_hit.extend(other.funcs_hit.iter().copied());
        self.branches_hit.extend(other.branches_hit.iter().copied());
    }
}

fn ratio(hit: usize, total: usize) -> f64 {
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_counts_stmts_funcs_branches() {
        let prog = comfort_syntax::parse(
            "function f(a) { if (a) { return 1; } else { return 2; } } var x = f(1) || 0;",
        )
        .unwrap();
        let u = Universe::of(&prog);
        assert_eq!(u.funcs.len(), 1);
        // function decl, if, return×2, var = 5 statements
        assert_eq!(u.stmts.len(), 5);
        // if + logical-or
        assert_eq!(u.branches.len(), 2);
    }

    #[test]
    fn ratios_with_empty_universe() {
        let prog = comfort_syntax::parse("").unwrap();
        let u = Universe::of(&prog);
        let c = Coverage::new();
        assert_eq!(c.stmt_ratio(&u), 1.0);
        assert_eq!(c.func_ratio(&u), 1.0);
        assert_eq!(c.branch_ratio(&u), 1.0);
    }

    #[test]
    fn merge_unions_hits() {
        let mut a = Coverage::new();
        a.hit_stmt(NodeId(1));
        let mut b = Coverage::new();
        b.hit_stmt(NodeId(2));
        b.hit_branch(NodeId(3), true);
        a.merge(&b);
        let mut u = Universe::default();
        u.stmts.insert(NodeId(1));
        u.stmts.insert(NodeId(2));
        assert_eq!(a.stmt_ratio(&u), 1.0);
    }
}
