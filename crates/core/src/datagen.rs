//! ECMA-262-guided test-data generation — **Algorithm 1** of the paper.
//!
//! Given a generated test program, this module
//!
//! 1. synthesizes *driver code* if the program only defines functions (§3.3:
//!    "we also generate code to call functions with supplied parameters and
//!    print out the results" — lines 5–9 of Figure 2 are produced here);
//! 2. finds every standard-API call site, looks the API up in the ECMA-262
//!    spec database, and emits mutated copies of the program in which the
//!    arguments take the **boundary values** the spec rules identify
//!    (`undefined`, `NaN`, negative, out-of-range, …), following the data
//!    flow from the argument back to the `var` that defines it;
//! 3. also emits a few *random-value* mutants (the paper's "normal
//!    conditions") so the pool is not boundary-only.

use comfort_ecma262::{BoundaryValue, SpecDb};
use comfort_syntax::ast::*;
use comfort_syntax::{print_program, Program};
use rand::Rng;

use crate::testcase::{Origin, TestCase};

/// Configuration for the mutator.
#[derive(Debug, Clone)]
pub struct DataGenConfig {
    /// Maximum mutants derived from one base program.
    pub max_mutants_per_program: usize,
    /// Random (non-boundary) mutants per base program.
    pub random_mutants: usize,
}

impl Default for DataGenConfig {
    fn default() -> Self {
        DataGenConfig { max_mutants_per_program: 24, random_mutants: 4 }
    }
}

/// One discovered API call site.
#[derive(Debug, Clone)]
struct CallSite {
    /// Short API name at the call (`substr`).
    method: String,
    /// Node id of the call expression.
    call_id: NodeId,
    /// Number of arguments at the site.
    argc: usize,
    /// For each argument: the variable name if the argument is a simple
    /// identifier reference (enables definition-site mutation).
    arg_vars: Vec<Option<String>>,
}

/// The Algorithm-1 generator.
#[derive(Debug)]
pub struct DataGen<'d> {
    db: &'d SpecDb,
    config: DataGenConfig,
}

impl<'d> DataGen<'d> {
    /// Creates a generator over the spec database.
    pub fn new(db: &'d SpecDb, config: DataGenConfig) -> Self {
        DataGen { db, config }
    }

    /// Algorithm 1: takes a test program, returns mutated test cases.
    ///
    /// `next_id` supplies fresh test-case ids; `base` is the originating
    /// program's id.
    pub fn mutate<R: Rng>(
        &self,
        base_program: &Program,
        base: u64,
        next_id: &mut u64,
        rng: &mut R,
    ) -> Vec<TestCase> {
        let mut out = Vec::new();
        // Driver synthesis first: the program must *call* its functions and
        // print results, or nothing is observable.
        let driven = ensure_driver(base_program, rng);

        let sites = find_call_sites(&driven);
        for site in &sites {
            let Some(spec) = self.db.get_by_short_name(&site.method) else {
                continue; // API not extracted from ECMA-262 (§3.1 limits)
            };
            // Boundary values per parameter (Algorithm 1 line 8: mutate).
            for (pi, param) in spec.params.iter().enumerate() {
                for value in &param.values {
                    if out.len() >= self.config.max_mutants_per_program {
                        return out;
                    }
                    if let Some(mutant) = mutate_argument(&driven, site, pi, &boundary_expr(value))
                    {
                        push_case(&mut out, mutant, Origin::EcmaMutation, base, next_id);
                    }
                }
            }
            // Argument-count variants: drop the last argument / add one.
            if out.len() >= self.config.max_mutants_per_program {
                return out;
            }
            if site.argc > 0 {
                if let Some(mutant) = set_arg_count(&driven, site, site.argc - 1) {
                    push_case(&mut out, mutant, Origin::EcmaMutation, base, next_id);
                }
            }
            if out.len() >= self.config.max_mutants_per_program {
                return out;
            }
            if site.argc < spec.params.len() + 1 {
                if let Some(mutant) = set_arg_count(&driven, site, site.argc + 1) {
                    push_case(&mut out, mutant, Origin::EcmaMutation, base, next_id);
                }
            }
        }
        // Random mutants ("normal conditions") on spec-known call sites.
        let known: Vec<&CallSite> = sites
            .iter()
            .filter(|s| s.argc > 0 && self.db.get_by_short_name(&s.method).is_some())
            .collect();
        for _ in 0..self.config.random_mutants {
            if known.is_empty() || out.len() >= self.config.max_mutants_per_program {
                break;
            }
            let site = known[rng.random_range(0..known.len())];
            let pi = rng.random_range(0..site.argc);
            let value = random_value_expr(rng);
            if let Some(mutant) = mutate_argument(&driven, site, pi, &value) {
                push_case(&mut out, mutant, Origin::EcmaMutation, base, next_id);
            }
        }
        out
    }

    /// Wraps the *unmutated* (but driver-completed) program as a test case.
    pub fn base_case<R: Rng>(
        &self,
        base_program: &Program,
        base: u64,
        next_id: &mut u64,
        rng: &mut R,
    ) -> TestCase {
        let driven = ensure_driver(base_program, rng);
        let source = print_program(&driven);
        let id = *next_id;
        *next_id += 1;
        TestCase::new(id, source, driven, Origin::ProgramGen, base)
    }
}

fn push_case(
    out: &mut Vec<TestCase>,
    program: Program,
    origin: Origin,
    base: u64,
    next_id: &mut u64,
) {
    // Not re-parsed: the case runs `program`, and `tests/props.rs` checks
    // that the printed source re-parses to it.
    let source = print_program(&program);
    let id = *next_id;
    *next_id += 1;
    out.push(TestCase::new(id, source, program, origin, base));
}

/// Renders a boundary value as an expression.
fn boundary_expr(v: &BoundaryValue) -> Expr {
    match v {
        BoundaryValue::Undefined => build::undefined(),
        BoundaryValue::Null => build::null(),
        BoundaryValue::NaN => build::ident("NaN"),
        BoundaryValue::Number(n) => build::num(*n),
        BoundaryValue::Infinity(pos) => {
            if *pos {
                build::ident("Infinity")
            } else {
                Expr::synthesized(ExprKind::Unary {
                    op: UnaryOp::Neg,
                    operand: Box::new(build::ident("Infinity")),
                })
            }
        }
        BoundaryValue::Str(s) => build::str(s),
        BoundaryValue::Bool(b) => build::bool(*b),
    }
}

/// A "normal-condition" random value (§3.3).
fn random_value_expr<R: Rng>(rng: &mut R) -> Expr {
    match rng.random_range(0..5) {
        0 => build::num(rng.random_range(-100..1000) as f64),
        1 => build::str(["a", "test", "0", "xyz"][rng.random_range(0..4)]),
        2 => build::bool(rng.random_bool(0.5)),
        3 => build::num(rng.random_range(0..10) as f64 + 0.5),
        _ => build::num(0.0),
    }
}

// ---------------------------------------------------------------------------
// Call-site discovery
// ---------------------------------------------------------------------------

fn find_call_sites(program: &Program) -> Vec<CallSite> {
    struct Finder {
        sites: Vec<CallSite>,
    }
    impl comfort_syntax::visit::Visitor for Finder {
        fn visit_expr(&mut self, expr: &Expr) {
            let (callee, args) = match &expr.kind {
                ExprKind::Call { callee, args } => (callee, args),
                ExprKind::New { callee, args } => (callee, args),
                _ => return,
            };
            let method = match &callee.kind {
                ExprKind::Member { prop, .. } => prop.clone(),
                ExprKind::Ident(name) => name.clone(),
                _ => return,
            };
            let arg_vars = args
                .iter()
                .map(|a| match &a.kind {
                    ExprKind::Ident(n) => Some(n.clone()),
                    _ => None,
                })
                .collect();
            self.sites.push(CallSite { method, call_id: expr.id, argc: args.len(), arg_vars });
        }
    }
    let mut f = Finder { sites: Vec::new() };
    comfort_syntax::visit::walk_program(program, &mut f);
    f.sites
}

// ---------------------------------------------------------------------------
// Mutation (clone-and-edit on the AST)
// ---------------------------------------------------------------------------

/// Produces a copy of `program` where argument `arg_index` of the call site
/// takes `value`. If the argument is a plain variable reference, its
/// *definition* is rewritten instead (the Figure 2 pattern: `var len =
/// undefined;`), following the program's data flow as Algorithm 1 line 8
/// describes; otherwise the argument expression itself is replaced.
fn mutate_argument(
    program: &Program,
    site: &CallSite,
    arg_index: usize,
    value: &Expr,
) -> Option<Program> {
    let mut clone = program.clone();
    let changed = match site.arg_vars.get(arg_index).cloned().flatten() {
        Some(var_name) => {
            rewrite_var_init(&mut clone.body, &var_name, value)
                || rewrite_call_arg(&mut clone.body, site.call_id, arg_index, value)
        }
        None => rewrite_call_arg(&mut clone.body, site.call_id, arg_index, value),
    };
    if !changed {
        return None;
    }
    clone.renumber();
    Some(clone)
}

/// Produces a copy with the call site's argument list truncated/extended to
/// `new_argc` (extension pads with `undefined`... no: with `0`, a neutral
/// ordinary value, so `ArgCountAtLeast` bugs are reachable).
fn set_arg_count(program: &Program, site: &CallSite, new_argc: usize) -> Option<Program> {
    let mut clone = program.clone();
    let mut changed = false;
    visit_calls_mut(&mut clone.body, &mut |expr| {
        if expr.id != site.call_id {
            return;
        }
        if let ExprKind::Call { args, .. } | ExprKind::New { args, .. } = &mut expr.kind {
            while args.len() > new_argc {
                args.pop();
            }
            while args.len() < new_argc {
                args.push(build::num(0.0));
            }
            changed = true;
        }
    });
    if !changed {
        return None;
    }
    clone.renumber();
    Some(clone)
}

/// Rewrites `var NAME = …;` initializers (first match wins).
fn rewrite_var_init(body: &mut [Stmt], name: &str, value: &Expr) -> bool {
    fn in_stmt(stmt: &mut Stmt, name: &str, value: &Expr) -> bool {
        match &mut stmt.kind {
            StmtKind::Decl { decls, .. } => {
                for d in decls {
                    if d.name == name {
                        d.init = Some(value.clone());
                        return true;
                    }
                }
                false
            }
            StmtKind::Block(b) => b.iter_mut().any(|s| in_stmt(s, name, value)),
            StmtKind::If { cons, alt, .. } => {
                in_stmt(cons, name, value)
                    || alt.as_deref_mut().is_some_and(|a| in_stmt(a, name, value))
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                in_stmt(body, name, value)
            }
            StmtKind::For { body, .. } | StmtKind::ForInOf { body, .. } => {
                in_stmt(body, name, value)
            }
            StmtKind::FunctionDecl(f) => f.body.iter_mut().any(|s| in_stmt(s, name, value)),
            StmtKind::Try { block, catch, finally } => {
                block.iter_mut().any(|s| in_stmt(s, name, value))
                    || catch
                        .as_mut()
                        .is_some_and(|c| c.body.iter_mut().any(|s| in_stmt(s, name, value)))
                    || finally
                        .as_mut()
                        .is_some_and(|f| f.iter_mut().any(|s| in_stmt(s, name, value)))
            }
            _ => false,
        }
    }
    body.iter_mut().any(|s| in_stmt(s, name, value))
}

/// Rewrites the argument expression of the call with id `call_id`.
fn rewrite_call_arg(body: &mut [Stmt], call_id: NodeId, arg_index: usize, value: &Expr) -> bool {
    let mut changed = false;
    visit_calls_mut(body, &mut |expr| {
        if expr.id != call_id || changed {
            return;
        }
        if let ExprKind::Call { args, .. } | ExprKind::New { args, .. } = &mut expr.kind {
            if let Some(slot) = args.get_mut(arg_index) {
                *slot = value.clone();
                changed = true;
            }
        }
    });
    changed
}

/// Applies `f` to every call/new expression (mutable traversal).
fn visit_calls_mut(body: &mut [Stmt], f: &mut impl FnMut(&mut Expr)) {
    fn expr_walk(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
        if matches!(e.kind, ExprKind::Call { .. } | ExprKind::New { .. }) {
            f(e);
        }
        match &mut e.kind {
            ExprKind::Array(items) => {
                items.iter_mut().flatten().for_each(|e| expr_walk(e, f));
            }
            ExprKind::Object(props) => {
                for p in props {
                    if let PropKey::Computed(k) = &mut p.key {
                        expr_walk(k, f);
                    }
                    if let Some(v) = &mut p.value {
                        expr_walk(v, f);
                    }
                }
            }
            ExprKind::Function(func) => stmt_walk(&mut func.body, f),
            ExprKind::Arrow { func, expr_body } => {
                stmt_walk(&mut func.body, f);
                if let Some(e) = expr_body {
                    expr_walk(e, f);
                }
            }
            ExprKind::Unary { operand, .. } => expr_walk(operand, f),
            ExprKind::Update { target, .. } => expr_walk(target, f),
            ExprKind::Binary { left, right, .. } | ExprKind::Logical { left, right, .. } => {
                expr_walk(left, f);
                expr_walk(right, f);
            }
            ExprKind::Cond { cond, cons, alt } => {
                expr_walk(cond, f);
                expr_walk(cons, f);
                expr_walk(alt, f);
            }
            ExprKind::Assign { target, value, .. } => {
                expr_walk(target, f);
                expr_walk(value, f);
            }
            ExprKind::Seq(items) => items.iter_mut().for_each(|e| expr_walk(e, f)),
            ExprKind::Call { callee, args } | ExprKind::New { callee, args } => {
                expr_walk(callee, f);
                args.iter_mut().for_each(|e| expr_walk(e, f));
            }
            ExprKind::Member { object, .. } => expr_walk(object, f),
            ExprKind::Index { object, index } => {
                expr_walk(object, f);
                expr_walk(index, f);
            }
            ExprKind::Template { exprs, .. } => exprs.iter_mut().for_each(|e| expr_walk(e, f)),
            ExprKind::Paren(inner) => expr_walk(inner, f),
            ExprKind::Ident(_) | ExprKind::Lit(_) | ExprKind::This => {}
        }
    }
    fn stmt_walk(body: &mut [Stmt], f: &mut impl FnMut(&mut Expr)) {
        for stmt in body {
            match &mut stmt.kind {
                StmtKind::Expr(e) | StmtKind::Throw(e) => expr_walk(e, f),
                StmtKind::Decl { decls, .. } => {
                    for d in decls {
                        if let Some(init) = &mut d.init {
                            expr_walk(init, f);
                        }
                    }
                }
                StmtKind::FunctionDecl(func) => stmt_walk(&mut func.body, f),
                StmtKind::Block(b) => stmt_walk(b, f),
                StmtKind::If { cond, cons, alt } => {
                    expr_walk(cond, f);
                    stmt_walk(std::slice::from_mut(cons), f);
                    if let Some(alt) = alt {
                        stmt_walk(std::slice::from_mut(alt), f);
                    }
                }
                StmtKind::While { cond, body } => {
                    expr_walk(cond, f);
                    stmt_walk(std::slice::from_mut(body), f);
                }
                StmtKind::DoWhile { body, cond } => {
                    stmt_walk(std::slice::from_mut(body), f);
                    expr_walk(cond, f);
                }
                StmtKind::For { init, test, update, body } => {
                    match init.as_deref_mut() {
                        Some(ForInit::Decl { decls, .. }) => {
                            for d in decls {
                                if let Some(e) = &mut d.init {
                                    expr_walk(e, f);
                                }
                            }
                        }
                        Some(ForInit::Expr(e)) => expr_walk(e, f),
                        None => {}
                    }
                    if let Some(t) = test {
                        expr_walk(t, f);
                    }
                    if let Some(u) = update {
                        expr_walk(u, f);
                    }
                    stmt_walk(std::slice::from_mut(body), f);
                }
                StmtKind::ForInOf { object, body, .. } => {
                    expr_walk(object, f);
                    stmt_walk(std::slice::from_mut(body), f);
                }
                StmtKind::Return(Some(e)) => expr_walk(e, f),
                StmtKind::Try { block, catch, finally } => {
                    stmt_walk(block, f);
                    if let Some(c) = catch {
                        stmt_walk(&mut c.body, f);
                    }
                    if let Some(fin) = finally {
                        stmt_walk(fin, f);
                    }
                }
                StmtKind::Switch { disc, cases } => {
                    expr_walk(disc, f);
                    for c in cases {
                        if let Some(t) = &mut c.test {
                            expr_walk(t, f);
                        }
                        stmt_walk(&mut c.body, f);
                    }
                }
                _ => {}
            }
        }
    }
    stmt_walk(body, f);
}

// ---------------------------------------------------------------------------
// Driver synthesis
// ---------------------------------------------------------------------------

/// If the program defines functions but never calls them at the top level,
/// append driver code (`var parameter = …; print(f(parameter));` — the
/// Figure 2 lines 5–9 pattern). Programs that already have top-level calls
/// are returned unchanged.
pub fn ensure_driver<R: Rng>(program: &Program, rng: &mut R) -> Program {
    let mut clone = program.clone();
    let funcs: Vec<(String, usize)> = clone
        .body
        .iter()
        .filter_map(|s| match &s.kind {
            StmtKind::FunctionDecl(f) => {
                Some((f.name.clone().expect("function declarations are named"), f.params.len()))
            }
            StmtKind::Decl { decls, .. } => decls.iter().find_map(|d| match &d.init {
                Some(Expr { kind: ExprKind::Function(f), .. }) => {
                    Some((d.name.clone(), f.params.len()))
                }
                Some(Expr { kind: ExprKind::Arrow { func, .. }, .. }) => {
                    Some((d.name.clone(), func.params.len()))
                }
                _ => None,
            }),
            _ => None,
        })
        .collect();

    let has_toplevel_call = clone.body.iter().any(|s| {
        matches!(
            &s.kind,
            StmtKind::Expr(Expr { kind: ExprKind::Call { .. }, .. })
        ) || matches!(
            &s.kind,
            StmtKind::Decl { decls, .. }
                if decls.iter().any(|d| matches!(&d.init, Some(Expr { kind: ExprKind::Call { .. }, .. })))
        )
    });
    if funcs.is_empty() || has_toplevel_call {
        return clone;
    }
    for (i, (name, argc)) in funcs.iter().enumerate() {
        let mut args = Vec::new();
        for j in 0..*argc {
            let pname = format!("parameter{i}_{j}");
            clone.body.push(build::var_decl(&pname, random_value_expr(rng)));
            args.push(build::ident(&pname));
        }
        let call = build::call(build::ident(name), args);
        clone.body.push(build::var_decl(&format!("result{i}"), call));
        clone.body.push(build::expr_stmt(build::call(
            build::ident("print"),
            vec![build::ident(&format!("result{i}"))],
        )));
    }
    clone.renumber();
    clone
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_syntax::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> &'static SpecDb {
        comfort_ecma262::spec_db()
    }

    #[test]
    fn figure2_mutation_is_produced() {
        // The generated program calls substr through a variable; the mutator
        // must produce the `var len = undefined;` variant of Figure 2.
        let src = r#"
function foo(str, start, len) { var ret = str.substr(start, len); return ret; }
var s = "Name: Albert";
var pre = 6;
var len = 5;
var name = foo(s, pre, len);
print(name);
"#;
        let program = parse(src).expect("parses");
        let gen = DataGen::new(db(), DataGenConfig::default());
        let mut next = 0;
        let mut rng = StdRng::seed_from_u64(1);
        let mutants = gen.mutate(&program, 0, &mut next, &mut rng);
        assert!(!mutants.is_empty());
        assert!(
            mutants.iter().any(|m| m.source.contains("var len = undefined;")),
            "expected a Figure-2-style undefined mutation;\nfirst mutant:\n{}",
            mutants[0].source
        );
        for m in &mutants {
            assert_eq!(m.origin, Origin::EcmaMutation);
            parse(&m.source).expect("mutants are valid JS");
        }
    }

    #[test]
    fn inline_argument_mutation() {
        let src = "print(\"hello\".substr(1, 2));";
        let program = parse(src).expect("parses");
        let gen = DataGen::new(db(), DataGenConfig::default());
        let mut next = 0;
        let mut rng = StdRng::seed_from_u64(2);
        let mutants = gen.mutate(&program, 0, &mut next, &mut rng);
        assert!(mutants.iter().any(|m| m.source.contains("substr(1, undefined)")
            || m.source.contains("substr(undefined, 2)")));
    }

    #[test]
    fn arg_count_variants() {
        let src = "print(\"abc\".substr(1, 2));";
        let program = parse(src).expect("parses");
        let gen = DataGen::new(
            db(),
            DataGenConfig { max_mutants_per_program: 64, ..DataGenConfig::default() },
        );
        let mut next = 0;
        let mut rng = StdRng::seed_from_u64(3);
        let mutants = gen.mutate(&program, 0, &mut next, &mut rng);
        assert!(mutants.iter().any(|m| m.source.contains("substr(1)")), "drop-arg variant");
    }

    #[test]
    fn unknown_apis_are_skipped() {
        let src = "print(somethingCustom(1));";
        let program = parse(src).expect("parses");
        let gen = DataGen::new(db(), DataGenConfig::default());
        let mut next = 0;
        let mut rng = StdRng::seed_from_u64(4);
        let mutants = gen.mutate(&program, 0, &mut next, &mut rng);
        assert!(mutants.is_empty());
    }

    #[test]
    fn driver_synthesis_adds_call_and_print() {
        let src = "var foo = function(size) { return size + 1; };";
        let program = parse(src).expect("parses");
        let mut rng = StdRng::seed_from_u64(5);
        let driven = ensure_driver(&program, &mut rng);
        let text = print_program(&driven);
        assert!(text.contains("foo(parameter0_0)"), "{text}");
        assert!(text.contains("print(result0)"), "{text}");
        parse(&text).expect("driver output is valid JS");
    }

    #[test]
    fn driver_not_duplicated() {
        let src = "function f(x) { return x; }\nvar r = f(1);\nprint(r);";
        let program = parse(src).expect("parses");
        let mut rng = StdRng::seed_from_u64(6);
        let driven = ensure_driver(&program, &mut rng);
        assert_eq!(print_program(&driven), print_program(&program));
    }

    #[test]
    fn mutant_cap_respected() {
        let src = "print(\"x\".substr(0, 1)); print(\"y\".slice(0)); print([1].join(\",\"));";
        let program = parse(src).expect("parses");
        let gen =
            DataGen::new(db(), DataGenConfig { max_mutants_per_program: 5, random_mutants: 5 });
        let mut next = 0;
        let mut rng = StdRng::seed_from_u64(7);
        let mutants = gen.mutate(&program, 0, &mut next, &mut rng);
        assert!(mutants.len() <= 5, "{}", mutants.len());
    }
}
