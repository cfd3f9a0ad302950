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
//!
//! The driven base is printed once, with the byte range of every
//! expression. A mutant replaces one argument or initializer, or cuts or
//! pads one argument list, so its source is the base text with that one
//! range replaced. Mutants are printed whole only when the base's node ids
//! are not unique, so a range cannot be trusted, or when a `var x;` gains
//! an initializer, which has no range to replace. Either way every source
//! equals `print_program` of its program.

use std::borrow::Cow;
use std::ops::Range;

use comfort_ecma262::{ApiSpec, BoundaryValue, SpecDb};
use comfort_syntax::ast::*;
use comfort_syntax::visit::{walk_program, walk_program_mut, Visitor, VisitorMut};
use comfort_syntax::{print_expr, print_program, print_program_spans, ExprSpans, Program};
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

/// One call site of an API the spec database knows, borrowed from the
/// driven program.
struct CallSite<'p, 'd> {
    /// The API's extracted rules.
    spec: &'d ApiSpec,
    /// Node id of the call expression.
    call_id: NodeId,
    /// The callee; the argument list's `(` follows its text.
    callee: &'p Expr,
    /// The arguments.
    args: &'p [Expr],
}

impl<'p> CallSite<'p, '_> {
    /// The variable argument `i` reads, if it is a plain identifier: its
    /// definition is mutated instead of the argument.
    fn arg_var(&self, i: usize) -> Option<&'p str> {
        match &self.args.get(i)?.kind {
            ExprKind::Ident(name) => Some(name),
            _ => None,
        }
    }
}

/// A mutated copy of the base and its source.
type Mutant = (Program, String);

/// The driven base program and its text, printed once.
struct PrintedBase<'p> {
    program: &'p Program,
    text: String,
    /// Where each expression's text lies; `None` when the program's node
    /// ids are not unique, and every mutant is then printed whole.
    spans: Option<ExprSpans>,
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
        let max = self.config.max_mutants_per_program;
        let mut out = Vec::new();
        // Driver synthesis first: the program must *call* its functions and
        // print results, or nothing is observable.
        let driven = drive(base_program, rng);
        let printed = PrintedBase::new(&driven);

        let sites = find_call_sites(&driven, self.db);
        for site in &sites {
            // Boundary values per parameter (Algorithm 1 line 8: mutate).
            for (pi, param) in site.spec.params.iter().enumerate() {
                for value in &param.values {
                    if out.len() >= max {
                        return out;
                    }
                    if let Some(mutant) = printed.mutate_argument(site, pi, || boundary_expr(value))
                    {
                        push_case(&mut out, mutant, base, next_id);
                    }
                }
            }
            // Argument-count variants: drop the last argument / add one.
            if out.len() >= max {
                return out;
            }
            let argc = site.args.len();
            if argc > 0 {
                if let Some(mutant) = printed.set_arg_count(site, argc - 1) {
                    push_case(&mut out, mutant, base, next_id);
                }
            }
            if out.len() >= max {
                return out;
            }
            if argc < site.spec.params.len() + 1 {
                if let Some(mutant) = printed.set_arg_count(site, argc + 1) {
                    push_case(&mut out, mutant, base, next_id);
                }
            }
        }
        // Random mutants ("normal conditions") on spec-known call sites.
        let known: Vec<&CallSite> = sites.iter().filter(|s| !s.args.is_empty()).collect();
        for _ in 0..self.config.random_mutants {
            if known.is_empty() || out.len() >= max {
                break;
            }
            let site = known[rng.random_range(0..known.len())];
            let pi = rng.random_range(0..site.args.len());
            let value = random_value_expr(rng);
            if let Some(mutant) = printed.mutate_argument(site, pi, || value) {
                push_case(&mut out, mutant, base, next_id);
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

fn push_case(out: &mut Vec<TestCase>, (program, source): Mutant, base: u64, next_id: &mut u64) {
    // Not re-parsed: the case runs `program`, `source` is its print
    // (`tests/datagen_pin.rs`), and `tests/props.rs` checks that the source
    // re-parses to it.
    let id = *next_id;
    *next_id += 1;
    out.push(TestCase::new(id, source, program, Origin::EcmaMutation, base));
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

/// Every call or `new` of an API in `db`, in pre-order.
fn find_call_sites<'p, 'd>(program: &'p Program, db: &'d SpecDb) -> Vec<CallSite<'p, 'd>> {
    struct Finder<'p, 'd> {
        db: &'d SpecDb,
        sites: Vec<CallSite<'p, 'd>>,
    }
    impl<'p> Visitor<'p> for Finder<'p, '_> {
        fn visit_expr(&mut self, expr: &'p Expr) {
            let (ExprKind::Call { callee, args } | ExprKind::New { callee, args }) = &expr.kind
            else {
                return;
            };
            let method = match &callee.kind {
                ExprKind::Member { prop, .. } => prop,
                ExprKind::Ident(name) => name,
                _ => return,
            };
            // APIs not extracted from ECMA-262 (§3.1 limits) get no mutants.
            if let Some(spec) = self.db.get_by_short_name(method) {
                self.sites.push(CallSite { spec, call_id: expr.id, callee, args });
            }
        }
    }
    let mut f = Finder { db, sites: Vec::new() };
    walk_program(program, &mut f);
    f.sites
}

// ---------------------------------------------------------------------------
// Mutation: clone and edit the AST, splice the printed base
// ---------------------------------------------------------------------------

impl<'p> PrintedBase<'p> {
    fn new(program: &'p Program) -> Self {
        let (text, spans) = print_program_spans(program);
        PrintedBase { program, text, spans }
    }

    /// The base text with `range` replaced by `insert`.
    fn splice(&self, range: Range<usize>, insert: &str) -> String {
        let mut source = String::with_capacity(self.text.len() - range.len() + insert.len());
        source.push_str(&self.text[..range.start]);
        source.push_str(insert);
        source.push_str(&self.text[range.end..]);
        source
    }

    /// A copy of the base where argument `arg_index` of the call site takes
    /// `value`. If the argument is a plain variable reference, its
    /// *definition* is rewritten instead (the Figure 2 pattern: `var len =
    /// undefined;`), following the program's data flow as Algorithm 1 line 8
    /// describes; otherwise the argument expression itself is replaced.
    ///
    /// With unique node ids the site is the only call with its id, so the
    /// edit lands exactly when the argument exists; otherwise nothing is
    /// built. The value is a literal, an identifier or `-Infinity`, all of
    /// which bind tighter than assignment, so `print_expr` prints it as the
    /// argument or initializer slot does.
    fn mutate_argument(
        &self,
        site: &CallSite,
        arg_index: usize,
        value: impl FnOnce() -> Expr,
    ) -> Option<Mutant> {
        if self.spans.is_some() && arg_index >= site.args.len() {
            return None;
        }
        let value = value();
        let mut program = self.program.clone();
        let replaced = site
            .arg_var(arg_index)
            .and_then(|name| rewrite_var_init(&mut program.body, name, &value))
            .or_else(|| {
                rewrite_call_arg(&mut program, site.call_id, arg_index, &value).map(Some)
            })?;
        program.renumber();
        let range = self.spans.as_ref().zip(replaced).and_then(|(spans, id)| spans.get(id));
        let source = match range {
            Some(range) => self.splice(range, &print_expr(&value)),
            None => print_program(&program),
        };
        Some((program, source))
    }

    /// A copy of the base with the call site's argument list cut or padded
    /// to `new_argc`. Padding uses `0`, a neutral ordinary value, so
    /// `ArgCountAtLeast` bugs are reachable.
    fn set_arg_count(&self, site: &CallSite, new_argc: usize) -> Option<Mutant> {
        let mut program = self.program.clone();
        let mut changed = false;
        edit_call_args(&mut program, site.call_id, |args| {
            args.truncate(new_argc);
            args.resize_with(new_argc, || build::num(0.0));
            changed = true;
        });
        if !changed {
            return None;
        }
        program.renumber();
        let source =
            self.spliced_arg_count(site, new_argc).unwrap_or_else(|| print_program(&program));
        Some((program, source))
    }

    /// The source of [`PrintedBase::set_arg_count`]'s mutant, spliced: the
    /// last argument is cut together with its `, `, or `, 0` is inserted
    /// after it. `(` comes right after the callee, so an empty or
    /// one-argument list is edited from there.
    fn spliced_arg_count(&self, site: &CallSite, new_argc: usize) -> Option<String> {
        let spans = self.spans.as_ref()?;
        let argc = site.args.len();
        let list_start = spans.get(site.callee.id)?.end + 1;
        let arg_end = |i: usize| spans.get(site.args[i].id).map(|r| r.end);
        if new_argc + 1 == argc {
            let start = if argc >= 2 { arg_end(argc - 2)? } else { list_start };
            Some(self.splice(start..arg_end(argc - 1)?, ""))
        } else if new_argc == argc + 1 {
            let at = if argc > 0 { arg_end(argc - 1)? } else { list_start };
            Some(self.splice(at..at, if argc > 0 { ", 0" } else { "0" }))
        } else {
            None
        }
    }
}

/// Rewrites the first `var NAME = …;` initializer. Returns `None` if no
/// declarator has the name, else the id of the initializer it replaced
/// (`None` inside for a `var NAME;`).
///
/// The search is narrower than the walks of `comfort_syntax::visit`: it
/// does not enter expressions (so not the bodies of function expressions
/// and arrows), `switch` cases or `for` heads. That scope decides which
/// `var` a mutant rewrites.
fn rewrite_var_init(body: &mut [Stmt], name: &str, value: &Expr) -> Option<Option<NodeId>> {
    fn in_stmt(stmt: &mut Stmt, name: &str, value: &Expr) -> Option<Option<NodeId>> {
        match &mut stmt.kind {
            StmtKind::Decl { decls, .. } => decls
                .iter_mut()
                .find(|d| d.name == name)
                .map(|d| d.init.replace(value.clone()).map(|old| old.id)),
            StmtKind::Block(b) => b.iter_mut().find_map(|s| in_stmt(s, name, value)),
            StmtKind::If { cons, alt, .. } => in_stmt(cons, name, value)
                .or_else(|| alt.as_deref_mut().and_then(|a| in_stmt(a, name, value))),
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                in_stmt(body, name, value)
            }
            StmtKind::For { body, .. } | StmtKind::ForInOf { body, .. } => {
                in_stmt(body, name, value)
            }
            StmtKind::FunctionDecl(f) => f.body.iter_mut().find_map(|s| in_stmt(s, name, value)),
            StmtKind::Try { block, catch, finally } => block
                .iter_mut()
                .find_map(|s| in_stmt(s, name, value))
                .or_else(|| {
                    catch
                        .as_mut()
                        .and_then(|c| c.body.iter_mut().find_map(|s| in_stmt(s, name, value)))
                })
                .or_else(|| {
                    finally
                        .as_mut()
                        .and_then(|f| f.iter_mut().find_map(|s| in_stmt(s, name, value)))
                }),
            _ => None,
        }
    }
    body.iter_mut().find_map(|s| in_stmt(s, name, value))
}

/// Rewrites argument `arg_index` of the first call with id `call_id` that
/// has one; returns the replaced argument's id.
fn rewrite_call_arg(
    program: &mut Program,
    call_id: NodeId,
    arg_index: usize,
    value: &Expr,
) -> Option<NodeId> {
    let mut replaced = None;
    edit_call_args(program, call_id, |args| {
        if replaced.is_none() {
            if let Some(slot) = args.get_mut(arg_index) {
                replaced = Some(std::mem::replace(slot, value.clone()).id);
            }
        }
    });
    replaced
}

/// Applies `edit` to the argument list of every call or `new` with id
/// `call_id`, in pre-order.
fn edit_call_args(program: &mut Program, call_id: NodeId, edit: impl FnMut(&mut Vec<Expr>)) {
    struct CallEdit<F> {
        call_id: NodeId,
        edit: F,
    }
    impl<F: FnMut(&mut Vec<Expr>)> VisitorMut for CallEdit<F> {
        fn visit_expr(&mut self, expr: &mut Expr) {
            if expr.id != self.call_id {
                return;
            }
            if let ExprKind::Call { args, .. } | ExprKind::New { args, .. } = &mut expr.kind {
                (self.edit)(args);
            }
        }
    }
    walk_program_mut(program, &mut CallEdit { call_id, edit });
}

// ---------------------------------------------------------------------------
// Driver synthesis
// ---------------------------------------------------------------------------

/// If the program defines functions but never calls them at the top level,
/// append driver code (`var parameter = …; print(f(parameter));` — the
/// Figure 2 lines 5–9 pattern). Programs that already have top-level calls
/// are returned unchanged.
pub fn ensure_driver<R: Rng>(program: &Program, rng: &mut R) -> Program {
    drive(program, rng).into_owned()
}

/// [`ensure_driver`] without the copy when no driver is added: the program
/// itself, borrowed.
fn drive<'p, R: Rng>(program: &'p Program, rng: &mut R) -> Cow<'p, Program> {
    let has_toplevel_call = program.body.iter().any(|s| {
        matches!(
            &s.kind,
            StmtKind::Expr(Expr { kind: ExprKind::Call { .. }, .. })
        ) || matches!(
            &s.kind,
            StmtKind::Decl { decls, .. }
                if decls.iter().any(|d| matches!(&d.init, Some(Expr { kind: ExprKind::Call { .. }, .. })))
        )
    });
    if has_toplevel_call {
        return Cow::Borrowed(program);
    }
    let funcs: Vec<(&str, usize)> = program
        .body
        .iter()
        .filter_map(|s| match &s.kind {
            StmtKind::FunctionDecl(f) => {
                Some((f.name.as_deref().expect("function declarations are named"), f.params.len()))
            }
            StmtKind::Decl { decls, .. } => decls.iter().find_map(|d| match &d.init {
                Some(Expr { kind: ExprKind::Function(f), .. }) => {
                    Some((d.name.as_str(), f.params.len()))
                }
                Some(Expr { kind: ExprKind::Arrow { func, .. }, .. }) => {
                    Some((d.name.as_str(), func.params.len()))
                }
                _ => None,
            }),
            _ => None,
        })
        .collect();
    if funcs.is_empty() {
        return Cow::Borrowed(program);
    }
    let mut driven = program.clone();
    for (i, (name, argc)) in funcs.iter().enumerate() {
        let mut args = Vec::new();
        for j in 0..*argc {
            let pname = format!("parameter{i}_{j}");
            driven.body.push(build::var_decl(&pname, random_value_expr(rng)));
            args.push(build::ident(&pname));
        }
        let call = build::call(build::ident(name), args);
        driven.body.push(build::var_decl(&format!("result{i}"), call));
        driven.body.push(build::expr_stmt(build::call(
            build::ident("print"),
            vec![build::ident(&format!("result{i}"))],
        )));
    }
    driven.renumber();
    Cow::Owned(driven)
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
