#![warn(missing_docs)]

//! JavaScript front end for the COMFORT reproduction.
//!
//! This crate provides the lexer, the recursive-descent parser, the AST,
//! a precedence-aware pretty-printer, and a read-only and a mutable
//! visitor that walk in one order. It implements the ES2015-era subset that
//! COMFORT's generators produce and that the simulated engines in
//! `comfort-engines` execute.
//!
//! The parser doubles as the **JSHint substitute** from the paper (§4.3):
//! [`lint`] statically decides whether a generated program is syntactically
//! valid, which feeds the Figure 9 syntax-passing-rate experiment.
//!
//! # Examples
//!
//! ```
//! let src = "function foo(str, start, len) { return str.substr(start, len); }";
//! let program = comfort_syntax::parse(src)?;
//! let printed = comfort_syntax::print_program(&program);
//! // Printing then re-parsing yields the same structure.
//! assert!(comfort_syntax::parse(&printed).is_ok());
//! # Ok::<(), comfort_syntax::SyntaxError>(())
//! ```

pub mod arena;
pub mod ast;
mod error;
mod fnv;
pub mod lexer;
mod parser;
pub mod printer;
pub mod visit;

pub use arena::{FuncProto, Node, NodeArena, NodeKind};
pub use ast::{Expr, ExprKind, Program, Stmt, StmtKind};
pub use error::SyntaxError;
pub use fnv::{FnvBuildHasher, FnvHasher};
pub use parser::parse;
pub use printer::{print_expr, print_program, print_program_spans, print_stmt, ExprSpans};

/// Statically checks `src` for syntax errors (the JSHint stand-in, §4.3).
///
/// Returns the JSHint-style verdict: `Ok(())` for syntactically valid
/// programs, the first [`SyntaxError`] otherwise.
///
/// # Errors
///
/// Returns the underlying parse error for invalid programs.
///
/// # Examples
///
/// ```
/// assert!(comfort_syntax::lint("var x = 1;").is_ok());
/// assert!(comfort_syntax::lint("var x = ;").is_err());
/// ```
pub fn lint(src: &str) -> Result<(), SyntaxError> {
    parse(src).map(drop)
}

#[cfg(test)]
mod tests {
    use super::ast::*;
    use super::*;

    fn p(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"))
    }

    fn roundtrip(src: &str) {
        let once = print_program(&p(src));
        let twice = print_program(&p(&once));
        assert_eq!(once, twice, "print→parse→print not stable for {src:?}");
    }

    #[test]
    fn parses_paper_figure_2() {
        let src = r#"
function foo(str, start, len) {
  var ret = str.substr(start, len);
  return ret;
}
var s = "Name: Albert";
var pre = "Name: ";
var len = undefined;
var name = foo(s, pre.length, len);
print(name);
"#;
        let prog = p(src);
        assert_eq!(prog.body.len(), 6);
        assert!(matches!(prog.body[0].kind, StmtKind::FunctionDecl(_)));
        roundtrip(src);
    }

    #[test]
    fn parses_paper_listings() {
        // Listing 1 (defineProperty), 2 (while size--), 5 (TypedArray.set),
        // 6 (obj[property]), 7 (eval for-loop), 8 (split regex).
        for src in [
            r#"var foo = function() {
                 var arrobj = [0, 1];
                 Object.defineProperty(arrobj, "length", { value: 1, configurable: true });
               };
               foo();"#,
            "var foo = function(size) { var array = new Array(size); while (size--) { array[size] = 0; } }\nvar parameter = 904862;\nfoo(parameter);",
            "var foo = function() { var e = '123'; A = new Uint8Array(5); A.set(e); print(A); }; foo();",
            "var foo = function() { var property = true; var obj = [1,2,5]; obj[property] = 10; print(obj); print(obj[property]); }; foo();",
            "var foo = function() { var a = eval(\"for(var i = 0; i < 1; ++i)\"); }; foo();",
            "var foo = function() { var a = \"anA\".split(/^A/); print(a); }; foo();",
        ] {
            let prog = p(src);
            assert!(!prog.body.is_empty());
            roundtrip(src);
        }
    }

    #[test]
    fn deep_paren_nesting_errors_instead_of_overflowing() {
        let src = format!("{}1{};", "(".repeat(5_000), ")".repeat(5_000));
        let err = parse(&src).expect_err("pathological nesting must be rejected");
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }

    #[test]
    fn deep_template_tower_errors_instead_of_overflowing() {
        // Each `${` re-enters the parser through an embedded expression; the
        // depth guard must carry across that boundary (it used to reset).
        let src = format!("{}1{};", "`${".repeat(2_000), "}`".repeat(2_000));
        let err = parse(&src).expect_err("template tower must be rejected");
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }

    #[test]
    fn moderate_nesting_still_parses() {
        let parens = format!("var x = {}1{};", "(".repeat(30), ")".repeat(30));
        assert!(parse(&parens).is_ok());
        let templates = format!("var y = {}1{};", "`${".repeat(20), "}`".repeat(20));
        assert!(parse(&templates).is_ok());
    }

    #[test]
    fn directive_prologue_sets_strict() {
        assert!(p("\"use strict\"; var x = 1;").strict);
        assert!(!p("var x = 1; \"use strict\";").strict);
        // A string expression used in arithmetic is not a directive.
        assert!(!p("\"use strict\" + f();").strict);
    }

    #[test]
    fn function_level_strict() {
        let prog = p("function f() { \"use strict\"; return 1; }");
        match &prog.body[0].kind {
            StmtKind::FunctionDecl(f) => assert!(f.strict),
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn asi_cases() {
        assert!(parse("var a = 1\nvar b = 2").is_ok());
        assert!(parse("a = 1").is_ok()); // EOF
        assert!(parse("{ a = 1 }").is_ok()); // before }
        assert!(parse("var a = 1 var b = 2").is_err()); // same line, no ;
    }

    #[test]
    fn return_asi() {
        // `return\nx` returns undefined; the `x` is a separate statement.
        let prog = p("function f() { return\n1; }");
        match &prog.body[0].kind {
            StmtKind::FunctionDecl(f) => {
                assert!(matches!(f.body[0].kind, StmtKind::Return(None)));
                assert_eq!(f.body.len(), 2);
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let prog = p("x = 1 + 2 * 3;");
        let printed = print_program(&prog);
        assert!(printed.contains("1 + 2 * 3"));
        let prog = p("x = (1 + 2) * 3;");
        let printed = print_program(&prog);
        assert!(printed.contains("(1 + 2) * 3"));
    }

    #[test]
    fn pow_right_assoc() {
        let prog = p("x = 2 ** 3 ** 2;");
        // Must evaluate as 2 ** (3 ** 2); printing should preserve structure.
        roundtrip("x = 2 ** 3 ** 2;");
        match &prog.body[0].kind {
            StmtKind::Expr(e) => match &e.kind {
                ExprKind::Assign { value, .. } => match &value.kind {
                    ExprKind::Binary { right, .. } => {
                        assert!(matches!(right.kind, ExprKind::Binary { .. }));
                    }
                    other => panic!("expected binary, got {other:?}"),
                },
                other => panic!("expected assign, got {other:?}"),
            },
            other => panic!("expected expr, got {other:?}"),
        }
    }

    #[test]
    fn for_variants() {
        roundtrip("for (var i = 0; i < 10; i++) { x += i; }");
        roundtrip("for (;;) { break; }");
        roundtrip("for (var k in obj) { print(k); }");
        roundtrip("for (var v of arr) { print(v); }");
        roundtrip("for (k in obj) { print(k); }");
    }

    #[test]
    fn in_operator_outside_for() {
        roundtrip("var b = \"x\" in o;");
    }

    #[test]
    fn arrow_functions() {
        roundtrip("var f = x => x + 1;");
        roundtrip("var f = (a, b) => a * b;");
        roundtrip("var f = () => { return 42; };");
        roundtrip("var f = (a) => ({ v: a });");
        // Paren expr that is NOT an arrow.
        roundtrip("var y = (a + b) * 2;");
    }

    #[test]
    fn object_literals() {
        roundtrip("var o = { a: 1, \"b c\": 2, 3: 4, [k]: 5 };");
        roundtrip("var o = { x };");
        assert!(parse("var o = { 1 };").is_err());
    }

    #[test]
    fn template_literals() {
        roundtrip("var s = `a${1 + 2}b`;");
        let prog = p("var s = `x${v}`;");
        match &prog.body[0].kind {
            StmtKind::Decl { decls, .. } => match &decls[0].init.as_ref().unwrap().kind {
                ExprKind::Template { quasis, exprs } => {
                    assert_eq!(quasis.len(), 2);
                    assert_eq!(exprs.len(), 1);
                }
                other => panic!("expected template, got {other:?}"),
            },
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn try_catch_finally() {
        roundtrip("try { f(); } catch (e) { g(e); } finally { h(); }");
        roundtrip("try { f(); } catch { g(); }");
        assert!(parse("try { f(); }").is_err());
    }

    #[test]
    fn switch_statement() {
        roundtrip("switch (x) { case 1: a(); break; default: b(); }");
        assert!(parse("switch (x) { default: a(); default: b(); }").is_err());
    }

    #[test]
    fn new_expressions() {
        roundtrip("var a = new Uint32Array(3.14);");
        roundtrip("var d = new Date();");
        roundtrip("var x = new ns.Thing(1, 2);");
        roundtrip("var y = new (getCtor())(1);");
    }

    #[test]
    fn keyword_properties() {
        roundtrip("var x = obj.default;");
        roundtrip("var y = map.delete;");
    }

    #[test]
    fn invalid_programs_rejected() {
        for bad in [
            "var = 5;",
            "function () {}", // decl needs a name
            "if (x",
            "var x = ;",
            "a +",
            "x = 1 ** ;",
            "do { } until (x);",
            "5 = x;",
            "++5;",
        ] {
            assert!(parse(bad).is_err(), "expected parse error for {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let src = format!("x = {}1{};", "(".repeat(500), ")".repeat(500));
        assert!(parse(&src).is_err());
    }

    #[test]
    fn node_ids_unique_and_dense() {
        let prog = p("var x = 1 + 2; function f(a) { return a * x; } print(f(3));");
        let mut seen = std::collections::HashSet::new();
        struct Ids<'a>(&'a mut std::collections::HashSet<u32>);
        impl visit::Visitor<'_> for Ids<'_> {
            fn visit_stmt(&mut self, s: &Stmt) {
                assert!(self.0.insert(s.id.0), "duplicate id {}", s.id);
            }
            fn visit_expr(&mut self, e: &Expr) {
                assert!(self.0.insert(e.id.0), "duplicate id {}", e.id);
            }
        }
        visit::walk_program(&prog, &mut Ids(&mut seen));
        assert!(seen.len() > 5);
        assert!(seen.iter().all(|&id| id < prog.node_count));
    }

    #[test]
    fn renumber_assigns_fresh_ids() {
        let mut prog = p("var x = 1;");
        prog.body.push(ast::build::expr_stmt(ast::build::call(
            ast::build::ident("print"),
            vec![ast::build::ident("x")],
        )));
        prog.renumber();
        let mut max = 0;
        struct Max<'a>(&'a mut u32);
        impl visit::Visitor<'_> for Max<'_> {
            fn visit_stmt(&mut self, s: &Stmt) {
                assert_ne!(s.id, NodeId::DUMMY);
                *self.0 = (*self.0).max(s.id.0);
            }
            fn visit_expr(&mut self, e: &Expr) {
                assert_ne!(e.id, NodeId::DUMMY);
                *self.0 = (*self.0).max(e.id.0);
            }
        }
        visit::walk_program(&prog, &mut Max(&mut max));
        assert!(max < prog.node_count);
    }

    #[test]
    fn called_api_names_collects() {
        let prog = p("var r = s.substr(0, 2); print(parseInt(\"4\"));");
        let names = visit::called_api_names(&prog);
        assert!(names.contains(&"substr".to_string()));
        assert!(names.contains(&"parseInt".to_string()));
        assert!(names.contains(&"print".to_string()));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(printer::fmt_number(5.0), "5");
        assert_eq!(printer::fmt_number(2.75), "2.75");
        assert_eq!(printer::fmt_number(f64::NAN), "NaN");
        assert_eq!(printer::fmt_number(f64::INFINITY), "Infinity");
        assert_eq!(printer::fmt_number(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(printer::fmt_number(-0.0), "0");
    }

    #[test]
    fn negative_literal_roundtrip() {
        // Synthesized negative literals print as unary expressions.
        let e = ast::build::num(-634619.0);
        let printed = print_expr(&e);
        assert!(parse(&format!("x = {printed};")).is_ok());
    }

    #[test]
    fn object_expr_statement_is_parenthesized() {
        let stmt = ast::build::expr_stmt(Expr::synthesized(ExprKind::Object(vec![])));
        let printed = print_stmt(&stmt);
        assert!(printed.starts_with('('), "got {printed}");
        assert!(parse(&printed).is_ok());
    }

    #[test]
    fn lint_matches_parse() {
        assert!(lint("var x = 1;").is_ok());
        assert!(lint("var x = ;").is_err());
    }

    #[test]
    fn duplicate_params_parse_in_sloppy_mode() {
        // Strict-mode enforcement lives in the interpreter.
        assert!(parse("function f(a, a) { return a; }").is_ok());
    }

    #[test]
    fn regex_literal_statement() {
        roundtrip("var re = /^A[0-9]+$/gi;");
    }

    #[test]
    fn comma_in_declarator_is_parenthesized() {
        let src = "var x = (1, 2);";
        roundtrip(src);
        let printed = print_program(&p(src));
        assert!(parse(&printed).is_ok());
        // Must still declare exactly one variable.
        match &p(&printed).body[0].kind {
            StmtKind::Decl { decls, .. } => assert_eq!(decls.len(), 1),
            other => panic!("expected decl, got {other:?}"),
        }
    }
}
