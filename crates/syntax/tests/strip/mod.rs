//! Structural normal form of a program for print/parse round-trip
//! properties: every `Paren` wrapper, node id and span is dropped, and a
//! negated number literal is folded into a negative one (JS has no negative
//! literals: a synthesized `Number(-3)` prints as `(-3)` and necessarily
//! reparses as `Paren(Unary(Neg, 3))`).
//!
//! Shared with the root package's `tests/props.rs` through `#[path]`.

use comfort_syntax::ast::*;

/// `p` with parentheses, ids and spans removed (see the module docs).
/// Compare two normal forms by their `Debug` text, which tells `-0` from
/// `0` where `==` on `f64` does not.
pub fn strip_program(p: &Program) -> Program {
    Program { body: stmts(&p.body), strict: p.strict, node_count: 0 }
}

fn stmts(body: &[Stmt]) -> Vec<Stmt> {
    body.iter().map(stmt).collect()
}

fn boxed(s: &Stmt) -> Box<Stmt> {
    Box::new(stmt(s))
}

fn decls(decls: &[Declarator]) -> Vec<Declarator> {
    decls
        .iter()
        .map(|d| Declarator { name: d.name.clone(), init: d.init.as_ref().map(expr) })
        .collect()
}

fn function(f: &Function) -> Function {
    Function {
        name: f.name.clone(),
        params: f.params.clone(),
        body: stmts(&f.body),
        strict: f.strict,
        id: NodeId::DUMMY,
        span: Span::DUMMY,
    }
}

fn stmt(s: &Stmt) -> Stmt {
    let kind = match &s.kind {
        StmtKind::Expr(e) => StmtKind::Expr(expr(e)),
        StmtKind::Decl { kind, decls: ds } => StmtKind::Decl { kind: *kind, decls: decls(ds) },
        StmtKind::FunctionDecl(f) => StmtKind::FunctionDecl(function(f)),
        StmtKind::Block(body) => StmtKind::Block(stmts(body)),
        StmtKind::If { cond, cons, alt } => {
            StmtKind::If { cond: expr(cond), cons: boxed(cons), alt: alt.as_deref().map(boxed) }
        }
        StmtKind::While { cond, body } => StmtKind::While { cond: expr(cond), body: boxed(body) },
        StmtKind::DoWhile { body, cond } => {
            StmtKind::DoWhile { body: boxed(body), cond: expr(cond) }
        }
        StmtKind::For { init, test, update, body } => StmtKind::For {
            init: init.as_deref().map(|init| {
                Box::new(match init {
                    ForInit::Decl { kind, decls: ds } => {
                        ForInit::Decl { kind: *kind, decls: decls(ds) }
                    }
                    ForInit::Expr(e) => ForInit::Expr(expr(e)),
                })
            }),
            test: test.as_ref().map(expr),
            update: update.as_ref().map(expr),
            body: boxed(body),
        },
        StmtKind::ForInOf { kind, decl, object, body } => StmtKind::ForInOf {
            kind: *kind,
            decl: decl.clone(),
            object: expr(object),
            body: boxed(body),
        },
        StmtKind::Return(e) => StmtKind::Return(e.as_ref().map(expr)),
        StmtKind::Throw(e) => StmtKind::Throw(expr(e)),
        StmtKind::Try { block, catch, finally } => StmtKind::Try {
            block: stmts(block),
            catch: catch
                .as_ref()
                .map(|c| CatchClause { param: c.param.clone(), body: stmts(&c.body) }),
            finally: finally.as_deref().map(stmts),
        },
        StmtKind::Switch { disc, cases } => StmtKind::Switch {
            disc: expr(disc),
            cases: cases
                .iter()
                .map(|c| SwitchCase { test: c.test.as_ref().map(expr), body: stmts(&c.body) })
                .collect(),
        },
        StmtKind::Break | StmtKind::Continue | StmtKind::Empty | StmtKind::Directive(_) => {
            s.kind.clone()
        }
    };
    Stmt::synthesized(kind)
}

fn expr_box(e: &Expr) -> Box<Expr> {
    Box::new(expr(e))
}

fn expr(e: &Expr) -> Expr {
    let kind = match &e.kind {
        ExprKind::Paren(inner) => return expr(inner),
        ExprKind::Unary { op: UnaryOp::Neg, operand } => {
            let inner = expr(operand);
            if let ExprKind::Lit(Lit::Number(n)) = inner.kind {
                ExprKind::Lit(Lit::Number(-n))
            } else {
                ExprKind::Unary { op: UnaryOp::Neg, operand: Box::new(inner) }
            }
        }
        ExprKind::Unary { op, operand } => ExprKind::Unary { op: *op, operand: expr_box(operand) },
        ExprKind::Ident(_) | ExprKind::Lit(_) | ExprKind::This => e.kind.clone(),
        ExprKind::Array(items) => {
            ExprKind::Array(items.iter().map(|i| i.as_ref().map(expr)).collect())
        }
        ExprKind::Object(props) => ExprKind::Object(
            props
                .iter()
                .map(|p| ObjectProp {
                    key: match &p.key {
                        PropKey::Computed(k) => PropKey::Computed(expr_box(k)),
                        key => key.clone(),
                    },
                    value: p.value.as_ref().map(expr),
                })
                .collect(),
        ),
        ExprKind::Function(f) => ExprKind::Function(function(f)),
        ExprKind::Arrow { func, expr_body } => {
            ExprKind::Arrow { func: function(func), expr_body: expr_body.as_deref().map(expr_box) }
        }
        ExprKind::Update { prefix, inc, target } => {
            ExprKind::Update { prefix: *prefix, inc: *inc, target: expr_box(target) }
        }
        ExprKind::Binary { op, left, right } => {
            ExprKind::Binary { op: *op, left: expr_box(left), right: expr_box(right) }
        }
        ExprKind::Logical { op, left, right } => {
            ExprKind::Logical { op: *op, left: expr_box(left), right: expr_box(right) }
        }
        ExprKind::Cond { cond, cons, alt } => {
            ExprKind::Cond { cond: expr_box(cond), cons: expr_box(cons), alt: expr_box(alt) }
        }
        ExprKind::Assign { op, target, value } => {
            ExprKind::Assign { op: *op, target: expr_box(target), value: expr_box(value) }
        }
        ExprKind::Seq(items) => ExprKind::Seq(items.iter().map(expr).collect()),
        ExprKind::Call { callee, args } => {
            ExprKind::Call { callee: expr_box(callee), args: args.iter().map(expr).collect() }
        }
        ExprKind::New { callee, args } => {
            ExprKind::New { callee: expr_box(callee), args: args.iter().map(expr).collect() }
        }
        ExprKind::Member { object, prop } => {
            ExprKind::Member { object: expr_box(object), prop: prop.clone() }
        }
        ExprKind::Index { object, index } => {
            ExprKind::Index { object: expr_box(object), index: expr_box(index) }
        }
        ExprKind::Template { quasis, exprs } => {
            ExprKind::Template { quasis: quasis.clone(), exprs: exprs.iter().map(expr).collect() }
        }
    };
    Expr::synthesized(kind)
}
