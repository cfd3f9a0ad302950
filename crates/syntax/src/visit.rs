//! AST visitors: a read-only walk and a mutable one, in one order.
//!
//! [`walk_program`] and [`walk_program_mut`] visit the same nodes in the
//! same pre-order: a node before its children, a function before its body,
//! a callee before its arguments, a computed key before its value. Node ids
//! depend on that: [`Program::renumber`] numbers nodes through the mutable
//! walk, and a visitor that reads ids through the read-only walk meets them
//! in ascending order. The read-only walk serves the ECMA-guided data
//! generator (to find API call sites), the identical-bug filter (to extract
//! called API names), coverage and the baselines; the mutable walk serves
//! renumbering, the generator's argument edits and DIE's mutation.

use crate::ast::*;

/// Visitor over statements, expressions, and functions.
///
/// Override the hooks you need; each hook is called *before* the walker
/// descends into the node's children. Every node lives as long as the
/// walked program (`'ast`), so a visitor may keep references to them.
pub trait Visitor<'ast> {
    /// Called for every statement.
    fn visit_stmt(&mut self, _stmt: &'ast Stmt) {}
    /// Called for every expression.
    fn visit_expr(&mut self, _expr: &'ast Expr) {}
    /// Called for every function (declaration, expression, or arrow).
    fn visit_function(&mut self, _func: &'ast Function) {}
}

/// Walks an entire program.
pub fn walk_program<'ast, V: Visitor<'ast>>(program: &'ast Program, v: &mut V) {
    for stmt in &program.body {
        walk_stmt(stmt, v);
    }
}

/// Walks a statement and its children.
pub fn walk_stmt<'ast, V: Visitor<'ast>>(stmt: &'ast Stmt, v: &mut V) {
    v.visit_stmt(stmt);
    match &stmt.kind {
        StmtKind::Expr(e) | StmtKind::Throw(e) => walk_expr(e, v),
        StmtKind::Decl { decls, .. } => {
            for d in decls {
                if let Some(init) = &d.init {
                    walk_expr(init, v);
                }
            }
        }
        StmtKind::FunctionDecl(f) => walk_function(f, v),
        StmtKind::Block(body) => body.iter().for_each(|s| walk_stmt(s, v)),
        StmtKind::If { cond, cons, alt } => {
            walk_expr(cond, v);
            walk_stmt(cons, v);
            if let Some(alt) = alt {
                walk_stmt(alt, v);
            }
        }
        StmtKind::While { cond, body } => {
            walk_expr(cond, v);
            walk_stmt(body, v);
        }
        StmtKind::DoWhile { body, cond } => {
            walk_stmt(body, v);
            walk_expr(cond, v);
        }
        StmtKind::For { init, test, update, body } => {
            match init.as_deref() {
                Some(ForInit::Decl { decls, .. }) => {
                    for d in decls {
                        if let Some(e) = &d.init {
                            walk_expr(e, v);
                        }
                    }
                }
                Some(ForInit::Expr(e)) => walk_expr(e, v),
                None => {}
            }
            if let Some(t) = test {
                walk_expr(t, v);
            }
            if let Some(u) = update {
                walk_expr(u, v);
            }
            walk_stmt(body, v);
        }
        StmtKind::ForInOf { object, body, .. } => {
            walk_expr(object, v);
            walk_stmt(body, v);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                walk_expr(e, v);
            }
        }
        StmtKind::Try { block, catch, finally } => {
            block.iter().for_each(|s| walk_stmt(s, v));
            if let Some(c) = catch {
                c.body.iter().for_each(|s| walk_stmt(s, v));
            }
            if let Some(f) = finally {
                f.iter().for_each(|s| walk_stmt(s, v));
            }
        }
        StmtKind::Switch { disc, cases } => {
            walk_expr(disc, v);
            for c in cases {
                if let Some(t) = &c.test {
                    walk_expr(t, v);
                }
                c.body.iter().for_each(|s| walk_stmt(s, v));
            }
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Empty | StmtKind::Directive(_) => {}
    }
}

/// Walks a function: its body statements.
pub fn walk_function<'ast, V: Visitor<'ast>>(func: &'ast Function, v: &mut V) {
    v.visit_function(func);
    func.body.iter().for_each(|s| walk_stmt(s, v));
}

/// Walks an expression and its children.
pub fn walk_expr<'ast, V: Visitor<'ast>>(expr: &'ast Expr, v: &mut V) {
    v.visit_expr(expr);
    match &expr.kind {
        ExprKind::Ident(_) | ExprKind::Lit(_) | ExprKind::This => {}
        ExprKind::Array(items) => items.iter().flatten().for_each(|e| walk_expr(e, v)),
        ExprKind::Object(props) => {
            for p in props {
                if let PropKey::Computed(k) = &p.key {
                    walk_expr(k, v);
                }
                if let Some(val) = &p.value {
                    walk_expr(val, v);
                }
            }
        }
        ExprKind::Function(f) => walk_function(f, v),
        ExprKind::Arrow { func, expr_body } => {
            v.visit_function(func);
            func.body.iter().for_each(|s| walk_stmt(s, v));
            if let Some(e) = expr_body {
                walk_expr(e, v);
            }
        }
        ExprKind::Unary { operand, .. } => walk_expr(operand, v),
        ExprKind::Update { target, .. } => walk_expr(target, v),
        ExprKind::Binary { left, right, .. } | ExprKind::Logical { left, right, .. } => {
            walk_expr(left, v);
            walk_expr(right, v);
        }
        ExprKind::Cond { cond, cons, alt } => {
            walk_expr(cond, v);
            walk_expr(cons, v);
            walk_expr(alt, v);
        }
        ExprKind::Assign { target, value, .. } => {
            walk_expr(target, v);
            walk_expr(value, v);
        }
        ExprKind::Seq(items) => items.iter().for_each(|e| walk_expr(e, v)),
        ExprKind::Call { callee, args } | ExprKind::New { callee, args } => {
            walk_expr(callee, v);
            args.iter().for_each(|e| walk_expr(e, v));
        }
        ExprKind::Member { object, .. } => walk_expr(object, v),
        ExprKind::Index { object, index } => {
            walk_expr(object, v);
            walk_expr(index, v);
        }
        ExprKind::Template { exprs, .. } => exprs.iter().for_each(|e| walk_expr(e, v)),
        ExprKind::Paren(inner) => walk_expr(inner, v),
    }
}

/// Mutable counterpart of [`Visitor`], driven by the `walk_*_mut`
/// functions in the same order.
///
/// Each hook is called *before* the walker descends into the node's
/// children, and may edit the node: the walker then descends into the
/// children as the hook left them.
pub trait VisitorMut {
    /// Called for every statement.
    fn visit_stmt(&mut self, _stmt: &mut Stmt) {}
    /// Called for every expression.
    fn visit_expr(&mut self, _expr: &mut Expr) {}
    /// Called for every function (declaration, expression, or arrow).
    fn visit_function(&mut self, _func: &mut Function) {}
}

/// Walks an entire program mutably, in [`walk_program`]'s order.
pub fn walk_program_mut<V: VisitorMut>(program: &mut Program, v: &mut V) {
    for stmt in &mut program.body {
        walk_stmt_mut(stmt, v);
    }
}

/// Walks a statement and its children mutably, in [`walk_stmt`]'s order.
pub fn walk_stmt_mut<V: VisitorMut>(stmt: &mut Stmt, v: &mut V) {
    v.visit_stmt(stmt);
    match &mut stmt.kind {
        StmtKind::Expr(e) | StmtKind::Throw(e) => walk_expr_mut(e, v),
        StmtKind::Decl { decls, .. } => {
            for d in decls {
                if let Some(init) = &mut d.init {
                    walk_expr_mut(init, v);
                }
            }
        }
        StmtKind::FunctionDecl(f) => walk_function_mut(f, v),
        StmtKind::Block(body) => body.iter_mut().for_each(|s| walk_stmt_mut(s, v)),
        StmtKind::If { cond, cons, alt } => {
            walk_expr_mut(cond, v);
            walk_stmt_mut(cons, v);
            if let Some(alt) = alt {
                walk_stmt_mut(alt, v);
            }
        }
        StmtKind::While { cond, body } => {
            walk_expr_mut(cond, v);
            walk_stmt_mut(body, v);
        }
        StmtKind::DoWhile { body, cond } => {
            walk_stmt_mut(body, v);
            walk_expr_mut(cond, v);
        }
        StmtKind::For { init, test, update, body } => {
            match init.as_deref_mut() {
                Some(ForInit::Decl { decls, .. }) => {
                    for d in decls {
                        if let Some(e) = &mut d.init {
                            walk_expr_mut(e, v);
                        }
                    }
                }
                Some(ForInit::Expr(e)) => walk_expr_mut(e, v),
                None => {}
            }
            if let Some(t) = test {
                walk_expr_mut(t, v);
            }
            if let Some(u) = update {
                walk_expr_mut(u, v);
            }
            walk_stmt_mut(body, v);
        }
        StmtKind::ForInOf { object, body, .. } => {
            walk_expr_mut(object, v);
            walk_stmt_mut(body, v);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                walk_expr_mut(e, v);
            }
        }
        StmtKind::Try { block, catch, finally } => {
            block.iter_mut().for_each(|s| walk_stmt_mut(s, v));
            if let Some(c) = catch {
                c.body.iter_mut().for_each(|s| walk_stmt_mut(s, v));
            }
            if let Some(f) = finally {
                f.iter_mut().for_each(|s| walk_stmt_mut(s, v));
            }
        }
        StmtKind::Switch { disc, cases } => {
            walk_expr_mut(disc, v);
            for c in cases {
                if let Some(t) = &mut c.test {
                    walk_expr_mut(t, v);
                }
                c.body.iter_mut().for_each(|s| walk_stmt_mut(s, v));
            }
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Empty | StmtKind::Directive(_) => {}
    }
}

/// Walks a function and its body statements mutably, in
/// [`walk_function`]'s order.
pub fn walk_function_mut<V: VisitorMut>(func: &mut Function, v: &mut V) {
    v.visit_function(func);
    func.body.iter_mut().for_each(|s| walk_stmt_mut(s, v));
}

/// Walks an expression and its children mutably, in [`walk_expr`]'s order.
pub fn walk_expr_mut<V: VisitorMut>(expr: &mut Expr, v: &mut V) {
    v.visit_expr(expr);
    match &mut expr.kind {
        ExprKind::Ident(_) | ExprKind::Lit(_) | ExprKind::This => {}
        ExprKind::Array(items) => items.iter_mut().flatten().for_each(|e| walk_expr_mut(e, v)),
        ExprKind::Object(props) => {
            for p in props {
                if let PropKey::Computed(k) = &mut p.key {
                    walk_expr_mut(k, v);
                }
                if let Some(val) = &mut p.value {
                    walk_expr_mut(val, v);
                }
            }
        }
        ExprKind::Function(f) => walk_function_mut(f, v),
        ExprKind::Arrow { func, expr_body } => {
            v.visit_function(func);
            func.body.iter_mut().for_each(|s| walk_stmt_mut(s, v));
            if let Some(e) = expr_body {
                walk_expr_mut(e, v);
            }
        }
        ExprKind::Unary { operand, .. } => walk_expr_mut(operand, v),
        ExprKind::Update { target, .. } => walk_expr_mut(target, v),
        ExprKind::Binary { left, right, .. } | ExprKind::Logical { left, right, .. } => {
            walk_expr_mut(left, v);
            walk_expr_mut(right, v);
        }
        ExprKind::Cond { cond, cons, alt } => {
            walk_expr_mut(cond, v);
            walk_expr_mut(cons, v);
            walk_expr_mut(alt, v);
        }
        ExprKind::Assign { target, value, .. } => {
            walk_expr_mut(target, v);
            walk_expr_mut(value, v);
        }
        ExprKind::Seq(items) => items.iter_mut().for_each(|e| walk_expr_mut(e, v)),
        ExprKind::Call { callee, args } | ExprKind::New { callee, args } => {
            walk_expr_mut(callee, v);
            args.iter_mut().for_each(|e| walk_expr_mut(e, v));
        }
        ExprKind::Member { object, .. } => walk_expr_mut(object, v),
        ExprKind::Index { object, index } => {
            walk_expr_mut(object, v);
            walk_expr_mut(index, v);
        }
        ExprKind::Template { exprs, .. } => exprs.iter_mut().for_each(|e| walk_expr_mut(e, v)),
        ExprKind::Paren(inner) => walk_expr_mut(inner, v),
    }
}

/// Collects the names of every API called as `recv.method(...)` or as a bare
/// `fn(...)` in `program`, e.g. `"substr"` or `"parseInt"`.
///
/// Used by the test-data generator (§3.3) and the identical-bug filter (§3.6).
pub fn called_api_names(program: &Program) -> Vec<String> {
    struct Collector {
        names: Vec<String>,
    }
    impl Visitor<'_> for Collector {
        fn visit_expr(&mut self, expr: &Expr) {
            if let ExprKind::Call { callee, .. } = &expr.kind {
                match &callee.kind {
                    ExprKind::Member { prop, .. } => self.names.push(prop.clone()),
                    ExprKind::Ident(name) => self.names.push(name.clone()),
                    _ => {}
                }
            }
        }
    }
    let mut c = Collector { names: Vec::new() };
    walk_program(program, &mut c);
    c.names
}
