//! AST visitors: a read-only walk and a mutable one, written once.
//!
//! [`walk_program`] and [`walk_program_mut`] visit the same nodes in the
//! same pre-order: a node before its children, a function before its body,
//! a callee before its arguments, a computed key before its value. One
//! macro body emits both families, which differ only in how they hold a
//! node (`&'ast` or `&mut`), so the order is written once. Node ids depend
//! on it: [`Program::renumber`] numbers nodes through the mutable walk, and
//! a visitor that reads ids through the read-only walk meets them in
//! ascending order. The read-only walk serves the ECMA-guided data
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

/// Emits one walk family: its four functions, each with its docs, in the
/// one walk order. A family says how it holds a node: the generics of each
/// function, the node's reference type (`&'ast` or `&mut`), the borrow
/// keyword (nothing or `mut`) and the iterator and `as_deref` methods that
/// go with it.
macro_rules! walks {
    (
        [$($generics:tt)*] [$($node:tt)+] [$($mut:tt)?] $iter:ident $as_deref:ident,
        $(#[$program_doc:meta])* $program:ident,
        $(#[$stmt_doc:meta])* $stmt:ident,
        $(#[$function_doc:meta])* $function:ident,
        $(#[$expr_doc:meta])* $expr:ident $(,)?
    ) => {
        $(#[$program_doc])*
        pub fn $program<$($generics)*>(program: $($node)+ Program, v: &mut V) {
            for stmt in &$($mut)? program.body {
                $stmt(stmt, v);
            }
        }

        $(#[$stmt_doc])*
        pub fn $stmt<$($generics)*>(stmt: $($node)+ Stmt, v: &mut V) {
            v.visit_stmt(stmt);
            match &$($mut)? stmt.kind {
                StmtKind::Expr(e) | StmtKind::Throw(e) => $expr(e, v),
                StmtKind::Decl { decls, .. } => {
                    for d in decls {
                        if let Some(init) = &$($mut)? d.init {
                            $expr(init, v);
                        }
                    }
                }
                StmtKind::FunctionDecl(f) => $function(f, v),
                StmtKind::Block(body) => body.$iter().for_each(|s| $stmt(s, v)),
                StmtKind::If { cond, cons, alt } => {
                    $expr(cond, v);
                    $stmt(cons, v);
                    if let Some(alt) = alt {
                        $stmt(alt, v);
                    }
                }
                StmtKind::While { cond, body } => {
                    $expr(cond, v);
                    $stmt(body, v);
                }
                StmtKind::DoWhile { body, cond } => {
                    $stmt(body, v);
                    $expr(cond, v);
                }
                StmtKind::For { init, test, update, body } => {
                    match init.$as_deref() {
                        Some(ForInit::Decl { decls, .. }) => {
                            for d in decls {
                                if let Some(e) = &$($mut)? d.init {
                                    $expr(e, v);
                                }
                            }
                        }
                        Some(ForInit::Expr(e)) => $expr(e, v),
                        None => {}
                    }
                    if let Some(t) = test {
                        $expr(t, v);
                    }
                    if let Some(u) = update {
                        $expr(u, v);
                    }
                    $stmt(body, v);
                }
                StmtKind::ForInOf { object, body, .. } => {
                    $expr(object, v);
                    $stmt(body, v);
                }
                StmtKind::Return(e) => {
                    if let Some(e) = e {
                        $expr(e, v);
                    }
                }
                StmtKind::Try { block, catch, finally } => {
                    block.$iter().for_each(|s| $stmt(s, v));
                    if let Some(c) = catch {
                        c.body.$iter().for_each(|s| $stmt(s, v));
                    }
                    if let Some(f) = finally {
                        f.$iter().for_each(|s| $stmt(s, v));
                    }
                }
                StmtKind::Switch { disc, cases } => {
                    $expr(disc, v);
                    for c in cases {
                        if let Some(t) = &$($mut)? c.test {
                            $expr(t, v);
                        }
                        c.body.$iter().for_each(|s| $stmt(s, v));
                    }
                }
                StmtKind::Break
                | StmtKind::Continue
                | StmtKind::Empty
                | StmtKind::Directive(_) => {}
            }
        }

        $(#[$function_doc])*
        pub fn $function<$($generics)*>(func: $($node)+ Function, v: &mut V) {
            v.visit_function(func);
            func.body.$iter().for_each(|s| $stmt(s, v));
        }

        $(#[$expr_doc])*
        pub fn $expr<$($generics)*>(expr: $($node)+ Expr, v: &mut V) {
            v.visit_expr(expr);
            match &$($mut)? expr.kind {
                ExprKind::Ident(_) | ExprKind::Lit(_) | ExprKind::This => {}
                ExprKind::Array(items) => items.$iter().flatten().for_each(|e| $expr(e, v)),
                ExprKind::Object(props) => {
                    for p in props {
                        if let PropKey::Computed(k) = &$($mut)? p.key {
                            $expr(k, v);
                        }
                        if let Some(val) = &$($mut)? p.value {
                            $expr(val, v);
                        }
                    }
                }
                ExprKind::Function(f) => $function(f, v),
                ExprKind::Arrow { func, expr_body } => {
                    $function(func, v);
                    if let Some(e) = expr_body {
                        $expr(e, v);
                    }
                }
                ExprKind::Unary { operand, .. } => $expr(operand, v),
                ExprKind::Update { target, .. } => $expr(target, v),
                ExprKind::Binary { left, right, .. } | ExprKind::Logical { left, right, .. } => {
                    $expr(left, v);
                    $expr(right, v);
                }
                ExprKind::Cond { cond, cons, alt } => {
                    $expr(cond, v);
                    $expr(cons, v);
                    $expr(alt, v);
                }
                ExprKind::Assign { target, value, .. } => {
                    $expr(target, v);
                    $expr(value, v);
                }
                ExprKind::Seq(items) => items.$iter().for_each(|e| $expr(e, v)),
                ExprKind::Call { callee, args } | ExprKind::New { callee, args } => {
                    $expr(callee, v);
                    args.$iter().for_each(|e| $expr(e, v));
                }
                ExprKind::Member { object, .. } => $expr(object, v),
                ExprKind::Index { object, index } => {
                    $expr(object, v);
                    $expr(index, v);
                }
                ExprKind::Template { exprs, .. } => exprs.$iter().for_each(|e| $expr(e, v)),
                ExprKind::Paren(inner) => $expr(inner, v),
            }
        }
    };
}

walks! {
    ['ast, V: Visitor<'ast>] [&'ast] [] iter as_deref,
    /// Walks an entire program.
    walk_program,
    /// Walks a statement and its children.
    walk_stmt,
    /// Walks a function: its body statements.
    walk_function,
    /// Walks an expression and its children.
    walk_expr,
}

walks! {
    [V: VisitorMut] [&mut] [mut] iter_mut as_deref_mut,
    /// Walks an entire program mutably, in [`walk_program`]'s order.
    walk_program_mut,
    /// Walks a statement and its children mutably, in [`walk_stmt`]'s order.
    walk_stmt_mut,
    /// Walks a function and its body statements mutably, in
    /// [`walk_function`]'s order.
    walk_function_mut,
    /// Walks an expression and its children mutably, in [`walk_expr`]'s order.
    walk_expr_mut,
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
