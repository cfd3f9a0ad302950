//! Abstract syntax tree for the JavaScript subset COMFORT operates on.
//!
//! Every statement and expression carries a [`NodeId`] (used by the coverage
//! instrumentation in `comfort-interp` and by the test-case reducer in
//! `comfort-core`) and a [`Span`] into the original source.

use crate::visit::{walk_program_mut, VisitorMut};

/// A half-open byte range into the original source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Start byte offset.
    pub start: u32,
    /// End byte offset (exclusive).
    pub end: u32,
}

impl Span {
    /// Creates a span covering `start..end`.
    pub fn new(start: u32, end: u32) -> Self {
        Span { start, end }
    }

    /// The zero span used for synthesized nodes.
    pub const DUMMY: Span = Span { start: 0, end: 0 };
}

/// Unique id of an AST node within one [`Program`].
///
/// Ids are assigned by the parser in pre-order; synthesized nodes start with
/// [`NodeId::DUMMY`] and gain real ids through [`Program::renumber`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Placeholder id for synthesized nodes.
    pub const DUMMY: NodeId = NodeId(u32::MAX);
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A complete parsed program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level statements.
    pub body: Vec<Stmt>,
    /// `true` if the program starts with a `"use strict"` directive.
    pub strict: bool,
    /// Number of node ids assigned (ids are `0..node_count`).
    pub node_count: u32,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program { body: Vec::new(), strict: false, node_count: 0 }
    }

    /// Reassigns contiguous pre-order [`NodeId`]s to every node, in the
    /// order of [`walk_program`](crate::visit::walk_program).
    ///
    /// Call after structurally editing the tree (mutators and the reducer do).
    pub fn renumber(&mut self) {
        /// Hands out ids `0, 1, …` in visiting order.
        struct Numberer(u32);
        impl Numberer {
            fn next(&mut self) -> NodeId {
                let id = NodeId(self.0);
                self.0 += 1;
                id
            }
        }
        impl VisitorMut for Numberer {
            fn visit_stmt(&mut self, stmt: &mut Stmt) {
                stmt.id = self.next();
            }
            fn visit_expr(&mut self, expr: &mut Expr) {
                expr.id = self.next();
            }
            fn visit_function(&mut self, func: &mut Function) {
                func.id = self.next();
            }
        }
        let mut numberer = Numberer(0);
        walk_program_mut(self, &mut numberer);
        self.node_count = numberer.0;
    }
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

/// Kind of a variable declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeclKind {
    /// `var`
    Var,
    /// `let`
    Let,
    /// `const`
    Const,
}

impl std::fmt::Display for DeclKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeclKind::Var => "var",
            DeclKind::Let => "let",
            DeclKind::Const => "const",
        })
    }
}

/// One `name = init` declarator.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    /// Variable name.
    pub name: String,
    /// Optional initializer.
    pub init: Option<Expr>,
}

/// A function definition (declaration, expression, or arrow).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (`None` for anonymous expressions/arrows).
    pub name: Option<String>,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// `true` if the body has a `"use strict"` prologue.
    pub strict: bool,
    /// Node id of the function itself (for function coverage).
    pub id: NodeId,
    /// Source span.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Unique node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// The statement kind.
    pub kind: StmtKind,
}

impl Stmt {
    /// Creates a statement with dummy id/span (for synthesized code).
    pub fn synthesized(kind: StmtKind) -> Self {
        Stmt { id: NodeId::DUMMY, span: Span::DUMMY, kind }
    }
}

/// Statement kinds.
// Variant docs give each field's role via the concrete syntax; inline
// field docs would only repeat them.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `expr;`
    Expr(Expr),
    /// `var/let/const decl, decl;`
    Decl { kind: DeclKind, decls: Vec<Declarator> },
    /// `function f(...) {...}`
    FunctionDecl(Function),
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// `if (cond) cons else alt`
    If { cond: Expr, cons: Box<Stmt>, alt: Option<Box<Stmt>> },
    /// `while (cond) body`
    While { cond: Expr, body: Box<Stmt> },
    /// `do body while (cond);`
    DoWhile { body: Box<Stmt>, cond: Expr },
    /// `for (init; test; update) body`
    For { init: Option<Box<ForInit>>, test: Option<Expr>, update: Option<Expr>, body: Box<Stmt> },
    /// `for (decl in obj) body` / `for (decl of obj) body`
    ForInOf { kind: ForInOfKind, decl: ForTarget, object: Expr, body: Box<Stmt> },
    /// `return expr?;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `throw expr;`
    Throw(Expr),
    /// `try {..} catch (e) {..} finally {..}`
    Try { block: Vec<Stmt>, catch: Option<CatchClause>, finally: Option<Vec<Stmt>> },
    /// `switch (disc) { case t: ... default: ... }`
    Switch { disc: Expr, cases: Vec<SwitchCase> },
    /// `;`
    Empty,
    /// A directive prologue string such as `"use strict";`.
    Directive(String),
}

/// `for-in` vs `for-of`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForInOfKind {
    /// `for (x in o)` — enumerates property keys.
    In,
    /// `for (x of o)` — iterates values.
    Of,
}

/// The loop variable of a `for-in`/`for-of`.
#[derive(Debug, Clone, PartialEq)]
pub enum ForTarget {
    /// `for (var x in …)`
    Decl(DeclKind, String),
    /// `for (x in …)` where `x` is an existing binding.
    Ident(String),
}

/// The `init` clause of a classic `for` loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ForInit {
    /// `for (var i = 0; …)`
    Decl {
        /// `var` / `let` / `const`.
        kind: DeclKind,
        /// The declarators of the init clause.
        decls: Vec<Declarator>,
    },
    /// `for (i = 0; …)`
    Expr(Expr),
}

/// A `catch (param) { body }` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchClause {
    /// The catch binding (`None` for ES2019 optional binding).
    pub param: Option<String>,
    /// Handler body.
    pub body: Vec<Stmt>,
}

/// One `case`/`default` arm of a `switch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// `Some(test)` for `case test:`, `None` for `default:`.
    pub test: Option<Expr>,
    /// The arm's statements.
    pub body: Vec<Stmt>,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Unique node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// The expression kind.
    pub kind: ExprKind,
}

impl Expr {
    /// Creates an expression with dummy id/span (for synthesized code).
    pub fn synthesized(kind: ExprKind) -> Self {
        Expr { id: NodeId::DUMMY, span: Span::DUMMY, kind }
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Numeric literal (always stored as f64, like JS numbers).
    Number(f64),
    /// String literal (cooked value).
    String(String),
    /// `true` / `false`
    Bool(bool),
    /// `null`
    Null,
    /// `/pattern/flags`
    Regex {
        /// Pattern between the slashes.
        pattern: String,
        /// Trailing flag letters.
        flags: String,
    },
}

/// Property in an object literal.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectProp {
    /// Property key.
    pub key: PropKey,
    /// Property value (`None` for shorthand `{x}`).
    pub value: Option<Expr>,
}

/// Key of an object-literal property.
#[derive(Debug, Clone, PartialEq)]
pub enum PropKey {
    /// `{ name: … }`
    Ident(String),
    /// `{ "str": … }`
    String(String),
    /// `{ 42: … }`
    Number(f64),
    /// `{ [expr]: … }`
    Computed(Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `+x`
    Pos,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `typeof x`
    TypeOf,
    /// `void x`
    Void,
    /// `delete x`
    Delete,
}

impl UnaryOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Pos => "+",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::TypeOf => "typeof",
            UnaryOp::Void => "void",
            UnaryOp::Delete => "delete",
        }
    }
}

/// Binary operators (precedence handled by the parser).
#[allow(missing_docs)] // one-to-one with the JS operator spelled in `as_str`
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Pow,
    Eq,
    NotEq,
    StrictEq,
    StrictNotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Shl,
    Shr,
    UShr,
    BitAnd,
    BitOr,
    BitXor,
    In,
    InstanceOf,
}

impl BinaryOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Pow => "**",
            BinaryOp::Eq => "==",
            BinaryOp::NotEq => "!=",
            BinaryOp::StrictEq => "===",
            BinaryOp::StrictNotEq => "!==",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::UShr => ">>>",
            BinaryOp::BitAnd => "&",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "^",
            BinaryOp::In => "in",
            BinaryOp::InstanceOf => "instanceof",
        }
    }
}

/// `&&` / `||`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    /// `&&`
    And,
    /// `||`
    Or,
}

impl LogicalOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            LogicalOp::And => "&&",
            LogicalOp::Or => "||",
        }
    }
}

/// Assignment operators.
#[allow(missing_docs)] // one-to-one with the JS operator spelled in `as_str`
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    UShr,
    BitAnd,
    BitOr,
    BitXor,
}

impl AssignOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
            AssignOp::Shl => "<<=",
            AssignOp::Shr => ">>=",
            AssignOp::UShr => ">>>=",
            AssignOp::BitAnd => "&=",
            AssignOp::BitOr => "|=",
            AssignOp::BitXor => "^=",
        }
    }
}

/// Expression kinds.
// Variant docs give each field's role via the concrete syntax; inline
// field docs would only repeat them.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Identifier reference.
    Ident(String),
    /// Literal value.
    Lit(Lit),
    /// `this`
    This,
    /// `[a, b, , c]` — `None` entries are elisions.
    Array(Vec<Option<Expr>>),
    /// `{ k: v, … }`
    Object(Vec<ObjectProp>),
    /// `function (…) {…}` or named function expression.
    Function(Function),
    /// `(a, b) => expr-or-block`
    Arrow { func: Function, expr_body: Option<Box<Expr>> },
    /// Unary operator application.
    Unary { op: UnaryOp, operand: Box<Expr> },
    /// `++x`, `x--`, …
    Update { prefix: bool, inc: bool, target: Box<Expr> },
    /// Binary operator application.
    Binary { op: BinaryOp, left: Box<Expr>, right: Box<Expr> },
    /// `&&` / `||` (short-circuit).
    Logical { op: LogicalOp, left: Box<Expr>, right: Box<Expr> },
    /// `cond ? cons : alt`
    Cond { cond: Box<Expr>, cons: Box<Expr>, alt: Box<Expr> },
    /// Assignment (`target` must be a valid assignment target).
    Assign { op: AssignOp, target: Box<Expr>, value: Box<Expr> },
    /// `a, b` (comma operator).
    Seq(Vec<Expr>),
    /// `f(args…)`
    Call { callee: Box<Expr>, args: Vec<Expr> },
    /// `new F(args…)`
    New { callee: Box<Expr>, args: Vec<Expr> },
    /// `obj.prop`
    Member { object: Box<Expr>, prop: String },
    /// `obj[expr]`
    Index { object: Box<Expr>, index: Box<Expr> },
    /// `` `a${b}c` `` — alternating quasis and expressions.
    Template { quasis: Vec<String>, exprs: Vec<Expr> },
    /// `(expr)` — kept so the printer round-trips faithfully.
    Paren(Box<Expr>),
}

/// Convenience constructors for synthesized AST nodes (used by the test-data
/// mutator, the baselines, and tests).
pub mod build {
    use super::*;

    /// `name`
    pub fn ident(name: &str) -> Expr {
        Expr::synthesized(ExprKind::Ident(name.to_string()))
    }

    /// Numeric literal.
    pub fn num(v: f64) -> Expr {
        Expr::synthesized(ExprKind::Lit(Lit::Number(v)))
    }

    /// String literal.
    pub fn str(v: &str) -> Expr {
        Expr::synthesized(ExprKind::Lit(Lit::String(v.to_string())))
    }

    /// Boolean literal.
    pub fn bool(v: bool) -> Expr {
        Expr::synthesized(ExprKind::Lit(Lit::Bool(v)))
    }

    /// `null`
    pub fn null() -> Expr {
        Expr::synthesized(ExprKind::Lit(Lit::Null))
    }

    /// `undefined`
    pub fn undefined() -> Expr {
        ident("undefined")
    }

    /// `callee(args…)`
    pub fn call(callee: Expr, args: Vec<Expr>) -> Expr {
        Expr::synthesized(ExprKind::Call { callee: Box::new(callee), args })
    }

    /// `object.prop`
    pub fn member(object: Expr, prop: &str) -> Expr {
        Expr::synthesized(ExprKind::Member { object: Box::new(object), prop: prop.to_string() })
    }

    /// `var name = init;`
    pub fn var_decl(name: &str, init: Expr) -> Stmt {
        Stmt::synthesized(StmtKind::Decl {
            kind: DeclKind::Var,
            decls: vec![Declarator { name: name.to_string(), init: Some(init) }],
        })
    }

    /// `expr;`
    pub fn expr_stmt(expr: Expr) -> Stmt {
        Stmt::synthesized(StmtKind::Expr(expr))
    }
}
