//! Pretty-printer: AST → JavaScript source.
//!
//! The printer is precedence-aware, so synthesized trees (whose `Paren` nodes
//! may be absent) still print to source that re-parses to the same structure.
//! This property is checked by the round-trip property tests in
//! `tests/roundtrip.rs`.
//!
//! [`print_program_spans`] prints the same text and also records where
//! every expression's text lies in it, so a caller that replaces one
//! expression can splice the new text in instead of printing again.

use std::ops::Range;

use crate::ast::*;

/// Prints a whole program (one top-level statement per line).
pub fn print_program(program: &Program) -> String {
    let mut p = Printer::new(());
    p.program(program);
    p.out
}

/// Prints a program exactly as [`print_program`] does and returns, beside
/// the text, the byte range of every expression's text in it.
///
/// The ranges are `None` unless every expression id is unique and below
/// [`Program::node_count`], as [`Program::renumber`] leaves them: only then
/// does an id name one range.
pub fn print_program_spans(program: &Program) -> (String, Option<ExprSpans>) {
    let spans = ExprSpans { ranges: vec![None; program.node_count as usize], exact: true };
    let mut p = Printer::new(spans);
    p.program(program);
    let spans = p.spans.exact.then_some(p.spans);
    (p.out, spans)
}

/// Prints a single statement.
pub fn print_stmt(stmt: &Stmt) -> String {
    let mut p = Printer::new(());
    p.stmt(stmt);
    p.out
}

/// Prints a single expression.
pub fn print_expr(expr: &Expr) -> String {
    let mut p = Printer::new(());
    p.expr(expr, 0);
    p.out
}

/// Where each expression's text lies in a printed program, by [`NodeId`].
///
/// A range includes any parentheses the printer added around the
/// expression for its context: for precedence, around a number receiver
/// (`(1).x`), around an arrow's object-literal body, or around a statement
/// that would otherwise start with `{` or `function`.
#[derive(Debug, Clone)]
pub struct ExprSpans {
    ranges: Vec<Option<(usize, usize)>>,
    exact: bool,
}

impl ExprSpans {
    /// The byte range of expression `id`'s text; `None` if `id` is not an
    /// expression of the printed program.
    pub fn get(&self, id: NodeId) -> Option<Range<usize>> {
        let (start, end) = (*self.ranges.get(id.0 as usize)?)?;
        Some(start..end)
    }
}

/// Where the printer reports each expression's range; `()` ignores them.
trait SpanSink {
    fn record(&mut self, id: NodeId, start: usize, end: usize);
}

impl SpanSink for () {
    #[inline(always)]
    fn record(&mut self, _id: NodeId, _start: usize, _end: usize) {}
}

impl SpanSink for ExprSpans {
    fn record(&mut self, id: NodeId, start: usize, end: usize) {
        match self.ranges.get_mut(id.0 as usize) {
            Some(slot @ None) => *slot = Some((start, end)),
            _ => self.exact = false,
        }
    }
}

/// Formats an `f64` the way JavaScript's `ToString(Number)` does for the
/// values COMFORT deals in: integers print without a fraction, specials print
/// as `NaN` / `Infinity`.
pub fn fmt_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n == 0.0 && n.is_sign_negative() {
        "0".to_string()
    } else if n.abs() >= 1e21 {
        format!("{n:e}").replace('e', "e+").replace("e+-", "e-")
    } else {
        format!("{n}")
    }
}

/// Escapes `s` as a double-quoted JS string literal (with quotes).
pub fn quote_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\0' => out.push_str("\\0"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Printer<S: SpanSink> {
    out: String,
    indent: usize,
    spans: S,
}

impl<S: SpanSink> Printer<S> {
    fn new(spans: S) -> Self {
        Printer { out: String::new(), indent: 0, spans }
    }

    fn program(&mut self, program: &Program) {
        for (i, stmt) in program.body.iter().enumerate() {
            if i > 0 {
                self.out.push('\n');
            }
            self.stmt(stmt);
        }
        if !self.out.is_empty() {
            self.out.push('\n');
        }
    }

    fn push(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn block(&mut self, body: &[Stmt]) {
        self.push("{");
        self.indent += 1;
        for stmt in body {
            self.nl();
            self.stmt(stmt);
        }
        self.indent -= 1;
        self.nl();
        self.push("}");
    }

    /// Prints a loop/if body: blocks get braces, single statements indent.
    fn nested(&mut self, stmt: &Stmt) {
        if let StmtKind::Block(body) = &stmt.kind {
            self.push(" ");
            self.block(body);
        } else {
            self.indent += 1;
            self.nl();
            self.stmt(stmt);
            self.indent -= 1;
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.expr_in(e, leading_is_ambiguous(e));
                self.push(";");
            }
            StmtKind::Directive(d) => {
                self.push(&quote_string(d));
                self.push(";");
            }
            StmtKind::Decl { kind, decls } => {
                self.push(&kind.to_string());
                self.push(" ");
                self.declarators(decls);
                self.push(";");
            }
            StmtKind::FunctionDecl(f) => self.function("function", f),
            StmtKind::Block(body) => self.block(body),
            StmtKind::If { cond, cons, alt } => {
                self.push("if (");
                self.expr(cond, 0);
                self.push(")");
                self.nested(cons);
                if let Some(alt) = alt {
                    if matches!(cons.kind, StmtKind::Block(_)) {
                        self.push(" else");
                    } else {
                        self.nl();
                        self.push("else");
                    }
                    if matches!(alt.kind, StmtKind::If { .. }) {
                        self.push(" ");
                        self.stmt(alt);
                    } else {
                        self.nested(alt);
                    }
                }
            }
            StmtKind::While { cond, body } => {
                self.push("while (");
                self.expr(cond, 0);
                self.push(")");
                self.nested(body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.push("do");
                self.nested(body);
                if matches!(body.kind, StmtKind::Block(_)) {
                    self.push(" while (");
                } else {
                    self.nl();
                    self.push("while (");
                }
                self.expr(cond, 0);
                self.push(");");
            }
            StmtKind::For { init, test, update, body } => {
                self.push("for (");
                match init.as_deref() {
                    Some(ForInit::Decl { kind, decls }) => {
                        self.push(&kind.to_string());
                        self.push(" ");
                        self.declarators(decls);
                    }
                    Some(ForInit::Expr(e)) => self.expr(e, 0),
                    None => {}
                }
                self.push("; ");
                if let Some(t) = test {
                    self.expr(t, 0);
                }
                self.push("; ");
                if let Some(u) = update {
                    self.expr(u, 0);
                }
                self.push(")");
                self.nested(body);
            }
            StmtKind::ForInOf { kind, decl, object, body } => {
                self.push("for (");
                match decl {
                    ForTarget::Decl(dk, name) => {
                        self.push(&dk.to_string());
                        self.push(" ");
                        self.push(name);
                    }
                    ForTarget::Ident(name) => self.push(name),
                }
                self.push(match kind {
                    ForInOfKind::In => " in ",
                    ForInOfKind::Of => " of ",
                });
                self.expr(object, 0);
                self.push(")");
                self.nested(body);
            }
            StmtKind::Return(arg) => {
                self.push("return");
                if let Some(arg) = arg {
                    self.push(" ");
                    self.expr(arg, 0);
                }
                self.push(";");
            }
            StmtKind::Break => self.push("break;"),
            StmtKind::Continue => self.push("continue;"),
            StmtKind::Throw(e) => {
                self.push("throw ");
                self.expr(e, 0);
                self.push(";");
            }
            StmtKind::Try { block, catch, finally } => {
                self.push("try ");
                self.block(block);
                if let Some(c) = catch {
                    match &c.param {
                        Some(p) => {
                            self.push(" catch (");
                            self.push(p);
                            self.push(") ");
                        }
                        None => self.push(" catch "),
                    }
                    self.block(&c.body);
                }
                if let Some(f) = finally {
                    self.push(" finally ");
                    self.block(f);
                }
            }
            StmtKind::Switch { disc, cases } => {
                self.push("switch (");
                self.expr(disc, 0);
                self.push(") {");
                self.indent += 1;
                for case in cases {
                    self.nl();
                    match &case.test {
                        Some(t) => {
                            self.push("case ");
                            self.expr(t, 0);
                            self.push(":");
                        }
                        None => self.push("default:"),
                    }
                    self.indent += 1;
                    for s in &case.body {
                        self.nl();
                        self.stmt(s);
                    }
                    self.indent -= 1;
                }
                self.indent -= 1;
                self.nl();
                self.push("}");
            }
            StmtKind::Empty => self.push(";"),
        }
    }

    fn declarators(&mut self, decls: &[Declarator]) {
        for (i, d) in decls.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            self.push(&d.name);
            if let Some(init) = &d.init {
                self.push(" = ");
                // Comma operator needs parens inside a declarator list.
                self.expr(init, prec::ASSIGN);
            }
        }
    }

    fn function(&mut self, keyword: &str, f: &Function) {
        self.push(keyword);
        if let Some(name) = &f.name {
            self.push(" ");
            self.push(name);
        }
        self.push("(");
        self.push(&f.params.join(", "));
        self.push(") ");
        self.block(&f.body);
    }

    /// Prints `expr`, parenthesizing if its precedence is below `min`.
    fn expr(&mut self, expr: &Expr, min: u8) {
        self.expr_in(expr, precedence(expr) < min);
    }

    /// Prints `expr`, in parentheses if `parens`, and records its range
    /// with them.
    fn expr_in(&mut self, expr: &Expr, parens: bool) {
        let start = self.out.len();
        if parens {
            self.push("(");
            self.expr_inner(expr);
            self.push(")");
        } else {
            self.expr_inner(expr);
        }
        self.spans.record(expr.id, start, self.out.len());
    }

    fn expr_inner(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::Ident(n) => self.push(n),
            ExprKind::This => self.push("this"),
            ExprKind::Lit(lit) => match lit {
                Lit::Number(n) => {
                    if *n < 0.0 || (n.is_sign_negative() && *n == 0.0) {
                        // Negative numeric literals do not exist in JS; print
                        // as a unary expression.
                        self.push(&format!("(-{})", fmt_number(-n)));
                    } else {
                        self.push(&fmt_number(*n));
                    }
                }
                Lit::String(s) => self.push(&quote_string(s)),
                Lit::Bool(b) => self.push(if *b { "true" } else { "false" }),
                Lit::Null => self.push("null"),
                Lit::Regex { pattern, flags } => {
                    self.push("/");
                    self.push(pattern);
                    self.push("/");
                    self.push(flags);
                }
            },
            ExprKind::Array(items) => {
                self.push("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    if let Some(e) = item {
                        self.expr(e, prec::ASSIGN);
                    }
                }
                self.push("]");
            }
            ExprKind::Object(props) => {
                self.push("{");
                for (i, prop) in props.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    match &prop.key {
                        PropKey::Ident(n) => self.push(n),
                        PropKey::String(s) => self.push(&quote_string(s)),
                        PropKey::Number(n) => self.push(&fmt_number(*n)),
                        PropKey::Computed(e) => {
                            self.push("[");
                            self.expr(e, prec::ASSIGN);
                            self.push("]");
                        }
                    }
                    if let Some(v) = &prop.value {
                        self.push(": ");
                        self.expr(v, prec::ASSIGN);
                    }
                }
                self.push("}");
            }
            ExprKind::Function(f) => self.function("function", f),
            ExprKind::Arrow { func, expr_body } => {
                self.push("(");
                self.push(&func.params.join(", "));
                self.push(") => ");
                match expr_body {
                    Some(e) => {
                        // An object literal body would parse as a block.
                        if matches!(e.kind, ExprKind::Object(_)) {
                            self.expr_in(e, true);
                        } else {
                            self.expr(e, prec::ASSIGN);
                        }
                    }
                    None => self.block(&func.body),
                }
            }
            ExprKind::Unary { op, operand } => {
                self.push(op.as_str());
                if matches!(op, UnaryOp::TypeOf | UnaryOp::Void | UnaryOp::Delete) {
                    self.push(" ");
                } else if let ExprKind::Unary { op: inner_op, .. } = &operand.kind {
                    // Avoid `--x` / `++x` from `-(-x)`.
                    if inner_op.as_str().starts_with(op.as_str()) {
                        self.push(" ");
                    }
                } else if let ExprKind::Lit(Lit::Number(n)) = &operand.kind {
                    if *n < 0.0 {
                        self.push(" ");
                    }
                }
                self.expr(operand, prec::UNARY);
            }
            ExprKind::Update { prefix, inc, target } => {
                let op = if *inc { "++" } else { "--" };
                if *prefix {
                    self.push(op);
                    self.expr(target, prec::UNARY);
                } else {
                    self.expr(target, prec::POSTFIX);
                    self.push(op);
                }
            }
            ExprKind::Binary { op, left, right } => {
                let p = binary_prec(*op);
                // `**` is right-associative.
                let (lmin, rmin) = if *op == BinaryOp::Pow { (p + 1, p) } else { (p, p + 1) };
                self.expr(left, lmin);
                self.push(" ");
                self.push(op.as_str());
                self.push(" ");
                self.expr(right, rmin);
            }
            ExprKind::Logical { op, left, right } => {
                let p = match op {
                    LogicalOp::Or => prec::OR,
                    LogicalOp::And => prec::AND,
                };
                self.expr(left, p);
                self.push(" ");
                self.push(op.as_str());
                self.push(" ");
                self.expr(right, p + 1);
            }
            ExprKind::Cond { cond, cons, alt } => {
                self.expr(cond, prec::COND + 1);
                self.push(" ? ");
                self.expr(cons, prec::ASSIGN);
                self.push(" : ");
                self.expr(alt, prec::ASSIGN);
            }
            ExprKind::Assign { op, target, value } => {
                self.expr(target, prec::POSTFIX);
                self.push(" ");
                self.push(op.as_str());
                self.push(" ");
                self.expr(value, prec::ASSIGN);
            }
            ExprKind::Seq(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.expr(item, prec::ASSIGN);
                }
            }
            ExprKind::Call { callee, args } => {
                self.expr(callee, prec::CALL);
                self.push("(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.expr(a, prec::ASSIGN);
                }
                self.push(")");
            }
            ExprKind::New { callee, args } => {
                self.push("new ");
                self.expr(callee, prec::MEMBER_NO_CALL);
                self.push("(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.push(", ");
                    }
                    self.expr(a, prec::ASSIGN);
                }
                self.push(")");
            }
            ExprKind::Member { object, prop } => {
                self.member_object(object);
                self.push(".");
                self.push(prop);
            }
            ExprKind::Index { object, index } => {
                self.member_object(object);
                self.push("[");
                self.expr(index, 0);
                self.push("]");
            }
            ExprKind::Template { quasis, exprs } => {
                self.push("`");
                for (i, q) in quasis.iter().enumerate() {
                    for c in q.chars() {
                        match c {
                            '`' => self.push("\\`"),
                            '$' => self.push("\\$"),
                            '\\' => self.push("\\\\"),
                            c => self.out.push(c),
                        }
                    }
                    if i < exprs.len() {
                        self.push("${");
                        self.expr(&exprs[i], 0);
                        self.push("}");
                    }
                }
                self.push("`");
            }
            ExprKind::Paren(inner) => {
                self.push("(");
                self.expr(inner, 0);
                self.push(")");
            }
        }
    }

    fn member_object(&mut self, object: &Expr) {
        // `42.x` is invalid; number receivers need parens.
        if matches!(object.kind, ExprKind::Lit(Lit::Number(_))) {
            self.expr_in(object, true);
        } else {
            self.expr(object, prec::CALL);
        }
    }
}

mod prec {
    pub const ASSIGN: u8 = 2;
    pub const COND: u8 = 3;
    pub const OR: u8 = 4;
    pub const AND: u8 = 5;
    pub const UNARY: u8 = 15;
    pub const POSTFIX: u8 = 16;
    pub const CALL: u8 = 17;
    pub const MEMBER_NO_CALL: u8 = 18;
    pub const PRIMARY: u8 = 19;
}

fn binary_prec(op: BinaryOp) -> u8 {
    use BinaryOp::*;
    match op {
        BitOr => 6,
        BitXor => 7,
        BitAnd => 8,
        Eq | NotEq | StrictEq | StrictNotEq => 9,
        Lt | LtEq | Gt | GtEq | In | InstanceOf => 10,
        Shl | Shr | UShr => 11,
        Add | Sub => 12,
        Mul | Div | Rem => 13,
        Pow => 14,
    }
}

fn precedence(expr: &Expr) -> u8 {
    match &expr.kind {
        ExprKind::Seq(_) => 1,
        ExprKind::Assign { .. } | ExprKind::Arrow { .. } => prec::ASSIGN,
        ExprKind::Cond { .. } => prec::COND,
        ExprKind::Logical { op: LogicalOp::Or, .. } => prec::OR,
        ExprKind::Logical { op: LogicalOp::And, .. } => prec::AND,
        ExprKind::Binary { op, .. } => binary_prec(*op),
        ExprKind::Unary { .. } | ExprKind::Update { prefix: true, .. } => prec::UNARY,
        ExprKind::Update { prefix: false, .. } => prec::POSTFIX,
        ExprKind::Call { .. } => prec::CALL,
        ExprKind::New { .. } | ExprKind::Member { .. } | ExprKind::Index { .. } => {
            prec::MEMBER_NO_CALL
        }
        ExprKind::Lit(Lit::Number(n)) if *n < 0.0 => prec::UNARY,
        _ => prec::PRIMARY,
    }
}

/// `true` if printing `e` as a statement would start with `{` or `function`,
/// which would be misparsed as a block / declaration.
fn leading_is_ambiguous(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Object(_) | ExprKind::Function(_) => true,
        ExprKind::Binary { left, .. } | ExprKind::Logical { left, .. } => {
            leading_is_ambiguous(left)
        }
        ExprKind::Cond { cond, .. } => leading_is_ambiguous(cond),
        ExprKind::Assign { target, .. } => leading_is_ambiguous(target),
        ExprKind::Seq(items) => items.first().is_some_and(leading_is_ambiguous),
        ExprKind::Call { callee, .. } => leading_is_ambiguous(callee),
        ExprKind::Member { object, .. } | ExprKind::Index { object, .. } => {
            leading_is_ambiguous(object)
        }
        ExprKind::Update { prefix: false, target, .. } => leading_is_ambiguous(target),
        _ => false,
    }
}
