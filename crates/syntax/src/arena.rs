//! Arena-flattened AST: compact 16-byte node headers over typed data pools.
//!
//! [`NodeArena`] is the cache-friendly execution encoding of a [`Program`]:
//! every statement and expression becomes one fixed-size [`Node`] whose
//! operands (`a`/`b`/`c`) index other nodes, the interned atom table, the
//! number pool, or variable-length records in the `extra` pool. The arena is
//! built once per program by [`NodeArena::build`] and is immutable and
//! `Send + Sync` afterwards (atoms are `Arc<str>`), so one arena can be
//! shared read-only across every testbed of a differential run.
//!
//! The flattening is 1:1 and lossless for execution purposes: each arena
//! node keeps the original [`NodeId`] of the AST node it lowers (in the
//! parallel `ids` pool), so coverage maps downstream are keyed by the AST's
//! ids. Function bodies additionally carry precomputed hoisting lists
//! (`var` names and function declarations, each in source pre-order).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ast::*;
use crate::fnv::FnvBuildHasher;

/// Sentinel operand meaning "absent" (no node / no atom / no payload).
pub const NONE: u32 = u32::MAX;

/// Discriminant of an arena node. Statement kinds first, then expressions;
/// the numbering is private to the arena and never serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // one-to-one with `StmtKind` / `ExprKind` variants
pub enum NodeKind {
    // -- statements --
    ExprStmt,
    Decl,
    FunctionDecl,
    Block,
    If,
    While,
    DoWhile,
    For,
    ForInOf,
    Return,
    Break,
    Continue,
    Throw,
    Try,
    Switch,
    Empty,
    Directive,
    // -- expressions --
    Ident,
    Number,
    Str,
    Bool,
    Null,
    Regex,
    This,
    Array,
    Object,
    Function,
    Arrow,
    Unary,
    Update,
    Binary,
    Logical,
    Cond,
    Assign,
    Seq,
    Call,
    New,
    Member,
    Index,
    Template,
    Paren,
}

/// One flattened AST node: a kind, an 8-bit flag field, and three 32-bit
/// operands. 16 bytes, so a whole program's nodes pack into a few cache
/// lines instead of a pointer graph.
#[derive(Debug, Clone, Copy, Hash)]
pub struct Node {
    /// What this node is.
    pub kind: NodeKind,
    /// Kind-specific small immediate (operator code, decl kind, bool value).
    pub flags: u8,
    /// First operand (meaning depends on `kind`).
    pub a: u32,
    /// Second operand.
    pub b: u32,
    /// Third operand.
    pub c: u32,
}

/// `Ident` flag values for the names the evaluator special-cases before any
/// environment lookup.
pub mod ident_flags {
    /// Ordinary identifier.
    pub const PLAIN: u8 = 0;
    /// `undefined`
    pub const UNDEFINED: u8 = 1;
    /// `NaN`
    pub const NAN: u8 = 2;
    /// `Infinity`
    pub const INFINITY: u8 = 3;
}

/// A function lowered into the arena: parameter/body ranges plus the
/// precomputed hoisting lists for its body.
#[derive(Debug, Clone, Copy)]
pub struct FuncProto {
    /// Name atom, or [`NONE`] for anonymous functions/arrows.
    pub name: u32,
    /// Parameter name atoms: `(start, len)` into `extra`.
    pub params: (u32, u32),
    /// Body statement nodes: `(start, len)` into `extra`.
    pub body: (u32, u32),
    /// `true` if the body has a `"use strict"` prologue.
    pub strict: bool,
    /// `true` for arrow functions.
    pub is_arrow: bool,
    /// Original [`NodeId`] of the function (function coverage key).
    pub id: u32,
    /// Expression body node for `x => expr` arrows, or [`NONE`].
    pub expr_body: u32,
    /// Hoisted `var` name atoms, in evaluator collection order.
    pub hoist_vars: (u32, u32),
    /// Hoisted function declarations (func-proto indices), in order.
    pub hoist_funcs: (u32, u32),
}

/// The arena: node headers plus typed data pools.
#[derive(Debug)]
pub struct NodeArena {
    /// Fixed-size node headers.
    pub nodes: Vec<Node>,
    /// Original AST [`NodeId`] of each node (parallel to `nodes`).
    pub ids: Vec<u32>,
    /// Interned strings (identifiers, literals, property names). `Arc` so
    /// the arena is `Send + Sync` and shareable across worker threads.
    pub atoms: Vec<Arc<str>>,
    /// Number-literal pool.
    pub numbers: Vec<f64>,
    /// Variable-length operand records (child lists, decl pairs, …).
    pub extra: Vec<u32>,
    /// Function table.
    pub funcs: Vec<FuncProto>,
    /// Top-level statement nodes: `(start, len)` into `extra`.
    pub top_body: (u32, u32),
    /// Top-level hoisted `var` atoms.
    pub top_hoist_vars: (u32, u32),
    /// Top-level hoisted function declarations.
    pub top_hoist_funcs: (u32, u32),
    /// `true` if the program opens with `"use strict"`.
    pub strict: bool,
}

impl NodeArena {
    /// Flattens `program` into a fresh arena.
    pub fn build(program: &Program) -> NodeArena {
        let mut b = Builder::with_capacity(program.node_count as usize);
        let top_body = b.stmt_list(&program.body);
        let (top_hoist_vars, top_hoist_funcs) = b.hoist_lists(top_body);
        NodeArena {
            nodes: b.nodes,
            ids: b.ids,
            atoms: b.atoms,
            numbers: b.numbers,
            extra: b.extra,
            funcs: b.funcs,
            top_body,
            top_hoist_vars,
            top_hoist_funcs,
            strict: program.strict,
        }
    }

    /// The node at `idx`.
    #[inline]
    pub fn node(&self, idx: u32) -> Node {
        self.nodes[idx as usize]
    }

    /// Original [`NodeId`] of the node at `idx`.
    #[inline]
    pub fn node_id(&self, idx: u32) -> NodeId {
        NodeId(self.ids[idx as usize])
    }

    /// The interned atom `idx`.
    #[inline]
    pub fn atom(&self, idx: u32) -> &str {
        &self.atoms[idx as usize]
    }

    /// The number-pool entry `idx`.
    #[inline]
    pub fn number(&self, idx: u32) -> f64 {
        self.numbers[idx as usize]
    }

    /// An `extra`-pool slice for a `(start, len)` range.
    #[inline]
    pub fn slice(&self, range: (u32, u32)) -> &[u32] {
        &self.extra[range.0 as usize..(range.0 + range.1) as usize]
    }

    /// Approximate resident size in bytes (diagnostics / benchmarks).
    pub fn byte_size(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.ids.len() * 4
            + self.extra.len() * 4
            + self.numbers.len() * 8
            + self.funcs.len() * std::mem::size_of::<FuncProto>()
            + self.atoms.iter().map(|a| a.len()).sum::<usize>()
    }

    /// Feeds the arena's content to `state`: the nodes, atoms, numbers,
    /// `extra` records, function protos, top-level ranges and strict bit,
    /// which is everything execution reads, but not the AST ids, which
    /// only key coverage. Arenas lowered from one program text hash alike
    /// however the source was laid out; a change to any token execution
    /// sees changes the hash.
    pub fn hash_content<H: Hasher>(&self, state: &mut H) {
        self.nodes.hash(state);
        self.atoms.hash(state);
        state.write_usize(self.numbers.len());
        for n in &self.numbers {
            state.write_u64(n.to_bits());
        }
        self.extra.hash(state);
        state.write_usize(self.funcs.len());
        for f in &self.funcs {
            let FuncProto {
                name,
                params,
                body,
                strict,
                is_arrow,
                id: _,
                expr_body,
                hoist_vars,
                hoist_funcs,
            } = *f;
            (name, params, body, strict, is_arrow, expr_body, hoist_vars, hoist_funcs).hash(state);
        }
        (self.top_body, self.top_hoist_vars, self.top_hoist_funcs, self.strict).hash(state);
    }
}

struct Builder {
    nodes: Vec<Node>,
    ids: Vec<u32>,
    atoms: Vec<Arc<str>>,
    atom_map: HashMap<Arc<str>, u32, FnvBuildHasher>,
    numbers: Vec<f64>,
    extra: Vec<u32>,
    funcs: Vec<FuncProto>,
    /// Child lists under construction. A construct pushes its children
    /// above a mark and moves them into `extra` with [`Builder::list_from`];
    /// lowering a child leaves the stack as it found it.
    stack: Vec<u32>,
    /// Hoist-collection buffers, reused by every function body.
    hoist_vars: Vec<u32>,
    hoist_funcs: Vec<u32>,
}

impl Builder {
    /// A builder whose pools are sized for a program of `node_count` AST
    /// nodes, so a typical build never regrows them.
    fn with_capacity(node_count: usize) -> Builder {
        let atoms = node_count / 2 + 4;
        Builder {
            nodes: Vec::with_capacity(node_count),
            ids: Vec::with_capacity(node_count),
            atoms: Vec::with_capacity(atoms),
            atom_map: HashMap::with_capacity_and_hasher(atoms, FnvBuildHasher::default()),
            numbers: Vec::with_capacity(node_count / 4 + 2),
            extra: Vec::with_capacity(node_count + 8),
            funcs: Vec::new(),
            stack: Vec::with_capacity(32),
            hoist_vars: Vec::new(),
            hoist_funcs: Vec::new(),
        }
    }

    fn push(&mut self, id: NodeId, kind: NodeKind, flags: u8, a: u32, b: u32, c: u32) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { kind, flags, a, b, c });
        self.ids.push(id.0);
        idx
    }

    fn atom(&mut self, s: &str) -> u32 {
        if let Some(&idx) = self.atom_map.get(s) {
            return idx;
        }
        let idx = self.atoms.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.atoms.push(Arc::clone(&arc));
        self.atom_map.insert(arc, idx);
        idx
    }

    fn number(&mut self, n: f64) -> u32 {
        // Number literals are few per program; no interning needed.
        let idx = self.numbers.len() as u32;
        self.numbers.push(n);
        idx
    }

    fn list(&mut self, items: &[u32]) -> (u32, u32) {
        let start = self.extra.len() as u32;
        self.extra.extend_from_slice(items);
        (start, items.len() as u32)
    }

    /// Moves the stack entries above `mark` into `extra` as one list.
    fn list_from(&mut self, mark: usize) -> (u32, u32) {
        let start = self.extra.len() as u32;
        self.extra.extend_from_slice(&self.stack[mark..]);
        let len = (self.stack.len() - mark) as u32;
        self.stack.truncate(mark);
        (start, len)
    }

    /// Lowers `body` and lists its statement nodes.
    fn stmt_list(&mut self, body: &[Stmt]) -> (u32, u32) {
        let mark = self.stack.len();
        for s in body {
            let n = self.stmt(s);
            self.stack.push(n);
        }
        self.list_from(mark)
    }

    /// Lowers each expression and lists the nodes.
    fn expr_list(&mut self, items: &[Expr]) -> (u32, u32) {
        let mark = self.stack.len();
        for e in items {
            let n = self.expr(e);
            self.stack.push(n);
        }
        self.list_from(mark)
    }

    fn opt_expr(&mut self, e: Option<&Expr>) -> u32 {
        match e {
            Some(e) => self.expr(e),
            None => NONE,
        }
    }

    fn decl_kind_code(kind: DeclKind) -> u8 {
        match kind {
            DeclKind::Var => 0,
            DeclKind::Let => 1,
            DeclKind::Const => 2,
        }
    }

    /// Pushes one `(name atom, init node | NONE)` pair per declarator.
    fn push_declarators(&mut self, decls: &[Declarator]) {
        for d in decls {
            let name = self.atom(&d.name);
            let init = self.opt_expr(d.init.as_ref());
            self.stack.extend([name, init]);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) -> u32 {
        let id = stmt.id;
        match &stmt.kind {
            StmtKind::Expr(e) => {
                let e = self.expr(e);
                self.push(id, NodeKind::ExprStmt, 0, e, NONE, NONE)
            }
            StmtKind::Decl { kind, decls } => {
                let mark = self.stack.len();
                self.push_declarators(decls);
                let (start, _) = self.list_from(mark);
                self.push(
                    id,
                    NodeKind::Decl,
                    Self::decl_kind_code(*kind),
                    start,
                    decls.len() as u32,
                    NONE,
                )
            }
            StmtKind::FunctionDecl(f) => {
                let fidx = self.function(f, false, None);
                self.push(id, NodeKind::FunctionDecl, 0, fidx, NONE, NONE)
            }
            StmtKind::Block(body) => {
                let (start, len) = self.stmt_list(body);
                self.push(id, NodeKind::Block, 0, start, len, NONE)
            }
            StmtKind::If { cond, cons, alt } => {
                let cond = self.expr(cond);
                let cons = self.stmt(cons);
                let alt = match alt {
                    Some(s) => self.stmt(s),
                    None => NONE,
                };
                self.push(id, NodeKind::If, 0, cond, cons, alt)
            }
            StmtKind::While { cond, body } => {
                let cond = self.expr(cond);
                let body = self.stmt(body);
                self.push(id, NodeKind::While, 0, cond, body, NONE)
            }
            StmtKind::DoWhile { body, cond } => {
                let body = self.stmt(body);
                let cond = self.expr(cond);
                self.push(id, NodeKind::DoWhile, 0, body, cond, NONE)
            }
            StmtKind::For { init, test, update, body } => {
                // Record: [test|NONE, update|NONE, body, init_tag, payload…].
                // init_tag: 0 = none, 1 = expr (payload: node), 2/3/4 =
                // var/let/const decl (payload: ndecls, then (atom, init) pairs).
                // The payload is lowered first and waits on the stack.
                let mark = self.stack.len();
                let init_tag = match init.as_deref() {
                    None => 0,
                    Some(ForInit::Expr(e)) => {
                        let e = self.expr(e);
                        self.stack.push(e);
                        1
                    }
                    Some(ForInit::Decl { kind, decls }) => {
                        self.stack.push(decls.len() as u32);
                        self.push_declarators(decls);
                        2 + u32::from(Self::decl_kind_code(*kind))
                    }
                };
                let test = self.opt_expr(test.as_ref());
                let update = self.opt_expr(update.as_ref());
                let body = self.stmt(body);
                let start = self.extra.len() as u32;
                self.extra.extend([test, update, body, init_tag]);
                self.list_from(mark);
                self.push(id, NodeKind::For, 0, start, NONE, NONE)
            }
            StmtKind::ForInOf { kind, decl, object, body } => {
                let object = self.expr(object);
                let body = self.stmt(body);
                let (target_code, name) = match decl {
                    ForTarget::Ident(n) => (0u8, self.atom(n)),
                    ForTarget::Decl(k, n) => (1 + Self::decl_kind_code(*k), self.atom(n)),
                };
                let of_bit = if *kind == ForInOfKind::Of { 4u8 } else { 0 };
                self.push(id, NodeKind::ForInOf, of_bit | target_code, object, body, name)
            }
            StmtKind::Return(arg) => {
                let arg = self.opt_expr(arg.as_ref());
                self.push(id, NodeKind::Return, 0, arg, NONE, NONE)
            }
            StmtKind::Break => self.push(id, NodeKind::Break, 0, NONE, NONE, NONE),
            StmtKind::Continue => self.push(id, NodeKind::Continue, 0, NONE, NONE, NONE),
            StmtKind::Throw(e) => {
                let e = self.expr(e);
                self.push(id, NodeKind::Throw, 0, e, NONE, NONE)
            }
            StmtKind::Try { block, catch, finally } => {
                // Record: [block_start, block_len, catch_tag, catch_param,
                //          catch_start, catch_len, fin_tag, fin_start, fin_len].
                let (bs, bl) = self.stmt_list(block);
                let (ctag, cparam, cs, cl) = match catch {
                    Some(clause) => {
                        let param = match &clause.param {
                            Some(p) => self.atom(p),
                            None => NONE,
                        };
                        let (cs, cl) = self.stmt_list(&clause.body);
                        (1u32, param, cs, cl)
                    }
                    None => (0, NONE, 0, 0),
                };
                let (ftag, fs, fl) = match finally {
                    Some(fin) => {
                        let (fs, fl) = self.stmt_list(fin);
                        (1u32, fs, fl)
                    }
                    None => (0, 0, 0),
                };
                let (start, _) = self.list(&[bs, bl, ctag, cparam, cs, cl, ftag, fs, fl]);
                self.push(id, NodeKind::Try, 0, start, NONE, NONE)
            }
            StmtKind::Switch { disc, cases } => {
                let disc = self.expr(disc);
                // Per-case record: [test|NONE, body_start, body_len].
                let mark = self.stack.len();
                for case in cases {
                    let test = self.opt_expr(case.test.as_ref());
                    let (cs, cl) = self.stmt_list(&case.body);
                    self.stack.extend([test, cs, cl]);
                }
                let (start, _) = self.list_from(mark);
                self.push(id, NodeKind::Switch, 0, disc, start, cases.len() as u32)
            }
            StmtKind::Empty => self.push(id, NodeKind::Empty, 0, NONE, NONE, NONE),
            StmtKind::Directive(text) => {
                let atom = self.atom(text);
                self.push(id, NodeKind::Directive, 0, atom, NONE, NONE)
            }
        }
    }

    fn function(&mut self, f: &Function, is_arrow: bool, expr_body: Option<&Expr>) -> u32 {
        let name = match &f.name {
            Some(n) => self.atom(n),
            None => NONE,
        };
        let mark = self.stack.len();
        for p in &f.params {
            let atom = self.atom(p);
            self.stack.push(atom);
        }
        let params = self.list_from(mark);
        let body = self.stmt_list(&f.body);
        let expr_body = self.opt_expr(expr_body);
        let (hoist_vars, hoist_funcs) = self.hoist_lists(body);
        let idx = self.funcs.len() as u32;
        self.funcs.push(FuncProto {
            name,
            params,
            body,
            strict: f.strict,
            is_arrow,
            id: f.id.0,
            expr_body,
            hoist_vars,
            hoist_funcs,
        });
        idx
    }

    fn expr(&mut self, expr: &Expr) -> u32 {
        let id = expr.id;
        match &expr.kind {
            ExprKind::Ident(name) => {
                let flags = match name.as_str() {
                    "undefined" => ident_flags::UNDEFINED,
                    "NaN" => ident_flags::NAN,
                    "Infinity" => ident_flags::INFINITY,
                    _ => ident_flags::PLAIN,
                };
                let atom = self.atom(name);
                self.push(id, NodeKind::Ident, flags, atom, NONE, NONE)
            }
            ExprKind::Lit(lit) => match lit {
                Lit::Number(n) => {
                    let idx = self.number(*n);
                    self.push(id, NodeKind::Number, 0, idx, NONE, NONE)
                }
                Lit::String(s) => {
                    let atom = self.atom(s);
                    self.push(id, NodeKind::Str, 0, atom, NONE, NONE)
                }
                Lit::Bool(v) => self.push(id, NodeKind::Bool, u8::from(*v), NONE, NONE, NONE),
                Lit::Null => self.push(id, NodeKind::Null, 0, NONE, NONE, NONE),
                Lit::Regex { pattern, flags } => {
                    let pattern = self.atom(pattern);
                    let flags = self.atom(flags);
                    self.push(id, NodeKind::Regex, 0, pattern, flags, NONE)
                }
            },
            ExprKind::This => self.push(id, NodeKind::This, 0, NONE, NONE, NONE),
            ExprKind::Array(items) => {
                let mark = self.stack.len();
                for item in items {
                    let slot = self.opt_expr(item.as_ref());
                    self.stack.push(slot);
                }
                let (start, len) = self.list_from(mark);
                self.push(id, NodeKind::Array, 0, start, len, NONE)
            }
            ExprKind::Object(props) => {
                // Per-prop record: [key_tag, payload, value|NONE]. key_tag:
                // 0 = ident atom, 1 = string atom, 2 = number-pool index,
                // 3 = computed node.
                let mark = self.stack.len();
                for p in props {
                    let (tag, payload) = match &p.key {
                        PropKey::Ident(n) => (0u32, self.atom(n)),
                        PropKey::String(s) => (1, self.atom(s)),
                        PropKey::Number(n) => (2, self.number(*n)),
                        PropKey::Computed(e) => (3, self.expr(e)),
                    };
                    let value = self.opt_expr(p.value.as_ref());
                    self.stack.extend([tag, payload, value]);
                }
                let (start, _) = self.list_from(mark);
                self.push(id, NodeKind::Object, 0, start, props.len() as u32, NONE)
            }
            ExprKind::Function(f) => {
                let fidx = self.function(f, false, None);
                self.push(id, NodeKind::Function, 0, fidx, NONE, NONE)
            }
            ExprKind::Arrow { func, expr_body } => {
                let fidx = self.function(func, true, expr_body.as_deref());
                self.push(id, NodeKind::Arrow, 0, fidx, NONE, NONE)
            }
            ExprKind::Unary { op, operand } => {
                let operand = self.expr(operand);
                self.push(id, NodeKind::Unary, *op as u8, operand, NONE, NONE)
            }
            ExprKind::Update { prefix, inc, target } => {
                let target = self.expr(target);
                let flags = u8::from(*inc) | (u8::from(*prefix) << 1);
                self.push(id, NodeKind::Update, flags, target, NONE, NONE)
            }
            ExprKind::Binary { op, left, right } => {
                let left = self.expr(left);
                let right = self.expr(right);
                self.push(id, NodeKind::Binary, *op as u8, left, right, NONE)
            }
            ExprKind::Logical { op, left, right } => {
                let left = self.expr(left);
                let right = self.expr(right);
                self.push(id, NodeKind::Logical, *op as u8, left, right, NONE)
            }
            ExprKind::Cond { cond, cons, alt } => {
                let cond = self.expr(cond);
                let cons = self.expr(cons);
                let alt = self.expr(alt);
                self.push(id, NodeKind::Cond, 0, cond, cons, alt)
            }
            ExprKind::Assign { op, target, value } => {
                let target = self.expr(target);
                let value = self.expr(value);
                self.push(id, NodeKind::Assign, *op as u8, target, value, NONE)
            }
            ExprKind::Seq(items) => {
                let (start, len) = self.expr_list(items);
                self.push(id, NodeKind::Seq, 0, start, len, NONE)
            }
            ExprKind::Call { callee, args } => {
                let callee = self.expr(callee);
                let (start, len) = self.expr_list(args);
                self.push(id, NodeKind::Call, 0, callee, start, len)
            }
            ExprKind::New { callee, args } => {
                let callee = self.expr(callee);
                let (start, len) = self.expr_list(args);
                self.push(id, NodeKind::New, 0, callee, start, len)
            }
            ExprKind::Member { object, prop } => {
                let object = self.expr(object);
                let prop = self.atom(prop);
                self.push(id, NodeKind::Member, 0, object, prop, NONE)
            }
            ExprKind::Index { object, index } => {
                let object = self.expr(object);
                let index = self.expr(index);
                self.push(id, NodeKind::Index, 0, object, index, NONE)
            }
            ExprKind::Template { quasis, exprs } => {
                // Layout: quasi atoms at a..a+b, expression nodes at a+b..a+b+c.
                let mark = self.stack.len();
                for q in quasis {
                    let atom = self.atom(q);
                    self.stack.push(atom);
                }
                for e in exprs {
                    let n = self.expr(e);
                    self.stack.push(n);
                }
                let (start, _) = self.list_from(mark);
                self.push(id, NodeKind::Template, 0, start, quasis.len() as u32, exprs.len() as u32)
            }
            ExprKind::Paren(inner) => {
                let inner = self.expr(inner);
                self.push(id, NodeKind::Paren, 0, inner, NONE, NONE)
            }
        }
    }

    /// Lists the hoisted `var` atoms and function-declaration proto indices
    /// of the lowered statement list at `body` (vars and functions each in
    /// pre-order; `for` init declarations before the loop body).
    fn hoist_lists(&mut self, body: (u32, u32)) -> ((u32, u32), (u32, u32)) {
        let mut vars = std::mem::take(&mut self.hoist_vars);
        let mut funcs = std::mem::take(&mut self.hoist_funcs);
        for i in body.0..body.0 + body.1 {
            self.collect_hoist(self.extra[i as usize], &mut vars, &mut funcs);
        }
        let lists = (self.list(&vars), self.list(&funcs));
        vars.clear();
        funcs.clear();
        self.hoist_vars = vars;
        self.hoist_funcs = funcs;
        lists
    }

    fn collect_hoist(&self, n: u32, vars: &mut Vec<u32>, funcs: &mut Vec<u32>) {
        let node = self.nodes[n as usize];
        match node.kind {
            NodeKind::Decl if node.flags == 0 => {
                for i in 0..node.b {
                    vars.push(self.extra[(node.a + i * 2) as usize]);
                }
            }
            NodeKind::FunctionDecl => funcs.push(node.a),
            NodeKind::Block => {
                for i in 0..node.b {
                    self.collect_hoist(self.extra[(node.a + i) as usize], vars, funcs);
                }
            }
            NodeKind::If => {
                self.collect_hoist(node.b, vars, funcs);
                if node.c != NONE {
                    self.collect_hoist(node.c, vars, funcs);
                }
            }
            NodeKind::While => self.collect_hoist(node.b, vars, funcs),
            NodeKind::DoWhile => self.collect_hoist(node.a, vars, funcs),
            NodeKind::For => {
                let base = node.a as usize;
                let init_tag = self.extra[base + 3];
                if init_tag == 2 {
                    // `for (var …)` — only var-kind init decls hoist.
                    let ndecls = self.extra[base + 4];
                    for i in 0..ndecls {
                        vars.push(self.extra[base + 5 + (i * 2) as usize]);
                    }
                }
                self.collect_hoist(self.extra[base + 2], vars, funcs);
            }
            NodeKind::ForInOf => {
                if node.flags & 3 == 1 {
                    vars.push(node.c);
                }
                self.collect_hoist(node.b, vars, funcs);
            }
            NodeKind::Try => {
                let base = node.a as usize;
                let [bs, bl, ctag, _cparam, cs, cl, ftag, fs, fl] =
                    self.extra[base..base + 9].try_into().expect("try record is 9 words");
                for i in 0..bl {
                    self.collect_hoist(self.extra[(bs + i) as usize], vars, funcs);
                }
                if ctag == 1 {
                    for i in 0..cl {
                        self.collect_hoist(self.extra[(cs + i) as usize], vars, funcs);
                    }
                }
                if ftag == 1 {
                    for i in 0..fl {
                        self.collect_hoist(self.extra[(fs + i) as usize], vars, funcs);
                    }
                }
            }
            NodeKind::Switch => {
                for i in 0..node.c {
                    let rec = (node.b + i * 3) as usize;
                    let (cs, cl) = (self.extra[rec + 1], self.extra[rec + 2]);
                    for j in 0..cl {
                        self.collect_hoist(self.extra[(cs + j) as usize], vars, funcs);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn node_header_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    #[test]
    fn builds_and_preserves_node_ids() {
        let program = parse("var x = 1; function f(a) { return a + x; } print(f(2));")
            .expect("test source parses");
        let arena = NodeArena::build(&program);
        assert!(!arena.nodes.is_empty());
        assert_eq!(arena.nodes.len(), arena.ids.len());
        // Every lowered node carries a real (non-dummy) pre-order id below
        // the program's node count.
        for &id in &arena.ids {
            assert!(id < program.node_count, "id {id} >= node_count {}", program.node_count);
        }
        assert_eq!(arena.funcs.len(), 1);
        assert_eq!(arena.top_body.1, 3);
    }

    #[test]
    fn atoms_are_interned() {
        let program = parse("var aa = 1; print(aa); print(aa);").expect("test source parses");
        let arena = NodeArena::build(&program);
        let count = arena.atoms.iter().filter(|a| &***a == "aa").count();
        assert_eq!(count, 1, "identifier should intern to a single atom");
    }

    #[test]
    fn hoist_lists_match_collect_order() {
        let src = "if (x) { var a = 1; } while (y) { var b = 2; } function g() {} var c;";
        let program = parse(src).expect("test source parses");
        let arena = NodeArena::build(&program);
        let vars: Vec<&str> =
            arena.slice(arena.top_hoist_vars).iter().map(|&a| arena.atom(a)).collect();
        assert_eq!(vars, ["a", "b", "c"]);
        let funcs = arena.slice(arena.top_hoist_funcs);
        assert_eq!(funcs.len(), 1);
        assert_eq!(arena.atom(arena.funcs[funcs[0] as usize].name), "g");
    }

    #[test]
    fn for_init_vars_hoist_before_body_vars() {
        let src = "for (var i = 0; i < 2; i++) { var inner = i; }";
        let program = parse(src).expect("test source parses");
        let arena = NodeArena::build(&program);
        let vars: Vec<&str> =
            arena.slice(arena.top_hoist_vars).iter().map(|&a| arena.atom(a)).collect();
        assert_eq!(vars, ["i", "inner"]);
    }

    #[test]
    fn arena_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NodeArena>();
    }
}
