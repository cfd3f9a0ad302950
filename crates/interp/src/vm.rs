//! The arena VM: executes a [`CompiledChunk`] node stream.
//!
//! This is the interpreter's one evaluator. It dispatches over the arena
//! nodes and leaves the heap, environments, builtins, conversions, profile
//! hooks and the fuel meter to the runtime in `interp.rs`. Its `charge` and
//! coverage-hit sites define the fuel and coverage every run reports; the
//! golden file `tests/evaluator_golden.txt` at the repository root pins
//! them.
//!
//! Functions created while running a chunk close over the chunk
//! ([`FuncData::chunk`]) instead of cloning their AST, so defining a
//! function costs an `Arc` bump rather than an AST copy. `eval`'d code gets
//! a chunk of its own, which its functions keep alive after `eval` returns.

use comfort_syntax::arena::{ident_flags, NodeKind, NONE};

use super::*;

/// Operator decode tables, indexed by the arena's `flags` byte. The arena
/// builder encodes operators as `op as u8`, so each table must list the
/// variants in `ast.rs` declaration order.
const UNARY_OPS: [UnaryOp; 7] = [
    UnaryOp::Neg,
    UnaryOp::Pos,
    UnaryOp::Not,
    UnaryOp::BitNot,
    UnaryOp::TypeOf,
    UnaryOp::Void,
    UnaryOp::Delete,
];

const BINARY_OPS: [BinaryOp; 22] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Rem,
    BinaryOp::Pow,
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::StrictEq,
    BinaryOp::StrictNotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
    BinaryOp::Shl,
    BinaryOp::Shr,
    BinaryOp::UShr,
    BinaryOp::BitAnd,
    BinaryOp::BitOr,
    BinaryOp::BitXor,
    BinaryOp::In,
    BinaryOp::InstanceOf,
];

const LOGICAL_OPS: [LogicalOp; 2] = [LogicalOp::And, LogicalOp::Or];

const ASSIGN_OPS: [AssignOp; 12] = [
    AssignOp::Assign,
    AssignOp::Add,
    AssignOp::Sub,
    AssignOp::Mul,
    AssignOp::Div,
    AssignOp::Rem,
    AssignOp::Shl,
    AssignOp::Shr,
    AssignOp::UShr,
    AssignOp::BitAnd,
    AssignOp::BitOr,
    AssignOp::BitXor,
];

impl<'p> Interp<'p> {
    /// Executes the chunk's top level (hoist + statement list) in the
    /// global env.
    pub(super) fn exec_top_a(&mut self, chunk: &Arc<CompiledChunk>) -> Result<(), Control> {
        let env = self.global_env;
        self.hoist_a(chunk, chunk.arena.top_hoist_vars, chunk.arena.top_hoist_funcs, env);
        self.exec_list_a(chunk, chunk.arena.top_body, env)
    }

    /// Declares precomputed hoist lists: `var` names bound to `undefined`
    /// (first binding wins), then function declarations.
    pub(super) fn hoist_a(
        &mut self,
        chunk: &Arc<CompiledChunk>,
        vars: (u32, u32),
        funcs: (u32, u32),
        env: EnvId,
    ) {
        for i in 0..vars.1 {
            let atom = chunk.arena.extra[(vars.0 + i) as usize];
            let name = chunk.arena.atom(atom);
            if !self.envs[env.0 as usize].vars.contains_key(name) {
                self.declare(env, name, Value::Undefined);
            }
        }
        for i in 0..funcs.1 {
            let fidx = chunk.arena.extra[(funcs.0 + i) as usize];
            let fv = self.make_function_a(chunk, fidx, env);
            let name_atom = chunk.arena.funcs[fidx as usize].name;
            let name = chunk.arena.atom(name_atom);
            self.declare(env, name, fv);
        }
    }

    /// Runs a statement range without hoisting (block / case / clause body).
    pub(super) fn exec_list_a(
        &mut self,
        chunk: &Arc<CompiledChunk>,
        body: (u32, u32),
        env: EnvId,
    ) -> Result<(), Control> {
        for i in 0..body.1 {
            let n = chunk.arena.extra[(body.0 + i) as usize];
            self.exec_stmt_a(chunk, n, env)?;
        }
        Ok(())
    }

    fn exec_stmt_a(
        &mut self,
        chunk: &Arc<CompiledChunk>,
        n: u32,
        env: EnvId,
    ) -> Result<(), Control> {
        self.charge(1)?;
        if let Some(cov) = &mut self.coverage {
            cov.hit_stmt(chunk.arena.node_id(n));
        }
        let node = chunk.arena.node(n);
        match node.kind {
            NodeKind::Empty | NodeKind::Directive => Ok(()),
            NodeKind::ExprStmt => {
                self.eval_expr_a(chunk, node.a, env)?;
                Ok(())
            }
            NodeKind::Decl => {
                let is_var = node.flags == 0;
                for i in 0..node.b {
                    let base = (node.a + i * 2) as usize;
                    let name_atom = chunk.arena.extra[base];
                    let init = chunk.arena.extra[base + 1];
                    if init == NONE {
                        // `var x;` — hoisting already bound the name; an
                        // initializer-less redeclaration must not clobber it.
                        if !is_var {
                            self.declare(env, chunk.arena.atom(name_atom), Value::Undefined);
                        }
                        continue;
                    }
                    let value = self.eval_expr_a(chunk, init, env)?;
                    if is_var {
                        // `var` updates the binding hoisted to the enclosing
                        // function/program scope (never creates a block-local).
                        self.assign_var(env, chunk.arena.atom(name_atom), value)?;
                    } else {
                        // `let`/`const` bind in the current block env.
                        self.declare(env, chunk.arena.atom(name_atom), value);
                    }
                }
                Ok(())
            }
            NodeKind::FunctionDecl => Ok(()), // hoisted
            NodeKind::Block => {
                let inner = self.new_env(env);
                self.exec_list_a(chunk, (node.a, node.b), inner)
            }
            NodeKind::If => {
                let c = self.eval_expr_a(chunk, node.a, env)?;
                let taken = self.to_boolean(&c);
                if let Some(cov) = &mut self.coverage {
                    cov.hit_branch(chunk.arena.node_id(n), taken);
                }
                if taken {
                    self.exec_stmt_a(chunk, node.b, env)
                } else if node.c != NONE {
                    self.exec_stmt_a(chunk, node.c, env)
                } else {
                    Ok(())
                }
            }
            NodeKind::While => {
                loop {
                    self.charge(1)?;
                    let c = self.eval_expr_a(chunk, node.a, env)?;
                    let taken = self.to_boolean(&c);
                    if let Some(cov) = &mut self.coverage {
                        cov.hit_branch(chunk.arena.node_id(n), taken);
                    }
                    if !taken {
                        break;
                    }
                    match self.exec_stmt_a(chunk, node.b, env) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                }
                Ok(())
            }
            NodeKind::DoWhile => {
                loop {
                    self.charge(1)?;
                    match self.exec_stmt_a(chunk, node.a, env) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                    let c = self.eval_expr_a(chunk, node.b, env)?;
                    let taken = self.to_boolean(&c);
                    if let Some(cov) = &mut self.coverage {
                        cov.hit_branch(chunk.arena.node_id(n), taken);
                    }
                    if !taken {
                        break;
                    }
                }
                Ok(())
            }
            NodeKind::For => {
                let base = node.a as usize;
                let test = chunk.arena.extra[base];
                let update = chunk.arena.extra[base + 1];
                let body = chunk.arena.extra[base + 2];
                let init_tag = chunk.arena.extra[base + 3];
                let loop_env = self.new_env(env);
                match init_tag {
                    0 => {}
                    1 => {
                        self.eval_expr_a(chunk, chunk.arena.extra[base + 4], loop_env)?;
                    }
                    tag => {
                        let ndecls = chunk.arena.extra[base + 4];
                        for i in 0..ndecls {
                            let rec = base + 5 + (i * 2) as usize;
                            let name_atom = chunk.arena.extra[rec];
                            let init = chunk.arena.extra[rec + 1];
                            let v = if init != NONE {
                                self.eval_expr_a(chunk, init, loop_env)?
                            } else {
                                Value::Undefined
                            };
                            if tag == 2 {
                                self.assign_var(loop_env, chunk.arena.atom(name_atom), v)?;
                            } else {
                                self.declare(loop_env, chunk.arena.atom(name_atom), v);
                            }
                        }
                    }
                }
                loop {
                    self.charge(1)?;
                    if test != NONE {
                        let c = self.eval_expr_a(chunk, test, loop_env)?;
                        let taken = self.to_boolean(&c);
                        if let Some(cov) = &mut self.coverage {
                            cov.hit_branch(chunk.arena.node_id(n), taken);
                        }
                        if !taken {
                            break;
                        }
                    } else if let Some(cov) = &mut self.coverage {
                        cov.hit_branch(chunk.arena.node_id(n), true);
                    }
                    match self.exec_stmt_a(chunk, body, loop_env) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                    if update != NONE {
                        self.eval_expr_a(chunk, update, loop_env)?;
                    }
                }
                Ok(())
            }
            NodeKind::ForInOf => {
                let obj = self.eval_expr_a(chunk, node.a, env)?;
                let of = node.flags & 4 != 0;
                let target = node.flags & 3;
                let items: Vec<Value> = if of {
                    self.iterate_values(&obj)?
                } else {
                    self.enumerate_keys(&obj)?.into_iter().map(Value::str).collect()
                };
                if let Some(cov) = &mut self.coverage {
                    cov.hit_branch(chunk.arena.node_id(n), !items.is_empty());
                }
                let loop_env = self.new_env(env);
                if target >= 2 {
                    // `let`/`const` targets pre-bind in the loop env.
                    self.declare(loop_env, chunk.arena.atom(node.c), Value::Undefined);
                }
                for item in items {
                    self.charge(1)?;
                    if target <= 1 {
                        // `for (var k in …)` / bare ident writes the hoisted
                        // (or outer) binding.
                        self.assign_var(loop_env, chunk.arena.atom(node.c), item)?;
                    } else {
                        self.declare(loop_env, chunk.arena.atom(node.c), item);
                    }
                    match self.exec_stmt_a(chunk, node.b, loop_env) {
                        Ok(()) | Err(Control::Continue) => {}
                        Err(Control::Break) => break,
                        Err(other) => return Err(other),
                    }
                }
                Ok(())
            }
            NodeKind::Return => {
                let v = if node.a != NONE {
                    self.eval_expr_a(chunk, node.a, env)?
                } else {
                    Value::Undefined
                };
                Err(Control::Return(v))
            }
            NodeKind::Break => Err(Control::Break),
            NodeKind::Continue => Err(Control::Continue),
            NodeKind::Throw => {
                let v = self.eval_expr_a(chunk, node.a, env)?;
                Err(Control::Throw(v))
            }
            NodeKind::Try => {
                let base = node.a as usize;
                let [bs, bl, ctag, cparam, cs, cl, ftag, fs, fl] =
                    chunk.arena.extra[base..base + 9].try_into().expect("try record is 9 words");
                let block_env = self.new_env(env);
                let mut result = self.exec_list_a(chunk, (bs, bl), block_env);
                if let Err(Control::Throw(exc)) = result {
                    if ctag == 1 {
                        let catch_env = self.new_env(env);
                        if cparam != NONE {
                            self.declare(catch_env, chunk.arena.atom(cparam), exc);
                        }
                        result = self.exec_list_a(chunk, (cs, cl), catch_env);
                    } else {
                        result = Err(Control::Throw(exc));
                    }
                }
                if ftag == 1 {
                    let fin_env = self.new_env(env);
                    // A finally completion overrides the try/catch one.
                    self.exec_list_a(chunk, (fs, fl), fin_env)?;
                }
                result
            }
            NodeKind::Switch => {
                let d = self.eval_expr_a(chunk, node.a, env)?;
                let switch_env = self.new_env(env);
                let ncases = node.c;
                let mut matched = ncases;
                for i in 0..ncases {
                    let test = chunk.arena.extra[(node.b + i * 3) as usize];
                    if test != NONE {
                        let t = self.eval_expr_a(chunk, test, switch_env)?;
                        if d.strict_eq(&t) {
                            matched = i;
                            break;
                        }
                    }
                }
                if matched == ncases {
                    // Fall back to default clause, if any.
                    for i in 0..ncases {
                        if chunk.arena.extra[(node.b + i * 3) as usize] == NONE {
                            matched = i;
                            break;
                        }
                    }
                }
                for i in matched..ncases {
                    let rec = (node.b + i * 3) as usize;
                    let (cs, cl) = (chunk.arena.extra[rec + 1], chunk.arena.extra[rec + 2]);
                    if let Some(cov) = &mut self.coverage {
                        if cl > 0 {
                            let first = chunk.arena.extra[cs as usize];
                            cov.hit_branch(chunk.arena.node_id(first), true);
                        }
                    }
                    for j in 0..cl {
                        let s = chunk.arena.extra[(cs + j) as usize];
                        match self.exec_stmt_a(chunk, s, switch_env) {
                            Ok(()) => {}
                            Err(Control::Break) => return Ok(()),
                            Err(other) => return Err(other),
                        }
                    }
                }
                Ok(())
            }
            _ => unreachable!("statement node expected, got {:?}", node.kind),
        }
    }

    // -- expression evaluation ------------------------------------------------

    pub(super) fn eval_expr_a(
        &mut self,
        chunk: &Arc<CompiledChunk>,
        n: u32,
        env: EnvId,
    ) -> Result<Value, Control> {
        self.charge(1)?;
        let node = chunk.arena.node(n);
        match node.kind {
            NodeKind::Number => Ok(Value::Number(chunk.arena.number(node.a))),
            NodeKind::Str => Ok(Value::str(chunk.arena.atom(node.a))),
            NodeKind::Bool => Ok(Value::Bool(node.flags != 0)),
            NodeKind::Null => Ok(Value::Null),
            NodeKind::Regex => self.new_regex(chunk.arena.atom(node.a), chunk.arena.atom(node.b)),
            NodeKind::Ident => match node.flags {
                ident_flags::UNDEFINED => Ok(Value::Undefined),
                ident_flags::NAN => Ok(Value::Number(f64::NAN)),
                ident_flags::INFINITY => Ok(Value::Number(f64::INFINITY)),
                _ => {
                    let name = chunk.arena.atom(node.a);
                    match self.lookup(env, name) {
                        Some(v) => Ok(v),
                        None => {
                            Err(self.throw(ErrorKind::Reference, format!("{name} is not defined")))
                        }
                    }
                }
            },
            NodeKind::This => Ok(self.current_this()),
            NodeKind::Paren => self.eval_expr_a(chunk, node.a, env),
            NodeKind::Array => {
                let mut elems = Vec::with_capacity(node.b as usize);
                for i in 0..node.b {
                    let slot = chunk.arena.extra[(node.a + i) as usize];
                    if slot != NONE {
                        elems.push(Some(self.eval_expr_a(chunk, slot, env)?));
                    } else {
                        elems.push(None);
                    }
                }
                Ok(self.new_array(elems))
            }
            NodeKind::Object => {
                let id = self.alloc(Obj::new(ObjKind::Plain, Some(self.protos.object)));
                for i in 0..node.b {
                    let rec = (node.a + i * 3) as usize;
                    let tag = chunk.arena.extra[rec];
                    let payload = chunk.arena.extra[rec + 1];
                    let value_n = chunk.arena.extra[rec + 2];
                    let key = match tag {
                        0 | 1 => chunk.arena.atom(payload).to_string(),
                        2 => ops::number_to_string(chunk.arena.number(payload)),
                        _ => {
                            let v = self.eval_expr_a(chunk, payload, env)?;
                            self.to_js_string(&v)?
                        }
                    };
                    let value = if value_n != NONE {
                        self.eval_expr_a(chunk, value_n, env)?
                    } else {
                        // Shorthand `{ x }` — the key is the identifier.
                        match self.lookup(env, &key) {
                            Some(v) => v,
                            None => {
                                return Err(self
                                    .throw(ErrorKind::Reference, format!("{key} is not defined")))
                            }
                        }
                    };
                    self.obj_mut(id).props.insert(&key, Prop::data(value));
                }
                Ok(Value::Obj(id))
            }
            NodeKind::Function => {
                let fv = self.make_function_a(chunk, node.a, env);
                // A named function expression binds its own name in a scope
                // that wraps the closure.
                let name_atom = chunk.arena.funcs[node.a as usize].name;
                if name_atom != NONE {
                    if let Value::Obj(fid) = &fv {
                        let wrap = self.new_env(env);
                        self.declare(wrap, chunk.arena.atom(name_atom), fv.clone());
                        if let ObjKind::Function(data) = &self.obj(*fid).kind {
                            let new_data = FuncData { env: wrap, ..FuncData::clone(data) };
                            self.obj_mut(*fid).kind = ObjKind::Function(Rc::new(new_data));
                        }
                    }
                }
                Ok(fv)
            }
            NodeKind::Arrow => Ok(self.make_arrow_a(chunk, node.a, env)),
            NodeKind::Unary => self.eval_unary_a(chunk, UNARY_OPS[node.flags as usize], n, env),
            NodeKind::Update => {
                let inc = node.flags & 1 != 0;
                let prefix = node.flags & 2 != 0;
                let old = self.eval_expr_a(chunk, node.a, env)?;
                let old_n = self.to_number(&old)?;
                let new_n = if inc { old_n + 1.0 } else { old_n - 1.0 };
                self.assign_to_a(chunk, node.a, Value::Number(new_n), env)?;
                Ok(Value::Number(if prefix { new_n } else { old_n }))
            }
            NodeKind::Binary => {
                let l = self.eval_expr_a(chunk, node.a, env)?;
                let r = self.eval_expr_a(chunk, node.b, env)?;
                self.eval_binary(BINARY_OPS[node.flags as usize], l, r)
            }
            NodeKind::Logical => {
                let l = self.eval_expr_a(chunk, node.a, env)?;
                let lb = self.to_boolean(&l);
                let short = match LOGICAL_OPS[node.flags as usize] {
                    LogicalOp::And => !lb,
                    LogicalOp::Or => lb,
                };
                if let Some(cov) = &mut self.coverage {
                    cov.hit_branch(chunk.arena.node_id(n), !short);
                }
                if short {
                    Ok(l)
                } else {
                    self.eval_expr_a(chunk, node.b, env)
                }
            }
            NodeKind::Cond => {
                let c = self.eval_expr_a(chunk, node.a, env)?;
                let taken = self.to_boolean(&c);
                if let Some(cov) = &mut self.coverage {
                    cov.hit_branch(chunk.arena.node_id(n), taken);
                }
                if taken {
                    self.eval_expr_a(chunk, node.b, env)
                } else {
                    self.eval_expr_a(chunk, node.c, env)
                }
            }
            NodeKind::Assign => {
                let op = ASSIGN_OPS[node.flags as usize];
                let new_value = if op == AssignOp::Assign {
                    self.eval_expr_a(chunk, node.b, env)?
                } else {
                    let old = self.eval_expr_a(chunk, node.a, env)?;
                    let rhs = self.eval_expr_a(chunk, node.b, env)?;
                    let bin_op = match op {
                        AssignOp::Add => BinaryOp::Add,
                        AssignOp::Sub => BinaryOp::Sub,
                        AssignOp::Mul => BinaryOp::Mul,
                        AssignOp::Div => BinaryOp::Div,
                        AssignOp::Rem => BinaryOp::Rem,
                        AssignOp::Shl => BinaryOp::Shl,
                        AssignOp::Shr => BinaryOp::Shr,
                        AssignOp::UShr => BinaryOp::UShr,
                        AssignOp::BitAnd => BinaryOp::BitAnd,
                        AssignOp::BitOr => BinaryOp::BitOr,
                        AssignOp::BitXor => BinaryOp::BitXor,
                        AssignOp::Assign => unreachable!("handled above"),
                    };
                    self.eval_binary(bin_op, old, rhs)?
                };
                self.assign_to_a(chunk, node.a, new_value.clone(), env)?;
                Ok(new_value)
            }
            NodeKind::Seq => {
                let mut last = Value::Undefined;
                for i in 0..node.b {
                    let item = chunk.arena.extra[(node.a + i) as usize];
                    last = self.eval_expr_a(chunk, item, env)?;
                }
                Ok(last)
            }
            NodeKind::Call => {
                // Method call: capture receiver.
                let callee = chunk.arena.node(node.a);
                let (func, this) = match callee.kind {
                    NodeKind::Member => {
                        let recv = self.eval_expr_a(chunk, callee.a, env)?;
                        let f = self.get_property(&recv, chunk.arena.atom(callee.b))?;
                        (f, recv)
                    }
                    NodeKind::Index => {
                        let recv = self.eval_expr_a(chunk, callee.a, env)?;
                        let k = self.eval_expr_a(chunk, callee.b, env)?;
                        let key = self.to_js_string(&k)?;
                        let f = self.get_property(&recv, &key)?;
                        (f, recv)
                    }
                    _ => {
                        let f = self.eval_expr_a(chunk, node.a, env)?;
                        (f, Value::Undefined)
                    }
                };
                let mut argv = Vec::with_capacity(node.c as usize);
                for i in 0..node.c {
                    let a = chunk.arena.extra[(node.b + i) as usize];
                    argv.push(self.eval_expr_a(chunk, a, env)?);
                }
                self.call_value(&func, this, &argv)
            }
            NodeKind::New => {
                let f = self.eval_expr_a(chunk, node.a, env)?;
                let mut argv = Vec::with_capacity(node.c as usize);
                for i in 0..node.c {
                    let a = chunk.arena.extra[(node.b + i) as usize];
                    argv.push(self.eval_expr_a(chunk, a, env)?);
                }
                self.construct(&f, &argv)
            }
            NodeKind::Member => {
                let obj = self.eval_expr_a(chunk, node.a, env)?;
                self.get_property(&obj, chunk.arena.atom(node.b))
            }
            NodeKind::Index => {
                let obj = self.eval_expr_a(chunk, node.a, env)?;
                let k = self.eval_expr_a(chunk, node.b, env)?;
                let key = self.to_js_string(&k)?;
                self.get_property(&obj, &key)
            }
            NodeKind::Template => {
                let mut out = String::new();
                for i in 0..node.b {
                    out.push_str(chunk.arena.atom(chunk.arena.extra[(node.a + i) as usize]));
                    if i < node.c {
                        let e = chunk.arena.extra[(node.a + node.b + i) as usize];
                        let v = self.eval_expr_a(chunk, e, env)?;
                        out.push_str(&self.to_js_string(&v)?);
                    }
                }
                Ok(Value::str(out))
            }
            _ => unreachable!("expression node expected, got {:?}", node.kind),
        }
    }

    fn eval_unary_a(
        &mut self,
        chunk: &Arc<CompiledChunk>,
        op: UnaryOp,
        n: u32,
        env: EnvId,
    ) -> Result<Value, Control> {
        let operand = chunk.arena.node(n).a;
        // `typeof x` on an undeclared variable must not throw.
        if op == UnaryOp::TypeOf {
            let opn = chunk.arena.node(operand);
            if opn.kind == NodeKind::Ident
                && opn.flags == ident_flags::PLAIN
                && self.lookup(env, chunk.arena.atom(opn.a)).is_none()
            {
                return Ok(Value::str("undefined"));
            }
        }
        if op == UnaryOp::Delete {
            return self.eval_delete_a(chunk, operand, env);
        }
        let v = self.eval_expr_a(chunk, operand, env)?;
        Ok(match op {
            UnaryOp::Neg => Value::Number(-self.to_number(&v)?),
            UnaryOp::Pos => Value::Number(self.to_number(&v)?),
            UnaryOp::Not => Value::Bool(!self.to_boolean(&v)),
            UnaryOp::BitNot => Value::Number(!ops::to_int32(self.to_number(&v)?) as f64),
            UnaryOp::Void => Value::Undefined,
            UnaryOp::TypeOf => Value::str(self.type_of(&v)),
            UnaryOp::Delete => unreachable!("handled above"),
        })
    }

    fn eval_delete_a(
        &mut self,
        chunk: &Arc<CompiledChunk>,
        n: u32,
        env: EnvId,
    ) -> Result<Value, Control> {
        let node = chunk.arena.node(n);
        match node.kind {
            NodeKind::Member => {
                let obj = self.eval_expr_a(chunk, node.a, env)?;
                self.delete_property(&obj, chunk.arena.atom(node.b))
            }
            NodeKind::Index => {
                let obj = self.eval_expr_a(chunk, node.a, env)?;
                let k = self.eval_expr_a(chunk, node.b, env)?;
                let key = self.to_js_string(&k)?;
                self.delete_property(&obj, &key)
            }
            _ => {
                if self.is_strict() {
                    Err(self.throw(ErrorKind::Syntax, "delete of an unqualified identifier"))
                } else {
                    Ok(Value::Bool(true))
                }
            }
        }
    }

    fn assign_to_a(
        &mut self,
        chunk: &Arc<CompiledChunk>,
        n: u32,
        value: Value,
        env: EnvId,
    ) -> Result<(), Control> {
        let node = chunk.arena.node(n);
        match node.kind {
            NodeKind::Ident => self.assign_var(env, chunk.arena.atom(node.a), value),
            NodeKind::Member => {
                let obj = self.eval_expr_a(chunk, node.a, env)?;
                self.set_property(&obj, chunk.arena.atom(node.b), value)
            }
            NodeKind::Index => {
                let obj = self.eval_expr_a(chunk, node.a, env)?;
                let k = self.eval_expr_a(chunk, node.b, env)?;
                // Array stores consult the profile hook *before* the key is
                // stringified (the QuickJS Listing-6 bug keys on `true`).
                if let Value::Obj(id) = &obj {
                    if matches!(self.obj(*id).kind, ObjKind::Array { .. })
                        && !matches!(k, Value::Number(_) | Value::Str(_))
                    {
                        let preview = self.preview(&k);
                        if self.profile.on_array_key_set(&preview)
                            == ArraySetBehavior::AppendElement
                        {
                            if let ObjKind::Array { elems } = &mut self.obj_mut(*id).kind {
                                elems.push(Some(value));
                                return Ok(());
                            }
                        }
                    }
                }
                let key = self.to_js_string(&k)?;
                self.set_property(&obj, &key, value)
            }
            NodeKind::Paren => self.assign_to_a(chunk, node.a, value, env),
            _ => Err(self.throw(ErrorKind::Reference, "invalid assignment target")),
        }
    }

    // -- function construction ------------------------------------------------

    /// Makes a closure over function proto `fidx`: it keeps an `Arc` to the
    /// chunk instead of cloning an AST.
    pub(super) fn make_function_a(
        &mut self,
        chunk: &Arc<CompiledChunk>,
        fidx: u32,
        env: EnvId,
    ) -> Value {
        let proto = chunk.arena.funcs[fidx as usize];
        let data = FuncData {
            chunk: Arc::clone(chunk),
            index: fidx,
            env,
            is_arrow: false,
            captured_this: Value::Undefined,
            strict: proto.strict || self.is_strict(),
        };
        let name = (proto.name != NONE).then(|| chunk.arena.atom(proto.name));
        self.finish_function(data, proto.params.1 as usize, name)
    }

    fn make_arrow_a(&mut self, chunk: &Arc<CompiledChunk>, fidx: u32, env: EnvId) -> Value {
        let proto = chunk.arena.funcs[fidx as usize];
        let data = FuncData {
            chunk: Arc::clone(chunk),
            index: fidx,
            env,
            is_arrow: true,
            captured_this: self.current_this(),
            strict: proto.strict || self.is_strict(),
        };
        self.finish_function(data, proto.params.1 as usize, None)
    }
}
