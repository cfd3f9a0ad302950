//! The interpreter runtime: heap, environments, calls, conversions and
//! operators, with the arena VM (`vm.rs`) as its one evaluator.
//!
//! One [`Interp`] executes one compiled test program against one
//! [`ConformanceProfile`] (engine behaviour). Execution is deterministic:
//! fuel metering replaces wall-clock time, a fixed epoch replaces the real
//! clock, and property iteration is insertion-ordered. `eval`'d source is
//! parsed, built into a chunk of its own and run on the same VM.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use comfort_syntax::ast::*;
use comfort_syntax::{parse, FnvBuildHasher, NodeArena};

use crate::chunk::CompiledChunk;
use crate::coverage::Coverage;
use crate::footprint::ApiFootprint;
use crate::hooks::{
    ArraySetBehavior, BuiltinSite, ConformanceProfile, Deviation, ValuePreview, ValueRecipe,
};
use crate::ops;
use crate::value::{EnvId, ErrorKind, FuncData, Obj, ObjId, ObjKind, Prop, Value};

// The arena VM is a child module so it can share the interpreter's private
// state (envs, scope stacks, coverage) without widening visibility.
#[path = "vm.rs"]
mod vm;

/// Non-local control flow during evaluation.
#[derive(Debug)]
pub enum Control {
    /// `throw` (or a runtime error): carries the thrown value.
    Throw(Value),
    /// `return` from the nearest function.
    Return(Value),
    /// `break` out of the nearest loop/switch.
    Break,
    /// `continue` the nearest loop.
    Continue,
    /// Fuel exhausted — the deterministic "timeout".
    OutOfFuel,
    /// Simulated engine crash (seeded memory-safety bug).
    Crash(String),
}

/// Why a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Ran to completion.
    Completed,
    /// An uncaught exception escaped.
    Threw {
        /// Error class if the value was an `Error` instance.
        kind: Option<ErrorKind>,
        /// `ToString` of the thrown value.
        message: String,
    },
    /// The fuel budget was exhausted (deterministic timeout).
    OutOfFuel,
    /// The simulated engine crashed.
    Crashed(String),
}

impl RunStatus {
    /// `true` only for [`RunStatus::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }
}

/// The evaluator that executes a program. There is one: the arena VM.
///
/// Nothing branches on this type. It stays, with [`RunOptions::backend`],
/// so that callers which set the knob keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Execute the compile-once arena encoding ([`crate::CompiledChunk`]).
    #[default]
    Bytecode,
}

/// Options for one program run — the single knob struct threaded through
/// every execution entry point (`run_chunk`, `Engine::run_compiled`,
/// `Testbed::run_compiled`, `run_differential`).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Fuel budget (abstract steps). The default suffices for all generated
    /// workloads; seeded performance bugs exhaust it.
    pub fuel: u64,
    /// Force strict mode for the whole program (the paper's second testbed
    /// per engine configuration, §4.2).
    pub strict: bool,
    /// Record statement/function/branch coverage of the test program.
    pub coverage: bool,
    /// Maximum interpreter call-stack depth before a `RangeError`
    /// ("Maximum call stack size exceeded") is raised. Bounded so deeply
    /// recursive generated programs terminate deterministically instead of
    /// exhausting the real stack.
    pub max_call_depth: u32,
    /// The evaluator; [`Backend`] has one variant and no run reads this.
    pub backend: Backend,
}

impl RunOptions {
    /// The default call-depth limit (the historical hardcoded value).
    pub const DEFAULT_MAX_CALL_DEPTH: u32 = 64;

    /// Default options with an explicit fuel budget — the most common
    /// non-default configuration.
    pub fn with_fuel(fuel: u64) -> Self {
        RunOptions { fuel, ..RunOptions::default() }
    }

    /// Starts a chainable builder over the defaults. Struct literals keep
    /// working; the builder replaces the `RunOptions { x, ..o.clone() }`
    /// clone-update pattern at call sites that derive options from options.
    ///
    /// ```
    /// use comfort_interp::RunOptions;
    ///
    /// let opts = RunOptions::builder().fuel(100_000).strict(true).build();
    /// assert_eq!(opts.fuel, 100_000);
    /// assert!(opts.strict && !opts.coverage);
    /// ```
    pub fn builder() -> RunOptionsBuilder {
        RunOptionsBuilder { options: RunOptions::default() }
    }

    /// A builder seeded from an existing value — the ergonomic form of
    /// "these options, but with …".
    pub fn to_builder(&self) -> RunOptionsBuilder {
        RunOptionsBuilder { options: self.clone() }
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            fuel: 20_000_000,
            strict: false,
            coverage: false,
            max_call_depth: RunOptions::DEFAULT_MAX_CALL_DEPTH,
            backend: Backend::default(),
        }
    }
}

/// Chainable builder for [`RunOptions`] (see [`RunOptions::builder`]).
///
/// Every combination of the five knobs is valid, so `build` is infallible.
#[derive(Debug, Clone)]
pub struct RunOptionsBuilder {
    options: RunOptions,
}

impl RunOptionsBuilder {
    /// Fuel budget (abstract steps).
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.options.fuel = fuel;
        self
    }

    /// Force strict mode.
    pub fn strict(mut self, strict: bool) -> Self {
        self.options.strict = strict;
        self
    }

    /// Record coverage of the test program.
    pub fn coverage(mut self, coverage: bool) -> Self {
        self.options.coverage = coverage;
        self
    }

    /// Maximum call-stack depth (defaults to
    /// [`RunOptions::DEFAULT_MAX_CALL_DEPTH`]).
    pub fn max_call_depth(mut self, depth: u32) -> Self {
        self.options.max_call_depth = depth;
        self
    }

    /// The evaluator (see [`RunOptions::backend`]); sets a field no run
    /// reads.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.options.backend = backend;
        self
    }

    /// Returns the finished options.
    pub fn build(self) -> RunOptions {
        self.options
    }
}

/// Result of one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Termination status.
    pub status: RunStatus,
    /// Everything the program `print`ed.
    pub output: String,
    /// Fuel actually consumed.
    pub fuel_used: u64,
    /// Coverage, when requested.
    pub coverage: Option<Coverage>,
}

/// Variable tables hash with FNV-1a: keys are short identifiers, and the
/// maps are only ever probed by key, never iterated into results.
type VarMap = HashMap<Rc<str>, Value, FnvBuildHasher>;

#[derive(Debug, Clone)]
struct Env {
    vars: VarMap,
    parent: Option<EnvId>,
}

#[derive(Clone)]
pub(crate) struct Protos {
    pub object: ObjId,
    pub function: ObjId,
    pub array: ObjId,
    pub string: ObjId,
    pub number: ObjId,
    pub boolean: ObjId,
    pub regexp: ObjId,
    pub error: HashMap<ErrorKind, ObjId>,
    pub typed_array: ObjId,
    pub array_buffer: ObjId,
    pub data_view: ObjId,
    pub date: ObjId,
}

impl Protos {
    /// Placeholder ids, overwritten by `builtins::install`.
    fn unset() -> Self {
        Protos {
            object: ObjId(0),
            function: ObjId(0),
            array: ObjId(0),
            string: ObjId(0),
            number: ObjId(0),
            boolean: ObjId(0),
            regexp: ObjId(0),
            error: HashMap::new(),
            typed_array: ObjId(0),
            array_buffer: ObjId(0),
            data_view: ObjId(0),
            date: ObjId(0),
        }
    }
}

/// The object heap of one run: a frozen snapshot shared by reference, a
/// copy-on-write overlay over it, and a per-run arena.
///
/// Ids below the snapshot's length name snapshot objects. The first
/// [`Heap::get_mut`] of such an id copies that one object into the overlay,
/// and later reads of the id see the copy; the snapshot itself is never
/// written. Allocation appends to the arena with ids starting at the
/// snapshot's length, so objects are numbered exactly as in one flat heap.
struct Heap {
    snapshot: Rc<[Obj]>,
    overlay: HashMap<u32, Obj>,
    arena: Vec<Obj>,
}

impl Heap {
    fn over(snapshot: Rc<[Obj]>) -> Self {
        Heap { snapshot, overlay: HashMap::new(), arena: Vec::new() }
    }

    fn alloc(&mut self, obj: Obj) -> ObjId {
        let id = ObjId((self.snapshot.len() + self.arena.len()) as u32);
        self.arena.push(obj);
        id
    }

    fn get(&self, id: ObjId) -> &Obj {
        let i = id.0 as usize;
        match self.snapshot.get(i) {
            // Almost no run writes a snapshot object: skip the probe then.
            Some(frozen) if self.overlay.is_empty() => frozen,
            Some(frozen) => self.overlay.get(&id.0).unwrap_or(frozen),
            None => &self.arena[i - self.snapshot.len()],
        }
    }

    fn get_mut(&mut self, id: ObjId) -> &mut Obj {
        let i = id.0 as usize;
        match self.snapshot.get(i) {
            Some(frozen) => self.overlay.entry(id.0).or_insert_with(|| frozen.clone()),
            None => &mut self.arena[i - self.snapshot.len()],
        }
    }

    /// Freezes everything allocated so far into the snapshot of later runs.
    fn freeze(self) -> Rc<[Obj]> {
        assert!(self.snapshot.is_empty(), "only a heap built from nothing is frozen");
        self.arena.into()
    }
}

/// The interpreter.
///
/// Create one per (program, engine-profile) pair with [`Interp::new`] and run
/// a compiled chunk with [`Interp::run_chunk`]. See the crate docs for an
/// example.
pub struct Interp<'p> {
    heap: Heap,
    envs: Vec<Env>,
    pub(crate) profile: &'p dyn ConformanceProfile,
    output: String,
    fuel: u64,
    fuel_budget: u64,
    strict: Vec<bool>,
    this_stack: Vec<Value>,
    pub(crate) coverage: Option<Coverage>,
    pub(crate) protos: Protos,
    global_env: EnvId,
    constructing: bool,
    call_depth: u32,
    max_call_depth: u32,
    array_fill_watermark: HashMap<ObjId, usize>,
    eval_depth: u32,
    native_self: Option<ObjId>,
    rng_state: u64,
}

/// The pristine post-`install` world: the frozen heap snapshot, the
/// environments, and the prototype table. `builtins::install` is
/// profile-independent and deterministic, so it runs once per thread. Every
/// interpreter on the thread then shares the snapshot by reference (see
/// [`Heap`]) and clones only the environment table: the global env's
/// bindings are few, and nearly every run writes them.
struct Pristine {
    heap: Rc<[Obj]>,
    envs: Vec<Env>,
    protos: Protos,
}

thread_local! {
    static PRISTINE: Pristine = {
        let global = Env { vars: VarMap::default(), parent: None };
        let mut interp = Interp::with_world(
            &crate::hooks::SpecProfile,
            Heap::over(Rc::new([])),
            vec![global],
            Protos::unset(),
        );
        crate::builtins::install(&mut interp);
        Pristine { heap: interp.heap.freeze(), envs: interp.envs, protos: interp.protos }
    };
}

impl<'p> Interp<'p> {
    /// Creates an interpreter with globals installed, running under `profile`.
    pub fn new(profile: &'p dyn ConformanceProfile) -> Self {
        PRISTINE.with(|p| {
            Interp::with_world(
                profile,
                Heap::over(Rc::clone(&p.heap)),
                p.envs.clone(),
                p.protos.clone(),
            )
        })
    }

    /// An interpreter over the given heap, environments and prototypes.
    fn with_world(
        profile: &'p dyn ConformanceProfile,
        heap: Heap,
        envs: Vec<Env>,
        protos: Protos,
    ) -> Self {
        Interp {
            heap,
            envs,
            profile,
            output: String::new(),
            fuel: 0,
            fuel_budget: 0,
            strict: vec![false],
            this_stack: vec![Value::Undefined],
            coverage: None,
            protos,
            global_env: EnvId(0),
            constructing: false,
            call_depth: 0,
            max_call_depth: RunOptions::DEFAULT_MAX_CALL_DEPTH,
            array_fill_watermark: HashMap::new(),
            eval_depth: 0,
            native_self: None,
            rng_state: 0x853c49e6748fea9b,
        }
    }

    /// Runs a compiled chunk on the arena VM — phase two of the two-phase
    /// contract.
    pub fn run_chunk(&mut self, chunk: &Arc<CompiledChunk>, options: &RunOptions) -> RunResult {
        self.fuel = options.fuel;
        self.fuel_budget = options.fuel;
        self.max_call_depth = options.max_call_depth;
        self.coverage = if options.coverage { Some(Coverage::new()) } else { None };
        self.strict.clear();
        self.strict.push(chunk.arena.strict || options.strict);
        self.output.clear();
        let outcome = self.exec_top_a(chunk);
        self.finish(outcome)
    }

    fn finish(&mut self, outcome: Result<(), Control>) -> RunResult {
        let status = match outcome {
            Ok(()) => RunStatus::Completed,
            Err(Control::Throw(v)) => {
                let (kind, message) = self.describe_thrown(&v);
                RunStatus::Threw { kind, message }
            }
            Err(Control::OutOfFuel) => RunStatus::OutOfFuel,
            Err(Control::Crash(m)) => RunStatus::Crashed(m),
            Err(Control::Return(_)) | Err(Control::Break) | Err(Control::Continue) => {
                // Top-level return/break/continue is a SyntaxError in real
                // engines; our parser admits them, so surface them as such.
                RunStatus::Threw {
                    kind: Some(ErrorKind::Syntax),
                    message: "SyntaxError: illegal statement outside of function/loop".into(),
                }
            }
        };
        RunResult {
            status,
            output: std::mem::take(&mut self.output),
            fuel_used: self.fuel_budget - self.fuel,
            coverage: self.coverage.take(),
        }
    }

    fn describe_thrown(&mut self, v: &Value) -> (Option<ErrorKind>, String) {
        if let Value::Obj(id) = v {
            let obj = self.obj(*id);
            if let ObjKind::Error { kind } = obj.kind {
                let msg = match obj.props.get("message") {
                    Some(p) => match &p.value {
                        Value::Str(s) => s.to_string(),
                        other => self.to_display_string(other),
                    },
                    None => String::new(),
                };
                return (Some(kind), format!("{}: {}", kind.name(), msg));
            }
        }
        (None, self.to_display_string(v))
    }

    // -- heap / env helpers --------------------------------------------------

    pub(crate) fn alloc(&mut self, obj: Obj) -> ObjId {
        self.heap.alloc(obj)
    }

    pub(crate) fn obj(&self, id: ObjId) -> &Obj {
        self.heap.get(id)
    }

    pub(crate) fn obj_mut(&mut self, id: ObjId) -> &mut Obj {
        self.heap.get_mut(id)
    }

    fn new_env(&mut self, parent: EnvId) -> EnvId {
        let id = EnvId(self.envs.len() as u32);
        self.envs.push(Env { vars: VarMap::default(), parent: Some(parent) });
        id
    }

    fn declare(&mut self, env: EnvId, name: &str, value: Value) {
        self.envs[env.0 as usize].vars.insert(Rc::from(name), value);
    }

    fn lookup(&self, mut env: EnvId, name: &str) -> Option<Value> {
        loop {
            let e = &self.envs[env.0 as usize];
            if let Some(v) = e.vars.get(name) {
                return Some(v.clone());
            }
            env = e.parent?;
        }
    }

    fn assign_var(&mut self, mut env: EnvId, name: &str, value: Value) -> Result<(), Control> {
        loop {
            let e = &mut self.envs[env.0 as usize];
            if let Some(slot) = e.vars.get_mut(name) {
                *slot = value;
                return Ok(());
            }
            match e.parent {
                Some(p) => env = p,
                None => break,
            }
        }
        if self.is_strict() {
            Err(self.throw(ErrorKind::Reference, format!("{name} is not defined")))
        } else {
            // Sloppy mode: implicit global.
            self.declare(self.global_env, name, value);
            Ok(())
        }
    }

    pub(crate) fn is_strict(&self) -> bool {
        *self.strict.last().expect("strict stack never empty")
    }

    fn current_this(&self) -> Value {
        self.this_stack.last().expect("this stack never empty").clone()
    }

    /// Charges `n` fuel; errors with [`Control::OutOfFuel`] when exhausted.
    pub(crate) fn charge(&mut self, n: u64) -> Result<(), Control> {
        if self.fuel < n {
            self.fuel = 0;
            Err(Control::OutOfFuel)
        } else {
            self.fuel -= n;
            Ok(())
        }
    }

    /// Appends to the program's output buffer.
    pub(crate) fn write_output(&mut self, s: &str) {
        // Bound output so runaway loops can't eat memory.
        if self.output.len() < 1 << 20 {
            self.output.push_str(s);
        }
    }

    /// Constructs an `Error` object value and returns the `Throw` control.
    pub(crate) fn throw(&mut self, kind: ErrorKind, message: impl Into<String>) -> Control {
        let message = message.into();
        let proto = self.protos.error.get(&kind).copied();
        let mut obj = Obj::new(ObjKind::Error { kind }, proto);
        obj.props.insert("message", Prop::builtin(Value::str(&message)));
        obj.props.insert("name", Prop::builtin(Value::str(kind.name())));
        let id = self.alloc(obj);
        Control::Throw(Value::Obj(id))
    }

    // -- previews / recipes ---------------------------------------------------

    pub(crate) fn preview(&self, v: &Value) -> ValuePreview {
        match v {
            Value::Undefined => ValuePreview::Undefined,
            Value::Null => ValuePreview::Null,
            Value::Bool(b) => ValuePreview::Bool(*b),
            Value::Number(n) => ValuePreview::Number(*n),
            Value::Str(s) => ValuePreview::Str(s.chars().take(64).collect()),
            Value::Obj(id) => match &self.obj(*id).kind {
                ObjKind::Array { elems } => ValuePreview::Array { len: elems.len() },
                ObjKind::Function(_) | ObjKind::Native { .. } => ValuePreview::Function,
                ObjKind::StrWrap(s) => ValuePreview::Str(s.chars().take(64).collect()),
                other => ValuePreview::Object { class: other.class_name() },
            },
        }
    }

    pub(crate) fn materialize(
        &mut self,
        recipe: &ValueRecipe,
        this: &Value,
        args: &[Value],
    ) -> Result<Value, Control> {
        Ok(match recipe {
            ValueRecipe::Undefined => Value::Undefined,
            ValueRecipe::Null => Value::Null,
            ValueRecipe::Bool(b) => Value::Bool(*b),
            ValueRecipe::Number(n) => Value::Number(*n),
            ValueRecipe::Str(s) => Value::str(s),
            ValueRecipe::Receiver => this.clone(),
            ValueRecipe::Arg(i) => args.get(*i).cloned().unwrap_or(Value::Undefined),
            ValueRecipe::ReceiverToString => {
                let s = self.to_js_string(this)?;
                Value::str(s)
            }
        })
    }

    // -- function machinery ----------------------------------------------------

    fn finish_function(&mut self, data: FuncData, arity: usize, name: Option<&str>) -> Value {
        let is_arrow = data.is_arrow;
        let proto = self.protos.function;
        let mut obj = Obj::new(ObjKind::Function(Rc::new(data)), Some(proto));
        obj.props.insert("length", Prop::frozen(Value::Number(arity as f64)));
        obj.props.insert("name", Prop::frozen(Value::str(name.unwrap_or(""))));
        let id = self.alloc(obj);
        if !is_arrow {
            // Ordinary functions get a fresh `.prototype` object.
            let proto_obj = Obj::new(ObjKind::Plain, Some(self.protos.object));
            let proto_id = self.alloc(proto_obj);
            self.obj_mut(proto_id).props.insert("constructor", Prop::builtin(Value::Obj(id)));
            self.obj_mut(id).props.insert(
                "prototype",
                Prop {
                    value: Value::Obj(proto_id),
                    writable: true,
                    enumerable: false,
                    configurable: false,
                },
            );
        }
        Value::Obj(id)
    }

    /// Calls any callable value.
    pub(crate) fn call_value(
        &mut self,
        callee: &Value,
        this: Value,
        args: &[Value],
    ) -> Result<Value, Control> {
        let Value::Obj(id) = callee else {
            let shown = self.to_display_string(callee);
            return Err(self.throw(ErrorKind::Type, format!("{shown} is not a function")));
        };
        self.charge(2)?;
        if self.call_depth >= self.max_call_depth {
            return Err(self.throw(ErrorKind::Range, "Maximum call stack size exceeded"));
        }
        enum Callee {
            Interp(Rc<FuncData>),
            Native(&'static str, crate::value::NativeFn),
        }
        let callee_kind = match &self.obj(*id).kind {
            ObjKind::Function(data) => Callee::Interp(Rc::clone(data)),
            ObjKind::Native { name, func } => Callee::Native(name, *func),
            _ => {
                let shown = self.to_display_string(callee);
                return Err(self.throw(ErrorKind::Type, format!("{shown} is not a function")));
            }
        };
        self.call_depth += 1;
        let result = match callee_kind {
            Callee::Interp(data) => self.call_interp_function(&data, this, args),
            Callee::Native(name, func) => {
                let saved = self.native_self.replace(*id);
                let r = self.call_native(name, func, this, args);
                self.native_self = saved;
                r
            }
        };
        self.call_depth -= 1;
        result
    }

    fn call_interp_function(
        &mut self,
        data: &FuncData,
        this: Value,
        args: &[Value],
    ) -> Result<Value, Control> {
        let env = self.new_env(data.env);
        let chunk = &data.chunk;
        let proto = chunk.arena.funcs[data.index as usize];
        for (i, &p) in chunk.arena.slice(proto.params).iter().enumerate() {
            let v = args.get(i).cloned().unwrap_or(Value::Undefined);
            self.declare(env, chunk.arena.atom(p), v);
        }
        // `arguments` object (array-backed simplification).
        if !data.is_arrow {
            let args_arr = self.new_array(args.iter().cloned().map(Some).collect());
            self.declare(env, "arguments", args_arr);
        }
        let effective_this = if data.is_arrow { data.captured_this.clone() } else { this };
        self.this_stack.push(effective_this);
        self.strict.push(data.strict);
        if let Some(cov) = &mut self.coverage {
            cov.hit_func(NodeId(proto.id));
        }
        let outcome = if proto.expr_body != comfort_syntax::arena::NONE {
            self.eval_expr_a(chunk, proto.expr_body, env)
        } else {
            self.hoist_a(chunk, proto.hoist_vars, proto.hoist_funcs, env);
            match self.exec_list_a(chunk, proto.body, env) {
                Ok(()) => Ok(Value::Undefined),
                Err(Control::Return(v)) => Ok(v),
                Err(other) => Err(other),
            }
        };
        self.strict.pop();
        self.this_stack.pop();
        outcome
    }

    /// Invokes a builtin, consulting the engine profile first (§hooks).
    fn call_native(
        &mut self,
        name: &'static str,
        func: crate::value::NativeFn,
        this: Value,
        args: &[Value],
    ) -> Result<Value, Control> {
        let site = BuiltinSite {
            api: name,
            receiver: self.preview(&this),
            args: args.iter().map(|a| self.preview(a)).collect(),
            strict: self.is_strict(),
        };
        let profile = self.profile;
        match profile.on_builtin(&site) {
            Deviation::None => func(self, this, args),
            Deviation::ReturnValue(recipe) => self.materialize(recipe, &this, args),
            Deviation::ThrowError(kind, msg) => Err(self.throw(kind, msg)),
            Deviation::SuppressThrow(recipe) => match func(self, this.clone(), args) {
                Err(Control::Throw(_)) => self.materialize(recipe, &this, args),
                other => other,
            },
            Deviation::Crash(msg) => Err(Control::Crash(msg)),
            Deviation::Slowdown(extra) => {
                self.charge(extra)?;
                func(self, this, args)
            }
        }
    }

    /// `new callee(args…)`.
    pub(crate) fn construct(&mut self, callee: &Value, args: &[Value]) -> Result<Value, Control> {
        let Value::Obj(id) = callee else {
            let shown = self.to_display_string(callee);
            return Err(self.throw(ErrorKind::Type, format!("{shown} is not a constructor")));
        };
        match &self.obj(*id).kind {
            ObjKind::Native { .. } => {
                self.constructing = true;
                let r = self.call_value(callee, Value::Undefined, args);
                self.constructing = false;
                r
            }
            ObjKind::Function(data) => {
                if data.is_arrow {
                    return Err(self.throw(ErrorKind::Type, "arrow functions are not constructors"));
                }
                let proto = match self.obj(*id).props.get("prototype").map(|p| p.value.clone()) {
                    Some(Value::Obj(p)) => Some(p),
                    _ => Some(self.protos.object),
                };
                let this_id = self.alloc(Obj::new(ObjKind::Plain, proto));
                let result = self.call_value(callee, Value::Obj(this_id), args)?;
                Ok(match result {
                    Value::Obj(_) => result,
                    _ => Value::Obj(this_id),
                })
            }
            _ => {
                let shown = self.to_display_string(callee);
                Err(self.throw(ErrorKind::Type, format!("{shown} is not a constructor")))
            }
        }
    }

    /// `true` while a native constructor invocation is in flight.
    pub(crate) fn is_constructing(&self) -> bool {
        self.constructing
    }

    /// Binds a name in the global environment (builtin installation).
    pub(crate) fn define_global(&mut self, name: &str, value: Value) {
        self.declare(self.global_env, name, value);
    }

    /// The object id of the native function currently executing, if any
    /// (used by the `Function.prototype.bind` trampoline).
    pub(crate) fn current_native_self(&self) -> Option<ObjId> {
        self.native_self
    }

    /// Profile hook passthrough for `String.prototype.split` (Listing 8).
    pub(crate) fn split_anchor_broken(&self) -> bool {
        self.profile.split_anchor_broken()
    }

    /// Deterministic `Math.random`: a 64-bit LCG with a fixed seed, identical
    /// across all simulated engines so it never causes differential noise.
    pub(crate) fn next_random(&mut self) -> f64 {
        self.rng_state =
            self.rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.rng_state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    // -- `delete` and `typeof` -----------------------------------------------------

    fn delete_property(&mut self, obj: &Value, key: &str) -> Result<Value, Control> {
        let Value::Obj(id) = obj else { return Ok(Value::Bool(true)) };
        if let ObjKind::Array { elems } = &mut self.obj_mut(*id).kind {
            if let Some(idx) = ops::array_index(key) {
                if idx < elems.len() {
                    elems[idx] = None;
                }
                return Ok(Value::Bool(true));
            }
        }
        let o = self.obj_mut(*id);
        if let Some(p) = o.props.get(key) {
            if !p.configurable {
                return if self.is_strict() {
                    Err(self.throw(ErrorKind::Type, format!("Cannot delete property '{key}'")))
                } else {
                    Ok(Value::Bool(false))
                };
            }
        }
        // `delete` evaluates to true whether or not the property existed.
        self.obj_mut(*id).props.remove(key);
        Ok(Value::Bool(true))
    }

    /// `typeof`.
    pub(crate) fn type_of(&self, v: &Value) -> &'static str {
        match v {
            Value::Undefined => "undefined",
            Value::Null => "object",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::Str(_) => "string",
            Value::Obj(id) => match self.obj(*id).kind {
                ObjKind::Function(_) | ObjKind::Native { .. } => "function",
                _ => "object",
            },
        }
    }

    // -- property access ----------------------------------------------------------

    /// `GetV(value, key)` with primitive wrapping.
    pub(crate) fn get_property(&mut self, base: &Value, key: &str) -> Result<Value, Control> {
        self.charge(1)?;
        match base {
            Value::Undefined | Value::Null => {
                let shown = self.to_display_string(base);
                Err(self.throw(
                    ErrorKind::Type,
                    format!("Cannot read properties of {shown} (reading '{key}')"),
                ))
            }
            Value::Str(s) => {
                if key == "length" {
                    return Ok(Value::Number(s.chars().count() as f64));
                }
                if let Some(idx) = ops::array_index(key) {
                    return Ok(match s.chars().nth(idx) {
                        Some(c) => Value::str(c.to_string()),
                        None => Value::Undefined,
                    });
                }
                self.proto_lookup(self.protos.string, key)
            }
            Value::Number(_) => self.proto_lookup(self.protos.number, key),
            Value::Bool(_) => self.proto_lookup(self.protos.boolean, key),
            Value::Obj(id) => self.get_object_property(*id, key),
        }
    }

    fn proto_lookup(&mut self, proto: ObjId, key: &str) -> Result<Value, Control> {
        let mut cur = Some(proto);
        while let Some(id) = cur {
            if let Some(p) = self.obj(id).props.get(key) {
                return Ok(p.value.clone());
            }
            cur = self.obj(id).proto;
        }
        Ok(Value::Undefined)
    }

    fn get_object_property(&mut self, id: ObjId, key: &str) -> Result<Value, Control> {
        // Exotic own properties first.
        match &self.obj(id).kind {
            ObjKind::Array { elems } => {
                if key == "length" {
                    return Ok(Value::Number(elems.len() as f64));
                }
                if let Some(idx) = ops::array_index(key) {
                    return Ok(elems.get(idx).cloned().flatten().unwrap_or(Value::Undefined));
                }
            }
            ObjKind::TypedArray { kind, buf, offset, len } => {
                if key == "length" {
                    return Ok(Value::Number(*len as f64));
                }
                if key == "byteLength" {
                    return Ok(Value::Number((*len * kind.size()) as f64));
                }
                if key == "byteOffset" {
                    return Ok(Value::Number(*offset as f64));
                }
                if let Some(idx) = ops::array_index(key) {
                    if idx < *len {
                        let kind = *kind;
                        let offset = *offset;
                        let buf = Rc::clone(buf);
                        return Ok(Value::Number(crate::builtins::typed_load(
                            &buf.borrow(),
                            kind,
                            offset + idx * kind.size(),
                        )));
                    }
                    return Ok(Value::Undefined);
                }
            }
            ObjKind::StrWrap(s) => {
                if key == "length" {
                    return Ok(Value::Number(s.chars().count() as f64));
                }
                if let Some(idx) = ops::array_index(key) {
                    return Ok(match s.chars().nth(idx) {
                        Some(c) => Value::str(c.to_string()),
                        None => Value::Undefined,
                    });
                }
            }
            ObjKind::ArrayBuffer { data } if key == "byteLength" => {
                return Ok(Value::Number(data.borrow().len() as f64));
            }
            ObjKind::DataView { len, offset, .. } => {
                if key == "byteLength" {
                    return Ok(Value::Number(*len as f64));
                }
                if key == "byteOffset" {
                    return Ok(Value::Number(*offset as f64));
                }
            }
            ObjKind::Regex { source, flags } => match key {
                "source" => return Ok(Value::str(source.clone())),
                "flags" => return Ok(Value::str(flags.clone())),
                "global" => return Ok(Value::Bool(flags.contains('g'))),
                "ignoreCase" => return Ok(Value::Bool(flags.contains('i'))),
                "multiline" => return Ok(Value::Bool(flags.contains('m'))),
                _ => {}
            },
            _ => {}
        }
        // Ordinary own props, then the prototype chain.
        let mut cur = Some(id);
        while let Some(oid) = cur {
            if let Some(p) = self.obj(oid).props.get(key) {
                return Ok(p.value.clone());
            }
            cur = self.obj(oid).proto;
        }
        Ok(Value::Undefined)
    }

    /// `Set(value, key, v)` with array/typed-array handling.
    pub(crate) fn set_property(
        &mut self,
        base: &Value,
        key: &str,
        value: Value,
    ) -> Result<(), Control> {
        self.charge(1)?;
        let Value::Obj(id) = base else {
            return match base {
                Value::Undefined | Value::Null => {
                    let shown = self.to_display_string(base);
                    Err(self.throw(
                        ErrorKind::Type,
                        format!("Cannot set properties of {shown} (setting '{key}')"),
                    ))
                }
                // Setting on primitives is silently ignored (sloppy) or a
                // TypeError (strict).
                _ if self.is_strict() => Err(self.throw(
                    ErrorKind::Type,
                    format!("Cannot create property '{key}' on primitive"),
                )),
                _ => Ok(()),
            };
        };
        let id = *id;
        enum Special {
            ArrayLength,
            ArrayIndex(usize),
            TypedIndex {
                kind: crate::value::TaKind,
                buf: crate::value::BufferData,
                offset: usize,
                len: usize,
                idx: usize,
            },
        }
        let special = match &self.obj(id).kind {
            ObjKind::Array { .. } if key == "length" => Some(Special::ArrayLength),
            ObjKind::Array { .. } => ops::array_index(key).map(Special::ArrayIndex),
            ObjKind::TypedArray { kind, buf, offset, len } => {
                ops::array_index(key).map(|idx| Special::TypedIndex {
                    kind: *kind,
                    buf: Rc::clone(buf),
                    offset: *offset,
                    len: *len,
                    idx,
                })
            }
            _ => None,
        };
        match special {
            Some(Special::ArrayLength) => {
                let n = self.to_number(&value)?;
                if n.is_nan() || n.fract() != 0.0 || n < 0.0 || n > u32::MAX as f64 {
                    return Err(self.throw(ErrorKind::Range, "Invalid array length"));
                }
                let new_len = ops::to_uint32(n) as usize;
                if let ObjKind::Array { elems } = &mut self.obj_mut(id).kind {
                    elems.resize(new_len, None);
                }
                return Ok(());
            }
            Some(Special::ArrayIndex(idx)) => {
                let penalty = self.profile.array_reverse_fill_penalty();
                let cur_len;
                if let ObjKind::Array { elems } = &mut self.obj_mut(id).kind {
                    cur_len = elems.len();
                    if idx >= cur_len {
                        elems.resize(idx + 1, None);
                    }
                    elems[idx] = Some(value);
                } else {
                    unreachable!("probed as array above");
                }
                // Hermes-style reverse-fill penalty (Listing 2).
                if penalty > 0 {
                    let wm = self.array_fill_watermark.entry(id).or_insert(usize::MAX);
                    if idx < *wm && cur_len > idx {
                        let moved = (cur_len - idx) as u64;
                        *wm = idx;
                        self.charge(moved * penalty / 64 + 1)?;
                    } else {
                        *wm = (*wm).min(idx);
                    }
                }
                return Ok(());
            }
            Some(Special::TypedIndex { kind, buf, offset, len, idx }) => {
                if idx < len {
                    let n = self.to_number(&value)?;
                    crate::builtins::typed_store(
                        &mut buf.borrow_mut(),
                        kind,
                        offset + idx * kind.size(),
                        n,
                    );
                }
                return Ok(());
            }
            None => {}
        }
        // Ordinary property write with writable / extensible checks.
        let strict = self.is_strict();
        let obj = self.obj_mut(id);
        if let Some(p) = obj.props.get_mut(key) {
            if p.writable {
                p.value = value;
                Ok(())
            } else if strict {
                Err(self
                    .throw(ErrorKind::Type, format!("Cannot assign to read only property '{key}'")))
            } else {
                Ok(())
            }
        } else if obj.extensible {
            obj.props.insert(key, Prop::data(value));
            Ok(())
        } else if strict {
            Err(self.throw(
                ErrorKind::Type,
                format!("Cannot add property {key}, object is not extensible"),
            ))
        } else {
            Ok(())
        }
    }

    /// Own enumerable keys for `for-in` / `Object.keys`.
    pub(crate) fn enumerate_keys(&mut self, v: &Value) -> Result<Vec<String>, Control> {
        Ok(match v {
            Value::Obj(id) => {
                let mut keys = Vec::new();
                match &self.obj(*id).kind {
                    ObjKind::Array { elems } => {
                        for (i, e) in elems.iter().enumerate() {
                            if e.is_some() {
                                keys.push(i.to_string());
                            }
                        }
                    }
                    ObjKind::TypedArray { len, .. } => {
                        keys.extend((0..*len).map(|i| i.to_string()));
                    }
                    ObjKind::StrWrap(s) => {
                        keys.extend((0..s.chars().count()).map(|i| i.to_string()));
                    }
                    _ => {}
                }
                keys.extend(
                    self.obj(*id)
                        .props
                        .iter()
                        .filter(|(_, p)| p.enumerable)
                        .map(|(k, _)| k.to_string()),
                );
                keys
            }
            Value::Str(s) => (0..s.chars().count()).map(|i| i.to_string()).collect(),
            _ => Vec::new(),
        })
    }

    /// Values for `for-of`.
    fn iterate_values(&mut self, v: &Value) -> Result<Vec<Value>, Control> {
        match v {
            Value::Str(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
            Value::Obj(id) => match &self.obj(*id).kind {
                ObjKind::Array { elems } => {
                    Ok(elems.iter().map(|e| e.clone().unwrap_or(Value::Undefined)).collect())
                }
                ObjKind::TypedArray { kind, buf, offset, len } => {
                    let (kind, offset, len) = (*kind, *offset, *len);
                    let buf = Rc::clone(buf);
                    let b = buf.borrow();
                    Ok((0..len)
                        .map(|i| {
                            Value::Number(crate::builtins::typed_load(
                                &b,
                                kind,
                                offset + i * kind.size(),
                            ))
                        })
                        .collect())
                }
                ObjKind::StrWrap(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
                _ => {
                    let shown = self.to_display_string(v);
                    Err(self.throw(ErrorKind::Type, format!("{shown} is not iterable")))
                }
            },
            _ => {
                let shown = self.to_display_string(v);
                Err(self.throw(ErrorKind::Type, format!("{shown} is not iterable")))
            }
        }
    }

    // -- conversions -------------------------------------------------------------

    /// `ToBoolean`.
    pub(crate) fn to_boolean(&self, v: &Value) -> bool {
        ops::to_boolean_prim(v)
    }

    /// `ToPrimitive` with a hint.
    #[allow(clippy::wrong_self_convention)] // conversions can re-enter JS
    pub(crate) fn to_primitive(&mut self, v: &Value, hint_string: bool) -> Result<Value, Control> {
        let Value::Obj(id) = v else { return Ok(v.clone()) };
        // Boxed primitives unwrap directly.
        match &self.obj(*id).kind {
            ObjKind::BoolWrap(b) => return Ok(Value::Bool(*b)),
            ObjKind::NumWrap(n) => return Ok(Value::Number(*n)),
            ObjKind::StrWrap(s) => return Ok(Value::Str(Rc::clone(s))),
            _ => {}
        }
        let order: [&str; 2] =
            if hint_string { ["toString", "valueOf"] } else { ["valueOf", "toString"] };
        for method in order {
            let m = self.get_property(v, method)?;
            if matches!(&m, Value::Obj(mid) if matches!(self.obj(*mid).kind, ObjKind::Function(_) | ObjKind::Native { .. }))
            {
                let r = self.call_value(&m, v.clone(), &[])?;
                if !matches!(r, Value::Obj(_)) {
                    return Ok(r);
                }
            }
        }
        Err(self.throw(ErrorKind::Type, "Cannot convert object to primitive value"))
    }

    /// `ToNumber`.
    #[allow(clippy::wrong_self_convention)] // conversions can re-enter JS
    pub(crate) fn to_number(&mut self, v: &Value) -> Result<f64, Control> {
        Ok(match v {
            Value::Undefined => f64::NAN,
            Value::Null => 0.0,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Number(n) => *n,
            Value::Str(s) => ops::string_to_number(s),
            Value::Obj(_) => {
                let p = self.to_primitive(v, false)?;
                self.to_number(&p)?
            }
        })
    }

    /// `ToString`.
    #[allow(clippy::wrong_self_convention)] // conversions can re-enter JS
    pub(crate) fn to_js_string(&mut self, v: &Value) -> Result<String, Control> {
        Ok(match v {
            Value::Undefined => "undefined".to_string(),
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => ops::number_to_string(*n),
            Value::Str(s) => s.to_string(),
            Value::Obj(_) => {
                let p = self.to_primitive(v, true)?;
                if matches!(p, Value::Obj(_)) {
                    "[object Object]".to_string()
                } else {
                    self.to_js_string(&p)?
                }
            }
        })
    }

    /// Display conversion used by `print` and error messages. Unlike
    /// `ToString` this never throws and never re-enters JS.
    pub(crate) fn to_display_string(&self, v: &Value) -> String {
        self.display_depth(v, 0)
    }

    fn display_depth(&self, v: &Value, depth: usize) -> String {
        match v {
            Value::Undefined => "undefined".into(),
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => ops::number_to_string(*n),
            Value::Str(s) => s.to_string(),
            Value::Obj(id) => {
                if depth > 4 {
                    return "...".into();
                }
                match &self.obj(*id).kind {
                    ObjKind::Array { elems } => elems
                        .iter()
                        .map(|e| match e {
                            Some(Value::Undefined) | None => String::new(),
                            Some(Value::Null) => String::new(),
                            Some(v) => self.display_depth(v, depth + 1),
                        })
                        .collect::<Vec<_>>()
                        .join(","),
                    ObjKind::TypedArray { kind, buf, offset, len } => (0..*len)
                        .map(|i| {
                            ops::number_to_string(crate::builtins::typed_load(
                                &buf.borrow(),
                                *kind,
                                offset + i * kind.size(),
                            ))
                        })
                        .collect::<Vec<_>>()
                        .join(","),
                    ObjKind::Function(data) => {
                        let name = data.name().unwrap_or_default();
                        format!("function {name}() {{ ... }}")
                    }
                    ObjKind::Native { name, .. } => {
                        format!("function {name}() {{ [native code] }}")
                    }
                    ObjKind::Error { kind } => {
                        let msg = self
                            .obj(*id)
                            .props
                            .get("message")
                            .map(|p| self.display_depth(&p.value, depth + 1))
                            .unwrap_or_default();
                        if msg.is_empty() {
                            kind.name().to_string()
                        } else {
                            format!("{}: {msg}", kind.name())
                        }
                    }
                    ObjKind::Regex { source, flags } => format!("/{source}/{flags}"),
                    ObjKind::StrWrap(s) => s.to_string(),
                    ObjKind::NumWrap(n) => ops::number_to_string(*n),
                    ObjKind::BoolWrap(b) => b.to_string(),
                    ObjKind::Date { ms } => format!("[Date {ms}]"),
                    _ => "[object Object]".into(),
                }
            }
        }
    }

    // -- operators ---------------------------------------------------------------

    fn eval_binary(&mut self, op: BinaryOp, l: Value, r: Value) -> Result<Value, Control> {
        use BinaryOp::*;
        Ok(match op {
            Add => {
                let lp = self.to_primitive(&l, false)?;
                let rp = self.to_primitive(&r, false)?;
                if matches!(lp, Value::Str(_)) || matches!(rp, Value::Str(_)) {
                    let mut s = self.to_js_string(&lp)?;
                    s.push_str(&self.to_js_string(&rp)?);
                    Value::str(s)
                } else {
                    Value::Number(self.to_number(&lp)? + self.to_number(&rp)?)
                }
            }
            Sub => Value::Number(self.to_number(&l)? - self.to_number(&r)?),
            Mul => Value::Number(self.to_number(&l)? * self.to_number(&r)?),
            Div => Value::Number(self.to_number(&l)? / self.to_number(&r)?),
            Rem => {
                let a = self.to_number(&l)?;
                let b = self.to_number(&r)?;
                Value::Number(a % b)
            }
            Pow => Value::Number(self.to_number(&l)?.powf(self.to_number(&r)?)),
            Shl => Value::Number(
                (ops::to_int32(self.to_number(&l)?) << (ops::to_uint32(self.to_number(&r)?) & 31))
                    as f64,
            ),
            Shr => Value::Number(
                (ops::to_int32(self.to_number(&l)?) >> (ops::to_uint32(self.to_number(&r)?) & 31))
                    as f64,
            ),
            UShr => Value::Number(
                (ops::to_uint32(self.to_number(&l)?) >> (ops::to_uint32(self.to_number(&r)?) & 31))
                    as f64,
            ),
            BitAnd => Value::Number(
                (ops::to_int32(self.to_number(&l)?) & ops::to_int32(self.to_number(&r)?)) as f64,
            ),
            BitOr => Value::Number(
                (ops::to_int32(self.to_number(&l)?) | ops::to_int32(self.to_number(&r)?)) as f64,
            ),
            BitXor => Value::Number(
                (ops::to_int32(self.to_number(&l)?) ^ ops::to_int32(self.to_number(&r)?)) as f64,
            ),
            StrictEq => Value::Bool(l.strict_eq(&r)),
            StrictNotEq => Value::Bool(!l.strict_eq(&r)),
            Eq => Value::Bool(self.loose_eq(&l, &r)?),
            NotEq => Value::Bool(!self.loose_eq(&l, &r)?),
            Lt | LtEq | Gt | GtEq => {
                let lp = self.to_primitive(&l, false)?;
                let rp = self.to_primitive(&r, false)?;
                let res = if let (Value::Str(a), Value::Str(b)) = (&lp, &rp) {
                    match a.cmp(b) {
                        std::cmp::Ordering::Less => ops::Ordering3::Less,
                        std::cmp::Ordering::Equal => ops::Ordering3::Equal,
                        std::cmp::Ordering::Greater => ops::Ordering3::Greater,
                    }
                } else {
                    ops::compare_numbers(self.to_number(&lp)?, self.to_number(&rp)?)
                };
                use ops::Ordering3::*;
                Value::Bool(match (op, res) {
                    (_, Undefined) => false,
                    (Lt, Less) => true,
                    (LtEq, Less) | (LtEq, Equal) => true,
                    (Gt, Greater) => true,
                    (GtEq, Greater) | (GtEq, Equal) => true,
                    _ => false,
                })
            }
            In => {
                let Value::Obj(id) = &r else {
                    return Err(self.throw(
                        ErrorKind::Type,
                        "Cannot use 'in' operator to search in non-object",
                    ));
                };
                let key = self.to_js_string(&l)?;
                let mut found = match &self.obj(*id).kind {
                    ObjKind::Array { elems } => {
                        key == "length"
                            || ops::array_index(&key)
                                .is_some_and(|i| elems.get(i).cloned().flatten().is_some())
                    }
                    ObjKind::TypedArray { len, .. } => {
                        key == "length" || ops::array_index(&key).is_some_and(|i| i < *len)
                    }
                    _ => false,
                };
                let mut cur = Some(*id);
                while !found {
                    let Some(oid) = cur else { break };
                    found = self.obj(oid).props.contains(&key);
                    cur = self.obj(oid).proto;
                }
                Value::Bool(found)
            }
            InstanceOf => {
                let Value::Obj(fid) = &r else {
                    return Err(self.throw(
                        ErrorKind::Type,
                        "Right-hand side of 'instanceof' is not callable",
                    ));
                };
                if !matches!(self.obj(*fid).kind, ObjKind::Function(_) | ObjKind::Native { .. }) {
                    return Err(self.throw(
                        ErrorKind::Type,
                        "Right-hand side of 'instanceof' is not callable",
                    ));
                }
                let proto = match self.obj(*fid).props.get("prototype").map(|p| p.value.clone()) {
                    Some(Value::Obj(p)) => p,
                    _ => return Ok(Value::Bool(false)),
                };
                let mut cur = match &l {
                    Value::Obj(id) => self.obj(*id).proto,
                    _ => None,
                };
                let mut found = false;
                while let Some(c) = cur {
                    if c == proto {
                        found = true;
                        break;
                    }
                    cur = self.obj(c).proto;
                }
                Value::Bool(found)
            }
        })
    }

    /// Abstract equality (`==`, §7.2.14).
    fn loose_eq(&mut self, l: &Value, r: &Value) -> Result<bool, Control> {
        use Value::*;
        Ok(match (l, r) {
            (Undefined, Undefined) | (Null, Null) | (Undefined, Null) | (Null, Undefined) => true,
            (Number(a), Number(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Obj(a), Obj(b)) => a == b,
            (Number(a), Str(b)) => *a == ops::string_to_number(b),
            (Str(a), Number(b)) => ops::string_to_number(a) == *b,
            (Bool(_), _) => {
                let n = self.to_number(l)?;
                self.loose_eq(&Number(n), r)?
            }
            (_, Bool(_)) => {
                let n = self.to_number(r)?;
                self.loose_eq(l, &Number(n))?
            }
            (Obj(_), Number(_)) | (Obj(_), Str(_)) => {
                let p = self.to_primitive(l, false)?;
                if matches!(p, Obj(_)) {
                    false
                } else {
                    self.loose_eq(&p, r)?
                }
            }
            (Number(_), Obj(_)) | (Str(_), Obj(_)) => {
                let p = self.to_primitive(r, false)?;
                if matches!(p, Obj(_)) {
                    false
                } else {
                    self.loose_eq(l, &p)?
                }
            }
            _ => false,
        })
    }

    // -- object construction helpers ------------------------------------------------

    /// Allocates a JS array from element slots.
    pub(crate) fn new_array(&mut self, elems: Vec<Option<Value>>) -> Value {
        let proto = self.protos.array;
        Value::Obj(self.alloc(Obj::new(ObjKind::Array { elems }, Some(proto))))
    }

    /// Allocates a `RegExp` object, validating the pattern.
    pub(crate) fn new_regex(&mut self, pattern: &str, flags: &str) -> Result<Value, Control> {
        if comfort_regex::Flags::parse(flags).is_err() {
            return Err(self.throw(
                ErrorKind::Syntax,
                format!("Invalid flags supplied to RegExp constructor '{flags}'"),
            ));
        }
        if comfort_regex::Regex::new(pattern).is_err() {
            return Err(
                self.throw(ErrorKind::Syntax, format!("Invalid regular expression: /{pattern}/"))
            );
        }
        let proto = self.protos.regexp;
        let mut obj = Obj::new(
            ObjKind::Regex { source: pattern.to_string(), flags: flags.to_string() },
            Some(proto),
        );
        obj.props.insert(
            "lastIndex",
            Prop {
                value: Value::Number(0.0),
                writable: true,
                enumerable: false,
                configurable: false,
            },
        );
        Ok(Value::Obj(self.alloc(obj)))
    }

    /// Runs `src` as `eval` code in the global scope (indirect-eval
    /// semantics); applies the ChakraCore Listing-7 leniency hook.
    pub(crate) fn eval_source(&mut self, src: &str) -> Result<Value, Control> {
        if self.eval_depth >= 8 {
            return Err(self.throw(ErrorKind::Range, "too much recursive eval"));
        }
        let program = match parse(src) {
            Ok(p) => p,
            Err(err) => {
                if self.profile.eval_tolerates_headless_for() {
                    // The seeded bug: a `for(…)` head with a missing body is
                    // silently accepted (parsed with an empty body).
                    if let Ok(p) = parse(&format!("{src};")) {
                        p
                    } else {
                        return Err(self.throw(ErrorKind::Syntax, err.message().to_string()));
                    }
                } else {
                    return Err(self.throw(ErrorKind::Syntax, err.message().to_string()));
                }
            }
        };
        // Built without `compile`: nothing reads an eval chunk's footprint,
        // so the conservative one stands in for the extraction walk.
        let chunk = Arc::new(CompiledChunk {
            arena: NodeArena::build(&program),
            footprint: ApiFootprint::poisoned_all(),
        });
        self.eval_depth += 1;
        // Indirect-eval semantics: declarations land in the global scope, and
        // the caller's strictness stays in force.
        let result = self.exec_top_a(&chunk);
        self.eval_depth -= 1;
        result.map(|()| Value::Undefined)
    }
}
