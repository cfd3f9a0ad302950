//! Conservative API-footprint extraction (compile-time, per chunk).
//!
//! The differential harness runs one case on many testbeds whose only
//! behavioural differences are API-keyed seeded bugs. A testbed whose bug
//! set cannot intersect the set of builtin APIs a program can reach is
//! provably bit-identical to the clean reference, so the execution layer
//! can collapse such testbeds into equivalence classes and run one
//! representative per class. [`ApiFootprint`] is the static over-
//! approximation that makes the "cannot intersect" proof: the set of
//! builtin-API *atoms* (terminal name segments) a chunk might invoke, plus
//! poison bits for anything the analysis cannot bound.
//!
//! [`extract_footprint`] is the one extractor. It walks the chunk's arena,
//! not the AST, and `compile` calls it once per chunk. A mentioned atom is
//! a clone of the arena's interned `Arc<str>`; the names the analysis adds
//! itself ([`IMPLICIT_COERCION_APIS`] and the aliases below) are
//! `&'static str`. So a walk makes two allocations, its per-atom marks and
//! the sorted atom list, and copies no string.
//!
//! # Soundness rules
//!
//! The footprint must **over**-approximate reachability; missing a reachable
//! API would silently change voting results. The collector therefore:
//!
//! * records every identifier reference (`parseInt`, `eval`, local
//!   variables — over-approximating is harmless) and every static member
//!   property name (`s.substr` → `substr`, reads included, because a read
//!   can move a builtin into a variable that is called later);
//! * records string-literal index keys (`Math["max"]` → `max`) and treats
//!   any *other* computed index read as full poison — a dynamic key can
//!   fetch any builtin (`Math[k]`, `this[k]`);
//! * always includes the **full API names** implicit `ToPrimitive` can
//!   dispatch with no source mention (`Object.prototype.toString`,
//!   `Date.prototype.valueOf`, …). The interpreter's `to_primitive`
//!   unwraps boxed primitives (`NumWrap`/`BoolWrap`/`StrWrap`) directly,
//!   so wrapper-prototype natives like `Number.prototype.toString` or
//!   `Boolean.prototype.valueOf` can *only* fire from an explicit source
//!   mention — which the collector records anyway. The one exception:
//!   prototype objects themselves are plain objects exposing those
//!   natives as own properties (`Number.prototype + 1` fires
//!   `Number.prototype.valueOf`), so a mention of `prototype` or
//!   `getPrototypeOf` falls back to the coarse terminal atoms;
//! * poisons on any mention of `eval` (evaluated source is invisible to
//!   static analysis) or `constructor` (every prototype exposes its
//!   constructor under a name unrelated to the constructor's own API name);
//! * aliases `defineProperties` to `defineProperty` (the former delegates
//!   to the latter builtin internally);
//! * tracks *indexed stores* (`a[k] = v`, `a[k] += v`, `a[k]++`) as a
//!   dedicated bit: the array-element conformance hooks (bool-key append,
//!   reverse-fill fuel penalty) fire on that path without any API call.
//!   `Object.assign` can also store into array indices, so a mention of
//!   `assign` sets the bit too.
//!
//! Poisoned chunks report every query as "maybe reachable", which makes the
//! classing layer fall back to the full testbed matrix.

use std::sync::Arc;

use comfort_syntax::arena::{NodeKind, NONE};
use comfort_syntax::NodeArena;

/// One footprint atom: a name the source mentions, shared with the chunk
/// arena's interned atom table, or a name the analysis adds on its own
/// (the implicit-coercion APIs and the aliases below). Atoms are equal
/// when their text is.
#[derive(Debug, Clone)]
enum Atom {
    Mentioned(Arc<str>),
    Implied(&'static str),
}

impl Atom {
    fn as_str(&self) -> &str {
        match self {
            Atom::Mentioned(s) => s,
            Atom::Implied(s) => s,
        }
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Atom) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Atom {}

/// The set of builtin-API atoms a program can reach, with poison bits for
/// everything static analysis cannot bound. Extracted once per
/// [`crate::CompiledChunk`] by [`extract_footprint`] (part of `compile`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiFootprint {
    /// Mentioned name atoms (identifier references, member property names,
    /// string-literal index keys) plus the implicit-coercion atoms: sorted
    /// by text, without duplicates.
    atoms: Vec<Atom>,
    /// `true` when the program can store through a computed index (or call
    /// `Object.assign`), reaching the array-element conformance hooks.
    index_store: bool,
    /// `true` when analysis gave up (dynamic property access, `eval`,
    /// `constructor`): every query answers "maybe".
    poisoned: bool,
    /// `true` when some builtin call site may execute in strict mode even
    /// on a non-strict testbed: the program (or any function in it) has a
    /// `"use strict"` prologue.
    strict_sites: bool,
}

impl ApiFootprint {
    /// A footprint built from explicit parts (tests and property-based
    /// harnesses; real footprints come from [`extract_footprint`]).
    pub fn from_parts<I, S>(atoms: I, index_store: bool, poisoned: bool) -> ApiFootprint
    where
        I: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        ApiFootprint {
            atoms: sorted(atoms.into_iter().map(|a| Atom::Mentioned(a.into())).collect()),
            index_store,
            poisoned,
            strict_sites: false,
        }
    }

    /// The fully-poisoned footprint: everything is reachable.
    pub fn poisoned_all() -> ApiFootprint {
        ApiFootprint { atoms: Vec::new(), index_store: true, poisoned: true, strict_sites: true }
    }

    /// `true` when analysis could not bound reachability; callers must fall
    /// back to the full testbed matrix.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// `true` when `atom` (a terminal API name segment such as `"substr"`
    /// or `"Uint32Array"`) may be reached. Always `true` on a poisoned
    /// footprint.
    pub fn mentions(&self, atom: &str) -> bool {
        self.poisoned || self.atoms.binary_search_by(|a| a.as_str().cmp(atom)).is_ok()
    }

    /// `true` when the program may store through a computed array index
    /// (the path the array-element conformance hooks observe). Always
    /// `true` on a poisoned footprint.
    pub fn has_index_store(&self) -> bool {
        self.poisoned || self.index_store
    }

    /// `true` when builtin sites may run in strict mode regardless of the
    /// testbed's own mode: the program or one of its functions carries a
    /// `"use strict"` prologue. Always `true` on a poisoned footprint.
    pub fn has_strict_sites(&self) -> bool {
        self.poisoned || self.strict_sites
    }

    /// Number of distinct atoms collected (diagnostics only).
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// The collected atoms, in sorted order (diagnostics and tests).
    pub fn atoms(&self) -> impl Iterator<Item = &str> {
        self.atoms.iter().map(Atom::as_str)
    }
}

/// Sorts `atoms` by text and drops repeats.
fn sorted(mut atoms: Vec<Atom>) -> Vec<Atom> {
    atoms.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
    atoms.dedup();
    atoms
}

/// The builtin natives implicit `ToPrimitive` can invoke without any
/// source mention: the `toString`/`valueOf` methods reachable through the
/// prototype chains of the object kinds `to_primitive` actually dispatches
/// on. Boxed primitives unwrap without a method call, which is what keeps
/// `Number.prototype.*`, `Boolean.prototype.*`, and `String.prototype.*`
/// off this list.
pub const IMPLICIT_COERCION_APIS: &[&str] = &[
    "Object.prototype.valueOf",
    "Array.prototype.toString",
    "Function.prototype.toString",
    "Date.prototype.toString",
    "Date.prototype.valueOf",
    "Error.prototype.toString",
    "RegExp.prototype.toString",
    "%TypedArray%.prototype.toString",
];

/// Extracts the conservative API footprint of a chunk's arena. One walk,
/// run once per compile, cheap next to a single testbed execution. The
/// mentioned atoms are the arena's own interned strings.
pub fn extract_footprint(arena: &NodeArena) -> ApiFootprint {
    let mut c = Collector {
        arena,
        mentioned: vec![false; arena.atoms.len()],
        index_store: false,
        poisoned: false,
        plain_object: false,
    };
    for &n in arena.slice(arena.top_body) {
        c.value(n);
    }
    // Every function proto lowers a function the walk above reaches.
    let strict_sites = arena.strict || arena.funcs.iter().any(|f| f.strict);
    let (mut prototype, mut define_properties) = (false, false);
    let mut index_store = c.index_store;
    let mut poisoned = c.poisoned;
    let mut atoms = Vec::with_capacity(
        c.mentioned.iter().filter(|&&m| m).count() + IMPLICIT_COERCION_APIS.len() + 4,
    );
    for (atom, _) in arena.atoms.iter().zip(&c.mentioned).filter(|(_, &m)| m) {
        match &**atom {
            "prototype" | "getPrototypeOf" => prototype = true,
            "defineProperties" => define_properties = true,
            // `Object.assign` stores through `set_property`, reaching the
            // array-index store path (reverse-fill penalty) without a
            // `[]=` site.
            "assign" => index_store = true,
            // Evaluated source is invisible; `constructor` reaches
            // constructors whose API names are unrelated to the property
            // name.
            "eval" | "constructor" => poisoned = true,
            _ => {}
        }
        atoms.push(Atom::Mentioned(Arc::clone(atom)));
    }
    // Implicit ToPrimitive can invoke these natives with no source mention.
    // The set is exact for this interpreter: `to_primitive` only dispatches
    // methods on non-wrapper objects (boxed primitives unwrap directly), so
    // the reachable natives are the `toString`/`valueOf` entries on the
    // prototype chains of plain objects, arrays, functions, dates, errors,
    // regexps, and typed arrays. Relevance matching checks these full names
    // in addition to terminal segments (`EngineProfile::relevant_bugs`).
    atoms.extend(IMPLICIT_COERCION_APIS.iter().map(|api| Atom::Implied(api)));
    // `Object.prototype.toString` resolves under coercion only for objects
    // whose prototype chain has no closer `toString` — plain objects, the
    // global object (`this`), `Math`/`JSON` as values, and `ArrayBuffer`/
    // `DataView` instances (which require `new`). Arrays, functions, dates,
    // errors, and regexps all shadow it, so the atom is needed only when
    // the program can *produce* a plain-chain object.
    if c.plain_object {
        atoms.push(Atom::Implied("Object.prototype.toString"));
    }
    // Prototype objects are plain objects that expose the wrapper-prototype
    // natives as *own* properties: `Number.prototype + 1` dispatches
    // `Number.prototype.valueOf` with no `valueOf` in the source. Any route
    // to a prototype object mentions `prototype` or `getPrototypeOf` (the
    // remaining route, `constructor`, already poisons), so those mentions
    // fall back to the coarse terminal atoms.
    if prototype {
        atoms.extend([Atom::Implied("toString"), Atom::Implied("valueOf")]);
    }
    // `Object.defineProperties` delegates each descriptor to the
    // `Object.defineProperty` builtin internally.
    if define_properties {
        atoms.push(Atom::Implied("defineProperty"));
    }
    ApiFootprint { atoms: sorted(atoms), index_store, poisoned, strict_sites }
}

/// The arena walk. Statement and expression kinds are disjoint, so one
/// visitor ([`Collector::value`]) takes any node.
struct Collector<'a> {
    arena: &'a NodeArena,
    /// One flag per arena atom: mentioned somewhere the analysis counts.
    mentioned: Vec<bool>,
    index_store: bool,
    poisoned: bool,
    /// `true` when the program can produce an object whose prototype chain
    /// resolves `toString` to `Object.prototype.toString`: an object
    /// literal, any `new` result (`ArrayBuffer`/`DataView` instances and
    /// plain constructor returns), `this` (the global object), any use of
    /// `Object`/`JSON` (whose methods return plain objects), or `Math`/
    /// `JSON` in value position (the only plain-chain *global values*;
    /// `Math.max` cannot leak the `Math` object, so member-object position
    /// is exempt for `Math`).
    plain_object: bool,
}

impl Collector<'_> {
    fn list(&mut self, range: (u32, u32)) {
        for &n in self.arena.slice(range) {
            self.value(n);
        }
    }

    fn function(&mut self, fidx: u32) {
        let proto = self.arena.funcs[fidx as usize];
        self.list(proto.body);
        if proto.expr_body != NONE {
            self.value(proto.expr_body);
        }
    }

    /// A statement, or an expression in *value* position: its result can
    /// flow anywhere (including into a later call), so index reads with
    /// dynamic keys poison the footprint. Declared names, parameters,
    /// catch and loop bindings, object-literal keys and template text are
    /// not mentions.
    fn value(&mut self, n: u32) {
        let arena = self.arena;
        let node = arena.node(n);
        let (a, b, c) = (node.a, node.b, node.c);
        match node.kind {
            NodeKind::ExprStmt | NodeKind::Throw | NodeKind::Unary | NodeKind::Paren => {
                self.value(a)
            }
            NodeKind::Return => {
                if a != NONE {
                    self.value(a);
                }
            }
            NodeKind::Decl => {
                for pair in arena.extra[a as usize..(a + 2 * b) as usize].chunks_exact(2) {
                    if pair[1] != NONE {
                        self.value(pair[1]);
                    }
                }
            }
            NodeKind::FunctionDecl | NodeKind::Function | NodeKind::Arrow => self.function(a),
            NodeKind::Block | NodeKind::Seq => self.list((a, b)),
            NodeKind::If => {
                self.value(a);
                self.value(b);
                if c != NONE {
                    self.value(c);
                }
            }
            NodeKind::While
            | NodeKind::DoWhile
            | NodeKind::ForInOf
            | NodeKind::Binary
            | NodeKind::Logical => {
                self.value(a);
                self.value(b);
            }
            NodeKind::For => {
                let rec = &arena.extra[a as usize..];
                let (test, update, body, init_tag) = (rec[0], rec[1], rec[2], rec[3]);
                match init_tag {
                    1 => self.value(rec[4]),
                    2..=4 => {
                        let ndecls = rec[4] as usize;
                        for pair in rec[5..5 + 2 * ndecls].chunks_exact(2) {
                            if pair[1] != NONE {
                                self.value(pair[1]);
                            }
                        }
                    }
                    _ => {}
                }
                for part in [test, update] {
                    if part != NONE {
                        self.value(part);
                    }
                }
                self.value(body);
            }
            NodeKind::Try => {
                let rec = &arena.extra[a as usize..a as usize + 9];
                let [bs, bl, ctag, _, cs, cl, ftag, fs, fl] =
                    rec.try_into().expect("try record is 9 words");
                self.list((bs, bl));
                if ctag == 1 {
                    self.list((cs, cl));
                }
                if ftag == 1 {
                    self.list((fs, fl));
                }
            }
            NodeKind::Switch => {
                self.value(a);
                for rec in arena.extra[b as usize..(b + 3 * c) as usize].chunks_exact(3) {
                    if rec[0] != NONE {
                        self.value(rec[0]);
                    }
                    self.list((rec[1], rec[2]));
                }
            }
            NodeKind::Break
            | NodeKind::Continue
            | NodeKind::Empty
            | NodeKind::Directive
            | NodeKind::Number
            | NodeKind::Str
            | NodeKind::Bool
            | NodeKind::Null
            | NodeKind::Regex => {}
            NodeKind::Ident => {
                // `Math` and `JSON` are the only plain-chain global
                // *values*; in value position they can flow into coercion.
                if arena.atom(a) == "Math" {
                    self.plain_object = true;
                }
                self.ident(a);
            }
            NodeKind::This => {
                self.plain_object = true; // the global object is plain
            }
            NodeKind::Array => {
                for &slot in arena.slice((a, b)) {
                    if slot != NONE {
                        self.value(slot);
                    }
                }
            }
            NodeKind::Object => {
                self.plain_object = true;
                for rec in arena.extra[a as usize..(a + 3 * b) as usize].chunks_exact(3) {
                    // Key tag 3 is a computed key.
                    if rec[0] == 3 {
                        self.value(rec[1]);
                    }
                    if rec[2] != NONE {
                        self.value(rec[2]);
                    }
                }
            }
            NodeKind::Update => self.store_target(a),
            NodeKind::Cond => {
                self.value(a);
                self.value(b);
                self.value(c);
            }
            NodeKind::Assign => {
                self.store_target(a);
                self.value(b);
            }
            NodeKind::Call => {
                self.value(a);
                self.list((b, c));
            }
            NodeKind::New => {
                // Constructed objects can be plain-chain (`new Object()`,
                // user constructors, `ArrayBuffer`/`DataView` instances).
                self.plain_object = true;
                self.value(a);
                self.list((b, c));
            }
            NodeKind::Member => {
                self.mention(b);
                self.member_object(a);
            }
            NodeKind::Index => {
                self.member_object(a);
                // A literal key is just a spelled-out property name; any
                // other key is dynamic and could fetch any builtin.
                if !self.literal_key(b) {
                    self.poisoned = true;
                    self.value(b);
                }
            }
            NodeKind::Template => self.list((a + b, c)),
        }
    }

    /// Records the key of an index access when it is a literal: a string
    /// key is a mention, other literals name no builtin. Returns `false`
    /// for a dynamic key.
    fn literal_key(&mut self, key: u32) -> bool {
        let node = self.arena.node(key);
        match node.kind {
            NodeKind::Str => self.mention(node.a),
            NodeKind::Number | NodeKind::Bool | NodeKind::Null | NodeKind::Regex => {}
            _ => return false,
        }
        true
    }

    fn mention(&mut self, atom: u32) {
        self.mentioned[atom as usize] = true;
    }

    /// Records an identifier mention. `Object` and `JSON` flip the
    /// plain-object bit in *any* position: their methods (`Object.keys`,
    /// `JSON.parse`, descriptor getters, …) return plain-chain objects.
    /// So do `ArrayBuffer` and `DataView`, whose constructors return
    /// instances (plain-chain: neither prototype defines `toString`) even
    /// when called without `new`.
    fn ident(&mut self, atom: u32) {
        if matches!(self.arena.atom(atom), "Object" | "JSON" | "ArrayBuffer" | "DataView") {
            self.plain_object = true;
        }
        self.mention(atom);
    }

    /// The object operand of a member/index access. A bare `Math` here
    /// cannot leak the `Math` object itself (only the accessed property
    /// flows onward, and no `Math.*` value is plain-chain), so the
    /// value-position rule for `Math` is skipped.
    fn member_object(&mut self, object: u32) {
        let node = self.arena.node(object);
        match node.kind {
            NodeKind::Ident => self.ident(node.a),
            _ => self.value(object),
        }
    }

    /// The direct target of an assignment or update. An index target marks
    /// the store bit but does *not* poison: the old value read by a
    /// compound op can only flow into operator coercion, which the
    /// unconditional implicit-coercion atoms already cover.
    fn store_target(&mut self, target: u32) {
        let node = self.arena.node(target);
        match node.kind {
            NodeKind::Ident => self.ident(node.a),
            NodeKind::Member => {
                self.mention(node.b);
                self.member_object(node.a);
            }
            NodeKind::Index => {
                self.index_store = true;
                self.member_object(node.a);
                if !self.literal_key(node.b) {
                    self.value(node.b);
                }
            }
            NodeKind::Paren => self.store_target(node.a),
            // Anything else is a runtime ReferenceError; walk as a value.
            _ => self.value(target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_syntax::parse;

    fn fp(src: &str) -> ApiFootprint {
        extract_footprint(&NodeArena::build(&parse(src).expect("test source parses")))
    }

    #[test]
    fn collects_member_and_ident_atoms() {
        let f = fp("var s = 'x'; print(s.substr(0, 1)); parseInt('4');");
        assert!(f.mentions("substr"));
        assert!(f.mentions("parseInt"));
        assert!(f.mentions("print"));
        assert!(!f.mentions("normalize"));
        assert!(!f.is_poisoned());
    }

    #[test]
    fn member_reads_count_even_without_a_call() {
        // `var f = s.substr; f(1)` calls substr through a local variable.
        let f = fp("var s = 'x'; var g = s.substr; print(g(0));");
        assert!(f.mentions("substr"));
    }

    #[test]
    fn implicit_coercion_apis_are_always_present_by_full_name() {
        let f = fp("print(1);");
        for api in IMPLICIT_COERCION_APIS {
            assert!(f.mentions(api), "{api}");
        }
        // Wrapper-prototype natives cannot fire implicitly: boxed
        // primitives unwrap directly in `to_primitive`, so the terminal
        // atoms only appear when the source spells them out.
        assert!(!f.mentions("toString"));
        assert!(!f.mentions("valueOf"));
        assert!(fp("print(x.toString());").mentions("toString"));
        assert!(fp("print(y.valueOf() + 1);").mentions("valueOf"));
    }

    #[test]
    fn object_prototype_to_string_requires_a_plain_chain_producer() {
        const API: &str = "Object.prototype.toString";
        // No plain-chain object can exist: arrays, functions, dates,
        // errors, and regexps all shadow `toString` closer to the leaf.
        assert!(!fp("print(1 + 'x');").mentions(API));
        assert!(!fp("var a = [1]; print(a + '');").mentions(API));
        assert!(!fp("print(Math.max(1, 2));").mentions(API), "member-object Math is exempt");
        // Producers: literals, `new`, `this`, plain-chain globals/returns.
        assert!(fp("var o = {}; print(o + '');").mentions(API));
        assert!(fp("var o = new Foo(); print(o);").mentions(API));
        assert!(fp("print(this + '');").mentions(API));
        assert!(fp("print(Math + 1);").mentions(API), "Math as a value is plain-chain");
        assert!(fp("var m = Math; print(m + 1);").mentions(API));
        assert!(fp("print(JSON.parse('4'));").mentions(API));
        assert!(fp("print(Object.keys(x).length);").mentions(API));
        assert!(fp("print(ArrayBuffer(4) + '');").mentions(API), "no-new ctor still returns one");
    }

    #[test]
    fn prototype_object_access_restores_coarse_coercion_atoms() {
        // `Number.prototype` is a plain object whose own `valueOf` native
        // fires under coercion; reaching any prototype object requires one
        // of these mentions.
        for src in ["print(Number.prototype + 1);", "print(Object.getPrototypeOf(5) + '');"] {
            let f = fp(src);
            assert!(f.mentions("toString"), "{src}");
            assert!(f.mentions("valueOf"), "{src}");
            assert!(!f.is_poisoned(), "{src}");
        }
    }

    #[test]
    fn string_literal_index_is_a_mention_not_poison() {
        let f = fp("print(Math['max'](1, 2));");
        assert!(f.mentions("max"));
        assert!(!f.is_poisoned());
    }

    #[test]
    fn dynamic_index_read_poisons() {
        let f = fp("var k = 'max'; print(Math[k](1, 2));");
        assert!(f.is_poisoned());
        assert!(f.mentions("anything"));
        assert!(f.has_index_store());
    }

    #[test]
    fn numeric_index_read_is_benign() {
        let f = fp("var a = [1, 2]; print(a[0]);");
        assert!(!f.is_poisoned());
        assert!(!f.has_index_store());
    }

    #[test]
    fn eval_and_constructor_poison() {
        assert!(fp("eval('print(1)');").is_poisoned());
        assert!(fp("var c = [].constructor; print(c(2).length);").is_poisoned());
        assert!(fp("print([]['constructor']);").is_poisoned());
    }

    #[test]
    fn index_stores_set_the_store_bit_without_poison() {
        for src in [
            "var a = []; a[0] = 1;",
            "var a = []; var i = 2; a[i] = 1;",
            "var a = [1]; a[0] += 1;",
            "var a = [1]; a[0]++;",
            "var a = []; a[true] = 1;",
        ] {
            let f = fp(src);
            assert!(f.has_index_store(), "{src}");
            assert!(!f.is_poisoned(), "{src}");
        }
        assert!(!fp("var a = [1]; print(a.length);").has_index_store());
    }

    #[test]
    fn object_assign_reaches_the_index_store_path() {
        let f = fp("var a = [1]; Object.assign(a, {});");
        assert!(f.has_index_store());
        assert!(!f.is_poisoned());
    }

    #[test]
    fn define_properties_aliases_define_property() {
        let f = fp("Object.defineProperties({}, {});");
        assert!(f.mentions("defineProperty"));
        assert!(f.mentions("defineProperties"));
    }

    #[test]
    fn from_parts_round_trips() {
        let f = ApiFootprint::from_parts(["substr"], false, false);
        assert!(f.mentions("substr"));
        assert!(!f.mentions("split"));
        assert!(!f.has_index_store());
        assert_eq!(f.atom_count(), 1);
        assert_eq!(f.atoms().collect::<Vec<_>>(), vec!["substr"]);
        let p = ApiFootprint::poisoned_all();
        assert!(p.mentions("whatever") && p.has_index_store() && p.is_poisoned());
    }
}
