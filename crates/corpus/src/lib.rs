#![warn(missing_docs)]

//! Training-corpus synthesizer (the GitHub-corpus stand-in, §3.2).
//!
//! The paper fine-tunes GPT-2 on 140 k JS files collected from top-starred
//! GitHub projects and seeds generation with 2,000 function headers harvested
//! from that corpus. This environment has no network access, so this crate
//! synthesizes a corpus of *human-style* JS programs instead: idiomatic
//! helper functions, realistic identifier vocabulary, standard-API usage, and
//! `print`-based observable outputs (the property differential testing needs).
//!
//! The synthesizer is deliberately a **grammar-directed writer, not the
//! fuzzer itself** — COMFORT's generator is the language model in
//! `comfort-lm`, which learns from these texts exactly as GPT-2 learns from
//! GitHub code. Notably, APIs absent from this corpus cannot be generated by
//! the LM (the paper's `String.prototype.big.call` observation, §5.3.2) — and
//! `String.prototype.big` is indeed never emitted here.
//!
//! Every program is valid JS by construction, so [`training_corpus`] hands
//! the programs over as written and nothing parses them at run time; the
//! `corpus_programs_parse` test checks the property over 64 corpora, and
//! `tests/lm_pin.rs` pins their bytes.
//!
//! # Examples
//!
//! ```
//! use comfort_corpus::CorpusBuilder;
//!
//! let corpus = CorpusBuilder::new(42).programs(10);
//! assert_eq!(corpus.len(), 10);
//! for program in &corpus {
//!     comfort_syntax::parse(program).expect("corpus programs are valid JS");
//! }
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NOUNS: &[&str] = &[
    "value", "item", "name", "result", "data", "count", "index", "total", "list", "text", "user",
    "key", "score", "buffer", "node", "entry", "size", "offset", "label", "token",
];

const VERBS: &[&str] = &[
    "get", "set", "make", "build", "find", "check", "parse", "format", "merge", "filter", "update",
    "compute", "load", "pick", "scan", "trim", "join", "sum", "wrap", "split",
];

const STRINGS: &[&str] = &[
    "Name: Albert",
    "hello world",
    "anA",
    "abc",
    "123",
    "foo,bar,baz",
    "  padded  ",
    "The quick brown fox",
    "a-b-c",
    "xyz",
    "json",
    "Err: not found",
    "aAbBcC",
];

/// Synthesizes one corpus of training programs.
#[derive(Debug)]
pub struct CorpusBuilder {
    rng: StdRng,
}

impl CorpusBuilder {
    /// Creates a deterministic builder from `seed`.
    pub fn new(seed: u64) -> Self {
        CorpusBuilder { rng: StdRng::seed_from_u64(seed) }
    }

    /// Generates `n` independent programs.
    pub fn programs(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.program()).collect()
    }

    /// Generates one complete program: 1–3 functions plus driver code that
    /// calls them and prints the results.
    pub fn program(&mut self) -> String {
        let mut out = String::new();
        let nfuncs = self.rng.random_range(1..=3);
        let mut funcs = Vec::new();
        for _ in 0..nfuncs {
            let (name, params, text) = self.function();
            out.push_str(&text);
            out.push('\n');
            funcs.push((name, params));
        }
        for (name, params) in funcs {
            let args: Vec<String> = (0..params).map(|_| self.literal()).collect();
            if self.rng.random_bool(0.7) {
                out.push_str(&format!("var out_{name} = {name}({});\n", args.join(", ")));
                out.push_str(&format!("print(out_{name});\n"));
            } else {
                out.push_str(&format!("print({name}({}));\n", args.join(", ")));
            }
        }
        out
    }

    /// One function definition; returns `(name, param count, text)`.
    fn function(&mut self) -> (String, usize, String) {
        let name = self.func_name();
        let nparams = self.rng.random_range(1..=3);
        let params: Vec<String> = (0..nparams).map(|i| self.param_name(i)).collect();
        let mut body = String::new();
        let nstmts = self.rng.random_range(1..=4);
        let mut locals: Vec<String> = params.clone();
        for _ in 0..nstmts {
            body.push_str("  ");
            body.push_str(&self.statement(&mut locals));
            body.push('\n');
        }
        let ret = locals.last().cloned().unwrap_or_else(|| "0".into());
        body.push_str(&format!("  return {ret};\n"));
        let style = self.rng.random_range(0..3);
        let text = match style {
            0 => format!("function {name}({}) {{\n{body}}}\n", params.join(", ")),
            _ => format!("var {name} = function({}) {{\n{body}}};\n", params.join(", ")),
        };
        (name, nparams, text)
    }

    fn func_name(&mut self) -> String {
        let v = VERBS[self.rng.random_range(0..VERBS.len())];
        let n = NOUNS[self.rng.random_range(0..NOUNS.len())];
        let mut cap = n.to_string();
        if let Some(first) = cap.get_mut(0..1) {
            first.make_ascii_uppercase();
        }
        format!("{v}{cap}")
    }

    fn param_name(&mut self, i: usize) -> String {
        let pool = ["str", "start", "len", "num", "arr", "obj", "flag", "sep", "text", "n"];
        pool[(self.rng.random_range(0..pool.len()) + i) % pool.len()].to_string()
    }

    fn statement(&mut self, locals: &mut Vec<String>) -> String {
        let fresh = format!("{}{}", NOUNS[self.rng.random_range(0..NOUNS.len())], locals.len());
        match self.rng.random_range(0..10) {
            0..=4 => {
                let expr = self.api_expression(locals);
                let s = format!("var {fresh} = {expr};");
                locals.push(fresh);
                s
            }
            5 => {
                let target = self.local(locals);
                let expr = self.arith(locals);
                format!("{target} = {expr};")
            }
            6 => {
                let cond = self.condition(locals);
                let expr = self.api_expression(locals);
                let s = format!("var {fresh} = 0;\n  if ({cond}) {{ {fresh} = {expr}; }}");
                locals.push(fresh);
                s
            }
            7 => {
                let limit = self.rng.random_range(2..8);
                let body = self.arith(locals);
                let s = format!(
                    "var {fresh} = 0;\n  for (var i = 0; i < {limit}; i++) {{ {fresh} += {body}; }}"
                );
                locals.push(fresh);
                s
            }
            8 => {
                let expr = self.api_expression(locals);
                format!("print({expr});")
            }
            _ => {
                let cond = self.condition(locals);
                let a = self.literal();
                let b = self.literal();
                let s = format!("var {fresh} = {cond} ? {a} : {b};");
                locals.push(fresh);
                s
            }
        }
    }

    fn local(&mut self, locals: &[String]) -> String {
        if locals.is_empty() {
            "x".to_string()
        } else {
            locals[self.rng.random_range(0..locals.len())].clone()
        }
    }

    fn condition(&mut self, locals: &[String]) -> String {
        let l = self.local(locals);
        match self.rng.random_range(0..4) {
            0 => format!("{l} > {}", self.rng.random_range(0..10)),
            1 => format!("{l} === {}", self.literal()),
            2 => format!("typeof {l} === \"number\""),
            _ => format!("{l} !== undefined"),
        }
    }

    fn arith(&mut self, locals: &[String]) -> String {
        let l = self.local(locals);
        let ops = ["+", "-", "*", "%"];
        let op = ops[self.rng.random_range(0..ops.len())];
        format!("{l} {op} {}", self.rng.random_range(1..20))
    }

    fn literal(&mut self) -> String {
        match self.rng.random_range(0..6) {
            0 => self.rng.random_range(0..1000).to_string(),
            1 => format!("{:?}", STRINGS[self.rng.random_range(0..STRINGS.len())]),
            2 => format!("{}.{}", self.rng.random_range(0..50), self.rng.random_range(1..99)),
            3 => "true".into(),
            4 => {
                let a = self.rng.random_range(0..9);
                let b = self.rng.random_range(0..9);
                format!("[{a}, {b}, {}]", self.rng.random_range(0..9))
            }
            _ => format!("{{ a: {}, b: {:?} }}", self.rng.random_range(0..9), "v"),
        }
    }

    /// An expression exercising a standard API — the vocabulary the LM
    /// learns. Weighted toward Object/String/Array APIs like real-world code
    /// (and like Table 5's buggy-API distribution).
    fn api_expression(&mut self, locals: &[String]) -> String {
        let recv = self.local(locals);
        let s = STRINGS[self.rng.random_range(0..STRINGS.len())];
        let n1 = self.rng.random_range(0..10);
        let n2 = self.rng.random_range(0..20);
        // Draw every value, then the arm as a `usize`, and format only that
        // arm: the draw order and types fix the corpus byte for byte.
        let repeat = self.rng.random_range(0..4);
        let fixed = self.rng.random_range(0..5);
        let precision = self.rng.random_range(1..6);
        let radix = self.rng.random_range(2..17);
        match self.rng.random_range(0..83usize) {
            // String APIs.
            0 => format!("{s:?}.substr({n1}, {n2})"),
            1 => format!("{recv}.substr({n1})"),
            2 => format!("{s:?}.substring({n1}, {n2})"),
            3 => format!("{s:?}.slice({n1})"),
            4 => format!("{s:?}.indexOf({:?})", "a"),
            5 => format!("{s:?}.lastIndexOf({:?})", "a"),
            6 => format!("{s:?}.charAt({n1})"),
            7 => format!("{s:?}.charCodeAt({n1})"),
            8 => format!("{s:?}.split({:?})", ","),
            9 => format!("{s:?}.split(/^A/)"),
            10 => format!("{s:?}.replace({:?}, {:?})", "a", "_"),
            11 => format!("{s:?}.replace(/[0-9]/g, {:?})", "#"),
            12 => format!("{recv}.toUpperCase()"),
            13 => format!("{s:?}.toLowerCase()"),
            14 => format!("{s:?}.trim()"),
            15 => format!("{s:?}.repeat({repeat})"),
            16 => format!("{s:?}.padStart({n2}, {:?})", "0"),
            17 => format!("{s:?}.padEnd({n2}, {:?})", "*"),
            18 => format!("{s:?}.startsWith({:?})", "T"),
            19 => format!("{s:?}.endsWith({:?})", "x"),
            20 => format!("{s:?}.includes({:?})", "o"),
            21 => format!("{s:?}.concat({recv})"),
            22 => format!("{s:?}.normalize()"),
            23 => format!("{s:?}.localeCompare({:?})", "b"),
            24 => format!("{s:?}.codePointAt({n1})"),
            25 => format!("String.fromCharCode(6{n1}, 7{n1})"),
            // Number APIs.
            26 => format!("({n2}.{n1}).toFixed({fixed})"),
            27 => format!("({n2}.5).toPrecision({precision})"),
            28 => format!("({n2}).toString({radix})"),
            29 => format!("parseInt({:?})", "42px"),
            30 => format!("parseInt({recv}, 10)"),
            31 => format!("parseFloat({:?})", "3.14x"),
            32 => format!("Number.isInteger({recv})"),
            // Math.
            33 => format!("Math.max({n1}, {n2}, {recv})"),
            34 => format!("Math.min({n1}, {recv})"),
            35 => format!("Math.round({n2}.5)"),
            36 => format!("Math.abs({recv} - {n2})"),
            37 => format!("Math.pow({n1}, 2)"),
            38 => format!("Math.sign({recv})"),
            // Arrays.
            39 => format!("[{n1}, {n2}, 5].join({:?})", "-"),
            40 => format!("[{n1}, {n2}].concat([{n1}])"),
            41 => format!("[3, 1, {n1}].sort()"),
            42 => format!("[{n1}, {n2}, 9].indexOf({n2})"),
            43 => format!("[{n1}, {n2}].lastIndexOf({n1})"),
            44 => format!("[{n1}, {n2}, 2].slice(1)"),
            45 => format!("[{n1}, {n2}, 2].splice(0, 1)"),
            46 => format!("[{n1}, {n2}].includes({n1})"),
            47 => format!("[[{n1}], [{n2}]].flat()"),
            48 => format!("[{n1}, {n2}].fill(0)"),
            49 => format!("[{n1}, {n2}].reverse()"),
            50 => format!("new Array({n1}).length"),
            51 => format!("Array.isArray({recv})"),
            52 => format!("Array.from({s:?})"),
            53 => format!("[{n1}, {n2}].map(function(x) {{ return x * 2; }})"),
            54 => format!("[{n1}, {n2}, 0].filter(function(x) {{ return x > 1; }})"),
            55 => format!("[{n1}, {n2}].reduce(function(a, b) {{ return a + b; }}, 0)"),
            // Objects.
            56 => format!("Object.keys({{ a: {n1}, b: {n2} }})"),
            57 => format!("Object.values({{ a: {n1} }})"),
            58 => format!("Object.assign({{}}, {{ k: {n1} }})"),
            59 => format!("Object.entries({{ x: {n1} }})"),
            60 => "Object.freeze({ v: 1 })".to_string(),
            61 => format!("Object.defineProperty({{}}, {:?}, {{ value: {n1} }})", "k"),
            62 => format!(
                "Object.defineProperty([0, 1], {:?}, {{ value: 1, configurable: true }})",
                "length"
            ),
            63 => format!("({{ a: {n1} }}).hasOwnProperty({:?})", "a"),
            // JSON.
            64 => format!("JSON.stringify({{ n: {n1}, s: {s:?} }})"),
            65 => format!("JSON.parse({:?})", "{\"k\": 3}"),
            // RegExp.
            66 => format!("/a+/.test({s:?})"),
            67 => format!("/(\\w+)/.exec({s:?})[0]"),
            68 => format!("{s:?}.match(/[a-z]+/)"),
            69 => format!("{s:?}.search(/o/)"),
            // Typed arrays / DataView.
            70 => format!("new Uint8Array({n1}).length"),
            71 => format!(
                "(function() {{ var A = new Uint8Array(5); A.set([{n1}, {n2}]); return A; }})()"
            ),
            72 => format!("new Uint32Array([{n1}, {n2}])[0]"),
            73 => format!("new Int32Array({n1}).fill({n2})[0]"),
            74 => "new Float64Array(2).length".to_string(),
            75 => "new DataView(new ArrayBuffer(8)).getUint32(0)".to_string(),
            76 => "new ArrayBuffer(16).byteLength".to_string(),
            // eval / Date.
            77 => format!("eval({:?})", "print(1 + 2)"),
            78 => "new Date().getFullYear()".to_string(),
            79 => "Date.now()".to_string(),
            // Plain expressions keep the mix realistic.
            80 => format!("{recv} + {n1}"),
            81 => format!("{recv} * {n2} - {n1}"),
            _ => format!("typeof {recv}"),
        }
    }
}

/// Builds the standard training corpus: `n` programs from `seed`, as
/// [`CorpusBuilder::programs`] writes them. They are valid JS by
/// construction and are not parsed here (see the crate docs).
pub fn training_corpus(seed: u64, n: usize) -> Vec<String> {
    CorpusBuilder::new(seed).programs(n)
}

/// Harvests `var f = function(...) {`-style generation headers from a corpus
/// (the paper's 2,000-header seed pool, §3.2).
pub fn harvest_headers(corpus: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for program in corpus {
        for line in program.lines() {
            let t = line.trim();
            if (t.starts_with("var ") && t.contains("= function(")) || t.starts_with("function ") {
                if let Some(brace) = t.find('{') {
                    out.push(t[..=brace].to_string());
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = training_corpus(7, 5);
        let b = training_corpus(7, 5);
        assert_eq!(a, b);
        let c = training_corpus(8, 5);
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_programs_parse() {
        // `training_corpus` hands its programs over unchecked, so every one
        // must parse: the 64 corpora `tests/lm_pin.rs` pins.
        for seed in 0xC0FF_0000..0xC0FF_0040 {
            for (index, program) in training_corpus(seed, 80).iter().enumerate() {
                if let Err(e) = comfort_syntax::parse(program) {
                    panic!("seed {seed:#x} program {index} does not parse: {e}\n{program}");
                }
            }
        }
    }

    #[test]
    fn corpus_programs_run_cleanly_on_the_reference_engine() {
        use comfort_interp::{hooks::SpecProfile, run_source, RunOptions};
        let mut completed = 0;
        let programs = training_corpus(2, 40);
        for p in &programs {
            let r = run_source(p, &SpecProfile, &RunOptions::default()).expect("parses");
            if r.status.is_completed() {
                completed += 1;
            }
        }
        // Human-style code mostly runs without exceptions.
        assert!(completed * 10 >= programs.len() * 8, "{completed}/{}", programs.len());
    }

    #[test]
    fn headers_harvested() {
        let corpus = training_corpus(3, 30);
        let headers = harvest_headers(&corpus);
        assert!(headers.len() >= 10);
        assert!(headers.iter().all(|h| h.ends_with('{')));
        assert!(headers.iter().any(|h| h.contains("= function(")));
    }

    #[test]
    fn corpus_never_teaches_string_big() {
        // §5.3.2: COMFORT cannot generate `String.prototype.big.call` because
        // its training corpus never uses it. Preserve that property.
        for p in training_corpus(4, 60) {
            assert!(!p.contains(".big"), "corpus must not teach String.prototype.big");
        }
    }

    #[test]
    fn corpus_prints_observable_output() {
        for p in training_corpus(5, 20) {
            assert!(p.contains("print("), "program without observable output:\n{p}");
        }
    }
}
