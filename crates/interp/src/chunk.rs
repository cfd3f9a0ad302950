//! The compile-once execution artifact shared across a testbed matrix.
//!
//! [`CompiledChunk`] packages the arena-flattened program
//! ([`comfort_syntax::NodeArena`]: 16-byte node headers, interned `Arc<str>`
//! atom table, number pool, `extra` child lists, function-proto table with
//! precomputed hoist lists) and nothing else: the chunk keeps no copy of
//! the [`Program`] it was built from. The chunk is
//! immutable and `Send + Sync`, so [`compile`] runs **once per test case**
//! and the resulting `Arc<CompiledChunk>` fans out read-only across every
//! engine × mode testbed and every worker thread of a differential
//! campaign — engine-specific behaviour stays keyed off the
//! [`crate::hooks::ConformanceProfile`] at run time, never baked into the
//! chunk.
//!
//! The arena is also the chunk's content address: the chaos fault plans in
//! `comfort-engines` hash it ([`NodeArena::hash_content`]) to decide a run's
//! fault, so their decisions need no AST.

use std::sync::Arc;

use comfort_syntax::{NodeArena, Program};

/// A program compiled for execution: its arena encoding.
///
/// Create with [`compile`]; execute with [`crate::run_chunk`] (or
/// `Testbed::run_compiled` in `comfort-engines`). One chunk is safely
/// shared by any number of concurrent runs.
#[derive(Debug)]
pub struct CompiledChunk {
    /// Arena-flattened program (the bytecode VM's instruction stream).
    pub arena: NodeArena,
    /// `true` if an atom of the arena spells `arguments`. Kept beside the
    /// arena, not in it, so the content address does not move.
    names_arguments: bool,
}

impl CompiledChunk {
    /// `true` if the chunk's code can name a function's `arguments`
    /// binding. Without an `arguments` atom it cannot: `eval` code runs in
    /// the global env, so calls of the chunk's functions skip building the
    /// `arguments` object and its binding.
    pub fn names_arguments(&self) -> bool {
        self.names_arguments
    }

    /// `true` if the program opens with a `"use strict"` directive.
    pub fn strict(&self) -> bool {
        self.arena.strict
    }

    /// Approximate resident size of the arena encoding, in bytes.
    pub fn byte_size(&self) -> usize {
        self.arena.byte_size()
    }
}

/// Compiles `program` into a shareable chunk: one arena build. This is
/// phase one of the two-phase execute contract: compile once, then run the
/// chunk on as many (profile, options) pairs as needed.
///
/// ```
/// use comfort_interp::{compile, run_chunk, hooks::SpecProfile, RunOptions};
///
/// let program = comfort_syntax::parse("print(40 + 2);").expect("valid JS");
/// let chunk = compile(&program);
/// let r = run_chunk(&chunk, &SpecProfile, &RunOptions::default());
/// assert_eq!(r.output, "42\n");
/// ```
pub fn compile(program: &Program) -> Arc<CompiledChunk> {
    let arena = NodeArena::build(program);
    let names_arguments = arena.atoms.iter().any(|atom| &**atom == "arguments");
    Arc::new(CompiledChunk { arena, names_arguments })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_is_send_sync_and_cheap_to_share() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledChunk>();
        let program = comfort_syntax::parse("var x = 1; print(x);").expect("parses");
        let chunk = compile(&program);
        let c2 = Arc::clone(&chunk);
        assert_eq!(Arc::strong_count(&chunk), 2);
        assert!(c2.byte_size() > 0);
        assert!(!c2.strict());
    }
}
