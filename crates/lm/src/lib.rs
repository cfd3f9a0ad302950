#![warn(missing_docs)]

//! Deep-learning-based test-program generation, reproduced with classical
//! machinery (§3.2 / DESIGN.md §1).
//!
//! The paper fine-tunes **GPT-2** on a JS corpus and samples programs token
//! by token with top-k sampling. The Rust ML stack cannot carry a GPT-2
//! here, so this crate preserves the *behaviourally relevant* structure:
//!
//! * [`Bpe`] — the same Byte-Pair-Encoding tokenization the paper uses,
//! * [`NgramModel`] — a back-off n-gram model whose **context order** is the
//!   model-capacity knob (order 12 ≈ GPT-2's long-range dependence; order
//!   2–3 ≈ the DeepSmith LSTM baseline),
//! * [`Generator`] — seed headers, top-k sampling (k = 10), and the paper's
//!   termination rules (balanced braces, `<EOF>`, 5,000-token cap).
//!
//! The Figure 9 contrast (COMFORT's high syntactic validity vs the
//! short-context baselines) emerges from the order knob, not from hard-coded
//! numbers — see `crates/bench` for the measurement.
//!
//! # Examples
//!
//! ```
//! use comfort_lm::{Generator, GeneratorConfig};
//! use rand::SeedableRng;
//!
//! let corpus = comfort_corpus::training_corpus(1, 60);
//! let generator = Generator::train(&corpus, GeneratorConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let program = generator.generate(&mut rng);
//! assert!(program.contains("function"));
//! ```

mod bpe;
mod generator;
mod ngram;
#[cfg(test)]
mod reference;

pub use bpe::Bpe;
pub use generator::{Generator, GeneratorConfig, EOF_MARK};
pub use ngram::NgramModel;
