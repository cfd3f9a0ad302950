#![warn(missing_docs)]

//! Baseline fuzzers for the comparison experiments (§4.4, Figures 8–9).
//!
//! Five from-scratch reimplementations, each embodying the defining
//! generation mechanism of its namesake (see DESIGN.md §1 for the
//! substitution argument):
//!
//! * [`DeepSmith`] — short-context neural generation (the LSTM proxy),
//! * [`Fuzzilli`] — typed-IL construction lifted to JS,
//! * [`CodeAlchemist`] — constraint-tagged code-brick assembly,
//! * [`Die`] — aspect-preserving seed mutation,
//! * [`Montage`] — LSTM-fragment AST splicing.
//!
//! All implement [`comfort_core::Fuzzer`], so the Figure 8/9 harnesses treat
//! them exactly like COMFORT.

mod codealchemist;
mod deepsmith;
mod die;
mod fuzzilli;
mod montage;

pub use codealchemist::{Brick, CodeAlchemist};
pub use deepsmith::DeepSmith;
pub use die::Die;
pub use fuzzilli::Fuzzilli;
pub use montage::Montage;
