//! FNV-1a, the hasher for maps probed by short string keys.
//!
//! Identifiers and atoms are a handful of bytes, where SipHash's per-call
//! setup dominates; FNV-1a is several times faster there. It is safe only
//! for maps that are probed by key and never iterated into results, since
//! the weaker hash must not leak into anything observable, and whose keys
//! are the names of programs under test rather than input crafted to
//! collide. Two such maps use it: the arena builder's atom interner and
//! the interpreter's per-scope variable tables.
//!
//! It is also the hash behind `comfort-core`'s persisted `Fingerprint`
//! (journal fingerprints and report checksums), which needs one that is
//! stable across Rust releases and platforms: FNV-1a over explicit bytes
//! is, where the standard hasher promises neither.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `BuildHasher` for `HashMap`s keyed by short strings.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;
