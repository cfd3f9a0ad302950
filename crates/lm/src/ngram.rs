//! Back-off n-gram language model over BPE token ids.
//!
//! This is the deep-model stand-in (see DESIGN.md §1): the **context order**
//! plays the role of model capacity. COMFORT's GPT-2 is simulated with a long
//! context (order 12 — long-range dependence, balanced brackets), the
//! DeepSmith/Montage LSTM with a short one (order 2–3), which is precisely
//! the contrast the paper evaluates in Figure 9.

use std::collections::HashMap;

use rand::Rng;

/// Frozen continuation table for one context.
type Continuations = Vec<(u32, u32)>; // (token, count), sorted by count desc

/// A trained back-off n-gram model.
#[derive(Debug, Clone)]
pub struct NgramModel {
    pub(crate) order: usize,
    /// `tables[l]` maps a length-`l` context to its continuations.
    pub(crate) tables: Vec<HashMap<Vec<u32>, Continuations>>,
}

impl NgramModel {
    /// Trains on token sequences with contexts up to `order - 1` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn train(sequences: &[Vec<u32>], order: usize) -> Self {
        assert!(order >= 1, "order must be at least 1");
        // Count into contexts borrowed from the sequences, each with a short
        // token-sorted `(token, count)` list: no allocation per position.
        let mut counting: Vec<HashMap<&[u32], Continuations>> =
            (0..order).map(|_| HashMap::new()).collect();
        for seq in sequences {
            for (i, &next) in seq.iter().enumerate() {
                for (l, table) in counting.iter_mut().enumerate().take(i + 1) {
                    let conts = table.entry(&seq[i - l..i]).or_default();
                    match conts.binary_search_by_key(&next, |&(token, _)| token) {
                        Ok(k) => conts[k].1 += 1,
                        Err(k) => conts.insert(k, (next, 1)),
                    }
                }
            }
        }
        // Freeze: each distinct context is copied out once.
        let tables = counting
            .into_iter()
            .map(|table| {
                let mut frozen = HashMap::with_capacity(table.len());
                for (ctx, mut conts) in table {
                    conts.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    frozen.insert(ctx.to_vec(), conts);
                }
                frozen
            })
            .collect();
        NgramModel { order, tables }
    }

    /// The maximum context length + 1.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Continuations for `context`, backing off to shorter contexts until one
    /// has data. Returns the empty slice only for an empty training set.
    pub fn predict(&self, context: &[u32]) -> &[(u32, u32)] {
        let max_l = (self.order - 1).min(context.len());
        for l in (0..=max_l).rev() {
            let ctx = &context[context.len() - l..];
            if let Some(conts) = self.tables[l].get(ctx) {
                if !conts.is_empty() {
                    return conts;
                }
            }
        }
        &[]
    }

    /// Top-k sampling (§3.2, k = 10 in the paper): restrict to the `k`
    /// highest-count continuations and sample proportionally to count.
    pub fn sample_top_k<R: Rng>(&self, rng: &mut R, context: &[u32], k: usize) -> Option<u32> {
        let conts = self.predict(context);
        if conts.is_empty() {
            return None;
        }
        let top = &conts[..k.min(conts.len())];
        let total: u64 = top.iter().map(|(_, c)| *c as u64).sum();
        let mut at = rng.random_range(0..total);
        for (tok, c) in top {
            if at < *c as u64 {
                return Some(*tok);
            }
            at -= *c as u64;
        }
        Some(top[top.len() - 1].0)
    }

    /// Number of distinct contexts stored (all orders).
    pub fn context_count(&self) -> usize {
        self.tables.iter().map(|table| table.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> NgramModel {
        // Sequences: 1 2 3 4, 1 2 3 5, 9 2 7.
        NgramModel::train(&[vec![1, 2, 3, 4], vec![1, 2, 3, 5], vec![9, 2, 7]], 3)
    }

    #[test]
    fn highest_order_wins() {
        let m = model();
        // Context [2, 3]: continuations {4, 5}.
        let conts = m.predict(&[2, 3]);
        let toks: Vec<u32> = conts.iter().map(|(t, _)| *t).collect();
        assert_eq!(toks.len(), 2);
        assert!(toks.contains(&4) && toks.contains(&5));
    }

    #[test]
    fn backoff_on_unseen_context() {
        let m = model();
        // Context [42, 2] unseen at order 2; backs off to [2] → {3, 7}.
        let conts = m.predict(&[42, 2]);
        let toks: Vec<u32> = conts.iter().map(|(t, _)| *t).collect();
        assert!(toks.contains(&3));
        assert!(toks.contains(&7));
    }

    #[test]
    fn unigram_fallback() {
        let m = model();
        let conts = m.predict(&[12345]);
        assert!(!conts.is_empty());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = model();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            assert_eq!(m.sample_top_k(&mut r1, &[1], 10), m.sample_top_k(&mut r2, &[1], 10));
        }
    }

    #[test]
    fn top_k_restricts_candidates() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(3);
        // With k = 1, sampling always picks the single most frequent token.
        let first = m.predict(&[2]).first().map(|(t, _)| *t);
        for _ in 0..10 {
            assert_eq!(m.sample_top_k(&mut rng, &[2], 1), first);
        }
    }

    #[test]
    fn empty_model_returns_none() {
        let m = NgramModel::train(&[], 3);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.sample_top_k(&mut rng, &[1], 10), None);
        assert_eq!(m.context_count(), 0);
    }
}
