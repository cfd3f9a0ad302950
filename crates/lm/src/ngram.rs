//! Back-off n-gram language model over BPE token ids.
//!
//! This is the deep-model stand-in (see DESIGN.md §1): the **context order**
//! plays the role of model capacity. COMFORT's GPT-2 is simulated with a long
//! context (order 12 — long-range dependence, balanced brackets), the
//! DeepSmith/Montage LSTM with a short one (order 2–3), which is precisely
//! the contrast the paper evaluates in Figure 9.
//!
//! The model is a flat back-off automaton (DESIGN.md §16): one node per
//! distinct stored context, each with its continuations and, for each
//! continuation, the node a generation cursor moves to after sampling it.

use rand::Rng;

/// The node of the empty context.
const ROOT: u32 = 0;

/// No continuation or no node.
const NONE: u32 = u32::MAX;

/// One distinct stored context: a context of at most `order - 1` tokens
/// that occurs before some token of a training sequence.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The node of the same context without its oldest token (the root
    /// links to itself).
    suffix: u32,
    /// The context's range in `continuations` and `next`.
    start: u32,
    end: u32,
}

/// A trained back-off n-gram model.
#[derive(Debug, Clone)]
pub struct NgramModel {
    order: usize,
    /// Node 0 is the root; every other node has at least one continuation.
    nodes: Vec<Node>,
    /// Each node's `(token, count)` list, sorted by count descending, then
    /// token ascending.
    continuations: Vec<(u32, u32)>,
    /// For each continuation, the node of the longest stored suffix of its
    /// context followed by its token: where a cursor goes after sampling it.
    next: Vec<u32>,
    /// The root's transition for every token id below the vocabulary bound
    /// (`ROOT` for a token that is never followed).
    root_next: Vec<u32>,
}

/// A continuation while counting: one per distinct (context, token).
struct Edge {
    token: u32,
    count: u32,
    /// The node of the context followed by `token`, once that occurs
    /// before a sequence's last token within the order.
    child: u32,
    /// The same token's continuation of the suffix node (`NONE` at the
    /// root). It is always created before this one.
    backoff: u32,
    /// The next continuation of the same node.
    sibling: u32,
}

impl NgramModel {
    /// Trains on token sequences with contexts up to `order - 1` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn train(sequences: &[Vec<u32>], order: usize) -> Self {
        assert!(order >= 1, "order must be at least 1");
        let vocab = sequences.iter().flatten().max().map_or(0, |&t| t as usize + 1);
        // Counting nodes as `(suffix, first continuation)`.
        let mut nodes: Vec<(u32, u32)> = vec![(ROOT, NONE)];
        let mut edges: Vec<Edge> = Vec::new();
        let mut root_edge = vec![NONE; vocab];
        // `active[l]` is the node of the length-`l` context before the
        // current token; `following` collects them for the next token.
        let mut active: Vec<u32> = Vec::with_capacity(order);
        let mut following: Vec<u32> = Vec::with_capacity(order);
        for seq in sequences {
            active.clear();
            active.push(ROOT);
            for (i, &token) in seq.iter().enumerate() {
                let more = i + 1 < seq.len();
                following.clear();
                following.push(ROOT);
                let mut backoff = NONE;
                for (depth, &node) in active.iter().enumerate() {
                    let mut e = if node == ROOT {
                        root_edge[token as usize]
                    } else {
                        let mut e = nodes[node as usize].1;
                        while e != NONE && edges[e as usize].token != token {
                            e = edges[e as usize].sibling;
                        }
                        e
                    };
                    if e == NONE {
                        e = edges.len() as u32;
                        let first = &mut nodes[node as usize].1;
                        edges.push(Edge { token, count: 0, child: NONE, backoff, sibling: *first });
                        *first = e;
                        if node == ROOT {
                            root_edge[token as usize] = e;
                        }
                    }
                    let edge = &mut edges[e as usize];
                    edge.count += 1;
                    if more && depth + 1 < order {
                        if edge.child == NONE {
                            edge.child = nodes.len() as u32;
                            nodes.push((following[depth], NONE));
                        }
                        following.push(edge.child);
                    }
                    backoff = e;
                }
                std::mem::swap(&mut active, &mut following);
            }
        }

        // Freeze: lay each node's continuations out in sampling order.
        let mut slot = vec![0u32; edges.len()];
        let mut continuations = Vec::with_capacity(edges.len());
        let mut frozen = Vec::with_capacity(nodes.len());
        let mut scratch: Vec<(u32, u32, u32)> = Vec::new();
        for &(suffix, first) in &nodes {
            scratch.clear();
            let mut e = first;
            while e != NONE {
                let edge = &edges[e as usize];
                scratch.push((edge.token, edge.count, e));
                e = edge.sibling;
            }
            scratch.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let start = continuations.len() as u32;
            for &(token, count, e) in &scratch {
                slot[e as usize] = continuations.len() as u32;
                continuations.push((token, count));
            }
            frozen.push(Node { suffix, start, end: continuations.len() as u32 });
        }
        // A continuation without a child backs off to its suffix node's
        // continuation, whose target is already known.
        let mut target = vec![ROOT; edges.len()];
        let mut next = vec![ROOT; edges.len()];
        for (e, edge) in edges.iter().enumerate() {
            target[e] = match (edge.child, edge.backoff) {
                (NONE, NONE) => ROOT,
                (NONE, backoff) => target[backoff as usize],
                (child, _) => child,
            };
            next[slot[e] as usize] = target[e];
        }
        let root_next =
            root_edge.iter().map(|&e| if e == NONE { ROOT } else { target[e as usize] }).collect();
        NgramModel { order, nodes: frozen, continuations, next, root_next }
    }

    /// The maximum context length + 1.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Continuations for `context`, backing off to shorter contexts until one
    /// has data. Returns the empty slice only for an empty training set.
    pub fn predict(&self, context: &[u32]) -> &[(u32, u32)] {
        self.continuations_of(self.cursor(context))
    }

    /// Top-k sampling (§3.2, k = 10 in the paper): restrict to the `k`
    /// highest-count continuations and sample proportionally to count.
    pub fn sample_top_k<R: Rng>(&self, rng: &mut R, context: &[u32], k: usize) -> Option<u32> {
        self.sample_step(rng, self.cursor(context), k).map(|(token, _)| token)
    }

    /// Number of distinct contexts stored (all orders).
    pub fn context_count(&self) -> usize {
        // The root stores the empty context only if some token follows it.
        self.nodes.len() - usize::from(self.continuations.is_empty())
    }

    /// The cursor of `context`: the node of its longest stored suffix,
    /// reached by walking its last `order - 1` tokens from the root.
    pub(crate) fn cursor(&self, context: &[u32]) -> u32 {
        let window = &context[context.len().saturating_sub(self.order - 1)..];
        window.iter().fold(ROOT, |node, &token| self.step(node, token))
    }

    /// Top-k sampling from `cursor`'s continuations: the sampled token and
    /// the cursor after it.
    pub(crate) fn sample_step<R: Rng>(
        &self,
        rng: &mut R,
        cursor: u32,
        k: usize,
    ) -> Option<(u32, u32)> {
        let start = self.nodes[cursor as usize].start as usize;
        let conts = self.continuations_of(cursor);
        if conts.is_empty() {
            return None;
        }
        let top = &conts[..k.min(conts.len())];
        let total: u64 = top.iter().map(|(_, c)| *c as u64).sum();
        let mut at = rng.random_range(0..total);
        let mut pick = top.len() - 1;
        for (i, (_, c)) in top.iter().enumerate() {
            if at < *c as u64 {
                pick = i;
                break;
            }
            at -= *c as u64;
        }
        Some((top[pick].0, self.next[start + pick]))
    }

    /// The node of the longest stored suffix of `node`'s context followed
    /// by `token`.
    fn step(&self, mut node: u32, token: u32) -> u32 {
        while node != ROOT {
            let n = self.nodes[node as usize];
            let conts = &self.continuations[n.start as usize..n.end as usize];
            if let Some(k) = conts.iter().position(|&(t, _)| t == token) {
                return self.next[n.start as usize + k];
            }
            node = n.suffix;
        }
        self.root_next.get(token as usize).copied().unwrap_or(ROOT)
    }

    fn continuations_of(&self, node: u32) -> &[(u32, u32)] {
        let n = self.nodes[node as usize];
        &self.continuations[n.start as usize..n.end as usize]
    }

    /// The context length of `node`, as the suffix links from it to the
    /// root count it (`usize::MAX` past the order), so test oracles can
    /// check that a stored context's cursor is the context itself.
    #[cfg(test)]
    pub(crate) fn depth(&self, mut node: u32) -> usize {
        for depth in 0..self.order {
            if node == ROOT {
                return depth;
            }
            node = self.nodes[node as usize].suffix;
        }
        usize::MAX
    }

    /// The suffix link of `node`.
    #[cfg(test)]
    pub(crate) fn suffix(&self, node: u32) -> u32 {
        self.nodes[node as usize].suffix
    }

    /// Every node's continuations with the cursor after each.
    #[cfg(test)]
    pub(crate) fn transitions(&self, node: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let n = self.nodes[node as usize];
        (n.start as usize..n.end as usize).map(|k| (self.continuations[k].0, self.next[k]))
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

    #[test]
    fn no_node_follows_a_sequence_s_last_token() {
        // `[2, 3]` is followed only by the ends of sequences, so neither
        // it nor `[3]` is a node; the cursor after `3` backs off to the
        // root.
        let m = NgramModel::train(&[vec![1, 2, 3], vec![2, 3]], 3);
        // Nodes: [], [1], [2], [1, 2].
        assert_eq!(m.context_count(), 4);
        let after_two = m.cursor(&[1, 2]);
        assert_eq!(m.depth(after_two), 2);
        assert_eq!(m.transitions(after_two).collect::<Vec<_>>(), [(3, ROOT)]);
        assert_eq!(m.cursor(&[1, 2, 3]), ROOT);
    }
}
