//! Byte-Pair-Encoding tokenizer (§3.2).
//!
//! Implements the same scheme the paper describes: count word frequencies,
//! break words into subword chunks by iteratively merging the most frequent
//! adjacent pair, and map each subword to an integer in a vocabulary table.
//! Common keywords (`var`, `for`, `if`) end up as whole tokens while rare
//! identifiers decompose into a few characters — allowing an unbounded
//! identifier space over a finite vocabulary.

use std::collections::{BTreeSet, HashMap};

/// Marker prefixed to space-separated word starts (the `Ġ` of GPT-2's BPE).
const SPACE_MARK: char = '\u{2581}'; // ▁

/// A trained BPE tokenizer.
#[derive(Debug, Clone)]
pub struct Bpe {
    /// Learned merges in priority order: `(left, right) -> merged`.
    pub(crate) merges: Vec<(String, String)>,
    pub(crate) token_to_id: HashMap<String, u32>,
    pub(crate) id_to_token: Vec<String>,
}

impl Bpe {
    /// Trains on `corpus` with at most `n_merges` merge operations.
    ///
    /// Each step merges the adjacent symbol pair with the highest
    /// frequency-weighted count, ties going to the lexicographically
    /// smallest `(left, right)` strings, and rewrites every occurrence left
    /// to right without overlap. Training stops early once no pair occurs
    /// twice. The work per step is proportional to the words the merged
    /// pair occurs in, not to the corpus (see [`MergeState`]).
    pub fn train(corpus: &[String], n_merges: usize) -> Self {
        // Word frequency table over pre-tokens.
        let mut word_freq: HashMap<String, u64> = HashMap::new();
        for text in corpus {
            for word in pre_tokenize(text) {
                *word_freq.entry(word).or_insert(0) += 1;
            }
        }
        let mut state = MergeState::new(word_freq);
        let mut merges = Vec::with_capacity(n_merges);
        for _ in 0..n_merges {
            match state.best_pair() {
                Some((pair, count)) if count >= 2 => merges.push(state.merge(pair)),
                _ => break,
            }
        }

        // Vocabulary: all residual symbols plus all single characters.
        // Collected into an ordered set first so token ids are deterministic
        // (HashMap iteration order would leak into generation otherwise).
        let mut all: BTreeSet<String> = BTreeSet::new();
        for s in state.residual_symbols() {
            for c in s.chars() {
                all.insert(c.to_string());
            }
            all.insert(s.to_string());
        }
        for (l, r) in &merges {
            all.insert(format!("{l}{r}"));
        }
        let mut token_to_id = HashMap::new();
        let mut id_to_token = Vec::new();
        for tok in all {
            token_to_id.insert(tok.clone(), id_to_token.len() as u32);
            id_to_token.push(tok);
        }

        Bpe { merges, token_to_id, id_to_token }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.id_to_token.len()
    }

    /// Number of merge operations learned during training.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Encodes `text` to token ids.
    ///
    /// Segmentation is greedy longest-match against the learned vocabulary —
    /// equivalent in coverage to replaying the merge sequence, but linear in
    /// practice (merge replay is O(merges × word) per word).
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        for word in pre_tokenize(text) {
            let chars: Vec<char> = word.chars().collect();
            let mut i = 0;
            while i < chars.len() {
                let mut best: Option<(usize, u32)> = None;
                let mut probe = String::new();
                for (j, &c) in chars.iter().enumerate().skip(i) {
                    probe.push(c);
                    if let Some(&id) = self.token_to_id.get(&probe) {
                        best = Some((j + 1, id));
                    }
                }
                match best {
                    Some((next, id)) => {
                        out.push(id);
                        i = next;
                    }
                    None => i += 1, // unknown character: skip
                }
            }
        }
        out
    }

    /// Decodes ids back to text.
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for &id in ids {
            if let Some(tok) = self.id_to_token.get(id as usize) {
                out.push_str(tok);
            }
        }
        out.replace(SPACE_MARK, " ")
    }

    /// Decodes a single token id.
    pub fn token_text(&self, id: u32) -> &str {
        self.id_to_token.get(id as usize).map(String::as_str).unwrap_or("")
    }
}

/// A symbol pair, as interned ids.
type Pair = (u32, u32);

/// The merge loop's incremental state.
///
/// Symbols are interned as `u32` ids; a merged string equal to an existing
/// symbol is that symbol. `pair_counts` holds the frequency-weighted count
/// of every adjacent pair (overlapping windows included, so `aaaa` counts
/// `(a, a)` three times), and `pair_words` indexes the words each pair
/// occurs in. A merge rewrites only the indexed words and applies their
/// count deltas.
struct MergeState {
    /// Symbol text by id.
    symbols: Vec<String>,
    ids: HashMap<String, u32>,
    /// Each distinct pre-token as a symbol sequence, with its frequency.
    words: Vec<(Vec<u32>, u64)>,
    /// Count of every pair occurring somewhere (no zero entries).
    pair_counts: HashMap<Pair, u64>,
    /// Words that may contain each pair: a superset, since a rewritten word
    /// stays listed under pairs it lost. Every word containing the pair is
    /// listed (possibly more than once).
    pair_words: HashMap<Pair, Vec<u32>>,
}

impl MergeState {
    fn new(word_freq: HashMap<String, u64>) -> Self {
        let mut state = MergeState {
            symbols: Vec::new(),
            ids: HashMap::new(),
            words: Vec::with_capacity(word_freq.len()),
            pair_counts: HashMap::new(),
            pair_words: HashMap::new(),
        };
        let mut buf = [0u8; 4];
        for (word, freq) in word_freq {
            let symbols: Vec<u32> =
                word.chars().map(|c| state.intern(c.encode_utf8(&mut buf))).collect();
            let w = state.words.len() as u32;
            for s in symbols.windows(2) {
                *state.pair_counts.entry((s[0], s[1])).or_insert(0) += freq;
                state.pair_words.entry((s[0], s[1])).or_default().push(w);
            }
            state.words.push((symbols, freq));
        }
        state
    }

    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.symbols.len() as u32;
        self.symbols.push(text.to_string());
        self.ids.insert(text.to_string(), id);
        id
    }

    fn text(&self, (l, r): Pair) -> (&str, &str) {
        (&self.symbols[l as usize], &self.symbols[r as usize])
    }

    /// The most frequent pair and its count; ties go to the smallest
    /// `(left, right)` strings.
    fn best_pair(&self) -> Option<(Pair, u64)> {
        let mut best: Option<(Pair, u64)> = None;
        for (&pair, &count) in &self.pair_counts {
            let wins = match best {
                None => true,
                Some((b, c)) => count > c || (count == c && self.text(pair) < self.text(b)),
            };
            if wins {
                best = Some((pair, count));
            }
        }
        best
    }

    /// Merges `pair` in every word containing it and returns the merge as
    /// strings.
    fn merge(&mut self, pair: Pair) -> (String, String) {
        let (left, right) = self.text(pair);
        let (left, right) = (left.to_string(), right.to_string());
        let merged = self.intern(&format!("{left}{right}"));
        // After the rewrite no word contains `pair`. A rewrite only creates
        // pairs with its merged symbol, so if a later merge produces `left`
        // or `right` again, it indexes the words the pair reappears in.
        let mut touched = self.pair_words.remove(&pair).unwrap_or_default();
        touched.sort_unstable();
        touched.dedup();
        for w in touched {
            let (symbols, freq) = &mut self.words[w as usize];
            let freq = *freq;
            if !symbols.windows(2).any(|s| (s[0], s[1]) == pair) {
                continue;
            }
            for s in symbols.windows(2) {
                let count = self.pair_counts.get_mut(&(s[0], s[1])).expect("counted pair");
                *count -= freq;
                if *count == 0 {
                    self.pair_counts.remove(&(s[0], s[1]));
                }
            }
            // Left to right, without overlap, in place.
            let (mut read, mut write) = (0, 0);
            while read < symbols.len() {
                if read + 1 < symbols.len() && (symbols[read], symbols[read + 1]) == pair {
                    symbols[write] = merged;
                    read += 2;
                } else {
                    symbols[write] = symbols[read];
                    read += 1;
                }
                write += 1;
            }
            symbols.truncate(write);
            for s in symbols.windows(2) {
                *self.pair_counts.entry((s[0], s[1])).or_insert(0) += freq;
                // Pairs without the merged symbol were adjacent before the
                // rewrite, so the index already lists this word under them.
                if s[0] == merged || s[1] == merged {
                    self.pair_words.entry((s[0], s[1])).or_default().push(w);
                }
            }
        }
        (left, right)
    }

    /// The distinct symbols left in the words after the last merge.
    fn residual_symbols(&self) -> impl Iterator<Item = &str> {
        let mut used = vec![false; self.symbols.len()];
        for (symbols, _) in &self.words {
            for &s in symbols {
                used[s as usize] = true;
            }
        }
        self.symbols.iter().zip(used).filter(|(_, used)| *used).map(|(s, _)| s.as_str())
    }
}

/// Splits source text into pre-tokens: identifier/number runs, single
/// punctuation characters, and explicit newlines. A leading space folds into
/// the following token as the `▁` marker.
pub(crate) fn pre_tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    let mut pending_space = false;
    while let Some(&c) = chars.peek() {
        if c == '\n' {
            chars.next();
            out.push("\n".to_string());
            pending_space = false;
            continue;
        }
        if c == ' ' || c == '\t' {
            chars.next();
            pending_space = true;
            continue;
        }
        let mut word = String::new();
        if pending_space {
            word.push(SPACE_MARK);
            pending_space = false;
        }
        if c.is_alphanumeric() || c == '_' || c == '$' {
            while let Some(&c2) = chars.peek() {
                if c2.is_alphanumeric()
                    || c2 == '_'
                    || c2 == '$'
                    || c2 == '.' && word.chars().last().is_some_and(|p| p.is_ascii_digit())
                {
                    word.push(c2);
                    chars.next();
                } else {
                    break;
                }
            }
        } else {
            word.push(c);
            chars.next();
        }
        out.push(word);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            "var x = foo(1);\nvar y = foo(2);\n".to_string(),
            "var z = foo(3);\nfunction foo(n) { return n; }\n".to_string(),
        ]
    }

    #[test]
    fn roundtrip_preserves_text() {
        let bpe = Bpe::train(&corpus(), 50);
        let text = "var x = foo(1);";
        assert_eq!(bpe.decode(&bpe.encode(text)), text);
    }

    #[test]
    fn newlines_survive() {
        let bpe = Bpe::train(&corpus(), 20);
        let text = "var x = 1;\nvar y = 2;";
        assert_eq!(bpe.decode(&bpe.encode(text)), text);
    }

    #[test]
    fn common_words_become_single_tokens() {
        let bpe = Bpe::train(&corpus(), 200);
        // `var` appears often; after enough merges it is one token (with its
        // space/newline context variants).
        let ids = bpe.encode("var");
        assert_eq!(ids.len(), 1, "`var` should be a single token");
    }

    #[test]
    fn unknown_chars_are_skipped_not_panicked() {
        let bpe = Bpe::train(&corpus(), 10);
        let ids = bpe.encode("本");
        assert!(ids.is_empty());
    }

    #[test]
    fn vocab_is_finite_and_bounded() {
        let bpe = Bpe::train(&corpus(), 30);
        assert!(bpe.vocab_size() > 10);
        assert!(bpe.vocab_size() < 200);
    }
}
