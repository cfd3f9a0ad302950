//! The straightforward trainers, kept as test oracles for the incremental
//! ones in [`bpe`](crate::bpe) and [`ngram`](crate::ngram).
//!
//! These recount everything from scratch: BPE recounts every adjacent pair
//! of every word on each merge, the n-gram counter allocates a key per
//! `(position, order)`. They are slow and obviously right, and they pin
//! the rules the fast trainers must keep:
//!
//! * the highest pair count wins, ties go to the lexicographically
//!   smallest `(left, right)` strings;
//! * a merge applies left to right without overlap;
//! * training stops when the best count is below 2;
//! * a merged string equal to an existing symbol is that symbol;
//! * the vocabulary keeps its `BTreeSet` order;
//! * continuations are sorted by count descending, then token ascending.
//!
//! The property tests below train both ways on random corpora and assert
//! identical merges, vocabularies, encodings, n-gram tables and
//! predictions.

use std::collections::{BTreeSet, HashMap};

use crate::bpe::{pre_tokenize, Bpe};
use crate::ngram::NgramModel;

/// [`Bpe::train`], recounting every pair on every merge.
pub(crate) fn train_bpe(corpus: &[String], n_merges: usize) -> Bpe {
    let mut word_freq: HashMap<Vec<String>, u64> = HashMap::new();
    for text in corpus {
        for word in pre_tokenize(text) {
            let symbols: Vec<String> = word.chars().map(|c| c.to_string()).collect();
            *word_freq.entry(symbols).or_insert(0) += 1;
        }
    }

    let mut merges = Vec::with_capacity(n_merges);
    for _ in 0..n_merges {
        let mut pair_freq: HashMap<(String, String), u64> = HashMap::new();
        for (symbols, freq) in &word_freq {
            for w in symbols.windows(2) {
                *pair_freq.entry((w[0].clone(), w[1].clone())).or_insert(0) += freq;
            }
        }
        let Some((best, count)) =
            pair_freq.into_iter().max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        else {
            break;
        };
        if count < 2 {
            break;
        }
        let merged = format!("{}{}", best.0, best.1);
        let mut new_freq: HashMap<Vec<String>, u64> = HashMap::with_capacity(word_freq.len());
        for (symbols, freq) in word_freq {
            let mut out = Vec::with_capacity(symbols.len());
            let mut i = 0;
            while i < symbols.len() {
                if i + 1 < symbols.len() && symbols[i] == best.0 && symbols[i + 1] == best.1 {
                    out.push(merged.clone());
                    i += 2;
                } else {
                    out.push(symbols[i].clone());
                    i += 1;
                }
            }
            *new_freq.entry(out).or_insert(0) += freq;
        }
        word_freq = new_freq;
        merges.push(best);
    }

    let mut all: BTreeSet<String> = BTreeSet::new();
    for symbols in word_freq.keys() {
        for s in symbols {
            for c in s.chars() {
                all.insert(c.to_string());
            }
            all.insert(s.clone());
        }
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

/// [`NgramModel::train`], with an owned key and a map per count.
pub(crate) fn train_ngram(sequences: &[Vec<u32>], order: usize) -> NgramModel {
    assert!(order >= 1, "order must be at least 1");
    let mut counting: Vec<HashMap<Vec<u32>, HashMap<u32, u32>>> =
        (0..order).map(|_| HashMap::new()).collect();
    for seq in sequences {
        for i in 0..seq.len() {
            let next = seq[i];
            for l in 0..order.min(i + 1) {
                let ctx = seq[i - l..i].to_vec();
                *counting[l].entry(ctx).or_default().entry(next).or_insert(0) += 1;
            }
        }
    }
    let tables = counting
        .into_iter()
        .map(|t| {
            t.into_iter()
                .map(|(ctx, conts)| {
                    let mut v: Vec<(u32, u32)> = conts.into_iter().collect();
                    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    (ctx, v)
                })
                .collect()
        })
        .collect();
    NgramModel { order, tables }
}

mod tests {
    use proptest::prelude::*;

    use super::*;

    fn strings(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|t| t.to_string()).collect()
    }

    fn merges_of(bpe: &Bpe) -> Vec<(&str, &str)> {
        bpe.merges.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect()
    }

    /// Trains both ways and asserts the same merges, vocabulary (in id
    /// order) and encodings of the corpus and of `probes`.
    fn assert_same_bpe(corpus: &[String], n_merges: usize, probes: &[String]) -> Bpe {
        let fast = Bpe::train(corpus, n_merges);
        let oracle = train_bpe(corpus, n_merges);
        assert_eq!(fast.merges, oracle.merges, "merges differ on {corpus:?}");
        assert_eq!(fast.id_to_token, oracle.id_to_token, "vocabulary differs on {corpus:?}");
        assert_eq!(fast.token_to_id, oracle.token_to_id);
        for text in corpus.iter().chain(probes) {
            assert_eq!(fast.encode(text), oracle.encode(text), "encoding of {text:?}");
        }
        fast
    }

    /// Trains both ways and asserts identical tables, plus identical
    /// predictions on every stored context and on perturbed ones.
    fn assert_same_ngram(sequences: &[Vec<u32>], order: usize, unseen: u32) {
        let fast = NgramModel::train(sequences, order);
        let oracle = train_ngram(sequences, order);
        assert_eq!(fast.tables, oracle.tables, "tables differ on {sequences:?} order {order}");
        assert_eq!(fast.context_count(), oracle.context_count());
        for table in &oracle.tables {
            for ctx in table.keys() {
                let mut probes = vec![ctx.clone()];
                // A fresh token in front forces a back-off from an unseen
                // longer context; replacing the oldest token may land on a
                // seen or an unseen context.
                probes.push([&[unseen][..], ctx].concat());
                if let Some(first) = ctx.first() {
                    let mut swapped = ctx.clone();
                    swapped[0] = first.wrapping_add(1) % (unseen + 1);
                    probes.push(swapped);
                    probes.push([ctx.as_slice(), &[unseen]].concat());
                }
                for probe in &probes {
                    assert_eq!(fast.predict(probe), oracle.predict(probe), "predict({probe:?})");
                }
            }
        }
        assert_eq!(fast.predict(&[unseen, unseen]), oracle.predict(&[unseen, unseen]));
    }

    #[test]
    fn highest_count_wins_and_ties_take_the_smallest_strings() {
        // `(a, b)`, `(c, d)` and `(▁, c)` all occur twice; `(a, b)` is the
        // smallest. `(x, y)` occurs three times and goes first.
        let corpus = strings(&["ab cd\nxy", "ab cd\nxy xy"]);
        let bpe = assert_same_bpe(&corpus, 2, &[]);
        assert_eq!(merges_of(&bpe), [("x", "y"), ("a", "b")]);
    }

    #[test]
    fn runs_merge_left_to_right_without_overlap() {
        // `aaaa` has three overlapping `(a, a)` windows but merges to
        // `[aa, aa]`, and `aaa` to `[aa, a]`; `(aa, a)` then beats
        // `(aa, aa)` on the tie.
        let corpus = strings(&["aaaa\naaaa\naaa\naaa"]);
        let bpe = assert_same_bpe(&corpus, 10, &strings(&["aaaaa", "a"]));
        assert_eq!(merges_of(&bpe), [("a", "a"), ("aa", "a"), ("aa", "aa")]);
    }

    #[test]
    fn training_stops_when_no_pair_repeats() {
        let corpus = strings(&["abc def"]);
        let bpe = assert_same_bpe(&corpus, 10, &[]);
        assert_eq!(bpe.merge_count(), 0);
        let vocab: Vec<&str> = (0..bpe.vocab_size()).map(|i| bpe.token_text(i as u32)).collect();
        assert_eq!(vocab, ["a", "b", "c", "d", "e", "f", "\u{2581}"]);
    }

    #[test]
    fn empty_corpus_trains_empty_models() {
        let bpe = assert_same_bpe(&[], 20, &strings(&["var x"]));
        assert_eq!(bpe.vocab_size(), 0);
        assert_same_ngram(&[], 3, 0);
        assert_same_ngram(&[vec![], vec![]], 1, 0);
    }

    #[test]
    fn library_corpus_trains_identically() {
        let corpus: Vec<String> = comfort_corpus::training_corpus(3, 24)
            .into_iter()
            .map(|p| format!("{p}{}", crate::EOF_MARK))
            .collect();
        let bpe = assert_same_bpe(&corpus, 120, &strings(&["var undefinedName = 0x1f;"]));
        let sequences: Vec<Vec<u32>> = corpus.iter().map(|p| bpe.encode(p)).collect();
        assert_same_ngram(&sequences, 6, bpe.vocab_size() as u32);
    }

    /// Small corpora: runs over one or two letters (overlapping pairs, long
    /// merge chains, many count ties), and short code-like words with
    /// spaces and punctuation (the `▁` marker and one-character words).
    fn corpus() -> impl Strategy<Value = Vec<String>> {
        prop_oneof![
            proptest::collection::vec("[ab]{0,9}", 0..8),
            proptest::collection::vec("[aab \n]{0,24}", 0..6),
            proptest::collection::vec("[a-d_1.( ]{0,16}", 0..10),
        ]
        .prop_map(|texts| texts.into_iter().map(|t| t.to_string()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn incremental_bpe_matches_the_oracle(
            corpus in corpus(),
            n_merges in 0usize..40,
            probes in proptest::collection::vec("[a-d \n]{0,12}", 0..4),
        ) {
            assert_same_bpe(&corpus, n_merges, &probes);
        }

        #[test]
        fn slice_keyed_ngrams_match_the_oracle(
            sequences in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 0..24),
                0..6,
            ),
            order in 1usize..7,
        ) {
            assert_same_ngram(&sequences, order, 6);
        }
    }
}
