//! The straightforward trainers and encoder, kept as test oracles for the
//! ones in [`bpe`](crate::bpe) and [`ngram`](crate::ngram).
//!
//! BPE recounts every adjacent pair of every word on each merge, and its
//! encoder builds a `String` probe for every prefix it looks up. The n-gram
//! oracle is the slice-keyed table model the back-off automaton replaced:
//! a hash map per context length, a probe per length on every prediction,
//! and a generation loop that re-probes with the whole token history and
//! decodes each token's text. They are slow and obviously right, and they
//! pin the rules the production trainers must keep:
//!
//! * the highest pair count wins, ties go to the lexicographically
//!   smallest `(left, right)` strings;
//! * a merge applies left to right without overlap;
//! * training stops when the best count is below 2;
//! * a merged string equal to an existing symbol is that symbol;
//! * the vocabulary keeps its `BTreeSet` order;
//! * encoding takes the longest token at each position of a word and skips
//!   a character no token starts with;
//! * a context is stored when some token follows it, with at most
//!   `order - 1` tokens;
//! * continuations are sorted by count descending, then token ascending;
//! * a prediction backs off to the longest stored suffix of its context.
//!
//! The property tests below train both ways on random corpora and assert
//! identical merges, vocabularies, encodings, stored contexts and their
//! continuations, predictions and generated programs.

use std::collections::{BTreeSet, HashMap};

use rand::Rng;

use crate::bpe::{pre_tokenize, Bpe};
use crate::generator::{brace_delta, Generator, EOF_MARK};
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

/// [`Bpe::encode`], growing a `String` probe one character at a time and
/// keeping the longest probe that is a token.
pub(crate) fn encode(bpe: &Bpe, text: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for word in pre_tokenize(text) {
        let chars: Vec<char> = word.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let mut best: Option<(usize, u32)> = None;
            let mut probe = String::new();
            for (j, &c) in chars.iter().enumerate().skip(i) {
                probe.push(c);
                if let Some(&id) = bpe.token_to_id.get(&probe) {
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

/// A context's `(token, count)` list, sorted by count descending.
type Continuations = Vec<(u32, u32)>;

/// The slice-keyed n-gram tables the automaton replaced: a map per
/// context length from each stored context to its continuations.
pub(crate) struct Tables {
    order: usize,
    /// `tables[l]` maps a length-`l` context to its continuations.
    pub(crate) tables: Vec<HashMap<Vec<u32>, Continuations>>,
}

impl Tables {
    /// [`NgramModel::train`], counting into maps keyed by context slices.
    pub(crate) fn train(sequences: &[Vec<u32>], order: usize) -> Tables {
        assert!(order >= 1, "order must be at least 1");
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
        let tables = counting
            .into_iter()
            .map(|table| {
                table
                    .into_iter()
                    .map(|(ctx, mut conts)| {
                        conts.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        (ctx.to_vec(), conts)
                    })
                    .collect()
            })
            .collect();
        Tables { order, tables }
    }

    /// [`NgramModel::predict`]: one probe per context length, longest
    /// first.
    pub(crate) fn predict(&self, context: &[u32]) -> &[(u32, u32)] {
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

    /// [`NgramModel::sample_top_k`].
    pub(crate) fn sample_top_k<R: Rng>(
        &self,
        rng: &mut R,
        context: &[u32],
        k: usize,
    ) -> Option<u32> {
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

    /// [`NgramModel::context_count`].
    pub(crate) fn context_count(&self) -> usize {
        self.tables.iter().map(|table| table.len()).sum()
    }
}

/// [`Generator::generate`] over `tables`, trained on the generator's own
/// tokenization of its corpus.
pub(crate) fn generate<R: Rng>(generator: &Generator, tables: &Tables, rng: &mut R) -> String {
    let header = &generator.headers[rng.random_range(0..generator.headers.len())];
    generate_from(generator, tables, rng, header)
}

/// [`Generator::generate_from`]: every token re-probes the tables with the
/// whole history and decodes its text.
pub(crate) fn generate_from<R: Rng>(
    generator: &Generator,
    tables: &Tables,
    rng: &mut R,
    header: &str,
) -> String {
    let config = &generator.config;
    let mut ids = generator.bpe.encode(header);
    let mut text = generator.bpe.decode(&ids);
    let mut depth = brace_delta(&text);
    let needs_semi = header.contains('=');

    for _ in 0..config.max_tokens {
        let Some(next) = tables.sample_top_k(rng, &ids, config.top_k) else {
            break;
        };
        let tok_text = generator.bpe.token_text(next).replace('\u{2581}', " ");
        if tok_text.contains(EOF_MARK) {
            break;
        }
        ids.push(next);
        text.push_str(&tok_text);
        depth += brace_delta(&tok_text);
        if depth <= 0 {
            break;
        }
    }
    if needs_semi && text.trim_end().ends_with('}') {
        text.push(';');
    }
    text.push('\n');
    text
}

mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::GeneratorConfig;

    fn strings(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|t| t.to_string()).collect()
    }

    fn merges_of(bpe: &Bpe) -> Vec<(&str, &str)> {
        bpe.merges.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect()
    }

    /// Trains both ways and asserts the same merges, vocabulary (in id
    /// order) and encodings of the corpus and of `probes`, each encoded by
    /// its own trainer's encoder.
    fn assert_same_bpe(corpus: &[String], n_merges: usize, probes: &[String]) -> Bpe {
        let fast = Bpe::train(corpus, n_merges);
        let oracle = train_bpe(corpus, n_merges);
        assert_eq!(fast.merges, oracle.merges, "merges differ on {corpus:?}");
        assert_eq!(fast.id_to_token, oracle.id_to_token, "vocabulary differs on {corpus:?}");
        assert_eq!(fast.token_to_id, oracle.token_to_id);
        for text in corpus.iter().chain(probes) {
            assert_eq!(fast.encode(text), encode(&oracle, text), "encoding of {text:?}");
        }
        fast
    }

    /// Trains both ways and asserts that the automaton stores exactly the
    /// oracle's contexts, each as its own node with the oracle's
    /// continuations, suffix link and transitions, and that both predict
    /// alike on every stored context and on perturbed ones.
    fn assert_same_ngram(sequences: &[Vec<u32>], order: usize, unseen: u32) {
        let fast = NgramModel::train(sequences, order);
        let oracle = Tables::train(sequences, order);
        assert_eq!(fast.context_count(), oracle.context_count(), "on {sequences:?} order {order}");
        // The longest stored suffix of `context`, as the oracle stores it.
        let longest = |context: &[u32]| -> Vec<u32> {
            (0..=context.len().min(order - 1))
                .rev()
                .map(|l| &context[context.len() - l..])
                .find(|ctx| oracle.tables[ctx.len()].contains_key(*ctx))
                .unwrap_or(&[])
                .to_vec()
        };
        for (l, table) in oracle.tables.iter().enumerate() {
            for (ctx, conts) in table {
                let node = fast.cursor(ctx);
                assert_eq!(fast.depth(node), l, "{ctx:?} is not a node");
                assert_eq!(fast.predict(ctx), conts.as_slice(), "continuations of {ctx:?}");
                if let Some((_, shorter)) = ctx.split_first() {
                    assert_eq!(fast.suffix(node), fast.cursor(shorter), "suffix link of {ctx:?}");
                }
                for (token, after) in fast.transitions(node) {
                    let extended = [ctx.as_slice(), &[token]].concat();
                    let target = longest(&extended);
                    assert_eq!(fast.depth(after), target.len(), "{ctx:?} then {token}");
                    assert_eq!(after, fast.cursor(&target), "{ctx:?} then {token}");
                }
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

    /// Generates from `generator` and from the oracle loop over the oracle
    /// tables of the generator's corpus, with the same RNG seeds, and
    /// asserts identical programs, from the header pool and from `header`.
    fn assert_same_generation(
        corpus: &[String],
        config: GeneratorConfig,
        seeds: &[u64],
        header: &str,
    ) {
        let generator = Generator::train(corpus, config);
        let sequences: Vec<Vec<u32>> =
            corpus.iter().map(|p| generator.bpe.encode(&format!("{p}{EOF_MARK}"))).collect();
        let oracle = Tables::train(&sequences, generator.config.order);
        for &seed in seeds {
            let (mut fast_rng, mut oracle_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..3 {
                assert_eq!(
                    generator.generate(&mut fast_rng),
                    generate(&generator, &oracle, &mut oracle_rng),
                    "seed {seed}"
                );
            }
            assert_eq!(
                generator.generate_from(&mut fast_rng, header),
                generate_from(&generator, &oracle, &mut oracle_rng, header),
                "seed {seed} header {header:?}"
            );
        }
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
        for order in [6, 12] {
            assert_same_ngram(&sequences, order, bpe.vocab_size() as u32);
        }
        let programs = comfort_corpus::training_corpus(3, 24);
        for (order, top_k) in [(12, 10), (12, 1), (8, 25), (3, 10)] {
            let config = GeneratorConfig { order, bpe_merges: 120, top_k, max_tokens: 600 };
            assert_same_generation(
                &programs,
                config,
                &[0, 1, 2, 3, 4],
                "var a = function(assert) {",
            );
        }
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
        fn slice_encoder_matches_the_probe_oracle(
            corpus in proptest::collection::vec("[abé本▁ \n(]{0,16}", 0..8),
            n_merges in 0usize..40,
            // `c`, `Ω`, `_` and `1` are never in the vocabulary.
            texts in proptest::collection::vec("[abcé本Ω▁ \n(_1]{0,24}", 0..6),
        ) {
            let bpe = Bpe::train(&corpus, n_merges);
            for text in corpus.iter().chain(&texts) {
                assert_eq!(bpe.encode(text), encode(&bpe, text), "encoding of {text:?}");
            }
        }

        #[test]
        fn the_automaton_matches_the_oracle_tables(
            sequences in prop_oneof![
                proptest::collection::vec(proptest::collection::vec(0u32..6, 0..24), 0..6),
                // Two tokens in long runs: deep contexts recur.
                proptest::collection::vec(proptest::collection::vec(0u32..2, 0..40), 0..4),
            ],
            order in 1usize..13,
        ) {
            assert_same_ngram(&sequences, order, 6);
        }

        #[test]
        fn generated_programs_match_the_oracle_loop(
            corpus in proptest::collection::vec("[a-c{}();=\"' \n]{0,30}", 0..8),
            order in 1usize..13,
            bpe_merges in 0usize..30,
            top_k in 1usize..12,
            max_tokens in 0usize..120,
            seed in any::<u64>(),
            header in "[a-c{}=' ]{0,10}",
        ) {
            let config = GeneratorConfig { order, bpe_merges, top_k, max_tokens };
            assert_same_generation(&corpus, config, &[seed, seed ^ 1], &header);
        }
    }
}
