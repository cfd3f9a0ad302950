//! Pin for the language model: the programs two trained generators sample
//! must hash to recorded values, together with the size of each model.
//!
//! The default model is the library's order-12 generator (400 merges,
//! 1,500-token cap) trained on an 80-program corpus, which is the model the
//! service benchmark's worker children train. The small model is the
//! order-8 generator of the seed-6 workload. Each generator samples 300
//! programs from one RNG stream, so the pin covers header choice, every
//! sampled token, the brace and `<EOF>` stopping rules and the trailing
//! `;`. A change to how the tokenizer or the n-gram model trains, stores or
//! samples that moves any token moves the hash.
//!
//! The corpus pin hashes the training corpora themselves, byte for byte,
//! and every program's token ids under the default and the small model's
//! tokenizer, so a change to how the corpus is written or how the tokenizer
//! segments text moves its hash even where no sampled program would.

use comfort::core::campaign::CampaignConfig;
use comfort::core::checkpoint::Fingerprint;
use comfort::lm::{Bpe, Generator, GeneratorConfig, NgramModel, EOF_MARK};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Programs sampled from each generator.
const PROGRAMS: usize = 300;

/// Seed of the training corpus.
const CORPUS_SEED: u64 = 9;

/// Programs in the training corpus.
const CORPUS_PROGRAMS: usize = 80;

/// Hashes `PROGRAMS` programs of a generator trained with `config`, with
/// its vocabulary size and stored context count.
fn pin(config: GeneratorConfig, rng_seed: u64) -> String {
    let corpus = comfort::corpus::training_corpus(CORPUS_SEED, CORPUS_PROGRAMS);
    let generator = Generator::train(&corpus, config.clone());
    // The generator's model, trained again from its own tokenizer the way
    // `Generator::train` trains it.
    let sequences: Vec<Vec<u32>> =
        corpus.iter().map(|p| generator.bpe().encode(&format!("{p}{EOF_MARK}"))).collect();
    let model = NgramModel::train(&sequences, config.order);

    let mut fp = Fingerprint::new();
    fp.mix_u64(generator.bpe().vocab_size() as u64);
    fp.mix_u64(model.context_count() as u64);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut bytes = 0usize;
    for _ in 0..PROGRAMS {
        let program = generator.generate(&mut rng);
        bytes += program.len();
        fp.mix_str(&program);
    }
    assert!(bytes > PROGRAMS * 40, "the programs are not trivial: {bytes} bytes");
    format!(
        "vocab {} contexts {} programs {:016x}",
        generator.bpe().vocab_size(),
        model.context_count(),
        fp.finish()
    )
}

#[test]
fn default_order12_model_keeps_its_programs() {
    let config = CampaignConfig::default().lm;
    assert_eq!(config.order, 12);
    assert_eq!(pin(config, 0x1a12), "vocab 485 contexts 95522 programs fcf04d4c974c01b9");
}

#[test]
fn small_order8_model_keeps_its_programs() {
    let config = GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 };
    assert_eq!(pin(config, 0x1a08), "vocab 285 contexts 45799 programs b800b0645495e600");
}

/// Hashes the corpora of the 64 seeds `0xC0FF_0000..0xC0FF_0040` (80
/// programs each, a service child's corpus) and of `0xC0FF` (260 programs,
/// the library default), and each program's token ids under the tokenizers
/// the default (400 merges) and the small (200 merges) model train on the
/// 80-program pin corpus.
#[test]
fn corpus_and_its_encodings_keep_their_bytes() {
    let pin_corpus: Vec<String> = comfort::corpus::training_corpus(CORPUS_SEED, CORPUS_PROGRAMS)
        .into_iter()
        .map(|p| format!("{p}{EOF_MARK}"))
        .collect();
    let tokenizers = [Bpe::train(&pin_corpus, 400), Bpe::train(&pin_corpus, 200)];
    let mut corpora: Vec<Vec<String>> = (0..64)
        .map(|i| comfort::corpus::training_corpus(0xC0FF_0000 | i, CORPUS_PROGRAMS))
        .collect();
    corpora.push(comfort::corpus::training_corpus(0xC0FF, 260));

    let mut text = Fingerprint::new();
    let mut ids = [Fingerprint::new(), Fingerprint::new()];
    let (mut programs, mut bytes, mut tokens) = (0usize, 0usize, [0usize; 2]);
    for corpus in &corpora {
        text.mix_u64(corpus.len() as u64);
        for program in corpus {
            programs += 1;
            bytes += program.len();
            text.mix_str(program);
            let with_eof = format!("{program}{EOF_MARK}");
            for ((bpe, fp), count) in tokenizers.iter().zip(&mut ids).zip(&mut tokens) {
                let encoded = bpe.encode(&with_eof);
                *count += encoded.len();
                fp.mix_u64(encoded.len() as u64);
                for id in encoded {
                    fp.mix_u64(u64::from(id));
                }
            }
        }
    }
    let [default_ids, small_ids] = ids;
    let summary = format!(
        "programs {programs} bytes {bytes} corpus {:016x} \
         default tokens {} ids {:016x} small tokens {} ids {:016x}",
        text.finish(),
        tokens[0],
        default_ids.finish(),
        tokens[1],
        small_ids.finish()
    );
    assert_eq!(
        summary,
        "programs 5380 bytes 2522509 corpus 38e1270740ba5f8f \
         default tokens 1105560 ids 09208cc6a1638718 small tokens 1309582 ids 8355c5ca75bc18a8"
    );
}
