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

use comfort::core::campaign::CampaignConfig;
use comfort::core::checkpoint::Fingerprint;
use comfort::lm::{Generator, GeneratorConfig, NgramModel, EOF_MARK};
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
