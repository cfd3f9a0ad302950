//! Pin for the compile-time API footprint: every footprint `compile`
//! extracts over the evaluator golden file's inputs (the 120 corpus seeds
//! and the ECMA-guided mutants of seeds 0..24) must hash to one recorded
//! value. The footprint decides which testbeds share an execution, so a
//! change to how it is extracted or stored must leave every answer it gives
//! alone: the sorted atom set, the index-store bit, the poison bit and the
//! strict-sites bit.

use comfort::core::checkpoint::Fingerprint;
use comfort::core::datagen::{DataGen, DataGenConfig};
use comfort::interp::{compile, ApiFootprint};
use comfort::syntax::{parse, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The hash of every footprint below, in input order.
const FOOTPRINTS: &str = "61addb6525f97d56";

fn corpus_program(seed: u64) -> Program {
    let src = comfort::corpus::training_corpus(seed, 1).remove(0);
    parse(&src).expect("corpus parses")
}

fn mix(fp: &mut Fingerprint, footprint: &ApiFootprint) {
    let atoms: Vec<&str> = footprint.atoms().collect();
    fp.mix_u64(atoms.len() as u64);
    for atom in atoms {
        fp.mix_str(atom);
    }
    fp.mix_bool(footprint.has_index_store());
    fp.mix_bool(footprint.is_poisoned());
    fp.mix_bool(footprint.has_strict_sites());
}

#[test]
fn footprints_of_the_golden_inputs_keep_their_hash() {
    let mut fp = Fingerprint::new();
    let mut programs = 0u64;
    for seed in 0..120u64 {
        mix(&mut fp, &compile(&corpus_program(seed)).footprint);
        programs += 1;
    }
    let datagen = DataGen::new(comfort::ecma262::spec_db(), DataGenConfig::default());
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut next_id = 0u64;
    for seed in 0..24u64 {
        for case in datagen.mutate(&corpus_program(seed), seed, &mut next_id, &mut rng) {
            mix(&mut fp, &compile(&case.program).footprint);
            programs += 1;
        }
    }
    assert!(programs > 120, "the mutants are part of the input");
    assert_eq!(format!("{:016x}", fp.finish()), FOOTPRINTS);
}
