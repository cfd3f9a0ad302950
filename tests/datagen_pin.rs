//! Pin for ECMA-guided case preparation (Algorithm 1): every case that
//! `DataGen::base_case` and then `DataGen::mutate` return must hash to one
//! recorded value, and every case's source must be exactly what
//! `print_program` prints for its program.
//!
//! The hash covers each case's id, source, `Debug` rendering of its program
//! (so node ids count), origin and base id. The inputs are the 120 corpus
//! seeds, a stream of generated bases driven the way `Campaign::run` drives
//! them (one RNG seeded `seed ^ 0x5EED`, with the `keep_invalid_fraction`
//! draw on every program that fails to parse), and a few hand-written
//! programs: one built from synthesized nodes that all carry
//! `NodeId::DUMMY`, one whose two calls share an id, and one whose call
//! sites exercise the argument-count edits and a `var` without an
//! initializer.

use comfort::core::campaign::CampaignConfig;
use comfort::core::checkpoint::Fingerprint;
use comfort::core::datagen::{DataGen, DataGenConfig};
use comfort::core::testcase::TestCase;
use comfort::lm::{Generator, GeneratorConfig};
use comfort::syntax::ast::{build, ExprKind, StmtKind};
use comfort::syntax::{parse, print_program, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The hash of every case below, in generation order.
const CASES: &str = "3ba144f19afb83e9";

/// Generated bases taken from the language-model stream.
const STREAM_BASES: usize = 300;

/// Campaign seed of the generated stream.
const STREAM_SEED: u64 = 22;

fn corpus_program(seed: u64) -> Program {
    let src = comfort::corpus::training_corpus(seed, 1).remove(0);
    parse(&src).expect("corpus parses")
}

/// A program of synthesized nodes only: every id is `NodeId::DUMMY`.
fn dummy_id_program() -> Program {
    let substr = build::call(
        build::member(build::str("Name: Albert"), "substr"),
        vec![build::ident("start"), build::num(5.0)],
    );
    let slice = build::call(build::member(build::str("abc"), "slice"), vec![build::num(1.0)]);
    Program {
        body: vec![
            build::var_decl("start", build::num(6.0)),
            build::expr_stmt(build::call(build::ident("print"), vec![substr])),
            build::expr_stmt(build::call(build::ident("print"), vec![slice])),
        ],
        strict: false,
        node_count: 0,
    }
}

/// A parsed program whose second `slice` call takes the first one's id.
fn duplicate_id_program() -> Program {
    let mut program =
        parse("print(\"hello\".slice(1, 3));\nprint(\"world\".slice(2));\n").expect("parses");
    let first_call_id = |stmt: &comfort::syntax::Stmt| match &stmt.kind {
        StmtKind::Expr(e) => match &e.kind {
            ExprKind::Call { args, .. } => args[0].id,
            _ => unreachable!("a print call"),
        },
        _ => unreachable!("an expression statement"),
    };
    let id = first_call_id(&program.body[0]);
    if let StmtKind::Expr(e) = &mut program.body[1].kind {
        if let ExprKind::Call { args, .. } = &mut e.kind {
            args[0].id = id;
        }
    }
    program
}

/// Parsed call sites with zero, one and two arguments, a `new` call and a
/// `var` without an initializer.
const EDGE_PROGRAM: &str = "var n;\nvar s = \"abcdef\";\n\
print(s.substr(n));\nprint(s.substr());\nprint([3, 1, 2].join());\n\
print(new Array(n, 2).length);\nprint(s.slice(1, 4), s.indexOf(\"c\"));\n";

fn mix_case(fp: &mut Fingerprint, case: &TestCase) {
    fp.mix_u64(case.id);
    fp.mix_str(&case.source);
    fp.mix_str(&format!("{:?}", case.program));
    fp.mix_str(&format!("{:?}", case.origin));
    fp.mix_u64(case.base);
    assert_eq!(
        case.source,
        print_program(&case.program),
        "case {} of base {}: the source is not its program's print",
        case.id,
        case.base
    );
}

/// Runs `base_case` and then `mutate` on the driven base, as the campaign
/// loop does, and mixes every case; returns how many cases there were.
fn prepare<R: Rng>(
    datagen: &DataGen<'_>,
    fp: &mut Fingerprint,
    program: &Program,
    base_id: u64,
    next_id: &mut u64,
    rng: &mut R,
) -> usize {
    let base = datagen.base_case(program, base_id, next_id, rng);
    let mutants = datagen.mutate(&base.program, base_id, next_id, rng);
    mix_case(fp, &base);
    for case in &mutants {
        mix_case(fp, case);
    }
    1 + mutants.len()
}

#[test]
fn prepared_cases_keep_their_hash() {
    let datagen = DataGen::new(comfort::ecma262::spec_db(), DataGenConfig::default());
    let mut fp = Fingerprint::new();
    let mut cases = 0usize;

    let mut rng = StdRng::seed_from_u64(0xDA7A);
    let mut next_id = 0u64;
    for seed in 0..120u64 {
        cases += prepare(&datagen, &mut fp, &corpus_program(seed), seed, &mut next_id, &mut rng);
    }
    let hand_written = [dummy_id_program(), duplicate_id_program(), parse(EDGE_PROGRAM).unwrap()];
    for (i, program) in hand_written.iter().enumerate() {
        cases += prepare(&datagen, &mut fp, program, 1_000 + i as u64, &mut next_id, &mut rng);
    }

    let config = CampaignConfig { seed: STREAM_SEED, ..CampaignConfig::default() };
    let lm = GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 };
    let generator = Generator::train(&comfort::corpus::training_corpus(STREAM_SEED, 80), lm);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
    let (mut bases, mut base_counter, mut next_id) = (0usize, 0u64, 0u64);
    while bases < STREAM_BASES {
        let source = generator.generate(&mut rng);
        base_counter += 1;
        match parse(&source) {
            Ok(program) => {
                cases += prepare(&datagen, &mut fp, &program, base_counter, &mut next_id, &mut rng);
                bases += 1;
            }
            Err(_) => {
                let _kept = rng.random_bool(config.keep_invalid_fraction);
            }
        }
    }

    assert!(cases > 120 + STREAM_BASES, "mutants are part of the input: {cases} cases");
    assert_eq!(format!("{:016x}", fp.finish()), CASES, "over {cases} cases");
}
