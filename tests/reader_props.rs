//! Properties of the JSON reader every wire format reads through:
//!
//! * a random [`JsonValue`] tree (exact big integers, floats, escapes,
//!   nesting up to the bound) renders and parses back to itself;
//! * a document nested past [`MAX_DEPTH`] is refused with an error naming
//!   the bound, however deep, and never overflows a stack;
//! * byte soup, and single-byte mutations of a real journal shard record,
//!   an event line, a campaign spec and a request frame, go through
//!   `CampaignCheckpoint::load`, `CampaignSpec::from_json_str`,
//!   `Request::from_json_str` and `Event::parse` as `Ok` or `Err`, never as
//!   a panic. Mutated journal payloads are framed with their own CRC, so
//!   they reach the record reader instead of being salvaged as a torn tail.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use comfort::core::checkpoint::CampaignCheckpoint;
use comfort::core::resilience::ChaosConfig;
use comfort::engines::FaultPlan;
use comfort::lm::GeneratorConfig;
use comfort::service::spec::CampaignSpec;
use comfort::service::wire::Request;
use comfort::telemetry::frame::frame_line;
use comfort::telemetry::json::{parse, JsonValue, MAX_DEPTH};
use comfort::telemetry::Event;

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/crates/core/tests/fixtures/seed2-3x20.ckpt");

/// Characters strings are drawn from: every escape the writer emits, raw
/// control characters, and multi-byte UTF-8.
const CHARS: [char; 16] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
    '\u{2028}', '😀',
];

/// Bytes a mutation writes: JSON structure, escapes, number signs and
/// letters, and the lead byte of a multi-byte sequence.
const MUTATIONS: [u8; 20] = [
    b'{', b'}', b'[', b']', b'"', b'\\', b',', b':', b'0', b'9', b'-', b'+', b'.', b'e', b'u',
    b'n', b' ', b'x', 0x01, 0xC3,
];

fn string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..CHARS.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

/// Any finite float (JSON has no other), from its bits.
fn float() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let n = f64::from_bits(bits);
        if n.is_finite() {
            n
        } else {
            f64::from_bits(bits ^ (1 << 52))
        }
    })
}

fn leaf() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(JsonValue::from),
        any::<u64>().prop_map(JsonValue::from),
        (any::<u64>(), any::<u64>())
            .prop_map(|(hi, lo)| JsonValue::Int(((hi as i128) << 64) | lo as i128)),
        float().prop_map(JsonValue::Number),
        any::<i64>().prop_map(|i| JsonValue::Number(i as f64)),
        (1u64..1_000_000).prop_map(|k| JsonValue::Number(k as f64 * 1e19)),
        string().prop_map(JsonValue::String),
    ]
    .boxed()
}

fn tree() -> BoxedStrategy<JsonValue> {
    leaf().prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(JsonValue::Array),
            proptest::collection::vec((string(), inner), 0..6).prop_map(JsonValue::object),
        ]
    })
}

/// Levels of arrays and objects in `v`.
fn depth(v: &JsonValue) -> usize {
    match v {
        JsonValue::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        JsonValue::Object(members) => 1 + members.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

/// `depth` arrays and objects, alternating, around `core`.
fn nest(depth: usize, core: JsonValue) -> JsonValue {
    (0..depth).fold(core, |inner, level| {
        if level % 2 == 0 {
            JsonValue::Array(vec![inner])
        } else {
            JsonValue::object([("k", inner)])
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_tree_parses_back_from_its_rendering(v in tree()) {
        let text = v.to_json();
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        prop_assert_eq!(&back, &v, "{}", text);
        prop_assert_eq!(back.to_json(), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn nesting_up_to_the_bound_reads_and_past_it_is_refused(core in tree()) {
        let deepest = nest(MAX_DEPTH - depth(&core), core);
        prop_assert_eq!(depth(&deepest), MAX_DEPTH);
        prop_assert_eq!(parse(&deepest.to_json()).expect("at the bound"), deepest.clone());
        let text = JsonValue::Array(vec![deepest]).to_json();
        let err = parse(&text).expect_err("past the bound");
        prop_assert!(err.contains(&format!("nesting deeper than {MAX_DEPTH}")), "{}", err);
    }
}

#[test]
fn unbounded_brackets_are_refused_without_recursing() {
    for open in ["[", "{\"k\":"] {
        let text = format!("{{\"cmd\":\"status\",\"campaign\":{}", open.repeat(100_000));
        let err = parse(&text).expect_err("refused");
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(Request::from_json_str(&text).is_err());
        assert!(CampaignSpec::from_json_str(&text).is_err());
        assert!(Event::parse(&text).is_err());
    }
}

/// The documents the mutations start from.
struct Seeds {
    header: String,
    shard: String,
    event: String,
    spec: String,
    request: String,
}

fn seeds() -> &'static Seeds {
    static SEEDS: std::sync::OnceLock<Seeds> = std::sync::OnceLock::new();
    SEEDS.get_or_init(|| {
        let fixture = std::fs::read_to_string(FIXTURE).expect("read the fixture");
        let mut payloads = fixture.lines().map(|line| line.splitn(4, ' ').nth(3).expect("framed"));
        let header = payloads.next().expect("a header").to_string();
        let shard = payloads.next().expect("a shard record").to_string();
        let (checkpoint, _) = CampaignCheckpoint::load(Path::new(FIXTURE)).expect("loads");
        let event = checkpoint.shards[0].events[3].to_json();
        let spec = CampaignSpec {
            name: Some("nightly \"deep\"\n".to_string()),
            seed: Some(u64::MAX - 3),
            lm: Some(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 }),
            max_cases: Some(60),
            keep_invalid_fraction: Some(0.25),
            checkpoint: Some("/tmp/x.ckpt".to_string()),
            contain_panics: Some(false),
            chaos: Some(ChaosConfig::on(FaultPlan::new(7).panic_rate(0.5), vec![0, 2])),
            ..CampaignSpec::for_tenant("acme")
        };
        let request = Request::Submit(Box::new(spec.clone())).to_json();
        Seeds { header, shard, event, spec: spec.to_json(), request }
    })
}

/// A journal path of this process for `tag`.
fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("comfort-reader-props-{}-{tag}.ckpt", std::process::id()))
}

/// The header record and `payload` as a journal at `path`.
fn write_journal(path: &Path, payload: &str) -> bool {
    let Ok(frame) = frame_line(payload) else { return false };
    let header = frame_line(&seeds().header).expect("framed");
    std::fs::write(path, format!("{header}{frame}")).expect("write the journal");
    true
}

/// Every reader over `text`; each must return, whatever it returns.
fn read_everything(text: &str, journal: &Path) {
    let _ = Event::parse(text);
    let _ = CampaignSpec::from_json_str(text);
    let _ = Request::from_json_str(text);
    if write_journal(journal, text) {
        let _ = CampaignCheckpoint::load(journal);
        let _ = CampaignCheckpoint::read_shard(journal, 0);
        std::fs::remove_file(journal).ok();
    }
}

/// `seed` with the byte at `at` (modulo its length) replaced by `byte`,
/// when the result is still UTF-8.
fn mutate(seed: &str, at: u64, byte: usize) -> Option<String> {
    let mut bytes = seed.as_bytes().to_vec();
    let at = (at % bytes.len() as u64) as usize;
    bytes[at] = MUTATIONS[byte];
    String::from_utf8(bytes).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn single_byte_mutations_never_panic_a_reader(at in any::<u64>(), byte in 0..MUTATIONS.len()) {
        let seeds = seeds();
        for seed in [&seeds.shard, &seeds.event, &seeds.spec, &seeds.request] {
            if let Some(text) = mutate(seed, at, byte) {
                read_everything(&text, &journal_path("mutated"));
            }
        }
    }

    #[test]
    fn byte_soup_never_panics_a_reader(soup in proptest::collection::vec(0..MUTATIONS.len(), 0..64)) {
        let bytes: Vec<u8> = soup.into_iter().map(|i| MUTATIONS[i]).collect();
        read_everything(&String::from_utf8_lossy(&bytes), &journal_path("soup"));
    }
}

#[test]
fn the_unmutated_seeds_read() {
    let seeds = seeds();
    Event::parse(&seeds.event).expect("the event reads");
    CampaignSpec::from_json_str(&seeds.spec).expect("the spec reads");
    Request::from_json_str(&seeds.request).expect("the request reads");
    let path = journal_path("seed");
    assert!(write_journal(&path, &seeds.shard));
    let (checkpoint, _) = CampaignCheckpoint::load(&path).expect("the shard record reads");
    assert_eq!(checkpoint.shards.len(), 1);
    std::fs::remove_file(&path).ok();
}
