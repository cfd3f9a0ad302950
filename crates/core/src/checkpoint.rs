//! Crash-safe campaign checkpointing: the write-ahead shard journal,
//! config fingerprinting, and deterministic recovery.
//!
//! A 200-hour campaign (§6 of the paper) must survive its own process dying
//! — OOM, preemption, Ctrl-C — without losing completed work or corrupting
//! what was already on disk. This module provides the durability layer the
//! sharded executor builds on:
//!
//! * **Journal** ([`CheckpointJournal`]): an append-only file of framed
//!   records (`J1 <len> <crc32> <payload>`, one `write` per record — see
//!   [`comfort_telemetry::frame`]). A crash mid-append can tear only the
//!   final record; every earlier entry stays intact.
//! * **Fingerprint** ([`config_fingerprint`]): a stable FNV-1a hash over
//!   every configuration field that affects campaign *results*. A journal
//!   written under one fingerprint refuses to resume a campaign with
//!   another — resuming under a different config would silently produce a
//!   frankenreport.
//! * **Recovery** ([`CampaignCheckpoint::load`]): salvages every intact
//!   shard record, drops a torn or garbled tail (reported in a typed
//!   [`RecoveryReport`]), and validates fingerprint and shard plan.
//! * **Serialization**: full-fidelity JSON round-trip for
//!   [`CampaignReport`] (including `f64` fields, stored as exact bit
//!   patterns) and the shard's telemetry event stream, so a resumed
//!   campaign merges to a **bit-identical** report and replays a
//!   byte-identical logical event stream.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use comfort_engines::{ApiType, BugId, Component, EngineName};
use comfort_telemetry::event::json_string;
use comfort_telemetry::frame::{frame_line, read_framed};
use comfort_telemetry::json::{parse as parse_json, JsonValue};
use comfort_telemetry::{event_from_json, CampaignMetrics, CostHistogram, Event};

use crate::campaign::{Adjudication, BugReport, CampaignConfig, CampaignReport};
use crate::differential::DeviationKind;
use crate::filter::BugKey;
use crate::resilience::TestbedHealth;
use crate::testcase::Origin;

/// Journal format version (the `"version"` field of the header record).
pub const JOURNAL_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// An incremental FNV-1a (64-bit) mixer.
///
/// Hand-rolled rather than `DefaultHasher` because the fingerprint is
/// *persisted*: it must be stable across Rust releases and platforms, which
/// the standard hasher does not promise.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes one integer (little-endian bytes).
    pub fn mix_u64(&mut self, v: u64) {
        self.mix_bytes(&v.to_le_bytes());
    }

    /// Mixes a string, length-prefixed so field boundaries can't alias.
    pub fn mix_str(&mut self, s: &str) {
        self.mix_u64(s.len() as u64);
        self.mix_bytes(s.as_bytes());
    }

    /// Mixes a float by exact bit pattern.
    pub fn mix_f64(&mut self, v: f64) {
        self.mix_u64(v.to_bits());
    }

    /// Mixes a bool.
    pub fn mix_bool(&mut self, v: bool) {
        self.mix_u64(u64::from(v));
    }

    /// The accumulated fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprints every [`CampaignConfig`] field that affects campaign
/// *results*.
///
/// Deliberately excluded — changing them must NOT invalidate a journal:
/// `threads` (scheduling only; the determinism contract guarantees identical
/// results at any width), `backend` (one evaluator, never read), the
/// telemetry `sink`, the `cancel` token, the `deadline`, and the
/// `checkpoint` path itself.
pub fn config_fingerprint(config: &CampaignConfig) -> u64 {
    let mut fp = Fingerprint::new();
    fp.mix_u64(JOURNAL_VERSION);
    fp.mix_u64(config.seed);
    fp.mix_u64(config.corpus_programs as u64);
    fp.mix_u64(config.lm.order as u64);
    fp.mix_u64(config.lm.bpe_merges as u64);
    fp.mix_u64(config.lm.top_k as u64);
    fp.mix_u64(config.lm.max_tokens as u64);
    fp.mix_u64(config.datagen.max_mutants_per_program as u64);
    fp.mix_u64(config.datagen.random_mutants as u64);
    fp.mix_u64(config.max_cases as u64);
    fp.mix_u64(config.fuel);
    fp.mix_f64(config.sim_seconds_per_case);
    fp.mix_bool(config.include_strict);
    fp.mix_bool(config.include_legacy);
    fp.mix_bool(config.reduce_cases);
    fp.mix_f64(config.keep_invalid_fraction);
    fp.mix_u64(config.shard_cases as u64);
    // Execution policy: isolation, retry, quarantine, probe, quorum.
    fp.mix_bool(config.exec.isolation.contain_panics);
    fp.mix_u64(config.exec.isolation.watchdog_millis.map_or(u64::MAX, |w| w));
    fp.mix_u64(config.exec.isolation.max_output_bytes as u64);
    fp.mix_u64(u64::from(config.exec.retry.max_retries));
    fp.mix_u64(config.exec.retry.backoff_base_millis);
    fp.mix_u64(u64::from(config.exec.quarantine_after));
    fp.mix_u64(u64::from(config.exec.probe_after));
    fp.mix_u64(config.exec.quorum.min_voters as u64);
    // Chaos plan (when any).
    fp.mix_bool(config.chaos.is_some());
    if let Some(chaos) = &config.chaos {
        fp.mix_u64(chaos.plan.seed);
        fp.mix_f64(chaos.plan.abort_rate);
        fp.mix_u64(chaos.plan.abort_signal as u64);
        fp.mix_f64(chaos.plan.panic_rate);
        fp.mix_f64(chaos.plan.hang_rate);
        fp.mix_f64(chaos.plan.garbage_rate);
        fp.mix_f64(chaos.plan.transient_rate);
        fp.mix_u64(u64::from(chaos.plan.transient_persistence));
        fp.mix_u64(chaos.plan.hang_millis);
        fp.mix_u64(chaos.plan.garbage_bytes as u64);
        fp.mix_u64(chaos.testbeds.len() as u64);
        for &i in &chaos.testbeds {
            fp.mix_u64(i as u64);
        }
    }
    fp.finish()
}

// ---------------------------------------------------------------------------
// Errors & recovery reporting
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be created, loaded, or trusted.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The journal has no intact header record.
    MissingHeader,
    /// An intact (CRC-verified) record failed to parse — a format bug or a
    /// file that isn't a checkpoint journal at all.
    BadRecord(String),
    /// The journal belongs to a different campaign configuration.
    FingerprintMismatch {
        /// Fingerprint of the config asking to resume.
        expected: u64,
        /// Fingerprint recorded in the journal header.
        found: u64,
    },
    /// The journal's shard plan disagrees with the config's plan.
    PlanMismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::MissingHeader => write!(f, "journal has no intact header record"),
            CheckpointError::BadRecord(e) => write!(f, "malformed journal record: {e}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal fingerprint {found:#018x} does not match config {expected:#018x}"
            ),
            CheckpointError::PlanMismatch(e) => write!(f, "journal shard plan mismatch: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// What recovery salvaged (and dropped) from a journal.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Intact shard records salvaged.
    pub shards_salvaged: u64,
    /// Intact lease records salvaged (service-supervised journals only).
    pub leases_salvaged: u64,
    /// Bytes dropped from the journal's torn or garbled tail. Covers both
    /// frame-level tears (bad CRC/length) and CRC-intact records whose
    /// payload no longer parses — in either case the whole trailing run
    /// from the first bad record onward is dropped.
    pub dropped_tail_bytes: u64,
    /// Why the tail was dropped, when it was.
    pub tail_error: Option<String>,
    /// Journal size in bytes as read.
    pub journal_bytes: u64,
}

/// Resume provenance attached to a resumed campaign's report.
///
/// Lives *outside* [`CampaignMetrics`] on purpose: a resumed report must be
/// bit-identical to an uninterrupted one in every deterministic field, so
/// how-it-ran bookkeeping is carried separately and excluded from
/// [`report_to_json_deterministic`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResumeInfo {
    /// Path of the journal the campaign resumed from.
    pub resumed_from: String,
    /// Shards salvaged from the journal.
    pub shards_salvaged: u64,
    /// Shards re-run because the journal had no record for them.
    pub shards_rerun: u64,
    /// Total shards in the plan.
    pub shards_total: u64,
    /// Bytes dropped from the journal's torn tail during recovery.
    pub dropped_tail_bytes: u64,
    /// Fresh shard records appended to the journal by this run.
    pub checkpoints_written: u64,
}

// ---------------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------------

/// One completed shard, as journaled: identity plus its full result and
/// buffered telemetry stream.
#[derive(Debug, Clone)]
pub struct ShardRecord {
    /// Shard index in the plan (merge order).
    pub index: u64,
    /// The shard's derived seed (consistency-checked against the plan).
    pub seed: u64,
    /// The shard's case budget.
    pub cases: u64,
    /// The shard's campaign report.
    pub report: CampaignReport,
    /// The shard's buffered telemetry events, replayed on resume so the
    /// sink's logical stream matches an uninterrupted run.
    pub events: Vec<Event>,
}

impl ShardRecord {
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"kind\":\"shard\",\"index\":{},\"seed\":{},\"cases\":{},\"report\":{},\"events\":[",
            self.index,
            self.seed,
            self.cases,
            report_to_json(&self.report)
        );
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push_str("]}");
        out
    }

    fn from_json(v: &JsonValue) -> Result<ShardRecord, String> {
        let events = match v.get("events") {
            Some(JsonValue::Array(items)) => {
                items.iter().map(event_from_json).collect::<Result<Vec<Event>, String>>()?
            }
            _ => return Err("missing events array".into()),
        };
        Ok(ShardRecord {
            index: req_u64(v, "index")?,
            seed: req_u64(v, "seed")?,
            cases: req_u64(v, "cases")?,
            report: report_from_json(v.get("report").ok_or("missing report")?)?,
            events,
        })
    }
}

/// A lease state transition, as journaled by the service supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseAction {
    /// A worker took the shard under a TTL.
    Acquired,
    /// The supervisor heartbeat renewed a live worker's lease.
    Renewed,
    /// The worker completed the shard and gave the lease back.
    Released,
    /// The lease outlived its TTL without renewal (holder wedged or dead).
    Expired,
    /// The supervisor reclaimed the expired lease for reassignment,
    /// bumping the fencing sequence.
    Reclaimed,
}

impl LeaseAction {
    /// Stable snake-case label (the journal `"action"` field).
    pub fn as_str(self) -> &'static str {
        match self {
            LeaseAction::Acquired => "acquired",
            LeaseAction::Renewed => "renewed",
            LeaseAction::Released => "released",
            LeaseAction::Expired => "expired",
            LeaseAction::Reclaimed => "reclaimed",
        }
    }

    /// Parses the label produced by [`LeaseAction::as_str`].
    pub fn parse_label(s: &str) -> Option<LeaseAction> {
        [
            LeaseAction::Acquired,
            LeaseAction::Renewed,
            LeaseAction::Released,
            LeaseAction::Expired,
            LeaseAction::Reclaimed,
        ]
        .into_iter()
        .find(|a| a.as_str() == s)
    }
}

impl std::fmt::Display for LeaseAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lease state transition for one shard, journaled alongside shard
/// records so lease history survives a daemon crash.
///
/// Leases are **control-plane** data: they carry wall-clock timestamps and
/// exist only in supervised (service) executions, so recovery collects them
/// separately from shard results and they never participate in the
/// determinism contract. The `lease_seq` is a fencing token — it increments
/// on every (re)acquisition of the shard, and a completion reported under a
/// stale sequence is discarded by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRecord {
    /// The leased shard's index in the plan.
    pub shard: u64,
    /// The worker holding (or losing) the lease.
    pub worker: String,
    /// What happened.
    pub action: LeaseAction,
    /// Fencing sequence: increments on each acquisition of this shard.
    pub lease_seq: u64,
    /// TTL granted at acquisition/renewal, in milliseconds.
    pub ttl_millis: u64,
    /// Wall-clock timestamp of the transition (Unix epoch milliseconds).
    pub unix_millis: u64,
}

impl LeaseRecord {
    fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"lease\",\"shard\":{},\"worker\":{},\"action\":\"{}\",\
             \"lease_seq\":{},\"ttl_millis\":{},\"unix_millis\":{}}}",
            self.shard,
            json_string(&self.worker),
            self.action.as_str(),
            self.lease_seq,
            self.ttl_millis,
            self.unix_millis
        )
    }

    fn from_json(v: &JsonValue) -> Result<LeaseRecord, String> {
        let action_label = req_str(v, "action")?;
        Ok(LeaseRecord {
            shard: req_u64(v, "shard")?,
            worker: req_str(v, "worker")?,
            action: LeaseAction::parse_label(&action_label)
                .ok_or_else(|| format!("unknown lease action {action_label:?}"))?,
            lease_seq: req_u64(v, "lease_seq")?,
            ttl_millis: req_u64(v, "ttl_millis")?,
            unix_millis: req_u64(v, "unix_millis")?,
        })
    }
}

/// The salvaged content of a checkpoint journal.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    /// Config fingerprint from the journal header.
    pub fingerprint: u64,
    /// Total shards in the journaled plan.
    pub shards_total: u64,
    /// Salvaged shard records, sorted by index (duplicates dropped, first
    /// record wins — a re-run may legitimately re-append a shard).
    pub shards: Vec<ShardRecord>,
    /// Salvaged lease records, in journal (= chronological) order. Empty
    /// for journals written by unsupervised (library/CLI) runs.
    pub leases: Vec<LeaseRecord>,
}

impl CampaignCheckpoint {
    /// Loads and salvages a journal: every intact leading record is kept
    /// and the torn or garbled tail is dropped, as described in the
    /// returned [`RecoveryReport`].
    ///
    /// Salvage operates at two levels. Frame-level damage (bad CRC or
    /// length) already drops the whole trailing run of lines starting at
    /// the first bad one. A record that passes its CRC but whose *payload*
    /// fails to parse — a format bug, bit rot inside a page the CRC update
    /// never covered, or a foreign record kind — is treated the same way:
    /// that record **and every record after it** are dropped as the garbled
    /// tail, rather than poisoning the load with a hard error. Only an
    /// unreadable header is unrecoverable.
    pub fn load(path: &Path) -> Result<(CampaignCheckpoint, RecoveryReport), CheckpointError> {
        let bytes = std::fs::read(path)?;
        let framed = read_framed(&bytes);
        let mut recovery = RecoveryReport {
            dropped_tail_bytes: framed.dropped_tail_bytes as u64,
            tail_error: framed.tail_error.clone(),
            journal_bytes: bytes.len() as u64,
            ..RecoveryReport::default()
        };

        if framed.records.is_empty() {
            return Err(CheckpointError::MissingHeader);
        }
        let header = parse_json(&framed.records[0]).map_err(CheckpointError::BadRecord)?;
        if header.get("kind").and_then(JsonValue::as_str) != Some("header") {
            return Err(CheckpointError::MissingHeader);
        }
        let fingerprint = req_u64(&header, "fingerprint").map_err(CheckpointError::BadRecord)?;
        let shards_total = req_u64(&header, "shards").map_err(CheckpointError::BadRecord)?;

        enum Parsed {
            // Boxed: a shard record embeds a full report, dwarfing a lease.
            Shard(Box<ShardRecord>),
            Lease(LeaseRecord),
        }
        let mut shards: Vec<ShardRecord> = Vec::new();
        let mut leases: Vec<LeaseRecord> = Vec::new();
        for (i, line) in framed.records.iter().enumerate().skip(1) {
            let parsed = parse_json(line).and_then(|value| {
                match value.get("kind").and_then(JsonValue::as_str) {
                    Some("shard") => {
                        ShardRecord::from_json(&value).map(|r| Parsed::Shard(Box::new(r)))
                    }
                    Some("lease") => LeaseRecord::from_json(&value).map(Parsed::Lease),
                    other => Err(format!("unknown record kind {other:?}")),
                }
            });
            match parsed {
                Ok(Parsed::Shard(record)) => {
                    if !shards.iter().any(|r| r.index == record.index) {
                        shards.push(*record);
                    }
                }
                Ok(Parsed::Lease(lease)) => leases.push(lease),
                Err(e) => {
                    // Garbled payload: drop this record and the whole run
                    // after it. `offsets[i]` is the byte where the bad
                    // record's line starts.
                    recovery.dropped_tail_bytes = recovery.journal_bytes - framed.offsets[i] as u64;
                    recovery.tail_error = Some(format!("garbled record {i}: {e}"));
                    break;
                }
            }
        }
        shards.sort_by_key(|r| r.index);
        recovery.shards_salvaged = shards.len() as u64;
        recovery.leases_salvaged = leases.len() as u64;
        Ok((CampaignCheckpoint { fingerprint, shards_total, shards, leases }, recovery))
    }

    /// The last journaled lease transition per shard, in shard order — the
    /// state the supervisor rebuilds after a restart. A shard whose latest
    /// action is [`LeaseAction::Acquired`] or [`LeaseAction::Renewed`] was
    /// held when the journal stopped; unless a shard *record* for it was
    /// also salvaged, its holder died mid-shard and the lease must expire
    /// before the shard is reassigned.
    pub fn latest_leases(&self) -> Vec<&LeaseRecord> {
        let mut latest: Vec<&LeaseRecord> = Vec::new();
        for lease in &self.leases {
            match latest.iter_mut().find(|l| l.shard == lease.shard) {
                Some(slot) => *slot = lease,
                None => latest.push(lease),
            }
        }
        latest.sort_by_key(|l| l.shard);
        latest
    }
}

/// The write side of the journal: framed, checksummed, append-only.
///
/// Every append is a **single** `write` call followed by `sync_data`, so a
/// crash at any byte offset leaves all previously appended records intact
/// and at most one torn tail line for recovery to drop.
pub struct CheckpointJournal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl std::fmt::Debug for CheckpointJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CheckpointJournal({})", self.path.display())
    }
}

impl CheckpointJournal {
    /// Creates (truncating) a fresh journal and writes its header record.
    pub fn create(
        path: &Path,
        fingerprint: u64,
        shards_total: u64,
    ) -> Result<CheckpointJournal, CheckpointError> {
        // `O_APPEND` from birth: a supervisor that later shares this
        // journal with worker processes must never write at a private
        // offset — every handle's writes must land atomically at
        // end-of-file. Truncate first (O_TRUNC and O_APPEND cannot be
        // combined portably), then reopen in append mode.
        std::fs::File::create(path)?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        let journal = CheckpointJournal { path: path.to_path_buf(), file: Mutex::new(file) };
        let header = format!(
            "{{\"kind\":\"header\",\"version\":{JOURNAL_VERSION},\"fingerprint\":{fingerprint},\"shards\":{shards_total}}}"
        );
        journal.append_payload(&header)?;
        Ok(journal)
    }

    /// Opens an existing journal for appending (after a successful
    /// [`CampaignCheckpoint::load`]). A torn tail salvage truncates the
    /// file back to its intact prefix first, so new appends start on a
    /// clean record boundary.
    pub fn open_append(
        path: &Path,
        recovery: &RecoveryReport,
    ) -> Result<CheckpointJournal, CheckpointError> {
        if recovery.dropped_tail_bytes > 0 {
            let repair = std::fs::OpenOptions::new().write(true).open(path)?;
            repair.set_len(recovery.journal_bytes - recovery.dropped_tail_bytes)?;
        }
        // `O_APPEND`: the kernel positions every write at end-of-file
        // atomically, so appends from this handle interleave safely with a
        // worker process appending to the same journal.
        CheckpointJournal::open_append_shared(path)
    }

    /// Opens an existing journal for append-only writes *without* torn-tail
    /// repair — the opener for worker processes appending concurrently with
    /// a supervisor. Truncation is the supervisor's job (done before any
    /// worker is spawned); a worker must never resize a shared journal.
    pub fn open_append_shared(path: &Path) -> Result<CheckpointJournal, CheckpointError> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(CheckpointJournal { path: path.to_path_buf(), file: Mutex::new(file) })
    }

    /// Durably appends one completed shard. Returns the journal size in
    /// bytes after the append.
    pub fn append_shard(&self, record: &ShardRecord) -> Result<u64, CheckpointError> {
        self.append_payload(&record.to_json())
    }

    /// Durably appends one lease transition (service supervisor only).
    /// Returns the journal size in bytes after the append.
    pub fn append_lease(&self, lease: &LeaseRecord) -> Result<u64, CheckpointError> {
        self.append_payload(&lease.to_json())
    }

    fn append_payload(&self, payload: &str) -> Result<u64, CheckpointError> {
        let line = frame_line(payload).map_err(|e| CheckpointError::BadRecord(e.to_string()))?;
        let mut file = self.file.lock().expect("journal poisoned");
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        Ok(file.metadata().map(|m| m.len()).unwrap_or(0))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// Report serialization
// ---------------------------------------------------------------------------

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("missing u64 field {key:?}"))
}

/// Like [`req_u64`] but defaults to 0 when the field is absent — used for
/// counters that are serialized only when nonzero (and for reading
/// checkpoints written before those counters existed).
fn opt_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(0),
        Some(raw) => raw.as_u64().ok_or_else(|| format!("field {key:?} is not a u64")),
    }
}

fn req_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    v.get(key).and_then(JsonValue::as_bool).ok_or_else(|| format!("missing bool field {key:?}"))
}

fn req_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// `f64` as its exact bit pattern (a `u64`), so serialized reports
/// round-trip bit-identically — decimal formatting would not.
fn f64_bits(v: f64) -> u64 {
    v.to_bits()
}

fn req_f64_bits(v: &JsonValue, key: &str) -> Result<f64, String> {
    req_u64(v, key).map(f64::from_bits)
}

/// Renders a [`CampaignReport`] as one JSON object with **full fidelity**:
/// every counter, the complete per-stage metrics (wall clocks and
/// histograms included), the health ledger, every bug report, and the
/// `interrupted` / `resume` provenance.
pub fn report_to_json(report: &CampaignReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"cases_run\":{},\"parse_errors\":{},\"passes\":{},\"deviations_observed\":{},\
         \"duplicates_filtered\":{},\"sim_hours_bits\":{},\"interrupted\":{}",
        report.cases_run,
        report.parse_errors,
        report.passes,
        report.deviations_observed,
        report.duplicates_filtered,
        f64_bits(report.sim_hours),
        report.interrupted
    );
    if let Some(resume) = &report.resume {
        let _ = write!(
            out,
            ",\"resume\":{{\"resumed_from\":{},\"shards_salvaged\":{},\"shards_rerun\":{},\
             \"shards_total\":{},\"dropped_tail_bytes\":{},\"checkpoints_written\":{}}}",
            json_string(&resume.resumed_from),
            resume.shards_salvaged,
            resume.shards_rerun,
            resume.shards_total,
            resume.dropped_tail_bytes,
            resume.checkpoints_written
        );
    }
    out.push_str(",\"metrics\":");
    out.push_str(&metrics_to_json(&report.metrics));
    out.push_str(",\"health\":[");
    for (i, h) in report.health.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&health_to_json(h));
    }
    out.push_str("],\"bugs\":[");
    for (i, bug) in report.bugs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&bug_to_json(bug));
    }
    out.push_str("]}");
    out
}

/// [`report_to_json`] restricted to the **determinism contract**: wall-clock
/// metrics are zeroed and the `interrupted` / `resume` provenance is
/// stripped, so a resumed report and an uninterrupted one render
/// byte-identically when (and only when) their logical content matches.
pub fn report_to_json_deterministic(report: &CampaignReport) -> String {
    let mut stripped = report.clone();
    stripped.metrics = stripped.metrics.without_wall_clock();
    stripped.interrupted = false;
    stripped.resume = None;
    report_to_json(&stripped)
}

/// A 64-bit checksum over the deterministic view of a campaign report
/// (FNV-1a over [`report_to_json_deterministic`]).
///
/// Two runs of the same workload — at any thread count, fresh or resumed —
/// produce the same checksum if and only if their reports agree in every
/// deterministic field. The `comfort-bench` harness embeds it in
/// `BENCH_*.json` to prove the timed sweep measured bit-identical work.
pub fn report_checksum(report: &CampaignReport) -> u64 {
    let mut fp = Fingerprint::new();
    fp.mix_str(&report_to_json_deterministic(report));
    fp.finish()
}

/// Parses a report rendered by [`report_to_json`].
pub fn report_from_json(v: &JsonValue) -> Result<CampaignReport, String> {
    let health = match v.get("health") {
        Some(JsonValue::Array(items)) => {
            items.iter().map(health_from_json).collect::<Result<Vec<TestbedHealth>, String>>()?
        }
        _ => return Err("missing health array".into()),
    };
    let bugs = match v.get("bugs") {
        Some(JsonValue::Array(items)) => {
            items.iter().map(bug_from_json).collect::<Result<Vec<BugReport>, String>>()?
        }
        _ => return Err("missing bugs array".into()),
    };
    let resume = match v.get("resume") {
        None | Some(JsonValue::Null) => None,
        Some(r) => Some(ResumeInfo {
            resumed_from: req_str(r, "resumed_from")?,
            shards_salvaged: req_u64(r, "shards_salvaged")?,
            shards_rerun: req_u64(r, "shards_rerun")?,
            shards_total: req_u64(r, "shards_total")?,
            dropped_tail_bytes: req_u64(r, "dropped_tail_bytes")?,
            checkpoints_written: req_u64(r, "checkpoints_written")?,
        }),
    };
    Ok(CampaignReport {
        cases_run: req_u64(v, "cases_run")?,
        parse_errors: req_u64(v, "parse_errors")?,
        passes: req_u64(v, "passes")?,
        deviations_observed: req_u64(v, "deviations_observed")?,
        duplicates_filtered: req_u64(v, "duplicates_filtered")?,
        bugs,
        sim_hours: req_f64_bits(v, "sim_hours_bits")?,
        metrics: metrics_from_json(v.get("metrics").ok_or("missing metrics")?)?,
        health,
        interrupted: req_bool(v, "interrupted")?,
        resume,
    })
}

fn metrics_to_json(m: &CampaignMetrics) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"stages\":[");
    for (i, stage) in m.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"invocations\":{},\"items\":{},\"logical_cost\":{},\"wall_nanos\":{},\"hist\":[",
            stage.invocations, stage.items, stage.logical_cost, stage.wall_nanos
        );
        for (j, bucket) in stage.cost_histogram.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{bucket}");
        }
        out.push_str("]}");
    }
    let _ = write!(
        out,
        "],\"cases_generated\":{},\"cases_rejected\":{},\"cases_run\":{},\
         \"deviations_observed\":{},\"bugs_reported\":{},\"bugs_deduped\":{},\
         \"faults_observed\":{},\"runs_retried\":{},\"runs_skipped\":{},\
         \"testbeds_quarantined\":{},\"testbeds_reinstated\":{},\"quorum_degraded\":{},\
         \"shards\":{}",
        m.cases_generated,
        m.cases_rejected,
        m.cases_run,
        m.deviations_observed,
        m.bugs_reported,
        m.bugs_deduped,
        m.faults_observed,
        m.runs_retried,
        m.runs_skipped,
        m.testbeds_quarantined,
        m.testbeds_reinstated,
        m.quorum_degraded,
        m.shards
    );
    // Mirrors `CampaignMetrics::to_json`: dedup counters appear only when
    // nonzero so pre-existing checkpoints and determinism-stripped forms
    // keep their byte layout.
    if m.executions_saved > 0 {
        let _ = write!(out, ",\"executions_saved\":{}", m.executions_saved);
    }
    if m.equivalence_classes > 0 {
        let _ = write!(out, ",\"equivalence_classes\":{}", m.equivalence_classes);
    }
    out.push('}');
    out
}

fn metrics_from_json(v: &JsonValue) -> Result<CampaignMetrics, String> {
    let mut m = CampaignMetrics::default();
    let Some(JsonValue::Array(stages)) = v.get("stages") else {
        return Err("missing stages array".into());
    };
    if stages.len() != m.stages.len() {
        return Err(format!("expected {} stages, got {}", m.stages.len(), stages.len()));
    }
    for (slot, s) in m.stages.iter_mut().zip(stages) {
        slot.invocations = req_u64(s, "invocations")?;
        slot.items = req_u64(s, "items")?;
        slot.logical_cost = req_u64(s, "logical_cost")?;
        slot.wall_nanos = req_u64(s, "wall_nanos")?;
        let Some(JsonValue::Array(hist)) = s.get("hist") else {
            return Err("missing hist array".into());
        };
        if hist.len() != CostHistogram::BUCKETS {
            return Err(format!(
                "expected {} hist buckets, got {}",
                CostHistogram::BUCKETS,
                hist.len()
            ));
        }
        for (bucket, h) in slot.cost_histogram.buckets.iter_mut().zip(hist) {
            *bucket = h.as_u64().ok_or("hist bucket not a u64")?;
        }
    }
    m.cases_generated = req_u64(v, "cases_generated")?;
    m.cases_rejected = req_u64(v, "cases_rejected")?;
    m.cases_run = req_u64(v, "cases_run")?;
    m.deviations_observed = req_u64(v, "deviations_observed")?;
    m.bugs_reported = req_u64(v, "bugs_reported")?;
    m.bugs_deduped = req_u64(v, "bugs_deduped")?;
    m.faults_observed = req_u64(v, "faults_observed")?;
    m.runs_retried = req_u64(v, "runs_retried")?;
    m.runs_skipped = req_u64(v, "runs_skipped")?;
    m.testbeds_quarantined = req_u64(v, "testbeds_quarantined")?;
    m.testbeds_reinstated = req_u64(v, "testbeds_reinstated")?;
    m.quorum_degraded = req_u64(v, "quorum_degraded")?;
    m.shards = req_u64(v, "shards")?;
    m.executions_saved = opt_u64(v, "executions_saved")?;
    m.equivalence_classes = opt_u64(v, "equivalence_classes")?;
    Ok(m)
}

fn health_to_json(h: &TestbedHealth) -> String {
    format!(
        "{{\"label\":{},\"runs_ok\":{},\"panics\":{},\"hangs\":{},\"transients_exhausted\":{},\
         \"outputs_truncated\":{},\"retries\":{},\"runs_skipped\":{},\"quarantines\":{},\
         \"reinstatements\":{},\"quarantined\":{}}}",
        json_string(&h.label),
        h.runs_ok,
        h.panics,
        h.hangs,
        h.transients_exhausted,
        h.outputs_truncated,
        h.retries,
        h.runs_skipped,
        h.quarantines,
        h.reinstatements,
        h.quarantined
    )
}

fn health_from_json(v: &JsonValue) -> Result<TestbedHealth, String> {
    Ok(TestbedHealth {
        label: req_str(v, "label")?,
        runs_ok: req_u64(v, "runs_ok")?,
        panics: req_u64(v, "panics")?,
        hangs: req_u64(v, "hangs")?,
        transients_exhausted: req_u64(v, "transients_exhausted")?,
        outputs_truncated: req_u64(v, "outputs_truncated")?,
        retries: req_u64(v, "retries")?,
        runs_skipped: req_u64(v, "runs_skipped")?,
        quarantines: req_u64(v, "quarantines")?,
        reinstatements: req_u64(v, "reinstatements")?,
        quarantined: req_bool(v, "quarantined")?,
    })
}

fn bug_to_json(bug: &BugReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"engine\":{},\"api\":{},\"behavior\":{},\"sim_hours_bits\":{},\"test_case\":{},\
         \"origin\":{},\"earliest_version\":{},\"kind\":{},\"strict_only\":{},\"component\":{},\
         \"api_type\":{},\"matched_bug\":{}",
        json_string(bug.key.engine.as_str()),
        bug.key.api.as_deref().map_or_else(|| "null".to_string(), json_string),
        json_string(&bug.key.behavior),
        f64_bits(bug.sim_hours),
        json_string(&bug.test_case),
        json_string(bug.origin.slug()),
        json_string(&bug.earliest_version),
        json_string(bug.kind.as_str()),
        bug.strict_only,
        json_string(bug.component.as_str()),
        json_string(bug.api_type.as_str()),
        bug.matched_bug.map_or_else(|| "null".to_string(), |b| b.0.to_string()),
    );
    let a = &bug.adjudication;
    let _ = write!(
        out,
        ",\"adjudication\":{{\"verified\":{},\"fixed\":{},\"rejected\":{},\
         \"accepted_test262\":{},\"novel\":{}}}}}",
        a.verified, a.fixed, a.rejected, a.accepted_test262, a.novel
    );
    out
}

fn bug_from_json(v: &JsonValue) -> Result<BugReport, String> {
    let engine_label = req_str(v, "engine")?;
    let engine = EngineName::parse_label(&engine_label)
        .ok_or_else(|| format!("unknown engine {engine_label:?}"))?;
    let api = match v.get("api") {
        None | Some(JsonValue::Null) => None,
        Some(a) => Some(a.as_str().ok_or("api not a string")?.to_string()),
    };
    let origin_slug = req_str(v, "origin")?;
    let kind_label = req_str(v, "kind")?;
    let component_label = req_str(v, "component")?;
    let api_type_label = req_str(v, "api_type")?;
    let adj = v.get("adjudication").ok_or("missing adjudication")?;
    Ok(BugReport {
        key: BugKey { engine, api, behavior: req_str(v, "behavior")? },
        sim_hours: req_f64_bits(v, "sim_hours_bits")?,
        test_case: req_str(v, "test_case")?,
        origin: Origin::from_slug(&origin_slug)
            .ok_or_else(|| format!("unknown origin {origin_slug:?}"))?,
        earliest_version: req_str(v, "earliest_version")?,
        kind: DeviationKind::parse_label(&kind_label)
            .ok_or_else(|| format!("unknown deviation kind {kind_label:?}"))?,
        strict_only: req_bool(v, "strict_only")?,
        component: Component::parse_label(&component_label)
            .ok_or_else(|| format!("unknown component {component_label:?}"))?,
        api_type: ApiType::parse_label(&api_type_label)
            .ok_or_else(|| format!("unknown api type {api_type_label:?}"))?,
        matched_bug: match v.get("matched_bug") {
            None | Some(JsonValue::Null) => None,
            Some(b) => Some(BugId(b.as_u64().ok_or("matched_bug not a u64")? as u32)),
        },
        adjudication: Adjudication {
            verified: req_bool(adj, "verified")?,
            fixed: req_bool(adj, "fixed")?,
            rejected: req_bool(adj, "rejected")?,
            accepted_test262: req_bool(adj, "accepted_test262")?,
            novel: req_bool(adj, "novel")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_telemetry::{EventKind, LogicalClock};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("comfort-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn sample_report() -> CampaignReport {
        let mut metrics = CampaignMetrics::new();
        metrics.cases_run = 20;
        metrics.stages[3].invocations = 20;
        metrics.stages[3].wall_nanos = 123_456;
        metrics.stages[3].cost_histogram.record(7);
        CampaignReport {
            cases_run: 20,
            parse_errors: 1,
            passes: 15,
            deviations_observed: 4,
            duplicates_filtered: 2,
            bugs: vec![BugReport {
                key: BugKey {
                    engine: EngineName::Rhino,
                    api: Some("substr".into()),
                    behavior: "WrongOutput".into(),
                },
                sim_hours: 0.1 + 0.2, // deliberately non-representable exactly
                test_case: "print('x'.substr(6, undefined));".into(),
                origin: Origin::EcmaMutation,
                earliest_version: "Rhino v1.7R3".into(),
                kind: DeviationKind::WrongOutput,
                strict_only: false,
                component: Component::RegexEngine,
                api_type: ApiType::Eval,
                matched_bug: Some(BugId(0)),
                adjudication: Adjudication {
                    verified: true,
                    fixed: false,
                    rejected: false,
                    accepted_test262: true,
                    novel: true,
                },
            }],
            sim_hours: 20.0 * 2.88 / 3600.0,
            metrics,
            health: vec![TestbedHealth {
                label: "V8 v8.8 [chaos]".into(),
                runs_ok: 18,
                panics: 2,
                quarantines: 1,
                reinstatements: 1,
                quarantined: false,
                ..TestbedHealth::default()
            }],
            interrupted: false,
            resume: None,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let config = CampaignConfig::default();
        // Stable across calls (and, by construction, across platforms).
        assert_eq!(config_fingerprint(&config), config_fingerprint(&config));
        // Sensitive to result-affecting fields...
        let mut changed = config.clone();
        changed.seed ^= 1;
        assert_ne!(config_fingerprint(&config), config_fingerprint(&changed));
        let mut changed = config.clone();
        changed.max_cases += 1;
        assert_ne!(config_fingerprint(&config), config_fingerprint(&changed));
        // ...but not to scheduling/observability knobs.
        let mut threads = config.clone();
        threads.threads = 8;
        assert_eq!(config_fingerprint(&config), config_fingerprint(&threads));
    }

    #[test]
    fn report_roundtrips_bit_exactly() {
        let report = sample_report();
        let json = report_to_json(&report);
        let back = report_from_json(&parse_json(&json).expect("parses")).expect("converts");
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        assert_eq!(report.sim_hours.to_bits(), back.sim_hours.to_bits());
        assert_eq!(report.bugs[0].sim_hours.to_bits(), back.bugs[0].sim_hours.to_bits());
        assert_eq!(report_to_json(&back), json, "second render is byte-identical");
    }

    #[test]
    fn deterministic_rendering_strips_provenance_and_wall_clock() {
        let mut report = sample_report();
        let baseline = report_to_json_deterministic(&report);
        report.interrupted = true;
        report.resume = Some(ResumeInfo { shards_salvaged: 2, ..ResumeInfo::default() });
        report.metrics.stages[3].wall_nanos = 1;
        assert_eq!(report_to_json_deterministic(&report), baseline);
        assert_ne!(report_to_json(&report), baseline);
    }

    #[test]
    fn journal_roundtrips_and_salvages_torn_tail() {
        let dir = temp_dir("journal");
        let path = dir.join("campaign.ckpt");
        let record = |index: u64| ShardRecord {
            index,
            seed: u64::MAX - index, // exercise > 2^53 integers
            cases: 20,
            report: sample_report(),
            events: vec![Event {
                clock: LogicalClock { shard: index, seq: 0 },
                kind: EventKind::ShardStarted { seed: u64::MAX - index, case_budget: 20 },
            }],
        };
        {
            let journal = CheckpointJournal::create(&path, 0xFEED, 3).expect("create");
            journal.append_shard(&record(0)).expect("append 0");
            journal.append_shard(&record(1)).expect("append 1");
        }
        // Tear the tail mid-append.
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"J1 999 deadbeef {\"kind\":\"shard\",\"in");
        std::fs::write(&path, &bytes).unwrap();

        let (checkpoint, recovery) = CampaignCheckpoint::load(&path).expect("load");
        assert_eq!(checkpoint.fingerprint, 0xFEED);
        assert_eq!(checkpoint.shards_total, 3);
        assert_eq!(checkpoint.shards.len(), 2);
        assert_eq!(checkpoint.shards[0].index, 0);
        assert_eq!(checkpoint.shards[1].seed, u64::MAX - 1);
        assert_eq!(recovery.dropped_tail_bytes, bytes.len() as u64 - intact);
        assert!(recovery.tail_error.is_some());

        // Re-open for append: the torn tail is truncated away and a new
        // record lands cleanly.
        {
            let journal = CheckpointJournal::open_append(&path, &recovery).expect("open");
            journal.append_shard(&record(2)).expect("append 2");
        }
        let (checkpoint, recovery) = CampaignCheckpoint::load(&path).expect("reload");
        assert_eq!(checkpoint.shards.len(), 3);
        assert_eq!(recovery.dropped_tail_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_records_roundtrip_and_rebuild_state() {
        let dir = temp_dir("lease");
        let path = dir.join("campaign.ckpt");
        let lease = |shard, action, lease_seq| LeaseRecord {
            shard,
            worker: format!("worker-{shard}"),
            action,
            lease_seq,
            ttl_millis: 500,
            unix_millis: 1_700_000_000_000 + lease_seq,
        };
        {
            let journal = CheckpointJournal::create(&path, 0xBEEF, 3).expect("create");
            journal.append_lease(&lease(0, LeaseAction::Acquired, 1)).unwrap();
            journal.append_lease(&lease(1, LeaseAction::Acquired, 1)).unwrap();
            journal.append_lease(&lease(0, LeaseAction::Released, 1)).unwrap();
            journal.append_lease(&lease(1, LeaseAction::Expired, 1)).unwrap();
            journal.append_lease(&lease(1, LeaseAction::Reclaimed, 1)).unwrap();
        }
        let (checkpoint, recovery) = CampaignCheckpoint::load(&path).expect("load");
        assert_eq!(checkpoint.leases.len(), 5);
        assert_eq!(recovery.leases_salvaged, 5);
        assert_eq!(recovery.shards_salvaged, 0);
        let latest = checkpoint.latest_leases();
        assert_eq!(latest.len(), 2);
        assert_eq!(latest[0].action, LeaseAction::Released);
        assert_eq!(latest[1].action, LeaseAction::Reclaimed);
        // Lease records interleave freely with shard records.
        {
            let (_, recovery) = CampaignCheckpoint::load(&path).unwrap();
            let journal = CheckpointJournal::open_append(&path, &recovery).unwrap();
            journal
                .append_shard(&ShardRecord {
                    index: 1,
                    seed: 7,
                    cases: 10,
                    report: sample_report(),
                    events: Vec::new(),
                })
                .unwrap();
        }
        let (checkpoint, _) = CampaignCheckpoint::load(&path).expect("reload");
        assert_eq!(checkpoint.shards.len(), 1);
        assert_eq!(checkpoint.leases.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbled_record_run_is_dropped_not_fatal() {
        let dir = temp_dir("garbled");
        let path = dir.join("campaign.ckpt");
        let record = |index: u64| ShardRecord {
            index,
            seed: index,
            cases: 10,
            report: sample_report(),
            events: Vec::new(),
        };
        {
            let journal = CheckpointJournal::create(&path, 5, 4).expect("create");
            journal.append_shard(&record(0)).expect("append");
        }
        let intact = std::fs::metadata(&path).unwrap().len() as usize;
        // Append a run of CRC-intact but garbled records: an unknown kind,
        // unparseable JSON, and a shard record with fields missing — then a
        // frame-level torn write on top.
        let mut bytes = std::fs::read(&path).unwrap();
        for payload in ["{\"kind\":\"wat\"}", "{not json", "{\"kind\":\"shard\",\"index\":1}"] {
            bytes.extend_from_slice(frame_line(payload).unwrap().as_bytes());
        }
        bytes.extend_from_slice(b"J1 999 deadbeef {\"kind\":\"shard\",\"in");
        std::fs::write(&path, &bytes).unwrap();

        let (checkpoint, recovery) = CampaignCheckpoint::load(&path).expect("salvages");
        assert_eq!(checkpoint.shards.len(), 1, "the intact prefix survives");
        assert_eq!(
            recovery.dropped_tail_bytes as usize,
            bytes.len() - intact,
            "the whole garbled run is dropped, not just the final record"
        );
        assert!(recovery.tail_error.as_deref().unwrap().contains("garbled record"));

        // open_append truncates back to the intact prefix, so the journal
        // is clean again and appends work.
        {
            let journal = CheckpointJournal::open_append(&path, &recovery).expect("open");
            journal.append_shard(&record(1)).expect("append after salvage");
        }
        let (checkpoint, recovery) = CampaignCheckpoint::load(&path).expect("reload");
        assert_eq!(checkpoint.shards.len(), 2);
        assert_eq!(recovery.dropped_tail_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_loads_an_intact_prefix() {
        let dir = temp_dir("trunc");
        let path = dir.join("campaign.ckpt");
        let record = |index: u64| ShardRecord {
            index,
            seed: index * 7,
            cases: 10,
            report: sample_report(),
            events: Vec::new(),
        };
        {
            let journal = CheckpointJournal::create(&path, 1, 2).expect("create");
            journal.append_shard(&record(0)).expect("append");
            journal.append_shard(&record(1)).expect("append");
        }
        let bytes = std::fs::read(&path).unwrap();
        let cut_path = dir.join("cut.ckpt");
        // Sample a spread of cut points (every byte is slow in debug builds
        // for a multi-KB journal; a stride still covers all line regions).
        for cut in (0..bytes.len()).step_by(37).chain([bytes.len() - 1]) {
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            match CampaignCheckpoint::load(&cut_path) {
                Ok((checkpoint, _)) => {
                    assert!(checkpoint.shards.len() <= 2, "cut at {cut}");
                    for (i, shard) in checkpoint.shards.iter().enumerate() {
                        assert_eq!(shard.index, i as u64, "cut at {cut}");
                    }
                }
                Err(CheckpointError::MissingHeader) => {
                    // The cut fell inside the header line — nothing salvaged,
                    // and recovery said so instead of fabricating records.
                }
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
