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
//!   shard record and drops a torn tail (reported in a typed
//!   [`RecoveryReport`]), but refuses an intact record it cannot read, and
//!   validates fingerprint and shard plan. A supervisor adopting one
//!   worker's shard reads that record alone
//!   ([`CampaignCheckpoint::read_shard`]) over the same frame walk.
//! * **Serialization**: each journal record is declared once, as a
//!   [`json_record!`](comfort_telemetry::json_record) table in wire order that generates both its
//!   rendering and its parser. [`CampaignReport`] round-trips with full
//!   fidelity (`f64` fields as exact bit patterns), as does the shard's
//!   telemetry event stream, so a resumed campaign merges to a
//!   **bit-identical** report and replays a byte-identical logical event
//!   stream.

use std::borrow::Cow;
use std::hash::Hasher as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use comfort_engines::{ApiType, BugId, Component, EngineName};
use comfort_syntax::FnvHasher;
use comfort_telemetry::frame::{frame_line, read_framed, FramedRead};
use comfort_telemetry::json::{
    self, member, write_string, Bits, Field, Flatten, Nullable, Object, Record, Rule, Text,
};
use comfort_telemetry::{json_record, Event};

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

/// An incremental FNV-1a (64-bit) mixer over the workspace's one FNV-1a,
/// [`FnvHasher`].
///
/// FNV-1a rather than `DefaultHasher` because the fingerprint is
/// *persisted*: it must be stable across Rust releases and platforms, which
/// the standard hasher does not promise. Every value is mixed as explicit
/// little-endian bytes, never through `Hasher`'s native-endian helpers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fingerprint(FnvHasher);

impl Fingerprint {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Mixes one integer (little-endian bytes).
    pub fn mix_u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }

    /// Mixes a string, length-prefixed so field boundaries can't alias.
    pub fn mix_str(&mut self, s: &str) {
        self.mix_u64(s.len() as u64);
        self.0.write(s.as_bytes());
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
        self.0.finish()
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
    // The unset value of a since-removed wall-clock watchdog knob, kept at
    // its position so every journal's fingerprint stays as it was.
    fp.mix_u64(u64::MAX);
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
    /// file that isn't a checkpoint journal at all. The message names the
    /// record's index (the header is record 0).
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
    /// Bytes dropped from the journal's torn tail: the whole trailing run
    /// from the first frame-level tear (a bad CRC or length, or an
    /// unterminated line) onward. A CRC-intact record whose payload does
    /// not parse is never dropped: [`CampaignCheckpoint::load`] refuses the
    /// journal instead, so no readable frame is ever truncated away.
    pub dropped_tail_bytes: u64,
    /// Why the tail was dropped, when it was.
    pub tail_error: Option<String>,
    /// Journal size in bytes as read.
    pub journal_bytes: u64,
}

/// Resume provenance attached to a resumed campaign's report.
///
/// Lives *outside* [`CampaignMetrics`](comfort_telemetry::CampaignMetrics)
/// on purpose: a resumed report must be bit-identical to an uninterrupted
/// one in every deterministic field, so how-it-ran bookkeeping is carried
/// separately and excluded from [`report_to_json_deterministic`].
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
    /// Loads and salvages a journal: every record before a torn tail is
    /// kept and the tail is dropped, as described in the returned
    /// [`RecoveryReport`].
    ///
    /// Only frame-level damage is salvaged: a bad CRC or length, or an
    /// unterminated line, drops the whole trailing run of lines from the
    /// first bad one. A record that passes its CRC but whose *payload* does
    /// not parse — a format bug, or a foreign record kind — is refused with
    /// [`CheckpointError::BadRecord`] naming its index, and the file is left
    /// as it is: dropping it would re-run its shard and truncate readable
    /// work away.
    pub fn load(path: &Path) -> Result<(CampaignCheckpoint, RecoveryReport), CheckpointError> {
        let bytes = std::fs::read(path)?;
        let framed = read_framed(&bytes);
        let mut shards: Vec<ShardRecord> = Vec::new();
        let mut leases: Vec<LeaseRecord> = Vec::new();
        let header = walk_records(&framed, |kind, record| {
            match kind {
                RecordKind::Shard => {
                    let record = ShardRecord::read_members(record)?;
                    if !shards.iter().any(|r| r.index == record.index) {
                        shards.push(record);
                    }
                }
                RecordKind::Lease => leases.push(LeaseRecord::read_members(record)?),
            }
            Ok(())
        })?;
        shards.sort_by_key(|r| r.index);
        let recovery = RecoveryReport {
            shards_salvaged: shards.len() as u64,
            leases_salvaged: leases.len() as u64,
            dropped_tail_bytes: framed.dropped_tail_bytes as u64,
            tail_error: framed.tail_error,
            journal_bytes: bytes.len() as u64,
        };
        let (fingerprint, shards_total) = (header.fingerprint, header.shards);
        Ok((CampaignCheckpoint { fingerprint, shards_total, shards, leases }, recovery))
    }

    /// Reads the journal's record of shard `index` alone: the one the
    /// supervisor adopts when a worker process commits the shard. `None`
    /// when the journal holds no record for it.
    ///
    /// It keeps [`load`](Self::load)'s rules over the same frame walk: the
    /// header is required, every frame is CRC- and grammar-checked, the
    /// first record for an index wins, and a CRC-intact frame that does not
    /// read is a [`CheckpointError::BadRecord`]. What it reads of the other
    /// frames is their `kind`, and a shard record's `index`; the report and
    /// events it reads are the matching record's only. A torn tail is
    /// dropped, as by `load`, and left on disk.
    pub fn read_shard(path: &Path, index: u64) -> Result<Option<ShardRecord>, CheckpointError> {
        let bytes = std::fs::read(path)?;
        let mut found = None;
        walk_records(&read_framed(&bytes), |kind, record| {
            if kind == RecordKind::Shard && u64::parse(record, "index")? == index && found.is_none()
            {
                found = Some(ShardRecord::read_members(record)?);
            }
            Ok(())
        })?;
        Ok(found)
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
        let header = Header { version: JOURNAL_VERSION, fingerprint, shards: shards_total };
        journal.append_payload(&payload("header", &header))?;
        Ok(journal)
    }

    /// Opens an existing journal for appending (after a successful
    /// [`CampaignCheckpoint::load`]). A torn tail salvage truncates the
    /// file back to its intact prefix first, so new appends start on a
    /// clean record boundary; the tail holds no readable frame, since
    /// `load` refuses a journal with an unreadable intact record.
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
        self.append_payload(&payload("shard", record))
    }

    /// Durably appends one lease transition (service supervisor only).
    /// Returns the journal size in bytes after the append.
    pub fn append_lease(&self, lease: &LeaseRecord) -> Result<u64, CheckpointError> {
        self.append_payload(&payload("lease", lease))
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
// Record declarations
// ---------------------------------------------------------------------------

// Each journal record, declared once in wire order; the table generates its
// rendering and its parser. The bytes are frozen: journals on disk must
// load, and `report_checksum` hashes the report's rendering. So a key
// differs from its field's name only where named, every `f64` is its bit
// pattern under a `_bits` key, a bug's key is flattened into its object,
// and enums travel by their labels. The metrics records are declared beside
// `CampaignMetrics`.

/// The journal's first record.
struct Header {
    version: u64,
    fingerprint: u64,
    shards: u64,
}

json_record!(Header { version, fingerprint, shards });
json_record!(ShardRecord { index, seed, cases, report, events });
json_record!(LeaseRecord { shard, worker, action => Label, lease_seq, ttl_millis, unix_millis });
json_record!(CampaignReport {
    cases_run, parse_errors, passes, deviations_observed, duplicates_filtered,
    sim_hours = "sim_hours_bits" => Bits, interrupted, resume, metrics, health, bugs,
});
#[rustfmt::skip]
json_record!(ResumeInfo {
    resumed_from, shards_salvaged, shards_rerun, shards_total, dropped_tail_bytes,
    checkpoints_written,
});
#[rustfmt::skip]
json_record!(TestbedHealth {
    label, runs_ok, panics, hangs, transients_exhausted, outputs_truncated, retries, runs_skipped,
    quarantines, reinstatements, quarantined,
});
json_record!(BugReport {
    key => Flatten, sim_hours = "sim_hours_bits" => Bits, test_case, origin => Label,
    earliest_version, kind => Label, strict_only, component => Label, api_type => Label,
    matched_bug => Nullable<Label>, adjudication,
});
json_record!(BugKey { engine => Label, api => Nullable, behavior });
json_record!(Adjudication { verified, fixed, rejected, accepted_test262, novel });

/// The journal's rule for enums, written by their stable labels (an origin
/// by its slug), and for a seeded bug's id, written as its number. It lives
/// here because the engines crate knows nothing of the codec.
struct Label;

macro_rules! labels {
    ($($ty:ty: $label:ident / $parse:ident),+ $(,)?) => {$(
        impl Rule<$ty> for Label {
            fn render(value: &$ty, key: &str, out: &mut String) {
                member(out, key);
                write_string(value.$label(), out);
            }
            fn parse(v: &Object<'_>, name: &str) -> Result<$ty, String> {
                let label = String::parse(v, name)?;
                <$ty>::$parse(&label)
                    .ok_or_else(|| format!("field '{name}' is an unknown label {label:?}"))
            }
        }
    )+};
}

labels! {
    EngineName: as_str / parse_label,
    DeviationKind: as_str / parse_label,
    Component: as_str / parse_label,
    ApiType: as_str / parse_label,
    LeaseAction: as_str / parse_label,
    Origin: slug / from_slug,
}

impl Rule<BugId> for Label {
    fn render(value: &BugId, key: &str, out: &mut String) {
        value.0.render(key, out);
    }
    fn parse(v: &Object<'_>, name: &str) -> Result<BugId, String> {
        u32::parse(v, name).map(BugId)
    }
}

/// The kinds of record that follow a journal's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordKind {
    Shard,
    Lease,
}

/// The frame walk of [`CampaignCheckpoint::load`] and
/// [`CampaignCheckpoint::read_shard`]: reads the header (record 0), then
/// grammar-checks each later intact frame and hands its kind and indexed
/// members to `visit`, in journal order. A frame that does not read, here
/// or in `visit`, is a `BadRecord` naming its index.
fn walk_records(
    framed: &FramedRead<'_>,
    mut visit: impl FnMut(RecordKind, &Object<'_>) -> Result<(), String>,
) -> Result<Header, CheckpointError> {
    let bad = |i: usize, e: String| CheckpointError::BadRecord(format!("record {i}: {e}"));
    // A payload that is no object reads as one without members.
    let members = |payload| Text::check(payload).map(|v| v.members().unwrap_or_default());
    let Some(first) = framed.records.first() else {
        return Err(CheckpointError::MissingHeader);
    };
    let header = members(first).map_err(|e| bad(0, e))?;
    if record_kind(&header).as_deref() != Some("header") {
        return Err(CheckpointError::MissingHeader);
    }
    let header = Header::read_members(&header).map_err(|e| bad(0, e))?;
    for (i, payload) in framed.records.iter().enumerate().skip(1) {
        let record = members(payload).map_err(|e| bad(i, e))?;
        let kind = match record_kind(&record).as_deref() {
            Some("shard") => RecordKind::Shard,
            Some("lease") => RecordKind::Lease,
            other => return Err(bad(i, format!("unknown record kind {other:?}"))),
        };
        visit(kind, &record).map_err(|e| bad(i, e))?;
    }
    Ok(header)
}

/// A record's `kind` member, if it is a string.
fn record_kind<'a>(record: &Object<'a>) -> Option<Cow<'a, str>> {
    record.get("kind").and_then(Text::as_str)
}

/// A journal line's payload: `{"kind":"<kind>"` and the record's members.
fn payload(kind: &str, record: &impl Record) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"kind\":");
    write_string(kind, &mut out);
    record.write_members(&mut out);
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Report serialization
// ---------------------------------------------------------------------------

/// Renders a [`CampaignReport`] as one JSON object with **full fidelity**:
/// every counter, the complete per-stage metrics (wall clocks and
/// histograms included), the health ledger, every bug report, and the
/// `interrupted` / `resume` provenance.
pub fn report_to_json(report: &CampaignReport) -> String {
    let mut out = String::with_capacity(1024);
    report.write(&mut out);
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
/// deterministic field. perfbench checks every timed report against its
/// one-thread reference by this checksum.
pub fn report_checksum(report: &CampaignReport) -> u64 {
    let mut fp = Fingerprint::new();
    fp.mix_str(&report_to_json_deterministic(report));
    fp.finish()
}

/// Reads a report from the text [`report_to_json`] renders.
pub fn report_from_json(text: &str) -> Result<CampaignReport, String> {
    json::read(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_telemetry::{CampaignMetrics, EventKind, LogicalClock};

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
        let back = report_from_json(&json).expect("converts");
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
    fn garbled_records_are_refused_and_torn_frames_salvaged() {
        let dir = temp_dir("garbled");
        let path = dir.join("campaign.ckpt");
        let record = ShardRecord {
            index: 0,
            seed: 0,
            cases: 10,
            report: sample_report(),
            events: Vec::new(),
        };
        {
            let journal = CheckpointJournal::create(&path, 5, 4).expect("create");
            journal.append_shard(&record).expect("append");
        }
        let intact = std::fs::read(&path).unwrap();
        let torn = b"J1 999 deadbeef {\"kind\":\"shard\",\"in";

        // A frame-level tear is salvaged: the intact prefix loads.
        let mut bytes = intact.clone();
        bytes.extend_from_slice(torn);
        std::fs::write(&path, &bytes).unwrap();
        let (checkpoint, recovery) = CampaignCheckpoint::load(&path).expect("salvages");
        assert_eq!(checkpoint.shards.len(), 1, "the intact prefix survives");
        assert_eq!(recovery.dropped_tail_bytes as usize, torn.len());
        assert!(recovery.tail_error.is_some());

        // A CRC-intact record the codec cannot read — an unknown kind,
        // unparseable JSON, a shard record with fields missing — is refused
        // by its index, with or without a torn write after it, and the
        // file is left as it was.
        for payload in ["{\"kind\":\"wat\"}", "{not json", "{\"kind\":\"shard\",\"index\":1}"] {
            for torn_tail in [false, true] {
                let mut bytes = intact.clone();
                bytes.extend_from_slice(frame_line(payload).unwrap().as_bytes());
                if torn_tail {
                    bytes.extend_from_slice(torn);
                }
                std::fs::write(&path, &bytes).unwrap();
                match CampaignCheckpoint::load(&path) {
                    Err(CheckpointError::BadRecord(e)) => assert!(e.contains("record 2"), "{e}"),
                    other => panic!("{payload} was not refused: {other:?}"),
                }
                assert_eq!(std::fs::read(&path).unwrap(), bytes, "{payload}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_shard_reads_exactly_the_record_load_keeps() {
        let dir = temp_dir("read-shard");
        let path = dir.join("campaign.ckpt");
        let lease = |shard, action| LeaseRecord {
            shard,
            worker: format!("worker-{shard}"),
            action,
            lease_seq: 1,
            ttl_millis: 500,
            unix_millis: 1_700_000_000_000 + shard,
        };
        let record = |index: u64, cases: u64| ShardRecord {
            index,
            seed: u64::MAX - index,
            cases,
            report: CampaignReport { cases_run: cases, ..sample_report() },
            events: (0..3)
                .map(|seq| Event {
                    clock: LogicalClock { shard: index, seq },
                    kind: EventKind::ShardStarted { seed: u64::MAX - index, case_budget: cases },
                })
                .collect(),
        };
        // Leases interleave with three shards out of index order, and
        // shard 2 is journalled twice: the first record wins.
        {
            let journal = CheckpointJournal::create(&path, 0xC0DE, 4).expect("create");
            journal.append_lease(&lease(2, LeaseAction::Acquired)).unwrap();
            journal.append_shard(&record(2, 20)).unwrap();
            journal.append_lease(&lease(0, LeaseAction::Acquired)).unwrap();
            journal.append_lease(&lease(2, LeaseAction::Released)).unwrap();
            journal.append_shard(&record(0, 21)).unwrap();
            journal.append_shard(&record(2, 99)).unwrap();
            journal.append_shard(&record(1, 22)).unwrap();
            journal.append_lease(&lease(0, LeaseAction::Released)).unwrap();
        }
        let (checkpoint, _) = CampaignCheckpoint::load(&path).expect("load");
        assert_eq!(checkpoint.shards.len(), 3);
        for loaded in &checkpoint.shards {
            let read = CampaignCheckpoint::read_shard(&path, loaded.index)
                .expect("reads")
                .unwrap_or_else(|| panic!("shard {} is journalled", loaded.index));
            assert_eq!(
                (read.index, read.seed, read.cases),
                (loaded.index, loaded.seed, loaded.cases)
            );
            assert_eq!(report_to_json(&read.report), report_to_json(&loaded.report));
            assert_eq!(read.events, loaded.events);
        }
        let first = CampaignCheckpoint::read_shard(&path, 2).unwrap().expect("shard 2");
        assert_eq!(first.cases, 20, "the first record for an index wins");
        assert!(CampaignCheckpoint::read_shard(&path, 3).expect("reads").is_none());

        // A CRC-intact frame that does not read is the same BadRecord for
        // both: unparseable JSON, an unknown kind and an index that is no
        // integer, whichever shard is asked for, and the record it adopts
        // with members missing.
        let intact = std::fs::read(&path).unwrap();
        let refusals = [
            ("{not json", vec![0, 1, 2, 3]),
            ("{\"kind\":\"wat\"}", vec![0, 1, 2, 3]),
            ("{\"kind\":\"shard\",\"index\":\"one\"}", vec![0, 1, 2, 3]),
            ("{\"kind\":\"shard\",\"index\":3}", vec![3]),
        ];
        for (payload, indices) in refusals {
            let mut bytes = intact.clone();
            bytes.extend_from_slice(frame_line(payload).unwrap().as_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let loaded = match CampaignCheckpoint::load(&path) {
                Err(CheckpointError::BadRecord(e)) => e,
                other => panic!("{payload} was not refused by load: {other:?}"),
            };
            for index in indices {
                match CampaignCheckpoint::read_shard(&path, index) {
                    Err(CheckpointError::BadRecord(e)) => assert_eq!(e, loaded, "{payload}"),
                    other => panic!("{payload} was not refused for shard {index}: {other:?}"),
                }
            }
        }
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
