//! Lease-fencing races between real `--worker-once` processes, plus
//! property tests over synthetic lease-history interleavings.
//!
//! The claim protocol is optimistic: every contender appends `Acquired`
//! and re-reads; the first acquisition *in journal order* at the contested
//! sequence owns the shard (`claim_winner`), and a holder whose sequence
//! has been superseded must discard its result (`commit_fenced`). These
//! tests drive the protocol from two angles: two live processes racing
//! over one journal, and a proptest sweep over synthetic interleavings of
//! the pure decision functions.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use comfort_core::checkpoint::{
    config_fingerprint, CampaignCheckpoint, CheckpointJournal, LeaseAction, LeaseRecord,
};
use comfort_core::executor::plan_shards;
use comfort_service::spec::CampaignSpec;
use comfort_service::worker::{claim_winner, commit_fenced, WorkerError};
use proptest::prelude::*;

fn race_spec(journal: &Path) -> CampaignSpec {
    CampaignSpec {
        tenant: "fence-lab".to_string(),
        seed: Some(41),
        corpus_programs: Some(40),
        max_cases: Some(10),
        shard_cases: Some(5),
        fuel: Some(200_000),
        include_strict: Some(false),
        include_legacy: Some(false),
        reduce_cases: Some(false),
        checkpoint: Some(journal.display().to_string()),
        ..CampaignSpec::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("comfort-fence-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn write_spec(journal: &Path) -> PathBuf {
    let spec_path = PathBuf::from(format!("{}.spec.json", journal.display()));
    std::fs::write(&spec_path, race_spec(journal).to_json()).expect("spec written");
    spec_path
}

/// Writes the journal header the workers would write, so no racer finds
/// the journal missing and creates (truncating) it under another.
fn create_journal(journal: &Path) {
    let config = race_spec(journal).build_config().expect("spec builds");
    let shards = plan_shards(&config).len() as u64;
    CheckpointJournal::create(journal, config_fingerprint(&config), shards)
        .expect("journal created");
}

/// Blocks until `worker`'s `Acquired` record is in the journal.
fn wait_for_acquisition(journal: &Path, worker: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok((checkpoint, _)) = CampaignCheckpoint::load(journal) {
            if checkpoint
                .leases
                .iter()
                .any(|l| l.worker == worker && l.action == LeaseAction::Acquired)
            {
                return;
            }
        }
        assert!(Instant::now() < deadline, "{worker} never journalled its claim");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// How long a first claimant holds before running its shard: a rival
/// spawned once the claim is journalled journals its own claim in about
/// 10 ms on a 2-vCPU host, so this outlasts it by far.
const RIVAL_CLAIM_HOLD_MILLIS: u64 = 3000;

fn worker_once(spec: &Path, label: &str, hold_millis: u64) -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_comfortd"))
        .arg("--worker-once")
        .arg("--spec")
        .arg(spec)
        .arg("--worker")
        .arg(label)
        .arg("--hold-millis")
        .arg(hold_millis.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns")
}

fn cleanup(journal: &Path) {
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(format!("{}.spec.json", journal.display()));
}

/// Two standalone workers contend for shard 0 of one journal, in a forced
/// interleaving: the journal exists before either starts; racer A
/// journals `Acquired` for shard 0 at sequence 1 and holds; racer B
/// starts only once that record is in the journal, so it contends for
/// shard 0 too and journals `Acquired` at sequence 2 while A still holds
/// (A's hold lasts long past B's claim). Both acquisitions precede any
/// commit, and journal order makes B the holder: exactly one worker may
/// journal the shard record, and the other must exit with the lease error
/// code, having written no shard record.
#[test]
fn two_racing_workers_commit_exactly_one_shard_record() {
    let journal = temp_path("race.ckpt");
    cleanup(&journal);
    let spec = write_spec(&journal);
    create_journal(&journal);

    let a = worker_once(&spec, "racer-a", RIVAL_CLAIM_HOLD_MILLIS);
    wait_for_acquisition(&journal, "racer-a");
    let b = worker_once(&spec, "racer-b", 400);
    let status_a = a.wait_with_output().expect("worker a reaped").status;
    let status_b = b.wait_with_output().expect("worker b reaped").status;

    let codes = [status_a.code(), status_b.code()];
    let winners = codes.iter().filter(|c| **c == Some(0)).count();
    let losers = codes
        .iter()
        .filter(|c| **c == Some(WorkerError::Lease(String::new()).exit_code() as i32))
        .count();
    assert_eq!(
        (winners, losers),
        (1, 1),
        "exactly one winner and one fenced loser expected, got exit codes {codes:?}"
    );

    let (checkpoint, _) = CampaignCheckpoint::load(&journal).expect("journal readable");
    let committed: Vec<u64> = checkpoint.shards.iter().map(|r| r.index).collect();
    assert_eq!(committed, vec![0], "exactly one shard record, for the contested shard");
    // Both contenders journalled an acquisition, and journal order picked
    // exactly one winner per contested sequence.
    let acquisitions: Vec<&LeaseRecord> = checkpoint
        .leases
        .iter()
        .filter(|l| l.shard == 0 && l.action == LeaseAction::Acquired)
        .collect();
    assert!(acquisitions.len() >= 2, "both contenders journal their claim");
    for lease in &acquisitions {
        let winner = claim_winner(&checkpoint.leases, 0, lease.lease_seq).expect("winner exists");
        assert_eq!(
            winner.worker,
            acquisitions.iter().find(|l| l.lease_seq == lease.lease_seq).unwrap().worker,
            "journal order decides the winner"
        );
    }
    // The committed shard's releasing worker is the claim winner of its
    // own sequence — the loser never reached the release.
    let release = checkpoint
        .leases
        .iter()
        .find(|l| l.shard == 0 && l.action == LeaseAction::Released)
        .expect("winner released its lease");
    let winner = claim_winner(&checkpoint.leases, 0, release.lease_seq).expect("winner exists");
    assert_eq!(winner.worker, release.worker);

    cleanup(&journal);
}

/// A slow holder's completion is *rejected* once a newer acquisition
/// supersedes its sequence: worker A claims and stalls; worker B claims
/// the same shard at the next sequence, runs it, and commits; A wakes,
/// sees the fence, and must exit with the lease error code without
/// journalling a second record.
#[test]
fn stale_completion_is_fenced_off_by_a_newer_acquisition() {
    let journal = temp_path("stale.ckpt");
    cleanup(&journal);
    let spec = write_spec(&journal);
    create_journal(&journal);

    // A claims first (no contender yet), then stalls in the hold window
    // long enough for B to claim, run the 5-case shard, and commit.
    let a = worker_once(&spec, "stale-holder", 4000);
    wait_for_acquisition(&journal, "stale-holder");
    let b = worker_once(&spec, "usurper", 0);
    let status_b = b.wait_with_output().expect("worker b reaped").status;
    let status_a = a.wait_with_output().expect("worker a reaped").status;

    assert_eq!(status_b.code(), Some(0), "the usurper commits");
    assert_eq!(
        status_a.code(),
        Some(WorkerError::Lease(String::new()).exit_code() as i32),
        "the stale holder's completion must be rejected"
    );

    let (checkpoint, _) = CampaignCheckpoint::load(&journal).expect("journal readable");
    let records: Vec<u64> = checkpoint.shards.iter().map(|r| r.index).collect();
    assert_eq!(records, vec![0], "the shard is committed exactly once");
    let release = checkpoint
        .leases
        .iter()
        .find(|l| l.shard == 0 && l.action == LeaseAction::Released)
        .expect("the usurper released");
    assert_eq!(release.worker, "usurper");

    cleanup(&journal);
}

// ---------------------------------------------------------------------------
// Property tests over synthetic interleavings
// ---------------------------------------------------------------------------

fn lease(shard: u64, worker: &str, seq: u64, action: LeaseAction) -> LeaseRecord {
    LeaseRecord {
        shard,
        worker: worker.to_string(),
        action,
        lease_seq: seq,
        ttl_millis: 1000,
        unix_millis: 0,
    }
}

/// Builds a deterministic synthetic journal from a seed: `contenders`
/// workers all acquire shard 0 at sequence `contested`, interleaved (by
/// seed) with noise records — renewals, other shards, later sequences.
fn synthetic_history(seed: u64, contenders: u64, contested: u64, noise: u64) -> Vec<LeaseRecord> {
    let mut records = Vec::new();
    for w in 0..contenders {
        records.push(lease(0, &format!("w{w}"), contested, LeaseAction::Acquired));
    }
    for n in 0..noise {
        let x = seed.wrapping_mul(6364136223846793005).wrapping_add(n);
        records.push(match x % 4 {
            0 => lease(1 + x % 3, "noise", 1 + x % 5, LeaseAction::Acquired),
            1 => lease(0, "noise", contested, LeaseAction::Renewed),
            2 => lease(0, "noise", contested.saturating_sub(1), LeaseAction::Expired),
            _ => lease(1 + x % 3, "noise", 1 + x % 5, LeaseAction::Released),
        });
    }
    // Deterministic shuffle (Fisher–Yates under a splitmix-style stream).
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in (1..records.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        records.swap(i, j);
    }
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the interleaving, exactly one contender wins the contested
    /// sequence, the winner is the first acquisition in journal order, and
    /// the verdict is stable under appending more (non-acquisition) noise.
    #[test]
    fn exactly_one_winner_per_contested_sequence(seed in 0u64..10_000) {
        let contenders = 2 + seed % 4;
        let contested = 1 + seed % 3;
        let history = synthetic_history(seed, contenders, contested, seed % 6);

        let winner = claim_winner(&history, 0, contested).expect("some contender wins");
        prop_assert_eq!(winner.action, LeaseAction::Acquired);
        // The winner is the first acquisition at the contested sequence.
        let first = history
            .iter()
            .find(|l| l.shard == 0 && l.lease_seq == contested && l.action == LeaseAction::Acquired)
            .unwrap();
        prop_assert_eq!(&winner.worker, &first.worker);

        // Re-reading an *extended* journal never changes the winner:
        // append a late contender and re-ask.
        let mut extended = history.clone();
        extended.push(lease(0, "latecomer", contested, LeaseAction::Acquired));
        let still = claim_winner(&extended, 0, contested).expect("winner persists");
        prop_assert_eq!(&still.worker, &first.worker);
    }

    /// Fencing is exactly "a newer acquisition exists": every holder below
    /// the highest acquired sequence is fenced, the highest is not, and
    /// fencing is monotone — once fenced, more records never unfence.
    #[test]
    fn fencing_cuts_exactly_below_the_newest_acquisition(seed in 0u64..10_000) {
        let contenders = 2 + seed % 3;
        let contested = 1 + seed % 3;
        let mut history = synthetic_history(seed, contenders, contested, seed % 5);
        // A reclaim hands the shard to a new holder at the next sequence.
        history.push(lease(0, "heir", contested + 1, LeaseAction::Acquired));

        prop_assert!(commit_fenced(&history, 0, contested), "superseded holder must be fenced");
        prop_assert!(
            !commit_fenced(&history, 0, contested + 1),
            "the newest holder commits freely"
        );
        // Monotone: appending non-acquisition noise cannot unfence.
        history.push(lease(0, "noise", contested + 1, LeaseAction::Released));
        history.push(lease(0, "noise", contested + 1, LeaseAction::Expired));
        prop_assert!(commit_fenced(&history, 0, contested), "fencing is monotone");
        // And a yet-newer acquisition fences the previous heir too.
        history.push(lease(0, "heir-2", contested + 2, LeaseAction::Acquired));
        prop_assert!(commit_fenced(&history, 0, contested + 1));
    }

    /// Fencing is per-shard: acquisitions on other shards never fence a
    /// holder, whatever their sequence numbers.
    #[test]
    fn fencing_never_crosses_shards(seed in 0u64..10_000) {
        let contested = 1 + seed % 3;
        let mut history = vec![lease(0, "holder", contested, LeaseAction::Acquired)];
        for k in 0..(seed % 8) {
            history.push(lease(1 + k % 4, "other", contested + 1 + k, LeaseAction::Acquired));
        }
        prop_assert!(!commit_fenced(&history, 0, contested));
        prop_assert!(claim_winner(&history, 0, contested).is_some());
    }
}
