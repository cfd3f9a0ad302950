//! Per-campaign shard leases.
//!
//! Every shard a worker executes is covered by a **lease**: a claim with a
//! TTL, a fencing sequence number, and a progress watermark. The
//! supervisor heartbeat renews leases whose shard is still advancing and
//! expires the rest, so a wedged worker — or one whose whole process was
//! SIGKILLed — never strands a shard: the lease lapses, the shard returns
//! to the pending pool, and another worker re-runs it. Determinism makes
//! re-execution safe (the shard's report is a pure function of its seed),
//! and the fencing sequence makes it race-free: a completion carrying a
//! stale sequence number is discarded, so a resurrected worker can never
//! double-commit a shard that was reclaimed out from under it.
//!
//! The lease table is rebuilt after a crash from the journal's lease
//! records (see
//! [`CampaignCheckpoint::latest_leases`](comfort_core::checkpoint::CampaignCheckpoint::latest_leases)):
//! a shard journalled as held but missing its shard record means the
//! holder died mid-shard; the restored lease runs out its recorded TTL and
//! is reclaimed like any other expiry.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where one shard sits in the lease lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Unleased and runnable.
    Pending,
    /// Leased to a worker (or journalled as held by a dead one).
    Held,
    /// Poison-shard quarantine: the shard killed workers repeatedly and is
    /// withheld from the pending pool while the supervisor bisects it.
    /// Only a targeted [`LeaseTable::claim_shard`] (the rescue run) or
    /// [`LeaseTable::unquarantine`] (false alarm) frees it.
    Quarantined,
    /// Committed — a shard record exists (salvaged or just written).
    Done,
}

/// One shard's lease state.
#[derive(Debug, Clone)]
pub struct ShardLease {
    /// Lifecycle phase.
    pub phase: ShardPhase,
    /// Label of the current (or last) holder.
    pub holder: String,
    /// Fencing token: bumped on every acquisition, checked on completion.
    pub lease_seq: u64,
    /// Instant the lease lapses unless renewed.
    pub deadline: Instant,
    /// TTL granted at the last acquisition (doubles per reclaim).
    pub ttl: Duration,
    /// Times this shard's lease has been reclaimed.
    pub reclaims: u32,
    /// Shard progress (cases done) at the last renewal.
    pub watermark: u64,
    /// `true` when the hold was restored from the journal — the holder is
    /// another process (possibly dead), so only expiry can free it.
    pub recovered: bool,
}

/// A granted lease, returned by [`LeaseTable::claim_pending`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// The claimed shard index.
    pub shard: usize,
    /// The fencing sequence the completion must present.
    pub lease_seq: u64,
    /// Granted TTL (base TTL backed off by prior reclaims).
    pub ttl: Duration,
}

/// A lease transition decided by one supervisor heartbeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The shard whose lease transitioned.
    pub shard: usize,
    /// The holder at transition time.
    pub holder: String,
    /// The lease's fencing sequence.
    pub lease_seq: u64,
    /// The granted TTL in milliseconds (journalled for crash recovery).
    pub ttl_millis: u64,
    /// Reclaim count *after* the transition (meaningful for reclaims).
    pub reclaims: u32,
}

/// What a heartbeat did to a campaign's leases.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// Leases renewed because their shard advanced.
    pub renewed: Vec<Transition>,
    /// Leases that lapsed and were reclaimed (one entry each; the shard is
    /// Pending again afterwards).
    pub reclaimed: Vec<Transition>,
}

/// Maximum left-shift applied to the base TTL by repeated reclaims (caps
/// the backoff at 64× so a pathological shard still gets re-attempted).
const MAX_BACKOFF_SHIFT: u32 = 6;

/// The per-campaign lease table (interior mutability; shared by workers
/// and the supervisor).
#[derive(Debug)]
pub struct LeaseTable {
    base_ttl: Duration,
    shards: Mutex<Vec<ShardLease>>,
}

impl LeaseTable {
    /// A table of `n` pending shards with `base_ttl` per lease.
    pub fn new(n: usize, base_ttl: Duration) -> Self {
        let blank = ShardLease {
            phase: ShardPhase::Pending,
            holder: String::new(),
            lease_seq: 0,
            deadline: Instant::now(),
            ttl: base_ttl,
            reclaims: 0,
            watermark: 0,
            recovered: false,
        };
        LeaseTable { base_ttl, shards: Mutex::new(vec![blank; n]) }
    }

    /// Marks a shard Done without a lease cycle (journal salvage: the
    /// shard record already exists).
    pub fn restore_done(&self, shard: usize) {
        let mut shards = self.lock();
        shards[shard].phase = ShardPhase::Done;
    }

    /// Restores a hold journalled by a (possibly dead) earlier process.
    /// The lease keeps the journalled sequence and runs out `ttl` from
    /// now; if the holder is truly gone it expires and is reclaimed.
    pub fn restore_held(&self, shard: usize, holder: &str, lease_seq: u64, ttl: Duration) {
        let mut shards = self.lock();
        let lease = &mut shards[shard];
        if lease.phase == ShardPhase::Done {
            return; // A shard record beats a stale hold.
        }
        lease.phase = ShardPhase::Held;
        lease.holder = holder.to_string();
        lease.lease_seq = lease.lease_seq.max(lease_seq);
        lease.deadline = Instant::now() + ttl;
        lease.ttl = ttl;
        lease.recovered = true;
    }

    /// Claims the lowest pending shard for `holder`, bumping its fencing
    /// sequence. `progress` is the shard's current case counter (the
    /// renewal watermark starts there).
    pub fn claim_pending(&self, holder: &str, progress: &dyn Fn(usize) -> u64) -> Option<Claim> {
        let mut shards = self.lock();
        let i = shards.iter().position(|l| l.phase == ShardPhase::Pending)?;
        let lease = &mut shards[i];
        let shift = lease.reclaims.min(MAX_BACKOFF_SHIFT);
        let ttl = self.base_ttl.saturating_mul(1u32 << shift);
        lease.phase = ShardPhase::Held;
        lease.holder = holder.to_string();
        lease.lease_seq += 1;
        lease.deadline = Instant::now() + ttl;
        lease.ttl = ttl;
        lease.watermark = progress(i);
        lease.recovered = false;
        Some(Claim { shard: i, lease_seq: lease.lease_seq, ttl })
    }

    /// Commits a completed shard iff `lease_seq` is still current (the
    /// fencing check). Returns `false` for stale completions — the lease
    /// was reclaimed and the result must be discarded.
    pub fn complete(&self, shard: usize, lease_seq: u64) -> bool {
        let mut shards = self.lock();
        let lease = &mut shards[shard];
        if lease.phase != ShardPhase::Held || lease.lease_seq != lease_seq {
            return false;
        }
        lease.phase = ShardPhase::Done;
        true
    }

    /// Returns an interrupted (cancelled/deadline) shard to the pending
    /// pool without penalty, iff the sequence is still current.
    pub fn abandon(&self, shard: usize, lease_seq: u64) {
        let mut shards = self.lock();
        let lease = &mut shards[shard];
        if lease.phase == ShardPhase::Held && lease.lease_seq == lease_seq {
            lease.phase = ShardPhase::Pending;
        }
    }

    /// Force-expires a held lease whose holder is *known* dead (the fleet
    /// supervisor watched the worker process die by signal). Mirrors the
    /// heartbeat's expiry path — the shard returns to Pending with its
    /// reclaim counter bumped — but without waiting out the TTL. Returns
    /// the transition, or `None` when the sequence is stale (a heartbeat
    /// already reclaimed it).
    pub fn expire(&self, shard: usize, lease_seq: u64) -> Option<Transition> {
        let mut shards = self.lock();
        let lease = &mut shards[shard];
        if lease.phase != ShardPhase::Held || lease.lease_seq != lease_seq {
            return None;
        }
        lease.phase = ShardPhase::Pending;
        lease.reclaims += 1;
        Some(Transition {
            shard,
            holder: lease.holder.clone(),
            lease_seq: lease.lease_seq,
            ttl_millis: lease.ttl.as_millis() as u64,
            reclaims: lease.reclaims,
        })
    }

    /// Moves a pending shard into poison quarantine. Returns `false` when
    /// the shard is not Pending (someone claimed or committed it first) —
    /// exactly one caller wins, so exactly one bisection runs.
    pub fn quarantine(&self, shard: usize) -> bool {
        let mut shards = self.lock();
        let lease = &mut shards[shard];
        if lease.phase != ShardPhase::Pending {
            return false;
        }
        lease.phase = ShardPhase::Quarantined;
        true
    }

    /// Releases a quarantined shard back to the pending pool (false alarm:
    /// the deaths were external, the shard itself is clean). Resets the
    /// reclaim backoff so the exonerated shard is retried promptly.
    pub fn unquarantine(&self, shard: usize) -> bool {
        let mut shards = self.lock();
        let lease = &mut shards[shard];
        if lease.phase != ShardPhase::Quarantined {
            return false;
        }
        lease.phase = ShardPhase::Pending;
        lease.reclaims = 0;
        true
    }

    /// Targeted claim of a *quarantined* shard for the contained rescue
    /// run. Bumps the fencing sequence like any claim, so straggler
    /// completions from the poisoned era stay fenced off.
    pub fn claim_shard(&self, shard: usize, holder: &str) -> Option<Claim> {
        let mut shards = self.lock();
        let lease = &mut shards[shard];
        if lease.phase != ShardPhase::Quarantined {
            return None;
        }
        let shift = lease.reclaims.min(MAX_BACKOFF_SHIFT);
        let ttl = self.base_ttl.saturating_mul(1u32 << shift);
        lease.phase = ShardPhase::Held;
        lease.holder = holder.to_string();
        lease.lease_seq += 1;
        lease.deadline = Instant::now() + ttl;
        lease.ttl = ttl;
        lease.recovered = false;
        Some(Claim { shard, lease_seq: lease.lease_seq, ttl })
    }

    /// `true` while `lease_seq` is the current hold on `shard` — the fleet
    /// babysitter polls this to learn its lease was reclaimed under it.
    pub fn holds(&self, shard: usize, lease_seq: u64) -> bool {
        let shards = self.lock();
        let lease = &shards[shard];
        lease.phase == ShardPhase::Held && lease.lease_seq == lease_seq
    }

    /// One supervisor heartbeat at `now`: renews held leases whose shard
    /// progressed past its watermark, expires-and-reclaims the ones whose
    /// TTL lapsed without progress. `progress(i)` reads shard `i`'s
    /// monotonic case counter.
    pub fn tick(&self, now: Instant, progress: &dyn Fn(usize) -> u64) -> Heartbeat {
        let mut shards = self.lock();
        let mut beat = Heartbeat::default();
        for (i, lease) in shards.iter_mut().enumerate() {
            if lease.phase != ShardPhase::Held {
                continue;
            }
            let done = progress(i);
            if done > lease.watermark && !lease.recovered {
                lease.watermark = done;
                lease.deadline = now + lease.ttl;
                beat.renewed.push(Transition {
                    shard: i,
                    holder: lease.holder.clone(),
                    lease_seq: lease.lease_seq,
                    ttl_millis: lease.ttl.as_millis() as u64,
                    reclaims: lease.reclaims,
                });
            } else if now >= lease.deadline {
                lease.phase = ShardPhase::Pending;
                lease.reclaims += 1;
                beat.reclaimed.push(Transition {
                    shard: i,
                    holder: lease.holder.clone(),
                    lease_seq: lease.lease_seq,
                    ttl_millis: lease.ttl.as_millis() as u64,
                    reclaims: lease.reclaims,
                });
            }
        }
        beat
    }

    /// `(done, held, pending)` shard counts. Quarantined shards count in
    /// none of the three — they are withheld from scheduling entirely.
    pub fn counts(&self) -> (usize, usize, usize) {
        let shards = self.lock();
        let done = shards.iter().filter(|l| l.phase == ShardPhase::Done).count();
        let held = shards.iter().filter(|l| l.phase == ShardPhase::Held).count();
        let pending = shards.iter().filter(|l| l.phase == ShardPhase::Pending).count();
        (done, held, pending)
    }

    /// Total reclaims across every shard.
    pub fn total_reclaims(&self) -> u64 {
        self.lock().iter().map(|l| l.reclaims as u64).sum()
    }

    /// `true` once every shard is Done.
    pub fn all_done(&self) -> bool {
        self.lock().iter().all(|l| l.phase == ShardPhase::Done)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<ShardLease>> {
        self.shards.lock().expect("lease table poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: Duration = Duration::from_millis(100);

    #[test]
    fn claim_complete_is_the_happy_path() {
        let table = LeaseTable::new(2, TTL);
        let a = table.claim_pending("w-0", &|_| 0).expect("shard 0");
        assert_eq!((a.shard, a.lease_seq), (0, 1));
        let b = table.claim_pending("w-1", &|_| 0).expect("shard 1");
        assert_eq!(b.shard, 1);
        assert!(table.claim_pending("w-2", &|_| 0).is_none());
        assert!(table.complete(a.shard, a.lease_seq));
        assert!(table.complete(b.shard, b.lease_seq));
        assert!(table.all_done());
        assert_eq!(table.counts(), (2, 0, 0));
    }

    #[test]
    fn stalled_leases_expire_and_fencing_rejects_the_zombie() {
        let table = LeaseTable::new(1, Duration::from_millis(0));
        let old = table.claim_pending("w-0", &|_| 0).expect("claimed");
        // No progress, TTL already lapsed: the heartbeat reclaims it.
        let beat = table.tick(Instant::now() + Duration::from_millis(1), &|_| 0);
        assert_eq!(beat.reclaimed.len(), 1);
        assert_eq!(beat.reclaimed[0].reclaims, 1);
        // The shard is pending again; a new claim gets a fresh sequence
        // and a doubled TTL.
        let new = table.claim_pending("w-1", &|_| 0).expect("reclaimed shard");
        assert_eq!(new.lease_seq, old.lease_seq + 1);
        assert_eq!(new.ttl, Duration::from_millis(0)); // 0 << 1 is still 0
                                                       // The zombie's completion is fenced off; the new holder commits.
        assert!(!table.complete(0, old.lease_seq));
        assert!(table.complete(0, new.lease_seq));
    }

    #[test]
    fn progress_renews_instead_of_expiring() {
        let table = LeaseTable::new(1, Duration::from_millis(0));
        table.claim_pending("w-0", &|_| 0).expect("claimed");
        let beat = table.tick(Instant::now() + Duration::from_millis(1), &|_| 5);
        assert_eq!(beat.renewed.len(), 1);
        assert!(beat.reclaimed.is_empty());
        // Watermark advanced: the same progress value no longer renews.
        let beat = table.tick(Instant::now() + Duration::from_millis(1), &|_| 5);
        assert_eq!(beat.renewed.len(), 0);
        assert_eq!(beat.reclaimed.len(), 1);
    }

    #[test]
    fn ttl_backs_off_per_reclaim_and_caps() {
        let table = LeaseTable::new(1, Duration::from_millis(4));
        for round in 0..10u32 {
            let claim = table.claim_pending("w", &|_| 0).expect("claimable");
            let shift = round.min(MAX_BACKOFF_SHIFT);
            assert_eq!(claim.ttl, Duration::from_millis(4 << shift), "round {round}");
            let far = Instant::now() + Duration::from_secs(3600);
            assert_eq!(table.tick(far, &|_| 0).reclaimed.len(), 1);
        }
    }

    #[test]
    fn recovered_holds_only_free_by_expiry() {
        let table = LeaseTable::new(2, TTL);
        table.restore_done(0);
        table.restore_held(1, "dead-worker", 7, Duration::from_millis(0));
        // Progress on a recovered hold cannot renew it (the holder is a
        // dead process; any counter motion is from a prior life).
        let beat = table.tick(Instant::now() + Duration::from_millis(1), &|_| 100);
        assert_eq!(beat.renewed.len(), 0);
        assert_eq!(beat.reclaimed.len(), 1);
        assert_eq!(beat.reclaimed[0].holder, "dead-worker");
        assert_eq!(beat.reclaimed[0].lease_seq, 7);
        // The next claim fences past the journalled sequence.
        let claim = table.claim_pending("w-0", &|_| 0).expect("reclaimed shard");
        assert_eq!(claim.shard, 1);
        assert_eq!(claim.lease_seq, 8);
    }

    #[test]
    fn forced_expiry_mirrors_the_heartbeat_reclaim() {
        let table = LeaseTable::new(1, TTL);
        let claim = table.claim_pending("w-0", &|_| 0).expect("claimed");
        let t = table.expire(claim.shard, claim.lease_seq).expect("force-expired");
        assert_eq!(t.reclaims, 1);
        assert_eq!(table.counts(), (0, 0, 1));
        // Stale sequence: a second expiry attempt is a no-op.
        assert!(table.expire(claim.shard, claim.lease_seq).is_none());
        // The zombie's completion is fenced off after the forced expiry.
        assert!(!table.complete(claim.shard, claim.lease_seq));
    }

    #[test]
    fn quarantine_withholds_the_shard_until_rescue_or_exoneration() {
        let table = LeaseTable::new(2, TTL);
        assert!(table.quarantine(1));
        assert!(!table.quarantine(1), "only one caller wins quarantine");
        // Quarantined shards are invisible to the scheduler: claim_pending
        // passes over shard 1 and counts() omits it from pending.
        let claim = table.claim_pending("w-0", &|_| 0).expect("shard 0 still claimable");
        assert_eq!(claim.shard, 0);
        assert_eq!(table.counts(), (0, 1, 0));
        // The rescue claim is the only way to lease a quarantined shard.
        let rescue = table.claim_shard(1, "rescue").expect("targeted claim");
        assert_eq!(rescue.shard, 1);
        assert!(table.complete(1, rescue.lease_seq));
        assert!(table.complete(0, claim.lease_seq));
        assert!(table.all_done());
    }

    #[test]
    fn exonerated_shards_return_to_pending_with_backoff_reset() {
        let table = LeaseTable::new(1, TTL);
        // Build up reclaim backoff, then quarantine and exonerate.
        for _ in 0..3 {
            let c = table.claim_pending("w", &|_| 0).expect("claimable");
            table.expire(c.shard, c.lease_seq).expect("expired");
        }
        assert!(table.quarantine(0));
        assert!(table.claim_pending("w", &|_| 0).is_none());
        assert!(table.unquarantine(0));
        let c = table.claim_pending("w", &|_| 0).expect("pending again");
        assert_eq!(c.ttl, TTL, "exoneration resets the reclaim backoff");
    }

    #[test]
    fn holds_tracks_the_current_sequence() {
        let table = LeaseTable::new(1, TTL);
        let claim = table.claim_pending("w-0", &|_| 0).expect("claimed");
        assert!(table.holds(0, claim.lease_seq));
        table.expire(0, claim.lease_seq).expect("expired");
        assert!(!table.holds(0, claim.lease_seq));
    }

    #[test]
    fn abandon_returns_the_shard_without_penalty() {
        let table = LeaseTable::new(1, TTL);
        let claim = table.claim_pending("w-0", &|_| 0).expect("claimed");
        table.abandon(claim.shard, claim.lease_seq);
        assert_eq!(table.counts(), (0, 0, 1));
        let again = table.claim_pending("w-1", &|_| 0).expect("pending again");
        assert_eq!(again.ttl, TTL); // no backoff for cooperative abandonment
        assert_eq!(again.lease_seq, claim.lease_seq + 1);
    }
}
