//! Live campaign progress, polled from any thread.
//!
//! A [`ProgressHandle`] is a cheap `Arc` clone over one lock that guards a
//! row per shard: the executor updates it as cases complete, and any other
//! thread can call [`ProgressHandle::snapshot`] while the campaign runs.
//! The run's totals are sums over the rows, read under the same lock, so a
//! snapshot's totals always equal the sum of its rows. Progress is
//! observability-only — it never feeds back into scheduling, so polling
//! cannot perturb the deterministic event stream or report.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

#[derive(Debug, Default, Clone)]
struct ShardState {
    budget: u64,
    done: u64,
    bugs: u64,
    started: Option<Instant>,
    finished: Option<Instant>,
}

/// A cloneable, thread-safe view of a running campaign.
///
/// Counters only increase within one run, until a committed shard's row is
/// set to its result ([`ProgressHandle::shard_committed`]);
/// [`ProgressHandle::reset`] re-arms the same handle for a new run (a
/// campaign session does this at the start of every run, so its handle
/// stays valid across runs).
#[derive(Debug, Clone, Default)]
pub struct ProgressHandle {
    shards: Arc<Mutex<Vec<ShardState>>>,
}

impl ProgressHandle {
    /// A fresh, unarmed handle (all counters zero).
    pub fn new() -> Self {
        ProgressHandle::default()
    }

    /// Re-arms the handle for a run over `shard_budgets` (cases per shard,
    /// in merge order). Zeroes every counter.
    pub fn reset(&self, shard_budgets: &[u64]) {
        *self.rows() =
            shard_budgets.iter().map(|&b| ShardState { budget: b, ..Default::default() }).collect();
    }

    /// The per-shard rows, locked.
    fn rows(&self) -> MutexGuard<'_, Vec<ShardState>> {
        self.shards.lock().expect("progress poisoned")
    }

    /// Applies `update` to `shard`'s row, if the plan has one.
    fn update(&self, shard: usize, update: impl FnOnce(&mut ShardState)) {
        if let Some(s) = self.rows().get_mut(shard) {
            update(s);
        }
    }

    /// Marks `shard` as started (starts its throughput clock).
    pub fn shard_started(&self, shard: usize) {
        self.update(shard, |s| s.started = Some(Instant::now()));
    }

    /// Records one completed case on `shard`.
    pub fn case_done(&self, shard: usize) {
        self.update(shard, |s| s.done += 1);
    }

    /// Records one reported bug on `shard`.
    pub fn bug_found(&self, shard: usize) {
        self.update(shard, |s| s.bugs += 1);
    }

    /// Marks `shard` as finished (freezes its throughput clock).
    pub fn shard_finished(&self, shard: usize) {
        self.update(shard, |s| s.finished = Some(Instant::now()));
    }

    /// Sets `shard`'s row to its committed result, `cases` done and `bugs`
    /// found, and marks it finished. What its attempts counted is replaced,
    /// so a shard that ran twice, or whose result came from a journal,
    /// counts once.
    pub fn shard_committed(&self, shard: usize, cases: u64, bugs: u64) {
        self.update(shard, |s| {
            let now = Instant::now();
            s.started.get_or_insert(now);
            s.finished.get_or_insert(now);
            s.done = cases;
            s.bugs = bugs;
        });
    }

    /// Cases completed so far.
    pub fn cases_done(&self) -> u64 {
        self.rows().iter().map(|s| s.done).sum()
    }

    /// Unique bugs reported so far.
    pub fn bugs_found(&self) -> u64 {
        self.rows().iter().map(|s| s.bugs).sum()
    }

    /// A consistent point-in-time view of the whole run.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let shards = self.rows();
        let per_shard: Vec<ShardSnapshot> = shards
            .iter()
            .enumerate()
            .map(|(index, s)| {
                let elapsed = s.started.map(|start| {
                    s.finished.map_or_else(|| start.elapsed(), |end| end.duration_since(start))
                });
                let throughput = elapsed.and_then(|e| {
                    let secs = e.as_secs_f64();
                    (secs > 0.0).then(|| s.done as f64 / secs)
                });
                ShardSnapshot {
                    index,
                    case_budget: s.budget,
                    cases_done: s.done,
                    bugs_found: s.bugs,
                    finished: s.finished.is_some(),
                    throughput,
                }
            })
            .collect();
        ProgressSnapshot {
            total_cases: per_shard.iter().map(|s| s.case_budget).sum(),
            cases_done: per_shard.iter().map(|s| s.cases_done).sum(),
            bugs_found: per_shard.iter().map(|s| s.bugs_found).sum(),
            shards_done: per_shard.iter().filter(|s| s.finished).count() as u64,
            shards: per_shard,
        }
    }
}

/// Point-in-time progress of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index (merge order).
    pub index: usize,
    /// The shard's case budget.
    pub case_budget: u64,
    /// Cases the shard has completed.
    pub cases_done: u64,
    /// Bugs the shard has reported.
    pub bugs_found: u64,
    /// `true` once the shard's report is in.
    pub finished: bool,
    /// Cases per wall-clock second (`None` before the shard starts).
    pub throughput: Option<f64>,
}

/// Point-in-time progress of a whole campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// The run's total case budget.
    pub total_cases: u64,
    /// Cases completed across all shards.
    pub cases_done: u64,
    /// Bugs reported across all shards.
    pub bugs_found: u64,
    /// Shards that have delivered their report.
    pub shards_done: u64,
    /// Per-shard detail, in merge order.
    pub shards: Vec<ShardSnapshot>,
}

impl ProgressSnapshot {
    /// Completed fraction of the case budget in `[0, 1]`.
    pub fn fraction_done(&self) -> f64 {
        if self.total_cases == 0 {
            0.0
        } else {
            self.cases_done as f64 / self.total_cases as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let handle = ProgressHandle::new();
        handle.reset(&[10, 20]);
        handle.shard_started(0);
        handle.case_done(0);
        handle.case_done(1);
        handle.bug_found(1);
        let snap = handle.snapshot();
        assert_eq!(snap.total_cases, 30);
        assert_eq!(snap.cases_done, 2);
        assert_eq!(snap.bugs_found, 1);
        assert_eq!(snap.shards[0].cases_done, 1);
        assert_eq!(snap.shards[1].bugs_found, 1);
        assert!((snap.fraction_done() - 2.0 / 30.0).abs() < 1e-12);

        handle.reset(&[5]);
        let snap = handle.snapshot();
        assert_eq!(snap.total_cases, 5);
        assert_eq!(snap.cases_done, 0);
        assert_eq!(snap.shards.len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let a = ProgressHandle::new();
        a.reset(&[4]);
        let b = a.clone();
        b.case_done(0);
        assert_eq!(a.cases_done(), 1);
    }

    #[test]
    fn finished_shard_freezes_throughput() {
        let handle = ProgressHandle::new();
        handle.reset(&[2]);
        handle.shard_started(0);
        handle.case_done(0);
        handle.case_done(0);
        handle.shard_finished(0);
        let snap = handle.snapshot();
        assert!(snap.shards[0].finished);
        assert_eq!(snap.shards_done, 1);
        // Throughput is measured over the frozen window (may be None only
        // if the window rounds to zero seconds — never on real work, but
        // tolerate it here).
        if let Some(t) = snap.shards[0].throughput {
            assert!(t >= 0.0);
        }
    }
}
