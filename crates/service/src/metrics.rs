//! Service-plane counters and their conservation contract.
//!
//! Every scheduling decision the daemon makes is emitted as a typed
//! service event ([`EventKind`] variants on the `SERVICE_SHARD`
//! pseudo-shard). The daemon's counters are the count of those events: it
//! calls [`MetricsSnapshot::count`] on each one under the lock that orders
//! the service stream, so a reading always equals
//! [`MetricsSnapshot::from_events`] over the events emitted so far. The
//! ledgers below then check that the counts balance.

use comfort_telemetry::{Event, EventKind};

/// Counts of every service-plane decision, one counter per event kind
/// (campaign outcomes split three ways).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Leases handed to workers.
    pub leases_acquired: u64,
    /// Heartbeat renewals of in-flight leases.
    pub leases_renewed: u64,
    /// Leases released after a committed shard.
    pub leases_released: u64,
    /// Leases whose TTL lapsed without progress.
    pub leases_expired: u64,
    /// Expired leases returned to the pending pool.
    pub leases_reclaimed: u64,
    /// Campaigns admitted past backpressure.
    pub campaigns_admitted: u64,
    /// Campaigns rejected by admission control.
    pub campaigns_rejected: u64,
    /// Campaigns that merged a complete report.
    pub campaigns_completed: u64,
    /// Campaigns cancelled (explicitly or by deadline).
    pub campaigns_cancelled: u64,
    /// Campaigns failed at the supervisor's panic boundary.
    pub campaigns_failed: u64,
    /// Graceful drains initiated.
    pub drains_started: u64,
    /// Jailed worker processes spawned by the fleet supervisor.
    pub workers_spawned: u64,
    /// Worker processes that died by signal.
    pub workers_died: u64,
    /// Shards quarantined after killing workers repeatedly.
    pub shards_poisoned: u64,
    /// Crash-storm breaker trips that narrowed the pool.
    pub pool_degradations: u64,
}

impl MetricsSnapshot {
    /// Counts one event. Non-service events are ignored.
    pub fn count(&mut self, kind: &EventKind) {
        match kind {
            EventKind::LeaseAcquired { .. } => self.leases_acquired += 1,
            EventKind::LeaseRenewed { .. } => self.leases_renewed += 1,
            EventKind::LeaseReleased { .. } => self.leases_released += 1,
            EventKind::LeaseExpired { .. } => self.leases_expired += 1,
            EventKind::LeaseReclaimed { .. } => self.leases_reclaimed += 1,
            EventKind::CampaignAdmitted { .. } => self.campaigns_admitted += 1,
            EventKind::CampaignRejected { .. } => self.campaigns_rejected += 1,
            EventKind::CampaignFinished { outcome, .. } => match outcome.as_str() {
                "completed" => self.campaigns_completed += 1,
                "failed" => self.campaigns_failed += 1,
                _ => self.campaigns_cancelled += 1,
            },
            EventKind::DrainStarted { .. } => self.drains_started += 1,
            EventKind::WorkerSpawned { .. } => self.workers_spawned += 1,
            EventKind::WorkerDied { .. } => self.workers_died += 1,
            EventKind::ShardPoisoned { .. } => self.shards_poisoned += 1,
            EventKind::PoolDegraded { .. } => self.pool_degradations += 1,
            _ => {}
        }
    }

    /// Rebuilds a snapshot by counting a stream of events (for instance a
    /// service sink's capture), to reconcile with [`Daemon::metrics`].
    ///
    /// [`Daemon::metrics`]: crate::daemon::Daemon::metrics
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for event in events {
            snap.count(&event.kind);
        }
        snap
    }

    /// Checks the lease ledger balances: every acquisition must end as a
    /// release or an expiry, except `still_held` leases in flight, and
    /// every expiry must be reclaimed.
    pub fn leases_conserved(&self, still_held: u64) -> Result<(), String> {
        let closed = self.leases_released + self.leases_expired + still_held;
        if self.leases_acquired != closed {
            return Err(format!(
                "lease ledger imbalance: {} acquired vs {} released + {} expired + {} held",
                self.leases_acquired, self.leases_released, self.leases_expired, still_held
            ));
        }
        if self.leases_expired != self.leases_reclaimed {
            return Err(format!(
                "{} expired leases but {} reclaimed",
                self.leases_expired, self.leases_reclaimed
            ));
        }
        Ok(())
    }

    /// Checks the worker ledger balances: every spawned worker process
    /// must have died by signal, exited, or still be `active`. Exits are
    /// not separately counted, so the check is `spawned == died + active +
    /// exited` rearranged: `spawned - died` must be at least `active` and
    /// with `exited` supplied exactly `died + exited + active`.
    pub fn workers_conserved(&self, active: u64, exited: u64) -> Result<(), String> {
        let closed = self.workers_died + exited + active;
        if self.workers_spawned != closed {
            return Err(format!(
                "worker ledger imbalance: {} spawned vs {} died + {} exited + {} active",
                self.workers_spawned, self.workers_died, exited, active
            ));
        }
        Ok(())
    }

    /// Checks the campaign ledger balances: admissions equal terminal
    /// outcomes plus campaigns still `active`.
    pub fn campaigns_conserved(&self, active: u64) -> Result<(), String> {
        let closed =
            self.campaigns_completed + self.campaigns_cancelled + self.campaigns_failed + active;
        if self.campaigns_admitted != closed {
            return Err(format!(
                "campaign ledger imbalance: {} admitted vs {} terminal + {} active",
                self.campaigns_admitted,
                closed - active,
                active
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_event(kind: EventKind) -> Event {
        let clock =
            comfort_telemetry::LogicalClock { shard: comfort_telemetry::SERVICE_SHARD, seq: 0 };
        Event { clock, kind }
    }

    #[test]
    fn snapshot_reconciles_with_the_event_stream() {
        let mut events = Vec::new();
        for _ in 0..2 {
            events.push(service_event(EventKind::LeaseAcquired {
                campaign: "c-1".into(),
                lease_shard: 0,
                worker: "w-0".into(),
                ttl_millis: 100,
            }));
        }
        events.push(service_event(EventKind::LeaseReleased {
            campaign: "c-1".into(),
            lease_shard: 0,
            worker: "w-0".into(),
        }));
        events.push(service_event(EventKind::LeaseExpired {
            campaign: "c-1".into(),
            lease_shard: 1,
            worker: "w-1".into(),
        }));
        events.push(service_event(EventKind::LeaseReclaimed {
            campaign: "c-1".into(),
            lease_shard: 1,
            worker: "w-1".into(),
            reclaims: 1,
        }));
        events.push(service_event(EventKind::CampaignAdmitted {
            campaign: "c-1".into(),
            tenant: "t".into(),
            shards: 3,
        }));
        // Not a service decision: no counter moves.
        events.push(service_event(EventKind::CaseRejected { base: 0, kept: false }));
        let snap = MetricsSnapshot::from_events(&events);
        let expected = MetricsSnapshot {
            leases_acquired: 2,
            leases_released: 1,
            leases_expired: 1,
            leases_reclaimed: 1,
            campaigns_admitted: 1,
            ..Default::default()
        };
        assert_eq!(snap, expected);
        snap.leases_conserved(0).expect("lease ledger balances");
        snap.campaigns_conserved(1).expect("campaign ledger balances");
    }

    #[test]
    fn imbalances_are_reported() {
        let snap = MetricsSnapshot { leases_acquired: 3, leases_released: 1, ..Default::default() };
        let err = snap.leases_conserved(0).unwrap_err();
        assert!(err.contains("imbalance"), "{err}");
        let snap = MetricsSnapshot { leases_expired: 2, leases_acquired: 2, ..Default::default() };
        let err = snap.leases_conserved(0).unwrap_err();
        assert!(err.contains("reclaimed"), "{err}");
        let snap = MetricsSnapshot { campaigns_admitted: 2, ..Default::default() };
        assert!(snap.campaigns_conserved(1).is_err());
    }

    #[test]
    fn worker_lifecycle_counters_reconcile_and_conserve() {
        let events = vec![
            service_event(EventKind::WorkerSpawned {
                campaign: "c".into(),
                worker: "fleet-0".into(),
                lease_shard: 0,
                pid: 100,
            }),
            service_event(EventKind::WorkerSpawned {
                campaign: "c".into(),
                worker: "fleet-1".into(),
                lease_shard: 1,
                pid: 101,
            }),
            service_event(EventKind::WorkerDied {
                campaign: "c".into(),
                worker: "fleet-0".into(),
                lease_shard: 0,
                signal: 9,
            }),
            service_event(EventKind::ShardPoisoned {
                campaign: "c".into(),
                lease_shard: 0,
                deaths: 3,
                poison_case: 2,
                signal: 6,
            }),
            service_event(EventKind::PoolDegraded {
                from_workers: 4,
                to_workers: 2,
                consecutive_deaths: 6,
            }),
        ];
        let snap = MetricsSnapshot::from_events(&events);
        assert_eq!(snap.workers_spawned, 2);
        assert_eq!(snap.workers_died, 1);
        assert_eq!(snap.shards_poisoned, 1);
        assert_eq!(snap.pool_degradations, 1);
        snap.workers_conserved(0, 1).expect("one died, one exited cleanly");
        assert!(snap.workers_conserved(0, 0).is_err(), "a spawned worker is unaccounted for");
    }

    #[test]
    fn finished_outcomes_route_to_their_counters() {
        let events: Vec<Event> = ["completed", "failed", "cancelled", "deadline"]
            .iter()
            .map(|o| {
                service_event(EventKind::CampaignFinished {
                    campaign: "c".into(),
                    outcome: o.to_string(),
                    shards_run: 1,
                })
            })
            .collect();
        let snap = MetricsSnapshot::from_events(&events);
        assert_eq!(snap.campaigns_completed, 1);
        assert_eq!(snap.campaigns_failed, 1);
        assert_eq!(snap.campaigns_cancelled, 2);
    }
}
