//! Cluster fault tolerance: replica epochs, shard failure plans, shed
//! policies and the bookkeeping [`crate::CamCluster`] keeps while a
//! shard is down.
//!
//! # Failure model
//!
//! A shard can fail two ways:
//!
//! * [`ShardFault::Crash`] — the shard loses its contents and every
//!   in-flight operation (its pipeline is purged without retiring);
//! * [`ShardFault::Stall`] — the shard's issue port closes for a
//!   bounded number of ticks but its pipeline keeps draining (a slow
//!   shard, not a dead one).
//!
//! # Recovery contract
//!
//! Every shard keeps one read-only **replica epoch** (a rehydrated
//! snapshot, replaced on a cycle cadence) plus a bounded
//! **acknowledged-write journal**
//! ([`dsp_cam_core::journal::OpJournal`]). A crashed shard is rebuilt
//! as `epoch + journal replay`, which reproduces exactly the
//! logical multiset of words whose writes were acknowledged — the
//! zero-lost-acknowledged-writes guarantee
//! (`tests/cluster_recovery.rs` proves it against a fault-free twin).
//! While the rebuild is in flight, the slot's searches are answered
//! from the epoch (stale but never silent) and writes wait in
//! bounded-retry queues governed by a [`ShedPolicy`].

use dsp_cam_core::faults::XorShift64;
use dsp_cam_core::unit::CamUnit;

/// Replica-epoch keeping for transparent search failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Cycle cadence at which healthy shards refresh their epoch
    /// (the refresh waits for the first tick with no write in flight on
    /// the shard so the epoch is a clean journal mark). `0` disables the
    /// cadence; epochs still refresh after every rebuild and whenever
    /// the journal outgrows its watermark.
    pub refresh_interval: u64,
    /// Acknowledged-write journal watermark per shard — how many writes
    /// may separate the epoch from the live contents before a forced
    /// refresh.
    pub journal_capacity: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            refresh_interval: 128,
            journal_capacity: 4096,
        }
    }
}

/// Overload admission control: how long writes wait for a failed shard
/// before the cluster sheds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Backoff unit in ticks: a write deferred on a failed shard is
    /// first retried one tick later, and retry `n` waits
    /// `base_backoff_ticks << n` for the next (shift capped at 16).
    pub base_backoff_ticks: u64,
    /// Retries per deferred write before it is shed.
    pub max_retries: u32,
    /// Per-shard budget of retry attempts per outage; replenished when
    /// the shard turns healthy again. It bounds transactional writes
    /// and the ingest loop alike: a replay spends one budget per shard
    /// over its whole run, and each transactional write starts with a
    /// full one.
    pub retry_budget: u64,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy {
            base_backoff_ticks: 8,
            max_retries: 8,
            retry_budget: 4096,
        }
    }
}

/// Largest backoff shift: retries past it all wait the same.
const MAX_BACKOFF_SHIFT: u32 = 16;

impl ShedPolicy {
    /// Ticks a deferred write waits after retry `attempt` found its
    /// shard still down.
    pub(crate) fn backoff(&self, attempt: u32) -> u64 {
        self.base_backoff_ticks
            .saturating_mul(1 << attempt.min(MAX_BACKOFF_SHIFT))
    }
}

/// One way a shard can fail (see the module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// Contents and in-flight operations lost; rebuild required.
    Crash,
    /// Issue port closed for `ticks` ticks; pipeline keeps draining and
    /// contents survive.
    Stall {
        /// How long the port stays closed.
        ticks: u64,
    },
}

/// A [`ShardFault`] scheduled at a replay tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Tick (relative to the replay start) at which the fault fires.
    pub at_tick: u64,
    /// Victim shard.
    pub shard: usize,
    /// What happens to it.
    pub fault: ShardFault,
}

/// A seeded, sorted schedule of shard faults for one replay — the chaos
/// half of `tests/cluster_recovery.rs`.
#[derive(Debug, Clone, Default)]
pub struct ClusterFaultPlan {
    /// Faults not yet fired, ascending by tick.
    pending: Vec<PlannedFault>,
    cursor: usize,
}

impl ClusterFaultPlan {
    /// A plan from an explicit fault list (sorted internally; ties fire
    /// in list order).
    #[must_use]
    pub fn from_faults(mut faults: Vec<PlannedFault>) -> Self {
        faults.sort_by_key(|f| f.at_tick);
        ClusterFaultPlan {
            pending: faults,
            cursor: 0,
        }
    }

    /// Draw `faults` reproducible faults over `shards` shards across a
    /// replay `horizon` of ticks. One draw in three is a stall lasting
    /// between 4 ticks and a quarter of the horizon; the rest are
    /// crashes.
    #[must_use]
    pub fn seeded(seed: u64, shards: usize, horizon: u64, faults: usize) -> Self {
        assert!(shards > 0, "a fault plan needs a shard to aim at");
        let mut rng = XorShift64::new(seed);
        let horizon = horizon.max(1);
        let drawn = (0..faults)
            .map(|_| PlannedFault {
                at_tick: rng.below(horizon),
                shard: rng.below(shards as u64) as usize,
                fault: match rng.below(3) {
                    1 => ShardFault::Stall {
                        ticks: 4 + rng.below(horizon / 4 + 1),
                    },
                    _ => ShardFault::Crash,
                },
            })
            .collect();
        ClusterFaultPlan::from_faults(drawn)
    }

    /// Pop every fault due at or before `tick` (relative to the replay
    /// start), in schedule order.
    pub fn due(&mut self, tick: u64) -> Vec<PlannedFault> {
        let start = self.cursor;
        while self.cursor < self.pending.len() && self.pending[self.cursor].at_tick <= tick {
            self.cursor += 1;
        }
        self.pending[start..self.cursor].to_vec()
    }

    /// Faults not yet fired.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.pending.len() - self.cursor
    }
}

/// Failure and recovery tallies over the cluster's lifetime (a replay
/// reports its change in them in [`crate::ClusterReplayOutcome`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Shard failures detected (injected or signalled by the dispatch
    /// path).
    pub failures_detected: u64,
    /// Searches answered from a replica epoch while the home shard was
    /// down.
    pub degraded_reads: u64,
    /// Rebuilds driven to completion (`epoch + journal` reinstalled).
    pub rebuilds_completed: u64,
    /// Ticks from failure detection to the shard serving again, one
    /// sample per recovery (stall expiries included).
    pub recovery_ticks: Vec<u64>,
    /// Migration windows rolled back: aborted, or their destination
    /// crashed.
    pub migration_aborts: u64,
}

/// Serving state of one shard.
#[derive(Debug, Clone)]
pub(crate) enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Issue port closed until the given cycle; contents intact.
    Stalled {
        /// Cycle the stall was detected.
        since: u64,
        /// First cycle the shard serves again.
        until: u64,
    },
    /// Contents lost; a rebuild is restoring `epoch + journal`.
    Rebuilding {
        /// Cycle the failure was detected.
        since: u64,
        /// First cycle the rebuilt unit can be reinstalled (models the
        /// restore bandwidth of one word per tick).
        ready_at: u64,
        /// The `epoch + journal` unit, reinstalled at `ready_at`: the
        /// shard's logical contents until then.
        unit: Box<CamUnit>,
    },
}

/// Everything the cluster tracks once failover is enabled.
#[derive(Debug)]
pub(crate) struct FailoverState {
    pub replication: ReplicationConfig,
    /// Per-shard serving state.
    pub health: Vec<ShardHealth>,
    /// Per-shard read-only replica epoch: a rehydrated snapshot at the
    /// last clean journal mark (mutable because searching a unit is
    /// `&mut`).
    pub epochs: Vec<CamUnit>,
    /// Per-shard flag: refresh the epoch at the next clean tick.
    pub due_refresh: Vec<bool>,
    pub stats: FailoverStats,
}

impl FailoverState {
    pub(crate) fn new(replication: ReplicationConfig, epochs: Vec<CamUnit>) -> Self {
        let shards = epochs.len();
        FailoverState {
            replication,
            health: vec![ShardHealth::Healthy; shards],
            epochs,
            due_refresh: vec![false; shards],
            stats: FailoverStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_sorted_and_in_range() {
        let mut a = ClusterFaultPlan::seeded(7, 4, 1000, 16);
        let b = ClusterFaultPlan::seeded(7, 4, 1000, 16);
        assert_eq!(a.pending, b.pending, "same seed, same schedule");
        assert_eq!(a.remaining(), 16);
        let mut last = 0;
        for f in &a.pending {
            assert!(f.at_tick < 1000);
            assert!(f.shard < 4);
            assert!(f.at_tick >= last, "sorted ascending");
            last = f.at_tick;
            if let ShardFault::Stall { ticks } = f.fault {
                assert!(ticks >= 4);
            }
        }
        let early: Vec<_> = a.due(499);
        assert!(early.iter().all(|f| f.at_tick <= 499));
        assert_eq!(a.remaining(), 16 - early.len());
        let late = a.due(2000);
        assert_eq!(early.len() + late.len(), 16, "every fault fires once");
        assert!(a.due(5000).is_empty());
    }

    #[test]
    fn explicit_plans_sort_by_tick() {
        let mut plan = ClusterFaultPlan::from_faults(vec![
            PlannedFault {
                at_tick: 90,
                shard: 1,
                fault: ShardFault::Crash,
            },
            PlannedFault {
                at_tick: 10,
                shard: 0,
                fault: ShardFault::Stall { ticks: 5 },
            },
        ]);
        let due = plan.due(10);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].shard, 0);
        assert_eq!(plan.remaining(), 1);
    }
}
