//! Bounded async-style ingest: replay a workload trace against a
//! [`CamCluster`] cycle by cycle through a bounded arrival queue.
//!
//! Records enter the queue on their trace arrival cycles (backpressure
//! when the queue is full — nothing is ever dropped), and leave it
//! strictly in order: a record is dispatched only once every sub-issue
//! of the record in front of it has claimed an issue slot. Consecutive
//! records bound for *different* shards issue in the same cycle — the
//! cluster's throughput win — while per-key operation order is
//! preserved by construction (one serving home per key at any instant,
//! FIFO pipes per shard).
//!
//! A [`MigrationPlan`] opens a live migration window mid-replay; the
//! loop keeps feeding queries through the window and the outcome
//! records the migration's stall cycles next to the per-shard retire
//! latency samples.
//!
//! # Failure handling
//!
//! With [`CamCluster::enable_failover`] on, a [`ClusterFaultPlan`]
//! crashes or stalls shards mid-replay and the loop keeps the workload
//! flowing:
//!
//! * **reads** aimed at a failed shard are answered immediately from
//!   its replica epoch (degraded — stale but never silent);
//! * **writes** aimed at a failed shard wait in a FIFO retry queue
//!   with exponential backoff, bounded per-write by the shed policy's
//!   `max_retries` and per shard by its `retry_budget`; past either
//!   bound the write is **shed** (counted, never silently lost);
//! * ops **purged** by a crash (issued but never acknowledged) are
//!   re-queued at the dispatch head and re-issued after recovery, so
//!   retire-order accounting stays exact.
//!
//! Fault ticks are relative to the replay start; faults scheduled past
//! the replay's natural quiescence never fire.

use std::collections::VecDeque;

use dsp_cam_core::pipelined::{Op, RetireRecord};
use dsp_cam_workload::{percentile, Trace};

use crate::cluster::{CamCluster, ClusterError};
use crate::failover::{ClusterFaultPlan, ShardFault};

/// Open a migration window after `after_records` trace records have
/// been dispatched.
#[derive(Debug, Clone, Copy)]
pub struct MigrationPlan {
    /// Dispatch position at which to open the window.
    pub after_records: usize,
    /// Slot to move.
    pub slot: usize,
    /// Destination shard.
    pub dest: usize,
}

/// Ingest-loop knobs.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Bound on records waiting between arrival and dispatch. Arrivals
    /// beyond it wait at the source (backpressure, never a drop).
    pub queue_capacity: usize,
    /// Optional mid-replay live migration.
    pub migrate: Option<MigrationPlan>,
    /// Optional shard-failure schedule (requires
    /// [`CamCluster::enable_failover`] on the cluster).
    pub faults: Option<ClusterFaultPlan>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_capacity: 64,
            migrate: None,
            faults: None,
        }
    }
}

/// Everything one cluster replay observed.
#[derive(Debug, Clone, Default)]
pub struct ClusterReplayOutcome {
    /// Sub-operations issued into shard pipelines (re-issues of purged
    /// ops counted once more; purged issues subtracted).
    pub issued: u64,
    /// Completions harvested from shard pipelines.
    pub completions: u64,
    /// Searches answered synchronously by a frozen migration replica
    /// (the replay's change in
    /// [`ClusterCounters::frozen_reads`](crate::ClusterCounters::frozen_reads)).
    pub frozen_answers: u64,
    /// Search keys answered from a replica epoch while their home
    /// shard was down (the replay's change in
    /// [`FailoverStats::degraded_reads`](crate::FailoverStats::degraded_reads)).
    pub degraded_answers: u64,
    /// Issued minus completed at quiescence — the zero-dropped-query
    /// invariant demands this is 0.
    pub dropped: u64,
    /// Total lockstep cycles, quiescence included.
    pub ticks: u64,
    /// Matching search completions (frozen and degraded answers
    /// included). This and the next two fields are the replay's change
    /// in the same-named [`ClusterCounters`](crate::ClusterCounters) fields.
    pub search_hits: u64,
    /// Deletes that invalidated an entry.
    pub delete_hits: u64,
    /// Updates rejected at admission.
    pub update_rejections: u64,
    /// Keys/ops presented overall (sub-issues, frozen and degraded
    /// answers) — the availability denominator.
    pub presented: u64,
    /// Writes dropped by overload admission control after their retry
    /// bounds were spent.
    pub shed_writes: u64,
    /// Deferred-write retry attempts against still-failed shards.
    pub write_retries: u64,
    /// Always 0: unit operations run on the caller's thread, so no
    /// write can fail in the dispatch machinery. Retained because the
    /// `perfbench` harness reads it; it goes with that harness's next
    /// change.
    pub infra_failures: u64,
    /// Shard failures detected during the replay. This and the next
    /// three fields are the replay's change in the same-named
    /// [`FailoverStats`](crate::FailoverStats) fields.
    pub failures_detected: u64,
    /// Shard rebuilds driven to completion.
    pub rebuilds_completed: u64,
    /// Ticks from each failure detection to the shard serving again.
    pub recovery_ticks: Vec<u64>,
    /// Migration windows rolled back because a participant failed.
    pub migration_aborts: u64,
    /// End-to-end retire latencies per shard (arrival to retire,
    /// queueing included), in retire order.
    pub per_shard_latencies: Vec<Vec<u64>>,
    /// Latencies of frozen-replica answers (dispatch wait plus the
    /// search-pipe latency the replica port mirrors).
    pub frozen_latencies: Vec<u64>,
    /// Latencies of degraded replica-epoch answers, same convention.
    pub degraded_latencies: Vec<u64>,
    /// Stall cycles of each migration completed during the replay.
    pub migration_stalls: Vec<u64>,
    /// Deepest arrival queue observed.
    pub peak_queue_depth: usize,
    /// Cycles the dispatch head spent blocked on a busy issue slot.
    pub head_of_line_stalls: u64,
}

impl ClusterReplayOutcome {
    /// `(p50, p99)` retire latency of shard `i`'s samples (0 when the
    /// shard retired nothing).
    #[must_use]
    pub fn shard_percentiles(&self, i: usize) -> (u64, u64) {
        let lats = &self.per_shard_latencies[i];
        (percentile(lats, 50.0), percentile(lats, 99.0))
    }

    /// Fraction of presented keys/ops that were answered (degraded
    /// answers count — stale beats silent): shed writes are the only
    /// unanswered work. 1.0 on an empty replay.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.presented == 0 {
            return 1.0;
        }
        1.0 - (self.shed_writes as f64 / self.presented as f64)
    }

    /// Record the replay's histograms into an observability sink:
    /// per-shard retire latencies under `cluster/shard{i}`, migration
    /// stalls under `cluster/migration`, and failover counters plus
    /// recovery/degraded-latency histograms under `cluster/failover`.
    #[cfg(feature = "obs")]
    pub fn observe_into(&self, sink: &std::sync::Arc<dsp_cam_obs::ObsSink>) {
        for (i, lats) in self.per_shard_latencies.iter().enumerate() {
            let scope = sink.register_scope(&format!("cluster/shard{i}"));
            sink.with(|o| {
                for &cycles in lats {
                    o.observe(scope, "retire_latency_cycles", cycles);
                }
            });
        }
        let scope = sink.register_scope("cluster/migration");
        sink.with(|o| {
            for &stall in &self.migration_stalls {
                o.observe(scope, "migration_stall_cycles", stall);
            }
        });
        let scope = sink.register_scope("cluster/failover");
        sink.with(|o| {
            o.add(scope, "failures_detected", self.failures_detected);
            o.add(scope, "rebuilds_completed", self.rebuilds_completed);
            o.add(scope, "degraded_answers", self.degraded_answers);
            o.add(scope, "shed_writes", self.shed_writes);
            o.add(scope, "write_retries", self.write_retries);
            o.add(scope, "migration_aborts", self.migration_aborts);
            for &t in &self.recovery_ticks {
                o.observe(scope, "recovery_ticks", t);
            }
            for &l in &self.degraded_latencies {
                o.observe(scope, "degraded_read_latency_cycles", l);
            }
        });
    }
}

/// One sub-issue waiting for its shard's issue slot.
#[derive(Debug)]
struct PendingSub {
    shard: usize,
    op: Op,
    arrival: u64,
}

/// One issued sub-op whose completion has not been harvested. Per
/// shard, retire order equals issue order, so a FIFO matches
/// completions back to what was issued — and a crash's purged ops are
/// exactly the queue's remainder.
#[derive(Debug)]
struct OutstandingOp {
    op: Op,
    arrival: u64,
}

/// A write waiting out a failed shard under bounded retry.
#[derive(Debug)]
struct DeferredWrite {
    sub: PendingSub,
    attempts: u32,
    due: u64,
}

/// Keys (searches) or ops (writes) a sub-issue presents — the
/// availability denominator's unit.
fn presented_of(op: &Op) -> u64 {
    match op {
        Op::SearchStream(keys) | Op::SearchMulti(keys) => keys.len() as u64,
        _ => 1,
    }
}

/// Replay `trace` against `cluster` through the bounded ingest loop.
/// The trace's prefill is stored (and flushed) before the clock starts;
/// the cluster is driven to quiescence (open migration window, pending
/// rebuilds and deferred writes included) before the outcome is
/// computed.
///
/// # Errors
///
/// Propagates prefill admission failures (as
/// [`ClusterError::Admission`]), [`CamCluster::begin_migration`] errors
/// from the migration plan, and [`ClusterError::FailoverDisabled`] when
/// a fault plan is supplied without [`CamCluster::enable_failover`].
pub fn replay_cluster(
    trace: &Trace,
    cluster: &mut CamCluster,
    config: &IngestConfig,
) -> Result<ClusterReplayOutcome, ClusterError> {
    if config.faults.is_some() && !cluster.failover_enabled() {
        return Err(ClusterError::FailoverDisabled);
    }
    cluster
        .prefill(trace.prefill_words())
        .map_err(ClusterError::Admission)?;
    let shards = cluster.num_shards();
    for i in 0..shards {
        cluster.shard_mut(i).enable_retire_log();
        cluster.shard_mut(i).drain_retired();
    }
    let mut outcome = ClusterReplayOutcome {
        per_shard_latencies: vec![Vec::new(); shards],
        ..ClusterReplayOutcome::default()
    };
    // Hits, rejections, frozen and degraded answers, failover tallies
    // and migration stalls are tallied once, by the cluster; the outcome
    // reports their change over the replay.
    let before = *cluster.counters();
    let failover_before = cluster.failover_stats().cloned().unwrap_or_default();
    let stalls_before = cluster.migration_stalls().len();

    let start = cluster.cycle();
    let arrivals = trace.arrivals(start);
    let search_latency = cluster.shard(0).unit().config().search_latency();
    let policy = cluster.shed_policy();
    let mut next_record = 0usize;
    let mut dispatched = 0usize;
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut subs: VecDeque<PendingSub> = VecDeque::new();
    let mut deferred: VecDeque<DeferredWrite> = VecDeque::new();
    let mut outstanding: Vec<VecDeque<OutstandingOp>> =
        (0..shards).map(|_| VecDeque::new()).collect();
    let mut budget: Vec<u64> = vec![policy.retry_budget; shards];
    let mut was_healthy: Vec<bool> = vec![true; shards];
    let mut migrate = config.migrate;
    let mut faults = config.faults.clone();

    loop {
        let pending_work = next_record < trace.records.len()
            || !queue.is_empty()
            || !subs.is_empty()
            || !deferred.is_empty()
            || outstanding.iter().any(|q| !q.is_empty());
        let draining = cluster.migration_in_progress()
            || cluster.any_unhealthy()
            || (0..shards)
                .any(|i| cluster.shard(i).in_flight() || cluster.shard(i).buffer_depth() > 0);
        if !pending_work && !draining {
            break;
        }
        let now = cluster.cycle();

        // Fire due shard faults. A crash purges the shard's in-flight
        // ops (their completions will never arrive): give them back to
        // the dispatch head in issue order — they were never
        // acknowledged, so re-issue is the client's contract.
        if let Some(plan) = &mut faults {
            for fault in plan.due(now - start) {
                cluster.inject_shard_fault(fault.shard, fault.fault)?;
                if fault.fault == ShardFault::Crash {
                    requeue_purged(fault.shard, &mut outstanding, &mut subs, &mut outcome);
                }
            }
        }
        // Replenish a shard's retry budget when it comes back.
        for i in 0..shards {
            let healthy = cluster.shard_healthy(i);
            if healthy && !was_healthy[i] {
                budget[i] = policy.retry_budget;
            }
            was_healthy[i] = healthy;
        }

        // Open the migration window at its planned dispatch position
        // (deferred writes drained first: their routing predates the
        // window). An unavailable participant defers the window, not
        // the replay.
        if let Some(plan) = migrate {
            if dispatched >= plan.after_records && subs.is_empty() && deferred.is_empty() {
                match cluster.begin_migration(plan.slot, plan.dest) {
                    Ok(()) => migrate = None,
                    Err(ClusterError::ShardUnavailable { .. }) => {}
                    Err(err) => return Err(err),
                }
            }
        }
        let now = cluster.cycle();
        // Admit due arrivals up to the queue bound (backpressure: the
        // rest wait at the source and keep their arrival stamps).
        while next_record < trace.records.len()
            && arrivals[next_record] <= now
            && queue.len() < config.queue_capacity
        {
            queue.push_back(next_record);
            next_record += 1;
        }
        outcome.peak_queue_depth = outcome.peak_queue_depth.max(queue.len());

        // Dispatch strictly in order: expand the head record into shard
        // sub-issues, answering frozen-replica and degraded reads on
        // the spot.
        while subs.len() < shards {
            let Some(&record) = queue.front() else { break };
            let arrival = arrivals[record];
            let plan = cluster.plan(&trace.records[record].op);
            outcome.presented += (plan.frozen.len() + plan.degraded.len()) as u64;
            let latency = (now - arrival) + search_latency;
            outcome
                .frozen_latencies
                .extend(std::iter::repeat_n(latency, plan.frozen.len()));
            outcome
                .degraded_latencies
                .extend(std::iter::repeat_n(latency, plan.degraded.len()));
            for (shard, op, _) in plan.subs {
                outcome.presented += presented_of(&op);
                subs.push_back(PendingSub { shard, op, arrival });
            }
            queue.pop_front();
            dispatched += 1;
        }

        let mut claimed = vec![false; shards];
        // Deferred writes first (they are the oldest work): the head
        // re-resolves its shard (a rollback may have re-homed its key)
        // and issues if the shard is back, retries with exponential
        // backoff if not, and is shed once its bounds are spent.
        while let Some(head) = deferred.front() {
            let target = cluster
                .resolve_shard(&head.sub.op)
                .unwrap_or(head.sub.shard);
            if cluster.shard_healthy(target) {
                if claimed[target] {
                    outcome.head_of_line_stalls += 1;
                    break;
                }
                let item = deferred.pop_front().expect("front checked");
                issue_sub(
                    cluster,
                    PendingSub {
                        shard: target,
                        ..item.sub
                    },
                    &mut claimed,
                    &mut outstanding,
                    &mut outcome,
                );
            } else if now >= head.due {
                let mut item = deferred.pop_front().expect("front checked");
                item.attempts += 1;
                outcome.write_retries += 1;
                budget[target] = budget[target].saturating_sub(1);
                if item.attempts > policy.max_retries || budget[target] == 0 {
                    // Bounds spent: shed. Counted, never silent.
                    outcome.shed_writes += 1;
                    continue;
                }
                item.due = now + policy.backoff(item.attempts);
                deferred.push_front(item);
                break;
            } else {
                break;
            }
        }
        // Then the dispatch queue. Writes bound for a failed shard (or
        // queued behind deferred writes — FIFO among writes keeps
        // per-key order) defer; reads bound for a failed shard answer
        // degraded immediately; everything else issues while its
        // shard's slot is free.
        while let Some(front) = subs.front() {
            let target = cluster.resolve_shard(&front.op).unwrap_or(front.shard);
            let is_write = matches!(front.op, Op::Update(_) | Op::Delete(_));
            if is_write && (!cluster.shard_healthy(target) || !deferred.is_empty()) {
                let sub = subs.pop_front().expect("front checked");
                deferred.push_back(DeferredWrite {
                    sub: PendingSub {
                        shard: target,
                        ..sub
                    },
                    attempts: 0,
                    due: now,
                });
                continue;
            }
            if !is_write && !cluster.shard_healthy(target) {
                let sub = subs.pop_front().expect("front checked");
                let results = cluster
                    .degraded_answer(target, &sub.op)
                    .expect("non-write sub");
                let latency = (now - sub.arrival) + search_latency;
                outcome
                    .degraded_latencies
                    .extend(std::iter::repeat_n(latency, results.len()));
                continue;
            }
            if claimed[target] {
                outcome.head_of_line_stalls += 1;
                break;
            }
            let sub = subs.pop_front().expect("front checked");
            issue_sub(
                cluster,
                PendingSub {
                    shard: target,
                    ..sub
                },
                &mut claimed,
                &mut outstanding,
                &mut outcome,
            );
        }

        cluster.tick();
        harvest(cluster, &mut outcome, &mut outstanding);
    }
    cluster.quiesce();
    harvest(cluster, &mut outcome, &mut outstanding);

    let after = cluster.counters();
    outcome.search_hits = after.search_hits - before.search_hits;
    outcome.delete_hits = after.delete_hits - before.delete_hits;
    outcome.update_rejections = after.update_rejections - before.update_rejections;
    outcome.frozen_answers = after.frozen_reads - before.frozen_reads;
    outcome.ticks = cluster.cycle() - start;
    outcome.dropped = outcome.issued - outcome.completions;
    outcome.migration_stalls = cluster.migration_stalls()[stalls_before..].to_vec();
    if let Some(stats) = cluster.failover_stats() {
        outcome.failures_detected = stats.failures_detected - failover_before.failures_detected;
        outcome.rebuilds_completed = stats.rebuilds_completed - failover_before.rebuilds_completed;
        outcome.degraded_answers = stats.degraded_reads - failover_before.degraded_reads;
        outcome.recovery_ticks =
            stats.recovery_ticks[failover_before.recovery_ticks.len()..].to_vec();
        outcome.migration_aborts = stats.migration_aborts - failover_before.migration_aborts;
    }
    Ok(outcome)
}

/// Issue one sub-op on its (already re-resolved, healthy, unclaimed)
/// shard and push its outstanding record.
fn issue_sub(
    cluster: &mut CamCluster,
    sub: PendingSub,
    claimed: &mut [bool],
    outstanding: &mut [VecDeque<OutstandingOp>],
    outcome: &mut ClusterReplayOutcome,
) {
    claimed[sub.shard] = true;
    outstanding[sub.shard].push_back(OutstandingOp {
        op: sub.op.clone(),
        arrival: sub.arrival,
    });
    match cluster.shard_mut(sub.shard).issue_at(sub.op, sub.arrival) {
        Ok(()) => outcome.issued += 1,
        Err(_) => unreachable!("slot claimed once per cycle"),
    }
}

/// Give a crashed shard's purged in-flight ops back to the dispatch
/// head in their original issue order — their completions will never
/// arrive, so they are un-issued and go around again.
fn requeue_purged(
    shard: usize,
    outstanding: &mut [VecDeque<OutstandingOp>],
    subs: &mut VecDeque<PendingSub>,
    outcome: &mut ClusterReplayOutcome,
) {
    while let Some(rec) = outstanding[shard].pop_back() {
        outcome.issued -= 1;
        subs.push_front(PendingSub {
            shard,
            op: rec.op,
            arrival: rec.arrival,
        });
    }
}

/// Pull retired completions and retire-log stamps off every shard,
/// retiring each against its outstanding record (per-shard retire
/// order equals issue order).
fn harvest(
    cluster: &mut CamCluster,
    outcome: &mut ClusterReplayOutcome,
    outstanding: &mut [VecDeque<OutstandingOp>],
) {
    for (i, issued) in outstanding.iter_mut().enumerate() {
        for (_, done) in cluster.shard_mut(i).drain_retired() {
            cluster.tally(&done);
            outcome.completions += 1;
            issued.pop_front();
        }
        let records = cluster.shard_mut(i).take_retire_log();
        outcome.per_shard_latencies[i].extend(records.iter().map(RetireRecord::latency));
    }
}
