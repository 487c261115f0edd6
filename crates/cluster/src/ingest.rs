//! The cluster's one issue engine, and the bounded ingest loop that
//! replays a workload trace through it.
//!
//! A crate-private dispatcher turns planned records into shard
//! sub-issues and steps the cluster one cycle at a time. Each shard
//! takes at most one issue per cycle (its single issue port, II = 1),
//! sub-issues leave in dispatch order, writes aimed at a failed shard
//! wait under the cluster's [`ShedPolicy`], and completions are
//! harvested in retire order. Two front ends feed it:
//!
//! * [`replay_cluster`] feeds it from a bounded arrival queue. Records
//!   enter the queue on their trace arrival cycles (backpressure when
//!   the queue is full — nothing is ever dropped), and leave it strictly
//!   in order: a record is dispatched only once every sub-issue of the
//!   record in front of it has claimed an issue slot. Consecutive
//!   records bound for *different* shards issue in the same cycle — the
//!   cluster's throughput win — while per-key operation order is
//!   preserved by construction (one serving home per key at any
//!   instant, ops applied in issue order per shard).
//! * [`CamCluster::search`], [`CamCluster::search_stream`],
//!   [`CamCluster::update`] and [`CamCluster::delete`] each dispatch one
//!   record and step the engine until it has retired or been shed.
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
//!   bound the write is **shed** (counted, never silently lost — the
//!   transactional API returns [`ClusterError::Overloaded`]);
//! * ops **purged** by a crash (issued but never acknowledged) are
//!   re-queued at the dispatch head and re-issued after recovery, so
//!   retire-order accounting stays exact.
//!
//! Fault ticks are relative to the replay start; faults scheduled past
//! the replay's natural quiescence never fire.

use std::collections::VecDeque;

use dsp_cam_core::pipelined::{Completion, Op, RetireRecord};
use dsp_cam_core::unit::SearchResult;
use dsp_cam_workload::{percentile, Trace, TraceOp};

use crate::cluster::{CamCluster, ClusterError, RecordPlan};
use crate::failover::{ClusterFaultPlan, ShedPolicy};

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
    /// Migration windows rolled back: aborted, or their destination
    /// crashed.
    pub migration_aborts: u64,
    /// End-to-end retire latencies per shard (arrival to retire,
    /// queueing included), in retire order.
    pub per_shard_latencies: Vec<Vec<u64>>,
    /// Latencies of frozen-replica answers (dispatch wait plus the
    /// search latency the replica port mirrors).
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

/// One sub-issue of a planned record, waiting for an issue slot.
#[derive(Debug)]
struct PendingSub {
    shard: usize,
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

/// The cluster's issue engine: dispatched sub-issues, deferred writes,
/// and the tallies of everything it issued, answered, retried and shed.
/// Its per-cycle and per-record buffers live here and are reused, so a
/// step allocates nothing of its own.
#[derive(Debug)]
struct Dispatcher {
    policy: ShedPolicy,
    search_latency: u64,
    /// Per shard, its health when [`Dispatcher::replenish`] last looked.
    was_healthy: Vec<bool>,
    /// Per shard, retry attempts left in the current outage.
    budget: Vec<u64>,
    /// Writes waiting out a failed shard, oldest first.
    deferred: VecDeque<DeferredWrite>,
    /// Sub-issues waiting for an issue slot, in dispatch order.
    subs: VecDeque<PendingSub>,
    /// Per shard, whether this cycle's issue slot is taken.
    claimed: Vec<bool>,
    /// Per shard, sub-issues issued and not yet harvested: only a shard
    /// with some can retire anything, so only it is harvested.
    in_flight: Vec<usize>,
    /// The routing of the record being dispatched.
    plan: RecordPlan,
    /// One shard's completions of the current cycle, with their stamps.
    harvest: Vec<(RetireRecord, Completion)>,
    outcome: ClusterReplayOutcome,
}

impl Dispatcher {
    /// An idle engine for `cluster` that tallies into `outcome`, keeping
    /// retire latencies for the shards `outcome` has a list for.
    fn new(cluster: &CamCluster, outcome: ClusterReplayOutcome) -> Self {
        let shards = cluster.num_shards();
        let policy = cluster.shed_policy();
        Dispatcher {
            policy,
            search_latency: cluster.shard(0).unit().config().search_latency(),
            subs: VecDeque::new(),
            deferred: VecDeque::new(),
            budget: vec![policy.retry_budget; shards],
            was_healthy: vec![true; shards],
            claimed: vec![false; shards],
            in_flight: vec![0; shards],
            plan: RecordPlan::new(shards),
            harvest: Vec::new(),
            outcome,
        }
    }

    /// Whether some dispatched sub-issue has neither retired nor been
    /// shed.
    fn busy(&self) -> bool {
        !self.subs.is_empty() || !self.deferred.is_empty() || self.in_flight.iter().any(|&n| n > 0)
    }

    /// Replenish a shard's retry budget when it comes back.
    fn replenish(&mut self, cluster: &CamCluster) {
        for (i, was_healthy) in self.was_healthy.iter_mut().enumerate() {
            let healthy = cluster.shard_healthy(i);
            if healthy && !*was_healthy {
                self.budget[i] = self.policy.retry_budget;
            }
            *was_healthy = healthy;
        }
    }

    /// Route `op` into [`Dispatcher::plan`], take its shard sub-issues
    /// into the dispatch queue, and record the reads its planning
    /// answered (frozen-replica and degraded), for a record that arrived
    /// at `arrival` and was planned at `now`.
    fn dispatch(&mut self, cluster: &mut CamCluster, op: &TraceOp, arrival: u64, now: u64) {
        cluster.plan(op, &mut self.plan);
        let plan = &mut self.plan;
        self.outcome.presented += (plan.frozen.len() + plan.degraded.len()) as u64;
        let latency = (now - arrival) + self.search_latency;
        self.outcome
            .frozen_latencies
            .extend(std::iter::repeat_n(latency, plan.frozen.len()));
        self.outcome
            .degraded_latencies
            .extend(std::iter::repeat_n(latency, plan.degraded.len()));
        for (shard, op) in plan.subs.drain(..) {
            self.outcome.presented += presented_of(&op);
            self.subs.push_back(PendingSub { shard, op, arrival });
        }
    }

    /// One cycle: issue what the shards can take — deferred writes
    /// first (they are the oldest work), then the dispatch queue, each
    /// shard's slot `claimed` once — tick the cluster, and pull retired
    /// completions off every shard with ops in flight, handing each to
    /// `retired` with its shard.
    fn step(&mut self, cluster: &mut CamCluster, mut retired: impl FnMut(usize, Completion)) {
        let now = cluster.cycle();
        self.claimed.fill(false);
        self.issue_deferred(cluster, now);
        self.issue_queued(cluster, now);
        cluster.tick();
        for (i, in_flight) in self.in_flight.iter_mut().enumerate() {
            if *in_flight == 0 {
                continue;
            }
            cluster.shard_mut(i).drain_retired(&mut self.harvest);
            debug_assert!(
                self.harvest.len() <= *in_flight,
                "shard {i} retired an op this engine did not issue"
            );
            // Should that ever fail, stop counting rather than wrap and
            // keep the engine busy forever.
            *in_flight = in_flight.saturating_sub(self.harvest.len());
            let mut latencies = self.outcome.per_shard_latencies.get_mut(i);
            for (stamp, done) in self.harvest.drain(..) {
                cluster.tally(&done);
                self.outcome.completions += 1;
                if let Some(latencies) = &mut latencies {
                    latencies.push(stamp.latency());
                }
                retired(i, done);
            }
        }
    }

    /// Deferred writes, oldest first: the head re-resolves its shard (a
    /// rollback may have re-homed its key) and issues if the shard is
    /// back, retries with exponential backoff if not, and is shed once
    /// its bounds are spent.
    fn issue_deferred(&mut self, cluster: &mut CamCluster, now: u64) {
        while let Some(mut head) = self.deferred.pop_front() {
            let target = cluster
                .resolve_shard(&head.sub.op)
                .unwrap_or(head.sub.shard);
            let healthy = cluster.shard_healthy(target);
            if healthy && !self.claimed[target] {
                head.sub.shard = target;
                self.issue(cluster, head.sub);
                continue;
            }
            if healthy {
                self.outcome.head_of_line_stalls += 1;
            } else if now >= head.due {
                head.attempts += 1;
                self.outcome.write_retries += 1;
                self.budget[target] = self.budget[target].saturating_sub(1);
                if head.attempts > self.policy.max_retries || self.budget[target] == 0 {
                    // Bounds spent: shed. Counted, never silent.
                    self.outcome.shed_writes += 1;
                    continue;
                }
                head.due = now + self.policy.backoff(head.attempts);
            }
            self.deferred.push_front(head);
            break;
        }
    }

    /// The dispatch queue, in order. Writes bound for a failed shard (or
    /// queued behind deferred writes — FIFO among writes keeps per-key
    /// order) defer; reads bound for a failed shard answer degraded
    /// immediately; everything else issues while its shard's slot is
    /// free.
    fn issue_queued(&mut self, cluster: &mut CamCluster, now: u64) {
        while let Some(mut sub) = self.subs.pop_front() {
            sub.shard = cluster.resolve_shard(&sub.op).unwrap_or(sub.shard);
            let healthy = cluster.shard_healthy(sub.shard);
            let keys = match &sub.op {
                Op::Update(_) | Op::Delete(_) if !healthy || !self.deferred.is_empty() => {
                    self.deferred.push_back(DeferredWrite {
                        sub,
                        attempts: 0,
                        due: now,
                    });
                    continue;
                }
                Op::Search(key) if !healthy => std::slice::from_ref(key),
                Op::SearchStream(keys) | Op::SearchMulti(keys) if !healthy => keys,
                _ => {
                    if self.claimed[sub.shard] {
                        self.outcome.head_of_line_stalls += 1;
                        self.subs.push_front(sub);
                        break;
                    }
                    self.issue(cluster, sub);
                    continue;
                }
            };
            for &key in keys {
                cluster.degraded_search(sub.shard, key);
            }
            let latency = (now - sub.arrival) + self.search_latency;
            self.outcome
                .degraded_latencies
                .extend(std::iter::repeat_n(latency, keys.len()));
        }
    }

    /// Issue `sub` on its (re-resolved, healthy, unclaimed) shard. The
    /// shard holds the op until it retires, and a crash hands it back.
    fn issue(&mut self, cluster: &mut CamCluster, sub: PendingSub) {
        self.claimed[sub.shard] = true;
        self.in_flight[sub.shard] += 1;
        // `claimed` hands each shard's slot out once per cycle and every
        // tick empties it, so the port is free.
        let free = cluster
            .shard_mut(sub.shard)
            .issue_at(sub.op, sub.arrival)
            .is_ok();
        debug_assert!(free, "slot claimed once per cycle");
        self.outcome.issued += 1;
    }

    /// Stop early: drop what is queued or deferred unissued, and tick
    /// the cluster until what was issued has retired, so no later engine
    /// harvests a completion it did not issue.
    fn abandon(mut self, cluster: &mut CamCluster) {
        self.subs.clear();
        self.deferred.clear();
        while self.busy() {
            self.step(cluster, |_, _| {});
        }
    }

    /// Give a crashed shard's purged ops back to the dispatch head in
    /// their original issue order — their completions will never
    /// arrive, so they are un-issued and go around again.
    fn requeue_purged(&mut self, shard: usize, purged: Vec<(Op, u64)>) {
        self.outcome.issued -= purged.len() as u64;
        self.in_flight[shard] -= purged.len();
        for (op, arrival) in purged.into_iter().rev() {
            self.subs.push_front(PendingSub { shard, op, arrival });
        }
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
/// a fault plan is supplied without [`CamCluster::enable_failover`]. An
/// error mid-replay leaves the rest of the trace unissued, once the ops
/// already issued have retired.
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
    // A record issues at most one sub-issue per shard, so this bounds
    // what a replay without crashes retires; each shard's latency list
    // is sized once for its share of it, with a quarter of headroom for
    // skew, rather than doubling its way up.
    let sub_issues: usize = trace
        .records
        .iter()
        .map(|record| record.op.weight().min(shards))
        .sum();
    let share = sub_issues.div_ceil(shards);
    let outcome = ClusterReplayOutcome {
        per_shard_latencies: (0..shards)
            .map(|_| Vec::with_capacity(share + share / 4))
            .collect(),
        ..ClusterReplayOutcome::default()
    };
    // Hits, rejections, frozen and degraded answers, failover tallies
    // and migration stalls are tallied once, by the cluster; the outcome
    // reports their change over the replay.
    let before = *cluster.counters();
    let failover_before = cluster.failover_stats().cloned().unwrap_or_default();
    let stalls_before = cluster.migration_stalls().len();

    let start = cluster.cycle();
    let mut records = trace.records.iter().zip(trace.arrivals(start)).peekable();
    let mut dispatched = 0usize;
    let mut queue: VecDeque<(&TraceOp, u64)> = VecDeque::with_capacity(config.queue_capacity);
    let mut engine = Dispatcher::new(cluster, outcome);
    let mut migrate = config.migrate;
    let mut faults = config.faults.clone();

    while records.peek().is_some() || !queue.is_empty() || engine.busy() || !cluster.settled() {
        let now = cluster.cycle();

        // Fire due shard faults. A crash purges the shard's in-flight
        // ops (their completions will never arrive): give them back to
        // the dispatch head in issue order — they were never
        // acknowledged, so re-issue is the client's contract.
        if let Some(plan) = &mut faults {
            for fault in plan.due(now - start) {
                match cluster.fail_shard(fault.shard, fault.fault) {
                    Ok(purged) => engine.requeue_purged(fault.shard, purged),
                    Err(err) => {
                        engine.abandon(cluster);
                        return Err(err);
                    }
                }
            }
        }
        engine.replenish(cluster);

        // Open the migration window at its planned dispatch position
        // (deferred writes drained first: their routing predates the
        // window). An unavailable participant defers the window, not
        // the replay.
        if let Some(plan) = migrate {
            if dispatched >= plan.after_records
                && engine.subs.is_empty()
                && engine.deferred.is_empty()
            {
                match cluster.begin_migration(plan.slot, plan.dest) {
                    Ok(()) => migrate = None,
                    Err(ClusterError::ShardUnavailable { .. }) => {}
                    Err(err) => {
                        engine.abandon(cluster);
                        return Err(err);
                    }
                }
            }
        }
        let now = cluster.cycle();
        // Admit due arrivals up to the queue bound (backpressure: the
        // rest wait at the source and keep their arrival stamps).
        while queue.len() < config.queue_capacity {
            let Some((record, arrival)) = records.next_if(|&(_, arrival)| arrival <= now) else {
                break;
            };
            queue.push_back((&record.op, arrival));
        }
        engine.outcome.peak_queue_depth = engine.outcome.peak_queue_depth.max(queue.len());

        // Dispatch strictly in order: expand the head record into shard
        // sub-issues, answering frozen-replica and degraded reads on
        // the spot.
        while engine.subs.len() < shards {
            let Some((op, arrival)) = queue.pop_front() else {
                break;
            };
            engine.dispatch(cluster, op, arrival, now);
            dispatched += 1;
        }
        engine.step(cluster, |_, _| {});
    }

    let mut outcome = engine.outcome;
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

/// Drive one record through the dispatcher on its own — the engine of
/// the transactional API: plan `op` at the current cycle and step the
/// cluster until each of its sub-issues has retired or been shed.
/// Returns the record's search answers as `(key position, result)` —
/// frozen, degraded and retired alike — and its other completions: a
/// write's, unless it was shed.
pub(crate) fn transact(
    cluster: &mut CamCluster,
    op: &TraceOp,
) -> (Vec<(usize, SearchResult)>, Vec<Completion>) {
    let mut engine = Dispatcher::new(cluster, ClusterReplayOutcome::default());
    let now = cluster.cycle();
    engine.dispatch(cluster, op, now, now);
    // A record gives each shard at most one sub-issue, so a shard names
    // the key positions its completion answers.
    let positions: Vec<Vec<usize>> = (0..cluster.num_shards())
        .map(|shard| engine.plan.positions(shard).to_vec())
        .collect();
    let mut answers = std::mem::take(&mut engine.plan.frozen);
    answers.append(&mut engine.plan.degraded);
    let mut writes = Vec::new();
    while engine.busy() {
        engine.replenish(cluster);
        engine.step(cluster, |shard, done| {
            let at = positions[shard].iter().copied();
            match done {
                Completion::Search(result) => answers.extend(at.zip([result])),
                Completion::SearchStream(results) => answers.extend(at.zip(results)),
                other => writes.push(other),
            }
        });
    }
    (answers, writes)
}

#[cfg(test)]
mod tests {
    use dsp_cam_core::config::{UnitConfig, WriteBufferConfig};
    use dsp_cam_workload::{generate, Arrival, OpMix, WorkloadConfig};

    use super::*;

    fn cluster() -> CamCluster {
        let config = UnitConfig::builder()
            .data_width(12)
            .block_size(8)
            .num_blocks(4)
            .bus_width(64)
            .write_buffer(WriteBufferConfig {
                capacity: 64,
                drain_per_tick: 1,
                bypass: false,
            })
            .build()
            .expect("valid geometry");
        CamCluster::new(config, 4, 16).expect("valid shape")
    }

    fn trace() -> Trace {
        generate(&WorkloadConfig {
            seed: 0xC2,
            ops: 200,
            key_space: 1024,
            zipf_s: 0.9,
            mix: OpMix::READ_HEAVY,
            stream_batch: 4,
            arrival: Arrival::BackToBack,
            churn_per_mille: 50,
            prefill: 32,
            max_live: Some(64),
            eviction_min_gap: 1,
        })
        .expect("valid workload")
    }

    /// The shards still holding an op in flight or a completion nobody
    /// harvested: what the next engine would take for its own.
    fn leftovers(cluster: &mut CamCluster) -> Vec<usize> {
        let mut retired = Vec::new();
        (0..cluster.num_shards())
            .filter(|&i| {
                let shard = cluster.shard_mut(i);
                shard.drain_retired(&mut retired);
                shard.in_flight() || !std::mem::take(&mut retired).is_empty()
            })
            .collect()
    }

    #[test]
    fn transactional_calls_after_a_replay_leave_nothing_on_the_shards() {
        let mut cluster = cluster();
        let outcome =
            replay_cluster(&trace(), &mut cluster, &IngestConfig::default()).expect("replay runs");
        assert_eq!(outcome.dropped, 0);
        assert_eq!(leftovers(&mut cluster), [0usize; 0]);
        for key in 0..50 {
            let _ = cluster.search(key);
        }
        assert_eq!(leftovers(&mut cluster), [0usize; 0]);
    }

    #[test]
    fn a_replay_stopped_by_an_error_leaves_nothing_on_the_shards() {
        let mut cluster = cluster();
        let home = cluster.ring().assignment(3);
        let config = IngestConfig {
            migrate: Some(MigrationPlan {
                after_records: 10,
                slot: 3,
                dest: home,
            }),
            ..IngestConfig::default()
        };
        assert_eq!(
            replay_cluster(&trace(), &mut cluster, &config).map(drop),
            Err(ClusterError::AlreadyHome {
                slot: 3,
                shard: home
            })
        );
        assert_eq!(leftovers(&mut cluster), [0usize; 0]);
        for key in 0..50 {
            let _ = cluster.search(key);
        }
        assert_eq!(leftovers(&mut cluster), [0usize; 0]);
    }
}
