//! The cluster failover drills behind the `failover_rows` section of
//! `BENCH_search.json` and the `degraded_mode` scenario of
//! `BENCH_workloads.json`.
//!
//! Each drill replays a fixed-seed write-heavy trace through the
//! cycle-accurate cluster ingest loop while a [`ClusterFaultPlan`]
//! kills or stalls a shard mid-stream, and reports the failover
//! protocol's observables: availability (fraction of presented keys and
//! ops answered — degraded replica reads count, shed writes do not),
//! recovery ticks from detection to the shard serving again, degraded
//! answers, and the retry/shed tallies. Every number here is
//! **deterministic** — the ingest loop is lockstep, the trace and the
//! fault schedule are seeded, and no wall clock is involved — so a
//! violated floor means the failover protocol itself changed, not that
//! the machine was slow.

use dsp_cam_cluster::{
    replay_cluster, CamCluster, ClusterFaultPlan, IngestConfig, PlannedFault, ReplicationConfig,
    ShardFault, ShedPolicy,
};
use dsp_cam_core::prelude::*;
use dsp_cam_workload::{generate, Arrival, OpMix, Trace, WorkloadConfig};

/// Release-mode floor on [`FailoverRow::availability`] for every drill:
/// a single-shard failure plus its recovery must leave at least 99% of
/// presented keys/ops answered. Both canonical drills measure 1.0 —
/// the patient shed policy outwaits every outage — so the floor is the
/// ISSUE's contract, not a noise margin.
pub const FAILOVER_AVAILABILITY_FLOOR: f64 = 0.99;

/// Release-mode ceiling on the worst recovery-tick sample of any drill.
/// Recovery is bounded by the restore model (one word per tick of
/// epoch + journal replay, so ~shard-occupancy ticks for a crash) or by
/// the stall length; the ceiling proves a failed shard can never wedge
/// the cluster indefinitely. Both drills' samples are deterministic
/// (crash rebuild ~200 ticks at the drill's fill level, stall exactly
/// its 300-tick schedule), leaving wide headroom under the ceiling.
pub const FAILOVER_RECOVERY_TICKS_CEILING: u64 = 2_000;

/// Availability floor on the `degraded_mode` workload scenario — same
/// contract as [`FAILOVER_AVAILABILITY_FLOOR`], enforced through
/// `BENCH_workloads.json`.
pub const DEGRADED_AVAILABILITY_FLOOR: f64 = 0.99;

/// Recovery-tick ceiling on the `degraded_mode` workload scenario.
pub const DEGRADED_RECOVERY_TICKS_CEILING: u64 = 2_000;

/// What one failover drill observed.
#[derive(Debug, Clone)]
pub struct FailoverRow {
    /// Stable drill name (JSON key, CI log label).
    pub scenario: &'static str,
    /// Shards in the drill cluster.
    pub shards: usize,
    /// Application operations in the replayed trace.
    pub app_ops: u64,
    /// Keys/ops presented — the availability denominator.
    pub presented: u64,
    /// Fraction of presented keys/ops answered (degraded reads count).
    pub availability: f64,
    /// Search keys answered from a replica epoch while their home shard
    /// was down.
    pub degraded_answers: u64,
    /// Writes dropped by overload admission control.
    pub shed_writes: u64,
    /// Deferred-write retry attempts against still-failed shards.
    pub write_retries: u64,
    /// Shard failures detected.
    pub failures_detected: u64,
    /// Rebuilds driven to completion (`epoch + journal` reinstalled).
    pub rebuilds_completed: u64,
    /// Worst ticks-to-serving-again sample across the replay's
    /// recoveries (0 when nothing failed).
    pub max_recovery_ticks: u64,
    /// Issued minus completed at quiescence — must be 0.
    pub dropped: u64,
    /// Total lockstep cycles of the replay.
    pub ticks: u64,
}

/// The `degraded_mode` workload scenario's observables for
/// `BENCH_workloads.json`: a write-heavy trace with one mid-replay
/// shard crash, recording the availability fraction and the recovery
/// ticks. All fields are deterministic.
#[derive(Debug, Clone, Copy)]
pub struct DegradedModeRow {
    /// Application operations replayed.
    pub app_ops: u64,
    /// Trace digest (pins the generated artefact).
    pub trace_digest: u64,
    /// Keys/ops presented — the availability denominator.
    pub presented: u64,
    /// Fraction of presented keys/ops answered.
    pub availability: f64,
    /// Search keys answered from a replica epoch during the outage.
    pub degraded_answers: u64,
    /// Writes dropped by overload admission control.
    pub shed_writes: u64,
    /// Ticks from crash detection to the rebuilt shard serving again.
    pub recovery_ticks: u64,
    /// Rebuilds driven to completion (the scenario schedules one crash).
    pub rebuilds_completed: u64,
    /// Total lockstep cycles of the replay.
    pub ticks: u64,
}

/// The canonical drill trace: write-heavy (50:45:5) Zipfian keys over
/// the 4-shard drill cluster's key space, back-to-back arrival so the
/// fault always lands mid-burst.
fn drill_trace(ops: u64, seed: u64) -> Trace {
    generate(&WorkloadConfig {
        seed,
        ops,
        key_space: 8192,
        zipf_s: 0.8,
        mix: OpMix::WRITE_HEAVY,
        stream_batch: 8,
        arrival: Arrival::BackToBack,
        churn_per_mille: 50,
        prefill: 256,
        max_live: Some(2500),
        eviction_min_gap: 1,
    })
    .expect("canonical failover workload config is valid")
}

/// The drill cluster: four 1024-entry Turbo shards behind a 16-slot
/// ring, failover enabled with the default replication cadence and a
/// patient shed policy — retries outwait both canonical outages, so any
/// shed write is a protocol regression, not a tuning artefact.
fn drill_cluster() -> CamCluster {
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(256)
        .num_blocks(4)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .write_buffer(WriteBufferConfig {
            capacity: 4096,
            drain_per_tick: 1,
            bypass: false,
        })
        .build()
        .expect("bench geometry is valid");
    let mut cluster = CamCluster::new(config, 4, 16).expect("constructible");
    cluster.enable_failover(ReplicationConfig::default());
    cluster.set_shed_policy(ShedPolicy {
        base_backoff_ticks: 4,
        max_retries: 8,
        retry_budget: 1 << 32,
    });
    cluster
}

/// Run one drill: replay `ops` trace ops against a fresh drill cluster
/// under `faults`, and fold the outcome into a [`FailoverRow`].
fn run_drill(scenario: &'static str, ops: u64, faults: Vec<PlannedFault>) -> FailoverRow {
    let trace = drill_trace(ops, 0xFA11_0BE5);
    let mut cluster = drill_cluster();
    let outcome = replay_cluster(
        &trace,
        &mut cluster,
        &IngestConfig {
            queue_capacity: 64,
            migrate: None,
            faults: Some(ClusterFaultPlan::from_faults(faults)),
        },
    )
    .expect("drill replay admits the bounded live set");
    FailoverRow {
        scenario,
        shards: cluster.num_shards(),
        app_ops: trace.counts().app_ops(),
        presented: outcome.presented,
        availability: outcome.availability(),
        degraded_answers: outcome.degraded_answers,
        shed_writes: outcome.shed_writes,
        write_retries: outcome.write_retries,
        failures_detected: outcome.failures_detected,
        rebuilds_completed: outcome.rebuilds_completed,
        max_recovery_ticks: outcome.recovery_ticks.iter().copied().max().unwrap_or(0),
        dropped: outcome.dropped,
        ticks: outcome.ticks,
    }
}

/// The two canonical failover drills at `ops` trace ops each:
///
/// * `crash_rebuild` — shard 0 crashes 120 ticks in (contents and
///   in-flight ops lost); the cluster serves its slots from replica
///   epochs, rebuilds `epoch + journal` at one word per tick, and
///   reinstalls the shard.
/// * `stall_recovery` — shard 1's issue port closes for 300 ticks;
///   reads degrade to replicas, deferred writes back off and land when
///   the port reopens.
#[must_use]
pub fn measure_failover_rows(ops: u64) -> Vec<FailoverRow> {
    vec![
        run_drill(
            "crash_rebuild",
            ops,
            vec![PlannedFault {
                at_tick: 120,
                shard: 0,
                fault: ShardFault::Crash,
            }],
        ),
        run_drill(
            "stall_recovery",
            ops,
            vec![PlannedFault {
                at_tick: 120,
                shard: 1,
                fault: ShardFault::Stall { ticks: 300 },
            }],
        ),
    ]
}

/// The `degraded_mode` workload scenario: the canonical write-heavy
/// drill trace with one shard crash 120 ticks into the replay,
/// reported for `BENCH_workloads.json`.
#[must_use]
pub fn measure_degraded_mode(ops: u64) -> DegradedModeRow {
    let trace = drill_trace(ops, 0xFA11_0BE5);
    let mut cluster = drill_cluster();
    let outcome = replay_cluster(
        &trace,
        &mut cluster,
        &IngestConfig {
            queue_capacity: 64,
            migrate: None,
            faults: Some(ClusterFaultPlan::from_faults(vec![PlannedFault {
                at_tick: 120,
                shard: 0,
                fault: ShardFault::Crash,
            }])),
        },
    )
    .expect("degraded-mode replay admits the bounded live set");
    DegradedModeRow {
        app_ops: trace.counts().app_ops(),
        trace_digest: trace.digest(),
        presented: outcome.presented,
        availability: outcome.availability(),
        degraded_answers: outcome.degraded_answers,
        shed_writes: outcome.shed_writes,
        recovery_ticks: outcome.recovery_ticks.iter().copied().max().unwrap_or(0),
        rebuilds_completed: outcome.rebuilds_completed,
        ticks: outcome.ticks,
    }
}

/// Enforce the failover floors against one drill row.
///
/// # Panics
///
/// Panics when the availability floor, the recovery-tick ceiling, or a
/// structural invariant (zero dropped queries, zero shed writes under
/// the patient policy, the scheduled failure detected and recovered)
/// is violated.
pub fn assert_failover_floors(row: &FailoverRow) {
    assert_eq!(
        row.dropped, 0,
        "{}: a shard failure must not drop a query",
        row.scenario
    );
    assert!(
        row.availability >= FAILOVER_AVAILABILITY_FLOOR,
        "{}: availability must be >= {FAILOVER_AVAILABILITY_FLOOR} across a single-shard \
         failure + recovery, got {:.4}",
        row.scenario,
        row.availability
    );
    assert_eq!(
        row.shed_writes, 0,
        "{}: the patient shed policy must outwait the outage, shed {}",
        row.scenario, row.shed_writes
    );
    assert_eq!(
        row.failures_detected, 1,
        "{}: exactly the scheduled fault must be detected",
        row.scenario
    );
    assert!(
        row.max_recovery_ticks > 0 && row.max_recovery_ticks <= FAILOVER_RECOVERY_TICKS_CEILING,
        "{}: recovery must complete within {FAILOVER_RECOVERY_TICKS_CEILING} ticks \
         (deterministic: the restore model changed), got {}",
        row.scenario,
        row.max_recovery_ticks
    );
    assert!(
        row.degraded_answers > 0,
        "{}: the outage window must serve reads from replica epochs",
        row.scenario
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_drills_hold_their_floors_at_debug_size() {
        // The floors are deterministic (lockstep cycles, seeded trace
        // and schedule), so debug enforces the same contract the
        // release smoke does — just on a shorter trace.
        let rows = measure_failover_rows(2_000);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_failover_floors(row);
        }
        let crash = &rows[0];
        assert_eq!(crash.scenario, "crash_rebuild");
        assert_eq!(crash.rebuilds_completed, 1, "the crash must rebuild");
        let stall = &rows[1];
        assert_eq!(stall.scenario, "stall_recovery");
        assert_eq!(stall.rebuilds_completed, 0, "a stall keeps its contents");
        assert_eq!(
            stall.max_recovery_ticks, 300,
            "stall recovery is exactly the scheduled port closure"
        );
    }

    #[test]
    fn degraded_mode_scenario_is_deterministic_and_floored() {
        let a = measure_degraded_mode(2_000);
        let b = measure_degraded_mode(2_000);
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.presented, b.presented);
        assert_eq!(a.degraded_answers, b.degraded_answers);
        assert_eq!(a.recovery_ticks, b.recovery_ticks);
        assert_eq!(a.ticks, b.ticks);
        assert!(a.availability >= DEGRADED_AVAILABILITY_FLOOR);
        assert!(a.recovery_ticks > 0 && a.recovery_ticks <= DEGRADED_RECOVERY_TICKS_CEILING);
        assert_eq!(a.rebuilds_completed, 1);
        assert!(a.degraded_answers > 0);
    }

    /// Release-mode failover floors at the canonical drill scale; the
    /// same rows are recorded in `BENCH_search.json` by
    /// `emit_bench_search_json`. Run by `scripts/ci.sh` as
    /// `cargo test --release -p dsp-cam-bench -- --ignored failover_smoke`
    /// under both feature sets; ignored in the default debug pass (the
    /// debug-size test above already enforces the deterministic
    /// contract).
    #[test]
    #[ignore = "release-mode failover smoke, run explicitly by scripts/ci.sh"]
    fn failover_smoke() {
        let rows = measure_failover_rows(15_000);
        for row in &rows {
            eprintln!(
                "failover drill {}: availability {:.4}, {} degraded answers, \
                 recovery {} ticks, {} retries, {} shed, {} ticks total",
                row.scenario,
                row.availability,
                row.degraded_answers,
                row.max_recovery_ticks,
                row.write_retries,
                row.shed_writes,
                row.ticks,
            );
            assert_failover_floors(row);
        }
        let degraded = measure_degraded_mode(15_000);
        eprintln!(
            "degraded_mode scenario: availability {:.4}, recovery {} ticks, \
             {} degraded answers",
            degraded.availability, degraded.recovery_ticks, degraded.degraded_answers,
        );
        assert!(degraded.availability >= DEGRADED_AVAILABILITY_FLOOR);
        assert!(degraded.recovery_ticks <= DEGRADED_RECOVERY_TICKS_CEILING);
    }
}
