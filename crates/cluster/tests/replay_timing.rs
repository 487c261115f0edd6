//! Cycle-exact pins of `replay_cluster`'s schedule.
//!
//! The other cluster suites check counts and contents. These two replays
//! pin the timing too: the tick count, what issued and completed, how
//! often the dispatch head stalled, the arrival queue's peak, and each
//! shard's retired count and retire-latency percentiles, once fault-free
//! and once through a crash and a stall (retries and recovery ticks
//! included). The values are exact, so any change to the modelled
//! schedule moves them; one meant to must update them and say why.

use dsp_cam_cluster::{
    replay_cluster, CamCluster, ClusterFaultPlan, ClusterReplayOutcome, IngestConfig, PlannedFault,
    ReplicationConfig, ShardFault,
};
use dsp_cam_core::prelude::*;
use dsp_cam_workload::{generate, Arrival, OpMix, Trace, WorkloadConfig};

/// 1,024-cell write-buffered shards: 6-cycle writes, 7-cycle searches.
fn shard_config() -> UnitConfig {
    UnitConfig::builder()
        .data_width(32)
        .block_size(128)
        .num_blocks(8)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .write_buffer(WriteBufferConfig {
            capacity: 64,
            drain_per_tick: 2,
            bypass: false,
        })
        .build()
        .expect("valid geometry")
}

/// A bursty write-heavy trace: 32-op bursts queue behind the shards'
/// issue slots, and idle gaps drain the write buffers.
fn trace() -> Trace {
    generate(&WorkloadConfig {
        seed: 0x7A1E,
        ops: 4000,
        key_space: 1024,
        zipf_s: 0.8,
        mix: OpMix::WRITE_HEAVY,
        stream_batch: 8,
        arrival: Arrival::Bursty {
            mean_burst: 32,
            idle_ticks: 24,
        },
        churn_per_mille: 20,
        prefill: 512,
        max_live: Some(800),
        eviction_min_gap: 1,
    })
    .expect("valid workload")
}

/// The schedule a replay produced.
#[derive(Debug, PartialEq, Eq)]
struct Timing {
    ticks: u64,
    issued: u64,
    completions: u64,
    head_of_line_stalls: u64,
    peak_queue_depth: usize,
    /// Per shard: completions retired, then retire latency p50 and p99.
    shards: Vec<(usize, u64, u64)>,
    write_retries: u64,
    recovery_ticks: Vec<u64>,
}

impl Timing {
    fn of(out: &ClusterReplayOutcome) -> Timing {
        assert_eq!(out.dropped, 0, "the zero-dropped-query invariant");
        Timing {
            ticks: out.ticks,
            issued: out.issued,
            completions: out.completions,
            head_of_line_stalls: out.head_of_line_stalls,
            peak_queue_depth: out.peak_queue_depth,
            shards: (0..out.per_shard_latencies.len())
                .map(|i| {
                    let (p50, p99) = out.shard_percentiles(i);
                    (out.per_shard_latencies[i].len(), p50, p99)
                })
                .collect(),
            write_retries: out.write_retries,
            recovery_ticks: out.recovery_ticks.clone(),
        }
    }
}

#[test]
fn fault_free_replay_schedule_is_pinned() {
    let mut cluster = CamCluster::new(shard_config(), 4, 64).expect("valid cluster");
    let out = replay_cluster(&trace(), &mut cluster, &IngestConfig::default()).expect("replays");
    assert_eq!(
        Timing::of(&out),
        Timing {
            ticks: 5422,
            issued: 4945,
            completions: 4945,
            head_of_line_stalls: 1802,
            peak_queue_depth: 61,
            shards: vec![(1062, 9, 29), (1232, 9, 28), (1287, 9, 30), (1364, 9, 30)],
            write_retries: 0,
            recovery_ticks: vec![],
        }
    );
}

#[test]
fn crash_and_stall_replay_schedule_is_pinned() {
    let mut cluster = CamCluster::new(shard_config(), 4, 64).expect("valid cluster");
    cluster.enable_failover(ReplicationConfig {
        refresh_interval: 64,
        journal_capacity: 512,
    });
    let faults = ClusterFaultPlan::from_faults(vec![
        PlannedFault {
            at_tick: 1215,
            shard: 1,
            fault: ShardFault::Crash,
        },
        PlannedFault {
            at_tick: 2600,
            shard: 2,
            fault: ShardFault::Stall { ticks: 150 },
        },
    ]);
    let config = IngestConfig {
        faults: Some(faults),
        ..IngestConfig::default()
    };
    let out = replay_cluster(&trace(), &mut cluster, &config).expect("replays");
    assert_eq!((out.failures_detected, out.rebuilds_completed), (2, 1));
    // The crash purges five ops in flight on shard 1; they issue again
    // once it has rebuilt, and the outage's reads answer degraded.
    assert_eq!(
        Timing::of(&out),
        Timing {
            ticks: 5422,
            issued: 4918,
            completions: 4918,
            head_of_line_stalls: 1825,
            peak_queue_depth: 61,
            shards: vec![
                (1062, 9, 184),
                (1218, 9, 194),
                (1274, 10, 165),
                (1364, 9, 183)
            ],
            write_retries: 8,
            recovery_ticks: vec![220, 150],
        }
    );
}
