//! Shard-failover drill: replay a fixed-seed write-heavy trace through
//! a failover-enabled 4-shard [`CamCluster`] while a seeded fault plan
//! crashes one shard mid-ingest and stalls another later on, and prove
//! the cluster absorbed both outages — every query answered (degraded
//! replica reads included), zero shed writes, the crashed shard rebuilt
//! from its replica epoch plus the acknowledged-write journal, and the
//! quiescent contents identical to a twin cluster that ran the same
//! trace with no failover layer and no faults at all.
//!
//! Everything printed here is deterministic: the trace digest, the
//! availability fraction, the recovery-tick samples, and the retry
//! tallies reproduce bit-for-bit on any machine and feature set. The
//! release-mode floors behind these numbers live in
//! `cargo test --release -p dsp-cam-bench -- --ignored failover_smoke`
//! (the `failover_rows` section of `BENCH_search.json`).
//!
//! Run with: `cargo run --example shard_failover` (optionally `--features obs`)

use dsp_cam::prelude::*;
use dsp_cam_cluster::{
    replay_cluster, CamCluster, ClusterFaultPlan, IngestConfig, PlannedFault, ReplicationConfig,
    ShardFault, ShedPolicy,
};
use dsp_cam_workload::{generate, Arrival, OpMix, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The canonical write-heavy (50:45:5) session at drill scale:
    // Zipfian keys, stream coalescing, a drifting live set.
    let workload = WorkloadConfig {
        seed: 0x5EED_FA11,
        ops: 6_000,
        key_space: 4_096,
        zipf_s: 0.8,
        mix: OpMix::WRITE_HEAVY,
        stream_batch: 8,
        arrival: Arrival::BackToBack,
        churn_per_mille: 50,
        prefill: 512,
        max_live: Some(1_200),
        eviction_min_gap: 1,
    };
    let trace = generate(&workload)?;
    println!(
        "trace {:#x}: {} app ops, digest {:#018x}",
        workload.seed,
        trace.counts().app_ops(),
        trace.digest()
    );

    // Four 1024-entry Turbo shards behind a 16-slot ring; staged writes
    // trickle out at one word per idle tick. Capacity headroom keeps
    // admission identical to the fault-free twin.
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(256)
        .num_blocks(4)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .write_buffer(WriteBufferConfig {
            capacity: 1024,
            drain_per_tick: 1,
            bypass: false,
        })
        .build()?;
    let shards = 4;

    // Arm 1: failover enabled, two scheduled outages. The shed policy
    // is patient enough to outwait both — any shed write would be a
    // protocol bug, not a tuning artefact.
    let mut faulty = CamCluster::new(config, shards, 16)?;
    faulty.enable_failover(ReplicationConfig::default());
    faulty.set_shed_policy(ShedPolicy {
        base_backoff_ticks: 4,
        max_retries: 8,
        retry_budget: 1 << 32,
    });
    let victim = faulty.ring().shard_of(trace.prefill_words()[0]);
    let stalled = (victim + 1) % shards;
    let outcome = replay_cluster(
        &trace,
        &mut faulty,
        &IngestConfig {
            queue_capacity: 64,
            migrate: None,
            faults: Some(ClusterFaultPlan::from_faults(vec![
                PlannedFault {
                    at_tick: 200,
                    shard: victim,
                    fault: ShardFault::Crash,
                },
                PlannedFault {
                    at_tick: 2_500,
                    shard: stalled,
                    fault: ShardFault::Stall { ticks: 400 },
                },
            ])),
        },
    )?;
    println!(
        "failover arm: shard {victim} crashed at tick 200, shard {stalled} stalled \
         400 ticks at 2500; {} issued, {} completed, {} dropped, {} ticks",
        outcome.issued, outcome.completions, outcome.dropped, outcome.ticks,
    );
    println!(
        "  availability {:.4} ({} presented, {} shed), \
         {} degraded replica answers, {} deferred retries",
        outcome.availability(),
        outcome.presented,
        outcome.shed_writes,
        outcome.degraded_answers,
        outcome.write_retries,
    );
    println!(
        "  {} failures detected, {} rebuild completed, recovery ticks {:?}, \
         {} migration aborts",
        outcome.failures_detected,
        outcome.rebuilds_completed,
        outcome.recovery_ticks,
        outcome.migration_aborts,
    );
    assert_eq!(outcome.dropped, 0, "a shard failure must not drop a query");
    assert_eq!(outcome.shed_writes, 0, "the patient policy must not shed");
    assert_eq!(outcome.failures_detected, 2, "both scheduled faults fire");
    assert_eq!(outcome.rebuilds_completed, 1, "only the crash rebuilds");
    assert_eq!(outcome.recovery_ticks.len(), 2, "both outages recover");
    assert!(
        outcome.availability() >= 0.99,
        "availability must hold >= 0.99 through both outages, got {:.4}",
        outcome.availability()
    );
    assert!(
        outcome.degraded_answers > 0,
        "the outage windows must serve reads from replica epochs"
    );
    for i in 0..shards {
        assert!(
            faulty.shard_healthy(i),
            "shard {i} must be serving again at quiescence"
        );
    }

    // Arm 2: the same trace on a twin cluster with no failover layer
    // and no faults — the outages must be invisible in the quiescent
    // contents, and the journal hooks must cost nothing when disabled.
    let mut steady = CamCluster::new(config, shards, 16)?;
    let reference = replay_cluster(&trace, &mut steady, &IngestConfig::default())?;
    assert_eq!(reference.dropped, 0);
    assert_eq!(
        outcome.update_rejections, reference.update_rejections,
        "failover must not change admission outcomes"
    );
    assert_eq!(
        faulty.content_digest(),
        steady.content_digest(),
        "zero lost acknowledged writes: quiescent contents must match the \
         never-faulted twin"
    );
    println!(
        "cross-arm agreement: content digest {:#018x}, {} rejections — identical \
         with and without the crash + stall",
        faulty.content_digest(),
        outcome.update_rejections,
    );

    // Spot-check the rebuilt cluster end to end: every live twin key
    // answers on the failover arm too.
    let mut probes = 0;
    for key in 0..64u64 {
        assert_eq!(
            faulty.search(key).is_match(),
            steady.search(key).is_match(),
            "rebuilt cluster must agree with the twin on key {key}"
        );
        probes += 1;
    }
    println!("rebuilt cluster agrees with the twin on {probes} spot keys");

    // With observability compiled in, publish the replay through the
    // obs sink and read the failover scope back out.
    #[cfg(feature = "obs")]
    {
        let sink = std::sync::Arc::new(dsp_cam_obs::ObsSink::default());
        outcome.observe_into(&sink);
        let snap = sink.snapshot();
        assert_eq!(
            snap.registry
                .counter("cluster/failover", "failures_detected"),
            outcome.failures_detected
        );
        assert_eq!(
            snap.registry
                .counter("cluster/failover", "degraded_answers"),
            outcome.degraded_answers
        );
        let recovery = snap
            .registry
            .histogram("cluster/failover", "recovery_ticks")
            .expect("recovery histogram published");
        assert_eq!(recovery.count(), outcome.recovery_ticks.len() as u64);
        println!(
            "obs: cluster/failover failures={} degraded={} recovery_ticks n={} max={}",
            snap.registry
                .counter("cluster/failover", "failures_detected"),
            snap.registry
                .counter("cluster/failover", "degraded_answers"),
            recovery.count(),
            recovery.max(),
        );
    }

    println!("shard failover drill complete.");
    Ok(())
}
