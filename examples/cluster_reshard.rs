//! Cluster reshard drill: replay a fixed-seed write-heavy trace through
//! a 4-shard [`CamCluster`] while a live slot migration runs mid-trace,
//! and prove the reshard was invisible to the workload — the migrated
//! run completes every query it issues and converges on the same hits,
//! rejections, and stored contents as an identical cluster that never
//! resharded.
//!
//! Everything printed here is deterministic: the trace digest, the
//! issue/completion counts, the migration stall cycles, and the
//! per-shard retire-latency percentiles reproduce bit-for-bit on any
//! machine and feature set. The full-scale version of this loop backs
//! the `cluster_migration` section of `BENCH_search.json` via
//! `cargo test --release -p dsp-cam-bench -- --ignored cluster_smoke`.
//!
//! Run with: `cargo run --example cluster_reshard` (optionally `--features obs`)

use dsp_cam::prelude::*;
use dsp_cam_cluster::{replay_cluster, CamCluster, IngestConfig, MigrationPlan};
use dsp_cam_workload::{generate, Arrival, OpMix, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The canonical write-heavy (50:45:5) session at drill scale:
    // Zipfian keys, stream coalescing, a drifting live set.
    let workload = WorkloadConfig {
        seed: 0x5EED_5147,
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
    let counts = trace.counts();
    println!(
        "trace {:#x}: {} app ops ({} searches, {} stream batches / {} keys, \
         {} updates, {} deletes + {} evictions), digest {:#018x}",
        workload.seed,
        counts.app_ops(),
        counts.searches,
        counts.streams,
        counts.stream_keys,
        counts.updates,
        counts.mix_deletes,
        counts.evictions,
        trace.digest()
    );

    // Four 512-entry Turbo shards behind a 16-slot ring; staged writes
    // trickle out at one word per idle tick, so the migration window
    // stays open for a whole slot's worth of cycles.
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(256)
        .num_blocks(2)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .write_buffer(WriteBufferConfig {
            capacity: 1024,
            drain_per_tick: 1,
            bypass: false,
        })
        .build()?;
    let slots = 16;
    let shards = 4;

    // Arm 1: reshard mid-trace. A third of the way in, move the slot
    // holding the first prefilled key to the next shard over while the
    // ingest loop keeps feeding queries through the window.
    let mut migrated = CamCluster::new(config, shards, slots)?;
    let slot = migrated.ring().slot_of(trace.prefill_words()[0]);
    let source = migrated.ring().assignment(slot);
    let dest = (source + 1) % shards;
    let outcome = replay_cluster(
        &trace,
        &mut migrated,
        &IngestConfig {
            queue_capacity: 64,
            migrate: Some(MigrationPlan {
                after_records: trace.records.len() / 3,
                slot,
                dest,
            }),
            faults: None,
        },
    )?;
    println!(
        "reshard arm: slot {slot} moved shard {source} -> {dest}; {} issued, \
         {} completed, {} dropped, {} frozen-replica answers, stall {} cycles, \
         {} ticks",
        outcome.issued,
        outcome.completions,
        outcome.dropped,
        outcome.frozen_answers,
        outcome.migration_stalls.first().copied().unwrap_or(0),
        outcome.ticks,
    );
    for i in 0..shards {
        let (p50, p99) = outcome.shard_percentiles(i);
        println!(
            "  shard {i}: {} retirements, retire latency p50 {} / p99 {} cycles",
            outcome.per_shard_latencies[i].len(),
            p50,
            p99
        );
    }
    assert_eq!(outcome.dropped, 0, "a live reshard must not drop a query");
    assert_eq!(
        migrated.counters().migrations_completed,
        1,
        "the planned migration must reach cutover"
    );
    assert_eq!(
        migrated.ring().assignment(slot),
        dest,
        "cutover must flip the ring slot"
    );

    // Arm 2: the same trace on an identical cluster that never
    // resharded — the reshard must be invisible to the workload.
    let mut steady = CamCluster::new(config, shards, slots)?;
    let reference = replay_cluster(&trace, &mut steady, &IngestConfig::default())?;
    assert_eq!(reference.dropped, 0);
    assert_eq!(
        outcome.search_hits, reference.search_hits,
        "search hits must match the never-resharded run"
    );
    assert_eq!(outcome.delete_hits, reference.delete_hits);
    assert_eq!(outcome.update_rejections, reference.update_rejections);
    assert_eq!(
        migrated.content_digest(),
        steady.content_digest(),
        "quiescent contents must match the never-resharded run"
    );
    println!(
        "cross-arm agreement: {} search hits, {} delete hits, {} rejections, \
         content digest {:#018x} — identical with and without the reshard",
        outcome.search_hits,
        outcome.delete_hits,
        outcome.update_rejections,
        migrated.content_digest()
    );

    // A read-only snapshot fans every key out across all shard
    // replicas; spot-check it against the live cluster post-reshard.
    let mut snapshot = migrated.snapshot();
    for key in 0..64u64 {
        assert_eq!(
            snapshot.search(key).is_match(),
            migrated.search(key).is_match(),
            "snapshot fan-out must agree with the live cluster on key {key}"
        );
    }
    println!("snapshot fan-out agrees with the live cluster on 64 spot keys");

    // With observability compiled in, publish the replay's histograms
    // through the obs sink and read the percentiles back out.
    #[cfg(feature = "obs")]
    {
        let sink = std::sync::Arc::new(dsp_cam_obs::ObsSink::default());
        outcome.observe_into(&sink);
        let snap = sink.snapshot();
        for i in 0..shards {
            let hist = snap
                .registry
                .histogram(&format!("cluster/shard{i}"), "retire_latency_cycles")
                .expect("per-shard retire histogram published");
            assert_eq!(hist.count(), outcome.per_shard_latencies[i].len() as u64);
            println!(
                "obs: cluster/shard{i} retire_latency_cycles n={} p50<={} p99<={}",
                hist.count(),
                hist.quantile(0.50),
                hist.quantile(0.99)
            );
        }
        let stalls = snap
            .registry
            .histogram("cluster/migration", "migration_stall_cycles")
            .expect("migration stall histogram published");
        assert_eq!(stalls.count(), outcome.migration_stalls.len() as u64);
        println!(
            "obs: cluster/migration migration_stall_cycles n={} max={}",
            stalls.count(),
            stalls.max()
        );
    }

    println!("cluster reshard drill complete.");
    Ok(())
}
