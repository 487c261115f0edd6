//! Deterministic cluster behaviour: routing, the transactional API's
//! issue timing, live migration (frozen reads, read-your-writes,
//! cutover, content preservation), snapshot fan-out, the ingest replay
//! loop's zero-dropped-query invariant, the migration admission errors,
//! and the empty-shape construction error.

use dsp_cam_cluster::{replay_cluster, CamCluster, ClusterError, IngestConfig, MigrationPlan};
use dsp_cam_core::prelude::*;
use dsp_cam_workload::{generate, Arrival, OpMix, WorkloadConfig};

fn config() -> UnitConfig {
    UnitConfig::builder()
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
        .unwrap()
}

fn cluster(shards: usize) -> CamCluster {
    CamCluster::new(config(), shards, 16).unwrap()
}

#[test]
fn routing_stores_and_finds_keys_across_shards() {
    let mut cluster = cluster(4);
    let keys: Vec<u64> = (1..=64).collect();
    cluster.prefill(&keys).unwrap();
    cluster.quiesce();

    // Prefill actually spread across shards.
    let populated = (0..4)
        .filter(|&i| !cluster.shard(i).unit().stored_words().is_empty())
        .count();
    assert!(populated >= 3, "only {populated} of 4 shards populated");

    for &key in &keys {
        assert!(cluster.search(key).is_match(), "prefilled key {key} lost");
    }
    assert!(!cluster.search(999).is_match());
    cluster.update(999).unwrap();
    assert!(cluster.search(999).is_match());
    assert!(cluster.delete(999).unwrap());
    cluster.quiesce();
    assert!(!cluster.search(999).is_match());

    let results = cluster.search_stream(&[1, 999, 2, 64, 3]);
    let matches: Vec<bool> = results.iter().map(SearchResult::is_match).collect();
    assert_eq!(matches, vec![true, false, true, true, true]);

    let counters = cluster.counters();
    assert_eq!(counters.searches, keys.len() as u64 + 3);
    assert_eq!(counters.stream_keys, 5);
    assert_eq!(counters.updates, 1);
    assert_eq!(counters.deletes, 1);
    assert_eq!(counters.delete_hits, 1);
    assert_eq!(counters.update_rejections, 0);
}

#[test]
fn a_transactional_stream_issues_every_shard_in_the_same_cycle() {
    let mut cluster = cluster(4);
    let keys: Vec<u64> = (0..4)
        .map(|shard| {
            (1..4096u64)
                .find(|&k| cluster.ring().shard_of(k) == shard)
                .expect("every shard owns some key")
        })
        .collect();
    cluster.prefill(&keys).unwrap();
    cluster.quiesce();

    let before = cluster.cycle();
    assert!(cluster.search(keys[0]).is_match());
    let point = cluster.cycle() - before;
    assert_eq!(point, config().search_latency(), "one point search");

    let before = cluster.cycle();
    let results = cluster.search_stream(&keys);
    assert!(results.iter().all(SearchResult::is_match), "{results:?}");
    assert_eq!(
        cluster.cycle() - before,
        point,
        "one sub-batch per shard, all issued in the same cycle"
    );
}

#[test]
fn transactional_calls_after_a_replay_leave_no_retire_log_behind() {
    let trace = generate(&WorkloadConfig {
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
    .unwrap();
    let mut cluster = cluster(4);
    let outcome = replay_cluster(&trace, &mut cluster, &IngestConfig::default()).unwrap();
    assert_eq!(outcome.dropped, 0);

    for key in 0..50 {
        let _ = cluster.search(key);
    }
    for i in 0..4 {
        let left = cluster.shard(i).retire_log();
        assert!(
            left.is_empty(),
            "shard {i} kept {} retire records",
            left.len()
        );
    }
}

#[test]
fn migration_preserves_content_and_reassigns_the_slot() {
    let mut cluster = cluster(4);
    let keys: Vec<u64> = (1..=48).collect();
    cluster.prefill(&keys).unwrap();
    cluster.quiesce();
    let digest_before = cluster.content_digest();

    let slot = cluster.ring().slot_of(7);
    let source = cluster.ring().assignment(slot);
    let dest = (source + 1) % 4;
    cluster.begin_migration(slot, dest).unwrap();
    cluster.quiesce();

    assert!(!cluster.migration_in_progress());
    assert_eq!(cluster.ring().assignment(slot), dest);
    assert_eq!(cluster.counters().migrations_completed, 1);
    assert_eq!(cluster.migration_stalls().len(), 1);
    assert_eq!(
        cluster.content_digest(),
        digest_before,
        "migration must not change the cluster's logical contents"
    );
    // The source shard no longer holds any key of the moved slot.
    let leftovers = cluster
        .shard(source)
        .unit()
        .stored_words()
        .into_iter()
        .filter(|&w| cluster.ring().slot_of(w) == slot)
        .count();
    assert_eq!(leftovers, 0, "cutover left {leftovers} words on the source");
    for &key in &keys {
        assert!(
            cluster.search(key).is_match(),
            "key {key} lost in migration"
        );
    }
}

#[test]
fn frozen_replica_serves_the_window_with_read_your_writes() {
    let mut cluster = cluster(2);
    let keys: Vec<u64> = (1..=32).collect();
    cluster.prefill(&keys).unwrap();
    cluster.quiesce();

    // A slot with at least one prefilled key.
    let probe = *keys
        .iter()
        .find(|&&k| {
            let slot = cluster.ring().slot_of(k);
            keys.iter()
                .filter(|&&other| cluster.ring().slot_of(other) == slot)
                .count()
                >= 2
        })
        .expect("some slot holds two keys");
    let slot = cluster.ring().slot_of(probe);
    let dest = 1 - cluster.ring().assignment(slot);
    cluster.begin_migration(slot, dest).unwrap();
    assert!(cluster.migration_in_progress(), "window should be open");

    // An untouched slot key reads from the frozen replica.
    assert!(cluster.search(probe).is_match());
    assert!(cluster.counters().frozen_reads >= 1);

    // An in-window write to the slot is visible immediately (dirty path,
    // destination write buffer read-your-writes)...
    let sibling = keys
        .iter()
        .find(|&&k| k != probe && cluster.ring().slot_of(k) == slot)
        .copied()
        .expect("slot had two keys");
    assert!(
        cluster.migration_in_progress(),
        "writes keep the window open"
    );
    assert!(
        cluster.delete(sibling).unwrap(),
        "in-window delete must hit"
    );
    if cluster.migration_in_progress() {
        let frozen_before = cluster.counters().frozen_reads;
        assert!(
            !cluster.search(sibling).is_match(),
            "dirty key must bypass the frozen replica"
        );
        assert_eq!(
            cluster.counters().frozen_reads,
            frozen_before,
            "dirty key answered by the destination, not the replica"
        );
    }

    cluster.quiesce();
    assert!(
        !cluster.search(sibling).is_match(),
        "delete survives cutover"
    );
    assert!(cluster.search(probe).is_match(), "untouched key survives");
}

#[test]
fn snapshot_fan_out_matches_the_live_cluster() {
    let mut cluster = cluster(4);
    let keys: Vec<u64> = (10..=40).collect();
    cluster.prefill(&keys).unwrap();
    cluster.quiesce();

    let mut snapshot = cluster.snapshot();
    let probes: Vec<u64> = (0..64).collect();
    let fanned = snapshot.search_fan_out(&probes);
    for (&key, result) in probes.iter().zip(&fanned) {
        assert_eq!(
            result.is_match(),
            cluster.search(key).is_match(),
            "snapshot and live cluster disagree on {key}"
        );
        assert_eq!(
            snapshot.search(key).is_match(),
            result.is_match(),
            "snapshot point and fan-out disagree on {key}"
        );
    }
}

#[test]
fn ingest_replay_never_drops_a_query_across_a_migration() {
    let trace = generate(&WorkloadConfig {
        seed: 0xC1,
        ops: 600,
        key_space: 4096,
        zipf_s: 0.9,
        mix: OpMix::WRITE_HEAVY,
        stream_batch: 4,
        arrival: Arrival::Bursty {
            mean_burst: 8,
            idle_ticks: 4,
        },
        churn_per_mille: 100,
        prefill: 64,
        max_live: Some(200),
        eviction_min_gap: 1,
    })
    .unwrap();

    // Roomier shards than the routing tests: a write-heavy 600-op trace
    // with a 200-entry live watermark needs headroom under Zipf skew.
    let shard_config = UnitConfig::builder()
        .data_width(12)
        .block_size(8)
        .num_blocks(16)
        .bus_width(64)
        .write_buffer(WriteBufferConfig {
            capacity: 64,
            drain_per_tick: 1,
            bypass: false,
        })
        .build()
        .unwrap();
    let mut cluster = CamCluster::new(shard_config, 4, 16).unwrap();
    let slot = cluster.ring().slot_of(trace.prefill_words()[0]);
    let dest = (cluster.ring().assignment(slot) + 1) % 4;
    let outcome = replay_cluster(
        &trace,
        &mut cluster,
        &IngestConfig {
            queue_capacity: 32,
            migrate: Some(MigrationPlan {
                after_records: 200,
                slot,
                dest,
            }),
            faults: None,
        },
    )
    .unwrap();

    assert_eq!(outcome.dropped, 0, "zero-dropped-query invariant");
    assert!(outcome.issued > 0 && outcome.completions == outcome.issued);
    assert_eq!(outcome.migration_stalls.len(), 1, "one migration completed");
    assert_eq!(cluster.ring().assignment(slot), dest);
    assert!(outcome.ticks > 0 && outcome.peak_queue_depth > 0);
    let sampled: usize = (0..4).map(|i| outcome.per_shard_latencies[i].len()).sum();
    assert_eq!(
        sampled as u64, outcome.completions,
        "every completion leaves a latency sample"
    );
    let counts = trace.counts();
    let counters = cluster.counters();
    assert_eq!(counters.searches, counts.searches);
    assert_eq!(counters.stream_keys, counts.stream_keys);
    assert_eq!(counters.updates, counts.updates);
    assert_eq!(counters.deletes, counts.mix_deletes + counts.evictions);
    assert_eq!(counters.migrations_completed, 1);
}

#[test]
fn migration_admission_errors_leave_the_cluster_untouched() {
    let mut cluster = cluster(2);
    cluster.prefill(&[1, 2, 3]).unwrap();
    cluster.quiesce();

    assert_eq!(
        cluster.begin_migration(99, 1),
        Err(ClusterError::SlotOutOfRange {
            slot: 99,
            slots: 16
        })
    );
    assert_eq!(
        cluster.begin_migration(0, 7),
        Err(ClusterError::ShardOutOfRange {
            shard: 7,
            shards: 2
        })
    );
    let home = cluster.ring().assignment(3);
    assert_eq!(
        cluster.begin_migration(3, home),
        Err(ClusterError::AlreadyHome {
            slot: 3,
            shard: home
        })
    );
    assert!(!cluster.migration_in_progress());

    cluster.begin_migration(3, 1 - home).unwrap();
    assert_eq!(
        cluster.begin_migration(4, 1),
        Err(ClusterError::MigrationInProgress),
        "one window at a time"
    );
    cluster.quiesce();
    assert_eq!(cluster.counters().migrations_completed, 1);
}

#[test]
fn an_empty_cluster_shape_is_a_config_error() {
    assert_eq!(
        CamCluster::new(config(), 0, 16).unwrap_err(),
        ConfigError::ClusterShape {
            shards: 0,
            slots: 16
        }
    );
    assert_eq!(
        CamCluster::new(config(), 4, 0).unwrap_err(),
        ConfigError::ClusterShape {
            shards: 4,
            slots: 0
        }
    );
}
