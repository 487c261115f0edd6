//! The migration observational-equivalence property: a cluster that
//! live-migrates a slot mid-traffic must be indistinguishable — per-op
//! results, cluster counters at quiescence, content digest, and
//! replicated snapshot answers — from a reference cluster running the
//! identical op stream with no migration, across both fidelity tiers.
//! One arm also rehydrates the *destination* shard mid-window
//! (snapshot/restore during migration), which must preserve the staged
//! slot and change nothing observable.

use dsp_cam_cluster::CamCluster;
use dsp_cam_core::prelude::*;
use proptest::prelude::*;

/// A random cluster operation applied identically to both arms.
#[derive(Debug, Clone)]
enum ClusterOp {
    Search(u64),
    /// Multi-key fan-out (splits per shard, reassembles by position).
    SearchStream(Vec<u64>),
    Update(u64),
    Delete(u64),
    /// Idle cluster cycles: write buffers drain, an open window may
    /// reach cutover mid-stream.
    Idle(usize),
}

fn cluster_op() -> impl Strategy<Value = ClusterOp> {
    // Narrow key domain so the migrating slot's keys are hit constantly
    // — in-window frozen reads, dirty writes, and deletes of staged
    // words all occur within a single short sequence.
    let limit = 48u64;
    prop_oneof![
        4 => (0..limit).prop_map(ClusterOp::Search),
        3 => proptest::collection::vec(0..limit, 1..8).prop_map(ClusterOp::SearchStream),
        4 => (0..limit).prop_map(ClusterOp::Update),
        3 => (0..limit).prop_map(ClusterOp::Delete),
        2 => (1usize..6).prop_map(ClusterOp::Idle),
    ]
}

fn build(fidelity: FidelityMode) -> CamCluster {
    let config = UnitConfig::builder()
        .data_width(12)
        .block_size(8)
        // Capacity headroom: in-window the destination holds the staged
        // slot *and* its own keys, and admission errors must still match
        // the reference arm exactly.
        .num_blocks(8)
        .bus_width(64)
        .fidelity(fidelity)
        .write_buffer(WriteBufferConfig {
            capacity: 64,
            // Slow drain keeps the migration window open across several
            // ops, so the frozen replica actually serves traffic.
            drain_per_tick: 1,
            bypass: false,
        })
        .build()
        .unwrap();
    CamCluster::new(config, 3, 12).unwrap()
}

/// Apply `op` and render every observable output (`is_match` per key —
/// match addresses are shard-local and legitimately differ).
fn apply(cluster: &mut CamCluster, op: &ClusterOp) -> String {
    match op {
        ClusterOp::Search(key) => format!("{}", cluster.search(*key).is_match()),
        ClusterOp::SearchStream(keys) => {
            let hits: Vec<bool> = cluster
                .search_stream(keys)
                .iter()
                .map(SearchResult::is_match)
                .collect();
            format!("{hits:?}")
        }
        ClusterOp::Update(word) => format!("{:?}", cluster.update(*word)),
        ClusterOp::Delete(key) => format!("{:?}", cluster.delete(*key)),
        ClusterOp::Idle(cycles) => {
            for _ in 0..*cycles {
                cluster.tick();
            }
            String::new()
        }
    }
}

/// The counter set both arms must agree on at quiescence. `frozen_reads`
/// and `migrations_completed` are migration bookkeeping and excluded by
/// construction.
fn comparable(cluster: &CamCluster) -> Vec<(&'static str, u64)> {
    let c = cluster.counters();
    vec![
        ("searches", c.searches),
        ("stream_keys", c.stream_keys),
        ("updates", c.updates),
        ("deletes", c.deletes),
        ("search_hits", c.search_hits),
        ("delete_hits", c.delete_hits),
        ("update_rejections", c.update_rejections),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn migration_is_observationally_invisible(
        prefill in proptest::collection::vec(0..48u64, 4..24),
        ops in proptest::collection::vec(cluster_op(), 4..28),
        migrate_at in 0usize..28,
        rehydrate_after in 0usize..6,
        slot_seed in 0..48u64,
        dest_offset in 1usize..3,
    ) {
        for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            let mut migrated = build(fidelity);
            let mut reference = build(fidelity);
            migrated.prefill(&prefill).unwrap();
            reference.prefill(&prefill).unwrap();
            migrated.quiesce();
            reference.quiesce();

            let slot = migrated.ring().slot_of(slot_seed);
            let dest = (migrated.ring().assignment(slot) + dest_offset) % 3;
            let migrate_at = migrate_at.min(ops.len());
            let mut since_migration: Option<usize> = None;

            for (i, op) in ops.iter().enumerate() {
                if i == migrate_at && migrated.ring().assignment(slot) != dest {
                    migrated.begin_migration(slot, dest).unwrap();
                    since_migration = Some(0);
                }
                // Mid-window snapshot/restore of the destination
                // shard: must preserve the staged slot words.
                if let Some(age) = since_migration.as_mut() {
                    if *age == rehydrate_after && migrated.migration_in_progress() {
                        let restored = migrated.shard(dest).unit().rehydrate();
                        migrated.replace_shard_unit(dest, restored);
                    }
                    *age += 1;
                }
                let out = apply(&mut migrated, op);
                let expected = apply(&mut reference, op);
                prop_assert_eq!(
                    out, expected,
                    "op {} diverged (fidelity {:?}, slot {}, dest {})",
                    i, fidelity, slot, dest
                );
            }

            migrated.quiesce();
            reference.quiesce();
            if migrate_at < ops.len() && since_migration.is_some() {
                prop_assert_eq!(migrated.counters().migrations_completed, 1);
                prop_assert_eq!(migrated.ring().assignment(slot), dest);
            }
            prop_assert_eq!(
                comparable(&migrated), comparable(&reference),
                "counters diverged (fidelity {:?})", fidelity
            );
            prop_assert_eq!(
                migrated.content_digest(), reference.content_digest(),
                "stored contents diverged (fidelity {:?})", fidelity
            );

            // The replicated snapshots must answer the whole key
            // domain identically.
            let probes: Vec<u64> = (0..48).collect();
            let migrated_hits: Vec<bool> = migrated
                .snapshot()
                .search_fan_out(&probes)
                .iter()
                .map(SearchResult::is_match)
                .collect();
            let reference_hits: Vec<bool> = reference
                .snapshot()
                .search_fan_out(&probes)
                .iter()
                .map(SearchResult::is_match)
                .collect();
            prop_assert_eq!(migrated_hits, reference_hits);
        }
    }
}
