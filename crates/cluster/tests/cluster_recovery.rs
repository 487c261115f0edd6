//! Cluster fault-tolerance proofs.
//!
//! The chaos property: ANY seeded [`ClusterFaultPlan`] — crashes and
//! stalls, optionally landing inside a live migration window —
//! converges to the fault-free twin: identical content digest at
//! quiescence, zero lost acknowledged writes, zero shed writes under a
//! generous retry policy, every presented search answered
//! (availability 1.0), across both fidelity tiers.
//!
//! The deterministic half pins each recovery mechanism on its own:
//! `epoch + journal` crash rebuilds, stall expiry, overload shedding,
//! migration abort/rollback (graceful and destination-crash), the
//! source-crash-keeps-the-window-open path, the failure-aware
//! `begin_migration` edges, and a replay reporting only its own
//! failover work.

use dsp_cam_cluster::{
    replay_cluster, CamCluster, ClusterError, ClusterFaultPlan, IngestConfig, MigrationPlan,
    PlannedFault, ReplicationConfig, ShardFault, ShedPolicy,
};
use dsp_cam_core::prelude::*;
use dsp_cam_workload::{generate, Arrival, OpMix, Trace, TraceOp, TraceRecord, WorkloadConfig};
use proptest::prelude::*;

/// Roomy shards (192 words per shard): the chaos suite must keep clear
/// of admission `Full` so the only divergence a fault could cause is a
/// lost or duplicated write — exactly what the digest comparison pins.
fn shard_config(fidelity: FidelityMode) -> UnitConfig {
    UnitConfig::builder()
        .data_width(12)
        .block_size(8)
        .num_blocks(24)
        .bus_width(64)
        .fidelity(fidelity)
        .write_buffer(WriteBufferConfig {
            capacity: 64,
            drain_per_tick: 1,
            bypass: false,
        })
        .build()
        .unwrap()
}

fn replication() -> ReplicationConfig {
    ReplicationConfig {
        refresh_interval: 64,
        journal_capacity: 512,
    }
}

/// A retry policy generous enough that no outage the fault plans can
/// produce ever sheds a write — the zero-lost-writes arm of the chaos
/// property needs every deferred write to eventually land.
fn patient_policy() -> ShedPolicy {
    ShedPolicy {
        base_backoff_ticks: 2,
        max_retries: 24,
        retry_budget: 1 << 40,
    }
}

fn chaos_trace(seed: u64) -> Trace {
    generate(&WorkloadConfig {
        seed,
        ops: 240,
        key_space: 1024,
        zipf_s: 0.9,
        mix: OpMix::WRITE_HEAVY,
        stream_batch: 4,
        arrival: Arrival::Bursty {
            mean_burst: 6,
            idle_ticks: 3,
        },
        churn_per_mille: 80,
        prefill: 48,
        max_live: Some(96),
        eviction_min_gap: 1,
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chaos convergence: a faulted, failover-enabled cluster ends at
    /// the same logical contents as a fault-free twin running the
    /// identical trace (and migration plan), with nothing dropped,
    /// nothing shed, and every search answered.
    #[test]
    fn chaos_fault_plans_converge_to_the_fault_free_twin(
        fault_seed in 1u64..(1 << 48),
        trace_seed in 1u64..(1 << 48),
        shards in 2usize..5,
        fault_count in 1usize..5,
        migrate in 0usize..2,
    ) {
        let trace = chaos_trace(trace_seed);
        for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            let mut faulty = CamCluster::new(shard_config(fidelity), shards, 16).unwrap();
            faulty.enable_failover(replication());
            faulty.set_shed_policy(patient_policy());
            let plan = (migrate == 1).then(|| {
                let slot = faulty.ring().slot_of(trace.prefill_words()[0]);
                MigrationPlan {
                    after_records: trace.records.len() / 3,
                    slot,
                    dest: (faulty.ring().assignment(slot) + 1) % shards,
                }
            });
            let faults = ClusterFaultPlan::seeded(fault_seed, shards, 600, fault_count);
            let outcome = replay_cluster(
                &trace,
                &mut faulty,
                &IngestConfig {
                    queue_capacity: 32,
                    migrate: plan,
                    faults: Some(faults),
                },
            )
            .unwrap();

            let mut twin = CamCluster::new(shard_config(fidelity), shards, 16).unwrap();
            let reference = replay_cluster(
                &trace,
                &mut twin,
                &IngestConfig {
                    queue_capacity: 32,
                    migrate: plan,
                    faults: None,
                },
            )
            .unwrap();

            prop_assert_eq!(reference.dropped, 0);
            prop_assert_eq!(
                outcome.dropped, 0,
                "zero-dropped-query invariant under faults ({:?})", fidelity
            );
            prop_assert_eq!(
                outcome.shed_writes, 0,
                "a patient policy must never shed ({:?})", fidelity
            );
            prop_assert!(
                outcome.availability() >= 0.99,
                "availability {} < 0.99 ({:?})", outcome.availability(), fidelity
            );
            prop_assert!(outcome.presented > 0);
            prop_assert_eq!(
                faulty.content_digest(), twin.content_digest(),
                "acknowledged writes lost or duplicated under faults ({:?})", fidelity
            );
        }
    }
}

/// Build a failover cluster with `shards` shards, prefilled and
/// quiescent.
fn failover_cluster(shards: usize, prefill: &[u64]) -> CamCluster {
    let mut cluster = CamCluster::new(shard_config(FidelityMode::BitAccurate), shards, 16).unwrap();
    cluster.enable_failover(replication());
    cluster.prefill(prefill).unwrap();
    cluster.quiesce();
    cluster
}

/// A reference cluster (no failover, no faults) holding exactly
/// `words`, for digest comparison.
fn digest_of(words: &[u64]) -> u64 {
    let mut reference = CamCluster::new(shard_config(FidelityMode::BitAccurate), 2, 16).unwrap();
    reference.prefill(words).unwrap();
    reference.quiesce();
    reference.content_digest()
}

#[test]
fn crash_rebuild_restores_every_acknowledged_write() {
    let prefill: Vec<u64> = (1..=40).collect();
    let mut cluster = failover_cluster(2, &prefill);

    // Acknowledged post-epoch writes: five stores and one delete, all
    // retired before the crash.
    for w in 100..=104u64 {
        cluster.update(w).unwrap();
    }
    assert!(cluster.delete(3).unwrap());
    cluster.quiesce();

    let victim = cluster.ring().assignment(cluster.ring().slot_of(100));
    cluster
        .inject_shard_fault(victim, ShardFault::Crash)
        .unwrap();
    assert!(!cluster.shard_healthy(victim));
    assert!(cluster.any_unhealthy());

    // Reads stay answered while the rebuild is in flight (stale is
    // fine; silent is not).
    let _ = cluster.search(100);
    let stats = cluster.failover_stats().unwrap();
    assert_eq!(stats.failures_detected, 1);
    assert!(stats.degraded_reads >= 1);

    cluster.quiesce();
    assert!(cluster.shard_healthy(victim));
    let stats = cluster.failover_stats().unwrap();
    assert_eq!(stats.rebuilds_completed, 1);
    assert_eq!(stats.recovery_ticks.len(), 1);
    assert!(stats.recovery_ticks[0] > 0);

    // Zero lost acknowledged writes: every surviving prefill key, every
    // post-epoch store, and the delete all hold after the rebuild.
    for &w in &prefill {
        assert_eq!(
            cluster.search(w).is_match(),
            w != 3,
            "prefilled key {w} wrong after rebuild"
        );
    }
    for w in 100..=104u64 {
        assert!(cluster.search(w).is_match(), "acked write {w} lost");
    }
    let expected: Vec<u64> = prefill
        .iter()
        .copied()
        .filter(|&w| w != 3)
        .chain(100..=104)
        .collect();
    assert_eq!(cluster.content_digest(), digest_of(&expected));
}

#[test]
fn stall_closes_the_issue_port_then_expires() {
    let prefill: Vec<u64> = (1..=16).collect();
    let mut cluster = failover_cluster(2, &prefill);
    cluster
        .inject_shard_fault(0, ShardFault::Stall { ticks: 10 })
        .unwrap();
    assert!(!cluster.shard_healthy(0));

    // A second fault on the already-failed shard is absorbed.
    cluster.inject_shard_fault(0, ShardFault::Crash).unwrap();
    let stats = cluster.failover_stats().unwrap();
    assert_eq!(stats.failures_detected, 1, "absorbed faults do not count");

    // A write to the stalled shard waits out the stall and lands —
    // contents survived (no rebuild, no journal replay).
    let key = (0..4096u64)
        .find(|&k| cluster.ring().assignment(cluster.ring().slot_of(k)) == 0)
        .unwrap();
    cluster.update(key).unwrap();
    assert!(cluster.shard_healthy(0), "the write waited past expiry");
    let stats = cluster.failover_stats().unwrap();
    assert_eq!(stats.rebuilds_completed, 0, "a stall is not a crash");
    assert_eq!(stats.recovery_ticks, vec![10]);
    cluster.quiesce();
    assert!(cluster.search(key).is_match());
    for &w in &prefill {
        assert!(cluster.search(w).is_match(), "stall must not lose {w}");
    }
}

#[test]
fn overload_sheds_the_transactional_write_past_the_backoff_window() {
    let mut cluster = failover_cluster(2, &[1, 2, 3]);
    cluster.set_shed_policy(ShedPolicy {
        base_backoff_ticks: 1,
        max_retries: 2,
        retry_budget: 64,
    });
    cluster
        .inject_shard_fault(0, ShardFault::Stall { ticks: 400 })
        .unwrap();
    let key = (0..4096u64)
        .find(|&k| cluster.ring().assignment(cluster.ring().slot_of(k)) == 0)
        .unwrap();
    // Backoff window = 1 tick to the first retry, then 1 << 1 and
    // 1 << 2 after retries 1 and 2: 7 ticks, far short of the stall.
    assert_eq!(
        cluster.update(key),
        Err(ClusterError::Overloaded { shard: 0 })
    );
    // Reads on the overloaded shard still answer (degraded).
    let _ = cluster.search(key);
    assert!(cluster.failover_stats().unwrap().degraded_reads >= 1);

    cluster.quiesce();
    cluster.update(key).unwrap();
    cluster.quiesce();
    assert!(cluster.search(key).is_match());
}

/// A fresh two-shard failover cluster, plus a key homed on shard 0.
fn failover_pair(replication: ReplicationConfig) -> (CamCluster, u64) {
    let mut cluster = CamCluster::new(shard_config(FidelityMode::Turbo), 2, 16).unwrap();
    cluster.enable_failover(replication);
    let key = (0..4096u64)
        .find(|&k| cluster.ring().assignment(cluster.ring().slot_of(k)) == 0)
        .unwrap();
    (cluster, key)
}

#[test]
fn both_write_paths_shed_a_stalled_write_at_the_same_stall() {
    // Stalls from two below to two above the shortest one the ingest
    // loop sheds on: one past the backoff window of 1 + 4 * (2 + 4) =
    // 25 ticks for (4, 2), and of 1 + 8 * (2 + 4 + ... + 256) = 4081
    // for the default policy.
    let tight = ShedPolicy {
        base_backoff_ticks: 4,
        max_retries: 2,
        ..ShedPolicy::default()
    };
    for (policy, first_shed) in [(tight, 26u64), (ShedPolicy::default(), 4082)] {
        let mut verdicts = Vec::new();
        for stall in first_shed - 2..=first_shed + 2 {
            let (mut transactional, key) = failover_pair(replication());
            transactional.set_shed_policy(policy);
            transactional
                .inject_shard_fault(0, ShardFault::Stall { ticks: stall })
                .unwrap();
            let overloaded =
                transactional.update(key) == Err(ClusterError::Overloaded { shard: 0 });

            let (mut ingest, _) = failover_pair(replication());
            ingest.set_shed_policy(policy);
            let trace = Trace {
                seed: 0,
                prefill: Vec::new(),
                records: vec![TraceRecord {
                    gap: 0,
                    op: TraceOp::Update(key),
                }],
            };
            let outcome = replay_cluster(
                &trace,
                &mut ingest,
                &IngestConfig {
                    faults: Some(ClusterFaultPlan::from_faults(vec![PlannedFault {
                        at_tick: 0,
                        shard: 0,
                        fault: ShardFault::Stall { ticks: stall },
                    }])),
                    ..IngestConfig::default()
                },
            )
            .unwrap();
            assert_eq!(
                overloaded,
                outcome.shed_writes == 1,
                "{policy:?}, stall {stall}: update overloaded {overloaded}, ingest shed {}",
                outcome.shed_writes
            );
            verdicts.push(overloaded);
        }
        assert_eq!(
            verdicts,
            [false, false, true, true, true],
            "{policy:?}: shedding starts at a stall of {first_shed} ticks"
        );
    }
}

#[test]
fn a_shed_policy_set_before_enable_failover_is_kept() {
    let policy = ShedPolicy {
        base_backoff_ticks: 3,
        max_retries: 5,
        retry_budget: 17,
    };
    let mut cluster = CamCluster::new(shard_config(FidelityMode::Turbo), 2, 16).unwrap();
    cluster.set_shed_policy(policy);
    cluster.enable_failover(replication());
    assert_eq!(cluster.shed_policy(), policy);
}

#[test]
fn degraded_reads_come_from_the_newest_epoch() {
    let (mut cluster, key) = failover_pair(ReplicationConfig {
        refresh_interval: 8,
        ..replication()
    });
    cluster.update(key).unwrap();
    cluster.quiesce();
    // A refresh epochs the contents and truncates the journal, so once
    // the journal is empty only the refreshed epoch holds `key`.
    for _ in 0..64 {
        if cluster.shard(0).write_journal().unwrap().acked_len() == 0 {
            break;
        }
        cluster.tick();
    }
    assert_eq!(cluster.shard(0).write_journal().unwrap().acked_len(), 0);

    cluster.inject_shard_fault(0, ShardFault::Crash).unwrap();
    let before = cluster.failover_stats().unwrap().degraded_reads;
    assert!(
        cluster.search(key).is_match(),
        "the degraded read must see the write the refreshed epoch covers"
    );
    assert_eq!(cluster.failover_stats().unwrap().degraded_reads, before + 1);
}

/// Prefilled two-shard cluster plus the densest migrating slot — in-
/// window transactional ops tick the cluster, so the fixture needs a
/// slot wide enough that the window survives them.
fn migration_fixture() -> (CamCluster, Vec<u64>, usize, usize, usize) {
    let prefill: Vec<u64> = (1..=128).collect();
    let cluster = failover_cluster(2, &prefill);
    let slot = (0..16)
        .max_by_key(|&s| {
            prefill
                .iter()
                .filter(|&&w| cluster.ring().slot_of(w) == s)
                .count()
        })
        .unwrap();
    let source = cluster.ring().assignment(slot);
    let dest = 1 - source;
    let staged = prefill
        .iter()
        .filter(|&&w| cluster.ring().slot_of(w) == slot)
        .count();
    assert!(staged >= 6, "fixture slot too thin ({staged} words)");
    (cluster, prefill, slot, source, dest)
}

/// A key of `slot` that was not prefilled.
fn fresh_slot_key(cluster: &CamCluster, slot: usize) -> u64 {
    (200..4096u64)
        .find(|&k| cluster.ring().slot_of(k) == slot)
        .expect("the slot covers some fresh key")
}

#[test]
fn abort_rolls_the_window_back_to_source_serving() {
    let (mut cluster, prefill, slot, source, dest) = migration_fixture();
    assert_eq!(
        cluster.abort_migration(),
        Err(ClusterError::NoMigration),
        "nothing to abort before a window opens"
    );

    cluster.begin_migration(slot, dest).unwrap();
    assert!(cluster.migration_in_progress());

    // In-window redirected writes: one store of a fresh slot key, one
    // delete of a staged one — both acknowledged against the dest.
    let fresh = fresh_slot_key(&cluster, slot);
    cluster.update(fresh).unwrap();
    let staged_victim = prefill
        .iter()
        .copied()
        .find(|&w| cluster.ring().slot_of(w) == slot)
        .unwrap();
    assert!(cluster.delete(staged_victim).unwrap());
    assert!(
        cluster.migration_in_progress(),
        "the fixture slot must keep the window open across two ops"
    );

    cluster.abort_migration().unwrap();
    assert!(!cluster.migration_in_progress());
    assert_eq!(
        cluster.ring().assignment(slot),
        source,
        "the ring never flipped"
    );
    assert_eq!(cluster.failover_stats().unwrap().migration_aborts, 1);
    cluster.quiesce();

    // No acknowledged in-window write was lost in the rollback...
    assert!(cluster.search(fresh).is_match(), "redirected store lost");
    assert!(
        !cluster.search(staged_victim).is_match(),
        "redirected delete lost"
    );
    for &w in &prefill {
        assert_eq!(cluster.search(w).is_match(), w != staged_victim);
    }
    // ...the destination was scrubbed of the slot...
    let leftovers = cluster
        .shard(dest)
        .unit()
        .stored_words()
        .into_iter()
        .filter(|&w| cluster.ring().slot_of(w) == slot)
        .count();
    assert_eq!(leftovers, 0, "{leftovers} slot words left on the dest");
    // ...and the logical contents match a cluster that never migrated.
    let expected: Vec<u64> = prefill
        .iter()
        .copied()
        .filter(|&w| w != staged_victim)
        .chain([fresh])
        .collect();
    assert_eq!(cluster.content_digest(), digest_of(&expected));
    assert_eq!(cluster.counters().migrations_completed, 0);
}

#[test]
fn dest_crash_inside_the_window_rolls_back_without_losing_acked_writes() {
    let (mut cluster, prefill, slot, source, dest) = migration_fixture();
    cluster.begin_migration(slot, dest).unwrap();
    let fresh = fresh_slot_key(&cluster, slot);
    cluster.update(fresh).unwrap();
    assert!(cluster.migration_in_progress());

    cluster.inject_shard_fault(dest, ShardFault::Crash).unwrap();
    assert!(
        !cluster.migration_in_progress(),
        "a dead destination aborts the window"
    );
    assert_eq!(cluster.ring().assignment(slot), source);
    assert_eq!(cluster.failover_stats().unwrap().migration_aborts, 1);

    cluster.quiesce();
    assert_eq!(cluster.failover_stats().unwrap().rebuilds_completed, 1);
    assert!(cluster.search(fresh).is_match(), "redirected store lost");
    for &w in &prefill {
        assert!(cluster.search(w).is_match(), "key {w} lost in rollback");
    }
    let leftovers = cluster
        .shard(dest)
        .unit()
        .stored_words()
        .into_iter()
        .filter(|&w| cluster.ring().slot_of(w) == slot)
        .count();
    assert_eq!(leftovers, 0, "rebuild must drop the aborted slot's words");
    let expected: Vec<u64> = prefill.iter().copied().chain([fresh]).collect();
    assert_eq!(cluster.content_digest(), digest_of(&expected));
}

#[test]
fn source_crash_keeps_the_window_open_until_recovery_then_cuts_over() {
    let (mut cluster, prefill, slot, _source, dest) = migration_fixture();
    let digest_before = cluster.content_digest();
    cluster.begin_migration(slot, dest).unwrap();
    let probe = prefill
        .iter()
        .copied()
        .find(|&w| cluster.ring().slot_of(w) == slot)
        .unwrap();
    let source = cluster.ring().assignment(slot);
    cluster
        .inject_shard_fault(source, ShardFault::Crash)
        .unwrap();
    assert!(
        cluster.migration_in_progress(),
        "a dying source must not abort the window"
    );
    // The frozen replica keeps serving the migrating slot.
    let frozen_before = cluster.counters().frozen_reads;
    assert!(cluster.search(probe).is_match());
    assert!(cluster.counters().frozen_reads > frozen_before);

    cluster.quiesce();
    assert!(!cluster.migration_in_progress());
    assert_eq!(cluster.ring().assignment(slot), dest, "cutover completed");
    assert_eq!(cluster.counters().migrations_completed, 1);
    assert_eq!(cluster.failover_stats().unwrap().migration_aborts, 0);
    for &w in &prefill {
        assert!(cluster.search(w).is_match(), "key {w} lost");
    }
    assert_eq!(cluster.content_digest(), digest_before);
}

#[test]
fn begin_migration_rejects_failed_participants() {
    let mut cluster = failover_cluster(2, &(1..=32).collect::<Vec<u64>>());
    let slot_on_0 = (0..16)
        .find(|&s| cluster.ring().assignment(s) == 0)
        .unwrap();
    let slot_on_1 = (0..16)
        .find(|&s| cluster.ring().assignment(s) == 1)
        .unwrap();

    cluster.inject_shard_fault(0, ShardFault::Crash).unwrap();
    assert_eq!(
        cluster.begin_migration(slot_on_0, 1),
        Err(ClusterError::ShardUnavailable { shard: 0 }),
        "failed source"
    );
    assert_eq!(
        cluster.begin_migration(slot_on_1, 0),
        Err(ClusterError::ShardUnavailable { shard: 0 }),
        "failed destination"
    );
    assert!(!cluster.migration_in_progress());

    cluster.quiesce();
    cluster.begin_migration(slot_on_0, 1).unwrap();
    cluster.quiesce();
    assert_eq!(cluster.ring().assignment(slot_on_0), 1);
    assert_eq!(cluster.counters().migrations_completed, 1);
}

#[test]
fn prolonged_outage_sheds_writes_but_answers_every_read() {
    let trace = generate(&WorkloadConfig {
        seed: 0x0B5E_55ED,
        ops: 200,
        key_space: 1024,
        zipf_s: 0.9,
        mix: OpMix::WRITE_HEAVY,
        stream_batch: 4,
        arrival: Arrival::BackToBack,
        churn_per_mille: 80,
        prefill: 32,
        max_live: Some(80),
        eviction_min_gap: 1,
    })
    .unwrap();
    let mut cluster = CamCluster::new(shard_config(FidelityMode::BitAccurate), 2, 16).unwrap();
    cluster.enable_failover(replication());
    cluster.set_shed_policy(ShedPolicy {
        base_backoff_ticks: 1,
        max_retries: 2,
        retry_budget: 8,
    });
    let faults = ClusterFaultPlan::from_faults(vec![PlannedFault {
        at_tick: 10,
        shard: 0,
        fault: ShardFault::Stall { ticks: 2000 },
    }]);
    let outcome = replay_cluster(
        &trace,
        &mut cluster,
        &IngestConfig {
            queue_capacity: 32,
            migrate: None,
            faults: Some(faults),
        },
    )
    .unwrap();

    assert!(
        outcome.shed_writes > 0,
        "a tight policy under a long outage sheds"
    );
    assert!(outcome.write_retries > 0);
    assert_eq!(outcome.dropped, 0, "shedding is counted, never a drop");
    assert!(outcome.degraded_answers > 0, "reads kept flowing degraded");
    let availability = outcome.availability();
    assert!(
        availability < 1.0 && availability > 0.5,
        "expected partial write loss, got availability {availability}"
    );
    assert!(cluster.shard_healthy(0), "quiescence waited out the stall");
}

#[test]
fn reads_on_a_crashed_shard_are_answered_from_the_replica_epoch() {
    let trace = generate(&WorkloadConfig {
        seed: 0xDE6_4ADE,
        ops: 300,
        key_space: 1024,
        zipf_s: 0.9,
        mix: OpMix::READ_HEAVY,
        stream_batch: 4,
        arrival: Arrival::BackToBack,
        churn_per_mille: 50,
        prefill: 128,
        max_live: Some(160),
        eviction_min_gap: 1,
    })
    .unwrap();
    let mut faulty = CamCluster::new(shard_config(FidelityMode::Turbo), 2, 16).unwrap();
    faulty.enable_failover(replication());
    let faults = ClusterFaultPlan::from_faults(vec![PlannedFault {
        at_tick: 40,
        shard: 0,
        fault: ShardFault::Crash,
    }]);
    let outcome = replay_cluster(
        &trace,
        &mut faulty,
        &IngestConfig {
            queue_capacity: 32,
            migrate: None,
            faults: Some(faults),
        },
    )
    .unwrap();

    assert_eq!(outcome.failures_detected, 1);
    assert_eq!(outcome.rebuilds_completed, 1);
    assert!(
        outcome.degraded_answers > 0,
        "reads during the rebuild answer from the replica epoch"
    );
    assert_eq!(
        outcome.degraded_latencies.len(),
        outcome.degraded_answers as usize
    );
    assert_eq!(
        outcome.shed_writes, 0,
        "the default policy outlasts a rebuild"
    );
    assert_eq!(outcome.dropped, 0);
    assert!((outcome.availability() - 1.0).abs() < f64::EPSILON);
    assert!(!outcome.recovery_ticks.is_empty());

    let mut twin = CamCluster::new(shard_config(FidelityMode::Turbo), 2, 16).unwrap();
    let reference = replay_cluster(&trace, &mut twin, &IngestConfig::default()).unwrap();
    assert_eq!(reference.dropped, 0);
    assert_eq!(
        faulty.content_digest(),
        twin.content_digest(),
        "the crash must not change the quiescent contents"
    );
}

#[test]
fn a_replay_reports_only_its_own_failover_work() {
    let mut cluster = CamCluster::new(shard_config(FidelityMode::Turbo), 2, 16).unwrap();
    cluster.enable_failover(replication());
    cluster.set_shed_policy(patient_policy());
    let trace = chaos_trace(0x005E_C00D);
    let slot = cluster.ring().slot_of(trace.prefill_words()[0]);
    let dest = 1 - cluster.ring().assignment(slot);
    let first = replay_cluster(
        &trace,
        &mut cluster,
        &IngestConfig {
            queue_capacity: 32,
            migrate: Some(MigrationPlan {
                after_records: trace.records.len() / 2,
                slot,
                dest,
            }),
            faults: Some(ClusterFaultPlan::from_faults(vec![PlannedFault {
                at_tick: 40,
                shard: 0,
                fault: ShardFault::Crash,
            }])),
        },
    )
    .unwrap();
    assert_eq!(first.failures_detected, 1);
    assert_eq!(first.rebuilds_completed, 1);
    assert_eq!(first.recovery_ticks.len(), 1);
    assert_eq!(first.migration_stalls.len(), 1);
    assert!(first.degraded_answers > 0);
    assert_eq!(
        first.degraded_answers,
        cluster.failover_stats().unwrap().degraded_reads,
        "each degraded answer is counted once"
    );

    // A second, fault-free replay without a migration on the same
    // cluster reports none of the first one's failover work.
    let second =
        replay_cluster(&chaos_trace(0xF2E5), &mut cluster, &IngestConfig::default()).unwrap();
    assert_eq!(second.failures_detected, 0);
    assert_eq!(second.rebuilds_completed, 0);
    assert!(second.recovery_ticks.is_empty());
    assert_eq!(second.migration_aborts, 0);
    assert!(second.migration_stalls.is_empty());
    assert_eq!(second.degraded_answers, 0);
    assert_eq!(second.dropped, 0);
}
