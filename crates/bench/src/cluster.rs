//! The sharding cluster's capacity-scaling race and migration invariant.
//!
//! Per-operation cost on the Turbo tier grows with unit capacity (every
//! search and delete walks the whole bit-sliced plane set), so N
//! quarter-size shards answer a mixed workload substantially faster
//! than one unit of the same total capacity — even replayed
//! *sequentially* on a single core, which is how [`measure_cluster_rows`]
//! races them: the write-heavy trace is split per shard by the cluster's
//! consistent-hash ring, each subtrace replays through the same
//! transaction-level arm as the baseline, and the shard replay times
//! are *summed*. Any parallel host would only widen the gap.
//!
//! Replay windows are timed in **consumed CPU time** (Linux
//! `/proc/thread-self/stat`, wall-clock elsewhere): the race runs on
//! shared hosts where a competing tenant can steal double-digit
//! percentages of one arm's wall-clock window, and CPU time charges
//! neither arm for cycles it never got.
//!
//! [`measure_migration_invariant`] drives the cycle-accurate ingest loop
//! across a live slot migration and checks the protocol's contract:
//! zero dropped queries, every routed record completed, exactly one
//! cutover.

use std::time::Instant;

use dsp_cam_cluster::{replay_cluster, CamCluster, HashRing, IngestConfig, MigrationPlan};
use dsp_cam_core::prelude::*;
use dsp_cam_workload::{
    compress_gaps, generate, split_trace, Arrival, OpMix, Trace, TraceOp, WorkloadConfig,
};

use crate::artefact::{self, Row};
use crate::search_rates::plane_walk_cell;

/// Sequential-sum throughput of one shard count in the cluster race.
#[derive(Debug, Clone, Copy)]
pub struct ClusterRow {
    /// Number of shards the trace was split across.
    pub shards: usize,
    /// Capacity per shard in entries (total is fixed across rows).
    pub entries_per_shard: usize,
    /// Application operations replayed (identical across rows).
    pub app_ops: u64,
    /// Summed per-shard replay time: consumed CPU seconds on Linux,
    /// wall-clock where a CPU clock is unavailable.
    pub elapsed_secs: f64,
    /// Updates rejected at admission — must match across rows, or the
    /// race compared different amounts of work.
    pub update_rejections: u64,
}

impl ClusterRow {
    /// Application ops/sec over the summed sequential replay time.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.app_ops as f64 / self.elapsed_secs
    }
}

/// The `capacity_scaling` rows of one race: each shard count's speedup
/// over the single-shard row.
pub(crate) fn capacity_scaling(rows: &[ClusterRow]) -> Vec<Row> {
    let baseline = rows.iter().find(|r| r.shards == 1);
    let row = |r: &ClusterRow| {
        let speedup = baseline.map_or(1.0, |b| r.ops_per_sec() / b.ops_per_sec());
        Row::default()
            .int("shards", r.shards as u64)
            .int("entries_per_shard", r.entries_per_shard as u64)
            .int("app_ops", r.app_ops)
            .float("sequential_sum_ops_per_sec", r.ops_per_sec(), 1)
            .float("speedup_over_single", speedup, 2)
    };
    rows.iter().map(row).collect()
}

/// The calling thread's consumed CPU time in seconds, read from
/// `/proc/thread-self/stat` (utime + stime, always in `USER_HZ` = 100
/// ticks/s regardless of kernel `HZ`). `None` off Linux or on any
/// parse surprise — callers fall back to wall-clock.
fn thread_cpu_secs() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/thread-self/stat")
        .or_else(|_| std::fs::read_to_string("/proc/self/stat"))
        .ok()?;
    // Fields 14/15 (utime/stime) counted after the parenthesised comm,
    // which may itself contain spaces.
    let mut fields = stat.rsplit(')').next()?.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Time one replay window: consumed CPU seconds when the clock is
/// available and advanced, wall-clock otherwise.
fn timed_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let cpu_before = thread_cpu_secs();
    let wall = Instant::now();
    let out = f();
    let wall = wall.elapsed().as_secs_f64();
    let secs = match (cpu_before, thread_cpu_secs()) {
        (Some(before), Some(after)) if after > before => after - before,
        _ => wall,
    };
    (out, secs)
}

/// What the ingest loop observed across a live migration.
#[derive(Debug, Clone, Copy)]
pub struct MigrationInvariantRow {
    /// Sub-operations issued into shard pipelines.
    pub issued: u64,
    /// Completions harvested (must equal `issued`).
    pub completions: u64,
    /// Issued minus completed at quiescence — the invariant is 0.
    pub dropped: u64,
    /// Searches answered by the frozen replica during the window.
    pub frozen_answers: u64,
    /// Stall cycles of the completed migration.
    pub stall_cycles: u64,
    /// Total lockstep cycles of the replay.
    pub ticks: u64,
}

impl MigrationInvariantRow {
    /// The `cluster_migration` object.
    pub(crate) fn row(&self) -> Row {
        Row::default()
            .int("issued", self.issued)
            .int("completions", self.completions)
            .int("dropped", self.dropped)
            .int("frozen_answers", self.frozen_answers)
            .int("stall_cycles", self.stall_cycles)
            .int("ticks", self.ticks)
            .text("invariant", artefact::migration_invariant())
    }
}

/// The canonical write-heavy (50:45:5) cluster trace: Zipfian keys,
/// live-set watermark under the 8192-entry total capacity, eviction
/// gaps clamped.
#[must_use]
pub fn cluster_trace(ops: u64, seed: u64) -> Trace {
    generate(&WorkloadConfig {
        seed,
        ops,
        key_space: 16_384,
        zipf_s: 0.8,
        mix: OpMix::WRITE_HEAVY,
        // Point searches, uncoalesced: the key-parallel batch kernel
        // answers a whole coalesced stream batch in roughly one plane
        // walk, which would shrink exactly the capacity-scaling search
        // work the shard race exists to measure.
        stream_batch: 1,
        arrival: Arrival::BackToBack,
        churn_per_mille: 50,
        // A high prefill plus a high live watermark keep the Turbo
        // occupancy scans (the part of the mix that scales with shard
        // size) dominant over fixed per-op replay overheads for the
        // whole trace — churn alone would take ~100k ops to ramp the
        // live set up from a small prefill. ~83% fill per 2048-entry
        // shard still leaves >5 sigma of ring-hash imbalance headroom,
        // so admission outcomes stay identical across race arms.
        prefill: 6000,
        max_live: Some(6800),
        eviction_min_gap: 1,
    })
    .expect("canonical cluster workload config is valid")
}

/// The race's transaction-level replay loop: the same `CamUnit` calls
/// as `dsp_cam_workload::replay_direct`, but tallying as it goes
/// instead of retaining every completion — a 1M-op trace would
/// otherwise churn tens of megabytes of completions through the
/// allocator, a fixed per-op tax that dilutes the capacity-scaling
/// signal the race exists to measure (and evicts the small shards'
/// L1-resident planes). Returns the admission-rejection count, the
/// cross-arm work-equality check.
fn race_replay(trace: &Trace, unit: &mut CamUnit) -> u64 {
    if !trace.prefill.is_empty() {
        unit.update(trace.prefill_words())
            .expect("prefill must fit the shard");
    }
    unit.flush_write_buffer();
    let mut rejections = 0u64;
    for record in &trace.records {
        match &record.op {
            TraceOp::Search(key) => {
                let _ = unit.search(*key);
            }
            TraceOp::SearchStream(keys) => {
                let _ = unit.search_stream(keys);
            }
            TraceOp::Update(word) => {
                rejections += u64::from(unit.update(&[*word]).is_err());
            }
            TraceOp::Delete { key, .. } => {
                let _ = unit.delete_first(*key);
            }
        }
    }
    unit.flush_write_buffer();
    rejections
}

/// A Turbo-tier shard unit of `entries` capacity in the canonical bench
/// geometry (256-entry blocks, 512-bit bus, single group), of
/// [`plane_walk_cell`]s: the race measures how a plane walk speeds up
/// as shard capacity shrinks, which a binary unit's exact-match index
/// would hide.
fn shard_unit(entries: usize) -> CamUnit {
    let cell = plane_walk_cell();
    let config = UnitConfig::builder()
        .kind(cell.kind)
        .data_width(cell.data_width)
        .ternary_mask(cell.ternary_mask)
        .block_size(256)
        .num_blocks(entries / 256)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .build()
        .expect("bench geometry is valid");
    CamUnit::new(config).expect("constructible")
}

/// Race shard counts over one `ops`-op write-heavy trace at
/// `total_entries` total capacity: for each count, split the trace by a
/// consistent-hash ring, replay every subtrace sequentially through the
/// transaction-level arm, and sum the wall-clocks. The single-shard row
/// is the baseline the speedup floor divides against.
#[must_use]
pub fn measure_cluster_rows(
    total_entries: usize,
    ops: u64,
    shard_counts: &[usize],
) -> Vec<ClusterRow> {
    let trace = cluster_trace(ops, 0xC1A5);
    let app_ops = trace.counts().app_ops();
    let per_count: Vec<Vec<Trace>> = shard_counts
        .iter()
        .map(|&shards| {
            let ring = HashRing::new(64, shards);
            split_trace(&trace, shards, |k| ring.shard_of(k))
                .iter()
                .map(compress_gaps)
                .collect()
        })
        .collect();
    // Three interleaved trials with the minimum kept *per subtrace*:
    // every trial times each arm back-to-back so host-wide slowdowns
    // hit the arms equally, and each subtrace window keeps its own
    // across-trial minimum. CPU-time windows (see [`timed_secs`])
    // already exclude cycles stolen by other tenants; the per-window
    // minimum additionally sheds their second-order tax (cache and
    // branch-predictor pollution around context switches), which a
    // burst would have to re-levy on the *same* subtrace in every
    // trial to bias the sum.
    let mut elapsed: Vec<Vec<f64>> = per_count
        .iter()
        .map(|subtraces| vec![f64::INFINITY; subtraces.len()])
        .collect();
    let mut rejections: Vec<u64> = vec![0; shard_counts.len()];
    for _ in 0..3 {
        for (i, (&shards, subtraces)) in shard_counts.iter().zip(&per_count).enumerate() {
            let mut trial_rejections = 0u64;
            for (j, subtrace) in subtraces.iter().enumerate() {
                let mut unit = shard_unit(total_entries / shards);
                let (rejected, secs) = timed_secs(|| race_replay(subtrace, &mut unit));
                elapsed[i][j] = elapsed[i][j].min(secs);
                trial_rejections += rejected;
            }
            // Deterministic replay: identical across trials.
            rejections[i] = trial_rejections;
        }
    }
    shard_counts
        .iter()
        .enumerate()
        .map(|(i, &shards)| ClusterRow {
            shards,
            entries_per_shard: total_entries / shards,
            app_ops,
            elapsed_secs: elapsed[i].iter().sum(),
            update_rejections: rejections[i],
        })
        .collect()
}

/// Drive the cycle-accurate ingest loop over a 4-shard cluster with a
/// live migration opening a third of the way in, and report the
/// protocol's observables, which the `cluster_migration` floors check.
#[must_use]
pub fn measure_migration_invariant(ops: u64) -> MigrationInvariantRow {
    let trace = generate(&WorkloadConfig {
        seed: 0x319,
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
    .expect("migration workload config is valid");
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(256)
        .num_blocks(4)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .write_buffer(WriteBufferConfig {
            capacity: 4096,
            // One staged word per idle tick keeps the migration window
            // open for ~a slot's worth of cycles, so in-window frozen
            // reads actually occur.
            drain_per_tick: 1,
            bypass: false,
        })
        .build()
        .expect("bench geometry is valid");
    // 16 coarse slots: each covers ~6% of the key space, so the moved
    // slot is large enough that searches land in the open window.
    let mut cluster = CamCluster::new(config, 4, 16).expect("constructible");
    let slot = cluster.ring().slot_of(trace.prefill_words()[0]);
    let dest = (cluster.ring().assignment(slot) + 1) % 4;
    let outcome = replay_cluster(
        &trace,
        &mut cluster,
        &IngestConfig {
            queue_capacity: 64,
            migrate: Some(MigrationPlan {
                after_records: trace.records.len() / 3,
                slot,
                dest,
            }),
            faults: None,
        },
    )
    .expect("ingest replay admits the bounded live set");
    assert_eq!(
        cluster.counters().migrations_completed,
        1,
        "the planned migration must reach cutover"
    );
    MigrationInvariantRow {
        issued: outcome.issued,
        completions: outcome.completions,
        dropped: outcome.dropped,
        frozen_answers: outcome.frozen_answers,
        stall_cycles: outcome.migration_stalls.first().copied().unwrap_or(0),
        ticks: outcome.ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_race_replays_identical_work_per_arm() {
        // Debug-sized race: the speedup floor is release-only
        // (cluster_smoke); here both arms must replay the same app-op
        // count with the same admission outcomes.
        let rows = measure_cluster_rows(8192, 2_000, &[1, 4]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].app_ops, rows[1].app_ops);
        assert_eq!(
            rows[0].update_rejections, rows[1].update_rejections,
            "shard split must not change admission outcomes"
        );
        assert!(rows.iter().all(|r| r.elapsed_secs > 0.0));
        assert_eq!(rows[0].entries_per_shard, 8192);
        assert_eq!(rows[1].entries_per_shard, 2048);
    }

    #[test]
    fn migration_window_outlives_a_search_flush() {
        // The copy-engine cursor must hold the window open for at least
        // `moved.len()` cycles even when a read-your-writes search
        // flush applies the whole staged batch physically in one shot
        // (unit.rs `sync_for_keys` drains the full buffer on a touched
        // key) — the regression that collapsed the window to ~1 cycle.
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
            .unwrap();
        let mut cluster = CamCluster::new(config, 4, 16).unwrap();
        let words: Vec<u64> = (0..1000u64).collect();
        cluster.prefill(&words).unwrap();
        cluster.quiesce();
        let slot = cluster.ring().slot_of(0);
        let dest = (cluster.ring().assignment(slot) + 1) % 4;
        cluster.begin_migration(slot, dest).unwrap();
        let staged = cluster.shard(dest).buffer_depth();
        let opened_at = cluster.cycle();
        assert!(staged > 0, "the slot must stage words into the dest");
        // A write to a migrating-slot key lands in the dest buffer;
        // searching it back triggers the full read-your-writes flush.
        let moved_key = words
            .iter()
            .copied()
            .find(|&w| cluster.ring().slot_of(w) == slot)
            .expect("slot holds prefilled words");
        cluster.update(moved_key).unwrap();
        assert!(cluster.search(moved_key).is_match());
        while cluster.migration_in_progress() {
            cluster.tick();
            assert!(
                cluster.cycle() - opened_at < 100_000,
                "migration must reach cutover"
            );
        }
        let window = cluster.cycle() - opened_at;
        assert!(
            window >= staged as u64,
            "flush must not collapse the copy window: {window} cycles for {staged} staged words"
        );
    }

    #[test]
    fn migration_invariant_holds_at_debug_size() {
        // At this size the window serves no frozen read, so the row
        // carries only the zero-dropped-query invariant's metric.
        let row = measure_migration_invariant(1_500);
        let dropped = Row::default().int("dropped", row.dropped);
        artefact::check("cluster_migration", vec![dropped]);
        assert_eq!(row.issued, row.completions);
        assert!(row.ticks > 0);
    }

    /// Release-mode floor regression for the capacity-scaling speedup and
    /// the migration invariant. Run by `scripts/ci.sh` as
    /// `cargo test --release -p dsp-cam-bench cluster_smoke -- --ignored`;
    /// too slow for the default debug test pass, hence ignored.
    #[test]
    #[ignore = "release-mode perf smoke, run explicitly by scripts/ci.sh"]
    fn cluster_smoke() {
        // The acceptance-criterion race: the full 1M-op write-heavy
        // trace, 4 shards against one unit of the same total capacity.
        let rows = measure_cluster_rows(8192, 1_000_000, &[1, 4]);
        assert_eq!(rows[0].update_rejections, rows[1].update_rejections);
        artefact::check("capacity_scaling", capacity_scaling(&rows));
        let migration = measure_migration_invariant(15_000);
        artefact::check("cluster_migration", vec![migration.row()]);
    }
}
