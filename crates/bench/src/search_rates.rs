//! Host-side search-rate measurement for the two execution tiers, and
//! the machine-readable `BENCH_search.json` artefact tracked across PRs.
//!
//! Both `micro_cam_ops` and `table8_unit_perf` call
//! [`measure_search_rates`] + [`write_bench_search_json`] so the Turbo
//! tier's speedup over the bit-accurate DSP simulation is recorded in
//! one canonical place regardless of which bench ran last.

use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use dsp_cam_core::prelude::*;

use crate::cluster::{ClusterRow, MigrationInvariantRow, CLUSTER_SPEEDUP_FLOOR};
use crate::failover::{
    assert_failover_floors, FailoverRow, FAILOVER_AVAILABILITY_FLOOR,
    FAILOVER_RECOVERY_TICKS_CEILING,
};
use crate::update_latency::{
    measure_update_latency_rows, UpdateLatencyRow, UpdateMix, SEARCH_UNDER_WRITES_FLOOR,
    UPDATE_P99_RATIO_CEILING,
};

/// Searches/sec of both tiers at one unit size.
#[derive(Debug, Clone, Copy)]
pub struct SearchRateRow {
    /// Unit capacity in entries.
    pub entries: usize,
    /// Host searches/sec through the `Turbo` bit-sliced tier.
    pub turbo_sps: f64,
    /// Host searches/sec through the `BitAccurate` DSP48E2 tier.
    pub accurate_sps: f64,
}

impl SearchRateRow {
    /// Turbo-tier speedup over the bit-accurate tier.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.turbo_sps / self.accurate_sps
    }
}

/// Floor on [`SearchRateRow::speedup`] — the Turbo tier's reason to
/// exist: at least 50× the bit-accurate DSP simulation.
pub const TURBO_SPEEDUP_FLOOR: f64 = 50.0;

/// The canonical sizes recorded in `BENCH_search.json`.
pub const BENCH_SIZES: [usize; 3] = [512, 2048, 8192];

/// The large-capacity scale-up sizes (64k / 256k / 1M entries) measured
/// on the Turbo `search_stream` path and recorded in `BENCH_search.json`
/// as `large_rows`.
pub const LARGE_BENCH_SIZES: [usize; 3] = [65_536, 262_144, 1_048_576];

/// Release-mode regression floors on
/// [`LargeScaleRow::per_entry`] (stream keys/sec divided by entries) at
/// each large size. A memory-bound plane walk degrades with capacity —
/// gently while the planes fit in cache, sharply once they spill to
/// DRAM (past ~64k entries here) — so per-entry throughput at fixed
/// size is the invariant to hold. Floors sit ~3× under measured release
/// rates (1.56 / 0.074 / 0.0058 on the reference machine) to absorb
/// machine noise.
pub const LARGE_SCALE_PER_ENTRY_FLOORS: [(usize, f64); 3] =
    [(65_536, 0.5), (262_144, 0.02), (1_048_576, 0.0015)];

/// Release-mode floor on the batched-over-scalar Turbo `search_stream`
/// throughput ratio at 8192 entries with the default 32-key batch width
/// — the key-parallel kernel's reason to exist.
pub const BATCH_VS_SCALAR_FLOOR: f64 = 2.0;

fn unit_of(entries: usize, fidelity: FidelityMode) -> CamUnit {
    let block_size = if entries >= 256 { 256 } else { 128 };
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(block_size)
        .num_blocks(entries / block_size)
        .bus_width(512)
        .fidelity(fidelity)
        .build()
        .expect("bench geometry is valid");
    let mut unit = CamUnit::new(config).expect("constructible");
    let words: Vec<u64> = (0..entries as u64).map(|i| i * 3).collect();
    unit.update(&words).expect("fits");
    unit
}

/// Time broadcast searches on `unit` until the sample is stable enough
/// (at least 8 searches and `min_millis` of wall clock, whichever is
/// later).
fn searches_per_sec_for(unit: &mut CamUnit, min_millis: u128) -> f64 {
    // A mix of hits and misses, warmed up before timing starts.
    let keys: [u64; 4] = [3, 7, 300, 1_000_003];
    for &k in &keys {
        black_box(unit.search(black_box(k)));
    }
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        for &k in &keys {
            black_box(unit.search(black_box(k)));
        }
        iters += keys.len() as u64;
        let elapsed = start.elapsed();
        if (iters >= 8 && elapsed.as_millis() >= min_millis) || iters >= 4_000_000 {
            return iters as f64 / elapsed.as_secs_f64();
        }
    }
}

/// [`searches_per_sec_for`] at the canonical ~120 ms sample length.
fn searches_per_sec(unit: &mut CamUnit) -> f64 {
    searches_per_sec_for(unit, 120)
}

/// One [`SearchRateRow`] at `entries`, sampled for `min_millis` per tier
/// with the best of `rounds` kept — the short-sample variant behind the
/// tier-floor smoke test, where wall-clock budget beats precision.
#[must_use]
pub fn measure_search_rate_quick(entries: usize, min_millis: u128, rounds: usize) -> SearchRateRow {
    let best = |fidelity| {
        let mut unit = unit_of(entries, fidelity);
        (0..rounds.max(1))
            .map(|_| searches_per_sec_for(&mut unit, min_millis))
            .fold(0.0f64, f64::max)
    };
    SearchRateRow {
        entries,
        turbo_sps: best(FidelityMode::Turbo),
        accurate_sps: best(FidelityMode::BitAccurate),
    }
}

/// Batched `search_stream` throughput in keys/sec on `unit`.
fn stream_keys_per_sec(unit: &mut CamUnit, keys: &[u64], min_millis: u128) -> f64 {
    black_box(unit.search_stream(black_box(keys)));
    let mut streamed = 0u64;
    let start = Instant::now();
    loop {
        black_box(unit.search_stream(black_box(keys)));
        streamed += keys.len() as u64;
        if start.elapsed().as_millis() >= min_millis {
            return streamed as f64 / start.elapsed().as_secs_f64();
        }
    }
}

/// The signed median, over `rounds` paired samples, of the percentage
/// `search_stream` throughput `candidate` loses against `baseline` on
/// `keys`. Each round samples both sides back to back for `min_millis`
/// each, alternating which goes first, so clock drift and cache noise
/// hit both sides of a pair alike; the median of the per-round losses
/// then discards the rounds a scheduler spike skewed. A negative result
/// is reported as measured: the difference is inside the noise.
fn median_paired_loss_pct(
    baseline: &mut CamUnit,
    candidate: &mut CamUnit,
    keys: &[u64],
    rounds: usize,
    min_millis: u128,
) -> f64 {
    let mut losses: Vec<f64> = (0..rounds.max(1))
        .map(|round| {
            let (base, cand) = if round.is_multiple_of(2) {
                let base = stream_keys_per_sec(baseline, keys, min_millis);
                (base, stream_keys_per_sec(candidate, keys, min_millis))
            } else {
                let cand = stream_keys_per_sec(candidate, keys, min_millis);
                (stream_keys_per_sec(baseline, keys, min_millis), cand)
            };
            (base - cand) / base * 100.0
        })
        .collect();
    losses.sort_by(f64::total_cmp);
    let mid = losses.len() / 2;
    if losses.len().is_multiple_of(2) {
        (losses[mid - 1] + losses[mid]) / 2.0
    } else {
        losses[mid]
    }
}

/// Measure the tracer's overhead on Turbo `search_stream` batches at
/// `entries`: the signed median percentage throughput loss of an
/// observed unit (tracing every event into a bounded ring) versus an
/// unobserved one, over five interleaved 100ms rounds (see
/// `median_paired_loss_pct`).
#[cfg(feature = "obs")]
#[must_use]
pub fn measure_turbo_trace_overhead_pct(entries: usize) -> f64 {
    use std::sync::Arc;

    let keys: Vec<u64> = (0..1024u64).map(|i| i * 7 % (entries as u64 * 3)).collect();
    let mut plain = unit_of(entries, FidelityMode::Turbo);
    let sink = Arc::new(dsp_cam_obs::ObsSink::with_trace_capacity(16_384));
    let mut observed = unit_of(entries, FidelityMode::Turbo);
    observed.attach_observer(&sink);
    median_paired_loss_pct(&mut plain, &mut observed, &keys, 5, 100)
}

/// Measure the scrubber's overhead on Turbo `search_stream` batches at
/// `entries`: the signed median percentage throughput loss of a unit
/// running the default [`ScrubPolicy`] (background walker + sampled
/// oracle cross-check) versus an identical unit with scrubbing disabled.
///
/// More, shorter rounds than [`measure_turbo_trace_overhead_pct`]: the
/// scrub tax is small (single-digit percent), so twelve interleaved
/// 60ms pairs give the median enough rounds to outvote scheduler
/// contention spikes that can depress one side for 100ms at a time.
#[must_use]
pub fn measure_scrub_overhead_pct(entries: usize) -> f64 {
    let keys: Vec<u64> = (0..1024u64).map(|i| i * 7 % (entries as u64 * 3)).collect();
    let mut plain = unit_of(entries, FidelityMode::Turbo);
    let block_size = if entries >= 256 { 256 } else { 128 };
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(block_size)
        .num_blocks(entries / block_size)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .scrub(ScrubPolicy::default())
        .build()
        .expect("bench geometry is valid");
    let mut scrubbed = CamUnit::new(config).expect("constructible");
    let words: Vec<u64> = (0..entries as u64).map(|i| i * 3).collect();
    scrubbed.update(&words).expect("fits");
    median_paired_loss_pct(&mut plain, &mut scrubbed, &keys, 12, 60)
}

/// Turbo `search_stream` throughput at one large capacity.
#[derive(Debug, Clone, Copy)]
pub struct LargeScaleRow {
    /// Unit capacity in entries.
    pub entries: usize,
    /// Host keys/sec through Turbo `search_stream` (default batch width).
    pub stream_kps: f64,
}

impl LargeScaleRow {
    /// Stream keys/sec per stored entry — the scale-invariant a
    /// memory-bound plane walk must hold as capacity grows.
    #[must_use]
    pub fn per_entry(&self) -> f64 {
        self.stream_kps / self.entries as f64
    }
}

/// Batched versus scalar-width Turbo stream throughput at one size.
#[derive(Debug, Clone, Copy)]
pub struct BatchVsScalarRow {
    /// Unit capacity in entries.
    pub entries: usize,
    /// Keys per kernel pass on the batched side.
    pub batch_width: usize,
    /// Keys/sec with the key-parallel kernel at `batch_width`.
    pub batched_kps: f64,
    /// Keys/sec with the kernel degenerated to one key per pass.
    pub scalar_kps: f64,
}

impl BatchVsScalarRow {
    /// Batched throughput over scalar-width throughput.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.batched_kps / self.scalar_kps
    }
}

/// A single-group Turbo unit of `entries` cells at `batch_width` keys
/// per kernel pass, filled with the canonical `i * 3` fixture.
fn turbo_stream_unit(entries: usize, batch_width: usize) -> CamUnit {
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(256)
        .num_blocks(entries / 256)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .batch_width(batch_width)
        .build()
        .expect("bench geometry is valid");
    let mut unit = CamUnit::new(config).expect("constructible");
    let words: Vec<u64> = (0..entries as u64).map(|i| i * 3).collect();
    unit.update(&words).expect("fits");
    unit
}

/// The deterministic mixed hit/miss key stream used by the large-scale
/// and batch-vs-scalar measurements (hits wherever `i * 7` lands on a
/// stored multiple of three).
fn stream_keys(entries: usize) -> Vec<u64> {
    (0..1024u64).map(|i| i * 7 % (entries as u64 * 3)).collect()
}

/// Turbo `search_stream` throughput at each of `sizes` entries, sampled
/// for `min_millis` with the best of `rounds` kept per size.
#[must_use]
pub fn measure_large_scale(sizes: &[usize], min_millis: u128, rounds: usize) -> Vec<LargeScaleRow> {
    sizes
        .iter()
        .map(|&entries| {
            let mut unit = turbo_stream_unit(entries, 32);
            let keys = stream_keys(entries);
            let stream_kps = (0..rounds.max(1))
                .map(|_| stream_keys_per_sec(&mut unit, &keys, min_millis))
                .fold(0.0f64, f64::max);
            LargeScaleRow {
                entries,
                stream_kps,
            }
        })
        .collect()
}

/// Race the key-parallel kernel (`batch_width` keys per plane pass)
/// against the same unit degenerated to one key per pass, on Turbo
/// `search_stream` at `entries`. Rounds are interleaved so clock drift
/// and cache noise hit both sides equally.
#[must_use]
pub fn measure_batch_vs_scalar(
    entries: usize,
    batch_width: usize,
    min_millis: u128,
    rounds: usize,
) -> BatchVsScalarRow {
    let keys = stream_keys(entries);
    let mut batched = turbo_stream_unit(entries, batch_width);
    let mut scalar = turbo_stream_unit(entries, 1);
    let mut batched_kps = 0.0f64;
    let mut scalar_kps = 0.0f64;
    for _ in 0..rounds.max(1) {
        batched_kps = batched_kps.max(stream_keys_per_sec(&mut batched, &keys, min_millis));
        scalar_kps = scalar_kps.max(stream_keys_per_sec(&mut scalar, &keys, min_millis));
    }
    BatchVsScalarRow {
        entries,
        batch_width,
        batched_kps,
        scalar_kps,
    }
}

/// Measure both tiers at each of `sizes` entries.
#[must_use]
pub fn measure_search_rates(sizes: &[usize]) -> Vec<SearchRateRow> {
    sizes
        .iter()
        .map(|&entries| {
            let accurate_sps = searches_per_sec(&mut unit_of(entries, FidelityMode::BitAccurate));
            let turbo_sps = searches_per_sec(&mut unit_of(entries, FidelityMode::Turbo));
            SearchRateRow {
                entries,
                turbo_sps,
                accurate_sps,
            }
        })
        .collect()
}

/// The optional `BENCH_search.json` sections beyond the canonical
/// tier-rate rows — each measurement records whichever it produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchSections<'a> {
    /// Tracer overhead on Turbo `search_stream` at 8192 entries (obs
    /// builds only).
    pub trace_overhead_pct: Option<f64>,
    /// Default-policy scrub overhead on Turbo `search_stream`.
    pub scrub_overhead_pct: Option<f64>,
    /// Large-capacity (64k/256k/1M) Turbo stream scale-up.
    pub large: Option<&'a [LargeScaleRow]>,
    /// Key-parallel kernel versus its one-key degenerate.
    pub batch: Option<&'a BatchVsScalarRow>,
    /// Update-queue mixed-stream rows (buffered versus inline).
    pub update_queue: Option<&'a [UpdateLatencyRow]>,
    /// Sharding-cluster sequential-sum throughput race.
    pub cluster: Option<&'a [ClusterRow]>,
    /// Live-migration zero-dropped-query observables.
    pub cluster_migration: Option<&'a MigrationInvariantRow>,
    /// Cluster failover drills (crash rebuild, stall recovery).
    pub failover: Option<&'a [FailoverRow]>,
}

/// Serialise `rows` plus whichever optional `sections` were measured to
/// `BENCH_search.json` at the repository root, recording which bench
/// produced them. Returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_search_json(
    source: &str,
    rows: &[SearchRateRow],
    sections: &BenchSections<'_>,
) -> io::Result<PathBuf> {
    let BenchSections {
        trace_overhead_pct,
        scrub_overhead_pct,
        large,
        batch,
        update_queue,
        cluster,
        cluster_migration,
        failover,
    } = *sections;
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_search.json"
    ));
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"source\": \"{source}\",\n"));
    body.push_str(
        "  \"metric\": \"host searches/sec, Turbo (bit-sliced) vs BitAccurate (DSP48E2 \
         simulation)\",\n",
    );
    if let Some(pct) = trace_overhead_pct {
        body.push_str(&format!("  \"turbo_trace_overhead_pct\": {pct:.2},\n"));
    }
    if let Some(pct) = scrub_overhead_pct {
        body.push_str(&format!("  \"scrub_overhead_pct\": {pct:.2},\n"));
    }
    if let Some(row) = batch {
        body.push_str(&format!(
            "  \"batch_kernel_vs_scalar\": {{\"entries\": {}, \"batch_width\": {}, \
             \"batched_keys_per_sec\": {:.1}, \"scalar_keys_per_sec\": {:.1}, \
             \"batched_over_scalar\": {:.2}}},\n",
            row.entries,
            row.batch_width,
            row.batched_kps,
            row.scalar_kps,
            row.ratio(),
        ));
    }
    if let Some(uq_rows) = update_queue {
        body.push_str("  \"update_queue_rows\": [\n");
        for (i, row) in uq_rows.iter().enumerate() {
            body.push_str(&format!(
                "    {{\"entries\": {}, \"mix\": \"{}\", \
                 \"buffered_update_p50_ns\": {:.0}, \"buffered_update_p99_ns\": {:.0}, \
                 \"inline_update_p50_ns\": {:.0}, \"inline_update_p99_ns\": {:.0}, \
                 \"update_p99_buffered_over_inline\": {:.3}, \
                 \"buffered_search_keys_per_sec\": {:.1}, \
                 \"inline_search_keys_per_sec\": {:.1}, \
                 \"search_buffered_over_inline\": {:.2}, \
                 \"buffered_drained_ops\": {}}}{}\n",
                row.entries,
                row.mix.label(),
                row.buffered_update_p50_ns,
                row.buffered_update_p99_ns,
                row.inline_update_p50_ns,
                row.inline_update_p99_ns,
                row.p99_ratio(),
                row.buffered_search_kps,
                row.inline_search_kps,
                row.search_ratio(),
                row.buffered_drained_ops,
                if i + 1 == uq_rows.len() { "" } else { "," },
            ));
        }
        body.push_str("  ],\n");
    }
    if let Some(cluster_rows) = cluster {
        let baseline_sps = cluster_rows
            .iter()
            .find(|r| r.shards == 1)
            .map(ClusterRow::ops_per_sec);
        body.push_str("  \"cluster_rows\": [\n");
        for (i, row) in cluster_rows.iter().enumerate() {
            let speedup = baseline_sps.map_or(1.0, |base| row.ops_per_sec() / base);
            body.push_str(&format!(
                "    {{\"shards\": {}, \"entries_per_shard\": {}, \"app_ops\": {}, \
                 \"sequential_sum_ops_per_sec\": {:.1}, \"speedup_over_single\": {:.2}, \
                 \"floor_speedup_over_single\": {}}}{}\n",
                row.shards,
                row.entries_per_shard,
                row.app_ops,
                row.ops_per_sec(),
                speedup,
                if row.shards == 1 {
                    "null".to_string()
                } else {
                    format!("{CLUSTER_SPEEDUP_FLOOR:.1}")
                },
                if i + 1 == cluster_rows.len() { "" } else { "," },
            ));
        }
        body.push_str("  ],\n");
    }
    if let Some(m) = cluster_migration {
        body.push_str(&format!(
            "  \"cluster_migration\": {{\"issued\": {}, \"completions\": {}, \
             \"dropped\": {}, \"frozen_answers\": {}, \"stall_cycles\": {}, \
             \"ticks\": {}, \"invariant\": \"dropped == 0\"}},\n",
            m.issued, m.completions, m.dropped, m.frozen_answers, m.stall_cycles, m.ticks,
        ));
    }
    if let Some(failover_rows) = failover {
        body.push_str("  \"failover_rows\": [\n");
        for (i, row) in failover_rows.iter().enumerate() {
            body.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"shards\": {}, \"app_ops\": {}, \
                 \"presented\": {}, \"availability\": {:.4}, \"degraded_answers\": {}, \
                 \"shed_writes\": {}, \"write_retries\": {}, \"infra_retries\": {}, \
                 \"failures_detected\": {}, \"rebuilds_completed\": {}, \
                 \"max_recovery_ticks\": {}, \"dropped\": {}, \"ticks\": {}, \
                 \"floor_availability\": {FAILOVER_AVAILABILITY_FLOOR}, \
                 \"ceiling_recovery_ticks\": {FAILOVER_RECOVERY_TICKS_CEILING}}}{}\n",
                row.scenario,
                row.shards,
                row.app_ops,
                row.presented,
                row.availability,
                row.degraded_answers,
                row.shed_writes,
                row.write_retries,
                row.infra_retries,
                row.failures_detected,
                row.rebuilds_completed,
                row.max_recovery_ticks,
                row.dropped,
                row.ticks,
                if i + 1 == failover_rows.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        body.push_str("  ],\n");
    }
    if let Some(large_rows) = large {
        body.push_str("  \"large_rows\": [\n");
        for (i, row) in large_rows.iter().enumerate() {
            body.push_str(&format!(
                "    {{\"entries\": {}, \"turbo_stream_keys_per_sec\": {:.1}, \
                 \"searches_per_sec_per_entry\": {:.4}}}{}\n",
                row.entries,
                row.stream_kps,
                row.per_entry(),
                if i + 1 == large_rows.len() { "" } else { "," },
            ));
        }
        body.push_str("  ],\n");
    }
    body.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"entries\": {}, \"turbo_searches_per_sec\": {:.1}, \
             \"bit_accurate_searches_per_sec\": {:.1}, \
             \"turbo_speedup_over_bit_accurate\": {:.2}, \
             \"floor_turbo_speedup\": {TURBO_SPEEDUP_FLOOR:.1}}}{}\n",
            row.entries,
            row.turbo_sps,
            row.accurate_sps,
            row.speedup(),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Measure, write the artefact, print a summary, and enforce the
/// Turbo speedup floor at 8192 entries. The default-policy scrubber's
/// overhead on
/// Turbo `search_stream` at 8192 entries is measured, recorded in the
/// artefact, and bounded at 5%. With the `obs` feature on, the tracer
/// overhead on Turbo `search_stream` at 8192 entries is measured too,
/// recorded in the artefact, and bounded at 3%.
///
/// The key-parallel kernel is raced against its one-key degenerate at
/// 8192 entries (floored at [`BATCH_VS_SCALAR_FLOOR`]) and Turbo
/// `search_stream` is measured across [`LARGE_BENCH_SIZES`] (floored
/// per entry by [`LARGE_SCALE_PER_ENTRY_FLOORS`]); both are recorded in
/// the artefact. The CAM-fronted update queue is measured buffered
/// versus inline on the 90:9:1 and 50:45:5 mixed streams at 8192 and
/// 64k entries, recorded as `update_queue_rows`, and floored at
/// [`UPDATE_P99_RATIO_CEILING`] / [`SEARCH_UNDER_WRITES_FLOOR`] on the
/// write-heavy 8192-entry row. The cluster failover drills (crash
/// rebuild, stall recovery) replay at 15k ops, are recorded as
/// `failover_rows`, and are floored by [`assert_failover_floors`].
///
/// # Panics
///
/// Panics if the Turbo tier is below [`TURBO_SPEEDUP_FLOOR`] × the
/// bit-accurate tier at 8192 entries — its reason to exist — or if
/// default-policy scrubbing costs > 5%
/// of Turbo stream throughput, or (with `obs`) if tracing costs ≥ 3%
/// of Turbo stream throughput, or if the batch kernel, large-scale or
/// update-queue floors regress, or if the 4-shard cluster race falls
/// under [`CLUSTER_SPEEDUP_FLOOR`], or if the live-migration replay
/// drops a query, or if a failover drill breaks its availability floor
/// or recovery-tick ceiling (see [`assert_failover_floors`]).
pub fn emit_bench_search_json(source: &str) {
    let rows = measure_search_rates(&BENCH_SIZES);
    println!();
    println!("Search-tier rates (host):");
    for row in &rows {
        println!(
            "  {:>5} entries: turbo {:>12.0} searches/s, bit-accurate {:>10.0} searches/s \
             (turbo {:>6.1}x)",
            row.entries,
            row.turbo_sps,
            row.accurate_sps,
            row.speedup(),
        );
    }
    #[cfg(feature = "obs")]
    let trace_overhead = {
        let pct = measure_turbo_trace_overhead_pct(8192);
        println!("  tracer overhead on turbo search_stream at 8192 entries: {pct:.2}%");
        Some(pct)
    };
    #[cfg(not(feature = "obs"))]
    let trace_overhead = None;
    let scrub_overhead = measure_scrub_overhead_pct(8192);
    println!(
        "  scrub overhead on turbo search_stream at 8192 entries \
         (default ScrubPolicy): {scrub_overhead:.2}%"
    );
    let batch = measure_batch_vs_scalar(8192, 32, 100, 5);
    println!(
        "  batch kernel (W=32) vs scalar-width on turbo search_stream at 8192 entries: \
         batched {:>12.0} keys/s, scalar {:>12.0} keys/s ({:.2}x)",
        batch.batched_kps,
        batch.scalar_kps,
        batch.ratio(),
    );
    let large = measure_large_scale(&LARGE_BENCH_SIZES, 150, 3);
    println!("Large-capacity turbo search_stream:");
    for row in &large {
        println!(
            "  {:>8} entries: {:>12.0} keys/s ({:.4} keys/s per entry)",
            row.entries,
            row.stream_kps,
            row.per_entry(),
        );
    }
    let update_queue = measure_update_latency_rows(&[8192, 65_536], 120, 8);
    println!("Update queue (buffered vs inline, mixed search:update:delete):");
    for row in &update_queue {
        println!(
            "  {:>6} entries @ {:>7}: update p99 {:>8.0} ns buffered vs {:>8.0} ns inline \
             ({:.3}x), search {:>11.0} keys/s vs {:>11.0} keys/s ({:.2}x), \
             {} ops drained off-window",
            row.entries,
            row.mix.label(),
            row.buffered_update_p99_ns,
            row.inline_update_p99_ns,
            row.p99_ratio(),
            row.buffered_search_kps,
            row.inline_search_kps,
            row.search_ratio(),
            row.buffered_drained_ops,
        );
    }
    // The acceptance-criterion race runs the full 1M-op trace: long
    // timing windows keep the ratio out of scheduler-noise territory.
    let cluster_rows = crate::cluster::measure_cluster_rows(8192, 1_000_000, &[1, 4]);
    println!("Sharding cluster (write-heavy 50:45:5, sequential-sum CPU time):");
    for row in &cluster_rows {
        println!(
            "  {} shard(s) x {:>4} entries: {:>10.0} ops/s",
            row.shards,
            row.entries_per_shard,
            row.ops_per_sec(),
        );
    }
    let migration = crate::cluster::measure_migration_invariant(15_000);
    println!(
        "  live migration: {} issued, {} completed, {} dropped, {} frozen reads, \
         {} stall cycles",
        migration.issued,
        migration.completions,
        migration.dropped,
        migration.frozen_answers,
        migration.stall_cycles,
    );
    let failover_rows = crate::failover::measure_failover_rows(15_000);
    println!("Cluster failover drills (write-heavy 50:45:5, deterministic lockstep):");
    for row in &failover_rows {
        println!(
            "  {:>14}: availability {:.4}, {} degraded answers, recovery {} ticks, \
             {} retries, {} shed, {} dropped",
            row.scenario,
            row.availability,
            row.degraded_answers,
            row.max_recovery_ticks,
            row.write_retries,
            row.shed_writes,
            row.dropped,
        );
    }
    match write_bench_search_json(
        source,
        &rows,
        &BenchSections {
            trace_overhead_pct: trace_overhead,
            scrub_overhead_pct: Some(scrub_overhead),
            large: Some(&large),
            batch: Some(&batch),
            update_queue: Some(&update_queue),
            cluster: Some(&cluster_rows),
            cluster_migration: Some(&migration),
            failover: Some(&failover_rows),
        },
    ) {
        Ok(path) => println!("(json: {})", path.display()),
        Err(err) => println!("(failed to write BENCH_search.json: {err})"),
    }
    for row in &failover_rows {
        assert_failover_floors(row);
    }
    let cluster_speedup = cluster_rows[1].ops_per_sec() / cluster_rows[0].ops_per_sec();
    assert!(
        cluster_speedup >= CLUSTER_SPEEDUP_FLOOR,
        "4-shard sequential-sum throughput must be >= {CLUSTER_SPEEDUP_FLOOR}x the \
         single-unit baseline at 8192 total entries, got {cluster_speedup:.2}x"
    );
    assert_eq!(
        migration.dropped, 0,
        "live migration must not drop a query (issued {}, completed {})",
        migration.issued, migration.completions
    );
    assert!(
        batch.ratio() >= BATCH_VS_SCALAR_FLOOR,
        "key-parallel kernel must be >= {BATCH_VS_SCALAR_FLOOR}x its one-key degenerate \
         at 8192 entries / W=32, got {:.2}x",
        batch.ratio()
    );
    for row in &large {
        let (_, floor) = LARGE_SCALE_PER_ENTRY_FLOORS
            .iter()
            .find(|(entries, _)| *entries == row.entries)
            .expect("every large size has a floor");
        assert!(
            row.per_entry() >= *floor,
            "turbo stream throughput per entry at {} entries must be >= {floor}, got {:.4}",
            row.entries,
            row.per_entry()
        );
    }
    let write_heavy_8k = update_queue
        .iter()
        .find(|r| r.entries == 8192 && r.mix.deletes == UpdateMix::WRITE_HEAVY.deletes)
        .expect("8192 / 50:45:5 is a canonical update-queue row");
    assert!(
        write_heavy_8k.p99_ratio() <= UPDATE_P99_RATIO_CEILING,
        "buffered update p99 must be <= {UPDATE_P99_RATIO_CEILING}x inline under 50:45:5 \
         at 8192 entries, got {:.3}x",
        write_heavy_8k.p99_ratio()
    );
    assert!(
        write_heavy_8k.search_ratio() >= SEARCH_UNDER_WRITES_FLOOR,
        "buffered search throughput must be >= {SEARCH_UNDER_WRITES_FLOOR}x inline under \
         50:45:5 at 8192 entries, got {:.2}x",
        write_heavy_8k.search_ratio()
    );
    assert!(
        scrub_overhead <= 5.0,
        "default-policy scrubbing must cost <= 5% of turbo search_stream \
         throughput at 8192 entries, got {scrub_overhead:.2}%"
    );
    if let Some(pct) = trace_overhead {
        assert!(
            pct < 3.0,
            "tracer overhead must stay under 3% on turbo search_stream, got {pct:.2}%"
        );
    }
    let at_8k = rows
        .iter()
        .find(|r| r.entries == 8192)
        .expect("8192 is a canonical size");
    assert!(
        at_8k.speedup() >= TURBO_SPEEDUP_FLOOR,
        "turbo tier must be >= {TURBO_SPEEDUP_FLOOR}x bit-accurate at 8192 entries, \
         got {:.1}x",
        at_8k.speedup()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_tiers_agree_on_results_in_the_bench_geometry() {
        let mut accurate = unit_of(512, FidelityMode::BitAccurate);
        let mut turbo = unit_of(512, FidelityMode::Turbo);
        for key in [0u64, 3, 5, 1533, 1_000_003] {
            assert_eq!(accurate.search(key), turbo.search(key), "turbo, key {key}");
        }
    }

    /// Tier-1 floor regression: the reason the Turbo tier exists —
    /// ≥ [`TURBO_SPEEDUP_FLOOR`]× bit-accurate — holds even on a quick
    /// short-sample measurement at a reduced entry count. (The canonical
    /// long-sample measurement at 8192 entries lives in
    /// `emit_bench_search_json`; this is its always-on smoke test.)
    #[test]
    fn turbo_speedup_floor_holds_at_reduced_size() {
        let row = measure_search_rate_quick(2048, 40, 3);
        assert!(
            row.speedup() >= TURBO_SPEEDUP_FLOOR,
            "turbo tier must be >= {TURBO_SPEEDUP_FLOOR}x bit-accurate at 2048 entries, \
             got {:.1}x",
            row.speedup()
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn tracer_overhead_is_bounded_at_reduced_size() {
        // Quick-sample variant of the canonical 8192-entry measurement:
        // the <3% bound is only enforced by the release-mode bench, but
        // tracing must never be catastrophically slow even in debug.
        let pct = measure_turbo_trace_overhead_pct(512);
        assert!(
            pct < 15.0,
            "tracer overhead exploded on turbo search_stream: {pct:.2}%"
        );
    }

    #[test]
    fn scrub_overhead_is_bounded_at_reduced_size() {
        // Quick-sample variant of the canonical 8192-entry measurement:
        // the <= 5% bound is only enforced by the release-mode bench,
        // but default-policy scrubbing must never be catastrophically
        // slow even in debug.
        let pct = measure_scrub_overhead_pct(512);
        assert!(
            pct < 20.0,
            "scrub overhead exploded on turbo search_stream: {pct:.2}%"
        );
    }

    #[test]
    fn json_rows_roundtrip_shape() {
        let rows = [SearchRateRow {
            entries: 512,
            turbo_sps: 2.0e7,
            accurate_sps: 1.0e5,
        }];
        assert!((rows[0].speedup() - 200.0).abs() < 1e-9);
        let large = LargeScaleRow {
            entries: 65_536,
            stream_kps: 655_360.0,
        };
        assert!((large.per_entry() - 10.0).abs() < 1e-9);
        let batch = BatchVsScalarRow {
            entries: 8192,
            batch_width: 32,
            batched_kps: 3.0e6,
            scalar_kps: 1.0e6,
        };
        assert!((batch.ratio() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn batched_and_scalar_width_streams_agree() {
        // The perf race is release-only; in any build the two kernel
        // widths must return identical stream results.
        let keys = stream_keys(512);
        let mut batched = turbo_stream_unit(512, 32);
        let mut scalar = turbo_stream_unit(512, 1);
        assert_eq!(
            batched.search_stream(&keys[..128]),
            scalar.search_stream(&keys[..128]),
            "batch width must not change stream results"
        );
    }

    /// Release-mode floor regression for the key-parallel kernel and the
    /// large-capacity scale-up, on the fixed-seed key stream. Run by
    /// `scripts/ci.sh` as
    /// `cargo test --release -p dsp-cam-bench -- --ignored`; too slow
    /// (and too noisy) for the default debug test pass, hence ignored.
    #[test]
    #[ignore = "release-mode perf smoke, run explicitly by scripts/ci.sh"]
    fn large_capacity_smoke() {
        let batch = measure_batch_vs_scalar(8192, 32, 60, 3);
        assert!(
            batch.ratio() >= BATCH_VS_SCALAR_FLOOR,
            "key-parallel kernel must be >= {BATCH_VS_SCALAR_FLOOR}x scalar width \
             at 8192 entries / W=32, got {:.2}x",
            batch.ratio()
        );
        let entries = 65_536;
        let rows = measure_large_scale(&[entries], 60, 3);
        let (_, floor) = LARGE_SCALE_PER_ENTRY_FLOORS
            .iter()
            .find(|(e, _)| *e == entries)
            .expect("64k has a floor");
        assert!(
            rows[0].per_entry() >= *floor,
            "turbo stream throughput per entry at {entries} entries must be >= {floor}, \
             got {:.4}",
            rows[0].per_entry()
        );
    }
}
