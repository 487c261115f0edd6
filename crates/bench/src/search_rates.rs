//! Host-side search-rate measurement for the two execution tiers, and
//! the machine-readable `BENCH_search.json` artefact tracked across PRs.
//!
//! Both `micro_cam_ops` and `table8_unit_perf` call
//! [`emit_bench_search_json`] so the Turbo tier's speedup over the
//! bit-accurate DSP simulation is recorded in one canonical place
//! regardless of which bench ran last.

use std::hint::black_box;
use std::time::Instant;

use dsp_cam_core::prelude::*;

use crate::artefact::Section::{Field, Object, Rows};
use crate::artefact::{self, Row, Value::Float};
use crate::cluster::{capacity_scaling, measure_cluster_rows, measure_migration_invariant};
use crate::failover::{measure_failover_rows, FailoverRow};
use crate::update_latency::{measure_update_latency_rows, UpdateLatencyRow};

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
    /// The `rows` entry.
    pub(crate) fn row(&self) -> Row {
        let speedup = self.turbo_sps / self.accurate_sps;
        Row::default()
            .int("entries", self.entries as u64)
            .float("turbo_searches_per_sec", self.turbo_sps, 1)
            .float("bit_accurate_searches_per_sec", self.accurate_sps, 1)
            .float("turbo_speedup_over_bit_accurate", speedup, 2)
    }
}

/// The canonical sizes recorded in `BENCH_search.json`.
pub const BENCH_SIZES: [usize; 3] = [512, 2048, 8192];

/// The large-capacity scale-up sizes (8k / 64k / 256k / 1M entries)
/// measured on the Turbo `search_stream` and point `search` paths and
/// recorded in `BENCH_search.json` as `large_rows`.
pub const LARGE_BENCH_SIZES: [usize; 4] = [8192, 65_536, 262_144, 1_048_576];

/// The cell of every two-arm plane-walk measurement (the batch kernel
/// race, the scrub and tracer overheads, and `capacity_scaling`):
/// `ternary(32, 0)` cares about every bit exactly like `binary(32)`, so
/// it walks the identical planes, but carries no exact-match index,
/// which lets a binary Turbo unit skip every block not holding a key.
pub(crate) fn plane_walk_cell() -> CellConfig {
    CellConfig::ternary(32, 0)
}

/// A unit of `entries` `cell`s on the canonical bench geometry (256-cell
/// blocks, 128 below 256 entries; 512-bit bus), filled with the `i * 3`
/// fixture.
fn filled_unit(
    cell: CellConfig,
    entries: usize,
    fidelity: FidelityMode,
    scrub: Option<ScrubPolicy>,
) -> CamUnit {
    let block_size = if entries >= 256 { 256 } else { 128 };
    let mut builder = UnitConfig::builder()
        .kind(cell.kind)
        .data_width(cell.data_width)
        .ternary_mask(cell.ternary_mask)
        .block_size(block_size)
        .num_blocks(entries / block_size)
        .bus_width(512)
        .fidelity(fidelity);
    if let Some(policy) = scrub {
        builder = builder.scrub(policy);
    }
    let mut unit =
        CamUnit::new(builder.build().expect("bench geometry is valid")).expect("constructible");
    let words: Vec<u64> = (0..entries as u64).map(|i| i * 3).collect();
    unit.update(&words).expect("fits");
    unit
}

/// A binary unit of `entries` cells at `fidelity` (see [`filled_unit`]).
fn unit_of(entries: usize, fidelity: FidelityMode) -> CamUnit {
    filled_unit(CellConfig::binary(32), entries, fidelity, None)
}

/// A Turbo [`plane_walk_cell`] unit of `entries` cells (see
/// [`filled_unit`]).
fn plane_walk_unit(entries: usize, scrub: Option<ScrubPolicy>) -> CamUnit {
    filled_unit(plane_walk_cell(), entries, FidelityMode::Turbo, scrub)
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
/// `entries`, on a `ternary(32, 0)` plane walk (`plane_walk_cell`):
/// the signed median percentage throughput loss of an observed unit
/// (tracing every event into a bounded ring) versus an unobserved one,
/// over twelve interleaved 60ms rounds (see `median_paired_loss_pct`)
/// — the rounds [`measure_scrub_overhead_pct`] takes, for the same
/// reason.
#[cfg(feature = "obs")]
#[must_use]
pub fn measure_turbo_trace_overhead_pct(entries: usize) -> f64 {
    use std::sync::Arc;

    let mut plain = plane_walk_unit(entries, None);
    let sink = Arc::new(dsp_cam_obs::ObsSink::with_trace_capacity(16_384));
    let mut observed = plane_walk_unit(entries, None);
    observed.attach_observer(&sink);
    median_paired_loss_pct(&mut plain, &mut observed, &stream_keys(entries), 12, 60)
}

/// Measure the scrubber's overhead on Turbo `search_stream` batches at
/// `entries`, on a `ternary(32, 0)` plane walk (`plane_walk_cell`):
/// the signed median percentage throughput loss of a unit running the
/// default [`ScrubPolicy`] (background walker + sampled oracle
/// cross-check) versus an identical unit with scrubbing disabled.
///
/// The tax is small (single-digit percent), so twelve interleaved 60ms
/// pairs give the median enough rounds to outvote scheduler contention
/// spikes that can depress one side for 100ms at a time.
#[must_use]
pub fn measure_scrub_overhead_pct(entries: usize) -> f64 {
    let mut plain = plane_walk_unit(entries, None);
    let mut scrubbed = plane_walk_unit(entries, Some(ScrubPolicy::default()));
    median_paired_loss_pct(&mut plain, &mut scrubbed, &stream_keys(entries), 12, 60)
}

/// Turbo `search_stream` and point `search` throughput at one large
/// capacity.
#[derive(Debug, Clone, Copy)]
pub struct LargeScaleRow {
    /// Unit capacity in entries.
    pub entries: usize,
    /// Host keys/sec through Turbo `search_stream` (default batch width).
    pub stream_kps: f64,
    /// Host one-key Turbo `search` calls/sec.
    pub point_sps: f64,
}

impl LargeScaleRow {
    /// The `large_rows` entry.
    pub(crate) fn row(&self) -> Row {
        let per_entry = self.stream_kps / self.entries as f64;
        Row::default()
            .int("entries", self.entries as u64)
            .float("turbo_stream_keys_per_sec", self.stream_kps, 1)
            .float("searches_per_sec_per_entry", per_entry, 4)
            .float("point_searches_per_sec", self.point_sps, 1)
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
    /// The `batch_kernel_vs_scalar` object.
    pub(crate) fn row(&self) -> Row {
        Row::default()
            .int("entries", self.entries as u64)
            .int("batch_width", self.batch_width as u64)
            .float("batched_keys_per_sec", self.batched_kps, 1)
            .float("scalar_keys_per_sec", self.scalar_kps, 1)
            .float("batched_over_scalar", self.batched_kps / self.scalar_kps, 2)
    }
}

/// A single-group Turbo unit of `entries` `cell`s at `batch_width` keys
/// per kernel pass, filled with the canonical `i * 3` fixture.
fn turbo_stream_unit(cell: CellConfig, entries: usize, batch_width: usize) -> CamUnit {
    let config = UnitConfig::builder()
        .kind(cell.kind)
        .data_width(cell.data_width)
        .ternary_mask(cell.ternary_mask)
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

/// The deterministic mixed hit/miss key stream used by every
/// `search_stream` measurement (hits wherever `i * 7` lands on a stored
/// multiple of three).
fn stream_keys(entries: usize) -> Vec<u64> {
    (0..1024u64).map(|i| i * 7 % (entries as u64 * 3)).collect()
}

/// Turbo `search_stream` and one-key `search` throughput of binary
/// units (answered through the exact-match index) at each of `sizes`
/// entries, each sampled for `min_millis` with the best of `rounds`
/// kept per size.
#[must_use]
pub fn measure_large_scale(sizes: &[usize], min_millis: u128, rounds: usize) -> Vec<LargeScaleRow> {
    sizes
        .iter()
        .map(|&entries| {
            let mut unit = turbo_stream_unit(CellConfig::binary(32), entries, 32);
            let keys = stream_keys(entries);
            let mut best = |rate: &mut dyn FnMut(&mut CamUnit) -> f64| {
                (0..rounds.max(1))
                    .map(|_| rate(&mut unit))
                    .fold(0.0f64, f64::max)
            };
            LargeScaleRow {
                entries,
                stream_kps: best(&mut |unit| stream_keys_per_sec(unit, &keys, min_millis)),
                point_sps: best(&mut |unit| searches_per_sec_for(unit, min_millis)),
            }
        })
        .collect()
}

/// Race the key-parallel kernel (`batch_width` keys per plane pass)
/// against the same unit degenerated to one key per pass, on Turbo
/// `search_stream` at `entries` over the `ternary(32, 0)` plane
/// walk. Rounds are interleaved so clock drift and cache noise hit both
/// sides equally.
#[must_use]
pub fn measure_batch_vs_scalar(
    entries: usize,
    batch_width: usize,
    min_millis: u128,
    rounds: usize,
) -> BatchVsScalarRow {
    let keys = stream_keys(entries);
    let mut batched = turbo_stream_unit(plane_walk_cell(), entries, batch_width);
    let mut scalar = turbo_stream_unit(plane_walk_cell(), entries, 1);
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

/// Measure every `BENCH_search.json` row, write the artefact, and
/// check every floor of the crate's floor table on it. With the `obs`
/// feature on, the tracer's overhead on Turbo `search_stream` at 8192
/// entries is measured and floored too.
///
/// # Panics
///
/// Panics when a measured row breaks its floor, or when a floor of a
/// written section selects none of its rows.
pub fn emit_bench_search_json(source: &str) {
    let rows = measure_search_rates(&BENCH_SIZES);
    #[cfg(feature = "obs")]
    let trace_overhead = measure_turbo_trace_overhead_pct(8192);
    let scrub_overhead = measure_scrub_overhead_pct(8192);
    let batch = measure_batch_vs_scalar(8192, 32, 100, 5);
    let large = measure_large_scale(&LARGE_BENCH_SIZES, 150, 3);
    let update_queue = measure_update_latency_rows(&[8192, 65_536], 120, 8);
    // The acceptance-criterion race runs the full 1M-op trace: long
    // timing windows keep the ratio out of scheduler-noise territory.
    let cluster = measure_cluster_rows(8192, 1_000_000, &[1, 4]);
    let migration = measure_migration_invariant(15_000);
    let failover = measure_failover_rows(15_000);
    let mut sections = Vec::new();
    #[cfg(feature = "obs")]
    sections.push(("turbo_trace_overhead_pct", Field(Float(trace_overhead, 2))));
    sections.extend([
        ("scrub_overhead_pct", Field(Float(scrub_overhead, 2))),
        ("batch_kernel_vs_scalar", Object(batch.row())),
        (
            "update_queue_rows",
            Rows(update_queue.iter().map(UpdateLatencyRow::row).collect()),
        ),
        ("capacity_scaling", Rows(capacity_scaling(&cluster))),
        ("cluster_migration", Object(migration.row())),
        (
            "failover_rows",
            Rows(failover.iter().map(FailoverRow::row).collect()),
        ),
        (
            "large_rows",
            Rows(large.iter().map(LargeScaleRow::row).collect()),
        ),
        ("rows", Rows(rows.iter().map(SearchRateRow::row).collect())),
    ]);
    let metric = "host searches/sec, Turbo (bit-sliced) vs BitAccurate (DSP48E2 simulation)";
    artefact::emit("BENCH_search.json", source, metric, sections);
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

    /// Tier-1 floor regression: the Turbo tier's `rows` floor holds even
    /// on a quick short-sample measurement at a reduced entry count. (The
    /// long-sample 8192-entry measurement runs in `emit_bench_search_json`
    /// and `large_capacity_smoke`; this is its always-on smoke test.)
    #[test]
    fn turbo_speedup_floor_holds_at_reduced_size() {
        artefact::check("rows", vec![measure_search_rate_quick(2048, 40, 3).row()]);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn tracer_overhead_is_bounded_at_reduced_size() {
        // Quick-sample variant of the canonical 8192-entry measurement:
        // the tracer floor is only enforced by the release-mode bench, but
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
        // the scrub floor is only enforced by the release-mode bench,
        // but default-policy scrubbing must never be catastrophically
        // slow even in debug.
        let pct = measure_scrub_overhead_pct(512);
        assert!(
            pct < 20.0,
            "scrub overhead exploded on turbo search_stream: {pct:.2}%"
        );
    }

    #[test]
    fn batched_and_scalar_width_streams_agree() {
        // The perf race is release-only; in any build the two kernel
        // widths must return identical stream results.
        let keys = stream_keys(512);
        for cell in [CellConfig::binary(32), plane_walk_cell()] {
            let mut batched = turbo_stream_unit(cell, 512, 32);
            let mut scalar = turbo_stream_unit(cell, 512, 1);
            assert_eq!(
                batched.search_stream(&keys[..128]),
                scalar.search_stream(&keys[..128]),
                "batch width must not change stream results ({cell:?})"
            );
        }
    }

    /// Release-mode floor regression for the key-parallel kernel, the
    /// large-capacity stream and point-search scale-up at 64k and 1M
    /// entries and the Turbo speedup at 8192 entries, on the fixed-seed
    /// key stream. Run by
    /// `scripts/ci.sh` as
    /// `cargo test --release -p dsp-cam-bench -- --ignored`; too slow
    /// (and too noisy) for the default debug test pass, hence ignored.
    #[test]
    #[ignore = "release-mode perf smoke, run explicitly by scripts/ci.sh"]
    fn large_capacity_smoke() {
        let batch = measure_batch_vs_scalar(8192, 32, 60, 3);
        artefact::check("batch_kernel_vs_scalar", vec![batch.row()]);
        let large = measure_large_scale(&[65_536, 1_048_576], 60, 3);
        artefact::check("large_rows", large.iter().map(LargeScaleRow::row).collect());
        let rates = measure_search_rates(&[8192]);
        artefact::check("rows", vec![rates[0].row()]);
    }
}
