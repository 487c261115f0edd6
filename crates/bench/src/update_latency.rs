//! Mixed search/update/delete measurement for the CAM-fronted write
//! buffer: per-op update latency percentiles and search throughput
//! under a write-heavy stream, buffered versus inline, recorded in
//! `BENCH_search.json` as `update_queue_rows`.
//!
//! The workload models the paper's update-queue motivation: a CAM that
//! must keep answering searches while absorbing bursts of table
//! maintenance. Each round interleaves `search_stream` batches with
//! single-word inserts and deletes at a fixed ratio; the buffered arm
//! stages the writes in the O(1) CAM-fronted queue and drains them in
//! the idle window *between* rounds (the drain is excluded from the
//! timed window — that is the design's entire point — but its volume is
//! reported honestly in [`UpdateLatencyRow::buffered_drained_ops`]).
//! The inline arm applies every write synchronously through the
//! replicated groups, exactly as a bufferless unit must.

use std::hint::black_box;
use std::time::Instant;

use dsp_cam_core::prelude::*;

/// A search:update:delete operation ratio, in ops per round.
#[derive(Debug, Clone, Copy)]
pub struct UpdateMix {
    /// Keys streamed through `search_stream` per round.
    pub searches: usize,
    /// Single-word inserts per round.
    pub updates: usize,
    /// `delete_first` calls per round (targets keys inserted earlier in
    /// the same round, so every delete hits).
    pub deletes: usize,
}

impl UpdateMix {
    /// The canonical read-heavy mix (90:9:1).
    pub const READ_HEAVY: UpdateMix = UpdateMix {
        searches: 90,
        updates: 9,
        deletes: 1,
    };

    /// The canonical write-heavy mix (50:45:5) — the one the release
    /// floors are enforced on.
    pub const WRITE_HEAVY: UpdateMix = UpdateMix {
        searches: 50,
        updates: 45,
        deletes: 5,
    };

    /// `"search:update:delete"` label used in the JSON artefact.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}:{}:{}", self.searches, self.updates, self.deletes)
    }
}

/// Buffered-versus-inline update latency and search throughput under one
/// mix at one unit size.
#[derive(Debug, Clone, Copy)]
pub struct UpdateLatencyRow {
    /// Unit capacity in cells (four replicated groups share them).
    pub entries: usize,
    /// The search:update:delete ratio measured.
    pub mix: UpdateMix,
    /// Median per-op insert latency with the write buffer absorbing.
    pub buffered_update_p50_ns: f64,
    /// 99th-percentile insert latency with the write buffer absorbing.
    pub buffered_update_p99_ns: f64,
    /// Median per-op insert latency applied inline through the groups.
    pub inline_update_p50_ns: f64,
    /// 99th-percentile insert latency applied inline through the groups.
    pub inline_update_p99_ns: f64,
    /// Search keys/sec inside the mixed rounds, buffered arm.
    pub buffered_search_kps: f64,
    /// Search keys/sec inside the mixed rounds, inline arm.
    pub inline_search_kps: f64,
    /// Staged ops drained outside the timed windows (idle-window work
    /// the buffered arm still had to do — reported, not hidden).
    pub buffered_drained_ops: u64,
}

impl UpdateLatencyRow {
    /// Buffered over inline update p99 — must stay at or under
    /// [`UPDATE_P99_RATIO_CEILING`].
    #[must_use]
    pub fn p99_ratio(&self) -> f64 {
        self.buffered_update_p99_ns / self.inline_update_p99_ns
    }

    /// Buffered over inline search throughput under writes — must stay
    /// at or above [`SEARCH_UNDER_WRITES_FLOOR`] on the write-heavy mix.
    #[must_use]
    pub fn search_ratio(&self) -> f64 {
        self.buffered_search_kps / self.inline_search_kps
    }
}

/// Release-mode ceiling on [`UpdateLatencyRow::p99_ratio`] at 8192
/// entries under the write-heavy mix: absorbing an insert into the
/// staging queue must cost at most half of applying it inline through
/// the replicated groups, even at the latency tail.
pub const UPDATE_P99_RATIO_CEILING: f64 = 0.5;

/// Release-mode floor on [`UpdateLatencyRow::search_ratio`] at 8192
/// entries under the write-heavy mix: with updates absorbed off the
/// search path, mixed-stream search throughput must at least double
/// over the inline baseline.
pub const SEARCH_UNDER_WRITES_FLOOR: f64 = 2.0;

/// Fresh inserts land far above the prefilled search range so in-window
/// searches never touch a staged key (a touched-key search flushes the
/// buffer for read-your-writes — correct, but it would let the buffered
/// arm smuggle drain work into the timed window).
const FRESH_BASE: u64 = 1 << 30;

/// Keys streamed per `search_stream` call inside a round.
const STREAM_BATCH: usize = 10;

/// One op slot of the interleaved round schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MixSlot {
    /// One `search_stream` batch of up to [`STREAM_BATCH`] keys.
    Stream,
    Update,
    Delete,
}

/// Proportionally interleave the mix into a deterministic schedule
/// (largest-deficit round robin), so writes are spread through the
/// searches the way a real mixed stream arrives rather than batched at
/// one end. Updates lead deletes at every prefix, so a delete's target
/// (the oldest not-yet-deleted insert of the round) always exists.
fn schedule(mix: UpdateMix) -> Vec<MixSlot> {
    let streams = mix.searches.div_ceil(STREAM_BATCH);
    let weights = [
        (MixSlot::Update, mix.updates),
        (MixSlot::Stream, streams),
        (MixSlot::Delete, mix.deletes),
    ];
    let total: usize = weights.iter().map(|&(_, w)| w).sum();
    let mut emitted = [0usize; 3];
    let mut out = Vec::with_capacity(total);
    for slot in 0..total {
        // Pick the op type furthest behind its proportional share; ties
        // resolve in array order, so the heavier update stream leads.
        let (pick, _) = weights
            .iter()
            .enumerate()
            .filter(|&(i, &(_, w))| emitted[i] < w)
            .map(|(i, &(kind, w))| {
                (
                    i,
                    (w * (slot + 1)) as f64 / total as f64 - emitted[i] as f64,
                    kind,
                )
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _, kind)| (i, kind))
            .expect("slots remain while emitted < total");
        emitted[pick] += 1;
        out.push(weights[pick].0);
    }
    out
}

/// A four-group Turbo unit at `entries` total cells — the
/// replicated-group geometry where every inline write pays the paper's
/// real update bill (one write per group) — prefilled to half of its
/// per-group capacity with the canonical `i * 3` fixture.
fn mixed_unit(entries: usize, wbuf: Option<WriteBufferConfig>) -> CamUnit {
    let block_size = (entries / 4).min(256);
    let mut builder = UnitConfig::builder()
        .data_width(32)
        .block_size(block_size)
        .num_blocks(entries / block_size)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo);
    if let Some(policy) = wbuf {
        builder = builder.write_buffer(policy);
    }
    let config = builder.build().expect("bench geometry is valid");
    let mut unit = CamUnit::new(config).expect("constructible");
    unit.configure_groups(4)
        .expect("entries/block_size blocks split 4 ways");
    let prefill = entries / 8;
    let words: Vec<u64> = (0..prefill as u64).map(|i| i * 3).collect();
    unit.update(&words).expect("fits the replicated capacity");
    unit
}

/// The in-window search key pool: a deterministic hit/miss mix over the
/// prefilled range, disjoint from [`FRESH_BASE`] so no in-window search
/// ever touches a staged key.
fn search_pool(entries: usize) -> Vec<u64> {
    let prefill = (entries / 8) as u64;
    (0..256u64).map(|i| i * 7 % (prefill * 3)).collect()
}

/// Run one interleaved round on `unit`: time each insert individually
/// into `update_ns`, count streamed keys, and return the round's wall
/// clock. The schedule, keys and delete targets are identical for both
/// arms — only the unit's write path differs.
fn run_round(
    unit: &mut CamUnit,
    slots: &[MixSlot],
    pool: &[u64],
    mix: UpdateMix,
    round: usize,
    update_ns: &mut Vec<u64>,
) -> (u64, f64) {
    let mut inserted = 0u64;
    let mut deleted = 0u64;
    let mut streamed = 0u64;
    let mut batch = 0usize;
    let round_start = Instant::now();
    for &slot in slots {
        match slot {
            MixSlot::Stream => {
                let offset = (round * mix.searches + batch * STREAM_BATCH) % pool.len();
                let take = STREAM_BATCH.min(mix.searches - batch * STREAM_BATCH);
                let end = (offset + take).min(pool.len());
                black_box(unit.search_stream(black_box(&pool[offset..end])));
                streamed += (end - offset) as u64;
                batch += 1;
            }
            MixSlot::Update => {
                let word = [FRESH_BASE + inserted];
                let start = Instant::now();
                black_box(unit.update(black_box(&word))).expect("headroom reserved");
                update_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                inserted += 1;
            }
            MixSlot::Delete => {
                // Oldest not-yet-deleted insert of this round: always
                // present (updates lead deletes at every prefix).
                black_box(unit.delete_first(black_box(FRESH_BASE + deleted)));
                deleted += 1;
            }
        }
    }
    let secs = round_start.elapsed().as_secs_f64();
    // Idle-window housekeeping, outside the timed round: drain whatever
    // is staged, then remove the round's surviving fresh keys so
    // occupancy returns to the prefill level and rounds stay
    // statistically identical. Both arms do the same walk.
    unit.flush_write_buffer();
    for idx in deleted..inserted {
        unit.delete_first(FRESH_BASE + idx);
    }
    unit.flush_write_buffer();
    (streamed, secs)
}

/// Measure one [`UpdateLatencyRow`]: the buffered and inline arms run
/// the identical round schedule, interleaved round by round so clock
/// drift and cache noise hit both equally, until each side has
/// accumulated `min_millis` of in-window time (and at least
/// `min_rounds` rounds).
#[must_use]
pub fn measure_update_latency(
    entries: usize,
    mix: UpdateMix,
    min_millis: u128,
    min_rounds: usize,
) -> UpdateLatencyRow {
    let wbuf = WriteBufferConfig {
        // One round's writes always fit: absorbing is the steady state,
        // overflow fallback is left to the differential tests.
        capacity: (mix.updates + mix.deletes).max(64),
        drain_per_tick: 4,
        bypass: false,
    };
    let mut buffered = mixed_unit(entries, Some(wbuf));
    let mut inline = mixed_unit(entries, None);
    let slots = schedule(mix);
    let pool = search_pool(entries);
    let mut buffered_ns = Vec::new();
    let mut inline_ns = Vec::new();
    let (mut b_keys, mut b_secs) = (0u64, 0.0f64);
    let (mut i_keys, mut i_secs) = (0u64, 0.0f64);
    let mut rounds = 0usize;
    while rounds < min_rounds
        || b_secs * 1000.0 < min_millis as f64
        || i_secs * 1000.0 < min_millis as f64
    {
        let (keys, secs) = run_round(&mut inline, &slots, &pool, mix, rounds, &mut inline_ns);
        i_keys += keys;
        i_secs += secs;
        let (keys, secs) = run_round(&mut buffered, &slots, &pool, mix, rounds, &mut buffered_ns);
        b_keys += keys;
        b_secs += secs;
        rounds += 1;
        if rounds >= 65_536 {
            break;
        }
    }
    UpdateLatencyRow {
        entries,
        mix,
        buffered_update_p50_ns: percentile_ns(&mut buffered_ns, 50.0),
        buffered_update_p99_ns: percentile_ns(&mut buffered_ns, 99.0),
        inline_update_p50_ns: percentile_ns(&mut inline_ns, 50.0),
        inline_update_p99_ns: percentile_ns(&mut inline_ns, 99.0),
        buffered_search_kps: b_keys as f64 / b_secs,
        inline_search_kps: i_keys as f64 / i_secs,
        buffered_drained_ops: buffered.write_buffer_report().drained_ops,
    }
}

/// Nearest-rank percentile over `samples` (sorted in place).
fn percentile_ns(samples: &mut [u64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_unstable();
    let rank = ((q / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// Measure both canonical mixes at each of `sizes` entries.
#[must_use]
pub fn measure_update_latency_rows(
    sizes: &[usize],
    min_millis: u128,
    min_rounds: usize,
) -> Vec<UpdateLatencyRow> {
    sizes
        .iter()
        .flat_map(|&entries| {
            [UpdateMix::READ_HEAVY, UpdateMix::WRITE_HEAVY]
                .into_iter()
                .map(move |mix| (entries, mix))
        })
        .map(|(entries, mix)| measure_update_latency(entries, mix, min_millis, min_rounds))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_matches_the_mix_and_updates_lead_deletes() {
        for mix in [UpdateMix::READ_HEAVY, UpdateMix::WRITE_HEAVY] {
            let slots = schedule(mix);
            let count = |kind| slots.iter().filter(|&&s| s == kind).count();
            assert_eq!(count(MixSlot::Update), mix.updates, "{}", mix.label());
            assert_eq!(count(MixSlot::Delete), mix.deletes, "{}", mix.label());
            assert_eq!(
                count(MixSlot::Stream),
                mix.searches.div_ceil(STREAM_BATCH),
                "{}",
                mix.label()
            );
            let mut updates = 0usize;
            let mut deletes = 0usize;
            for slot in slots {
                match slot {
                    MixSlot::Update => updates += 1,
                    MixSlot::Delete => {
                        deletes += 1;
                        assert!(
                            updates >= deletes,
                            "delete #{deletes} has no insert to target in {}",
                            mix.label()
                        );
                    }
                    MixSlot::Stream => {}
                }
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).collect();
        assert!((percentile_ns(&mut samples, 50.0) - 50.0).abs() < 1e-9);
        assert!((percentile_ns(&mut samples, 99.0) - 99.0).abs() < 1e-9);
        let mut one = vec![7u64];
        assert!((percentile_ns(&mut one, 99.0) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_is_sane_at_reduced_size() {
        // The 0.5x / 2x floors are release-only (update_queue_smoke);
        // in debug the measurement just has to produce finite, positive
        // numbers from a round count large enough to fill the p99 rank.
        let row = measure_update_latency(512, UpdateMix::WRITE_HEAVY, 5, 3);
        assert!(row.buffered_update_p50_ns > 0.0);
        assert!(row.buffered_update_p99_ns >= row.buffered_update_p50_ns);
        assert!(row.inline_update_p99_ns >= row.inline_update_p50_ns);
        assert!(row.buffered_search_kps > 0.0 && row.buffered_search_kps.is_finite());
        assert!(row.inline_search_kps > 0.0 && row.inline_search_kps.is_finite());
        assert!(row.p99_ratio() > 0.0 && row.search_ratio() > 0.0);
        assert!(
            row.buffered_drained_ops > 0,
            "the buffered arm must actually have staged and drained writes"
        );
    }

    #[test]
    fn both_arms_agree_on_contents_after_a_measured_round() {
        // The measurement's correctness backstop: after rounds plus
        // housekeeping, buffered and inline units hold identical
        // entries (the differential proptests cover the general case;
        // this pins the bench's own key discipline).
        let mix = UpdateMix::WRITE_HEAVY;
        let mut buffered = mixed_unit(512, Some(buffered_config(mix)));
        let mut inline = mixed_unit(512, None);
        let slots = schedule(mix);
        let pool = search_pool(512);
        let mut scratch = Vec::new();
        for round in 0..3 {
            run_round(&mut buffered, &slots, &pool, mix, round, &mut scratch);
            run_round(&mut inline, &slots, &pool, mix, round, &mut scratch);
        }
        assert_eq!(buffered.write_buffer_depth(), 0, "housekeeping drains");
        assert_eq!(buffered.len(), inline.len(), "occupancy must match");
        for &key in pool.iter().take(32) {
            assert_eq!(buffered.search(key), inline.search(key), "key {key}");
        }
        for idx in 0..mix.updates as u64 {
            assert!(
                !buffered.search(FRESH_BASE + idx).is_match(),
                "housekeeping must remove fresh key {idx}"
            );
        }
    }

    fn buffered_config(mix: UpdateMix) -> WriteBufferConfig {
        WriteBufferConfig {
            capacity: (mix.updates + mix.deletes).max(64),
            drain_per_tick: 4,
            bypass: false,
        }
    }

    /// Release-mode floor regression for the update queue: buffered
    /// update p99 at most half of inline, and search throughput under
    /// the write-heavy mix at least doubled, at 8192 entries. Run by
    /// `scripts/ci.sh` as
    /// `cargo test --release -p dsp-cam-bench -- --ignored`; too slow
    /// (and too noisy) for the default debug test pass, hence ignored.
    #[test]
    #[ignore = "release-mode perf smoke, run explicitly by scripts/ci.sh"]
    fn update_queue_smoke() {
        let row = measure_update_latency(8192, UpdateMix::WRITE_HEAVY, 120, 8);
        assert!(
            row.p99_ratio() <= UPDATE_P99_RATIO_CEILING,
            "buffered update p99 must be <= {UPDATE_P99_RATIO_CEILING}x inline under \
             50:45:5 at 8192 entries, got {:.3}x ({:.0} ns vs {:.0} ns)",
            row.p99_ratio(),
            row.buffered_update_p99_ns,
            row.inline_update_p99_ns
        );
        assert!(
            row.search_ratio() >= SEARCH_UNDER_WRITES_FLOOR,
            "buffered search throughput must be >= {SEARCH_UNDER_WRITES_FLOOR}x inline under \
             50:45:5 at 8192 entries, got {:.2}x ({:.0} vs {:.0} keys/s)",
            row.search_ratio(),
            row.buffered_search_kps,
            row.inline_search_kps
        );
    }
}
