//! Seeded workload generation: Zipfian keys, exact op mixes, bursty or
//! uniform arrival, and live-set maintenance (churn + eviction
//! watermark).

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::rng::SplitMix64;
use crate::trace::{Trace, TraceOp, TraceRecord};
use crate::zipf::ZipfSampler;

/// Search : update : delete ratio, in integer parts (e.g. `90:9:1`).
/// The generator hits these ratios *exactly* over the whole trace —
/// targets are fixed up front by largest-remainder apportionment and
/// each step draws a class weighted by its remaining deficit, so the
/// interleaving is random but the totals are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpMix {
    /// Parts of searches (point or streamed keys).
    pub search: u32,
    /// Parts of single-word updates.
    pub update: u32,
    /// Parts of deletes (application deletes; watermark evictions are
    /// extra and tracked separately).
    pub delete: u32,
}

impl OpMix {
    /// The canonical read-heavy mix: 90% search, 9% update, 1% delete.
    pub const READ_HEAVY: OpMix = OpMix {
        search: 90,
        update: 9,
        delete: 1,
    };

    /// The canonical write-heavy mix: 50% search, 45% update, 5% delete.
    pub const WRITE_HEAVY: OpMix = OpMix {
        search: 50,
        update: 45,
        delete: 5,
    };

    /// Sum of the parts.
    #[must_use]
    pub fn total(&self) -> u64 {
        u64::from(self.search) + u64::from(self.update) + u64::from(self.delete)
    }

    /// `"search:update:delete"` label, e.g. `"90:9:1"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}:{}:{}", self.search, self.update, self.delete)
    }
}

/// Arrival process for trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arrival {
    /// One op per cycle, no idle gaps: the II = 1 saturation pattern.
    BackToBack,
    /// A fixed gap of `gap` cycles between consecutive arrivals
    /// (`gap = 1` equals [`Arrival::BackToBack`]; `gap = 0` lands every
    /// op in the same arrival cycle).
    Uniform {
        /// Cycles between consecutive arrivals.
        gap: u32,
    },
    /// An on/off process: bursts of mean length `mean_burst` ops arrive
    /// back-to-back *in the same cycle* (gap 0 inside a burst), then the
    /// line goes idle for a mean of `idle_ticks` cycles. Burst lengths
    /// draw uniformly from `[1, 2·mean_burst - 1]` and idle gaps from
    /// `[1, 2·idle_ticks]`, so both means are exact in expectation while
    /// staying integer-valued and seed-deterministic.
    Bursty {
        /// Mean ops per burst (must be ≥ 1).
        mean_burst: u32,
        /// Mean idle cycles between bursts (must be ≥ 1).
        idle_ticks: u32,
    },
}

/// Everything that determines a trace. Same config + same seed ⇒
/// byte-identical [`Trace`], on every platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// PRNG seed.
    pub seed: u64,
    /// Application op count: search keys (point and streamed) + updates
    /// + mix deletes. Watermark evictions are on top of this.
    pub ops: u64,
    /// Key popularity domain: keys are drawn from `[0, key_space)`
    /// (rank 0 most popular). Churned fresh keys start at `key_space`.
    pub key_space: u64,
    /// Zipf skew `s` (`0` = uniform, `1` = classic web skew).
    pub zipf_s: f64,
    /// Search : update : delete ratio, hit exactly.
    pub mix: OpMix,
    /// Coalesce up to this many consecutive searches into one
    /// `SearchStream` record — the host-side front-end packing point
    /// lookups onto the wide bus. A batch absorbs back-to-back and
    /// same-cycle arrivals (gap ≤ 1) and flushes at idle boundaries
    /// (gap > 1), on interleaved writes, and at this cap; the batch
    /// record arrives with its first key. 1 disables coalescing.
    pub stream_batch: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Per-mille of updates that write a *fresh* key (monotonically
    /// allocated from `key_space` upward) instead of a Zipf-drawn one,
    /// so the live set drifts away from the popular ranks over time.
    pub churn_per_mille: u32,
    /// Keys `0..prefill` stored before the clock starts — the initially
    /// live (and most popular) entries.
    pub prefill: u64,
    /// Optional live-set watermark: whenever an update pushes the live
    /// count above this, the generator emits eviction deletes (oldest
    /// entry first, each drawing its own arrival gap) until the count
    /// is back at the watermark. Keeps million-op write-heavy traces
    /// runnable on a bounded-capacity unit while leaving the mix ratios
    /// exact.
    pub max_live: Option<usize>,
    /// Minimum arrival gap for watermark-eviction deletes. Evictions
    /// draw their own gap from the arrival process, but a bursty draw
    /// can land mid-burst (gap 0) — and because evictions are emitted
    /// *on top of* the application ops, a saturated write-heavy trace
    /// then arrives faster than one op per cycle and the issue backlog
    /// (and retire-latency tail) grows without bound. Clamping each
    /// eviction's gap to at least this value keeps the offered load
    /// below the issue rate. 0 restores the legacy unclamped draw;
    /// application ops are never affected.
    pub eviction_min_gap: u32,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 1,
            ops: 10_000,
            key_space: 1024,
            zipf_s: 0.8,
            mix: OpMix::READ_HEAVY,
            stream_batch: 1,
            arrival: Arrival::BackToBack,
            churn_per_mille: 0,
            prefill: 256,
            max_live: None,
            eviction_min_gap: 1,
        }
    }
}

/// Why a [`WorkloadConfig`] cannot be generated.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// `ops` was 0.
    ZeroOps,
    /// `key_space` was 0 or above the 4M-rank Zipf table ceiling.
    BadKeySpace {
        /// The rejected domain size.
        requested: u64,
    },
    /// All three mix parts were 0.
    EmptyMix,
    /// `zipf_s` was negative or not finite.
    BadSkew {
        /// The rejected skew.
        requested: f64,
    },
    /// `max_live` was 0 or below `prefill` (the watermark would evict
    /// the prefill before the first op).
    BadWatermark {
        /// The rejected watermark.
        requested: usize,
        /// The configured prefill count.
        prefill: u64,
    },
    /// A bursty arrival with `mean_burst` or `idle_ticks` of 0.
    BadArrival,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::ZeroOps => write!(f, "workload needs at least one op"),
            WorkloadError::BadKeySpace { requested } => {
                write!(f, "key space must be in [1, 2^22], got {requested}")
            }
            WorkloadError::EmptyMix => write!(f, "op mix must have at least one non-zero part"),
            WorkloadError::BadSkew { requested } => {
                write!(f, "Zipf skew must be finite and >= 0, got {requested}")
            }
            WorkloadError::BadWatermark { requested, prefill } => write!(
                f,
                "max_live watermark {requested} must be >= prefill {prefill} and > 0"
            ),
            WorkloadError::BadArrival => {
                write!(
                    f,
                    "bursty arrival needs mean_burst >= 1 and idle_ticks >= 1"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Largest-remainder apportionment of `ops` across the three classes:
/// totals are exact, deterministic, and sum to `ops`.
fn exact_targets(ops: u64, mix: &OpMix) -> [u64; 3] {
    let parts = [
        u64::from(mix.search),
        u64::from(mix.update),
        u64::from(mix.delete),
    ];
    let total = mix.total();
    let mut targets = [0u64; 3];
    let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(3);
    let mut assigned = 0u64;
    for (index, &part) in parts.iter().enumerate() {
        targets[index] = ops * part / total;
        assigned += targets[index];
        remainders.push((ops * part % total, index));
    }
    // Hand the leftover ops to the largest remainders; ties break toward
    // searches (lowest index) for determinism.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, index) in remainders.iter().take((ops - assigned) as usize) {
        targets[index] += 1;
    }
    targets
}

/// Per-record arrival-gap source for the configured [`Arrival`] process.
struct GapSource {
    arrival: Arrival,
    burst_left: u64,
}

impl GapSource {
    fn new(arrival: Arrival) -> Self {
        GapSource {
            arrival,
            burst_left: 0,
        }
    }

    fn next(&mut self, rng: &mut SplitMix64) -> u32 {
        match self.arrival {
            Arrival::BackToBack => 1,
            Arrival::Uniform { gap } => gap,
            Arrival::Bursty {
                mean_burst,
                idle_ticks,
            } => {
                if self.burst_left == 0 {
                    // New burst: draw its length and pay the idle gap up
                    // front (the burst head's arrival delta).
                    self.burst_left = 1 + rng.below(u64::from(2 * mean_burst - 1));
                    self.burst_left -= 1;
                    (1 + rng.below(u64::from(2 * idle_ticks))) as u32
                } else {
                    self.burst_left -= 1;
                    0
                }
            }
        }
    }
}

/// Flush the pending same-cycle search batch into one record: a point
/// [`TraceOp::Search`] for a single key, a [`TraceOp::SearchStream`]
/// otherwise.
fn flush_searches(records: &mut Vec<TraceRecord>, pending: &mut Vec<u64>, gap: &mut u32) {
    if pending.is_empty() {
        return;
    }
    let op = if pending.len() == 1 {
        TraceOp::Search(pending[0])
    } else {
        TraceOp::SearchStream(std::mem::take(pending))
    };
    pending.clear();
    records.push(TraceRecord { gap: *gap, op });
    *gap = 0;
}

/// Generate the trace for `config`. Deterministic: the same config
/// (seed included) always yields the byte-identical [`Trace`].
///
/// # Errors
///
/// Returns a [`WorkloadError`] when the config is internally
/// inconsistent (zero ops, empty mix, invalid skew, a watermark below
/// the prefill, or a degenerate bursty process).
pub fn generate(config: &WorkloadConfig) -> Result<Trace, WorkloadError> {
    if config.ops == 0 {
        return Err(WorkloadError::ZeroOps);
    }
    if config.key_space == 0 || config.key_space > 1 << 22 {
        return Err(WorkloadError::BadKeySpace {
            requested: config.key_space,
        });
    }
    if config.mix.total() == 0 {
        return Err(WorkloadError::EmptyMix);
    }
    if !(config.zipf_s >= 0.0 && config.zipf_s.is_finite()) {
        return Err(WorkloadError::BadSkew {
            requested: config.zipf_s,
        });
    }
    if let Some(watermark) = config.max_live {
        if watermark == 0 || (watermark as u64) < config.prefill {
            return Err(WorkloadError::BadWatermark {
                requested: watermark,
                prefill: config.prefill,
            });
        }
    }
    if let Arrival::Bursty {
        mean_burst,
        idle_ticks,
    } = config.arrival
    {
        if mean_burst == 0 || idle_ticks == 0 {
            return Err(WorkloadError::BadArrival);
        }
    }

    let mut rng = SplitMix64::new(config.seed);
    let zipf = ZipfSampler::new(config.key_space, config.zipf_s);
    let mut gaps = GapSource::new(config.arrival);
    let stream_batch = config.stream_batch.max(1);

    // The live set, oldest entry at the front. Prefill keys are the most
    // popular Zipf ranks, so the initial hit rate is high by design.
    let mut live: VecDeque<u64> = (0..config.prefill).collect();
    let mut next_fresh_key = config.key_space;

    let mut remaining = exact_targets(config.ops, &config.mix);
    // Worst case: every op is its own record, plus one watermark
    // eviction per update. Reserving it up front means generation never
    // grows (and copies) the record buffer.
    let evictions = config.max_live.map_or(0, |_| remaining[1]);
    let mut records: Vec<TraceRecord> = Vec::with_capacity((config.ops + evictions) as usize);
    let mut pending: Vec<u64> = Vec::new();
    let mut pending_gap = 0u32;

    while remaining.iter().sum::<u64>() > 0 {
        let total_left: u64 = remaining.iter().sum();
        let draw = rng.below(total_left);
        let class = if draw < remaining[0] {
            0
        } else if draw < remaining[0] + remaining[1] {
            1
        } else {
            2
        };
        remaining[class] -= 1;
        let gap = gaps.next(&mut rng);

        match class {
            // Search: Zipf-popular key; coalesce same-cycle runs.
            0 => {
                let key = zipf.sample(&mut rng);
                if stream_batch == 1 {
                    records.push(TraceRecord {
                        gap,
                        op: TraceOp::Search(key),
                    });
                } else {
                    if gap > 1 {
                        // Idle boundary: the batch must not straddle it.
                        flush_searches(&mut records, &mut pending, &mut pending_gap);
                        pending_gap = gap;
                    } else if pending.is_empty() {
                        pending_gap = gap;
                    }
                    pending.push(key);
                    if pending.len() >= stream_batch {
                        flush_searches(&mut records, &mut pending, &mut pending_gap);
                    }
                }
            }
            // Update: store a key (fresh with churn probability), then
            // age out the oldest entries past the watermark.
            1 => {
                flush_searches(&mut records, &mut pending, &mut pending_gap);
                let churn = config.churn_per_mille > 0
                    && rng.below(1000) < u64::from(config.churn_per_mille);
                let key = if churn {
                    let key = next_fresh_key;
                    next_fresh_key += 1;
                    key
                } else {
                    zipf.sample(&mut rng)
                };
                records.push(TraceRecord {
                    gap,
                    op: TraceOp::Update(key),
                });
                live.push_back(key);
                if let Some(watermark) = config.max_live {
                    while live.len() > watermark {
                        let victim = live.pop_front().expect("watermark > 0");
                        // An eviction is an op the host issues like any
                        // other write, so it draws its own arrival gap —
                        // but a bursty draw can land mid-burst (gap 0),
                        // and since evictions ride on top of the mix ops
                        // an unclamped draw pushes a saturated trace past
                        // one arrival per cycle: one cycle of permanent
                        // issue backlog per gap-0 eviction. The clamp
                        // keeps the offered load issueable; the draw
                        // still happens first so burst bookkeeping (and
                        // every other op's gap) is bit-identical.
                        records.push(TraceRecord {
                            gap: gaps.next(&mut rng).max(config.eviction_min_gap),
                            op: TraceOp::Delete {
                                key: victim,
                                eviction: true,
                            },
                        });
                    }
                }
            }
            // Mix delete: remove a uniformly random live entry (a
            // Zipf-drawn probe — likely a miss — when nothing is live).
            _ => {
                flush_searches(&mut records, &mut pending, &mut pending_gap);
                let key = if live.is_empty() {
                    zipf.sample(&mut rng)
                } else {
                    let index = rng.below(live.len() as u64) as usize;
                    let last = live.len() - 1;
                    live.swap(index, last);
                    live.pop_back().expect("non-empty")
                };
                records.push(TraceRecord {
                    gap,
                    op: TraceOp::Delete {
                        key,
                        eviction: false,
                    },
                });
            }
        }
    }
    flush_searches(&mut records, &mut pending, &mut pending_gap);

    Ok(Trace {
        seed: config.seed,
        prefill: (0..config.prefill).collect(),
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_targets_are_exact_and_sum_to_ops() {
        assert_eq!(exact_targets(100, &OpMix::READ_HEAVY), [90, 9, 1]);
        assert_eq!(exact_targets(100, &OpMix::WRITE_HEAVY), [50, 45, 5]);
        // Non-divisible totals still sum exactly.
        for ops in [1u64, 7, 99, 101, 12_345] {
            let targets = exact_targets(
                ops,
                &OpMix {
                    search: 7,
                    update: 3,
                    delete: 2,
                },
            );
            assert_eq!(targets.iter().sum::<u64>(), ops, "ops = {ops}");
        }
    }

    #[test]
    fn generated_counts_hit_the_mix_exactly() {
        let config = WorkloadConfig {
            ops: 10_000,
            mix: OpMix::WRITE_HEAVY,
            stream_batch: 8,
            ..WorkloadConfig::default()
        };
        let counts = generate(&config).unwrap().counts();
        assert_eq!(counts.searches + counts.stream_keys, 5_000);
        assert_eq!(counts.updates, 4_500);
        assert_eq!(counts.mix_deletes, 500);
        assert_eq!(counts.app_ops(), 10_000);
        assert_eq!(counts.evictions, 0, "no watermark configured");
    }

    #[test]
    fn watermark_keeps_the_live_set_bounded() {
        let config = WorkloadConfig {
            ops: 20_000,
            mix: OpMix::WRITE_HEAVY,
            prefill: 64,
            max_live: Some(100),
            ..WorkloadConfig::default()
        };
        let trace = generate(&config).unwrap();
        let counts = trace.counts();
        assert!(counts.evictions > 0, "write-heavy must hit the watermark");
        // Replay live-set accounting never exceeds the watermark.
        let mut live = trace.prefill.len() as i64;
        let mut peak = live;
        for record in &trace.records {
            match record.op {
                TraceOp::Update(_) => live += 1,
                TraceOp::Delete { .. } => live -= 1,
                _ => {}
            }
            peak = peak.max(live);
        }
        assert!(
            peak <= 101,
            "one transient over-watermark update, got {peak}"
        );
    }

    #[test]
    fn stream_batches_flush_at_cap_and_on_writes() {
        let config = WorkloadConfig {
            ops: 5_000,
            stream_batch: 16,
            ..WorkloadConfig::default()
        };
        let trace = generate(&config).unwrap();
        let mut full_batches = 0usize;
        for record in &trace.records {
            if let TraceOp::SearchStream(keys) = &record.op {
                assert!((2..=16).contains(&keys.len()));
                if keys.len() == 16 {
                    full_batches += 1;
                }
            }
        }
        // Back-to-back searches coalesce; at 90:9:1 most runs reach the
        // 16-key cap before an interleaved write flushes them.
        assert!(full_batches > 50, "got {full_batches} full batches");
        assert_eq!(trace.counts().app_ops(), 5_000);
    }

    #[test]
    fn bursty_arrival_produces_same_cycle_runs_and_idle_gaps() {
        let config = WorkloadConfig {
            ops: 5_000,
            arrival: Arrival::Bursty {
                mean_burst: 8,
                idle_ticks: 16,
            },
            stream_batch: 1,
            ..WorkloadConfig::default()
        };
        let trace = generate(&config).unwrap();
        let zero_gaps = trace.records.iter().filter(|r| r.gap == 0).count();
        let idle_gaps = trace.records.iter().filter(|r| r.gap > 1).count();
        assert!(zero_gaps > trace.records.len() / 2, "mostly mid-burst");
        assert!(idle_gaps > 0, "idle periods separate bursts");
        let max_gap = trace.records.iter().map(|r| r.gap).max().unwrap();
        assert!(max_gap <= 32, "idle gap bounded by 2 * idle_ticks");
    }

    #[test]
    fn churn_introduces_fresh_keys_beyond_the_zipf_domain() {
        let config = WorkloadConfig {
            ops: 10_000,
            mix: OpMix::WRITE_HEAVY,
            churn_per_mille: 250,
            max_live: Some(4096),
            ..WorkloadConfig::default()
        };
        let trace = generate(&config).unwrap();
        let fresh = trace
            .records
            .iter()
            .filter(|r| matches!(r.op, TraceOp::Update(key) if key >= config.key_space))
            .count();
        let updates = trace.counts().updates as usize;
        // 25% of updates churn, within generous statistical slack.
        assert!(
            (updates / 8..=updates / 2).contains(&fresh),
            "fresh {fresh} of {updates} updates"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = WorkloadConfig::default();
        let bad = |f: &dyn Fn(&mut WorkloadConfig)| {
            let mut c = base.clone();
            f(&mut c);
            generate(&c).unwrap_err()
        };
        assert_eq!(bad(&|c| c.ops = 0), WorkloadError::ZeroOps);
        assert!(matches!(
            bad(&|c| c.key_space = 0),
            WorkloadError::BadKeySpace { .. }
        ));
        assert_eq!(
            bad(&|c| c.mix = OpMix {
                search: 0,
                update: 0,
                delete: 0
            }),
            WorkloadError::EmptyMix
        );
        assert!(matches!(
            bad(&|c| c.zipf_s = -1.0),
            WorkloadError::BadSkew { .. }
        ));
        assert!(matches!(
            bad(&|c| c.max_live = Some(10)),
            WorkloadError::BadWatermark { .. }
        ));
        assert_eq!(
            bad(&|c| c.arrival = Arrival::Bursty {
                mean_burst: 0,
                idle_ticks: 4
            }),
            WorkloadError::BadArrival
        );
        // Errors render.
        assert!(WorkloadError::ZeroOps.to_string().contains("one op"));
    }
}
