//! The replayable trace artefact: a prefill set plus a gap-stamped
//! operation sequence, with exact counts and a stable digest.

use dsp_cam_core::pipelined::Op;
use serde::{Deserialize, Serialize};

/// One workload operation, in generator vocabulary (single-word updates
/// and key deletes; the streaming arm maps these onto
/// [`Op`] one-to-one).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Point search for one key.
    Search(u64),
    /// A coalesced batch of searches issued as one streamed op (one
    /// pipeline slot, `ceil(unique / groups)` bus cycles).
    SearchStream(Vec<u64>),
    /// Store one word.
    Update(u64),
    /// Delete the first stored match of `key`. `eviction` marks deletes
    /// the generator injected to hold the live set under its
    /// [`max_live`](crate::WorkloadConfig::max_live) watermark, as
    /// opposed to deletes drawn from the application op mix.
    Delete {
        /// Key to invalidate.
        key: u64,
        /// `true` for watermark evictions, `false` for mix deletes.
        eviction: bool,
    },
}

impl TraceOp {
    /// The streaming-pipeline form of this operation.
    #[must_use]
    pub fn to_op(&self) -> Op {
        match self {
            TraceOp::Search(key) => Op::Search(*key),
            TraceOp::SearchStream(keys) => Op::SearchStream(keys.clone()),
            TraceOp::Update(word) => Op::Update(vec![*word]),
            TraceOp::Delete { key, .. } => Op::Delete(*key),
        }
    }

    /// Number of presented keys (searches) or words (writes) — the unit
    /// of work the op carries.
    #[must_use]
    pub fn weight(&self) -> usize {
        match self {
            TraceOp::SearchStream(keys) => keys.len(),
            _ => 1,
        }
    }
}

/// One trace step: the arrival gap since the previous record's arrival
/// (0 = same cycle, i.e. mid-burst) and the operation itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Arrival-cycle delta from the previous record (the first record's
    /// gap is from cycle 0 of the replay).
    pub gap: u32,
    /// The operation arriving at that cycle.
    pub op: TraceOp,
}

/// Exact op-class counts for a trace — deterministic for a fixed seed
/// and config, and the first thing the differential suite compares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCounts {
    /// Point searches.
    pub searches: u64,
    /// Coalesced search-stream records.
    pub streams: u64,
    /// Keys presented across all stream records.
    pub stream_keys: u64,
    /// Single-word updates.
    pub updates: u64,
    /// Deletes drawn from the application op mix.
    pub mix_deletes: u64,
    /// Watermark-eviction deletes injected by the generator.
    pub evictions: u64,
}

impl TraceCounts {
    /// Total records in the trace.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.searches + self.streams + self.updates + self.mix_deletes + self.evictions
    }

    /// Total *application* operations — search keys (point and
    /// streamed) plus updates plus mix deletes; evictions are generator
    /// bookkeeping, not workload demand.
    #[must_use]
    pub fn app_ops(&self) -> u64 {
        self.searches + self.stream_keys + self.updates + self.mix_deletes
    }
}

/// A generated workload trace: prefill keys stored before the clock
/// starts, then gap-stamped operations. Byte-identical for a fixed seed
/// and config (the replayability contract), which [`Trace::digest`]
/// condenses into one comparable number.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Seed the generator ran with.
    pub seed: u64,
    /// Keys stored (in order) before replay begins.
    pub prefill: Vec<u64>,
    /// The gap-stamped operation sequence.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Exact per-class counts.
    #[must_use]
    pub fn counts(&self) -> TraceCounts {
        let mut counts = TraceCounts::default();
        for record in &self.records {
            match &record.op {
                TraceOp::Search(_) => counts.searches += 1,
                TraceOp::SearchStream(keys) => {
                    counts.streams += 1;
                    counts.stream_keys += keys.len() as u64;
                }
                TraceOp::Update(_) => counts.updates += 1,
                TraceOp::Delete { eviction, .. } => {
                    if *eviction {
                        counts.evictions += 1;
                    } else {
                        counts.mix_deletes += 1;
                    }
                }
            }
        }
        counts
    }

    /// The prefill set as one update payload (bus-width chunking is the
    /// replayer's concern).
    #[must_use]
    pub fn prefill_words(&self) -> &[u64] {
        &self.prefill
    }

    /// The operation sequence in streaming-pipeline form, gap dropped.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        self.records.iter().map(|r| r.op.to_op())
    }

    /// Arrival cycle of every record: prefix sums of the gaps, starting
    /// from `base`.
    #[must_use]
    pub fn arrivals(&self, base: u64) -> Vec<u64> {
        let mut at = base;
        self.records
            .iter()
            .map(|r| {
                at += u64::from(r.gap);
                at
            })
            .collect()
    }

    /// FNV-1a digest over the seed, prefill, gaps, and every op's tag
    /// and keys — one number that pins the whole artefact. Two traces
    /// with the same digest are byte-identical for all practical
    /// purposes; a regenerated trace with any config drift will not
    /// match.
    #[must_use]
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        mix(self.seed);
        mix(self.prefill.len() as u64);
        for &key in &self.prefill {
            mix(key);
        }
        for record in &self.records {
            mix(u64::from(record.gap));
            match &record.op {
                TraceOp::Search(key) => {
                    mix(1);
                    mix(*key);
                }
                TraceOp::SearchStream(keys) => {
                    mix(2);
                    mix(keys.len() as u64);
                    for &key in keys {
                        mix(key);
                    }
                }
                TraceOp::Update(word) => {
                    mix(3);
                    mix(*word);
                }
                TraceOp::Delete { key, eviction } => {
                    mix(4 + u64::from(*eviction));
                    mix(*key);
                }
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            seed: 9,
            prefill: vec![1, 2, 3],
            records: vec![
                TraceRecord {
                    gap: 1,
                    op: TraceOp::Search(2),
                },
                TraceRecord {
                    gap: 0,
                    op: TraceOp::SearchStream(vec![1, 3, 5]),
                },
                TraceRecord {
                    gap: 4,
                    op: TraceOp::Update(7),
                },
                TraceRecord {
                    gap: 1,
                    op: TraceOp::Delete {
                        key: 1,
                        eviction: false,
                    },
                },
                TraceRecord {
                    gap: 0,
                    op: TraceOp::Delete {
                        key: 2,
                        eviction: true,
                    },
                },
            ],
        }
    }

    #[test]
    fn counts_classify_every_record() {
        let counts = sample().counts();
        assert_eq!(counts.searches, 1);
        assert_eq!(counts.streams, 1);
        assert_eq!(counts.stream_keys, 3);
        assert_eq!(counts.updates, 1);
        assert_eq!(counts.mix_deletes, 1);
        assert_eq!(counts.evictions, 1);
        assert_eq!(counts.records(), 5);
        assert_eq!(
            counts.app_ops(),
            6,
            "3 streamed keys + search + update + delete"
        );
    }

    #[test]
    fn arrivals_are_gap_prefix_sums() {
        assert_eq!(sample().arrivals(10), vec![11, 11, 15, 16, 16]);
    }

    #[test]
    fn digest_is_sensitive_to_every_field() {
        let base = sample();
        let d = base.digest();
        assert_eq!(d, sample().digest(), "digest is deterministic");

        let mut t = sample();
        t.records[0].gap = 2;
        assert_ne!(t.digest(), d, "gap change must move the digest");

        let mut t = sample();
        t.records[3].op = TraceOp::Delete {
            key: 1,
            eviction: true,
        };
        assert_ne!(t.digest(), d, "eviction flag is digested");

        let mut t = sample();
        t.prefill[0] = 99;
        assert_ne!(t.digest(), d, "prefill is digested");
    }

    #[test]
    fn to_op_maps_each_variant() {
        use dsp_cam_core::pipelined::Op;
        let trace = sample();
        let ops: Vec<Op> = trace.ops().collect();
        assert_eq!(ops[0], Op::Search(2));
        assert_eq!(ops[1], Op::SearchStream(vec![1, 3, 5]));
        assert_eq!(ops[2], Op::Update(vec![7]));
        assert_eq!(ops[3], Op::Delete(1));
        assert_eq!(trace.records[1].op.weight(), 3);
        assert_eq!(trace.records[0].op.weight(), 1);
    }
}
