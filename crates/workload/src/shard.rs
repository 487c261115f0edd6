//! Shard-splitting for multi-unit replay: partition one trace into
//! per-shard subtraces under a caller-supplied routing function, and
//! compress arrival gaps to saturation for closed-loop throughput runs.
//!
//! The routing function is a plain `Fn(u64) -> usize` closure so this
//! crate stays independent of any particular cluster implementation —
//! the cluster crate passes its consistent-hash ring's `shard_of`.

use crate::trace::{Trace, TraceOp, TraceRecord};

/// Split `trace` into `num_shards` subtraces, routing every key through
/// `shard_of` (which must return values below `num_shards`).
///
/// Prefill keys are partitioned the same way. A [`TraceOp::SearchStream`]
/// record is split into one stream record per shard that owns at least
/// one of its keys (relative key order preserved). Each subtrace keeps
/// the original absolute arrival cycles, re-expressed as gaps from the
/// shard's own previous record — replaying a subtrace alone presents
/// its ops at the same cycles the combined trace would have.
///
/// # Panics
///
/// Panics when `num_shards` is zero or `shard_of` routes out of range.
#[must_use]
pub fn split_trace(
    trace: &Trace,
    num_shards: usize,
    shard_of: impl Fn(u64) -> usize,
) -> Vec<Trace> {
    assert!(num_shards > 0, "cannot split a trace across zero shards");
    let route = |key: u64| {
        let shard = shard_of(key);
        assert!(shard < num_shards, "shard_of({key}) = {shard} out of range");
        shard
    };
    let mut shards: Vec<Trace> = (0..num_shards)
        .map(|_| Trace {
            seed: trace.seed,
            prefill: Vec::new(),
            records: Vec::new(),
        })
        .collect();
    for &key in &trace.prefill {
        shards[route(key)].prefill.push(key);
    }
    // Last emitted arrival per shard, for gap recomputation.
    let mut last: Vec<u64> = vec![0; num_shards];
    let mut at: u64 = 0;
    for record in &trace.records {
        at += u64::from(record.gap);
        let mut emit = |shard: usize, op: TraceOp| {
            let gap = u32::try_from(at - last[shard]).expect("gap fits the source trace's u32");
            last[shard] = at;
            shards[shard].records.push(TraceRecord { gap, op });
        };
        match &record.op {
            TraceOp::Search(key) => emit(route(*key), TraceOp::Search(*key)),
            TraceOp::Update(word) => emit(route(*word), TraceOp::Update(*word)),
            TraceOp::Delete { key, eviction } => emit(
                route(*key),
                TraceOp::Delete {
                    key: *key,
                    eviction: *eviction,
                },
            ),
            TraceOp::SearchStream(keys) => {
                let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); num_shards];
                for &key in keys {
                    per_shard[route(key)].push(key);
                }
                for (shard, sub) in per_shard.into_iter().enumerate() {
                    if !sub.is_empty() {
                        emit(shard, TraceOp::SearchStream(sub));
                    }
                }
            }
        }
    }
    shards
}

/// The same trace with every arrival gap forced to zero: a closed-loop
/// (saturation) presentation where the replayer is never idle waiting
/// on an arrival — the shape throughput benchmarks want.
#[must_use]
pub fn compress_gaps(trace: &Trace) -> Trace {
    Trace {
        seed: trace.seed,
        prefill: trace.prefill.clone(),
        records: trace
            .records
            .iter()
            .map(|r| TraceRecord {
                gap: 0,
                op: r.op.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            seed: 3,
            prefill: vec![0, 1, 2, 3, 4, 5],
            records: vec![
                TraceRecord {
                    gap: 2,
                    op: TraceOp::Search(4),
                },
                TraceRecord {
                    gap: 0,
                    op: TraceOp::SearchStream(vec![0, 1, 2, 3]),
                },
                TraceRecord {
                    gap: 3,
                    op: TraceOp::Update(5),
                },
                TraceRecord {
                    gap: 1,
                    op: TraceOp::Delete {
                        key: 2,
                        eviction: true,
                    },
                },
            ],
        }
    }

    #[test]
    fn split_partitions_every_key_and_preserves_arrivals() {
        let trace = sample();
        let shards = split_trace(&trace, 2, |key| (key % 2) as usize);

        let prefill: Vec<u64> = shards.iter().flat_map(|s| s.prefill.clone()).collect();
        let mut sorted = prefill.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, trace.prefill, "prefill partitioned losslessly");
        assert_eq!(shards[0].prefill, vec![0, 2, 4]);
        assert_eq!(shards[1].prefill, vec![1, 3, 5]);

        // Absolute arrivals survive the per-shard gap recomputation.
        assert_eq!(
            shards[0].arrivals(0).collect::<Vec<_>>(),
            vec![2, 2, 6],
            "even shard"
        );
        assert_eq!(
            shards[1].arrivals(0).collect::<Vec<_>>(),
            vec![2, 5],
            "odd shard"
        );
        assert_eq!(
            shards[0].records[1].op,
            TraceOp::SearchStream(vec![0, 2]),
            "stream split keeps relative key order"
        );
        assert_eq!(shards[1].records[0].op, TraceOp::SearchStream(vec![1, 3]));
        assert_eq!(
            shards[0].records[2].op,
            TraceOp::Delete {
                key: 2,
                eviction: true
            }
        );
        assert_eq!(shards[1].records[1].op, TraceOp::Update(5));

        let total: u64 = shards.iter().map(|s| s.counts().app_ops()).sum();
        assert_eq!(
            total,
            trace.counts().app_ops(),
            "no op dropped or duplicated"
        );
    }

    #[test]
    fn single_shard_split_round_trips_the_ops() {
        let trace = sample();
        let shards = split_trace(&trace, 1, |_| 0);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].prefill, trace.prefill);
        assert!(shards[0].arrivals(0).eq(trace.arrivals(0)));
        assert_eq!(shards[0].counts(), trace.counts());
    }

    #[test]
    fn compress_gaps_zeroes_arrivals_only() {
        let trace = sample();
        let flat = compress_gaps(&trace);
        assert!(flat.records.iter().all(|r| r.gap == 0));
        assert_eq!(flat.counts(), trace.counts());
        assert_eq!(flat.prefill, trace.prefill);
        assert!(flat.arrivals(7).eq([7; 4]));
    }
}
