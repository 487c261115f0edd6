//! `ingest_churn`: an open loop in simulated time. `replay_cluster`
//! drives a bursty write-heavy trace through a 4-shard `CamCluster`
//! whose shards absorb writes in their write buffers and drain them on
//! idle ticks — the only workload on the full path plan → shard issue →
//! write-buffer sync → kernel → retire.

use std::time::Instant;

use dsp_cam_cluster::{replay_cluster, CamCluster, ClusterReplayOutcome, IngestConfig};
use dsp_cam_core::prelude::*;
use dsp_cam_workload::{generate, percentile, Arrival, OpMix, WorkloadConfig};

use crate::report::{median, Report};
use crate::spans::Spans;
use crate::{modelled_ns_note, throughput, Ctx, Oracle};

const SHARDS: usize = 4;
const SHARD_CELLS: usize = 2048;
const BLOCK_SIZE: usize = 256;
const RING_SLOTS: usize = 256;
/// Application ops per episode: enough that runs on different seeds
/// see the same op mix (at 50,000 ops the seed alone moved host ops/s
/// by ~10%), short enough for ~30 episodes a run.
const EPISODE_OPS: u64 = 200_000;

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        ops: EPISODE_OPS,
        key_space: 8192,
        zipf_s: 0.8,
        mix: OpMix::WRITE_HEAVY,
        stream_batch: 8,
        arrival: Arrival::Bursty {
            mean_burst: 64,
            idle_ticks: 48,
        },
        churn_per_mille: 20,
        prefill: 4096,
        max_live: Some(5600),
        eviction_min_gap: 1,
    }
}

fn shard_config() -> UnitConfig {
    UnitConfig::builder()
        .data_width(32)
        .block_size(BLOCK_SIZE)
        .num_blocks(SHARD_CELLS / BLOCK_SIZE)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .batch_width(32)
        .write_buffer(WriteBufferConfig {
            capacity: 256,
            drain_per_tick: 4,
            bypass: false,
        })
        .build()
        .expect("shard geometry is valid")
}

/// A fresh prefilled cluster; `(cluster, new_ns, prefill_ns)`.
fn prefilled(spans: &mut Spans, prefill: &[u64]) -> (CamCluster, u64, u64) {
    let (cluster, new_ns) = spans.call("cluster.new", None, || {
        CamCluster::new(shard_config(), SHARDS, RING_SLOTS).expect("valid cluster")
    });
    let mut cluster = cluster;
    let (stored, prefill_ns) = spans.call("cluster.prefill", None, || cluster.prefill(prefill));
    stored.expect("the prefill fits the cluster");
    (cluster, new_ns, prefill_ns)
}

/// Everything deterministic one replay produced.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    ticks: u64,
    issued: u64,
    completions: u64,
    dropped: u64,
    rejected: u64,
    shed: u64,
    search_hits: u64,
    delete_hits: u64,
    live: u64,
    peak_queue_depth: u64,
    head_of_line_stalls: u64,
    retire_p50: u64,
    retire_p99: u64,
    worst_shard_p99: u64,
    per_shard_retired: Vec<u64>,
    /// Summed over shards: absorbed updates, drained ops, search
    /// flushes, overflows, peak depth.
    queue: [u64; 5],
}

/// Write-buffer counters summed over shards, in [`Counts::queue`] order.
fn queue_sums(cluster: &CamCluster) -> [u64; 5] {
    let mut sums = [0u64; 5];
    for i in 0..SHARDS {
        let r = cluster.shard(i).unit().write_buffer_report();
        let values = [
            r.absorbed_updates,
            r.drained_ops,
            r.search_flushes,
            r.overflows,
            r.peak_depth as u64,
        ];
        for (sum, v) in sums.iter_mut().zip(values) {
            *sum += v;
        }
    }
    sums
}

/// `before` holds the write-buffer counters after the prefill, so the
/// counts cover the replay alone (the peak depth is a high-water mark).
fn counts(out: &ClusterReplayOutcome, cluster: &CamCluster, before: [u64; 5]) -> Counts {
    let all: Vec<u64> = out.per_shard_latencies.iter().flatten().copied().collect();
    let mut queue = queue_sums(cluster);
    for (sum, b) in queue.iter_mut().zip(before).take(4) {
        *sum -= b;
    }
    Counts {
        ticks: out.ticks,
        issued: out.issued,
        completions: out.completions,
        dropped: out.dropped,
        rejected: out.update_rejections,
        shed: out.shed_writes + out.infra_failures,
        search_hits: out.search_hits,
        delete_hits: out.delete_hits,
        live: (0..SHARDS)
            .map(|i| cluster.shard(i).unit().len() as u64)
            .sum(),
        peak_queue_depth: out.peak_queue_depth as u64,
        head_of_line_stalls: out.head_of_line_stalls,
        retire_p50: percentile(&all, 50.0),
        retire_p99: percentile(&all, 99.0),
        worst_shard_p99: (0..SHARDS)
            .map(|i| out.shard_percentiles(i).1)
            .max()
            .unwrap_or(0),
        per_shard_retired: out
            .per_shard_latencies
            .iter()
            .map(|l| l.len() as u64)
            .collect(),
        queue,
    }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let seed = ctx.seed;
    let mut setup_fn = |spans: &mut Spans| {
        let (trace, generate_ns) = spans.call("workload.generate", None, || {
            generate(&workload(seed)).expect("ingest workload config is valid")
        });
        let (_, new_ns, prefill_ns) = prefilled(spans, trace.prefill_words());
        let secs = |ns: u64| ns as f64 / 1e9;
        let parts = vec![
            ("workload.generate_s", secs(generate_ns)),
            ("cluster.new_s", secs(new_ns)),
            ("cluster.prefill_s", secs(prefill_ns)),
        ];
        (trace, parts)
    };
    let mut trace = ctx.first_set_up(&mut setup_fn);
    let digest = trace.digest();
    let mut oracle = Oracle::from_prefill(&trace);
    let (want_hits, want_delete_hits) = oracle.replay(&trace);
    let want_live = oracle.live();
    let counts_of_trace = trace.counts();
    let app_ops = counts_of_trace.app_ops();
    // The cluster is prefilled before the clock starts; the replayed
    // trace carries the records only.
    let prefill = std::mem::take(&mut trace.prefill);

    let mut all: Vec<Counts> = Vec::new();
    let samples = ctx.run_window(&mut setup_fn, |spans| {
        let (mut cluster, _, _) = prefilled(spans, &prefill);
        let before = queue_sums(&cluster);
        let start = Instant::now();
        let (out, _) = spans.call("cluster.replay", None, || {
            replay_cluster(&trace, &mut cluster, &IngestConfig::default())
        });
        let secs = start.elapsed().as_secs_f64();
        let out = out.expect("a fault-free replay without migration cannot fail");
        all.push(counts(&out, &cluster, before));
        vec![(app_ops, secs)]
    });

    let c = all[0].clone();
    let keys = counts_of_trace.searches + counts_of_trace.stream_keys;
    report.attempted = all.len() as u64
        * (keys
            + counts_of_trace.updates
            + counts_of_trace.mix_deletes
            + counts_of_trace.evictions);
    for e in &all {
        report.fail(e.dropped, "dropped ops");
        report.fail(
            e.issued.abs_diff(e.completions),
            "issued ops that never completed",
        );
        report.fail(e.rejected, "updates refused at admission");
        report.fail(e.shed, "writes shed or lost to infrastructure failures");
        report.fail(
            e.search_hits.abs_diff(want_hits),
            "search hits differ from the oracle",
        );
        report.fail(
            e.delete_hits.abs_diff(want_delete_hits),
            "delete hits differ from the oracle",
        );
        report.fail(
            e.live.abs_diff(want_live),
            "shard contents differ from the oracle's live count",
        );
    }
    let drifted = all.iter().filter(|e| **e != c).count() as u64;
    report.fail(drifted, "episodes replaying one trace disagree on counts");

    throughput(&mut report, &samples);
    let cycles_per_op = c.ticks as f64 / app_ops as f64;
    report.set("sim_cycles_per_op", cycles_per_op);
    report.set("sim_retire_p50_cycles", c.retire_p50 as f64);
    report.set("sim_retire_p99_cycles", c.retire_p99 as f64);
    report.pin("trace.digest", format!("{digest:#018x}"));
    report.pin("sim_cycles_per_op", cycles_per_op);
    report.pin("sim_retire_p50_cycles", c.retire_p50);
    report.pin("sim_retire_p99_cycles", c.retire_p99);
    report.count("workload.records", trace.records.len() as u64);
    report.count("cluster.ticks", c.ticks);
    report.count("cluster.issued", c.issued);
    report.count("cluster.peak_queue_depth", c.peak_queue_depth);
    report.count("cluster.head_of_line_stalls", c.head_of_line_stalls);
    report.count("cluster.worst_shard_retire_p99_cycles", c.worst_shard_p99);
    let retired = c.per_shard_retired.iter().sum::<u64>() as f64;
    let max = c.per_shard_retired.iter().copied().max().unwrap_or(0) as f64;
    report.set("cluster.shard_skew", max / (retired / SHARDS as f64));
    report.pin(
        "cluster.per_shard_retired",
        format!("{:?}", c.per_shard_retired),
    );
    let [absorbed, drained, flushes, overflows, peak] = c.queue;
    report.count("update_queue.absorbed_updates", absorbed);
    report.count("update_queue.drained_ops", drained);
    report.count("update_queue.search_flushes", flushes);
    report.count("update_queue.overflows", overflows);
    report.count("update_queue.peak_depth", peak);
    report.set(
        "update_queue.flushes_per_search",
        flushes as f64 / keys as f64,
    );
    let replay_secs: Vec<f64> = samples
        .iter()
        .filter(|s| !s.recorded)
        .map(|s| s.secs)
        .collect();
    report.set(
        "cluster.host_ns_per_tick",
        median(&replay_secs) * 1e9 / c.ticks as f64,
    );
    if ctx.traced {
        report.set("cluster.replay_s", ctx.busy_s("cluster.replay"));
    }
    modelled_ns_note(&mut report, SHARD_CELLS as u64, cycles_per_op);
    report
}
