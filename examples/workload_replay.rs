//! Workload replay drill: generate a fixed-seed Zipfian mixed-op trace
//! and replay it through both execution arms — the cycle-accurate
//! [`StreamingCam`] pipeline and the transaction-level [`CamUnit`]
//! path — proving they observe the same completions and converge on the
//! same quiescent state.
//!
//! Everything printed here is deterministic: the trace digest, the op
//! counts, the streaming cycle count, and the end-to-end retire-latency
//! percentiles reproduce bit-for-bit on any machine and feature set.
//! The full-scale (million-op) version of this loop backs
//! `BENCH_workloads.json` via `cargo test --release -p dsp-cam-bench
//! -- --ignored workload_smoke`.
//!
//! Run with: `cargo run --example workload_replay` (optionally `--features obs`)

use dsp_cam::prelude::*;
use dsp_cam_workload::{
    direct_unit, generate, percentile, replay_direct, replay_streaming, split_by_pipe,
    streaming_cam, Arrival, OpMix, WorkloadConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small bursty, write-leaning session: Zipf 0.9 key popularity,
    // 8-key stream coalescing, on/off arrival, a drifting live set.
    let workload = WorkloadConfig {
        seed: 0xD15C_0B01,
        ops: 4_000,
        key_space: 512,
        zipf_s: 0.9,
        mix: OpMix::WRITE_HEAVY,
        stream_batch: 8,
        // 12-record bursts with ~24 idle cycles between them: writes do
        // not coalesce, so each burst needs ~12 issue cycles — the idle
        // window drains the backlog and the tail stays bounded.
        arrival: Arrival::Bursty {
            mean_burst: 12,
            idle_ticks: 24,
        },
        churn_per_mille: 50,
        prefill: 192,
        max_live: Some(320),
        eviction_min_gap: 1,
    };
    let trace = generate(&workload)?;
    let counts = trace.counts();
    println!(
        "trace {:#x}: {} app ops ({} searches, {} stream batches / {} keys, \
         {} updates, {} deletes + {} evictions), digest {:#018x}",
        workload.seed,
        counts.app_ops(),
        counts.searches,
        counts.streams,
        counts.stream_keys,
        counts.updates,
        counts.mix_deletes,
        counts.evictions,
        trace.digest()
    );

    // Both arms share one geometry: Turbo tier, two replicated groups,
    // a 64-slot write buffer draining 4 staged ops per idle tick.
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(128)
        .num_blocks(4)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .batch_width(32)
        .write_buffer(WriteBufferConfig {
            capacity: 64,
            drain_per_tick: 4,
            bypass: false,
        })
        .build()?;

    // Arm 1: the cycle-accurate streaming pipeline, ops issued on their
    // trace arrival cycles, each completion drained with its retire
    // stamps.
    let mut cam = streaming_cam(config, 2);
    let streaming = replay_streaming(&trace, &mut cam);
    println!(
        "streaming arm: {} completions in {} cycles ({:.3} cycles/op), buffer quiescent",
        streaming.completions.len(),
        streaming.ticks,
        streaming.ticks as f64 / counts.app_ops() as f64
    );

    // Arm 2: direct transaction calls against a CamUnit, trace order.
    let mut unit = direct_unit(config, 2);
    let direct = replay_direct(&trace, &mut unit);

    // Cross-arm agreement: per-pipe completion streams are identical
    // (global retire order legitimately differs: the update pipe is one
    // stage shorter than the search pipe).
    let (s_write, s_search) = split_by_pipe(&streaming.completions);
    let (d_write, d_search) = split_by_pipe(&direct.completions);
    assert_eq!(s_write, d_write, "write-pipe completions must agree");
    assert_eq!(s_search, d_search, "search-pipe completions must agree");
    assert_eq!(
        cam.unit().snapshot(),
        unit.snapshot(),
        "quiescent counters must agree"
    );
    assert_eq!(cam.buffer_depth(), 0, "streaming buffer drained");
    assert_eq!(cam.audit_shadows(), 0, "shadow indexes coherent");
    println!(
        "cross-arm agreement: {} write-pipe + {} search-pipe completions identical, \
         snapshots equal",
        s_write.len(),
        s_search.len()
    );

    // End-to-end retire latency from the streaming arm's retire stamps:
    // arrival cycle -> retire cycle, queueing included. Deterministic.
    let latencies = &streaming.latencies;
    println!(
        "retire latency: p50 {} / p99 {} / max {} cycles over {} retirements",
        percentile(latencies, 50.0),
        percentile(latencies, 99.0),
        latencies.iter().copied().max().unwrap_or(0),
        latencies.len()
    );
    println!(
        "hits: {} search, {} delete; {} admission rejections (both arms identical)",
        streaming.search_hits, streaming.delete_hits, streaming.update_rejections
    );
    assert_eq!(streaming.search_hits, direct.search_hits);
    assert_eq!(streaming.update_rejections, direct.update_rejections);

    println!("workload replay drill complete.");
    Ok(())
}
