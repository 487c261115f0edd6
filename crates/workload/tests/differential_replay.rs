//! Differential trace replay: a generated workload replayed through
//! cycle-accurate `StreamingCam` ticks must be observationally
//! identical to the same trace applied through direct transaction-level
//! `CamUnit` calls — per-pipe completion streams, the unit snapshot,
//! and per-block counters at quiescence — across both fidelity tiers,
//! worker counts 1 and 4 (persistent-pool dispatch), and with
//! the write buffer on and off.
//!
//! The two arms intentionally differ in *global* completion order (the
//! update pipe is one stage shorter than the search pipe) and in idle
//! tick counts (the streaming arm drains its write buffer in arrival
//! gaps); neither may leak into any compared observable.

use dsp_cam_core::prelude::*;
use dsp_cam_workload::{
    direct_unit, generate, replay_direct, replay_streaming, split_by_pipe, streaming_cam, Arrival,
    OpMix, WorkloadConfig,
};
use proptest::prelude::*;

fn unit_config(fidelity: FidelityMode, workers: usize, buffered: bool) -> UnitConfig {
    let mut builder = UnitConfig::builder()
        .data_width(16)
        .block_size(8)
        .num_blocks(4)
        .bus_width(64)
        .fidelity(fidelity)
        .workers(workers);
    if buffered {
        builder = builder.write_buffer(WriteBufferConfig {
            capacity: 16,
            drain_per_tick: 2,
            bypass: false,
        });
    }
    builder.build().expect("valid unit config")
}

/// Random-but-valid workload configs: every arrival process, both
/// canonical mixes plus a delete-heavy one, coalescing on and off, with
/// and without churn and the eviction watermark.
fn workload_config() -> impl Strategy<Value = WorkloadConfig> {
    let mix = prop_oneof![
        Just(OpMix::READ_HEAVY),
        Just(OpMix::WRITE_HEAVY),
        Just(OpMix {
            search: 40,
            update: 35,
            delete: 25
        }),
    ];
    let arrival = prop_oneof![
        Just(Arrival::BackToBack),
        (0u32..3).prop_map(|gap| Arrival::Uniform { gap }),
        (1u32..8, 1u32..12).prop_map(|(mean_burst, idle_ticks)| Arrival::Bursty {
            mean_burst,
            idle_ticks
        }),
    ];
    (
        any::<u64>(),
        30u64..120,
        mix,
        arrival,
        prop_oneof![Just(1usize), Just(4), Just(8)],
        0u32..400,
        0u64..10,
    )
        .prop_map(
            |(seed, ops, mix, arrival, stream_batch, churn_per_mille, prefill)| WorkloadConfig {
                seed,
                ops,
                key_space: 48,
                zipf_s: 0.9,
                mix,
                stream_batch,
                arrival,
                churn_per_mille,
                prefill,
                max_live: Some(24.max(prefill as usize)),
                eviction_min_gap: 1,
            },
        )
}

/// Per-block observable counters (occupancy, cycles, update beats,
/// searches) — the same projection the tier-equivalence suite pins.
fn block_counters(cam: &CamUnit) -> Vec<(usize, u64, u64, u64)> {
    cam.blocks()
        .iter()
        .map(|b| (b.len(), b.cycles(), b.update_beats(), b.searches()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_replay_matches_direct_calls_across_tiers_workers_and_buffering(
        workload in workload_config(),
    ) {
        let trace = generate(&workload).expect("strategy yields valid configs");
        for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            for workers in [1usize, 4] {
                for buffered in [false, true] {
                    let config = unit_config(fidelity, workers, buffered);
                    let mut cam = streaming_cam(config, 2);
                    let streamed = replay_streaming(&trace, &mut cam);
                    let mut unit = direct_unit(config, 2);
                    let direct = replay_direct(&trace, &mut unit);

                    let label = format!(
                        "{fidelity:?} workers={workers} buffered={buffered}"
                    );
                    let (stream_writes, stream_searches) = split_by_pipe(&streamed.completions);
                    let (direct_writes, direct_searches) = split_by_pipe(&direct.completions);
                    prop_assert_eq!(
                        stream_writes, direct_writes,
                        "write-pipe completions diverged [{}]", &label
                    );
                    prop_assert_eq!(
                        stream_searches, direct_searches,
                        "search-pipe completions diverged [{}]", &label
                    );
                    prop_assert_eq!(
                        cam.unit().snapshot(), unit.snapshot(),
                        "quiescent snapshot diverged [{}]", &label
                    );
                    prop_assert_eq!(
                        block_counters(cam.unit()), block_counters(&unit),
                        "block counters diverged [{}]", &label
                    );
                    prop_assert_eq!(cam.buffer_depth(), 0, "streaming arm not quiescent");
                    prop_assert_eq!(unit.write_buffer_depth(), 0, "direct arm not quiescent");
                    prop_assert_eq!(cam.audit_shadows(), 0, "shadow divergence [{}]", &label);
                }
            }
        }
    }

    #[test]
    fn replay_is_deterministic_per_seed(workload in workload_config()) {
        let trace_a = generate(&workload).unwrap();
        let trace_b = generate(&workload).unwrap();
        prop_assert_eq!(&trace_a, &trace_b, "same config must regenerate identically");
        prop_assert_eq!(trace_a.digest(), trace_b.digest());

        let run = |trace: &dsp_cam_workload::Trace| {
            let mut cam = streaming_cam(unit_config(FidelityMode::Turbo, 1, true), 2);
            let outcome = replay_streaming(trace, &mut cam);
            (outcome.completions, outcome.records, outcome.ticks)
        };
        prop_assert_eq!(run(&trace_a), run(&trace_b), "replay must be cycle-deterministic");
    }
}
