//! End-to-end trace-driven workload runner and the machine-readable
//! `BENCH_workloads.json` artefact tracked across PRs.
//!
//! Each canonical scenario generates a seeded million-op trace
//! (`dsp-cam-workload`) and replays it through *both* arms — the
//! cycle-accurate `StreamingCam` pipeline and the transaction-level
//! `CamUnit` calls — measuring
//! wall-clock op throughput per arm and p50/p99 end-to-end retire
//! latency in cycles from the streaming arm's retire log. Cross-arm
//! agreement (per-pipe completions and the quiescent snapshot) is
//! asserted on every run, so the perf numbers can never drift away
//! from a correct replay.
//!
//! Cycle-latency percentiles and trace digests are deterministic (same
//! seed + config on any machine, any feature set); only the ops/sec
//! fields are wall-clock noisy. `scripts/ci.sh` enforces the floors in
//! release mode via [`workload_smoke`](self#release-floors).

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use dsp_cam_core::prelude::*;
use dsp_cam_workload::{
    direct_unit, generate, percentile, replay_direct, replay_streaming, split_by_pipe,
    streaming_cam, Arrival, OpMix, TraceCounts, WorkloadConfig,
};

use crate::failover::{
    measure_degraded_mode, DegradedModeRow, DEGRADED_AVAILABILITY_FLOOR,
    DEGRADED_RECOVERY_TICKS_CEILING,
};

/// Ops in the `degraded_mode` scenario. The cycle-accurate cluster
/// ingest loop is ~50× slower per op than the replay arms, so the
/// scenario runs at drill scale, not [`SCENARIO_OPS`] — every recorded
/// number is deterministic regardless.
pub const DEGRADED_MODE_OPS: u64 = 15_000;

/// Entries across the scenario unit's four replicated groups.
pub const SCENARIO_ENTRIES: usize = 8192;

/// Ops per canonical scenario recorded in `BENCH_workloads.json`.
pub const SCENARIO_OPS: u64 = 1_000_000;

/// Regression floors and ceilings for one scenario. Throughput floors
/// are wall-clock (release-mode only, sized ~3× under the reference
/// machine); latency ceilings are in cycles and *deterministic* — a
/// violated ceiling means the replay schedule itself changed, not that
/// the machine was slow.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadFloors {
    /// Minimum streaming-arm application ops/sec (wall clock, release).
    pub streaming_min_ops_per_sec: f64,
    /// Minimum direct-arm application ops/sec (wall clock, release).
    pub direct_min_ops_per_sec: f64,
    /// Ceiling on the p50 end-to-end retire latency in cycles.
    pub p50_retire_cycles_ceiling: u64,
    /// Ceiling on the p99 end-to-end retire latency in cycles.
    pub p99_retire_cycles_ceiling: u64,
}

/// One canonical workload scenario: a name, the generator config, and
/// whether the scenario unit runs its write buffer.
#[derive(Debug, Clone)]
pub struct WorkloadScenario {
    /// Stable scenario name (JSON key, CI log label).
    pub name: &'static str,
    /// Generator configuration (seed included).
    pub workload: WorkloadConfig,
    /// Whether the unit runs the CAM-fronted write buffer.
    pub write_buffer: bool,
    /// Release-mode regression floors.
    pub floors: WorkloadFloors,
}

/// The three canonical scenarios behind `BENCH_workloads.json`:
///
/// * `read_heavy` — 90:9:1 at Zipf 0.8, back-to-back arrival, 16-key
///   stream coalescing, write buffer off: the saturated lookup plane.
/// * `write_heavy` — 50:45:5 at Zipf 0.8, back-to-back arrival, 8-key
///   coalescing, write buffer on: update interference under load.
/// * `bursty_zipfian` — 90:9:1 at Zipf 1.0, on/off arrival (mean burst
///   64 ops, mean idle 48 cycles), write buffer on: queueing latency
///   and idle-tick drain.
#[must_use]
pub fn canonical_scenarios() -> Vec<WorkloadScenario> {
    let base = WorkloadConfig {
        ops: SCENARIO_OPS,
        key_space: 4096,
        prefill: 1536,
        max_live: Some(1900),
        churn_per_mille: 20,
        ..WorkloadConfig::default()
    };
    vec![
        WorkloadScenario {
            name: "read_heavy",
            workload: WorkloadConfig {
                seed: 0xA11CE,
                zipf_s: 0.8,
                mix: OpMix::READ_HEAVY,
                stream_batch: 16,
                arrival: Arrival::BackToBack,
                ..base.clone()
            },
            write_buffer: false,
            // Reference machine: ~200k ops/s streaming, ~174k direct;
            // retire p50/p99/max 6/8/8 cycles at 1M ops.
            floors: WorkloadFloors {
                streaming_min_ops_per_sec: 60_000.0,
                direct_min_ops_per_sec: 55_000.0,
                p50_retire_cycles_ceiling: 12,
                p99_retire_cycles_ceiling: 16,
            },
        },
        WorkloadScenario {
            name: "write_heavy",
            workload: WorkloadConfig {
                seed: 0xB0B,
                zipf_s: 0.8,
                mix: OpMix::WRITE_HEAVY,
                stream_batch: 8,
                arrival: Arrival::BackToBack,
                ..base.clone()
            },
            write_buffer: true,
            // Reference machine: ~61k ops/s both arms (update-dominated,
            // every write replicated into 4 groups); retire p50/p99/max
            // 6/8/8 cycles at 1M ops.
            floors: WorkloadFloors {
                streaming_min_ops_per_sec: 20_000.0,
                direct_min_ops_per_sec: 20_000.0,
                p50_retire_cycles_ceiling: 12,
                p99_retire_cycles_ceiling: 16,
            },
        },
        WorkloadScenario {
            name: "bursty_zipfian",
            workload: WorkloadConfig {
                seed: 0xBEE5,
                zipf_s: 1.0,
                mix: OpMix::READ_HEAVY,
                stream_batch: 16,
                arrival: Arrival::Bursty {
                    mean_burst: 64,
                    idle_ticks: 48,
                },
                ..base
            },
            write_buffer: true,
            // Reference machine: ~188k ops/s streaming, ~217k direct;
            // retire p50/p99/max 19/61/133 cycles at 1M ops — bursts
            // queue behind the single issue slot, so the tail is real.
            floors: WorkloadFloors {
                streaming_min_ops_per_sec: 60_000.0,
                direct_min_ops_per_sec: 65_000.0,
                p50_retire_cycles_ceiling: 32,
                p99_retire_cycles_ceiling: 96,
            },
        },
    ]
}

/// The scenario unit: Turbo tier, four replicated groups, 32-key batch
/// kernel, optionally write-buffered.
fn scenario_unit_config(entries: usize, write_buffer: bool) -> UnitConfig {
    let block_size = (entries / 4).min(256);
    let mut builder = UnitConfig::builder()
        .data_width(32)
        .block_size(block_size)
        .num_blocks(entries / block_size)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .batch_width(32);
    if write_buffer {
        builder = builder.write_buffer(WriteBufferConfig {
            capacity: 256,
            drain_per_tick: 4,
            bypass: false,
        });
    }
    builder.build().expect("scenario geometry is valid")
}

/// Everything one scenario run produced. `digest`, `counts`, `ticks`
/// and the cycle percentiles are deterministic; the two ops/sec fields
/// are wall clock.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// Application ops actually replayed.
    pub counts: TraceCounts,
    /// Trace digest (pins the generated artefact).
    pub digest: u64,
    /// Streaming-arm cycles from first arrival to quiescence.
    pub ticks: u64,
    /// Streaming-arm application ops per wall-clock second.
    pub streaming_ops_per_sec: f64,
    /// Direct-arm application ops per wall-clock second.
    pub direct_ops_per_sec: f64,
    /// p50 end-to-end retire latency, cycles.
    pub p50_retire_cycles: u64,
    /// p99 end-to-end retire latency, cycles.
    pub p99_retire_cycles: u64,
    /// Worst-case end-to-end retire latency, cycles.
    pub max_retire_cycles: u64,
    /// Matching keys across both arms (equal by construction).
    pub search_hits: u64,
}

impl ScenarioResult {
    /// Streaming cycles per application op — the II = 1 sanity number.
    #[must_use]
    pub fn cycles_per_op(&self) -> f64 {
        self.ticks as f64 / self.counts.app_ops() as f64
    }
}

/// Generate the scenario's trace (at `ops` application ops) and replay
/// it through both arms, asserting cross-arm agreement before any
/// number is reported.
///
/// # Panics
///
/// Panics if the generator rejects the config or the two arms diverge
/// — a correctness failure that must never be recorded as a perf
/// number.
#[must_use]
pub fn run_scenario(scenario: &WorkloadScenario, ops: u64) -> ScenarioResult {
    let workload = WorkloadConfig {
        ops,
        ..scenario.workload.clone()
    };
    let trace = generate(&workload).expect("canonical scenarios are valid");
    let config = scenario_unit_config(SCENARIO_ENTRIES, scenario.write_buffer);

    let mut cam = streaming_cam(config, 4);
    let start = Instant::now();
    let streamed = replay_streaming(&trace, &mut cam);
    let streaming_secs = start.elapsed().as_secs_f64();

    let mut unit = direct_unit(config, 4);
    let start = Instant::now();
    let direct = replay_direct(&trace, &mut unit);
    let direct_secs = start.elapsed().as_secs_f64();

    // Correctness gate: the perf artefact only ever records runs whose
    // two arms were observationally identical at quiescence.
    assert_eq!(
        split_by_pipe(&streamed.completions),
        split_by_pipe(&direct.completions),
        "replay arms diverged per pipe in scenario {}",
        scenario.name
    );
    assert_eq!(
        cam.unit().snapshot(),
        unit.snapshot(),
        "replay arms diverged at quiescence in scenario {}",
        scenario.name
    );
    assert_eq!(cam.buffer_depth(), 0, "streaming arm left staged writes");

    let counts = trace.counts();
    ScenarioResult {
        name: scenario.name,
        counts,
        digest: trace.digest(),
        ticks: streamed.ticks,
        streaming_ops_per_sec: counts.app_ops() as f64 / streaming_secs,
        direct_ops_per_sec: counts.app_ops() as f64 / direct_secs,
        p50_retire_cycles: percentile(&streamed.latencies, 50.0),
        p99_retire_cycles: percentile(&streamed.latencies, 99.0),
        max_retire_cycles: streamed.latencies.iter().copied().max().unwrap_or(0),
        search_hits: streamed.search_hits,
    }
}

/// Serialise scenario results (and their floors) to
/// `BENCH_workloads.json` at the repository root. Returns the written
/// path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_workloads_json(
    source: &str,
    runs: &[(WorkloadScenario, ScenarioResult)],
    degraded: Option<&DegradedModeRow>,
) -> io::Result<PathBuf> {
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_workloads.json"
    ));
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"source\": \"{source}\",\n"));
    body.push_str(
        "  \"metric\": \"trace-driven mixed-op workloads: wall-clock ops/sec per replay arm \
         (noisy) and end-to-end retire-latency percentiles in cycles (deterministic)\",\n",
    );
    body.push_str("  \"scenarios\": [\n");
    for (i, (scenario, result)) in runs.iter().enumerate() {
        let arrival = match scenario.workload.arrival {
            Arrival::BackToBack => "back_to_back".to_string(),
            Arrival::Uniform { gap } => format!("uniform_gap_{gap}"),
            Arrival::Bursty {
                mean_burst,
                idle_ticks,
            } => format!("bursty_{mean_burst}on_{idle_ticks}off"),
        };
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"mix\": \"{}\", \"zipf_s\": {:.2}, \
             \"arrival\": \"{}\", \"stream_batch\": {}, \"write_buffer\": {}, \
             \"app_ops\": {}, \"evictions\": {}, \"trace_digest\": {}, \
             \"streaming_ticks\": {}, \"cycles_per_op\": {:.3}, \
             \"streaming_ops_per_sec\": {:.1}, \"direct_ops_per_sec\": {:.1}, \
             \"retire_p50_cycles\": {}, \"retire_p99_cycles\": {}, \
             \"retire_max_cycles\": {}, \"search_hits\": {}, \
             \"floor_streaming_ops_per_sec\": {:.1}, \"floor_direct_ops_per_sec\": {:.1}, \
             \"ceiling_retire_p50_cycles\": {}, \"ceiling_retire_p99_cycles\": {}}}{}\n",
            result.name,
            scenario.workload.mix.label(),
            scenario.workload.zipf_s,
            arrival,
            scenario.workload.stream_batch,
            scenario.write_buffer,
            result.counts.app_ops(),
            result.counts.evictions,
            result.digest,
            result.ticks,
            result.cycles_per_op(),
            result.streaming_ops_per_sec,
            result.direct_ops_per_sec,
            result.p50_retire_cycles,
            result.p99_retire_cycles,
            result.max_retire_cycles,
            result.search_hits,
            scenario.floors.streaming_min_ops_per_sec,
            scenario.floors.direct_min_ops_per_sec,
            scenario.floors.p50_retire_cycles_ceiling,
            scenario.floors.p99_retire_cycles_ceiling,
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    body.push_str("  ]");
    if let Some(d) = degraded {
        body.push_str(&format!(
            ",\n  \"degraded_mode\": {{\"mix\": \"50:45:5\", \"app_ops\": {}, \
             \"trace_digest\": {}, \"presented\": {}, \"availability\": {:.4}, \
             \"degraded_answers\": {}, \"shed_writes\": {}, \"recovery_ticks\": {}, \
             \"rebuilds_completed\": {}, \"ticks\": {}, \
             \"floor_availability\": {DEGRADED_AVAILABILITY_FLOOR}, \
             \"ceiling_recovery_ticks\": {DEGRADED_RECOVERY_TICKS_CEILING}}}",
            d.app_ops,
            d.trace_digest,
            d.presented,
            d.availability,
            d.degraded_answers,
            d.shed_writes,
            d.recovery_ticks,
            d.rebuilds_completed,
            d.ticks,
        ));
    }
    body.push_str("\n}\n");
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Enforce one scenario's floors against its result.
///
/// # Panics
///
/// Panics when a throughput floor or a latency ceiling is violated.
pub fn assert_scenario_floors(scenario: &WorkloadScenario, result: &ScenarioResult) {
    let floors = &scenario.floors;
    assert!(
        result.streaming_ops_per_sec >= floors.streaming_min_ops_per_sec,
        "{}: streaming replay must sustain >= {:.0} ops/s, got {:.0}",
        scenario.name,
        floors.streaming_min_ops_per_sec,
        result.streaming_ops_per_sec
    );
    assert!(
        result.direct_ops_per_sec >= floors.direct_min_ops_per_sec,
        "{}: direct replay must sustain >= {:.0} ops/s, got {:.0}",
        scenario.name,
        floors.direct_min_ops_per_sec,
        result.direct_ops_per_sec
    );
    assert!(
        result.p50_retire_cycles <= floors.p50_retire_cycles_ceiling,
        "{}: p50 retire latency must be <= {} cycles, got {} (deterministic: the replay \
         schedule changed)",
        scenario.name,
        floors.p50_retire_cycles_ceiling,
        result.p50_retire_cycles
    );
    assert!(
        result.p99_retire_cycles <= floors.p99_retire_cycles_ceiling,
        "{}: p99 retire latency must be <= {} cycles, got {} (deterministic: the replay \
         schedule changed)",
        scenario.name,
        floors.p99_retire_cycles_ceiling,
        result.p99_retire_cycles
    );
}

/// Run every canonical scenario at the full [`SCENARIO_OPS`] count plus
/// the `degraded_mode` cluster scenario at [`DEGRADED_MODE_OPS`], print
/// a summary, write `BENCH_workloads.json`, and enforce all floors —
/// the release-mode entry point behind the `workload_smoke` CI stage.
///
/// # Panics
///
/// Panics when any scenario's replay arms diverge, any floor regresses,
/// or the `degraded_mode` scenario breaks its availability floor or
/// recovery-tick ceiling.
pub fn emit_bench_workloads_json(source: &str) {
    let runs: Vec<(WorkloadScenario, ScenarioResult)> = canonical_scenarios()
        .into_iter()
        .map(|scenario| {
            let result = run_scenario(&scenario, SCENARIO_OPS);
            (scenario, result)
        })
        .collect();
    let degraded = measure_degraded_mode(DEGRADED_MODE_OPS);
    println!();
    println!("Trace-driven workloads ({SCENARIO_ENTRIES} entries, Turbo, 4 groups):");
    for (scenario, result) in &runs {
        println!(
            "  {:>14}: {:>9} app ops in {:>9} cycles ({:.3} cyc/op), \
             streaming {:>9.0} ops/s, direct {:>9.0} ops/s, \
             retire p50/p99/max {}/{}/{} cycles, {} hits",
            scenario.name,
            result.counts.app_ops(),
            result.ticks,
            result.cycles_per_op(),
            result.streaming_ops_per_sec,
            result.direct_ops_per_sec,
            result.p50_retire_cycles,
            result.p99_retire_cycles,
            result.max_retire_cycles,
            result.search_hits,
        );
    }
    println!(
        "  {:>14}: {:>9} app ops, availability {:.4}, {} degraded answers, \
         {} shed, recovery {} ticks, {} cycles (4-shard cluster, one crash)",
        "degraded_mode",
        degraded.app_ops,
        degraded.availability,
        degraded.degraded_answers,
        degraded.shed_writes,
        degraded.recovery_ticks,
        degraded.ticks,
    );
    match write_bench_workloads_json(source, &runs, Some(&degraded)) {
        Ok(path) => println!("(json: {})", path.display()),
        Err(err) => println!("(failed to write BENCH_workloads.json: {err})"),
    }
    for (scenario, result) in &runs {
        assert_scenario_floors(scenario, result);
    }
    assert!(
        degraded.availability >= DEGRADED_AVAILABILITY_FLOOR,
        "degraded_mode: availability must be >= {DEGRADED_AVAILABILITY_FLOOR} across the \
         shard crash + rebuild, got {:.4}",
        degraded.availability
    );
    assert!(
        degraded.recovery_ticks > 0 && degraded.recovery_ticks <= DEGRADED_RECOVERY_TICKS_CEILING,
        "degraded_mode: recovery must complete within {DEGRADED_RECOVERY_TICKS_CEILING} ticks \
         (deterministic: the restore model changed), got {}",
        degraded.recovery_ticks
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_scenarios_cover_the_required_shapes() {
        let scenarios = canonical_scenarios();
        assert_eq!(scenarios.len(), 3);
        let read_heavy = &scenarios[0];
        assert_eq!(read_heavy.workload.mix, OpMix::READ_HEAVY);
        assert!(!read_heavy.write_buffer);
        let write_heavy = &scenarios[1];
        assert_eq!(write_heavy.workload.mix, OpMix::WRITE_HEAVY);
        assert!(write_heavy.write_buffer);
        let bursty = &scenarios[2];
        assert!((bursty.workload.zipf_s - 1.0).abs() < 1e-9);
        assert!(matches!(bursty.workload.arrival, Arrival::Bursty { .. }));
        for scenario in &scenarios {
            assert_eq!(scenario.workload.ops, SCENARIO_OPS);
            assert!(scenario.floors.streaming_min_ops_per_sec > 0.0);
            assert!(scenario.floors.p99_retire_cycles_ceiling > 0);
        }
    }

    #[test]
    fn scenarios_replay_consistently_at_reduced_op_count() {
        // Debug-mode sanity: every canonical scenario passes its
        // cross-arm agreement gate (asserted inside run_scenario) on a
        // 15k-op prefix, with the deterministic latency ceilings
        // already holding (regeneration determinism is proptested in
        // dsp-cam-workload).
        for scenario in canonical_scenarios() {
            let a = run_scenario(&scenario, 15_000);
            assert_eq!(a.counts.app_ops(), 15_000);
            assert!(
                a.search_hits > 0,
                "{}: popular keys must hit",
                scenario.name
            );
            assert!(
                a.p99_retire_cycles <= scenario.floors.p99_retire_cycles_ceiling,
                "{}: p99 {} cycles over its {}-cycle ceiling (deterministic)",
                scenario.name,
                a.p99_retire_cycles,
                scenario.floors.p99_retire_cycles_ceiling
            );
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn obs_histogram_quantiles_bracket_the_retire_log_percentiles() {
        // The pipeline's obs histograms (log2 buckets) and the exact
        // retire-log percentiles must tell the same story: the bucket
        // upper-edge quantile is >= the exact percentile and within 2x.
        use std::sync::Arc;

        let scenario = canonical_scenarios().remove(2);
        let workload = WorkloadConfig {
            ops: 10_000,
            ..scenario.workload.clone()
        };
        let trace = dsp_cam_workload::generate(&workload).unwrap();
        let sink = Arc::new(dsp_cam_obs::ObsSink::new());
        let mut cam = streaming_cam(
            scenario_unit_config(SCENARIO_ENTRIES, scenario.write_buffer),
            4,
        );
        cam.attach_observer(&sink);
        let outcome = replay_streaming(&trace, &mut cam);
        let exact_p99 = percentile(&outcome.latencies, 99.0);

        let snap = sink.snapshot();
        let search = snap
            .registry
            .histogram("pipeline", "search_latency_cycles")
            .expect("search latencies observed");
        let update = snap
            .registry
            .histogram("pipeline", "update_latency_cycles")
            .expect("update latencies observed");
        assert_eq!(
            search.count() + update.count(),
            outcome.latencies.len() as u64,
            "histograms observed every retirement"
        );
        let hist_p99 = search.quantile(0.99).max(update.quantile(0.99));
        assert!(
            hist_p99 >= exact_p99 && hist_p99 <= exact_p99 * 2,
            "log2-bucket p99 {hist_p99} must bracket exact p99 {exact_p99} within 2x"
        );
    }

    /// Release-mode end-to-end workload floors on the three canonical
    /// million-op scenarios; writes `BENCH_workloads.json`. Run by
    /// `scripts/ci.sh` as
    /// `cargo test --release -p dsp-cam-bench -- --ignored workload_smoke`;
    /// far too slow for the default debug test pass, hence ignored.
    #[test]
    #[ignore = "release-mode workload smoke, run explicitly by scripts/ci.sh"]
    fn workload_smoke() {
        emit_bench_workloads_json("dsp-cam-bench::workloads::workload_smoke");
    }
}
