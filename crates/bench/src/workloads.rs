//! End-to-end trace-driven workload runner and the machine-readable
//! `BENCH_workloads.json` artefact tracked across PRs.
//!
//! Each canonical scenario generates a seeded million-op trace
//! (`dsp-cam-workload`) and replays it through *both* arms — the
//! cycle-accurate `StreamingCam` pipeline and the transaction-level
//! `CamUnit` calls — measuring
//! wall-clock op throughput per arm and p50/p99 end-to-end retire
//! latency in cycles from the streaming arm's retire stamps. Cross-arm
//! agreement (per-pipe completions and the quiescent snapshot) is
//! asserted on every run, so the perf numbers can never drift away
//! from a correct replay.
//!
//! Cycle-latency percentiles and trace digests are deterministic (same
//! seed + config on any machine, any feature set); only the ops/sec
//! fields are wall-clock noisy. `scripts/ci.sh` enforces the floors in
//! release mode via [`workload_smoke`](self#release-floors).

use std::time::Instant;

use dsp_cam_core::prelude::*;
use dsp_cam_workload::{
    direct_unit, generate, percentile, replay_direct, replay_streaming, split_by_pipe,
    streaming_cam, Arrival, OpMix, TraceCounts, WorkloadConfig,
};

use crate::artefact::Section::{Object, Rows};
use crate::artefact::{self, Row, Value};
use crate::failover::measure_degraded_mode;

/// Ops in the `degraded_mode` scenario. The cycle-accurate cluster
/// ingest loop is ~50× slower per op than the replay arms, so the
/// scenario runs at drill scale, not [`SCENARIO_OPS`] — every recorded
/// number is deterministic regardless.
pub const DEGRADED_MODE_OPS: u64 = 15_000;

/// Entries across the scenario unit's four replicated groups.
pub const SCENARIO_ENTRIES: usize = 8192;

/// Ops per canonical scenario recorded in `BENCH_workloads.json`.
pub const SCENARIO_OPS: u64 = 1_000_000;

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
    /// The `scenarios` entry of a run of `scenario`, with the streaming
    /// cycles per application op (the II = 1 sanity number).
    pub(crate) fn row(&self, scenario: &WorkloadScenario) -> Row {
        let arrival = match scenario.workload.arrival {
            Arrival::BackToBack => "back_to_back".to_string(),
            Arrival::Uniform { gap } => format!("uniform_gap_{gap}"),
            Arrival::Bursty {
                mean_burst,
                idle_ticks,
            } => format!("bursty_{mean_burst}on_{idle_ticks}off"),
        };
        let cycles_per_op = self.ticks as f64 / self.counts.app_ops() as f64;
        Row::default()
            .text("name", self.name)
            .text("mix", scenario.workload.mix.label())
            .float("zipf_s", scenario.workload.zipf_s, 2)
            .text("arrival", arrival)
            .int("stream_batch", scenario.workload.stream_batch as u64)
            .field("write_buffer", Value::Bool(scenario.write_buffer))
            .int("app_ops", self.counts.app_ops())
            .int("evictions", self.counts.evictions)
            .int("trace_digest", self.digest)
            .int("streaming_ticks", self.ticks)
            .float("cycles_per_op", cycles_per_op, 3)
            .float("streaming_ops_per_sec", self.streaming_ops_per_sec, 1)
            .float("direct_ops_per_sec", self.direct_ops_per_sec, 1)
            .int("retire_p50_cycles", self.p50_retire_cycles)
            .int("retire_p99_cycles", self.p99_retire_cycles)
            .int("retire_max_cycles", self.max_retire_cycles)
            .int("search_hits", self.search_hits)
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

/// Run every canonical scenario at the full [`SCENARIO_OPS`] count plus
/// the `degraded_mode` cluster scenario at [`DEGRADED_MODE_OPS`], write
/// `BENCH_workloads.json`, and check every floor of the crate's floor
/// table on it — the release-mode entry point behind the
/// `workload_smoke` CI stage.
///
/// # Panics
///
/// Panics when any scenario's replay arms diverge, when a measured row
/// breaks its floor, or when a floor of a written section selects none
/// of its rows.
pub fn emit_bench_workloads_json(source: &str) {
    let scenarios: Vec<Row> = canonical_scenarios()
        .iter()
        .map(|scenario| run_scenario(scenario, SCENARIO_OPS).row(scenario))
        .collect();
    let degraded = measure_degraded_mode(DEGRADED_MODE_OPS);
    let metric = "trace-driven mixed-op workloads: wall-clock ops/sec per replay arm (noisy) \
                  and end-to-end retire-latency percentiles in cycles (deterministic)";
    let sections = vec![
        ("scenarios", Rows(scenarios)),
        ("degraded_mode", Object(degraded.row())),
    ];
    artefact::emit("BENCH_workloads.json", source, metric, sections);
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
        }
    }

    #[test]
    fn scenarios_replay_consistently_at_reduced_op_count() {
        // Debug-mode sanity: every canonical scenario passes its
        // cross-arm agreement gate (asserted inside run_scenario) on a
        // 15k-op prefix, on the same modelled schedule as ever: ticks
        // and retire p50/p99/max are exact here, as the release floors
        // pin them at 1M ops (regeneration determinism is proptested in
        // dsp-cam-workload).
        let schedules = [
            ("read_heavy", (3990, 6, 8, 8)),
            ("write_heavy", (16_918, 6, 8, 8)),
            ("bursty_zipfian", (12_335, 15, 38, 50)),
        ];
        for (scenario, (name, schedule)) in canonical_scenarios().iter().zip(schedules) {
            assert_eq!(scenario.name, name);
            let a = run_scenario(scenario, 15_000);
            assert_eq!(a.counts.app_ops(), 15_000);
            assert!(a.search_hits > 0, "{name}: popular keys must hit");
            let measured = (
                a.ticks,
                a.p50_retire_cycles,
                a.p99_retire_cycles,
                a.max_retire_cycles,
            );
            assert_eq!(measured, schedule, "{name}: ticks, retire p50/p99/max");
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
