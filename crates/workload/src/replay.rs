//! The two replay arms, and the pipe-splitting helper the differential
//! suite uses to compare them.
//!
//! * [`replay_streaming`] drives a [`StreamingCam`] cycle by cycle:
//!   idle ticks cover arrival gaps (draining the write buffer and
//!   advancing the scrubber, exactly as hardware background engines
//!   steal unused port cycles), same-cycle burst arrivals queue behind
//!   the single issue slot, and every completion's end-to-end latency
//!   comes from the retire stamps it drains with.
//! * [`replay_direct`] applies the same trace through transaction-level
//!   [`CamUnit`] calls with no clock at all.
//!
//! The two arms retire completions in different global orders (writes
//! retire one or two cycles sooner than searches, so streaming can
//! retire a later write before an earlier search), but *within* each
//! pipe order is preserved. [`split_by_pipe`] projects a
//! completion list onto its write-path and search-path subsequences;
//! the differential contract is that both arms agree per pipe, and on
//! the unit snapshot and per-block counters at quiescence.

use dsp_cam_core::config::UnitConfig;
use dsp_cam_core::pipelined::{Completion, RetireRecord, StreamingCam};
use dsp_cam_core::unit::CamUnit;
use dsp_cam_sim::Clocked;

use crate::trace::{Trace, TraceOp};

/// Everything one replay arm observed: completions (in that arm's
/// retire order), cycle stamps, and headline tallies.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Retired completions. Trace order for the direct arm; retire
    /// order (per-pipe ordered, globally interleaved) for streaming.
    pub completions: Vec<Completion>,
    /// `(arrival, issued, retired)` stamps, streaming arm only.
    pub records: Vec<RetireRecord>,
    /// End-to-end retire latencies in cycles (one per record),
    /// streaming arm only.
    pub latencies: Vec<u64>,
    /// Total cycles the streaming replay took, including the final
    /// pipeline drain and the idle ticks that emptied the write buffer.
    /// 0 for the direct (unclocked) arm.
    pub ticks: u64,
    /// Matching keys across all search completions.
    pub search_hits: u64,
    /// Updates that retired with an admission error.
    pub update_rejections: u64,
    /// Deletes that invalidated a stored entry.
    pub delete_hits: u64,
}

impl ReplayOutcome {
    fn tally(&mut self) {
        for done in &self.completions {
            match done {
                Completion::Search(result) => {
                    self.search_hits += u64::from(result.is_match());
                }
                Completion::SearchMulti(Ok(results)) | Completion::SearchStream(results) => {
                    self.search_hits += results.iter().filter(|r| r.is_match()).count() as u64;
                }
                Completion::SearchMulti(Err(_)) => {}
                Completion::Update(result) => {
                    self.update_rejections += u64::from(result.is_err());
                }
                Completion::Delete(hit) => {
                    self.delete_hits += u64::from(*hit);
                }
            }
        }
    }
}

/// Store a trace's prefill keys through the transaction-level update
/// path and flush them physical — identical on both arms, so prefill
/// never perturbs the differential counters.
fn prefill(unit: &mut CamUnit, trace: &Trace) {
    if !trace.prefill.is_empty() {
        unit.update(trace.prefill_words())
            .expect("prefill must fit the unit");
    }
    unit.flush_write_buffer();
}

/// Replay `trace` through `cam`'s cycle-accurate pipeline.
///
/// Prefill is stored (and flushed) before the first tick. Each record
/// then waits for its arrival cycle — covering the gap with idle ticks
/// — and takes the first free issue slot, so same-cycle burst arrivals
/// accrue queueing latency that [`RetireRecord::latency`] reports.
/// After the last record the pipeline drains and idle ticks continue
/// until the write buffer is empty (quiescence).
pub fn replay_streaming(trace: &Trace, cam: &mut StreamingCam) -> ReplayOutcome {
    prefill(cam.unit_mut(), trace);
    cam.drain_retired(&mut Vec::new());

    let start = cam.cycle();
    for (record, at) in trace.records.iter().zip(trace.arrivals(start)) {
        while cam.cycle() < at {
            cam.tick();
        }
        let mut op = record.op.to_op();
        loop {
            match cam.issue_at(op, at) {
                Ok(()) => break,
                Err(back) => {
                    // The slot is taken (same-cycle burst sibling): tick
                    // and retry; the wait shows up as queueing latency.
                    op = back;
                    cam.tick();
                }
            }
        }
    }
    cam.drain();
    while cam.buffer_depth() > 0 {
        cam.tick();
    }

    let mut retired = Vec::new();
    cam.drain_retired(&mut retired);
    let (records, completions) = retired.into_iter().unzip();
    let mut outcome = ReplayOutcome {
        completions,
        records,
        ticks: cam.cycle() - start,
        ..ReplayOutcome::default()
    };
    outcome.latencies = outcome.records.iter().map(RetireRecord::latency).collect();
    outcome.tally();
    outcome
}

/// Replay `trace` through transaction-level [`CamUnit`] calls,
/// returning completions in trace order. The write buffer is flushed at the end
/// so the unit reaches the same quiescent state as the streaming arm.
pub fn replay_direct(trace: &Trace, unit: &mut CamUnit) -> ReplayOutcome {
    prefill(unit, trace);
    let mut outcome = ReplayOutcome::default();
    for record in &trace.records {
        let done = match &record.op {
            TraceOp::Search(key) => Completion::Search(unit.search(*key)),
            TraceOp::SearchStream(keys) => Completion::SearchStream(unit.search_stream(keys)),
            TraceOp::Update(word) => Completion::Update(unit.update(&[*word])),
            TraceOp::Delete { key, .. } => Completion::Delete(unit.delete_first(*key)),
        };
        outcome.completions.push(done);
    }
    unit.flush_write_buffer();
    outcome.tally();
    outcome
}

/// Build a [`StreamingCam`] from `config` with `groups` replicated
/// groups — the one-liner the tests and benches use for the streaming
/// arm.
///
/// # Panics
///
/// Panics when the config is invalid or `groups` does not divide the
/// block count (programming errors in a harness, not runtime states).
#[must_use]
pub fn streaming_cam(config: UnitConfig, groups: usize) -> StreamingCam {
    let mut cam = StreamingCam::new(config).expect("valid unit config");
    cam.unit_mut()
        .configure_groups(groups)
        .expect("groups must divide num_blocks");
    cam
}

/// Build the matching [`CamUnit`] for the direct arm.
///
/// # Panics
///
/// Panics under the same conditions as [`streaming_cam`].
#[must_use]
pub fn direct_unit(config: UnitConfig, groups: usize) -> CamUnit {
    let mut unit = CamUnit::new(config).expect("valid unit config");
    unit.configure_groups(groups)
        .expect("groups must divide num_blocks");
    unit
}

/// Project a completion list onto its two pipeline subsequences:
/// `(write_path, search_path)`. Write-path completions are updates and
/// deletes; search-path completions are point, multi, and streamed
/// searches. Each arm preserves issue order *within* a pipe, so the
/// differential contract compares these projections, not the global
/// interleaving.
#[must_use]
pub fn split_by_pipe(completions: &[Completion]) -> (Vec<Completion>, Vec<Completion>) {
    let mut write = Vec::new();
    let mut search = Vec::new();
    for done in completions {
        match done {
            Completion::Update(_) | Completion::Delete(_) => write.push(done.clone()),
            _ => search.push(done.clone()),
        }
    }
    (write, search)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Arrival, OpMix, WorkloadConfig};
    use dsp_cam_core::config::WriteBufferConfig;

    fn unit_config(buffered: bool) -> UnitConfig {
        let mut builder = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(4);
        if buffered {
            builder = builder.write_buffer(WriteBufferConfig {
                capacity: 16,
                drain_per_tick: 2,
                bypass: false,
            });
        }
        builder.build().expect("valid")
    }

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            seed: 77,
            ops: 400,
            key_space: 48,
            zipf_s: 0.9,
            mix: OpMix::WRITE_HEAVY,
            stream_batch: 4,
            arrival: Arrival::Bursty {
                mean_burst: 6,
                idle_ticks: 8,
            },
            churn_per_mille: 100,
            prefill: 12,
            max_live: Some(24),
            eviction_min_gap: 1,
        }
    }

    #[test]
    fn arms_agree_per_pipe_and_at_quiescence() {
        let trace = generate(&workload()).unwrap();
        for buffered in [false, true] {
            let mut cam = streaming_cam(unit_config(buffered), 2);
            let streamed = replay_streaming(&trace, &mut cam);
            let mut unit = direct_unit(unit_config(buffered), 2);
            let direct = replay_direct(&trace, &mut unit);

            assert_eq!(
                split_by_pipe(&streamed.completions),
                split_by_pipe(&direct.completions),
                "buffered = {buffered}"
            );
            assert_eq!(cam.unit().snapshot(), unit.snapshot());
            assert_eq!(streamed.search_hits, direct.search_hits);
            assert_eq!(streamed.delete_hits, direct.delete_hits);
            assert_eq!(streamed.update_rejections, direct.update_rejections);
            assert_eq!(cam.buffer_depth(), 0, "quiescent");
        }
    }

    #[test]
    fn streaming_records_queueing_latency_for_bursts() {
        let trace = generate(&workload()).unwrap();
        let mut cam = streaming_cam(unit_config(false), 2);
        let outcome = replay_streaming(&trace, &mut cam);
        assert_eq!(outcome.records.len(), trace.records.len());
        assert_eq!(outcome.latencies.len(), outcome.records.len());
        let base = *outcome.latencies.iter().min().unwrap();
        let peak = *outcome.latencies.iter().max().unwrap();
        assert!(
            peak > base,
            "same-cycle burst arrivals must queue ({base}..{peak})"
        );
        assert!(outcome.ticks > 0);
    }

    #[test]
    fn replays_are_deterministic() {
        let trace = generate(&workload()).unwrap();
        let run = || {
            let mut cam = streaming_cam(unit_config(true), 2);
            let out = replay_streaming(&trace, &mut cam);
            (out.completions, out.records, out.ticks)
        };
        assert_eq!(run(), run());
    }
}
