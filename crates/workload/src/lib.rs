//! # dsp-cam-workload — trace-driven workload harness
//!
//! Every perf claim before this crate rested on uniform-random
//! single-op microbenches. Real CAM deployments (flow tables, MAC
//! learning, database indexes) see *skewed* key popularity, *mixed*
//! search/update/delete traffic, and *bursty* arrival — and update
//! interference is invisible to search-only microbenches (Nguyen et
//! al., PAPERS.md). This crate closes that gap with three pieces:
//!
//! * [`generate`] — a seeded, dependency-free trace generator: Zipfian
//!   key popularity with configurable skew ([`WorkloadConfig::zipf_s`]),
//!   a configurable search:update:delete [`OpMix`], bursty or uniform
//!   [`Arrival`] via an on/off process, and optional key churn so the
//!   live entry set drifts while a `max_live` watermark ages the oldest
//!   entries out (eviction deletes, counted separately from the mix);
//! * [`Trace`] — the replayable artefact: arrival-stamped
//!   [`StreamingCam`](dsp_cam_core::pipelined::StreamingCam) operations
//!   with exact op counts and a stable digest, byte-identical for a
//!   fixed seed and config;
//! * [`replay_streaming`] / [`replay_direct`] — the two replay arms:
//!   cycle-accurate `StreamingCam` ticks (arrival-aware, so burst
//!   queueing shows up in retire latency) and transaction-level
//!   `CamUnit` calls. The differential
//!   test suite proves the two arms observationally identical at
//!   quiescence.
//!
//! `crates/bench::workloads` drives the canonical ≥1M-op scenarios
//! through both arms and records throughput plus p50/p99 retire latency
//! in `BENCH_workloads.json`, with regression floors enforced by
//! `scripts/ci.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod replay;
mod rng;
mod shard;
mod stats;
mod trace;
mod zipf;

pub use gen::{generate, Arrival, OpMix, WorkloadConfig, WorkloadError};
pub use replay::{
    direct_unit, replay_direct, replay_streaming, split_by_pipe, streaming_cam, ReplayOutcome,
};
pub use rng::SplitMix64;
pub use shard::{compress_gaps, split_trace};
pub use stats::{op_fractions, percentile, search_rank_frequencies};
pub use trace::{Trace, TraceCounts, TraceOp, TraceRecord};
pub use zipf::ZipfSampler;
