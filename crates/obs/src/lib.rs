//! Unified observability layer for the DSP-CAM stack.
//!
//! The paper's evaluation (Tables 7–9) is built on per-level cycle and
//! occupancy accounting — update = 1 cycle, search = 2 cycles, per-group
//! issue rates. This crate provides that accounting as reusable
//! infrastructure instead of ad-hoc counters:
//!
//! * [`MetricsRegistry`] — hierarchical counters / gauges / log2-bucket
//!   histograms under `unit → group → block → cell` scope paths, with an
//!   exactly-round-tripping JSON snapshot ([`MetricsSnapshot`]).
//! * [`EventTracer`] — cycle-stamped [`Event`]s in a bounded ring
//!   buffer, exportable as JSON or as a VCD waveform via `sim::vcd`.
//! * [`ObsSink`] — the `Arc`-shared handle the hierarchy records into:
//!   scope paths are interned to `Copy` [`ScopeId`]s up front and hot
//!   operations batch every recording under a single lock
//!   ([`ObsSink::with`]).
//!
//! The instrumented crates (`dsp48`, `core`, `tc-accel`) only depend on
//! this crate behind their `obs` cargo feature, so with the feature off
//! the entire layer is compile-time zero-cost; with it on, recording is
//! one mutex round-trip per architectural operation (measured <3%
//! throughput cost on Turbo `search_stream`, see `BENCH_search.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod registry;
pub mod sink;
pub mod trace;

pub use json::{Json, JsonError};
pub use registry::{Histogram, MetricsRegistry, MetricsSnapshot, ScopeMetrics, HISTOGRAM_BUCKETS};
pub use sink::{ObsBatch, ObsSink, ScopeId};
pub use trace::{Event, EventTracer, OpKind, Tier, TraceRecord};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn sink_end_to_end() {
        let sink = Arc::new(ObsSink::with_trace_capacity(8));
        let unit = sink.register_scope("unit");
        let block = sink.register_scope("unit/group0/block0");
        assert_eq!(sink.register_scope("unit"), unit, "interning is idempotent");
        assert_eq!(sink.scope_path(block), "unit/group0/block0");

        sink.with(|o| {
            o.record(
                3,
                Event::Issue {
                    kind: OpKind::Search,
                    group: 0,
                },
            );
            o.add(unit, "search_count", 1);
            o.add(block, "searches", 1);
            o.observe(block, "latency", 2);
            o.set_gauge(unit, "groups", 4);
        });
        sink.add(unit, "search_count", 2);

        let snap = sink.snapshot();
        assert_eq!(snap.counter("unit", "search_count"), 3);
        assert_eq!(snap.counter("unit/group0/block0", "searches"), 1);
        assert_eq!(snap.gauge("unit", "groups"), Some(4));
        assert_eq!(snap.events_recorded, 1);
        assert_eq!(
            snap.registry.rollup_counter("unit", "searches"),
            1,
            "block counters roll up through the hierarchy"
        );

        let text = snap.to_json();
        assert_eq!(MetricsSnapshot::from_json(&text).unwrap(), snap);

        let records = sink.trace_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].cycle, 3);
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let sink = Arc::new(ObsSink::new());
        let scope = sink.register_scope("unit");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for _ in 0..100 {
                        sink.add(scope, "hits", 1);
                    }
                });
            }
        });
        assert_eq!(sink.snapshot().counter("unit", "hits"), 400);
    }
}
