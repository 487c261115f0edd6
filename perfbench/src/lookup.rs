//! `lookup_large`: a closed loop with one caller replaying a read-heavy
//! trace through `CamUnit` calls.
//!
//! The unit is big on purpose: 65,536 Turbo cells in two groups of
//! 32,768 holding ~25–29k live keys, so the bit-sliced search kernel
//! does most of the work and its planes do not fit in L1 or L2.

use std::time::Instant;

use dsp_cam_core::prelude::*;
use dsp_cam_workload::{generate, Arrival, OpMix, Trace, TraceOp, WorkloadConfig};

use crate::report::{median, percentile_us, Report};
use crate::spans::Spans;
use crate::{modelled_ns_note, throughput, Ctx, Oracle, SetupParts};

const CELLS: usize = 65_536;
const BLOCK_SIZE: usize = 256;
const GROUPS: usize = 2;
/// Application ops per episode: long enough for the live set to grow
/// from the prefill to the watermark and then churn under evictions.
const EPISODE_OPS: u64 = 100_000;
/// Trace records per timed stretch (~4,000 application ops), so a run
/// yields hundreds of host-time samples.
const SLICE_RECORDS: usize = 1_000;

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        ops: EPISODE_OPS,
        key_space: 1 << 16,
        zipf_s: 0.99,
        mix: OpMix::READ_HEAVY,
        stream_batch: 16,
        arrival: Arrival::BackToBack,
        churn_per_mille: 20,
        prefill: 25_000,
        max_live: Some(29_000),
        eviction_min_gap: 1,
    }
}

fn unit_config() -> UnitConfig {
    UnitConfig::builder()
        .data_width(32)
        .block_size(BLOCK_SIZE)
        .num_blocks(CELLS / BLOCK_SIZE)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .batch_width(32)
        .build()
        .expect("lookup geometry is valid")
}

/// What one episode did, all deterministic for a given trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    search_calls: u64,
    stream_calls: u64,
    update_calls: u64,
    delete_calls: u64,
    presented_keys: u64,
    hits: u64,
    delete_hits: u64,
    issue_cycles: u64,
    search_keys: u64,
    update_words: u64,
    failed: u64,
}

/// Host-latency p50 and p99 of one group of calls, taken per episode;
/// the report gives their medians over episodes, so memory stays flat
/// however many episodes a window holds.
#[derive(Default)]
struct Percentiles {
    episode_ns: Vec<u64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
}

impl Percentiles {
    fn end_episode(&mut self) {
        self.p50_us.push(percentile_us(&self.episode_ns, 50.0));
        self.p99_us.push(percentile_us(&self.episode_ns, 99.0));
        self.episode_ns.clear();
    }

    fn report(&self, report: &mut Report, p50: &'static str, p99: &'static str) {
        report.set(p50, median(&self.p50_us));
        report.set(p99, median(&self.p99_us));
    }
}

/// Call latencies by entry point, and pooled into reads and writes.
#[derive(Default)]
struct Latencies {
    search: Percentiles,
    stream: Percentiles,
    update: Percentiles,
    delete: Percentiles,
    read: Percentiles,
    write: Percentiles,
}

impl Latencies {
    fn end_episode(&mut self) {
        for p in [
            &mut self.search,
            &mut self.stream,
            &mut self.update,
            &mut self.delete,
            &mut self.read,
            &mut self.write,
        ] {
            p.end_episode();
        }
    }
}

struct Setup {
    trace: Trace,
    unit: CamUnit,
    oracle: Oracle,
}

fn set_up(seed: u64, spans: &mut Spans) -> (Setup, SetupParts) {
    let (trace, generate_ns) = spans.call("workload.generate", None, || {
        generate(&workload(seed)).expect("lookup workload config is valid")
    });
    let (mut unit, new_ns) = spans.call("unit.new", None, || {
        let mut unit = CamUnit::new(unit_config()).expect("valid unit config");
        unit.configure_groups(GROUPS)
            .expect("groups divide the blocks");
        unit
    });
    let (stored, prefill_ns) =
        spans.call("unit.prefill", None, || unit.update(trace.prefill_words()));
    stored.expect("the prefill fits the unit");
    let oracle = Oracle::from_prefill(&trace);
    let secs = |ns: u64| ns as f64 / 1e9;
    let parts = vec![
        ("workload.generate_s", secs(generate_ns)),
        ("unit.new_s", secs(new_ns)),
        ("unit.prefill_s", secs(prefill_ns)),
    ];
    (
        Setup {
            trace,
            unit,
            oracle,
        },
        parts,
    )
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let seed = ctx.seed;
    let mut setup_fn = |spans: &mut Spans| set_up(seed, spans);
    let setup = ctx.first_set_up(&mut setup_fn);
    let trace = &setup.trace;
    let app_ops = trace.counts().app_ops();
    let slice_ops: Vec<u64> = trace
        .records
        .chunks(SLICE_RECORDS)
        .map(|records| {
            let slice = Trace {
                seed: trace.seed,
                prefill: Vec::new(),
                records: records.to_vec(),
            };
            slice.counts().app_ops()
        })
        .collect();

    let mut lat = Latencies::default();
    let mut all: Vec<Counts> = Vec::new();
    let samples = ctx.run_window(&mut setup_fn, |spans| {
        let (mut unit, _) = spans.call("unit.clone", None, || setup.unit.clone());
        let mut oracle = setup.oracle.clone();
        let mut c = Counts::default();
        let mut stretches = Vec::with_capacity(slice_ops.len());
        for (slice, records) in trace.records.chunks(SLICE_RECORDS).enumerate() {
            let start = Instant::now();
            for (i, record) in records.iter().enumerate() {
                let op = slice * SLICE_RECORDS + i;
                match &record.op {
                    TraceOp::Search(key) => {
                        let (result, ns) =
                            spans.call("unit.search", Some(op), || unit.search(*key));
                        lat.search.episode_ns.push(ns);
                        lat.read.episode_ns.push(ns);
                        c.search_calls += 1;
                        c.presented_keys += 1;
                        c.hits += u64::from(result.is_match());
                        c.failed += u64::from(result.is_match() != oracle.contains(*key));
                    }
                    TraceOp::SearchStream(keys) => {
                        let (results, ns) =
                            spans.call("unit.search_stream", Some(op), || unit.search_stream(keys));
                        lat.stream.episode_ns.push(ns);
                        lat.read.episode_ns.push(ns);
                        c.stream_calls += 1;
                        c.presented_keys += keys.len() as u64;
                        for (result, &key) in results.iter().zip(keys) {
                            c.hits += u64::from(result.is_match());
                            c.failed += u64::from(result.is_match() != oracle.contains(key));
                        }
                        c.failed += keys.len().abs_diff(results.len()) as u64;
                    }
                    TraceOp::Update(word) => {
                        let (stored, ns) =
                            spans.call("unit.update", Some(op), || unit.update(&[*word]));
                        lat.update.episode_ns.push(ns);
                        lat.write.episode_ns.push(ns);
                        c.update_calls += 1;
                        match stored {
                            Ok(()) => oracle.store(*word),
                            Err(_) => c.failed += 1,
                        }
                    }
                    TraceOp::Delete { key, .. } => {
                        let (hit, ns) =
                            spans.call("unit.delete_first", Some(op), || unit.delete_first(*key));
                        lat.delete.episode_ns.push(ns);
                        lat.write.episode_ns.push(ns);
                        c.delete_calls += 1;
                        c.delete_hits += u64::from(hit);
                        c.failed += u64::from(hit != oracle.remove(*key));
                    }
                }
            }
            stretches.push((slice_ops[slice], start.elapsed().as_secs_f64()));
        }
        c.issue_cycles = unit.issue_cycles() - setup.unit.issue_cycles();
        c.search_keys = unit.search_count() - setup.unit.search_count();
        c.update_words = unit.update_words() - setup.unit.update_words();
        lat.end_episode();
        all.push(c);
        stretches
    });

    let c = all[0];
    report.attempted = all.len() as u64 * (c.presented_keys + c.update_calls + c.delete_calls);
    for episode in &all {
        report.fail(episode.failed, "answers differ from the key-count oracle");
    }
    let drifted = all.iter().filter(|e| **e != c).count() as u64;
    report.fail(drifted, "episodes replaying one trace disagree on counts");

    throughput(&mut report, &samples);
    let cycles_per_op = c.issue_cycles as f64 / app_ops as f64;
    report.set("sim_cycles_per_op", cycles_per_op);
    report.pin("trace.digest", format!("{:#018x}", trace.digest()));
    report.pin("sim_cycles_per_op", cycles_per_op);
    report.count("unit.issue_cycles", c.issue_cycles);
    report.count("unit.search_keys", c.search_keys);
    report.count("unit.update_words", c.update_words);
    report.count("workload.records", trace.records.len() as u64);
    report.count("unit.search.calls", c.search_calls);
    report.count("unit.search_stream.calls", c.stream_calls);
    report.count("unit.update.calls", c.update_calls);
    report.count("unit.delete_first.calls", c.delete_calls);
    report.pin("unit.hits", c.hits);
    report.pin("unit.delete_hits", c.delete_hits);
    report.set(
        "unit.dedup_ratio",
        c.search_keys as f64 / c.presented_keys as f64,
    );
    report.set("unit.hit_ratio", c.hits as f64 / c.presented_keys as f64);
    report.set(
        "unit.delete_hit_ratio",
        c.delete_hits as f64 / c.delete_calls as f64,
    );
    modelled_ns_note(&mut report, CELLS as u64, cycles_per_op);

    lat.read.report(&mut report, "read_p50_us", "read_p99_us");
    lat.write
        .report(&mut report, "write_p50_us", "write_p99_us");
    lat.search
        .report(&mut report, "unit.search.p50_us", "unit.search.p99_us");
    lat.stream.report(
        &mut report,
        "unit.search_stream.p50_us",
        "unit.search_stream.p99_us",
    );
    lat.update
        .report(&mut report, "unit.update.p50_us", "unit.update.p99_us");
    lat.delete.report(
        &mut report,
        "unit.delete_first.p50_us",
        "unit.delete_first.p99_us",
    );
    if ctx.traced {
        for (span, busy) in [
            ("unit.search", "unit.search.busy_s"),
            ("unit.search_stream", "unit.search_stream.busy_s"),
            ("unit.update", "unit.update.busy_s"),
            ("unit.delete_first", "unit.delete_first.busy_s"),
        ] {
            report.set(busy, ctx.busy_s(span));
        }
    }
    report
}
