//! Metric names and units, and the run report that prints them.
//! `BENCHMARK.json` lists the same metrics with their directions; keep
//! the two in step.

use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Reported by every workload with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("ops_per_s", "ops/s"),
    m("sim_cycles_per_op", "cycles/op"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Reported by the traced run. Host times are per episode and unscaled,
/// except the set-up parts, which are medians per set-up scaled like
/// `setup_s`; a layer a workload bypasses reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("read_p50_us", "us"),
    m("read_p99_us", "us"),
    m("write_p50_us", "us"),
    m("write_p99_us", "us"),
    m("sim_retire_p50_cycles", "cycles"),
    m("sim_retire_p99_cycles", "cycles"),
    m("sim_ns_per_op", "ns/op"),
    m("workload.generate_s", "s"),
    m("workload.records", "count"),
    m("graph.build_s", "s"),
    m("graph.arcs", "count"),
    m("unit.search_stream.calls", "count"),
    m("unit.search_stream.busy_s", "s"),
    m("unit.search_stream.p50_us", "us"),
    m("unit.search_stream.p99_us", "us"),
    m("unit.search.calls", "count"),
    m("unit.search.busy_s", "s"),
    m("unit.search.p50_us", "us"),
    m("unit.search.p99_us", "us"),
    m("unit.search_keys", "count"),
    m("unit.dedup_ratio", "ratio"),
    m("unit.hit_ratio", "ratio"),
    m("unit.update.calls", "count"),
    m("unit.update.busy_s", "s"),
    m("unit.update.p50_us", "us"),
    m("unit.update.p99_us", "us"),
    m("unit.delete_first.calls", "count"),
    m("unit.delete_first.busy_s", "s"),
    m("unit.delete_first.p50_us", "us"),
    m("unit.delete_first.p99_us", "us"),
    m("unit.delete_hit_ratio", "ratio"),
    m("unit.update_words", "count"),
    m("unit.issue_cycles", "cycles"),
    m("unit.new_s", "s"),
    m("unit.prefill_s", "s"),
    m("update_queue.absorbed_updates", "count"),
    m("update_queue.drained_ops", "count"),
    m("update_queue.search_flushes", "count"),
    m("update_queue.overflows", "count"),
    m("update_queue.peak_depth", "count"),
    m("update_queue.flushes_per_search", "ratio"),
    m("cluster.new_s", "s"),
    m("cluster.prefill_s", "s"),
    m("cluster.replay_s", "s"),
    m("cluster.ticks", "cycles"),
    m("cluster.host_ns_per_tick", "ns"),
    m("cluster.issued", "count"),
    m("cluster.peak_queue_depth", "count"),
    m("cluster.head_of_line_stalls", "count"),
    m("cluster.shard_skew", "ratio"),
    m("cluster.worst_shard_retire_p99_cycles", "cycles"),
    m("tc.hw_model_s", "s"),
    m("tc.edges", "count"),
    m("tc.probe_keys", "count"),
    m("tc.triangles", "count"),
    m("tc.reference_s", "s"),
    m("fpga_model.period_ns", "ns/cycle"),
    m("bench.harness_s", "s"),
    m("bench.host_speed", "ratio"),
    m("bench.unscaled_ops_per_s", "ops/s"),
    m("bench.trace_overhead", "fraction"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric table"))
        .unit
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Ops checked against the oracle.
    pub attempted: u64,
    /// Wrong answers, refused updates, dropped or shed ops.
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Values that must repeat bit for bit across runs of one commit
    /// and seed: trace digest, `sim_*` metrics and layer counts.
    pub determinism: Vec<(&'static str, String)>,
    /// Extra human-readable lines (modelled-ns column, span table).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.values.insert(name, value);
    }

    /// Record a value that must be bit-identical across repeats.
    pub fn pin(&mut self, name: &'static str, value: impl std::fmt::Display) {
        self.determinism.push((name, value.to_string()));
    }

    /// Record a deterministic count both as a metric and as a pinned
    /// value.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64);
        self.pin(name, value);
    }

    pub fn fail(&mut self, failures: u64, why: impl Into<String>) {
        if failures > 0 {
            self.failed += failures;
            self.notes
                .push(format!("FAILED ({failures}): {}", why.into()));
        }
    }

    /// Print the human-readable block, then the result line (last line
    /// of stdout).
    pub fn print(&self, traced: bool) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value) in &self.determinism {
            println!("pin {name} = {value}");
        }
        for (name, value) in &self.values {
            println!("metric {name} = {value} {}", unit_of(name));
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("metric error_rate = {error_rate} fraction");
        let wanted = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        let mut correct = self.failed == 0 && self.attempted > 0;
        for metric in wanted {
            // A layer the workload bypasses did no work: it reads 0.
            let value = match self.values.get(metric.name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", metric.name),
            };
            if !value.is_finite() {
                println!("FAILED: metric {} is not finite", metric.name);
                correct = false;
                continue;
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// Nearest-rank percentile of `ns` samples, in microseconds.
pub fn percentile_us(ns: &[u64], p: f64) -> f64 {
    dsp_cam_workload::percentile(ns, p) as f64 / 1e3
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
