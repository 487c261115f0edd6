//! The one row schema, writer and floor table behind the BENCH artefacts.
//!
//! Every measurement result converts to a [`Row`]: ordered `(key, value)`
//! pairs, each float carrying the precision it prints with. [`emit`]
//! renders an artefact from named [`Section`]s, writes it and checks it.
//! [`FLOORS`] holds every release floor of this crate once: `check`
//! enforces a section's floors wherever they are checked, and the
//! artefacts' `floor_*` / `ceiling_*` fields print from it.

use std::borrow::Cow;
use std::fmt;
use std::path::Path;

use Bound::{AtLeast, AtMost, Below, Equals};
use Value::{Float, Int};

/// One value of a [`Row`], printed the way the artefacts print it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Int(u64),
    /// A float and the number of decimals it prints with.
    Float(f64, usize),
    Str(Cow<'static, str>),
    Bool(bool),
    Null,
}

/// A string [`Value`], usable in the constant [`FLOORS`] table.
pub(crate) const fn text(s: &'static str) -> Value {
    Value::Str(Cow::Borrowed(s))
}

impl Value {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Int(v) => Some(*v as f64),
            Float(v, _) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Int(v) => write!(f, "{v}"),
            Float(v, decimals) => write!(f, "{v:.decimals$}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => f.write_str("null"),
        }
    }
}

/// One artefact row: ordered `(key, value)` pairs, printed as one JSON
/// object on one line.
#[derive(Debug, Clone, Default)]
pub(crate) struct Row(Vec<(&'static str, Value)>);

impl Row {
    pub(crate) fn field(mut self, key: &'static str, value: Value) -> Self {
        self.0.push((key, value));
        self
    }

    pub(crate) fn int(self, key: &'static str, value: u64) -> Self {
        self.field(key, Int(value))
    }

    pub(crate) fn float(self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.field(key, Float(value, decimals))
    }

    pub(crate) fn text(self, key: &'static str, value: impl Into<Cow<'static, str>>) -> Self {
        self.field(key, Value::Str(value.into()))
    }

    fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        write!(f, "{{{}}}", fields.join(", "))
    }
}

/// One named top-level entry of an artefact.
#[derive(Debug)]
pub(crate) enum Section {
    /// A single value; its floors see it as the one row `{name: value}`.
    Field(Value),
    /// One object, printed inline.
    Object(Row),
    /// An array of rows, one per line.
    Rows(Vec<Row>),
}

impl Section {
    fn rows(&self, name: &'static str) -> Vec<Row> {
        match self {
            Section::Field(value) => vec![Row::default().field(name, value.clone())],
            Section::Object(row) => vec![row.clone()],
            Section::Rows(rows) => rows.clone(),
        }
    }
}

/// How a measured value must relate to its floor's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bound {
    AtLeast,
    AtMost,
    /// Strictly below.
    Below,
    Equals,
}

/// One release floor: a bound on one metric of the rows of one section.
#[derive(Debug)]
pub(crate) struct Floor {
    section: &'static str,
    /// `(key, value)` pairs a row must carry for the floor to apply (every
    /// row when empty). The row must carry `metric` too.
    select: &'static [(&'static str, Value)],
    metric: &'static str,
    bound: Bound,
    value: Value,
    /// The key that prints `value` after each row of the section: `null`
    /// on a row the floor does not select.
    field: Option<&'static str>,
    /// Why the floor sits where it does.
    reason: &'static str,
}

impl Floor {
    fn selects(&self, row: &Row) -> bool {
        row.get(self.metric).is_some() && self.select.iter().all(|(k, v)| row.get(k) == Some(v))
    }

    fn holds(&self, measured: f64) -> bool {
        let value = self.value.as_f64().unwrap_or(f64::NAN);
        match self.bound {
            AtLeast => measured >= value,
            AtMost => measured <= value,
            Below => measured < value,
            Equals => measured == value,
        }
    }
}

impl fmt::Display for Floor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let symbol = match self.bound {
            AtLeast => ">=",
            AtMost => "<=",
            Below => "<",
            Equals => "==",
        };
        write!(f, "{} {symbol} {}", self.metric, self.value)
    }
}

/// Every release floor of this crate, each defined once. Throughput
/// floors are wall clock and release-only; cycle and tick bounds are
/// deterministic, so breaking one means the modelled schedule changed,
/// not that the machine was slow.
#[rustfmt::skip]
pub(crate) static FLOORS: &[Floor] = &[
    // BENCH_search.json
    Floor { section: "rows", select: &[], metric: "turbo_speedup_over_bit_accurate",
        bound: AtLeast, value: Float(50.0, 1), field: Some("floor_turbo_speedup"),
        reason: "the Turbo tier's reason to exist: at least 50x the bit-accurate DSP simulation" },
    Floor { section: "turbo_trace_overhead_pct", select: &[], metric: "turbo_trace_overhead_pct",
        bound: Below, value: Float(3.0, 1), field: None,
        reason: "tracing every event costs under 3% of Turbo search_stream throughput on a ternary(32, 0) plane walk" },
    Floor { section: "scrub_overhead_pct", select: &[], metric: "scrub_overhead_pct",
        bound: AtMost, value: Float(5.0, 1), field: None,
        reason: "the default ScrubPolicy costs at most 5% of Turbo search_stream throughput on a ternary(32, 0) plane walk" },
    Floor { section: "batch_kernel_vs_scalar", select: &[("entries", Int(8192)), ("batch_width", Int(32))],
        metric: "batched_over_scalar", bound: AtLeast, value: Float(2.0, 1), field: None,
        reason: "the key-parallel kernel's reason to exist: at least 2x its one-key degenerate on a ternary(32, 0) plane walk" },
    Floor { section: "large_rows", select: &[("entries", Int(65_536))], metric: "searches_per_sec_per_entry",
        bound: AtLeast, value: Float(90.0, 1), field: None,
        reason: "binary streams fold block-sized answers from only the blocks the exact-match index names (111.7-197.8, median 141.7, over 30 release runs)" },
    Floor { section: "large_rows", select: &[("entries", Int(262_144))], metric: "searches_per_sec_per_entry",
        bound: AtLeast, value: Float(25.0, 1), field: None,
        reason: "a stream's per-key work no longer grows with group capacity: a candidate walk never clears or scans a group-wide match vector (29.9-54.0, median 33.0, over 30 release runs)" },
    Floor { section: "large_rows", select: &[("entries", Int(1_048_576))], metric: "searches_per_sec_per_entry",
        bound: AtLeast, value: Float(4.5, 1), field: None,
        reason: "a stream's per-key work no longer grows with group capacity, so 1M entries stream within 2x of 64k (5.63-10.58, median 6.87, over 30 release runs)" },
    Floor { section: "large_rows", select: &[("entries", Int(8192))], metric: "point_searches_per_sec",
        bound: AtLeast, value: Float(3_000_000.0, 1), field: None,
        reason: "a one-key search allocates nothing per call and reads its candidates from the index and its group's suspect list (4.76M-8.40M, median 7.52M, over 30 release runs)" },
    Floor { section: "large_rows", select: &[("entries", Int(65_536))], metric: "point_searches_per_sec",
        bound: AtLeast, value: Float(3_000_000.0, 1), field: None,
        reason: "a one-key search never scans its group: suspects are listed per group and the all-miss tally is charged by group (4.74M-8.65M, median 7.71M, over 30 release runs)" },
    Floor { section: "large_rows", select: &[("entries", Int(262_144))], metric: "point_searches_per_sec",
        bound: AtLeast, value: Float(3_000_000.0, 1), field: None,
        reason: "a one-key search never scans its group: suspects are listed per group and the all-miss tally is charged by group (4.30M-8.29M, median 7.56M, over 30 release runs)" },
    Floor { section: "large_rows", select: &[("entries", Int(1_048_576))], metric: "point_searches_per_sec",
        bound: AtLeast, value: Float(3_000_000.0, 1), field: None,
        reason: "a one-key search costs O(its candidate blocks), so 1M entries search at the 8192-entry rate (4.78M-8.48M, median 7.54M, over 30 release runs)" },
    Floor { section: "update_queue_rows", select: &[("entries", Int(8192)), ("mix", text("50:45:5"))],
        metric: "update_p99_buffered_over_inline", bound: AtMost, value: Float(0.5, 1), field: None,
        reason: "absorbing an insert costs at most half of applying it inline, even at the tail" },
    Floor { section: "update_queue_rows", select: &[("entries", Int(8192)), ("mix", text("50:45:5"))],
        metric: "search_buffered_over_inline", bound: AtLeast, value: Float(2.0, 1), field: None,
        reason: "with updates absorbed off the search path, search throughput at least doubles" },
    Floor { section: "capacity_scaling", select: &[("shards", Int(4))], metric: "speedup_over_single",
        bound: AtLeast, value: Float(2.5, 1), field: Some("floor_speedup_over_single"),
        reason: "quarter-capacity ternary(32, 0) shards' plane walk searches ~4x faster (3.0-3.5x summed CPU time measured)" },
    Floor { section: "cluster_migration", select: &[], metric: "dropped",
        bound: Equals, value: Int(0), field: None,
        reason: "live migration's zero-dropped-query invariant" },
    Floor { section: "cluster_migration", select: &[], metric: "frozen_answers",
        bound: AtLeast, value: Int(1), field: None,
        reason: "the migration window serves reads from the frozen replica" },
    Floor { section: "failover_rows", select: &[], metric: "dropped",
        bound: Equals, value: Int(0), field: None,
        reason: "a shard failure does not drop a query" },
    Floor { section: "failover_rows", select: &[], metric: "availability",
        bound: AtLeast, value: Float(0.99, 2), field: Some("floor_availability"),
        reason: "one shard failure plus its recovery leaves >= 99% of presented keys/ops answered" },
    Floor { section: "failover_rows", select: &[], metric: "shed_writes",
        bound: Equals, value: Int(0), field: None,
        reason: "the drills' patient shed policy outwaits every canonical outage" },
    Floor { section: "failover_rows", select: &[], metric: "failures_detected",
        bound: Equals, value: Int(1), field: None,
        reason: "exactly the scheduled fault is detected" },
    Floor { section: "failover_rows", select: &[], metric: "max_recovery_ticks",
        bound: AtLeast, value: Int(1), field: None,
        reason: "the failed shard recovers" },
    Floor { section: "failover_rows", select: &[], metric: "max_recovery_ticks",
        bound: AtMost, value: Int(2000), field: Some("ceiling_recovery_ticks"),
        reason: "a failed shard never wedges the cluster: the restore model or stall bounds recovery" },
    Floor { section: "failover_rows", select: &[], metric: "degraded_answers",
        bound: AtLeast, value: Int(1), field: None,
        reason: "the outage window serves reads from replica epochs" },
    // BENCH_workloads.json
    Floor { section: "degraded_mode", select: &[], metric: "availability",
        bound: AtLeast, value: Float(0.99, 2), field: Some("floor_availability"),
        reason: "failover_rows' availability contract, across the scenario's shard crash" },
    Floor { section: "degraded_mode", select: &[], metric: "recovery_ticks",
        bound: AtLeast, value: Int(1), field: None,
        reason: "the crashed shard rebuilds" },
    Floor { section: "degraded_mode", select: &[], metric: "recovery_ticks",
        bound: AtMost, value: Int(2000), field: Some("ceiling_recovery_ticks"),
        reason: "failover_rows' recovery ceiling, across the scenario's shard crash" },
    Floor { section: "scenarios", select: &[("name", text("read_heavy"))], metric: "streaming_ops_per_sec",
        bound: AtLeast, value: Float(60_000.0, 1), field: Some("floor_streaming_ops_per_sec"),
        reason: "ten release runs on a 2-vCPU host read 1.21M-1.92M ops/s (median 1.41M)" },
    Floor { section: "scenarios", select: &[("name", text("read_heavy"))], metric: "direct_ops_per_sec",
        bound: AtLeast, value: Float(55_000.0, 1), field: Some("floor_direct_ops_per_sec"),
        reason: "ten release runs on a 2-vCPU host read 1.32M-2.04M ops/s (median 1.67M)" },
    Floor { section: "scenarios", select: &[("name", text("read_heavy"))], metric: "streaming_ticks",
        bound: Equals, value: Int(290_029), field: None,
        reason: "the modelled schedule: 1M back-to-back ops retire in 290,029 cycles at II = 1 (16-key streams count once)" },
    Floor { section: "scenarios", select: &[("name", text("read_heavy"))], metric: "retire_p50_cycles",
        bound: Equals, value: Int(6), field: None,
        reason: "the modelled schedule: most records are writes (16-key streams count once), retiring unqueued after 6 cycles" },
    Floor { section: "scenarios", select: &[("name", text("read_heavy"))], metric: "retire_p99_cycles",
        bound: Equals, value: Int(8), field: None,
        reason: "the modelled schedule: an 8-cycle search, unqueued" },
    Floor { section: "scenarios", select: &[("name", text("read_heavy"))], metric: "retire_max_cycles",
        bound: Equals, value: Int(8), field: None,
        reason: "the modelled schedule: no op outlasts the 8-cycle search latency" },
    Floor { section: "scenarios", select: &[("name", text("write_heavy"))], metric: "streaming_ops_per_sec",
        bound: AtLeast, value: Float(20_000.0, 1), field: Some("floor_streaming_ops_per_sec"),
        reason: "ten release runs on a 2-vCPU host read 319k-540k ops/s (median 434k; every write replicated 4 ways)" },
    Floor { section: "scenarios", select: &[("name", text("write_heavy"))], metric: "direct_ops_per_sec",
        bound: AtLeast, value: Float(20_000.0, 1), field: Some("floor_direct_ops_per_sec"),
        reason: "ten release runs on a 2-vCPU host read 343k-630k ops/s (median 467k; every write replicated 4 ways)" },
    Floor { section: "scenarios", select: &[("name", text("write_heavy"))], metric: "streaming_ticks",
        bound: Equals, value: Int(1_150_445), field: None,
        reason: "the modelled schedule: 1M back-to-back ops plus their evictions retire in 1,150,445 cycles" },
    Floor { section: "scenarios", select: &[("name", text("write_heavy"))], metric: "retire_p50_cycles",
        bound: Equals, value: Int(6), field: None,
        reason: "the modelled schedule: writes retire unqueued at the 6-cycle write latency" },
    Floor { section: "scenarios", select: &[("name", text("write_heavy"))], metric: "retire_p99_cycles",
        bound: Equals, value: Int(8), field: None,
        reason: "the modelled schedule: an 8-cycle search, unqueued" },
    Floor { section: "scenarios", select: &[("name", text("write_heavy"))], metric: "retire_max_cycles",
        bound: Equals, value: Int(8), field: None,
        reason: "the modelled schedule: no op outlasts the 8-cycle search latency" },
    Floor { section: "scenarios", select: &[("name", text("bursty_zipfian"))], metric: "streaming_ops_per_sec",
        bound: AtLeast, value: Float(60_000.0, 1), field: Some("floor_streaming_ops_per_sec"),
        reason: "ten release runs on a 2-vCPU host read 1.05M-1.61M ops/s (median 1.28M)" },
    Floor { section: "scenarios", select: &[("name", text("bursty_zipfian"))], metric: "direct_ops_per_sec",
        bound: AtLeast, value: Float(65_000.0, 1), field: Some("floor_direct_ops_per_sec"),
        reason: "ten release runs on a 2-vCPU host read 893k-1.82M ops/s (median 1.40M)" },
    Floor { section: "scenarios", select: &[("name", text("bursty_zipfian"))], metric: "streaming_ticks",
        bound: Equals, value: Int(897_335), field: None,
        reason: "the modelled schedule: 1M ops in 64-op bursts and 48-cycle gaps retire in 897,335 cycles" },
    Floor { section: "scenarios", select: &[("name", text("bursty_zipfian"))], metric: "retire_p50_cycles",
        bound: Equals, value: Int(15), field: None,
        reason: "the modelled schedule: bursts queue behind the one issue slot" },
    Floor { section: "scenarios", select: &[("name", text("bursty_zipfian"))], metric: "retire_p99_cycles",
        bound: Equals, value: Int(41), field: None,
        reason: "the modelled schedule: bursts queue behind the one issue slot" },
    Floor { section: "scenarios", select: &[("name", text("bursty_zipfian"))], metric: "retire_max_cycles",
        bound: Equals, value: Int(76), field: None,
        reason: "the modelled schedule: the deepest burst backlog behind the one issue slot" },
];

/// One line per floor of `sections` that a row breaks, naming the
/// section, the row, the metric, the measured value and the bound. With
/// `complete` (emitters measure every row), also one per floor of a
/// given section that selects none of its rows, so that a selector or
/// metric typo cannot switch a floor off.
fn failures(sections: &[(&'static str, Section)], complete: bool) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, section) in sections {
        let rows = section.rows(name);
        for floor in FLOORS.iter().filter(|f| f.section == *name) {
            let selected: Vec<&Row> = rows.iter().filter(|row| floor.selects(row)).collect();
            if complete && selected.is_empty() {
                failures.push(format!("{name}: no row {:?} for {floor}", floor.select));
            }
            for row in selected {
                let measured = row
                    .get(floor.metric)
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                if !floor.holds(measured) {
                    let (metric, reason) = (floor.metric, floor.reason);
                    failures.push(format!(
                        "{name} row {row}: {metric} = {measured} breaks {floor} ({reason})"
                    ));
                }
            }
        }
    }
    failures
}

/// Check `rows` of `section` against each floor of the section that
/// selects one of them; a floor selecting none is not checked.
///
/// # Panics
///
/// Panics listing every broken floor, and when no floor of `section`
/// selects any of `rows`, so that a section, selector or key typo cannot
/// leave the check empty.
#[cfg(test)]
pub(crate) fn check(section: &'static str, rows: Vec<Row>) {
    let selected = FLOORS
        .iter()
        .any(|f| f.section == section && rows.iter().any(|row| f.selects(row)));
    assert!(selected, "{section}: no floor selects any of {rows:?}");
    let failures = failures(&[(section, Section::Rows(rows))], false);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `row` as `section` prints it: followed by each of the section's floor
/// fields, in table order.
fn printed(section: &str, row: &Row) -> Row {
    let mut printed = row.clone();
    let floors = || FLOORS.iter().filter(|f| f.section == section);
    for field in floors().filter_map(|f| f.field) {
        if printed.get(field).is_none() {
            let floor = floors().find(|f| f.field == Some(field) && f.selects(row));
            printed = printed.field(field, floor.map_or(Value::Null, |f| f.value.clone()));
        }
    }
    printed
}

/// The artefact text: one top-level entry per line, one row per array line.
fn render(sections: &[(&'static str, Section)]) -> String {
    let entries: Vec<String> = sections
        .iter()
        .map(|(name, section)| match section {
            Section::Field(value) => format!("  \"{name}\": {value}"),
            Section::Object(row) => format!("  \"{name}\": {}", printed(name, row)),
            Section::Rows(rows) => {
                let lines: Vec<String> = rows
                    .iter()
                    .map(|row| format!("    {}", printed(name, row)))
                    .collect();
                format!("  \"{name}\": [\n{}\n  ]", lines.join(",\n"))
            }
        })
        .collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// Print the artefact `file` — its `source` and `metric` fields, then
/// `sections` — write it at the repository root, and check it against
/// every floor of its sections: the tail of both emitters.
///
/// # Panics
///
/// Panics listing every broken floor, and every floor of a written
/// section that selects none of its rows.
pub(crate) fn emit(
    file: &str,
    source: &str,
    metric: &'static str,
    sections: Vec<(&'static str, Section)>,
) {
    let mut all = vec![
        (
            "source",
            Section::Field(Value::Str(source.to_string().into())),
        ),
        ("metric", Section::Field(text(metric))),
    ];
    all.extend(sections);
    let body = render(&all);
    print!("\n{body}");
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file);
    match std::fs::write(&path, body) {
        Ok(()) => println!("(json: {})", path.display()),
        Err(err) => println!("(failed to write {file}: {err})"),
    }
    let failures = failures(&all, true);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The `cluster_migration` object's `invariant` label: its `dropped` floor.
pub(crate) fn migration_invariant() -> String {
    let dropped = FLOORS
        .iter()
        .find(|f| f.section == "cluster_migration" && f.metric == "dropped");
    dropped
        .expect("the migration invariant is floored")
        .to_string()
}

#[cfg(test)]
mod tests {
    use dsp_cam_workload::TraceCounts;

    use super::*;
    use crate::cluster::{capacity_scaling, ClusterRow, MigrationInvariantRow};
    use crate::failover::FailoverRow;
    use crate::search_rates::{BatchVsScalarRow, LargeScaleRow, SearchRateRow, LARGE_BENCH_SIZES};
    use crate::update_latency::{UpdateLatencyRow, UpdateMix};
    use crate::workloads::{canonical_scenarios, ScenarioResult};

    /// The committed `crash_rebuild` drill.
    fn crash_rebuild() -> FailoverRow {
        FailoverRow {
            scenario: "crash_rebuild",
            shards: 4,
            app_ops: 15_000,
            presented: 18_756,
            availability: 1.0,
            degraded_answers: 2,
            shed_writes: 0,
            write_retries: 2,
            failures_detected: 1,
            rebuilds_completed: 1,
            max_recovery_ticks: 19,
            dropped: 0,
            ticks: 15_040,
        }
    }

    #[test]
    fn committed_rows_render_byte_for_byte() {
        let read_heavy = ScenarioResult {
            name: "read_heavy",
            counts: TraceCounts {
                searches: 1_000_000,
                evictions: 79_636,
                ..TraceCounts::default()
            },
            digest: 8_521_837_655_631_505_672,
            ticks: 290_029,
            streaming_ops_per_sec: 310_910.9,
            direct_ops_per_sec: 334_052.0,
            p50_retire_cycles: 6,
            p99_retire_cycles: 8,
            max_retire_cycles: 8,
            search_hits: 542_462,
        };
        let scenario = read_heavy.row(&canonical_scenarios()[0]);
        let body = render(&[
            ("failover_rows", Section::Rows(vec![crash_rebuild().row()])),
            ("scenarios", Section::Rows(vec![scenario])),
        ]);
        // The first row of each committed array, trailing comma included.
        for line in [
            r#"    {"scenario": "crash_rebuild", "shards": 4, "app_ops": 15000, "presented": 18756, "availability": 1.0000, "degraded_answers": 2, "shed_writes": 0, "write_retries": 2, "failures_detected": 1, "rebuilds_completed": 1, "max_recovery_ticks": 19, "dropped": 0, "ticks": 15040, "floor_availability": 0.99, "ceiling_recovery_ticks": 2000},"#,
            r#"    {"name": "read_heavy", "mix": "90:9:1", "zipf_s": 0.80, "arrival": "back_to_back", "stream_batch": 16, "write_buffer": false, "app_ops": 1000000, "evictions": 79636, "trace_digest": 8521837655631505672, "streaming_ticks": 290029, "cycles_per_op": 0.290, "streaming_ops_per_sec": 310910.9, "direct_ops_per_sec": 334052.0, "retire_p50_cycles": 6, "retire_p99_cycles": 8, "retire_max_cycles": 8, "search_hits": 542462, "floor_streaming_ops_per_sec": 60000.0, "floor_direct_ops_per_sec": 55000.0},"#,
        ] {
            let found = body.lines().any(|rendered| format!("{rendered},") == line);
            assert!(found, "{line}\nnot rendered in:\n{body}");
        }
    }

    #[test]
    fn every_floor_holds_at_its_bound_and_breaks_just_past_it() {
        for floor in FLOORS {
            let past = match (&floor.value, floor.bound) {
                (Int(v), AtLeast) => Int(v - 1),
                (Int(v), _) => Int(v + 1),
                (Float(v, d), AtLeast) => Float(v.next_down(), *d),
                (Float(v, d), _) => Float(v.next_up(), *d),
                (value, _) => panic!("{floor}: non-numeric bound {value}"),
            };
            let failures_at = |value: Value| {
                let row = Row(floor.select.to_vec()).field(floor.metric, value);
                failures(&[(floor.section, Section::Rows(vec![row]))], false)
            };
            let at_bound = failures_at(floor.value.clone());
            assert_eq!(
                at_bound.is_empty(),
                floor.bound != Below,
                "{floor}: {at_bound:?}"
            );
            let measured = past.as_f64().expect("numeric").to_string();
            let bound = floor.value.to_string();
            let past = failures_at(past);
            assert_eq!(past.len(), 1, "{floor}: {past:?}");
            for part in [floor.section, floor.metric, &measured, &bound] {
                assert!(past[0].contains(part), "{:?} does not name {part}", past[0]);
            }
        }
    }

    #[test]
    fn a_floor_whose_row_is_missing_fails_the_emitter_check() {
        let large = |sizes: &[u64]| {
            let row = |&e| {
                Row::default()
                    .int("entries", e)
                    .float("searches_per_sec_per_entry", 1000.0, 4)
                    .float("point_searches_per_sec", 1.0e7, 1)
            };
            [("large_rows", Section::Rows(sizes.iter().map(row).collect()))]
        };
        assert!(failures(&large(&[8192, 65_536, 262_144, 1_048_576]), true).is_empty());
        let missing = failures(&large(&[8192, 65_536, 262_144]), true);
        assert_eq!(missing.len(), 2, "{missing:?}");
        for failure in missing {
            assert!(failure.contains("large_rows") && failure.contains("1048576"));
        }
    }

    #[test]
    #[should_panic(expected = "no floor selects")]
    fn a_check_that_no_floor_selects_fails() {
        let misspelt =
            Row::default()
                .int("entries", 65_536)
                .float("searches_per_sec_per_entri", 1.0, 4);
        check("large_rows", vec![misspelt]);
    }

    /// One synthetic row from each `BENCH_search.json` conversion: the
    /// derived metrics print their values, and every floor of the
    /// artefact selects a row, so a renamed key cannot switch one off.
    #[test]
    fn json_rows_roundtrip_shape() {
        let update_queue = UpdateLatencyRow {
            entries: 8192,
            mix: UpdateMix::WRITE_HEAVY,
            buffered_update_p50_ns: 100.0,
            buffered_update_p99_ns: 200.0,
            inline_update_p50_ns: 400.0,
            inline_update_p99_ns: 800.0,
            buffered_search_kps: 3.0e6,
            inline_search_kps: 1.0e6,
            buffered_drained_ops: 7,
        };
        let cluster = |shards, elapsed_secs| ClusterRow {
            shards,
            entries_per_shard: 8192 / shards,
            app_ops: 1_000_000,
            elapsed_secs,
            update_rejections: 0,
        };
        let migration = MigrationInvariantRow {
            issued: 100,
            completions: 100,
            dropped: 0,
            frozen_answers: 2,
            stall_cycles: 30,
            ticks: 500,
        };
        let large = LARGE_BENCH_SIZES.map(|entries| {
            let stream_kps = 1000.0 * entries as f64;
            LargeScaleRow {
                entries,
                stream_kps,
                point_sps: 1.0e7,
            }
            .row()
        });
        let batch = BatchVsScalarRow {
            entries: 8192,
            batch_width: 32,
            batched_kps: 3.0e6,
            scalar_kps: 1.0e6,
        };
        let rates = SearchRateRow {
            entries: 512,
            turbo_sps: 2.0e7,
            accurate_sps: 1.0e5,
        };
        let sections = [
            ("turbo_trace_overhead_pct", Section::Field(Float(1.0, 2))),
            ("scrub_overhead_pct", Section::Field(Float(1.0, 2))),
            ("batch_kernel_vs_scalar", Section::Object(batch.row())),
            ("update_queue_rows", Section::Rows(vec![update_queue.row()])),
            (
                "capacity_scaling",
                Section::Rows(capacity_scaling(&[cluster(1, 4.0), cluster(4, 1.0)])),
            ),
            ("cluster_migration", Section::Object(migration.row())),
            ("failover_rows", Section::Rows(vec![crash_rebuild().row()])),
            ("large_rows", Section::Rows(large.to_vec())),
            ("rows", Section::Rows(vec![rates.row()])),
        ];
        assert_eq!(failures(&sections, true), Vec::<String>::new());
        let body = render(&sections);
        for derived in [
            r#""turbo_speedup_over_bit_accurate": 200.00"#,
            r#""searches_per_sec_per_entry": 1000.0000"#,
            r#""batched_over_scalar": 3.00"#,
            r#""update_p99_buffered_over_inline": 0.250"#,
            r#""search_buffered_over_inline": 3.00"#,
            r#""speedup_over_single": 4.00"#,
        ] {
            assert!(body.contains(derived), "{derived} not rendered in:\n{body}");
        }
    }
}
