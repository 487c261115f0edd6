//! The hierarchical metrics registry: named counters, gauges and
//! log2-bucket latency histograms grouped under slash-separated scope
//! paths mirroring the hardware hierarchy (`unit` → `unit/group{g}` →
//! `unit/group{g}/block{b}` → `.../cell{c}`).
//!
//! Everything is integral and deterministic: scopes and metric names are
//! `BTreeMap`-ordered, so two registries holding the same values render
//! byte-identical JSON. [`MetricsSnapshot`] round-trips through
//! [`Json`] exactly (`parse(render(s)) == s`).

use std::collections::BTreeMap;

use crate::json::{Json, JsonError};

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucket histogram of `u64` samples.
///
/// Bucket 0 counts exact zeros; bucket `k ≥ 1` counts samples whose
/// highest set bit is `k - 1` (i.e. values in `[2^(k-1), 2^k)`), so
/// latencies spanning nanoseconds to seconds fit in 65 fixed buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The count in bucket `index`.
    #[must_use]
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Upper bound on the `q`-quantile sample (`0.0 < q <= 1.0`), from
    /// the log2 buckets: the smallest bucket upper edge at which the
    /// cumulative count reaches `ceil(q * count)`, clamped to the exact
    /// recorded [`Histogram::max`] (and floored at [`Histogram::min`]).
    /// Because buckets are powers of two the answer is within 2× of the
    /// true quantile — the latency-export contract for p50/p99 readouts
    /// of cycle and nanosecond histograms. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Bucket 0 holds exact zeros; bucket k covers
                // [2^(k-1), 2^k), so its inclusive upper edge is
                // 2^k - 1.
                let edge = if index == 0 {
                    0
                } else if index >= 64 {
                    u64::MAX
                } else {
                    (1u64 << index) - 1
                };
                return edge.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// `(bucket_index, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }
}

/// The metrics recorded under one scope path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScopeMetrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl ScopeMetrics {
    /// Add `by` to counter `name` (created at zero on first use).
    pub fn add(&mut self, name: &str, by: u64) {
        // get_mut-then-insert keeps the hot path allocation-free for
        // names that already exist.
        if let Some(slot) = self.counters.get_mut(name) {
            *slot = slot.saturating_add(by);
        } else {
            self.counters.insert(name.to_owned(), by);
        }
    }

    /// Set counter `name` to an absolute value (idempotent publishing).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot = value;
        } else {
            self.counters.insert(name.to_owned(), value);
        }
    }

    /// Set gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.gauges.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Record one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                self.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// Counter value (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded under this scope.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Hierarchical registry of [`ScopeMetrics`] keyed by slash-separated
/// scope path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    scopes: BTreeMap<String, ScopeMetrics>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The metrics under `path`, created empty on first use.
    pub fn scope_mut(&mut self, path: &str) -> &mut ScopeMetrics {
        if !self.scopes.contains_key(path) {
            self.scopes.insert(path.to_owned(), ScopeMetrics::default());
        }
        self.scopes.get_mut(path).expect("just inserted")
    }

    /// The metrics under `path`, if the scope exists.
    #[must_use]
    pub fn scope(&self, path: &str) -> Option<&ScopeMetrics> {
        self.scopes.get(path)
    }

    /// Counter lookup across the hierarchy (0 for unknown scopes).
    #[must_use]
    pub fn counter(&self, path: &str, name: &str) -> u64 {
        self.scopes.get(path).map_or(0, |s| s.counter(name))
    }

    /// Gauge lookup across the hierarchy.
    #[must_use]
    pub fn gauge(&self, path: &str, name: &str) -> Option<i64> {
        self.scopes.get(path).and_then(|s| s.gauge(name))
    }

    /// Histogram lookup across the hierarchy.
    #[must_use]
    pub fn histogram(&self, path: &str, name: &str) -> Option<&Histogram> {
        self.scopes.get(path).and_then(|s| s.histogram(name))
    }

    /// Sum counter `name` over `prefix` itself and every scope nested
    /// below it (`prefix/...`) — e.g. roll all per-block `searches` up
    /// to their group.
    #[must_use]
    pub fn rollup_counter(&self, prefix: &str, name: &str) -> u64 {
        self.scopes
            .iter()
            .filter(|(path, _)| {
                path.as_str() == prefix
                    || (path.starts_with(prefix)
                        && path.as_bytes().get(prefix.len()) == Some(&b'/'))
            })
            .map(|(_, s)| s.counter(name))
            .sum()
    }

    /// All scopes, path-ordered.
    pub fn scopes(&self) -> impl Iterator<Item = (&str, &ScopeMetrics)> {
        self.scopes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of scopes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scopes.len()
    }

    /// Whether the registry holds no scopes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }
}

/// Schema tag embedded in every snapshot, checked on parse.
pub const SNAPSHOT_SCHEMA: &str = "dsp-cam-obs/v1";

/// A point-in-time copy of a sink's registry plus its tracer's
/// admission counters, renderable to JSON and parseable back exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The registry contents at snapshot time.
    pub registry: MetricsRegistry,
    /// Events admitted into the trace ring since creation.
    pub events_recorded: u64,
    /// Events evicted from the ring to bound memory.
    pub events_dropped: u64,
}

impl MetricsSnapshot {
    /// Counter lookup (0 for unknown scopes).
    #[must_use]
    pub fn counter(&self, path: &str, name: &str) -> u64 {
        self.registry.counter(path, name)
    }

    /// Gauge lookup.
    #[must_use]
    pub fn gauge(&self, path: &str, name: &str) -> Option<i64> {
        self.registry.gauge(path, name)
    }

    /// Histogram lookup.
    #[must_use]
    pub fn histogram(&self, path: &str, name: &str) -> Option<&Histogram> {
        self.registry.histogram(path, name)
    }

    /// Render the snapshot as JSON text.
    ///
    /// Schema (all numbers integral):
    ///
    /// ```json
    /// {
    ///   "schema": "dsp-cam-obs/v1",
    ///   "events": {"recorded": N, "dropped": N},
    ///   "scopes": {
    ///     "unit/group0/block1": {
    ///       "counters": {"searches": N, ...},
    ///       "gauges": {"occupancy": N, ...},
    ///       "histograms": {
    ///         "latency": {"count": N, "sum": N, "min": N, "max": N,
    ///                      "buckets": [[bucket_index, count], ...]}
    ///       }
    ///     }
    ///   }
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let scopes = self
            .registry
            .scopes()
            .map(|(path, metrics)| {
                let mut entry = Vec::new();
                if metrics.counters().next().is_some() {
                    entry.push((
                        "counters".to_owned(),
                        Json::Object(
                            metrics
                                .counters()
                                .map(|(name, v)| (name.to_owned(), Json::Int(i128::from(v))))
                                .collect(),
                        ),
                    ));
                }
                if metrics.gauges().next().is_some() {
                    entry.push((
                        "gauges".to_owned(),
                        Json::Object(
                            metrics
                                .gauges()
                                .map(|(name, v)| (name.to_owned(), Json::Int(i128::from(v))))
                                .collect(),
                        ),
                    ));
                }
                if metrics.histograms().next().is_some() {
                    entry.push((
                        "histograms".to_owned(),
                        Json::Object(
                            metrics
                                .histograms()
                                .map(|(name, h)| (name.to_owned(), histogram_to_json(h)))
                                .collect(),
                        ),
                    ));
                }
                (path.to_owned(), Json::Object(entry))
            })
            .collect();
        Json::Object(vec![
            ("schema".to_owned(), Json::Str(SNAPSHOT_SCHEMA.to_owned())),
            (
                "events".to_owned(),
                Json::Object(vec![
                    (
                        "recorded".to_owned(),
                        Json::Int(i128::from(self.events_recorded)),
                    ),
                    (
                        "dropped".to_owned(),
                        Json::Int(i128::from(self.events_dropped)),
                    ),
                ]),
            ),
            ("scopes".to_owned(), Json::Object(scopes)),
        ])
        .render()
    }

    /// Parse a snapshot back from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON or a schema mismatch.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, JsonError> {
        let bad = |message| JsonError { offset: 0, message };
        let root = Json::parse(text)?;
        if root.get("schema").and_then(Json::as_str) != Some(SNAPSHOT_SCHEMA) {
            return Err(bad("unknown snapshot schema"));
        }
        let events = root.get("events").ok_or_else(|| bad("missing events"))?;
        let events_recorded = events
            .get("recorded")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing events.recorded"))?;
        let events_dropped = events
            .get("dropped")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing events.dropped"))?;
        let mut registry = MetricsRegistry::new();
        let scopes = root
            .get("scopes")
            .and_then(Json::entries)
            .ok_or_else(|| bad("missing scopes"))?;
        for (path, body) in scopes {
            let metrics = registry.scope_mut(path);
            if let Some(counters) = body.get("counters").and_then(Json::entries) {
                for (name, v) in counters {
                    let v = v.as_u64().ok_or_else(|| bad("counter not a u64"))?;
                    metrics.set_counter(name, v);
                }
            }
            if let Some(gauges) = body.get("gauges").and_then(Json::entries) {
                for (name, v) in gauges {
                    let v = v
                        .as_int()
                        .and_then(|i| i64::try_from(i).ok())
                        .ok_or_else(|| bad("gauge not an i64"))?;
                    metrics.set_gauge(name, v);
                }
            }
            if let Some(histograms) = body.get("histograms").and_then(Json::entries) {
                for (name, h) in histograms {
                    let parsed = histogram_from_json(h).ok_or_else(|| bad("bad histogram"))?;
                    metrics.histograms.insert(name.clone(), parsed);
                }
            }
        }
        Ok(MetricsSnapshot {
            registry,
            events_recorded,
            events_dropped,
        })
    }
}

fn histogram_to_json(h: &Histogram) -> Json {
    Json::Object(vec![
        ("count".to_owned(), Json::Int(i128::from(h.count()))),
        ("sum".to_owned(), Json::Int(i128::from(h.sum()))),
        ("min".to_owned(), Json::Int(i128::from(h.min()))),
        ("max".to_owned(), Json::Int(i128::from(h.max()))),
        (
            "buckets".to_owned(),
            Json::Array(
                h.nonzero_buckets()
                    .map(|(i, c)| Json::Array(vec![Json::Int(i as i128), Json::Int(i128::from(c))]))
                    .collect(),
            ),
        ),
    ])
}

fn histogram_from_json(json: &Json) -> Option<Histogram> {
    let mut h = Histogram::new();
    h.count = json.get("count")?.as_u64()?;
    h.sum = json.get("sum")?.as_u64()?;
    h.max = json.get("max")?.as_u64()?;
    let min = json.get("min")?.as_u64()?;
    // The render side reports 0 for an empty histogram; restore the
    // internal u64::MAX sentinel so equality holds.
    h.min = if h.count == 0 { u64::MAX } else { min };
    for pair in json.get("buckets")?.items()? {
        let pair = pair.items()?;
        let index = usize::try_from(pair.first()?.as_u64()?).ok()?;
        if index >= HISTOGRAM_BUCKETS {
            return None;
        }
        h.buckets[index] = pair.get(1)?.as_u64()?;
    }
    Some(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_follow_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(10), 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn histogram_quantiles_bound_the_true_percentiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        // The true p50 is 50; the log2 upper bound must cover it without
        // exceeding 2x.
        let p50 = h.quantile(0.50);
        assert!((50..=100).contains(&p50), "p50 bound {p50}");
        // p99 (rank 99 = value 99) bounds into [99, 127] clamped at max.
        let p99 = h.quantile(0.99);
        assert!((99..=100).contains(&p99), "p99 bound {p99}");
        assert_eq!(h.quantile(1.0), 100, "p100 is the exact max");
        // A constant distribution answers exactly at every quantile.
        let mut constant = Histogram::new();
        for _ in 0..10 {
            constant.record(7);
        }
        assert_eq!(constant.quantile(0.5), 7);
        assert_eq!(constant.quantile(0.99), 7);
        // Zeros stay in bucket 0.
        let mut zeros = Histogram::new();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.quantile(0.99), 0);
    }

    #[test]
    fn registry_hierarchy_and_rollup() {
        let mut reg = MetricsRegistry::new();
        reg.scope_mut("unit").add("searches", 5);
        reg.scope_mut("unit/group0/block0").add("searches", 3);
        reg.scope_mut("unit/group0/block1").add("searches", 2);
        reg.scope_mut("unit/group1/block2").add("searches", 7);
        reg.scope_mut("unitx").add("searches", 100); // not under "unit"
        assert_eq!(reg.counter("unit", "searches"), 5);
        assert_eq!(reg.rollup_counter("unit/group0", "searches"), 5);
        assert_eq!(reg.rollup_counter("unit", "searches"), 17);
        assert_eq!(reg.counter("nope", "searches"), 0);
    }

    #[test]
    fn counters_gauges_histograms_coexist() {
        let mut reg = MetricsRegistry::new();
        let s = reg.scope_mut("unit/group0");
        s.add("hits", 1);
        s.add("hits", 2);
        s.set_counter("hits_abs", 9);
        s.set_gauge("occupancy", -3);
        s.observe("latency", 17);
        s.observe("latency", 4);
        assert_eq!(s.counter("hits"), 3);
        assert_eq!(s.counter("hits_abs"), 9);
        assert_eq!(s.gauge("occupancy"), Some(-3));
        assert_eq!(s.histogram("latency").unwrap().count(), 2);
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut registry = MetricsRegistry::new();
        registry.scope_mut("unit").add("issue_cycles", 42);
        registry.scope_mut("unit").set_gauge("groups", 4);
        let s = registry.scope_mut("unit/group0/block0");
        s.add("searches", u64::MAX);
        s.observe("retire_latency", 0);
        s.observe("retire_latency", 5);
        s.observe("retire_latency", 1 << 40);
        let snap = MetricsSnapshot {
            registry,
            events_recorded: 12345,
            events_dropped: 7,
        };
        let text = snap.to_json();
        let parsed = MetricsSnapshot::from_json(&text).unwrap();
        assert_eq!(parsed, snap);
        // And the round-trip is a fixed point of the renderer.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot {
            registry: MetricsRegistry::new(),
            events_recorded: 0,
            events_dropped: 0,
        };
        assert_eq!(MetricsSnapshot::from_json(&snap.to_json()).unwrap(), snap);
    }

    #[test]
    fn schema_mismatch_rejected() {
        assert!(MetricsSnapshot::from_json("{\"schema\":\"other/v9\"}").is_err());
    }
}
