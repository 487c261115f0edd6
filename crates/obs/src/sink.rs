//! The shared observation sink: one mutex around a registry, a tracer
//! and a scope-path intern table, designed so instrumented hot loops pay
//! for at most **one lock acquisition per architectural operation**.
//!
//! Scope paths are interned once at attach/registration time into cheap
//! `Copy` [`ScopeId`]s; hot paths then batch all of an operation's
//! recordings through [`ObsSink::with`], which locks once and hands the
//! closure an [`ObsBatch`] with direct registry/tracer access.

use std::sync::Mutex;

use dsp_cam_sim::vcd::Vcd;

use crate::registry::{MetricsRegistry, MetricsSnapshot, ScopeMetrics};
use crate::trace::{Event, EventTracer, TraceRecord};

/// An interned scope path, cheap to copy into instrumented structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(usize);

#[derive(Debug)]
struct Inner {
    registry: MetricsRegistry,
    tracer: EventTracer,
    /// Interned scope paths, indexed by `ScopeId`.
    paths: Vec<String>,
}

/// Thread-safe observation sink shared (via `Arc`) between the
/// instrumented hierarchy and the reporting side.
#[derive(Debug)]
pub struct ObsSink {
    inner: Mutex<Inner>,
}

impl Default for ObsSink {
    fn default() -> Self {
        ObsSink::new()
    }
}

impl ObsSink {
    /// Default trace-ring retention.
    pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

    /// A sink with the default trace capacity.
    #[must_use]
    pub fn new() -> Self {
        ObsSink::with_trace_capacity(Self::DEFAULT_TRACE_CAPACITY)
    }

    /// A sink whose trace ring retains at most `capacity` records.
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Self {
        ObsSink {
            inner: Mutex::new(Inner {
                registry: MetricsRegistry::new(),
                tracer: EventTracer::new(capacity),
                paths: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicked recorder must not take observability down with it.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Intern `path` (idempotent) and return its id. Call once at
    /// attach time, not per operation.
    pub fn register_scope(&self, path: &str) -> ScopeId {
        let mut inner = self.lock();
        if let Some(i) = inner.paths.iter().position(|p| p == path) {
            return ScopeId(i);
        }
        inner.paths.push(path.to_owned());
        // Materialise the scope so it appears in snapshots even before
        // the first recording.
        inner.registry.scope_mut(path);
        ScopeId(inner.paths.len() - 1)
    }

    /// The path a [`ScopeId`] was registered under.
    #[must_use]
    pub fn scope_path(&self, scope: ScopeId) -> String {
        self.lock().paths[scope.0].clone()
    }

    /// Lock once and run `f` with batched recording access — the hot
    /// path for instrumented operations that emit several events and
    /// metric updates at once.
    pub fn with<R>(&self, f: impl FnOnce(&mut ObsBatch<'_>) -> R) -> R {
        let mut inner = self.lock();
        let mut batch = ObsBatch { inner: &mut inner };
        f(&mut batch)
    }

    /// Convenience single-counter add (locks once).
    pub fn add(&self, scope: ScopeId, name: &str, by: u64) {
        self.with(|o| o.add(scope, name, by));
    }

    /// Convenience single-histogram observation (locks once).
    pub fn observe(&self, scope: ScopeId, name: &str, value: u64) {
        self.with(|o| o.observe(scope, name, value));
    }

    /// Convenience single-gauge set (locks once).
    pub fn set_gauge(&self, scope: ScopeId, name: &str, value: i64) {
        self.with(|o| o.set_gauge(scope, name, value));
    }

    /// Convenience single-event record (locks once).
    pub fn record(&self, cycle: u64, event: Event) {
        self.with(|o| o.record(cycle, event));
    }

    /// Point-in-time copy of the registry plus tracer admission
    /// counters.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            registry: inner.registry.clone(),
            events_recorded: inner.tracer.recorded(),
            events_dropped: inner.tracer.dropped(),
        }
    }

    /// Copy of the retained trace records, oldest first.
    #[must_use]
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.lock().tracer.records().copied().collect()
    }

    /// The retained trace as a JSON array (see
    /// [`EventTracer::to_json`](crate::trace::EventTracer::to_json)).
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.lock().tracer.to_json()
    }

    /// The retained trace as a VCD waveform (see
    /// [`EventTracer::to_vcd`](crate::trace::EventTracer::to_vcd)).
    #[must_use]
    pub fn to_vcd(&self, module: &str) -> Vcd {
        self.lock().tracer.to_vcd(module)
    }
}

/// Batched recording handle — all methods run under the single lock
/// taken by [`ObsSink::with`].
#[derive(Debug)]
pub struct ObsBatch<'a> {
    inner: &'a mut Inner,
}

impl ObsBatch<'_> {
    fn scope_mut(&mut self, scope: ScopeId) -> &mut ScopeMetrics {
        // Indexing is safe: ScopeIds only come from register_scope on
        // the same sink, and paths are never removed. Destructuring
        // splits the registry and path-table borrows.
        let Inner {
            registry, paths, ..
        } = &mut *self.inner;
        registry.scope_mut(&paths[scope.0])
    }

    /// Admit one trace event.
    pub fn record(&mut self, cycle: u64, event: Event) {
        self.inner.tracer.record(cycle, event);
    }

    /// Add `by` to counter `name` under `scope`.
    pub fn add(&mut self, scope: ScopeId, name: &str, by: u64) {
        self.scope_mut(scope).add(name, by);
    }

    /// Set counter `name` under `scope` to an absolute value.
    pub fn set_counter(&mut self, scope: ScopeId, name: &str, value: u64) {
        self.scope_mut(scope).set_counter(name, value);
    }

    /// Set gauge `name` under `scope`.
    pub fn set_gauge(&mut self, scope: ScopeId, name: &str, value: i64) {
        self.scope_mut(scope).set_gauge(name, value);
    }

    /// Record one histogram sample under `scope`.
    pub fn observe(&mut self, scope: ScopeId, name: &str, value: u64) {
        self.scope_mut(scope).observe(name, value);
    }
}
