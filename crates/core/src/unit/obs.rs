//! Observability (`obs` feature): attaching a sink, publishing counters
//! and tracing operations. Results and counters never depend on it.

use std::sync::Arc;

use dsp_cam_obs::{Event, ObsBatch, ObsSink, OpKind, ScopeId, Tier};

use super::{CamUnit, SearchResult};
use crate::bitslice::MAX_BATCH_WIDTH;
use crate::block::CamBlock;
use crate::config::FidelityMode;

/// An attached observability sink plus the interned scope path the unit
/// records under (default `"unit"`; the triangle-count accelerator
/// nests its internal unit under `"accel/unit"`).
#[derive(Debug, Clone)]
pub(super) struct Observer {
    sink: Arc<ObsSink>,
    scope: ScopeId,
    path: String,
}

/// Reads one counter of a block.
type BlockCounter = fn(&CamBlock) -> u64;

/// The per-block counters, published at block scope and summed at group
/// scope.
const BLOCK_COUNTERS: [(&str, BlockCounter); 5] = [
    ("searches", CamBlock::searches),
    ("cycles", CamBlock::cycles),
    ("update_beats", CamBlock::update_beats),
    ("matches", CamBlock::obs_matches),
    ("misses", CamBlock::obs_misses),
];

impl CamUnit {
    /// Attach a shared observability sink under the default `"unit"`
    /// scope path; subsequent operations emit cycle-stamped trace events
    /// and [`CamUnit::publish_metrics`] fills the hierarchical registry.
    pub fn attach_observer(&mut self, sink: &Arc<ObsSink>) {
        self.attach_observer_as(sink, "unit");
    }

    /// Attach a shared observability sink under a caller-chosen scope
    /// path (used when several units share one sink).
    pub fn attach_observer_as(&mut self, sink: &Arc<ObsSink>, path: &str) {
        self.observer = Some(Observer {
            sink: Arc::clone(sink),
            scope: sink.register_scope(path),
            path: path.to_owned(),
        });
    }

    /// Detach the observability sink (recording stops immediately).
    pub fn detach_observer(&mut self) {
        self.observer = None;
    }

    /// Whether an observability sink is attached.
    #[must_use]
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Publish the unit's architectural counters into the attached
    /// sink's registry under the hierarchical scope paths `{unit}`,
    /// `{unit}/group{g}` and `{unit}/group{g}/block{b}` (physical block
    /// indices, stable across routing rewrites). Counter writes use set
    /// semantics, so repeated publishes are idempotent. No-op without an
    /// attached observer.
    pub fn publish_metrics(&self) {
        let Some(obs) = &self.observer else { return };
        self.show_unsettled();
        // Scope interning allocates, so resolve ids before taking the
        // batch lock.
        let group_scopes: Vec<ScopeId> = (0..self.groups())
            .map(|g| obs.sink.register_scope(&format!("{}/group{g}", obs.path)))
            .collect();
        let block_scopes = self.block_scopes(obs);
        let scrub_scope = obs.sink.register_scope(&format!("{}/scrub", obs.path));
        let wbuf_scope = obs.sink.register_scope(&format!("{}/wbuf", obs.path));
        obs.sink.with(|o| {
            o.set_counter(obs.scope, "issue_cycles", self.issue_cycles);
            o.set_counter(obs.scope, "update_words", self.update_words);
            o.set_counter(obs.scope, "search_count", self.search_count);
            o.set_gauge(obs.scope, "groups", self.groups() as i64);
            o.set_gauge(
                obs.scope,
                "entries_per_group",
                self.entries_per_group as i64,
            );
            o.set_gauge(obs.scope, "capacity", self.capacity() as i64);
            for (g, &scope) in group_scopes.iter().enumerate() {
                let blocks = &self.fill[g].blocks;
                o.set_gauge(scope, "blocks", blocks.len() as i64);
                for (name, counter) in BLOCK_COUNTERS {
                    let sum = blocks.iter().map(|&b| counter(&self.blocks[b])).sum();
                    o.set_counter(scope, name, sum);
                }
            }
            for (block, &scope) in self.blocks.iter().zip(&block_scopes) {
                for (name, counter) in BLOCK_COUNTERS {
                    o.set_counter(scope, name, counter(block));
                }
                o.set_counter(
                    scope,
                    "pd_fires",
                    block.cell_observations().map(|(_, pd)| pd).sum(),
                );
                o.set_gauge(scope, "occupancy", block.len() as i64);
                o.set_gauge(scope, "capacity", block.capacity() as i64);
            }
            o.set_counter(scrub_scope, "cells_audited", self.scrub.cells_audited);
            o.set_counter(scrub_scope, "faults_detected", self.scrub.faults_detected);
            o.set_counter(scrub_scope, "faults_repaired", self.scrub.faults_repaired);
            o.set_counter(scrub_scope, "sweeps_completed", self.scrub.sweeps_completed);
            o.set_counter(scrub_scope, "crosschecks", self.scrub.crosschecks);
            o.set_counter(scrub_scope, "divergences", self.scrub.divergences);
            o.set_gauge(scrub_scope, "clean_sweeps", self.scrub.clean_sweeps as i64);
            o.set_gauge(
                scrub_scope,
                "degraded",
                i64::from(self.scrub.degraded_from.is_some()),
            );
            let wbuf = self.wbuf.report();
            o.set_gauge(wbuf_scope, "depth", wbuf.depth as i64);
            o.set_gauge(wbuf_scope, "peak_depth", wbuf.peak_depth as i64);
            o.set_counter(wbuf_scope, "absorbed_updates", wbuf.absorbed_updates);
            o.set_counter(wbuf_scope, "absorbed_words", wbuf.absorbed_words);
            o.set_counter(wbuf_scope, "absorbed_deletes", wbuf.absorbed_deletes);
            o.set_counter(wbuf_scope, "drained_ops", wbuf.drained_ops);
            o.set_counter(wbuf_scope, "drained_words", wbuf.drained_words);
            o.set_counter(wbuf_scope, "overflows", wbuf.overflows);
            o.set_counter(wbuf_scope, "search_flushes", wbuf.search_flushes);
            o.set_counter(
                wbuf_scope,
                "index_faults_injected",
                wbuf.index_faults_injected,
            );
            o.set_counter(
                wbuf_scope,
                "index_faults_repaired",
                wbuf.index_faults_repaired,
            );
        });
    }

    /// Publish per-cell metrics (`{unit}/group{g}/block{b}/cell{c}`:
    /// `pd_fires` counter + `valid` gauge) — separate from
    /// [`CamUnit::publish_metrics`] because cell scopes multiply the
    /// registry size by the block size. No-op without an observer.
    pub fn publish_cell_metrics(&self) {
        let Some(obs) = &self.observer else { return };
        for (b, block) in self.blocks.iter().enumerate() {
            let path = self.block_path(obs, b);
            let scopes: Vec<ScopeId> = (0..block.capacity())
                .map(|c| obs.sink.register_scope(&format!("{path}/cell{c}")))
                .collect();
            obs.sink.with(|o| {
                for ((valid, pd_fires), &scope) in block.cell_observations().zip(&scopes) {
                    o.set_counter(scope, "pd_fires", pd_fires);
                    o.set_gauge(scope, "valid", i64::from(valid));
                }
            });
        }
    }

    /// Block `b`'s scope path `{unit}/group{g}/block{b}`, `g` per the Routing Table.
    fn block_path(&self, obs: &Observer, b: usize) -> String {
        format!("{}/group{}/block{b}", obs.path, self.routing[b])
    }

    /// Every physical block's interned [`CamUnit::block_path`] scope.
    fn block_scopes(&self, obs: &Observer) -> Vec<ScopeId> {
        (0..self.blocks.len())
            .map(|b| obs.sink.register_scope(&self.block_path(obs, b)))
            .collect()
    }

    /// Add a shadow audit's divergence (`total`, and `per_block` by
    /// physical block) to `shadow_divergence` at unit and block scope.
    pub(super) fn observe_shadow_audit(&self, total: usize, per_block: &[usize]) {
        let Some(obs) = &self.observer else { return };
        let block_scopes = self.block_scopes(obs);
        obs.sink.with(|o| {
            o.add(obs.scope, "shadow_audits", 1);
            o.add(obs.scope, "shadow_divergence", total as u64);
            for (&scope, &divergent) in block_scopes.iter().zip(per_block) {
                o.add(scope, "shadow_divergence", divergent as u64);
            }
        });
    }

    /// Record each of `values` as an observation of `name` under
    /// `{unit}/{scope}` (repair latencies, staged residencies).
    pub(super) fn observe_all(&self, scope: &str, name: &str, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let Some(obs) = &self.observer else { return };
        let scope = obs.sink.register_scope(&format!("{}/{scope}", obs.path));
        obs.sink.with(|o| {
            for &value in values {
                o.observe(scope, name, value);
            }
        });
    }

    /// Trace one issue cycle: an Issue plus Match/Miss per served key,
    /// one lock.
    pub(super) fn trace_issue(&self, kind: OpKind, keys: &[u64], results: &[SearchResult]) {
        let Some(obs) = &self.observer else { return };
        let cycle = self.issue_cycles;
        obs.sink.with(|o| {
            for (&key, result) in keys.iter().zip(results) {
                record_served(o, cycle, kind, key, result);
            }
        });
    }

    /// Trace a streaming batch: StreamBatch plus one Issue + outcome per
    /// unique key, stamped with the issue slot the key was packed into
    /// (`base + j / M`). One lock for the whole batch.
    pub(super) fn trace_stream(
        &self,
        presented: usize,
        unique: &[u64],
        answers: &[SearchResult],
        base: u64,
    ) {
        let Some(obs) = &self.observer else { return };
        let groups = self.groups();
        let stream_scope = obs.sink.register_scope(&format!("{}/stream", obs.path));
        let batch = self.config.batch_width.clamp(1, MAX_BATCH_WIDTH);
        obs.sink.with(|o| {
            // Dedup savings: keys answered from the first occurrence's
            // result instead of a fresh plane walk.
            o.add(stream_scope, "dup_hits", (presented - unique.len()) as u64);
            // One histogram sample per dispatched batch — the widths each
            // group walk ran at (tails included); a candidate walk then
            // feeds the kernel one key per named block.
            for g in 0..groups {
                let mut remaining = (unique.len() + groups - 1).saturating_sub(g) / groups;
                while remaining > 0 {
                    let width = remaining.min(batch);
                    o.observe(stream_scope, "dispatch_batch_width", width as u64);
                    remaining -= width;
                }
            }
            o.record(
                base,
                Event::StreamBatch {
                    presented: presented as u32,
                    unique: unique.len() as u32,
                    groups: groups as u32,
                },
            );
            for (j, (&key, result)) in unique.iter().zip(answers).enumerate() {
                let cycle = base + (j / groups) as u64;
                record_served(o, cycle, OpKind::SearchStream, key, result);
            }
        });
    }

    /// Record one event stamped with the current issue-cycle counter.
    pub(super) fn trace_event(&self, event: Event) {
        if let Some(obs) = &self.observer {
            obs.sink.record(self.issue_cycles, event);
        }
    }
}

/// Record one served search: its Issue, then a Match or Miss event.
fn record_served(o: &mut ObsBatch<'_>, cycle: u64, kind: OpKind, key: u64, result: &SearchResult) {
    let group = result.group as u32;
    o.record(cycle, Event::Issue { kind, group });
    if result.is_match() {
        o.record(
            cycle,
            Event::Match {
                key,
                group,
                // u32::MAX marks "no address" encodings (match-count).
                address: result.first_address().map_or(u32::MAX, |a| a as u32),
            },
        );
    } else {
        o.record(cycle, Event::Miss { key, group });
    }
}

/// The obs-crate mirror of a [`FidelityMode`].
pub(super) fn tier_of(fidelity: FidelityMode) -> Tier {
    match fidelity {
        FidelityMode::BitAccurate => Tier::BitAccurate,
        FidelityMode::Turbo => Tier::Turbo,
    }
}
