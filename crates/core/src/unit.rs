//! The CAM unit microarchitecture (Fig. 4 of the paper).
//!
//! A unit aggregates [`CamBlock`]s behind three pieces of control fabric:
//!
//! * the **Routing Table** — a runtime-writable array mapping each block to
//!   a *CAM group*; it shares the update datapath and is rewritten when the
//!   user kernel reconfigures the group count `M`;
//! * the **Routing Compute** module — allocates each incoming search key to
//!   a group (replicated data means any group can answer; the mapping
//!   function load-balances), and replicates update data to *all* groups;
//! * the **Post-Router** — the update crossbar delivering replicated data
//!   to the group's current block, and the search broadcast replicating a
//!   key to the `N` blocks of its group.
//!
//! Each group fills its blocks round-robin through its **Block Address
//! Controller**; with `M` groups the unit answers up to `M` search queries
//! per cycle (Section III-C).
//!
//! Because updates are replicated to every group, the unit's *effective*
//! capacity is `total_cells / M` — the multi-query parallelism is bought
//! with replication, exactly as in the paper's triangle-counting case
//! study where the adjacency list is duplicated in all groups.

use std::collections::HashMap;
#[cfg(feature = "obs")]
use std::sync::Arc;

use dsp48::word::mask_width;
#[cfg(feature = "obs")]
use dsp_cam_obs::{Event, ObsBatch, ObsSink, OpKind, ScopeId, Tier};
use serde::{Deserialize, Serialize};

use crate::block::CamBlock;
use crate::bus::{BusCommand, Opcode};
use crate::cell::Entry;
use crate::config::{FidelityMode, ScrubPolicy, UnitConfig};
use crate::encoder::{MatchVector, SearchOutput};
use crate::error::{CamError, ConfigError};
use crate::faults::{FaultPlan, FaultSite};
use crate::mask::RangeSpec;
use crate::scrub::{ScrubReport, ScrubState};
use crate::update_queue::{StagedOp, WriteBuffer, WriteBufferReport};

/// Served search answers plus the first `(group, key)` divergence the
/// sampled cross-check caught while serving them (repaired either way).
type Served = (Vec<SearchResult>, Option<(usize, u64)>);

/// The outcome of one unit-level search.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchResult {
    /// The group that answered the query.
    pub group: usize,
    /// The encoded result; addresses are group-local
    /// (`block_within_group * block_size + cell`).
    pub output: SearchOutput,
}

impl SearchResult {
    /// Whether any entry matched.
    #[must_use]
    pub fn is_match(&self) -> bool {
        self.output.is_match()
    }

    /// Lowest matching group-local address, when the encoding preserves it.
    #[must_use]
    pub fn first_address(&self) -> Option<usize> {
        self.output.first_address()
    }

    /// Number of matches, when the encoding preserves it.
    #[must_use]
    pub fn match_count(&self) -> Option<usize> {
        self.output.match_count()
    }
}

/// A point-in-time snapshot of a unit's occupancy and counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitSnapshot {
    /// Configured group count `M`.
    pub groups: usize,
    /// Effective capacity in entries (per group).
    pub capacity: usize,
    /// Entries stored (per group).
    pub entries: usize,
    /// Occupied cells per physical block.
    pub block_occupancy: Vec<usize>,
    /// Bus-issue cycles consumed.
    pub issue_cycles: u64,
    /// Data words written (pre-replication).
    pub update_words: u64,
    /// Search queries answered.
    pub search_count: u64,
}

impl UnitSnapshot {
    /// Fill fraction of the unit's effective capacity.
    #[must_use]
    pub fn fill_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.entries as f64 / self.capacity as f64
        }
    }
}

/// Response to a [`BusCommand`] executed on the unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusResponse {
    /// The command completed with no data to return.
    Done,
    /// A search produced a result.
    Search(SearchResult),
}

/// Per-group fill state (the Block Address Controller).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct GroupFill {
    /// Block indices owned by this group, in fill order.
    blocks: Vec<usize>,
    /// Index into `blocks` of the block currently being filled.
    current: usize,
}

/// Reusable per-search working buffers: the combined group vector plus
/// one per-block vector for the scalar path, and W-wide staging for the
/// key-parallel batch kernel — so a stream of searches allocates nothing
/// per key (or per batch) once the buffers reach steady-state size.
#[derive(Debug, Clone, Default)]
struct GroupScratch {
    combined: MatchVector,
    block: MatchVector,
    /// The unique keys one group answers, walked in batches.
    batch_keys: Vec<u64>,
    /// Per-key group-combined match vectors.
    batch_combined: Vec<MatchVector>,
}

/// An attached observability sink plus the interned scope path the unit
/// records under (default `"unit"`; the triangle-count accelerator
/// nests its internal unit under `"accel/unit"`).
#[cfg(feature = "obs")]
#[derive(Debug, Clone)]
struct Observer {
    sink: Arc<ObsSink>,
    scope: ScopeId,
    path: String,
}

/// The configurable DSP-based CAM unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CamUnit {
    config: UnitConfig,
    blocks: Vec<CamBlock>,
    /// Routing Table: group id per block.
    routing: Vec<usize>,
    groups: usize,
    fill: Vec<GroupFill>,
    entries_per_group: usize,
    issue_cycles: u64,
    update_words: u64,
    search_count: u64,
    /// Background scrub walker + degradation-governor state (see
    /// [`crate::scrub`]). Serialized with the unit; inert unless
    /// [`UnitConfig::scrub`] carries a policy.
    #[serde(default)]
    scrub: ScrubState,
    /// CAM-fronted write buffer (see [`crate::update_queue`]).
    /// Serialized with the unit (the staged FIFO is architectural
    /// state); inert and empty unless [`UnitConfig::write_buffer`]
    /// enables buffering.
    #[serde(default)]
    wbuf: WriteBuffer,
    #[serde(skip)]
    scratch: GroupScratch,
    /// Attached observability sink; host-side monitoring, never
    /// architectural state (results and counters are identical with or
    /// without it — see `tests/obs_equivalence.rs`).
    #[cfg(feature = "obs")]
    #[serde(skip)]
    observer: Option<Observer>,
}

impl CamUnit {
    /// Instantiate a unit with a single group spanning every block.
    ///
    /// # Errors
    ///
    /// Propagates the Table III [`ConfigError`]s.
    pub fn new(config: UnitConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let blocks = (0..config.num_blocks)
            .map(|_| CamBlock::new(config.block))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CamUnit {
            config,
            blocks,
            routing: vec![0; config.num_blocks],
            groups: 1,
            fill: vec![GroupFill {
                blocks: (0..config.num_blocks).collect(),
                current: 0,
            }],
            entries_per_group: 0,
            issue_cycles: 0,
            update_words: 0,
            search_count: 0,
            scrub: ScrubState::default(),
            wbuf: WriteBuffer::default(),
            scratch: GroupScratch::default(),
            #[cfg(feature = "obs")]
            observer: None,
        })
    }

    /// The unit configuration.
    #[must_use]
    pub fn config(&self) -> &UnitConfig {
        &self.config
    }

    /// Switch every block's search execution tier in place (contents,
    /// counters and results are unaffected). An explicit tier choice
    /// overrides the degradation governor: any pending restore to a
    /// pre-degradation tier is cancelled.
    pub fn set_fidelity(&mut self, fidelity: FidelityMode) {
        self.config.block.fidelity = fidelity;
        self.scrub.degraded_from = None;
        for block in &mut self.blocks {
            block.set_fidelity(fidelity);
        }
        #[cfg(feature = "obs")]
        self.trace_event(Event::TierSwitch {
            tier: tier_of(fidelity),
        });
    }

    /// Current group count `M`.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Blocks per group `N`.
    #[must_use]
    pub fn blocks_per_group(&self) -> usize {
        self.config.num_blocks / self.groups
    }

    /// Effective capacity in entries (per group, since data is replicated).
    ///
    /// Under the standard partition this is
    /// `blocks_per_group × block_size`; with a custom Routing Table it is
    /// the capacity of the *smallest non-empty* group (groups that own no
    /// blocks store nothing and are skipped by updates).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.fill
            .iter()
            .filter(|f| !f.blocks.is_empty())
            .map(|f| f.blocks.len() * self.config.block.block_size)
            .min()
            .unwrap_or(0)
    }

    /// Entries currently stored (per group).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries_per_group
    }

    /// Whether the unit holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries_per_group == 0
    }

    /// The Routing Table contents (group id per block).
    #[must_use]
    pub fn routing_table(&self) -> &[usize] {
        &self.routing
    }

    /// Bus-issue cycles consumed so far (initiation-interval accounting;
    /// end-to-end latency is [`UnitConfig::update_latency`] /
    /// [`UnitConfig::search_latency`] on top of the final issue).
    #[must_use]
    pub fn issue_cycles(&self) -> u64 {
        self.issue_cycles
    }

    /// Total data words written (across all updates, pre-replication).
    #[must_use]
    pub fn update_words(&self) -> u64 {
        self.update_words
    }

    /// Total search queries answered.
    #[must_use]
    pub fn search_count(&self) -> u64 {
        self.search_count
    }

    /// Attach a shared observability sink under the default `"unit"`
    /// scope path; subsequent operations emit cycle-stamped trace events
    /// and [`CamUnit::publish_metrics`] fills the hierarchical registry.
    #[cfg(feature = "obs")]
    pub fn attach_observer(&mut self, sink: &Arc<ObsSink>) {
        self.attach_observer_as(sink, "unit");
    }

    /// Attach a shared observability sink under a caller-chosen scope
    /// path (used when several units share one sink).
    #[cfg(feature = "obs")]
    pub fn attach_observer_as(&mut self, sink: &Arc<ObsSink>, path: &str) {
        self.observer = Some(Observer {
            sink: Arc::clone(sink),
            scope: sink.register_scope(path),
            path: path.to_owned(),
        });
    }

    /// Detach the observability sink (recording stops immediately).
    #[cfg(feature = "obs")]
    pub fn detach_observer(&mut self) {
        self.observer = None;
    }

    /// Whether an observability sink is attached.
    #[cfg(feature = "obs")]
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
    #[cfg(feature = "obs")]
    pub fn publish_metrics(&self) {
        let Some(obs) = &self.observer else { return };
        // Scope interning allocates, so resolve ids before taking the
        // batch lock.
        let group_scopes: Vec<ScopeId> = (0..self.groups)
            .map(|g| obs.sink.register_scope(&format!("{}/group{g}", obs.path)))
            .collect();
        let block_scopes: Vec<ScopeId> = (0..self.blocks.len())
            .map(|b| {
                let g = self.routing[b];
                obs.sink
                    .register_scope(&format!("{}/group{g}/block{b}", obs.path))
            })
            .collect();
        let scrub_scope = obs.sink.register_scope(&format!("{}/scrub", obs.path));
        let wbuf_scope = obs.sink.register_scope(&format!("{}/wbuf", obs.path));
        obs.sink.with(|o| {
            o.set_counter(obs.scope, "issue_cycles", self.issue_cycles);
            o.set_counter(obs.scope, "update_words", self.update_words);
            o.set_counter(obs.scope, "search_count", self.search_count);
            o.set_gauge(obs.scope, "groups", self.groups as i64);
            o.set_gauge(
                obs.scope,
                "entries_per_group",
                self.entries_per_group as i64,
            );
            o.set_gauge(obs.scope, "capacity", self.capacity() as i64);
            for (g, &scope) in group_scopes.iter().enumerate() {
                let blocks = &self.fill[g].blocks;
                o.set_gauge(scope, "blocks", blocks.len() as i64);
                let sum =
                    |f: fn(&CamBlock) -> u64| blocks.iter().map(|&b| f(&self.blocks[b])).sum();
                o.set_counter(scope, "searches", sum(CamBlock::searches));
                o.set_counter(scope, "cycles", sum(CamBlock::cycles));
                o.set_counter(scope, "update_beats", sum(CamBlock::update_beats));
                o.set_counter(scope, "matches", sum(CamBlock::obs_matches));
                o.set_counter(scope, "misses", sum(CamBlock::obs_misses));
            }
            for (b, &scope) in block_scopes.iter().enumerate() {
                let block = &self.blocks[b];
                o.set_counter(scope, "searches", block.searches());
                o.set_counter(scope, "cycles", block.cycles());
                o.set_counter(scope, "update_beats", block.update_beats());
                o.set_counter(scope, "matches", block.obs_matches());
                o.set_counter(scope, "misses", block.obs_misses());
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
    #[cfg(feature = "obs")]
    pub fn publish_cell_metrics(&self) {
        let Some(obs) = &self.observer else { return };
        for (b, block) in self.blocks.iter().enumerate() {
            let g = self.routing[b];
            let scopes: Vec<ScopeId> = (0..block.capacity())
                .map(|c| {
                    obs.sink
                        .register_scope(&format!("{}/group{g}/block{b}/cell{c}", obs.path))
                })
                .collect();
            obs.sink.with(|o| {
                for ((valid, pd_fires), &scope) in block.cell_observations().zip(&scopes) {
                    o.set_counter(scope, "pd_fires", pd_fires);
                    o.set_gauge(scope, "valid", i64::from(valid));
                }
            });
        }
    }

    /// Bit-accurate audit pass over every block's bit-sliced shadow:
    /// re-derive the expected `BitSliceIndex` state from the DSP oracle
    /// and return the number of divergent shadow entries (0 for a
    /// healthy unit). With the `obs` feature and an attached observer,
    /// the divergence total is also added to the `shadow_divergence`
    /// counter at unit and block scope.
    pub fn audit_shadows(&self) -> usize {
        let per_block = self.audit_shadows_per_block();
        let total: usize = per_block.iter().sum();
        #[cfg(feature = "obs")]
        if let Some(obs) = &self.observer {
            let block_scopes: Vec<ScopeId> = (0..self.blocks.len())
                .map(|b| {
                    let g = self.routing[b];
                    obs.sink
                        .register_scope(&format!("{}/group{g}/block{b}", obs.path))
                })
                .collect();
            obs.sink.with(|o| {
                o.add(obs.scope, "shadow_audits", 1);
                o.add(obs.scope, "shadow_divergence", total as u64);
                for (&scope, &divergent) in block_scopes.iter().zip(&per_block) {
                    o.add(scope, "shadow_divergence", divergent as u64);
                }
            });
        }
        total
    }

    /// Per-physical-block divergence counts behind
    /// [`CamUnit::audit_shadows`] (index = physical block id).
    /// Counter-neutral and side-effect free: no observability writes.
    #[must_use]
    pub fn audit_shadows_per_block(&self) -> Vec<usize> {
        self.blocks.iter().map(CamBlock::audit_shadows).collect()
    }

    /// Corrupt one cell's shadow entries in block `block` — the unit-level
    /// fault-injection hook behind [`CamBlock::inject_shadow_fault`].
    ///
    /// # Panics
    ///
    /// Panics if `block` or `cell` is out of range.
    pub fn inject_shadow_fault(&mut self, block: usize, cell: usize) {
        self.blocks[block].inject_shadow_fault(cell);
    }

    /// Apply one targeted fault: a shadow-state bit flip inside a block
    /// or a Routing Table corruption (see [`FaultSite`]). The one-shot
    /// API behind [`CamUnit::inject_faults`]; subsumes
    /// [`CamUnit::inject_shadow_fault`].
    ///
    /// # Panics
    ///
    /// Panics if the site's block or cell index is beyond the unit.
    pub fn inject_fault(&mut self, site: FaultSite) {
        match site {
            FaultSite::Shadow { block, fault } => self.blocks[block].inject_fault_at(fault),
            FaultSite::Routing { block } => {
                self.routing[block] = (self.routing[block] + 1) % self.groups;
            }
            FaultSite::UpdateQueue { slot } => self.wbuf.inject_index_fault(slot),
        }
    }

    /// Run a seeded [`FaultPlan`] for `cycles` upset opportunities
    /// against this unit's geometry, applying every drawn fault.
    /// Returns the number of faults injected (deterministic for a given
    /// plan seed, rates and geometry).
    pub fn inject_faults(&mut self, plan: &mut FaultPlan, cycles: u64) -> usize {
        let mut sites = Vec::new();
        for _ in 0..cycles {
            plan.draw(
                self.blocks.len(),
                self.config.block.block_size,
                self.config.block.cell.data_width,
                &mut sites,
            );
        }
        for &site in &sites {
            self.inject_fault(site);
        }
        sites.len()
    }

    /// A point-in-time read-out of the scrub engine: audit/repair
    /// totals, cross-check statistics and the governor's degradation
    /// state (see [`ScrubReport`]). All zeros until a
    /// [`ScrubPolicy`] is configured via [`UnitConfig::scrub`].
    #[must_use]
    pub fn scrub_report(&self) -> ScrubReport {
        self.scrub.report(self.config.block.fidelity)
    }

    /// Advance the background scrubber by one operation's budget without
    /// issuing an operation — the idle-cycle hook
    /// [`StreamingCam`](crate::pipelined::StreamingCam) calls on ticks
    /// with nothing to launch, so quiet units keep sweeping. No-op
    /// unless [`UnitConfig::scrub`] carries a policy. Counter-neutral:
    /// issue-cycle, search and block counters never move.
    pub fn scrub_tick(&mut self) {
        self.scrub_step();
    }

    /// The per-operation scrub walk: audit `cells_per_op` cells against
    /// the DSP oracle, repairing divergence in place (see
    /// [`crate::scrub`] for the full model).
    fn scrub_step(&mut self) {
        let Some(policy) = self.config.scrub else {
            return;
        };
        if policy.cells_per_op == 0 || self.blocks.is_empty() {
            return;
        }
        // A restored snapshot may carry a cursor from a larger geometry.
        if self.scrub.cursor_block >= self.blocks.len() {
            self.scrub.cursor_block = 0;
            self.scrub.cursor_cell = 0;
        }
        #[cfg(feature = "obs")]
        let mut repairs: Vec<u64> = Vec::new();
        #[cfg(feature = "obs")]
        let timing = self.observer.is_some();
        for _ in 0..policy.cells_per_op {
            let (b, c) = (self.scrub.cursor_block, self.scrub.cursor_cell);
            #[cfg(feature = "obs")]
            let started = timing.then(std::time::Instant::now);
            let repaired = self.blocks[b].scrub_cell(c);
            self.scrub.cells_audited += 1;
            if repaired > 0 {
                self.scrub.record_repairs(repaired as u64);
                #[cfg(feature = "obs")]
                if let Some(started) = started {
                    repairs.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
            }
            self.scrub.cursor_cell += 1;
            if self.scrub.cursor_cell >= self.blocks[b].capacity() {
                self.scrub.cursor_cell = 0;
                self.scrub.cursor_block += 1;
                if self.scrub.cursor_block >= self.blocks.len() {
                    self.scrub.cursor_block = 0;
                    self.finish_sweep(policy);
                }
            }
        }
        #[cfg(feature = "obs")]
        self.observe_repairs(&repairs);
    }

    /// Close out one full pass of the walker: audit the Routing Table
    /// against group membership (the fill state is the golden copy —
    /// search and update address blocks through it, so a repaired table
    /// re-converges observability attribution, not results), score the
    /// sweep, and let the governor restore the pre-degradation tier
    /// after `restore_after` consecutive clean sweeps.
    fn finish_sweep(&mut self, policy: ScrubPolicy) {
        // The write buffer's derived key index is shadow state like any
        // other: re-derive it from the golden FIFO and score divergence.
        let wbuf_divergent = self.wbuf.audit_index();
        self.scrub.record_repairs(wbuf_divergent);
        for (g, f) in self.fill.iter().enumerate() {
            for &b in &f.blocks {
                if self.routing[b] != g {
                    self.routing[b] = g;
                    self.scrub.record_repairs(1);
                }
            }
        }
        self.scrub.sweeps_completed += 1;
        if self.scrub.sweep_faults == 0 {
            self.scrub.clean_sweeps += 1;
        } else {
            self.scrub.clean_sweeps = 0;
        }
        self.scrub.sweep_faults = 0;
        if self.scrub.clean_sweeps >= policy.restore_after {
            if let Some(tier) = self.scrub.degraded_from.take() {
                self.scrub.clean_sweeps = 0;
                self.set_fidelity(tier);
            }
        }
    }

    /// Sampled cross-check of served answers against the DSP oracle.
    /// Every `crosscheck_interval`-th unique key is recomputed straight
    /// from cell state (counter-neutral); a mismatch proves the serving
    /// shadow diverged, so the answering group is bulk-repaired, the
    /// *corrected* answer substituted into `results`, and the tier
    /// degraded. Returns the first divergence as `(group, key)` for
    /// strict-mode error reporting.
    fn crosscheck_results(
        &mut self,
        keys: &[u64],
        results: &mut [SearchResult],
    ) -> Option<(usize, u64)> {
        let policy = self.config.scrub.filter(|p| p.crosscheck_interval > 0)?;
        let mut first = None;
        for (&key, result) in keys.iter().zip(results.iter_mut()) {
            self.scrub.crosscheck_clock += 1;
            if !self
                .scrub
                .crosscheck_clock
                .is_multiple_of(policy.crosscheck_interval)
            {
                continue;
            }
            self.scrub.crosschecks += 1;
            let group = result.group;
            let expected = self
                .group_result(group, key, |block, k, out| block.oracle_vector_into(k, out))
                .output;
            if expected == result.output {
                continue;
            }
            // The serving shadow lied. Repair the whole answering group
            // from the oracle, serve the oracle's answer, and fall back to
            // the oracle tier.
            self.scrub.divergences += 1;
            let repaired: usize = self.fill[group]
                .blocks
                .iter()
                .map(|&b| self.blocks[b].scrub_all())
                .sum();
            self.scrub.record_repairs(repaired as u64);
            self.scrub.clean_sweeps = 0;
            result.output = expected;
            self.degrade_tier();
            first = first.or(Some((group, key)));
        }
        first
    }

    /// Surface a caught divergence as [`CamError::ShadowDivergence`]
    /// under a strict [`ScrubPolicy`]; the `try_` search variants call
    /// this, while the infallible ones serve the repaired answer.
    fn strict_check(&self, diverged: Option<(usize, u64)>) -> Result<(), CamError> {
        match diverged {
            Some((group, key)) if self.config.scrub.is_some_and(|p| p.strict) => {
                Err(CamError::ShadowDivergence { group, key })
            }
            _ => Ok(()),
        }
    }

    /// Fall back from Turbo to BitAccurate (the oracle itself cannot
    /// diverge, so BitAccurate is the floor), remembering the tier the
    /// unit started from so the governor can restore it after
    /// `restore_after` clean sweeps.
    fn degrade_tier(&mut self) {
        let from = self.config.block.fidelity;
        if from == FidelityMode::BitAccurate {
            return;
        }
        let to = FidelityMode::BitAccurate;
        if self.scrub.degraded_from.is_none() {
            self.scrub.degraded_from = Some(from);
        }
        self.config.block.fidelity = to;
        for block in &mut self.blocks {
            block.set_fidelity(to);
        }
        #[cfg(feature = "obs")]
        self.trace_event(Event::TierDegraded {
            from: tier_of(from),
            to: tier_of(to),
        });
    }

    /// Record per-repair latency observations under `{unit}/scrub`.
    #[cfg(feature = "obs")]
    fn observe_repairs(&self, repairs: &[u64]) {
        if repairs.is_empty() {
            return;
        }
        let Some(obs) = &self.observer else { return };
        let scope = obs.sink.register_scope(&format!("{}/scrub", obs.path));
        obs.sink.with(|o| {
            for &ns in repairs {
                o.observe(scope, "repair_ns", ns);
            }
        });
    }

    /// Install a Routing Table partitioning the blocks into `groups`
    /// groups, each group's Block Address Controller filling its blocks
    /// in address order — the shared body of both Routing Table writes.
    /// Staged writes retire first so per-block counters converge with
    /// the inline path; then every block is cleared, because the
    /// all-groups replication invariant cannot survive a repartition.
    /// One issue cycle.
    fn repartition(&mut self, groups: usize, routing: Vec<usize>) {
        self.flush_write_buffer();
        for block in &mut self.blocks {
            block.reset();
        }
        self.fill = (0..groups)
            .map(|g| GroupFill {
                blocks: (0..routing.len()).filter(|&b| routing[b] == g).collect(),
                current: 0,
            })
            .collect();
        self.groups = groups;
        self.routing = routing;
        self.entries_per_group = 0;
        self.issue_cycles += 1;
    }

    /// Reconfigure the group count `M` at runtime (the user kernel writes
    /// this over the control path). All stored contents are cleared: the
    /// all-groups replication invariant cannot survive a repartition.
    ///
    /// # Errors
    ///
    /// [`ConfigError::GroupCount`] unless `1 ≤ m` and `m` evenly divides
    /// the block count.
    pub fn configure_groups(&mut self, m: usize) -> Result<(), ConfigError> {
        if m == 0 || !self.config.num_blocks.is_multiple_of(m) {
            return Err(ConfigError::GroupCount {
                requested: m,
                blocks: self.config.num_blocks,
            });
        }
        let n = self.config.num_blocks / m;
        self.repartition(m, (0..self.config.num_blocks).map(|b| b / n).collect());
        #[cfg(feature = "obs")]
        self.trace_event(Event::Issue {
            kind: OpKind::ConfigureGroups,
            group: 0,
        });
        Ok(())
    }

    /// Rewrite one Routing Table entry (block → group). The affected
    /// groups' fill order follows the table; contents are cleared for the
    /// same invariant reason as [`CamUnit::configure_groups`].
    ///
    /// # Errors
    ///
    /// [`CamError::NoSuchBlock`] if `block` is beyond the unit (checked
    /// first), [`CamError::NoSuchGroup`] if `group ≥ M`;
    /// [`CamError::Full`] is never returned here.
    pub fn write_routing_entry(&mut self, block: usize, group: usize) -> Result<(), CamError> {
        if block >= self.routing.len() {
            return Err(CamError::NoSuchBlock {
                block,
                blocks: self.routing.len(),
            });
        }
        if group >= self.groups {
            return Err(CamError::NoSuchGroup {
                group,
                groups: self.groups,
            });
        }
        let mut routing = self.routing.clone();
        routing[block] = group;
        self.repartition(self.groups, routing);
        #[cfg(feature = "obs")]
        self.trace_event(Event::Issue {
            kind: OpKind::RoutingWrite,
            group: group as u32,
        });
        Ok(())
    }

    fn free_per_group(&self) -> usize {
        self.capacity() - self.entries_per_group
    }

    /// The group that caps the unit's effective capacity: the first
    /// non-empty group with the fewest blocks (under the standard
    /// partition, group 0). `None` only when no group owns any block.
    fn limiting_group(&self) -> Option<usize> {
        self.fill
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.blocks.is_empty())
            .min_by_key(|(_, f)| f.blocks.len())
            .map(|(g, _)| g)
    }

    /// Update: replicate `words` to every group and fill round-robin
    /// (Section III-C.2). Atomic: either every group accepts every word or
    /// nothing is written.
    ///
    /// # Errors
    ///
    /// * [`CamError::Full`] if a group lacks space;
    /// * [`CamError::ValueTooWide`] for words beyond the data width.
    pub fn update(&mut self, words: &[u64]) -> Result<(), CamError> {
        self.write_entries(words)
    }

    /// The unit's one write path, behind [`CamUnit::update`],
    /// [`CamUnit::update_ranges`] and [`CamUnit::update_masked`]: reject
    /// the whole batch — kind, then capacity, then width — before
    /// anything is written, replicate it to every group (staged in the
    /// write buffer when one is enabled), then charge the issue counters,
    /// trace and scrub once. An empty batch is a no-op.
    fn write_entries<E: Entry>(&mut self, entries: &[E]) -> Result<(), CamError> {
        if entries.is_empty() {
            return Ok(());
        }
        if E::KIND.is_some_and(|kind| kind != self.config.block.cell.kind) {
            return Err(CamError::KindMismatch);
        }
        let n = entries.len();
        if n > self.free_per_group() {
            return Err(CamError::Full {
                rejected: n - self.free_per_group(),
                group: self.limiting_group(),
            });
        }
        let data_width = self.config.block.cell.data_width;
        let limit = mask_width(data_width);
        if let Some(value) = entries.iter().map(|e| e.width_probe()).find(|&v| v > limit) {
            return Err(CamError::ValueTooWide { value, data_width });
        }
        match E::as_words(entries) {
            // Only binary units buffer, and they only take plain words.
            Some(words) if self.wbuf_enabled() => self.absorb_insert(words),
            _ => self.apply_entries_physical(entries),
        }
        self.entries_per_group += n;
        let beats = n.div_ceil(self.config.words_per_beat()) as u64;
        self.issue_cycles += beats;
        self.update_words += n as u64;
        #[cfg(feature = "obs")]
        self.trace_event(Event::Update {
            words: n as u32,
            beats: beats as u32,
        });
        self.scrub_step();
        Ok(())
    }

    /// Replicate `entries` into every group physically, each group
    /// filling its blocks in order from its Block Address Controller's
    /// position — the write engine shared by the inline update path and
    /// the write-buffer drainer. Admission must already be checked; no
    /// unit-level counters move here — block-level counters accrue as
    /// the cells are written. A (custom-routed) group with no blocks
    /// stores nothing.
    fn apply_entries_physical<E: Entry>(&mut self, entries: &[E]) {
        for fill in &mut self.fill {
            let mut remaining = entries;
            while !fill.blocks.is_empty() && !remaining.is_empty() {
                let block = &mut self.blocks[fill.blocks[fill.current]];
                let (head, tail) = remaining.split_at(remaining.len().min(block.free_slots()));
                if !head.is_empty() {
                    block
                        .write_entries(head)
                        .expect("admission was checked before writing");
                }
                remaining = tail;
                if !remaining.is_empty() {
                    fill.current += 1;
                    debug_assert!(
                        fill.current < fill.blocks.len(),
                        "capacity was checked before writing"
                    );
                }
            }
        }
    }

    /// Whether updates/deletes stage in the write buffer: a
    /// [`UnitConfig::write_buffer`] policy must be configured, not in
    /// bypass, and the unit must be binary — ternary and range entries
    /// can match keys other than their stored word, so the buffer's
    /// exact-key match port cannot shadow them.
    fn wbuf_enabled(&self) -> bool {
        self.config.write_buffer.is_some_and(|w| !w.bypass)
            && self.config.block.cell.kind == crate::kind::CamKind::Binary
    }

    fn wbuf_capacity(&self) -> usize {
        self.config.write_buffer.map_or(0, |w| w.capacity)
    }

    /// Stage an admission-checked update, spilling synchronously when
    /// the burst overflows the buffer (the paper's capture port is a
    /// fixed handful of DSP slices — an oversized burst falls back to
    /// the inline write path after flushing everything in front of it).
    fn absorb_insert(&mut self, words: &[u64]) {
        let capacity = self.wbuf_capacity();
        if self.wbuf.depth() + words.len() > capacity {
            self.wbuf.overflows += 1;
            self.flush_write_buffer();
        }
        if words.len() > capacity {
            self.apply_entries_physical(words);
        } else {
            self.wbuf.push_insert(words, self.issue_cycles);
        }
    }

    /// Stage a delete of (masked) `key`, returning whether the delete
    /// hits — decided against the physical contents plus the staged
    /// FIFO replayed in order, so the answer (and every architectural
    /// counter keyed off it) is bit-identical to the inline path.
    fn absorb_delete(&mut self, key: u64) -> bool {
        if self.wbuf.depth() >= self.wbuf_capacity() {
            self.wbuf.overflows += 1;
            self.flush_write_buffer();
            // Physical state is now current; decide and apply inline.
            return self.apply_delete_physical(key);
        }
        if !self.staged_delete_would_hit(key) {
            return false;
        }
        self.wbuf.push_tombstone(key, self.issue_cycles);
        true
    }

    /// Whether a delete of (masked) `key` would hit once every staged
    /// op lands: net staged inserts of the key, plus the physical
    /// matches still present, must leave at least one copy. Reads the
    /// golden FIFO (never the derived index) and the counter-neutral
    /// [`CamBlock::probe_count`], so the decision survives injected
    /// index faults unchanged.
    fn staged_delete_would_hit(&self, key: u64) -> bool {
        let net = self.wbuf.net_of(key);
        if net > 0 {
            return true;
        }
        // Contents are replicated, so any non-empty group decides.
        let needed = 1usize.saturating_add(net.unsigned_abs() as usize);
        let mut found = 0usize;
        if let Some(fill) = self.fill.iter().find(|f| !f.blocks.is_empty()) {
            for &b in &fill.blocks {
                found += self.blocks[b].probe_count(key, needed - found);
                if found >= needed {
                    return true;
                }
            }
        }
        false
    }

    /// Read-your-writes gate of every search path: when any presented
    /// key is in flight in the write buffer, flush it so the physical
    /// answer is current. Consults the derived key index (the buffer's
    /// match port), so untouched searches pay one O(1) probe per key
    /// and never touch the write path.
    fn sync_for_keys(&mut self, keys: &[u64]) {
        if self.wbuf.is_empty() {
            return;
        }
        let limit = mask_width(self.config.block.cell.data_width);
        if keys.iter().any(|&k| self.wbuf.touched(k & limit)) {
            self.wbuf.search_flushes += 1;
            self.flush_write_buffer();
        }
    }

    /// Retire up to `max_ops` staged write-buffer ops into the main
    /// unit in FIFO order — the background drainer behind
    /// [`StreamingCam`](crate::pipelined::StreamingCam) idle ticks.
    /// Inserts go through the same replicated write engine as the
    /// inline path; tombstones through the same probe/invalidate walk.
    /// No architectural unit counters move — they were charged when the
    /// ops were absorbed. Returns the number of ops retired.
    pub fn drain_write_buffer(&mut self, max_ops: usize) -> usize {
        let mut drained = 0usize;
        #[cfg(feature = "obs")]
        let mut residencies: Vec<u64> = Vec::new();
        while drained < max_ops {
            let Some((op, residency)) = self.wbuf.pop(self.issue_cycles) else {
                break;
            };
            #[cfg(not(feature = "obs"))]
            let _ = residency;
            #[cfg(feature = "obs")]
            residencies.push(residency);
            match op {
                StagedOp::Insert { words, .. } => {
                    self.apply_entries_physical(&words);
                }
                StagedOp::Tombstone { key, .. } => {
                    self.apply_delete_physical(key);
                }
            }
            drained += 1;
        }
        #[cfg(feature = "obs")]
        self.observe_residencies(&residencies);
        drained
    }

    /// Drain the write buffer to empty — the synchronous spill used by
    /// overflow, touched-key searches, group reconfiguration and reset.
    pub fn flush_write_buffer(&mut self) {
        self.drain_write_buffer(usize::MAX);
    }

    /// Word slots currently staged in the write buffer (0 when
    /// buffering is disabled or the drainer has caught up — the
    /// quiescence signal).
    #[must_use]
    pub fn write_buffer_depth(&self) -> usize {
        self.wbuf.depth()
    }

    /// A point-in-time read-out of the write buffer's counters.
    #[must_use]
    pub fn write_buffer_report(&self) -> WriteBufferReport {
        self.wbuf.report()
    }

    /// Record staged-residency observations under `{unit}/wbuf`.
    #[cfg(feature = "obs")]
    fn observe_residencies(&self, residencies: &[u64]) {
        if residencies.is_empty() {
            return;
        }
        let Some(obs) = &self.observer else { return };
        let scope = obs.sink.register_scope(&format!("{}/wbuf", obs.path));
        obs.sink.with(|o| {
            for &cycles in residencies {
                o.observe(scope, "staged_residency_cycles", cycles);
            }
        });
    }

    /// RMCAM update path: replicate power-of-two ranges to every group.
    /// Atomic like [`CamUnit::update`].
    ///
    /// # Errors
    ///
    /// [`CamError::KindMismatch`] on non-range units, then as
    /// [`CamUnit::update`] (a base beyond the width is `ValueTooWide`).
    pub fn update_ranges(&mut self, ranges: &[RangeSpec]) -> Result<(), CamError> {
        self.write_entries(ranges)
    }

    /// The Routing Compute module's key-to-group mapping for single-query
    /// traffic: data is replicated, so any group answers; keys are spread
    /// for load balance.
    #[must_use]
    pub fn route_key(&self, key: u64) -> usize {
        (key % self.groups as u64) as usize
    }

    /// Single-query search: route, broadcast within the group, combine.
    ///
    /// Under an active [`ScrubPolicy`] a sampled divergence self-heals
    /// silently (the corrected answer is returned) — this path is
    /// infallible even in strict mode; use [`CamUnit::search_group`] to
    /// surface [`CamError::ShadowDivergence`].
    pub fn search(&mut self, key: u64) -> SearchResult {
        self.search_single(self.route_key(key), key).0
    }

    /// The single-key engine behind [`CamUnit::search`] and
    /// [`CamUnit::search_group`]: the (corrected) answer from `group`
    /// plus the `(group, key)` divergence the sampled cross-check caught.
    fn search_single(&mut self, group: usize, key: u64) -> (SearchResult, Option<(usize, u64)>) {
        self.sync_for_keys(&[key]);
        self.issue_cycles += 1;
        self.search_count += 1;
        let mut result = self.group_result(group, key, CamBlock::search_vector_into);
        let diverged = self.crosscheck_results(&[key], std::slice::from_mut(&mut result));
        self.scrub_step();
        #[cfg(feature = "obs")]
        self.trace_issue(OpKind::Search, &[key], std::slice::from_ref(&result));
        (result, diverged)
    }

    /// Multi-query search: up to `M` keys, key *i* served by group *i*,
    /// all in the same issue cycle (Section III-C.3).
    ///
    /// # Errors
    ///
    /// [`CamError::TooManyQueries`] if more keys than groups are
    /// presented; [`CamError::ShadowDivergence`] if a sampled
    /// cross-check catches a divergent answer under a strict
    /// [`ScrubPolicy`] (repaired either way).
    pub fn try_search_multi(&mut self, keys: &[u64]) -> Result<Vec<SearchResult>, CamError> {
        let (results, diverged) = self.search_multi_checked(keys)?;
        self.strict_check(diverged)?;
        Ok(results)
    }

    /// Multi-query search, panicking variant of
    /// [`CamUnit::try_search_multi`]. Like [`CamUnit::search`], it
    /// serves the repaired answer when a sampled cross-check catches a
    /// divergence, even under a strict [`ScrubPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if more keys than groups are presented.
    pub fn search_multi(&mut self, keys: &[u64]) -> Vec<SearchResult> {
        self.search_multi_checked(keys)
            .expect("more concurrent queries than configured groups")
            .0
    }

    /// The multi-query engine behind both variants: the (corrected)
    /// answers plus the first divergence the cross-check caught.
    fn search_multi_checked(&mut self, keys: &[u64]) -> Result<Served, CamError> {
        if keys.len() > self.groups {
            return Err(CamError::TooManyQueries {
                presented: keys.len(),
                capacity: self.groups,
            });
        }
        self.sync_for_keys(keys);
        self.issue_cycles += 1;
        self.search_count += keys.len() as u64;
        let mut results: Vec<SearchResult> = keys
            .iter()
            .enumerate()
            .map(|(group, &key)| self.group_result(group, key, CamBlock::search_vector_into))
            .collect();
        let diverged = self.crosscheck_results(keys, &mut results);
        self.scrub_step();
        #[cfg(feature = "obs")]
        self.trace_issue(OpKind::SearchMulti, keys, &results);
        Ok((results, diverged))
    }

    /// Streaming multi-query search: any number of keys, batched onto the
    /// `M` groups internally (unique key *j* is served by group `j mod M`,
    /// `M` keys per issue cycle — the steady-state version of
    /// [`CamUnit::search_multi`] for an accelerator draining a work list).
    ///
    /// Duplicate keys within the batch are deduplicated before touching
    /// the engine: data is replicated and fill order is identical in every
    /// group, so group-local addresses are the same wherever a key lands,
    /// and repeats can reuse the first answer (only `group` reflects the
    /// dedup). Counters account for the *unique* keys actually issued:
    /// `issue_cycles += unique.div_ceil(M)`, `search_count += unique`, and
    /// block-level cycle/search counters tick once per unique key —
    /// identically on every fidelity tier.
    ///
    /// Results come back in the caller's key order, duplicates included.
    /// Like [`CamUnit::search`], this path is infallible: a divergence
    /// caught by a sampled cross-check is repaired and the corrected
    /// answer served, even under a strict [`ScrubPolicy`]; use
    /// [`CamUnit::try_search_stream`] to surface
    /// [`CamError::ShadowDivergence`].
    pub fn search_stream(&mut self, keys: &[u64]) -> Vec<SearchResult> {
        self.search_stream_checked(keys).0
    }

    /// Streaming multi-query search, fallible variant of
    /// [`CamUnit::search_stream`] (same batching, dedup and counter
    /// semantics).
    ///
    /// # Errors
    ///
    /// [`CamError::ShadowDivergence`] if a sampled cross-check catches a
    /// divergent answer under a strict [`ScrubPolicy`] (repaired either
    /// way).
    pub fn try_search_stream(&mut self, keys: &[u64]) -> Result<Vec<SearchResult>, CamError> {
        let (results, diverged) = self.search_stream_checked(keys);
        self.strict_check(diverged)?;
        Ok(results)
    }

    /// The streaming engine behind both variants: the (corrected)
    /// answers in key order plus the first divergence the cross-check
    /// caught.
    fn search_stream_checked(&mut self, keys: &[u64]) -> Served {
        if keys.is_empty() {
            return (Vec::new(), None);
        }
        self.sync_for_keys(keys);
        // Dedup preserving first-occurrence order; `slots[i]` is the
        // unique-key index answering original key `i`.
        let mut seen: HashMap<u64, usize> = HashMap::with_capacity(keys.len());
        let mut unique: Vec<u64> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(keys.len());
        for &key in keys {
            let next = unique.len();
            let slot = *seen.entry(key).or_insert_with(|| {
                unique.push(key);
                next
            });
            slots.push(slot);
        }
        #[cfg(feature = "obs")]
        let issue_base = self.issue_cycles;
        self.issue_cycles += unique.len().div_ceil(self.groups) as u64;
        self.search_count += unique.len() as u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut answered = Vec::with_capacity(unique.len());
        for group in 0..self.groups {
            self.stream_group(group, &unique, &mut scratch, &mut answered);
        }
        self.scratch = scratch;
        answered.sort_by_key(|&(j, _)| j);
        let mut answers: Vec<SearchResult> =
            answered.into_iter().map(|(_, result)| result).collect();
        let diverged = self.crosscheck_results(&unique, &mut answers);
        self.scrub_step();
        #[cfg(feature = "obs")]
        self.trace_stream(keys.len(), &unique, &answers, issue_base);
        let results = slots
            .into_iter()
            .map(|slot| answers[slot].clone())
            .collect();
        (results, diverged)
    }

    /// Answer one group's share of a deduplicated key stream — unique
    /// keys `j ≡ group (mod M)` — in key-parallel batches of up to
    /// [`UnitConfig::batch_width`] keys: each batch walks the group's
    /// blocks once, each block OR-ing its answers straight into one
    /// group-wide vector per key at its slot offset — the W-wide sibling
    /// of [`CamUnit::group_result`]. Pushes `(j, result)` pairs onto `out`;
    /// the reused scratch keeps steady-state streams allocation-free.
    fn stream_group(
        &mut self,
        group: usize,
        unique: &[u64],
        scratch: &mut GroupScratch,
        out: &mut Vec<(usize, SearchResult)>,
    ) {
        let batch = self
            .config
            .batch_width
            .clamp(1, crate::bitslice::MAX_BATCH_WIDTH);
        let block_size = self.config.block.block_size;
        let blocks = &self.fill[group].blocks;
        scratch.batch_keys.clear();
        scratch
            .batch_keys
            .extend(unique.iter().skip(group).step_by(self.groups));
        for (c, keys) in scratch.batch_keys.chunks(batch).enumerate() {
            if scratch.batch_combined.len() < keys.len() {
                scratch
                    .batch_combined
                    .resize_with(keys.len(), MatchVector::default);
            }
            for combined in &mut scratch.batch_combined[..keys.len()] {
                combined.reset(blocks.len() * block_size);
            }
            for (slot, &b) in blocks.iter().enumerate() {
                self.blocks[b].search_batch_or(
                    keys,
                    &mut scratch.batch_combined[..keys.len()],
                    slot * block_size,
                );
            }
            for (k, combined) in scratch.batch_combined[..keys.len()].iter().enumerate() {
                let output = self.config.block.encoding.encode(combined);
                out.push((
                    group + (c * batch + k) * self.groups,
                    SearchResult { group, output },
                ));
            }
        }
    }

    /// Search a specific group (the case-study accelerator addresses
    /// groups explicitly).
    ///
    /// # Errors
    ///
    /// [`CamError::NoSuchGroup`] if the group does not exist;
    /// [`CamError::ShadowDivergence`] if a sampled cross-check catches a
    /// divergent answer under a strict [`ScrubPolicy`] (the divergence
    /// is repaired either way).
    pub fn search_group(&mut self, group: usize, key: u64) -> Result<SearchResult, CamError> {
        if group >= self.groups {
            return Err(CamError::NoSuchGroup {
                group,
                groups: self.groups,
            });
        }
        let (result, diverged) = self.search_single(group, key);
        self.strict_check(diverged)?;
        Ok(result)
    }

    /// Answer `key` from `group`: `probe` fills each block's match
    /// vector — the configured tier's broadcast for a search, the DSP
    /// oracle for the cross-check's reference answer — and the vectors
    /// are ORed at their group-local offsets and encoded.
    fn group_result(
        &mut self,
        group: usize,
        key: u64,
        mut probe: impl FnMut(&mut CamBlock, u64, &mut MatchVector),
    ) -> SearchResult {
        let block_size = self.config.block.block_size;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch
            .combined
            .reset(self.fill[group].blocks.len() * block_size);
        for (slot, &b) in self.fill[group].blocks.iter().enumerate() {
            probe(&mut self.blocks[b], key, &mut scratch.block);
            scratch
                .combined
                .or_offset(&scratch.block, slot * block_size);
        }
        let output = self.config.block.encoding.encode(&scratch.combined);
        self.scratch = scratch;
        SearchResult { group, output }
    }

    /// Delete the first entry matching `key` (extension beyond the paper:
    /// per-address valid-bit invalidation). Because updates replicate to
    /// every group, the deletion is applied to each group's first match so
    /// the replication invariant survives. Returns whether a match was
    /// deleted.
    ///
    /// Deletion restores capacity: [`CamUnit::len`] drops by one, the
    /// freed cell joins its block's free-list (reused lowest-address
    /// first by subsequent updates), and each group's Block Address
    /// Controller rewinds so round-robin filling revisits the partially
    /// freed block. The probe searches used to locate matches touch no
    /// search/cycle counters on any fidelity tier, and a miss consumes no
    /// issue cycle and emits no observability event.
    pub fn delete_first(&mut self, key: u64) -> bool {
        let deleted_any = if self.wbuf_enabled() {
            let key = key & mask_width(self.config.block.cell.data_width);
            self.absorb_delete(key)
        } else {
            self.apply_delete_physical(key)
        };
        if deleted_any {
            self.entries_per_group = self.entries_per_group.saturating_sub(1);
            self.issue_cycles += 1;
            #[cfg(feature = "obs")]
            self.trace_event(Event::Issue {
                kind: OpKind::Delete,
                group: 0,
            });
        }
        self.scrub_step();
        deleted_any
    }

    /// Invalidate the first match of `key` in every group — the
    /// physical deletion walk shared by the inline path and the
    /// write-buffer drainer. No unit-level counters move here.
    fn apply_delete_physical(&mut self, key: u64) -> bool {
        let mut deleted_any = false;
        for fill in &mut self.fill {
            for (pos, &b) in fill.blocks.iter().enumerate() {
                if let Some(cell) = self.blocks[b].probe_first(key) {
                    self.blocks[b].invalidate(cell);
                    fill.current = fill.current.min(pos);
                    deleted_any = true;
                    break;
                }
            }
        }
        deleted_any
    }

    /// Per-entry ternary update across all groups (extension; see
    /// [`crate::block::CamBlock::update_masked`]).
    ///
    /// # Errors
    ///
    /// As [`CamUnit::update`], plus [`CamError::KindMismatch`] for
    /// non-ternary units.
    pub fn update_masked(&mut self, value: u64, dont_care: u64) -> Result<(), CamError> {
        self.write_entries(&[(value, dont_care)])
    }

    /// Assert the global reset: clear every block and fill pointer.
    pub fn reset(&mut self) {
        // Flush (not discard) staged writes so block-level counters end
        // up where the inline path would have left them.
        self.flush_write_buffer();
        for block in &mut self.blocks {
            block.reset();
        }
        for fill in &mut self.fill {
            fill.current = 0;
        }
        self.entries_per_group = 0;
        self.issue_cycles += 1;
        #[cfg(feature = "obs")]
        self.trace_event(Event::Issue {
            kind: OpKind::Reset,
            group: 0,
        });
    }

    /// Execute a [`BusCommand`] (the accelerator-facing interface).
    ///
    /// # Errors
    ///
    /// Propagates the underlying operation's [`CamError`];
    /// group-reconfiguration errors surface as
    /// [`CamError::NoSuchGroup`]-style kind errors mapped from the config
    /// layer.
    pub fn execute(&mut self, command: &BusCommand) -> Result<BusResponse, CamError> {
        match command.opcode {
            Opcode::Update => {
                self.update(&command.words)?;
                Ok(BusResponse::Done)
            }
            Opcode::Search => {
                let key = command.words.first().copied().unwrap_or(0);
                Ok(BusResponse::Search(self.search(key)))
            }
            Opcode::Reset => {
                self.reset();
                Ok(BusResponse::Done)
            }
            Opcode::ConfigureGroups => {
                let m = command.words.first().copied().unwrap_or(1) as usize;
                self.configure_groups(m)
                    .map_err(|_| CamError::NoSuchGroup {
                        group: m,
                        groups: self.config.num_blocks,
                    })?;
                Ok(BusResponse::Done)
            }
            Opcode::WriteRoutingTable => {
                let block = command.words.first().copied().unwrap_or(0) as usize;
                let group = command.words.get(1).copied().unwrap_or(0) as usize;
                self.write_routing_entry(block, group)?;
                Ok(BusResponse::Done)
            }
        }
    }

    /// Pipelined cycle cost of `n` search issues (II = 1).
    #[must_use]
    pub fn pipelined_search_cycles(&self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.config.search_latency() + (n - 1)
        }
    }

    /// Pipelined cycle cost of `n` update beats (II = 1).
    #[must_use]
    pub fn pipelined_update_cycles(&self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.config.update_latency() + (n - 1)
        }
    }

    /// Trace one issue cycle: an Issue plus Match/Miss per served key,
    /// one lock.
    #[cfg(feature = "obs")]
    fn trace_issue(&self, kind: OpKind, keys: &[u64], results: &[SearchResult]) {
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
    #[cfg(feature = "obs")]
    fn trace_stream(&self, presented: usize, unique: &[u64], answers: &[SearchResult], base: u64) {
        let Some(obs) = &self.observer else { return };
        let groups = self.groups;
        let stream_scope = obs.sink.register_scope(&format!("{}/stream", obs.path));
        let batch = self
            .config
            .batch_width
            .clamp(1, crate::bitslice::MAX_BATCH_WIDTH);
        obs.sink.with(|o| {
            // Dedup savings: keys answered from the first occurrence's
            // result instead of a fresh plane walk.
            o.add(stream_scope, "dup_hits", (presented - unique.len()) as u64);
            // One histogram sample per dispatched batch — the widths the
            // key-parallel kernel actually ran at (tails included).
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
    #[cfg(feature = "obs")]
    fn trace_event(&self, event: Event) {
        if let Some(obs) = &self.observer {
            obs.sink.record(self.issue_cycles, event);
        }
    }

    /// Borrow the underlying blocks (inspection in tests/benches).
    #[must_use]
    pub fn blocks(&self) -> &[CamBlock] {
        &self.blocks
    }

    /// Every word physically stored, read from one replicated group in
    /// fill order (contents are replicated, so any non-empty group is
    /// the unit's logical content set; multiplicity preserved). Staged
    /// write-buffer ops are *not* included — flush first when the
    /// caller needs the logical contents (the migration freeze path
    /// does). Counter-neutral.
    #[must_use]
    pub fn stored_words(&self) -> Vec<u64> {
        self.fill
            .iter()
            .find(|f| !f.blocks.is_empty())
            .map(|fill| {
                fill.blocks
                    .iter()
                    .flat_map(|&b| self.blocks[b].stored())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// An independent replica of this unit: a clone with the search
    /// scratch buffers and per-block transients cleared, the write
    /// buffer's key index rebuilt from its FIFO (lazily, on first use)
    /// and, with `obs`, the observer detached. Architectural state
    /// (contents, shadow planes, fill pointers, counters, scrub
    /// progress) is copied unchanged, so the replica answers
    /// bit-identically to the original.
    #[must_use]
    pub fn rehydrate(&self) -> CamUnit {
        let mut unit = self.clone();
        unit.scratch = GroupScratch::default();
        unit.wbuf.reset_transients();
        for block in &mut unit.blocks {
            block.reset_transients();
        }
        #[cfg(feature = "obs")]
        {
            unit.observer = None;
        }
        unit
    }

    /// A point-in-time performance/occupancy snapshot (the counters a
    /// status register bank would expose to the host).
    #[must_use]
    pub fn snapshot(&self) -> UnitSnapshot {
        UnitSnapshot {
            groups: self.groups,
            capacity: self.capacity(),
            entries: self.entries_per_group,
            block_occupancy: self.blocks.iter().map(CamBlock::len).collect(),
            issue_cycles: self.issue_cycles,
            update_words: self.update_words,
            search_count: self.search_count,
        }
    }
}

/// Record one served search: its Issue, then a Match or Miss event.
#[cfg(feature = "obs")]
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

/// The obs-crate mirror of a [`FidelityMode`](crate::config::FidelityMode).
#[cfg(feature = "obs")]
fn tier_of(fidelity: crate::config::FidelityMode) -> Tier {
    match fidelity {
        crate::config::FidelityMode::BitAccurate => Tier::BitAccurate,
        crate::config::FidelityMode::Turbo => Tier::Turbo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ShadowFault;
    use crate::kind::CamKind;

    fn unit(blocks: usize, block_size: usize) -> CamUnit {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(block_size)
            .num_blocks(blocks)
            .build()
            .unwrap();
        CamUnit::new(config).unwrap()
    }

    #[test]
    fn single_group_update_search() {
        let mut cam = unit(4, 32);
        cam.update(&[5, 10, 15]).unwrap();
        assert!(cam.search(10).is_match());
        assert!(!cam.search(11).is_match());
        assert_eq!(cam.len(), 3);
        assert_eq!(cam.capacity(), 128);
    }

    #[test]
    fn grouping_divides_capacity() {
        let mut cam = unit(4, 32);
        assert_eq!(cam.capacity(), 128);
        cam.configure_groups(2).unwrap();
        assert_eq!(cam.groups(), 2);
        assert_eq!(cam.blocks_per_group(), 2);
        assert_eq!(cam.capacity(), 64, "replication halves capacity");
        cam.configure_groups(4).unwrap();
        assert_eq!(cam.capacity(), 32);
    }

    #[test]
    fn illegal_group_counts_rejected() {
        let mut cam = unit(4, 32);
        assert!(matches!(
            cam.configure_groups(3),
            Err(ConfigError::GroupCount { .. })
        ));
        assert!(cam.configure_groups(0).is_err());
        assert!(cam.configure_groups(8).is_err(), "more groups than blocks");
    }

    #[test]
    fn update_replicates_to_all_groups() {
        let mut cam = unit(4, 32);
        cam.configure_groups(4).unwrap();
        cam.update(&[42]).unwrap();
        // Every group must answer the same query.
        for g in 0..4 {
            assert!(
                cam.search_group(g, 42).unwrap().is_match(),
                "group {g} missing the replicated entry"
            );
        }
    }

    #[test]
    fn multi_query_concurrency() {
        let mut cam = unit(4, 32);
        cam.configure_groups(4).unwrap();
        cam.update(&[1, 2, 3]).unwrap();
        let hits = cam.search_multi(&[1, 2, 99, 3]);
        assert!(hits[0].is_match());
        assert!(hits[1].is_match());
        assert!(!hits[2].is_match());
        assert!(hits[3].is_match());
        assert_eq!(hits[1].group, 1);
    }

    #[test]
    fn too_many_queries_rejected() {
        let mut cam = unit(4, 32);
        cam.configure_groups(2).unwrap();
        let err = cam.try_search_multi(&[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            CamError::TooManyQueries {
                presented: 3,
                capacity: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "more concurrent queries")]
    fn search_multi_panics_on_overflow() {
        let mut cam = unit(2, 32);
        let _ = cam.search_multi(&[1, 2, 3]);
    }

    #[test]
    fn round_robin_spill_across_blocks() {
        // One group of 2 blocks x 4 cells; 6 entries must spill into the
        // second block (Section III-C.4's example).
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(4)
            .num_blocks(2)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(cam.blocks()[0].len(), 4);
        assert_eq!(cam.blocks()[1].len(), 2);
        for k in 1..=6 {
            assert!(cam.search(k).is_match(), "key {k}");
        }
    }

    #[test]
    fn group_local_addressing() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(4)
            .num_blocks(2)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[10, 11, 12, 13, 14]).unwrap();
        // 14 is the fifth entry: block 1, cell 0 -> group address 4.
        let hit = cam.search(14);
        assert_eq!(hit.first_address(), Some(4));
    }

    #[test]
    fn capacity_enforced_per_group() {
        let mut cam = unit(4, 32); // 128 cells total
        cam.configure_groups(4).unwrap(); // 32 per group
        let words: Vec<u64> = (0..33).collect();
        let err = cam.update(&words).unwrap_err();
        assert_eq!(
            err,
            CamError::Full {
                rejected: 1,
                group: Some(0)
            }
        );
        assert!(cam.is_empty(), "atomic rejection");
        cam.update(&words[..32]).unwrap();
        assert_eq!(cam.len(), 32);
        assert!(matches!(cam.update(&[99]), Err(CamError::Full { .. })));
    }

    #[test]
    fn reconfigure_clears_contents() {
        let mut cam = unit(4, 32);
        cam.update(&[7]).unwrap();
        cam.configure_groups(2).unwrap();
        assert!(cam.is_empty());
        assert!(!cam.search(7).is_match());
    }

    #[test]
    fn reset_keeps_grouping() {
        let mut cam = unit(4, 32);
        cam.configure_groups(2).unwrap();
        cam.update(&[3]).unwrap();
        cam.reset();
        assert_eq!(cam.groups(), 2);
        assert!(cam.is_empty());
        cam.update(&[4]).unwrap();
        assert!(cam.search(4).is_match());
    }

    #[test]
    fn routing_table_shape() {
        let mut cam = unit(4, 32);
        cam.configure_groups(2).unwrap();
        assert_eq!(cam.routing_table(), &[0, 0, 1, 1]);
        cam.configure_groups(4).unwrap();
        assert_eq!(cam.routing_table(), &[0, 1, 2, 3]);
    }

    #[test]
    fn custom_routing_entry() {
        let mut cam = unit(4, 32);
        cam.configure_groups(2).unwrap();
        // Move block 1 into group 1: group 0 = {0}, group 1 = {1,2,3}.
        cam.write_routing_entry(1, 1).unwrap();
        assert_eq!(cam.routing_table(), &[0, 1, 1, 1]);
        cam.update(&[5]).unwrap();
        assert!(cam.search_group(0, 5).unwrap().is_match());
        assert!(cam.search_group(1, 5).unwrap().is_match());
        assert!(matches!(
            cam.write_routing_entry(0, 9),
            Err(CamError::NoSuchGroup { .. })
        ));
    }

    #[test]
    fn latency_model_matches_table_viii() {
        let small = unit(8, 128); // 1024 cells
        assert_eq!(small.config().update_latency(), 6);
        assert_eq!(small.config().search_latency(), 7);
        let big = unit(16, 128); // 2048 cells (Table VIII reports 8)
        assert_eq!(big.config().update_latency(), 6);
        assert_eq!(big.config().search_latency(), 8);
    }

    #[test]
    fn issue_cycles_track_beats_and_queries() {
        let mut cam = unit(4, 128);
        let c0 = cam.issue_cycles();
        let words: Vec<u64> = (0..32).collect(); // 2 beats of 16x32-bit
        cam.update(&words).unwrap();
        assert_eq!(cam.issue_cycles() - c0, 2);
        let c1 = cam.issue_cycles();
        cam.search(1);
        cam.search_multi(&[2]);
        assert_eq!(cam.issue_cycles() - c1, 2);
        assert_eq!(cam.update_words(), 32);
        assert_eq!(cam.search_count(), 2);
    }

    #[test]
    fn pipelined_cycle_helpers() {
        let cam = unit(8, 128); // 1024 cells -> 7-cycle search
        assert_eq!(cam.pipelined_search_cycles(0), 0);
        assert_eq!(cam.pipelined_search_cycles(1), 7);
        assert_eq!(cam.pipelined_search_cycles(1000), 1006);
        assert_eq!(cam.pipelined_update_cycles(1000), 1005);
    }

    #[test]
    fn bus_command_dispatch() {
        let mut cam = unit(4, 32);
        cam.execute(&BusCommand {
            opcode: Opcode::ConfigureGroups,
            words: vec![2],
        })
        .unwrap();
        assert_eq!(cam.groups(), 2);
        cam.execute(&BusCommand::update(vec![77])).unwrap();
        match cam.execute(&BusCommand::search(77)).unwrap() {
            BusResponse::Search(hit) => assert!(hit.is_match()),
            other => panic!("unexpected response {other:?}"),
        }
        cam.execute(&BusCommand::reset()).unwrap();
        assert!(cam.is_empty());
        cam.execute(&BusCommand {
            opcode: Opcode::WriteRoutingTable,
            words: vec![1, 1],
        })
        .unwrap();
        assert_eq!(cam.routing_table()[1], 1);
    }

    #[test]
    fn range_matching_unit() {
        let config = UnitConfig::builder()
            .kind(CamKind::RangeMatching)
            .data_width(32)
            .block_size(16)
            .num_blocks(2)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update_ranges(&[RangeSpec::new(0x1000, 8).unwrap()])
            .unwrap();
        assert!(cam.search(0x10FF).is_match());
        assert!(!cam.search(0x1100).is_match());
    }

    #[test]
    fn range_update_on_binary_unit_rejected() {
        let mut cam = unit(2, 16);
        let err = cam
            .update_ranges(&[RangeSpec::new(0, 4).unwrap()])
            .unwrap_err();
        assert_eq!(err, CamError::KindMismatch);
    }

    #[test]
    fn value_too_wide_detected_before_writing() {
        let mut cam = unit(2, 16);
        let err = cam.update(&[1, u64::MAX]).unwrap_err();
        assert!(matches!(err, CamError::ValueTooWide { .. }));
        assert!(cam.is_empty());
    }

    #[test]
    fn snapshot_reports_occupancy_and_counters() {
        let mut cam = unit(4, 32);
        cam.configure_groups(2).unwrap();
        cam.update(&[1, 2, 3]).unwrap();
        cam.search(2);
        let snap = cam.snapshot();
        assert_eq!(snap.groups, 2);
        assert_eq!(snap.capacity, 64);
        assert_eq!(snap.entries, 3);
        assert_eq!(snap.block_occupancy.iter().sum::<usize>(), 6, "replicated");
        assert!(snap.issue_cycles > 0);
        assert_eq!(snap.update_words, 3);
        assert_eq!(snap.search_count, 1);
        assert!((snap.fill_fraction() - 3.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn empty_update_is_a_noop() {
        let mut cam = unit(2, 16);
        let c0 = cam.issue_cycles();
        cam.update(&[]).unwrap();
        assert_eq!(cam.issue_cycles(), c0);
    }

    #[test]
    fn search_stream_batches_and_dedupes() {
        let mut cam = unit(4, 32);
        cam.configure_groups(4).unwrap();
        cam.update(&[1, 2, 3, 4, 5]).unwrap();
        let c0 = cam.issue_cycles();
        let s0 = cam.search_count();
        // 9 keys, 7 unique (1 and 2 repeat): ceil(7/4) = 2 issue cycles.
        let keys = [1u64, 2, 1, 99, 3, 2, 7, 4, 5];
        let hits = cam.search_stream(&keys);
        assert_eq!(hits.len(), keys.len(), "one result per presented key");
        assert_eq!(cam.issue_cycles() - c0, 2);
        assert_eq!(cam.search_count() - s0, 7, "unique keys only");
        for (i, (&key, hit)) in keys.iter().zip(&hits).enumerate() {
            assert_eq!(hit.is_match(), key <= 5, "key {key} at {i}");
        }
        // Duplicates reuse the first occurrence's answer verbatim.
        assert_eq!(hits[2], hits[0]);
        assert_eq!(hits[5], hits[1]);
        // Unique key j is served by group j % M.
        assert_eq!(hits[0].group, 0);
        assert_eq!(hits[1].group, 1);
        assert_eq!(hits[4].group, 3, "3 is the fourth unique key");
        assert_eq!(hits[8].group, 2, "5 is the seventh unique key");
    }

    #[test]
    fn search_stream_addresses_match_direct_group_search() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(4)
            .num_blocks(4)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(2).unwrap();
        let words: Vec<u64> = (0..7).map(|i| 100 + i).collect();
        cam.update(&words).unwrap();
        let keys: Vec<u64> = (0..10).map(|i| 100 + i).collect();
        let streamed = cam.search_stream(&keys);
        for (i, &key) in keys.iter().enumerate() {
            let direct = cam.search_group(streamed[i].group, key).unwrap();
            assert_eq!(streamed[i], direct, "key {key}");
        }
    }

    #[test]
    fn search_stream_empty_is_a_noop() {
        let mut cam = unit(2, 16);
        let c0 = cam.issue_cycles();
        assert!(cam.search_stream(&[]).is_empty());
        assert_eq!(cam.issue_cycles(), c0);
        assert_eq!(cam.search_count(), 0);
    }

    #[test]
    fn set_fidelity_switches_all_blocks() {
        use crate::config::FidelityMode;
        let mut cam = unit(4, 32);
        cam.update(&[5, 6]).unwrap();
        let before = cam.search(5);
        cam.set_fidelity(FidelityMode::Turbo);
        assert_eq!(cam.config().block.fidelity, FidelityMode::Turbo);
        assert_eq!(cam.search(5), before, "same issue cycle bump either way");
    }

    #[test]
    fn routing_entry_block_range_reported_as_no_such_block() {
        let mut cam = unit(4, 32);
        cam.configure_groups(2).unwrap();
        assert_eq!(
            cam.write_routing_entry(9, 0).unwrap_err(),
            CamError::NoSuchBlock {
                block: 9,
                blocks: 4
            }
        );
        assert_eq!(
            cam.write_routing_entry(0, 9).unwrap_err(),
            CamError::NoSuchGroup {
                group: 9,
                groups: 2
            }
        );
        // The block check wins when both are out of range.
        assert!(matches!(
            cam.write_routing_entry(9, 9).unwrap_err(),
            CamError::NoSuchBlock { .. }
        ));
    }

    #[test]
    fn delete_restores_capacity_and_reuses_cells() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(4)
            .num_blocks(4)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(2).unwrap();
        let words: Vec<u64> = (1..=8).collect();
        cam.update(&words).unwrap(); // full: 8 entries per 2-block group
        assert!(matches!(cam.update(&[99]), Err(CamError::Full { .. })));
        assert!(cam.delete_first(3), "entry 3 lives in the first block");
        assert_eq!(cam.len(), 7, "deletion decrements the entry count");
        assert!((cam.snapshot().fill_fraction() - 7.0 / 8.0).abs() < 1e-12);
        assert!(!cam.search(3).is_match());
        // The freed cell is reusable: the unit is no longer Full and the
        // replacement lands in the hole (lowest address first).
        cam.update(&[99]).unwrap();
        assert_eq!(cam.len(), 8);
        assert!(cam.search(99).is_match());
        assert_eq!(
            cam.search(99).first_address(),
            Some(2),
            "replacement fills entry 3's freed cell"
        );
        assert!(matches!(cam.update(&[100]), Err(CamError::Full { .. })));
    }

    #[test]
    fn delete_probes_and_misses_are_counter_neutral() {
        let mut cam = unit(4, 32);
        cam.configure_groups(2).unwrap();
        cam.update(&[5, 6]).unwrap();
        let searches: u64 = cam.blocks().iter().map(CamBlock::searches).sum();
        let cycles_before: u64 = cam.blocks().iter().map(CamBlock::cycles).sum();
        let (issue, count) = (cam.issue_cycles(), cam.search_count());
        assert!(!cam.delete_first(777), "miss");
        assert_eq!(cam.issue_cycles(), issue, "miss consumes no issue cycle");
        assert_eq!(cam.search_count(), count);
        assert!(cam.delete_first(5));
        assert_eq!(cam.issue_cycles(), issue + 1, "hit consumes one");
        assert_eq!(cam.search_count(), count, "probes are not searches");
        let after: u64 = cam.blocks().iter().map(CamBlock::searches).sum();
        assert_eq!(after, searches, "block search counters untouched");
        // Only the two invalidations (one per group) ticked block cycles.
        let cycles_after: u64 = cam.blocks().iter().map(CamBlock::cycles).sum();
        assert_eq!(cycles_after, cycles_before + 2);
    }

    #[test]
    fn delete_then_update_round_trips_at_full_capacity() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(4)
            .num_blocks(4)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(4).unwrap();
        cam.update(&[10, 20, 30, 40]).unwrap();
        for round in 0..3 {
            assert!(cam.delete_first(20), "round {round}");
            cam.update(&[20]).unwrap();
            assert_eq!(cam.len(), 4);
            assert_eq!(cam.audit_shadows(), 0, "round {round}");
        }
        for key in [10u64, 20, 30, 40] {
            assert!(cam.search(key).is_match(), "key {key}");
        }
    }

    /// A scrub-enabled unit with walker-only repair (no cross-checking):
    /// a multi-site fault campaign — plane bits, the valid bitmap and
    /// the Routing Table — is fully repaired within one sweep's worth of
    /// operations, counters stay architecturally untouched, and
    /// `faults_repaired` always equals `faults_detected`.
    #[test]
    fn scrub_walker_repairs_unit_wide_fault_campaign() {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(4)
            .scrub(ScrubPolicy {
                cells_per_op: 8,
                crosscheck_interval: 0,
                restore_after: 2,
                strict: false,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(2).unwrap();
        cam.update(&[1, 2, 3, 4, 5]).unwrap();
        let issue_base = cam.issue_cycles();
        let search_base = cam.search_count();
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 1,
                key_bit: 3,
                one_plane: false,
            },
        });
        cam.inject_fault(FaultSite::Shadow {
            block: 1,
            fault: ShadowFault::Plane {
                cell: 2,
                key_bit: 5,
                one_plane: true,
            },
        });
        cam.inject_fault(FaultSite::Shadow {
            block: 2,
            fault: ShadowFault::PlaneValid { cell: 0 },
        });
        cam.inject_fault(FaultSite::Shadow {
            block: 3,
            fault: ShadowFault::PlaneValid { cell: 4 },
        });
        cam.inject_fault(FaultSite::Routing { block: 3 });
        assert_eq!(cam.audit_shadows(), 4, "four shadow sites corrupted");
        assert_ne!(cam.routing_table()[3], 1, "routing entry corrupted");
        // The update already audited block 0 (8 cells), so three searches
        // finish the sweep — the wrap audits and repairs the Routing
        // Table — and a fourth re-covers block 0's post-injection fault.
        for _ in 0..4 {
            cam.search(1);
        }
        assert_eq!(cam.audit_shadows(), 0, "all shadow faults repaired");
        assert_eq!(cam.routing_table()[3], 1, "routing entry repaired");
        let report = cam.scrub_report();
        assert_eq!(report.faults_detected, 5);
        assert_eq!(report.faults_repaired, report.faults_detected);
        assert_eq!(report.sweeps_completed, 1);
        assert_eq!(
            report.cells_audited, 40,
            "one op during update + four searches"
        );
        assert!(!report.is_degraded(), "no cross-checking, no degradation");
        // Scrubbing is counter-neutral: the four searches account for
        // every issue/search tick.
        assert_eq!(cam.issue_cycles(), issue_base + 4);
        assert_eq!(cam.search_count(), search_base + 4);
    }

    /// The degradation governor: a Turbo-plane fault caught by the
    /// sampled cross-check serves the corrected answer, degrades to
    /// BitAccurate, and `restore_after` consecutive clean sweeps restore
    /// Turbo.
    /// Pins K: after K-1 clean sweeps the unit is still degraded.
    #[test]
    fn crosscheck_degrades_turbo_and_restores_after_k_clean_sweeps() {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(2)
            .fidelity(FidelityMode::Turbo)
            .scrub(ScrubPolicy {
                cells_per_op: 16, // one full sweep per operation
                crosscheck_interval: 1,
                restore_after: 2,
                strict: false,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[5, 9]).unwrap();
        // Key 5 has bit 0 set, so Turbo consults the match-if-1 plane of
        // bit 0; flipping cell 0's bit there makes Turbo miss a stored
        // key the oracle matches.
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 0,
                key_bit: 0,
                one_plane: true,
            },
        });
        let result = cam.search(5);
        assert!(result.is_match(), "the corrected answer is served");
        let report = cam.scrub_report();
        assert_eq!(report.divergences, 1);
        assert_eq!(report.degraded_from, Some(FidelityMode::Turbo));
        assert_eq!(report.current_tier, FidelityMode::BitAccurate);
        assert_eq!(
            report.faults_repaired, report.faults_detected,
            "cross-check repair keeps the ledger balanced"
        );
        // The divergence dirtied the sweep containing it; the next clean
        // sweep is the first of the K = 2 streak.
        cam.search(9);
        assert_eq!(
            cam.scrub_report().current_tier,
            FidelityMode::BitAccurate,
            "one clean sweep is not enough at K = 2"
        );
        cam.search(9);
        let report = cam.scrub_report();
        assert_eq!(report.current_tier, FidelityMode::Turbo, "restored");
        assert_eq!(report.degraded_from, None);
        assert_eq!(cam.audit_shadows(), 0);
        // The default policy pins K = 4 (documented degradation ladder).
        assert_eq!(ScrubPolicy::default().restore_after, 4);
    }

    /// Strict mode surfaces a caught divergence as
    /// [`CamError::ShadowDivergence`] *after* repairing it.
    #[test]
    fn strict_scrub_surfaces_shadow_divergence() {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(2)
            .fidelity(FidelityMode::Turbo)
            .scrub(ScrubPolicy {
                cells_per_op: 4,
                crosscheck_interval: 1,
                restore_after: 2,
                strict: true,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[5]).unwrap();
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 0,
                key_bit: 0,
                one_plane: true,
            },
        });
        let err = cam.search_group(0, 5).unwrap_err();
        assert_eq!(err, CamError::ShadowDivergence { group: 0, key: 5 });
        // The error reported an already-repaired state: the next search
        // is clean and the unit runs degraded but correct.
        assert!(cam.search_group(0, 5).unwrap().is_match());
        assert_eq!(cam.scrub_report().current_tier, FidelityMode::BitAccurate);
    }

    /// Strict mode only changes the `try_` variants: the infallible
    /// `search_stream` and `search_multi` (and `Op::SearchStream`, which
    /// `StreamingCam` serves through `search_stream`) answer a caught
    /// divergence with the repaired result instead of panicking.
    #[test]
    fn strict_scrub_infallible_searches_serve_the_repaired_answer() {
        use crate::pipelined::{Completion, Op, StreamingCam};
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(2)
            .fidelity(FidelityMode::Turbo)
            .scrub(ScrubPolicy {
                cells_per_op: 4,
                crosscheck_interval: 1,
                restore_after: 2,
                strict: true,
            })
            .build()
            .unwrap();
        // Key 5's match-if-1 plane bit flipped in cell 0: Turbo misses a
        // stored key the oracle matches.
        let fault = FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 0,
                key_bit: 0,
                one_plane: true,
            },
        };
        let faulted = || {
            let mut cam = CamUnit::new(config).unwrap();
            cam.update(&[5, 9]).unwrap();
            cam.inject_fault(fault);
            cam
        };
        let mut clean = CamUnit::new(config).unwrap();
        clean.update(&[5, 9]).unwrap();
        let expected = clean.search_stream(&[5, 9]);
        assert!(expected.iter().all(SearchResult::is_match));

        let mut cam = faulted();
        assert_eq!(cam.search_stream(&[5, 9]), expected, "repaired answers");
        assert_eq!(cam.scrub_report().divergences, 1);

        let mut twin = faulted();
        assert_eq!(
            twin.try_search_stream(&[5, 9]).unwrap_err(),
            CamError::ShadowDivergence { group: 0, key: 5 }
        );

        let mut twin = faulted();
        let hits = twin.search_multi(&[5]);
        assert_eq!(hits[0].first_address(), Some(0), "repaired answer");

        let mut pipe = StreamingCam::new(config).unwrap();
        pipe.unit_mut().update(&[5, 9]).unwrap();
        pipe.unit_mut().inject_fault(fault);
        pipe.issue(Op::SearchStream(vec![5, 9])).unwrap();
        pipe.drain();
        let retired = pipe.drain_retired();
        assert!(
            matches!(&retired[..], [(_, Completion::SearchStream(hits))] if *hits == expected),
            "{retired:?}"
        );
    }

    /// Scrub repair interacts correctly with deletion's free-list: a
    /// repaired cell deletes cleanly, the freed address is reused lowest
    /// first, and `entries_per_group` tracks the whole dance.
    #[test]
    fn delete_after_scrub_repair_reuses_freed_address_in_order() {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(2)
            .scrub(ScrubPolicy {
                cells_per_op: 16, // full sweep per op
                crosscheck_interval: 0,
                restore_after: 2,
                strict: false,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[10, 20, 30]).unwrap();
        // Corrupt two plane bits of the cell holding key 20, then let
        // the walker repair it before any deletion touches that cell.
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 1,
                key_bit: 0,
                one_plane: true,
            },
        });
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 1,
                key_bit: 2,
                one_plane: false,
            },
        });
        // One search op = one full sweep: repair done.
        cam.search(10);
        assert_eq!(cam.audit_shadows(), 0, "walker repaired the cell");
        assert_eq!(cam.len(), 3);
        // Delete the repaired entry: address 1 joins the free-list.
        assert!(cam.delete_first(20));
        assert_eq!(cam.len(), 2);
        assert!(!cam.search(20).is_match());
        // Re-insert: the freed lowest address is reused first, and the
        // fresh write reshadows the cell (no residual divergence).
        cam.update(&[40]).unwrap();
        assert_eq!(cam.len(), 3);
        let hit = cam.search(40);
        assert!(hit.is_match());
        assert_eq!(hit.first_address(), Some(1), "lowest freed address");
        assert_eq!(cam.audit_shadows(), 0);
        assert_eq!(
            cam.scrub_report().faults_repaired,
            1,
            "one divergent cell, repaired once"
        );
    }

    /// `rehydrate` resets exactly the never-serialized transients; a
    /// faulted-then-scrubbed unit answers bit-identically afterwards.
    #[test]
    fn rehydrate_preserves_architectural_state() {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(2)
            .scrub(ScrubPolicy {
                cells_per_op: 16,
                crosscheck_interval: 4,
                restore_after: 2,
                strict: false,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[3, 7, 11]).unwrap();
        cam.inject_shadow_fault(0, 1);
        cam.search(3); // repairs via the full-sweep walker
        let restored = cam.rehydrate();
        assert_eq!(restored.snapshot(), cam.snapshot());
        assert_eq!(restored.scrub_report(), cam.scrub_report());
        let mut restored = restored;
        for key in [3u64, 7, 11, 99] {
            assert_eq!(restored.search(key), cam.search(key), "key {key}");
        }
        assert_eq!(restored.issue_cycles(), cam.issue_cycles());
        assert_eq!(restored.audit_shadows(), cam.audit_shadows());
    }
}
