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
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

#[cfg(feature = "obs")]
use dsp_cam_obs::{Event, ObsBatch, ObsSink, OpKind, ScopeId, Tier};
use serde::{Deserialize, Serialize};

use crate::block::CamBlock;
use crate::bus::{BusCommand, Opcode};
use crate::config::{FidelityMode, ScrubPolicy, UnitConfig};
use crate::encoder::{Encoding, MatchVector, SearchOutput};
use crate::error::{CamError, ConfigError};
use crate::faults::{FaultPlan, FaultSite};
use crate::mask::RangeSpec;
use crate::runtime::{CamRuntime, GroupTask, PoolOp, PoolRun};
use crate::scrub::{ScrubReport, ScrubState};
use crate::update_queue::{StagedOp, WriteBuffer, WriteBufferReport};

/// What one pool dispatch hands back: `(group, fill.current)` rewinds
/// from updates and `(slot, result)` answers from searches.
type PoolDispatch = (Vec<(usize, usize)>, Vec<(usize, SearchResult)>);

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
/// per key (or per batch) once the buffers reach steady-state size. Each
/// pool worker of the [`CamRuntime`] keeps one alive across jobs.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupScratch {
    pub(crate) combined: MatchVector,
    pub(crate) block: MatchVector,
    /// Staged keys of the batch currently walking the planes.
    pub(crate) batch_keys: Vec<u64>,
    /// Per-key per-block match vectors (batch kernel output).
    pub(crate) batch_block: Vec<MatchVector>,
    /// Per-key group-combined match vectors.
    pub(crate) batch_combined: Vec<MatchVector>,
}

/// Holder for the lazily-built persistent worker pool. Never serialized;
/// a cloned unit starts with a cold slot and spins its own pool up on
/// first sharded dispatch.
#[derive(Debug, Default)]
struct RuntimeSlot(Option<CamRuntime>);

impl Clone for RuntimeSlot {
    fn clone(&self) -> Self {
        RuntimeSlot(None)
    }
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
    /// The persistent sharded worker pool (see [`CamRuntime`]), built on
    /// first multi-worker dispatch and rebuilt whenever the effective
    /// worker count changes.
    #[serde(skip)]
    runtime: RuntimeSlot,
    /// One-shot fuse armed by [`FaultSite::PoolWorker`]: the next pooled
    /// update dispatch hands it to exactly one group task, which panics
    /// before writing any cell. Test-only failure injection, never
    /// architectural state.
    #[serde(skip)]
    pool_fault: Option<Arc<AtomicBool>>,
    /// One-shot fuse armed by [`FaultSite::PoolStall`]: every group
    /// task of the next pooled update dispatch sleeps this many
    /// milliseconds, deterministically tripping a configured dispatch
    /// deadline. Test-only failure injection, never architectural
    /// state.
    #[serde(skip)]
    pool_stall: Option<u64>,
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
        let mut unit = CamUnit {
            config,
            blocks,
            routing: vec![0; config.num_blocks],
            groups: 1,
            fill: Vec::new(),
            entries_per_group: 0,
            issue_cycles: 0,
            update_words: 0,
            search_count: 0,
            scrub: ScrubState::default(),
            wbuf: WriteBuffer::default(),
            scratch: GroupScratch::default(),
            runtime: RuntimeSlot::default(),
            pool_fault: None,
            pool_stall: None,
            #[cfg(feature = "obs")]
            observer: None,
        };
        unit.rebuild_groups(1);
        Ok(unit)
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

    /// Set the worker-thread count for subsequent multi-query searches
    /// and replicated updates (see [`UnitConfig::workers`]). The
    /// persistent pool is rebuilt to the new size on the next sharded
    /// dispatch.
    pub fn set_workers(&mut self, workers: usize) {
        self.config.workers = workers;
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
        // Pool worker monitoring, once a persistent pool has spun up.
        let pool_scopes: Vec<(ScopeId, usize, u64)> =
            self.runtime.0.as_ref().map_or_else(Vec::new, |pool| {
                pool.worker_stats()
                    .into_iter()
                    .enumerate()
                    .map(|(w, (depth, jobs))| {
                        (
                            obs.sink
                                .register_scope(&format!("{}/pool/worker{w}", obs.path)),
                            depth,
                            jobs,
                        )
                    })
                    .collect()
            });
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
            for &(scope, depth, jobs) in &pool_scopes {
                o.set_gauge(scope, "queue_depth", depth as i64);
                o.set_counter(scope, "jobs", jobs);
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
            FaultSite::PoolWorker => self.pool_fault = Some(Arc::new(AtomicBool::new(true))),
            FaultSite::PoolStall { ms } => self.pool_stall = Some(ms),
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
                let repaired = repaired as u64;
                self.scrub.faults_detected += repaired;
                self.scrub.faults_repaired += repaired;
                self.scrub.sweep_faults += repaired;
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
        if wbuf_divergent > 0 {
            self.scrub.faults_detected += wbuf_divergent;
            self.scrub.faults_repaired += wbuf_divergent;
            self.scrub.sweep_faults += wbuf_divergent;
        }
        for (g, f) in self.fill.iter().enumerate() {
            for &b in &f.blocks {
                if self.routing[b] != g {
                    self.routing[b] = g;
                    self.scrub.faults_detected += 1;
                    self.scrub.faults_repaired += 1;
                    self.scrub.sweep_faults += 1;
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

    /// Sampled cross-check of one served answer against the DSP oracle.
    /// Every `crosscheck_interval`-th unique key is recomputed straight
    /// from cell state (counter-neutral); a mismatch proves the serving
    /// shadow diverged, so the answering group is bulk-repaired, the
    /// *corrected* answer substituted into `result`, and the tier
    /// degraded. Returns whether a divergence was caught.
    fn crosscheck_result(&mut self, key: u64, result: &mut SearchResult) -> bool {
        let Some(policy) = self.config.scrub else {
            return false;
        };
        if policy.crosscheck_interval == 0 {
            return false;
        }
        self.scrub.crosscheck_clock += 1;
        if !self
            .scrub
            .crosscheck_clock
            .is_multiple_of(policy.crosscheck_interval)
        {
            return false;
        }
        self.scrub.crosschecks += 1;
        let group = result.group;
        let block_size = self.config.block.block_size;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch
            .combined
            .reset(self.fill[group].blocks.len() * block_size);
        for (slot, &b) in self.fill[group].blocks.iter().enumerate() {
            self.blocks[b].oracle_vector_into(key, &mut scratch.block);
            scratch
                .combined
                .or_offset(&scratch.block, slot * block_size);
        }
        let expected = self.config.block.encoding.encode(&scratch.combined);
        self.scratch = scratch;
        if expected == result.output {
            return false;
        }
        // The serving shadow lied. Repair the whole answering group from
        // the oracle, serve the oracle's answer, and fall back to the
        // oracle tier.
        self.scrub.divergences += 1;
        let block_ids = self.fill[group].blocks.clone();
        let repaired: usize = block_ids
            .into_iter()
            .map(|b| self.blocks[b].scrub_all())
            .sum();
        let repaired = repaired as u64;
        self.scrub.faults_detected += repaired;
        self.scrub.faults_repaired += repaired;
        self.scrub.sweep_faults += repaired;
        self.scrub.clean_sweeps = 0;
        result.output = expected;
        self.degrade_tier();
        true
    }

    /// Cross-check a batch of served answers (same sampling clock as
    /// [`CamUnit::crosscheck_result`], advanced once per answer).
    /// Returns the first divergence as `(group, key)` for strict-mode
    /// error reporting; every caught divergence is repaired and
    /// corrected regardless.
    fn crosscheck_results(
        &mut self,
        keys: &[u64],
        results: &mut [SearchResult],
    ) -> Option<(usize, u64)> {
        let mut first = None;
        for (&key, result) in keys.iter().zip(results.iter_mut()) {
            if self.crosscheck_result(key, result) && first.is_none() {
                first = Some((result.group, key));
            }
        }
        first
    }

    /// Whether a caught divergence should surface as
    /// [`CamError::ShadowDivergence`] instead of healing silently.
    fn strict_scrub(&self) -> bool {
        self.config.scrub.is_some_and(|p| p.strict)
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

    fn rebuild_groups(&mut self, m: usize) {
        let n = self.config.num_blocks / m;
        self.groups = m;
        self.routing = (0..self.config.num_blocks).map(|b| b / n).collect();
        self.fill = (0..m)
            .map(|g| GroupFill {
                blocks: (g * n..(g + 1) * n).collect(),
                current: 0,
            })
            .collect();
        self.entries_per_group = 0;
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
        // Retire staged writes first so per-block counters converge with
        // the inline path before contents are cleared.
        self.flush_write_buffer();
        for block in &mut self.blocks {
            block.reset();
        }
        self.rebuild_groups(m);
        self.issue_cycles += 1;
        #[cfg(feature = "obs")]
        self.trace_event(Event::Issue {
            kind: OpKind::ConfigureGroups,
            group: 0,
            worker: 0,
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
        self.flush_write_buffer();
        self.routing[block] = group;
        for b in &mut self.blocks {
            b.reset();
        }
        let routing = self.routing.clone();
        self.fill = (0..self.groups)
            .map(|g| GroupFill {
                blocks: (0..routing.len()).filter(|&b| routing[b] == g).collect(),
                current: 0,
            })
            .collect();
        self.entries_per_group = 0;
        self.issue_cycles += 1;
        #[cfg(feature = "obs")]
        self.trace_event(Event::Issue {
            kind: OpKind::RoutingWrite,
            group: group as u32,
            worker: 0,
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

    /// Resolve the configured worker count (0 = one per available CPU).
    fn effective_workers(&self) -> usize {
        match self.config.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }

    /// Distribute the blocks into per-group buckets of mutable
    /// references, each bucket in the group's fill order. Groups own
    /// disjoint block sets (the Routing Table is a partition), which is
    /// what lets every bucket hold its `&mut` borrows at once.
    fn group_shards<'a>(
        blocks: &'a mut [CamBlock],
        fill: &[GroupFill],
    ) -> Vec<Vec<&'a mut CamBlock>> {
        let mut owner: Vec<Option<(usize, usize)>> = vec![None; blocks.len()];
        for (g, f) in fill.iter().enumerate() {
            for (pos, &b) in f.blocks.iter().enumerate() {
                owner[b] = Some((g, pos));
            }
        }
        let mut buckets: Vec<Vec<(usize, &mut CamBlock)>> =
            (0..fill.len()).map(|_| Vec::new()).collect();
        for (b, block) in blocks.iter_mut().enumerate() {
            if let Some((g, pos)) = owner[b] {
                buckets[g].push((pos, block));
            }
        }
        buckets
            .into_iter()
            .map(|mut bucket| {
                bucket.sort_by_key(|&(pos, _)| pos);
                bucket.into_iter().map(|(_, block)| block).collect()
            })
            .collect()
    }

    /// Run `op` over the first `count` groups on the persistent worker
    /// pool, chunking groups across `lanes` workers (chunk *i* → worker
    /// *i*, which is what observability worker attribution reports).
    /// Blocks move into the workers by value and come back by value —
    /// `forbid(unsafe_code)`-compatible sharding. The pool is built lazily and rebuilt when the effective
    /// worker count changes.
    ///
    /// On a poisoned worker the surviving blocks are reinstalled, any
    /// lost with a dead thread are re-materialised empty, the pool is
    /// torn down (joining its threads), and
    /// [`CamError::WorkerPoolPoisoned`] is returned — unless the failed
    /// op is an idempotent search batch whose blocks all came home, in
    /// which case the dispatch is replayed exactly once on a freshly
    /// built pool. Updates are never replayed (a partial write would be
    /// double-applied), and neither are deadline misses (the stalled
    /// worker may still be executing).
    fn dispatch_pool(
        &mut self,
        count: usize,
        lanes: usize,
        op: PoolOp,
    ) -> Result<PoolDispatch, CamError> {
        let (err, lost) = match self.dispatch_pool_once(count, lanes, op.clone()) {
            Ok(out) => return Ok(out),
            Err(pair) => pair,
        };
        let idempotent = matches!(op, PoolOp::SearchMulti { .. } | PoolOp::SearchStream { .. });
        #[cfg(test)]
        let idempotent = idempotent || matches!(op, PoolOp::FailOnce(_));
        if !(idempotent && lost == 0 && matches!(err, CamError::WorkerPoolPoisoned { .. })) {
            return Err(err);
        }
        #[cfg(feature = "obs")]
        if let Some(obs) = &self.observer {
            let scope = obs.sink.register_scope(&format!("{}/pool", obs.path));
            obs.sink.with(|o| o.add(scope, "retries", 1));
        }
        self.dispatch_pool_once(count, lanes, op)
            .map_err(|(err, _)| err)
    }

    /// One pool dispatch attempt; on failure the error is paired with
    /// the number of blocks lost inside dead workers (re-materialised
    /// empty), which gates [`CamUnit::dispatch_pool`]'s one-shot replay.
    fn dispatch_pool_once(
        &mut self,
        count: usize,
        lanes: usize,
        op: PoolOp,
    ) -> Result<PoolDispatch, (CamError, usize)> {
        #[cfg(feature = "obs")]
        let dispatched = std::time::Instant::now();
        let pool_size = self.effective_workers().max(1);
        if self
            .runtime
            .0
            .as_ref()
            .is_none_or(|pool| pool.size() != pool_size)
        {
            self.runtime.0 = Some(CamRuntime::new(pool_size));
        }
        let mut slots: Vec<Option<CamBlock>> = std::mem::take(&mut self.blocks)
            .into_iter()
            .map(Some)
            .collect();
        let tasks: Vec<GroupTask> = (0..count)
            .map(|g| GroupTask {
                group: g,
                current: self.fill[g].current,
                blocks: self.fill[g]
                    .blocks
                    .iter()
                    .map(|&b| {
                        (
                            b,
                            slots[b].take().expect("the Routing Table is a partition"),
                        )
                    })
                    .collect(),
            })
            .collect();
        let chunks = chunked(tasks, lanes);
        let deadline = (self.config.dispatch_deadline_ms > 0)
            .then(|| std::time::Duration::from_millis(self.config.dispatch_deadline_ms));
        let outcome = self
            .runtime
            .0
            .as_ref()
            .expect("pool built above")
            .run(chunks, op, deadline);
        let (returned, failed) = match outcome {
            Ok(run) => (run, None),
            Err(err) => (
                PoolRun {
                    tasks: err.tasks,
                    ..PoolRun::default()
                },
                Some((err.worker, err.timed_out)),
            ),
        };
        let PoolRun {
            tasks,
            fills,
            results,
            wait_ns,
        } = returned;
        for task in tasks {
            for (b, block) in task.blocks {
                slots[b] = Some(block);
            }
        }
        let block_config = self.config.block;
        let mut lost = 0usize;
        self.blocks = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    // Lost inside a dead (or deadline-abandoned) worker
                    // thread: re-materialise an empty block so the unit
                    // stays structurally sound.
                    lost += 1;
                    CamBlock::new(block_config).expect("config was validated at construction")
                })
            })
            .collect();
        if let Some((worker, timed_out)) = failed {
            // The pool is suspect; tear it down (joining its threads)
            // and let the next dispatch build a fresh one.
            self.runtime.0 = None;
            let err = if timed_out {
                CamError::DispatchTimeout {
                    worker,
                    waited_ms: self.config.dispatch_deadline_ms,
                }
            } else {
                CamError::WorkerPoolPoisoned { worker }
            };
            return Err((err, lost));
        }
        #[cfg(feature = "obs")]
        self.observe_dispatch(&wait_ns, dispatched.elapsed());
        #[cfg(not(feature = "obs"))]
        drop(wait_ns);
        Ok((fills, results))
    }

    /// Test-only: run an arbitrary [`PoolOp`] through the full pool
    /// dispatch (deadline and retry handling included), sharding every
    /// group across the configured workers.
    #[cfg(test)]
    pub(crate) fn dispatch_test_op(&mut self, op: PoolOp) -> Result<PoolDispatch, CamError> {
        let lanes = self.effective_workers().min(self.groups).max(1);
        self.dispatch_pool(self.groups, lanes, op)
    }

    /// Record pool dispatch latency: per-worker queue-wait histograms
    /// under `{unit}/pool/worker{w}` plus the whole batch's
    /// dispatch-to-retire wall time under `{unit}/pool`.
    #[cfg(feature = "obs")]
    fn observe_dispatch(&self, waits: &[(usize, u64)], elapsed: std::time::Duration) {
        let Some(obs) = &self.observer else { return };
        // Scope interning allocates; resolve before taking the batch lock.
        let worker_scopes: Vec<(ScopeId, u64)> = waits
            .iter()
            .map(|&(w, ns)| {
                (
                    obs.sink
                        .register_scope(&format!("{}/pool/worker{w}", obs.path)),
                    ns,
                )
            })
            .collect();
        let pool_scope = obs.sink.register_scope(&format!("{}/pool", obs.path));
        let retire_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        obs.sink.with(|o| {
            for &(scope, ns) in &worker_scopes {
                o.observe(scope, "dispatch_wait_ns", ns);
            }
            o.observe(pool_scope, "batch_retire_ns", retire_ns);
        });
    }

    /// Update: replicate `words` to every group and fill round-robin
    /// (Section III-C.2). Atomic: either every group accepts every word or
    /// nothing is written.
    ///
    /// # Errors
    ///
    /// * [`CamError::Full`] if a group lacks space;
    /// * [`CamError::ValueTooWide`] for words beyond the data width;
    /// * [`CamError::WorkerPoolPoisoned`] if a pool worker dies mid-write
    ///   (contents are then unspecified until the next reset).
    pub fn update(&mut self, words: &[u64]) -> Result<(), CamError> {
        if words.is_empty() {
            return Ok(());
        }
        if words.len() > self.free_per_group() {
            return Err(CamError::Full {
                rejected: words.len() - self.free_per_group(),
                group: self.limiting_group(),
            });
        }
        let limit = mask_limit(self.config.block.cell.data_width);
        if let Some(&bad) = words.iter().find(|&&w| w > limit) {
            return Err(CamError::ValueTooWide {
                value: bad,
                data_width: self.config.block.cell.data_width,
            });
        }
        if self.wbuf_enabled() {
            self.absorb_insert(words)?;
        } else {
            self.apply_words_physical(words)?;
        }
        self.entries_per_group += words.len();
        let beats = words.len().div_ceil(self.config.words_per_beat()) as u64;
        self.issue_cycles += beats;
        self.update_words += words.len() as u64;
        #[cfg(feature = "obs")]
        self.trace_event(Event::Update {
            words: words.len() as u32,
            beats: beats as u32,
        });
        self.scrub_step();
        Ok(())
    }

    /// Replicate `words` into every group physically — the write engine
    /// shared by the inline update path and the write-buffer drainer
    /// (serial shards, or [`CamRuntime`] pool dispatch when more than one
    /// worker is configured). Admission must already be checked; no
    /// unit-level counters move here — block-level counters accrue as
    /// the cells are written, identically on either path.
    fn apply_words_physical(&mut self, words: &[u64]) -> Result<(), CamError> {
        let workers = self.effective_workers().min(self.groups);
        let outcomes: Vec<(usize, usize)> = if workers <= 1 {
            let shards = Self::group_shards(&mut self.blocks, &self.fill);
            shards
                .into_iter()
                .enumerate()
                .map(|(g, mut blocks)| {
                    (
                        g,
                        write_group_words(&mut blocks, self.fill[g].current, words),
                    )
                })
                .collect()
        } else {
            let op = PoolOp::Update {
                words: Arc::new(words.to_vec()),
                fault: self.pool_fault.take(),
                stall: self.pool_stall.take(),
            };
            let (fills, _) = self.dispatch_pool(self.groups, workers, op)?;
            fills
        };
        for (g, current) in outcomes {
            self.fill[g].current = current;
        }
        Ok(())
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
    fn absorb_insert(&mut self, words: &[u64]) -> Result<(), CamError> {
        let capacity = self.wbuf_capacity();
        if words.len() > capacity {
            self.wbuf.overflows += 1;
            self.flush_write_buffer();
            return self.apply_words_physical(words);
        }
        if self.wbuf.depth() + words.len() > capacity {
            self.wbuf.overflows += 1;
            self.flush_write_buffer();
        }
        self.wbuf.push_insert(words, self.issue_cycles);
        Ok(())
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
        let limit = mask_limit(self.config.block.cell.data_width);
        if keys.iter().any(|&k| self.wbuf.touched(k & limit)) {
            self.wbuf.search_flushes += 1;
            self.flush_write_buffer();
        }
    }

    /// Retire up to `max_ops` staged write-buffer ops into the main
    /// unit in FIFO order — the background drainer behind
    /// [`StreamingCam`](crate::pipelined::StreamingCam) idle ticks.
    /// Inserts go through the same replicated write engine as the
    /// inline path (including [`CamRuntime`] pool dispatch when the
    /// worker count allows); tombstones through the same
    /// probe/invalidate walk. No architectural unit counters move —
    /// they were charged when the ops were absorbed. Returns the number
    /// of ops retired.
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
                    // A pool failure mid-drain is transactional: the
                    // runtime discards the batch and the pool (rebuilt
                    // lazily on the next dispatch), and a panicking
                    // task unwinds before its first cell write, so
                    // every group is either fully written or untouched.
                    // Top the deficient groups back up from the staged
                    // words and keep retiring from the next staged op —
                    // a naive blanket re-apply would double-write the
                    // groups the surviving workers finished.
                    if self.apply_words_physical(&words).is_err() {
                        self.repair_partial_insert(&words);
                        self.wbuf.drain_repairs += 1;
                    }
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

    /// Converge every group on the full contents of a staged insert
    /// whose pooled dispatch failed mid-flight. Replication means any
    /// cross-group spread in the copy count of an op word is damage
    /// from this op alone, so each group's deficit against the
    /// best-covered group is exactly the set of op words it never
    /// landed. Replaying those words in op order through the serial
    /// write engine restores replication with the same cell placement
    /// (and therefore the same first-match addresses) an untroubled
    /// drain would have produced; the counter-neutral
    /// [`CamBlock::probe_count`] keeps the repair invisible to every
    /// architectural counter.
    fn repair_partial_insert(&mut self, words: &[u64]) {
        let mut distinct: Vec<u64> = Vec::new();
        for &w in words {
            if !distinct.contains(&w) {
                distinct.push(w);
            }
        }
        let counts: Vec<Vec<usize>> = self
            .fill
            .iter()
            .map(|fill| {
                distinct
                    .iter()
                    .map(|&w| {
                        fill.blocks
                            .iter()
                            .map(|&b| self.blocks[b].probe_count(w, usize::MAX))
                            .sum()
                    })
                    .collect()
            })
            .collect();
        let targets: Vec<usize> = (0..distinct.len())
            .map(|i| counts.iter().map(|c| c[i]).max().unwrap_or(0))
            .collect();
        for g in 0..self.groups {
            if self.fill[g].blocks.is_empty() {
                continue;
            }
            let mut deficit: HashMap<u64, usize> = distinct
                .iter()
                .enumerate()
                .filter(|&(i, _)| targets[i] > counts[g][i])
                .map(|(i, &w)| (w, targets[i] - counts[g][i]))
                .collect();
            if deficit.is_empty() {
                continue;
            }
            let replay: Vec<u64> = words
                .iter()
                .copied()
                .filter(|w| match deficit.get_mut(w) {
                    Some(missing) if *missing > 0 => {
                        *missing -= 1;
                        true
                    }
                    _ => false,
                })
                .collect();
            let current = self.fill[g].current;
            let mut shards = Self::group_shards(&mut self.blocks, &self.fill);
            let blocks = &mut shards[g];
            // A stale-low `current` self-heals: `write_group_words`
            // zero-takes and advances past the full blocks in front.
            self.fill[g].current = write_group_words(blocks, current, &replay);
        }
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
    ///
    /// # Errors
    ///
    /// As [`CamUnit::update`], plus [`CamError::KindMismatch`] on
    /// non-range units.
    pub fn update_ranges(&mut self, ranges: &[RangeSpec]) -> Result<(), CamError> {
        if ranges.is_empty() {
            return Ok(());
        }
        if self.config.block.cell.kind != crate::kind::CamKind::RangeMatching {
            return Err(CamError::KindMismatch);
        }
        if ranges.len() > self.free_per_group() {
            return Err(CamError::Full {
                rejected: ranges.len() - self.free_per_group(),
                group: self.limiting_group(),
            });
        }
        for g in 0..self.groups {
            if self.fill[g].blocks.is_empty() {
                continue;
            }
            let mut remaining = ranges;
            while !remaining.is_empty() {
                let fill = &mut self.fill[g];
                let block_idx = fill.blocks[fill.current];
                let free = self.blocks[block_idx].free_slots();
                let take = remaining.len().min(free);
                if take > 0 {
                    self.blocks[block_idx].update_ranges(&remaining[..take])?;
                    remaining = &remaining[take..];
                }
                if !remaining.is_empty() {
                    self.fill[g].current += 1;
                }
            }
        }
        self.entries_per_group += ranges.len();
        let beats = ranges.len().div_ceil(self.config.words_per_beat()) as u64;
        self.issue_cycles += beats;
        self.update_words += ranges.len() as u64;
        #[cfg(feature = "obs")]
        self.trace_event(Event::Update {
            words: ranges.len() as u32,
            beats: beats as u32,
        });
        self.scrub_step();
        Ok(())
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
        self.sync_for_keys(&[key]);
        let group = self.route_key(key);
        self.issue_cycles += 1;
        self.search_count += 1;
        let mut result = self.search_in_group(group, key);
        self.crosscheck_result(key, &mut result);
        self.scrub_step();
        #[cfg(feature = "obs")]
        self.trace_single(OpKind::Search, key, &result);
        result
    }

    /// Multi-query search: up to `M` keys, key *i* served by group *i*,
    /// all in the same issue cycle (Section III-C.3).
    ///
    /// # Errors
    ///
    /// [`CamError::TooManyQueries`] if more keys than groups are
    /// presented; [`CamError::WorkerPoolPoisoned`] if a pool worker dies
    /// mid-search; [`CamError::ShadowDivergence`] if a sampled
    /// cross-check catches a divergent answer under a strict
    /// [`ScrubPolicy`] (repaired either way).
    pub fn try_search_multi(&mut self, keys: &[u64]) -> Result<Vec<SearchResult>, CamError> {
        if keys.len() > self.groups {
            return Err(CamError::TooManyQueries {
                presented: keys.len(),
                capacity: self.groups,
            });
        }
        self.sync_for_keys(keys);
        self.issue_cycles += 1;
        self.search_count += keys.len() as u64;
        let workers = self.effective_workers().min(keys.len().max(1));
        let mut results: Vec<SearchResult> = if workers <= 1 {
            keys.iter()
                .enumerate()
                .map(|(g, &key)| self.search_in_group(g, key))
                .collect()
        } else {
            let op = PoolOp::SearchMulti {
                keys: Arc::new(keys.to_vec()),
                block_size: self.config.block.block_size,
                encoding: self.config.block.encoding,
            };
            let (_, mut answered) = self.dispatch_pool(keys.len(), workers, op)?;
            answered.sort_by_key(|&(g, _)| g);
            answered.into_iter().map(|(_, result)| result).collect()
        };
        let diverged = self.crosscheck_results(keys, &mut results);
        self.scrub_step();
        #[cfg(feature = "obs")]
        self.trace_multi(keys, &results, workers);
        if let (Some((group, key)), true) = (diverged, self.strict_scrub()) {
            return Err(CamError::ShadowDivergence { group, key });
        }
        Ok(results)
    }

    /// Multi-query search, panicking variant of
    /// [`CamUnit::try_search_multi`].
    ///
    /// # Panics
    ///
    /// Panics if more keys than groups are presented.
    pub fn search_multi(&mut self, keys: &[u64]) -> Vec<SearchResult> {
        self.try_search_multi(keys)
            .expect("more concurrent queries than configured groups")
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
    ///
    /// # Panics
    ///
    /// Panics if a pool worker dies mid-batch; use
    /// [`CamUnit::try_search_stream`] to handle that as a [`CamError`].
    pub fn search_stream(&mut self, keys: &[u64]) -> Vec<SearchResult> {
        self.try_search_stream(keys)
            .expect("sharded runtime pool poisoned mid-stream")
    }

    /// Streaming multi-query search, fallible variant of
    /// [`CamUnit::search_stream`] (same batching, dedup and counter
    /// semantics).
    ///
    /// # Errors
    ///
    /// [`CamError::WorkerPoolPoisoned`] if a pool worker dies mid-batch;
    /// [`CamError::ShadowDivergence`] if a sampled cross-check catches a
    /// divergent answer under a strict [`ScrubPolicy`].
    pub fn try_search_stream(&mut self, keys: &[u64]) -> Result<Vec<SearchResult>, CamError> {
        if keys.is_empty() {
            return Ok(Vec::new());
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
        let groups = self.groups;
        #[cfg(feature = "obs")]
        let issue_base = self.issue_cycles;
        self.issue_cycles += unique.len().div_ceil(groups) as u64;
        self.search_count += unique.len() as u64;
        let workers = self.effective_workers().min(groups);
        let batch = self.config.batch_width;
        let block_size = self.config.block.block_size;
        let encoding = self.config.block.encoding;
        let mut answered: Vec<(usize, SearchResult)> = if workers <= 1 {
            let mut scratch = std::mem::take(&mut self.scratch);
            let shards = Self::group_shards(&mut self.blocks, &self.fill);
            let mut answered = Vec::with_capacity(unique.len());
            for (g, mut blocks) in shards.into_iter().enumerate() {
                stream_group_batches(
                    &mut blocks,
                    &unique,
                    g,
                    groups,
                    batch,
                    block_size,
                    encoding,
                    &mut scratch,
                    &mut answered,
                );
            }
            self.scratch = scratch;
            answered
        } else {
            let op = PoolOp::SearchStream {
                unique: Arc::new(unique.clone()),
                groups,
                batch,
                block_size,
                encoding,
            };
            self.dispatch_pool(groups, workers, op)?.1
        };
        answered.sort_by_key(|&(j, _)| j);
        let mut answers: Vec<SearchResult> =
            answered.into_iter().map(|(_, result)| result).collect();
        let diverged = self.crosscheck_results(&unique, &mut answers);
        self.scrub_step();
        #[cfg(feature = "obs")]
        self.trace_stream(keys.len(), &unique, &answers, issue_base, workers);
        if let (Some((group, key)), true) = (diverged, self.strict_scrub()) {
            return Err(CamError::ShadowDivergence { group, key });
        }
        Ok(slots
            .into_iter()
            .map(|slot| answers[slot].clone())
            .collect())
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
        self.sync_for_keys(&[key]);
        self.issue_cycles += 1;
        self.search_count += 1;
        let mut result = self.search_in_group(group, key);
        let diverged = self.crosscheck_result(key, &mut result);
        self.scrub_step();
        #[cfg(feature = "obs")]
        self.trace_single(OpKind::Search, key, &result);
        if diverged && self.strict_scrub() {
            return Err(CamError::ShadowDivergence { group, key });
        }
        Ok(result)
    }

    fn search_in_group(&mut self, group: usize, key: u64) -> SearchResult {
        let mut scratch = std::mem::take(&mut self.scratch);
        let block_size = self.config.block.block_size;
        let (fill, blocks) = (&self.fill, &mut self.blocks);
        scratch
            .combined
            .reset(fill[group].blocks.len() * block_size);
        for (slot, &b) in fill[group].blocks.iter().enumerate() {
            blocks[b].search_vector_into(key, &mut scratch.block);
            scratch
                .combined
                .or_offset(&scratch.block, slot * block_size);
        }
        let result = SearchResult {
            group,
            output: self.config.block.encoding.encode(&scratch.combined),
        };
        self.scratch = scratch;
        result
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
            let key = key & mask_limit(self.config.block.cell.data_width);
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
                worker: 0,
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
        for g in 0..self.groups {
            let block_ids = self.fill[g].blocks.clone();
            for (pos, &b) in block_ids.iter().enumerate() {
                if let Some(cell) = self.blocks[b].probe_first(key) {
                    self.blocks[b].invalidate(cell);
                    let fill = &mut self.fill[g];
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
        if self.config.block.cell.kind != crate::kind::CamKind::Ternary {
            return Err(CamError::KindMismatch);
        }
        if self.free_per_group() == 0 {
            return Err(CamError::Full {
                rejected: 1,
                group: self.limiting_group(),
            });
        }
        for g in 0..self.groups {
            if self.fill[g].blocks.is_empty() {
                continue;
            }
            // Spill to the next block when the current one is full.
            loop {
                let fill = &mut self.fill[g];
                let block_idx = fill.blocks[fill.current];
                if self.blocks[block_idx].is_full() {
                    fill.current += 1;
                    debug_assert!(fill.current < fill.blocks.len());
                    continue;
                }
                self.blocks[block_idx].update_masked(value, dont_care)?;
                break;
            }
        }
        self.entries_per_group += 1;
        self.issue_cycles += 1;
        self.update_words += 1;
        #[cfg(feature = "obs")]
        self.trace_event(Event::Update { words: 1, beats: 1 });
        self.scrub_step();
        Ok(())
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
            worker: 0,
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

    /// Trace a single-key search: Issue plus Match/Miss, one lock.
    #[cfg(feature = "obs")]
    fn trace_single(&self, kind: OpKind, key: u64, result: &SearchResult) {
        let Some(obs) = &self.observer else { return };
        let cycle = self.issue_cycles;
        obs.sink.with(|o| {
            o.record(
                cycle,
                Event::Issue {
                    kind,
                    group: result.group as u32,
                    worker: 0,
                },
            );
            record_outcome(o, cycle, key, result);
        });
    }

    /// Trace a multi-query batch with worker-shard attribution.
    #[cfg(feature = "obs")]
    fn trace_multi(&self, keys: &[u64], results: &[SearchResult], workers: usize) {
        let Some(obs) = &self.observer else { return };
        let cycle = self.issue_cycles;
        obs.sink.with(|o| {
            for (g, (&key, result)) in keys.iter().zip(results).enumerate() {
                o.record(
                    cycle,
                    Event::Issue {
                        kind: OpKind::SearchMulti,
                        group: g as u32,
                        worker: worker_of(keys.len(), workers, g),
                    },
                );
                record_outcome(o, cycle, key, result);
            }
        });
    }

    /// Trace a streaming batch: StreamBatch plus one Issue + outcome per
    /// unique key, stamped with the issue slot the key was packed into
    /// (`base + j / M`). One lock for the whole batch.
    #[cfg(feature = "obs")]
    fn trace_stream(
        &self,
        presented: usize,
        unique: &[u64],
        answers: &[SearchResult],
        base: u64,
        workers: usize,
    ) {
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
                o.record(
                    cycle,
                    Event::Issue {
                        kind: OpKind::SearchStream,
                        group: result.group as u32,
                        // The sharded path chunks *groups* across workers.
                        worker: worker_of(groups, workers, result.group),
                    },
                );
                record_outcome(o, cycle, key, result);
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

    /// Reset the derived, never-serialized runtime state — the search
    /// scratch buffers, the worker-pool slot, the per-block transients
    /// and (with `obs`) the observer attachment — returning a unit
    /// equivalent to one that just came back from a snapshot/restore
    /// round trip. Architectural state (contents, shadow planes, fill
    /// pointers, counters, scrub progress) is untouched, so a restored
    /// unit answers bit-identically to the original; the serde
    /// round-trip test leans on this to guard the `#[serde(skip)]`
    /// field set.
    #[must_use]
    pub fn rehydrate(&self) -> CamUnit {
        let mut unit = self.clone();
        unit.scratch = GroupScratch::default();
        unit.runtime = RuntimeSlot::default();
        unit.pool_fault = None;
        unit.pool_stall = None;
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

/// Record a search outcome as a Match or Miss event.
#[cfg(feature = "obs")]
fn record_outcome(o: &mut ObsBatch<'_>, cycle: u64, key: u64, result: &SearchResult) {
    let group = result.group as u32;
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

/// Which worker shard of `chunked(count items, workers)` executed item
/// `g`: chunks are split off the tail, so chunk 0 holds the *last*
/// `ceil(count / workers)` items.
#[cfg(feature = "obs")]
fn worker_of(count: usize, workers: usize, g: usize) -> u32 {
    let per = count.div_ceil(workers.max(1));
    ((count - 1 - g) / per) as u32
}

/// The obs-crate mirror of a [`FidelityMode`](crate::config::FidelityMode).
#[cfg(feature = "obs")]
fn tier_of(fidelity: crate::config::FidelityMode) -> Tier {
    match fidelity {
        crate::config::FidelityMode::BitAccurate => Tier::BitAccurate,
        crate::config::FidelityMode::Turbo => Tier::Turbo,
    }
}

fn mask_limit(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Broadcast `key` to one group's blocks and combine the per-block match
/// vectors into `scratch.combined` — the slot-interleaved address math
/// (`block_within_group * block_size + cell`) done word-wide via
/// [`MatchVector::or_offset`], with zero per-key allocation. The
/// [`CamRuntime`] pool workers' multi-query path (the serial path in
/// [`CamUnit::search_in_group`] mirrors it over block indices).
pub(crate) fn search_group_into(
    blocks: &mut [&mut CamBlock],
    key: u64,
    block_size: usize,
    scratch: &mut GroupScratch,
) {
    scratch.combined.reset(blocks.len() * block_size);
    for (slot, block) in blocks.iter_mut().enumerate() {
        block.search_vector_into(key, &mut scratch.block);
        scratch
            .combined
            .or_offset(&scratch.block, slot * block_size);
    }
}

/// Broadcast a whole batch of keys to one group's blocks and combine the
/// per-block match vectors into `scratch.batch_combined[k]` for each key
/// — the W-wide sibling of [`search_group_into`], built on
/// [`CamBlock::search_batch_into`] so the `Turbo` tier walks the planes
/// once per block for the whole batch.
pub(crate) fn search_group_batch_into(
    blocks: &mut [&mut CamBlock],
    keys: &[u64],
    block_size: usize,
    scratch: &mut GroupScratch,
) {
    if scratch.batch_combined.len() < keys.len() {
        scratch
            .batch_combined
            .resize_with(keys.len(), MatchVector::default);
    }
    for combined in &mut scratch.batch_combined[..keys.len()] {
        combined.reset(blocks.len() * block_size);
    }
    for (slot, block) in blocks.iter_mut().enumerate() {
        block.search_batch_into(keys, &mut scratch.batch_block);
        for (combined, vector) in scratch
            .batch_combined
            .iter_mut()
            .zip(&scratch.batch_block[..keys.len()])
        {
            combined.or_offset(vector, slot * block_size);
        }
    }
}

/// Answer one group's share of a deduplicated key stream — the unique
/// keys `j ≡ group (mod groups)` — in key-parallel batches of up to
/// `batch` keys, pushing `(j, result)` pairs onto `out`. Shared verbatim
/// by the serial path and the [`CamRuntime`] pool workers, so both run
/// the identical kernel with their own reusable [`GroupScratch`] and
/// zero per-batch allocation.
#[allow(clippy::too_many_arguments)] // mirrors the stream op's full wire format
pub(crate) fn stream_group_batches(
    blocks: &mut [&mut CamBlock],
    unique: &[u64],
    group: usize,
    groups: usize,
    batch: usize,
    block_size: usize,
    encoding: Encoding,
    scratch: &mut GroupScratch,
    out: &mut Vec<(usize, SearchResult)>,
) {
    let batch = batch.clamp(1, crate::bitslice::MAX_BATCH_WIDTH);
    let mut j = group;
    while j < unique.len() {
        let start = j;
        let mut keys = std::mem::take(&mut scratch.batch_keys);
        keys.clear();
        while j < unique.len() && keys.len() < batch {
            keys.push(unique[j]);
            j += groups;
        }
        search_group_batch_into(blocks, &keys, block_size, scratch);
        for (k, combined) in scratch.batch_combined[..keys.len()].iter().enumerate() {
            out.push((
                start + k * groups,
                SearchResult {
                    group,
                    output: encoding.encode(combined),
                },
            ));
        }
        scratch.batch_keys = keys;
    }
}

/// Round-robin `words` into one group's blocks starting at fill position
/// `current`; returns the new position. Shared by the serial and pool
/// replicated-update paths. A (custom-routed) group with no blocks
/// stores nothing.
pub(crate) fn write_group_words(
    blocks: &mut [&mut CamBlock],
    mut current: usize,
    words: &[u64],
) -> usize {
    if blocks.is_empty() {
        return current;
    }
    let mut remaining = words;
    while !remaining.is_empty() {
        let taken = blocks[current].update_partial(remaining);
        remaining = &remaining[taken..];
        if !remaining.is_empty() {
            current += 1;
            debug_assert!(
                current < blocks.len(),
                "capacity was checked before writing"
            );
        }
    }
    current
}

/// Split `work` into at most `parts` contiguous chunks for the worker
/// threads (order within and across chunks is irrelevant to callers —
/// they reassemble by the embedded group index).
fn chunked<T>(mut work: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let per = work.len().div_ceil(parts.max(1));
    let mut chunks = Vec::new();
    while !work.is_empty() {
        let split = work.len().saturating_sub(per);
        chunks.push(work.split_off(split));
    }
    chunks
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

    fn exercised(mut cam: CamUnit) -> (Vec<SearchResult>, UnitSnapshot) {
        cam.configure_groups(4).unwrap();
        let words: Vec<u64> = (0..24).map(|i| i * 3).collect();
        cam.update(&words).unwrap();
        cam.update(&[1000, 2000]).unwrap();
        let mut results = Vec::new();
        for round in 0..8u64 {
            results.extend(cam.search_multi(&[round * 3, 1000, 7, 2000]));
        }
        (results, cam.snapshot())
    }

    #[test]
    fn worker_sharding_leaves_results_and_counters_unchanged() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(32)
            .num_blocks(8)
            .build()
            .unwrap();
        let serial = exercised(CamUnit::new(config).unwrap());
        for workers in [2, 4, 0] {
            let config = UnitConfig::builder()
                .data_width(32)
                .block_size(32)
                .num_blocks(8)
                .workers(workers)
                .build()
                .unwrap();
            let sharded = exercised(CamUnit::new(config).unwrap());
            assert_eq!(serial.0, sharded.0, "workers={workers}: results differ");
            assert_eq!(serial.1, sharded.1, "workers={workers}: counters differ");
        }
    }

    #[test]
    fn worker_sharding_with_custom_routing() {
        // Unequal groups (group 0 = {0}, group 1 = {1,2,3}) exercise the
        // shard builder's fill-order bookkeeping.
        let mut serial = unit(4, 32);
        let mut sharded = unit(4, 32);
        sharded.set_workers(4);
        for cam in [&mut serial, &mut sharded] {
            cam.configure_groups(2).unwrap();
            cam.write_routing_entry(1, 1).unwrap();
            let words: Vec<u64> = (0..24).collect();
            cam.update(&words).unwrap();
        }
        for key in 0..45u64 {
            assert_eq!(
                serial.try_search_multi(&[key, key + 1]).unwrap(),
                sharded.try_search_multi(&[key, key + 1]).unwrap(),
                "key {key}"
            );
        }
        assert_eq!(serial.snapshot(), sharded.snapshot());
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
    fn search_stream_worker_sharding_is_equivalent() {
        let build = |workers: usize| {
            let config = UnitConfig::builder()
                .data_width(32)
                .block_size(32)
                .num_blocks(8)
                .workers(workers)
                .build()
                .unwrap();
            let mut cam = CamUnit::new(config).unwrap();
            cam.configure_groups(4).unwrap();
            let words: Vec<u64> = (0..24).map(|i| i * 3).collect();
            cam.update(&words).unwrap();
            let keys: Vec<u64> = (0..40).map(|i| i % 13 * 3).collect();
            let hits = cam.search_stream(&keys);
            (hits, cam.snapshot())
        };
        let serial = build(1);
        for workers in [2, 4, 0] {
            let sharded = build(workers);
            assert_eq!(serial.0, sharded.0, "workers={workers}: results differ");
            assert_eq!(serial.1, sharded.1, "workers={workers}: counters differ");
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
    fn poisoned_pool_surfaces_cam_error_and_recovers() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(8)
            .num_blocks(4)
            .workers(2)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(2).unwrap();
        // Corrupt one group's Block Address Controller so the worker's
        // round-robin write indexes past the group's block list and
        // panics inside the pool.
        cam.fill[0].current = 9;
        let err = cam.update(&[1, 2]).unwrap_err();
        assert!(
            matches!(err, CamError::WorkerPoolPoisoned { .. }),
            "got {err:?}"
        );
        // The unit survives: a reset restores a clean state and the next
        // dispatch spins up a fresh pool.
        cam.reset();
        cam.update(&[7, 8]).unwrap();
        let hits = cam.search_multi(&[7, 8]);
        assert!(hits[0].is_match() && hits[1].is_match());
        assert_eq!(cam.len(), 2);
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

    #[cfg(feature = "obs")]
    #[test]
    fn pool_dispatch_publishes_worker_metrics() {
        use dsp_cam_obs::ObsSink;

        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(16)
            .num_blocks(4)
            .workers(2)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        let sink = Arc::new(ObsSink::new());
        cam.attach_observer(&sink);
        cam.configure_groups(2).unwrap();
        cam.update(&[1, 2, 3]).unwrap();
        cam.search_multi(&[1, 2]);
        cam.publish_metrics();
        let snap = sink.snapshot();
        // Dispatch/retire latency histograms from the two pool dispatches.
        let retire = snap
            .registry
            .histogram("unit/pool", "batch_retire_ns")
            .expect("batch retire histogram");
        assert_eq!(retire.count(), 2, "one sample per dispatched batch");
        let waits: u64 = (0..2)
            .filter_map(|w| {
                snap.registry
                    .histogram(&format!("unit/pool/worker{w}"), "dispatch_wait_ns")
            })
            .map(dsp_cam_obs::Histogram::count)
            .sum();
        assert_eq!(waits, 4, "two workers waited on each of two batches");
        // Per-worker queue gauges/counters: both lanes executed both
        // batches and their queues drained.
        for w in 0..2 {
            let scope = format!("unit/pool/worker{w}");
            assert_eq!(snap.registry.counter(&scope, "jobs"), 2, "worker {w}");
            assert_eq!(
                snap.registry.gauge(&scope, "queue_depth"),
                Some(0),
                "worker {w}"
            );
        }
    }

    #[test]
    fn delete_then_update_round_trips_at_full_capacity() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(4)
            .num_blocks(4)
            .workers(4)
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

    /// A stalled pool worker trips the dispatch deadline: the dispatch
    /// surfaces [`CamError::DispatchTimeout`], the pool is torn down, and
    /// the next dispatch rebuilds it.
    #[test]
    fn dispatch_deadline_times_out_stalled_worker() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(8)
            .num_blocks(4)
            .workers(2)
            .dispatch_deadline_ms(25)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(2).unwrap();
        cam.update(&[1, 2]).unwrap();
        let err = cam
            .dispatch_test_op(PoolOp::StallMs(250))
            .expect_err("the stall outlives the 25 ms deadline");
        assert_eq!(
            err,
            CamError::DispatchTimeout {
                worker: 0,
                waited_ms: 25
            }
        );
        // Stalled workers' blocks were abandoned and re-materialised
        // empty; a reset plus fresh writes bring the unit (and a brand
        // new pool) back.
        cam.reset();
        cam.update(&[7, 8]).unwrap();
        let hits = cam.search_multi(&[7, 8]);
        assert!(hits[0].is_match() && hits[1].is_match());
    }

    /// A one-shot worker failure on an idempotent dispatch is absorbed:
    /// the pool is rebuilt and the batch replayed exactly once.
    #[test]
    fn poisoned_search_dispatch_retries_once_with_rebuilt_pool() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(8)
            .num_blocks(4)
            .workers(2)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(2).unwrap();
        cam.update(&[1, 2, 3]).unwrap();
        let fuse = Arc::new(AtomicBool::new(true));
        cam.dispatch_test_op(PoolOp::FailOnce(Arc::clone(&fuse)))
            .expect("one worker failure is absorbed by the replay");
        assert!(!fuse.load(Ordering::Relaxed), "the fuse fired exactly once");
        // No state was lost: the panic was caught, every block came home
        // and the replay ran on a rebuilt pool.
        let hits = cam.search_multi(&[1, 3]);
        assert!(hits[0].is_match() && hits[1].is_match());
        assert_eq!(cam.len(), 3);
        // The retry budget is per dispatch, not per unit: a freshly armed
        // fuse on a later dispatch is absorbed again.
        let again = Arc::new(AtomicBool::new(true));
        cam.dispatch_test_op(PoolOp::FailOnce(Arc::clone(&again)))
            .expect("each dispatch carries its own single replay");
        assert!(!again.load(Ordering::Relaxed));
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
            .workers(2)
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
