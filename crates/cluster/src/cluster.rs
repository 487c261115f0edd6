//! The elastic sharding cluster: N [`StreamingCam`] shards behind a
//! consistent-hash [`HashRing`], with live slot migration riding the
//! snapshot ([`CamUnit::rehydrate`]) path.
//!
//! # Migration protocol
//!
//! [`CamCluster::begin_migration`] freezes the migrating slot in four
//! steps, none of which drops or reorders a query:
//!
//! 1. **quiesce** the source shard (drain its pipeline and write
//!    buffer, counted as migration stall cycles);
//! 2. **freeze** a read-only replica of the source unit via
//!    `rehydrate()` — the migrating slot serves its searches from this
//!    replica for the whole window;
//! 3. **stage** the slot's stored words into the destination shard's
//!    write buffer, which drains in the background on the destination's
//!    idle ticks;
//! 4. **redirect** in-window writes for the slot to the destination,
//!    tracking the touched keys in a dirty set so their searches are
//!    read-your-writes (the destination's own write buffer gives the
//!    per-key flush).
//!
//! Cutover fires from [`CamCluster::tick`] once the destination buffer
//! is drained: the moved words are deleted from the source, the ring
//! slot flips to the destination, and the frozen replica is dropped.
//! Because every key has exactly one serving home at any instant and
//! each shard applies its ops in issue order, per-key operation order is
//! preserved across the entire window — the observational-equivalence
//! property `tests/migration_equivalence.rs` proves against a
//! no-migration reference.

use std::collections::HashSet;
use std::fmt;

use dsp_cam_core::config::UnitConfig;
use dsp_cam_core::error::{CamError, ConfigError};
use dsp_cam_core::journal::JournalOp;
use dsp_cam_core::pipelined::{Completion, Op, StreamingCam};
use dsp_cam_core::unit::{CamUnit, SearchResult};
use dsp_cam_sim::Clocked;
use dsp_cam_workload::TraceOp;

use crate::failover::{
    FailoverState, FailoverStats, ReplicationConfig, ShardFault, ShardHealth, ShedPolicy,
};
use crate::ingest::transact;
use crate::ring::HashRing;

/// Cluster-level operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// Only one live migration may be in flight at a time.
    MigrationInProgress,
    /// The requested slot does not exist on the ring.
    SlotOutOfRange {
        /// Requested slot.
        slot: usize,
        /// Ring size.
        slots: usize,
    },
    /// The requested shard does not exist.
    ShardOutOfRange {
        /// Requested shard.
        shard: usize,
        /// Cluster size.
        shards: usize,
    },
    /// The slot already lives on the requested destination.
    AlreadyHome {
        /// Requested slot.
        slot: usize,
        /// Its current (and requested) home.
        shard: usize,
    },
    /// The destination could not admit the migrating slot's contents.
    Admission(CamError),
    /// The shard is failed and its write retry budget is exhausted —
    /// the operation was shed by admission control.
    Overloaded {
        /// The overloaded shard.
        shard: usize,
    },
    /// The shard is failed (stalled or rebuilding) and cannot take part
    /// in a migration right now.
    ShardUnavailable {
        /// The unavailable shard.
        shard: usize,
    },
    /// The operation needs [`CamCluster::enable_failover`] first.
    FailoverDisabled,
    /// No migration window is open to abort.
    NoMigration,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::MigrationInProgress => {
                write!(f, "a migration is already in flight")
            }
            ClusterError::SlotOutOfRange { slot, slots } => {
                write!(f, "slot {slot} out of range (ring has {slots})")
            }
            ClusterError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} out of range (cluster has {shards})")
            }
            ClusterError::AlreadyHome { slot, shard } => {
                write!(f, "slot {slot} already lives on shard {shard}")
            }
            ClusterError::Admission(err) => {
                write!(f, "destination rejected the migrating slot: {err}")
            }
            ClusterError::Overloaded { shard } => {
                write!(f, "shard {shard} is failed and its retry budget is spent")
            }
            ClusterError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is failed and cannot join a migration")
            }
            ClusterError::FailoverDisabled => {
                write!(f, "enable_failover() has not been called on this cluster")
            }
            ClusterError::NoMigration => {
                write!(f, "no migration window is open")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Cluster-level tallies — the counters the equivalence suite compares
/// at quiescence (shard-local counters legitimately differ between a
/// migrated and an unmigrated cluster; these do not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Point searches routed.
    pub searches: u64,
    /// Keys presented across streamed searches.
    pub stream_keys: u64,
    /// Updates routed.
    pub updates: u64,
    /// Deletes routed (mix deletes and evictions alike).
    pub deletes: u64,
    /// Matching search completions (point and streamed, frozen included).
    pub search_hits: u64,
    /// Deletes that invalidated an entry.
    pub delete_hits: u64,
    /// Updates rejected at admission.
    pub update_rejections: u64,
    /// Searches answered by a frozen migration replica.
    pub frozen_reads: u64,
    /// Migrations driven to cutover.
    pub migrations_completed: u64,
}

/// An in-flight slot migration (at most one at a time).
#[derive(Debug)]
struct Migration {
    slot: usize,
    source: usize,
    dest: usize,
    /// Read-only replica serving the slot's searches for the window.
    frozen: CamUnit,
    /// Keys the window wrote through to the destination; their searches
    /// bypass the frozen replica for read-your-writes.
    dirty: HashSet<u64>,
    /// The slot's words staged into the destination at freeze — deleted
    /// from the source at cutover.
    moved: Vec<u64>,
    /// Copy-engine progress: words the background copy has pushed so
    /// far, advancing one per cluster tick. The words are staged into
    /// the destination's write buffer at freeze (atomic admission), but
    /// cutover additionally waits for this bandwidth-bound cursor — a
    /// read-your-writes flush may apply them physically early, yet the
    /// engine still occupies the window for `moved.len()` cycles.
    copied: usize,
    stall_cycles: u64,
    /// Destination journal mark taken *after* the staged words were
    /// journalled: entries at or past it are the in-window redirected
    /// writes — exactly what a rollback must re-apply to the source.
    dest_journal_mark: u64,
}

/// The routing decision for one trace record: shard sub-issues, the
/// original key positions each answers, and any frozen-replica and
/// degraded answers, position-stamped. [`CamCluster::plan`] overwrites
/// it, so one plan serves every record and its lists keep their storage.
#[derive(Debug)]
pub(crate) struct RecordPlan {
    /// `(shard, op)`, at most one per shard.
    pub(crate) subs: Vec<(usize, Op)>,
    /// Per shard: the keys of a streamed record bound for it, and the
    /// original positions of the keys its sub-issue answers (none for
    /// write-path ops, which carry one implicit position).
    routes: Vec<(Vec<u64>, Vec<usize>)>,
    /// `(original position, result)` answered synchronously from the
    /// frozen replica.
    pub(crate) frozen: Vec<(usize, SearchResult)>,
    /// `(original position, result)` answered synchronously from a
    /// replica epoch because the home shard is failed — stale but never
    /// silent (degraded reads).
    pub(crate) degraded: Vec<(usize, SearchResult)>,
}

impl RecordPlan {
    /// An empty plan for a cluster of `shards` shards.
    pub(crate) fn new(shards: usize) -> Self {
        RecordPlan {
            subs: Vec::new(),
            routes: vec![(Vec::new(), Vec::new()); shards],
            frozen: Vec::new(),
            degraded: Vec::new(),
        }
    }

    /// The original key positions shard `shard`'s sub-issue answers.
    pub(crate) fn positions(&self, shard: usize) -> &[usize] {
        &self.routes[shard].1
    }
}

/// N CAM shards behind a consistent-hash ring, with live migration.
///
/// One issue engine, the crate's dispatcher (see the `ingest` module),
/// drives the shards: it routes each record, gives every shard at most
/// one issue per cycle, defers writes aimed at a failed shard under the
/// [`ShedPolicy`], and harvests completions in retire order. Two front
/// ends feed it, and may take turns on one cluster:
///
/// * the **transactional** API ([`CamCluster::search`] /
///   [`CamCluster::update`] / [`CamCluster::delete`] /
///   [`CamCluster::search_stream`]) dispatches one record and ticks the
///   whole cluster in lockstep until it has retired (or, for a write,
///   been shed) — what the equivalence suite drives;
/// * the **ingest** loop ([`crate::ingest::replay_cluster`]) feeds it
///   records from a bounded arrival queue, cycle by cycle.
#[derive(Debug)]
pub struct CamCluster {
    shards: Vec<StreamingCam>,
    ring: HashRing,
    migration: Option<Migration>,
    counters: ClusterCounters,
    /// Stall cycles of each completed migration, in completion order.
    stall_log: Vec<u64>,
    key_mask: u64,
    /// How long writes wait for a failed shard before they are shed.
    shed_policy: ShedPolicy,
    /// Replica epochs and shard health — `None` until
    /// [`CamCluster::enable_failover`].
    failover: Option<FailoverState>,
}

impl CamCluster {
    /// Build `shards` identically-configured shards behind a ring of
    /// `slots` virtual slots.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ClusterShape`] when `shards` or `slots` is zero;
    /// otherwise propagates the unit-level [`ConfigError`]s.
    pub fn new(config: UnitConfig, shards: usize, slots: usize) -> Result<Self, ConfigError> {
        if shards == 0 || slots == 0 {
            return Err(ConfigError::ClusterShape { shards, slots });
        }
        let shards = (0..shards)
            .map(|_| CamUnit::new(config).map(StreamingCam::from_unit))
            .collect::<Result<Vec<_>, _>>()?;
        let ring = HashRing::new(slots, shards.len());
        Ok(CamCluster {
            // `data_width` is validated at 1..=48 by `CamUnit::new`
            // above, so the shift cannot overflow.
            key_mask: (1u64 << config.block.cell.data_width) - 1,
            shards,
            ring,
            migration: None,
            counters: ClusterCounters::default(),
            stall_log: Vec::new(),
            shed_policy: ShedPolicy::default(),
            failover: None,
        })
    }

    /// Turn on fault tolerance: every shard gets an acknowledged-write
    /// journal and a replica epoch, searches transparently fail over to
    /// the epoch while a shard is down, and crashed shards rebuild as
    /// `epoch + journal` with zero lost acknowledged writes. Call at
    /// quiescence (typically right after construction or prefill),
    /// before driving load.
    ///
    /// # Panics
    ///
    /// Panics when `replication.journal_capacity` is zero.
    pub fn enable_failover(&mut self, replication: ReplicationConfig) {
        assert!(
            replication.journal_capacity >= 1,
            "failover needs a non-zero journal watermark"
        );
        let epochs = self
            .shards
            .iter_mut()
            .map(|cam| {
                cam.enable_write_journal(replication.journal_capacity);
                cam.unit().rehydrate()
            })
            .collect();
        self.failover = Some(FailoverState::new(replication, epochs));
    }

    /// Replace the overload admission-control policy: how long writes
    /// wait for a failed shard before they are shed.
    pub fn set_shed_policy(&mut self, policy: ShedPolicy) {
        self.shed_policy = policy;
    }

    /// The active shed policy.
    #[must_use]
    pub fn shed_policy(&self) -> ShedPolicy {
        self.shed_policy
    }

    /// Whether [`CamCluster::enable_failover`] has been called.
    #[must_use]
    pub fn failover_enabled(&self) -> bool {
        self.failover.is_some()
    }

    /// Failure and recovery tallies, if failover is enabled.
    #[must_use]
    pub fn failover_stats(&self) -> Option<&FailoverStats> {
        self.failover.as_ref().map(|fo| &fo.stats)
    }

    /// Whether shard `i` is serving normally (always true when failover
    /// is disabled — there is nothing to detect failures with).
    #[must_use]
    pub fn shard_healthy(&self, i: usize) -> bool {
        self.failover
            .as_ref()
            .is_none_or(|fo| matches!(fo.health[i], ShardHealth::Healthy))
    }

    /// Whether any shard is currently failed.
    #[must_use]
    pub fn any_unhealthy(&self) -> bool {
        self.failover
            .as_ref()
            .is_some_and(|fo| fo.health.iter().any(|h| !matches!(h, ShardHealth::Healthy)))
    }

    /// Repartition every shard into `m` replicated groups (flushes each
    /// shard's write buffer first, exactly like the unit-level call).
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError::GroupCount`] when `m` does not divide
    /// the per-shard block count.
    pub fn configure_groups(&mut self, m: usize) -> Result<(), ConfigError> {
        for cam in &mut self.shards {
            cam.unit_mut().configure_groups(m)?;
        }
        Ok(())
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The routing ring (slot assignments included).
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Cluster-level tallies.
    #[must_use]
    pub fn counters(&self) -> &ClusterCounters {
        &self.counters
    }

    /// Stall cycles of each completed migration, in completion order —
    /// the migration-stall histogram's raw samples.
    #[must_use]
    pub fn migration_stalls(&self) -> &[u64] {
        &self.stall_log
    }

    /// The cluster's lockstep cycle count: every shard's clock, since
    /// all of them tick together and a rebuild swaps a shard's unit, not
    /// its pipeline.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.shards[0].cycle()
    }

    /// Whether a migration window is open.
    #[must_use]
    pub fn migration_in_progress(&self) -> bool {
        self.migration.is_some()
    }

    /// Borrow shard `i`'s streaming pipeline mutably: the issue engine's
    /// port. Operations issued or completions drained through it bypass
    /// the engine, which expects each shard's issue slot free at every
    /// cycle, so it never leaves the crate.
    pub(crate) fn shard_mut(&mut self, i: usize) -> &mut StreamingCam {
        &mut self.shards[i]
    }

    /// Borrow shard `i` immutably. Only the cluster's issue engine issues
    /// to a shard, so no public call hands out its issue port:
    ///
    /// ```compile_fail,E0624
    /// # use dsp_cam_cluster::CamCluster;
    /// # use dsp_cam_core::pipelined::Op;
    /// fn stage(cluster: &mut CamCluster) {
    ///     let _ = cluster.shard_mut(0).issue(Op::Search(6));
    /// }
    /// ```
    #[must_use]
    pub fn shard(&self, i: usize) -> &StreamingCam {
        &self.shards[i]
    }

    /// Swap shard `i`'s unit for `unit` — a snapshot restore, e.g. of
    /// `shard(i).unit().rehydrate()` — returning the old one. The shard's
    /// clock and retire queues are untouched.
    ///
    /// # Panics
    ///
    /// Panics if shard `i` does not exist or has operations in flight
    /// (see [`StreamingCam::replace_unit`]).
    pub fn replace_shard_unit(&mut self, i: usize, unit: CamUnit) -> CamUnit {
        self.shards[i].replace_unit(unit)
    }

    /// Advance every shard one cycle in lockstep (idle shards drain
    /// their write buffers and scrub, exactly like single-unit
    /// streaming), then fire migration cutover if the destination has
    /// caught up.
    pub fn tick(&mut self) {
        for cam in &mut self.shards {
            cam.tick();
        }
        if let Some(m) = &mut self.migration {
            if m.copied < m.moved.len() {
                m.copied += 1;
            }
        }
        self.step_failover();
        self.try_cutover();
    }

    /// Advance failover state one cycle: expire stalls, reinstall
    /// finished rebuilds, and refresh replica epochs at clean ticks
    /// (cadence hits, post-rebuild, or journal over its watermark).
    fn step_failover(&mut self) {
        let now = self.cycle();
        let Some(fo) = &mut self.failover else { return };
        let interval = fo.replication.refresh_interval;
        if interval > 0 && now.is_multiple_of(interval) {
            for flag in &mut fo.due_refresh {
                *flag = true;
            }
        }
        for (shard, health) in fo.health.iter_mut().enumerate() {
            *health = match std::mem::replace(health, ShardHealth::Healthy) {
                ShardHealth::Stalled { since, until } if now >= until => {
                    fo.stats.recovery_ticks.push(now - since);
                    ShardHealth::Healthy
                }
                ShardHealth::Rebuilding {
                    since,
                    ready_at,
                    unit,
                } if now >= ready_at => {
                    // Nothing is in flight: the crash purged the pipeline
                    // and the closed issue port kept it empty.
                    let _dead = self.shards[shard].replace_unit(*unit);
                    fo.stats.rebuilds_completed += 1;
                    fo.stats.recovery_ticks.push(now - since);
                    // Epoch the rebuilt contents right away so the next
                    // failure does not replay this outage's journal.
                    fo.due_refresh[shard] = true;
                    ShardHealth::Healthy
                }
                other => other,
            };
        }
        for (shard, cam) in self.shards.iter_mut().enumerate() {
            // A clean journal mark: no write is in flight on the shard,
            // so the journal holds every one it has applied.
            let (clean, over) = cam.write_journal().map_or((false, false), |journal| {
                (cam.writes_in_flight() == 0, journal.over_watermark())
            });
            if matches!(fo.health[shard], ShardHealth::Healthy)
                && clean
                && (fo.due_refresh[shard] || over)
            {
                fo.epochs[shard] = cam.unit().rehydrate();
                if let Some(journal) = cam.write_journal_mut() {
                    journal.truncate();
                }
                fo.due_refresh[shard] = false;
            }
        }
    }

    /// Tick until every pipeline is empty, every write buffer drained,
    /// every shard healthy again, and any open migration window has
    /// reached cutover — cluster quiescence.
    pub fn quiesce(&mut self) {
        while !self.settled() {
            self.tick();
        }
    }

    /// Whether the cluster is quiescent — the condition
    /// [`CamCluster::quiesce`] ticks for and the ingest loop drains to.
    pub(crate) fn settled(&self) -> bool {
        self.migration.is_none()
            && !self.any_unhealthy()
            && self
                .shards
                .iter()
                .all(|cam| !cam.in_flight() && cam.buffer_depth() == 0)
    }

    /// Store `words` across the cluster through the transaction-level
    /// unit path (each word to its home shard), flushed physical — the
    /// prefill hook, identical on a reference cluster.
    ///
    /// # Errors
    ///
    /// Propagates the first admission error.
    pub fn prefill(&mut self, words: &[u64]) -> Result<(), CamError> {
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); self.shards.len()];
        for &w in words {
            per_shard[self.ring.shard_of(w & self.key_mask)].push(w);
        }
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.shards[shard].unit_mut().update(&batch)?;
            self.shards[shard].unit_mut().flush_write_buffer();
            // Keep `epoch + journal` covering the prefill when failover
            // was enabled before it.
            self.shards[shard].journal_direct(JournalOp::Update(batch));
        }
        Ok(())
    }

    /// The shard currently *serving writes* for masked key `k`: the
    /// ring owner, except that an open migration window redirects its
    /// slot to the destination.
    fn home_of(&self, k: u64) -> usize {
        let slot = self.ring.slot_of(k);
        match &self.migration {
            Some(m) if m.slot == slot => m.dest,
            _ => self.ring.assignment(slot),
        }
    }

    /// Whether a search for masked key `k` is served by the frozen
    /// replica (migrating slot, not dirtied by an in-window write).
    fn frozen_serves(&self, k: u64) -> bool {
        match &self.migration {
            Some(m) => self.ring.slot_of(k) == m.slot && !m.dirty.contains(&k),
            None => false,
        }
    }

    /// Route one trace record into `plan`, replacing what it held:
    /// answer frozen-replica reads now, plan shard sub-issues for
    /// everything else, and charge the routing tallies. Write-path ops
    /// on a migrating slot are redirected to the destination and their
    /// keys marked dirty (over-marking is safe: the destination's staged
    /// replica answers un-written slot keys identically to the frozen
    /// one).
    pub(crate) fn plan(&mut self, op: &TraceOp, plan: &mut RecordPlan) {
        plan.subs.clear();
        plan.frozen.clear();
        plan.degraded.clear();
        for (keys, positions) in &mut plan.routes {
            keys.clear();
            positions.clear();
        }
        match op {
            TraceOp::Search(key) => {
                self.counters.searches += 1;
                let k = key & self.key_mask;
                if self.frozen_serves(k) {
                    let result = self.frozen_search(*key);
                    plan.frozen.push((0, result));
                } else {
                    let shard = self.home_of(k);
                    if self.shard_healthy(shard) {
                        plan.subs.push((shard, Op::Search(*key)));
                        plan.routes[shard].1.push(0);
                    } else {
                        let result = self.degraded_search(shard, *key);
                        plan.degraded.push((0, result));
                    }
                }
            }
            TraceOp::SearchStream(keys) => {
                self.counters.stream_keys += keys.len() as u64;
                for (pos, &key) in keys.iter().enumerate() {
                    let k = key & self.key_mask;
                    if self.frozen_serves(k) {
                        let result = self.frozen_search(key);
                        plan.frozen.push((pos, result));
                    } else {
                        let shard = self.home_of(k);
                        if self.shard_healthy(shard) {
                            plan.routes[shard].0.push(key);
                            plan.routes[shard].1.push(pos);
                        } else {
                            let result = self.degraded_search(shard, key);
                            plan.degraded.push((pos, result));
                        }
                    }
                }
                for (shard, (batch, _)) in plan.routes.iter().enumerate() {
                    if !batch.is_empty() {
                        plan.subs.push((shard, Op::SearchStream(batch.clone())));
                    }
                }
            }
            TraceOp::Update(word) => {
                self.counters.updates += 1;
                let k = word & self.key_mask;
                let shard = self.home_of(k);
                self.mark_dirty(k);
                plan.subs.push((shard, Op::Update(vec![*word])));
            }
            TraceOp::Delete { key, .. } => {
                self.counters.deletes += 1;
                let k = key & self.key_mask;
                let shard = self.home_of(k);
                self.mark_dirty(k);
                plan.subs.push((shard, Op::Delete(*key)));
            }
        }
    }

    /// Answer a search from the frozen replica, charging the hit
    /// tallies (the replica's own counters are discarded at cutover).
    fn frozen_search(&mut self, key: u64) -> SearchResult {
        debug_assert!(
            self.migration.is_some(),
            "frozen_serves sends a read to the frozen replica only while a window is open"
        );
        let Some(m) = &mut self.migration else {
            return self.home_search(key);
        };
        self.counters.frozen_reads += 1;
        let result = m.frozen.search(key);
        self.counters.search_hits += u64::from(result.is_match());
        result
    }

    /// Answer a search from the failed home shard's replica epoch —
    /// stale but never silent. Charges the hit tallies like any other
    /// answered search.
    pub(crate) fn degraded_search(&mut self, shard: usize, key: u64) -> SearchResult {
        debug_assert!(
            self.failover.is_some(),
            "a shard is unhealthy only on a failover cluster"
        );
        let Some(fo) = &mut self.failover else {
            return self.home_search(key);
        };
        fo.stats.degraded_reads += 1;
        let result = fo.epochs[shard].search(key);
        self.counters.search_hits += u64::from(result.is_match());
        result
    }

    /// Answer `key` from its home shard's live unit, charging the hit
    /// tally like any other answered search: what a read path serves,
    /// behind a `debug_assert!`, should its invariant ever fail, rather
    /// than panic.
    fn home_search(&mut self, key: u64) -> SearchResult {
        let home = self.home_of(key & self.key_mask);
        let result = self.shards[home].unit_mut().search(key);
        self.counters.search_hits += u64::from(result.is_match());
        result
    }

    fn mark_dirty(&mut self, k: u64) {
        if let Some(m) = &mut self.migration {
            if self.ring.slot_of(k) == m.slot {
                m.dirty.insert(k);
            }
        }
    }

    /// Charge retire-side tallies for one harvested completion.
    pub(crate) fn tally(&mut self, done: &Completion) {
        match done {
            Completion::Search(result) => {
                self.counters.search_hits += u64::from(result.is_match());
            }
            Completion::SearchMulti(Ok(results)) | Completion::SearchStream(results) => {
                self.counters.search_hits += results.iter().filter(|r| r.is_match()).count() as u64;
            }
            Completion::SearchMulti(Err(_)) => {}
            Completion::Update(result) => {
                self.counters.update_rejections += u64::from(result.is_err());
            }
            Completion::Delete(hit) => {
                self.counters.delete_hits += u64::from(*hit);
            }
        }
    }

    /// Re-resolve the serving shard of a single-key sub-operation
    /// against the *current* topology — queued sub-issues survive a
    /// migration rollback by re-routing at issue time. `None` for
    /// multi-key ops (their plan-time split stays valid: windows only
    /// open against an empty sub-queue).
    pub(crate) fn resolve_shard(&self, op: &Op) -> Option<usize> {
        let key = match op {
            Op::Update(words) if words.len() == 1 => words[0],
            Op::Delete(key) | Op::Search(key) => *key,
            _ => return None,
        };
        Some(self.home_of(key & self.key_mask))
    }

    /// Point search for `key`, routed (and migration- and
    /// failure-aware) — transactional: retires before returning.
    /// Searches on a failed shard are answered from its replica epoch
    /// (degraded, possibly stale, never silent).
    pub fn search(&mut self, key: u64) -> SearchResult {
        let mut answers = self.read(&TraceOp::Search(key));
        debug_assert_eq!(answers.len(), 1, "a point search has one answer");
        match answers.pop() {
            Some(result) => result,
            // `read` answers every presented key; should it ever not,
            // serve the key from its home unit rather than panic.
            None => self.home_search(key),
        }
    }

    /// Streamed search fan-out: keys split per serving shard (plus the
    /// frozen replica), every shard's sub-batch issued in the same
    /// cycle, results reassembled in presented-key order —
    /// transactional.
    pub fn search_stream(&mut self, keys: &[u64]) -> Vec<SearchResult> {
        self.read(&TraceOp::SearchStream(keys.to_vec()))
    }

    /// Run one read record to retirement and return its answers in
    /// presented-key order.
    fn read(&mut self, op: &TraceOp) -> Vec<SearchResult> {
        let (mut answers, _) = transact(self, op);
        answers.sort_unstable_by_key(|&(pos, _)| pos);
        answers.into_iter().map(|(_, result)| result).collect()
    }

    /// Store one word on its home shard — transactional. A write aimed
    /// at a failed shard waits (ticking the cluster) for it to recover,
    /// retried under the shed policy's backoff and bounds exactly as in
    /// the ingest loop.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Admission`] wrapping the shard's admission
    /// verdict ([`CamError::Full`], [`CamError::ValueTooWide`]), or
    /// [`ClusterError::Overloaded`] when the shed policy's bounds ran
    /// out before the home shard recovered.
    pub fn update(&mut self, word: u64) -> Result<(), ClusterError> {
        self.write(word, &TraceOp::Update(word)).map(drop)
    }

    /// Delete the first stored match of `key` on its serving shard —
    /// transactional. Returns whether the delete hit. Waits out a
    /// failed home shard exactly like [`CamCluster::update`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::Overloaded`] when the shed policy's bounds ran
    /// out before the home shard recovered.
    pub fn delete(&mut self, key: u64) -> Result<bool, ClusterError> {
        self.write(
            key,
            &TraceOp::Delete {
                key,
                eviction: false,
            },
        )
    }

    /// Run one write record on `key`'s home shard to retirement: whether
    /// it changed the stored contents (an admitted update, a delete that
    /// hit), or why it could not.
    fn write(&mut self, key: u64, op: &TraceOp) -> Result<bool, ClusterError> {
        let (_, writes) = transact(self, op);
        match writes.into_iter().next() {
            Some(Completion::Update(result)) => {
                result.map(|()| true).map_err(ClusterError::Admission)
            }
            Some(Completion::Delete(hit)) => Ok(hit),
            // A write retires nothing only when the dispatcher shed it.
            _ => Err(ClusterError::Overloaded {
                shard: self.home_of(key & self.key_mask),
            }),
        }
    }

    /// Open a live migration window moving `slot` to shard `dest`.
    ///
    /// Quiesces the source shard (stall cycles counted), freezes a
    /// read-only replica over the `rehydrate()` snapshot path, and
    /// stages the slot's stored words into the destination's write
    /// buffer (draining on its idle ticks). Queries keep flowing the
    /// whole time; cutover fires from [`CamCluster::tick`] once the
    /// destination catches up.
    ///
    /// # Errors
    ///
    /// [`ClusterError::MigrationInProgress`] when a window is open,
    /// range errors for bad `slot`/`dest`, [`ClusterError::AlreadyHome`]
    /// when the slot already lives on `dest`,
    /// [`ClusterError::ShardUnavailable`] when either participant is
    /// failed, and [`ClusterError::Admission`] when the destination
    /// cannot hold the slot (the cluster is left exactly as it was).
    pub fn begin_migration(&mut self, slot: usize, dest: usize) -> Result<(), ClusterError> {
        if self.migration.is_some() {
            return Err(ClusterError::MigrationInProgress);
        }
        if slot >= self.ring.num_slots() {
            return Err(ClusterError::SlotOutOfRange {
                slot,
                slots: self.ring.num_slots(),
            });
        }
        if dest >= self.shards.len() {
            return Err(ClusterError::ShardOutOfRange {
                shard: dest,
                shards: self.shards.len(),
            });
        }
        let source = self.ring.assignment(slot);
        if source == dest {
            return Err(ClusterError::AlreadyHome { slot, shard: dest });
        }
        if !self.shard_healthy(source) {
            return Err(ClusterError::ShardUnavailable { shard: source });
        }
        if !self.shard_healthy(dest) {
            return Err(ClusterError::ShardUnavailable { shard: dest });
        }
        // Quiesce the source so the frozen replica is a true snapshot
        // (full cluster ticks: failover bookkeeping keeps advancing).
        let mut stall_cycles = 0u64;
        while self.shards[source].in_flight() || self.shards[source].buffer_depth() > 0 {
            self.tick();
            stall_cycles += 1;
        }
        let frozen = self.shards[source].unit().rehydrate();
        let moved: Vec<u64> = frozen
            .stored_words()
            .into_iter()
            .filter(|&w| self.ring.slot_of(w & self.key_mask) == slot)
            .collect();
        // Stage the replica into the destination's write buffer one
        // word per staged op — the background copy trickles out on the
        // destination's idle ticks at its drain rate, holding the window
        // open for the whole transfer instead of collapsing it into one
        // drained batch. Capture is O(words) on the destination's port,
        // charged as migration stall.
        for (staged, &w) in moved.iter().enumerate() {
            if let Err(err) = self.shards[dest].unit_mut().update(&[w]) {
                // Unstage what went in, so a rejected migration leaves
                // the cluster exactly as it was.
                for &undo in &moved[..staged] {
                    self.shards[dest].unit_mut().delete_first(undo);
                }
                return Err(ClusterError::Admission(err));
            }
        }
        stall_cycles += moved.len() as u64;
        // Journal the staged words on the destination, then mark the
        // log: everything past the mark is an in-window redirected
        // write — the rollback slice.
        for &w in &moved {
            self.shards[dest].journal_direct(JournalOp::Update(vec![w]));
        }
        let dest_journal_mark = self.shards[dest]
            .write_journal()
            .map_or(0, dsp_cam_core::journal::OpJournal::next_seq);
        self.migration = Some(Migration {
            slot,
            source,
            dest,
            frozen,
            dirty: HashSet::new(),
            moved,
            copied: 0,
            stall_cycles,
            dest_journal_mark,
        });
        Ok(())
    }

    /// Abort the open migration window and roll back cleanly to
    /// source-serving: the destination is scrubbed of the slot's words
    /// (staged and redirected alike), in-window redirected writes are
    /// re-applied to the source in acknowledgement order (no
    /// acknowledged write is lost), the ring is untouched (it never
    /// flipped), and the frozen replica is dropped.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoMigration`] when no window is open.
    pub fn abort_migration(&mut self) -> Result<(), ClusterError> {
        let m = self.migration.take().ok_or(ClusterError::NoMigration)?;
        self.rollback_migration(m);
        Ok(())
    }

    /// Roll window `m` back to source-serving. The destination's
    /// logical unit (its rebuild while it is down) is scrubbed of the
    /// slot's words — every one belongs to the window, since the slot
    /// never lived there before it opened — and the scrub is journalled.
    /// Then the redirected in-window writes — the destination journal's
    /// slice past the window mark, filtered to the slot — are re-applied
    /// to the source.
    fn rollback_migration(&mut self, m: Migration) {
        let dest = self.logical_unit(m.dest);
        dest.flush_write_buffer();
        let stored = dest.stored_words();
        let in_slot = |key: &u64| self.ring.slot_of(key & self.key_mask) == m.slot;
        let scrub: Vec<u64> = stored.into_iter().filter(in_slot).collect();
        let window: Vec<JournalOp> = self.shards[m.dest]
            .write_journal()
            .into_iter()
            .flat_map(|journal| journal.acked_since(m.dest_journal_mark))
            .filter_map(|entry| match &entry.op {
                JournalOp::Update(words) => {
                    let words: Vec<u64> = words.iter().copied().filter(in_slot).collect();
                    (!words.is_empty()).then_some(JournalOp::Update(words))
                }
                JournalOp::Delete(key) => in_slot(key).then_some(JournalOp::Delete(*key)),
            })
            .collect();
        for w in scrub {
            self.logical_unit(m.dest).delete_first(w);
            self.shards[m.dest].journal_direct(JournalOp::Delete(w));
        }
        for op in &window {
            self.apply_direct(m.source, op);
        }
        if let Some(fo) = &mut self.failover {
            fo.stats.migration_aborts += 1;
        }
        // The dirty set and frozen replica drop with `m`; the ring was
        // never flipped, so the source serves the slot again.
    }

    /// Shard `i`'s current logical contents: its in-flight rebuild while
    /// it is down, its live unit otherwise.
    fn logical_unit(&mut self, i: usize) -> &mut CamUnit {
        match self.failover.as_mut().map(|fo| &mut fo.health[i]) {
            Some(ShardHealth::Rebuilding { unit, .. }) => unit,
            _ => self.shards[i].unit_mut(),
        }
    }

    /// Apply a journal effect to shard `i`'s
    /// [logical unit](CamCluster::logical_unit) and journal it so
    /// `epoch + journal` keeps holding.
    fn apply_direct(&mut self, i: usize, op: &JournalOp) {
        let unit = self.logical_unit(i);
        // Admission cannot refuse here in practice: the slot's words
        // fit the source before the window opened, and redirected
        // in-window writes were sized for one shard's headroom.
        let _applied = op.replay(unit);
        unit.flush_write_buffer();
        self.shards[i].journal_direct(op.clone());
    }

    /// Inject a shard failure — the chaos hook. `Crash` loses the
    /// shard's contents and in-flight operations and starts an
    /// `epoch + journal` rebuild; `Stall` closes the issue port for a
    /// bounded number of ticks (contents survive). A fault aimed at an
    /// already-failed shard is absorbed.
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardOutOfRange`] for a bad shard index and
    /// [`ClusterError::FailoverDisabled`] before
    /// [`CamCluster::enable_failover`].
    pub fn inject_shard_fault(
        &mut self,
        shard: usize,
        fault: ShardFault,
    ) -> Result<(), ClusterError> {
        self.fail_shard(shard, fault).map(drop)
    }

    /// [`CamCluster::inject_shard_fault`], handing back the ops a crash
    /// purged from the shard's pipeline as `(op, arrival)` in issue
    /// order — the issue engine re-issues them once the shard is back.
    pub(crate) fn fail_shard(
        &mut self,
        shard: usize,
        fault: ShardFault,
    ) -> Result<Vec<(Op, u64)>, ClusterError> {
        if shard >= self.shards.len() {
            return Err(ClusterError::ShardOutOfRange {
                shard,
                shards: self.shards.len(),
            });
        }
        let now = self.cycle();
        let Some(fo) = self.failover.as_mut() else {
            return Err(ClusterError::FailoverDisabled);
        };
        if !matches!(fo.health[shard], ShardHealth::Healthy) {
            return Ok(Vec::new());
        }
        fo.stats.failures_detected += 1;
        match fault {
            ShardFault::Stall { ticks } => {
                fo.health[shard] = ShardHealth::Stalled {
                    since: now,
                    until: now + ticks.max(1),
                };
                Ok(Vec::new())
            }
            ShardFault::Crash => Ok(self.crash_shard(shard)),
        }
    }

    /// Lose shard `shard`: purge its pipeline (unacknowledged writes are
    /// the client's to retry, so the purged ops are returned), reset the
    /// dead unit, and start restoring `epoch + acknowledged journal` at
    /// one word per tick. A window whose destination this is rolls back,
    /// its scrub landing on the rebuild; a dying *source* keeps the
    /// window open — the frozen replica keeps answering and cutover
    /// waits on the rebuild.
    fn crash_shard(&mut self, shard: usize) -> Vec<(Op, u64)> {
        let now = self.cycle();
        // `fail_shard` crashes shards of failover clusters only.
        let Some(fo) = &mut self.failover else {
            return Vec::new();
        };
        let purged = self.shards[shard].purge_in_flight();
        let mut rebuilt = fo.epochs[shard].rehydrate();
        let epoch_words = rebuilt.stored_words().len();
        let replayed = self.shards[shard]
            .write_journal()
            .map_or(0, |journal| journal.replay_onto(&mut rebuilt));
        self.shards[shard].unit_mut().reset();
        // Restore bandwidth model: one word per tick for the epoch plus
        // one per journal entry replayed.
        let ready_at = now + 1 + epoch_words as u64 + replayed as u64;
        fo.health[shard] = ShardHealth::Rebuilding {
            since: now,
            ready_at,
            unit: Box::new(rebuilt),
        };
        if let Some(m) = self.migration.take_if(|m| m.dest == shard) {
            self.rollback_migration(m);
        }
        purged
    }

    /// Fire cutover once the copy engine has pushed every moved word
    /// (one per tick) *and* the destination's write buffer has fully
    /// drained the staged slot plus any in-window writes: delete the
    /// moved words from the source, flip the ring slot, drop the frozen
    /// replica. The cursor condition keeps the window open for at least
    /// `moved.len()` cycles even when a read-your-writes search flush
    /// applies the whole staged batch physically in one shot.
    fn try_cutover(&mut self) {
        let drained = self.migration.as_ref().is_some_and(|m| {
            m.copied >= m.moved.len()
                && self.shards[m.dest].buffer_depth() == 0
                // A failed participant defers cutover: the window stays
                // open until the shard recovers (or a destination crash
                // rolls the window back).
                && self.shard_healthy(m.source)
                && self.shard_healthy(m.dest)
        });
        let Some(m) = self.migration.take_if(|_| drained) else {
            return;
        };
        for &w in &m.moved {
            self.shards[m.source].unit_mut().delete_first(w);
            self.shards[m.source].journal_direct(JournalOp::Delete(w));
        }
        self.ring.assign(m.slot, m.dest);
        self.counters.migrations_completed += 1;
        self.stall_log.push(m.stall_cycles + m.moved.len() as u64);
    }

    /// FNV-1a digest over the sorted multiset of words stored across
    /// all shards — the cluster's content fingerprint. Meaningful at
    /// quiescence ([`CamCluster::quiesce`]): staged write-buffer ops
    /// and an open migration window (which doubles the migrating slot)
    /// are not part of the logical contents.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut words: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|cam| cam.unit().stored_words())
            .collect();
        words.sort_unstable();
        let mut hash = OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        mix(words.len() as u64);
        for &w in &words {
            mix(w);
        }
        hash
    }

    /// Replicate a read-only snapshot of every shard — the multi-shard
    /// search fan-out port. Take at quiescence; the replicas are
    /// decoupled from the live cluster (reads never stall ingest).
    #[must_use]
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            replicas: self
                .shards
                .iter()
                .map(|cam| cam.unit().rehydrate())
                .collect(),
            ring: self.ring.clone(),
            key_mask: self.key_mask,
        }
    }
}

/// Read-only replicated snapshot of a whole cluster: one rehydrated
/// unit per shard plus the routing ring frozen at snapshot time.
/// Searches fan out to the owning replica and reassemble in presented
/// order; the live cluster is never touched.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    replicas: Vec<CamUnit>,
    ring: HashRing,
    key_mask: u64,
}

impl ClusterSnapshot {
    /// Point search against the owning replica.
    pub fn search(&mut self, key: u64) -> SearchResult {
        let shard = self.ring.shard_of(key & self.key_mask);
        self.replicas[shard].search(key)
    }

    /// Fan a batch of keys out across the replicas (one streamed
    /// sub-batch per shard) and reassemble the results in presented-key
    /// order.
    pub fn search_fan_out(&mut self, keys: &[u64]) -> Vec<SearchResult> {
        let mut per_shard: Vec<(Vec<u64>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); self.replicas.len()];
        for (pos, &key) in keys.iter().enumerate() {
            let shard = self.ring.shard_of(key & self.key_mask);
            per_shard[shard].0.push(key);
            per_shard[shard].1.push(pos);
        }
        let mut answers: Vec<(usize, SearchResult)> = Vec::with_capacity(keys.len());
        for ((batch, positions), replica) in per_shard.into_iter().zip(&mut self.replicas) {
            answers.extend(positions.into_iter().zip(replica.search_stream(&batch)));
        }
        answers.sort_unstable_by_key(|&(pos, _)| pos);
        answers.into_iter().map(|(_, result)| result).collect()
    }
}
