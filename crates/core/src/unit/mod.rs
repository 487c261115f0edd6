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

// One submodule per concern; this module keeps the types, construction,
// the Routing Table writes, reset, the bus and snapshots.
#[cfg(feature = "obs")]
mod obs;
mod scrub;
mod search;
mod write;

#[cfg(feature = "obs")]
use dsp_cam_obs::{Event, OpKind};
use serde::{Deserialize, Serialize};

use crate::block::CamBlock;
use crate::bus::{BusCommand, Opcode};
use crate::config::{FidelityMode, UnitConfig};
use crate::encoder::SearchOutput;
use crate::error::{CamError, ConfigError};
use crate::exact::{self, ExactIndex};
use crate::scrub::ScrubState;
use crate::update_queue::WriteBuffer;
use search::WalkScratch;

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

/// Per-group fill state (the Block Address Controller), plus what a
/// search of the group needs besides its blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct GroupFill {
    /// Block indices owned by this group, in fill order.
    blocks: Vec<usize>,
    /// Index into `blocks` of the block currently being filled.
    current: usize,
    /// Slots (positions in `blocks`) holding a suspect block, ascending:
    /// one with a shadow fault injected since its planes were last fully
    /// repaired (by a reset or a cross-check's bulk repair), so they may
    /// answer a key it holds no copy of.
    suspects: Vec<usize>,
    /// Keys the group has answered since its blocks' counters were last
    /// settled: each of its blocks is charged one search per key, those
    /// not charged directly as all-miss (see [`CamUnit::unsettled`]).
    served: u64,
}

impl GroupFill {
    fn of(blocks: Vec<usize>) -> Self {
        GroupFill {
            blocks,
            ..GroupFill::default()
        }
    }
}

/// The configurable DSP-based CAM unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CamUnit {
    config: UnitConfig,
    blocks: Vec<CamBlock>,
    /// Routing Table: group id per block.
    routing: Vec<usize>,
    /// One fill state per group; its length is the group count `M`.
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
    /// Exact-match candidate index of a binary unit (see
    /// [`crate::exact`]); `None` on ternary and range units, whose
    /// entries can match keys other than their stored word, and on
    /// geometries the index cannot address.
    exact: Option<ExactIndex>,
    /// Each block's `(group, slot)` in the fill state, where a candidate
    /// walk lays it out (never read from the faultable Routing Table).
    placement: Vec<(usize, usize)>,
    /// Searches charged to each block directly (its hits) since the
    /// counters were last settled.
    charged: Vec<u64>,
    #[serde(skip)]
    scratch: WalkScratch,
    /// Attached observability sink; host-side monitoring, never
    /// architectural state (results and counters are identical with or
    /// without it — see `tests/obs_equivalence.rs`).
    #[cfg(feature = "obs")]
    #[serde(skip)]
    observer: Option<obs::Observer>,
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
            fill: vec![GroupFill::of((0..config.num_blocks).collect())],
            entries_per_group: 0,
            issue_cycles: 0,
            update_words: 0,
            search_count: 0,
            scrub: ScrubState::default(),
            wbuf: WriteBuffer::default(),
            exact: exact::indexable(&config).then(|| ExactIndex::with_room(config.total_cells())),
            placement: (0..config.num_blocks).map(|b| (0, b)).collect(),
            charged: vec![0; config.num_blocks],
            scratch: WalkScratch::default(),
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
            tier: obs::tier_of(fidelity),
        });
    }

    /// Current group count `M`.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.fill.len()
    }

    /// Blocks per group `N`.
    #[must_use]
    pub fn blocks_per_group(&self) -> usize {
        self.config.num_blocks / self.groups()
    }

    /// Effective capacity in entries (per group, since data is replicated).
    ///
    /// Under the standard partition this is
    /// `blocks_per_group × block_size`; with a custom Routing Table it is
    /// the capacity of the *smallest non-empty* group (groups that own no
    /// blocks store nothing and are skipped by updates).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.limiting_group().map_or(0, |g| {
            self.fill[g].blocks.len() * self.config.block.block_size
        })
    }

    /// The group that caps the unit's effective capacity: the first
    /// non-empty group with the fewest blocks (under the standard
    /// partition, group 0). `None` only when no group owns any block.
    pub(super) fn limiting_group(&self) -> Option<usize> {
        self.fill
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.blocks.is_empty())
            .min_by_key(|(_, f)| f.blocks.len())
            .map(|(g, _)| g)
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

    /// Clear every block, the exact-match index and every fill pointer in
    /// one issue cycle: reset and the Routing Table writes. Staged writes
    /// retire first, so block counters end where the inline path's would,
    /// and block counters are settled, so a repartition may regroup the
    /// blocks. Resetting every block repairs its planes, so no block is
    /// suspect afterwards.
    fn clear(&mut self) {
        self.flush_write_buffer();
        self.settle();
        for block in &mut self.blocks {
            block.reset();
        }
        if let Some(exact) = &mut self.exact {
            exact.clear();
        }
        for fill in &mut self.fill {
            fill.current = 0;
            fill.suspects.clear();
        }
        self.entries_per_group = 0;
        self.issue_cycles += 1;
    }

    /// Install a Routing Table partitioning the blocks into `groups`
    /// groups, each group's Block Address Controller filling its blocks
    /// in address order — the shared body of both Routing Table writes.
    /// Every block is cleared first, because the all-groups replication
    /// invariant cannot survive a repartition.
    fn repartition(&mut self, groups: usize, routing: Vec<usize>) {
        self.clear();
        self.fill = (0..groups)
            .map(|g| GroupFill::of((0..routing.len()).filter(|&b| routing[b] == g).collect()))
            .collect();
        self.placement = vec![(0, 0); routing.len()];
        for (g, fill) in self.fill.iter().enumerate() {
            for (slot, &b) in fill.blocks.iter().enumerate() {
                self.placement[b] = (g, slot);
            }
        }
        self.routing = routing;
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
        if group >= self.groups() {
            return Err(CamError::NoSuchGroup {
                group,
                groups: self.groups(),
            });
        }
        let mut routing = self.routing.clone();
        routing[block] = group;
        self.repartition(self.groups(), routing);
        #[cfg(feature = "obs")]
        self.trace_event(Event::Issue {
            kind: OpKind::RoutingWrite,
            group: group as u32,
        });
        Ok(())
    }

    /// Assert the global reset: clear every block and fill pointer.
    pub fn reset(&mut self) {
        self.clear();
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

    /// Borrow the underlying blocks (inspection in tests/benches), their
    /// counters complete: this first shows each block the all-miss
    /// searches its group's candidate walks owe it, in `O(blocks)`.
    #[must_use]
    pub fn blocks(&self) -> &[CamBlock] {
        self.show_unsettled();
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
    /// bit-identically to the original. Its block counters are settled
    /// before the monitoring tallies are cleared, so the misses its
    /// groups owed before the copy stay out of them.
    #[must_use]
    pub fn rehydrate(&self) -> CamUnit {
        let mut unit = self.clone();
        unit.settle();
        unit.scratch = WalkScratch::default();
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
            groups: self.groups(),
            capacity: self.capacity(),
            entries: self.entries_per_group,
            block_occupancy: self.blocks.iter().map(CamBlock::len).collect(),
            issue_cycles: self.issue_cycles,
            update_words: self.update_words,
            search_count: self.search_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScrubPolicy;

    pub(super) fn unit(blocks: usize, block_size: usize) -> CamUnit {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(block_size)
            .num_blocks(blocks)
            .build()
            .unwrap();
        CamUnit::new(config).unwrap()
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

    /// A unit can be shared across threads: the owed misses it shows its
    /// blocks through a shared borrow are atomic counts.
    #[test]
    fn units_are_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<CamUnit>();
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
