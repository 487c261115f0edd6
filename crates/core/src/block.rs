//! The CAM block microarchitecture (Fig. 3 of the paper).
//!
//! A block bundles a configurable number of [`CamCell`]s with the control
//! fabric that makes them a usable memory:
//!
//! * the **DeMUX** routes each bus transaction to the update or search
//!   logic based on the side-band control signals;
//! * the **Cell Address Controller** maps each `data_width`-bit word of an
//!   update beat to the next free cell, so one beat updates up to
//!   `bus_width / data_width` cells *in parallel* (update latency 1);
//! * the **search logic** masks the redundant bus bits and broadcasts the
//!   single key to every cell for parallel comparison;
//! * the **Encoder** compresses the per-cell match wires into the
//!   configured [`Encoding`](crate::encoder::Encoding), optionally through an extra output buffer
//!   register (sizes ≥ 256 standalone — Table VI's latency step from 3 to
//!   4 cycles).

use std::sync::atomic::{AtomicU64, Ordering};

use dsp48::word::mask_width;
use serde::{Deserialize, Serialize};

use crate::bitslice::{search_batch_or, BitSliceIndex};
use crate::cell::{CamCell, Entry};
use crate::config::{BlockConfig, FidelityMode};
use crate::encoder::{MatchVector, SearchOutput};
use crate::error::{CamError, ConfigError};
use crate::faults::ShadowFault;
use crate::mask::RangeSpec;

/// Mask selecting the DSP datapath's 48 bits.
const M48: u64 = (1 << 48) - 1;

/// A CAM block: cells plus update/search control and the result encoder.
///
/// # Examples
///
/// ```
/// use dsp_cam_core::block::CamBlock;
/// use dsp_cam_core::config::{BlockConfig, CellConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut block = CamBlock::new(BlockConfig::standalone(
///     CellConfig::binary(32), 64, 512,
/// ))?;
/// block.update(&[10, 20, 30])?;            // one parallel beat
/// assert!(block.search(20).is_match());
/// assert_eq!(block.search(20).first_address(), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CamBlock {
    config: BlockConfig,
    cells: Vec<CamCell>,
    /// Transposed shadow of the cell state for the turbo search tier and
    /// the counter-neutral probes; kept coherent on every mutation
    /// (`O(width)` per cell) regardless of the configured fidelity, so
    /// the mode can be compared (and, via [`CamBlock::set_fidelity`],
    /// switched) at any time.
    bitslice: BitSliceIndex,
    /// The Cell Address Controller's fill pointer (high-water mark: cells
    /// at and beyond it have never been written).
    write_ptr: usize,
    /// Free-list of invalidated cells below `write_ptr`, kept sorted in
    /// *descending* address order so `pop()` hands out the lowest free
    /// address first — deleted entries are reused before the fill pointer
    /// advances.
    #[serde(default)]
    holes: Vec<usize>,
    cycles: u64,
    update_beats: u64,
    searches: u64,
    /// All-miss broadcasts the owning unit charges this block but has not
    /// settled into `cycles`, `searches` and the obs misses yet: every
    /// counter read adds them in (see [`CamBlock::show_unsettled`]).
    #[serde(skip)]
    unsettled: Unsettled,
    /// Reusable match vector behind [`CamBlock::search`] — host-side
    /// scratch, not architectural state.
    #[serde(skip)]
    vector_scratch: MatchVector,
    /// Monitoring tallies for the observability layer — plain fields
    /// bumped on the broadcast path (no locking) and read at publish
    /// time, so the hot loop never touches a sink.
    #[cfg(feature = "obs")]
    #[serde(skip)]
    obs: BlockObs,
}

/// Match/miss tallies kept per block when the `obs` feature is on.
#[cfg(feature = "obs")]
#[derive(Debug, Clone, Copy, Default)]
struct BlockObs {
    matches: u64,
    misses: u64,
}

/// A count the owning unit publishes through a shared borrow (see
/// [`CamBlock::show_unsettled`]), so atomic; a clone copies its value.
/// `Relaxed` suffices: the count publishes no other data, and while a
/// unit is shared every store to it writes the same value.
#[derive(Debug, Default)]
struct Unsettled(AtomicU64);

impl Clone for Unsettled {
    fn clone(&self) -> Self {
        Unsettled(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

impl CamBlock {
    /// Instantiate a block.
    ///
    /// # Errors
    ///
    /// Propagates the block-level [`ConfigError`]s.
    pub fn new(config: BlockConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let cells = (0..config.block_size)
            .map(|_| CamCell::new(config.cell))
            .collect::<Result<Vec<_>, _>>()?;
        let mut bitslice = BitSliceIndex::new(cells.len(), config.cell.data_width);
        bitslice.refresh_all(&cells);
        Ok(CamBlock {
            config,
            cells,
            bitslice,
            write_ptr: 0,
            holes: Vec::new(),
            cycles: 0,
            update_beats: 0,
            searches: 0,
            unsettled: Unsettled::default(),
            vector_scratch: MatchVector::default(),
            #[cfg(feature = "obs")]
            obs: BlockObs::default(),
        })
    }

    /// Re-shadow `cell` in the bit-sliced planes after a mutation.
    fn reshadow(&mut self, cell: usize) {
        self.bitslice.refresh(cell, &self.cells[cell]);
    }

    /// Switch the search execution tier in place. Contents, counters and
    /// results are unaffected — both tiers answer identically.
    pub fn set_fidelity(&mut self, fidelity: FidelityMode) {
        self.config.fidelity = fidelity;
    }

    /// The block configuration.
    #[must_use]
    pub fn config(&self) -> &BlockConfig {
        &self.config
    }

    /// Number of cells.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Number of occupied cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.write_ptr - self.holes.len()
    }

    /// Whether no cell is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every cell is occupied.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.free_slots() == 0
    }

    /// Free cells remaining (never-written cells beyond the fill pointer
    /// plus invalidated cells awaiting reuse).
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.cells.len() - self.write_ptr + self.holes.len()
    }

    /// Claim the next cell for a write: the lowest invalidated address if
    /// one exists, otherwise the fill pointer (which then advances).
    fn alloc_cell(&mut self) -> usize {
        match self.holes.pop() {
            Some(cell) => cell,
            None => {
                let cell = self.write_ptr;
                self.write_ptr += 1;
                cell
            }
        }
    }

    /// Block-level cycles consumed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles + self.unsettled() * self.config.search_latency()
    }

    /// Update beats processed.
    #[must_use]
    pub fn update_beats(&self) -> u64 {
        self.update_beats
    }

    /// Searches processed.
    #[must_use]
    pub fn searches(&self) -> u64 {
        self.searches + self.unsettled()
    }

    fn unsettled(&self) -> u64 {
        self.unsettled.0.load(Ordering::Relaxed)
    }

    /// Publish the `n` all-miss broadcasts the owning unit has charged
    /// this block since it last settled them (replacing any count shown
    /// before), so every counter read includes them. A unit calls this
    /// through a shared borrow before any of its blocks' counters can be
    /// read; it cannot change `n` until it is mutably borrowed again.
    pub(crate) fn show_unsettled(&self, n: u64) {
        self.unsettled.0.store(n, Ordering::Relaxed);
    }

    /// Charge `n` all-miss broadcasts the owning unit had not settled
    /// yet, and show none: the unit's settle, before it moves the block
    /// to another group or forgets its monitoring tallies.
    pub(crate) fn settle(&mut self, n: u64) {
        self.tally(n, 0);
        *self.unsettled.0.get_mut() = 0;
    }

    /// Broadcasts that hit at least one valid cell (obs monitoring).
    #[cfg(feature = "obs")]
    #[must_use]
    pub fn obs_matches(&self) -> u64 {
        self.obs.matches
    }

    /// Broadcasts that missed every valid cell (obs monitoring).
    #[cfg(feature = "obs")]
    #[must_use]
    pub fn obs_misses(&self) -> u64 {
        self.obs.misses + self.unsettled()
    }

    /// Per-cell `(is_valid, pd_fires)` observations, in cell order —
    /// the publish-time source for `.../cell{c}` scope metrics.
    #[cfg(feature = "obs")]
    pub fn cell_observations(&self) -> impl Iterator<Item = (bool, u64)> + '_ {
        self.cells.iter().map(|c| (c.is_valid(), c.pd_fires()))
    }

    /// Bit-accurate audit pass over the bit-sliced shadow: re-derive the
    /// expected shadow state of every cell from the DSP oracle and
    /// return the number of divergent cells (a healthy block always
    /// returns 0; see [`CamBlock::inject_shadow_fault`]).
    #[must_use]
    pub fn audit_shadows(&self) -> usize {
        self.bitslice.audit(&self.cells)
    }

    /// Corrupt one cell's entry in the bit-sliced shadow — a
    /// fault-injection hook for tests; the next
    /// [`CamBlock::audit_shadows`] pass must report it.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn inject_shadow_fault(&mut self, cell: usize) {
        self.inject_fault_at(ShadowFault::Plane {
            cell,
            key_bit: 0,
            one_plane: false,
        });
    }

    /// Apply one targeted [`ShadowFault`] to this block's shadow
    /// structures (the DSP oracle is untouched). Subsumes
    /// [`CamBlock::inject_shadow_fault`]; the general entry point of the
    /// fault injector. Until [`CamBlock::scrub_all`] or
    /// [`CamBlock::reset`] repairs them, the planes may answer a key the
    /// block holds no copy of, so a unit lists the block as suspect.
    ///
    /// # Panics
    ///
    /// Panics if the fault addresses a cell out of range.
    pub fn inject_fault_at(&mut self, fault: ShadowFault) {
        match fault {
            ShadowFault::Plane {
                cell,
                key_bit,
                one_plane,
            } => {
                if one_plane {
                    self.bitslice.corrupt_one_plane_bit(cell, key_bit);
                } else {
                    self.bitslice.corrupt_plane_bit(cell, key_bit);
                }
            }
            ShadowFault::PlaneValid { cell } => self.bitslice.corrupt_valid_bit(cell),
        }
    }

    /// Audit one cell's bit-sliced shadow entry against the DSP oracle
    /// and repair it in place when divergent. Returns how many shadow
    /// entries (0 or 1) were divergent — the scrubber's inner step.
    /// `O(width)` when clean; repair re-shadows the cell exactly like any
    /// mutation would.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn scrub_cell(&mut self, cell: usize) -> usize {
        let divergent = usize::from(self.bitslice.audit_cell(cell, &self.cells[cell]));
        if divergent > 0 {
            self.reshadow(cell);
        }
        divergent
    }

    /// Scrub every cell of the block (the governor's bulk-repair path
    /// after a cross-check divergence), so its planes equal its cells
    /// again. Returns total divergent shadow entries repaired.
    pub fn scrub_all(&mut self) -> usize {
        (0..self.cells.len())
            .map(|cell| self.scrub_cell(cell))
            .sum()
    }

    /// Scrub every cell of one cache tile of the bit-sliced shadow — the
    /// natural repair granule after a fault whose
    /// [`ShadowFault::tile`](crate::faults::ShadowFault::tile) is known,
    /// since a tile's planes are one contiguous region. Cell ↔ tile
    /// arithmetic comes from [`tile_of`](crate::bitslice::tile_of) /
    /// [`TILE_CELLS`](crate::bitslice::TILE_CELLS) — the same single
    /// mapping the planes and fault layer use. Returns total divergent
    /// shadow entries repaired.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range for the block's cell count.
    pub fn scrub_tile(&mut self, tile: usize) -> usize {
        let first = tile * crate::bitslice::TILE_CELLS;
        assert!(
            first < self.cells.len(),
            "tile {tile} out of range for {} cells",
            self.cells.len()
        );
        let last = (first + crate::bitslice::TILE_CELLS).min(self.cells.len());
        (first..last).map(|cell| self.scrub_cell(cell)).sum()
    }

    /// Match vector for `key` computed straight from the DSP oracle cell
    /// state — no shadow structure is consulted, no counter or cycle is
    /// ticked, and `self` stays immutable. This is the reference answer
    /// the scrubber's sampled cross-check compares the configured tier
    /// against (and what repair re-derives).
    pub fn oracle_vector_into(&self, key: u64, out: &mut MatchVector) {
        let key = self.mask_key(key) & M48;
        out.reset(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            let care = !cell.pattern_mask().value() & M48;
            if cell.is_valid() && ((cell.stored() & M48) ^ key) & care == 0 {
                out.set(i);
            }
        }
    }

    fn mask_key(&self, key: u64) -> u64 {
        key & mask_width(self.config.cell.data_width)
    }

    /// Write `words` through the Cell Address Controller, one beat's worth
    /// of parallel cell writes per `words_per_beat` chunk.
    ///
    /// # Errors
    ///
    /// * [`CamError::Full`] if the block cannot hold all words (nothing is
    ///   written in that case — the caller splits via [`free_slots`]);
    /// * [`CamError::ValueTooWide`] if any word exceeds the data width.
    ///
    /// [`free_slots`]: CamBlock::free_slots
    pub fn update(&mut self, words: &[u64]) -> Result<(), CamError> {
        self.write_entries(words)
    }

    /// Write power-of-two ranges (RMCAM update path).
    ///
    /// # Errors
    ///
    /// [`CamError::KindMismatch`] for non-range blocks, then as
    /// [`CamBlock::update`] (a base beyond the width is `ValueTooWide`).
    pub fn update_ranges(&mut self, ranges: &[RangeSpec]) -> Result<(), CamError> {
        self.write_entries(ranges)
    }

    /// The block's one write path: reject the whole batch — kind, then
    /// capacity, then width — before any cell is touched, then claim a
    /// cell per entry, program it, re-shadow it, and charge one update
    /// latency per bus beat.
    pub(crate) fn write_entries<E: Entry>(&mut self, entries: &[E]) -> Result<(), CamError> {
        if E::KIND.is_some_and(|kind| kind != self.config.cell.kind) {
            return Err(CamError::KindMismatch);
        }
        if entries.len() > self.free_slots() {
            return Err(CamError::Full {
                rejected: entries.len() - self.free_slots(),
                group: None,
            });
        }
        let limit = self.mask_key(u64::MAX);
        if let Some(value) = entries.iter().map(|e| e.width_probe()).find(|&v| v > limit) {
            return Err(CamError::ValueTooWide {
                value,
                data_width: self.config.cell.data_width,
            });
        }
        for &entry in entries {
            let cell = self.alloc_cell();
            entry
                .write_to(&mut self.cells[cell])
                .expect("validated above");
            self.reshadow(cell);
        }
        let beats = entries.len().div_ceil(self.config.words_per_beat()).max(1) as u64;
        self.cycles += beats * self.config.update_latency();
        self.update_beats += beats;
        Ok(())
    }

    /// Raw match vector for `key` into a caller-provided vector — the one
    /// broadcast path every search shares: mask the key, produce the
    /// match vector on the configured tier, account cycles. The tiers
    /// are interchangeable by construction — identical key masking,
    /// identical compare semantics, identical counter bumps. Writes into
    /// `out` reusing its allocation, so a warmed-up block broadcasts
    /// without touching the heap.
    pub fn search_vector_into(&mut self, key: u64, out: &mut MatchVector) {
        let hit = self.match_into(key, out);
        self.tally(1, u64::from(hit));
    }

    /// [`CamBlock::search_vector_into`] without the charge: the kernel a
    /// unit runs, charging the block itself. Returns whether any cell
    /// matched.
    pub(crate) fn match_into(&mut self, key: u64, out: &mut MatchVector) -> bool {
        let key = self.mask_key(key);
        match self.config.fidelity {
            FidelityMode::BitAccurate => {
                out.reset(self.cells.len());
                for (i, cell) in self.cells.iter_mut().enumerate() {
                    if cell.search(key) {
                        out.set(i);
                    }
                }
            }
            FidelityMode::Turbo => {
                let bitslice = &self.bitslice;
                out.fill_raw(bitslice.len(), |bits| bitslice.search_into(key, bits));
            }
        }
        out.any()
    }

    /// Charge `n` broadcasts, `matched` of which hit: one search latency
    /// and one search tick each, plus the match/miss monitoring tallies.
    pub(crate) fn tally(&mut self, n: u64, matched: u64) {
        self.cycles += n * self.config.search_latency();
        self.searches += n;
        #[cfg(feature = "obs")]
        {
            self.obs.matches += matched;
            self.obs.misses += n - matched;
        }
        #[cfg(not(feature = "obs"))]
        let _ = matched;
    }

    /// Broadcast `key` to every cell and encode the match vector.
    ///
    /// Redundant key bits beyond the data width are masked off, per the
    /// paper's search-path description.
    pub fn search(&mut self, key: u64) -> SearchOutput {
        let mut matches = std::mem::take(&mut self.vector_scratch);
        self.search_vector_into(key, &mut matches);
        let out = self.config.encoding.encode(&matches);
        self.vector_scratch = matches;
        out
    }

    /// Raw match vector for `key` (bypasses the Encoder; used by tests and
    /// by encodings layered at unit level).
    pub fn search_vector(&mut self, key: u64) -> MatchVector {
        let mut matches = MatchVector::default();
        self.search_vector_into(key, &mut matches);
        matches
    }

    /// Broadcast a whole batch of up to
    /// [`MAX_BATCH_WIDTH`](crate::bitslice::MAX_BATCH_WIDTH) keys,
    /// filling `out[k]` with the match vector for `keys[k]` (extra `out`
    /// entries are grown/reused, never shrunk). On the `Turbo` tier the
    /// batch is answered in a **single pass** over the bit planes by the
    /// kernel behind [`BitSliceIndex::search_batch_into`]; `BitAccurate`
    /// broadcasts key-by-key. Results and counter bumps are exactly those of
    /// `keys.len()` sequential [`CamBlock::search_vector_into`] calls:
    /// one search-latency charge, one search tick and one match/miss
    /// tally per key.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len()` exceeds the kernel's `MAX_BATCH_WIDTH`.
    pub fn search_batch_into(&mut self, keys: &[u64], out: &mut Vec<MatchVector>) {
        if out.len() < keys.len() {
            out.resize_with(keys.len(), MatchVector::default);
        }
        for vector in &mut out[..keys.len()] {
            vector.reset(self.cells.len());
        }
        self.search_batch_or(keys, &mut out[..keys.len()], 0);
    }

    /// [`CamBlock::search_batch_into`] OR-ed into caller vectors with
    /// cell 0 landing at cell `offset` — the unit's group combine, which
    /// lays a group's blocks out side by side in one vector per key.
    ///
    /// # Panics
    ///
    /// As [`CamBlock::search_batch_into`], or if a vector cannot hold the
    /// block at `offset`.
    pub(crate) fn search_batch_or(&mut self, keys: &[u64], out: &mut [MatchVector], offset: usize) {
        if self.config.fidelity != FidelityMode::Turbo {
            let mut vector = std::mem::take(&mut self.vector_scratch);
            for (&key, combined) in keys.iter().zip(out.iter_mut()) {
                self.search_vector_into(key, &mut vector);
                combined.or_offset(&vector, offset);
            }
            self.vector_scratch = vector;
            return;
        }
        // The index reads only the low `data_width` key bits, so the
        // redundant high bits need no masking here.
        let hits = search_batch_or(&self.bitslice, keys, out, offset);
        self.tally(keys.len() as u64, u64::from(hits.count_ones()));
    }

    /// Invalidate the entry at `cell` (extension beyond the paper: the
    /// valid bit is one fabric flop, so per-address invalidation costs the
    /// same single cycle as the global reset). The freed cell joins a
    /// free-list and is reused by subsequent updates, lowest address
    /// first, before the fill pointer advances — so deletion genuinely
    /// returns capacity. Returns the word the cell's DSP slice stored
    /// when the cell held a valid entry.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= capacity`.
    pub fn invalidate(&mut self, cell: usize) -> Option<u64> {
        assert!(cell < self.cells.len(), "cell {cell} out of range");
        let held = self.cells[cell]
            .is_valid()
            .then(|| self.cells[cell].stored());
        if cell < self.write_ptr && held.is_some() {
            let at = self.holes.partition_point(|&h| h > cell);
            self.holes.insert(at, cell);
        }
        self.cells[cell].clear();
        self.reshadow(cell);
        self.cycles += 1;
        held
    }

    /// Lowest cell address whose *valid* contents match `key`, without
    /// perturbing any search counter or cycle accounting — the probe
    /// behind [`CamUnit`](crate::unit::CamUnit)'s deletion path. Answers
    /// from the always-coherent bit-sliced planes, so the result is
    /// identical on every fidelity tier. `scratch` receives the planes'
    /// match vector, reusing its allocation.
    #[must_use]
    pub fn probe_first(&self, key: u64, scratch: &mut MatchVector) -> Option<usize> {
        self.probe_into(key, scratch);
        scratch.first()
    }

    /// How many valid cells match `key`, capped at `limit`, without
    /// perturbing any search counter or cycle accounting — the probe
    /// behind the write buffer's staged-delete decision. Like
    /// [`probe_first`](Self::probe_first) it answers from the
    /// always-coherent bit-sliced planes into `scratch`, so the count is
    /// identical on every fidelity tier.
    #[must_use]
    pub fn probe_count(&self, key: u64, limit: usize, scratch: &mut MatchVector) -> usize {
        if limit == 0 {
            return 0;
        }
        self.probe_into(key, scratch);
        scratch.iter_matches().take(limit).count()
    }

    /// The planes' match vector for `key` into `out`, charging nothing.
    fn probe_into(&self, key: u64, out: &mut MatchVector) {
        let key = self.mask_key(key);
        out.fill_raw(self.bitslice.len(), |bits| {
            self.bitslice.search_into(key, bits)
        });
    }

    /// Per-entry ternary update (extension beyond the paper's shared-mask
    /// TCAM): stores `value` with its own don't-care bits by programming
    /// the cell's pattern-detector mask, one entry per call.
    ///
    /// # Errors
    ///
    /// * [`CamError::KindMismatch`] unless the block is ternary;
    /// * [`CamError::Full`] when no cell is free;
    /// * [`CamError::ValueTooWide`] for values or masks beyond the width.
    pub fn update_masked(&mut self, value: u64, dont_care: u64) -> Result<(), CamError> {
        self.write_entries(&[(value, dont_care)])
    }

    /// Assert the reset signal: clear every cell and the fill pointer.
    /// The planes are re-derived from the cleared cells, which repairs
    /// any shadow fault.
    pub fn reset(&mut self) {
        for cell in &mut self.cells {
            cell.clear();
        }
        self.bitslice.refresh_all(&self.cells);
        self.write_ptr = 0;
        self.holes.clear();
        self.cycles += 1;
    }

    /// Clear the search scratch vector and, with `obs`, the match and
    /// miss counters — the block half of
    /// [`CamUnit::rehydrate`](crate::unit::CamUnit::rehydrate).
    pub(crate) fn reset_transients(&mut self) {
        self.vector_scratch = MatchVector::default();
        #[cfg(feature = "obs")]
        {
            self.obs = BlockObs::default();
        }
    }

    /// The stored values of the occupied (valid) cells, in address order.
    pub fn stored(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells[..self.write_ptr]
            .iter()
            .filter(|c| c.is_valid())
            .map(CamCell::stored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellConfig;
    use crate::encoder::Encoding;

    fn block(size: usize) -> CamBlock {
        CamBlock::new(BlockConfig::standalone(CellConfig::binary(32), size, 512)).unwrap()
    }

    #[test]
    fn update_then_search_hits() {
        let mut b = block(32);
        b.update(&[10, 20, 30]).unwrap();
        assert!(b.search(20).is_match());
        assert!(!b.search(25).is_match());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn parallel_beat_update_costs_one_cycle() {
        let mut b = block(32);
        let words: Vec<u64> = (0..16).collect(); // one full 512/32 beat
        let c0 = b.cycles();
        b.update(&words).unwrap();
        assert_eq!(b.cycles() - c0, 1, "Table VI: update latency 1");
        assert_eq!(b.update_beats(), 1);
        for w in 0..16 {
            assert!(b.search(w).is_match());
        }
    }

    #[test]
    fn multi_beat_update_costs_per_beat() {
        let mut b = block(64);
        let words: Vec<u64> = (0..40).collect(); // 3 beats of 16
        let c0 = b.cycles();
        b.update(&words).unwrap();
        assert_eq!(b.cycles() - c0, 3);
    }

    #[test]
    fn search_latency_matches_table_vi() {
        for (size, latency) in [(32usize, 3u64), (128, 3), (256, 4), (512, 4)] {
            let mut b = block(size);
            b.update(&[1]).unwrap();
            let c0 = b.cycles();
            b.search(1);
            assert_eq!(b.cycles() - c0, latency, "size {size}");
        }
    }

    #[test]
    fn overfill_is_atomic() {
        let mut b = block(4);
        b.update(&[1, 2, 3]).unwrap();
        let err = b.update(&[4, 5]).unwrap_err();
        assert_eq!(
            err,
            CamError::Full {
                rejected: 1,
                group: None
            }
        );
        // Nothing from the failed beat landed.
        assert_eq!(b.len(), 3);
        assert!(!b.search(4).is_match());
        assert_eq!(b.free_slots(), 1);
    }

    #[test]
    fn oversized_word_rejected_atomically() {
        let mut b = block(8);
        let err = b.update(&[1, 0x1_0000_0000]).unwrap_err();
        assert!(matches!(err, CamError::ValueTooWide { .. }));
        assert_eq!(b.len(), 0, "atomic: the valid word must not land");
    }

    #[test]
    fn duplicate_entries_all_match() {
        let mut b = block(32);
        b.update(&[7, 7, 9, 7]).unwrap();
        let v = b.search_vector(7);
        assert_eq!(v.count(), 3);
        assert_eq!(v.first(), Some(0));
    }

    #[test]
    fn priority_encoding_returns_lowest_address() {
        let mut b = block(32);
        b.update(&[5, 6, 5]).unwrap();
        match b.search(5) {
            SearchOutput::Priority(addr) => assert_eq!(addr, Some(0)),
            other => panic!("unexpected encoding {other:?}"),
        }
    }

    #[test]
    fn match_count_encoding() {
        let mut cfg = BlockConfig::standalone(CellConfig::binary(32), 32, 512);
        cfg.encoding = Encoding::MatchCount;
        let mut b = CamBlock::new(cfg).unwrap();
        b.update(&[3, 3, 3]).unwrap();
        assert_eq!(b.search(3), SearchOutput::MatchCount(3));
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = block(16);
        b.update(&[1, 2, 3]).unwrap();
        b.reset();
        assert!(b.is_empty());
        assert!(!b.search(1).is_match());
        assert!(!b.search(0).is_match(), "no ghost match on zero");
        // And the block is reusable.
        b.update(&[9]).unwrap();
        assert!(b.search(9).is_match());
    }

    #[test]
    fn key_masking_on_search() {
        let mut b = block(16);
        b.update(&[0xAB]).unwrap();
        // Garbage in the upper bus bits must be ignored.
        assert!(b.search(0xFFFF_FFFF_0000_00AB).is_match());
    }

    #[test]
    fn range_block() {
        let cfg = BlockConfig::standalone(CellConfig::range_matching(32), 32, 512);
        let mut b = CamBlock::new(cfg).unwrap();
        b.update_ranges(&[
            RangeSpec::new(0x100, 4).unwrap(),
            RangeSpec::new(0x200, 8).unwrap(),
        ])
        .unwrap();
        assert!(b.search(0x105).is_match());
        assert!(b.search(0x2FF).is_match());
        assert!(!b.search(0x300).is_match());
    }

    #[test]
    fn range_update_on_binary_block_fails() {
        let mut b = block(8);
        let err = b
            .update_ranges(&[RangeSpec::new(0, 2).unwrap()])
            .unwrap_err();
        assert_eq!(err, CamError::KindMismatch);
    }

    #[test]
    fn stored_iterates_fill_order() {
        let mut b = block(8);
        b.update(&[4, 2, 9]).unwrap();
        let got: Vec<u64> = b.stored().collect();
        assert_eq!(got, vec![4, 2, 9]);
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = BlockConfig::standalone(CellConfig::binary(32), 100, 512);
        assert!(CamBlock::new(cfg).is_err());
    }

    #[test]
    fn shadow_tiers_match_bit_accurate_results_and_counters() {
        use crate::config::FidelityMode;
        let base = BlockConfig::standalone(CellConfig::binary(16), 32, 512);
        let mut accurate = CamBlock::new(base).unwrap();
        let mut turbo = CamBlock::new(base.with_fidelity(FidelityMode::Turbo)).unwrap();
        for b in [&mut accurate, &mut turbo] {
            b.update(&[7, 7, 0xAB, 0]).unwrap();
            b.invalidate(1);
        }
        for key in [7u64, 0xAB, 0, 0xFFFF_0000_0000_0007, 5] {
            let oracle = accurate.search_vector(key);
            assert_eq!(oracle, turbo.search_vector(key), "turbo, key {key:#x}");
            let encoded = accurate.search(key);
            assert_eq!(encoded, turbo.search(key), "turbo, key {key:#x}");
        }
        assert_eq!(accurate.cycles(), turbo.cycles(), "block cycle accounting");
        assert_eq!(accurate.searches(), turbo.searches());
        assert_eq!(accurate.update_beats(), turbo.update_beats());
    }

    #[test]
    fn search_vector_into_reuses_the_buffer() {
        use crate::config::FidelityMode;
        let mut b = block(32);
        b.update(&[10, 20, 30]).unwrap();
        let mut out = MatchVector::new(1); // wrong shape on purpose
        for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            b.set_fidelity(fidelity);
            b.search_vector_into(20, &mut out);
            assert_eq!(out.len(), 32, "{fidelity:?}");
            assert_eq!(out.first(), Some(1), "{fidelity:?}");
            b.search_vector_into(25, &mut out);
            assert!(!out.any(), "{fidelity:?}");
        }
    }

    #[test]
    fn invalidated_cells_are_reused_lowest_first() {
        let mut b = block(4);
        b.update(&[10, 20, 30, 40]).unwrap();
        assert!(b.is_full());
        b.invalidate(2);
        b.invalidate(0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.free_slots(), 2);
        assert!(!b.is_full());
        b.update(&[50]).unwrap();
        assert_eq!(b.search(50).first_address(), Some(0), "lowest hole first");
        b.update(&[60]).unwrap();
        assert_eq!(b.search(60).first_address(), Some(2));
        assert!(b.is_full());
        assert!(matches!(b.update(&[70]), Err(CamError::Full { .. })));
        let got: Vec<u64> = b.stored().collect();
        assert_eq!(got, vec![50, 20, 60, 40]);
    }

    #[test]
    fn double_invalidate_does_not_double_count() {
        let mut b = block(4);
        b.update(&[1, 2]).unwrap();
        b.invalidate(1);
        b.invalidate(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.free_slots(), 3);
        // A never-written cell frees nothing extra either.
        b.invalidate(3);
        assert_eq!(b.free_slots(), 3);
    }

    #[test]
    fn probe_first_is_counter_neutral_on_every_tier() {
        use crate::config::FidelityMode;
        let mut b = block(8);
        b.update(&[5, 9, 5]).unwrap();
        for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            b.set_fidelity(fidelity);
            let (c, s) = (b.cycles(), b.searches());
            let mut scratch = MatchVector::default();
            assert_eq!(b.probe_first(5, &mut scratch), Some(0), "{fidelity:?}");
            assert_eq!(b.probe_first(6, &mut scratch), None, "{fidelity:?}");
            assert_eq!(b.probe_count(5, 3, &mut scratch), 2, "{fidelity:?}");
            assert_eq!((b.cycles(), b.searches()), (c, s), "{fidelity:?}");
        }
    }

    #[test]
    fn reset_clears_the_free_list() {
        let mut b = block(4);
        b.update(&[1, 2, 3]).unwrap();
        b.invalidate(0);
        b.reset();
        b.update(&[7]).unwrap();
        assert_eq!(b.search(7).first_address(), Some(0));
        assert_eq!(b.len(), 1);
        assert_eq!(b.free_slots(), 3);
    }

    #[test]
    fn failed_range_write_releases_the_allocated_cell() {
        let mut b = block(8);
        b.update(&[1]).unwrap();
        assert!(b.update_ranges(&[RangeSpec::new(0, 2).unwrap()]).is_err());
        assert_eq!(b.len(), 1, "failed write must not consume a cell");
        assert_eq!(b.free_slots(), 7);
        // A batch whose second base is too wide lands nothing at all.
        let cfg = BlockConfig::standalone(CellConfig::range_matching(16), 8, 512);
        let mut r = CamBlock::new(cfg).unwrap();
        let before = (r.len(), r.update_beats(), r.cycles());
        let batch = [
            RangeSpec::new(16, 4).unwrap(),
            RangeSpec::new(1 << 20, 4).unwrap(),
        ];
        assert_eq!(
            r.update_ranges(&batch),
            Err(CamError::ValueTooWide {
                value: 1 << 20,
                data_width: 16
            })
        );
        assert_eq!((r.len(), r.update_beats(), r.cycles()), before);
        assert!(!r.search(16).is_match(), "the first range must not land");
    }

    #[test]
    fn scrub_cell_detects_and_repairs_every_fault_shape() {
        let faults = [
            ShadowFault::Plane {
                cell: 1,
                key_bit: 3,
                one_plane: false,
            },
            ShadowFault::Plane {
                cell: 1,
                key_bit: 3,
                one_plane: true,
            },
            ShadowFault::PlaneValid { cell: 0 },
        ];
        for fault in faults {
            let mut b = block(8);
            b.update(&[10, 20, 30, 40]).unwrap();
            b.inject_fault_at(fault);
            assert_eq!(b.audit_shadows(), 1, "{fault:?}");
            let cell = fault.cell();
            // Scrubbing an unrelated cell repairs nothing.
            assert_eq!(b.scrub_cell((cell + 1) % 8), 0, "{fault:?}");
            assert_eq!(b.scrub_cell(cell), 1, "{fault:?}");
            assert_eq!(b.audit_shadows(), 0, "{fault:?}");
            assert_eq!(b.scrub_cell(cell), 0, "repair is idempotent");
        }
    }

    #[test]
    fn scrub_all_repairs_a_multi_cell_campaign() {
        let mut b = block(16);
        b.update(&[1, 2, 3, 4, 5]).unwrap();
        b.inject_shadow_fault(0);
        b.inject_shadow_fault(4);
        b.inject_fault_at(ShadowFault::PlaneValid { cell: 9 });
        assert_eq!(b.audit_shadows(), 3);
        assert_eq!(b.scrub_all(), 3);
        assert_eq!(b.audit_shadows(), 0);
        assert_eq!(b.scrub_all(), 0, "second sweep finds nothing");
    }

    #[test]
    fn scrub_tile_repairs_exactly_its_tile() {
        use crate::bitslice::TILE_CELLS;
        // 512 cells = exactly two tiles (TILE_CELLS = 256).
        let mut b = block(2 * TILE_CELLS);
        let words: Vec<u64> = (0..2 * TILE_CELLS as u64).collect();
        b.update(&words).unwrap();
        let tile0 = ShadowFault::PlaneValid { cell: 5 };
        let tile1 = ShadowFault::Plane {
            cell: TILE_CELLS + 7,
            key_bit: 2,
            one_plane: false,
        };
        for fault in [tile0, tile1] {
            b.inject_fault_at(fault);
        }
        assert_eq!(b.audit_shadows(), 2);
        // Each scrub repairs only the faults whose fault.tile() matches.
        assert_eq!(b.scrub_tile(tile1.tile()), 1);
        assert_eq!(b.audit_shadows(), 1, "tile-0 fault untouched");
        assert_eq!(b.scrub_tile(tile0.tile()), 1);
        assert_eq!(b.audit_shadows(), 0);
        assert_eq!(b.scrub_tile(0), 0, "repair is idempotent");
        // A block smaller than one tile: the ragged tile still scrubs.
        let mut small = block(128);
        small.update(&[1, 2, 3]).unwrap();
        small.inject_fault_at(ShadowFault::PlaneValid { cell: 127 });
        assert_eq!(small.scrub_tile(0), 1, "ragged tail tile");
    }

    #[test]
    fn oracle_vector_is_counter_neutral_and_fault_immune() {
        use crate::config::FidelityMode;
        let mut b = block(8);
        b.update(&[5, 9, 5]).unwrap();
        b.inject_shadow_fault(0);
        b.inject_fault_at(ShadowFault::PlaneValid { cell: 1 });
        let (c, s) = (b.cycles(), b.searches());
        let mut oracle = MatchVector::default();
        b.oracle_vector_into(5, &mut oracle);
        assert_eq!((b.cycles(), b.searches()), (c, s), "counter neutral");
        assert_eq!(oracle.first(), Some(0));
        assert_eq!(oracle.count(), 2, "faulted shadows don't affect it");
        b.scrub_all();
        for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            b.set_fidelity(fidelity);
            assert_eq!(b.search_vector(5), oracle, "{fidelity:?}");
        }
    }

    #[test]
    fn fidelity_switchable_in_place() {
        use crate::config::FidelityMode;
        let mut b = block(16);
        b.update(&[4, 9]).unwrap();
        let before = b.search_vector(9);
        b.set_fidelity(FidelityMode::Turbo);
        assert_eq!(b.search_vector(9), before);
        b.set_fidelity(FidelityMode::BitAccurate);
        assert_eq!(b.search_vector(9), before);
    }
}
