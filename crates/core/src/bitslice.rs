//! The transposed (bit-sliced) match engine: the `Turbo` search tier.
//!
//! Where the DSP cells keep one horizontal `(stored, care)` pair each and
//! are compared one cell at a time, [`BitSliceIndex`] keeps the
//! *vertical* layout: for every key bit position `b` it stores two
//! packed N-cell bitmaps,
//!
//! ```text
//! match_if_0[b]  — cells that match when key bit b is 0
//! match_if_1[b]  — cells that match when key bit b is 1
//! ```
//!
//! A cell that *cares* about bit `b` appears in exactly one of the two
//! (the one agreeing with its stored bit); a don't-care cell appears in
//! both. A broadcast search then ANDs one bitmap per key bit into the
//! valid bitmap:
//!
//! ```text
//! match = valid & plane[b0][key_b0] & plane[b1][key_b1] & ...
//! ```
//!
//! which answers all 64 cells of a word per AND — the same vertical
//! trick RAM-based FPGA CAMs use to answer every cell per cycle, and the
//! closest software analogue of the paper's all-cells-in-parallel DSP
//! array.
//!
//! # Cache-blocked tile layout
//!
//! The planes are stored in fixed-size **tiles** of [`TILE_WORDS`]
//! 64-cell word groups ([`TILE_CELLS`] cells): all `2 × width` planes of
//! a tile are contiguous, plane-major, so one tile's working set
//! (`2 × width × TILE_WORDS` words) streams through L1 before the walk
//! moves on. Within tile `t`, the word for plane `p` of word group
//! `t * TILE_WORDS + i` lives at
//!
//! ```text
//! planes[t * 2 * width * TILE_WORDS + p * TILE_WORDS + i]
//! ```
//!
//! where planes `0..width` are `match_if_0[b]` and `width..2 × width`
//! are `match_if_1[b]`. Every piece of index arithmetic — refresh,
//! audit, fault-injection corruption and both search kernels — goes
//! through [`BitSliceIndex::plane_slot`], and the cell → tile mapping is
//! the single function [`tile_of`] (the fault layer's
//! [`ShadowFault::tile`](crate::faults::ShadowFault::tile) reuses it).
//!
//! # Occupancy skip lists
//!
//! Alongside the planes the index keeps one valid-cell count per tile,
//! maintained on every write, delete, scrub repair and injected
//! valid-bit upset. A tile whose count is zero is skipped in O(1) with
//! **zero plane or valid-word loads** — searches over sparse or freshly
//! reset blocks never touch the dead regions' memory at all. Because the
//! count is updated wherever the valid bitmap changes (including the
//! fault-injection hook), the skip decision is always exactly
//! "every valid word in this tile is zero", so the skipping kernels stay
//! bit-identical to a full walk.
//!
//! # Key-parallel batch kernel
//!
//! [`BitSliceIndex::search_batch_into`] answers up to
//! [`MAX_BATCH_WIDTH`] keys in a *single* pass over the tiles: within a
//! live word, each `match_if_0[b]`/`match_if_1[b]` word is AND-ed into
//! register-held accumulators selected by each key's bit `b`, four keys
//! at a time, while the tile is hot in L1 — so a tile streams in from
//! memory once per batch, not once per key. Per-word early exit
//! survives in batch form: a group of four stops as soon as all of its
//! accumulators are dead.
//!
//! Updates stay incremental: re-shadowing one cell touches one bit in
//! each of the `2 × width` plane bitmaps plus the valid bitmap —
//! `O(width)`, the same cheap-update property that motivates using DSP
//! slices as update queues in the first place.

use serde::{Deserialize, Serialize};

use crate::cell::CamCell;
use crate::encoder::MatchVector;

/// Mask selecting the DSP datapath's 48 bits.
const M48: u64 = (1 << 48) - 1;

/// 64-cell word groups per cache tile: one tile's `2 × width` planes
/// (`2 × width × TILE_WORDS` words) are contiguous in memory.
pub const TILE_WORDS: usize = 4;

/// Cells per cache tile ([`TILE_WORDS`] packed 64-cell words).
pub const TILE_CELLS: usize = TILE_WORDS * 64;

/// Maximum key count per [`BitSliceIndex::search_batch_into`] pass (the
/// upper bound of [`UnitConfig::batch_width`](crate::config::UnitConfig)).
pub const MAX_BATCH_WIDTH: usize = 64;

/// The tile holding `cell`'s plane and valid bits — the one cell → tile
/// mapping shared by the plane layout, the scrubber and the fault layer.
#[must_use]
pub fn tile_of(cell: usize) -> usize {
    cell / TILE_CELLS
}

/// How occupied one tile of the index is (the skip list's three states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileState {
    /// No valid cell: searches skip the tile without loading a word.
    Empty,
    /// Some but not all in-range cells valid.
    Partial,
    /// Every in-range cell valid.
    Full,
}

/// Transposed shadow of a block's cells: two packed match bitmaps per
/// key bit position, answering broadcast searches word-parallel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSliceIndex {
    /// Plane words in the cache-blocked tile layout (see the module
    /// docs): tile `t`'s `2 × width` planes are contiguous plane-major,
    /// `match_if_0` for each bit first, then `match_if_1`.
    planes: Vec<u64>,
    /// Packed valid bitmap, one bit per cell.
    valid: Vec<u64>,
    /// Valid-cell count per tile — the occupancy skip list. Zero means
    /// every valid word of the tile is zero, so searches skip it in O(1)
    /// with no plane loads.
    occupancy: Vec<u32>,
    /// Key bits shadowed (the cell data width; care masks never extend
    /// beyond it).
    width: usize,
    len: usize,
}

impl BitSliceIndex {
    /// An index over `len` cells of `width`-bit keys, all invalid.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside the DSP datapath (`1..=48`).
    #[must_use]
    pub fn new(len: usize, width: u32) -> Self {
        assert!(
            (1..=48).contains(&width),
            "width {width} outside the 48-bit datapath"
        );
        let width = width as usize;
        let words = len.div_ceil(64);
        let tiles = words.div_ceil(TILE_WORDS);
        let stride = 2 * width * TILE_WORDS;
        BitSliceIndex {
            // A fresh cell stores 0 with every in-width bit cared: it
            // belongs to every match_if_0 plane and no match_if_1 plane
            // (the valid bitmap hides it until it is written).
            planes: (0..tiles * stride)
                .map(|i| {
                    let plane = (i % stride) / TILE_WORDS;
                    if plane < width {
                        u64::MAX
                    } else {
                        0
                    }
                })
                .collect(),
            valid: vec![0; words],
            occupancy: vec![0; tiles],
            width,
            len,
        }
    }

    /// Number of cells shadowed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index shadows zero cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Key bits shadowed.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of cache tiles the index is blocked into.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.occupancy.len()
    }

    /// Valid cells currently shadowed in `tile` (the skip-list entry).
    ///
    /// # Panics
    ///
    /// Panics if `tile >= tile_count()`.
    #[must_use]
    pub fn tile_occupancy(&self, tile: usize) -> usize {
        self.occupancy[tile] as usize
    }

    /// Cells of the index that fall inside `tile` (the last tile may be
    /// ragged).
    ///
    /// # Panics
    ///
    /// Panics if `tile >= tile_count()`.
    #[must_use]
    pub fn tile_cells(&self, tile: usize) -> usize {
        assert!(tile < self.occupancy.len(), "tile {tile} out of range");
        (self.len - tile * TILE_CELLS).min(TILE_CELLS)
    }

    /// The skip-list state of `tile`: `Empty`, `Partial` or `Full`.
    ///
    /// # Panics
    ///
    /// Panics if `tile >= tile_count()`.
    #[must_use]
    pub fn tile_state(&self, tile: usize) -> TileState {
        let occupancy = self.tile_occupancy(tile);
        if occupancy == 0 {
            TileState::Empty
        } else if occupancy == self.tile_cells(tile) {
            TileState::Full
        } else {
            TileState::Partial
        }
    }

    /// Words of plane data per tile (`2 × width × TILE_WORDS`).
    fn tile_stride(&self) -> usize {
        2 * self.width * TILE_WORDS
    }

    /// Index into `planes` of plane `p` for 64-cell word group `word`:
    /// planes `0..width` are `match_if_0[b]`, planes `width..2 × width`
    /// are `match_if_1[b]`. The single home of the tiled-layout
    /// arithmetic — refresh, audit, corruption hooks and both search
    /// kernels all route through here.
    fn plane_slot(&self, word: usize, plane: usize) -> usize {
        (word / TILE_WORDS) * self.tile_stride() + plane * TILE_WORDS + (word % TILE_WORDS)
    }

    /// Set or clear `cell`'s valid bit, keeping the tile occupancy count
    /// in lock-step with the bitmap (the skip list must agree with the
    /// valid words under every mutation, scrub repair and injected
    /// upset).
    fn set_valid(&mut self, cell: usize, valid: bool) {
        let bit = 1u64 << (cell % 64);
        let word = &mut self.valid[cell / 64];
        let was = *word & bit != 0;
        if valid {
            *word |= bit;
        } else {
            *word &= !bit;
        }
        if was != valid {
            let tile = tile_of(cell);
            if valid {
                self.occupancy[tile] += 1;
            } else {
                self.occupancy[tile] -= 1;
            }
        }
    }

    /// Re-shadow `cell` from its oracle state (called by the block after
    /// every write, masked write, range write, invalidate or clear):
    /// flip the cell's bit in each of the `2 × width` planes, in the
    /// valid bitmap and in the tile occupancy count.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn refresh(&mut self, cell: usize, from: &CamCell) {
        self.program(
            cell,
            from.stored(),
            !from.pattern_mask().value(),
            from.is_valid(),
        );
    }

    /// Program `cell` as storing `stored` under the `care` bit mask
    /// (`1` = compared; only the low `width` bits of either are read),
    /// valid or not — the one write primitive of the index, behind
    /// [`BitSliceIndex::refresh`] and the quad-packed lanes of
    /// [`DenseCamBlock`](crate::dense::DenseCamBlock), whose oracle is
    /// not a [`CamCell`].
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub(crate) fn program(&mut self, cell: usize, stored: u64, care: u64, valid: bool) {
        assert!(cell < self.len, "cell {cell} out of range {}", self.len);
        let bit = 1u64 << (cell % 64);
        let word = cell / 64;
        for b in 0..self.width {
            let cares = care >> b & 1 == 1;
            let one = stored >> b & 1 == 1;
            let zero_slot = self.plane_slot(word, b);
            if !cares || !one {
                self.planes[zero_slot] |= bit;
            } else {
                self.planes[zero_slot] &= !bit;
            }
            let one_slot = self.plane_slot(word, self.width + b);
            if !cares || one {
                self.planes[one_slot] |= bit;
            } else {
                self.planes[one_slot] &= !bit;
            }
        }
        self.set_valid(cell, valid);
    }

    /// Re-shadow every cell (the block's reset path).
    pub fn refresh_all(&mut self, cells: &[CamCell]) {
        assert_eq!(cells.len(), self.len, "cell count changed under the index");
        for (i, cell) in cells.iter().enumerate() {
            self.refresh(i, cell);
        }
    }

    /// Bit-accurate audit pass: fold [`BitSliceIndex::audit_cell`] over
    /// the oracle cells and return the number of cells whose shadowed
    /// state diverges. The occupancy skip list is checked against the
    /// valid bitmap as a structural invariant (it can never legally
    /// diverge — every valid-bit mutation path updates it in the same
    /// call).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is not the cell array this index shadows, or if
    /// the skip list disagrees with the valid bitmap.
    #[must_use]
    pub fn audit(&self, cells: &[CamCell]) -> usize {
        assert_eq!(cells.len(), self.len, "cell count changed under the index");
        for (tile, &count) in self.occupancy.iter().enumerate() {
            let first = tile * TILE_WORDS;
            let popcount: u32 = self.valid[first..(first + TILE_WORDS).min(self.valid.len())]
                .iter()
                .map(|w| w.count_ones())
                .sum();
            assert_eq!(
                count, popcount,
                "tile {tile} occupancy diverged from the valid bitmap"
            );
        }
        cells
            .iter()
            .enumerate()
            .filter(|&(cell, from)| self.audit_cell(cell, from))
            .count()
    }

    /// Flip a cell's membership bit in one `match_if_0` plane — a
    /// fault-injection hook modelling an upset in the transposed shadow
    /// (the DSP oracle is untouched, so [`BitSliceIndex::audit`] must
    /// flag the cell).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn corrupt_plane_bit(&mut self, cell: usize, key_bit: usize) {
        assert!(cell < self.len, "cell {cell} out of range {}", self.len);
        let slot = self.plane_slot(cell / 64, key_bit % self.width);
        self.planes[slot] ^= 1u64 << (cell % 64);
    }

    /// Flip a cell's membership bit in one `match_if_1` plane — the
    /// complementary upset to [`BitSliceIndex::corrupt_plane_bit`].
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn corrupt_one_plane_bit(&mut self, cell: usize, key_bit: usize) {
        assert!(cell < self.len, "cell {cell} out of range {}", self.len);
        let slot = self.plane_slot(cell / 64, self.width + key_bit % self.width);
        self.planes[slot] ^= 1u64 << (cell % 64);
    }

    /// Flip a cell's shadowed valid bit — models an upset in the packed
    /// valid bitmap. The tile occupancy count follows the flip, so the
    /// skip list keeps describing the (now corrupted) bitmap exactly and
    /// the batch and scalar kernels stay bit-identical even mid-fault.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn corrupt_valid_bit(&mut self, cell: usize) {
        assert!(cell < self.len, "cell {cell} out of range {}", self.len);
        let now = self.valid[cell / 64] & (1u64 << (cell % 64)) == 0;
        self.set_valid(cell, now);
    }

    /// Audit a single cell against its oracle: `true` when any of the
    /// cell's `2 × width` plane bits or its valid bit diverges from what
    /// [`BitSliceIndex::refresh`] would program. `O(width)` — the core
    /// the scrubber walks; [`BitSliceIndex::audit`] is the whole-index
    /// fold over it.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn audit_cell(&self, cell: usize, from: &CamCell) -> bool {
        assert!(cell < self.len, "cell {cell} out of range {}", self.len);
        let stored = from.stored() & M48;
        let care = !from.pattern_mask().value() & M48;
        let bit = 1u64 << (cell % 64);
        let word = cell / 64;
        if (self.valid[word] & bit != 0) != from.is_valid() {
            return true;
        }
        (0..self.width).any(|b| {
            let cares = care >> b & 1 == 1;
            let one = stored >> b & 1 == 1;
            let want_zero = !cares || !one;
            let want_one = !cares || one;
            (self.planes[self.plane_slot(word, b)] & bit != 0) != want_zero
                || (self.planes[self.plane_slot(word, self.width + b)] & bit != 0) != want_one
        })
    }

    /// Broadcast `key` into `scratch` as packed match words, reusing the
    /// buffer's allocation: `scratch[w]` bit `i` is the match flag of
    /// cell `w * 64 + i`.
    ///
    /// The caller passes the block-masked key exactly as it would to the
    /// DSP path; plane selection only reads the low `width` bits, which
    /// is the same truncation `P48::new` + the care mask perform. Empty
    /// tiles are skipped via the occupancy list without loading a word.
    pub fn search_into(&self, key: u64, scratch: &mut Vec<u64>) {
        let width = self.width;
        scratch.clear();
        scratch.resize(self.valid.len(), 0);
        live_words(self, |tile, lane, w, mut acc| {
            for b in 0..width {
                if acc == 0 {
                    break;
                }
                let take_one = key >> b & 1 == 1;
                acc &= tile[(b + usize::from(take_one) * width) * TILE_WORDS + lane];
            }
            scratch[w] = acc;
        });
    }

    /// Answer up to [`MAX_BATCH_WIDTH`] keys in a **single pass** over
    /// the planes: per word, each selected `match_if_0[b]`/`match_if_1[b]`
    /// word is AND-ed into register-held accumulators, four keys at a
    /// time, so every tile streams through the cache once for the
    /// whole batch. Each lane group early-exits a word the moment all of
    /// its accumulators are dead, and empty tiles are skipped via the
    /// occupancy list with zero loads.
    ///
    /// `scratch[k]` receives exactly the packed words
    /// [`BitSliceIndex::search_into`] would produce for `keys[k]` —
    /// bit-identical by construction, since AND-ing further planes into
    /// an already-zero accumulator cannot change it.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() > MAX_BATCH_WIDTH` or `scratch` has fewer
    /// buffers than keys.
    pub fn search_batch_into(&self, keys: &[u64], scratch: &mut [Vec<u64>]) {
        assert!(
            scratch.len() >= keys.len(),
            "{} scratch buffers for {} keys",
            scratch.len(),
            keys.len()
        );
        for buf in &mut scratch[..keys.len()] {
            buf.clear();
            buf.resize(self.valid.len(), 0);
        }
        walk_batch(self, keys, |k, w, bits| scratch[k][w] = bits);
    }

    /// Broadcast `key` to every shadowed cell (allocating wrapper around
    /// [`BitSliceIndex::search_into`]).
    #[must_use]
    pub fn search(&self, key: u64) -> MatchVector {
        let mut bits = Vec::new();
        self.search_into(key, &mut bits);
        MatchVector::from_raw(bits, self.len)
    }
}

/// Keys whose accumulators the batch kernel keeps in registers at once.
const LANES: usize = 4;

/// OR the batch kernel's answer for `keys[k]` straight into `out[k]`,
/// the index's cell 0 landing at cell `offset` — the one bridge from the
/// kernel to match vectors (dense and scalar blocks, and the unit's
/// group combine). Returns a mask with bit `k` set when `keys[k]`
/// matched. Panics as [`BitSliceIndex::search_batch_into`] does, or if a
/// vector cannot hold the index at `offset`.
pub(crate) fn search_batch_or(
    index: &BitSliceIndex,
    keys: &[u64],
    out: &mut [MatchVector],
    offset: usize,
) -> u64 {
    let mut hits = 0u64;
    walk_batch(index, keys, |k, w, bits| {
        if bits != 0 {
            out[k].or_word(offset + w * 64, bits);
            hits |= 1 << k;
        }
    });
    hits
}

/// The batch kernel: match every live word [`LANES`] keys at a time and
/// hand each key's output word to `emit(key, word, bits)` (words never
/// emitted are zero).
fn walk_batch(index: &BitSliceIndex, keys: &[u64], mut emit: impl FnMut(usize, usize, u64)) {
    assert!(
        keys.len() <= MAX_BATCH_WIDTH,
        "batch of {} keys exceeds MAX_BATCH_WIDTH {MAX_BATCH_WIDTH}",
        keys.len()
    );
    live_words(index, |tile, lane, w, valid| {
        for (g, lanes) in keys.chunks(LANES).enumerate() {
            let acc = match_lanes(tile, lane, index.width, valid, lanes);
            for (i, &bits) in acc[..lanes.len()].iter().enumerate() {
                emit(g * LANES + i, w, bits);
            }
        }
    });
}

/// Both kernels' walk: visit every word holding a valid cell as
/// `(tile planes, lane within the tile, word, valid bits)`, skipping
/// empty tiles via the occupancy list with no plane or valid-word load.
/// Words never visited answer all-miss.
fn live_words(index: &BitSliceIndex, mut visit: impl FnMut(&[u64], usize, usize, u64)) {
    let stride = index.tile_stride();
    for (t, &occupancy) in index.occupancy.iter().enumerate() {
        if occupancy == 0 {
            continue;
        }
        let tile = &index.planes[t * stride..][..stride];
        let first = t * TILE_WORDS;
        for w in first..(first + TILE_WORDS).min(index.valid.len()) {
            if index.valid[w] != 0 {
                visit(tile, w - first, w, index.valid[w]);
            }
        }
    }
}

/// Match up to [`LANES`] keys against word `lane` of one tile, stopping
/// once every accumulator is dead (unused lanes start dead).
fn match_lanes(tile: &[u64], lane: usize, width: usize, valid: u64, keys: &[u64]) -> [u64; LANES] {
    let mut key = [0u64; LANES];
    let mut acc = [0u64; LANES];
    for (i, &k) in keys.iter().enumerate() {
        key[i] = k;
        acc[i] = valid;
    }
    for b in 0..width {
        let zero = tile[b * TILE_WORDS + lane];
        let one = tile[(b + width) * TILE_WORDS + lane];
        let mut any = 0u64;
        for (a, k) in acc.iter_mut().zip(key) {
            let take_one = 0u64.wrapping_sub(k >> b & 1);
            *a &= zero ^ ((zero ^ one) & take_one);
            any |= *a;
        }
        if any == 0 {
            break;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellConfig;
    use crate::mask::RangeSpec;

    fn shadowed(cells: &[CamCell], width: u32) -> BitSliceIndex {
        let mut idx = BitSliceIndex::new(cells.len(), width);
        idx.refresh_all(cells);
        idx
    }

    #[test]
    fn agrees_with_cells_binary() {
        let mut cells: Vec<CamCell> = (0..8)
            .map(|_| CamCell::new(CellConfig::binary(16)).unwrap())
            .collect();
        cells[0].write(0xBEEF).unwrap();
        cells[3].write(0x0001).unwrap();
        cells[5].write(0xBEEF).unwrap();
        let idx = shadowed(&cells, 16);
        for key in [0xBEEFu64, 0x0001, 0x0002, 0] {
            let oracle: MatchVector = cells.iter_mut().map(|c| c.search(key)).collect();
            assert_eq!(idx.search(key), oracle, "key {key:#x}");
        }
    }

    #[test]
    fn agrees_with_cells_across_word_boundary() {
        // 130 cells spans three packed words with a ragged tail.
        let mut cells: Vec<CamCell> = (0..130)
            .map(|_| CamCell::new(CellConfig::binary(12)).unwrap())
            .collect();
        for (i, cell) in cells.iter_mut().enumerate() {
            if i % 3 != 0 {
                cell.write((i % 7) as u64).unwrap();
            }
        }
        let bitsliced = shadowed(&cells, 12);
        for key in 0..8u64 {
            let oracle: MatchVector = cells.iter_mut().map(|c| c.search(key)).collect();
            assert_eq!(bitsliced.search(key), oracle, "key {key}");
        }
    }

    #[test]
    fn invalid_cells_never_match() {
        let cells: Vec<CamCell> = (0..70)
            .map(|_| CamCell::new(CellConfig::binary(32)).unwrap())
            .collect();
        let idx = shadowed(&cells, 32);
        assert!(!idx.search(0).any(), "empty cells must not match key 0");
    }

    #[test]
    fn ternary_and_range_masks_shadowed() {
        let mut t = CamCell::new(CellConfig::ternary(16, 0x00FF)).unwrap();
        t.write(0x1200).unwrap();
        let mut r = CamCell::new(CellConfig::range_matching(32)).unwrap();
        r.write_range(RangeSpec::new(0x1000, 8).unwrap()).unwrap();
        let mut cells = vec![t, r];
        let idx = shadowed(&cells, 32);
        for key in [0x1234u64, 0x12FF, 0x1334, 0x1000, 0x10FF, 0x1100] {
            let oracle: MatchVector = cells.iter_mut().map(|c| c.search(key)).collect();
            assert_eq!(idx.search(key), oracle, "key {key:#x}");
        }
    }

    #[test]
    fn refresh_tracks_overwrite_and_invalidation() {
        let mut cells = vec![CamCell::new(CellConfig::binary(32)).unwrap()];
        cells[0].write(42).unwrap();
        let mut idx = shadowed(&cells, 32);
        assert!(idx.search(42).any());
        // Overwrite in place: the old planes must be fully cleared.
        cells[0].clear();
        cells[0].write(41).unwrap();
        idx.refresh(0, &cells[0]);
        assert!(!idx.search(42).any(), "stale planes after overwrite");
        assert!(idx.search(41).any());
        // Invalidate: the valid bitmap must hide the cell.
        cells[0].clear();
        idx.refresh(0, &cells[0]);
        assert!(!idx.search(41).any());
        assert!(!idx.search(0).any(), "cleared cell stores 0 but is invalid");
    }

    #[test]
    fn key_truncated_to_datapath() {
        let mut cells = vec![CamCell::new(CellConfig::binary(16)).unwrap()];
        cells[0].write(0xAB).unwrap();
        let idx = shadowed(&cells, 16);
        // Upper bus bits beyond the width mask are ignored (the block
        // masks them before broadcast; the planes only cover `width`).
        assert!(idx.search(0x0000_0000_0000_00AB).any());
    }

    #[test]
    fn search_into_reuses_the_scratch_allocation() {
        let mut cells: Vec<CamCell> = (0..4)
            .map(|_| CamCell::new(CellConfig::binary(8)).unwrap())
            .collect();
        cells[2].write(9).unwrap();
        let idx = shadowed(&cells, 8);
        let mut scratch = vec![u64::MAX; 7]; // stale, oversized
        idx.search_into(9, &mut scratch);
        assert_eq!(scratch, vec![0b100]);
        idx.search_into(1, &mut scratch);
        assert_eq!(scratch, vec![0]);
    }

    #[test]
    fn batch_kernel_matches_scalar_kernel() {
        // Multi-tile index (TILE_CELLS + a ragged second tile) with a
        // mix of valid, invalid, ternary and duplicate entries.
        let n = TILE_CELLS + 70;
        let mut cells: Vec<CamCell> = (0..n)
            .map(|i| {
                if i % 11 == 0 {
                    CamCell::new(CellConfig::ternary(16, 0x000F)).unwrap()
                } else {
                    CamCell::new(CellConfig::binary(16)).unwrap()
                }
            })
            .collect();
        for (i, cell) in cells.iter_mut().enumerate() {
            if i % 5 != 0 {
                cell.write((i % 23) as u64).unwrap();
            }
        }
        let idx = shadowed(&cells, 16);
        let keys: Vec<u64> = (0..MAX_BATCH_WIDTH as u64).map(|k| k % 29).collect();
        for take in [1usize, 7, 32, MAX_BATCH_WIDTH] {
            let batch = &keys[..take];
            let mut bufs: Vec<Vec<u64>> = vec![Vec::new(); take];
            idx.search_batch_into(batch, &mut bufs);
            for (k, &key) in batch.iter().enumerate() {
                let mut scalar = Vec::new();
                idx.search_into(key, &mut scalar);
                assert_eq!(bufs[k], scalar, "W={take}, key {key}");
            }
        }
    }

    #[test]
    fn occupancy_tracks_writes_deletes_and_corruption() {
        let n = TILE_CELLS + 10; // two tiles, second ragged
        let mut cells: Vec<CamCell> = (0..n)
            .map(|_| CamCell::new(CellConfig::binary(8)).unwrap())
            .collect();
        let mut idx = BitSliceIndex::new(n, 8);
        idx.refresh_all(&cells);
        assert_eq!(idx.tile_count(), 2);
        assert_eq!(idx.tile_state(0), TileState::Empty);
        assert_eq!(idx.tile_state(1), TileState::Empty);

        // Fill tile 0 completely, one cell of tile 1.
        for (i, cell) in cells.iter_mut().enumerate().take(TILE_CELLS + 1) {
            cell.write((i % 50) as u64).unwrap();
            idx.refresh(i, cell);
        }
        assert_eq!(idx.tile_state(0), TileState::Full);
        assert_eq!(idx.tile_occupancy(0), TILE_CELLS);
        assert_eq!(idx.tile_state(1), TileState::Partial);
        assert_eq!(idx.tile_occupancy(1), 1);

        // Delete back down: tile 1 empties, tile 0 turns partial.
        cells[TILE_CELLS].clear();
        idx.refresh(TILE_CELLS, &cells[TILE_CELLS]);
        assert_eq!(idx.tile_state(1), TileState::Empty);
        cells[3].clear();
        idx.refresh(3, &cells[3]);
        assert_eq!(idx.tile_state(0), TileState::Partial);
        assert_eq!(idx.tile_occupancy(0), TILE_CELLS - 1);

        // An injected valid-bit upset moves the count with the bitmap,
        // both directions, and audit's structural invariant holds.
        idx.corrupt_valid_bit(3);
        assert_eq!(idx.tile_occupancy(0), TILE_CELLS);
        idx.corrupt_valid_bit(3);
        assert_eq!(idx.tile_occupancy(0), TILE_CELLS - 1);
        assert_eq!(idx.audit(&cells), 0);

        // Refreshing an already-valid cell must not double-count.
        idx.refresh(5, &cells[5]);
        assert_eq!(idx.tile_occupancy(0), TILE_CELLS - 1);
    }

    #[test]
    fn empty_tiles_are_skipped_but_answers_are_exact() {
        // Three tiles; only the middle one holds entries.
        let n = 3 * TILE_CELLS;
        let mut cells: Vec<CamCell> = (0..n)
            .map(|_| CamCell::new(CellConfig::binary(8)).unwrap())
            .collect();
        for (i, cell) in cells.iter_mut().enumerate().skip(TILE_CELLS).take(40) {
            cell.write((i % 13) as u64).unwrap();
        }
        let idx = shadowed(&cells, 8);
        assert_eq!(idx.tile_state(0), TileState::Empty);
        assert_eq!(idx.tile_state(1), TileState::Partial);
        assert_eq!(idx.tile_state(2), TileState::Empty);
        for key in 0..14u64 {
            let oracle: MatchVector = cells.iter_mut().map(|c| c.search(key)).collect();
            assert_eq!(idx.search(key), oracle, "key {key}");
        }
    }

    #[test]
    fn tile_of_maps_boundaries() {
        assert_eq!(tile_of(0), 0);
        assert_eq!(tile_of(TILE_CELLS - 1), 0);
        assert_eq!(tile_of(TILE_CELLS), 1);
        assert_eq!(tile_of(2 * TILE_CELLS + 5), 2);
    }

    #[test]
    #[should_panic(expected = "outside the 48-bit datapath")]
    fn zero_width_rejected() {
        let _ = BitSliceIndex::new(8, 0);
    }
}
