//! The exact-match candidate index of a binary [`CamUnit`].
//!
//! A binary cell matches a key exactly when it is valid and stores the
//! key's low `data_width` bits, so a binary unit can tell which blocks
//! may answer a key without broadcasting it — the key-addressed RAM of
//! Nguyen et al.'s RAM-based CAM (PAPERS.md). `ExactIndex` is that
//! lookup: a flat open-addressing table of `(masked key, block) → live
//! copies`, one per binary unit. A Turbo search on the unit runs a
//! candidate walk: it visits, in fill order, only the blocks the table
//! names for a key plus every suspect block (one with a shadow fault
//! injected since its planes were last fully repaired, so they may
//! answer a key it holds no copy of; each group lists its suspects, so
//! nothing scans the group for them), and folds each visited block's
//! answer into the key's encoded answer. Every block the key skips or
//! misses is owed the all-miss search a full walk would have charged,
//! and the unit charges those by group, not block by block, so the walk
//! costs O(its candidates) whatever the group's capacity. The
//! counter-neutral deletion probes use the same candidates on both
//! tiers.
//!
//! The table is derived state like the bit-sliced planes, but it is
//! keyed by the DSP cell models, never by the planes: the unit adds the
//! word a cell is programmed with, removes the word an invalidated cell
//! held, and clears the table with the cells. The scrubber's sweep
//! re-derives it from the cells and scores divergence, as does a
//! divergence the sampled cross-check catches;
//! [`CamUnit::audit_exact_index`] counts divergence without repairing.
//! [`FaultSite::ExactIndex`] can corrupt it;
//! [`FaultPlan`](crate::faults::FaultPlan) never draws that site.
//!
//! # The trusted-index rule
//!
//! Under Priority encoding only a key's first hit is its answer, so once
//! a candidate walk has one it charges each later candidate that is not
//! suspect one matching search without running its kernel. That is
//! exactly what the kernel would answer while every entry is one the
//! cells imply: such a block holds a valid copy of the key, and a block
//! that is not suspect has planes equal to its cells. A
//! [`FaultSite::ExactIndex`] injection can conjure an entry for a block
//! holding no copy, so from any injection until the table is next
//! re-derived (by the sweep audit or a cross-check rebuild) or cleared
//! (by `reset` or a repartition), the table is not trusted and every
//! candidate's kernel runs.
//!
//! # Layout
//!
//! Two parallel slot arrays, a power of two long: a tag
//! `key | block << 48` (keys never exceed the 48-bit datapath) and the
//! live copies behind it, 10 bytes a slot. So a unit carries an index
//! only when its block ids fit the tag's 16 high bits and a block's
//! cells fit a 16-bit copy count. Slots are placed by linear probing
//! from a Fibonacci hash of the key alone, so every block
//! holding a key sits in the one probe run that starts at the key's
//! home slot, and a lookup reads only tags. Removal shifts the run back
//! instead of leaving tombstones, and nothing allocates per key: the
//! arrays are sized once for every cell of the unit to hold a distinct
//! entry at most three quarters full, and only an injected fault can
//! push the table past that and make it grow.
//!
//! [`CamUnit`]: crate::unit::CamUnit
//! [`CamUnit::audit_exact_index`]: crate::unit::CamUnit::audit_exact_index
//! [`FaultSite::ExactIndex`]: crate::faults::FaultSite::ExactIndex

use serde::{Deserialize, Serialize};

use crate::block::CamBlock;
use crate::config::UnitConfig;
use crate::kind::CamKind;

/// Bits of a tag holding the key (the DSP datapath width).
const KEY_BITS: u32 = 48;
/// Mask selecting a tag's key.
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;
/// The tag of a free slot; no `(key, block)` pair of a unit with at
/// most [`MAX_BLOCKS`] blocks encodes to it.
const EMPTY: u64 = u64::MAX;
/// The smallest table.
const MIN_SLOTS: usize = 16;

/// Most blocks a unit may have to carry an index: block ids fill the
/// tag's 16 high bits, with the all-ones id left to [`EMPTY`].
const MAX_BLOCKS: usize = (1 << (64 - KEY_BITS)) - 1;

/// Whether a unit of this geometry can carry an index: a binary unit
/// whose block ids fit a tag and whose blocks' cells fit a copy count.
/// Ternary and range entries can match keys other than their stored
/// word, so those units keep walking every block.
pub(crate) fn indexable(config: &UnitConfig) -> bool {
    config.block.cell.kind == CamKind::Binary
        && config.num_blocks <= MAX_BLOCKS
        && config.block.block_size <= usize::from(u16::MAX)
}

fn tag(key: u64, block: usize) -> u64 {
    debug_assert!(key <= KEY_MASK && block < MAX_BLOCKS);
    key | (block as u64) << KEY_BITS
}

/// The `(masked key, block) → live copies` table of one binary unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ExactIndex {
    /// `key | block << 48` per slot, [`EMPTY`] when free.
    tags: Vec<u64>,
    /// Live copies of the slot's key in the slot's block (0 when free).
    copies: Vec<u16>,
    /// Occupied slots.
    len: usize,
    /// Whether [`ExactIndex::inject_fault`] ran since the table was last
    /// derived from the cells or cleared: until then it may name a block
    /// that holds no copy of a key.
    faulted: bool,
}

impl ExactIndex {
    /// The slot a key's probe run starts at.
    fn home(&self, key: u64) -> usize {
        let bits = self.tags.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The slot holding `tag` (`true`), or the free slot that ends its
    /// probe run (`false`).
    fn find(&self, tag: u64) -> (usize, bool) {
        let mask = self.tags.len() - 1;
        let mut i = self.home(tag & KEY_MASK);
        loop {
            match self.tags[i] {
                t if t == tag => return (i, true),
                EMPTY => return (i, false),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Record one more live copy of (masked) `key` in `block`.
    pub(crate) fn add(&mut self, key: u64, block: usize) {
        if 4 * (self.len + 1) > 3 * self.tags.len() {
            self.grow();
        }
        let tag = tag(key, block);
        let (i, found) = self.find(tag);
        if !found {
            self.tags[i] = tag;
            self.len += 1;
        }
        self.copies[i] += 1;
    }

    /// Drop one live copy of `key` in `block`. Returns `false` when the
    /// table held none: a divergence the next audit repairs.
    pub(crate) fn remove(&mut self, key: u64, block: usize) -> bool {
        let (i, found) = self.find(tag(key, block));
        if found {
            self.copies[i] -= 1;
            if self.copies[i] == 0 {
                self.vacate(i);
            }
        }
        found
    }

    /// Free slot `i` by shifting the rest of its probe run back, so no
    /// run ever holds a gap.
    fn vacate(&mut self, mut i: usize) {
        let mask = self.tags.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let t = self.tags[j];
            if t == EMPTY {
                break;
            }
            // The entry at `j` may move back to `i` when `i` lies
            // (cyclically) between its home and `j`.
            let home = self.home(t & KEY_MASK);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(i) & mask {
                self.tags[i] = t;
                self.copies[i] = self.copies[j];
                i = j;
            }
        }
        self.tags[i] = EMPTY;
        self.copies[i] = 0;
        self.len -= 1;
    }

    /// An empty table sized to take `entries` entries without growing.
    pub(crate) fn with_room(entries: usize) -> Self {
        let slots = (4 * entries / 3 + 1).next_power_of_two().max(MIN_SLOTS);
        ExactIndex {
            tags: vec![EMPTY; slots],
            copies: vec![0; slots],
            len: 0,
            faulted: false,
        }
    }

    /// Double the arrays and re-place every entry.
    fn grow(&mut self) {
        let slots = 2 * self.tags.len();
        let tags = std::mem::replace(&mut self.tags, vec![EMPTY; slots]);
        let copies = std::mem::replace(&mut self.copies, vec![0; slots]);
        for (t, c) in tags.into_iter().zip(copies) {
            if t != EMPTY {
                let (i, _) = self.find(t);
                self.tags[i] = t;
                self.copies[i] = c;
            }
        }
    }

    /// Visit every block holding at least one live copy of (masked)
    /// `key`, in table order.
    pub(crate) fn for_each_block(&self, key: u64, mut visit: impl FnMut(usize)) {
        let mask = self.tags.len() - 1;
        let mut i = self.home(key);
        loop {
            let t = self.tags[i];
            if t == EMPTY {
                return;
            }
            if t & KEY_MASK == key {
                visit((t >> KEY_BITS) as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether every entry is one the cells imply: no fault was injected
    /// since the table was last derived or cleared. A block a trusted
    /// table names holds a valid copy of the key, so planes that equal
    /// its cells answer it a match.
    pub(crate) fn is_trusted(&self) -> bool {
        !self.faulted
    }

    /// Forget every entry, keeping the arrays (the unit's reset and
    /// repartition clear every cell).
    pub(crate) fn clear(&mut self) {
        self.faulted = false;
        if self.len > 0 {
            self.tags.fill(EMPTY);
            self.copies.fill(0);
            self.len = 0;
        }
    }

    /// Live copies of `tag` (0 when absent).
    fn copies_of(&self, tag: u64) -> u16 {
        match self.find(tag) {
            (i, true) => self.copies[i],
            _ => 0,
        }
    }

    /// Occupied `(tag, copies)` pairs.
    fn entries(&self) -> impl Iterator<Item = (u64, u16)> + '_ {
        self.tags
            .iter()
            .zip(&self.copies)
            .filter(|(&t, _)| t != EMPTY)
            .map(|(&t, &c)| (t, c))
    }

    /// The table the cells of `blocks` imply: one live copy per valid
    /// cell, under the word its DSP slice stores.
    pub(crate) fn derive(blocks: &[CamBlock]) -> Self {
        let mut index = ExactIndex::with_room(blocks.iter().map(CamBlock::capacity).sum());
        for (b, block) in blocks.iter().enumerate() {
            for word in block.stored() {
                index.add(word, b);
            }
        }
        index
    }

    /// Entries that differ from `expected`: wrong or missing copy
    /// counts, plus entries `expected` does not hold.
    fn divergence_from(&self, expected: &ExactIndex) -> usize {
        let wrong = expected
            .entries()
            .filter(|&(t, c)| self.copies_of(t) != c)
            .count();
        let extra = self
            .entries()
            .filter(|&(t, _)| expected.copies_of(t) == 0)
            .count();
        wrong + extra
    }

    /// Entries that diverge from what the cells of `blocks` imply
    /// (0 for a healthy index). Side-effect free.
    pub(crate) fn divergence(&self, blocks: &[CamBlock]) -> usize {
        self.divergence_from(&ExactIndex::derive(blocks))
    }

    /// Re-derive the table from the cells of `blocks`, adopt it, and
    /// return how many entries diverged — the index's share of a scrub
    /// sweep, like the write buffer's key-index audit.
    pub(crate) fn audit(&mut self, blocks: &[CamBlock]) -> u64 {
        let expected = ExactIndex::derive(blocks);
        let divergent = self.divergence_from(&expected);
        *self = expected;
        divergent as u64
    }

    /// Upset the entry of (masked) `key` in `block`: drop it when
    /// present (walks then skip a block that holds the key), conjure one
    /// live copy when absent (walks then visit a block the planes
    /// answer). The cells are untouched, so an audit repairs it; until
    /// then the table is not [trusted](ExactIndex::is_trusted).
    pub(crate) fn inject_fault(&mut self, key: u64, block: usize) {
        self.faulted = true;
        match self.find(tag(key, block)) {
            (i, true) => self.vacate(i),
            _ => self.add(key, block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks_of(index: &ExactIndex, key: u64) -> Vec<usize> {
        let mut blocks = Vec::new();
        index.for_each_block(key, |b| blocks.push(b));
        blocks.sort_unstable();
        blocks
    }

    #[test]
    fn copies_count_per_block_and_removal_restores_absence() {
        let mut index = ExactIndex::with_room(0);
        assert!(
            blocks_of(&index, 7).is_empty(),
            "a fresh table names nothing"
        );
        assert!(!index.remove(7, 0), "nothing to remove");
        index.add(7, 3);
        index.add(7, 3);
        index.add(7, 0);
        index.add(9, 3);
        assert_eq!(blocks_of(&index, 7), vec![0, 3]);
        assert_eq!(blocks_of(&index, 9), vec![3]);
        assert!(index.remove(7, 3));
        assert_eq!(blocks_of(&index, 7), vec![0, 3], "one copy is left");
        assert!(index.remove(7, 3));
        assert_eq!(blocks_of(&index, 7), vec![0]);
        assert!(!index.remove(7, 3), "no copy is left");
        assert_eq!(index.len, 2);
    }

    #[test]
    fn removal_keeps_every_probe_run_whole_through_growth() {
        // Enough colliding and non-colliding keys to grow the table a few
        // times and wrap probe runs past the end of the arrays.
        let mut index = ExactIndex::with_room(0);
        let keys: Vec<u64> = (0..600u64).map(|i| i * 0x1_0001 % 4099).collect();
        for (i, &key) in keys.iter().enumerate() {
            index.add(key, i % 5);
        }
        for (i, &key) in keys.iter().enumerate().step_by(3) {
            assert!(index.remove(key, i % 5), "key {key}");
        }
        for (i, &key) in keys.iter().enumerate() {
            let held = keys
                .iter()
                .enumerate()
                .any(|(j, &k)| k == key && j % 5 == i % 5 && j % 3 != 0);
            let blocks = blocks_of(&index, key);
            assert_eq!(blocks.contains(&(i % 5)), held, "key {key} block {}", i % 5);
        }
        let rebuilt = {
            let mut fresh = ExactIndex::with_room(0);
            for (i, &key) in keys.iter().enumerate() {
                if i % 3 != 0 {
                    fresh.add(key, i % 5);
                }
            }
            fresh
        };
        assert_eq!(index.divergence_from(&rebuilt), 0);
        assert_eq!(index.len, rebuilt.len);
    }

    #[test]
    fn a_fault_toggles_one_entry_and_divergence_counts_it() {
        let mut index = ExactIndex::with_room(0);
        index.add(5, 1);
        index.add(5, 2);
        let healthy = index.clone();
        assert!(index.is_trusted());
        index.inject_fault(5, 1);
        assert!(!index.is_trusted(), "a fault taints the table");
        assert_eq!(blocks_of(&index, 5), vec![2], "present entry dropped");
        assert_eq!(index.divergence_from(&healthy), 1);
        index.inject_fault(6, 0);
        assert_eq!(blocks_of(&index, 6), vec![0], "absent entry conjured");
        assert_eq!(index.divergence_from(&healthy), 2);
        let mut rebuilt = index.clone();
        assert_eq!(rebuilt.audit(&[]), 2, "both faulted entries diverge");
        assert!(
            rebuilt.is_trusted(),
            "re-deriving the table clears the taint"
        );
        index.clear();
        assert!(index.is_trusted(), "so does clearing it with the cells");
        assert_eq!(index.divergence_from(&ExactIndex::with_room(0)), 0);
        assert!(blocks_of(&index, 5).is_empty());
    }
}
