//! The write path: the replicated update engine every entry kind shares,
//! deletion, and the CAM-fronted write buffer that stages both.

use dsp48::word::mask_width;
#[cfg(feature = "obs")]
use dsp_cam_obs::{Event, OpKind};

use super::CamUnit;
use crate::cell::Entry;
use crate::error::CamError;
use crate::kind::CamKind;
use crate::mask::RangeSpec;
use crate::update_queue::{StagedOp, WriteBufferReport};

impl CamUnit {
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
        let free = self.capacity() - self.entries_per_group;
        if n > free {
            return Err(CamError::Full {
                rejected: n - free,
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
        self.scrub_tick();
        Ok(())
    }

    /// Replicate `entries` into every group physically, each group
    /// filling its blocks in order from its Block Address Controller's
    /// position — the write engine shared by the inline update path and
    /// the write-buffer drainer. Admission must already be checked; no
    /// unit-level counters move here — block-level counters accrue as
    /// the cells are written. A (custom-routed) group with no blocks
    /// stores nothing. A binary unit's exact-match index gains one live
    /// copy per word, under the block whose cell now stores it (a binary
    /// cell stores exactly the admitted word).
    fn apply_entries_physical<E: Entry>(&mut self, entries: &[E]) {
        for fill in &mut self.fill {
            let mut remaining = entries;
            while !fill.blocks.is_empty() && !remaining.is_empty() {
                let b = fill.blocks[fill.current];
                let block = &mut self.blocks[b];
                let (head, tail) = remaining.split_at(remaining.len().min(block.free_slots()));
                if !head.is_empty() {
                    block
                        .write_entries(head)
                        .expect("admission was checked before writing");
                    if let (Some(exact), Some(words)) = (&mut self.exact, E::as_words(head)) {
                        for &word in words {
                            exact.add(word, b);
                        }
                    }
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
        let key = key & mask_width(self.config.block.cell.data_width);
        let deleted_any = if self.wbuf_enabled() {
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
        self.scrub_tick();
        deleted_any
    }

    /// Invalidate the first match of (masked) `key` in every group — the
    /// physical deletion walk shared by the inline path and the
    /// write-buffer drainer. Each group probes its candidate blocks (see
    /// [`CamUnit::find_candidate`]) in fill order; a binary unit's
    /// exact-match index loses the word the invalidated cell stored.
    /// No unit-level counters move here.
    fn apply_delete_physical(&mut self, key: u64) -> bool {
        let mut deleted_any = false;
        for group in 0..self.groups() {
            let mut held = None;
            let Some(slot) = self.find_candidate(group, key, |block, scratch| {
                let cell = block.probe_first(key, scratch);
                held = cell.and_then(|cell| block.invalidate(cell));
                cell.is_some()
            }) else {
                continue;
            };
            let fill = &mut self.fill[group];
            if let (Some(exact), Some(word)) = (&mut self.exact, held) {
                exact.remove(word, fill.blocks[slot]);
            }
            fill.current = fill.current.min(slot);
            deleted_any = true;
        }
        deleted_any
    }

    /// Whether updates/deletes stage in the write buffer: a policy in
    /// [`UnitConfig::write_buffer`](crate::config::UnitConfig::write_buffer)
    /// must be configured, not in bypass, and the unit must be binary —
    /// ternary and range entries can match keys other than their stored
    /// word, so the buffer's exact-key match port cannot shadow them.
    fn wbuf_enabled(&self) -> bool {
        self.config.write_buffer.is_some_and(|w| !w.bypass)
            && self.config.block.cell.kind == CamKind::Binary
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
    /// golden FIFO (never the buffer's derived index) and the
    /// counter-neutral [`CamBlock::probe_count`] of the candidate blocks
    /// (see [`CamUnit::find_candidate`]), so the decision survives
    /// injected buffer-index faults unchanged.
    fn staged_delete_would_hit(&mut self, key: u64) -> bool {
        let net = self.wbuf.net_of(key);
        if net > 0 {
            return true;
        }
        // Contents are replicated, so any non-empty group decides.
        let Some(group) = self.fill.iter().position(|f| !f.blocks.is_empty()) else {
            return false;
        };
        let needed = 1usize.saturating_add(net.unsigned_abs() as usize);
        let mut found = 0usize;
        self.find_candidate(group, key, |block, scratch| {
            found += block.probe_count(key, needed - found, scratch);
            found >= needed
        })
        .is_some()
    }

    /// Read-your-writes gate of every search path: when any presented
    /// key is in flight in the write buffer, flush it so the physical
    /// answer is current. Consults the derived key index (the buffer's
    /// match port), so untouched searches pay one O(1) probe per key
    /// and never touch the write path.
    pub(super) fn sync_for_keys(&mut self, keys: &[u64]) {
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
        self.observe_all("wbuf", "staged_residency_cycles", &residencies);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::unit::tests::unit;

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
    fn empty_update_is_a_noop() {
        let mut cam = unit(2, 16);
        let c0 = cam.issue_cycles();
        cam.update(&[]).unwrap();
        assert_eq!(cam.issue_cycles(), c0);
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
}
