//! CAM-fronted update queue: a bounded write buffer absorbing
//! update/delete bursts ahead of the replicated DSP write path.
//!
//! Preußer et al. ("DSP Slices as Content-Addressable Update Queues",
//! PAPERS.md) put a tiny DSP-based CAM in front of a big store so writes
//! land at initiation interval 1 and retire into the bulk structure in
//! the background. This module is that design as a Rust architecture:
//!
//! * **capture** — [`CamUnit::update`](crate::unit::CamUnit::update) and
//!   [`delete_first`](crate::unit::CamUnit::delete_first) stage their
//!   payload here in O(1) instead of walking every replicated group
//!   (deletes become *tombstones*), charging the same architectural
//!   counters the inline path would;
//! * **match** — every search path consults a derived key index first;
//!   a query touching an in-flight key flushes the buffer so the answer
//!   is read-your-writes-consistent and bit-identical to the unbuffered
//!   unit;
//! * **drain** — [`StreamingCam`](crate::pipelined::StreamingCam) idle
//!   ticks (and explicit [`drain_write_buffer`]/[`flush_write_buffer`]
//!   calls) retire staged ops into the main unit in FIFO order through
//!   the normal dispatch machinery, including the [`CamRuntime`]
//!   worker pool.
//!
//! The FIFO of [`StagedOp`]s is the *golden* buffer state; the key
//! index is derived acceleration state, exposed to fault injection
//! ([`FaultSite::UpdateQueue`](crate::faults::FaultSite::UpdateQueue))
//! and audited/rebuilt by the background scrubber at the end of every
//! sweep — exactly like the block-level bit-sliced shadow.
//!
//! [`drain_write_buffer`]: crate::unit::CamUnit::drain_write_buffer
//! [`flush_write_buffer`]: crate::unit::CamUnit::flush_write_buffer
//! [`CamRuntime`]: crate::runtime::CamRuntime

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

/// One write-path operation staged in the buffer, FIFO-ordered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StagedOp {
    /// A buffered [`CamUnit::update`](crate::unit::CamUnit::update):
    /// the words to replicate into every group at drain time.
    Insert {
        /// The (width-masked) words of the update, in presentation order.
        words: Vec<u64>,
        /// Unit issue-cycle stamp when the op was absorbed (feeds the
        /// staged-residency histogram at drain).
        absorbed_at: u64,
    },
    /// A buffered [`delete_first`](crate::unit::CamUnit::delete_first):
    /// invalidates the first match of `key` in every group at drain time.
    Tombstone {
        /// The (width-masked) key to delete.
        key: u64,
        /// Unit issue-cycle stamp when the op was absorbed.
        absorbed_at: u64,
    },
}

impl StagedOp {
    /// Word slots this op occupies in the buffer (an insert holds one
    /// slot per word, a tombstone one slot).
    #[must_use]
    pub fn slots(&self) -> usize {
        match self {
            StagedOp::Insert { words, .. } => words.len(),
            StagedOp::Tombstone { .. } => 1,
        }
    }

    /// The issue-cycle stamp recorded when the op was absorbed.
    #[must_use]
    pub fn absorbed_at(&self) -> u64 {
        match *self {
            StagedOp::Insert { absorbed_at, .. } | StagedOp::Tombstone { absorbed_at, .. } => {
                absorbed_at
            }
        }
    }
}

/// A point-in-time read-out of the write buffer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WriteBufferReport {
    /// Word slots currently staged.
    pub depth: usize,
    /// Highest staged depth ever reached.
    pub peak_depth: usize,
    /// Updates absorbed into the buffer (ops, not words).
    pub absorbed_updates: u64,
    /// Words absorbed across all buffered updates.
    pub absorbed_words: u64,
    /// Delete tombstones absorbed.
    pub absorbed_deletes: u64,
    /// Staged ops retired into the main unit.
    pub drained_ops: u64,
    /// Words retired across all drained inserts.
    pub drained_words: u64,
    /// Times staging overflowed the capacity and forced a synchronous
    /// flush (or, for oversized bursts, a fully inline write).
    pub overflows: u64,
    /// Searches that hit an in-flight key and forced a flush.
    pub search_flushes: u64,
    /// Key-index faults injected by the fault layer.
    pub index_faults_injected: u64,
    /// Key-index divergences detected (and repaired) by scrub audits.
    pub index_faults_repaired: u64,
    /// Refcount underflows caught on the drain path: a retiring op
    /// referenced a key the derived index no longer held. Each one is a
    /// detected index divergence, charged to the sweep audit.
    pub index_underflows: u64,
    /// Staged inserts re-applied serially after a pool poisoning
    /// interrupted their dispatch (the transactional-drain repair path).
    pub drain_repairs: u64,
}

/// The bounded content-addressable staging structure fronting a
/// [`CamUnit`](crate::unit::CamUnit). Always present on the unit;
/// inert (and empty) unless [`UnitConfig::write_buffer`]
/// (crate::config::UnitConfig::write_buffer) enables buffering.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WriteBuffer {
    /// Staged ops in absorption order — the golden buffer state.
    fifo: VecDeque<StagedOp>,
    /// Word slots occupied by `fifo` (cached sum of [`StagedOp::slots`]).
    depth: usize,
    /// Derived key → staged-reference-count index answering the
    /// search-path "is this key in flight?" probe in O(1). Rebuilt from
    /// the FIFO after deserialization and by scrub audits; the only
    /// buffer state fault injection may corrupt.
    #[serde(skip)]
    index: HashMap<u64, u32>,
    /// Whether `index` mirrors `fifo` (false after a wire round trip).
    #[serde(skip)]
    index_built: bool,
    peak_depth: usize,
    absorbed_updates: u64,
    absorbed_words: u64,
    absorbed_deletes: u64,
    drained_ops: u64,
    drained_words: u64,
    pub(crate) overflows: u64,
    pub(crate) search_flushes: u64,
    index_faults_injected: u64,
    index_faults_repaired: u64,
    /// Cumulative refcount underflows observed by [`WriteBuffer::pop`].
    index_underflows: u64,
    /// Underflows not yet claimed by a sweep audit (subset of
    /// `index_underflows` pending collection by [`WriteBuffer::audit_index`]).
    unaudited_underflows: u64,
    pub(crate) drain_repairs: u64,
}

impl WriteBuffer {
    /// Word slots currently staged.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether no op is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Staged ops (not word slots) currently queued.
    #[must_use]
    pub fn staged_ops(&self) -> usize {
        self.fifo.len()
    }

    /// The buffer's counters as one copyable report.
    #[must_use]
    pub fn report(&self) -> WriteBufferReport {
        WriteBufferReport {
            depth: self.depth,
            peak_depth: self.peak_depth,
            absorbed_updates: self.absorbed_updates,
            absorbed_words: self.absorbed_words,
            absorbed_deletes: self.absorbed_deletes,
            drained_ops: self.drained_ops,
            drained_words: self.drained_words,
            overflows: self.overflows,
            search_flushes: self.search_flushes,
            index_faults_injected: self.index_faults_injected,
            index_faults_repaired: self.index_faults_repaired,
            index_underflows: self.index_underflows,
            drain_repairs: self.drain_repairs,
        }
    }

    /// Stage an insert of `words` (already admission-checked and
    /// width-masked by the unit) at issue-cycle stamp `now`.
    pub(crate) fn push_insert(&mut self, words: &[u64], now: u64) {
        self.ensure_index();
        for &w in words {
            *self.index.entry(w).or_insert(0) += 1;
        }
        self.depth += words.len();
        self.peak_depth = self.peak_depth.max(self.depth);
        self.absorbed_updates += 1;
        self.absorbed_words += words.len() as u64;
        self.fifo.push_back(StagedOp::Insert {
            words: words.to_vec(),
            absorbed_at: now,
        });
    }

    /// Stage a delete tombstone for (width-masked) `key` at stamp `now`.
    pub(crate) fn push_tombstone(&mut self, key: u64, now: u64) {
        self.ensure_index();
        *self.index.entry(key).or_insert(0) += 1;
        self.depth += 1;
        self.peak_depth = self.peak_depth.max(self.depth);
        self.absorbed_deletes += 1;
        self.fifo.push_back(StagedOp::Tombstone {
            key,
            absorbed_at: now,
        });
    }

    /// Retire the oldest staged op, returning it with its residency in
    /// issue cycles (`now - absorbed_at`, saturating).
    pub(crate) fn pop(&mut self, now: u64) -> Option<(StagedOp, u64)> {
        // Rebuild a dropped index *before* the pop: a lazily rebuilt
        // index must still hold the retiring op's references, or every
        // post-rehydrate drain would read as an underflow.
        self.ensure_index();
        let op = self.fifo.pop_front()?;
        // A retiring op's keys must still be referenced by the derived
        // index; a missing (or zero-count) entry is a refcount underflow
        // — an index divergence, never silently absorbed.
        let mut underflows = 0u64;
        let mut unref = |index: &mut HashMap<u64, u32>, key: u64| match index.get_mut(&key) {
            Some(refs) if *refs > 0 => {
                *refs -= 1;
                if *refs == 0 {
                    index.remove(&key);
                }
            }
            _ => underflows += 1,
        };
        match &op {
            StagedOp::Insert { words, .. } => {
                for &w in words {
                    unref(&mut self.index, w);
                }
                self.drained_words += words.len() as u64;
            }
            StagedOp::Tombstone { key, .. } => unref(&mut self.index, *key),
        }
        if underflows > 0 {
            // Absent injected faults the index mirrors the golden FIFO,
            // so a genuine underflow here is a refcount bug — surface it
            // immediately in debug builds instead of letting the next
            // sweep wrap heal it unnoticed.
            debug_assert!(
                self.index_faults_injected > 0,
                "write-buffer refcount underflow without an injected index fault"
            );
            self.index_underflows += underflows;
            self.unaudited_underflows += underflows;
        }
        self.depth -= op.slots();
        self.drained_ops += 1;
        let residency = now.saturating_sub(op.absorbed_at());
        Some((op, residency))
    }

    /// Whether any staged op references (width-masked) `key` — the
    /// read-your-writes probe of the search paths. Answers from the
    /// derived index, so an injected index fault can make it lie until
    /// the scrubber rebuilds (exactly like a shadow-tier fault).
    pub(crate) fn touched(&mut self, key: u64) -> bool {
        self.ensure_index();
        self.index.contains_key(&key)
    }

    /// Net staged effect on (width-masked) `key`: staged inserts of the
    /// key minus staged tombstones. Scans the golden FIFO — immune to
    /// index faults — so delete decisions stay bit-identical to the
    /// inline path even under an injected fault.
    pub(crate) fn net_of(&self, key: u64) -> i64 {
        let mut net = 0i64;
        for op in &self.fifo {
            match op {
                StagedOp::Insert { words, .. } => {
                    net += words.iter().filter(|&&w| w == key).count() as i64;
                }
                StagedOp::Tombstone { key: k, .. } => {
                    if *k == key {
                        net -= 1;
                    }
                }
            }
        }
        net
    }

    /// Corrupt the derived key index at FIFO slot `slot` (wrapping
    /// modulo the queue length): the slot's key is toggled in the index
    /// — dropped if present (stale-read direction), conjured if absent
    /// (spurious-flush direction). No-op on an empty buffer. The golden
    /// FIFO is never touched, so drains and delete decisions survive.
    pub(crate) fn inject_index_fault(&mut self, slot: usize) {
        if self.fifo.is_empty() {
            return;
        }
        self.ensure_index();
        let key = match &self.fifo[slot % self.fifo.len()] {
            StagedOp::Insert { words, .. } => words.first().copied().unwrap_or(0),
            StagedOp::Tombstone { key, .. } => *key,
        };
        if self.index.remove(&key).is_none() {
            self.index.insert(key, 1);
        }
        self.index_faults_injected += 1;
    }

    /// Rebuild the derived key index from the golden FIFO and count the
    /// entries that diverged — the buffer's share of a scrub sweep.
    /// Returns the number of divergent index entries repaired.
    pub(crate) fn audit_index(&mut self) -> u64 {
        // Underflows caught on the drain path are divergences that
        // already surfaced; the audit claims them exactly once.
        let underflows = std::mem::take(&mut self.unaudited_underflows);
        if !self.index_built {
            // Never built (fresh or just deserialized): build silently,
            // nothing has been served from it since.
            self.rebuild_index();
            self.index_faults_repaired += underflows;
            return underflows;
        }
        let expected = self.expected_index();
        let divergent = expected
            .iter()
            .filter(|(k, refs)| self.index.get(k) != Some(refs))
            .count()
            + self
                .index
                .keys()
                .filter(|k| !expected.contains_key(k))
                .count();
        self.index = expected;
        let divergent = divergent as u64 + underflows;
        self.index_faults_repaired += divergent;
        divergent
    }

    /// Drop the derived index so it is lazily rebuilt — the
    /// [`rehydrate`](crate::unit::CamUnit::rehydrate) wire-round-trip
    /// model for the buffer's `#[serde(skip)]` state.
    pub(crate) fn reset_transients(&mut self) {
        self.index = HashMap::new();
        self.index_built = false;
    }

    fn ensure_index(&mut self) {
        if !self.index_built {
            self.rebuild_index();
        }
    }

    fn rebuild_index(&mut self) {
        self.index = self.expected_index();
        self.index_built = true;
    }

    fn expected_index(&self) -> HashMap<u64, u32> {
        let mut index: HashMap<u64, u32> = HashMap::new();
        for op in &self.fifo {
            match op {
                StagedOp::Insert { words, .. } => {
                    for &w in words {
                        *index.entry(w).or_insert(0) += 1;
                    }
                }
                StagedOp::Tombstone { key, .. } => *index.entry(*key).or_insert(0) += 1,
            }
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_depth_and_residency() {
        let mut b = WriteBuffer::default();
        b.push_insert(&[1, 2, 3], 10);
        b.push_tombstone(2, 12);
        assert_eq!(b.depth(), 4);
        assert_eq!(b.staged_ops(), 2);
        assert!(b.touched(1) && b.touched(2) && b.touched(3));
        assert!(!b.touched(4));
        let (op, residency) = b.pop(20).unwrap();
        assert!(matches!(op, StagedOp::Insert { ref words, .. } if words == &[1, 2, 3]));
        assert_eq!(residency, 10);
        assert_eq!(b.depth(), 1);
        assert!(!b.touched(1), "drained words leave the index");
        assert!(b.touched(2), "the tombstone still holds key 2");
        let (op, residency) = b.pop(13).unwrap();
        assert!(matches!(op, StagedOp::Tombstone { key: 2, .. }));
        assert_eq!(residency, 1);
        assert!(b.is_empty());
        assert!(b.pop(0).is_none());
        let r = b.report();
        assert_eq!(r.absorbed_updates, 1);
        assert_eq!(r.absorbed_words, 3);
        assert_eq!(r.absorbed_deletes, 1);
        assert_eq!(r.drained_ops, 2);
        assert_eq!(r.drained_words, 3);
        assert_eq!(r.peak_depth, 4);
    }

    #[test]
    fn net_of_scans_the_golden_fifo() {
        let mut b = WriteBuffer::default();
        b.push_insert(&[5, 5, 9], 0);
        b.push_tombstone(5, 1);
        assert_eq!(b.net_of(5), 1);
        assert_eq!(b.net_of(9), 1);
        assert_eq!(b.net_of(7), 0);
        // Index corruption must not perturb net_of.
        b.inject_index_fault(0);
        assert_eq!(b.net_of(5), 1);
    }

    #[test]
    fn injected_index_fault_is_detected_and_repaired() {
        let mut b = WriteBuffer::default();
        b.push_insert(&[4, 8], 0);
        b.inject_index_fault(0);
        assert!(!b.touched(4), "fault dropped key 4 from the index");
        let repaired = b.audit_index();
        assert!(repaired >= 1, "audit must catch the divergence");
        assert!(b.touched(4), "audit rebuilt the index");
        assert_eq!(b.audit_index(), 0, "clean after repair");
        assert_eq!(b.report().index_faults_injected, 1);
        assert!(b.report().index_faults_repaired >= 1);
    }

    #[test]
    fn refcount_underflow_is_counted_and_claimed_by_the_audit() {
        let mut b = WriteBuffer::default();
        b.push_insert(&[4, 8], 0);
        // Drop key 4 from the derived index (stale-read direction); the
        // injected-fault counter also licenses the underflow that pop()
        // is about to hit (the debug_assert stays quiet).
        b.inject_index_fault(0);
        assert!(!b.touched(4));
        let (op, _) = b.pop(1).unwrap();
        assert!(matches!(op, StagedOp::Insert { ref words, .. } if words == &[4, 8]));
        let report = b.report();
        assert_eq!(
            report.index_underflows, 1,
            "unref of the missing key 4 must be counted, not saturated away"
        );
        // The sweep audit claims the underflow as a detected divergence.
        assert!(b.audit_index() >= 1, "audit must report the underflow");
        assert!(b.report().index_faults_repaired >= 1);
        assert_eq!(b.audit_index(), 0, "claimed exactly once");
        assert_eq!(b.report().index_underflows, 1, "cumulative count stays");
    }

    #[test]
    fn underflow_pending_across_a_transient_reset_still_reaches_the_audit() {
        let mut b = WriteBuffer::default();
        b.push_insert(&[9], 0);
        b.inject_index_fault(0);
        b.pop(1).unwrap();
        assert_eq!(b.report().index_underflows, 1);
        // A wire round trip drops the derived index but the detected
        // underflow is architectural state and must still be charged.
        b.reset_transients();
        assert_eq!(b.audit_index(), 1, "rebuild still claims the underflow");
        assert_eq!(b.audit_index(), 0);
    }

    #[test]
    fn rehydrated_index_rebuilds_lazily_without_counting_faults() {
        let mut b = WriteBuffer::default();
        b.push_insert(&[7], 0);
        b.reset_transients();
        assert_eq!(b.audit_index(), 0, "first build is not a repair");
        assert!(b.touched(7));
        let mut c = WriteBuffer::default();
        c.push_tombstone(3, 0);
        c.reset_transients();
        assert!(c.touched(3), "touched() rebuilds on demand too");
    }
}
