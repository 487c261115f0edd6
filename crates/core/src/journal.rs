//! Acknowledged-write journal — the durability hook cluster failover
//! rides on.
//!
//! A CAM shard that dies mid-stream loses whatever its unit held, but a
//! failover layer can reconstruct the *logical* contents from two
//! artefacts: a periodic snapshot epoch (a [`rehydrate`]d replica) plus
//! the ordered log of content-changing writes **acknowledged** since
//! that epoch. [`OpJournal`] is that log.
//!
//! The journal hooks the streaming write path
//! ([`StreamingCam`](crate::pipelined::StreamingCam)) at one edge,
//! **retire**: when an update or delete applied while the journal was on
//! reaches its retire edge, its content effect — an admitted update's
//! words, moved out of the retiring op, or the key of a delete that hit
//! — is appended to the log with a monotonic sequence number. A rejected
//! update or a missed delete changes nothing and appends nothing. Writes
//! retire in issue order, so log order is apply order.
//!
//! Until its retire edge a write is applied but not *acknowledged*, and
//! only the pipeline's retire queue holds it. A crash in between purges
//! it unjournaled (the client never saw an acknowledgement, so it must
//! re-issue), while the log is exactly what snapshot + replay must
//! reproduce — the zero-lost-acknowledged-writes contract.
//!
//! Mutations that bypass the pipeline (prefill, migration staging,
//! cutover deletes, rollback repairs) are recorded through
//! [`OpJournal::append`] too, so the `epoch + journal` identity keeps
//! holding for shards the cluster mutates transactionally.
//!
//! The journal is *bounded*: [`OpJournal::over_watermark`] flags when
//! the log outgrows its capacity, telling the failover layer to take a
//! fresh epoch and [`OpJournal::truncate`] at the next clean point (no
//! write in flight on the shard,
//! [`StreamingCam::writes_in_flight`](crate::pipelined::StreamingCam::writes_in_flight)).
//!
//! [`rehydrate`]: crate::unit::CamUnit::rehydrate

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::unit::CamUnit;

/// The content effect of one acknowledged write-path operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalOp {
    /// Words stored (an update that was admitted).
    Update(Vec<u64>),
    /// First stored match of the key invalidated (a delete that hit).
    Delete(u64),
}

impl JournalOp {
    /// Replay this effect against `unit` (write buffer flushed by the
    /// caller once the whole log is applied). Returns `false` when the
    /// unit refuses an update the original accepted — which cannot
    /// happen when the replay target is the epoch the log was cut from.
    pub fn replay(&self, unit: &mut CamUnit) -> bool {
        match self {
            JournalOp::Update(words) => unit.update(words).is_ok(),
            JournalOp::Delete(key) => {
                unit.delete_first(*key);
                true
            }
        }
    }
}

/// One acknowledged entry: a content effect plus its position in the
/// shard's total write order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Monotonic per-shard sequence number (never reset, so log marks
    /// taken before a truncation stay meaningful).
    pub seq: u64,
    /// The content effect.
    pub op: JournalOp,
}

/// Bounded log of acknowledged content-changing writes since the last
/// snapshot epoch (see the module docs for when a write is recorded).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OpJournal {
    /// Acknowledged effects since the last truncation, in ack order.
    acked: VecDeque<JournalEntry>,
    next_seq: u64,
    capacity: usize,
}

impl OpJournal {
    /// An empty journal flagging [`OpJournal::over_watermark`] once the
    /// acked log holds more than `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "a zero-capacity journal cannot bound anything"
        );
        OpJournal {
            acked: VecDeque::new(),
            next_seq: 0,
            capacity,
        }
    }

    /// Record an acknowledged effect: a write at its retire edge, or one
    /// that bypassed the pipeline (prefill, migration staging, cutover,
    /// rollback repair).
    pub fn append(&mut self, op: JournalOp) {
        self.acked.push_back(JournalEntry {
            seq: self.next_seq,
            op,
        });
        self.next_seq += 1;
    }

    /// Acknowledged entries since the last truncation, oldest first.
    pub fn acked(&self) -> impl Iterator<Item = &JournalEntry> {
        self.acked.iter()
    }

    /// Acknowledged entries with `seq >= mark`, oldest first — the
    /// migration-window slice.
    pub fn acked_since(&self, mark: u64) -> impl Iterator<Item = &JournalEntry> {
        self.acked.iter().filter(move |e| e.seq >= mark)
    }

    /// Number of acknowledged entries held.
    #[must_use]
    pub fn acked_len(&self) -> usize {
        self.acked.len()
    }

    /// The sequence number the next acknowledged entry will get — a log
    /// mark for [`OpJournal::acked_since`].
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether the acked log has outgrown its capacity and a fresh
    /// snapshot epoch should truncate it.
    #[must_use]
    pub fn over_watermark(&self) -> bool {
        self.acked.len() > self.capacity
    }

    /// Drop the acked log (a fresh snapshot epoch covers it). Sequence
    /// numbers keep counting.
    pub fn truncate(&mut self) {
        self.acked.clear();
    }

    /// Replay every acknowledged effect in order onto `unit` and flush
    /// its write buffer — the rebuild half of `epoch + journal`.
    /// Returns the number of entries applied.
    pub fn replay_onto(&self, unit: &mut CamUnit) -> usize {
        let mut applied = 0;
        for entry in &self.acked {
            let _admitted = entry.op.replay(unit);
            debug_assert!(
                _admitted,
                "journal replay must re-admit what the shard once admitted"
            );
            applied += 1;
        }
        unit.flush_write_buffer();
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnitConfig;

    fn unit() -> CamUnit {
        CamUnit::new(
            UnitConfig::builder()
                .data_width(16)
                .block_size(8)
                .num_blocks(2)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn truncate_keeps_sequence_numbers_monotonic() {
        let mut j = OpJournal::new(4);
        j.append(JournalOp::Update(vec![7]));
        j.truncate();
        assert_eq!(j.acked_len(), 0);
        j.append(JournalOp::Delete(7));
        assert_eq!(j.acked().next().unwrap().seq, 1, "seq survives truncation");
        assert_eq!(j.acked_since(1).count(), 1);
        assert_eq!(j.acked_since(2).count(), 0);
    }

    #[test]
    fn watermark_trips_above_capacity() {
        let mut j = OpJournal::new(2);
        j.append(JournalOp::Update(vec![1]));
        j.append(JournalOp::Update(vec![2]));
        assert!(!j.over_watermark());
        j.append(JournalOp::Update(vec![3]));
        assert!(j.over_watermark());
        j.truncate();
        assert!(!j.over_watermark());
    }

    #[test]
    fn replay_onto_reproduces_the_logical_contents() {
        let mut live = unit();
        let mut j = OpJournal::new(16);
        for w in [5u64, 9, 5, 12] {
            live.update(&[w]).unwrap();
            j.append(JournalOp::Update(vec![w]));
        }
        live.delete_first(5);
        j.append(JournalOp::Delete(5));

        let mut rebuilt = unit();
        assert_eq!(j.replay_onto(&mut rebuilt), 5);
        let mut a = live.stored_words();
        let mut b = rebuilt.stored_words();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "epoch(empty) + journal == live contents");
    }
}
