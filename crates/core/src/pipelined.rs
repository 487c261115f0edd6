//! Cycle-accurate streaming operation of a CAM unit.
//!
//! The transaction-level API on [`CamUnit`] answers a search in the same
//! call; real hardware answers `search_latency` cycles later while new
//! operations keep issuing every cycle (initiation interval 1). This
//! module provides that view: [`StreamingCam`] implements
//! [`dsp_cam_sim::Clocked`], accepts at most one operation per cycle,
//! applies it at its issue edge and holds it in an issue-ordered retire
//! queue, one per datapath (writes and searches), until its retire edge
//! — so Table VI/VIII's "throughput = frequency" rows can be
//! *demonstrated*, not just computed.
//!
//! A queue entry is the only record of an op in flight: it owns the op,
//! its cycle stamps and its answer. At the retire edge the completion
//! leaves with its stamps, and a write's content effect, built from the
//! op the entry owns, joins the write journal if one is on (see
//! [`crate::journal`]). A crash ([`StreamingCam::purge_in_flight`])
//! hands the entries' ops back unretired.

use std::collections::VecDeque;
#[cfg(feature = "obs")]
use std::sync::Arc;

#[cfg(feature = "obs")]
use dsp_cam_obs::{ObsSink, ScopeId};
use dsp_cam_sim::Clocked;
use serde::{Deserialize, Serialize};

use crate::config::UnitConfig;
use crate::error::{CamError, ConfigError};
use crate::journal::{JournalOp, OpJournal};
use crate::unit::{CamUnit, SearchResult};

/// An operation issued into the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Store up to one bus beat of words.
    Update(Vec<u64>),
    /// Search for a key.
    Search(u64),
    /// Search up to `M` keys in one issue cycle, key *i* served by group
    /// *i* (Section III-C.3).
    SearchMulti(Vec<u64>),
    /// Stream any number of keys through the unit's batched search path
    /// ([`CamUnit::search_stream`]): duplicates deduplicated, unique keys
    /// packed `M` per issue cycle. The op occupies one pipeline slot and
    /// the whole batch retires together; the unit's issue-cycle counter
    /// carries the `ceil(unique / M)` bus cost. On the Turbo tier each
    /// group answers its keys through the key-parallel plane kernel,
    /// `batch_width` keys per pass (see
    /// [`UnitConfig::batch_width`](crate::config::UnitConfig)); results
    /// and counters are identical at every width.
    SearchStream(Vec<u64>),
    /// Delete the first stored match of a key
    /// ([`CamUnit::delete_first`]): a write-path operation, so it retires
    /// at the update latency (and, when a write buffer is configured,
    /// absorbs as a tombstone exactly like the transaction-level call).
    Delete(u64),
}

/// A completed operation emerging from the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Completion {
    /// An update retired (or failed with the recorded error).
    Update(Result<(), CamError>),
    /// A search retired with its result.
    Search(SearchResult),
    /// A multi-query search retired with one result per key (or failed
    /// with the recorded error, e.g. more keys than groups).
    SearchMulti(Result<Vec<SearchResult>, CamError>),
    /// A streamed batch retired with one result per presented key,
    /// duplicates included (the batched path cannot over-subscribe the
    /// groups, so it cannot fail).
    SearchStream(Vec<SearchResult>),
    /// A delete retired; `true` when a stored entry was invalidated.
    Delete(bool),
}

/// One completion's cycle stamps (see [`StreamingCam::drain_retired`]):
/// what attributes end-to-end latency to an operation replayed from a
/// trace.
///
/// `retired - arrival + 1` is the workload-visible retire latency: the
/// configured latency plus however long the op queued behind the single
/// issue slot after it arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireRecord {
    /// Cycle the operation arrived at the unit (trace arrival time; at
    /// most the issue cycle).
    pub arrival: u64,
    /// Cycle the operation took the issue slot.
    pub issued: u64,
    /// Cycle the completion reached the retire edge.
    pub retired: u64,
}

impl RetireRecord {
    /// End-to-end retire latency in cycles: queueing behind the issue
    /// slot plus the configured latency (result visible the cycle after
    /// the retire edge).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.retired - self.arrival + 1
    }
}

/// An operation applied at its issue edge and waiting for its retire
/// edge: it keeps the op itself so a crash can hand it back.
#[derive(Debug)]
struct InFlight {
    op: Op,
    arrival: u64,
    issued: u64,
    done: Completion,
}

/// One datapath's operations in flight, in issue order. Every op waits
/// the same `delay` cycles, so retire order is issue order and the next
/// op to retire is always at the front.
#[derive(Debug)]
struct RetireQueue {
    /// Latency minus one: an op issued in cycle `c` retires at the edge
    /// ending cycle `c + delay`.
    delay: u64,
    ops: VecDeque<InFlight>,
}

impl RetireQueue {
    fn new(latency: u64) -> Self {
        RetireQueue {
            delay: latency - 1,
            ops: VecDeque::new(),
        }
    }

    /// Issue cycle of the op retiring at the edge that ends `cycle`, if
    /// one does.
    fn due(&self, cycle: u64) -> Option<u64> {
        let issued = self.ops.front()?.issued;
        (issued + self.delay <= cycle).then_some(issued)
    }
}

/// A [`CamUnit`] behind a cycle-accurate issue/retire pipeline.
///
/// One issue slot per cycle. An op is applied to the unit at its issue
/// edge and retires `latency - 1` edges later (the update latency for
/// updates and deletes, the search latency for searches); completions
/// retiring at the same edge leave in issue order and carry the cycle
/// at which they retired.
///
/// # Examples
///
/// ```
/// use dsp_cam_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = UnitConfig::builder().block_size(64).num_blocks(2).build()?;
/// let mut cam = StreamingCam::new(config)?;
/// cam.issue(Op::Update(vec![42])).expect("free slot");
/// cam.drain();
/// cam.issue(Op::Search(42)).expect("free slot");
/// cam.drain();
/// let mut retired = Vec::new();
/// cam.drain_retired(&mut retired);
/// assert!(matches!(&retired.last().unwrap().1,
///     Completion::Search(hit) if hit.is_match()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamingCam {
    unit: CamUnit,
    /// The staged op plus its arrival cycle (equal to the issue cycle
    /// for plain [`StreamingCam::issue`], earlier for queued trace
    /// replay through [`StreamingCam::issue_at`]).
    pending: Option<(Op, u64)>,
    /// Ops in flight on the write path (updates, deletes) and on the
    /// search path, indexed by `WRITES` and `SEARCHES`.
    queues: [RetireQueue; 2],
    cycle: u64,
    /// Completions retired and not yet drained, with their stamps, in
    /// retire order.
    retired: Vec<(RetireRecord, Completion)>,
    /// Optional acknowledged-write journal (see [`OpJournal`]): a write
    /// records its content effect at its retire edge — the durability
    /// log cluster failover rebuilds crashed shards from.
    journal: Option<OpJournal>,
    /// The cycle [`StreamingCam::enable_write_journal`] last ran at:
    /// writes issued before it were applied without a journal, so they
    /// retire unjournaled.
    journal_since: u64,
    /// Observability sink plus the interned `"pipeline"` scope the
    /// retire-latency histograms land under.
    #[cfg(feature = "obs")]
    observer: Option<(Arc<ObsSink>, ScopeId)>,
}

impl StreamingCam {
    const WRITES: usize = 0;
    const SEARCHES: usize = 1;

    /// Wrap a fresh unit built from `config`.
    ///
    /// # Errors
    ///
    /// Propagates the configuration errors of [`CamUnit::new`].
    pub fn new(config: UnitConfig) -> Result<Self, ConfigError> {
        Ok(StreamingCam::from_unit(CamUnit::new(config)?))
    }

    /// Wrap an existing unit — the cluster shard-construction hook: the
    /// unit keeps its contents, groups and counters; the pipeline state
    /// (retire queues, cycle) starts fresh at cycle 0.
    #[must_use]
    pub fn from_unit(unit: CamUnit) -> Self {
        let config = *unit.config();
        StreamingCam {
            unit,
            pending: None,
            queues: [
                RetireQueue::new(config.update_latency()),
                RetireQueue::new(config.search_latency()),
            ],
            cycle: 0,
            retired: Vec::new(),
            journal: None,
            journal_since: 0,
            #[cfg(feature = "obs")]
            observer: None,
        }
    }

    /// Swap the wrapped unit for `unit`, returning the old one — the
    /// live-migration cutover hook. The clock and retire queues are
    /// untouched, so in-window latency accounting stays continuous.
    ///
    /// # Panics
    ///
    /// Panics while operations are in flight: a swap under a loaded
    /// pipeline would retire results computed against the old contents,
    /// which is exactly the reordering hazard migration must exclude.
    pub fn replace_unit(&mut self, unit: CamUnit) -> CamUnit {
        assert!(
            !self.in_flight(),
            "unit swap requires a drained pipeline (quiesce first)"
        );
        std::mem::replace(&mut self.unit, unit)
    }

    /// Attach a shared observability sink: the wrapped unit records its
    /// events under the `"unit"` scope, and the pipeline wrapper adds
    /// retire-latency histograms (`search_latency_cycles`,
    /// `update_latency_cycles`) under `"pipeline"`.
    #[cfg(feature = "obs")]
    pub fn attach_observer(&mut self, sink: &Arc<ObsSink>) {
        self.unit.attach_observer(sink);
        self.observer = Some((Arc::clone(sink), sink.register_scope("pipeline")));
    }

    /// Record a completion at the current cycle's retire edge.
    fn retire(&mut self, op: InFlight) {
        let stamp = RetireRecord {
            arrival: op.arrival,
            issued: op.issued,
            retired: self.cycle,
        };
        let done = op.done;
        // The retire edge acknowledges a write: a journal on since before
        // it was applied records what it changed, moved out of the op.
        if op.issued >= self.journal_since {
            if let Some(journal) = &mut self.journal {
                match (op.op, &done) {
                    (Op::Update(words), Completion::Update(Ok(()))) => {
                        journal.append(JournalOp::Update(words));
                    }
                    (Op::Delete(key), Completion::Delete(true)) => {
                        journal.append(JournalOp::Delete(key));
                    }
                    _ => {}
                }
            }
        }
        #[cfg(feature = "obs")]
        if let Some((sink, scope)) = &self.observer {
            let metric = match &done {
                Completion::Update(_) | Completion::Delete(_) => "update_latency_cycles",
                _ => "search_latency_cycles",
            };
            // Result visible the cycle after the retire edge: the
            // configured latency plus any queueing behind the issue slot
            // (arrival == issue for plain `issue`, so the histogram keeps
            // its old meaning outside trace replay).
            sink.observe(*scope, metric, stamp.latency());
        }
        self.retired.push((stamp, done));
    }

    /// The wrapped unit (e.g. to reconfigure groups between phases; doing
    /// so while operations are in flight is the caller's hazard, exactly
    /// as in hardware).
    pub fn unit_mut(&mut self) -> &mut CamUnit {
        &mut self.unit
    }

    /// The wrapped unit, immutably.
    #[must_use]
    pub fn unit(&self) -> &CamUnit {
        &self.unit
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Word slots staged in the wrapped unit's write buffer — reaches 0
    /// under idle ticks alone once the drainer catches up (quiescence).
    #[must_use]
    pub fn buffer_depth(&self) -> usize {
        self.unit.write_buffer_depth()
    }

    /// Audit every block's bit-sliced shadow against the DSP oracle and
    /// return the number of divergent entries — the streaming façade of
    /// [`CamUnit::audit_shadows`] (same counters and obs side effects).
    pub fn audit_shadows(&self) -> usize {
        self.unit.audit_shadows()
    }

    /// Queue one operation for the next clock edge.
    ///
    /// # Errors
    ///
    /// Returns the operation back if the single issue slot for this cycle
    /// is already taken (II = 1).
    pub fn issue(&mut self, op: Op) -> Result<(), Op> {
        self.issue_at(op, self.cycle)
    }

    /// Queue one operation for the next clock edge, stamped with the
    /// cycle it *arrived* at the unit — the trace-replay hook. When a
    /// burst delivers several operations in the same arrival cycle, the
    /// replayer issues them one per tick and each completion's
    /// end-to-end latency (`retired - arrival + 1`, see
    /// [`RetireRecord`]) includes the cycles it queued behind the
    /// single issue slot. Arrivals in the future are clamped to the
    /// current cycle; plain [`StreamingCam::issue`] stamps
    /// `arrival == issue`.
    ///
    /// # Errors
    ///
    /// Returns the operation back if the single issue slot for this cycle
    /// is already taken (II = 1).
    pub fn issue_at(&mut self, op: Op, arrival: u64) -> Result<(), Op> {
        if self.pending.is_some() {
            return Err(op);
        }
        self.pending = Some((op, arrival.min(self.cycle)));
        Ok(())
    }

    /// Start journaling acknowledged content-changing writes (capacity
    /// is the [`OpJournal::over_watermark`] threshold, not a hard cap).
    /// Any previous journal is replaced. Only writes applied from now on
    /// are journaled: writes already in flight retire without a journal
    /// record.
    pub fn enable_write_journal(&mut self, capacity: usize) {
        self.journal = Some(OpJournal::new(capacity));
        self.journal_since = self.cycle;
    }

    /// The acknowledged-write journal, if enabled.
    #[must_use]
    pub fn write_journal(&self) -> Option<&OpJournal> {
        self.journal.as_ref()
    }

    /// The acknowledged-write journal, mutably (truncation and log
    /// marks), if enabled.
    pub fn write_journal_mut(&mut self) -> Option<&mut OpJournal> {
        self.journal.as_mut()
    }

    /// Record an already-acknowledged content effect that bypassed the
    /// pipeline (prefill, migration staging, cutover deletes, rollback
    /// repairs). A no-op when no journal is enabled.
    pub fn journal_direct(&mut self, op: JournalOp) {
        if let Some(journal) = &mut self.journal {
            journal.append(op);
        }
    }

    /// The crash edge: discard everything in flight and the staged op
    /// *without retiring it*. The completions of purged ops never reach
    /// the client, which therefore owns their re-issue: they are handed
    /// back as `(op, arrival)` pairs in issue order, the staged op last.
    /// Effects already applied to the unit stay; a purged write never
    /// reaches its retire edge, so the journal never records it.
    pub fn purge_in_flight(&mut self) -> Vec<(Op, u64)> {
        let in_flight = self.queues.iter().map(|q| q.ops.len()).sum::<usize>();
        let mut purged = Vec::with_capacity(in_flight + 1);
        while let Some(queue) = self.first_out(|q| q.ops.front().map(|op| op.issued)) {
            let Some(op) = self.queues[queue].ops.pop_front() else {
                break;
            };
            purged.push((op.op, op.arrival));
        }
        purged.extend(self.pending.take());
        purged
    }

    /// Issue a batch of operations back to back at initiation interval 1:
    /// each operation takes the issue slot of one cycle and the pipeline
    /// is ticked once per operation. Returns the number of operations
    /// issued. Completions accumulate in issue order; call
    /// [`StreamingCam::drain`] to retire the tail still in flight.
    pub fn issue_batch(&mut self, ops: impl IntoIterator<Item = Op>) -> usize {
        let mut issued = 0;
        for op in ops {
            if self.pending.is_some() {
                // A caller-staged op occupies this cycle's slot; let it go
                // first.
                self.tick();
            }
            self.pending = Some((op, self.cycle));
            self.tick();
            issued += 1;
        }
        issued
    }

    /// Move the completions retired so far onto the end of `out`, each
    /// with its [`RetireRecord`] stamps, in retire order; draining
    /// resets the pipeline's list. A caller that harvests every cycle
    /// reuses one `out`.
    pub fn drain_retired(&mut self, out: &mut Vec<(RetireRecord, Completion)>) {
        out.append(&mut self.retired);
    }

    /// The queue whose front leaves first: of the fronts `ready` names an
    /// issue cycle for, the one issued earliest.
    fn first_out(&self, ready: impl Fn(&RetireQueue) -> Option<u64>) -> Option<usize> {
        let [writes, searches] = &self.queues;
        match (ready(writes), ready(searches)) {
            (Some(w), Some(s)) if w < s => Some(Self::WRITES),
            (Some(_), None) => Some(Self::WRITES),
            (_, Some(_)) => Some(Self::SEARCHES),
            (None, None) => None,
        }
    }

    /// Whether operations are still pending or in flight.
    #[must_use]
    pub fn in_flight(&self) -> bool {
        self.pending.is_some() || self.queues.iter().any(|q| !q.ops.is_empty())
    }

    /// Writes (updates and deletes) applied and not yet retired. At 0,
    /// the write journal (if on) holds every content change made by the
    /// writes applied since it was enabled: a clean mark for a snapshot
    /// epoch.
    #[must_use]
    pub fn writes_in_flight(&self) -> usize {
        self.queues[Self::WRITES].ops.len()
    }

    /// Tick until everything retires.
    pub fn drain(&mut self) {
        while self.in_flight() {
            self.tick();
        }
    }
}

impl Clocked for StreamingCam {
    fn tick(&mut self) {
        if let Some((op, arrival)) = self.pending.take() {
            let (queue, done) = match &op {
                Op::Update(words) => (Self::WRITES, Completion::Update(self.unit.update(words))),
                Op::Search(key) => (Self::SEARCHES, Completion::Search(self.unit.search(*key))),
                Op::SearchMulti(keys) => (
                    Self::SEARCHES,
                    Completion::SearchMulti(self.unit.try_search_multi(keys)),
                ),
                Op::SearchStream(keys) => (
                    Self::SEARCHES,
                    Completion::SearchStream(self.unit.search_stream(keys)),
                ),
                Op::Delete(key) => (
                    Self::WRITES,
                    Completion::Delete(self.unit.delete_first(*key)),
                ),
            };
            self.queues[queue].ops.push_back(InFlight {
                op,
                arrival,
                issued: self.cycle,
                done,
            });
        } else {
            // An idle cycle drains the write buffer within its configured
            // budget and still advances the background scrubber — exactly
            // like hardware background engines stealing unused port
            // cycles (both no-ops without their respective policies).
            let budget = self
                .unit
                .config()
                .write_buffer
                .map_or(0, |w| w.drain_per_tick);
            self.unit.drain_write_buffer(budget);
            self.unit.scrub_tick();
        }
        // The retire edge. One issue per cycle puts at most one op per
        // queue at this edge; the write path is shorter, so a write can
        // meet a search issued one or two cycles before it, and
        // same-edge retirements leave in program order — by issue cycle.
        let now = self.cycle;
        while let Some(queue) = self.first_out(|q| q.due(now)) {
            let Some(op) = self.queues[queue].ops.pop_front() else {
                break;
            };
            self.retire(op);
        }
        self.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnitConfig;

    fn config() -> UnitConfig {
        UnitConfig::builder()
            .data_width(32)
            .block_size(128)
            .num_blocks(8)
            .build()
            .expect("valid")
    }

    /// The completions retired so far, each with its retire cycle.
    fn take_retired(cam: &mut StreamingCam) -> Vec<(u64, Completion)> {
        let mut retired = Vec::new();
        cam.drain_retired(&mut retired);
        retired
            .into_iter()
            .map(|(stamp, done)| (stamp.retired, done))
            .collect()
    }

    #[test]
    fn search_retires_after_exactly_search_latency_cycles() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.issue(Op::Update(vec![42])).unwrap();
        cam.drain();
        take_retired(&mut cam);

        let issue_cycle = cam.cycle();
        cam.issue(Op::Search(42)).unwrap();
        cam.drain();
        let retired = take_retired(&mut cam);
        assert_eq!(retired.len(), 1);
        let (cycle, completion) = &retired[0];
        assert_eq!(
            cycle - issue_cycle,
            cfg.search_latency() - 1,
            "retire edge = issue + latency - 1 (result visible after it)"
        );
        match completion {
            Completion::Search(hit) => assert!(hit.is_match()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_retires_after_update_latency() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.issue(Op::Update(vec![7])).unwrap();
        let mut ticks = 0;
        while cam.in_flight() {
            cam.tick();
            ticks += 1;
        }
        assert_eq!(ticks, cfg.update_latency());
        match &take_retired(&mut cam)[0].1 {
            Completion::Update(Ok(())) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn initiation_interval_one_throughput() {
        // Stream N searches back to back: total cycles = N + latency - 1
        // when fully drained — Table VIII's throughput claim.
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.issue(Op::Update(vec![1, 2, 3, 4])).unwrap();
        cam.drain();
        take_retired(&mut cam);
        let start = cam.cycle();
        let n = 100u64;
        for i in 0..n {
            cam.issue(Op::Search(1 + (i % 4))).unwrap();
            cam.tick();
        }
        cam.drain();
        let total = cam.cycle() - start;
        assert_eq!(total, n + cfg.search_latency() - 1);
        let retired = take_retired(&mut cam);
        assert_eq!(retired.len(), n as usize);
        assert!(retired.iter().all(|(_, c)| matches!(
            c,
            Completion::Search(hit) if hit.is_match()
        )));
    }

    #[test]
    fn one_issue_slot_per_cycle() {
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.issue(Op::Search(1)).unwrap();
        let refused = cam.issue(Op::Search(2));
        assert!(matches!(refused, Err(Op::Search(2))));
        cam.tick();
        cam.issue(Op::Search(2)).unwrap();
    }

    #[test]
    fn results_arrive_in_issue_order() {
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.issue(Op::Update(vec![10, 20])).unwrap();
        cam.drain();
        take_retired(&mut cam);
        for key in [10u64, 99, 20] {
            cam.issue(Op::Search(key)).unwrap();
            cam.tick();
        }
        cam.drain();
        let retired = take_retired(&mut cam);
        let hits: Vec<bool> = retired
            .iter()
            .map(|(_, c)| match c {
                Completion::Search(hit) => hit.is_match(),
                other => unreachable!("only searches issued, got {other:?}"),
            })
            .collect();
        assert_eq!(hits, vec![true, false, true]);
    }

    #[test]
    fn mixed_update_search_streams_stay_ordered_per_pipe() {
        // An update retires two edges before a search issued the cycle
        // after it (6- vs 7-cycle latencies at this size); neither queue
        // loses a completion.
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.issue(Op::Update(vec![5])).unwrap();
        cam.tick();
        cam.issue(Op::Search(5)).unwrap();
        cam.drain();
        let retired = take_retired(&mut cam);
        assert_eq!(retired.len(), 2);
        assert!(matches!(retired[0].1, Completion::Update(Ok(()))));
        match &retired[1].1 {
            Completion::Search(hit) => {
                // The search issued after the update, so it observes it.
                assert!(hit.is_match());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(retired[0].0 < retired[1].0);
    }

    #[test]
    fn same_cycle_retirements_follow_issue_order() {
        // With 7-cycle searches and 6-cycle updates, a search issued at
        // cycle N and an update issued at N+1 retire at the same edge;
        // program order demands the search come out first.
        let cfg = config();
        assert_eq!(cfg.search_latency() - cfg.update_latency(), 1);
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.issue(Op::Update(vec![5])).unwrap();
        cam.drain();
        take_retired(&mut cam);
        cam.issue(Op::Search(5)).unwrap();
        cam.tick();
        cam.issue(Op::Update(vec![6])).unwrap();
        cam.drain();
        let retired = take_retired(&mut cam);
        assert_eq!(retired.len(), 2);
        assert_eq!(retired[0].0, retired[1].0, "both retire at the same edge");
        assert!(
            matches!(&retired[0].1, Completion::Search(hit) if hit.is_match()),
            "the earlier-issued search retires first, got {:?}",
            retired[0].1
        );
        assert!(matches!(retired[1].1, Completion::Update(Ok(()))));
    }

    #[test]
    fn failed_update_reports_through_the_pipe() {
        let cfg = UnitConfig::builder()
            .data_width(32)
            .block_size(2)
            .num_blocks(1)
            .build()
            .unwrap();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.issue(Op::Update(vec![1, 2, 3])).unwrap(); // over capacity
        cam.drain();
        match &take_retired(&mut cam)[0].1 {
            Completion::Update(Err(CamError::Full { rejected, .. })) => assert_eq!(*rejected, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn search_multi_flows_through_the_search_pipe() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.unit_mut().configure_groups(4).unwrap();
        cam.issue(Op::Update(vec![10, 20, 30])).unwrap();
        cam.drain();
        take_retired(&mut cam);
        let issue_cycle = cam.cycle();
        cam.issue(Op::SearchMulti(vec![10, 99, 30, 20])).unwrap();
        cam.drain();
        let retired = take_retired(&mut cam);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].0 - issue_cycle, cfg.search_latency() - 1);
        match &retired[0].1 {
            Completion::SearchMulti(Ok(results)) => {
                let hits: Vec<bool> = results.iter().map(SearchResult::is_match).collect();
                assert_eq!(hits, vec![true, false, true, true]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn search_multi_error_reports_through_the_pipe() {
        let mut cam = StreamingCam::new(config()).unwrap();
        // Single group: two concurrent keys is one too many.
        cam.issue(Op::SearchMulti(vec![1, 2])).unwrap();
        cam.drain();
        match &take_retired(&mut cam)[0].1 {
            Completion::SearchMulti(Err(CamError::TooManyQueries {
                presented,
                capacity,
            })) => {
                assert_eq!((*presented, *capacity), (2, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn search_stream_flows_through_the_search_pipe() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.unit_mut().configure_groups(4).unwrap();
        cam.issue(Op::Update(vec![10, 20, 30])).unwrap();
        cam.drain();
        take_retired(&mut cam);
        let issue_cycle = cam.cycle();
        let issued = cam.unit().issue_cycles();
        // 7 keys (5 unique) exceed the 4 groups: the batched path packs
        // them where SearchMulti would refuse.
        cam.issue(Op::SearchStream(vec![10, 99, 10, 30, 20, 40, 99]))
            .unwrap();
        cam.drain();
        let retired = take_retired(&mut cam);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].0 - issue_cycle, cfg.search_latency() - 1);
        match &retired[0].1 {
            Completion::SearchStream(results) => {
                let hits: Vec<bool> = results.iter().map(SearchResult::is_match).collect();
                assert_eq!(hits, vec![true, false, true, true, true, false, false]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            cam.unit().issue_cycles() - issued,
            2,
            "5 unique keys over 4 groups cost two issue cycles"
        );
    }

    #[test]
    fn search_stream_retires_identically_at_any_batch_width() {
        use crate::config::FidelityMode;
        let stream: Vec<u64> = (0..200u64).map(|i| i * 37 % 150).collect();
        let mut snapshots = Vec::new();
        for batch_width in [1usize, 32] {
            let cfg = UnitConfig::builder()
                .data_width(32)
                .block_size(128)
                .num_blocks(8)
                .fidelity(FidelityMode::Turbo)
                .batch_width(batch_width)
                .build()
                .expect("valid");
            let mut cam = StreamingCam::new(cfg).unwrap();
            cam.unit_mut().configure_groups(4).unwrap();
            cam.issue(Op::Update((0..100u64).collect())).unwrap();
            cam.drain();
            take_retired(&mut cam);
            cam.issue(Op::SearchStream(stream.clone())).unwrap();
            cam.drain();
            let retired = take_retired(&mut cam);
            assert_eq!(retired.len(), 1);
            let results = match &retired[0].1 {
                Completion::SearchStream(results) => results.clone(),
                other => panic!("unexpected {other:?}"),
            };
            snapshots.push((results, cam.unit().issue_cycles(), cam.cycle()));
        }
        assert_eq!(
            snapshots[0], snapshots[1],
            "batch width must not change results, issue cycles, or timing"
        );
    }

    #[test]
    fn issue_batch_streams_at_initiation_interval_one() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.unit_mut().configure_groups(4).unwrap();
        cam.issue_batch([Op::Update(vec![1, 2, 3, 4])]);
        cam.drain();
        take_retired(&mut cam);
        let start = cam.cycle();
        let batch: Vec<Op> = (0..50)
            .map(|i| Op::SearchMulti(vec![1 + (i % 4), 2, 3, 4]))
            .collect();
        assert_eq!(cam.issue_batch(batch), 50);
        cam.drain();
        assert_eq!(
            cam.cycle() - start,
            50 + cfg.search_latency() - 1,
            "II = 1: N ops retire in N + latency - 1 cycles"
        );
        let retired = take_retired(&mut cam);
        assert_eq!(retired.len(), 50);
        assert!(retired.iter().all(|(_, c)| matches!(
            c,
            Completion::SearchMulti(Ok(results)) if results.iter().all(SearchResult::is_match)
        )));
    }

    #[test]
    fn issue_batch_respects_a_staged_op() {
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.issue(Op::Update(vec![5])).unwrap();
        // The staged update must not be clobbered by the batch.
        cam.issue_batch([Op::Search(5)]);
        cam.drain();
        let retired = take_retired(&mut cam);
        assert!(matches!(retired[0].1, Completion::Update(Ok(()))));
        assert!(
            matches!(&retired[1].1, Completion::Search(hit) if hit.is_match()),
            "search issued after the update observes it"
        );
    }

    #[test]
    fn idle_ticks_alone_drain_a_fully_staged_buffer_to_quiescence() {
        use crate::config::WriteBufferConfig;
        let cfg = UnitConfig::builder()
            .data_width(32)
            .block_size(128)
            .num_blocks(8)
            .write_buffer(WriteBufferConfig {
                capacity: 16,
                drain_per_tick: 2,
                bypass: false,
            })
            .build()
            .expect("valid");
        let mut cam = StreamingCam::new(cfg).unwrap();
        // Fill the buffer to capacity with absorbed single-word updates;
        // every tick carries an op, so nothing drains yet.
        for i in 0..16u64 {
            cam.issue(Op::Update(vec![i])).unwrap();
            cam.tick();
        }
        assert_eq!(cam.buffer_depth(), 16, "all 16 words staged");
        // No further ops: idle ticks must reach buffer_depth == 0 on
        // their own — 16 staged ops at 2 per tick need 8 idle ticks.
        for ticks in 1..=8usize {
            cam.tick();
            assert_eq!(cam.buffer_depth(), 16 - 2 * ticks);
        }
        assert_eq!(cam.buffer_depth(), 0, "idle drain reached quiescence");
        cam.drain();
        take_retired(&mut cam);
        // The drained contents answer searches physically.
        cam.issue(Op::Search(11)).unwrap();
        cam.drain();
        assert!(matches!(
            &take_retired(&mut cam)[0].1,
            Completion::Search(hit) if hit.is_match()
        ));
    }

    #[test]
    fn delete_flows_through_the_update_pipe() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.issue(Op::Update(vec![10, 20])).unwrap();
        cam.drain();
        take_retired(&mut cam);
        let issue_cycle = cam.cycle();
        cam.issue(Op::Delete(10)).unwrap();
        cam.tick();
        cam.issue(Op::Delete(99)).unwrap();
        cam.drain();
        let retired = take_retired(&mut cam);
        assert_eq!(retired.len(), 2);
        assert_eq!(
            retired[0].0 - issue_cycle,
            cfg.update_latency() - 1,
            "deletes pay the write-path latency"
        );
        assert!(matches!(retired[0].1, Completion::Delete(true)));
        assert!(matches!(retired[1].1, Completion::Delete(false)));
        cam.issue(Op::Search(10)).unwrap();
        cam.drain();
        assert!(matches!(
            &take_retired(&mut cam)[0].1,
            Completion::Search(miss) if !miss.is_match()
        ));
    }

    #[test]
    fn issue_at_charges_queueing_delay_to_the_retire_latency() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        // Three searches "arrive" in the same cycle; the single issue
        // slot serialises them, so op i queues i cycles.
        let arrival = cam.cycle();
        for key in [1u64, 2, 3] {
            cam.issue_at(Op::Search(key), arrival).unwrap();
            cam.tick();
        }
        cam.drain();
        let mut log = Vec::new();
        cam.drain_retired(&mut log);
        assert_eq!(log.len(), 3);
        for (i, (rec, _)) in log.drain(..).enumerate() {
            assert_eq!(rec.arrival, arrival);
            assert_eq!(rec.issued, arrival + i as u64);
            assert_eq!(
                rec.latency(),
                cfg.search_latency() + i as u64,
                "op {i} queued {i} cycles behind the issue slot"
            );
        }
        // Future arrivals clamp to the issue cycle.
        cam.issue_at(Op::Search(1), u64::MAX).unwrap();
        cam.drain();
        cam.drain_retired(&mut log);
        assert_eq!(log[0].0.latency(), cfg.search_latency());
    }

    #[test]
    fn journal_acks_at_the_retire_edge_only() {
        use crate::journal::JournalOp;
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.enable_write_journal(64);
        cam.issue(Op::Update(vec![42])).unwrap();
        cam.tick();
        assert_eq!(cam.writes_in_flight(), 1, "applied but still in flight");
        assert_eq!(cam.write_journal().unwrap().acked_len(), 0);
        cam.drain();
        assert_eq!(cam.writes_in_flight(), 0);
        let journal = cam.write_journal().unwrap();
        assert_eq!(journal.acked_len(), 1);
        assert_eq!(
            journal.acked().next().unwrap().op,
            JournalOp::Update(vec![42])
        );
        // A missed delete retires without a journal entry.
        cam.issue(Op::Delete(999)).unwrap();
        cam.drain();
        assert_eq!(cam.write_journal().unwrap().acked_len(), 1);
        // A hitting delete is journaled.
        cam.issue(Op::Delete(42)).unwrap();
        cam.drain();
        let acked: Vec<_> = cam.write_journal().unwrap().acked().cloned().collect();
        assert_eq!(acked.len(), 2);
        assert_eq!(acked[1].op, JournalOp::Delete(42));
    }

    #[test]
    fn purge_in_flight_drops_unacked_writes_and_their_completions() {
        use crate::journal::JournalOp;
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.enable_write_journal(64);
        cam.issue(Op::Update(vec![1])).unwrap();
        cam.drain();
        take_retired(&mut cam);
        // One acked write, then two in flight plus one staged.
        let start = cam.cycle();
        cam.issue(Op::Update(vec![2])).unwrap();
        cam.tick();
        cam.issue(Op::Search(1)).unwrap();
        cam.tick();
        cam.issue(Op::Update(vec![3])).unwrap();
        assert_eq!(
            cam.purge_in_flight(),
            vec![
                (Op::Update(vec![2]), start),
                (Op::Search(1), start + 1),
                (Op::Update(vec![3]), start + 2),
            ],
            "purged ops come back in issue order, the staged op last"
        );
        assert!(!cam.in_flight());
        assert!(
            take_retired(&mut cam).is_empty(),
            "nothing retires post-purge"
        );
        assert_eq!(cam.writes_in_flight(), 0);
        for _ in 0..cam.unit().config().search_latency() {
            cam.tick();
        }
        let journal = cam.write_journal().unwrap();
        assert_eq!(journal.acked_len(), 1, "acked prefix survives");
        assert_eq!(
            journal.acked().last().map(|entry| &entry.op),
            Some(&JournalOp::Update(vec![1])),
            "the purged writes never reach the journal"
        );
    }

    /// A write applied before the journal was enabled retires
    /// unjournaled and acknowledges nothing else: the write applied
    /// after it stays unacknowledged until its own retire edge, so a
    /// crash in between leaves it out of the journal.
    #[test]
    fn a_write_applied_before_the_journal_acknowledges_no_later_write() {
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.issue(Op::Update(vec![1])).unwrap();
        cam.tick();
        cam.enable_write_journal(64);
        cam.issue(Op::Update(vec![2])).unwrap();
        cam.tick();
        let mut retired = Vec::new();
        while retired.is_empty() {
            cam.tick();
            cam.drain_retired(&mut retired);
        }
        assert!(
            matches!(&retired[..], [(_, Completion::Update(Ok(())))]),
            "update 1 retired alone: {retired:?}"
        );
        assert!(cam.in_flight(), "update 2 is still in flight");
        let acked: Vec<_> = cam.write_journal().unwrap().acked().cloned().collect();
        assert!(
            acked.is_empty(),
            "journal acked {acked:?} while update 2 is in flight"
        );
        assert_eq!(cam.purge_in_flight().len(), 1, "update 2 purged");
        for _ in 0..cam.unit().config().update_latency() {
            cam.tick();
        }
        assert_eq!(
            cam.write_journal().unwrap().acked_len(),
            0,
            "nothing journaled: update 1 predates the journal, update 2 never retired"
        );
    }

    #[test]
    fn accessors() {
        let mut cam = StreamingCam::new(config()).unwrap();
        assert_eq!(cam.cycle(), 0);
        assert!(cam.unit().is_empty());
        cam.unit_mut().configure_groups(2).unwrap();
        assert_eq!(cam.unit().groups(), 2);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn retire_latency_histograms_match_configured_latencies() {
        use dsp_cam_obs::ObsSink;

        let cfg = config();
        let sink = Arc::new(ObsSink::new());
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.attach_observer(&sink);
        cam.issue(Op::Update(vec![42])).unwrap();
        cam.drain();
        cam.issue(Op::Search(42)).unwrap();
        cam.tick();
        cam.issue(Op::Search(7)).unwrap();
        cam.drain();
        take_retired(&mut cam);

        let snap = sink.snapshot();
        let update = snap
            .registry
            .histogram("pipeline", "update_latency_cycles")
            .expect("update latency observed");
        assert_eq!(update.count(), 1);
        assert_eq!(update.min(), cfg.update_latency());
        assert_eq!(update.max(), cfg.update_latency());
        let search = snap
            .registry
            .histogram("pipeline", "search_latency_cycles")
            .expect("search latency observed");
        assert_eq!(search.count(), 2);
        assert_eq!(search.min(), cfg.search_latency());
        assert_eq!(search.max(), cfg.search_latency());
        // The wrapped unit shares the sink under its own scope.
        cam.unit().publish_metrics();
        let snap = sink.snapshot();
        assert_eq!(
            snap.registry.counter("unit", "issue_cycles"),
            cam.unit().issue_cycles()
        );
    }
}
