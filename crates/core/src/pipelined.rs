//! Cycle-accurate streaming operation of a CAM unit.
//!
//! The transaction-level API on [`CamUnit`] answers a search in the same
//! call; real hardware answers `search_latency` cycles later while new
//! operations keep issuing every cycle (initiation interval 1). This
//! module provides that view: [`StreamingCam`] implements
//! [`dsp_cam_sim::Clocked`], accepts at most one operation per
//! cycle, and delivers completions through latency pipes built from
//! [`dsp_cam_sim::Pipe`] — so Table VI/VIII's "throughput = frequency"
//! rows can be *demonstrated*, not just computed.

#[cfg(feature = "obs")]
use std::sync::Arc;

#[cfg(feature = "obs")]
use dsp_cam_obs::{ObsSink, ScopeId};
use dsp_cam_sim::{Clocked, Pipe};
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
    /// ([`CamUnit::delete_first`]): a write-path operation, so it flows
    /// through the update pipe (and, when a write buffer is configured,
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

/// One entry of the pipeline's retire log (see
/// [`StreamingCam::enable_retire_log`]): the cycle stamps needed to
/// attribute end-to-end latency to an operation replayed from a trace.
///
/// `retired - arrival + 1` is the workload-visible retire latency: the
/// pipe latency plus however long the op queued behind the single issue
/// slot after it arrived.
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
    /// slot plus the pipe latency (result visible the cycle after the
    /// retire edge).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.retired - self.arrival + 1
    }
}

/// A [`CamUnit`] behind a cycle-accurate issue/retire pipeline.
///
/// One issue slot per cycle; both latency pipes advance exactly once per
/// [`Clocked::tick`]; completions carry the cycle at which they retired.
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
/// let retired = cam.drain_retired();
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
    /// Pipes carry `(arrival, issue_cycle, completion)` so the retire
    /// edge can attribute end-to-end latency.
    update_pipe: Pipe<(u64, u64, Completion)>,
    search_pipe: Pipe<(u64, u64, Completion)>,
    cycle: u64,
    retired: Vec<(u64, Completion)>,
    /// Optional replay hook: `(arrival, issued, retired)` stamps per
    /// completion, in retire order.
    retire_log: Option<Vec<RetireRecord>>,
    /// Optional acknowledged-write journal (see [`OpJournal`]): write
    /// ops record their content effect at the apply edge and are
    /// acknowledged at the retire edge — the durability log cluster
    /// failover rebuilds crashed shards from.
    journal: Option<OpJournal>,
    /// Observability sink plus the interned `"pipeline"` scope the
    /// retire-latency histograms land under.
    #[cfg(feature = "obs")]
    observer: Option<(Arc<ObsSink>, ScopeId)>,
}

impl StreamingCam {
    /// Wrap a fresh unit built from `config`.
    ///
    /// # Errors
    ///
    /// Propagates the configuration errors of [`CamUnit::new`].
    pub fn new(config: UnitConfig) -> Result<Self, ConfigError> {
        Ok(StreamingCam {
            unit: CamUnit::new(config)?,
            pending: None,
            // An item exits `depth` shifts after the shift that admits it,
            // and the admitting shift is the issue cycle itself — so a
            // depth of latency-1 retires results at the edge that ends
            // cycle (issue + latency - 1), exactly the hardware timing.
            update_pipe: Pipe::new(config.update_latency() as usize - 1),
            search_pipe: Pipe::new(config.search_latency() as usize - 1),
            cycle: 0,
            retired: Vec::new(),
            retire_log: None,
            journal: None,
            #[cfg(feature = "obs")]
            observer: None,
        })
    }

    /// Wrap an existing unit — the cluster shard-construction hook: the
    /// unit keeps its contents, groups and counters; the pipeline state
    /// (pipes, cycle, retire log) starts fresh at cycle 0.
    #[must_use]
    pub fn from_unit(unit: CamUnit) -> Self {
        let config = *unit.config();
        StreamingCam {
            unit,
            pending: None,
            update_pipe: Pipe::new(config.update_latency() as usize - 1),
            search_pipe: Pipe::new(config.search_latency() as usize - 1),
            cycle: 0,
            retired: Vec::new(),
            retire_log: None,
            journal: None,
            #[cfg(feature = "obs")]
            observer: None,
        }
    }

    /// Swap the wrapped unit for `unit`, returning the old one — the
    /// live-migration cutover hook. The clock, pipes and retire log are
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
    fn retire(&mut self, arrival: u64, issued: u64, done: Completion) {
        // The retire edge is the acknowledgement point: the oldest
        // pending journal effect belongs to this write completion (the
        // update pipe is FIFO, so the queues stay 1:1).
        if matches!(done, Completion::Update(_) | Completion::Delete(_)) {
            if let Some(journal) = &mut self.journal {
                journal.ack_one();
            }
        }
        #[cfg(feature = "obs")]
        if let Some((sink, scope)) = &self.observer {
            let metric = match &done {
                Completion::Update(_) | Completion::Delete(_) => "update_latency_cycles",
                _ => "search_latency_cycles",
            };
            // Result visible the cycle after the retire edge: latency =
            // retire - arrival + 1 — the configured pipe latency plus
            // any queueing behind the issue slot (arrival == issue for
            // plain `issue`, so the histogram keeps its old meaning
            // outside trace replay).
            sink.observe(*scope, metric, self.cycle - arrival + 1);
        }
        if let Some(log) = &mut self.retire_log {
            log.push(RetireRecord {
                arrival,
                issued,
                retired: self.cycle,
            });
        }
        self.retired.push((self.cycle, done));
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
    /// Any previous journal is replaced. Enable before issuing write
    /// ops: writes already in flight retire without a journal record.
    pub fn enable_write_journal(&mut self, capacity: usize) {
        self.journal = Some(OpJournal::new(capacity));
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
            journal.append_direct(op);
        }
    }

    /// The crash edge: discard the staged op and everything in flight
    /// in both pipes *without retiring it*, and drop the journal's
    /// unacknowledged tail. The completions of purged ops never reach
    /// the client, which therefore owns their re-issue. Returns how
    /// many operations were discarded.
    pub fn purge_in_flight(&mut self) -> usize {
        let purged = usize::from(self.pending.take().is_some())
            + self.update_pipe.occupancy()
            + self.search_pipe.occupancy();
        self.update_pipe.flush();
        self.search_pipe.flush();
        if let Some(journal) = &mut self.journal {
            journal.drop_pending();
        }
        purged
    }

    /// Start logging `(arrival, issued, retired)` stamps for every
    /// completion (cleared of any previous log). Zero-cost until
    /// enabled; [`StreamingCam::take_retire_log`] drains the log.
    pub fn enable_retire_log(&mut self) {
        self.retire_log = Some(Vec::new());
    }

    /// Take the retire log accumulated since
    /// [`StreamingCam::enable_retire_log`] (logging stays enabled).
    /// Empty if logging was never enabled.
    pub fn take_retire_log(&mut self) -> Vec<RetireRecord> {
        match &mut self.retire_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
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

    /// Completions retired so far as `(cycle, completion)` pairs;
    /// draining resets the list.
    pub fn drain_retired(&mut self) -> Vec<(u64, Completion)> {
        std::mem::take(&mut self.retired)
    }

    /// Whether operations are still pending or in flight.
    #[must_use]
    pub fn in_flight(&self) -> bool {
        !self.update_pipe.is_empty() || !self.search_pipe.is_empty() || self.pending.is_some()
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
        let (arrival, into_update, into_search) = match self.pending.take() {
            Some((Op::Update(words), arrival)) => {
                let result = self.unit.update(&words);
                if let Some(journal) = &mut self.journal {
                    journal.push_pending(result.is_ok().then(|| JournalOp::Update(words.clone())));
                }
                (arrival, Some(Completion::Update(result)), None)
            }
            Some((Op::Search(key), arrival)) => {
                let result = self.unit.search(key);
                (arrival, None, Some(Completion::Search(result)))
            }
            Some((Op::SearchMulti(keys), arrival)) => {
                let result = self.unit.try_search_multi(&keys);
                (arrival, None, Some(Completion::SearchMulti(result)))
            }
            Some((Op::SearchStream(keys), arrival)) => {
                let result = self.unit.search_stream(&keys);
                (arrival, None, Some(Completion::SearchStream(result)))
            }
            Some((Op::Delete(key), arrival)) => {
                let hit = self.unit.delete_first(key);
                if let Some(journal) = &mut self.journal {
                    journal.push_pending(hit.then_some(JournalOp::Delete(key)));
                }
                (arrival, Some(Completion::Delete(hit)), None)
            }
            None => {
                // An idle cycle drains the write buffer within its
                // configured budget and still advances the background
                // scrubber — exactly like hardware background engines
                // stealing unused port cycles (both no-ops without their
                // respective policies).
                let budget = self
                    .unit
                    .config()
                    .write_buffer
                    .map_or(0, |w| w.drain_per_tick);
                self.unit.drain_write_buffer(budget);
                self.unit.scrub_tick();
                (self.cycle, None, None)
            }
        };
        let issued = self.cycle;
        let from_update = self
            .update_pipe
            .shift(into_update.map(|c| (arrival, issued, c)));
        let from_search = self
            .search_pipe
            .shift(into_search.map(|c| (arrival, issued, c)));
        // Both pipes can reach their retire edge on the same tick (the
        // update pipe is one stage shorter, so an update issued at N+1
        // lands with a search issued at N). Same-cycle retirements must
        // leave in program order — by issue cycle — not in a fixed pipe
        // order.
        let mut retiring: Vec<(u64, u64, Completion)> =
            [from_update, from_search].into_iter().flatten().collect();
        retiring.sort_by_key(|&(_, at, _)| at);
        for (arrived, at, done) in retiring {
            self.retire(arrived, at, done);
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

    #[test]
    fn search_retires_after_exactly_search_latency_cycles() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.issue(Op::Update(vec![42])).unwrap();
        cam.drain();
        cam.drain_retired();

        let issue_cycle = cam.cycle();
        cam.issue(Op::Search(42)).unwrap();
        cam.drain();
        let retired = cam.drain_retired();
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
        match &cam.drain_retired()[0].1 {
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
        cam.drain_retired();
        let start = cam.cycle();
        let n = 100u64;
        for i in 0..n {
            cam.issue(Op::Search(1 + (i % 4))).unwrap();
            cam.tick();
        }
        cam.drain();
        let total = cam.cycle() - start;
        assert_eq!(total, n + cfg.search_latency() - 1);
        let retired = cam.drain_retired();
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
        cam.drain_retired();
        for key in [10u64, 99, 20] {
            cam.issue(Op::Search(key)).unwrap();
            cam.tick();
        }
        cam.drain();
        let retired = cam.drain_retired();
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
        // Updates retire one cycle before a search issued the cycle after
        // them (6- vs 8-cycle pipes at this size); both pipes advance in
        // lockstep without losing completions.
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.issue(Op::Update(vec![5])).unwrap();
        cam.tick();
        cam.issue(Op::Search(5)).unwrap();
        cam.drain();
        let retired = cam.drain_retired();
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
        // With a 7-cycle search pipe and a 6-cycle update pipe, a search
        // issued at cycle N and an update issued at N+1 retire at the
        // same edge; program order demands the search come out first.
        let cfg = config();
        assert_eq!(cfg.search_latency() - cfg.update_latency(), 1);
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.issue(Op::Update(vec![5])).unwrap();
        cam.drain();
        cam.drain_retired();
        cam.issue(Op::Search(5)).unwrap();
        cam.tick();
        cam.issue(Op::Update(vec![6])).unwrap();
        cam.drain();
        let retired = cam.drain_retired();
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
        match &cam.drain_retired()[0].1 {
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
        cam.drain_retired();
        let issue_cycle = cam.cycle();
        cam.issue(Op::SearchMulti(vec![10, 99, 30, 20])).unwrap();
        cam.drain();
        let retired = cam.drain_retired();
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
        match &cam.drain_retired()[0].1 {
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
        cam.drain_retired();
        let issue_cycle = cam.cycle();
        let issued = cam.unit().issue_cycles();
        // 7 keys (5 unique) exceed the 4 groups: the batched path packs
        // them where SearchMulti would refuse.
        cam.issue(Op::SearchStream(vec![10, 99, 10, 30, 20, 40, 99]))
            .unwrap();
        cam.drain();
        let retired = cam.drain_retired();
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
            cam.drain_retired();
            cam.issue(Op::SearchStream(stream.clone())).unwrap();
            cam.drain();
            let retired = cam.drain_retired();
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
        cam.drain_retired();
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
        let retired = cam.drain_retired();
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
        let retired = cam.drain_retired();
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
        cam.drain_retired();
        // The drained contents answer searches physically.
        cam.issue(Op::Search(11)).unwrap();
        cam.drain();
        assert!(matches!(
            &cam.drain_retired()[0].1,
            Completion::Search(hit) if hit.is_match()
        ));
    }

    #[test]
    fn delete_flows_through_the_update_pipe() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.issue(Op::Update(vec![10, 20])).unwrap();
        cam.drain();
        cam.drain_retired();
        let issue_cycle = cam.cycle();
        cam.issue(Op::Delete(10)).unwrap();
        cam.tick();
        cam.issue(Op::Delete(99)).unwrap();
        cam.drain();
        let retired = cam.drain_retired();
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
            &cam.drain_retired()[0].1,
            Completion::Search(miss) if !miss.is_match()
        ));
    }

    #[test]
    fn issue_at_charges_queueing_delay_to_the_retire_latency() {
        let cfg = config();
        let mut cam = StreamingCam::new(cfg).unwrap();
        cam.enable_retire_log();
        // Three searches "arrive" in the same cycle; the single issue
        // slot serialises them, so op i queues i cycles.
        let arrival = cam.cycle();
        for key in [1u64, 2, 3] {
            cam.issue_at(Op::Search(key), arrival).unwrap();
            cam.tick();
        }
        cam.drain();
        let log = cam.take_retire_log();
        assert_eq!(log.len(), 3);
        for (i, rec) in log.iter().enumerate() {
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
        let log = cam.take_retire_log();
        assert_eq!(log[0].latency(), cfg.search_latency());
    }

    #[test]
    fn retire_log_is_empty_until_enabled() {
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.issue(Op::Search(7)).unwrap();
        cam.drain();
        assert!(cam.take_retire_log().is_empty());
        cam.enable_retire_log();
        cam.issue(Op::Search(7)).unwrap();
        cam.drain();
        assert_eq!(cam.take_retire_log().len(), 1);
    }

    #[test]
    fn journal_acks_at_the_retire_edge_only() {
        use crate::journal::JournalOp;
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.enable_write_journal(64);
        cam.issue(Op::Update(vec![42])).unwrap();
        cam.tick();
        let journal = cam.write_journal().unwrap();
        assert_eq!(journal.unacked_len(), 1, "applied but still in the pipe");
        assert_eq!(journal.acked_len(), 0);
        cam.drain();
        let journal = cam.write_journal().unwrap();
        assert_eq!(journal.unacked_len(), 0);
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
        let mut cam = StreamingCam::new(config()).unwrap();
        cam.enable_write_journal(64);
        cam.issue(Op::Update(vec![1])).unwrap();
        cam.drain();
        cam.drain_retired();
        // One acked write, then two in flight plus one staged.
        cam.issue(Op::Update(vec![2])).unwrap();
        cam.tick();
        cam.issue(Op::Search(1)).unwrap();
        cam.tick();
        cam.issue(Op::Update(vec![3])).unwrap();
        assert_eq!(cam.purge_in_flight(), 3);
        assert!(!cam.in_flight());
        assert!(cam.drain_retired().is_empty(), "nothing retires post-purge");
        let journal = cam.write_journal().unwrap();
        assert_eq!(journal.acked_len(), 1, "acked prefix survives");
        assert_eq!(journal.unacked_len(), 0, "unacked tail dropped");
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
        cam.drain_retired();

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
