//! `StreamingCam`'s issue/retire timing against a small reference model.
//!
//! The model knows four rules and nothing about how the pipeline is
//! built:
//!
//! * an op issued at cycle `c` retires at the edge ending cycle
//!   `c + latency - 1` (the update latency for updates and deletes, the
//!   search latency for every search form);
//! * ops retiring at the same edge leave in issue order;
//! * a write's journal effect is acknowledged at its retire edge;
//! * the crash edge ([`StreamingCam::purge_in_flight`]) discards every
//!   op issued or staged but not retired, and its unacknowledged journal
//!   effects, while effects already applied to the unit stay; it hands
//!   the discarded ops back in issue order, the staged one last.
//!
//! Random sequences of issues (every [`Op`] kind, arrivals up to three
//! cycles in the past), idle gaps and crash edges run at both unit
//! search latencies: 7 cycles below 2,048 cells and 8 from 2,048 up,
//! where an update ties with a search issued one or two cycles before
//! it. Each step checks every completion's stamps (arrival, issue and
//! retire cycles) and answer, the retire log, `in_flight()`, the journal
//! and what a purge discards.

use std::collections::HashMap;

use dsp_cam_core::prelude::*;
use dsp_cam_sim::Clocked;
use proptest::prelude::*;

const KEYS: u64 = 16;

#[derive(Debug, Clone)]
enum Step {
    /// Issue `op`, stamped as arriving `back` cycles ago, then tick.
    Issue(Op, u64),
    /// Stage `op` in the issue slot and hit the crash edge before the
    /// clock edge that would issue it.
    StageThenPurge(Op),
    /// Idle ticks.
    Idle(u64),
    /// The crash edge with nothing staged.
    Purge,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(0..KEYS, 1..4).prop_map(Op::Update),
        4 => (0..KEYS).prop_map(Op::Search),
        1 => proptest::collection::vec(0..KEYS, 1..3).prop_map(Op::SearchMulti),
        2 => proptest::collection::vec(0..KEYS, 1..8).prop_map(Op::SearchStream),
        3 => (0..KEYS).prop_map(Op::Delete),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        12 => (op(), 0u64..4).prop_map(|(op, back)| Step::Issue(op, back)),
        1 => op().prop_map(Step::StageThenPurge),
        3 => (1u64..10).prop_map(Step::Idle),
        1 => Just(Step::Purge),
    ]
}

/// What a retired op must answer.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Update,
    Search(bool),
    /// Hits per key, or `None` for more keys than the unit's one group.
    SearchMulti(Option<Vec<bool>>),
    SearchStream(Vec<bool>),
    Delete(bool),
}

impl Answer {
    fn of(done: &Completion) -> Answer {
        let hits = |results: &[SearchResult]| results.iter().map(SearchResult::is_match).collect();
        match done {
            Completion::Update(result) => {
                assert!(result.is_ok(), "the unit never fills here: {result:?}");
                Answer::Update
            }
            Completion::Search(result) => Answer::Search(result.is_match()),
            Completion::SearchMulti(result) => {
                Answer::SearchMulti(result.as_deref().ok().map(hits))
            }
            Completion::SearchStream(results) => Answer::SearchStream(hits(results)),
            Completion::Delete(hit) => Answer::Delete(*hit),
        }
    }

    fn is_write(&self) -> bool {
        matches!(self, Answer::Update | Answer::Delete(_))
    }

    /// Whether a journal records the write: every admitted update, and
    /// a delete that hit.
    fn journalled(&self) -> bool {
        matches!(self, Answer::Update | Answer::Delete(true))
    }
}

#[derive(Debug)]
struct InFlight {
    op: Op,
    arrival: u64,
    issued: u64,
    retires: u64,
    answer: Answer,
}

/// The reference: contents as a key multiset, ops in flight in issue
/// order, and the journal's acknowledged count.
struct Model {
    update_latency: u64,
    search_latency: u64,
    cycle: u64,
    stored: HashMap<u64, u32>,
    in_flight: Vec<InFlight>,
    acked: usize,
}

impl Model {
    fn hit(&self, key: u64) -> bool {
        self.stored.get(&key).is_some_and(|&n| n > 0)
    }

    /// Apply `op` at the current cycle's issue edge and put it in flight.
    fn issue(&mut self, op: Op, arrival: u64) {
        let (latency, answer) = match &op {
            Op::Update(words) => {
                for &w in words {
                    *self.stored.entry(w).or_default() += 1;
                }
                (self.update_latency, Answer::Update)
            }
            Op::Delete(key) => {
                let hit = self.hit(*key);
                if hit {
                    *self.stored.get_mut(key).expect("hit") -= 1;
                }
                (self.update_latency, Answer::Delete(hit))
            }
            Op::Search(key) => (self.search_latency, Answer::Search(self.hit(*key))),
            Op::SearchMulti(keys) => {
                let hits = (keys.len() == 1).then(|| vec![self.hit(keys[0])]);
                (self.search_latency, Answer::SearchMulti(hits))
            }
            Op::SearchStream(keys) => {
                let hits = keys.iter().map(|&k| self.hit(k)).collect();
                (self.search_latency, Answer::SearchStream(hits))
            }
        };
        self.in_flight.push(InFlight {
            op,
            arrival: arrival.min(self.cycle),
            issued: self.cycle,
            retires: self.cycle + latency - 1,
            answer,
        });
    }

    /// The clock edge ending the current cycle: what retires, in the
    /// order it leaves.
    fn tick(&mut self) -> Vec<InFlight> {
        let now = self.cycle;
        let (retired, kept): (Vec<InFlight>, _) = std::mem::take(&mut self.in_flight)
            .into_iter()
            .partition(|op| op.retires == now);
        self.in_flight = kept;
        self.acked += retired.iter().filter(|op| op.answer.journalled()).count();
        self.cycle += 1;
        retired
    }

    fn writes_in_flight(&self) -> usize {
        self.in_flight
            .iter()
            .filter(|op| op.answer.is_write())
            .count()
    }
}

/// Tick both and check everything that retired at that edge.
fn tick(cam: &mut StreamingCam, model: &mut Model) -> Result<(), TestCaseError> {
    cam.tick();
    let want = model.tick();
    let mut retired = Vec::new();
    cam.drain_retired(&mut retired);
    let stamps: Vec<RetireRecord> = retired.iter().map(|(stamp, _)| *stamp).collect();
    prop_assert_eq!(cam.take_retire_log(), stamps, "the retire log's stamps");
    prop_assert_eq!(
        retired.len(),
        want.len(),
        "retirements at cycle {}",
        model.cycle - 1
    );
    for ((stamp, done), want) in retired.iter().zip(&want) {
        let expected = RetireRecord {
            arrival: want.arrival,
            issued: want.issued,
            retired: want.retires,
        };
        prop_assert_eq!(*stamp, expected, "stamps of {:?}", want.op);
        prop_assert_eq!(
            Answer::of(done),
            want.answer.clone(),
            "answer of {:?}",
            want.op
        );
    }
    check_state(cam, model)
}

fn check_state(cam: &StreamingCam, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(cam.cycle(), model.cycle);
    prop_assert_eq!(cam.in_flight(), !model.in_flight.is_empty());
    let journal = cam.write_journal().expect("journal enabled");
    prop_assert_eq!(journal.unacked_len(), model.writes_in_flight());
    prop_assert_eq!(journal.acked_len(), model.acked);
    Ok(())
}

/// The crash edge on both, with `staged` in the issue slot if given.
fn purge(
    cam: &mut StreamingCam,
    model: &mut Model,
    staged: Option<Op>,
) -> Result<(), TestCaseError> {
    let mut want: Vec<(Op, u64)> = model
        .in_flight
        .drain(..)
        .map(|op| (op.op, op.arrival))
        .collect();
    if let Some(op) = staged {
        prop_assert!(cam.issue_at(op.clone(), model.cycle).is_ok(), "free slot");
        prop_assert!(cam.in_flight());
        want.push((op, model.cycle));
    }
    prop_assert_eq!(cam.purge_in_flight(), want, "purged ops, in issue order");
    let mut retired = Vec::new();
    cam.drain_retired(&mut retired);
    prop_assert!(retired.is_empty(), "a purge retires nothing");
    prop_assert!(cam.retire_log().is_empty(), "nor logs anything");
    check_state(cam, model)
}

fn run(num_blocks: usize, search_latency: u64, steps: &[Step]) -> Result<(), TestCaseError> {
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(128)
        .num_blocks(num_blocks)
        .build()
        .expect("valid geometry");
    prop_assert_eq!(config.search_latency(), search_latency);
    prop_assert_eq!(config.update_latency(), 6);
    let mut cam = StreamingCam::new(config).expect("constructible");
    cam.enable_write_journal(1 << 20);
    cam.enable_retire_log();
    let mut model = Model {
        update_latency: config.update_latency(),
        search_latency,
        cycle: 0,
        stored: HashMap::new(),
        in_flight: Vec::new(),
        acked: 0,
    };
    for step in steps {
        match step {
            Step::Issue(op, back) => {
                let arrival = model.cycle.saturating_sub(*back);
                prop_assert!(cam.issue_at(op.clone(), arrival).is_ok(), "free slot");
                prop_assert!(
                    cam.issue(Op::Search(0)).is_err(),
                    "one issue slot per cycle"
                );
                model.issue(op.clone(), arrival);
                tick(&mut cam, &mut model)?;
            }
            Step::StageThenPurge(op) => purge(&mut cam, &mut model, Some(op.clone()))?,
            Step::Idle(ticks) => {
                for _ in 0..*ticks {
                    tick(&mut cam, &mut model)?;
                }
            }
            Step::Purge => purge(&mut cam, &mut model, None)?,
        }
    }
    while !model.in_flight.is_empty() {
        tick(&mut cam, &mut model)?;
    }
    prop_assert!(!cam.in_flight());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_cam_retires_like_the_reference_model(
        steps in proptest::collection::vec(step(), 1..80),
    ) {
        // 1,024 cells: 7-cycle searches, so an update ties with the
        // search issued one cycle before it.
        run(8, 7, &steps)?;
        // 2,048 cells: the encoder output buffer makes searches 8
        // cycles, so an update issued one cycle after a search retires
        // first and one issued two cycles after ties with it.
        run(16, 8, &steps)?;
    }
}
