//! Differential property tests for the observability layer: attaching a
//! metrics/trace sink must be purely passive. A unit with a tracer
//! recording every event must produce bit-identical match vectors,
//! match addresses, and cycle counters to an unobserved unit, across both
//! fidelity tiers.
//!
//! The default proptest configuration runs 256 random sequences per
//! property, which is the acceptance floor for this suite.
#![cfg(feature = "obs")]

use std::sync::Arc;

use dsp_cam_core::prelude::*;
use dsp_cam_obs::ObsSink;
use proptest::prelude::*;

/// A random operation applied identically to the observed and the
/// unobserved unit (same domain as the tier-equivalence suite).
#[derive(Debug, Clone)]
enum ObsOp {
    Update(Vec<u64>),
    Search(u64),
    SearchMulti(Vec<u64>),
    SearchStream(Vec<u64>),
    DeleteFirst(u64),
    Reset,
    ConfigureGroups(usize),
}

fn obs_op(width: u32) -> impl Strategy<Value = ObsOp> {
    let limit = (1u64 << width) - 1;
    prop_oneof![
        4 => proptest::collection::vec(0..=limit, 1..4).prop_map(ObsOp::Update),
        4 => (0..=limit).prop_map(ObsOp::Search),
        3 => proptest::collection::vec(0..=limit, 1..4).prop_map(ObsOp::SearchMulti),
        3 => proptest::collection::vec(0u64..32, 1..10).prop_map(ObsOp::SearchStream),
        1 => (0..=limit).prop_map(ObsOp::DeleteFirst),
        1 => Just(ObsOp::Reset),
        1 => prop_oneof![Just(1usize), Just(2), Just(4)].prop_map(ObsOp::ConfigureGroups),
    ]
}

fn build(fidelity: FidelityMode) -> CamUnit {
    let config = UnitConfig::builder()
        .data_width(16)
        .block_size(8)
        .num_blocks(4)
        .bus_width(64)
        .fidelity(fidelity)
        .build()
        .unwrap();
    CamUnit::new(config).unwrap()
}

/// Apply `op` and return every observable output it produces.
fn apply(cam: &mut CamUnit, op: &ObsOp) -> String {
    match op {
        ObsOp::Update(words) => format!("{:?}", cam.update(words)),
        ObsOp::Search(key) => format!("{:?}", cam.search(*key)),
        ObsOp::SearchMulti(keys) => {
            let take = keys.len().min(cam.groups());
            format!("{:?}", cam.try_search_multi(&keys[..take]))
        }
        ObsOp::SearchStream(keys) => format!("{:?}", cam.search_stream(keys)),
        ObsOp::DeleteFirst(key) => format!("{:?}", cam.delete_first(*key)),
        ObsOp::Reset => {
            cam.reset();
            String::new()
        }
        ObsOp::ConfigureGroups(m) => format!("{:?}", cam.configure_groups(*m)),
    }
}

/// Per-block observable counters.
fn block_counters(cam: &CamUnit) -> Vec<(usize, u64, u64, u64)> {
    cam.blocks()
        .iter()
        .map(|b| (b.len(), b.cycles(), b.update_beats(), b.searches()))
        .collect()
}

const TIERS: [FidelityMode; 2] = [FidelityMode::BitAccurate, FidelityMode::Turbo];

proptest! {
    // 256 random operation sequences per property (stub default).

    /// The tracer is invisible: every tier produces identical results
    /// and counters observed vs unobserved.
    #[test]
    fn tracing_never_perturbs_results(
        ops in proptest::collection::vec(obs_op(16), 1..30),
    ) {
        for fidelity in TIERS {
            let sink = Arc::new(ObsSink::new());
            let mut plain = build(fidelity);
            let mut observed = build(fidelity);
            observed.attach_observer(&sink);
            for (i, op) in ops.iter().enumerate() {
                let want = apply(&mut plain, op);
                let got = apply(&mut observed, op);
                prop_assert_eq!(
                    &want, &got,
                    "observed {:?} diverged at op {} ({:?})",
                    fidelity, i, op
                );
            }
            prop_assert_eq!(
                plain.snapshot(), observed.snapshot(),
                "unit counters diverged under {:?}", fidelity
            );
            prop_assert_eq!(
                block_counters(&plain), block_counters(&observed),
                "block counters diverged under {:?}", fidelity
            );
            // A missed delete records nothing by design, so run one
            // always-recording op before asserting the sink saw traffic
            // while results stayed equal.
            let (want, got) = (plain.search(7), observed.search(7));
            prop_assert_eq!(want, got);
            let snap = sink.snapshot();
            prop_assert!(
                snap.events_recorded > 0,
                "no events recorded under {:?}", fidelity
            );
        }
    }

    /// Publishing metrics mid-stream (snapshot side channel) is equally
    /// invisible, and a tiny trace ring that drops events still never
    /// perturbs results.
    #[test]
    fn publishing_and_ring_overflow_are_passive(
        before in proptest::collection::vec(obs_op(16), 1..12),
        after in proptest::collection::vec(obs_op(16), 1..12),
    ) {
        for fidelity in TIERS {
            let sink = Arc::new(ObsSink::with_trace_capacity(4));
            let mut plain = build(fidelity);
            let mut observed = build(fidelity);
            observed.attach_observer(&sink);
            for op in &before {
                let want = apply(&mut plain, op);
                let got = apply(&mut observed, op);
                prop_assert_eq!(want, got);
            }
            observed.publish_metrics();
            observed.publish_cell_metrics();
            prop_assert_eq!(observed.audit_shadows(), 0);
            prop_assert_eq!(plain.audit_shadows(), 0);
            for op in &after {
                let want = apply(&mut plain, op);
                let got = apply(&mut observed, op);
                prop_assert_eq!(want, got);
            }
            prop_assert_eq!(plain.snapshot(), observed.snapshot());
            prop_assert_eq!(block_counters(&plain), block_counters(&observed));
            let snap = sink.snapshot();
            prop_assert_eq!(
                snap.events_recorded - snap.events_dropped,
                sink.trace_records().len() as u64,
                "ring accounting must balance"
            );
        }
    }

    /// Detaching mid-stream restores the exact unobserved behaviour.
    #[test]
    fn detach_restores_unobserved_behaviour(
        before in proptest::collection::vec(obs_op(16), 1..12),
        after in proptest::collection::vec(obs_op(16), 1..12),
    ) {
        let sink = Arc::new(ObsSink::new());
        let mut plain = build(FidelityMode::Turbo);
        let mut observed = build(FidelityMode::Turbo);
        observed.attach_observer(&sink);
        for op in &before {
            let want = apply(&mut plain, op);
            let got = apply(&mut observed, op);
            prop_assert_eq!(want, got);
        }
        let recorded_while_attached = sink.snapshot().events_recorded;
        observed.detach_observer();
        prop_assert!(!observed.has_observer());
        for op in &after {
            let want = apply(&mut plain, op);
            let got = apply(&mut observed, op);
            prop_assert_eq!(want, got);
        }
        prop_assert_eq!(
            sink.snapshot().events_recorded, recorded_while_attached,
            "no events may arrive after detach"
        );
        prop_assert_eq!(plain.snapshot(), observed.snapshot());
    }
}

/// The stream scope's dedup counter and batch-width histogram must
/// reflect exactly what `search_stream` dispatched: `dup_hits` counts
/// presented-minus-unique keys, and `dispatch_batch_width` records one
/// sample per kernel pass, summing to the unique key count.
#[test]
fn stream_scope_records_dup_hits_and_batch_widths() {
    let sink = Arc::new(ObsSink::new());
    let config = UnitConfig::builder()
        .data_width(16)
        .block_size(8)
        .num_blocks(4)
        .bus_width(64)
        .fidelity(FidelityMode::Turbo)
        .batch_width(4)
        .build()
        .unwrap();
    let mut unit = CamUnit::new(config).unwrap();
    unit.attach_observer(&sink);
    unit.configure_groups(2).unwrap();
    unit.update(&[1, 2, 3, 4, 5, 6]).unwrap();
    // 12 presented keys, 9 unique: 3 dup hits. Group 0 serves unique
    // keys 0,2,4,6,8 (5 keys -> passes of 4 and 1), group 1 serves
    // 1,3,5,7 (4 keys -> one pass of 4).
    let keys = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3];
    let results = unit.search_stream(&keys);
    assert_eq!(results.len(), keys.len());
    let snap = sink.snapshot();
    assert_eq!(snap.counter("unit/stream", "dup_hits"), 3);
    let widths = snap
        .histogram("unit/stream", "dispatch_batch_width")
        .expect("batch-width histogram registered");
    assert_eq!(widths.count(), 3, "two passes for group 0, one for group 1");
    assert_eq!(widths.sum(), 9, "every unique key dispatched exactly once");
    // A second stream of all-duplicate keys: one pass per group of one
    // unique key each.
    unit.search_stream(&[2, 2, 2, 5, 5]);
    let snap = sink.snapshot();
    assert_eq!(snap.counter("unit/stream", "dup_hits"), 3 + 3);
    let widths = snap
        .histogram("unit/stream", "dispatch_batch_width")
        .expect("still registered");
    assert_eq!(widths.count(), 5);
    assert_eq!(widths.sum(), 11);
}
