//! Differential property tests for the CAM-fronted write buffer: with
//! buffering enabled, any interleaving of search/update/delete must be
//! observationally identical — per-op results and errors, unit counters,
//! snapshots and block accounting at quiescence — to `bypass` mode,
//! across both fidelity tiers, worker counts {1, 4} and buffer
//! capacities {1, 7, 64} (capacity 1 exercises the overflow →
//! synchronous-fallback path on every multi-word burst). A separate
//! property proves injected key-index faults never leak into drained
//! contents or delete decisions, and are healed by the scrub sweep.

use dsp_cam_core::prelude::*;
use proptest::prelude::*;

/// A random operation applied identically to the buffered and bypass
/// control arms.
#[derive(Debug, Clone)]
enum WbOp {
    /// Batch update of 1..=4 words (multi-word bursts overflow a
    /// capacity-1 buffer synchronously).
    Update(Vec<u64>),
    Search(u64),
    /// One key per configured group.
    SearchMulti(Vec<u64>),
    /// Narrow key domain so in-flight keys get searched often.
    SearchStream(Vec<u64>),
    DeleteFirst(u64),
    /// Background idle ticks: drain `budget` staged ops (a no-op on the
    /// bypass arm, whose buffer is always empty).
    Idle(usize),
    Reset,
    /// Repartition into `M` groups (flushes, then clears, as the inline
    /// path clears).
    ConfigureGroups(usize),
}

fn wb_op() -> impl Strategy<Value = WbOp> {
    // Narrow domain: updates, deletes and searches collide constantly,
    // so read-your-writes, tombstones and staged-then-deleted keys all
    // occur within a single 30-op sequence.
    let limit = 24u64;
    prop_oneof![
        5 => proptest::collection::vec(0..limit, 1..4).prop_map(WbOp::Update),
        4 => (0..limit).prop_map(WbOp::Search),
        2 => proptest::collection::vec(0..limit, 1..4).prop_map(WbOp::SearchMulti),
        3 => proptest::collection::vec(0..limit, 1..8).prop_map(WbOp::SearchStream),
        4 => (0..limit).prop_map(WbOp::DeleteFirst),
        2 => (1usize..4).prop_map(WbOp::Idle),
        1 => Just(WbOp::Reset),
        1 => prop_oneof![Just(1usize), Just(2), Just(4)].prop_map(WbOp::ConfigureGroups),
    ]
}

fn build(fidelity: FidelityMode, workers: usize, wbuf: Option<WriteBufferConfig>) -> CamUnit {
    let mut builder = UnitConfig::builder()
        .data_width(12)
        .block_size(8)
        .num_blocks(4)
        .bus_width(64)
        .fidelity(fidelity)
        .workers(workers);
    if let Some(policy) = wbuf {
        builder = builder.write_buffer(policy);
    }
    CamUnit::new(builder.build().unwrap()).unwrap()
}

fn buffered(capacity: usize) -> WriteBufferConfig {
    WriteBufferConfig {
        capacity,
        drain_per_tick: 2,
        bypass: false,
    }
}

fn bypass() -> WriteBufferConfig {
    WriteBufferConfig {
        capacity: 64,
        drain_per_tick: 2,
        bypass: true,
    }
}

/// Apply `op` and return every observable output it produces.
fn apply(cam: &mut CamUnit, op: &WbOp) -> String {
    match op {
        WbOp::Update(words) => format!("{:?}", cam.update(words)),
        WbOp::Search(key) => format!("{:?}", cam.search(*key)),
        WbOp::SearchMulti(keys) => {
            let take = keys.len().min(cam.groups());
            format!("{:?}", cam.try_search_multi(&keys[..take]))
        }
        WbOp::SearchStream(keys) => format!("{:?}", cam.search_stream(keys)),
        WbOp::DeleteFirst(key) => format!("{:?}", cam.delete_first(*key)),
        WbOp::Idle(budget) => {
            cam.drain_write_buffer(*budget);
            String::new()
        }
        WbOp::Reset => {
            cam.reset();
            String::new()
        }
        WbOp::ConfigureGroups(m) => format!("{:?}", cam.configure_groups(*m)),
    }
}

/// Per-block observable accounting (must converge once drained).
fn block_counters(cam: &CamUnit) -> Vec<(usize, u64, u64, u64)> {
    cam.blocks()
        .iter()
        .map(|b| (b.len(), b.cycles(), b.update_beats(), b.searches()))
        .collect()
}

proptest! {
    #[test]
    fn buffered_is_observationally_identical_to_bypass(
        ops in proptest::collection::vec(wb_op(), 1..30),
    ) {
        // 2 tiers x workers {1, 4} x capacities {1, 7, 64}, each pair
        // (buffered, bypass) fed the identical op stream.
        for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            for workers in [1usize, 4] {
                for capacity in [1usize, 7, 64] {
                    let mut buf = build(fidelity, workers, Some(buffered(capacity)));
                    let mut base = build(fidelity, workers, Some(bypass()));
                    for (i, op) in ops.iter().enumerate() {
                        let b = apply(&mut buf, op);
                        let want = apply(&mut base, op);
                        prop_assert_eq!(
                            &want, &b,
                            "{:?}/w{}/cap{} diverged at op {} ({:?})",
                            fidelity, workers, capacity, i, op
                        );
                    }
                    // Quiescence: drain whatever is still staged, then
                    // every architectural observable must be identical.
                    buf.flush_write_buffer();
                    prop_assert_eq!(buf.write_buffer_depth(), 0);
                    prop_assert_eq!(
                        buf.snapshot(), base.snapshot(),
                        "{:?}/w{}/cap{} snapshot diverged at quiescence",
                        fidelity, workers, capacity
                    );
                    prop_assert_eq!(
                        block_counters(&buf), block_counters(&base),
                        "{:?}/w{}/cap{} block accounting diverged at quiescence",
                        fidelity, workers, capacity
                    );
                    prop_assert_eq!(buf.audit_shadows(), 0, "shadow divergence after drain");
                }
            }
        }
    }

    #[test]
    fn rehydrate_preserves_the_staged_fifo(
        ops in proptest::collection::vec(wb_op(), 1..20),
        tail in proptest::collection::vec(wb_op(), 1..10),
    ) {
        // A snapshot/restore round trip mid-burst (rehydrate drops the
        // derived index; the staged FIFO is architectural) must leave
        // the restored unit answering bit-identically to the original.
        let mut original = build(FidelityMode::Turbo, 1, Some(buffered(16)));
        for op in &ops {
            apply(&mut original, op);
        }
        let mut restored = original.rehydrate();
        prop_assert_eq!(restored.write_buffer_depth(), original.write_buffer_depth());
        for (i, op) in tail.iter().enumerate() {
            let a = apply(&mut original, op);
            let b = apply(&mut restored, op);
            prop_assert_eq!(&a, &b, "restored unit diverged at tail op {} ({:?})", i, op);
        }
        original.flush_write_buffer();
        restored.flush_write_buffer();
        prop_assert_eq!(original.snapshot(), restored.snapshot());
        prop_assert_eq!(block_counters(&original), block_counters(&restored));
    }

    #[test]
    fn index_faults_never_corrupt_drained_contents(
        ops in proptest::collection::vec(wb_op(), 1..20),
        slots in proptest::collection::vec(0usize..64, 1..6),
    ) {
        // Corrupt the derived key index at random staged slots on the
        // buffered arm only. Faults may stale a pre-drain search (like
        // any shadow fault), but the golden FIFO drives drains and
        // delete decisions — so at quiescence the unit must still be
        // bit-identical to bypass.
        let mut buf = build(FidelityMode::Turbo, 1, Some(buffered(64)));
        let mut base = build(FidelityMode::Turbo, 1, Some(bypass()));
        for op in &ops {
            // Results may legitimately differ while the index is
            // faulted (stale reads); apply without comparing, but keep
            // both arms fed the identical stream.
            apply(&mut buf, op);
            apply(&mut base, op);
            if let Some(&slot) = slots.get(buf.write_buffer_report().index_faults_injected as usize) {
                buf.inject_fault(FaultSite::UpdateQueue { slot });
            }
        }
        // Deletes decided from the golden FIFO: unit-level counters
        // never diverged even while the index was lying.
        prop_assert_eq!(buf.len(), base.len(), "architectural occupancy diverged under faults");
        buf.flush_write_buffer();
        prop_assert_eq!(buf.write_buffer_depth(), 0);
        prop_assert_eq!(buf.snapshot(), base.snapshot(), "snapshot diverged at quiescence");
        prop_assert_eq!(
            block_counters(&buf), block_counters(&base),
            "block accounting diverged at quiescence"
        );
        // Post-flush searches are read-your-writes-correct again.
        for key in 0u64..24 {
            prop_assert_eq!(buf.search(key), base.search(key), "post-drain search diverged");
        }
    }
}

#[test]
fn capacity_one_falls_back_synchronously_and_counts_overflows() {
    let mut buf = build(FidelityMode::Turbo, 1, Some(buffered(1)));
    let mut base = build(FidelityMode::Turbo, 1, Some(bypass()));
    for round in 0..8u64 {
        let words = [round * 3, round * 3 + 1, round * 3 + 2];
        assert_eq!(buf.update(&words), base.update(&words));
        assert_eq!(buf.delete_first(round * 3), base.delete_first(round * 3));
    }
    let report = buf.write_buffer_report();
    assert!(
        report.overflows >= 8,
        "3-word bursts must overflow a 1-slot buffer every round, got {}",
        report.overflows
    );
    buf.flush_write_buffer();
    assert_eq!(buf.snapshot(), base.snapshot());
    assert_eq!(block_counters(&buf), block_counters(&base));
}

#[test]
fn staged_writes_are_read_your_writes_consistent() {
    let mut cam = build(FidelityMode::Turbo, 1, Some(buffered(32)));
    cam.update(&[7, 8, 9]).unwrap();
    assert_eq!(cam.write_buffer_depth(), 3, "update staged, not applied");
    // Searching an in-flight key flushes and answers correctly.
    assert!(cam.search(8).is_match());
    assert_eq!(cam.write_buffer_depth(), 0, "touched-key search flushed");
    assert_eq!(cam.write_buffer_report().search_flushes, 1);
    // A staged tombstone shadows the physical entry.
    assert!(cam.delete_first(7));
    assert_eq!(cam.write_buffer_depth(), 1, "tombstone staged");
    assert!(!cam.search(7).is_match(), "deleted key must miss");
    // An untouched key leaves the buffer alone.
    cam.update(&[11]).unwrap();
    let staged = cam.write_buffer_depth();
    assert!(!cam.search(3).is_match());
    assert_eq!(
        cam.write_buffer_depth(),
        staged,
        "untouched search must not flush"
    );
}

#[test]
fn poisoned_pool_drain_still_converges_to_bypass() {
    // Stage a burst, then arm a one-shot pool-worker fault so the first
    // drained insert's dispatch panics in exactly one group task.
    // Pre-fix the drainer swallowed the error and moved on, leaving the
    // poisoned group missing the whole insert — replication silently
    // broken until the next reset. The transactional drain tops the
    // deficient group back up and resumes with the next staged op, so
    // the buffered arm still converges to the bypass reference.
    let mk = |wbuf: WriteBufferConfig| {
        let config = UnitConfig::builder()
            .data_width(12)
            .block_size(8)
            .num_blocks(4)
            .bus_width(64)
            .workers(4)
            .write_buffer(wbuf)
            .build()
            .unwrap();
        let mut unit = CamUnit::new(config).unwrap();
        unit.configure_groups(2).unwrap();
        unit
    };
    let mut buf = mk(buffered(16));
    let mut base = mk(bypass());
    for unit in [&mut buf, &mut base] {
        unit.update(&[1, 2, 3]).unwrap();
        unit.update(&[4, 2]).unwrap();
        assert!(unit.delete_first(2), "staged/inline delete decisions agree");
    }
    assert_eq!(buf.write_buffer_depth(), 6, "burst staged, not applied");
    buf.inject_fault(FaultSite::PoolWorker);
    // One staged op per call, the way streaming idle ticks drain.
    while buf.write_buffer_depth() > 0 {
        buf.drain_write_buffer(1);
    }
    assert_eq!(
        buf.write_buffer_report().drain_repairs,
        1,
        "exactly the poisoned dispatch is repaired"
    );
    for key in 0u64..8 {
        assert_eq!(buf.search(key), base.search(key), "search({key}) diverged");
    }
    assert_eq!(buf.snapshot(), base.snapshot(), "quiescent counters agree");
    assert_eq!(
        block_counters(&buf),
        block_counters(&base),
        "block accounting agrees after the repair"
    );
    // The fuse is spent and the pool rebuilt: later bursts drain clean.
    for unit in [&mut buf, &mut base] {
        unit.update(&[9, 10]).unwrap();
        unit.flush_write_buffer();
    }
    assert_eq!(buf.write_buffer_report().drain_repairs, 1);
    assert_eq!(buf.snapshot(), base.snapshot());
    assert_eq!(block_counters(&buf), block_counters(&base));
}

#[test]
fn drained_refcount_underflow_is_charged_to_the_sweep_audit() {
    // Force the pop()-side underflow: drop a staged key from the derived
    // index via FaultSite::UpdateQueue, then drain while the index is
    // lying. The missing-key unref must be *counted* (pre-fix it was
    // silently saturated away, and with the FIFO empty the next sweep
    // found a clean index — the divergence evaporated undetected).
    let policy = ScrubPolicy {
        cells_per_op: 8,
        crosscheck_interval: 0,
        restore_after: 2,
        strict: false,
    };
    let config = UnitConfig::builder()
        .data_width(12)
        .block_size(8)
        .num_blocks(4)
        .bus_width(64)
        .write_buffer(buffered(16))
        .scrub(policy)
        .build()
        .unwrap();
    let mut cam = CamUnit::new(config).unwrap();
    cam.update(&[5]).unwrap();
    cam.inject_fault(FaultSite::UpdateQueue { slot: 0 });
    cam.drain_write_buffer(4);
    assert_eq!(
        cam.write_buffer_report().index_underflows,
        1,
        "drain must detect the refcount underflow"
    );
    let detected = cam.scrub_report().faults_detected;
    let before = cam.scrub_report().sweeps_completed;
    while cam.scrub_report().sweeps_completed == before {
        cam.scrub_tick();
    }
    assert!(
        cam.scrub_report().faults_detected > detected,
        "sweep audit must charge the underflow to faults_detected"
    );
    assert!(cam.search(5).is_match(), "drained contents are intact");
}

#[test]
fn scrub_sweep_heals_an_injected_index_fault() {
    let policy = ScrubPolicy {
        cells_per_op: 8,
        crosscheck_interval: 0,
        restore_after: 2,
        strict: false,
    };
    let config = UnitConfig::builder()
        .data_width(12)
        .block_size(8)
        .num_blocks(4)
        .bus_width(64)
        .write_buffer(buffered(16))
        .scrub(policy)
        .build()
        .unwrap();
    let mut cam = CamUnit::new(config).unwrap();
    cam.update(&[5]).unwrap();
    cam.inject_fault(FaultSite::UpdateQueue { slot: 0 });
    assert!(
        !cam.search(5).is_match(),
        "faulted index hides the staged key (a stale read, like any shadow fault)"
    );
    // Idle-tick the scrubber through one full sweep; the sweep audit
    // re-derives the index from the golden FIFO and scores the repair.
    let before = cam.scrub_report().sweeps_completed;
    while cam.scrub_report().sweeps_completed == before {
        cam.scrub_tick();
    }
    assert!(
        cam.write_buffer_report().index_faults_repaired >= 1,
        "sweep audit must repair the index divergence"
    );
    assert!(
        cam.search(5).is_match(),
        "post-sweep the staged key is visible again"
    );
}
