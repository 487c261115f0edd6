//! Fault-injection integration tests: illegal operations, corrupted
//! routing configurations and over-capacity streams must surface as
//! errors, never as silent corruption — and a reset must always restore a
//! working CAM.

use dsp_cam::prelude::*;

fn unit() -> CamUnit {
    CamUnit::new(
        UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(4)
            .bus_width(64)
            .build()
            .unwrap(),
    )
    .unwrap()
}

#[test]
fn recovery_after_every_error_kind() {
    let mut cam = unit();
    cam.configure_groups(2).unwrap();

    // 1. Over-wide value.
    assert!(matches!(
        cam.update(&[0x1_0000]),
        Err(CamError::ValueTooWide { .. })
    ));
    // 2. Over-capacity burst.
    let too_many: Vec<u64> = (0..17).collect();
    assert!(matches!(cam.update(&too_many), Err(CamError::Full { .. })));
    // 3. Illegal group count.
    assert!(cam.configure_groups(3).is_err());
    // 4. Nonexistent group addressed.
    assert!(matches!(
        cam.search_group(7, 1),
        Err(CamError::NoSuchGroup { .. })
    ));
    // 5. Too many concurrent queries.
    assert!(matches!(
        cam.try_search_multi(&[1, 2, 3]),
        Err(CamError::TooManyQueries { .. })
    ));
    // 6. Kind mismatch.
    assert!(matches!(
        cam.update_ranges(&[RangeSpec::new(0, 2).unwrap()]),
        Err(CamError::KindMismatch)
    ));

    // After all of that, the CAM still works perfectly.
    assert!(cam.is_empty(), "failed operations must not leak state");
    cam.update(&[0xAB]).unwrap();
    assert!(cam.search(0xAB).is_match());
    assert_eq!(cam.groups(), 2, "grouping survived the failed reconfigure");
}

#[test]
fn routing_corruption_is_recoverable_by_reconfigure() {
    let mut cam = unit();
    cam.configure_groups(4).unwrap();
    // Corrupt the routing: pile every block into group 0.
    for block in 0..4 {
        cam.write_routing_entry(block, 0).unwrap();
    }
    assert_eq!(cam.routing_table(), &[0, 0, 0, 0]);
    // Groups 1..3 now own no blocks; a search there returns a clean miss
    // (zero-width match vector), not a panic.
    cam.update(&[42]).unwrap();
    assert!(cam.search_group(0, 42).unwrap().is_match());
    for g in 1..4 {
        assert!(!cam.search_group(g, 42).unwrap().is_match(), "group {g}");
    }
    // Reconfiguring restores a sane partition.
    cam.configure_groups(4).unwrap();
    assert_eq!(cam.routing_table(), &[0, 1, 2, 3]);
    cam.update(&[7]).unwrap();
    for g in 0..4 {
        assert!(cam.search_group(g, 7).unwrap().is_match(), "group {g}");
    }
}

#[test]
fn streaming_pipeline_survives_error_completions() {
    let config = UnitConfig::builder()
        .data_width(16)
        .block_size(2)
        .num_blocks(1)
        .bus_width(64)
        .build()
        .unwrap();
    let mut cam = StreamingCam::new(config).unwrap();
    use dsp_cam::sim::Clocked;

    // Overfill the tiny unit mid-stream.
    cam.issue(Op::Update(vec![1, 2])).expect("slot");
    cam.tick();
    cam.issue(Op::Update(vec![3])).expect("slot"); // will fail: full
    cam.tick();
    cam.issue(Op::Search(1)).expect("slot");
    cam.drain();
    let mut retired = Vec::new();
    cam.drain_retired(&mut retired);
    assert_eq!(retired.len(), 3);
    assert!(matches!(retired[0].1, Completion::Update(Ok(()))));
    assert!(matches!(
        retired[1].1,
        Completion::Update(Err(CamError::Full { .. }))
    ));
    match &retired[2].1 {
        Completion::Search(hit) => assert!(hit.is_match(), "stream continued"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn reset_mid_burst_yields_a_clean_slate() {
    let mut cam = unit();
    cam.update(&[1, 2, 3, 4, 5]).unwrap();
    cam.reset();
    // Everything about the pre-reset contents is gone.
    for key in 1..=5u64 {
        assert!(!cam.search(key).is_match(), "key {key} survived reset");
    }
    // Full capacity is available again.
    let refill: Vec<u64> = (100..132).collect();
    cam.update(&refill).unwrap();
    assert_eq!(cam.len(), 32);
    assert!(cam.search(131).is_match());
}

#[test]
fn shadow_bit_flip_detected_by_audit_and_cleared_by_reset() {
    let mut cam = unit();
    cam.configure_groups(2).unwrap();
    cam.update(&[0xAB, 0xCD]).unwrap();
    assert_eq!(cam.audit_shadows(), 0, "healthy shadows audit clean");

    // Flip shadow state under a written cell: its BitSliceIndex plane
    // bit diverges from the DSP oracle.
    cam.inject_shadow_fault(0, 0);
    let divergent = cam.audit_shadows();
    assert!(divergent > 0, "audit must flag the corrupted shadow");

    // The oracle itself is untouched: the bit-accurate tier (the unit's
    // default) still answers correctly through the corruption.
    assert!(cam.search(0xAB).is_match());
    assert!(!cam.search(0xEE).is_match());

    // Reset rebuilds every shadow from the oracle: clean audit again.
    cam.reset();
    assert_eq!(cam.audit_shadows(), 0, "reset must repair the shadows");
    cam.update(&[0x11]).unwrap();
    assert!(cam.search(0x11).is_match());
}

#[cfg(feature = "obs")]
#[test]
fn shadow_divergence_is_counted_in_the_obs_registry() {
    use dsp_cam_obs::ObsSink;
    use std::sync::Arc;

    let sink = Arc::new(ObsSink::new());
    let mut cam = unit();
    cam.attach_observer(&sink);
    cam.update(&[1, 2, 3]).unwrap();

    assert_eq!(cam.audit_shadows(), 0);
    let snap = sink.snapshot();
    assert_eq!(snap.registry.counter("unit", "shadow_audits"), 1);
    assert_eq!(snap.registry.counter("unit", "shadow_divergence"), 0);

    // Inject a bit flip into block 0's shadows; the next bit-accurate
    // audit pass must bump the divergence counter by exactly what it saw.
    cam.inject_shadow_fault(0, 0);
    let divergent = cam.audit_shadows();
    assert!(divergent > 0);
    let snap = sink.snapshot();
    assert_eq!(snap.registry.counter("unit", "shadow_audits"), 2);
    assert_eq!(
        snap.registry.counter("unit", "shadow_divergence"),
        divergent as u64
    );
    // And the per-block scope attributes it to the corrupted block.
    let g = cam.routing_table()[0];
    assert_eq!(
        snap.registry
            .counter(&format!("unit/group{g}/block0"), "shadow_divergence"),
        divergent as u64
    );
}

#[test]
fn checkpoint_clone_preserves_unit_state() {
    // The whole hierarchy (down to each DSP slice's registers) is Clone +
    // Serialize, which is how a host driver checkpoints the accelerator
    // model. Verify a checkpoint behaves identically and independently.
    let mut cam = unit();
    cam.configure_groups(2).unwrap();
    cam.update(&[11, 22, 33]).unwrap();

    let mut checkpoint = cam.clone();
    assert_eq!(checkpoint.groups(), 2);
    assert_eq!(checkpoint.len(), 3);
    assert!(checkpoint.search(22).is_match());
    assert!(!checkpoint.search(44).is_match());

    // Diverge the original; the checkpoint must be unaffected.
    cam.update(&[44]).unwrap();
    assert!(cam.search(44).is_match());
    assert!(!checkpoint.search(44).is_match());
}
