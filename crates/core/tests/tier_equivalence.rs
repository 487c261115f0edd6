//! Differential property tests for the two-tier execution engine: the
//! `Turbo` bit-sliced tier must be observationally identical to the
//! `BitAccurate` DSP48E2 tier — same search results, same addresses, and
//! same block/unit cycle accounting — under random operation sequences.
//!
//! The default proptest configuration runs 256 random sequences per
//! property, which is the acceptance floor for this suite.

use dsp_cam_core::prelude::*;
use proptest::prelude::*;

/// A random operation applied identically to all tiers.
#[derive(Debug, Clone)]
enum TierOp {
    /// Batch update of 1..=4 words.
    Update(Vec<u64>),
    Search(u64),
    /// One key per configured group.
    SearchMulti(Vec<u64>),
    /// Arbitrary-length batch; keys drawn from a narrow domain so
    /// duplicates (and the dedup path) occur often.
    SearchStream(Vec<u64>),
    DeleteFirst(u64),
    Reset,
    /// Repartition into `M` groups (resets contents, as in hardware).
    ConfigureGroups(usize),
}

fn tier_op(width: u32) -> impl Strategy<Value = TierOp> {
    let limit = (1u64 << width) - 1;
    prop_oneof![
        4 => proptest::collection::vec(0..=limit, 1..4).prop_map(TierOp::Update),
        4 => (0..=limit).prop_map(TierOp::Search),
        3 => proptest::collection::vec(0..=limit, 1..4).prop_map(TierOp::SearchMulti),
        3 => proptest::collection::vec(0u64..32, 1..10).prop_map(TierOp::SearchStream),
        1 => (0..=limit).prop_map(TierOp::DeleteFirst),
        1 => Just(TierOp::Reset),
        1 => prop_oneof![Just(1usize), Just(2), Just(4)].prop_map(TierOp::ConfigureGroups),
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

/// Delete/update-heavy operations from a narrow key domain, so deletions
/// hit stored entries and freed cells get re-filled often.
fn churn_op() -> impl Strategy<Value = TierOp> {
    prop_oneof![
        4 => proptest::collection::vec(0u64..16, 1..4).prop_map(TierOp::Update),
        4 => (0u64..16).prop_map(TierOp::DeleteFirst),
        2 => (0u64..16).prop_map(TierOp::Search),
        2 => proptest::collection::vec(0u64..16, 1..8).prop_map(TierOp::SearchStream),
        1 => prop_oneof![Just(1usize), Just(2), Just(4)].prop_map(TierOp::ConfigureGroups),
    ]
}

/// Apply `op` and return every observable output it produces.
fn apply(cam: &mut CamUnit, op: &TierOp) -> String {
    match op {
        TierOp::Update(words) => format!("{:?}", cam.update(words)),
        TierOp::Search(key) => format!("{:?}", cam.search(*key)),
        TierOp::SearchMulti(keys) => {
            // Clamp to the group count so both tiers take the same path.
            let take = keys.len().min(cam.groups());
            format!("{:?}", cam.try_search_multi(&keys[..take]))
        }
        TierOp::SearchStream(keys) => format!("{:?}", cam.search_stream(keys)),
        TierOp::DeleteFirst(key) => format!("{:?}", cam.delete_first(*key)),
        TierOp::Reset => {
            cam.reset();
            String::new()
        }
        TierOp::ConfigureGroups(m) => format!("{:?}", cam.configure_groups(*m)),
    }
}

/// Build a Turbo unit at the given key-parallel batch width, optionally
/// fronted by a small write buffer (capacity 32, drain 2).
fn build_buffered(batch_width: usize, buffered: bool) -> CamUnit {
    let mut builder = UnitConfig::builder()
        .data_width(16)
        .block_size(8)
        .num_blocks(4)
        .bus_width(64)
        .fidelity(FidelityMode::Turbo)
        .batch_width(batch_width);
    if buffered {
        builder = builder.write_buffer(WriteBufferConfig {
            capacity: 32,
            drain_per_tick: 2,
            bypass: false,
        });
    }
    CamUnit::new(builder.build().unwrap()).unwrap()
}

/// Stream-search-heavy operations with batches long enough (up to 96
/// keys) to span several key-parallel tiles at widths 32 and 64, mixed
/// with enough write churn to keep the write buffer busy.
fn wide_stream_op() -> impl Strategy<Value = TierOp> {
    prop_oneof![
        5 => proptest::collection::vec(0u64..64, 1..96).prop_map(TierOp::SearchStream),
        3 => proptest::collection::vec(0u64..64, 1..4).prop_map(TierOp::Update),
        2 => (0u64..64).prop_map(TierOp::DeleteFirst),
        2 => (0u64..64).prop_map(TierOp::Search),
    ]
}

/// Per-block observable counters (the Turbo tier must tick them all).
fn block_counters(cam: &CamUnit) -> Vec<(usize, u64, u64, u64)> {
    cam.blocks()
        .iter()
        .map(|b| (b.len(), b.cycles(), b.update_beats(), b.searches()))
        .collect()
}

/// `delete_first(key)` on both tiers against the bit-accurate search
/// answer: the delete hits exactly when a search matches, and removes the
/// lowest matching address. The probe is shared by both tiers, so only
/// the DSP oracle's search can catch a probe that misreads don't-care
/// bits.
fn assert_delete_matches_oracle(
    accurate: &mut CamUnit,
    turbo: &mut CamUnit,
    key: u64,
) -> Result<(), TestCaseError> {
    let first = accurate.search(key).first_address();
    prop_assert_eq!(turbo.search(key).first_address(), first, "key {:#x}", key);
    let hit = turbo.delete_first(key);
    prop_assert_eq!(accurate.delete_first(key), hit, "key {:#x}", key);
    prop_assert_eq!(hit, first.is_some(), "delete vs oracle, key {:#x}", key);
    let after = accurate.search(key);
    prop_assert_eq!(&turbo.search(key), &after, "key {:#x} after delete", key);
    if hit {
        prop_assert_ne!(after.first_address(), first, "kept lowest match {:#x}", key);
    }
    Ok(())
}

proptest! {
    // 256 random operation sequences per property (stub default).

    #[test]
    fn shadow_tiers_are_observationally_identical(
        ops in proptest::collection::vec(tier_op(16), 1..40),
    ) {
        let mut accurate = build(FidelityMode::BitAccurate);
        let mut turbo = build(FidelityMode::Turbo);
        for (i, op) in ops.iter().enumerate() {
            let a = apply(&mut accurate, op);
            let t = apply(&mut turbo, op);
            prop_assert_eq!(&a, &t, "turbo diverged at op {} ({:?})", i, op);
        }
        prop_assert_eq!(accurate.snapshot(), turbo.snapshot(), "turbo unit counters diverged");
        prop_assert_eq!(
            block_counters(&accurate),
            block_counters(&turbo),
            "turbo block cycle accounting diverged"
        );
    }

    #[test]
    fn shadow_tiers_match_on_ternary_units(
        stored in proptest::collection::vec(0u64..0xFFFF, 1..8),
        keys in proptest::collection::vec(0u64..0xFFFF, 1..16),
        dont_care in 0u64..0xFF,
        deletes in proptest::collection::vec((0usize..8, 0u64..0x200), 1..8),
    ) {
        let mk = |fidelity| {
            CamUnit::new(
                UnitConfig::builder()
                    .kind(CamKind::Ternary)
                    .ternary_mask(dont_care)
                    .data_width(16)
                    .block_size(8)
                    .num_blocks(1)
                    .bus_width(64)
                    .fidelity(fidelity)
                    .build()
                    .unwrap(),
            )
            .unwrap()
        };
        let mut accurate = mk(FidelityMode::BitAccurate);
        let mut turbo = mk(FidelityMode::Turbo);
        for &v in &stored {
            accurate.update(&[v]).unwrap();
            turbo.update(&[v]).unwrap();
        }
        for &k in &keys {
            prop_assert_eq!(
                &accurate.search(k), &turbo.search(k),
                "turbo ternary divergence at key {:#x} mask {:#x}", k, dont_care
            );
        }
        // Deletes keyed on a stored word with noise in its don't-care
        // bits must match through them; noise in bit 8 (always cared)
        // makes the key miss.
        for &(i, noise) in &deletes {
            let k = stored[i % stored.len()] ^ (noise & (dont_care | 0x100));
            assert_delete_matches_oracle(&mut accurate, &mut turbo, k)?;
        }
        for &k in keys.iter().chain(&stored) {
            prop_assert_eq!(
                &accurate.search(k), &turbo.search(k),
                "turbo ternary divergence after deletes at key {:#x}", k
            );
        }
        prop_assert_eq!(turbo.audit_shadows(), 0);
        prop_assert_eq!(accurate.snapshot(), turbo.snapshot());
        prop_assert_eq!(block_counters(&accurate), block_counters(&turbo));
    }

    #[test]
    fn shadow_tiers_match_on_range_units(
        ranges in proptest::collection::vec((0u64..0x1000, 0u32..8), 1..8),
        keys in proptest::collection::vec(0u64..0x2000, 1..16),
        deletes in proptest::collection::vec((0usize..8, 0u64..0x2000), 1..8),
    ) {
        let mk = |fidelity| {
            CamUnit::new(
                UnitConfig::builder()
                    .kind(CamKind::RangeMatching)
                    .data_width(16)
                    .block_size(8)
                    .num_blocks(1)
                    .bus_width(64)
                    .fidelity(fidelity)
                    .build()
                    .unwrap(),
            )
            .unwrap()
        };
        let mut accurate = mk(FidelityMode::BitAccurate);
        let mut turbo = mk(FidelityMode::Turbo);
        let mut specs = Vec::new();
        for &(base, log2) in &ranges {
            let aligned = base & !((1u64 << log2) - 1);
            let spec = RangeSpec::new(aligned, log2).unwrap();
            accurate.update_ranges(&[spec]).unwrap();
            turbo.update_ranges(&[spec]).unwrap();
            specs.push((aligned, log2));
        }
        for &k in &keys {
            prop_assert_eq!(
                &accurate.search(k), &turbo.search(k),
                "turbo range divergence at key {:#x}", k
            );
        }
        // Deletes keyed inside a stored range must match through its
        // don't-care low bits; noise with bit 12 set is an arbitrary key.
        for &(i, noise) in &deletes {
            let (aligned, log2) = specs[i % specs.len()];
            let k = if noise & 0x1000 == 0 {
                aligned + (noise & ((1u64 << log2) - 1))
            } else {
                noise
            };
            assert_delete_matches_oracle(&mut accurate, &mut turbo, k)?;
        }
        for &k in &keys {
            prop_assert_eq!(
                &accurate.search(k), &turbo.search(k),
                "turbo range divergence after deletes at key {:#x}", k
            );
        }
        prop_assert_eq!(turbo.audit_shadows(), 0);
        prop_assert_eq!(accurate.snapshot(), turbo.snapshot());
        prop_assert_eq!(block_counters(&accurate), block_counters(&turbo));
    }

    #[test]
    fn delete_update_round_trips_coherently_across_tiers_and_workers(
        ops in proptest::collection::vec(churn_op(), 1..40),
    ) {
        // Both tiers must agree under interleaved delete/update/search
        // churn, keep coherent shadow indexes, and round-trip deleted
        // capacity: a full unit becomes writable again after a deletion.
        // (The test name seeds the generated cases, so it keeps its
        // `_and_workers` suffix.)
        let mut units: Vec<CamUnit> = [FidelityMode::BitAccurate, FidelityMode::Turbo]
            .into_iter()
            .map(build)
            .collect();
        for (i, op) in ops.iter().enumerate() {
            let (oracle, rest) = units.split_first_mut().unwrap();
            let want = apply(oracle, op);
            for (u, cam) in rest.iter_mut().enumerate() {
                let got = apply(cam, op);
                prop_assert_eq!(&want, &got, "unit {} diverged at op {} ({:?})", u + 1, i, op);
            }
        }
        for cam in &mut units {
            prop_assert_eq!(cam.audit_shadows(), 0, "shadow divergence after churn");
            // Full-capacity round trip: fill, prove Full, delete, refill.
            let free = cam.capacity() - cam.len();
            cam.update(&vec![9u64; free]).unwrap();
            prop_assert!(matches!(cam.update(&[9]), Err(CamError::Full { .. })));
            if cam.delete_first(9) {
                cam.update(&[9]).unwrap();
                prop_assert!(matches!(cam.update(&[9]), Err(CamError::Full { .. })));
            }
            prop_assert_eq!(cam.audit_shadows(), 0, "shadow divergence after round trip");
        }
        let want = units[0].snapshot();
        for (u, cam) in units.iter().enumerate().skip(1) {
            prop_assert_eq!(&want, &cam.snapshot(), "unit {} counters diverged", u);
        }
    }

    #[test]
    fn write_buffer_and_batch_width_cross_product_agrees(
        ops in proptest::collection::vec(wide_stream_op(), 1..30),
    ) {
        // The write buffer must stay transparent at every key-parallel
        // batch width: an unbuffered width-1 unit is the oracle, and the
        // cross product write_buffer {off, on} x batch_width {1, 32, 64}
        // must match it op for op, then agree on flushed quiescent state.
        let mut reference = build_buffered(1, false);
        let mut variants: Vec<(usize, bool, CamUnit)> = [
            (1, true),
            (32, false),
            (32, true),
            (64, false),
            (64, true),
        ]
        .iter()
        .map(|&(width, buffered)| (width, buffered, build_buffered(width, buffered)))
        .collect();
        for (i, op) in ops.iter().enumerate() {
            let want = apply(&mut reference, op);
            for (width, buffered, cam) in &mut variants {
                let got = apply(cam, op);
                prop_assert_eq!(
                    &want, &got,
                    "width {} buffered {} diverged at op {} ({:?})",
                    width, buffered, i, op
                );
            }
        }
        reference.flush_write_buffer();
        for (width, buffered, cam) in &mut variants {
            cam.flush_write_buffer();
            prop_assert_eq!(cam.write_buffer_depth(), 0, "width {} residual staging", width);
            prop_assert_eq!(cam.audit_shadows(), 0, "width {} shadow divergence", width);
            prop_assert_eq!(
                reference.snapshot(),
                cam.snapshot(),
                "width {} buffered {} unit counters diverged",
                width,
                buffered
            );
            prop_assert_eq!(
                block_counters(&reference),
                block_counters(cam),
                "width {} buffered {} block accounting diverged",
                width,
                buffered
            );
        }
    }

    #[test]
    fn fidelity_switch_mid_stream_is_seamless(
        before in proptest::collection::vec(tier_op(16), 1..15),
        between in proptest::collection::vec(tier_op(16), 1..15),
        after in proptest::collection::vec(tier_op(16), 1..15),
    ) {
        // Hot-switching BitAccurate -> Turbo -> BitAccurate mid-stream must be
        // indistinguishable from running BitAccurate throughout (and the
        // shadow indexes must stay coherent across the switches).
        let mut reference = build(FidelityMode::BitAccurate);
        let mut switched = build(FidelityMode::BitAccurate);
        for op in &before {
            let a = apply(&mut reference, op);
            let b = apply(&mut switched, op);
            prop_assert_eq!(a, b);
        }
        switched.set_fidelity(FidelityMode::Turbo);
        for (i, op) in between.iter().enumerate() {
            let a = apply(&mut reference, op);
            let b = apply(&mut switched, op);
            prop_assert_eq!(&a, &b, "post-turbo-switch divergence at op {} ({:?})", i, op);
        }
        switched.set_fidelity(FidelityMode::BitAccurate);
        for (i, op) in after.iter().enumerate() {
            let a = apply(&mut reference, op);
            let b = apply(&mut switched, op);
            prop_assert_eq!(&a, &b, "post-switch-back divergence at op {} ({:?})", i, op);
        }
        prop_assert_eq!(reference.snapshot(), switched.snapshot());
        prop_assert_eq!(block_counters(&reference), block_counters(&switched));
    }
}
