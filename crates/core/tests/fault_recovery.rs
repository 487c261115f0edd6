//! Chaos differential property tests for the fault-injection and
//! scrubbing subsystem: under any seeded [`FaultPlan`], a scrub-enabled
//! unit must *converge* — once injection stops and the walker completes
//! its sweeps, the faulted unit is bit-identical to an unfaulted
//! reference that ran the same operation stream, in results **and**
//! architectural counters, on both fidelity tiers.
//!
//! Phases per case:
//!
//! 1. **chaos** — identical updates/searches on both units while the
//!    plan peppers the faulted unit's shadow structures and Routing
//!    Table (deletes are excluded here: deletion probes the bit-sliced
//!    planes, so a live fault could legitimately pick a different
//!    victim and diverge *architecturally* — that is a documented
//!    limitation of shadow-probed deletion, not a scrubbing bug);
//! 2. **quiescence** — injection stops; enough operations run to
//!    complete five full scrub sweeps, repairing every residual fault
//!    and letting the degradation governor restore the original tier;
//! 3. **verify** — zero residual shadow divergence, a balanced
//!    detect/repair ledger, bit-identical search results over the key
//!    domain, equal snapshots, and delete/update churn agreeing op for
//!    op now that the shadows are clean again.

use dsp_cam_core::prelude::*;
use proptest::prelude::*;

/// Geometry shared by every unit in this suite: 4 blocks x 8 cells of
/// 16-bit words, so one sweep is 32 cells = 4 ops at 8 cells/op.
const BLOCKS: usize = 4;
const BLOCK_SIZE: usize = 8;
const WIDTH: u32 = 16;
const CELLS_PER_OP: usize = 8;

/// Keys live in a narrow domain so searches hit stored entries often
/// and the final domain sweep is exhaustive.
const KEY_DOMAIN: u64 = 64;

fn build(fidelity: FidelityMode) -> CamUnit {
    let config = UnitConfig::builder()
        .data_width(WIDTH)
        .block_size(BLOCK_SIZE)
        .num_blocks(BLOCKS)
        .bus_width(64)
        .fidelity(fidelity)
        .scrub(ScrubPolicy {
            cells_per_op: CELLS_PER_OP,
            crosscheck_interval: 4,
            restore_after: 2,
        })
        .build()
        .unwrap();
    CamUnit::new(config).unwrap()
}

/// An operation that is architecturally deterministic even while the
/// shadows are faulted (no deletes: see the module docs).
#[derive(Debug, Clone)]
enum ChaosOp {
    Update(Vec<u64>),
    Search(u64),
    SearchStream(Vec<u64>),
}

fn chaos_op() -> impl Strategy<Value = ChaosOp> {
    prop_oneof![
        3 => proptest::collection::vec(0..KEY_DOMAIN, 1..4).prop_map(ChaosOp::Update),
        4 => (0..KEY_DOMAIN).prop_map(ChaosOp::Search),
        3 => proptest::collection::vec(0..KEY_DOMAIN, 1..8).prop_map(ChaosOp::SearchStream),
    ]
}

/// Apply `op` identically to both units; only update outcomes are
/// compared mid-chaos (they depend purely on architectural occupancy,
/// which faults never touch).
fn apply_chaos(faulted: &mut CamUnit, reference: &mut CamUnit, op: &ChaosOp) -> (String, String) {
    match op {
        ChaosOp::Update(words) => (
            format!("{:?}", faulted.update(words)),
            format!("{:?}", reference.update(words)),
        ),
        ChaosOp::Search(key) => {
            faulted.search(*key);
            reference.search(*key);
            (String::new(), String::new())
        }
        ChaosOp::SearchStream(keys) => {
            faulted.search_stream(keys);
            reference.search_stream(keys);
            (String::new(), String::new())
        }
    }
}

/// Post-repair churn: every public mutation, compared op for op.
#[derive(Debug, Clone)]
enum ChurnOp {
    Update(Vec<u64>),
    Search(u64),
    SearchStream(Vec<u64>),
    DeleteFirst(u64),
}

fn churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        3 => proptest::collection::vec(0..KEY_DOMAIN, 1..4).prop_map(ChurnOp::Update),
        3 => (0..KEY_DOMAIN).prop_map(ChurnOp::Search),
        2 => proptest::collection::vec(0..KEY_DOMAIN, 1..8).prop_map(ChurnOp::SearchStream),
        3 => (0..KEY_DOMAIN).prop_map(ChurnOp::DeleteFirst),
    ]
}

fn apply_churn(cam: &mut CamUnit, op: &ChurnOp) -> String {
    match op {
        ChurnOp::Update(words) => format!("{:?}", cam.update(words)),
        ChurnOp::Search(key) => format!("{:?}", cam.search(*key)),
        ChurnOp::SearchStream(keys) => format!("{:?}", cam.search_stream(keys)),
        ChurnOp::DeleteFirst(key) => format!("{:?}", cam.delete_first(*key)),
    }
}

/// Drive five full sweeps' worth of fixed-key searches on both units so
/// the walker repairs every residual fault and the governor's clean-sweep
/// streak reaches its restore threshold.
fn quiesce(faulted: &mut CamUnit, reference: &mut CamUnit) {
    let sweep_ops = (BLOCKS * BLOCK_SIZE).div_ceil(CELLS_PER_OP);
    for _ in 0..5 * sweep_ops {
        faulted.search(0);
        reference.search(0);
    }
}

/// The convergence checks shared by every property below.
fn assert_converged(
    faulted: &mut CamUnit,
    reference: &mut CamUnit,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(faulted.audit_shadows(), 0, "{}: residual divergence", label);
    let report = faulted.scrub_report();
    prop_assert_eq!(
        report.faults_repaired,
        report.faults_detected,
        "{}: unbalanced repair ledger",
        label
    );
    prop_assert!(
        !report.is_degraded(),
        "{}: governor failed to restore after clean sweeps",
        label
    );
    prop_assert_eq!(
        report.current_tier,
        reference.scrub_report().current_tier,
        "{}: tier mismatch after restore",
        label
    );
    for key in 0..KEY_DOMAIN {
        prop_assert_eq!(
            faulted.search(key),
            reference.search(key),
            "{}: key {} diverged after quiescence",
            label,
            key
        );
    }
    let keys: Vec<u64> = (0..KEY_DOMAIN).collect();
    prop_assert_eq!(
        faulted.search_stream(&keys),
        reference.search_stream(&keys),
        "{}: stream sweep diverged",
        label
    );
    prop_assert_eq!(
        faulted.snapshot(),
        reference.snapshot(),
        "{}: snapshots diverged",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: any uniform fault plan up to the 1e-2
    /// per-cycle acceptance rate converges on every tier, and post-repair
    /// churn (including deletion) agrees op for op with the unfaulted
    /// reference. (The test name seeds the generated cases, so it keeps
    /// its `_and_workers` suffix.)
    #[test]
    fn chaos_converges_to_unfaulted_reference_across_tiers_and_workers(
        seed in any::<u64>(),
        // Per-cycle rate in [0, 1e-2] — the acceptance ceiling — drawn
        // in 1e-4 steps (the vendored stub has no f64 range strategy).
        rate_ticks in 0u64..=100,
        ops in proptest::collection::vec(chaos_op(), 8..32),
        churn in proptest::collection::vec(churn_op(), 1..20),
    ) {
        for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            let label = format!("{fidelity:?}");
            let mut faulted = build(fidelity);
            let mut reference = build(fidelity);
            faulted.configure_groups(2).unwrap();
            reference.configure_groups(2).unwrap();
            let mut plan = FaultPlan::uniform(seed, rate_ticks as f64 * 1e-4);
            for (i, op) in ops.iter().enumerate() {
                let (f, r) = apply_chaos(&mut faulted, &mut reference, op);
                prop_assert_eq!(
                    &f, &r,
                    "{}: update outcome diverged at op {} ({:?})", &label, i, op
                );
                // Eight modelled cycles of exposure between operations.
                faulted.inject_faults(&mut plan, 8);
            }
            quiesce(&mut faulted, &mut reference);
            assert_converged(&mut faulted, &mut reference, &label)?;
            for (i, op) in churn.iter().enumerate() {
                let f = apply_churn(&mut faulted, op);
                let r = apply_churn(&mut reference, op);
                prop_assert_eq!(
                    &f, &r,
                    "{}: clean churn diverged at op {} ({:?})", &label, i, op
                );
            }
            prop_assert_eq!(faulted.audit_shadows(), 0, "{}: churn left divergence", &label);
            prop_assert_eq!(faulted.snapshot(), reference.snapshot(), "{}: churn snapshots", &label);
        }
    }

    /// Targeted worst-case campaign: every fault class at once, aimed
    /// from the seed's bits, on the tier that consults the faulted
    /// structure.
    #[test]
    fn targeted_multi_class_campaign_converges(
        seed in any::<u64>(),
        stored in proptest::collection::vec(0..KEY_DOMAIN, 1..12),
        cells in proptest::collection::vec((0usize..BLOCKS, 0usize..BLOCK_SIZE), 1..6),
    ) {
        let mut faulted = build(FidelityMode::Turbo);
        let mut reference = build(FidelityMode::Turbo);
        faulted.update(&stored).unwrap();
        reference.update(&stored).unwrap();
        let mut rng_bits = seed;
        for &(block, cell) in &cells {
            // Cycle the fault class per site from the seed's low bits.
            let fault = if rng_bits % 5 < 3 {
                ShadowFault::Plane {
                    cell,
                    key_bit: (rng_bits >> 3) as usize % WIDTH as usize,
                    one_plane: rng_bits & 4 != 0,
                }
            } else {
                ShadowFault::PlaneValid { cell }
            };
            rng_bits = rng_bits.rotate_right(7) ^ 0x9E37_79B9_7F4A_7C15;
            faulted.inject_fault(FaultSite::Shadow { block, fault });
        }
        faulted.inject_fault(FaultSite::Routing { block: BLOCKS - 1 });
        quiesce(&mut faulted, &mut reference);
        assert_converged(&mut faulted, &mut reference, "targeted")?;
    }

    /// The rehydrate round trip guards the `#[serde(skip)]` transients:
    /// restoring a chaos survivor resets only the scratch buffers and
    /// per-block transients, never architectural or scrub state.
    #[test]
    fn rehydrated_chaos_survivor_is_indistinguishable(
        seed in any::<u64>(),
        ops in proptest::collection::vec(chaos_op(), 4..16),
        probes in proptest::collection::vec(0..KEY_DOMAIN, 1..12),
    ) {
        let mut faulted = build(FidelityMode::Turbo);
        let mut reference = build(FidelityMode::Turbo);
        faulted.configure_groups(2).unwrap();
        reference.configure_groups(2).unwrap();
        let mut plan = FaultPlan::uniform(seed, 1e-2);
        for op in &ops {
            apply_chaos(&mut faulted, &mut reference, op);
            faulted.inject_faults(&mut plan, 8);
        }
        quiesce(&mut faulted, &mut reference);
        let mut restored = faulted.rehydrate();
        prop_assert_eq!(restored.snapshot(), faulted.snapshot());
        prop_assert_eq!(restored.scrub_report(), faulted.scrub_report());
        prop_assert_eq!(restored.audit_shadows(), faulted.audit_shadows());
        for &key in &probes {
            prop_assert_eq!(
                restored.search(key),
                faulted.search(key),
                "restored unit diverged at key {}", key
            );
            // Keep the reference in lockstep for the snapshot compare.
            reference.search(key);
        }
        // The restored unit keeps converging on its own.
        assert_converged(&mut restored, &mut reference, "rehydrated")?;
    }
}

/// Deterministic governor regression pinning the `restore_after = K`
/// contract at unit scope through the public API: degrade on a caught
/// divergence, stay degraded through K-1 clean sweeps, restore on the
/// K-th.
#[test]
fn governor_restores_exactly_after_k_clean_sweeps() {
    for k in [1u64, 2, 3] {
        let config = UnitConfig::builder()
            .data_width(WIDTH)
            .block_size(BLOCK_SIZE)
            .num_blocks(2)
            .fidelity(FidelityMode::Turbo)
            .scrub(ScrubPolicy {
                cells_per_op: 2 * BLOCK_SIZE, // one full sweep per op
                crosscheck_interval: 1,
                restore_after: k,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[5]).unwrap();
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 0,
                key_bit: 0,
                one_plane: true,
            },
        });
        assert!(cam.search(5).is_match(), "K={k}: corrected answer served");
        assert!(
            cam.scrub_report().is_degraded(),
            "K={k}: degraded on divergence"
        );
        // The divergence dirtied its own sweep; each further op is one
        // clean sweep.
        for sweep in 1..k {
            cam.search(5);
            assert!(
                cam.scrub_report().is_degraded(),
                "K={k}: restored too early after {sweep} clean sweeps"
            );
        }
        cam.search(5);
        let report = cam.scrub_report();
        assert!(
            !report.is_degraded(),
            "K={k}: not restored after K clean sweeps"
        );
        assert_eq!(report.current_tier, FidelityMode::Turbo);
        assert_eq!(cam.audit_shadows(), 0);
    }
}
