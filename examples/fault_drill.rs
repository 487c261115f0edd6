//! Fault-injection drill: a fixed-seed chaos campaign against a
//! scrub-enabled Turbo unit, end to end through the self-healing ladder.
//!
//! The drill walks the full degradation story deterministically:
//!
//! 1. build a Turbo unit with an aggressive [`ScrubPolicy`] and load it;
//! 2. pepper its bit-sliced planes, their valid bitmap and the Routing
//!    Table from a seeded [`FaultPlan`] while serving searches (the
//!    cross-check governor catches a divergence, serves the corrected
//!    answer, and degrades Turbo -> BitAccurate, the DSP oracle itself);
//! 3. plant one targeted plane fault to force the degradation even at
//!    seeds that got lucky, plus a Routing Table upset;
//! 4. run the unit quiet: the scrub walker repairs every site, the
//!    clean-sweep streak reaches the restore threshold, and the governor
//!    hands the unit back to Turbo;
//! 5. assert zero residual divergence, a balanced detect/repair ledger,
//!    and bit-identical answers against a freshly built reference.
//!
//! With `--features obs` the drill also publishes the `scrub/*` counters
//! and prints the tier-degradation events captured in the trace.
//!
//! Run with: `cargo run --example fault_drill` (optionally `--features obs`)

use dsp_cam::prelude::*;

const SEED: u64 = 0xD511_CA3B;

fn build_unit() -> Result<CamUnit, Box<dyn std::error::Error>> {
    let config = UnitConfig::builder()
        .data_width(16)
        .block_size(8)
        .num_blocks(4)
        .bus_width(64)
        .fidelity(FidelityMode::Turbo)
        .scrub(ScrubPolicy {
            cells_per_op: 8,
            crosscheck_interval: 2,
            restore_after: 2,
            strict: false,
        })
        .build()?;
    Ok(CamUnit::new(config)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cam = build_unit()?;
    #[cfg(feature = "obs")]
    let sink = std::sync::Arc::new(dsp_cam_obs::ObsSink::with_trace_capacity(1 << 12));
    #[cfg(feature = "obs")]
    cam.attach_observer(&sink);

    cam.configure_groups(2)?;
    let stored: Vec<u64> = (0..12).map(|i| i * 5 + 1).collect();
    cam.update(&stored)?;
    println!(
        "loaded {} entries across {} groups on the {:?} tier",
        cam.len() * cam.groups(),
        cam.groups(),
        cam.scrub_report().current_tier
    );

    // ---- Chaos: seeded shower plus two targeted upsets ----------------
    let mut plan = FaultPlan::uniform(SEED, 5e-3);
    let mut injected = 0;
    for round in 0..24 {
        injected += cam.inject_faults(&mut plan, 16);
        cam.search(stored[round % stored.len()]);
    }
    cam.inject_fault(FaultSite::Shadow {
        block: 0,
        fault: ShadowFault::Plane {
            cell: 0,
            key_bit: 0,
            one_plane: true,
        },
    });
    cam.inject_fault(FaultSite::Routing { block: 3 });
    injected += 2;
    // Key 1 lives in cell 0 and has bit 0 set: the faulted match-if-1
    // plane makes Turbo miss it in block 0, which serves group 0 (plain
    // `search` would route key 1 to group 1, so the drill addresses
    // group 0 directly). Only every 2nd answer is cross-checked, so an
    // unchecked search may serve the faulted miss — but within two
    // searches the sampler must catch the divergence, repair the group,
    // and serve the corrected (matching) answer.
    let mut caught = cam.scrub_report().is_degraded();
    for _ in 0..4 {
        if caught {
            break;
        }
        let hit = cam.search_group(0, 1)?;
        if cam.scrub_report().is_degraded() {
            assert!(
                hit.is_match(),
                "a caught divergence serves the corrected answer"
            );
            caught = true;
        }
    }
    assert!(caught, "cross-check governor never caught the plane fault");
    let mid = cam.scrub_report();
    println!(
        "injected {} faults; governor degraded {:?} -> {:?} after {} cross-checks \
         ({} divergences)",
        injected,
        FidelityMode::Turbo,
        mid.current_tier,
        mid.crosschecks,
        mid.divergences
    );
    assert_eq!(
        mid.current_tier,
        FidelityMode::BitAccurate,
        "degraded to the oracle tier"
    );

    // ---- Scrub quiet: walker repairs, governor restores ---------------
    let mut rounds = 0;
    while (cam.scrub_report().is_degraded() || cam.audit_shadows() > 0) && rounds < 64 {
        cam.search(1);
        rounds += 1;
    }
    let report = cam.scrub_report();
    println!(
        "quiesced after {} scrub rounds: {} cells audited, {} faults detected, \
         {} repaired, {} sweeps, tier {:?}",
        rounds,
        report.cells_audited,
        report.faults_detected,
        report.faults_repaired,
        report.sweeps_completed,
        report.current_tier
    );
    assert_eq!(report.current_tier, FidelityMode::Turbo, "tier restored");
    assert!(!report.is_degraded());
    assert_eq!(report.faults_repaired, report.faults_detected);
    assert_eq!(cam.audit_shadows(), 0, "zero residual divergence");

    // ---- Differential close-out ---------------------------------------
    let mut reference = build_unit()?;
    reference.configure_groups(2)?;
    reference.update(&stored)?;
    for key in 0..64u64 {
        assert_eq!(
            cam.search(key).is_match(),
            reference.search(key).is_match(),
            "post-repair divergence at key {key}"
        );
    }
    println!("64-key differential sweep against a fresh reference: identical");

    #[cfg(feature = "obs")]
    {
        cam.publish_metrics();
        let snapshot = sink.snapshot();
        let scope = "unit/scrub";
        println!(
            "obs: {scope} counters: audited={} detected={} repaired={}",
            snapshot.counter(scope, "cells_audited"),
            snapshot.counter(scope, "faults_detected"),
            snapshot.counter(scope, "faults_repaired"),
        );
        let degradations = sink
            .trace_records()
            .iter()
            .filter(|r| r.event.kind_name() == "tier_degraded")
            .count();
        println!("obs: {degradations} tier-degradation event(s) in the trace");
        assert!(degradations >= 1, "the degradation must be traced");
    }

    println!("fault drill complete: inject -> degrade -> scrub -> restore");
    Ok(())
}
