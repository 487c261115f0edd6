//! The exact-match candidate index of binary units (`dsp_cam_core::exact`).
//!
//! A Turbo walk on a binary unit visits only the blocks the index names
//! for a key plus the suspect ones, so it must answer and charge exactly
//! as a walk over every block: against a `ternary(w, 0)` twin (the same
//! plane walk with no index), under shadow faults, and under faults of
//! the index itself.
//!
//! A shadow fault can make a block answer a key it holds no copy of: a
//! valid-bit upset on an unwritten cell (which stores 0 with every bit
//! cared) makes the planes match key 0. Every Turbo plane walk and the
//! deletion probe must serve that faulted answer, exactly as a walk
//! over every block would, so the sampled cross-check sees the
//! divergence and degrades the tier.
//!
//! A candidate walk leaves the blocks it skips or that miss owed an
//! all-miss search each, which reach the counters only where they can
//! be read or must settle; a full walk charges every block as it goes,
//! so the ternary twin is an independent reference at each such point.

#[cfg(feature = "obs")]
use std::sync::Arc;

use dsp_cam_core::faults::XorShift64;
use dsp_cam_core::prelude::*;
#[cfg(feature = "obs")]
use dsp_cam_obs::ObsSink;

const BLOCK_SIZE: usize = 8;

/// Two 8-cell blocks of 16-bit words in one group, with three entries
/// in block 0 and none in block 1.
fn turbo_unit(scrub: Option<ScrubPolicy>) -> CamUnit {
    let mut builder = UnitConfig::builder()
        .data_width(16)
        .block_size(BLOCK_SIZE)
        .num_blocks(2)
        .bus_width(64)
        .fidelity(FidelityMode::Turbo);
    if let Some(policy) = scrub {
        builder = builder.scrub(policy);
    }
    let mut cam = CamUnit::new(builder.build().unwrap()).unwrap();
    cam.update(&[5, 9, 12]).unwrap();
    cam
}

/// A valid-bit upset on unwritten cell 3 of block 1: the planes now
/// hold a phantom copy of key 0 at group-local address 8 + 3.
const PHANTOM: FaultSite = FaultSite::Shadow {
    block: 1,
    fault: ShadowFault::PlaneValid { cell: 3 },
};
const PHANTOM_ADDRESS: usize = BLOCK_SIZE + 3;

/// Every sampled key is cross-checked; the walker stays idle so only
/// the cross-check can see the fault.
fn crosscheck_every_key() -> ScrubPolicy {
    ScrubPolicy {
        cells_per_op: 0,
        crosscheck_interval: 1,
        restore_after: 4,
    }
}

#[derive(Debug, Clone, Copy)]
enum Walk {
    Search,
    Multi,
    Stream,
}

fn first_address(cam: &mut CamUnit, walk: Walk) -> Option<usize> {
    match walk {
        Walk::Search => cam.search(0).first_address(),
        Walk::Multi => cam.search_multi(&[0])[0].first_address(),
        Walk::Stream => cam.search_stream(&[0])[0].first_address(),
    }
}

#[test]
fn turbo_walks_serve_a_phantom_match_in_a_block_without_the_key() {
    for walk in [Walk::Search, Walk::Multi, Walk::Stream] {
        let mut cam = turbo_unit(None);
        assert_eq!(first_address(&mut cam, walk), None, "{walk:?}: clean");
        cam.inject_fault(PHANTOM);
        assert_eq!(
            first_address(&mut cam, walk),
            Some(PHANTOM_ADDRESS),
            "{walk:?}: the faulted plane walk's answer"
        );
    }
}

#[test]
fn the_crosscheck_catches_a_phantom_match_and_degrades_the_tier() {
    for walk in [Walk::Search, Walk::Multi, Walk::Stream] {
        let mut cam = turbo_unit(Some(crosscheck_every_key()));
        cam.inject_fault(PHANTOM);
        assert_eq!(
            first_address(&mut cam, walk),
            None,
            "{walk:?}: the corrected answer is served"
        );
        let report = cam.scrub_report();
        assert_eq!(report.divergences, 1, "{walk:?}: divergence counted");
        assert_eq!(report.degraded_from, Some(FidelityMode::Turbo), "{walk:?}");
        assert_eq!(report.current_tier, FidelityMode::BitAccurate, "{walk:?}");
        assert_eq!(cam.audit_shadows(), 0, "{walk:?}: repaired");
    }
}

#[test]
fn delete_first_deletes_a_phantom_match_in_a_block_without_the_key() {
    for scrub in [None, Some(crosscheck_every_key())] {
        let mut cam = turbo_unit(scrub);
        cam.inject_fault(PHANTOM);
        assert!(cam.delete_first(0), "{scrub:?}: the faulted probe hits");
        assert_eq!(cam.len(), 2, "{scrub:?}: the phantom delete counts");
        assert_eq!(cam.audit_shadows(), 0, "{scrub:?}: invalidation re-shadows");
        assert_eq!(cam.stored_words(), vec![5, 9, 12], "{scrub:?}");
    }
}

/// A binary Turbo unit and its `ternary(16, 0)` twin under `encoding`:
/// the identical plane walk over every block, with no exact-match index.
fn binary_and_ternary_twin(blocks: usize, groups: usize, encoding: Encoding) -> (CamUnit, CamUnit) {
    let build = |cell: CellConfig| {
        let config = UnitConfig::builder()
            .kind(cell.kind)
            .data_width(cell.data_width)
            .ternary_mask(cell.ternary_mask)
            .block_size(BLOCK_SIZE)
            .num_blocks(blocks)
            .bus_width(64)
            .encoding(encoding)
            .fidelity(FidelityMode::Turbo)
            .batch_width(4)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(groups).unwrap();
        cam
    };
    (
        build(CellConfig::binary(16)),
        build(CellConfig::ternary(16, 0)),
    )
}

const ENCODINGS: [Encoding; 4] = [
    Encoding::Priority,
    Encoding::OneHot,
    Encoding::AddressList,
    Encoding::MatchCount,
];

/// Per-block counters a full walk charges: occupancy, cycles, update
/// beats and searches (plus the match/miss tallies under `obs`).
fn block_counters(cam: &CamUnit) -> Vec<Vec<u64>> {
    cam.blocks()
        .iter()
        .map(|b| {
            let counters = vec![b.len() as u64, b.cycles(), b.update_beats(), b.searches()];
            #[cfg(feature = "obs")]
            let counters = [counters, vec![b.obs_matches(), b.obs_misses()]].concat();
            counters
        })
        .collect()
}

/// The key most draws of the churn below pick, so it holds copies in
/// most blocks of a group and a Priority walk meets later candidates
/// after its first hit.
const HOT: u64 = 7;

#[test]
fn candidate_walks_answer_and_charge_exactly_as_full_walks() {
    for encoding in ENCODINGS {
        churn_against_the_full_walk(encoding);
    }
}

/// Seeded churn over a narrow key domain with one hot key, so keys
/// repeat within and across blocks, deletes free cells for reuse, groups
/// and the Routing Table are rewritten now and then, and faults come and
/// go until a repartition clears them: phantom entries of the
/// exact-match index (blocks it names that hold no copy) and shadow
/// upsets that leave a block suspect.
fn churn_against_the_full_walk(encoding: Encoding) {
    let mut rng = XorShift64::new(0x000E_8AC7);
    let (mut indexed, mut full) = binary_and_ternary_twin(8, 2, encoding);
    let draw = |rng: &mut XorShift64| {
        if rng.below(3) == 0 {
            HOT
        } else {
            rng.below(40)
        }
    };
    let mut phantoms = 0;
    let mut most_holding_hot = 0;
    for step in 0..3_000 {
        let case = format!("{encoding:?} step {step}");
        let key = draw(&mut rng);
        let (a, b) = match rng.below(22) {
            0..=5 => {
                let words: Vec<u64> = (0..=rng.below(3)).map(|_| draw(&mut rng)).collect();
                (
                    format!("{:?}", indexed.update(&words)),
                    format!("{:?}", full.update(&words)),
                )
            }
            6..=8 => (
                indexed.delete_first(key).to_string(),
                full.delete_first(key).to_string(),
            ),
            9..=11 => (
                format!("{:?}", indexed.search(key | 1 << 20)),
                format!("{:?}", full.search(key | 1 << 20)),
            ),
            12..=13 => {
                let keys: Vec<u64> = (0..indexed.groups()).map(|_| draw(&mut rng)).collect();
                (
                    format!("{:?}", indexed.search_multi(&keys)),
                    format!("{:?}", full.search_multi(&keys)),
                )
            }
            14..=17 => {
                let keys: Vec<u64> = (0..=rng.below(12)).map(|_| draw(&mut rng)).collect();
                (
                    format!("{:?}", indexed.search_stream(&keys)),
                    format!("{:?}", full.search_stream(&keys)),
                )
            }
            18 => {
                let groups = [1, 2, 4][rng.below(3) as usize];
                indexed.configure_groups(groups).unwrap();
                full.configure_groups(groups).unwrap();
                phantoms = 0;
                (String::new(), String::new())
            }
            19 => {
                let (block, group) = (rng.below(8) as usize, rng.below(2) as usize);
                let written = indexed.write_routing_entry(block, group);
                if written.is_ok() {
                    phantoms = 0;
                }
                (
                    format!("{written:?}"),
                    format!("{:?}", full.write_routing_entry(block, group)),
                )
            }
            20 => {
                // Conjure a phantom: the index names a block that holds
                // no copy of the key (toggling one it does hold would
                // lose a live entry, which no walk can hide).
                let block = rng.below(8) as usize;
                if !indexed.blocks()[block].stored().any(|word| word == key) {
                    indexed.inject_fault(FaultSite::ExactIndex { block, key });
                    full.inject_fault(FaultSite::ExactIndex { block, key });
                    phantoms += 1;
                }
                (String::new(), String::new())
            }
            _ => {
                let site = FaultSite::Shadow {
                    block: rng.below(8) as usize,
                    fault: ShadowFault::Plane {
                        cell: rng.below(BLOCK_SIZE as u64) as usize,
                        key_bit: rng.below(16) as usize,
                        one_plane: rng.below(2) == 0,
                    },
                };
                indexed.inject_fault(site);
                full.inject_fault(site);
                (String::new(), String::new())
            }
        };
        assert_eq!(a, b, "{case}");
        assert_eq!(block_counters(&indexed), block_counters(&full), "{case}");
        assert_eq!(indexed.snapshot(), full.snapshot(), "{case}");
        if phantoms == 0 {
            assert_eq!(indexed.audit_exact_index(), 0, "{case}");
        }
        let holding_hot = indexed
            .blocks()
            .iter()
            .filter(|b| b.stored().any(|word| word == HOT))
            .count();
        most_holding_hot = most_holding_hot.max(holding_hot);
    }
    assert!(
        4 * most_holding_hot >= 3 * 8,
        "{encoding:?}: the hot key held copies in at most {most_holding_hot} of 8 blocks"
    );
}

/// Blocks in the fold-point twins: one group of 128 at first, so a
/// candidate walk skips most of a group of at least 64 blocks.
const FOLD_BLOCKS: usize = 128;

/// A binary Turbo unit of [`FOLD_BLOCKS`] blocks, its write buffer on or
/// off, and its `ternary(16, 0)` twin (which cannot buffer), both
/// cross-checking every key so a phantom match is caught and repaired.
fn fold_twin(encoding: Encoding, buffered: bool) -> (CamUnit, CamUnit) {
    let build = |cell: CellConfig| {
        let mut builder = UnitConfig::builder()
            .kind(cell.kind)
            .data_width(cell.data_width)
            .ternary_mask(cell.ternary_mask)
            .block_size(BLOCK_SIZE)
            .num_blocks(FOLD_BLOCKS)
            .bus_width(64)
            .encoding(encoding)
            .fidelity(FidelityMode::Turbo)
            .batch_width(4)
            .scrub(crosscheck_every_key());
        if buffered {
            builder = builder.write_buffer(WriteBufferConfig::default());
        }
        CamUnit::new(builder.build().unwrap()).unwrap()
    };
    (
        build(CellConfig::binary(16)),
        build(CellConfig::ternary(16, 0)),
    )
}

/// `steps` seeded operations on both twins, interleaving every search
/// entry point with updates and deletes over keys 1..=60 (one draw in
/// three the hot key), every answer compared.
fn churn(twins: &mut (CamUnit, CamUnit), rng: &mut XorShift64, steps: usize, case: &str) {
    let (indexed, full) = twins;
    let draw = |rng: &mut XorShift64| {
        if rng.below(3) == 0 {
            HOT
        } else {
            1 + rng.below(60)
        }
    };
    for step in 0..steps {
        let key = draw(rng);
        let (a, b) = match rng.below(10) {
            0..=2 => {
                let words: Vec<u64> = (0..=rng.below(3)).map(|_| draw(rng)).collect();
                (
                    format!("{:?}", indexed.update(&words)),
                    format!("{:?}", full.update(&words)),
                )
            }
            3..=4 => (
                indexed.delete_first(key).to_string(),
                full.delete_first(key).to_string(),
            ),
            5..=6 => (
                format!("{:?}", indexed.search(key)),
                format!("{:?}", full.search(key)),
            ),
            7 => {
                let keys: Vec<u64> = (0..indexed.groups()).map(|_| draw(rng)).collect();
                (
                    format!("{:?}", indexed.search_multi(&keys)),
                    format!("{:?}", full.search_multi(&keys)),
                )
            }
            _ => {
                let keys: Vec<u64> = (0..=rng.below(12)).map(|_| draw(rng)).collect();
                (
                    format!("{:?}", indexed.search_stream(&keys)),
                    format!("{:?}", full.search_stream(&keys)),
                )
            }
        };
        assert_eq!(a, b, "{case}: step {step}");
    }
}

/// Per-block counters, the snapshot and the scrub report agree. The
/// binary twin flushes its write buffer first: its ternary twin wrote
/// inline, and a flushed buffer leaves the blocks where inline writes
/// would.
fn assert_agree(twins: &mut (CamUnit, CamUnit), case: &str) {
    let (indexed, full) = twins;
    indexed.flush_write_buffer();
    assert_eq!(block_counters(indexed), block_counters(full), "{case}");
    assert_eq!(indexed.snapshot(), full.snapshot(), "{case}");
    assert_eq!(indexed.scrub_report(), full.scrub_report(), "{case}");
}

/// A valid-bit upset on an unwritten cell of the last block: a phantom
/// copy of key 0, which no churn stores.
const LAST_BLOCK_PHANTOM: FaultSite = FaultSite::Shadow {
    block: FOLD_BLOCKS - 1,
    fault: ShadowFault::PlaneValid { cell: 3 },
};

#[test]
fn owed_misses_reach_the_counters_at_every_fold_point() {
    for buffered in [false, true] {
        for encoding in ENCODINGS {
            fold_points_against_the_full_walk(encoding, buffered);
        }
    }
}

/// Churn both twins between every point where a unit shows or settles
/// the misses its groups owe, comparing them at each: `blocks()`,
/// `snapshot()`, `publish_metrics()` (under `obs`), a fault that puts a
/// block on its group's suspect list until the cross-check's repair
/// takes it off, a tier switch, `clone()`, `rehydrate()`,
/// `configure_groups`, `write_routing_entry` and `reset`.
fn fold_points_against_the_full_walk(encoding: Encoding, buffered: bool) {
    let mut twins = fold_twin(encoding, buffered);
    let mut rng = XorShift64::new(0x0F01_D5EE);
    let case = |point: &str| format!("{encoding:?}, buffered {buffered}: {point}");
    // Every comparison reads the counters through `blocks()`.
    churn(&mut twins, &mut rng, 80, &case("blocks()"));
    assert_agree(&mut twins, &case("blocks()"));
    churn(&mut twins, &mut rng, 40, &case("snapshot()"));
    assert_eq!(
        twins.0.snapshot(),
        twins.1.snapshot(),
        "{}",
        case("snapshot()")
    );
    assert_agree(&mut twins, &case("snapshot()"));
    #[cfg(feature = "obs")]
    {
        let sinks = [Arc::new(ObsSink::new()), Arc::new(ObsSink::new())];
        twins.0.attach_observer(&sinks[0]);
        twins.1.attach_observer(&sinks[1]);
        churn(&mut twins, &mut rng, 40, &case("publish_metrics()"));
        twins.0.flush_write_buffer();
        for (cam, sink) in [&twins.0, &twins.1].into_iter().zip(&sinks) {
            cam.publish_metrics();
            assert_eq!(
                published_counters(sink, cam.routing_table()),
                read_counters(&twins.1),
                "{}",
                case("publish_metrics()")
            );
        }
        assert_agree(&mut twins, &case("publish_metrics()"));
    }
    // The phantom puts the last block on the suspect list, so the walk
    // for key 0 visits it; the cross-check catches the phantom, repairs
    // the group (taking the block off the list) and degrades the tier.
    twins.0.inject_fault(LAST_BLOCK_PHANTOM);
    twins.1.inject_fault(LAST_BLOCK_PHANTOM);
    assert_eq!(twins.0.search(0), twins.1.search(0), "{}", case("phantom"));
    assert_eq!(twins.1.scrub_report().divergences, 1, "{}", case("phantom"));
    assert_agree(&mut twins, &case("phantom"));
    churn(&mut twins, &mut rng, 40, &case("degraded"));
    assert_agree(&mut twins, &case("degraded"));
    for cam in [&mut twins.0, &mut twins.1] {
        cam.set_fidelity(FidelityMode::Turbo);
    }
    assert_agree(&mut twins, &case("set_fidelity"));
    churn(&mut twins, &mut rng, 40, &case("set_fidelity"));
    assert_agree(&mut twins, &case("set_fidelity"));
    let mut copies = (twins.0.clone(), twins.1.clone());
    assert_agree(&mut copies, &case("clone()"));
    churn(&mut copies, &mut rng, 40, &case("clone()"));
    assert_agree(&mut copies, &case("clone()"));
    let mut twins = (copies.0.rehydrate(), copies.1.rehydrate());
    assert_agree(&mut twins, &case("rehydrate()"));
    churn(&mut twins, &mut rng, 40, &case("rehydrate()"));
    assert_agree(&mut twins, &case("rehydrate()"));
    for cam in [&mut twins.0, &mut twins.1] {
        cam.configure_groups(2).unwrap();
    }
    assert_agree(&mut twins, &case("configure_groups"));
    churn(&mut twins, &mut rng, 60, &case("configure_groups"));
    assert_agree(&mut twins, &case("configure_groups"));
    for cam in [&mut twins.0, &mut twins.1] {
        cam.write_routing_entry(3, 1).unwrap();
    }
    assert_agree(&mut twins, &case("write_routing_entry"));
    churn(&mut twins, &mut rng, 60, &case("write_routing_entry"));
    assert_agree(&mut twins, &case("write_routing_entry"));
    for cam in [&mut twins.0, &mut twins.1] {
        cam.reset();
    }
    assert_agree(&mut twins, &case("reset"));
    churn(&mut twins, &mut rng, 60, &case("reset"));
    assert_agree(&mut twins, &case("reset"));
}

/// The counters `publish_metrics` writes at each block's scope:
/// searches, cycles, update beats, matches and misses.
#[cfg(feature = "obs")]
fn published_counters(sink: &ObsSink, routing: &[usize]) -> Vec<[u64; 5]> {
    let snapshot = sink.snapshot();
    routing
        .iter()
        .enumerate()
        .map(|(b, g)| {
            let path = format!("unit/group{g}/block{b}");
            ["searches", "cycles", "update_beats", "matches", "misses"]
                .map(|name| snapshot.counter(&path, name))
        })
        .collect()
}

/// The same counters read from the blocks.
#[cfg(feature = "obs")]
fn read_counters(cam: &CamUnit) -> Vec<[u64; 5]> {
    cam.blocks()
        .iter()
        .map(|b| {
            [
                b.searches(),
                b.cycles(),
                b.update_beats(),
                b.obs_matches(),
                b.obs_misses(),
            ]
        })
        .collect()
}

/// A phantom index entry leaves the walk untrusted: the block it names
/// runs its kernel and is charged the miss a full walk charges it,
/// never a match, even after the key's first hit.
#[cfg(feature = "obs")]
#[test]
fn a_phantom_candidate_after_the_first_hit_is_charged_a_miss() {
    let mut clean = turbo_unit(None);
    let mut faulted = turbo_unit(None);
    faulted.inject_fault(FaultSite::ExactIndex { block: 1, key: 5 });
    assert_eq!(faulted.audit_exact_index(), 1, "block 1 holds no 5");
    for cam in [&mut clean, &mut faulted] {
        assert_eq!(cam.search(5).first_address(), Some(0));
        let phantom = &cam.blocks()[1];
        assert_eq!(
            (
                phantom.searches(),
                phantom.obs_matches(),
                phantom.obs_misses()
            ),
            (1, 0, 1),
            "block 1 answers 5 all-miss"
        );
    }
    assert_eq!(block_counters(&faulted), block_counters(&clean));
}

#[test]
fn a_delete_through_a_faulted_plane_removes_the_word_the_cell_stored() {
    // Block 0 holds 5 at cell 0 and 0 at cell 2. Two match_if_0 upsets
    // make cell 0 answer key 0 too, so the probe picks cell 0: the index
    // must lose 5 (what the cell stored), not 0 (what was probed).
    let mut cam = turbo_unit(None);
    cam.delete_first(12);
    cam.update(&[0]).unwrap();
    assert_eq!(cam.stored_words(), vec![5, 9, 0]);
    for key_bit in [0, 2] {
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 0,
                key_bit,
                one_plane: false,
            },
        });
    }
    assert!(cam.delete_first(0));
    assert_eq!(cam.stored_words(), vec![9, 0], "cell 0 was invalidated");
    assert_eq!(cam.audit_shadows(), 0);
    assert_eq!(cam.audit_exact_index(), 0, "the index follows the cells");
    assert_eq!(cam.search(0).first_address(), Some(2));
    assert!(!cam.search(5).is_match());
}

#[test]
fn an_index_fault_serves_a_stale_miss_until_the_sweep_repairs_it() {
    // One op per full sweep of the 16 cells.
    let policy = ScrubPolicy {
        cells_per_op: 2 * BLOCK_SIZE,
        crosscheck_interval: 0,
        restore_after: 4,
    };
    let mut cam = turbo_unit(Some(policy));
    let swept = cam.scrub_report().sweeps_completed;
    cam.inject_fault(FaultSite::ExactIndex { block: 0, key: 9 });
    assert_eq!(cam.audit_exact_index(), 1);
    assert_eq!(cam.audit_shadows(), 0, "the planes are untouched");
    assert!(
        !cam.search(9).is_match(),
        "the walk skips the block the index lost"
    );
    let report = cam.scrub_report();
    assert_eq!(report.sweeps_completed, swept + 1);
    assert_eq!(report.faults_repaired, 1, "the sweep audit repaired it");
    assert_eq!(cam.audit_exact_index(), 0);
    assert_eq!(cam.search(9).first_address(), Some(1));
    // A conjured entry only adds a block to walk: answers stay exact.
    cam.inject_fault(FaultSite::ExactIndex { block: 1, key: 5 });
    assert_eq!(cam.search(5).first_address(), Some(0));
    assert_eq!(cam.scrub_report().faults_repaired, 2);
}

#[test]
fn the_crosscheck_rebuilds_an_index_that_lost_a_key() {
    let mut cam = turbo_unit(Some(crosscheck_every_key()));
    cam.inject_fault(FaultSite::ExactIndex {
        block: 0,
        key: 9 | 1 << 40,
    });
    assert_eq!(cam.search(9).first_address(), Some(1), "corrected answer");
    let report = cam.scrub_report();
    assert_eq!(report.divergences, 1);
    assert_eq!(report.faults_repaired, 1, "the index entry was rebuilt");
    assert!(report.is_degraded());
    assert_eq!(cam.audit_exact_index(), 0);
}

#[test]
fn units_without_an_index_ignore_index_faults() {
    let (_, mut ternary) = binary_and_ternary_twin(2, 1, Encoding::Priority);
    ternary.update(&[9]).unwrap();
    ternary.inject_fault(FaultSite::ExactIndex { block: 0, key: 9 });
    assert_eq!(ternary.audit_exact_index(), 0);
    assert!(ternary.search(9).is_match());
}
