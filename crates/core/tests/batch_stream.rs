//! Property coverage for the key-parallel batch search path and the
//! occupancy skip lists that feed it.
//!
//! Two families:
//!
//! * **Occupancy churn** — random write → delete → corrupt → scrub
//!   sequences over a [`BitSliceIndex`], asserting after every step that
//!   each tile's occupancy count equals the number of valid cells it
//!   holds, that [`TileState`] transitions (empty ↔ partial ↔ full)
//!   track exactly, and that scalar and batch searches stay
//!   oracle-exact. Sizes straddle the 63/64/65 packed-word boundary and
//!   multi-tile counts around `TILE_CELLS`.
//! * **Batch-vs-scalar differential** — full [`CamUnit`]s at batch
//!   widths {1, 7, 32, 64} × both fidelity tiers must be
//!   observationally identical (results, snapshot, per-block counters)
//!   to a width-1 reference under random operation sequences heavy on
//!   `search_stream`.

use dsp_cam_core::bitslice::{tile_of, BitSliceIndex, TileState, MAX_BATCH_WIDTH, TILE_CELLS};
use dsp_cam_core::prelude::*;
use proptest::prelude::*;

const WIDTH: u32 = 16;

/// One step of shadow churn, all indices taken modulo the cell count.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Overwrite a cell in the oracle and refresh its shadow.
    Write(usize, u64),
    /// Clear a cell in the oracle and refresh its shadow.
    Delete(usize),
    /// Flip the shadow's valid bit, then scrub (refresh from oracle).
    CorruptValidThenScrub(usize),
    /// Flip one plane bit, then scrub.
    CorruptPlaneThenScrub(usize, usize),
}

fn churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        4 => (any::<usize>(), 0u64..1 << WIDTH).prop_map(|(c, v)| ChurnOp::Write(c, v)),
        3 => any::<usize>().prop_map(ChurnOp::Delete),
        1 => any::<usize>().prop_map(ChurnOp::CorruptValidThenScrub),
        1 => (any::<usize>(), 0..WIDTH as usize)
            .prop_map(|(c, b)| ChurnOp::CorruptPlaneThenScrub(c, b)),
    ]
}

/// Occupancy recomputed from first principles: valid cells per tile.
fn expected_occupancy(cells: &[CamCell]) -> Vec<usize> {
    let tiles = cells.len().div_ceil(TILE_CELLS).max(1);
    let mut counts = vec![0usize; tiles];
    for (i, cell) in cells.iter().enumerate() {
        if cell.is_valid() {
            counts[tile_of(i)] += 1;
        }
    }
    counts
}

fn check_tiles(idx: &BitSliceIndex, cells: &[CamCell]) -> Result<(), TestCaseError> {
    let expected = expected_occupancy(cells);
    prop_assert_eq!(idx.tile_count(), expected.len());
    for (t, &want) in expected.iter().enumerate() {
        prop_assert_eq!(idx.tile_occupancy(t), want, "tile {} occupancy", t);
        let want_state = if want == 0 {
            TileState::Empty
        } else if want == idx.tile_cells(t) {
            TileState::Full
        } else {
            TileState::Partial
        };
        prop_assert_eq!(idx.tile_state(t), want_state, "tile {} state", t);
    }
    Ok(())
}

/// Scalar search, batch search and the DSP oracle must agree.
fn check_search(
    idx: &BitSliceIndex,
    cells: &mut [CamCell],
    keys: &[u64],
) -> Result<(), TestCaseError> {
    let mut scratch: Vec<Vec<u64>> = vec![Vec::new(); keys.len()];
    idx.search_batch_into(keys, &mut scratch);
    for (k, &key) in keys.iter().enumerate() {
        let oracle: MatchVector = cells.iter_mut().map(|c| c.search(key)).collect();
        prop_assert_eq!(&idx.search(key), &oracle, "scalar, key {}", key);
        let mut batch = MatchVector::new(cells.len());
        for (w, &word) in scratch[k].iter().enumerate() {
            for bit in 0..64 {
                if w * 64 + bit < cells.len() && word >> bit & 1 == 1 {
                    batch.set(w * 64 + bit);
                }
            }
        }
        prop_assert_eq!(&batch, &oracle, "batch, key {}", key);
    }
    Ok(())
}

fn run_churn(n: usize, ops: &[ChurnOp], probes: &[u64]) -> Result<(), TestCaseError> {
    let mut cells: Vec<CamCell> = (0..n)
        .map(|_| CamCell::new(CellConfig::binary(WIDTH)).unwrap())
        .collect();
    let mut idx = BitSliceIndex::new(n, WIDTH);
    idx.refresh_all(&cells);
    check_tiles(&idx, &cells)?;
    for op in ops {
        match *op {
            ChurnOp::Write(c, v) => {
                let c = c % n;
                cells[c].clear();
                cells[c].write(v).unwrap();
                idx.refresh(c, &cells[c]);
            }
            ChurnOp::Delete(c) => {
                let c = c % n;
                cells[c].clear();
                idx.refresh(c, &cells[c]);
            }
            ChurnOp::CorruptValidThenScrub(c) => {
                let c = c % n;
                idx.corrupt_valid_bit(c);
                // The skip list must track even the corrupted bitmap, so
                // batch tile-skipping never diverges from scalar under a
                // live fault.
                let mut flipped = Vec::with_capacity(n);
                for (i, cell) in cells.iter().enumerate() {
                    flipped.push(if i == c {
                        !cell.is_valid()
                    } else {
                        cell.is_valid()
                    });
                }
                let tiles = n.div_ceil(TILE_CELLS).max(1);
                for t in 0..tiles {
                    let lo = t * TILE_CELLS;
                    let hi = (lo + TILE_CELLS).min(n);
                    let want = flipped[lo..hi].iter().filter(|&&v| v).count();
                    prop_assert_eq!(idx.tile_occupancy(t), want, "faulted tile {}", t);
                }
                idx.refresh(c, &cells[c]);
            }
            ChurnOp::CorruptPlaneThenScrub(c, b) => {
                let c = c % n;
                idx.corrupt_plane_bit(c, b);
                idx.refresh(c, &cells[c]);
            }
        }
        prop_assert_eq!(idx.audit(&cells), 0, "audit after {:?}", op);
        check_tiles(&idx, &cells)?;
    }
    check_search(&idx, &mut cells, probes)?;
    Ok(())
}

proptest! {
    #[test]
    fn occupancy_survives_churn_at_word_boundaries(
        n in prop_oneof![Just(63usize), Just(64), Just(65)],
        ops in proptest::collection::vec(churn_op(), 1..30),
        probes in proptest::collection::vec(0u64..1 << WIDTH, 1..5),
    ) {
        run_churn(n, &ops, &probes)?;
    }

    #[test]
    fn occupancy_survives_churn_across_tiles(
        n in prop_oneof![
            Just(TILE_CELLS - 1),
            Just(TILE_CELLS),
            Just(TILE_CELLS + 1),
            Just(300usize),
        ],
        ops in proptest::collection::vec(churn_op(), 1..25),
        probes in proptest::collection::vec(0u64..1 << WIDTH, 1..4),
    ) {
        run_churn(n, &ops, &probes)?;
    }
}

#[test]
fn tile_fills_completely_and_empties_again() {
    // Deterministic empty → partial → full → partial → empty walk of a
    // single 64-cell (sub-tile) index.
    let mut cells: Vec<CamCell> = (0..64)
        .map(|_| CamCell::new(CellConfig::binary(WIDTH)).unwrap())
        .collect();
    let mut idx = BitSliceIndex::new(64, WIDTH);
    idx.refresh_all(&cells);
    assert_eq!(idx.tile_state(0), TileState::Empty);
    for (i, cell) in cells.iter_mut().enumerate() {
        cell.write(i as u64).unwrap();
        idx.refresh(i, cell);
        let want = if i == 63 {
            TileState::Full
        } else {
            TileState::Partial
        };
        assert_eq!(idx.tile_state(0), want, "after write {i}");
        assert_eq!(idx.tile_occupancy(0), i + 1);
    }
    for (i, cell) in cells.iter_mut().enumerate().rev() {
        cell.clear();
        idx.refresh(i, cell);
        let want = if i == 0 {
            TileState::Empty
        } else {
            TileState::Partial
        };
        assert_eq!(idx.tile_state(0), want, "after delete {i}");
        assert_eq!(idx.tile_occupancy(0), i);
    }
    assert_eq!(idx.audit(&cells), 0);
}

// --- Batch-vs-scalar unit differential -----------------------------------

#[derive(Debug, Clone)]
enum UnitOp {
    Update(Vec<u64>),
    Search(u64),
    SearchStream(Vec<u64>),
    DeleteFirst(u64),
}

fn unit_op() -> impl Strategy<Value = UnitOp> {
    prop_oneof![
        3 => proptest::collection::vec(0u64..64, 1..5).prop_map(UnitOp::Update),
        2 => (0u64..64).prop_map(UnitOp::Search),
        // Long streams from a narrow domain: the dedup path and multi-pass
        // batching (len > batch_width) both trigger often.
        5 => proptest::collection::vec(0u64..64, 1..90).prop_map(UnitOp::SearchStream),
        1 => (0u64..64).prop_map(UnitOp::DeleteFirst),
    ]
}

fn build_unit(fidelity: FidelityMode, batch_width: usize) -> CamUnit {
    let config = UnitConfig::builder()
        .data_width(WIDTH)
        .block_size(8)
        .num_blocks(4)
        .bus_width(64)
        .fidelity(fidelity)
        .batch_width(batch_width)
        .build()
        .unwrap();
    let mut unit = CamUnit::new(config).unwrap();
    unit.configure_groups(2).unwrap();
    unit
}

fn apply(cam: &mut CamUnit, op: &UnitOp) -> String {
    match op {
        UnitOp::Update(words) => format!("{:?}", cam.update(words)),
        UnitOp::Search(key) => format!("{:?}", cam.search(*key)),
        UnitOp::SearchStream(keys) => format!("{:?}", cam.search_stream(keys)),
        UnitOp::DeleteFirst(key) => format!("{:?}", cam.delete_first(*key)),
    }
}

fn block_counters(cam: &CamUnit) -> Vec<(usize, u64, u64, u64)> {
    cam.blocks()
        .iter()
        .map(|b| (b.len(), b.cycles(), b.update_beats(), b.searches()))
        .collect()
}

proptest! {
    #[test]
    fn batch_width_never_changes_observable_behaviour(
        ops in proptest::collection::vec(unit_op(), 1..25),
    ) {
        let mut reference = build_unit(FidelityMode::BitAccurate, 1);
        let mut candidates: Vec<(String, CamUnit)> = Vec::new();
        for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            for batch_width in [1usize, 7, 32, MAX_BATCH_WIDTH] {
                candidates.push((
                    format!("{fidelity:?}/b{batch_width}"),
                    build_unit(fidelity, batch_width),
                ));
            }
        }
        for (i, op) in ops.iter().enumerate() {
            let want = apply(&mut reference, op);
            for (tag, cam) in &mut candidates {
                let got = apply(cam, op);
                prop_assert_eq!(&got, &want, "{} diverged at op {} ({:?})", tag, i, op);
            }
        }
        for (tag, cam) in &candidates {
            prop_assert_eq!(cam.snapshot(), reference.snapshot(), "{} snapshot", tag);
            prop_assert_eq!(
                block_counters(cam),
                block_counters(&reference),
                "{} block counters",
                tag
            );
        }
    }
}
