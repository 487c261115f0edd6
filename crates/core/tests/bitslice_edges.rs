//! Edge-case coverage for the transposed (`Turbo`) shadow's plane
//! refresh: cell counts straddling the 64-cell packed-word boundary,
//! all-don't-care entries and erase-then-rewrite of the same cell.

use dsp_cam_core::bitslice::BitSliceIndex;
use dsp_cam_core::cell::CamCell;
use dsp_cam_core::config::CellConfig;
use dsp_cam_core::encoder::MatchVector;

const WIDTH: u32 = 16;

fn binary_cells(n: usize) -> Vec<CamCell> {
    (0..n)
        .map(|_| CamCell::new(CellConfig::binary(WIDTH)).unwrap())
        .collect()
}

fn shadowed(cells: &[CamCell]) -> BitSliceIndex {
    let mut idx = BitSliceIndex::new(cells.len(), WIDTH);
    idx.refresh_all(cells);
    idx
}

/// The DSP-oracle answer for `key` over `cells`.
fn oracle(cells: &mut [CamCell], key: u64) -> MatchVector {
    cells.iter_mut().map(|c| c.search(key)).collect()
}

/// One packed word holds 64 cells; `n` cells around that boundary must
/// agree with the oracle bit-for-bit, including the ragged tail word.
/// Entries and probes include every one-hot word, zero and all-ones, so
/// each of the `2 × WIDTH` planes holds both set and clear bits and is
/// read by some probe.
fn check_word_boundary(n: usize) {
    let values: Vec<u64> = (0..7)
        .chain((0..WIDTH).map(|b| 1 << b))
        .chain([(1 << WIDTH) - 1])
        .collect();
    let mut stored = values.iter().cycle();
    let mut cells = binary_cells(n);
    for (i, cell) in cells.iter_mut().enumerate() {
        // Leave every fifth cell invalid so the valid bitmap's tail
        // masking is exercised too.
        if i % 5 != 0 {
            cell.write(*stored.next().unwrap()).unwrap();
        }
    }
    let idx = shadowed(&cells);
    assert_eq!(idx.len(), n);
    assert_eq!(idx.audit(&cells), 0, "fresh shadow must audit clean");
    for key in (0..8).chain(values) {
        let want = oracle(&mut cells, key);
        assert_eq!(idx.search(key), want, "{n} cells, key {key:#x}");
    }
}

#[test]
fn sixty_three_cells_one_word_ragged() {
    check_word_boundary(63);
}

#[test]
fn sixty_four_cells_exactly_one_word() {
    check_word_boundary(64);
}

#[test]
fn sixty_five_cells_spill_into_second_word() {
    check_word_boundary(65);
}

#[test]
fn all_dont_care_entries_match_every_key() {
    // A ternary cell whose entry mask covers the full data width cares
    // about nothing: it must appear in *both* planes of every bit and
    // match any key — across the packed-word boundary.
    let full_mask = (1u64 << WIDTH) - 1;
    let mut cells: Vec<CamCell> = (0..65)
        .map(|_| CamCell::new(CellConfig::ternary(WIDTH, full_mask)).unwrap())
        .collect();
    for cell in &mut cells {
        cell.write(0).unwrap();
    }
    let idx = shadowed(&cells);
    assert_eq!(idx.audit(&cells), 0);
    for key in [0u64, 1, 0x7FFF, full_mask] {
        let got = idx.search(key);
        assert_eq!(got.count(), 65, "all-don't-care must match key {key:#x}");
        assert_eq!(got, oracle(&mut cells, key));
    }
    // Invalidate one cell in each word: the valid bitmap must still gate
    // the always-matching planes.
    cells[0].clear();
    cells[64].clear();
    let mut idx = idx;
    idx.refresh(0, &cells[0]);
    idx.refresh(64, &cells[64]);
    assert_eq!(idx.audit(&cells), 0);
    let got = idx.search(0x1234);
    assert_eq!(got.count(), 63);
    assert_eq!(got, oracle(&mut cells, 0x1234));
}

#[test]
fn erase_then_rewrite_same_cell_leaves_no_stale_planes() {
    // Cell 64 sits in the second packed word; cycle it through
    // write → clear → rewrite (different value) → clear → rewrite (same
    // value) and demand a clean audit and exact oracle agreement at
    // every step.
    let mut cells = binary_cells(70);
    let mut idx = shadowed(&cells);
    let target = 64;

    cells[target].write(0xBEEF).unwrap();
    idx.refresh(target, &cells[target]);
    assert_eq!(idx.audit(&cells), 0);
    assert!(idx.search(0xBEEF).any());

    cells[target].clear();
    idx.refresh(target, &cells[target]);
    assert_eq!(idx.audit(&cells), 0);
    assert!(!idx.search(0xBEEF).any(), "erased entry must stop matching");

    cells[target].write(0x00F0).unwrap();
    idx.refresh(target, &cells[target]);
    assert_eq!(idx.audit(&cells), 0);
    assert!(!idx.search(0xBEEF).any(), "stale planes after rewrite");
    assert_eq!(idx.search(0x00F0), oracle(&mut cells, 0x00F0));

    // Erase then rewrite the *same* value: planes end where they began.
    cells[target].clear();
    idx.refresh(target, &cells[target]);
    cells[target].write(0x00F0).unwrap();
    idx.refresh(target, &cells[target]);
    assert_eq!(idx.audit(&cells), 0);
    assert_eq!(idx.search(0x00F0), oracle(&mut cells, 0x00F0));
    assert_eq!(idx.search(0xBEEF), oracle(&mut cells, 0xBEEF));
}

#[test]
fn corrupt_plane_bit_is_caught_by_audit_and_repaired_by_refresh() {
    let mut cells = binary_cells(65);
    cells[64].write(0x00AA).unwrap();
    let mut idx = shadowed(&cells);
    idx.corrupt_plane_bit(64, 1);
    assert_eq!(idx.audit(&cells), 1, "flipped plane bit must be flagged");
    idx.refresh(64, &cells[64]);
    assert_eq!(idx.audit(&cells), 0, "refresh must repair the shadow");
    assert_eq!(idx.search(0x00AA), oracle(&mut cells, 0x00AA));
}
