//! Density-optimised CAM block for narrow keys (extension beyond the
//! paper).
//!
//! [`DenseCamBlock`] packs four ≤12-bit entries into every DSP slice using
//! the `FOUR12` SIMD mode (see [`dsp48::simd_cam`]), quartering the DSP
//! bill for workloads with short keys. Semantics mirror [`CamBlock`]:
//! fill-order addressing, broadcast search, priority result — addresses
//! interleave lanes (`slice * 4 + lane`).
//!
//! The trade-offs against the paper's scalar cell:
//!
//! * data width capped at 12 bits;
//! * per-lane match reduction costs ~4 extra LUTs per slice;
//! * TCAM/RMCAM masks are not available (the pattern-detector mask covers
//!   the whole 48-bit word, not lanes) — binary matching only.
//!
//! The `Turbo` tier answers from the crate's one bit-sliced engine, a
//! [`BitSliceIndex`] of width 12 with one entry per lane, so dense blocks
//! share its tile layout, occupancy skip lists and key-parallel batch
//! kernel.
//!
//! [`CamBlock`]: crate::block::CamBlock

use dsp48::simd_cam::{SimdCamDsp, LANES, LANE_MAX};
use serde::{Deserialize, Serialize};

use crate::bitslice::{search_batch_or, BitSliceIndex, MAX_BATCH_WIDTH};
use crate::config::FidelityMode;
use crate::encoder::MatchVector;
use crate::error::CamError;

/// A quad-packed binary CAM block.
///
/// # Examples
///
/// ```
/// use dsp_cam_core::dense::DenseCamBlock;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cam = DenseCamBlock::new(64);
/// assert_eq!(cam.dsp_count(), 16, "four entries per slice");
/// cam.insert(0x123)?;
/// assert_eq!(cam.search(0x123)?.first(), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DenseCamBlock {
    slices: Vec<SimdCamDsp>,
    /// Transposed shadow for the turbo tier: one 12-bit entry per lane,
    /// at the lane's fill-order address, programmed from the slice
    /// registers on every insert.
    index: BitSliceIndex,
    fidelity: FidelityMode,
    write_ptr: usize,
    cycles: u64,
}

/// Bits per packed lane (the `FOUR12` SIMD granularity).
const LANE_BITS: u32 = 12;

impl DenseCamBlock {
    /// Update latency in cycles (same as the scalar cell).
    pub const UPDATE_LATENCY: u64 = 1;
    /// Search latency in cycles (cells) + 1 encoder stage.
    pub const SEARCH_LATENCY: u64 = 3;

    /// Create a block of `capacity` entries (rounded up to a multiple of
    /// four — one slice holds four).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        DenseCamBlock::with_fidelity(capacity, FidelityMode::BitAccurate)
    }

    /// Create a block on a specific search execution tier (results and
    /// cycle accounting are identical on either).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_fidelity(capacity: usize, fidelity: FidelityMode) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let slices: Vec<SimdCamDsp> = (0..capacity.div_ceil(LANES))
            .map(|_| SimdCamDsp::new())
            .collect();
        let lanes = slices.len() * LANES;
        DenseCamBlock {
            slices,
            index: BitSliceIndex::new(lanes, LANE_BITS),
            fidelity,
            write_ptr: 0,
            cycles: 0,
        }
    }

    /// Entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slices.len() * LANES
    }

    /// Entries stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.write_ptr
    }

    /// Whether no entry is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.write_ptr == 0
    }

    /// DSP slices used — one quarter of a scalar block of equal capacity.
    #[must_use]
    pub fn dsp_count(&self) -> usize {
        self.slices.len()
    }

    /// Block cycles consumed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Store `value` at the next free address.
    ///
    /// # Errors
    ///
    /// * [`CamError::Full`] when at capacity;
    /// * [`CamError::ValueTooWide`] for values beyond 12 bits.
    pub fn insert(&mut self, value: u64) -> Result<(), CamError> {
        if self.write_ptr >= self.capacity() {
            return Err(CamError::Full {
                rejected: 1,
                group: None,
            });
        }
        check_key(value)?;
        let slice = self.write_ptr / LANES;
        let lane = self.write_ptr % LANES;
        self.slices[slice].write_lane(lane, value);
        // Mirror the oracle: read the lane back from the slice registers.
        let stored = self.slices[slice].lane_value(lane);
        self.index.program(self.write_ptr, stored, LANE_MAX, true);
        self.write_ptr += 1;
        self.cycles += Self::UPDATE_LATENCY;
        Ok(())
    }

    /// Broadcast-search all entries; returns the match vector over
    /// fill-order addresses.
    ///
    /// # Errors
    ///
    /// [`CamError::ValueTooWide`] for keys beyond 12 bits.
    pub fn search(&mut self, key: u64) -> Result<MatchVector, CamError> {
        check_key(key)?;
        let mut matches = MatchVector::new(self.capacity());
        match self.fidelity {
            FidelityMode::BitAccurate => {
                for (s, slice) in self.slices.iter_mut().enumerate() {
                    let flags = slice.search(key);
                    for (lane, &hit) in flags.iter().enumerate() {
                        if hit {
                            matches.set(s * LANES + lane);
                        }
                    }
                }
            }
            FidelityMode::Turbo => {
                let index = &self.index;
                matches.fill_raw(index.len(), |bits| index.search_into(key, bits));
            }
        }
        self.cycles += Self::SEARCH_LATENCY;
        Ok(matches)
    }

    /// Key-parallel broadcast search: answer up to
    /// [`MAX_BATCH_WIDTH`] keys in one pass of the index's batch kernel
    /// ([`BitSliceIndex::search_batch_into`]).
    ///
    /// `out` is grown (never shrunk) to cover `keys`; slot `k` receives
    /// the match vector for `keys[k]`, bit-identical to a [`search`] per
    /// key. Cycle accounting also matches: `SEARCH_LATENCY` per key. On
    /// the [`BitAccurate`](FidelityMode::BitAccurate) tier this simply
    /// loops [`search`].
    ///
    /// # Errors
    ///
    /// [`CamError::ValueTooWide`] for any key beyond 12 bits; no search
    /// is performed and no cycles are charged.
    ///
    /// # Panics
    ///
    /// Panics when `keys` exceeds the kernel batch limit.
    ///
    /// [`search`]: DenseCamBlock::search
    pub fn search_batch_into(
        &mut self,
        keys: &[u64],
        out: &mut Vec<MatchVector>,
    ) -> Result<(), CamError> {
        assert!(
            keys.len() <= MAX_BATCH_WIDTH,
            "batch of {} keys exceeds the {MAX_BATCH_WIDTH}-key kernel limit",
            keys.len(),
        );
        keys.iter().try_for_each(|&key| check_key(key))?;
        if out.len() < keys.len() {
            out.resize_with(keys.len(), MatchVector::default);
        }
        if self.fidelity != FidelityMode::Turbo {
            for (key, vector) in keys.iter().zip(out.iter_mut()) {
                *vector = self.search(*key)?;
            }
            return Ok(());
        }
        for vector in &mut out[..keys.len()] {
            vector.reset(self.index.len());
        }
        search_batch_or(&self.index, keys, &mut out[..keys.len()], 0);
        self.cycles += Self::SEARCH_LATENCY * keys.len() as u64;
        Ok(())
    }

    /// Allocating convenience wrapper over
    /// [`search_batch_into`](DenseCamBlock::search_batch_into).
    ///
    /// # Errors
    ///
    /// [`CamError::ValueTooWide`] for any key beyond 12 bits.
    pub fn search_batch(&mut self, keys: &[u64]) -> Result<Vec<MatchVector>, CamError> {
        let mut out = Vec::new();
        self.search_batch_into(keys, &mut out)?;
        out.truncate(keys.len());
        Ok(out)
    }

    /// Clear all entries.
    pub fn reset(&mut self) {
        for slice in &mut self.slices {
            slice.clear();
        }
        self.index = BitSliceIndex::new(self.capacity(), LANE_BITS);
        self.write_ptr = 0;
        self.cycles += 1;
    }
}

/// [`CamError::ValueTooWide`] for a value or key beyond one 12-bit lane.
fn check_key(value: u64) -> Result<(), CamError> {
    if value > LANE_MAX {
        return Err(CamError::ValueTooWide {
            value,
            data_width: LANE_BITS,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_times_density() {
        let dense = DenseCamBlock::new(128);
        assert_eq!(dense.capacity(), 128);
        assert_eq!(dense.dsp_count(), 32, "quarter of a scalar 128 block");
    }

    #[test]
    fn fill_order_addressing_across_lanes() {
        let mut cam = DenseCamBlock::new(8);
        for v in [10u64, 20, 30, 40, 50] {
            cam.insert(v).unwrap();
        }
        // Entry 4 lives in slice 1 lane 0.
        let m = cam.search(50).unwrap();
        assert_eq!(m.first(), Some(4));
        let m = cam.search(20).unwrap();
        assert_eq!(m.first(), Some(1));
        assert!(!cam.search(60).unwrap().any());
    }

    #[test]
    fn duplicates_report_all_addresses() {
        let mut cam = DenseCamBlock::new(8);
        for v in [7u64, 8, 7, 9, 7] {
            cam.insert(v).unwrap();
        }
        let m = cam.search(7).unwrap();
        assert_eq!(m.count(), 3);
        let addrs: Vec<usize> = m.iter_matches().collect();
        assert_eq!(addrs, vec![0, 2, 4]);
    }

    #[test]
    fn capacity_and_width_limits() {
        let mut cam = DenseCamBlock::new(4);
        for v in 0..4u64 {
            cam.insert(v).unwrap();
        }
        assert!(matches!(cam.insert(5), Err(CamError::Full { .. })));
        assert!(matches!(
            DenseCamBlock::new(4).insert(0x1000),
            Err(CamError::ValueTooWide { .. })
        ));
        assert!(matches!(
            cam.search(0x1000),
            Err(CamError::ValueTooWide { .. })
        ));
    }

    #[test]
    fn reset_reuses_all_lanes() {
        for tier in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            let mut cam = DenseCamBlock::with_fidelity(8, tier);
            cam.insert(1).unwrap();
            cam.insert(2).unwrap();
            cam.reset();
            assert!(cam.is_empty());
            assert!(!cam.search(1).unwrap().any(), "{tier:?}");
            cam.insert(3).unwrap();
            assert_eq!(cam.search(3).unwrap().first(), Some(0), "{tier:?}");
        }
    }

    #[test]
    fn capacity_rounds_up_to_lane_multiple() {
        let cam = DenseCamBlock::new(5);
        assert_eq!(cam.capacity(), 8);
        assert_eq!(cam.dsp_count(), 2);
    }

    #[test]
    fn shadow_tiers_match_bit_accurate() {
        let mut accurate = DenseCamBlock::new(16);
        let mut turbo = DenseCamBlock::with_fidelity(16, FidelityMode::Turbo);
        for cam in [&mut accurate, &mut turbo] {
            for v in [5u64, 100, 4095, 0, 77, 5] {
                cam.insert(v).unwrap();
            }
        }
        let probes = [5u64, 100, 4095, 0, 77, 1, 4094];
        for probe in probes {
            let want = accurate.search(probe).unwrap();
            assert_eq!(want, turbo.search(probe).unwrap(), "turbo, probe {probe}");
        }
        // Unwritten lanes must not answer key 0 on the batch path either.
        assert_eq!(
            accurate.search_batch(&probes).unwrap(),
            turbo.search_batch(&probes).unwrap()
        );
        assert_eq!(accurate.cycles(), turbo.cycles());
        turbo.reset();
        assert!(!turbo.search(5).unwrap().any(), "reset clears the shadow");
    }

    #[test]
    fn turbo_tier_across_word_boundary() {
        let mut accurate = DenseCamBlock::new(130);
        let mut turbo = DenseCamBlock::with_fidelity(130, FidelityMode::Turbo);
        for cam in [&mut accurate, &mut turbo] {
            for i in 0..130u64 {
                cam.insert(i % 7).unwrap();
            }
        }
        for probe in 0..8u64 {
            assert_eq!(
                accurate.search(probe).unwrap(),
                turbo.search(probe).unwrap(),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn batch_kernel_matches_scalar_search() {
        for tier in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
            // 130 lanes crosses a 64-lane word-group boundary.
            let mut reference = DenseCamBlock::with_fidelity(130, tier);
            let mut batched = DenseCamBlock::with_fidelity(130, tier);
            for cam in [&mut reference, &mut batched] {
                for i in 0..130u64 {
                    cam.insert(i % 9).unwrap();
                }
            }
            let keys: Vec<u64> = (0..12u64).chain([4095, 77]).collect();
            for width in [1usize, 7, 32, 64] {
                for chunk in keys.chunks(width) {
                    let got = batched.search_batch(chunk).unwrap();
                    assert_eq!(got.len(), chunk.len());
                    for (key, vector) in chunk.iter().zip(&got) {
                        let want = reference.search(*key).unwrap();
                        assert_eq!(&want, vector, "tier {tier:?}, width {width}, key {key}");
                    }
                }
                assert_eq!(reference.cycles(), batched.cycles(), "tier {tier:?}");
            }
        }
    }

    #[test]
    fn batch_rejects_wide_keys_without_charging_cycles() {
        let mut cam = DenseCamBlock::with_fidelity(8, FidelityMode::Turbo);
        cam.insert(3).unwrap();
        let before = cam.cycles();
        assert!(matches!(
            cam.search_batch(&[1, 0x1000]),
            Err(CamError::ValueTooWide { .. })
        ));
        assert_eq!(cam.cycles(), before, "failed batch charges nothing");
        assert!(cam.search_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn agrees_with_scalar_block_on_narrow_keys() {
        use crate::block::CamBlock;
        use crate::config::{BlockConfig, CellConfig};
        let mut dense = DenseCamBlock::new(16);
        let mut scalar =
            CamBlock::new(BlockConfig::standalone(CellConfig::binary(12), 16, 64)).unwrap();
        let values = [5u64, 100, 4095, 0, 77, 5];
        for &v in &values {
            dense.insert(v).unwrap();
            scalar.update(&[v]).unwrap();
        }
        for probe in [5u64, 100, 4095, 0, 77, 1, 4094] {
            let d = dense.search(probe).unwrap();
            let s = scalar.search_vector(probe);
            assert_eq!(d.first(), s.first(), "probe {probe}");
            assert_eq!(d.count(), s.count(), "probe {probe}");
        }
    }
}
