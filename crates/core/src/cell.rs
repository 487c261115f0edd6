//! The CAM cell: one DSP48E2 slice plus a fabric valid bit.
//!
//! The slice itself (see [`dsp48::cam_profile::CamDsp`]) stores the entry
//! and produces the masked match; the *valid bit* is one fabric flip-flop
//! per cell maintained by the block logic, so that an empty (or cleared)
//! cell can never produce a spurious match against a zero key.

use dsp48::cam_profile::CamDsp;
use dsp48::word::{mask_width, P48};
use serde::{Deserialize, Serialize};

use crate::config::CellConfig;
use crate::error::{CamError, ConfigError};
use crate::kind::CamKind;
use crate::mask::{CamMask, RangeSpec};

/// One CAM entry backed by a DSP slice.
///
/// # Examples
///
/// ```
/// use dsp_cam_core::cell::CamCell;
/// use dsp_cam_core::config::CellConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cell = CamCell::new(CellConfig::binary(16))?;
/// cell.write(0xBEEF)?;
/// assert!(cell.search(0xBEEF));
/// assert!(!cell.search(0xBEEE));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CamCell {
    dsp: CamDsp,
    config: CellConfig,
    base_mask: CamMask,
    valid: bool,
}

impl CamCell {
    /// Update latency in cycles (Table V).
    pub const UPDATE_LATENCY: u64 = CamDsp::UPDATE_LATENCY;
    /// Search latency in cycles (Table V).
    pub const SEARCH_LATENCY: u64 = CamDsp::SEARCH_LATENCY;

    /// Instantiate a cell for the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates the cell-level [`ConfigError`]s.
    pub fn new(config: CellConfig) -> Result<Self, ConfigError> {
        let base_mask = config.mask()?;
        Ok(CamCell {
            dsp: CamDsp::with_mask(base_mask.bits()),
            config,
            base_mask,
            valid: false,
        })
    }

    /// The cell configuration.
    #[must_use]
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// Whether the cell currently holds a valid entry.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The stored word (meaningful only when valid).
    #[must_use]
    pub fn stored(&self) -> u64 {
        self.dsp.stored().value()
    }

    /// The pattern-detector mask currently programmed into the DSP (a `1`
    /// bit is "don't care"). This is the composed width/kind/entry mask —
    /// reading it back from the slice keeps shadow structures like
    /// [`BitSliceIndex`](crate::bitslice::BitSliceIndex) derived from the
    /// oracle state instead of re-deriving the composition rules.
    #[must_use]
    pub fn pattern_mask(&self) -> P48 {
        self.dsp.mask()
    }

    /// Clock cycles consumed by this cell's DSP so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.dsp.cycles()
    }

    /// Pattern-detect rising edges of the underlying DSP slice — one
    /// per matching bit-accurate search broadcast.
    #[cfg(feature = "obs")]
    #[must_use]
    pub fn pd_fires(&self) -> u64 {
        self.dsp.slice().pd_fires()
    }

    fn check_width(&self, value: u64) -> Result<(), CamError> {
        if value > mask_width(self.config.data_width) {
            return Err(CamError::ValueTooWide {
                value,
                data_width: self.config.data_width,
            });
        }
        Ok(())
    }

    fn check_kind(&self, kind: CamKind) -> Result<(), CamError> {
        if self.config.kind == kind {
            Ok(())
        } else {
            Err(CamError::KindMismatch)
        }
    }

    /// The one write primitive behind every kind (they differ only in
    /// the mask, Table II): program the pattern detector with the base
    /// mask ORed with the entry's own don't-care bits, store the value
    /// and raise the valid bit; one cycle.
    fn program(&mut self, value: u64, entry_mask: P48) {
        self.dsp
            .set_mask(self.base_mask.with_entry_mask(entry_mask).bits());
        self.dsp.write(value);
        self.valid = true;
    }

    /// Write a plain value (BCAM/TCAM path); one cycle.
    ///
    /// # Errors
    ///
    /// [`CamError::ValueTooWide`] if the value does not fit the data width.
    pub fn write(&mut self, value: u64) -> Result<(), CamError> {
        self.check_width(value)?;
        self.program(value, P48::ZERO);
        Ok(())
    }

    /// Write a power-of-two range (RMCAM path): stores the base and ORs
    /// the per-entry range mask into the pattern detector; one cycle.
    ///
    /// # Errors
    ///
    /// * [`CamError::KindMismatch`] unless the cell is range-matching;
    /// * [`CamError::ValueTooWide`] if the base does not fit.
    pub fn write_range(&mut self, range: RangeSpec) -> Result<(), CamError> {
        self.check_kind(CamKind::RangeMatching)?;
        self.check_width(range.base)?;
        self.program(range.stored_value(), range.mask());
        Ok(())
    }

    /// Write a value with a per-entry don't-care mask (ternary extension
    /// beyond the paper's shared-mask TCAM); one cycle. The entry mask is
    /// ORed over the block-level width/kind mask, exactly like the RMCAM
    /// per-entry range masks.
    ///
    /// # Errors
    ///
    /// * [`CamError::KindMismatch`] unless the cell is ternary;
    /// * [`CamError::ValueTooWide`] if value or mask exceed the width.
    pub fn write_masked(&mut self, value: u64, dont_care: u64) -> Result<(), CamError> {
        self.check_kind(CamKind::Ternary)?;
        self.check_width(value)?;
        self.check_width(dont_care)?;
        self.program(value, P48::new(dont_care));
        Ok(())
    }

    /// Search for `key`; two cycles. An invalid cell never matches. Key
    /// bits beyond the data width are ignored (the block masks them, per
    /// Section III-B).
    pub fn search(&mut self, key: u64) -> bool {
        let hit = self.dsp.search(P48::new(key));
        hit && self.valid
    }

    /// Clear the entry (reset signal) and drop the valid bit; one cycle.
    pub fn clear(&mut self) {
        self.dsp.clear();
        self.dsp.set_mask(self.base_mask.bits());
        self.valid = false;
    }
}

/// One entry on the write datapath. Binary, ternary and range CAMs
/// differ only in the don't-care mask each cell is programmed with
/// (Table II), so the unit and the block carry every entry shape through
/// one generic write path and only the final cell write tells them apart.
pub(crate) trait Entry: Copy {
    /// The kind of cell that stores this shape (`None`: every kind).
    const KIND: Option<CamKind>;

    /// The value [`CamError::ValueTooWide`] reports when the entry does
    /// not fit the data width.
    fn width_probe(self) -> u64;

    /// Program the entry into `cell`.
    fn write_to(self, cell: &mut CamCell) -> Result<(), CamError>;

    /// The batch as plain words, when it is one — the only shape the
    /// write buffer stages.
    fn as_words(_entries: &[Self]) -> Option<&[u64]> {
        None
    }
}

/// A plain word, which every kind stores.
impl Entry for u64 {
    const KIND: Option<CamKind> = None;

    fn width_probe(self) -> u64 {
        self
    }

    fn write_to(self, cell: &mut CamCell) -> Result<(), CamError> {
        cell.write(self)
    }

    fn as_words(entries: &[u64]) -> Option<&[u64]> {
        Some(entries)
    }
}

/// A power-of-two range (RMCAM).
impl Entry for RangeSpec {
    const KIND: Option<CamKind> = Some(CamKind::RangeMatching);

    fn width_probe(self) -> u64 {
        self.base
    }

    fn write_to(self, cell: &mut CamCell) -> Result<(), CamError> {
        cell.write_range(self)
    }
}

/// A `(value, dont_care)` pair (per-entry TCAM).
impl Entry for (u64, u64) {
    const KIND: Option<CamKind> = Some(CamKind::Ternary);

    fn width_probe(self) -> u64 {
        self.0.max(self.1)
    }

    fn write_to(self, cell: &mut CamCell) -> Result<(), CamError> {
        cell.write_masked(self.0, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_cell_exact_match() {
        let mut cell = CamCell::new(CellConfig::binary(32)).unwrap();
        cell.write(0xDEAD_BEEF).unwrap();
        assert!(cell.search(0xDEAD_BEEF));
        assert!(!cell.search(0xDEAD_BEE0));
        assert!(cell.is_valid());
        assert_eq!(cell.stored(), 0xDEAD_BEEF);
    }

    #[test]
    fn invalid_cell_never_matches() {
        let mut cell = CamCell::new(CellConfig::binary(32)).unwrap();
        assert!(!cell.search(0), "empty cell must not match key 0");
        cell.write(0).unwrap();
        assert!(cell.search(0), "a genuinely stored 0 must match");
        cell.clear();
        assert!(!cell.search(0), "cleared cell must not match");
        assert!(!cell.is_valid());
    }

    #[test]
    fn width_enforced_on_write() {
        let mut cell = CamCell::new(CellConfig::binary(8)).unwrap();
        assert!(matches!(
            cell.write(0x100),
            Err(CamError::ValueTooWide { .. })
        ));
        cell.write(0xFF).unwrap();
        assert!(cell.search(0xFF));
    }

    #[test]
    fn key_bits_beyond_width_ignored() {
        let mut cell = CamCell::new(CellConfig::binary(8)).unwrap();
        cell.write(0xAB).unwrap();
        // The width mask makes the upper bits "don't care" on search.
        assert!(cell.search(0xFF00AB));
    }

    #[test]
    fn ternary_cell_wildcards() {
        let mut cell = CamCell::new(CellConfig::ternary(16, 0x00FF)).unwrap();
        cell.write(0x1200).unwrap();
        assert!(cell.search(0x1234));
        assert!(cell.search(0x12FF));
        assert!(!cell.search(0x1334));
    }

    #[test]
    fn range_cell_matches_power_of_two_range() {
        let mut cell = CamCell::new(CellConfig::range_matching(32)).unwrap();
        let range = RangeSpec::new(0x1000, 8).unwrap(); // [0x1000, 0x1100)
        cell.write_range(range).unwrap();
        assert!(cell.search(0x1000));
        assert!(cell.search(0x10FF));
        assert!(!cell.search(0x1100));
        assert!(!cell.search(0x0FFF));
    }

    #[test]
    fn range_write_to_binary_cell_rejected() {
        let mut cell = CamCell::new(CellConfig::binary(32)).unwrap();
        let range = RangeSpec::new(0, 4).unwrap();
        assert_eq!(cell.write_range(range), Err(CamError::KindMismatch));
    }

    #[test]
    fn plain_write_resets_range_mask() {
        let mut cell = CamCell::new(CellConfig::range_matching(32)).unwrap();
        cell.write_range(RangeSpec::new(0x100, 8).unwrap()).unwrap();
        assert!(cell.search(0x1FF));
        // Overwrite with an exact value: the entry mask must not linger.
        cell.write(0x100).unwrap();
        assert!(cell.search(0x100));
        assert!(!cell.search(0x1FF));
    }

    #[test]
    fn latency_constants_match_table_v() {
        assert_eq!(CamCell::UPDATE_LATENCY, 1);
        assert_eq!(CamCell::SEARCH_LATENCY, 2);
        // And the underlying DSP really consumes those cycles.
        let mut cell = CamCell::new(CellConfig::binary(32)).unwrap();
        let c0 = cell.cycles();
        cell.write(1).unwrap();
        assert_eq!(cell.cycles() - c0, 1);
        let c1 = cell.cycles();
        cell.search(1);
        assert_eq!(cell.cycles() - c1, 2);
    }

    #[test]
    fn all_kinds_share_identical_cost() {
        // Table V: configuration does not change resource or latency.
        for kind in CamKind::ALL {
            let config = CellConfig {
                kind,
                data_width: 32,
                ternary_mask: 0,
            };
            let cell = CamCell::new(config).unwrap();
            assert_eq!(CamCell::UPDATE_LATENCY, 1, "{kind}");
            assert_eq!(CamCell::SEARCH_LATENCY, 2, "{kind}");
            let _ = cell; // 1 DSP each; resource accounting is in fpga-model
        }
    }
}
