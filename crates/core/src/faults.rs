//! Deterministic fault injection for the shadow search tiers.
//!
//! An FPGA CAM's shadow structures — the transposed
//! [`BitSliceIndex`](crate::bitslice::BitSliceIndex) planes, their packed
//! valid bitmap and the routing table — live in fabric memory and are
//! exposed to single-event upsets, while the DSP-slice oracle state is
//! the configuration being protected. This module models those upsets:
//! a [`FaultPlan`] is a seeded, self-contained PRNG plus per-class
//! per-cycle flip rates, so any chaos run is exactly reproducible from
//! its seed — no `rand` dependency, no global state.
//!
//! Faults come in two shapes:
//!
//! * **targeted** — a single [`FaultSite`] handed to
//!   [`CamUnit::inject_fault`](crate::unit::CamUnit::inject_fault)
//!   (subsuming the older `inject_shadow_fault` stored-bit-0 hook);
//! * **planned** — [`FaultPlan::draw`] Bernoulli-samples each fault
//!   class once per modelled cycle and picks a uniform site, which
//!   [`CamUnit::inject_faults`](crate::unit::CamUnit::inject_faults)
//!   applies for a whole cycle budget.
//!
//! The injector only ever touches *derived* state; the scrubber
//! ([`crate::scrub`]) repairs it back from the oracle.

use serde::{Deserialize, Serialize};

/// A split-mix-initialised xorshift64\* PRNG.
///
/// Small, fast and deterministic; statistical quality is far beyond
/// what Bernoulli fault draws need. Kept private to the crate so core
/// never grows a `rand` dependency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// A generator seeded from `seed` (a zero seed is remapped — the
    /// xorshift state must never be zero).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // One splitmix64 round decorrelates adjacent seeds.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64 {
            state: if z == 0 { 0x0005_DEEC_E66D_u64 } else { z },
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty draw range");
        // Multiply-shift: uniform enough for fault-site selection
        // without a rejection loop.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Bernoulli draw with probability `p` (clamped to `0.0..=1.0`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare against the top 53 bits for a full-precision draw.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// Per-cycle flip probabilities for each fault class.
///
/// Each field is an independent Bernoulli rate per modelled cycle:
/// `bitslice` covers the transposed plane bitmaps, `valid` covers their
/// packed valid bitmap, and `routing` covers routing-table entries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Flip rate for `BitSliceIndex` plane bits.
    pub bitslice: f64,
    /// Flip rate for packed valid-bitmap bits.
    pub valid: f64,
    /// Flip rate for routing-table entries.
    pub routing: f64,
    /// Flip rate for the write buffer's derived key index
    /// ([`crate::update_queue::WriteBuffer`]).
    pub update_queue: f64,
}

impl FaultRates {
    /// The same per-cycle rate for every fault class.
    #[must_use]
    pub fn uniform(rate: f64) -> Self {
        FaultRates {
            bitslice: rate,
            valid: rate,
            routing: rate,
            update_queue: rate,
        }
    }
}

impl Default for FaultRates {
    /// A quiet default: no faults until rates are raised.
    fn default() -> Self {
        FaultRates::uniform(0.0)
    }
}

/// One targeted upset inside a block's shadow structures.
///
/// Cell indices are block-local; bit positions wrap modulo the relevant
/// width, so any `u32`/`usize` is a valid site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ShadowFault {
    /// Flip a cell's membership in one bit-sliced plane.
    Plane {
        /// Block-local cell index.
        cell: usize,
        /// Key bit selecting the plane (wraps modulo the width).
        key_bit: usize,
        /// `true` hits the `match_if_1` plane, `false` the `match_if_0`.
        one_plane: bool,
    },
    /// Flip the bit-sliced shadow's valid bit for a cell.
    PlaneValid {
        /// Block-local cell index.
        cell: usize,
    },
}

impl ShadowFault {
    /// The block-local cell this fault upsets (every variant targets
    /// exactly one cell).
    #[must_use]
    pub fn cell(&self) -> usize {
        match *self {
            ShadowFault::Plane { cell, .. } | ShadowFault::PlaneValid { cell } => cell,
        }
    }

    /// The cache tile of the bit-sliced shadow this fault lands in —
    /// delegates to [`tile_of`](crate::bitslice::tile_of), the one
    /// cell → tile mapping the tiled plane layout defines, so the fault
    /// layer and the index can never disagree about tile arithmetic.
    #[must_use]
    pub fn tile(&self) -> usize {
        crate::bitslice::tile_of(self.cell())
    }
}

/// One targeted upset addressed at unit scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultSite {
    /// An upset inside one block's shadow structures.
    Shadow {
        /// Physical block index.
        block: usize,
        /// The block-local fault.
        fault: ShadowFault,
    },
    /// Corrupt one routing-table entry (bumped to the next group
    /// modulo the group count, so it stays in range but wrong).
    Routing {
        /// Physical block index whose routing entry is hit.
        block: usize,
    },
    /// Corrupt the write buffer's derived key index at one staged slot
    /// (wrapping modulo the queue length; no-op when nothing is
    /// staged). Only the derived index is touched — the golden FIFO,
    /// and therefore drained contents, survive, exactly like the other
    /// shadow-tier faults.
    UpdateQueue {
        /// Staged-op slot whose key is toggled in the index.
        slot: usize,
    },
}

/// A deterministic, seeded fault campaign.
///
/// Construct with a seed (and optionally [`FaultRates`]), then either
/// hand individual [`FaultSite`]s to
/// [`CamUnit::inject_fault`](crate::unit::CamUnit::inject_fault) or let
/// [`CamUnit::inject_faults`](crate::unit::CamUnit::inject_faults) draw
/// sites from the plan for a budget of modelled cycles. Identical seed,
/// rates and geometry always reproduce the identical fault sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    rng: XorShift64,
    /// Dedicated stream for the update-queue class so its draws never
    /// perturb the shadow/routing sequence: a fixed seed replays the
    /// exact same shadow/routing campaign whether or not the class is
    /// armed.
    uq_rng: XorShift64,
    rates: FaultRates,
}

impl FaultPlan {
    /// A plan with the default (all-zero) rates — useful as a pure
    /// deterministic site source for targeted campaigns.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan::with_rates(seed, FaultRates::default())
    }

    /// A plan flipping every class at the same per-cycle `rate`.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan::with_rates(seed, FaultRates::uniform(rate))
    }

    /// A plan with per-class rates.
    #[must_use]
    pub fn with_rates(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            rng: XorShift64::new(seed),
            uq_rng: XorShift64::new(seed ^ 0x5EED_0000_0051_u64),
            rates,
        }
    }

    /// The plan's per-class rates.
    #[must_use]
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Draw the faults of one modelled cycle for a unit of `blocks`
    /// blocks of `cells_per_block` cells with `width`-bit keys.
    ///
    /// Each class is an independent Bernoulli trial; a hit picks a
    /// uniform site of that class. The update-queue class samples its
    /// own decorrelated stream, so arming it leaves the shadow/routing
    /// classes' sequence untouched for a given seed. Returns every site
    /// drawn this cycle (usually empty at realistic rates). Sites are cell-addressed;
    /// where a drawn fault lands in the bit-sliced shadow's tiled plane
    /// layout is answered by [`ShadowFault::tile`], never recomputed
    /// here — so campaigns stay valid if the tile geometry changes.
    pub fn draw(
        &mut self,
        blocks: usize,
        cells_per_block: usize,
        width: u32,
        out: &mut Vec<FaultSite>,
    ) {
        if blocks == 0 || cells_per_block == 0 {
            return;
        }
        let cell_sites = (blocks * cells_per_block) as u64;
        if self.rng.chance(self.rates.bitslice) {
            let at = self.rng.below(cell_sites) as usize;
            let key_bit = self.rng.below(u64::from(width)) as usize;
            let one_plane = self.rng.chance(0.5);
            out.push(FaultSite::Shadow {
                block: at / cells_per_block,
                fault: ShadowFault::Plane {
                    cell: at % cells_per_block,
                    key_bit,
                    one_plane,
                },
            });
        }
        if self.rng.chance(self.rates.valid) {
            let at = self.rng.below(cell_sites) as usize;
            out.push(FaultSite::Shadow {
                block: at / cells_per_block,
                fault: ShadowFault::PlaneValid {
                    cell: at % cells_per_block,
                },
            });
        }
        if self.rng.chance(self.rates.routing) {
            out.push(FaultSite::Routing {
                block: self.rng.below(blocks as u64) as usize,
            });
        }
        if self.uq_rng.chance(self.rates.update_queue) {
            out.push(FaultSite::UpdateQueue {
                slot: self.uq_rng.below(cell_sites) as usize,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let draws: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(draws, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert!(draws.iter().any(|&d| d != 0));
        // Zero seed must still produce a live generator.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut rng = XorShift64::new(7);
        for bound in [1u64, 2, 3, 48, 1000] {
            for _ in 0..64 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = XorShift64::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..4096).filter(|_| rng.chance(0.5)).count();
        assert!((1500..=2600).contains(&hits), "p=0.5 gave {hits}/4096");
    }

    #[test]
    fn plan_draws_are_reproducible_and_in_range() {
        let mut a = FaultPlan::uniform(123, 0.8);
        let mut b = FaultPlan::uniform(123, 0.8);
        let mut sites_a = Vec::new();
        let mut sites_b = Vec::new();
        for _ in 0..64 {
            a.draw(4, 16, 12, &mut sites_a);
            b.draw(4, 16, 12, &mut sites_b);
        }
        assert_eq!(sites_a, sites_b);
        assert!(!sites_a.is_empty(), "0.8/cycle over 64 cycles must fire");
        for site in &sites_a {
            match *site {
                FaultSite::Shadow { block, fault } => {
                    assert!(block < 4);
                    assert!(fault.cell() < 16);
                }
                FaultSite::Routing { block } => assert!(block < 4),
                FaultSite::UpdateQueue { slot } => assert!(slot < 64),
            }
        }
    }

    #[test]
    fn update_queue_class_never_perturbs_the_shadow_stream() {
        // A fixed-seed campaign replays the identical shadow/routing
        // sequence whether or not the update-queue class is armed: its
        // draws come from a dedicated sub-generator, never the shared one.
        let mut with_uq = FaultPlan::uniform(0xD511_CA3B, 5e-3);
        let mut shadow_rates = FaultRates::uniform(5e-3);
        shadow_rates.update_queue = 0.0;
        let mut without_uq = FaultPlan::with_rates(0xD511_CA3B, shadow_rates);
        let mut sites_with = Vec::new();
        let mut sites_without = Vec::new();
        for _ in 0..4096 {
            with_uq.draw(4, 8, 16, &mut sites_with);
            without_uq.draw(4, 8, 16, &mut sites_without);
        }
        let shadow_only: Vec<FaultSite> = sites_with
            .iter()
            .copied()
            .filter(|s| !matches!(s, FaultSite::UpdateQueue { .. }))
            .collect();
        assert_eq!(shadow_only, sites_without);
        assert!(
            sites_with.len() > sites_without.len(),
            "the armed update-queue class must still fire on its own stream"
        );
    }

    #[test]
    fn fault_sites_report_cell_and_tile_through_one_mapping() {
        use crate::bitslice::{tile_of, TILE_CELLS};
        let faults = [
            ShadowFault::Plane {
                cell: 3,
                key_bit: 7,
                one_plane: false,
            },
            ShadowFault::PlaneValid { cell: 64 },
            ShadowFault::Plane {
                cell: TILE_CELLS - 1,
                key_bit: 5,
                one_plane: true,
            },
            ShadowFault::PlaneValid { cell: TILE_CELLS },
        ];
        for fault in faults {
            assert_eq!(fault.tile(), tile_of(fault.cell()), "{fault:?}");
        }
        // Boundary cells: last cell of tile 0, first of tile 1.
        assert_eq!(
            ShadowFault::PlaneValid {
                cell: TILE_CELLS - 1
            }
            .tile(),
            0
        );
        assert_eq!(ShadowFault::PlaneValid { cell: TILE_CELLS }.tile(), 1);
    }

    #[test]
    fn zero_rate_plan_never_fires() {
        let mut plan = FaultPlan::new(5);
        let mut sites = Vec::new();
        for _ in 0..256 {
            plan.draw(4, 64, 32, &mut sites);
        }
        assert!(sites.is_empty());
    }
}
