//! The shared cycle model of both accelerators.
//!
//! ## What is modelled
//!
//! Both accelerators are deeply pipelined streaming designs on one DDR4
//! channel (512-bit user port) at 300 MHz. Per undirected edge `(u, v)`
//! with adjacency lengths `a = |adj(u)|`, `b = |adj(v)|`:
//!
//! * **memory**: both endpoints' lists stream in —
//!   `ceil((a+b)/16)` beats of 16 × 32-bit vertices, plus an amortised
//!   random-access charge ([`PipelineCosts::mem_overhead`]) for the two
//!   scattered list fetches (prefetchers keep several requests in flight,
//!   so the full 24-cycle DDR latency is *not* paid per edge);
//! * **baseline compute**: the merge kernel's sequential comparisons
//!   (`intersect::merge` steps, one per cycle at II = 1);
//! * **CAM compute**: load the longer list (`ceil(L/16)` beats through the
//!   512-bit update path — the hardware replicates across groups for
//!   free), then stream the shorter list as search keys at `M` queries
//!   per cycle, where `M` is chosen from the list length exactly as the
//!   paper describes (a list shorter than a block still occupies a whole
//!   block; `M · ceil(L/block) = 16` blocks). Lists longer than the unit
//!   capacity process in chunks. Each chunk also reconfigures the unit to
//!   `M` groups before its load and resets it after its probe; the paper
//!   writes the group configuration over the control path, so both
//!   overlap the load and cost no compute cycle here, although the
//!   simulated unit charges each one issue cycle.
//!
//! The hardware-model path
//! ([`CamTriangleCounter::run_on_hardware_model`](crate::CamTriangleCounter::run_on_hardware_model))
//! takes each edge's compute term from the driven unit's issue cycles
//! across its updates and streamed searches instead of
//! [`CamGeometry::intersect_cycles`], so its total agrees with the
//! analytical one only if the formula counts what the unit charges.
//!
//! Compute overlaps memory (dataflow pipelines), so an edge costs
//! `edge_overhead + max(mem, compute)`. A constant
//! [`PipelineCosts::kernel_setup`] covers kernel launch, group
//! configuration and pipeline drain.

use serde::{Deserialize, Serialize};

/// Geometry of the case-study CAM unit (Section V-B: 2K entries, 32-bit
/// data, block size 128, 512-bit bus, priority encoder, single SLR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CamGeometry {
    /// Cells per block.
    pub block_size: usize,
    /// Blocks in the unit.
    pub num_blocks: usize,
    /// Data words per 512-bit bus beat.
    pub words_per_beat: usize,
}

impl CamGeometry {
    /// The paper's case-study configuration: 16 blocks × 128 cells = 2K
    /// entries, 32-bit data on a 512-bit bus.
    #[must_use]
    pub fn case_study() -> Self {
        CamGeometry {
            block_size: 128,
            num_blocks: 16,
            words_per_beat: 16,
        }
    }

    /// Unit capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.block_size * self.num_blocks
    }

    /// Group count `M` for a resident list of `len` entries: the largest
    /// power of two such that `M` groups of `ceil(len/block)` blocks fit.
    /// (Divisors of a power-of-two block count are powers of two, so `M`
    /// always divides the block count as Section III-C requires.)
    #[must_use]
    pub fn groups_for(&self, len: usize) -> usize {
        let blocks_needed = len.div_ceil(self.block_size).max(1);
        if blocks_needed >= self.num_blocks {
            return 1;
        }
        let mut m = self.num_blocks / blocks_needed;
        // Round down to a power of two (= a divisor of num_blocks).
        while !m.is_power_of_two() {
            m -= 1;
        }
        m
    }

    /// Cycles to intersect via the CAM: chunked load of the longer list
    /// plus `M`-parallel searches of the shorter list per chunk.
    #[must_use]
    pub fn intersect_cycles(&self, longer: usize, shorter: usize) -> u64 {
        if longer == 0 || shorter == 0 {
            return 1;
        }
        let capacity = self.capacity();
        let mut cycles = 0u64;
        let mut remaining = longer;
        while remaining > 0 {
            let chunk = remaining.min(capacity);
            let m = self.groups_for(chunk);
            let load = chunk.div_ceil(self.words_per_beat) as u64;
            let search = shorter.div_ceil(m) as u64;
            cycles += load + search;
            remaining -= chunk;
        }
        cycles
    }
}

impl Default for CamGeometry {
    fn default() -> Self {
        CamGeometry::case_study()
    }
}

/// Pipeline cost constants shared by both accelerators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineCosts {
    /// Per-edge pipeline restart/bookkeeping cycles.
    pub edge_overhead: u64,
    /// Amortised random-access charge per edge for the two scattered list
    /// fetches (cycles).
    pub mem_overhead: u64,
    /// One-off kernel setup / drain cycles.
    pub kernel_setup: u64,
    /// Clock frequency in MHz (300 for the single-SLR 2K configuration,
    /// Table VII).
    pub frequency_mhz: f64,
    /// Data words per DDR beat.
    pub words_per_beat: u64,
}

impl Default for PipelineCosts {
    fn default() -> Self {
        PipelineCosts {
            edge_overhead: 4,
            mem_overhead: 3,
            kernel_setup: 50_000,
            frequency_mhz: 300.0,
            words_per_beat: 16,
        }
    }
}

impl PipelineCosts {
    /// Memory cycles for one edge's list traffic.
    #[must_use]
    pub fn mem_cycles(&self, a: usize, b: usize) -> u64 {
        (a + b) as u64 / self.words_per_beat + self.mem_overhead
    }

    /// Total edge cost given its compute cycles: overhead plus the larger
    /// of the overlapped memory and compute phases.
    #[must_use]
    pub fn edge_cycles(&self, a: usize, b: usize, compute: u64) -> u64 {
        self.edge_overhead + self.mem_cycles(a, b).max(compute)
    }

    /// Convert cycles to milliseconds at the configured clock.
    #[must_use]
    pub fn to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.frequency_mhz * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_geometry() {
        let g = CamGeometry::case_study();
        assert_eq!(g.capacity(), 2048);
        assert_eq!(g.words_per_beat, 16);
    }

    #[test]
    fn group_selection_follows_list_length() {
        let g = CamGeometry::case_study();
        // "A list with a length less than 128 occupies the entire CAM
        //  block": 16 single-block groups.
        assert_eq!(g.groups_for(1), 16);
        assert_eq!(g.groups_for(128), 16);
        assert_eq!(g.groups_for(129), 8);
        assert_eq!(g.groups_for(256), 8);
        assert_eq!(g.groups_for(512), 4);
        assert_eq!(g.groups_for(1024), 2);
        assert_eq!(g.groups_for(2048), 1);
        // Three blocks needed -> 16/3 = 5 -> rounded to 4 groups.
        assert_eq!(g.groups_for(300), 4);
    }

    #[test]
    fn intersect_cycles_small_lists() {
        let g = CamGeometry::case_study();
        // L=32: 2 load beats; S=8 with M=16: 1 search cycle.
        assert_eq!(g.intersect_cycles(32, 8), 3);
        assert_eq!(g.intersect_cycles(0, 5), 1);
        assert_eq!(g.intersect_cycles(5, 0), 1);
    }

    #[test]
    fn intersect_cycles_chunked_beyond_capacity() {
        let g = CamGeometry::case_study();
        // L = 5000 > 2048: chunks of 2048, 2048, 904.
        let c = g.intersect_cycles(5000, 10);
        // chunk1: 128 load + 10 search (M=1); chunk2 same; chunk3:
        // 904 -> 8 blocks -> M=2: 57 load + 5 search.
        assert_eq!(c, (128 + 10) + (128 + 10) + (57 + 5));
    }

    #[test]
    fn multi_query_parallelism_pays_off() {
        let g = CamGeometry::case_study();
        // Same total work; shorter resident list => more groups => faster.
        let narrow = g.intersect_cycles(100, 100); // M=16
        let wide = g.intersect_cycles(1000, 100); // M=2
        assert!(narrow < wide);
    }

    #[test]
    fn cost_model_overlap() {
        let c = PipelineCosts::default();
        // Memory-bound edge: compute hides under the beats.
        assert_eq!(c.edge_cycles(160, 160, 5), 4 + (320 / 16 + 3));
        // Compute-bound edge.
        assert_eq!(c.edge_cycles(16, 16, 100), 4 + 100);
    }

    #[test]
    fn ms_conversion() {
        let c = PipelineCosts::default();
        assert!((c.to_ms(300_000) - 1.0).abs() < 1e-12);
    }
}
