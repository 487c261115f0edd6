//! The Table III parameter set: cell-, block- and unit-level configuration.
//!
//! Every parameter of the paper's template-generated RTL is mirrored here
//! and validated with the same rules ("power-of-two values to maintain a
//! hardware-friendly architecture", data width ≤ 48, bus width compatible
//! with the memory interface).

use dsp48::word::P48;
use serde::{Deserialize, Serialize};

use crate::encoder::Encoding;
use crate::error::ConfigError;
use crate::kind::CamKind;
use crate::mask::CamMask;

/// How faithfully search execution models the DSP48E2 hardware.
///
/// Both tiers produce **identical** match vectors, encoded outputs and
/// block/unit cycle counters; they differ only in how the comparison is
/// computed. [`BitAccurate`](FidelityMode::BitAccurate) drives every
/// cell's DSP slice model through its real register pipeline (and so
/// also advances the per-cell DSP cycle counters).
/// [`Turbo`](FidelityMode::Turbo) answers from a transposed (bit-sliced)
/// shadow: one packed per-cell bitmap pair per key bit position, so a
/// search is `O(width × N/64)` word-wide ANDs with per-word early exit —
/// the software mirror of the hardware's all-cells-per-cycle parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FidelityMode {
    /// Tick each DSP slice model for every search (the default).
    #[default]
    BitAccurate,
    /// Answer searches from the transposed bit-sliced match engine.
    Turbo,
}

/// Background scrubbing and self-healing policy.
///
/// When set on [`UnitConfig::scrub`], the unit amortises an integrity
/// sweep over its own operations: every update/search/delete also
/// audits `cells_per_op` cells of shadow state against the DSP oracle
/// and repairs divergence in place (see [`crate::scrub`]). Search paths
/// additionally cross-check one answer in every `crosscheck_interval`
/// against the oracle; a divergent answer is repaired and degrades the
/// tier from Turbo to BitAccurate. After `restore_after`
/// consecutive clean full sweeps the original tier is restored.
///
/// `strict` selects error semantics on a cross-check divergence:
/// `false` (self-healing, the default) silently serves the corrected
/// answer; `true` additionally surfaces
/// [`CamError::ShadowDivergence`](crate::error::CamError::ShadowDivergence)
/// from the fallible search paths — state is still repaired either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubPolicy {
    /// Shadow cells audited (and repaired if divergent) per operation.
    pub cells_per_op: usize,
    /// Cross-check one search answer against the oracle every this many
    /// unique searched keys (`0` disables cross-checking).
    pub crosscheck_interval: u64,
    /// Consecutive clean full sweeps before a degraded tier is restored.
    pub restore_after: u64,
    /// Surface [`CamError::ShadowDivergence`](crate::error::CamError::ShadowDivergence)
    /// instead of healing silently.
    pub strict: bool,
}

impl Default for ScrubPolicy {
    /// The default policy: 32 cells per op, one cross-check per 8192
    /// unique keys, restore after 4 clean sweeps, self-healing mode.
    ///
    /// Each cross-check replays the answer through the bit-accurate
    /// oracle — a full group scan — so the interval dominates the scrub
    /// tax on the Turbo tier. These rates keep default-policy scrubbing
    /// under 5% of Turbo `search_stream` throughput at 8192 entries
    /// (tracked as `scrub_overhead_pct` in `BENCH_search.json`).
    fn default() -> Self {
        ScrubPolicy {
            cells_per_op: 32,
            crosscheck_interval: 8192,
            restore_after: 4,
            strict: false,
        }
    }
}

/// CAM-fronted write-buffer (update-queue) policy.
///
/// When set on [`UnitConfig::write_buffer`] (and the unit is a binary
/// CAM), updates and deletes land in a bounded content-addressable
/// staging structure in O(1) — the software analogue of Preußer et
/// al.'s DSP update queue at II=1 — instead of paying the full
/// replicated DSP write path inline. Searches consult the buffer first
/// so in-flight keys stay read-your-writes-consistent, and a background
/// drainer retires staged entries into the main unit during idle ticks
/// (see [`crate::update_queue`]).
///
/// `bypass` keeps the configuration but routes every operation straight
/// through the inline path — the differential-testing control arm. The
/// buffer is architecturally transparent: results, admission errors and
/// unit counters are identical to `bypass` at every instant, and block
/// state converges at quiescence once the buffer drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteBufferConfig {
    /// Staging capacity in word slots (an insert occupies one slot per
    /// word, a delete tombstone one slot). Staging beyond this flushes
    /// the buffer synchronously first (overflow → inline fallback).
    pub capacity: usize,
    /// Staged operations drained per idle tick of
    /// [`StreamingCam::tick`](crate::pipelined::StreamingCam::tick).
    pub drain_per_tick: usize,
    /// Route every operation through the inline path (differential
    /// testing control; the buffer stays empty).
    pub bypass: bool,
}

impl Default for WriteBufferConfig {
    /// The default queue: 64 word slots, 4 staged ops drained per idle
    /// tick, buffering enabled.
    fn default() -> Self {
        WriteBufferConfig {
            capacity: 64,
            drain_per_tick: 4,
            bypass: false,
        }
    }
}

/// Cell-level parameters (Table III, "CAM Cell").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellConfig {
    /// The CAM behaviour: binary, ternary or range-matching.
    pub kind: CamKind,
    /// Width of the stored data in bits (`1..=48`).
    pub data_width: u32,
    /// Ternary don't-care bits (zero for the other kinds).
    pub ternary_mask: u64,
}

impl CellConfig {
    /// A binary cell of `data_width` bits.
    #[must_use]
    pub fn binary(data_width: u32) -> Self {
        CellConfig {
            kind: CamKind::Binary,
            data_width,
            ternary_mask: 0,
        }
    }

    /// A ternary cell with the given don't-care bits.
    #[must_use]
    pub fn ternary(data_width: u32, dont_care: u64) -> Self {
        CellConfig {
            kind: CamKind::Ternary,
            data_width,
            ternary_mask: dont_care,
        }
    }

    /// A range-matching cell of `data_width` bits.
    #[must_use]
    pub fn range_matching(data_width: u32) -> Self {
        CellConfig {
            kind: CamKind::RangeMatching,
            data_width,
            ternary_mask: 0,
        }
    }

    /// Validate and compose the pattern-detector mask.
    ///
    /// # Errors
    ///
    /// Propagates the mask-composition rules of
    /// [`CamMask::compose`](crate::mask::CamMask::compose).
    pub fn mask(&self) -> Result<CamMask, ConfigError> {
        CamMask::compose(self.kind, self.data_width, P48::new(self.ternary_mask))
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// See [`CellConfig::mask`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.mask().map(|_| ())
    }
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig::binary(32)
    }
}

/// Block-level parameters (Table III, "CAM Block").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockConfig {
    /// The cell configuration shared by every cell in the block.
    pub cell: CellConfig,
    /// Number of cells per block (a power of two ≥ 2).
    pub block_size: usize,
    /// Data-path width into the block in bits (a power of two ≥ data
    /// width); determines how many words one update beat can carry.
    pub bus_width: u32,
    /// Result-encoding scheme of the output Encoder.
    pub encoding: Encoding,
    /// Insert the extra output-buffer register at the Encoder (the paper
    /// enables it from 256 cells up on standalone blocks, and on every
    /// block of a unit larger than 2048 cells, to close timing).
    pub encoder_buffer: bool,
    /// Search execution tier (identical results and counters either way).
    pub fidelity: FidelityMode,
}

impl BlockConfig {
    /// A block with the paper's standalone-block buffer policy applied
    /// (buffer on from 256 cells).
    #[must_use]
    pub fn standalone(cell: CellConfig, block_size: usize, bus_width: u32) -> Self {
        BlockConfig {
            cell,
            block_size,
            bus_width,
            encoding: Encoding::Priority,
            encoder_buffer: block_size >= 256,
            fidelity: FidelityMode::BitAccurate,
        }
    }

    /// The same configuration with a different [`FidelityMode`].
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: FidelityMode) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Words carried per bus beat (`bus_width / data_width`, at least 1).
    #[must_use]
    pub fn words_per_beat(&self) -> usize {
        (self.bus_width / self.cell.data_width).max(1) as usize
    }

    /// Update latency in cycles at block level (Table VI: always 1 — all
    /// words of a beat land in parallel through the Cell Address
    /// Controller).
    #[must_use]
    pub fn update_latency(&self) -> u64 {
        1
    }

    /// Search latency in cycles at block level (Table VI: 2 cycles in the
    /// cells + 1 in the Encoder, + 1 more when the output buffer is on).
    #[must_use]
    pub fn search_latency(&self) -> u64 {
        2 + 1 + u64::from(self.encoder_buffer)
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::BlockSize`] unless `block_size` is a power of two
    ///   of at least 2;
    /// * [`ConfigError::BusWidth`] unless `bus_width` is a power of two
    ///   not smaller than the data width;
    /// * plus all cell-level rules.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cell.validate()?;
        if self.block_size < 2 || !self.block_size.is_power_of_two() {
            return Err(ConfigError::BlockSize {
                requested: self.block_size,
            });
        }
        if !self.bus_width.is_power_of_two() || self.bus_width < self.cell.data_width {
            return Err(ConfigError::BusWidth {
                requested: self.bus_width,
                data_width: self.cell.data_width,
            });
        }
        Ok(())
    }
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig::standalone(CellConfig::default(), 128, 512)
    }
}

/// Unit-level parameters (Table III, "CAM Unit").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitConfig {
    /// The block configuration shared by every block.
    pub block: BlockConfig,
    /// Number of blocks in the unit (≥ 1).
    pub num_blocks: usize,
    /// Unit-level bus width in bits (the paper uses 512 to match the DDR
    /// port).
    pub bus_width: u32,
    /// Worker threads sharding independent blocks/groups during
    /// multi-query searches and group-replicated updates. `1` (the
    /// default) keeps everything on the calling thread; `0` means one
    /// worker per available CPU; above 1 the groups are dispatched to
    /// the unit's persistent [`CamRuntime`](crate::runtime::CamRuntime)
    /// pool. Results and counters are identical at any setting — this
    /// is a host-side execution knob, not a hardware parameter.
    pub workers: usize,
    /// Background scrubbing / self-healing policy. `None` (the default)
    /// disables scrubbing, cross-checking and tier degradation.
    #[serde(default)]
    pub scrub: Option<ScrubPolicy>,
    /// Deadline in milliseconds for one pool dispatch; a worker that has
    /// not answered by then poisons the pool and the call fails with
    /// [`CamError::DispatchTimeout`](crate::error::CamError::DispatchTimeout).
    /// `0` (the default) waits forever.
    #[serde(default)]
    pub dispatch_deadline_ms: u64,
    /// Keys per plane-walk pass of the key-parallel batch kernel used by
    /// [`search_stream`](crate::unit::CamUnit::search_stream)
    /// (`1..=`[`MAX_BATCH_WIDTH`](crate::bitslice::MAX_BATCH_WIDTH);
    /// 8–64 is the performant range, `1` degenerates to the scalar
    /// one-key-at-a-time walk). A host-side execution knob like
    /// `workers`: results and counters are identical at any setting.
    #[serde(default = "default_batch_width")]
    pub batch_width: usize,
    /// CAM-fronted write buffer absorbing update/delete bursts ahead of
    /// the replicated DSP write path. `None` (the default) applies every
    /// write inline; see [`WriteBufferConfig`].
    #[serde(default)]
    pub write_buffer: Option<WriteBufferConfig>,
}

/// Serde/builder default for [`UnitConfig::batch_width`].
fn default_batch_width() -> usize {
    32
}

impl UnitConfig {
    /// Start building a configuration.
    #[must_use]
    pub fn builder() -> UnitConfigBuilder {
        UnitConfigBuilder::default()
    }

    /// Total number of CAM cells (entries) in the unit.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.block.block_size * self.num_blocks
    }

    /// Words carried per unit-bus beat.
    #[must_use]
    pub fn words_per_beat(&self) -> usize {
        (self.bus_width / self.block.cell.data_width).max(1) as usize
    }

    /// End-to-end update latency in cycles (Table VIII: constant 6 —
    /// interface, routing-table lookup, replication, crossbar, block
    /// demux, cell write).
    #[must_use]
    pub fn update_latency(&self) -> u64 {
        5 + self.block.update_latency()
    }

    /// End-to-end search latency in cycles (Table VIII: 7 below 2048
    /// cells, 8 from 2048 up where the encoder output buffer is inserted).
    #[must_use]
    pub fn search_latency(&self) -> u64 {
        4 + self.block.search_latency()
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// All block-level rules plus [`ConfigError::NoBlocks`] and the
    /// unit-bus rules.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.block.validate()?;
        if self.num_blocks == 0 {
            return Err(ConfigError::NoBlocks);
        }
        if !self.bus_width.is_power_of_two() || self.bus_width < self.block.cell.data_width {
            return Err(ConfigError::BusWidth {
                requested: self.bus_width,
                data_width: self.block.cell.data_width,
            });
        }
        if !(1..=crate::bitslice::MAX_BATCH_WIDTH).contains(&self.batch_width) {
            return Err(ConfigError::BatchWidth {
                requested: self.batch_width,
            });
        }
        if let Some(wbuf) = self.write_buffer {
            if wbuf.capacity == 0 || wbuf.drain_per_tick == 0 {
                return Err(ConfigError::WriteBuffer {
                    capacity: wbuf.capacity,
                    drain_per_tick: wbuf.drain_per_tick,
                });
            }
        }
        Ok(())
    }
}

impl Default for UnitConfig {
    fn default() -> Self {
        UnitConfig::builder()
            .build()
            .expect("default config is valid")
    }
}

/// Builder for [`UnitConfig`] (Table III has seven knobs; the builder
/// defaults every one of them to the paper's case-study values).
#[derive(Debug, Clone)]
pub struct UnitConfigBuilder {
    kind: CamKind,
    data_width: u32,
    ternary_mask: u64,
    block_size: usize,
    block_bus_width: Option<u32>,
    encoding: Encoding,
    encoder_buffer: Option<bool>,
    num_blocks: usize,
    bus_width: u32,
    fidelity: FidelityMode,
    workers: usize,
    scrub: Option<ScrubPolicy>,
    dispatch_deadline_ms: u64,
    batch_width: usize,
    write_buffer: Option<WriteBufferConfig>,
}

impl Default for UnitConfigBuilder {
    fn default() -> Self {
        UnitConfigBuilder {
            kind: CamKind::Binary,
            data_width: 32,
            ternary_mask: 0,
            block_size: 128,
            block_bus_width: None,
            encoding: Encoding::Priority,
            encoder_buffer: None,
            num_blocks: 4,
            bus_width: 512,
            fidelity: FidelityMode::BitAccurate,
            workers: 1,
            scrub: None,
            dispatch_deadline_ms: 0,
            batch_width: default_batch_width(),
            write_buffer: None,
        }
    }
}

impl UnitConfigBuilder {
    /// Set the CAM kind (cell type).
    #[must_use]
    pub fn kind(mut self, kind: CamKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set the storage data width in bits.
    #[must_use]
    pub fn data_width(mut self, bits: u32) -> Self {
        self.data_width = bits;
        self
    }

    /// Set the ternary don't-care bits (TCAM only).
    #[must_use]
    pub fn ternary_mask(mut self, mask: u64) -> Self {
        self.ternary_mask = mask;
        self
    }

    /// Set the number of cells per block.
    #[must_use]
    pub fn block_size(mut self, cells: usize) -> Self {
        self.block_size = cells;
        self
    }

    /// Override the block bus width (defaults to the unit bus width).
    #[must_use]
    pub fn block_bus_width(mut self, bits: u32) -> Self {
        self.block_bus_width = Some(bits);
        self
    }

    /// Set the result-encoding scheme.
    #[must_use]
    pub fn encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Force the encoder output buffer on or off (defaults to the paper's
    /// policy: on when the unit exceeds 2048 cells).
    #[must_use]
    pub fn encoder_buffer(mut self, on: bool) -> Self {
        self.encoder_buffer = Some(on);
        self
    }

    /// Set the number of blocks in the unit.
    #[must_use]
    pub fn num_blocks(mut self, blocks: usize) -> Self {
        self.num_blocks = blocks;
        self
    }

    /// Set the unit bus width in bits.
    #[must_use]
    pub fn bus_width(mut self, bits: u32) -> Self {
        self.bus_width = bits;
        self
    }

    /// Set the search execution tier (defaults to
    /// [`FidelityMode::BitAccurate`]).
    #[must_use]
    pub fn fidelity(mut self, fidelity: FidelityMode) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Set the worker-thread count for multi-query searches and
    /// replicated updates (default 1 = serial; 0 = one per CPU).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enable background scrubbing / self-healing with the given policy
    /// (defaults to off).
    #[must_use]
    pub fn scrub(mut self, policy: ScrubPolicy) -> Self {
        self.scrub = Some(policy);
        self
    }

    /// Set the pool dispatch deadline in milliseconds (default `0` =
    /// wait forever).
    #[must_use]
    pub fn dispatch_deadline_ms(mut self, ms: u64) -> Self {
        self.dispatch_deadline_ms = ms;
        self
    }

    /// Set the key-parallel batch width for streaming searches (default
    /// 32; `1..=`[`MAX_BATCH_WIDTH`](crate::bitslice::MAX_BATCH_WIDTH)).
    #[must_use]
    pub fn batch_width(mut self, keys: usize) -> Self {
        self.batch_width = keys;
        self
    }

    /// Front the unit with a CAM-fronted write buffer (update queue)
    /// under the given policy (defaults to no buffer = inline writes).
    #[must_use]
    pub fn write_buffer(mut self, policy: WriteBufferConfig) -> Self {
        self.write_buffer = Some(policy);
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by the Table III rules.
    pub fn build(self) -> Result<UnitConfig, ConfigError> {
        let total = self.block_size * self.num_blocks;
        let buffer = self.encoder_buffer.unwrap_or(total >= 2048);
        let cell = CellConfig {
            kind: self.kind,
            data_width: self.data_width,
            ternary_mask: self.ternary_mask,
        };
        let block = BlockConfig {
            cell,
            block_size: self.block_size,
            bus_width: self.block_bus_width.unwrap_or(self.bus_width),
            encoding: self.encoding,
            encoder_buffer: buffer,
            fidelity: self.fidelity,
        };
        let config = UnitConfig {
            block,
            num_blocks: self.num_blocks,
            bus_width: self.bus_width,
            workers: self.workers,
            scrub: self.scrub,
            dispatch_deadline_ms: self.dispatch_deadline_ms,
            batch_width: self.batch_width,
            write_buffer: self.write_buffer,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_case_study_shape() {
        let c = UnitConfig::default();
        assert_eq!(c.block.cell.data_width, 32);
        assert_eq!(c.block.block_size, 128);
        assert_eq!(c.bus_width, 512);
        assert_eq!(c.words_per_beat(), 16);
        c.validate().unwrap();
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = UnitConfig::builder()
            .kind(CamKind::Ternary)
            .data_width(24)
            .ternary_mask(0xF)
            .block_size(64)
            .block_bus_width(256)
            .encoding(Encoding::MatchCount)
            .encoder_buffer(true)
            .num_blocks(8)
            .bus_width(512)
            .build()
            .unwrap();
        assert_eq!(c.block.cell.kind, CamKind::Ternary);
        assert_eq!(c.block.cell.data_width, 24);
        assert_eq!(c.block.bus_width, 256);
        assert_eq!(c.block.encoding, Encoding::MatchCount);
        assert!(c.block.encoder_buffer);
        assert_eq!(c.total_cells(), 512);
    }

    #[test]
    fn width_rules_enforced() {
        assert!(matches!(
            UnitConfig::builder().data_width(0).build(),
            Err(ConfigError::DataWidth { .. })
        ));
        assert!(matches!(
            UnitConfig::builder().data_width(49).build(),
            Err(ConfigError::DataWidth { .. })
        ));
        assert!(UnitConfig::builder().data_width(48).build().is_ok());
    }

    #[test]
    fn block_size_must_be_power_of_two() {
        assert!(matches!(
            UnitConfig::builder().block_size(100).build(),
            Err(ConfigError::BlockSize { .. })
        ));
        assert!(matches!(
            UnitConfig::builder().block_size(1).build(),
            Err(ConfigError::BlockSize { .. })
        ));
        assert!(UnitConfig::builder().block_size(2).build().is_ok());
    }

    #[test]
    fn bus_rules_enforced() {
        assert!(matches!(
            UnitConfig::builder().bus_width(48).data_width(32).build(),
            Err(ConfigError::BusWidth { .. })
        ));
        assert!(matches!(
            UnitConfig::builder().bus_width(16).data_width(32).build(),
            Err(ConfigError::BusWidth { .. })
        ));
    }

    #[test]
    fn zero_blocks_rejected() {
        assert_eq!(
            UnitConfig::builder().num_blocks(0).build(),
            Err(ConfigError::NoBlocks)
        );
    }

    #[test]
    fn ternary_mask_beyond_width_rejected() {
        let err = UnitConfig::builder()
            .kind(CamKind::Ternary)
            .data_width(8)
            .ternary_mask(0x100)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::MaskBeyondWidth { .. }));
    }

    #[test]
    fn latency_model_matches_tables() {
        // Standalone blocks: Table VI.
        for (size, latency) in [(32, 3), (64, 3), (128, 3), (256, 4), (512, 4)] {
            let b = BlockConfig::standalone(CellConfig::binary(48), size, 512);
            assert_eq!(b.search_latency(), latency, "block size {size}");
            assert_eq!(b.update_latency(), 1);
        }
        // Units: Table VIII (block size 256 per the scalability setup).
        for (blocks, search) in [(2, 7), (4, 7), (8, 8), (16, 8), (32, 8)] {
            let c = UnitConfig::builder()
                .block_size(256)
                .num_blocks(blocks)
                .data_width(32)
                .build()
                .unwrap();
            assert_eq!(c.update_latency(), 6, "{blocks} blocks");
            assert_eq!(c.search_latency(), search, "{blocks} blocks");
        }
    }

    #[test]
    fn encoder_buffer_policy_is_unit_size_driven() {
        let small = UnitConfig::builder()
            .block_size(256)
            .num_blocks(7)
            .build()
            .unwrap();
        assert!(!small.block.encoder_buffer, "1792 cells: no buffer");
        let big = UnitConfig::builder()
            .block_size(256)
            .num_blocks(8)
            .build()
            .unwrap();
        assert!(
            big.block.encoder_buffer,
            "2048 cells: buffered (Table VIII)"
        );
    }

    #[test]
    fn words_per_beat_never_zero() {
        let c = UnitConfig::builder()
            .data_width(48)
            .bus_width(64)
            .build()
            .unwrap();
        assert_eq!(c.words_per_beat(), 1);
    }

    #[test]
    fn scrub_policy_defaults_pinned() {
        let p = ScrubPolicy::default();
        assert_eq!(p.cells_per_op, 32);
        assert_eq!(p.crosscheck_interval, 8192);
        assert_eq!(p.restore_after, 4, "K (clean sweeps to restore) is 4");
        assert!(!p.strict, "self-healing mode is the default");
        assert_eq!(UnitConfig::default().scrub, None, "scrubbing is opt-in");
        assert_eq!(UnitConfig::default().dispatch_deadline_ms, 0);
        let c = UnitConfig::builder()
            .scrub(ScrubPolicy::default())
            .dispatch_deadline_ms(250)
            .build()
            .unwrap();
        assert_eq!(c.scrub, Some(ScrubPolicy::default()));
        assert_eq!(c.dispatch_deadline_ms, 250);
    }

    #[test]
    fn batch_width_defaults_and_bounds() {
        assert_eq!(UnitConfig::default().batch_width, 32);
        let c = UnitConfig::builder().batch_width(7).build().unwrap();
        assert_eq!(c.batch_width, 7);
        assert!(matches!(
            UnitConfig::builder().batch_width(0).build(),
            Err(ConfigError::BatchWidth { requested: 0 })
        ));
        assert!(matches!(
            UnitConfig::builder().batch_width(65).build(),
            Err(ConfigError::BatchWidth { requested: 65 })
        ));
    }

    #[test]
    fn write_buffer_defaults_pinned() {
        let w = WriteBufferConfig::default();
        assert_eq!(w.capacity, 64, "64 word slots of staging");
        assert_eq!(w.drain_per_tick, 4, "4 staged ops per idle tick");
        assert!(!w.bypass, "buffering is on when configured");
        assert_eq!(
            UnitConfig::default().write_buffer,
            None,
            "the update queue is opt-in"
        );
        let c = UnitConfig::builder()
            .write_buffer(WriteBufferConfig::default())
            .build()
            .unwrap();
        assert_eq!(c.write_buffer, Some(WriteBufferConfig::default()));
        assert!(matches!(
            UnitConfig::builder()
                .write_buffer(WriteBufferConfig {
                    capacity: 0,
                    ..WriteBufferConfig::default()
                })
                .build(),
            Err(ConfigError::WriteBuffer { capacity: 0, .. })
        ));
        assert!(matches!(
            UnitConfig::builder()
                .write_buffer(WriteBufferConfig {
                    drain_per_tick: 0,
                    ..WriteBufferConfig::default()
                })
                .build(),
            Err(ConfigError::WriteBuffer {
                drain_per_tick: 0,
                ..
            })
        ));
    }

    #[test]
    fn cell_constructors() {
        assert_eq!(CellConfig::binary(16).kind, CamKind::Binary);
        assert_eq!(CellConfig::ternary(16, 1).ternary_mask, 1);
        assert_eq!(CellConfig::range_matching(16).kind, CamKind::RangeMatching);
    }
}
