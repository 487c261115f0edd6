//! # dsp-cam-core — the configurable DSP-based CAM architecture
//!
//! This crate implements the primary contribution of *Configurable DSP-Based
//! CAM Architecture for Data-Intensive Applications on FPGAs* (DAC 2025): a
//! content-addressable memory built from DSP48E2 slices, organised in a
//! fully parameterised three-level hierarchy:
//!
//! * **cell** ([`cell::CamCell`]) — one DSP slice in logic mode storing one
//!   ≤48-bit entry; 1-cycle update, 2-cycle search (Table V);
//! * **block** ([`block::CamBlock`]) — a configurable number of cells plus
//!   the DeMUX, Cell Address Controller, search broadcast and result
//!   Encoder (Fig. 3); parallel multi-word updates, 3–4-cycle searches
//!   (Table VI);
//! * **unit** ([`unit::CamUnit`]) — multiple blocks behind a Routing
//!   Compute module, Routing Table and Post-Router crossbar, dynamically
//!   partitionable into *CAM groups* for multi-query parallelism (Fig. 4);
//!   6-cycle updates, 7–8-cycle searches (Table VIII).
//!
//! Binary, ternary and range-matching behaviour is selected per Table II by
//! programming the DSP pattern-detector mask ([`mask`]).
//!
//! ## Quickstart
//!
//! ```
//! use dsp_cam_core::prelude::*;
//!
//! # fn main() -> Result<(), ConfigError> {
//! let config = UnitConfig::builder()
//!     .data_width(32)
//!     .block_size(128)
//!     .num_blocks(4)
//!     .build()?;
//! let mut cam = CamUnit::new(config)?;
//!
//! // Two groups of two blocks each: two concurrent queries per cycle.
//! cam.configure_groups(2).unwrap();
//! cam.update(&[7, 42, 99]).unwrap();
//!
//! let hits = cam.search_multi(&[42, 1000]);
//! assert!(hits[0].is_match());
//! assert!(!hits[1].is_match());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitslice;
pub mod block;
pub mod bus;
pub mod cell;
pub mod config;
pub mod dense;
pub mod encoder;
pub mod error;
pub mod exact;
pub mod faults;
pub mod func;
pub mod journal;
pub mod kind;
pub mod mask;
pub mod pipelined;
pub mod scrub;
pub mod unit;
pub mod update_queue;
pub mod verilog;

/// Convenient glob import of the public API.
pub mod prelude {
    pub use crate::bitslice::BitSliceIndex;
    pub use crate::block::CamBlock;
    pub use crate::cell::CamCell;
    pub use crate::config::{
        BlockConfig, CellConfig, FidelityMode, ScrubPolicy, UnitConfig, WriteBufferConfig,
    };
    pub use crate::dense::DenseCamBlock;
    pub use crate::encoder::{Encoding, MatchVector, SearchOutput};
    pub use crate::error::{CamError, ConfigError};
    pub use crate::faults::{FaultPlan, FaultRates, FaultSite, ShadowFault};
    pub use crate::func::RefCam;
    pub use crate::journal::{JournalEntry, JournalOp, OpJournal};
    pub use crate::kind::CamKind;
    pub use crate::mask::{range_mask, width_mask, CamMask, RangeSpec};
    pub use crate::pipelined::{Completion, Op, RetireRecord, StreamingCam};
    pub use crate::scrub::ScrubReport;
    pub use crate::unit::{CamUnit, SearchResult};
    pub use crate::update_queue::{StagedOp, WriteBufferReport};
    pub use crate::verilog::RtlBundle;
}

pub use prelude::*;
