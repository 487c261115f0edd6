//! # dsp48 — behavioural model of the AMD/Xilinx DSP48E2 slice
//!
//! This crate provides a bit-accurate, cycle-accurate behavioural model of the
//! DSP48E2 slice found in UltraScale/UltraScale+ FPGAs, as documented in
//! *UltraScale Architecture DSP Slice User Guide* (UG579). It is the hardware
//! substrate on which the DSP-based CAM of
//! *Configurable DSP-Based CAM Architecture for Data-Intensive Applications on
//! FPGAs* (DAC 2025) is built: the CAM cell is a DSP48E2 configured in logic
//! mode computing `O = (A:B) XOR C` with the pattern detector reporting a
//! match against zero under a configurable mask.
//!
//! The model covers:
//!
//! * the 48-bit three-input ALU with add/subtract and logic-unit modes
//!   ([`alu`]), including `FOUR12`/`TWO24` SIMD segmentation;
//! * the 27×18 signed multiplier and 27-bit pre-adder ([`multiplier`]);
//! * `OPMODE`/`ALUMODE`/`INMODE`/`CARRYINSEL` decoding with the legality
//!   rules that matter for the CAM configuration ([`opmode`]);
//! * the pattern detector with `PATTERN`/`MASK` selection ([`pattern`]);
//! * the configurable pipeline registers, so operation latency *emerges*
//!   from the register configuration instead of being asserted
//!   ([`slice`](mod@slice));
//! * the exact static configuration used by the paper's CAM cell
//!   ([`cam_profile`]).
//!
//! ## Quickstart
//!
//! ```
//! use dsp48::cam_profile::CamDsp;
//!
//! // A DSP48E2 configured as a 48-bit match cell.
//! let mut cell = CamDsp::new();
//! cell.write(0xDEAD_BEEF);            // 1-cycle update into A:B
//! let hit = cell.search(0xDEAD_BEEF); // 2-cycle search via C + pattern detect
//! assert!(hit);
//! assert!(!cell.search(0xDEAD_BEE0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alu;
pub mod attributes;
pub mod cam_profile;
pub mod multiplier;
pub mod opmode;
pub mod pattern;
pub mod slice;
pub mod word;

pub use attributes::{Attributes, PatternSelect, RegStages, SimdMode, UseMult};
pub use opmode::{AluMode, CarryInSel, InMode, OpMode, WMux, XMux, YMux, ZMux};
pub use pattern::PatternDetector;
pub use slice::{Dsp48e2, DspInputs, DspOutputs};
pub use word::{mask_width, P48};
