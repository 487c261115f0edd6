//! # dsp-cam — Configurable DSP-Based CAM Architecture on FPGAs
//!
//! Umbrella crate for the reproduction of *Configurable DSP-Based CAM
//! Architecture for Data-Intensive Applications on FPGAs* (DAC 2025):
//! a content-addressable memory built from DSP48E2 slices, simulated
//! bit- and cycle-accurately, with calibrated FPGA resource/timing models,
//! competing-design baselines, and the paper's triangle-counting case
//! study.
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`dsp48`] | `dsp48` | DSP48E2 slice behavioural model (UG579) |
//! | [`sim`] | `dsp-cam-sim` | clocked simulation kernel, pipelines, DDR model |
//! | [`fpga`] | `fpga-model` | devices, resources, timing, floorplan, survey |
//! | [`cam`] | `dsp-cam-core` | **the contribution**: cell/block/unit hierarchy |
//! | [`baselines`] | `dsp-cam-baselines` | LUT/LUTRAM/BRAM/hybrid/DSP-cascade CAMs |
//! | [`graph`] | `dsp-cam-graph` | CSR, generators, triangle counting |
//! | [`tc`] | `tc-accel` | case study: CAM accelerator vs merge baseline |
//!
//! ## Quickstart
//!
//! ```
//! use dsp_cam::prelude::*;
//!
//! # fn main() -> Result<(), ConfigError> {
//! let mut cam = CamUnit::new(
//!     UnitConfig::builder()
//!         .data_width(32)
//!         .block_size(128)
//!         .num_blocks(4)
//!         .build()?,
//! )?;
//! cam.configure_groups(4).unwrap(); // 4 concurrent queries per cycle
//! cam.update(&[10, 20, 30]).unwrap();
//! let hits = cam.search_multi(&[20, 99, 30, 10]);
//! assert_eq!(hits.iter().filter(|h| h.is_match()).count(), 3);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios (quickstart, packet classifier,
//! database index, dynamic groups, triangle counting) and the
//! `dsp-cam-bench` crate for the harnesses that regenerate every table and
//! figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dsp48;

/// Clocked simulation kernel (re-export of `dsp-cam-sim`).
pub mod sim {
    pub use dsp_cam_sim::*;
}

/// FPGA device/resource/timing models (re-export of `fpga-model`).
pub mod fpga {
    pub use fpga_model::*;
}

/// The CAM architecture itself (re-export of `dsp-cam-core`).
pub mod cam {
    pub use dsp_cam_core::*;
}

/// Competing CAM implementations (re-export of `dsp-cam-baselines`).
pub mod baselines {
    pub use dsp_cam_baselines::*;
}

/// Graph substrate (re-export of `dsp-cam-graph`).
pub mod graph {
    pub use dsp_cam_graph::*;
}

/// Triangle-counting case study (re-export of `tc-accel`).
pub mod tc {
    pub use tc_accel::*;
}

/// One-stop import for applications.
pub mod prelude {
    pub use dsp_cam_core::prelude::*;
}
