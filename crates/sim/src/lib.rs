//! # dsp-cam-sim — clocked simulation kernel
//!
//! Small, dependency-light building blocks for cycle-level hardware
//! modelling, shared by every crate in the workspace:
//!
//! * [`clock`] — the [`clock::Clocked`] trait;
//! * [`pipeline`] — fixed-depth pipeline registers ([`pipeline::Pipe`]),
//!   the tool with which every datapath latency in the CAM model is built;
//! * [`memory`] — a DDR4 channel model (512-bit data path) used by the
//!   triangle-counting case study;
//! * [`stats`] — throughput counters.
//!
//! ## Example
//!
//! ```
//! use dsp_cam_sim::Pipe;
//!
//! // A 3-deep pipeline: values emerge three shifts later.
//! let mut pipe = Pipe::new(3);
//! assert_eq!(pipe.shift(Some(1)), None);
//! assert_eq!(pipe.shift(Some(2)), None);
//! assert_eq!(pipe.shift(Some(3)), None);
//! assert_eq!(pipe.shift(None), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod clock;
pub mod memory;
pub mod pipeline;
pub mod stats;
pub mod vcd;

pub use arbiter::RoundRobin;
pub use clock::Clocked;
pub use memory::{DdrChannel, DdrConfig};
pub use pipeline::Pipe;
pub use stats::Throughput;
pub use vcd::Vcd;
