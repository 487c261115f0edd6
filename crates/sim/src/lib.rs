//! # dsp-cam-sim — clocked simulation kernel
//!
//! Small, dependency-light building blocks for cycle-level hardware
//! modelling, shared by every crate in the workspace:
//!
//! * [`clock`] — the [`clock::Clocked`] trait, which every cycle-level
//!   model implements (the CAM's streaming pipeline keeps its latencies
//!   in issue-ordered retire queues of its own);
//! * [`memory`] — a DDR4 channel model (512-bit data path) used by the
//!   triangle-counting case study;
//! * [`arbiter`] — a round-robin arbiter;
//! * [`stats`] — throughput counters;
//! * [`vcd`] — a value-change-dump writer for waveform viewers.
//!
//! ## Example
//!
//! ```
//! use dsp_cam_sim::memory::MemRequest;
//! use dsp_cam_sim::{Clocked, DdrChannel};
//!
//! // One 64-byte beat behind the channel's first-word latency.
//! let mut ddr = DdrChannel::default();
//! ddr.request(7, MemRequest { addr: 0, bytes: 64 });
//! let mut cycles = 0;
//! while !ddr.is_idle() {
//!     ddr.tick();
//!     cycles += 1;
//! }
//! assert_eq!(ddr.take_completed(), vec![7]);
//! assert_eq!(cycles, ddr.access_cycles(MemRequest { addr: 0, bytes: 64 }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod clock;
pub mod memory;
pub mod stats;
pub mod vcd;

pub use arbiter::RoundRobin;
pub use clock::Clocked;
pub use memory::{DdrChannel, DdrConfig};
pub use stats::Throughput;
pub use vcd::Vcd;
