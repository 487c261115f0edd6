//! # dsp-cam-graph — graph substrate for the triangle-counting case study
//!
//! CSR graph storage, synthetic graph generators matched to the paper's ten
//! SNAP datasets, reference triangle-counting algorithms and instrumented
//! set-intersection kernels.
//!
//! The SNAP traces themselves are not redistributable inside this
//! reproduction, so [`datasets`] provides *synthetic stand-ins* matched on
//! node count, edge count and degree-distribution family — the properties
//! that determine CAM-vs-merge intersection behaviour (see DESIGN.md for
//! the substitution argument).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod generate;
pub mod intersect;
pub mod io;
pub mod triangle;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use datasets::{Dataset, DatasetFamily};
