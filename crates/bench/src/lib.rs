//! Shared helpers for the table-regeneration benches.
//!
//! Each `tableN_*` / `fig1_*` bench target is a `harness = false` binary
//! that prints its reproduction of the corresponding paper table using
//! [`fpga_model::report::Table`]; the `micro_*` targets are Criterion
//! benchmarks of the simulator itself. `cargo bench -p dsp-cam-bench`
//! regenerates everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artefact;
pub mod cluster;
pub mod failover;
pub mod search_rates;
pub mod update_latency;
pub mod workloads;

/// Print the standard bench header naming the reproduced artefact.
pub fn banner(artifact: &str, summary: &str) {
    println!();
    println!("================================================================");
    println!("Reproducing {artifact}");
    println!("{summary}");
    println!("================================================================");
}

/// Format an `Option<u64>` latency cell the way Table I does (`-` for
/// unreported).
#[must_use]
pub fn opt_cell(value: Option<u64>) -> String {
    value.map_or_else(|| "-".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_cell_formats() {
        assert_eq!(opt_cell(None), "-");
        assert_eq!(opt_cell(Some(42)), "42");
    }
}
