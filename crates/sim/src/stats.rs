//! Throughput counters.

use serde::{Deserialize, Serialize};

/// Operations-per-second throughput derived from cycle counts and a clock
/// frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Throughput {
    /// Number of operations completed.
    pub operations: u64,
    /// Cycles elapsed while completing them.
    pub cycles: u64,
    /// Clock frequency in MHz.
    pub frequency_mhz: f64,
}

impl Throughput {
    /// Operations per second.
    ///
    /// Returns 0.0 when no cycles have elapsed.
    #[must_use]
    pub fn ops_per_second(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.operations as f64 * self.frequency_mhz * 1e6 / self.cycles as f64
    }

    /// Millions of operations per second — the unit of the paper's
    /// Tables VI and VIII throughput rows.
    #[must_use]
    pub fn mops(&self) -> f64 {
        self.ops_per_second() / 1e6
    }

    /// Wall-clock time in milliseconds for the recorded cycles.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.cycles as f64 / (self.frequency_mhz * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math_matches_paper_units() {
        // One op per cycle at 300 MHz = 300 Mop/s (Table VI search row).
        let t = Throughput {
            operations: 1000,
            cycles: 1000,
            frequency_mhz: 300.0,
        };
        assert!((t.mops() - 300.0).abs() < 1e-9);
        // 16 words per cycle at 300 MHz = 4800 Mop/s (Table VI update row).
        let t = Throughput {
            operations: 16_000,
            cycles: 1000,
            frequency_mhz: 300.0,
        };
        assert!((t.mops() - 4800.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_zero_cycles_is_zero() {
        let t = Throughput {
            operations: 5,
            cycles: 0,
            frequency_mhz: 300.0,
        };
        assert_eq!(t.ops_per_second(), 0.0);
    }

    #[test]
    fn elapsed_ms() {
        let t = Throughput {
            operations: 0,
            cycles: 300_000,
            frequency_mhz: 300.0,
        };
        assert!((t.elapsed_ms() - 1.0).abs() < 1e-12);
    }
}
