//! Background scrubbing, sampled cross-checking and tier degradation.
//!
//! FPGA CAMs protect fabric-resident state by *scrubbing*: a background
//! walker re-reads every word on a fixed cadence, compares it against a
//! golden source and rewrites divergence before it can accumulate. In
//! this model the golden source is the bit-accurate DSP oracle (the
//! per-cell slice state), and the protected state is everything derived
//! from it: the transposed `BitSliceIndex` planes, their packed valid
//! bitmap and the Routing Table.
//!
//! The subsystem has three cooperating mechanisms, all configured by
//! [`ScrubPolicy`](crate::config::ScrubPolicy) on the unit config:
//!
//! 1. **The scrub walker** — every unit operation (and every idle
//!    [`StreamingCam`](crate::pipelined::StreamingCam) tick) also audits
//!    `cells_per_op` cells, repairing the bit-sliced shadow in place via
//!    [`CamBlock::scrub_cell`](crate::block::CamBlock::scrub_cell). When
//!    the cursor wraps the whole unit, the Routing Table is audited
//!    against group membership and the sweep is scored clean or dirty.
//! 2. **The sampled cross-check** — one search answer in every
//!    `crosscheck_interval` is recomputed straight from the oracle
//!    ([`CamBlock::oracle_vector_into`](crate::block::CamBlock::oracle_vector_into));
//!    a mismatch proves the serving shadow diverged, so the group is
//!    bulk-repaired, the *corrected* answer is served, and the tier is
//!    degraded.
//! 3. **The degradation governor** — divergence drops a Turbo unit to
//!    BitAccurate (the oracle itself cannot diverge); `restore_after`
//!    consecutive clean sweeps restore the tier it started from.
//!
//! All of it is counter-neutral: scrubbing, cross-checking, repair and
//! degradation never touch issue-cycle, search or block counters, so a
//! scrub-enabled unit stays bit-identical (results *and* counters) to a
//! scrub-free reference — the invariant `tests/fault_recovery.rs`
//! enforces under chaos.

use serde::{Deserialize, Serialize};

use crate::config::FidelityMode;

/// Internal scrub-engine state carried by a
/// [`CamUnit`](crate::unit::CamUnit). Serialized with the unit (a
/// restored unit resumes its sweep where it left off); all counters are
/// diagnostics, never architectural state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ScrubState {
    /// Physical block the walker is currently in.
    pub(crate) cursor_block: usize,
    /// Cell within that block the walker audits next.
    pub(crate) cursor_cell: usize,
    /// Faults found since the current sweep started (cross-check repairs
    /// included — they dirty the sweep that contains them).
    pub(crate) sweep_faults: u64,
    /// Consecutive clean sweeps completed so far.
    pub(crate) clean_sweeps: u64,
    /// Total full sweeps completed.
    pub(crate) sweeps_completed: u64,
    /// Total cells audited by the walker.
    pub(crate) cells_audited: u64,
    /// Total divergent shadow entries detected (walker + cross-check).
    pub(crate) faults_detected: u64,
    /// Total divergent shadow entries repaired (always equals
    /// `faults_detected`: detection repairs in the same step).
    pub(crate) faults_repaired: u64,
    /// Unique searched keys seen (the cross-check sampling clock).
    pub(crate) crosscheck_clock: u64,
    /// Cross-checks actually performed.
    pub(crate) crosschecks: u64,
    /// Cross-checks that caught a divergent answer.
    pub(crate) divergences: u64,
    /// The tier the unit ran at before the governor first degraded it
    /// (`None` while undegraded); restored after `restore_after` clean
    /// sweeps.
    pub(crate) degraded_from: Option<FidelityMode>,
}

impl ScrubState {
    /// Ledger `n` divergent entries found and repaired in place
    /// (detection and repair are one step, so both totals move).
    pub(crate) fn record_repairs(&mut self, n: u64) {
        self.faults_detected += n;
        self.faults_repaired += n;
        self.sweep_faults += n;
    }

    /// Snapshot the state into a public [`ScrubReport`].
    pub(crate) fn report(&self, current_tier: FidelityMode) -> ScrubReport {
        ScrubReport {
            cells_audited: self.cells_audited,
            faults_detected: self.faults_detected,
            faults_repaired: self.faults_repaired,
            sweeps_completed: self.sweeps_completed,
            clean_sweeps: self.clean_sweeps,
            crosschecks: self.crosschecks,
            divergences: self.divergences,
            degraded_from: self.degraded_from,
            current_tier,
        }
    }
}

/// A point-in-time read-out of a unit's scrub engine (see
/// [`CamUnit::scrub_report`](crate::unit::CamUnit::scrub_report)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Cells audited by the background walker.
    pub cells_audited: u64,
    /// Divergent shadow entries detected (walker + cross-check).
    pub faults_detected: u64,
    /// Divergent shadow entries repaired (equals `faults_detected` —
    /// detection and repair are one step).
    pub faults_repaired: u64,
    /// Full sweeps of every cell completed.
    pub sweeps_completed: u64,
    /// Current streak of consecutive clean sweeps.
    pub clean_sweeps: u64,
    /// Sampled search cross-checks performed.
    pub crosschecks: u64,
    /// Cross-checks that caught a divergent answer.
    pub divergences: u64,
    /// The tier the unit ran at before degradation (`None` while
    /// undegraded).
    pub degraded_from: Option<FidelityMode>,
    /// The tier the unit is serving searches on right now.
    pub current_tier: FidelityMode,
}

impl ScrubReport {
    /// Whether the unit is currently running below its configured tier.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded_from.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_mirrors_state() {
        let mut state = ScrubState {
            cells_audited: 10,
            faults_detected: 2,
            faults_repaired: 2,
            ..ScrubState::default()
        };
        state.degraded_from = Some(FidelityMode::Turbo);
        let report = state.report(FidelityMode::BitAccurate);
        assert_eq!(report.cells_audited, 10);
        assert_eq!(report.faults_detected, report.faults_repaired);
        assert!(report.is_degraded());
        assert_eq!(report.degraded_from, Some(FidelityMode::Turbo));
        assert_eq!(report.current_tier, FidelityMode::BitAccurate);
        assert!(!ScrubState::default()
            .report(FidelityMode::Turbo)
            .is_degraded());
    }
}
