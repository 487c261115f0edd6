//! Fault injection and self-repair: shadow audits, fault hooks, the scrub
//! walker, the cross-check and the tier governor (see [`crate::scrub`]).

use dsp48::word::mask_width;
#[cfg(feature = "obs")]
use dsp_cam_obs::Event;

use super::{CamUnit, SearchResult};
use crate::block::CamBlock;
use crate::config::{FidelityMode, ScrubPolicy};
use crate::faults::{FaultPlan, FaultSite};
use crate::scrub::ScrubReport;

impl CamUnit {
    /// Bit-accurate audit pass over every block's bit-sliced shadow:
    /// re-derive the expected `BitSliceIndex` state from the DSP oracle
    /// and return the number of divergent shadow entries (0 for a
    /// healthy unit). With the `obs` feature and an attached observer,
    /// the divergence total is also added to the `shadow_divergence`
    /// counter at unit and block scope.
    pub fn audit_shadows(&self) -> usize {
        let per_block = self.audit_shadows_per_block();
        let total: usize = per_block.iter().sum();
        #[cfg(feature = "obs")]
        self.observe_shadow_audit(total, &per_block);
        total
    }

    /// Per-physical-block divergence counts behind
    /// [`CamUnit::audit_shadows`] (index = physical block id).
    /// Counter-neutral and side-effect free: no observability writes.
    #[must_use]
    pub fn audit_shadows_per_block(&self) -> Vec<usize> {
        self.blocks.iter().map(CamBlock::audit_shadows).collect()
    }

    /// Entries of the exact-match candidate index (see [`crate::exact`])
    /// that diverge from what the cells imply: 0 for a healthy index and
    /// for units that keep none. Counter-neutral and side-effect free;
    /// the scrubber's sweep is what repairs the index.
    #[must_use]
    pub fn audit_exact_index(&self) -> usize {
        self.exact
            .as_ref()
            .map_or(0, |exact| exact.divergence(&self.blocks))
    }

    /// Corrupt one cell's shadow entries in block `block` — the unit-level
    /// fault-injection hook behind [`CamBlock::inject_shadow_fault`] —
    /// and list the block as suspect in its group.
    ///
    /// # Panics
    ///
    /// Panics if `block` or `cell` is out of range.
    pub fn inject_shadow_fault(&mut self, block: usize, cell: usize) {
        self.blocks[block].inject_shadow_fault(cell);
        self.mark_suspect(block);
    }

    /// Apply one targeted fault: a shadow-state bit flip inside a block
    /// (which lists the block as suspect in its group) or a Routing
    /// Table corruption (see [`FaultSite`]). The one-shot API behind
    /// [`CamUnit::inject_faults`]; subsumes
    /// [`CamUnit::inject_shadow_fault`].
    ///
    /// # Panics
    ///
    /// Panics if the site's block or cell index is beyond the unit.
    pub fn inject_fault(&mut self, site: FaultSite) {
        match site {
            FaultSite::Shadow { block, fault } => {
                self.blocks[block].inject_fault_at(fault);
                self.mark_suspect(block);
            }
            FaultSite::Routing { block } => {
                self.routing[block] = (self.routing[block] + 1) % self.groups();
            }
            FaultSite::UpdateQueue { slot } => self.wbuf.inject_index_fault(slot),
            FaultSite::ExactIndex { block, key } => {
                assert!(block < self.blocks.len(), "block {block} out of range");
                let key = key & mask_width(self.config.block.cell.data_width);
                if let Some(exact) = &mut self.exact {
                    exact.inject_fault(key, block);
                }
            }
        }
    }

    /// Run a seeded [`FaultPlan`] for `cycles` upset opportunities
    /// against this unit's geometry, applying every drawn fault.
    /// Returns the number of faults injected (deterministic for a given
    /// plan seed, rates and geometry).
    pub fn inject_faults(&mut self, plan: &mut FaultPlan, cycles: u64) -> usize {
        let mut sites = Vec::new();
        for _ in 0..cycles {
            plan.draw(
                self.blocks.len(),
                self.config.block.block_size,
                self.config.block.cell.data_width,
                &mut sites,
            );
        }
        for &site in &sites {
            self.inject_fault(site);
        }
        sites.len()
    }

    /// A point-in-time read-out of the scrub engine: audit/repair
    /// totals, cross-check statistics and the governor's degradation
    /// state (see [`ScrubReport`]). All zeros until a [`ScrubPolicy`] is
    /// configured via [`UnitConfig::scrub`](crate::config::UnitConfig::scrub).
    #[must_use]
    pub fn scrub_report(&self) -> ScrubReport {
        self.scrub.report(self.config.block.fidelity)
    }

    /// Advance the background scrubber by one operation's budget: audit
    /// `cells_per_op` cells against the DSP oracle, repairing divergence
    /// in place (see [`crate::scrub`]). Every operation runs it once, and
    /// [`StreamingCam`](crate::pipelined::StreamingCam) calls it on idle
    /// ticks so quiet units keep sweeping. No-op unless
    /// [`UnitConfig::scrub`](crate::config::UnitConfig::scrub) carries a
    /// policy. Counter-neutral: issue, search and block counters never move.
    pub fn scrub_tick(&mut self) {
        let Some(policy) = self.config.scrub else {
            return;
        };
        if policy.cells_per_op == 0 || self.blocks.is_empty() {
            return;
        }
        // A restored snapshot may carry a cursor from a larger geometry.
        if self.scrub.cursor_block >= self.blocks.len() {
            self.scrub.cursor_block = 0;
            self.scrub.cursor_cell = 0;
        }
        #[cfg(feature = "obs")]
        let mut repairs: Vec<u64> = Vec::new();
        #[cfg(feature = "obs")]
        let timing = self.observer.is_some();
        for _ in 0..policy.cells_per_op {
            let (b, c) = (self.scrub.cursor_block, self.scrub.cursor_cell);
            #[cfg(feature = "obs")]
            let started = timing.then(std::time::Instant::now);
            let repaired = self.blocks[b].scrub_cell(c);
            self.scrub.cells_audited += 1;
            if repaired > 0 {
                self.scrub.record_repairs(repaired as u64);
                #[cfg(feature = "obs")]
                if let Some(started) = started {
                    repairs.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
            }
            self.scrub.cursor_cell += 1;
            if self.scrub.cursor_cell >= self.blocks[b].capacity() {
                self.scrub.cursor_cell = 0;
                self.scrub.cursor_block += 1;
                if self.scrub.cursor_block >= self.blocks.len() {
                    self.scrub.cursor_block = 0;
                    self.finish_sweep(policy);
                }
            }
        }
        #[cfg(feature = "obs")]
        self.observe_all("scrub", "repair_ns", &repairs);
    }

    /// Close out one full pass of the walker: audit the Routing Table
    /// against group membership (the fill state is the golden copy —
    /// search and update address blocks through it, so a repaired table
    /// re-converges observability attribution, not results), score the
    /// sweep, and let the governor restore the pre-degradation tier
    /// after `restore_after` consecutive clean sweeps.
    fn finish_sweep(&mut self, policy: ScrubPolicy) {
        // The write buffer's derived key index is shadow state like any
        // other: re-derive it from the golden FIFO and score divergence.
        let wbuf_divergent = self.wbuf.audit_index();
        self.scrub.record_repairs(wbuf_divergent);
        // So is the exact-match index: re-derive it from the cells.
        let exact_divergent = self
            .exact
            .as_mut()
            .map_or(0, |exact| exact.audit(&self.blocks));
        self.scrub.record_repairs(exact_divergent);
        for (g, f) in self.fill.iter().enumerate() {
            for &b in &f.blocks {
                if self.routing[b] != g {
                    self.routing[b] = g;
                    self.scrub.record_repairs(1);
                }
            }
        }
        self.scrub.sweeps_completed += 1;
        if self.scrub.sweep_faults == 0 {
            self.scrub.clean_sweeps += 1;
        } else {
            self.scrub.clean_sweeps = 0;
        }
        self.scrub.sweep_faults = 0;
        if self.scrub.clean_sweeps >= policy.restore_after {
            if let Some(tier) = self.scrub.degraded_from.take() {
                self.scrub.clean_sweeps = 0;
                self.set_fidelity(tier);
            }
        }
    }

    /// Sampled cross-check of served answers against the DSP oracle.
    /// Every `crosscheck_interval`-th unique key is recomputed straight
    /// from cell state (counter-neutral); a mismatch proves the serving
    /// shadow diverged, so the answering group is bulk-repaired, the
    /// *corrected* answer substituted into `results`, and the tier
    /// degraded. Returns the first divergence as `(group, key)` for
    /// strict-mode error reporting.
    pub(super) fn crosscheck_results(
        &mut self,
        keys: &[u64],
        results: &mut [SearchResult],
    ) -> Option<(usize, u64)> {
        let policy = self.config.scrub.filter(|p| p.crosscheck_interval > 0)?;
        let mut first = None;
        for (&key, result) in keys.iter().zip(results.iter_mut()) {
            self.scrub.crosscheck_clock += 1;
            if !self
                .scrub
                .crosscheck_clock
                .is_multiple_of(policy.crosscheck_interval)
            {
                continue;
            }
            self.scrub.crosschecks += 1;
            let group = result.group;
            let expected = self.oracle_output(group, key);
            if expected == result.output {
                continue;
            }
            // The serving shadow lied. Repair the whole answering group
            // (so none of its blocks is suspect any more) and the
            // exact-match index from the oracle, serve the oracle's
            // answer, and fall back to the oracle tier.
            self.scrub.divergences += 1;
            let repaired: usize = self.fill[group]
                .blocks
                .iter()
                .map(|&b| self.blocks[b].scrub_all())
                .sum();
            self.fill[group].suspects.clear();
            let rebuilt = self
                .exact
                .as_mut()
                .map_or(0, |exact| exact.audit(&self.blocks));
            self.scrub.record_repairs(repaired as u64 + rebuilt);
            self.scrub.clean_sweeps = 0;
            result.output = expected;
            self.degrade_tier();
            first = first.or(Some((group, key)));
        }
        first
    }

    /// Fall back from Turbo to BitAccurate (the oracle itself cannot
    /// diverge, so BitAccurate is the floor), remembering the tier the
    /// unit started from so the governor can restore it after
    /// `restore_after` clean sweeps.
    fn degrade_tier(&mut self) {
        let from = self.config.block.fidelity;
        if from == FidelityMode::BitAccurate {
            return;
        }
        let to = FidelityMode::BitAccurate;
        self.scrub.degraded_from.get_or_insert(from);
        self.config.block.fidelity = to;
        for block in &mut self.blocks {
            block.set_fidelity(to);
        }
        #[cfg(feature = "obs")]
        self.trace_event(Event::TierDegraded {
            from: super::obs::tier_of(from),
            to: super::obs::tier_of(to),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    /// A scrub-enabled unit with walker-only repair (no cross-checking):
    /// a multi-site fault campaign — plane bits, the valid bitmap and
    /// the Routing Table — is fully repaired within one sweep's worth of
    /// operations, counters stay architecturally untouched, and
    /// `faults_repaired` always equals `faults_detected`.
    #[test]
    fn scrub_walker_repairs_unit_wide_fault_campaign() {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(4)
            .scrub(ScrubPolicy {
                cells_per_op: 8,
                crosscheck_interval: 0,
                restore_after: 2,
                strict: false,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(2).unwrap();
        cam.update(&[1, 2, 3, 4, 5]).unwrap();
        let issue_base = cam.issue_cycles();
        let search_base = cam.search_count();
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 1,
                key_bit: 3,
                one_plane: false,
            },
        });
        cam.inject_fault(FaultSite::Shadow {
            block: 1,
            fault: ShadowFault::Plane {
                cell: 2,
                key_bit: 5,
                one_plane: true,
            },
        });
        cam.inject_fault(FaultSite::Shadow {
            block: 2,
            fault: ShadowFault::PlaneValid { cell: 0 },
        });
        cam.inject_fault(FaultSite::Shadow {
            block: 3,
            fault: ShadowFault::PlaneValid { cell: 4 },
        });
        cam.inject_fault(FaultSite::Routing { block: 3 });
        assert_eq!(cam.audit_shadows(), 4, "four shadow sites corrupted");
        assert_ne!(cam.routing_table()[3], 1, "routing entry corrupted");
        // The update already audited block 0 (8 cells), so three searches
        // finish the sweep — the wrap audits and repairs the Routing
        // Table — and a fourth re-covers block 0's post-injection fault.
        for _ in 0..4 {
            cam.search(1);
        }
        assert_eq!(cam.audit_shadows(), 0, "all shadow faults repaired");
        assert_eq!(cam.routing_table()[3], 1, "routing entry repaired");
        let report = cam.scrub_report();
        assert_eq!(report.faults_detected, 5);
        assert_eq!(report.faults_repaired, report.faults_detected);
        assert_eq!(report.sweeps_completed, 1);
        assert_eq!(
            report.cells_audited, 40,
            "one op during update + four searches"
        );
        assert!(!report.is_degraded(), "no cross-checking, no degradation");
        // Scrubbing is counter-neutral: the four searches account for
        // every issue/search tick.
        assert_eq!(cam.issue_cycles(), issue_base + 4);
        assert_eq!(cam.search_count(), search_base + 4);
    }

    /// The degradation governor: a Turbo-plane fault caught by the
    /// sampled cross-check serves the corrected answer, degrades to
    /// BitAccurate, and `restore_after` consecutive clean sweeps restore
    /// Turbo.
    /// Pins K: after K-1 clean sweeps the unit is still degraded.
    #[test]
    fn crosscheck_degrades_turbo_and_restores_after_k_clean_sweeps() {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(2)
            .fidelity(FidelityMode::Turbo)
            .scrub(ScrubPolicy {
                cells_per_op: 16, // one full sweep per operation
                crosscheck_interval: 1,
                restore_after: 2,
                strict: false,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[5, 9]).unwrap();
        // Key 5 has bit 0 set, so Turbo consults the match-if-1 plane of
        // bit 0; flipping cell 0's bit there makes Turbo miss a stored
        // key the oracle matches.
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 0,
                key_bit: 0,
                one_plane: true,
            },
        });
        let result = cam.search(5);
        assert!(result.is_match(), "the corrected answer is served");
        let report = cam.scrub_report();
        assert_eq!(report.divergences, 1);
        assert_eq!(report.degraded_from, Some(FidelityMode::Turbo));
        assert_eq!(report.current_tier, FidelityMode::BitAccurate);
        assert_eq!(
            report.faults_repaired, report.faults_detected,
            "cross-check repair keeps the ledger balanced"
        );
        // The divergence dirtied the sweep containing it; the next clean
        // sweep is the first of the K = 2 streak.
        cam.search(9);
        assert_eq!(
            cam.scrub_report().current_tier,
            FidelityMode::BitAccurate,
            "one clean sweep is not enough at K = 2"
        );
        cam.search(9);
        let report = cam.scrub_report();
        assert_eq!(report.current_tier, FidelityMode::Turbo, "restored");
        assert_eq!(report.degraded_from, None);
        assert_eq!(cam.audit_shadows(), 0);
        // The default policy pins K = 4 (documented degradation ladder).
        assert_eq!(ScrubPolicy::default().restore_after, 4);
    }

    /// Strict mode surfaces a caught divergence as
    /// [`CamError::ShadowDivergence`] *after* repairing it.
    #[test]
    fn strict_scrub_surfaces_shadow_divergence() {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(2)
            .fidelity(FidelityMode::Turbo)
            .scrub(ScrubPolicy {
                cells_per_op: 4,
                crosscheck_interval: 1,
                restore_after: 2,
                strict: true,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[5]).unwrap();
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 0,
                key_bit: 0,
                one_plane: true,
            },
        });
        let err = cam.search_group(0, 5).unwrap_err();
        assert_eq!(err, CamError::ShadowDivergence { group: 0, key: 5 });
        // The error reported an already-repaired state: the next search
        // is clean and the unit runs degraded but correct.
        assert!(cam.search_group(0, 5).unwrap().is_match());
        assert_eq!(cam.scrub_report().current_tier, FidelityMode::BitAccurate);
    }

    /// Strict mode only changes the `try_` variants: the infallible
    /// `search_stream` and `search_multi` (and `Op::SearchStream`, which
    /// `StreamingCam` serves through `search_stream`) answer a caught
    /// divergence with the repaired result instead of panicking.
    #[test]
    fn strict_scrub_infallible_searches_serve_the_repaired_answer() {
        use crate::pipelined::{Completion, Op, StreamingCam};
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(2)
            .fidelity(FidelityMode::Turbo)
            .scrub(ScrubPolicy {
                cells_per_op: 4,
                crosscheck_interval: 1,
                restore_after: 2,
                strict: true,
            })
            .build()
            .unwrap();
        // Key 5's match-if-1 plane bit flipped in cell 0: Turbo misses a
        // stored key the oracle matches.
        let fault = FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 0,
                key_bit: 0,
                one_plane: true,
            },
        };
        let faulted = || {
            let mut cam = CamUnit::new(config).unwrap();
            cam.update(&[5, 9]).unwrap();
            cam.inject_fault(fault);
            cam
        };
        let mut clean = CamUnit::new(config).unwrap();
        clean.update(&[5, 9]).unwrap();
        let expected = clean.search_stream(&[5, 9]);
        assert!(expected.iter().all(SearchResult::is_match));

        let mut cam = faulted();
        assert_eq!(cam.search_stream(&[5, 9]), expected, "repaired answers");
        assert_eq!(cam.scrub_report().divergences, 1);

        let mut twin = faulted();
        assert_eq!(
            twin.try_search_stream(&[5, 9]).unwrap_err(),
            CamError::ShadowDivergence { group: 0, key: 5 }
        );

        let mut twin = faulted();
        let hits = twin.search_multi(&[5]);
        assert_eq!(hits[0].first_address(), Some(0), "repaired answer");

        let mut pipe = StreamingCam::new(config).unwrap();
        pipe.unit_mut().update(&[5, 9]).unwrap();
        pipe.unit_mut().inject_fault(fault);
        pipe.issue(Op::SearchStream(vec![5, 9])).unwrap();
        pipe.drain();
        let mut retired = Vec::new();
        pipe.drain_retired(&mut retired);
        assert!(
            matches!(&retired[..], [(_, Completion::SearchStream(hits))] if *hits == expected),
            "{retired:?}"
        );
    }

    /// Scrub repair interacts correctly with deletion's free-list: a
    /// repaired cell deletes cleanly, the freed address is reused lowest
    /// first, and `entries_per_group` tracks the whole dance.
    #[test]
    fn delete_after_scrub_repair_reuses_freed_address_in_order() {
        let config = UnitConfig::builder()
            .data_width(16)
            .block_size(8)
            .num_blocks(2)
            .scrub(ScrubPolicy {
                cells_per_op: 16, // full sweep per op
                crosscheck_interval: 0,
                restore_after: 2,
                strict: false,
            })
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[10, 20, 30]).unwrap();
        // Corrupt two plane bits of the cell holding key 20, then let
        // the walker repair it before any deletion touches that cell.
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 1,
                key_bit: 0,
                one_plane: true,
            },
        });
        cam.inject_fault(FaultSite::Shadow {
            block: 0,
            fault: ShadowFault::Plane {
                cell: 1,
                key_bit: 2,
                one_plane: false,
            },
        });
        // One search op = one full sweep: repair done.
        cam.search(10);
        assert_eq!(cam.audit_shadows(), 0, "walker repaired the cell");
        assert_eq!(cam.len(), 3);
        // Delete the repaired entry: address 1 joins the free-list.
        assert!(cam.delete_first(20));
        assert_eq!(cam.len(), 2);
        assert!(!cam.search(20).is_match());
        // Re-insert: the freed lowest address is reused first, and the
        // fresh write reshadows the cell (no residual divergence).
        cam.update(&[40]).unwrap();
        assert_eq!(cam.len(), 3);
        let hit = cam.search(40);
        assert!(hit.is_match());
        assert_eq!(hit.first_address(), Some(1), "lowest freed address");
        assert_eq!(cam.audit_shadows(), 0);
        assert_eq!(
            cam.scrub_report().faults_repaired,
            1,
            "one divergent cell, repaired once"
        );
    }
}
