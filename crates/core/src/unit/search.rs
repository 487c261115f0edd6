//! The search path: every entry point, the one engine they share, and
//! the group walks. A full walk ORs every block into one group-wide
//! vector per key and encodes it; a Turbo search on a binary unit runs a
//! candidate walk instead, which visits only the blocks the exact-match
//! index names plus the group's suspects, and folds each one's answer
//! into the key's encoded answer, block by block.
//!
//! # The all-miss tally, charged by group
//!
//! A key a group answers costs every block of the group one search (one
//! search latency and, under `obs`, one match or one miss), whether or
//! not a walk ran that block's kernel. A full walk runs every block and
//! charges each one directly. A candidate walk charges a block directly
//! only for the keys it matches, and counts those charges per block;
//! every other search of the walk is an all-miss the group owes the
//! block: the keys the group's candidate walks have served since the
//! last settle, minus the block's direct charges. So a candidate walk
//! never touches a block it skips, and costs O(its candidates) whatever
//! the group's capacity.
//!
//! The owed misses reach a block's counters in two ways. Before any
//! counter can be read (`blocks()`, `publish_metrics`), the unit shows
//! each block its owed count through a shared borrow, and every counter
//! read adds it in. Before a block changes group or loses its
//! monitoring tallies (`reset`, `configure_groups` and
//! `write_routing_entry`, which all clear the unit, and `rehydrate`),
//! the unit settles them: the owed misses are charged for good and the
//! ledger restarts at zero. `snapshot()` reads no block counter, a
//! clone copies the ledger with the blocks, and a tier switch leaves the
//! ledger valid (full walks neither add to it nor read it), so none of
//! them needs either.

use dsp48::word::mask_width;
#[cfg(feature = "obs")]
use dsp_cam_obs::OpKind;

use super::{CamUnit, SearchResult};
use crate::bitslice::MAX_BATCH_WIDTH;
use crate::block::CamBlock;
use crate::config::FidelityMode;
use crate::encoder::{MatchVector, SearchOutput};
use crate::error::CamError;
use crate::exact::ExactIndex;

/// A served answer plus the first `(group, key)` divergence the sampled
/// cross-check caught while serving it (repaired either way).
type Served<T> = (T, Option<(usize, u64)>);

/// Reusable buffers of the group walks, the deletion probes and the
/// stream dedup, so once they reach steady-state size a delete
/// allocates nothing and a search only the answers it returns.
#[derive(Debug, Clone, Default)]
pub(super) struct WalkScratch {
    /// The keys one group answers.
    keys: Vec<u64>,
    /// One group-wide match vector per key of a full walk's chunk.
    combined: Vec<MatchVector>,
    /// One block's match vector, for walks that answer block by block
    /// and for the deletion probes.
    block: MatchVector,
    /// Slots one key's candidate walk visits, ascending.
    candidates: Vec<usize>,
    /// A stream's keys, deduplicated.
    dedup: Dedup,
}

/// A stream's keys deduplicated in first-occurrence order.
#[derive(Debug, Clone, Default)]
struct Dedup {
    /// `(key, position)` of every presented key, sorted.
    sorted: Vec<(u64, usize)>,
    /// The unique keys, in first-occurrence order.
    unique: Vec<u64>,
    /// Per presented key, the index in `unique` of its answer.
    slots: Vec<usize>,
}

impl Dedup {
    /// Deduplicate `keys` into `unique` and `slots`.
    fn load(&mut self, keys: &[u64]) {
        self.sorted.clear();
        self.sorted.extend(keys.iter().copied().zip(0..));
        // Sorted by key, then position: each key's run starts at its
        // first occurrence.
        self.sorted.sort_unstable();
        self.slots.clear();
        self.slots.resize(keys.len(), 0);
        for run in self.sorted.chunk_by(|a, b| a.0 == b.0) {
            for &(_, at) in run {
                self.slots[at] = run[0].1;
            }
        }
        // Number the unique keys in order; a repeat's first occurrence
        // comes earlier, so it is numbered already.
        self.unique.clear();
        for (at, &key) in keys.iter().enumerate() {
            let first = self.slots[at];
            self.slots[at] = if first == at {
                self.unique.push(key);
                self.unique.len() - 1
            } else {
                self.slots[first]
            };
        }
    }
}

/// What a full walk asks of each block it visits (a candidate walk
/// broadcasts one key at a time through the scalar kernel for both
/// search probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// The configured tier's broadcast, one key at a time (the point and
    /// multi-query searches), charged to the block's counters.
    Scalar,
    /// The configured tier's broadcast through the key-parallel batch
    /// kernel (`search_stream`), charged to the block's counters.
    Batch,
    /// The DSP oracle, counter-neutral: the cross-check's reference.
    Oracle,
}

impl CamUnit {
    /// The Routing Compute module's key-to-group mapping for single-query
    /// traffic: data is replicated, so any group answers; keys are spread
    /// for load balance.
    #[must_use]
    pub fn route_key(&self, key: u64) -> usize {
        (key % self.groups() as u64) as usize
    }

    /// Single-query search: route, broadcast within the group, combine.
    ///
    /// Under an active [`ScrubPolicy`](crate::config::ScrubPolicy) a
    /// sampled divergence self-heals silently (the corrected answer is
    /// returned) — this path is infallible even in strict mode; use
    /// [`CamUnit::search_group`] to surface [`CamError::ShadowDivergence`].
    pub fn search(&mut self, key: u64) -> SearchResult {
        self.serve_point(self.route_key(key), key).0
    }

    /// Search a specific group (the case-study accelerator addresses
    /// groups explicitly).
    ///
    /// # Errors
    ///
    /// [`CamError::NoSuchGroup`] if the group does not exist;
    /// [`CamError::ShadowDivergence`] if a sampled cross-check catches a
    /// divergent answer under a strict [`ScrubPolicy`](crate::config::ScrubPolicy)
    /// (the divergence is repaired either way).
    pub fn search_group(&mut self, group: usize, key: u64) -> Result<SearchResult, CamError> {
        if group >= self.groups() {
            return Err(CamError::NoSuchGroup {
                group,
                groups: self.groups(),
            });
        }
        let served = self.serve_point(group, key);
        self.strict_check(served)
    }

    /// One key served by `group` in one issue cycle through the scalar
    /// kernel: [`CamUnit::search`] and [`CamUnit::search_group`].
    fn serve_point(&mut self, group: usize, key: u64) -> Served<SearchResult> {
        let (mut results, diverged) = self.serve(group, &[key], 1, Probe::Scalar);
        #[cfg(feature = "obs")]
        self.trace_issue(OpKind::Search, &[key], &results);
        (results.remove(0), diverged)
    }

    /// Multi-query search: up to `M` keys, key *i* served by group *i*,
    /// all in the same issue cycle (Section III-C.3).
    ///
    /// # Errors
    ///
    /// [`CamError::TooManyQueries`] if more keys than groups are
    /// presented; [`CamError::ShadowDivergence`] if a sampled
    /// cross-check catches a divergent answer under a strict
    /// [`ScrubPolicy`](crate::config::ScrubPolicy) (repaired either way).
    pub fn try_search_multi(&mut self, keys: &[u64]) -> Result<Vec<SearchResult>, CamError> {
        let served = self.serve_multi(keys)?;
        self.strict_check(served)
    }

    /// Multi-query search, panicking variant of
    /// [`CamUnit::try_search_multi`]. Like [`CamUnit::search`], it
    /// serves the repaired answer when a sampled cross-check catches a
    /// divergence, even under a strict [`ScrubPolicy`](crate::config::ScrubPolicy).
    ///
    /// # Panics
    ///
    /// Panics if more keys than groups are presented.
    pub fn search_multi(&mut self, keys: &[u64]) -> Vec<SearchResult> {
        self.serve_multi(keys)
            .expect("more concurrent queries than configured groups")
            .0
    }

    /// Key *i* served by group *i*, all in one issue cycle through the
    /// scalar kernel: both multi-query variants.
    fn serve_multi(&mut self, keys: &[u64]) -> Result<Served<Vec<SearchResult>>, CamError> {
        if keys.len() > self.groups() {
            return Err(CamError::TooManyQueries {
                presented: keys.len(),
                capacity: self.groups(),
            });
        }
        let served = self.serve(0, keys, 1, Probe::Scalar);
        #[cfg(feature = "obs")]
        self.trace_issue(OpKind::SearchMulti, keys, &served.0);
        Ok(served)
    }

    /// Streaming multi-query search: any number of keys, batched onto the
    /// `M` groups internally (unique key *j* is served by group `j mod M`,
    /// `M` keys per issue cycle — the steady-state version of
    /// [`CamUnit::search_multi`] for an accelerator draining a work list).
    ///
    /// Duplicate keys within the batch are deduplicated before touching
    /// the engine: data is replicated and fill order is identical in every
    /// group, so group-local addresses are the same wherever a key lands,
    /// and repeats can reuse the first answer (only `group` reflects the
    /// dedup). Counters account for the *unique* keys actually issued:
    /// `issue_cycles += unique.div_ceil(M)`, `search_count += unique`, and
    /// block-level cycle/search counters tick once per unique key —
    /// identically on every fidelity tier.
    ///
    /// Results come back in the caller's key order, duplicates included.
    /// Like [`CamUnit::search`], this path is infallible: a divergence
    /// caught by a sampled cross-check is repaired and the corrected
    /// answer served, even under a strict [`ScrubPolicy`](crate::config::ScrubPolicy);
    /// use [`CamUnit::try_search_stream`] to surface [`CamError::ShadowDivergence`].
    pub fn search_stream(&mut self, keys: &[u64]) -> Vec<SearchResult> {
        self.serve_stream(keys).0
    }

    /// Streaming multi-query search, fallible variant of
    /// [`CamUnit::search_stream`] (same batching, dedup and counter
    /// semantics).
    ///
    /// # Errors
    ///
    /// [`CamError::ShadowDivergence`] if a sampled cross-check catches a
    /// divergent answer under a strict
    /// [`ScrubPolicy`](crate::config::ScrubPolicy) (repaired either way).
    pub fn try_search_stream(&mut self, keys: &[u64]) -> Result<Vec<SearchResult>, CamError> {
        let served = self.serve_stream(keys);
        self.strict_check(served)
    }

    /// The unique keys served `M` per issue cycle through the batch
    /// kernel (on a full walk), answers fanned back out to the caller's
    /// key order: both streaming variants. The dedup runs in reused
    /// buffers, and a stream without repeats hands back the engine's
    /// answers as they are.
    fn serve_stream(&mut self, keys: &[u64]) -> Served<Vec<SearchResult>> {
        if keys.is_empty() {
            return (Vec::new(), None);
        }
        let mut dedup = std::mem::take(&mut self.scratch.dedup);
        dedup.load(keys);
        let issue = dedup.unique.len().div_ceil(self.groups()) as u64;
        let (answers, diverged) = self.serve(0, &dedup.unique, issue, Probe::Batch);
        #[cfg(feature = "obs")]
        self.trace_stream(
            keys.len(),
            &dedup.unique,
            &answers,
            self.issue_cycles - issue,
        );
        let results = if dedup.unique.len() == keys.len() {
            answers
        } else {
            dedup
                .slots
                .iter()
                .map(|&slot| answers[slot].clone())
                .collect()
        };
        self.scratch.dedup = dedup;
        (results, diverged)
    }

    /// Surface a caught divergence as [`CamError::ShadowDivergence`] under a
    /// strict [`ScrubPolicy`](crate::config::ScrubPolicy), else pass the
    /// answer on: the `try_` variants call this; the infallible ones do not.
    fn strict_check<T>(&self, (served, diverged): Served<T>) -> Result<T, CamError> {
        match diverged {
            Some((group, key)) if self.config.scrub.is_some_and(|p| p.strict) => {
                Err(CamError::ShadowDivergence { group, key })
            }
            _ => Ok(served),
        }
    }

    /// The one search engine behind every entry point: sync the write
    /// buffer for `keys`, charge `issue` cycles, answer key `j` from group
    /// `(first + j) mod M` (each group walks its keys in order through
    /// `probe`, see [`CamUnit::walk_group`]), cross-check the answers and
    /// advance the scrubber. Returns the (corrected) answers in key order
    /// plus the first divergence the cross-check caught.
    fn serve(
        &mut self,
        first: usize,
        keys: &[u64],
        issue: u64,
        probe: Probe,
    ) -> Served<Vec<SearchResult>> {
        self.sync_for_keys(keys);
        self.issue_cycles += issue;
        self.search_count += keys.len() as u64;
        let groups = self.groups();
        // Every output is written by the walks below.
        let mut results: Vec<SearchResult> = (0..keys.len())
            .map(|j| SearchResult {
                group: (first + j) % groups,
                output: SearchOutput::Priority(None),
            })
            .collect();
        let mut walk = std::mem::take(&mut self.scratch);
        let mut group_keys = std::mem::take(&mut walk.keys);
        for r in 0..groups.min(keys.len()) {
            group_keys.clear();
            group_keys.extend(keys.iter().skip(r).step_by(groups));
            self.walk_group(
                (first + r) % groups,
                &group_keys,
                probe,
                &mut walk,
                |k, output| {
                    results[r + k * groups].output = output;
                },
            );
        }
        walk.keys = group_keys;
        self.scratch = walk;
        let diverged = self.crosscheck_results(keys, &mut results);
        self.scrub_tick();
        (results, diverged)
    }

    /// The DSP oracle's answer to `key` from `group`, counter-neutral:
    /// the cross-check's reference.
    pub(super) fn oracle_output(&mut self, group: usize, key: u64) -> SearchOutput {
        let mut walk = std::mem::take(&mut self.scratch);
        let mut answer = SearchOutput::Priority(None);
        self.walk_group(
            group,
            std::slice::from_ref(&key),
            Probe::Oracle,
            &mut walk,
            |_, output| {
                answer = output;
            },
        );
        self.scratch = walk;
        answer
    }

    /// Answer `keys` from `group` through `probe`, handing
    /// `answer(k, output)` the encoded answer to `keys[k]`, with answers
    /// and counters those of a walk over every block. A Turbo search on
    /// a binary unit runs [`CamUnit::candidate_walk`]; BitAccurate
    /// searches, the oracle's reference walk and units without an
    /// exact-match index run [`CamUnit::full_walk`].
    fn walk_group(
        &mut self,
        group: usize,
        keys: &[u64],
        probe: Probe,
        walk: &mut WalkScratch,
        answer: impl FnMut(usize, SearchOutput),
    ) {
        let narrowed = probe != Probe::Oracle
            && self.exact.is_some()
            && self.config.block.fidelity == FidelityMode::Turbo;
        if narrowed {
            self.candidate_walk(group, keys, walk, answer);
        } else {
            self.full_walk(group, keys, probe, walk, answer);
        }
    }

    /// Visit every block of `group` for `keys`, `batch_width` keys at a
    /// time: each block ORs its answers into one group-wide vector per
    /// key at its slot offset, and each vector is encoded once complete.
    /// Every block is charged directly for every key, so a full walk owes
    /// no block anything.
    fn full_walk(
        &mut self,
        group: usize,
        keys: &[u64],
        probe: Probe,
        walk: &mut WalkScratch,
        mut answer: impl FnMut(usize, SearchOutput),
    ) {
        let block_size = self.config.block.block_size;
        let slots = self.fill[group].blocks.len();
        let width = self.config.batch_width.clamp(1, MAX_BATCH_WIDTH);
        let encoding = self.config.block.encoding;
        if walk.combined.len() < width.min(keys.len()) {
            walk.combined
                .resize_with(width.min(keys.len()), MatchVector::default);
        }
        for (c, chunk) in keys.chunks(width).enumerate() {
            let combined = &mut walk.combined[..chunk.len()];
            for vector in combined.iter_mut() {
                vector.reset(slots * block_size);
            }
            for slot in 0..slots {
                let offset = slot * block_size;
                let block = &mut self.blocks[self.fill[group].blocks[slot]];
                if probe == Probe::Batch {
                    block.search_batch_or(chunk, combined, offset);
                    continue;
                }
                for (&key, vector) in chunk.iter().zip(combined.iter_mut()) {
                    if probe == Probe::Oracle {
                        block.oracle_vector_into(key, &mut walk.block);
                    } else {
                        block.search_vector_into(key, &mut walk.block);
                    }
                    vector.or_offset(&walk.block, offset);
                }
            }
            for (k, vector) in combined.iter().enumerate() {
                answer(c * width + k, encoding.encode(vector));
            }
        }
    }

    /// Visit only each key's [`CamUnit::candidate_slots`] of `group`, in
    /// ascending order, folding each matching block's block-sized answer
    /// (the scalar kernel's, whatever the probe: a block answers one key
    /// at a time here) into the key's (see [`SearchOutput::fold_block`])
    /// and charging it the match; every block the key skips or misses
    /// is owed its all-miss search by the group. Nothing here grows with
    /// the group's capacity. Under Priority encoding only the first hit
    /// can change the answer, so once a key has one, each later
    /// candidate that is not suspect is charged one matching search
    /// without running its kernel — exactly what its planes would
    /// answer, since a
    /// [trusted](crate::exact::ExactIndex::is_trusted) index names only
    /// blocks whose cells hold the key, and a non-suspect block's planes
    /// equal its cells. Until an index fault is repaired, every
    /// candidate's kernel runs.
    fn candidate_walk(
        &mut self,
        group: usize,
        keys: &[u64],
        walk: &mut WalkScratch,
        mut answer: impl FnMut(usize, SearchOutput),
    ) {
        let block_size = self.config.block.block_size;
        let slots = self.fill[group].blocks.len();
        let encoding = self.config.block.encoding;
        let limit = mask_width(self.config.block.cell.data_width);
        let trusted = self.exact.as_ref().is_some_and(ExactIndex::is_trusted);
        self.fill[group].served += keys.len() as u64;
        for (k, &key) in keys.iter().enumerate() {
            self.candidate_slots(group, key & limit, &mut walk.candidates);
            let mut output = encoding.miss(slots * block_size);
            for &slot in &walk.candidates {
                let b = self.fill[group].blocks[slot];
                let hit = if trusted
                    && matches!(output, SearchOutput::Priority(Some(_)))
                    && self.fill[group].suspects.binary_search(&slot).is_err()
                {
                    true
                } else if self.blocks[b].match_into(key, &mut walk.block) {
                    output.fold_block(&walk.block, slot * block_size);
                    true
                } else {
                    false
                };
                if hit {
                    self.charge_hit(b);
                }
            }
            answer(k, output);
        }
    }

    /// Charge block `b` directly for one search that matched, which its
    /// group then no longer owes it.
    fn charge_hit(&mut self, b: usize) {
        self.blocks[b].tally(1, 1);
        self.charged[b] += 1;
    }

    /// The all-miss searches block `b`'s group owes it: the keys the
    /// group served since the last settle, less those charged to `b`
    /// directly.
    fn unsettled(&self, b: usize) -> u64 {
        self.fill[self.placement[b].0].served - self.charged[b]
    }

    /// Show every block the all-miss searches its group owes it, so its
    /// counter reads are complete (see the module docs). `O(blocks)`;
    /// through a shared borrow, so the unit cannot serve another key
    /// before the reads.
    pub(super) fn show_unsettled(&self) {
        for (b, block) in self.blocks.iter().enumerate() {
            block.show_unsettled(self.unsettled(b));
        }
    }

    /// Charge every block the all-miss searches its group owes it for
    /// good and restart the ledger, before a block changes group or
    /// loses its monitoring tallies.
    pub(super) fn settle(&mut self) {
        for b in 0..self.blocks.len() {
            let owed = self.unsettled(b);
            self.blocks[b].settle(owed);
        }
        for fill in &mut self.fill {
            fill.served = 0;
        }
        self.charged.fill(0);
    }

    /// Visit `group`'s [`CamUnit::candidate_slots`] for (masked) `key` in
    /// fill order until `hit` accepts a block, returning its slot: the one
    /// candidate walk of both deletion probes, which hand `hit` a reused
    /// match vector for the block's probe.
    pub(super) fn find_candidate(
        &mut self,
        group: usize,
        key: u64,
        mut hit: impl FnMut(&mut CamBlock, &mut MatchVector) -> bool,
    ) -> Option<usize> {
        let mut walk = std::mem::take(&mut self.scratch);
        self.candidate_slots(group, key, &mut walk.candidates);
        let found = walk.candidates.iter().copied().find(|&slot| {
            hit(
                &mut self.blocks[self.fill[group].blocks[slot]],
                &mut walk.block,
            )
        });
        self.scratch = walk;
        found
    }

    /// The slots of `group` a walk for (masked) `key` must visit,
    /// ascending, into `out`: on a binary unit, the blocks the
    /// exact-match index names for the key plus the group's suspects;
    /// every slot on a unit without an index. Every other block holds no
    /// valid copy of the key, so its planes answer all-miss.
    fn candidate_slots(&self, group: usize, key: u64, out: &mut Vec<usize>) {
        out.clear();
        let fill = &self.fill[group];
        let Some(exact) = &self.exact else {
            out.extend(0..fill.blocks.len());
            return;
        };
        exact.for_each_block(key, |b| {
            let (g, slot) = self.placement[b];
            if g == group && fill.suspects.binary_search(&slot).is_err() {
                out.push(slot);
            }
        });
        out.extend_from_slice(&fill.suspects);
        out.sort_unstable();
    }

    /// List block `b` as suspect in its group: a shadow fault was just
    /// injected into it.
    pub(super) fn mark_suspect(&mut self, b: usize) {
        let (g, slot) = self.placement[b];
        let suspects = &mut self.fill[g].suspects;
        if let Err(at) = suspects.binary_search(&slot) {
            suspects.insert(at, slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::unit::tests::unit;

    #[test]
    fn single_group_update_search() {
        let mut cam = unit(4, 32);
        cam.update(&[5, 10, 15]).unwrap();
        assert!(cam.search(10).is_match());
        assert!(!cam.search(11).is_match());
        assert_eq!(cam.len(), 3);
        assert_eq!(cam.capacity(), 128);
    }

    #[test]
    fn multi_query_concurrency() {
        let mut cam = unit(4, 32);
        cam.configure_groups(4).unwrap();
        cam.update(&[1, 2, 3]).unwrap();
        let hits = cam.search_multi(&[1, 2, 99, 3]);
        assert!(hits[0].is_match());
        assert!(hits[1].is_match());
        assert!(!hits[2].is_match());
        assert!(hits[3].is_match());
        assert_eq!(hits[1].group, 1);
    }

    #[test]
    fn too_many_queries_rejected() {
        let mut cam = unit(4, 32);
        cam.configure_groups(2).unwrap();
        let err = cam.try_search_multi(&[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            CamError::TooManyQueries {
                presented: 3,
                capacity: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "more concurrent queries")]
    fn search_multi_panics_on_overflow() {
        let mut cam = unit(2, 32);
        let _ = cam.search_multi(&[1, 2, 3]);
    }

    #[test]
    fn group_local_addressing() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(4)
            .num_blocks(2)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.update(&[10, 11, 12, 13, 14]).unwrap();
        // 14 is the fifth entry: block 1, cell 0 -> group address 4.
        let hit = cam.search(14);
        assert_eq!(hit.first_address(), Some(4));
    }

    #[test]
    fn issue_cycles_track_beats_and_queries() {
        let mut cam = unit(4, 128);
        let c0 = cam.issue_cycles();
        let words: Vec<u64> = (0..32).collect(); // 2 beats of 16x32-bit
        cam.update(&words).unwrap();
        assert_eq!(cam.issue_cycles() - c0, 2);
        let c1 = cam.issue_cycles();
        cam.search(1);
        cam.search_multi(&[2]);
        assert_eq!(cam.issue_cycles() - c1, 2);
        assert_eq!(cam.update_words(), 32);
        assert_eq!(cam.search_count(), 2);
    }

    #[test]
    fn search_stream_batches_and_dedupes() {
        let mut cam = unit(4, 32);
        cam.configure_groups(4).unwrap();
        cam.update(&[1, 2, 3, 4, 5]).unwrap();
        let c0 = cam.issue_cycles();
        let s0 = cam.search_count();
        // 9 keys, 7 unique (1 and 2 repeat): ceil(7/4) = 2 issue cycles.
        let keys = [1u64, 2, 1, 99, 3, 2, 7, 4, 5];
        let hits = cam.search_stream(&keys);
        assert_eq!(hits.len(), keys.len(), "one result per presented key");
        assert_eq!(cam.issue_cycles() - c0, 2);
        assert_eq!(cam.search_count() - s0, 7, "unique keys only");
        for (i, (&key, hit)) in keys.iter().zip(&hits).enumerate() {
            assert_eq!(hit.is_match(), key <= 5, "key {key} at {i}");
        }
        // Duplicates reuse the first occurrence's answer verbatim.
        assert_eq!(hits[2], hits[0]);
        assert_eq!(hits[5], hits[1]);
        // Unique key j is served by group j % M.
        assert_eq!(hits[0].group, 0);
        assert_eq!(hits[1].group, 1);
        assert_eq!(hits[4].group, 3, "3 is the fourth unique key");
        assert_eq!(hits[8].group, 2, "5 is the seventh unique key");
    }

    #[test]
    fn search_stream_addresses_match_direct_group_search() {
        let config = UnitConfig::builder()
            .data_width(32)
            .block_size(4)
            .num_blocks(4)
            .build()
            .unwrap();
        let mut cam = CamUnit::new(config).unwrap();
        cam.configure_groups(2).unwrap();
        let words: Vec<u64> = (0..7).map(|i| 100 + i).collect();
        cam.update(&words).unwrap();
        let keys: Vec<u64> = (0..10).map(|i| 100 + i).collect();
        let streamed = cam.search_stream(&keys);
        for (i, &key) in keys.iter().enumerate() {
            let direct = cam.search_group(streamed[i].group, key).unwrap();
            assert_eq!(streamed[i], direct, "key {key}");
        }
    }

    #[test]
    fn search_stream_empty_is_a_noop() {
        let mut cam = unit(2, 16);
        let c0 = cam.issue_cycles();
        assert!(cam.search_stream(&[]).is_empty());
        assert_eq!(cam.issue_cycles(), c0);
        assert_eq!(cam.search_count(), 0);
    }

    #[test]
    fn set_fidelity_switches_all_blocks() {
        let mut cam = unit(4, 32);
        cam.update(&[5, 6]).unwrap();
        let before = cam.search(5);
        cam.set_fidelity(FidelityMode::Turbo);
        assert_eq!(cam.config().block.fidelity, FidelityMode::Turbo);
        assert_eq!(cam.search(5), before, "same issue cycle bump either way");
    }

    /// `M` distinct keys served three ways (`search_group` per key, one
    /// `search_multi`, one `search_stream`) answer and charge blocks,
    /// search count and cross-checks alike, on both kinds and tiers; only
    /// the issue cycles differ, by design (`M`, 1, 1).
    #[test]
    fn every_entry_point_answers_and_charges_alike() {
        const M: usize = 4;
        let keys = [3u64, 40, 41, 977];
        let footprint = |cam: &CamUnit, results: Vec<SearchResult>| {
            let counters = |b: &CamBlock| (b.searches(), b.cycles());
            let blocks: Vec<_> = cam.blocks().iter().map(counters).collect();
            let crosschecks = cam.scrub_report().crosschecks;
            (results, blocks, cam.search_count(), crosschecks)
        };
        for kind in [CamKind::Binary, CamKind::Ternary] {
            for fidelity in [FidelityMode::BitAccurate, FidelityMode::Turbo] {
                let config = UnitConfig::builder()
                    .kind(kind)
                    .data_width(32)
                    .block_size(8)
                    .num_blocks(2 * M)
                    .fidelity(fidelity)
                    .scrub(ScrubPolicy {
                        cells_per_op: 0,
                        crosscheck_interval: 1,
                        ..ScrubPolicy::default()
                    })
                    .build()
                    .unwrap();
                let twin = || {
                    let mut cam = CamUnit::new(config).unwrap();
                    cam.configure_groups(M).unwrap();
                    cam.update(&[40, 5, 977, 40, 12, 3, 8, 9, 10]).unwrap();
                    cam
                };
                let (mut point, mut multi, mut stream) = (twin(), twin(), twin());
                let base = point.issue_cycles();
                let by_point: Vec<SearchResult> = (0..M)
                    .map(|g| point.search_group(g, keys[g]).unwrap())
                    .collect();
                let expected = footprint(&point, by_point);
                let case = format!("{kind:?} {fidelity:?}");
                let by_multi = multi.search_multi(&keys);
                assert_eq!(footprint(&multi, by_multi), expected, "{case}");
                let by_stream = stream.search_stream(&keys);
                assert_eq!(footprint(&stream, by_stream), expected, "{case}");
                assert_eq!(expected.3, M as u64, "every key cross-checked");
                let issued = [&point, &multi, &stream].map(|cam| cam.issue_cycles() - base);
                assert_eq!(issued, [M as u64, 1, 1], "{case}");
            }
        }
    }
}
