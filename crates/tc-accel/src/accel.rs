//! The CAM-based triangle-counting accelerator (Fig. 6).
//!
//! Per undirected edge `(u, v)`: the Load-Offset and Load-List kernels
//! fetch both adjacency lists from DDR; the longer list is written into
//! the CAM unit (duplicated across `M` groups); the shorter list streams
//! through as `M` parallel search keys per cycle; every match increments
//! the triangle counter. Summed over all edges, each triangle is counted
//! from its three edges, so the total divides by three.
//!
//! Functional counting uses a hash-set stand-in for the CAM probe (the
//! two are property-equivalent — see `dsp-cam-core`'s tests); cycle
//! accounting follows [`crate::model`]. For small graphs
//! [`CamTriangleCounter::run_on_hardware_model`] drives the *real*
//! simulated [`CamUnit`] — every DSP tick included — and takes each
//! edge's compute cycles from the unit's issue counter, to validate
//! that the fast path computes exactly what the hardware hierarchy
//! would.

#[cfg(feature = "obs")]
use std::sync::Arc;

use dsp_cam_core::prelude::*;
use dsp_cam_graph::csr::Csr;
use dsp_cam_graph::intersect;
#[cfg(feature = "obs")]
use dsp_cam_obs::{ObsSink, ScopeId};

use crate::model::{CamGeometry, PipelineCosts};
use crate::perf::TcReport;

/// Probe-loop instrumentation for the hardware-model path.
///
/// Zero-cost unless the `obs` feature is on *and* a sink is attached:
/// without the feature the struct is empty and every method body
/// compiles away.
#[derive(Debug, Default)]
struct PhaseProbe {
    #[cfg(feature = "obs")]
    sink: Option<(Arc<ObsSink>, ScopeId)>,
}

impl PhaseProbe {
    /// A probe publishing under the `"accel"` scope of `sink`.
    #[cfg(feature = "obs")]
    fn attached(sink: &Arc<ObsSink>) -> Self {
        PhaseProbe {
            sink: Some((Arc::clone(sink), sink.register_scope("accel"))),
        }
    }

    /// Attach the driven unit to the same sink, under `"accel/unit"`.
    fn attach_unit(&self, _unit: &mut CamUnit) {
        #[cfg(feature = "obs")]
        if let Some((sink, _)) = &self.sink {
            _unit.attach_observer_as(sink, "accel/unit");
        }
    }

    /// Observe one phase-duration sample (issue-cycle delta).
    fn phase(&self, _name: &'static str, _cycles: u64) {
        #[cfg(feature = "obs")]
        if let Some((sink, scope)) = &self.sink {
            sink.observe(*scope, _name, _cycles);
        }
    }

    /// Bump an accel-scope counter.
    fn count(&self, _name: &'static str, _by: u64) {
        #[cfg(feature = "obs")]
        if let Some((sink, scope)) = &self.sink {
            sink.add(*scope, _name, _by);
        }
    }

    /// Snapshot the unit's hierarchical counters into the registry.
    fn publish_unit(&self, _unit: &CamUnit) {
        #[cfg(feature = "obs")]
        if self.sink.is_some() {
            _unit.publish_metrics();
        }
    }
}

/// The CAM-based accelerator model.
///
/// # Examples
///
/// ```
/// use dsp_cam_graph::builder::GraphBuilder;
/// use tc_accel::CamTriangleCounter;
///
/// let graph = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2)])
///     .build_undirected();
/// let report = CamTriangleCounter::new().run(&graph);
/// assert_eq!(report.triangles, 1);
/// assert!(report.ms > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CamTriangleCounter {
    geometry: CamGeometry,
    costs: PipelineCosts,
    scrub: Option<ScrubPolicy>,
}

impl CamTriangleCounter {
    /// Accelerator with the paper's case-study configuration.
    #[must_use]
    pub fn new() -> Self {
        CamTriangleCounter::default()
    }

    /// Accelerator with explicit geometry/costs (ablation studies).
    #[must_use]
    pub fn with_model(geometry: CamGeometry, costs: PipelineCosts) -> Self {
        CamTriangleCounter {
            geometry,
            costs,
            ..CamTriangleCounter::default()
        }
    }

    /// Run the driven unit with background scrubbing under `policy`:
    /// the hardware-model paths audit and repair shadow state as they
    /// go, exactly as a deployed unit would under SEU pressure. Scrub
    /// work is counter-neutral, so counts and cycle accounting are
    /// unchanged.
    #[must_use]
    pub fn with_scrub(mut self, policy: ScrubPolicy) -> Self {
        self.scrub = Some(policy);
        self
    }

    /// The CAM geometry in use.
    #[must_use]
    pub fn geometry(&self) -> &CamGeometry {
        &self.geometry
    }

    /// Count triangles on an undirected CSR graph, returning the exact
    /// count and the modelled execution profile.
    ///
    /// # Panics
    ///
    /// Panics if the CSR is not symmetric/sorted (debug assertions).
    #[must_use]
    pub fn run(&self, graph: &Csr) -> TcReport {
        debug_assert!(graph.is_sorted(), "CSR adjacency must be sorted");
        let mut cycles = self.costs.kernel_setup;
        let mut matches = 0u64;
        let mut edges = 0u64;
        let mut searches = 0u64;
        for u in 0..graph.num_vertices() as u32 {
            for &v in graph.neighbors(u) {
                // Each undirected edge processed once.
                if v <= u {
                    continue;
                }
                let adj_u = graph.neighbors(u);
                let adj_v = graph.neighbors(v);
                let (longer, shorter) = if adj_u.len() >= adj_v.len() {
                    (adj_u, adj_v)
                } else {
                    (adj_v, adj_u)
                };
                let probe = intersect::cam_probe(longer, shorter);
                matches += probe.count;
                searches += probe.steps;
                edges += 1;
                let compute = self.geometry.intersect_cycles(longer.len(), shorter.len());
                cycles += self.costs.edge_cycles(adj_u.len(), adj_v.len(), compute);
            }
        }
        TcReport {
            name: "CAM accelerator",
            triangles: matches / 3,
            cycles,
            ms: self.costs.to_ms(cycles),
            edges,
            intersection_steps: searches,
        }
    }

    /// Count triangles by driving the *full hardware simulation* — a real
    /// [`CamUnit`] whose every search ticks the underlying DSP48E2 models.
    /// Each edge's compute term is the unit's own
    /// [`issue_cycles`](CamUnit::issue_cycles) across its loads and
    /// probes, not [`CamGeometry::intersect_cycles`], so agreeing cycles
    /// check the analytical model. Orders of magnitude slower than
    /// [`CamTriangleCounter::run`]; use on small graphs to validate the
    /// fast path.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the unit construction (the
    /// default geometry never fails).
    pub fn run_on_hardware_model(&self, graph: &Csr) -> Result<TcReport, ConfigError> {
        self.run_on_hardware_model_with(graph, FidelityMode::BitAccurate)
    }

    /// [`CamTriangleCounter::run_on_hardware_model`] with an explicit
    /// execution tier. `FidelityMode::Turbo` drives the same [`CamUnit`]
    /// through its bit-sliced tier — identical counts and cycle
    /// accounting, at host speed — which makes larger graphs tractable.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the unit construction (the
    /// default geometry never fails).
    pub fn run_on_hardware_model_with(
        &self,
        graph: &Csr,
        fidelity: FidelityMode,
    ) -> Result<TcReport, ConfigError> {
        self.run_hw_model(graph, fidelity, &PhaseProbe::default())
    }

    /// [`CamTriangleCounter::run_on_hardware_model_with`] publishing
    /// probe-loop phase timings to `sink` as it runs: per-chunk
    /// `load_cycles` / `probe_cycles` issue-cycle histograms and
    /// `edges` / `chunks` / `keys_probed` / `matches` counters under the
    /// `"accel"` scope, plus the driven unit's full event stream and
    /// hierarchical counters under `"accel/unit"`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the unit construction (the
    /// default geometry never fails).
    #[cfg(feature = "obs")]
    pub fn run_on_hardware_model_observed(
        &self,
        graph: &Csr,
        fidelity: FidelityMode,
        sink: &Arc<ObsSink>,
    ) -> Result<TcReport, ConfigError> {
        self.run_hw_model(graph, fidelity, &PhaseProbe::attached(sink))
    }

    fn run_hw_model(
        &self,
        graph: &Csr,
        fidelity: FidelityMode,
        probe: &PhaseProbe,
    ) -> Result<TcReport, ConfigError> {
        let mut builder = UnitConfig::builder()
            .data_width(32)
            .block_size(self.geometry.block_size)
            .num_blocks(self.geometry.num_blocks)
            .bus_width(512)
            .encoding(Encoding::Priority)
            .fidelity(fidelity);
        if let Some(policy) = self.scrub {
            builder = builder.scrub(policy);
        }
        let config = builder.build()?;
        let mut unit = CamUnit::new(config)?;
        probe.attach_unit(&mut unit);
        let mut cycles = self.costs.kernel_setup;
        let mut matches = 0u64;
        let mut edges = 0u64;
        let mut searches = 0u64;
        for u in 0..graph.num_vertices() as u32 {
            for &v in graph.neighbors(u) {
                if v <= u {
                    continue;
                }
                let adj_u = graph.neighbors(u);
                let adj_v = graph.neighbors(v);
                let (longer, shorter) = if adj_u.len() >= adj_v.len() {
                    (adj_u, adj_v)
                } else {
                    (adj_v, adj_u)
                };
                let capacity = self.geometry.capacity();
                let mut remaining = longer;
                // The unit's issue cycles for loading and probing each
                // chunk; its reconfigure and reset overlap the load over
                // the control path (see `crate::model`).
                let mut compute = 0u64;
                while !remaining.is_empty() {
                    let take = remaining.len().min(capacity);
                    let (chunk, rest) = remaining.split_at(take);
                    remaining = rest;
                    let m = self.geometry.groups_for(chunk.len());
                    let load_start = unit.issue_cycles();
                    unit.configure_groups(m).expect("M divides the block count");
                    let words: Vec<u64> = chunk.iter().map(|&x| u64::from(x)).collect();
                    let update_start = unit.issue_cycles();
                    unit.update(&words).expect("chunk fits one group");
                    probe.phase("load_cycles", unit.issue_cycles() - load_start);
                    // One batched probe for the whole shorter list: the
                    // unit packs keys M per issue cycle internally and
                    // reuses its search scratch across the batch.
                    let keys: Vec<u64> = shorter.iter().map(|&x| u64::from(x)).collect();
                    let probe_start = unit.issue_cycles();
                    let mut chunk_matches = 0u64;
                    for hit in unit.search_stream(&keys) {
                        searches += 1;
                        if hit.is_match() {
                            chunk_matches += 1;
                        }
                    }
                    matches += chunk_matches;
                    probe.phase("probe_cycles", unit.issue_cycles() - probe_start);
                    compute += unit.issue_cycles() - update_start;
                    probe.count("chunks", 1);
                    probe.count("keys_probed", keys.len() as u64);
                    probe.count("matches", chunk_matches);
                    unit.reset();
                }
                edges += 1;
                probe.count("edges", 1);
                cycles += self.costs.edge_cycles(adj_u.len(), adj_v.len(), compute);
            }
        }
        probe.publish_unit(&unit);
        let name = match fidelity {
            FidelityMode::BitAccurate => "CAM accelerator (hardware model)",
            FidelityMode::Turbo => "CAM accelerator (hardware model, turbo tier)",
        };
        Ok(TcReport {
            name,
            triangles: matches / 3,
            cycles,
            ms: self.costs.to_ms(cycles),
            edges,
            intersection_steps: searches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cam_graph::builder::GraphBuilder;
    use dsp_cam_graph::triangle;

    fn graph(edges: &[(u32, u32)]) -> Csr {
        GraphBuilder::from_edges(edges.iter().copied()).build_undirected()
    }

    #[test]
    fn counts_single_triangle() {
        let g = graph(&[(0, 1), (1, 2), (0, 2)]);
        let report = CamTriangleCounter::new().run(&g);
        assert_eq!(report.triangles, 1);
        assert_eq!(report.edges, 3);
        assert!(report.cycles > 0);
        assert!(report.ms > 0.0);
    }

    #[test]
    fn matches_oracle_on_random_graph() {
        let edges = dsp_cam_graph::generate::erdos_renyi(60, 300, 9);
        let expect = triangle::count_edges(&edges);
        let report = CamTriangleCounter::new().run(&graph(&edges));
        assert_eq!(report.triangles, expect);
    }

    #[test]
    fn hardware_model_agrees_with_fast_path() {
        let edges = dsp_cam_graph::generate::erdos_renyi(24, 60, 4);
        let g = graph(&edges);
        let counter = CamTriangleCounter::new();
        let fast = counter.run(&g);
        let hw = counter.run_on_hardware_model(&g).unwrap();
        assert_eq!(fast.triangles, hw.triangles);
        assert_eq!(fast.cycles, hw.cycles);
        assert_eq!(fast.edges, hw.edges);
    }

    #[test]
    fn shadow_tier_hardware_models_agree_with_bit_accurate() {
        let edges = dsp_cam_graph::generate::erdos_renyi(24, 60, 4);
        let g = graph(&edges);
        let counter = CamTriangleCounter::new();
        let accurate = counter.run_on_hardware_model(&g).unwrap();
        let turbo = counter
            .run_on_hardware_model_with(&g, FidelityMode::Turbo)
            .unwrap();
        assert_eq!(accurate.triangles, turbo.triangles);
        assert_eq!(accurate.cycles, turbo.cycles);
        assert_eq!(accurate.intersection_steps, turbo.intersection_steps);
    }

    #[test]
    fn scrubbed_hardware_model_is_count_and_cycle_invariant() {
        // Background scrubbing (walker + sampled cross-check) on the
        // driven unit must not perturb triangle counts, modelled cycles
        // or intersection steps — scrub work is counter-neutral.
        let edges = dsp_cam_graph::generate::erdos_renyi(24, 60, 4);
        let g = graph(&edges);
        let plain = CamTriangleCounter::new()
            .run_on_hardware_model_with(&g, FidelityMode::Turbo)
            .unwrap();
        let scrubbed = CamTriangleCounter::new()
            .with_scrub(ScrubPolicy {
                cells_per_op: 4,
                crosscheck_interval: 8,
                restore_after: 2,
                strict: false,
            })
            .run_on_hardware_model_with(&g, FidelityMode::Turbo)
            .unwrap();
        assert_eq!(plain.triangles, scrubbed.triangles);
        assert_eq!(plain.cycles, scrubbed.cycles);
        assert_eq!(plain.intersection_steps, scrubbed.intersection_steps);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::new(vec![0], vec![]);
        let report = CamTriangleCounter::new().run(&g);
        assert_eq!(report.triangles, 0);
        assert_eq!(report.edges, 0);
        assert_eq!(report.cycles, PipelineCosts::default().kernel_setup);
    }

    #[test]
    fn long_list_chunks_through_small_unit() {
        // A tiny 2-block unit (capacity 8) against a hub of degree 20.
        let mut edges = Vec::new();
        for v in 1..=20u32 {
            edges.push((0, v));
        }
        edges.push((1, 2)); // one triangle through the hub
        let g = graph(&edges);
        let geometry = CamGeometry {
            block_size: 4,
            num_blocks: 2,
            words_per_beat: 16,
        };
        let counter = CamTriangleCounter::with_model(geometry, PipelineCosts::default());
        let fast = counter.run(&g);
        assert_eq!(fast.triangles, 1);
        let hw = counter.run_on_hardware_model(&g).unwrap();
        assert_eq!(hw.triangles, 1);
        // The hub's edges probe three chunks one key per cycle, so they
        // are compute bound and the unit's issue cycles decide the total.
        assert_eq!(fast.cycles, hw.cycles);
    }
}
