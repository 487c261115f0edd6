//! Case-study integration: both triangle-counting engines agree with the
//! software oracle on every dataset family, the hardware-level simulation
//! validates the fast model, and the Table IX shape holds.

use dsp_cam::cam::config::FidelityMode;
use dsp_cam::graph::builder::GraphBuilder;
use dsp_cam::graph::datasets::Dataset;
use dsp_cam::graph::{generate, triangle};
use dsp_cam::tc::perf::compare_dataset;
use dsp_cam::tc::{CamGeometry, CamTriangleCounter, MergeTriangleCounter, PipelineCosts};

fn check_engines_match_oracle(edges: &[(u32, u32)]) {
    let graph = GraphBuilder::from_edges(edges.iter().copied()).build_undirected();
    let oriented = GraphBuilder::from_edges(edges.iter().copied()).build_oriented();
    let oracle = triangle::count_oriented_merge(&oriented);
    let cam = CamTriangleCounter::new().run(&graph);
    let merge = MergeTriangleCounter::new().run(&graph);
    assert_eq!(cam.triangles, oracle, "CAM engine");
    assert_eq!(merge.triangles, oracle, "merge engine");
}

#[test]
fn engines_match_oracle_on_every_family() {
    check_engines_match_oracle(&generate::erdos_renyi(120, 600, 1));
    check_engines_match_oracle(&generate::rmat(8, 800, 0.57, 0.19, 0.19, 2));
    check_engines_match_oracle(&generate::barabasi_albert(100, 6, 3));
    check_engines_match_oracle(&generate::road_grid(15, 15, 0.1, 4));
    check_engines_match_oracle(&generate::star_core(300, 5, 5));
}

#[test]
fn engines_match_oracle_on_scaled_datasets() {
    for d in Dataset::all() {
        // Aggressive extra scaling keeps the test quick.
        let scale = d.default_scale.saturating_mul(16).max(16);
        let edges = d.generate(scale);
        check_engines_match_oracle(&edges);
    }
}

#[test]
fn hardware_simulation_validates_the_cycle_model() {
    let edges = generate::star_core(120, 4, 7);
    let graph = GraphBuilder::from_edges(edges).build_undirected();
    let counter = CamTriangleCounter::new();
    let fast = counter.run(&graph);
    let hw = counter.run_on_hardware_model(&graph).unwrap();
    assert_eq!(fast.triangles, hw.triangles);
    assert_eq!(fast.cycles, hw.cycles);
    assert_eq!(fast.intersection_steps, hw.intersection_steps);
    // At the case-study geometry every edge of this graph is memory
    // bound, which hides its compute term. A 16-entry unit chunks the
    // hubs' lists and probes them one group at a time, so most edges are
    // compute bound and the unit's issue cycles decide the total.
    let small = CamGeometry {
        block_size: 4,
        num_blocks: 4,
        words_per_beat: 16,
    };
    let counter = CamTriangleCounter::with_model(small, PipelineCosts::default());
    let fast = counter.run(&graph);
    let hw = counter
        .run_on_hardware_model_with(&graph, FidelityMode::Turbo)
        .unwrap();
    assert_eq!(fast.triangles, hw.triangles);
    assert_eq!(fast.cycles, hw.cycles);
}

#[test]
fn table_ix_shape_holds_at_test_scale() {
    // Smaller-than-default scales to keep the suite fast; the ordering
    // claims are scale-invariant.
    let as_row = compare_dataset(&Dataset::by_name("as20000102").unwrap(), 2);
    let road_row = compare_dataset(&Dataset::by_name("roadNet-TX").unwrap(), 64);
    let slash_row = compare_dataset(&Dataset::by_name("soc-Slashdot0811").unwrap(), 32);

    // The CAM engine wins everywhere.
    for row in [&as_row, &road_row, &slash_row] {
        assert!(row.speedup > 1.0, "{}: {:.2}x", row.dataset, row.speedup);
    }
    // Hub-skewed graphs gain far more than road networks.
    assert!(as_row.speedup > 2.0 * road_row.speedup);
    assert!(slash_row.speedup > road_row.speedup);
}

#[test]
fn reports_are_internally_consistent() {
    let edges = generate::erdos_renyi(80, 400, 11);
    let graph = GraphBuilder::from_edges(edges).build_undirected();
    let report = CamTriangleCounter::new().run(&graph);
    assert_eq!(report.edges, graph.num_arcs() as u64 / 2);
    assert!(report.ms > 0.0);
    assert!(
        (report.ms - report.cycles as f64 / 300_000.0).abs() < 1e-9,
        "ms must equal cycles at 300 MHz"
    );
}
