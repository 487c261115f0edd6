//! `triangle_count`: a closed loop running the paper's case study,
//! `CamTriangleCounter::run_on_hardware_model_with(Turbo)`, on a seeded
//! stand-in of Table IX's hub-skewed `as20000102` graph. Per edge the
//! accelerator reconfigures, bulk-loads and resets the unit, which no
//! key-value workload does.

use std::time::Instant;

use dsp_cam_core::prelude::FidelityMode;
use dsp_cam_graph::builder::GraphBuilder;
use dsp_cam_graph::csr::Csr;
use dsp_cam_graph::datasets::Dataset;
use dsp_cam_graph::generate::star_core;
use dsp_cam_workload::SplitMix64;
use tc_accel::{CamTriangleCounter, MergeTriangleCounter, TcReport};

use crate::report::Report;
use crate::spans::Spans;
use crate::{modelled_ns_note, throughput, Ctx, SetupParts};

/// Size divisor of the stand-in graph. Host time per edge is set by the
/// per-edge reconfigure, load and reset, not by the graph size, so a
/// smaller stand-in keeps the cost profile and fits more episodes in a
/// run (the full-size graph takes ~14 s per episode). Modelled cycles do
/// not scale that way: the fixed kernel set-up weighs more on fewer
/// edges, so `sim_cycles_per_op` is higher than at full size.
const SCALE: u32 = 16;

/// The `as20000102` family at `1/SCALE` of the real trace (the
/// repository's stand-in recipe, `Dataset::generate`), drawn from
/// `seed`: a hub clique with every other vertex on one or two hubs,
/// topped up with uniform edges to the scaled edge count.
fn as_topology(seed: u64) -> Csr {
    let dataset = Dataset::by_name("as20000102").expect("Table IX row");
    let n = dataset.nodes / SCALE;
    let mut edges = star_core(n, (n / 400).max(6), seed);
    let mut rng = SplitMix64::new(seed);
    while edges.len() < dataset.edges / SCALE as usize {
        let u = rng.below(u64::from(n)) as u32;
        let v = rng.below(u64::from(n)) as u32;
        if u != v {
            edges.push((u, v));
        }
    }
    GraphBuilder::from_edges(edges).build_undirected()
}

/// FNV-1a over every arc: pins the generated graph across runs.
fn digest(graph: &Csr) -> u64 {
    graph.arcs().fold(0xCBF2_9CE4_8422_2325, |hash, (u, v)| {
        let arc = u64::from(u) << 32 | u64::from(v);
        arc.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    })
}

fn agrees(hw: &TcReport, analytical: &TcReport, merge: &TcReport) -> bool {
    hw.triangles == analytical.triangles
        && hw.triangles == merge.triangles
        && hw.cycles == analytical.cycles
        && hw.edges == analytical.edges
        && hw.edges == merge.edges
        && hw.intersection_steps == analytical.intersection_steps
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let seed = ctx.seed;
    let mut setup_fn = |spans: &mut Spans| {
        let (graph, ns) = spans.call("graph.build", None, || as_topology(seed));
        let parts: SetupParts = vec![("graph.build_s", ns as f64 / 1e9)];
        (graph, parts)
    };
    let graph = ctx.first_set_up(&mut setup_fn);
    report.count("graph.arcs", graph.num_arcs() as u64);
    report.pin("graph.digest", format!("{:#018x}", digest(&graph)));

    let counter = CamTriangleCounter::new();
    let start = Instant::now();
    let analytical = counter.run(&graph);
    let merge = MergeTriangleCounter::new().run(&graph);
    report.set("tc.reference_s", start.elapsed().as_secs_f64());

    let mut runs: Vec<TcReport> = Vec::new();
    let samples = ctx.run_window(&mut setup_fn, |spans| {
        let start = Instant::now();
        let (hw, _) = spans.call("tc.hw_model", None, || {
            counter.run_on_hardware_model_with(&graph, FidelityMode::Turbo)
        });
        let secs = start.elapsed().as_secs_f64();
        let hw = hw.expect("the case-study geometry is valid");
        let edges = hw.edges;
        runs.push(hw);
        vec![(edges, secs)]
    });

    let edges = analytical.edges;
    report.attempted = runs.len() as u64 * edges;
    if !runs.iter().all(|hw| agrees(hw, &analytical, &merge)) {
        report.fail(
            report.attempted,
            format!(
                "engines disagree: hardware model {:?}, analytical {analytical:?}, merge {merge:?}",
                runs.iter()
                    .map(|r| (r.triangles, r.cycles))
                    .collect::<Vec<_>>()
            ),
        );
    }

    throughput(&mut report, &samples);
    let cycles_per_op = analytical.cycles as f64 / edges as f64;
    report.set("sim_cycles_per_op", cycles_per_op);
    report.pin("sim_cycles_per_op", cycles_per_op);
    report.count("tc.edges", edges);
    report.count("tc.probe_keys", analytical.intersection_steps);
    report.count("tc.triangles", analytical.triangles);
    report.pin("tc.cycles", analytical.cycles);
    if ctx.traced {
        report.set("tc.hw_model_s", ctx.busy_s("tc.hw_model"));
    }
    let geometry = counter.geometry();
    modelled_ns_note(
        &mut report,
        (geometry.block_size * geometry.num_blocks) as u64,
        cycles_per_op,
    );
    report
}
