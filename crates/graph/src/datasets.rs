//! Synthetic stand-ins for the paper's Table IX datasets.
//!
//! The evaluation graphs are SNAP traces that cannot be redistributed or
//! downloaded in this offline reproduction. Each [`Dataset`] records the
//! real trace's node/edge counts and the paper's published measurements,
//! and generates a synthetic graph from the matching degree-distribution
//! family. A `scale` divisor shrinks node and edge counts proportionally
//! so the biggest graphs stay tractable for cycle-level simulation; the
//! CAM-vs-merge comparison depends on the *adjacency-length distribution*,
//! which the family match preserves at any scale.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::generate;

/// Degree-distribution family of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DatasetFamily {
    /// Dense social network (facebook): high clustering, heavy tail.
    Social,
    /// Co-purchase network (amazon): moderate power law.
    CoPurchase,
    /// AS-level internet topology: extreme hub skew, tiny edge count.
    AsTopology,
    /// Patent citations: broad power law, low clustering.
    Citation,
    /// Dense collaboration network (HepPh): clique-heavy core.
    Collaboration,
    /// Road network: near-planar lattice, bounded degree.
    Road,
    /// Online social news (Slashdot): skewed power law.
    SocialNews,
}

/// One Table IX dataset: real-trace statistics, paper measurements, and a
/// synthetic generator.
///
/// # Examples
///
/// ```
/// use dsp_cam_graph::datasets::Dataset;
///
/// let fb = Dataset::by_name("facebook_combined").expect("Table IX row");
/// assert_eq!(fb.nodes, 4_039);
/// let edges = fb.generate(8); // 1/8-scale synthetic stand-in
/// assert!(!edges.is_empty());
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Dataset {
    /// SNAP trace name.
    pub name: &'static str,
    /// Vertices in the real trace.
    pub nodes: u32,
    /// Undirected edges in the real trace.
    pub edges: usize,
    /// Degree-distribution family.
    pub family: DatasetFamily,
    /// Triangle count the paper reports (of the real trace).
    pub paper_triangles: u64,
    /// Paper's CAM-accelerator execution time (ms).
    pub paper_ours_ms: f64,
    /// Paper's Vitis-baseline execution time (ms).
    pub paper_baseline_ms: f64,
    /// Default shrink divisor for [`Dataset::generate`].
    pub default_scale: u32,
}

impl Dataset {
    /// The ten Table IX rows.
    #[must_use]
    pub fn all() -> Vec<Dataset> {
        vec![
            Dataset {
                name: "facebook_combined",
                nodes: 4_039,
                edges: 88_234,
                family: DatasetFamily::Social,
                paper_triangles: 1_612_010,
                paper_ours_ms: 5.054,
                paper_baseline_ms: 18.7,
                default_scale: 1,
            },
            Dataset {
                name: "amazon0302",
                nodes: 262_111,
                edges: 1_234_877,
                family: DatasetFamily::CoPurchase,
                paper_triangles: 717_719,
                paper_ours_ms: 23.086,
                paper_baseline_ms: 89.5,
                default_scale: 8,
            },
            Dataset {
                name: "amazon0601",
                nodes: 403_394,
                edges: 3_387_388,
                family: DatasetFamily::CoPurchase,
                paper_triangles: 3_986_507,
                paper_ours_ms: 71.210,
                paper_baseline_ms: 230.3,
                default_scale: 16,
            },
            Dataset {
                name: "as20000102",
                nodes: 6_474,
                edges: 13_895,
                family: DatasetFamily::AsTopology,
                paper_triangles: 6_584,
                paper_ours_ms: 0.422,
                paper_baseline_ms: 7.4,
                default_scale: 1,
            },
            Dataset {
                name: "cit-Patents",
                nodes: 3_774_768,
                edges: 16_518_948,
                family: DatasetFamily::Citation,
                paper_triangles: 7_515_023,
                paper_ours_ms: 415.808,
                paper_baseline_ms: 800.0,
                default_scale: 64,
            },
            Dataset {
                name: "ca-cit-HepPh",
                nodes: 28_093,
                edges: 4_596_803,
                family: DatasetFamily::Collaboration,
                paper_triangles: 195_758_685,
                paper_ours_ms: 1_526.05,
                paper_baseline_ms: 5_361.1,
                default_scale: 16,
            },
            Dataset {
                name: "roadNet-CA",
                nodes: 1_965_206,
                edges: 2_766_607,
                family: DatasetFamily::Road,
                paper_triangles: 120_676,
                paper_ours_ms: 62.058,
                paper_baseline_ms: 108.8,
                default_scale: 32,
            },
            Dataset {
                name: "roadNet-PA",
                nodes: 1_088_092,
                edges: 1_541_898,
                family: DatasetFamily::Road,
                paper_triangles: 67_150,
                paper_ours_ms: 34.559,
                paper_baseline_ms: 88.7,
                default_scale: 16,
            },
            Dataset {
                name: "roadNet-TX",
                nodes: 1_379_917,
                edges: 1_921_660,
                family: DatasetFamily::Road,
                paper_triangles: 82_869,
                paper_ours_ms: 42.323,
                paper_baseline_ms: 96.8,
                default_scale: 16,
            },
            Dataset {
                name: "soc-Slashdot0811",
                nodes: 77_360,
                edges: 905_468,
                family: DatasetFamily::SocialNews,
                paper_triangles: 551_724,
                paper_ours_ms: 29.402,
                paper_baseline_ms: 259.7,
                default_scale: 8,
            },
        ]
    }

    /// Look a dataset up by its SNAP name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Dataset> {
        Dataset::all().into_iter().find(|d| d.name == name)
    }

    /// The paper's published speedup for this dataset.
    #[must_use]
    pub fn paper_speedup(&self) -> f64 {
        self.paper_baseline_ms / self.paper_ours_ms
    }

    /// Generate the synthetic stand-in at `1/scale` of the real trace.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero or leaves fewer than 16 vertices.
    #[must_use]
    pub fn generate(&self, scale: u32) -> Vec<(u32, u32)> {
        assert!(scale >= 1, "scale must be positive");
        let n = (self.nodes / scale).max(16);
        let m = (self.edges / scale as usize).max(32);
        let seed = 0xDAC5_2025u64 ^ (self.name.len() as u64) << 32 ^ u64::from(scale);
        let mut edges = match self.family {
            DatasetFamily::Social => {
                let k = (m / n as usize).clamp(2, n as usize / 2);
                generate::barabasi_albert(n, k, seed)
            }
            DatasetFamily::CoPurchase => {
                let scale_log = log2_ceil(n);
                generate::rmat(scale_log, m * 2, 0.45, 0.22, 0.22, seed)
            }
            DatasetFamily::AsTopology => {
                let hubs = (n / 400).max(6);
                generate::star_core(n, hubs, seed)
            }
            DatasetFamily::Citation => {
                // Real citation graphs are only mildly skewed (cit-Patents:
                // mean degree 8.8, max 793); a gentle R-MAT keeps adjacency
                // lists short so the merge baseline stays competitive, as
                // the paper's modest 1.92x row shows.
                let scale_log = log2_ceil(n);
                generate::rmat(scale_log, m * 2, 0.35, 0.25, 0.25, seed)
            }
            DatasetFamily::SocialNews => {
                let scale_log = log2_ceil(n);
                generate::rmat(scale_log, m * 2, 0.57, 0.19, 0.19, seed)
            }
            DatasetFamily::Collaboration => {
                let k = (m / n as usize).clamp(8, n as usize / 2);
                generate::barabasi_albert(n, k, seed)
            }
            DatasetFamily::Road => {
                let side = (n as f64).sqrt().ceil() as u32;
                generate::road_grid(side, side, 0.08, seed)
            }
        };
        // R-MAT draws ids from the next power of two; fold everything into
        // the target vertex range and drop any self-loop that folding made.
        for e in &mut edges {
            e.0 %= n;
            e.1 %= n;
        }
        edges.retain(|&(u, v)| u != v);
        // Trim or top up to land near the target edge count.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFFFF);
        edges.shuffle(&mut rng);
        if edges.len() > m {
            edges.truncate(m);
        } else {
            while edges.len() < m {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        edges
    }
}

fn log2_ceil(n: u32) -> u32 {
    32 - n.next_power_of_two().leading_zeros() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn all_ten_rows_present() {
        let all = Dataset::all();
        assert_eq!(all.len(), 10);
        assert!(Dataset::by_name("facebook_combined").is_some());
        assert!(Dataset::by_name("nonesuch").is_none());
    }

    #[test]
    fn paper_numbers_match_table_ix() {
        let fb = Dataset::by_name("facebook_combined").unwrap();
        assert_eq!(fb.paper_triangles, 1_612_010);
        assert!((fb.paper_speedup() - 3.70).abs() < 0.01);
        let as_g = Dataset::by_name("as20000102").unwrap();
        assert!((as_g.paper_speedup() - 17.54).abs() < 0.01);
        let avg: f64 = Dataset::all()
            .iter()
            .map(Dataset::paper_speedup)
            .sum::<f64>()
            / 10.0;
        assert!(
            (avg - 4.92).abs() < 0.15,
            "paper's average speedup, got {avg}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let d = Dataset::by_name("as20000102").unwrap();
        assert_eq!(d.generate(2), d.generate(2));
    }

    #[test]
    fn generated_size_tracks_target() {
        for d in Dataset::all() {
            let scale = d.default_scale.max(8); // keep the test fast
            let edges = d.generate(scale);
            let target = (d.edges / scale as usize).max(32);
            assert_eq!(edges.len(), target, "{}", d.name);
            let n_target = (d.nodes / scale).max(16);
            assert!(
                edges.iter().all(|&(u, v)| u < n_target && v < n_target),
                "{} vertex ids out of range",
                d.name
            );
        }
    }

    #[test]
    fn road_standins_are_flat_and_social_standins_are_skewed() {
        let road = Dataset::by_name("roadNet-PA").unwrap();
        let g = GraphBuilder::from_edges(road.generate(64)).build_undirected();
        assert!(g.max_degree() < 12, "road max degree {}", g.max_degree());

        let slash = Dataset::by_name("soc-Slashdot0811").unwrap();
        let g = GraphBuilder::from_edges(slash.generate(16)).build_undirected();
        assert!(
            g.max_degree() as f64 > 10.0 * g.mean_degree(),
            "slashdot stand-in should be skewed: max {} mean {}",
            g.max_degree(),
            g.mean_degree()
        );
    }

    #[test]
    fn as_topology_has_hub_structure() {
        let d = Dataset::by_name("as20000102").unwrap();
        let g = GraphBuilder::from_edges(d.generate(1)).build_undirected();
        assert!(g.max_degree() > 100, "hub degree {}", g.max_degree());
        assert!(g.mean_degree() < 8.0);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = Dataset::by_name("facebook_combined").unwrap().generate(0);
    }
}
