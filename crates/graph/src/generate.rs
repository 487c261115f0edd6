//! Synthetic graph generators.
//!
//! Each generator targets one degree-distribution *family* so that
//! [`crate::datasets`] can build stand-ins for the paper's SNAP graphs:
//!
//! * [`erdos_renyi`] — uniform random (control case);
//! * [`rmat`] — recursive-matrix power law (citation / social networks);
//! * [`barabasi_albert`] — preferential attachment (collaboration
//!   networks, very dense cores);
//! * [`road_grid`] — 2-D lattice with sparse chords (road networks: tiny,
//!   uniform adjacency lists);
//! * [`star_core`] — a small dense core with large leaf fans (AS-level
//!   internet topology: extreme degree skew).
//!
//! All generators are deterministic in their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform random graph with `n` vertices and ~`m` distinct edges.
#[must_use]
pub fn erdos_renyi(n: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push((u, v));
        }
    }
    edges
}

/// R-MAT recursive-matrix generator (power-law degree distribution).
///
/// `scale` is log2 of the vertex count; `(a, b, c)` are the quadrant
/// probabilities (the fourth is the remainder). The classic skewed setting
/// is `(0.57, 0.19, 0.19)`.
#[must_use]
pub fn rmat(scale: u32, m: usize, a: f64, b: f64, c: f64, seed: u64) -> Vec<(u32, u32)> {
    assert!((1..=31).contains(&scale), "scale out of range");
    assert!(a + b + c < 1.0 + 1e-9, "quadrant probabilities exceed 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let mut u = 0u32;
        let mut v = 0u32;
        for bit in (0..scale).rev() {
            let r: f64 = rng.gen();
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u |= du << bit;
            v |= dv << bit;
        }
        if u != v {
            edges.push((u, v));
        }
    }
    edges
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `k` existing vertices with probability proportional to degree.
#[must_use]
pub fn barabasi_albert(n: u32, k: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(k >= 1, "attachment count must be positive");
    assert!(n as usize > k, "need more vertices than attachments");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n as usize * k);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportional to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(n as usize * k * 2);
    // Seed clique over the first k+1 vertices.
    for u in 0..=(k as u32) {
        for v in (u + 1)..=(k as u32) {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in (k as u32 + 1)..n {
        // BTreeSet keeps iteration deterministic (HashSet order would make
        // the generator seed-unstable).
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < k {
            let v = endpoints[rng.gen_range(0..endpoints.len())];
            if v != u {
                chosen.insert(v);
            }
        }
        for &v in &chosen {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    edges
}

/// A `rows × cols` 2-D lattice with each diagonal chord added with
/// probability `chord_prob` — the road-network family: bounded degree,
/// very few triangles (only where chords close them).
#[must_use]
pub fn road_grid(rows: u32, cols: u32, chord_prob: f64, seed: u64) -> Vec<(u32, u32)> {
    assert!(rows >= 2 && cols >= 2, "grid too small");
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |r: u32, c: u32| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
            if r + 1 < rows && c + 1 < cols && rng.gen::<f64>() < chord_prob {
                edges.push((id(r, c), id(r + 1, c + 1)));
            }
        }
    }
    edges
}

/// AS-style topology: `hubs` core vertices form a clique; every other
/// vertex attaches to 1–2 hubs. Degree distribution is extremely skewed
/// (the as20000102 stand-in).
#[must_use]
pub fn star_core(n: u32, hubs: u32, seed: u64) -> Vec<(u32, u32)> {
    assert!(hubs >= 1 && hubs < n, "hub count out of range");
    let mut rng = StdRng::seed_from_u64(seed);
    // Spread hub ids across the whole id space (real AS numbers are not
    // clustered at zero; leaving hubs at the front would let a merge
    // intersection exit after a handful of steps and flatten the very
    // skew this family exists to exercise).
    let hub_id = |h: u32| h * (n / hubs) + (n / hubs) / 2;
    let is_hub_slot = |v: u32| v >= (n / hubs) / 2 && (v - (n / hubs) / 2).is_multiple_of(n / hubs);
    let mut edges = Vec::new();
    for u in 0..hubs {
        for v in (u + 1)..hubs {
            edges.push((hub_id(u), hub_id(v)));
        }
    }
    for v in 0..n {
        if is_hub_slot(v) {
            continue;
        }
        let h1 = rng.gen_range(0..hubs);
        edges.push((v, hub_id(h1)));
        if rng.gen::<f64>() < 0.6 {
            let h2 = rng.gen_range(0..hubs);
            if h2 != h1 {
                edges.push((v, hub_id(h2)));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn erdos_renyi_shape() {
        let e = erdos_renyi(100, 500, 7);
        assert_eq!(e.len(), 500);
        assert!(e.iter().all(|&(u, v)| u != v && u < 100 && v < 100));
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(erdos_renyi(50, 100, 3), erdos_renyi(50, 100, 3));
        assert_eq!(
            rmat(8, 200, 0.57, 0.19, 0.19, 5),
            rmat(8, 200, 0.57, 0.19, 0.19, 5)
        );
        assert_eq!(barabasi_albert(50, 3, 2), barabasi_albert(50, 3, 2));
        assert_eq!(road_grid(5, 5, 0.1, 1), road_grid(5, 5, 0.1, 1));
        assert_eq!(star_core(100, 4, 9), star_core(100, 4, 9));
    }

    #[test]
    fn rmat_is_skewed() {
        let g = GraphBuilder::from_edges(rmat(10, 4000, 0.57, 0.19, 0.19, 11)).build_undirected();
        // Power-law: max degree far above the mean.
        assert!(g.max_degree() as f64 > 8.0 * g.mean_degree());
    }

    #[test]
    fn road_grid_is_flat() {
        let g = GraphBuilder::from_edges(road_grid(30, 30, 0.05, 4)).build_undirected();
        assert!(g.max_degree() <= 8, "max degree {}", g.max_degree());
        assert!(g.mean_degree() < 5.0);
    }

    #[test]
    fn star_core_is_extremely_skewed() {
        let g = GraphBuilder::from_edges(star_core(1000, 5, 3)).build_undirected();
        assert!(g.max_degree() > 150, "hub degree {}", g.max_degree());
        assert!(g.mean_degree() < 4.0);
    }

    #[test]
    fn barabasi_albert_edge_count() {
        let n = 200u32;
        let k = 4usize;
        let b = GraphBuilder::from_edges(barabasi_albert(n, k, 6));
        let canon = b.canonical_edges();
        // Seed clique C(k+1, 2) + k per later vertex.
        let expect = (k * (k + 1)) / 2 + (n as usize - k - 1) * k;
        assert_eq!(canon.len(), expect);
    }

    #[test]
    fn road_graph_has_few_triangles() {
        let edges = road_grid(20, 20, 0.0, 1);
        assert_eq!(crate::triangle::count_edges(&edges), 0, "pure grid");
        let edges = road_grid(20, 20, 0.3, 1);
        let t = crate::triangle::count_edges(&edges);
        assert!(t > 0, "chords close some triangles");
        assert!(t < 600);
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn tiny_grid_panics() {
        let _ = road_grid(1, 5, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "hub count")]
    fn bad_hub_count_panics() {
        let _ = star_core(10, 10, 0);
    }
}
