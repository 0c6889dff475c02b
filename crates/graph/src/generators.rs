//! Deterministic structured and random graph generators.
//!
//! Structured graphs (paths, cycles, stars, grids, complete graphs) are used
//! heavily by the test suites because their BFS distances, core numbers,
//! independent sets and so on are known in closed form. Erdős–Rényi and
//! Barabási–Albert generators provide non-R-MAT random graphs for shape
//! checks.

use crate::{Graph, GraphBuilder, Rng64, Vid};

/// Undirected path `0 – 1 – … – (n−1)` (each edge in both directions).
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(Vid::from_index(i - 1), Vid::from_index(i));
    }
    b.symmetrize(true).build()
}

/// Undirected cycle over `n` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(Vid::from_index(i), Vid::from_index((i + 1) % n));
    }
    b.symmetrize(true).dedup(true).build()
}

/// Undirected star: vertex 0 connected to vertices `1..n`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs at least 2 vertices");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(Vid::new(0), Vid::from_index(i));
    }
    b.symmetrize(true).build()
}

/// Undirected `rows × cols` grid; vertex `(r, c)` has id `r * cols + c`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = Vid::from_index(r * cols + c);
            if c + 1 < cols {
                b.add_edge(v, Vid::from_index(r * cols + c + 1));
            }
            if r + 1 < rows {
                b.add_edge(v, Vid::from_index((r + 1) * cols + c));
            }
        }
    }
    b.symmetrize(true).build()
}

/// Complete undirected graph on `n` vertices (no self-loops).
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(Vid::from_index(i), Vid::from_index(j));
        }
    }
    b.symmetrize(true).build()
}

/// Barabási–Albert preferential-attachment graph: starts from a small clique
/// and attaches each new vertex to `m` existing vertices chosen
/// proportionally to degree. Produces the heavy-tailed degree distribution
/// of social graphs. Undirected (symmetrized), deterministic per `seed`.
///
/// # Panics
///
/// Panics if `m == 0` or `n <= m`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m > 0, "attachment count must be positive");
    assert!(n > m, "need more vertices than the attachment count");
    let mut rng = Rng64::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<usize> = Vec::new();
    // Seed clique on vertices 0..=m.
    for i in 0..=m {
        for j in (i + 1)..=m {
            b.add_edge(Vid::from_index(i), Vid::from_index(j));
            endpoints.push(i);
            endpoints.push(j);
        }
    }
    for v in (m + 1)..n {
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let t = endpoints[rng.gen_index(endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.add_edge(Vid::from_index(v), Vid::from_index(t));
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.symmetrize(true).dedup(true).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 8); // 4 undirected edges
        assert_eq!(g.out_degree(Vid::new(0)), 1);
        assert_eq!(g.out_degree(Vid::new(2)), 2);
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(6);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 2);
            assert_eq!(g.in_degree(v), 2);
        }
    }

    #[test]
    fn star_degrees() {
        let g = star(10);
        assert_eq!(g.out_degree(Vid::new(0)), 9);
        for i in 1..10 {
            assert_eq!(g.out_degree(Vid::new(i)), 1);
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // interior vertex (1,1) = id 5 has 4 neighbors
        assert_eq!(g.out_degree(Vid::new(5)), 4);
        // corner has 2
        assert_eq!(g.out_degree(Vid::new(0)), 2);
    }

    #[test]
    fn complete_graph_degrees() {
        let g = complete(5);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 4);
        }
        assert_eq!(g.num_edges(), 20);
    }

    #[test]
    fn barabasi_albert_is_skewed_and_connected_enough() {
        let g = barabasi_albert(200, 3, 9);
        assert_eq!(g.num_vertices(), 200);
        for v in g.vertices() {
            assert!(g.out_degree(v) >= 1, "{v} isolated");
        }
        let max_deg = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(max_deg as f64 > 3.0 * avg);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_panics() {
        cycle(2);
    }
}
