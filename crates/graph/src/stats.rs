//! Graph statistics, including the paper's Table 1 columns.
//!
//! Table 1 reports `|V|`, `|E|`, and `|V'|/|V|` — the fraction of
//! *high-degree* vertices, i.e. those whose degree reaches the
//! differentiated-propagation threshold (32; §6 "we search powers of two
//! with the best performance and use 32").

use crate::Graph;
use std::fmt;

/// Summary of a degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Number of vertices with degree zero.
    pub zeros: usize,
}

impl DegreeStats {
    fn from_degrees(degrees: impl Iterator<Item = usize>, n: usize) -> Self {
        let mut min = usize::MAX;
        let mut max = 0;
        let mut sum = 0usize;
        let mut zeros = 0;
        let mut count = 0usize;
        for d in degrees {
            min = min.min(d);
            max = max.max(d);
            sum += d;
            if d == 0 {
                zeros += 1;
            }
            count += 1;
        }
        debug_assert_eq!(count, n);
        if n == 0 {
            min = 0;
        }
        DegreeStats {
            min,
            max,
            mean: if n == 0 { 0.0 } else { sum as f64 / n as f64 },
            zeros,
        }
    }
}

/// Whole-graph statistics (Table 1 row plus degree summaries).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// In-degree summary.
    pub in_degrees: DegreeStats,
    /// Out-degree summary.
    pub out_degrees: DegreeStats,
    /// Number of high-degree vertices (in-degree ≥ threshold).
    pub high_degree_vertices: usize,
    /// The threshold used for `high_degree_vertices`.
    pub degree_threshold: usize,
}

impl GraphStats {
    /// Computes statistics with the paper's default threshold of 32.
    pub fn of(graph: &Graph) -> Self {
        Self::with_threshold(graph, 32)
    }

    /// Computes statistics with an explicit high-degree threshold.
    pub fn with_threshold(graph: &Graph, degree_threshold: usize) -> Self {
        let n = graph.num_vertices();
        let high = graph
            .vertices()
            .filter(|&v| graph.in_degree(v) >= degree_threshold)
            .count();
        GraphStats {
            num_vertices: n,
            num_edges: graph.num_edges(),
            in_degrees: DegreeStats::from_degrees(graph.vertices().map(|v| graph.in_degree(v)), n),
            out_degrees: DegreeStats::from_degrees(
                graph.vertices().map(|v| graph.out_degree(v)),
                n,
            ),
            high_degree_vertices: high,
            degree_threshold,
        }
    }

    /// Table 1's `|V'|/|V|`: fraction of high-degree vertices.
    pub fn high_degree_fraction(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.high_degree_vertices as f64 / self.num_vertices as f64
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "|V|={} |E|={} |V'|/|V|={:.2} (threshold {})",
            self.num_vertices,
            self.num_edges,
            self.high_degree_fraction(),
            self.degree_threshold
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star;

    #[test]
    fn star_stats() {
        let g = star(33); // hub in-degree 32, leaves in-degree 1
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 33);
        assert_eq!(s.high_degree_vertices, 1);
        assert!((s.high_degree_fraction() - 1.0 / 33.0).abs() < 1e-12);
        assert_eq!(s.in_degrees.max, 32);
        assert_eq!(s.in_degrees.min, 1);
        assert_eq!(s.in_degrees.zeros, 0);
    }

    #[test]
    fn threshold_is_respected() {
        let g = star(33);
        let s = GraphStats::with_threshold(&g, 33);
        assert_eq!(s.high_degree_vertices, 0);
        let s = GraphStats::with_threshold(&g, 1);
        assert_eq!(s.high_degree_vertices, 33);
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::GraphBuilder::new(0).build();
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.high_degree_fraction(), 0.0);
        assert_eq!(s.in_degrees.mean, 0.0);
    }

    #[test]
    fn display_mentions_fields() {
        let g = star(5);
        let s = GraphStats::of(&g).to_string();
        assert!(s.contains("|V|=5"));
    }
}
