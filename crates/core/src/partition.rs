//! Chunk-based outgoing edge-cut partitioning (paper §2.2).
//!
//! Gemini assigns each machine a *contiguous* range of vertex ids (its
//! masters) together with all out-edges of those vertices, balancing a
//! mixed weight `α·|V_i| + |E_i|` across machines. We balance on
//! **in-degree** (plus `α` per vertex) because the pull engine's work is
//! proportional to the in-edges a machine's sources feed — under outgoing
//! edge-cut those are exactly the out-edges it owns, and the two sums agree
//! globally.
//!
//! Partition boundaries are rounded to multiples of 64 so that bitmap
//! slices exchanged during frontier synchronisation are word-aligned.

use symple_graph::{Graph, Vid};

/// A contiguous 1-D partition of the vertex ids into `p` ranges.
///
/// # Example
///
/// ```
/// use symple_core::Partition;
/// use symple_graph::{star, Vid};
/// let g = star(200);
/// let part = Partition::chunked(&g, 3, 8.0);
/// assert_eq!(part.num_parts(), 3);
/// let owner = part.owner(Vid::new(199));
/// let (lo, hi) = part.range(owner);
/// assert!(lo.raw() <= 199 && 199 < hi.raw());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `p + 1` boundaries; partition `i` owns `[starts[i], starts[i+1])`.
    starts: Vec<u32>,
}

impl Partition {
    /// Builds a partition balancing `alpha · vertices + in_edges` across
    /// `p` contiguous, word-aligned chunks.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn chunked(graph: &Graph, p: usize, alpha: f64) -> Self {
        assert!(p > 0, "need at least one partition");
        let n = graph.num_vertices();
        let total_weight: f64 = alpha * n as f64 + graph.num_edges() as f64;
        let target = total_weight / p as f64;
        let mut starts = Vec::with_capacity(p + 1);
        starts.push(0u32);
        let mut acc = 0.0;
        let mut v = 0usize;
        for _ in 0..p - 1 {
            let mut cut = v;
            while cut < n && acc < target * (starts.len() as f64) {
                acc += alpha + graph.in_degree(Vid::from_index(cut)) as f64;
                cut += 1;
            }
            // word-align the boundary (round up, capped at n)
            let aligned = cut.div_ceil(64) * 64;
            let aligned = aligned.min(n);
            // account for the extra vertices swallowed by alignment
            for extra in cut..aligned {
                acc += alpha + graph.in_degree(Vid::from_index(extra)) as f64;
            }
            v = aligned;
            starts.push(v as u32);
        }
        starts.push(n as u32);
        // boundaries must be monotone (alignment can only move right)
        debug_assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        Partition { starts }
    }

    /// Builds a partition from explicit boundaries (for tests).
    ///
    /// # Panics
    ///
    /// Panics if boundaries are not monotone, don't start at 0, or interior
    /// boundaries are not multiples of 64.
    pub fn from_starts(starts: Vec<u32>) -> Self {
        assert!(starts.len() >= 2, "need at least one partition");
        assert_eq!(starts[0], 0, "first boundary must be 0");
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "non-monotone");
        for &b in &starts[1..starts.len() - 1] {
            assert_eq!(b % 64, 0, "interior boundary {b} not word-aligned");
        }
        Partition { starts }
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of vertices.
    pub fn num_vertices(&self) -> usize {
        *self.starts.last().unwrap() as usize
    }

    /// The id range `[lo, hi)` of partition `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn range(&self, i: usize) -> (Vid, Vid) {
        (Vid::new(self.starts[i]), Vid::new(self.starts[i + 1]))
    }

    /// Number of vertices in partition `i`.
    pub fn len(&self, i: usize) -> usize {
        (self.starts[i + 1] - self.starts[i]) as usize
    }

    /// Returns `true` if partition `i` owns no vertices.
    pub fn is_empty(&self, i: usize) -> bool {
        self.len(i) == 0
    }

    /// The partition owning vertex `v` (its *master* machine).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the partitioned range.
    pub fn owner(&self, v: Vid) -> usize {
        assert!(
            v.raw() < *self.starts.last().unwrap(),
            "vertex {v} beyond partitioned range"
        );
        // starts is sorted; find the last boundary <= v
        match self.starts.binary_search(&v.raw()) {
            Ok(mut i) => {
                // boundary hit: empty partitions share boundaries; walk to
                // the partition that actually contains v
                while i + 1 < self.starts.len() && self.starts[i + 1] <= v.raw() {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        }
    }

    /// Iterates the vertex ids of partition `i`.
    pub fn vertices(&self, i: usize) -> impl Iterator<Item = Vid> {
        Vid::range(self.starts[i], self.starts[i + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_graph::{star, RmatConfig};

    #[test]
    fn covers_all_vertices_exactly_once() {
        let g = RmatConfig::graph500(9, 8).generate();
        for p in [1usize, 2, 3, 5, 8] {
            let part = Partition::chunked(&g, p, 8.0);
            assert_eq!(part.num_parts(), p);
            let total: usize = (0..p).map(|i| part.len(i)).sum();
            assert_eq!(total, g.num_vertices());
            for v in g.vertices() {
                let o = part.owner(v);
                let (lo, hi) = part.range(o);
                assert!(lo <= v && v < hi);
            }
        }
    }

    #[test]
    fn interior_boundaries_word_aligned() {
        let g = RmatConfig::graph500(9, 8).generate();
        let part = Partition::chunked(&g, 5, 8.0);
        for i in 1..5 {
            let (lo, _) = part.range(i);
            assert_eq!(lo.raw() % 64, 0);
        }
    }

    #[test]
    fn edge_balance_is_reasonable() {
        let g = RmatConfig::graph500(11, 16).generate();
        let p = 4;
        let part = Partition::chunked(&g, p, 8.0);
        let weights: Vec<f64> = (0..p)
            .map(|i| part.vertices(i).map(|v| 8.0 + g.in_degree(v) as f64).sum())
            .collect();
        let avg: f64 = weights.iter().sum::<f64>() / p as f64;
        for w in &weights {
            assert!(
                *w < 2.0 * avg + 64.0 * 8.0,
                "partition weight {w} far from average {avg}"
            );
        }
    }

    #[test]
    fn skewed_graph_gives_uneven_vertex_counts() {
        // A star graph concentrates in-degree on the hub, so the hub's
        // chunk should be small in vertex count.
        let g = star(1000);
        let part = Partition::chunked(&g, 2, 0.5);
        assert!(part.len(0) < part.len(1));
    }

    #[test]
    fn owner_with_empty_partitions() {
        // 3 partitions over 64 vertices: middle partition empty.
        let part = Partition::from_starts(vec![0, 64, 64, 100]);
        assert_eq!(part.owner(Vid::new(63)), 0);
        assert!(part.is_empty(1));
        assert_eq!(part.owner(Vid::new(64)), 2);
        assert_eq!(part.owner(Vid::new(99)), 2);
    }

    #[test]
    fn single_partition() {
        let g = star(10);
        let part = Partition::chunked(&g, 1, 8.0);
        assert_eq!(part.num_parts(), 1);
        assert_eq!(part.len(0), 10);
        assert_eq!(part.owner(Vid::new(9)), 0);
    }

    #[test]
    fn more_parts_than_vertices() {
        let g = star(10);
        let part = Partition::chunked(&g, 4, 8.0);
        let total: usize = (0..4).map(|i| part.len(i)).sum();
        assert_eq!(total, 10);
        for v in g.vertices() {
            let _ = part.owner(v); // must not panic
        }
    }

    #[test]
    #[should_panic(expected = "beyond partitioned range")]
    fn owner_out_of_range_panics() {
        let part = Partition::from_starts(vec![0, 10]);
        part.owner(Vid::new(10));
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn from_starts_validates_alignment() {
        Partition::from_starts(vec![0, 10, 20]);
    }
}
