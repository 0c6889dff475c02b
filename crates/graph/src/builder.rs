//! Incremental graph construction with the preprocessing options the
//! paper's methodology requires.
//!
//! §7.1: "To run undirected algorithms using directed graphs, we consider
//! every directed edge as its undirected counterpart. To run directed
//! algorithms using undirected graphs, we convert the undirected datasets to
//! directed graphs by adding reverse edges." Both correspond to
//! [`GraphBuilder::symmetrize`].

use crate::{Graph, GraphError, Result, Vid};

/// Accumulates edges and produces a [`Graph`] after optional cleanup.
///
/// # Example
///
/// ```
/// use symple_graph::{GraphBuilder, Vid};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(Vid::new(0), Vid::new(1));
/// b.add_edge(Vid::new(0), Vid::new(1)); // duplicate
/// b.add_edge(Vid::new(1), Vid::new(1)); // self-loop
/// let g = b.dedup(true).drop_self_loops(true).symmetrize(true).build();
/// assert_eq!(g.num_edges(), 2); // 0->1 and 1->0
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(Vid, Vid)>,
    dedup: bool,
    drop_self_loops: bool,
    symmetrize: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            dedup: false,
            drop_self_loops: false,
            symmetrize: false,
        }
    }

    /// Adds a directed edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of bounds; use
    /// [`GraphBuilder::try_add_edge`] for a fallible variant.
    pub fn add_edge(&mut self, src: Vid, dst: Vid) -> &mut Self {
        self.try_add_edge(src, dst)
            .expect("edge endpoint out of bounds");
        self
    }

    /// Adds a directed edge, reporting out-of-bounds endpoints as an error.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if an endpoint is
    /// `>= num_vertices`.
    pub fn try_add_edge(&mut self, src: Vid, dst: Vid) -> Result<&mut Self> {
        for v in [src, dst] {
            if v.index() >= self.num_vertices {
                return Err(GraphError::VertexOutOfBounds {
                    vid: v.raw(),
                    num_vertices: self.num_vertices as u32,
                });
            }
        }
        self.edges.push((src, dst));
        Ok(self)
    }

    /// Adds many edges at once.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of bounds.
    pub fn extend_edges<I: IntoIterator<Item = (Vid, Vid)>>(&mut self, iter: I) -> &mut Self {
        for (s, d) in iter {
            self.add_edge(s, d);
        }
        self
    }

    /// If `true`, duplicate edges are removed at build time.
    pub fn dedup(&mut self, yes: bool) -> &mut Self {
        self.dedup = yes;
        self
    }

    /// If `true`, self-loops are removed at build time.
    pub fn drop_self_loops(&mut self, yes: bool) -> &mut Self {
        self.drop_self_loops = yes;
        self
    }

    /// If `true`, every edge `(u, v)` also produces `(v, u)` at build time
    /// (the paper's directed↔undirected conversion).
    pub fn symmetrize(&mut self, yes: bool) -> &mut Self {
        self.symmetrize = yes;
        self
    }

    /// Finalizes the graph.
    pub fn build(&self) -> Graph {
        let mut edges = self.edges.clone();
        if self.symmetrize {
            let rev: Vec<(Vid, Vid)> = edges.iter().map(|&(s, d)| (d, s)).collect();
            edges.extend(rev);
        }
        if self.drop_self_loops {
            edges.retain(|&(s, d)| s != d);
        }
        if self.dedup {
            edges.sort_unstable();
            edges.dedup();
        }
        Graph::from_edges(self.num_vertices, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Vid {
        Vid::new(i)
    }

    #[test]
    fn plain_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(v(0), v(1)).add_edge(v(1), v(2));
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(v(0), v(1)).add_edge(v(0), v(1));
        assert_eq!(b.dedup(true).build().num_edges(), 1);
        assert_eq!(b.dedup(false).build().num_edges(), 2);
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(v(1), v(1)).add_edge(v(0), v(1));
        assert_eq!(b.drop_self_loops(true).build().num_edges(), 1);
    }

    #[test]
    fn symmetrize_adds_reverse() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(v(0), v(1));
        let g = b.symmetrize(true).build();
        assert_eq!(g.out_neighbors(v(1)), &[v(0)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn symmetrize_dedup_idempotent_on_bidirectional_input() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(v(0), v(1)).add_edge(v(1), v(0));
        let g = b.symmetrize(true).dedup(true).build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn try_add_edge_rejects_out_of_bounds() {
        let mut b = GraphBuilder::new(2);
        let err = b.try_add_edge(v(0), v(5)).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfBounds { vid: 5, .. }));
        assert_eq!(b.build().num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_panics_out_of_bounds() {
        GraphBuilder::new(1).add_edge(v(0), v(1));
    }
}
