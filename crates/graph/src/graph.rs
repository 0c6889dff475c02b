//! The directed graph type used throughout the reproduction.

use crate::{Csr, Vid};
use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The graph's slot for immutable structures derived from it (see
/// [`Graph::derived`]): at most one entry per type.
#[derive(Default)]
struct Derived(Mutex<Vec<Arc<dyn Any + Send + Sync>>>);

impl Clone for Derived {
    /// A cloned graph starts with an empty slot: what it derives, it owns.
    fn clone(&self) -> Self {
        Derived::default()
    }
}

/// A directed graph with both forward (out-edge) and reverse (in-edge)
/// adjacency.
///
/// The engines need both directions: push (sparse) mode traverses out-edges
/// of frontier vertices; pull (dense) mode — where loop-carried dependency
/// matters — traverses in-edges of candidate vertices. Construct via
/// [`crate::GraphBuilder`] or a generator.
///
/// A graph is immutable once built (there is no `&mut` API), which is what
/// lets layers above memoize structures derived from it on the graph
/// itself ([`Graph::derived`]); they are dropped with the graph, and a
/// [`Clone`] or [`Graph::transpose`] starts without any.
#[derive(Clone)]
pub struct Graph {
    out: Csr,
    incoming: Csr,
    derived: Derived,
}

impl Graph {
    /// Assembles a graph from `(src, dst)` pairs.
    ///
    /// This is a low-level constructor that keeps duplicates and self-loops
    /// exactly as given; prefer [`crate::GraphBuilder`] which can
    /// deduplicate, drop self-loops, and symmetrize.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(Vid, Vid)]) -> Self {
        let out = Csr::from_edges(num_vertices, edges);
        let reversed: Vec<(Vid, Vid)> = edges.iter().map(|&(s, d)| (d, s)).collect();
        let incoming = Csr::from_edges(num_vertices, &reversed);
        Graph {
            out,
            incoming,
            derived: Derived::default(),
        }
    }

    /// The graph's one `T`, made by `init` on the first call and shared by
    /// every later one — a place for a layer above to memoize an immutable
    /// structure it derives from the graph (a partitioned layout, an
    /// index) for exactly as long as the graph lives, without a global
    /// registry keyed by something that outlives it.
    ///
    /// `init` runs under the slot's lock, so it should only make an empty
    /// container that is filled afterwards, and must not call `derived`
    /// itself.
    pub fn derived<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> Arc<T> {
        // The only update is pushing a whole entry, so the list is valid
        // even if an `init` panicked while the lock was held.
        let mut entries = self
            .derived
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(found) = entries.iter().find_map(|e| Arc::clone(e).downcast().ok()) {
            return found;
        }
        let made = Arc::new(init());
        entries.push(Arc::clone(&made) as Arc<dyn Any + Send + Sync>);
        made
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Sorted out-neighbors of `v` (targets of edges leaving `v`).
    #[inline]
    pub fn out_neighbors(&self, v: Vid) -> &[Vid] {
        self.out.neighbors(v)
    }

    /// Sorted in-neighbors of `v` (sources of edges entering `v`).
    #[inline]
    pub fn in_neighbors(&self, v: Vid) -> &[Vid] {
        self.incoming.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: Vid) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: Vid) -> usize {
        self.incoming.degree(v)
    }

    /// Iterates all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = Vid> + '_ {
        Vid::range(0, self.num_vertices() as u32)
    }

    /// Iterates `(src, dst)` over all directed edges.
    pub fn edges(&self) -> impl Iterator<Item = (Vid, Vid)> + '_ {
        self.out.iter_edges()
    }

    /// In-neighbors of `v` restricted to ids in `[lo, hi)` — the slice of
    /// `v`'s in-edges owned by one partition under outgoing edge-cut.
    pub fn in_neighbors_in_range(&self, v: Vid, lo: Vid, hi: Vid) -> &[Vid] {
        self.incoming.neighbors_in_range(v, lo, hi)
    }

    /// The transpose graph (every edge reversed). Since a [`Graph`]
    /// already stores both directions, this just swaps the two CSRs —
    /// useful for backward traversals (e.g. the backward reachability
    /// phase of SCC detection). The transpose is a different graph, so it
    /// starts with nothing [derived](Graph::derived).
    pub fn transpose(&self) -> Graph {
        Graph {
            out: self.incoming.clone(),
            incoming: self.out.clone(),
            derived: Derived::default(),
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(vertices={}, edges={})",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Vid {
        Vid::new(i)
    }

    #[test]
    fn directions_are_consistent() {
        let g = Graph::from_edges(4, &[(v(0), v(1)), (v(2), v(1)), (v(1), v(3))]);
        assert_eq!(g.out_neighbors(v(0)), &[v(1)]);
        assert_eq!(g.in_neighbors(v(1)), &[v(0), v(2)]);
        assert_eq!(g.out_degree(v(1)), 1);
        assert_eq!(g.in_degree(v(3)), 1);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn every_out_edge_has_an_in_edge() {
        let edges = [(v(0), v(1)), (v(1), v(2)), (v(2), v(0)), (v(0), v(2))];
        let g = Graph::from_edges(3, &edges);
        for (s, d) in g.edges() {
            assert!(g.in_neighbors(d).contains(&s));
        }
        let total_in: usize = g.vertices().map(|u| g.in_degree(u)).sum();
        assert_eq!(total_in, g.num_edges());
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = Graph::from_edges(4, &[(v(0), v(1)), (v(2), v(1)), (v(1), v(3))]);
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for (s, d) in g.edges() {
            assert!(t.out_neighbors(d).contains(&s));
        }
        // double transpose is identity on adjacency
        let tt = t.transpose();
        for u in g.vertices() {
            assert_eq!(tt.out_neighbors(u), g.out_neighbors(u));
        }
    }

    #[test]
    fn derived_is_per_type_per_graph_and_not_inherited() {
        let g = Graph::from_edges(3, &[(v(0), v(1))]);
        let a = g.derived(|| 7u32);
        let b = g.derived(|| -> u32 { unreachable!("already made") });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*g.derived(|| "other type"), "other type");
        assert_eq!(*a, 7);
        // neither a clone nor the transpose inherits the slot
        assert_eq!(*g.clone().derived(|| 8u32), 8);
        assert_eq!(*g.transpose().derived(|| 9u32), 9);
        assert_eq!(*g.derived(|| 0u32), 7);
    }

    #[test]
    fn vertices_iterator() {
        let g = Graph::from_edges(3, &[]);
        assert_eq!(g.vertices().count(), 3);
    }
}
