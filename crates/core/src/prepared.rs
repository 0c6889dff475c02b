//! The partitioned graph, prepared once per graph and layout.
//!
//! A Gemini/SympleGraph process partitions its graph once and then runs
//! iterations. [`PreparedGraph`] is that one-time product — the
//! [`Partition`], the [`DepLayout`] and each machine's [`LocalGraph`] —
//! memoized on the [`Graph`] it was derived from (`Graph::derived`), so
//! every job on a loaded graph after the first finds it built, and it is
//! dropped with the graph. See DESIGN.md § "Prepared graph".

use crate::{DepLayout, EngineConfig, LocalGraph, Partition};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use symple_graph::Graph;

/// Layouts a graph keeps; the least recently used one is evicted beyond
/// this. Each costs 4·|E| + O(|V|·machines) bytes once its buckets are
/// built, so a sweep over machine counts must not pile them up.
const MAX_LAYOUTS: usize = 4;

/// Exactly what [`Partition::chunked`], [`DepLayout`] and
/// [`LocalGraph::build`] read of an [`EngineConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayoutKey {
    machines: usize,
    /// `partition_alpha`, by bit pattern: equal bits partition equally.
    alpha_bits: u64,
    /// `degree_threshold` under differentiated propagation; `None` for the
    /// full layout, which does not read it.
    threshold: Option<usize>,
}

impl LayoutKey {
    fn of(cfg: &EngineConfig) -> Self {
        LayoutKey {
            machines: cfg.machines,
            alpha_bits: cfg.partition_alpha.to_bits(),
            threshold: cfg.differentiated().then_some(cfg.degree_threshold),
        }
    }
}

/// A graph's memoized layouts, most recently used last.
#[derive(Default)]
struct Layouts(Mutex<Vec<(LayoutKey, Arc<PreparedGraph>)>>);

impl Layouts {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(LayoutKey, Arc<PreparedGraph>)>> {
        // Every update moves, drops or pushes a whole entry, so the list is
        // valid even if a build panicked while the lock was held.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One graph partitioned for one layout: the global [`Partition`] and
/// [`DepLayout`], and every machine's [`LocalGraph`], each built on first
/// use. Immutable and shared (`Arc`) by all machines of a job and by all
/// jobs on the graph whose configurations agree on the layout.
#[derive(Debug)]
pub struct PreparedGraph {
    part: Partition,
    layout: DepLayout,
    locals: Vec<OnceLock<Arc<LocalGraph>>>,
    /// Edge count of the graph this was derived from (misuse check).
    edges: usize,
}

impl PreparedGraph {
    /// The prepared form of `graph` for `cfg`'s layout, built on the first
    /// call and found on later ones.
    ///
    /// The layout is `(machines, partition_alpha, differentiated, and
    /// degree_threshold when differentiated)`; no other field of `cfg` is
    /// read, so configurations that differ only in threads, codec,
    /// exchange, backend, tracing or faults share one `PreparedGraph`.
    /// A graph keeps its 4 most recently used layouts; an evicted one
    /// lives on until the jobs still holding it finish.
    ///
    /// The partition and dependency layout (O(|V|)) are built here; the
    /// edge-copying buckets are built per rank by [`PreparedGraph::local`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.machines` is zero.
    pub fn of(graph: &Graph, cfg: &EngineConfig) -> Arc<Self> {
        let key = LayoutKey::of(cfg);
        let layouts = graph.derived(Layouts::default);
        // Held across a missing layout's O(|V|) build, so that concurrent
        // first callers end up sharing one layout (and one set of buckets).
        let mut held = layouts.lock();
        let entry = match held.iter().position(|(k, _)| *k == key) {
            Some(at) => held.remove(at),
            None => {
                let made = Arc::new(Self::build(graph, key));
                if held.len() == MAX_LAYOUTS {
                    held.remove(0);
                }
                (key, made)
            }
        };
        let prepared = Arc::clone(&entry.1);
        held.push(entry);
        prepared
    }

    fn build(graph: &Graph, key: LayoutKey) -> Self {
        let part = Partition::chunked(graph, key.machines, f64::from_bits(key.alpha_bits));
        let layout = match key.threshold {
            Some(threshold) => DepLayout::high_degree(graph, &part, threshold),
            None => DepLayout::full(&part),
        };
        PreparedGraph {
            part,
            layout,
            locals: (0..key.machines).map(|_| OnceLock::new()).collect(),
            edges: graph.num_edges(),
        }
    }

    /// How many layouts `graph` currently holds (at most 4).
    pub fn layouts_held(graph: &Graph) -> usize {
        graph.derived(Layouts::default).lock().len()
    }

    /// The global partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// The dependency-slot layout.
    pub fn dep_layout(&self) -> &DepLayout {
        &self.layout
    }

    /// Machine `rank`'s buckets, built by the first caller (other callers
    /// for the same rank wait for it; other ranks build concurrently).
    /// `graph` must be the graph this was obtained from.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below the machine count, or if `graph` has
    /// a different size than the graph this was obtained from.
    pub fn local(&self, graph: &Graph, rank: usize) -> Arc<LocalGraph> {
        assert!(
            graph.num_vertices() == self.part.num_vertices() && graph.num_edges() == self.edges,
            "PreparedGraph::local called with a graph it was not derived from"
        );
        let built = self.locals[rank]
            .get_or_init(|| Arc::new(LocalGraph::build(graph, &self.part, &self.layout, rank)));
        Arc::clone(built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Policy;
    use symple_graph::RmatConfig;

    #[test]
    fn key_reads_the_threshold_only_when_differentiated() {
        let symple = EngineConfig::new(3, Policy::symple());
        let key = LayoutKey::of(&symple);
        assert_eq!(key.threshold, Some(symple.degree_threshold));
        assert_ne!(key, LayoutKey::of(&symple.clone().degree_threshold(7)));
        let gemini = EngineConfig::new(3, Policy::Gemini);
        assert_eq!(LayoutKey::of(&gemini).threshold, None);
        assert_eq!(
            LayoutKey::of(&gemini),
            LayoutKey::of(&gemini.clone().degree_threshold(7))
        );
        let mut flat = gemini.clone();
        flat.partition_alpha = 1.0;
        assert_ne!(LayoutKey::of(&gemini), LayoutKey::of(&flat));
    }

    #[test]
    fn least_recently_used_layout_is_evicted() {
        let g = RmatConfig::graph500(7, 4).generate();
        let cfg = |machines| EngineConfig::new(machines, Policy::Gemini);
        let made: Vec<_> = (1..=MAX_LAYOUTS)
            .map(|machines| PreparedGraph::of(&g, &cfg(machines)))
            .collect();
        assert_eq!(PreparedGraph::layouts_held(&g), MAX_LAYOUTS);
        // touching layout 1 makes layout 2 the eviction victim
        assert!(Arc::ptr_eq(&made[0], &PreparedGraph::of(&g, &cfg(1))));
        PreparedGraph::of(&g, &cfg(MAX_LAYOUTS + 1));
        assert_eq!(PreparedGraph::layouts_held(&g), MAX_LAYOUTS);
        assert!(Arc::ptr_eq(&made[0], &PreparedGraph::of(&g, &cfg(1))));
        assert!(!Arc::ptr_eq(&made[1], &PreparedGraph::of(&g, &cfg(2))));
    }

    #[test]
    #[should_panic(expected = "not derived from")]
    fn local_rejects_another_graph() {
        let g = RmatConfig::graph500(6, 4).generate();
        let other = RmatConfig::graph500(7, 4).generate();
        let cfg = EngineConfig::new(2, Policy::Gemini);
        PreparedGraph::of(&g, &cfg).local(&other, 0);
    }
}
