//! Dataset registry: scaled-down stand-ins for the paper's Table 1.
//!
//! The real datasets (Twitter-2010, Friendster, Clueweb-12, Gsh-2015) are
//! tens to thousands of gigabytes; this container has 15 GB and one core.
//! Each stand-in is an R-MAT graph (Graph500 parameters, like the paper's
//! own `s27`–`s29`) whose **edge factor** matches the original, so degree
//! skew — the property the mechanism depends on — is preserved. The
//! synthetic trio keeps the paper's signature relationship: same edge
//! count, halving edge factor (`2^15·32 = 2^16·16 = 2^17·8`).
//!
//! All graphs are symmetrized and deduplicated ("cleaned"), matching the
//! paper's §7.1 directed↔undirected conversion.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use symple_graph::{load_snap_cached, Graph, RmatConfig, SnapOptions};

/// A named dataset in the registry.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    /// Abbreviation used in the paper's tables (`tw`, `fr`, `s27`, …).
    pub name: &'static str,
    /// What it stands in for.
    pub stands_for: &'static str,
    /// R-MAT scale (log2 vertices). Zero for SNAP-backed entries.
    pub scale: u32,
    /// Edge factor before cleaning. Zero for SNAP-backed entries.
    pub edge_factor: u32,
    /// Generator seed.
    pub seed: u64,
    /// Edge count of the dataset this stands in for (fixed-cost scaling).
    pub paper_edges: u64,
    /// SNAP edge-list file to load instead of generating an R-MAT graph
    /// (path anchored at the workspace root so it resolves from any cwd).
    pub snap: Option<&'static str>,
}

impl Dataset {
    /// The fixed-cost scale factor for this stand-in: `our |E| / paper
    /// |E|` (see [`symple_net::CostModel::scale_fixed_costs`]).
    pub fn latency_scale(&self) -> f64 {
        let ours = crate::dataset(self.name).num_edges() as f64;
        ours / self.paper_edges as f64
    }
}

/// Looks up a dataset spec by name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn spec(name: &str) -> &'static Dataset {
    DATASETS
        .iter()
        .chain([&RMAT8])
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unknown dataset `{name}`"))
}

/// The small R-MAT graph the `udf` report runs on. It stands in for none
/// of the paper's datasets, so Table 1 ([`DATASETS`]) does not list it and,
/// like `karate`, it runs at native cost (`paper_edges` is its own edge
/// count); it resolves by name like the others.
const RMAT8: Dataset = Dataset {
    name: "rmat8",
    stands_for: "R-MAT scale 8, ef 8 (UDF carried-state study)",
    scale: 8,
    edge_factor: 8,
    seed: 1,
    paper_edges: 2550,
    snap: None,
};

/// The `karate` SNAP source, anchored at the workspace root so the
/// registry resolves it from any working directory (tests run from the
/// crate dir, `ci.sh` from the repo root).
const KARATE_SNAP: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/karate.txt");

/// The registry (paper Table 1, scaled, plus one real SNAP dataset).
pub const DATASETS: [Dataset; 8] = [
    Dataset {
        name: "tw",
        stands_for: "Twitter-2010 (42M v, 1.5B e, ef ~36)",
        scale: 15,
        edge_factor: 36,
        seed: 0x7171,
        paper_edges: 1_500_000_000,
        snap: None,
    },
    Dataset {
        name: "fr",
        stands_for: "Friendster (66M v, 1.8B e, ef ~28)",
        scale: 15,
        edge_factor: 28,
        seed: 0xF12,
        paper_edges: 1_800_000_000,
        snap: None,
    },
    Dataset {
        name: "s27",
        stands_for: "R-MAT scale 27, ef 32",
        scale: 15,
        edge_factor: 32,
        seed: 27,
        paper_edges: 4_300_000_000,
        snap: None,
    },
    Dataset {
        name: "s28",
        stands_for: "R-MAT scale 28, ef 16",
        scale: 16,
        edge_factor: 16,
        seed: 28,
        paper_edges: 4_300_000_000,
        snap: None,
    },
    Dataset {
        name: "s29",
        stands_for: "R-MAT scale 29, ef 8",
        scale: 17,
        edge_factor: 8,
        seed: 29,
        paper_edges: 4_300_000_000,
        snap: None,
    },
    Dataset {
        name: "cl",
        stands_for: "Clueweb-12 (978M v, 43B e, ef ~44)",
        scale: 16,
        edge_factor: 44,
        seed: 0xC1,
        paper_edges: 43_000_000_000,
        snap: None,
    },
    Dataset {
        name: "gsh",
        stands_for: "Gsh-2015 (988M v, 34B e, ef ~34)",
        scale: 16,
        edge_factor: 34,
        seed: 0x654,
        paper_edges: 34_000_000_000,
        snap: None,
    },
    Dataset {
        name: "karate",
        stands_for: "Zachary karate club (34 v, 78 e, SNAP edge list)",
        scale: 0,
        edge_factor: 0,
        seed: 0,
        // 78 undirected edges = 156 directed after the §7.1 symmetrize,
        // so the real dataset runs at its native cost (scale 1.0).
        paper_edges: 156,
        snap: Some(KARATE_SNAP),
    },
];

fn registry() -> &'static Mutex<HashMap<&'static str, &'static Graph>> {
    static CACHE: OnceLock<Mutex<HashMap<&'static str, &'static Graph>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the (cached, process-wide) graph for a registry name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn dataset(name: &str) -> &'static Graph {
    let spec = spec(name);
    let mut cache = registry().lock().expect("registry poisoned");
    if let Some(g) = cache.get(spec.name) {
        return g;
    }
    let graph = match spec.snap {
        Some(path) => load_snap_cached(path, SnapOptions::default())
            .unwrap_or_else(|e| panic!("loading SNAP dataset `{}` from {path}: {e}", spec.name)),
        None => RmatConfig::graph500(spec.scale, spec.edge_factor)
            .seed(spec.seed)
            .cleaned(true)
            .generate(),
    };
    let leaked: &'static Graph = Box::leak(Box::new(graph));
    cache.insert(spec.name, leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_papers() {
        assert_eq!(
            DATASETS.iter().map(|d| d.name).collect::<Vec<_>>(),
            ["tw", "fr", "s27", "s28", "s29", "cl", "gsh", "karate"]
        );
    }

    #[test]
    fn karate_loads_from_snap_cleaned() {
        let g = dataset("karate");
        assert_eq!(g.num_vertices(), 34);
        // 78 undirected edges, symmetrized and deduplicated
        assert_eq!(g.num_edges(), 156);
        // real-graph sanity: the instructor (0) and president (33) are hubs
        assert!(g.out_degree(symple_graph::Vid::new(0)) >= 16);
        assert!(g.out_degree(symple_graph::Vid::new(33)) >= 17);
        let scale = spec("karate").latency_scale();
        assert!((scale - 1.0).abs() < 1e-12, "karate runs at native cost");
    }

    #[test]
    fn synthetic_trio_has_matching_edge_budgets() {
        // 2^15·32 = 2^16·16 = 2^17·8 (pre-cleaning)
        let budget: Vec<u64> = DATASETS[2..5]
            .iter()
            .map(|d| (1u64 << d.scale) * u64::from(d.edge_factor))
            .collect();
        assert_eq!(budget[0], budget[1]);
        assert_eq!(budget[1], budget[2]);
    }

    #[test]
    fn caching_returns_same_instance() {
        let a = dataset("s27") as *const Graph;
        let b = dataset("s27") as *const Graph;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_name_panics() {
        dataset("nope");
    }
}
