//! Graph storage substrate for the SympleGraph reproduction.
//!
//! This crate provides everything the distributed engines need to know about
//! graphs *as data*: compressed sparse row storage ([`Csr`]), a directed
//! [`Graph`] bundling forward and reverse adjacency, dense [`Bitmap`]s,
//! degree statistics, simple text/binary I/O, and a family of graph
//! generators (most importantly the Graph500-parameterised R-MAT generator
//! used by the paper's synthetic datasets).
//!
//! Nothing in this crate knows about machines, partitions, or communication;
//! that lives in `symple-core`.
//!
//! # Example
//!
//! ```
//! use symple_graph::{GraphBuilder, Vid};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(Vid::new(0), Vid::new(1));
//! b.add_edge(Vid::new(1), Vid::new(2));
//! b.add_edge(Vid::new(2), Vid::new(3));
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.out_degree(Vid::new(1)), 1);
//! assert_eq!(g.in_degree(Vid::new(2)), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod builder;
mod csr;
mod error;
mod generators;
mod graph;
mod io;
mod rmat;
mod rng;
mod stats;
mod vid;

pub use bitmap::{Bitmap, IterOnes};
pub use builder::GraphBuilder;
pub use csr::Csr;
pub use error::{GraphError, Result};
pub use generators::{barabasi_albert, complete, cycle, grid, path, star};
pub use graph::Graph;
pub use io::{
    fnv1a64, load_snap_cached, read_binary, read_csr_cache, read_edge_list, read_snap,
    snap_cache_path, write_binary, write_csr_cache, write_edge_list, SnapOptions,
};
pub use rmat::{rmat, RmatConfig};
pub use rng::Rng64;
pub use stats::{DegreeStats, GraphStats};
pub use vid::{Vid, VidRange};
