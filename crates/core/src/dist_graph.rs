//! Per-machine view of the partitioned graph (masters, mirrors, buckets).
//!
//! Under outgoing edge-cut (paper §2.2), machine `i` stores the out-edges
//! of its master vertices. For pull-mode execution those edges are grouped
//! by the *destination's* master machine into `p` buckets: bucket `[i, j]`
//! holds, for every destination `v` mastered on `j`, the slice of `v`'s
//! in-neighbours mastered on `i` — precisely the sub-graph the circulant
//! schedule assigns to machine `i` in the step that targets partition `j`.
//! A destination appearing in bucket `[i, j]` with `i ≠ j` is a *mirror*
//! of `v` on machine `i`.
//!
//! Each bucket is split into a **high-degree** part (vertices with
//! dependency slots) and a **low-degree** part (vertices that fall back to
//! the Gemini schedule under differentiated propagation, §5.2).

use crate::{DepLayout, Partition};
use symple_graph::{Graph, Vid};

/// The slot recorded for a low-degree destination, which has none.
const NO_SLOT: u32 = u32::MAX;

/// One side (high- or low-degree) of a bucket: destinations with their
/// local in-neighbour segments, CSR-packed.
#[derive(Debug, Clone, Default)]
pub struct BucketPart {
    dsts: Vec<Vid>,
    /// Dependency slot per destination (parallel to `dsts`; meaningless
    /// for the low-degree part, which carries [`NO_SLOT`]).
    slots: Vec<u32>,
    offsets: Vec<usize>,
    srcs: Vec<Vid>,
}

impl BucketPart {
    /// An empty part with room for exactly `dsts` destinations and `edges`
    /// in-neighbours, so filling it never regrows (and re-copies) a `Vec`.
    fn with_capacity(dsts: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(dsts + 1);
        offsets.push(0);
        BucketPart {
            dsts: Vec::with_capacity(dsts),
            slots: Vec::with_capacity(dsts),
            offsets,
            srcs: Vec::with_capacity(edges),
        }
    }

    fn push(&mut self, dst: Vid, slot: u32, srcs: &[Vid]) {
        self.dsts.push(dst);
        self.slots.push(slot);
        self.srcs.extend_from_slice(srcs);
        self.offsets.push(self.srcs.len());
    }

    /// Number of destination vertices.
    pub fn len(&self) -> usize {
        self.dsts.len()
    }

    /// Returns `true` if there are no destinations.
    pub fn is_empty(&self) -> bool {
        self.dsts.is_empty()
    }

    /// Total local edges in this part.
    pub fn num_edges(&self) -> usize {
        self.srcs.len()
    }

    /// The `idx`-th entry: `(destination, dep slot, local in-neighbours)`.
    pub fn entry(&self, idx: usize) -> (Vid, usize, &[Vid]) {
        (
            self.dsts[idx],
            self.slots[idx] as usize,
            &self.srcs[self.offsets[idx]..self.offsets[idx + 1]],
        )
    }

    /// Iterates all entries.
    pub fn iter(&self) -> impl Iterator<Item = (Vid, usize, &[Vid])> {
        (0..self.len()).map(move |i| self.entry(i))
    }

    /// Index of the first destination whose dependency slot is ≥ `slot`
    /// (entries are slot-ascending). Used to find double-buffering group
    /// boundaries.
    pub fn first_entry_with_slot(&self, slot: usize) -> usize {
        self.slots.partition_point(|&s| (s as usize) < slot)
    }
}

/// Bucket `[i, j]`: machine `i`'s edges into partition `j`.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    /// Destinations with dependency slots (slot-ascending).
    pub hi: BucketPart,
    /// Low-degree destinations (Gemini fallback under differentiated
    /// propagation; empty in full-dependency mode).
    pub lo: BucketPart,
}

/// Machine `rank`'s complete local pull-mode structure: one [`Bucket`] per
/// destination partition.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    rank: usize,
    buckets: Vec<Bucket>,
}

impl LocalGraph {
    /// Builds machine `rank`'s buckets. Deterministic: every machine
    /// derives the same global structures from the shared graph.
    pub fn build(graph: &Graph, part: &Partition, layout: &DepLayout, rank: usize) -> Self {
        let p = part.num_parts();
        let (my_lo, my_hi) = part.range(rank);
        let mut buckets = Vec::with_capacity(p);
        // Per bucket: locate every destination's local segment once, sizing
        // both parts as it goes, then copy into exactly sized storage.
        let mut found: Vec<(Vid, u32, &[Vid])> = Vec::new();
        for j in 0..p {
            found.clear();
            let mut slot_of = layout.slots_in_order(j);
            let (mut hi_dsts, mut hi_edges, mut lo_edges) = (0, 0, 0);
            for v in part.vertices(j) {
                let slot = slot_of(v).map_or(NO_SLOT, |s| s as u32);
                let srcs = graph.in_neighbors_in_range(v, my_lo, my_hi);
                if srcs.is_empty() {
                    continue;
                }
                if slot == NO_SLOT {
                    lo_edges += srcs.len();
                } else {
                    hi_dsts += 1;
                    hi_edges += srcs.len();
                }
                found.push((v, slot, srcs));
            }
            let mut bucket = Bucket {
                hi: BucketPart::with_capacity(hi_dsts, hi_edges),
                lo: BucketPart::with_capacity(found.len() - hi_dsts, lo_edges),
            };
            for &(v, slot, srcs) in &found {
                let side = if slot == NO_SLOT {
                    &mut bucket.lo
                } else {
                    &mut bucket.hi
                };
                side.push(v, slot, srcs);
            }
            buckets.push(bucket);
        }
        LocalGraph { rank, buckets }
    }

    /// This machine's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Bucket `[rank, j]`.
    pub fn bucket(&self, j: usize) -> &Bucket {
        &self.buckets[j]
    }

    /// Number of mirror vertices this machine hosts (destinations in
    /// non-local buckets).
    pub fn num_mirrors(&self) -> usize {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != self.rank)
            .map(|(_, b)| b.hi.len() + b.lo.len())
            .sum()
    }

    /// Total local edges across all buckets (must equal the number of
    /// out-edges of this machine's masters).
    pub fn num_edges(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.hi.num_edges() + b.lo.num_edges())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_graph::RmatConfig;

    fn setup(p: usize, differentiated: bool) -> (Graph, Partition, DepLayout) {
        let g = RmatConfig::graph500(8, 8).generate();
        let part = Partition::chunked(&g, p, 8.0);
        let layout = if differentiated {
            DepLayout::high_degree(&g, &part, 8)
        } else {
            DepLayout::full(&part)
        };
        (g, part, layout)
    }

    #[test]
    fn every_edge_lands_in_exactly_one_bucket() {
        let p = 4;
        let (g, part, layout) = setup(p, false);
        let mut total = 0;
        for rank in 0..p {
            let local = LocalGraph::build(&g, &part, &layout, rank);
            total += local.num_edges();
            // each bucket's edges go to the right partition and come from
            // this rank's masters
            let (lo, hi) = part.range(rank);
            for j in 0..p {
                let b = local.bucket(j);
                for (v, _slot, srcs) in b.hi.iter().chain(b.lo.iter()) {
                    assert_eq!(part.owner(v), j);
                    for &s in srcs {
                        assert!(lo <= s && s < hi, "source {s} not local to {rank}");
                    }
                }
            }
        }
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn segments_match_global_in_neighbors() {
        let p = 3;
        let (g, part, layout) = setup(p, false);
        // reconstruct each vertex's in-neighbour list by concatenating the
        // segments found in the 3 machines' buckets, sorted
        let n = g.num_vertices();
        let mut rebuilt: Vec<Vec<Vid>> = vec![Vec::new(); n];
        for rank in 0..p {
            let local = LocalGraph::build(&g, &part, &layout, rank);
            for j in 0..p {
                let b = local.bucket(j);
                for (v, _s, srcs) in b.hi.iter().chain(b.lo.iter()) {
                    rebuilt[v.index()].extend_from_slice(srcs);
                }
            }
        }
        for v in g.vertices() {
            let mut r = rebuilt[v.index()].clone();
            r.sort_unstable();
            assert_eq!(r, g.in_neighbors(v), "in-list mismatch at {v}");
        }
    }

    #[test]
    fn differentiated_split_respects_threshold() {
        let p = 4;
        let (g, part, layout) = setup(p, true);
        for rank in 0..p {
            let local = LocalGraph::build(&g, &part, &layout, rank);
            for j in 0..p {
                let b = local.bucket(j);
                for (v, slot, _) in b.hi.iter() {
                    assert!(g.in_degree(v) >= 8);
                    assert_eq!(layout.slot_of(j, v), Some(slot));
                }
                for (v, _, _) in b.lo.iter() {
                    assert!(g.in_degree(v) < 8);
                }
            }
        }
    }

    #[test]
    fn hi_entries_are_slot_ascending() {
        let p = 4;
        let (g, part, layout) = setup(p, true);
        let local = LocalGraph::build(&g, &part, &layout, 1);
        for j in 0..p {
            let hi = &local.bucket(j).hi;
            let slots: Vec<usize> = hi.iter().map(|(_, s, _)| s).collect();
            for w in slots.windows(2) {
                assert!(w[0] < w[1], "slots must ascend");
            }
            // group-boundary search is consistent
            if !hi.is_empty() {
                let (_, first_slot, _) = hi.entry(0);
                assert_eq!(hi.first_entry_with_slot(first_slot), 0);
                assert_eq!(hi.first_entry_with_slot(usize::MAX), hi.len());
            }
        }
    }

    #[test]
    fn mirror_count_excludes_local_bucket() {
        let p = 2;
        let (g, part, layout) = setup(p, false);
        let local = LocalGraph::build(&g, &part, &layout, 0);
        let local_dsts = local.bucket(0).hi.len() + local.bucket(0).lo.len();
        let all: usize = (0..p)
            .map(|j| local.bucket(j).hi.len() + local.bucket(j).lo.len())
            .sum();
        assert_eq!(local.num_mirrors(), all - local_dsts);
    }

    #[test]
    fn single_machine_has_one_all_local_bucket() {
        let (g, part, layout) = {
            let g = RmatConfig::graph500(6, 4).generate();
            let part = Partition::chunked(&g, 1, 8.0);
            let layout = DepLayout::full(&part);
            (g, part, layout)
        };
        let local = LocalGraph::build(&g, &part, &layout, 0);
        assert_eq!(local.num_mirrors(), 0);
        assert_eq!(local.num_edges(), g.num_edges());
    }
}
