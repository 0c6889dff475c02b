//! PageRank with convergence detection, in fixed-point arithmetic.
//!
//! Ranks are integers in millionths ([`SCALE`]), damping is 0.85
//! ([`ALPHA`] / [`SCALE`]), and every per-vertex sum is a fold of `u64`
//! additions — associative and commutative, so the result is
//! bit-identical no matter how the engine orders partial sums across
//! machines, threads, exchange frames, or policies. (A float formulation
//! would trip exactly the order-sensitivity the UDF linter's W005 warns
//! about.)
//!
//! Iteration stops when the largest per-vertex rank movement (the
//! residual, allreduce-maxed across machines) drops to the caller's
//! tolerance — the convergence-detection shape none of the paper's five
//! kernels exercise: a data-dependent termination decided by collective
//! agreement every round. Dangling mass (vertices without out-edges) is
//! redistributed uniformly.

use symple_core::{run_spmd, BitDep, EngineConfig, PullProgram, RunStats, SignalOutcome, Worker};
use symple_graph::{Graph, Vid};

/// Fixed-point scale: ranks are expressed in `1/SCALE` units.
pub const SCALE: u64 = 1_000_000;
/// Damping factor in fixed point (`0.85 * SCALE`).
pub const ALPHA: u64 = 850_000;
/// Teleport mass per vertex in fixed point (`SCALE - ALPHA`).
pub const BASE: u64 = SCALE - ALPHA;

/// Result of a PageRank run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagerankOutput {
    /// Fixed-point rank per vertex (initial mass is [`SCALE`] each).
    pub rank: Vec<u64>,
    /// Iterations performed.
    pub iterations: u32,
    /// Whether the residual reached the tolerance before the iteration
    /// cap.
    pub converged: bool,
}

impl PagerankOutput {
    /// Total rank mass (≤ `n * SCALE`; integer truncation only sheds
    /// mass, never creates it).
    pub fn total_mass(&self) -> u64 {
        self.rank.iter().sum()
    }
}

/// Pull signal: sum the precomputed out-degree-normalised contributions
/// of the in-neighbours in this segment and emit the partial sum (`u64`
/// addition commutes, so segment order is invisible).
pub struct PagerankPull<'a> {
    /// `rank[u] / out_degree(u)` per vertex (0 for dangling vertices).
    pub contrib: &'a [u64],
}

impl PullProgram for PagerankPull<'_> {
    type Update = u64;
    type Dep = BitDep;

    fn dense_active(&self, _v: Vid) -> bool {
        true
    }

    /// No break, nothing carried: every edge is summed whatever the other
    /// machines saw, so the engine runs the dense schedule.
    fn carries_dependency(&self) -> bool {
        false
    }

    fn signal(
        &self,
        _v: Vid,
        srcs: &[Vid],
        _dep: &mut BitDep,
        _slot: usize,
        _carried: bool,
        emit: &mut dyn FnMut(u64),
    ) -> SignalOutcome {
        let mut acc = 0u64;
        for &u in srcs {
            acc += self.contrib[u.index()];
        }
        if acc > 0 {
            emit(acc);
        }
        SignalOutcome::scanned(srcs.len() as u64)
    }
}

/// A machine reads `rank[u]` and `contrib[u]` for its own masters only:
/// the sources of every bucket it walks are local by construction, and the
/// updates it applies target its masters. So an iteration touches master
/// entries alone, the only per-iteration collective is one `allreduce` of
/// `(residual, next iteration's dangling mass)`, and the rank array is
/// synchronised once, after the loop, for the caller.
fn pagerank_body(w: &mut Worker, tol: u64, max_iters: u32) -> (Vec<u64>, u32, bool) {
    let graph = w.graph();
    let n = graph.num_vertices();
    let mut rank = vec![SCALE; n];
    let mut contrib = vec![0u64; n];
    let mut sums = vec![0u64; n];
    let mut dep = BitDep::new(w.dep_slots_needed());
    let mut iterations = 0u32;
    let mut converged = false;
    let dangling_masters = w.masters().filter(|&v| graph.out_degree(v) == 0).count();
    let mut dangling = w.allreduce(dangling_masters as u64 * SCALE, |a, b| a + b);
    while iterations < max_iters && !converged {
        iterations += 1;
        let dangling_share = dangling / n as u64;
        for v in w.masters() {
            let deg = graph.out_degree(v) as u64;
            contrib[v.index()] = rank[v.index()].checked_div(deg).unwrap_or(0);
            sums[v.index()] = 0;
        }
        {
            let prog = PagerankPull { contrib: &contrib };
            let mut apply = |v: Vid, partial: u64| -> bool {
                sums[v.index()] += partial;
                false
            };
            w.pull(&prog, &mut dep, &mut apply);
        }
        let mut local_residual = 0u64;
        let mut local_dangling = 0u64;
        for v in w.masters() {
            let new = BASE + ALPHA * (sums[v.index()] + dangling_share) / SCALE;
            local_residual = local_residual.max(new.abs_diff(rank[v.index()]));
            rank[v.index()] = new;
            if graph.out_degree(v) == 0 {
                local_dangling += new;
            }
        }
        let (residual, next_dangling) = w.allreduce((local_residual, local_dangling), |a, b| {
            (a.0.max(b.0), a.1 + b.1)
        });
        dangling = next_dangling;
        converged = residual <= tol;
    }
    w.sync_values(&mut rank);
    (rank, iterations, converged)
}

/// Runs distributed PageRank until the max per-vertex movement is ≤ `tol`
/// (fixed-point units) or `max_iters` is hit.
///
/// # Example
///
/// ```
/// use symple_algos::{pagerank, pagerank::SCALE};
/// use symple_core::{EngineConfig, Policy};
/// use symple_graph::cycle;
///
/// let g = cycle(16); // 1-regular both ways: ranks stay uniform
/// let (out, _) = pagerank(&g, &EngineConfig::new(2, Policy::symple()), 1000, 50);
/// assert!(out.converged);
/// assert!(out.rank.iter().all(|&r| r == SCALE));
/// ```
///
/// # Panics
///
/// Panics if the graph is empty or `max_iters` is zero.
pub fn pagerank(
    graph: &Graph,
    cfg: &EngineConfig,
    tol: u64,
    max_iters: u32,
) -> (PagerankOutput, RunStats) {
    assert!(graph.num_vertices() > 0, "pagerank needs vertices");
    assert!(max_iters > 0, "max_iters must be positive");
    let mut res = run_spmd(graph, cfg, |w| pagerank_body(w, tol, max_iters));
    let (rank, iterations, converged) = res.outputs.swap_remove(0);
    (
        PagerankOutput {
            rank,
            iterations,
            converged,
        },
        res.stats,
    )
}

/// Single-threaded reference: the identical fixed-point iteration, so the
/// distributed result must match bit for bit. Returns the output and
/// edges examined.
pub fn pagerank_reference(graph: &Graph, tol: u64, max_iters: u32) -> (PagerankOutput, u64) {
    let n = graph.num_vertices();
    let mut rank = vec![SCALE; n];
    let mut edges = 0u64;
    let mut iterations = 0u32;
    let mut converged = false;
    while iterations < max_iters && !converged {
        iterations += 1;
        let contrib: Vec<u64> = graph
            .vertices()
            .map(|v| {
                let deg = graph.out_degree(v) as u64;
                rank[v.index()].checked_div(deg).unwrap_or(0)
            })
            .collect();
        let dangling: u64 = graph
            .vertices()
            .filter(|&v| graph.out_degree(v) == 0)
            .map(|v| rank[v.index()])
            .sum();
        let dangling_share = dangling / n as u64;
        let mut residual = 0u64;
        for v in graph.vertices() {
            let mut sum = 0u64;
            for &u in graph.in_neighbors(v) {
                edges += 1;
                sum += contrib[u.index()];
            }
            let new = BASE + ALPHA * (sum + dangling_share) / SCALE;
            residual = residual.max(new.abs_diff(rank[v.index()]));
            rank[v.index()] = new;
        }
        converged = residual <= tol;
    }
    (
        PagerankOutput {
            rank,
            iterations,
            converged,
        },
        edges,
    )
}

/// Validates a PageRank output: bit-identical to the fixed-point
/// reference (ranks, iteration count, and convergence flag), with mass
/// bounded by the teleport floor and the initial total.
///
/// # Panics
///
/// Panics with a description of the first violated invariant.
pub fn validate_pagerank(graph: &Graph, tol: u64, max_iters: u32, out: &PagerankOutput) {
    let n = graph.num_vertices() as u64;
    let (reference, _) = pagerank_reference(graph, tol, max_iters);
    assert_eq!(out.iterations, reference.iterations, "iteration count");
    assert_eq!(out.converged, reference.converged, "convergence flag");
    for v in graph.vertices() {
        assert_eq!(
            out.rank[v.index()],
            reference.rank[v.index()],
            "rank mismatch at {v}"
        );
    }
    assert!(out.rank.iter().all(|&r| r >= BASE), "teleport floor");
    assert!(out.total_mass() <= n * SCALE, "mass must not be created");
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::Policy;
    use symple_graph::{complete, cycle, path, star, GraphBuilder, RmatConfig};

    const TOL: u64 = 100; // 1e-4 in fixed point
    const ITERS: u32 = 60;

    fn check_all_policies(graph: &Graph, machines: usize) {
        let mut outputs = Vec::new();
        for policy in [
            Policy::symple(),
            Policy::symple_basic(),
            Policy::Gemini,
            Policy::Galois,
        ] {
            let cfg = EngineConfig::new(machines, policy);
            let (out, _) = pagerank(graph, &cfg, TOL, ITERS);
            validate_pagerank(graph, TOL, ITERS, &out);
            outputs.push(out);
        }
        for o in &outputs[1..] {
            assert_eq!(o.rank, outputs[0].rank, "policies must agree exactly");
            assert_eq!(o.iterations, outputs[0].iterations);
        }
    }

    #[test]
    fn regular_graphs_stay_uniform() {
        // oracle: on a regular graph the uniform vector is the fixpoint,
        // so iteration 1 already moves nothing.
        for g in [cycle(40), complete(9)] {
            let (out, _) = pagerank(&g, &EngineConfig::new(3, Policy::symple()), TOL, ITERS);
            assert!(out.converged);
            assert_eq!(out.iterations, 1);
            assert!(out.rank.iter().all(|&r| r == SCALE));
            validate_pagerank(&g, TOL, ITERS, &out);
        }
    }

    #[test]
    fn star_hub_dominates() {
        // oracle: the undirected star's hub out-ranks every leaf. The
        // bipartite structure converges at rate α^k from ~n·SCALE, so
        // give it the ~120 rounds that needs.
        let g = star(50);
        let (out, _) = pagerank(&g, &EngineConfig::new(2, Policy::symple()), TOL, 120);
        assert!(out.converged);
        let hub = out.rank[0];
        assert!(out.rank[1..].iter().all(|&leaf| leaf < hub));
        validate_pagerank(&g, TOL, 120, &out);
    }

    #[test]
    fn dangling_mass_is_redistributed() {
        // 0 -> 1 -> 2, vertex 2 dangling; without redistribution vertex
        // 0 would sit at the bare teleport floor forever.
        let mut b = GraphBuilder::new(3);
        b.add_edge(Vid::new(0), Vid::new(1));
        b.add_edge(Vid::new(1), Vid::new(2));
        let g = b.build();
        let (out, _) = pagerank(&g, &EngineConfig::new(2, Policy::symple()), TOL, ITERS);
        validate_pagerank(&g, TOL, ITERS, &out);
        assert!(out.rank[0] > BASE, "dangling mass must flow back");
    }

    #[test]
    fn path_and_rmat_across_policies() {
        check_all_policies(&path(50), 3);
        let g = RmatConfig::graph500(9, 8).cleaned(true).generate();
        check_all_policies(&g, 5);
    }

    #[test]
    fn iteration_cap_reports_non_convergence() {
        let g = RmatConfig::graph500(8, 8).cleaned(true).generate();
        let (out, _) = pagerank(&g, &EngineConfig::new(2, Policy::symple()), 0, 2);
        assert_eq!(out.iterations, 2);
        assert!(!out.converged, "tol 0 cannot converge in 2 rounds");
        validate_pagerank(&g, 0, 2, &out);
    }
}
