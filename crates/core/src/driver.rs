//! Top-level driver: spawn the cluster, run the SPMD closure, aggregate.

use crate::{EngineConfig, PreparedGraph, RunStats, TimeStats, WorkStats, Worker};
use std::sync::Arc;
use std::time::{Duration, Instant};
use symple_graph::Graph;
use symple_net::Cluster;

/// The aggregated outcome of a distributed run.
#[derive(Debug)]
pub struct DistResult<T> {
    /// Per-machine return values, indexed by rank.
    pub outputs: Vec<T>,
    /// Aggregated execution statistics (with the per-machine trace).
    pub stats: RunStats,
}

impl<T> DistResult<T> {
    /// The rank-0 output, if any machine ran.
    ///
    /// By convention SPMD closures either return the same globally-reduced
    /// answer on every machine or put the interesting value on rank 0, so
    /// this is the output consumers usually want. Returns `None` for a
    /// zero-machine result (which [`run_spmd`] itself never produces, but
    /// hand-built results may).
    pub fn output(&self) -> Option<&T> {
        self.outputs.first()
    }
}

/// Runs `f` SPMD-style on `cfg.machines` simulated machines over `graph`.
///
/// Every machine gets its own [`Worker`] and runs the same closure —
/// exactly how a Gemini application binary runs under `mpiexec`. The
/// partition, dependency layout and per-machine buckets the workers walk
/// are the graph's [`PreparedGraph`] for `cfg`'s layout: fetched once
/// here, shared by all machines, built by the first job on `graph` with
/// that layout (each machine building its own buckets, in parallel) and
/// found ready by every later one. Set-up wall time is reported as
/// `stats.time.setup_wall`. Tracing is controlled by `cfg.trace_level`;
/// the collected [`symple_net::Trace`] is returned on `stats.trace`.
///
/// # Example
///
/// ```
/// use symple_core::{run_spmd, EngineConfig, Policy};
/// use symple_graph::path;
///
/// let g = path(100);
/// let cfg = EngineConfig::new(2, Policy::symple());
/// let res = run_spmd(&g, &cfg, |w| w.allreduce(w.masters().count() as u64, |a, b| a + b));
/// assert_eq!(res.output(), Some(&100));
/// ```
///
/// # Panics
///
/// Panics if the configuration fails [`EngineConfig::validate`] (the panic
/// message carries the [`crate::ConfigError`]) or if a machine's run
/// fails ([`symple_net::Cluster::run`] names the root cause).
pub fn run_spmd<T, F>(graph: &Graph, cfg: &EngineConfig, f: F) -> DistResult<T>
where
    T: Send,
    F: Fn(&mut Worker) -> T + Sync,
{
    if let Err(e) = cfg.validate() {
        panic!("invalid engine config: {e}");
    }
    // Invariant: `validate` has checked everything `build` checks (at
    // least one machine, a fault plan of probabilities; the inbox
    // capacity is the builder's default), so this cannot fail.
    let cluster = Cluster::builder(cfg.machines)
        .cost(cfg.cost)
        .backend(cfg.backend)
        .trace_level(cfg.trace_level)
        .fault_plan(cfg.fault_plan)
        .build()
        .expect("a validated EngineConfig builds its cluster");
    let fetch_started = Instant::now();
    let prepared = PreparedGraph::of(graph, cfg);
    let fetch_wall = fetch_started.elapsed();
    let res = cluster.run(|ctx| {
        let started = Instant::now();
        let mut worker = Worker::with_prepared(ctx, graph, cfg, Arc::clone(&prepared), started);
        let out = f(&mut worker);
        (out, worker.stats(), worker.setup_wall())
    });
    let max_node_wall = res.max_node_wall();
    let mut work = WorkStats::default();
    let mut node_setup = Duration::ZERO;
    let mut outputs = Vec::with_capacity(res.outputs.len());
    for (out, st, setup) in res.outputs {
        work.merge(&st);
        node_setup = node_setup.max(setup);
        outputs.push(out);
    }
    let mut time = TimeStats::from_trace(res.virtual_time, res.wall, &res.traces);
    time.max_node_wall = max_node_wall;
    time.setup_wall = fetch_wall + node_setup;
    DistResult {
        outputs,
        stats: RunStats {
            time,
            work,
            comm: res.traces.comm(),
            trace: res.traces,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Policy;
    use std::time::Duration;
    use symple_graph::RmatConfig;
    use symple_net::{CommKind, SpanCategory, TraceLevel};

    #[test]
    fn workers_cover_all_masters() {
        let g = RmatConfig::graph500(8, 4).generate();
        for machines in [1, 2, 5] {
            let cfg = EngineConfig::new(machines, Policy::symple());
            let res = run_spmd(&g, &cfg, |w| w.masters().count() as u64);
            let total: u64 = res.outputs.iter().sum();
            assert_eq!(total as usize, g.num_vertices());
        }
    }

    #[test]
    fn sync_bitmap_propagates_and_clears() {
        // The second graph's master slices span several of the word
        // blocks the sync decodes through.
        for g in [
            RmatConfig::graph500(8, 4).generate(),
            RmatConfig::graph500(14, 2).generate(),
        ] {
            let cfg = EngineConfig::new(3, Policy::Gemini);
            let res = run_spmd(&g, &cfg, |w| {
                let n = w.graph().num_vertices();
                let mut bm = symple_graph::Bitmap::new(n);
                // stale bit everywhere; owners will overwrite with truth
                bm.set(0);
                // each machine marks its even-numbered masters
                for v in w.masters() {
                    if v.raw() % 2 == 0 {
                        bm.set_vid(v);
                    } else {
                        bm.clear(v.index());
                    }
                }
                // clear the stale bit if not ours / odd
                w.sync_bitmap(&mut bm);
                (0..n).filter(|&i| bm.get(i)).collect::<Vec<_>>()
            });
            let expect: Vec<usize> = (0..g.num_vertices()).step_by(2).collect();
            for set in &res.outputs {
                assert_eq!(set, &expect);
            }
        }
    }

    #[test]
    fn sync_values_distributes_master_slices() {
        let g = RmatConfig::graph500(8, 4).generate();
        let cfg = EngineConfig::new(4, Policy::Gemini);
        let res = run_spmd(&g, &cfg, |w| {
            let n = w.graph().num_vertices();
            let mut arr = vec![0u32; n];
            for v in w.masters() {
                arr[v.index()] = v.raw() * 3;
            }
            w.sync_values(&mut arr);
            arr
        });
        for arr in &res.outputs {
            for (i, &x) in arr.iter().enumerate() {
                assert_eq!(x, i as u32 * 3);
            }
        }
    }

    #[test]
    fn stats_are_aggregated() {
        let g = RmatConfig::graph500(7, 4).generate();
        let cfg = EngineConfig::new(2, Policy::Gemini);
        let res = run_spmd(&g, &cfg, |w| w.rank());
        assert_eq!(res.outputs, vec![0, 1]);
        assert_eq!(res.stats.work.edges_traversed(), 0);
        assert!(res.stats.wall().as_nanos() > 0);
    }

    #[test]
    fn output_is_rank_zero_and_none_when_empty() {
        let g = RmatConfig::graph500(7, 4).generate();
        let cfg = EngineConfig::new(3, Policy::Gemini);
        let res = run_spmd(&g, &cfg, |w| w.rank() * 10);
        assert_eq!(res.output(), Some(&0));
        let empty: DistResult<u64> = DistResult {
            outputs: vec![],
            stats: RunStats::default(),
        };
        assert_eq!(empty.output(), None);
    }

    #[test]
    #[should_panic(expected = "invalid engine config: machines must be at least 1")]
    fn run_spmd_reports_config_error() {
        let g = RmatConfig::graph500(6, 4).generate();
        let cfg = EngineConfig::new(0, Policy::Gemini);
        run_spmd(&g, &cfg, |w| w.rank());
    }

    #[test]
    fn trace_rides_along_and_reconciles_with_comm() {
        let g = RmatConfig::graph500(8, 4).generate();
        let cfg = EngineConfig::new(3, Policy::Gemini);
        let res = run_spmd(&g, &cfg, |w| {
            let n = w.graph().num_vertices();
            let mut arr = vec![0u32; n];
            for v in w.masters() {
                arr[v.index()] = v.raw();
            }
            w.sync_values(&mut arr);
        });
        let stats = &res.stats;
        assert_eq!(stats.trace.nodes.len(), 3);
        let cells = stats.trace.merged_cells();
        let cells = cells.values().fold(Default::default(), |a, c| a + c.comm);
        assert_eq!(stats.comm, cells, "the cells sum to the run's ledger");
        assert!(stats.comm.bytes(CommKind::Sync) > 0);
    }

    #[test]
    fn fault_plan_is_invisible_above_the_net_layer() {
        let g = RmatConfig::graph500(8, 4).generate();
        let job = |cfg: &EngineConfig| {
            run_spmd(&g, cfg, |w| {
                let n = w.graph().num_vertices();
                let mut arr = vec![0u32; n];
                for v in w.masters() {
                    arr[v.index()] = v.raw() * 7;
                }
                w.sync_values(&mut arr);
                (arr, w.allreduce(w.rank() as u64, |a, b| a + b))
            })
        };
        let clean = job(&EngineConfig::new(3, Policy::Gemini));
        let faulted =
            job(&EngineConfig::new(3, Policy::Gemini).fault_plan(symple_net::FaultPlan::chaos(21)));
        assert_eq!(clean.outputs, faulted.outputs);
        assert_eq!(clean.stats.work, faulted.stats.work);
        let rel = faulted.stats.comm.reliable();
        assert!(rel.retransmits > 0, "chaos must actually injure traffic");
        assert!(rel.acks > 0);
        assert!(!clean.stats.comm.reliable().any());
        // Logical traffic is accounted identically either way.
        assert_eq!(
            clean.stats.comm.total_bytes(),
            faulted.stats.comm.total_bytes()
        );
        assert_eq!(
            clean.stats.comm.total_messages(),
            faulted.stats.comm.total_messages()
        );
    }

    #[test]
    fn thread_backend_matches_sim_and_measures_wall() {
        let g = RmatConfig::graph500(8, 4).generate();
        let job = |backend| {
            let cfg = EngineConfig::new(3, Policy::symple()).backend(backend);
            run_spmd(&g, &cfg, |w| {
                let n = w.graph().num_vertices();
                let mut arr = vec![0u32; n];
                for v in w.masters() {
                    arr[v.index()] = v.raw() * 5;
                }
                w.sync_values(&mut arr);
                (arr, w.allreduce(w.rank() as u64, |a, b| a + b))
            })
        };
        let sim = job(symple_net::Backend::Sim);
        let thread = job(symple_net::Backend::Thread);
        assert_eq!(sim.outputs, thread.outputs);
        assert_eq!(sim.stats.work, thread.stats.work);
        assert_eq!(sim.stats.comm, thread.stats.comm);
        assert_eq!(sim.stats.virtual_time(), thread.stats.virtual_time());
        // Both backends measure a per-machine critical path.
        assert!(sim.stats.max_node_wall() > Duration::ZERO);
        assert!(thread.stats.max_node_wall() > Duration::ZERO);
        assert!(thread.stats.max_node_wall() <= thread.stats.wall());
    }

    #[test]
    fn trace_level_off_disables_collection() {
        let g = RmatConfig::graph500(7, 4).generate();
        let cfg = EngineConfig::new(2, Policy::Gemini).trace_level(TraceLevel::Off);
        let res = run_spmd(&g, &cfg, |w| {
            w.allreduce(1u64, |a, b| a + b);
        });
        assert!(res.stats.trace.nodes.iter().all(|n| n.cells.is_empty()));
        assert_eq!(res.stats.time.category(SpanCategory::Compute), 0.0);
        // CommStats accounting is independent of the trace level
        assert!(res.stats.comm.bytes(CommKind::Sync) > 0);
    }
}
