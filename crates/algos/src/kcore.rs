//! K-core (paper §2.1, Figure 3b).
//!
//! Iteratively remove vertices with fewer than `k` active neighbours until
//! none remain; the survivors are the (unique) k-core. The signal UDF
//! counts active neighbours and **breaks once the count reaches `k`** —
//! a *data + control* loop-carried dependency: the partial count itself
//! must travel with the dependency message ([`symple_core::CountDep`]).
//!
//! Expects a symmetrized graph (see crate docs).

use symple_core::{run_spmd, CountDep, EngineConfig, PullProgram, RunStats, SignalOutcome, Worker};
use symple_graph::{Bitmap, Graph, Vid};

/// Result of a K-core run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KcoreOutput {
    /// Vertices in the k-core.
    pub in_core: Bitmap,
    /// Peeling rounds until fixpoint.
    pub rounds: u32,
}

impl KcoreOutput {
    /// Number of vertices in the core.
    pub fn len(&self) -> usize {
        self.in_core.count_ones()
    }

    /// Returns `true` if the k-core is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Signal UDF (Figure 3b): count active neighbours into the carried
/// counter; once it reaches `k`, emit the local delta and break. If the
/// segment ends below `k`, emit whatever was counted locally.
///
/// The count is branch-free per edge: the carried count is read once as
/// `start`, every edge adds its active bit to a local (`local +=
/// u16::from(bit)`, no branch on the bit, so an unpredictable bitmap
/// costs no mispredictions), the loop breaks once `local` reaches `need
/// = max(k − start, 1)`, and the slot is written once with
/// [`CountDep::add`]. Emitted values, edges, the break and the final
/// count are exactly those of one saturating step per active neighbour
/// (the test module keeps that loop as its oracle). The `max(…, 1)` is
/// what keeps them for a slot that already holds `k`: a saturating step
/// returns `k` again, so the segment breaks at its *first active*
/// neighbour and emits 1 — not at its first edge, emitting 0.
pub struct KcorePull<'a> {
    /// Vertices still in the candidate core.
    pub active: &'a Bitmap,
}

impl PullProgram for KcorePull<'_> {
    type Update = u16;
    type Dep = CountDep;

    fn dense_active(&self, v: Vid) -> bool {
        self.active.get_vid(v)
    }

    fn signal(
        &self,
        _v: Vid,
        srcs: &[Vid],
        dep: &mut CountDep,
        slot: usize,
        _carried: bool,
        emit: &mut dyn FnMut(u16),
    ) -> SignalOutcome {
        let start = dep.count(slot);
        let need = u16::from(dep.k().saturating_sub(start).max(1));
        let mut local: u16 = 0;
        for (i, &u) in srcs.iter().enumerate() {
            local += u16::from(self.active.get_vid(u));
            if local >= need {
                dep.add(slot, local);
                emit(local);
                return SignalOutcome::broke_after(i as u64 + 1);
            }
        }
        if local > 0 {
            dep.add(slot, local);
            emit(local);
        }
        SignalOutcome::scanned(srcs.len() as u64)
    }
}

fn kcore_body(w: &mut Worker, k: u32) -> (Bitmap, u32) {
    let graph = w.graph();
    let n = graph.num_vertices();
    let mut active = Bitmap::new(n);
    active.set_all();
    let mut counts = vec![0u32; n];
    let k8 = u8::try_from(k.min(255)).expect("k fits u8 after clamp");
    let mut dep = CountDep::new(w.dep_slots_needed(), k8.max(1));
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        for c in counts.iter_mut() {
            *c = 0;
        }
        {
            let prog = KcorePull { active: &active };
            let mut apply = |v: Vid, delta: u16| -> bool {
                counts[v.index()] += u32::from(delta);
                false
            };
            w.pull(&prog, &mut dep, &mut apply);
        }
        let mut removed = 0u64;
        for v in w.masters() {
            if active.get_vid(v) && counts[v.index()] < k {
                active.clear(v.index());
                removed += 1;
            }
        }
        w.sync_bitmap(&mut active);
        if w.allreduce(removed, |a, b| a + b) == 0 {
            break;
        }
    }
    (active, rounds)
}

/// Runs distributed K-core decomposition for the given `k`.
///
/// # Example
///
/// ```
/// use symple_algos::{kcore, validate_kcore};
/// use symple_core::{EngineConfig, Policy};
/// use symple_graph::complete;
///
/// let g = complete(10); // 9-regular: the 9-core is everything
/// let (out, _) = kcore(&g, &EngineConfig::new(2, Policy::symple()), 9);
/// assert_eq!(out.len(), 10);
/// validate_kcore(&g, 9, &out);
/// ```
///
/// # Panics
///
/// Panics if `k == 0` or `k > 255` (the paper evaluates k ≤ 64; dependency
/// counters are one byte on the wire).
pub fn kcore(graph: &Graph, cfg: &EngineConfig, k: u32) -> (KcoreOutput, RunStats) {
    assert!(k > 0, "k must be positive");
    assert!(k <= 255, "k must fit the one-byte dependency counter");
    let mut res = run_spmd(graph, cfg, |w| kcore_body(w, k));
    let (in_core, rounds) = res.outputs.swap_remove(0);
    (KcoreOutput { in_core, rounds }, res.stats)
}

/// Single-threaded reference: straightforward iterative peeling.
/// Returns the core bitmap and the number of edges examined.
pub fn kcore_reference(graph: &Graph, k: u32) -> (Bitmap, u64) {
    let n = graph.num_vertices();
    let mut active = Bitmap::new(n);
    active.set_all();
    let mut edges = 0u64;
    loop {
        let mut removed = false;
        for v in graph.vertices() {
            if !active.get_vid(v) {
                continue;
            }
            let mut cnt = 0u32;
            for &u in graph.in_neighbors(v) {
                edges += 1;
                if active.get_vid(u) {
                    cnt += 1;
                    if cnt >= k {
                        break;
                    }
                }
            }
            if cnt < k {
                active.clear(v.index());
                removed = true;
            }
        }
        if !removed {
            return (active, edges);
        }
    }
}

/// Validates a k-core output: every member has ≥ k member neighbours, and
/// the set equals the unique k-core computed by the reference.
///
/// # Panics
///
/// Panics describing the first violated invariant.
pub fn validate_kcore(graph: &Graph, k: u32, out: &KcoreOutput) {
    for v in graph.vertices() {
        if out.in_core.get_vid(v) {
            let deg = graph
                .in_neighbors(v)
                .iter()
                .filter(|&&u| out.in_core.get_vid(u))
                .count() as u32;
            assert!(deg >= k, "{v} in core with only {deg} core neighbours");
        }
    }
    let (reference, _) = kcore_reference(graph, k);
    for v in graph.vertices() {
        assert_eq!(
            out.in_core.get_vid(v),
            reference.get_vid(v),
            "core membership of {v} differs from reference"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_core::{DepState, Policy, WireCodec};
    use symple_graph::{complete, cycle, path, star, RmatConfig, Rng64};

    /// One saturating step of the carried count, written without
    /// `CountDep::add` so the oracle below shares no code with the kernel.
    fn increment(dep: &mut CountDep, slot: usize) -> u8 {
        let c = dep.count(slot);
        if c < dep.k() {
            dep.decode_message(slot..slot + 1, WireCodec::Flat, &[c + 1])
                .unwrap();
        }
        dep.count(slot)
    }

    /// The per-edge-branch signal `KcorePull::signal` replaced, kept as
    /// its oracle: one saturating step of the carried count per active
    /// neighbour, break as soon as that step returns `k`.
    fn signal_per_edge(
        active: &Bitmap,
        srcs: &[Vid],
        dep: &mut CountDep,
        slot: usize,
        emit: &mut dyn FnMut(u16),
    ) -> SignalOutcome {
        let k = dep.k();
        let mut local: u16 = 0;
        for (i, &u) in srcs.iter().enumerate() {
            if active.get_vid(u) {
                local += 1;
                if increment(dep, slot) >= k {
                    emit(local);
                    return SignalOutcome::broke_after(i as u64 + 1);
                }
            }
        }
        if local > 0 {
            emit(local);
        }
        SignalOutcome::scanned(srcs.len() as u64)
    }

    #[test]
    fn branch_free_signal_matches_per_edge_oracle() {
        const N: usize = 1024;
        const SLOTS: usize = 4;
        let mut rng = Rng64::seed_from_u64(88);
        let mut starts_at_k = 0;
        for case in 0..4000 {
            // Densities from empty to full, with both extremes drawn
            // often enough that all-inactive and all-active segments occur.
            let density = match rng.gen_index(6) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_f64(),
            };
            let mut active = Bitmap::new(N);
            for i in 0..N {
                if rng.gen_f64() < density {
                    active.set(i);
                }
            }
            let len = rng.gen_index(601);
            let srcs: Vec<Vid> = (0..len)
                .map(|_| Vid::new(rng.gen_index(N) as u32))
                .collect();
            let k = [1u8, 2, 88, 255][rng.gen_index(4)];
            let start = rng.gen_index(usize::from(k) + 1) as u8;
            starts_at_k += usize::from(start == k);
            let slot = rng.gen_index(SLOTS);

            let mut expect_dep = CountDep::new(SLOTS, k);
            expect_dep
                .decode_message(slot..slot + 1, WireCodec::Flat, &[start])
                .unwrap();
            let mut got_dep = expect_dep.clone();
            let mut expect = Vec::new();
            let expect_out = signal_per_edge(&active, &srcs, &mut expect_dep, slot, &mut |d| {
                expect.push(d)
            });
            let mut got = Vec::new();
            let prog = KcorePull { active: &active };
            let got_out = prog.signal(Vid::new(0), &srcs, &mut got_dep, slot, true, &mut |d| {
                got.push(d)
            });

            let what =
                format!("case {case}: len {len}, density {density:.3}, k {k}, start {start}");
            assert_eq!(got, expect, "{what}: emit sequence");
            assert_eq!(got_out, expect_out, "{what}: outcome");
            for s in 0..SLOTS {
                assert_eq!(got_dep.count(s), expect_dep.count(s), "{what}: slot {s}");
            }
        }
        assert!(starts_at_k > 0, "the draw must cover a slot already at k");
    }

    fn check_all_policies(graph: &Graph, machines: usize, k: u32) {
        for policy in [
            Policy::symple(),
            Policy::symple_basic(),
            Policy::Gemini,
            Policy::Galois,
        ] {
            let cfg = EngineConfig::new(machines, policy);
            let (out, _) = kcore(graph, &cfg, k);
            validate_kcore(graph, k, &out);
        }
    }

    #[test]
    fn path_has_no_2core() {
        let g = path(100);
        let (out, _) = kcore(&g, &EngineConfig::new(3, Policy::symple()), 2);
        assert!(out.is_empty(), "a path unravels completely at k=2");
        validate_kcore(&g, 2, &out);
    }

    #[test]
    fn cycle_is_its_own_2core() {
        let g = cycle(80);
        check_all_policies(&g, 3, 2);
        let (out, _) = kcore(&g, &EngineConfig::new(3, Policy::symple()), 2);
        assert_eq!(out.len(), 80);
    }

    #[test]
    fn star_1core_vs_2core() {
        let g = star(150);
        check_all_policies(&g, 4, 1);
        let (out, _) = kcore(&g, &EngineConfig::new(4, Policy::symple()), 2);
        assert!(out.is_empty());
    }

    #[test]
    fn complete_graph_cores() {
        let g = complete(12);
        check_all_policies(&g, 2, 11);
        let (out, _) = kcore(&g, &EngineConfig::new(2, Policy::symple()), 12);
        assert!(out.is_empty());
    }

    #[test]
    fn rmat_various_k() {
        let g = RmatConfig::graph500(8, 8).cleaned(true).generate();
        for k in [2, 4, 8] {
            check_all_policies(&g, 4, k);
        }
    }

    #[test]
    fn symple_matches_gemini_with_fewer_edges() {
        let g = RmatConfig::graph500(9, 16).cleaned(true).generate();
        let (out_g, st_g) = kcore(&g, &EngineConfig::new(4, Policy::Gemini), 8);
        let (out_s, st_s) = kcore(&g, &EngineConfig::new(4, Policy::symple()), 8);
        assert_eq!(out_g.in_core, out_s.in_core);
        assert!(st_s.work.edges_traversed() < st_g.work.edges_traversed());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let g = path(4);
        let _ = kcore(&g, &EngineConfig::new(1, Policy::Gemini), 0);
    }
}
