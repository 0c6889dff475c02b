//! Deterministic chunked intra-machine executor (Gemini's multicore edge
//! loop, §5.1 of the paper's baseline).
//!
//! Each hot loop of [`crate::Worker`] — the dense bucket walk (Gemini,
//! Galois, dependency-free programs), SympleGraph's low-degree pass, its
//! high-degree dependency pass, and the push frontier walk — is split
//! into chunks of [`EXEC_CHUNK`] destination entries. `EngineConfig::threads`
//! workers (the caller and scoped threads) claim chunks from a shared
//! atomic cursor (work stealing by racing for the next index), and every
//! chunk pushes its typed `(destination, update)` pairs into a private
//! outbox segment; nothing is serialized until a segment is written into
//! a send buffer.
//!
//! **Determinism.** All observable artifacts depend only on chunk
//! *identity*, never on which worker ran a chunk or in what order:
//!
//! * outbox segments are kept in chunk order, so the update stream is
//!   identical to sequential execution;
//! * per-chunk counters are integers and sum in chunk order;
//! * the virtual clock is charged via a *simulated* schedule
//!   (`CostModel::schedule_lanes`), not measured wall time.
//!
//! Hence `threads = 1, 2, 8, …` all produce bit-identical results,
//! stats, and traces — only host wall time and the modelled
//! critical-path compute charge change.
//!
//! **Loop-carried dependency.** The high-degree pass shares mutable
//! dependency state between destinations. Bucket entries are sorted by
//! slot (each slot appears on exactly one entry), so an entry-range chunk
//! touches a contiguous slot range that is *disjoint* from every other
//! chunk's. Each chunk gets a [`DepState::extract_shard`] view of its
//! range, mutates it privately, and the shards merge back in chunk
//! order — reproducing sequential loop-carried semantics exactly.

use crate::{BucketPart, DepState, Partition, PullProgram, PushProgram};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use symple_graph::{Graph, Vid};

/// Destination entries per executor chunk: the work-stealing granule and
/// the unit the virtual-time critical path is computed over (a gather's
/// apply pass too, in records). A constant, so the modelled charge of a
/// pass depends only on the pass and the thread count.
pub const EXEC_CHUNK: usize = 1024;

/// Splits `range` into contiguous chunks of at most [`EXEC_CHUNK`] items,
/// in order. The chunk boundaries depend only on `range`, never on the
/// thread count — they are the unit of deterministic accounting.
pub(crate) fn chunk_ranges(range: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(range.len().div_ceil(EXEC_CHUNK));
    let mut start = range.start;
    while start < range.end {
        let end = (start + EXEC_CHUNK).min(range.end);
        out.push(start..end);
        start = end;
    }
    out
}

/// Applies `f` to every task on `threads` workers — the calling thread
/// and `threads - 1` scoped threads — that claim tasks by racing on a
/// shared atomic cursor: idle workers steal whatever is next, so
/// imbalanced chunks self-balance. Results come back **in task order**
/// regardless of which worker processed what: the scheduling is free to
/// race, the output is not.
///
/// With `threads <= 1` (or fewer than two tasks) no threads are spawned
/// and the closure runs inline, in order.
pub fn par_map<T, R, F>(threads: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    if threads <= 1 || n <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let share = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let task = slots[i]
            .lock()
            .expect("executor task slot poisoned")
            .take()
            .expect("cursor hands each task out once");
        let out = f(i, task);
        let prev = results[i]
            .lock()
            .expect("executor result slot poisoned")
            .replace(out);
        debug_assert!(prev.is_none(), "cursor hands each result slot out once");
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(n) {
            scope.spawn(share);
        }
        // The caller works its own share instead of parking. A task that
        // panics here is reported as one on a spawned worker is (the hook
        // has already printed its message), so a failure reads the same
        // whichever worker happened to claim the task.
        if catch_unwind(AssertUnwindSafe(share)).is_err() {
            panic!("a scoped thread panicked");
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("executor result slot poisoned")
                .expect("scope joins every worker, so every task completed")
        })
        .collect()
}

/// What one chunk produced: its `(destination, update)` pairs in emission
/// order plus integer counters. Everything a pass needs to reassemble
/// deterministic output.
struct ChunkOut<U> {
    updates: Vec<(Vid, U)>,
    edges: u64,
    verts: u64,
    skipped: u64,
}

impl<U> ChunkOut<U> {
    /// An empty chunk with room for one update per entry — what almost
    /// every program emits at most — so a dense chunk never regrows.
    fn for_entries(entries: usize) -> Self {
        ChunkOut {
            updates: Vec::with_capacity(entries),
            edges: 0,
            verts: 0,
            skipped: 0,
        }
    }
}

/// Accumulated result of the chunked passes of one step: each chunk's
/// typed updates in chunk order, summed counters, and the per-chunk
/// `(edges, vertices)` costs the critical-path charge is computed from.
pub(crate) struct PassOutput<U> {
    pub chunks: Vec<Vec<(Vid, U)>>,
    pub edges: u64,
    pub verts: u64,
    pub skipped: u64,
    pub emitted: u64,
    pub chunk_costs: Vec<(u64, u64)>,
}

impl<U> Default for PassOutput<U> {
    fn default() -> Self {
        PassOutput {
            chunks: Vec::new(),
            edges: 0,
            verts: 0,
            skipped: 0,
            emitted: 0,
            chunk_costs: Vec::new(),
        }
    }
}

impl<U> PassOutput<U> {
    fn push_chunk(&mut self, c: ChunkOut<U>) {
        self.chunk_costs.push((c.edges, c.verts));
        self.edges += c.edges;
        self.verts += c.verts;
        self.skipped += c.skipped;
        self.emitted += c.updates.len() as u64;
        if !c.updates.is_empty() {
            self.chunks.push(c.updates);
        }
    }
}

/// Chunked walk of a bucket part whose destinations carry no propagated
/// dependency (the Gemini/Galois walk, a dependency-free program under any
/// policy, and SympleGraph's low-degree fallback), appended to `out`:
/// every chunk gets its own single-slot scratch state detached from
/// `dep`, so breaks act locally exactly as in sequential execution. A
/// program that declares [`PullProgram::carries_dependency`] `false`
/// never writes the slot, so it is not reset between destinations.
pub(crate) fn scratch_pass<P: PullProgram>(
    prog: &P,
    part: &BucketPart,
    dep: &P::Dep,
    threads: usize,
    out: &mut PassOutput<P::Update>,
) {
    let carries = prog.carries_dependency();
    let tasks: Vec<(Range<usize>, P::Dep)> = chunk_ranges(0..part.len())
        .into_iter()
        .map(|r| (r, dep.detach(1)))
        .collect();
    let chunks = par_map(threads, tasks, |_, (range, mut scratch)| {
        let mut c = ChunkOut::for_entries(range.len());
        for idx in range {
            let (v, _slot, srcs) = part.entry(idx);
            c.verts += 1;
            if !prog.dense_active(v) {
                continue;
            }
            if carries {
                scratch.reset_range(0..1);
            }
            let res = prog.signal(v, srcs, &mut scratch, 0, false, &mut |upd| {
                c.updates.push((v, upd));
            });
            debug_assert!(
                carries || !scratch.should_skip(0),
                "program declares carries_dependency() == false but marked its dependency slot"
            );
            c.edges += res.edges;
        }
        c
    });
    for c in chunks {
        out.push_chunk(c);
    }
}

/// Chunked walk of the high-degree (dependency-propagated) entries in
/// `entries`, appended to `out`. Entries are slot-ascending, so each
/// chunk's slot range is contiguous and disjoint from every other chunk's;
/// the chunk mutates a detached shard of `dep` over exactly that range and
/// the shards merge back afterwards — sequential loop-carried semantics,
/// preserved.
pub(crate) fn hi_pass<P: PullProgram>(
    prog: &P,
    part: &BucketPart,
    entries: Range<usize>,
    dep: &mut P::Dep,
    threads: usize,
    out: &mut PassOutput<P::Update>,
) {
    let tasks: Vec<(Range<usize>, Range<usize>, P::Dep)> = chunk_ranges(entries)
        .into_iter()
        .map(|r| {
            let slots = part.entry(r.start).1..part.entry(r.end - 1).1 + 1;
            let shard = dep.extract_shard(slots.clone());
            (r, slots, shard)
        })
        .collect();
    debug_assert!(
        tasks.windows(2).all(|w| w[0].1.end <= w[1].1.start),
        "bucket entries must be slot-ascending for disjoint shards"
    );
    let chunks = par_map(threads, tasks, |_, (range, slots, mut shard)| {
        let mut c = ChunkOut::for_entries(range.len());
        for idx in range {
            let (v, slot, srcs) = part.entry(idx);
            c.verts += 1;
            if !prog.dense_active(v) {
                continue;
            }
            let local = slot - slots.start;
            if shard.should_skip(local) {
                c.skipped += 1;
                // The audit of the skip: in debug builds, and in every
                // build for a program whose certificate cannot prove the
                // latch, re-run the segment and assert the guarded UDF is
                // inert. Only programs whose signal opens with a skip
                // guard can be re-run safely.
                if (cfg!(debug_assertions) || !prog.certified_latch()) && prog.guards_skip() {
                    let res = prog.signal(v, srcs, &mut shard, local, true, &mut |_| {
                        panic!("skipped segment emitted an update: latch violated")
                    });
                    assert_eq!(
                        res.edges, 0,
                        "skipped segment scanned edges: latch violated"
                    );
                }
                continue;
            }
            let res = prog.signal(v, srcs, &mut shard, local, true, &mut |upd| {
                c.updates.push((v, upd));
            });
            c.edges += res.edges;
        }
        (c, slots, shard)
    });
    for (c, slots, shard) in chunks {
        dep.merge_shard(slots, &shard);
        out.push_chunk(c);
    }
}

/// Result of a chunked push (sparse) walk: per destination machine, each
/// chunk's typed updates in chunk order.
pub(crate) struct PushOutput<U> {
    pub outboxes: Vec<Vec<Vec<(Vid, U)>>>,
    pub edges: u64,
    pub emitted: u64,
    pub chunk_costs: Vec<(u64, u64)>,
}

/// Chunked walk of the frontier's out-edges. Push mode has no
/// loop-carried dependency, so chunks only need private per-destination
/// outboxes, kept in chunk order per destination.
pub(crate) fn push_pass<P: PushProgram>(
    prog: &P,
    graph: &Graph,
    part: &Partition,
    frontier: &[Vid],
    threads: usize,
) -> PushOutput<P::Update> {
    let world = part.num_parts();
    let chunks = par_map(threads, chunk_ranges(0..frontier.len()), |_, range| {
        let mut boxes: Vec<Vec<(Vid, P::Update)>> = (0..world).map(|_| Vec::new()).collect();
        let mut edges = 0u64;
        let examined = range.len() as u64;
        for &u in &frontier[range] {
            edges += prog.signal(u, graph.out_neighbors(u), &mut |dst, upd| {
                boxes[part.owner(dst)].push((dst, upd));
            });
        }
        (boxes, edges, examined)
    });
    let mut out = PushOutput {
        outboxes: (0..world).map(|_| Vec::new()).collect(),
        edges: 0,
        emitted: 0,
        chunk_costs: Vec::with_capacity(chunks.len()),
    };
    for (boxes, edges, examined) in chunks {
        for (dst, segment) in boxes.into_iter().enumerate() {
            out.emitted += segment.len() as u64;
            if !segment.is_empty() {
                out.outboxes[dst].push(segment);
            }
        }
        out.edges += edges;
        out.chunk_costs.push((edges, examined));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_in_order() {
        let c = EXEC_CHUNK;
        assert_eq!(
            chunk_ranges(0..2 * c + 2),
            vec![0..c, c..2 * c, 2 * c..2 * c + 2]
        );
        assert_eq!(chunk_ranges(3..7), vec![3..7]);
        assert!(chunk_ranges(5..5).is_empty());
        assert_eq!(chunk_ranges(1..c + 1), vec![1..c + 1]);
    }

    #[test]
    fn par_map_returns_results_in_task_order() {
        let tasks: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = tasks.iter().map(|t| t * t).collect();
        for threads in [1, 2, 8, 300] {
            let got = par_map(threads, tasks.clone(), |i, t| {
                assert_eq!(i, t, "index matches the task's position");
                t * t
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, empty, |_, t: u32| t).is_empty());
        assert_eq!(par_map(4, vec![9u32], |i, t| (i, t)), vec![(0, 9)]);
    }

    #[test]
    fn par_map_balances_imbalanced_tasks() {
        // One huge task plus many tiny ones: with stealing, the tiny
        // tasks drain on other workers. We can't observe the schedule
        // (by design), only that results stay ordered and complete.
        let mut tasks = vec![1_000_000u64];
        tasks.extend(std::iter::repeat_n(10u64, 63));
        let got = par_map(4, tasks, |_, spins| {
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(got.len(), 64);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        // A panic on any executor worker resurfaces on the caller when the
        // scope joins (std rethrows it as "a scoped thread panicked").
        let _ = par_map(2, vec![0u32, 1, 2, 3], |_, t| {
            if t == 2 {
                panic!("task failure must not be swallowed");
            }
            t
        });
    }
}
