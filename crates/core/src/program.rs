//! The signal–slot programming abstraction (paper §2.2, Figure 4).
//!
//! A *pull* (dense) program processes, for every candidate destination
//! vertex `v`, the slice of `v`'s in-neighbours mastered on the executing
//! machine, and emits at most a few update messages to `v`'s master. A
//! *push* (sparse) program walks the out-edges of frontier vertices.
//! Loop-carried dependency lives in pull programs: their signal function
//! may `break` out of the neighbour loop and record that decision in the
//! dependency state so downstream machines skip the remaining neighbours.
//!
//! The `slot` application function (the paper's `slot` UDF) is passed to
//! [`crate::Worker::pull`] as a closure so it can mutate algorithm state
//! owned by the caller.

use crate::DepState;
use symple_graph::Vid;
use symple_net::Wire;

/// What a signal invocation did, reported back to the engine for exact
/// accounting (Table 5 counts traversed edges; the paper's speedups hinge
/// on this number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignalOutcome {
    /// Number of neighbour edges actually examined.
    pub edges: u64,
    /// Whether the loop-carried break condition fired in this segment.
    pub broke: bool,
}

impl SignalOutcome {
    /// A signal that scanned `edges` edges without breaking.
    pub fn scanned(edges: u64) -> Self {
        SignalOutcome {
            edges,
            broke: false,
        }
    }

    /// A signal that scanned `edges` edges and then hit the break.
    pub fn broke_after(edges: u64) -> Self {
        SignalOutcome { edges, broke: true }
    }
}

/// A dense (pull-mode) vertex program.
///
/// Implementations borrow the algorithm's read-only iteration state
/// (frontiers, colors, weights) and are constructed fresh each iteration.
/// `Sync` because the chunked executor calls [`PullProgram::signal`] from
/// several worker threads at once (with disjoint dependency shards);
/// programs hold shared references to iteration state, so this costs
/// nothing in practice.
pub trait PullProgram: Sync {
    /// Payload of update messages sent to the master (paired with the
    /// destination vertex id on the wire). `Send` so chunks can collect
    /// updates on executor threads.
    type Update: Wire + Copy + Send;

    /// Dependency state type (choose [`crate::BitDep`],
    /// [`crate::CountDep`], [`crate::WeightDep`], or a custom impl).
    /// `Send` so the executor can move detached shards onto its workers.
    type Dep: DepState + Send;

    /// Is `v` a candidate destination this iteration? (Gemini's dense
    /// frontier predicate — e.g. "not yet visited" for bottom-up BFS.)
    fn dense_active(&self, v: Vid) -> bool;

    /// Does [`PullProgram::signal`] ever write its dependency state — does
    /// the neighbour loop `break` or thread a value from one segment to
    /// the next? The paper's analyzer instruments a UDF only when it finds
    /// such a dependency (§4); a program that answers `false` here (no
    /// break: every edge is examined whatever the other machines saw) is
    /// run on the dense schedule Gemini uses — one pass over each bucket,
    /// no dependency messages, no waiting on the previous machine — under
    /// every policy. Outputs and edges traversed are the same either way;
    /// only the schedule's cost differs. A program that answers `false`
    /// and marks its slot anyway trips a debug assertion.
    fn carries_dependency(&self) -> bool {
        true
    }

    /// Does [`PullProgram::signal`] begin with a skip-bit guard that
    /// returns before any observable work? Hand-written programs check
    /// `dep.should_skip` themselves (and so never need the executor's
    /// skip branch audited); instrumented UDFs rely on the injected
    /// receive guard and report `true` here.
    fn guards_skip(&self) -> bool {
        false
    }

    /// Is "skip" a proven latch — once set for a slot, re-running the
    /// segment provably changes nothing? Defaults to `true` (a local
    /// break is structurally permanent for every built-in dependency
    /// state); instrumented UDFs answer from their abstract-interpretation
    /// certificate. When `false` the executor re-runs every skipped
    /// segment under a no-emission audit, in release builds too (debug
    /// builds audit every program that [guards its skip](Self::guards_skip)).
    fn certified_latch(&self) -> bool {
        true
    }

    /// Process the local in-neighbour segment `srcs` of vertex `v`.
    ///
    /// `dep`/`slot` give access to `v`'s dependency state: read carried
    /// values, record breaks. `carried` says whether that state travels
    /// across machines (`true` on the dependency-propagated path) or is a
    /// machine-local scratch slot (`false`: the Gemini baseline and the
    /// low-degree fallback of differentiated propagation, §5.2). Programs
    /// whose correctness relies on *data* dependency — e.g. prefix-sum
    /// sampling — must switch to a decomposable formulation when
    /// `carried` is `false`; control-only programs can ignore it (a local
    /// break is always sound).
    ///
    /// `emit(update)` queues an update for `v`'s master. Returns exact
    /// edge accounting.
    fn signal(
        &self,
        v: Vid,
        srcs: &[Vid],
        dep: &mut Self::Dep,
        slot: usize,
        carried: bool,
        emit: &mut dyn FnMut(Self::Update),
    ) -> SignalOutcome;
}

/// A sparse (push-mode) vertex program. Push mode has no loop-carried
/// dependency (each out-edge is independent), so there is no dependency
/// state. `Sync` for the same reason as [`PullProgram`]: the chunked
/// executor fans the frontier walk out over worker threads.
pub trait PushProgram: Sync {
    /// Payload of update messages (paired with the destination id);
    /// bounded as [`PullProgram::Update`] is.
    type Update: Wire + Copy + Send;

    /// Process the out-neighbours `dsts` of frontier vertex `u`.
    /// `emit(dst, update)` queues an update for `dst`'s master.
    /// Returns the number of edges examined.
    fn signal(&self, u: Vid, dsts: &[Vid], emit: &mut dyn FnMut(Vid, Self::Update)) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitDep;

    struct CountFirst;
    impl PullProgram for CountFirst {
        type Update = u32;
        type Dep = BitDep;
        fn dense_active(&self, _v: Vid) -> bool {
            true
        }
        fn signal(
            &self,
            _v: Vid,
            srcs: &[Vid],
            dep: &mut BitDep,
            slot: usize,
            _carried: bool,
            emit: &mut dyn FnMut(u32),
        ) -> SignalOutcome {
            for (i, s) in srcs.iter().enumerate() {
                if s.raw() % 2 == 0 {
                    emit(s.raw());
                    dep.mark(slot);
                    return SignalOutcome::broke_after(i as u64 + 1);
                }
            }
            SignalOutcome::scanned(srcs.len() as u64)
        }
    }

    #[test]
    fn outcome_constructors() {
        assert_eq!(
            SignalOutcome::scanned(5),
            SignalOutcome {
                edges: 5,
                broke: false
            }
        );
        assert!(SignalOutcome::broke_after(2).broke);
    }

    #[test]
    fn pull_program_contract() {
        let p = CountFirst;
        let mut dep = BitDep::new(1);
        let mut got = Vec::new();
        let srcs = [Vid::new(1), Vid::new(3), Vid::new(4), Vid::new(5)];
        let out = p.signal(Vid::new(0), &srcs, &mut dep, 0, true, &mut |u| got.push(u));
        assert_eq!(out, SignalOutcome::broke_after(3));
        assert_eq!(got, [4]);
        assert!(dep.should_skip(0));
    }

    #[test]
    fn pull_program_no_break() {
        let p = CountFirst;
        let mut dep = BitDep::new(1);
        let srcs = [Vid::new(1), Vid::new(3)];
        let out = p.signal(Vid::new(0), &srcs, &mut dep, 0, false, &mut |_| {});
        assert_eq!(out, SignalOutcome::scanned(2));
        assert!(!dep.should_skip(0));
    }
}
