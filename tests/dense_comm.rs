//! The communication shape of the dense path: a dependency-free pull
//! program under `Policy::symple()` puts on the wire exactly what
//! `Policy::Gemini` does (no dependency message, the same update and
//! sync messages byte for byte), PageRank synchronises its rank array
//! once per job rather than once per iteration, a program that declares
//! itself dependency-free and marks its slot anyway is caught — as is one
//! that claims a skip guard and emits from a skipped segment — and the
//! kernels that do carry a dependency send what they sent before the
//! dense path existed.

use symplegraph::algos::{bfs, kcore, pagerank, sampling};
use symplegraph::core::{
    run_spmd, BitDep, EngineConfig, Policy, PullProgram, RunStats, SignalOutcome, WireCodec,
};
use symplegraph::graph::{Graph, RmatConfig, Vid};
use symplegraph::net::{CommKind, CommStats, COMM_KINDS};
use symplegraph::udf::{instrument, paper_udfs, PropArray, PropertyStore, UdfProgram};

fn graph() -> Graph {
    RmatConfig::graph500(9, 8).seed(11).cleaned(true).generate()
}

/// `[update, dependency, sync]` as `(bytes, messages)`.
fn shape(comm: &CommStats) -> [(u64, u64); 3] {
    COMM_KINDS.map(|k| (comm.bytes(k), comm.messages(k)))
}

/// One pull of the checked, break-free `pagerank_udf`.
fn udf_pull(g: &Graph, cfg: &EngineConfig) -> RunStats {
    let inst = instrument(&paper_udfs::pagerank_udf()).expect("instrumentation");
    let mut props = PropertyStore::new();
    let contrib = (0..g.num_vertices() as i64).map(|i| i % 97).collect();
    props.insert("contrib", PropArray::Ints(contrib));
    let res = run_spmd(g, cfg, |w| {
        let prog = UdfProgram::new(&inst, &props);
        assert!(!prog.carries_dependency());
        let mut dep = prog.make_dep(w.dep_slots_needed());
        let mut sum = 0u64;
        w.pull(&prog, &mut dep, &mut |_, partial: u64| {
            sum = sum.wrapping_add(partial);
            false
        });
        sum
    });
    res.stats
}

#[test]
fn a_dependency_free_program_pays_what_gemini_pays() {
    let g = graph();
    for machines in [2usize, 3, 5] {
        for codec in [WireCodec::Flat, WireCodec::Adaptive] {
            let cfg = |policy| EngineConfig::new(machines, policy).wire_codec(codec);
            let label = format!("{machines} machines, {codec:?}");
            let jobs: [(&str, RunStats, RunStats); 2] = [
                (
                    "pagerank",
                    pagerank(&g, &cfg(Policy::symple()), 0, 4).1,
                    pagerank(&g, &cfg(Policy::Gemini), 0, 4).1,
                ),
                (
                    "pagerank_udf",
                    udf_pull(&g, &cfg(Policy::symple())),
                    udf_pull(&g, &cfg(Policy::Gemini)),
                ),
            ];
            for (job, symple, gemini) in jobs {
                let label = format!("{job}, {label}");
                assert_eq!(shape(&symple.comm)[1], (0, 0), "{label}");
                assert!(symple.comm.bytes(CommKind::Update) > 0, "{label}");
                assert_eq!(symple.work, gemini.work, "{label}");
                if codec == WireCodec::Flat {
                    // Every kind's bytes and messages and the format
                    // histogram: the same job on the same schedule.
                    assert_eq!(symple.comm, gemini.comm, "{label}");
                    assert_eq!(
                        symple.virtual_time().to_bits(),
                        gemini.virtual_time().to_bits(),
                        "{label}"
                    );
                } else {
                    // The differentiated layout lists a bucket's
                    // high-degree destinations before its low-degree
                    // ones, so an update stream holds Gemini's records
                    // in another order and the adaptive codec's block
                    // choices differ by a few bytes. Messages and
                    // collectives do not.
                    let messages = |c: &CommStats| shape(c).map(|(_, m)| m);
                    assert_eq!(messages(&symple.comm), messages(&gemini.comm), "{label}");
                    assert_eq!(shape(&symple.comm)[2], shape(&gemini.comm)[2], "{label}");
                }
            }
        }
    }
}

#[test]
fn pagerank_syncs_one_rank_array_per_job() {
    let g = graph();
    let n = g.num_vertices() as u64;
    for machines in [2u64, 4] {
        let cfg = EngineConfig::new(machines as usize, Policy::symple());
        let sync = |iters: u32| {
            let (out, stats) = pagerank(&g, &cfg, 0, iters);
            assert_eq!(out.iterations, iters);
            stats.comm.bytes(CommKind::Sync)
        };
        // An allgather sends each machine's payload to every peer.
        let links = machines * (machines - 1);
        // The dangling mass of the initial ranks (one u64 per machine),
        // then per iteration one (residual, dangling) pair, then every
        // master slice of the ranks to every peer.
        let per_iteration = 16 * links;
        let fixed = 8 * links + 8 * n * (machines - 1);
        assert_eq!(sync(1), fixed + per_iteration, "{machines} machines");
        assert_eq!(sync(10), fixed + 10 * per_iteration, "{machines} machines");
    }
}

/// Emits and marks its slot at the first neighbour, whatever the slot
/// already says — and makes three claims about itself, each of which the
/// engine can catch as a lie.
#[derive(Clone, Copy)]
struct FirstNeighbour {
    /// `false`: claims to be dependency-free (it marks its slot).
    carries: bool,
    /// `true`: claims its `signal` opens with a skip guard (it has none,
    /// so it emits from a skipped segment).
    guards: bool,
    /// Claims its skip is a certified latch.
    certified: bool,
}

impl PullProgram for FirstNeighbour {
    type Update = u32;
    type Dep = BitDep;

    fn dense_active(&self, _v: Vid) -> bool {
        true
    }

    fn carries_dependency(&self) -> bool {
        self.carries
    }

    fn guards_skip(&self) -> bool {
        self.guards
    }

    fn certified_latch(&self) -> bool {
        self.certified
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
        match srcs.first() {
            Some(u) => {
                emit(u.raw());
                dep.mark(slot);
                SignalOutcome::broke_after(1)
            }
            None => SignalOutcome::scanned(0),
        }
    }
}

/// One pull on two machines. Under `symple_basic` every destination's
/// slot circulates, so whatever step 0 marked reaches step 1 as a skipped
/// segment.
fn pull_once(prog: FirstNeighbour, policy: Policy) {
    let g = graph();
    run_spmd(&g, &EngineConfig::new(2, policy), |w| {
        let mut dep = BitDep::new(w.dep_slots_needed());
        w.pull(&prog, &mut dep, &mut |_, _| false)
    });
}

/// The check is a debug assertion: a release build runs the liar to
/// completion (each break then acts within its own segment, as under
/// Gemini).
#[test]
#[cfg_attr(
    debug_assertions,
    should_panic(expected = "carries_dependency() == false but marked")
)]
fn a_program_that_lies_about_its_dependency_is_caught_in_debug() {
    let liar = FirstNeighbour {
        carries: false,
        guards: false,
        certified: true,
    };
    pull_once(liar, Policy::symple());
}

/// A program that claims a certified latch is audited in debug builds
/// only: a release build trusts the certificate and skips the segment
/// without running it.
#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "latch violated"))]
fn a_certified_latch_that_does_not_hold_is_caught_in_debug() {
    let unguarded = FirstNeighbour {
        carries: true,
        guards: true,
        certified: true,
    };
    pull_once(unguarded, Policy::symple_basic());
}

/// Without a latch certificate every skipped segment is audited, in
/// release builds too.
#[test]
#[should_panic(expected = "latch violated")]
fn an_uncertified_latch_that_does_not_hold_is_caught_in_every_build() {
    let unguarded = FirstNeighbour {
        carries: true,
        guards: true,
        certified: false,
    };
    pull_once(unguarded, Policy::symple_basic());
}

#[test]
fn dependency_carrying_kernels_send_what_they_always_sent() {
    // `[update, dependency, sync]` as `(bytes, messages)`, measured on the
    // commit before the dense path: the schedule, the update streams and
    // the collectives of a program that carries a dependency did not
    // change with it.
    type Pinned = [[(u64, u64); 3]; 3];
    const FLAT: Pinned = [
        [(4448, 25), (90, 72), (15264, 276)],
        [(11610, 36), (414, 72), (864, 72)],
        [(9240, 12), (582, 24), (6144, 12)],
    ];
    const ADAPTIVE: Pinned = [
        [(2606, 25), (150, 72), (15264, 276)],
        [(4733, 36), (486, 72), (864, 72)],
        [(6477, 12), (606, 24), (6144, 12)],
    ];
    let g = graph();
    for (codec, [bfs_shape, kcore_shape, sampling_shape]) in
        [(WireCodec::Flat, FLAT), (WireCodec::Adaptive, ADAPTIVE)]
    {
        let cfg = EngineConfig::new(4, Policy::symple()).wire_codec(codec);
        let (_, stats) = bfs(&g, &cfg, Vid::new(1));
        assert_eq!(shape(&stats.comm), bfs_shape, "bfs, {codec:?}");
        let (_, stats) = kcore(&g, &cfg, 4);
        assert_eq!(shape(&stats.comm), kcore_shape, "kcore, {codec:?}");
        let (_, stats) = sampling(&g, &cfg, 7);
        assert_eq!(shape(&stats.comm), sampling_shape, "sampling, {codec:?}");
    }
}
