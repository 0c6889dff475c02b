//! The seeded config fuzzer (`support/fuzz.rs`) over its whole case
//! space: random and paper UDFs against Definition 2.3's reference
//! executor, whole kernels against their sequential references, all six
//! policies, 1–8 machines, every semantics-free axis. Each test draws a
//! fixed budget of cases from a seed fixed by its name, so a run is
//! reproducible; a failing case prints what it needs to be replayed as a
//! unit test.
//!
//! Three focus the transport: they flip it between the unbounded inbox
//! (`Backend::Sim`) and the bounded, backpressured one
//! (`Backend::Thread`). That class is exact — outputs, `WorkStats`,
//! `CommStats`, virtual time, its breakdown and the chrome trace; only
//! wall clocks may differ. Four run one paper kernel each on random
//! graphs, validated against its sequential reference before one
//! semantics-free axis is flipped. Five add or remove a random
//! fault plan: outputs, `WorkStats`, logical `CommStats` and the
//! trace-cell structure stay identical; the faults fire (`retransmits >
//! 0`, one timeout per resend) and a replay of the faulted run
//! reproduces it exactly, reliable overlay and virtual time included.
//!
//! The last two hold the dense path (folded in from the deleted
//! `dense_path.rs`): a dependency-free UDF's `f64` partial sums reach
//! each master in the order Definition 2.3's reference executor applies
//! them, under every knob; and PageRank, native and driven by the checked
//! `pagerank_udf` to convergence, equals `pagerank_reference` bit for bit.

#[macro_use]
#[path = "support/fuzz.rs"]
mod fuzz;

use fuzz::{Axis, Focus, JobKind::*, ALL_JOBS, KERNELS};
use symple_core::FaultPlan;

fuzz_tests! {
    generated_udfs_match_definition_2_3: Focus::new(&[Generated], &Axis::ALL), 32;
    paper_udfs_match_definition_2_3: Focus::new(&[PaperUdf], &Axis::ALL), 32;
    kernels_match_their_references: Focus::new(KERNELS, &Axis::ALL), 24;
    suite_is_bit_identical_across_backends: Focus::new(KERNELS, &[Axis::Backend]), 6;
    backends_agree_on_random_graphs: Focus::new(ALL_JOBS, &[Axis::Backend]), 6;
    fault_plans_replay_identically_on_both_backends:
        Focus::new(ALL_JOBS, &[Axis::Backend]).pin(|c| c.fault_plan = Some(FaultPlan::chaos(17))), 4;
    bfs_valid_on_random_graphs: Focus::new(&[Bfs], &Axis::ALL), 4;
    kcore_valid_on_random_graphs: Focus::new(&[Kcore], &Axis::ALL), 4;
    mis_valid_on_random_graphs: Focus::new(&[Mis], &Axis::ALL), 4;
    sampling_valid_on_random_graphs: Focus::new(&[Sampling], &Axis::ALL), 4;
    bfs_is_fault_invariant_across_threads: Focus::new(&[Bfs], &[Axis::Faults]), 3;
    kcore_is_fault_invariant_across_threads: Focus::new(&[Kcore], &[Axis::Faults]), 3;
    mis_is_fault_invariant_across_threads: Focus::new(&[Mis], &[Axis::Faults]), 3;
    bfs_on_random_graphs_absorbs_random_plans: Focus::new(&[Bfs, PaperUdf], &[Axis::Faults]), 4;
    faulted_runs_are_reproducible_end_to_end: Focus::new(ALL_JOBS, &[Axis::Faults]), 6;
    float_partials_fold_in_circulant_order_under_every_knob:
        Focus::new(&[DenseUdf], &Axis::ALL), 8;
    pagerank_native_and_udf_match_the_reference:
        Focus::new(&[Pagerank, RankUdf], &Axis::ALL), 8;
}
