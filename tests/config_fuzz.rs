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
//! wall clocks may differ. The last four run one paper kernel each on
//! random graphs, validated against its sequential reference before one
//! semantics-free axis is flipped.

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
}
