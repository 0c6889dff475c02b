//! Thread-count and framing invariance: seeded config-fuzzer cases
//! (`support/fuzz.rs`) that flip `threads`, whose class is identical
//! outputs, `WorkStats`, `CommStats` and trace bytes per category; or
//! that flip `wire_codec`, where adaptive bytes stay within a one-byte
//! format tag per message of flat ones. The two framing tests draw only
//! large graphs, whose passes span several executor chunks and whose
//! update streams span several exchange frames, and fail unless their
//! runs reach both. Every case is first held to its reference.

#[macro_use]
#[path = "support/fuzz.rs"]
mod fuzz;

use fuzz::{Axis::*, Focus, JobKind::*, ALL_JOBS};
use symple_core::{FaultPlan, TraceLevel, WireCodec};

fuzz_tests! {
    bfs_identical_for_any_thread_count: Focus::new(&[Bfs], &[Threads]), 3;
    kcore_identical_for_any_thread_count: Focus::new(&[Kcore], &[Threads]), 3;
    sampling_identical_for_any_thread_count: Focus::new(&[Sampling], &[Threads]), 3;
    comm_byte_categories_identical_across_threads:
        Focus::new(ALL_JOBS, &[Threads]).pin(|c| c.trace_level = TraceLevel::Metrics), 4;
    threaded_runs_match_sequential_on_random_graphs: Focus::new(ALL_JOBS, &[Threads]), 6;
    wire_codec_is_invisible_to_outputs_and_work: Focus::new(ALL_JOBS, &[WireCodec]), 4;
    adaptive_comm_is_thread_invariant_and_never_larger:
        Focus::new(ALL_JOBS, &[Threads, WireCodec]).pin(|c| c.wire_codec = WireCodec::Adaptive), 4;
    exchange_framing_invisible_at_any_thread_count: Focus::new(ALL_JOBS, &[Threads]).large(), 4;
    exchange_framings_absorb_chaos_plans_identically:
        Focus::new(ALL_JOBS, &[Threads]).pin(|c| c.fault_plan = Some(FaultPlan::chaos(42))).large(), 4;
}
