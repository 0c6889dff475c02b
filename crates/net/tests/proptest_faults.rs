//! Property-based tests of the fault-injection + reliable-delivery layer:
//! for ANY seeded fault plan, message exchanges observe exactly-once
//! delivery with payloads and logical traffic accounting bit-identical to
//! the fault-free run, a tag names one message (a second send under it
//! fails typed, and its payload never reaches the receiver), and
//! retransmission-budget exhaustion surfaces as a typed error instead of
//! a hang.

use proptest::prelude::*;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;
use symple_net::{
    Backend, Cause, Cluster, ClusterResult, CommKind, CostModel, FaultPlan, RunError, Tag, TagKind,
    RETRY_ATTEMPTS,
};

/// An arbitrary fault plan with every rate in a range the retry budget
/// ([`RETRY_ATTEMPTS`]) absorbs with margin (drop ≤ 0.5 → P(20 consecutive drops) < 1e-6
/// per message, negligible across every generated case).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0..0.5f64,
        0.0..1.0f64,
        0.0..1.0f64,
        0u32..6,
        0.0..1.0f64,
    )
        .prop_map(|(seed, drop, dup, delay, steps, reorder)| {
            FaultPlan::new(seed)
                .drop_rate(drop)
                .dup_rate(dup)
                .delay_rate(delay)
                .max_delay_steps(steps)
                .reorder_rate(reorder)
        })
}

/// Every node sends `rounds` tagged messages to every peer, then receives
/// the same pattern back; the output is the concatenation of everything
/// received, in protocol order.
fn all_to_all(cluster: Cluster, world: usize, rounds: u64) -> ClusterResult<Vec<u8>> {
    cluster.run(move |ctx| {
        let mut seen = Vec::new();
        for round in 0..rounds {
            let tag = Tag::new(TagKind::User, round, 0);
            for dst in 0..world {
                if dst != ctx.rank() {
                    ctx.send(
                        dst,
                        tag,
                        CommKind::Update,
                        vec![ctx.rank() as u8, round as u8, dst as u8],
                    );
                }
            }
            for src in 0..world {
                if src != ctx.rank() {
                    seen.extend(ctx.recv(src, tag));
                }
            }
        }
        seen
    })
}

/// Rank 0 sends rank 1 a message under one tag, waits for rank 1's
/// acknowledgement, then sends a second message under the same tag; rank
/// 1 receives that tag until its run ends. Returns the second send's
/// failure (rank 0 then fails its run with it), every payload rank 1
/// received, and the failure `Cluster::run` re-raised.
fn reuse_a_tag(cluster: Cluster) -> (Option<Cause>, Vec<Vec<u8>>, String) {
    let (tag, ack) = (Tag::new(TagKind::User, 0, 0), Tag::new(TagKind::User, 1, 0));
    let (cause, seen) = (Mutex::new(None), Mutex::new(Vec::new()));
    let run = AssertUnwindSafe(|| {
        cluster.run(|ctx| {
            if ctx.rank() == 1 {
                let first = ctx.recv(0, tag);
                seen.lock().unwrap().push(first);
                ctx.send(0, ack, CommKind::Sync, Vec::new());
                loop {
                    let next = ctx.recv(0, tag);
                    seen.lock().unwrap().push(next);
                }
            }
            ctx.send(1, tag, CommKind::Update, vec![1]);
            ctx.recv(1, ack);
            let second = || ctx.send(1, tag, CommKind::Update, vec![2]);
            let err = catch_unwind(AssertUnwindSafe(second)).expect_err("a reused tag must fail");
            *cause.lock().unwrap() = err.downcast_ref::<RunError>().map(|e| e.cause.clone());
            resume_unwind(err)
        })
    });
    let raised = catch_unwind(run).expect_err("rank 0's failure fails the run");
    let raised = raised.downcast_ref::<String>().cloned().unwrap_or_default();
    (
        cause.into_inner().unwrap(),
        seen.into_inner().unwrap(),
        raised,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_plan_is_absorbed_by_the_reliable_layer(
        plan in arb_plan(),
        world in 2usize..5,
        rounds in 1u64..6,
    ) {
        let clean = all_to_all(Cluster::builder(world).cost(CostModel::cluster_a()).build().unwrap(), world, rounds);
        let faulted = all_to_all(
            Cluster::builder(world)
                .cost(CostModel::cluster_a())
                .fault_plan(plan)
                .build()
                .unwrap(),
            world,
            rounds,
        );
        // Exactly-once, in-order delivery: every payload byte matches.
        prop_assert_eq!(&clean.outputs, &faulted.outputs);
        // Logical traffic accounting is fault-invariant; only the
        // reliable overlay may differ.
        prop_assert_eq!(
            clean.traces.comm().bytes(CommKind::Update),
            faulted.traces.comm().bytes(CommKind::Update)
        );
        prop_assert_eq!(
            clean.traces.comm().messages(CommKind::Update),
            faulted.traces.comm().messages(CommKind::Update)
        );
        prop_assert!(faulted.virtual_time >= clean.virtual_time);
        let rel = faulted.traces.comm().reliable();
        prop_assert_eq!(rel.acks, (world * (world - 1)) as u64 * rounds);
        // Each timeout triggered exactly one resend (no exhaustion at
        // these rates), and duplicates never survive to the application.
        prop_assert_eq!(rel.timeouts, rel.retransmits);
    }

    #[test]
    fn faulted_runs_are_reproducible(plan in arb_plan()) {
        let build = |plan: FaultPlan| {
            Cluster::builder(3)
                .cost(CostModel::cluster_a())
                .fault_plan(plan)
                .build()
                .unwrap()
        };
        let a = all_to_all(build(plan), 3, 4);
        let b = all_to_all(build(plan), 3, 4);
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.traces.comm(), b.traces.comm());
        prop_assert_eq!(a.virtual_time, b.virtual_time);
    }

    #[test]
    fn a_reused_tag_fails_typed_under_any_plan(plan in arb_plan()) {
        for plan in [None, Some(plan)] {
            for backend in [Backend::Sim, Backend::Thread] {
                let cluster = Cluster::builder(2)
                    .cost(CostModel::zero())
                    .backend(backend)
                    .fault_plan(plan)
                    .recv_timeout(Duration::from_secs(10))
                    .build()
                    .unwrap();
                let (cause, seen, raised) = reuse_a_tag(cluster);
                prop_assert_eq!(cause, Some(Cause::TagReused { dst: 1 }));
                prop_assert_eq!(seen, vec![vec![1]], "the second payload never arrives");
                prop_assert!(
                    raised.ends_with(": tag reused: a second message to node 1"),
                    "{}",
                    raised
                );
            }
        }
    }

    #[test]
    fn exhaustion_is_typed_and_deterministic(seed in any::<u64>()) {
        // Certain drop: every send fails with the same typed error, no
        // matter the seed, and nothing hangs waiting for an ack.
        let plan = FaultPlan::new(seed).drop_rate(1.0);
        let r = Cluster::builder(2)
            .cost(CostModel::zero())
            .fault_plan(plan)
            .build()
            .unwrap()
            .run(move |ctx| {
                if ctx.rank() != 0 {
                    return None;
                }
                let tag = Tag::new(TagKind::User, 0, 0);
                let send = || ctx.send(1, tag, CommKind::Update, vec![1]);
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(send)).unwrap_err();
                err.downcast::<RunError>().ok().map(|e| e.cause)
            });
        prop_assert_eq!(r.outputs[0].clone(), Some(Cause::Unreachable { dst: 1 }));
        prop_assert_eq!(r.traces.comm().reliable().timeouts, u64::from(RETRY_ATTEMPTS));
    }
}
