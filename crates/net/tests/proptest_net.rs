//! Property-based tests of the network substrate: wire-codec roundtrips,
//! exact byte accounting, virtual-time laws (monotonicity, barrier
//! equalisation), and collective correctness on arbitrary inputs.

use proptest::prelude::*;
use symple_graph::Vid;
use symple_net::{decode_vec, encode_slice, Cluster, CommKind, CostModel, Tag, TagKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wire_roundtrip_u32(vals in proptest::collection::vec(any::<u32>(), 0..100)) {
        let bytes = encode_slice(&vals);
        prop_assert_eq!(bytes.len(), vals.len() * 4);
        prop_assert_eq!(decode_vec::<u32>(&bytes), Ok(vals));
    }

    #[test]
    fn wire_roundtrip_f32_pairs(vals in proptest::collection::vec((any::<f32>(), any::<u32>()), 0..60)) {
        let pairs: Vec<(f32, Vid)> = vals
            .iter()
            .map(|&(f, r)| (f, Vid::new(r)))
            .collect();
        let bytes = encode_slice(&pairs);
        let back: Vec<(f32, Vid)> = decode_vec(&bytes).unwrap();
        for (a, b) in pairs.iter().zip(&back) {
            prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
            prop_assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn byte_accounting_is_exact(
        sizes in proptest::collection::vec(0usize..2000, 1..10),
    ) {
        let total: usize = sizes.iter().sum();
        // Empty payloads are protocol placeholders: they still complete
        // the tagged handshake but ship nothing and are not counted.
        let nonempty = sizes.iter().filter(|&&s| s > 0).count();
        let r = Cluster::builder(2).cost(CostModel::zero()).build().unwrap().run(|ctx| {
            if ctx.rank() == 0 {
                for (i, &s) in sizes.iter().enumerate() {
                    ctx.send(1, Tag::new(TagKind::User, i as u64, 0), CommKind::Update, vec![0; s]);
                }
            } else {
                for i in 0..sizes.len() {
                    ctx.recv(0, Tag::new(TagKind::User, i as u64, 0));
                }
            }
        });
        prop_assert_eq!(r.traces.comm().bytes(CommKind::Update), total as u64);
        prop_assert_eq!(r.traces.comm().messages(CommKind::Update), nonempty as u64);
    }

    #[test]
    fn empty_messages_cost_no_virtual_time(n in 1usize..8) {
        // A stream of empty placeholder messages must leave every clock at
        // zero under a model with nonzero latency/overhead: no header
        // charge at the sender, no transfer delay at the receiver.
        let r = Cluster::builder(2).cost(CostModel::cluster_a()).build().unwrap().run(move |ctx| {
            if ctx.rank() == 0 {
                for i in 0..n {
                    ctx.send(1, Tag::new(TagKind::User, i as u64, 0), CommKind::Update, Vec::new());
                }
            } else {
                for i in 0..n {
                    let buf = ctx.recv(0, Tag::new(TagKind::User, i as u64, 0));
                    assert!(buf.is_empty());
                }
            }
            ctx.virtual_clock()
        });
        prop_assert_eq!(r.traces.comm().total_bytes(), 0);
        prop_assert_eq!(r.traces.comm().total_messages(), 0);
        for clock in r.outputs {
            prop_assert_eq!(clock, 0.0);
        }
    }

    #[test]
    fn virtual_clock_is_monotonic(advances in proptest::collection::vec(0.0f64..10.0, 1..20)) {
        let r = Cluster::builder(1).cost(CostModel::zero()).build().unwrap().run(|ctx| {
            let mut last = ctx.virtual_clock();
            for &a in &advances {
                ctx.advance(a);
                let now = ctx.virtual_clock();
                assert!(now >= last);
                last = now;
            }
            last
        });
        let expect: f64 = advances.iter().sum();
        prop_assert!((r.outputs[0] - expect).abs() < 1e-9);
    }

    #[test]
    fn barrier_equalises_to_max(clocks in proptest::collection::vec(0.0f64..100.0, 2..6)) {
        let p = clocks.len();
        let clocks2 = clocks.clone();
        let r = Cluster::builder(p).cost(CostModel::zero()).build().unwrap().run(move |ctx| {
            ctx.advance(clocks2[ctx.rank()]);
            ctx.barrier();
            ctx.virtual_clock()
        });
        let max = clocks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for c in r.outputs {
            prop_assert!((c - max).abs() < 1e-9);
        }
    }

    #[test]
    fn allreduce_sum_matches_reference(vals in proptest::collection::vec(0u64..1_000_000, 2..6)) {
        let p = vals.len();
        let vals2 = vals.clone();
        let r = Cluster::builder(p).cost(CostModel::zero()).build().unwrap().run(move |ctx| {
            ctx.allreduce_u64_sum(vals2[ctx.rank()])
        });
        let expect: u64 = vals.iter().sum();
        for got in r.outputs {
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn transfer_time_is_affine_in_bytes(a in 0u64..10_000, b in 0u64..10_000) {
        let m = CostModel::cluster_a();
        let t = |x: u64| m.transfer_time(x);
        // t(a) + t(b) == t(a + b) + latency (one latency per message)
        let lhs = t(a) + t(b);
        let rhs = t(a + b) + m.msg_latency_sec;
        prop_assert!((lhs - rhs).abs() < 1e-15);
    }
}

/// Messages on one (src, dst, tag-sequence) channel arrive with
/// non-decreasing modelled departure stamps (FIFO order preserved).
#[test]
fn fifo_departure_order() {
    let r = Cluster::builder(2)
        .cost(CostModel::cluster_a())
        .build()
        .unwrap()
        .run(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..20u64 {
                    ctx.advance(0.5);
                    ctx.send(
                        1,
                        Tag::new(TagKind::User, i, 0),
                        CommKind::Update,
                        vec![0; 8],
                    );
                }
                0.0
            } else {
                let mut last_arrival = f64::NEG_INFINITY;
                for i in 0..20u64 {
                    ctx.recv(0, Tag::new(TagKind::User, i, 0));
                    let now = ctx.virtual_clock();
                    assert!(now >= last_arrival);
                    last_arrival = now;
                }
                last_arrival
            }
        });
    assert!(r.outputs[1] > 0.0);
}
