//! Property-based tests of the adaptive wire codec: decode ∘ encode = id
//! on arbitrary record streams, the chosen format is always the
//! byte-minimal of flat / dense bitmap / sparse delta-varint, and a cut or
//! corrupted message decodes or is an `Err`, never a panic.

use proptest::prelude::*;
use symple_graph::Vid;
use symple_net::{
    decode_dep_range, decode_updates, decode_vec, dep_range_sizes, encode_dep_range, encode_slice,
    encode_updates, varint_len, WireFormat,
};

/// Every strict prefix of `msg`, then `msg` with each byte in turn XORed
/// with `mask`.
fn damaged(msg: &[u8], mask: u8) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..msg.len()).map(|len| msg[..len].to_vec());
    prefixes.chain((0..msg.len()).map(move |i| {
        let mut bad = msg.to_vec();
        bad[i] ^= mask;
        bad
    }))
}

/// Builds the engine's flat `(u32 LE key, payload)` layout.
fn flat_stream(records: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, p) in records {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// Arbitrary records: a payload size shared by the stream (0, 1, 4 and 8
/// bytes cover the engine's update payload types: unit, counter, Vid/u32,
/// and (f32, Vid)), plus keys of arbitrary order and density.
fn arb_records() -> impl Strategy<Value = (usize, Vec<(u32, Vec<u8>)>)> {
    prop_oneof![Just(0usize), Just(1usize), Just(4usize), Just(8usize)].prop_flat_map(|psize| {
        proptest::collection::vec(
            (
                0u32..5000,
                proptest::collection::vec(any::<u8>(), psize..psize + 1),
            ),
            0..200,
        )
        .prop_map(move |recs| (psize, recs))
    })
}

/// A sorted-unique slot set over a range of `n` slots with the given
/// density percentage (0–100% inclusive), plus per-slot payloads.
fn arb_dep_range() -> impl Strategy<Value = (usize, usize, Vec<u32>, Vec<Vec<u8>>)> {
    (
        1usize..600,
        prop_oneof![Just(0usize), Just(1usize), Just(5usize), Just(9usize)],
        0u32..102,
    )
        .prop_flat_map(|(n, psize, density)| {
            let keep = proptest::collection::vec(0u32..100, n..n + 1);
            let bytes = proptest::collection::vec(any::<u8>(), n * psize..n * psize + 1);
            (keep, bytes).prop_map(move |(keep, bytes)| {
                let slots: Vec<u32> = (0..n as u32)
                    .filter(|&s| keep[s as usize] < density)
                    .collect();
                let payloads = slots
                    .iter()
                    .map(|&s| bytes[s as usize * psize..(s as usize + 1) * psize].to_vec())
                    .collect();
                (n, psize, slots, payloads)
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn update_decode_encode_is_identity((psize, records) in arb_records()) {
        let flat = flat_stream(&records);
        let mut wire = Vec::new();
        let stats = encode_updates(&flat, psize, &mut wire);
        let mut back = Vec::new();
        decode_updates(&wire, psize, &mut back).unwrap();
        prop_assert_eq!(&back, &flat, "decode ∘ encode must be the identity");
        // The codec never loses: worst case is flat passthrough + 1 tag.
        if flat.is_empty() {
            prop_assert!(wire.is_empty(), "empty streams encode to zero bytes");
        } else {
            prop_assert!(wire.len() <= flat.len() + 1);
            prop_assert!(stats.blocks.iter().sum::<u64>() >= 1);
        }
    }

    #[test]
    fn sorted_unique_updates_beat_every_whole_message_formula(
        psize in prop_oneof![Just(0usize), Just(4usize), Just(8usize)],
        raw_keys in proptest::collection::vec(0u32..100_000, 1..300),
    ) {
        let mut keys = raw_keys;
        keys.sort_unstable();
        keys.dedup();
        // A single strictly-ascending run: the encoder must do at least as
        // well as each of the three formats applied to the whole message.
        let records: Vec<(u32, Vec<u8>)> = keys
            .iter()
            .map(|&k| (k, vec![k as u8; psize]))
            .collect();
        let flat = flat_stream(&records);
        let mut wire = Vec::new();
        encode_updates(&flat, psize, &mut wire);

        let k = keys.len() as u64;
        let first = u64::from(*keys.first().unwrap());
        let span = u64::from(*keys.last().unwrap()) - first + 1;
        let flat_size = 1 + flat.len() as u64;
        // Blocked single-run framing: message tag + varint(1 block).
        let dense_size = 2 + 1
            + varint_len(first) as u64
            + varint_len(span) as u64
            + span.div_ceil(8)
            + k * psize as u64;
        let mut prev = 0u64;
        let mut deltas = 0u64;
        for &key in &keys {
            deltas += varint_len(u64::from(key) - prev) as u64;
            prev = u64::from(key);
        }
        let sparse_size = 2 + 1 + varint_len(k) as u64 + deltas + k * psize as u64;
        let best = flat_size.min(dense_size).min(sparse_size);
        prop_assert!(
            (wire.len() as u64) <= best,
            "chose {} bytes, best whole-message format is {}",
            wire.len(),
            best
        );

        let mut back = Vec::new();
        decode_updates(&wire, psize, &mut back).unwrap();
        prop_assert_eq!(back, flat);
    }

    #[test]
    fn dep_range_roundtrip_picks_the_minimum((n, psize, slots, payloads) in arb_dep_range()) {
        // Flat stand-in body: one byte per slot (1 = non-default) followed
        // by the payloads — the shape of the engine's per-slot layouts.
        let flat_len = n + slots.len() * psize;
        let mut wire = Vec::new();
        let slots_enc = slots.clone();
        let payloads_enc = payloads.clone();
        let chosen = encode_dep_range(
            n,
            psize,
            &slots,
            flat_len,
            &mut |out: &mut Vec<u8>| {
                let mark = out.len();
                out.resize(mark + n, 0);
                for &s in &slots_enc {
                    out[mark + s as usize] = 1;
                }
                for p in &payloads_enc {
                    out.extend_from_slice(p);
                }
            },
            &mut |slot, out: &mut Vec<u8>| {
                let i = slots_enc.iter().position(|&s| s == slot).unwrap();
                out.extend_from_slice(&payloads_enc[i]);
            },
            &mut wire,
        );

        // Chosen format is the byte-minimal of the three exact formulas.
        let sizes = dep_range_sizes(n, psize, &slots, flat_len);
        prop_assert_eq!(wire.len() as u64, *sizes.iter().min().unwrap());
        prop_assert_eq!(wire.len() as u64, sizes[chosen.index()]);
        for f in WireFormat::ALL {
            prop_assert!(sizes[chosen.index()] <= sizes[f.index()]);
        }

        // Round-trip: the receiver reconstructs exactly the encoded slots.
        let got = std::cell::RefCell::new(vec![None::<Vec<u8>>; n]);
        let slots_dec = slots.clone();
        let payloads_dec = payloads.clone();
        decode_dep_range(
            n,
            psize,
            &wire,
            &mut |body: &[u8]| {
                assert_eq!(body.len(), flat_len);
                for (i, &s) in slots_dec.iter().enumerate() {
                    assert_eq!(body[s as usize], 1, "flat body must mark slot {s}");
                    got.borrow_mut()[s as usize] = Some(payloads_dec[i].clone());
                }
            },
            &mut || {},
            &mut |slot, payload: &[u8]| got.borrow_mut()[slot as usize] = Some(payload.to_vec()),
        )
        .unwrap();
        let got = got.into_inner();
        for (i, g) in got.iter().enumerate() {
            match slots.iter().position(|&s| s as usize == i) {
                Some(j) => prop_assert_eq!(g.as_deref(), Some(payloads[j].as_slice())),
                None => prop_assert!(g.is_none(), "slot {} must stay default", i),
            }
        }
    }

    #[test]
    fn damaged_update_messages_decode_or_fail(
        (psize, mut records) in arb_records(),
        mask in 1u8..255,
    ) {
        records.truncate(48);
        let mut wire = Vec::new();
        encode_updates(&flat_stream(&records), psize, &mut wire);
        for bad in damaged(&wire, mask) {
            let mut out = Vec::new();
            if decode_updates(&bad, psize, &mut out).is_ok() {
                prop_assert_eq!(out.len() % (4 + psize), 0, "whole records only");
            }
        }
    }

    #[test]
    fn damaged_dependency_messages_decode_or_fail(
        (n, psize, slots, payloads) in arb_dep_range(),
        mask in 1u8..255,
    ) {
        let n = n.min(96);
        let slots: Vec<u32> = slots.into_iter().filter(|&s| (s as usize) < n).collect();
        let mut wire = Vec::new();
        let chosen = encode_dep_range(
            n,
            psize,
            &slots,
            n,
            &mut |out: &mut Vec<u8>| out.resize(out.len() + n, 1),
            &mut |slot, out: &mut Vec<u8>| out.extend_from_slice(&payloads[slot as usize % payloads.len().max(1)]),
            &mut wire,
        );
        for (i, bad) in damaged(&wire, mask).enumerate() {
            let res = decode_dep_range(n, psize, &bad, &mut |_| (), &mut || (), &mut |slot, payload| {
                assert!((slot as usize) < n && payload.len() == psize);
            });
            // A packed message's strict prefix is always short: `n` is
            // known to both sides.
            if i < wire.len() && (i == 0 || chosen != WireFormat::Flat) {
                prop_assert!(res.is_err(), "prefix of {} bytes decoded", i);
            }
        }
    }

    #[test]
    fn damaged_value_slices_decode_or_fail(
        vals in proptest::collection::vec((any::<f32>(), any::<u32>()), 0..40),
        mask in 1u8..255,
    ) {
        let pairs: Vec<(f32, Vid)> = vals.iter().map(|&(f, r)| (f, Vid::new(r))).collect();
        let bytes = encode_slice(&pairs);
        for (i, bad) in damaged(&bytes, mask).enumerate() {
            let res = decode_vec::<(f32, Vid)>(&bad);
            prop_assert_eq!(res.is_ok(), i >= bytes.len() || i % 8 == 0);
        }
    }
}
