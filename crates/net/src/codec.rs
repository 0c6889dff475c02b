//! Adaptive sparse/dense wire encodings for record-stream messages.
//!
//! A flat message is an array of fixed-size records — `(u32 key, payload)`
//! update records, one byte (or word) per dependency slot — whatever its
//! density. Two cheaper encodings and a deterministic chooser sit on top:
//!
//! * **Dense bitmap** ([`WireFormat::Dense`]): one bit per key of the
//!   block's key span, then the set keys' payloads in ascending order.
//! * **Sparse delta-varint** ([`WireFormat::Sparse`]): each key as a
//!   LEB128 delta from its predecessor (the first is absolute), then its
//!   payload.
//! * **Flat** ([`WireFormat::Flat`]): the fixed-size layout, kept for
//!   incompressible or unsorted data.
//!
//! The chooser computes each candidate's **exact** size and picks the
//! minimum (ties go to the lowest tag), so the choice is a pure function
//! of the payload bytes. [`encode_updates`]/[`decode_updates`] carry
//! self-describing update messages, one block per maximal non-decreasing
//! key run (an engine stream is a few ascending runs, not sorted);
//! [`encode_dep_range`]/[`decode_dep_range`] carry dependency ranges,
//! whose slot count `n` both sides know, so the dense bitmap needs no span
//! header.
//!
//! Decoding reconstructs the sender's flat bytes exactly, reading them
//! through [`crate::Reader`]: a message no encoder writes — short, long,
//! an unknown tag, a key outside its range — is a [`CodecError`], never a
//! panic and never a write past the range.

use crate::{CodecError, Reader, Wire};
use std::fmt;

/// On-the-wire encoding of one message (or block). The discriminant is the
/// 1-byte format tag written to the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WireFormat {
    /// Fixed-size records, exactly the pre-codec layout.
    Flat = 0,
    /// Bitmap over a contiguous key span + packed payloads of set keys.
    Dense = 1,
    /// LEB128 key deltas + payloads.
    Sparse = 2,
}

impl WireFormat {
    /// All formats, in tag order.
    pub const ALL: [WireFormat; 3] = [WireFormat::Flat, WireFormat::Dense, WireFormat::Sparse];

    /// Stable index for per-format arrays (= the wire tag).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Flat => "flat",
            WireFormat::Dense => "dense",
            WireFormat::Sparse => "sparse",
        }
    }

    fn from_tag(tag: u8) -> Result<WireFormat, CodecError> {
        let known = WireFormat::ALL.get(usize::from(tag)).copied();
        known.ok_or(CodecError::UnknownTag(tag))
    }
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which codec the engine applies to remote messages. This is the
/// `EngineConfig::wire_codec` knob's value type; it lives here so the net
/// crate can be exercised without the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Ship the seed's flat layouts unchanged (byte-compatible default).
    #[default]
    Flat,
    /// Per message, pick the byte-minimal of flat/dense/sparse.
    Adaptive,
}

/// Per-format byte and block counters produced by one or more encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecStats {
    /// Encoded bytes attributed to each chosen format (block framing
    /// included, message framing excluded), indexed by
    /// [`WireFormat::index`].
    pub bytes: [u64; 3],
    /// Number of blocks (whole messages count as one block) encoded in
    /// each format.
    pub blocks: [u64; 3],
}

impl CodecStats {
    fn note(&mut self, fmt: WireFormat, bytes: u64) {
        self.bytes[fmt.index()] += bytes;
        self.blocks[fmt.index()] += 1;
    }
}

/// Encoded length of `v` as an unsigned LEB128 varint (1–10 bytes).
pub fn varint_len(v: u64) -> usize {
    let bits = 64 - v.max(1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Appends `v` as an unsigned LEB128 varint ([`Reader::varint`] reads it).
pub(crate) fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

// ---------------------------------------------------------------------------
// Update-stream codec: self-describing (u32 key, payload) record messages
// ---------------------------------------------------------------------------

/// One maximal non-decreasing key run of the input stream.
struct Run {
    /// Record index range in the flat input.
    start: usize,
    len: usize,
    first: u32,
    last: u32,
    /// Strictly ascending (no duplicate keys) — required for dense.
    strict: bool,
    delta_bytes: u64,
}

fn split_runs(flat: &[u8], rec: usize) -> Vec<Run> {
    let n = flat.len() / rec;
    let key = |i: usize| u32::from_le_bytes(flat[i * rec..i * rec + 4].try_into().unwrap());
    let mut runs: Vec<Run> = Vec::new();
    for i in 0..n {
        let k = key(i);
        match runs.last_mut() {
            Some(run) if k >= run.last => {
                run.strict &= k > run.last;
                run.delta_bytes += varint_len(u64::from(k - run.last)) as u64;
                run.last = k;
                run.len += 1;
            }
            _ => runs.push(Run {
                start: i,
                len: 1,
                first: k,
                last: k,
                strict: true,
                delta_bytes: varint_len(u64::from(k)) as u64,
            }),
        }
    }
    runs
}

/// Exact encoded sizes of one run as (flat, dense, sparse) blocks, each
/// including its 1-byte block tag. Dense is `u64::MAX` when ineligible
/// (duplicate keys cannot be bitmapped).
fn run_sizes(run: &Run, rec: usize) -> [u64; 3] {
    let psize = rec - 4;
    let k = run.len as u64;
    let flat = 1 + varint_len(k) as u64 + k * rec as u64;
    let dense = if run.strict {
        let span = u64::from(run.last - run.first) + 1;
        1 + varint_len(u64::from(run.first)) as u64
            + varint_len(span) as u64
            + span.div_ceil(8)
            + k * psize as u64
    } else {
        u64::MAX
    };
    let sparse = 1 + varint_len(k) as u64 + run.delta_bytes + k * psize as u64;
    [flat, dense, sparse]
}

/// Byte-minimal format among `sizes`; ties go to the lowest tag.
fn argmin(sizes: &[u64; 3]) -> WireFormat {
    let mut best = WireFormat::Flat;
    for f in WireFormat::ALL {
        if sizes[f.index()] < sizes[best.index()] {
            best = f;
        }
    }
    best
}

/// The one decision procedure behind [`encode_updates`] and
/// [`measure_updates`], fixed before a byte is written: the message's
/// exact length, its per-format histogram, and its blocks — per maximal
/// non-decreasing key run, the run and its byte-minimal format — or no
/// blocks when the message is the whole flat stream (or empty).
///
/// # Panics
///
/// If `flat` is not a whole number of `4 + psize`-byte records.
fn plan_updates(flat: &[u8], psize: usize) -> (u64, CodecStats, Vec<(Run, WireFormat)>) {
    let rec = 4 + psize;
    assert!(
        flat.len().is_multiple_of(rec),
        "flat stream length {} is not a multiple of record size {rec}",
        flat.len()
    );
    let mut stats = CodecStats::default();
    if flat.is_empty() {
        return (0, stats, Vec::new());
    }
    let mut blocks = Vec::new();
    let mut blocked = 0;
    for run in split_runs(flat, rec) {
        let sizes = run_sizes(&run, rec);
        let fmt = argmin(&sizes);
        stats.note(fmt, sizes[fmt.index()]);
        blocked += sizes[fmt.index()];
        blocks.push((run, fmt));
    }
    blocked += 1 + varint_len(blocks.len() as u64) as u64;
    let whole = 1 + flat.len() as u64;
    if whole <= blocked {
        let mut stats = CodecStats::default();
        stats.note(WireFormat::Flat, whole);
        return (whole, stats, Vec::new());
    }
    (blocked, stats, blocks)
}

/// Encodes a flat stream of `(u32 LE key, payload)` records (payloads of
/// `psize` bytes) into the byte-minimal adaptive message, appended to
/// `out`. Returns the per-format histogram of what was chosen.
///
/// Message layout: empty input encodes to zero bytes. Otherwise the first
/// byte is a message tag: `0` = the rest is the untouched flat stream
/// (chosen when blocking would not save anything); `1` = `varint(#blocks)`
/// followed by blocks, one per maximal non-decreasing key run of the
/// input, each `block tag (1 B) + body`:
///
/// * flat block: `varint(k)`, then `k` raw records;
/// * dense block: `varint(first)`, `varint(span)`, `ceil(span/8)` bitmap
///   bytes (LSB-first), then the payloads of set keys in ascending order;
/// * sparse block: `varint(k)`, then `k` × (`varint(key delta)`,
///   payload) — the first delta is the absolute key.
///
/// Every size is computed exactly before anything is written, so the
/// chosen layout is a pure function of the input bytes.
pub fn encode_updates(flat: &[u8], psize: usize, out: &mut Vec<u8>) -> CodecStats {
    let (bytes, stats, blocks) = plan_updates(flat, psize);
    let rec = 4 + psize;
    let start = out.len();
    if !blocks.is_empty() {
        out.push(1);
        write_varint(blocks.len() as u64, out);
    } else if !flat.is_empty() {
        out.push(0);
        out.extend_from_slice(flat);
    }
    for (run, fmt) in &blocks {
        out.push(*fmt as u8);
        let records = &flat[run.start * rec..(run.start + run.len) * rec];
        match fmt {
            WireFormat::Flat => {
                write_varint(run.len as u64, out);
                out.extend_from_slice(records);
            }
            WireFormat::Dense => {
                let span = (run.last - run.first) as usize + 1;
                write_varint(u64::from(run.first), out);
                write_varint(span as u64, out);
                let bitmap_at = out.len();
                out.resize(bitmap_at + span.div_ceil(8), 0);
                for r in records.chunks_exact(rec) {
                    let key = u32::from_le_bytes(r[..4].try_into().unwrap());
                    let bit = (key - run.first) as usize;
                    out[bitmap_at + bit / 8] |= 1 << (bit % 8);
                }
                for r in records.chunks_exact(rec) {
                    out.extend_from_slice(&r[4..]);
                }
            }
            WireFormat::Sparse => {
                write_varint(run.len as u64, out);
                let mut prev = 0u32;
                for r in records.chunks_exact(rec) {
                    let key = u32::from_le_bytes(r[..4].try_into().unwrap());
                    write_varint(u64::from(key - prev), out);
                    prev = key;
                    out.extend_from_slice(&r[4..]);
                }
            }
        }
    }
    debug_assert_eq!((out.len() - start) as u64, bytes);
    stats
}

/// Computes exactly what [`encode_updates`] would produce — the total
/// encoded length and the per-format histogram — without materialising
/// the encoding: the same plan with the write stage dropped. Send paths
/// whose receivers discard the payload (the Galois feedback broadcast)
/// use it to keep byte and format accounting bit-identical to a real
/// encode while skipping the encode work itself.
pub fn measure_updates(flat: &[u8], psize: usize) -> (u64, CodecStats) {
    let (bytes, stats, _) = plan_updates(flat, psize);
    (bytes, stats)
}

/// Decodes a message produced by [`encode_updates`] back into the exact
/// flat record stream, appended to `out`. A message no encoder writes is
/// an `Err`, with `out` holding whatever decoded before the fault.
pub fn decode_updates(buf: &[u8], psize: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let rec = 4 + psize;
    let Some((&tag, body)) = buf.split_first() else {
        return Ok(());
    };
    let mut r = Reader::new(body);
    match tag {
        0 => out.extend_from_slice(r.take(body.len() - body.len() % rec)?),
        1 => {
            for _ in 0..r.varint()? {
                let fmt = WireFormat::from_tag(u8::read(&mut r)?)?;
                let (first, n) = match fmt {
                    WireFormat::Flat => {
                        let len = r.varint()?.saturating_mul(rec as u64);
                        out.extend_from_slice(r.take(len as usize)?);
                        continue;
                    }
                    WireFormat::Dense => (r.varint()?, r.varint()?),
                    WireFormat::Sparse => (0, 1 << 32),
                };
                CodecError::in_range(first.saturating_add(n), 0, (1 << 32) + 1)?;
                walk_packed(fmt, n, psize, &mut r, |key, payload| {
                    out.extend_from_slice(&((first + key) as u32).to_le_bytes());
                    out.extend_from_slice(payload);
                    Ok(())
                })?;
            }
        }
        other => return Err(CodecError::UnknownTag(other)),
    }
    r.finish()
}

// ---------------------------------------------------------------------------
// Dependency slot-range codec
// ---------------------------------------------------------------------------

/// Appends `bits` packed eight to a byte, least significant bit first,
/// the last byte zero-padded: the flat body of a skip-bit array.
pub fn pack_bits(bits: &[bool], out: &mut Vec<u8>) {
    out.extend(
        bits.chunks(8).map(|byte| {
            (byte.iter().enumerate()).fold(0u8, |acc, (i, &b)| acc | (u8::from(b) << i))
        }),
    );
}

/// Overwrites `bits` from the next `bits.len().div_ceil(8)` bytes of `r`,
/// laid out as [`pack_bits`] writes them.
pub fn unpack_bits(r: &mut Reader<'_>, bits: &mut [bool]) -> Result<(), CodecError> {
    let buf = r.take(bits.len().div_ceil(8))?;
    for (i, b) in bits.iter_mut().enumerate() {
        *b = (buf[i / 8] >> (i % 8)) & 1 == 1;
    }
    Ok(())
}

/// Exact candidate sizes (tag byte included) for a dep-range message over
/// `n` slots with `slots.len()` non-default entries of `psize` payload
/// bytes each, given the flat body costs `flat_len` bytes. `slots` must be
/// strictly ascending offsets into the range.
pub fn dep_range_sizes(n: usize, psize: usize, slots: &[u32], flat_len: usize) -> [u64; 3] {
    let k = slots.len() as u64;
    let flat = 1 + flat_len as u64;
    let dense = 1 + (n as u64).div_ceil(8) + k * psize as u64;
    let mut prev = 0u32;
    let mut deltas = 0u64;
    for &s in slots {
        deltas += varint_len(u64::from(s - prev)) as u64;
        prev = s;
    }
    let sparse = 1 + varint_len(k) as u64 + deltas + k * psize as u64;
    [flat, dense, sparse]
}

/// Encodes a dependency slot-range message, appended to `out`, choosing
/// the byte-minimal of flat/dense/sparse (ties to the lowest tag).
///
/// Unlike [`encode_updates`], both sides know the slot count `n` from the
/// protocol (it is the current bucket's range), so the dense bitmap
/// carries no span header and slot indices are offsets relative to the
/// range start. `write_flat` must append the implementation's pre-codec
/// flat body; `write_payload(slot, out)` must append exactly `psize`
/// bytes describing that slot's non-default state.
pub fn encode_dep_range(
    n: usize,
    psize: usize,
    slots: &[u32],
    flat_len: usize,
    write_flat: &mut dyn FnMut(&mut Vec<u8>),
    write_payload: &mut dyn FnMut(u32, &mut Vec<u8>),
    out: &mut Vec<u8>,
) -> WireFormat {
    debug_assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots must ascend");
    debug_assert!(slots.last().is_none_or(|&s| (s as usize) < n));
    let sizes = dep_range_sizes(n, psize, slots, flat_len);
    let fmt = argmin(&sizes);
    let before = out.len();
    out.push(fmt as u8);
    match fmt {
        WireFormat::Flat => write_flat(out),
        WireFormat::Dense => {
            let bitmap_at = out.len();
            out.resize(bitmap_at + n.div_ceil(8), 0);
            for &s in slots {
                out[bitmap_at + s as usize / 8] |= 1 << (s % 8);
            }
            for &s in slots {
                write_payload(s, out);
            }
        }
        WireFormat::Sparse => {
            write_varint(slots.len() as u64, out);
            let mut prev = 0u32;
            for &s in slots {
                write_varint(u64::from(s - prev), out);
                prev = s;
                write_payload(s, out);
            }
        }
    }
    debug_assert_eq!((out.len() - before) as u64, sizes[fmt.index()]);
    fmt
}

/// Decodes a message produced by [`encode_dep_range`]. `decode_flat`
/// receives the flat body verbatim; for the packed formats `reset` is
/// called once (restore every slot in the range to its default), then
/// `apply(slot, payload)` once per encoded slot in ascending order. A
/// packed message no encoder writes is an `Err` (see [`dep_records`]).
pub fn decode_dep_range(
    n: usize,
    psize: usize,
    buf: &[u8],
    decode_flat: &mut dyn FnMut(&[u8]),
    reset: &mut dyn FnMut(),
    apply: &mut dyn FnMut(u32, &[u8]),
) -> Result<(), CodecError> {
    let [tag] = Reader::new(buf).array()?;
    if WireFormat::from_tag(tag)? == WireFormat::Flat {
        decode_flat(&buf[1..]);
        return Ok(());
    }
    reset();
    dep_records(n, psize, buf, |slot, payload| {
        apply(slot, payload);
        Ok(())
    })
}

/// Walks the `(slot, payload)` records of a *packed* (dense or sparse)
/// message produced by [`encode_dep_range`] in ascending slot order,
/// handing each to `each` (which `DepState` decoders call holding `&mut
/// self`). A flat or unknown tag, a listed slot at or past `n`, a short
/// message, trailing bytes or an `Err` of `each` is an `Err`.
pub fn dep_records(
    n: usize,
    psize: usize,
    buf: &[u8],
    mut each: impl FnMut(u32, &[u8]) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    let mut r = Reader::new(buf);
    match WireFormat::from_tag(u8::read(&mut r)?)? {
        WireFormat::Flat => return Err(CodecError::UnknownTag(0)),
        fmt => walk_packed(fmt, n as u64, psize, &mut r, |slot, p| each(slot as u32, p))?,
    }
    r.finish()
}

/// Walks a dense (`n`-bit bitmap, then payloads) or sparse (`varint(k)`,
/// then `k` × (key delta, payload)) body over keys `0..n`, handing each
/// `(key, payload)` to `each`. A listed key at or past `n` is an `Err`.
fn walk_packed(
    fmt: WireFormat,
    n: u64,
    psize: usize,
    r: &mut Reader<'_>,
    mut each: impl FnMut(u64, &[u8]) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    if fmt == WireFormat::Dense {
        let bitmap = r.take(n.div_ceil(8) as usize)?;
        for key in (0..n).filter(|&i| bitmap[i as usize / 8] & (1 << (i % 8)) != 0) {
            each(key, r.take(psize)?)?;
        }
        return Ok(());
    }
    let mut key = 0u64;
    for _ in 0..r.varint()? {
        key = CodecError::in_range(key.saturating_add(r.varint()?), 0, n)?;
        each(key, r.take(psize)?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_stream(recs: &[(u32, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, p) in recs {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    fn roundtrip(flat: &[u8], psize: usize) -> (Vec<u8>, CodecStats) {
        let mut wire = Vec::new();
        let stats = encode_updates(flat, psize, &mut wire);
        let mut back = Vec::new();
        decode_updates(&wire, psize, &mut back).unwrap();
        assert_eq!(back, flat, "decode ∘ encode must be the identity");
        (wire, stats)
    }

    #[test]
    fn measure_matches_encode_exactly() {
        // Every encode shape: empty, whole-flat fallback, dense, sparse,
        // multi-run mixed. measure_updates must agree byte for byte.
        let streams: Vec<(Vec<u8>, usize)> = vec![
            (Vec::new(), 4),
            (flat_stream(&[(5, b"abcd"), (3, b"wxyz"), (1, b"qrst")]), 4),
            (
                flat_stream(&(0..64).map(|k| (k, &b""[..])).collect::<Vec<_>>()),
                0,
            ),
            (
                flat_stream(&[(10, b"aaaa"), (12, b"bbbb"), (900, b"cccc")]),
                4,
            ),
            (
                flat_stream(
                    &(0..40)
                        .map(|k| (k * 7 % 41, &b"pp"[..]))
                        .collect::<Vec<_>>(),
                ),
                2,
            ),
        ];
        for (flat, psize) in streams {
            let mut wire = Vec::new();
            let enc_stats = encode_updates(&flat, psize, &mut wire);
            let (bytes, m_stats) = measure_updates(&flat, psize);
            assert_eq!(bytes as usize, wire.len(), "measured length");
            assert_eq!(m_stats, enc_stats, "measured histogram");
        }
    }

    #[test]
    fn varint_roundtrip_and_len() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(buf.len(), varint_len(v), "len of {v}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Ok(v));
            assert_eq!(r.finish(), Ok(()));
        }
    }

    #[test]
    fn empty_stream_encodes_to_zero_bytes() {
        let (wire, stats) = roundtrip(&[], 4);
        assert!(wire.is_empty());
        assert_eq!(stats, CodecStats::default());
    }

    #[test]
    fn dense_run_uses_bitmap_and_beats_flat() {
        // 64 consecutive keys, no payload: dense is a tag + 2 varints +
        // 8 bitmap bytes vs 1 + 256 flat.
        let recs: Vec<(u32, &[u8])> = (0..64).map(|k| (k, &[] as &[u8])).collect();
        let flat = flat_stream(&recs);
        let (wire, stats) = roundtrip(&flat, 0);
        assert_eq!(stats.blocks[WireFormat::Dense.index()], 1);
        assert!(
            wire.len() < flat.len() / 8,
            "{} vs {}",
            wire.len(),
            flat.len()
        );
    }

    #[test]
    fn sparse_run_uses_deltas() {
        // Few clustered keys with 4-byte payloads: sparse (≈1 B delta + 4)
        // beats flat (8) and dense (huge span bitmap).
        let recs: Vec<(u32, &[u8])> = vec![
            (1000, b"aaaa"),
            (1003, b"bbbb"),
            (1009, b"cccc"),
            (500_000, b"dddd"),
        ];
        let flat = flat_stream(&recs);
        let (wire, stats) = roundtrip(&flat, 4);
        assert_eq!(stats.blocks[WireFormat::Sparse.index()], 1);
        assert!(wire.len() < flat.len());
    }

    #[test]
    fn incompressible_stream_falls_back_to_whole_flat() {
        // Strictly descending keys: every record is its own run, so
        // blocking pays per-run overhead and whole-message flat wins.
        let recs: Vec<(u32, &[u8])> = (0..50).map(|i| (1000 - i, &[] as &[u8])).collect();
        let flat = flat_stream(&recs);
        let (wire, stats) = roundtrip(&flat, 0);
        assert_eq!(wire[0], 0, "message tag 0 = flat passthrough");
        assert_eq!(wire.len(), flat.len() + 1);
        assert_eq!(stats.blocks[WireFormat::Flat.index()], 1);
        assert_eq!(stats.bytes[WireFormat::Flat.index()], wire.len() as u64);
    }

    #[test]
    fn duplicate_keys_survive_roundtrip() {
        // Duplicates keep the run non-strict → dense ineligible, but the
        // non-decreasing run still sparse-encodes (delta 0).
        let recs: Vec<(u32, &[u8])> = vec![(7, b"x"), (7, b"y"), (7, b"z"), (9, b"w")];
        let flat = flat_stream(&recs);
        let (_, stats) = roundtrip(&flat, 1);
        assert_eq!(stats.blocks[WireFormat::Dense.index()], 0);
    }

    #[test]
    fn multi_run_streams_block_independently() {
        // Hi-pass (slot-ascending) followed by lo-pass (vid-ascending):
        // two ascending runs, each encoded as its own block.
        let mut recs: Vec<(u32, &[u8])> = (100..160).map(|k| (k, &[] as &[u8])).collect();
        recs.extend((0..60).map(|k| (k, &[] as &[u8])));
        let flat = flat_stream(&recs);
        let (wire, stats) = roundtrip(&flat, 0);
        assert_eq!(wire[0], 1, "blocked message");
        assert_eq!(stats.blocks.iter().sum::<u64>(), 2);
    }

    #[test]
    fn ties_prefer_the_lowest_tag() {
        assert_eq!(argmin(&[5, 5, 5]), WireFormat::Flat);
        assert_eq!(argmin(&[6, 5, 5]), WireFormat::Dense);
        assert_eq!(argmin(&[6, 6, 5]), WireFormat::Sparse);
    }

    #[test]
    fn unsorted_mixed_payload_roundtrip() {
        let recs: Vec<(u32, &[u8])> = vec![
            (42, b"12345678"),
            (41, b"abcdefgh"),
            (41, b"ABCDEFGH"),
            (100_000, b"qwertyui"),
        ];
        roundtrip(&flat_stream(&recs), 8);
    }

    fn dep_roundtrip(n: usize, psize: usize, slots: &[u32], payloads: &[Vec<u8>]) -> WireFormat {
        // Flat body stand-in: one marker byte per slot (1 = listed), plus
        // payloads appended — enough to exercise arbitrary flat lengths.
        let flat_len = n + slots.len() * psize;
        let mut wire = Vec::new();
        let fmt = encode_dep_range(
            n,
            psize,
            slots,
            flat_len,
            &mut |out: &mut Vec<u8>| {
                let mark_at = out.len();
                out.resize(mark_at + n, 0);
                for &s in slots {
                    out[mark_at + s as usize] = 1;
                }
                for p in payloads {
                    out.extend_from_slice(p);
                }
            },
            &mut |slot, out: &mut Vec<u8>| {
                let i = slots.iter().position(|&s| s == slot).unwrap();
                out.extend_from_slice(&payloads[i]);
            },
            &mut wire,
        );
        let sizes = dep_range_sizes(n, psize, slots, flat_len);
        assert_eq!(
            wire.len() as u64,
            *sizes.iter().min().unwrap(),
            "chosen format must be byte-minimal"
        );
        // Reconstruct and compare against the ground truth.
        let got: std::cell::RefCell<Vec<Option<Vec<u8>>>> = std::cell::RefCell::new(vec![None; n]);
        let mut was_reset = false;
        decode_dep_range(
            n,
            psize,
            &wire,
            &mut |body: &[u8]| {
                assert_eq!(body.len(), flat_len);
                for (s, p) in slots.iter().zip(payloads) {
                    assert_eq!(body[*s as usize], 1);
                    got.borrow_mut()[*s as usize] = Some(p.clone());
                }
            },
            &mut || was_reset = true,
            &mut |slot, payload: &[u8]| got.borrow_mut()[slot as usize] = Some(payload.to_vec()),
        )
        .unwrap();
        if fmt != WireFormat::Flat {
            assert!(was_reset, "packed decode must reset the range first");
        }
        for (i, g) in got.borrow().iter().enumerate() {
            match slots.iter().position(|&s| s as usize == i) {
                Some(j) => assert_eq!(g.as_deref(), Some(payloads[j].as_slice())),
                None => assert!(g.is_none()),
            }
        }
        fmt
    }

    #[test]
    fn dep_dense_wins_on_full_ranges() {
        let slots: Vec<u32> = (0..100).collect();
        let payloads: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i]).collect();
        assert_eq!(dep_roundtrip(100, 1, &slots, &payloads), WireFormat::Dense);
    }

    #[test]
    fn dep_sparse_wins_on_nearly_empty_ranges() {
        let payloads = vec![vec![9u8]];
        assert_eq!(dep_roundtrip(4096, 1, &[77], &payloads), WireFormat::Sparse);
    }

    #[test]
    fn dep_empty_slot_set_is_tiny() {
        let fmt = dep_roundtrip(4096, 1, &[], &[]);
        assert_eq!(fmt, WireFormat::Sparse, "varint(0) beats any bitmap");
    }

    #[test]
    fn dep_zero_payload_bitmap_ties_to_flat() {
        // psize 0 with flat_len == bitmap bytes (BitDep's own layout):
        // dense equals flat, tie goes to flat.
        let slots: Vec<u32> = (0..64).step_by(2).collect();
        let flat_len = 8;
        let sizes = dep_range_sizes(64, 0, &slots, flat_len);
        assert_eq!(sizes[0], sizes[1]);
        assert_eq!(argmin(&sizes), WireFormat::Flat);
    }

    #[test]
    fn bits_pack_lsb_first_and_round_trip() {
        let bits: Vec<bool> = (0..11).map(|i| i % 3 == 0).collect();
        let mut out = vec![0xAA];
        pack_bits(&bits, &mut out);
        // slots 0, 3, 6 | 9; the tail byte is zero-padded
        assert_eq!(out, [0xAA, 0b0100_1001, 0b0000_0010]);
        let mut back = vec![true; 11];
        let mut r = Reader::new(&out[1..]);
        unpack_bits(&mut r, &mut back).unwrap();
        assert_eq!((back, r.finish()), (bits, Ok(())));
        pack_bits(&[], &mut out);
        assert_eq!(out.len(), 3, "no slots, no bytes");
    }

    #[test]
    fn unpacking_a_short_buffer_is_an_error() {
        let short = CodecError::Truncated { needed: 2, left: 1 };
        assert_eq!(
            unpack_bits(&mut Reader::new(&[0]), &mut [false; 9]),
            Err(short)
        );
    }

    #[test]
    fn a_listed_slot_past_the_range_is_an_error() {
        // Sparse, two records over 8 slots: slot 5, then 5 + 3 = 8.
        let sparse = [WireFormat::Sparse as u8, 2, 5, 3];
        let mut seen = Vec::new();
        let err = dep_records(8, 0, &sparse, |slot, _| {
            seen.push(slot);
            Ok(())
        });
        assert_eq!(
            err,
            Err(CodecError::OutOfRange {
                value: 8,
                lo: 0,
                hi: 8
            })
        );
        assert_eq!(seen, [5], "nothing past the range is handed on");
        // A delta that would overflow `u32` is out of range too.
        let huge = [WireFormat::Sparse as u8, 2, 1, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let err = dep_records(8, 0, &huge, |_, _| Ok(()));
        assert!(matches!(err, Err(CodecError::OutOfRange { .. })), "{err:?}");
        let flat = [WireFormat::Flat as u8];
        assert_eq!(
            dep_records(8, 0, &flat, |_, _| Ok(())),
            Err(CodecError::UnknownTag(0))
        );
    }

    #[test]
    fn corrupt_update_messages_are_errors() {
        let mut out = Vec::new();
        // A flat passthrough with half a record left over.
        assert_eq!(
            decode_updates(&[0, 1, 0, 0, 0, 9, 9], 1, &mut out),
            Err(CodecError::Trailing(1))
        );
        // An unknown message tag, an unknown block tag, trailing bytes.
        assert_eq!(
            decode_updates(&[7], 0, &mut out),
            Err(CodecError::UnknownTag(7))
        );
        assert_eq!(
            decode_updates(&[1, 1, 9], 0, &mut out),
            Err(CodecError::UnknownTag(9))
        );
        assert_eq!(
            decode_updates(&[1, 0, 0], 0, &mut out),
            Err(CodecError::Trailing(1))
        );
        // A dense block whose keys run past `u32::MAX`.
        let dense = [1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 2, 0xff];
        let err = decode_updates(&dense, 0, &mut out);
        assert!(matches!(err, Err(CodecError::OutOfRange { .. })), "{err:?}");
    }
}
