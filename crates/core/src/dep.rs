//! Dependency state and messages (paper §3, §4.1).
//!
//! Each in-flight destination vertex owns one *dependency slot*. What a
//! slot holds depends on the algorithm's loop-carried dependency:
//!
//! * [`BitDep`] — pure **control** dependency: one bit meaning "the break
//!   condition already fired; skip all following neighbours" (BFS, MIS,
//!   K-means). On the wire: a bitmap, one bit per slot — exactly the
//!   paper's "small dependency messages organised as a bit map".
//! * [`CountDep`] — **data + control**: a saturating counter with a
//!   threshold (K-core: skip once `cnt ≥ k`). One byte per slot.
//! * [`WeightDep`] — **data + control**: a running prefix sum plus a
//!   selected bit (weighted sampling). Four bytes + one bit per slot,
//!   which is why sampling's dependency traffic is the one case where
//!   total communication can exceed Gemini's (Table 6).
//!
//! Each state describes its wire form twice: a flat layout for a slot
//! range and a fixed-width record for one slot. The adaptive message
//! codec is written once, on top of both, in the provided
//! [`DepState::encode_message`]/[`DepState::decode_message`].
//!
//! [`DepLayout`] decides which vertices get slots: everyone (full mode) or
//! only high-degree vertices (differentiated propagation, §5.2). Slot
//! numbering is global and deterministic, so all machines agree without
//! negotiation.

use std::ops::Range;
use symple_graph::{Graph, Vid};
use symple_net::{
    dep_range_sizes, dep_records, encode_dep_range, pack_bits, unpack_bits, CodecError, Reader,
    Wire, WireCodec, WireFormat,
};

use crate::Partition;

/// Per-vertex dependency state exchanged between circulant steps.
///
/// Implementations store one value per *slot* and describe its wire form:
/// a flat layout for a contiguous slot range (the unit sent between
/// machines) and a record for one slot.
pub trait DepState: Send {
    /// Resets the slots in `range` to their initial value (used by the
    /// first machine in a partition's processing order, which receives no
    /// dependency message).
    fn reset_range(&mut self, range: Range<usize>);

    /// Should the vertex in `slot` be skipped entirely?
    fn should_skip(&self, slot: usize) -> bool;

    /// Appends the flat wire encoding of the slots in `range` to `out`.
    fn encode_range(&self, range: Range<usize>, out: &mut Vec<u8>);

    /// Overwrites the slots in `range` from the flat body
    /// [`DepState::encode_range`] wrote over the same range, read from
    /// `r`; a body `r` cannot supply is an `Err`.
    fn decode_range(&mut self, range: Range<usize>, r: &mut Reader<'_>) -> Result<(), CodecError>;

    /// Bytes of one slot's record in the packed (dense and sparse)
    /// message formats.
    fn record_width(&self) -> usize;

    /// Appends the [`DepState::record_width`]-byte record of `slot` to
    /// `out` and returns `true`, or appends nothing and returns `false`
    /// when the slot holds its reset value: the packed formats list only
    /// the slots that do not, and their decode resets the others.
    fn write_record(&self, slot: usize, out: &mut Vec<u8>) -> bool;

    /// Loads a record written by [`DepState::write_record`] into `slot`,
    /// read from `r` (which holds the [`DepState::record_width`] bytes).
    fn read_record(&mut self, slot: usize, r: &mut Reader<'_>) -> Result<(), CodecError>;

    /// Appends the dependency message of the slots in `range` under
    /// `codec` and returns its format: under [`WireCodec::Flat`] the
    /// [`DepState::encode_range`] body alone; under
    /// [`WireCodec::Adaptive`] a format tag and the byte-minimal of the
    /// flat body and the dense and sparse listings of the records
    /// [`DepState::write_record`] writes (`symple_net::encode_dep_range`).
    /// The choice is a pure function of the slot values, so runs stay
    /// bit-identical across thread counts. The tagged flat body is
    /// written in place first and kept when it wins; otherwise it is cut
    /// off and the winning listing written instead.
    fn encode_message(
        &self,
        range: Range<usize>,
        codec: WireCodec,
        out: &mut Vec<u8>,
    ) -> WireFormat {
        if codec == WireCodec::Flat {
            self.encode_range(range, out);
            return WireFormat::Flat;
        }
        let start = out.len();
        out.push(WireFormat::Flat as u8);
        self.encode_range(range.clone(), out);
        let flat_len = out.len() - start - 1;
        let mut record = Vec::new();
        let slots: Vec<u32> = range
            .clone()
            .filter(|&slot| {
                record.clear();
                self.write_record(slot, &mut record)
            })
            .map(|slot| (slot - range.start) as u32)
            .collect();
        let width = self.record_width();
        let [flat, dense, sparse] = dep_range_sizes(range.len(), width, &slots, flat_len);
        if flat <= dense.min(sparse) {
            return WireFormat::Flat; // ties go to the lowest tag
        }
        out.truncate(start);
        encode_dep_range(
            range.len(),
            width,
            &slots,
            flat_len,
            &mut |out| self.encode_range(range.clone(), out),
            &mut |rel, out| {
                self.write_record(range.start + rel as usize, out);
            },
            out,
        )
    }

    /// Overwrites the slots in `range` from a message produced by
    /// [`DepState::encode_message`] over the same range and codec. Slots
    /// a packed message does not list are reset to their default value.
    /// A message no encoder writes for the range (short, long, an unknown
    /// tag, a slot outside it) is an `Err` and leaves the range unspecified.
    fn decode_message(
        &mut self,
        range: Range<usize>,
        codec: WireCodec,
        buf: &[u8],
    ) -> Result<(), CodecError> {
        let mut r = Reader::new(buf);
        if codec == WireCodec::Adaptive && u8::read(&mut r)? != WireFormat::Flat as u8 {
            self.reset_range(range.clone());
            let width = self.record_width();
            return dep_records(range.len(), width, buf, |slot, record| {
                self.read_record(range.start + slot as usize, &mut Reader::new(record))
            });
        }
        self.decode_range(range, &mut r)?;
        r.finish()
    }

    /// A fresh, reset state with `slots` slots sharing this instance's
    /// configuration (threshold, arity, …) but none of its values — the
    /// constructor the chunked executor uses to build disjoint shard
    /// views and per-chunk scratch slots.
    fn detach(&self, slots: usize) -> Self
    where
        Self: Sized;

    /// Copies the slots in `range` into a detached state of its own,
    /// re-based so shard slot `i` mirrors slot `range.start + i` here.
    ///
    /// Together with [`DepState::merge_shard`] this is the engine's
    /// `split_at_mut` substitute: the high-degree pass hands each chunk a
    /// shard over its (disjoint, contiguous) slot sub-range, chunks
    /// mutate their shards concurrently, and merging the shards back in
    /// any order reproduces sequential execution exactly. Both copy the
    /// in-memory slots directly, never through the wire codec, which may
    /// canonicalise values a downstream machine cannot observe.
    fn extract_shard(&self, range: Range<usize>) -> Self
    where
        Self: Sized;

    /// Writes a shard produced by [`DepState::extract_shard`] over
    /// `range` back into this state.
    fn merge_shard(&mut self, range: Range<usize>, shard: &Self)
    where
        Self: Sized;
}

/// Control-only dependency: one skip bit per slot.
#[derive(Debug, Clone)]
pub struct BitDep {
    bits: Vec<bool>,
}

impl BitDep {
    /// Creates state for `slots` slots, all clear.
    pub fn new(slots: usize) -> Self {
        BitDep {
            bits: vec![false; slots],
        }
    }

    /// Marks `slot` as "break fired — skip following neighbours".
    pub fn mark(&mut self, slot: usize) {
        self.bits[slot] = true;
    }

    /// Flat wire bytes for `len` slots: one bit each.
    pub fn wire_bytes(len: usize) -> usize {
        len.div_ceil(8)
    }
}

impl DepState for BitDep {
    fn reset_range(&mut self, range: Range<usize>) {
        self.bits[range].fill(false);
    }

    fn should_skip(&self, slot: usize) -> bool {
        self.bits[slot]
    }

    fn encode_range(&self, range: Range<usize>, out: &mut Vec<u8>) {
        pack_bits(&self.bits[range], out);
    }

    fn decode_range(&mut self, range: Range<usize>, r: &mut Reader<'_>) -> Result<(), CodecError> {
        unpack_bits(r, &mut self.bits[range])
    }

    /// A set bit is listed with an empty record. The flat body *is* a
    /// bitmap, so dense never beats it; sparse wins when set bits are
    /// rare enough to varint below n/8 bytes.
    fn record_width(&self) -> usize {
        0
    }

    fn write_record(&self, slot: usize, _out: &mut Vec<u8>) -> bool {
        self.bits[slot]
    }

    fn read_record(&mut self, slot: usize, _r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.bits[slot] = true;
        Ok(())
    }

    fn detach(&self, slots: usize) -> Self {
        BitDep::new(slots)
    }

    fn extract_shard(&self, range: Range<usize>) -> Self {
        BitDep {
            bits: self.bits[range].to_vec(),
        }
    }

    fn merge_shard(&mut self, range: Range<usize>, shard: &Self) {
        self.bits[range].copy_from_slice(&shard.bits);
    }
}

/// Saturating-counter dependency (K-core): skip once the count reaches `k`.
///
/// One byte per slot. [`CountDep::add`] is the one counting mutator: it
/// adds any number of counted neighbours at once and saturates at `k`,
/// so a signal reads the carried count once ([`CountDep::count`]),
/// counts its segment in a local and writes the slot once — the same
/// final count as one saturating step per neighbour.
#[derive(Debug, Clone)]
pub struct CountDep {
    counts: Vec<u8>,
    k: u8,
}

impl CountDep {
    /// Creates state for `slots` slots with threshold `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (a zero threshold would skip everything).
    pub fn new(slots: usize, k: u8) -> Self {
        assert!(k > 0, "threshold must be positive");
        CountDep {
            counts: vec![0; slots],
            k,
        }
    }

    /// The threshold.
    pub fn k(&self) -> u8 {
        self.k
    }

    /// Current count in `slot`.
    pub fn count(&self, slot: usize) -> u8 {
        self.counts[slot]
    }

    /// Adds `n` to `slot`, saturating at `k`, and returns the new count.
    /// `add(slot, 1)` counts one neighbour; a kernel that counts a
    /// segment in a local writes its total back with one call.
    pub fn add(&mut self, slot: usize, n: u16) -> u8 {
        let c = &mut self.counts[slot];
        *c = u16::from(*c).saturating_add(n).min(u16::from(self.k)) as u8;
        *c
    }
}

impl DepState for CountDep {
    fn reset_range(&mut self, range: Range<usize>) {
        self.counts[range].fill(0);
    }

    fn should_skip(&self, slot: usize) -> bool {
        self.counts[slot] >= self.k
    }

    fn encode_range(&self, range: Range<usize>, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.counts[range]);
    }

    fn decode_range(&mut self, range: Range<usize>, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.counts[range.clone()].copy_from_slice(r.take(range.len())?);
        Ok(())
    }

    fn record_width(&self) -> usize {
        1
    }

    fn write_record(&self, slot: usize, out: &mut Vec<u8>) -> bool {
        let count = self.counts[slot];
        if count != 0 {
            out.push(count);
        }
        count != 0
    }

    fn read_record(&mut self, slot: usize, r: &mut Reader<'_>) -> Result<(), CodecError> {
        u8::read(r).map(|count| self.counts[slot] = count)
    }

    fn detach(&self, slots: usize) -> Self {
        CountDep::new(slots, self.k)
    }

    fn extract_shard(&self, range: Range<usize>) -> Self {
        CountDep {
            counts: self.counts[range].to_vec(),
            k: self.k,
        }
    }

    fn merge_shard(&mut self, range: Range<usize>, shard: &Self) {
        self.counts[range].copy_from_slice(&shard.counts);
    }
}

/// Prefix-sum dependency (weighted sampling): a running `f32` weight sum
/// and a selected bit per slot.
#[derive(Debug, Clone)]
pub struct WeightDep {
    acc: Vec<f32>,
    selected: Vec<bool>,
}

impl WeightDep {
    /// Creates state for `slots` slots with zero accumulators.
    pub fn new(slots: usize) -> Self {
        WeightDep {
            acc: vec![0.0; slots],
            selected: vec![false; slots],
        }
    }

    /// Adds `w` to the accumulator. Returns the new prefix sum.
    pub fn add_weight(&mut self, slot: usize, w: f32) -> f32 {
        self.acc[slot] += w;
        self.acc[slot]
    }

    /// Marks the sample in `slot` as taken.
    pub fn select(&mut self, slot: usize) {
        self.selected[slot] = true;
    }

    /// Flat wire bytes for `len` slots: an `f32` sum plus one bit each.
    pub fn wire_bytes(len: usize) -> usize {
        len * 4 + len.div_ceil(8)
    }
}

impl DepState for WeightDep {
    fn reset_range(&mut self, range: Range<usize>) {
        self.acc[range.clone()].fill(0.0);
        self.selected[range].fill(false);
    }

    fn should_skip(&self, slot: usize) -> bool {
        self.selected[slot]
    }

    fn encode_range(&self, range: Range<usize>, out: &mut Vec<u8>) {
        for &a in &self.acc[range.clone()] {
            out.extend_from_slice(&a.to_le_bytes());
        }
        pack_bits(&self.selected[range], out);
    }

    fn decode_range(&mut self, range: Range<usize>, r: &mut Reader<'_>) -> Result<(), CodecError> {
        r.fill(&mut self.acc[range.clone()])?;
        unpack_bits(r, &mut self.selected[range])
    }

    /// The `f32` sum and a selected byte.
    fn record_width(&self) -> usize {
        5
    }

    /// A slot is non-default when its accumulator bits differ from +0.0
    /// or its selected bit is set (bit comparison, not ==, so -0.0
    /// round-trips exactly).
    fn write_record(&self, slot: usize, out: &mut Vec<u8>) -> bool {
        let (acc, selected) = (self.acc[slot], self.selected[slot]);
        if acc.to_bits() == 0 && !selected {
            return false;
        }
        out.extend_from_slice(&acc.to_le_bytes());
        out.push(u8::from(selected));
        true
    }

    fn read_record(&mut self, slot: usize, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.acc[slot] = f32::read(r)?;
        bool::read(r).map(|selected| self.selected[slot] = selected)
    }

    fn detach(&self, slots: usize) -> Self {
        WeightDep::new(slots)
    }

    fn extract_shard(&self, range: Range<usize>) -> Self {
        WeightDep {
            acc: self.acc[range.clone()].to_vec(),
            selected: self.selected[range].to_vec(),
        }
    }

    fn merge_shard(&mut self, range: Range<usize>, shard: &Self) {
        self.acc[range.clone()].copy_from_slice(&shard.acc);
        self.selected[range].copy_from_slice(&shard.selected);
    }
}

/// Assignment of dependency slots to vertices (global, deterministic).
///
/// In **full** mode every vertex of a partition gets a slot (its offset in
/// the partition). In **high-degree** mode only vertices with in-degree at
/// or above the threshold get slots (their rank in the partition's sorted
/// high-degree list), and low-degree vertices fall back to the Gemini
/// schedule (§5.2).
#[derive(Debug, Clone)]
pub struct DepLayout {
    /// For each partition: slot count.
    part_slots: Vec<usize>,
    /// High-degree vertex ids per partition (ascending); empty in full mode.
    hi_lists: Option<Vec<Vec<Vid>>>,
    /// Partition start ids (for full-mode slot arithmetic).
    part_starts: Vec<u32>,
}

impl DepLayout {
    /// Full layout: a slot for every vertex.
    pub fn full(part: &Partition) -> Self {
        let p = part.num_parts();
        DepLayout {
            part_slots: (0..p).map(|i| part.len(i)).collect(),
            hi_lists: None,
            part_starts: (0..p).map(|i| part.range(i).0.raw()).collect(),
        }
    }

    /// Differentiated layout: slots only for vertices whose in-degree is at
    /// least `threshold`.
    pub fn high_degree(graph: &Graph, part: &Partition, threshold: usize) -> Self {
        let p = part.num_parts();
        let mut hi_lists = Vec::with_capacity(p);
        for i in 0..p {
            let list: Vec<Vid> = part
                .vertices(i)
                .filter(|&v| graph.in_degree(v) >= threshold)
                .collect();
            hi_lists.push(list);
        }
        DepLayout {
            part_slots: hi_lists.iter().map(Vec::len).collect(),
            hi_lists: Some(hi_lists),
            part_starts: (0..p).map(|i| part.range(i).0.raw()).collect(),
        }
    }

    /// Number of slots in partition `part`.
    pub fn slots(&self, part: usize) -> usize {
        self.part_slots[part]
    }

    /// The largest slot count over all partitions (buffer sizing).
    pub fn max_slots(&self) -> usize {
        self.part_slots.iter().copied().max().unwrap_or(0)
    }

    /// The slot of vertex `v` in partition `part`, or `None` if `v` is a
    /// low-degree vertex excluded by differentiated propagation.
    pub fn slot_of(&self, part: usize, v: Vid) -> Option<usize> {
        match &self.hi_lists {
            None => Some((v.raw() - self.part_starts[part]) as usize),
            Some(lists) => lists[part].binary_search(&v).ok(),
        }
    }

    /// [`DepLayout::slot_of`] for a whole partition walked in order: the
    /// returned function must be fed every vertex of `part` in ascending
    /// id order, and steps through the partition's high-degree list
    /// alongside instead of searching it per vertex.
    pub(crate) fn slots_in_order(&self, part: usize) -> impl FnMut(Vid) -> Option<usize> + '_ {
        let start = self.part_starts[part];
        let hi_list = self.hi_lists.as_ref().map(|lists| lists[part].as_slice());
        let mut next = 0;
        move |v| match hi_list {
            None => Some((v.raw() - start) as usize),
            Some(list) if list.get(next) == Some(&v) => {
                next += 1;
                Some(next - 1)
            }
            Some(_) => None,
        }
    }

    /// Is this a differentiated (high-degree-only) layout?
    pub fn is_differentiated(&self) -> bool {
        self.hi_lists.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symple_graph::{star, Rng64};
    use symple_net::WireCodec;

    /// Every strict prefix of every dependency message `fill` leads to is
    /// an error, because both sides know the slot count; every one-byte
    /// XOR of it decodes or is an error. No decode panics, under either
    /// codec, at densities from none to all slots set.
    fn check_damaged_messages<D: DepState>(fill: impl Fn(&mut D, usize), fresh: impl Fn() -> D) {
        let mut rng = Rng64::seed_from_u64(41);
        for percent in [0, 3, 30, 80, 100] {
            for range in [0..0, 0..1, 3..40, 0..64] {
                let mut d = fresh();
                for s in range.clone().filter(|_| rng.gen_index(100) < percent) {
                    fill(&mut d, s);
                }
                for codec in [WireCodec::Flat, WireCodec::Adaptive] {
                    let mut wire = Vec::new();
                    d.encode_message(range.clone(), codec, &mut wire);
                    let decode = |msg: &[u8]| fresh().decode_message(range.clone(), codec, msg);
                    assert_eq!(decode(&wire), Ok(()));
                    for len in 0..wire.len() {
                        assert!(
                            decode(&wire[..len]).is_err(),
                            "{codec:?} prefix {len} of {wire:02x?}"
                        );
                    }
                    for i in 0..wire.len() {
                        let mut bad = wire.clone();
                        bad[i] ^= 1 << rng.gen_index(8);
                        let _ = decode(&bad);
                        bad[i] = !wire[i];
                        let _ = decode(&bad);
                    }
                }
            }
        }
    }

    #[test]
    fn damaged_dependency_messages_decode_or_fail() {
        check_damaged_messages(|d: &mut BitDep, s| d.mark(s), || BitDep::new(64));
        check_damaged_messages(
            |d: &mut CountDep, s| {
                d.add(s, 1 + s as u16 % 3);
            },
            || CountDep::new(64, 3),
        );
        check_damaged_messages(
            |d: &mut WeightDep, s| {
                d.add_weight(s, s as f32 * 0.1);
                if s % 3 == 0 {
                    d.select(s);
                }
            },
            || WeightDep::new(64),
        );
    }

    #[test]
    fn bit_dep_roundtrip() {
        let mut d = BitDep::new(20);
        d.mark(3);
        d.mark(8);
        d.mark(19);
        assert!(d.should_skip(3) && !d.should_skip(4));
        let mut out = Vec::new();
        d.encode_range(2..20, &mut out);
        assert_eq!(out.len(), BitDep::wire_bytes(18));
        let mut d2 = BitDep::new(20);
        d2.mark(2); // stale value that the decode must overwrite
        d2.decode_message(2..20, WireCodec::Flat, &out).unwrap();
        assert!(!d2.should_skip(2));
        assert!(d2.should_skip(3) && d2.should_skip(8) && d2.should_skip(19));
        d2.reset_range(0..20);
        assert!((0..20).all(|s| !d2.should_skip(s)));
    }

    #[test]
    fn count_dep_saturates_and_roundtrips() {
        let mut d = CountDep::new(4, 3);
        assert_eq!(d.k(), 3);
        for _ in 0..5 {
            d.add(1, 1);
        }
        assert_eq!(d.count(1), 3, "saturates at k");
        assert!(d.should_skip(1));
        assert!(!d.should_skip(0));
        let mut out = Vec::new();
        d.encode_range(0..4, &mut out);
        assert_eq!(out.len(), 4);
        let mut d2 = CountDep::new(4, 3);
        d2.decode_message(0..4, WireCodec::Flat, &out).unwrap();
        assert_eq!(d2.count(1), 3);
        d2.reset_range(1..2);
        assert_eq!(d2.count(1), 0);
    }

    #[test]
    fn count_dep_add_saturates_at_k() {
        let mut d = CountDep::new(4, 3);
        assert_eq!(d.add(0, 0), 0, "adding nothing changes nothing");
        assert_eq!(d.add(0, 2), 2);
        assert_eq!(d.add(0, 0), 2);
        assert_eq!(d.add(0, 5), 3, "an add past k saturates at k");
        assert_eq!(d.add(0, 1), 3, "a slot at k stays at k");
        assert_eq!(d.add(0, u16::MAX), 3);
        assert_eq!(d.add(1, u16::MAX), 3, "a sum past u8 saturates too");
        assert_eq!(d.add(2, 3), 3, "landing exactly on k");
        assert_eq!(d.add(3, 1), 1);
        assert_eq!(d.add(3, u16::MAX), 3, "a sum past u16 saturates too");
        assert!((0..4).all(|s| d.count(s) == 3 && d.should_skip(s)));
        // One add of n is n adds of 1, from every start.
        let mut wide = CountDep::new(1, 255);
        for start in 0..=255u16 {
            for n in [0u16, 1, 7, 254, 255, 256] {
                wide.reset_range(0..1);
                wide.add(0, start);
                let mut steps = wide.clone();
                for _ in 0..n {
                    steps.add(0, 1);
                }
                assert_eq!(wide.add(0, n), steps.count(0), "start {start}, n {n}");
            }
        }
    }

    #[test]
    fn weight_dep_roundtrip() {
        let mut d = WeightDep::new(3);
        assert_eq!(d.add_weight(0, 1.5), 1.5);
        assert_eq!(d.add_weight(0, 2.0), 3.5);
        d.select(2);
        assert!(d.should_skip(2) && !d.should_skip(0));
        let mut out = Vec::new();
        d.encode_range(0..3, &mut out);
        assert_eq!(out.len(), WeightDep::wire_bytes(3));
        let mut d2 = WeightDep::new(3);
        d2.decode_message(0..3, WireCodec::Flat, &out).unwrap();
        assert_eq!(d2.acc[0], 3.5);
        assert!(d2.should_skip(2));
    }

    #[test]
    fn weight_dep_partial_range() {
        let mut d = WeightDep::new(10);
        d.add_weight(5, 9.0);
        d.select(6);
        let mut out = Vec::new();
        d.encode_range(4..8, &mut out);
        let mut d2 = WeightDep::new(10);
        d2.decode_message(4..8, WireCodec::Flat, &out).unwrap();
        assert_eq!(d2.acc[5], 9.0);
        assert!(d2.should_skip(6));
        assert_eq!(d2.acc[9], 0.0);
    }

    #[test]
    fn bit_dep_coded_sparse_roundtrip() {
        // 3 set bits in 512 slots: sparse deltas beat the 64-byte bitmap.
        let mut d = BitDep::new(512);
        d.mark(10);
        d.mark(11);
        d.mark(400);
        let mut wire = Vec::new();
        let fmt = d.encode_message(0..512, WireCodec::Adaptive, &mut wire);
        assert_eq!(fmt, WireFormat::Sparse);
        assert!(wire.len() < 1 + BitDep::wire_bytes(512));
        let mut d2 = BitDep::new(512);
        d2.mark(5); // stale state the packed decode must reset
        d2.decode_message(0..512, WireCodec::Adaptive, &wire)
            .unwrap();
        assert!((0..512).all(|s| d2.should_skip(s) == d.should_skip(s)));
    }

    #[test]
    fn bit_dep_coded_dense_case_is_flat_bitmap() {
        // Every bit set: the flat body is already a bitmap, so the codec
        // keeps it (dense ties flat and the lower tag wins).
        let mut d = BitDep::new(64);
        for s in 0..64 {
            d.mark(s);
        }
        let mut wire = Vec::new();
        let fmt = d.encode_message(0..64, WireCodec::Adaptive, &mut wire);
        assert_eq!(fmt, WireFormat::Flat);
        assert_eq!(wire.len(), 1 + BitDep::wire_bytes(64));
        let mut d2 = BitDep::new(64);
        d2.decode_message(0..64, WireCodec::Adaptive, &wire)
            .unwrap();
        assert!((0..64).all(|s| d2.should_skip(s)));
    }

    #[test]
    fn count_dep_coded_roundtrips_across_densities() {
        for touched in [0usize, 2, 40, 256] {
            let mut d = CountDep::new(256, 3);
            for s in 0..touched {
                d.add(s, 1);
                if s % 2 == 0 {
                    d.add(s, 1);
                }
            }
            let mut wire = Vec::new();
            let fmt = d.encode_message(0..256, WireCodec::Adaptive, &mut wire);
            assert!(
                wire.len() <= 1 + 256, // flat: one byte per slot
                "{touched} touched: coded must never beat flat by losing"
            );
            if touched <= 2 {
                assert_eq!(fmt, WireFormat::Sparse, "{touched} touched");
            }
            if touched == 40 {
                // Mid density: bitmap + 1 B/count beats both 1 B/slot
                // flat and per-slot varint deltas.
                assert_eq!(fmt, WireFormat::Dense, "{touched} touched");
            }
            if touched == 256 {
                // Every slot non-default: the bitmap is pure overhead on
                // top of the same payload bytes, so flat wins.
                assert_eq!(fmt, WireFormat::Flat, "{touched} touched");
            }
            let mut d2 = CountDep::new(256, 3);
            d2.add(200, 1); // stale
            d2.decode_message(0..256, WireCodec::Adaptive, &wire)
                .unwrap();
            for s in 0..256 {
                assert_eq!(d2.count(s), d.count(s), "slot {s}");
            }
        }
    }

    #[test]
    fn weight_dep_coded_roundtrip_is_bit_exact() {
        let mut d = WeightDep::new(300);
        d.add_weight(7, 0.1);
        d.add_weight(7, 0.2);
        // A -0.0 sum has nonzero bits and must travel. (Adding -0.0 to
        // the reset +0.0 gives +0.0, so the sum is set directly.)
        d.acc[250] = -0.0;
        d.select(100);
        let mut wire = Vec::new();
        let fmt = d.encode_message(0..300, WireCodec::Adaptive, &mut wire);
        assert_eq!(fmt, WireFormat::Sparse);
        assert!(wire.len() < 1 + WeightDep::wire_bytes(300));
        let mut d2 = WeightDep::new(300);
        d2.add_weight(3, 9.0); // stale
        d2.decode_message(0..300, WireCodec::Adaptive, &wire)
            .unwrap();
        for s in 0..300 {
            assert_eq!(d2.acc[s].to_bits(), d.acc[s].to_bits(), "slot {s} acc bits");
            assert_eq!(d2.should_skip(s), d.should_skip(s), "slot {s} selected");
        }
    }

    /// An empty adaptive message has no format tag to read.
    #[test]
    fn empty_adaptive_message_is_an_error() {
        let err = CountDep::new(8, 2).decode_message(0..8, WireCodec::Adaptive, &[]);
        assert_eq!(err, Err(CodecError::Truncated { needed: 1, left: 0 }));
    }

    /// A dense message whose bitmap lists eight 5-byte records but which
    /// carries two payload bytes fails reading the first record.
    #[test]
    fn truncated_dense_message_is_an_error() {
        let dense = [WireFormat::Dense as u8, 0xff, 0, 0];
        let err = WeightDep::new(8).decode_message(0..8, WireCodec::Adaptive, &dense);
        assert_eq!(err, Err(CodecError::Truncated { needed: 5, left: 2 }));
    }

    /// A sparse message that lists a slot past the range's end is an
    /// error, and writes no slot outside the range.
    #[test]
    fn a_listed_slot_past_the_range_is_an_error() {
        let mut d = CountDep::new(20, 3);
        // Range 4..12 (8 slots): slot 2 (count 1), then slot 2 + 7 = 9.
        let sparse = [WireFormat::Sparse as u8, 2, 2, 1, 7, 1];
        let err = d.decode_message(4..12, WireCodec::Adaptive, &sparse);
        assert_eq!(
            err,
            Err(CodecError::OutOfRange {
                value: 9,
                lo: 0,
                hi: 8
            })
        );
        assert!(
            (12..20).all(|s| d.count(s) == 0),
            "no slot of the next range written"
        );
        // A delta past `u32::MAX` is out of range too, not an overflow.
        let huge = [
            WireFormat::Sparse as u8,
            2,
            1,
            1,
            0xff,
            0xff,
            0xff,
            0xff,
            0x0f,
            1,
        ];
        let err = d.decode_message(4..12, WireCodec::Adaptive, &huge);
        assert!(matches!(err, Err(CodecError::OutOfRange { .. })), "{err:?}");
    }

    #[test]
    fn coded_partial_ranges_leave_outside_slots_alone() {
        let mut d = CountDep::new(20, 2);
        d.add(6, 1);
        let mut wire = Vec::new();
        d.encode_message(4..12, WireCodec::Adaptive, &mut wire);
        let mut d2 = CountDep::new(20, 2);
        d2.add(0, 1); // outside the range: must survive
        d2.add(8, 1); // inside: must be reset by the packed decode
        d2.decode_message(4..12, WireCodec::Adaptive, &wire)
            .unwrap();
        assert_eq!(d2.count(0), 1);
        assert_eq!(d2.count(6), 1);
        assert_eq!(d2.count(8), 0);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A golden case: a name, the slot range, and which of its slots hold
    /// a non-reset value.
    type GoldenCase = (&'static str, Range<usize>, fn(usize) -> bool);

    /// The slot ranges of the golden table over 24 slots.
    const GOLDEN_CASES: [GoldenCase; 5] = [
        ("empty range", 5..5, |_| true),
        ("none set", 2..22, |_| false),
        ("one set", 2..22, |s| s == 13),
        ("half set", 2..22, |s| s.is_multiple_of(2)),
        ("all set", 2..22, |_| true),
    ];

    /// Encodes each case of [`GOLDEN_CASES`] under both codecs, decodes
    /// each message into a state holding stale values inside and outside
    /// the range, and checks the bytes and the decoded state against
    /// `golden` (`label, flat hex, adaptive hex, decoded state`). Both
    /// codecs must decode to the same state.
    fn check_golden<D: DepState>(
        kind: &str,
        fill: impl Fn(&mut D, usize),
        fresh: impl Fn() -> D,
        render: impl Fn(&D) -> String,
        golden: &[(&str, &str, &str, &str)],
    ) {
        for (case, range, set) in GOLDEN_CASES {
            let label = format!("{kind}/{case}");
            let mut d = fresh();
            for s in range.clone().filter(|&s| set(s)) {
                fill(&mut d, s);
            }
            let wire = [WireCodec::Flat, WireCodec::Adaptive].map(|codec| {
                let mut wire = Vec::new();
                d.encode_message(range.clone(), codec, &mut wire);
                let mut back = fresh();
                for s in [0, 5, 14, 23] {
                    fill(&mut back, s); // stale values the decode must overwrite
                }
                back.decode_message(range.clone(), codec, &wire).unwrap();
                (hex(&wire), render(&back))
            });
            assert_eq!(wire[0].1, wire[1].1, "{label}: codecs decode alike");
            let actual = (label.as_str(), &*wire[0].0, &*wire[1].0, &*wire[0].1);
            let expected = golden.iter().find(|row| row.0 == label);
            assert_eq!(expected, Some(&actual), "{label}");
        }
    }

    #[test]
    fn golden_dependency_messages() {
        check_golden(
            "bit",
            |d: &mut BitDep, s| d.mark(s),
            || BitDep::new(24),
            |d| {
                let set = (0..24).filter(|&s| d.should_skip(s));
                set.map(|s| s.to_string()).collect::<Vec<_>>().join(" ")
            },
            &[
                ("bit/empty range", "", "00", "0 5 14 23"),
                ("bit/none set", "000000", "0200", "0 23"),
                ("bit/one set", "000800", "02010b", "0 13 23"),
                (
                    "bit/half set",
                    "555505",
                    "00555505",
                    "0 2 4 6 8 10 12 14 16 18 20 23",
                ),
                (
                    "bit/all set",
                    "ffff0f",
                    "00ffff0f",
                    "0 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 23",
                ),
            ],
        );
        check_golden(
            "count",
            |d: &mut CountDep, s| {
                d.add(s, 1 + s as u16 % 3);
            },
            || CountDep::new(24, 3),
            |d| {
                let set = (0..24).filter(|&s| d.count(s) != 0);
                let slots = set.map(|s| format!("{s}:{}", d.count(s)));
                slots.collect::<Vec<_>>().join(" ")
            },
            &[
                ("count/empty range", "", "00", "0:1 5:3 14:3 23:3"),
                (
                    "count/none set",
                    "0000000000000000000000000000000000000000",
                    "0200",
                    "0:1 23:3",
                ),
                (
                    "count/one set",
                    "0000000000000000000000020000000000000000",
                    "02010b02",
                    "0:1 13:2 23:3",
                ),
                (
                    "count/half set",
                    "0300020001000300020001000300020001000300",
                    "0155550503020103020103020103",
                    "0:1 2:3 4:2 6:1 8:3 10:2 12:1 14:3 16:2 18:1 20:3 23:3",
                ),
                (
                    "count/all set",
                    "0301020301020301020301020301020301020301",
                    "000301020301020301020301020301020301020301",
                    concat!(
                        "0:1 2:3 3:1 4:2 5:3 6:1 7:2 8:3 9:1 10:2 11:3 12:1 13:2 14:3",
                        " 15:1 16:2 17:3 18:1 19:2 20:3 21:1 23:3",
                    ),
                ),
            ],
        );
        check_golden(
            "weight",
            |d: &mut WeightDep, s| match s {
                // A slot whose only non-reset bits are a -0.0 sum.
                10 => d.acc[s] = -0.0,
                _ => {
                    d.add_weight(s, s as f32 * 0.1);
                    if s.is_multiple_of(3) {
                        d.select(s);
                    }
                }
            },
            || WeightDep::new(24),
            |d| {
                let set = (0..24).filter(|&s| d.acc[s].to_bits() != 0 || d.selected[s]);
                let slots = set.map(|s| {
                    let mark = if d.selected[s] { "!" } else { "" };
                    format!("{s}{mark}:{:?}", d.acc[s])
                });
                slots.collect::<Vec<_>>().join(" ")
            },
            &[
                ("weight/empty range", "", "00", "0!:0.0 5:0.5 14:1.4 23:2.3"),
                (
                    "weight/none set",
                    concat!(
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "00000000000000000000000000000000000000",
                    ),
                    "0200",
                    "0!:0.0 23:2.3",
                ),
                (
                    "weight/one set",
                    concat!(
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "0000000000000000000000006766a63f00000000000000000000000000000000",
                        "00000000000000000000000000000000000000",
                    ),
                    "02010b6766a63f00",
                    "0!:0.0 13:1.3000001 23:2.3",
                ),
                (
                    "weight/half set",
                    concat!(
                        "cdcc4c3e00000000cdcccc3e000000009a99193f00000000cdcc4c3f00000000",
                        "00000080000000009a99993f000000003333b33f00000000cdcccc3f00000000",
                        "6766e63f000000000000004000000000100401",
                    ),
                    concat!(
                        "01555505cdcc4c3e00cdcccc3e009a99193f01cdcc4c3f0000000080009a9999",
                        "3f013333b33f00cdcccc3f006766e63f010000004000",
                    ),
                    concat!(
                        "0!:0.0 2:0.2 4:0.4 6!:0.6 8:0.8 10:-0.0 12!:1.2 14:1.4 16:1.6",
                        " 18!:1.8000001 20:2.0 23:2.3",
                    ),
                ),
                (
                    "weight/all set",
                    concat!(
                        "cdcc4c3e9a99993ecdcccc3e0000003f9a99193f3333333fcdcc4c3f6766663f",
                        "00000080cdcc8c3f9a99993f6766a63f3333b33f0000c03fcdcccc3f9a99d93f",
                        "6766e63f3333f33f0000004067660640922409",
                    ),
                    concat!(
                        "00cdcc4c3e9a99993ecdcccc3e0000003f9a99193f3333333fcdcc4c3f676666",
                        "3f00000080cdcc8c3f9a99993f6766a63f3333b33f0000c03fcdcccc3f9a99d9",
                        "3f6766e63f3333f33f0000004067660640922409",
                    ),
                    concat!(
                        "0!:0.0 2:0.2 3!:0.3 4:0.4 5:0.5 6!:0.6 7:0.7 8:0.8 9!:0.90000004",
                        " 10:-0.0 11:1.1 12!:1.2 13:1.3000001 14:1.4 15!:1.5 16:1.6",
                        " 17:1.7 18!:1.8000001 19:1.9 20:2.0 21!:2.1000001 23:2.3",
                    ),
                ),
            ],
        );
    }

    #[test]
    fn shard_roundtrip_reproduces_sequential_state() {
        let mut d = CountDep::new(10, 3);
        d.add(4, 2);
        d.add(7, 1);
        // Split 3..8 off, mutate it shard-locally, merge back.
        let mut shard = d.extract_shard(3..8);
        assert_eq!(shard.k(), 3, "detach carries the threshold");
        assert_eq!(shard.count(1), 2, "shard slot 1 mirrors parent slot 4");
        assert_eq!(shard.count(4), 1, "shard slot 4 mirrors parent slot 7");
        shard.add(1, 1); // parent slot 4 → saturated
        shard.add(0, 1); // parent slot 3
        d.merge_shard(3..8, &shard);
        assert!(d.should_skip(4));
        assert_eq!(d.count(3), 1);
        assert_eq!(d.count(7), 1, "inside-range slots come back unchanged");
        assert_eq!(d.count(8), 0, "outside the range nothing moves");
    }

    #[test]
    fn weight_shard_is_bit_exact() {
        let mut d = WeightDep::new(6);
        d.add_weight(2, 0.1); // 0.1 is not exactly representable: the
        d.select(3); // round trip must preserve the f32 bits, not the value
        let shard = d.extract_shard(2..5);
        assert_eq!(shard.acc[0].to_bits(), d.acc[2].to_bits());
        let mut d2 = WeightDep::new(6);
        d2.merge_shard(2..5, &shard);
        assert_eq!(d2.acc[2].to_bits(), d.acc[2].to_bits());
        assert!(d2.should_skip(3));
    }

    #[test]
    fn detach_is_reset_regardless_of_parent_values() {
        let mut d = BitDep::new(4);
        d.mark(0);
        let fresh = d.detach(2);
        assert!(!fresh.should_skip(0) && !fresh.should_skip(1));
    }

    #[test]
    fn full_layout_slots() {
        let g = star(130);
        let part = Partition::from_starts(vec![0, 64, 130]);
        let layout = DepLayout::full(&part);
        assert!(!layout.is_differentiated());
        assert_eq!(layout.slots(0), 64);
        assert_eq!(layout.slots(1), 66);
        assert_eq!(layout.max_slots(), 66);
        assert_eq!(layout.slot_of(0, Vid::new(10)), Some(10));
        assert_eq!(layout.slot_of(1, Vid::new(64)), Some(0));
        assert_eq!(layout.slot_of(1, Vid::new(129)), Some(65));
        let _ = g;
    }

    #[test]
    fn high_degree_layout_excludes_low_degree() {
        // star(100): hub (vertex 0) has in-degree 99; leaves have 1.
        let g = star(100);
        let part = Partition::from_starts(vec![0, 64, 100]);
        let layout = DepLayout::high_degree(&g, &part, 32);
        assert!(layout.is_differentiated());
        assert_eq!(layout.slots(0), 1);
        assert_eq!(layout.slots(1), 0);
        assert_eq!(layout.slot_of(0, Vid::new(0)), Some(0));
        assert_eq!(layout.slot_of(0, Vid::new(5)), None);
        assert_eq!(layout.max_slots(), 1);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        CountDep::new(1, 0);
    }

    #[test]
    fn decode_short_buffer_is_an_error() {
        let mut d = CountDep::new(8, 2);
        let err = d.decode_message(0..8, WireCodec::Flat, &[1, 2]);
        assert_eq!(err, Err(CodecError::Truncated { needed: 8, left: 2 }));
        let err = d.decode_message(0..1, WireCodec::Flat, &[1, 2]);
        assert_eq!(err, Err(CodecError::Trailing(1)));
    }
}
