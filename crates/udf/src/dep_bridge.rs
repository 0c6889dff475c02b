//! The dependency state of every checked UDF, whichever executor runs it.
//!
//! [`UdfDep`] is a [`symple_core::DepState`] whose per-slot contents are
//! derived from the analysis result: one skip bit (control dependency)
//! plus the carried locals' values (data dependency). Both the typed VM
//! and the reference interpreter read and write it. On the wire a flat
//! message carries the packed skip bits followed by the carried values —
//! the generic layout a compiler-produced `DepMessage` struct (§4.1)
//! would have — and a slot's record, which the adaptive codec of
//! [`symple_core::DepState::encode_message`] lists, is a skip byte
//! followed by the same values. In memory a carried value is its raw
//! 64-bit word ([`Value::to_bits`]) next to the per-position carried
//! types, not a tagged [`Value`]: the typed VM copies its registers in
//! and out without tagging them, and the interpreter converts at
//! [`UdfDep::value`]/[`UdfDep::set_value`].
//!
//! Two wire refinements are driven by the abstract-interpretation
//! [`DepCertificate`] (`EngineConfig::dep_width = Certified`):
//!
//! * **Width narrowing** — a carried value whose certified range fits a
//!   narrower little-endian encoding ships in 1, 2 or 4 bytes instead of
//!   8. Integers are truncated on encode and sign-extended on decode;
//!   bools and vertex ids zero-extend. Sound because the certificate is a
//!   proven over-approximation of every value the slot can hold,
//!   including the reset zero and restored break-site snapshots.
//! * **Latch elision** — when the certificate proves the skip bit is a
//!   latch ([`DepCertificate::latches`]), a latched slot's carried values
//!   are dead on every downstream machine (the receive guard returns
//!   before reading them, and the lead machine resets the slot), so the
//!   flat format omits them entirely and decodes them as zero, and a
//!   latched slot's record carries zero values. Both live in this
//!   module's `encode_range`/`decode_range` and `write_record`; the
//!   in-memory values and the shards keep what was written.
//!
//! The uncertified constructor ([`UdfDep::new`]) keeps the original
//! 8-bytes-per-value layout bit-for-bit, so `dep_width = Wide` and naive
//! instrumentation measurements are unchanged.

use crate::certificate::{DepCertificate, ValueRange};
use crate::types::{Ty, Value};
use std::ops::Range;
use symple_core::DepState;
use symple_net::{pack_bits, unpack_bits, CodecError, Reader};

/// Generic dependency state for checked UDFs.
#[derive(Debug, Clone)]
pub struct UdfDep {
    tys: Vec<Ty>,
    /// Wire width in bytes per carried value (all 8 when uncertified).
    widths: Vec<u8>,
    /// Certified value ranges, checked on every decode and, in debug
    /// builds, on every write (the dynamic half of the certificate).
    ranges: Vec<ValueRange>,
    /// Elide latched slots' values on the flat wire (only set when the
    /// certificate proves the skip bit latches).
    latch_elide: bool,
    skip: Vec<bool>,
    /// Slot-major raw words: `vals[slot * arity + i]` is the
    /// [`Value::to_bits`] image of carried value `i`, typed by `tys[i]`.
    /// Every type's zero is the all-zero word. Untagged so the typed VM
    /// copies registers in and out without constructing a [`Value`].
    vals: Vec<u64>,
}

impl UdfDep {
    /// Creates state for `slots` slots carrying one value per entry of
    /// `carried_tys` (empty for control-only dependency), using the wide
    /// (uncertified) 8-bytes-per-value wire layout.
    pub fn new(slots: usize, carried_tys: Vec<Ty>) -> Self {
        UdfDep {
            widths: vec![8; carried_tys.len()],
            ranges: vec![ValueRange::Unbounded; carried_tys.len()],
            latch_elide: false,
            skip: vec![false; slots],
            vals: vec![0; slots * carried_tys.len()],
            tys: carried_tys,
        }
    }

    /// Creates state whose wire layout is narrowed by `cert`: carried
    /// value `i` ships in `cert.carried[i].width` bytes, and latched
    /// slots' values are elided when the certificate proves the
    /// *structural* latch (`skip_latch`: the skip bit, once set, is never
    /// cleared within a pass, so downstream machines provably never read
    /// the latched slot's carried values). Elision does not need
    /// `stable_breaks` — that stronger property only matters for the
    /// certified early-exit fast path, not for the wire.
    ///
    /// # Panics
    ///
    /// Panics if the certificate's carried list does not match
    /// `carried_tys` position by position.
    pub fn with_certificate(slots: usize, carried_tys: Vec<Ty>, cert: &DepCertificate) -> Self {
        assert_eq!(
            cert.carried.len(),
            carried_tys.len(),
            "certificate arity mismatch"
        );
        for (c, &t) in cert.carried.iter().zip(&carried_tys) {
            assert_eq!(c.ty, t, "certificate type mismatch for `{}`", c.name);
        }
        let mut d = UdfDep::new(slots, carried_tys);
        d.widths = cert.carried.iter().map(|c| c.width).collect();
        d.ranges = cert.carried.iter().map(|c| c.range).collect();
        d.latch_elide = cert.skip_latch;
        d
    }

    /// Number of carried values per slot.
    pub fn arity(&self) -> usize {
        self.tys.len()
    }

    /// Total wire bytes of one slot's carried values at certified widths.
    pub fn payload_width(&self) -> usize {
        self.widths.iter().map(|&w| usize::from(w)).sum()
    }

    /// Marks the skip bit of `slot`.
    pub fn mark(&mut self, slot: usize) {
        self.skip[slot] = true;
    }

    /// Reads carried value `i` of `slot`.
    pub fn value(&self, slot: usize, i: usize) -> Value {
        Value::from_bits(self.tys[i], self.vals[slot * self.arity() + i])
    }

    /// The raw words of `slot`'s carried values, in carried order — what
    /// the typed VM's `Guard` copies into the pinned registers.
    pub(crate) fn words(&self, slot: usize) -> &[u64] {
        let a = self.arity();
        &self.vals[slot * a..(slot + 1) * a]
    }

    /// Overwrites the carried values of `slot` whose bit is set in
    /// `declared` with the matching entries of `words` (the typed VM's
    /// pinned registers). The caller — a program typed at bind time —
    /// guarantees word `i` holds a value of carried type `i`; debug builds
    /// still check each write against its certified range.
    pub(crate) fn store_words(&mut self, slot: usize, declared: u64, words: &[u64]) {
        let base = slot * self.arity();
        for (i, &word) in words.iter().enumerate() {
            if declared & (1 << i) != 0 {
                self.debug_check_range(i, word);
                self.vals[base + i] = word;
            }
        }
    }

    /// Writes carried value `i` of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the value's type differs from the declared carried type,
    /// or (debug builds) if the value escapes its certified range — the
    /// dynamic check that backs the static certificate.
    pub fn set_value(&mut self, slot: usize, i: usize, v: Value) {
        assert_eq!(v.ty(), self.tys[i], "carried value type changed");
        self.debug_check_range(i, v.to_bits());
        let a = self.arity();
        self.vals[slot * a + i] = v.to_bits();
    }

    /// Debug builds: the word's signed integer image — ints as
    /// themselves, bools as 0/1, vertex ids as their raw index — must lie
    /// in the certified range. Floats have no integer image (ranges never
    /// constrain them).
    #[track_caller]
    fn debug_check_range(&self, i: usize, bits: u64) {
        if cfg!(debug_assertions) && self.tys[i] != Ty::Float {
            let x = bits as i64;
            debug_assert!(
                self.ranges[i].contains(x),
                "carried value {i} = {x} escapes its certified range {}",
                self.ranges[i]
            );
        }
    }

    /// Are `slot`'s carried values elided on the wire (a latched skip
    /// bit under a latch certificate)?
    fn elided(&self, slot: usize) -> bool {
        self.latch_elide && self.skip[slot]
    }

    /// Appends `slot`'s carried values, value `i` as its `widths[i]`-byte
    /// little-endian encoding.
    fn write_vals(&self, slot: usize, out: &mut Vec<u8>) {
        for (&word, &w) in self.words(slot).iter().zip(&self.widths) {
            out.extend_from_slice(&word.to_le_bytes()[..usize::from(w)]);
        }
    }

    /// Loads `slot`'s carried values from `r`, laid out as
    /// [`UdfDep::write_vals`] writes them.
    fn read_vals(&mut self, slot: usize, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let a = self.arity();
        for i in 0..a {
            self.vals[slot * a + i] = self.read_val(i, r.take(usize::from(self.widths[i]))?)?;
        }
        Ok(())
    }

    /// Decodes a `widths[i]`-byte value to its canonical word
    /// (sign-extending ints; bools to 0/1, vertex ids to 32 bits), which
    /// must lie in its certified range: a peer value outside it is
    /// [`CodecError::OutOfRange`] in every build (one compare per value).
    fn read_val(&self, i: usize, buf: &[u8]) -> Result<u64, CodecError> {
        let w = buf.len();
        let mut bytes = [0u8; 8];
        bytes[..w].copy_from_slice(buf);
        let mut bits = u64::from_le_bytes(bytes);
        if self.tys[i] == Ty::Int && w < 8 {
            let shift = 64 - 8 * w as u32;
            bits = (((bits << shift) as i64) >> shift) as u64;
        }
        let bits = Value::from_bits(self.tys[i], bits).to_bits();
        match self.ranges[i] {
            ValueRange::Interval { lo, hi } if self.tys[i] != Ty::Float => {
                let (lo, hi) = (lo as u64, hi as u64);
                match bits.wrapping_sub(lo) <= hi.wrapping_sub(lo) {
                    true => Ok(bits),
                    false => Err(CodecError::OutOfRange {
                        value: bits,
                        lo,
                        hi: hi.wrapping_add(1),
                    }),
                }
            }
            _ => Ok(bits),
        }
    }
}

impl DepState for UdfDep {
    fn reset_range(&mut self, range: Range<usize>) {
        self.skip[range.clone()].fill(false);
        let a = self.arity();
        self.vals[range.start * a..range.end * a].fill(0);
    }

    fn should_skip(&self, slot: usize) -> bool {
        self.skip[slot]
    }

    fn encode_range(&self, range: Range<usize>, out: &mut Vec<u8>) {
        pack_bits(&self.skip[range.clone()], out);
        // An elided slot's values are dead downstream: the guard skips.
        for slot in range.filter(|&slot| !self.elided(slot)) {
            self.write_vals(slot, out);
        }
    }

    fn decode_range(&mut self, range: Range<usize>, r: &mut Reader<'_>) -> Result<(), CodecError> {
        unpack_bits(r, &mut self.skip[range.clone()])?;
        let a = self.arity();
        for slot in range {
            if self.elided(slot) {
                self.vals[slot * a..(slot + 1) * a].fill(0);
            } else {
                self.read_vals(slot, r)?;
            }
        }
        Ok(())
    }

    /// A skip byte, then each carried value at its wire width.
    fn record_width(&self) -> usize {
        1 + self.payload_width()
    }

    /// A slot is non-default when its skip bit is set or any carried
    /// word is nonzero (every type's zero is the all-zero word; bit
    /// comparison keeps float payloads exact). A latched slot's record
    /// carries zero values, so its decode lands on the same canonical
    /// state as the elided flat decode.
    fn write_record(&self, slot: usize, out: &mut Vec<u8>) -> bool {
        let skip = self.skip[slot];
        if !skip && self.words(slot).iter().all(|&w| w == 0) {
            return false;
        }
        out.push(u8::from(skip));
        if self.elided(slot) {
            out.resize(out.len() + self.payload_width(), 0);
        } else {
            self.write_vals(slot, out);
        }
        true
    }

    fn read_record(&mut self, slot: usize, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let [skip] = r.array()?;
        self.skip[slot] = skip != 0;
        self.read_vals(slot, r)
    }

    fn detach(&self, slots: usize) -> Self {
        UdfDep {
            tys: self.tys.clone(),
            widths: self.widths.clone(),
            ranges: self.ranges.clone(),
            latch_elide: self.latch_elide,
            skip: vec![false; slots],
            vals: vec![0; slots * self.tys.len()],
        }
    }

    fn extract_shard(&self, range: Range<usize>) -> Self {
        let a = self.arity();
        UdfDep {
            skip: self.skip[range.clone()].to_vec(),
            vals: self.vals[range.start * a..range.end * a].to_vec(),
            ..self.detach(0)
        }
    }

    fn merge_shard(&mut self, range: Range<usize>, shard: &Self) {
        let a = self.arity();
        self.skip[range.clone()].copy_from_slice(&shard.skip);
        self.vals[range.start * a..range.end * a].copy_from_slice(&shard.vals);
    }
}

impl UdfDep {
    /// Wire bytes for `len` slots at the given carried arity in the wide
    /// (uncertified) layout: packed skip bits + 8 bytes per value.
    pub fn wire_bytes_for(len: usize, arity: usize) -> usize {
        len.div_ceil(8) + len * arity * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{CarriedCert, Monotonicity};
    use symple_core::WireCodec;

    fn narrow_cert(carried: &[(&str, Ty, ValueRange, u8)], latches: bool) -> DepCertificate {
        DepCertificate {
            carried: carried
                .iter()
                .map(|&(name, ty, range, width)| CarriedCert {
                    name: name.to_string(),
                    ty,
                    range,
                    width,
                    mono: Monotonicity::Unknown,
                })
                .collect(),
            skip_latch: latches,
            stable_breaks: latches,
        }
    }

    #[test]
    fn control_only_roundtrip() {
        let mut d = UdfDep::new(10, vec![]);
        d.mark(3);
        d.mark(9);
        let mut buf = Vec::new();
        d.encode_range(2..10, &mut buf);
        assert_eq!(buf.len(), UdfDep::wire_bytes_for(8, 0));
        let mut d2 = UdfDep::new(10, vec![]);
        d2.decode_message(2..10, WireCodec::Flat, &buf).unwrap();
        assert!(d2.should_skip(3) && d2.should_skip(9));
        assert!(!d2.should_skip(2));
    }

    #[test]
    fn carried_values_roundtrip() {
        let mut d = UdfDep::new(4, vec![Ty::Int, Ty::Float]);
        assert_eq!(d.arity(), 2);
        d.set_value(1, 0, Value::Int(42));
        d.set_value(1, 1, Value::Float(2.5));
        d.mark(1);
        let mut buf = Vec::new();
        d.encode_range(0..4, &mut buf);
        assert_eq!(buf.len(), UdfDep::wire_bytes_for(4, 2));
        let mut d2 = UdfDep::new(4, vec![Ty::Int, Ty::Float]);
        d2.decode_message(0..4, WireCodec::Flat, &buf).unwrap();
        assert_eq!(d2.value(1, 0), Value::Int(42));
        assert_eq!(d2.value(1, 1), Value::Float(2.5));
        assert!(d2.should_skip(1));
        assert_eq!(d2.value(0, 0), Value::Int(0));
    }

    #[test]
    fn reset_clears_slots() {
        let mut d = UdfDep::new(3, vec![Ty::Float]);
        d.mark(2);
        d.set_value(2, 0, Value::Float(1.0));
        d.reset_range(2..3);
        assert!(!d.should_skip(2));
        assert_eq!(d.value(2, 0), Value::Float(0.0));
    }

    #[test]
    #[should_panic(expected = "type changed")]
    fn type_confusion_rejected() {
        let mut d = UdfDep::new(1, vec![Ty::Int]);
        d.set_value(0, 0, Value::Float(1.0));
    }

    #[test]
    fn shard_view_preserves_arity_and_values() {
        let mut d = UdfDep::new(6, vec![Ty::Int, Ty::Float]);
        d.set_value(3, 1, Value::Float(0.1));
        d.mark(4);
        let mut shard = d.extract_shard(2..5);
        assert_eq!(shard.arity(), 2, "detach keeps the carried types");
        assert_eq!(shard.value(1, 1), Value::Float(0.1));
        assert!(shard.should_skip(2));
        shard.set_value(0, 0, Value::Int(9));
        d.merge_shard(2..5, &shard);
        assert_eq!(d.value(2, 0), Value::Int(9));
        assert!(d.should_skip(4));
        assert_eq!(d.value(5, 0), Value::Int(0), "outside range untouched");
    }

    #[test]
    fn coded_roundtrip_matches_flat_state() {
        let mut d = UdfDep::new(200, vec![Ty::Int, Ty::Float]);
        d.mark(3);
        d.set_value(3, 0, Value::Int(-7));
        d.set_value(90, 1, Value::Float(0.25));
        let mut wire = Vec::new();
        let fmt = d.encode_message(0..200, WireCodec::Adaptive, &mut wire);
        assert_eq!(fmt.name(), "sparse", "2 of 200 slots: deltas win");
        assert!(wire.len() < 1 + UdfDep::wire_bytes_for(200, 2));
        let mut d2 = UdfDep::new(200, vec![Ty::Int, Ty::Float]);
        d2.mark(50); // stale state the packed decode must reset
        d2.decode_message(0..200, WireCodec::Adaptive, &wire)
            .unwrap();
        for slot in 0..200 {
            assert_eq!(d2.should_skip(slot), d.should_skip(slot), "slot {slot}");
            for i in 0..2 {
                assert_eq!(
                    d2.value(slot, i).to_bits(),
                    d.value(slot, i).to_bits(),
                    "slot {slot} value {i}"
                );
            }
        }
    }

    #[test]
    fn coded_control_only_udf_matches_bit_semantics() {
        let mut d = UdfDep::new(64, vec![]);
        for s in [0usize, 1, 2, 3, 60] {
            d.mark(s);
        }
        let mut wire = Vec::new();
        d.encode_message(0..64, WireCodec::Adaptive, &mut wire);
        let mut d2 = UdfDep::new(64, vec![]);
        d2.decode_message(0..64, WireCodec::Adaptive, &wire)
            .unwrap();
        for s in 0..64 {
            assert_eq!(d2.should_skip(s), d.should_skip(s));
        }
    }

    #[test]
    fn partial_range_decode() {
        let mut d = UdfDep::new(8, vec![Ty::Int]);
        d.set_value(5, 0, Value::Int(7));
        d.mark(6);
        let mut buf = Vec::new();
        d.encode_range(4..8, &mut buf);
        let mut d2 = UdfDep::new(8, vec![Ty::Int]);
        d2.decode_message(4..8, WireCodec::Flat, &buf).unwrap();
        assert_eq!(d2.value(5, 0), Value::Int(7));
        assert!(d2.should_skip(6));
        assert_eq!(d2.value(0, 0), Value::Int(0), "outside range untouched");
    }

    #[test]
    fn certified_widths_shrink_the_flat_wire() {
        // K-core shape: one Int counter certified into [0, 4] → 1 byte.
        let cert = narrow_cert(
            &[("cnt", Ty::Int, ValueRange::Interval { lo: 0, hi: 4 }, 1)],
            false,
        );
        let mut d = UdfDep::with_certificate(10, vec![Ty::Int], &cert);
        assert_eq!(d.payload_width(), 1);
        d.set_value(2, 0, Value::Int(3));
        d.mark(2);
        let mut buf = Vec::new();
        d.encode_range(0..10, &mut buf);
        assert_eq!(buf.len(), 2 + 10, "bitmap + 1 byte per slot");
        assert!(buf.len() < UdfDep::wire_bytes_for(10, 1));
        let mut d2 = UdfDep::with_certificate(10, vec![Ty::Int], &cert);
        d2.decode_message(0..10, WireCodec::Flat, &buf).unwrap();
        assert_eq!(d2.value(2, 0), Value::Int(3));
        assert!(d2.should_skip(2));
    }

    #[test]
    fn narrow_int_sign_extends() {
        let cert = narrow_cert(
            &[("x", Ty::Int, ValueRange::Interval { lo: -300, hi: 300 }, 2)],
            false,
        );
        let mut d = UdfDep::with_certificate(2, vec![Ty::Int], &cert);
        d.set_value(0, 0, Value::Int(-300));
        d.set_value(1, 0, Value::Int(299));
        let mut buf = Vec::new();
        d.encode_range(0..2, &mut buf);
        assert_eq!(buf.len(), 1 + 2 * 2);
        let mut d2 = UdfDep::with_certificate(2, vec![Ty::Int], &cert);
        d2.decode_message(0..2, WireCodec::Flat, &buf).unwrap();
        assert_eq!(d2.value(0, 0), Value::Int(-300), "sign-extended");
        assert_eq!(d2.value(1, 0), Value::Int(299));
    }

    #[test]
    fn latch_elision_drops_latched_values_from_the_flat_wire() {
        // Sampling shape: an 8-byte float that cannot narrow, but whose
        // slot latches — elision is where the bytes come from.
        let cert = narrow_cert(&[("acc", Ty::Float, ValueRange::Unbounded, 8)], true);
        let mut d = UdfDep::with_certificate(4, vec![Ty::Float], &cert);
        assert!(d.latch_elide);
        d.set_value(0, 0, Value::Float(0.5));
        d.set_value(1, 0, Value::Float(1.5));
        d.mark(1); // latched: its value is dead downstream
        let mut buf = Vec::new();
        d.encode_range(0..4, &mut buf);
        assert_eq!(buf.len(), 1 + 3 * 8, "one latched slot elided");
        let mut d2 = UdfDep::with_certificate(4, vec![Ty::Float], &cert);
        d2.decode_message(0..4, WireCodec::Flat, &buf).unwrap();
        assert_eq!(d2.value(0, 0), Value::Float(0.5));
        assert!(d2.should_skip(1));
        assert_eq!(d2.value(1, 0), Value::Float(0.0), "elided decodes to zero");
        // Re-encoding the decoded state elides the same bytes again.
        let mut buf2 = Vec::new();
        d2.encode_range(0..4, &mut buf2);
        assert_eq!(buf2, buf);
    }

    #[test]
    fn certified_coded_roundtrip_canonicalizes_latched_slots() {
        let cert = narrow_cert(
            &[("cnt", Ty::Int, ValueRange::Interval { lo: 0, hi: 4 }, 1)],
            true,
        );
        let mut d = UdfDep::with_certificate(300, vec![Ty::Int], &cert);
        d.set_value(7, 0, Value::Int(2));
        d.set_value(9, 0, Value::Int(4));
        d.mark(9);
        let mut wire = Vec::new();
        let fmt = d.encode_message(0..300, WireCodec::Adaptive, &mut wire);
        assert_eq!(fmt.name(), "sparse");
        let mut d2 = UdfDep::with_certificate(300, vec![Ty::Int], &cert);
        d2.decode_message(0..300, WireCodec::Adaptive, &wire)
            .unwrap();
        assert_eq!(d2.value(7, 0), Value::Int(2));
        assert!(d2.should_skip(9));
        assert_eq!(
            d2.value(9, 0),
            Value::Int(0),
            "latched value canonicalized to zero on any wire path"
        );
        // Flat path lands on the same canonical state.
        let mut flat = Vec::new();
        d.encode_range(0..300, &mut flat);
        let mut d3 = UdfDep::with_certificate(300, vec![Ty::Int], &cert);
        d3.decode_message(0..300, WireCodec::Flat, &flat).unwrap();
        for slot in 0..300 {
            assert_eq!(d3.value(slot, 0), d2.value(slot, 0), "slot {slot}");
            assert_eq!(d3.should_skip(slot), d2.should_skip(slot));
        }
    }

    #[test]
    fn shards_keep_latched_values_in_memory() {
        // Elision is a wire-only canonicalization: the chunked executor's
        // shard round trip must not zero anything mid-pass.
        let cert = narrow_cert(&[("acc", Ty::Float, ValueRange::Unbounded, 8)], true);
        let mut d = UdfDep::with_certificate(6, vec![Ty::Float], &cert);
        d.set_value(3, 0, Value::Float(0.125));
        d.mark(3);
        let shard = d.extract_shard(2..5);
        assert_eq!(shard.value(1, 0), Value::Float(0.125), "not elided");
        let mut d2 = UdfDep::with_certificate(6, vec![Ty::Float], &cert);
        d2.merge_shard(2..5, &shard);
        assert_eq!(d2.value(3, 0), Value::Float(0.125));
        assert!(d2.should_skip(3));
    }

    /// `dep::tests`' damage check for `UdfDep`, wide, narrowed with latch
    /// elision, and narrowed to a bounded range: every strict prefix of a
    /// message is an error, and every one-byte XOR decodes or is an error.
    /// A flipped value byte of the bounded state lands outside its
    /// certified range, which is an error in every build.
    #[test]
    fn damaged_dependency_messages_decode_or_fail() {
        let cert = narrow_cert(&[("n", Ty::Int, ValueRange::Unbounded, 2)], true);
        let bounded = ValueRange::Interval { lo: -20, hi: 19 };
        let bounded = narrow_cert(&[("n", Ty::Int, bounded, 1)], false);
        let states = [
            UdfDep::new(40, vec![Ty::Int, Ty::Float]),
            UdfDep::with_certificate(40, vec![Ty::Int], &cert),
            UdfDep::with_certificate(40, vec![Ty::Int], &bounded),
        ];
        let mut out_of_range = 0;
        for fresh in states {
            for (range, every) in [(0..0, 1), (0..40, 1), (5..37, 3), (5..37, 40)] {
                let mut d = fresh.clone();
                for s in range.clone().step_by(every) {
                    d.set_value(s, 0, Value::Int(s as i64 - 20));
                    if s % 4 == 0 {
                        d.mark(s);
                    }
                }
                for codec in [WireCodec::Flat, WireCodec::Adaptive] {
                    let mut wire = Vec::new();
                    d.encode_message(range.clone(), codec, &mut wire);
                    let decode =
                        |msg: &[u8]| fresh.clone().decode_message(range.clone(), codec, msg);
                    for len in 0..wire.len() {
                        assert!(decode(&wire[..len]).is_err(), "{codec:?} prefix {len}");
                    }
                    for i in 0..wire.len() {
                        for mask in [0x01, 0x80, 0xff] {
                            let mut bad = wire.clone();
                            bad[i] ^= mask;
                            let res = decode(&bad);
                            out_of_range += matches!(res, Err(CodecError::OutOfRange { lo, .. })
                                if lo == -20i64 as u64)
                                as usize;
                        }
                    }
                }
            }
        }
        assert!(out_of_range > 0);
    }

    /// Encodes five slot ranges of a 10-slot state under both codecs —
    /// an empty range, then 1..9 with none, one, half and all of its
    /// slots holding values — decodes each message into a state holding
    /// stale values inside and outside the range, and checks the bytes
    /// and the decoded state against `golden` (`label, flat hex, adaptive
    /// hex, decoded state`). A filled slot `s` carries `Int(s % 5)` and
    /// `second(s)`, and its skip bit is set when `s % 3 == 0`.
    fn check_golden(
        kind: &str,
        fresh: impl Fn() -> UdfDep,
        second: fn(usize) -> Value,
        golden: &[(&str, &str, &str, &str)],
    ) {
        type Case = (&'static str, Range<usize>, fn(usize) -> bool);
        let cases: [Case; 5] = [
            ("empty range", 4..4, |_| true),
            ("none set", 1..9, |_| false),
            ("one set", 1..9, |s| s == 6),
            ("half set", 1..9, |s| s.is_multiple_of(2)),
            ("all set", 1..9, |_| true),
        ];
        let fill = |d: &mut UdfDep, s: usize| {
            d.set_value(s, 0, Value::Int(s as i64 % 5));
            d.set_value(s, 1, second(s));
            if s.is_multiple_of(3) {
                d.mark(s);
            }
        };
        let render = |d: &UdfDep| {
            let set = (0..10).filter(|&s| d.should_skip(s) || d.words(s) != [0, 0]);
            let slots = set.map(|s| {
                let mark = if d.should_skip(s) { "!" } else { "" };
                format!("{s}{mark}:{},{}", d.value(s, 0), d.value(s, 1))
            });
            slots.collect::<Vec<_>>().join(" ")
        };
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        for (case, range, set) in cases {
            let label = format!("{kind}/{case}");
            let mut d = fresh();
            for s in range.clone().filter(|&s| set(s)) {
                fill(&mut d, s);
            }
            let wire = [WireCodec::Flat, WireCodec::Adaptive].map(|codec| {
                let mut wire = Vec::new();
                d.encode_message(range.clone(), codec, &mut wire);
                let mut back = fresh();
                for s in [0, 3, 9] {
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
            "wide",
            || UdfDep::new(10, vec![Ty::Int, Ty::Float]),
            |s| Value::Float(s as f64 * 0.25 + 0.5),
            &[
                ("wide/empty range", "", "00", "0!:0,0.5 3!:3,1.25 9!:4,2.75"),
                (
                    "wide/none set",
                    concat!(
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "00",
                    ),
                    "0100",
                    "0!:0,0.5 9!:4,2.75",
                ),
                (
                    "wide/one set",
                    concat!(
                        "2000000000000000000000000000000000000000000000000000000000000000",
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "0000000000000000000000000000000000010000000000000000000000000000",
                        "4000000000000000000000000000000000000000000000000000000000000000",
                        "00",
                    ),
                    "01200101000000000000000000000000000040",
                    "0!:0,0.5 6!:1,2 9!:4,2.75",
                ),
                (
                    "wide/half set",
                    concat!(
                        "20000000000000000000000000000000000200000000000000000000000000f0",
                        "3f000000000000000000000000000000000400000000000000000000000000f8",
                        "3f00000000000000000000000000000000010000000000000000000000000000",
                        "4000000000000000000000000000000000030000000000000000000000000004",
                        "40",
                    ),
                    concat!(
                        "01aa000200000000000000000000000000f03f00040000000000000000000000",
                        "0000f83f01010000000000000000000000000000400003000000000000000000",
                        "000000000440",
                    ),
                    "0!:0,0.5 2:2,1 4:4,1.5 6!:1,2 8:3,2.5 9!:4,2.75",
                ),
                (
                    "wide/all set",
                    concat!(
                        "240100000000000000000000000000e83f0200000000000000000000000000f0",
                        "3f0300000000000000000000000000f43f0400000000000000000000000000f8",
                        "3f0000000000000000000000000000fc3f010000000000000000000000000000",
                        "4002000000000000000000000000000240030000000000000000000000000004",
                        "40",
                    ),
                    concat!(
                        "00240100000000000000000000000000e83f0200000000000000000000000000",
                        "f03f0300000000000000000000000000f43f0400000000000000000000000000",
                        "f83f0000000000000000000000000000fc3f0100000000000000000000000000",
                        "0040020000000000000000000000000002400300000000000000000000000000",
                        "0440",
                    ),
                    concat!(
                        "0!:0,0.5 1:1,0.75 2:2,1 3!:3,1.25 4:4,1.5 5:0,1.75 6!:1,2",
                        " 7:2,2.25 8:3,2.5 9!:4,2.75",
                    ),
                ),
            ],
        );
        let cnt = ("cnt", Ty::Int, ValueRange::Interval { lo: 0, hi: 4 }, 1);
        let off = (
            "off",
            Ty::Int,
            ValueRange::Interval { lo: -300, hi: 300 },
            2,
        );
        let cert = narrow_cert(&[cnt, off], false);
        check_golden(
            "certified",
            || UdfDep::with_certificate(10, vec![Ty::Int, Ty::Int], &cert),
            |s| Value::Int(s as i64 * 37 - 150),
            &[
                (
                    "certified/empty range",
                    "",
                    "00",
                    "0!:0,-150 3!:3,-39 9!:4,183",
                ),
                (
                    "certified/none set",
                    "00000000000000000000000000000000000000000000000000",
                    "0100",
                    "0!:0,-150 9!:4,183",
                ),
                (
                    "certified/one set",
                    "20000000000000000000000000000000014800000000000000",
                    "012001014800",
                    "0!:0,-150 6!:1,72 9!:4,183",
                ),
                (
                    "certified/half set",
                    "2000000002b4ff00000004feff000000014800000000039200",
                    "01aa0002b4ff0004feff0101480000039200",
                    "0!:0,-150 2:2,-76 4:4,-2 6!:1,72 8:3,146 9!:4,183",
                ),
                (
                    "certified/all set",
                    "24018fff02b4ff03d9ff04feff002300014800026d00039200",
                    "0024018fff02b4ff03d9ff04feff002300014800026d00039200",
                    concat!(
                        "0!:0,-150 1:1,-113 2:2,-76 3!:3,-39 4:4,-2 5:0,35 6!:1,72",
                        " 7:2,109 8:3,146 9!:4,183",
                    ),
                ),
            ],
        );
        // The skip latch elides a latched slot's values on the flat wire.
        let acc = ("acc", Ty::Float, ValueRange::Unbounded, 8);
        let cert = narrow_cert(&[cnt, acc], true);
        check_golden(
            "latched",
            || UdfDep::with_certificate(10, vec![Ty::Int, Ty::Float], &cert),
            |s| Value::Float(s as f64 * 0.1),
            &[
                (
                    "latched/empty range",
                    "",
                    "00",
                    "0!:0,0 3!:3,0.30000000000000004 9!:4,0.9",
                ),
                (
                    "latched/none set",
                    concat!(
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "0000000000000000000000000000000000000000000000000000000000000000",
                        "000000000000000000",
                    ),
                    "0100",
                    "0!:0,0 9!:4,0.9",
                ),
                (
                    "latched/one set",
                    concat!(
                        "2000000000000000000000000000000000000000000000000000000000000000",
                        "0000000000000000000000000000000000000000000000000000000000000000",
                    ),
                    "012001000000000000000000",
                    "0!:0,0 6!:0,0 9!:4,0.9",
                ),
                (
                    "latched/half set",
                    concat!(
                        "20000000000000000000029a9999999999c93f000000000000000000049a9999",
                        "999999d93f000000000000000000000000000000000000039a9999999999e93f",
                    ),
                    concat!(
                        "01aa00029a9999999999c93f00049a9999999999d93f01000000000000000000",
                        "00039a9999999999e93f",
                    ),
                    "0!:0,0 2:2,0.2 4:4,0.4 6!:0,0 8:3,0.8 9!:4,0.9",
                ),
                (
                    "latched/all set",
                    concat!(
                        "24019a9999999999b93f029a9999999999c93f049a9999999999d93f00000000",
                        "000000e03f02676666666666e63f039a9999999999e93f",
                    ),
                    concat!(
                        "0024019a9999999999b93f029a9999999999c93f049a9999999999d93f000000",
                        "00000000e03f02676666666666e63f039a9999999999e93f",
                    ),
                    concat!(
                        "0!:0,0 1:1,0.1 2:2,0.2 3!:0,0 4:4,0.4 5:0,0.5 6!:0,0",
                        " 7:2,0.7000000000000001 8:3,0.8 9!:4,0.9",
                    ),
                ),
            ],
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "escapes its certified range")]
    fn range_escape_caught_in_debug() {
        let cert = narrow_cert(
            &[("cnt", Ty::Int, ValueRange::Interval { lo: 0, hi: 4 }, 1)],
            false,
        );
        let mut d = UdfDep::with_certificate(1, vec![Ty::Int], &cert);
        d.set_value(0, 0, Value::Int(5));
    }
}
