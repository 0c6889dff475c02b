//! Dense bit vectors over vertex ids.
//!
//! Bitmaps are the workhorse of the runtime: frontiers, visited sets,
//! dependency "skip" state, and active-vertex masks are all bitmaps. The
//! paper's dependency messages for control dependency are literally "a bit
//! map (one bit per vertex) circulating around all mirrors and master"
//! (§3), so the wire format of a control dependency message is a slice of
//! this bitmap's words.

use crate::Vid;
use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length dense bit vector indexed by [`Vid`] or `usize`.
///
/// # Example
///
/// ```
/// use symple_graph::{Bitmap, Vid};
/// let mut bm = Bitmap::new(100);
/// bm.set(Vid::new(3).index());
/// bm.set(70);
/// assert!(bm.get(3));
/// assert!(!bm.get(4));
/// assert_eq!(bm.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to one. Returns the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let prev = *w & mask != 0;
        *w |= mask;
        prev
    }

    /// Clears bit `i` to zero.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Sets bit `i` to `value`.
    #[inline]
    pub fn assign(&mut self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Reads the bit for vertex `v`.
    #[inline]
    pub fn get_vid(&self, v: Vid) -> bool {
        self.get(v.index())
    }

    /// Sets the bit for vertex `v`. Returns the previous value.
    #[inline]
    pub fn set_vid(&mut self, v: Vid) -> bool {
        self.set(v.index())
    }

    /// Zeroes every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit (tail bits beyond `len` stay zero).
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }

    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Overwrites the bit range `[start, end)` with raw `words`
    /// (little-endian bit order, bit 0 of `words[0]` is `start`). Bits
    /// beyond `end` inside the final word are zeroed only if they lie
    /// beyond `len` (callers use word-aligned partition boundaries, so
    /// interior ranges end on word boundaries).
    ///
    /// This is the receive path of a frontier-synchronisation message:
    /// the owner's slice *replaces* the local copy, so cleared bits
    /// propagate.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, not word-aligned at `start`,
    /// or `words` is shorter than the range requires.
    pub fn assign_range_words(&mut self, start: usize, end: usize, words: &[u64]) {
        assert!(start <= end && end <= self.len, "range out of bounds");
        assert_eq!(start % WORD_BITS, 0, "range start must be word aligned");
        let nwords = (end - start).div_ceil(WORD_BITS);
        assert!(words.len() >= nwords, "source words too short");
        let w0 = start / WORD_BITS;
        self.words[w0..w0 + nwords].copy_from_slice(&words[..nwords]);
        self.mask_tail();
    }

    /// Copies the bit range `[start, end)` out as raw words
    /// (the send path of a control-dependency message).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `start` is not word-aligned.
    pub fn extract_range_words(&self, start: usize, end: usize) -> Vec<u64> {
        assert!(start <= end && end <= self.len, "range out of bounds");
        assert_eq!(start % WORD_BITS, 0, "range start must be word aligned");
        let nwords = (end - start).div_ceil(WORD_BITS);
        let w0 = start / WORD_BITS;
        let mut out = self.words[w0..w0 + nwords].to_vec();
        let tail = (end - start) % WORD_BITS;
        if tail != 0 {
            if let Some(last) = out.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        out
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Raw word storage (read-only), little-endian bit order.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap(len={}, ones={})", self.len, self.count_ones())
    }
}

/// Iterator over set-bit indices, produced by [`Bitmap::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bm = Bitmap::new(130);
        assert!(!bm.get(0));
        assert!(!bm.set(129));
        assert!(bm.get(129));
        assert!(bm.set(129), "second set reports previous value");
        bm.clear(129);
        assert!(!bm.get(129));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::new(10).get(10);
    }

    #[test]
    fn set_all_respects_tail() {
        let mut bm = Bitmap::new(70);
        bm.set_all();
        assert_eq!(bm.count_ones(), 70);
        bm.clear_all();
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut bm = Bitmap::new(200);
        for i in [0usize, 5, 63, 64, 65, 190] {
            bm.set(i);
        }
        let ones: Vec<_> = bm.iter_ones().collect();
        assert_eq!(ones, [0, 5, 63, 64, 65, 190]);
    }

    #[test]
    fn extract_and_assign_range_roundtrip() {
        let mut bm = Bitmap::new(256);
        for i in [64usize, 70, 100, 127] {
            bm.set(i);
        }
        let words = bm.extract_range_words(64, 128);
        let mut other = Bitmap::new(256);
        other.assign_range_words(64, 128, &words);
        let ones: Vec<_> = other.iter_ones().collect();
        assert_eq!(ones, [64, 70, 100, 127]);
    }

    #[test]
    fn extract_masks_partial_tail() {
        let mut bm = Bitmap::new(256);
        bm.set(64);
        bm.set(100); // beyond the extracted range [64, 96)
        let words = bm.extract_range_words(64, 96);
        assert_eq!(words.len(), 1);
        assert_eq!(words[0], 1); // only bit 64 visible
    }

    #[test]
    fn assign_range_overwrites() {
        let mut bm = Bitmap::new(192);
        bm.set(64);
        bm.set(65);
        // Owner says: only bit 66 is set in [64, 128).
        let mut owner = Bitmap::new(192);
        owner.set(66);
        let words = owner.extract_range_words(64, 128);
        bm.assign_range_words(64, 128, &words);
        let ones: Vec<_> = bm.iter_ones().collect();
        assert_eq!(ones, [66], "stale bits must be cleared by assign");
    }

    #[test]
    fn assign_both_ways() {
        let mut bm = Bitmap::new(8);
        bm.assign(3, true);
        assert!(bm.get(3));
        bm.assign(3, false);
        assert!(!bm.get(3));
    }

    #[test]
    fn vid_accessors() {
        let mut bm = Bitmap::new(10);
        bm.set_vid(Vid::new(9));
        assert!(bm.get_vid(Vid::new(9)));
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.iter_ones().count(), 0);
    }
}
