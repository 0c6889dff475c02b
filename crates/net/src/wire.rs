//! Explicit little-endian wire codec for fixed-size values, and the one
//! bounds-checked reader every decoder of peer bytes goes through.
//!
//! Messages are encoded into `Vec<u8>` before they cross a channel, so
//! [`crate::CommStats`] counts the exact sizes a real network stack would
//! carry (headers are the [`crate::CostModel`]'s). No `unsafe`, no
//! serialization framework: each type has one canonical form.

use crate::CodecError;
use std::slice::ChunksExact;
use symple_graph::Vid;

/// A cursor over bytes that came from a peer. Every read is checked
/// against what is left and fails with a [`CodecError`], never a panic,
/// so a short, long or corrupt message is an `Err` wherever it is decoded.
#[derive(Debug, Clone)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader(buf)
    }

    fn short(&self, needed: usize) -> CodecError {
        let left = self.0.len();
        CodecError::Truncated { needed, left }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let Some((head, rest)) = self.0.split_at_checked(n) else {
            return Err(self.short(n));
        };
        self.0 = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let Some((head, rest)) = self.0.split_first_chunk() else {
            return Err(self.short(N));
        };
        self.0 = rest;
        Ok(*head)
    }

    /// An unsigned LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let [byte] = self.array()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::VarintOverflow)
    }

    /// Fills `out` from the next `out.len() * T::SIZE` bytes: one check.
    pub fn fill<T: Wire>(&mut self, out: &mut [T]) -> Result<(), CodecError> {
        let body = self.take(out.len() * T::SIZE)?;
        for (slot, bytes) in out.iter_mut().zip(body.chunks_exact(T::SIZE.max(1))) {
            *slot = T::decode(bytes)?;
        }
        Ok(())
    }

    /// The rest as whole `size`-byte records (`size > 0`); a partial one is an `Err`.
    pub fn records(self, size: usize) -> Result<ChunksExact<'a, u8>, CodecError> {
        match self.0.len() % size {
            0 => Ok(self.0.chunks_exact(size)),
            extra => Err(CodecError::Trailing(extra)),
        }
    }

    /// Ends the read: every byte of the message must have been read.
    pub fn finish(self) -> Result<(), CodecError> {
        self.records(usize::MAX).map(drop)
    }
}

/// A fixed-size value with a canonical little-endian wire encoding.
pub trait Wire: Sized + Copy {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// Appends the encoding of `self` to `out`.
    fn write(&self, out: &mut Vec<u8>);

    /// Reads one value (`SIZE` bytes) from `r`.
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decodes a buffer that holds exactly one value.
    fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let v = Self::read(&mut r)?;
        r.finish().map(|()| v)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i32, i64, f32, f64);

impl Wire for bool {
    const SIZE: usize = 1;
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.array().map(|[b]| b != 0)
    }
}

impl Wire for () {
    const SIZE: usize = 0;
    #[inline]
    fn write(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn read(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Wire for Vid {
    const SIZE: usize = 4;
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.raw().write(out);
    }
    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        u32::read(r).map(Vid::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }
    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

/// Encodes a slice of wire values into a fresh byte buffer.
pub fn encode_slice<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(items.len() * T::SIZE);
    for item in items {
        item.write(&mut out);
    }
    out
}

/// Decodes a byte buffer produced by [`encode_slice`]; a buffer that is
/// not a whole number of `T::SIZE`-byte values is an `Err` (a zero-size
/// `T` decodes from no bytes, to no values).
pub fn decode_vec<T: Wire>(buf: &[u8]) -> Result<Vec<T>, CodecError> {
    let values = Reader::new(buf).records(T::SIZE.max(1))?;
    values.map(T::decode).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(vals: &[T]) {
        let bytes = encode_slice(vals);
        assert_eq!(bytes.len(), vals.len() * T::SIZE);
        let back: Vec<T> = decode_vec(&bytes).unwrap();
        assert_eq!(&back, vals);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&[0u8, 1, 255]);
        roundtrip(&[0u32, 1, u32::MAX]);
        roundtrip(&[0u64, u64::MAX]);
        roundtrip(&[-1i32, i32::MIN, i32::MAX]);
        roundtrip(&[1.5f32, -0.0, f32::MAX]);
        roundtrip(&[1.5f64, f64::MIN_POSITIVE]);
        roundtrip(&[true, false]);
    }

    #[test]
    fn vid_roundtrip() {
        roundtrip(&[Vid::new(0), Vid::new(12345), Vid::new(u32::MAX)]);
    }

    #[test]
    fn tuple_roundtrips() {
        roundtrip(&[(Vid::new(3), 7u32), (Vid::new(9), 0u32)]);
        roundtrip(&[((Vid::new(3), 1.5f32), true)]);
        assert_eq!(<(Vid, u32)>::SIZE, 8);
        assert_eq!(<((Vid, f32), bool)>::SIZE, 9);
    }

    #[test]
    fn unit_payloads_are_free() {
        let bytes = encode_slice(&[(), (), ()]);
        assert!(bytes.is_empty());
        assert_eq!(decode_vec::<()>(&bytes), Ok(Vec::new()));
    }

    #[test]
    fn misaligned_buffer_is_an_error() {
        let short = CodecError::Trailing(3);
        assert_eq!(decode_vec::<u32>(&[1, 2, 3]), Err(short));
        let long = CodecError::Trailing(1);
        assert_eq!(decode_vec::<u32>(&[1, 2, 3, 4, 5]), Err(long));
    }

    #[test]
    fn reader_checks_every_read() {
        let mut r = Reader::new(&[0x96, 0x01, 7, 8, 9]);
        assert_eq!(r.varint(), Ok(150));
        assert_eq!(r.array::<2>(), Ok([7, 8]));
        let truncated = CodecError::Truncated { needed: 2, left: 1 };
        assert_eq!(r.clone().take(2), Err(truncated));
        assert_eq!(r.clone().finish(), Err(CodecError::Trailing(1)));
        assert_eq!(r.take(1), Ok(&[9][..]));
        assert_eq!(r.finish(), Ok(()));
        let eleven = [0xff; 11];
        assert_eq!(
            Reader::new(&eleven).varint(),
            Err(CodecError::VarintOverflow)
        );
        assert_eq!(u32::decode(&[1, 0, 0, 0, 0]), Err(CodecError::Trailing(1)));
    }

    #[test]
    fn little_endian_layout() {
        let mut out = Vec::new();
        0x01020304u32.write(&mut out);
        assert_eq!(out, [4, 3, 2, 1]);
    }
}
