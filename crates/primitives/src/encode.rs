//! Canonical deterministic binary encoding, and its inverse.
//!
//! Every on-chain object is hashed through this encoding, so it must be
//! injective per type: integers are fixed-width big-endian, sequences are
//! length-prefixed, options carry a presence byte. [`digest`] combines the
//! encoding with a tagged SHA-256 to derive ids and commitment leaves.
//!
//! The bytes also travel — proofdata and receiver metadata reach nodes
//! from outside, the store reads its journal back — so [`Decode`] sits
//! beside [`Encode`] on every wire type. Every read goes through one
//! [`Reader`] and is checked against the rest of the payload: a decoder
//! returns a [`DecodeError`], never panics, never over-allocates.

use crate::curve::AffinePoint;
use crate::digest::Digest32;
use crate::field::{FieldParams, Fp256};

/// Why a payload does not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the value was complete.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A length prefix exceeded the remaining payload.
    BadLength(u64),
    /// Bytes remained after the full value was decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "payload truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            DecodeError::BadLength(n) => write!(f, "length prefix {n} exceeds payload"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Types with a canonical binary encoding.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::encode::Encode;
///
/// let v: Vec<u64> = vec![1, 2, 3];
/// assert_eq!(v.encoded().len(), 8 + 3 * 8);
/// ```
pub trait Encode {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Returns the canonical encoding as a fresh buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// Types that decode from their canonical encoding: the inverse of
/// their [`Encode`] impl, refusing anything that impl cannot produce.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::encode::{Decode, DecodeError, Encode};
///
/// let pair: (u32, u64) = (7, 1 << 40);
/// let bytes = pair.encoded();
/// assert_eq!(<(u32, u64)>::decode(&bytes), Ok(pair));
/// assert_eq!(
///     <(u32, u64)>::decode(&bytes[..bytes.len() - 1]),
///     Err(DecodeError::UnexpectedEof)
/// );
/// ```
pub trait Decode: Sized {
    /// The fewest bytes any encoding of the type takes. A length prefix
    /// claiming more elements than the rest of the payload could hold is
    /// refused before anything is allocated.
    const MIN_LEN: usize;

    /// Reads one value off `reader`.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a whole payload as one value.
    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        decode_with(bytes, Self::decode_from)
    }
}

/// Decodes a whole payload with `read`: the payload must hold exactly
/// what `read` consumes.
pub fn decode_with<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut reader = Reader::new(bytes);
    let value = read(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// A cursor over one payload; every read is checked against what is
/// left of it.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }

    /// Reads one value.
    pub fn read<T: Decode>(&mut self) -> Result<T, DecodeError> {
        T::decode_from(self)
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(DecodeError::UnexpectedEof)?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(DecodeError::UnexpectedEof)?;
        self.rest = rest;
        Ok(*head)
    }

    /// `len` values in a row, whatever width the count that announced
    /// them was written in.
    pub fn seq<T: Decode>(&mut self, len: u64) -> Result<Vec<T>, DecodeError> {
        if len > (self.rest.len() / T::MIN_LEN.max(1)) as u64 {
            return Err(DecodeError::BadLength(len));
        }
        let mut values = Vec::with_capacity(len as usize);
        for _ in 0..len {
            values.push(self.read()?);
        }
        Ok(values)
    }
}

/// Computes the tagged digest of a value's canonical encoding.
pub fn digest<T: Encode + ?Sized>(tag: &str, value: &T) -> Digest32 {
    Digest32::hash_tagged(tag, &[&value.encoded()])
}

impl Encode for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Encode for u16 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl Encode for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl Encode for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl Encode for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Encode for [u8; 32] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl Encode for [u8; 33] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl Encode for [u8; 65] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl Encode for str {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_into(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_str().encode_into(out);
    }
}

impl Encode for Digest32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl<P: FieldParams> Encode for Fp256<P> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl Encode for AffinePoint {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_compressed());
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_slice().encode_into(out);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_into(out);
        for item in self {
            item.encode_into(out);
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self).encode_into(out);
    }
}

/// `Decode` for the fixed-width big-endian integers.
macro_rules! decode_int {
    ($($t:ty),*) => {$(
        impl Decode for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(<$t>::from_be_bytes(reader.array()?))
            }
        }
    )*};
}
decode_int!(u8, u32, u64);

impl Decode for Digest32 {
    const MIN_LEN: usize = 32;
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Digest32(reader.array()?))
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_LEN: usize = 8;
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = reader.read()?;
        reader.seq(len)
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((reader.read()?, reader.read()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Fp;

    #[test]
    fn integers_are_big_endian_fixed_width() {
        assert_eq!(1u64.encoded(), vec![0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(0x0102u16.encoded(), vec![1, 2]);
        assert_eq!(true.encoded(), vec![1]);
    }

    #[test]
    fn sequences_are_length_prefixed() {
        let v: Vec<u8> = vec![9, 9];
        assert_eq!(v.encoded(), vec![0, 0, 0, 0, 0, 0, 0, 2, 9, 9]);
        let empty: Vec<u64> = vec![];
        assert_eq!(empty.encoded().len(), 8);
    }

    #[test]
    fn options_carry_presence() {
        assert_eq!(Option::<u8>::None.encoded(), vec![0]);
        assert_eq!(Some(5u8).encoded(), vec![1, 5]);
    }

    #[test]
    fn digest_depends_on_tag_and_value() {
        let a = digest("t1", &42u64);
        let b = digest("t2", &42u64);
        let c = digest("t1", &43u64);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, digest("t1", &42u64));
    }

    #[test]
    fn nested_structures_are_unambiguous() {
        // ([1], [2,3]) vs ([1,2], [3]) must encode differently.
        let a = (vec![1u8], vec![2u8, 3u8]).encoded();
        let b = (vec![1u8, 2u8], vec![3u8]).encoded();
        assert_ne!(a, b);
    }

    #[test]
    fn decoding_inverts_encoding() {
        let value: Vec<(u8, Digest32)> = vec![(1, Digest32::hash_bytes(b"a")), (2, Digest32::ZERO)];
        assert_eq!(Vec::<(u8, Digest32)>::decode(&value.encoded()), Ok(value));
        assert_eq!(u32::decode(&0x0102_0304u32.encoded()), Ok(0x0102_0304));
    }

    #[test]
    fn a_length_prefix_beyond_the_payload_is_refused_before_allocating() {
        let mut bytes = u64::MAX.encoded();
        bytes.extend_from_slice(&[0; 31]);
        assert_eq!(
            Vec::<Digest32>::decode(&bytes),
            Err(DecodeError::BadLength(u64::MAX))
        );
        // One element announced, 31 of its 32 bytes present.
        bytes[..8].copy_from_slice(&1u64.to_be_bytes());
        assert_eq!(
            Vec::<Digest32>::decode(&bytes),
            Err(DecodeError::BadLength(1))
        );
    }

    #[test]
    fn a_whole_payload_decode_refuses_trailing_bytes() {
        let mut bytes = 7u64.encoded();
        bytes.push(0);
        assert_eq!(u64::decode(&bytes), Err(DecodeError::TrailingBytes(1)));
        assert_eq!(u64::decode(&bytes[..7]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn field_elements_encode_canonically() {
        let x = Fp::from_u64(0xdead);
        assert_eq!(x.encoded(), x.to_be_bytes().to_vec());
    }
}
