//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! [`U256`] is the little-endian 4×u64 limb representation underlying the
//! prime-field types in [`crate::field`]. It lends the field kernel its
//! raw material — carry-returning addition and subtraction, the 512-bit
//! product and the 512-bit square — plus what exponent scanning, curve
//! decompression and canonical byte encoding read (bits, windows,
//! shifts, comparison, bytes). Nothing here knows a modulus, and there
//! is intentionally no general division.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer stored as four little-endian `u64` limbs.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::bigint::U256;
///
/// let a = U256::from_u64(7);
/// let b = U256::from_u64(5);
/// let (sum, carry) = a.overflowing_add(&b);
/// assert_eq!(sum, U256::from_u64(12));
/// assert!(!carry);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The additive identity.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Creates a `U256` from a single `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Creates a `U256` from four little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256(limbs)
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.0
    }

    /// Returns `true` if the value is zero.
    pub const fn is_zero(&self) -> bool {
        self.0[0] == 0 && self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0
    }

    /// Returns `true` if the lowest bit is set.
    pub const fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Parses a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let start = 32 - 8 * (i + 1);
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[start..start + 8]);
            *limb = u64::from_be_bytes(chunk);
        }
        U256(limbs)
    }

    /// Serializes to a big-endian 32-byte array.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            let start = 32 - 8 * (i + 1);
            out[start..start + 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses a big-endian hexadecimal string of up to 64 nibbles.
    ///
    /// # Panics
    ///
    /// Panics if the string is longer than 64 characters or contains
    /// non-hexadecimal characters. Intended for compile-time-style constants
    /// in tests and parameter tables.
    pub fn from_hex(s: &str) -> Self {
        let s = s.trim_start_matches("0x");
        assert!(s.len() <= 64, "hex literal longer than 256 bits");
        let mut bytes = [0u8; 32];
        let padded = format!("{s:0>64}");
        for i in 0..32 {
            bytes[i] = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16)
                .expect("invalid hex digit in U256 literal");
        }
        Self::from_be_bytes(&bytes)
    }

    /// Addition returning `(result, carry)`.
    #[inline]
    pub const fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        let mut i = 0;
        while i < 4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
            i += 1;
        }
        (U256(out), carry)
    }

    /// Subtraction returning `(result, borrow)`.
    #[inline]
    pub const fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        let mut i = 0;
        while i < 4 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
            i += 1;
        }
        (U256(out), borrow)
    }

    /// Wrapping addition modulo `2^256`.
    #[inline]
    pub const fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction modulo `2^256`.
    #[inline]
    pub const fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Two's-complement negation modulo `2^256` (`2^256 - self` for nonzero).
    pub const fn wrapping_neg(&self) -> U256 {
        U256::ZERO.wrapping_sub(self)
    }

    /// Full 256×256→512-bit schoolbook multiplication.
    ///
    /// Returns `(lo, hi)` halves of the product.
    #[inline]
    pub const fn widening_mul(&self, rhs: &U256) -> (U256, U256) {
        let mut t = [0u64; 8];
        let mut i = 0;
        while i < 4 {
            let mut carry = 0u128;
            let mut j = 0;
            while j < 4 {
                let acc = t[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                t[i + j] = acc as u64;
                carry = acc >> 64;
                j += 1;
            }
            t[i + 4] = carry as u64;
            i += 1;
        }
        (
            U256([t[0], t[1], t[2], t[3]]),
            U256([t[4], t[5], t[6], t[7]]),
        )
    }

    /// Full 256→512-bit squaring: the six off-diagonal limb products
    /// once, doubled, plus the four diagonal ones — 10 limb products
    /// where [`U256::widening_mul`] spends 16.
    ///
    /// Returns `(lo, hi)` halves of the square.
    #[inline]
    pub const fn widening_square(&self) -> (U256, U256) {
        let a = self.0;
        // Σ_{i<j} a_i·a_j·2^{64(i+j)} < 2^511, so it fits limbs 1..=7
        // and doubling it cannot carry out of limb 7.
        let mut t = [0u64; 8];
        let mut i = 0;
        while i < 3 {
            let mut carry = 0u128;
            let mut j = i + 1;
            while j < 4 {
                let acc = t[i + j] as u128 + (a[i] as u128) * (a[j] as u128) + carry;
                t[i + j] = acc as u64;
                carry = acc >> 64;
                j += 1;
            }
            t[i + 4] = carry as u64;
            i += 1;
        }
        // t ← 2·t + Σ a_i²·2^{128i}, two limbs a step.
        let mut top = 0u64;
        let mut carry = 0u128;
        let mut i = 0;
        while i < 4 {
            let sq = (a[i] as u128) * (a[i] as u128);
            let lo = ((t[2 * i] << 1) | top) as u128 + (sq as u64) as u128 + carry;
            let hi = ((t[2 * i + 1] << 1) | (t[2 * i] >> 63)) as u128 + (sq >> 64) + (lo >> 64);
            top = t[2 * i + 1] >> 63;
            t[2 * i] = lo as u64;
            t[2 * i + 1] = hi as u64;
            carry = hi >> 64;
            i += 1;
        }
        (
            U256([t[0], t[1], t[2], t[3]]),
            U256([t[4], t[5], t[6], t[7]]),
        )
    }

    /// Shifts right by one bit.
    pub const fn shr1(&self) -> U256 {
        let mut out = [0u64; 4];
        out[3] = self.0[3] >> 1;
        out[2] = (self.0[2] >> 1) | (self.0[3] << 63);
        out[1] = (self.0[1] >> 1) | (self.0[2] << 63);
        out[0] = (self.0[0] >> 1) | (self.0[1] << 63);
        U256(out)
    }

    /// Returns bit `i` (0 = least significant).
    pub const fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The `width` bits starting at bit `pos` as an integer (bits past
    /// 255 read as zero); `width` must be in `1..=63`. This is the digit
    /// extraction shared by the windowed exponentiation in
    /// [`crate::field`] and the scalar recodings in [`crate::curve`].
    pub(crate) const fn window(&self, pos: usize, width: usize) -> u64 {
        let (limb, offset) = (pos / 64, pos % 64);
        if limb >= 4 {
            return 0;
        }
        let mut v = self.0[limb] >> offset;
        if offset + width > 64 && limb + 1 < 4 {
            v |= self.0[limb + 1] << (64 - offset);
        }
        v & ((1 << width) - 1)
    }

    /// Number of significant bits (0 for zero).
    pub const fn bits(&self) -> usize {
        let mut i = 3;
        loop {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
            if i == 0 {
                return 0;
            }
            i -= 1;
        }
    }

    /// Constant-capable comparison: returns `-1`, `0` or `1`.
    pub const fn const_cmp(&self, rhs: &U256) -> i8 {
        let mut i = 3;
        loop {
            if self.0[i] < rhs.0[i] {
                return -1;
            }
            if self.0[i] > rhs.0[i] {
                return 1;
            }
            if i == 0 {
                return 0;
            }
            i -= 1;
        }
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.const_cmp(other) {
            -1 => Ordering::Less,
            0 => Ordering::Equal,
            _ => Ordering::Greater,
        }
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x")?;
        for byte in self.to_be_bytes() {
            write!(f, "{byte:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for byte in self.to_be_bytes() {
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for byte in self.to_be_bytes() {
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff00");
        let b = U256::from_u64(0x1234);
        let (sum, carry) = a.overflowing_add(&b);
        assert!(carry);
        let (back, borrow) = sum.overflowing_sub(&b);
        assert!(borrow);
        assert_eq!(back, a);
    }

    #[test]
    fn widening_mul_small() {
        let a = U256::from_u64(u64::MAX);
        let (lo, hi) = a.widening_mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(lo, U256([1, u64::MAX - 1, 0, 0]));
        assert!(hi.is_zero());
    }

    #[test]
    fn widening_mul_max() {
        let (lo, hi) = U256::MAX.widening_mul(&U256::MAX);
        // (2^256-1)^2 = 2^512 - 2^257 + 1
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256([u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX]));
    }

    #[test]
    fn byte_roundtrip() {
        let a = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
        assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn comparison_and_bits() {
        let a = U256::from_u64(5);
        let b = U256::from_hex("100000000000000000");
        assert!(a < b);
        assert_eq!(b.bits(), 69);
        assert!(b.bit(68));
        assert!(!b.bit(67));
    }

    #[test]
    fn window_reads_across_limbs_and_past_the_top() {
        let a = U256::from_hex("f123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
        assert_eq!(a.window(0, 4), 0xf);
        assert_eq!(a.window(4, 8), 0xde);
        assert_eq!(a.window(60, 8), 0xf0);
        assert_eq!(a.window(62, 5), 0b11100);
        assert_eq!(a.window(252, 4), 0xf);
        assert_eq!(a.window(252, 8), 0xf);
        assert_eq!(a.window(256, 5), 0);
        for pos in 0..256 {
            assert_eq!(a.window(pos, 1) == 1, a.bit(pos));
        }
    }

    #[test]
    fn widening_square_matches_widening_mul() {
        let patterns = [
            U256::ZERO,
            U256::ONE,
            U256::MAX,
            U256([u64::MAX, 0, 0, 0]),
            U256([0, u64::MAX, 0, 0]),
            U256([0, 0, u64::MAX, 0]),
            U256([0, 0, 0, u64::MAX]),
            U256([0, 0, 0, 1 << 63]),
            U256([1 << 63, 1 << 63, 1 << 63, 1 << 63]),
            U256::from_hex("f123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"),
        ];
        for a in patterns {
            assert_eq!(a.widening_square(), a.widening_mul(&a), "{a}");
        }
        // A multiplicative walk through limb patterns no list anticipates.
        let mut a =
            U256::from_hex("9e3779b97f4a7c15f39cc0605cedc8341082276bf3a27251f86c6a11d0c18e95");
        for _ in 0..2_000 {
            assert_eq!(a.widening_square(), a.widening_mul(&a), "{a}");
            let (lo, hi) = a.widening_square();
            a = lo.wrapping_add(&hi).wrapping_add(&U256::ONE);
        }
    }

    #[test]
    fn shr1_crosses_limbs() {
        let a = U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001");
        assert_eq!(a.shr1().0, [0, 0, 0, 0x4000000000000000]);
        assert_eq!(U256([0, 1, 0, 0]).shr1(), U256([1 << 63, 0, 0, 0]));
    }

    #[test]
    fn display_formats() {
        let a = U256::from_u64(0xdead);
        assert!(format!("{a}").ends_with("dead"));
        assert!(format!("{a:x}").ends_with("dead"));
        assert!(!format!("{a:?}").is_empty());
    }
}
