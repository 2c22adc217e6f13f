//! Prime-field arithmetic in Montgomery form.
//!
//! [`Fp256`] is a generic 256-bit prime field parameterized by a
//! [`FieldParams`] marker type. Two instantiations are provided:
//!
//! * [`Fp`] — the secp256k1 base field (coordinates, Poseidon state),
//! * [`Fr`] — the secp256k1 scalar field (Schnorr/VRF scalars).
//!
//! All arithmetic uses CIOS Montgomery multiplication with `R = 2^256`; the
//! Montgomery constants are derived at compile time from the modulus alone,
//! so adding another field is a one-struct affair.

use crate::bigint::U256;
use rand::Rng;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Compile-time parameters of a 256-bit prime field.
///
/// Implementors only supply the modulus; `R^2 mod N` and `-N^{-1} mod 2^64`
/// are derived by const evaluation.
pub trait FieldParams: Copy + Clone + Eq + PartialEq + std::hash::Hash + 'static {
    /// The field modulus `N` (must be odd and exceed `2^255`).
    const MODULUS: U256;
    /// Short human-readable name used in `Debug` output.
    const NAME: &'static str;

    /// `R^2 mod N` where `R = 2^256`; used to enter Montgomery form.
    const R2: U256 = compute_r2(Self::MODULUS);
    /// `-N^{-1} mod 2^64`; the CIOS folding constant.
    const INV: u64 = compute_inv(Self::MODULUS);
    /// `(N + 1) / 4`, valid as a square-root exponent when `N ≡ 3 (mod 4)`.
    const SQRT_EXP: U256 = compute_sqrt_exp(Self::MODULUS);
    /// `N - 2`, the Fermat inversion exponent.
    const INV_EXP: U256 = Self::MODULUS.wrapping_sub(&U256::from_u64(2));
}

/// Derives `R^2 mod N` by 256 modular doublings of `R mod N`.
const fn compute_r2(modulus: U256) -> U256 {
    // R mod N = 2^256 - N  (valid because 2^255 < N < 2^256).
    let mut x = modulus.wrapping_neg();
    let mut i = 0;
    while i < 256 {
        x = x.double_mod(&modulus);
        i += 1;
    }
    x
}

/// Derives `-N^{-1} mod 2^64` by Newton iteration.
const fn compute_inv(modulus: U256) -> u64 {
    let n0 = modulus.0[0];
    let mut inv = 1u64;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// Derives `(N + 1) / 4` (exact when `N ≡ 3 (mod 4)`).
const fn compute_sqrt_exp(modulus: U256) -> U256 {
    modulus.wrapping_add(&U256::ONE).shr1().shr1()
}

/// An element of the prime field defined by `P`, stored in Montgomery form.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::field::Fp;
///
/// let a = Fp::from_u64(3);
/// let b = Fp::from_u64(4);
/// assert_eq!((a + b) * a.invert().unwrap() * a, a + b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp256<P: FieldParams> {
    mont: U256,
    _marker: PhantomData<P>,
}

impl<P: FieldParams> Fp256<P> {
    /// The additive identity.
    pub const ZERO: Self = Fp256 {
        mont: U256::ZERO,
        _marker: PhantomData,
    };

    /// Constructs from a canonical (non-Montgomery) integer `< N`.
    ///
    /// Values `>= N` are reduced once (callers feeding arbitrary 256-bit
    /// data should prefer [`Fp256::from_be_bytes_reduced`]).
    pub fn from_u256(v: U256) -> Self {
        let reduced = v.reduce_once(&P::MODULUS);
        Self::from_raw(mont_mul::<P>(&reduced, &P::R2))
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        Self::from_u256(U256::from_u64(v))
    }

    /// The multiplicative identity: `R mod N = 2^256 − N` in Montgomery
    /// form (valid because `2^255 < N < 2^256`).
    pub fn one() -> Self {
        Self::from_raw(P::MODULUS.wrapping_neg())
    }

    /// Interprets 32 big-endian bytes as an integer and reduces modulo `N`.
    ///
    /// Because `N > 2^255`, the bias introduced by the single conditional
    /// subtraction is at most one part in `2^255`.
    pub fn from_be_bytes_reduced(bytes: &[u8; 32]) -> Self {
        Self::from_u256(U256::from_be_bytes(bytes).reduce_once(&P::MODULUS))
    }

    /// Parses 32 big-endian bytes, rejecting non-canonical values `>= N`.
    pub fn from_be_bytes_canonical(bytes: &[u8; 32]) -> Option<Self> {
        let v = U256::from_be_bytes(bytes);
        if v.const_cmp(&P::MODULUS) >= 0 {
            None
        } else {
            Some(Self::from_u256(v))
        }
    }

    /// Parses a big-endian hexadecimal literal (see [`U256::from_hex`]).
    pub fn from_hex(s: &str) -> Self {
        Self::from_u256(U256::from_hex(s))
    }

    /// Wraps a value that is already in Montgomery form.
    const fn from_raw(mont: U256) -> Self {
        Fp256 {
            mont,
            _marker: PhantomData,
        }
    }

    /// Returns the canonical integer representative in `[0, N)`.
    pub fn to_u256(&self) -> U256 {
        mont_mul::<P>(&self.mont, &U256::ONE)
    }

    /// Canonical 32-byte big-endian encoding.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.to_u256().to_be_bytes()
    }

    /// Returns `true` for the zero element.
    pub fn is_zero(&self) -> bool {
        self.mont.is_zero()
    }

    /// Returns `true` if the canonical representative is odd.
    pub fn is_odd(&self) -> bool {
        self.to_u256().is_odd()
    }

    /// Field addition.
    pub fn add_ref(&self, rhs: &Self) -> Self {
        Self::from_raw(self.mont.add_mod(&rhs.mont, &P::MODULUS))
    }

    /// Field subtraction.
    pub fn sub_ref(&self, rhs: &Self) -> Self {
        Self::from_raw(self.mont.sub_mod(&rhs.mont, &P::MODULUS))
    }

    /// Field negation.
    pub fn neg_ref(&self) -> Self {
        Self::from_raw(U256::ZERO.sub_mod(&self.mont, &P::MODULUS))
    }

    /// Field multiplication.
    pub fn mul_ref(&self, rhs: &Self) -> Self {
        Self::from_raw(mont_mul::<P>(&self.mont, &rhs.mont))
    }

    /// Squaring.
    pub fn square(&self) -> Self {
        self.mul_ref(self)
    }

    /// Doubling.
    pub fn double(&self) -> Self {
        self.add_ref(self)
    }

    /// Exponentiation by a 256-bit exponent with a fixed 4-bit window:
    /// four squarings per exponent nibble and one multiplication by a
    /// precomputed power `self^1 … self^15` per nonzero nibble — 256
    /// squarings and at most 64 + 14 multiplications, where the
    /// exponents of [`Fp256::invert`] and [`Fp256::sqrt`] (almost all
    /// ones) cost the bitwise loop ~250 multiplications.
    pub fn pow(&self, exp: &U256) -> Self {
        let mut powers = [*self; 15];
        for j in 1..15 {
            powers[j] = powers[j - 1].mul_ref(self);
        }
        let mut nibbles = (0..exp.bits().div_ceil(4)).rev();
        let Some(top) = nibbles.next() else {
            return Self::one();
        };
        // The top nibble of a nonzero exponent is nonzero.
        let mut acc = powers[exp.window(4 * top, 4) as usize - 1];
        for i in nibbles {
            acc = acc.square().square().square().square();
            match exp.window(4 * i, 4) as usize {
                0 => {}
                nibble => acc = acc.mul_ref(&powers[nibble - 1]),
            }
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// Returns `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow(&P::INV_EXP))
        }
    }

    /// Square root for fields with `N ≡ 3 (mod 4)`.
    ///
    /// Returns `None` if the element is a quadratic non-residue.
    pub fn sqrt(&self) -> Option<Self> {
        debug_assert_eq!(
            P::MODULUS.0[0] & 3,
            3,
            "sqrt exponent shortcut requires N ≡ 3 (mod 4)"
        );
        let candidate = self.pow(&P::SQRT_EXP);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// Uniformly random nonzero-or-zero field element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling keeps the distribution exactly uniform.
        loop {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes);
            let v = U256::from_be_bytes(&bytes);
            if v.const_cmp(&P::MODULUS) < 0 {
                return Self::from_u256(v);
            }
        }
    }
}

/// CIOS Montgomery multiplication: returns `a * b * R^{-1} mod N`.
fn mont_mul<P: FieldParams>(a: &U256, b: &U256) -> U256 {
    let n = P::MODULUS.0;
    let mut t = [0u64; 6];
    for i in 0..4 {
        // t += a[i] * b
        let mut carry = 0u128;
        for (tj, bj) in t.iter_mut().zip(b.0) {
            let acc = *tj as u128 + (a.0[i] as u128) * (bj as u128) + carry;
            *tj = acc as u64;
            carry = acc >> 64;
        }
        let acc = t[4] as u128 + carry;
        t[4] = acc as u64;
        t[5] = (acc >> 64) as u64;

        // m = t[0] * (-N^-1) mod 2^64 ; t += m * N ; t >>= 64
        let m = t[0].wrapping_mul(P::INV);
        let mut carry = {
            let acc = t[0] as u128 + (m as u128) * (n[0] as u128);
            acc >> 64
        };
        for j in 1..4 {
            let acc = t[j] as u128 + (m as u128) * (n[j] as u128) + carry;
            t[j - 1] = acc as u64;
            carry = acc >> 64;
        }
        let acc = t[4] as u128 + carry;
        t[3] = acc as u64;
        t[4] = t[5] + ((acc >> 64) as u64);
        t[5] = 0;
    }
    let r = U256([t[0], t[1], t[2], t[3]]);
    if t[4] != 0 {
        // The true value is r + 2^256 >= N; one subtraction restores range.
        r.wrapping_sub(&P::MODULUS)
    } else {
        r.reduce_once(&P::MODULUS)
    }
}

impl<P: FieldParams> fmt::Debug for Fp256<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(0x{:x})", P::NAME, self.to_u256())
    }
}

impl<P: FieldParams> fmt::Display for Fp256<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.to_u256())
    }
}

impl<P: FieldParams> Default for Fp256<P> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<P: FieldParams> Add for Fp256<P> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        self.add_ref(&rhs)
    }
}

impl<P: FieldParams> Sub for Fp256<P> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.sub_ref(&rhs)
    }
}

impl<P: FieldParams> Mul for Fp256<P> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        self.mul_ref(&rhs)
    }
}

impl<P: FieldParams> Neg for Fp256<P> {
    type Output = Self;
    fn neg(self) -> Self {
        self.neg_ref()
    }
}

impl<P: FieldParams> AddAssign for Fp256<P> {
    fn add_assign(&mut self, rhs: Self) {
        *self = self.add_ref(&rhs);
    }
}

impl<P: FieldParams> SubAssign for Fp256<P> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = self.sub_ref(&rhs);
    }
}

impl<P: FieldParams> MulAssign for Fp256<P> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = self.mul_ref(&rhs);
    }
}

impl<P: FieldParams> From<u64> for Fp256<P> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl<P: FieldParams> serde::Serialize for Fp256<P> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.to_be_bytes())
    }
}

impl<'de, P: FieldParams> serde::Deserialize<'de> for Fp256<P> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bytes: Vec<u8> = serde::Deserialize::deserialize(deserializer)?;
        let arr: [u8; 32] = bytes
            .try_into()
            .map_err(|_| serde::de::Error::custom("expected 32 bytes"))?;
        Fp256::from_be_bytes_canonical(&arr)
            .ok_or_else(|| serde::de::Error::custom("non-canonical field element"))
    }
}

/// Marker for the secp256k1 base field (`p = 2^256 - 2^32 - 977`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SecpBase;

impl FieldParams for SecpBase {
    const MODULUS: U256 = U256([
        0xFFFF_FFFE_FFFF_FC2F,
        0xFFFF_FFFF_FFFF_FFFF,
        0xFFFF_FFFF_FFFF_FFFF,
        0xFFFF_FFFF_FFFF_FFFF,
    ]);
    const NAME: &'static str = "Fp";
}

/// Marker for the secp256k1 scalar field (the order of the group).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SecpScalar;

impl FieldParams for SecpScalar {
    const MODULUS: U256 = U256([
        0xBFD2_5E8C_D036_4141,
        0xBAAE_DCE6_AF48_A03B,
        0xFFFF_FFFF_FFFF_FFFE,
        0xFFFF_FFFF_FFFF_FFFF,
    ]);
    const NAME: &'static str = "Fr";
}

/// The secp256k1 base field.
pub type Fp = Fp256<SecpBase>;
/// The secp256k1 scalar field.
pub type Fr = Fp256<SecpScalar>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn montgomery_constants_are_consistent() {
        // INV * N ≡ -1 (mod 2^64)
        assert_eq!(SecpBase::INV.wrapping_mul(SecpBase::MODULUS.0[0]), u64::MAX);
        assert_eq!(
            SecpScalar::INV.wrapping_mul(SecpScalar::MODULUS.0[0]),
            u64::MAX
        );
        // One round-trips through Montgomery form.
        assert_eq!(Fp::one().to_u256(), U256::ONE);
        assert_eq!(Fr::one().to_u256(), U256::ONE);
    }

    #[test]
    fn basic_arithmetic() {
        let a = Fp::from_u64(1_000_000_007);
        let b = Fp::from_u64(998_244_353);
        assert_eq!((a + b) - b, a);
        assert_eq!(a * Fp::one(), a);
        assert_eq!(a * Fp::ZERO, Fp::ZERO);
        assert_eq!(a + a.neg_ref(), Fp::ZERO);
        assert_eq!(Fp::from_u64(6) * Fp::from_u64(7), Fp::from_u64(42));
    }

    #[test]
    fn inversion() {
        let mut r = rng();
        for _ in 0..32 {
            let a = Fp::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.invert().unwrap(), Fp::one());
        }
        assert!(Fp::ZERO.invert().is_none());
        let s = Fr::random(&mut r);
        assert_eq!(s * s.invert().unwrap(), Fr::one());
    }

    #[test]
    fn sqrt_of_squares() {
        let mut r = rng();
        for _ in 0..16 {
            let a = Fp::random(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == a.neg_ref());
        }
    }

    #[test]
    fn nonresidue_has_no_sqrt() {
        // Count roots over random elements: roughly half must fail.
        let mut r = rng();
        let mut failures = 0;
        for _ in 0..64 {
            if Fp::random(&mut r).sqrt().is_none() {
                failures += 1;
            }
        }
        assert!(failures > 10, "expected some quadratic non-residues");
    }

    #[test]
    fn wraparound_at_modulus() {
        let p_minus_1 = Fp::from_u256(SecpBase::MODULUS.wrapping_sub(&U256::ONE));
        assert_eq!(p_minus_1 + Fp::one(), Fp::ZERO);
        assert_eq!(p_minus_1 * p_minus_1, Fp::one()); // (-1)^2 = 1
    }

    #[test]
    fn canonical_byte_parsing() {
        let bytes = SecpBase::MODULUS.to_be_bytes();
        assert!(Fp::from_be_bytes_canonical(&bytes).is_none());
        let reduced = Fp::from_be_bytes_reduced(&bytes);
        assert!(reduced.is_zero());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Fp::from_u64(3);
        let mut expected = Fp::one();
        for _ in 0..77 {
            expected *= a;
        }
        assert_eq!(a.pow(&U256::from_u64(77)), expected);
    }

    /// The bit-at-a-time square-and-multiply `pow` replaced: the oracle
    /// for the windowed form.
    fn pow_bitwise<P: FieldParams>(base: &Fp256<P>, exp: &U256) -> Fp256<P> {
        let mut acc = Fp256::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc = acc.mul_ref(base);
            }
        }
        acc
    }

    #[test]
    fn pow_edge_exponents_match_bitwise() {
        let mut r = rng();
        let (a, s) = (Fp::random(&mut r), Fr::random(&mut r));
        for exp in [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(15),
            U256::from_u64(16),
            U256::MAX,
            SecpBase::INV_EXP,
            SecpBase::SQRT_EXP,
        ] {
            assert_eq!(a.pow(&exp), pow_bitwise(&a, &exp));
            assert_eq!(Fp::ZERO.pow(&exp), pow_bitwise(&Fp::ZERO, &exp));
        }
        for exp in [U256::ZERO, U256::ONE, SecpScalar::INV_EXP] {
            assert_eq!(s.pow(&exp), pow_bitwise(&s, &exp));
        }
    }

    proptest! {
        #[test]
        fn prop_pow_matches_bitwise(
            base in any::<[u8; 32]>(), exp in any::<[u8; 32]>(), shift in 0usize..256
        ) {
            // Shifted exponents cover every length, not only full-width ones.
            let mut exp = U256::from_be_bytes(&exp);
            for _ in 0..shift {
                exp = exp.shr1();
            }
            let a = Fp::from_be_bytes_reduced(&base);
            prop_assert_eq!(a.pow(&exp), pow_bitwise(&a, &exp));
            let s = Fr::from_be_bytes_reduced(&base);
            prop_assert_eq!(s.pow(&exp), pow_bitwise(&s, &exp));
        }

        #[test]
        fn prop_field_ring_axioms(x in any::<u64>(), y in any::<u64>(), z in any::<u64>()) {
            let (a, b, c) = (Fp::from_u64(x), Fp::from_u64(y), Fp::from_u64(z));
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a + b) + c, a + (b + c));
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_u64_embedding_is_homomorphic(x in any::<u32>(), y in any::<u32>()) {
            let (x, y) = (x as u64, y as u64);
            prop_assert_eq!(Fp::from_u64(x) + Fp::from_u64(y), Fp::from_u64(x + y));
            prop_assert_eq!(Fp::from_u64(x) * Fp::from_u64(y), Fp::from_u64(x * y));
            prop_assert_eq!(Fr::from_u64(x) * Fr::from_u64(y), Fr::from_u64(x * y));
        }

        #[test]
        fn prop_bytes_roundtrip(x in any::<[u8; 32]>()) {
            let a = Fp::from_be_bytes_reduced(&x);
            let b = Fp::from_be_bytes_canonical(&a.to_be_bytes()).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}
