//! Prime-field arithmetic modulo `N = 2^256 − C`.
//!
//! [`Fp256`] is a generic 256-bit prime field parameterized by a
//! [`FieldParams`] marker type. Two instantiations are provided:
//!
//! * [`Fp`] — the secp256k1 base field (coordinates, Poseidon state),
//! * [`Fr`] — the secp256k1 scalar field (Schnorr/VRF scalars).
//!
//! # Representation
//!
//! An element is its canonical integer in `[0, N)`: no Montgomery form,
//! no conversion on the way in or out. `from_u64` stores the limb,
//! `one()` is 1, `to_u256` / `to_be_bytes` / `is_odd` read the limbs.
//! The Poseidon permutation runs its own limbs: it converts its state
//! to radix 2⁵² on entry and back on exit (the `poseidon` module docs,
//! # Representation), so this kernel serves every other product.
//!
//! # The kernel
//!
//! Both secp256k1 moduli are `N = 2^256 − C` with `C` small (33 bits in
//! one limb for `Fp`, 129 bits in three for `Fr`), so `2^256 ≡ C (mod N)`
//! and everything else follows from the modulus alone:
//!
//! * **One subtraction.** For a 257-bit `v < 2N`, `v ≥ N` exactly when
//!   `v + C` carries out of `2^256` (or `v` already stands above it), and
//!   then `v − N` is the low 256 bits of `v + C`: one addition and a
//!   select, no limb compare. `add`, `from_u256` and the end of every
//!   multiplication are this step.
//! * **The fold.** A wide value `lo + hi·2^256` is congruent to
//!   `lo + hi·C`. If `hi < 2^h`, then `hi·C < 2^(h + |C|)` and the sum
//!   stands at most `max(h + |C|, 256) + 1 − 256` bits above `2^256`:
//!   every fold sheds `255 − |C|` bits of the high part, so the high part
//!   is down to a few bits after two folds for `Fp` and three for `Fr`.
//!   The fold at which `h + |C| ≤ 255` is the last one: its sum is below
//!   `2^256 + 2^255 < 2N` and the one subtraction finishes. The number of
//!   folds and the limbs each one reads are constants derived from `|C|`
//!   at compile time, so the loops unroll and neither field pays for the
//!   other's `C`; a modulus the derivation cannot serve (even, below
//!   `2^255`, or with a `C` three folds do not bring down: more than 169
//!   bits, so never beyond three limbs) fails to compile.
//! * **Counts.** `mul` is a 4×4 schoolbook product (16 limb products)
//!   and, for `Fp`, 4 + 1 more to fold; `square` is 6 doubled
//!   off-diagonal + 4 diagonal products (10) and the same 5. CIOS
//!   Montgomery multiplication spends 32 + 4 on either.
//! * **One reduction per dot product.** [`Fp256::sum_of_products`] adds
//!   up to four 512-bit products in 9 limbs (three products of `N − 1`
//!   already overflow 512 bits) and folds once; the fold schedule is
//!   derived for that 514-bit input.
//!
//! # Inversion
//!
//! [`Fp256::invert`] is the Bernstein–Yang divstep gcd ("Fast
//! constant-time gcd computation and modular inversion", TCHES 2019) in
//! the variable-time form libsecp256k1's `modinv64_var` takes: `(f, g)`
//! start as `(N, x)` in five signed 62-bit limbs; each round runs 62
//! divsteps on the low 64 bits alone, skipping a run of zero bits of `g`
//! in one shift and cancelling up to 6 low bits of `g` per odd step, and
//! applies their 2×2 matrix to `(f, g)` and to the cofactors `(d, e)`
//! (kept in `(−2N, N)` by adding multiples of `N` that make the division
//! by `2^62` exact). A 256-bit input takes about 530 divsteps, 9 rounds,
//! where Fermat's `x^(N − 2)` is ~290 multiplications; the kernel's
//! products never see these limbs, so the kernel above is untouched.
//! [`Fp256::sqrt`] keeps its exponentiation.

use crate::bigint::U256;
use rand::Rng;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Compile-time parameters of a 256-bit prime field.
///
/// Implementors only supply the modulus; everything the arithmetic needs
/// is derived from it by const evaluation.
pub trait FieldParams: Copy + Clone + Eq + PartialEq + std::hash::Hash + 'static {
    /// The field modulus `N`: odd, above `2^255`, and with `2^256 − N`
    /// of at most 169 bits, inside three limbs (checked at compile time
    /// by the kernel).
    const MODULUS: U256;
    /// Short human-readable name used in `Debug` output.
    const NAME: &'static str;

    /// `(N + 1) / 4`, valid as a square-root exponent when `N ≡ 3 (mod 4)`.
    const SQRT_EXP: U256 = compute_sqrt_exp(Self::MODULUS);
}

/// Derives `(N + 1) / 4` (exact when `N ≡ 3 (mod 4)`).
const fn compute_sqrt_exp(modulus: U256) -> U256 {
    modulus.wrapping_add(&U256::ONE).shr1().shr1()
}

/// Limbs of a value about to be reduced: four below `2^256` and up to
/// five above (the sum of four 512-bit products is below `2^514`).
type Wide = [u64; 9];

/// A 512-bit product, given as its halves, as a [`Wide`].
#[inline(always)]
fn wide((lo, hi): (U256, U256)) -> Wide {
    let ([l0, l1, l2, l3], [h0, h1, h2, h3]) = (lo.0, hi.0);
    [l0, l1, l2, l3, h0, h1, h2, h3, 0]
}

/// Bits a [`Wide`] entering [`Fp256::reduce_wide`] may stand above `2^256`.
const WIDE_HI_BITS: usize = 258;

/// Bits the sum `lo + hi·C` may stand above `2^256` when `hi < 2^hi_bits`
/// and `C < 2^c_bits`, or `0` when that fold is the last one: its sum is
/// below `2^256 + 2^255 < 2N` and one subtraction finishes.
const fn bits_after_fold(hi_bits: usize, c_bits: usize) -> usize {
    // hi·C < 2^product_bits, so lo + hi·C < 2^(max(product_bits, 256) + 1).
    let product_bits = hi_bits + c_bits;
    if product_bits <= 255 {
        0
    } else if product_bits <= 256 {
        1
    } else {
        product_bits - 255
    }
}

/// The fold schedule for a `c_bits`-bit `C` (module docs): the limbs
/// standing above `2^256` after the first and after the second fold,
/// `0` where no further fold is needed. [`Fp256::reduce_wide`] folds at
/// most three times; a `C` too wide for that (beyond 169 bits) is a
/// compile error here.
const fn fold_schedule(c_bits: usize) -> [usize; 2] {
    let after_first = bits_after_fold(WIDE_HI_BITS, c_bits);
    let after_second = bits_after_fold(after_first, c_bits);
    assert!(
        after_second == 0 || bits_after_fold(after_second, c_bits) == 0,
        "2^256 - N is too wide for three folds"
    );
    [after_first.div_ceil(64), after_second.div_ceil(64)]
}

/// An element of the prime field defined by `P`: its canonical integer
/// representative in `[0, N)`.
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
    value: U256,
    _marker: PhantomData<P>,
}

impl<P: FieldParams> Fp256<P> {
    /// The additive identity.
    pub const ZERO: Self = Self::from_canonical(U256::ZERO);

    /// `C = 2^256 − N`, so that `2^256 ≡ C (mod N)` — behind the check of
    /// the shape the kernel assumes. Every routine that relies on the
    /// shape names this constant, so a modulus of another shape does not
    /// compile; [`Self::FOLDS`] adds the bound on `C`'s width.
    const C: U256 = {
        assert!(P::MODULUS.is_odd(), "the modulus must be odd");
        assert!(P::MODULUS.bit(255), "the modulus must exceed 2^255");
        P::MODULUS.wrapping_neg()
    };

    /// Significant limbs of `C` (at most three: see [`fold_schedule`]).
    const C_LIMBS: usize = Self::C.bits().div_ceil(64);

    /// Limbs above `2^256` after the first and the second fold of
    /// [`Self::reduce_wide`].
    const FOLDS: [usize; 2] = fold_schedule(Self::C.bits());

    /// Wraps an integer already known to be below `N`.
    const fn from_canonical(value: U256) -> Self {
        Fp256 {
            value,
            _marker: PhantomData,
        }
    }

    /// `v mod N` for the 257-bit `v = carry·2^256 + low < 2N`: `v ≥ N`
    /// exactly when `v + C` reaches `2^256`, and then `v − N` is the low
    /// half of `v + C`.
    #[inline(always)]
    fn reduce_once(low: U256, carry: bool) -> Self {
        let (shifted, wrapped) = low.overflowing_add(&Self::C);
        Self::from_canonical(if carry | wrapped { shifted } else { low })
    }

    /// `lo + hi·C`, where `hi` is the `hi_len` limbs of `t` above `2^256`.
    #[inline(always)]
    fn fold(t: &Wide, hi_len: usize) -> Wide {
        let c = Self::C.0;
        let mut out: Wide = [0; 9];
        out[..4].copy_from_slice(&t[..4]);
        // The sum fits limbs `0..=top`; a row's carry ripples that far.
        let top = (hi_len + Self::C_LIMBS).max(4);
        for j in 0..Self::C_LIMBS {
            let mut carry = 0u64;
            for i in 0..hi_len {
                let acc = out[i + j] as u128 + (t[4 + i] as u128) * (c[j] as u128) + carry as u128;
                out[i + j] = acc as u64;
                carry = (acc >> 64) as u64;
            }
            for limb in &mut out[j + hi_len..=top] {
                let (sum, wrapped) = limb.overflowing_add(carry);
                *limb = sum;
                carry = wrapped as u64;
            }
        }
        out
    }

    /// Folds a wide value below `2^514` whose limbs above `2^256` are
    /// `t[4..4 + hi_len]` by the schedule, down to `2^256 + 2^255`: at
    /// most one bit is left standing in limb 4.
    #[inline(always)]
    fn fold_down(t: &Wide, hi_len: usize) -> Wide {
        let [after_first, after_second] = Self::FOLDS;
        let mut t = Self::fold(t, hi_len);
        t = Self::fold(&t, after_first);
        if after_second != 0 {
            t = Self::fold(&t, after_second);
        }
        t
    }

    /// Reduces a wide value (as for [`Self::fold_down`]): folds, then
    /// subtracts once.
    #[inline(always)]
    fn reduce_wide(t: &Wide, hi_len: usize) -> Self {
        let t = Self::fold_down(t, hi_len);
        Self::reduce_once(U256([t[0], t[1], t[2], t[3]]), t[4] != 0)
    }

    /// Reduces a 512-bit product given as its halves.
    #[inline(always)]
    fn reduce_product(product: (U256, U256)) -> Self {
        Self::reduce_wide(&wide(product), 4)
    }

    /// Constructs from an integer; values `>= N` are reduced (any 256-bit
    /// value is below `2N`, so one subtraction is a full reduction).
    pub fn from_u256(v: U256) -> Self {
        Self::reduce_once(v, false)
    }

    /// Constructs from a `u64` (below every admitted modulus).
    pub fn from_u64(v: u64) -> Self {
        Self::from_canonical(U256::from_u64(v))
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Self::from_canonical(U256::ONE)
    }

    /// Interprets 32 big-endian bytes as an integer and reduces modulo `N`.
    ///
    /// Because `N > 2^255`, the bias introduced by the single conditional
    /// subtraction is at most one part in `2^255`.
    pub fn from_be_bytes_reduced(bytes: &[u8; 32]) -> Self {
        Self::from_u256(U256::from_be_bytes(bytes))
    }

    /// Parses 32 big-endian bytes, rejecting non-canonical values `>= N`.
    pub fn from_be_bytes_canonical(bytes: &[u8; 32]) -> Option<Self> {
        let v = U256::from_be_bytes(bytes);
        if v.const_cmp(&P::MODULUS) >= 0 {
            None
        } else {
            Some(Self::from_canonical(v))
        }
    }

    /// Parses a big-endian hexadecimal literal (see [`U256::from_hex`]).
    pub fn from_hex(s: &str) -> Self {
        Self::from_u256(U256::from_hex(s))
    }

    /// Returns the canonical integer representative in `[0, N)`.
    pub fn to_u256(&self) -> U256 {
        self.value
    }

    /// Canonical 32-byte big-endian encoding.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.value.to_be_bytes()
    }

    /// Returns `true` for the zero element.
    pub fn is_zero(&self) -> bool {
        self.value.is_zero()
    }

    /// Returns `true` if the canonical representative is odd.
    pub fn is_odd(&self) -> bool {
        self.value.is_odd()
    }

    /// Field addition.
    pub fn add_ref(&self, rhs: &Self) -> Self {
        let (sum, carry) = self.value.overflowing_add(&rhs.value);
        Self::reduce_once(sum, carry)
    }

    /// Field subtraction.
    pub fn sub_ref(&self, rhs: &Self) -> Self {
        // A borrow leaves `self − rhs + 2^256`; adding `N` wraps it back.
        let (diff, borrow) = self.value.overflowing_sub(&rhs.value);
        Self::from_canonical(if borrow {
            diff.wrapping_add(&P::MODULUS)
        } else {
            diff
        })
    }

    /// Field negation.
    pub fn neg_ref(&self) -> Self {
        Self::ZERO.sub_ref(self)
    }

    /// Field multiplication.
    pub fn mul_ref(&self, rhs: &Self) -> Self {
        Self::reduce_product(self.value.widening_mul(&rhs.value))
    }

    /// Squaring (10 limb products, see [`U256::widening_square`]).
    pub fn square(&self) -> Self {
        Self::reduce_product(self.value.widening_square())
    }

    /// Doubling.
    pub fn double(&self) -> Self {
        self.add_ref(self)
    }

    /// The dot product `Σ aᵢ·bᵢ` of up to four terms, reduced once: the
    /// 512-bit products are added up in nine limbs and folded together.
    pub fn sum_of_products<const K: usize>(a: &[Self; K], b: &[Self; K]) -> Self {
        const { assert!(K <= 4, "the fold is scheduled for sums below 2^514") };
        let mut acc: Wide = [0; 9];
        for (x, y) in a.iter().zip(b) {
            let mut carry = false;
            for (limb, p) in acc.iter_mut().zip(wide(x.value.widening_mul(&y.value))) {
                let (sum, c1) = limb.overflowing_add(p);
                let (sum, c2) = sum.overflowing_add(carry as u64);
                *limb = sum;
                carry = c1 | c2;
            }
        }
        Self::reduce_wide(&acc, 5)
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

    /// Multiplicative inverse by the Bernstein–Yang divstep gcd (module
    /// docs, # Inversion): a few dozen multiplications' worth of limb
    /// arithmetic where the Fermat exponentiation `self^(N − 2)` costs
    /// about 290 multiplications.
    ///
    /// **Variable time.** The number of divsteps, and the branches of
    /// each, depend on the value inverted. What is inverted here is a
    /// point's `Z` (a signature's nonce point, a derived key, a batch's
    /// tables) or a public value; a reproduction running simulated
    /// chains accepts the leak, as it does the scalar recodings of
    /// [`crate::curve`], and a wallet must not.
    ///
    /// Returns `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let modulus = Signed62::from_u256(&P::MODULUS);
        let inverse = divstep_inverse(
            Signed62::from_u256(&self.value),
            &modulus,
            Self::MODULUS_INV62,
        );
        Some(Self::from_canonical(inverse.to_u256()))
    }

    /// `N⁻¹ mod 2^62`, which [`update_de`] uses to clear the low limb.
    const MODULUS_INV62: u64 = {
        let m0 = P::MODULUS.0[0];
        // Newton's iteration doubles the correct low bits: an odd `m0`
        // is its own inverse modulo 8, and 3 · 2^5 ≥ 62.
        let mut inv = m0;
        let mut i = 0;
        while i < 5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
            i += 1;
        }
        assert!(m0.wrapping_mul(inv) & M62 == 1);
        inv & M62
    };

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
                return Self::from_canonical(v);
            }
        }
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

/// The low 62 bits of a limb.
const M62: u64 = u64::MAX >> 2;

/// A signed integer in five limbs of radix `2^62`, least significant
/// first: limbs `0..4` in `[0, 2^62)` once carried, the top one signed.
/// The divstep inversion runs in it, since its matrix entries and
/// intermediate values are signed and up to `2^62` in magnitude.
#[derive(Clone, Copy)]
struct Signed62([i64; 5]);

impl Signed62 {
    fn from_u256(v: &U256) -> Self {
        let [a0, a1, a2, a3] = v.0;
        Signed62([
            (a0 & M62) as i64,
            ((a0 >> 62 | a1 << 2) & M62) as i64,
            ((a1 >> 60 | a2 << 4) & M62) as i64,
            ((a2 >> 58 | a3 << 6) & M62) as i64,
            (a3 >> 56) as i64,
        ])
    }

    /// The value as a `U256`; every limb must be carried and nonnegative.
    fn to_u256(self) -> U256 {
        let [r0, r1, r2, r3, r4] = self.0.map(|limb| limb as u64);
        U256([
            r0 | r1 << 62,
            r1 >> 2 | r2 << 60,
            r2 >> 4 | r3 << 58,
            r3 >> 6 | r4 << 56,
        ])
    }
}

/// The matrix `[[u, v], [q, r]]` of 62 divsteps, scaled by `2^62`: it
/// maps `(f, g)` to `2^62·(f', g')`.
struct Transition {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// Runs 62 divsteps on the low 64 bits of `f` (odd) and `g`, starting
/// from `eta = −δ`, and returns the new `eta` with their matrix. A run
/// of zero bits of `g` is halved in one shift, and each step with `g`
/// odd cancels up to 6 (after a swap) or 4 low bits at once.
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, Transition) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut left = 62u32;
    loop {
        // A sentinel bit at `left` stops the count of zeros there.
        let zeros = (g | u64::MAX << left).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        left -= zeros;
        if left == 0 {
            break;
        }
        // `g` is odd. Cancel as many low bits of `g` as the steps left
        // and `eta` allow, by adding a multiple `w` of `f`.
        let limit = (eta.unsigned_abs() + 1).min(u64::from(left)) as u32;
        let mask = u64::MAX >> (64 - limit);
        let w = if eta < 0 {
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            // −g/f mod 64: f·(f² − 2) inverts f modulo 64.
            f.wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask
                & 63
        } else {
            // −g/f mod 16: f + ((f + 1) & 4)·2 inverts f modulo 16.
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            f_inv.wrapping_neg().wrapping_mul(g) & mask & 15
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    let t = Transition {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// `(d, e) ← (t·(d, e) + N·(m_d, m_e)) / 2^62`, the multiples `m` of the
/// modulus chosen so the division is exact: `d` and `e` track `f` and
/// `g` as multiples of the input, modulo `N`, and stay in `(−2N, N)`.
fn update_de(d: &mut Signed62, e: &mut Signed62, t: &Transition, modulus: &Signed62, inv62: u64) {
    let (u, v, q, r) = (t.u, t.v, t.q, t.r);
    let (d_in, e_in, m) = (d.0, e.0, modulus.0);
    // Start from N·u if d is negative, plus N·v if e is, so that the
    // results land back in range.
    let (sd, se) = (d_in[4] >> 63, e_in[4] >> 63);
    let mut md = (u & sd) + (v & se);
    let mut me = (q & sd) + (r & se);
    let mut cd = i128::from(u) * i128::from(d_in[0]) + i128::from(v) * i128::from(e_in[0]);
    let mut ce = i128::from(q) * i128::from(d_in[0]) + i128::from(r) * i128::from(e_in[0]);
    md -= (inv62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (inv62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += i128::from(m[0]) * i128::from(md);
    ce += i128::from(m[0]) * i128::from(me);
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += i128::from(u) * i128::from(d_in[i])
            + i128::from(v) * i128::from(e_in[i])
            + i128::from(m[i]) * i128::from(md);
        ce += i128::from(q) * i128::from(d_in[i])
            + i128::from(r) * i128::from(e_in[i])
            + i128::from(m[i]) * i128::from(me);
        d.0[i - 1] = cd as i64 & M62 as i64;
        e.0[i - 1] = ce as i64 & M62 as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d.0[4] = cd as i64;
    e.0[4] = ce as i64;
}

/// `(f, g) ← t·(f, g) / 2^62` over their low `len` limbs (the rest are
/// sign extension).
fn update_fg(len: usize, f: &mut Signed62, g: &mut Signed62, t: &Transition) {
    let (u, v, q, r) = (
        i128::from(t.u),
        i128::from(t.v),
        i128::from(t.q),
        i128::from(t.r),
    );
    let (f0, g0) = (i128::from(f.0[0]), i128::from(g.0[0]));
    let mut cf = u * f0 + v * g0;
    let mut cg = q * f0 + r * g0;
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        let (fi, gi) = (i128::from(f.0[i]), i128::from(g.0[i]));
        cf += u * fi + v * gi;
        cg += q * fi + r * gi;
        f.0[i - 1] = cf as i64 & M62 as i64;
        g.0[i - 1] = cg as i64 & M62 as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f.0[len - 1] = cf as i64;
    g.0[len - 1] = cg as i64;
}

/// Brings `d` from `(−2N, N)` to `[0, N)`, negated first when `sign` (the
/// final `f`, ±1) is negative.
fn normalize(mut d: Signed62, sign: i64, modulus: &Signed62) -> Signed62 {
    let carry = |d: &mut Signed62| {
        for i in 0..4 {
            d.0[i + 1] += d.0[i] >> 62;
            d.0[i] &= M62 as i64;
        }
    };
    let add_modulus_if_negative = |d: &mut Signed62| {
        if d.0[4] < 0 {
            for (limb, m) in d.0.iter_mut().zip(modulus.0) {
                *limb += m;
            }
        }
    };
    add_modulus_if_negative(&mut d);
    if sign < 0 {
        d.0 = d.0.map(|limb| -limb);
    }
    carry(&mut d);
    add_modulus_if_negative(&mut d);
    carry(&mut d);
    d
}

/// `x⁻¹ mod N` for `x` in `[1, N)` and `N` an odd prime, by rounds of 62
/// divsteps on `(f, g) = (N, x)` until `g = 0` (Bernstein–Yang, TCHES
/// 2019, in the variable-time form of libsecp256k1's `modinv64_var`).
/// `f` ends at ±1 and `d` at ±`x⁻¹`. `f` and `g` shrink as they go, so
/// their top limbs are dropped once both are only sign extension.
fn divstep_inverse(x: Signed62, modulus: &Signed62, inv62: u64) -> Signed62 {
    let mut d = Signed62([0; 5]);
    let mut e = Signed62([1, 0, 0, 0, 0]);
    let (mut f, mut g) = (*modulus, x);
    let mut len = 5;
    // eta = −δ, and δ starts at 1.
    let mut eta = -1;
    loop {
        let (next, t) = divsteps_62(eta, f.0[0] as u64, g.0[0] as u64);
        eta = next;
        update_de(&mut d, &mut e, &t, modulus, inv62);
        update_fg(len, &mut f, &mut g, &t);
        if g.0[..len].iter().all(|&limb| limb == 0) {
            break;
        }
        let (f_top, g_top) = (f.0[len - 1], g.0[len - 1]);
        if len > 1 && matches!(f_top, 0 | -1) && matches!(g_top, 0 | -1) {
            f.0[len - 2] |= ((f_top as u64) << 62) as i64;
            g.0[len - 2] |= ((g_top as u64) << 62) as i64;
            len -= 1;
        }
    }
    normalize(d, f.0[len - 1], modulus)
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

    /// `N − 2`, the Fermat inversion exponent: the oracle the divstep
    /// inversion is tested against.
    fn fermat_exp<P: FieldParams>() -> U256 {
        P::MODULUS.wrapping_sub(&U256::from_u64(2))
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    // ---- The oracle: nothing below shares a line with the kernel. ----

    fn at_least(v: &U256, carry: bool, m: &U256) -> bool {
        carry || v.const_cmp(m) >= 0
    }

    /// `limbs` (little-endian, any width) modulo `N`, one bit at a time:
    /// shift the remainder left, bring the next bit in, subtract `N` if
    /// it fits.
    fn mod_reference<P: FieldParams>(limbs: &[u64]) -> U256 {
        let n = P::MODULUS;
        let mut r = U256::ZERO;
        for i in (0..64 * limbs.len()).rev() {
            let (doubled, carry) = r.overflowing_add(&r);
            let bit = (limbs[i / 64] >> (i % 64)) & 1;
            // `doubled` is even: bringing the bit in cannot carry.
            r = doubled.wrapping_add(&U256::from_u64(bit));
            if at_least(&r, carry, &n) {
                r = r.wrapping_sub(&n);
            }
        }
        r
    }

    /// `a·b mod N`: the 512-bit product, then 512 shift-and-subtract steps.
    fn mul_mod_reference<P: FieldParams>(a: &U256, b: &U256) -> U256 {
        let (lo, hi) = a.widening_mul(b);
        mod_reference::<P>(&[lo.0, hi.0].concat())
    }

    fn add_mod_reference<P: FieldParams>(a: &U256, b: &U256) -> U256 {
        let (sum, carry) = a.overflowing_add(b);
        if at_least(&sum, carry, &P::MODULUS) {
            sum.wrapping_sub(&P::MODULUS)
        } else {
            sum
        }
    }

    fn sub_mod_reference<P: FieldParams>(a: &U256, b: &U256) -> U256 {
        if a.const_cmp(b) >= 0 {
            a.wrapping_sub(b)
        } else {
            P::MODULUS.wrapping_sub(b).wrapping_add(a)
        }
    }

    fn dot_mod_reference<P: FieldParams>(a: &[Fp256<P>], b: &[Fp256<P>]) -> U256 {
        a.iter().zip(b).fold(U256::ZERO, |acc, (x, y)| {
            add_mod_reference::<P>(&acc, &mul_mod_reference::<P>(&x.value, &y.value))
        })
    }

    /// Every operation of the kernel on one pair, against the oracle.
    fn check_pair<P: FieldParams>(a: &Fp256<P>, b: &Fp256<P>) {
        let (x, y) = (a.value, b.value);
        assert!(x < P::MODULUS && y < P::MODULUS, "operands are canonical");
        assert_eq!(
            a.mul_ref(b).value,
            mul_mod_reference::<P>(&x, &y),
            "{a:?} * {b:?}"
        );
        assert_eq!(a.square().value, mul_mod_reference::<P>(&x, &x), "{a:?}^2");
        assert_eq!(
            a.add_ref(b).value,
            add_mod_reference::<P>(&x, &y),
            "{a:?} + {b:?}"
        );
        assert_eq!(
            a.sub_ref(b).value,
            sub_mod_reference::<P>(&x, &y),
            "{a:?} - {b:?}"
        );
        assert_eq!(
            a.neg_ref().value,
            sub_mod_reference::<P>(&U256::ZERO, &x),
            "-{a:?}"
        );
        assert_eq!(
            a.double().value,
            add_mod_reference::<P>(&x, &x),
            "2 * {a:?}"
        );
    }

    fn check_dot<P: FieldParams, const K: usize>(a: [Fp256<P>; K], b: [Fp256<P>; K]) {
        let got = Fp256::sum_of_products(&a, &b);
        assert_eq!(got.value, dot_mod_reference(&a, &b), "{a:?} . {b:?}");
    }

    /// `sum_of_products` of 1–4 terms drawn from `pool` around `i`, `j`.
    fn check_dots<P: FieldParams>(pool: &[Fp256<P>], i: usize, j: usize) {
        let at = |k: usize| pool[k % pool.len()];
        let a = [at(i), at(j), at(i + 1), at(j + 2)];
        let b = [at(j), at(j), at(i + j), at(i)];
        check_dot([a[0]], [b[0]]);
        check_dot([a[0], a[1]], [b[0], b[1]]);
        check_dot([a[0], a[1], a[2]], [b[0], b[1], b[2]]);
        check_dot(a, b);
    }

    /// The operands that sit on the kernel's edges: the ends of the
    /// range, `C` and its neighbours (where `v + C` starts to carry),
    /// `2^255`, and every single limb saturated.
    fn edge_operands<P: FieldParams>() -> Vec<Fp256<P>> {
        let n = P::MODULUS;
        let c = n.wrapping_neg();
        let one = U256::ONE;
        let mut edges = vec![
            U256::ZERO,
            one,
            U256::from_u64(2),
            n.wrapping_sub(&one),
            n.wrapping_sub(&U256::from_u64(2)),
            c,
            c.wrapping_sub(&one),
            c.wrapping_add(&one),
            n.wrapping_sub(&c),
            n.wrapping_add(&one).shr1(),
            U256([0, 0, 0, 1 << 63]),
            U256([u64::MAX, u64::MAX, u64::MAX, (1 << 63) - 1]),
            U256([0, 0, 1, 0]),
            U256([0, 0, 0, 1]),
        ];
        for limb in 0..4 {
            let mut v = [0u64; 4];
            v[limb] = u64::MAX;
            edges.push(U256(v));
            let mut v = [u64::MAX; 4];
            v[limb] = 0;
            edges.push(U256(v));
        }
        edges
            .into_iter()
            .filter(|v| *v < n)
            .map(Fp256::from_canonical)
            .collect()
    }

    fn check_edges<P: FieldParams>() {
        let edges = edge_operands::<P>();
        assert!(
            edges.len() >= 20,
            "the edge list lost entries to the range filter"
        );
        for (i, a) in edges.iter().enumerate() {
            for (j, b) in edges.iter().enumerate() {
                check_pair(a, b);
                check_dots(&edges, i, j);
            }
        }
    }

    /// Ring-only moduli (not prime: nothing here inverts) whose `C` has
    /// the limb counts and fold schedules the two real fields do not:
    /// two limbs finishing in two folds, and three limbs with two limbs
    /// still standing after the second fold.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    struct TwoLimbC;
    impl FieldParams for TwoLimbC {
        const MODULUS: U256 =
            U256([0x0123_4567_89AB_CDEF, 0x0000_000F_0F0F_0F0F, 0, 0]).wrapping_neg();
        const NAME: &'static str = "TwoLimbC";
    }
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    struct WideC;
    impl FieldParams for WideC {
        const MODULUS: U256 =
            U256([u64::MAX, 0xFEDC_BA98_7654_3210, 0xFFFF_FFFF, 0]).wrapping_neg();
        const NAME: &'static str = "WideC";
    }

    #[test]
    fn the_schedule_is_the_one_each_modulus_needs() {
        assert_eq!((Fp::C_LIMBS, Fp::FOLDS), (1, [1, 0]));
        assert_eq!((Fr::C_LIMBS, Fr::FOLDS), (3, [3, 1]));
        assert_eq!(
            (Fp256::<TwoLimbC>::C_LIMBS, Fp256::<TwoLimbC>::FOLDS),
            (2, [2, 0])
        );
        assert_eq!(
            (Fp256::<WideC>::C_LIMBS, Fp256::<WideC>::FOLDS),
            (3, [3, 2])
        );
        // The widest `C` three folds serve, and the first they do not.
        assert_eq!(fold_schedule(169), [3, 2]);
        assert!(bits_after_fold(bits_after_fold(bits_after_fold(258, 170), 170), 170) > 0);
        assert_eq!(Fp::one().to_u256(), U256::ONE);
        assert_eq!(Fr::one().to_u256(), U256::ONE);
    }

    #[test]
    fn kernel_matches_reference_on_edge_operands() {
        check_edges::<SecpBase>();
        check_edges::<SecpScalar>();
        check_edges::<TwoLimbC>();
        check_edges::<WideC>();
    }

    /// What one reduction went through: did the first fold carry into the
    /// fifth limb, did the last fold carry out of `2^256`, and did the
    /// folded value land in `[N, 2^256)` before the final subtraction.
    #[derive(Debug, Default, PartialEq)]
    struct FoldTrace {
        fifth_limb: bool,
        carried_out: bool,
        landed_high: bool,
    }

    fn trace_reduction<P: FieldParams>(t: &Wide, hi_len: usize) -> FoldTrace {
        let first = Fp256::<P>::fold(t, hi_len);
        let last = Fp256::<P>::fold_down(t, hi_len);
        assert!(
            last[4] <= 1 && last[5..].iter().all(|l| *l == 0),
            "{last:?}"
        );
        let low = U256([last[0], last[1], last[2], last[3]]);
        FoldTrace {
            fifth_limb: first[4] != 0,
            carried_out: last[4] == 1,
            landed_high: last[4] == 0 && low >= P::MODULUS,
        }
    }

    fn wide_of(a: &U256, b: &U256) -> Wide {
        wide(a.widening_mul(b))
    }

    /// Every fold keeps the value's residue, so a product congruent to a
    /// small `r` comes out of the last fold as `r` or `N + r`: operands
    /// `a` and `r / a` put the folded value exactly on the boundaries.
    /// For `r < C` that is `N + r` — `N + 1` and `2^256 − 1`, inside
    /// `[N, 2^256)`, where the last subtraction fires without a carry.
    /// For `r ≥ C` it is `N + r ≥ 2^256` — `2^256` itself and its
    /// neighbours, the last fold carrying out — whenever the fold before
    /// left more than `r / C` multiples of `N` standing (always for
    /// `Fp`, for about a third of the operands for `Fr`).
    fn check_fold_boundaries<P: FieldParams>() {
        let c = Fp256::<P>::from_canonical(Fp256::<P>::C);
        let one = Fp256::<P>::one();
        let mut r = rng();
        let mut seen = FoldTrace::default();
        for _ in 0..16 {
            let a = Fp256::<P>::random(&mut r);
            let a_inv = a.invert().expect("a random element is nonzero");
            for (target, below_c) in [
                (one, true),
                (c - one, true),
                (c, false),
                (c + one, false),
                (c.double(), false),
            ] {
                let b = a_inv * target;
                let trace = trace_reduction::<P>(&wide_of(&a.value, &b.value), 4);
                assert_eq!(trace.landed_high, below_c, "{a:?} * {b:?} = {target:?}");
                assert!(
                    !(trace.carried_out && below_c),
                    "{a:?} * {b:?} = {target:?}"
                );
                seen.fifth_limb |= trace.fifth_limb;
                seen.carried_out |= trace.carried_out;
                check_pair(&a, &b);
                check_pair(&b, &a);
                assert_eq!(a.mul_ref(&b), target);
            }
        }
        assert!(seen.carried_out, "no last fold carried out of 2^256");
        assert!(seen.fifth_limb, "no first fold carried into the fifth limb");
    }

    #[test]
    fn kernel_matches_reference_on_fold_boundaries() {
        check_fold_boundaries::<SecpBase>();
        check_fold_boundaries::<SecpScalar>();
    }

    /// The same boundaries for `square`, in the field that has square
    /// roots: the roots of the quadratic residues just below `C` square
    /// into `[N, 2^256)`, those from `C` up square past `2^256`.
    #[test]
    fn square_matches_reference_on_fold_boundaries() {
        let c = Fp::from_canonical(Fp::C);
        let mut roots = 0;
        for k in 1..64u64 {
            for (target, below_c) in [
                (c - Fp::from_u64(k), true),
                (c + Fp::from_u64(k - 1), false),
            ] {
                let Some(root) = target.sqrt() else { continue };
                // The root above N/2: its square is hundreds of bits wide.
                let root = if root.value > root.neg_ref().value {
                    root
                } else {
                    root.neg_ref()
                };
                let trace = trace_reduction::<SecpBase>(&wide_of(&root.value, &root.value), 4);
                assert!(trace.fifth_limb, "{root:?}");
                assert_eq!(
                    (trace.landed_high, trace.carried_out),
                    (below_c, !below_c),
                    "{root:?}"
                );
                check_pair(&root, &root.neg_ref());
                assert_eq!(root.square(), target);
                roots += 1;
            }
        }
        assert!(roots > 32, "only {roots} of 126 targets had a root");
    }

    /// Wide values handed to the reduction directly, where no product of
    /// two elements reaches: the nine-limb ceiling, `N` and its
    /// neighbours with nothing to fold, a first fold that lands on
    /// `2^256 − 1` so the second carries out.
    fn check_wide_values<P: FieldParams>() {
        let n = P::MODULUS.0;
        let m = u64::MAX;
        // lo = C − 1, hi = 2^256 − 1: lo + hi·C = C·2^256 − 1.
        let c = Fp256::<P>::C.0;
        let d = Fp256::<P>::C.wrapping_sub(&U256::ONE).0;
        for (t, hi_len) in [
            ([0u64; 9], 4),
            ([0u64; 9], 5),
            ([m, m, m, m, m, m, m, m, 0], 4),
            ([m, m, m, m, m, m, m, m, 3], 5),
            ([0, 0, 0, 0, 0, 0, 0, 0, 3], 5),
            ([m, m, m, m, 0, 0, 0, 0, 3], 5),
            ([n[0], n[1], n[2], n[3], 0, 0, 0, 0, 0], 4),
            ([n[0] - 1, n[1], n[2], n[3], 0, 0, 0, 0, 0], 4),
            ([n[0] + 1, n[1], n[2], n[3], 0, 0, 0, 0, 0], 4),
            ([m, m, m, m, 0, 0, 0, 0, 0], 4),
            ([m, m, m, m, 1, 0, 0, 0, 0], 4),
            ([d[0], d[1], d[2], d[3], m, m, m, m, 0], 4),
            ([c[0], c[1], c[2], c[3], m, m, m, m, 0], 4),
            ([d[0], d[1], d[2], d[3], m, m, m, m, 3], 5),
            ([n[0], n[1], n[2], n[3], n[0], n[1], n[2], n[3], 0], 4),
        ] {
            let got = Fp256::<P>::reduce_wide(&t, hi_len);
            assert_eq!(got.value, mod_reference::<P>(&t), "{t:?}");
            trace_reduction::<P>(&t, hi_len);
        }
        let t = [d[0], d[1], d[2], d[3], m, m, m, m, 0];
        if Fp256::<P>::C_LIMBS == 1 {
            assert!(trace_reduction::<P>(&t, 4).carried_out);
        }
    }

    #[test]
    fn reduction_matches_reference_on_wide_values() {
        check_wide_values::<SecpBase>();
        check_wide_values::<SecpScalar>();
        check_wide_values::<TwoLimbC>();
        check_wide_values::<WideC>();
    }

    #[test]
    fn nine_limb_worst_case() {
        fn check<P: FieldParams>() {
            let top = Fp256::<P>::from_canonical(P::MODULUS.wrapping_sub(&U256::ONE));
            // (−1)² three and four times over: 3 and 4.
            assert_eq!(
                Fp256::sum_of_products(&[top; 3], &[top; 3]),
                Fp256::<P>::from_u64(3)
            );
            assert_eq!(
                Fp256::sum_of_products(&[top; 4], &[top; 4]),
                Fp256::<P>::from_u64(4)
            );
            assert_eq!(
                Fp256::sum_of_products(&[top; 3], &[top; 3]).value,
                dot_mod_reference(&[top; 3], &[top; 3])
            );
            assert_eq!(Fp256::<P>::sum_of_products(&[], &[]), Fp256::ZERO);
        }
        check::<SecpBase>();
        check::<SecpScalar>();
        check::<TwoLimbC>();
        check::<WideC>();
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
    fn divstep_inversion_matches_fermat() {
        fn check<P: FieldParams>(r: &mut rand::rngs::StdRng) {
            let n_minus_1 = P::MODULUS.wrapping_sub(&U256::ONE);
            let edges = [U256::ONE, n_minus_1, U256([0, 0, 0, 1 << 63])];
            let random = (0..500).map(|_| Fp256::<P>::random(r));
            for a in edges.map(Fp256::<P>::from_u256).into_iter().chain(random) {
                if a.is_zero() {
                    continue;
                }
                assert_eq!(a.invert(), Some(a.pow(&fermat_exp::<P>())), "{a:?}");
            }
            assert_eq!(Fp256::<P>::ZERO.invert(), None);
        }
        let mut r = rng();
        check::<SecpBase>(&mut r);
        check::<SecpScalar>(&mut r);
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
            fermat_exp::<SecpBase>(),
            SecpBase::SQRT_EXP,
        ] {
            assert_eq!(a.pow(&exp), pow_bitwise(&a, &exp));
            assert_eq!(Fp::ZERO.pow(&exp), pow_bitwise(&Fp::ZERO, &exp));
        }
        for exp in [U256::ZERO, U256::ONE, fermat_exp::<SecpScalar>()] {
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
        fn prop_kernel_matches_reference(
            x in any::<[u8; 32]>(), y in any::<[u8; 32]>(),
            z in any::<[u8; 32]>(), w in any::<[u8; 32]>(),
        ) {
            fn check<P: FieldParams>(bytes: [[u8; 32]; 4]) {
                let pool = bytes.map(|b| Fp256::<P>::from_be_bytes_reduced(&b));
                // The reduction on the way in is the oracle's too.
                for (v, b) in pool.iter().zip(&bytes) {
                    assert_eq!(v.value, mod_reference::<P>(&U256::from_be_bytes(b).0));
                }
                check_pair(&pool[0], &pool[1]);
                check_pair(&pool[2], &pool[3]);
                check_dots(&pool, 0, 1);
                check_dots(&pool, 2, 3);
            }
            check::<SecpBase>([x, y, z, w]);
            check::<SecpScalar>([x, y, z, w]);
            check::<TwoLimbC>([x, y, z, w]);
            check::<WideC>([x, y, z, w]);
        }

        #[test]
        fn prop_reduction_matches_reference(
            lo in any::<[u8; 32]>(), hi in any::<[u8; 32]>(), top in 0u64..4
        ) {
            let (lo, hi) = (U256::from_be_bytes(&lo).0, U256::from_be_bytes(&hi).0);
            fn check<P: FieldParams>(t: &Wide) {
                assert_eq!(Fp256::<P>::reduce_wide(t, 5).value, mod_reference::<P>(t));
                trace_reduction::<P>(t, 5);
            }
            let t = [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3], top];
            check::<SecpBase>(&t);
            check::<SecpScalar>(&t);
            check::<TwoLimbC>(&t);
            check::<WideC>(&t);
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
