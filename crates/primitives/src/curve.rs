//! secp256k1 group arithmetic (short Weierstrass `y² = x³ + 7`).
//!
//! Provides affine and Jacobian point types, scalar multiplication, point
//! compression and hash-to-curve (try-and-increment). This is the group
//! underlying Schnorr signatures ([`crate::schnorr`]), the VRF
//! ([`crate::vrf`]) and the simulated SNARK backend.
//!
//! # The multiplication layer
//!
//! Costs are in field multiplications (a squaring is a multiplication
//! here); a doubling is 7, a general Jacobian addition 16.
//!
//! 1. **Mixed addition** ([`JacobianPoint::add_affine`], madd-2007-bl):
//!    adding a point with `Z = 1` costs 11 instead of 16. Every table
//!    of generator multiples is affine, so every generator addition is
//!    mixed.
//! 2. **Width-5 wNAF, variable base** ([`JacobianPoint::mul_scalar`]):
//!    the scalar is recoded into signed odd digits `±1 … ±15`, at most
//!    one nonzero in any five positions, over a table of the 8 odd
//!    multiples `P, 3P … 15P` — 256 doublings and ~43 additions where
//!    double-and-add takes ~128.
//! 3. **Generator tables**, built once per process at first use (a
//!    [`OnceLock`]; about a thousand Jacobian additions normalised with
//!    one batched inversion, under a millisecond). 1,024 `(x, y)` pairs
//!    of 64 bytes, 64 KiB in all:
//!    * the 64 odd multiples `G, 3G … 127G`, for width-8 wNAF digits
//!      when `G` shares a doubling chain with another base;
//!    * a 4-bit comb `j·16^i·G` (`i < 64`, `j = 1 … 15`, 60 KiB of the
//!      64): [`JacobianPoint::mul_generator`] adds one entry per
//!      nonzero scalar nibble — at most 64 mixed additions (~700) and
//!      **no** doublings.
//! 4. **Straus interleaving** ([`JacobianPoint::lincomb_generator`],
//!    [`JacobianPoint::lincomb`]): `a·G + b·P` and `a·P + b·Q` run on
//!    one shared chain of 256 doublings. A Schnorr verification
//!    `s·G − e·PK` is then 1,792 for the doublings, ~310 for ~28 mixed
//!    additions of generator multiples, ~690 for ~43 general additions
//!    of multiples of `PK` and ~120 to build their table: ≈ 2,900 in
//!    all, against ≈ 7,700 for two double-and-add passes with general
//!    additions. [`JacobianPoint::eq_affine`] compares the result with
//!    the signature's affine `R` without an inversion.
//! 5. **Straus over a slice** ([`JacobianPoint::lincomb_many`]):
//!    `g·G + Σ kᵢ·Pᵢ` for any number of terms on the same single chain
//!    of 257 doublings, every term's odd-multiples table normalised to
//!    affine by **one** shared inversion so that every addition is
//!    mixed. A batch of `n` Schnorr verifications
//!    ([`crate::schnorr::verify_batch`]) is one such evaluation over
//!    `n + k` points for `k` distinct keys — each `PK` under a full
//!    scalar, each `Rᵢ` under a 128-bit coefficient — and a signature
//!    under a key of its own costs ~240 to build its two tables, ~110 to
//!    normalise them, ~470 for ~43 mixed additions of multiples of
//!    `PK`, ~240 for ~21 of `R`, and 1/n of the chain (1,799), the
//!    generator term and the inversion: ≈ 1,070 at n ≈ 200 against the
//!    ≈ 2,900 of layer 4. Under a key already in the batch it drops the
//!    `PK` half, ≈ 450. Alone, a signature pays
//!    the whole chain *and* the inversion (~400): dearer than layer 4,
//!    so a batch of one is layer 4.
//!
//! **Not constant time.** Digit recoding, table indexing and the
//! skipped zero digits all branch on the scalar, as the double-and-add
//! loop this replaced branched on its bits: signing leaks timing here,
//! which a reproduction running simulated chains accepts and a wallet
//! must not.

use crate::bigint::U256;
use crate::field::{Fp, Fr};
use crate::sha256::sha256_tagged;
use rand::Rng;
use std::fmt;
use std::ops::{Add, Mul, Neg};
use std::sync::OnceLock;

/// The curve constant `b` in `y² = x³ + b`.
fn curve_b() -> Fp {
    Fp::from_u64(7)
}

/// A point on secp256k1 in affine coordinates, or the point at infinity.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::curve::AffinePoint;
/// use zendoo_primitives::field::Fr;
///
/// let g = AffinePoint::generator();
/// let two_g = (g.to_jacobian() + g.to_jacobian()).to_affine();
/// assert_eq!((g * Fr::from_u64(2)).to_affine(), two_g);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffinePoint {
    x: Fp,
    y: Fp,
    infinity: bool,
}

impl AffinePoint {
    /// The point at infinity (group identity).
    pub fn identity() -> Self {
        AffinePoint {
            x: Fp::ZERO,
            y: Fp::ZERO,
            infinity: true,
        }
    }

    /// The standard secp256k1 base point `G`.
    pub fn generator() -> Self {
        AffinePoint {
            x: Fp::from_hex("79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798"),
            y: Fp::from_hex("483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8"),
            infinity: false,
        }
    }

    /// Returns `true` for the identity element.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// The affine x-coordinate.
    ///
    /// # Panics
    ///
    /// Panics if called on the identity.
    pub fn x(&self) -> Fp {
        assert!(!self.infinity, "identity has no affine coordinates");
        self.x
    }

    /// The affine y-coordinate.
    ///
    /// # Panics
    ///
    /// Panics if called on the identity.
    pub fn y(&self) -> Fp {
        assert!(!self.infinity, "identity has no affine coordinates");
        self.y
    }

    /// Checks the curve equation `y² = x³ + 7` (identity is on-curve).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.y.square() == self.x.square() * self.x + curve_b()
    }

    /// Converts to Jacobian coordinates.
    pub fn to_jacobian(&self) -> JacobianPoint {
        if self.infinity {
            JacobianPoint::identity()
        } else {
            JacobianPoint {
                x: self.x,
                y: self.y,
                z: Fp::one(),
            }
        }
    }

    /// SEC1 compressed encoding: 33 bytes, `0x02`/`0x03` prefix.
    ///
    /// The identity encodes as 33 zero bytes (non-standard but unambiguous:
    /// a valid compressed point never has prefix `0x00`).
    pub fn to_compressed(&self) -> [u8; 33] {
        let mut out = [0u8; 33];
        if self.infinity {
            return out;
        }
        out[0] = if self.y.is_odd() { 0x03 } else { 0x02 };
        out[1..].copy_from_slice(&self.x.to_be_bytes());
        out
    }

    /// Decodes a compressed point, recomputing `y` from the curve equation.
    pub fn from_compressed(bytes: &[u8; 33]) -> Option<Self> {
        if bytes == &[0u8; 33] {
            return Some(Self::identity());
        }
        let prefix = bytes[0];
        if prefix != 0x02 && prefix != 0x03 {
            return None;
        }
        let mut x_bytes = [0u8; 32];
        x_bytes.copy_from_slice(&bytes[1..]);
        let x = Fp::from_be_bytes_canonical(&x_bytes)?;
        let y2 = x.square() * x + curve_b();
        let mut y = y2.sqrt()?;
        if y.is_odd() != (prefix == 0x03) {
            y = -y;
        }
        Some(AffinePoint {
            x,
            y,
            infinity: false,
        })
    }

    /// Point negation.
    pub fn negate(&self) -> Self {
        if self.infinity {
            *self
        } else {
            AffinePoint {
                x: self.x,
                y: -self.y,
                infinity: false,
            }
        }
    }

    /// Deterministically maps arbitrary bytes to a curve point
    /// (try-and-increment over `x = H(domain ‖ msg ‖ ctr)`).
    ///
    /// The expected number of iterations is 2; the loop is bounded only by
    /// the negligible probability of repeated non-residues.
    pub fn hash_to_curve(domain: &str, msg: &[u8]) -> Self {
        for ctr in 0u32.. {
            let digest = sha256_tagged("zendoo/h2c", &[domain.as_bytes(), msg, &ctr.to_be_bytes()]);
            let x = Fp::from_be_bytes_reduced(&digest);
            let y2 = x.square() * x + curve_b();
            if let Some(mut y) = y2.sqrt() {
                // Canonicalize to the even-y representative.
                if y.is_odd() {
                    y = -y;
                }
                return AffinePoint {
                    x,
                    y,
                    infinity: false,
                };
            }
        }
        unreachable!("try-and-increment terminates with overwhelming probability")
    }

    /// Uniformly random point (random scalar times the generator).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        JacobianPoint::mul_generator(&Fr::random(rng)).to_affine()
    }
}

impl fmt::Debug for AffinePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "AffinePoint(infinity)")
        } else {
            write!(f, "AffinePoint({}, {})", self.x, self.y)
        }
    }
}

impl Default for AffinePoint {
    fn default() -> Self {
        Self::identity()
    }
}

impl Mul<Fr> for AffinePoint {
    type Output = JacobianPoint;
    fn mul(self, scalar: Fr) -> JacobianPoint {
        self.to_jacobian() * scalar
    }
}

impl serde::Serialize for AffinePoint {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.to_compressed())
    }
}

impl<'de> serde::Deserialize<'de> for AffinePoint {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bytes: Vec<u8> = serde::Deserialize::deserialize(deserializer)?;
        let arr: [u8; 33] = bytes
            .try_into()
            .map_err(|_| serde::de::Error::custom("expected 33 bytes"))?;
        AffinePoint::from_compressed(&arr)
            .ok_or_else(|| serde::de::Error::custom("invalid curve point"))
    }
}

/// A point in Jacobian projective coordinates `(X : Y : Z)` with
/// `x = X/Z²`, `y = Y/Z³`. The identity is represented by `Z = 0`.
#[derive(Clone, Copy, Debug)]
pub struct JacobianPoint {
    x: Fp,
    y: Fp,
    z: Fp,
}

impl JacobianPoint {
    /// The group identity.
    pub fn identity() -> Self {
        JacobianPoint {
            x: Fp::one(),
            y: Fp::one(),
            z: Fp::ZERO,
        }
    }

    /// The base point in Jacobian form.
    pub fn generator() -> Self {
        AffinePoint::generator().to_jacobian()
    }

    /// Returns `true` for the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Normalizes to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_identity() {
            return AffinePoint::identity();
        }
        let z_inv = self.z.invert().expect("nonzero z");
        let z_inv2 = z_inv.square();
        AffinePoint {
            x: self.x * z_inv2,
            y: self.y * z_inv2 * z_inv,
            infinity: false,
        }
    }

    /// Point doubling (dbl-2007-a formulas for a = 0).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        if self.y.is_zero() {
            return Self::identity();
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let mut d = (self.x + b).square() - a - c;
        d = d.double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let c8 = c.double().double().double();
        let y3 = e * (d - x3) - c8;
        let z3 = (self.y * self.z).double();
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition (add-2007-bl).
    pub fn add_point(&self, other: &JacobianPoint) -> Self {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * z2z2 * other.z;
        let s2 = other.y * z1z1 * self.z;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition of an affine point (madd-2007-bl): 11
    /// multiplications where [`JacobianPoint::add_point`] takes 16.
    pub fn add_affine(&self, other: &AffinePoint) -> Self {
        if other.infinity {
            *self
        } else {
            self.add_xy(&other.x, &other.y)
        }
    }

    /// Mixed addition of the finite affine point `(x2, y2)`. The
    /// doubling and cancellation branches are reachable: in `a·G + b·P`
    /// with `P` a small rational multiple of `G` the accumulator meets
    /// plus or minus the table entry it is about to add.
    fn add_xy(&self, x2: &Fp, y2: &Fp) -> Self {
        if self.is_identity() {
            return JacobianPoint {
                x: *x2,
                y: *y2,
                z: Fp::one(),
            };
        }
        let z1z1 = self.z.square();
        let u2 = *x2 * z1z1;
        let s2 = *y2 * self.z * z1z1;
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z * h).double();
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Adds what a wNAF digit selects from an affine odd-multiples
    /// table: `±(2i + 1)` is plus or minus entry `i`, zero is nothing.
    fn add_digit(&self, digit: i8, table: &[TablePoint]) -> Self {
        if digit == 0 {
            return *self;
        }
        let entry = &table[usize::from(digit.unsigned_abs() / 2)];
        let y = if digit > 0 { entry.y } else { -entry.y };
        self.add_xy(&entry.x, &y)
    }

    /// Variable-base scalar multiplication `scalar · self` (width-5
    /// wNAF over the 8 odd multiples of `self`).
    pub fn mul_scalar(&self, scalar: &Fr) -> Self {
        interleave(None, [(scalar, self)])
    }

    /// Fixed-base scalar multiplication `scalar · G` from the comb
    /// table: one mixed addition per nonzero nibble, no doublings.
    pub fn mul_generator(scalar: &Fr) -> Self {
        crate::opcount::group_mul();
        let k = scalar.to_u256();
        let mut acc = Self::identity();
        for (i, row) in generator_tables().comb().chunks_exact(COMB_ROW).enumerate() {
            match k.window(COMB_BITS * i, COMB_BITS) as usize {
                0 => {}
                j => acc = acc.add_xy(&row[j - 1].x, &row[j - 1].y),
            }
        }
        acc
    }

    /// `a·G + b·P` on one shared doubling chain (Straus): what a
    /// Schnorr or DLEQ verification computes.
    pub fn lincomb_generator(a: &Fr, b: &Fr, p: &AffinePoint) -> Self {
        interleave(Some(a), [(b, &p.to_jacobian())])
    }

    /// `a·P + b·Q` on one shared doubling chain.
    pub fn lincomb(a: &Fr, p: &AffinePoint, b: &Fr, q: &AffinePoint) -> Self {
        interleave(None, [(a, &p.to_jacobian()), (b, &q.to_jacobian())])
    }

    /// `g·G + Σ kᵢ·Pᵢ` over any number of terms on one shared doubling
    /// chain: what a batch of Schnorr verifications computes. `None`
    /// when some `Pᵢ` is the identity — the one input the shared table
    /// normalisation cannot take.
    pub fn lincomb_many(g: &Fr, terms: &[(Fr, AffinePoint)]) -> Option<Self> {
        interleave_many(g, terms)
    }

    /// Compares with an affine point in the projective quotient
    /// (`X = x·Z²`, `Y = y·Z³`): no inversion.
    pub fn eq_affine(&self, other: &AffinePoint) -> bool {
        if self.is_identity() || other.infinity {
            return self.is_identity() && other.infinity;
        }
        let zz = self.z.square();
        self.x == other.x * zz && self.y == other.y * zz * self.z
    }

    /// Point negation.
    pub fn negate(&self) -> Self {
        JacobianPoint {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }
}

impl Default for JacobianPoint {
    fn default() -> Self {
        Self::identity()
    }
}

impl PartialEq for JacobianPoint {
    fn eq(&self, other: &Self) -> bool {
        // Compare in the projective quotient: X1·Z2² == X2·Z1², Y1·Z2³ == Y2·Z1³.
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => {
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x * z2z2 == other.x * z1z1
                    && self.y * z2z2 * other.z == other.y * z1z1 * self.z
            }
        }
    }
}

impl Eq for JacobianPoint {}

impl Add for JacobianPoint {
    type Output = JacobianPoint;
    fn add(self, rhs: JacobianPoint) -> JacobianPoint {
        self.add_point(&rhs)
    }
}

impl Neg for JacobianPoint {
    type Output = JacobianPoint;
    fn neg(self) -> JacobianPoint {
        self.negate()
    }
}

impl Mul<Fr> for JacobianPoint {
    type Output = JacobianPoint;
    fn mul(self, scalar: Fr) -> JacobianPoint {
        self.mul_scalar(&scalar)
    }
}

/// Scalars are below `2^256` and a wNAF recoding can carry one position
/// past the top bit.
const WNAF_LEN: usize = 257;
/// wNAF width for a variable base: 8 odd multiples, built per call.
const VAR_WIDTH: usize = 5;
/// Odd multiples of a variable base a width-5 digit selects from.
const VAR_ODD: usize = 1 << (VAR_WIDTH - 2);
/// wNAF width for the generator: 64 odd multiples, built once.
const GEN_WIDTH: usize = 8;
/// Odd multiples of the generator a width-8 digit selects from.
const GEN_ODD: usize = 1 << (GEN_WIDTH - 2);
/// The comb reads a scalar as 64 digits of this many bits, …
const COMB_BITS: usize = 4;
/// … one table row per digit position, …
const COMB_ROWS: usize = 256 / COMB_BITS;
/// … each holding `16^i·G` times every nonzero digit value.
const COMB_ROW: usize = (1 << COMB_BITS) - 1;

/// Width-`w` non-adjacent form of `k`, least significant digit first:
/// `k = Σ dᵢ·2^i`, every nonzero digit odd with `|dᵢ| < 2^(w−1)`, and at
/// most one nonzero digit in any `w` consecutive positions.
fn wnaf(k: &U256, w: usize) -> [i8; WNAF_LEN] {
    debug_assert!((2..=8).contains(&w), "digits must fit an i8");
    let mut digits = [0i8; WNAF_LEN];
    let mut carry = 0u64;
    let mut pos = 0;
    while pos < WNAF_LEN {
        if u64::from(k.bit(pos)) == carry {
            pos += 1;
            continue;
        }
        // The bit at `pos` differs from the carry, so the sum is odd and
        // below 2^w; values from 2^(w−1) up become negative digits that
        // borrow from the next window.
        let word = k.window(pos, w) + carry;
        carry = word >> (w - 1);
        digits[pos] = (word as i64 - ((carry as i64) << w)) as i8;
        pos += w;
    }
    // A window reaching past bit 255 has a zero top bit and cannot carry.
    debug_assert_eq!(carry, 0);
    digits
}

/// The odd multiples `P, 3P … 15P` a width-5 wNAF digit selects from.
fn odd_multiples(p: &JacobianPoint) -> [JacobianPoint; VAR_ODD] {
    let twice = p.double();
    let mut table = [*p; VAR_ODD];
    for i in 1..table.len() {
        table[i] = table[i - 1].add_point(&twice);
    }
    table
}

/// `g·G + Σ kᵢ·Pᵢ` by Straus interleaving: every term is recoded to
/// wNAF (width 8 over the generator's odd-multiples table, width 5 over
/// a per-call table for the others) and all of them share one chain of
/// doublings.
fn interleave<const N: usize>(g: Option<&Fr>, terms: [(&Fr, &JacobianPoint); N]) -> JacobianPoint {
    crate::opcount::group_mul();
    let g = g.map(|g| (wnaf(&g.to_u256(), GEN_WIDTH), generator_tables().odd()));
    let terms = terms.map(|(k, p)| (wnaf(&k.to_u256(), VAR_WIDTH), odd_multiples(p)));
    let mut acc = JacobianPoint::identity();
    for pos in (0..WNAF_LEN).rev() {
        acc = acc.double();
        if let Some((digits, table)) = &g {
            acc = acc.add_digit(digits[pos], table);
        }
        for (digits, table) in &terms {
            let digit = digits[pos];
            if digit != 0 {
                // A digit ±(2i + 1) selects entry i of an odd-multiples table.
                let entry = table[usize::from(digit.unsigned_abs() / 2)];
                acc = acc.add_point(&if digit > 0 { entry } else { entry.negate() });
            }
        }
    }
    acc
}

/// [`interleave`] over a slice: `g·G + Σ kᵢ·Pᵢ` with every term's
/// odd-multiples table normalised to affine by **one** shared inversion,
/// so every addition on the one chain of doublings is mixed. `None` when
/// a table entry is the point at infinity, which for points on the
/// curve means some `Pᵢ` is.
fn interleave_many(g: &Fr, terms: &[(Fr, AffinePoint)]) -> Option<JacobianPoint> {
    crate::opcount::group_mul();
    let multiples: Vec<JacobianPoint> = terms
        .iter()
        .flat_map(|(_, p)| odd_multiples(&p.to_jacobian()))
        .collect();
    let tables = batch_normalize(&multiples)?;
    let digits: Vec<[i8; WNAF_LEN]> = terms
        .iter()
        .map(|(k, _)| wnaf(&k.to_u256(), VAR_WIDTH))
        .collect();
    let g_digits = wnaf(&g.to_u256(), GEN_WIDTH);
    let g_table = generator_tables().odd();
    let mut acc = JacobianPoint::identity();
    for pos in (0..WNAF_LEN).rev() {
        acc = acc.double().add_digit(g_digits[pos], g_table);
        for (digits, table) in digits.iter().zip(tables.chunks_exact(VAR_ODD)) {
            acc = acc.add_digit(digits[pos], table);
        }
    }
    Some(acc)
}

/// A finite affine point as stored in the generator tables: the bare
/// coordinates, 64 bytes.
struct TablePoint {
    x: Fp,
    y: Fp,
}

/// The precomputed multiples of `G` (see the module docs for layout),
/// in one allocation: the odd multiples, then the comb rows.
struct GeneratorTables(Vec<TablePoint>);

impl GeneratorTables {
    /// `odd()[i] = (2i + 1)·G` for `i < 64`.
    fn odd(&self) -> &[TablePoint] {
        &self.0[..GEN_ODD]
    }

    /// `comb()[15·i + j − 1] = j·16^i·G` for `i < 64`, `j = 1 … 15`.
    fn comb(&self) -> &[TablePoint] {
        &self.0[GEN_ODD..]
    }
}

/// The generator tables, built on first use.
fn generator_tables() -> &'static GeneratorTables {
    static TABLES: OnceLock<GeneratorTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let g = JacobianPoint::generator();
        let twice = g.double();
        let mut points = Vec::with_capacity(GEN_ODD + COMB_ROWS * COMB_ROW);
        let mut odd = g;
        for _ in 0..GEN_ODD {
            points.push(odd);
            odd = odd.add_point(&twice);
        }
        let mut base = g;
        for _ in 0..COMB_ROWS {
            let mut multiple = base;
            for _ in 0..COMB_ROW {
                points.push(multiple);
                multiple = multiple.add_point(&base);
            }
            // `multiple` is now 16·base, the next row's base.
            base = multiple;
        }
        GeneratorTables(
            batch_normalize(&points).expect("multiples of G below the group order are finite"),
        )
    })
}

/// Normalises Jacobian points to affine coordinates with one field
/// inversion (Montgomery's trick: invert the product of all `Z`, then
/// peel one factor off per point, back to front). `None` when a point
/// is the identity, which has no affine coordinates.
fn batch_normalize(points: &[JacobianPoint]) -> Option<Vec<TablePoint>> {
    let mut prefix = Vec::with_capacity(points.len());
    let mut product = Fp::one();
    for p in points {
        prefix.push(product);
        product *= p.z;
    }
    let mut inverse = product.invert()?;
    let mut out = Vec::with_capacity(points.len());
    for (p, prefix) in points.iter().zip(prefix).rev() {
        let z_inv = inverse * prefix;
        inverse *= p.z;
        let z_inv2 = z_inv.square();
        out.push(TablePoint {
            x: p.x * z_inv2,
            y: p.y * z_inv2 * z_inv,
        });
    }
    out.reverse();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FieldParams, Fp256};
    use crate::hex;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(AffinePoint::generator().is_on_curve());
    }

    #[test]
    fn known_multiple_2g() {
        // 2G for secp256k1 (public test vector).
        let two_g = (JacobianPoint::generator() * Fr::from_u64(2)).to_affine();
        assert_eq!(
            two_g.x(),
            Fp::from_hex("C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5")
        );
        assert_eq!(
            two_g.y(),
            Fp::from_hex("1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A")
        );
    }

    #[test]
    fn known_multiple_3g() {
        let three_g = (JacobianPoint::generator() * Fr::from_u64(3)).to_affine();
        assert_eq!(
            three_g.x(),
            Fp::from_hex("F9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9")
        );
    }

    #[test]
    fn group_order_annihilates_generator() {
        // n * G = identity, via n = 0 in Fr: multiply by (n - 1) then add G.
        let n_minus_1 = Fr::ZERO - Fr::one();
        let p = JacobianPoint::generator() * n_minus_1 + JacobianPoint::generator();
        assert!(p.is_identity());
    }

    #[test]
    fn addition_laws() {
        let mut r = rng();
        let a = AffinePoint::random(&mut r).to_jacobian();
        let b = AffinePoint::random(&mut r).to_jacobian();
        let c = AffinePoint::random(&mut r).to_jacobian();
        assert_eq!(a + b, b + a);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a + JacobianPoint::identity(), a);
        assert!((a + (-a)).is_identity());
        assert_eq!(a + a, a.double());
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut r = rng();
        let s1 = Fr::random(&mut r);
        let s2 = Fr::random(&mut r);
        let g = JacobianPoint::generator();
        assert_eq!(g * s1 + g * s2, g * (s1 + s2));
        assert_eq!((g * s1) * s2, g * (s1 * s2));
    }

    #[test]
    fn compression_roundtrip() {
        let mut r = rng();
        for _ in 0..8 {
            let p = AffinePoint::random(&mut r);
            let decoded = AffinePoint::from_compressed(&p.to_compressed()).unwrap();
            assert_eq!(p, decoded);
        }
        let id = AffinePoint::identity();
        assert_eq!(AffinePoint::from_compressed(&id.to_compressed()), Some(id));
    }

    #[test]
    fn compression_rejects_garbage() {
        let mut bytes = [0xffu8; 33];
        assert!(AffinePoint::from_compressed(&bytes).is_none());
        bytes[0] = 0x02;
        // x = 2^256-1 is not canonical.
        assert!(AffinePoint::from_compressed(&bytes).is_none());
    }

    #[test]
    fn hash_to_curve_is_deterministic_and_valid() {
        let p1 = AffinePoint::hash_to_curve("test", b"hello");
        let p2 = AffinePoint::hash_to_curve("test", b"hello");
        let p3 = AffinePoint::hash_to_curve("test", b"world");
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert!(p1.is_on_curve());
        assert!(p3.is_on_curve());
        assert_ne!(
            AffinePoint::hash_to_curve("other-domain", b"hello"),
            p1,
            "domains must separate"
        );
    }

    #[test]
    fn doubling_edge_cases() {
        assert!(JacobianPoint::identity().double().is_identity());
        let g = JacobianPoint::generator();
        assert_eq!(g.double().double(), g * Fr::from_u64(4));
    }

    /// Bit-at-a-time double-and-add with general additions — the
    /// multiplication this module used to run, kept as the oracle the
    /// windowed forms are tested against.
    fn mul_naive(p: &JacobianPoint, scalar: &Fr) -> JacobianPoint {
        let k = scalar.to_u256();
        let mut acc = JacobianPoint::identity();
        for i in (0..k.bits()).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add_point(p);
            }
        }
        acc
    }

    const KAT_SCALAR_A: &str = "4f12bc5fcfdbf47cc1336e3cfa196f074f5a55d6be92dfb4ed6f6a5d668cb8b8";
    const KAT_SCALAR_B: &str = "9d6e459148c9a481d33a56416ef393564a1e671107c494f504cbf6898580e221";

    #[test]
    fn known_answer_generator_multiples() {
        // Compressed `k·G`, generated by the double-and-add loop before
        // it was replaced.
        let vectors = [
            (
                "1",
                "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            ),
            (
                "2",
                "02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
            ),
            (
                "3",
                "02f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
            ),
            (
                "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
                "0379be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            ),
            (
                KAT_SCALAR_A,
                "0367804f00b9463698f23415ad57cf8489b477cee076da56fc94fdac0cb2fd4c57",
            ),
            (
                KAT_SCALAR_B,
                "03d4e81f6635b4952ceb9152464d9aa72d9fc6a30e00b297446f6605bd286bd4d1",
            ),
        ];
        for (k, expected) in vectors {
            let k = Fr::from_hex(k);
            let fixed = JacobianPoint::mul_generator(&k).to_affine();
            let variable = JacobianPoint::generator().mul_scalar(&k).to_affine();
            let straus = JacobianPoint::lincomb_generator(&k, &Fr::ZERO, &AffinePoint::identity());
            assert_eq!(hex(&fixed.to_compressed()), expected);
            assert_eq!(hex(&variable.to_compressed()), expected);
            assert_eq!(hex(&straus.to_affine().to_compressed()), expected);
        }
    }

    #[test]
    fn known_answer_variable_base_multiple() {
        // b·(a·G), same provenance.
        let p = JacobianPoint::mul_generator(&Fr::from_hex(KAT_SCALAR_A));
        assert_eq!(
            hex(&p
                .mul_scalar(&Fr::from_hex(KAT_SCALAR_B))
                .to_affine()
                .to_compressed()),
            "032158a6e9633b47991794502c4c0e5fd3d8af9b4b531ac98781547422be24214e"
        );
    }

    /// `2^k` as an integer, `k < 256`.
    fn pow2(k: usize) -> U256 {
        let mut limbs = [0u64; 4];
        limbs[k / 64] = 1 << (k % 64);
        U256::from_limbs(limbs)
    }

    /// The scalars the recodings are most likely to get wrong: 0, 1, 2,
    /// n − 1 (opens with 127 one-bits, so its recoding carries furthest),
    /// `2^k` and `2^k − 1`.
    fn edge_scalars() -> Vec<Fr> {
        let mut out = vec![Fr::ZERO, Fr::one(), Fr::from_u64(2), -Fr::one()];
        for k in [3, 4, 5, 7, 8, 63, 64, 65, 127, 128, 129, 251, 252, 255] {
            out.push(Fr::from_u256(pow2(k)));
            out.push(Fr::from_u256(pow2(k).wrapping_sub(&U256::ONE)));
        }
        out.push(Fr::from_u256(U256::MAX));
        out
    }

    /// G, −G, the identity and one unrelated point.
    fn edge_points() -> [AffinePoint; 4] {
        let g = AffinePoint::generator();
        [
            g,
            g.negate(),
            AffinePoint::identity(),
            AffinePoint::hash_to_curve("test", b"edge"),
        ]
    }

    fn check_against_naive(a: &Fr, b: &Fr, p: &AffinePoint, q: &AffinePoint) {
        let g = JacobianPoint::generator();
        let (pj, qj) = (p.to_jacobian(), q.to_jacobian());
        let (ag, ap, bp, bq) = (
            mul_naive(&g, a),
            mul_naive(&pj, a),
            mul_naive(&pj, b),
            mul_naive(&qj, b),
        );
        assert_eq!(JacobianPoint::mul_generator(a), ag);
        assert_eq!(pj.mul_scalar(a), ap);
        assert_eq!(JacobianPoint::lincomb_generator(a, b, p), ag + bp);
        assert_eq!(JacobianPoint::lincomb(a, p, b, q), ap + bq);
        assert!(ap.eq_affine(&ap.to_affine()));
        assert_eq!(ap.eq_affine(&bq.to_affine()), ap == bq);
        // The slice form agrees wherever it is defined: every point finite.
        let many = JacobianPoint::lincomb_many(a, &[(*b, *p), (*a, *q)]);
        let finite = !p.is_identity() && !q.is_identity();
        assert_eq!(many, finite.then(|| ag + bp + mul_naive(&qj, a)));
    }

    #[test]
    fn edge_scalars_and_points_match_naive() {
        let scalars = edge_scalars();
        let points = edge_points();
        // Every edge scalar against every edge point, each paired with a
        // rotating partner so that collisions like a·G + a·(−G) occur.
        for (i, a) in scalars.iter().enumerate() {
            for (j, p) in points.iter().enumerate() {
                let b = &scalars[(i + j) % scalars.len()];
                check_against_naive(a, b, p, &points[(j + i) % 4]);
                check_against_naive(a, a, p, p);
            }
        }
    }

    #[test]
    fn mixed_addition_matches_general_on_every_branch() {
        let g = JacobianPoint::generator();
        let p = mul_naive(&g, &Fr::from_hex(KAT_SCALAR_A));
        let q = mul_naive(&g, &Fr::from_hex(KAT_SCALAR_B)).to_affine();
        let id = JacobianPoint::identity();
        // Distinct points, with a non-trivial Z on the left.
        assert_eq!(p.add_affine(&q), p.add_point(&q.to_jacobian()));
        // P + P takes the doubling branch, P + (−P) cancels.
        assert_eq!(p.add_affine(&p.to_affine()), p.double());
        assert!(p.add_affine(&p.to_affine().negate()).is_identity());
        // Identity on either side.
        assert_eq!(id.add_affine(&q), q.to_jacobian());
        assert_eq!(p.add_affine(&AffinePoint::identity()), p);
        assert!(id.add_affine(&AffinePoint::identity()).is_identity());
    }

    #[test]
    fn interleaving_survives_accumulator_collisions() {
        // P = (3/2)·G and b = 2: the accumulator is P after position 1
        // and 3G after the next doubling, exactly the table entry the
        // generator digit of a = ±3 selects — the mixed addition must
        // double (a = 3) or cancel (a = −3) rather than divide by zero.
        let three = Fr::from_u64(3);
        let half = Fr::from_u64(2).invert().unwrap();
        let p = JacobianPoint::mul_generator(&(three * half)).to_affine();
        let two = Fr::from_u64(2);
        assert_eq!(
            JacobianPoint::lincomb_generator(&three, &two, &p),
            JacobianPoint::mul_generator(&Fr::from_u64(6))
        );
        assert!(JacobianPoint::lincomb_generator(&-three, &two, &p).is_identity());
        // The same collision between two variable bases.
        let g = AffinePoint::generator();
        assert_eq!(
            JacobianPoint::lincomb(&three, &g, &two, &p),
            JacobianPoint::mul_generator(&Fr::from_u64(6))
        );
        assert!(JacobianPoint::lincomb(&-three, &g, &two, &p).is_identity());
    }

    #[test]
    fn slice_interleaving_matches_the_sum_of_its_terms() {
        let g = JacobianPoint::generator();
        let scalar = |i: u64| Fr::from_be_bytes_reduced(&crate::sha256::sha256(&i.to_le_bytes()));
        let terms: Vec<(Fr, AffinePoint)> = (0..21)
            .map(|i| {
                // Short scalars, as the batch equation's `zᵢ`, among full ones.
                let k = if i % 3 == 0 {
                    Fr::from_u256(U256::from(u128::MAX - i as u128))
                } else {
                    scalar(i)
                };
                (k, AffinePoint::hash_to_curve("test", &i.to_le_bytes()))
            })
            .collect();
        for n in [0, 1, 2, 21] {
            let expected = terms[..n]
                .iter()
                .fold(mul_naive(&g, &scalar(99)), |sum, (k, p)| {
                    sum + mul_naive(&p.to_jacobian(), k)
                });
            assert_eq!(
                JacobianPoint::lincomb_many(&scalar(99), &terms[..n]),
                Some(expected),
                "n = {n}"
            );
        }
        // The same point under cancelling scalars, and the collision of
        // `interleaving_survives_accumulator_collisions` in slice form.
        let p = terms[1].1;
        let cancel = [(scalar(5), p), (-scalar(5), p)];
        assert!(JacobianPoint::lincomb_many(&Fr::ZERO, &cancel)
            .unwrap()
            .is_identity());
        let three = Fr::from_u64(3);
        let half = Fr::from_u64(2).invert().unwrap();
        let p = JacobianPoint::mul_generator(&(three * half)).to_affine();
        assert!(
            JacobianPoint::lincomb_many(&-three, &[(Fr::from_u64(2), p)])
                .unwrap()
                .is_identity()
        );
        // An identity among the terms is refused, not tabulated.
        let mut hostile = terms[..3].to_vec();
        hostile[1].1 = AffinePoint::identity();
        assert_eq!(JacobianPoint::lincomb_many(&scalar(99), &hostile), None);
    }

    #[test]
    fn eq_affine_handles_the_identity() {
        let id = JacobianPoint::identity();
        let g = AffinePoint::generator();
        assert!(id.eq_affine(&AffinePoint::identity()));
        assert!(!id.eq_affine(&g));
        assert!(!g.to_jacobian().eq_affine(&AffinePoint::identity()));
        assert!(!g.to_jacobian().double().eq_affine(&g));
        assert!(!g.to_jacobian().eq_affine(&g.negate()));
    }

    /// `Σ dᵢ·2^i` in the field `P`, folded from the top digit.
    fn wnaf_value<P: FieldParams>(digits: &[i8]) -> Fp256<P> {
        digits.iter().rev().fold(Fp256::ZERO, |acc, &d| {
            let magnitude = Fp256::from_u64(u64::from(d.unsigned_abs()));
            acc.double() + if d >= 0 { magnitude } else { -magnitude }
        })
    }

    /// The three wNAF invariants.
    fn check_wnaf(k: &U256, w: usize) {
        let digits = wnaf(k, w);
        // The digit sum and `k` are both below 2^258 in magnitude, so
        // agreeing modulo two different 256-bit primes makes them equal
        // as integers — including the digit at position 256, which a
        // check modulo 2^256 could not see.
        assert_eq!(wnaf_value(&digits), Fr::from_u256(*k));
        assert_eq!(wnaf_value(&digits), Fp::from_u256(*k));
        for (i, &d) in digits.iter().enumerate() {
            if d != 0 {
                assert!(d % 2 != 0, "digit {d} at {i} is even");
                assert!(
                    i32::from(d).abs() < 1 << (w - 1),
                    "digit {d} at {i} too large"
                );
                let window_end = (i + w).min(WNAF_LEN);
                assert!(
                    digits[i + 1..window_end].iter().all(|&d| d == 0),
                    "two nonzero digits within {w} positions of {i}"
                );
            }
        }
    }

    #[test]
    fn wnaf_invariants_on_edge_scalars() {
        let n_minus_1 = (-Fr::one()).to_u256();
        for w in [2, VAR_WIDTH, GEN_WIDTH] {
            for k in [U256::ZERO, U256::ONE, U256::MAX, n_minus_1] {
                check_wnaf(&k, w);
            }
            for k in 0..256 {
                check_wnaf(&pow2(k), w);
                check_wnaf(&pow2(k).wrapping_sub(&U256::ONE), w);
            }
        }
        // The carry out of bit 255 needs the 257th position.
        assert_eq!(wnaf(&U256::MAX, VAR_WIDTH)[256], 1);
        assert_eq!(wnaf(&n_minus_1, VAR_WIDTH)[256], 1);
    }

    #[test]
    fn generator_tables_hold_the_documented_multiples() {
        let tables = generator_tables();
        assert_eq!(tables.odd().len(), 64);
        assert_eq!(tables.comb().len(), 64 * 15);
        let g = JacobianPoint::generator();
        let check = |entry: &TablePoint, k: Fr| {
            let expected = mul_naive(&g, &k).to_affine();
            assert_eq!((entry.x, entry.y), (expected.x(), expected.y()));
        };
        for i in [0, 1, 31, 63] {
            check(&tables.odd()[i], Fr::from_u64(2 * i as u64 + 1));
        }
        for (i, j) in [(0, 1), (0, 15), (1, 1), (17, 9), (63, 1), (63, 15)] {
            let k = Fr::from_u256(pow2(4 * i)) * Fr::from_u64(j as u64);
            check(&tables.comb()[15 * i + j - 1], k);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_multiplications_match_naive(
            a in any::<[u8; 32]>(),
            b in any::<[u8; 32]>(),
            seed in any::<[u8; 8]>(),
            edge_a in 0usize..64,
            edge_p in 0usize..8,
        ) {
            // Random scalars and points, with edge values mixed in on
            // one side about half the time.
            let edges = edge_scalars();
            let a = edges.get(edge_a).copied().unwrap_or(Fr::from_be_bytes_reduced(&a));
            let b = Fr::from_be_bytes_reduced(&b);
            let q = AffinePoint::hash_to_curve("test", &seed);
            let p = edge_points().get(edge_p).copied().unwrap_or(q.negate());
            check_against_naive(&a, &b, &p, &q);
            check_against_naive(&b, &a, &q, &p);
        }

        #[test]
        fn prop_mixed_addition_matches_general(
            a in any::<[u8; 32]>(), b in any::<[u8; 32]>()
        ) {
            let g = JacobianPoint::generator();
            let p = mul_naive(&g, &Fr::from_be_bytes_reduced(&a));
            let q = mul_naive(&g, &Fr::from_be_bytes_reduced(&b));
            prop_assert_eq!(p.add_affine(&q.to_affine()), p.add_point(&q));
        }

        #[test]
        fn prop_wnaf_invariants(k in any::<[u8; 32]>(), w in 2usize..9) {
            check_wnaf(&U256::from_be_bytes(&k), w);
        }
    }
}
