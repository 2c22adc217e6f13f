//! Poseidon2: the SNARK-friendly algebraic hash over the base field.
//!
//! The paper's state-transition proofs require "an efficient hashing
//! procedure … implemented for a SNARK arithmetic constraint system"
//! (§5.4). This is a from-scratch instantiation of Poseidon2 (Grassi,
//! Khovratovich, Schofnegger, ePrint 2023/323) over the secp256k1 base
//! field with `t = 3` and the `x⁵` S-box (a permutation because
//! `gcd(5, p − 1) = 1` for this `p`). Poseidon2 keeps Poseidon's S-box
//! and round structure and replaces its dense MDS layers with two
//! matrices that cost additions only.
//!
//! Provides the 2-to-1 compression used by Merkle trees ([`hash2`]), the
//! sparse tree's keyed-leaf compression ([`hash_leaf`]) and a
//! variable-length sponge ([`hash_many`]).
//!
//! # Structure
//!
//! With `J` the all-ones matrix and `s = x₀ + x₁ + x₂`:
//!
//! * the state is first multiplied by `M_E = circ(2, 1, 1) = J + I`,
//!   which is `xᵢ ← xᵢ + s`;
//! * 4 **full rounds**: add a constant to each coordinate, S-box all
//!   three, multiply by `M_E`;
//! * 57 **partial rounds**: add a constant to `x₀`, S-box `x₀` alone,
//!   multiply by `M_I = J + diag(μ)` with `μ = (1, 2, 8)`, which is
//!   `xᵢ ← s + μᵢ·xᵢ`;
//! * 4 more full rounds.
//!
//! In a partial round `x₁ + x₂`, `2·x₁` and `8·x₂` (doublings) do not
//! depend on the S-box output, so they are computed while it runs and
//! the round's critical path is S-box → add (`s`) → add.
//!
//! # Counts
//!
//! The S-boxes are the only field products: `x⁵ = (x²)²·x` is two
//! squarings and one multiplication, and a permutation runs
//! 8·3 + 57 = 81 S-boxes, so **243 products, 162 of them squarings**.
//! The linear layers are 5 additions a full round and 9 a partial round
//! (four of them doublings). The constraint model
//! (`gadget_cost::POSEIDON_HASH2 = 243` in `zendoo-snark`) counts the
//! same 81 S-boxes.
//!
//! # Constants
//!
//! The round constants are 32-byte draws of the SHA-256 counter PRG
//! `Prg::new("zendoo/poseidon2-v1/round-constants")`, each reduced
//! modulo `p` and taken in round order: 4 triples for the first full
//! rounds, 57 scalars for the partial rounds, 4 triples for the last
//! full rounds.
//!
//! # μ
//!
//! `μ` is the first candidate for which `M_I` is invertible and the
//! characteristic polynomial of `M_Iᵏ` is irreducible over `F_p` for
//! every `k = 1..=8`. Irreducibility leaves `M_Iᵏ` no invariant subspace,
//! which is the paper's sufficient condition against invariant subspace
//! trails through the partial rounds. The candidates are every
//! `μ ∈ {1, 2, …}³`, ordered by `μ₀ + μ₁ + μ₂` and then
//! lexicographically, from `(1, 1, 2)`. That first candidate is the
//! paper's own `t = 3` matrix `[[2, 1, 1], [1, 2, 1], [1, 1, 3]]`, and it
//! fails: whenever `μᵢ = μⱼ`, `eᵢ − eⱼ` is an eigenvector of `J + diag(μ)`
//! with eigenvalue `μᵢ`, so every candidate with a repeated entry
//! fails. Over this field, every candidate with distinct entries up to
//! sum 10 also has an eigenvalue in `F_p`. The search stops at
//! `(1, 2, 8)`. `M_E` is MDS: every square submatrix is nonsingular. The
//! tests check all three conditions and rerun the search.
//!
//! # Round numbers
//!
//! Poseidon2 takes its round numbers from Poseidon's bounds, plus the
//! Gröbner-basis bound of ePrint 2023/537. Evaluated for a 128-bit
//! security level `κ`, `α = 5`, `t = 3` and `log₂ p = 256`
//! (`log_α 2 ≈ 0.431`):
//!
//! * **Statistical attacks** need `R_F ≥ 6`, since
//!   `κ ≤ (⌊log₂ p⌋ − 2)·(t + 1)`. Two more rounds of margin give
//!   `R_F = 8`.
//! * **Interpolation** needs
//!   `R_F + R_P ≥ 1 + ⌈κ·log_α 2⌉ + ⌈log_α t⌉ = 1 + 56 + 1 = 58`, so
//!   `R_P ≥ 52` at `R_F = 6`.
//! * **Gröbner bases** need `R_F + R_P ≥ κ·log_α 2 ≈ 55.1`,
//!   `R_F + R_P ≥ t − 1 + log_α 2·min(κ/(t + 1), log₂ p/2) ≈ 15.8` and
//!   `(t − 1)·R_F + R_P ≥ t − 2 + κ/(2·log₂ α) ≈ 28.6`. All three are
//!   weaker than interpolation. The bound of 2023/537,
//!   `2·log₂ C(2·R_P + 7·R_F/2 + 3, R_P + R_F/2 + 5) ≥ κ` at `t = 3`,
//!   holds from `R_P = 23` at `R_F = 6` (≈ 248 at `R_P = 52`).
//! * The paper adds 7.5 % to the partial rounds: `⌈1.075·52⌉ = 56`.
//!
//! This instance runs **57** partial rounds, one more than the bound
//! asks for, so that a permutation is 81 S-boxes and
//! `gadget_cost::POSEIDON_HASH2` and the constraint figures built on it
//! stay exact.

use crate::field::Fp;
use crate::sha256::Prg;
use std::sync::OnceLock;

/// State width.
pub const T: usize = 3;
/// Number of full rounds (split half before, half after partial rounds).
pub const FULL_ROUNDS: usize = 8;
/// Number of partial rounds.
pub const PARTIAL_ROUNDS: usize = 57;

const HALF_FULL: usize = FULL_ROUNDS / 2;

struct Params {
    /// The constant triples of the full rounds, in round order: the
    /// first half runs before the partial rounds, the second after.
    full: [[Fp; T]; FULL_ROUNDS],
    /// The constant each partial round adds to `x₀`.
    partial: [Fp; PARTIAL_ROUNDS],
}

fn params() -> &'static Params {
    static PARAMS: OnceLock<Params> = OnceLock::new();
    PARAMS.get_or_init(|| {
        let mut prg = Prg::new("zendoo/poseidon2-v1/round-constants");
        let mut full = [[Fp::ZERO; T]; FULL_ROUNDS];
        let mut partial = [Fp::ZERO; PARTIAL_ROUNDS];
        let (head, tail) = full.split_at_mut(HALF_FULL);
        let in_round_order = head
            .iter_mut()
            .flatten()
            .chain(&mut partial)
            .chain(tail.iter_mut().flatten());
        for c in in_round_order {
            *c = Fp::from_be_bytes_reduced(&prg.next_bytes32());
        }
        Params { full, partial }
    })
}

#[inline]
fn sbox(x: Fp) -> Fp {
    // x^5
    let x2 = x.square();
    x2.square() * x
}

/// `M_E = circ(2, 1, 1)`: `xᵢ ← xᵢ + s` with `s = x₀ + x₁ + x₂`.
#[inline]
fn external_layer(state: &mut [Fp; T]) {
    let s = state[0] + state[1] + state[2];
    for x in state.iter_mut() {
        *x += s;
    }
}

fn full_round(state: &mut [Fp; T], rc: &[Fp; T]) {
    for (x, c) in state.iter_mut().zip(rc) {
        *x = sbox(*x + *c);
    }
    external_layer(state);
}

/// The Poseidon2 permutation over a width-3 state.
pub fn permute(state: &mut [Fp; T]) {
    crate::opcount::permutation();
    let p = params();
    let (head, tail) = p.full.split_at(HALF_FULL);
    external_layer(state);
    for rc in head {
        full_round(state, rc);
    }
    for c in &p.partial {
        let [x0, x1, x2] = *state;
        // Independent of the S-box output: off the critical path.
        let rest = x1 + x2;
        let x1_twice = x1.double();
        let x2_eight = x2.double().double().double();
        let y0 = sbox(x0 + *c);
        // M_I = J + diag(1, 2, 8).
        let s = y0 + rest;
        *state = [s + y0, s + x1_twice, s + x2_eight];
    }
    for rc in tail {
        full_round(state, rc);
    }
}

/// Two-to-one compression: the Merkle-tree node hash.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::{field::Fp, poseidon};
///
/// let h = poseidon::hash2(&Fp::from_u64(1), &Fp::from_u64(2));
/// assert_ne!(h, poseidon::hash2(&Fp::from_u64(2), &Fp::from_u64(1)));
/// ```
pub fn hash2(a: &Fp, b: &Fp) -> Fp {
    // Capacity element carries a domain constant (arity tag).
    let mut state = [*a, *b, Fp::from_u64(2u64 << 32)];
    permute(&mut state);
    state[0]
}

/// Keyed-leaf compression: one permutation over `(key, value)` under a
/// capacity constant of its own, so no output is also a [`hash2`] or
/// [`hash_many`] output (the sparse tree's `H_leaf`, see [`crate::smt`]).
pub fn hash_leaf(key: &Fp, value: &Fp) -> Fp {
    let mut state = [*key, *value, Fp::from_u64(3u64 << 32)];
    permute(&mut state);
    state[0]
}

/// Variable-length sponge hash (rate 2, capacity 1).
///
/// The input length is absorbed into the capacity as padding-free domain
/// separation, so `hash_many(&[a])` and `hash_many(&[a, 0])` differ.
pub fn hash_many(inputs: &[Fp]) -> Fp {
    let mut state = [
        Fp::ZERO,
        Fp::ZERO,
        Fp::from_u64(inputs.len() as u64) + Fp::from_u64(1u64 << 40),
    ];
    for chunk in inputs.chunks(2) {
        state[0] += chunk[0];
        if let Some(second) = chunk.get(1) {
            state[1] += *second;
        }
        permute(&mut state);
    }
    if inputs.is_empty() {
        permute(&mut state);
    }
    state[0]
}

/// Hashes arbitrary bytes into the field by bridging through SHA-256.
///
/// Used where byte-level data (e.g. mainchain block hashes) must enter
/// field-level commitments.
pub fn hash_bytes(domain: &str, bytes: &[u8]) -> Fp {
    let digest = crate::sha256::sha256_tagged("zendoo/poseidon-bytes", &[domain.as_bytes(), bytes]);
    let limb = Fp::from_be_bytes_reduced(&digest);
    hash_many(&[limb])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::U256;
    use crate::field::{FieldParams, SecpBase};
    use proptest::prelude::*;

    type Matrix = [[Fp; T]; T];

    /// `μ` of `M_I = J + diag(μ)`, as [`permute`]'s partial round
    /// applies it.
    const MU: [u64; T] = [1, 2, 8];

    /// `J + diag(d)`.
    fn ones_plus_diag(d: [u64; T]) -> Matrix {
        std::array::from_fn(|i| {
            std::array::from_fn(|j| Fp::from_u64(1 + if i == j { d[i] } else { 0 }))
        })
    }

    fn external_matrix() -> Matrix {
        ones_plus_diag([1; T])
    }

    fn apply(m: &Matrix, state: &[Fp; T]) -> [Fp; T] {
        m.map(|row| Fp::sum_of_products(&row, state))
    }

    fn mat_mul(a: &Matrix, b: &Matrix) -> Matrix {
        std::array::from_fn(|i| {
            std::array::from_fn(|j| {
                (0..T)
                    .map(|k| a[i][k] * b[k][j])
                    .fold(Fp::ZERO, |s, x| s + x)
            })
        })
    }

    /// The textbook permutation, multiplying the dense `M_E` / `M_I`
    /// every round: the oracle [`permute`] is tested against.
    fn permute_matrix(state: &mut [Fp; T]) {
        let p = params();
        let (m_e, m_i) = (external_matrix(), ones_plus_diag(MU));
        *state = apply(&m_e, state);
        for (round, rc) in p.full.iter().enumerate() {
            if round == HALF_FULL {
                for c in &p.partial {
                    state[0] = sbox(state[0] + *c);
                    *state = apply(&m_i, state);
                }
            }
            let sboxed = std::array::from_fn(|i| sbox(state[i] + rc[i]));
            *state = apply(&m_e, &sboxed);
        }
    }

    /// The determinant of a square matrix of up to three rows, by
    /// cofactor expansion along the first row.
    fn det(m: &[Vec<Fp>]) -> Fp {
        if m.len() == 1 {
            return m[0][0];
        }
        let mut sum = Fp::ZERO;
        for (j, a) in m[0].iter().enumerate() {
            let minor: Vec<Vec<Fp>> = m[1..]
                .iter()
                .map(|row| [&row[..j], &row[j + 1..]].concat())
                .collect();
            let term = *a * det(&minor);
            sum = if j % 2 == 0 { sum + term } else { sum - term };
        }
        sum
    }

    /// Polynomials over `F_p`, lowest coefficient first, with no
    /// trailing zero (the zero polynomial is empty).
    fn trim(mut p: Vec<Fp>) -> Vec<Fp> {
        while p.last() == Some(&Fp::ZERO) {
            p.pop();
        }
        p
    }

    fn poly_rem(mut a: Vec<Fp>, b: &[Fp]) -> Vec<Fp> {
        let lead_inv = b.last().and_then(Fp::invert).expect("nonzero divisor");
        while a.len() >= b.len() {
            let q = *a.last().expect("nonempty") * lead_inv;
            let shift = a.len() - b.len();
            for (x, y) in a[shift..].iter_mut().zip(b) {
                *x -= q * *y;
            }
            a = trim(a);
        }
        a
    }

    fn poly_mul_mod(a: &[Fp], b: &[Fp], f: &[Fp]) -> Vec<Fp> {
        let mut product = vec![Fp::ZERO; (a.len() + b.len()).saturating_sub(1)];
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                product[i + j] += *x * *y;
            }
        }
        poly_rem(trim(product), f)
    }

    fn poly_gcd(mut a: Vec<Fp>, mut b: Vec<Fp>) -> Vec<Fp> {
        while !b.is_empty() {
            let r = poly_rem(a, &b);
            a = b;
            b = r;
        }
        a
    }

    /// `x³ − tr·x² + c₂·x − det` of a 3×3 matrix, `c₂` the sum of its
    /// principal 2×2 minors.
    fn char_poly(m: &Matrix) -> Vec<Fp> {
        let minor = |i: usize, j: usize| m[i][i] * m[j][j] - m[i][j] * m[j][i];
        let rows: Vec<Vec<Fp>> = m.iter().map(|row| row.to_vec()).collect();
        vec![
            -det(&rows),
            minor(0, 1) + minor(0, 2) + minor(1, 2),
            -(m[0][0] + m[1][1] + m[2][2]),
            Fp::one(),
        ]
    }

    /// A cubic is irreducible exactly when it has no root in `F_p`, that
    /// is when `gcd(xᵖ − x, f) = 1`; `xᵖ mod f` by square-and-multiply.
    fn cubic_is_irreducible(f: &[Fp]) -> bool {
        let x = vec![Fp::ZERO, Fp::one()];
        let p = SecpBase::MODULUS;
        let mut power = vec![Fp::one()];
        for i in (0..p.bits()).rev() {
            power = poly_mul_mod(&power, &power, f);
            if p.bit(i) {
                power = poly_mul_mod(&power, &x, f);
            }
        }
        let mut x_p_minus_x = power;
        x_p_minus_x.resize(2.max(x_p_minus_x.len()), Fp::ZERO);
        x_p_minus_x[1] -= Fp::one();
        poly_gcd(f.to_vec(), trim(x_p_minus_x)).len() == 1
    }

    /// The paper's conditions on `M_I = J + diag(μ)`: invertible, and
    /// the characteristic polynomials of `M_I¹ … M_I⁸` irreducible (no
    /// invariant subspace trail).
    fn admissible_internal(mu: [u64; T]) -> bool {
        let m = ones_plus_diag(mu);
        let rows: Vec<Vec<Fp>> = m.iter().map(|row| row.to_vec()).collect();
        if det(&rows).is_zero() {
            return false;
        }
        let mut power = m;
        for _ in 1..=8 {
            if !cubic_is_irreducible(&char_poly(&power)) {
                return false;
            }
            power = mat_mul(&power, &m);
        }
        true
    }

    fn p_minus_1() -> Fp {
        Fp::ZERO - Fp::one()
    }

    #[test]
    fn external_matrix_is_mds() {
        let m = external_matrix();
        let subsets: Vec<Vec<usize>> = (1u32..1 << T)
            .map(|mask| (0..T).filter(|i| mask >> i & 1 == 1).collect())
            .collect();
        for rows in &subsets {
            for cols in subsets.iter().filter(|cols| cols.len() == rows.len()) {
                let sub: Vec<Vec<Fp>> = rows
                    .iter()
                    .map(|&i| cols.iter().map(|&j| m[i][j]).collect())
                    .collect();
                assert!(!det(&sub).is_zero(), "rows {rows:?} cols {cols:?}");
            }
        }
    }

    #[test]
    fn internal_matrix_has_no_invariant_subspace_trail() {
        assert!(admissible_internal(MU));
        // Both halves of the check can fail: J itself is singular, and
        // the paper's (1, 1, 2) has the eigenvector (1, −1, 0).
        assert!(!admissible_internal([0, 0, 0]));
        assert!(!admissible_internal([1, 1, 2]));
    }

    /// The module docs' search for `μ`, rerun: `{1, 2, …}³` by sum, then
    /// lexicographically, from `(1, 1, 2)`.
    #[test]
    fn mu_is_the_first_admissible_candidate() {
        let candidates = (4u64..).flat_map(|sum| {
            (1..sum).flat_map(move |a| (1..sum - a).map(move |b| [a, b, sum - a - b]))
        });
        let first = candidates
            .take(1_000)
            .find(|&mu| admissible_internal(mu))
            .expect("an admissible μ below sum 20");
        assert_eq!(first, MU);
    }

    // Known answers of the Poseidon2 instance, regenerated when it
    // replaced Poseidon (a new definition, not a new implementation);
    // a changed constant or linear layer fails here.
    #[test]
    fn known_answer_permute() {
        let cases: [([Fp; T], [&str; T]); 3] = [
            (
                [Fp::ZERO; T],
                [
                    "436ae4988e3e161231f9431d21365326a53f896d04002f8b4a0d1a8c1a02e050",
                    "fed3c8ccfb693fd5c2ae618d326932f35676786a254317dc278a9d33d8b767eb",
                    "4296a11ff9b974c9708e0a120215bf8deeb3662b62971c8feb57e5b226a0e3f2",
                ],
            ),
            (
                [Fp::from_u64(1), Fp::from_u64(2), Fp::from_u64(3)],
                [
                    "58682307a0a85f3de71efeec52015a2b178192d38071df918e971db505f0466d",
                    "0e46e78da60cd1ebe5c0653911cdac8832cd066e9a3d53e3492856a2ea999f19",
                    "11e8aef928bd86cdf9d65084b8d14cb17952716c022287727d781e4fa986983d",
                ],
            ),
            (
                [p_minus_1(); T],
                [
                    "e74e1c1eb2839820c567d4e15079775d0e9b229786bb34f28331598c58f662b3",
                    "e6b9c97d7161eeeb65e9fa4668cd20e8ff28fc9c762400529db77f37479021d8",
                    "e6e6093b18e36c73666c072106fe68672ad326c80d0ef136ef62117b83eb422d",
                ],
            ),
        ];
        for (mut state, expected) in cases {
            permute(&mut state);
            assert_eq!(state, expected.map(Fp::from_hex));
        }
    }

    #[test]
    fn known_answer_hashes() {
        assert_eq!(
            hash2(&Fp::from_u64(1), &Fp::from_u64(2)),
            Fp::from_hex("1f3ae3fcc12a9bb74f4e6d6ebd1641e1b45afeb9c20e79e0932ad24fd497161f")
        );
        assert_eq!(
            hash2(&Fp::ZERO, &Fp::ZERO),
            Fp::from_hex("c5bcd78c7acffe4bd3d62dae4f6e90885a8a2179053c86deb4528ee4822fc39f")
        );
        // hash_many over 1, 2, …, n.
        for (n, expected) in [
            (
                0u64,
                "afc43e46949c6cb15e8ff3930f57d94a4cee8ed0e0538547c0fdb07cd9b55e84",
            ),
            (
                1,
                "30a4a900832824dd02dac0bde7ad5d9e4d54daf8cacacb92a85c39c2383fcc42",
            ),
            (
                2,
                "398b813c470f32714157def5a5c196dbafdaae865782a6436a3b466ad40ae07d",
            ),
            (
                3,
                "91548df47c67de517631074b26266e4a8b27c79b77c7a49cc28d04bc18eb8381",
            ),
            (
                5,
                "32a0fddf78bbcfb30938b3e1308494e7de5afbc3f28bbe1bf77bcfad0a3662ff",
            ),
        ] {
            let xs: Vec<Fp> = (1..=n).map(Fp::from_u64).collect();
            assert_eq!(hash_many(&xs), Fp::from_hex(expected), "{n} inputs");
        }
        assert_eq!(
            hash_bytes("kat", b"zendoo"),
            Fp::from_hex("eeeb969941cbefa7cc76b2d44e2081bb7d8e85a1c6ae6f49c1dc72777bf6800d")
        );
    }

    #[test]
    fn permute_matches_matrix_form_on_edge_states() {
        let (zero, top) = (Fp::ZERO, p_minus_1());
        for state in [[zero; T], [top; T], [zero, top, zero], [top, zero, top]] {
            let (mut fast, mut textbook) = (state, state);
            permute(&mut fast);
            permute_matrix(&mut textbook);
            assert_eq!(fast, textbook);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_permute_matches_matrix_form(
            a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()
        ) {
            let state = [a, b, c].map(|x| Fp::from_be_bytes_reduced(&x));
            let (mut fast, mut textbook) = (state, state);
            permute(&mut fast);
            permute_matrix(&mut textbook);
            prop_assert_eq!(fast, textbook);
        }
    }

    #[test]
    fn sbox_is_permutation_exponent() {
        // gcd(5, p - 1) must be 1 for x^5 to be a bijection.
        let p_minus_1 = SecpBase::MODULUS.wrapping_sub(&U256::ONE);
        // Compute p-1 mod 5 via byte arithmetic.
        let mut rem: u32 = 0;
        for byte in p_minus_1.to_be_bytes() {
            rem = (rem * 256 + byte as u32) % 5;
        }
        assert_ne!(rem, 0, "p-1 must not be divisible by 5");
    }

    #[test]
    fn permutation_changes_state() {
        let mut state = [Fp::ZERO, Fp::ZERO, Fp::ZERO];
        permute(&mut state);
        assert_ne!(state, [Fp::ZERO, Fp::ZERO, Fp::ZERO]);
    }

    #[test]
    fn permutation_is_deterministic() {
        let mut s1 = [Fp::from_u64(1), Fp::from_u64(2), Fp::from_u64(3)];
        let mut s2 = s1;
        permute(&mut s1);
        permute(&mut s2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn hash2_is_not_commutative() {
        let a = Fp::from_u64(17);
        let b = Fp::from_u64(23);
        assert_ne!(hash2(&a, &b), hash2(&b, &a));
    }

    #[test]
    fn hash2_no_trivial_collisions() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..50u64 {
            for j in 0..4u64 {
                let h = hash2(&Fp::from_u64(i), &Fp::from_u64(j));
                assert!(seen.insert(h.to_be_bytes()), "collision at ({i},{j})");
            }
        }
    }

    #[test]
    fn hash_many_length_separated() {
        let a = Fp::from_u64(5);
        assert_ne!(hash_many(&[a]), hash_many(&[a, Fp::ZERO]));
        assert_ne!(hash_many(&[]), hash_many(&[Fp::ZERO]));
    }

    #[test]
    fn hash_many_matches_expected_arity_behaviour() {
        let xs: Vec<Fp> = (0..5).map(Fp::from_u64).collect();
        let h1 = hash_many(&xs);
        let h2 = hash_many(&xs);
        assert_eq!(h1, h2);
        let mut ys = xs.clone();
        ys[4] = Fp::from_u64(6);
        assert_ne!(h1, hash_many(&ys));
    }

    #[test]
    fn hash_bytes_domain_separated() {
        assert_ne!(hash_bytes("a", b"data"), hash_bytes("b", b"data"));
        assert_eq!(hash_bytes("a", b"data"), hash_bytes("a", b"data"));
    }

    #[test]
    fn avalanche_on_single_bit() {
        let a = hash2(&Fp::from_u64(1), &Fp::from_u64(0));
        let b = hash2(&Fp::from_u64(1), &Fp::from_u64(1));
        // The outputs must differ in many byte positions.
        let (ab, bb) = (a.to_be_bytes(), b.to_be_bytes());
        let differing = ab.iter().zip(bb.iter()).filter(|(x, y)| x != y).count();
        assert!(differing > 20, "only {differing} differing bytes");
    }
}
