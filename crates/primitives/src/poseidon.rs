//! Poseidon: the SNARK-friendly algebraic hash over the base field.
//!
//! The paper's state-transition proofs require "an efficient hashing
//! procedure … implemented for a SNARK arithmetic constraint system"
//! (§5.4). Poseidon is the hash the production Zendoo stack uses; this is
//! a from-scratch instantiation over the secp256k1 base field with
//! `t = 3`, `x⁵` S-box (a permutation because `gcd(5, p-1) = 1` for this
//! `p`), 8 full + 57 partial rounds, a Cauchy MDS matrix, and round
//! constants derived from a SHA-256 counter PRG.
//!
//! Provides the 2-to-1 compression used by Merkle trees ([`hash2`]) and a
//! variable-length sponge ([`hash_many`]).
//!
//! # Sparse partial rounds
//!
//! [`permute`] evaluates the 57 partial rounds in the factorised form of
//! the Poseidon paper's optimised-implementation appendix (Grassi et al.,
//! "Poseidon: A New Hash Function for Zero-Knowledge Proof Systems",
//! USENIX Security 2021, Appendix B; the form production libraries use).
//! It is the same function as the textbook round
//! `state ← M·S(state + c_r)` (column vectors; `S` raises coordinate 0 to
//! the fifth power and fixes the others), rearranged so that no work is
//! spent on the two coordinates the S-box does not touch:
//!
//! * **Constants.** `S(x + c) = S(x + c₀e₀) + (0, c₁, c₂)`, so the part of
//!   a round constant that misses the S-box passes through it and through
//!   `M` linearly: carry `d_r = M·(0, ĉ_{r,1}, ĉ_{r,2})` into the next
//!   round's constant, `ĉ_{r+1} = c_{r+1} + d_r` with `ĉ_0 = c_0`. Round
//!   `r` then adds the single scalar `k_r = ĉ_{r,0}` to coordinate 0, and
//!   `d_56` is added once after the section (folded into the constant of
//!   the full round that follows).
//! * **Matrices.** Write a 3×3 matrix `N = [[n₀₀, v], [w, N̂]]` (`N̂` is
//!   2×2) as `N = N′·N″` with `N′ = diag(1, N̂)` and
//!   `N″ = [[n₀₀, v], [N̂⁻¹w, I]]`. `N′` fixes coordinate 0 and is linear
//!   on the rest, so it commutes with the next round's `S` and is absorbed
//!   into the next round's matrix: `N_0 = M`, `N_{r+1} = M·N_r′`. Round `r`
//!   applies only the sparse `N_r″`: `y₀ = n₀₀z₀ + v·z_rest` and
//!   `y_rest = z_rest + (N̂⁻¹w)·z₀`. After round 56 the outstanding
//!   `N_56′` is applied once (one 2×2 block).
//!
//! A partial round thus costs 3 (S-box) + 5 field products instead of
//! 3 + 9, and the permutation 8·18 + 57·8 + 4 = 604 instead of
//! 8·18 + 57·12 = 828, with a third fewer additions. Every `N̂_r` must be
//! invertible; parameter derivation asserts it (it is, for the Cauchy
//! matrix in use). The textbook permutation survives only under
//! `#[cfg(test)]`, as the oracle the optimised one is tested against.
//!
//! Every matrix row that is a dot product — the three MDS rows of a full
//! round, row 0 of a sparse round, the two rows of the tail block — goes
//! through [`Fp::sum_of_products`], which adds the wide products and
//! reduces once: the 604 products are followed by 8·12 + 57·6 + 2 = 440
//! modular reductions, not 604. Two of an S-box's three products are
//! squarings.
//!
//! The constraint model (`gadget_cost::POSEIDON_HASH2` in `zendoo-snark`)
//! counts S-boxes, which the factorisation does not change.

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

type Matrix = [[Fp; T]; T];

/// One partial round in sparse form (module docs): add `k` to coordinate
/// 0, S-box it, then apply `N″ = [row0, [u, I]]` with `row0 = (n00, v)`.
struct SparseRound {
    k: Fp,
    row0: [Fp; T],
    u: [Fp; 2],
}

struct Params {
    /// Constants of the full rounds before the partial section.
    head: [[Fp; T]; HALF_FULL],
    partial: Vec<SparseRound>,
    /// `N̂_56`: the block of `N_56′` outstanding after the last partial
    /// round.
    tail_block: [[Fp; 2]; 2],
    /// Constants of the full rounds after the partial section; the first
    /// carries `d_56`.
    tail: [[Fp; T]; HALF_FULL],
    mds: Matrix,
}

/// The textbook parameters: one constant triple per round from the PRG,
/// and the Cauchy MDS matrix `m[i][j] = 1 / (x_i + y_j)` with distinct
/// x, y rows.
fn dense_params() -> (Vec<[Fp; T]>, Matrix) {
    let mut prg = Prg::new("zendoo/poseidon-v1/round-constants");
    let rounds = FULL_ROUNDS + PARTIAL_ROUNDS;
    let mut round_constants = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut rc = [Fp::ZERO; T];
        for c in rc.iter_mut() {
            *c = Fp::from_be_bytes_reduced(&prg.next_bytes32());
        }
        round_constants.push(rc);
    }
    let xs = [Fp::from_u64(1), Fp::from_u64(2), Fp::from_u64(3)];
    let ys = [Fp::from_u64(4), Fp::from_u64(5), Fp::from_u64(6)];
    let mut mds = [[Fp::ZERO; T]; T];
    for (i, x) in xs.iter().enumerate() {
        for (j, y) in ys.iter().enumerate() {
            mds[i][j] = (*x + *y).invert().expect("x_i + y_j nonzero");
        }
    }
    (round_constants, mds)
}

fn params() -> &'static Params {
    static PARAMS: OnceLock<Params> = OnceLock::new();
    PARAMS.get_or_init(|| {
        let (rc, mds) = dense_params();
        let (head, rest) = rc.split_at(HALF_FULL);
        let (partial_rc, tail) = rest.split_at(PARTIAL_ROUNDS);

        let mut partial = Vec::with_capacity(PARTIAL_ROUNDS);
        // `n` = N_r, `carried` = d_{r-1}, `block` = N̂_{r-1}.
        let mut n = mds;
        let mut carried = [Fp::ZERO; T];
        let mut block = [[Fp::ZERO; 2]; 2];
        for rc in partial_rc {
            let k = rc[0] + carried[0];
            carried = [Fp::ZERO, rc[1] + carried[1], rc[2] + carried[2]];
            apply_mds(&mut carried, &mds);

            block = [[n[1][1], n[1][2]], [n[2][1], n[2][2]]];
            let [[a, b], [c, d]] = block;
            let det_inv = (a * d - b * c)
                .invert()
                .expect("the 2x2 block of every absorbed partial-round matrix is invertible");
            let w = [n[1][0], n[2][0]];
            partial.push(SparseRound {
                k,
                row0: n[0],
                u: [
                    (d * w[0] - b * w[1]) * det_inv,
                    (a * w[1] - c * w[0]) * det_inv,
                ],
            });
            // N_{r+1} = M · diag(1, N̂_r): column 0 of M is kept.
            n = mds;
            for (row, m) in n.iter_mut().zip(&mds) {
                row[1] = m[1] * a + m[2] * c;
                row[2] = m[1] * b + m[2] * d;
            }
        }
        let mut tail: [[Fp; T]; HALF_FULL] = tail.try_into().expect("FULL_ROUNDS / 2 rounds");
        for (t, d) in tail[0].iter_mut().zip(&carried) {
            *t += *d;
        }
        Params {
            head: head.try_into().expect("FULL_ROUNDS / 2 rounds"),
            partial,
            tail_block: block,
            tail,
            mds,
        }
    })
}

#[inline]
fn sbox(x: Fp) -> Fp {
    // x^5
    let x2 = x.square();
    x2.square() * x
}

fn apply_mds(state: &mut [Fp; T], mds: &Matrix) {
    *state = mds.map(|row| Fp::sum_of_products(&row, state));
}

fn full_round(state: &mut [Fp; T], rc: &[Fp; T], mds: &Matrix) {
    for (s, c) in state.iter_mut().zip(rc) {
        *s = sbox(*s + *c);
    }
    apply_mds(state, mds);
}

/// The Poseidon permutation over a width-3 state.
pub fn permute(state: &mut [Fp; T]) {
    crate::opcount::permutation();
    let p = params();
    for rc in &p.head {
        full_round(state, rc, &p.mds);
    }
    for r in &p.partial {
        let z0 = sbox(state[0] + r.k);
        let [_, z1, z2] = *state;
        *state = [
            Fp::sum_of_products(&r.row0, &[z0, z1, z2]),
            z1 + r.u[0] * z0,
            z2 + r.u[1] * z0,
        ];
    }
    let rest = [state[1], state[2]];
    state[1] = Fp::sum_of_products(&p.tail_block[0], &rest);
    state[2] = Fp::sum_of_products(&p.tail_block[1], &rest);
    for rc in &p.tail {
        full_round(state, rc, &p.mds);
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

    /// The textbook permutation (dense MDS in every round): the oracle
    /// the sparse form is tested against.
    fn permute_dense(state: &mut [Fp; T]) {
        let (rc, mds) = dense_params();
        for (round, rc) in rc.iter().enumerate() {
            if (HALF_FULL..HALF_FULL + PARTIAL_ROUNDS).contains(&round) {
                for (s, c) in state.iter_mut().zip(rc) {
                    *s += *c;
                }
                state[0] = sbox(state[0]);
                apply_mds(state, &mds);
            } else {
                full_round(state, rc, &mds);
            }
        }
    }

    fn p_minus_1() -> Fp {
        Fp::ZERO - Fp::one()
    }

    // Known answers generated at the commit before the permutation was
    // rewritten (dense rounds); a changed constant or a wrong
    // factorisation fails here.
    #[test]
    fn known_answer_permute() {
        let cases: [([Fp; T], [&str; T]); 3] = [
            (
                [Fp::ZERO; T],
                [
                    "e465e8d27b6e16f42f082226f957b9dddaba79b866a90252ed008fe12aa3d78d",
                    "2ca20468db278ede53af16e9c45bb5672b1bc19de95daf7b4f824c4a22dd919c",
                    "d3c4b9d41ff620028021335fe40c018cc579c904768c7ab4aa74ac138607c667",
                ],
            ),
            (
                [Fp::from_u64(1), Fp::from_u64(2), Fp::from_u64(3)],
                [
                    "bd455cb996538acccc75e1e4333ad3a4cebfc8ddad7562345ed11beb5d7b6b26",
                    "a844337a9aab8220727155d851135438179590eaf2f7bb08fac14659e4a126c3",
                    "eceef5a6135c1ddcbc5cb6b735dfa5b83c71fe97fb03c2aac4bb0fc7cc919e3b",
                ],
            ),
            (
                [p_minus_1(); T],
                [
                    "7809efa9b495f90ded559139af7220481dbf8f093de7470cea24a88ce8f48a57",
                    "9dea1965d48a36580ab3405e842c665642b1cbc779a023773bd78a835d44a565",
                    "abddacdb020e5b56fa39818c67d49a9faede36e12351704eee45cadcf95700b4",
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
            Fp::from_hex("4221091f226452d6587f20ed4bce3ca6c6bf6023b3e6c84885a305ee39f00ad0")
        );
        assert_eq!(
            hash2(&Fp::ZERO, &Fp::ZERO),
            Fp::from_hex("bb4757ae55b6bdac984cf17f45f77d2fa80c762316a149b0ec99b2aea51cddfd")
        );
        // hash_many over 1, 2, …, n.
        for (n, expected) in [
            (
                0u64,
                "68c794b7d18c10a1d11b507ebb4a70a03d82c847b4d6c2b36036b8713919a8ea",
            ),
            (
                1,
                "81a736c364435dc0285950112af8278db94f8c69820ed3bd48b8e48e7d5392ef",
            ),
            (
                2,
                "d7f14a434a650076bd5da275c8e791dd2f0e04b9d0b849d567b65afbd4ba791a",
            ),
            (
                3,
                "9e46a096a6343027c910d74537760718fb77345a32945f7eb1b7544e05e36c60",
            ),
            (
                5,
                "c15884a8e5f62a9e0956c5bb978e806f22272d082d1dbbaf5f3743643cff791a",
            ),
        ] {
            let xs: Vec<Fp> = (1..=n).map(Fp::from_u64).collect();
            assert_eq!(hash_many(&xs), Fp::from_hex(expected), "{n} inputs");
        }
        assert_eq!(
            hash_bytes("kat", b"zendoo"),
            Fp::from_hex("dea3975b6d261014a112ec1585193c5cbfb384c9f491344d1e29e5e245d6668a")
        );
    }

    #[test]
    fn sparse_matches_dense_on_edge_states() {
        let (zero, top) = (Fp::ZERO, p_minus_1());
        for state in [[zero; T], [top; T], [zero, top, zero], [top, zero, top]] {
            let (mut sparse, mut dense) = (state, state);
            permute(&mut sparse);
            permute_dense(&mut dense);
            assert_eq!(sparse, dense);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_sparse_matches_dense(
            a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()
        ) {
            let state = [a, b, c].map(|x| Fp::from_be_bytes_reduced(&x));
            let (mut sparse, mut dense) = (state, state);
            permute(&mut sparse);
            permute_dense(&mut dense);
            prop_assert_eq!(sparse, dense);
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
