//! # zendoo-primitives
//!
//! Cryptographic substrate for the Zendoo reproduction, implemented from
//! scratch on top of the standard library:
//!
//! * [`bigint`] — fixed-width 256-bit integers;
//! * [`field`] — prime fields modulo `2^256 − C` (secp256k1 base & scalar);
//! * [`curve`] — secp256k1 group arithmetic with compression and
//!   hash-to-curve;
//! * [`schnorr`] — Schnorr signatures (transaction authorization and the
//!   attestation primitive of the simulated SNARK);
//! * [`vrf`] — an ECVRF used for Ouroboros-style slot-leader selection;
//! * [`sha256`] — FIPS 180-4 SHA-256, double-SHA-256 and a counter PRG;
//! * [`poseidon`] — the SNARK-friendly algebraic hash (paper §5.4);
//! * [`merkle`] — Merkle hash trees and proofs (paper Definition 2.2);
//! * [`smt`] — the fixed-depth sparse Merkle tree behind the Latus MST;
//! * [`digest`] / [`encode`] — canonical ids and deterministic encoding;
//! * [`opcount`] — per-thread counts of permutations, group
//!   multiplications and SHA-256 compressions, for claims on cost shape.
//!
//! # Examples
//!
//! ```
//! use zendoo_primitives::{schnorr::Keypair, sha256::sha256};
//!
//! let kp = Keypair::from_seed(b"alice");
//! let msg = sha256(b"pay 5 coins to bob");
//! let sig = kp.secret.sign("example", &msg);
//! assert!(kp.public.verify("example", &msg, &sig));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bigint;
pub mod curve;
pub mod digest;
pub mod encode;
pub mod field;
pub mod merkle;
pub mod opcount;
pub mod poseidon;
pub mod schnorr;
pub mod sha256;
pub mod smt;
pub mod vrf;

pub use digest::Digest32;
pub use encode::Encode;
pub use field::{Fp, Fr};

/// Lower-case hex of `bytes`, for the known-answer tests.
#[cfg(test)]
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
