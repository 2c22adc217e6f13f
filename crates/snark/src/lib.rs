//! # zendoo-snark
//!
//! The SNARK proving system of the Zendoo reproduction (paper Defs 2.3 and
//! 2.5): a circuit abstraction ([`circuit`]), a `Setup`/`Prove`/`Verify`
//! backend with constant-size publicly verifiable proofs ([`backend`]),
//! unified public inputs ([`inputs`]) and recursive Base/Merge composition
//! for state-transition systems ([`recursive`]), proven a tree layer at
//! a time with the embedded checks of each layer discharged as one batch
//! equation ([`deferred`], [`backend::prove_layer`]).
//!
//! ## Substitution notice
//!
//! The backend simulates a zk-SNARK soundly *in the trusted-setup model*:
//! `Prove` evaluates the real constraint system and refuses false
//! statements; proofs are 65-byte attestations under a per-circuit setup
//! key. See the substitution model in [`backend`] for why this preserves
//! every property the protocol relies on (completeness, model soundness,
//! succinctness, and the unified verifier interface). The zero-knowledge property is not
//! exercised by any experiment in the paper and is not claimed here.
//!
//! # Examples
//!
//! ```
//! use zendoo_snark::backend::{setup_deterministic, prove, verify};
//! use zendoo_snark::circuit::{Circuit, Unsatisfied};
//! use zendoo_snark::inputs::PublicInputs;
//! use zendoo_primitives::{digest::Digest32, field::Fp};
//!
//! /// Proves knowledge of a factorization of the public input.
//! struct Factors;
//! impl Circuit for Factors {
//!     type Witness = (Fp, Fp);
//!     fn id(&self) -> Digest32 { Digest32::hash_bytes(b"doc/factors") }
//!     fn check(&self, p: &PublicInputs, w: &(Fp, Fp)) -> Result<(), Unsatisfied> {
//!         (p.get(0) == Some(w.0 * w.1))
//!             .then_some(())
//!             .ok_or_else(|| Unsatisfied::new("mul", "w0*w1 != x"))
//!     }
//! }
//!
//! let (pk, vk) = setup_deterministic(&Factors, b"doc");
//! let mut public = PublicInputs::new();
//! public.push_fp(Fp::from_u64(15));
//! let proof = prove(&pk, &Factors, &public, &(Fp::from_u64(3), Fp::from_u64(5))).unwrap();
//! assert!(verify(&vk, &public, &proof));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod backend;
pub mod batch;
pub mod circuit;
pub mod deferred;
pub mod inputs;
pub mod recursive;

pub use aggregate::{AggDigest, AggKind, AggregateProof, AggregationSystem, BlockProof};
pub use backend::{
    prove, prove_layer, setup, setup_deterministic, verify, Proof, ProvingKey, VerifyingKey,
};
pub use batch::{verify_batch, BatchItem};
pub use circuit::{Circuit, Unsatisfied};
pub use deferred::Deferred;
pub use inputs::PublicInputs;
pub use recursive::{ProofKind, RecursiveSystem, StateProof, TransitionVerifier};
