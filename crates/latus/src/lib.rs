//! # zendoo-latus
//!
//! The **Latus** sidechain construction (paper §5): a decentralized,
//! verifiable, proof-of-stake sidechain built on the Zendoo CCTP whose
//! withdrawal certificates carry recursive SNARK proofs of the entire
//! epoch's state progression:
//!
//! * [`mst`] — the Merkle State Tree (UTXO accounting, §5.2, Fig 9) and
//!   `mst_delta` (Appendix A);
//! * [`state`] — the system state and its digest/accumulators (§5.2.1);
//! * [`tx`] — the four transaction types with `update` semantics and
//!   circuit witnesses (§5.3);
//! * [`proof`] — the state-transition relation + recursive epoch proofs
//!   (§5.4, Figs 10–11);
//! * [`block`] — SC blocks and mainchain block references (§5.5.1);
//! * [`consensus`] — Ouroboros-style slot leadership with stake-
//!   proportional VRF lotteries (§5.1);
//! * [`cert`] — the certificate / BTR / CSW circuits (§5.5.3);
//! * [`node`] — the full node: forging, syncing, certificate production
//!   and user proof services;
//! * [`certifier`] — the certifier-committee baseline of the authors'
//!   earlier design, both native and as a CCTP circuit;
//! * [`params`] — deployment parameters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod cert;
pub mod certifier;
pub mod consensus;
pub mod mst;
pub mod node;
pub mod params;
pub mod proof;
pub mod state;
pub mod tx;
pub mod wallet;

pub use block::{McBlockReference, ScBlock, ScBlockHeader};
pub use mst::{Mst, MstDelta, Utxo};
pub use node::{LatusKeys, LatusNode};
pub use params::LatusParams;
pub use proof::{EpochProofBuilder, LatusProofSystem, LatusTransitionVerifier};
pub use state::SidechainState;
pub use tx::{PaymentTx, ScTransaction};
pub use wallet::ScWallet;
