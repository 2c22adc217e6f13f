//! # zendoo
//!
//! A from-scratch Rust reproduction of **"Zendoo: a zk-SNARK Verifiable
//! Cross-Chain Transfer Protocol Enabling Decoupled and Decentralized
//! Sidechains"** (Garoffolo, Kaidalov, Oliynykov — ICDCS 2020).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`primitives`] — SHA-256, secp256k1, Schnorr, ECVRF, Poseidon,
//!   Merkle trees (all implemented in-repo);
//! * [`snark`] — the simulated-but-sound SNARK proving system with
//!   recursive Base/Merge composition (paper Defs 2.3/2.5);
//! * [`core`] — the cross-chain transfer protocol (§4): transfers,
//!   certificates, BTR/CSW, commitment trees, epoch schedules;
//! * [`mainchain`] — the Bitcoin-backbone UTXO mainchain with the CCTP
//!   state machine (safeguard, ceasing, nullifiers, reorgs);
//! * [`latus`] — the Latus verifiable sidechain (§5): PoS consensus
//!   bound to the mainchain, MST accounting, recursive epoch proofs,
//!   certificate/BTR/CSW circuits;
//! * [`crosschain`] — sidechain→sidechain transfers routed through the
//!   mainchain (escrowed certificate declarations, settled as the chain
//!   state calls for);
//! * [`sim`] — the deterministic multi-sidechain scenario simulator;
//! * [`telemetry`] — the zero-dependency observability layer (spans,
//!   counters, histograms) instrumenting the pipeline, settlement and
//!   the simulator (see `docs/OBSERVABILITY.md`).
//!
//! # Examples
//!
//! Run the bundled examples:
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --example cross_chain_lifecycle
//! cargo run --example cross_sidechain_swap
//! cargo run --example ceased_sidechain
//! cargo run --example data_availability_attack
//! cargo run --example latus_consensus
//! cargo run --example obs_report
//! ```
//!
//! Quick taste (a one-epoch world):
//!
//! ```
//! use zendoo::sim::{SimConfig, World};
//!
//! let mut world = World::new(SimConfig::default());
//! let sc = world.sidechain_ids()[0];
//! world.queue_forward_transfer_on(&sc, "alice", 1_000).unwrap();
//! world.run_epochs(1).unwrap();
//! assert!(world.conservation_holds());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use zendoo_core as core;
pub use zendoo_crosschain as crosschain;
pub use zendoo_latus as latus;
pub use zendoo_mainchain as mainchain;
pub use zendoo_primitives as primitives;
pub use zendoo_sim as sim;
pub use zendoo_snark as snark;
pub use zendoo_store as store;
pub use zendoo_telemetry as telemetry;
