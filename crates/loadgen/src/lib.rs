//! # zendoo-loadgen
//!
//! Deterministic load generation for the Zendoo mainchain admission
//! path: populations of up to 10⁶ real keyed users (each a funded
//! [`zendoo_mainchain::wallet::Wallet`]), activity distributions from
//! uniform to zipf, and adversarial traffic shapes (flash crowds of
//! surge-fee bidders, bridge-draining forward-transfer rushes across
//! dozens of sidechains).
//!
//! The generator emits *real* signed transactions that hold up under
//! the full admission pipeline — stage-1 precheck, UTXO resolution,
//! batched signature verification, fee-prioritized pooling — whether
//! driven standalone against a [`zendoo_mainchain::chain::Blockchain`]
//! or through the sim `World`'s `admit_mc_batch`. Everything is a pure
//! function of the seed: two generators with the same config, shape
//! and settle history emit byte-identical traffic, which is what lets
//! the sim's determinism tests compare worker counts
//! (`SimConfig::workers`) under load.
//!
//! ```
//! use zendoo_loadgen::{LoadConfig, LoadGen, Population, Shape};
//! use zendoo_mainchain::chain::{Blockchain, ChainParams};
//!
//! let config = LoadConfig { users: 200, ..LoadConfig::default() };
//! let mut population = Population::generate(&config);
//! let chain = Blockchain::new(ChainParams {
//!     genesis_outputs: population.genesis_outputs(),
//!     ..ChainParams::default()
//! });
//! population.bind_genesis(&chain, 0);
//!
//! let mut gen = LoadGen::new(population, Shape::Zipf { exponent: 1.0 }, &config);
//! let batch = gen.next_batch(100);
//! assert_eq!(batch.len(), 100);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod population;
pub mod traffic;

pub use population::{LoadConfig, Population};
pub use traffic::{LoadGen, Shape};
