//! # zendoo-mainchain
//!
//! A Bitcoin-backbone-style UTXO mainchain (paper Def 3.1) carrying the
//! full Zendoo CCTP:
//!
//! * [`transaction`] — multi-input/output transfers with forward-transfer
//!   outputs, sidechain declarations, certificates, BTRs and CSWs;
//! * [`block`] — headers with the `scTxsCommitment` field (§4.1.3);
//! * [`pow`] — proof-of-work targets, work accounting and mining;
//! * [`chain`] — block tree, cumulative-work fork choice, reorgs with
//!   exact state rollback, validation and block building;
//! * [`registry`] — the sidechain registry: safeguard balances,
//!   certificate quality/maturity, ceasing, nullifiers;
//! * [`utxo`] — the unspent output set;
//! * [`wallet`] / [`mempool`] — client-side conveniences.
//!
//! # Examples
//!
//! ```
//! use zendoo_mainchain::chain::{Blockchain, ChainParams};
//! use zendoo_mainchain::wallet::Wallet;
//! use zendoo_mainchain::transaction::TxOut;
//! use zendoo_core::ids::Amount;
//!
//! let miner = Wallet::from_seed(b"miner");
//! let mut params = ChainParams::default();
//! params.genesis_outputs = vec![TxOut::regular(miner.address(), Amount::from_units(1_000))];
//! let mut chain = Blockchain::new(params);
//! assert_eq!(miner.balance(&chain), Amount::from_units(1_000));
//! chain.mine_next_block(miner.address(), vec![], 1).unwrap();
//! assert_eq!(chain.height(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod chain;
pub mod mempool;
pub mod miner;
pub mod pipeline;
pub mod pow;
pub mod registry;
pub mod sigbatch;
pub mod transaction;
pub mod utxo;
pub mod wallet;

pub use block::{Block, BlockHeader};
pub use chain::{
    BlockCandidates, BlockError, Blockchain, ChainEvent, ChainParams, ChainState, PreparedBlock,
    SubmitOutcome,
};
pub use mempool::{Mempool, MempoolConfig};
pub use miner::Miner;
pub use pipeline::{BlockUndo, ProofVerdicts};
pub use registry::{SidechainRegistry, SidechainStatus};
pub use transaction::{McTransaction, OutPoint, Output, TransferTx, TxOut};
pub use wallet::Wallet;
