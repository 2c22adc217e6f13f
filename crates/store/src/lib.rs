//! Persistent UTXO storage and chain indexing for the Zendoo
//! mainchain.
//!
//! Two layers:
//!
//! - [`UtxoStore`] — a durable mirror of the active chain's UTXO set,
//!   backed by an append-only [`Journal`]. Every
//!   [`zendoo_mainchain::ChainEvent`] (connect or disconnect, drained
//!   from [`zendoo_mainchain::Blockchain::drain_events`]) is written as
//!   one checksummed journal record *before* it is applied in memory;
//!   [`UtxoStore::commit`] fsyncs the file, making everything up to the
//!   last committed block durable. Reopening the same directory replays
//!   the journal — a torn or corrupt tail (a crash mid-write) is
//!   detected by checksum and discarded, so recovery always lands on
//!   the last committed block, bit-identical to the in-memory state
//!   that produced it ([`UtxoStore::matches`] checks that entry for
//!   entry; [`UtxoStore::state_digest`] / [`chain_state_digest`] hash
//!   it).
//!
//! - [`Indexer`] — secondary indexes derived from the store's applied
//!   deltas (after a restart, from one scan of the store): per-address
//!   balances, per-sidechain **pending inbound** transfers (escrow-kind
//!   UTXOs awaiting settlement, keyed by nullifier) with an incremental
//!   sparse Merkle tree per sidechain.
//!
//! Modules: [`journal`] (the checksum-framed record file), [`store`]
//! (the mirror and its replay; records are read back with the types'
//! own `Decode`, beside their `Encode`) and [`indexer`].
//!
//! The journal reuses the shape of the chain's own
//! [`zendoo_mainchain::BlockUndo`] op-log: connect records carry the
//! block's net created/spent outputs (with spent values retained), so
//! every record is invertible and replay needs no external context.
//!
//! Telemetry: `store.append`, `store.commit`, `store.replay` and
//! `store.verify` spans and `store.records_replayed` /
//! `store.torn_bytes_discarded` counters on the store;
//! `indexer.coldstart`, `indexer.sync` and `indexer.query.*` spans on
//! the indexer.

#![forbid(unsafe_code)]

pub mod indexer;
pub mod journal;
pub mod store;

pub use indexer::{Indexer, PendingInbound};
pub use journal::{Journal, JournalStats};
pub use store::{chain_state_digest, AppliedDelta, StoreError, UtxoStore};
