//! Secondary indexes over the persistent UTXO store.
//!
//! The [`Indexer`] consumes the [`crate::AppliedDelta`]s the store
//! emits as it tails mainchain blocks, and maintains what queries need
//! in O(1)/O(log n) instead of scanning the set:
//!
//! - **balances** — per-address sums of regular (non-escrow) outputs;
//! - **pending inbound** — per-destination-sidechain escrow outputs
//!   awaiting settlement, keyed by nullifier, each mirrored as a leaf
//!   of that sidechain's incremental sparse Merkle tree (so a
//!   sidechain can be handed a succinct commitment to everything
//!   headed its way);
//! - **receipts** — terminal cross-chain transfer outcomes ingested
//!   from the router's receipt stream, by nullifier.
//!
//! Receipts live with the router, not the journal; after a restart the
//! indexer's chain-derived indexes rebuild from the store
//! ([`Indexer::from_store`]) and receipts re-ingest from the router's
//! log.

use std::collections::BTreeMap;

use zendoo_core::crosschain::CrossChainReceipt;
use zendoo_core::ids::{Address, Amount, EpochId, Nullifier, SidechainId};
use zendoo_mainchain::transaction::OutputKind;
use zendoo_mainchain::OutPoint;
use zendoo_primitives::field::Fp;
use zendoo_primitives::smt::SparseMerkleTree;
use zendoo_telemetry::Telemetry;

use crate::store::{AppliedDelta, UtxoStore};

/// Depth of each per-sidechain inbound tree: 2^48 slots keeps the
/// birthday-collision probability negligible at 10^5 pending transfers.
/// Depth is free: an insert touches the ≈ log₂ n levels the pending
/// transfers share, not 48.
const INBOUND_TREE_DEPTH: u32 = 48;

/// One escrowed transfer waiting to enter its destination sidechain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingInbound {
    /// The escrow UTXO holding the value.
    pub outpoint: OutPoint,
    /// The paying sidechain.
    pub source: SidechainId,
    /// The source certificate's withdrawal epoch.
    pub epoch: EpochId,
    /// The destination sidechain.
    pub dest: SidechainId,
    /// Refund address if delivery becomes impossible.
    pub payback: Address,
    /// The transfer's one-shot identifier.
    pub nullifier: Nullifier,
    /// Escrowed value.
    pub amount: Amount,
    /// The slot this transfer occupies in its destination's inbound
    /// tree (needed to clear the leaf on settlement).
    pub leaf_index: u64,
}

/// Chain-derived secondary indexes. See the module docs.
pub struct Indexer {
    balances: BTreeMap<Address, Amount>,
    pending: BTreeMap<SidechainId, BTreeMap<Nullifier, PendingInbound>>,
    trees: BTreeMap<SidechainId, SparseMerkleTree>,
    receipts: BTreeMap<Nullifier, CrossChainReceipt>,
    telemetry: Telemetry,
}

impl Indexer {
    /// An empty indexer.
    pub fn new(telemetry: Telemetry) -> Self {
        Indexer {
            balances: BTreeMap::new(),
            pending: BTreeMap::new(),
            trees: BTreeMap::new(),
            receipts: BTreeMap::new(),
            telemetry,
        }
    }

    /// Cold-start: rebuilds every chain-derived index by scanning the
    /// (already replayed) store. Records an `indexer.coldstart` span.
    pub fn from_store(store: &UtxoStore, telemetry: Telemetry) -> Self {
        let mut indexer = Indexer::new(telemetry.clone());
        let seed = AppliedDelta {
            added: store.iter().map(|(op, out)| (*op, *out)).collect(),
            removed: Vec::new(),
        };
        let (_, _nanos) = telemetry.time("indexer.coldstart", || indexer.apply(&seed));
        indexer
    }

    /// Applies one store delta. Records an `indexer.sync` span.
    pub fn apply(&mut self, delta: &AppliedDelta) {
        let balances = &mut self.balances;
        let pending = &mut self.pending;
        let trees = &mut self.trees;
        let telemetry = &self.telemetry;
        telemetry.time("indexer.sync", || {
            for (outpoint, out) in &delta.removed {
                match out.kind {
                    OutputKind::Regular => {
                        debit(balances, &out.address, out.amount);
                    }
                    OutputKind::Escrow(tag) => {
                        let by_nullifier = pending.get_mut(&tag.dest);
                        let entry = by_nullifier.and_then(|map| map.remove(&tag.nullifier));
                        debug_assert!(entry.is_some(), "settled escrow was never indexed");
                        if let Some(entry) = entry {
                            debug_assert_eq!(entry.outpoint, *outpoint);
                            let tree = trees.get_mut(&tag.dest).expect("tree exists with entry");
                            tree.remove(entry.leaf_index)
                                .expect("leaf set when entry was indexed");
                        }
                    }
                }
            }
            for (outpoint, out) in &delta.added {
                match out.kind {
                    OutputKind::Regular => {
                        credit(balances, &out.address, out.amount);
                    }
                    OutputKind::Escrow(tag) => {
                        let tree = trees
                            .entry(tag.dest)
                            .or_insert_with(|| SparseMerkleTree::new(INBOUND_TREE_DEPTH));
                        let (leaf_index, leaf) = inbound_leaf(tree, &tag.nullifier);
                        tree.insert(leaf_index, leaf)
                            .expect("probed slot was empty");
                        let entry = PendingInbound {
                            outpoint: *outpoint,
                            source: tag.source,
                            epoch: tag.epoch,
                            dest: tag.dest,
                            payback: tag.payback,
                            nullifier: tag.nullifier,
                            amount: out.amount,
                            leaf_index,
                        };
                        let previous = pending
                            .entry(tag.dest)
                            .or_default()
                            .insert(tag.nullifier, entry);
                        debug_assert!(previous.is_none(), "nullifier escrowed twice");
                    }
                }
            }
        });
    }

    /// Ingests terminal transfer outcomes from the router's receipt
    /// stream (pass the slice a cursor-tracked
    /// `CrossChainRouter::receipts_since` returned).
    pub fn ingest_receipts(&mut self, receipts: &[CrossChainReceipt]) {
        for receipt in receipts {
            self.receipts
                .insert(receipt.transfer.nullifier, receipt.clone());
        }
    }

    /// Balance of `address` (regular outputs only). Records an
    /// `indexer.query.balance` span.
    pub fn balance(&self, address: &Address) -> Amount {
        let balances = &self.balances;
        let (amount, _nanos) = self.telemetry.time("indexer.query.balance", || {
            balances.get(address).copied().unwrap_or(Amount::ZERO)
        });
        amount
    }

    /// Number of addresses holding a non-zero balance.
    pub fn funded_addresses(&self) -> usize {
        self.balances.len()
    }

    /// The transfers currently escrowed toward `dest`, in nullifier
    /// order. Records an `indexer.query.pending` span.
    pub fn pending_inbound(&self, dest: &SidechainId) -> Vec<PendingInbound> {
        let pending = &self.pending;
        let (list, _nanos) = self.telemetry.time("indexer.query.pending", || {
            pending
                .get(dest)
                .map(|map| map.values().copied().collect())
                .unwrap_or_default()
        });
        list
    }

    /// One pending inbound transfer by destination and nullifier.
    /// Records an `indexer.query.pending` span.
    pub fn pending_inbound_for(
        &self,
        dest: &SidechainId,
        nullifier: &Nullifier,
    ) -> Option<PendingInbound> {
        let pending = &self.pending;
        let (found, _nanos) = self.telemetry.time("indexer.query.pending", || {
            pending
                .get(dest)
                .and_then(|map| map.get(nullifier))
                .copied()
        });
        found
    }

    /// Total pending inbound transfers across all destinations.
    pub fn pending_total(&self) -> usize {
        self.pending.values().map(BTreeMap::len).sum()
    }

    /// Root of `dest`'s incremental inbound tree — a succinct
    /// commitment to every transfer currently headed its way. `None`
    /// until the first escrow toward `dest` is observed.
    pub fn inbound_root(&self, dest: &SidechainId) -> Option<Fp> {
        self.trees.get(dest).map(SparseMerkleTree::root)
    }

    /// The terminal outcome of a transfer, by nullifier. Records an
    /// `indexer.query.receipt` span.
    pub fn receipt_for(&self, nullifier: &Nullifier) -> Option<&CrossChainReceipt> {
        let receipts = &self.receipts;
        let (found, _nanos) = self
            .telemetry
            .time("indexer.query.receipt", || receipts.get(nullifier));
        found
    }
}

fn credit(balances: &mut BTreeMap<Address, Amount>, address: &Address, amount: Amount) {
    let entry = balances.entry(*address).or_insert(Amount::ZERO);
    *entry = entry.checked_add(amount).expect("chain-invariant sum");
}

fn debit(balances: &mut BTreeMap<Address, Amount>, address: &Address, amount: Amount) {
    let Some(entry) = balances.get_mut(address) else {
        debug_assert!(false, "debit of an unindexed address");
        return;
    };
    *entry = entry.checked_sub(amount).unwrap_or_else(|| {
        debug_assert!(false, "balance underflow: spent more than indexed");
        Amount::ZERO
    });
    if entry.is_zero() {
        balances.remove(address);
    }
}

/// Deterministic tree slot + leaf for a nullifier: the slot is the
/// nullifier's leading 64 bits reduced to the tree's capacity, probed
/// linearly past occupied slots (collisions are resolved identically
/// on every node, so roots stay comparable); the leaf is the
/// Poseidon-field reduction of the nullifier digest, never the empty
/// sentinel.
fn inbound_leaf(tree: &SparseMerkleTree, nullifier: &Nullifier) -> (u64, Fp) {
    let bytes = nullifier.0 .0;
    let wide = u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes"));
    let capacity = tree.capacity();
    let mut index = wide % capacity;
    while tree.is_occupied(index) {
        index = (index + 1) % capacity;
    }
    (index, Fp::from_be_bytes_reduced(&bytes))
}
