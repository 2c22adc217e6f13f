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
//!   headed its way).
//!
//! After a restart every index rebuilds from the store
//! ([`Indexer::from_store`]).

use std::collections::BTreeMap;

use zendoo_core::escrow::EscrowTag;
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
    telemetry: Telemetry,
}

impl Indexer {
    /// An empty indexer.
    pub fn new(telemetry: Telemetry) -> Self {
        Indexer {
            balances: BTreeMap::new(),
            pending: BTreeMap::new(),
            trees: BTreeMap::new(),
            telemetry,
        }
    }

    /// Cold-start: rebuilds every chain-derived index in one scan of
    /// each of the (already replayed) store's two maps, copying neither.
    /// The result is the indexer that [`Indexer::apply`] of the whole
    /// store as one delta would build: regular outputs' balances are
    /// summed in one sorted pass and bulk-built, and escrows, in
    /// outpoint order, take the same slots and the same per-destination
    /// write. Records an `indexer.coldstart` span.
    pub fn from_store(store: &UtxoStore, telemetry: Telemetry) -> Self {
        let mut indexer = Indexer::new(telemetry.clone());
        let (_, _nanos) = telemetry.time("indexer.coldstart", || {
            let mut planned = BTreeMap::new();
            for (outpoint, out) in store.escrows() {
                let tag = out.escrow_tag().expect("the escrow map holds escrows only");
                plan_escrow(
                    &mut indexer.pending,
                    &mut indexer.trees,
                    &mut planned,
                    *outpoint,
                    out.amount,
                    tag,
                );
            }
            write_planned(&mut indexer.trees, planned);
            let mut regular: Vec<(u64, &Address, Amount)> = store
                .regular()
                .values()
                .map(|(address, amount)| (leading_word(address), address, *amount))
                .collect();
            // Address order by leading word. Two addresses that share
            // one (hashes, so about never) meet somewhere in their run
            // of equal words; then the run order is redone by whole
            // addresses.
            regular.sort_unstable_by_key(|(word, _, _)| *word);
            if regular
                .windows(2)
                .any(|pair| pair[0].0 == pair[1].0 && pair[0].1 != pair[1].1)
            {
                regular.sort_unstable_by_key(|(_, address, _)| *address);
            }
            let mut balances: Vec<(Address, Amount)> = Vec::new();
            for (_, address, amount) in regular {
                match balances.last_mut() {
                    Some((last, sum)) if last == address => {
                        *sum = sum.checked_add(amount).expect("chain-invariant sum");
                    }
                    _ => balances.push((*address, amount)),
                }
            }
            indexer.balances = balances.into_iter().collect();
        });
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
            let mut planned = BTreeMap::new();
            for (outpoint, out) in &delta.added {
                match out.kind {
                    OutputKind::Regular => {
                        credit(balances, &out.address, out.amount);
                    }
                    OutputKind::Escrow(tag) => {
                        plan_escrow(pending, trees, &mut planned, *outpoint, out.amount, &tag);
                    }
                }
            }
            write_planned(trees, planned);
        });
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
}

/// Each destination's new escrows, slot by slot, before the write.
type Planned = BTreeMap<SidechainId, BTreeMap<u64, Fp>>;

/// Indexes one new escrow as pending and plans its leaf: the slot is
/// probed against its destination's tree and the slots already planned,
/// so escrows planned in order take the slots one insertion at a time
/// would give them.
fn plan_escrow(
    pending: &mut BTreeMap<SidechainId, BTreeMap<Nullifier, PendingInbound>>,
    trees: &mut BTreeMap<SidechainId, SparseMerkleTree>,
    planned: &mut Planned,
    outpoint: OutPoint,
    amount: Amount,
    tag: &EscrowTag,
) {
    let tree = trees
        .entry(tag.dest)
        .or_insert_with(|| SparseMerkleTree::new(INBOUND_TREE_DEPTH));
    let slots = planned.entry(tag.dest).or_default();
    let (leaf_index, leaf) = inbound_leaf(tree, slots, &tag.nullifier);
    slots.insert(leaf_index, leaf);
    let entry = PendingInbound {
        outpoint,
        source: tag.source,
        epoch: tag.epoch,
        dest: tag.dest,
        payback: tag.payback,
        nullifier: tag.nullifier,
        amount,
        leaf_index,
    };
    let previous = pending
        .entry(tag.dest)
        .or_default()
        .insert(tag.nullifier, entry);
    debug_assert!(previous.is_none(), "nullifier escrowed twice");
}

/// Writes each destination's planned leaves in one `insert_many`.
fn write_planned(trees: &mut BTreeMap<SidechainId, SparseMerkleTree>, planned: Planned) {
    for (dest, slots) in planned {
        let leaves = slots.into_iter().map(|(index, leaf)| (index, leaf, ()));
        trees
            .get_mut(&dest)
            .expect("tree created when its first slot was planned")
            .insert_many(leaves.collect())
            .expect("probed slots were empty");
    }
}

/// An address's first eight bytes, read big-endian: ordering by it
/// agrees with address order wherever it does not tie.
fn leading_word(address: &Address) -> u64 {
    u64::from_be_bytes(address.0 .0[..8].try_into().expect("8 bytes"))
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
/// linearly past slots occupied in `tree` or already `planned` for it
/// (collisions are resolved identically on every node, so roots stay
/// comparable); the leaf is the Poseidon-field reduction of the
/// nullifier digest, never the empty sentinel.
fn inbound_leaf(
    tree: &SparseMerkleTree,
    planned: &BTreeMap<u64, Fp>,
    nullifier: &Nullifier,
) -> (u64, Fp) {
    let bytes = nullifier.0 .0;
    let wide = u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes"));
    let capacity = tree.capacity();
    let mut index = wide % capacity;
    while tree.is_occupied(index) || planned.contains_key(&index) {
        index = (index + 1) % capacity;
    }
    (index, Fp::from_be_bytes_reduced(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_core::escrow::EscrowTag;
    use zendoo_mainchain::transaction::TxOut;
    use zendoo_primitives::digest::Digest32;

    /// Escrow `n` toward `dest`; escrows with one `prefix` start on one
    /// slot and are probed apart.
    fn escrow(n: u8, dest: SidechainId, prefix: u8) -> (OutPoint, TxOut) {
        let mut nullifier = Digest32::hash_bytes(&[n]);
        nullifier.0[..8].copy_from_slice(&[prefix; 8]);
        let tag = EscrowTag {
            source: SidechainId::from_label("source"),
            epoch: 0,
            dest,
            payback: Address::from_label("payback"),
            nullifier: Nullifier(nullifier),
        };
        let outpoint = OutPoint {
            txid: Digest32::hash_bytes(b"escrows"),
            index: u32::from(n),
        };
        let out = TxOut {
            address: Address::from_label("escrow"),
            amount: Amount::from_units(u64::from(n) + 1),
            kind: OutputKind::Escrow(tag),
        };
        (outpoint, out)
    }

    /// `from_store`'s definition: an empty indexer that applies the
    /// whole store as one delta.
    fn applied_whole(store: &UtxoStore) -> Indexer {
        let mut indexer = Indexer::new(Telemetry::disabled());
        indexer.apply(&AppliedDelta {
            added: store.iter().map(|(op, out)| (*op, out)).collect(),
            removed: Vec::new(),
        });
        indexer
    }

    /// A store holding `outputs`, created by one connected block.
    fn store_of(dir: &std::path::Path, outputs: Vec<(OutPoint, TxOut)>) -> UtxoStore {
        use zendoo_mainchain::chain::{Blockchain, ChainParams};
        use zendoo_mainchain::ChainEvent;
        let mut store = UtxoStore::open(dir, Telemetry::disabled()).unwrap();
        store
            .bootstrap(&Blockchain::new(ChainParams::default()))
            .unwrap();
        let block = ChainEvent::Connected {
            hash: Digest32::hash_bytes(b"block"),
            height: 1,
            created: outputs,
            spent: Vec::new(),
        };
        store.apply_event(&block).unwrap();
        store
    }

    /// Random stores — few addresses, so balances sum many outputs, and
    /// in every other case three addresses that share their leading
    /// word, so the balance sort meets its tie; zero amounts; escrows to
    /// several destinations whose nullifiers share leading bytes, so
    /// slots collide and are probed apart — index alike both ways:
    /// balances, pending maps, every root.
    #[test]
    fn from_store_equals_applying_the_whole_store_as_one_delta() {
        use zendoo_primitives::sha256::Prg;
        let dir = {
            let mut dir = std::env::temp_dir();
            dir.push(format!("zendoo-indexer-{}-equivalence", std::process::id()));
            dir
        };
        let dests: Vec<SidechainId> = (0..4)
            .map(|i| SidechainId::from_label(&format!("dest-{i}")))
            .collect();
        let (mut zeros, mut probed) = (0, 0);
        for case in 0..24u64 {
            let _ = std::fs::remove_dir_all(&dir);
            let mut prg = Prg::new(&format!("indexer-equivalence-{case}"));
            let size = prg.next_u64() % 400;
            let outputs = (0..size)
                .map(|i| {
                    let outpoint = OutPoint {
                        txid: Digest32::hash_bytes(&i.to_be_bytes()),
                        index: (prg.next_u64() % 4) as u32,
                    };
                    let amount = Amount::from_units(match prg.next_u64() % 4 {
                        0 => 0,
                        _ => prg.next_u64() % 1_000,
                    });
                    let kind = if prg.next_u64().is_multiple_of(3) {
                        let mut nullifier = Digest32::hash_bytes(&i.to_le_bytes());
                        nullifier.0[..8].copy_from_slice(&(prg.next_u64() % 8).to_be_bytes());
                        OutputKind::Escrow(EscrowTag {
                            source: SidechainId::from_label("source"),
                            epoch: (prg.next_u64() % 3) as u32,
                            dest: dests[(prg.next_u64() % 4) as usize],
                            payback: Address::from_label("payback"),
                            nullifier: Nullifier(nullifier),
                        })
                    } else {
                        OutputKind::Regular
                    };
                    let holder = prg.next_u64() % 9;
                    let mut address = Address::from_label(&format!("holder-{holder}"));
                    if case % 2 == 0 && holder < 3 {
                        address.0 .0[..8].fill(0);
                    }
                    (
                        outpoint,
                        TxOut {
                            address,
                            amount,
                            kind,
                        },
                    )
                })
                .collect();
            let store = store_of(&dir, outputs);
            zeros += store.iter().filter(|(_, out)| out.amount.is_zero()).count();
            let (rebuilt, applied) = (
                Indexer::from_store(&store, Telemetry::disabled()),
                applied_whole(&store),
            );
            assert_eq!(rebuilt.balances, applied.balances, "case {case}");
            assert_eq!(rebuilt.pending, applied.pending, "case {case}");
            let roots = |indexer: &Indexer| -> Vec<(SidechainId, Fp)> {
                indexer
                    .trees
                    .iter()
                    .map(|(dest, tree)| (*dest, tree.root()))
                    .collect()
            };
            assert_eq!(roots(&rebuilt), roots(&applied), "case {case}");
            probed += rebuilt
                .pending
                .values()
                .flat_map(BTreeMap::values)
                .filter(|entry| entry.leaf_index != u64::from(entry.nullifier.0 .0[7]))
                .count();
        }
        assert!(
            zeros > 0 && probed > 0,
            "{zeros} zero amounts, {probed} probed slots"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Slots and roots as one insertion at a time, in delta order, left
    /// them: the batched write moves neither.
    #[test]
    fn a_delta_writes_each_tree_once_with_the_slots_one_at_a_time_chose() {
        let (a, b) = (SidechainId::from_label("a"), SidechainId::from_label("b"));
        let mut indexer = Indexer::new(Telemetry::disabled());
        let mut reference: BTreeMap<SidechainId, SparseMerkleTree> = BTreeMap::new();
        let mut check = |indexer: &mut Indexer, delta: AppliedDelta| {
            for (_, out) in &delta.removed {
                if let OutputKind::Escrow(tag) = out.kind {
                    let entry = indexer.pending_inbound_for(&tag.dest, &tag.nullifier);
                    let tree = reference.get_mut(&tag.dest).unwrap();
                    tree.remove(entry.unwrap().leaf_index).unwrap();
                }
            }
            indexer.apply(&delta);
            for (_, out) in &delta.added {
                let OutputKind::Escrow(tag) = out.kind else {
                    continue;
                };
                let tree = reference
                    .entry(tag.dest)
                    .or_insert_with(|| SparseMerkleTree::new(INBOUND_TREE_DEPTH));
                let (index, leaf) = inbound_leaf(tree, &BTreeMap::new(), &tag.nullifier);
                tree.insert(index, leaf).unwrap();
                let entry = indexer.pending_inbound_for(&tag.dest, &tag.nullifier);
                assert_eq!(entry.map(|e| e.leaf_index), Some(index));
            }
            for (dest, tree) in &reference {
                assert_eq!(indexer.inbound_root(dest), Some(tree.root()));
            }
        };

        let regular = TxOut {
            address: Address::from_label("alice"),
            amount: Amount::from_units(7),
            kind: OutputKind::Regular,
        };
        let first = vec![
            escrow(0, a, 1),
            escrow(1, b, 1),
            escrow(2, a, 1),
            (escrow(3, a, 9).0, regular),
            escrow(4, a, 2),
            escrow(5, a, 1),
            escrow(6, b, 1),
        ];
        check(
            &mut indexer,
            AppliedDelta {
                added: first.clone(),
                removed: Vec::new(),
            },
        );
        // Settle the first of the prefix-1 run, then pile on it again.
        check(
            &mut indexer,
            AppliedDelta {
                added: vec![escrow(7, a, 1), escrow(8, a, 2), escrow(9, b, 3)],
                removed: vec![first[0]],
            },
        );
        assert_eq!(indexer.pending_total(), 8);
    }
}
