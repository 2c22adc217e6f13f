//! A sharded, fee-prioritized transaction mempool.
//!
//! The pool is partitioned into N txid-routed shards; each shard keeps
//! a fee-rate-ordered priority index over its entries so admission,
//! eviction and confirmed-removal are all O(log shard). Capacity is a
//! configurable byte *and* count budget ([`MempoolConfig`]): when the
//! pool is full the lowest-priority entry anywhere is evicted (or the
//! incoming transaction rejected, if it ranks below everything
//! already pooled). [`Mempool::take_ordered`] merges the shards into a
//! highest-fee-rate-first block template, so block building packs the
//! highest-paying transactions first.
//!
//! **Priority.** Entries order by `(class, fee rate, age)`:
//!
//! * [`TxClass::Consensus`] — certificates, sidechain declarations,
//!   BTRs and CSWs. These carry no fee by construction but are the
//!   protocol's lifeblood; they sort above all fee-paying transfers
//!   and are evicted only if the pool holds nothing else.
//! * [`TxClass::Settlement`] — escrow-claiming transfers (recognized
//!   statelessly via [`crate::transaction::escrow_claim_address`]).
//!   Consensus-assembled, zero-fee, and protected like consensus
//!   traffic but below it.
//! * [`TxClass::Transfer`] — everything else, ordered by fee rate
//!   (fee units per 1000 encoded bytes). Ties break oldest-first:
//!   under a flash crowd of equal-fee spam, established entries keep
//!   their place and newcomers are the ones turned away.
//!
//! Admission through [`crate::miner::Miner`] or
//! [`crate::sigbatch::admit_batch_with`] additionally runs the
//! pipeline's stage-1 stateless precheck
//! ([`crate::pipeline::precheck_transaction`]); stateful validity is
//! checked at block-building time against the then-current state (the
//! builder rejects transactions invalidated by reorgs or competing
//! spends).

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

use zendoo_core::ids::Amount;
use zendoo_primitives::digest::Digest32;
use zendoo_telemetry::Telemetry;

use crate::transaction::{escrow_claim_address, McTransaction, OutPoint};

/// Capacity and partitioning knobs for the [`Mempool`].
#[derive(Clone, Copy, Debug)]
pub struct MempoolConfig {
    /// Number of txid-routed shards (at least 1).
    pub shards: usize,
    /// Maximum number of pooled transactions before eviction.
    pub max_count: usize,
    /// Maximum total encoded bytes before eviction.
    pub max_bytes: usize,
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            shards: 8,
            max_count: 200_000,
            max_bytes: 256 << 20,
        }
    }
}

/// Eviction-protection class of a pooled transaction (ascending =
/// more important; see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum TxClass {
    /// Fee-paying (or fee-less user) transfer: ordered by fee rate.
    Transfer = 0,
    /// Consensus-assembled escrow claim (settlement / refund).
    Settlement = 1,
    /// Certificates, declarations, BTRs, CSWs.
    Consensus = 2,
}

/// Classifies a transaction for eviction protection.
pub fn class_of(tx: &McTransaction) -> TxClass {
    match tx {
        McTransaction::Certificate(_)
        | McTransaction::SidechainDeclaration(_)
        | McTransaction::Btr(_)
        | McTransaction::Csw(_) => TxClass::Consensus,
        McTransaction::Transfer(t) => {
            let claim = escrow_claim_address();
            let all_claim = !t.inputs.is_empty()
                && t.inputs
                    .iter()
                    .all(|i| zendoo_core::ids::Address::from_public_key(&i.pubkey) == claim);
            if all_claim {
                TxClass::Settlement
            } else {
                TxClass::Transfer
            }
        }
        McTransaction::Coinbase(_) => TxClass::Transfer,
    }
}

/// Computes the fee a transaction would pay, resolving its inputs
/// through `lookup` (typically the confirmed UTXO set). Inputs the
/// lookup cannot resolve contribute nothing; a transaction spending
/// more than its known inputs yields [`Amount::ZERO`]. Non-transfer
/// transactions carry no fee.
pub fn fee_of<F>(tx: &McTransaction, lookup: F) -> Amount
where
    F: Fn(&OutPoint) -> Option<Amount>,
{
    let McTransaction::Transfer(t) = tx else {
        return Amount::ZERO;
    };
    let total_in = Amount::checked_sum(t.inputs.iter().filter_map(|input| lookup(&input.outpoint)));
    let (Some(total_in), Some(total_out)) = (total_in, t.total_output()) else {
        return Amount::ZERO;
    };
    total_in.checked_sub(total_out).unwrap_or(Amount::ZERO)
}

/// Outcome of [`Mempool::admit`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdmitOutcome {
    /// Pooled (possibly after evicting lower-priority entries).
    Admitted,
    /// The txid was already pooled.
    Duplicate,
    /// The pool is at capacity and the transaction ranks below
    /// everything already pooled.
    RejectedFull,
}

/// Priority of a pooled entry. **Ascending order = evict first**;
/// descending order is template order. The sequence number is unique
/// per entry, so keys are unique; `Reverse` makes the *newest* of two
/// otherwise-equal entries the first evicted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct PriorityKey {
    class: TxClass,
    /// Fee units per 1000 encoded bytes.
    fee_rate: u64,
    seq: Reverse<u64>,
}

#[derive(Clone, Debug)]
struct Entry {
    tx: McTransaction,
    key: PriorityKey,
    size: usize,
    /// Signature verdicts established at admission, keyed by
    /// [`crate::sigbatch::sig_cache_key`]; travel with the entry into
    /// the block template so building never re-verifies.
    sig_verdicts: Vec<(Digest32, bool)>,
}

#[derive(Clone, Debug, Default)]
struct Shard {
    entries: HashMap<Digest32, Entry>,
    /// Priority index: ascending = evict-first, descending = template
    /// order. Keys are unique (the seq component).
    index: BTreeMap<PriorityKey, Digest32>,
}

/// A block template drained from the pool by [`Mempool::take_ordered`]:
/// transactions in highest-priority-first order plus every signature
/// verdict established for them at admission.
#[derive(Clone, Debug, Default)]
pub struct TakenBatch {
    /// Template transactions, highest priority first.
    pub txs: Vec<McTransaction>,
    /// Admission-time signature verdicts for `txs`, keyed by
    /// [`crate::sigbatch::sig_cache_key`].
    pub sig_verdicts: HashMap<Digest32, bool>,
}

/// A sharded mempool with fee-prioritized eviction.
///
/// # Examples
///
/// ```
/// use zendoo_core::ids::Amount;
/// use zendoo_mainchain::mempool::{AdmitOutcome, Mempool};
/// use zendoo_mainchain::transaction::{CoinbaseTx, McTransaction};
///
/// let mut pool = Mempool::new();
/// let tx = McTransaction::Coinbase(CoinbaseTx { height: 1, outputs: vec![] });
/// assert_eq!(pool.admit(tx.clone(), Amount::ZERO, vec![]), AdmitOutcome::Admitted);
/// assert_eq!(pool.admit(tx, Amount::ZERO, vec![]), AdmitOutcome::Duplicate);
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Mempool {
    shards: Vec<Shard>,
    config: MempoolConfig,
    count: usize,
    bytes: usize,
    next_seq: u64,
    telemetry: Telemetry,
}

impl Default for Mempool {
    fn default() -> Self {
        Self::new()
    }
}

impl Mempool {
    /// Creates an empty pool with [`MempoolConfig::default`] capacity.
    pub fn new() -> Self {
        Self::with_config(MempoolConfig::default())
    }

    /// Creates an empty pool with explicit capacity/sharding.
    pub fn with_config(config: MempoolConfig) -> Self {
        let shards = config.shards.max(1);
        Mempool {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            config: MempoolConfig { shards, ..config },
            count: 0,
            bytes: 0,
            next_seq: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle for the `mc.mempool.*` instruments
    /// (admission spans, eviction spans/counters, size gauges).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The pool's capacity configuration.
    pub fn config(&self) -> &MempoolConfig {
        &self.config
    }

    fn shard_of(&self, txid: &Digest32) -> usize {
        let b = txid.as_bytes();
        let route = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        (route % self.shards.len() as u64) as usize
    }

    /// Admits a transaction with its fee (as resolved against the
    /// current UTXO set) and any signature verdicts established at
    /// admission. Evicts lowest-priority entries as needed to respect
    /// the byte/count budget.
    pub fn admit(
        &mut self,
        tx: McTransaction,
        fee: Amount,
        sig_verdicts: Vec<(Digest32, bool)>,
    ) -> AdmitOutcome {
        let telemetry = self.telemetry.clone();
        let _span = telemetry.span("mc.mempool.admit");
        let txid = tx.txid();
        let shard = self.shard_of(&txid);
        if self.shards[shard].entries.contains_key(&txid) {
            return AdmitOutcome::Duplicate;
        }
        let size = tx.encoded_size();
        let key = PriorityKey {
            class: class_of(&tx),
            fee_rate: fee_rate(fee, size),
            seq: Reverse(self.next_seq),
        };
        // Make room: evict strictly-lower-priority entries; if the
        // incoming transaction is itself the lowest, turn it away.
        while self.count >= self.config.max_count || self.bytes + size > self.config.max_bytes {
            match self.lowest() {
                Some((victim_shard, victim_key)) if victim_key < key => {
                    self.evict_one(victim_shard, victim_key);
                }
                _ => {
                    self.telemetry.counter("mc.mempool.rejected_full", 1);
                    return AdmitOutcome::RejectedFull;
                }
            }
        }
        self.next_seq += 1;
        self.count += 1;
        self.bytes += size;
        self.shards[shard].index.insert(key, txid);
        self.shards[shard].entries.insert(
            txid,
            Entry {
                tx,
                key,
                size,
                sig_verdicts,
            },
        );
        self.telemetry.counter("mc.mempool.admitted", 1);
        self.update_gauges();
        AdmitOutcome::Admitted
    }

    /// The globally lowest-priority entry as `(shard, key)`.
    fn lowest(&self) -> Option<(usize, PriorityKey)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.index.first_key_value().map(|(k, _)| (i, *k)))
            .min_by_key(|(_, k)| *k)
    }

    fn evict_one(&mut self, shard: usize, key: PriorityKey) {
        let telemetry = self.telemetry.clone();
        let _span = telemetry.span("mc.mempool.evict");
        let Some(txid) = self.shards[shard].index.remove(&key) else {
            return;
        };
        let entry = self.shards[shard]
            .entries
            .remove(&txid)
            .expect("index and entries agree");
        self.count -= 1;
        self.bytes -= entry.size;
        self.telemetry.counter("mc.mempool.evicted", 1);
        self.telemetry
            .counter("mc.mempool.evicted_bytes", entry.size as u64);
    }

    /// Returns `true` if the pool knows this txid.
    pub fn contains(&self, txid: &Digest32) -> bool {
        self.shards[self.shard_of(txid)].entries.contains_key(txid)
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Total encoded bytes pooled.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Returns `true` if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Removes and returns up to `max` transactions as a block
    /// template: consensus transactions first, then settlements, then
    /// transfers by descending fee rate (a k-way merge of the shard
    /// indexes), together with their admission-time signature
    /// verdicts.
    pub fn take_ordered(&mut self, max: usize) -> TakenBatch {
        let mut batch = TakenBatch::default();
        while batch.txs.len() < max {
            let Some((shard, key)) = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.index.last_key_value().map(|(k, _)| (i, *k)))
                .max_by_key(|(_, k)| *k)
            else {
                break;
            };
            let txid = self.shards[shard]
                .index
                .remove(&key)
                .expect("key just observed");
            let entry = self.shards[shard]
                .entries
                .remove(&txid)
                .expect("index and entries agree");
            self.count -= 1;
            self.bytes -= entry.size;
            batch.sig_verdicts.extend(entry.sig_verdicts);
            batch.txs.push(entry.tx);
        }
        self.update_gauges();
        batch
    }

    /// Drops transactions whose ids appear in `confirmed` (called
    /// after a block connects). O(confirmed), not O(pool): each txid
    /// routes to its shard and removes one entry + one index key.
    pub fn remove_confirmed(&mut self, confirmed: &[Digest32]) {
        for txid in confirmed {
            let shard = self.shard_of(txid);
            if let Some(entry) = self.shards[shard].entries.remove(txid) {
                self.shards[shard].index.remove(&entry.key);
                self.count -= 1;
                self.bytes -= entry.size;
            }
        }
        self.update_gauges();
    }

    fn update_gauges(&self) {
        if self.telemetry.is_enabled() {
            self.telemetry.gauge("mc.mempool.size", self.count as u64);
            self.telemetry.gauge("mc.mempool.bytes", self.bytes as u64);
        }
    }
}

/// Fee units per 1000 encoded bytes (saturating).
fn fee_rate(fee: Amount, size: usize) -> u64 {
    fee.units().saturating_mul(1000) / (size.max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::CoinbaseTx;
    use crate::transaction::{Output, TransferTx, TxIn, TxOut};
    use zendoo_core::ids::Address;
    use zendoo_primitives::schnorr::Keypair;

    fn tx(n: u64) -> McTransaction {
        McTransaction::Coinbase(CoinbaseTx {
            height: n,
            outputs: vec![],
        })
    }

    /// A structurally distinct transfer (one input, one output).
    fn transfer(n: u64) -> McTransaction {
        let kp = Keypair::from_seed(&n.to_le_bytes());
        McTransaction::Transfer(TransferTx {
            inputs: vec![TxIn {
                outpoint: OutPoint {
                    txid: Digest32::hash_bytes(&n.to_le_bytes()),
                    index: 0,
                },
                pubkey: kp.public,
                signature: kp.secret.sign("test", b"sig"),
            }],
            outputs: vec![Output::Regular(TxOut::regular(
                Address::from_label("dst"),
                Amount::from_units(1),
            ))],
        })
    }

    /// Pools `tx` at fee zero; `true` only if it was pooled.
    fn insert(pool: &mut Mempool, tx: McTransaction) -> bool {
        pool.admit(tx, Amount::ZERO, vec![]) == AdmitOutcome::Admitted
    }

    fn small_pool(max_count: usize) -> Mempool {
        Mempool::with_config(MempoolConfig {
            shards: 4,
            max_count,
            max_bytes: usize::MAX,
        })
    }

    #[test]
    fn fee_order_preserved() {
        let mut pool = Mempool::new();
        let (a, b, c) = (transfer(1), transfer(2), transfer(3));
        pool.admit(a.clone(), Amount::from_units(10), vec![]);
        pool.admit(b.clone(), Amount::from_units(30), vec![]);
        pool.admit(c.clone(), Amount::from_units(20), vec![]);
        let taken = pool.take_ordered(3).txs;
        assert_eq!(taken, vec![b, c, a], "highest fee rate first");
        assert!(pool.is_empty());
    }

    #[test]
    fn take_more_than_available() {
        let mut pool = Mempool::new();
        insert(&mut pool, tx(1));
        assert_eq!(pool.take_ordered(10).txs.len(), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn equal_fees_drain_oldest_first() {
        let mut pool = Mempool::new();
        for i in 0..5 {
            insert(&mut pool, transfer(i));
        }
        let expected: Vec<McTransaction> = (0..5).map(transfer).collect();
        assert_eq!(pool.take_ordered(5).txs, expected);
    }

    #[test]
    fn eviction_drops_lowest_fee_rate() {
        let mut pool = small_pool(2);
        let cheap = transfer(1);
        let mid = transfer(2);
        let rich = transfer(3);
        pool.admit(cheap.clone(), Amount::from_units(1), vec![]);
        pool.admit(mid.clone(), Amount::from_units(50), vec![]);
        assert_eq!(
            pool.admit(rich.clone(), Amount::from_units(100), vec![]),
            AdmitOutcome::Admitted
        );
        assert_eq!(pool.len(), 2);
        assert!(!pool.contains(&cheap.txid()), "lowest fee evicted");
        assert!(pool.contains(&mid.txid()));
        assert!(pool.contains(&rich.txid()));
    }

    #[test]
    fn incoming_below_floor_is_rejected() {
        let mut pool = small_pool(2);
        pool.admit(transfer(1), Amount::from_units(50), vec![]);
        pool.admit(transfer(2), Amount::from_units(100), vec![]);
        let broke = transfer(3);
        assert_eq!(
            pool.admit(broke.clone(), Amount::ZERO, vec![]),
            AdmitOutcome::RejectedFull
        );
        assert!(!pool.contains(&broke.txid()));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn byte_budget_enforced() {
        let victim = transfer(1);
        let size = victim.encoded_size();
        let mut pool = Mempool::with_config(MempoolConfig {
            shards: 2,
            max_count: usize::MAX,
            max_bytes: size + size / 2,
        });
        assert_eq!(
            pool.admit(victim.clone(), Amount::from_units(1), vec![]),
            AdmitOutcome::Admitted
        );
        // A higher-fee transaction displaces it; the pool never
        // exceeds its byte budget.
        assert_eq!(
            pool.admit(transfer(2), Amount::from_units(9), vec![]),
            AdmitOutcome::Admitted
        );
        assert!(!pool.contains(&victim.txid()));
        assert!(pool.bytes() <= size + size / 2);
    }

    #[test]
    fn settlement_class_outranks_any_fee() {
        use crate::transaction::TransferTx;
        let mut pool = small_pool(2);
        // A zero-fee consensus-assembled escrow claim.
        let claim = McTransaction::Transfer(TransferTx::escrow_claiming(
            &[OutPoint {
                txid: Digest32::hash_bytes(b"escrowed"),
                index: 0,
            }],
            vec![Output::Regular(TxOut::regular(
                Address::from_label("dst"),
                Amount::from_units(5),
            ))],
        ));
        assert_eq!(class_of(&claim), TxClass::Settlement);
        let whale = transfer(1);
        pool.admit(claim.clone(), Amount::ZERO, vec![]);
        pool.admit(whale.clone(), Amount::from_units(1_000_000), vec![]);
        // A further whale evicts the transfer, never the claim.
        assert_eq!(
            pool.admit(transfer(2), Amount::from_units(2_000_000), vec![]),
            AdmitOutcome::Admitted
        );
        assert!(pool.contains(&claim.txid()));
        assert!(!pool.contains(&whale.txid()));
        // And protected classes lead the template.
        assert_eq!(pool.take_ordered(1).txs.pop().unwrap(), claim);
    }

    #[test]
    fn remove_confirmed_clears_entries() {
        let mut pool = Mempool::new();
        insert(&mut pool, tx(1));
        insert(&mut pool, tx(2));
        pool.remove_confirmed(&[tx(1).txid()]);
        assert_eq!(pool.len(), 1);
        assert!(!pool.contains(&tx(1).txid()));
        // And the removed tx can re-enter (e.g. after a reorg).
        assert!(insert(&mut pool, tx(1)));
    }

    #[test]
    fn reinsert_ignores_duplicates() {
        let mut pool = Mempool::new();
        insert(&mut pool, tx(1));
        assert!(!insert(&mut pool, tx(1)));
        assert!(insert(&mut pool, tx(2)));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn verdicts_travel_with_the_template() {
        let mut pool = Mempool::new();
        let a = transfer(1);
        let key = Digest32::hash_bytes(b"verdict-key");
        pool.admit(a.clone(), Amount::from_units(1), vec![(key, true)]);
        let batch = pool.take_ordered(10);
        assert_eq!(batch.txs, vec![a]);
        assert_eq!(batch.sig_verdicts.get(&key), Some(&true));
    }

    #[test]
    fn evicted_entry_drops_its_verdicts() {
        let mut pool = small_pool(1);
        let victim = transfer(1);
        let key = Digest32::hash_bytes(b"victim-key");
        pool.admit(victim, Amount::from_units(1), vec![(key, true)]);
        pool.admit(transfer(2), Amount::from_units(10), vec![]);
        let batch = pool.take_ordered(10);
        assert!(batch.sig_verdicts.is_empty(), "evicted verdicts purged");
    }
}
