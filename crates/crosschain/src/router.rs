//! The mainchain-side cross-chain transfer router.

use std::collections::{BTreeMap, HashSet};
use zendoo_core::crosschain::{
    validate_declarations, CrossChainReceipt, CrossChainTransfer, DeliveryStatus, RefundReason,
};
use zendoo_core::ids::{Amount, EpochId, Nullifier, Quality, SidechainId};
use zendoo_core::settlement::SettlementBatch;
use zendoo_mainchain::registry::SidechainStatus;
use zendoo_mainchain::transaction::{McTransaction, OutPoint, Output, TransferTx, TxOut};
use zendoo_mainchain::{Block, Blockchain};
use zendoo_primitives::digest::Digest32;
use zendoo_telemetry::Telemetry;

/// One transfer waiting for its source certificate to mature, plus the
/// index of its escrow backward transfer inside that certificate's
/// `BTList` (which determines the escrow UTXO's outpoint).
#[derive(Clone, Debug)]
struct PendingItem {
    bt_index: u32,
    transfer: CrossChainTransfer,
}

/// The best-so-far certificate of one `(source, epoch)` window and the
/// transfers it declares.
#[derive(Clone, Debug)]
struct PendingEpoch {
    cert_digest: Digest32,
    quality: Quality,
    mature_at: u64,
    /// Mainchain height at which the winning certificate was observed
    /// (settlement latency in blocks = settle height − this).
    observed_at: u64,
    items: Vec<PendingItem>,
}

/// Per-window settlement accounting: how many matured transfers the
/// window released and how many mainchain transactions settled them
/// (the before/after of windowed batching — the per-transfer router
/// issued one transaction per transfer, i.e. `transfers` transactions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SettlementRecord {
    /// The window's source sidechain.
    pub source: SidechainId,
    /// The window's withdrawal epoch.
    pub epoch: EpochId,
    /// Mainchain height the settlement transactions target.
    pub mc_height: u64,
    /// Matured transfers settled (delivered or refunded).
    pub transfers: usize,
    /// Batched delivery transactions issued (one per destination).
    pub delivery_txs: usize,
    /// Batched refund transactions issued (zero or one).
    pub refund_txs: usize,
}

/// A restorable snapshot of the router's mutable state, taken per
/// observed block so mainchain reorgs can roll the router back in
/// lock-step with the registry undo records (see
/// [`CrossChainRouter::snapshot`]).
///
/// Only the in-flight state (consumed/reserved nullifiers, pending
/// windows) is cloned; the append-only receipt and settlement logs are
/// captured as stream positions and rewound by truncation on restore —
/// a snapshot costs O(in-flight transfers), not O(history).
#[derive(Clone, Debug)]
pub struct RouterSnapshot {
    consumed: HashSet<Nullifier>,
    reserved: HashSet<Nullifier>,
    pending: BTreeMap<(SidechainId, EpochId), PendingEpoch>,
    receipts_recorded: u64,
    settlements_len: usize,
}

/// Routes declared cross-chain transfers from source-certificate
/// acceptance to destination delivery (or refund).
///
/// The router mirrors the mainchain registry's view block by block:
/// feed every connected block to [`CrossChainRouter::observe_block`],
/// then drain [`CrossChainRouter::collect_deliveries`] into the next
/// block's transaction list.
///
/// Delivery is **windowed batch settlement**: all matured escrows of a
/// `(source, epoch)` window bound for the same destination settle in a
/// single multi-input transaction carrying one aggregated
/// [`SettlementBatch`] forward transfer; all refunds of the window
/// share one multi-output refund transaction. A window with `n`
/// transfers to `k` live destinations therefore settles in exactly `k`
/// mainchain transactions (plus at most one refund transaction),
/// instead of `n`.
///
/// Escrowed value sits in **escrow-kind** mainchain UTXOs between
/// maturity and delivery ([`zendoo_core::escrow::EscrowTag`]): no key —
/// the router's included — can spend them. The router merely
/// *assembles* the settlement and refund transactions
/// ([`TransferTx::escrow_claiming`]); the mainchain's consensus rules
/// decide whether they are valid, and would reject any transaction
/// (the router's or an attacker's) that routed escrowed value anywhere
/// but its declared destination or its payback address. There is no
/// trusted operator left in the escrow path.
///
/// # Examples
///
/// The router mirrors a [`Blockchain`] block by block; a block without
/// certificates queues nothing and an immature queue settles nothing:
///
/// ```
/// use zendoo_crosschain::CrossChainRouter;
/// use zendoo_mainchain::chain::{Blockchain, ChainParams};
/// use zendoo_mainchain::wallet::Wallet;
///
/// let mut chain = Blockchain::new(ChainParams::default());
/// let mut router = CrossChainRouter::new();
/// let miner = Wallet::from_seed(b"doc-miner");
///
/// let snapshot = router.snapshot(); // reorg-safety: pre-block state
/// let block = chain.mine_next_block(miner.address(), vec![], 1).unwrap();
/// router.observe_block(&chain, &block);
///
/// assert_eq!(router.pending_count(), 0);
/// assert!(router.pending_by_destination().is_empty());
/// assert!(router.collect_deliveries(&chain).is_empty());
/// router.restore(snapshot); // a fork rewinds the router in lock-step
/// ```
pub struct CrossChainRouter {
    /// Nullifiers of transfers already delivered or refunded.
    consumed: HashSet<Nullifier>,
    /// Nullifiers queued in `pending` (released on quality replacement).
    reserved: HashSet<Nullifier>,
    pending: BTreeMap<(SidechainId, EpochId), PendingEpoch>,
    receipts: Vec<CrossChainReceipt>,
    /// Receipts evicted by the retention policy (or drained), counted so
    /// cursors into the receipt stream stay meaningful.
    receipts_dropped: u64,
    /// Retention cap on the in-memory receipt log (`None` = unbounded).
    receipt_capacity: Option<usize>,
    settlements: Vec<SettlementRecord>,
    telemetry: Telemetry,
}

impl Default for CrossChainRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl CrossChainRouter {
    /// A fresh router with an unbounded receipt log.
    pub fn new() -> Self {
        CrossChainRouter {
            consumed: HashSet::new(),
            reserved: HashSet::new(),
            pending: BTreeMap::new(),
            receipts: Vec::new(),
            receipts_dropped: 0,
            receipt_capacity: None,
            settlements: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; queue depths, settlement batch
    /// sizes and delivery/refund latencies record through it. The
    /// default is [`Telemetry::disabled`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Caps the in-memory receipt log at `capacity` entries: when a new
    /// receipt would exceed the cap, the oldest receipts are evicted
    /// (long-running simulations would otherwise accumulate
    /// O(transfers) memory). `None` restores the unbounded default.
    /// [`CrossChainRouter::receipts_recorded`] keeps counting evicted
    /// receipts, so stream cursors survive eviction.
    pub fn set_receipt_capacity(&mut self, capacity: Option<usize>) {
        self.receipt_capacity = capacity;
        self.enforce_receipt_capacity();
    }

    fn enforce_receipt_capacity(&mut self) {
        if let Some(cap) = self.receipt_capacity {
            if self.receipts.len() > cap {
                let excess = self.receipts.len() - cap;
                self.receipts.drain(..excess);
                self.receipts_dropped += excess as u64;
            }
        }
    }

    fn push_receipt(&mut self, receipt: CrossChainReceipt) {
        self.receipts.push(receipt);
        self.enforce_receipt_capacity();
    }

    /// Per-transfer outcome records still retained, in observation
    /// order (the oldest may have been evicted — see
    /// [`CrossChainRouter::set_receipt_capacity`]).
    pub fn receipts(&self) -> &[CrossChainReceipt] {
        &self.receipts
    }

    /// Total receipts ever recorded, including evicted/drained ones —
    /// a monotonic cursor base for incremental consumers.
    pub fn receipts_recorded(&self) -> u64 {
        self.receipts_dropped + self.receipts.len() as u64
    }

    /// The receipts recorded after stream position `cursor` (as returned
    /// by a previous [`CrossChainRouter::receipts_recorded`]). Receipts
    /// evicted past the cursor are gone — the slice starts at the oldest
    /// retained one.
    pub fn receipts_since(&self, cursor: u64) -> &[CrossChainReceipt] {
        let start = cursor.saturating_sub(self.receipts_dropped) as usize;
        &self.receipts[start.min(self.receipts.len())..]
    }

    /// Removes and returns every retained receipt (retention for
    /// long-running processes: consumers fold receipts into their own
    /// accounting and keep the router's memory flat).
    pub fn drain_receipts(&mut self) -> Vec<CrossChainReceipt> {
        self.receipts_dropped += self.receipts.len() as u64;
        std::mem::take(&mut self.receipts)
    }

    /// Per-window settlement accounting, in maturity order.
    pub fn settlements(&self) -> &[SettlementRecord] {
        &self.settlements
    }

    /// The latest receipt recorded for `nullifier`, if any.
    pub fn receipt_for(&self, nullifier: &Nullifier) -> Option<&CrossChainReceipt> {
        self.receipts
            .iter()
            .rev()
            .find(|r| r.transfer.nullifier == *nullifier)
    }

    /// Number of transfers awaiting maturity.
    pub fn pending_count(&self) -> usize {
        self.pending.values().map(|e| e.items.len()).sum()
    }

    /// Total value of the transfers awaiting maturity — the router's
    /// contribution to an end-to-end value audit (this value sits in
    /// escrow-kind mainchain UTXOs between maturity and settlement, so
    /// it must never be counted as spendable supply twice).
    pub fn pending_value(&self) -> Amount {
        self.pending
            .values()
            .flat_map(|window| window.items.iter())
            .fold(Amount::ZERO, |sum, item| {
                sum.checked_add(item.transfer.amount)
                    .expect("pending value fits in u64")
            })
    }

    /// Partitions the in-flight queue by destination sidechain:
    /// every transfer awaiting maturity, grouped under the chain that
    /// will receive it, in `(source, epoch)` window order within each
    /// group.
    ///
    /// The partition is **by value** — each destination's slice is
    /// independent of the router and of every other slice — so a
    /// sharded simulation (or a per-chain worker in a node deployment)
    /// can hand each sidechain its own inbound view and let shards
    /// pre-validate pending value concurrently without contending on
    /// the router itself.
    pub fn pending_by_destination(&self) -> BTreeMap<SidechainId, Vec<CrossChainTransfer>> {
        let mut partition: BTreeMap<SidechainId, Vec<CrossChainTransfer>> = BTreeMap::new();
        for window in self.pending.values() {
            for item in &window.items {
                partition
                    .entry(item.transfer.dest)
                    .or_default()
                    .push(item.transfer);
            }
        }
        partition
    }

    /// Returns `true` once `nullifier` has been delivered or refunded.
    pub fn nullifier_consumed(&self, nullifier: &Nullifier) -> bool {
        self.consumed.contains(nullifier)
    }

    /// Captures the router's mutable state. The simulation records one
    /// snapshot per mainchain block, keyed by the pre-block tip, and
    /// [`CrossChainRouter::restore`]s the matching one when a reorg
    /// rewinds the chain — closing the rollback gap the per-transfer
    /// router documented in `World::inject_mc_fork`.
    pub fn snapshot(&self) -> RouterSnapshot {
        RouterSnapshot {
            consumed: self.consumed.clone(),
            reserved: self.reserved.clone(),
            pending: self.pending.clone(),
            receipts_recorded: self.receipts_recorded(),
            settlements_len: self.settlements.len(),
        }
    }

    /// Restores a state captured by [`CrossChainRouter::snapshot`]:
    /// in-flight state is swapped back, and the append-only receipt /
    /// settlement logs are truncated to their positions at snapshot
    /// time (entries evicted by the retention policy since then stay
    /// gone; [`CrossChainRouter::receipts_recorded`] stays monotonic).
    pub fn restore(&mut self, snapshot: RouterSnapshot) {
        self.consumed = snapshot.consumed;
        self.reserved = snapshot.reserved;
        self.pending = snapshot.pending;
        let keep = snapshot
            .receipts_recorded
            .saturating_sub(self.receipts_dropped) as usize;
        self.receipts.truncate(keep.min(self.receipts.len()));
        self.settlements.truncate(snapshot.settlements_len);
    }

    /// Observes one connected mainchain block: scans its accepted
    /// certificates for cross-chain declarations and updates the
    /// pending queue (with quality replacement inside a window).
    pub fn observe_block(&mut self, chain: &Blockchain, block: &Block) {
        // Clone the handle (one Arc bump) so the span guard does not
        // hold `&self` across the mutating loop.
        let telemetry = self.telemetry.clone();
        let _span = telemetry.span("router.observe");
        for tx in &block.transactions {
            if let McTransaction::Certificate(cert) = tx {
                self.telemetry.counter("router.certs_observed", 1);
                self.observe_certificate(chain, cert);
            }
        }
        if self.telemetry.is_enabled() {
            self.telemetry
                .gauge("router.pending_windows", self.pending.len() as u64);
            self.telemetry
                .gauge("router.pending_transfers", self.pending_count() as u64);
            self.telemetry
                .observe("router.pending_depth", self.pending_count() as u64);
        }
    }

    fn observe_certificate(
        &mut self,
        chain: &Blockchain,
        cert: &zendoo_core::certificate::WithdrawalCertificate,
    ) {
        // The registry validated the declaration before accepting the
        // certificate; re-validate defensively (the router also runs in
        // tests against hand-built blocks).
        let declared = match validate_declarations(cert) {
            Ok(declared) => declared,
            Err(reason) => {
                // Nothing escrowed for an invalid declaration (the
                // certificate would have been rejected); log only.
                for xct in zendoo_core::crosschain::declared_transfers(cert).unwrap_or_default() {
                    self.push_receipt(CrossChainReceipt {
                        transfer: xct,
                        status: DeliveryStatus::Rejected {
                            reason: reason.clone(),
                        },
                    });
                }
                return;
            }
        };
        let key = (cert.sidechain_id, cert.epoch_id);

        // Quality replacement: a better certificate for the same window
        // supersedes the queued one; its reservations are released (the
        // replacement typically redeclares the same transfers). This
        // runs even for empty declarations — a declaration-free winner
        // must still evict a losing certificate's queued transfers.
        if let Some(existing) = self.pending.get(&key) {
            if existing.quality >= cert.quality {
                return;
            }
            let existing = self.pending.remove(&key).expect("present");
            for item in existing.items {
                self.reserved.remove(&item.transfer.nullifier);
                self.push_receipt(CrossChainReceipt {
                    transfer: item.transfer,
                    status: DeliveryStatus::NotEscrowed,
                });
            }
        }
        if declared.is_empty() {
            return;
        }
        let Some(entry) = chain.state().registry.get(&cert.sidechain_id) else {
            return;
        };
        let mature_at = entry.config.schedule.ceasing_height(cert.epoch_id);

        // Pair declared transfers with escrow BT indices, in order
        // (validate_declarations guarantees the counts and amounts
        // line up).
        let escrow = zendoo_core::crosschain::escrow_address();
        let mut items = Vec::with_capacity(declared.len());
        let mut next = 0usize;
        for (bt_index, bt) in cert.bt_list.iter().enumerate() {
            if bt.receiver != escrow {
                continue;
            }
            let transfer = declared[next];
            next += 1;
            if self.consumed.contains(&transfer.nullifier)
                || self.reserved.contains(&transfer.nullifier)
            {
                // Replay across epochs (the registry rejects these for
                // matured nullifiers; `reserved` covers the in-flight
                // window). The escrow coins for a replayed item stay
                // locked in their escrow-kind UTXO — they were never
                // honestly owed anywhere.
                self.push_receipt(CrossChainReceipt {
                    transfer,
                    status: DeliveryStatus::ReplayRejected,
                });
                continue;
            }
            self.reserved.insert(transfer.nullifier);
            self.push_receipt(CrossChainReceipt {
                transfer,
                status: DeliveryStatus::Pending,
            });
            items.push(PendingItem {
                bt_index: bt_index as u32,
                transfer,
            });
        }
        if !items.is_empty() {
            self.pending.insert(
                key,
                PendingEpoch {
                    cert_digest: cert.digest(),
                    quality: cert.quality,
                    mature_at,
                    observed_at: chain.height(),
                    items,
                },
            );
        }
    }

    /// Drains every matured pending window into batched settlement (or
    /// refund) transactions for the next mined block.
    ///
    /// Per window, deliverable transfers are grouped by destination
    /// sidechain: each destination receives **one** multi-input
    /// transaction spending all of its escrow UTXOs into a single
    /// aggregated forward transfer whose metadata carries the
    /// [`SettlementBatch`] (per-receiver breakdown + binding
    /// commitment). Transfers whose destination is unregistered or
    /// ceased share **one** multi-output refund transaction paying each
    /// sender's payback address.
    pub fn collect_deliveries(&mut self, chain: &Blockchain) -> Vec<McTransaction> {
        let telemetry = self.telemetry.clone();
        let _span = telemetry.span("router.collect");
        let height = chain.height();
        let matured: Vec<(SidechainId, EpochId)> = self
            .pending
            .iter()
            .filter(|(_, e)| e.mature_at <= height)
            .map(|(k, _)| *k)
            .collect();
        let mut transactions = Vec::new();
        for key in matured {
            let window = self.pending.remove(&key).expect("listed above");
            let registry = &chain.state().registry;
            // Only the window's winning certificate paid its escrow
            // BTs; if our tracked certificate lost (or the payout is
            // otherwise absent), the items never escrowed.
            let winner_matches = registry
                .accepted_certificate(&key.0, key.1)
                .map(|accepted| {
                    accepted.matured && accepted.certificate.digest() == window.cert_digest
                })
                .unwrap_or(false);

            // Partition the window's items: deliverable (grouped by
            // destination), refundable, never-escrowed.
            let mut deliver: BTreeMap<SidechainId, Vec<(OutPoint, CrossChainTransfer)>> =
                BTreeMap::new();
            let mut refunds: Vec<(OutPoint, CrossChainTransfer, RefundReason)> = Vec::new();
            for item in window.items {
                self.reserved.remove(&item.transfer.nullifier);
                let outpoint = OutPoint {
                    txid: window.cert_digest,
                    index: item.bt_index,
                };
                if !winner_matches || chain.state().utxos.get(&outpoint).is_none() {
                    self.push_receipt(CrossChainReceipt {
                        transfer: item.transfer,
                        status: DeliveryStatus::NotEscrowed,
                    });
                    continue;
                }
                let xct = item.transfer;
                // The settlement lands in the *next* block, so the
                // destination must still be active when that block's
                // epoch bookkeeping runs — a sidechain whose submission
                // window closes empty exactly at `height + 1` would
                // reject the forward transfer after the escrow was
                // already consumed. Mirror the registry's ceasing rule
                // one block ahead and refund instead.
                let dest_active = registry.get(&xct.dest).is_some_and(|entry| {
                    entry.status == SidechainStatus::Active && !will_cease_at(entry, height + 1)
                });
                if dest_active {
                    deliver.entry(xct.dest).or_default().push((outpoint, xct));
                } else {
                    let reason = if registry.get(&xct.dest).is_some() {
                        RefundReason::CeasedDestination
                    } else {
                        RefundReason::UnknownDestination
                    };
                    refunds.push((outpoint, xct, reason));
                }
            }

            let settled = deliver.values().map(Vec::len).sum::<usize>() + refunds.len();
            let mut delivery_txs = 0usize;
            for (dest, items) in deliver {
                let batch = SettlementBatch::new(
                    key.0,
                    key.1,
                    dest,
                    items.iter().map(|(_, xct)| *xct).collect(),
                );
                let output = Output::Forward(
                    batch
                        .forward_transfer()
                        .expect("escrowed amounts were accepted on-chain"),
                );
                let outpoints: Vec<OutPoint> =
                    items.iter().map(|(outpoint, _)| *outpoint).collect();
                transactions.push(McTransaction::Transfer(TransferTx::escrow_claiming(
                    &outpoints,
                    vec![output],
                )));
                delivery_txs += 1;
                if self.telemetry.is_enabled() {
                    self.telemetry
                        .observe("router.settlement.batch_size", items.len() as u64);
                    self.telemetry
                        .counter("router.delivered", items.len() as u64);
                    self.telemetry.observe(
                        "router.delivery_latency_blocks",
                        (height + 1).saturating_sub(window.observed_at),
                    );
                }
                for (_, xct) in items {
                    self.consumed.insert(xct.nullifier);
                    self.push_receipt(CrossChainReceipt {
                        transfer: xct,
                        status: DeliveryStatus::Delivered {
                            mc_height: height + 1,
                        },
                    });
                }
            }

            let refund_txs = if refunds.is_empty() {
                0
            } else {
                let outpoints: Vec<OutPoint> =
                    refunds.iter().map(|(outpoint, _, _)| *outpoint).collect();
                let outputs: Vec<Output> = refunds
                    .iter()
                    .map(|(_, xct, _)| Output::Regular(TxOut::regular(xct.payback, xct.amount)))
                    .collect();
                transactions.push(McTransaction::Transfer(TransferTx::escrow_claiming(
                    &outpoints, outputs,
                )));
                if self.telemetry.is_enabled() {
                    self.telemetry
                        .observe("router.settlement.refund_size", refunds.len() as u64);
                    self.telemetry
                        .counter("router.refunded", refunds.len() as u64);
                    self.telemetry.observe(
                        "router.refund_latency_blocks",
                        (height + 1).saturating_sub(window.observed_at),
                    );
                }
                for (_, xct, reason) in refunds {
                    self.consumed.insert(xct.nullifier);
                    self.push_receipt(CrossChainReceipt {
                        transfer: xct,
                        status: DeliveryStatus::Refunded {
                            mc_height: height + 1,
                            reason,
                        },
                    });
                }
                1
            };

            if settled > 0 {
                self.settlements.push(SettlementRecord {
                    source: key.0,
                    epoch: key.1,
                    mc_height: height + 1,
                    transfers: settled,
                    delivery_txs,
                    refund_txs,
                });
            }
        }
        transactions
    }
}

/// Mirrors `SidechainRegistry::begin_block`'s ceasing rule: returns
/// `true` when `entry` will be marked ceased by the epoch bookkeeping
/// of the block at `height` (its submission window closes there with no
/// accepted certificate).
fn will_cease_at(entry: &zendoo_mainchain::registry::SidechainEntry, height: u64) -> bool {
    let schedule = entry.config.schedule;
    let Some(current_epoch) = schedule.epoch_of_height(height) else {
        return false;
    };
    if current_epoch == 0 {
        return false;
    }
    let closing = current_epoch - 1;
    schedule.ceasing_height(closing) == height && !entry.certificates.contains_key(&closing)
}

impl std::fmt::Debug for CrossChainRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossChainRouter")
            .field("pending", &self.pending_count())
            .field("consumed", &self.consumed.len())
            .field("receipts", &self.receipts.len())
            .field("receipts_recorded", &self.receipts_recorded())
            .field("settlement_windows", &self.settlements.len())
            .finish()
    }
}
