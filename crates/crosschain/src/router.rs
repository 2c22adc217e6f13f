//! Cross-chain settlement, read off the chain.
//!
//! What to settle is a pure function of the chain state: when a
//! certificate matures, the registry turns its escrow backward
//! transfers into escrow-kind UTXOs, each tagged with its window, its
//! destination, its payback address and its transfer's nullifier.
//! [`settlement_transactions`] spends every live one. Anyone may call
//! it, and consensus takes what it assembles from anyone.
//! [`CrossChainRouter`] reads back what connected blocks settled.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use zendoo_core::crosschain::{
    declared_transfers, escrow_address, CrossChainReceipt, CrossChainTransfer, DeliveryStatus,
    RefundReason,
};
use zendoo_core::escrow::EscrowTag;
use zendoo_core::ids::{Amount, EpochId, Nullifier, SidechainId};
use zendoo_core::settlement::{check_settlement_output, SettlementBatch};
use zendoo_mainchain::transaction::{McTransaction, OutPoint, Output, TransferTx, TxOut};
use zendoo_mainchain::{Block, Blockchain};
use zendoo_telemetry::Telemetry;

/// What one block settled of one window `(source, epoch)`: how many
/// escrowed transfers, and in how many mainchain transactions (the
/// before/after of windowed batching — one transaction per transfer
/// would be `transfers` transactions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SettlementRecord {
    /// The window's source sidechain.
    pub source: SidechainId,
    /// The window's withdrawal epoch.
    pub epoch: EpochId,
    /// Height of the block carrying the settlement transactions.
    pub mc_height: u64,
    /// Escrowed transfers settled (delivered or refunded).
    pub transfers: usize,
    /// Transactions delivering a settlement batch.
    pub delivery_txs: usize,
    /// Transactions refunding escrows.
    pub refund_txs: usize,
}

/// Every settlement and refund transaction the chain owes at its tip,
/// for the next block.
///
/// The live escrow outputs are grouped by window `(source, epoch)`, in
/// window order. Within a window, the escrows bound for a destination
/// still active in the next block ([`SidechainEntry::active_at`]) are
/// claimed by one transaction per destination, whose one forward
/// transfer carries a [`SettlementBatch`]; the rest share one refund
/// transaction paying each payback address. A window of `n` transfers
/// to `k` live destinations settles in `k` transactions plus at most
/// one refund, instead of `n`.
///
/// [`SidechainEntry::active_at`]: zendoo_mainchain::registry::SidechainEntry::active_at
///
/// # Examples
///
/// A chain with no matured escrow owes nothing:
///
/// ```
/// use zendoo_crosschain::settlement_transactions;
/// use zendoo_mainchain::chain::{Blockchain, ChainParams};
///
/// let chain = Blockchain::new(ChainParams::default());
/// assert!(settlement_transactions(&chain).is_empty());
/// ```
pub fn settlement_transactions(chain: &Blockchain) -> Vec<McTransaction> {
    let state = chain.state();
    let registry = &state.registry;
    let next = chain.height() + 1;
    let mut windows: BTreeMap<(SidechainId, EpochId), Vec<(OutPoint, TxOut)>> = BTreeMap::new();
    for (outpoint, out) in state.utxos.escrows() {
        let tag = out
            .escrow_tag()
            .expect("the escrow index holds escrow outputs");
        windows
            .entry((tag.source, tag.epoch))
            .or_default()
            .push((*outpoint, *out));
    }
    let mut transactions = Vec::new();
    for ((source, epoch), escrows) in windows {
        // The receivers are in the window's certificate, which matured
        // these escrows and stays the window's winner.
        let certificate = &registry
            .accepted_certificate(&source, epoch)
            .expect("an escrow's window holds the certificate that matured it")
            .certificate;
        let declared: HashMap<Nullifier, CrossChainTransfer> = declared_transfers(certificate)
            .expect("declaration validated at certificate acceptance")
            .into_iter()
            .map(|xct| (xct.nullifier, xct))
            .collect();
        let mut deliveries: BTreeMap<SidechainId, (Vec<OutPoint>, Vec<CrossChainTransfer>)> =
            BTreeMap::new();
        let (mut refunded, mut refunds) = (Vec::new(), Vec::new());
        for (outpoint, out) in escrows {
            let (amount, tag) = (out.amount, *out.escrow_tag().expect("grouped above"));
            let live = registry
                .get(&tag.dest)
                .is_some_and(|entry| entry.active_at(next));
            if live {
                let xct = declared
                    .get(&tag.nullifier)
                    .expect("an escrow's transfer is declared by its window's certificate");
                let (outpoints, transfers) = deliveries.entry(tag.dest).or_default();
                outpoints.push(outpoint);
                transfers.push(*xct);
            } else {
                refunded.push(outpoint);
                refunds.push(Output::Regular(TxOut::regular(tag.payback, amount)));
            }
        }
        for (dest, (outpoints, transfers)) in deliveries {
            let batch = SettlementBatch::new(source, epoch, dest, transfers);
            let output = Output::Forward(
                batch
                    .forward_transfer()
                    .expect("escrowed amounts were accepted on-chain"),
            );
            transactions.push(McTransaction::Transfer(TransferTx::escrow_claiming(
                &outpoints,
                vec![output],
            )));
        }
        if !refunded.is_empty() {
            transactions.push(McTransaction::Transfer(TransferTx::escrow_claiming(
                &refunded, refunds,
            )));
        }
    }
    transactions
}

/// Declared transfers not yet settled at the chain's tip: those of
/// accepted certificates still inside their window, plus the live
/// escrows of matured ones.
fn in_flight(chain: &Blockchain) -> usize {
    let state = chain.state();
    let escrow = escrow_address();
    let unmatured: usize = state
        .registry
        .iter()
        .flat_map(|(_, entry)| {
            entry
                .certificates
                .values()
                .rev()
                .take_while(|accepted| !accepted.matured)
        })
        .map(|accepted| {
            accepted
                .certificate
                .bt_list
                .iter()
                .filter(|bt| bt.receiver == escrow)
                .count()
        })
        .sum();
    unmatured + state.utxos.escrows().count()
}

/// Reads cross-chain settlement off connected blocks: one
/// [`CrossChainReceipt`] per escrow a block spent and one
/// [`SettlementRecord`] per window it settled. It keeps no state of
/// its own beyond that log; feed it every block the active chain
/// connects, and a fork's branch block replaces what was read at its
/// height and above. [`CrossChainRouter::collect_deliveries`] is
/// [`settlement_transactions`].
///
/// # Examples
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
/// let block = chain.mine_next_block(miner.address(), vec![], 1).unwrap();
/// router.observe_block(&chain, &block);
///
/// assert_eq!(router.pending_count(), 0);
/// assert!(router.receipts().is_empty());
/// assert!(router.collect_deliveries(&chain).is_empty());
/// ```
#[derive(Debug, Default)]
pub struct CrossChainRouter {
    receipts: Vec<CrossChainReceipt>,
    settlements: Vec<SettlementRecord>,
    /// [`in_flight`] at the last observed block.
    pending: usize,
    telemetry: Telemetry,
}

impl CrossChainRouter {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry handle; settled transfers, batch sizes and
    /// settlement delays record through it. The default is
    /// [`Telemetry::disabled`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// One receipt per settled escrow, in block order.
    pub fn receipts(&self) -> &[CrossChainReceipt] {
        &self.receipts
    }

    /// The latest receipt for `nullifier`, if its escrow was settled.
    pub fn receipt_for(&self, nullifier: &Nullifier) -> Option<&CrossChainReceipt> {
        self.receipts
            .iter()
            .rev()
            .find(|receipt| receipt.escrow.nullifier == *nullifier)
    }

    /// Per-window settlement accounting, in block order.
    pub fn settlements(&self) -> &[SettlementRecord] {
        &self.settlements
    }

    /// Declared transfers not yet settled at the last observed block:
    /// declared by a certificate still inside its window, or escrowed
    /// and awaiting the next block.
    pub fn pending_count(&self) -> usize {
        self.pending
    }

    /// [`settlement_transactions`] at `chain`'s tip.
    pub fn collect_deliveries(&self, chain: &Blockchain) -> Vec<McTransaction> {
        settlement_transactions(chain)
    }

    /// Reads one block `chain` has just connected: the escrows it
    /// spent become receipts, delivered when a settlement batch in the
    /// spending transaction names their nullifier and refunded
    /// otherwise. What was read at the block's height or above (a
    /// replaced branch) is dropped first.
    pub fn observe_block(&mut self, chain: &Blockchain, block: &Block) {
        let telemetry = self.telemetry.clone();
        let _span = telemetry.span("router.observe");
        let height = block.header.height;
        self.receipts.truncate(
            self.receipts
                .partition_point(|r| r.status.mc_height() < height),
        );
        self.settlements
            .truncate(self.settlements.partition_point(|s| s.mc_height < height));

        let escrows: HashMap<OutPoint, (Amount, EscrowTag)> = chain
            .spent_outputs(&block.hash())
            .filter_map(|(outpoint, out)| Some((*outpoint, (out.amount, *out.escrow_tag()?))))
            .collect();
        let mut windows: BTreeMap<(SidechainId, EpochId), SettlementRecord> = BTreeMap::new();
        for tx in &block.transactions {
            let claim = match tx {
                McTransaction::Certificate(_) => {
                    telemetry.counter("router.certs_observed", 1);
                    continue;
                }
                McTransaction::Transfer(claim) => claim,
                _ => continue,
            };
            let spent: Vec<(Amount, EscrowTag)> = claim
                .inputs
                .iter()
                .filter_map(|input| escrows.get(&input.outpoint).copied())
                .collect();
            if spent.is_empty() {
                continue;
            }
            let batched: HashSet<Nullifier> = claim
                .outputs
                .iter()
                .filter_map(|output| match output {
                    Output::Forward(ft) => check_settlement_output(ft).ok().flatten(),
                    Output::Regular(_) => None,
                })
                .flat_map(|batch| batch.transfers)
                .map(|xct| xct.nullifier)
                .collect();
            // (window, delivered?) pairs this transaction touched.
            let mut roles = BTreeSet::new();
            let mut counts = [0u64; 2];
            for (amount, tag) in spent {
                let is_delivery = batched.contains(&tag.nullifier);
                let status = if is_delivery {
                    DeliveryStatus::Delivered { mc_height: height }
                } else {
                    let reason = if chain.state().registry.get(&tag.dest).is_some() {
                        RefundReason::CeasedDestination
                    } else {
                        RefundReason::UnknownDestination
                    };
                    DeliveryStatus::Refunded {
                        mc_height: height,
                        reason,
                    }
                };
                self.receipts.push(CrossChainReceipt {
                    escrow: tag,
                    amount,
                    status,
                });
                let window = (tag.source, tag.epoch);
                windows
                    .entry(window)
                    .or_insert(SettlementRecord {
                        source: tag.source,
                        epoch: tag.epoch,
                        mc_height: height,
                        transfers: 0,
                        delivery_txs: 0,
                        refund_txs: 0,
                    })
                    .transfers += 1;
                roles.insert((window, is_delivery));
                counts[usize::from(is_delivery)] += 1;
                if telemetry.is_enabled() {
                    let matured = chain
                        .state()
                        .registry
                        .get(&tag.source)
                        .map(|entry| entry.config.schedule.ceasing_height(tag.epoch));
                    if let Some(matured) = matured {
                        telemetry.observe("router.settlement_delay_blocks", height - matured);
                    }
                }
            }
            for (window, is_delivery) in roles {
                let record = windows.get_mut(&window).expect("recorded above");
                if is_delivery {
                    record.delivery_txs += 1;
                } else {
                    record.refund_txs += 1;
                }
            }
            let [refunded, delivered] = counts;
            if delivered > 0 {
                telemetry.observe("router.settlement.batch_size", delivered);
                telemetry.counter("router.delivered", delivered);
            }
            if refunded > 0 {
                telemetry.observe("router.settlement.refund_size", refunded);
                telemetry.counter("router.refunded", refunded);
            }
        }
        self.settlements.extend(windows.into_values());
        self.pending = in_flight(chain);
        telemetry.gauge("router.pending_transfers", self.pending as u64);
    }
}
