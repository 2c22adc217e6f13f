//! A mainchain miner: admits transactions into its fee-prioritized
//! pool, assembles and mines blocks from it, and keeps the pool
//! consistent across reorgs.

use zendoo_core::ids::Address;
use zendoo_primitives::digest::Digest32;
use zendoo_telemetry::Telemetry;

use crate::chain::{BlockError, Blockchain, MinedBlock};
use crate::mempool::{fee_of, AdmitOutcome, Mempool, MempoolConfig};
use crate::sigbatch::{self, AdmissionReport};
use crate::transaction::McTransaction;

/// A miner bound to an address, driving a [`Blockchain`] from a
/// [`Mempool`].
///
/// Every rejection the miner sees before a block exists (a failed
/// stage-1 precheck, a bad signature in a batch) is counted through
/// [`Blockchain::count_rejection`], so admission and pipeline
/// rejections share one set of `mc.reject.*` counters.
///
/// # Examples
///
/// ```
/// use zendoo_mainchain::chain::{Blockchain, ChainParams};
/// use zendoo_mainchain::mempool::MempoolConfig;
/// use zendoo_mainchain::miner::Miner;
/// use zendoo_mainchain::wallet::Wallet;
///
/// let mut chain = Blockchain::new(ChainParams::default());
/// let mut miner = Miner::new(Wallet::from_seed(b"miner").address(), MempoolConfig::default());
/// let mined = miner.mine(&mut chain, 1).unwrap();
/// assert_eq!(chain.tip_hash(), mined.block.hash());
/// ```
#[derive(Debug)]
pub struct Miner {
    address: Address,
    mempool: Mempool,
}

impl Miner {
    /// Creates a miner paying rewards to `address`, pooling within
    /// `config`'s byte and count budget.
    pub fn new(address: Address, config: MempoolConfig) -> Self {
        Miner {
            address,
            mempool: Mempool::with_config(config),
        }
    }

    /// Attaches a telemetry handle to the pool (its `mc.mempool.*`
    /// instruments). The default is [`Telemetry::disabled`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.mempool.set_telemetry(telemetry.clone());
    }

    /// The reward address.
    pub fn address(&self) -> Address {
        self.address
    }

    /// Access to the mempool.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Queues one transaction for inclusion: stage-1 stateless
    /// precheck (structurally invalid submissions never occupy pool
    /// space), then the fee resolved against `chain`'s confirmed UTXO
    /// set establishes the entry's priority. Everything pooled here has
    /// passed precheck, which is what lets [`Miner::mine`] hand the
    /// drained template to the builder as *admitted* candidates. No
    /// signature is checked here: the entry is pooled unverified
    /// ([`Mempool::admit_unverified`]), and the next block build
    /// verifies it in one batch with the template's other unverified
    /// entries.
    ///
    /// # Errors
    ///
    /// The precheck's [`BlockError`] (already counted on `chain`).
    pub fn submit_transaction(
        &mut self,
        chain: &Blockchain,
        tx: McTransaction,
    ) -> Result<AdmitOutcome, BlockError> {
        if let Err(error) = crate::pipeline::precheck_transaction(&tx) {
            chain.count_rejection(&error);
            return Err(error);
        }
        let fee = fee_of(&tx, |op| chain.state().utxos.get(op).map(|o| o.amount));
        let txid = tx.txid();
        Ok(self.mempool.admit_unverified(tx, txid, fee))
    }

    /// Admits a whole batch through the fee-aware, batch-verified
    /// admission path ([`crate::sigbatch::admit_batch_with`]): stage-1
    /// precheck, input resolution against `chain`'s UTXO set (which
    /// establishes each transaction's fee for the pool's priority
    /// index), all signatures verified on `workers` scoped threads, and
    /// the verdicts pooled alongside each entry so the next block build
    /// re-verifies nothing. The admitted set is identical for every
    /// `workers` value. `on_reject` fires once per rejected transaction,
    /// after the rejection was counted on `chain`.
    pub fn submit_batch<F>(
        &mut self,
        chain: &Blockchain,
        txs: Vec<McTransaction>,
        workers: usize,
        mut on_reject: F,
    ) -> AdmissionReport
    where
        F: FnMut(&McTransaction, &BlockError),
    {
        sigbatch::admit_batch_with(
            &mut self.mempool,
            chain.state(),
            txs,
            workers,
            chain.telemetry(),
            |tx, error| {
                chain.count_rejection(error);
                on_reject(tx, error);
            },
        )
    }

    /// Drains the whole pool in template order (consensus, settlements,
    /// transfers by fee rate — [`MempoolConfig`] is the bound) with the
    /// ids the entries were pooled under, and builds, mines and connects
    /// the next block in one pass ([`Blockchain::mine_next`]). Candidates
    /// the chain rejects are dropped and listed in
    /// [`MinedBlock::rejected`]; the caller decides what they mean to it.
    ///
    /// # Errors
    ///
    /// See [`Blockchain::mine_next`].
    pub fn mine(&mut self, chain: &mut Blockchain, time: u64) -> Result<MinedBlock, BlockError> {
        let batch = self.mempool.take_ordered(usize::MAX);
        chain.mine_next(self.address, batch, time)
    }

    /// Handles a reorg notification: transactions from disconnected
    /// blocks (coinbases are branch-specific and skipped) re-enter the
    /// pool through [`Miner::submit_transaction`], their fees
    /// recomputed against the post-reorg UTXO set — an input confirmed
    /// only on the abandoned branch resolves to nothing and pools at
    /// zero fee until the builder rejects it. Returns the transactions
    /// the pool refused.
    pub fn on_reorg(
        &mut self,
        chain: &Blockchain,
        disconnected: &[Digest32],
    ) -> Vec<McTransaction> {
        let mut refused = Vec::new();
        for hash in disconnected {
            let Some(block) = chain.block(hash) else {
                continue;
            };
            for tx in block.transactions.iter().skip(1) {
                match self.submit_transaction(chain, tx.clone()) {
                    Ok(AdmitOutcome::Admitted | AdmitOutcome::Duplicate) => {}
                    Ok(AdmitOutcome::RejectedFull) | Err(_) => refused.push(tx.clone()),
                }
            }
        }
        refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainParams, SubmitOutcome};
    use crate::transaction::TxOut;
    use crate::wallet::Wallet;
    use zendoo_core::ids::Amount;

    fn setup() -> (Blockchain, Miner, Wallet) {
        let alice = Wallet::from_seed(b"alice");
        let params = ChainParams {
            genesis_outputs: vec![TxOut::regular(alice.address(), Amount::from_units(100_000))],
            ..ChainParams::default()
        };
        let chain = Blockchain::new(params);
        let miner = Miner::new(
            Wallet::from_seed(b"miner").address(),
            MempoolConfig::default(),
        );
        (chain, miner, alice)
    }

    /// Reorgs `chain` onto a heavier two-block branch off `fork_base_height`
    /// that carries no transactions, returning the disconnected hashes.
    fn reorg_onto_empty_branch(
        chain: &mut Blockchain,
        miner: &Miner,
        fork_base_height: u64,
    ) -> Vec<Digest32> {
        let base = chain.hash_at_height(fork_base_height).unwrap();
        let branch = chain.mine_branch(&base, 2, miner.address(), 90).unwrap();
        let mut outcome = SubmitOutcome::StoredOnFork;
        for block in branch {
            outcome = chain.submit_block(block).unwrap();
        }
        match outcome {
            SubmitOutcome::Reorganized { disconnected, .. } => disconnected,
            other => panic!("expected reorg, got {other:?}"),
        }
    }

    #[test]
    fn mines_queued_transactions() {
        let (mut chain, mut miner, alice) = setup();
        let tx = alice
            .pay(
                &chain,
                Address::from_label("bob"),
                Amount::from_units(10),
                Amount::from_units(1),
            )
            .unwrap();
        assert_eq!(
            miner.submit_transaction(&chain, tx).unwrap(),
            AdmitOutcome::Admitted
        );
        let block = miner.mine(&mut chain, 1).unwrap().block;
        assert_eq!(block.transactions.len(), 2, "coinbase + transfer");
        assert!(miner.mempool().is_empty());
        assert_eq!(
            chain.state().utxos.balance_of(&Address::from_label("bob")),
            Amount::from_units(10)
        );
    }

    #[test]
    fn drops_invalid_transactions_and_keeps_valid() {
        let (mut chain, mut miner, alice) = setup();
        let good = alice
            .pay(
                &chain,
                Address::from_label("bob"),
                Amount::from_units(10),
                Amount::ZERO,
            )
            .unwrap();
        // A conflicting double spend of the same inputs.
        let conflict = alice
            .pay(
                &chain,
                Address::from_label("carol"),
                Amount::from_units(10),
                Amount::ZERO,
            )
            .unwrap();
        miner.submit_transaction(&chain, good).unwrap();
        miner.submit_transaction(&chain, conflict).unwrap();
        let block = miner.mine(&mut chain, 1).unwrap().block;
        // Exactly one of the two conflicting spends confirmed.
        assert_eq!(block.transactions.len(), 2);
        let bob = chain.state().utxos.balance_of(&Address::from_label("bob"));
        let carol = chain
            .state()
            .utxos
            .balance_of(&Address::from_label("carol"));
        assert!(bob.is_zero() != carol.is_zero());
    }

    #[test]
    fn empty_pool_mines_empty_block() {
        let (mut chain, mut miner, _) = setup();
        let block = miner.mine(&mut chain, 1).unwrap().block;
        assert_eq!(block.transactions.len(), 1, "coinbase only");
        assert_eq!(chain.height(), 1);
    }

    #[test]
    fn precheck_failure_is_returned_and_counted() {
        let (mut chain, mut miner, _) = setup();
        let telemetry = Telemetry::in_memory();
        chain.set_telemetry(telemetry.clone());
        let coinbase = McTransaction::Coinbase(crate::transaction::CoinbaseTx {
            height: 1,
            outputs: vec![],
        });
        let expected = crate::pipeline::precheck_transaction(&coinbase).unwrap_err();
        let error = miner.submit_transaction(&chain, coinbase).unwrap_err();
        assert_eq!(error, expected);
        assert!(miner.mempool().is_empty(), "never occupies pool space");
        let counters = telemetry.snapshot().counters;
        assert_eq!(counters.get("mc.rejects"), Some(&1));
        assert_eq!(
            counters.get(&format!("mc.reject.{}", error.variant_name())),
            Some(&1)
        );
    }

    #[test]
    fn reorg_requeues_transactions() {
        let (mut chain, mut miner, alice) = setup();
        let fork_base_height = chain.height();
        let tx = alice
            .pay(
                &chain,
                Address::from_label("bob"),
                Amount::from_units(10),
                Amount::ZERO,
            )
            .unwrap();
        miner.submit_transaction(&chain, tx.clone()).unwrap();
        miner.mine(&mut chain, 1).unwrap();

        let disconnected = reorg_onto_empty_branch(&mut chain, &miner, fork_base_height);
        assert!(miner.on_reorg(&chain, &disconnected).is_empty());
        assert!(miner.mempool().contains(&tx.txid()), "tx back in the pool");
        // Mining again re-confirms it on the new branch.
        miner.mine(&mut chain, 92).unwrap();
        assert_eq!(
            chain.state().utxos.balance_of(&Address::from_label("bob")),
            Amount::from_units(10)
        );
    }

    #[test]
    fn reorg_requeues_at_the_recomputed_fee_rate() {
        let (_, mut miner, alice) = setup();
        let bob = Wallet::from_seed(b"bob");
        let mut chain = Blockchain::new(ChainParams {
            genesis_outputs: vec![
                TxOut::regular(alice.address(), Amount::from_units(100_000)),
                TxOut::regular(bob.address(), Amount::from_units(100_000)),
            ],
            ..ChainParams::default()
        });
        let paying = alice
            .pay(
                &chain,
                Address::from_label("carol"),
                Amount::from_units(10),
                Amount::from_units(500),
            )
            .unwrap();
        miner.submit_transaction(&chain, paying.clone()).unwrap();
        miner.mine(&mut chain, 1).unwrap();

        let disconnected = reorg_onto_empty_branch(&mut chain, &miner, 0);
        // A free transfer reaches the pool first ...
        let free = bob
            .pay(
                &chain,
                Address::from_label("carol"),
                Amount::from_units(10),
                Amount::ZERO,
            )
            .unwrap();
        miner.submit_transaction(&chain, free.clone()).unwrap();
        // ... and the disconnected fee payer still outranks it: its
        // inputs are unspent again, so its fee resolves as it did.
        miner.on_reorg(&chain, &disconnected);
        let block = miner.mine(&mut chain, 92).unwrap().block;
        assert_eq!(block.transactions[1..], [paying, free]);
    }
}
