//! A mainchain miner: pulls transactions from a mempool, assembles and
//! mines blocks, and keeps the pool consistent across connections and
//! reorgs.

use zendoo_core::ids::Address;
use zendoo_primitives::digest::Digest32;
use zendoo_telemetry::Telemetry;

use crate::block::Block;
use crate::chain::{BlockCandidates, BlockError, Blockchain, SubmitOutcome};
use crate::mempool::Mempool;
use crate::sigbatch::{self, AdmissionReport};
use crate::transaction::McTransaction;

/// A miner bound to an address, driving a [`Blockchain`] from a
/// [`Mempool`].
///
/// # Examples
///
/// ```
/// use zendoo_mainchain::chain::{Blockchain, ChainParams};
/// use zendoo_mainchain::miner::Miner;
/// use zendoo_mainchain::wallet::Wallet;
///
/// let mut chain = Blockchain::new(ChainParams::default());
/// let mut miner = Miner::new(Wallet::from_seed(b"miner").address());
/// let block = miner.mine(&mut chain, 1).unwrap();
/// assert_eq!(chain.tip_hash(), block.hash());
/// ```
#[derive(Debug)]
pub struct Miner {
    address: Address,
    mempool: Mempool,
    /// Maximum transactions per block (excluding the coinbase).
    pub max_txs_per_block: usize,
    telemetry: Telemetry,
}

impl Miner {
    /// Creates a miner paying rewards to `address`.
    pub fn new(address: Address) -> Self {
        Miner {
            address,
            mempool: Mempool::new(),
            max_txs_per_block: 1_000,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (share the chain's so admission
    /// rejections land on the same `mc.reject.*` counters as pipeline
    /// rejections). The default is [`Telemetry::disabled`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The reward address.
    pub fn address(&self) -> Address {
        self.address
    }

    /// Access to the mempool.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Queues a transaction for inclusion. Stage-1 stateless prechecks
    /// run at admission, so structurally invalid submissions (coinbases,
    /// empty transfers, malformed declarations, forged settlement
    /// batches) never occupy pool space.
    pub fn submit_transaction(&mut self, tx: McTransaction) -> bool {
        if let Err(error) = crate::pipeline::precheck_transaction(&tx) {
            // Admission rejections count on the same per-variant
            // counters as pipeline rejections — historically they were
            // silently dropped here and undercounted.
            if self.telemetry.is_enabled() {
                self.telemetry.counter("mc.mempool.rejected", 1);
                self.telemetry
                    .counter(&format!("mc.reject.{}", error.variant_name()), 1);
            }
            return false;
        }
        self.mempool.insert(tx)
    }

    /// Admits a whole batch through the fee-aware, batch-verified
    /// admission path ([`crate::sigbatch::admit_batch_with`]): stage-1
    /// precheck, input resolution against `chain`'s UTXO set (which
    /// establishes each transaction's fee for the pool's priority
    /// index), all signatures verified on scoped worker threads, and
    /// the verdicts cached so [`Miner::mine`]'s dry run re-verifies
    /// nothing. One lane per core by default
    /// ([`zendoo_snark::batch::default_workers`]).
    pub fn submit_batch(&mut self, chain: &Blockchain, txs: Vec<McTransaction>) -> AdmissionReport {
        let workers = zendoo_snark::batch::default_workers(txs.len());
        let telemetry = self.telemetry.clone();
        sigbatch::admit_batch_with(
            &mut self.mempool,
            chain.state(),
            txs,
            workers,
            &telemetry,
            |_, error| {
                if telemetry.is_enabled() {
                    telemetry.counter("mc.mempool.rejected", 1);
                    telemetry.counter(&format!("mc.reject.{}", error.variant_name()), 1);
                }
            },
        )
    }

    /// Assembles, mines and submits the next block in one pass
    /// ([`Blockchain::prepare_block`]): candidates the chain rejects are
    /// dropped from the pool, and every proof verified while building
    /// travels with the block ([`Blockchain::submit`]) instead of being
    /// verified a second time.
    ///
    /// # Errors
    ///
    /// Propagates chain errors other than per-transaction rejections.
    pub fn mine(&mut self, chain: &mut Blockchain, time: u64) -> Result<Block, BlockError> {
        let batch = self.mempool.take_ordered(self.max_txs_per_block);
        let candidates = BlockCandidates::admitted(batch.txs, batch.sig_verdicts);
        let prepared = chain.prepare_block(self.address, candidates, time)?;
        let block = prepared.block;
        let confirmed: Vec<Digest32> = block.transactions.iter().map(|t| t.txid()).collect();
        match chain.submit(block.clone(), Some(prepared.verdicts), prepared.proof)? {
            SubmitOutcome::ExtendedActiveChain | SubmitOutcome::Reorganized { .. } => {
                self.mempool.remove_confirmed(&confirmed);
            }
            SubmitOutcome::StoredOnFork => {}
        }
        Ok(block)
    }

    /// Handles a reorg notification: transactions from disconnected
    /// blocks re-enter the pool.
    pub fn on_reorg(&mut self, chain: &Blockchain, disconnected: &[Digest32]) {
        for hash in disconnected {
            if let Some(block) = chain.block(hash) {
                // Skip coinbases; they are branch-specific.
                self.mempool
                    .reinsert_all(block.transactions.iter().skip(1).cloned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainParams;
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
        let miner = Miner::new(Wallet::from_seed(b"miner").address());
        (chain, miner, alice)
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
        assert!(miner.submit_transaction(tx));
        let block = miner.mine(&mut chain, 1).unwrap();
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
        miner.submit_transaction(good);
        miner.submit_transaction(conflict);
        let block = miner.mine(&mut chain, 1).unwrap();
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
        let block = miner.mine(&mut chain, 1).unwrap();
        assert_eq!(block.transactions.len(), 1, "coinbase only");
        assert_eq!(chain.height(), 1);
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
        miner.submit_transaction(tx.clone());
        miner.mine(&mut chain, 1).unwrap();

        // Competing heavier branch without the tx.
        let mut alt = Blockchain::new(chain.params().clone());
        for h in 1..=fork_base_height {
            alt.submit_block(chain.block_at_height(h).unwrap().clone())
                .unwrap();
        }
        let b1 = alt.mine_next_block(miner.address(), vec![], 90).unwrap();
        let b2 = alt.mine_next_block(miner.address(), vec![], 91).unwrap();
        chain.submit_block(b1).unwrap();
        let outcome = chain.submit_block(b2).unwrap();
        if let SubmitOutcome::Reorganized { disconnected, .. } = outcome {
            miner.on_reorg(&chain, &disconnected);
        } else {
            panic!("expected reorg");
        }
        assert!(miner.mempool().contains(&tx.txid()), "tx back in the pool");
        // Mining again re-confirms it on the new branch.
        miner.mine(&mut chain, 92).unwrap();
        assert_eq!(
            chain.state().utxos.balance_of(&Address::from_label("bob")),
            Amount::from_units(10)
        );
    }
}
