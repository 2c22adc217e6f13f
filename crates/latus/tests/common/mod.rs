#![allow(dead_code)]

//! Shared two-chain test harness: one mainchain, one Latus node.

use std::sync::Arc;
use zendoo_core::epoch::EpochSchedule;
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_latus::block::ScBlock;
use zendoo_latus::consensus::ConsensusParams;
use zendoo_latus::node::{LatusKeys, LatusNode};
use zendoo_latus::params::LatusParams;
use zendoo_latus::tx::ReceiverMetadata;
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::transaction::{McTransaction, TxOut};
use zendoo_mainchain::wallet::Wallet;
use zendoo_primitives::schnorr::Keypair;

pub const EPOCH_LEN: u32 = 6;
pub const SUBMIT_LEN: u32 = 2;
pub const START_BLOCK: u64 = 2;
pub const MST_DEPTH: u32 = 16;
/// The seed of the harness forger's key, the chain's bootstrap
/// authority.
pub const FORGER_SEED: &[u8] = b"forger";

/// Re-roots a tampered block over its body and re-signs its header as
/// the harness forger would, so that only the tampering is wrong.
pub fn reseal(block: &mut ScBlock) {
    block.header.tx_root = block.compute_tx_root();
    block.header.sign(&Keypair::from_seed(FORGER_SEED).secret);
}

/// A two-chain test harness.
pub struct TwoChains {
    pub chain: Blockchain,
    pub node: LatusNode,
    pub keys: Arc<LatusKeys>,
    pub mc_wallet: Wallet,
    pub sc_user: Keypair,
    pub sid: SidechainId,
    pub schedule: EpochSchedule,
    pub time: u64,
}

impl TwoChains {
    pub fn new(label: &str) -> Self {
        let mc_wallet = Wallet::from_seed(b"mc-user");
        let sc_user = Keypair::from_seed(b"sc-user");
        let sid = SidechainId::from_label(label);
        let params = LatusParams::new(sid, MST_DEPTH);
        let schedule = EpochSchedule::new(START_BLOCK, EPOCH_LEN, SUBMIT_LEN).unwrap();
        let keys = Arc::new(LatusKeys::generate(params, schedule, b"harness-seed"));

        let chain_params = ChainParams {
            genesis_outputs: vec![TxOut::regular(
                mc_wallet.address(),
                Amount::from_units(1_000_000),
            )],
            ..ChainParams::default()
        };
        let mut chain = Blockchain::new(chain_params);
        let config = keys.sidechain_config(&params, schedule);
        chain
            .mine_next_block(
                mc_wallet.address(),
                vec![McTransaction::SidechainDeclaration(Box::new(config))],
                1,
            )
            .unwrap();
        let anchor = chain.tip_hash();
        let forger = Keypair::from_seed(FORGER_SEED);
        let node = LatusNode::new(
            params,
            schedule,
            ConsensusParams::with_bootstrap(forger.public),
            Arc::clone(&keys),
            forger,
            anchor,
        );
        TwoChains {
            chain,
            node,
            keys,
            mc_wallet,
            sc_user,
            sid,
            schedule,
            time: 1,
        }
    }

    /// Mines one MC block with `txs` and syncs the node to it.
    pub fn step(&mut self, txs: Vec<McTransaction>) -> zendoo_mainchain::Block {
        self.time += 1;
        let block = self
            .chain
            .mine_next_block(self.mc_wallet.address(), txs, self.time)
            .unwrap();
        self.node
            .sync_mainchain_block(&block, &Blockchain::build_commitment(&block.transactions))
            .unwrap();
        block
    }

    /// Runs MC blocks until the node's epoch is complete, produces and
    /// submits the certificate.
    pub fn run_epoch(
        &mut self,
        mut mc_txs: Vec<McTransaction>,
    ) -> zendoo_core::WithdrawalCertificate {
        while !self.node.epoch_complete() {
            let txs = std::mem::take(&mut mc_txs);
            self.step(txs);
        }
        let cert = self.node.produce_certificate().unwrap();
        self.step(vec![McTransaction::Certificate(Box::new(cert.clone()))]);
        cert
    }

    /// Funds the SC user with a forward transfer and certifies epoch 0.
    pub fn bootstrap_funded(&mut self, amount: u64) -> zendoo_core::WithdrawalCertificate {
        let meta = ReceiverMetadata {
            receiver: self.sc_address(),
            payback: self.mc_wallet.address(),
        };
        let ft = self
            .mc_wallet
            .forward_transfer(
                &self.chain,
                self.sid,
                meta.to_bytes(),
                Amount::from_units(amount),
                Amount::ZERO,
            )
            .unwrap();
        self.run_epoch(vec![ft])
    }

    pub fn sc_address(&self) -> Address {
        Address::from_public_key(&self.sc_user.public)
    }

    pub fn sc_balance(&self) -> Amount {
        self.chain.state().registry.get(&self.sid).unwrap().balance
    }

    /// Mines empty MC blocks (without node sync) until `height`.
    pub fn mine_unsynced_to(&mut self, height: u64) {
        while self.chain.height() < height {
            self.time += 1;
            self.chain
                .mine_next_block(self.mc_wallet.address(), vec![], self.time)
                .unwrap();
        }
    }

    /// Submits a single MC transaction in a fresh block, returning the
    /// result (does not sync the node — for rejection tests).
    pub fn try_submit(
        &mut self,
        tx: McTransaction,
    ) -> Result<zendoo_mainchain::Block, zendoo_mainchain::BlockError> {
        self.time += 1;
        self.chain
            .mine_next_block(self.mc_wallet.address(), vec![tx], self.time)
    }
}
