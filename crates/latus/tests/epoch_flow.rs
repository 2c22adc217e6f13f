//! End-to-end lifecycle tests across both chains (experiments E8, E9,
//! E11, E12): forward transfers, sidechain payments, backward transfers,
//! certificate production with *real* recursive proofs accepted by the
//! *real* mainchain verifier, multi-epoch operation, BTR round-trips,
//! ceasing + CSW, and the Appendix-A historical-ownership escape hatch.

use std::collections::BTreeMap;
use std::sync::Arc;
use zendoo_core::epoch::EpochSchedule;
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_latus::consensus::ConsensusParams;
use zendoo_latus::node::{LatusKeys, LatusNode};
use zendoo_latus::params::LatusParams;
use zendoo_latus::tx::{PaymentTx, ReceiverMetadata, ScTransaction};
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::registry::SidechainStatus;
use zendoo_mainchain::transaction::{McTransaction, TxOut};
use zendoo_mainchain::wallet::Wallet;
use zendoo_primitives::schnorr::Keypair;

const EPOCH_LEN: u32 = 6;
const SUBMIT_LEN: u32 = 2;
const START_BLOCK: u64 = 2;
const MST_DEPTH: u32 = 16;

/// A two-chain test harness: one mainchain, one Latus node.
struct TwoChains {
    chain: Blockchain,
    node: LatusNode,
    mc_wallet: Wallet,
    sc_user: Keypair,
    sid: SidechainId,
    time: u64,
    /// MC height whose block the node processed last.
    synced_height: u64,
}

impl TwoChains {
    fn new() -> Self {
        let mc_wallet = Wallet::from_seed(b"mc-user");
        let sc_user = Keypair::from_seed(b"sc-user");
        let sid = SidechainId::from_label("latus-e2e");
        let params = LatusParams::new(sid, MST_DEPTH);
        let schedule = EpochSchedule::new(START_BLOCK, EPOCH_LEN, SUBMIT_LEN).unwrap();
        let keys = Arc::new(LatusKeys::generate(params, schedule, b"e2e-seed"));

        let chain_params = ChainParams {
            genesis_outputs: vec![TxOut::regular(
                mc_wallet.address(),
                Amount::from_units(1_000_000),
            )],
            ..ChainParams::default()
        };
        let mut chain = Blockchain::new(chain_params);

        // Declare the sidechain at height 1 (activation at height 2).
        let config = keys.sidechain_config(&params, schedule);
        chain
            .mine_next_block(
                mc_wallet.address(),
                vec![McTransaction::SidechainDeclaration(Box::new(config))],
                1,
            )
            .unwrap();

        // The node anchors its reference chain at the block before
        // start_block — height 1, the current tip.
        let anchor = chain.tip_hash();
        let forger = Keypair::from_seed(b"forger");
        let node = LatusNode::new(
            params,
            schedule,
            ConsensusParams::with_bootstrap(forger.public),
            keys,
            forger,
            anchor,
        );
        TwoChains {
            chain,
            node,
            mc_wallet,
            sc_user,
            sid,
            time: 1,
            synced_height: 1,
        }
    }

    /// Mines one MC block with `txs` and syncs the node to it.
    fn step(&mut self, txs: Vec<McTransaction>) {
        self.time += 1;
        let block = self
            .chain
            .mine_next_block(self.mc_wallet.address(), txs, self.time)
            .unwrap();
        self.synced_height += 1;
        assert_eq!(block.header.height, self.synced_height);
        self.node.sync_mainchain_block(&block).unwrap();
    }

    /// Runs MC blocks (and node sync) until the node's withdrawal epoch
    /// is complete, then produces + submits the certificate.
    fn run_epoch(&mut self, mut mc_txs: Vec<McTransaction>) -> zendoo_core::WithdrawalCertificate {
        while !self.node.epoch_complete() {
            let txs = std::mem::take(&mut mc_txs);
            self.step(txs);
        }
        let cert = self.node.produce_certificate().unwrap();
        // Submit in the next MC block (inside the submission window).
        self.step(vec![McTransaction::Certificate(Box::new(cert.clone()))]);
        cert
    }

    fn sc_address(&self) -> Address {
        Address::from_public_key(&self.sc_user.public)
    }

    fn sc_balance(&self) -> Amount {
        self.chain.state().registry.get(&self.sid).unwrap().balance
    }
}

#[test]
fn full_transfer_lifecycle_with_real_proofs() {
    let mut h = TwoChains::new();

    // --- Epoch 0: forward 500 coins to the sidechain.
    let meta = ReceiverMetadata {
        receiver: h.sc_address(),
        payback: h.mc_wallet.address(),
    };
    let ft = h
        .mc_wallet
        .forward_transfer(
            &h.chain,
            h.sid,
            meta.to_bytes(),
            Amount::from_units(500),
            Amount::ZERO,
        )
        .unwrap();
    let cert0 = h.run_epoch(vec![ft]);
    assert_eq!(cert0.epoch_id, 0);
    assert!(cert0.bt_list.is_empty());
    // The MC accepted the certificate (it is in the registry).
    let entry = h.chain.state().registry.get(&h.sid).unwrap();
    assert_eq!(entry.certificates.len(), 1);
    assert_eq!(h.sc_balance(), Amount::from_units(500));
    // The coins exist on the sidechain.
    assert_eq!(h.node.balance_of(&h.sc_address()), Amount::from_units(500));

    // --- Epoch 1: pay within the SC, then withdraw 200 back.
    let utxo = h.node.utxos_of(&h.sc_address())[0];
    let bob = Keypair::from_seed(b"bob");
    let bob_addr = Address::from_public_key(&bob.public);
    let pay = ScTransaction::Payment(PaymentTx::create(
        vec![(utxo, &h.sc_user.secret)],
        vec![
            (bob_addr, Amount::from_units(200)),
            (h.sc_address(), Amount::from_units(300)),
        ],
    ));
    h.node.submit_transaction(pay).unwrap();

    // Bob initiates a backward transfer of his 200 to an MC address.
    // (submit after the payment lands in the next SC block)
    h.step(vec![]);
    let bob_utxo = h.node.utxos_of(&bob_addr)[0];
    let bob_mc_addr = Address::from_label("bob-mainchain");
    let bt = ScTransaction::BackwardTransfer(zendoo_latus::tx::BackwardTransferTx::create(
        vec![(bob_utxo, &bob.secret)],
        vec![(bob_mc_addr, Amount::from_units(200))],
    ));
    h.node.submit_transaction(bt).unwrap();

    let cert1 = h.run_epoch(vec![]);
    assert_eq!(cert1.epoch_id, 1);
    assert_eq!(cert1.bt_list.len(), 1);
    assert_eq!(cert1.bt_list[0].receiver, bob_mc_addr);
    assert_eq!(cert1.bt_list[0].amount, Amount::from_units(200));

    // --- The payout matures when epoch 1's submission window closes.
    while h.chain.state().utxos.balance_of(&bob_mc_addr).is_zero() {
        h.step(vec![]);
    }
    assert_eq!(
        h.chain.state().utxos.balance_of(&bob_mc_addr),
        Amount::from_units(200)
    );
    // Safeguard balance decreased accordingly.
    assert_eq!(h.sc_balance(), Amount::from_units(300));

    // Conservation: MC utxo total + locked balances == minted.
    let state = h.chain.state();
    assert_eq!(
        state
            .utxos
            .total_value()
            .checked_add(state.registry.total_locked())
            .unwrap(),
        state.minted
    );
}

#[test]
fn btr_pre_validated_synced_and_fulfilled() {
    let mut h = TwoChains::new();
    // Fund the SC user.
    let meta = ReceiverMetadata {
        receiver: h.sc_address(),
        payback: h.mc_wallet.address(),
    };
    let ft = h
        .mc_wallet
        .forward_transfer(
            &h.chain,
            h.sid,
            meta.to_bytes(),
            Amount::from_units(400),
            Amount::ZERO,
        )
        .unwrap();
    let _cert0 = h.run_epoch(vec![ft]);

    // The user creates a BTR against the epoch-0 certificate's state
    // (e.g. because the SC censors their BT transactions).
    let utxo = h.node.utxos_of(&h.sc_address())[0];
    let mc_receiver = Address::from_label("rescued");
    let btr = h
        .node
        .create_btr(0, &utxo, &h.sc_user.secret, mc_receiver)
        .unwrap();

    // The MC pre-validates and accepts it (Def 4.5), consuming the
    // nullifier.
    h.step(vec![McTransaction::Btr(Box::new(btr.clone()))]);
    assert!(h
        .chain
        .state()
        .registry
        .nullifier_spent(&h.sid, &btr.nullifier));

    // Replay is rejected by the MC.
    h.time += 1;
    let replay = h.chain.mine_next_block(
        h.mc_wallet.address(),
        vec![McTransaction::Btr(Box::new(btr))],
        h.time,
    );
    assert!(replay.is_err());

    // The BTR was synchronized into the SC (it was in the block the node
    // just processed) and will be fulfilled: finish the epoch.
    let cert1 = h.run_epoch(vec![]);
    assert_eq!(cert1.epoch_id, 1);
    assert_eq!(cert1.bt_list.len(), 1, "BTR fulfilled via certificate");
    assert_eq!(cert1.bt_list[0].receiver, mc_receiver);
    assert_eq!(cert1.bt_list[0].amount, Amount::from_units(400));
    // The utxo is gone on the SC.
    assert!(h.node.utxos_of(&h.sc_address()).is_empty());

    // Payout after window close.
    while h.chain.state().utxos.balance_of(&mc_receiver).is_zero() {
        h.step(vec![]);
    }
    assert_eq!(
        h.chain.state().utxos.balance_of(&mc_receiver),
        Amount::from_units(400)
    );
}

#[test]
fn ceased_sidechain_csw_recovery() {
    let mut h = TwoChains::new();
    let meta = ReceiverMetadata {
        receiver: h.sc_address(),
        payback: h.mc_wallet.address(),
    };
    let ft = h
        .mc_wallet
        .forward_transfer(
            &h.chain,
            h.sid,
            meta.to_bytes(),
            Amount::from_units(250),
            Amount::ZERO,
        )
        .unwrap();
    let _cert0 = h.run_epoch(vec![ft]);
    let utxo = h.node.utxos_of(&h.sc_address())[0];

    // The sidechain "dies": no certificate for epoch 1. Mine past the
    // window without syncing certs.
    let ceasing_height = {
        let entry = h.chain.state().registry.get(&h.sid).unwrap();
        entry.config.schedule.ceasing_height(1)
    };
    while h.chain.height() < ceasing_height {
        h.time += 1;
        h.chain
            .mine_next_block(h.mc_wallet.address(), vec![], h.time)
            .unwrap();
    }
    assert_eq!(
        h.chain.state().registry.get(&h.sid).unwrap().status,
        SidechainStatus::Ceased
    );

    // The user recovers via CSW, anchored to the epoch-0 certificate.
    let rescue = Address::from_label("rescue");
    let csw = h
        .node
        .create_csw(0, &utxo, &h.sc_user.secret, rescue)
        .unwrap();
    h.time += 1;
    h.chain
        .mine_next_block(
            h.mc_wallet.address(),
            vec![McTransaction::Csw(Box::new(csw.clone()))],
            h.time,
        )
        .unwrap();
    assert_eq!(
        h.chain.state().utxos.balance_of(&rescue),
        Amount::from_units(250)
    );
    assert_eq!(h.sc_balance(), Amount::ZERO);

    // Double-claim rejected by the nullifier set.
    h.time += 1;
    assert!(h
        .chain
        .mine_next_block(
            h.mc_wallet.address(),
            vec![McTransaction::Csw(Box::new(csw))],
            h.time,
        )
        .is_err());
}

#[test]
fn historical_csw_survives_data_withholding() {
    // E11 / Appendix A: ownership proven at epoch 0, then delta links
    // across epoch 1 show the slot untouched — the user never needs the
    // (withheld) epoch-1 state.
    let mut h = TwoChains::new();
    let meta = ReceiverMetadata {
        receiver: h.sc_address(),
        payback: h.mc_wallet.address(),
    };
    let ft = h
        .mc_wallet
        .forward_transfer(
            &h.chain,
            h.sid,
            meta.to_bytes(),
            Amount::from_units(123),
            Amount::ZERO,
        )
        .unwrap();
    let _cert0 = h.run_epoch(vec![ft]);
    let utxo = h.node.utxos_of(&h.sc_address())[0];

    // Epoch 1 passes with unrelated activity (none touching our slot).
    let cert1 = h.run_epoch(vec![]);
    assert_eq!(cert1.epoch_id, 1);

    // The sidechain then ceases (no certificate for epoch 2).
    let ceasing_height = {
        let entry = h.chain.state().registry.get(&h.sid).unwrap();
        entry.config.schedule.ceasing_height(2)
    };
    while h.chain.height() < ceasing_height {
        h.time += 1;
        h.chain
            .mine_next_block(h.mc_wallet.address(), vec![], h.time)
            .unwrap();
    }

    // The user holds only: their utxo, the public certs, and the public
    // epoch deltas (broadcast with each certificate).
    let mut deltas = BTreeMap::new();
    deltas.insert(1u32, h.node.epoch_delta(1).unwrap().clone());
    let rescue = Address::from_label("survivor");
    let csw = h
        .node
        .create_historical_csw(0, 1, &utxo, &h.sc_user.secret, rescue, &deltas)
        .unwrap();
    h.time += 1;
    h.chain
        .mine_next_block(
            h.mc_wallet.address(),
            vec![McTransaction::Csw(Box::new(csw))],
            h.time,
        )
        .unwrap();
    assert_eq!(
        h.chain.state().utxos.balance_of(&rescue),
        Amount::from_units(123)
    );
}

#[test]
fn multi_epoch_chain_of_certificates() {
    let mut h = TwoChains::new();
    let meta = ReceiverMetadata {
        receiver: h.sc_address(),
        payback: h.mc_wallet.address(),
    };
    let ft = h
        .mc_wallet
        .forward_transfer(
            &h.chain,
            h.sid,
            meta.to_bytes(),
            Amount::from_units(100),
            Amount::ZERO,
        )
        .unwrap();
    let mut pending = vec![ft];
    for epoch in 0u32..4 {
        let cert = h.run_epoch(std::mem::take(&mut pending));
        assert_eq!(cert.epoch_id, epoch);
        // Quality strictly increases (it is the SC chain height).
        if epoch > 0 {
            let prev = h.node.certificate_for(epoch - 1).unwrap();
            assert!(cert.quality > prev.quality);
        }
    }
    assert_eq!(
        h.chain.state().registry.get(&h.sid).unwrap().status,
        SidechainStatus::Active
    );
    assert_eq!(h.node.balance_of(&h.sc_address()), Amount::from_units(100));
}

#[test]
fn mainchain_reorg_rolls_back_sidechain() {
    // E7's binding property: when the MC reorganizes, the SC node
    // reverts blocks referencing the abandoned branch.
    let mut h = TwoChains::new();
    let fork_base_height = h.chain.height();
    let fork_base = h.chain.tip_hash();

    // Branch A: one block with an FT, synced by the node.
    let meta = ReceiverMetadata {
        receiver: h.sc_address(),
        payback: h.mc_wallet.address(),
    };
    let ft = h
        .mc_wallet
        .forward_transfer(
            &h.chain,
            h.sid,
            meta.to_bytes(),
            Amount::from_units(77),
            Amount::ZERO,
        )
        .unwrap();
    h.step(vec![ft]);
    assert_eq!(h.node.balance_of(&h.sc_address()), Amount::from_units(77));

    // Branch B (heavier): two empty blocks from the fork base.
    let mut alt = Blockchain::new(h.chain.params().clone());
    for height in 1..=fork_base_height {
        alt.submit_block(h.chain.block_at_height(height).unwrap().clone())
            .unwrap();
    }
    let b1 = alt
        .mine_next_block(h.mc_wallet.address(), vec![], 800)
        .unwrap();
    let b2 = alt
        .mine_next_block(h.mc_wallet.address(), vec![], 801)
        .unwrap();
    h.chain.submit_block(b1.clone()).unwrap();
    h.chain.submit_block(b2.clone()).unwrap();

    // The node observes the reorg: roll back to the fork base and
    // re-sync the new branch.
    let reverted = h.node.rollback_to_mc(&fork_base).unwrap();
    assert_eq!(reverted, 1);
    assert_eq!(h.node.balance_of(&h.sc_address()), Amount::ZERO);
    h.node.sync_mainchain_block(&b1).unwrap();
    h.node.sync_mainchain_block(&b2).unwrap();
    h.synced_height = h.chain.height();
    assert_eq!(h.node.chain().len(), 2, "one block per new-branch MC block");
}

/// The memory model after the persistent tree: rollback snapshots are
/// bounded by the mainchain's reorg horizon, a snapshot of the state is a
/// root handle sharing every untouched subtree with the live tree, and a
/// closed epoch's MST — another handle — still serves a withdrawal proof
/// after two later epochs of writes.
#[test]
fn snapshots_are_handles_bounded_by_the_reorg_horizon() {
    const HORIZON: usize = 4;
    let mut h = TwoChains::new();
    h.node.set_reorg_horizon(HORIZON);

    // One deposit a block, to a fresh receiver each time (the first one
    // is the user whose coin is withdrawn at the end).
    let mut deposits = 0u32;
    let mut deposit = |h: &mut TwoChains| {
        let receiver = if deposits == 0 {
            h.sc_address()
        } else {
            Address::from_label(&format!("depositor-{deposits}"))
        };
        deposits += 1;
        let meta = ReceiverMetadata {
            receiver,
            payback: h.mc_wallet.address(),
        };
        h.mc_wallet
            .forward_transfer(
                &h.chain,
                h.sid,
                meta.to_bytes(),
                Amount::from_units(100),
                Amount::ZERO,
            )
            .unwrap()
    };
    let mut certs = Vec::new();
    let mut tips = vec![h.chain.tip_hash()];
    for _epoch in 0..3 {
        while !h.node.epoch_complete() {
            let before = h.node.state().mst().clone();
            let ft = deposit(&mut h);
            h.step(vec![ft]);
            tips.push(h.chain.tip_hash());
            assert!(h.node.snapshot_count() <= HORIZON);

            // The pre-block handle still answers for the pre-block tree,
            // and the block copied one path beside it.
            let live = h.node.state().mst();
            assert_eq!(live.len(), before.len() + 1);
            assert_ne!(live.root(), before.root());
            let copied = live.unshared_nodes(&before);
            assert!(
                (1..=MST_DEPTH as usize + 2).contains(&copied),
                "one mint copied {copied} nodes"
            );
            if before.len() >= 8 {
                let all = live.unshared_nodes(&zendoo_latus::mst::Mst::new(MST_DEPTH));
                assert!(copied * 2 < all, "{copied} of {all} nodes copied");
            }
        }
        let cert = h.node.produce_certificate().unwrap();
        h.step(vec![McTransaction::Certificate(Box::new(cert.clone()))]);
        tips.push(h.chain.tip_hash());
        certs.push(cert);
    }
    assert_eq!(h.node.snapshot_count(), HORIZON);

    // Epoch 0's tree is what its certificate committed, untouched by the
    // two epochs of deposits since, and proves the first coin.
    let coin = h.node.utxos_of(&h.sc_address())[0];
    let position = zendoo_latus::mst::mst_position(&coin, MST_DEPTH);
    let (_, root0, _) = zendoo_latus::cert::parse_wcert_proofdata(&certs[0].proofdata).unwrap();
    let archived = h.node.epoch_mst(0).unwrap();
    assert_eq!(archived.root(), root0);
    assert_ne!(archived.root(), h.node.state().mst().root());
    assert!(archived.len() < h.node.state().mst().len());
    assert!(archived
        .proof(position)
        .verify_occupied(&root0, &coin.leaf()));
    h.node
        .create_btr(0, &coin, &h.sc_user.secret, Address::from_label("exit"))
        .expect("the epoch-0 handle serves the withdrawal proof");

    // A fork inside the horizon can be rolled back; one beyond it has
    // no snapshot left to land on.
    let n = tips.len();
    assert!(h.node.rollback_to_mc(&tips[n - 1 - HORIZON - 1]).is_err());
    assert_eq!(
        h.node.rollback_to_mc(&tips[n - 1 - HORIZON]).unwrap(),
        HORIZON
    );
    assert_eq!(h.node.snapshot_count(), 0);
}
