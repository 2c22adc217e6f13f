//! Behavioral tests of the mainchain state machine: mining, transfers,
//! forward transfers, certificate windows, quality replacement, ceasing,
//! CSW, nullifiers, the safeguard, and reorgs.
//!
//! Certificates here are produced with a *permissive* sidechain circuit
//! (`AcceptAll`) — these tests exercise the mainchain rules, not the
//! Latus circuits (those live in the zendoo-latus crate).

use zendoo_core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo_core::config::{SidechainConfig, SidechainConfigBuilder};
use zendoo_core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo_core::proofdata::ProofData;
use zendoo_core::transfer::BackwardTransfer;
use zendoo_core::withdrawal::{btr_public_inputs, BtrSysData, CeasedSidechainWithdrawal};
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::registry::SidechainStatus;
use zendoo_mainchain::transaction::{McTransaction, TxOut};
use zendoo_mainchain::wallet::Wallet;
use zendoo_primitives::digest::Digest32;
use zendoo_snark::backend::{prove, setup_deterministic, ProvingKey};
use zendoo_snark::circuit::{Circuit, Unsatisfied};
use zendoo_snark::inputs::PublicInputs;

/// Permissive circuit standing in for a sidechain-defined SNARK.
struct AcceptAll(&'static str);

impl Circuit for AcceptAll {
    type Witness = ();

    fn id(&self) -> Digest32 {
        Digest32::hash_bytes(self.0.as_bytes())
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Ok(())
    }
}

struct Harness {
    chain: Blockchain,
    miner: Wallet,
    alice: Wallet,
    sc_id: SidechainId,
    config: SidechainConfig,
    wcert_pk: ProvingKey,
    csw_pk: ProvingKey,
    time: u64,
}

impl Harness {
    /// Chain with a funded alice; sidechain declared at height 1,
    /// activating at height 5, epochs of 10 blocks, submit window 3.
    fn new() -> Self {
        let miner = Wallet::from_seed(b"miner");
        let alice = Wallet::from_seed(b"alice");
        let params = ChainParams {
            genesis_outputs: vec![TxOut::regular(
                alice.address(),
                Amount::from_units(1_000_000),
            )],
            ..ChainParams::default()
        };
        let mut chain = Blockchain::new(params);

        let (wcert_pk, wcert_vk) = setup_deterministic(&AcceptAll("wcert"), b"h");
        let (_, btr_vk) = setup_deterministic(&AcceptAll("btr"), b"h");
        let (csw_pk, csw_vk) = setup_deterministic(&AcceptAll("csw"), b"h");
        let sc_id = SidechainId::from_label("test-sc");
        let config = SidechainConfigBuilder::new(sc_id, wcert_vk)
            .start_block(5)
            .epoch_len(10)
            .submit_len(3)
            .btr_vk(btr_vk)
            .csw_vk(csw_vk)
            .build()
            .unwrap();
        let declaration = McTransaction::SidechainDeclaration(Box::new(config.clone()));
        chain
            .mine_next_block(miner.address(), vec![declaration], 1)
            .unwrap();
        Harness {
            chain,
            miner,
            alice,
            sc_id,
            config,
            wcert_pk,
            csw_pk,
            time: 1,
        }
    }

    fn mine_empty(&mut self, n: u64) {
        for _ in 0..n {
            self.time += 1;
            self.chain
                .mine_next_block(self.miner.address(), vec![], self.time)
                .unwrap();
        }
    }

    fn mine_to_height(&mut self, height: u64) {
        assert!(height >= self.chain.height());
        let n = height - self.chain.height();
        self.mine_empty(n);
    }

    /// Builds a certificate for `epoch` with a valid (permissive) proof
    /// anchored to the harness chain's epoch boundary blocks.
    fn certificate(
        &self,
        epoch: u32,
        quality: u64,
        bts: Vec<BackwardTransfer>,
    ) -> WithdrawalCertificate {
        let schedule = self.config.schedule;
        let prev_end = if epoch == 0 {
            self.chain
                .hash_at_height(schedule.start_block() - 1)
                .unwrap()
        } else {
            self.chain
                .hash_at_height(schedule.epoch_last_height(epoch - 1))
                .unwrap()
        };
        let epoch_end = self
            .chain
            .hash_at_height(schedule.epoch_last_height(epoch))
            .unwrap();
        let mut cert = WithdrawalCertificate {
            sidechain_id: self.sc_id,
            epoch_id: epoch,
            quality,
            bt_list: bts,
            proofdata: ProofData::empty(),
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
        };
        let sysdata = WcertSysData::for_certificate(&cert, prev_end, epoch_end);
        let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
        cert.proof = prove(&self.wcert_pk, &AcceptAll("wcert"), &inputs, &()).unwrap();
        cert
    }

    fn csw(
        &self,
        receiver: Address,
        amount: u64,
        nullifier_seed: &[u8],
    ) -> CeasedSidechainWithdrawal {
        let entry = self.chain.state().registry.get(&self.sc_id).unwrap();
        let anchor = entry.last_certificate_block();
        let mut csw = CeasedSidechainWithdrawal {
            sidechain_id: self.sc_id,
            receiver,
            amount: Amount::from_units(amount),
            nullifier: Nullifier::from_utxo_digest(&Digest32::hash_bytes(nullifier_seed)),
            proofdata: ProofData::empty(),
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
        };
        let sysdata = BtrSysData {
            last_cert_block: anchor,
            nullifier: csw.nullifier,
            receiver: csw.receiver,
            amount: csw.amount,
        };
        let inputs = btr_public_inputs(&sysdata, &csw.proofdata.merkle_root());
        csw.proof = prove(&self.csw_pk, &AcceptAll("csw"), &inputs, &()).unwrap();
        csw
    }

    fn submit_tx(&mut self, tx: McTransaction) -> Result<(), zendoo_mainchain::BlockError> {
        self.time += 1;
        self.chain
            .mine_next_block(self.miner.address(), vec![tx], self.time)
            .map(|_| ())
    }

    fn sc_balance(&self) -> Amount {
        self.chain
            .state()
            .registry
            .get(&self.sc_id)
            .unwrap()
            .balance
    }

    fn sc_status(&self) -> SidechainStatus {
        self.chain.state().registry.get(&self.sc_id).unwrap().status
    }
}

#[test]
fn mining_credits_subsidy_and_fees() {
    let mut h = Harness::new();
    let before = h.miner.balance(&h.chain);
    let tx = h
        .alice
        .pay(
            &h.chain,
            Address::from_label("bob"),
            Amount::from_units(100),
            Amount::from_units(7),
        )
        .unwrap();
    h.submit_tx(tx).unwrap();
    let after = h.miner.balance(&h.chain);
    let subsidy = h.chain.params().block_subsidy;
    assert_eq!(
        after.checked_sub(before).unwrap(),
        subsidy.checked_add(Amount::from_units(7)).unwrap()
    );
}

#[test]
fn conservation_invariant_holds() {
    let mut h = Harness::new();
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![1, 2],
            Amount::from_units(5_000),
            Amount::from_units(3),
        )
        .unwrap();
    h.submit_tx(ft).unwrap();
    h.mine_empty(5);
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
fn forward_transfer_credits_sidechain_balance() {
    let mut h = Harness::new();
    assert_eq!(h.sc_balance(), Amount::ZERO);
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![],
            Amount::from_units(42),
            Amount::ZERO,
        )
        .unwrap();
    h.submit_tx(ft).unwrap();
    assert_eq!(h.sc_balance(), Amount::from_units(42));
}

#[test]
fn forward_transfer_to_unknown_sidechain_rejected() {
    let mut h = Harness::new();
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            SidechainId::from_label("nope"),
            vec![],
            Amount::from_units(42),
            Amount::ZERO,
        )
        .unwrap();
    assert!(h.submit_tx(ft).is_err());
}

#[test]
fn certificate_accepted_only_in_window() {
    let mut h = Harness::new();
    // Fund the sidechain so BTs are coverable.
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![],
            Amount::from_units(1_000),
            Amount::ZERO,
        )
        .unwrap();
    h.submit_tx(ft).unwrap();
    // Epoch 0 spans heights 5..=14; window for epoch 0 is 15..18.
    h.mine_to_height(14);
    let cert = h.certificate(0, 1, vec![]);
    // Too early: height 15 would be the next block… mine_next at height 15 is allowed.
    // First try *before* the window: submit at height 14+1=15 is IN window.
    // To test "too early", attempt epoch 1's certificate now.
    let early = h.certificate_quiet(1, 1);
    assert!(h
        .submit_tx(McTransaction::Certificate(Box::new(early)))
        .is_err());
    // In-window certificate accepted (lands at height 15).
    h.submit_tx(McTransaction::Certificate(Box::new(cert)))
        .unwrap();
    assert_eq!(h.sc_status(), SidechainStatus::Active);
}

impl Harness {
    /// A certificate whose boundary blocks may not exist yet (for
    /// negative tests): falls back to zero hashes.
    fn certificate_quiet(&self, epoch: u32, quality: u64) -> WithdrawalCertificate {
        let schedule = self.config.schedule;
        let prev_end = self
            .chain
            .hash_at_height(if epoch == 0 {
                schedule.start_block().saturating_sub(1)
            } else {
                schedule.epoch_last_height(epoch - 1)
            })
            .unwrap_or(Digest32::ZERO);
        let epoch_end = self
            .chain
            .hash_at_height(schedule.epoch_last_height(epoch))
            .unwrap_or(Digest32::ZERO);
        let mut cert = WithdrawalCertificate {
            sidechain_id: self.sc_id,
            epoch_id: epoch,
            quality,
            bt_list: vec![],
            proofdata: ProofData::empty(),
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
        };
        let sysdata = WcertSysData::for_certificate(&cert, prev_end, epoch_end);
        let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
        cert.proof = prove(&self.wcert_pk, &AcceptAll("wcert"), &inputs, &()).unwrap();
        cert
    }
}

#[test]
fn late_certificate_rejected_and_sidechain_ceases() {
    let mut h = Harness::new();
    // Skip the whole window for epoch 0 (heights 15..17).
    h.mine_to_height(18);
    assert_eq!(h.sc_status(), SidechainStatus::Ceased);
    let late = h.certificate(0, 1, vec![]);
    assert!(h
        .submit_tx(McTransaction::Certificate(Box::new(late)))
        .is_err());
}

#[test]
fn higher_quality_certificate_replaces_and_pays() {
    let mut h = Harness::new();
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![],
            Amount::from_units(1_000),
            Amount::ZERO,
        )
        .unwrap();
    h.submit_tx(ft).unwrap();
    h.mine_to_height(14);

    let loser_addr = Address::from_label("loser");
    let winner_addr = Address::from_label("winner");
    let low = h.certificate(
        0,
        1,
        vec![BackwardTransfer {
            receiver: loser_addr,
            amount: Amount::from_units(100),
        }],
    );
    let high = h.certificate(
        0,
        2,
        vec![BackwardTransfer {
            receiver: winner_addr,
            amount: Amount::from_units(200),
        }],
    );
    h.submit_tx(McTransaction::Certificate(Box::new(low)))
        .unwrap();
    // Equal quality rejected.
    let equal = h.certificate(0, 1, vec![]);
    assert!(h
        .submit_tx(McTransaction::Certificate(Box::new(equal)))
        .is_err());
    h.submit_tx(McTransaction::Certificate(Box::new(high)))
        .unwrap();
    // Window closes at height 18; payout matures then.
    h.mine_to_height(18);
    assert_eq!(
        h.chain.state().utxos.balance_of(&winner_addr),
        Amount::from_units(200)
    );
    assert_eq!(h.chain.state().utxos.balance_of(&loser_addr), Amount::ZERO);
    assert_eq!(h.sc_balance(), Amount::from_units(800));
}

#[test]
fn safeguard_rejects_overdraw() {
    let mut h = Harness::new();
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![],
            Amount::from_units(100),
            Amount::ZERO,
        )
        .unwrap();
    h.submit_tx(ft).unwrap();
    h.mine_to_height(14);
    let greedy = h.certificate(
        0,
        1,
        vec![BackwardTransfer {
            receiver: Address::from_label("thief"),
            amount: Amount::from_units(101),
        }],
    );
    let err = h
        .submit_tx(McTransaction::Certificate(Box::new(greedy)))
        .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("safeguard"), "got: {msg}");
}

#[test]
fn csw_flow_after_ceasing() {
    let mut h = Harness::new();
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![],
            Amount::from_units(500),
            Amount::ZERO,
        )
        .unwrap();
    h.submit_tx(ft).unwrap();
    // Let the sidechain cease (no certificate for epoch 0).
    h.mine_to_height(18);
    assert_eq!(h.sc_status(), SidechainStatus::Ceased);

    let user = Address::from_label("survivor");
    let csw = h.csw(user, 300, b"utxo-1");
    h.submit_tx(McTransaction::Csw(Box::new(csw.clone())))
        .unwrap();
    assert_eq!(
        h.chain.state().utxos.balance_of(&user),
        Amount::from_units(300)
    );
    assert_eq!(h.sc_balance(), Amount::from_units(200));

    // Nullifier replay rejected.
    let replay = h.csw(user, 100, b"utxo-1");
    assert!(h.submit_tx(McTransaction::Csw(Box::new(replay))).is_err());

    // Safeguard on CSW.
    let greedy = h.csw(user, 201, b"utxo-2");
    assert!(h.submit_tx(McTransaction::Csw(Box::new(greedy))).is_err());
}

#[test]
fn csw_rejected_while_active() {
    let mut h = Harness::new();
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![],
            Amount::from_units(500),
            Amount::ZERO,
        )
        .unwrap();
    h.submit_tx(ft).unwrap();
    let csw = h.csw(Address::from_label("u"), 10, b"utxo");
    assert!(h.submit_tx(McTransaction::Csw(Box::new(csw))).is_err());
}

#[test]
fn reorg_rolls_back_sidechain_state() {
    let mut h = Harness::new();
    let tip_before_ft = h.chain.tip_hash();
    let height_before = h.chain.height();

    // Branch A: one block with an FT.
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![],
            Amount::from_units(77),
            Amount::ZERO,
        )
        .unwrap();
    h.submit_tx(ft).unwrap();
    assert_eq!(h.sc_balance(), Amount::from_units(77));

    // Branch B: two empty blocks built on the pre-FT tip (heavier).
    // Build them on a cloned chain rolled to the same parent.
    let mut alt = Blockchain::new(h.chain.params().clone());
    // Replay main chain blocks up to the fork point on `alt`.
    for height in 1..=height_before {
        let block = h.chain.block_at_height(height).unwrap().clone();
        alt.submit_block(block).unwrap();
    }
    assert_eq!(alt.tip_hash(), tip_before_ft);
    let b1 = alt.mine_next_block(h.miner.address(), vec![], 900).unwrap();
    let b2 = alt.mine_next_block(h.miner.address(), vec![], 901).unwrap();

    // Feed the competing branch to the main chain: triggers a reorg.
    h.chain.submit_block(b1).unwrap();
    let outcome = h.chain.submit_block(b2).unwrap();
    assert!(matches!(
        outcome,
        zendoo_mainchain::SubmitOutcome::Reorganized { .. }
    ));
    // The FT is gone with its branch.
    assert_eq!(h.sc_balance(), Amount::ZERO);
    assert_eq!(h.chain.height(), height_before + 2);
}

/// A heavier fork rooted below the retained undo window is refused
/// *before* anything is disconnected: tip, height, state and the block
/// store are exactly as they were, and the chain keeps mining.
#[test]
fn refused_deep_fork_leaves_the_chain_untouched() {
    let miner = Wallet::from_seed(b"miner");
    let mut chain = Blockchain::new(ChainParams {
        max_reorg_depth: 3,
        ..ChainParams::default()
    });
    for time in 1..=8 {
        chain
            .mine_next_block(miner.address(), vec![], time)
            .unwrap();
    }
    let tip = chain.tip_hash();
    let state = chain.state().clone();

    // Eight blocks off height 2: the seventh (height 9) is the first
    // heavier than the tip, six blocks above the fork point.
    let base = chain.hash_at_height(2).unwrap();
    let branch = chain.mine_branch(&base, 8, miner.address(), 500).unwrap();
    for block in &branch[..6] {
        assert_eq!(
            chain.submit_block(block.clone()).unwrap(),
            zendoo_mainchain::SubmitOutcome::StoredOnFork
        );
    }
    assert_eq!(
        chain.submit_block(branch[6].clone()),
        Err(zendoo_mainchain::BlockError::ReorgTooDeep)
    );
    assert_eq!(chain.tip_hash(), tip);
    assert_eq!(chain.height(), 8);
    assert_eq!(chain.state(), &state);
    for height in 0..=8 {
        assert!(chain.block_at_height(height).is_some());
    }
    // The refused block is not stored, so its child has no parent.
    assert!(chain.block(&branch[6].hash()).is_none());
    assert!(matches!(
        chain.submit_block(branch[7].clone()),
        Err(zendoo_mainchain::BlockError::UnknownParent(_))
    ));

    // The chain still mines, and a fork inside the window still wins.
    chain.mine_next_block(miner.address(), vec![], 9).unwrap();
    assert_eq!(chain.height(), 9);
    let shallow = chain
        .mine_branch(&chain.hash_at_height(7).unwrap(), 3, miner.address(), 600)
        .unwrap();
    for block in shallow {
        chain.submit_block(block).unwrap();
    }
    assert_eq!(chain.height(), 10);
    assert_ne!(chain.hash_at_height(8), Some(tip));
}

#[test]
fn duplicate_block_rejected() {
    let mut h = Harness::new();
    let block = h
        .chain
        .prepare_block(h.miner.address(), vec![], 99)
        .unwrap()
        .block;
    h.chain.submit_block(block.clone()).unwrap();
    assert!(matches!(
        h.chain.submit_block(block),
        Err(zendoo_mainchain::BlockError::Duplicate(_))
    ));
}

#[test]
fn tampered_block_commitment_rejected() {
    let mut h = Harness::new();
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![],
            Amount::from_units(5),
            Amount::ZERO,
        )
        .unwrap();
    let mut block = h
        .chain
        .prepare_block(h.miner.address(), vec![ft], 99)
        .unwrap()
        .block;
    // Corrupt the commitment and re-mine so PoW still passes.
    block.header.sc_txs_commitment = Digest32::hash_bytes(b"lie");
    let target = h.chain.params().target;
    block.header.nonce = zendoo_mainchain::pow::mine(
        &target,
        |n| {
            let mut hd = block.header;
            hd.nonce = n;
            hd.hash()
        },
        1_000_000,
    )
    .unwrap();
    assert!(matches!(
        h.chain.submit_block(block),
        Err(zendoo_mainchain::BlockError::CommitmentMismatch)
    ));
}

#[test]
fn double_spend_across_blocks_rejected() {
    let mut h = Harness::new();
    let tx = h
        .alice
        .pay(
            &h.chain,
            Address::from_label("bob"),
            Amount::from_units(10),
            Amount::ZERO,
        )
        .unwrap();
    h.submit_tx(tx.clone()).unwrap();
    // Re-submitting the same transfer spends already-spent outputs.
    assert!(matches!(
        h.submit_tx(tx),
        Err(zendoo_mainchain::BlockError::MissingInput(_))
    ));
}

#[test]
fn btr_nullifier_consumed_and_replay_rejected() {
    let mut h = Harness::new();
    let ft = h
        .alice
        .forward_transfer(
            &h.chain,
            h.sc_id,
            vec![],
            Amount::from_units(500),
            Amount::ZERO,
        )
        .unwrap();
    h.submit_tx(ft).unwrap();

    let (btr_pk, _) = setup_deterministic(&AcceptAll("btr"), b"h");
    let entry_anchor = h
        .chain
        .state()
        .registry
        .get(&h.sc_id)
        .unwrap()
        .last_certificate_block();
    let mut btr = zendoo_core::withdrawal::BackwardTransferRequest {
        sidechain_id: h.sc_id,
        receiver: Address::from_label("u"),
        amount: Amount::from_units(10),
        nullifier: Nullifier::from_utxo_digest(&Digest32::hash_bytes(b"coin")),
        proofdata: ProofData::empty(),
        proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
    };
    let sysdata = BtrSysData {
        last_cert_block: entry_anchor,
        nullifier: btr.nullifier,
        receiver: btr.receiver,
        amount: btr.amount,
    };
    let inputs = btr_public_inputs(&sysdata, &btr.proofdata.merkle_root());
    btr.proof = prove(&btr_pk, &AcceptAll("btr"), &inputs, &()).unwrap();

    h.submit_tx(McTransaction::Btr(Box::new(btr.clone())))
        .unwrap();
    // BTR moves no coins.
    assert_eq!(h.sc_balance(), Amount::from_units(500));
    // Replay rejected (nullifier consumed).
    assert!(h.submit_tx(McTransaction::Btr(Box::new(btr))).is_err());
}

#[test]
fn sidechain_declaration_id_uniqueness() {
    let mut h = Harness::new();
    let mut config = h.config.clone();
    // Same id again → rejected.
    let dup = McTransaction::SidechainDeclaration(Box::new(config.clone()));
    assert!(h.submit_tx(dup).is_err());
    // Fresh id, future start → accepted.
    config.id = SidechainId::from_label("other");
    config.schedule = zendoo_core::epoch::EpochSchedule::new(h.chain.height() + 10, 10, 3).unwrap();
    let fresh = McTransaction::SidechainDeclaration(Box::new(config));
    h.submit_tx(fresh).unwrap();
    assert_eq!(h.chain.state().registry.len(), 2);
}
