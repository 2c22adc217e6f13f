//! Behavioral tests of the mainchain state machine: mining, transfers,
//! forward transfers, certificate windows, quality replacement, ceasing,
//! CSW, nullifiers, the safeguard, and reorgs.
//!
//! Certificates here are produced with a *permissive* sidechain circuit
//! (`AcceptAll`) — these tests exercise the mainchain rules, not the
//! Latus circuits (those live in the zendoo-latus crate).

mod common;

use common::{assemble, remine};
use zendoo_core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo_core::config::{SidechainConfig, SidechainConfigBuilder};
use zendoo_core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo_core::proofdata::ProofData;
use zendoo_core::transfer::BackwardTransfer;
use zendoo_core::withdrawal::{
    btr_public_inputs, BackwardTransferRequest, BtrSysData, CeasedSidechainWithdrawal,
};
use zendoo_mainchain::block::{Block, BlockHeader};
use zendoo_mainchain::chain::{BlockError, Blockchain, ChainParams};
use zendoo_mainchain::pow::Target;
use zendoo_mainchain::registry::{RegistryError, SidechainStatus};
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

    /// The BTR/CSW anchor the chain names now: the hash of the block
    /// carrying the latest certificate, zero before any.
    fn anchor(&self) -> Digest32 {
        let entry = self.chain.state().registry.get(&self.sc_id).unwrap();
        entry.last_certificate().map_or(Digest32::ZERO, |c| {
            self.chain.hash_at_height(c.mc_height).unwrap()
        })
    }

    /// A BTR of 10 units to `u`, proven (permissively) against `anchor`.
    fn btr(&self, anchor: Digest32, nullifier_seed: &[u8]) -> BackwardTransferRequest {
        let (btr_pk, _) = setup_deterministic(&AcceptAll("btr"), b"h");
        let mut btr = BackwardTransferRequest {
            sidechain_id: self.sc_id,
            receiver: Address::from_label("u"),
            amount: Amount::from_units(10),
            nullifier: Nullifier::from_utxo_digest(&Digest32::hash_bytes(nullifier_seed)),
            proofdata: ProofData::empty(),
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
        };
        let sysdata = BtrSysData {
            last_cert_block: anchor,
            nullifier: btr.nullifier,
            receiver: btr.receiver,
            amount: btr.amount,
        };
        let inputs = btr_public_inputs(&sysdata, &btr.proofdata.merkle_root());
        btr.proof = prove(&btr_pk, &AcceptAll("btr"), &inputs, &()).unwrap();
        btr
    }

    fn csw(
        &self,
        receiver: Address,
        amount: u64,
        nullifier_seed: &[u8],
    ) -> CeasedSidechainWithdrawal {
        let anchor = self.anchor();
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
    assert_eq!(
        h.submit_tx(McTransaction::Certificate(Box::new(early))),
        Err(BlockError::Registry(
            RegistryError::OutsideSubmissionWindow {
                epoch: 1,
                height: 15
            }
        ))
    );
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
    assert_eq!(
        h.submit_tx(McTransaction::Certificate(Box::new(late))),
        Err(BlockError::Registry(RegistryError::SidechainCeased(
            h.sc_id
        )))
    );
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
    assert_eq!(
        err,
        BlockError::Registry(RegistryError::SafeguardViolation {
            requested: Amount::from_units(101),
            available: Amount::from_units(100),
        })
    );
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
    assert_eq!(
        h.submit_tx(McTransaction::Csw(Box::new(greedy))),
        Err(BlockError::Registry(RegistryError::SafeguardViolation {
            requested: Amount::from_units(201),
            available: Amount::from_units(200),
        }))
    );
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
    assert_eq!(
        h.submit_tx(McTransaction::Csw(Box::new(csw))),
        Err(BlockError::Registry(RegistryError::SidechainStillActive(
            h.sc_id
        )))
    );
    assert_eq!(h.sc_balance(), Amount::from_units(500));
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

/// Alice spending the `i`-th genesis output to bob.
fn spend_genesis_output(chain: &Blockchain, alice: &Wallet, i: u32) -> McTransaction {
    use zendoo_mainchain::transaction::{OutPoint, Output, TransferTx};
    let genesis = chain.block_at_height(0).unwrap().transactions[0].txid();
    McTransaction::Transfer(TransferTx::signed(
        &[(
            OutPoint {
                txid: genesis,
                index: i,
            },
            &alice.keypair().secret,
        )],
        vec![Output::Regular(TxOut::regular(
            Address::from_label("bob"),
            Amount::from_units(100),
        ))],
    ))
}

/// Every active block spends something, so its undo record is there
/// exactly when `spent_outputs` names an output: the top
/// `max_reorg_depth` blocks keep theirs, every block below has lost it.
fn assert_undo_window(chain: &Blockchain) {
    let depth = chain.params().max_reorg_depth as u64;
    for height in 1..=chain.height() {
        let hash = chain.hash_at_height(height).unwrap();
        assert_eq!(
            chain.spent_outputs(&hash).count() > 0,
            height + depth > chain.height(),
            "undo record at height {height} of {}",
            chain.height()
        );
    }
}

/// Each connect drops the one undo record it pushes out of the window:
/// past the window, through a reorg inside it and on after it, the
/// blocks below the window have no record and every block inside has
/// its own.
#[test]
fn each_connect_prunes_the_one_record_that_leaves_the_undo_window() {
    let miner = Wallet::from_seed(b"miner");
    let alice = Wallet::from_seed(b"alice");
    let params = ChainParams {
        max_reorg_depth: 3,
        genesis_outputs: (0..16)
            .map(|_| TxOut::regular(alice.address(), Amount::from_units(100)))
            .collect(),
        ..ChainParams::default()
    };
    let mut chain = Blockchain::new(params.clone());
    for i in 0..8 {
        let spend = spend_genesis_output(&chain, &alice, i);
        chain
            .mine_next_block(miner.address(), vec![spend], u64::from(i) + 1)
            .unwrap();
        assert_undo_window(&chain);
    }

    // Three blocks off height 6, each spending another output: the
    // third outweighs the tip and disconnects heights 7 and 8.
    let mut branch = Blockchain::new(params);
    for height in 1..=6 {
        let block = chain.block_at_height(height).unwrap().clone();
        branch.submit_block(block).unwrap();
    }
    let stale = [7, 8].map(|height| chain.hash_at_height(height).unwrap());
    for i in 8..11 {
        let spend = spend_genesis_output(&branch, &alice, i);
        let block = branch
            .mine_next_block(miner.address(), vec![spend], 100 + u64::from(i))
            .unwrap();
        chain.submit_block(block).unwrap();
        assert_undo_window(&chain);
    }
    assert_eq!(chain.tip_hash(), branch.tip_hash());
    for hash in &stale {
        assert!(!chain.is_active(hash));
        assert_eq!(chain.spent_outputs(hash).count(), 0);
    }

    for i in 11..14 {
        let spend = spend_genesis_output(&chain, &alice, i);
        chain
            .mine_next_block(miner.address(), vec![spend], 200 + u64::from(i))
            .unwrap();
        assert_undo_window(&chain);
    }
    assert_eq!(chain.height(), 12);
}

/// A peer's block on top of `base` whose coinbase overpays: stage 1
/// does not price the coinbase, so the block is stored, and it fails
/// only when its branch tries to connect.
fn overpaying_block(chain: &Blockchain, base: &Digest32, miner: &Wallet, time: u64) -> Block {
    let mut block = chain
        .mine_branch(base, 1, miner.address(), time)
        .unwrap()
        .remove(0);
    let McTransaction::Coinbase(coinbase) = &mut block.transactions[0] else {
        unreachable!("a mined block starts with its coinbase")
    };
    coinbase.outputs[0].amount = chain
        .params()
        .block_subsidy
        .checked_add(Amount::from_units(1))
        .unwrap();
    remine(chain, block)
}

/// A block that fails to connect takes every stored block above it
/// with it. A peer's overpaying block at the tip's height is stored on
/// a fork; its child makes the branch heavier and fails on the parent's
/// coinbase. Then a grandchild, a second branch off the child, and a
/// block on another fork block stored above a failed one are each
/// refused by name: the chain is untouched, and it still mines.
#[test]
fn a_fork_off_a_block_that_failed_to_connect_is_refused_by_name() {
    use zendoo_mainchain::{BlockError, SubmitOutcome};
    let miner = Wallet::from_seed(b"miner");
    let mut chain = Blockchain::new(ChainParams::default());
    for time in 1..=3 {
        chain
            .mine_next_block(miner.address(), vec![], time)
            .unwrap();
    }
    let (tip, state) = (chain.tip_hash(), chain.state().clone());

    let parent = overpaying_block(&chain, &chain.hash_at_height(2).unwrap(), &miner, 500);
    assert_eq!(
        chain.submit_block(parent.clone()),
        Ok(SubmitOutcome::StoredOnFork)
    );
    let path = chain
        .mine_branch(&parent.hash(), 2, miner.address(), 600)
        .unwrap();
    let (child, grandchild) = (path[0].clone(), path[1].clone());
    let mut second = grandchild.clone();
    second.header.time += 100;
    let second = remine(&chain, second);
    assert_eq!(
        chain.submit_block(child.clone()),
        Err(BlockError::BadCoinbase("claims more than subsidy + fees"))
    );
    for block in [grandchild, second] {
        let hash = block.hash();
        assert_eq!(
            chain.submit_block(block),
            Err(BlockError::KnownInvalid(hash))
        );
    }
    assert!(chain.block(&parent.hash()).is_none());
    assert!(chain.block(&child.hash()).is_none());
    assert_eq!(chain.tip_hash(), tip);
    assert_eq!(chain.state(), &state);

    // Deeper: the overpaying block one below the tip's height, with two
    // stored children at the tip's height. A grandchild through one of
    // them fails on it; the other child goes with it.
    let parent = overpaying_block(&chain, &chain.hash_at_height(1).unwrap(), &miner, 700);
    chain.submit_block(parent.clone()).unwrap();
    let left = chain
        .mine_branch(&parent.hash(), 2, miner.address(), 800)
        .unwrap();
    let right = chain
        .mine_branch(&parent.hash(), 2, miner.address(), 900)
        .unwrap();
    assert_eq!(
        chain.submit_block(right[0].clone()),
        Ok(SubmitOutcome::StoredOnFork)
    );
    chain.submit_block(left[0].clone()).unwrap();
    assert!(matches!(
        chain.submit_block(left[1].clone()),
        Err(BlockError::BadCoinbase(_))
    ));
    assert!(chain.block(&right[0].hash()).is_none());
    assert_eq!(
        chain.submit_block(right[1].clone()),
        Err(BlockError::KnownInvalid(right[1].hash()))
    );
    assert_eq!(chain.tip_hash(), tip);
    assert_eq!(chain.state(), &state);

    chain.mine_next_block(miner.address(), vec![], 4).unwrap();
    assert_eq!(chain.height(), 4);
}

#[test]
fn duplicate_block_rejected() {
    let mut h = Harness::new();
    let block = h
        .chain
        .mine_next(h.miner.address(), vec![], 99)
        .unwrap()
        .block;
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
    let mut block = assemble(&h.chain, h.miner.address(), vec![ft], 99);
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
fn a_transfer_spending_one_output_twice_is_refused_by_name() {
    let mut h = Harness::new();
    let McTransaction::Transfer(mut tx) = h
        .alice
        .pay(
            &h.chain,
            Address::from_label("bob"),
            Amount::from_units(10),
            Amount::ZERO,
        )
        .unwrap()
    else {
        panic!("a payment is a transfer");
    };
    let twice = tx.inputs[0].outpoint;
    tx.inputs.push(tx.inputs[0].clone());
    let tx = McTransaction::Transfer(tx);
    // The builder refuses it by name...
    assert_eq!(
        h.submit_tx(tx.clone()),
        Err(BlockError::DoubleSpendInBlock(twice))
    );
    // ...and so does a node receiving a block that carries it.
    let block = assemble(&h.chain, h.miner.address(), vec![tx], h.time + 1);
    let tip = h.chain.tip_hash();
    assert_eq!(
        h.chain.submit_block(block).map(|_| ()),
        Err(BlockError::DoubleSpendInBlock(twice))
    );
    assert_eq!(h.chain.tip_hash(), tip);
}

/// The chain's height, tip and a digest of its UTXO set: what a refused
/// block must leave as it was.
fn chain_view(chain: &Blockchain) -> (u64, Digest32, Digest32) {
    use zendoo_mainchain::transaction::OutPoint;
    let mut utxos: Vec<(OutPoint, TxOut)> = chain
        .state()
        .utxos
        .iter()
        .map(|(outpoint, out)| (*outpoint, out))
        .collect();
    utxos.sort_by_key(|(outpoint, _)| *outpoint);
    (
        chain.height(),
        chain.tip_hash(),
        zendoo_primitives::encode::digest("chain_behavior/utxos", &utxos),
    )
}

/// A block carrying a transfer that spends nothing is refused by name
/// and leaves the chain as it was.
#[test]
fn a_block_with_an_input_less_transfer_is_refused_as_no_inputs() {
    use zendoo_mainchain::transaction::{Output, TransferTx};
    let mut h = Harness::new();
    let mint = McTransaction::Transfer(TransferTx {
        inputs: vec![],
        outputs: vec![Output::Regular(TxOut::regular(
            Address::from_label("bob"),
            Amount::from_units(10),
        ))],
    });
    let block = assemble(&h.chain, h.miner.address(), vec![mint], h.time + 1);
    let before = chain_view(&h.chain);
    assert_eq!(
        h.chain.submit_block(block).map(|_| ()),
        Err(BlockError::NoInputs)
    );
    assert_eq!(chain_view(&h.chain), before);
    h.mine_empty(1);
}

/// A block carrying a signed transfer that pays out one unit more than
/// its input holds is refused by name and leaves the chain as it was.
#[test]
fn a_block_with_a_transfer_paying_past_its_inputs_is_refused_as_value_imbalance() {
    use zendoo_mainchain::transaction::{OutPoint, Output, TransferTx};
    let mut h = Harness::new();
    let genesis = h.chain.block_at_height(0).unwrap().transactions[0].txid();
    let overpay = McTransaction::Transfer(TransferTx::signed(
        &[(
            OutPoint {
                txid: genesis,
                index: 0,
            },
            &h.alice.keypair().secret,
        )],
        vec![Output::Regular(TxOut::regular(
            Address::from_label("bob"),
            Amount::from_units(1_000_001),
        ))],
    ));
    let block = assemble(&h.chain, h.miner.address(), vec![overpay], h.time + 1);
    let before = chain_view(&h.chain);
    assert_eq!(
        h.chain.submit_block(block).map(|_| ()),
        Err(BlockError::ValueImbalance)
    );
    assert_eq!(chain_view(&h.chain), before);
    h.mine_empty(1);
}

/// A certificate, a BTR and a CSW naming a sidechain no declaration
/// created are each refused by name through `submit_block`, and leave
/// the chain and the registry as they were.
#[test]
fn a_certificate_btr_or_csw_for_an_undeclared_sidechain_is_refused_as_unknown_sidechain() {
    let mut h = Harness::new();
    h.mine_to_height(14);
    let stranger = SidechainId::from_label("undeclared");
    let mut cert = h.certificate(0, 1, vec![]);
    cert.sidechain_id = stranger;
    let mut btr = h.btr(h.anchor(), b"coin");
    btr.sidechain_id = stranger;
    let mut csw = h.csw(Address::from_label("u"), 10, b"utxo");
    csw.sidechain_id = stranger;
    for tx in [
        McTransaction::Certificate(Box::new(cert)),
        McTransaction::Btr(Box::new(btr)),
        McTransaction::Csw(Box::new(csw)),
    ] {
        let block = assemble(&h.chain, h.miner.address(), vec![tx], h.time + 1);
        let before = chain_view(&h.chain);
        let registry = h.chain.state().registry.clone();
        assert_eq!(
            h.chain.submit_block(block).map(|_| ()),
            Err(BlockError::Registry(RegistryError::UnknownSidechain(
                stranger
            )))
        );
        assert_eq!(chain_view(&h.chain), before);
        assert_eq!(h.chain.state().registry, registry);
    }
    h.mine_empty(1);
}

/// The default target accepts every hash, so a chain configured with a
/// harder one is where a header can fall short of it.
#[test]
fn a_header_short_of_the_target_is_refused_as_bad_proof_of_work() {
    let miner = Wallet::from_seed(b"miner");
    let mut chain = Blockchain::new(ChainParams {
        target: Target::with_leading_zero_bits(8),
        ..ChainParams::default()
    });
    let mut block = assemble(&chain, miner.address(), vec![], 1);
    assert!(block.header.meets_target());
    block.header = (0..)
        .map(|nonce| BlockHeader {
            nonce,
            ..block.header
        })
        .find(|header| !header.meets_target())
        .unwrap();
    assert_eq!(
        chain.submit_block(block).map(|_| ()),
        Err(BlockError::BadProofOfWork)
    );
    assert_eq!(chain.height(), 0);
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

    let btr = h.btr(h.anchor(), b"coin");

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
    assert_eq!(
        h.submit_tx(dup),
        Err(BlockError::Registry(RegistryError::IdUnavailable(h.sc_id)))
    );
    // Fresh id, future start → accepted.
    config.id = SidechainId::from_label("other");
    config.schedule = zendoo_core::epoch::EpochSchedule::new(h.chain.height() + 10, 10, 3).unwrap();
    let fresh = McTransaction::SidechainDeclaration(Box::new(config));
    h.submit_tx(fresh).unwrap();
    assert_eq!(h.chain.state().registry.len(), 2);
}

#[test]
fn a_header_at_the_wrong_height_is_refused_by_name() {
    let mut h = Harness::new();
    let expected = h.chain.height() + 1;
    let mut block = assemble(&h.chain, h.miner.address(), vec![], h.time + 1);
    // The coinbase names the same height, so only the height is wrong.
    block.header.height = expected + 1;
    let Some(McTransaction::Coinbase(coinbase)) = block.transactions.first_mut() else {
        panic!("a block opens with its coinbase");
    };
    coinbase.height = expected + 1;
    let block = remine(&h.chain, block);
    let tip = h.chain.tip_hash();
    assert_eq!(
        h.chain.submit_block(block).map(|_| ()),
        Err(BlockError::BadHeight {
            claimed: expected + 1,
            expected
        })
    );
    assert_eq!(h.chain.tip_hash(), tip);
}

/// The chain has one fixed target: a header declaring another is
/// refused even when it meets the (harder) target it declares.
#[test]
fn a_header_declaring_another_target_is_refused_by_name() {
    let mut h = Harness::new();
    let mut block = assemble(&h.chain, h.miner.address(), vec![], h.time + 1);
    let harder = Target::with_leading_zero_bits(4);
    assert_ne!(harder, h.chain.params().target);
    block.header = (0..)
        .map(|nonce| BlockHeader {
            nonce,
            target: harder,
            ..block.header
        })
        .find(|header| header.meets_target())
        .unwrap();
    let tip = h.chain.tip_hash();
    assert_eq!(
        h.chain.submit_block(block).map(|_| ()),
        Err(BlockError::WrongTarget)
    );
    assert_eq!(h.chain.tip_hash(), tip);
}

#[test]
fn an_activation_at_or_below_the_declaring_height_is_refused_by_name() {
    let mut h = Harness::new();
    let declared_at = h.chain.height() + 1;
    let mut config = h.config.clone();
    config.id = SidechainId::from_label("too-soon");
    for start_block in [declared_at - 1, declared_at] {
        config.schedule = zendoo_core::epoch::EpochSchedule::new(start_block, 10, 3).unwrap();
        let declaration = McTransaction::SidechainDeclaration(Box::new(config.clone()));
        assert_eq!(
            h.submit_tx(declaration),
            Err(BlockError::Registry(RegistryError::ActivationNotInFuture {
                start_block,
                declared_at
            }))
        );
    }
    assert_eq!(h.chain.state().registry.len(), 1);
}

/// `utxos.total_value() + registry.total_locked()`, the supply the
/// chain's `minted` counter must equal.
fn supply(chain: &Blockchain) -> Amount {
    let state = chain.state();
    state
        .utxos
        .total_value()
        .checked_add(state.registry.total_locked())
        .unwrap()
}

/// A coinbase may claim less than subsidy + fees: what it leaves
/// unclaimed is burned. Here it claims 10 units of a block whose one
/// transfer pays a 500-unit fee, so `minted` falls by 490, conservation
/// holds after the block, and a reorg that disconnects it restores
/// `minted` to the pre-block value plus the new branch's subsidies.
#[test]
fn a_coinbase_claiming_less_than_its_fees_burns_the_rest() {
    use zendoo_mainchain::SubmitOutcome;
    let miner = Wallet::from_seed(b"miner");
    let alice = Wallet::from_seed(b"alice");
    let mut chain = Blockchain::new(ChainParams {
        genesis_outputs: vec![TxOut::regular(alice.address(), Amount::from_units(10_000))],
        ..ChainParams::default()
    });
    let pay = alice
        .pay(
            &chain,
            Address::from_label("bob"),
            Amount::from_units(100),
            Amount::from_units(500),
        )
        .unwrap();
    let mut block = assemble(&chain, miner.address(), vec![pay], 1);
    let McTransaction::Coinbase(coinbase) = &mut block.transactions[0] else {
        unreachable!("an assembled block starts with its coinbase")
    };
    coinbase.outputs[0].amount = Amount::from_units(10);
    let block = remine(&chain, block);

    assert_eq!(
        chain.submit_block(block),
        Ok(SubmitOutcome::ExtendedActiveChain)
    );
    assert_eq!(supply(&chain), Amount::from_units(9_510));
    assert_eq!(chain.state().minted, supply(&chain));

    let branch = chain
        .mine_branch(&chain.genesis_hash(), 2, miner.address(), 900)
        .unwrap();
    for block in branch {
        chain.submit_block(block).unwrap();
    }
    assert_eq!(chain.height(), 2);
    let subsidy = chain.params().block_subsidy;
    assert_eq!(
        chain.state().minted,
        Amount::checked_sum([Amount::from_units(10_000), subsidy, subsidy]).unwrap()
    );
    assert_eq!(chain.state().minted, supply(&chain));
}

/// A premine of `u64::MAX` spent all but one unit as fee: the walk
/// accepts the transfer, but `block_subsidy + fees` does not fit, so the
/// builder refuses the block as `AmountOverflow` and leaves the live
/// state as the tip's.
#[test]
fn a_coinbase_past_u64_max_is_refused_by_the_builder_by_name() {
    let miner = Wallet::from_seed(b"miner");
    let alice = Wallet::from_seed(b"alice");
    let mut chain = Blockchain::new(ChainParams {
        genesis_outputs: vec![TxOut::regular(
            alice.address(),
            Amount::from_units(u64::MAX),
        )],
        ..ChainParams::default()
    });
    let pay = alice
        .pay(
            &chain,
            Address::from_label("bob"),
            Amount::from_units(1),
            Amount::from_units(u64::MAX - 1),
        )
        .unwrap();
    let (tip, state) = (chain.tip_hash(), chain.state().clone());
    assert_eq!(
        chain.mine_next(miner.address(), vec![pay], 1).map(|_| ()),
        Err(BlockError::AmountOverflow)
    );
    assert_eq!(chain.state(), &state);
    assert_eq!(chain.tip_hash(), tip);
    assert_eq!(chain.height(), 0);
}

/// One mining attempt a block at a one-bit target: a header whose
/// first nonce misses the target cannot be mined, and the builder
/// refuses it as `MiningFailed` after its walk, leaving the live state
/// as the tip's. The premine is the first whose genesis mines at nonce
/// 0 (found with a roomier attempt bound), and the timestamp the first
/// whose block does not (each tried on a fresh chain, since a block
/// that mines connects).
#[test]
fn a_block_whose_first_nonce_misses_the_target_is_refused_by_name() {
    let miner = Wallet::from_seed(b"miner");
    let alice = Wallet::from_seed(b"alice");
    let params = (0..)
        .map(|extra| ChainParams {
            target: Target::with_leading_zero_bits(1),
            genesis_outputs: vec![TxOut::regular(
                alice.address(),
                Amount::from_units(10_000 + extra),
            )],
            max_mine_attempts: 1,
            ..ChainParams::default()
        })
        .find(|params| {
            let roomy = Blockchain::new(ChainParams {
                max_mine_attempts: 64,
                ..params.clone()
            });
            roomy.block_at_height(0).unwrap().header.nonce == 0
        })
        .unwrap();
    let fresh = Blockchain::new(params.clone());
    let pay = alice
        .pay(
            &fresh,
            Address::from_label("bob"),
            Amount::from_units(100),
            Amount::from_units(5),
        )
        .unwrap();
    let (tip, state) = (fresh.tip_hash(), fresh.state().clone());
    let (chain, outcome) = (1..)
        .map(|time| {
            let mut chain = Blockchain::new(params.clone());
            let outcome = chain
                .mine_next(miner.address(), vec![pay.clone()], time)
                .map(|_| ());
            (chain, outcome)
        })
        .find(|(_, outcome)| outcome.is_err())
        .unwrap();
    assert_eq!(outcome, Err(BlockError::MiningFailed));
    assert_eq!(chain.state(), &state);
    assert_eq!(chain.tip_hash(), tip);
    assert_eq!(chain.height(), 0);
}

/// A BTR proven against the anchor before its chain's first certificate
/// (zero), following that certificate in one block: the certificate's
/// block is the anchor now, and no proof can bind its hash, so the
/// chain cannot name the anchor at that height. The builder refuses the
/// BTR by name and connects the certificate; a receiver given a block
/// carrying both refuses it by name, tip and state unchanged. A BTR
/// proven against the anchor the chain names once the certificate's
/// block connected is accepted in the next block.
#[test]
fn a_btr_after_its_chains_certificate_in_one_block_is_refused_as_missing_boundary_block() {
    // Epoch 0 spans heights 5..=14; its submission window opens at 15.
    let at_window = || {
        let mut h = Harness::new();
        h.mine_to_height(14);
        h
    };
    let mut h = at_window();
    let height = h.chain.height() + 1;
    let certificate = McTransaction::Certificate(Box::new(h.certificate(0, 1, vec![])));
    let btr = McTransaction::Btr(Box::new(h.btr(Digest32::ZERO, b"coin")));
    let missing = BlockError::Registry(RegistryError::MissingBoundaryBlock(height));
    let candidates = vec![certificate.clone(), btr.clone()];

    let mut receiver = at_window();
    let block = assemble(
        &receiver.chain,
        receiver.miner.address(),
        candidates.clone(),
        h.time + 1,
    );
    let (tip, state) = (receiver.chain.tip_hash(), receiver.chain.state().clone());
    assert_eq!(receiver.chain.submit_block(block), Err(missing.clone()));
    assert_eq!(receiver.chain.tip_hash(), tip);
    assert_eq!(receiver.chain.state(), &state);

    h.time += 1;
    let mined = h
        .chain
        .mine_next(h.miner.address(), candidates, h.time)
        .unwrap();
    assert_eq!(mined.rejected, vec![(btr, missing)]);
    assert_eq!(mined.block.transactions[1..], [certificate]);
    assert_eq!(h.chain.height(), height);
    assert_eq!(h.chain.tip_hash(), mined.block.hash());
    assert_eq!(h.anchor(), mined.block.hash());

    let anchored = h.btr(h.anchor(), b"coin");
    h.submit_tx(McTransaction::Btr(Box::new(anchored))).unwrap();
    assert_eq!(h.chain.height(), height + 1);
}
