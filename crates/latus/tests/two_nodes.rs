//! Multi-node agreement (paper §5.1's decentralization): a forger and an
//! independent validator process the same mainchain; the validator
//! checks every block (linkage, leadership, stateful validity) and ends
//! with an identical state — and, holding the same witnesses, produces a
//! byte-identical certificate.

mod common;

use common::TwoChains;
use proptest::test_runner::TestRng;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use zendoo_core::crosschain::escrow_address;
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_latus::block::{apply_block, ScBlock, ScBlockError};
use zendoo_latus::consensus::ConsensusParams;
use zendoo_latus::mst::Utxo;
use zendoo_latus::node::{LatusNode, NodeError};
use zendoo_latus::params::LatusParams;
use zendoo_latus::tx::{
    BackwardTransferTx, PaymentTx, ReceiverMetadata, ScTransaction, SignedInput, TxError,
};
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::{Block, Blockchain};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::schnorr::Keypair;
use zendoo_snark::deferred::Deferred;

/// A follower of `h`'s chain whose own forger key derives from `seed`.
fn follower(h: &TwoChains, seed: &[u8]) -> LatusNode {
    LatusNode::new(
        LatusParams::new(h.sid, common::MST_DEPTH),
        h.schedule,
        ConsensusParams::with_bootstrap(Keypair::from_seed(b"forger").public),
        Arc::clone(&h.keys),
        Keypair::from_seed(seed),
        h.chain.tip_hash(),
    )
}

/// Mines one MC block with `txs`; the forger syncs it and `follower`
/// receives the forged block.
fn mine_and_follow(h: &mut TwoChains, follower: &mut LatusNode, txs: Vec<McTransaction>) -> Block {
    h.time += 1;
    let mc_block = h
        .chain
        .mine_next_block(h.mc_wallet.address(), txs, h.time)
        .unwrap();
    let sc_block = h
        .node
        .sync_mainchain_block(
            &mc_block,
            &Blockchain::build_commitment(&mc_block.transactions),
        )
        .unwrap();
    follower.receive_block(&sc_block, &mc_block).unwrap();
    mc_block
}

/// A forward transfer of `units` to the SC user.
fn deposit(h: &TwoChains, units: u64) -> McTransaction {
    let meta = ReceiverMetadata {
        receiver: h.sc_address(),
        payback: h.mc_wallet.address(),
    };
    h.mc_wallet
        .forward_transfer(
            &h.chain,
            h.sid,
            meta.to_bytes(),
            Amount::from_units(units),
            Amount::ZERO,
        )
        .unwrap()
}

/// The stateful-validation error a refused block carries.
fn refusal(outcome: Result<(), NodeError>) -> ScBlockError {
    match outcome {
        Err(NodeError::Block(error)) => error,
        other => panic!("expected a block refusal, got {other:?}"),
    }
}

#[test]
fn validator_follows_forger_and_agrees() {
    let mut h = TwoChains::new("two-nodes");
    let mut validator = follower(&h, b"validator");

    // Epoch 0 with an FT; the validator receives each forged block.
    let mut pending = vec![deposit(&h, 2_000)];
    while !h.node.epoch_complete() {
        let txs = std::mem::take(&mut pending);
        mine_and_follow(&mut h, &mut validator, txs);
    }

    // Same state, same digest.
    assert_eq!(validator.state().digest(), h.node.state().digest());
    assert_eq!(validator.chain().len(), h.node.chain().len());
    assert_eq!(
        validator.balance_of(&h.sc_address()),
        Amount::from_units(2_000)
    );

    // Both produce the same certificate — including the proof bytes
    // (deterministic proving under shared keys).
    let cert_forger = h.node.produce_certificate().unwrap();
    let cert_validator = validator.produce_certificate().unwrap();
    assert_eq!(cert_forger, cert_validator);
}

#[test]
fn validator_rejects_tampered_blocks() {
    let mut h = TwoChains::new("two-nodes-tamper");
    let mut validator = follower(&h, b"validator");

    h.time += 1;
    let mc_block = h
        .chain
        .mine_next_block(h.mc_wallet.address(), vec![], h.time)
        .unwrap();
    let sc_block = h
        .node
        .sync_mainchain_block(
            &mc_block,
            &Blockchain::build_commitment(&mc_block.transactions),
        )
        .unwrap();

    // Tamper the claimed post-state digest.
    let mut forged = sc_block.clone();
    forged.header.state_digest = zendoo_primitives::field::Fp::from_u64(777);
    assert_eq!(
        refusal(validator.receive_block(&forged, &mc_block)),
        ScBlockError::StateDigestMismatch
    );

    // Tamper the tx root.
    let mut forged = sc_block.clone();
    forged.header.tx_root = zendoo_primitives::digest::Digest32::hash_bytes(b"lie");
    assert_eq!(
        refusal(validator.receive_block(&forged, &mc_block)),
        ScBlockError::TxRootMismatch
    );

    // Smuggle in an unsigned payment, under a tx root that covers it.
    let mut forged = sc_block.clone();
    forged.transactions.push(ScTransaction::Payment(PaymentTx {
        inputs: vec![],
        outputs: vec![],
    }));
    forged.header.tx_root = forged.compute_tx_root();
    assert_eq!(
        refusal(validator.receive_block(&forged, &mc_block)),
        ScBlockError::Tx(TxError::NoInputs)
    );

    // The honest block is accepted afterwards (state unchanged by the
    // failed attempts).
    validator.receive_block(&sc_block, &mc_block).unwrap();
    assert_eq!(validator.state().digest(), h.node.state().digest());
}

/// A block re-stamped with its parent's slot is refused by name — a
/// second block in a spent slot would equivocate — and leaves the
/// follower's tip and state as they were; the honest block is then
/// accepted.
#[test]
fn a_block_in_its_parents_slot_is_refused_by_name() {
    let mut h = TwoChains::new("two-nodes-slot");
    let mut validator = follower(&h, b"validator");
    mine_and_follow(&mut h, &mut validator, vec![]);
    h.time += 1;
    let mc_block = h
        .chain
        .mine_next_block(h.mc_wallet.address(), vec![], h.time)
        .unwrap();
    let sc_block = h
        .node
        .sync_mainchain_block(
            &mc_block,
            &Blockchain::build_commitment(&mc_block.transactions),
        )
        .unwrap();
    let parent_slot = h.node.chain()[0].header.slot;
    assert!(sc_block.header.slot > parent_slot);

    let mut restamped = sc_block.clone();
    restamped.header.slot = parent_slot;
    let before = (validator.chain().to_vec(), validator.state().digest());
    let refused = validator.receive_block(&restamped, &mc_block);
    assert!(
        matches!(refused, Err(NodeError::SpentSlot(slot)) if slot == parent_slot),
        "{refused:?}"
    );
    assert_eq!(
        (validator.chain().to_vec(), validator.state().digest()),
        before
    );

    validator.receive_block(&sc_block, &mc_block).unwrap();
    assert_eq!(validator.chain(), h.node.chain());
    assert_eq!(validator.state().digest(), h.node.state().digest());
}

/// A block whose header names the observed mainchain block but whose
/// body carries another block's reference passes the node's header
/// check and is refused by name when the block is applied, under a tx
/// root that covers the swapped body.
#[test]
fn a_body_carrying_another_blocks_reference_is_refused_by_name() {
    let mut h = TwoChains::new("two-nodes-mc-ref");
    let mut validator = follower(&h, b"validator");
    let forge_next = |h: &mut TwoChains| {
        h.time += 1;
        let mc_block = h
            .chain
            .mine_next_block(h.mc_wallet.address(), vec![], h.time)
            .unwrap();
        let commitment = Blockchain::build_commitment(&mc_block.transactions);
        let sc_block = h.node.sync_mainchain_block(&mc_block, &commitment).unwrap();
        (mc_block, sc_block)
    };
    let (mc_block, sc_block) = forge_next(&mut h);
    let (_, next_sc_block) = forge_next(&mut h);

    let mut forged = sc_block.clone();
    forged.mc_references = next_sc_block.mc_references.clone();
    forged.header.tx_root = forged.compute_tx_root();
    assert_eq!(forged.header.mc_ref_hashes, vec![mc_block.hash()]);
    assert_eq!(
        refusal(validator.receive_block(&forged, &mc_block)),
        ScBlockError::McRefHashMismatch
    );

    validator.receive_block(&sc_block, &mc_block).unwrap();
    assert_eq!(validator.chain().len(), 1);
}

/// A reference's `wcert` is outside the block hash; the validator holds
/// it to the certificate hash the reference's commitment evidence binds,
/// so a raised quality or a dropped certificate is refused by name and
/// only the honest inclusion is recorded.
#[test]
fn validator_refuses_a_forged_or_omitted_wcert() {
    let mut h = TwoChains::new("two-nodes-wcert");
    let mut validator = follower(&h, b"validator");
    let mut pending = vec![deposit(&h, 2_000)];
    while !h.node.epoch_complete() {
        let txs = std::mem::take(&mut pending);
        mine_and_follow(&mut h, &mut validator, txs);
    }
    let cert = h.node.produce_certificate().unwrap();
    assert_eq!(validator.produce_certificate().unwrap(), cert);

    h.time += 1;
    let mc_block = h
        .chain
        .mine_next_block(
            h.mc_wallet.address(),
            vec![McTransaction::Certificate(Box::new(cert.clone()))],
            h.time,
        )
        .unwrap();
    let sc_block = h
        .node
        .sync_mainchain_block(
            &mc_block,
            &Blockchain::build_commitment(&mc_block.transactions),
        )
        .unwrap();
    assert_eq!(sc_block.mc_references[0].wcert.as_ref(), Some(&cert));

    let mut forged = sc_block.clone();
    let raised = forged.mc_references[0].wcert.as_mut().unwrap();
    raised.quality += 99;
    assert_eq!(
        refusal(validator.receive_block(&forged, &mc_block)),
        ScBlockError::WcertMismatch
    );
    let mut forged = sc_block.clone();
    forged.mc_references[0].wcert = None;
    assert_eq!(
        refusal(validator.receive_block(&forged, &mc_block)),
        ScBlockError::WcertMismatch
    );
    assert!(validator.cert_inclusion_for(0).is_none());

    validator.receive_block(&sc_block, &mc_block).unwrap();
    assert_eq!(validator.cert_inclusion_for(0).unwrap().certificate, cert);
    assert_eq!(
        validator.cert_inclusion_for(0),
        h.node.cert_inclusion_for(0)
    );
}

/// A forger and a follower that sync part of an epoch, roll back to a
/// fork base inside it and follow the heavier branch to the boundary
/// land on the same node: the same state and byte-identical
/// certificates, the epoch's headers read off each one's chain. The
/// forger does not forge in a reverted block's slot again.
#[test]
fn forger_and_follower_agree_across_a_fork() {
    let mut h = TwoChains::new("two-nodes-fork");
    let mut validator = follower(&h, b"validator");

    // Branch A: an FT at the first block, the fork base at the second,
    // then two blocks (one with another FT) the fork will disconnect.
    let ft = deposit(&h, 1_000);
    mine_and_follow(&mut h, &mut validator, vec![ft]);
    let fork_base = mine_and_follow(&mut h, &mut validator, vec![]).hash();
    let ft = deposit(&h, 300);
    mine_and_follow(&mut h, &mut validator, vec![ft]);
    mine_and_follow(&mut h, &mut validator, vec![]);

    // Branch B: three empty blocks from the fork base.
    let branch = h
        .chain
        .mine_branch(&fork_base, 3, h.mc_wallet.address(), 800)
        .unwrap();
    for block in &branch {
        h.chain.submit_block(block.clone()).unwrap();
    }
    let spent_slot = h.node.chain()[2].header.slot;
    assert_eq!(h.node.rollback_to_mc(&fork_base).unwrap(), 2);
    assert_eq!(validator.rollback_to_mc(&fork_base).unwrap(), 2);
    assert_eq!(validator.state().digest(), h.node.state().digest());
    for mc_block in &branch {
        let sc_block = h
            .node
            .sync_mainchain_block(
                mc_block,
                &Blockchain::build_commitment(&mc_block.transactions),
            )
            .unwrap();
        validator.receive_block(&sc_block, mc_block).unwrap();
    }
    assert_eq!(h.node.chain()[2].header.slot, spent_slot + 1);
    while !h.node.epoch_complete() {
        mine_and_follow(&mut h, &mut validator, vec![]);
    }
    assert!(validator.epoch_complete());
    assert_eq!(validator.chain(), h.node.chain());
    assert_eq!(
        validator.balance_of(&h.sc_address()),
        Amount::from_units(1_000)
    );

    let cert_forger = h.node.produce_certificate().unwrap();
    assert_eq!(validator.produce_certificate().unwrap(), cert_forger);
}

/// A follower holds no declaration for the forger's cross-chain
/// transfer, so the escrow withdrawal a received block carries pairs
/// with nothing: it refuses to certify the epoch by name, before any
/// destructive step — asked again, it refuses again. Its node stays
/// whole: a fork that replaces the epoch's last block rolls it back,
/// and it follows the forger's replacement block to the boundary and
/// the same refusal. (It cannot follow past a boundary it did not
/// close: the next state digest commits to the closed epoch.)
#[test]
fn a_follower_refuses_to_certify_an_escrow_withdrawal_it_holds_no_declaration_for() {
    let mut h = TwoChains::new("two-nodes-escrow");
    let mut validator = follower(&h, b"validator");

    let ft = deposit(&h, 2_000);
    mine_and_follow(&mut h, &mut validator, vec![ft]);
    let coin = h.node.utxos_of(&h.sc_address())[0];
    h.node
        .submit_cross_transfer(
            vec![(coin, &h.sc_user.secret)],
            Amount::from_units(1_500),
            SidechainId::from_label("two-nodes-escrow-dest"),
            Address::from_label("receiver"),
            h.mc_wallet.address(),
        )
        .unwrap();
    let mut fork_base = h.chain.tip_hash();
    while !h.node.epoch_complete() {
        fork_base = h.chain.tip_hash();
        mine_and_follow(&mut h, &mut validator, vec![]);
    }
    let escrow = escrow_address();
    assert!(validator
        .state()
        .backward_transfers()
        .iter()
        .any(|bt| bt.receiver == escrow));

    let refuses_to_certify = |validator: &mut LatusNode| {
        let before = (validator.state().digest(), validator.current_epoch());
        for _ in 0..2 {
            match validator.produce_certificate() {
                Err(NodeError::Unavailable(what)) => assert_eq!(
                    what,
                    "escrow withdrawal without a declared cross-chain transfer"
                ),
                other => panic!("expected the pairing refusal, got {other:?}"),
            }
            assert!(validator.epoch_complete());
            assert_eq!(
                (validator.state().digest(), validator.current_epoch()),
                before
            );
        }
    };
    refuses_to_certify(&mut validator);

    let branch = h
        .chain
        .mine_branch(&fork_base, 2, h.mc_wallet.address(), 900)
        .unwrap();
    for block in &branch {
        h.chain.submit_block(block.clone()).unwrap();
    }
    assert_eq!(h.node.rollback_to_mc(&fork_base).unwrap(), 1);
    assert_eq!(validator.rollback_to_mc(&fork_base).unwrap(), 1);
    let sc_block = h
        .node
        .sync_mainchain_block(
            &branch[0],
            &Blockchain::build_commitment(&branch[0].transactions),
        )
        .unwrap();
    validator.receive_block(&sc_block, &branch[0]).unwrap();
    assert_eq!(validator.chain(), h.node.chain());
    refuses_to_certify(&mut validator);
    let certificate = h.node.produce_certificate().unwrap();
    assert_eq!(
        zendoo_core::crosschain::declared_transfers(&certificate)
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn unstaked_non_authority_forger_cannot_extend_the_chain() {
    // After the first epoch the chain is staked; a node whose forger is
    // neither the bootstrap authority nor a stakeholder can follow the
    // chain as a validator but cannot forge.
    let mut h = TwoChains::new("two-nodes-leadership");
    let mut rogue = follower(&h, b"rogue");

    // Epoch 0: fund the SC while the rogue follows as validator.
    let mut pending = vec![deposit(&h, 5_000)];
    while !h.node.epoch_complete() {
        let txs = std::mem::take(&mut pending);
        mine_and_follow(&mut h, &mut rogue, txs);
    }
    // Both close the epoch; the rogue's stake snapshot refreshes and is
    // non-empty (the SC user holds all the stake).
    let cert = h.node.produce_certificate().unwrap();
    let _ = rogue.produce_certificate().unwrap();

    // The rogue now tries to forge the next block, which carries the
    // epoch-0 certificate, itself: the lottery never selects an unstaked
    // forger, and the refused forge leaves no trace — not even the
    // certificate inclusion it observed.
    h.time += 1;
    let mc_block = h
        .chain
        .mine_next_block(
            h.mc_wallet.address(),
            vec![McTransaction::Certificate(Box::new(cert))],
            h.time,
        )
        .unwrap();
    let before = (
        rogue.chain().len(),
        rogue.state().digest(),
        rogue.snapshot_count(),
    );
    let err = rogue.sync_mainchain_block(
        &mc_block,
        &Blockchain::build_commitment(&mc_block.transactions),
    );
    assert!(err.is_err(), "unstaked non-authority forger must not forge");
    assert!(rogue.cert_inclusion_for(0).is_none());
    assert_eq!(
        (
            rogue.chain().len(),
            rogue.state().digest(),
            rogue.snapshot_count()
        ),
        before
    );

    // And tampering a valid block's forger identity fails validation:
    let honest_block = h
        .node
        .sync_mainchain_block(
            &mc_block,
            &Blockchain::build_commitment(&mc_block.transactions),
        )
        .unwrap();
    let mut forged = honest_block.clone();
    forged.header.forger = Keypair::from_seed(b"rogue").public;
    assert!(rogue.receive_block(&forged, &mc_block).is_err());

    // The honest block is accepted, and with it the inclusion.
    rogue.receive_block(&honest_block, &mc_block).unwrap();
    assert!(rogue.cert_inclusion_for(0).is_some());
    let _ = Address::from_label("unused");
}

// ---- Generated hostile blocks -----------------------------------------

/// Cases the hostile-block generator runs.
const HOSTILE_CASES: usize = 128;
/// Users who trade in the generated blocks.
const HOSTILE_USERS: usize = 4;
/// Coins each user is funded with.
const HOSTILE_COINS: usize = 6;
/// The context every Latus input signs under.
const SIGHASH_CONTEXT: &str = "zendoo/sc-sighash-v1";

/// A forger and a follower in lockstep, with `HOSTILE_USERS` users
/// funded with `HOSTILE_COINS` coins each and a stranger who owns none.
/// No epoch is certified: nothing a received block is checked against
/// reads a certificate.
struct Hostile {
    h: TwoChains,
    follower: LatusNode,
    users: Vec<Keypair>,
    stranger: Keypair,
}

impl Hostile {
    fn new(label: &str) -> Self {
        let mut h = TwoChains::new(label);
        let mut follower = follower(&h, b"validator");
        let users: Vec<Keypair> = (0..HOSTILE_USERS)
            .map(|i| Keypair::from_seed(format!("hostile-user-{i}").as_bytes()))
            .collect();
        for user in &users {
            let meta = ReceiverMetadata {
                receiver: Address::from_public_key(&user.public),
                payback: h.mc_wallet.address(),
            };
            let ft = h
                .mc_wallet
                .forward_transfer(
                    &h.chain,
                    h.sid,
                    meta.to_bytes(),
                    Amount::from_units(20_000),
                    Amount::ZERO,
                )
                .unwrap();
            mine_and_follow(&mut h, &mut follower, vec![ft]);
        }
        for user in &users {
            let address = Address::from_public_key(&user.public);
            let funded = h.node.utxos_of(&address)[0];
            let coins = (0..HOSTILE_COINS as u64)
                .map(|k| (address, Amount::from_units(3_000 + k)))
                .collect();
            h.node
                .submit_transaction(ScTransaction::Payment(PaymentTx::create(
                    vec![(funded, &user.secret)],
                    coins,
                )))
                .unwrap();
        }
        mine_and_follow(&mut h, &mut follower, vec![]);
        Hostile {
            h,
            follower,
            users,
            stranger: Keypair::from_seed(b"hostile-stranger"),
        }
    }

    /// Queues 1–4 random spends on the forger, no coin spent twice: a
    /// payment of one or two coins to a user with change, a
    /// withdrawal of a coin, or a cross-chain transfer, whose escrow
    /// withdrawal spends its change payment's output in the same block.
    /// A spend the forger refuses at admission (an output slot taken)
    /// is not queued.
    fn queue_spends(&mut self, rng: &mut TestRng) {
        let mut spent = HashSet::new();
        for _ in 0..1 + rng.index(4) {
            let owner = &self.users[rng.index(HOSTILE_USERS)];
            let address = Address::from_public_key(&owner.public);
            let mut coins: Vec<Utxo> = self.h.node.utxos_of(&address);
            coins.retain(|coin| !spent.contains(&coin.digest()));
            if coins.is_empty() {
                continue;
            }
            let coin = coins.swap_remove(rng.index(coins.len()));
            let mut inputs = vec![(coin, &owner.secret)];
            // Half payments, which add a coin when they leave change, so
            // that withdrawals do not drain the users.
            let kind = [0, 0, 1, 2][rng.index(4)];
            if kind == 0 && !coins.is_empty() && rng.index(2) == 0 {
                inputs.push((coins[rng.index(coins.len())], &owner.secret));
            }
            let total: u64 = inputs.iter().map(|(coin, _)| coin.amount.units()).sum();
            let amount = 1 + rng.index(total.min(100) as usize) as u64;
            let queued = match kind {
                0 => {
                    let payee = &self.users[rng.index(HOSTILE_USERS)];
                    let mut outputs = vec![(
                        Address::from_public_key(&payee.public),
                        Amount::from_units(amount),
                    )];
                    if amount < total {
                        outputs.push((address, Amount::from_units(total - amount)));
                    }
                    let spends: Vec<_> = inputs.iter().map(|(coin, _)| coin.digest()).collect();
                    let payment = ScTransaction::Payment(PaymentTx::create(inputs, outputs));
                    self.h.node.submit_transaction(payment).map(|()| spends)
                }
                1 => {
                    let withdrawal = ScTransaction::BackwardTransfer(BackwardTransferTx::create(
                        inputs,
                        vec![(self.h.mc_wallet.address(), coin.amount)],
                    ));
                    self.h
                        .node
                        .submit_transaction(withdrawal)
                        .map(|()| vec![coin.digest()])
                }
                _ => self
                    .h
                    .node
                    .submit_cross_transfer(
                        inputs,
                        Amount::from_units(amount.min(coin.amount.units())),
                        SidechainId::from_label("hostile-destination"),
                        Address::from_label("hostile-receiver"),
                        self.h.mc_wallet.address(),
                    )
                    .map(|_| vec![coin.digest()]),
            };
            if let Ok(spends) = queued {
                spent.extend(spends);
            }
        }
    }

    /// Mines the next MC block and has the forger forge on it.
    fn forge(&mut self) -> (Block, ScBlock) {
        self.h.time += 1;
        let mc_block = self
            .h
            .chain
            .mine_next_block(self.h.mc_wallet.address(), vec![], self.h.time)
            .unwrap();
        let sc_block = self
            .h
            .node
            .sync_mainchain_block(
                &mc_block,
                &Blockchain::build_commitment(&mc_block.transactions),
            )
            .unwrap();
        (mc_block, sc_block)
    }

    /// Re-signs every input of `tx` with the key it names.
    fn resign(&self, tx: &mut ScTransaction) {
        let sighash = sighash(tx);
        for input in inputs_mut(tx) {
            let key = self
                .users
                .iter()
                .chain([&self.stranger])
                .find(|key| key.public == input.pubkey)
                .expect("every input names a known key");
            input.signature = key.secret.sign(SIGHASH_CONTEXT, sighash.as_bytes());
        }
    }

    /// Applies `corruption` to a random transaction of `block` (two for
    /// `Swap`), re-signing what it changes so that only the corruption
    /// is wrong; `false` when the block has no transaction to corrupt.
    fn corrupt(&self, block: &mut ScBlock, corruption: Corruption, rng: &mut TestRng) -> bool {
        let txs = &mut block.transactions;
        let needed = if matches!(corruption, Corruption::Swap) {
            2
        } else {
            1
        };
        if txs.len() < needed {
            return false;
        }
        let k = rng.index(txs.len());
        let i = rng.index(inputs_mut(&mut txs[k]).len());
        let fresh = Digest32::hash_bytes(&rng.next_u64().to_be_bytes());
        let tx = &mut txs[k];
        match corruption {
            Corruption::JunkSignature => {
                let sighash = sighash(tx);
                inputs_mut(tx)[i].signature = self
                    .stranger
                    .secret
                    .sign(SIGHASH_CONTEXT, sighash.as_bytes());
                return true;
            }
            Corruption::NotOwner => inputs_mut(tx)[i].pubkey = self.stranger.public,
            Corruption::UnknownInput => inputs_mut(tx)[i].utxo.nonce = fresh,
            Corruption::DuplicateInput => {
                let twice = inputs_mut(tx)[i].clone();
                inputs_mut(tx).push(twice);
            }
            Corruption::PastU64Max => match tx {
                ScTransaction::Payment(pay) => {
                    let mut extra = pay.outputs[0];
                    extra.amount = Amount::from_units(1);
                    extra.nonce = fresh;
                    pay.outputs[0].amount = Amount::from_units(u64::MAX);
                    pay.outputs.push(extra);
                }
                ScTransaction::BackwardTransfer(bt) => {
                    let mut extra = bt.backward_transfers[0];
                    extra.amount = Amount::from_units(1);
                    bt.backward_transfers[0].amount = Amount::from_units(u64::MAX);
                    bt.backward_transfers.push(extra);
                }
                _ => unreachable!("a block's own transactions are spends"),
            },
            Corruption::Swap => {
                let j = (k + 1 + rng.index(txs.len() - 1)) % txs.len();
                txs.swap(k, j);
                return true;
            }
        }
        self.resign(tx);
        true
    }
}

/// The inputs of a payment or withdrawal.
fn inputs_mut(tx: &mut ScTransaction) -> &mut Vec<SignedInput> {
    match tx {
        ScTransaction::Payment(pay) => &mut pay.inputs,
        ScTransaction::BackwardTransfer(bt) => &mut bt.inputs,
        _ => unreachable!("a block's own transactions are spends"),
    }
}

/// The message the inputs of a payment or withdrawal sign.
fn sighash(tx: &ScTransaction) -> Digest32 {
    match tx {
        ScTransaction::Payment(pay) => pay.sighash(),
        ScTransaction::BackwardTransfer(bt) => bt.sighash(),
        _ => unreachable!("a block's own transactions are spends"),
    }
}

/// One way to make a forged block invalid.
#[derive(Clone, Copy, Debug)]
enum Corruption {
    /// An input carries a stranger's signature over the right message.
    JunkSignature,
    /// An input is signed by a key that does not own its coin.
    NotOwner,
    /// An input spends a coin the state never held.
    UnknownInput,
    /// A transaction spends one of its inputs twice.
    DuplicateInput,
    /// A transaction's outputs or withdrawals sum past `u64::MAX`.
    PastU64Max,
    /// Two transactions trade places.
    Swap,
}

const CORRUPTIONS: [Corruption; 6] = [
    Corruption::JunkSignature,
    Corruption::NotOwner,
    Corruption::UnknownInput,
    Corruption::DuplicateInput,
    Corruption::PastU64Max,
    Corruption::Swap,
];

/// The stateful refusal a received block carries, if any.
fn block_outcome(outcome: Result<(), NodeError>) -> Result<(), ScBlockError> {
    match outcome {
        Ok(()) => Ok(()),
        Err(NodeError::Block(error)) => Err(error),
        Err(other) => panic!("expected a stateful verdict, got {other:?}"),
    }
}

/// The rule a block verdict names: the variant, without its fields.
fn rule_name(verdict: &Result<(), ScBlockError>) -> String {
    let named = match verdict {
        Ok(()) => return "adopted".into(),
        Err(ScBlockError::Tx(error)) => format!("{error:?}"),
        Err(error) => format!("{error:?}"),
    };
    named
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

/// The deferral's trap: a junk signature on the block's first payment
/// and an unknown input on its last. The walk that owes signatures
/// meets the unknown input first; the follower must still refuse the
/// block for the signature, as the inline validator does, and change
/// nothing, then take the honest block.
#[test]
fn a_junk_signature_before_an_unknown_input_is_refused_as_bad_authorization() {
    let mut w = Hostile::new("two-nodes-trap");
    for user in &w.users[..3] {
        let address = Address::from_public_key(&user.public);
        let coin = w.h.node.utxos_of(&address)[0];
        let payment = PaymentTx::create(vec![(coin, &user.secret)], vec![(address, coin.amount)]);
        w.h.node
            .submit_transaction(ScTransaction::Payment(payment))
            .unwrap();
    }
    let (mc_block, sc_block) = w.forge();
    assert_eq!(sc_block.transactions.len(), 3);

    let mut trap = sc_block.clone();
    let sighash_0 = sighash(&trap.transactions[0]);
    inputs_mut(&mut trap.transactions[0])[0].signature = w
        .stranger
        .secret
        .sign(SIGHASH_CONTEXT, sighash_0.as_bytes());
    let last = &mut trap.transactions[2];
    inputs_mut(last)[0].utxo.nonce = Digest32::hash_bytes(b"never minted");
    let ghost = inputs_mut(last)[0].utxo.digest();
    w.resign(last);
    trap.header.tx_root = trap.compute_tx_root();

    let params = *w.follower.params();
    let parent_mc = mc_block.header.parent;
    let walked = apply_block(
        &params,
        &mut w.follower.state().clone(),
        &trap,
        parent_mc,
        &mut Deferred::new(),
    );
    assert_eq!(
        walked.map(|_| ()),
        Err(ScBlockError::Tx(TxError::UnknownInput(ghost)))
    );
    let before = (w.follower.chain().len(), w.follower.state().digest());
    assert_eq!(
        refusal(w.follower.receive_block(&trap, &mc_block)),
        ScBlockError::Tx(TxError::BadAuthorization { input: 0 })
    );
    assert_eq!(
        (w.follower.chain().len(), w.follower.state().digest()),
        before
    );

    w.follower.receive_block(&sc_block, &mc_block).unwrap();
    assert_eq!(w.follower.state().digest(), w.h.node.state().digest());
}

/// Generated hostile blocks: the forger forges a block of random
/// payments, withdrawals and in-block spends, and 0–3 random corruptions
/// are applied to it. The follower must return the inline validator's
/// verdict (`apply_block` under an eager deferral, on a clone of its
/// state) — the same refusal, error for error — and end in its state
/// digest and at its tip; a block left uncorrupted must leave the
/// follower in the forger's state, at its tip. Prints the cases run,
/// what the forged blocks held, the corruptions applied, the outcomes
/// and how often the signature-owing walk alone would have named
/// another rule than the inline validator.
#[test]
fn prop_hostile_latus_blocks_are_refused_as_the_inline_validator_refuses_them() {
    let mut rng = TestRng::deterministic("two_nodes::prop_hostile_latus_blocks");
    let mut w = Hostile::new("two-nodes-hostile");
    let params = *w.follower.params();
    let mut held: BTreeMap<&str, usize> = BTreeMap::new();
    let mut applied: BTreeMap<String, usize> = BTreeMap::new();
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut walk_differs = 0;
    for case in 0..HOSTILE_CASES {
        w.queue_spends(&mut rng);
        let (mc_block, sc_block) = w.forge();
        let mut minted = HashSet::new();
        for tx in &sc_block.transactions {
            let kind = if inputs_mut(&mut tx.clone())
                .iter()
                .any(|input| minted.contains(&input.utxo.digest()))
            {
                "in_block_spend"
            } else if let ScTransaction::Payment(pay) = tx {
                minted.extend(pay.outputs.iter().map(Utxo::digest));
                "payment"
            } else {
                "withdrawal"
            };
            *held.entry(kind).or_default() += 1;
        }

        let mut block = sc_block.clone();
        let mut corrupted = Vec::new();
        for _ in 0..rng.index(4) {
            let corruption = CORRUPTIONS[rng.index(CORRUPTIONS.len())];
            if w.corrupt(&mut block, corruption, &mut rng) {
                *applied.entry(format!("{corruption:?}")).or_default() += 1;
                corrupted.push(corruption);
            }
        }
        block.header.tx_root = block.compute_tx_root();
        let case = format!("case {case}, corrupted by {corrupted:?}");

        let parent_mc = mc_block.header.parent;
        let mut inline_state = w.follower.state().clone();
        let expected = apply_block(
            &params,
            &mut inline_state,
            &block,
            parent_mc,
            &mut Deferred::eager(),
        )
        .map(|_| ());
        let mut owed = Deferred::new();
        let walked = apply_block(
            &params,
            &mut w.follower.state().clone(),
            &block,
            parent_mc,
            &mut owed,
        )
        .map(|_| ());
        if walked.is_err() && walked != expected {
            walk_differs += 1;
        }

        let (tip, length, digest) = (
            w.follower.chain().last().map(ScBlock::hash),
            w.follower.chain().len(),
            w.follower.state().digest(),
        );
        let got = block_outcome(w.follower.receive_block(&block, &mc_block));
        assert_eq!(got, expected, "{case}: the follower's verdict");
        let (tip, length, digest) = match &expected {
            Ok(()) => (Some(block.hash()), length + 1, inline_state.digest()),
            Err(_) => (tip, length, digest),
        };
        assert_eq!(w.follower.chain().last().map(ScBlock::hash), tip, "{case}");
        assert_eq!(w.follower.chain().len(), length, "{case}");
        assert_eq!(w.follower.state().digest(), digest, "{case}");
        if corrupted.is_empty() {
            assert_eq!(got, Ok(()), "{case}: the forger's block");
            assert_eq!(w.follower.chain(), w.h.node.chain(), "{case}");
            assert_eq!(
                w.follower.state().digest(),
                w.h.node.state().digest(),
                "{case}: forger and follower states diverged"
            );
        }
        *outcomes.entry(rule_name(&expected)).or_default() += 1;

        // Back into lockstep with the forger.
        if w.follower.chain().last() != w.h.node.chain().last() {
            if got.is_ok() {
                w.follower.rollback_to_mc(&parent_mc).unwrap();
            }
            w.follower.receive_block(&sc_block, &mc_block).unwrap();
        }
    }
    println!(
        "hostile Latus blocks: {HOSTILE_CASES} cases; the forged blocks held {held:?}; \
         corruptions applied {applied:?}; outcomes {outcomes:?}; \
         the signature-owing walk alone named another refusal in {walk_differs}"
    );
}
