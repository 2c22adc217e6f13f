//! Multi-node agreement (paper §5.1's decentralization): a forger and an
//! independent validator process the same mainchain; the validator
//! checks every block (linkage, leadership, stateful validity) and ends
//! with an identical state — and, holding the same witnesses, produces a
//! byte-identical certificate.

mod common;

use common::TwoChains;
use std::sync::Arc;
use zendoo_core::crosschain::escrow_address;
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_latus::block::ScBlockError;
use zendoo_latus::consensus::ConsensusParams;
use zendoo_latus::node::{LatusNode, NodeError};
use zendoo_latus::params::LatusParams;
use zendoo_latus::tx::{PaymentTx, ReceiverMetadata, ScTransaction, TxError};
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::{Block, Blockchain};
use zendoo_primitives::schnorr::Keypair;

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
