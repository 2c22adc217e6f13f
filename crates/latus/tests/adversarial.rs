//! Adversarial tests: every forgery path the protocol must close.
//!
//! Each test produces *valid* material through the honest pipeline, then
//! tampers exactly one thing and asserts the mainchain (or the prover
//! itself) rejects it — covering the WCert statement rules (§5.5.3.1),
//! the BTR/CSW statements (§5.5.3.2–3), quality racing, window
//! discipline, nullifier replay, and a mainchain reference taken from
//! the wrong block's commitment or smuggling a certificate past
//! `NoData` evidence.

mod common;

use common::TwoChains;
use std::collections::BTreeMap;
use std::sync::Arc;
use zendoo_core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo_core::proofdata::{ProofData, ProofDataElem};
use zendoo_core::transfer::BackwardTransfer;
use zendoo_latus::block::{apply_block, McBlockReference, McRefError, ScBlockError};
use zendoo_latus::consensus::ConsensusParams;
use zendoo_latus::node::{LatusNode, NodeError};
use zendoo_latus::params::LatusParams;
use zendoo_latus::tx::{McRefEvidence, ReceiverMetadata};
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::{BlockError, Blockchain};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::field::Fp;
use zendoo_primitives::schnorr::Keypair;
use zendoo_snark::deferred::Deferred;

#[test]
fn tampered_quality_rejected() {
    let mut h = TwoChains::new("adv-quality");
    let mut cert = h.bootstrap_funded(1_000);
    // Pump the quality after proving: the proof binds quality via the
    // public input, so verification fails.
    cert.quality += 10;
    cert.epoch_id = 1; // aim at the open window
    while !h.node.epoch_complete() {
        h.step(vec![]);
    }
    let real = h.node.produce_certificate().unwrap();
    assert!(h
        .try_submit(McTransaction::Certificate(Box::new(cert)))
        .is_err());
    // The honest certificate still goes through.
    h.try_submit(McTransaction::Certificate(Box::new(real)))
        .unwrap();
}

#[test]
fn injected_backward_transfer_rejected() {
    let mut h = TwoChains::new("adv-bt");
    h.bootstrap_funded(1_000);
    while !h.node.epoch_complete() {
        h.step(vec![]);
    }
    let mut cert = h.node.produce_certificate().unwrap();
    // Splice a thief payout into the certified BT list.
    cert.bt_list.push(BackwardTransfer {
        receiver: Address::from_label("thief"),
        amount: Amount::from_units(500),
    });
    let err = h
        .try_submit(McTransaction::Certificate(Box::new(cert)))
        .unwrap_err();
    assert!(matches!(err, BlockError::Registry(_)), "{err}");
}

#[test]
fn swapped_proofdata_rejected() {
    let mut h = TwoChains::new("adv-proofdata");
    h.bootstrap_funded(1_000);
    while !h.node.epoch_complete() {
        h.step(vec![]);
    }
    let mut cert = h.node.produce_certificate().unwrap();
    // Claim a different final MST root (element 1 of Latus proofdata).
    cert.proofdata = ProofData(vec![
        cert.proofdata.0[0].clone(),
        ProofDataElem::Field(Fp::from_u64(0xbad)),
        cert.proofdata.0[2].clone(),
    ]);
    assert!(h
        .try_submit(McTransaction::Certificate(Box::new(cert)))
        .is_err());
}

#[test]
fn replayed_certificate_for_wrong_epoch_rejected() {
    let mut h = TwoChains::new("adv-epoch-replay");
    let cert0 = h.bootstrap_funded(1_000);
    // Run epoch 1 honestly.
    while !h.node.epoch_complete() {
        h.step(vec![]);
    }
    let _cert1 = h.node.produce_certificate().unwrap();
    // Replaying the epoch-0 certificate in epoch 1's window: the window
    // check pins certificates to their epoch.
    let mut replay = cert0;
    assert!(h
        .try_submit(McTransaction::Certificate(Box::new(replay.clone())))
        .is_err());
    // Even with the epoch id rewritten, the proof no longer verifies.
    replay.epoch_id = 1;
    assert!(h
        .try_submit(McTransaction::Certificate(Box::new(replay)))
        .is_err());
}

#[test]
fn prover_refuses_false_statements() {
    // The malicious-prover view: with the proving key in hand, the
    // simulated backend still refuses statements whose witness does not
    // satisfy the circuit (knowledge soundness in the model).
    let mut h = TwoChains::new("adv-prover");
    h.bootstrap_funded(1_000);
    while !h.node.epoch_complete() {
        h.step(vec![]);
    }
    // Taking the honest public inputs but a botched witness: directly
    // attempt a base proof with an inconsistent endpoint.
    let sys = &h.keys.system;
    let state = h.node.state();
    let bogus = sys.prove_base(state.digest(), Fp::from_u64(42), &dummy_witness(&h));
    assert!(bogus.is_err(), "no proof for a false transition");
}

fn dummy_witness(h: &TwoChains) -> zendoo_latus::tx::TransitionWitness {
    // A structurally plausible witness that cannot satisfy any real
    // transition (empty updates, mismatched accumulators).
    zendoo_latus::tx::TransitionWitness {
        tx: zendoo_latus::tx::ScTransaction::Payment(zendoo_latus::tx::PaymentTx {
            inputs: vec![],
            outputs: vec![],
        }),
        pre_mst_root: h.node.state().mst().root(),
        pre_bt_accumulator: Fp::from_u64(1),
        pre_delta_accumulator: Fp::from_u64(2),
        pre_sync_accumulator: Fp::from_u64(3),
        updates: vec![],
        ft_opening: None,
        btr_steps: vec![],
    }
}

#[test]
fn btr_tampered_fields_rejected() {
    let mut h = TwoChains::new("adv-btr");
    h.bootstrap_funded(800);
    let utxo = h.node.utxos_of(&h.sc_address())[0];
    let receiver = Address::from_label("legit");
    let btr = h
        .node
        .create_btr(0, &utxo, &h.sc_user.secret, receiver)
        .unwrap();

    // Raise the amount.
    let mut greedy = btr.clone();
    greedy.amount = Amount::from_units(9_999);
    assert!(h.try_submit(McTransaction::Btr(Box::new(greedy))).is_err());

    // Redirect the receiver.
    let mut redirect = btr.clone();
    redirect.receiver = Address::from_label("mallory");
    assert!(h
        .try_submit(McTransaction::Btr(Box::new(redirect)))
        .is_err());

    // Swap the nullifier (double-spend setup).
    let mut renull = btr.clone();
    renull.nullifier = Nullifier::from_utxo_digest(&Digest32::hash_bytes(b"other"));
    assert!(h.try_submit(McTransaction::Btr(Box::new(renull))).is_err());

    // The untampered request is accepted.
    h.try_submit(McTransaction::Btr(Box::new(btr))).unwrap();
}

#[test]
fn ownership_path_longer_than_the_tree_rejected() {
    use zendoo_core::withdrawal::{btr_public_inputs, BtrSysData};
    use zendoo_latus::cert::{sign_withdrawal, utxo_proofdata, OwnershipWitness};
    use zendoo_primitives::smt::SmtProof;
    use zendoo_snark::circuit::Circuit;

    let mut h = TwoChains::new("adv-path-depth");
    h.bootstrap_funded(800);
    let utxo = h.node.utxos_of(&h.sc_address())[0];
    let receiver = Address::from_label("legit");
    let anchor_cert = h.node.cert_inclusion_for(0).unwrap().clone();
    let anchor_block = anchor_cert.mc_header.hash();
    let position = zendoo_latus::mst::mst_position(&utxo, common::MST_DEPTH);
    let exact = h.node.state().mst().proof(position);
    let public = btr_public_inputs(
        &BtrSysData {
            last_cert_block: anchor_block,
            nullifier: utxo.nullifier(),
            receiver,
            amount: utxo.amount,
        },
        &utxo_proofdata(&utxo).merkle_root(),
    );
    let witness_with = |depth: u32, len: usize| {
        let mut siblings = exact.siblings().to_vec();
        siblings.resize(len, Fp::from_u64(7));
        OwnershipWitness {
            utxo,
            owner: h.sc_user.public,
            authorization: sign_withdrawal(
                "btr",
                &h.sc_user.secret,
                &utxo,
                &receiver,
                &anchor_block,
            ),
            mst_proof: SmtProof::from_parts(position, depth, siblings, exact.ending()),
            anchor_cert: anchor_cert.clone(),
        }
    };
    let honest = exact.siblings().len();
    assert!(
        honest < common::MST_DEPTH as usize,
        "a path ends at a lone leaf"
    );
    h.keys
        .btr_circuit
        .check(&public, &witness_with(common::MST_DEPTH, honest))
        .expect("the honest path satisfies the circuit");
    // More siblings than the tree has levels (17, and 65 — beyond the
    // index bits), or a path read at another depth: refused by name.
    for (depth, len) in [
        (common::MST_DEPTH, common::MST_DEPTH as usize + 1),
        (common::MST_DEPTH, 65),
        (common::MST_DEPTH - 1, honest),
    ] {
        let err = h
            .keys
            .btr_circuit
            .check(&public, &witness_with(depth, len))
            .unwrap_err();
        assert!(format!("{err}").contains("btr/path-depth"), "{err}");
    }
}

/// A spend's witness says what the deepest sibling of the spent leaf is
/// — a lone leaf floats up into the freed place, an interior node stays —
/// and the circuit checks that opening against the witnessed sibling
/// hash. A prover who opens it as the other kind (to leave
/// `H_node(EMPTY, leaf)` where `leaf` belongs: a second root for the
/// same UTXO set) is refused under a rule of its own.
#[test]
fn removal_with_the_wrong_sibling_kind_is_unsatisfied() {
    use zendoo_latus::mst::Utxo;
    use zendoo_latus::params::LatusParams;
    use zendoo_latus::proof::proof_system;
    use zendoo_latus::state::SidechainState;
    use zendoo_latus::tx::{apply_transaction, PaymentTx, ScTransaction};
    use zendoo_primitives::schnorr::Keypair;
    use zendoo_primitives::smt::NodeOpening;

    let params = LatusParams::new(
        zendoo_core::ids::SidechainId::from_label("adv-sibling"),
        common::MST_DEPTH,
    );
    let system = proof_system(params, b"adv-sibling");
    let alice = Keypair::from_seed(b"alice");
    let mut state = SidechainState::new(common::MST_DEPTH);
    let coins: Vec<Utxo> = (0..6u8)
        .map(|n| Utxo {
            address: Address::from_public_key(&alice.public),
            amount: Amount::from_units(10),
            nonce: Digest32::hash_bytes(&[n]),
        })
        .collect();
    for coin in &coins {
        state.mst_mut().add(coin).unwrap();
    }
    // Six leaves: some spend sits beside a lone leaf, some beside an
    // interior node. Cover both directions of the swap.
    let mut kinds = std::collections::BTreeSet::new();
    for coin in &coins {
        let mut state = state.clone();
        let from = state.digest();
        let spend = ScTransaction::Payment(PaymentTx::create(
            vec![(*coin, &alice.secret)],
            vec![(Address::from_label("bob"), Amount::from_units(10))],
        ));
        let witness = apply_transaction(&params, &mut state, &spend).unwrap();
        let to = state.digest();
        system.prove_base(from, to, &witness).unwrap();

        let honest = witness.updates[0]
            .sibling
            .expect("the tree holds six leaves");
        let swapped = match honest {
            NodeOpening::Leaf { .. } => NodeOpening::Interior {
                left: Fp::from_u64(1),
                right: Fp::from_u64(2),
            },
            NodeOpening::Interior { left, .. } => NodeOpening::Leaf {
                index: 0,
                value: left,
            },
        };
        kinds.insert(matches!(honest, NodeOpening::Leaf { .. }));
        for bad in [Some(swapped), None] {
            let mut tampered = witness.clone();
            tampered.updates[0].sibling = bad;
            let err = system.prove_base(from, to, &tampered).unwrap_err();
            assert!(format!("{err}").contains("latus/sibling-opening"), "{err}");
        }
    }
    assert_eq!(kinds.len(), 2, "both sibling kinds were exercised");
}

/// A forward-transfers witness is one opening of the pre-state tree, and
/// the circuit derives every transfer's mint or refund from it. An
/// opening that hides an occupant of the walks (so that a refund would
/// read as a mint), or omits a transfer's slot, is unsatisfied.
#[test]
fn forward_transfer_opening_that_hides_an_occupant_or_omits_a_slot_is_unsatisfied() {
    use zendoo_core::commitment::ScTxsCommitmentBuilder;
    use zendoo_core::transfer::ForwardTransfer;
    use zendoo_latus::mst::{mst_position, Utxo};
    use zendoo_latus::params::LatusParams;
    use zendoo_latus::proof::proof_system;
    use zendoo_latus::state::SidechainState;
    use zendoo_latus::tx::{
        apply_transaction, ft_output_utxo, ForwardTransfersTx, McRefBinding, McRefEvidence,
        ReceiverMetadata, ScTransaction,
    };
    use zendoo_mainchain::pow::Target;
    use zendoo_mainchain::BlockHeader;
    use zendoo_primitives::smt::{Ending, SmtOpening};

    let sid = zendoo_core::ids::SidechainId::from_label("adv-ft-opening");
    let params = LatusParams::new(sid, common::MST_DEPTH);
    let system = proof_system(params, b"adv-ft-opening");
    let mut state = SidechainState::new(common::MST_DEPTH);
    for n in 0..6u8 {
        let coin = Utxo {
            address: Address::from_label("holder"),
            amount: Amount::from_units(10),
            nonce: Digest32::hash_bytes(&[n]),
        };
        state.mst_mut().add(&coin).unwrap();
    }
    let transfers: Vec<ForwardTransfer> = (0..4)
        .map(|i| ForwardTransfer {
            sidechain_id: sid,
            receiver_metadata: ReceiverMetadata {
                receiver: Address::from_label(&format!("newcomer-{i}")),
                payback: Address::from_label("mc-refund"),
            }
            .to_bytes(),
            amount: Amount::from_units(5),
        })
        .collect();
    let mut builder = ScTxsCommitmentBuilder::new();
    for ft in &transfers {
        builder.add_forward_transfer(ft.clone());
    }
    let commitment = builder.build();
    let header = BlockHeader {
        parent: Digest32::ZERO,
        height: 0,
        time: 0,
        tx_root: Digest32::ZERO,
        sc_txs_commitment: commitment.root(),
        target: Target::EASIEST,
        nonce: 0,
    };
    let mc_block = header.hash();
    let slots: Vec<u64> = transfers
        .iter()
        .enumerate()
        .map(|(i, ft)| {
            let receiver = ReceiverMetadata::parse(&ft.receiver_metadata)
                .unwrap()
                .receiver;
            let minted = ft_output_utxo(&mc_block, i, receiver, ft.amount);
            mst_position(&minted, common::MST_DEPTH)
        })
        .collect();
    let tx = ScTransaction::ForwardTransfers(ForwardTransfersTx {
        mc_block,
        transfers,
        binding: McRefBinding {
            header,
            evidence: McRefEvidence::Membership(commitment.membership_proof(&sid).unwrap()),
        },
    });

    let pre = state.clone();
    let from = state.digest();
    let witness = apply_transaction(&params, &mut state, &tx).unwrap();
    let to = state.digest();
    assert_eq!(state.mst().len(), 10, "every transfer minted");
    system.prove_base(from, to, &witness).unwrap();
    let refused = |opening: SmtOpening| {
        let mut tampered = witness.clone();
        tampered.ft_opening = Some(opening);
        format!("{}", system.prove_base(from, to, &tampered).unwrap_err())
    };

    // Hide each occupant a walk ends in: the opening of the tree without it.
    let mut hidden = 0;
    for slot in &slots {
        let Ending::Leaf { index, .. } = pre.mst().proof(*slot).ending() else {
            continue;
        };
        let mut without = pre.clone();
        let occupant = *pre.mst().utxo_at(index).unwrap();
        without.mst_mut().remove(&occupant).unwrap();
        let err = refused(without.mst().opening(&slots));
        assert!(err.contains("latus/ft-opening"), "{err}");
        hidden += 1;
    }
    // Omit each slot in turn: where no other walk reaches it, refused.
    let mut omitted = 0;
    for k in 0..slots.len() {
        let mut others = slots.clone();
        others.remove(k);
        let opening = pre.mst().opening(&others);
        if opening.occupant(slots[k]).is_ok() {
            continue;
        }
        let err = refused(opening);
        assert!(err.contains("latus/ft-unopened"), "{err}");
        omitted += 1;
    }
    assert!(
        hidden > 0 && omitted > 0,
        "hidden {hidden}, omitted {omitted}"
    );
}

#[test]
fn btr_by_non_owner_cannot_be_proven() {
    let mut h = TwoChains::new("adv-btr-owner");
    h.bootstrap_funded(800);
    let utxo = h.node.utxos_of(&h.sc_address())[0];
    let mallory = zendoo_primitives::schnorr::Keypair::from_seed(b"mallory");
    // Mallory asks the node to prove a withdrawal of alice's utxo with
    // her own key: the ownership constraint fails at proving time.
    let result = h
        .node
        .create_btr(0, &utxo, &mallory.secret, Address::from_label("mallory"));
    assert!(result.is_err(), "no proof without the owner's key");
}

#[test]
fn historical_csw_on_spent_slot_cannot_be_proven() {
    // Appendix A's soundness direction: once the slot is touched, the
    // delta bit flips and the historical chain no longer proves
    // ownership.
    let mut h = TwoChains::new("adv-csw-spent");
    h.bootstrap_funded(600);
    let utxo = h.node.utxos_of(&h.sc_address())[0];

    // Epoch 1: alice spends her utxo (touching its slot).
    let pay = zendoo_latus::tx::ScTransaction::Payment(zendoo_latus::tx::PaymentTx::create(
        vec![(utxo, &h.sc_user.secret)],
        vec![(Address::from_label("someone-else"), Amount::from_units(600))],
    ));
    h.node.submit_transaction(pay).unwrap();
    let _cert1 = h.run_epoch(vec![]);

    // Cease the sidechain.
    let ceasing = h.schedule.ceasing_height(2);
    h.mine_unsynced_to(ceasing);

    // Historical CSW anchored at epoch 0 across epoch 1 must fail: the
    // epoch-1 delta has the slot's bit set.
    let mut deltas = BTreeMap::new();
    deltas.insert(1u32, h.node.epoch_delta(1).unwrap().clone());
    let result = h.node.create_historical_csw(
        0,
        1,
        &utxo,
        &h.sc_user.secret,
        Address::from_label("rescue"),
        &deltas,
    );
    assert!(result.is_err(), "slot was touched — claim must not prove");
}

#[test]
fn csw_direct_with_forged_membership_rejected() {
    let mut h = TwoChains::new("adv-csw-forged");
    h.bootstrap_funded(600);
    // Cease without epoch-1 certificate.
    let ceasing = h.schedule.ceasing_height(1);
    h.mine_unsynced_to(ceasing);

    // A utxo that never existed on the sidechain.
    let phantom = zendoo_latus::mst::Utxo {
        address: h.sc_address(),
        amount: Amount::from_units(600),
        nonce: Digest32::hash_bytes(b"phantom"),
    };
    let result = h
        .node
        .create_csw(0, &phantom, &h.sc_user.secret, Address::from_label("x"));
    assert!(result.is_err(), "no membership, no proof");
}

#[test]
fn mainchain_rejects_cert_outside_window_even_with_valid_proof() {
    let mut h = TwoChains::new("adv-window");
    h.bootstrap_funded(1_000);
    while !h.node.epoch_complete() {
        h.step(vec![]);
    }
    let cert = h.node.produce_certificate().unwrap();
    // Let the window for epoch 1 close before submitting.
    let ceasing = h.schedule.ceasing_height(1);
    h.mine_unsynced_to(ceasing);
    let err = h
        .try_submit(McTransaction::Certificate(Box::new(cert)))
        .unwrap_err();
    assert!(matches!(err, BlockError::Registry(_)), "{err}");
}

// ---- One commitment per mainchain block, shared by every chain ----------

/// A node handed the sc-txs commitment of another block — here one that
/// credits this chain a forward transfer the block does not carry —
/// refuses it by name before touching anything, and forges on the right
/// one.
#[test]
fn a_reference_from_another_blocks_commitment_is_refused() {
    let mut h = TwoChains::new("adv-foreign-commitment");
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
            Amount::from_units(700),
            Amount::ZERO,
        )
        .unwrap();
    let funding = h.step(vec![ft]);
    h.time += 1;
    let next = h
        .chain
        .mine_next_block(h.mc_wallet.address(), vec![], h.time)
        .unwrap();
    let foreign = Blockchain::build_commitment(&funding.transactions);
    assert!(foreign.data_for(&h.sid).is_some());

    assert_eq!(
        McBlockReference::derive(&next, &foreign, &h.sid),
        Err(McRefError::CommitmentMismatch)
    );
    let (tip, state) = (h.node.chain().len(), h.node.state().digest());
    assert!(matches!(
        h.node.sync_mainchain_block(&next, &foreign),
        Err(NodeError::McRef(McRefError::CommitmentMismatch))
    ));
    assert_eq!(
        (h.node.chain().len(), h.node.state().digest()),
        (tip, state)
    );
    let block = h
        .node
        .sync_mainchain_block(&next, &Blockchain::build_commitment(&next.transactions))
        .unwrap();
    assert!(block.mc_references[0]
        .forward_transfers
        .transfers
        .is_empty());
}

/// A chain absent from a block whose commitment holds another chain's
/// data is served `NoData` evidence and no certificate; a reference
/// that smuggles a certificate in under that evidence is refused by
/// name, and the honest one applies.
#[test]
fn an_absent_chain_is_served_no_data_and_no_certificate() {
    let mut h = TwoChains::new("adv-absent");
    let cert = h.bootstrap_funded(1_000);
    let other = SidechainId::from_label("adv-absent-other");
    let schedule = zendoo_core::epoch::EpochSchedule::new(
        h.chain.height() + 2,
        common::EPOCH_LEN,
        common::SUBMIT_LEN,
    )
    .unwrap();
    let declaration = h
        .keys
        .sidechain_config(&LatusParams::new(other, common::MST_DEPTH), schedule);
    h.step(vec![McTransaction::SidechainDeclaration(Box::new(
        declaration,
    ))]);

    let ft = h
        .mc_wallet
        .forward_transfer(
            &h.chain,
            other,
            vec![0; 8],
            Amount::from_units(300),
            Amount::ZERO,
        )
        .unwrap();
    let parent = h.chain.tip_hash();
    h.time += 1;
    let mc_block = h
        .chain
        .mine_next_block(h.mc_wallet.address(), vec![ft], h.time)
        .unwrap();
    let commitment = Blockchain::build_commitment(&mc_block.transactions);
    assert!(commitment.data_for(&other).is_some());
    assert!(commitment.data_for(&h.sid).is_none());

    let reference = McBlockReference::derive(&mc_block, &commitment, &h.sid).unwrap();
    assert!(matches!(
        reference.forward_transfers.binding.evidence,
        McRefEvidence::NoData(_)
    ));
    assert!(reference.wcert.is_none());

    let params = LatusParams::new(h.sid, common::MST_DEPTH);
    let before = h.node.state().clone();
    let sc_block = h.node.sync_mainchain_block(&mc_block, &commitment).unwrap();
    let mut smuggled = sc_block.clone();
    smuggled.mc_references[0].wcert = Some(cert);
    let inline = |block| {
        apply_block(
            &params,
            &mut before.clone(),
            block,
            parent,
            &mut Deferred::eager(),
        )
    };
    assert_eq!(inline(&smuggled).unwrap_err(), ScBlockError::WcertMismatch);
    inline(&sc_block).unwrap();
}

/// The commitment tree's two sentinel ids (all `0x00`, all `0xff`) bound
/// every block's leaves and are never a sidechain's data, so no
/// membership or absence proof exists for them: a reference for either
/// is refused by name, and a node built for one refuses to sync and
/// stays as it was.
#[test]
fn a_reference_for_a_sentinel_id_is_refused_as_proof_unavailable() {
    let mut h = TwoChains::new("adv-sentinel");
    let anchor = h.chain.tip_hash();
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
            Amount::from_units(700),
            Amount::ZERO,
        )
        .unwrap();
    h.time += 1;
    let mc_block = h
        .chain
        .mine_next_block(h.mc_wallet.address(), vec![ft], h.time)
        .unwrap();
    let commitment = Blockchain::build_commitment(&mc_block.transactions);
    let sentinels = [0x00, 0xff].map(|byte| SidechainId(Digest32([byte; 32])));
    for sentinel in &sentinels {
        assert!(sentinel.is_reserved());
        assert_eq!(
            McBlockReference::derive(&mc_block, &commitment, sentinel),
            Err(McRefError::ProofUnavailable)
        );
    }

    let forger = Keypair::from_seed(b"forger");
    let mut node = LatusNode::new(
        LatusParams::new(sentinels[1], common::MST_DEPTH),
        h.schedule,
        ConsensusParams::with_bootstrap(forger.public),
        Arc::clone(&h.keys),
        forger,
        anchor,
    );
    let seen = |node: &LatusNode| {
        (
            node.chain().len(),
            node.state().digest(),
            node.snapshot_count(),
            node.current_epoch(),
        )
    };
    let before = seen(&node);
    for _ in 0..2 {
        let refused = node.sync_mainchain_block(&mc_block, &commitment);
        assert!(
            matches!(refused, Err(NodeError::McRef(McRefError::ProofUnavailable))),
            "{refused:?}"
        );
        assert_eq!(seen(&node), before);
    }
}

/// A mainchain block whose parent is not the last one synced is refused
/// by name; the node stays where it was and syncs the gap in order.
#[test]
fn a_mainchain_block_past_a_gap_is_refused_by_name() {
    let mut h = TwoChains::new("adv-gap");
    h.step(vec![]);
    let expected = h.chain.tip_hash();
    let mine = |h: &mut TwoChains| {
        h.time += 1;
        h.chain
            .mine_next_block(h.mc_wallet.address(), vec![], h.time)
            .unwrap()
    };
    let skipped = mine(&mut h);
    let block = mine(&mut h);
    let sync = |h: &mut TwoChains, block: &zendoo_mainchain::Block| {
        h.node
            .sync_mainchain_block(block, &Blockchain::build_commitment(&block.transactions))
            .map(|_| ())
    };
    let refused = sync(&mut h, &block);
    assert!(
        matches!(refused, Err(NodeError::NonContiguousMcBlock { expected: e, found })
            if e == expected && found == skipped.hash()),
        "{refused:?}"
    );
    sync(&mut h, &skipped).unwrap();
    sync(&mut h, &block).unwrap();
}

/// A certificate is produced only at the epoch's end: asked for one in
/// the middle of the epoch, the node refuses by name and certifies the
/// same epoch once its last block is synced.
#[test]
fn a_certificate_asked_for_mid_epoch_is_refused_by_name() {
    let mut h = TwoChains::new("adv-early");
    h.step(vec![]);
    assert!(!h.node.epoch_complete());
    let refused = h.node.produce_certificate();
    assert!(
        matches!(refused, Err(NodeError::EpochNotComplete)),
        "{refused:?}"
    );
    while !h.node.epoch_complete() {
        h.step(vec![]);
    }
    assert_eq!(h.node.produce_certificate().unwrap().epoch_id, 0);
}
