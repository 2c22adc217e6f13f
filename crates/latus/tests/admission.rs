//! What a Latus node admits, what it refuses by name, and what it
//! verifies once.
//!
//! A payment or withdrawal is checked against every §5.3 spend rule
//! where it enters the node. The signature check is the only rule whose
//! answer cannot change with the state, so a forger owes the signatures
//! it verified at admission to that admission and does not verify them
//! again when it forges them into a block, or when it applies them to
//! the pending view a cross-chain transfer is checked against. Every
//! state-dependent rule runs again there, and a node receiving the
//! block from another forger verifies every signature itself, as one
//! batch equation.

mod common;

use common::TwoChains;
use std::sync::Arc;
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_latus::block::{ScBlock, ScBlockError};
use zendoo_latus::consensus::ConsensusParams;
use zendoo_latus::mst::{mst_position, Utxo};
use zendoo_latus::node::{LatusNode, NodeError};
use zendoo_latus::params::LatusParams;
use zendoo_latus::tx::{PaymentTx, ReceiverMetadata, ScTransaction, SignedInput, TxError};
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::{Block, Blockchain};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::opcount::{measure, OpCount};
use zendoo_primitives::schnorr::Keypair;

/// The payments a forged block carries in the verify-once tests.
const PAYMENTS: usize = 8;

/// A follower of `h`'s chain, as `two_nodes` builds one.
fn follower(h: &TwoChains) -> LatusNode {
    LatusNode::new(
        LatusParams::new(h.sid, common::MST_DEPTH),
        h.schedule,
        ConsensusParams::with_bootstrap(Keypair::from_seed(b"forger").public),
        Arc::clone(&h.keys),
        Keypair::from_seed(b"follower"),
        h.chain.tip_hash(),
    )
}

/// Mines the next MC block with `txs` and has the forger forge on it,
/// returning both blocks and what the forge alone cost.
fn forge(h: &mut TwoChains, txs: Vec<McTransaction>) -> (Block, ScBlock, OpCount) {
    h.time += 1;
    let mc_block = h
        .chain
        .mine_next_block(h.mc_wallet.address(), txs, h.time)
        .unwrap();
    let commitment = Blockchain::build_commitment(&mc_block.transactions);
    let (sc_block, cost) = measure(|| h.node.sync_mainchain_block(&mc_block, &commitment));
    (mc_block, sc_block.unwrap(), cost)
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

/// Funds the SC user with `coins` coins of 100 units each: a deposit,
/// then one payment splitting it. The follower, if any, receives both
/// blocks.
fn fund(h: &mut TwoChains, follower: Option<&mut LatusNode>, coins: usize) -> Vec<Utxo> {
    let me = h.sc_address();
    let ft = deposit(h, 100 * coins as u64);
    let (mc_deposit, sc_deposit, _) = forge(h, vec![ft]);
    let funded = h.node.utxos_of(&me)[0];
    let split = PaymentTx::create(
        vec![(funded, &h.sc_user.secret)],
        vec![(me, Amount::from_units(100)); coins],
    );
    h.node
        .submit_transaction(ScTransaction::Payment(split))
        .unwrap();
    let (mc_split, sc_split, _) = forge(h, vec![]);
    if let Some(follower) = follower {
        follower.receive_block(&sc_deposit, &mc_deposit).unwrap();
        follower.receive_block(&sc_split, &mc_split).unwrap();
    }
    let coins_held = h.node.utxos_of(&me);
    assert_eq!(coins_held.len(), coins);
    coins_held
}

/// A payment of `coin` back to its owner, signed by the owner.
fn pay_back(h: &TwoChains, coin: Utxo) -> ScTransaction {
    ScTransaction::Payment(PaymentTx::create(
        vec![(coin, &h.sc_user.secret)],
        vec![(h.sc_address(), coin.amount)],
    ))
}

/// `payment` with input 0's signature replaced by one another key made
/// over the same message: the key still hashes to the owner's address,
/// the signature is simply not the owner's.
fn signed_by_another_key(payment: &ScTransaction) -> ScTransaction {
    let ScTransaction::Payment(pay) = payment else {
        panic!("expects a payment")
    };
    let mut pay = pay.clone();
    pay.inputs[0].signature = Keypair::from_seed(b"mallory")
        .secret
        .sign("zendoo/sc-sighash-v1", pay.sighash().as_bytes());
    ScTransaction::Payment(pay)
}

/// A payment built field by field (whatever its outputs), signed by the
/// SC user over its own sighash.
fn signed_payment(h: &TwoChains, spent: &[Utxo], outputs: Vec<Utxo>) -> ScTransaction {
    let unsigned = PaymentTx {
        inputs: spent
            .iter()
            .map(|utxo| SignedInput {
                utxo: *utxo,
                pubkey: h.sc_user.public,
                signature: h.sc_user.secret.sign("unsigned", b""),
            })
            .collect(),
        outputs,
    };
    let sighash = unsigned.sighash();
    let mut pay = unsigned;
    for input in &mut pay.inputs {
        input.signature = h
            .sc_user
            .secret
            .sign("zendoo/sc-sighash-v1", sighash.as_bytes());
    }
    ScTransaction::Payment(pay)
}

/// The transaction error a refused submission carries.
fn refused(outcome: Result<(), NodeError>) -> TxError {
    match outcome {
        Err(NodeError::Tx(error)) => error,
        other => panic!("expected a transaction refusal, got {other:?}"),
    }
}

/// Every spend rule a forger still runs once it stops re-verifying
/// admitted signatures refuses a payment at admission by name, and
/// leaves the pending queue as it was.
#[test]
fn every_spend_rule_refuses_by_name_at_admission() {
    let mut h = TwoChains::new("admission-refusals");
    let coins = fund(&mut h, None, 3);
    let (coin, other) = (coins[0], coins[1]);
    let me = h.sc_address();

    // BadAuthorization, twice: a key that does not own the coin, and the
    // owner's key carrying another key's signature.
    let stranger = Keypair::from_seed(b"stranger");
    let stolen = ScTransaction::Payment(PaymentTx::create(
        vec![(coin, &stranger.secret)],
        vec![(me, coin.amount)],
    ));
    assert_eq!(
        refused(h.node.submit_transaction(stolen)),
        TxError::BadAuthorization { input: 0 }
    );
    let forged = signed_by_another_key(&pay_back(&h, coin));
    assert_eq!(
        refused(h.node.submit_transaction(forged)),
        TxError::BadAuthorization { input: 0 }
    );

    // DuplicateInput: one coin spent twice in one payment.
    let twice = ScTransaction::Payment(PaymentTx::create(
        vec![(coin, &h.sc_user.secret), (coin, &h.sc_user.secret)],
        vec![(me, coin.amount)],
    ));
    assert_eq!(
        refused(h.node.submit_transaction(twice)),
        TxError::DuplicateInput(coin.digest())
    );

    // UnknownInput: a coin the user could own, but the state never held.
    let ghost = Utxo {
        address: me,
        amount: Amount::from_units(100),
        nonce: Digest32::hash_bytes(b"never minted"),
    };
    assert_eq!(
        refused(h.node.submit_transaction(pay_back(&h, ghost))),
        TxError::UnknownInput(ghost.digest())
    );

    // ValueImbalance: paying out one unit more than the coin holds.
    let inflated = ScTransaction::Payment(PaymentTx::create(
        vec![(coin, &h.sc_user.secret)],
        vec![(me, Amount::from_units(101))],
    ));
    assert_eq!(
        refused(h.node.submit_transaction(inflated)),
        TxError::ValueImbalance {
            input: Amount::from_units(100),
            output: Amount::from_units(101),
        }
    );

    // IntraTxCollision: two outputs of one payment in one slot.
    let half = Utxo {
        address: me,
        amount: Amount::from_units(50),
        nonce: Digest32::hash_bytes(b"one slot"),
    };
    let position = mst_position(&half, common::MST_DEPTH);
    assert_eq!(
        refused(
            h.node
                .submit_transaction(signed_payment(&h, &[coin], vec![half, half]))
        ),
        TxError::IntraTxCollision { position }
    );

    // OutputCollision: an output in the slot of a coin the payment does
    // not spend.
    let position = mst_position(&other, common::MST_DEPTH);
    assert_eq!(
        refused(
            h.node
                .submit_transaction(signed_payment(&h, &[coin], vec![other]))
        ),
        TxError::OutputCollision { position }
    );

    // None of them was queued: the next block carries nothing.
    let (_, block, _) = forge(&mut h, vec![]);
    assert!(block.transactions.is_empty());
    // And the honest payment is admitted and forged.
    h.node.submit_transaction(pay_back(&h, coin)).unwrap();
    let (_, block, _) = forge(&mut h, vec![]);
    assert_eq!(block.transactions, vec![pay_back(&h, coin)]);
}

/// A forger verifies each payment's signature once, at admission:
/// forging a block of `PAYMENTS` admitted payments costs the group
/// multiplications of forging an empty block — its header signature
/// alone. A follower receiving that block verifies the header's and all
/// `PAYMENTS` input signatures as one batch equation, and refuses by
/// name a copy of the block, re-signed by the forger, in which one
/// payment carries another key's signature.
#[test]
fn a_forger_owes_signatures_to_admission_and_a_follower_to_one_batch() {
    let mut h = TwoChains::new("admission-forge");
    let mut validator = follower(&h);
    let coins = fund(&mut h, Some(&mut validator), PAYMENTS);

    // An empty block, forged and received.
    let (mc_empty, sc_empty, empty_forge) = forge(&mut h, vec![]);
    let ((), empty_receive) = measure(|| validator.receive_block(&sc_empty, &mc_empty).unwrap());

    let mut admitting = OpCount::default();
    for coin in &coins {
        let payment = pay_back(&h, *coin);
        let ((), cost) = measure(|| h.node.submit_transaction(payment).unwrap());
        admitting = admitting + cost;
    }
    assert_eq!(
        admitting.group_muls, PAYMENTS as u64,
        "one signature check per payment, at admission"
    );
    let (mc_block, sc_block, full_forge) = forge(&mut h, vec![]);
    assert_eq!(sc_block.transactions.len(), PAYMENTS);
    assert_eq!(
        full_forge.group_muls, empty_forge.group_muls,
        "forging {PAYMENTS} admitted payments verifies none of them again"
    );
    assert_eq!(empty_forge.group_muls, 1, "the header signature alone");

    // The follower was not the admitting node: a payment signed by
    // another key is refused by name, and the refusal changes nothing.
    let mut forged = sc_block.clone();
    forged.transactions[PAYMENTS / 2] = signed_by_another_key(&forged.transactions[PAYMENTS / 2]);
    common::reseal(&mut forged);
    match validator.receive_block(&forged, &mc_block) {
        Err(NodeError::Block(error)) => assert_eq!(
            error,
            ScBlockError::Tx(TxError::BadAuthorization { input: 0 })
        ),
        other => panic!("expected a block refusal, got {other:?}"),
    }
    let ((), full_receive) = measure(|| validator.receive_block(&sc_block, &mc_block).unwrap());
    assert_eq!(
        empty_receive.group_muls, 1,
        "an empty block's header signature is one batch of one"
    );
    assert_eq!(
        full_receive.group_muls, empty_receive.group_muls,
        "the follower verifies every signature of the block in one batch"
    );
    assert_eq!(validator.state().digest(), h.node.state().digest());
}

/// The pending view a cross-chain transfer is checked against applies
/// the queued payments owing their signatures to admission: a transfer
/// submitted after `PAYMENTS` payments costs the group multiplications
/// of the same transfer submitted on an empty queue.
#[test]
fn a_cross_transfer_after_queued_payments_reverifies_none_of_them() {
    let mut h = TwoChains::new("admission-cross");
    let coins = fund(&mut h, None, PAYMENTS + 3);
    let dest = SidechainId::from_label("admission-cross-dest");
    let me = h.sc_address();
    let receiver = Address::from_label("receiver");
    let cross = |node: &mut LatusNode, coin: Utxo, secret| {
        measure(|| {
            node.submit_cross_transfer(vec![(coin, secret)], coin.amount, dest, receiver, me)
                .unwrap()
        })
        .1
    };

    // The first transfer warms the constants a transfer builds lazily
    // (the escrow address); the second is the one measured on an empty
    // queue.
    let secret = h.sc_user.secret;
    cross(&mut h.node, coins[PAYMENTS], &secret);
    let alone = cross(&mut h.node, coins[PAYMENTS + 1], &secret);
    forge(&mut h, vec![]);
    for coin in &coins[..PAYMENTS] {
        h.node.submit_transaction(pay_back(&h, *coin)).unwrap();
    }
    let behind_payments = cross(&mut h.node, coins[PAYMENTS + 2], &secret);
    assert_eq!(
        behind_payments.group_muls, alone.group_muls,
        "the {PAYMENTS} queued payments' signatures are not verified again"
    );
    let (_, block, _) = forge(&mut h, vec![]);
    assert_eq!(block.transactions.len(), PAYMENTS + 1);
}
