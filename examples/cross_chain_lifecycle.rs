//! The full cross-chain lifecycle, driven manually (no simulator):
//! chain + node wiring, forward transfers, sidechain payments, backward
//! transfers, BTR-from-the-mainchain, certificates across multiple
//! epochs — the complete Fig 13/14 round trip.
//!
//! ```text
//! cargo run --example cross_chain_lifecycle
//! ```

use std::sync::Arc;
use zendoo::core::epoch::EpochSchedule;
use zendoo::core::ids::{Address, Amount, SidechainId};
use zendoo::latus::consensus::ConsensusParams;
use zendoo::latus::node::{LatusKeys, LatusNode};
use zendoo::latus::params::LatusParams;
use zendoo::latus::tx::{BackwardTransferTx, PaymentTx, ReceiverMetadata, ScTransaction};
use zendoo::mainchain::chain::{Blockchain, ChainParams};
use zendoo::mainchain::transaction::{McTransaction, TxOut};
use zendoo::mainchain::wallet::Wallet;
use zendoo::primitives::schnorr::Keypair;

fn main() {
    println!("=== Cross-chain lifecycle ===\n");

    // ---- Mainchain bootstrap with a funded user.
    let alice_mc = Wallet::from_seed(b"alice");
    let mut chain = Blockchain::new(ChainParams {
        genesis_outputs: vec![TxOut::regular(
            alice_mc.address(),
            Amount::from_units(1_000_000),
        )],
        ..ChainParams::default()
    });

    // ---- Latus setup: trusted setup + sidechain registration (§4.2).
    let sid = SidechainId::from_label("lifecycle-demo");
    let latus_params = LatusParams::new(sid, 16);
    let schedule = EpochSchedule::new(2, 5, 2).unwrap();
    let keys = Arc::new(LatusKeys::generate(latus_params, schedule, b"demo"));
    let config = keys.sidechain_config(&latus_params, schedule);
    chain
        .mine_next_block(
            alice_mc.address(),
            vec![McTransaction::SidechainDeclaration(Box::new(config))],
            1,
        )
        .unwrap();
    println!("sidechain {sid} declared (epochs of 5 MC blocks, window 2)");

    let forger = Keypair::from_seed(b"forger");
    let mut node = LatusNode::new(
        latus_params,
        schedule,
        ConsensusParams::with_bootstrap(forger.public),
        keys,
        forger,
        chain.tip_hash(),
    );

    // ---- Epoch 0: Alice forwards 50 000 coins.
    let alice_sc = Keypair::from_seed(b"alice-sc");
    let alice_sc_addr = Address::from_public_key(&alice_sc.public);
    let meta = ReceiverMetadata {
        receiver: alice_sc_addr,
        payback: alice_mc.address(),
    };
    let ft = alice_mc
        .forward_transfer(
            &chain,
            sid,
            meta.to_bytes(),
            Amount::from_units(50_000),
            Amount::ZERO,
        )
        .unwrap();

    let mut time = 1u64;
    let mut pending_mc = vec![ft];
    for epoch in 0u32..3 {
        while !node.epoch_complete() {
            time += 1;
            let block = chain
                .mine_next_block(alice_mc.address(), std::mem::take(&mut pending_mc), time)
                .unwrap();
            node.sync_mainchain_block(&block).unwrap();
        }
        let cert = node.produce_certificate().unwrap();
        println!(
            "epoch {epoch}: certificate quality={} bts={} proof={} bytes",
            cert.quality,
            cert.bt_list.len(),
            zendoo::snark::Proof::SIZE
        );
        pending_mc.push(McTransaction::Certificate(Box::new(cert)));

        // Mid-lifecycle actions:
        match epoch {
            0 => {
                // Pay bob 20 000 on the sidechain.
                let bob = Keypair::from_seed(b"bob-sc");
                let bob_addr = Address::from_public_key(&bob.public);
                let utxo = node.utxos_of(&alice_sc_addr)[0];
                let pay = ScTransaction::Payment(PaymentTx::create(
                    vec![(utxo, &alice_sc.secret)],
                    vec![
                        (bob_addr, Amount::from_units(20_000)),
                        (alice_sc_addr, Amount::from_units(30_000)),
                    ],
                ));
                node.submit_transaction(pay).unwrap();
                println!("  queued: alice → bob 20 000 on the sidechain");
            }
            1 => {
                // Alice withdraws 10 000 back to the mainchain.
                let utxo = node.utxos_of(&alice_sc_addr)[0];
                let refund = utxo.amount.checked_sub(Amount::from_units(10_000)).unwrap();
                let bt = ScTransaction::BackwardTransfer(BackwardTransferTx::create(
                    vec![(utxo, &alice_sc.secret)],
                    vec![
                        (alice_mc.address(), Amount::from_units(10_000)),
                        (alice_mc.address(), refund),
                    ],
                ));
                node.submit_transaction(bt).unwrap();
                println!("  queued: alice withdraws 10 000 (+change) to the mainchain");
            }
            _ => {}
        }
    }

    // Flush the last certificate and let payouts mature.
    for _ in 0..4 {
        time += 1;
        let block = chain
            .mine_next_block(alice_mc.address(), std::mem::take(&mut pending_mc), time)
            .unwrap();
        node.sync_mainchain_block(&block).unwrap();
    }

    let entry = chain.state().registry.get(&sid).unwrap();
    println!("\nfinal state:");
    println!("  sidechain balance (safeguard) = {}", entry.balance);
    println!(
        "  certificates accepted          = {}",
        entry.certificates.len()
    );
    println!(
        "  alice MC balance               = {}",
        chain.state().utxos.balance_of(&alice_mc.address())
    );
    println!(
        "  alice SC balance               = {}",
        node.balance_of(&alice_sc_addr)
    );
    println!(
        "  bob SC balance                 = {}",
        node.balance_of(&Address::from_public_key(
            &Keypair::from_seed(b"bob-sc").public
        ))
    );

    let state = chain.state();
    assert_eq!(
        state
            .utxos
            .total_value()
            .checked_add(state.registry.total_locked())
            .unwrap(),
        state.minted
    );
    println!("\nconservation audit: OK");
}
