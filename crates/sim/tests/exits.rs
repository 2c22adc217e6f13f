//! The mainchain half of leaving a sidechain, as the world's metrics
//! count it: a backward transfer request (§5.5.3.2) and a ceased
//! sidechain withdrawal (§5.5.3.3) are counted once each when a block
//! carrying them is accepted, and a replay is a rejection.

use zendoo_core::ids::Address;
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::SidechainStatus;
use zendoo_sim::{SimConfig, World};

/// A world whose one sidechain certified epoch 0 with 7,500 coins of
/// alice's on it.
fn certified_world() -> World {
    let mut world = World::new(SimConfig::default());
    let sc = world.sidechain_ids()[0];
    world
        .queue_forward_transfer_on(&sc, "alice", 7_500)
        .unwrap();
    world.run_epochs(1).unwrap();
    world
}

/// `examples/ceased_sidechain.rs`, which printed `csws=0` after its CSW
/// was accepted.
#[test]
fn an_accepted_csw_is_counted_once_and_its_replay_is_a_rejection() {
    let mut world = certified_world();
    let sc = world.sidechain_ids()[0];
    world.withhold_certificates_for(&sc);
    while world.sidechain_status_of(&sc) == Some(SidechainStatus::Active) {
        world.step().unwrap();
    }

    let alice = world.user("alice").unwrap().clone();
    let node = world.node_of(&sc).unwrap();
    let utxo = node.utxos_of(&alice.sc_address_on(&sc))[0];
    let rescue = Address::from_label("alice-rescue");
    let csw = node
        .create_csw(0, &utxo, &alice.sc_keys_on(&sc).secret, rescue)
        .unwrap();
    world.queue_mc_tx(McTransaction::Csw(Box::new(csw.clone())));
    world.step().unwrap();
    assert_eq!(world.chain.state().utxos.balance_of(&rescue), utxo.amount);
    assert_eq!(world.metrics.csws_accepted, 1);
    assert_eq!(world.metrics.btrs_accepted, 0);

    let rejections = world.metrics.rejections;
    world.queue_mc_tx(McTransaction::Csw(Box::new(csw)));
    world.step().unwrap();
    assert_eq!(world.metrics.csws_accepted, 1, "the replay is not counted");
    assert_eq!(world.metrics.rejections, rejections + 1);
    assert!(world.conservation_holds());
    assert!(world.metrics.report().contains("btrs=0 csws=1"));
}

#[test]
fn an_accepted_btr_is_counted_once() {
    let mut world = certified_world();
    let sc = world.sidechain_ids()[0];
    // The node anchors the request at the certificate it saw included.
    while world.node_of(&sc).unwrap().cert_inclusion_for(0).is_none() {
        world.step().unwrap();
    }
    let alice = world.user("alice").unwrap().clone();
    let node = world.node_of(&sc).unwrap();
    let utxo = node.utxos_of(&alice.sc_address_on(&sc))[0];
    let btr = node
        .create_btr(0, &utxo, &alice.sc_keys_on(&sc).secret, alice.mc_address())
        .unwrap();
    world.queue_mc_tx(McTransaction::Btr(Box::new(btr)));
    world.step().unwrap();
    assert_eq!(world.metrics.btrs_accepted, 1);
    assert_eq!(world.metrics.csws_accepted, 0);
    assert_eq!(world.metrics.rejections, 0);
    assert!(world.conservation_holds());
}
