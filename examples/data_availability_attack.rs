//! The data-availability attack and the `mst_delta` escape hatch
//! (paper Appendix A): a compromised sidechain publishes certificates
//! but *withholds the state behind them*, so users cannot produce
//! membership proofs against the newest committed MST. With `mst_delta`
//! in every certificate, a user proves ownership against an *older*
//! state they do have, plus a chain of deltas showing their slot was
//! never touched since.
//!
//! ```text
//! cargo run --example data_availability_attack
//! ```

use std::collections::BTreeMap;
use zendoo::core::ids::Address;
use zendoo::mainchain::transaction::McTransaction;
use zendoo::mainchain::SidechainStatus;
use zendoo::sim::{SimConfig, World};

fn main() {
    println!("=== Data-availability attack & mst_delta recovery ===\n");

    let mut world = World::new(SimConfig::default());
    let sc = world.sidechain_ids()[0];

    // Epoch 0: alice receives coins; the state is public so far.
    world
        .queue_forward_transfer_on(&sc, "alice", 4_200)
        .unwrap();
    world.run_epochs(1).unwrap();
    let alice = world.user("alice").unwrap().clone();
    let utxo = world
        .node_of(&sc)
        .unwrap()
        .utxos_of(&alice.sc_address_on(&sc))[0];
    println!(
        "epoch 0 certified publicly; alice's utxo ({} coins) is in the committed MST",
        utxo.amount
    );

    // Epochs 1–2: the adversary keeps certifying — the certificates
    // (with their mst_delta commitments) are on the public mainchain —
    // but withholds the new MST contents. Alice can no longer build a
    // membership proof for the latest state. Her slot, however, is
    // untouched, and each certificate's delta proves that.
    world.run_epochs(2).unwrap();
    println!("epochs 1–2 certified by the adversary (state withheld from users)");

    // The sidechain then ceases (the adversary walks away).
    world.withhold_certificates = true;
    while world.sidechain_status_of(&sc) == Some(SidechainStatus::Active) {
        world.step().unwrap();
    }
    println!("sidechain ceased\n");

    // Alice assembles her recovery material — all of it public:
    //   * her utxo + key,
    //   * the epoch-0 certificate (and its state, which WAS published),
    //   * the epoch-1 and epoch-2 certificates' deltas.
    let node = world.node_of(&sc).unwrap();
    let mut deltas = BTreeMap::new();
    for epoch in 1u32..=2 {
        let delta = node.epoch_delta(epoch).unwrap().clone();
        println!(
            "epoch {epoch} delta: {} touched slot(s); alice's slot touched: {}",
            delta.count(),
            delta.bit(zendoo::latus::mst::mst_position(&utxo, 16)),
        );
        deltas.insert(epoch, delta);
    }

    let rescue = Address::from_label("alice-survives");
    let csw = node
        .create_historical_csw(0, 2, &utxo, &alice.sc_keys_on(&sc).secret, rescue, &deltas)
        .unwrap();
    world.queue_mc_tx(McTransaction::Csw(Box::new(csw)));
    world.step().unwrap();

    let recovered = world.chain.state().utxos.balance_of(&rescue);
    println!("\nhistorical CSW accepted: {recovered} coins recovered without the withheld state");
    assert_eq!(recovered.units(), 4_200);
    assert!(world.conservation_holds());
    println!("conservation audit: OK");
}
