//! Ceased-sidechain recovery (paper §4.1.2.1 / §5.5.3.3): a sidechain
//! stops posting certificates, the mainchain marks it ceased at the end
//! of the submission window (Def 4.2), and users recover their coins
//! with ceased-sidechain withdrawals — proofs of UTXO ownership in the
//! last committed state, verified by the mainchain alone.
//!
//! ```text
//! cargo run --example ceased_sidechain
//! ```

use zendoo::core::ids::Address;
use zendoo::mainchain::transaction::McTransaction;
use zendoo::mainchain::SidechainStatus;
use zendoo::sim::{SimConfig, World};

fn main() {
    println!("=== Ceased sidechain & CSW recovery ===\n");

    let mut world = World::new(SimConfig::default());
    let sc = world.sidechain_ids()[0];

    // Alice moves coins over and the first epoch certifies normally.
    world
        .queue_forward_transfer_on(&sc, "alice", 7_500)
        .unwrap();
    world.run_epochs(1).unwrap();
    println!(
        "epoch 0 certified; sidechain status = {:?}",
        world.sidechain_status_of(&sc).unwrap()
    );

    // Disaster: the sidechain stops producing certificates (operators
    // vanish, or a malicious majority censors them).
    world.withhold_certificates_for(&sc);
    println!("\n-- sidechain stops certifying --");
    while world.sidechain_status_of(&sc) == Some(SidechainStatus::Active) {
        world.step().unwrap();
    }
    println!(
        "mainchain ceased the sidechain (no certificate within the {}-block window)",
        3
    );
    println!(
        "withheld certificates: {}",
        world.metrics.certificates_withheld
    );

    // Alice still holds her UTXO and the last certified state is public:
    // she builds a CSW against the epoch-0 certificate.
    let alice = world.user("alice").unwrap().clone();
    let node = world.node_of(&sc).unwrap();
    let utxo = node.utxos_of(&alice.sc_address_on(&sc))[0];
    println!(
        "\nalice's stranded utxo: {} coins at nullifier {:?}",
        utxo.amount,
        utxo.nullifier()
    );

    let rescue_addr = Address::from_label("alice-rescue");
    let csw = node
        .create_csw(0, &utxo, &alice.sc_keys_on(&sc).secret, rescue_addr)
        .unwrap();
    world.queue_mc_tx(McTransaction::Csw(Box::new(csw.clone())));
    world.step().unwrap();
    println!(
        "CSW accepted: {} coins paid to the rescue address",
        world.chain.state().utxos.balance_of(&rescue_addr)
    );

    // A replay of the same CSW is rejected: the nullifier is spent.
    world.queue_mc_tx(McTransaction::Csw(Box::new(csw)));
    let rejections_before = world.metrics.rejections;
    world.step().unwrap();
    assert!(world.metrics.rejections > rejections_before);
    println!("replayed CSW rejected (nullifier already spent)");

    assert!(world.conservation_holds());
    println!("\nconservation audit: OK");
    println!("metrics: {}", world.metrics.report());
}
