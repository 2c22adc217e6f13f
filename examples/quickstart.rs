//! Quickstart: create a mainchain, register a Latus sidechain, move
//! coins forward, run one withdrawal epoch, and watch the certificate —
//! carrying a real recursive state-transition proof — get verified and
//! accepted by the mainchain.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use zendoo::sim::{SimConfig, World};

fn main() {
    println!("=== Zendoo quickstart ===\n");

    // One mainchain + one Latus sidechain, with alice and bob funded at
    // mainchain genesis.
    let mut world = World::new(SimConfig::default());
    let sc = world.sidechain_ids()[0];
    println!("world created: sidechain {sc} registered on the mainchain");

    // Alice moves 10 000 coins to the sidechain (a forward transfer —
    // the coins are destroyed on the MC and credited to the sidechain's
    // safeguard balance).
    world
        .queue_forward_transfer_on(&sc, "alice", 10_000)
        .unwrap();
    world.step().unwrap();
    println!(
        "forward transfer mined; sidechain balance on MC = {}",
        world.sidechain_balance_of(&sc)
    );

    // Run a full withdrawal epoch: the node forges one SC block per MC
    // block, accumulates transition witnesses, and at the boundary folds
    // them into a single constant-size proof (Fig 11) inside the
    // certificate.
    world.run_epochs(1).unwrap();
    println!(
        "epoch certified: {} certificate(s) accepted by the mainchain",
        world.metrics.certificates_accepted
    );

    // Alice's coins exist on the sidechain now.
    let alice = world.user("alice").unwrap().clone();
    let alice_sc = alice.sc_address_on(&sc);
    println!(
        "alice's sidechain balance = {}",
        world.node_of(&sc).unwrap().balance_of(&alice_sc)
    );

    // She withdraws 4 000 back to the mainchain.
    world.sc_withdraw_on(&sc, "alice", 4_000).unwrap();
    world.run_epochs(2).unwrap();
    println!(
        "after withdrawal + maturity: alice MC balance = {}, SC balance = {}",
        world.chain.state().utxos.balance_of(&alice.mc_address()),
        world.node_of(&sc).unwrap().balance_of(&alice_sc),
    );

    assert!(world.conservation_holds());
    println!("\nconservation audit: OK");
    println!("metrics: {}", world.metrics.report());
}
