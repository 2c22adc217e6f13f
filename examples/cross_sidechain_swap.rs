//! Cross-sidechain swap: two Latus sidechains exchange value through
//! the mainchain without trusting each other's consensus.
//!
//! Lifecycle demonstrated end to end:
//!
//! 1. declare two sidechains on the mainchain;
//! 2. forward-transfer mainchain coins into `sc-0`;
//! 3. initiate a cross-chain transfer `sc-0 → sc-1`: the coins are
//!    escrowed by a backward transfer inside `sc-0`'s withdrawal
//!    certificate, whose proofdata commits the declared
//!    `CrossChainTransfer` (covered by the certificate SNARK);
//! 4. at certificate maturity the escrow is settled as a forward
//!    transfer into `sc-1`;
//! 5. withdraw from `sc-1` back to the mainchain.
//!
//! ```text
//! cargo run --example cross_sidechain_swap
//! ```

use zendoo::sim::{SimConfig, World};

fn main() {
    println!("=== Cross-sidechain swap ===\n");

    // One mainchain + two Latus sidechains.
    let mut world = World::new(SimConfig::with_sidechains(2));
    let ids = world.sidechain_ids().to_vec();
    let (sc0, sc1) = (ids[0], ids[1]);
    println!("declared two sidechains:\n  sc-0 = {sc0}\n  sc-1 = {sc1}");

    // Step 1: alice funds her sc-0 account from the mainchain.
    world
        .queue_forward_transfer_on(&sc0, "alice", 40_000)
        .unwrap();
    world.run(2).unwrap();
    let alice = world.user("alice").unwrap().clone();
    println!(
        "\nforward transfer: alice holds {} on sc-0 (safeguard: {})",
        world
            .node_of(&sc0)
            .unwrap()
            .balance_of(&alice.sc_address_on(&sc0)),
        world.sidechain_balance_of(&sc0),
    );

    // Step 2: alice moves 15 000 from sc-0 to her sc-1 account. The
    // transfer is escrowed on sc-0 and declared in its next
    // certificate.
    let xct = world
        .queue_cross_transfer(&sc0, &sc1, "alice", 15_000)
        .unwrap();
    println!(
        "\ncross transfer initiated: {} coins sc-0 → sc-1\n  nullifier = {:?}",
        xct.amount, xct.nullifier
    );

    // Step 3: run until the source certificate matured and its escrow
    // was delivered into sc-1 (epoch + submission window).
    world.run_epochs(2).unwrap();
    println!(
        "\nafter maturity: alice holds {} on sc-0 and {} on sc-1",
        world
            .node_of(&sc0)
            .unwrap()
            .balance_of(&alice.sc_address_on(&sc0)),
        world
            .node_of(&sc1)
            .unwrap()
            .balance_of(&alice.sc_address_on(&sc1)),
    );
    println!(
        "router receipts: {} delivered / {} refunded",
        world.metrics.cross_transfers_delivered, world.metrics.cross_transfers_refunded
    );
    for inbound in world.node_of(&sc1).unwrap().inbound_cross_transfers() {
        println!(
            "  sc-1 inbound: {} coins from {} (nonce {})",
            inbound.amount, inbound.source, inbound.nonce
        );
    }

    // Step 4: alice withdraws her sc-1 coins back to the mainchain.
    world.sc_withdraw_on(&sc1, "alice", 15_000).unwrap();
    world.run_epochs(2).unwrap();
    println!(
        "\nafter withdrawal: alice MC balance = {}",
        world.chain.state().utxos.balance_of(&alice.mc_address())
    );

    assert!(world.conservation_holds(), "conservation must hold");
    assert!(world.safeguards_hold(), "safeguards must hold");
    println!("\nglobal conservation + per-sidechain safeguards verified ✔");
    println!("\nmetrics: {}", world.metrics.report());
}
