//! Windowed batch settlement end to end: a maturity window with `n`
//! transfers to `k` destinations settles in exactly `k` mainchain
//! transactions (plus at most one shared refund transaction), the
//! destinations mint one UTXO per aggregated entry, and what the router
//! read off the chain rolls back cleanly across mainchain forks.

use zendoo_core::crosschain::DeliveryStatus;
use zendoo_core::ids::Amount;
use zendoo_mainchain::transaction::{McTransaction, Output};
use zendoo_sim::{SimConfig, World};

/// Counts the settlement transactions (batch-tagged forward transfers)
/// and refund transactions (escrow-claiming regular payouts) in a
/// block. Refunds are recognized by the public escrow-claim filler key
/// their inputs carry — consensus ignores those signatures, but they
/// make claim transactions observable without the UTXO set.
fn settlement_shape(block: &zendoo_mainchain::Block) -> (usize, usize) {
    let mut deliveries = 0;
    let mut refunds = 0;
    for tx in &block.transactions {
        if let McTransaction::Transfer(t) = tx {
            let batch_outputs = t
                .outputs
                .iter()
                .filter(|o| match o {
                    Output::Forward(ft) => {
                        zendoo_core::settlement::decode_settlement_metadata(&ft.receiver_metadata)
                            .is_some()
                    }
                    Output::Regular(_) => false,
                })
                .count();
            if batch_outputs > 0 {
                deliveries += 1;
            } else if t.inputs.iter().all(|i| {
                zendoo_core::ids::Address::from_public_key(&i.pubkey)
                    == zendoo_mainchain::transaction::escrow_claim_address()
            }) && !t.inputs.is_empty()
            {
                refunds += 1;
            }
        }
    }
    (deliveries, refunds)
}

/// Five transfers out of `sc-0` in one window, to three destinations
/// (2× sc-1, 1× sc-2, 2× sc-3): exactly three settlement transactions,
/// every entry minted on its destination.
#[test]
fn window_settles_in_one_transaction_per_destination() {
    let mut world = World::new(SimConfig::with_sidechains(4));
    let ids = world.sidechain_ids().to_vec();
    world
        .queue_forward_transfer_on(&ids[0], "alice", 100_000)
        .unwrap();
    world.run(1).unwrap();
    // One transfer per tick (same-tick transfers would race for the
    // same UTXO); all five escrow within epoch 0, so they mature — and
    // settle — as one window.
    for (dest, amount) in [(1, 1_000), (1, 2_000), (2, 3_000), (3, 4_000), (3, 5_000)] {
        world
            .queue_cross_transfer(&ids[0], &ids[dest], "alice", amount)
            .unwrap();
        world.run(1).unwrap();
    }
    world.run(12).unwrap();

    assert_eq!(world.metrics.cross_transfers_delivered, 5);
    assert_eq!(world.metrics.cross_transfers_refunded, 0);

    // One settlement record for the window: 5 transfers, 3 delivery
    // transactions (one per destination), no refunds.
    let records = world.router.settlements();
    assert_eq!(records.len(), 1, "one matured window");
    let record = records[0];
    assert_eq!(record.transfers, 5);
    assert_eq!(record.delivery_txs, 3);
    assert_eq!(record.refund_txs, 0);
    assert_eq!(world.metrics.settlement_txs, 3);
    assert_eq!(world.metrics.settlement_txs_saved, 2);

    // The delivering block carries exactly the three settlement txs.
    let block = world
        .chain
        .block_at_height(record.mc_height)
        .expect("delivery block mined");
    assert_eq!(settlement_shape(block), (3, 0));

    // Per-receiver minting: each destination logged its inbound
    // transfers with the right values.
    let inbound = |i: usize| -> Vec<u64> {
        world
            .node_of(&ids[i])
            .unwrap()
            .inbound_cross_transfers()
            .iter()
            .map(|t| t.amount.units())
            .collect()
    };
    assert_eq!(inbound(1), vec![1_000, 2_000]);
    assert_eq!(inbound(2), vec![3_000]);
    assert_eq!(inbound(3), vec![4_000, 5_000]);
    assert_eq!(
        world
            .node_of(&ids[1])
            .unwrap()
            .balance_of(&world.user("alice").unwrap().sc_address_on(&ids[1])),
        Amount::from_units(3_000)
    );
    assert!(world.conservation_holds());
    assert!(world.safeguards_hold());
}

/// A window mixing live and ceased destinations: the live destination
/// gets one batched delivery, every refund shares one transaction.
#[test]
fn mixed_window_batches_refunds_into_one_transaction() {
    let mut world = World::new(SimConfig::with_sidechains(3));
    let ids = world.sidechain_ids().to_vec();
    // sc-2 never certifies: it ceases before the escrows mature.
    world.withhold_certificates_for(&ids[2]);
    world
        .queue_forward_transfer_on(&ids[0], "alice", 100_000)
        .unwrap();
    world.run(1).unwrap();
    for (dest, amount) in [(1, 1_000), (2, 2_000), (2, 3_000), (1, 4_000)] {
        world
            .queue_cross_transfer(&ids[0], &ids[dest], "alice", amount)
            .unwrap();
        world.run(1).unwrap();
    }
    world.run(12).unwrap();

    assert_eq!(world.metrics.cross_transfers_delivered, 2);
    assert_eq!(world.metrics.cross_transfers_refunded, 2);
    let record = world.router.settlements()[0];
    assert_eq!(record.transfers, 4);
    assert_eq!(record.delivery_txs, 1, "one destination stayed live");
    assert_eq!(record.refund_txs, 1, "refunds share one transaction");
    let block = world.chain.block_at_height(record.mc_height).unwrap();
    assert_eq!(settlement_shape(block), (1, 1));
    // Refunds landed on alice's payback address (2k + 3k).
    let alice = world.user("alice").unwrap().clone();
    assert_eq!(
        world.chain.state().utxos.balance_of(&alice.mc_address()),
        Amount::from_units(1_000_000 - 100_000 + 5_000)
    );
    assert!(world.conservation_holds());
}

/// A mainchain fork that drops the declaring certificate drops its
/// declared transfers with it, and the replayed epoch re-declares and
/// settles exactly once.
#[test]
fn router_rolls_back_with_mainchain_forks() {
    // A 3-block submission window leaves room for the dropped
    // certificate to re-land on the replacement branch.
    let config = SimConfig {
        submit_len: 3,
        ..SimConfig::with_sidechains(2)
    };
    let mut world = World::new(config);
    let ids = world.sidechain_ids().to_vec();
    world
        .queue_forward_transfer_on(&ids[0], "alice", 50_000)
        .unwrap();
    world.run(2).unwrap();
    let xct = world
        .queue_cross_transfer(&ids[0], &ids[1], "alice", 7_000)
        .unwrap();
    // Run until the epoch-0 certificate (declaring the transfer) has
    // been accepted: epoch 0 closes at height 7, the certificate lands
    // at height 8.
    while world.router.pending_count() == 0 {
        world.step().unwrap();
    }
    assert_eq!(world.router.pending_count(), 1);

    // Fork off the certificate block: its declaration leaves the
    // chain with it.
    world.inject_mc_fork(1).unwrap();
    assert_eq!(
        world.router.pending_count(),
        0,
        "pending window rolled back with the fork"
    );
    assert!(world.router.receipt_for(&xct.nullifier).is_none());

    // The sidechain re-produces its certificate on the new branch; the
    // transfer is re-declared and settles exactly once.
    world.run(14).unwrap();
    assert!(world.router.receipt_for(&xct.nullifier).is_some());
    let delivered = world
        .router
        .receipts()
        .iter()
        .filter(|r| {
            r.escrow.nullifier == xct.nullifier
                && matches!(r.status, DeliveryStatus::Delivered { .. })
        })
        .count();
    assert_eq!(delivered, 1, "exactly one delivery after the fork replay");
    assert!(world.conservation_holds());
    assert!(world.safeguards_hold());
}

/// A second fork whose base lands *inside* the first fork's branch
/// still rewinds what the router read, metrics stay in lock-step with
/// the receipts, and the transfer settles exactly once.
#[test]
fn nested_forks_rewind_router_into_prior_branch() {
    let config = SimConfig {
        epoch_len: 10,
        submit_len: 6,
        ..SimConfig::with_sidechains(2)
    };
    let mut world = World::new(config);
    let ids = world.sidechain_ids().to_vec();
    world
        .queue_forward_transfer_on(&ids[0], "alice", 50_000)
        .unwrap();
    world.run(1).unwrap();
    let xct = world
        .queue_cross_transfer(&ids[0], &ids[1], "alice", 7_000)
        .unwrap();
    while world.router.pending_count() == 0 {
        world.step().unwrap();
    }

    // First fork drops the certificate block; the re-queued certificate
    // re-lands on the replacement branch one step later.
    world.inject_mc_fork(1).unwrap();
    assert_eq!(world.router.pending_count(), 0);
    world.run(1).unwrap();
    assert_eq!(world.router.pending_count(), 1, "certificate re-landed");

    // Second fork, based two blocks down — inside the first fork's
    // replacement branch.
    world.inject_mc_fork(2).unwrap();
    assert_eq!(
        world.router.pending_count(),
        0,
        "router rewound into the prior branch"
    );
    assert!(world.router.receipt_for(&xct.nullifier).is_none());

    world.run(20).unwrap();
    let delivered_receipts = world
        .router
        .receipts()
        .iter()
        .filter(|r| matches!(r.status, DeliveryStatus::Delivered { .. }))
        .count() as u64;
    assert_eq!(delivered_receipts, 1, "exactly one delivery survives");
    assert_eq!(
        world.metrics.cross_transfers_delivered, delivered_receipts,
        "metrics rewound with the router — no double counting"
    );
    assert!(world.router.receipt_for(&xct.nullifier).is_some());
    assert!(world.conservation_holds());
    assert!(world.safeguards_hold());
}
