//! E10 — property-based conservation and safeguard auditing: under
//! random interleavings of forward transfers, sidechain payments,
//! withdrawals, cross-sidechain transfers and epoch boundaries, (1) no
//! coins are created or destroyed across any chain, and (2) no
//! sidechain ever withdraws more than was forwarded to it.

use proptest::prelude::*;
use zendoo::sim::{Action, Schedule, SimConfig, World};

const N_SIDECHAINS: usize = 3;

/// One randomly generated scripted action.
fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..5_000).prop_map(|amount| Action::ForwardTransferTo(0, "alice".into(), amount)),
        (1u64..5_000).prop_map(|amount| Action::ForwardTransferTo(0, "bob".into(), amount)),
        (1u64..3_000).prop_map(|amount| Action::ScPayOn(0, "alice".into(), "bob".into(), amount)),
        (1u64..3_000).prop_map(|amount| Action::ScPayOn(0, "bob".into(), "alice".into(), amount)),
        (1u64..2_000).prop_map(|amount| Action::ScWithdrawOn(0, "alice".into(), amount)),
        (1u64..2_000).prop_map(|amount| Action::ScWithdrawOn(0, "bob".into(), amount)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn conservation_under_random_interleavings(
        actions in proptest::collection::vec((0u64..20, action_strategy()), 0..12)
    ) {
        let mut schedule = Schedule::new();
        for (tick, action) in actions {
            schedule = schedule.at(tick, action);
        }
        let mut world = World::new(SimConfig::default());
        // 22 ticks ≈ 3 withdrawal epochs; action failures (overdrafts
        // etc.) are tolerated and counted as rejections.
        schedule.run(&mut world, 22).unwrap();

        // (1) Conservation across both chains.
        prop_assert!(world.conservation_holds(), "conservation violated");

        // (2) Safeguard: the sidechain balance tracked by the MC equals
        // SC-side value plus not-yet-matured withdrawals.
        let sc = world.sidechain_ids()[0];
        let mc_view = world.sidechain_balance_of(&sc);
        let sc_value = world.node_of(&sc).unwrap().state().total_value();
        prop_assert!(
            sc_value <= mc_view,
            "sidechain holds more value ({sc_value}) than the MC safeguard ({mc_view})"
        );
    }
}

/// One randomly generated action over `N_SIDECHAINS` concurrent
/// sidechains, including cross-chain hops between random pairs and
/// random liveness faults (a withheld chain ceases, so in-flight
/// transfers to it exercise the consensus-checked *refund* path).
fn multi_action_strategy() -> impl Strategy<Value = Action> {
    let user = prop_oneof![
        (0u8..1).prop_map(|_| "alice".to_string()),
        (0u8..1).prop_map(|_| "bob".to_string()),
    ];
    prop_oneof![
        (0usize..N_SIDECHAINS, user.prop_map(|u| u), 1u64..5_000)
            .prop_map(|(sc, u, amount)| Action::ForwardTransferTo(sc, u, amount)),
        (0usize..N_SIDECHAINS, 1u64..3_000)
            .prop_map(|(sc, amount)| { Action::ScPayOn(sc, "alice".into(), "bob".into(), amount) }),
        (0usize..N_SIDECHAINS, 1u64..3_000)
            .prop_map(|(sc, amount)| { Action::ScPayOn(sc, "bob".into(), "alice".into(), amount) }),
        (0usize..N_SIDECHAINS, 1u64..2_000).prop_map(|(sc, amount)| Action::ScWithdrawOn(
            sc,
            "alice".into(),
            amount
        )),
        (0usize..N_SIDECHAINS, 1u64..2_000).prop_map(|(sc, amount)| Action::ScWithdrawOn(
            sc,
            "bob".into(),
            amount
        )),
        (0usize..N_SIDECHAINS, 0usize..N_SIDECHAINS, 1u64..2_500)
            .prop_map(|(from, to, amount)| Action::CrossTransfer(from, to, "alice".into(), amount)),
        (0usize..N_SIDECHAINS, 0usize..N_SIDECHAINS, 1u64..2_500)
            .prop_map(|(from, to, amount)| Action::CrossTransfer(from, to, "bob".into(), amount)),
        // Liveness faults: a chain that stops certifying ceases, and
        // every matured transfer bound for it must refund — with exact
        // value conservation and no operator key anywhere.
        (0usize..N_SIDECHAINS).prop_map(Action::WithholdCertificatesOn),
        (0usize..N_SIDECHAINS).prop_map(Action::ResumeCertificatesOn),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn global_conservation_across_n_sidechains(
        actions in proptest::collection::vec((0u64..20, multi_action_strategy()), 0..14)
    ) {
        let mut schedule = Schedule::new();
        for (tick, action) in actions {
            schedule = schedule.at(tick, action);
        }
        let mut world = World::new(SimConfig::with_sidechains(N_SIDECHAINS));
        // 26 ticks ≈ 4 withdrawal epochs: enough for cross-chain escrows
        // to mature and deliver. Failures (overdrafts, self-directed
        // cross transfers) are tolerated and counted as rejections.
        schedule.run(&mut world, 26).unwrap();

        // (1) Global conservation across the mainchain and every
        // sidechain, with cross-chain value possibly in escrow.
        prop_assert!(world.conservation_holds(), "conservation violated");

        // (2) Per-sidechain safeguard.
        prop_assert!(world.safeguards_hold(), "a sidechain outran its safeguard");

        // (3) Transfer accounting: every initiated transfer is either
        // settled (delivered/refunded/rejected), queued in the router
        // awaiting maturity, or still undeclared on its source node —
        // nothing is silently dropped. (Exact only while no certificate
        // was rejected; a rejected certificate takes its declarations
        // with it.)
        let initiated = world.metrics.cross_transfers_initiated;
        let settled = world.metrics.cross_transfers_delivered
            + world.metrics.cross_transfers_refunded
            + world.metrics.cross_transfers_rejected;
        let undeclared: u64 = world
            .sidechain_ids()
            .to_vec()
            .iter()
            .map(|id| world.node_of(id).unwrap().pending_cross_transfers().len() as u64)
            .sum();
        if world.metrics.certificates_rejected == 0 {
            prop_assert_eq!(
                settled + world.router.pending_count() as u64 + undeclared,
                initiated,
                "router accounting leak: settled {} + queued {} + undeclared {} != initiated {}",
                settled,
                world.router.pending_count(),
                undeclared,
                initiated
            );
        } else {
            prop_assert!(settled <= initiated, "router settled more than initiated");
        }

        // (4) Windowed batch settlement accounting: every matured window
        // settles its transfers in batched transactions (one per
        // destination plus at most one refund transaction), so the
        // transaction count plus the batching savings must equal the
        // transfers settled — and nothing else may issue settlements.
        let window_settled = world.metrics.cross_transfers_delivered
            + world.metrics.cross_transfers_refunded;
        prop_assert_eq!(
            world.metrics.settlement_txs + world.metrics.settlement_txs_saved,
            window_settled,
            "settlement tx accounting leak"
        );
        for record in world.router.settlements() {
            prop_assert!(
                record.delivery_txs + record.refund_txs <= record.transfers,
                "window issued more transactions than transfers"
            );
            prop_assert!(record.refund_txs <= 1, "refunds must share one transaction");
        }

        // (5) Exact per-window value accounting on the batched path: the
        // value of every delivered transfer equals the value minted on
        // destination sidechains as inbound cross transfers — i.e. the
        // sum of batch outputs matches the escrow UTXOs the settlement
        // transactions consumed (consensus rejects any imbalance, and
        // the destinations only mint what actually landed).
        use zendoo::crosschain::DeliveryStatus;
        let delivered_value: u64 = world
            .router
            .receipts()
            .iter()
            .filter(|r| matches!(r.status, DeliveryStatus::Delivered { .. }))
            .map(|r| r.transfer.amount.units())
            .sum();
        let inbound_value: u64 = world
            .sidechain_ids()
            .to_vec()
            .iter()
            .map(|id| {
                world
                    .node_of(id)
                    .unwrap()
                    .inbound_cross_transfers()
                    .iter()
                    .map(|t| t.amount.units())
                    .sum::<u64>()
            })
            .sum();
        prop_assert_eq!(
            delivered_value,
            inbound_value,
            "delivered escrow value must equal destination-side minted value"
        );

        // (6) The refund path conserves exactly and needs no operator:
        // every refunded transfer's value landed back on its payback
        // address as plain MC UTXO value (conservation (1) covers the
        // totals), and NO transaction in the whole trace was ever
        // authorized by the historic escrow-authority key — escrow
        // spends (settlements and refunds alike) are consensus-
        // validated claims, not key-signed withdrawals.
        let escrow_authority = zendoo::core::crosschain::escrow_address();
        for h in 0..=world.chain.height() {
            let block = world.chain.block_at_height(h).unwrap();
            for tx in &block.transactions {
                if let zendoo::mainchain::transaction::McTransaction::Transfer(t) = tx {
                    for input in &t.inputs {
                        prop_assert!(
                            zendoo::core::ids::Address::from_public_key(&input.pubkey)
                                != escrow_authority,
                            "escrow-authority signature found at height {h}"
                        );
                    }
                }
            }
        }
        let refunded_value: u64 = world
            .router
            .receipts()
            .iter()
            .filter(|r| matches!(r.status, DeliveryStatus::Refunded { .. }))
            .map(|r| r.transfer.amount.units())
            .sum();
        if world.metrics.cross_transfers_refunded > 0 {
            prop_assert!(refunded_value > 0, "refund receipts carry the value");
        }
    }
}

#[test]
fn long_run_conservation() {
    // A longer deterministic mixed workload across 6 epochs.
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        .at(2, Action::ScPayOn(0, "alice".into(), "bob".into(), 10_000))
        .at(4, Action::ScWithdrawOn(0, "bob".into(), 5_000))
        .at(8, Action::ForwardTransferTo(0, "bob".into(), 20_000))
        .at(10, Action::ScPayOn(0, "bob".into(), "alice".into(), 7_000))
        .at(12, Action::ScWithdrawOn(0, "alice".into(), 30_000))
        .at(15, Action::ForwardTransferTo(0, "alice".into(), 1))
        .at(18, Action::ScWithdrawOn(0, "alice".into(), 100));
    let mut world = World::new(SimConfig::default());
    schedule.run(&mut world, 45).unwrap();
    assert!(world.conservation_holds());
    assert!(world.metrics.certificates_accepted >= 5);
    assert_eq!(world.metrics.certificates_rejected, 0);
}
