//! Composed long-horizon Byzantine scenarios with conservation
//! auditing: each scenario layers several faults (partitions, reorg
//! storms, withholding cascades, quality wars, relay equivocation) in
//! one run, a [`ConservationAuditor`] checks every value pool after
//! every tick, and every scenario must be bit-identical across
//! `workers ∈ {1, 2, 3, 4, per-core}` ×
//! `VerifyMode::{Individual,Aggregated}` — the fault machinery itself
//! is part of the determinism contract — and replayable by a cacheless
//! follower.

mod common;

use common::{assert_follower_replay_matches, MATRIX};
use zendoo_mainchain::SidechainStatus;
use zendoo_sim::scenarios::{self, CASCADE_SENDERS};
use zendoo_sim::{ConservationAuditor, RunError, SimError, VerifyMode, World};

/// Everything externally observable, for cross-mode comparison.
fn observe(world: &World) -> impl PartialEq + std::fmt::Debug {
    (
        world.chain.tip_hash(),
        world.chain.height(),
        world.chain.state().clone(),
        world.metrics.clone(),
    )
}

/// Runs `scenario` under every `(workers, verify)` pair of the matrix,
/// asserts all runs are bit-identical (world state, metrics and the
/// full audited snapshot stream) and that a cacheless follower replays
/// the reference chain, and returns the one-lane/individual reference
/// run.
fn assert_identical_across_modes(
    name: &str,
    scenario: impl Fn(Option<usize>, VerifyMode) -> Result<(World, ConservationAuditor), RunError>,
) -> (World, ConservationAuditor) {
    let (reference, reference_audit) = scenario(MATRIX[0].0, MATRIX[0].1)
        .unwrap_or_else(|e| panic!("{name} failed under {:?}: {e}", MATRIX[0]));
    assert!(
        !reference_audit.snapshots().is_empty(),
        "{name}: auditor observed no ticks"
    );
    assert_follower_replay_matches(&reference);
    for (workers, verify) in MATRIX.into_iter().skip(1) {
        let (world, audit) = scenario(workers, verify)
            .unwrap_or_else(|e| panic!("{name} failed under ({workers:?}, {verify:?}): {e}"));
        assert_eq!(
            observe(&reference),
            observe(&world),
            "{name}: ({workers:?}, {verify:?}) diverged from the reference"
        );
        assert_eq!(
            reference_audit.snapshots(),
            audit.snapshots(),
            "{name}: ({workers:?}, {verify:?}) audit history diverged"
        );
    }
    (reference, reference_audit)
}

#[test]
fn partition_reorg_storm_settles_escrow_exactly_once() {
    let (world, audit) =
        assert_identical_across_modes("partition_reorg_storm", scenarios::partition_reorg_storm);

    // The partition really buffered and replayed mainchain blocks…
    assert_eq!(world.metrics.partitions, 1);
    assert!(world.metrics.blocks_buffered >= 1, "partition buffered");
    assert!(world.metrics.blocks_replayed >= 2, "heal replayed backlog");
    // …the storm really reorganized the chain three times…
    assert_eq!(world.metrics.reorgs, 3);
    assert!(world.metrics.sc_blocks_reverted >= 3);
    // …and the in-flight escrow still settled exactly once, with every
    // chain alive and certifying afterwards.
    assert_eq!(world.metrics.cross_transfers_initiated, 1);
    assert_eq!(world.metrics.cross_transfers_delivered, 1);
    assert_eq!(world.metrics.cross_transfers_refunded, 0);
    for id in world.sidechain_ids() {
        assert_eq!(
            world.sidechain_status_of(id),
            Some(SidechainStatus::Active),
            "chain {id} should survive the storm"
        );
    }
    assert!(world.conservation_holds() && world.safeguards_hold());
    let last = audit.last().expect("audited");
    assert_eq!(
        last.mc_height,
        world.chain.height(),
        "auditor saw the final tick"
    );
}

#[test]
fn quality_wars_never_crown_a_forgery() {
    let (world, audit) =
        assert_identical_across_modes("certifier_quality_wars", scenarios::certifier_quality_wars);

    // Both chains were under attack every epoch: forgeries were pooled
    // and every one was rejected by consensus (wrong-quality statements
    // fail proof verification; stale replays fail the quality rule).
    assert!(
        world.metrics.certificates_forged >= 8,
        "war produced forgeries each epoch (forged {})",
        world.metrics.certificates_forged
    );
    assert!(
        world.metrics.certificates_rejected >= world.metrics.certificates_forged,
        "every forgery was rejected (forged {}, rejected {})",
        world.metrics.certificates_forged,
        world.metrics.certificates_rejected
    );
    // The honest certifiers still won every epoch on both chains, and
    // value kept flowing.
    assert!(world.metrics.certificates_accepted >= 6);
    assert_eq!(world.metrics.cross_transfers_delivered, 1);
    for id in world.sidechain_ids() {
        assert_eq!(world.sidechain_status_of(id), Some(SidechainStatus::Active));
    }
    // The registry holds no forged digest (also audited every tick).
    let forged = world.forged_certificate_digests();
    assert!(!forged.is_empty());
    for (_, entry) in world.chain.state().registry.iter() {
        for accepted in entry.certificates.values() {
            assert!(
                !forged.contains(&accepted.certificate.digest()),
                "forged certificate accepted into the registry"
            );
        }
    }
    assert!(audit.checks() > 0);
}

#[test]
fn withholding_cascade_mass_refunds_in_one_window() {
    let (world, _audit) = assert_identical_across_modes("withholding_cascade", |mode, verify| {
        scenarios::withholding_cascade(mode, verify, 10_000)
    });

    // Six chains ceased in the same settlement window…
    let ceased: Vec<_> = world
        .sidechain_ids()
        .iter()
        .filter(|id| world.sidechain_status_of(id) == Some(SidechainStatus::Ceased))
        .cloned()
        .collect();
    assert_eq!(ceased.len(), CASCADE_SENDERS, "every withholder ceased");
    // …and every escrowed transfer towards them refunded exactly once
    // (per-nullifier exactly-once is audited every tick on top of the
    // aggregate counters here).
    assert_eq!(
        world.metrics.cross_transfers_initiated as usize,
        CASCADE_SENDERS
    );
    assert_eq!(
        world.metrics.cross_transfers_refunded as usize,
        CASCADE_SENDERS
    );
    assert_eq!(world.metrics.cross_transfers_delivered, 0);
    // The refunds landed while the mainchain digested real load: the
    // generated population's traffic flowed through the same blocks.
    assert!(
        world.metrics.sc_payments == 0 || world.metrics.forward_transfers >= 1,
        "sanity"
    );
    assert!(world.metrics.mc_blocks >= 16);
    // The healthy chains stayed live.
    let ids = world.sidechain_ids().to_vec();
    assert_eq!(
        world.sidechain_status_of(&ids[0]),
        Some(SidechainStatus::Active)
    );
    assert_eq!(
        world.sidechain_status_of(&ids[1]),
        Some(SidechainStatus::Active)
    );
    // Each sender got their value back on the mainchain: 100k genesis
    // minus the 10k forward transfer plus the 4k refund.
    for i in 0..CASCADE_SENDERS {
        let sender = world.user(&format!("sender-{i}")).unwrap().clone();
        assert_eq!(
            world.chain.state().utxos.balance_of(&sender.mc_address()),
            zendoo_core::ids::Amount::from_units(100_000 - 10_000 + 4_000),
            "sender-{i} refund"
        );
    }
    assert!(world.conservation_holds() && world.safeguards_hold());
}

#[test]
fn relay_equivocation_degrades_liveness_not_safety() {
    let (world, audit) =
        assert_identical_across_modes("relay_equivocation", scenarios::relay_equivocation);

    assert_eq!(world.metrics.relay_equivocations, 1);
    // The diverged shard buffered the canonical chain, the heal rolled
    // the phantom block back, and the backlog replayed.
    assert!(world.metrics.blocks_buffered >= 1);
    assert!(world.metrics.sc_blocks_reverted >= 1);
    assert!(world.metrics.blocks_replayed >= 1);
    // Safety held throughout: the transfer settled exactly once and
    // both chains kept certifying.
    assert_eq!(world.metrics.cross_transfers_delivered, 1);
    assert_eq!(world.metrics.cross_transfers_refunded, 0);
    for id in world.sidechain_ids() {
        assert_eq!(world.sidechain_status_of(id), Some(SidechainStatus::Active));
    }
    assert!(world.metrics.certificates_accepted >= 3);
    assert!(world.conservation_holds() && world.safeguards_hold());
    assert!(audit.snapshots().len() >= 14);
}

#[test]
fn long_horizon_soak_survives_sixty_four_epochs_of_mixed_faults() {
    let (world, audit) = assert_identical_across_modes("long_horizon_soak", |mode, verify| {
        scenarios::long_horizon_soak(mode, verify, 64)
    });

    // The horizon was real: ≥64 epochs certified under a standing
    // quality war with a fault injected almost every epoch.
    let epochs = world
        .node_of(&world.sidechain_ids()[0])
        .unwrap()
        .current_epoch();
    assert!(epochs >= 64, "soaked {epochs} epochs");
    assert!(world.metrics.partitions >= 10, "partitions recurred");
    assert!(
        world.metrics.relay_equivocations >= 5,
        "equivocations recurred"
    );
    assert!(world.metrics.reorgs >= 10, "forks recurred");
    assert!(world.metrics.certificates_forged >= 60, "war ran all soak");
    // Not every forged certificate shows up as a rejection here: reorg
    // replays re-produce byte-identical honest certificates, so their
    // forged competitors dedup silently in the mempool, and the final
    // boundary's forgeries are pooled but never mined. "No forgery was
    // crowned" is instead enforced after every tick by the auditor's
    // `ForgedWinner` invariant; the floor below just proves consensus
    // kept actively rejecting fresh forgeries for the whole horizon.
    assert!(
        world.metrics.certificates_rejected >= 60,
        "rejected {} forgeries",
        world.metrics.certificates_rejected
    );
    // sc-2 ceased mid-soak and its in-flight transfer refunded; the
    // early transfer delivered. Exactly-once for both is audited every
    // tick.
    let ids = world.sidechain_ids().to_vec();
    assert_eq!(
        world.sidechain_status_of(&ids[0]),
        Some(SidechainStatus::Active)
    );
    assert_eq!(
        world.sidechain_status_of(&ids[1]),
        Some(SidechainStatus::Active)
    );
    assert_eq!(
        world.sidechain_status_of(&ids[2]),
        Some(SidechainStatus::Ceased)
    );
    assert_eq!(world.metrics.cross_transfers_delivered, 1);
    assert_eq!(world.metrics.cross_transfers_refunded, 1);
    assert!(world.conservation_holds() && world.safeguards_hold());
    // The auditor really watched the whole horizon.
    assert!(audit.snapshots().len() as u64 >= 64 * 6);
    assert!(audit.checks() > audit.snapshots().len() as u64);
}

#[test]
fn fork_deeper_than_history_is_a_typed_error() {
    use zendoo_sim::{Schedule, SimConfig};

    let mut world = World::new(SimConfig::default());
    Schedule::new().run(&mut world, 3).unwrap(); // genesis + declaration + 3 blocks
    let height = world.chain.height();

    // Depth 0 and too-deep requests both fail with the typed error and
    // leave the world untouched.
    for depth in [0, height, height + 10] {
        let tip_before = world.chain.tip_hash();
        match world.inject_mc_fork(depth) {
            Err(SimError::ForkTooDeep { requested, max }) => {
                assert_eq!(requested, depth);
                assert_eq!(max, height - 1);
                assert!(depth == 0 || requested > max);
            }
            other => panic!("depth {depth}: expected ForkTooDeep, got {other:?}"),
        }
        assert_eq!(
            world.chain.tip_hash(),
            tip_before,
            "rejected fork mutated the chain"
        );
    }

    // A fork of every legal depth still works.
    assert!(world.inject_mc_fork(height - 1).is_ok());
    assert_eq!(world.metrics.reorgs, 1);
    assert!(world.conservation_holds());
}

/// Def 4.2 ceases a chain only when no certificate lands inside its
/// submission window. A fork that replaces the last block of a
/// withdrawal epoch (or digs below it) leaves the window open: the node
/// reverts with the mainchain (§5.1), re-crosses the boundary on the
/// replacement branch and certifies again — the stale certificate,
/// which proves the disconnected `mc_end`, is rejected, and the
/// re-issued one is accepted one block later, still inside the window.
#[test]
fn fork_replacing_an_epoch_boundary_recertifies_inside_the_window() {
    use zendoo_sim::SimConfig;

    let epoch_len = SimConfig::default().epoch_len as u64;
    // The last blocks of epochs 0 and 1 (epoch 0 spans heights 2..=7).
    for boundary in [1 + epoch_len, 1 + 2 * epoch_len] {
        for depth in 1..=3 {
            let case = format!("boundary {boundary}, depth {depth}");
            let mut world = World::new(SimConfig::default());
            let sc = world.sidechain_ids()[0];
            world
                .queue_forward_transfer_on(&sc, "alice", 5_000)
                .unwrap();
            while world.chain.height() < boundary {
                world.step().unwrap();
            }
            let before = world.metrics.clone();

            world.inject_mc_fork(depth).unwrap();
            assert_eq!(
                world.metrics.certificates_produced,
                before.certificates_produced + 1,
                "{case}: the node certifies the boundary again on the branch"
            );
            // The very next block — the window's last — settles it.
            world.step().unwrap();
            assert_eq!(
                world.metrics.certificates_rejected,
                before.certificates_rejected + 1,
                "{case}: the stale certificate is rejected"
            );
            assert_eq!(
                world.metrics.certificates_accepted,
                before.certificates_accepted + 1,
                "{case}: the re-issued certificate is accepted in the same window"
            );

            for _ in 1..20 {
                world.step().unwrap();
                assert!(
                    world.conservation_holds() && world.safeguards_hold(),
                    "{case}"
                );
            }
            assert_eq!(
                world.sidechain_status_of(&sc),
                Some(SidechainStatus::Active),
                "{case}"
            );
            assert_eq!(world.metrics.certificates_withheld, 0, "{case}");
            assert_eq!(world.metrics.certificates_rejected, 1, "{case}");
            // One accepted certificate per epoch whose window has opened.
            let epochs_certified = (world.chain.height() - 2) / epoch_len;
            assert_eq!(
                world.metrics.certificates_accepted, epochs_certified,
                "{case}"
            );
            assert_eq!(
                world.metrics.certificates_produced,
                epochs_certified + 1,
                "{case}: every epoch once, the forked boundary twice"
            );
        }
    }
}

/// The same fork on a chain whose closed epoch declared a cross-chain
/// transfer: the rollback reopens the epoch, so the declaration the
/// discarded certificate had consumed must ride the re-issued one —
/// otherwise the escrow withdrawal could never be paired again and the
/// sender would stop certifying. The transfer settles exactly once.
#[test]
fn fork_replacing_an_epoch_boundary_redeclares_its_cross_transfers() {
    use zendoo_sim::{Action, Schedule, SimConfig};

    for depth in 1..=3 {
        let mut world = World::new(SimConfig::with_sidechains(2));
        let schedule = Schedule::new()
            .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
            .at(2, Action::CrossTransfer(0, 1, "alice".into(), 20_000));
        schedule.run(&mut world, 6).unwrap();
        assert_eq!(world.chain.height(), 7, "the last block of epoch 0");

        world.inject_mc_fork(depth).unwrap();
        let mut auditor = ConservationAuditor::new();
        for _ in 0..14 {
            world.step().unwrap();
            auditor
                .observe(&world)
                .unwrap_or_else(|v| panic!("depth {depth}: {v}"));
        }
        for id in world.sidechain_ids() {
            assert_eq!(
                world.sidechain_status_of(id),
                Some(SidechainStatus::Active),
                "depth {depth}"
            );
        }
        assert_eq!(world.metrics.certificates_withheld, 0, "depth {depth}");
        assert_eq!(world.metrics.cross_transfers_delivered, 1, "depth {depth}");
        assert_eq!(world.metrics.cross_transfers_refunded, 0, "depth {depth}");
        assert_eq!(world.metrics.cross_transfers_rejected, 0, "depth {depth}");
    }
}

/// A healed shard that has not replayed its backlog yet is simply
/// behind: a fork injected before its next tick trims the replaced part
/// of the backlog and the shard catches up through the ordinary phase
/// (it used to be rolled back to a block it never saw — an error
/// reported after the chain had already reorganized, wedging the world).
#[test]
fn fork_right_after_a_heal_catches_the_shard_up() {
    use zendoo_sim::SimConfig;

    let mut world = World::new(SimConfig::default());
    let sc = world.sidechain_ids()[0];
    world
        .queue_forward_transfer_on(&sc, "alice", 5_000)
        .unwrap();
    world.run(3).unwrap();
    world.inject_partition(&sc).unwrap();
    world.run(3).unwrap();
    assert_eq!(world.shard(&sc).unwrap().backlog_len(), 3);
    world.heal_partition(&sc);

    let height = world.chain.height();
    let reverted = world.inject_mc_fork(1).unwrap();
    assert_eq!(reverted, 0, "the node never saw the disconnected block");
    assert_eq!(world.chain.height(), height + 1);
    assert_eq!(world.shard(&sc).unwrap().backlog_len(), 0);
    assert_eq!(
        world.metrics.blocks_replayed, 2,
        "the surviving backlog replays; the replaced block does not"
    );
    assert_eq!(
        world.node_of(&sc).unwrap().chain().len() as u64,
        world.chain.height() - 1,
        "one SC block per MC block since the declaration"
    );

    for _ in 0..8 {
        world.step().unwrap();
        assert_eq!(world.shard(&sc).unwrap().backlog_len(), 0);
        assert!(world.conservation_holds() && world.safeguards_hold());
    }
    assert_eq!(
        world.sidechain_status_of(&sc),
        Some(SidechainStatus::Active)
    );
    assert_eq!(world.metrics.certificates_withheld, 0);
}

#[test]
fn cross_transfer_to_undeployed_chain_is_a_typed_error() {
    use zendoo_core::ids::SidechainId;
    use zendoo_sim::SimConfig;

    let mut world = World::new(SimConfig::default());
    let home = world.sidechain_ids()[0];
    world
        .queue_forward_transfer_on(&home, "alice", 10_000)
        .unwrap();
    world.run(2).unwrap();

    // Alice has no keys on a chain the world never deployed: the typed
    // error, not a receiver derived from another chain's key, and the
    // world untouched.
    let undeployed = SidechainId::from_label("never-deployed");
    let metrics_before = world.metrics.clone();
    let refused = world.queue_cross_transfer(&home, &undeployed, "alice", 1_000);
    assert!(
        matches!(refused, Err(SimError::UnknownSidechain(_))),
        "{refused:?}"
    );
    assert_eq!(world.metrics, metrics_before);
    let node = world.node_of(&home).unwrap();
    assert!(node.pending_cross_transfers().is_empty());
}
