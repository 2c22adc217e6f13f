//! The sharded-world determinism contract: a tick is bit-identical for
//! every worker count (one lane — the in-thread sequential loop — is
//! the reference), and a panicking shard is contained without
//! perturbing the rest of the world — with or without telemetry
//! recording enabled. A cacheless follower replay checks that no cache
//! on the tick's block path ever changed an outcome.

mod common;

use common::{assert_follower_replay_matches, MATRIX};
use zendoo_sim::{scenarios, Action, Schedule, SimConfig, VerifyMode, World};
use zendoo_telemetry::{Histogram, Snapshot};

/// Every externally observable outcome of a run, for cross-run
/// comparison.
fn observe(world: &World) -> impl PartialEq + std::fmt::Debug {
    let tip = world.chain.tip_hash();
    let height = world.chain.height();
    let state = world.chain.state().clone();
    let metrics = world.metrics.clone();
    let receipts = world.router.receipts().to_vec();
    let settlements = world.router.settlements().to_vec();
    let per_chain: Vec<_> = world
        .sidechain_ids()
        .iter()
        .map(|id| {
            let node = world.node_of(id).unwrap();
            let alice = world.user("alice").unwrap().sc_address_on(id);
            let bob = world.user("bob").unwrap().sc_address_on(id);
            (
                *id,
                world.sidechain_balance_of(id),
                world.sidechain_status_of(id),
                node.balance_of(&alice),
                node.balance_of(&bob),
                node.current_epoch(),
                node.chain().len(),
                node.inbound_cross_transfers().to_vec(),
                world.shard_metrics_of(id).unwrap().clone(),
                world.pending_inbound_of(id).to_vec(),
            )
        })
        .collect();
    (
        tip,
        height,
        state,
        metrics,
        receipts,
        settlements,
        per_chain,
    )
}

/// `World::new` derives every wallet and every sidechain's keys on the
/// worker lanes. One lane is the serial derivation (it runs in the
/// calling thread); any other count must bootstrap the same world: same
/// addresses, same verification keys, same genesis and declaration
/// blocks.
#[test]
fn world_bootstrap_is_the_serial_derivation_on_any_worker_count() {
    let bootstrap = |workers: Option<usize>| {
        let mut config = SimConfig::with_sidechains(3);
        config.workers = workers;
        let world = World::new(config);
        let users: Vec<_> = ["alice", "bob"]
            .iter()
            .map(|name| {
                let user = world.user(name).unwrap();
                let on_chains: Vec<_> = world
                    .sidechain_ids()
                    .iter()
                    .map(|id| user.sc_address_on(id))
                    .collect();
                (user.mc_address(), on_chains)
            })
            .collect();
        let keys: Vec<_> = world
            .sidechain_ids()
            .iter()
            .map(|id| {
                let keys = &world.sidechain(id).unwrap().keys;
                (*id, keys.wcert_vk, keys.btr_vk, keys.csw_vk)
            })
            .collect();
        (
            world.chain.genesis_hash(),
            world.chain.tip_hash(),
            world.chain.state().clone(),
            users,
            keys,
        )
    };
    let serial = bootstrap(Some(1));
    for workers in [Some(2), Some(3), Some(7), None] {
        assert_eq!(
            serial,
            bootstrap(workers),
            "bootstrap changed at workers={workers:?}"
        );
    }
}

#[test]
fn four_lane_16_chain_world_is_bit_identical_to_one_lane() {
    let epochs = 2;
    let one_lane = scenarios::cross_chain_ring(16, epochs, Some(1)).unwrap();
    let four_lanes = scenarios::cross_chain_ring(16, epochs, Some(4)).unwrap();
    // The workload is non-trivial: every chain certified and the ring
    // transfers settled.
    assert!(one_lane.metrics.certificates_accepted >= 16);
    assert_eq!(one_lane.metrics.cross_transfers_initiated, 16);
    assert_eq!(one_lane.metrics.cross_transfers_delivered, 16);
    assert!(one_lane.conservation_holds() && one_lane.safeguards_hold());

    assert_eq!(
        observe(&one_lane),
        observe(&four_lanes),
        "four worker lanes diverged from the one-lane reference"
    );
    assert_follower_replay_matches(&one_lane);
}

#[test]
fn worker_count_does_not_change_outcomes() {
    let base = scenarios::cross_chain_ring(5, 1, Some(1)).unwrap();
    for workers in [Some(2), Some(5), Some(16), None] {
        let other = scenarios::cross_chain_ring(5, 1, workers).unwrap();
        assert_eq!(
            observe(&base),
            observe(&other),
            "outcome changed at workers={workers:?}"
        );
    }
}

/// Runs a 4-chain world on `workers` lanes with a crash fault injected
/// on chain 2 just before its epoch-0 certificate.
fn panic_world(workers: Option<usize>) -> World {
    let config = SimConfig {
        workers,
        ..SimConfig::with_sidechains(4)
    };
    let mut world = World::new(config.clone());
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 20_000))
        .at(4, Action::InjectShardPanic(2));
    let ticks = (config.epoch_len as u64 + 1) * 3;
    schedule.run(&mut world, ticks).unwrap();
    world
}

#[test]
fn shard_panic_is_contained_and_quarantines_only_that_chain() {
    for workers in [Some(1), Some(4), None] {
        let world = panic_world(workers);
        let ids = world.sidechain_ids().to_vec();

        // The panic was contained, counted, and quarantined chain 2.
        assert_eq!(world.metrics.shard_panics, 1, "workers={workers:?}");
        assert_eq!(
            world.quarantined_sidechains(),
            vec![ids[2]],
            "workers={workers:?}"
        );
        assert_eq!(world.shard_metrics_of(&ids[2]).unwrap().panics, 1);
        assert!(world.shard(&ids[2]).unwrap().is_quarantined());

        // The quarantined chain stopped certifying and ceased on the
        // mainchain — a crash fault degrades into the paper's liveness
        // fault (Def 4.2), nothing worse.
        assert_eq!(
            world.sidechain_status_of(&ids[2]),
            Some(zendoo_mainchain::SidechainStatus::Ceased),
            "workers={workers:?}"
        );

        // Every other chain kept certifying on schedule.
        for id in [ids[0], ids[1], ids[3]] {
            assert_eq!(
                world.sidechain_status_of(&id),
                Some(zendoo_mainchain::SidechainStatus::Active),
                "workers={workers:?}"
            );
            assert!(world.shard_metrics_of(&id).unwrap().certificates_produced >= 2);
        }
        // And the world's global invariants held throughout.
        assert!(world.conservation_holds(), "workers={workers:?}");
        assert!(world.safeguards_hold(), "workers={workers:?}");
    }
}

#[test]
fn panic_containment_is_worker_count_independent() {
    let one_lane = panic_world(Some(1));
    let three_lanes = panic_world(Some(3));
    assert_eq!(
        observe(&one_lane),
        observe(&three_lanes),
        "panic containment diverged across worker counts"
    );
    assert_follower_replay_matches(&one_lane);
}

/// An escrow settlement landing in the very tick a shard is
/// quarantined, plus a second escrowed transfer whose destination *is*
/// the quarantined chain: the quarantine path cannot strand escrowed
/// value on any worker count — the first transfer delivers, the second
/// refunds once the crashed chain ceases, and the runs agree
/// bit-for-bit.
fn escrow_vs_quarantine_world(workers: Option<usize>) -> World {
    let config = SimConfig {
        workers,
        ..SimConfig::with_sidechains(3)
    };
    let mut world = World::new(config);
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 20_000))
        // Escrows in epoch 0; its window matures at MC height 10, so
        // the settlement transaction (escrow-kind spend) is mined in
        // the block of tick 9 — the same tick the panic fires.
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 4_000))
        // Escrows in epoch 1, maturing after the crashed chain ceased:
        // exercises the consensus-checked refund of escrow to a dead
        // destination.
        .at(7, Action::CrossTransfer(0, 2, "alice".into(), 3_000))
        .at(9, Action::InjectShardPanic(2));
    schedule.run(&mut world, 18).unwrap();
    world
}

#[test]
fn escrow_spend_in_quarantine_tick_strands_no_value() {
    for workers in [Some(1), Some(3)] {
        let world = escrow_vs_quarantine_world(workers);
        let ids = world.sidechain_ids().to_vec();

        // The crash was contained in the settlement tick and the chain
        // ceased as a liveness fault.
        assert_eq!(world.metrics.shard_panics, 1, "workers={workers:?}");
        assert_eq!(
            world.quarantined_sidechains(),
            vec![ids[2]],
            "workers={workers:?}"
        );
        assert_eq!(
            world.sidechain_status_of(&ids[2]),
            Some(zendoo_mainchain::SidechainStatus::Ceased),
            "workers={workers:?}"
        );

        // No escrowed value stranded: one transfer delivered (same
        // tick as the panic), the other refunded after the ceasing.
        assert_eq!(
            world.metrics.cross_transfers_initiated, 2,
            "workers={workers:?}"
        );
        assert_eq!(
            world.metrics.cross_transfers_delivered, 1,
            "workers={workers:?}"
        );
        assert_eq!(
            world.metrics.cross_transfers_refunded, 1,
            "workers={workers:?}"
        );
        let records = world.router.settlements();
        assert_eq!(records.len(), 2, "workers={workers:?}");
        assert_eq!(
            records[0].mc_height, 11,
            "epoch-0 settlement landed in the quarantine tick's block (workers={workers:?})"
        );
        assert_eq!(records[1].refund_txs, 1, "workers={workers:?}");

        // The refund paid alice's payback address on the mainchain.
        let alice = world.user("alice").unwrap().clone();
        assert_eq!(
            world
                .chain
                .state()
                .utxos
                .balance_of(&alice.mc_address())
                .units(),
            1_000_000 - 20_000 + 3_000,
            "workers={workers:?}"
        );
        assert!(world.conservation_holds(), "workers={workers:?}");
        assert!(world.safeguards_hold(), "workers={workers:?}");
    }

    // And the whole story is bit-identical across worker counts.
    let one_lane = escrow_vs_quarantine_world(Some(1));
    let three_lanes = escrow_vs_quarantine_world(Some(3));
    assert_eq!(
        observe(&one_lane),
        observe(&three_lanes),
        "escrow-vs-quarantine run diverged across worker counts"
    );
    assert_follower_replay_matches(&one_lane);
}

// ---- Telemetry recording must not perturb determinism ---------------

/// Runs the ring workload with telemetry recording **on** from
/// construction.
fn instrumented_ring(chains: usize, epochs: u32, workers: Option<usize>) -> World {
    let config = SimConfig {
        workers,
        epoch_len: scenarios::ring_epoch_len(chains),
        telemetry: true,
        ..SimConfig::with_sidechains(chains)
    };
    let ticks = (config.epoch_len as u64 + 1) * (epochs as u64 + 1);
    let mut world = World::new(config);
    scenarios::ring_schedule(chains)
        .run(&mut world, ticks)
        .unwrap();
    world
}

/// The deterministic projection of a snapshot: everything except
/// measured wall-clock nanoseconds (span durations vary run to run;
/// span *occurrence counts*, counters, gauges and value histograms
/// must not).
#[allow(clippy::type_complexity)]
fn deterministic_view(
    snapshot: &Snapshot,
) -> (
    Vec<(String, u64)>,
    Vec<(String, u64)>,
    Vec<(String, u64)>,
    Vec<(String, Histogram)>,
) {
    (
        snapshot
            .spans
            .iter()
            .map(|(path, stats)| (path.clone(), stats.count))
            .collect(),
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), *value))
            .collect(),
        snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), *value))
            .collect(),
        snapshot
            .histograms
            .iter()
            .map(|(name, hist)| (name.clone(), hist.clone()))
            .collect(),
    )
}

/// What the shards' forging and certifying ran (`opcount`, per lane).
const LATUS_OP_COUNTERS: [&str; 4] = [
    "latus.forge.permutations",
    "latus.forge.group_muls",
    "latus.certify.permutations",
    "latus.certify.group_muls",
];

/// The tentpole determinism claim under instrumentation: a recording
/// 16-chain world is still bit-identical on one lane and on four
/// (telemetry is strictly write-only — no instrument site feeds back
/// into consensus or scheduling).
#[test]
fn instrumented_16_chain_world_is_bit_identical_across_worker_counts() {
    let one_lane = instrumented_ring(16, 1, Some(1));
    let four_lanes = instrumented_ring(16, 1, Some(4));
    assert!(one_lane.metrics.certificates_accepted >= 16);
    assert!(one_lane.conservation_holds() && one_lane.safeguards_hold());
    assert_eq!(
        observe(&one_lane),
        observe(&four_lanes),
        "recording telemetry perturbed the worker-count contract"
    );

    // Both runs recorded real data…
    let one_lane_snap = one_lane.telemetry_snapshot();
    let four_lanes_snap = four_lanes.telemetry_snapshot();
    assert!(!one_lane_snap.is_empty() && !four_lanes_snap.is_empty());
    // …and the counters that describe *outcomes* agree exactly, down to
    // the operations each shard's forging and certifying ran.
    for name in [
        "mc.blocks_connected",
        "mc.rejects",
        "router.certs_observed",
        "router.delivered",
        "shard.sc_blocks_forged",
        "shard.certificates_produced",
    ]
    .into_iter()
    .chain(LATUS_OP_COUNTERS)
    {
        assert_eq!(
            one_lane_snap.counters.get(name),
            four_lanes_snap.counters.get(name),
            "outcome counter {name} diverged across worker counts"
        );
    }
    assert_eq!(
        one_lane_snap.histograms.get("router.settlement.batch_size"),
        four_lanes_snap
            .histograms
            .get("router.settlement.batch_size"),
        "settlement batch-size histogram diverged across worker counts"
    );

    // The span-name contract: `benchmark/` reads these by name and
    // reports `null` — it does not fail — when one is renamed. The
    // world's snapshot carries the tick spans; `mc.stage2.verify` and
    // `snark.batch.verify` only exist on a receiving node, so a
    // recording follower's reading is merged in.
    let mut recorded = one_lane_snap;
    recorded.merge(&assert_follower_replay_matches(&one_lane));
    for span in [
        "tick",
        "tick.prologue",
        "tick.mc.prepare",
        "tick.mc.submit",
        "tick.fold",
        "tick.coordinator",
        "tick.shard.sync",
        "tick.shard.sync.forge",
        "tick.shard.sync.certify",
        "tick.shard.critical",
        "tick.lanes",
        "mc.stage1.precheck",
        "mc.stage2.verify",
        "mc.stage3.apply",
        "snark.batch.verify",
        "router.observe",
    ] {
        assert!(recorded.spans.contains_key(span), "span {span} missing");
    }
    let consulted: u64 = ["mc.verdict_cache.hit", "mc.verdict_cache.miss"]
        .iter()
        .filter_map(|name| recorded.counters.get(*name))
        .sum();
    assert!(consulted > 0, "verdict cache never consulted");
    assert!(
        recorded
            .histograms
            .get("router.settlement.batch_size")
            .is_some_and(|sizes| sizes.count() > 0),
        "no settlement batches recorded"
    );
}

/// What the tick's named children account for: its serial parts
/// (prologue, block preparation, effect fold) plus the longer of the
/// block submission and the lanes it overlaps — on an `sc_mesh`-shaped
/// world, 8 chains on 2 lanes with deposits and payments every tick,
/// where each lane runs four shards back to back. Read off the slowest
/// *shard* instead of the slowest lane, the same sum leaves about half
/// of this world's tick unaccounted for.
#[test]
fn the_lanes_and_the_serial_phases_account_for_the_tick() {
    const CHAINS: usize = 8;
    let config = SimConfig {
        workers: Some(2),
        epoch_len: scenarios::ring_epoch_len(CHAINS),
        telemetry: true,
        ..SimConfig::with_sidechains(CHAINS)
    };
    let ticks = 2 * (config.epoch_len as u64 + 1);
    let mut schedule = Schedule::new();
    for tick in 0..ticks {
        for chain in 0..CHAINS {
            schedule = schedule.at(
                tick,
                Action::ForwardTransferTo(chain, "alice".into(), 1_000 + tick),
            );
            if tick >= 3 {
                schedule = schedule.at(
                    tick,
                    Action::ScPayOn(chain, "alice".into(), "bob".into(), 10 + tick),
                );
            }
        }
    }
    let mut world = World::new(config);
    schedule.run(&mut world, ticks).unwrap();
    assert!(world.metrics.certificates_accepted >= CHAINS as u64);
    let snapshot = world.telemetry_snapshot();
    let nanos = |span: &str| {
        snapshot
            .spans
            .get(span)
            .unwrap_or_else(|| panic!("span {span} missing"))
            .total_nanos as f64
    };
    let serial = nanos("tick.prologue") + nanos("tick.mc.prepare") + nanos("tick.fold");
    let coverage = (serial + nanos("tick.mc.submit").max(nanos("tick.lanes"))) / nanos("tick");
    assert!(
        (0.95..=1.0).contains(&coverage),
        "named children cover {coverage:.3} of the tick"
    );
    assert!(nanos("tick.lanes") >= nanos("tick.shard.critical"));
}

// ---- Aggregated verification must not perturb consensus --------------

/// Runs the ring workload under an explicit (workers, verify mode)
/// pair, recording telemetry.
fn verify_mode_ring(chains: usize, workers: Option<usize>, verify_mode: VerifyMode) -> World {
    let config = SimConfig {
        workers,
        verify_mode,
        epoch_len: scenarios::ring_epoch_len(chains),
        telemetry: true,
        ..SimConfig::with_sidechains(chains)
    };
    let ticks = (config.epoch_len as u64 + 1) * 2;
    let mut world = World::new(config);
    scenarios::ring_schedule(chains)
        .run(&mut world, ticks)
        .unwrap();
    world
}

/// The aggregation acceptance claim: [`VerifyMode::Aggregated`] is a
/// pure verification-cost optimisation — every externally observable
/// outcome is bit-identical to [`VerifyMode::Individual`], on every
/// worker count, and the cross pairs agree too (one lane × Individual
/// == four lanes × Aggregated and so on).
#[test]
fn aggregated_mode_is_bit_identical_to_individual_across_the_matrix() {
    let reference = verify_mode_ring(8, MATRIX[0].0, MATRIX[0].1);
    assert!(reference.metrics.certificates_accepted >= 8);
    assert!(reference.conservation_holds() && reference.safeguards_hold());
    let expected = observe(&reference);
    assert_follower_replay_matches(&reference);
    let op_counts = |world: &World| {
        let snapshot = world.telemetry_snapshot();
        LATUS_OP_COUNTERS.map(|name| snapshot.counters.get(name).copied())
    };
    let expected_ops = op_counts(&reference);
    assert!(expected_ops.iter().all(Option::is_some), "{expected_ops:?}");

    for (workers, verify_mode) in MATRIX.into_iter().skip(1) {
        let world = verify_mode_ring(8, workers, verify_mode);
        assert_eq!(world.verify_mode(), verify_mode);
        assert_eq!(
            expected,
            observe(&world),
            "({workers:?}, {verify_mode:?}) diverged from the reference"
        );
        assert_eq!(
            expected_ops,
            op_counts(&world),
            "({workers:?}, {verify_mode:?}): shard operation counts diverged"
        );
        let snapshot = world.telemetry_snapshot();
        if verify_mode == VerifyMode::Aggregated {
            // The aggregated runs really built block proofs — the
            // bit-identical outcome is not because the mode was inert.
            let builds = snapshot.spans.get("mc.agg.build").map_or(0, |s| s.count);
            assert!(builds > 0, "no block proofs built at workers={workers:?}");
            assert_eq!(
                snapshot.counters.get("mc.agg.build_failed"),
                None,
                "block-proof aggregation failed at workers={workers:?}"
            );
        } else {
            assert!(!snapshot.spans.contains_key("mc.agg.build"));
        }
    }
}

// ---- Composed Byzantine faults live inside the contract too ----------

/// The fault machinery itself — partition buffering, backlog replay,
/// fork-branch replay, quality-war forgery pooling — must not leak
/// scheduling nondeterminism: a composed-fault world (partition healed
/// into a three-fork reorg storm with escrow in flight) is
/// bit-identical across the whole worker-count × verify-mode matrix,
/// down to the per-tick audit snapshot stream.
#[test]
fn composed_fault_world_is_bit_identical_across_the_matrix() {
    let (reference, reference_audit) =
        scenarios::partition_reorg_storm(MATRIX[0].0, MATRIX[0].1).unwrap();
    // The reference run really exercised the fault paths.
    assert!(reference.metrics.partitions >= 1 && reference.metrics.reorgs >= 3);
    assert!(reference.metrics.blocks_replayed >= 2);
    assert_follower_replay_matches(&reference);

    for (workers, verify) in MATRIX.into_iter().skip(1) {
        let (world, audit) = scenarios::partition_reorg_storm(workers, verify)
            .unwrap_or_else(|e| panic!("workers={workers:?}/{verify:?}: {e}"));
        assert_eq!(
            observe(&reference),
            observe(&world),
            "composed-fault world diverged at workers={workers:?} {verify:?}"
        );
        assert_eq!(
            reference_audit.snapshots(),
            audit.snapshots(),
            "audit history diverged at workers={workers:?} {verify:?}"
        );
    }
}

/// A fork that replaces the last block of an epoch in the very tick one
/// chain's partition heals: the live chains roll back across the
/// boundary and certify again on the branch, the healed one — merely
/// behind — catches up and certifies for the first time, all through
/// the ordinary shard phase, folded in declaration order.
fn boundary_fork_world(workers: Option<usize>, verify_mode: VerifyMode) -> World {
    let config = SimConfig {
        workers,
        verify_mode,
        ..SimConfig::with_sidechains(3)
    };
    let mut world = World::new(config);
    let ids = world.sidechain_ids().to_vec();
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 20_000));
    for tick in 0..20 {
        schedule.fire(&mut world, tick);
        match tick {
            3 => world.inject_partition(&ids[2]).unwrap(),
            // Tip 7 is the last block of epoch 0; depth 2 digs below it.
            6 => {
                world.heal_partition(&ids[2]);
                assert_eq!(world.inject_mc_fork(2).unwrap(), 4);
            }
            _ => {}
        }
        world.step().unwrap();
    }
    world
}

/// The fork path is the shard phase, so it lives inside the determinism
/// contract like any tick — including when it crosses an epoch boundary
/// and re-issues certificates.
#[test]
fn boundary_crossing_fork_is_bit_identical_across_the_matrix() {
    let reference = boundary_fork_world(MATRIX[0].0, MATRIX[0].1);
    // Both live chains certified epoch 0 twice (the stale certificates
    // are the only rejections); the healed one replayed what survived
    // of its backlog and caught up inside the window.
    assert_eq!(reference.metrics.certificates_rejected, 2);
    assert_eq!(reference.metrics.rejections, 2);
    assert_eq!(reference.metrics.certificates_withheld, 0);
    assert_eq!(reference.metrics.blocks_buffered, 3);
    assert_eq!(reference.metrics.blocks_replayed, 1);
    assert_eq!(reference.metrics.cross_transfers_delivered, 1);
    for id in reference.sidechain_ids() {
        assert_eq!(
            reference.sidechain_status_of(id),
            Some(zendoo_mainchain::SidechainStatus::Active)
        );
    }
    assert!(reference.conservation_holds() && reference.safeguards_hold());
    let expected = observe(&reference);
    assert_follower_replay_matches(&reference);

    for (workers, verify_mode) in MATRIX.into_iter().skip(1) {
        assert_eq!(
            expected,
            observe(&boundary_fork_world(workers, verify_mode)),
            "({workers:?}, {verify_mode:?}) diverged from the reference"
        );
    }
}

/// Two identical instrumented runs on the *same* worker count produce
/// the same snapshot modulo wall-clock nanoseconds: fixed key order,
/// identical span counts, counters, gauges and value histograms — the
/// "aggregates deterministically" half of the recorder contract, under
/// real worker threads.
#[test]
fn instrumented_runs_are_reproducible_on_a_worker_count() {
    for workers in [Some(1), Some(3)] {
        let first = instrumented_ring(4, 1, workers).telemetry_snapshot();
        let second = instrumented_ring(4, 1, workers).telemetry_snapshot();
        assert_eq!(
            deterministic_view(&first),
            deterministic_view(&second),
            "snapshot not reproducible at workers={workers:?}"
        );
    }
}
