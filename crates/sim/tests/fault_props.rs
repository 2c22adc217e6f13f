//! Property tests for the fault half of the one script: however
//! [`Schedule::with_random_faults`] layers partitions, forks,
//! withholding, quality wars and relay equivocations, every tick's
//! conservation audit passes — and any failure is reproducible from the
//! printed seed alone, because the schedule is a pure function of it.
//! A sweep fires every single fault at every tick.

mod common;

use common::assert_follower_replay_matches;
use proptest::prelude::*;
use zendoo_sim::{Action, ConservationAuditor, RunError, Schedule, SimConfig, World};

const CHAINS: usize = 3;
const TICKS: u64 = 26;

/// The small cross-chain workload the faults are layered on.
fn workload() -> Schedule {
    Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 10_000))
}

/// The workload under the seed's random faults.
fn random_schedule(seed: u64) -> Schedule {
    workload().with_random_faults(seed, CHAINS, TICKS)
}

/// Runs a schedule on a `CHAINS`-chain world, audited every tick.
fn run(
    schedule: &Schedule,
    workers: Option<usize>,
) -> Result<(World, ConservationAuditor), RunError> {
    let config = SimConfig {
        workers,
        ..SimConfig::with_sidechains(CHAINS)
    };
    let mut world = World::new(config);
    let auditor = schedule.run(&mut world, TICKS)?;
    Ok((world, auditor))
}

/// Two fork placements the random schedules only hit by luck, pinned:
/// no honest chain may cease under either, on one lane and on three.
fn assert_every_chain_survives(name: &str, schedule: Schedule, stale_certificates: u64) {
    let (first, first_audit) = run(&schedule, Some(1)).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(first_audit.snapshots().len() as u64, TICKS);
    assert_eq!(
        (
            first.metrics.rejections,
            first.metrics.certificates_rejected
        ),
        (stale_certificates, stale_certificates),
        "{name}: nothing but the stale certificates is rejected"
    );
    assert_eq!(first.metrics.certificates_withheld, 0, "{name}");
    assert_eq!(first.metrics.cross_transfers_delivered, 1, "{name}");
    for id in first.sidechain_ids() {
        assert_eq!(
            first.sidechain_status_of(id),
            Some(zendoo_mainchain::SidechainStatus::Active),
            "{name}"
        );
        assert_eq!(first.shard(id).unwrap().backlog_len(), 0, "{name}");
    }
    assert_follower_replay_matches(&first);
    let (world, audit) = run(&schedule, Some(3)).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        observe(&first),
        observe(&world),
        "{name}: three lanes diverged"
    );
    assert_eq!(first_audit.snapshots(), audit.snapshots(), "{name}");
}

/// Forks that replace the last block of an epoch (tick `k` starts at
/// tip height `k + 1`, plus one per earlier fork): every chain
/// re-certifies on the branch, inside the still-open window.
#[test]
fn forks_on_epoch_boundaries_cease_no_chain() {
    // Each fork strands the certificate every chain had just pooled.
    let schedule = workload()
        .at(6, Action::McFork(1)) // tip 7, the end of epoch 0
        .at(11, Action::McFork(2)); // tip 13, the end of epoch 1
    assert_every_chain_survives("forks on epoch boundaries", schedule, 2 * CHAINS as u64);
}

/// A fork fired in the same tick as a heal, before the backlog
/// replayed: the healed shard is simply behind and catches up.
#[test]
fn fork_in_the_tick_of_a_heal_ceases_no_chain() {
    let schedule = workload()
        .at(3, Action::PartitionOn(1))
        .at(6, Action::HealPartitionOn(1))
        .at(6, Action::McFork(1));
    // The partitioned chain had not certified epoch 0 yet.
    assert_every_chain_survives("fork in the tick of a heal", schedule, CHAINS as u64 - 1);
}

/// Every single fault at every tick, each in its own audited run: a
/// two-chain world funds sc-0 at tick 0 and sends sc-0 → sc-1 at tick 2,
/// and one fault — on either chain, healed two ticks later where it
/// has a heal — lands at each of the 20 ticks. Chains may cease (Def
/// 4.2); no run may break an audited invariant.
#[test]
fn every_single_fault_at_every_tick_keeps_the_audit() {
    const SWEEP_CHAINS: usize = 2;
    const SWEEP_TICKS: u64 = 20;
    const HEAL_AFTER: u64 = 2;
    // Each fault family: the injection and, where it has one, its heal.
    let mut faults: Vec<(Action, Option<Action>)> =
        (1..=3).map(|depth| (Action::McFork(depth), None)).collect();
    for sc in 0..SWEEP_CHAINS {
        faults.extend([
            (Action::PartitionOn(sc), Some(Action::HealPartitionOn(sc))),
            (
                Action::WithholdCertificatesOn(sc),
                Some(Action::ResumeCertificatesOn(sc)),
            ),
            (Action::RelayEquivocateOn(sc), Some(Action::HealRelayOn(sc))),
            (Action::InjectShardPanic(sc), None),
            (Action::QualityWarOn(sc), Some(Action::EndQualityWarOn(sc))),
            (
                Action::MalformedForwardTransferTo(sc, "alice".into(), 1_000),
                None,
            ),
        ]);
    }
    let mut runs = 0;
    for (inject, heal) in &faults {
        for tick in 0..SWEEP_TICKS {
            let mut schedule = workload().at(tick, inject.clone());
            if let Some(heal) = heal {
                schedule = schedule.at(tick + HEAL_AFTER, heal.clone());
            }
            let mut world = World::new(SimConfig {
                workers: Some(1),
                ..SimConfig::with_sidechains(SWEEP_CHAINS)
            });
            let auditor = schedule
                .run(&mut world, SWEEP_TICKS)
                .unwrap_or_else(|e| panic!("{inject:?} at tick {tick}: {e}"));
            assert_eq!(auditor.snapshots().len() as u64, SWEEP_TICKS);
            runs += 1;
        }
    }
    assert_eq!(runs, faults.len() as u64 * SWEEP_TICKS);
    println!("{runs} single-fault runs, every tick audited");
}

/// Everything externally observable, for reproducibility comparison.
fn observe(world: &World) -> impl PartialEq + std::fmt::Debug {
    (
        world.chain.tip_hash(),
        world.chain.height(),
        world.chain.state().clone(),
        world.metrics.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever faults the seed composes, the run never trips the
    /// auditor (a violation is an `Err` out of `Schedule::run`) and
    /// the final world conserves value. Chains are allowed to *cease*
    /// under random faults — that is Def 4.2 working — but value must
    /// never appear, vanish, or settle twice.
    #[test]
    fn prop_random_fault_plans_conserve_value(seed in any::<u64>()) {
        let (world, auditor) = run(&random_schedule(seed), Some(1))
            .unwrap_or_else(|e| panic!("replay with with_random_faults({seed}, {CHAINS}, {TICKS}): {e}"));
        prop_assert!(world.conservation_holds(), "seed {} broke conservation", seed);
        prop_assert!(world.safeguards_hold(), "seed {} broke the safeguard", seed);
        prop_assert_eq!(
            auditor.snapshots().len() as u64,
            TICKS,
            "seed {} was not audited every tick", seed
        );
        prop_assert!(auditor.checks() as usize > auditor.snapshots().len(), "seed {}", seed);
    }

    /// Malformed-metadata deposits are refunded, never stranded. On top
    /// of the seed's random faults (which may inject more of them),
    /// every run deposits one forward transfer with corrupted receiver
    /// metadata; after the faults heal and the system drains quietly
    /// for four epochs, every still-active chain's locked registry
    /// balance must reconcile *exactly* with its sidechain ledger.
    /// Under the historic bug the malformed amount stayed locked
    /// forever, which this check catches while the per-tick safeguard
    /// (ledger ≤ locked) cannot.
    #[test]
    fn prop_malformed_fts_reconcile_after_drain(seed in any::<u64>()) {
        let config = SimConfig {
            workers: Some(1),
            ..SimConfig::with_sidechains(CHAINS)
        };
        let epoch_len = config.epoch_len as u64;
        let mut world = World::new(config);
        let schedule = Schedule::new()
            .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
            .at(1, Action::MalformedForwardTransferTo(0, "alice".into(), 2_000))
            .at(2, Action::CrossTransfer(0, 1, "alice".into(), 10_000))
            .with_random_faults(seed, CHAINS, TICKS);
        let mut auditor = schedule.run(&mut world, TICKS)
            .unwrap_or_else(|e| panic!("replay with with_random_faults({seed}, {CHAINS}, {TICKS}): {e}"));
        prop_assert!(world.metrics.forward_transfers_malformed >= 1, "seed {}", seed);

        // Drain: no new transactions or faults for four epochs, so every
        // in-flight refund certificate matures.
        for _ in 0..4 * epoch_len {
            world.step().unwrap_or_else(|e| panic!("seed {seed} drain step: {e}"));
            auditor.observe(&world)
                .unwrap_or_else(|v| panic!("seed {seed} drain audit: {v}"));
        }
        auditor.check_reconciled(&world)
            .unwrap_or_else(|v| panic!("seed {seed} stranded value: {v}"));
        prop_assert!(world.conservation_holds(), "seed {} broke conservation", seed);
    }

    /// A schedule is a pure function of its seed: two derivations are
    /// equal, and the same seed replays to a bit-identical world and
    /// audit history, on one lane and on three, and a cacheless follower
    /// replays the resulting chain.
    #[test]
    fn prop_same_seed_reproduces_the_run(seed in any::<u64>()) {
        let schedule = random_schedule(seed);
        prop_assert_eq!(&schedule, &random_schedule(seed));
        prop_assert!(schedule != workload(), "random schedules always add faults");

        let (first, first_audit) = run(&schedule, Some(1))
            .unwrap_or_else(|e| panic!("replay with with_random_faults({seed}, {CHAINS}, {TICKS}): {e}"));
        assert_follower_replay_matches(&first);
        for workers in [Some(1), Some(3)] {
            let (world, audit) = run(&random_schedule(seed), workers)
                .unwrap_or_else(|e| panic!("seed {seed} under workers={workers:?}: {e}"));
            prop_assert_eq!(
                &observe(&first),
                &observe(&world),
                "seed {} diverged under workers={:?}", seed, workers
            );
            prop_assert_eq!(
                first_audit.snapshots(),
                audit.snapshots(),
                "seed {} audit history diverged under workers={:?}", seed, workers
            );
        }
    }
}
