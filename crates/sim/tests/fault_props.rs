//! Property tests for the fault-composition harness: however a random
//! [`FaultPlan`] layers partitions, forks, withholding, quality wars
//! and relay equivocations, every tick's conservation audit passes —
//! and any failure is reproducible from the printed seed alone,
//! because the plan is a pure function of it.

mod common;

use common::assert_follower_replay_matches;
use proptest::prelude::*;
use zendoo_sim::{
    Action, ConservationAuditor, Fault, FaultPlan, RunError, Schedule, SimConfig, VerifyMode, World,
};

const CHAINS: usize = 3;
const TICKS: u64 = 26;

/// Runs a fault plan over a small cross-chain workload with the auditor
/// attached to every tick.
fn run_plan(
    plan: &FaultPlan,
    workers: Option<usize>,
) -> Result<(World, ConservationAuditor), RunError> {
    let config = SimConfig {
        workers,
        verify_mode: VerifyMode::Individual,
        ..SimConfig::with_sidechains(CHAINS)
    };
    let mut world = World::new(config);
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 10_000));
    let mut auditor = ConservationAuditor::new();
    plan.run(&mut world, &schedule, TICKS, &mut auditor)?;
    Ok((world, auditor))
}

/// [`run_plan`] over the seed's random fault plan.
fn run_random_plan(
    seed: u64,
    workers: Option<usize>,
) -> Result<(World, ConservationAuditor), RunError> {
    run_plan(&FaultPlan::random(seed, CHAINS, TICKS), workers)
}

/// Two fork placements the random plans only hit by luck, pinned: no
/// honest chain may cease under either, on one lane and on three.
fn assert_every_chain_survives(name: &str, plan: FaultPlan, stale_certificates: u64) {
    let (first, first_audit) = run_plan(&plan, Some(1)).unwrap_or_else(|e| panic!("{name}: {e}"));
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
    let (world, audit) = run_plan(&plan, Some(3)).unwrap_or_else(|e| panic!("{name}: {e}"));
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
    let plan = FaultPlan::new(0)
        .at(6, Fault::Reorg(1)) // tip 7, the end of epoch 0
        .at(11, Fault::Reorg(2)); // tip 13, the end of epoch 1
                                  // Each fork strands the certificate every chain had just pooled.
    assert_every_chain_survives("forks on epoch boundaries", plan, 2 * CHAINS as u64);
}

/// A fork fired in the same tick as a heal, before the backlog
/// replayed: the healed shard is simply behind and catches up.
#[test]
fn fork_in_the_tick_of_a_heal_ceases_no_chain() {
    let plan = FaultPlan::new(0)
        .at(3, Fault::Partition(1))
        .at(6, Fault::HealPartition(1))
        .at(6, Fault::Reorg(1));
    // The partitioned chain had not certified epoch 0 yet.
    assert_every_chain_survives("fork in the tick of a heal", plan, CHAINS as u64 - 1);
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
    /// auditor (a violation is an `Err` out of `FaultPlan::run`) and
    /// the final world conserves value. Chains are allowed to *cease*
    /// under random faults — that is Def 4.2 working — but value must
    /// never appear, vanish, or settle twice.
    #[test]
    fn prop_random_fault_plans_conserve_value(seed in any::<u64>()) {
        let (world, auditor) = run_random_plan(seed, Some(1))
            .unwrap_or_else(|e| panic!("replay with FaultPlan::random({seed}, {CHAINS}, {TICKS}): {e}"));
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
    /// of the seed's random plan (which may inject more of them), every
    /// run deposits one forward transfer with corrupted receiver
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
            verify_mode: VerifyMode::Individual,
            ..SimConfig::with_sidechains(CHAINS)
        };
        let epoch_len = config.epoch_len as u64;
        let mut world = World::new(config);
        let schedule = Schedule::new()
            .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
            .at(1, Action::MalformedForwardTransferTo(0, "alice".into(), 2_000))
            .at(2, Action::CrossTransfer(0, 1, "alice".into(), 10_000));
        let plan = FaultPlan::random(seed, CHAINS, TICKS);
        let mut auditor = ConservationAuditor::new();
        plan.run(&mut world, &schedule, TICKS, &mut auditor)
            .unwrap_or_else(|e| panic!("replay with FaultPlan::random({seed}, {CHAINS}, {TICKS}): {e}"));
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

    /// A plan is a pure function of its seed: the same seed replays to
    /// a bit-identical world and audit history, on one lane and on
    /// three, and a cacheless follower replays the resulting chain.
    #[test]
    fn prop_same_seed_reproduces_the_run(seed in any::<u64>()) {
        let plan = FaultPlan::random(seed, CHAINS, TICKS);
        prop_assert_eq!(plan.seed(), seed);
        prop_assert!(!plan.is_empty(), "random plans always schedule faults");

        let (first, first_audit) = run_random_plan(seed, Some(1))
            .unwrap_or_else(|e| panic!("replay with FaultPlan::random({seed}, {CHAINS}, {TICKS}): {e}"));
        assert_follower_replay_matches(&first);
        for workers in [Some(1), Some(3)] {
            let (world, audit) = run_random_plan(seed, workers)
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
