//! Canned scenarios used by tests, examples and benchmarks.
//!
//! `docs/SCENARIOS.md` maps each scenario (and each `examples/*.rs`
//! program) to the paper section it reproduces. The `*_storm`/
//! `*_cascade`/`*_soak` family composes several Byzantine faults in
//! one run and audits conservation every tick (see [`crate::audit`]).

use crate::audit::ConservationAuditor;
use crate::events::{Action, Schedule};
use crate::faults::{Fault, FaultPlan, RunError};
use crate::world::{SimConfig, SimError, World};
use zendoo_mainchain::pipeline::VerifyMode;

/// Happy path: forward coins, pay on the SC, withdraw back, run the
/// requested number of certified epochs.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn happy_path(epochs: u32) -> Result<World, SimError> {
    let mut world = World::new(SimConfig::default());
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 10_000))
        .at(3, Action::ScPayOn(0, "alice".into(), "bob".into(), 2_500))
        .at(5, Action::ScWithdrawOn(0, "bob".into(), 1_000));
    // Each epoch is epoch_len blocks; run enough ticks.
    let config = SimConfig::default();
    let ticks = (config.epoch_len as u64 + 1) * (epochs as u64 + 1);
    schedule.run(&mut world, ticks)?;
    Ok(world)
}

/// Liveness fault: the sidechain withholds certificates after the first
/// epoch; the mainchain must mark it ceased.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn withheld_certificates() -> Result<World, SimError> {
    let mut world = World::new(SimConfig::default());
    let config = SimConfig::default();
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 5_000))
        .at(config.epoch_len as u64 + 2, Action::WithholdCertificates);
    let ticks = (config.epoch_len as u64 + 1) * 4;
    schedule.run(&mut world, ticks)?;
    Ok(world)
}

/// Fork tolerance: a mainchain reorg mid-epoch; the sidechain reverts
/// and re-syncs, and the following epochs certify normally.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn mc_fork_mid_epoch(depth: u64) -> Result<World, SimError> {
    let mut world = World::new(SimConfig::default());
    let config = SimConfig::default();
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 5_000))
        .at(config.epoch_len as u64 + 3, Action::McFork(depth));
    let ticks = (config.epoch_len as u64 + 1) * 3;
    schedule.run(&mut world, ticks)?;
    Ok(world)
}

/// Three concurrent sidechains exchanging value through the mainchain:
/// alice funds `sc-0`, hops `sc-0 → sc-1 → sc-2`, then withdraws back
/// to the mainchain from `sc-2`. Exercises the full cross-chain
/// lifecycle (escrow, certificate declaration, maturity, delivery)
/// twice in sequence.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn cross_chain_triangle() -> Result<World, SimError> {
    let config = SimConfig::with_sidechains(3);
    let mut world = World::new(config.clone());
    let epoch = config.epoch_len as u64; // 6: epoch 0 spans heights 2..=7
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        // Declared in sc-0's epoch-0 certificate, delivered after its
        // window closes (escrow matures at the ceasing height).
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 20_000))
        // The second hop waits until the first delivery landed on sc-1
        // (tick epoch + 3), then rides sc-1's next certificate.
        .at(
            2 * epoch,
            Action::CrossTransfer(1, 2, "alice".into(), 8_000),
        )
        .at(
            4 * epoch - 2,
            Action::ScWithdrawOn(2, "alice".into(), 3_000),
        );
    schedule.run(&mut world, 5 * epoch)?;
    Ok(world)
}

/// Refund path: a transfer whose destination sidechain ceases before
/// delivery. `sc-1` withholds its certificates from the start, so it is
/// ceased by the time alice's `sc-0 → sc-1` escrow matures; the router
/// refunds her mainchain payback address.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn cross_transfer_to_ceased() -> Result<World, SimError> {
    let config = SimConfig::with_sidechains(2);
    let mut world = World::new(config.clone());
    let epoch = config.epoch_len as u64;
    let schedule = Schedule::new()
        .at(0, Action::WithholdCertificatesOn(1))
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 20_000));
    schedule.run(&mut world, 2 * epoch + 2)?;
    Ok(world)
}

/// The epoch length [`cross_chain_ring`] uses: long enough that every
/// chain can be funded (one forward transfer per tick — alice's
/// mainchain wallet chains each FT off the previous change output) and
/// still fire its ring transfer inside withdrawal epoch 0.
pub fn ring_epoch_len(chains: usize) -> u32 {
    (chains as u32 + 4).max(6)
}

/// The schedule of [`cross_chain_ring`]: chain `i` is funded at tick
/// `i`, and once every chain is funded each fires one transfer to its
/// ring successor simultaneously (all riding the chains' epoch-0
/// certificates).
pub fn ring_schedule(chains: usize) -> Schedule {
    let mut schedule = Schedule::new();
    for i in 0..chains {
        // 10k per chain: alice's 1M premine funds worlds up to 100
        // sidechains.
        schedule = schedule.at(
            i as u64,
            Action::ForwardTransferTo(i, "alice".into(), 10_000),
        );
        if chains > 1 {
            schedule = schedule.at(
                chains as u64 + 1,
                Action::CrossTransfer(i, (i + 1) % chains, "alice".into(), 2_000 + i as u64),
            );
        }
    }
    schedule
}

/// Scale scenario: `chains` sidechains advancing in lockstep, every
/// chain simultaneously sending one cross-chain transfer to its ring
/// successor — the workload of the sharded-simulation benchmark and
/// the determinism suite. `workers` is [`SimConfig::workers`]
/// (outcomes are identical for every value).
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn cross_chain_ring(
    chains: usize,
    epochs: u32,
    workers: Option<usize>,
) -> Result<World, SimError> {
    let config = SimConfig {
        workers,
        epoch_len: ring_epoch_len(chains),
        ..SimConfig::with_sidechains(chains)
    };
    let ticks = (config.epoch_len as u64 + 1) * (epochs as u64 + 1);
    let mut world = World::new(config);
    ring_schedule(chains).run(&mut world, ticks)?;
    Ok(world)
}

// ---- Composed Byzantine scenarios -------------------------------------
//
// Each takes the worker count and verify mode explicitly so the
// Byzantine suite can assert bit-identical outcomes across
// `workers` × `VerifyMode::{Individual,Aggregated}`, and returns the
// world together with the auditor that watched every tick.

/// Composed fault 1 — *partition healing into a reorg storm with escrow
/// value in flight*: three chains; a cross-chain transfer escrows on
/// the mainchain while its destination `sc-1` is partitioned; the
/// partition heals (backlog replay certifies inside the submission
/// window), and then three consecutive shallow forks replay the blocks
/// carrying the matured escrow and its delivery. The transfer must
/// settle exactly once and every chain must stay live.
///
/// # Errors
///
/// [`RunError`] on step failures or any audited-invariant violation.
pub fn partition_reorg_storm(
    workers: Option<usize>,
    verify: VerifyMode,
) -> Result<(World, ConservationAuditor), RunError> {
    let config = SimConfig {
        workers,
        verify_mode: verify,
        ..SimConfig::with_sidechains(3)
    };
    let mut world = World::new(config);
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        // Declared in sc-0's epoch-0 certificate while sc-1 is cut off.
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 20_000));
    // The partition spans the escrow declaration and heals one tick
    // before the epoch boundary, so the backlog replay still certifies
    // inside the submission window. The forks then land on the empty
    // mid-epoch blocks around the escrow's maturity and delivery:
    // deep enough to rewind the settlement repeatedly, shallow enough
    // to keep every certificate-carrying block (the first of a window)
    // on the active chain. Only that placement matters: a fork whose
    // `depth + 1` empty branch blocks cover a chain's whole submission
    // window leaves no block for the re-pooled certificate — faithful
    // Def 4.2 ceasing, which is the *withholding* scenario's job, not
    // this one's — whereas a fork that merely replaces an epoch's last
    // block is harmless (the nodes certify again on the branch, see
    // `tests/byzantine.rs`). Each fork lengthens the chain by one
    // block, which shifts later epoch boundaries one tick earlier — the
    // tick arithmetic below accounts for the two forks already injected
    // when placing the third.
    let plan = FaultPlan::new(0)
        .at(3, Fault::Partition(1))
        .at(5, Fault::HealPartition(1))
        .at(9, Fault::Reorg(2))
        .at(10, Fault::Reorg(2))
        .at(13, Fault::Reorg(2));
    let mut auditor = ConservationAuditor::new();
    plan.run(&mut world, &schedule, 21, &mut auditor)?;
    Ok((world, auditor))
}

/// Composed fault 2 — *certifier quality wars at every epoch*: both
/// chains run under a standing quality war, so every honest certificate
/// is pooled surrounded by forged competitors claiming adjacent quality
/// (a higher-quality front-runner and a lower-quality trailer). The
/// SNARK binding of quality into the certificate statement must reject
/// every forgery — the honest certificate wins every epoch on both
/// chains, a cross-chain transfer still settles, and the auditor proves
/// no forged digest ever enters the registry.
///
/// # Errors
///
/// [`RunError`] on step failures or any audited-invariant violation.
pub fn certifier_quality_wars(
    workers: Option<usize>,
    verify: VerifyMode,
) -> Result<(World, ConservationAuditor), RunError> {
    let config = SimConfig {
        workers,
        verify_mode: verify,
        ..SimConfig::with_sidechains(2)
    };
    let mut world = World::new(config);
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 20_000));
    let plan = FaultPlan::new(0)
        .at(0, Fault::QualityWar(0))
        .at(0, Fault::QualityWar(1));
    let mut auditor = ConservationAuditor::new();
    plan.run(&mut world, &schedule, 28, &mut auditor)?;
    Ok((world, auditor))
}

/// The sender-side users of [`withholding_cascade`] (one per doomed
/// destination chain, so the six cross-chain transfers spend
/// independent UTXOs in a single tick).
pub const CASCADE_SENDERS: usize = 6;

/// Composed fault 3 — *withholding cascade with a mass-refund
/// settlement window under generated load*: eight chains; six withhold
/// their certificates from the start and all cease in the same
/// settlement window, while six escrowed transfers from `sc-0` are in
/// flight towards them — every one must refund (exactly once) to its
/// sender's mainchain payback address, inside a mainchain kept busy by
/// `users` generated load accounts (the Byzantine suite runs ≥10⁴)
/// batch-admitted every tick.
///
/// # Errors
///
/// [`RunError`] on step failures or any audited-invariant violation.
pub fn withholding_cascade(
    workers: Option<usize>,
    verify: VerifyMode,
    users: usize,
) -> Result<(World, ConservationAuditor), RunError> {
    use zendoo_loadgen::{LoadConfig, LoadGen, Population, Shape};

    let load = LoadConfig {
        users,
        seed: 11,
        ..LoadConfig::default()
    };
    let mut population = Population::generate(&load);
    let mut genesis_users = vec![("alice".to_string(), 1_000_000u64)];
    for i in 0..CASCADE_SENDERS {
        genesis_users.push((format!("sender-{i}"), 100_000));
    }
    let config = SimConfig {
        workers,
        verify_mode: verify,
        genesis_users,
        extra_genesis_outputs: population.genesis_outputs(),
        ..SimConfig::with_sidechains(2 + CASCADE_SENDERS)
    };
    let mut world = World::new(config);
    population.bind_genesis(&world.chain, 1 + CASCADE_SENDERS as u32);
    let mut gen = LoadGen::new(population, Shape::Zipf { exponent: 1.0 }, &load);

    let mut schedule = Schedule::new();
    let mut plan = FaultPlan::new(0);
    for i in 0..CASCADE_SENDERS {
        let name = format!("sender-{i}");
        let doomed = 2 + i;
        // Fund each sender on sc-0, cut the destination's certifier
        // from the start, and fire the transfer early enough to ride
        // sc-0's epoch-0 certificate.
        schedule = schedule
            .at(0, Action::ForwardTransferTo(0, name.clone(), 10_000))
            .at(2, Action::CrossTransfer(0, doomed, name, 4_000));
        plan = plan.at(0, Fault::Withhold(doomed));
    }

    let mut auditor = ConservationAuditor::new();
    for tick in 0..16u64 {
        schedule.fire(&mut world, tick);
        plan.inject(&mut world, tick);
        let batch = gen.next_batch(200);
        world.admit_mc_batch(batch, 2);
        world.step().map_err(RunError::Sim)?;
        auditor.observe(&world)?;
        let tip = world.chain.tip_hash();
        gen.population_mut()
            .settle_block(world.chain.block(&tip).expect("tip exists"));
    }
    Ok((world, auditor))
}

/// Composed fault 4 — *relay equivocation*: a faulty relay feeds `sc-1`
/// a phantom mainchain block while a cross-chain transfer towards it is
/// in flight; the diverged shard buffers the canonical chain until the
/// relay is healed (rollback + backlog replay), after which the
/// transfer settles exactly once and both chains keep certifying —
/// equivocation degrades liveness, never safety.
///
/// # Errors
///
/// [`RunError`] on step failures or any audited-invariant violation.
pub fn relay_equivocation(
    workers: Option<usize>,
    verify: VerifyMode,
) -> Result<(World, ConservationAuditor), RunError> {
    let config = SimConfig {
        workers,
        verify_mode: verify,
        ..SimConfig::with_sidechains(2)
    };
    let mut world = World::new(config);
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 20_000));
    let plan = FaultPlan::new(0)
        .at(4, Fault::RelayEquivocate(1))
        .at(5, Fault::HealRelay(1));
    let mut auditor = ConservationAuditor::new();
    plan.run(&mut world, &schedule, 14, &mut auditor)?;
    Ok((world, auditor))
}

/// Composed fault 5 — *long-horizon mixed-fault soak*: three chains run
/// `epochs` (≥64 in the Byzantine suite) withdrawal epochs under a
/// standing quality war on `sc-1` while every epoch cycles through one
/// more fault — a partition of `sc-0` healed inside the epoch, a relay
/// equivocation against `sc-2` healed one block later, or a shallow
/// fork — and `sc-2` starts withholding halfway through, ceasing with a
/// refund owed to an in-flight transfer. Conservation, the safeguard,
/// exactly-once settlement and quality-war integrity are audited after
/// every one of the `epochs × epoch_len + 2` ticks.
///
/// Every mainchain fork lengthens the chain by one block, so epoch
/// boundaries drift one tick *earlier* per prior fork. A tick-indexed
/// [`FaultPlan`] would slowly slide its forks into the submission
/// windows, where one that disconnects the certificate-carrying block
/// covers the whole window with empty blocks and ceases every chain
/// (Def 4.2 censorship; a fork replacing an epoch's *last* block does
/// not — the nodes certify again on the branch). Instead the soak keys
/// each injection off the **height the tick is about to mine** — its
/// position inside the current epoch — which is immune to drift.
///
/// # Errors
///
/// [`RunError`] on step failures or any audited-invariant violation.
pub fn long_horizon_soak(
    workers: Option<usize>,
    verify: VerifyMode,
    epochs: u64,
) -> Result<(World, ConservationAuditor), RunError> {
    let config = SimConfig {
        workers,
        verify_mode: verify,
        ..SimConfig::with_sidechains(3)
    };
    let epoch = config.epoch_len as u64;
    let mut world = World::new(config);
    let cease_epoch = epochs / 2;
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 200_000))
        // Early cross traffic, delivered under the standing quality war.
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 20_000));
    let plan = FaultPlan::new(0).at(0, Fault::QualityWar(1));
    // Fires one fault through the tolerant fault-plan dispatch path.
    fn fault(world: &mut World, f: Fault) {
        FaultPlan::new(0).at(0, f).inject(world, 0);
    }
    let mut auditor = ConservationAuditor::new();
    for tick in 0..epochs * epoch + 2 {
        schedule.fire(&mut world, tick);
        plan.inject(&mut world, tick);
        // Drift-immune cadence: `next` is the height this tick mines;
        // `(e, p)` its epoch and in-epoch position. Positions 0..=1 are
        // the previous epoch's submission window (certificates land at
        // p == 0), so all faults target the quiet middle of the epoch.
        let next = world.chain.height() + 1;
        if next >= 2 {
            let (e, p) = ((next - 2) / epoch, (next - 2) % epoch);
            // A quiet epoch every fourth (e % 4 == 0) keeps a
            // fault-free baseline in the soak.
            match (e % 4, p) {
                (1, 2) => fault(&mut world, Fault::Partition(0)),
                (1, 4) => fault(&mut world, Fault::HealPartition(0)),
                (2, 2) if e < cease_epoch => fault(&mut world, Fault::RelayEquivocate(2)),
                (2, 3) if e < cease_epoch => fault(&mut world, Fault::HealRelay(2)),
                (3, 4) => fault(&mut world, Fault::Reorg(1)),
                _ => {}
            }
            if e == cease_epoch {
                if p == 1 {
                    // Queued just before sc-2 stops certifying: its
                    // escrow matures against a ceased destination and
                    // must refund exactly once.
                    let from = world.sidechain_id_at(0);
                    let to = world.sidechain_id_at(2);
                    if let (Ok(from), Ok(to)) = (from, to) {
                        if world
                            .queue_cross_transfer(&from, &to, "alice", 5_000)
                            .is_err()
                        {
                            world.metrics.rejections += 1;
                        }
                    }
                } else if p == 2 {
                    fault(&mut world, Fault::Withhold(2));
                }
            }
        }
        world.step().map_err(RunError::Sim)?;
        auditor.observe(&world)?;
    }
    Ok((world, auditor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_mainchain::SidechainStatus;

    #[test]
    fn happy_path_certifies_epochs_and_conserves() {
        let world = happy_path(2).unwrap();
        assert!(world.metrics.certificates_accepted >= 2);
        assert_eq!(world.metrics.certificates_rejected, 0);
        assert!(world.conservation_holds());
        assert_eq!(
            world.sidechain_status_of(&world.sidechain_ids()[0]),
            Some(SidechainStatus::Active)
        );
        // The withdrawal eventually paid out on the MC.
        let bob = world.user("bob").unwrap();
        assert!(!world
            .chain
            .state()
            .utxos
            .balance_of(&bob.mc_address())
            .is_zero(),);
    }

    #[test]
    fn withheld_certificates_cease_the_sidechain() {
        let world = withheld_certificates().unwrap();
        assert_eq!(
            world.sidechain_status_of(&world.sidechain_ids()[0]),
            Some(SidechainStatus::Ceased)
        );
        assert!(world.metrics.certificates_withheld > 0);
        assert!(world.conservation_holds());
    }

    #[test]
    fn cross_chain_triangle_moves_value_and_conserves() {
        let world = cross_chain_triangle().unwrap();
        assert_eq!(world.metrics.cross_transfers_initiated, 2);
        assert_eq!(world.metrics.cross_transfers_delivered, 2);
        assert_eq!(world.metrics.cross_transfers_rejected, 0);
        assert!(world.conservation_holds());
        assert!(world.safeguards_hold());

        let ids = world.sidechain_ids().to_vec();
        let alice = world.user("alice").unwrap().clone();
        // sc-0 kept the change of the first hop.
        assert_eq!(
            world
                .node_of(&ids[0])
                .unwrap()
                .balance_of(&alice.sc_address_on(&ids[0])),
            zendoo_core::ids::Amount::from_units(30_000)
        );
        // sc-1 kept what was not forwarded to sc-2.
        assert_eq!(
            world
                .node_of(&ids[1])
                .unwrap()
                .balance_of(&alice.sc_address_on(&ids[1])),
            zendoo_core::ids::Amount::from_units(12_000)
        );
        // sc-2 received the second hop; the withdrawal spends the whole
        // 8k UTXO (whole-UTXO withdrawal refunds change to the MC side),
        // so everything returned to alice's mainchain address.
        assert_eq!(
            world
                .node_of(&ids[2])
                .unwrap()
                .balance_of(&alice.sc_address_on(&ids[2])),
            zendoo_core::ids::Amount::ZERO
        );
        assert_eq!(
            world.chain.state().utxos.balance_of(&alice.mc_address()),
            zendoo_core::ids::Amount::from_units(1_000_000 - 50_000 + 8_000)
        );
        // The destination nodes logged the inbound transfers.
        assert_eq!(
            world
                .node_of(&ids[1])
                .unwrap()
                .inbound_cross_transfers()
                .len(),
            1
        );
        assert_eq!(
            world
                .node_of(&ids[2])
                .unwrap()
                .inbound_cross_transfers()
                .len(),
            1
        );
    }

    #[test]
    fn ceased_destination_refunds_sender() {
        let world = cross_transfer_to_ceased().unwrap();
        let ids = world.sidechain_ids().to_vec();
        assert_eq!(
            world.sidechain_status_of(&ids[1]),
            Some(SidechainStatus::Ceased)
        );
        assert_eq!(world.metrics.cross_transfers_initiated, 1);
        assert_eq!(world.metrics.cross_transfers_delivered, 0);
        assert_eq!(world.metrics.cross_transfers_refunded, 1);
        assert!(world.conservation_holds());
        // The refund paid alice's mainchain address: genesis premine
        // minus the 50k forward transfer plus the 20k refund.
        let alice = world.user("alice").unwrap().clone();
        assert_eq!(
            world.chain.state().utxos.balance_of(&alice.mc_address()),
            zendoo_core::ids::Amount::from_units(1_000_000 - 50_000 + 20_000)
        );
    }

    #[test]
    fn mc_fork_recovers_and_still_certifies() {
        let world = mc_fork_mid_epoch(2).unwrap();
        assert_eq!(world.metrics.reorgs, 1);
        assert!(world.metrics.sc_blocks_reverted >= 1);
        assert!(world.metrics.certificates_accepted >= 1);
        assert!(world.conservation_holds());
        assert_eq!(
            world.sidechain_status_of(&world.sidechain_ids()[0]),
            Some(SidechainStatus::Active)
        );
    }
}
