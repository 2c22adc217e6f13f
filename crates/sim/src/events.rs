//! Deterministic discrete-event scheduling for scenarios.
//!
//! A [`Schedule`] maps ticks to [`Action`]s; [`Schedule::run`] drives a
//! [`crate::world::World`] one mainchain block per tick, firing
//! the tick's actions *before* the block is mined — so scheduled
//! transactions land in that tick's block.

use std::collections::BTreeMap;

use crate::world::{SimError, World};

/// One scripted action. Every per-chain variant names its sidechain by
/// position in [`crate::world::SimConfig::sidechain_labels`].
#[derive(Clone, Debug)]
pub enum Action {
    /// `ForwardTransferTo(sc_index, user, amount)` — queue an MC→SC
    /// transfer.
    ForwardTransferTo(usize, String, u64),
    /// `MalformedForwardTransferTo(sc_index, user, amount)` — a forward
    /// transfer with deliberately corrupted receiver metadata; the
    /// destination must refund it through the consensus-checked
    /// backward-transfer path, never strand it.
    MalformedForwardTransferTo(usize, String, u64),
    /// `ScPayOn(sc_index, from, to, amount)` — a sidechain payment.
    ScPayOn(usize, String, String, u64),
    /// `ScWithdrawOn(sc_index, user, amount)` — initiate an SC→MC
    /// withdrawal.
    ScWithdrawOn(usize, String, u64),
    /// `CrossTransfer(from_sc_index, to_sc_index, user, amount)` — a
    /// sidechain→sidechain transfer routed through the mainchain.
    CrossTransfer(usize, usize, String, u64),
    /// Start withholding certificates on every sidechain (liveness
    /// fault).
    WithholdCertificates,
    /// Resume certificate submission on every sidechain.
    ResumeCertificates,
    /// `WithholdCertificatesOn(sc_index)` — liveness fault on one chain.
    WithholdCertificatesOn(usize),
    /// `ResumeCertificatesOn(sc_index)`.
    ResumeCertificatesOn(usize),
    /// Inject a mainchain fork of the given depth.
    McFork(u64),
    /// `InjectShardPanic(sc_index)` — crash fault: the shard panics at
    /// its next sync, is quarantined, and its chain eventually ceases.
    InjectShardPanic(usize),
    /// `PartitionOn(sc_index)` — cut the shard off from the mainchain;
    /// canonical blocks buffer until the partition heals.
    PartitionOn(usize),
    /// `HealPartitionOn(sc_index)` — reconnect a partitioned shard (the
    /// backlog replays at its next sync).
    HealPartitionOn(usize),
    /// `RelayEquivocateOn(sc_index)` — a faulty relay feeds the shard a
    /// phantom mainchain block the canonical chain never adopts.
    RelayEquivocateOn(usize),
    /// `HealRelayOn(sc_index)` — roll a relay-diverged shard back onto
    /// the canonical chain.
    HealRelayOn(usize),
    /// `QualityWarOn(sc_index)` — surround each honest certificate with
    /// forged competitors claiming adjacent quality.
    QualityWarOn(usize),
    /// `EndQualityWarOn(sc_index)`.
    EndQualityWarOn(usize),
}

/// A tick-indexed script of actions.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    actions: BTreeMap<u64, Vec<Action>>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an action at `tick` (0-based; tick `t` fires before the
    /// `t`-th mined block).
    pub fn at(mut self, tick: u64, action: Action) -> Self {
        self.actions.entry(tick).or_default().push(action);
        self
    }

    /// Number of scheduled ticks.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Fires this schedule's actions for one tick (without stepping the
    /// world). Action failures are tolerated and counted in
    /// `world.metrics.rejections` — fault scenarios schedule actions
    /// that are *supposed* to fail. Used by [`Schedule::run`] and by
    /// [`crate::faults::FaultPlan::run`], which interleaves a fault
    /// plan with a transaction script.
    pub fn fire(&self, world: &mut World, tick: u64) {
        let Some(actions) = self.actions.get(&tick) else {
            return;
        };
        for action in actions {
            let result = match action {
                Action::ForwardTransferTo(index, user, amount) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.queue_forward_transfer_on(&sc, user, *amount)),
                Action::MalformedForwardTransferTo(index, user, amount) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.queue_malformed_forward_transfer_on(&sc, user, *amount)),
                Action::ScPayOn(index, from, to, amount) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.sc_pay_on(&sc, from, to, *amount)),
                Action::ScWithdrawOn(index, user, amount) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.sc_withdraw_on(&sc, user, *amount)),
                Action::CrossTransfer(from, to, user, amount) => {
                    let from_sc = world.sidechain_id_at(*from);
                    let to_sc = world.sidechain_id_at(*to);
                    from_sc.and_then(|f| {
                        to_sc.and_then(|t| {
                            world
                                .queue_cross_transfer(&f, &t, user, *amount)
                                .map(|_| ())
                        })
                    })
                }
                Action::WithholdCertificates => {
                    world.withhold_certificates = true;
                    Ok(())
                }
                Action::ResumeCertificates => {
                    world.withhold_certificates = false;
                    Ok(())
                }
                Action::WithholdCertificatesOn(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.withhold_certificates_for(&sc);
                }),
                Action::ResumeCertificatesOn(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.resume_certificates_for(&sc);
                }),
                Action::McFork(depth) => world.inject_mc_fork(*depth).map(|_| ()),
                Action::InjectShardPanic(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.inject_shard_panic(&sc);
                }),
                Action::PartitionOn(index) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.inject_partition(&sc)),
                Action::HealPartitionOn(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.heal_partition(&sc);
                }),
                Action::RelayEquivocateOn(index) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.inject_relay_equivocation(&sc).map(|_| ())),
                Action::HealRelayOn(index) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.heal_relay(&sc).map(|_| ())),
                Action::QualityWarOn(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.start_quality_war(&sc);
                }),
                Action::EndQualityWarOn(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.end_quality_war(&sc);
                }),
            };
            if result.is_err() {
                world.metrics.rejections += 1;
            }
        }
    }

    /// Runs `ticks` steps of `world`, firing scheduled actions before
    /// each tick's block is mined.
    ///
    /// Action failures are tolerated and counted in
    /// `world.metrics.rejections` (fault scenarios schedule actions that
    /// are *supposed* to fail); step failures abort.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from `World::step`.
    pub fn run(&self, world: &mut World, ticks: u64) -> Result<(), SimError> {
        for tick in 0..ticks {
            self.fire(world, tick);
            world.step()?;
        }
        Ok(())
    }
}
