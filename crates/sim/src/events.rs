//! The one script of a simulated world.
//!
//! A [`Schedule`] maps ticks to [`Action`]s — transactions and the
//! faults the paper's safety argument must survive alike (partitions,
//! relay equivocations, certificate withholding, quality wars, forks,
//! shard crashes). [`Schedule::run`] drives a [`crate::world::World`]
//! one mainchain block per tick, firing the tick's actions *before* the
//! block is mined — so scheduled transactions land in that tick's
//! block — and auditing every value pool after it (see
//! [`crate::audit::ConservationAuditor`]).
//!
//! Schedules are data, so the same schedule replays bit-identically
//! under every [`crate::SimConfig::workers`] count — and
//! [`Schedule::with_random_faults`] layers arbitrarily composed faults
//! derived from a single seed, which the property tests print on
//! failure for exact reproduction.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::audit::{AuditViolation, ConservationAuditor};
use crate::world::{SimError, World};

/// One scripted action. Every per-chain variant names its sidechain by
/// position in [`crate::world::SimConfig::sidechain_labels`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// `ForwardTransferTo(sc_index, user, amount)` — queue an MC→SC
    /// transfer.
    ForwardTransferTo(usize, String, u64),
    /// `MalformedForwardTransferTo(sc_index, user, amount)` — a forward
    /// transfer with deliberately corrupted receiver metadata; the
    /// destination must refund it through the consensus-checked
    /// backward-transfer path — stranding it in the registry balance is
    /// the conservation bug
    /// [`crate::audit::ConservationAuditor::check_reconciled`] catches.
    MalformedForwardTransferTo(usize, String, u64),
    /// `ScPayOn(sc_index, from, to, amount)` — a sidechain payment.
    ScPayOn(usize, String, String, u64),
    /// `ScWithdrawOn(sc_index, user, amount)` — initiate an SC→MC
    /// withdrawal.
    ScWithdrawOn(usize, String, u64),
    /// `CrossTransfer(from_sc_index, to_sc_index, user, amount)` — a
    /// sidechain→sidechain transfer routed through the mainchain.
    CrossTransfer(usize, usize, String, u64),
    /// `WithholdCertificatesOn(sc_index)` — liveness fault: the chain
    /// produces but never submits certificates, and ceases (Def 4.2).
    WithholdCertificatesOn(usize),
    /// `ResumeCertificatesOn(sc_index)`.
    ResumeCertificatesOn(usize),
    /// Inject a mainchain fork of the given depth (a reorg).
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

impl Action {
    /// Performs this action on `world`. A refusal is tolerated and
    /// counted in `world.metrics.rejections`: fault scenarios schedule
    /// actions that are *supposed* to fail, and random schedules
    /// legitimately compose conflicting faults (e.g. partitioning an
    /// already-diverged shard) — the world refusing one is correct
    /// behaviour, not a run failure.
    pub fn fire(&self, world: &mut World) {
        let result = match self {
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

/// A scripted run's failure: either the world itself broke (a step
/// error) or — the interesting case — the auditor caught an invariant
/// violation.
#[derive(Debug)]
pub enum RunError {
    /// A world step failed.
    Sim(SimError),
    /// The conservation auditor found a violated invariant.
    Audit(AuditViolation),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation: {e}"),
            RunError::Audit(v) => write!(f, "audit: {v}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

impl From<AuditViolation> for RunError {
    fn from(v: AuditViolation) -> Self {
        RunError::Audit(v)
    }
}

/// A tick-indexed script of actions.
///
/// # Examples
///
/// ```
/// use zendoo_sim::{Action, Schedule};
///
/// let schedule = Schedule::new()
///     .at(0, Action::ForwardTransferTo(0, "alice".into(), 10_000))
///     .at(3, Action::PartitionOn(0))
///     .at(5, Action::HealPartitionOn(0));
/// assert_eq!(schedule.len(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    actions: BTreeMap<u64, Vec<Action>>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an action at `tick` (0-based; tick `t` fires before the
    /// `t`-th mined block, after the actions already scheduled there).
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

    /// Appends a random composition of faults derived from `seed`: two
    /// to four fault episodes spread over `ticks`, each a paired
    /// inject/heal window (partition, withhold, quality war, relay
    /// equivocation), a shallow fork (depth 1–3), or a
    /// malformed-metadata forward transfer (a one-shot deposit that must
    /// be refunded, never stranded). Appended after the schedule's own
    /// actions, each tick still fires its transactions first. Same seed,
    /// same schedule — property-test failures reproduce from the
    /// printed seed alone.
    pub fn with_random_faults(mut self, seed: u64, chains: usize, ticks: u64) -> Self {
        assert!(chains > 0, "at least one chain");
        assert!(ticks >= 8, "need at least 8 ticks for an episode");
        let mut rng = StdRng::seed_from_u64(seed);
        let episodes = 2 + rng.gen_range(0, 3);
        for _ in 0..episodes {
            let sc = rng.gen_range(0, chains as u64) as usize;
            let start = rng.gen_range(1, ticks - 4);
            let span = 1 + rng.gen_range(0, 3);
            let heal = (start + span).min(ticks - 1);
            let (inject, end) = match rng.gen_range(0, 6) {
                0 => (Action::PartitionOn(sc), Some(Action::HealPartitionOn(sc))),
                1 => (
                    Action::WithholdCertificatesOn(sc),
                    Some(Action::ResumeCertificatesOn(sc)),
                ),
                2 => (Action::QualityWarOn(sc), Some(Action::EndQualityWarOn(sc))),
                3 => (Action::RelayEquivocateOn(sc), Some(Action::HealRelayOn(sc))),
                4 => (Action::McFork(1 + rng.gen_range(0, 3)), None),
                _ => (
                    Action::MalformedForwardTransferTo(sc, "alice".into(), 1_000),
                    None,
                ),
            };
            self = self.at(start, inject);
            if let Some(end) = end {
                self = self.at(heal, end);
            }
        }
        self
    }

    /// Fires this schedule's actions for one tick, in insertion order,
    /// without stepping the world (see [`Action::fire`]).
    pub fn fire(&self, world: &mut World, tick: u64) {
        for action in self.actions.get(&tick).into_iter().flatten() {
            action.fire(world);
        }
    }

    /// Runs `ticks` steps of `world`: each tick fires its actions, steps
    /// one block, and has a fresh [`ConservationAuditor`] check every
    /// invariant. Returns that auditor, which observed every tick.
    ///
    /// Action refusals are tolerated and counted in
    /// `world.metrics.rejections` (see [`Action::fire`]).
    ///
    /// # Errors
    ///
    /// [`RunError::Sim`] when a step fails; [`RunError::Audit`] the
    /// moment an invariant breaks.
    pub fn run(&self, world: &mut World, ticks: u64) -> Result<ConservationAuditor, RunError> {
        let mut auditor = ConservationAuditor::new();
        for tick in 0..ticks {
            self.fire(world, tick);
            world.step()?;
            auditor.observe(world)?;
        }
        Ok(auditor)
    }
}
