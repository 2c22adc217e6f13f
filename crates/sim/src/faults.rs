//! Composable Byzantine fault plans.
//!
//! A [`FaultPlan`] is a deterministic, tick-indexed script of
//! [`Fault`]s — partitions, relay equivocations, certificate
//! withholding, quality wars, fork storms and shard crashes — layered
//! on top of a transaction [`crate::Schedule`]. [`FaultPlan::run`]
//! drives a [`crate::world::World`] one block per tick, firing the
//! schedule's transactions and the plan's faults before each block and
//! auditing every value pool after it (see
//! [`crate::audit::ConservationAuditor`]).
//!
//! Plans are data, so the same plan replays bit-identically under
//! every [`crate::SimConfig::workers`] count and
//! [`zendoo_mainchain::VerifyMode`] —
//! and [`FaultPlan::random`] derives arbitrarily composed plans from a
//! single seed, which the property tests print on failure for exact
//! reproduction.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::audit::{AuditViolation, ConservationAuditor};
use crate::events::Schedule;
use crate::world::{SimError, World};

/// One injectable fault. Indexed variants name a sidechain by its
/// position in [`crate::world::SimConfig::sidechain_labels`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Cut sidechain `sc_index` off from the mainchain (blocks buffer).
    Partition(usize),
    /// Reconnect a partitioned sidechain (backlog replays next sync).
    HealPartition(usize),
    /// Produce but never submit certificates on one sidechain.
    Withhold(usize),
    /// Resume certificate submission on one sidechain.
    Resume(usize),
    /// Inject a mainchain fork of the given depth (a reorg).
    Reorg(u64),
    /// Surround each honest certificate of one sidechain with forged
    /// competitors claiming adjacent quality.
    QualityWar(usize),
    /// End the quality war on one sidechain.
    EndQualityWar(usize),
    /// Feed one sidechain a phantom mainchain block via a faulty relay.
    RelayEquivocate(usize),
    /// Roll a relay-diverged sidechain back onto the canonical chain.
    HealRelay(usize),
    /// Crash one sidechain's shard at its next sync (quarantined;
    /// the chain then ceases like any liveness fault).
    ShardPanic(usize),
    /// Queue a forward transfer with corrupted (malformed) receiver
    /// metadata into sidechain `sc_index`, funded by the default
    /// genesis user `alice`. The destination must refund the amount via
    /// the consensus-checked backward-transfer path — stranding it in
    /// the registry balance is the conservation bug
    /// [`crate::audit::ConservationAuditor::check_reconciled`] catches.
    MalformedFt(usize),
}

/// A composed-fault run failure: either the world itself broke (a step
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

/// A deterministic tick-indexed script of [`Fault`]s.
///
/// # Examples
///
/// ```
/// use zendoo_sim::{Fault, FaultPlan};
///
/// let plan = FaultPlan::new(7)
///     .at(3, Fault::Partition(0))
///     .at(5, Fault::HealPartition(0));
/// assert_eq!(plan.fault_count(), 2);
/// assert_eq!(plan.seed(), 7);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: BTreeMap<u64, Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan carrying a seed label (printed by property tests
    /// for reproduction; hand-written plans can pass anything).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: BTreeMap::new(),
        }
    }

    /// The seed this plan was derived from (or labelled with).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a fault at `tick` (0-based; fires before the `tick`-th
    /// mined block, after the schedule's transactions).
    pub fn at(mut self, tick: u64, fault: Fault) -> Self {
        self.faults.entry(tick).or_default().push(fault);
        self
    }

    /// The faults scheduled for `tick`, in insertion order.
    pub fn faults_at(&self, tick: u64) -> &[Fault] {
        self.faults.get(&tick).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of scheduled faults.
    pub fn fault_count(&self) -> usize {
        self.faults.values().map(Vec::len).sum()
    }

    /// Returns `true` when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Derives a random composed plan from `seed`: two to four fault
    /// episodes spread over `ticks`, each a paired inject/heal window
    /// (partition, withhold, quality war, relay equivocation), a
    /// shallow fork (depth 1–3), or a malformed-metadata forward
    /// transfer (a one-shot deposit that must be refunded, never
    /// stranded). Same seed, same plan — property-test failures
    /// reproduce from the printed seed alone.
    pub fn random(seed: u64, chains: usize, ticks: u64) -> Self {
        assert!(chains > 0, "at least one chain");
        assert!(ticks >= 8, "need at least 8 ticks for an episode");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new(seed);
        let episodes = 2 + rng.gen_range(0, 3);
        for _ in 0..episodes {
            let sc = rng.gen_range(0, chains as u64) as usize;
            let start = rng.gen_range(1, ticks - 4);
            let span = 1 + rng.gen_range(0, 3);
            let heal = (start + span).min(ticks - 1);
            match rng.gen_range(0, 6) {
                0 => {
                    plan = plan
                        .at(start, Fault::Partition(sc))
                        .at(heal, Fault::HealPartition(sc));
                }
                1 => {
                    plan = plan
                        .at(start, Fault::Withhold(sc))
                        .at(heal, Fault::Resume(sc));
                }
                2 => {
                    plan = plan
                        .at(start, Fault::QualityWar(sc))
                        .at(heal, Fault::EndQualityWar(sc));
                }
                3 => {
                    plan = plan
                        .at(start, Fault::RelayEquivocate(sc))
                        .at(heal, Fault::HealRelay(sc));
                }
                4 => {
                    let depth = 1 + rng.gen_range(0, 3);
                    plan = plan.at(start, Fault::Reorg(depth));
                }
                _ => {
                    plan = plan.at(start, Fault::MalformedFt(sc));
                }
            }
        }
        plan
    }

    /// Fires this plan's faults for one tick. Injection failures are
    /// tolerated and counted in `world.metrics.rejections` — random
    /// plans legitimately compose conflicting faults (e.g. partitioning
    /// an already-diverged shard), and the world refusing one is
    /// correct behaviour, not a run failure.
    pub fn inject(&self, world: &mut World, tick: u64) {
        for fault in self.faults_at(tick) {
            let result = match fault {
                Fault::Partition(index) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.inject_partition(&sc)),
                Fault::HealPartition(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.heal_partition(&sc);
                }),
                Fault::Withhold(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.withhold_certificates_for(&sc);
                }),
                Fault::Resume(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.resume_certificates_for(&sc);
                }),
                Fault::Reorg(depth) => world.inject_mc_fork(*depth).map(|_| ()),
                Fault::QualityWar(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.start_quality_war(&sc);
                }),
                Fault::EndQualityWar(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.end_quality_war(&sc);
                }),
                Fault::RelayEquivocate(index) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.inject_relay_equivocation(&sc).map(|_| ())),
                Fault::HealRelay(index) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.heal_relay(&sc).map(|_| ())),
                Fault::ShardPanic(index) => world.sidechain_id_at(*index).map(|sc| {
                    world.inject_shard_panic(&sc);
                }),
                Fault::MalformedFt(index) => world
                    .sidechain_id_at(*index)
                    .and_then(|sc| world.queue_malformed_forward_transfer_on(&sc, "alice", 1_000)),
            };
            if result.is_err() {
                world.metrics.rejections += 1;
            }
        }
    }

    /// Runs `ticks` steps of `world`: each tick fires the schedule's
    /// transactions, then this plan's faults, steps one block, and has
    /// `auditor` check every invariant.
    ///
    /// # Errors
    ///
    /// [`RunError::Sim`] when a step fails; [`RunError::Audit`] the
    /// moment an invariant breaks.
    pub fn run(
        &self,
        world: &mut World,
        schedule: &Schedule,
        ticks: u64,
        auditor: &mut ConservationAuditor,
    ) -> Result<(), RunError> {
        for tick in 0..ticks {
            schedule.fire(world, tick);
            self.inject(world, tick);
            world.step()?;
            auditor.observe(world)?;
        }
        Ok(())
    }
}
