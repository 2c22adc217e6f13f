//! Conservation auditing for composed Byzantine scenarios.
//!
//! A [`ConservationAuditor`] snapshots every value pool in the system —
//! mainchain UTXOs (escrowed value broken out), registry-locked
//! sidechain balances, router-pending transfers and the sidechains' own
//! ledgers — once per tick, and asserts the end-to-end invariants the
//! paper's construction promises under *any* fault mix:
//!
//! 1. **Conservation** — spendable UTXO value plus registry-locked value
//!    equals net minted coins, every tick (escrowed in-flight value is
//!    itself a UTXO, so it is covered).
//! 2. **Safeguard** — no sidechain's on-ledger value exceeds the balance
//!    the mainchain holds for it (paper §3: a sidechain cannot withdraw
//!    more than was transferred to it).
//! 3. **Exactly-once settlement** — per transfer nullifier, at most one
//!    `Delivered` and at most one `Refunded` receipt, never both: a
//!    refund is final and a delivery is final, across partitions, forks
//!    and replays.
//! 4. **Quality-war integrity** — no forged competing certificate (see
//!    [`crate::world::World::start_quality_war`]) is ever accepted into
//!    the registry.
//!
//! Snapshots are pure functions of world state, so two worlds that are
//! bit-identical (e.g. stepped on one lane vs four) produce equal
//! snapshot streams — the Byzantine determinism tests compare them
//! directly.

use std::collections::BTreeMap;

use zendoo_core::crosschain::DeliveryStatus;
use zendoo_core::ids::{Amount, Nullifier};
use zendoo_primitives::digest::Digest32;

use crate::world::World;

/// One per-tick snapshot of every value pool in the system. Pure state
/// — comparable across step/verify modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditSnapshot {
    /// Observation index (0-based count of `observe` calls).
    pub tick: u64,
    /// Mainchain height at observation time.
    pub mc_height: u64,
    /// Net minted coins (subsidies minus burns).
    pub minted: Amount,
    /// Total value of the mainchain UTXO set.
    pub utxo_value: Amount,
    /// The escrow-kind subset of `utxo_value` (cross-chain value in
    /// flight between certificate maturation and settlement).
    pub escrow_value: Amount,
    /// Sidechain balances locked in the registry.
    pub locked_value: Amount,
    /// Value of transfers queued in the router's maturity windows.
    pub router_pending_value: Amount,
    /// Sum of all non-quarantined sidechain ledgers.
    pub sidechain_value: Amount,
}

/// An invariant the auditor found violated (the audit's hard failure —
/// scenarios propagate it as a test failure, property tests shrink on
/// it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// UTXO value plus locked value drifted from net minted coins.
    Conservation {
        /// Observation index of the failing tick.
        tick: u64,
        /// Total UTXO value at that tick.
        utxo_value: Amount,
        /// Registry-locked value at that tick.
        locked_value: Amount,
        /// Net minted coins at that tick.
        minted: Amount,
    },
    /// A sidechain's on-ledger value exceeds its mainchain balance.
    Safeguard {
        /// The offending sidechain (display form).
        chain: String,
        /// Value on the sidechain's own ledger.
        on_chain: Amount,
        /// Balance the mainchain holds for it.
        locked: Amount,
    },
    /// A transfer nullifier settled more than once (two deliveries, two
    /// refunds, or one of each).
    DoubleSettlement {
        /// The nullifier with conflicting terminal receipts.
        nullifier: Nullifier,
        /// `Delivered` receipts observed for it.
        delivered: u32,
        /// `Refunded` receipts observed for it.
        refunded: u32,
    },
    /// At quiescence, a sidechain's registry balance exceeds its
    /// on-ledger value: mainchain-side value with no sidechain claimant
    /// (the malformed-FT stranding bug).
    Stranded {
        /// The offending sidechain (display form).
        chain: String,
        /// Balance the mainchain holds for it.
        locked: Amount,
        /// Value on the sidechain's own ledger.
        on_chain: Amount,
    },
    /// A forged quality-war certificate was accepted into the registry.
    ForgedWinner {
        /// The sidechain whose epoch was won by a forgery.
        chain: String,
        /// The epoch in question.
        epoch: u32,
        /// Digest of the accepted forged certificate.
        digest: Digest32,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::Conservation {
                tick,
                utxo_value,
                locked_value,
                minted,
            } => write!(
                f,
                "conservation violated at tick {tick}: utxo {utxo_value} + locked \
                 {locked_value} != minted {minted}"
            ),
            AuditViolation::Safeguard {
                chain,
                on_chain,
                locked,
            } => write!(
                f,
                "safeguard violated on {chain}: on-chain value {on_chain} exceeds \
                 locked balance {locked}"
            ),
            AuditViolation::DoubleSettlement {
                nullifier,
                delivered,
                refunded,
            } => write!(
                f,
                "nullifier {:?} settled more than once (delivered {delivered}, \
                 refunded {refunded})",
                nullifier
            ),
            AuditViolation::Stranded {
                chain,
                locked,
                on_chain,
            } => write!(
                f,
                "stranded value on {chain}: locked balance {locked} exceeds on-chain \
                 value {on_chain} at quiescence"
            ),
            AuditViolation::ForgedWinner {
                chain,
                epoch,
                digest,
            } => write!(
                f,
                "forged certificate {digest:?} accepted for {chain} epoch {epoch}"
            ),
        }
    }
}

impl std::error::Error for AuditViolation {}

/// Snapshots world value pools every tick and asserts the conservation,
/// safeguard, exactly-once-settlement and quality-war invariants (see
/// the module docs).
///
/// # Examples
///
/// ```
/// use zendoo_sim::{ConservationAuditor, SimConfig, World};
///
/// let mut world = World::new(SimConfig::default());
/// let mut auditor = ConservationAuditor::new();
/// for _ in 0..4 {
///     world.step().unwrap();
///     auditor.observe(&world).unwrap();
/// }
/// assert_eq!(auditor.snapshots().len(), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ConservationAuditor {
    snapshots: Vec<AuditSnapshot>,
    checks: u64,
}

impl ConservationAuditor {
    /// A fresh auditor with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots `world` and checks every invariant, returning the
    /// recorded snapshot. Emits `sim.audit.*` telemetry (a
    /// `sim.audit.scan` span plus `sim.audit.ticks` /
    /// `sim.audit.violations` counters) when the world records.
    ///
    /// # Errors
    ///
    /// The first [`AuditViolation`] found, if any (the snapshot is still
    /// recorded, so a failing history remains inspectable).
    pub fn observe(&mut self, world: &World) -> Result<&AuditSnapshot, AuditViolation> {
        let started = std::time::Instant::now();
        let snapshot = self.snapshot(world);
        self.snapshots.push(snapshot);
        let result = self.check(world);
        world.telemetry().counter("sim.audit.ticks", 1);
        if result.is_err() {
            world.telemetry().counter("sim.audit.violations", 1);
        }
        world
            .telemetry()
            .span_nanos("sim.audit.scan", started.elapsed().as_nanos() as u64);
        result?;
        Ok(self.snapshots.last().expect("just pushed"))
    }

    /// Every snapshot recorded so far, in observation order.
    pub fn snapshots(&self) -> &[AuditSnapshot] {
        &self.snapshots
    }

    /// The most recent snapshot, if any.
    pub fn last(&self) -> Option<&AuditSnapshot> {
        self.snapshots.last()
    }

    /// Total invariant checks performed across all observations.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Quiescence reconciliation: once the system has drained (run a
    /// few fault-free epochs so settlement windows close, certificates
    /// mature and healed shards replay their backlog), every healthy
    /// *active* sidechain's registry balance must exactly equal its
    /// on-ledger value. Any excess is value stranded on the mainchain
    /// side with no sidechain claimant — exactly what the historic
    /// malformed-FT bug produced, which the per-tick safeguard
    /// (`on_chain <= locked`) can never see. Ceased chains are skipped
    /// (their balance legitimately awaits ceased-sidechain
    /// withdrawals), as are quarantined and still-stalled shards (no
    /// guarantee the node state is caught up).
    ///
    /// # Errors
    ///
    /// [`AuditViolation::Stranded`] naming the first chain whose locked
    /// balance and ledger disagree in either direction.
    pub fn check_reconciled(&mut self, world: &World) -> Result<(), AuditViolation> {
        let state = world.chain.state();
        for id in world.sidechain_ids() {
            let Some(shard) = world.shard(id) else {
                continue;
            };
            if shard.quarantined || shard.stalled() {
                continue;
            }
            let Some(entry) = state.registry.get(id) else {
                continue;
            };
            if entry.status != zendoo_mainchain::SidechainStatus::Active {
                continue;
            }
            self.checks += 1;
            let on_chain = shard.instance.node.state().total_value();
            if entry.balance != on_chain {
                return Err(AuditViolation::Stranded {
                    chain: id.to_string(),
                    locked: entry.balance,
                    on_chain,
                });
            }
        }
        Ok(())
    }

    fn snapshot(&self, world: &World) -> AuditSnapshot {
        let state = world.chain.state();
        let escrow_value = Amount::checked_sum(
            state
                .utxos
                .iter()
                .filter(|(_, out)| out.is_escrow())
                .map(|(_, out)| out.amount),
        )
        .expect("escrowed value fits in u64");
        let sidechain_value = world
            .sidechain_ids()
            .iter()
            .filter_map(|id| world.shard(id))
            .filter(|shard| !shard.quarantined)
            .fold(Amount::ZERO, |sum, shard| {
                sum.checked_add(shard.instance.node.state().total_value())
                    .expect("sidechain value fits in u64")
            });
        AuditSnapshot {
            tick: self.snapshots.len() as u64,
            mc_height: world.chain.height(),
            minted: state.minted,
            utxo_value: state.utxos.total_value(),
            escrow_value,
            locked_value: state.registry.total_locked(),
            router_pending_value: world.router.pending_value(),
            sidechain_value,
        }
    }

    fn check(&mut self, world: &World) -> Result<(), AuditViolation> {
        let snapshot = self.snapshots.last().expect("snapshot recorded").clone();
        let state = world.chain.state();

        // 1. Conservation: nothing minted disappears, nothing appears
        //    unminted — under any fault mix.
        self.checks += 1;
        if snapshot.utxo_value.checked_add(snapshot.locked_value) != Some(snapshot.minted) {
            return Err(AuditViolation::Conservation {
                tick: snapshot.tick,
                utxo_value: snapshot.utxo_value,
                locked_value: snapshot.locked_value,
                minted: snapshot.minted,
            });
        }

        // 2. Per-chain safeguard. Quarantined shards are skipped (a
        //    contained panic leaves no guarantee about the node's
        //    in-memory state; the mainchain side is still audited
        //    above).
        for id in world.sidechain_ids() {
            let Some(shard) = world.shard(id) else {
                continue;
            };
            if shard.quarantined {
                continue;
            }
            self.checks += 1;
            let on_chain = shard.instance.node.state().total_value();
            let locked = state
                .registry
                .get(id)
                .map(|entry| entry.balance)
                .unwrap_or(Amount::ZERO);
            if on_chain > locked {
                return Err(AuditViolation::Safeguard {
                    chain: id.to_string(),
                    on_chain,
                    locked,
                });
            }
        }

        // 3. Exactly-once settlement per nullifier. The router rewinds
        //    its receipt stream with the chain on reorgs, so receipts
        //    visible here are all on the active branch: any duplicate
        //    terminal is a real double-settlement.
        let mut terminals: BTreeMap<Nullifier, (u32, u32)> = BTreeMap::new();
        for receipt in world.router.receipts() {
            let entry = terminals.entry(receipt.transfer.nullifier).or_default();
            match receipt.status {
                DeliveryStatus::Delivered { .. } => entry.0 += 1,
                DeliveryStatus::Refunded { .. } => entry.1 += 1,
                _ => {}
            }
        }
        for (nullifier, (delivered, refunded)) in terminals {
            self.checks += 1;
            if delivered + refunded > 1 {
                return Err(AuditViolation::DoubleSettlement {
                    nullifier,
                    delivered,
                    refunded,
                });
            }
        }

        // 4. Quality wars never crown a forgery: every accepted
        //    certificate must be absent from the forged-digest ledger.
        let forged = world.forged_certificate_digests();
        if !forged.is_empty() {
            for (id, entry) in state.registry.iter() {
                for (epoch, accepted) in &entry.certificates {
                    self.checks += 1;
                    let digest = accepted.certificate.digest();
                    if forged.contains(&digest) {
                        return Err(AuditViolation::ForgedWinner {
                            chain: id.to_string(),
                            epoch: *epoch,
                            digest,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}
