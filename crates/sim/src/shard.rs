//! Per-sidechain shards: the unit of parallelism in the sharded
//! simulation world.
//!
//! Zendoo's decoupling claim (§1: the mainchain never executes
//! sidechain logic) makes the per-tick sidechain phase embarrassingly
//! parallel: each sidechain node only consumes the mined mainchain
//! block. A [`SidechainShard`] owns everything one sidechain needs for
//! that phase — the deployed [`ScInstance`], its fault flags and its
//! pending feed — and
//! [`SidechainShard::sync_and_certify`] performs one tick of work,
//! returning an ordered [`ShardEffects`] log instead of mutating any
//! coordinator state.
//!
//! The coordinator (`World::step`) applies effect logs in sidechain
//! **declaration order**, which is what makes a tick bit-identical for
//! every worker count: the only shard→coordinator channel is the
//! effect log, and its application order is fixed regardless of thread
//! scheduling. See `docs/SCENARIOS.md` and the "Concurrency model"
//! section of `ARCHITECTURE.md`.
//!
//! Shards also contain **panics**: a panicking shard is quarantined
//! (its sidechain stops syncing and certifying — from the mainchain's
//! point of view, exactly the liveness fault of Def 4.2, so the chain
//! eventually ceases) while the rest of the world keeps stepping.

use std::sync::Arc;
use std::time::Instant;

use zendoo_core::certificate::WithdrawalCertificate;
use zendoo_core::commitment::ScTxsCommitment;
use zendoo_core::ids::SidechainId;
use zendoo_latus::node::NodeError;
use zendoo_mainchain::Block;
use zendoo_primitives::opcount::{self, OpCount};
use zendoo_telemetry::Snapshot;

use crate::world::ScInstance;

/// A mainchain block as a shard receives it: the block and its sc-txs
/// commitment, built once by whoever delivers the block (the tick's
/// block builder, a fork's replacement branch) and shared by every
/// shard it reaches. Each node takes its own part of the commitment; no
/// shard rebuilds it.
#[derive(Clone, Debug)]
pub(crate) struct McDelivery {
    pub(crate) block: Block,
    pub(crate) commitment: Arc<ScTxsCommitment>,
}

/// The ordered effect log one shard produces for one tick. The
/// coordinator folds these into the global metrics and mempool in
/// declaration order, so the outcome is independent of which worker
/// thread ran which shard when.
#[derive(Debug)]
pub struct ShardEffects {
    /// The shard's sidechain.
    pub id: SidechainId,
    /// Sidechain blocks forged this tick (catch-up after a heal or a
    /// mainchain fork forges several: the whole backlog plus the feed).
    pub forged: u64,
    /// Certificates produced at the epoch boundaries crossed this
    /// tick, in epoch order, for the coordinator to queue on the
    /// mainchain.
    pub certificates: Vec<WithdrawalCertificate>,
    /// Epoch boundaries crossed with certification withheld (the
    /// scripted liveness fault).
    pub withheld: u64,
    /// Mainchain blocks buffered instead of synced this tick: the
    /// shard is partitioned from the mainchain or stuck on an
    /// equivocated sibling block.
    pub buffered: u64,
    /// Buffered canonical blocks replayed into the node this tick
    /// (non-zero on the first sync after a heal).
    pub replayed: u64,
    /// A contained panic payload; the shard quarantined itself.
    pub panicked: Option<String>,
    /// A node error (distinct from a panic: state was rolled back by
    /// the node itself).
    pub error: Option<NodeError>,
    /// Wall-clock nanoseconds this shard's tick took (feeds the
    /// `tick.shard.sync` / `tick.shard.critical` spans).
    pub nanos: u64,
    /// The shard-local telemetry recorded during this tick (present
    /// only when the world is recording). Shards never touch the
    /// world's [`zendoo_telemetry::Telemetry`] handle: the coordinator
    /// absorbs these snapshots into it in declaration order, so the
    /// aggregate is identical whichever worker thread ran which shard
    /// when.
    pub telemetry: Option<Snapshot>,
}

/// One sidechain's slice of the world: the deployed instance plus the
/// shard-local fault flags and pending feed. What a shard did is
/// counted once, in the world's [`crate::metrics::Metrics`], from the
/// [`ShardEffects`] it returns.
pub struct SidechainShard {
    pub(crate) instance: ScInstance,
    /// Per-chain withheld-certificate fault.
    pub(crate) withheld: bool,
    /// Set once a panic was contained; a quarantined shard no longer
    /// syncs or certifies (its chain will cease on the mainchain).
    pub(crate) quarantined: bool,
    /// Fault injection: panic on the next sync (before any node
    /// mutation, so the quarantined node state stays consistent).
    pub(crate) panic_next_sync: bool,
    /// Network-partition fault: while set, the shard receives no
    /// mainchain blocks (the coordinator's deliveries accumulate in
    /// `backlog`).
    pub(crate) partitioned: bool,
    /// Relay-equivocation fault: while `Some`, the node has adopted a
    /// sibling block from an equivocating relay and cannot extend the
    /// canonical chain (every canonical delivery would be
    /// non-contiguous). The anchor is the sibling's parent — the last
    /// canonical block both histories share — and the heal rolls the
    /// node back to it before replaying the backlog.
    pub(crate) diverged: Option<zendoo_primitives::digest::Digest32>,
    /// The shard's pending feed: canonical blocks withheld from the
    /// node while partitioned or diverged, replayed in order on the
    /// first sync after the heal. A shard with a non-empty backlog is
    /// simply behind; a mainchain fork drops the part it disconnected
    /// ([`SidechainShard::reorg`]). Each block keeps the commitment it
    /// was delivered with.
    pub(crate) backlog: Vec<McDelivery>,
    /// Adversarial-certifier fault: while set, every honest
    /// certificate this shard produces is raced on the mainchain by
    /// forged competitors the coordinator injects (see
    /// `World::start_quality_war`).
    pub(crate) quality_war: bool,
}

impl SidechainShard {
    pub(crate) fn new(instance: ScInstance) -> Self {
        SidechainShard {
            instance,
            withheld: false,
            quarantined: false,
            panic_next_sync: false,
            partitioned: false,
            diverged: None,
            backlog: Vec::new(),
            quality_war: false,
        }
    }

    /// The shard's sidechain id.
    pub fn id(&self) -> SidechainId {
        self.instance.id
    }

    /// The deployed sidechain instance.
    pub fn instance(&self) -> &ScInstance {
        &self.instance
    }

    /// Returns `true` once a contained panic quarantined this shard.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Returns `true` while the shard buffers its feed instead of
    /// syncing it: partitioned from the mainchain, or following an
    /// equivocated sibling block.
    pub(crate) fn stalled(&self) -> bool {
        self.partitioned || self.diverged.is_some()
    }

    /// Canonical blocks currently buffered, awaiting a heal.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Relay-equivocation fault: the node adopts `phantom` — a sibling
    /// of the canonical tip only this shard was shown — and diverges;
    /// the phantom's parent is the last block both histories share.
    pub(crate) fn adopt_phantom(&mut self, phantom: &McDelivery) -> Result<(), NodeError> {
        self.instance
            .node
            .sync_mainchain_block(&phantom.block, &phantom.commitment)?;
        self.diverged = Some(phantom.block.header.parent);
        Ok(())
    }

    /// Heals a relay equivocation: rolls the node back to the last
    /// canonical block it shares with the mainchain. Returns the number
    /// of SC blocks reverted (0 if the shard was not diverged).
    pub(crate) fn heal_relay(&mut self) -> Result<usize, NodeError> {
        let Some(base) = self.diverged.take() else {
            return Ok(0);
        };
        self.instance.node.rollback_to_mc(&base)
    }

    /// Mainchain-fork resolution (§5.1) for this shard, given the
    /// `disconnected` block hashes of a reorg onto a branch rooted at
    /// `fork_base`: the node rolls back to the fork base iff the
    /// canonical block it stands on was disconnected, and the
    /// disconnected part of the pending feed is dropped — the
    /// replacement branch arrives as the feed of the next
    /// [`SidechainShard::sync_and_certify`]. Returns the number of SC
    /// blocks reverted.
    pub(crate) fn reorg(
        &mut self,
        fork_base: &zendoo_primitives::digest::Digest32,
        disconnected: &[zendoo_primitives::digest::Digest32],
    ) -> Result<usize, NodeError> {
        // A diverged node stands on a phantom block; the canonical
        // block under it is the equivocation anchor.
        let stands_on = self.diverged.or_else(|| {
            let tip = self.instance.node.chain().last()?;
            tip.header.mc_ref_hashes.last().copied()
        });
        let mut reverted = 0;
        if stands_on.is_some_and(|hash| disconnected.contains(&hash)) {
            reverted = self.instance.node.rollback_to_mc(fork_base)?;
            // The rollback removed the phantom relay block along with
            // its anchor: the equivocation is resolved and the shard
            // resumes on its own.
            self.diverged = None;
        }
        self.backlog
            .retain(|delivery| !disconnected.contains(&delivery.block.hash()));
        Ok(reverted)
    }

    /// One tick of shard work: adopt the freshly mined mainchain
    /// blocks of `feed` (one per tick; a whole replacement branch after
    /// a mainchain fork), forge the corresponding sidechain blocks and
    /// — at every epoch boundary crossed — produce (or deliberately
    /// withhold) the withdrawal certificate. Panics are contained: the
    /// shard quarantines itself and reports the payload in
    /// [`ShardEffects::panicked`].
    ///
    /// A partitioned or diverged shard does no node work at all: the
    /// feed is buffered and the effects report it. The first sync after
    /// a heal replays the whole backlog before the feed — crossing
    /// every epoch boundary the shard missed, so late certificates are
    /// produced (and rejected by the mainchain if the submission window
    /// already closed: Def 4.2 ceasing is decided by the mainchain,
    /// never by the faulty shard).
    pub(crate) fn sync_and_certify(&mut self, feed: &[McDelivery], record: bool) -> ShardEffects {
        let start = Instant::now();
        let id = self.instance.id;
        let mut effects = ShardEffects {
            id,
            forged: 0,
            certificates: Vec::new(),
            withheld: 0,
            buffered: 0,
            replayed: 0,
            panicked: None,
            error: None,
            nanos: 0,
            telemetry: None,
        };
        let mut cost = SyncCost::default();
        if self.stalled() {
            self.backlog.extend_from_slice(feed);
            effects.buffered = feed.len() as u64;
        } else {
            let backlog = std::mem::take(&mut self.backlog);
            let replay = backlog.len() as u64;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.catch_up(&backlog, feed, &mut cost)
            }));
            match outcome {
                Ok(Ok((forged, certificates, withheld))) => {
                    effects.forged = forged;
                    effects.certificates = certificates;
                    effects.withheld = withheld;
                    effects.replayed = replay;
                }
                Ok(Err(error)) => {
                    effects.error = Some(error);
                }
                Err(payload) => {
                    self.quarantined = true;
                    effects.panicked = Some(panic_message(payload));
                }
            }
        }
        effects.nanos = start.elapsed().as_nanos() as u64;
        if record {
            let mut snapshot = Snapshot::default();
            snapshot.add_span("tick.shard.sync", effects.nanos);
            for (name, value) in [
                ("shard.blocks_buffered", effects.buffered),
                ("shard.sc_blocks_forged", effects.forged),
                (
                    "shard.certificates_produced",
                    effects.certificates.len() as u64,
                ),
                ("shard.certificates_withheld", effects.withheld),
                ("shard.blocks_replayed", effects.replayed),
                ("shard.panics", effects.panicked.is_some() as u64),
                ("shard.node_errors", effects.error.is_some() as u64),
            ] {
                if value > 0 {
                    snapshot.add_counter(name, value);
                }
            }
            cost.forge.record(&mut snapshot, "forge");
            cost.certify.record(&mut snapshot, "certify");
            effects.telemetry = Some(snapshot);
        }
        effects
    }

    /// Replays the healed backlog, then the feed, through
    /// [`SidechainShard::tick`], aggregating
    /// `(forged, certificates, withheld)` across every block and their
    /// cost into `cost`. On an
    /// error the partial work stays in the node (the node rolled its
    /// own state back for the failing block only) and the remaining
    /// blocks are dropped — the shard then stalls like any other
    /// liveness-faulty chain.
    #[allow(clippy::type_complexity)]
    fn catch_up(
        &mut self,
        backlog: &[McDelivery],
        feed: &[McDelivery],
        cost: &mut SyncCost,
    ) -> Result<(u64, Vec<WithdrawalCertificate>, u64), NodeError> {
        let mut forged = 0;
        let mut certificates = Vec::new();
        let mut withheld = 0;
        for delivery in backlog.iter().chain(feed) {
            let (certificate, w) = self.tick(delivery, cost)?;
            forged += 1;
            certificates.extend(certificate);
            if w {
                withheld += 1;
            }
        }
        Ok((forged, certificates, withheld))
    }

    /// The fallible per-block body `sync_and_certify` wraps with panic
    /// containment: sync one mainchain block (forging one sidechain
    /// block) and, if it closes a withdrawal epoch, certify it.
    /// Returns the certificate, or whether certification was withheld.
    fn tick(
        &mut self,
        delivery: &McDelivery,
        cost: &mut SyncCost,
    ) -> Result<(Option<WithdrawalCertificate>, bool), NodeError> {
        if self.panic_next_sync {
            self.panic_next_sync = false;
            panic!("injected shard fault on {}", self.instance.label);
        }
        let node = &mut self.instance.node;
        cost.forge
            .run(|| node.sync_mainchain_block(&delivery.block, &delivery.commitment))?;
        if !self.instance.node.epoch_complete() {
            return Ok((None, false));
        }
        if self.withheld {
            // The sidechain stops certifying entirely: a node that
            // never published its certificate cannot prove later
            // epochs either (the proof chain is broken) — exactly the
            // liveness fault Def 4.2 punishes with ceasing.
            return Ok((None, true));
        }
        let node = &mut self.instance.node;
        match cost.certify.run(|| node.produce_certificate()) {
            Ok(certificate) => Ok((Some(certificate), false)),
            // A certifier that cannot assemble this epoch's proof —
            // e.g. the previous certificate's inclusion was
            // disconnected by a reorg and never re-observed, so the
            // recursive proof chain is broken — publishes nothing and
            // the mainchain ceases the chain (Def 4.2). That is a
            // liveness fault of the Byzantine environment, not a
            // simulator error; only real proving failures propagate.
            Err(NodeError::Unavailable(_)) => Ok((None, true)),
            Err(error) => Err(error),
        }
    }
}

/// Where a shard's tick went, summed over every block of
/// [`SidechainShard::catch_up`]: forging (`sync_mainchain_block`) and
/// certifying (`produce_certificate`).
#[derive(Default)]
struct SyncCost {
    forge: PhaseCost,
    certify: PhaseCost,
}

#[derive(Default)]
struct PhaseCost {
    calls: u64,
    nanos: u64,
    ops: OpCount,
}

impl PhaseCost {
    fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let (out, ops) = opcount::measure(f);
        self.calls += 1;
        self.nanos += start.elapsed().as_nanos() as u64;
        self.ops = self.ops + ops;
        out
    }

    /// One `tick.shard.sync.<phase>` span and the whole `OpCount` as
    /// `latus.<phase>.{permutations,group_muls,fixed_base,variable_base,
    /// multi_scalar,sha_blocks,proof_checks}` counters (`group_muls` the
    /// sum of the three kinds after it). The counts are this lane's own (a shard runs on one
    /// thread), so they are the same on every worker count.
    fn record(&self, snapshot: &mut Snapshot, phase: &str) {
        if self.calls == 0 {
            return;
        }
        snapshot.add_span(&format!("tick.shard.sync.{phase}"), self.nanos);
        for (name, value) in [
            ("permutations", self.ops.permutations),
            ("group_muls", self.ops.group_muls),
            ("fixed_base", self.ops.fixed_base),
            ("variable_base", self.ops.variable_base),
            ("multi_scalar", self.ops.multi_scalar),
            ("sha_blocks", self.ops.sha_blocks),
            ("proof_checks", self.ops.proof_checks),
        ] {
            snapshot.add_counter(&format!("latus.{phase}.{name}"), value);
        }
    }
}

/// Renders a caught panic payload (the common `&str`/`String` cases).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "shard panicked with a non-string payload".to_string()
    }
}
