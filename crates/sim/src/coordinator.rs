//! The mainchain-side coordinator: drives one simulation tick.
//!
//! There is one tick, and it performs these phases —
//!
//! 1. pool the settlement of every live escrow
//!    (`zendoo_crosschain::settlement_transactions`, read off the chain
//!    state),
//! 2. build, mine and connect the next mainchain block in one walk
//!    (`Miner::mine`, `Blockchain::mine_next`), so each proof is
//!    verified once per node,
//! 3. hand the connected block to every sidechain shard (sync +
//!    certify) while the router reads its settlements,
//! 4. fold shard effect logs and the receipts read off the block into
//!    the metrics.
//!
//! In phase 3 the shards run on `SimConfig::workers` scoped worker
//! lanes (`std::thread::scope`, as in `zendoo_snark::batch`) while the
//! coordinator thread has the router observe the block. With one lane
//! the same work runs as an in-thread sequential loop — the determinism
//! reference.
//!
//! Determinism contract: shard work communicates only through ordered
//! [`ShardEffects`] logs, applied in sidechain declaration order, so a
//! tick is bit-identical for every worker count
//! (`crates/sim/tests/determinism.rs` enforces this). On a `NodeError`
//! the remaining shards still complete before the first error, in
//! declaration order, is reported.

use std::time::Instant;

use zendoo_core::ids::SidechainId;
use zendoo_crosschain::settlement_transactions;
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::MinedBlock;
use zendoo_telemetry::Telemetry;

use crate::shard::{McDelivery, ShardEffects, SidechainShard};
use crate::world::{SimError, World};

/// The tick's prologue: bump time and pool the settlement of every
/// live escrow, read off the chain state.
fn prologue(world: &mut World) {
    world.time += 1;
    for tx in settlement_transactions(&world.chain) {
        // Consensus-assembled escrow claims: zero-fee, but classed as
        // settlements by the pool, so no fee-paying flood can evict or
        // outrank them.
        world.queue_mc_tx(tx);
    }
}

/// How many worker lanes `SimConfig::workers` asks for: its value, or
/// one per core.
pub(crate) fn lanes(workers: Option<usize>) -> usize {
    workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Folds one shard's effect log into the coordinator state. Returns
/// the shard's error, if any.
///
/// The tick (and `World::inject_mc_fork`, for the replacement branch)
/// invokes this in sidechain declaration order, so absorbing the
/// shard-local telemetry snapshot here keeps the aggregate independent
/// of worker-thread scheduling.
pub(crate) fn apply_effects(world: &mut World, effects: ShardEffects) -> Option<SimError> {
    if let Some(snapshot) = &effects.telemetry {
        world.telemetry.absorb(snapshot);
    }
    world.metrics.sc_blocks += effects.forged;
    world.metrics.blocks_buffered += effects.buffered;
    world.metrics.blocks_replayed += effects.replayed;
    let quality_war = world
        .shards
        .get(&effects.id)
        .is_some_and(|shard| shard.quality_war);
    for cert in effects.certificates {
        world.metrics.certificates_produced += 1;
        if quality_war {
            // The adversarial certifier races the honest certificate:
            // a forged higher-quality competitor front-runs it in the
            // pool (and a stale replay trails it). Both are rejected
            // by consensus — the front-runner's proof no longer
            // matches its inflated statement, the replay loses the
            // strictly-increasing-quality rule — which is exactly the
            // quality-war safety argument the scenario audits.
            world.pool_forged_competitor(&cert, 1);
            world.queue_mc_tx(McTransaction::Certificate(Box::new(cert.clone())));
            world.pool_forged_competitor(&cert, -1);
        } else {
            world.queue_mc_tx(McTransaction::Certificate(Box::new(cert)));
        }
    }
    world.metrics.certificates_withheld += effects.withheld;
    if effects.panicked.is_some() {
        world.metrics.shard_panics += 1;
    }
    effects.error.map(SimError::Node)
}

/// One tick. All wall-clock accounting flows through
/// [`Telemetry::time`] (which measures unconditionally and records a
/// span only when the world is recording), so every consumer of
/// per-tick timing reads one clock: the `tick` / `tick.coordinator` /
/// `tick.shard.*` spans. See [`tick`] for the phase spans.
pub(crate) fn step(world: &mut World) -> Result<(), SimError> {
    let telemetry = world.telemetry.clone();
    let (outcome, _total_nanos) = telemetry.time("tick", || tick(world, &telemetry));
    // A block that failed to mine records no coordinator span; a shard
    // error still does (the effect fold ran).
    let (coordinator_nanos, shard_nanos, first_error) = outcome?;
    telemetry.span_nanos("tick.coordinator", coordinator_nanos);
    // The shard critical path — the slowest shard's wall time, i.e.
    // what the shard phase costs a machine with at least one core per
    // sidechain. Together with `tick.coordinator` this lets the
    // work/span model be read straight off a telemetry snapshot:
    // `work = Σ tick.coordinator + Σ tick.shard.sync`,
    // `span = Σ tick.coordinator + Σ tick.shard.critical`. What this
    // machine's lanes took, shards run back to back, is `tick.lanes`
    // (recorded by `tick`): the part of `tick` the router's observe
    // overlaps.
    let critical = shard_nanos.iter().copied().max().unwrap_or(0);
    telemetry.span_nanos("tick.shard.critical", critical);
    match first_error {
        Some(error) => Err(error),
        None => Ok(()),
    }
}

/// The phase outcome of one tick: coordinator-critical-path
/// nanoseconds, per-shard nanoseconds in declaration order and the first
/// shard error (if any).
type TickOutcome = (u64, Vec<u64>, Option<SimError>);

/// One worker lane's share of the shard phase: live shards, each paired
/// with its declaration index (effects are re-ordered by it afterwards).
type Lane<'a> = Vec<(usize, &'a mut SidechainShard)>;

/// Walks one lane in order, returning its shards' effects and the
/// lane's wall time since `start` (its spawn, when it has a thread of
/// its own). Shard panics are contained inside `sync_and_certify`; a
/// lane itself never panics.
fn run_lane(
    lane: Lane<'_>,
    feed: &[McDelivery],
    record: bool,
    start: Instant,
) -> (Vec<(usize, ShardEffects)>, u64) {
    let effects = lane
        .into_iter()
        .map(|(index, shard)| (index, shard.sync_and_certify(feed, record)))
        .collect();
    (effects, start.elapsed().as_nanos() as u64)
}

/// The tick body. Errors returned here are failures to mine the block
/// (no timing recorded); shard failures are reported inside the tuple so
/// the caller can record timing first.
fn tick(world: &mut World, telemetry: &Telemetry) -> Result<TickOutcome, SimError> {
    // Everything before the worker scope is coordinator critical path
    // (the prologue's settlement included).
    let ((), prologue_nanos) = telemetry.time("tick.prologue", || prologue(world));

    // The miner drains its pool into the block builder as *admitted*
    // candidates: every entry passed stage-1 precheck on its way in
    // (`World::queue_mc_tx` / `World::admit_mc_batch`), so the builder
    // skips the redundant re-run (`mc.precheck.skipped`), and any
    // admission-time signature verdicts ride along so its walk
    // re-verifies nothing. That walk connects the block. Rejected
    // candidates are counted, not fatal (fault scenarios schedule
    // actions that are *supposed* to fail).
    let (mined, prepare_nanos) = telemetry.time("tick.mc.prepare", || {
        world.miner.mine(&mut world.chain, world.time)
    });
    let MinedBlock {
        block,
        commitment,
        rejected,
    } = mined?;
    world.metrics.mc_blocks += 1;
    // Telemetry-side rejection counters were already bumped once per
    // rejected candidate inside the walk; only the sim-level metrics are
    // folded here.
    for (tx, _) in &rejected {
        world
            .metrics
            .note_rejection(matches!(tx, McTransaction::Certificate(_)));
    }
    for tx in &block.transactions {
        match tx {
            McTransaction::Certificate(_) => world.metrics.certificates_accepted += 1,
            McTransaction::Btr(_) => world.metrics.btrs_accepted += 1,
            McTransaction::Csw(_) => world.metrics.csws_accepted += 1,
            _ => {}
        }
    }
    let record = telemetry.is_enabled();

    // Split borrows: the scope below hands each worker lane disjoint
    // `&mut SidechainShard`s while the coordinator thread drives the
    // chain + router.
    let World {
        chain,
        router,
        shards,
        order,
        workers,
        ..
    } = world;
    let workers = *workers;

    // Live shards in declaration order.
    let mut by_id: std::collections::BTreeMap<SidechainId, &mut SidechainShard> =
        shards.iter_mut().map(|(id, shard)| (*id, shard)).collect();
    let mut work: Lane<'_> = Vec::new();
    for (index, id) in order.iter().enumerate() {
        let shard = by_id.remove(id).expect("declared");
        if shard.quarantined {
            continue;
        }
        work.push((index, shard));
    }
    let live = work.len();

    let workers = lanes(workers).clamp(1, live.max(1));

    // Every lane gets the connected block with the sc-txs commitment
    // its builder already built: the one build for all shards. The
    // coordinator's own critical path through the shard phase: the
    // router reads the block's settlements.
    let delivery = McDelivery { block, commitment };
    let block_ref = &delivery.block;
    let feed = std::slice::from_ref(&delivery);
    let mut observe = || {
        telemetry
            .time("tick.mc.submit", || router.observe_block(chain, block_ref))
            .1
    };

    // `lanes_nanos`: the slowest lane's wall time, its shards back to
    // back (`tick.lanes`).
    let (mut indexed_effects, mc_tail_nanos, lanes_nanos) = if workers <= 1 {
        // One lane: observe first, then walk the shards in order on this
        // thread (identical outcomes, no spawn cost).
        let tail = observe();
        let (effects, lane_nanos) = run_lane(work, feed, record, Instant::now());
        (effects, tail, lane_nanos)
    } else {
        // Round-robin the shards over `workers` lanes; the coordinator
        // thread has the router observe the block while the lanes sync.
        let mut lanes: Vec<Lane<'_>> = (0..workers).map(|_| Vec::new()).collect();
        for (slot, item) in work.into_iter().enumerate() {
            lanes[slot % workers].push(item);
        }
        let spawned = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|lane| scope.spawn(move || run_lane(lane, feed, record, spawned)))
                .collect();
            let tail = observe();
            let mut effects = Vec::with_capacity(live);
            let mut slowest = 0;
            for handle in handles {
                let (lane, lane_nanos) = handle.join().expect("worker lane panicked");
                effects.extend(lane);
                slowest = slowest.max(lane_nanos);
            }
            (effects, tail, slowest)
        })
    };
    telemetry.span_nanos("tick.lanes", lanes_nanos);

    // Apply effect logs in declaration order — the determinism
    // contract's single ordered channel, so contained panics and
    // produced certificates are never silently dropped. The fold is
    // coordinator work too: it counts toward the critical path the
    // work/span model reports.
    let ((shard_nanos, first_error), fold_nanos) = telemetry.time("tick.fold", || {
        indexed_effects.sort_by_key(|(index, _)| *index);
        let mut shard_nanos = Vec::with_capacity(indexed_effects.len());
        let mut first_error = None;
        for (_, effects) in indexed_effects {
            shard_nanos.push(effects.nanos);
            let error = apply_effects(world, effects);
            if first_error.is_none() {
                first_error = error;
            }
        }
        world.sync_cross_metrics();
        (shard_nanos, first_error)
    });
    Ok((
        prologue_nanos + prepare_nanos + mc_tail_nanos + fold_nanos,
        shard_nanos,
        first_error,
    ))
}
