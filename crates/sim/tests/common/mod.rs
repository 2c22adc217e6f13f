//! Shared by the determinism suites (`determinism.rs`, `byzantine.rs`,
//! `fault_props.rs`, `load_determinism.rs`).

use zendoo_mainchain::Blockchain;
use zendoo_sim::World;
use zendoo_store::chain_state_digest;
use zendoo_telemetry::{Snapshot, Telemetry};

/// Every worker count a world must be bit-identical across; the first —
/// one lane, the in-thread sequential loop — is the reference.
#[allow(dead_code)] // not every suite walks the whole matrix
pub const MATRIX: [Option<usize>; 5] = [Some(1), Some(2), Some(3), Some(4), None];

/// The cacheless oracle, run twice over the world's active chain, each
/// time into a fresh [`Blockchain`] that must land on the world's tip
/// and state digest:
///
/// 1. through carrier-less `submit_block` — no builder verdicts, no
///    admission signature verdicts, no block proofs, every check re-run
///    from the block bytes alone. A cache that ever changed an outcome
///    in the world's tick would make this follower reject a block or
///    diverge;
/// 2. with each block's recursive proof as its only carrier, folded by
///    the follower at the parent state (`prove_block`): stage 2 checks
///    one aggregate a block, and every one of them must verify — a
///    fallback would mean the fold and the per-statement path disagree
///    about a block the world accepted.
///
/// The first follower's stage 2 verifies each block's transfer
/// signatures as one batch equation per worker, so every reference
/// world of the determinism matrix also exercises the batch against the
/// chain its builder assembled from per-transaction admission verdicts.
///
/// Returns what the first follower recorded about itself: the spans and
/// counters a *receiving* node pays (the world submits each block with
/// its builder's verdicts, so its own stage 2 never verifies).
pub fn assert_follower_replay_matches(world: &World) -> Snapshot {
    let receiving = replay(world, false);
    let carried = replay(world, true);
    assert_eq!(
        carried.counters.get("mc.stage2.agg_verified").copied(),
        Some(world.chain.height()),
        "one verified aggregate a block"
    );
    assert_eq!(carried.counters.get("mc.stage2.agg_fallback"), None);
    receiving
}

/// Replays the world's active chain into a fresh recording follower,
/// each block carrying its recursive proof when `carry` is set, and
/// asserts the follower's tip and state digest.
fn replay(world: &World, carry: bool) -> Snapshot {
    let (telemetry, recorder) = Telemetry::in_memory();
    let mut follower = Blockchain::new(world.chain.params().clone());
    follower.set_telemetry(telemetry);
    for height in 1..=world.chain.height() {
        let block = world.chain.block_at_height(height).expect("active block");
        let proof = carry.then(|| {
            follower
                .prove_block(block)
                .unwrap_or_else(|| panic!("no block proof at height {height}"))
        });
        follower
            .submit(block.clone(), None, proof)
            .unwrap_or_else(|e| {
                panic!(
                    "follower (carried proof: {carry}) rejected the block at height {height}: {e}"
                )
            });
    }
    assert_eq!(follower.tip_hash(), world.chain.tip_hash());
    assert_eq!(
        chain_state_digest(&follower),
        chain_state_digest(&world.chain),
        "follower (carried proof: {carry}) state diverged from the world's chain"
    );
    recorder.snapshot()
}
