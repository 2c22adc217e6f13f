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

/// The cacheless oracle: the world's active chain replayed into a fresh
/// [`Blockchain`] through `submit_block` — no builder verdicts, no
/// admission signature verdicts, every check re-run from the block
/// bytes alone — which must land on the world's tip and state digest.
/// A cache that ever changed an outcome in the world's tick would make
/// this follower reject a block or diverge.
///
/// The follower walks each block once in stage 3, owing every proof and
/// transfer signature it meets, and verifies what it owes after the walk
/// as one batch of proofs and one batch equation per worker over the
/// signatures, so every reference world of the determinism matrix also
/// exercises the deferral and the batch against the chain its builder
/// assembled from per-transaction admission verdicts.
///
/// Returns what the follower recorded about itself: the spans and
/// counters a *receiving* node pays (the world submits each block with
/// its builder's verdicts, so it runs no such batch for its own blocks).
pub fn assert_follower_replay_matches(world: &World) -> Snapshot {
    let telemetry = Telemetry::in_memory();
    let mut follower = Blockchain::new(world.chain.params().clone());
    follower.set_telemetry(telemetry.clone());
    for height in 1..=world.chain.height() {
        let block = world.chain.block_at_height(height).expect("active block");
        follower
            .submit_block(block.clone())
            .unwrap_or_else(|e| panic!("follower rejected the block at height {height}: {e}"));
    }
    assert_eq!(follower.tip_hash(), world.chain.tip_hash());
    assert_eq!(
        chain_state_digest(&follower),
        chain_state_digest(&world.chain),
        "follower state diverged from the world's chain"
    );
    telemetry.snapshot()
}
