//! Shared by the determinism suites (`determinism.rs`, `byzantine.rs`,
//! `fault_props.rs`, `load_determinism.rs`).

use zendoo_mainchain::{Blockchain, VerifyMode};
use zendoo_sim::World;
use zendoo_store::chain_state_digest;
use zendoo_telemetry::{Snapshot, Telemetry};

/// Every `(workers, verify mode)` pair a world must be bit-identical
/// across; the first — one lane, individual verification — is the
/// reference.
#[allow(dead_code)] // not every suite walks the whole matrix
pub const MATRIX: [(Option<usize>, VerifyMode); 10] = [
    (Some(1), VerifyMode::Individual),
    (Some(2), VerifyMode::Individual),
    (Some(3), VerifyMode::Individual),
    (Some(4), VerifyMode::Individual),
    (None, VerifyMode::Individual),
    (Some(1), VerifyMode::Aggregated),
    (Some(2), VerifyMode::Aggregated),
    (Some(3), VerifyMode::Aggregated),
    (Some(4), VerifyMode::Aggregated),
    (None, VerifyMode::Aggregated),
];

/// The cacheless oracle: replays the world's active chain into a fresh
/// [`Blockchain`] through carrier-less `submit_block` — no builder
/// verdicts, no admission signature verdicts, no block proofs, every
/// check re-run from the block bytes alone — and asserts the follower
/// lands on the same tip and the same state digest. A cache that ever
/// changed an outcome in the world's tick would make the follower
/// reject a block or diverge here.
///
/// The follower's stage 2 verifies each block's transfer signatures as
/// one batch equation per worker, so every reference world of the
/// determinism matrix also exercises the batch against the chain its
/// builder assembled from per-transaction admission verdicts.
///
/// Returns what the follower recorded about itself: the spans and
/// counters a *receiving* node pays (the world submits each block with
/// its builder's verdicts, so its own stage 2 never verifies).
pub fn assert_follower_replay_matches(world: &World) -> Snapshot {
    let (telemetry, recorder) = Telemetry::in_memory();
    let mut follower = Blockchain::new(world.chain.params().clone());
    follower.set_telemetry(telemetry);
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
    recorder.snapshot()
}
