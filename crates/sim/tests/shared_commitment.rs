//! One sc-txs commitment per mainchain block, shared by every shard: a
//! sidechain node takes its own part of the commitment the block's
//! builder made, so what it hashes to forge does not grow with the
//! traffic the block carries for other chains.

use zendoo_sim::{SimConfig, World};

/// Users funded at genesis, one forward transfer each.
const USERS: usize = 64;

/// The SHA-256 blocks `sc-1` — which receives nothing — hashes forging
/// the one sidechain block of a tick whose mainchain block carries
/// `transfers` forward transfers to `sc-0`. `sc-0` is partitioned for
/// the tick, so it forges nothing and the world's forge counter is
/// `sc-1`'s alone.
fn idle_forge_sha(transfers: usize) -> u64 {
    let config = SimConfig {
        telemetry: true,
        workers: Some(1),
        genesis_users: (0..USERS).map(|i| (format!("user-{i}"), 10_000)).collect(),
        ..SimConfig::with_sidechains(2)
    };
    let mut world = World::new(config);
    let (busy, idle) = (world.sidechain_ids()[0], world.sidechain_ids()[1]);
    world.inject_partition(&busy).unwrap();
    for i in 0..transfers {
        world
            .queue_forward_transfer_on(&busy, &format!("user-{i}"), 100 + i as u64)
            .unwrap();
    }
    let forge_sha = |world: &World| {
        world
            .telemetry_snapshot()
            .counters
            .get("latus.forge.sha_blocks")
            .copied()
            .unwrap_or(0)
    };
    let before = forge_sha(&world);
    let balance = world.sidechain_balance_of(&busy);
    world.step().unwrap();
    assert_eq!(world.metrics.rejections, 0);
    let deposited: u64 = (0..transfers as u64).map(|i| 100 + i).sum();
    assert_eq!(
        world.sidechain_balance_of(&busy).units(),
        balance.units() + deposited,
        "every transfer is in the block"
    );
    assert_eq!(world.shard(&idle).unwrap().backlog_len(), 0);
    assert_eq!(
        world.shard(&busy).unwrap().backlog_len(),
        1,
        "the busy chain forged nothing"
    );
    forge_sha(&world) - before
}

/// ROADMAP J's gate: an idle shard's forging hashes the same with one
/// forward transfer for another chain in the block as with 64. (With no
/// transfer at all the block commits to one leaf fewer, and the idle
/// chain's absence proof is one Merkle step shorter.)
#[test]
fn an_idle_shards_forge_hashing_is_blind_to_other_chains_transfers() {
    let one = idle_forge_sha(1);
    assert!(one > 0, "the idle shard forged");
    assert_eq!(idle_forge_sha(USERS), one);
}
