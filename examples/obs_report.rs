//! Live telemetry walkthrough: runs an instrumented 16-chain ring
//! world and prints the span-tree report — per-stage pipeline wall
//! time, verdict-cache hit rate, rejection counters and settlement
//! batch histograms, straight from `World::telemetry_snapshot()`. The
//! header names the SHA-256 kernel the host ran, since every timing
//! below depends on it.
//!
//! ```text
//! cargo run --release --example obs_report
//! ```

use zendoo::primitives::sha256;
use zendoo::sim::{scenarios, SimConfig, World};
use zendoo::telemetry::render_report;

fn main() {
    println!("=== Pipeline observability report ===");
    println!("sha-256 kernel: {}\n", sha256::kernel());

    let chains = 16;
    let epochs = 2u64;
    let config = SimConfig {
        epoch_len: scenarios::ring_epoch_len(chains),
        telemetry: true,
        ..SimConfig::with_sidechains(chains)
    };
    let ticks = (config.epoch_len as u64 + 1) * (epochs + 1);
    println!(
        "running a {chains}-chain ring for {ticks} ticks ({epochs} withdrawal epochs), workers {:?}, telemetry on…\n",
        config.workers,
    );
    let mut world = World::new(config);
    scenarios::ring_schedule(chains)
        .run(&mut world, ticks)
        .unwrap();
    assert!(world.conservation_holds() && world.safeguards_hold());

    let snapshot = world.telemetry_snapshot();
    println!("{}", render_report(&snapshot));
    println!(
        "world: {} MC blocks, {} certificates accepted, {}/{} cross-transfers delivered",
        world.metrics.mc_blocks,
        world.metrics.certificates_accepted,
        world.metrics.cross_transfers_delivered,
        world.metrics.cross_transfers_initiated,
    );

    println!("\n(the tick submits each block with the proof verdicts its builder recorded — stage 2 shows up as the mc.stage2.verdicts_reused counter; a receiving node fed by `submit_block` pays the mc.stage2.verify spans instead — the benchmark's `mainchain.follower_*` metrics and `snark.batch_verify8_ms` measure that side)");
}
