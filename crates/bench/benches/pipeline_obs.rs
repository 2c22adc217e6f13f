//! End-to-end pipeline observability: runs an instrumented 16-chain
//! ring scenario and emits `BENCH_pipeline_obs.json` — the telemetry
//! snapshot of the whole run in the repo's `BENCH_*.json` shape.
//!
//! What the report contains (and the smoke assertions check):
//!
//! * per-stage mainchain pipeline latencies (`mc.stage1.precheck`,
//!   `mc.stage2.verify`, `mc.stage3.apply`) with p50/p90/p99/max,
//! * the verdict-cache hit rate (`mc.verdict_cache.hit` / `.miss`),
//! * the settlement batch-size histogram
//!   (`router.settlement.batch_size`) and delivery latencies,
//! * coordinator/shard tick spans (`tick`, `tick.coordinator`,
//!   `tick.shard.sync`) — the single source of per-tick wall-clock
//!   accounting.
//!
//! The mainchain pipeline figures (every `mc.*` / `snark.*` key a
//! block submission records) are taken from a **follower**: a fresh
//! `Blockchain` fed the world's active chain through `submit_block`.
//! That is what a receiving node pays — all three stage spans at
//! submission — whereas the world's own tick submits each block with
//! the verdicts its builder recorded, so its stage 2 shows up as
//! `mc.stage2.verdicts_reused` instead of a verify span.

use criterion::{criterion_group, criterion_main, Criterion};
use zendoo_mainchain::Blockchain;
use zendoo_sim::{scenarios, SimConfig, World};
use zendoo_telemetry::{render_report, Snapshot, Telemetry};

/// Chains in the instrumented ring (the acceptance scenario size).
const CHAINS: usize = 16;
/// Full withdrawal epochs to run (2 = fund + transfer, certify +
/// settle — every ring transfer delivers).
const EPOCHS: u64 = 2;

/// Builds and runs the instrumented ring world to completion.
fn run_instrumented_ring() -> World {
    let config = SimConfig {
        epoch_len: scenarios::ring_epoch_len(CHAINS),
        telemetry: true,
        ..SimConfig::with_sidechains(CHAINS)
    };
    let ticks = (config.epoch_len as u64 + 1) * (EPOCHS + 1);
    let mut world = World::new(config);
    scenarios::ring_schedule(CHAINS)
        .run(&mut world, ticks)
        .unwrap();
    world
}

/// Replays the world's active chain into a recording follower through
/// carrier-less `submit_block` and returns what the follower recorded.
fn follower_snapshot(world: &World) -> Snapshot {
    let (telemetry, recorder) = Telemetry::in_memory();
    let mut follower = Blockchain::new(world.chain.params().clone());
    follower.set_telemetry(telemetry);
    for height in 1..=world.chain.height() {
        let block = world.chain.block_at_height(height).expect("active block");
        follower
            .submit_block(block.clone())
            .expect("follower accepts");
    }
    assert_eq!(follower.tip_hash(), world.chain.tip_hash());
    recorder.snapshot()
}

/// Runs the scenario, checks the snapshot covers the pipeline end to
/// end, and writes `BENCH_pipeline_obs.json`.
fn emit_obs_report(c: &mut Criterion) {
    let world = run_instrumented_ring();
    assert_eq!(
        world.metrics.cross_transfers_delivered, CHAINS as u64,
        "ring workload did not settle"
    );
    // The world's snapshot, with every key a block submission records
    // replaced by the follower's reading of it.
    let mut snapshot = world.telemetry_snapshot();
    let follower = follower_snapshot(&world);
    snapshot.spans.extend(follower.spans);
    snapshot.counters.extend(follower.counters);
    snapshot.gauges.extend(follower.gauges);
    snapshot.histograms.extend(follower.histograms);

    // The snapshot must cover every instrumented layer.
    for span in [
        "tick",
        "tick.coordinator",
        "tick.shard.sync",
        "mc.stage1.precheck",
        "mc.stage2.verify",
        "mc.stage3.apply",
        "snark.batch.verify",
        "router.observe",
    ] {
        assert!(snapshot.spans.contains_key(span), "span {span} missing");
    }
    let hits = snapshot
        .counters
        .get("mc.verdict_cache.hit")
        .copied()
        .unwrap_or(0);
    let misses = snapshot
        .counters
        .get("mc.verdict_cache.miss")
        .copied()
        .unwrap_or(0);
    assert!(hits + misses > 0, "verdict cache never consulted");
    let batch_sizes = snapshot
        .histograms
        .get("router.settlement.batch_size")
        .expect("settlement batch-size histogram missing");
    assert!(batch_sizes.count() > 0, "no settlement batches recorded");

    let hit_rate = hits as f64 / (hits + misses) as f64;
    let scenario = format!(
        "  \"scenario\": {{\"sidechains\": {CHAINS}, \"epochs\": {EPOCHS}, \"mc_pipeline\": \"follower\", \"mc_blocks\": {}}},\n",
        world.metrics.mc_blocks,
    );
    let derived = format!(
        "  \"derived\": {{\"verdict_cache_hit_rate\": {hit_rate:.4}, \"verdict_cache_hits\": {hits}, \"verdict_cache_misses\": {misses}, \"settlement_batches\": {}, \"settlement_batch_size_max\": {}}},\n",
        batch_sizes.count(),
        batch_sizes.max(),
    );
    let json = snapshot.to_json("pipeline_obs").replacen(
        "  \"spans\": [",
        &format!("{scenario}{derived}  \"spans\": ["),
        1,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline_obs.json");
    std::fs::write(path, &json).expect("write BENCH_pipeline_obs.json");

    // Pretty-print the span tree + counters for the bench-smoke log.
    println!("{}", render_report(&snapshot));
    println!(
        "pipeline_obs/report: verdict-cache hit rate {:.1}% over {} checks (BENCH_pipeline_obs.json)",
        hit_rate * 100.0,
        hits + misses,
    );

    // Keep criterion's harness shape: time the report rendering.
    c.bench_function("pipeline_obs/render_report", |b| {
        b.iter(|| render_report(&snapshot).len())
    });
}

criterion_group!(benches, emit_obs_report);
criterion_main!(benches);
