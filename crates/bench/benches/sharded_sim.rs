//! Sharded vs one-lane simulation stepping at 1/8/32 sidechains.
//!
//! Shape to reproduce: Zendoo sidechains are *decoupled* — the
//! mainchain never executes sidechain logic — so the per-tick
//! sidechain phase (node sync + certificate production) fans out over
//! worker threads while the coordinator overlaps the block's own
//! stage-2/3 submission. The baseline ("serial" in the report keys) is
//! the same tick on `workers: Some(1)`: the in-thread sequential loop.
//!
//! Besides timing, this bench emits `BENCH_sharded_sim.json` at the
//! workspace root. For every world size it reports:
//!
//! * measured wall clock per worker count **on this host** (on a
//!   single-core container the thread fan-out cannot shorten wall
//!   clock), and
//! * the work/span decomposition read off the world's telemetry
//!   snapshot (`tick.coordinator`, `tick.shard.sync` and
//!   `tick.shard.critical` span totals): `work = Σ(coordinator +
//!   Σ shards)` is the serial cost, `span = Σ(coordinator + max
//!   shard)` is the critical path a machine with ≥ one core per shard
//!   pays — their ratio is the multi-core speedup of the sharded step,
//!   independent of the benchmarking host's core count.
//!
//! The run also re-checks the determinism contract: both worker counts
//! must finish on the same tip with the same metrics.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zendoo_sim::{scenarios, SimConfig, World};
use zendoo_telemetry::Snapshot;

/// Worlds per measurement: enough to smooth scheduler noise without
/// blowing up bench wall-clock (a 32-chain epoch is ~1 s of work).
const SAMPLES: usize = 2;

/// Ticks for `chains`: two full withdrawal epochs of the ring workload
/// (fund + transfer in epoch 0, certify + settle across epoch 1).
fn ticks_for(chains: usize) -> u64 {
    (scenarios::ring_epoch_len(chains) as u64 + 1) * 2
}

/// The baseline: one lane, the in-thread sequential loop.
const SERIAL: Option<usize> = Some(1);
/// One lane per available core (the `SimConfig` default).
const SHARDED: Option<usize> = None;

/// Builds the ring world and runs it to completion on `workers` lanes
/// with telemetry recording on, returning the world, its telemetry
/// snapshot and the measured wall nanoseconds of the stepped phase.
fn run_ring(chains: usize, workers: Option<usize>) -> (World, Snapshot, u64) {
    let config = SimConfig {
        workers,
        epoch_len: scenarios::ring_epoch_len(chains),
        telemetry: true,
        ..SimConfig::with_sidechains(chains)
    };
    let mut world = World::new(config);
    let schedule = scenarios::ring_schedule(chains);
    let start = Instant::now();
    schedule.run(&mut world, ticks_for(chains)).unwrap();
    let wall = start.elapsed().as_nanos() as u64;
    let snapshot = world.telemetry_snapshot();
    (world, snapshot, wall)
}

/// `(work, span)` in nanoseconds over a run's ticks, read straight off
/// the telemetry spans: the serial cost
/// (`tick.coordinator + tick.shard.sync` totals) and the
/// ≥-one-core-per-shard critical path
/// (`tick.coordinator + tick.shard.critical` totals, the latter being
/// the slowest shard of each tick).
fn work_and_span(snapshot: &Snapshot) -> (u64, u64) {
    let total = |name: &str| {
        snapshot
            .spans
            .get(name)
            .map_or(0, |stats| stats.total_nanos)
    };
    let coordinator = total("tick.coordinator");
    (
        coordinator + total("tick.shard.sync"),
        coordinator + total("tick.shard.critical"),
    )
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_world_step(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The JSON report below covers the 32-chain world; this group
    // keeps the harness-shaped timings to the quick sizes.
    let mut group = c.benchmark_group(format!("sharded_sim/two_epochs[{cores}-core]"));
    group.sample_size(SAMPLES);
    for chains in [1usize, 8] {
        group.bench_with_input(BenchmarkId::new("serial", chains), &chains, |b, &n| {
            b.iter(|| run_ring(n, SERIAL).0.metrics.mc_blocks)
        });
        group.bench_with_input(BenchmarkId::new("sharded", chains), &chains, |b, &n| {
            b.iter(|| run_ring(n, SHARDED).0.metrics.mc_blocks)
        });
    }
    group.finish();
}

/// One full measurement pass per world size, emitting the JSON report.
fn emit_sharded_report(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut entries = String::new();
    for (slot, chains) in [1usize, 8, 32].into_iter().enumerate() {
        let mut serial_walls = Vec::new();
        let mut sharded_walls = Vec::new();
        let mut sharded_spans = Vec::new();
        let mut serial_works = Vec::new();
        let mut checked = false;
        for _ in 0..SAMPLES {
            let (serial_world, serial_snapshot, serial_wall) = run_ring(chains, SERIAL);
            let (sharded_world, sharded_snapshot, sharded_wall) = run_ring(chains, SHARDED);
            // Determinism contract: the runs may differ only in time.
            assert_eq!(
                serial_world.chain.tip_hash(),
                sharded_world.chain.tip_hash(),
                "sharded tip diverged at {chains} chains"
            );
            assert_eq!(
                serial_world.metrics, sharded_world.metrics,
                "sharded metrics diverged at {chains} chains"
            );
            if !checked && chains > 1 {
                assert_eq!(
                    serial_world.metrics.cross_transfers_delivered, chains as u64,
                    "ring workload did not settle"
                );
                checked = true;
            }
            let (serial_work, _) = work_and_span(&serial_snapshot);
            let (_, sharded_span) = work_and_span(&sharded_snapshot);
            serial_walls.push(serial_wall);
            sharded_walls.push(sharded_wall);
            serial_works.push(serial_work);
            sharded_spans.push(sharded_span);
        }
        let serial_wall = median(serial_walls);
        let sharded_wall = median(sharded_walls);
        let serial_work = median(serial_works);
        let sharded_span = median(sharded_spans);
        let measured = serial_wall as f64 / sharded_wall as f64;
        let multicore = serial_wall as f64 / sharded_span as f64;
        println!(
            "sharded_sim/report {chains} chains: serial {:.1} ms, sharded {:.1} ms (measured {measured:.2}x on {cores} core(s)), span {:.1} ms => {multicore:.2}x multi-core",
            serial_wall as f64 / 1e6,
            sharded_wall as f64 / 1e6,
            sharded_span as f64 / 1e6,
        );
        if slot > 0 {
            entries.push(',');
        }
        entries.push_str(&format!(
            "\n    {{\"sidechains\": {chains}, \"ticks\": {}, \"serial_wall_ns\": {serial_wall}, \"sharded_wall_ns\": {sharded_wall}, \"serial_work_ns\": {serial_work}, \"sharded_span_ns\": {sharded_span}, \"speedup_measured\": {measured:.3}, \"speedup_multicore_span\": {multicore:.3}}}",
            ticks_for(chains),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"sharded_sim\",\n  \"host_cores\": {cores},\n  \"note\": \"serial is the tick on one worker lane (workers: Some(1)), sharded is one lane per core; speedup_measured is wall clock on this host; speedup_multicore_span is serial wall over the sharded critical path (coordinator + slowest shard per tick), i.e. the modelled speedup with >= one core per sidechain. Determinism (serial tip/metrics == sharded) is asserted during the run.\",\n  \"worlds\": [{entries}\n  ]\n}}\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharded_sim.json");
    std::fs::write(path, &json).expect("write BENCH_sharded_sim.json");
    println!("sharded_sim/report written to BENCH_sharded_sim.json");

    // Keep criterion's harness shape: time the accounting fold.
    let (_, snapshot, _) = run_ring(1, SHARDED);
    c.bench_function("sharded_sim/work_span_fold", |b| {
        b.iter(|| work_and_span(&snapshot))
    });
}

criterion_group!(benches, bench_world_step, emit_sharded_report);
criterion_main!(benches);
