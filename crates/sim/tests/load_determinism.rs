//! The determinism contract under generated load: a world driven by
//! `zendoo-loadgen` traffic through the batched admission path is
//! bit-identical across shard worker counts (and across admission
//! worker counts), a cacheless follower replays the chain it built, and
//! the block builder really does skip re-running stage-1 and signature
//! verification for admitted candidates.

mod common;

use common::assert_follower_replay_matches;
use zendoo_loadgen::{LoadConfig, LoadGen, Population, Shape};
use zendoo_mainchain::sigbatch::AdmissionReport;
use zendoo_sim::{SimConfig, World};

const TICKS: u64 = 14; // two full epochs (epoch_len 6 + submit window)
const BATCH: usize = 60;

/// Runs `TICKS` ticks of zipf self-pay load through the world's
/// batched admission path, settling each tick's confirmations back
/// into the population. Returns the world and every tick's report.
fn run_under_load(
    shard_workers: Option<usize>,
    workers: usize,
    telemetry: bool,
) -> (World, Vec<AdmissionReport>) {
    let load = LoadConfig {
        users: 400,
        seed: 7,
        ..LoadConfig::default()
    };
    let mut population = Population::generate(&load);
    let config = SimConfig {
        workers: shard_workers,
        telemetry,
        extra_genesis_outputs: population.genesis_outputs(),
        ..SimConfig::with_sidechains(2)
    };
    let mut world = World::new(config);
    // The two named genesis users (alice, bob) precede the population.
    population.bind_genesis(&world.chain, 2);
    let mut gen = LoadGen::new(population, Shape::Zipf { exponent: 1.0 }, &load);

    let mut reports = Vec::new();
    for _ in 0..TICKS {
        let batch = gen.next_batch(BATCH);
        reports.push(world.admit_mc_batch(batch, workers));
        world.step().unwrap();
        let tip = world.chain.tip_hash();
        gen.population_mut()
            .settle_block(world.chain.block(&tip).unwrap());
    }
    (world, reports)
}

/// Everything externally observable, for cross-mode comparison.
fn observe(world: &World) -> impl PartialEq + std::fmt::Debug {
    (
        world.chain.tip_hash(),
        world.chain.height(),
        world.chain.state().clone(),
        world.metrics.clone(),
    )
}

#[test]
fn loaded_world_is_bit_identical_across_worker_counts() {
    let (serial, serial_reports) = run_under_load(Some(1), 1, false);
    let (sharded, sharded_reports) = run_under_load(Some(3), 4, false);

    // The workload was real: most batches fully admitted and settled,
    // and the epoch machinery kept certifying underneath the load.
    let admitted: usize = serial_reports.iter().map(|r| r.admitted).sum();
    assert!(
        admitted >= (TICKS as usize - 1) * BATCH,
        "load flowed through admission (admitted {admitted})"
    );
    assert!(serial_reports.iter().all(|r| r.sig_checks > 0));
    assert!(
        serial.metrics.certificates_accepted >= 2,
        "epochs certified"
    );
    assert!(serial.conservation_holds() && serial.safeguards_hold());

    // Admission itself is worker-independent…
    assert_eq!(
        serial_reports, sharded_reports,
        "admission reports diverged between 1 and 4 workers"
    );
    // …and so is everything the two worlds went on to build.
    assert_eq!(
        observe(&serial),
        observe(&sharded),
        "three-lane world diverged from one lane under generated load"
    );
    // The admission signature verdicts the builder consumed changed no
    // outcome: a follower verifying every signature itself agrees.
    assert_follower_replay_matches(&serial);
}

#[test]
fn builder_reuses_admission_work_under_load() {
    let (world, reports) = run_under_load(Some(3), 4, true);
    let snapshot = world.telemetry_snapshot();

    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let admitted: u64 = reports.iter().map(|r| r.admitted as u64).sum();
    // Certificates and router deliveries pool through the same
    // admission path, so the counter is at least the generated load.
    assert!(counter("mc.mempool.admitted") >= admitted);
    assert!(
        counter("mc.precheck.skipped") >= admitted,
        "every pooled candidate skipped the redundant stage-1 re-run \
         (skipped {}, admitted {admitted})",
        counter("mc.precheck.skipped")
    );
    assert!(
        counter("mc.sig_cache.hit") > 0,
        "block building consumed admission's signature verdicts"
    );
    assert!(
        snapshot
            .spans
            .get("sig.batch.verify")
            .is_some_and(|s| s.count > 0),
        "admission batches went through the batch verifier"
    );
    assert!(
        snapshot
            .spans
            .get("mc.mempool.admit")
            .is_some_and(|s| s.count > 0),
        "pool admissions were timed"
    );
}
