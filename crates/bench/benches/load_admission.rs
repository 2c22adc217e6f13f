//! Mempool admission under generated load — emits `BENCH_load.json`.
//!
//! Three experiments, all against real populations of keyed users
//! spending real signed transactions:
//!
//! 1. **Scenario sweep** — populations of 10⁴ and 10⁵ users under
//!    uniform, zipf and flash-crowd traffic: admission throughput,
//!    per-admission pool latency percentiles (`mc.mempool.admit`
//!    span), batch signature-verification time (`sig.batch.verify`
//!    span), and settle/template drain times.
//! 2. **Batched vs per-transaction admission, end to end** — the same
//!    transactions through one `admit_batch_with` call with verdict
//!    reuse at build, vs one call per transaction with the verdicts
//!    dropped (so the block builder re-verifies inline). *Honest
//!    labeling*: on a single-core host (see `host_cores` in the
//!    report) admission wall time is verification-bound and
//!    near-identical either way — the end-to-end win is the deleted
//!    second verification pass, shown by the span decomposition
//!    (`sig.batch.verify` equal in both paths; `mc.sig_cache.hit` in
//!    the batched build where the baseline pays inline
//!    re-verification wall time instead).
//! 3. **Verdict reuse at build** — an admitted batch assembled into a
//!    block template with its cached signature verdicts vs the same
//!    transactions re-verified inline (`BlockCandidates::unchecked`).
//!    This is the double-verification the admission cache deletes.
//! 4. **Flash crowd at capacity** — 6 000 flash-crowd transactions
//!    into a 2 000-slot pool: eviction must keep the pool within
//!    budget, and the fee-ordered template must pack strictly more
//!    total fees than a FIFO pool of the same capacity would have.
//!    Both asserted here, not just reported.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use zendoo_core::ids::Address;
use zendoo_loadgen::{LoadConfig, LoadGen, Population, Shape};
use zendoo_mainchain::chain::{BlockCandidates, Blockchain, ChainParams};
use zendoo_mainchain::mempool::{fee_of, Mempool, MempoolConfig};
use zendoo_mainchain::sigbatch::admit_batch_with;
use zendoo_mainchain::transaction::McTransaction;
use zendoo_primitives::digest::Digest32;
use zendoo_snark::batch::default_workers;
use zendoo_telemetry::Telemetry;

/// Transactions admitted per scenario measurement.
const BATCH: usize = 5_000;

fn load_config(users: usize) -> LoadConfig {
    LoadConfig {
        users,
        seed: 99,
        ..LoadConfig::default()
    }
}

/// A chain premined for the population (built once per size; admission
/// only reads its state).
fn chain_for(population: &Population) -> Blockchain {
    Blockchain::new(ChainParams {
        genesis_outputs: population.genesis_outputs(),
        ..ChainParams::default()
    })
}

fn total_fees<'a>(chain: &Blockchain, txs: impl IntoIterator<Item = &'a McTransaction>) -> u64 {
    txs.into_iter()
        .map(|tx| fee_of(tx, |op| chain.state().utxos.get(op).map(|o| o.amount)).units())
        .sum()
}

/// One scenario: generate `BATCH` transactions under `shape`, admit
/// them in one batch, then drain half as confirmed (the settle path)
/// and the rest as a template. Returns a JSON object.
fn run_scenario(label: &str, chain: &Blockchain, population: Population, shape: Shape) -> String {
    let users = population.len();
    let config = load_config(users);
    let mut gen = LoadGen::new(population, shape, &config);

    let started = Instant::now();
    let batch = gen.next_batch(BATCH);
    let gen_secs = started.elapsed().as_secs_f64();
    assert_eq!(batch.len(), BATCH);
    let txids: Vec<Digest32> = batch.iter().map(McTransaction::txid).collect();

    let (telemetry, recorder) = Telemetry::in_memory();
    let mut pool = Mempool::new();
    pool.set_telemetry(telemetry.clone());
    let workers = default_workers(batch.len());
    let started = Instant::now();
    let report = admit_batch_with(
        &mut pool,
        chain.state(),
        batch,
        workers,
        &telemetry,
        |_, _| {},
    );
    let admit_secs = started.elapsed().as_secs_f64();
    assert_eq!(report.admitted, BATCH, "{label}: generated load is valid");

    // Settle path: half the batch confirms…
    let started = Instant::now();
    pool.remove_confirmed(&txids[..BATCH / 2]);
    let settle_secs = started.elapsed().as_secs_f64();
    // …and the rest drains as a fee-ordered template.
    let started = Instant::now();
    let template = pool.take_ordered(usize::MAX);
    let template_secs = started.elapsed().as_secs_f64();
    assert_eq!(template.txs.len(), BATCH - BATCH / 2);

    let snapshot = recorder.snapshot();
    let admit_span = &snapshot.spans["mc.mempool.admit"];
    let verify_span = &snapshot.spans["sig.batch.verify"];
    format!(
        "    {{\"scenario\": \"{label}\", \"users\": {users}, \"batch\": {BATCH}, \
\"workers\": {workers}, \"admitted\": {}, \"sig_checks\": {}, \
\"gen_secs\": {gen_secs:.3}, \"admit_secs\": {admit_secs:.3}, \
\"throughput_tx_per_sec\": {:.0}, \"sig_verify_secs\": {:.3}, \
\"admit_ns_p50\": {}, \"admit_ns_p90\": {}, \"admit_ns_p99\": {}, \
\"settle_secs\": {settle_secs:.4}, \"template_secs\": {template_secs:.4}}}",
        report.admitted,
        report.sig_checks,
        report.admitted as f64 / admit_secs,
        verify_span.total_nanos as f64 / 1e9,
        admit_span.nanos.quantile(0.50),
        admit_span.nanos.quantile(0.90),
        admit_span.nanos.quantile(0.99),
    )
}

/// Experiment 2: the full admit-then-build pipeline, batched with
/// verdict reuse vs per-transaction with no cache. Both baselines must
/// verify signatures *at admission* — fee-prioritized eviction cannot
/// admit unverified bids, or junk bidding absurd fees would evict
/// honest transactions — so the cacheless baseline pays verification a
/// second time when the block builder re-checks every candidate. The
/// span decomposition in the report shows exactly that: the same
/// `sig.batch.verify` time in both paths, plus `mc.sig_cache.hit` in
/// the batched build where the baseline pays the inline
/// re-verification as extra build wall time.
fn batched_vs_per_tx(chain: &mut Blockchain, population: Population) -> String {
    let n = 2_000;
    let config = load_config(population.len());
    let mut gen = LoadGen::new(population, Shape::Uniform, &config);
    let txs = gen.next_batch(n);
    assert_eq!(txs.len(), n);
    let workers = default_workers(n);
    let miner = Address::from_label("bench-miner");

    // Path A: one batched admission call, verdicts ride into the build.
    let (telemetry, recorder) = Telemetry::in_memory();
    chain.set_telemetry(telemetry.clone());
    let mut pool = Mempool::new();
    pool.set_telemetry(telemetry.clone());
    let started = Instant::now();
    let report = admit_batch_with(
        &mut pool,
        chain.state(),
        txs.clone(),
        workers,
        &telemetry,
        |_, _| {},
    );
    let batched_admit_secs = started.elapsed().as_secs_f64();
    assert_eq!(report.admitted, n);
    let batch = pool.take_ordered(usize::MAX);
    let started = Instant::now();
    let prepared = chain
        .prepare_block(
            miner,
            BlockCandidates::admitted(batch.txs, batch.sig_verdicts),
            1,
        )
        .unwrap();
    let batched_build_secs = started.elapsed().as_secs_f64();
    let batched_block = prepared.block.hash();
    assert_eq!(prepared.block.transactions.len(), n + 1);
    let snapshot = recorder.snapshot();
    let batched_verify_secs = snapshot.spans["sig.batch.verify"].total_nanos as f64 / 1e9;
    let cache_hits = snapshot
        .counters
        .get("mc.sig_cache.hit")
        .copied()
        .unwrap_or(0);
    assert!(
        cache_hits >= n as u64,
        "batched build consumed the verdict cache"
    );

    // Path B: the same transactions one call at a time, verdicts
    // dropped — the builder re-verifies everything inline.
    let (telemetry, recorder) = Telemetry::in_memory();
    chain.set_telemetry(telemetry.clone());
    let mut pool = Mempool::new();
    pool.set_telemetry(telemetry.clone());
    let started = Instant::now();
    for tx in txs {
        admit_batch_with(&mut pool, chain.state(), vec![tx], 1, &telemetry, |_, _| {});
    }
    let per_tx_admit_secs = started.elapsed().as_secs_f64();
    assert_eq!(pool.len(), n);
    let taken = pool.take_ordered(usize::MAX);
    let started = Instant::now();
    let prepared = chain
        .prepare_block(miner, BlockCandidates::unchecked(taken.txs), 1)
        .unwrap();
    let per_tx_build_secs = started.elapsed().as_secs_f64();
    assert_eq!(prepared.block.transactions.len(), n + 1);
    assert_eq!(
        prepared.block.hash(),
        batched_block,
        "both pipelines build the identical block"
    );
    let snapshot = recorder.snapshot();
    let per_tx_verify_secs = snapshot.spans["sig.batch.verify"].total_nanos as f64 / 1e9;
    // No verdict cache attached → the builder verified inline, off the
    // cache counters entirely (no cache is not a cache miss).
    let baseline_hits = snapshot
        .counters
        .get("mc.sig_cache.hit")
        .copied()
        .unwrap_or(0);
    assert_eq!(baseline_hits, 0, "cacheless build must not touch the cache");
    chain.set_telemetry(Telemetry::disabled());

    let batched_secs = batched_admit_secs + batched_build_secs;
    let per_tx_secs = per_tx_admit_secs + per_tx_build_secs;
    // The acceptance claim, honest on a single-core host: admission
    // wall time is verification-bound and near-identical either way,
    // so the end-to-end win is the deleted second verification pass.
    assert!(
        batched_secs < per_tx_secs,
        "batched pipeline ({batched_secs:.3}s) did not beat the cacheless \
         per-tx pipeline ({per_tx_secs:.3}s)"
    );

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let note = if cores == 1 || workers == 1 {
        "single-lane host: admission is verification-bound in both paths; \
         the pipeline win is verdict reuse deleting the builder's second \
         verification pass, not parallelism (multi-core hosts additionally \
         parallelize the admission batch)"
    } else {
        "multi-lane host: the win combines verdict reuse at build with \
         parallel signature lanes at admission"
    };
    format!(
        "  \"batched_vs_per_tx\": {{\"txs\": {n}, \"workers\": {workers}, \
\"batched_admit_secs\": {batched_admit_secs:.3}, \"batched_build_secs\": {batched_build_secs:.3}, \
\"per_tx_admit_secs\": {per_tx_admit_secs:.3}, \"per_tx_build_secs\": {per_tx_build_secs:.3}, \
\"batched_total_secs\": {batched_secs:.3}, \"per_tx_total_secs\": {per_tx_secs:.3}, \
\"speedup\": {:.2}, \"batched_sig_verify_secs\": {batched_verify_secs:.3}, \
\"per_tx_sig_verify_secs\": {per_tx_verify_secs:.3}, \
\"sig_cache_hits\": {cache_hits}, \"sig_cache_hits_baseline\": {baseline_hits}, \
\"note\": \"{note}\"}},\n",
        per_tx_secs / batched_secs,
    )
}

/// Experiment 3: template assembly with cached admission verdicts vs
/// inline re-verification of the same transactions.
fn cached_vs_reverify(chain: &mut Blockchain, population: Population) -> String {
    let n = 2_000;
    let config = load_config(population.len());
    let mut gen = LoadGen::new(population, Shape::Uniform, &config);
    let txs = gen.next_batch(n);

    let (telemetry, recorder) = Telemetry::in_memory();
    chain.set_telemetry(telemetry.clone());
    let mut pool = Mempool::new();
    admit_batch_with(
        &mut pool,
        chain.state(),
        txs,
        default_workers(n),
        &telemetry,
        |_, _| {},
    );
    let batch = pool.take_ordered(usize::MAX);
    let miner = Address::from_label("bench-miner");

    let started = Instant::now();
    let prepared = chain
        .prepare_block(
            miner,
            BlockCandidates::admitted(batch.txs.clone(), batch.sig_verdicts),
            1,
        )
        .unwrap();
    let cached_secs = started.elapsed().as_secs_f64();
    assert_eq!(prepared.block.transactions.len(), n + 1);

    let started = Instant::now();
    let prepared = chain
        .prepare_block(miner, BlockCandidates::unchecked(batch.txs), 1)
        .unwrap();
    let reverify_secs = started.elapsed().as_secs_f64();
    assert_eq!(prepared.block.transactions.len(), n + 1);
    chain.set_telemetry(Telemetry::disabled());

    let snapshot = recorder.snapshot();
    let hits = snapshot
        .counters
        .get("mc.sig_cache.hit")
        .copied()
        .unwrap_or(0);
    assert!(hits >= n as u64, "cached build consumed admission verdicts");
    assert!(
        cached_secs < reverify_secs,
        "verdict reuse ({cached_secs:.3}s) did not beat inline \
         re-verification ({reverify_secs:.3}s)"
    );
    format!(
        "  \"template_verdict_reuse\": {{\"txs\": {n}, \"cached_secs\": {cached_secs:.3}, \
\"reverify_secs\": {reverify_secs:.3}, \"speedup\": {:.2}, \"sig_cache_hits\": {hits}, \
\"note\": \"the admission cache deletes the second signature verification a \
naive admit-then-build pipeline pays\"}},\n",
        reverify_secs / cached_secs,
    )
}

/// Experiment 4: a flash crowd into a pool at capacity.
fn flash_crowd_at_capacity(chain: &Blockchain, population: Population) -> String {
    let capacity = 2_000usize;
    let offered = 6_000usize;
    let template_cap = 1_000usize;
    let config = load_config(population.len());
    let shape = Shape::FlashCrowd {
        surge_bp: 1_000,
        surge_multiplier: 50,
    };
    let mut gen = LoadGen::new(population, shape, &config);
    let txs = gen.next_batch(offered);
    assert_eq!(txs.len(), offered);

    let (telemetry, recorder) = Telemetry::in_memory();
    let mempool_config = MempoolConfig {
        max_count: capacity,
        ..MempoolConfig::default()
    };
    let mut pool = Mempool::with_config(mempool_config);
    pool.set_telemetry(telemetry.clone());
    let started = Instant::now();
    let report = admit_batch_with(
        &mut pool,
        chain.state(),
        txs.clone(),
        default_workers(offered),
        &telemetry,
        |_, _| {},
    );
    let admit_secs = started.elapsed().as_secs_f64();

    // Eviction held the budget while the crowd was twice the capacity.
    assert!(pool.len() <= capacity, "pool over count budget");
    assert_eq!(report.admitted + report.rejected, offered);
    let snapshot = recorder.snapshot();
    let evicted = snapshot
        .counters
        .get("mc.mempool.evicted")
        .copied()
        .unwrap_or(0);
    let rejected_full = snapshot
        .counters
        .get("mc.mempool.rejected_full")
        .copied()
        .unwrap_or(0);
    assert!(evicted > 0, "a flash crowd at capacity must evict");

    let pool_len = pool.len();

    // The FIFO counterfactual: the old pool kept the first `capacity`
    // arrivals and templated the first `template_cap` of those.
    let fifo_fees = total_fees(chain, txs.iter().take(capacity).take(template_cap));
    let template = pool.take_ordered(template_cap);
    assert_eq!(template.txs.len(), template_cap);
    let priority_fees = total_fees(chain, template.txs.iter());
    assert!(
        priority_fees > fifo_fees,
        "fee-ordered template ({priority_fees}) must out-earn FIFO ({fifo_fees})"
    );

    format!(
        "  \"flash_crowd_at_capacity\": {{\"offered\": {offered}, \"capacity\": {capacity}, \
\"admit_secs\": {admit_secs:.3}, \"admitted\": {}, \"evicted\": {evicted}, \
\"rejected_full\": {rejected_full}, \"pool_len\": {pool_len}, \"template_txs\": {template_cap}, \
\"template_fees_priority\": {priority_fees}, \"template_fees_fifo\": {fifo_fees}, \
\"fee_gain\": {:.2}}},\n",
        report.admitted,
        priority_fees as f64 / fifo_fees.max(1) as f64,
    )
}

fn emit_load_report(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let shapes: [(&str, Shape); 3] = [
        ("uniform", Shape::Uniform),
        ("zipf", Shape::Zipf { exponent: 1.0 }),
        (
            "flash_crowd",
            Shape::FlashCrowd {
                surge_bp: 1_000,
                surge_multiplier: 50,
            },
        ),
    ];

    let mut scenarios = Vec::new();
    let mut small_chain = None;
    for users in [10_000usize, 100_000] {
        // Key derivation is paid once per size; every shape reuses the
        // same bound population against the same premined chain.
        let mut population = Population::generate(&load_config(users));
        let chain = chain_for(&population);
        population.bind_genesis(&chain, 0);
        for (label, shape) in &shapes {
            let name = format!("{label}_{users}");
            scenarios.push(run_scenario(
                &name,
                &chain,
                population.clone(),
                shape.clone(),
            ));
            println!("load_admission/{name}: done");
        }
        if users == 10_000 {
            small_chain = Some((chain, population));
        }
    }
    let (mut chain, population) = small_chain.expect("10k population retained");

    let batched = batched_vs_per_tx(&mut chain, population.clone());
    let reuse = cached_vs_reverify(&mut chain, population.clone());
    let crowd = flash_crowd_at_capacity(&chain, population);

    let json = format!(
        "{{\n  \"bench\": \"load\",\n  \"host_cores\": {cores},\n{batched}{reuse}{crowd}  \"scenarios\": [\n{}\n  ]\n}}\n",
        scenarios.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_load.json");
    std::fs::write(path, &json).expect("write BENCH_load.json");
    println!("{json}");

    // Keep criterion's harness shape: time the fee computation that
    // prices every admission.
    let (chain, mut population) = {
        let mut population = Population::generate(&load_config(1_000));
        let chain = chain_for(&population);
        population.bind_genesis(&chain, 0);
        (chain, population)
    };
    let tx = LoadGen::new(population.clone(), Shape::Uniform, &load_config(1_000))
        .next_batch(1)
        .remove(0);
    population.release_unconfirmed();
    c.bench_function("load_admission/fee_of", |b| {
        b.iter(|| fee_of(&tx, |op| chain.state().utxos.get(op).map(|o| o.amount)).units())
    });
}

criterion_group!(benches, emit_load_report);
criterion_main!(benches);
