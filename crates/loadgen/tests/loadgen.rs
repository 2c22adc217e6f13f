//! End-to-end checks of the load generator: determinism, shape
//! properties, and survival of generated traffic through the real
//! admission + mining path.

use zendoo_loadgen::{LoadConfig, LoadGen, Population, Shape};
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::mempool::{fee_of, MempoolConfig};
use zendoo_mainchain::miner::Miner;
use zendoo_mainchain::transaction::{McTransaction, Output};
use zendoo_mainchain::wallet::Wallet;

fn config(users: usize) -> LoadConfig {
    LoadConfig {
        users,
        ..LoadConfig::default()
    }
}

/// A chain whose premine is exactly the population's funding.
fn bound(config: &LoadConfig) -> (Blockchain, Population) {
    let mut population = Population::generate(config);
    let chain = Blockchain::new(ChainParams {
        genesis_outputs: population.genesis_outputs(),
        ..ChainParams::default()
    });
    population.bind_genesis(&chain, 0);
    (chain, population)
}

/// `Population::generate` derives its wallets on one thread per core;
/// every user must still be the wallet a serial loop over the indices
/// derives, in index order, whatever the split.
#[test]
fn parallel_derivation_matches_serial_derivation() {
    for users in [0, 1, 2, 7, 101] {
        let config = config(users);
        let population = Population::generate(&config);
        assert_eq!(population.len(), users);
        for i in 0..users {
            let serial = Wallet::from_seed(format!("loadgen-{}-user-{i}", config.seed).as_bytes());
            assert_eq!(
                population.address_of(i),
                serial.address(),
                "user {i} of {users}"
            );
        }
    }
}

#[test]
fn identical_seeds_emit_identical_traffic() {
    let config = config(500);
    let mut batches = Vec::new();
    for _ in 0..2 {
        let (_, population) = bound(&config);
        let mut gen = LoadGen::new(population, Shape::Zipf { exponent: 1.1 }, &config);
        let ids: Vec<_> = gen
            .next_batch(200)
            .iter()
            .map(McTransaction::txid)
            .collect();
        batches.push(ids);
    }
    assert_eq!(
        batches[0], batches[1],
        "traffic is a pure function of the seed"
    );
    assert_eq!(batches[0].len(), 200);
}

#[test]
fn generated_traffic_survives_real_admission_and_mining() {
    let config = config(300);
    let (mut chain, population) = bound(&config);
    let mut gen = LoadGen::new(population, Shape::Uniform, &config);
    let mut miner = Miner::new(
        Wallet::from_seed(b"load-miner").address(),
        MempoolConfig::default(),
    );

    for round in 0..3u64 {
        let batch = gen.next_batch(150);
        assert_eq!(batch.len(), 150, "population large enough per round");
        let report = miner.submit_batch(&chain, batch, 2, |_, _| {});
        assert_eq!(
            report.admitted, 150,
            "round {round}: every generated tx admits"
        );
        assert_eq!(report.rejected, 0);
        let block = miner.mine(&mut chain, round + 1).unwrap().block;
        assert_eq!(
            block.transactions.len(),
            151,
            "round {round}: coinbase + the whole batch confirms"
        );
        gen.population_mut().settle_block(&block);
        assert_eq!(gen.population().in_flight(), 0);
    }
}

#[test]
fn zipf_concentrates_activity_on_hot_users() {
    let config = config(10_000);
    let (_, population) = bound(&config);
    let mut gen = LoadGen::new(population, Shape::Zipf { exponent: 1.0 }, &config);
    let batch = gen.next_batch(200);
    // Recover each spender's rank from its funded genesis index: user
    // ranks are genesis-output order, so a zipf draw should sit far
    // below the uniform mean rank of ~5000.
    let (_, pop2) = bound(&config);
    let address_rank: std::collections::HashMap<_, _> =
        (0..pop2.len()).map(|i| (pop2.address_of(i), i)).collect();
    let mean_rank: f64 = batch
        .iter()
        .map(|tx| {
            let McTransaction::Transfer(t) = tx else {
                panic!("self-pay shape emits transfers")
            };
            let Output::Regular(out) = &t.outputs[0] else {
                panic!("self-pay output")
            };
            address_rank[&out.address] as f64
        })
        .sum::<f64>()
        / batch.len() as f64;
    assert!(
        mean_rank < 2_000.0,
        "zipf mean rank {mean_rank} should sit far below the uniform 5000"
    );
}

#[test]
fn flash_crowd_bids_base_and_surge_fees() {
    let config = config(2_000);
    let (chain, population) = bound(&config);
    let shape = Shape::FlashCrowd {
        surge_bp: 1_000, // 10 %
        surge_multiplier: 50,
    };
    let mut gen = LoadGen::new(population, shape, &config);
    let batch = gen.next_batch(500);
    let lookup = |op: &zendoo_mainchain::transaction::OutPoint| {
        chain.state().utxos.get(op).map(|o| o.amount)
    };
    let base = config.fee_min;
    let surge = base * 50;
    let mut surged = 0usize;
    for tx in &batch {
        let fee = fee_of(tx, lookup).units();
        assert!(
            fee == base || fee == surge,
            "flash-crowd fees are bimodal, got {fee}"
        );
        if fee == surge {
            surged += 1;
        }
    }
    assert!(surged > 10, "surge bidders present ({surged})");
    assert!(surged < 200, "surge stays a minority ({surged})");
}

#[test]
fn drain_the_bridge_emits_valid_forward_transfers() {
    let config = config(400);
    let (chain, population) = bound(&config);
    let sidechains: Vec<_> = (0..8)
        .map(|i| zendoo_core::ids::SidechainId::from_label(&format!("drain-{i}")))
        .collect();
    let shape = Shape::DrainTheBridge {
        sidechains: sidechains.clone(),
    };
    let mut gen = LoadGen::new(population, shape, &config);
    let batch = gen.next_batch(200);
    let mut seen = std::collections::HashSet::new();
    for tx in &batch {
        let McTransaction::Transfer(t) = tx else {
            panic!("drain shape emits transfers")
        };
        let Output::Forward(ft) = &t.outputs[0] else {
            panic!("first output is the forward transfer")
        };
        assert!(sidechains.contains(&ft.sidechain_id));
        assert!(
            zendoo_latus::tx::ReceiverMetadata::parse(&ft.receiver_metadata).is_some(),
            "metadata parses on the sidechain side"
        );
        assert!(!ft.amount.is_zero(), "half the coin crosses the bridge");
        seen.insert(ft.sidechain_id);
        // Change keeps the user alive for later rounds.
        assert!(matches!(t.outputs[1], Output::Regular(_)));
        // And the whole thing still prechecks.
        zendoo_mainchain::pipeline::precheck_transaction(tx).unwrap();
        assert!(!fee_of(tx, |op| chain.state().utxos.get(op).map(|o| o.amount)).is_zero());
    }
    assert!(seen.len() > 1, "rush spreads across sidechains");
}

#[test]
fn release_unconfirmed_lets_users_retry() {
    let config = config(50);
    let (_, population) = bound(&config);
    let mut gen = LoadGen::new(population, Shape::Uniform, &config);
    let first = gen.next_batch(50);
    assert_eq!(first.len(), 50);
    // Everyone is in flight: nothing more to generate.
    assert!(gen.next_batch(10).is_empty());
    gen.population_mut().release_unconfirmed();
    let retry = gen.next_batch(50);
    assert_eq!(
        retry.len(),
        50,
        "released users spend their confirmed coin again"
    );
}
