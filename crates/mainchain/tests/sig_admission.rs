//! Adversarial batched-admission tests: tampered signatures die at
//! admission, worker parallelism never changes the admitted set, an
//! admitted batch mines without re-running stage-1 or signature
//! verification — and a *forged* verdict cache can fool only the local
//! template builder, never an independent verifier.

use std::collections::HashMap;

use zendoo_core::ids::{Address, Amount};
use zendoo_mainchain::chain::{
    BlockCandidates, BlockError, Blockchain, ChainParams, SubmitOutcome,
};
use zendoo_mainchain::mempool::{Mempool, MempoolConfig};
use zendoo_mainchain::miner::Miner;
use zendoo_mainchain::sigbatch::{admit_batch_with, sig_cache_key};
use zendoo_mainchain::transaction::{McTransaction, TxOut};
use zendoo_mainchain::wallet::Wallet;
use zendoo_primitives::schnorr::Keypair;
use zendoo_telemetry::Telemetry;

/// A chain premined for `n` independent spenders.
fn chain_with_users(n: usize) -> (Blockchain, Vec<Wallet>) {
    let wallets: Vec<Wallet> = (0..n)
        .map(|i| Wallet::from_seed(format!("sig-user-{i}").as_bytes()))
        .collect();
    let chain = Blockchain::new(ChainParams {
        genesis_outputs: wallets
            .iter()
            .map(|w| TxOut::regular(w.address(), Amount::from_units(10_000)))
            .collect(),
        ..ChainParams::default()
    });
    (chain, wallets)
}

/// `tx` with its first input signature swapped for one produced by an
/// unrelated key over unrelated bytes: structurally fine, cryptographically
/// worthless.
fn tamper(tx: &McTransaction) -> McTransaction {
    let McTransaction::Transfer(t) = tx else {
        panic!("tamper expects a transfer")
    };
    let mut t = t.clone();
    t.inputs[0].signature = Keypair::from_seed(b"mallory")
        .secret
        .sign("forged", b"junk");
    McTransaction::Transfer(t)
}

#[test]
fn tampered_signature_rejected_at_admission_valid_twin_admits() {
    let (chain, wallets) = chain_with_users(2);
    let good = wallets[0]
        .pay(
            &chain,
            Address::from_label("bob"),
            Amount::from_units(10),
            Amount::from_units(1),
        )
        .unwrap();
    let bad = tamper(
        &wallets[1]
            .pay(
                &chain,
                Address::from_label("bob"),
                Amount::from_units(10),
                Amount::from_units(1),
            )
            .unwrap(),
    );
    let bad_txid = bad.txid();

    let mut pool = Mempool::new();
    let mut rejections = Vec::new();
    let report = admit_batch_with(
        &mut pool,
        chain.state(),
        vec![good.clone(), bad.clone()],
        4,
        &Telemetry::disabled(),
        |tx, error| rejections.push((tx.txid(), error.variant_name())),
    );

    assert_eq!(report.admitted, 1);
    assert_eq!(report.rejected, 1);
    assert_eq!(
        report.sig_checks, 2,
        "both signatures hit the batch verifier"
    );
    assert_eq!(
        rejections,
        vec![(bad_txid, "bad_input_authorization")],
        "rejection names the forged input"
    );
    assert!(pool.contains(&good.txid()));
    assert!(!pool.contains(&bad_txid), "forged transfer never pools");
}

#[test]
fn worker_count_never_changes_the_admitted_set() {
    let (chain, wallets) = chain_with_users(12);
    let txs: Vec<McTransaction> = wallets
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let tx = w
                .pay(
                    &chain,
                    Address::from_label("bob"),
                    Amount::from_units(10),
                    Amount::from_units(1 + i as u64),
                )
                .unwrap();
            // Every third transfer carries a forged signature.
            if i % 3 == 2 {
                tamper(&tx)
            } else {
                tx
            }
        })
        .collect();

    let mut drained = Vec::new();
    let mut reports = Vec::new();
    for workers in [1usize, 8] {
        let mut pool = Mempool::new();
        let report = admit_batch_with(
            &mut pool,
            chain.state(),
            txs.clone(),
            workers,
            &Telemetry::disabled(),
            |_, _| {},
        );
        let batch = pool.take_ordered(usize::MAX);
        let ids: Vec<_> = batch.txs.iter().map(McTransaction::txid).collect();
        drained.push((ids, batch.sig_verdicts));
        reports.push(report);
    }

    assert_eq!(
        reports[0], reports[1],
        "report identical for 1 vs 8 workers"
    );
    assert_eq!(reports[0].admitted, 8);
    assert_eq!(reports[0].rejected, 4);
    assert_eq!(
        drained[0], drained[1],
        "pool contents and cached verdicts identical for 1 vs 8 workers"
    );
}

#[test]
fn admitted_batch_mines_without_rerunning_precheck_or_signatures() {
    let (mut chain, wallets) = chain_with_users(10);
    let (telemetry, recorder) = Telemetry::in_memory();
    chain.set_telemetry(telemetry.clone());
    let mut miner = Miner::new(
        Wallet::from_seed(b"sig-miner").address(),
        MempoolConfig::default(),
    );
    miner.set_telemetry(telemetry);

    let txs: Vec<McTransaction> = wallets
        .iter()
        .map(|w| {
            w.pay(
                &chain,
                Address::from_label("bob"),
                Amount::from_units(5),
                Amount::from_units(1),
            )
            .unwrap()
        })
        .collect();
    let report = miner.submit_batch(&chain, txs, 2, |_, _| {});
    assert_eq!(report.admitted, 10);
    assert_eq!(report.sig_checks, 10);

    let block = miner.mine(&mut chain, 1).unwrap();
    assert_eq!(block.transactions.len(), 11, "coinbase + the whole batch");

    let snapshot = recorder.snapshot();
    assert_eq!(
        snapshot.counters.get("mc.precheck.skipped").copied(),
        Some(10),
        "block building trusts admission's stage-1 for every candidate"
    );
    assert_eq!(
        snapshot
            .counters
            .get("mc.precheck.run")
            .copied()
            .unwrap_or(0),
        0
    );
    assert_eq!(
        snapshot.counters.get("mc.sig_cache.hit").copied(),
        Some(20),
        "every verdict comes from the admission cache, consulted twice \
         per signature: at template build and at block connect"
    );
    assert_eq!(
        snapshot
            .counters
            .get("mc.sig_cache.miss")
            .copied()
            .unwrap_or(0),
        0
    );

    // An independent verifier — no cache, full inline checks — accepts
    // the block: skipping at build time changed nothing observable.
    let mut replay = Blockchain::new(chain.params().clone());
    assert!(matches!(
        replay.submit_block(block).unwrap(),
        SubmitOutcome::ExtendedActiveChain
    ));
}

#[test]
fn forged_verdict_fools_only_the_local_builder_never_consensus() {
    let (chain, wallets) = chain_with_users(1);
    let bad = tamper(
        &wallets[0]
            .pay(
                &chain,
                Address::from_label("bob"),
                Amount::from_units(10),
                Amount::from_units(1),
            )
            .unwrap(),
    );
    let McTransaction::Transfer(t) = &bad else {
        unreachable!()
    };
    let forged_key = sig_cache_key(&bad.txid(), &t.inputs[0], &t.sighash());

    // Without a verdict the builder falls back to inline verification
    // and drops the forged transfer from the template.
    let honest = chain
        .prepare_block(
            Address::from_label("miner"),
            BlockCandidates::admitted(vec![bad.clone()], HashMap::new()),
            1,
        )
        .unwrap();
    assert_eq!(honest.block.transactions.len(), 1, "coinbase only");

    // A forged `true` verdict makes the *local* builder include it…
    let poisoned = chain
        .prepare_block(
            Address::from_label("miner"),
            BlockCandidates::admitted(vec![bad], HashMap::from([(forged_key, true)])),
            1,
        )
        .unwrap();
    assert_eq!(
        poisoned.block.transactions.len(),
        2,
        "poisoned cache smuggles the forged transfer into the template"
    );

    // …but consensus is not the cache: an independent chain verifies
    // the signature itself and rejects the block.
    let mut replay = Blockchain::new(chain.params().clone());
    assert!(matches!(
        replay.submit_block(poisoned.block),
        Err(BlockError::BadInputAuthorization { input: 0 })
    ));
}
