//! Adversarial batched-admission tests: tampered signatures die at
//! admission, worker parallelism never changes the admitted set, an
//! admitted batch mines without re-running stage-1 or signature
//! verification, its block walked once — and a *forged* verdict cache
//! can fool only the local builder, never an independent verifier. Each worker's chunk
//! is one batch equation: the forgeries a plain sum of the verification
//! equations would accept are flagged at their indices, and the verdict
//! vector equals the per-signature oracle for every worker count.

use std::collections::HashMap;

use proptest::prelude::*;
use zendoo_core::ids::{Address, Amount};
use zendoo_mainchain::chain::{
    BlockCandidates, BlockError, Blockchain, ChainParams, SubmitOutcome,
};
use zendoo_mainchain::mempool::{Mempool, MempoolConfig};
use zendoo_mainchain::miner::Miner;
use zendoo_mainchain::sigbatch::{
    admit_batch_with, sig_cache_key, verify_sig_batch, verify_sig_batch_with, SigCheck,
};
use zendoo_mainchain::transaction::{McTransaction, OutPoint, Output, TransferTx, TxOut};
use zendoo_mainchain::wallet::Wallet;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::field::Fr;
use zendoo_primitives::opcount::measure;
use zendoo_primitives::schnorr::{Keypair, Signature};
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
    let telemetry = Telemetry::in_memory();
    chain.set_telemetry(telemetry.clone());
    let mut miner = Miner::new(
        Wallet::from_seed(b"sig-miner").address(),
        MempoolConfig::default(),
    );
    miner.set_telemetry(telemetry.clone());

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

    let block = miner.mine(&mut chain, 1).unwrap().block;
    assert_eq!(block.transactions.len(), 11, "coinbase + the whole batch");

    let snapshot = telemetry.snapshot();
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
        Some(10),
        "every verdict comes from the admission cache, consulted once \
         per signature: by the one walk that builds and connects the block"
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

/// Transfers pooled one at a time (`Miner::submit_transaction`, the
/// path every queued mainchain transaction of a simulated world takes)
/// carry no verdict: the builder verifies their signatures as one batch
/// before its walk, and that one walk, which connects the block,
/// answers every signature from the batch — nothing is verified at a
/// submission, since the node's own block has none. The batch runs on
/// one lane per core, and operation counts are per thread, so the build
/// is read off the batch histogram, which no worker count changes.
#[test]
fn queued_transfers_are_verified_once_at_build_and_never_at_submit() {
    let (mut chain, wallets) = chain_with_users(6);
    let mut miner = Miner::new(
        Wallet::from_seed(b"sig-miner").address(),
        MempoolConfig::default(),
    );
    for wallet in &wallets {
        let tx = wallet
            .pay(
                &chain,
                Address::from_label("bob"),
                Amount::from_units(5),
                Amount::from_units(1),
            )
            .unwrap();
        miner.submit_transaction(&chain, tx).unwrap();
    }
    let telemetry = Telemetry::in_memory();
    chain.set_telemetry(telemetry.clone());
    let mined = miner.mine(&mut chain, 1).unwrap();
    assert_eq!(mined.block.transactions.len(), 7);
    assert_eq!(chain.tip_hash(), mined.block.hash());
    let building = telemetry.drain();
    assert_eq!(
        building.histograms["sig.batch.sigs"].sum(),
        6,
        "each signature once, at build"
    );
    assert_eq!(building.spans["sig.batch.verify"].count, 1, "in one batch");
    assert_eq!(building.spans["mc.stage3.apply"].count, 1, "one walk");
    assert!(
        !building.spans.contains_key("mc.stage1.precheck"),
        "the node's own block runs no stage 1"
    );
    assert_eq!(building.counters.get("mc.sig_cache.hit"), Some(&6));
    assert_eq!(
        building
            .counters
            .get("mc.sig_cache.miss")
            .copied()
            .unwrap_or(0),
        0,
        "the walk re-verifies nothing"
    );
    assert_eq!(building.counters.get("mc.blocks_connected"), Some(&1));
}

/// One bad signature among transfers pooled one at a time — first, in
/// the middle or last — goes through the builder's batch with the
/// others: the bad transfer leaves the template as
/// `BadInputAuthorization` and every other one confirms. The verdicts of exactly the checks the builder queues equal
/// the per-signature oracle on 1, 2 and 4 workers, so the template is
/// the same whatever lanes the build host has.
#[test]
fn a_bad_signature_among_queued_transfers_is_dropped_wherever_it_sits() {
    const USERS: usize = 7;
    for at in [0, USERS / 2, USERS - 1] {
        let (mut chain, wallets) = chain_with_users(USERS);
        let mut miner = Miner::new(
            Wallet::from_seed(b"sig-miner").address(),
            MempoolConfig::default(),
        );
        let txs: Vec<McTransaction> = wallets
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let tx = w
                    .pay(
                        &chain,
                        Address::from_label("bob"),
                        Amount::from_units(5),
                        Amount::from_units(1),
                    )
                    .unwrap();
                if i == at {
                    tamper(&tx)
                } else {
                    tx
                }
            })
            .collect();
        for tx in &txs {
            miner.submit_transaction(&chain, tx.clone()).unwrap();
        }

        let queued: Vec<SigCheck> = txs
            .iter()
            .map(|tx| {
                let McTransaction::Transfer(t) = tx else {
                    unreachable!()
                };
                SigCheck {
                    txid: tx.txid(),
                    input: 0,
                    tx_in: t.inputs[0].clone(),
                    sighash: t.sighash(),
                }
            })
            .collect();
        let expected: Vec<bool> = (0..USERS).map(|i| i != at).collect();
        assert_eq!(oracle(&queued), expected);
        for workers in [1, 2, 4] {
            assert_eq!(
                verify_sig_batch(&queued, workers),
                expected,
                "bad at {at}, workers={workers}"
            );
        }

        let telemetry = Telemetry::in_memory();
        chain.set_telemetry(telemetry.clone());
        let mined = miner.mine(&mut chain, 1).unwrap();
        assert_eq!(
            mined.rejected,
            vec![(
                txs[at].clone(),
                BlockError::BadInputAuthorization { input: 0 }
            )],
            "bad at {at}"
        );
        let confirmed: Vec<&McTransaction> = txs.iter().filter(|tx| *tx != &txs[at]).collect();
        assert_eq!(
            mined.block.transactions[1..].iter().collect::<Vec<_>>(),
            confirmed
        );
        let building = telemetry.drain();
        assert_eq!(
            building.histograms["sig.batch.sigs"].sum(),
            USERS as u64,
            "every queued signature went through the batch"
        );
        assert_eq!(chain.tip_hash(), mined.block.hash());
        assert_eq!(
            chain.state().utxos.balance_of(&Address::from_label("bob")),
            Amount::from_units(5 * (USERS as u64 - 1))
        );
        // A node given the block alone verifies every signature itself
        // and agrees.
        let mut replay = Blockchain::new(chain.params().clone());
        assert!(matches!(
            replay.submit_block(mined.block),
            Ok(SubmitOutcome::ExtendedActiveChain)
        ));
    }
}

/// Transfers that came through batch admission carry their verdicts
/// into the template: the build queues no check, runs no batch and no
/// group multiplication, and answers every signature from the cache.
#[test]
fn batch_admitted_transfers_queue_no_checks_at_build() {
    let (mut chain, wallets) = chain_with_users(5);
    let mut miner = Miner::new(
        Wallet::from_seed(b"sig-miner").address(),
        MempoolConfig::default(),
    );
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
    assert_eq!(miner.submit_batch(&chain, txs, 2, |_, _| {}).admitted, 5);

    let telemetry = Telemetry::in_memory();
    chain.set_telemetry(telemetry.clone());
    let (mined, building) = measure(|| miner.mine(&mut chain, 1).unwrap());
    assert_eq!(mined.block.transactions.len(), 6);
    assert_eq!(building.group_muls, 0, "nothing verified at build");
    let snapshot = telemetry.drain();
    assert!(!snapshot.histograms.contains_key("sig.batch.sigs"));
    assert!(!snapshot.spans.contains_key("sig.batch.verify"));
    assert_eq!(snapshot.counters.get("mc.sig_cache.hit"), Some(&5));
    assert_eq!(
        snapshot
            .counters
            .get("mc.sig_cache.miss")
            .copied()
            .unwrap_or(0),
        0
    );
}

#[test]
fn forged_verdict_fools_only_the_local_builder_never_consensus() {
    let (mut chain, wallets) = chain_with_users(1);
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
    // and drops the forged transfer from its block.
    let honest = chain
        .mine_next(
            Address::from_label("miner"),
            BlockCandidates::admitted(vec![bad.clone()], HashMap::new()),
            1,
        )
        .unwrap();
    assert_eq!(honest.block.transactions.len(), 1, "coinbase only");
    assert_eq!(
        honest.rejected,
        vec![(bad.clone(), BlockError::BadInputAuthorization { input: 0 })]
    );

    // A forged `true` verdict makes the *local* builder's one walk
    // include it, and that walk is the local connect…
    let poisoned = chain
        .mine_next(
            Address::from_label("miner"),
            BlockCandidates::admitted(vec![bad], HashMap::from([(forged_key, true)])),
            2,
        )
        .unwrap();
    assert_eq!(
        poisoned.block.transactions.len(),
        2,
        "poisoned cache smuggles the forged transfer into the block"
    );
    assert!(poisoned.rejected.is_empty());
    assert_eq!(chain.tip_hash(), poisoned.block.hash());

    // …but consensus is not the cache: an independent chain verifies
    // the signature itself, takes the honest block and refuses the
    // poisoned one, its tip unmoved.
    let mut replay = Blockchain::new(chain.params().clone());
    replay.submit_block(honest.block).unwrap();
    let tip = replay.tip_hash();
    assert!(matches!(
        replay.submit_block(poisoned.block),
        Err(BlockError::BadInputAuthorization { input: 0 })
    ));
    assert_eq!(replay.tip_hash(), tip);
}

// ---- One equation per chunk: verdicts equal the per-signature oracle ------

const WORKERS: [usize; 5] = [1, 2, 3, 8, 64];

/// `n` valid one-input checks under distinct keys, as admission queues
/// them.
fn checks(n: u64) -> Vec<SigCheck> {
    (0..n)
        .map(|i| {
            let kp = Keypair::from_seed(&i.to_le_bytes());
            let tx = TransferTx::signed(
                &[(
                    OutPoint {
                        txid: Digest32::hash_bytes(&i.to_le_bytes()),
                        index: 0,
                    },
                    &kp.secret,
                )],
                vec![Output::Regular(TxOut::regular(
                    Address::from_label("dst"),
                    Amount::from_units(i + 1),
                ))],
            );
            SigCheck {
                txid: McTransaction::Transfer(tx.clone()).txid(),
                input: 0,
                tx_in: tx.inputs[0].clone(),
                sighash: tx.sighash(),
            }
        })
        .collect()
}

/// The oracle the batch stands in for: every signature on its own.
fn oracle(checks: &[SigCheck]) -> Vec<bool> {
    checks.iter().map(SigCheck::verify).collect()
}

/// Asserts the batch verdicts equal the oracle's — and `expected` — for
/// every worker count, twice over.
fn assert_verdicts(checks: &[SigCheck], expected: &[bool]) {
    assert_eq!(oracle(checks), expected);
    for workers in WORKERS {
        for _ in 0..2 {
            assert_eq!(
                verify_sig_batch(checks, workers),
                expected,
                "workers={workers}"
            );
        }
    }
}

/// `(R, s)` of a signature, as bytes and scalar.
fn split(sig: &Signature) -> ([u8; 33], Fr) {
    let bytes = sig.to_bytes();
    let s = Fr::from_be_bytes_canonical(bytes[33..].try_into().unwrap()).unwrap();
    (bytes[..33].try_into().unwrap(), s)
}

fn join(r: [u8; 33], s: Fr) -> Signature {
    let mut bytes = [0u8; 65];
    bytes[..33].copy_from_slice(&r);
    bytes[33..].copy_from_slice(&s.to_be_bytes());
    Signature::from_bytes(&bytes).unwrap()
}

#[test]
fn forgeries_a_plain_sum_accepts_are_flagged_at_their_indices() {
    let n = 8;
    let valid = checks(n);
    assert_verdicts(&valid, &vec![true; n as usize]);
    let flagged =
        |bad: &[usize]| -> Vec<bool> { (0..n as usize).map(|i| !bad.contains(&i)).collect() };

    // s₁ + δ beside s₂ − δ: the two errors cancel in an unweighted sum.
    let mut batch = valid.clone();
    let delta = Fr::from_u64(7);
    let (r1, s1) = split(&batch[1].tx_in.signature);
    let (r2, s2) = split(&batch[2].tx_in.signature);
    batch[1].tx_in.signature = join(r1, s1 + delta);
    batch[2].tx_in.signature = join(r2, s2 - delta);
    assert_verdicts(&batch, &flagged(&[1, 2]));

    // Two checks trade nonce points: Σ Rᵢ does not change.
    let mut batch = valid.clone();
    let (r0, s0) = split(&batch[0].tx_in.signature);
    let (r5, s5) = split(&batch[5].tx_in.signature);
    batch[0].tx_in.signature = join(r5, s0);
    batch[5].tx_in.signature = join(r0, s5);
    assert_verdicts(&batch, &flagged(&[0, 5]));

    // The same valid check twice is twice valid.
    let mut batch = valid.clone();
    batch[6] = batch[3].clone();
    assert_verdicts(&batch, &flagged(&[]));

    // One bad signature at the first, a middle and the last index.
    for at in [0, n as usize / 2, n as usize - 1] {
        let mut batch = valid.clone();
        batch[at].sighash = Digest32::hash_bytes(b"another message");
        assert_verdicts(&batch, &flagged(&[at]));
    }

    // Nothing but bad signatures.
    let mut batch = valid.clone();
    for check in &mut batch {
        let (r, s) = split(&check.tx_in.signature);
        check.tx_in.signature = join(r, s + Fr::one());
    }
    assert_verdicts(&batch, &vec![false; n as usize]);
}

#[test]
fn a_failed_equation_is_counted_once_per_chunk() {
    let fallbacks = |batch: &[SigCheck], workers| {
        let telemetry = Telemetry::in_memory();
        let verdicts = verify_sig_batch_with(batch, workers, &telemetry);
        assert_eq!(verdicts, oracle(batch));
        let snapshot = telemetry.snapshot();
        assert_eq!(
            snapshot.histograms["sig.batch.sigs"].sum(),
            batch.len() as u64
        );
        assert_eq!(snapshot.spans["sig.batch.verify"].count, 1);
        snapshot.counters.get("sig.batch.fallback").copied()
    };
    let valid = checks(8);
    assert_eq!(fallbacks(&valid, 2), None, "every equation held");
    let mut batch = valid.clone();
    batch[1].tx_in.signature = valid[2].tx_in.signature;
    assert_eq!(fallbacks(&batch, 1), Some(1));
    assert_eq!(fallbacks(&batch, 2), Some(1), "the second chunk's held");
    batch[6].tx_in.signature = valid[2].tx_in.signature;
    assert_eq!(fallbacks(&batch, 2), Some(2));
    // Chunks of one have no equation to fail: they are `verify`.
    assert_eq!(fallbacks(&batch, 8), None);

    // The same counter at admission: junk is refused, and seen.
    let (chain, wallets) = chain_with_users(4);
    let txs: Vec<McTransaction> = wallets
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let tx = w
                .pay(
                    &chain,
                    Address::from_label("bob"),
                    Amount::from_units(10),
                    Amount::from_units(1),
                )
                .unwrap();
            if i == 3 {
                tamper(&tx)
            } else {
                tx
            }
        })
        .collect();
    let telemetry = Telemetry::in_memory();
    let report = admit_batch_with(
        &mut Mempool::new(),
        chain.state(),
        txs,
        1,
        &telemetry,
        |_, _| {},
    );
    assert_eq!((report.admitted, report.rejected), (3, 1));
    assert_eq!(
        telemetry.snapshot().counters.get("sig.batch.fallback"),
        Some(&1)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_verdicts_equal_the_per_signature_oracle(
        n in 1u64..20,
        corrupt in proptest::collection::vec((0usize..20, 0u8..4), 0..6),
    ) {
        let mut batch = checks(n);
        let donor = checks(21).pop().unwrap();
        for (at, how) in corrupt {
            let check = &mut batch[at % n as usize];
            let (r, s) = split(&check.tx_in.signature);
            match how {
                0 => check.tx_in.signature = join(r, s + Fr::one()),
                1 => check.tx_in.signature = join(split(&donor.tx_in.signature).0, s),
                2 => check.sighash = donor.sighash,
                _ => check.tx_in.pubkey = donor.tx_in.pubkey,
            }
        }
        let expected = oracle(&batch);
        for workers in WORKERS {
            prop_assert_eq!(&verify_sig_batch(&batch, workers), &expected, "workers={}", workers);
            prop_assert_eq!(&verify_sig_batch(&batch, workers), &expected, "again, workers={}", workers);
        }
    }
}
