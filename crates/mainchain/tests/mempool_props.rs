//! Property-based mempool invariants: the byte/count budget is never
//! exceeded, online eviction keeps exactly the highest-priority
//! entries, duplicates never double-pool (even across evictions), the
//! block template is priority-sorted, confirmed-removal matches the
//! filter semantics of the old FIFO pool, and random sequences of every
//! pool operation agree step by step with a sorted-`Vec` model.

use std::cmp::Reverse;

use proptest::prelude::*;
use zendoo_core::ids::{Address, Amount};
use zendoo_mainchain::mempool::{class_of, AdmitOutcome, Mempool, MempoolConfig, TxClass};
use zendoo_mainchain::transaction::{McTransaction, OutPoint, Output, TransferTx, TxIn, TxOut};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::schnorr::Keypair;

/// A structurally distinct single-input transfer (the pool never
/// checks signatures; distinctness of the txid is what matters).
fn transfer(n: u64) -> McTransaction {
    let kp = Keypair::from_seed(&n.to_le_bytes());
    McTransaction::Transfer(TransferTx {
        inputs: vec![TxIn {
            outpoint: OutPoint {
                txid: Digest32::hash_bytes(&n.to_le_bytes()),
                index: 0,
            },
            pubkey: kp.public,
            signature: kp.secret.sign("prop", b"sig"),
        }],
        outputs: vec![Output::Regular(TxOut::regular(
            Address::from_label("dst"),
            Amount::from_units(1),
        ))],
    })
}

/// Transaction `n` of the model's universe: every fifth one a
/// settlement-class escrow claim, the rest transfers; both with 1–4
/// outputs, so sizes differ and the byte budget binds unevenly.
fn model_tx(n: u64) -> McTransaction {
    let outputs = (0..=n % 4)
        .map(|i| {
            Output::Regular(TxOut::regular(
                Address::from_label("dst"),
                Amount::from_units(i + 1),
            ))
        })
        .collect();
    if n % 5 == 4 {
        let escrowed = OutPoint {
            txid: Digest32::hash_bytes(&n.to_le_bytes()),
            index: 0,
        };
        return McTransaction::Transfer(TransferTx::escrow_claiming(&[escrowed], outputs));
    }
    let McTransaction::Transfer(mut tx) = transfer(n) else {
        unreachable!("transfer builds a transfer");
    };
    tx.outputs = outputs;
    McTransaction::Transfer(tx)
}

/// One entry of the model pool.
struct ModelEntry {
    txid: Digest32,
    key: (TxClass, u64, Reverse<u64>),
    size: usize,
    verified: bool,
}

/// The pool as a plain `Vec`: admission evicts the minimum key while
/// over budget, and a template is the keys sorted descending.
struct Model {
    entries: Vec<ModelEntry>,
    max_count: usize,
    max_bytes: usize,
    next_seq: u64,
}

impl Model {
    fn bytes(&self) -> usize {
        self.entries.iter().map(|e| e.size).sum()
    }

    fn admit(&mut self, tx: &McTransaction, fee: u64, verified: bool) -> AdmitOutcome {
        let txid = tx.txid();
        if self.entries.iter().any(|e| e.txid == txid) {
            return AdmitOutcome::Duplicate;
        }
        let size = tx.encoded_size();
        let key = (
            class_of(tx),
            fee.saturating_mul(1000) / size as u64,
            Reverse(self.next_seq),
        );
        while self.entries.len() >= self.max_count || self.bytes() + size > self.max_bytes {
            let lowest = (0..self.entries.len()).min_by_key(|&i| self.entries[i].key);
            match lowest {
                Some(i) if self.entries[i].key < key => {
                    self.entries.remove(i);
                }
                _ => return AdmitOutcome::RejectedFull,
            }
        }
        self.next_seq += 1;
        self.entries.push(ModelEntry {
            txid,
            key,
            size,
            verified,
        });
        AdmitOutcome::Admitted
    }

    /// The first `max` entries in template order, removed.
    fn take(&mut self, max: usize) -> Vec<ModelEntry> {
        self.entries.sort_by_key(|e| Reverse(e.key));
        let n = max.min(self.entries.len());
        self.entries.drain(..n).collect()
    }
}

/// The pool's priority key, reimplemented for the oracle: class, then
/// fee rate (units per 1000 encoded bytes), then oldest-first.
fn priority(tx: &McTransaction, fee: u64, seq: usize) -> (TxClass, u64, std::cmp::Reverse<usize>) {
    let size = tx.encoded_size() as u64;
    (
        class_of(tx),
        fee.saturating_mul(1000) / size.max(1),
        std::cmp::Reverse(seq),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The byte and count budgets hold after every single admission,
    /// and every admission reports a truthful outcome.
    #[test]
    fn prop_pool_never_exceeds_its_budget(
        fees in proptest::collection::vec(0u64..10_000, 1..60),
        max_count in 1usize..20,
    ) {
        let mut pool = Mempool::with_config(MempoolConfig {
            max_count,
            max_bytes: usize::MAX,
        });
        for (i, fee) in fees.iter().enumerate() {
            let tx = transfer(i as u64);
            let outcome = pool.admit(tx.clone(), tx.txid(), Amount::from_units(*fee), vec![]);
            prop_assert!(pool.len() <= max_count, "count budget violated");
            match outcome {
                AdmitOutcome::Admitted => prop_assert!(pool.contains(&tx.txid())),
                AdmitOutcome::RejectedFull => prop_assert!(!pool.contains(&tx.txid())),
                AdmitOutcome::Duplicate => prop_assert!(false, "all txids distinct"),
            }
        }
    }

    /// Online eviction is optimal: after any admission sequence, the
    /// survivors are exactly the top-`max_count` by priority of
    /// everything offered (admission order never matters beyond the
    /// age tiebreak).
    #[test]
    fn prop_eviction_keeps_exactly_the_top_priorities(
        fees in proptest::collection::vec(0u64..10_000, 1..60),
        max_count in 1usize..20,
    ) {
        let mut pool = Mempool::with_config(MempoolConfig {
            max_count,
            max_bytes: usize::MAX,
        });
        let txs: Vec<McTransaction> = (0..fees.len() as u64).map(transfer).collect();
        for (i, (tx, fee)) in txs.iter().zip(&fees).enumerate() {
            pool.admit(tx.clone(), tx.txid(), Amount::from_units(*fee), vec![]);
            // Oracle: the top-min(i+1, cap) of everything seen so far.
            let mut seen: Vec<usize> = (0..=i).collect();
            seen.sort_by_key(|&j| std::cmp::Reverse(priority(&txs[j], fees[j], j)));
            seen.truncate(max_count);
            for (rank, &j) in seen.iter().enumerate() {
                prop_assert!(
                    pool.contains(&txs[j].txid()),
                    "after admission {i}: rank-{rank} tx {j} missing"
                );
            }
            prop_assert_eq!(pool.len(), seen.len());
        }
    }

    /// `take_ordered` drains the pool highest-priority-first — exactly
    /// the oracle's sort.
    #[test]
    fn prop_template_order_matches_priority_sort(
        fees in proptest::collection::vec(0u64..10_000, 1..40),
    ) {
        let mut pool = Mempool::with_config(MempoolConfig {
            max_count: usize::MAX,
            max_bytes: usize::MAX,
        });
        let txs: Vec<McTransaction> = (0..fees.len() as u64).map(transfer).collect();
        for (i, (tx, fee)) in txs.iter().zip(&fees).enumerate() {
            prop_assert_eq!(
                pool.admit(tx.clone(), tx.txid(), Amount::from_units(*fee), vec![]),
                AdmitOutcome::Admitted,
                "unbounded pool admits everything ({i})"
            );
        }
        let mut expected: Vec<usize> = (0..txs.len()).collect();
        expected.sort_by_key(|&j| std::cmp::Reverse(priority(&txs[j], fees[j], j)));
        let drained: Vec<Digest32> =
            pool.take_ordered(usize::MAX).txs.iter().map(|t| t.txid()).collect();
        let expected: Vec<Digest32> =
            expected.into_iter().map(|j| txs[j].txid()).collect();
        prop_assert_eq!(drained, expected);
        prop_assert!(pool.is_empty());
        prop_assert_eq!(pool.bytes(), 0);
    }

    /// Duplicates never double-pool, and an evicted txid is no longer
    /// a duplicate — it may be re-offered and judged on its fee alone.
    #[test]
    fn prop_dedup_holds_across_eviction(
        fee_a in 0u64..100,
        fee_b in 101u64..10_000,
    ) {
        let mut pool = Mempool::with_config(MempoolConfig {
            max_count: 1,
            max_bytes: usize::MAX,
        });
        let victim = transfer(1);
        prop_assert_eq!(
            pool.admit(victim.clone(), victim.txid(), Amount::from_units(fee_a), vec![]),
            AdmitOutcome::Admitted
        );
        prop_assert_eq!(
            pool.admit(victim.clone(), victim.txid(), Amount::from_units(fee_a), vec![]),
            AdmitOutcome::Duplicate
        );
        prop_assert_eq!(pool.len(), 1, "duplicate never double-pools");
        // A strictly higher fee rate evicts it…
        prop_assert_eq!(
            pool.admit(transfer(2), transfer(2).txid(), Amount::from_units(fee_b), vec![]),
            AdmitOutcome::Admitted
        );
        prop_assert!(!pool.contains(&victim.txid()));
        // …after which the txid is fresh again, and a matching high
        // fee re-admits it.
        prop_assert_eq!(
            pool.admit(victim.clone(), victim.txid(), Amount::from_units(fee_b * 2), vec![]),
            AdmitOutcome::Admitted
        );
        prop_assert!(pool.contains(&victim.txid()));
        prop_assert_eq!(pool.len(), 1);
    }

    /// `remove_confirmed` drops exactly the confirmed subset — the
    /// O(confirmed) shard-index path agrees with filter semantics.
    #[test]
    fn prop_remove_confirmed_matches_filter(
        n in 1usize..40,
        picks in proptest::collection::vec(any::<bool>(), 40..41),
    ) {
        let mut pool = Mempool::with_config(MempoolConfig {
            max_count: usize::MAX,
            max_bytes: usize::MAX,
        });
        let txs: Vec<McTransaction> = (0..n as u64).map(transfer).collect();
        for (i, tx) in txs.iter().enumerate() {
            pool.admit(tx.clone(), tx.txid(), Amount::from_units(i as u64), vec![]);
        }
        let confirmed: Vec<Digest32> = txs
            .iter()
            .zip(&picks)
            .filter(|(_, &pick)| pick)
            .map(|(tx, _)| tx.txid())
            .collect();
        pool.remove_confirmed(&confirmed);
        for (tx, &pick) in txs.iter().zip(&picks) {
            prop_assert_eq!(pool.contains(&tx.txid()), !pick);
        }
        prop_assert_eq!(pool.len(), n - confirmed.len());
    }

    /// Random sequences of `admit`, `admit_unverified`,
    /// `remove_confirmed` and `take_ordered` under a count and a byte
    /// budget agree with the `Vec` model after every operation: each
    /// admission outcome, membership of every transaction, `len`,
    /// `bytes`, and each template's order, ids, verdicts and
    /// unverified marks.
    #[test]
    fn prop_every_operation_agrees_with_the_sorted_vec_model(
        ops in proptest::collection::vec((0u8..4, 0u64..24, 0u64..10_000), 1..80),
        max_count in 1usize..10,
        max_bytes in 150usize..1_500,
    ) {
        let universe: Vec<McTransaction> = (0..24).map(model_tx).collect();
        let verdict_key = |txid: &Digest32| Digest32::hash_bytes(txid.as_bytes());
        let mut pool = Mempool::with_config(MempoolConfig { max_count, max_bytes });
        let mut model = Model { entries: Vec::new(), max_count, max_bytes, next_seq: 0 };
        for (step, &(op, n, arg)) in ops.iter().enumerate() {
            let tx = &universe[n as usize];
            match op {
                0 | 1 => {
                    // Five fee levels, so equal fee rates (the age
                    // tiebreak) are common.
                    let units = arg % 5 * 1_000;
                    let fee = Amount::from_units(units);
                    let outcome = if op == 0 {
                        pool.admit(tx.clone(), tx.txid(), fee, vec![(verdict_key(&tx.txid()), true)])
                    } else {
                        pool.admit_unverified(tx.clone(), tx.txid(), fee)
                    };
                    prop_assert_eq!(outcome, model.admit(tx, units, op == 0), "step {}", step);
                }
                2 => {
                    let other = &universe[((n + arg) % 24) as usize];
                    let confirmed = [tx.txid(), other.txid()];
                    pool.remove_confirmed(&confirmed);
                    model.entries.retain(|e| !confirmed.contains(&e.txid));
                }
                _ => {
                    let max = (arg % 6) as usize;
                    let batch = pool.take_ordered(max);
                    let expected = model.take(max);
                    let txids: Vec<Digest32> = expected.iter().map(|e| e.txid).collect();
                    prop_assert_eq!(&batch.txids, &txids, "template order at step {}", step);
                    let drained: Vec<Digest32> = batch.txs.iter().map(|t| t.txid()).collect();
                    prop_assert_eq!(&drained, &txids);
                    let unverified: Vec<usize> =
                        (0..expected.len()).filter(|&i| !expected[i].verified).collect();
                    prop_assert_eq!(&batch.unverified, &unverified);
                    let mut verdicts: Vec<Digest32> = batch.sig_verdicts.keys().copied().collect();
                    let mut expected_verdicts: Vec<Digest32> = expected
                        .iter()
                        .filter(|e| e.verified)
                        .map(|e| verdict_key(&e.txid))
                        .collect();
                    verdicts.sort();
                    expected_verdicts.sort();
                    prop_assert_eq!(verdicts, expected_verdicts);
                }
            }
            prop_assert_eq!(pool.len(), model.entries.len(), "len at step {}", step);
            prop_assert_eq!(pool.bytes(), model.bytes(), "bytes at step {}", step);
            prop_assert!(pool.len() <= max_count && pool.bytes() <= max_bytes);
            for candidate in &universe {
                let txid = candidate.txid();
                prop_assert_eq!(
                    pool.contains(&txid),
                    model.entries.iter().any(|e| e.txid == txid),
                    "membership at step {}", step
                );
            }
        }
    }
}
