//! Property-based mempool invariants: the byte/count budget is never
//! exceeded, online eviction keeps exactly the highest-priority
//! entries, duplicates never double-pool (even across evictions), the
//! merged block template is priority-sorted, and confirmed-removal
//! matches the filter semantics of the old FIFO pool.

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
            shards: 4,
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
            shards: 4,
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

    /// `take_ordered` drains the merged shards highest-priority-first
    /// — exactly the oracle's sort, for any shard count.
    #[test]
    fn prop_template_order_matches_priority_sort(
        fees in proptest::collection::vec(0u64..10_000, 1..40),
        shards in 1usize..9,
    ) {
        let mut pool = Mempool::with_config(MempoolConfig {
            shards,
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
            shards: 2,
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
            shards: 4,
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
}
