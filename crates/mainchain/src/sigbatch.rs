//! Batched transfer-signature verification, at mempool admission, at
//! block build and when a receiving node discharges a block's deferred
//! checks.
//!
//! Wherever two or more transfer signatures are checked together, what
//! verifies them is one randomised equation over the whole lot
//! ([`zendoo_primitives::schnorr::verify_batch`]): one multi-scalar
//! evaluation on one shared chain of doublings instead of one per
//! signature — a validator's one cost still linear in traffic, at
//! about 0.4 of the per-signature price, and less for a signer whose key
//! the chunk already holds (one key term per signer). [`verify_sig_batch_with`] cuts
//! the checks into one contiguous chunk per worker
//! ([`zendoo_snark::batch::fan_out`]), each chunk one equation. An
//! equation that fails says *that* its chunk holds a bad signature, not
//! which: the chunk is re-verified signature by signature
//! ([`SigCheck::verify`]) — the per-signature check is the definition,
//! the equation only a faster way to the same verdict vector. It has
//! three callers, and each signature meets only one of them on a node
//! before the block carrying it connects:
//!
//! * **admission** ([`admit_batch_with`]): stage-1 precheck, input
//!   resolution against the confirmed UTXO set (establishing each
//!   transaction's fee for the mempool's priority index), the batch,
//!   and fee-prioritized pooling. Every verdict is cached under
//!   [`sig_cache_key`] (txid + key + message + signature, so a verdict
//!   can never authorize anything but the exact signature it was
//!   computed for) and travels with the pooled entry into the block
//!   template: the miner's stage-3 dry run consults the cache
//!   ([`crate::pipeline::ProofVerdicts::sigs`]) and re-verifies nothing;
//! * **block build** (`Blockchain::prepare_block`): the template's
//!   entries pooled one at a time without a check
//!   (`Miner::submit_transaction` marks them unverified) are verified
//!   against the pre-block state before the dry run, under the ids they
//!   were pooled with, into the same cache
//!   ([`verify_transfer_signatures`]) — entries that came with verdicts
//!   cost nothing here. An input that resolves only inside the block
//!   is verified by the dry run, once, and recorded;
//! * **a receiving node** connecting a block nobody vouched for: stage
//!   3 walks the block once and owes every signature it meets, in-block
//!   spends included, and stage 2 verifies them all as one batch
//!   ([`crate::pipeline::ProofVerdicts::discharge`]).
//!
//! Batching, parallelism and caching are optimizations, never a
//! semantic change.

use std::collections::HashMap;

use zendoo_core::ids::{Address, Amount};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::schnorr;
use zendoo_snark::batch::{default_workers, fan_out};
use zendoo_telemetry::Telemetry;

use crate::chain::{BlockError, ChainState};
use crate::mempool::{fee_of, AdmitOutcome, Mempool};
use crate::transaction::{McTransaction, OutputKind, TransferTx, TxIn, SIGHASH_CONTEXT};

/// The cache key of one signature verdict: binds the transaction, the
/// key, the signed message *and* the signature bytes, so a cached
/// `true` can only ever answer the exact check that produced it.
pub fn sig_cache_key(txid: &Digest32, input: &TxIn, sighash: &Digest32) -> Digest32 {
    Digest32::hash_tagged(
        "zendoo/sig-verdict-v1",
        &[
            txid.as_bytes(),
            &input.pubkey.to_bytes(),
            sighash.as_bytes(),
            &input.signature.to_bytes(),
        ],
    )
}

/// One pending signature verification.
#[derive(Clone, Debug)]
pub struct SigCheck {
    /// The transaction the input belongs to.
    pub txid: Digest32,
    /// Index of the input within its transaction.
    pub input: usize,
    /// The input carrying key and signature.
    pub tx_in: TxIn,
    /// The transaction's sighash (computed once per transaction).
    pub sighash: Digest32,
}

impl SigCheck {
    /// Verifies this signature alone.
    pub fn verify(&self) -> bool {
        self.tx_in.verify_signature(&self.sighash)
    }

    /// The verdict-cache key for this check.
    pub fn cache_key(&self) -> Digest32 {
        sig_cache_key(&self.txid, &self.tx_in, &self.sighash)
    }
}

/// Verifies every check, returning verdicts in check order: the checks
/// are cut into `workers` contiguous chunks and each chunk is **one**
/// batch equation ([`schnorr::verify_batch`]) on its own scoped thread.
/// `workers == 1` (or a single check) runs in the calling thread.
pub fn verify_sig_batch(checks: &[SigCheck], workers: usize) -> Vec<bool> {
    verify_sig_batch_with(checks, workers, &Telemetry::disabled())
}

/// [`verify_sig_batch`] with telemetry: records the batch size
/// (`sig.batch.sigs` histogram), per-worker wall time
/// (`sig.batch.verify.worker` span), total batch wall time
/// (`sig.batch.verify` span) and every chunk that had to be re-verified
/// one signature at a time (`sig.batch.fallback` counter).
pub fn verify_sig_batch_with(
    checks: &[SigCheck],
    workers: usize,
    telemetry: &Telemetry,
) -> Vec<bool> {
    telemetry.observe("sig.batch.sigs", checks.len() as u64);
    let _batch_span = telemetry.span("sig.batch.verify");
    let per_chunk = checks.len().div_ceil(workers.max(1)).max(1);
    let chunks: Vec<&[SigCheck]> = checks.chunks(per_chunk).collect();
    // At most `workers` chunks, so each lane of the fan-out takes one.
    fan_out(
        &chunks,
        workers,
        || telemetry.span("sig.batch.verify.worker"),
        |chunk| verify_chunk(chunk, telemetry),
    )
    .concat()
}

/// One worker's share: the whole chunk as one equation, and when that
/// fails, each signature alone. The equation says *that* a chunk holds
/// a bad signature and not which, so the fallback is linear — junk
/// signatures are free to send, and a flood of them costs one wasted
/// equation per chunk on top of the per-signature loop, where a
/// bisection would cost `n·log n`.
fn verify_chunk(chunk: &[SigCheck], telemetry: &Telemetry) -> Vec<bool> {
    if chunk.len() > 1 {
        let items: Vec<_> = chunk
            .iter()
            .map(|c| {
                let message: &[u8] = c.sighash.as_bytes();
                (
                    SIGHASH_CONTEXT,
                    &c.tx_in.pubkey,
                    message,
                    &c.tx_in.signature,
                )
            })
            .collect();
        if schnorr::verify_batch(&items) {
            return vec![true; chunk.len()];
        }
        telemetry.counter("sig.batch.fallback", 1);
    }
    chunk.iter().map(SigCheck::verify).collect()
}

/// Queues the signature checks `transfer` owes against `state`: one per
/// input that resolves to a regular output, after the cheap check that
/// the input's key hashes to that output's address. Escrow-kind inputs
/// are consensus-authorized and carry no meaningful signature;
/// unresolved inputs may spend an output that does not exist yet (an
/// earlier transaction of the same block, a payout still maturing) and
/// are left to whoever applies the transaction.
///
/// # Errors
///
/// [`BlockError::BadInputAuthorization`] at the first input whose key
/// does not match; nothing stays queued for the transaction then.
pub(crate) fn queue_sig_checks(
    state: &ChainState,
    txid: Digest32,
    transfer: &TransferTx,
    checks: &mut Vec<SigCheck>,
) -> Result<(), BlockError> {
    let start = checks.len();
    let sighash = transfer.sighash();
    for (i, input) in transfer.inputs.iter().enumerate() {
        match state.utxos.get(&input.outpoint) {
            Some(spent) if spent.kind == OutputKind::Regular => {
                if Address::from_public_key(&input.pubkey) != spent.address {
                    checks.truncate(start);
                    return Err(BlockError::BadInputAuthorization { input: i });
                }
                checks.push(SigCheck {
                    txid,
                    input: i,
                    tx_in: input.clone(),
                    sighash,
                });
            }
            Some(_) | None => {}
        }
    }
    Ok(())
}

/// Every check the transfers among `txs` (each with its id) owe against
/// `state` ([`queue_sig_checks`]), verified as one batch on one lane per
/// core, as verdicts keyed by [`sig_cache_key`] for the cache the
/// builder's dry run consults where it would otherwise verify inline. A
/// transaction whose key does not match queues nothing — the dry run
/// refuses it by the cheaper rule. The builder's candidates pooled
/// without a check are its one caller.
pub(crate) fn verify_transfer_signatures<'a>(
    state: &ChainState,
    txs: impl Iterator<Item = (&'a McTransaction, Digest32)>,
    telemetry: &Telemetry,
) -> HashMap<Digest32, bool> {
    let mut checks = Vec::new();
    for (tx, txid) in txs {
        if let McTransaction::Transfer(transfer) = tx {
            // An `Err` is stage 3's to report.
            let _ = queue_sig_checks(state, txid, transfer, &mut checks);
        }
    }
    if checks.is_empty() {
        return HashMap::new();
    }
    let workers = default_workers(checks.len());
    let verdicts = verify_sig_batch_with(&checks, workers, telemetry);
    checks
        .iter()
        .map(SigCheck::cache_key)
        .zip(verdicts)
        .collect()
}

/// What became of one admission batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionReport {
    /// Transactions pooled.
    pub admitted: usize,
    /// Transactions rejected (failed precheck, authorization, or
    /// ranked below a full pool's floor).
    pub rejected: usize,
    /// Transactions whose txid was already pooled.
    pub duplicate: usize,
    /// Signatures verified (batched).
    pub sig_checks: usize,
}

/// Admits a batch of transactions through the full stage-1 +
/// batched-signature path:
///
/// 1. stage-1 stateless precheck per transaction;
/// 2. inputs resolve against the confirmed UTXO set — resolvable
///    regular inputs queue a [`SigCheck`] (after the cheap
///    address-binding check), escrow-kind inputs are consensus-
///    authorized and skip signatures entirely, and unresolvable
///    inputs are deferred to block building (which rejects precisely);
///    the resolved input total establishes the fee for the pool's
///    priority index;
/// 3. every queued signature verifies on `workers` scoped threads
///    ([`verify_sig_batch_with`]); a transaction with any failing
///    signature is rejected;
/// 4. survivors enter the pool with their verdicts attached.
///
/// `on_reject` fires once per rejected transaction with the precise
/// error (callers route this to their rejection counters). The
/// outcome is identical for every `workers` value — parallelism never
/// changes what is admitted.
pub fn admit_batch_with<F>(
    pool: &mut Mempool,
    state: &ChainState,
    txs: Vec<McTransaction>,
    workers: usize,
    telemetry: &Telemetry,
    mut on_reject: F,
) -> AdmissionReport
where
    F: FnMut(&McTransaction, &BlockError),
{
    struct Pending {
        tx: McTransaction,
        txid: Digest32,
        fee: Amount,
        /// Range into the flat check list.
        checks: std::ops::Range<usize>,
    }

    let mut report = AdmissionReport::default();
    let mut checks: Vec<SigCheck> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();

    for tx in txs {
        let txid = tx.txid();
        if pool.contains(&txid) {
            report.duplicate += 1;
            continue;
        }
        if let Err(error) = crate::pipeline::precheck_transaction(&tx) {
            on_reject(&tx, &error);
            report.rejected += 1;
            continue;
        }
        let start = checks.len();
        if let McTransaction::Transfer(t) = &tx {
            if let Err(error) = queue_sig_checks(state, txid, t, &mut checks) {
                on_reject(&tx, &error);
                report.rejected += 1;
                continue;
            }
        }
        let fee = fee_of(&tx, |op| state.utxos.get(op).map(|o| o.amount));
        pending.push(Pending {
            tx,
            txid,
            fee,
            checks: start..checks.len(),
        });
    }

    report.sig_checks = checks.len();
    let verdicts = verify_sig_batch_with(&checks, workers, telemetry);

    for p in pending {
        let range = p.checks.clone();
        if let Some(bad) = range.clone().find(|&i| !verdicts[i]) {
            let error = BlockError::BadInputAuthorization {
                input: checks[bad].input,
            };
            on_reject(&p.tx, &error);
            report.rejected += 1;
            continue;
        }
        let tx_verdicts: Vec<(Digest32, bool)> = range
            .map(|i| (checks[i].cache_key(), verdicts[i]))
            .collect();
        match pool.admit(p.tx, p.txid, p.fee, tx_verdicts) {
            AdmitOutcome::Admitted => report.admitted += 1,
            AdmitOutcome::Duplicate => report.duplicate += 1,
            AdmitOutcome::RejectedFull => report.rejected += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{OutPoint, Output, TransferTx, TxOut};
    use zendoo_primitives::schnorr::Keypair;

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

    #[test]
    fn batch_matches_serial_for_any_worker_count() {
        let batch = checks(9);
        let serial: Vec<bool> = batch.iter().map(SigCheck::verify).collect();
        assert!(serial.iter().all(|v| *v));
        for workers in [1usize, 2, 3, 8, 64] {
            assert_eq!(
                verify_sig_batch(&batch, workers),
                serial,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn bad_signature_flagged_at_its_index() {
        let mut batch = checks(5);
        // Cross-wire: check 2 now carries check 3's signature.
        batch[2].tx_in.signature = batch[3].tx_in.signature;
        let verdicts = verify_sig_batch(&batch, 4);
        assert_eq!(verdicts, vec![true, true, false, true, true]);
    }

    #[test]
    fn empty_batch_is_vacuous() {
        assert!(verify_sig_batch(&[], 4).is_empty());
    }

    #[test]
    fn cache_key_binds_everything() {
        let batch = checks(2);
        let base = batch[0].cache_key();
        let mut other = batch[0].clone();
        other.txid = batch[1].txid;
        assert_ne!(base, other.cache_key(), "txid bound");
        let mut other = batch[0].clone();
        other.sighash = batch[1].sighash;
        assert_ne!(base, other.cache_key(), "message bound");
        let mut other = batch[0].clone();
        other.tx_in.signature = batch[1].tx_in.signature;
        assert_ne!(base, other.cache_key(), "signature bound");
    }
}
