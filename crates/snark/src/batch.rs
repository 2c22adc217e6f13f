//! Parallel batch verification.
//!
//! The mainchain only ever runs *one cheap SNARK verification per
//! posting* (§4.1.2), and verifications of distinct postings share no
//! state — a block carrying many certificates/BTRs/CSWs can therefore
//! check all of its proofs concurrently before any state mutation.
//! [`verify_batch`] fans a work list out over scoped worker threads and
//! returns one verdict per item, in order. [`fan_out`] is that fan-out
//! itself — the one strided scoped-thread map in the workspace, shared
//! with signature batches, [`crate::parallel::ParallelProver`] and the
//! aggregation fold.

use crossbeam::thread;
use zendoo_telemetry::Telemetry;

use crate::backend::{verify, Proof, VerifyingKey};
use crate::inputs::PublicInputs;

/// One pending verification: `(vk, public inputs, proof)`.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The verifying key.
    pub vk: VerifyingKey,
    /// The assembled public inputs.
    pub inputs: PublicInputs,
    /// The proof to check.
    pub proof: Proof,
}

impl BatchItem {
    /// Verifies this item alone.
    pub fn verify(&self) -> bool {
        verify(&self.vk, &self.inputs, &self.proof)
    }
}

/// A sensible worker count for batch verification on this host: one
/// lane per available core, never more lanes than items.
pub fn default_workers(items: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.min(items).max(1)
}

/// Verifies every item, `workers` at a time, returning verdicts in item
/// order. `workers == 1` (or a single item) short-circuits to the
/// serial path with no thread overhead.
pub fn verify_batch(items: &[BatchItem], workers: usize) -> Vec<bool> {
    verify_batch_with(items, workers, &Telemetry::disabled())
}

/// [`verify_batch`] with telemetry: records the batch size
/// (`snark.batch.proofs` histogram), per-worker wall time
/// (`snark.batch.verify.worker` span), and total batch wall time
/// (`snark.batch.verify` span).
pub fn verify_batch_with(items: &[BatchItem], workers: usize, telemetry: &Telemetry) -> Vec<bool> {
    telemetry.observe("snark.batch.proofs", items.len() as u64);
    let _batch_span = telemetry.span("snark.batch.verify");
    fan_out(
        items,
        workers,
        || telemetry.span("snark.batch.verify.worker"),
        BatchItem::verify,
    )
}

/// Maps `f` over `items` on `workers` scoped threads — item `i` runs on
/// worker `i % workers` — and returns the results in item order.
/// `enter` runs once on each worker before its first item and its
/// result is held until the worker is done (a span guard; `|| ()` when
/// there is nothing to hold). `workers` is clamped to the item count;
/// one worker (or at most one item) runs in the calling thread with no
/// spawn.
///
/// # Panics
///
/// Re-raises a panic of `f` or `enter`.
pub fn fan_out<T, R, G>(
    items: &[T],
    workers: usize,
    enter: impl Fn() -> G + Sync,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        let _guard = enter();
        return items.iter().map(f).collect();
    }
    let (enter, f) = (&enter, &f);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move |_| {
                    let _guard = enter();
                    items
                        .iter()
                        .skip(worker)
                        .step_by(workers)
                        .map(f)
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        // Lane `w` holds the results of items w, w + workers, …: take
        // them back round-robin.
        let mut lanes: Vec<_> = handles
            .into_iter()
            .map(|handle| handle.join().expect("worker thread panicked").into_iter())
            .collect();
        (0..items.len())
            .map(|i| lanes[i % workers].next().expect("one result per item"))
            .collect()
    })
    .expect("thread scope")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{prove, setup_deterministic};
    use crate::circuit::{Circuit, Unsatisfied};
    use zendoo_primitives::digest::Digest32;
    use zendoo_primitives::field::Fp;

    struct Square;

    impl Circuit for Square {
        type Witness = Fp;

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"batch/square")
        }

        fn check(&self, public: &PublicInputs, w: &Fp) -> Result<(), Unsatisfied> {
            (public.get(0) == Some(*w * *w))
                .then_some(())
                .ok_or_else(|| Unsatisfied::new("square", "w^2 != x"))
        }
    }

    fn items(n: u64) -> Vec<BatchItem> {
        let (pk, vk) = setup_deterministic(&Square, b"batch");
        (0..n)
            .map(|i| {
                let mut inputs = PublicInputs::new();
                inputs.push_fp(Fp::from_u64(i) * Fp::from_u64(i));
                let proof = prove(&pk, &Square, &inputs, &Fp::from_u64(i)).unwrap();
                BatchItem { vk, inputs, proof }
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_for_any_worker_count() {
        let batch = items(9);
        let serial: Vec<bool> = batch.iter().map(BatchItem::verify).collect();
        assert!(serial.iter().all(|v| *v));
        for workers in [1usize, 2, 3, 8, 64] {
            assert_eq!(verify_batch(&batch, workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn bad_proof_flagged_at_its_index() {
        let mut batch = items(5);
        // Cross-wire: proof 2 now attests a different statement.
        batch[2].proof = batch[3].proof;
        let verdicts = verify_batch(&batch, 4);
        assert_eq!(verdicts, vec![true, true, false, true, true]);
    }

    #[test]
    fn empty_batch_is_vacuous() {
        assert!(verify_batch(&[], 4).is_empty());
    }

    #[test]
    fn default_workers_bounded_by_items() {
        assert_eq!(default_workers(0), 1);
        assert_eq!(default_workers(1), 1);
        assert!(default_workers(64) >= 1);
    }
}
