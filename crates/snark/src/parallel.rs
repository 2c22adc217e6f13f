//! Parallel recursive proving (paper §5.4.1).
//!
//! "Generating a SNARK proof for each basic transition and then merging
//! them together requires a significant amount of computation. This task
//! cannot be solely levied upon forgers … one of the possible solutions
//! is to introduce a special dispatching scheme that assigns generation
//! of proofs randomly to interested parties who then do these tasks in
//! parallel."
//!
//! [`ParallelProver`] realizes the computational half of that scheme:
//! base proofs and each merge layer of the Fig 10/11 tree are computed
//! concurrently by a bounded worker pool, through the very layer routine
//! of the sequential [`RecursiveSystem::prove_chain`] (which is its
//! one-lane case), so the proof is the same. The dispatch/reward
//! bookkeeping lives in `zendoo-latus::prover_pool`.

use zendoo_primitives::field::Fp;

use crate::backend::ProveError;
use crate::recursive::{check_arity, RecursiveSystem, StateProof, TransitionVerifier};

/// Per-run statistics: which worker produced how many proofs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkReport {
    /// Base proofs per worker index.
    pub base_proofs: Vec<u64>,
    /// Merge proofs per worker index.
    pub merge_proofs: Vec<u64>,
}

impl WorkReport {
    fn new(workers: usize) -> Self {
        WorkReport {
            base_proofs: vec![0; workers],
            merge_proofs: vec![0; workers],
        }
    }

    /// Total proofs produced by `worker`.
    pub fn total_for(&self, worker: usize) -> u64 {
        self.base_proofs.get(worker).copied().unwrap_or(0)
            + self.merge_proofs.get(worker).copied().unwrap_or(0)
    }
}

/// A bounded-parallelism prover over a [`RecursiveSystem`].
pub struct ParallelProver<'a, V: TransitionVerifier> {
    system: &'a RecursiveSystem<V>,
    workers: usize,
}

impl<'a, V> ParallelProver<'a, V>
where
    V: TransitionVerifier + Sync,
    V::Witness: Sync,
{
    /// Creates a prover with `workers` concurrent lanes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(system: &'a RecursiveSystem<V>, workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker required");
        ParallelProver { system, workers }
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Folds a transition sequence into one proof, computing each tree
    /// layer on the worker lanes: the sequential fold's own layer routine
    /// ([`crate::backend::prove_layer`]) with `workers` lanes, each lane
    /// one batch equation a layer. The proof is the sequential fold's,
    /// byte for byte.
    ///
    /// # Errors
    ///
    /// The first unsatisfied transition or merge, as the sequential fold
    /// reports it.
    pub fn prove_chain(
        &self,
        states: &[Fp],
        witnesses: &[V::Witness],
    ) -> Result<(StateProof, WorkReport), ProveError> {
        check_arity("parallel/arity", states, witnesses.len())?;
        let proof = self.system.prove_layers(states, witnesses, self.workers)?;
        // Statement `i` of a layer ran on lane `i % workers`.
        let mut report = WorkReport::new(self.workers);
        for i in 0..witnesses.len() {
            report.base_proofs[i % self.workers] += 1;
        }
        let mut len = witnesses.len();
        while len > 1 {
            for i in 0..len / 2 {
                report.merge_proofs[i % self.workers] += 1;
            }
            len = len.div_ceil(2);
        }
        Ok((proof, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Unsatisfied;
    use zendoo_primitives::digest::Digest32;
    use zendoo_primitives::poseidon;

    #[derive(Debug)]
    struct Counter;

    #[derive(Clone)]
    struct Step(u64);

    fn digest_of(v: u64) -> Fp {
        poseidon::hash_many(&[Fp::from_u64(v)])
    }

    impl TransitionVerifier for Counter {
        type Witness = Step;

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"parallel/counter")
        }

        fn verify_transition(&self, from: &Fp, to: &Fp, w: &Step) -> Result<(), Unsatisfied> {
            if *from == digest_of(w.0) && *to == digest_of(w.0 + 1) {
                Ok(())
            } else {
                Err(Unsatisfied::new("counter", "bad step"))
            }
        }
    }

    fn chain_inputs(n: u64) -> (Vec<Fp>, Vec<Step>) {
        let states = (0..=n).map(digest_of).collect();
        let witnesses = (0..n).map(Step).collect();
        (states, witnesses)
    }

    #[test]
    fn parallel_matches_sequential_endpoints() {
        let system = RecursiveSystem::new_deterministic(Counter, b"par");
        let (states, witnesses) = chain_inputs(13);
        let sequential = system.prove_chain(&states, &witnesses).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let prover = ParallelProver::new(&system, workers);
            let (proof, report) = prover.prove_chain(&states, &witnesses).unwrap();
            assert!(system.verify(&proof), "workers={workers}");
            assert_eq!(proof.from_state(), sequential.from_state());
            assert_eq!(proof.to_state(), sequential.to_state());
            assert_eq!(report.base_proofs.iter().sum::<u64>(), 13);
        }
    }

    #[test]
    fn bad_witness_fails_in_parallel_too() {
        let system = RecursiveSystem::new_deterministic(Counter, b"par");
        let (states, mut witnesses) = chain_inputs(8);
        witnesses[5] = Step(999);
        let prover = ParallelProver::new(&system, 4);
        assert!(prover.prove_chain(&states, &witnesses).is_err());
    }

    #[test]
    fn empty_chain_rejected() {
        let system = RecursiveSystem::new_deterministic(Counter, b"par");
        let prover = ParallelProver::new(&system, 2);
        assert!(prover.prove_chain(&[digest_of(0)], &[]).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let system = RecursiveSystem::new_deterministic(Counter, b"par");
        let _ = ParallelProver::new(&system, 0);
    }
}
