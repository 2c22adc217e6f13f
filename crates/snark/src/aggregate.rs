//! Block-level recursive proof aggregation.
//!
//! The staged mainchain pipeline verifies every certificate/BTR/CSW
//! SNARK of a block individually (in parallel) — cost linear in the
//! number of postings. This module folds all of a block's proof checks
//! into **one** constant-size recursive proof, so a receiving node (or
//! a light client) verifies O(1) proofs per block regardless of how
//! many sidechains certify (the recursive-composition scheme of the
//! Latus incentive paper, arXiv:2103.13754, built on the Base/Merge
//! machinery of [`crate::recursive`]).
//!
//! Two circuits are derived:
//!
//! * **Wrap** attests one leaf statement: "I hold a `(vk, inputs,
//!   proof)` triple whose [`statement_key`] embeds to the public
//!   digest, and `Verify(vk, inputs, proof)` accepts." One leaf per
//!   pending [`BatchItem`].
//! * **Fold** attests the *multiset union* of two child aggregates: its
//!   public digest is the component-wise field sum of the children's
//!   digests (and the count the sum of counts), and both child proofs
//!   verify in-circuit.
//!
//! Because the aggregate digest is a **sum** — associative and
//! commutative — *any* fold tree over the same leaf multiset proves the
//! same statement: balanced, lopsided, or split across workers. That is
//! what lets [`AggregationSystem::aggregate`] parallelize the layers
//! freely (same strided worker lanes as [`crate::parallel`]) and what
//! makes epoch aggregation trivial: an epoch proof is just more folding
//! over the per-block aggregates ([`AggregationSystem::aggregate_epoch`]).
//!
//! The verifier recomputes the expected digest from its own collected
//! work list (cheap hashing, no proof work) and then checks a single
//! SNARK: [`AggregationSystem::verify_block_proof`].
//!
//! ## Trusted-setup caveat (simulation model)
//!
//! [`AggregationSystem::shared`] mints the Wrap/Fold keys from a fixed
//! protocol seed so every node folds and verifies under the same keys —
//! the stand-in for a universal setup ceremony. In the simulated
//! backend the proving key *could* forge, but every soundness property
//! exercised here rests on [`crate::backend::prove`] refusing
//! unsatisfied statements, not on key secrecy (see the substitution
//! model in [`crate::backend`]).

use serde::{Deserialize, Serialize};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::Encode;
use zendoo_primitives::field::Fp;
use zendoo_telemetry::Telemetry;

use crate::backend::{
    prove, prove_layer, setup_deterministic, verify, Proof, ProveError, ProvingKey, VerifyingKey,
};
use crate::batch::BatchItem;
use crate::circuit::{gadget_cost, Circuit, Unsatisfied};
use crate::deferred::Deferred;
use crate::inputs::PublicInputs;

/// Seed of the protocol-wide deterministic Wrap/Fold setup (the
/// simulation's stand-in for a universal setup ceremony).
const PROTOCOL_SEED: &[u8] = b"zendoo/aggregation/v1";

/// The canonical identity of one pending proof check: `H(vk ‖ inputs ‖
/// proof)`. This is both the verdict-cache key of the mainchain
/// pipeline (`ProofCheck::key` delegates here) and the leaf statement
/// an aggregate commits to — sharing the definition means cache
/// identity and aggregation identity can never diverge.
pub fn statement_key(vk: &VerifyingKey, inputs: &PublicInputs, proof: &Proof) -> Digest32 {
    Digest32::hash_tagged(
        "zendoo/proof-check",
        &[vk.digest().as_bytes(), &inputs.encoded(), &proof.to_bytes()],
    )
}

/// The multiset digest of a set of leaf statements: the component-wise
/// field sum of each statement key's two-limb embedding (the same
/// hi/lo split as [`PublicInputs::push_digest`], so the per-statement
/// embedding is injective).
///
/// Summation makes the digest associative and commutative — the fold
/// tree's shape cannot change the statement — at the price of being a
/// *multiset* commitment: order is deliberately not bound, which is
/// sound because verdicts attach to statements, not positions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AggDigest {
    hi: Fp,
    lo: Fp,
}

impl AggDigest {
    /// The digest of the empty multiset.
    pub const fn zero() -> Self {
        AggDigest {
            hi: Fp::ZERO,
            lo: Fp::ZERO,
        }
    }

    /// The digest of the singleton multiset `{key}`.
    pub fn of_statement(key: &Digest32) -> Self {
        let bytes = key.as_bytes();
        let mut hi = [0u8; 32];
        let mut lo = [0u8; 32];
        hi[16..].copy_from_slice(&bytes[..16]);
        lo[16..].copy_from_slice(&bytes[16..]);
        AggDigest {
            hi: Fp::from_be_bytes_reduced(&hi),
            lo: Fp::from_be_bytes_reduced(&lo),
        }
    }

    /// The digest of the multiset union (field addition per limb).
    pub fn combine(&self, other: &Self) -> Self {
        AggDigest {
            hi: self.hi.add_ref(&other.hi),
            lo: self.lo.add_ref(&other.lo),
        }
    }

    /// The high-limb sum.
    pub fn hi(&self) -> Fp {
        self.hi
    }

    /// The low-limb sum.
    pub fn lo(&self) -> Fp {
        self.lo
    }
}

/// The expected aggregate statement of a work list: multiset digest
/// plus leaf count. This is what a verifier recomputes from its own
/// collected checks before accepting a [`BlockProof`].
pub fn expected_statement(items: &[BatchItem]) -> (AggDigest, u64) {
    let digest = items.iter().fold(AggDigest::zero(), |acc, item| {
        acc.combine(&leaf_digest(item))
    });
    (digest, items.len() as u64)
}

/// The digest of the singleton multiset `{item}`.
fn leaf_digest(item: &BatchItem) -> AggDigest {
    AggDigest::of_statement(&statement_key(&item.vk, &item.inputs, &item.proof))
}

/// Whether an [`AggregateProof`] came from the Wrap or the Fold circuit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum AggKind {
    /// Attests a single leaf statement.
    Wrap,
    /// Attests the union of two child aggregates.
    Fold,
}

/// A succinct proof that every leaf statement in a multiset (committed
/// by `digest`, `count` leaves) verifies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AggregateProof {
    digest: AggDigest,
    count: u64,
    kind: AggKind,
    proof: Proof,
}

impl AggregateProof {
    /// The multiset digest of the covered statements.
    pub fn digest(&self) -> AggDigest {
        self.digest
    }

    /// Number of leaf statements covered.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Wrap or Fold.
    pub fn kind(&self) -> AggKind {
        self.kind
    }

    /// The inner constant-size proof.
    pub fn proof(&self) -> &Proof {
        &self.proof
    }
}

/// The aggregate proof of one block's proof work list. A block owing no
/// SNARK checks carries the empty proof (`aggregate` is `None`): there
/// is nothing to attest and nothing to verify.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BlockProof {
    aggregate: Option<AggregateProof>,
}

impl BlockProof {
    /// The proof of an empty work list.
    pub const fn empty() -> Self {
        BlockProof { aggregate: None }
    }

    /// The inner aggregate, absent for an empty work list.
    pub fn aggregate(&self) -> Option<&AggregateProof> {
        self.aggregate.as_ref()
    }

    /// Number of leaf statements covered.
    pub fn count(&self) -> u64 {
        self.aggregate.map(|a| a.count).unwrap_or(0)
    }

    /// The multiset digest of the covered statements.
    pub fn digest(&self) -> AggDigest {
        self.aggregate
            .map(|a| a.digest)
            .unwrap_or(AggDigest::zero())
    }
}

/// Public inputs of a Wrap/Fold statement: `(hi, lo, count)`.
fn aggregate_inputs(digest: &AggDigest, count: u64) -> PublicInputs {
    let mut inputs = PublicInputs::new();
    inputs.push_fp(digest.hi).push_fp(digest.lo).push_u64(count);
    inputs
}

fn expect_aggregate_statement(public: &PublicInputs) -> Result<(AggDigest, u64), Unsatisfied> {
    match (public.get(0), public.get(1), public.get_u64(2)) {
        (Some(hi), Some(lo), Some(count)) if public.len() == 3 => Ok((AggDigest { hi, lo }, count)),
        _ => Err(Unsatisfied::new(
            "arity",
            "expected exactly (hi, lo, count)",
        )),
    }
}

fn wrap_circuit_id() -> Digest32 {
    Digest32::hash_bytes(b"zendoo/agg-wrap-circuit")
}

fn fold_circuit_id() -> Digest32 {
    Digest32::hash_bytes(b"zendoo/agg-fold-circuit")
}

/// The Wrap circuit: one leaf statement, verified in-circuit.
struct WrapCircuit;

impl Circuit for WrapCircuit {
    type Witness = BatchItem;

    fn id(&self) -> Digest32 {
        wrap_circuit_id()
    }

    fn check(&self, public: &PublicInputs, item: &BatchItem) -> Result<(), Unsatisfied> {
        self.check_deferred(public, item, &mut Deferred::eager())
    }

    fn check_deferred(
        &self,
        public: &PublicInputs,
        item: &BatchItem,
        deferred: &mut Deferred,
    ) -> Result<(), Unsatisfied> {
        let (digest, count) = expect_aggregate_statement(public)?;
        if count != 1 {
            return Err(Unsatisfied::new(
                "wrap/count",
                "wrap covers exactly one leaf",
            ));
        }
        let key = statement_key(&item.vk, &item.inputs, &item.proof);
        if digest != AggDigest::of_statement(&key) {
            return Err(Unsatisfied::new(
                "wrap/digest",
                "public digest does not embed the witnessed statement",
            ));
        }
        deferred.proof(&item.vk, &item.inputs, &item.proof, || {
            Unsatisfied::new("wrap/proof", "leaf proof invalid")
        })
    }

    fn constraint_cost(&self, _public: &PublicInputs, _item: &BatchItem) -> u64 {
        gadget_cost::PROOF_VERIFY
    }
}

/// The Fold circuit: witnesses two child aggregates whose union is the
/// public statement.
struct FoldCircuit {
    wrap_vk: VerifyingKey,
    fold_vk: VerifyingKey,
}

struct FoldWitness {
    left: AggregateProof,
    right: AggregateProof,
}

impl Circuit for FoldCircuit {
    type Witness = FoldWitness;

    fn id(&self) -> Digest32 {
        fold_circuit_id()
    }

    fn check(&self, public: &PublicInputs, w: &FoldWitness) -> Result<(), Unsatisfied> {
        self.check_deferred(public, w, &mut Deferred::eager())
    }

    fn check_deferred(
        &self,
        public: &PublicInputs,
        w: &FoldWitness,
        deferred: &mut Deferred,
    ) -> Result<(), Unsatisfied> {
        let (digest, count) = expect_aggregate_statement(public)?;
        if w.left.count == 0 || w.right.count == 0 {
            return Err(Unsatisfied::new(
                "fold/empty-child",
                "children must be non-empty",
            ));
        }
        let combined_count = w
            .left
            .count
            .checked_add(w.right.count)
            .ok_or_else(|| Unsatisfied::new("fold/count-overflow", "leaf count overflow"))?;
        if count != combined_count {
            return Err(Unsatisfied::new(
                "fold/count",
                "public count is not the sum of child counts",
            ));
        }
        if digest != w.left.digest.combine(&w.right.digest) {
            return Err(Unsatisfied::new(
                "fold/digest",
                "public digest is not the union of child digests",
            ));
        }
        for (side, child) in [("left", &w.left), ("right", &w.right)] {
            let (vk, inputs) = aggregate_statement(&self.wrap_vk, &self.fold_vk, child);
            deferred.proof(vk, &inputs, &child.proof, || {
                Unsatisfied::new(
                    "fold/child-proof",
                    format!("{side} child aggregate invalid"),
                )
            })?;
        }
        Ok(())
    }

    fn constraint_cost(&self, _public: &PublicInputs, _w: &FoldWitness) -> u64 {
        2 * gadget_cost::PROOF_VERIFY
    }
}

/// Verifies an [`AggregateProof`] given the two verification keys —
/// one constant-time SNARK check, usable without the proving side.
pub fn verify_aggregate_with(
    wrap_vk: &VerifyingKey,
    fold_vk: &VerifyingKey,
    aggregate: &AggregateProof,
) -> bool {
    let (vk, inputs) = aggregate_statement(wrap_vk, fold_vk, aggregate);
    verify(vk, &inputs, &aggregate.proof)
}

/// The key and public inputs an [`AggregateProof`] verifies under.
fn aggregate_statement<'a>(
    wrap_vk: &'a VerifyingKey,
    fold_vk: &'a VerifyingKey,
    aggregate: &AggregateProof,
) -> (&'a VerifyingKey, PublicInputs) {
    let vk = match aggregate.kind {
        AggKind::Wrap => wrap_vk,
        AggKind::Fold => fold_vk,
    };
    (vk, aggregate_inputs(&aggregate.digest, aggregate.count))
}

/// A key-generation-only pseudo-circuit (setup consumes only the id) —
/// lets the Fold keys exist before the circuit object that embeds them.
struct IdOnly(Digest32);

impl Circuit for IdOnly {
    type Witness = ();

    fn id(&self) -> Digest32 {
        self.0
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Err(Unsatisfied::new(
            "id-only",
            "this placeholder circuit cannot prove statements",
        ))
    }
}

/// The bootstrapped Wrap/Fold proving system.
pub struct AggregationSystem {
    wrap_pk: ProvingKey,
    wrap_vk: VerifyingKey,
    fold_pk: ProvingKey,
    fold_vk: VerifyingKey,
}

impl AggregationSystem {
    /// Deterministic bootstrap from a seed (reproducible across
    /// processes, like [`crate::backend::setup_deterministic`]).
    pub fn new_deterministic(seed: &[u8]) -> Self {
        let (wrap_pk, wrap_vk) = setup_deterministic(&WrapCircuit, seed);
        let (fold_pk, fold_vk) = setup_deterministic(&IdOnly(fold_circuit_id()), seed);
        AggregationSystem {
            wrap_pk,
            wrap_vk,
            fold_pk,
            fold_vk,
        }
    }

    /// The process-wide protocol instance every node shares (see the
    /// module-level trusted-setup caveat).
    pub fn shared() -> &'static AggregationSystem {
        static SHARED: std::sync::OnceLock<AggregationSystem> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| AggregationSystem::new_deterministic(PROTOCOL_SEED))
    }

    /// Verification key of the Wrap SNARK.
    pub fn wrap_vk(&self) -> &VerifyingKey {
        &self.wrap_vk
    }

    /// Verification key of the Fold SNARK.
    pub fn fold_vk(&self) -> &VerifyingKey {
        &self.fold_vk
    }

    /// Wraps one leaf statement into an aggregate of count 1.
    ///
    /// # Errors
    ///
    /// [`ProveError::Unsatisfied`] if the leaf proof does not verify —
    /// an aggregate over a false statement cannot be produced.
    pub fn wrap(&self, item: &BatchItem) -> Result<AggregateProof, ProveError> {
        let digest = leaf_digest(item);
        let proof = prove(
            &self.wrap_pk,
            &WrapCircuit,
            &aggregate_inputs(&digest, 1),
            item,
        )?;
        Ok(AggregateProof {
            digest,
            count: 1,
            kind: AggKind::Wrap,
            proof,
        })
    }

    /// Folds two aggregates into one covering their multiset union.
    ///
    /// # Errors
    ///
    /// [`ProveError::Unsatisfied`] if either child is invalid or empty.
    pub fn fold(
        &self,
        left: &AggregateProof,
        right: &AggregateProof,
    ) -> Result<AggregateProof, ProveError> {
        let digest = left.digest.combine(&right.digest);
        let count = left
            .count
            .checked_add(right.count)
            .ok_or_else(|| Unsatisfied::new("fold/count-overflow", "leaf count overflow"))?;
        let proof = prove(
            &self.fold_pk,
            &self.fold_circuit(),
            &aggregate_inputs(&digest, count),
            &FoldWitness {
                left: *left,
                right: *right,
            },
        )?;
        Ok(AggregateProof {
            digest,
            count,
            kind: AggKind::Fold,
            proof,
        })
    }

    fn fold_circuit(&self) -> FoldCircuit {
        FoldCircuit {
            wrap_vk: self.wrap_vk,
            fold_vk: self.fold_vk,
        }
    }

    /// Verifies an aggregate proof: one constant-time SNARK check.
    pub fn verify_aggregate(&self, aggregate: &AggregateProof) -> bool {
        verify_aggregate_with(&self.wrap_vk, &self.fold_vk, aggregate)
    }

    /// Folds a whole work list into one [`BlockProof`]: leaves wrapped
    /// and every tree layer folded on `workers` strided scoped-thread
    /// lanes, each layer one [`prove_layer`] — the recursive prover's
    /// routine, so a lane checks its leaf proofs (or child aggregates) as
    /// one batch equation before it attests any of them. The empty list
    /// yields [`BlockProof::empty`].
    ///
    /// # Errors
    ///
    /// [`ProveError::Unsatisfied`] naming the first leaf whose proof
    /// does not verify — a block with any false statement has no
    /// aggregate, the prover-side mirror of the verifier's rejection.
    pub fn aggregate(&self, items: &[BatchItem], workers: usize) -> Result<BlockProof, ProveError> {
        self.aggregate_with(items, workers, &Telemetry::disabled())
    }

    /// [`AggregationSystem::aggregate`] with telemetry: records the
    /// work-list size (`snark.aggregate.proofs` histogram), the fold
    /// tree depth (`snark.aggregate.depth` histogram), wrap-layer and
    /// per-fold-layer wall time (`snark.aggregate.wrap` /
    /// `snark.aggregate.fold` spans) and the whole build
    /// (`snark.aggregate.build` span).
    ///
    /// # Errors
    ///
    /// See [`AggregationSystem::aggregate`].
    pub fn aggregate_with(
        &self,
        items: &[BatchItem],
        workers: usize,
        telemetry: &Telemetry,
    ) -> Result<BlockProof, ProveError> {
        telemetry.observe("snark.aggregate.proofs", items.len() as u64);
        if items.is_empty() {
            telemetry.observe("snark.aggregate.depth", 0);
            return Ok(BlockProof::empty());
        }
        let _build = telemetry.span("snark.aggregate.build");
        let layer: Vec<AggregateProof> = {
            let _span = telemetry.span("snark.aggregate.wrap");
            let digests: Vec<AggDigest> = items.iter().map(leaf_digest).collect();
            let statements: Vec<(PublicInputs, &BatchItem)> = digests
                .iter()
                .zip(items)
                .map(|(digest, item)| (aggregate_inputs(digest, 1), item))
                .collect();
            let proofs = prove_layer(&self.wrap_pk, &WrapCircuit, &statements, workers)?;
            digests
                .into_iter()
                .zip(proofs)
                .map(|(digest, proof)| AggregateProof {
                    digest,
                    count: 1,
                    kind: AggKind::Wrap,
                    proof,
                })
                .collect()
        };
        let (aggregate, depth) = self.fold_layers(layer, workers, telemetry)?;
        telemetry.observe("snark.aggregate.depth", depth);
        Ok(BlockProof {
            aggregate: Some(aggregate),
        })
    }

    /// Folds a non-empty layer pairwise until one proof remains (one
    /// `snark.aggregate.fold` span per tree level), returning it with
    /// the tree depth.
    fn fold_layers(
        &self,
        mut layer: Vec<AggregateProof>,
        workers: usize,
        telemetry: &Telemetry,
    ) -> Result<(AggregateProof, u64), ProveError> {
        let circuit = self.fold_circuit();
        let mut depth = 0u64;
        while layer.len() > 1 {
            depth += 1;
            let _span = telemetry.span("snark.aggregate.fold");
            let statements: Vec<(PublicInputs, FoldWitness)> = layer
                .chunks_exact(2)
                .map(|pair| {
                    let (left, right) = (pair[0], pair[1]);
                    // A count that overflows wraps here and is refused
                    // by the circuit (`fold/count-overflow`), as `fold`
                    // refuses it.
                    let count = left.count.wrapping_add(right.count);
                    (
                        aggregate_inputs(&left.digest.combine(&right.digest), count),
                        FoldWitness { left, right },
                    )
                })
                .collect();
            let proofs = prove_layer(&self.fold_pk, &circuit, &statements, workers)?;
            let odd = layer.chunks_exact(2).remainder().first().copied();
            layer = statements
                .iter()
                .zip(proofs)
                .map(|((_, w), proof)| AggregateProof {
                    digest: w.left.digest.combine(&w.right.digest),
                    count: w.left.count + w.right.count,
                    kind: AggKind::Fold,
                    proof,
                })
                .chain(odd)
                .collect();
        }
        Ok((layer.remove(0), depth))
    }

    /// Folds a window of per-block proofs into one epoch proof — just
    /// more folding, since the digest is a multiset sum. Empty block
    /// proofs contribute nothing; a window of only empty blocks yields
    /// [`BlockProof::empty`].
    ///
    /// # Errors
    ///
    /// [`ProveError::Unsatisfied`] if any constituent aggregate is
    /// invalid.
    pub fn aggregate_epoch(
        &self,
        blocks: &[BlockProof],
        workers: usize,
        telemetry: &Telemetry,
    ) -> Result<BlockProof, ProveError> {
        let layer: Vec<AggregateProof> = blocks.iter().filter_map(|b| b.aggregate).collect();
        if layer.is_empty() {
            return Ok(BlockProof::empty());
        }
        let _build = telemetry.span("snark.aggregate.epoch");
        let (aggregate, _depth) = self.fold_layers(layer, workers, telemetry)?;
        Ok(BlockProof {
            aggregate: Some(aggregate),
        })
    }

    /// Verifies a [`BlockProof`] against the verifier's own expected
    /// statement (from [`expected_statement`] over its collected work
    /// list): digest and count must match and the single aggregate
    /// proof must verify. O(1) SNARK checks — the recomputation of the
    /// expected digest is plain hashing, no proof work.
    pub fn verify_block_proof(
        &self,
        block_proof: &BlockProof,
        expected_digest: &AggDigest,
        expected_count: u64,
    ) -> bool {
        match &block_proof.aggregate {
            None => expected_count == 0,
            Some(aggregate) => {
                aggregate.count == expected_count
                    && expected_count > 0
                    && aggregate.digest == *expected_digest
                    && self.verify_aggregate(aggregate)
            }
        }
    }
}

impl std::fmt::Debug for AggregationSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregationSystem")
            .field("wrap_vk", &self.wrap_vk)
            .field("fold_vk", &self.fold_vk)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::setup_deterministic;

    struct Square;

    impl Circuit for Square {
        type Witness = Fp;

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"agg/square")
        }

        fn check(&self, public: &PublicInputs, w: &Fp) -> Result<(), Unsatisfied> {
            (public.get(0) == Some(*w * *w))
                .then_some(())
                .ok_or_else(|| Unsatisfied::new("square", "w^2 != x"))
        }
    }

    fn items(n: u64) -> Vec<BatchItem> {
        let (pk, vk) = setup_deterministic(&Square, b"agg");
        (0..n)
            .map(|i| {
                let mut inputs = PublicInputs::new();
                inputs.push_fp(Fp::from_u64(i) * Fp::from_u64(i));
                let proof = prove(&pk, &Square, &inputs, &Fp::from_u64(i)).unwrap();
                BatchItem { vk, inputs, proof }
            })
            .collect()
    }

    fn system() -> AggregationSystem {
        AggregationSystem::new_deterministic(b"agg-test")
    }

    #[test]
    fn wrap_fold_verify_roundtrip() {
        let sys = system();
        let batch = items(2);
        let left = sys.wrap(&batch[0]).unwrap();
        let right = sys.wrap(&batch[1]).unwrap();
        assert!(sys.verify_aggregate(&left));
        let folded = sys.fold(&left, &right).unwrap();
        assert!(sys.verify_aggregate(&folded));
        assert_eq!(folded.count(), 2);
        let (expected, count) = expected_statement(&batch);
        assert_eq!(folded.digest(), expected);
        assert_eq!(count, 2);
    }

    /// The cost lines beside what `check` runs: the model charges a Wrap
    /// one in-circuit proof check and a Fold two, whatever the children
    /// cover, and those are the verifications the checks perform.
    #[test]
    fn wrap_and_fold_are_charged_the_checks_they_run() {
        use zendoo_primitives::opcount::measure;
        let sys = system();
        let batch = items(4);
        let wraps: Vec<_> = batch.iter().map(|item| sys.wrap(item).unwrap()).collect();
        let wrap_inputs = aggregate_inputs(&wraps[0].digest, 1);
        let (ok, ran) = measure(|| WrapCircuit.check(&wrap_inputs, &batch[0]));
        assert_eq!(ok, Ok(()));
        assert_eq!(
            WrapCircuit.constraint_cost(&wrap_inputs, &batch[0]),
            ran.proof_checks * gadget_cost::PROOF_VERIFY
        );
        assert_eq!((ran.proof_checks, ran.group_muls), (1, 1));

        let circuit = sys.fold_circuit();
        let pairs = [
            sys.fold(&wraps[0], &wraps[1]).unwrap(),
            sys.fold(&wraps[2], &wraps[3]).unwrap(),
        ];
        for (left, right) in [(wraps[0], wraps[1]), (pairs[0], pairs[1])] {
            let inputs = aggregate_inputs(
                &left.digest.combine(&right.digest),
                left.count + right.count,
            );
            let witness = FoldWitness { left, right };
            let (ok, ran) = measure(|| circuit.check(&inputs, &witness));
            assert_eq!(ok, Ok(()));
            assert_eq!(
                circuit.constraint_cost(&inputs, &witness),
                ran.proof_checks * gadget_cost::PROOF_VERIFY
            );
            assert_eq!((ran.proof_checks, ran.group_muls), (2, 2));
        }
    }

    #[test]
    fn wrap_refuses_invalid_leaf() {
        let sys = system();
        let mut batch = items(2);
        batch[0].proof = batch[1].proof; // attests a different statement
        assert!(matches!(
            sys.wrap(&batch[0]),
            Err(ProveError::Unsatisfied(_))
        ));
    }

    #[test]
    fn aggregate_shapes_and_workers_agree() {
        let sys = system();
        for n in [1u64, 2, 3, 5, 8] {
            let batch = items(n);
            let (expected, count) = expected_statement(&batch);
            for workers in [1usize, 2, 4] {
                let block = sys.aggregate(&batch, workers).unwrap();
                assert_eq!(block.count(), count, "n={n} workers={workers}");
                assert!(
                    sys.verify_block_proof(&block, &expected, count),
                    "n={n} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn any_split_verifies_the_same_statement() {
        // Associativity: every way of splitting the leaf multiset into
        // two folded halves proves the same (digest, count).
        let sys = system();
        let batch = items(6);
        let (expected, count) = expected_statement(&batch);
        for split in 1..batch.len() {
            let left = sys.aggregate(&batch[..split], 1).unwrap();
            let right = sys.aggregate(&batch[split..], 1).unwrap();
            let top = sys
                .fold(left.aggregate().unwrap(), right.aggregate().unwrap())
                .unwrap();
            assert_eq!(top.digest(), expected, "split={split}");
            assert_eq!(top.count(), count);
            assert!(sys.verify_aggregate(&top));
        }
    }

    #[test]
    fn empty_and_singleton_degenerate_shapes() {
        let sys = system();
        let empty = sys.aggregate(&[], 4).unwrap();
        assert_eq!(empty, BlockProof::empty());
        assert_eq!(empty.count(), 0);
        assert!(sys.verify_block_proof(&empty, &AggDigest::zero(), 0));
        // An empty proof never satisfies a non-empty expectation.
        assert!(!sys.verify_block_proof(&empty, &AggDigest::zero(), 1));

        let batch = items(1);
        let single = sys.aggregate(&batch, 4).unwrap();
        assert_eq!(single.count(), 1);
        assert_eq!(single.aggregate().unwrap().kind(), AggKind::Wrap);
        let (expected, _) = expected_statement(&batch);
        assert!(sys.verify_block_proof(&single, &expected, 1));
        // A non-empty proof never satisfies the empty expectation.
        assert!(!sys.verify_block_proof(&single, &AggDigest::zero(), 0));
    }

    #[test]
    fn tampered_aggregate_rejected() {
        let sys = system();
        let batch = items(3);
        let block = sys.aggregate(&batch, 2).unwrap();
        let good = *block.aggregate().unwrap();
        // Claim a different count with the same inner proof.
        let forged = AggregateProof {
            count: good.count + 1,
            ..good
        };
        assert!(!sys.verify_aggregate(&forged));
        // Claim a different digest.
        let forged = AggregateProof {
            digest: good.digest.combine(&good.digest),
            ..good
        };
        assert!(!sys.verify_aggregate(&forged));
        // Swap the kind: the vk no longer matches.
        let forged = AggregateProof {
            kind: AggKind::Wrap,
            ..good
        };
        assert!(!sys.verify_aggregate(&forged));
    }

    #[test]
    fn aggregate_over_tampered_leaf_refused() {
        let sys = system();
        let mut batch = items(4);
        batch[2].proof = batch[3].proof;
        batch[3].proof = batch[0].proof;
        // The first bad leaf's own refusal, on any number of lanes.
        let first = sys.wrap(&batch[2]).unwrap_err();
        assert!(matches!(first, ProveError::Unsatisfied(ref u) if u.rule == "wrap/proof"));
        for workers in [1, 2, 4] {
            assert_eq!(sys.aggregate(&batch, workers), Err(first.clone()));
        }
    }

    /// Wrap and fold layers are proven a batch equation a lane: the
    /// block proof is the one per-leaf `wrap` and per-pair `fold` calls
    /// build, at one group evaluation per layer beside the attestations.
    #[test]
    fn aggregate_checks_each_layer_as_one_equation() {
        use zendoo_primitives::opcount::measure;
        let sys = system();
        let batch = items(8);
        let wraps: Vec<_> = batch.iter().map(|item| sys.wrap(item).unwrap()).collect();
        let mut layer = wraps;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| sys.fold(&pair[0], &pair[1]).unwrap())
                .collect();
        }
        let (block, cost) = measure(|| sys.aggregate(&batch, 1).unwrap());
        assert_eq!(block.aggregate(), Some(&layer[0]));
        // 8 wraps and 7 folds attest; 8 + 14 proof checks ride on the
        // wrap layer's equation and the three fold layers'.
        assert_eq!((cost.group_muls, cost.proof_checks), (8 + 7 + 4, 8 + 14));
    }

    #[test]
    fn fold_refuses_forged_child() {
        let sys = system();
        let batch = items(2);
        let left = sys.wrap(&batch[0]).unwrap();
        let forged = AggregateProof {
            digest: AggDigest::of_statement(&Digest32::hash_bytes(b"forged")),
            ..left
        };
        assert!(sys.fold(&left, &forged).is_err());
    }

    #[test]
    fn epoch_fold_covers_all_blocks() {
        let sys = system();
        let batch = items(7);
        let block_a = sys.aggregate(&batch[..3], 2).unwrap();
        let block_b = sys.aggregate(&[], 2).unwrap(); // empty block
        let block_c = sys.aggregate(&batch[3..], 2).unwrap();
        let epoch = sys
            .aggregate_epoch(&[block_a, block_b, block_c], 2, &Telemetry::disabled())
            .unwrap();
        let (expected, count) = expected_statement(&batch);
        assert!(sys.verify_block_proof(&epoch, &expected, count));
        // All-empty window.
        let empty = sys
            .aggregate_epoch(
                &[BlockProof::empty(), BlockProof::empty()],
                2,
                &Telemetry::disabled(),
            )
            .unwrap();
        assert_eq!(empty, BlockProof::empty());
    }

    #[test]
    fn cross_system_aggregates_rejected() {
        let sys_a = AggregationSystem::new_deterministic(b"seed-a");
        let sys_b = AggregationSystem::new_deterministic(b"seed-b");
        let batch = items(1);
        let wrapped = sys_a.wrap(&batch[0]).unwrap();
        assert!(!sys_b.verify_aggregate(&wrapped));
    }

    #[test]
    fn shared_system_is_reproducible() {
        let shared = AggregationSystem::shared();
        let again = AggregationSystem::new_deterministic(PROTOCOL_SEED);
        assert_eq!(shared.wrap_vk(), again.wrap_vk());
        assert_eq!(shared.fold_vk(), again.fold_vk());
    }
}
