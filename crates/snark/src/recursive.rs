//! Recursive SNARK composition for state-transition systems (paper
//! Def 2.4/2.5, Figs 10–11).
//!
//! A [`RecursiveSystem`] wraps a user-supplied [`TransitionVerifier`] —
//! the single-step `update` relation — and derives two circuits:
//!
//! * **Base** proves one transition `s_i → s_{i+1}`;
//! * **Merge** proves `s_i → s_j` given two valid child proofs over
//!   `s_i → s_k` and `s_k → s_j` (either Base or Merge), verifying the
//!   children *inside* its own statement.
//!
//! [`RecursiveSystem::prove_chain`] folds a whole transition sequence into
//! one constant-size [`StateProof`] via a balanced merge tree, exactly the
//! shape of Fig 10 (within a block) and Fig 11 (across an epoch), one
//! tree layer at a time ([`crate::backend::prove_layer`]): a merge
//! layer's child proofs, attested by just the Base and Merge keys, are
//! checked as one batch equation rather than two verifications a merge.

use std::borrow::Borrow;

use serde::{Deserialize, Serialize};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::field::Fp;

use crate::backend::{
    prove, prove_layer, setup, setup_deterministic, verify, Proof, ProveError, ProvingKey,
    VerifyingKey,
};
use crate::circuit::{gadget_cost, Circuit, Unsatisfied};
use crate::deferred::Deferred;
use crate::inputs::PublicInputs;

/// The single-step transition relation of a state-transition system
/// (paper Def 2.4): implementors decide what "`s_{i+1}` is a valid
/// successor of `s_i`" means and what evidence (witness) establishes it.
pub trait TransitionVerifier {
    /// Evidence for one transition (a transaction plus authentication
    /// paths, in the Latus instantiation).
    type Witness;

    /// Stable identifier of the transition semantics; distinguishes the
    /// derived Base/Merge circuits across systems.
    fn id(&self) -> Digest32;

    /// Checks that `witness` establishes a valid transition
    /// `from → to` between the two state digests.
    ///
    /// # Errors
    ///
    /// [`Unsatisfied`] naming the violated rule.
    fn verify_transition(
        &self,
        from: &Fp,
        to: &Fp,
        witness: &Self::Witness,
    ) -> Result<(), Unsatisfied>;

    /// [`TransitionVerifier::verify_transition`] with its embedded
    /// signature checks stated into `deferred`: the Base circuit's
    /// [`Circuit::check_deferred`]. The default defers nothing; a
    /// relation that overrides it defines `verify_transition` as this
    /// method over [`Deferred::eager`].
    ///
    /// # Errors
    ///
    /// [`Unsatisfied`] naming the first violated rule not deferred.
    fn verify_transition_deferred(
        &self,
        from: &Fp,
        to: &Fp,
        witness: &Self::Witness,
        _deferred: &mut Deferred,
    ) -> Result<(), Unsatisfied> {
        self.verify_transition(from, to, witness)
    }

    /// Constraint-cost estimate for one transition: the Base circuit's
    /// [`Circuit::constraint_cost`], a model (see there).
    fn transition_cost(&self, _witness: &Self::Witness) -> u64 {
        4 * gadget_cost::MERKLE_STEP
    }
}

/// Whether a [`StateProof`] came from the Base or the Merge circuit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ProofKind {
    /// Proof of a single transition.
    Base,
    /// Proof merging two adjacent child proofs.
    Merge,
}

/// A succinct proof that some transition sequence leads from state digest
/// `from` to state digest `to`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StateProof {
    from: Fp,
    to: Fp,
    kind: ProofKind,
    proof: Proof,
}

impl StateProof {
    /// The pre-state digest `s_i`.
    pub fn from_state(&self) -> Fp {
        self.from
    }

    /// The post-state digest `s_j`.
    pub fn to_state(&self) -> Fp {
        self.to
    }

    /// Base or Merge.
    pub fn kind(&self) -> ProofKind {
        self.kind
    }

    /// The inner constant-size proof.
    pub fn proof(&self) -> &Proof {
        &self.proof
    }
}

/// Public inputs of a Base/Merge statement: `(s_i, s_j)`.
fn transition_inputs(from: &Fp, to: &Fp) -> PublicInputs {
    let mut inputs = PublicInputs::new();
    inputs.push_fp(*from).push_fp(*to);
    inputs
}

/// Verifies a [`StateProof`] given the two verification keys — usable by
/// parties that never hold the proving side (e.g. the WCert circuit).
pub fn verify_state_proof(
    base_vk: &VerifyingKey,
    merge_vk: &VerifyingKey,
    state_proof: &StateProof,
) -> bool {
    let (vk, inputs) = state_statement(base_vk, merge_vk, state_proof);
    verify(vk, &inputs, &state_proof.proof)
}

/// The key and public inputs a [`StateProof`] verifies under.
fn state_statement<'a>(
    base_vk: &'a VerifyingKey,
    merge_vk: &'a VerifyingKey,
    state_proof: &StateProof,
) -> (&'a VerifyingKey, PublicInputs) {
    let vk = match state_proof.kind {
        ProofKind::Base => base_vk,
        ProofKind::Merge => merge_vk,
    };
    (vk, transition_inputs(&state_proof.from, &state_proof.to))
}

impl Deferred {
    /// A [`StateProof`] verified inside a circuit — a Merge's child, the
    /// certificate circuit's epoch proof: [`verify_state_proof`] as an
    /// embedded check ([`Deferred::proof`]).
    ///
    /// # Errors
    ///
    /// `on_fail()` when eager and the proof does not verify.
    pub fn state_proof(
        &mut self,
        base_vk: &VerifyingKey,
        merge_vk: &VerifyingKey,
        state_proof: &StateProof,
        on_fail: impl FnOnce() -> Unsatisfied,
    ) -> Result<(), Unsatisfied> {
        let (vk, inputs) = state_statement(base_vk, merge_vk, state_proof);
        self.proof(vk, &inputs, &state_proof.proof, on_fail)
    }
}

/// The Base circuit derived from a [`TransitionVerifier`].
struct BaseCircuit<'a, V> {
    verifier: &'a V,
}

impl<V: TransitionVerifier> Circuit for BaseCircuit<'_, V> {
    type Witness = V::Witness;

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged("zendoo/base-circuit", &[self.verifier.id().as_bytes()])
    }

    fn check(&self, public: &PublicInputs, witness: &Self::Witness) -> Result<(), Unsatisfied> {
        let (from, to) = expect_states(public)?;
        self.verifier.verify_transition(&from, &to, witness)
    }

    fn check_deferred(
        &self,
        public: &PublicInputs,
        witness: &Self::Witness,
        deferred: &mut Deferred,
    ) -> Result<(), Unsatisfied> {
        let (from, to) = expect_states(public)?;
        self.verifier
            .verify_transition_deferred(&from, &to, witness, deferred)
    }

    fn constraint_cost(&self, _public: &PublicInputs, witness: &Self::Witness) -> u64 {
        self.verifier.transition_cost(witness)
    }
}

/// The Merge circuit: witnesses two adjacent child proofs.
struct MergeCircuit {
    verifier_id: Digest32,
    base_vk: VerifyingKey,
    merge_vk: VerifyingKey,
}

/// Witness of a merge step: the midpoint digest plus both child proofs.
struct MergeWitness {
    left: StateProof,
    right: StateProof,
}

impl Circuit for MergeCircuit {
    type Witness = MergeWitness;

    fn id(&self) -> Digest32 {
        merge_circuit_id(&self.verifier_id)
    }

    fn check(&self, public: &PublicInputs, w: &MergeWitness) -> Result<(), Unsatisfied> {
        self.check_deferred(public, w, &mut Deferred::eager())
    }

    fn check_deferred(
        &self,
        public: &PublicInputs,
        w: &MergeWitness,
        deferred: &mut Deferred,
    ) -> Result<(), Unsatisfied> {
        let (from, to) = expect_states(public)?;
        if w.left.from != from {
            return Err(Unsatisfied::new(
                "merge/left-from",
                "left proof does not start at s_i",
            ));
        }
        if w.right.to != to {
            return Err(Unsatisfied::new(
                "merge/right-to",
                "right proof does not end at s_j",
            ));
        }
        if w.left.to != w.right.from {
            return Err(Unsatisfied::new(
                "merge/adjacency",
                "child proofs do not meet at a common midpoint s_k",
            ));
        }
        deferred.state_proof(&self.base_vk, &self.merge_vk, &w.left, || {
            Unsatisfied::new("merge/left-proof", "left child proof invalid")
        })?;
        deferred.state_proof(&self.base_vk, &self.merge_vk, &w.right, || {
            Unsatisfied::new("merge/right-proof", "right child proof invalid")
        })
    }

    fn constraint_cost(&self, _public: &PublicInputs, _w: &MergeWitness) -> u64 {
        2 * gadget_cost::PROOF_VERIFY
    }
}

fn merge_circuit_id(verifier_id: &Digest32) -> Digest32 {
    Digest32::hash_tagged("zendoo/merge-circuit", &[verifier_id.as_bytes()])
}

fn expect_states(public: &PublicInputs) -> Result<(Fp, Fp), Unsatisfied> {
    match (public.get(0), public.get(1)) {
        (Some(from), Some(to)) if public.len() == 2 => Ok((from, to)),
        _ => Err(Unsatisfied::new("arity", "expected exactly (s_i, s_j)")),
    }
}

/// A bootstrapped recursive proving system for one transition relation.
pub struct RecursiveSystem<V: TransitionVerifier> {
    verifier: V,
    base_pk: ProvingKey,
    base_vk: VerifyingKey,
    merge_pk: ProvingKey,
    merge_vk: VerifyingKey,
}

impl<V: TransitionVerifier> RecursiveSystem<V> {
    /// Bootstraps Base and Merge SNARKs for `verifier`
    /// (paper: `Setup(1^λ)` of Def 2.5).
    pub fn new<R: rand::Rng + ?Sized>(verifier: V, rng: &mut R) -> Self {
        let base_circuit = BaseCircuit {
            verifier: &verifier,
        };
        let (base_pk, base_vk) = setup(&base_circuit, rng);
        // Merge keys depend only on the circuit id, so they can be minted
        // before the circuit object (which embeds the vk) exists.
        let (merge_pk, merge_vk) = setup(&IdOnly(merge_circuit_id(&verifier.id())), rng);
        RecursiveSystem {
            verifier,
            base_pk,
            base_vk,
            merge_pk,
            merge_vk,
        }
    }

    /// Deterministic bootstrap (reproducible across processes).
    pub fn new_deterministic(verifier: V, seed: &[u8]) -> Self {
        let base_circuit = BaseCircuit {
            verifier: &verifier,
        };
        let (base_pk, base_vk) = setup_deterministic(&base_circuit, seed);
        let (merge_pk, merge_vk) =
            setup_deterministic(&IdOnly(merge_circuit_id(&verifier.id())), seed);
        RecursiveSystem {
            verifier,
            base_pk,
            base_vk,
            merge_pk,
            merge_vk,
        }
    }

    /// The transition relation.
    pub fn verifier(&self) -> &V {
        &self.verifier
    }

    /// Verification key of the Base SNARK.
    pub fn base_vk(&self) -> &VerifyingKey {
        &self.base_vk
    }

    /// Verification key of the Merge SNARK.
    pub fn merge_vk(&self) -> &VerifyingKey {
        &self.merge_vk
    }

    /// Proves a single transition (paper: `π_Base ← Prove(pk_Base, (s_i,
    /// s_{i+1}), (t_i))`).
    ///
    /// # Errors
    ///
    /// [`ProveError::Unsatisfied`] if the witness does not establish the
    /// transition.
    pub fn prove_base(
        &self,
        from: Fp,
        to: Fp,
        witness: &V::Witness,
    ) -> Result<StateProof, ProveError> {
        let circuit = BaseCircuit {
            verifier: &self.verifier,
        };
        let proof = prove(
            &self.base_pk,
            &circuit,
            &transition_inputs(&from, &to),
            witness,
        )?;
        Ok(StateProof {
            from,
            to,
            kind: ProofKind::Base,
            proof,
        })
    }

    /// Merges two adjacent proofs (paper: `π_Merge ← Prove(pk_Merge,
    /// (s_i, s_j), (s_k, π_1, π_2))`).
    ///
    /// # Errors
    ///
    /// [`ProveError::Unsatisfied`] if the children are invalid or not
    /// adjacent.
    pub fn merge(&self, left: &StateProof, right: &StateProof) -> Result<StateProof, ProveError> {
        let (from, to) = (left.from, right.to);
        let proof = prove(
            &self.merge_pk,
            &self.merge_circuit(),
            &transition_inputs(&from, &to),
            &MergeWitness {
                left: *left,
                right: *right,
            },
        )?;
        Ok(StateProof {
            from,
            to,
            kind: ProofKind::Merge,
            proof,
        })
    }

    /// Verifies a state proof produced by this system.
    pub fn verify(&self, state_proof: &StateProof) -> bool {
        verify_state_proof(&self.base_vk, &self.merge_vk, state_proof)
    }

    /// Folds a sequence of transitions into one proof via a balanced merge
    /// tree (Figs 10–11). `states` must contain `witnesses.len() + 1`
    /// digests: `s_0, s_1, …, s_n`. Witnesses may be owned or borrowed
    /// (`&[W]` or `&[&W]`), so a caller holding them elsewhere need not
    /// copy them.
    ///
    /// Each tree layer is one [`prove_layer`] on the calling thread: the
    /// base layer's transfer signatures, then every merge layer's child
    /// proofs, discharged as one batch equation a layer. The proof is
    /// the one per-step [`RecursiveSystem::prove_base`] and
    /// [`RecursiveSystem::merge`] calls would fold, byte for byte, and
    /// so is the error.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch, an empty sequence, or any unsatisfied
    /// transition.
    pub fn prove_chain<W>(&self, states: &[Fp], witnesses: &[W]) -> Result<StateProof, ProveError>
    where
        V: Sync,
        V::Witness: Sync,
        W: Borrow<V::Witness> + Sync,
    {
        check_arity("chain/arity", states, witnesses.len())?;
        self.prove_layers(states, witnesses, 1)
    }

    /// The fold itself, every layer through [`prove_layer`] on `workers`
    /// lanes; the arity was checked by the caller. Layer `k` proves the
    /// base transitions (`k = 0`) or merges adjacent pairs, an odd last
    /// proof rising unmerged — the same tree for every `workers`.
    pub(crate) fn prove_layers<W>(
        &self,
        states: &[Fp],
        witnesses: &[W],
        workers: usize,
    ) -> Result<StateProof, ProveError>
    where
        V: Sync,
        V::Witness: Sync,
        W: Borrow<V::Witness> + Sync,
    {
        let base = BaseCircuit {
            verifier: &self.verifier,
        };
        let statements: Vec<(PublicInputs, &V::Witness)> = witnesses
            .iter()
            .enumerate()
            .map(|(i, w)| (transition_inputs(&states[i], &states[i + 1]), w.borrow()))
            .collect();
        let proofs = prove_layer(&self.base_pk, &base, &statements, workers)?;
        let mut layer: Vec<StateProof> = proofs
            .into_iter()
            .enumerate()
            .map(|(i, proof)| StateProof {
                from: states[i],
                to: states[i + 1],
                kind: ProofKind::Base,
                proof,
            })
            .collect();
        let merge = self.merge_circuit();
        while layer.len() > 1 {
            let statements: Vec<(PublicInputs, MergeWitness)> = layer
                .chunks_exact(2)
                .map(|pair| {
                    let (left, right) = (pair[0], pair[1]);
                    (
                        transition_inputs(&left.from, &right.to),
                        MergeWitness { left, right },
                    )
                })
                .collect();
            let proofs = prove_layer(&self.merge_pk, &merge, &statements, workers)?;
            let odd = layer.chunks_exact(2).remainder().first().copied();
            layer = statements
                .iter()
                .zip(proofs)
                .map(|((_, w), proof)| StateProof {
                    from: w.left.from,
                    to: w.right.to,
                    kind: ProofKind::Merge,
                    proof,
                })
                .chain(odd)
                .collect();
        }
        Ok(layer.remove(0))
    }

    fn merge_circuit(&self) -> MergeCircuit {
        MergeCircuit {
            verifier_id: self.verifier.id(),
            base_vk: self.base_vk,
            merge_vk: self.merge_vk,
        }
    }
}

/// Refuses a transition sequence that is empty or whose `states` are not
/// one more than its transitions, under `rule`.
pub(crate) fn check_arity(
    rule: &'static str,
    states: &[Fp],
    transitions: usize,
) -> Result<(), ProveError> {
    if transitions == 0 || states.len() != transitions + 1 {
        return Err(ProveError::Unsatisfied(Unsatisfied::new(
            rule,
            format!(
                "need n>=1 transitions and n+1 states, got {} states / {transitions} witnesses",
                states.len()
            ),
        )));
    }
    Ok(())
}

impl<V: TransitionVerifier + std::fmt::Debug> std::fmt::Debug for RecursiveSystem<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecursiveSystem")
            .field("verifier", &self.verifier)
            .field("base_vk", &self.base_vk)
            .field("merge_vk", &self.merge_vk)
            .finish()
    }
}

/// A key-generation-only pseudo-circuit: setup needs nothing but the id.
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

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_primitives::poseidon;

    /// Toy counter system: state digest = H(counter), transition adds
    /// `delta` (witnessed), new = old + delta.
    #[derive(Debug)]
    struct Counter;

    #[derive(Clone)]
    struct Step {
        old: u64,
        delta: u64,
    }

    impl TransitionVerifier for Counter {
        type Witness = Step;

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"test/counter")
        }

        fn verify_transition(&self, from: &Fp, to: &Fp, w: &Step) -> Result<(), Unsatisfied> {
            let from_expected = digest_of(w.old);
            let to_expected = digest_of(w.old + w.delta);
            if *from != from_expected {
                return Err(Unsatisfied::new("counter/from", "pre-state mismatch"));
            }
            if *to != to_expected {
                return Err(Unsatisfied::new("counter/to", "post-state mismatch"));
            }
            Ok(())
        }
    }

    fn digest_of(counter: u64) -> Fp {
        poseidon::hash_many(&[Fp::from_u64(counter)])
    }

    fn system() -> RecursiveSystem<Counter> {
        RecursiveSystem::new_deterministic(Counter, b"test-seed")
    }

    #[test]
    fn base_proof_roundtrip() {
        let sys = system();
        let proof = sys
            .prove_base(digest_of(0), digest_of(5), &Step { old: 0, delta: 5 })
            .unwrap();
        assert!(sys.verify(&proof));
        assert_eq!(proof.kind(), ProofKind::Base);
    }

    #[test]
    fn base_proof_rejects_bad_witness() {
        let sys = system();
        let err = sys
            .prove_base(digest_of(0), digest_of(5), &Step { old: 0, delta: 4 })
            .unwrap_err();
        assert!(matches!(err, ProveError::Unsatisfied(_)));
    }

    #[test]
    fn merge_two_base_proofs() {
        let sys = system();
        let p1 = sys
            .prove_base(digest_of(0), digest_of(2), &Step { old: 0, delta: 2 })
            .unwrap();
        let p2 = sys
            .prove_base(digest_of(2), digest_of(7), &Step { old: 2, delta: 5 })
            .unwrap();
        let merged = sys.merge(&p1, &p2).unwrap();
        assert!(sys.verify(&merged));
        assert_eq!(merged.from_state(), digest_of(0));
        assert_eq!(merged.to_state(), digest_of(7));
        assert_eq!(merged.kind(), ProofKind::Merge);
    }

    /// The cost line beside what `check` runs: the model charges a Merge
    /// two in-circuit proof checks whatever its children fold, and those
    /// are the verifications the check performs (`proof_checks`).
    #[test]
    fn merge_is_charged_the_two_checks_it_runs() {
        use zendoo_primitives::opcount::measure;
        let sys = system();
        let leaves: Vec<StateProof> = (0..4)
            .map(|i| {
                sys.prove_base(digest_of(i), digest_of(i + 1), &Step { old: i, delta: 1 })
                    .unwrap()
            })
            .collect();
        let halves = [
            sys.merge(&leaves[0], &leaves[1]).unwrap(),
            sys.merge(&leaves[2], &leaves[3]).unwrap(),
        ];
        let circuit = sys.merge_circuit();
        for (left, right) in [(leaves[0], leaves[1]), (halves[0], halves[1])] {
            let inputs = transition_inputs(&left.from, &right.to);
            let witness = MergeWitness { left, right };
            let (ok, ran) = measure(|| circuit.check(&inputs, &witness));
            assert_eq!(ok, Ok(()));
            assert_eq!(
                circuit.constraint_cost(&inputs, &witness),
                ran.proof_checks * gadget_cost::PROOF_VERIFY
            );
            assert_eq!((ran.proof_checks, ran.group_muls), (2, 2));
            // Deferred, the same two checks are stated and none is run.
            let mut deferred = Deferred::new();
            let (ok, deferring) =
                measure(|| circuit.check_deferred(&inputs, &witness, &mut deferred));
            assert_eq!(ok, Ok(()));
            assert_eq!((deferring.proof_checks, deferring.group_muls), (2, 0));
            assert_eq!(deferred.len(), 2);
        }
    }

    #[test]
    fn merge_rejects_non_adjacent() {
        let sys = system();
        let p1 = sys
            .prove_base(digest_of(0), digest_of(2), &Step { old: 0, delta: 2 })
            .unwrap();
        let p3 = sys
            .prove_base(digest_of(3), digest_of(4), &Step { old: 3, delta: 1 })
            .unwrap();
        assert!(sys.merge(&p1, &p3).is_err());
    }

    #[test]
    fn merge_of_merges_nests() {
        let sys = system();
        let proofs: Vec<StateProof> = (0..4)
            .map(|i| {
                sys.prove_base(digest_of(i), digest_of(i + 1), &Step { old: i, delta: 1 })
                    .unwrap()
            })
            .collect();
        let m01 = sys.merge(&proofs[0], &proofs[1]).unwrap();
        let m23 = sys.merge(&proofs[2], &proofs[3]).unwrap();
        let top = sys.merge(&m01, &m23).unwrap();
        assert!(sys.verify(&top));
        assert_eq!(top.from_state(), digest_of(0));
        assert_eq!(top.to_state(), digest_of(4));
    }

    #[test]
    fn prove_chain_various_lengths() {
        let sys = system();
        for n in [1usize, 2, 3, 5, 8, 13] {
            let states: Vec<Fp> = (0..=n as u64).map(digest_of).collect();
            let witnesses: Vec<Step> = (0..n as u64).map(|i| Step { old: i, delta: 1 }).collect();
            let proof = sys.prove_chain(&states, &witnesses).unwrap();
            assert!(sys.verify(&proof), "chain of {n} failed");
            assert_eq!(proof.from_state(), digest_of(0));
            assert_eq!(proof.to_state(), digest_of(n as u64));
        }
    }

    #[test]
    fn prove_chain_rejects_empty_and_mismatched() {
        let sys = system();
        assert!(sys.prove_chain::<Step>(&[digest_of(0)], &[]).is_err());
        assert!(sys
            .prove_chain(&[digest_of(0)], &[Step { old: 0, delta: 1 }])
            .is_err());
    }

    #[test]
    fn forged_state_proof_rejected() {
        let sys = system();
        let good = sys
            .prove_base(digest_of(0), digest_of(1), &Step { old: 0, delta: 1 })
            .unwrap();
        // Claim a different endpoint with the same inner proof.
        let forged = StateProof {
            from: digest_of(0),
            to: digest_of(9),
            kind: ProofKind::Base,
            proof: *good.proof(),
        };
        assert!(!sys.verify(&forged));
    }

    #[test]
    fn cross_system_proofs_rejected() {
        let sys_a = RecursiveSystem::new_deterministic(Counter, b"seed-a");
        let sys_b = RecursiveSystem::new_deterministic(Counter, b"seed-b");
        let proof = sys_a
            .prove_base(digest_of(0), digest_of(1), &Step { old: 0, delta: 1 })
            .unwrap();
        assert!(!sys_b.verify(&proof), "different setup, different keys");
    }

    #[test]
    fn standalone_verifier_matches_system_verifier() {
        let sys = system();
        let proof = sys
            .prove_base(digest_of(0), digest_of(3), &Step { old: 0, delta: 3 })
            .unwrap();
        assert!(verify_state_proof(sys.base_vk(), sys.merge_vk(), &proof));
    }

    /// The fold as it was before layers: one `prove_base` per transition,
    /// one `merge` per pair, each checking its children on its own — the
    /// reference the layered fold must equal, proof and error alike.
    fn eager_chain<V: TransitionVerifier>(
        sys: &RecursiveSystem<V>,
        states: &[Fp],
        witnesses: &[V::Witness],
    ) -> Result<StateProof, ProveError> {
        let mut layer = witnesses
            .iter()
            .enumerate()
            .map(|(i, w)| sys.prove_base(states[i], states[i + 1], w))
            .collect::<Result<Vec<_>, _>>()?;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| match pair {
                    [left, right] => sys.merge(left, right),
                    [single] => Ok(*single),
                    _ => unreachable!("chunks(2) yields 1..=2 items"),
                })
                .collect::<Result<_, _>>()?;
        }
        Ok(layer.remove(0))
    }

    fn counter_chain(n: u64) -> (Vec<Fp>, Vec<Step>) {
        let states = (0..=n).map(digest_of).collect();
        let witnesses = (0..n).map(|old| Step { old, delta: 1 }).collect();
        (states, witnesses)
    }

    #[test]
    fn layered_fold_is_the_eager_fold_byte_for_byte() {
        let sys = system();
        for n in [1u64, 2, 3, 5, 8, 13] {
            let (states, witnesses) = counter_chain(n);
            let eager = eager_chain(&sys, &states, &witnesses).unwrap();
            assert_eq!(sys.prove_chain(&states, &witnesses).unwrap(), eager);
            for workers in [2, 4] {
                let prover = crate::parallel::ParallelProver::new(&sys, workers);
                assert_eq!(prover.prove_chain(&states, &witnesses).unwrap().0, eager);
            }
        }
    }

    /// A child that does not verify in merge layer `j` — every base proof
    /// checked against another setup's base key (`j = 0`), or every merge
    /// proof against another's merge key (`j = 1`): the layer's equation
    /// fails and the fold reports what the eager fold reports, the
    /// first merge's `merge/left-proof`, on every number of lanes.
    #[test]
    fn a_bad_child_in_merge_layer_j_fails_as_the_eager_fold_does() {
        let honest = system();
        let other = RecursiveSystem::new_deterministic(Counter, b"another-setup");
        let rewired = |base_vk, merge_vk| RecursiveSystem {
            verifier: Counter,
            base_pk: honest.base_pk.clone(),
            base_vk,
            merge_pk: honest.merge_pk.clone(),
            merge_vk,
        };
        let (states, witnesses) = counter_chain(8);
        for (layer, sys) in [
            (0, rewired(other.base_vk, honest.merge_vk)),
            (1, rewired(honest.base_vk, other.merge_vk)),
        ] {
            let eager = eager_chain(&sys, &states, &witnesses).unwrap_err();
            let ProveError::Unsatisfied(unsatisfied) = &eager else {
                panic!("layer {layer}: {eager:?}");
            };
            assert_eq!(unsatisfied.rule, "merge/left-proof", "layer {layer}");
            assert_eq!(sys.prove_chain(&states, &witnesses), Err(eager.clone()));
            for workers in [1, 2, 4] {
                let prover = crate::parallel::ParallelProver::new(&sys, workers);
                assert_eq!(
                    prover
                        .prove_chain(&states, &witnesses)
                        .map(|(proof, _)| proof),
                    Err(eager.clone()),
                    "layer {layer}, {workers} lanes"
                );
            }
        }
    }

    /// A counter whose every step is signed by one of two keys: a Base
    /// circuit with a deferred check, stated between two structural ones.
    #[derive(Debug)]
    struct SignedCounter;

    #[derive(Clone)]
    struct SignedStep {
        old: u64,
        key: zendoo_primitives::schnorr::PublicKey,
        sig: zendoo_primitives::schnorr::Signature,
    }

    const STEP_CONTEXT: &str = "test/signed-step";

    impl TransitionVerifier for SignedCounter {
        type Witness = SignedStep;

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"test/signed-counter")
        }

        fn verify_transition(&self, from: &Fp, to: &Fp, w: &SignedStep) -> Result<(), Unsatisfied> {
            self.verify_transition_deferred(from, to, w, &mut Deferred::eager())
        }

        fn verify_transition_deferred(
            &self,
            from: &Fp,
            to: &Fp,
            w: &SignedStep,
            deferred: &mut Deferred,
        ) -> Result<(), Unsatisfied> {
            if *from != digest_of(w.old) {
                return Err(Unsatisfied::new("signed/from", "pre-state mismatch"));
            }
            deferred.signature(STEP_CONTEXT, &w.key, &w.old.to_be_bytes(), &w.sig, || {
                Unsatisfied::new("signed/sig", format!("step {} is not signed", w.old))
            })?;
            if *to != digest_of(w.old + 1) {
                return Err(Unsatisfied::new("signed/to", "post-state mismatch"));
            }
            Ok(())
        }
    }

    fn signed_step(old: u64) -> SignedStep {
        let signer = zendoo_primitives::schnorr::Keypair::from_seed(&[(old % 2) as u8]);
        SignedStep {
            old,
            key: signer.public,
            sig: signer.secret.sign(STEP_CONTEXT, &old.to_be_bytes()),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// `prove_layer` is per-statement `prove`, statement by statement
        /// and error for error, on a base layer with deferred signatures
        /// and a merge layer with deferred child proofs, whatever is
        /// corrupted where and however many lanes prove it.
        #[test]
        fn prop_prove_layer_equals_eager_prove(
            n in 1u64..12,
            corrupt in proptest::collection::vec((0usize..12, 0u8..7), 0..4),
            workers in 1usize..5,
        ) {
            let sys = RecursiveSystem::new_deterministic(SignedCounter, b"layer-prop");
            let base = BaseCircuit { verifier: &sys.verifier };
            let mut steps: Vec<(PublicInputs, SignedStep)> = (0..n)
                .map(|i| (transition_inputs(&digest_of(i), &digest_of(i + 1)), signed_step(i)))
                .collect();
            let leaves: Vec<StateProof> = (0..n)
                .map(|i| sys.prove_base(digest_of(i), digest_of(i + 1), &signed_step(i)).unwrap())
                .collect();
            let mut merges: Vec<(PublicInputs, MergeWitness)> = leaves
                .chunks_exact(2)
                .map(|pair| {
                    let (left, right) = (pair[0], pair[1]);
                    (transition_inputs(&left.from, &right.to), MergeWitness { left, right })
                })
                .collect();
            for (at, how) in corrupt {
                let (public, step) = &mut steps[at % n as usize];
                match how {
                    0 => step.sig = signed_step(step.old + 1).sig,
                    1 => step.key = signed_step(step.old + 1).key,
                    2 => *public = transition_inputs(&digest_of(step.old), &digest_of(99)),
                    _ if merges.is_empty() => {}
                    how => {
                        let donor = leaves[(at + 1) % leaves.len()];
                        let slot = at % merges.len();
                        let (public, w) = &mut merges[slot];
                        match how {
                            3 => w.left.proof = donor.proof,
                            4 => w.right.proof = donor.proof,
                            5 => w.right.kind = ProofKind::Merge,
                            _ => *public = transition_inputs(&w.left.from, &digest_of(99)),
                        }
                    }
                }
            }
            let eager_base: Result<Vec<Proof>, _> = steps
                .iter()
                .map(|(public, step)| prove(&sys.base_pk, &base, public, step))
                .collect();
            proptest::prop_assert_eq!(
                prove_layer(&sys.base_pk, &base, &steps, workers),
                eager_base
            );
            let merge = sys.merge_circuit();
            let eager_merge: Result<Vec<Proof>, _> = merges
                .iter()
                .map(|(public, w)| prove(&sys.merge_pk, &merge, public, w))
                .collect();
            proptest::prop_assert_eq!(
                prove_layer(&sys.merge_pk, &merge, &merges, workers),
                eager_merge
            );
        }
    }
}
