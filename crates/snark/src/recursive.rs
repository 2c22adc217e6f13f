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
//! shape of Fig 10 (within a block) and Fig 11 (across an epoch).

use serde::{Deserialize, Serialize};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::field::Fp;

use crate::backend::{
    prove, setup, setup_deterministic, verify, Proof, ProveError, ProvingKey, VerifyingKey,
};
use crate::circuit::{gadget_cost, Circuit, Unsatisfied};
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
    let vk = match state_proof.kind {
        ProofKind::Base => base_vk,
        ProofKind::Merge => merge_vk,
    };
    verify(
        vk,
        &transition_inputs(&state_proof.from, &state_proof.to),
        &state_proof.proof,
    )
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
        if !verify_state_proof(&self.base_vk, &self.merge_vk, &w.left) {
            return Err(Unsatisfied::new(
                "merge/left-proof",
                "left child proof invalid",
            ));
        }
        if !verify_state_proof(&self.base_vk, &self.merge_vk, &w.right) {
            return Err(Unsatisfied::new(
                "merge/right-proof",
                "right child proof invalid",
            ));
        }
        Ok(())
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
        let circuit = MergeCircuit {
            verifier_id: self.verifier.id(),
            base_vk: self.base_vk,
            merge_vk: self.merge_vk,
        };
        let (from, to) = (left.from, right.to);
        let proof = prove(
            &self.merge_pk,
            &circuit,
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
    /// # Errors
    ///
    /// Fails on arity mismatch, an empty sequence, or any unsatisfied
    /// transition.
    pub fn prove_chain<W: std::borrow::Borrow<V::Witness>>(
        &self,
        states: &[Fp],
        witnesses: &[W],
    ) -> Result<StateProof, ProveError> {
        if witnesses.is_empty() || states.len() != witnesses.len() + 1 {
            return Err(ProveError::Unsatisfied(Unsatisfied::new(
                "chain/arity",
                format!(
                    "need n>=1 transitions and n+1 states, got {} states / {} witnesses",
                    states.len(),
                    witnesses.len()
                ),
            )));
        }
        let mut layer: Vec<StateProof> = Vec::with_capacity(witnesses.len());
        for (i, witness) in witnesses.iter().enumerate() {
            layer.push(self.prove_base(states[i], states[i + 1], witness.borrow())?);
        }
        // Balanced fold: pair adjacent proofs until one remains.
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut iter = layer.chunks(2);
            for pair in &mut iter {
                match pair {
                    [left, right] => next.push(self.merge(left, right)?),
                    [single] => next.push(*single),
                    _ => unreachable!("chunks(2) yields 1..=2 items"),
                }
            }
            layer = next;
        }
        Ok(layer.remove(0))
    }
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
    /// are the verifications the check performs.
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
        let circuit = MergeCircuit {
            verifier_id: sys.verifier.id(),
            base_vk: sys.base_vk,
            merge_vk: sys.merge_vk,
        };
        for (left, right) in [(leaves[0], leaves[1]), (halves[0], halves[1])] {
            let inputs = transition_inputs(&left.from, &right.to);
            let witness = MergeWitness { left, right };
            let (ok, ran) = measure(|| circuit.check(&inputs, &witness));
            assert_eq!(ok, Ok(()));
            assert_eq!(
                circuit.constraint_cost(&inputs, &witness),
                ran.group_muls * gadget_cost::PROOF_VERIFY
            );
            assert_eq!(ran.group_muls, 2);
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
}
