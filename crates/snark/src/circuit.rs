//! Circuit abstraction: executable arithmetic constraint systems.
//!
//! The paper (Def 2.3) models a SNARK over "a set of polynomials over a
//! finite field" in public inputs and witness variables. In this
//! reproduction a [`Circuit`] is an executable predicate — the constraint
//! system evaluated directly — plus a constraint-count estimate that
//! preserves the *cost shape* of real proving (see the substitution
//! model in [`crate::backend`]).

use std::fmt;
use zendoo_primitives::digest::Digest32;

use crate::deferred::Deferred;
use crate::inputs::PublicInputs;

/// Why a constraint system rejected an assignment.
///
/// The variants carry human-readable context; protocol code treats any
/// unsatisfied circuit identically (the proof is refused).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsatisfied {
    /// Which constraint family failed.
    pub rule: &'static str,
    /// Free-form detail for diagnostics.
    pub detail: String,
}

impl Unsatisfied {
    /// Creates an unsatisfied-constraint report.
    pub fn new(rule: &'static str, detail: impl Into<String>) -> Self {
        Unsatisfied {
            rule,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Unsatisfied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint `{}` unsatisfied: {}", self.rule, self.detail)
    }
}

impl std::error::Error for Unsatisfied {}

/// An arithmetic constraint system with a typed witness.
///
/// Implementors define the statement that a proof attests to. `Prove`
/// refuses to produce a proof unless [`Circuit::check`] succeeds, which is
/// what gives the simulated backend knowledge soundness in the
/// trusted-setup model.
pub trait Circuit {
    /// The witness (private input) type.
    type Witness;

    /// A stable identifier of the constraint system. Two circuits with
    /// different semantics must have different ids; the id is bound into
    /// every proof.
    fn id(&self) -> Digest32;

    /// Evaluates the constraint system on `(public, witness)`.
    ///
    /// # Errors
    ///
    /// Returns [`Unsatisfied`] describing the first violated constraint.
    fn check(&self, public: &PublicInputs, witness: &Self::Witness) -> Result<(), Unsatisfied>;

    /// [`Circuit::check`] with the embedded proof and signature checks
    /// stated into `deferred` instead of run: what the layer prover
    /// ([`crate::backend::prove_layer`]) calls, discharging every
    /// statement's checks of a layer as one equation. The default
    /// defers nothing.
    ///
    /// A circuit that overrides it keeps one implementation: its
    /// `check` is this method over [`Deferred::eager`], which runs each
    /// embedded check where it is stated. The constraint model still
    /// prices what `check` runs (`constraint_cost` below), deferred or
    /// not: deferral changes when the prover pays, not the statement.
    ///
    /// # Errors
    ///
    /// [`Unsatisfied`] for the first violated constraint that is not
    /// deferred (and, eager, for the first that is).
    fn check_deferred(
        &self,
        public: &PublicInputs,
        witness: &Self::Witness,
        _deferred: &mut Deferred,
    ) -> Result<(), Unsatisfied> {
        self.check(public, witness)
    }

    /// Approximate number of R1CS constraints this assignment occupies.
    ///
    /// A model of the prover's work in [`gadget_cost`] units, with no
    /// effect on soundness and no caller in production code: the claim
    /// tests (`tests/paper_claims.rs` at the root, and the cost-line
    /// tests beside the private circuits of this crate) read it next to
    /// the measured operation counts, so the shape it states — linear in
    /// the statement, constant per recursion step — cannot drift from
    /// what `check` runs. The default charges a flat cost.
    fn constraint_cost(&self, _public: &PublicInputs, _witness: &Self::Witness) -> u64 {
        1 << 10
    }
}

/// Blanket implementation so `&C` is usable wherever `C` is.
impl<C: Circuit> Circuit for &C {
    type Witness = C::Witness;

    fn id(&self) -> Digest32 {
        (*self).id()
    }

    fn check(&self, public: &PublicInputs, witness: &Self::Witness) -> Result<(), Unsatisfied> {
        (*self).check(public, witness)
    }

    fn check_deferred(
        &self,
        public: &PublicInputs,
        witness: &Self::Witness,
        deferred: &mut Deferred,
    ) -> Result<(), Unsatisfied> {
        (*self).check_deferred(public, witness, deferred)
    }

    fn constraint_cost(&self, public: &PublicInputs, witness: &Self::Witness) -> u64 {
        (*self).constraint_cost(public, witness)
    }
}

/// Reference constraint-cost figures for common gadgets, mirroring the
/// R1CS sizes of production circuits: `constraints = Σ gadget costs`, so
/// that the *shape* of the modelled proving cost over workload size
/// matches a real backend.
pub mod gadget_cost {
    /// One Poseidon2 2-to-1 compression (t=3, 8 full + 57 partial rounds,
    /// x^5 S-box ⇒ ~3 constraints per S-box application; the linear
    /// layers are linear combinations, free in R1CS).
    pub const POSEIDON_HASH2: u64 = 243;
    /// One Merkle-path verification step (hash + selector).
    pub const MERKLE_STEP: u64 = POSEIDON_HASH2 + 2;
    /// One in-circuit Schnorr verification (scalar mul dominated).
    pub const SCHNORR_VERIFY: u64 = 3_400;
    /// One in-circuit SNARK verification (recursive composition step).
    pub const PROOF_VERIFY: u64 = 40_000;
    /// One 64-bit range check.
    pub const RANGE64: u64 = 64;
    /// Field addition/comparison bookkeeping.
    pub const FIELD_OP: u64 = 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_primitives::field::Fp;

    /// Toy circuit: proves knowledge of `w` with `w² = public[0]`.
    struct SquareRoot;

    impl Circuit for SquareRoot {
        type Witness = Fp;

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"test/square-root")
        }

        fn check(&self, public: &PublicInputs, witness: &Fp) -> Result<(), Unsatisfied> {
            let target = public
                .get(0)
                .ok_or_else(|| Unsatisfied::new("arity", "missing public input"))?;
            if witness.square() == target {
                Ok(())
            } else {
                Err(Unsatisfied::new("square", "w^2 != x"))
            }
        }
    }

    #[test]
    fn satisfied_and_unsatisfied() {
        let mut public = PublicInputs::new();
        public.push_fp(Fp::from_u64(49));
        assert!(SquareRoot.check(&public, &Fp::from_u64(7)).is_ok());
        let err = SquareRoot.check(&public, &Fp::from_u64(8)).unwrap_err();
        assert_eq!(err.rule, "square");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn reference_circuit_works_through_blanket_impl() {
        let mut public = PublicInputs::new();
        public.push_fp(Fp::from_u64(9));
        let by_ref = &SquareRoot;
        assert!(by_ref.check(&public, &Fp::from_u64(3)).is_ok());
        assert_eq!(by_ref.id(), SquareRoot.id());
    }
}
