//! Circuit abstraction: executable arithmetic constraint systems.
//!
//! The paper (Def 2.3) models a SNARK over "a set of polynomials over a
//! finite field" in public inputs and witness variables. In this
//! reproduction a [`Circuit`] is an executable predicate — the constraint
//! system evaluated directly (see the substitution model in
//! [`crate::backend`]). What proving an assignment would cost is read off
//! that evaluation, not written beside it: [`constraint_cost`] runs the
//! check and prices the operations it counted ([`gadget_cost::price`]),
//! so the cost shape of real proving follows whatever the check does.

use std::fmt;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::opcount::measure;

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
    /// embedded check where it is stated. The constraint model prices
    /// what `check` runs ([`constraint_cost`]), so deferring changes when
    /// the prover pays, not what the statement costs.
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
}

/// Approximate number of R1CS constraints proving `(public, witness)`
/// occupies: the operations [`Circuit::check`] runs, priced by
/// [`gadget_cost::price`]. The check runs twice and the second run is
/// measured, so constants built on first use are not charged.
///
/// A model with no effect on soundness and no caller in production code
/// (the claim tests read it). It prices what the check computes and
/// nothing a real circuit adds around it: range checks, selectors,
/// padding a path to a fixed length.
///
/// # Errors
///
/// The check's [`Unsatisfied`]: only a satisfying assignment is priced.
pub fn constraint_cost<C: Circuit>(
    circuit: &C,
    public: &PublicInputs,
    witness: &C::Witness,
) -> Result<u64, Unsatisfied> {
    circuit.check(public, witness)?;
    let (checked, ran) = measure(|| circuit.check(public, witness));
    checked.map(|()| gadget_cost::price(ran))
}

/// The constraint model's price list: what one counted operation would
/// occupy in a production R1CS circuit. These are modelled figures, not
/// measurements; [`price`] is the only place they meet the counts.
pub mod gadget_cost {
    use zendoo_primitives::opcount::OpCount;

    /// One Poseidon2 permutation (t=3, 8 full + 57 partial rounds, x^5
    /// S-box ⇒ 3 constraints per S-box application; the linear layers are
    /// linear combinations, free in R1CS).
    pub const POSEIDON_HASH2: u64 = 243;
    /// One in-circuit Schnorr verification (scalar mul dominated).
    pub const SCHNORR_VERIFY: u64 = 3_400;
    /// One in-circuit SNARK verification (recursive composition step).
    pub const PROOF_VERIFY: u64 = 40_000;

    /// Prices the counts of an eager check, where an embedded proof check
    /// is one `group_mul` and one `proof_check`: the group multiplications
    /// left over are signatures. SHA-256 is not priced: part of it is the
    /// simulated verifier hashing its own statement (a Merge runs 12
    /// compressions for its 2 proof checks), and pricing that would
    /// charge a Merge more for hashing than for verifying.
    ///
    /// # Panics
    ///
    /// On more proof checks than group multiplications (a deferred
    /// check's counts).
    pub fn price(ran: OpCount) -> u64 {
        assert!(
            ran.proof_checks <= ran.group_muls,
            "not the counts of an eager check: {ran:?}"
        );
        let signatures = ran.group_muls - ran.proof_checks;
        ran.proof_checks * PROOF_VERIFY
            + signatures * SCHNORR_VERIFY
            + ran.permutations * POSEIDON_HASH2
    }
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

    /// The model prices a satisfying assignment by what its check ran —
    /// a comparison of field elements runs nothing priced — and refuses
    /// to price a false one.
    #[test]
    fn the_model_prices_what_the_check_ran() {
        let mut public = PublicInputs::new();
        public.push_fp(Fp::from_u64(49));
        assert_eq!(
            constraint_cost(&SquareRoot, &public, &Fp::from_u64(7)),
            Ok(0)
        );
        let err = constraint_cost(&SquareRoot, &public, &Fp::from_u64(8)).unwrap_err();
        assert_eq!(err.rule, "square");

        let ran = zendoo_primitives::opcount::OpCount {
            permutations: 2,
            group_muls: 3,
            fixed_base: 0,
            variable_base: 3,
            multi_scalar: 0,
            sha_blocks: 99,
            proof_checks: 1,
        };
        let priced = gadget_cost::PROOF_VERIFY
            + 2 * gadget_cost::SCHNORR_VERIFY
            + 2 * gadget_cost::POSEIDON_HASH2;
        assert_eq!(gadget_cost::price(ran), priced, "SHA-256 is not priced");
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
