//! Deferred in-circuit checks: verify once per layer.
//!
//! Some circuits embed verifications — a Merge its two child proofs
//! (Def 2.5), a Fold its two child aggregates, a Latus transition the
//! signature of every input it spends. In this backend each of them is a
//! Schnorr check (a proof is an attestation signature over its
//! statement), so a prover holding a whole *layer* of statements — every
//! merge of one level of the Fig 10/11 tree, every base proof of an epoch
//! — need not run them one by one: it can collect them in a [`Deferred`]
//! and discharge the lot with one randomised batch equation
//! ([`schnorr::verify_batch`]), where the children of a merge layer,
//! attested by only two keys, cost about one 128-bit multiplication each.
//!
//! A circuit states its embedded checks once, in
//! [`Circuit::check_deferred`](crate::circuit::Circuit::check_deferred),
//! against whatever accumulator it is handed. [`Deferred::eager`] checks
//! each one where it is stated and fails there, with the rule the circuit
//! named — that is `Circuit::check`, and the error order of a circuit
//! that never deferred. [`Deferred::new`] only records; the layer prover
//! ([`crate::backend::prove_layer`]) discharges it before it signs
//! anything, and reruns the eager check when the discharge fails, so a
//! deferred check can save work and never change a verdict or an error.

use zendoo_primitives::opcount;
use zendoo_primitives::schnorr::{self, PublicKey, Signature};

use crate::backend::{self, Proof, VerifyingKey};
use crate::circuit::Unsatisfied;
use crate::inputs::PublicInputs;

/// One signature check owed to a later discharge.
#[derive(Debug)]
struct Owed {
    context: &'static str,
    key: PublicKey,
    message: Vec<u8>,
    signature: Signature,
}

/// The embedded checks of one or more circuit evaluations: checked where
/// they are stated ([`Deferred::eager`]) or collected for one batch
/// equation ([`Deferred::new`], [`Deferred::discharge`]).
#[derive(Debug, Default)]
pub struct Deferred {
    eager: bool,
    owed: Vec<Owed>,
}

impl Deferred {
    /// An accumulator that records every check for
    /// [`Deferred::discharge`]: stating a check never fails.
    pub fn new() -> Self {
        Self::default()
    }

    /// An accumulator that verifies every check as it is stated and
    /// fails with the circuit's error at the first that does not hold.
    pub fn eager() -> Self {
        Deferred {
            eager: true,
            owed: Vec::new(),
        }
    }

    /// An embedded SNARK verification, `Verify(vk, inputs, proof)`
    /// (counted in [`opcount::OpCount::proof_checks`] either way).
    ///
    /// # Errors
    ///
    /// `on_fail()` when eager and the proof does not verify.
    pub fn proof(
        &mut self,
        vk: &VerifyingKey,
        inputs: &PublicInputs,
        proof: &Proof,
        on_fail: impl FnOnce() -> Unsatisfied,
    ) -> Result<(), Unsatisfied> {
        opcount::proof_check();
        let (key, message, signature) = backend::attestation(vk, inputs, proof);
        self.signature(
            backend::PROOF_CONTEXT,
            &key,
            message.as_bytes(),
            &signature,
            on_fail,
        )
    }

    /// An embedded Schnorr verification of `signature` over `message`
    /// under `key`, domain-separated by `context`.
    ///
    /// # Errors
    ///
    /// `on_fail()` when eager and the signature does not verify.
    pub fn signature(
        &mut self,
        context: &'static str,
        key: &PublicKey,
        message: &[u8],
        signature: &Signature,
        on_fail: impl FnOnce() -> Unsatisfied,
    ) -> Result<(), Unsatisfied> {
        if self.eager {
            return if key.verify(context, message, signature) {
                Ok(())
            } else {
                Err(on_fail())
            };
        }
        self.owed.push(Owed {
            context,
            key: *key,
            message: message.to_vec(),
            signature: *signature,
        });
        Ok(())
    }

    /// Number of checks recorded and not yet discharged (always 0 for an
    /// eager accumulator).
    pub fn len(&self) -> usize {
        self.owed.len()
    }

    /// Returns `true` when nothing is owed.
    pub fn is_empty(&self) -> bool {
        self.owed.is_empty()
    }

    /// Every recorded check as one batch equation: `true` when all hold,
    /// `false` when some does not (and not which — rerun the eager check
    /// to name it). Nothing owed is vacuously `true` and costs nothing.
    pub fn discharge(&self) -> bool {
        let items: Vec<_> = self
            .owed
            .iter()
            .map(|owed| {
                (
                    owed.context,
                    &owed.key,
                    owed.message.as_slice(),
                    &owed.signature,
                )
            })
            .collect();
        schnorr::verify_batch(&items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{prove, setup_deterministic};
    use crate::circuit::Circuit;
    use zendoo_primitives::digest::Digest32;
    use zendoo_primitives::field::Fp;
    use zendoo_primitives::opcount::measure;
    use zendoo_primitives::schnorr::Keypair;

    struct Echo;

    impl Circuit for Echo {
        type Witness = ();

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"deferred/echo")
        }

        fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
            Ok(())
        }
    }

    fn statement(x: u64) -> PublicInputs {
        let mut inputs = PublicInputs::new();
        inputs.push_fp(Fp::from_u64(x));
        inputs
    }

    fn fail() -> Unsatisfied {
        Unsatisfied::new("test/bad", "bad check")
    }

    #[test]
    fn eager_checks_where_stated_and_deferred_at_discharge() {
        let (pk, vk) = setup_deterministic(&Echo, b"deferred");
        let proofs: Vec<_> = (0..4)
            .map(|x| prove(&pk, &Echo, &statement(x), &()).unwrap())
            .collect();
        let signer = Keypair::from_seed(b"deferred-signer");
        let sig = signer.secret.sign("test", b"m");

        let mut eager = Deferred::eager();
        let (ok, cost) = measure(|| {
            for (x, proof) in proofs.iter().enumerate() {
                eager.proof(&vk, &statement(x as u64), proof, fail)?;
            }
            eager.signature("test", &signer.public, b"m", &sig, fail)
        });
        assert_eq!(ok, Ok(()));
        assert!(eager.is_empty());
        assert_eq!((cost.group_muls, cost.proof_checks), (5, 4));
        // The first bad check fails, with the circuit's own error.
        assert_eq!(
            eager.proof(&vk, &statement(9), &proofs[0], fail),
            Err(fail())
        );

        let mut deferred = Deferred::new();
        let (ok, cost) = measure(|| {
            for (x, proof) in proofs.iter().enumerate() {
                deferred.proof(&vk, &statement(x as u64), proof, fail)?;
            }
            deferred.signature("test", &signer.public, b"m", &sig, fail)
        });
        assert_eq!(ok, Ok(()));
        assert_eq!(deferred.len(), 5);
        assert_eq!((cost.group_muls, cost.proof_checks), (0, 4));
        let (ok, cost) = measure(|| deferred.discharge());
        assert!(ok);
        assert_eq!((cost.group_muls, cost.proof_checks), (1, 0));
        // A bad check is recorded, not refused, and fails the discharge.
        assert_eq!(deferred.proof(&vk, &statement(9), &proofs[0], fail), Ok(()));
        assert!(!deferred.discharge());
        assert!(Deferred::new().discharge(), "nothing owed");
    }
}
