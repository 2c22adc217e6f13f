//! The certifier-committee baseline (the authors' earlier design,
//! arXiv:1812.05441, discussed in §1.1/§3.1 and compared against
//! throughout the paper).
//!
//! Withdrawal certificates are authorized by an m-of-n committee of
//! *certifiers* instead of a state-transition proof. Two forms are
//! provided:
//!
//! * [`CertifierCommittee::verify_native`] — the baseline as the
//!   original design would run it (the mainchain checks m signatures) —
//!   whose cost the E3 claim (`paper_claims::e3_…`, in the root
//!   `tests/`) compares against the SNARK path;
//! * [`CertifierCircuit`] — the same rule packaged *as a sidechain
//!   SNARK circuit*, demonstrating the universality claim of §4.1: the
//!   certifier trust model is just another circuit behind the unified
//!   verifier interface.

use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::Encode;
use zendoo_primitives::schnorr::{PublicKey, SecretKey, Signature};
use zendoo_snark::circuit::{Circuit, Unsatisfied};
use zendoo_snark::inputs::PublicInputs;

/// Signature context for certifier endorsements.
const CERTIFIER_CONTEXT: &str = "zendoo/certifier-endorsement";

/// An m-of-n certifier committee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifierCommittee {
    members: Vec<PublicKey>,
    threshold: usize,
}

impl CertifierCommittee {
    /// Creates a committee requiring `threshold` of `members`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or exceeds the member count.
    pub fn new(members: Vec<PublicKey>, threshold: usize) -> Self {
        assert!(
            threshold >= 1 && threshold <= members.len(),
            "threshold must be in 1..=members"
        );
        CertifierCommittee { members, threshold }
    }

    /// The member keys.
    pub fn members(&self) -> &[PublicKey] {
        &self.members
    }

    /// The endorsement threshold `m`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The message certifiers endorse for a given statement.
    pub fn endorsement_message(&self, statement: &PublicInputs) -> Digest32 {
        Digest32::hash_tagged("zendoo/certifier-statement", &[&statement.encoded()])
    }

    /// Produces one certifier's endorsement.
    pub fn endorse(
        &self,
        member_index: usize,
        sk: &SecretKey,
        statement: &PublicInputs,
    ) -> Endorsement {
        Endorsement {
            member_index: member_index as u32,
            signature: sk.sign(
                CERTIFIER_CONTEXT,
                self.endorsement_message(statement).as_bytes(),
            ),
        }
    }

    /// The baseline's native verification path: at least `threshold`
    /// valid endorsements from distinct members.
    pub fn verify_native(&self, statement: &PublicInputs, endorsements: &[Endorsement]) -> bool {
        let message = self.endorsement_message(statement);
        let mut seen = std::collections::HashSet::new();
        let mut valid = 0usize;
        for endorsement in endorsements {
            let index = endorsement.member_index as usize;
            let Some(member) = self.members.get(index) else {
                return false;
            };
            if !seen.insert(index) {
                return false; // duplicate endorsement
            }
            if !member.verify(
                CERTIFIER_CONTEXT,
                message.as_bytes(),
                &endorsement.signature,
            ) {
                return false;
            }
            valid += 1;
        }
        valid >= self.threshold
    }

    /// A digest identifying the committee (for circuit ids).
    pub fn digest(&self) -> Digest32 {
        let mut bytes = Vec::new();
        (self.threshold as u64).encode_into(&mut bytes);
        for member in &self.members {
            member.to_bytes().encode_into(&mut bytes);
        }
        Digest32::hash_tagged("zendoo/certifier-committee", &[&bytes])
    }
}

/// One certifier's signature over a certificate statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Endorsement {
    /// The member's index in the committee.
    pub member_index: u32,
    /// The Schnorr endorsement.
    pub signature: Signature,
}

/// The certifier model expressed as a CCTP circuit: the statement is
/// "at least m committee members signed these public inputs".
#[derive(Clone, Debug)]
pub struct CertifierCircuit {
    committee: CertifierCommittee,
}

impl CertifierCircuit {
    /// Wraps a committee as a circuit.
    pub fn new(committee: CertifierCommittee) -> Self {
        CertifierCircuit { committee }
    }

    /// The underlying committee.
    pub fn committee(&self) -> &CertifierCommittee {
        &self.committee
    }
}

impl Circuit for CertifierCircuit {
    type Witness = Vec<Endorsement>;

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged(
            "zendoo/certifier-circuit",
            &[self.committee.digest().as_bytes()],
        )
    }

    fn check(&self, public: &PublicInputs, witness: &Vec<Endorsement>) -> Result<(), Unsatisfied> {
        if self.committee.verify_native(public, witness) {
            Ok(())
        } else {
            Err(Unsatisfied::new(
                "certifier/threshold",
                format!(
                    "fewer than {} valid distinct endorsements",
                    self.committee.threshold
                ),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_primitives::schnorr::Keypair;
    use zendoo_snark::backend::{prove, setup_deterministic, verify};

    fn committee_of(n: usize, m: usize) -> (CertifierCommittee, Vec<Keypair>) {
        let keys: Vec<Keypair> = (0..n)
            .map(|i| Keypair::from_seed(format!("certifier-{i}").as_bytes()))
            .collect();
        let committee = CertifierCommittee::new(keys.iter().map(|k| k.public).collect(), m);
        (committee, keys)
    }

    fn statement() -> PublicInputs {
        let mut s = PublicInputs::new();
        s.push_u64(5).push_digest(&Digest32::hash_bytes(b"bt-root"));
        s
    }

    #[test]
    fn native_threshold_verification() {
        let (committee, keys) = committee_of(5, 3);
        let stmt = statement();
        let endorsements: Vec<Endorsement> = (0..3)
            .map(|i| committee.endorse(i, &keys[i].secret, &stmt))
            .collect();
        assert!(committee.verify_native(&stmt, &endorsements));
        assert!(!committee.verify_native(&stmt, &endorsements[..2]));
    }

    #[test]
    fn duplicate_endorsements_rejected() {
        let (committee, keys) = committee_of(5, 3);
        let stmt = statement();
        let e = committee.endorse(0, &keys[0].secret, &stmt);
        let dup = vec![e.clone(), e.clone(), e];
        assert!(!committee.verify_native(&stmt, &dup));
    }

    #[test]
    fn non_member_signature_rejected() {
        let (committee, keys) = committee_of(3, 2);
        let stranger = Keypair::from_seed(b"stranger");
        let stmt = statement();
        let endorsements = vec![
            committee.endorse(0, &keys[0].secret, &stmt),
            // Stranger signs claiming member index 1.
            committee.endorse(1, &stranger.secret, &stmt),
        ];
        assert!(!committee.verify_native(&stmt, &endorsements));
    }

    #[test]
    fn statement_binding() {
        let (committee, keys) = committee_of(3, 2);
        let stmt = statement();
        let endorsements: Vec<Endorsement> = (0..2)
            .map(|i| committee.endorse(i, &keys[i].secret, &stmt))
            .collect();
        let mut other = PublicInputs::new();
        other.push_u64(6);
        assert!(!committee.verify_native(&other, &endorsements));
    }

    #[test]
    fn certifier_circuit_through_unified_verifier() {
        // E13: the committee model runs behind the standard SNARK
        // interface — the mainchain cannot tell the difference.
        let (committee, keys) = committee_of(4, 3);
        let circuit = CertifierCircuit::new(committee.clone());
        let (pk, vk) = setup_deterministic(&circuit, b"committee");
        let stmt = statement();
        let endorsements: Vec<Endorsement> = (0..3)
            .map(|i| committee.endorse(i, &keys[i].secret, &stmt))
            .collect();
        let proof = prove(&pk, &circuit, &stmt, &endorsements).unwrap();
        assert!(verify(&vk, &stmt, &proof));
        // Below threshold: no proof can be produced.
        let too_few: Vec<Endorsement> = endorsements[..2].to_vec();
        assert!(prove(&pk, &circuit, &stmt, &too_few).is_err());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_panics() {
        let _ = CertifierCommittee::new(vec![Keypair::from_seed(b"x").public], 0);
    }
}
