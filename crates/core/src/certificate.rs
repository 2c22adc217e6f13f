//! Withdrawal certificates (paper Def 4.4) and their public inputs.
//!
//! A certificate is "a standardized posting that allows sidechains to
//! communicate with the mainchain": it delivers backward transfers and
//! serves as the sidechain heartbeat. Authorization is purely by SNARK —
//! there are no certifiers or other privileged submitters.

use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Encode};
use zendoo_snark::backend::Proof;
use zendoo_snark::inputs::PublicInputs;

use crate::ids::{Amount, EpochId, Quality, SidechainId};
use crate::proofdata::ProofData;
use crate::transfer::{bt_list_root, BackwardTransfer};

/// `WCert = (ledgerId, epochId, quality, BTList, proofdata, proof)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WithdrawalCertificate {
    /// The sidechain this certificate speaks for.
    pub sidechain_id: SidechainId,
    /// The withdrawal epoch it closes.
    pub epoch_id: EpochId,
    /// Quality; the mainchain keeps the highest-quality certificate.
    pub quality: Quality,
    /// The backward transfers being delivered.
    pub bt_list: Vec<BackwardTransfer>,
    /// Sidechain-defined public data (schema fixed at creation).
    pub proofdata: ProofData,
    /// The SNARK proof.
    pub proof: Proof,
}

impl WithdrawalCertificate {
    /// The certificate's own digest (used as its identity on-chain).
    pub fn digest(&self) -> Digest32 {
        digest("zendoo/wcert", self)
    }

    /// Total amount withdrawn by this certificate.
    ///
    /// Returns `None` on (adversarial) overflow.
    pub fn total_withdrawn(&self) -> Option<Amount> {
        Amount::checked_sum(self.bt_list.iter().map(|bt| bt.amount))
    }

    /// `MH(BTList)` for this certificate.
    pub fn bt_root(&self) -> Digest32 {
        bt_list_root(&self.bt_list)
    }
}

impl Encode for WithdrawalCertificate {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.sidechain_id.encode_into(out);
        self.epoch_id.encode_into(out);
        self.quality.encode_into(out);
        self.bt_list.encode_into(out);
        self.proofdata.encode_into(out);
        self.proof.to_bytes().encode_into(out);
    }
}

/// The mainchain-enforced part of a certificate's public input
/// (paper: `wcert_sysdata = (quality, MH(BTList), H(B^{i-1}_last),
/// H(B^i_last))`).
///
/// The two block hashes anchor the proof to the active chain and the
/// correct epoch; the mainchain computes them itself — a submitter cannot
/// substitute its own values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WcertSysData {
    /// The certificate's claimed quality.
    pub quality: Quality,
    /// Merkle root of the backward-transfer list.
    pub bt_root: Digest32,
    /// Hash of the last MC block of epoch `i - 1`.
    pub prev_epoch_last_block: Digest32,
    /// Hash of the last MC block of epoch `i`.
    pub epoch_last_block: Digest32,
}

impl WcertSysData {
    /// Assembles sysdata from a certificate plus the mainchain's own view
    /// of the epoch boundary blocks.
    pub fn for_certificate(
        cert: &WithdrawalCertificate,
        prev_epoch_last_block: Digest32,
        epoch_last_block: Digest32,
    ) -> Self {
        WcertSysData {
            quality: cert.quality,
            bt_root: cert.bt_root(),
            prev_epoch_last_block,
            epoch_last_block,
        }
    }
}

/// Builds the full verifier input
/// `public_input = (wcert_sysdata, MH(proofdata))` (paper §4.1.2).
///
/// Layout (9 field elements):
/// `[quality, bt_root.hi, bt_root.lo, prev_end.hi, prev_end.lo,
///   end.hi, end.lo, proofdata_root.hi, proofdata_root.lo]`.
pub fn wcert_public_inputs(sysdata: &WcertSysData, proofdata_root: &Digest32) -> PublicInputs {
    let mut inputs = PublicInputs::new();
    inputs.push_u64(sysdata.quality);
    inputs.push_digest(&sysdata.bt_root);
    inputs.push_digest(&sysdata.prev_epoch_last_block);
    inputs.push_digest(&sysdata.epoch_last_block);
    inputs.push_digest(proofdata_root);
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Address;
    use crate::proofdata::ProofDataElem;
    use zendoo_primitives::field::Fp;

    fn proof() -> Proof {
        // A structurally valid proof object (content irrelevant here).
        let kp = zendoo_primitives::schnorr::Keypair::from_seed(b"c");
        let sig = kp.secret.sign("zendoo/snark-proof-v1", b"m");
        Proof::from_bytes(&sig.to_bytes()).unwrap()
    }

    fn cert(quality: u64, amounts: &[u64]) -> WithdrawalCertificate {
        WithdrawalCertificate {
            sidechain_id: SidechainId::from_label("sc"),
            epoch_id: 3,
            quality,
            bt_list: amounts
                .iter()
                .map(|a| BackwardTransfer {
                    receiver: Address::from_label("r"),
                    amount: Amount::from_units(*a),
                })
                .collect(),
            proofdata: ProofData(vec![ProofDataElem::Field(Fp::from_u64(1))]),
            proof: proof(),
        }
    }

    #[test]
    fn total_withdrawn_sums_and_detects_overflow() {
        assert_eq!(
            cert(1, &[2, 3]).total_withdrawn(),
            Some(Amount::from_units(5))
        );
        assert_eq!(cert(1, &[u64::MAX, 1]).total_withdrawn(), None);
        assert_eq!(cert(1, &[]).total_withdrawn(), Some(Amount::ZERO));
    }

    #[test]
    fn digest_binds_quality_and_bts() {
        assert_ne!(cert(1, &[5]).digest(), cert(2, &[5]).digest());
        assert_ne!(cert(1, &[5]).digest(), cert(1, &[6]).digest());
        assert_eq!(cert(1, &[5]).digest(), cert(1, &[5]).digest());
    }

    #[test]
    fn public_inputs_layout() {
        let c = cert(7, &[5]);
        let sys = WcertSysData::for_certificate(
            &c,
            Digest32::hash_bytes(b"prev"),
            Digest32::hash_bytes(b"end"),
        );
        let inputs = wcert_public_inputs(&sys, &c.proofdata.merkle_root());
        assert_eq!(inputs.len(), 9);
        assert_eq!(inputs.get_u64(0), Some(7));
        assert_eq!(inputs.get_digest(1), Some(c.bt_root()));
        assert_eq!(inputs.get_digest(3), Some(Digest32::hash_bytes(b"prev")));
        assert_eq!(inputs.get_digest(5), Some(Digest32::hash_bytes(b"end")));
        assert_eq!(inputs.get_digest(7), Some(c.proofdata.merkle_root()));
    }

    #[test]
    fn sysdata_enforces_mainchain_view() {
        // Different epoch boundary hashes yield different public inputs,
        // so a proof anchored to a fork cannot verify on the active chain.
        let c = cert(7, &[5]);
        let a = wcert_public_inputs(
            &WcertSysData::for_certificate(
                &c,
                Digest32::hash_bytes(b"prev"),
                Digest32::hash_bytes(b"end"),
            ),
            &c.proofdata.merkle_root(),
        );
        let b = wcert_public_inputs(
            &WcertSysData::for_certificate(
                &c,
                Digest32::hash_bytes(b"prev"),
                Digest32::hash_bytes(b"fork"),
            ),
            &c.proofdata.merkle_root(),
        );
        assert_ne!(a, b);
    }
}
