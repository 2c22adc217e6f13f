//! Mainchain-managed withdrawals: BTR and CSW (paper §4.1.2.1,
//! Defs 4.5 / 4.6).
//!
//! * A **backward transfer request** (BTR) asks a live sidechain — from
//!   the mainchain side — to include a withdrawal in its next
//!   certificate. It moves no coins directly.
//! * A **ceased sidechain withdrawal** (CSW) pays out directly from the
//!   balance of a sidechain that stopped posting certificates.
//!
//! Both carry a nullifier (double-spend prevention without sidechain
//! state) and are validated by sidechain-defined SNARKs whose verifying
//! keys were registered at creation.

use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Encode};
use zendoo_snark::backend::Proof;
use zendoo_snark::inputs::PublicInputs;

use crate::ids::{Address, Amount, Nullifier, SidechainId};
use crate::proofdata::ProofData;

/// `BTR = (ledgerId, receiver, amount, nullifier, proofdata, proof)`
/// (Def 4.5).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BackwardTransferRequest {
    /// The sidechain being asked to process the withdrawal.
    pub sidechain_id: SidechainId,
    /// Mainchain receiver address.
    pub receiver: Address,
    /// Claimed amount.
    pub amount: Amount,
    /// Unique identifier of the claimed coins.
    pub nullifier: Nullifier,
    /// Sidechain-defined public data.
    pub proofdata: ProofData,
    /// The SNARK proof (pre-validation on the mainchain).
    pub proof: Proof,
}

impl BackwardTransferRequest {
    /// The request's digest (commitment-tree leaf).
    pub fn digest(&self) -> Digest32 {
        digest("zendoo/btr", self)
    }
}

impl Encode for BackwardTransferRequest {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.sidechain_id.encode_into(out);
        self.receiver.encode_into(out);
        self.amount.encode_into(out);
        self.nullifier.encode_into(out);
        self.proofdata.encode_into(out);
        self.proof.to_bytes().encode_into(out);
    }
}

/// `CSW = (ledgerId, receiver, amount, nullifier, proofdata, proof)`
/// (Def 4.6). Structurally identical to a BTR, but pays out directly and
/// is accepted only for ceased sidechains.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CeasedSidechainWithdrawal {
    /// The ceased sidechain whose balance is drawn.
    pub sidechain_id: SidechainId,
    /// Mainchain receiver address.
    pub receiver: Address,
    /// Claimed amount.
    pub amount: Amount,
    /// Unique identifier of the claimed coins.
    pub nullifier: Nullifier,
    /// Sidechain-defined public data.
    pub proofdata: ProofData,
    /// The SNARK proof.
    pub proof: Proof,
}

impl CeasedSidechainWithdrawal {
    /// The withdrawal's digest.
    pub fn digest(&self) -> Digest32 {
        digest("zendoo/csw", self)
    }
}

impl Encode for CeasedSidechainWithdrawal {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.sidechain_id.encode_into(out);
        self.receiver.encode_into(out);
        self.amount.encode_into(out);
        self.nullifier.encode_into(out);
        self.proofdata.encode_into(out);
        self.proof.to_bytes().encode_into(out);
    }
}

/// The mainchain-enforced part of a BTR/CSW public input
/// (paper: `btr_sysdata = (H(B_w), nullifier, receiver, amount)`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BtrSysData {
    /// Hash of the MC block containing the sidechain's latest accepted
    /// withdrawal certificate.
    pub last_cert_block: Digest32,
    /// The request's nullifier.
    pub nullifier: Nullifier,
    /// The mainchain receiver.
    pub receiver: Address,
    /// The claimed amount.
    pub amount: Amount,
}

/// Builds the verifier input
/// `public_input = (btr_sysdata, MH(proofdata))` (Def 4.5 / 4.6).
///
/// Layout (9 field elements):
/// `[B_w.hi, B_w.lo, nullifier.hi, nullifier.lo, receiver.hi,
///   receiver.lo, amount, proofdata_root.hi, proofdata_root.lo]`.
pub fn btr_public_inputs(sysdata: &BtrSysData, proofdata_root: &Digest32) -> PublicInputs {
    let mut inputs = PublicInputs::new();
    inputs.push_digest(&sysdata.last_cert_block);
    inputs.push_digest(&sysdata.nullifier.0);
    inputs.push_digest(&sysdata.receiver.0);
    inputs.push_u64(sysdata.amount.units());
    inputs.push_digest(proofdata_root);
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proofdata::ProofDataElem;

    fn proof() -> Proof {
        let kp = zendoo_primitives::schnorr::Keypair::from_seed(b"w");
        Proof::from_bytes(&kp.secret.sign("zendoo/snark-proof-v1", b"m").to_bytes()).unwrap()
    }

    fn btr(amount: u64) -> BackwardTransferRequest {
        BackwardTransferRequest {
            sidechain_id: SidechainId::from_label("sc"),
            receiver: Address::from_label("user"),
            amount: Amount::from_units(amount),
            nullifier: Nullifier::from_utxo_digest(&Digest32::hash_bytes(b"utxo")),
            proofdata: ProofData(vec![ProofDataElem::Digest(Digest32::hash_bytes(b"utxo"))]),
            proof: proof(),
        }
    }

    #[test]
    fn digest_binds_fields() {
        assert_ne!(btr(1).digest(), btr(2).digest());
        assert_eq!(btr(1).digest(), btr(1).digest());
        let mut other = btr(1);
        other.nullifier = Nullifier::from_utxo_digest(&Digest32::hash_bytes(b"other"));
        assert_ne!(btr(1).digest(), other.digest());
    }

    #[test]
    fn btr_and_csw_digests_are_domain_separated() {
        let b = btr(5);
        let c = CeasedSidechainWithdrawal {
            sidechain_id: b.sidechain_id,
            receiver: b.receiver,
            amount: b.amount,
            nullifier: b.nullifier,
            proofdata: b.proofdata.clone(),
            proof: b.proof,
        };
        assert_ne!(b.digest(), c.digest());
    }

    #[test]
    fn public_inputs_layout() {
        let b = btr(42);
        let sys = BtrSysData {
            last_cert_block: Digest32::hash_bytes(b"wblock"),
            nullifier: b.nullifier,
            receiver: b.receiver,
            amount: b.amount,
        };
        let inputs = btr_public_inputs(&sys, &b.proofdata.merkle_root());
        assert_eq!(inputs.len(), 9);
        assert_eq!(inputs.get_digest(0), Some(Digest32::hash_bytes(b"wblock")));
        assert_eq!(inputs.get_digest(2), Some(b.nullifier.0));
        assert_eq!(inputs.get_digest(4), Some(b.receiver.0));
        assert_eq!(inputs.get_u64(6), Some(42));
        assert_eq!(inputs.get_digest(7), Some(b.proofdata.merkle_root()));
    }

    #[test]
    fn sysdata_anchors_to_last_cert_block() {
        let b = btr(42);
        let mk = |block: &[u8]| {
            btr_public_inputs(
                &BtrSysData {
                    last_cert_block: Digest32::hash_bytes(block),
                    nullifier: b.nullifier,
                    receiver: b.receiver,
                    amount: b.amount,
                },
                &b.proofdata.merkle_root(),
            )
        };
        assert_ne!(mk(b"block-a"), mk(b"block-b"));
    }
}
