//! The Latus certificate, BTR and CSW circuits (paper §5.5.3).
//!
//! * [`WcertCircuit`] — the withdrawal-certificate statement
//!   (§5.5.3.1's eight rules): verifies the SC header chain, the MC
//!   header chain and its complete referencing, the recursive
//!   state-transition proof, the backward-transfer list, the quality
//!   rule and the `mst_delta` binding.
//! * [`BtrCircuit`] — the backward-transfer-request statement
//!   (§5.5.3.2): the claimed UTXO is in the MST committed by the last
//!   certificate, spendable by the submitter.
//! * [`CswCircuit`] — the ceased-sidechain-withdrawal statement
//!   (§5.5.3.3), with an additional *historical ownership* mode that
//!   uses `mst_delta` chains to survive data-availability attacks
//!   (Appendix A).

use serde::{Deserialize, Serialize};
use zendoo_core::certificate::WithdrawalCertificate;
use zendoo_core::commitment::ScMembershipProof;
use zendoo_core::crosschain::{self, CrossChainTransfer};
use zendoo_core::epoch::EpochSchedule;
use zendoo_core::ids::{Address, Amount, EpochId, Nullifier};
use zendoo_core::proofdata::{ProofData, ProofDataElem, ProofDataSchema, ProofDataType};
use zendoo_core::transfer::{bt_list_root, BackwardTransfer};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::Encode;
use zendoo_primitives::field::Fp;
use zendoo_primitives::schnorr::{PublicKey, SecretKey, Signature};
use zendoo_primitives::smt::SmtProof;
use zendoo_snark::circuit::{gadget_cost, Circuit, Unsatisfied};
use zendoo_snark::deferred::Deferred;
use zendoo_snark::inputs::PublicInputs;
use zendoo_snark::recursive::StateProof;
use zendoo_snark::VerifyingKey;

use crate::block::ScBlockHeader;
use crate::mst::{mst_position, Mst, MstDelta, Utxo};
use crate::params::LatusParams;
use crate::proof::check_path_depth;
use crate::state::{
    bt_list_accumulator, delta_sequence_accumulator, epoch_start_digest, full_sync_accumulator,
    state_digest,
};

/// Builds the Latus certificate proofdata
/// (`proofdata = (H(SB_last), H(state[MST]), mst_delta, XCTList)`,
/// §5.5.3.1 extended with the declared cross-chain transfer list —
/// always present, encoding the empty list when the epoch declared no
/// transfers, so the schema stays fixed-arity).
pub fn wcert_proofdata(
    sc_last_block: Digest32,
    mst_root: Fp,
    delta: &MstDelta,
    declared: &[CrossChainTransfer],
) -> ProofData {
    ProofData(vec![
        ProofDataElem::Digest(sc_last_block),
        ProofDataElem::Field(mst_root),
        ProofDataElem::Digest(delta.digest()),
        ProofDataElem::Bytes(crosschain::encode_xct_list(declared)),
    ])
}

/// The schema declared for Latus certificates at sidechain creation.
pub fn wcert_proofdata_schema() -> ProofDataSchema {
    ProofDataSchema(vec![
        ProofDataType::Digest,
        ProofDataType::Field,
        ProofDataType::Digest,
        ProofDataType::Bytes,
    ])
}

/// Parses Latus certificate proofdata back into
/// `(sc_last_block, mst_root, delta_digest)`.
pub fn parse_wcert_proofdata(data: &ProofData) -> Option<(Digest32, Fp, Digest32)> {
    match (data.get(0)?, data.get(1)?, data.get(2)?) {
        (
            ProofDataElem::Digest(block),
            ProofDataElem::Field(root),
            ProofDataElem::Digest(delta),
        ) if data.len() == 4 => Some((*block, *root, *delta)),
        _ => None,
    }
}

/// Builds the Latus BTR/CSW proofdata (`proofdata = {utxo}`, §5.5.3.2).
pub fn utxo_proofdata(utxo: &Utxo) -> ProofData {
    ProofData(vec![ProofDataElem::Bytes(utxo.encoded())])
}

/// The schema declared for Latus BTRs/CSWs.
pub fn utxo_proofdata_schema() -> ProofDataSchema {
    ProofDataSchema(vec![ProofDataType::Bytes])
}

/// Evidence that a certificate is committed in a specific MC block: the
/// header plus the commitment-subtree membership proof.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CertInclusion {
    /// The certificate.
    pub certificate: WithdrawalCertificate,
    /// Header of the MC block carrying it.
    pub mc_header: zendoo_mainchain::BlockHeader,
    /// Commitment membership proof for the certificate.
    pub inclusion: ScMembershipProof,
}

impl CertInclusion {
    /// Verifies the inclusion claim for `sidechain_id`.
    pub fn verify(&self, sidechain_id: &zendoo_core::ids::SidechainId) -> bool {
        self.certificate.sidechain_id == *sidechain_id
            && self.inclusion.sidechain_id == *sidechain_id
            && self
                .inclusion
                .verify_certificate(&self.mc_header.sc_txs_commitment, Some(&self.certificate))
    }
}

/// Witness of the Latus withdrawal-certificate circuit.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WcertWitness {
    /// The epoch being closed.
    pub epoch_id: EpochId,
    /// SC block headers of the epoch, in order.
    pub sc_headers: Vec<ScBlockHeader>,
    /// Hash of the last SC block of the previous epoch (zero for the
    /// sidechain's first block).
    pub prev_sc_block: Digest32,
    /// MC block headers of the epoch, in order (`epoch_len` of them).
    pub mc_headers: Vec<zendoo_mainchain::BlockHeader>,
    /// The recursive state-transition proof over the epoch.
    pub state_proof: Option<StateProof>,
    /// MST root at the end of the previous epoch.
    pub prev_mst_root: Fp,
    /// MST root at the end of this epoch.
    pub final_mst_root: Fp,
    /// The epoch's backward transfers (must match the certificate).
    pub bt_list: Vec<BackwardTransfer>,
    /// The epoch's `mst_delta`.
    pub delta: MstDelta,
    /// The ordered touch sequence behind the delta accumulator.
    pub touch_sequence: Vec<u64>,
    /// The previous certificate with inclusion evidence
    /// (`None` only for epoch 0).
    pub prev_cert: Option<CertInclusion>,
    /// Cross-chain transfers declared by this certificate; each must be
    /// escrow-paired with a backward transfer in `bt_list`.
    pub declared: Vec<CrossChainTransfer>,
}

/// The Latus withdrawal-certificate constraint system (§5.5.3.1).
#[derive(Clone, Debug)]
pub struct WcertCircuit {
    params: LatusParams,
    schedule: EpochSchedule,
    base_vk: VerifyingKey,
    merge_vk: VerifyingKey,
}

impl WcertCircuit {
    /// Creates the circuit for a deployment, embedding the recursive
    /// system's verification keys (so child proofs verify in-circuit).
    pub fn new(
        params: LatusParams,
        schedule: EpochSchedule,
        base_vk: VerifyingKey,
        merge_vk: VerifyingKey,
    ) -> Self {
        WcertCircuit {
            params,
            schedule,
            base_vk,
            merge_vk,
        }
    }
}

fn fail(rule: &'static str, detail: impl Into<String>) -> Unsatisfied {
    Unsatisfied::new(rule, detail)
}

impl Circuit for WcertCircuit {
    type Witness = WcertWitness;

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged(
            "zendoo/latus-wcert-circuit",
            &[
                self.params.sidechain_id.0.as_bytes(),
                &self.params.mst_depth.to_be_bytes(),
                &self.schedule.epoch_len().to_be_bytes(),
                &self.schedule.submit_len().to_be_bytes(),
                self.base_vk.digest().as_bytes(),
                self.merge_vk.digest().as_bytes(),
            ],
        )
    }

    fn check(&self, public: &PublicInputs, w: &WcertWitness) -> Result<(), Unsatisfied> {
        // --- Parse the unified public input (wcert_sysdata ‖ MH(pd)).
        if public.len() != 9 {
            return Err(fail("wcert/arity", "expected 9 public inputs"));
        }
        let quality = public
            .get_u64(0)
            .ok_or_else(|| fail("wcert/quality", "quality not a u64"))?;
        let bt_root = public.get_digest(1).expect("len checked");
        let prev_mc_end = public.get_digest(3).expect("len checked");
        let mc_end = public.get_digest(5).expect("len checked");
        let proofdata_root = public.get_digest(7).expect("len checked");

        // --- MC header chain of the epoch (anchors rule 5).
        if w.mc_headers.len() != self.schedule.epoch_len() as usize {
            return Err(fail(
                "wcert/mc-count",
                format!(
                    "expected {} MC headers, got {}",
                    self.schedule.epoch_len(),
                    w.mc_headers.len()
                ),
            ));
        }
        if w.mc_headers[0].parent != prev_mc_end {
            return Err(fail(
                "wcert/mc-anchor",
                "first MC header does not follow H(B^{i-1}_last)",
            ));
        }
        let mut mc_hashes = Vec::with_capacity(w.mc_headers.len());
        for (k, header) in w.mc_headers.iter().enumerate() {
            if k > 0 && header.parent != mc_hashes[k - 1] {
                return Err(fail(
                    "wcert/mc-chain",
                    format!("MC header {k} breaks the chain"),
                ));
            }
            mc_hashes.push(header.hash());
        }
        if *mc_hashes.last().expect("nonempty") != mc_end {
            return Err(fail(
                "wcert/mc-end",
                "last MC header does not hash to H(B^i_last)",
            ));
        }

        // --- SC header chain (rules 1–2).
        if w.sc_headers.is_empty() {
            return Err(fail("wcert/sc-empty", "epoch contains no SC blocks"));
        }
        if w.sc_headers[0].parent != w.prev_sc_block {
            return Err(fail(
                "wcert/sc-anchor",
                "first SC header does not extend the previous epoch's last block",
            ));
        }
        for k in 1..w.sc_headers.len() {
            if w.sc_headers[k].parent != w.sc_headers[k - 1].hash() {
                return Err(fail(
                    "wcert/sc-chain",
                    format!("SC header {k} breaks the chain"),
                ));
            }
            if w.sc_headers[k].height != w.sc_headers[k - 1].height + 1 {
                return Err(fail("wcert/sc-height", "SC heights not consecutive"));
            }
        }
        let last_sc = w.sc_headers.last().expect("nonempty");

        // --- Rule 5: the SC chain references exactly the epoch's MC
        // blocks, in order.
        let referenced: Vec<Digest32> = w
            .sc_headers
            .iter()
            .flat_map(|h| h.mc_ref_hashes.iter().copied())
            .collect();
        if referenced != mc_hashes {
            return Err(fail(
                "wcert/mc-coverage",
                "SC chain does not reference the epoch's MC blocks exactly in order",
            ));
        }

        // --- Rule 7 (quality = height of SB_last).
        if quality != last_sc.height {
            return Err(fail(
                "wcert/quality",
                format!("quality {quality} != SB_last height {}", last_sc.height),
            ));
        }

        // --- Rule 6 (BT list binding).
        if bt_list_root(&w.bt_list) != bt_root {
            return Err(fail("wcert/bt-root", "MH(BTList) mismatch"));
        }

        // --- Rule 8 (mst_delta = set of touched positions).
        let touched: std::collections::BTreeSet<u64> = w.touch_sequence.iter().copied().collect();
        let declared: std::collections::BTreeSet<u64> = w.delta.iter().collect();
        if touched != declared {
            return Err(fail(
                "wcert/delta-set",
                "mst_delta does not equal the set of touched positions",
            ));
        }
        if w.delta.depth() != self.params.mst_depth {
            return Err(fail("wcert/delta-depth", "delta depth mismatch"));
        }

        // --- Rules 3–4: state transition.
        let start_digest = epoch_start_digest(w.prev_mst_root);
        let final_digest = state_digest(
            w.final_mst_root,
            bt_list_accumulator(&w.bt_list),
            delta_sequence_accumulator(&w.touch_sequence),
            full_sync_accumulator(&mc_hashes),
        );
        if last_sc.state_digest != final_digest {
            return Err(fail(
                "wcert/state-binding",
                "SB_last state digest does not match witnessed components",
            ));
        }
        match &w.state_proof {
            Some(proof) => {
                if proof.from_state() != start_digest || proof.to_state() != final_digest {
                    return Err(fail(
                        "wcert/transition-endpoints",
                        "state proof endpoints do not match the epoch",
                    ));
                }
                // The one proof this circuit embeds: nothing to batch it
                // with, so it is checked where it stands.
                Deferred::eager().state_proof(&self.base_vk, &self.merge_vk, proof, || {
                    fail("wcert/transition-proof", "state proof invalid")
                })?;
            }
            None => {
                if start_digest != final_digest {
                    return Err(fail(
                        "wcert/transition-missing",
                        "non-trivial epoch requires a state proof",
                    ));
                }
            }
        }

        // --- Cross-chain declaration rules: every declared transfer is
        // escrow-paired (equal amount, in order) inside the epoch's BT
        // list, names this sidechain as source, and carries a
        // field-consistent nullifier — so the certificate proof itself
        // guarantees declared value left the sidechain. The mainchain
        // re-validates the same pairing and, at maturity, mints each
        // escrow BT as an escrow-KIND UTXO tagged from the declaration
        // (zendoo_core::escrow) — the circuit and the consensus rule
        // check the same structure from opposite ends.
        for xct in &w.declared {
            if xct.source != self.params.sidechain_id {
                return Err(fail(
                    "wcert/xct-source",
                    "declared transfer has foreign source",
                ));
            }
            if !xct.nullifier_consistent() {
                return Err(fail(
                    "wcert/xct-nullifier",
                    "declared nullifier inconsistent",
                ));
            }
            if xct.dest == xct.source {
                return Err(fail("wcert/xct-dest", "self-directed cross-chain transfer"));
            }
        }
        if let Err(e) = crosschain::check_escrow_pairing(&w.declared, &w.bt_list) {
            return Err(fail("wcert/xct-escrow", e.to_string()));
        }

        // --- Proofdata binding
        // (H(SB_last), mst root, delta digest, declared transfers).
        let expected_proofdata =
            wcert_proofdata(last_sc.hash(), w.final_mst_root, &w.delta, &w.declared);
        if expected_proofdata.merkle_root() != proofdata_root {
            return Err(fail("wcert/proofdata", "MH(proofdata) mismatch"));
        }

        // --- Previous-state binding (rule 2 across epochs).
        match (&w.prev_cert, w.epoch_id) {
            (None, 0) => {
                let empty_root = Mst::new(self.params.mst_depth).root();
                if w.prev_mst_root != empty_root {
                    return Err(fail(
                        "wcert/genesis-state",
                        "epoch 0 must start from the empty MST",
                    ));
                }
                if w.prev_sc_block != Digest32::ZERO {
                    return Err(fail(
                        "wcert/genesis-parent",
                        "epoch 0 must start from the zero SC parent",
                    ));
                }
            }
            (None, _) => {
                return Err(fail(
                    "wcert/prev-cert-missing",
                    "epochs after 0 must witness the previous certificate",
                ));
            }
            (Some(evidence), epoch) => {
                if epoch == 0 {
                    return Err(fail(
                        "wcert/epoch0-cert",
                        "epoch 0 has no previous certificate",
                    ));
                }
                if evidence.certificate.epoch_id != epoch - 1 {
                    return Err(fail(
                        "wcert/prev-epoch",
                        "previous certificate closes the wrong epoch",
                    ));
                }
                if !evidence.verify(&self.params.sidechain_id) {
                    return Err(fail(
                        "wcert/prev-inclusion",
                        "previous certificate inclusion proof invalid",
                    ));
                }
                // The carrying MC block must be in this epoch's
                // submission window (its first submit_len blocks).
                let window = self.schedule.submit_len() as usize;
                let carried = w.mc_headers[..window.min(w.mc_headers.len())]
                    .iter()
                    .any(|h| h.hash() == evidence.mc_header.hash());
                if !carried {
                    return Err(fail(
                        "wcert/prev-window",
                        "previous certificate not carried by this epoch's submission window",
                    ));
                }
                let (prev_sc_last, prev_root, _) =
                    parse_wcert_proofdata(&evidence.certificate.proofdata).ok_or_else(|| {
                        fail("wcert/prev-proofdata", "previous proofdata unparseable")
                    })?;
                if prev_root != w.prev_mst_root {
                    return Err(fail(
                        "wcert/prev-root",
                        "previous certificate commits a different MST root",
                    ));
                }
                if prev_sc_last != w.prev_sc_block {
                    return Err(fail(
                        "wcert/prev-sc-block",
                        "SC chain does not extend the previously certified block",
                    ));
                }
            }
        }
        Ok(())
    }

    /// A model, not a circuit. The certificate witnesses no MST path
    /// (the state proof carries them all), so none is charged.
    fn constraint_cost(&self, _public: &PublicInputs, w: &WcertWitness) -> u64 {
        let headers = (w.mc_headers.len() + w.sc_headers.len()) as u64;
        let folds = (w.bt_list.len() + w.touch_sequence.len() + w.mc_headers.len() * 2) as u64;
        gadget_cost::PROOF_VERIFY
            + headers * 2 * gadget_cost::POSEIDON_HASH2
            + folds * gadget_cost::POSEIDON_HASH2
    }
}

/// Authorization message a UTXO owner signs for a BTR/CSW.
fn withdrawal_auth_message(
    domain: &str,
    utxo: &Utxo,
    receiver: &Address,
    anchor: &Digest32,
) -> Digest32 {
    Digest32::hash_tagged(
        "zendoo/withdrawal-auth",
        &[
            domain.as_bytes(),
            &utxo.encoded(),
            receiver.0.as_bytes(),
            anchor.as_bytes(),
        ],
    )
}

/// Signs the spending authorization for a BTR (context `"btr"`) or CSW
/// (context `"csw"`).
pub fn sign_withdrawal(
    domain: &str,
    sk: &SecretKey,
    utxo: &Utxo,
    receiver: &Address,
    anchor: &Digest32,
) -> Signature {
    let msg = withdrawal_auth_message(domain, utxo, receiver, anchor);
    sk.sign("zendoo/withdrawal", msg.as_bytes())
}

/// Witness proving ownership of a UTXO in the state committed by a
/// specific certificate (the core of both BTR and CSW, §5.5.3.2).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OwnershipWitness {
    /// The claimed UTXO.
    pub utxo: Utxo,
    /// The owner's public key.
    pub owner: PublicKey,
    /// Signature authorizing this withdrawal.
    pub authorization: Signature,
    /// Membership path of the UTXO in the committed MST.
    pub mst_proof: SmtProof,
    /// The committing certificate, with MC inclusion evidence.
    pub anchor_cert: CertInclusion,
}

impl OwnershipWitness {
    /// Shared checks for BTR/CSW: anchoring, membership, ownership and
    /// the public-input bindings.
    fn check(
        &self,
        domain: &str,
        params: &LatusParams,
        public: &PublicInputs,
    ) -> Result<(), Unsatisfied> {
        if public.len() != 9 {
            return Err(fail("btr/arity", "expected 9 public inputs"));
        }
        let anchor_block = public.get_digest(0).expect("len checked");
        let nullifier = Nullifier(public.get_digest(2).expect("len checked"));
        let receiver = Address(public.get_digest(4).expect("len checked"));
        let amount = Amount::from_units(
            public
                .get_u64(6)
                .ok_or_else(|| fail("btr/amount", "amount not a u64"))?,
        );
        let proofdata_root = public.get_digest(7).expect("len checked");

        // H(B_w): the anchor certificate's MC block is the public anchor.
        if self.anchor_cert.mc_header.hash() != anchor_block {
            return Err(fail(
                "btr/anchor",
                "certificate block does not match H(B_w)",
            ));
        }
        if !self.anchor_cert.verify(&params.sidechain_id) {
            return Err(fail("btr/cert-inclusion", "certificate inclusion invalid"));
        }
        let (_, mst_root, _) = parse_wcert_proofdata(&self.anchor_cert.certificate.proofdata)
            .ok_or_else(|| fail("btr/cert-proofdata", "certificate proofdata unparseable"))?;

        // utxo ∈ state_w[MST].
        let position = mst_position(&self.utxo, params.mst_depth);
        if self.mst_proof.index() != position {
            return Err(fail(
                "btr/position",
                "membership proof at wrong MST position",
            ));
        }
        check_path_depth(&self.mst_proof, params.mst_depth, "btr/path-depth")?;
        if !self.mst_proof.verify_occupied(&mst_root, &self.utxo.leaf()) {
            return Err(fail("btr/membership", "utxo not in the committed MST"));
        }

        // Ownership: the signer controls the utxo's address.
        if Address::from_public_key(&self.owner) != self.utxo.address {
            return Err(fail("btr/owner", "public key does not control the utxo"));
        }
        let msg = withdrawal_auth_message(domain, &self.utxo, &receiver, &anchor_block);
        if !self
            .owner
            .verify("zendoo/withdrawal", msg.as_bytes(), &self.authorization)
        {
            return Err(fail("btr/signature", "authorization signature invalid"));
        }

        // Public bindings: amount, nullifier, proofdata.
        if amount != self.utxo.amount {
            return Err(fail("btr/amount", "amount does not equal utxo.amount"));
        }
        if nullifier != self.utxo.nullifier() {
            return Err(fail("btr/nullifier", "nullifier is not H(utxo)"));
        }
        if utxo_proofdata(&self.utxo).merkle_root() != proofdata_root {
            return Err(fail("btr/proofdata", "MH(proofdata) mismatch"));
        }
        Ok(())
    }
}

/// The Latus BTR circuit (§5.5.3.2).
#[derive(Clone, Debug)]
pub struct BtrCircuit {
    params: LatusParams,
}

impl BtrCircuit {
    /// Creates the circuit for a deployment.
    pub fn new(params: LatusParams) -> Self {
        BtrCircuit { params }
    }
}

impl Circuit for BtrCircuit {
    type Witness = OwnershipWitness;

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged(
            "zendoo/latus-btr-circuit",
            &[
                self.params.sidechain_id.0.as_bytes(),
                &self.params.mst_depth.to_be_bytes(),
            ],
        )
    }

    fn check(&self, public: &PublicInputs, w: &OwnershipWitness) -> Result<(), Unsatisfied> {
        w.check("btr", &self.params, public)
    }

    /// A model, not a circuit: the membership path is charged the
    /// siblings it carries; a fixed-shape circuit would pad it to a bound.
    fn constraint_cost(&self, _public: &PublicInputs, w: &OwnershipWitness) -> u64 {
        gadget_cost::SCHNORR_VERIFY
            + w.mst_proof.siblings().len() as u64 * gadget_cost::MERKLE_STEP
            + 8 * gadget_cost::POSEIDON_HASH2
    }
}

/// One later certificate in a historical-ownership chain, witnessing its
/// full `mst_delta`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeltaLink {
    /// The certificate (with inclusion evidence).
    pub cert: CertInclusion,
    /// The full delta committed by that certificate.
    pub delta: MstDelta,
}

/// Witness of the CSW circuit (§5.5.3.3).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CswWitness {
    /// Ownership in the *latest* certificate's state (the common case).
    Direct(OwnershipWitness),
    /// Ownership proven against an older certificate plus a chain of
    /// `mst_delta`s showing the slot untouched since (Appendix A — the
    /// data-availability-attack escape hatch).
    Historical {
        /// Ownership at the older anchor certificate.
        base: OwnershipWitness,
        /// The certificates between the anchor (exclusive) and the
        /// latest (inclusive), in epoch order, each with its delta.
        later: Vec<DeltaLink>,
    },
}

/// The Latus CSW circuit (§5.5.3.3).
#[derive(Clone, Debug)]
pub struct CswCircuit {
    params: LatusParams,
}

impl CswCircuit {
    /// Creates the circuit for a deployment.
    pub fn new(params: LatusParams) -> Self {
        CswCircuit { params }
    }
}

impl Circuit for CswCircuit {
    type Witness = CswWitness;

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged(
            "zendoo/latus-csw-circuit",
            &[
                self.params.sidechain_id.0.as_bytes(),
                &self.params.mst_depth.to_be_bytes(),
            ],
        )
    }

    fn check(&self, public: &PublicInputs, w: &CswWitness) -> Result<(), Unsatisfied> {
        match w {
            CswWitness::Direct(ownership) => ownership.check("csw", &self.params, public),
            CswWitness::Historical { base, later } => {
                if later.is_empty() {
                    return Err(fail("csw/historical-empty", "historical mode needs links"));
                }
                // Check ownership at the old anchor, but against the
                // public H(B_w) of the *latest* certificate: temporarily
                // rebuild the public inputs with the old anchor block.
                let latest = later.last().expect("nonempty");
                let anchor_block = public
                    .get_digest(0)
                    .ok_or_else(|| fail("csw/arity", "expected 9 public inputs"))?;
                if latest.cert.mc_header.hash() != anchor_block {
                    return Err(fail(
                        "csw/anchor",
                        "latest certificate block does not match H(B_w)",
                    ));
                }
                let mut base_public = public.clone();
                // Rebuild element 0..2 with the base cert's block hash.
                let mut elems: Vec<Fp> = base_public.elements().to_vec();
                let mut replacement = PublicInputs::new();
                replacement.push_digest(&base.anchor_cert.mc_header.hash());
                elems[0] = replacement.elements()[0];
                elems[1] = replacement.elements()[1];
                base_public = PublicInputs::from_elements(elems);
                base.check("csw", &self.params, &base_public)?;

                // The delta chain: consecutive epochs, valid inclusions,
                // untouched position throughout.
                let position = mst_position(&base.utxo, self.params.mst_depth);
                let mut previous_epoch = base.anchor_cert.certificate.epoch_id;
                for (k, link) in later.iter().enumerate() {
                    if link.cert.certificate.epoch_id != previous_epoch + 1 {
                        return Err(fail("csw/epoch-gap", format!("link {k} skips epochs")));
                    }
                    if !link.cert.verify(&self.params.sidechain_id) {
                        return Err(fail(
                            "csw/link-inclusion",
                            format!("link {k} inclusion invalid"),
                        ));
                    }
                    let (_, _, delta_digest) = parse_wcert_proofdata(
                        &link.cert.certificate.proofdata,
                    )
                    .ok_or_else(|| fail("csw/link-proofdata", format!("link {k} proofdata bad")))?;
                    if link.delta.digest() != delta_digest {
                        return Err(fail(
                            "csw/link-delta",
                            format!("link {k} delta does not match its certificate"),
                        ));
                    }
                    if link.delta.bit(position) {
                        return Err(fail(
                            "csw/spent",
                            format!("slot touched in epoch {}", link.cert.certificate.epoch_id),
                        ));
                    }
                    previous_epoch = link.cert.certificate.epoch_id;
                }
                Ok(())
            }
        }
    }

    /// A model, not a circuit: the membership path is charged the
    /// siblings it carries; a fixed-shape circuit would pad it to a bound.
    fn constraint_cost(&self, _public: &PublicInputs, w: &CswWitness) -> u64 {
        let (ownership, links) = match w {
            CswWitness::Direct(ownership) => (ownership, 0u64),
            CswWitness::Historical { base, later } => (base, later.len() as u64),
        };
        gadget_cost::SCHNORR_VERIFY
            + ownership.mst_proof.siblings().len() as u64 * gadget_cost::MERKLE_STEP
            + (links + 8) * gadget_cost::POSEIDON_HASH2
    }
}
