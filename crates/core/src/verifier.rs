//! The unified verification interface the mainchain applies to all
//! sidechain postings (paper §4.1.2: "WCert Verification" and the BTR/CSW
//! verifiers).
//!
//! These functions implement exactly the checks the mainchain consensus
//! performs before touching any balance. They are chain-agnostic: the
//! caller (the mainchain state machine) supplies its own view of epoch
//! boundary blocks and certificate history.

use zendoo_primitives::digest::Digest32;
use zendoo_snark::backend::{verify, Proof, VerifyingKey};
use zendoo_snark::inputs::PublicInputs;

use crate::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use crate::config::SidechainConfig;
use crate::ids::Quality;
use crate::proofdata::SchemaViolation;
use crate::withdrawal::{
    btr_public_inputs, BackwardTransferRequest, BtrSysData, CeasedSidechainWithdrawal,
};

/// One SNARK verification the mainchain owes for a posting: the
/// registered verifying key, the fully assembled public inputs, and the
/// submitted proof. The `verify_*` functions assemble it and hand it to
/// their caller's check, which may verify it at once
/// ([`ProofCheck::run`]), answer it from a verdict cache, or record it
/// for a later batch and answer for now — the mainchain's stage-3 walk
/// does all three.
#[derive(Clone, Debug)]
pub struct ProofCheck {
    /// The registered verifying key.
    pub vk: VerifyingKey,
    /// The assembled public inputs.
    pub inputs: PublicInputs,
    /// The submitted proof.
    pub proof: Proof,
}

impl ProofCheck {
    /// A stable identity of the statement+proof, usable as a verdict
    /// cache key: two checks with equal keys verify identically.
    ///
    /// Delegates to [`zendoo_snark::aggregate::statement_key`] — the
    /// same identity the block-level proof aggregator commits to per
    /// leaf, so cache identity and aggregation identity can never
    /// diverge.
    pub fn key(&self) -> Digest32 {
        zendoo_snark::aggregate::statement_key(&self.vk, &self.inputs, &self.proof)
    }

    /// Runs the verification inline.
    pub fn run(&self) -> bool {
        verify(&self.vk, &self.inputs, &self.proof)
    }
}

/// Assembles the [`ProofCheck`] for a withdrawal certificate (the
/// statement of "WCert Verification" rules 3–4, independent of the
/// cheap schema/quality checks).
fn certificate_proof_check(
    config: &SidechainConfig,
    cert: &WithdrawalCertificate,
    prev_epoch_last_block: Digest32,
    epoch_last_block: Digest32,
) -> ProofCheck {
    let sysdata = WcertSysData::for_certificate(cert, prev_epoch_last_block, epoch_last_block);
    ProofCheck {
        vk: config.wcert_vk,
        inputs: wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root()),
        proof: cert.proof,
    }
}

/// Assembles the [`ProofCheck`] for a backward transfer request.
/// `None` when the sidechain registered no `btr_vk`.
fn btr_proof_check(
    config: &SidechainConfig,
    btr: &BackwardTransferRequest,
    last_cert_block: Digest32,
) -> Option<ProofCheck> {
    let vk = *config.btr_vk.as_ref()?;
    let sysdata = BtrSysData {
        last_cert_block,
        nullifier: btr.nullifier,
        receiver: btr.receiver,
        amount: btr.amount,
    };
    Some(ProofCheck {
        vk,
        inputs: btr_public_inputs(&sysdata, &btr.proofdata.merkle_root()),
        proof: btr.proof,
    })
}

/// Assembles the [`ProofCheck`] for a ceased sidechain withdrawal.
/// `None` when the sidechain registered no `csw_vk`.
fn csw_proof_check(
    config: &SidechainConfig,
    csw: &CeasedSidechainWithdrawal,
    last_cert_block: Digest32,
) -> Option<ProofCheck> {
    let vk = *config.csw_vk.as_ref()?;
    let sysdata = BtrSysData {
        last_cert_block,
        nullifier: csw.nullifier,
        receiver: csw.receiver,
        amount: csw.amount,
    };
    Some(ProofCheck {
        vk,
        inputs: btr_public_inputs(&sysdata, &csw.proofdata.merkle_root()),
        proof: csw.proof,
    })
}

/// Rejection reasons for sidechain postings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The proofdata payload does not match the registered schema.
    Schema(SchemaViolation),
    /// The quality does not exceed the best certificate already accepted
    /// for this epoch.
    QualityTooLow {
        /// Quality of the submitted certificate.
        submitted: Quality,
        /// Quality of the best certificate so far.
        existing: Quality,
    },
    /// The SNARK proof did not verify.
    InvalidProof,
    /// The sidechain disabled this operation (`vk = NULL`, §4.1.2.1).
    OperationDisabled(&'static str),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Schema(v) => write!(f, "proofdata schema violation: {v}"),
            VerifyError::QualityTooLow {
                submitted,
                existing,
            } => write!(
                f,
                "certificate quality {submitted} does not exceed existing {existing}"
            ),
            VerifyError::InvalidProof => write!(f, "snark proof rejected"),
            VerifyError::OperationDisabled(op) => {
                write!(f, "sidechain registered no verifying key for {op}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<SchemaViolation> for VerifyError {
    fn from(v: SchemaViolation) -> Self {
        VerifyError::Schema(v)
    }
}

/// Verifies a withdrawal certificate's sidechain-agnostic validity:
/// schema, quality ordering, and the SNARK proof against
/// `wcert_sysdata` (rules 3–4 of "WCert Verification"; rules 1–2 —
/// active sidechain and correct window — are height-dependent and live in
/// the mainchain state machine).
///
/// `check` receives the assembled [`ProofCheck`] and returns its verdict:
/// [`ProofCheck::run`] verifies it at once, and the staged block pipeline
/// passes its verdicts (cached, or owed to one batch).
///
/// # Errors
///
/// See [`VerifyError`].
pub fn verify_certificate<F>(
    config: &SidechainConfig,
    cert: &WithdrawalCertificate,
    best_quality_so_far: Option<Quality>,
    prev_epoch_last_block: Digest32,
    epoch_last_block: Digest32,
    check: F,
) -> Result<(), VerifyError>
where
    F: FnOnce(&ProofCheck) -> bool,
{
    config.wcert_proofdata.validate(&cert.proofdata)?;
    if let Some(existing) = best_quality_so_far {
        if cert.quality <= existing {
            return Err(VerifyError::QualityTooLow {
                submitted: cert.quality,
                existing,
            });
        }
    }
    let job = certificate_proof_check(config, cert, prev_epoch_last_block, epoch_last_block);
    if !check(&job) {
        return Err(VerifyError::InvalidProof);
    }
    Ok(())
}

/// Verifies a backward transfer request against the registered
/// `btr_vk` (Def 4.5). `last_cert_block` is the hash of the MC block
/// containing the sidechain's most recent accepted certificate (`H(B_w)`);
/// `check` decides the proof (see [`verify_certificate`]).
///
/// # Errors
///
/// See [`VerifyError`]; in particular
/// [`VerifyError::OperationDisabled`] when `btr_vk` is `NULL`.
pub fn verify_btr<F>(
    config: &SidechainConfig,
    btr: &BackwardTransferRequest,
    last_cert_block: Digest32,
    check: F,
) -> Result<(), VerifyError>
where
    F: FnOnce(&ProofCheck) -> bool,
{
    let job = btr_proof_check(config, btr, last_cert_block)
        .ok_or(VerifyError::OperationDisabled("btr"))?;
    config.btr_proofdata.validate(&btr.proofdata)?;
    if !check(&job) {
        return Err(VerifyError::InvalidProof);
    }
    Ok(())
}

/// Verifies a ceased sidechain withdrawal against the registered
/// `csw_vk` (Def 4.6). Same statement shape as a BTR; `check` decides the
/// proof (see [`verify_certificate`]).
///
/// # Errors
///
/// See [`VerifyError`]; in particular
/// [`VerifyError::OperationDisabled`] when `csw_vk` is `NULL`.
pub fn verify_csw<F>(
    config: &SidechainConfig,
    csw: &CeasedSidechainWithdrawal,
    last_cert_block: Digest32,
    check: F,
) -> Result<(), VerifyError>
where
    F: FnOnce(&ProofCheck) -> bool,
{
    let job = csw_proof_check(config, csw, last_cert_block)
        .ok_or(VerifyError::OperationDisabled("csw"))?;
    config.csw_proofdata.validate(&csw.proofdata)?;
    if !check(&job) {
        return Err(VerifyError::InvalidProof);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SidechainConfigBuilder;
    use crate::ids::{Address, Amount, Nullifier, SidechainId};
    use crate::proofdata::ProofData;
    use zendoo_snark::backend::{prove, setup_deterministic, ProvingKey};
    use zendoo_snark::circuit::{Circuit, Unsatisfied};
    use zendoo_snark::inputs::PublicInputs;

    /// A permissive test circuit that accepts any statement — it stands in
    /// for a sidechain-defined SNARK whose semantics we don't exercise
    /// here (the Latus crate tests real circuits).
    struct AcceptAll(&'static str);

    impl Circuit for AcceptAll {
        type Witness = ();

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(self.0.as_bytes())
        }

        fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
            Ok(())
        }
    }

    struct Fixture {
        config: SidechainConfig,
        wcert_pk: ProvingKey,
        btr_pk: ProvingKey,
    }

    fn fixture() -> Fixture {
        let (wcert_pk, wcert_vk) = setup_deterministic(&AcceptAll("wcert"), b"t");
        let (btr_pk, btr_vk) = setup_deterministic(&AcceptAll("btr"), b"t");
        let (_, csw_vk) = setup_deterministic(&AcceptAll("csw"), b"t");
        let config = SidechainConfigBuilder::new(SidechainId::from_label("sc"), wcert_vk)
            .btr_vk(btr_vk)
            .csw_vk(csw_vk)
            .build()
            .unwrap();
        Fixture {
            config,
            wcert_pk,
            btr_pk,
        }
    }

    fn signed_cert(f: &Fixture, quality: u64) -> WithdrawalCertificate {
        let mut cert = WithdrawalCertificate {
            sidechain_id: f.config.id,
            epoch_id: 0,
            quality,
            bt_list: vec![],
            proofdata: ProofData::empty(),
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65])
                .unwrap_or_else(|| panic!("zero proof parse")),
        };
        let sysdata = WcertSysData::for_certificate(
            &cert,
            Digest32::hash_bytes(b"prev"),
            Digest32::hash_bytes(b"end"),
        );
        let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
        cert.proof = prove(&f.wcert_pk, &AcceptAll("wcert"), &inputs, &()).unwrap();
        cert
    }

    #[test]
    fn valid_certificate_accepted() {
        let f = fixture();
        let cert = signed_cert(&f, 5);
        assert_eq!(
            verify_certificate(
                &f.config,
                &cert,
                None,
                Digest32::hash_bytes(b"prev"),
                Digest32::hash_bytes(b"end"),
                ProofCheck::run,
            ),
            Ok(())
        );
    }

    #[test]
    fn quality_ordering_enforced() {
        let f = fixture();
        let cert = signed_cert(&f, 5);
        let err = verify_certificate(
            &f.config,
            &cert,
            Some(5),
            Digest32::hash_bytes(b"prev"),
            Digest32::hash_bytes(b"end"),
            ProofCheck::run,
        )
        .unwrap_err();
        assert_eq!(
            err,
            VerifyError::QualityTooLow {
                submitted: 5,
                existing: 5
            }
        );
        assert!(verify_certificate(
            &f.config,
            &cert,
            Some(4),
            Digest32::hash_bytes(b"prev"),
            Digest32::hash_bytes(b"end"),
            ProofCheck::run,
        )
        .is_ok());
    }

    #[test]
    fn proof_bound_to_epoch_boundaries() {
        let f = fixture();
        let cert = signed_cert(&f, 5);
        // Same cert, different claimed epoch-end block: proof must fail.
        let err = verify_certificate(
            &f.config,
            &cert,
            None,
            Digest32::hash_bytes(b"prev"),
            Digest32::hash_bytes(b"forked-end"),
            ProofCheck::run,
        )
        .unwrap_err();
        assert_eq!(err, VerifyError::InvalidProof);
    }

    #[test]
    fn schema_violation_rejected() {
        let f = fixture();
        let mut cert = signed_cert(&f, 5);
        cert.proofdata = ProofData(vec![crate::proofdata::ProofDataElem::U64(1)]);
        let err = verify_certificate(
            &f.config,
            &cert,
            None,
            Digest32::hash_bytes(b"prev"),
            Digest32::hash_bytes(b"end"),
            ProofCheck::run,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::Schema(_)));
    }

    fn signed_btr(f: &Fixture, last_cert_block: Digest32) -> BackwardTransferRequest {
        let mut btr = BackwardTransferRequest {
            sidechain_id: f.config.id,
            receiver: Address::from_label("u"),
            amount: Amount::from_units(9),
            nullifier: Nullifier::from_utxo_digest(&Digest32::hash_bytes(b"utxo")),
            proofdata: ProofData::empty(),
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
        };
        let sysdata = BtrSysData {
            last_cert_block,
            nullifier: btr.nullifier,
            receiver: btr.receiver,
            amount: btr.amount,
        };
        let inputs = btr_public_inputs(&sysdata, &btr.proofdata.merkle_root());
        btr.proof = prove(&f.btr_pk, &AcceptAll("btr"), &inputs, &()).unwrap();
        btr
    }

    #[test]
    fn valid_btr_accepted_and_bound_to_cert_block() {
        let f = fixture();
        let anchor = Digest32::hash_bytes(b"cert-block");
        let btr = signed_btr(&f, anchor);
        assert_eq!(verify_btr(&f.config, &btr, anchor, ProofCheck::run), Ok(()));
        assert_eq!(
            verify_btr(
                &f.config,
                &btr,
                Digest32::hash_bytes(b"other"),
                ProofCheck::run
            ),
            Err(VerifyError::InvalidProof)
        );
    }

    #[test]
    fn btr_disabled_when_vk_null() {
        let f = fixture();
        let mut config = f.config.clone();
        config.btr_vk = None;
        let btr = signed_btr(&f, Digest32::ZERO);
        assert_eq!(
            verify_btr(&config, &btr, Digest32::ZERO, ProofCheck::run),
            Err(VerifyError::OperationDisabled("btr"))
        );
    }

    #[test]
    fn csw_disabled_when_vk_null() {
        let f = fixture();
        let mut config = f.config.clone();
        config.csw_vk = None;
        let csw = CeasedSidechainWithdrawal {
            sidechain_id: config.id,
            receiver: Address::from_label("u"),
            amount: Amount::from_units(1),
            nullifier: Nullifier::from_utxo_digest(&Digest32::ZERO),
            proofdata: ProofData::empty(),
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
        };
        assert_eq!(
            verify_csw(&config, &csw, Digest32::ZERO, ProofCheck::run),
            Err(VerifyError::OperationDisabled("csw"))
        );
    }
}
