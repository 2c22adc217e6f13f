//! Shared fixtures for the Zendoo benchmark harness.
//!
//! Each bench target measures one layer; the committed `BENCH_*.json`
//! files at the workspace root record the results (`just bench-smoke`
//! regenerates them).

use zendoo_core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_core::proofdata::ProofData;
use zendoo_core::transfer::BackwardTransfer;
use zendoo_primitives::digest::Digest32;
use zendoo_snark::backend::{prove, setup_deterministic, Proof, ProvingKey, VerifyingKey};
use zendoo_snark::circuit::{Circuit, Unsatisfied};
use zendoo_snark::inputs::PublicInputs;

/// A permissive circuit for benches that measure everything *around*
/// the circuit (certificate plumbing, quality rules, sysdata assembly).
pub struct AcceptAll(pub &'static str);

impl Circuit for AcceptAll {
    type Witness = ();

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged("bench/accept-all", &[self.0.as_bytes()])
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Ok(())
    }
}

/// Deterministic backward-transfer list of the given size.
pub fn bt_list(n: usize) -> Vec<BackwardTransfer> {
    (0..n)
        .map(|i| BackwardTransfer {
            receiver: Address::from_label(&format!("receiver-{i}")),
            amount: Amount::from_units(i as u64 + 1),
        })
        .collect()
}

/// Builds a certificate with `n` backward transfers plus a valid proof
/// under the [`AcceptAll`] circuit, returning everything a verifier
/// needs.
pub fn snark_certificate(
    n: usize,
) -> (
    WithdrawalCertificate,
    VerifyingKey,
    ProvingKey,
    Digest32,
    Digest32,
) {
    let circuit = AcceptAll("wcert");
    let (pk, vk) = setup_deterministic(&circuit, b"bench");
    let prev_end = Digest32::hash_bytes(b"prev-end");
    let epoch_end = Digest32::hash_bytes(b"epoch-end");
    let mut cert = WithdrawalCertificate {
        sidechain_id: SidechainId::from_label("bench-sc"),
        epoch_id: 0,
        quality: 1,
        bt_list: bt_list(n),
        proofdata: ProofData::empty(),
        proof: Proof::from_bytes(&[0u8; 65]).expect("placeholder"),
    };
    let sysdata = WcertSysData::for_certificate(&cert, prev_end, epoch_end);
    let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
    cert.proof = prove(&pk, &circuit, &inputs, &()).expect("accept-all proves");
    (cert, vk, pk, prev_end, epoch_end)
}
