//! E13 — the universality claim of §4.1: "the sidechain may adopt a
//! centralized solution where the zk-SNARK just verifies that a
//! certificate is signed by an authorized entity, or a decentralized
//! chain-of-trust model".
//!
//! One mainchain hosts three sidechains with radically different trust
//! models — a centralized signer, an m-of-n certifier committee, and the
//! full Latus recursive-proof construction — and validates all of their
//! certificates through the *same* unified verifier interface.

use std::sync::Arc;
use zendoo::core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo::core::config::SidechainConfigBuilder;
use zendoo::core::epoch::EpochSchedule;
use zendoo::core::ids::{Amount, SidechainId};
use zendoo::core::proofdata::ProofData;
use zendoo::latus::certifier::{CertifierCircuit, CertifierCommittee, Endorsement};
use zendoo::latus::consensus::ConsensusParams;
use zendoo::latus::node::{LatusKeys, LatusNode};
use zendoo::latus::params::LatusParams;
use zendoo::mainchain::chain::{Blockchain, ChainParams};
use zendoo::mainchain::transaction::{McTransaction, TxOut};
use zendoo::mainchain::wallet::Wallet;
use zendoo::primitives::digest::Digest32;
use zendoo::primitives::schnorr::{Keypair, Signature};
use zendoo::snark::backend::{prove, setup_deterministic, Proof};
use zendoo::snark::circuit::{Circuit, Unsatisfied};
use zendoo::snark::inputs::PublicInputs;

/// The "[5]-style" centralized model: one authority signs certificates.
struct CentralizedCircuit {
    authority: zendoo::primitives::schnorr::PublicKey,
}

impl Circuit for CentralizedCircuit {
    type Witness = Signature;

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged("test/centralized-circuit", &[&self.authority.to_bytes()])
    }

    fn check(&self, public: &PublicInputs, sig: &Signature) -> Result<(), Unsatisfied> {
        use zendoo::primitives::encode::Encode;
        let msg = Digest32::hash_tagged("test/centralized-stmt", &[&public.encoded()]);
        if self
            .authority
            .verify("test/centralized", msg.as_bytes(), sig)
        {
            Ok(())
        } else {
            Err(Unsatisfied::new(
                "centralized/sig",
                "authority signature invalid",
            ))
        }
    }
}

struct Harness {
    chain: Blockchain,
    miner: Wallet,
    time: u64,
}

impl Harness {
    fn mine(
        &mut self,
        txs: Vec<McTransaction>,
    ) -> Result<zendoo::mainchain::Block, zendoo::mainchain::BlockError> {
        self.time += 1;
        self.chain
            .mine_next_block(self.miner.address(), txs, self.time)
    }
}

fn sysdata_for(
    chain: &Blockchain,
    schedule: &EpochSchedule,
    cert: &WithdrawalCertificate,
) -> WcertSysData {
    let prev_end = chain.hash_at_height(schedule.start_block() - 1).unwrap();
    let epoch_end = chain
        .hash_at_height(schedule.epoch_last_height(cert.epoch_id))
        .unwrap();
    let prev_end = if cert.epoch_id == 0 {
        prev_end
    } else {
        chain
            .hash_at_height(schedule.epoch_last_height(cert.epoch_id - 1))
            .unwrap()
    };
    WcertSysData::for_certificate(cert, prev_end, epoch_end)
}

#[test]
fn three_trust_models_one_verifier() {
    let miner = Wallet::from_seed(b"miner");
    let params = ChainParams {
        genesis_outputs: vec![TxOut::regular(
            miner.address(),
            Amount::from_units(1_000_000),
        )],
        ..ChainParams::default()
    };
    let mut h = Harness {
        chain: Blockchain::new(params),
        miner,
        time: 0,
    };
    let schedule = EpochSchedule::new(2, 4, 2).unwrap();

    // --- Sidechain A: centralized signer.
    let authority = Keypair::from_seed(b"authority");
    let central_circuit = CentralizedCircuit {
        authority: authority.public,
    };
    let (central_pk, central_vk) = setup_deterministic(&central_circuit, b"central");
    let central_id = SidechainId::from_label("centralized-sc");
    let central_config = SidechainConfigBuilder::new(central_id, central_vk)
        .start_block(2)
        .epoch_len(4)
        .submit_len(2)
        .build()
        .unwrap();

    // --- Sidechain B: certifier committee (3-of-5).
    let certifier_keys: Vec<Keypair> = (0..5)
        .map(|i| Keypair::from_seed(format!("certifier-{i}").as_bytes()))
        .collect();
    let committee = CertifierCommittee::new(certifier_keys.iter().map(|k| k.public).collect(), 3);
    let committee_circuit = CertifierCircuit::new(committee.clone());
    let (committee_pk, committee_vk) = setup_deterministic(&committee_circuit, b"committee");
    let committee_id = SidechainId::from_label("committee-sc");
    let committee_config = SidechainConfigBuilder::new(committee_id, committee_vk)
        .start_block(2)
        .epoch_len(4)
        .submit_len(2)
        .build()
        .unwrap();

    // --- Sidechain C: full Latus.
    let latus_id = SidechainId::from_label("latus-sc");
    let latus_params = LatusParams::new(latus_id, 12);
    let latus_keys = Arc::new(LatusKeys::generate(latus_params, schedule, b"latus"));
    let latus_config = latus_keys.sidechain_config(&latus_params, schedule);

    // Register all three in one block.
    h.mine(vec![
        McTransaction::SidechainDeclaration(Box::new(central_config)),
        McTransaction::SidechainDeclaration(Box::new(committee_config)),
        McTransaction::SidechainDeclaration(Box::new(latus_config)),
    ])
    .unwrap();
    assert_eq!(h.chain.state().registry.len(), 3);

    let latus_forger = Keypair::from_seed(b"latus-forger");
    let mut latus_node = LatusNode::new(
        latus_params,
        schedule,
        ConsensusParams::with_bootstrap(latus_forger.public),
        latus_keys,
        latus_forger,
        h.chain.tip_hash(),
    );

    // Run epoch 0 (heights 2..=5), syncing the Latus node.
    while h.chain.height() < schedule.epoch_last_height(0) {
        let block = h.mine(vec![]).unwrap();
        latus_node
            .sync_mainchain_block(&block, &Blockchain::build_commitment(&block.transactions))
            .unwrap();
    }

    // Certificates for epoch 0, each authorized per its own model.
    let make_cert = |sid: SidechainId| WithdrawalCertificate {
        sidechain_id: sid,
        epoch_id: 0,
        quality: 1,
        bt_list: vec![],
        proofdata: ProofData::empty(),
        proof: Proof::from_bytes(&[0u8; 65]).unwrap(),
    };

    // A: authority signature.
    let mut central_cert = make_cert(central_id);
    let sys = sysdata_for(&h.chain, &schedule, &central_cert);
    let public = wcert_public_inputs(&sys, &central_cert.proofdata.merkle_root());
    let sig = {
        use zendoo::primitives::encode::Encode;
        let msg = Digest32::hash_tagged("test/centralized-stmt", &[&public.encoded()]);
        authority.secret.sign("test/centralized", msg.as_bytes())
    };
    central_cert.proof = prove(&central_pk, &central_circuit, &public, &sig).unwrap();

    // B: committee endorsements.
    let mut committee_cert = make_cert(committee_id);
    let sys = sysdata_for(&h.chain, &schedule, &committee_cert);
    let public = wcert_public_inputs(&sys, &committee_cert.proofdata.merkle_root());
    let endorsements: Vec<Endorsement> = (0..3)
        .map(|i| committee.endorse(i, &certifier_keys[i].secret, &public))
        .collect();
    committee_cert.proof =
        prove(&committee_pk, &committee_circuit, &public, &endorsements).unwrap();

    // C: the Latus recursive proof.
    let latus_cert = latus_node.produce_certificate().unwrap();

    // The mainchain validates all three via the SAME interface, in one
    // block, knowing nothing about their internals.
    let block = h
        .mine(vec![
            McTransaction::Certificate(Box::new(central_cert)),
            McTransaction::Certificate(Box::new(committee_cert)),
            McTransaction::Certificate(Box::new(latus_cert)),
        ])
        .unwrap();
    latus_node
        .sync_mainchain_block(&block, &Blockchain::build_commitment(&block.transactions))
        .unwrap();

    for sid in [central_id, committee_id, latus_id] {
        let entry = h.chain.state().registry.get(&sid).unwrap();
        assert_eq!(
            entry.certificates.len(),
            1,
            "certificate accepted for {sid}"
        );
    }
}

#[test]
fn forged_certificates_rejected_under_every_model() {
    let miner = Wallet::from_seed(b"miner");
    let mut h = Harness {
        chain: Blockchain::new(ChainParams::default()),
        miner,
        time: 0,
    };
    let schedule = EpochSchedule::new(2, 4, 2).unwrap();

    let authority = Keypair::from_seed(b"authority");
    let circuit = CentralizedCircuit {
        authority: authority.public,
    };
    let (pk, vk) = setup_deterministic(&circuit, b"central");
    let sid = SidechainId::from_label("centralized-sc");
    let config = SidechainConfigBuilder::new(sid, vk)
        .start_block(2)
        .epoch_len(4)
        .submit_len(2)
        .build()
        .unwrap();
    h.mine(vec![McTransaction::SidechainDeclaration(Box::new(config))])
        .unwrap();
    while h.chain.height() < schedule.epoch_last_height(0) {
        h.mine(vec![]).unwrap();
    }

    // A certificate "signed" by an impostor cannot even be proven — and
    // a proof for different public inputs does not verify.
    let impostor = Keypair::from_seed(b"impostor");
    let mut cert = WithdrawalCertificate {
        sidechain_id: sid,
        epoch_id: 0,
        quality: 1,
        bt_list: vec![],
        proofdata: ProofData::empty(),
        proof: Proof::from_bytes(&[0u8; 65]).unwrap(),
    };
    let sys = sysdata_for(&h.chain, &schedule, &cert);
    let public = wcert_public_inputs(&sys, &cert.proofdata.merkle_root());
    let forged_sig = {
        use zendoo::primitives::encode::Encode;
        let msg = Digest32::hash_tagged("test/centralized-stmt", &[&public.encoded()]);
        impostor.secret.sign("test/centralized", msg.as_bytes())
    };
    // Prove refuses: the statement is false.
    assert!(prove(&pk, &circuit, &public, &forged_sig).is_err());

    // Even submitting a zero proof: the chain rejects the block.
    assert!(h
        .mine(vec![McTransaction::Certificate(Box::new(cert.clone()))])
        .is_err());

    // A proof made for a *different* quality does not transfer.
    let good_sig = {
        use zendoo::primitives::encode::Encode;
        let msg = Digest32::hash_tagged("test/centralized-stmt", &[&public.encoded()]);
        authority.secret.sign("test/centralized", msg.as_bytes())
    };
    cert.proof = prove(&pk, &circuit, &public, &good_sig).unwrap();
    cert.quality = 99; // tamper after proving
    assert!(h
        .mine(vec![McTransaction::Certificate(Box::new(cert))])
        .is_err());
}
