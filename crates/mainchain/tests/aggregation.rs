//! Block-level recursive proof aggregation on the mainchain: a
//! receiving node under [`VerifyMode::Aggregated`] checks **one**
//! recursive proof per block instead of one SNARK per statement, with
//! consensus outcomes — acceptance, state, and the precise
//! [`BlockError`] on rejection — provably identical to
//! [`VerifyMode::Individual`]. A failing or mismatched aggregate falls
//! back to individual verification, so the aggregate is a pure
//! verification-cost optimisation, never a consensus change.

mod common;

use common::remine;
use std::sync::Arc;
use zendoo_core::ids::SidechainId;
use zendoo_core::proofdata::ProofData;
use zendoo_core::{
    certificate::{wcert_public_inputs, WcertSysData},
    SidechainConfigBuilder, WithdrawalCertificate,
};
use zendoo_mainchain::chain::{BlockError, Blockchain, ChainParams};
use zendoo_mainchain::pipeline::VerifyMode;
use zendoo_mainchain::registry::RegistryError;
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::Wallet;
use zendoo_primitives::digest::Digest32;
use zendoo_snark::aggregate::AggregationSystem;
use zendoo_snark::backend::{prove, setup_deterministic, ProvingKey};
use zendoo_snark::circuit::{Circuit, Unsatisfied};
use zendoo_snark::inputs::PublicInputs;
use zendoo_telemetry::{InMemoryRecorder, Telemetry};

/// A permissive circuit standing in for a sidechain-defined SNARK.
struct AcceptAll(&'static str);

impl Circuit for AcceptAll {
    type Witness = ();

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged("agg-test/accept-all", &[self.0.as_bytes()])
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Ok(())
    }
}

fn sc_id(i: usize) -> SidechainId {
    SidechainId::from_label(&format!("agg-sc-{i}"))
}

/// An instrumented chain under `mode` with `n` sidechains declared in
/// block 1 and epoch 0 fully mined (heights 2..=7; the submission
/// window opens at height 8). Construction is deterministic, so two
/// calls yield chains with identical tips — one can play the block
/// builder and the other the receiving node.
fn node_with_sidechains(
    n: usize,
    mode: VerifyMode,
) -> (Blockchain, Vec<ProvingKey>, Wallet, Arc<InMemoryRecorder>) {
    let miner = Wallet::from_seed(b"agg-miner");
    let mut chain = Blockchain::new(ChainParams::default());
    let (telemetry, recorder) = Telemetry::in_memory();
    chain.set_telemetry(telemetry);
    chain.set_verify_mode(mode);
    let mut pks = Vec::with_capacity(n);
    let mut declarations = Vec::with_capacity(n);
    for i in 0..n {
        let (pk, vk) = setup_deterministic(&AcceptAll("wcert"), format!("agg-seed-{i}").as_bytes());
        pks.push(pk);
        declarations.push(McTransaction::SidechainDeclaration(Box::new(
            SidechainConfigBuilder::new(sc_id(i), vk)
                .start_block(2)
                .epoch_len(6)
                .submit_len(2)
                .build()
                .unwrap(),
        )));
    }
    chain
        .mine_next_block(miner.address(), declarations, 1)
        .unwrap();
    for t in 2..=7 {
        chain.mine_next_block(miner.address(), vec![], t).unwrap();
    }
    (chain, pks, miner, recorder)
}

/// A proven epoch-0 certificate for sidechain `i`, bound to the chain's
/// actual boundary blocks.
fn epoch0_cert(chain: &Blockchain, pks: &[ProvingKey], i: usize) -> WithdrawalCertificate {
    let prev_end = chain.hash_at_height(1).unwrap();
    let epoch_end = chain.hash_at_height(7).unwrap();
    let mut cert = WithdrawalCertificate {
        sidechain_id: sc_id(i),
        epoch_id: 0,
        quality: 1 + i as u64,
        bt_list: vec![],
        proofdata: ProofData::empty(),
        proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
    };
    let sysdata = WcertSysData::for_certificate(&cert, prev_end, epoch_end);
    let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
    cert.proof = prove(&pks[i], &AcceptAll("wcert"), &inputs, &()).unwrap();
    cert
}

fn cert_block_txs(chain: &Blockchain, pks: &[ProvingKey], n: usize) -> Vec<McTransaction> {
    (0..n)
        .map(|i| McTransaction::Certificate(Box::new(epoch0_cert(chain, pks, i))))
        .collect()
}

#[test]
fn receiver_verifies_one_aggregate_for_the_whole_block() {
    let (mut builder, pks, miner, _) = node_with_sidechains(8, VerifyMode::Aggregated);
    let (mut receiver, _, _, recorder) = node_with_sidechains(8, VerifyMode::Aggregated);
    assert_eq!(builder.tip_hash(), receiver.tip_hash(), "identical setup");

    let prepared = builder
        .prepare_block(miner.address(), cert_block_txs(&builder, &pks, 8), 8)
        .unwrap();
    let proof = prepared.proof.expect("aggregated builder attaches a proof");
    assert_eq!(proof.count(), 8, "one wrapped statement per certificate");
    let block = prepared.block.clone();

    recorder.drain();
    receiver.submit(block.clone(), None, Some(proof)).unwrap();
    let snap = recorder.drain();

    // One aggregate verification covered the whole block: the
    // individual batch-verification stage never ran.
    assert_eq!(snap.counters.get("mc.stage2.agg_verified"), Some(&1));
    assert_eq!(snap.counters.get("mc.stage2.agg_fallback"), None);
    assert_eq!(
        snap.spans
            .get("mc.stage2.verify_aggregate")
            .map(|s| s.count),
        Some(1)
    );
    assert!(
        !snap.spans.contains_key("mc.stage2.verify"),
        "no individual verification under a valid aggregate"
    );

    // Consensus outcome identical to the builder's own application.
    builder
        .submit(prepared.block, Some(prepared.verdicts), prepared.proof)
        .unwrap();
    assert_eq!(builder.tip_hash(), receiver.tip_hash());
    assert_eq!(builder.state(), receiver.state());
    for i in 0..8 {
        assert!(receiver
            .state()
            .registry
            .accepted_certificate(&sc_id(i), 0)
            .is_some());
    }
    // The verified proof was recorded for relaying / reorg reconnects.
    assert_eq!(
        receiver
            .block_proof(&receiver.tip_hash())
            .map(|p| p.count()),
        Some(8)
    );
}

#[test]
fn aggregated_success_still_populates_the_verdict_cache() {
    let (builder, pks, miner, _) = node_with_sidechains(8, VerifyMode::Aggregated);
    let (mut receiver, _, _, recorder) = node_with_sidechains(8, VerifyMode::Aggregated);
    let prepared = builder
        .prepare_block(miner.address(), cert_block_txs(&builder, &pks, 8), 8)
        .unwrap();

    recorder.drain();
    receiver
        .submit(prepared.block, None, Some(prepared.proof.unwrap()))
        .unwrap();
    let snap = recorder.drain();

    // Stage 3 found every one of the 8 certificate statements already
    // vouched for by the aggregate — no statement was re-proved inline.
    assert_eq!(snap.counters.get("mc.verdict_cache.hit"), Some(&8));
    assert_eq!(snap.counters.get("mc.verdict_cache.miss"), Some(&0));
}

#[test]
fn tampered_aggregate_falls_back_with_identical_consensus_outcome() {
    let (builder, pks, miner, _) = node_with_sidechains(4, VerifyMode::Aggregated);
    let (mut receiver, _, _, recorder) = node_with_sidechains(4, VerifyMode::Aggregated);
    let prepared = builder
        .prepare_block(miner.address(), cert_block_txs(&builder, &pks, 4), 8)
        .unwrap();
    // "Tamper" by attaching the aggregate of a *different* block (the
    // empty block at the tip): a real proof, but of the wrong
    // statement — digest and count both mismatch.
    let wrong_proof = *builder.block_proof(&builder.tip_hash()).unwrap();
    assert_ne!(wrong_proof.count(), prepared.proof.unwrap().count());

    recorder.drain();
    receiver
        .submit(prepared.block, None, Some(wrong_proof))
        .unwrap();
    let snap = recorder.drain();

    // The bad aggregate was rejected and stage 2 fell back to
    // individual verification — the block still connected, because the
    // statements themselves are valid. Consensus saw no difference.
    assert_eq!(snap.counters.get("mc.stage2.agg_fallback"), Some(&1));
    assert_eq!(snap.counters.get("mc.stage2.agg_verified"), None);
    assert!(snap.spans.contains_key("mc.stage2.verify"));
    for i in 0..4 {
        assert!(receiver
            .state()
            .registry
            .accepted_certificate(&sc_id(i), 0)
            .is_some());
    }
    // A proof that failed verification is never recorded.
    assert!(receiver.block_proof(&receiver.tip_hash()).is_none());
}

#[test]
fn aggregate_over_tampered_statement_attributes_the_precise_error() {
    let (builder, pks, miner, _) = node_with_sidechains(4, VerifyMode::Aggregated);
    let prepared = builder
        .prepare_block(miner.address(), cert_block_txs(&builder, &pks, 4), 8)
        .unwrap();
    let honest_proof = prepared.proof.unwrap();

    // Cross-wire one certificate proof inside the block and re-mine:
    // the block is structurally valid but carries an invalid SNARK
    // statement the honest aggregate no longer covers.
    let mut tampered = prepared.block.clone();
    let swapped = {
        let certs: Vec<usize> = tampered
            .transactions
            .iter()
            .enumerate()
            .filter(|(_, tx)| matches!(tx, McTransaction::Certificate(_)))
            .map(|(i, _)| i)
            .collect();
        (certs[1], certs[2])
    };
    let donor = match &tampered.transactions[swapped.1] {
        McTransaction::Certificate(c) => c.proof,
        _ => unreachable!(),
    };
    match &mut tampered.transactions[swapped.0] {
        McTransaction::Certificate(c) => c.proof = donor,
        _ => unreachable!(),
    }
    let tampered = remine(&builder, tampered);

    // Control: without any aggregate, individual verification rejects
    // the block with the canonical invalid-proof error.
    let (mut control, _, _, _) = node_with_sidechains(4, VerifyMode::Individual);
    let control_err = control.submit_block(tampered.clone()).unwrap_err();
    assert!(matches!(
        control_err,
        BlockError::Registry(RegistryError::Verify(
            zendoo_core::verifier::VerifyError::InvalidProof
        ))
    ));

    // Aggregated receiver, honest aggregate over the *untampered*
    // statements: the digest mismatch forces the fallback, and the
    // fallback attributes exactly the same error — not some generic
    // "aggregate failed".
    let (mut receiver, _, _, recorder) = node_with_sidechains(4, VerifyMode::Aggregated);
    recorder.drain();
    let err = receiver
        .submit(tampered.clone(), None, Some(honest_proof))
        .unwrap_err();
    let snap = recorder.drain();
    assert_eq!(format!("{err:?}"), format!("{control_err:?}"));
    assert_eq!(snap.counters.get("mc.stage2.agg_fallback"), Some(&1));
    assert_eq!(receiver.height(), 7, "tampered block never connected");
    assert!(receiver
        .state()
        .registry
        .accepted_certificate(&sc_id(1), 0)
        .is_none());
}

#[test]
fn missing_aggregate_counts_and_falls_back() {
    let (builder, pks, miner, _) = node_with_sidechains(2, VerifyMode::Aggregated);
    let (mut receiver, _, _, recorder) = node_with_sidechains(2, VerifyMode::Aggregated);
    let block = builder
        .prepare_block(miner.address(), cert_block_txs(&builder, &pks, 2), 8)
        .unwrap()
        .block;

    recorder.drain();
    receiver.submit_block(block).unwrap();
    let snap = recorder.drain();
    assert_eq!(snap.counters.get("mc.stage2.agg_missing"), Some(&1));
    assert!(snap.spans.contains_key("mc.stage2.verify"));
    assert_eq!(receiver.height(), 8);
}

#[test]
fn empty_block_carries_and_verifies_the_empty_aggregate() {
    let (builder, _, miner, _) = node_with_sidechains(1, VerifyMode::Aggregated);
    let (mut receiver, _, _, recorder) = node_with_sidechains(1, VerifyMode::Aggregated);
    let prepared = builder.prepare_block(miner.address(), vec![], 8).unwrap();
    let proof = prepared.proof.expect("empty blocks still carry a proof");
    assert_eq!(proof.count(), 0);
    assert!(proof.aggregate().is_none(), "no statements, no SNARK");

    recorder.drain();
    receiver.submit(prepared.block, None, Some(proof)).unwrap();
    let snap = recorder.drain();
    assert_eq!(snap.counters.get("mc.stage2.agg_verified"), Some(&1));
}

#[test]
fn individual_mode_ignores_supplied_proofs() {
    let (builder, pks, miner, _) = node_with_sidechains(2, VerifyMode::Aggregated);
    let (mut receiver, _, _, recorder) = node_with_sidechains(2, VerifyMode::Individual);
    let prepared = builder
        .prepare_block(miner.address(), cert_block_txs(&builder, &pks, 2), 8)
        .unwrap();

    recorder.drain();
    receiver
        .submit(prepared.block, None, Some(prepared.proof.unwrap()))
        .unwrap();
    let snap = recorder.drain();
    assert_eq!(snap.counters.get("mc.stage2.agg_verified"), None);
    assert!(snap.spans.contains_key("mc.stage2.verify"));
    assert!(
        receiver.block_proof(&receiver.tip_hash()).is_none(),
        "an unverified proof is never recorded"
    );
}

#[test]
fn epoch_proof_folds_the_recorded_block_proofs() {
    let (mut builder, pks, miner, _) = node_with_sidechains(4, VerifyMode::Aggregated);
    builder
        .mine_next_block(miner.address(), cert_block_txs(&builder, &pks, 4), 8)
        .unwrap();
    let cert_block = builder.tip_hash();

    // Every self-mined block recorded its proof, so the whole epoch
    // window folds into one proof covering all 4 statements.
    let epoch = builder.epoch_proof(1, 8).expect("all proofs recorded");
    assert_eq!(epoch.count(), 4);
    let aggregate = epoch.aggregate().unwrap();
    assert!(AggregationSystem::shared().verify_aggregate(aggregate));
    // The fold is the multiset sum of the per-block digests; with only
    // one non-empty block, the digests coincide.
    assert_eq!(
        epoch.digest(),
        builder.block_proof(&cert_block).unwrap().digest()
    );

    // A window of empty blocks folds to the empty proof; an
    // out-of-range window is refused.
    assert_eq!(builder.epoch_proof(2, 7).unwrap().count(), 0);
    assert!(builder.epoch_proof(1, 99).is_none());
}
