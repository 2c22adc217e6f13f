//! Staged-pipeline behavior: multi-certificate blocks verify their
//! proofs in parallel with verdicts identical to the serial path, the
//! per-block undo journal is an exact rollback, the one-pass block
//! fill equals the per-prefix greedy fill, stage 1 hashes each
//! transaction id once for the whole validation, and the batched
//! settlement consensus rules hold on the mainchain apply path.

mod common;

use common::remine;
use proptest::prelude::*;
use zendoo_core::crosschain::{escrow_address, CrossChainTransfer};
use zendoo_core::escrow::{EscrowError, EscrowTag};
use zendoo_core::ids::{Address, Amount, EpochId, SidechainId};
use zendoo_core::proofdata::ProofData;
use zendoo_core::settlement::{SettlementBatch, SettlementError};
use zendoo_core::transfer::ForwardTransfer;
use zendoo_core::{
    certificate::{wcert_public_inputs, WcertSysData},
    SidechainConfigBuilder, WithdrawalCertificate,
};
use zendoo_mainchain::block::Block;
use zendoo_mainchain::chain::{BlockError, Blockchain, ChainParams};
use zendoo_mainchain::pipeline::{self, ProofVerdicts};
use zendoo_mainchain::registry::RegistryError;
use zendoo_mainchain::transaction::{McTransaction, OutPoint, Output, TransferTx, TxOut};
use zendoo_mainchain::Wallet;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::opcount::measure;
use zendoo_primitives::schnorr::Keypair;
use zendoo_snark::backend::{prove, setup_deterministic, ProvingKey};
use zendoo_snark::circuit::{Circuit, Unsatisfied};
use zendoo_snark::inputs::PublicInputs;

/// A permissive circuit standing in for a sidechain-defined SNARK.
struct AcceptAll(&'static str);

impl Circuit for AcceptAll {
    type Witness = ();

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged("pipeline-test/accept-all", &[self.0.as_bytes()])
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Ok(())
    }
}

fn sc_id(i: usize) -> SidechainId {
    SidechainId::from_label(&format!("pipe-sc-{i}"))
}

/// A chain with `n` sidechains declared in block 1 (epoch 0 spans
/// heights 2..=7; its submission window opens at height 8) and enough
/// empty blocks mined for epoch 0 to be certifiable. Returns the chain
/// and each sidechain's wcert proving key.
fn chain_with_sidechains(n: usize) -> (Blockchain, Vec<ProvingKey>, Wallet) {
    chain_with_sidechains_premined(n, Vec::new())
}

/// [`chain_with_sidechains`] with extra genesis outputs (settlement
/// tests premine consensus-tagged escrow UTXOs this way — genesis
/// state is trusted configuration, exactly like a real chain's).
fn chain_with_sidechains_premined(
    n: usize,
    premine: Vec<TxOut>,
) -> (Blockchain, Vec<ProvingKey>, Wallet) {
    let miner = Wallet::from_seed(b"pipe-miner");
    let params = ChainParams {
        genesis_outputs: premine,
        ..ChainParams::default()
    };
    let mut chain = Blockchain::new(params);
    let mut pks = Vec::with_capacity(n);
    let mut declarations = Vec::with_capacity(n);
    for i in 0..n {
        let (pk, vk) = setup_deterministic(&AcceptAll("wcert"), format!("seed-{i}").as_bytes());
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
    (chain, pks, miner)
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

#[test]
fn multi_certificate_block_accepts_all_proofs() {
    let (mut chain, pks, miner) = chain_with_sidechains(16);
    let certs: Vec<McTransaction> = (0..16)
        .map(|i| McTransaction::Certificate(Box::new(epoch0_cert(&chain, &pks, i))))
        .collect();
    chain.mine_next_block(miner.address(), certs, 8).unwrap();
    for i in 0..16 {
        assert!(
            chain
                .state()
                .registry
                .accepted_certificate(&sc_id(i), 0)
                .is_some(),
            "certificate {i} accepted"
        );
    }
}

#[test]
fn tampered_proof_in_multi_certificate_block_rejects_block() {
    let (mut chain, pks, miner) = chain_with_sidechains(4);
    let mut certs: Vec<WithdrawalCertificate> =
        (0..4).map(|i| epoch0_cert(&chain, &pks, i)).collect();
    // Cross-wire one proof: cert 2 now carries cert 3's attestation.
    certs[2].proof = certs[3].proof;
    let txs: Vec<McTransaction> = certs
        .into_iter()
        .map(|c| McTransaction::Certificate(Box::new(c)))
        .collect();
    let err = chain.mine_next_block(miner.address(), txs, 8).unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Registry(RegistryError::Verify(
                zendoo_core::verifier::VerifyError::InvalidProof
            ))
        ),
        "tampered proof must reject the block, got {err:?}"
    );
    // Nothing was applied: the failed dry-run left no certificate.
    assert!(chain
        .state()
        .registry
        .accepted_certificate(&sc_id(2), 0)
        .is_none());
}

#[test]
fn parallel_verdicts_match_serial_application() {
    let (chain, pks, miner) = chain_with_sidechains(8);
    let certs: Vec<McTransaction> = (0..8)
        .map(|i| McTransaction::Certificate(Box::new(epoch0_cert(&chain, &pks, i))))
        .collect();
    let block = chain
        .prepare_block(miner.address(), certs, 8)
        .unwrap()
        .block;
    let hash = block.hash();

    // Stage 2 prefetch on every core...
    let verdicts = pipeline::verify_block_proofs(
        chain.state(),
        &block,
        hash,
        &(0..=chain.height())
            .map(|h| chain.hash_at_height(h).unwrap())
            .collect::<Vec<_>>(),
        &zendoo_telemetry::Telemetry::disabled(),
    );
    assert_eq!(verdicts.proofs.len(), 8, "one verdict per certificate");

    // ...then stage 3 with the cache and stage 3 inline must agree.
    let active: Vec<Digest32> = (0..=chain.height())
        .map(|h| chain.hash_at_height(h).unwrap())
        .collect();
    let mut cached_state = chain.state().clone();
    let mut inline_state = chain.state().clone();
    let subsidy = chain.params().block_subsidy;
    let cached = pipeline::apply_block(
        &mut cached_state,
        &block,
        &block.txids(),
        hash,
        &active,
        subsidy,
        &verdicts,
    );
    let inline = pipeline::apply_block(
        &mut inline_state,
        &block,
        &block.txids(),
        hash,
        &active,
        subsidy,
        &ProofVerdicts::inline(),
    );
    assert!(cached.is_ok() && inline.is_ok());
    assert_eq!(cached_state, inline_state);
}

#[test]
fn block_undo_is_an_exact_rollback() {
    let (chain, pks, miner) = chain_with_sidechains(3);
    let certs: Vec<McTransaction> = (0..3)
        .map(|i| McTransaction::Certificate(Box::new(epoch0_cert(&chain, &pks, i))))
        .collect();
    let block = chain
        .prepare_block(miner.address(), certs, 8)
        .unwrap()
        .block;
    let hash = block.hash();
    let active: Vec<Digest32> = (0..=chain.height())
        .map(|h| chain.hash_at_height(h).unwrap())
        .collect();

    let before = chain.state().clone();
    let mut state = chain.state().clone();
    let undo = pipeline::apply_block(
        &mut state,
        &block,
        &block.txids(),
        hash,
        &active,
        chain.params().block_subsidy,
        &ProofVerdicts::inline(),
    )
    .unwrap();
    assert_ne!(state, before, "block had effects");
    pipeline::revert_block(&mut state, undo);
    assert_eq!(state, before, "undo journal restores the state exactly");
}

// ---- A receiving node's stage 2: one verdict per statement ---------------

/// [`chain_with_sidechains`] recording into its own recorder.
/// Deterministic: two calls give a builder and a receiver at one tip.
fn recording_node(
    n: usize,
) -> (
    Blockchain,
    Vec<ProvingKey>,
    Wallet,
    std::sync::Arc<zendoo_telemetry::InMemoryRecorder>,
) {
    let (mut chain, pks, miner) = chain_with_sidechains(n);
    let (telemetry, recorder) = zendoo_telemetry::Telemetry::in_memory();
    chain.set_telemetry(telemetry);
    (chain, pks, miner, recorder)
}

fn certificate_txs(chain: &Blockchain, pks: &[ProvingKey], n: usize) -> Vec<McTransaction> {
    (0..n)
        .map(|i| McTransaction::Certificate(Box::new(epoch0_cert(chain, pks, i))))
        .collect()
}

/// A block that arrives alone is verified by the receiver itself, under
/// `mc.stage2.verify`: one batch of all its proofs, one verdict per
/// statement, and stage 3 answers every certificate from that batch.
#[test]
fn a_receiver_verifies_each_statement_once_under_stage_2() {
    let (builder, pks, miner, _) = recording_node(4);
    let (mut receiver, _, _, recorder) = recording_node(4);
    let block = builder
        .prepare_block(miner.address(), certificate_txs(&builder, &pks, 4), 8)
        .unwrap()
        .block;

    recorder.drain();
    receiver.submit_block(block).unwrap();
    let snap = recorder.drain();
    assert_eq!(snap.spans["mc.stage2.verify"].count, 1);
    assert_eq!(snap.spans["snark.batch.verify"].count, 1);
    assert_eq!(snap.histograms["snark.batch.proofs"].sum(), 4);
    assert_eq!(snap.counters.get("mc.verdict_cache.hit"), Some(&4));
    assert_eq!(snap.counters.get("mc.verdict_cache.miss"), Some(&0));
    assert_eq!(receiver.height(), 8);
    for i in 0..4 {
        assert!(receiver
            .state()
            .registry
            .accepted_certificate(&sc_id(i), 0)
            .is_some());
    }
}

/// A block with no certificate, BTR or CSW owes no proof check: stage 2
/// runs no batch and stage 3 consults no proof verdict.
#[test]
fn an_empty_block_owes_no_proof_check() {
    let (builder, _, miner, _) = recording_node(1);
    let (mut receiver, _, _, recorder) = recording_node(1);
    let block = builder
        .prepare_block(miner.address(), vec![], 8)
        .unwrap()
        .block;

    recorder.drain();
    receiver.submit_block(block).unwrap();
    let snap = recorder.drain();
    assert!(!snap.spans.contains_key("snark.batch.verify"));
    assert_eq!(snap.counters.get("mc.verdict_cache.hit"), Some(&0));
    assert_eq!(snap.counters.get("mc.verdict_cache.miss"), Some(&0));
    assert_eq!(receiver.height(), 8);
}

/// A receiver given a block whose certificate carries another's proof
/// refuses it with the per-statement error, and nothing connects.
#[test]
fn a_receiver_refuses_a_cross_wired_certificate_proof_by_name() {
    let (builder, pks, miner, _) = recording_node(4);
    let mut block = builder
        .prepare_block(miner.address(), certificate_txs(&builder, &pks, 4), 8)
        .unwrap()
        .block;
    // Coinbase first, then the four certificates in order.
    let donor = match &block.transactions[3] {
        McTransaction::Certificate(cert) => cert.proof,
        other => panic!("not a certificate: {other:?}"),
    };
    match &mut block.transactions[2] {
        McTransaction::Certificate(cert) => cert.proof = donor,
        other => panic!("not a certificate: {other:?}"),
    }
    let block = remine(&builder, block);

    let (mut receiver, _, _, _) = recording_node(4);
    let state = receiver.state().clone();
    assert_eq!(
        receiver.submit_block(block),
        Err(BlockError::Registry(RegistryError::Verify(
            zendoo_core::verifier::VerifyError::InvalidProof
        )))
    );
    assert_eq!(receiver.height(), 7, "the block never connected");
    assert_eq!(receiver.state(), &state);
}

// ---- Stage 2 batches the block's signatures; stage 3 is unchanged ----------

const SIG_USERS: usize = 9;

fn sig_user(i: usize) -> Wallet {
    Wallet::from_seed(format!("pipe-user-{i}").as_bytes())
}

/// Two regular outputs for each of [`SIG_USERS`] users, after `escrow`.
fn sig_premine(escrow: Vec<TxOut>) -> Vec<TxOut> {
    let users = (0..SIG_USERS).flat_map(|i| {
        let address = sig_user(i).address();
        [1_000, 2_000].map(|units| TxOut::regular(address, Amount::from_units(units)))
    });
    escrow.into_iter().chain(users).collect()
}

/// A node at height 7 holding [`sig_premine`], two certifiable
/// sidechains and its own recorder. Deterministic: two calls give two
/// nodes at one tip.
fn sig_node(
    escrow: Vec<TxOut>,
) -> (
    Blockchain,
    Vec<ProvingKey>,
    Wallet,
    std::sync::Arc<zendoo_telemetry::InMemoryRecorder>,
) {
    let (mut chain, pks, miner) = chain_with_sidechains_premined(2, sig_premine(escrow));
    let (telemetry, recorder) = zendoo_telemetry::Telemetry::in_memory();
    chain.set_telemetry(telemetry);
    (chain, pks, miner, recorder)
}

/// User `i` spending both premined outputs in one two-input transfer.
fn pay_both(chain: &Blockchain, i: usize) -> McTransaction {
    let user = sig_user(i);
    let owned = chain.state().utxos.owned_by(&user.address());
    let spends: Vec<_> = owned
        .iter()
        .map(|(outpoint, _)| (*outpoint, &user.keypair().secret))
        .collect();
    assert_eq!(spends.len(), 2);
    McTransaction::Transfer(TransferTx::signed(
        &spends,
        vec![Output::Regular(TxOut::regular(
            Address::from_label("bob"),
            Amount::from_units(2_900 + i as u64),
        ))],
    ))
}

/// Two certificates, then every user's two-input transfer: the block a
/// builder makes of them.
fn sig_block() -> Block {
    let (builder, pks, miner, _) = sig_node(Vec::new());
    let mut txs: Vec<McTransaction> = (0..2)
        .map(|i| McTransaction::Certificate(Box::new(epoch0_cert(&builder, &pks, i))))
        .collect();
    txs.extend((0..SIG_USERS).map(|i| pay_both(&builder, i)));
    let prepared = builder.prepare_block(miner.address(), txs, 8).unwrap();
    assert!(prepared.rejected.is_empty());
    prepared.block
}

/// The transfer at `block.transactions[tx]`, to tamper with.
fn transfer_mut(block: &mut Block, tx: usize) -> &mut TransferTx {
    match &mut block.transactions[tx] {
        McTransaction::Transfer(t) => t,
        other => panic!("transaction {tx} is not a transfer: {other:?}"),
    }
}

/// What the validator did before stage 2 knew about signatures: stage 3
/// over the pre-block state with every check inline.
fn inline_verdict(chain: &Blockchain, block: &Block) -> Result<(), BlockError> {
    let active: Vec<Digest32> = (0..=chain.height())
        .map(|h| chain.hash_at_height(h).unwrap())
        .collect();
    pipeline::apply_block(
        &mut chain.state().clone(),
        block,
        &block.txids(),
        block.hash(),
        &active,
        chain.params().block_subsidy,
        &ProofVerdicts::inline(),
    )
    .map(|_| ())
}

/// Submits `block` to a fresh cacheless receiver and asserts it is
/// refused with exactly the inline validator's error, leaving tip and
/// state as they were.
fn assert_refused_as_inline(block: Block, expected: &BlockError) -> zendoo_telemetry::Snapshot {
    let (mut receiver, _, _, recorder) = sig_node(Vec::new());
    let block = remine(&receiver, block);
    assert_eq!(inline_verdict(&receiver, &block).as_ref(), Err(expected));
    let (tip, state) = (receiver.tip_hash(), receiver.state().clone());
    recorder.drain();
    assert_eq!(receiver.submit_block(block).as_ref(), Err(expected));
    assert_eq!(receiver.tip_hash(), tip);
    assert_eq!(receiver.state(), &state, "a refused block leaves no trace");
    recorder.drain()
}

/// A signature that verifies — for another key over other bytes.
fn junk_signature() -> zendoo_primitives::schnorr::Signature {
    Keypair::from_seed(b"mallory")
        .secret
        .sign("forged", b"junk")
}

#[test]
fn bad_signature_refuses_the_block_wherever_it_sits() {
    let block = sig_block();
    // Coinbase and two certificates precede the transfers.
    for k in [0, SIG_USERS / 2, SIG_USERS - 1] {
        let mut bad = block.clone();
        transfer_mut(&mut bad, 3 + k).inputs[1].signature = junk_signature();
        let snap = assert_refused_as_inline(bad, &BlockError::BadInputAuthorization { input: 1 });
        // The signatures went through the batch all the same.
        assert_eq!(snap.spans["mc.stage2.verify"].count, 1);
        assert_eq!(snap.spans["sig.batch.verify"].count, 1);
        assert_eq!(
            snap.histograms["sig.batch.sigs"].sum(),
            2 * SIG_USERS as u64
        );
    }
}

#[test]
fn an_earlier_transaction_failing_a_cheaper_rule_still_names_the_block_error() {
    let mut bad = sig_block();
    transfer_mut(&mut bad, 3 + 6).inputs[1].signature = junk_signature();

    // An earlier transfer spends an output that does not exist.
    let ghost = OutPoint {
        txid: Digest32::hash_bytes(b"no such transaction"),
        index: 0,
    };
    let mut missing = bad.clone();
    transfer_mut(&mut missing, 3 + 2).inputs[0].outpoint = ghost;
    assert_refused_as_inline(missing, &BlockError::MissingInput(ghost));

    // An earlier transfer is signed, validly, by a key that does not own
    // what it spends: refused on the address, input 0.
    let stranger = Keypair::from_seed(b"stranger");
    let mut stolen = bad.clone();
    let theft = transfer_mut(&mut stolen, 3 + 2);
    let spends: Vec<_> = theft
        .inputs
        .iter()
        .map(|input| (input.outpoint, &stranger.secret))
        .collect();
    *theft = TransferTx::signed(&spends, theft.outputs.clone());
    assert_refused_as_inline(stolen, &BlockError::BadInputAuthorization { input: 0 });
}

#[test]
fn in_block_spend_chains_and_escrow_settlements_connect_on_a_cacheless_node() {
    let batch = batch_for(sc_id(0), &[100, 50]);
    let carol = Wallet::from_seed(b"pipe-carol");
    let escrow = || escrow_premine(&batch.transfers);
    let (mut builder, _, miner, _) = sig_node(escrow());
    // A settlement (escrow-kind inputs: signatures present, ignored
    // by consensus), three ordinary payments, and a payment to carol
    // that carol spends on in the same block.
    let settlement = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&builder),
        vec![Output::Forward(batch.forward_transfer().unwrap())],
    ));
    let user = sig_user(3);
    let owned = builder.state().utxos.owned_by(&user.address());
    let to_carol = McTransaction::Transfer(TransferTx::signed(
        &[(owned[0].0, &user.keypair().secret)],
        vec![Output::Regular(TxOut::regular(
            carol.address(),
            owned[0].1.amount,
        ))],
    ));
    let carol_spends = McTransaction::Transfer(TransferTx::signed(
        &[(
            OutPoint {
                txid: to_carol.txid(),
                index: 0,
            },
            &carol.keypair().secret,
        )],
        vec![Output::Regular(TxOut::regular(
            Address::from_label("dave"),
            Amount::from_units(900),
        ))],
    ));
    let mut txs = vec![settlement, to_carol, carol_spends];
    txs.extend((0..3).map(|i| pay_both(&builder, i)));
    let prepared = builder.prepare_block(miner.address(), txs, 8).unwrap();
    assert!(prepared.rejected.is_empty(), "{:?}", prepared.rejected);

    let (mut receiver, _, _, recorder) = sig_node(escrow());
    recorder.drain();
    receiver.submit_block(prepared.block.clone()).unwrap();
    let snap = recorder.drain();
    // The batch held what resolves to a regular output before the
    // block — 1 + 3·2 inputs; the two escrow inputs owe no
    // signature and carol's, spending an output of this block, was
    // verified inline where stage 3 met it.
    assert_eq!(snap.histograms["sig.batch.sigs"].sum(), 7);
    assert_eq!(snap.counters.get("mc.sig_cache.hit"), Some(&7));
    assert_eq!(snap.counters.get("mc.sig_cache.miss"), Some(&1));
    assert_eq!(snap.counters.get("sig.batch.fallback"), None);

    builder
        .submit(prepared.block, Some(prepared.verdicts))
        .unwrap();
    assert_eq!(receiver.tip_hash(), builder.tip_hash());
    assert_eq!(receiver.state(), builder.state());
}

// ---- Stage 1 hashes each transaction once; stages 2 and 3 reuse the ids ----

/// Stage 1 computes the block's ids once and checks both the tx root
/// and uniqueness on them: a repeated transfer is still named by its
/// id, and a reordered body under the honest header still fails the
/// root.
#[test]
fn a_repeated_or_reordered_transaction_fails_stage_1_by_name() {
    let block = sig_block();
    let (mut receiver, _, _, _) = sig_node(Vec::new());
    let target = receiver.params().target;

    let repeat = block.transactions[3 + 4].clone();
    let mut repeated = block.clone();
    repeated.transactions.push(repeat.clone());
    let repeated = remine(&receiver, repeated);
    let named = BlockError::DuplicateTxid(repeat.txid());
    assert_eq!(
        pipeline::precheck_block(target, &repeated),
        Err(named.clone())
    );
    assert_eq!(receiver.submit_block(repeated).unwrap_err(), named);

    let mut reordered = block.clone();
    reordered.transactions.swap(3, 4);
    assert_eq!(
        receiver.submit_block(reordered).unwrap_err(),
        BlockError::TxRootMismatch
    );

    assert_eq!(pipeline::precheck_block(target, &block), Ok(block.txids()));
    receiver.submit_block(block).unwrap();
}

/// User `i` spending both premined outputs: one regular output, and a
/// forward transfer to `sc_id(0)` carrying `metadata` bytes.
fn pay_and_forward(chain: &Blockchain, i: usize, metadata: usize) -> McTransaction {
    let user = sig_user(i);
    let owned = chain.state().utxos.owned_by(&user.address());
    let spends: Vec<_> = owned
        .iter()
        .map(|(outpoint, _)| (*outpoint, &user.keypair().secret))
        .collect();
    McTransaction::Transfer(TransferTx::signed(
        &spends,
        vec![
            Output::Regular(TxOut::regular(
                Address::from_label("bob"),
                Amount::from_units(2_000),
            )),
            Output::Forward(ForwardTransfer {
                sidechain_id: sc_id(0),
                receiver_metadata: vec![0; metadata],
                amount: Amount::from_units(900 + i as u64),
            }),
        ],
    ))
}

/// SHA-256 blocks a cacheless node spends validating a block of
/// [`SIG_USERS`] [`pay_and_forward`] transfers, and the transfers.
fn validation_sha(metadata: usize) -> (u64, Vec<McTransaction>) {
    let (builder, _, miner, _) = sig_node(Vec::new());
    let txs: Vec<_> = (0..SIG_USERS)
        .map(|i| pay_and_forward(&builder, i, metadata))
        .collect();
    let prepared = builder
        .prepare_block(miner.address(), txs.clone(), 8)
        .unwrap();
    assert!(prepared.rejected.is_empty());
    let (mut receiver, _, _, _) = sig_node(Vec::new());
    let (outcome, cost) = measure(|| receiver.submit_block(prepared.block));
    outcome.unwrap();
    (cost.sha_blocks, txs)
}

/// Validating a block hashes each transaction's id once. Two blocks of
/// the same transfers differ only in how many metadata bytes each
/// forward output carries; those bytes are hashed by the transfer's id,
/// by its sighash — queued in stage 2 and checked in stage 3 — and by
/// the transfer's leaf in the commitment stage 1 rebuilds, and by
/// nothing else. What the longer block costs beyond the sighashes and
/// leaves is one id per transfer.
#[test]
fn validating_a_block_hashes_each_transfer_id_once() {
    // Warm the lazily built constants, which the first call pays for.
    validation_sha(8);
    let (short, short_txs) = validation_sha(8);
    let (long, long_txs) = validation_sha(8 + 640);
    let sha = |f: &dyn Fn() -> Digest32| measure(f).1.sha_blocks as i64;
    let (mut ids, mut others) = (0, 0);
    for (s, l) in short_txs.iter().zip(&long_txs) {
        let (McTransaction::Transfer(st), McTransaction::Transfer(lt)) = (s, l) else {
            unreachable!("pay_and_forward makes transfers")
        };
        let (Output::Forward(sf), Output::Forward(lf)) = (&st.outputs[1], &lt.outputs[1]) else {
            unreachable!("output 1 is the forward transfer")
        };
        ids += sha(&|| l.txid()) - sha(&|| s.txid());
        others += 2 * (sha(&|| lt.sighash()) - sha(&|| st.sighash()));
        others += sha(&|| lf.digest()) - sha(&|| sf.digest());
    }
    assert!(
        ids >= 10 * SIG_USERS as i64,
        "the extra bytes reach the ids"
    );
    assert_eq!(
        long as i64 - short as i64 - others,
        ids,
        "each transfer's id is hashed once"
    );
}

// ---- One-pass fill ≡ per-prefix greedy fill -------------------------------

/// The greedy reference the one-pass builder must equal: candidate `i`
/// is accepted iff a block of the accepted prefix plus `i` rejects
/// nothing — one full dry run per candidate, O(n²) overall. Returns the
/// accepted candidates in order and, per rejected candidate, its index
/// and error.
fn per_prefix_greedy_fill(
    chain: &Blockchain,
    candidates: &[McTransaction],
) -> (Vec<McTransaction>, Vec<(usize, BlockError)>) {
    let mut accepted: Vec<McTransaction> = Vec::new();
    let mut rejected = Vec::new();
    for (i, tx) in candidates.iter().enumerate() {
        let mut trial = accepted.clone();
        trial.push(tx.clone());
        let prepared = chain
            .prepare_block(Address::from_label("m"), trial, 8)
            .unwrap();
        match prepared.rejected.into_iter().next() {
            None => accepted.push(tx.clone()),
            Some((_, error)) => rejected.push((i, error)),
        }
    }
    (accepted, rejected)
}

/// One generated candidate: `(kind, user, coin, back)`.
type Op = (usize, usize, usize, usize);

/// Builds the candidate list `ops` describe, over a chain where each of
/// three users owns four 1,000-unit coins and two sidechains can
/// certify epoch 0. Kinds: 0 = valid transfer of `coin` (two ops naming
/// one coin are an in-block double spend), 1 = overspend, 2 = bad
/// signature, 3 = child spending output 0 of the transfer candidate
/// `back` places before it (accepted or not), 4 = certificate, 5 =
/// certificate with a cross-wired proof.
fn candidates_from(
    chain: &Blockchain,
    pks: &[ProvingKey],
    users: &[Wallet],
    ops: &[Op],
) -> Vec<McTransaction> {
    let pay = |to: usize, units: u64| {
        vec![Output::Regular(TxOut::regular(
            users[to % users.len()].address(),
            Amount::from_units(units),
        ))]
    };
    // Output 0 of every transfer candidate so far, with its owner.
    let mut heads: Vec<(OutPoint, usize)> = Vec::new();
    let mut candidates = Vec::new();
    for &(kind, user, coin, back) in ops {
        let (outpoint, _) = chain.state().utxos.owned_by(&users[user % 3].address())[coin];
        let secret = |owner: usize| &users[owner % 3].keypair().secret;
        let (transfer, receiver) = match kind {
            0 => (
                TransferTx::signed(&[(outpoint, secret(user))], pay(user + 1, 900)),
                user + 1,
            ),
            1 => (
                TransferTx::signed(&[(outpoint, secret(user))], pay(user + 1, 1_001)),
                user + 1,
            ),
            2 => {
                let mut tx = TransferTx::signed(&[(outpoint, secret(user))], pay(user + 1, 900));
                tx.outputs = pay(user + 2, 900); // not what was signed
                (tx, user + 2)
            }
            3 if !heads.is_empty() => {
                let (head, owner) = heads[heads.len() - 1 - back % heads.len()];
                (
                    TransferTx::signed(&[(head, secret(owner))], pay(owner + 1, 500)),
                    owner + 1,
                )
            }
            _ => {
                let mut cert = epoch0_cert(chain, pks, coin % 2);
                if kind == 5 {
                    cert.proof = epoch0_cert(chain, pks, (coin + 1) % 2).proof;
                }
                candidates.push(McTransaction::Certificate(Box::new(cert)));
                continue;
            }
        };
        let tx = McTransaction::Transfer(transfer);
        let head = OutPoint {
            txid: tx.txid(),
            index: 0,
        };
        heads.push((head, receiver));
        candidates.push(tx);
    }
    candidates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The one-pass fill behind `prepare_block` accepts the same
    /// candidates in the same order as the per-prefix greedy fill, and
    /// rejects each of the others with the same `BlockError`.
    #[test]
    fn prop_one_pass_fill_equals_per_prefix_greedy_fill(
        random in proptest::collection::vec((0usize..6, 0usize..3, 0usize..3, 0usize..16), 4..10),
        user in 0usize..3,
    ) {
        let users: Vec<Wallet> = (0..3)
            .map(|i| Wallet::from_seed(format!("fill-user-{i}").as_bytes()))
            .collect();
        let premine = users
            .iter()
            .flat_map(|user| vec![TxOut::regular(user.address(), Amount::from_units(1_000)); 4])
            .collect();
        let (chain, pks, miner) = chain_with_sidechains_premined(2, premine);
        // Every list ends with one of each named case, on coin 3 (which
        // the random part never touches, so these verdicts are known).
        let n = random.len();
        let mut ops = random;
        ops.extend([
            (0, user, 3, 0),     // valid transfer
            (3, 0, 0, 0),        // child of an accepted parent
            (0, user, 3, 0),     // in-block double spend
            (1, user + 1, 3, 0), // overspend
            (3, 0, 0, 0),        // child of a rejected parent
            (2, user + 2, 3, 0), // bad signature
            (5, 0, 1, 0),        // certificate with a tampered proof
        ]);
        let candidates = candidates_from(&chain, &pks, &users, &ops);

        let prepared = chain
            .prepare_block(miner.address(), candidates.clone(), 8)
            .unwrap();
        let (accepted, rejected) = per_prefix_greedy_fill(&chain, &candidates);

        let tail: Vec<_> = rejected
            .iter()
            .filter(|(i, _)| *i >= n)
            .map(|(i, error)| (i - n, error.variant_name()))
            .collect();
        prop_assert_eq!(
            tail,
            vec![
                (2, "missing_input"),
                (3, "value_imbalance"),
                (4, "missing_input"),
                (5, "bad_input_authorization"),
                (6, "registry"),
            ]
        );
        prop_assert_eq!(&prepared.block.transactions[1..], &accepted[..]);
        let reference: Vec<(McTransaction, BlockError)> = rejected
            .into_iter()
            .map(|(i, error)| (candidates[i].clone(), error))
            .collect();
        prop_assert_eq!(prepared.rejected, reference);
    }
}

// ---- Batched settlement consensus rules ----------------------------------
//
// (The full theft-path matrix for the escrow output kind lives in
// `tests/escrow_consensus.rs`; this section keeps the settlement
// plumbing honest on the pipeline's happy/forged paths.)

const SETTLE_EPOCH: EpochId = 0;

fn batch_for(dest: SidechainId, amounts: &[u64]) -> SettlementBatch {
    let source = SidechainId::from_label("settle-source");
    SettlementBatch::new(
        source,
        SETTLE_EPOCH,
        dest,
        amounts
            .iter()
            .enumerate()
            .map(|(i, a)| {
                CrossChainTransfer::new(
                    source,
                    dest,
                    Address::from_label(&format!("recv-{i}")),
                    Amount::from_units(*a),
                    i as u64,
                    Address::from_label("payback"),
                )
            })
            .collect(),
    )
}

/// Consensus-tagged escrow genesis outputs backing `transfers`.
fn escrow_premine(transfers: &[CrossChainTransfer]) -> Vec<TxOut> {
    transfers
        .iter()
        .map(|t| {
            TxOut::escrow(
                escrow_address(),
                t.amount,
                EscrowTag::for_transfer(t, SETTLE_EPOCH),
            )
        })
        .collect()
}

/// The escrow premine outpoints of [`chain_with_sidechains`].
fn escrow_outpoints(chain: &Blockchain) -> Vec<zendoo_mainchain::OutPoint> {
    let escrow = escrow_address();
    chain
        .state()
        .utxos
        .owned_by(&escrow)
        .into_iter()
        .map(|(op, _)| op)
        .collect()
}

#[test]
fn valid_settlement_spends_escrow_into_aggregated_ft() {
    let dest = sc_id(0);
    let batch = batch_for(dest, &[100, 50]);
    let (mut chain, _, miner) = chain_with_sidechains_premined(1, escrow_premine(&batch.transfers));
    let tx = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Forward(batch.forward_transfer().unwrap())],
    ));
    let balance_before = chain.state().registry.get(&dest).unwrap().balance;
    chain.mine_next_block(miner.address(), vec![tx], 8).unwrap();
    let balance_after = chain.state().registry.get(&dest).unwrap().balance;
    assert_eq!(
        balance_after,
        balance_before.checked_add(Amount::from_units(150)).unwrap(),
        "aggregated FT credits the destination safeguard once"
    );
}

#[test]
fn forged_settlement_commitment_rejects_transaction() {
    let dest = sc_id(0);
    let batch = batch_for(dest, &[100, 50]);
    let (mut chain, _, miner) = chain_with_sidechains_premined(1, escrow_premine(&batch.transfers));
    let mut ft = batch.forward_transfer().unwrap();
    // Tamper with an entry inside the metadata: the embedded commitment
    // no longer matches.
    let offset = zendoo_core::settlement::XSB_HEADER_LEN + 96;
    ft.receiver_metadata[offset] ^= 0x01;
    let tx = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Forward(ft)],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![tx], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Settlement(SettlementError::ForgedCommitment { .. })
        ),
        "forged commitment must be rejected, got {err:?}"
    );
}

#[test]
fn settlement_must_consume_exactly_its_escrow_value() {
    let dest = sc_id(0);
    let batch = batch_for(dest, &[100, 50]);
    let (mut chain, _, miner) = chain_with_sidechains_premined(1, escrow_premine(&batch.transfers));
    // The escrow premine holds 150; settle only the first 100 while
    // consuming both UTXOs: the 50 would leak to fees — rejected. (The
    // unmatched input falls through to the refund rule, which refuses
    // it because its destination is alive and well.)
    let partial = SettlementBatch::new(batch.source, batch.epoch, dest, vec![batch.transfers[0]]);
    let tx = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Forward(partial.forward_transfer().unwrap())],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![tx], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::RefundDestinationActive { input: 1 })
        ),
        "escrow value leak must be rejected, got {err:?}"
    );
}

#[test]
fn settlement_cannot_spend_non_escrow_inputs() {
    let (mut chain, _, _miner) = chain_with_sidechains(1);
    let dest = sc_id(0);
    // Fund a regular user via coinbase-like premine: mine a block paying
    // the miner, then spend the miner's coinbase output into a batch.
    let miner_wallet = Wallet::from_seed(b"pipe-miner");
    chain
        .mine_next_block(miner_wallet.address(), vec![], 8)
        .unwrap();
    let owned = chain.state().utxos.owned_by(&miner_wallet.address());
    let (outpoint, spent) = owned[0];
    let batch = batch_for(dest, &[spent.amount.units()]);
    let tx = McTransaction::Transfer(TransferTx::signed(
        &[(outpoint, &miner_wallet.keypair().secret)],
        vec![Output::Forward(batch.forward_transfer().unwrap())],
    ));
    let err = chain
        .mine_next_block(miner_wallet.address(), vec![tx], 9)
        .unwrap_err();
    assert!(
        matches!(err, BlockError::Escrow(EscrowError::EntryUnbacked { .. })),
        "settlement without escrow-kind backing must be rejected, got {err:?}"
    );
}
