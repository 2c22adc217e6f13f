//! Adversarial suite for the consensus-enforced escrow output kind.
//!
//! Escrowed cross-chain value used to sit behind a well-known keypair —
//! anyone could derive it from its public seed and spend it. It is now a
//! structural output kind ([`zendoo_core::escrow::EscrowTag`]) that
//! only the consensus settlement/refund rules can move. Every test in
//! this file is a theft (or laundering) attempt, and every one must be
//! rejected with the *precise* [`BlockError`] naming the violated rule:
//!
//! | theft path                              | rejection                     |
//! |-----------------------------------------|-------------------------------|
//! | spend with the old derived escrow key   | `Escrow(RefundDestinationActive)` |
//! | refund to a non-origin address          | `Escrow(UnrefundedInput)`     |
//! | refund split / short-changed            | `Escrow(UnrefundedInput)`     |
//! | value-splitting a settlement            | `Escrow(RefundDestinationActive)` / `Escrow(EntryUnbacked)` |
//! | escrow→escrow laundering (forged kind)  | `Escrow(ForgedOutput)`        |
//! | forged window / rerouted dest tags      | `Escrow(EntryUnbacked)`       |
//! | tampered receiver (nullifier binding)   | `Escrow(EntryUnbacked)`       |
//! | mixing regular inputs into the claim    | `Escrow(MixedInputs)`         |
//! | plain FT out of escrow (metadata smuggle) | `Escrow(PlainForward)`      |
//! | coinbase minting escrow outputs         | `BadCoinbase`                 |
//!
//! A reorg test confirms escrow-kind UTXOs survive disconnects intact
//! (kind and tag restored bit-identically), and an end-to-end test
//! drives a real certificate declaration through maturation to prove
//! the registry is what mints the kind — no premine backdoor involved.

mod common;

use common::assemble;
use zendoo_core::crosschain::{encode_xct_list, escrow_address, CrossChainTransfer};
use zendoo_core::escrow::{EscrowError, EscrowTag};
use zendoo_core::ids::{Address, Amount, EpochId, SidechainId};
use zendoo_core::proofdata::{ProofData, ProofDataElem, ProofDataSchema, ProofDataType};
use zendoo_core::settlement::SettlementBatch;
use zendoo_core::transfer::{BackwardTransfer, ForwardTransfer};
use zendoo_core::{
    certificate::{wcert_public_inputs, WcertSysData},
    SidechainConfigBuilder, WithdrawalCertificate,
};
use zendoo_mainchain::chain::{BlockError, Blockchain, ChainParams};
use zendoo_mainchain::pipeline;
use zendoo_mainchain::transaction::{McTransaction, OutPoint, Output, TransferTx, TxOut};
use zendoo_mainchain::Wallet;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::schnorr::Keypair;
use zendoo_snark::backend::{prove, setup_deterministic, ProvingKey};
use zendoo_snark::circuit::{Circuit, Unsatisfied};
use zendoo_snark::inputs::PublicInputs;

/// A permissive circuit standing in for a sidechain-defined SNARK.
struct AcceptAll;

impl Circuit for AcceptAll {
    type Witness = ();

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged("escrow-test/accept-all", &[b"wcert"])
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Ok(())
    }
}

fn sc_id(i: usize) -> SidechainId {
    SidechainId::from_label(&format!("escrow-sc-{i}"))
}

/// A destination id that was never registered on the mainchain.
fn ghost_sc() -> SidechainId {
    SidechainId::from_label("escrow-ghost-sc")
}

const EPOCH: EpochId = 0;

/// A declared transfer `source → dest` with a per-nonce payback.
fn transfer(dest: SidechainId, nonce: u64, amount: u64) -> CrossChainTransfer {
    CrossChainTransfer::new(
        SidechainId::from_label("escrow-source"),
        dest,
        Address::from_label(&format!("recv-{nonce}")),
        Amount::from_units(amount),
        nonce,
        Address::from_label(&format!("payback-{nonce}")),
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
                EscrowTag::for_transfer(t, EPOCH),
            )
        })
        .collect()
}

/// A chain with one sidechain per entry of `epoch_lens` (sidechain `i`
/// gets epoch length `epoch_lens[i]`, start block 2, submission window
/// 2) plus `premine` in the genesis coinbase. Blocks are mined through
/// height 7 so a 6-block epoch 0 is certifiable. A chain that must stay
/// active past height 10 without certifying uses a longer epoch.
fn chain_with_layouts(
    premine: Vec<TxOut>,
    epoch_lens: &[u32],
) -> (Blockchain, Vec<ProvingKey>, Wallet) {
    let miner = Wallet::from_seed(b"escrow-miner");
    let params = ChainParams {
        genesis_outputs: premine,
        ..ChainParams::default()
    };
    let mut chain = Blockchain::new(params);
    let mut pks = Vec::with_capacity(epoch_lens.len());
    let mut declarations = Vec::with_capacity(epoch_lens.len());
    for (i, epoch_len) in epoch_lens.iter().enumerate() {
        let (pk, vk) = setup_deterministic(&AcceptAll, format!("escrow-seed-{i}").as_bytes());
        pks.push(pk);
        declarations.push(McTransaction::SidechainDeclaration(Box::new(
            SidechainConfigBuilder::new(sc_id(i), vk)
                .start_block(2)
                .epoch_len(*epoch_len)
                .submit_len(2)
                // Room for one declared-transfer list in certificates.
                .wcert_proofdata(ProofDataSchema(vec![ProofDataType::Bytes]))
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

/// [`chain_with_layouts`] with `n` six-block-epoch sidechains.
fn chain_with(n: usize, premine: Vec<TxOut>) -> (Blockchain, Vec<ProvingKey>, Wallet) {
    chain_with_layouts(premine, &vec![6; n])
}

/// Every escrow-kind outpoint currently unspent, sorted.
fn escrow_outpoints(chain: &Blockchain) -> Vec<OutPoint> {
    let mut outpoints: Vec<OutPoint> = chain
        .state()
        .utxos
        .iter()
        .filter(|(_, out)| out.is_escrow())
        .map(|(op, _)| *op)
        .collect();
    outpoints.sort();
    outpoints
}

fn batch_of(transfers: Vec<CrossChainTransfer>) -> SettlementBatch {
    SettlementBatch::new(
        SidechainId::from_label("escrow-source"),
        EPOCH,
        transfers[0].dest,
        transfers,
    )
}

// ---- Theft path 1: the old well-known key ---------------------------------

/// The historic escrow authority's keypair: anyone can derive it from
/// the well-known seed, which is why it must authorize nothing.
fn historic_escrow_key() -> Keypair {
    let key = Keypair::from_seed(b"zendoo/xct-escrow-authority-v1");
    // Sanity: the key really does control the escrow *address* — only
    // the output kind stands between it and the coins.
    assert_eq!(Address::from_public_key(&key.public), escrow_address());
    key
}

/// The historic escrow keypair is still derivable (that is the point of
/// the test), signs a perfectly valid-looking transfer of the escrow
/// UTXO to the attacker — and consensus rejects it: signatures simply
/// do not authorize escrow-kind spends.
#[test]
fn derived_escrow_key_cannot_spend_escrow() {
    let t = transfer(sc_id(0), 1, 100);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[t]));
    let escrow_key = historic_escrow_key();
    let outpoints = escrow_outpoints(&chain);
    let spends: Vec<_> = outpoints
        .iter()
        .map(|op| (*op, &escrow_key.secret))
        .collect();
    let theft = McTransaction::Transfer(TransferTx::signed(
        &spends,
        vec![Output::Regular(TxOut::regular(
            Address::from_label("mallory"),
            Amount::from_units(100),
        ))],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![theft], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::RefundDestinationActive { input: 0 })
        ),
        "key-signed escrow theft must be rejected, got {err:?}"
    );
    // The coins never moved.
    assert_eq!(escrow_outpoints(&chain), outpoints);
}

// ---- Theft path 2/3: refund misdirection ----------------------------------

/// A refund (destination unknown, so refunding is timely) paying an
/// attacker instead of the declared payback address is rejected.
#[test]
fn refund_to_non_origin_address_rejected() {
    let t = transfer(ghost_sc(), 1, 100);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[t]));
    let theft = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Regular(TxOut::regular(
            Address::from_label("mallory"),
            Amount::from_units(100),
        ))],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![theft], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::UnrefundedInput { input: 0 })
        ),
        "misdirected refund must be rejected, got {err:?}"
    );
}

/// A refund that short-changes the payback (skimming the rest to the
/// attacker, or to fees) is rejected — refunds are exact or nothing.
#[test]
fn refund_value_split_rejected() {
    let t = transfer(ghost_sc(), 1, 100);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[t]));
    let outpoints = escrow_outpoints(&chain);
    let split = McTransaction::Transfer(TransferTx::escrow_claiming(
        &outpoints,
        vec![
            Output::Regular(TxOut::regular(t.payback, Amount::from_units(60))),
            Output::Regular(TxOut::regular(
                Address::from_label("mallory"),
                Amount::from_units(40),
            )),
        ],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![split], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::UnrefundedInput { input: 0 })
        ),
        "short-changed refund must be rejected, got {err:?}"
    );
    // Skim-to-fees variant: pay the payback 60 and let 40 vanish into
    // the fee — equally rejected (the input has no exact refund).
    let skim = McTransaction::Transfer(TransferTx::escrow_claiming(
        &outpoints,
        vec![Output::Regular(TxOut::regular(
            t.payback,
            Amount::from_units(60),
        ))],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![skim], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::UnrefundedInput { input: 0 })
        ),
        "fee-skimmed refund must be rejected, got {err:?}"
    );
}

/// The honest refund — exact amounts to the declared payback addresses
/// of a dead destination — is the one regular-output spend consensus
/// accepts, with zero signatures from any authority key in the trace.
#[test]
fn exact_refund_of_dead_destination_accepted() {
    let a = transfer(ghost_sc(), 1, 100);
    let b = transfer(ghost_sc(), 2, 50);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[a, b]));
    let refund = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![
            Output::Regular(TxOut::regular(a.payback, a.amount)),
            Output::Regular(TxOut::regular(b.payback, b.amount)),
        ],
    ));
    chain
        .mine_next_block(miner.address(), vec![refund], 8)
        .unwrap();
    assert!(escrow_outpoints(&chain).is_empty(), "escrow consumed");
    assert_eq!(
        chain.state().utxos.balance_of(&a.payback),
        Amount::from_units(100)
    );
    assert_eq!(
        chain.state().utxos.balance_of(&b.payback),
        Amount::from_units(50)
    );
    // No input in the whole chain was ever authorized by the historic
    // escrow-authority key.
    for h in 0..=chain.height() {
        let block = chain.block_at_height(h).unwrap();
        for tx in &block.transactions {
            if let McTransaction::Transfer(t) = tx {
                for input in &t.inputs {
                    assert_ne!(
                        Address::from_public_key(&input.pubkey),
                        escrow_address(),
                        "escrow-authority signature found in the trace"
                    );
                }
            }
        }
    }
}

// ---- Theft path 4: value-splitting a settlement ---------------------------

/// A settlement that silently drops one escrowed transfer (settling the
/// rest and pocketing the difference as fees) is rejected.
#[test]
fn value_splitting_settlement_rejected() {
    let a = transfer(sc_id(0), 1, 100);
    let b = transfer(sc_id(0), 2, 50);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[a, b]));
    let partial = batch_of(vec![a]);
    let theft = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Forward(partial.forward_transfer().unwrap())],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![theft], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::RefundDestinationActive { .. })
        ),
        "value-splitting settlement must be rejected, got {err:?}"
    );
}

/// A settlement entry whose amount was inflated (draining two escrow
/// UTXOs through one rewritten 150-coin entry instead of the declared
/// 100 + 50) finds no backing input.
#[test]
fn inflated_settlement_entry_rejected() {
    let a = transfer(sc_id(0), 1, 100);
    let b = transfer(sc_id(0), 2, 50);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[a, b]));
    let mut inflated = a;
    inflated.amount = Amount::from_units(150);
    inflated.nullifier = inflated.derive_nullifier();
    let theft = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Forward(
            batch_of(vec![inflated]).forward_transfer().unwrap(),
        )],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![theft], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::EntryUnbacked { batch: 0, entry: 0 })
        ),
        "inflated settlement entry must be rejected, got {err:?}"
    );
}

// ---- Theft path 5: escrow-to-escrow laundering ----------------------------

/// Re-escrowing consumed value under a fresh forged tag (to reset the
/// window, swap the payback, or launder provenance) is rejected — and
/// already at stateless mempool precheck, not just at apply.
#[test]
fn escrow_to_escrow_laundering_rejected() {
    let t = transfer(ghost_sc(), 1, 100);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[t]));
    // Forge a re-escrow to a tag whose payback is the attacker.
    let mut relaundered = t;
    relaundered.payback = Address::from_label("mallory");
    relaundered.nullifier = relaundered.derive_nullifier();
    let forged = TxOut::escrow(
        escrow_address(),
        Amount::from_units(100),
        EscrowTag::for_transfer(&relaundered, EPOCH + 1),
    );
    let launder = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Regular(forged)],
    ));
    // Stateless precheck (mempool admission) already refuses it...
    assert!(
        matches!(
            pipeline::precheck_transaction(&launder),
            Err(BlockError::Escrow(EscrowError::ForgedOutput { output: 0 }))
        ),
        "forged escrow output must fail stateless precheck"
    );
    // ...and so does block application for hand-built blocks.
    let err = chain
        .mine_next_block(miner.address(), vec![launder], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::ForgedOutput { output: 0 })
        ),
        "escrow-to-escrow laundering must be rejected, got {err:?}"
    );
}

/// A coinbase minting an escrow-kind output is coinbase-invalid.
#[test]
fn coinbase_cannot_mint_escrow_outputs() {
    let t = transfer(sc_id(0), 1, 100);
    let (chain, _, _) = chain_with(1, Vec::new());
    let state = chain.state().clone();
    let mut forged_state = state.clone();
    let block = {
        // Hand-build a block whose coinbase smuggles an escrow output.
        let mut block = assemble(&chain, Address::from_label("m"), vec![], 8);
        if let McTransaction::Coinbase(cb) = &mut block.transactions[0] {
            cb.outputs.push(TxOut::escrow(
                escrow_address(),
                Amount::ZERO,
                EscrowTag::for_transfer(&t, EPOCH),
            ));
        }
        block
    };
    let active: Vec<Digest32> = (0..=chain.height())
        .map(|h| chain.hash_at_height(h).unwrap())
        .collect();
    let err = pipeline::apply_block(
        &mut forged_state,
        &block,
        &block.txids(),
        &active,
        chain.params().block_subsidy,
        &pipeline::ProofVerdicts::inline(),
    )
    .unwrap_err();
    assert!(
        matches!(err, BlockError::BadCoinbase(_)),
        "escrow-minting coinbase must be rejected, got {err:?}"
    );
    assert_eq!(forged_state, state, "failed apply left no residue");
}

// ---- Theft path 6: forged window / destination tags -----------------------

/// A batch claiming a different maturity window than the escrow tags
/// (replay into another epoch) finds no backing.
#[test]
fn forged_window_tag_rejected() {
    let t = transfer(sc_id(0), 1, 100);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[t]));
    let mut wrong_window = batch_of(vec![t]);
    wrong_window.epoch = EPOCH + 1;
    let theft = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Forward(wrong_window.forward_transfer().unwrap())],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![theft], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::EntryUnbacked { batch: 0, entry: 0 })
        ),
        "forged window must be rejected, got {err:?}"
    );
}

/// Rerouting escrowed value to a different (registered, active)
/// destination sidechain than the tag declares is rejected — even
/// though the forged batch is internally consistent.
#[test]
fn rerouted_destination_rejected() {
    let t = transfer(sc_id(0), 1, 100);
    let (mut chain, _, miner) = chain_with(2, escrow_premine(&[t]));
    let mut rerouted = t;
    rerouted.dest = sc_id(1);
    rerouted.nullifier = rerouted.derive_nullifier();
    let theft = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Forward(
            batch_of(vec![rerouted]).forward_transfer().unwrap(),
        )],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![theft], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::EntryUnbacked { batch: 0, entry: 0 })
        ),
        "rerouted destination must be rejected, got {err:?}"
    );
}

/// Swapping the destination-side receiver is caught by the nullifier
/// binding: the tag's nullifier covers every transfer field, so a
/// recomputed nullifier no longer matches the escrow input.
#[test]
fn tampered_receiver_rejected() {
    let t = transfer(sc_id(0), 1, 100);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[t]));
    let mut hijacked = t;
    hijacked.receiver = Address::from_label("mallory-on-sc0");
    hijacked.nullifier = hijacked.derive_nullifier();
    let theft = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Forward(
            batch_of(vec![hijacked]).forward_transfer().unwrap(),
        )],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![theft], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::EntryUnbacked { batch: 0, entry: 0 })
        ),
        "tampered receiver must be rejected, got {err:?}"
    );
}

// ---- Theft path 7/8: input mixing and metadata smuggling ------------------

/// Mixing a regular (attacker-funded) input into an escrow claim is
/// rejected outright — the exact-matching rule needs the whole
/// transaction to be an escrow settlement/refund.
#[test]
fn mixed_escrow_and_regular_inputs_rejected() {
    let t = transfer(sc_id(0), 1, 100);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[t]));
    // Give the miner a spendable coin.
    chain.mine_next_block(miner.address(), vec![], 8).unwrap();
    let (miner_op, _) = chain.state().utxos.owned_by(&miner.address())[0];
    let escrow_op = escrow_outpoints(&chain)[0];
    let mixed = McTransaction::Transfer(TransferTx::signed(
        &[
            (escrow_op, &miner.keypair().secret),
            (miner_op, &miner.keypair().secret),
        ],
        vec![Output::Forward(
            batch_of(vec![t]).forward_transfer().unwrap(),
        )],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![mixed], 9)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::MixedInputs { input: 1 })
        ),
        "mixed-input escrow claim must be rejected, got {err:?}"
    );
}

/// Escrowed value may not leave through a *plain* forward transfer:
/// hand-rolled receiver metadata (crediting the attacker on the
/// destination chain) bypasses the settlement batch and is rejected.
#[test]
fn plain_forward_transfer_from_escrow_rejected() {
    let t = transfer(sc_id(0), 1, 100);
    let (mut chain, _, miner) = chain_with(1, escrow_premine(&[t]));
    let smuggle = McTransaction::Transfer(TransferTx::escrow_claiming(
        &escrow_outpoints(&chain),
        vec![Output::Forward(ForwardTransfer {
            sidechain_id: sc_id(0),
            receiver_metadata: vec![0u8; 64],
            amount: Amount::from_units(100),
        })],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![smuggle], 8)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlockError::Escrow(EscrowError::PlainForward { output: 0 })
        ),
        "plain-FT escrow smuggle must be rejected, got {err:?}"
    );
}

// ---- Reorg safety ---------------------------------------------------------

/// A reorg across an escrow spend restores the escrow-kind UTXOs —
/// kind and tag bit-identical — and the replacement branch enforces the
/// same rules: the old key still cannot steal, and the honest
/// settlement still lands.
#[test]
fn reorg_across_escrow_spend_restores_the_kind() {
    let t = transfer(sc_id(0), 1, 100);
    // A 30-block epoch keeps the destination active across the fork
    // without certifying (nothing here is about liveness).
    let (mut chain, _, miner) = chain_with_layouts(escrow_premine(&[t]), &[30]);
    let outpoints = escrow_outpoints(&chain);
    let tag_before = *chain
        .state()
        .utxos
        .get(&outpoints[0])
        .unwrap()
        .escrow_tag()
        .unwrap();
    let fork_base = chain.tip_hash();
    let fork_height = chain.height();

    // Settle on branch A.
    let settle = McTransaction::Transfer(TransferTx::escrow_claiming(
        &outpoints,
        vec![Output::Forward(
            batch_of(vec![t]).forward_transfer().unwrap(),
        )],
    ));
    chain
        .mine_next_block(miner.address(), vec![settle], 8)
        .unwrap();
    assert!(escrow_outpoints(&chain).is_empty(), "escrow spent on A");

    // Branch B: two empty blocks from the fork base out-work branch A.
    let mut alt = Blockchain::new(chain.params().clone());
    for h in 1..=fork_height {
        alt.submit_block(chain.block_at_height(h).unwrap().clone())
            .unwrap();
    }
    assert_eq!(alt.tip_hash(), fork_base);
    for i in 0..2u64 {
        let block = alt
            .mine_next_block(miner.address(), vec![], 700 + i)
            .unwrap();
        chain.submit_block(block).unwrap();
    }
    // The reorg disconnected the settlement: escrow restored, kind and
    // tag intact.
    assert_eq!(escrow_outpoints(&chain), outpoints);
    let restored = chain.state().utxos.get(&outpoints[0]).unwrap();
    assert!(restored.is_escrow());
    assert_eq!(*restored.escrow_tag().unwrap(), tag_before);

    // The new branch rejects theft exactly like the old one...
    let theft = McTransaction::Transfer(TransferTx::escrow_claiming(
        &outpoints,
        vec![Output::Regular(TxOut::regular(
            Address::from_label("mallory"),
            Amount::from_units(100),
        ))],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![theft], 702)
        .unwrap_err();
    assert!(matches!(err, BlockError::Escrow(_)));

    // ...and accepts the honest settlement.
    let settle = McTransaction::Transfer(TransferTx::escrow_claiming(
        &outpoints,
        vec![Output::Forward(
            batch_of(vec![t]).forward_transfer().unwrap(),
        )],
    ));
    chain
        .mine_next_block(miner.address(), vec![settle], 703)
        .unwrap();
    assert!(escrow_outpoints(&chain).is_empty());
    assert_eq!(
        chain.state().registry.get(&sc_id(0)).unwrap().balance,
        Amount::from_units(100),
        "settled value credited the destination safeguard"
    );
}

// ---- End to end: the registry mints the kind ------------------------------

/// Drives a real certificate declaration through maturation: the
/// matured escrow backward transfers become escrow-*kind* UTXOs tagged
/// from the declaration (no genesis premine involved), the old key
/// cannot touch them, and the matching settlement spends them.
#[test]
fn certificate_maturation_mints_tagged_escrow_utxos() {
    // Source certifies its 6-block epoch 0; the destination sits on a
    // 30-block epoch so it stays active through delivery.
    let (mut chain, pks, miner) = chain_with_layouts(Vec::new(), &[6, 30]);
    let source = sc_id(0);
    let dest = sc_id(1);

    // Fund the source sidechain's safeguard so it can withdraw.
    let ft = miner
        .forward_transfer(
            &chain,
            source,
            vec![0u8; 64],
            Amount::from_units(500),
            Amount::ZERO,
        )
        .unwrap();
    chain.mine_next_block(miner.address(), vec![ft], 8).unwrap();

    // An epoch-0 certificate declaring one cross-chain transfer with
    // its escrow-paired backward transfer.
    let xct = CrossChainTransfer::new(
        source,
        dest,
        Address::from_label("recv"),
        Amount::from_units(120),
        7,
        Address::from_label("payback"),
    );
    let mut cert = WithdrawalCertificate {
        sidechain_id: source,
        epoch_id: 0,
        quality: 1,
        bt_list: vec![BackwardTransfer {
            receiver: escrow_address(),
            amount: xct.amount,
        }],
        proofdata: ProofData(vec![ProofDataElem::Bytes(encode_xct_list(&[xct]))]),
        proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
    };
    let sysdata = WcertSysData::for_certificate(
        &cert,
        chain.hash_at_height(1).unwrap(),
        chain.hash_at_height(7).unwrap(),
    );
    let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
    cert.proof = prove(&pks[0], &AcceptAll, &inputs, &()).unwrap();
    let cert_digest = cert.digest();
    chain
        .mine_next_block(
            miner.address(),
            vec![McTransaction::Certificate(Box::new(cert))],
            9,
        )
        .unwrap();

    // The window closes at height 10: the payout matures into an
    // escrow-KIND UTXO tagged straight from the declaration.
    chain.mine_next_block(miner.address(), vec![], 10).unwrap();
    let outpoint = OutPoint {
        txid: cert_digest,
        index: 0,
    };
    let escrowed = chain.state().utxos.get(&outpoint).unwrap();
    assert!(escrowed.is_escrow(), "matured escrow BT carries the kind");
    assert_eq!(
        *escrowed.escrow_tag().unwrap(),
        EscrowTag::for_transfer(&xct, 0)
    );

    // The old key cannot move it...
    let escrow_key = historic_escrow_key();
    let theft = McTransaction::Transfer(TransferTx::signed(
        &[(outpoint, &escrow_key.secret)],
        vec![Output::Regular(TxOut::regular(
            Address::from_label("mallory"),
            xct.amount,
        ))],
    ));
    let err = chain
        .mine_next_block(miner.address(), vec![theft], 11)
        .unwrap_err();
    assert!(matches!(err, BlockError::Escrow(_)));

    // ...but the declared settlement does.
    let batch = SettlementBatch::new(source, 0, dest, vec![xct]);
    let settle = McTransaction::Transfer(TransferTx::escrow_claiming(
        &[outpoint],
        vec![Output::Forward(batch.forward_transfer().unwrap())],
    ));
    chain
        .mine_next_block(miner.address(), vec![settle], 11)
        .unwrap();
    assert_eq!(
        chain.state().registry.get(&dest).unwrap().balance,
        Amount::from_units(120)
    );
}
