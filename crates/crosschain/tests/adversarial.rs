//! Adversarial cross-chain transfers: replayed and forged
//! [`CrossChainTransfer`] declarations must be rejected by the
//! mainchain registry, and a transfer whose destination ceased must
//! refund its sender — exercised against the full simulation world
//! (real certificates, real SNARK acceptance).

use zendoo_core::certificate::{wcert_public_inputs, WcertSysData};
use zendoo_core::config::SidechainConfigBuilder;
use zendoo_core::crosschain::{
    encode_xct_list, escrow_address, CrossChainTransfer, DeliveryStatus,
};
use zendoo_core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo_core::proofdata::{ProofData, ProofDataElem, ProofDataSchema, ProofDataType};
use zendoo_core::transfer::BackwardTransfer;
use zendoo_core::verifier::ProofCheck;
use zendoo_core::WithdrawalCertificate;
use zendoo_crosschain::{settlement_transactions, CrossChainRouter};
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::registry::{RegistryError, RegistryUndo, SidechainRegistry};
use zendoo_mainchain::transaction::McTransaction;
use zendoo_mainchain::wallet::Wallet;
use zendoo_primitives::digest::Digest32;
use zendoo_sim::{Action, Schedule, SimConfig, World};
use zendoo_snark::backend::{prove, setup_deterministic, Proof};
use zendoo_snark::circuit::{Circuit, Unsatisfied};
use zendoo_snark::inputs::PublicInputs;

/// Offers `cert` to `registry` as a block at `height` would, with the
/// SNARK verified inline.
fn accept(
    registry: &mut SidechainRegistry,
    cert: &WithdrawalCertificate,
    height: u64,
) -> Result<(), RegistryError> {
    registry.accept_certificate(
        cert,
        height,
        |_| Some(Digest32::ZERO),
        ProofCheck::run,
        &mut RegistryUndo::default(),
    )
}

fn two_chain_world() -> (World, SidechainId, SidechainId) {
    let world = World::new(SimConfig::with_sidechains(2));
    let ids = world.sidechain_ids().to_vec();
    (world, ids[0], ids[1])
}

/// Runs one full cross transfer and then tries to replay the exact same
/// message (same nonce → same nullifier) in a later epoch. The replayed
/// certificate must be rejected by the registry's nullifier set, and no
/// second delivery may occur.
#[test]
fn replayed_transfer_is_rejected() {
    let (mut world, sc0, sc1) = two_chain_world();
    world
        .queue_forward_transfer_on(&sc0, "alice", 50_000)
        .unwrap();
    world.run(2).unwrap();
    let xct = world
        .queue_cross_transfer(&sc0, &sc1, "alice", 10_000)
        .unwrap();
    // Epoch 0 certifies, matures and delivers.
    world.run(12).unwrap();
    assert_eq!(world.metrics.cross_transfers_delivered, 1);
    assert!(world.router.receipt_for(&xct.nullifier).is_some());

    // Forge a replay: a fresh certificate-shaped posting declaring the
    // consumed transfer again, checked directly against the registry.
    let registry = &world.chain.state().registry;
    assert!(registry.nullifier_spent(&sc0, &xct.nullifier));

    // And through the normal path: submitting a second transfer with
    // identical fields derives the same nullifier only if the nonce
    // repeats; the node's nonce is monotonic, so craft the replay at
    // the registry level instead.
    let mut replay_registry: SidechainRegistry = registry.clone();
    // Epoch 2's submission window opens at height 20 (epoch_len 6,
    // submit_len 2, start 2): an in-window, in-schedule replay.
    let cert = forged_cert(sc0, &[xct], 2);
    let err = accept(&mut replay_registry, &cert, 20).unwrap_err();
    assert!(
        matches!(err, RegistryError::NullifierReused(n) if n == xct.nullifier),
        "replay must trip the nullifier set, got {err:?}"
    );
}

/// A certificate-shaped posting with a declared transfer list and the
/// matching escrow BTs, but no valid SNARK (the registry checks
/// declarations *before* it would debit anything; the proof check also
/// fails, but nullifier reuse must be detected regardless of quality).
fn forged_cert(
    source: SidechainId,
    declared: &[CrossChainTransfer],
    epoch: u32,
) -> WithdrawalCertificate {
    let kp = zendoo_primitives::schnorr::Keypair::from_seed(b"forger");
    let sig = kp.secret.sign("zendoo/snark-proof-v1", b"forged");
    WithdrawalCertificate {
        sidechain_id: source,
        epoch_id: epoch,
        quality: 1_000,
        bt_list: declared
            .iter()
            .map(|xct| BackwardTransfer {
                receiver: escrow_address(),
                amount: xct.amount,
            })
            .collect(),
        proofdata: ProofData(vec![ProofDataElem::Bytes(encode_xct_list(declared))]),
        proof: zendoo_snark::backend::Proof::from_bytes(&sig.to_bytes()).unwrap(),
    }
}

/// A declaration whose nullifier does not match the transfer fields is
/// rejected at certificate acceptance — before any proof verification
/// could be fooled.
#[test]
fn forged_nullifier_is_rejected() {
    let (world, sc0, sc1) = two_chain_world();
    let mut forged = CrossChainTransfer::new(
        sc0,
        sc1,
        Address::from_label("mallory-sc1"),
        Amount::from_units(1_000),
        0,
        Address::from_label("mallory-mc"),
    );
    forged.nullifier = Nullifier(Digest32::hash_bytes(b"mallory-forged"));

    let mut registry = world.chain.state().registry.clone();
    let cert = forged_cert(sc0, &[forged], 0);
    let err = accept(&mut registry, &cert, 8).unwrap_err();
    assert!(
        matches!(
            err,
            RegistryError::CrossChain(zendoo_core::crosschain::XctError::BadNullifier)
        ),
        "forged nullifier must be rejected, got {err:?}"
    );
}

/// A declaration naming an unregistered destination still escrows (the
/// mainchain cannot know every future sidechain), but settlement
/// refunds the payback address at maturity instead of delivering.
#[test]
fn unknown_destination_is_refunded() {
    let mut world = World::new(SimConfig::with_sidechains(1));
    let sc0 = world.sidechain_ids()[0];
    let ghost = SidechainId::from_label("never-registered");
    world
        .queue_forward_transfer_on(&sc0, "alice", 50_000)
        .unwrap();
    world.run(2).unwrap();
    // `World::queue_cross_transfer` refuses a chain it never deployed
    // (alice has no address there), so the declaration goes to the
    // source node directly, toward an arbitrary receiver.
    let alice = world.user("alice").unwrap().clone();
    let node = world.node_of_mut(&sc0).unwrap();
    let utxo = node.utxos_of(&alice.sc_address_on(&sc0))[0];
    node.submit_cross_transfer(
        vec![(utxo, &alice.sc_keys_on(&sc0).secret)],
        Amount::from_units(7_000),
        ghost,
        Address::from_label("alice-on-ghost"),
        alice.mc_address(),
    )
    .unwrap();
    world.run(12).unwrap();

    assert_eq!(world.metrics.cross_transfers_delivered, 0);
    assert_eq!(world.metrics.cross_transfers_refunded, 1);
    let receipt = world.router.receipts().last().unwrap();
    assert!(matches!(
        receipt.status,
        DeliveryStatus::Refunded {
            reason: zendoo_core::crosschain::RefundReason::UnknownDestination,
            ..
        }
    ));
    assert!(world.conservation_holds());
    // The refund landed on alice's MC address (premine - FT + refund).
    assert_eq!(
        world.chain.state().utxos.balance_of(&alice.mc_address()),
        Amount::from_units(1_000_000 - 50_000 + 7_000)
    );
}

/// A transfer whose destination ceases before escrow maturity is
/// refunded (the scripted scenario variant lives in
/// `zendoo_sim::scenarios::cross_transfer_to_ceased`; this exercises
/// the action-script path end to end).
#[test]
fn ceased_destination_is_refunded() {
    let config = SimConfig::with_sidechains(2);
    let mut world = World::new(config.clone());
    let epoch = config.epoch_len as u64;
    let schedule = Schedule::new()
        .at(0, Action::WithholdCertificatesOn(1))
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 30_000))
        .at(1, Action::CrossTransfer(0, 1, "alice".into(), 9_000));
    schedule.run(&mut world, 2 * epoch + 2).unwrap();

    let sc1 = world.sidechain_ids()[1];
    assert_eq!(
        world.sidechain_status_of(&sc1),
        Some(zendoo_mainchain::SidechainStatus::Ceased)
    );
    assert_eq!(world.metrics.cross_transfers_refunded, 1);
    let receipt = world.router.receipts().last().unwrap();
    assert!(matches!(
        receipt.status,
        DeliveryStatus::Refunded {
            reason: zendoo_core::crosschain::RefundReason::CeasedDestination,
            ..
        }
    ));
    assert!(world.conservation_holds());
}

/// A permissive circuit standing in for the source sidechain's SNARK.
struct AcceptAll;

impl Circuit for AcceptAll {
    type Witness = ();

    fn id(&self) -> Digest32 {
        Digest32::hash_bytes(b"xct-test/accept-all")
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Ok(())
    }
}

/// Quality replacement inside a window: only the better certificate's
/// declaration is ever escrowed. The replaced certificate's transfer
/// never had an escrow, so nothing of it can strand; the winner's
/// escrow is settled by the next block, and the router reads the
/// delivery back off it.
#[test]
fn a_replaced_certificate_escrows_nothing() {
    let miner = Wallet::from_seed(b"xct-miner");
    let (source, dest) = (
        SidechainId::from_label("xct-source"),
        SidechainId::from_label("xct-dest"),
    );
    let (pk, vk) = setup_deterministic(&AcceptAll, b"xct-source");
    let declare = |id, vk, epoch_len| {
        McTransaction::SidechainDeclaration(Box::new(
            SidechainConfigBuilder::new(id, vk)
                .start_block(2)
                .epoch_len(epoch_len)
                .submit_len(2)
                .wcert_proofdata(ProofDataSchema(vec![ProofDataType::Bytes]))
                .build()
                .unwrap(),
        ))
    };
    let mut chain = Blockchain::new(ChainParams::default());
    // The destination's 30-block epoch keeps it active throughout.
    let declarations = vec![
        declare(source, vk, 6),
        declare(dest, setup_deterministic(&AcceptAll, b"xct-dest").1, 30),
    ];
    chain
        .mine_next_block(miner.address(), declarations, 1)
        .unwrap();
    let deposit = miner
        .forward_transfer(
            &chain,
            source,
            vec![],
            Amount::from_units(1_000),
            Amount::ZERO,
        )
        .unwrap();
    chain
        .mine_next_block(miner.address(), vec![deposit], 2)
        .unwrap();
    for time in 3..=7 {
        chain
            .mine_next_block(miner.address(), vec![], time)
            .unwrap();
    }
    let ends = (
        chain.hash_at_height(1).unwrap(),
        chain.hash_at_height(7).unwrap(),
    );
    let declaring = |quality, nonce| {
        let xct = CrossChainTransfer::new(
            source,
            dest,
            Address::from_label("recv"),
            Amount::from_units(100),
            nonce,
            Address::from_label("payback"),
        );
        let mut cert = WithdrawalCertificate {
            sidechain_id: source,
            epoch_id: 0,
            quality,
            bt_list: vec![BackwardTransfer {
                receiver: escrow_address(),
                amount: xct.amount,
            }],
            proofdata: ProofData(vec![ProofDataElem::Bytes(encode_xct_list(&[xct]))]),
            proof: Proof::from_bytes(&[0; Proof::SIZE]).unwrap(),
        };
        let sysdata = WcertSysData::for_certificate(&cert, ends.0, ends.1);
        let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
        cert.proof = prove(&pk, &AcceptAll, &inputs, &()).unwrap();
        (xct, McTransaction::Certificate(Box::new(cert)))
    };
    let (replaced, first) = declaring(1, 0);
    let (winner, second) = declaring(2, 1);
    chain
        .mine_next_block(miner.address(), vec![first], 8)
        .unwrap();
    chain
        .mine_next_block(miner.address(), vec![second], 9)
        .unwrap();
    // The window closes at height 10: the winner alone matures.
    chain.mine_next_block(miner.address(), vec![], 10).unwrap();
    let escrowed: Vec<Nullifier> = chain
        .state()
        .utxos
        .escrows()
        .map(|(_, out)| out.escrow_tag().unwrap().nullifier)
        .collect();
    assert_eq!(escrowed, vec![winner.nullifier]);

    let settlement = settlement_transactions(&chain);
    assert_eq!(settlement.len(), 1);
    let block = chain
        .mine_next_block(miner.address(), settlement, 11)
        .unwrap();
    let mut router = CrossChainRouter::new();
    router.observe_block(&chain, &block);
    assert_eq!(chain.state().utxos.escrows().count(), 0);
    assert_eq!(
        router.receipt_for(&winner.nullifier).map(|r| r.status),
        Some(DeliveryStatus::Delivered { mc_height: 11 })
    );
    assert!(router.receipt_for(&replaced.nullifier).is_none());
    assert_eq!(router.pending_count(), 0);
    assert_eq!(
        chain.state().registry.get(&dest).unwrap().balance,
        Amount::from_units(100)
    );
}

/// A certificate declaring a transfer without the matching escrow
/// backward transfer (conservation violation) is rejected outright.
#[test]
fn missing_escrow_is_rejected() {
    let (world, sc0, sc1) = two_chain_world();
    let xct = CrossChainTransfer::new(
        sc0,
        sc1,
        Address::from_label("recv"),
        Amount::from_units(5_000),
        0,
        Address::from_label("payback"),
    );
    let mut cert = forged_cert(sc0, &[xct], 0);
    cert.bt_list.clear(); // declared, but nothing escrowed

    let mut registry = world.chain.state().registry.clone();
    let err = accept(&mut registry, &cert, 8).unwrap_err();
    assert!(matches!(
        err,
        RegistryError::CrossChain(zendoo_core::crosschain::XctError::EscrowMismatch { .. })
    ));
}
