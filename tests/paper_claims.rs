//! The paper's scaling claims, as assertions on operation counts.
//!
//! Zendoo's case for a *decoupled* sidechain is a set of cost shapes:
//! what the mainchain pays per certificate does not depend on what the
//! sidechain did. Each test below states one of them through
//! [`opcount::measure`] — Poseidon permutations, group multiplications
//! (one per signature, verification, simulated SNARK proof or proof
//! check) and SHA-256 compressions run by the calling thread — so the
//! result is the same on every host and a regression fails instead of
//! printing a slower curve. Nothing here reads a clock; wall clocks are
//! the `benchmark/` metrics named on the right.
//!
//! | Experiment (paper) | Test | Wall clock |
//! |---|---|---|
//! | E1 succinctness (Def 2.3) | `e1_proving_grows_with_the_statement_verifying_does_not` | `snark.prove_us`, `snark.verify_us` |
//! | E1/E3 decoupling (§4.1.2) | `e1_e3_the_mainchain_pays_the_same_for_one_payment_or_hundreds` | `mainchain.stage2_ms` |
//! | E3 certificate cost, SNARK vs committee (§4.1.2) | `e3_a_certificate_is_one_check_plus_hashing_linear_in_the_bt_list` | `snark.verify_us`, `primitives.schnorr_verify_us` |
//! | E2 recursive composition (Def 2.5, Figs 10–11), checked a layer at a time | `e2_a_chain_of_n_is_n_base_and_n_minus_one_merge_proofs` | `latus.produce_certificate_p50_ms` |
//! | what stays linear in traffic: transfer signatures (§4.1.2) | `a_blocks_transfer_signatures_are_one_evaluation_for_any_number_of_transfers` | `follower_block_ms`, `mainchain.sig_batch_verify_ms` |
//! | E4 `SCTxsCommitment` (§4.1.3, Figs 4/12) | `e4_commitment_proofs_are_logarithmic_in_the_sidechains` | `core.sc_commitment_us` |
//! | E5 MST write, tree level (§5.2, Fig 9) | `zendoo-primitives`: `smt::tests::a_write_costs_log_occupancy_not_depth` | `primitives.smt_insert_us` |
//! | E5 MST write, Latus level | `e5_a_forward_transfer_costs_log_occupancy_at_any_depth` | `latus.mst_add_us` |
//! | E5 a block's forward transfers, one write (§5.3.2) | `e5_a_block_of_forward_transfers_is_one_tree_write`; tree level `smt::tests::a_batch_hashes_each_touched_node_once` | `bridge_rush` `epoch_block_ms` |
//! | E7 leadership ∝ stake (§5.1) | `zendoo-latus`: `consensus::tests::leadership_frequency_tracks_stake` | — |
//! | E7 lottery cost | `e7_the_lottery_is_one_vrf_evaluation_a_slot` | — |
//! | cross-chain routing | `routing_is_linear_in_declared_transfers_and_blind_to_chain_length` | `crosschain.collect_p95_ms` |
//!
//! `make test-claims` runs this file and the cited unit tests.
//!
//! `zendoo::snark::circuit::constraint_cost` is the *model* of prover
//! work: it runs a circuit's check and prices the operations counted
//! (`gadget_cost::price`, modelled R1CS sizes of production gadgets), so
//! it cannot drift from what the check runs. E1 (`HashChain`) and E3
//! (`CertifierCircuit`) read it here. The statements a test here cannot
//! reach have their cost tests beside them: the certificate statement
//! of E1/E3, `zendoo-latus`
//! `node::tests::a_certificate_statement_is_one_proof_check_and_a_fold_per_touched_slot`;
//! the private Merge, Wrap and Fold circuits, `zendoo-snark`
//! `recursive::tests::merge_is_charged_the_two_checks_it_runs` and
//! `aggregate::tests::wrap_and_fold_are_charged_the_checks_they_run`.

use std::sync::Arc;

use zendoo::core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo::core::commitment::{sc_leaf_hash, txs_hash, ScTxsCommitmentBuilder};
use zendoo::core::config::{SidechainConfig, SidechainConfigBuilder};
use zendoo::core::crosschain::{
    encode_xct_list, escrow_address, validate_declarations, CrossChainTransfer,
};
use zendoo::core::epoch::EpochSchedule;
use zendoo::core::ids::{Address, Amount, SidechainId};
use zendoo::core::proofdata::{ProofData, ProofDataElem, ProofDataSchema, ProofDataType};
use zendoo::core::transfer::{BackwardTransfer, ForwardTransfer};
use zendoo::core::verifier::{verify_certificate, ProofCheck};
use zendoo::crosschain::settlement_transactions;
use zendoo::latus::certifier::{CertifierCircuit, CertifierCommittee, Endorsement};
use zendoo::latus::consensus::{try_lead_slot, ConsensusParams, StakeDistribution};
use zendoo::latus::mst::Utxo;
use zendoo::latus::node::{LatusKeys, LatusNode};
use zendoo::latus::params::LatusParams;
use zendoo::latus::proof::LatusTransitionVerifier;
use zendoo::latus::state::SidechainState;
use zendoo::latus::tx::{
    apply_transaction, ForwardTransfersTx, McRefBinding, McRefEvidence, PaymentTx,
    ReceiverMetadata, ScTransaction,
};
use zendoo::mainchain::chain::{Blockchain, ChainParams};
use zendoo::mainchain::pow::Target;
use zendoo::mainchain::sigbatch::{verify_sig_batch, SigCheck};
use zendoo::mainchain::transaction::{McTransaction, OutPoint, Output, TransferTx, TxOut};
use zendoo::mainchain::wallet::Wallet;
use zendoo::mainchain::BlockHeader;
use zendoo::primitives::digest::Digest32;
use zendoo::primitives::encode::Encode;
use zendoo::primitives::field::Fp;
use zendoo::primitives::merkle::{MerkleHasher, Sha256Hasher};
use zendoo::primitives::opcount::{measure, OpCount};
use zendoo::primitives::poseidon;
use zendoo::primitives::schnorr::Keypair;
use zendoo::snark::backend::{prove, setup_deterministic, verify, Proof};
use zendoo::snark::circuit::{constraint_cost, gadget_cost, Circuit, Unsatisfied};
use zendoo::snark::inputs::PublicInputs;
use zendoo::snark::recursive::{RecursiveSystem, TransitionVerifier};

/// What `f` costs once the lazily built constants it meets exist: the
/// first call warms, the second is measured.
fn cost_of<R>(f: impl Fn() -> R) -> OpCount {
    f();
    measure(f).1
}

/// A certificate circuit that accepts anything: for claims about the
/// work *around* the proof (hashing the certificate, collecting a
/// block's statements), where a real sidechain would only add set-up.
struct AcceptAll;

impl Circuit for AcceptAll {
    type Witness = ();

    fn id(&self) -> Digest32 {
        Digest32::hash_bytes(b"claims/accept-all")
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Ok(())
    }
}

/// An epoch-0 certificate of `sidechain_id`, not yet proven.
fn certificate(
    sidechain_id: SidechainId,
    quality: u64,
    bt_list: Vec<BackwardTransfer>,
) -> WithdrawalCertificate {
    WithdrawalCertificate {
        sidechain_id,
        epoch_id: 0,
        quality,
        bt_list,
        proofdata: ProofData::empty(),
        proof: Proof::from_bytes(&[0; Proof::SIZE]).expect("placeholder"),
    }
}

/// `cert` proven under [`AcceptAll`] for the given epoch boundary.
fn proven(
    mut cert: WithdrawalCertificate,
    seed: &[u8],
    ends: (Digest32, Digest32),
) -> WithdrawalCertificate {
    let (pk, _) = setup_deterministic(&AcceptAll, seed);
    let sysdata = WcertSysData::for_certificate(&cert, ends.0, ends.1);
    let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
    cert.proof = prove(&pk, &AcceptAll, &inputs, &()).unwrap();
    cert
}

fn posted(cert: WithdrawalCertificate) -> McTransaction {
    McTransaction::Certificate(Box::new(cert))
}

fn config_for(sidechain_id: SidechainId, seed: &[u8]) -> SidechainConfig {
    let (_, vk) = setup_deterministic(&AcceptAll, seed);
    SidechainConfigBuilder::new(sidechain_id, vk)
        .start_block(2)
        .epoch_len(6)
        .submit_len(2)
        .build()
        .unwrap()
}

/// A mainchain of `height` blocks: the first declares `sidechains`, the
/// rest are empty.
fn mined(sidechains: Vec<SidechainConfig>, height: u64) -> (Blockchain, Wallet) {
    let miner = Wallet::from_seed(b"claims-miner");
    let mut chain = Blockchain::new(ChainParams::default());
    let mut txs = sidechains
        .into_iter()
        .map(|config| McTransaction::SidechainDeclaration(Box::new(config)))
        .collect();
    for time in 1..=height {
        chain
            .mine_next_block(miner.address(), std::mem::take(&mut txs), time)
            .unwrap();
    }
    (chain, miner)
}

// ---------------------------------------------------------------- E1

/// `public[0] = H(H(…H(w)…))`, `n` deep: a statement whose size is a
/// parameter.
struct HashChain {
    n: u64,
}

impl HashChain {
    fn output(&self, w: Fp) -> Fp {
        (0..self.n).fold(w, |acc, _| poseidon::hash2(&acc, &acc))
    }
}

impl Circuit for HashChain {
    type Witness = Fp;

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged("claims/hash-chain", &[&self.n.to_be_bytes()])
    }

    fn check(&self, public: &PublicInputs, w: &Fp) -> Result<(), Unsatisfied> {
        if public.get(0) == Some(self.output(*w)) {
            Ok(())
        } else {
            Err(Unsatisfied::new("chain", "hash chain mismatch"))
        }
    }
}

/// Def 2.3 (succinctness): the prover's work grows with the statement —
/// measured and in the constraint model alike — while the proof stays
/// `Proof::SIZE` bytes and the verifier's work does not move.
#[test]
fn e1_proving_grows_with_the_statement_verifying_does_not() {
    let witness = Fp::from_u64(7);
    let mut verifications = Vec::new();
    for n in [10u64, 100, 1_000, 10_000] {
        let circuit = HashChain { n };
        let (pk, vk) = setup_deterministic(&circuit, b"claims");
        let mut public = PublicInputs::new();
        public.push_fp(circuit.output(witness));

        let (proof, proving) = measure(|| prove(&pk, &circuit, &public, &witness).unwrap());
        assert_eq!(proving.permutations, n, "the prover evaluates the chain");
        assert_eq!(proving.group_muls, 1, "and attests once");
        assert_eq!(
            constraint_cost(&circuit, &public, &witness),
            Ok(n * gadget_cost::POSEIDON_HASH2),
            "the model prices the permutations the check runs"
        );

        assert_eq!(proof.to_bytes().len(), Proof::SIZE);
        let (ok, verifying) = measure(|| verify(&vk, &public, &proof));
        assert!(ok);
        verifications.push(verifying);
    }
    assert_eq!(verifications[0].group_muls, 1);
    assert_eq!(verifications[0].permutations, 0);
    assert!(
        verifications.iter().all(|v| *v == verifications[0]),
        "verification moved with the statement: {verifications:?}"
    );
}

// ------------------------------------------------------------- E1/E3

/// One mainchain and one real Latus sidechain on it (recursive epoch
/// proofs, certificates accepted by the mainchain's own verifier).
struct TwoChains {
    chain: Blockchain,
    node: LatusNode,
    config: SidechainConfig,
    wallet: Wallet,
    user: Keypair,
    sid: SidechainId,
}

const EPOCH_LEN: u32 = 4;

impl TwoChains {
    fn new() -> Self {
        let wallet = Wallet::from_seed(b"claims-miner");
        let sid = SidechainId::from_label("claims-latus");
        let params = LatusParams::new(sid, 40);
        let schedule = EpochSchedule::new(2, EPOCH_LEN, 2).unwrap();
        let keys = Arc::new(LatusKeys::generate(params, schedule, b"claims"));
        let config = keys.sidechain_config(&params, schedule);
        let mut chain = Blockchain::new(ChainParams {
            genesis_outputs: vec![TxOut::regular(
                wallet.address(),
                Amount::from_units(1_000_000),
            )],
            ..ChainParams::default()
        });
        chain
            .mine_next_block(
                wallet.address(),
                vec![McTransaction::SidechainDeclaration(Box::new(
                    config.clone(),
                ))],
                1,
            )
            .unwrap();
        let forger = Keypair::from_seed(b"claims-forger");
        let node = LatusNode::new(
            params,
            schedule,
            ConsensusParams::with_bootstrap(forger.public),
            keys,
            forger,
            chain.tip_hash(),
        );
        TwoChains {
            chain,
            node,
            config,
            wallet,
            user: Keypair::from_seed(b"claims-user"),
            sid,
        }
    }

    fn user_address(&self) -> Address {
        Address::from_public_key(&self.user.public)
    }

    /// Mines one MC block with `txs` and syncs the node to it.
    fn step(&mut self, txs: Vec<McTransaction>) {
        let time = self.chain.height() + 1;
        let block = self
            .chain
            .mine_next_block(self.wallet.address(), txs, time)
            .unwrap();
        self.node
            .sync_mainchain_block(&block, &Blockchain::build_commitment(&block.transactions))
            .unwrap();
    }

    /// Runs the node's open epoch to its end and certifies it.
    fn close_epoch(&mut self) -> WithdrawalCertificate {
        while !self.node.epoch_complete() {
            self.step(vec![]);
        }
        self.node.produce_certificate().unwrap()
    }

    /// What `verify_certificate` costs the mainchain for the certificate
    /// of `epoch` (hashing its own view of the boundary blocks in).
    fn mainchain_verification(&self, cert: &WithdrawalCertificate) -> OpCount {
        let first = 2 + u64::from(EPOCH_LEN) * u64::from(cert.epoch_id);
        let prev_end = self.chain.hash_at_height(first - 1).unwrap();
        let epoch_end = self
            .chain
            .hash_at_height(first + u64::from(EPOCH_LEN) - 1)
            .unwrap();
        cost_of(|| {
            verify_certificate(
                &self.config,
                cert,
                None,
                prev_end,
                epoch_end,
                ProofCheck::run,
            )
            .unwrap()
        })
    }
}

/// §4.1.2, the central "decoupled" claim: the mainchain's cost for a
/// certificate does not depend on what the sidechain did in the epoch.
/// Two real Latus epochs — one payment, then `PAYMENTS` — close with
/// certificates of the same size that cost `verify_certificate` the same
/// operations: one proof check and fixed hashing. The sidechain's side
/// of the bargain is in the model, read off the certificate statement
/// these two epochs prove (`zendoo-latus`
/// `node::tests::a_certificate_statement_is_one_proof_check_and_a_fold_per_touched_slot`):
/// it still holds exactly one in-circuit proof check and grows only by
/// one permutation per MST slot the epoch touched.
#[test]
fn e1_e3_the_mainchain_pays_the_same_for_one_payment_or_hundreds() {
    const PAYMENTS: usize = 200;
    let mut h = TwoChains::new();
    let me = h.user_address();

    // Epoch 0: a forward transfer, then one payment (splitting it).
    let meta = ReceiverMetadata {
        receiver: me,
        payback: h.wallet.address(),
    };
    let ft = h
        .wallet
        .forward_transfer(
            &h.chain,
            h.sid,
            meta.to_bytes(),
            Amount::from_units(PAYMENTS as u64),
            Amount::ZERO,
        )
        .unwrap();
    h.step(vec![ft]);
    let funded = h.node.utxos_of(&me)[0];
    let split = PaymentTx::create(
        vec![(funded, &h.user.secret)],
        vec![(me, Amount::from_units(1)); PAYMENTS],
    );
    h.node
        .submit_transaction(ScTransaction::Payment(split))
        .unwrap();
    let small = h.close_epoch();

    // Epoch 1: every one of those outputs is spent in its own payment.
    let coins = h.node.utxos_of(&me);
    assert_eq!(coins.len(), PAYMENTS);
    for coin in coins {
        let pay = PaymentTx::create(vec![(coin, &h.user.secret)], vec![(me, coin.amount)]);
        h.node
            .submit_transaction(ScTransaction::Payment(pay))
            .unwrap();
    }
    h.step(vec![posted(small.clone())]);
    let large = h.close_epoch();
    h.step(vec![posted(large.clone())]);
    let accepted = &h.chain.state().registry.get(&h.sid).unwrap().certificates;
    assert_eq!(accepted.len(), 2, "the mainchain accepted both");
    let payments: Vec<usize> = h.node.chain()[..2 * EPOCH_LEN as usize]
        .chunks(EPOCH_LEN as usize)
        .map(|epoch| epoch.iter().map(|block| block.transactions.len()).sum())
        .collect();
    assert_eq!(payments, [1, PAYMENTS]);

    // The mainchain cannot tell them apart by cost.
    assert_eq!(small.bt_list, large.bt_list);
    assert_eq!(small.encoded().len(), large.encoded().len());
    assert_eq!(small.proof.to_bytes().len(), Proof::SIZE);
    let (small_cost, large_cost) = (
        h.mainchain_verification(&small),
        h.mainchain_verification(&large),
    );
    assert_eq!(small_cost, large_cost);
    assert_eq!(small_cost.group_muls, 1, "one proof check");
    assert_eq!(small_cost.permutations, 0);
}

// ---------------------------------------------------------------- E3

fn bt_list(n: usize, salt: u64) -> Vec<BackwardTransfer> {
    (0..n as u64)
        .map(|i| BackwardTransfer {
            receiver: Address::from_label(&format!("receiver-{salt}-{i}")),
            amount: Amount::from_units(salt + i + 1),
        })
        .collect()
}

/// §4.1.2: what a certificate costs the mainchain is one constant proof
/// check plus hashing `MH(BTList)` — linear in the backward transfers it
/// must pay out anyway and in nothing else. The certifier-committee
/// baseline (the authors' earlier design) redoes the same hashing and
/// then pays one signature check per endorsement, so the SNARK path wins
/// for every committee larger than one — unless the committee signs
/// inside a circuit, where `m` checks are the *prover's* cost.
#[test]
fn e3_a_certificate_is_one_check_plus_hashing_linear_in_the_bt_list() {
    let sid = SidechainId::from_label("claims-e3");
    let config = config_for(sid, b"e3");
    let prev_end = Digest32::hash_bytes(b"prev-end");
    let epoch_end = Digest32::hash_bytes(b"epoch-end");
    let verification = |quality: u64, bts: Vec<BackwardTransfer>| {
        let cert = proven(certificate(sid, quality, bts), b"e3", (prev_end, epoch_end));
        cost_of(|| {
            verify_certificate(&config, &cert, None, prev_end, epoch_end, ProofCheck::run).unwrap()
        })
    };

    let sizes = [0usize, 16, 64, 256];
    let costs = sizes.map(|n| verification(1, bt_list(n, 0)));
    for (n, cost) in sizes.iter().zip(&costs) {
        assert_eq!(cost.group_muls, 1, "{n} BTs: one proof check");
        assert_eq!(cost.permutations, 0);
        // |BTList| alone: other receivers, amounts and quality, same cost.
        assert_eq!(*cost, verification(9, bt_list(*n, 1_000)), "{n} BTs");
    }
    // Exactly linear over full Merkle layers: a leaf and a node per BT.
    let per_bt = (costs[2].sha_blocks - costs[1].sha_blocks) / 48;
    assert!(per_bt > 0);
    assert_eq!(costs[3].sha_blocks - costs[2].sha_blocks, 192 * per_bt);
    for (n, cost) in sizes.iter().zip(&costs) {
        assert!(cost.sha_blocks <= per_bt * *n as u64 + costs[0].sha_blocks);
    }

    // The committee baseline over the same 64-BT certificate.
    let cert = certificate(sid, 1, bt_list(64, 0));
    let statement = || {
        let sysdata = WcertSysData::for_certificate(&cert, prev_end, epoch_end);
        wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root())
    };
    for (n, m) in [(5usize, 3usize), (11, 7), (25, 17), (51, 34)] {
        let keys: Vec<Keypair> = (0..n)
            .map(|i| Keypair::from_seed(format!("certifier-{i}").as_bytes()))
            .collect();
        let committee = CertifierCommittee::new(keys.iter().map(|k| k.public).collect(), m);
        let endorsements: Vec<Endorsement> = (0..m)
            .map(|i| committee.endorse(i, &keys[i].secret, &statement()))
            .collect();
        let native = cost_of(|| assert!(committee.verify_native(&statement(), &endorsements)));
        assert_eq!(native.group_muls, m as u64, "{m}-of-{n}");
        assert!(
            native.sha_blocks > costs[2].sha_blocks,
            "and saves no hashing"
        );

        // The same committee behind a SNARK: m checks in the statement,
        // one on the mainchain.
        let circuit = CertifierCircuit::new(committee);
        assert_eq!(
            constraint_cost(&circuit, &statement(), &endorsements),
            Ok(m as u64 * gadget_cost::SCHNORR_VERIFY)
        );
        let (pk, vk) = setup_deterministic(&circuit, b"e3");
        let proof = prove(&pk, &circuit, &statement(), &endorsements).unwrap();
        let snark = cost_of(|| assert!(verify(&vk, &statement(), &proof)));
        assert_eq!(snark.group_muls, 1, "{m}-of-{n} behind a SNARK");
    }
}

// ---------------------------------------------------------------- E2

/// A counter state-transition system (the minimal Def 2.4 instance).
#[derive(Debug)]
struct Counter;

fn counter_digest(v: u64) -> Fp {
    poseidon::hash_many(&[Fp::from_u64(v)])
}

impl TransitionVerifier for Counter {
    /// The pre-state's counter value.
    type Witness = u64;

    fn id(&self) -> Digest32 {
        Digest32::hash_bytes(b"claims/counter")
    }

    fn verify_transition(&self, from: &Fp, to: &Fp, old: &u64) -> Result<(), Unsatisfied> {
        if *from == counter_digest(*old) && *to == counter_digest(old + 1) {
            Ok(())
        } else {
            Err(Unsatisfied::new("counter", "bad step"))
        }
    }
}

fn counter_chain(n: u64) -> (Vec<Fp>, Vec<u64>) {
    ((0..=n).map(counter_digest).collect(), (0..n).collect())
}

/// Def 2.5, Figs 10–11: folding `n` transitions is `n` Base and `n − 1`
/// Merge attestations, and the `2(n − 1)` child proofs the merges check
/// in-circuit — a Merge being two proof checks and one attestation
/// whatever its children fold — are checked one tree layer at a time:
/// one batch evaluation per merge layer, ⌈log₂ n⌉ in all. The folded
/// proof verifies like a single one.
#[test]
fn e2_a_chain_of_n_is_n_base_and_n_minus_one_merge_proofs() {
    let system = RecursiveSystem::new_deterministic(Counter, b"claims");
    let (states, _) = counter_chain(4);
    let step = |i: usize| {
        system
            .prove_base(states[i], states[i + 1], &(i as u64))
            .unwrap()
    };
    let base = cost_of(|| step(0));
    assert_eq!((base.group_muls, base.proof_checks), (1, 0));
    let leaves: Vec<_> = (0..4).map(step).collect();
    let merge = cost_of(|| system.merge(&leaves[0], &leaves[1]).unwrap());
    assert_eq!(
        (merge.group_muls, merge.proof_checks),
        (3, 2),
        "alone, two child checks and one attestation"
    );
    let halves = [
        system.merge(&leaves[0], &leaves[1]).unwrap(),
        system.merge(&leaves[2], &leaves[3]).unwrap(),
    ];
    assert_eq!(
        cost_of(|| system.merge(&halves[0], &halves[1]).unwrap()),
        merge,
        "merging merges costs what merging leaves does"
    );

    let single = cost_of(|| assert!(system.verify(&leaves[0])));
    assert_eq!(single.group_muls, 1);
    for n in [1u64, 4, 16, 64, 256] {
        let (states, witnesses) = counter_chain(n);
        let (folded, proving) = measure(|| system.prove_chain(&states, &witnesses).unwrap());
        let merge_layers = u64::from(n.next_power_of_two().trailing_zeros());
        assert_eq!(
            proving.group_muls,
            n + (n - 1) + merge_layers,
            "{n} transitions: the attestations and one evaluation a merge layer"
        );
        assert_eq!(proving.proof_checks, 2 * (n - 1), "{n} transitions");
        assert_eq!(
            proving.permutations,
            base.permutations * n,
            "{n} transitions"
        );
        let verifying = cost_of(|| assert!(system.verify(&folded)));
        assert_eq!(verifying, single, "{n} transitions verify like one");
    }
}

// ----------------------------------------------- transfer signatures

/// The signature checks of a block of `n` one-input transfers under
/// distinct keys, as a validator queues them.
fn transfer_signatures(n: u64) -> Vec<SigCheck> {
    (0..n)
        .map(|i| {
            let owner = Keypair::from_seed(&i.to_le_bytes());
            let spent = OutPoint {
                txid: Digest32::hash_bytes(&i.to_le_bytes()),
                index: 0,
            };
            let paid = TxOut::regular(Address::from_label("claims-payee"), Amount::from_units(i));
            let tx = TransferTx::signed(&[(spent, &owner.secret)], vec![Output::Regular(paid)]);
            SigCheck {
                txid: McTransaction::Transfer(tx.clone()).txid(),
                input: 0,
                sighash: tx.sighash(),
                tx_in: tx.inputs[0].clone(),
            }
        })
        .collect()
}

/// §4.1.2 leaves a validator one cost linear in traffic: the signatures
/// of the block's plain transfers. Checked one by one that is `n`
/// multi-scalar evaluations; checked as the batch a validator runs
/// (`verify_sig_batch`, one lane) it is **one**, whatever `n` — one
/// shared chain of doublings — and what stays per signature is hashing:
/// its challenge, its share of the transcript, its coefficient.
#[test]
fn a_blocks_transfer_signatures_are_one_evaluation_for_any_number_of_transfers() {
    let sizes = [2u64, 32, 256];
    let mut hashing = Vec::new();
    for n in sizes {
        let checks = transfer_signatures(n);
        let one_by_one = cost_of(|| assert!(checks.iter().all(SigCheck::verify)));
        assert_eq!(one_by_one.group_muls, n, "{n} signatures, one by one");
        let batched = cost_of(|| assert_eq!(verify_sig_batch(&checks, 1), vec![true; n as usize]));
        assert_eq!(batched.group_muls, 1, "{n} signatures, one equation");
        assert_eq!(batched.permutations, 0);
        assert!(batched.sha_blocks > one_by_one.sha_blocks);
        hashing.push(batched.sha_blocks);
    }
    // 30 more signatures cost 30 more shares of hashing, and so do 224 —
    // to within the block by which a stream's padding rounds either gap.
    let gaps = (
        (hashing[1] - hashing[0]) * (sizes[2] - sizes[1]),
        (hashing[2] - hashing[1]) * (sizes[1] - sizes[0]),
    );
    assert!(
        gaps.0.abs_diff(gaps.1) <= sizes[2] - sizes[0],
        "hashing is not linear: {hashing:?}"
    );
}

// ---------------------------------------------------------------- E4

/// §4.1.3, Figs 4/12: the proofs a sidechain node checks per mainchain
/// block — its data is in the `SCTxsCommitment` (`mproof`), or it has
/// none (`proofOfNoData`, two neighbouring leaves) — are one Merkle path
/// over the sidechains with data in the block: ⌈log₂(n + 2)⌉ node
/// hashes beside `n` sidechains (two sentinel leaves bound the id
/// space), twice that for absence.
#[test]
fn e4_commitment_proofs_are_logarithmic_in_the_sidechains() {
    let id = |i: usize| SidechainId::from_label(&format!("claims-sc-{i}"));
    let node = cost_of(|| Sha256Hasher::combine(&[1; 32], &[2; 32]));
    let some_id = id(0);
    let neighbour = cost_of(|| sc_leaf_hash(&some_id, &Digest32::ZERO, &Digest32::ZERO));
    let own = neighbour + cost_of(|| txs_hash(&Digest32::ZERO, &Digest32::ZERO));
    for n in [1usize, 8, 32, 64] {
        let mut builder = ScTxsCommitmentBuilder::new();
        for i in 0..n {
            builder.add_forward_transfer(ForwardTransfer {
                sidechain_id: id(i),
                receiver_metadata: vec![i as u8; 64],
                amount: Amount::from_units(i as u64 + 1),
            });
        }
        let commitment = builder.build();
        let root = commitment.root();
        let levels = u64::from((n + 2).next_power_of_two().ilog2());

        let membership = commitment.membership_proof(&id(n / 2)).unwrap();
        let (ok, cost) = measure(|| membership.verify(&root));
        assert!(ok);
        assert_eq!(cost, own + node * levels, "membership beside {n}");

        let absent = SidechainId::from_label("claims-not-registered");
        let absence = commitment.absence_proof(&absent).unwrap();
        let (ok, cost) = measure(|| absence.verify(&root));
        assert!(ok);
        assert_eq!(cost, (neighbour + node * levels) * 2, "absence beside {n}");
    }
}

// ---------------------------------------------------------------- E5

/// A forward-transfers transaction carrying `transfers` (to one
/// sidechain), bound to a mainchain header made up for them (the binding
/// is checked like any other).
fn forward_transfers_tx(transfers: Vec<ForwardTransfer>) -> ScTransaction {
    let mut builder = ScTxsCommitmentBuilder::new();
    for ft in &transfers {
        builder.add_forward_transfer(ft.clone());
    }
    let commitment = builder.build();
    let header = BlockHeader {
        parent: Digest32::ZERO,
        height: 0,
        time: 0,
        tx_root: Digest32::ZERO,
        sc_txs_commitment: commitment.root(),
        target: Target::EASIEST,
        nonce: 0,
    };
    let evidence = McRefEvidence::Membership(
        commitment
            .membership_proof(&transfers[0].sidechain_id)
            .expect("the transfers' own sidechain has data"),
    );
    ScTransaction::ForwardTransfers(ForwardTransfersTx {
        mc_block: header.hash(),
        transfers,
        binding: McRefBinding { header, evidence },
    })
}

const E5_UTXOS: u64 = 1 << 10;
const E5_TRANSFERS: u64 = 64;

/// What E5's 64 transfers cost one transaction each, `(applying,
/// proving)` permutations at depth 40 and 63.
const E5_ONE_BY_ONE: [(u64, u64); 2] = [(1107, 2041), (1119, 2053)];

/// E5's sidechain at `depth`: 2¹⁰ UTXOs held, and its transition
/// verifier.
fn e5_sidechain(depth: u32) -> (LatusParams, LatusTransitionVerifier, SidechainState) {
    let params = LatusParams::new(SidechainId::from_label("claims-e5"), depth);
    let mut state = SidechainState::new(depth);
    for i in 0..E5_UTXOS {
        state
            .mst_mut()
            .add(&Utxo {
                address: Address::from_label(&format!("holder-{}", i % 16)),
                amount: Amount::from_units(i + 1),
                nonce: Digest32::hash_bytes(&i.to_be_bytes()),
            })
            .unwrap();
    }
    (params, LatusTransitionVerifier::new(params), state)
}

/// E5's `i`-th forward transfer into `params`' sidechain.
fn e5_transfer(params: &LatusParams, i: u64) -> ForwardTransfer {
    let meta = ReceiverMetadata {
        receiver: Address::from_label(&format!("newcomer-{i}")),
        payback: Address::from_label("mc-refund"),
    };
    ForwardTransfer {
        sidechain_id: params.sidechain_id,
        receiver_metadata: meta.to_bytes(),
        amount: Amount::from_units(5),
    }
}

/// §5.2, Fig 9, at the level a user sees: crediting one forward transfer
/// into a sidechain holding 2¹⁰ UTXOs costs about log₂ n permutations to
/// apply — the new leaf, the levels it shares with a neighbour, and the
/// state's accumulators — and about twice that to prove (the Base
/// statement replays the old root and the new one from the witness).
/// None of it is `mst_depth`: depth 40 and depth 63 (where slot
/// collisions stop mattering) cost the same to within a permutation a
/// transfer; the slots are different bits of one hash, so the two trees
/// differ in shape and not in size. The tree-level twin is
/// `smt::tests::a_write_costs_log_occupancy_not_depth`.
#[test]
fn e5_a_forward_transfer_costs_log_occupancy_at_any_depth() {
    let log_n = u64::from(E5_UTXOS.ilog2());
    let mut totals = Vec::new();
    for depth in [40u32, 63] {
        let (params, verifier, mut state) = e5_sidechain(depth);
        let (mut applying, mut proving) = (0, 0);
        for i in 0..E5_TRANSFERS {
            let tx = forward_transfers_tx(vec![e5_transfer(&params, i)]);
            let (from, held) = (state.digest(), state.mst().len());
            let (witness, apply) = measure(|| apply_transaction(&params, &mut state, &tx).unwrap());
            assert_eq!(state.mst().len(), held + 1, "credited, not refunded");
            let to = state.digest();
            let (_, prove) = measure(|| verifier.verify_transition(&from, &to, &witness).unwrap());
            // Random slots part within ~2 log₂ n bits: no single
            // transfer is far from the mean either.
            assert!(apply.permutations <= 2 * log_n + 8, "{apply:?}");
            assert!(prove.permutations <= 2 * apply.permutations + 8);
            applying += apply.permutations;
            proving += prove.permutations;
        }
        assert!(
            applying <= E5_TRANSFERS * (log_n + 8),
            "depth {depth}: {applying}"
        );
        totals.push((applying, proving));
    }
    // ARCHITECTURE.md, "Cost of the hash path": ≈ 17 to apply, ≈ 32 to
    // prove, at either depth.
    assert_eq!(totals, E5_ONE_BY_ONE);
}

/// §5.3.2: a mainchain block's forward transfers reach the sidechain as
/// one synchronized transaction, and the MST takes them as one write.
/// The same 64 transfers as above, arriving in one block, hash each tree
/// node their walks share once — in the forger's `insert_many` and in
/// the Base statement's replay of one opening — instead of once per
/// transfer below it. The tree-level twin is
/// `smt::tests::a_batch_hashes_each_touched_node_once`.
#[test]
fn e5_a_block_of_forward_transfers_is_one_tree_write() {
    let mut totals = Vec::new();
    for depth in [40u32, 63] {
        let (params, verifier, mut state) = e5_sidechain(depth);
        let transfers = (0..E5_TRANSFERS).map(|i| e5_transfer(&params, i));
        let tx = forward_transfers_tx(transfers.collect());
        let from = state.digest();
        let (witness, apply) = measure(|| apply_transaction(&params, &mut state, &tx).unwrap());
        assert_eq!(state.mst().len() as u64, E5_UTXOS + E5_TRANSFERS);
        let to = state.digest();
        let (_, prove) = measure(|| verifier.verify_transition(&from, &to, &witness).unwrap());
        totals.push((apply.permutations, prove.permutations));
    }
    // ≈ 9.6 a transfer to apply and ≈ 14.3 to prove, against ≈ 17
    // and ≈ 32 one transaction each: the per-transaction digests and
    // folds are paid once too.
    assert_eq!(totals, [(615, 918), (607, 909)]);
    for ((apply, prove), (one_by_one_apply, one_by_one_prove)) in totals.iter().zip(E5_ONE_BY_ONE) {
        assert!(*apply < one_by_one_apply && *prove < one_by_one_prove);
    }
}

// ---------------------------------------------------------------- E7

/// §5.1: a stakeholder's slot lottery is one private VRF evaluation,
/// whatever the size of the stake distribution it is weighed against.
/// (That the winners track stake is `consensus::tests::
/// leadership_frequency_tracks_stake`.)
#[test]
fn e7_the_lottery_is_one_vrf_evaluation_a_slot() {
    let params = ConsensusParams::default();
    let staker = Keypair::from_seed(b"claims-staker");
    let message = b"claims/any-slot-message-of-forty-bytes..";
    let evaluation = cost_of(|| zendoo::primitives::vrf::prove(&staker.secret, message));
    let mut costs = Vec::new();
    for others in [1u64, 100, 10_000] {
        let distribution = StakeDistribution::from_entries(
            (0..others)
                .map(|i| (Address::from_label(&format!("holder-{i}")), 60))
                .chain([(Address::from_public_key(&staker.public), 40 * others)])
                .map(|(address, units)| (address, Amount::from_units(units))),
        );
        assert_eq!(distribution.len() as u64, others + 1);
        costs.push(cost_of(|| {
            try_lead_slot(&params, &distribution, &staker.secret, 7)
        }));
    }
    assert!(costs.iter().all(|cost| *cost == costs[0]), "{costs:?}");
    assert_eq!(costs[0].group_muls, evaluation.group_muls);
}

// ----------------------------------------------------------- routing

fn source_chain() -> SidechainId {
    SidechainId::from_label("claims-source")
}

/// A certificate of the source chain declaring `n` cross-chain
/// transfers, each paired with its escrow backward transfer.
fn certificate_declaring(n: usize) -> WithdrawalCertificate {
    let declared: Vec<CrossChainTransfer> = (0..n as u64)
        .map(|i| {
            CrossChainTransfer::new(
                source_chain(),
                SidechainId::from_label("claims-dest"),
                Address::from_label(&format!("recv-{i}")),
                Amount::from_units(100 + i),
                i,
                Address::from_label(&format!("payback-{i}")),
            )
        })
        .collect();
    let escrows = declared
        .iter()
        .map(|xct| BackwardTransfer {
            receiver: escrow_address(),
            amount: xct.amount,
        })
        .collect();
    WithdrawalCertificate {
        proofdata: ProofData(vec![ProofDataElem::Bytes(encode_xct_list(&declared))]),
        ..certificate(source_chain(), 1, escrows)
    }
}

/// A chain whose source sidechain, active from `start`, holds the
/// matured epoch-0 `cert`: its escrows are live at the tip. The
/// destination is never registered, so settling them is a refund.
fn chain_with_matured(start: u64, cert: WithdrawalCertificate) -> Blockchain {
    let (_, vk) = setup_deterministic(&AcceptAll, b"routing");
    let config = SidechainConfigBuilder::new(source_chain(), vk)
        .start_block(start)
        .epoch_len(6)
        .submit_len(2)
        .wcert_proofdata(ProofDataSchema(vec![ProofDataType::Bytes]))
        .build()
        .unwrap();
    let schedule = config.schedule;
    let (mut chain, miner) = mined(vec![config], 1);
    let deposit = miner
        .forward_transfer(
            &chain,
            source_chain(),
            vec![],
            Amount::from_units(45_000),
            Amount::ZERO,
        )
        .unwrap();
    let mut txs = vec![deposit];
    while chain.height() < schedule.ceasing_height(0) {
        let height = chain.height() + 1;
        if height == schedule.epoch_first_height(1) {
            let ends = (
                chain.hash_at_height(start - 1).unwrap(),
                chain.hash_at_height(schedule.epoch_last_height(0)).unwrap(),
            );
            txs.push(posted(proven(cert.clone(), b"routing", ends)));
        }
        chain
            .mine_next_block(miner.address(), std::mem::take(&mut txs), height)
            .unwrap();
    }
    chain
}

/// What routing costs the mainchain is linear in the transfers a
/// certificate declares and the same at any chain length: validating
/// the declaration at acceptance, and assembling the settlement of the
/// escrows it matured (nothing for a certificate that declares none).
#[test]
fn routing_is_linear_in_declared_transfers_and_blind_to_chain_length() {
    let validating = |n: usize| {
        let cert = certificate_declaring(n);
        cost_of(|| assert_eq!(validate_declarations(&cert).unwrap().len(), n))
    };
    let settling = |start: u64, n: usize| {
        let chain = chain_with_matured(start, certificate_declaring(n));
        assert_eq!(chain.state().utxos.escrows().count(), n);
        cost_of(|| settlement_transactions(&chain))
    };
    assert_eq!(validating(0), OpCount::default());
    assert_eq!(settling(2, 0), OpCount::default());
    let per_transfer = validating(1);
    assert!(per_transfer.sha_blocks > 0);
    assert_eq!(per_transfer.group_muls + per_transfer.permutations, 0);
    assert_eq!(validating(8), per_transfer * 8);
    assert_eq!(validating(64), per_transfer * 64);
    // Settling signs one filler input per escrow and hashes the claim
    // once, as one stream: whole blocks every 64 escrows, so linear in
    // steps of 64.
    let (one, sixty_four) = (settling(2, 1), settling(2, 64));
    assert_eq!(sixty_four.group_muls, 64 * one.group_muls);
    assert_eq!(sixty_four.permutations, 0);
    assert_eq!(
        settling(2, 192) - settling(2, 128),
        settling(2, 128) - sixty_four
    );
    assert_eq!(settling(200, 64), sixty_four);
}
