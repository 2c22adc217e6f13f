//! The Latus transactional model (paper §5.3): payments, backward
//! transfers, synchronized forward transfers and synchronized backward
//! transfer requests — plus their `update` semantics over the sidechain
//! state and the transition witnesses consumed by the state-transition
//! circuits (§5.4).
//!
//! Application is atomic: every rule is checked on a *plan* before any
//! mutation happens, then the plan executes. The plan doubles as the
//! base-proof witness: a sequence of single-leaf MST updates, each
//! carrying the Merkle path valid at its point in the sequence — exactly
//! the form a real circuit would witness.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use zendoo_core::ids::{Address, Amount};
use zendoo_core::transfer::{BackwardTransfer, ForwardTransfer};
use zendoo_core::withdrawal::BackwardTransferRequest;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Encode};
use zendoo_primitives::field::Fp;
use zendoo_primitives::schnorr::{PublicKey, SecretKey, Signature};
use zendoo_primitives::smt::{NodeOpening, SmtProof, WitnessError};

use crate::mst::{mst_position, Utxo};
use crate::state::SidechainState;

/// Signature context for sidechain transactions.
pub(crate) const SC_SIGHASH_CONTEXT: &str = "zendoo/sc-sighash-v1";

/// Why a [`LeafUpdate`] does not apply to a root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The path authenticates against another root than the running one.
    StaleRoot,
    /// The witness itself does not compute.
    Witness(WitnessError),
}

/// One single-leaf MST mutation with its authentication path.
///
/// `path` is valid against the tree root *before* this update and says
/// what the slot held; applying the update writes `new_leaf` there and
/// yields the next root. `None` denotes the empty slot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeafUpdate {
    /// Merkle path (and position) of the touched slot.
    pub path: SmtProof,
    /// Leaf after (`None` = empty).
    pub new_leaf: Option<Fp>,
    /// A removal's deepest path sibling, opened as the leaf or interior
    /// node it is: it decides whether that sibling floats up, so the
    /// post-root is the canonical one (`None` for insertions and for the
    /// tree's last leaf).
    pub sibling: Option<NodeOpening>,
}

impl LeafUpdate {
    /// The touched position.
    pub fn position(&self) -> u64 {
        self.path.index()
    }

    /// Leaf before (`None` = empty), as the path witnesses it.
    pub fn old_leaf(&self) -> Option<Fp> {
        self.path.value()
    }

    /// Verifies the pre-image against `root` and returns the post-root,
    /// both recomputed from the witness alone.
    ///
    /// # Errors
    ///
    /// [`UpdateError`] if the path does not authenticate under `root` or
    /// the witness is not a well-formed insertion or removal.
    pub fn apply_to_root(&self, root: &Fp) -> Result<Fp, UpdateError> {
        let (before, after) = self
            .path
            .roots_of_update(self.new_leaf.as_ref(), self.sibling.as_ref())
            .map_err(UpdateError::Witness)?;
        if before == *root {
            Ok(after)
        } else {
            Err(UpdateError::StaleRoot)
        }
    }
}

/// A signed transaction input.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedInput {
    /// The spent UTXO (full payload; the circuit checks membership).
    pub utxo: Utxo,
    /// The owner's public key (its hash must equal `utxo.address`).
    pub pubkey: PublicKey,
    /// Schnorr signature over the transaction sighash.
    pub signature: Signature,
}

impl SignedInput {
    /// Verifies ownership and signature for `sighash`.
    pub fn verify(&self, sighash: &Digest32) -> bool {
        self.owns_utxo()
            && self
                .pubkey
                .verify(SC_SIGHASH_CONTEXT, sighash.as_bytes(), &self.signature)
    }

    /// The ownership half of [`SignedInput::verify`]: the spent UTXO's
    /// address is the hash of the signing key.
    pub fn owns_utxo(&self) -> bool {
        Address::from_public_key(&self.pubkey) == self.utxo.address
    }
}

impl Encode for SignedInput {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.utxo.encode_into(out);
        self.pubkey.to_bytes().encode_into(out);
        self.signature.to_bytes().encode_into(out);
    }
}

/// Signs `sighash` once per input. The sighash covers only the spent
/// UTXOs and what they are spent into, so it is known before any
/// signature exists.
fn sign_inputs(inputs: &[(Utxo, &SecretKey)], sighash: &Digest32) -> Vec<SignedInput> {
    inputs
        .iter()
        .map(|(utxo, sk)| SignedInput {
            utxo: *utxo,
            pubkey: sk.public_key(),
            signature: sk.sign(SC_SIGHASH_CONTEXT, sighash.as_bytes()),
        })
        .collect()
}

fn payment_sighash(spent: &[Utxo], outputs: &[Utxo]) -> Digest32 {
    digest("zendoo/sc-payment-sighash", &(spent, outputs))
}

fn bt_sighash(spent: &[Utxo], backward_transfers: &[BackwardTransfer]) -> Digest32 {
    digest("zendoo/sc-bt-sighash", &(spent, backward_transfers))
}

/// A regular multi-input multi-output payment (§5.3.1).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaymentTx {
    /// Spent UTXOs with authorization.
    pub inputs: Vec<SignedInput>,
    /// Created UTXOs.
    pub outputs: Vec<Utxo>,
}

impl PaymentTx {
    /// The message inputs sign: spent UTXOs + created outputs.
    pub fn sighash(&self) -> Digest32 {
        let spent: Vec<Utxo> = self.inputs.iter().map(|i| i.utxo).collect();
        payment_sighash(&spent, &self.outputs)
    }

    /// Builds and signs a payment. Output nonces are derived from the
    /// spent inputs, making them unique per transaction.
    pub fn create(
        inputs: Vec<(Utxo, &SecretKey)>,
        recipients: Vec<(Address, Amount)>,
    ) -> PaymentTx {
        let spent: Vec<Utxo> = inputs.iter().map(|(u, _)| *u).collect();
        let outputs = derive_outputs("zendoo/payment-out", &spent, &recipients);
        let sighash = payment_sighash(&spent, &outputs);
        PaymentTx {
            inputs: sign_inputs(&inputs, &sighash),
            outputs,
        }
    }
}

/// A backward-transfer transaction (§5.3.3): spends UTXOs and appends
/// backward transfers for the next certificate.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackwardTransferTx {
    /// Spent UTXOs with authorization.
    pub inputs: Vec<SignedInput>,
    /// Withdrawals to the mainchain.
    pub backward_transfers: Vec<BackwardTransfer>,
}

impl BackwardTransferTx {
    /// The message inputs sign.
    pub fn sighash(&self) -> Digest32 {
        let spent: Vec<Utxo> = self.inputs.iter().map(|i| i.utxo).collect();
        bt_sighash(&spent, &self.backward_transfers)
    }

    /// Builds and signs a backward-transfer transaction.
    pub fn create(
        inputs: Vec<(Utxo, &SecretKey)>,
        withdrawals: Vec<(Address, Amount)>,
    ) -> BackwardTransferTx {
        let spent: Vec<Utxo> = inputs.iter().map(|(u, _)| *u).collect();
        let backward_transfers: Vec<BackwardTransfer> = withdrawals
            .into_iter()
            .map(|(receiver, amount)| BackwardTransfer { receiver, amount })
            .collect();
        let sighash = bt_sighash(&spent, &backward_transfers);
        BackwardTransferTx {
            inputs: sign_inputs(&inputs, &sighash),
            backward_transfers,
        }
    }
}

/// Latus forward-transfer receiver metadata: 64 bytes —
/// `receiverAddr (32) ‖ paybackAddr (32)` (§5.3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceiverMetadata {
    /// The sidechain address to credit.
    pub receiver: Address,
    /// The mainchain address refunded if the transfer fails.
    pub payback: Address,
}

impl ReceiverMetadata {
    /// Serializes to the on-chain 64-byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(self.receiver.0.as_bytes());
        out.extend_from_slice(self.payback.0.as_bytes());
        out
    }

    /// Parses metadata; `None` marks the FT malformed (§5.3.2: the
    /// mainchain never validates metadata semantics).
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 64 {
            return None;
        }
        let mut receiver = [0u8; 32];
        let mut payback = [0u8; 32];
        receiver.copy_from_slice(&bytes[..32]);
        payback.copy_from_slice(&bytes[32..]);
        Some(ReceiverMetadata {
            receiver: Address(Digest32(receiver)),
            payback: Address(Digest32(payback)),
        })
    }
}

/// Evidence that a synchronized transaction carries *exactly* the
/// referenced MC block's data for this sidechain (§5.5.1: `mproof` /
/// `proofOfNoData`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum McRefEvidence {
    /// The block has data for this sidechain: a commitment-subtree
    /// membership proof.
    Membership(zendoo_core::commitment::ScMembershipProof),
    /// The block has no data for this sidechain: an absence proof; the
    /// carried lists must be empty.
    NoData(zendoo_core::commitment::ScAbsenceProof),
}

/// Binding of a synchronized transaction to a mainchain block: the MC
/// header plus commitment evidence. The base circuit verifies the header
/// hash and the evidence against `header.sc_txs_commitment`, so forgers
/// cannot fabricate, drop or reorder synchronized items.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct McRefBinding {
    /// The referenced MC block header.
    pub header: zendoo_mainchain::BlockHeader,
    /// Membership or absence evidence.
    pub evidence: McRefEvidence,
}

impl McRefBinding {
    /// Verifies that `fts` is exactly the referenced block's FT list for
    /// `sidechain_id`.
    pub fn verify_forward_transfers(
        &self,
        mc_block: &Digest32,
        sidechain_id: &zendoo_core::ids::SidechainId,
        fts: &[ForwardTransfer],
    ) -> bool {
        if self.header.hash() != *mc_block {
            return false;
        }
        let root = self.header.sc_txs_commitment;
        match &self.evidence {
            McRefEvidence::Membership(proof) => {
                proof.sidechain_id == *sidechain_id && proof.verify_forward_transfers(&root, fts)
            }
            McRefEvidence::NoData(proof) => {
                proof.target == *sidechain_id && fts.is_empty() && proof.verify(&root)
            }
        }
    }

    /// Verifies that `btrs` is exactly the referenced block's BTR list
    /// for `sidechain_id`.
    pub fn verify_backward_transfer_requests(
        &self,
        mc_block: &Digest32,
        sidechain_id: &zendoo_core::ids::SidechainId,
        btrs: &[BackwardTransferRequest],
    ) -> bool {
        if self.header.hash() != *mc_block {
            return false;
        }
        let root = self.header.sc_txs_commitment;
        match &self.evidence {
            McRefEvidence::Membership(proof) => {
                proof.sidechain_id == *sidechain_id
                    && proof.verify_backward_transfer_requests(&root, btrs)
            }
            McRefEvidence::NoData(proof) => {
                proof.target == *sidechain_id && btrs.is_empty() && proof.verify(&root)
            }
        }
    }
}

/// The synchronized forward-transfers transaction (§5.3.2): the
/// sidechain-side "receiving" half of MC→SC transfers, acting as a
/// mainchain-authorized coinbase.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardTransfersTx {
    /// Hash of the referenced MC block (`mcid`).
    pub mc_block: Digest32,
    /// The forward transfers of that block for this sidechain, in block
    /// order.
    pub transfers: Vec<ForwardTransfer>,
    /// Commitment evidence binding `transfers` to the MC block.
    pub binding: McRefBinding,
}

/// The synchronized backward-transfer-requests transaction (§5.3.4).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtrTx {
    /// Hash of the referenced MC block (`mcid`).
    pub mc_block: Digest32,
    /// The BTRs of that block for this sidechain, in block order.
    pub requests: Vec<BackwardTransferRequest>,
    /// Commitment evidence binding `requests` to the MC block.
    pub binding: McRefBinding,
}

/// Extracts the claimed UTXO from a Latus BTR's proofdata
/// (`proofdata = {utxo}`, §5.5.3.2 — element 0 is the encoded UTXO).
pub fn btr_claimed_utxo(btr: &BackwardTransferRequest) -> Option<Utxo> {
    match btr.proofdata.get(0)? {
        zendoo_core::proofdata::ProofDataElem::Bytes(bytes) => decode_utxo(bytes),
        _ => None,
    }
}

/// Canonical UTXO byte decoding (inverse of its `Encode` impl).
pub fn decode_utxo(bytes: &[u8]) -> Option<Utxo> {
    if bytes.len() != 32 + 8 + 32 {
        return None;
    }
    let mut address = [0u8; 32];
    address.copy_from_slice(&bytes[..32]);
    let mut amount = [0u8; 8];
    amount.copy_from_slice(&bytes[32..40]);
    let mut nonce = [0u8; 32];
    nonce.copy_from_slice(&bytes[40..]);
    Some(Utxo {
        address: Address(Digest32(address)),
        amount: Amount::from_units(u64::from_be_bytes(amount)),
        nonce: Digest32(nonce),
    })
}

/// A Latus transaction (§5.3's four logical types).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScTransaction {
    /// Regular payment.
    Payment(PaymentTx),
    /// Withdrawal initiation.
    BackwardTransfer(BackwardTransferTx),
    /// Synchronized MC→SC transfers.
    ForwardTransfers(ForwardTransfersTx),
    /// Synchronized mainchain-managed withdrawal requests.
    BackwardTransferRequests(BtrTx),
}

impl ScTransaction {
    /// The transaction id.
    pub fn txid(&self) -> Digest32 {
        match self {
            ScTransaction::Payment(tx) => {
                digest("zendoo/sc-tx-pay", &(tx.sighash(), tx.inputs.clone()))
            }
            ScTransaction::BackwardTransfer(tx) => {
                digest("zendoo/sc-tx-bt", &(tx.sighash(), tx.inputs.clone()))
            }
            ScTransaction::ForwardTransfers(tx) => {
                digest("zendoo/sc-tx-ft", &(tx.mc_block, tx.transfers.clone()))
            }
            ScTransaction::BackwardTransferRequests(tx) => {
                digest("zendoo/sc-tx-btr", &(tx.mc_block, tx.requests.clone()))
            }
        }
    }
}

/// One step of a synchronized-FT application (§5.3.2): each FT either
/// mints an output or fails into a rejection.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FtStep {
    /// The transfer minted a UTXO.
    Minted(LeafUpdate),
    /// `MST_Position` collided with an occupied slot; coins refunded via
    /// backward transfer. The proof shows the slot was occupied.
    RejectedCollision {
        /// Membership proof of whatever holds the contested slot.
        occupied: SmtProof,
    },
    /// An aggregated settlement forward transfer (batched cross-chain
    /// delivery): one sub-step per batch entry, in entry order.
    Settled(Vec<FtEntryStep>),
    /// Metadata unparseable; the full amount is refunded via backward
    /// transfer to the payback address derived by the total
    /// [`salvage_payback`] rule (never stranded in the registry
    /// balance).
    RejectedMalformed,
}

/// One entry of an aggregated settlement forward transfer: minted into
/// the entry receiver's slot, or refunded to the entry's payback
/// address on a slot collision.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FtEntryStep {
    /// The entry minted a UTXO for its receiver.
    Minted(LeafUpdate),
    /// The entry's deterministic slot was occupied; its coins refunded
    /// via backward transfer to the entry's payback address.
    RejectedCollision {
        /// Membership proof of whatever holds the contested slot.
        occupied: SmtProof,
    },
}

/// One step of a synchronized-BTR application (§5.3.4).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BtrStep {
    /// The claimed UTXO existed; it is spent and a BT appended.
    Fulfilled(LeafUpdate),
    /// The claimed UTXO was not in the state (double-spent or never
    /// existed); the path shows the slot empty or differently occupied.
    RejectedAbsent {
        /// Path at the claimed position.
        path: SmtProof,
    },
    /// The request's proofdata did not decode to a UTXO, or its fields
    /// disagreed with the request.
    RejectedMalformed,
}

/// The full witness of one state transition: everything the base circuit
/// needs to re-derive `s_{i+1}` from `s_i` (§5.4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitionWitness {
    /// The applied transaction.
    pub tx: ScTransaction,
    /// MST root before.
    pub pre_mst_root: Fp,
    /// Backward-transfer accumulator before.
    pub pre_bt_accumulator: Fp,
    /// Delta accumulator before.
    pub pre_delta_accumulator: Fp,
    /// Mainchain-sync accumulator before.
    pub pre_sync_accumulator: Fp,
    /// Ordered leaf updates (payments/BTs).
    pub updates: Vec<LeafUpdate>,
    /// Per-FT steps (only for `ForwardTransfers`).
    pub ft_steps: Vec<FtStep>,
    /// Per-BTR steps (only for `BackwardTransferRequests`).
    pub btr_steps: Vec<BtrStep>,
    /// Backward transfers appended by this transition, in order.
    pub appended_bts: Vec<BackwardTransfer>,
}

/// Transaction application failures (§5.3 rules).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxError {
    /// An input signature or ownership check failed.
    BadAuthorization {
        /// Index of the offending input.
        input: usize,
    },
    /// An input UTXO is not in the MST.
    UnknownInput(Digest32),
    /// The same UTXO is spent twice in one transaction.
    DuplicateInput(Digest32),
    /// Outputs (or withdrawals) exceed inputs.
    ValueImbalance {
        /// Total input value.
        input: Amount,
        /// Total output value.
        output: Amount,
    },
    /// An output's deterministic slot is occupied (payment failure mode).
    OutputCollision {
        /// The contested position.
        position: u64,
    },
    /// Two outputs of this transaction map to the same slot.
    IntraTxCollision {
        /// The contested position.
        position: u64,
    },
    /// Amount arithmetic overflow.
    AmountOverflow,
    /// A transaction of this kind must have at least one input.
    NoInputs,
    /// The MC binding of a synchronized transaction failed verification
    /// (wrong header, wrong sidechain, or list mismatch).
    BadMcBinding,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::BadAuthorization { input } => write!(f, "input {input} authorization failed"),
            TxError::UnknownInput(d) => write!(f, "input utxo {d} not in state"),
            TxError::DuplicateInput(d) => write!(f, "utxo {d} spent twice"),
            TxError::ValueImbalance { input, output } => {
                write!(f, "outputs {output} exceed inputs {input}")
            }
            TxError::OutputCollision { position } => {
                write!(f, "output slot {position} occupied")
            }
            TxError::IntraTxCollision { position } => {
                write!(f, "two outputs map to slot {position}")
            }
            TxError::AmountOverflow => write!(f, "amount overflow"),
            TxError::NoInputs => write!(f, "transaction has no inputs"),
            TxError::BadMcBinding => write!(f, "mainchain reference binding invalid"),
        }
    }
}

impl std::error::Error for TxError {}

/// Decides whether [`apply_transaction`] accepts `tx` on `state`, without
/// touching the tree: every §5.3 rule of a payment or backward-transfer
/// transaction, and the mainchain binding of a synchronized one (whose
/// items then degrade to rejections individually and never fail the
/// transaction). `apply_transaction` runs exactly this before it
/// mutates anything, so the two cannot disagree.
///
/// # Errors
///
/// [`TxError`] per the rules of the transaction's type.
pub fn check_transaction(
    params: &crate::params::LatusParams,
    state: &SidechainState,
    tx: &ScTransaction,
) -> Result<(), TxError> {
    match tx {
        ScTransaction::Payment(p) => check_spend(state, &p.inputs, &p.outputs, &[], &p.sighash()),
        ScTransaction::BackwardTransfer(bt) => check_spend(
            state,
            &bt.inputs,
            &[],
            &bt.backward_transfers,
            &bt.sighash(),
        ),
        ScTransaction::ForwardTransfers(ft) => ft
            .binding
            .verify_forward_transfers(&ft.mc_block, &params.sidechain_id, &ft.transfers)
            .then_some(())
            .ok_or(TxError::BadMcBinding),
        ScTransaction::BackwardTransferRequests(btr) => btr
            .binding
            .verify_backward_transfer_requests(&btr.mc_block, &params.sidechain_id, &btr.requests)
            .then_some(())
            .ok_or(TxError::BadMcBinding),
    }
}

/// Applies a transaction to the state (the `update` function of §5.3),
/// returning the transition witness. Application is atomic: on error the
/// state is unchanged.
///
/// # Errors
///
/// [`TxError`] per the rules of the transaction's type
/// ([`check_transaction`]). Synchronized transactions
/// (`ForwardTransfers`, `BackwardTransferRequests`) never fail as a
/// whole once their binding verifies — individual items degrade to
/// rejections.
pub fn apply_transaction(
    params: &crate::params::LatusParams,
    state: &mut SidechainState,
    tx: &ScTransaction,
) -> Result<TransitionWitness, TxError> {
    check_transaction(params, state, tx)?;
    Ok(match tx {
        ScTransaction::Payment(p) => execute_spend(state, tx, &p.inputs, &p.outputs, &[]),
        ScTransaction::BackwardTransfer(bt) => {
            execute_spend(state, tx, &bt.inputs, &[], &bt.backward_transfers)
        }
        ScTransaction::ForwardTransfers(ft) => execute_forward_transfers(params, state, tx, ft),
        ScTransaction::BackwardTransferRequests(btr) => execute_btrs(state, tx, btr),
    })
}

/// The plan half of a payment or backward-transfer transaction: every
/// rule, no mutation.
fn check_spend(
    state: &SidechainState,
    inputs: &[SignedInput],
    outputs: &[Utxo],
    withdrawals: &[BackwardTransfer],
    sighash: &Digest32,
) -> Result<(), TxError> {
    if inputs.is_empty() {
        return Err(TxError::NoInputs);
    }
    let mut seen = HashSet::new();
    let mut total_in = Amount::ZERO;
    for (i, input) in inputs.iter().enumerate() {
        if !seen.insert(input.utxo.digest()) {
            return Err(TxError::DuplicateInput(input.utxo.digest()));
        }
        if !input.verify(sighash) {
            return Err(TxError::BadAuthorization { input: i });
        }
        if !state.mst().contains(&input.utxo) {
            return Err(TxError::UnknownInput(input.utxo.digest()));
        }
        total_in = total_in
            .checked_add(input.utxo.amount)
            .ok_or(TxError::AmountOverflow)?;
    }
    let out_value =
        Amount::checked_sum(outputs.iter().map(|o| o.amount)).ok_or(TxError::AmountOverflow)?;
    let wd_value =
        Amount::checked_sum(withdrawals.iter().map(|w| w.amount)).ok_or(TxError::AmountOverflow)?;
    let total_out = out_value
        .checked_add(wd_value)
        .ok_or(TxError::AmountOverflow)?;
    if total_out > total_in {
        return Err(TxError::ValueImbalance {
            input: total_in,
            output: total_out,
        });
    }
    // Slot availability after removals.
    let depth = state.mst().depth();
    let freed: HashSet<u64> = inputs
        .iter()
        .map(|i| mst_position(&i.utxo, depth))
        .collect();
    let mut planned: HashSet<u64> = HashSet::new();
    for output in outputs {
        let position = mst_position(output, depth);
        if !planned.insert(position) {
            return Err(TxError::IntraTxCollision { position });
        }
        if state.mst().utxo_at(position).is_some() && !freed.contains(&position) {
            return Err(TxError::OutputCollision { position });
        }
    }
    Ok(())
}

/// The execute half of a spend that passed [`check_spend`], recording
/// the witness.
fn execute_spend(
    state: &mut SidechainState,
    tx: &ScTransaction,
    inputs: &[SignedInput],
    outputs: &[Utxo],
    withdrawals: &[BackwardTransfer],
) -> TransitionWitness {
    let depth = state.mst().depth();
    let pre_mst_root = state.mst().root();
    let pre_bt_accumulator = state.bt_accumulator();
    let pre_delta_accumulator = state.delta_accumulator();
    let pre_sync_accumulator = state.sync_accumulator();
    let mut updates = Vec::with_capacity(inputs.len() + outputs.len());
    for input in inputs {
        let position = state.mst().position_of(&input.utxo).expect("planned above");
        let (path, sibling) = state.mst().proof_with_sibling(position);
        updates.push(LeafUpdate {
            path,
            new_leaf: None,
            sibling,
        });
        state.remove_utxo(&input.utxo).expect("planned above");
    }
    for output in outputs {
        let position = mst_position(output, depth);
        let path = state.mst().proof(position);
        state.insert_utxo(output).expect("planned above");
        updates.push(LeafUpdate {
            path,
            new_leaf: state.mst().leaf_at(position),
            sibling: None,
        });
    }
    for withdrawal in withdrawals {
        state.append_backward_transfer(*withdrawal);
    }
    TransitionWitness {
        tx: tx.clone(),
        pre_mst_root,
        pre_bt_accumulator,
        pre_delta_accumulator,
        pre_sync_accumulator,
        updates,
        ft_steps: Vec::new(),
        btr_steps: Vec::new(),
        appended_bts: withdrawals.to_vec(),
    }
}

/// Deterministic UTXO minted by the `i`-th FT of an FTTx.
pub fn ft_output_utxo(
    mc_block: &Digest32,
    index: usize,
    receiver: Address,
    amount: Amount,
) -> Utxo {
    Utxo {
        address: receiver,
        amount,
        nonce: Digest32::hash_tagged(
            "zendoo/ft-nonce",
            &[mc_block.as_bytes(), &(index as u64).to_be_bytes()],
        ),
    }
}

/// Deterministic UTXO minted by entry `entry` of the `i`-th
/// (aggregated settlement) FT of an FTTx — the per-receiver mint of a
/// batched cross-chain delivery.
pub fn ft_batch_output_utxo(
    mc_block: &Digest32,
    index: usize,
    entry: usize,
    receiver: Address,
    amount: Amount,
) -> Utxo {
    Utxo {
        address: receiver,
        amount,
        nonce: Digest32::hash_tagged(
            "zendoo/ft-batch-nonce",
            &[
                mc_block.as_bytes(),
                &(index as u64).to_be_bytes(),
                &(entry as u64).to_be_bytes(),
            ],
        ),
    }
}

/// How a forward transfer's receiver metadata classifies on this
/// sidechain. Shared by transaction application and the transition
/// circuit so both sides dispatch identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtKind {
    /// Classic 64-byte Latus metadata.
    Classic {
        /// The sidechain address to credit.
        receiver: Address,
        /// The mainchain refund address.
        payback: Address,
    },
    /// Tagged single cross-chain transfer metadata (per-transfer
    /// delivery form).
    Cross {
        /// Parsed cross-chain metadata.
        meta: zendoo_core::crosschain::CrossChainMetadata,
    },
    /// An aggregated settlement batch (windowed batch delivery). The
    /// decoded batch passed its commitment check, totals the FT amount
    /// and targets this sidechain.
    Settlement(zendoo_core::settlement::SettlementBatch),
    /// None of the known forms (or a batch whose commitment, total or
    /// destination is wrong): the FT is rejected as malformed.
    Malformed,
}

/// Classifies one forward transfer's metadata for `sidechain_id`
/// (§5.3.2 leaves the metadata format to the sidechain; Latus accepts
/// the classic, cross-transfer and settlement-batch forms).
pub fn classify_ft_metadata(
    sidechain_id: &zendoo_core::ids::SidechainId,
    ft: &ForwardTransfer,
) -> FtKind {
    if let Some(meta) = ReceiverMetadata::parse(&ft.receiver_metadata) {
        return FtKind::Classic {
            receiver: meta.receiver,
            payback: meta.payback,
        };
    }
    if let Some(meta) = zendoo_core::crosschain::parse_cross_metadata(&ft.receiver_metadata) {
        return FtKind::Cross { meta };
    }
    match zendoo_core::settlement::decode_settlement_metadata(&ft.receiver_metadata) {
        Some(Ok(batch))
            if batch.dest == *sidechain_id && batch.total_amount() == Some(ft.amount) =>
        {
            FtKind::Settlement(batch)
        }
        Some(_) => FtKind::Malformed,
        None => FtKind::Malformed,
    }
}

/// Salvages a mainchain refund address from unparseable FT metadata.
///
/// The rule is total and deterministic, so the transition circuit can
/// re-derive (and therefore enforce) the exact refund the state
/// transition performs: blobs long enough to carry the classic
/// layout's payback slot (bytes 32..64 — the same offset the
/// cross-transfer form uses) refund to that slot, so a truncated or
/// overlong classic blob still pays back the address its sender put
/// there; anything shorter refunds to its zero-padded leading bytes —
/// a deterministic address, so the value is provably parked on the
/// mainchain instead of silently stranded in the registry balance.
pub fn salvage_payback(metadata: &[u8]) -> Address {
    let mut bytes = [0u8; 32];
    if metadata.len() >= 64 {
        bytes.copy_from_slice(&metadata[32..64]);
    } else {
        let n = metadata.len().min(32);
        bytes[..n].copy_from_slice(&metadata[..n]);
    }
    Address(Digest32(bytes))
}

fn execute_forward_transfers(
    params: &crate::params::LatusParams,
    state: &mut SidechainState,
    tx: &ScTransaction,
    ft_tx: &ForwardTransfersTx,
) -> TransitionWitness {
    let pre_mst_root = state.mst().root();
    let pre_bt_accumulator = state.bt_accumulator();
    let pre_delta_accumulator = state.delta_accumulator();
    let pre_sync_accumulator = state.sync_accumulator();
    let depth = state.mst().depth();
    let mut steps = Vec::with_capacity(ft_tx.transfers.len());
    let mut appended = Vec::new();

    /// Mints `utxo` (or refunds `payback` on a slot collision),
    /// returning the mint update or the collision evidence.
    fn mint_or_refund(
        state: &mut SidechainState,
        appended: &mut Vec<BackwardTransfer>,
        utxo: &Utxo,
        payback: Address,
        depth: u32,
    ) -> Result<LeafUpdate, SmtProof> {
        let position = mst_position(utxo, depth);
        let path = state.mst().proof(position);
        if path.value().is_some() {
            let refund = BackwardTransfer {
                receiver: payback,
                amount: utxo.amount,
            };
            state.append_backward_transfer(refund);
            appended.push(refund);
            return Err(path);
        }
        state.insert_utxo(utxo).expect("slot proven empty");
        Ok(LeafUpdate {
            path,
            new_leaf: state.mst().leaf_at(position),
            sibling: None,
        })
    }

    for (i, ft) in ft_tx.transfers.iter().enumerate() {
        // Classic 64-byte Latus metadata, the tagged single cross-chain
        // form, or an aggregated settlement batch delivered by the
        // mainchain router (§5.3.2 leaves the metadata format to the
        // sidechain).
        match classify_ft_metadata(&params.sidechain_id, ft) {
            FtKind::Malformed => {
                // Unparseable metadata. The mainchain already credited
                // this sidechain's registry balance when it included the
                // FT, so dropping the transfer here would strand the
                // coins in that balance forever. Refund the full amount
                // through the consensus-checked backward-transfer path
                // instead, to the payback address the shared total
                // salvage rule derives — the transition circuit
                // re-derives the same address and amount, so a prover
                // can neither redirect nor suppress the refund.
                let refund = BackwardTransfer {
                    receiver: salvage_payback(&ft.receiver_metadata),
                    amount: ft.amount,
                };
                state.append_backward_transfer(refund);
                appended.push(refund);
                steps.push(FtStep::RejectedMalformed);
            }
            FtKind::Classic { receiver, payback } => {
                let utxo = ft_output_utxo(&ft_tx.mc_block, i, receiver, ft.amount);
                match mint_or_refund(state, &mut appended, &utxo, payback, depth) {
                    Ok(update) => steps.push(FtStep::Minted(update)),
                    Err(occupied) => steps.push(FtStep::RejectedCollision { occupied }),
                }
            }
            FtKind::Cross { meta } => {
                let utxo = ft_output_utxo(&ft_tx.mc_block, i, meta.receiver, ft.amount);
                match mint_or_refund(state, &mut appended, &utxo, meta.payback, depth) {
                    Ok(update) => {
                        state.record_inbound_cross(zendoo_core::crosschain::InboundCrossTransfer {
                            source: meta.source,
                            nonce: meta.nonce,
                            receiver: meta.receiver,
                            amount: ft.amount,
                            mc_block: ft_tx.mc_block,
                        });
                        steps.push(FtStep::Minted(update));
                    }
                    Err(occupied) => steps.push(FtStep::RejectedCollision { occupied }),
                }
            }
            FtKind::Settlement(batch) => {
                // One mint per batch entry, each into its own receiver's
                // slot; a colliding entry refunds its own payback.
                let mut entry_steps = Vec::with_capacity(batch.transfers.len());
                for (entry, xct) in batch.transfers.iter().enumerate() {
                    let utxo =
                        ft_batch_output_utxo(&ft_tx.mc_block, i, entry, xct.receiver, xct.amount);
                    match mint_or_refund(state, &mut appended, &utxo, xct.payback, depth) {
                        Ok(update) => {
                            state.record_inbound_cross(
                                zendoo_core::crosschain::InboundCrossTransfer {
                                    source: xct.source,
                                    nonce: xct.nonce,
                                    receiver: xct.receiver,
                                    amount: xct.amount,
                                    mc_block: ft_tx.mc_block,
                                },
                            );
                            entry_steps.push(FtEntryStep::Minted(update));
                        }
                        Err(occupied) => {
                            entry_steps.push(FtEntryStep::RejectedCollision { occupied });
                        }
                    }
                }
                steps.push(FtStep::Settled(entry_steps));
            }
        }
    }
    state.record_sync(crate::state::SyncKind::ForwardTransfers, &ft_tx.mc_block);
    TransitionWitness {
        tx: tx.clone(),
        pre_mst_root,
        pre_bt_accumulator,
        pre_delta_accumulator,
        pre_sync_accumulator,
        updates: Vec::new(),
        ft_steps: steps,
        btr_steps: Vec::new(),
        appended_bts: appended,
    }
}

fn execute_btrs(
    state: &mut SidechainState,
    tx: &ScTransaction,
    btr_tx: &BtrTx,
) -> TransitionWitness {
    let pre_mst_root = state.mst().root();
    let pre_bt_accumulator = state.bt_accumulator();
    let pre_delta_accumulator = state.delta_accumulator();
    let pre_sync_accumulator = state.sync_accumulator();
    let depth = state.mst().depth();
    let mut steps = Vec::with_capacity(btr_tx.requests.len());
    let mut appended = Vec::new();
    for request in &btr_tx.requests {
        let Some(utxo) = btr_claimed_utxo(request) else {
            steps.push(BtrStep::RejectedMalformed);
            continue;
        };
        // The request's amount and nullifier must match the claimed UTXO.
        if utxo.amount != request.amount || utxo.nullifier() != request.nullifier {
            steps.push(BtrStep::RejectedMalformed);
            continue;
        }
        let position = mst_position(&utxo, depth);
        let (path, sibling) = state.mst().proof_with_sibling(position);
        if state.mst().utxo_at(position) == Some(&utxo) {
            state.remove_utxo(&utxo).expect("present");
            let bt = BackwardTransfer {
                receiver: request.receiver,
                amount: request.amount,
            };
            state.append_backward_transfer(bt);
            appended.push(bt);
            steps.push(BtrStep::Fulfilled(LeafUpdate {
                path,
                new_leaf: None,
                sibling,
            }));
        } else {
            steps.push(BtrStep::RejectedAbsent { path });
        }
    }
    state.record_sync(
        crate::state::SyncKind::BackwardTransferRequests,
        &btr_tx.mc_block,
    );
    TransitionWitness {
        tx: tx.clone(),
        pre_mst_root,
        pre_bt_accumulator,
        pre_delta_accumulator,
        pre_sync_accumulator,
        updates: Vec::new(),
        ft_steps: Vec::new(),
        btr_steps: steps,
        appended_bts: appended,
    }
}

/// Derives output UTXOs with per-transaction-unique nonces.
fn derive_outputs(domain: &str, spent: &[Utxo], recipients: &[(Address, Amount)]) -> Vec<Utxo> {
    let spent_digest = digest(domain, &spent.to_vec());
    recipients
        .iter()
        .enumerate()
        .map(|(i, (address, amount))| Utxo {
            address: *address,
            amount: *amount,
            nonce: Digest32::hash_tagged(
                domain,
                &[spent_digest.as_bytes(), &(i as u64).to_be_bytes()],
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LatusParams;
    use crate::state::state_digest;
    use zendoo_core::commitment::ScTxsCommitmentBuilder;
    use zendoo_core::ids::SidechainId;
    use zendoo_core::proofdata::{ProofData, ProofDataElem};
    use zendoo_mainchain::pow::Target;
    use zendoo_mainchain::BlockHeader;
    use zendoo_primitives::schnorr::Keypair;

    fn params() -> LatusParams {
        LatusParams::new(SidechainId::from_label("sc"), 16)
    }

    fn funded_state(owner: &Keypair, amounts: &[u64]) -> (SidechainState, Vec<Utxo>) {
        let mut state = SidechainState::new(16);
        let address = Address::from_public_key(&owner.public);
        let utxos: Vec<Utxo> = amounts
            .iter()
            .enumerate()
            .map(|(i, a)| Utxo {
                address,
                amount: Amount::from_units(*a),
                nonce: Digest32::hash_bytes(&[i as u8]),
            })
            .collect();
        for u in &utxos {
            state.mst_mut().add(u).unwrap();
        }
        (state, utxos)
    }

    /// Builds a fake MC header + binding for a set of FTs/BTRs destined
    /// to the test sidechain.
    fn binding_for(
        fts: &[ForwardTransfer],
        btrs: &[BackwardTransferRequest],
    ) -> (Digest32, McRefBinding) {
        let mut builder = ScTxsCommitmentBuilder::new();
        for ft in fts {
            builder.add_forward_transfer(ft.clone());
        }
        for btr in btrs {
            builder.add_backward_transfer_request(btr.clone());
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
        let sid = params().sidechain_id;
        let evidence = match commitment.membership_proof(&sid) {
            Some(proof) => McRefEvidence::Membership(proof),
            None => McRefEvidence::NoData(commitment.absence_proof(&sid).unwrap()),
        };
        (header.hash(), McRefBinding { header, evidence })
    }

    fn ft_tx(fts: Vec<ForwardTransfer>) -> (Digest32, ScTransaction) {
        let (mc_block, binding) = binding_for(&fts, &[]);
        (
            mc_block,
            ScTransaction::ForwardTransfers(ForwardTransfersTx {
                mc_block,
                transfers: fts,
                binding,
            }),
        )
    }

    fn btr_tx(btrs: Vec<BackwardTransferRequest>) -> ScTransaction {
        let (mc_block, binding) = binding_for(&[], &btrs);
        ScTransaction::BackwardTransferRequests(BtrTx {
            mc_block,
            requests: btrs,
            binding,
        })
    }

    #[test]
    fn payment_moves_value() {
        let alice = Keypair::from_seed(b"alice");
        let bob = Address::from_label("bob");
        let (mut state, utxos) = funded_state(&alice, &[10, 5]);
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![
                (bob, Amount::from_units(7)),
                (
                    Address::from_public_key(&alice.public),
                    Amount::from_units(3),
                ),
            ],
        ));
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        assert_eq!(witness.updates.len(), 3);
        assert_eq!(state.balance_of(&bob), Amount::from_units(7));
        assert_eq!(
            state.balance_of(&Address::from_public_key(&alice.public)),
            Amount::from_units(8)
        );
    }

    #[test]
    fn payment_witness_replays_root_transition() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded_state(&alice, &[10]);
        let pre_root = state.mst().root();
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![(Address::from_label("bob"), Amount::from_units(10))],
        ));
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        let mut root = pre_root;
        for update in &witness.updates {
            root = update.apply_to_root(&root).expect("path valid in sequence");
        }
        assert_eq!(root, state.mst().root());
    }

    #[test]
    fn payment_rejects_overdraw_unknown_duplicate() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded_state(&alice, &[10]);
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![(Address::from_label("bob"), Amount::from_units(11))],
        ));
        assert!(matches!(
            apply_transaction(&params(), &mut state, &tx),
            Err(TxError::ValueImbalance { .. })
        ));
        let ghost = Utxo {
            address: Address::from_public_key(&alice.public),
            amount: Amount::from_units(1),
            nonce: Digest32::hash_bytes(b"ghost"),
        };
        let tx = ScTransaction::Payment(PaymentTx::create(vec![(ghost, &alice.secret)], vec![]));
        assert!(matches!(
            apply_transaction(&params(), &mut state, &tx),
            Err(TxError::UnknownInput(_))
        ));
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret), (utxos[0], &alice.secret)],
            vec![],
        ));
        assert!(matches!(
            apply_transaction(&params(), &mut state, &tx),
            Err(TxError::DuplicateInput(_))
        ));
    }

    #[test]
    fn payment_rejects_wrong_signer() {
        let alice = Keypair::from_seed(b"alice");
        let mallory = Keypair::from_seed(b"mallory");
        let (mut state, utxos) = funded_state(&alice, &[10]);
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &mallory.secret)],
            vec![(Address::from_label("m"), Amount::from_units(10))],
        ));
        assert!(matches!(
            apply_transaction(&params(), &mut state, &tx),
            Err(TxError::BadAuthorization { input: 0 })
        ));
    }

    #[test]
    fn backward_transfer_appends_bts() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded_state(&alice, &[10]);
        let mc_addr = Address::from_label("mc-alice");
        let tx = ScTransaction::BackwardTransfer(BackwardTransferTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![(mc_addr, Amount::from_units(10))],
        ));
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        assert_eq!(witness.appended_bts.len(), 1);
        assert_eq!(state.backward_transfers().len(), 1);
        assert_eq!(state.total_value(), Amount::ZERO);
        assert_eq!(
            state.bt_accumulator(),
            crate::state::bt_list_accumulator(state.backward_transfers())
        );
    }

    #[test]
    fn forward_transfers_mint_and_reject() {
        let mut state = SidechainState::new(16);
        let meta = ReceiverMetadata {
            receiver: Address::from_label("sc-user"),
            payback: Address::from_label("mc-user"),
        };
        let good = ForwardTransfer {
            sidechain_id: params().sidechain_id,
            receiver_metadata: meta.to_bytes(),
            amount: Amount::from_units(9),
        };
        let malformed = ForwardTransfer {
            sidechain_id: params().sidechain_id,
            receiver_metadata: vec![1, 2, 3],
            amount: Amount::from_units(4),
        };
        let (_, tx) = ft_tx(vec![good, malformed]);
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        assert_eq!(witness.ft_steps.len(), 2);
        assert!(matches!(witness.ft_steps[0], FtStep::Minted(_)));
        assert!(matches!(witness.ft_steps[1], FtStep::RejectedMalformed));
        assert_eq!(
            state.balance_of(&Address::from_label("sc-user")),
            Amount::from_units(9)
        );
        // The malformed FT's full amount is refunded via backward
        // transfer — never stranded in the MC-side registry balance.
        assert_eq!(
            witness.appended_bts,
            vec![BackwardTransfer {
                receiver: salvage_payback(&[1, 2, 3]),
                amount: Amount::from_units(4),
            }]
        );
        assert_eq!(state.backward_transfers(), witness.appended_bts);
    }

    #[test]
    fn malformed_ft_with_classic_payback_slot_refunds_it() {
        // A blob that is *almost* classic metadata (one trailing byte
        // too many) still carries the payback address at bytes 32..64;
        // the salvage rule recovers it, so the sender's refund address
        // is honoured even for a corrupted envelope.
        let mut state = SidechainState::new(16);
        let payback = Address::from_label("mc-payback");
        let mut blob = ReceiverMetadata {
            receiver: Address::from_label("sc-user"),
            payback,
        }
        .to_bytes();
        blob.push(0xFF);
        assert_eq!(
            classify_ft_metadata(
                &params().sidechain_id,
                &ForwardTransfer {
                    sidechain_id: params().sidechain_id,
                    receiver_metadata: blob.clone(),
                    amount: Amount::from_units(7),
                }
            ),
            FtKind::Malformed
        );
        let ft = ForwardTransfer {
            sidechain_id: params().sidechain_id,
            receiver_metadata: blob,
            amount: Amount::from_units(7),
        };
        let (_, tx) = ft_tx(vec![ft]);
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        assert!(matches!(witness.ft_steps[0], FtStep::RejectedMalformed));
        assert_eq!(
            witness.appended_bts,
            vec![BackwardTransfer {
                receiver: payback,
                amount: Amount::from_units(7),
            }]
        );
        // Nothing minted on the sidechain: the value went back out.
        assert_eq!(state.total_value(), Amount::ZERO);
    }

    #[test]
    fn forward_transfers_with_tampered_list_rejected() {
        let mut state = SidechainState::new(16);
        let meta = ReceiverMetadata {
            receiver: Address::from_label("sc-user"),
            payback: Address::from_label("mc-user"),
        };
        let real = ForwardTransfer {
            sidechain_id: params().sidechain_id,
            receiver_metadata: meta.to_bytes(),
            amount: Amount::from_units(9),
        };
        let (mc_block, binding) = binding_for(std::slice::from_ref(&real), &[]);
        // Forge a doubled amount not present in the MC commitment.
        let mut forged = real;
        forged.amount = Amount::from_units(900);
        let tx = ScTransaction::ForwardTransfers(ForwardTransfersTx {
            mc_block,
            transfers: vec![forged],
            binding,
        });
        assert!(matches!(
            apply_transaction(&params(), &mut state, &tx),
            Err(TxError::BadMcBinding)
        ));
    }

    #[test]
    fn forward_transfers_empty_block_uses_absence_proof() {
        let mut state = SidechainState::new(16);
        let (_, tx) = ft_tx(vec![]);
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        assert!(witness.ft_steps.is_empty());
        // The sync accumulator advanced even with no transfers.
        assert_ne!(
            state.sync_accumulator(),
            crate::state::empty_sync_accumulator()
        );
    }

    #[test]
    fn forward_transfer_collision_refunds_payback() {
        let mut state = SidechainState::new(16);
        let meta = ReceiverMetadata {
            receiver: Address::from_label("sc-user"),
            payback: Address::from_label("mc-refund"),
        };
        let ft = ForwardTransfer {
            sidechain_id: params().sidechain_id,
            receiver_metadata: meta.to_bytes(),
            amount: Amount::from_units(9),
        };
        let (mc_block, binding) = binding_for(std::slice::from_ref(&ft), &[]);
        let would_be = ft_output_utxo(&mc_block, 0, meta.receiver, ft.amount);
        let position = mst_position(&would_be, 16);
        // Install a different utxo at that position by brute-forcing a
        // nonce that maps there.
        let mut blocker = None;
        for i in 0u64..2_000_000 {
            let candidate = Utxo {
                address: Address::from_label("blocker"),
                amount: Amount::from_units(1),
                nonce: Digest32::hash_bytes(&i.to_be_bytes()),
            };
            if mst_position(&candidate, 16) == position {
                blocker = Some(candidate);
                break;
            }
        }
        let blocker = blocker.expect("a colliding nonce exists in 2M draws");
        state.mst_mut().add(&blocker).unwrap();
        for n in 0..4u8 {
            let bystander = Utxo {
                address: Address::from_label("bystander"),
                amount: Amount::from_units(1),
                nonce: Digest32::hash_bytes(&[n]),
            };
            state.mst_mut().add(&bystander).unwrap();
        }

        let tx = ScTransaction::ForwardTransfers(ForwardTransfersTx {
            mc_block,
            transfers: vec![ft.clone()],
            binding,
        });
        let from = state.digest();
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        // The evidence is a membership proof of whatever holds the slot.
        let FtStep::RejectedCollision { occupied } = &witness.ft_steps[0] else {
            panic!("collision expected, got {:?}", witness.ft_steps[0]);
        };
        assert_eq!(occupied.index(), position);
        assert_eq!(occupied.value(), Some(blocker.leaf()));
        assert!(occupied.verify_occupied(&witness.pre_mst_root, &blocker.leaf()));
        assert_eq!(
            state.backward_transfers(),
            [BackwardTransfer {
                receiver: Address::from_label("mc-refund"),
                amount: ft.amount,
            }]
        );
        assert_eq!(state.mst().len(), 5, "nothing minted");

        // The circuit accepts exactly that, and neither the same path
        // ending in nothing nor a mint over the occupant.
        let system = crate::proof::proof_system(params(), b"collision");
        let to = state.digest();
        system.prove_base(from, to, &witness).unwrap();
        let refused = |step: FtStep| {
            let mut tampered = witness.clone();
            tampered.ft_steps[0] = step;
            format!("{}", system.prove_base(from, to, &tampered).unwrap_err())
        };
        let emptied = SmtProof::from_parts(
            position,
            16,
            occupied.siblings().to_vec(),
            zendoo_primitives::smt::Ending::Empty,
        );
        let err = refused(FtStep::RejectedCollision { occupied: emptied });
        assert!(err.contains("latus/ft-collision"), "{err}");
        let err = refused(FtStep::Minted(LeafUpdate {
            path: occupied.clone(),
            new_leaf: Some(would_be.leaf()),
            sibling: None,
        }));
        assert!(err.contains("latus/ft-mint"), "{err}");
    }

    fn make_btr(utxo: &Utxo) -> BackwardTransferRequest {
        BackwardTransferRequest {
            sidechain_id: params().sidechain_id,
            receiver: Address::from_label("mc-user"),
            amount: utxo.amount,
            nullifier: utxo.nullifier(),
            proofdata: ProofData(vec![ProofDataElem::Bytes(utxo.encoded())]),
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65]).unwrap(),
        }
    }

    #[test]
    fn btr_fulfilled_then_rejected_on_replay() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded_state(&alice, &[10]);
        let claimed = utxos[0];
        let tx = btr_tx(vec![make_btr(&claimed)]);
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        assert!(matches!(witness.btr_steps[0], BtrStep::Fulfilled(_)));
        assert_eq!(state.total_value(), Amount::ZERO);
        assert_eq!(state.backward_transfers().len(), 1);

        let tx2 = btr_tx(vec![make_btr(&claimed)]);
        let witness2 = apply_transaction(&params(), &mut state, &tx2).unwrap();
        assert!(matches!(
            witness2.btr_steps[0],
            BtrStep::RejectedAbsent { .. }
        ));
        assert_eq!(state.backward_transfers().len(), 1);
    }

    /// The leaf-must-bind-its-index case: a forger who wants to censor
    /// a request claims its UTXO absent. A path that ends in a
    /// *neighbour's* lone leaf proves absence only for slots below the
    /// node the walk reached — never for an occupied slot.
    #[test]
    fn btr_absence_cannot_be_forged_from_a_neighbour() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded_state(&alice, &[10, 20, 30]);
        let claimed = utxos[0];
        let position = mst_position(&claimed, 16);
        let honest_path = state.mst().proof(position);
        let neighbour_path = state.mst().proof(mst_position(&utxos[1], 16));
        let from = state.digest();
        let tx = btr_tx(vec![make_btr(&claimed)]);
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        assert!(matches!(witness.btr_steps[0], BtrStep::Fulfilled(_)));

        // The censoring transition: nothing spent, nothing paid out.
        let system = crate::proof::proof_system(params(), b"censor");
        let censored = state_digest(
            witness.pre_mst_root,
            witness.pre_bt_accumulator,
            witness.pre_delta_accumulator,
            crate::state::fold_sync(
                witness.pre_sync_accumulator,
                crate::state::SyncKind::BackwardTransferRequests,
                &match &tx {
                    ScTransaction::BackwardTransferRequests(btr) => btr.mc_block,
                    _ => unreachable!(),
                },
            ),
        );
        let refused = |path: SmtProof| {
            let mut tampered = witness.clone();
            tampered.btr_steps[0] = BtrStep::RejectedAbsent { path };
            tampered.appended_bts.clear();
            format!(
                "{}",
                system.prove_base(from, censored, &tampered).unwrap_err()
            )
        };
        // The neighbour's genuine path and leaf, relabelled.
        let relabelled = SmtProof::from_parts(
            position,
            16,
            neighbour_path.siblings().to_vec(),
            neighbour_path.ending(),
        );
        assert_eq!(relabelled.root(), None, "the leaf is not below the walk");
        let err = refused(relabelled);
        assert!(err.contains("latus/btr-absent"), "{err}");
        // The slot's own path says what it holds.
        let err = refused(honest_path);
        assert!(err.contains("latus/btr-censor"), "{err}");
    }

    #[test]
    fn btr_with_wrong_amount_rejected_as_malformed() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded_state(&alice, &[10]);
        let mut request = make_btr(&utxos[0]);
        request.amount = Amount::from_units(999);
        let tx = btr_tx(vec![request]);
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        assert!(matches!(witness.btr_steps[0], BtrStep::RejectedMalformed));
        assert!(state.mst().contains(&utxos[0]), "state untouched");
    }

    #[test]
    fn utxo_byte_roundtrip() {
        let utxo = Utxo {
            address: Address::from_label("x"),
            amount: Amount::from_units(123),
            nonce: Digest32::hash_bytes(b"n"),
        };
        assert_eq!(decode_utxo(&utxo.encoded()), Some(utxo));
        assert_eq!(decode_utxo(b"short"), None);
    }

    #[test]
    fn metadata_roundtrip() {
        let meta = ReceiverMetadata {
            receiver: Address::from_label("r"),
            payback: Address::from_label("p"),
        };
        assert_eq!(ReceiverMetadata::parse(&meta.to_bytes()), Some(meta));
        assert_eq!(ReceiverMetadata::parse(&[0u8; 63]), None);
    }
}
