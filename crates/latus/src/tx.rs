//! The Latus transactional model (paper §5.3): payments, backward
//! transfers, synchronized forward transfers and synchronized backward
//! transfer requests — plus their `update` semantics over the sidechain
//! state and the transition witnesses consumed by the state-transition
//! circuits (§5.4).
//!
//! Application is atomic: every rule is checked on a *plan* before any
//! mutation happens, then the plan executes. The plan doubles as the
//! base-proof witness. A payment, withdrawal or BTR fulfilment is a
//! sequence of single-leaf MST updates, each carrying the Merkle path
//! valid at its point in the sequence. A forward-transfers transaction is
//! one batch of insertions witnessed by one opening of the pre-state
//! tree, from which the circuit re-derives every transfer's outcome.

use std::collections::HashSet;
use std::convert::Infallible;
use zendoo_core::crosschain::InboundCrossTransfer;
use zendoo_core::ids::{Address, Amount};
use zendoo_core::transfer::{BackwardTransfer, ForwardTransfer};
use zendoo_core::withdrawal::BackwardTransferRequest;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Decode, DecodeError, Encode, Reader};
use zendoo_primitives::field::Fp;
use zendoo_primitives::schnorr::{PublicKey, SecretKey, Signature};
use zendoo_primitives::smt::{NodeOpening, SmtOpening, SmtProof, WitnessError};
use zendoo_snark::deferred::Deferred;

use crate::mst::{mst_position, Utxo};
use crate::state::SidechainState;

/// Signature context for sidechain transactions.
const SC_SIGHASH_CONTEXT: &str = "zendoo/sc-sighash-v1";

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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedInput {
    /// The spent UTXO (full payload; the circuit checks membership).
    pub utxo: Utxo,
    /// The owner's public key (its hash must equal `utxo.address`).
    pub pubkey: PublicKey,
    /// Schnorr signature over the transaction sighash.
    pub signature: Signature,
}

impl SignedInput {
    /// The one authorization rule of an input, native and in-circuit:
    /// the spent UTXO's address is the hash of the signing key, checked
    /// here, and the signature over `sighash` verifies, stated into
    /// `sigs` — checked there when it is eager, owed to its discharge
    /// otherwise.
    ///
    /// # Errors
    ///
    /// `on_fail()` when the key does not own the UTXO, or when `sigs` is
    /// eager and the signature does not verify.
    pub(crate) fn authorize<E>(
        &self,
        sighash: &Digest32,
        sigs: &mut Deferred,
        on_fail: impl FnOnce() -> E,
    ) -> Result<(), E> {
        if Address::from_public_key(&self.pubkey) != self.utxo.address {
            return Err(on_fail());
        }
        sigs.signature(
            SC_SIGHASH_CONTEXT,
            &self.pubkey,
            sighash.as_bytes(),
            &self.signature,
            on_fail,
        )
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReceiverMetadata {
    /// The sidechain address to credit.
    pub receiver: Address,
    /// The mainchain address refunded if the transfer fails.
    pub payback: Address,
}

impl ReceiverMetadata {
    /// Serializes to the on-chain 64-byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encoded()
    }

    /// Parses metadata; `None` marks the FT malformed (§5.3.2: the
    /// mainchain never validates metadata semantics).
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        Self::decode(bytes).ok()
    }
}

impl Encode for ReceiverMetadata {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.receiver.encode_into(out);
        self.payback.encode_into(out);
    }
}

impl Decode for ReceiverMetadata {
    const MIN_LEN: usize = 64;
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ReceiverMetadata {
            receiver: reader.read()?,
            payback: reader.read()?,
        })
    }
}

/// Evidence that a synchronized transaction carries *exactly* the
/// referenced MC block's data for this sidechain (§5.5.1: `mproof` /
/// `proofOfNoData`).
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
        zendoo_core::proofdata::ProofDataElem::Bytes(bytes) => Utxo::decode(bytes).ok(),
        _ => None,
    }
}

/// A Latus transaction (§5.3's four logical types).
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// One step of a synchronized-BTR application (§5.3.4).
#[derive(Clone, Debug, PartialEq, Eq)]
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
/// needs to re-derive `s_{i+1}` from `s_i` (§5.4). It names no backward
/// transfer: the circuit re-derives each one the transition appends — a
/// withdrawal from the transaction, a refund from the forward-transfer
/// opening, a fulfilled request from its step — and folds it into the
/// pre-accumulator; the state keeps the list itself.
#[derive(Clone, Debug)]
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
    /// The pre-state opening of every slot a `ForwardTransfers`
    /// transaction tries to mint into (`None` for the other kinds): the
    /// circuit re-derives each transfer's mint or refund from it and
    /// replays all the mints as one write.
    pub ft_opening: Option<SmtOpening>,
    /// Per-BTR steps (only for `BackwardTransferRequests`).
    pub btr_steps: Vec<BtrStep>,
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
    check_transaction_with(params, state, tx, &mut Deferred::eager())
}

/// [`check_transaction`] with each input signature stated into `sigs`
/// ([`SignedInput::authorize`]); every other rule runs where it stands.
/// Under [`Deferred::eager`] this is [`check_transaction`]; otherwise an
/// `Ok` holds only once `sigs` discharges.
pub(crate) fn check_transaction_with(
    params: &crate::params::LatusParams,
    state: &SidechainState,
    tx: &ScTransaction,
    sigs: &mut Deferred,
) -> Result<(), TxError> {
    match tx {
        ScTransaction::Payment(p) => {
            check_spend(state, &p.inputs, &p.outputs, &[], &p.sighash(), sigs)
        }
        ScTransaction::BackwardTransfer(bt) => check_spend(
            state,
            &bt.inputs,
            &[],
            &bt.backward_transfers,
            &bt.sighash(),
            sigs,
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
    apply_transaction_with(params, state, tx, &mut Deferred::eager())
}

/// [`apply_transaction`] with each input signature stated into `sigs`
/// ([`check_transaction_with`]).
pub(crate) fn apply_transaction_with(
    params: &crate::params::LatusParams,
    state: &mut SidechainState,
    tx: &ScTransaction,
    sigs: &mut Deferred,
) -> Result<TransitionWitness, TxError> {
    check_transaction_with(params, state, tx, sigs)?;
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
/// rule, no mutation, each input signature stated into `sigs`.
fn check_spend(
    state: &SidechainState,
    inputs: &[SignedInput],
    outputs: &[Utxo],
    withdrawals: &[BackwardTransfer],
    sighash: &Digest32,
    sigs: &mut Deferred,
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
        input.authorize(sighash, sigs, || TxError::BadAuthorization { input: i })?;
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
        ft_opening: None,
        btr_steps: Vec::new(),
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
    /// Classic 64-byte Latus metadata: a mainchain user's deposit.
    Classic {
        /// The sidechain address to credit.
        receiver: Address,
        /// The mainchain refund address.
        payback: Address,
    },
    /// A settlement batch: the one cross-chain delivery form, built by
    /// the mainchain's settlement of matured escrows, whose escrow rule
    /// binds each entry to a certificate-declared transfer. The decoded
    /// batch passed its commitment check, totals the FT amount and
    /// targets this sidechain.
    Settlement(zendoo_core::settlement::SettlementBatch),
    /// Neither form (or a batch whose commitment, total or destination
    /// is wrong): the FT is refunded to its [`salvage_payback`] address.
    Malformed,
}

/// Classifies one forward transfer's metadata for `sidechain_id`
/// (§5.3.2 leaves the metadata format to the sidechain; Latus accepts
/// the classic deposit and the settlement batch, and nothing else —
/// so every inbound cross-chain credit is an escrow the mainchain
/// matched).
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
    match zendoo_core::settlement::decode_settlement_metadata(&ft.receiver_metadata) {
        Some(Ok(batch))
            if batch.dest == *sidechain_id && batch.total_amount() == Some(ft.amount) =>
        {
            FtKind::Settlement(batch)
        }
        _ => FtKind::Malformed,
    }
}

/// Salvages a mainchain refund address from unparseable FT metadata.
///
/// The rule is total and deterministic, so the transition circuit can
/// re-derive (and therefore enforce) the exact refund the state
/// transition performs: blobs long enough to carry the classic
/// layout's payback slot (bytes 32..64) refund to that slot, so a
/// truncated or overlong classic blob still pays back the address its
/// sender put there; anything shorter refunds to its zero-padded
/// leading bytes — a deterministic address, so the value is provably
/// parked on the mainchain instead of silently stranded in the registry
/// balance.
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

/// One forward transfer's claim on the sidechain, read off its metadata
/// alone: a mint (or its payback on a taken slot), or a refund outright.
enum Claim {
    Mint {
        utxo: Utxo,
        payback: Address,
        credit: Option<InboundCrossTransfer>,
    },
    Refund(BackwardTransfer),
}

/// What a forward-transfers transaction does (§5.3.2), decided in
/// transfer order: each mint is refused — its coins refunded to its
/// payback — if its slot is occupied before the transaction or was taken
/// by an earlier transfer of it, and malformed metadata is refunded to
/// the [`salvage_payback`] address. The forger plans against its tree and
/// the transition circuit against the witnessed opening, through this
/// one function, so the two derive the same outcome for every transfer.
#[derive(Debug, Default)]
pub(crate) struct FtPlan {
    /// Every slot a mint was tried in, in transfer order: what the
    /// witness must open.
    pub(crate) probed: Vec<u64>,
    /// The minted UTXOs with their slots, in transfer order.
    pub(crate) mints: Vec<(u64, Utxo)>,
    /// The refunds, in transfer order.
    pub(crate) refunds: Vec<BackwardTransfer>,
    /// The inbound cross-chain credits of the minted settlement
    /// entries, in transfer order.
    pub(crate) credits: Vec<InboundCrossTransfer>,
}

/// Plans `ft_tx` on `sidechain_id`'s tree of `depth`, asking `occupied`
/// whether a slot holds a UTXO before the transaction.
///
/// # Errors
///
/// Whatever `occupied` fails with.
pub(crate) fn plan_forward_transfers<E>(
    sidechain_id: &zendoo_core::ids::SidechainId,
    ft_tx: &ForwardTransfersTx,
    depth: u32,
    mut occupied: impl FnMut(u64) -> Result<bool, E>,
) -> Result<FtPlan, E> {
    let mc_block = ft_tx.mc_block;
    let mut claims = Vec::with_capacity(ft_tx.transfers.len());
    for (i, ft) in ft_tx.transfers.iter().enumerate() {
        // Classic 64-byte Latus metadata or a settlement batch
        // (§5.3.2 leaves the metadata format to the sidechain).
        match classify_ft_metadata(sidechain_id, ft) {
            // The mainchain already credited this sidechain's registry
            // balance when it included the FT, so dropping it would
            // strand the coins there: the full amount goes back through
            // the consensus-checked backward-transfer path, to an
            // address the circuit re-derives.
            FtKind::Malformed => claims.push(Claim::Refund(BackwardTransfer {
                receiver: salvage_payback(&ft.receiver_metadata),
                amount: ft.amount,
            })),
            FtKind::Classic { receiver, payback } => claims.push(Claim::Mint {
                utxo: ft_output_utxo(&mc_block, i, receiver, ft.amount),
                payback,
                credit: None,
            }),
            // One mint per batch entry, each into its own receiver's
            // slot and refunded to its own payback.
            FtKind::Settlement(batch) => {
                claims.extend(
                    batch
                        .transfers
                        .iter()
                        .enumerate()
                        .map(|(entry, xct)| Claim::Mint {
                            utxo: ft_batch_output_utxo(
                                &mc_block,
                                i,
                                entry,
                                xct.receiver,
                                xct.amount,
                            ),
                            payback: xct.payback,
                            credit: Some(InboundCrossTransfer {
                                source: xct.source,
                                nonce: xct.nonce,
                                receiver: xct.receiver,
                                amount: xct.amount,
                                mc_block,
                            }),
                        }),
                );
            }
        }
    }
    let mut plan = FtPlan::default();
    let mut taken = HashSet::new();
    for claim in claims {
        match claim {
            Claim::Refund(refund) => plan.refunds.push(refund),
            Claim::Mint {
                utxo,
                payback,
                credit,
            } => {
                let position = mst_position(&utxo, depth);
                plan.probed.push(position);
                if occupied(position)? || !taken.insert(position) {
                    plan.refunds.push(BackwardTransfer {
                        receiver: payback,
                        amount: utxo.amount,
                    });
                } else {
                    plan.mints.push((position, utxo));
                    plan.credits.extend(credit);
                }
            }
        }
    }
    Ok(plan)
}

/// The execute half of a forward-transfers transaction: the plan, then
/// one tree write for all its mints.
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
    let mst = state.mst();
    let Ok(plan) = plan_forward_transfers(&params.sidechain_id, ft_tx, mst.depth(), |slot| {
        Ok::<_, Infallible>(mst.utxo_at(slot).is_some())
    });
    let opening = mst.opening(&plan.probed);
    let minted: Vec<Utxo> = plan.mints.iter().map(|(_, utxo)| *utxo).collect();
    state
        .insert_utxos(&minted)
        .expect("planned into empty, distinct slots");
    for refund in plan.refunds {
        state.append_backward_transfer(refund);
    }
    for credit in plan.credits {
        state.record_inbound_cross(credit);
    }
    state.record_sync(crate::state::SyncKind::ForwardTransfers, &ft_tx.mc_block);
    TransitionWitness {
        tx: tx.clone(),
        pre_mst_root,
        pre_bt_accumulator,
        pre_delta_accumulator,
        pre_sync_accumulator,
        updates: Vec::new(),
        ft_opening: Some(opening),
        btr_steps: Vec::new(),
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
            state.append_backward_transfer(BackwardTransfer {
                receiver: request.receiver,
                amount: request.amount,
            });
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
        ft_opening: None,
        btr_steps: steps,
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

    /// A validly signed payment whose outputs sum past `u64::MAX` is
    /// refused by name: the signature verifies (the input rules run
    /// first), then the output sum overflows before the value rule could
    /// compare it. Neither the check nor the apply behind it leaves a
    /// trace in the state.
    #[test]
    fn a_payment_whose_outputs_sum_past_u64_max_is_refused_by_name() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded_state(&alice, &[10]);
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![
                (Address::from_label("bob"), Amount::from_units(u64::MAX)),
                (Address::from_label("carol"), Amount::from_units(1)),
            ],
        ));
        let (digest, touched) = (state.digest(), state.touch_sequence().to_vec());
        assert_eq!(
            check_transaction(&params(), &state, &tx),
            Err(TxError::AmountOverflow)
        );
        assert_eq!(
            apply_transaction(&params(), &mut state, &tx).map(|_| ()),
            Err(TxError::AmountOverflow)
        );
        assert_eq!(state.digest(), digest);
        assert_eq!(state.touch_sequence(), touched);
        assert!(state.mst().contains(&utxos[0]));
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
        apply_transaction(&params(), &mut state, &tx).unwrap();
        assert_eq!(
            state.backward_transfers(),
            [BackwardTransfer {
                receiver: mc_addr,
                amount: Amount::from_units(10),
            }]
        );
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
        assert_eq!(state.mst().len(), 1);
        assert_eq!(witness.ft_opening.map(|o| o.opened_nodes()), Some(0));
        assert_eq!(
            state.balance_of(&Address::from_label("sc-user")),
            Amount::from_units(9)
        );
        // The malformed FT's full amount is refunded via backward
        // transfer — never stranded in the MC-side registry balance.
        assert_eq!(
            state.backward_transfers(),
            [BackwardTransfer {
                receiver: salvage_payback(&[1, 2, 3]),
                amount: Amount::from_units(4),
            }]
        );
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
        apply_transaction(&params(), &mut state, &tx).unwrap();
        assert_eq!(
            state.backward_transfers(),
            [BackwardTransfer {
                receiver: payback,
                amount: Amount::from_units(7),
            }]
        );
        // Nothing minted on the sidechain: the value went back out.
        assert_eq!(state.total_value(), Amount::ZERO);
    }

    /// Metadata `receiver ‖ payback ‖ source ‖ nonce` (104 bytes) names
    /// a cross-chain source that no escrow backs, and any mainchain user
    /// can send it: it is malformed, refunded to the payback at bytes
    /// 32..64, and mints nothing and credits no inbound transfer.
    #[test]
    fn an_ft_in_the_per_transfer_cross_layout_is_refunded_not_credited() {
        let mut state = SidechainState::new(16);
        let payback = Address::from_label("mc-payback");
        let mut blob = Vec::new();
        Address::from_label("sc-user").encode_into(&mut blob);
        payback.encode_into(&mut blob);
        zendoo_core::ids::SidechainId::from_label("elsewhere").encode_into(&mut blob);
        7u64.encode_into(&mut blob);
        assert_eq!(blob.len(), 104);
        let ft = ForwardTransfer {
            sidechain_id: params().sidechain_id,
            receiver_metadata: blob,
            amount: Amount::from_units(5),
        };
        assert_eq!(
            classify_ft_metadata(&params().sidechain_id, &ft),
            FtKind::Malformed
        );
        let (_, tx) = ft_tx(vec![ft]);
        apply_transaction(&params(), &mut state, &tx).unwrap();
        assert_eq!(
            state.backward_transfers(),
            [BackwardTransfer {
                receiver: payback,
                amount: Amount::from_units(5),
            }]
        );
        assert_eq!(state.total_value(), Amount::ZERO, "nothing minted");
        assert!(state.inbound_cross_transfers().is_empty());
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
        // Nothing to open: the opening is the root's hash.
        let opening = witness.ft_opening.expect("a forward-transfers witness");
        assert_eq!(opening.opened_nodes(), 0);
        assert_eq!(
            opening.roots_of_inserts(&[]),
            Ok((witness.pre_mst_root, witness.pre_mst_root))
        );
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
        let pre = state.clone();
        let from = state.digest();
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        // The opening shows what holds the slot under the pre-root.
        let opening = witness
            .ft_opening
            .clone()
            .expect("a forward-transfers witness");
        assert_eq!(opening.occupant(position), Ok(Some(blocker.leaf())));
        let pre_root = witness.pre_mst_root;
        assert_eq!(opening.roots_of_inserts(&[]), Ok((pre_root, pre_root)));
        assert_eq!(
            state.backward_transfers(),
            [BackwardTransfer {
                receiver: Address::from_label("mc-refund"),
                amount: ft.amount,
            }]
        );
        assert_eq!(state.mst().len(), 5, "nothing minted");

        // The circuit derives exactly that refund. An opening that hides
        // the occupant (the pre-tree without it) would have it derive a
        // mint, and does not match the running root; one that omits the
        // slot, or is of another depth, derives nothing.
        let system = crate::proof::proof_system(params(), b"collision");
        let to = state.digest();
        system.prove_base(from, to, &witness).unwrap();
        let refused = |opening: SmtOpening| {
            let mut tampered = witness.clone();
            tampered.ft_opening = Some(opening);
            format!("{}", system.prove_base(from, to, &tampered).unwrap_err())
        };
        let mut hidden = pre.clone();
        hidden.mst_mut().remove(&blocker).unwrap();
        let err = refused(hidden.mst().opening(&[position]));
        assert!(err.contains("latus/ft-opening"), "{err}");
        let err = refused(pre.mst().opening(&[]));
        assert!(err.contains("latus/ft-unopened"), "{err}");
        let err = refused(crate::mst::Mst::new(17).opening(&[position]));
        assert!(err.contains("latus/path-depth"), "{err}");
    }

    /// Two transfers of one block whose mints map to one slot: the first
    /// is minted, the second refunded to its own payback — a slot taken
    /// earlier in the transaction counts as occupied.
    #[test]
    fn two_transfers_into_one_slot_mint_the_first_and_refund_the_second() {
        const DEPTH: u32 = 6;
        let params = LatusParams::new(params().sidechain_id, DEPTH);
        let transfer = |receiver: &str, payback: &str, units| ForwardTransfer {
            sidechain_id: params.sidechain_id,
            receiver_metadata: ReceiverMetadata {
                receiver: Address::from_label(receiver),
                payback: Address::from_label(payback),
            }
            .to_bytes(),
            amount: Amount::from_units(units),
        };
        let slot = |mc_block: &Digest32, i: usize, ft: &ForwardTransfer| {
            let meta = ReceiverMetadata::parse(&ft.receiver_metadata).unwrap();
            mst_position(
                &ft_output_utxo(mc_block, i, meta.receiver, ft.amount),
                DEPTH,
            )
        };
        // Both slots move with the block hash, so search the second
        // receiver until they coincide (1 in 64 at this depth).
        let tx = (0..10_000)
            .find_map(|n| {
                let fts = [
                    transfer("first", "mc-first", 9),
                    transfer(&format!("second-{n}"), "mc-second", 4),
                ];
                let (mc_block, tx) = ft_tx(fts.to_vec());
                (slot(&mc_block, 0, &fts[0]) == slot(&mc_block, 1, &fts[1])).then_some(tx)
            })
            .expect("two transfers share a slot within 10,000 draws");

        let mut state = SidechainState::new(DEPTH);
        let from = state.digest();
        let witness = apply_transaction(&params, &mut state, &tx).unwrap();
        assert_eq!(state.mst().len(), 1);
        assert_eq!(
            state.balance_of(&Address::from_label("first")),
            Amount::from_units(9)
        );
        assert_eq!(
            state.backward_transfers(),
            [BackwardTransfer {
                receiver: Address::from_label("mc-second"),
                amount: Amount::from_units(4),
            }]
        );
        assert_eq!(state.touch_sequence().len(), 1, "one mint, one touch");
        let system = crate::proof::proof_system(params, b"one-slot");
        system.prove_base(from, state.digest(), &witness).unwrap();
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
        assert_eq!(Utxo::decode(&utxo.encoded()), Ok(utxo));
        assert_eq!(Utxo::decode(b"short"), Err(DecodeError::UnexpectedEof));
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
