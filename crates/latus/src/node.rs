//! The Latus full node: forging, mainchain synchronization, epoch
//! management and certificate production (paper §5.1, §5.4, §5.5).
//!
//! The node observes the mainchain block-by-block (the parent-child
//! relationship of §1: "sidechain nodes directly observe the mainchain"),
//! forges one sidechain block per observed MC block, accumulates the
//! epoch's transition witnesses, and at each withdrawal-epoch boundary
//! produces a certificate whose SNARK proof attests the entire epoch
//! (Fig 11). It also serves user-facing proof requests (BTR/CSW).
//!
//! A block joins the node one way. The forger
//! ([`LatusNode::sync_mainchain_block`]) builds it into a clone of the
//! state and the follower ([`LatusNode::receive_block`]) applies it to
//! one; both then hand the block and the clone to one adoption step,
//! which snapshots the old state for rollback, records the block's
//! certificate inclusions and witnesses, and makes it the tip. A refused
//! block or forge never reaches that step and changes nothing. The open
//! epoch's headers are read off the chain, from `epoch_start` on.
//! Admission checks input signatures eagerly, the forger owes them to
//! admission, and the follower owes a block's to one batch, the
//! forger's signature over its header first.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use zendoo_core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo_core::commitment::ScTxsCommitment;
use zendoo_core::config::{SidechainConfig, SidechainConfigBuilder};
use zendoo_core::crosschain::{
    check_escrow_pairing, escrow_address, CrossChainTransfer, InboundCrossTransfer,
};
use zendoo_core::epoch::EpochSchedule;
use zendoo_core::ids::{Address, Amount, EpochId, SidechainId};
use zendoo_core::withdrawal::{
    btr_public_inputs, BackwardTransferRequest, BtrSysData, CeasedSidechainWithdrawal,
};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::field::Fp;
use zendoo_primitives::schnorr::{Keypair, SecretKey, Signature};
use zendoo_snark::backend::{prove, ProveError, ProvingKey, VerifyingKey};
use zendoo_snark::deferred::Deferred;
use zendoo_snark::inputs::PublicInputs;

use crate::block::{McBlockReference, McRefError, ScBlock, ScBlockError, ScBlockHeader};
use crate::cert::{
    sign_withdrawal, utxo_proofdata, utxo_proofdata_schema, wcert_proofdata,
    wcert_proofdata_schema, BtrCircuit, CertInclusion, CswCircuit, CswWitness, DeltaLink,
    OwnershipWitness, WcertCircuit, WcertWitness,
};
use crate::consensus::{try_lead_slot, ConsensusParams, StakeDistribution};
use crate::mst::{mst_position, Mst, MstDelta, Utxo};
use crate::params::LatusParams;
use crate::proof::{proof_system, EpochProofBuilder, LatusProofSystem};
use crate::state::SidechainState;
use crate::tx::{
    apply_transaction, apply_transaction_with, check_transaction, BackwardTransferTx, PaymentTx,
    ScTransaction, TransitionWitness, TxError,
};

/// All proving/verifying material of one Latus deployment.
pub struct LatusKeys {
    /// The recursive state-transition system (base + merge).
    pub system: LatusProofSystem,
    /// Certificate circuit + keys.
    pub wcert_circuit: WcertCircuit,
    /// Certificate proving key.
    pub wcert_pk: ProvingKey,
    /// Certificate verification key (registered on the MC).
    pub wcert_vk: VerifyingKey,
    /// BTR circuit + keys.
    pub btr_circuit: BtrCircuit,
    /// BTR proving key.
    pub btr_pk: ProvingKey,
    /// BTR verification key.
    pub btr_vk: VerifyingKey,
    /// CSW circuit + keys.
    pub csw_circuit: CswCircuit,
    /// CSW proving key.
    pub csw_pk: ProvingKey,
    /// CSW verification key.
    pub csw_vk: VerifyingKey,
}

impl LatusKeys {
    /// Performs the full trusted setup for a deployment: the recursive
    /// system plus the three posting circuits (§4.2's `wcert_vk`,
    /// `btr_vk`, `csw_vk`).
    pub fn generate(params: LatusParams, schedule: EpochSchedule, seed: &[u8]) -> Self {
        let system = proof_system(params, seed);
        let wcert_circuit =
            WcertCircuit::new(params, schedule, *system.base_vk(), *system.merge_vk());
        let (wcert_pk, wcert_vk) = zendoo_snark::backend::setup_deterministic(&wcert_circuit, seed);
        let btr_circuit = BtrCircuit::new(params);
        let (btr_pk, btr_vk) = zendoo_snark::backend::setup_deterministic(&btr_circuit, seed);
        let csw_circuit = CswCircuit::new(params);
        let (csw_pk, csw_vk) = zendoo_snark::backend::setup_deterministic(&csw_circuit, seed);
        LatusKeys {
            system,
            wcert_circuit,
            wcert_pk,
            wcert_vk,
            btr_circuit,
            btr_pk,
            btr_vk,
            csw_circuit,
            csw_pk,
            csw_vk,
        }
    }

    /// Assembles the [`SidechainConfig`] to register on the mainchain.
    pub fn sidechain_config(
        &self,
        params: &LatusParams,
        schedule: EpochSchedule,
    ) -> SidechainConfig {
        SidechainConfigBuilder::new(params.sidechain_id, self.wcert_vk)
            .start_block(schedule.start_block())
            .epoch_len(schedule.epoch_len())
            .submit_len(schedule.submit_len())
            .btr_vk(self.btr_vk)
            .csw_vk(self.csw_vk)
            .wcert_proofdata(wcert_proofdata_schema())
            .btr_proofdata(utxo_proofdata_schema())
            .csw_proofdata(utxo_proofdata_schema())
            .build()
            .expect("latus configuration is valid by construction")
    }
}

impl std::fmt::Debug for LatusKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatusKeys")
            .field("wcert_vk", &self.wcert_vk)
            .field("btr_vk", &self.btr_vk)
            .field("csw_vk", &self.csw_vk)
            .finish()
    }
}

/// Node operation failures.
#[derive(Clone, Debug)]
pub enum NodeError {
    /// Transaction invalid against the current state.
    Tx(TxError),
    /// A mainchain block could not be referenced.
    McRef(McRefError),
    /// The observed MC block does not extend the last referenced one.
    NonContiguousMcBlock {
        /// Expected parent.
        expected: Digest32,
        /// Found parent.
        found: Digest32,
    },
    /// A received block does not extend this node's tip.
    NotOnTip,
    /// A received block references other MC blocks than the observed one.
    WrongMcReference,
    /// A received block claims this slot, at or before the last adopted
    /// block's: a second block in a spent slot would equivocate.
    SpentSlot(u64),
    /// A received block's forger does not lead its slot (§5.1).
    NotLeader {
        /// The slot claimed.
        slot: u64,
    },
    /// A received block's header signature is not its forger's.
    BadHeaderSignature,
    /// Proof generation failed (a bug or inconsistent state).
    Prove(ProveError),
    /// Certificate requested before the epoch's last MC block.
    EpochNotComplete,
    /// A received block failed stateful validation.
    Block(ScBlockError),
    /// No data available to serve the request.
    Unavailable(&'static str),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Tx(e) => write!(f, "transaction rejected: {e}"),
            NodeError::McRef(e) => write!(f, "mainchain reference: {e}"),
            NodeError::NonContiguousMcBlock { expected, found } => {
                write!(f, "MC block parent {found}, expected {expected}")
            }
            NodeError::NotOnTip => write!(f, "block does not extend our tip"),
            NodeError::WrongMcReference => write!(f, "block references another MC block"),
            NodeError::SpentSlot(slot) => write!(f, "slot {slot} already spent"),
            NodeError::NotLeader { slot } => write!(f, "forger does not lead slot {slot}"),
            NodeError::BadHeaderSignature => write!(f, "bad block header signature"),
            NodeError::Prove(e) => write!(f, "proving failed: {e}"),
            NodeError::EpochNotComplete => write!(f, "withdrawal epoch not complete"),
            NodeError::Block(e) => write!(f, "block refused: {e}"),
            NodeError::Unavailable(what) => write!(f, "unavailable: {what}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<TxError> for NodeError {
    fn from(e: TxError) -> Self {
        NodeError::Tx(e)
    }
}

impl From<McRefError> for NodeError {
    fn from(e: McRefError) -> Self {
        NodeError::McRef(e)
    }
}

impl From<ProveError> for NodeError {
    fn from(e: ProveError) -> Self {
        NodeError::Prove(e)
    }
}

/// The node as it stood before one adopted block: exactly what
/// [`LatusNode::rollback_to_mc`] restores and cannot read off the chain
/// (it reads the epoch's headers and the slot to resume at there). It
/// copies no header and no leaf: the MST inside `state` is a root
/// handle, `epoch_builder` holds one pointer per block of the open
/// epoch, the certificate inclusions are shared pointers, and the rest
/// are scalars or the open epoch's few declarations.
struct NodeSnapshot {
    state: SidechainState,
    /// Restored with `state`: a reverted block takes its declarations
    /// with it, and a reopened epoch gets back those it had declared.
    declared: Vec<CrossChainTransfer>,
    epoch_builder: EpochProofBuilder,
    last_mc_ref: Digest32,
    chain_len: usize,
    epoch_start: usize,
    current_epoch: EpochId,
    /// Certificate inclusions observed so far. An MC reorg can
    /// disconnect the very block that carried a certificate; a
    /// rollback that kept the stale inclusion would later prove a
    /// certificate against a window that no longer carries it.
    cert_inclusions: BTreeMap<EpochId, Arc<CertInclusion>>,
}

/// A transaction this node admitted into its pending queue, whose
/// admission verified the signatures over its immutable bytes. Whoever
/// applies it next here — the forger, or the pending view a cross-chain
/// transfer is checked against — re-runs every state-dependent rule.
/// `declares` is the cross-chain transfer an escrow withdrawal pays
/// for, declared when a forged block applies the entry.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Pending {
    tx: ScTransaction,
    declares: Option<CrossChainTransfer>,
}

impl Pending {
    /// `tx`, whose eager check just passed.
    fn admitted(tx: ScTransaction) -> Self {
        Pending { tx, declares: None }
    }

    /// [`apply_transaction`] with the input signatures stated into a
    /// deferral that is never discharged: admission verified them.
    fn apply(
        &self,
        params: &LatusParams,
        state: &mut SidechainState,
    ) -> Result<TransitionWitness, TxError> {
        apply_transaction_with(params, state, &self.tx, &mut Deferred::new())
    }
}

/// A Latus full node / forger.
///
/// Each signature is verified once per node before the certificate
/// circuit checks the epoch, stated into a [`Deferred`]. The pending
/// queue holds only transactions this node admitted itself, eagerly —
/// through [`LatusNode::submit_transaction`] (checked against the state)
/// or [`LatusNode::submit_cross_transfer`] (applied to the pending view);
/// forging and the pending view owe those signatures to admission. A
/// block from another forger ([`LatusNode::receive_block`]) is verified
/// in full, its signatures as one batch.
/// A cross-chain transfer rides its escrow withdrawal's pending entry,
/// then the open epoch's `declared` list, which the certificate pairs
/// with the epoch's withdrawals by [`check_escrow_pairing`].
pub struct LatusNode {
    params: LatusParams,
    schedule: EpochSchedule,
    consensus: ConsensusParams,
    keys: Arc<LatusKeys>,
    forger: Keypair,
    state: SidechainState,
    chain: Vec<ScBlock>,
    /// Pre-block snapshots keyed by the MC block each SC block
    /// references (for MC-reorg rollback), the newest `reorg_horizon`
    /// of them.
    snapshots: VecDeque<NodeSnapshot>,
    /// How many blocks back a mainchain reorg can reach.
    reorg_horizon: usize,
    pending: Vec<Pending>,
    /// `state` with the first `.1` transactions of `pending` applied as
    /// the forger will apply them (failures skipped): what the next
    /// cross-chain transfer is validated against, kept between
    /// submissions so that each one applies only the queue's new
    /// suffix. Dropped wherever `pending` is taken or `state` changes.
    pending_view: Option<(SidechainState, usize)>,
    epoch_builder: EpochProofBuilder,
    current_epoch: EpochId,
    last_mc_ref: Digest32,
    /// Where the open epoch begins in `chain`: its blocks, one per
    /// referenced MC block, are `chain[epoch_start..]`.
    epoch_start: usize,
    /// Certificate inclusions observed in MC blocks, per epoch.
    cert_inclusions: BTreeMap<EpochId, Arc<CertInclusion>>,
    /// The MST at each epoch close, as a root handle a historical
    /// BTR/CSW proof walks.
    epoch_msts: BTreeMap<EpochId, Mst>,
    /// Delta committed per closed epoch (serves historical CSW proofs).
    epoch_deltas: BTreeMap<EpochId, MstDelta>,
    /// The certificate this node produced per epoch.
    produced_certs: BTreeMap<EpochId, WithdrawalCertificate>,
    stake: StakeDistribution,
    stake_epoch: u64,
    next_slot: u64,
    /// The transfers paid for by the open epoch's escrow withdrawals,
    /// in the order of its backward transfers.
    declared: Vec<CrossChainTransfer>,
    /// Monotonic nonce for outbound cross-chain transfers.
    xct_nonce: u64,
}

impl LatusNode {
    /// Creates a node for a freshly bootstrapped sidechain.
    ///
    /// `mc_anchor` is the hash of the MC block at `start_block - 1`
    /// (the block every reference chain starts from); pass the genesis
    /// hash when `start_block` is 1.
    pub fn new(
        params: LatusParams,
        schedule: EpochSchedule,
        consensus: ConsensusParams,
        keys: Arc<LatusKeys>,
        forger: Keypair,
        mc_anchor: Digest32,
    ) -> Self {
        let state = SidechainState::new(params.mst_depth);
        let epoch_builder = EpochProofBuilder::new(state.digest());
        LatusNode {
            params,
            schedule,
            consensus,
            keys,
            forger,
            state,
            chain: Vec::new(),
            snapshots: VecDeque::new(),
            reorg_horizon: zendoo_mainchain::chain::ChainParams::default().max_reorg_depth + 1,
            pending: Vec::new(),
            pending_view: None,
            epoch_builder,
            current_epoch: 0,
            last_mc_ref: mc_anchor,
            epoch_start: 0,
            cert_inclusions: BTreeMap::new(),
            epoch_msts: BTreeMap::new(),
            epoch_deltas: BTreeMap::new(),
            produced_certs: BTreeMap::new(),
            stake: StakeDistribution::default(),
            stake_epoch: 0,
            next_slot: 0,
            declared: Vec::new(),
            xct_nonce: 0,
        }
    }

    /// Tells the node how far back its mainchain can reorganise
    /// (`max_reorg_depth + 1` blocks; [`LatusNode::new`] assumes the
    /// default chain parameters). Rollback snapshots older than that are
    /// dropped: no fork can reach them.
    pub fn set_reorg_horizon(&mut self, blocks: usize) {
        self.reorg_horizon = blocks;
        self.prune_snapshots();
    }

    fn prune_snapshots(&mut self) {
        let excess = self.snapshots.len().saturating_sub(self.reorg_horizon);
        self.snapshots.drain(..excess);
    }

    /// Rollback snapshots currently held.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// The MST as it stood when `epoch` closed, if this node closed it.
    pub fn epoch_mst(&self, epoch: EpochId) -> Option<&Mst> {
        self.epoch_msts.get(&epoch)
    }

    /// The node's sidechain state.
    pub fn state(&self) -> &SidechainState {
        &self.state
    }

    /// The deployment parameters.
    pub fn params(&self) -> &LatusParams {
        &self.params
    }

    /// The sidechain blocks forged/accepted so far.
    pub fn chain(&self) -> &[ScBlock] {
        &self.chain
    }

    /// The withdrawal epoch currently being filled.
    pub fn current_epoch(&self) -> EpochId {
        self.current_epoch
    }

    /// Queues a user transaction after validating it against the current
    /// state.
    ///
    /// # Errors
    ///
    /// [`NodeError::Tx`] when invalid, or [`NodeError::Unavailable`]
    /// for direct withdrawals to the cross-chain escrow address (which
    /// would break the certificate's escrow-pairing rule — the
    /// mainchain mints escrow BTs as consensus-tagged escrow-kind
    /// UTXOs, so an unpaired one would strand the coins; use
    /// [`LatusNode::submit_cross_transfer`] instead).
    pub fn submit_transaction(&mut self, tx: ScTransaction) -> Result<(), NodeError> {
        if let ScTransaction::BackwardTransfer(bt) = &tx {
            let escrow = escrow_address();
            if bt.backward_transfers.iter().any(|w| w.receiver == escrow) {
                return Err(NodeError::Unavailable(
                    "withdrawals to the escrow address must go through submit_cross_transfer",
                ));
            }
        }
        check_transaction(&self.params, &self.state, &tx)?;
        self.pending.push(Pending::admitted(tx));
        Ok(())
    }

    /// Initiates a sidechain→sidechain transfer: spends `inputs`
    /// (owned by one key) into an escrow withdrawal of exactly `amount`
    /// and attaches the [`CrossChainTransfer`] to it, for the epoch that
    /// forges it to declare. When the inputs exceed `amount`, a change
    /// split payment precedes the escrow withdrawal in the same block.
    ///
    /// # Errors
    ///
    /// [`NodeError::Tx`] when the inputs don't cover `amount` or fail
    /// validation.
    pub fn submit_cross_transfer(
        &mut self,
        inputs: Vec<(crate::mst::Utxo, &SecretKey)>,
        amount: Amount,
        dest: SidechainId,
        receiver: Address,
        payback: Address,
    ) -> Result<CrossChainTransfer, NodeError> {
        if inputs.is_empty() {
            return Err(NodeError::Tx(TxError::NoInputs));
        }
        if dest == self.params.sidechain_id {
            return Err(NodeError::Unavailable(
                "cross-chain transfer cannot target its own sidechain",
            ));
        }
        if amount.is_zero() {
            return Err(NodeError::Unavailable("cross-chain transfer of zero coins"));
        }
        let total = Amount::checked_sum(inputs.iter().map(|(u, _)| u.amount))
            .ok_or(NodeError::Tx(TxError::AmountOverflow))?;
        if total < amount {
            return Err(NodeError::Tx(TxError::ValueImbalance {
                input: total,
                output: amount,
            }));
        }
        let escrow = escrow_address();
        let xct = CrossChainTransfer::new(
            self.params.sidechain_id,
            dest,
            receiver,
            amount,
            self.xct_nonce,
            payback,
        );

        let mut txs = Vec::with_capacity(2);
        if total == amount {
            txs.push(ScTransaction::BackwardTransfer(BackwardTransferTx::create(
                inputs,
                vec![(escrow, amount)],
            )));
        } else {
            // Split change back to the sender on the sidechain, then
            // escrow the exact-amount output.
            let owner_address = inputs[0].0.address;
            let owner_key = inputs[0].1;
            let change = total.checked_sub(amount).expect("total >= amount");
            let split = PaymentTx::create(
                inputs,
                vec![(owner_address, amount), (owner_address, change)],
            );
            let exact = split.outputs[0];
            txs.push(ScTransaction::Payment(split));
            txs.push(ScTransaction::BackwardTransfer(BackwardTransferTx::create(
                vec![(exact, owner_key)],
                vec![(escrow, amount)],
            )));
        }
        // Chained validation against the state *with the pending queue
        // applied*: the escrow withdrawal may spend the split payment's
        // output, and a conflict with an earlier pending transaction
        // (e.g. two same-tick transfers racing for one UTXO) must fail
        // here rather than be dropped at forge with its declaration.
        // Pending transactions that would be dropped at forge are
        // skipped, mirroring the forger, and their signatures are owed
        // to their admission, as the forger owes them. A refusal leaves
        // the view taken: it may hold half of this transfer, and the
        // next call rebuilds it from `state`.
        let (mut view, applied) = self
            .pending_view
            .take()
            .unwrap_or_else(|| (self.state.clone(), 0));
        for pending in &self.pending[applied..] {
            let _ = pending.apply(&self.params, &mut view);
        }
        for tx in &txs {
            apply_transaction(&self.params, &mut view, tx)?;
        }
        self.pending.extend(txs.into_iter().map(Pending::admitted));
        let escrow_withdrawal = self.pending.last_mut().expect("`txs` ends with it");
        escrow_withdrawal.declares = Some(xct);
        self.pending_view = Some((view, self.pending.len()));
        self.xct_nonce += 1;
        Ok(xct)
    }

    /// Outbound cross-chain transfers accepted here and not yet declared
    /// by a produced certificate: the open epoch's, then those whose
    /// escrow withdrawals still wait in the pending queue.
    pub fn pending_cross_transfers(&self) -> Vec<CrossChainTransfer> {
        let queued = self.pending.iter().filter_map(|pending| pending.declares);
        self.declared.iter().copied().chain(queued).collect()
    }

    /// Inbound cross-chain transfers credited on this sidechain.
    pub fn inbound_cross_transfers(&self) -> &[InboundCrossTransfer] {
        self.state.inbound_cross_transfers()
    }

    /// Observes the next mainchain block: forges the sidechain block
    /// referencing it (with any pending transactions) into a clone of the
    /// state and adopts it through the step [`LatusNode::receive_block`]
    /// shares, which also tracks withdrawal-epoch boundaries (Fig 6/7).
    ///
    /// `commitment` is the block's sc-txs commitment, built once by
    /// whoever delivers the block and shared by every sidechain node it
    /// is delivered to: this node takes its part of it
    /// ([`McBlockReference::derive`]) and rebuilds nothing. A caller
    /// holding only the block builds the commitment from the block's
    /// transactions first, as the mainchain's stage 1 does.
    ///
    /// Returns the forged block.
    ///
    /// # Errors
    ///
    /// [`NodeError`] on non-contiguous MC blocks, a commitment that is
    /// not the one the block's header commits to, malformed data or a
    /// forger that wins no slot. A refused forge changes nothing: the
    /// state, the chain, the slot, the pending queue, the certificate
    /// inclusions and the rollback snapshots stay as they were.
    pub fn sync_mainchain_block(
        &mut self,
        mc_block: &zendoo_mainchain::Block,
        commitment: &ScTxsCommitment,
    ) -> Result<ScBlock, NodeError> {
        if mc_block.header.parent != self.last_mc_ref {
            return Err(NodeError::NonContiguousMcBlock {
                expected: self.last_mc_ref,
                found: mc_block.header.parent,
            });
        }
        let reference = McBlockReference::derive(mc_block, commitment, &self.params.sidechain_id)?;
        self.refresh_stake();
        let (slot, vrf_proof) = self.find_leading_slot()?;

        // The synchronized halves are mandatory; their failure refuses
        // the block (the MC reference itself is malformed) before the
        // pending queue is touched.
        let mut next = self.state.clone();
        let mut recorded = Vec::new();
        let sync_txs = [
            ScTransaction::ForwardTransfers(reference.forward_transfers.clone()),
            ScTransaction::BackwardTransferRequests(reference.backward_transfer_requests.clone()),
        ];
        for tx in &sync_txs {
            let witness = apply_transaction(&self.params, &mut next, tx)?;
            recorded.push((witness, next.digest()));
        }

        // Pending user transactions: conflicts (e.g. two payments racing
        // for one UTXO) are dropped with their declarations. Every rule
        // runs again on the new state except the signature checks
        // admission already made.
        let mut included = Vec::new();
        let mut declared = Vec::new();
        for pending in std::mem::take(&mut self.pending) {
            if let Ok(witness) = pending.apply(&self.params, &mut next) {
                recorded.push((witness, next.digest()));
                declared.extend(pending.declares);
                included.push(pending.tx);
            }
        }

        let mut block = ScBlock {
            header: ScBlockHeader {
                parent: self.chain.last().map_or(Digest32::ZERO, ScBlock::hash),
                height: self.chain.len() as u64,
                slot,
                forger: self.forger.public,
                vrf_proof,
                tx_root: Digest32::ZERO,
                mc_ref_hashes: vec![reference.mc_block_hash()],
                state_digest: next.digest(),
                signature: Signature::from_bytes(&[0; 65]).expect("the unsigned placeholder"),
            },
            mc_references: vec![reference],
            transactions: included,
        };
        block.header.tx_root = block.compute_tx_root();
        block.header.sign(&self.forger.secret);
        self.adopt(block.clone(), next, recorded);
        self.declared.extend(declared);
        Ok(block)
    }

    /// Refreshes the stake snapshot at consensus-epoch boundaries, before
    /// a slot's leadership is claimed or checked.
    fn refresh_stake(&mut self) {
        let slot_epoch = self.consensus.epoch_of_slot(self.next_slot);
        if slot_epoch != self.stake_epoch || (self.chain.is_empty() && self.stake.is_empty()) {
            self.stake = StakeDistribution::snapshot(&self.state);
            self.stake_epoch = slot_epoch;
        }
    }

    /// The first slot from `next_slot` on that this node's forger leads
    /// (slot leadership lottery, §5.1), with its VRF proof: `None` where
    /// leadership is vacuous, and that slot is `next_slot`.
    fn find_leading_slot(
        &self,
    ) -> Result<(u64, Option<zendoo_primitives::vrf::VrfProof>), NodeError> {
        if self
            .consensus
            .leadership_is_vacuous(&self.stake, &self.forger.public)
        {
            return Ok((self.next_slot, None));
        }
        // Staked forgers search forward for a leading slot (expected
        // 1/φ(α) tries); a forger without stake never leads.
        (self.next_slot..self.next_slot + 100_000)
            .find_map(|slot| {
                try_lead_slot(&self.consensus, &self.stake, &self.forger.secret, slot)
                    .map(|proof| (slot, Some(proof)))
            })
            .ok_or(NodeError::Unavailable(
                "forger holds no stake and never wins a slot",
            ))
    }

    /// Validates a block forged by *another* node (the validator path):
    /// checks chain linkage, the 1:1 MC reference discipline, an unspent
    /// slot, VRF slot leadership against the epoch's stake snapshot, and
    /// then, on a clone of the state, the forger's header signature and
    /// full stateful validity, every signature owed to one batch with
    /// the header's first. A refused walk or batch walks a fresh clone
    /// again eagerly, so a refusal is the inline validator's, by name.
    /// Then adopts it through the step
    /// [`LatusNode::sync_mainchain_block`] shares, recording the
    /// transition witnesses so this node can also serve proofs and
    /// certificates.
    ///
    /// # Errors
    ///
    /// [`NodeError`] naming the violated rule, [`NodeError::Block`] for
    /// a block that fails stateful validation. A refused block changes
    /// nothing, as a refused forge does.
    pub fn receive_block(
        &mut self,
        block: &ScBlock,
        mc_block: &zendoo_mainchain::Block,
    ) -> Result<(), NodeError> {
        if mc_block.header.parent != self.last_mc_ref {
            return Err(NodeError::NonContiguousMcBlock {
                expected: self.last_mc_ref,
                found: mc_block.header.parent,
            });
        }
        let header = &block.header;
        let tip = self.chain.last().map_or(Digest32::ZERO, ScBlock::hash);
        if header.parent != tip || header.height != self.chain.len() as u64 {
            return Err(NodeError::NotOnTip);
        }
        if header.mc_ref_hashes != vec![mc_block.hash()] {
            return Err(NodeError::WrongMcReference);
        }
        if header.slot < self.next_slot {
            return Err(NodeError::SpentSlot(header.slot));
        }
        self.refresh_stake();
        if !crate::consensus::verify_block_leadership(
            &self.consensus,
            &self.stake,
            &header.forger,
            header.slot,
            header.vrf_proof.as_ref(),
        ) {
            return Err(NodeError::NotLeader { slot: header.slot });
        }

        let walk = |sigs: &mut Deferred| {
            header.authorize(sigs, || NodeError::BadHeaderSignature)?;
            let mut next = self.state.clone();
            crate::block::apply_block(&self.params, &mut next, block, self.last_mc_ref, sigs)
                .map(|recorded| (next, recorded))
                .map_err(NodeError::Block)
        };
        let mut sigs = Deferred::new();
        let (next, recorded) = match walk(&mut sigs) {
            Ok(walked) if sigs.discharge() => walked,
            _ => walk(&mut Deferred::eager())?,
        };
        self.adopt(block.clone(), next, recorded);
        Ok(())
    }

    /// Makes `block` the tip, with `state` the state after it and
    /// `recorded` its transition witnesses: the one step by which a
    /// forged or received block joins the node. The old state moves into
    /// the rollback snapshot. Every adopted block references exactly one
    /// MC block.
    fn adopt(
        &mut self,
        block: ScBlock,
        state: SidechainState,
        recorded: Vec<(TransitionWitness, Fp)>,
    ) {
        self.snapshots.push_back(NodeSnapshot {
            state: std::mem::replace(&mut self.state, state),
            declared: self.declared.clone(),
            epoch_builder: self.epoch_builder.clone(),
            last_mc_ref: self.last_mc_ref,
            chain_len: self.chain.len(),
            epoch_start: self.epoch_start,
            current_epoch: self.current_epoch,
            cert_inclusions: self.cert_inclusions.clone(),
        });
        // A certificate's inclusion proof is the reference's own
        // membership evidence: `derive` takes both from one commitment,
        // and `apply_block` holds a received `wcert` to it.
        for reference in &block.mc_references {
            if let (Some(certificate), Some(inclusion)) = (&reference.wcert, reference.membership())
            {
                self.cert_inclusions.insert(
                    certificate.epoch_id,
                    Arc::new(CertInclusion {
                        certificate: certificate.clone(),
                        mc_header: *reference.mc_header(),
                        inclusion: inclusion.clone(),
                    }),
                );
            }
        }
        self.epoch_builder.record_block(recorded);
        self.last_mc_ref = block.header.mc_ref_hashes[0];
        self.next_slot = block.header.slot + 1;
        self.chain.push(block);
        self.pending_view = None;
        self.prune_snapshots();
    }

    /// Returns `true` if the node has referenced the last MC block of
    /// the current withdrawal epoch and can produce its certificate.
    pub fn epoch_complete(&self) -> bool {
        self.chain.len() - self.epoch_start == self.schedule.epoch_len() as usize
    }

    /// Closes the current withdrawal epoch: generates the recursive
    /// epoch proof, wraps it in the certificate SNARK, resets the
    /// transient state, and returns the certificate ready for MC
    /// submission (§5.5.3.1).
    ///
    /// # Errors
    ///
    /// [`NodeError::EpochNotComplete`] before the boundary;
    /// [`NodeError::Unavailable`], the node unchanged, when the epoch's
    /// anchors or an escrow withdrawal's declaration are not held here;
    /// [`NodeError::Prove`] if any witness is inconsistent.
    pub fn produce_certificate(&mut self) -> Result<WithdrawalCertificate, NodeError> {
        let (cert, public, witness) = self.certificate_statement()?;
        self.seal_certificate(cert, &public, witness)
    }

    /// The first half of [`LatusNode::produce_certificate`]: proves the
    /// epoch, closes its transients and returns the unproven certificate
    /// with the certificate statement `(public, witness)`.
    fn certificate_statement(
        &mut self,
    ) -> Result<(WithdrawalCertificate, PublicInputs, WcertWitness), NodeError> {
        if !self.epoch_complete() {
            return Err(NodeError::EpochNotComplete);
        }
        let epoch = self.current_epoch;

        // Previous-epoch anchors.
        let (prev_mst_root, prev_sc_block) = if epoch == 0 {
            (Mst::new(self.params.mst_depth).root(), Digest32::ZERO)
        } else {
            let prev_cert = self
                .produced_certs
                .get(&(epoch - 1))
                .ok_or(NodeError::Unavailable("previous certificate unknown"))?;
            let (sc_block, root, _) = crate::cert::parse_wcert_proofdata(&prev_cert.proofdata)
                .ok_or(NodeError::Unavailable("previous proofdata unparseable"))?;
            (root, sc_block)
        };

        // The previous certificate's MC inclusion anchors this epoch's
        // recursion. Resolve it *before* any destructive step: a node
        // that never observed it (the certificate was reorged away or
        // never mined) must fail with its transients intact, so that a
        // late-arriving inclusion still lets the next attempt prove
        // against a consistent pre-state.
        let prev_cert_inclusion = if epoch == 0 {
            None
        } else {
            let inclusion =
                self.cert_inclusions
                    .get(&(epoch - 1))
                    .ok_or(NodeError::Unavailable(
                        "previous certificate inclusion not observed on MC",
                    ))?;
            Some(CertInclusion::clone(inclusion))
        };

        // The epoch's escrow withdrawals must pair with its declarations,
        // also checked before any destructive step: only another forger's
        // block brings a withdrawal declared elsewhere.
        check_escrow_pairing(&self.declared, self.state.backward_transfers()).map_err(|_| {
            NodeError::Unavailable("escrow withdrawal without a declared cross-chain transfer")
        })?;

        // The recursive proof over the epoch (Fig 11).
        let state_proof = self.epoch_builder.prove(&self.keys.system)?;

        // Close the epoch's transients.
        let declared = std::mem::take(&mut self.declared);
        let final_mst_root = self.state.mst().root();
        self.pending_view = None;
        let (bt_list, delta, touch_sequence) = self.state.end_epoch();
        let blocks = &self.chain[self.epoch_start..];
        let sc_headers: Vec<ScBlockHeader> = blocks.iter().map(|b| b.header.clone()).collect();
        let mc_headers: Vec<zendoo_mainchain::BlockHeader> = blocks
            .iter()
            .map(|b| *b.mc_references[0].mc_header())
            .collect();
        self.epoch_start = self.chain.len();

        let last_sc = sc_headers.last().expect("epoch complete");
        let proofdata = wcert_proofdata(last_sc.hash(), final_mst_root, &delta, &declared);
        let cert = WithdrawalCertificate {
            sidechain_id: self.params.sidechain_id,
            epoch_id: epoch,
            quality: last_sc.height,
            bt_list: bt_list.clone(),
            proofdata,
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65])
                .expect("zero proof placeholder"),
        };

        let prev_mc_end = mc_headers[0].parent;
        let mc_end = mc_headers.last().expect("epoch complete").hash();
        let sysdata = WcertSysData::for_certificate(&cert, prev_mc_end, mc_end);
        let public = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());

        let witness = WcertWitness {
            epoch_id: epoch,
            sc_headers,
            prev_sc_block,
            mc_headers,
            state_proof,
            prev_mst_root,
            final_mst_root,
            bt_list,
            delta,
            touch_sequence,
            prev_cert: prev_cert_inclusion,
            declared,
        };
        Ok((cert, public, witness))
    }

    /// The second half of [`LatusNode::produce_certificate`]: proves the
    /// certificate statement, archives the epoch and opens the next.
    fn seal_certificate(
        &mut self,
        mut cert: WithdrawalCertificate,
        public: &PublicInputs,
        witness: WcertWitness,
    ) -> Result<WithdrawalCertificate, NodeError> {
        cert.proof = prove(
            &self.keys.wcert_pk,
            &self.keys.wcert_circuit,
            public,
            &witness,
        )?;

        // Archive per-epoch material for user proof services.
        let epoch = cert.epoch_id;
        self.epoch_msts.insert(epoch, self.state.mst().clone());
        self.epoch_deltas.insert(epoch, witness.delta);
        self.produced_certs.insert(epoch, cert.clone());

        // Open the next epoch; the stake distribution for its slots is
        // fixed now ("SD is fixed before the epoch begins", §5.1).
        self.current_epoch += 1;
        self.epoch_builder = EpochProofBuilder::new(self.state.digest());
        self.stake = StakeDistribution::snapshot(&self.state);
        Ok(cert)
    }

    /// The certificate this node produced for `epoch`, if any.
    pub fn certificate_for(&self, epoch: EpochId) -> Option<&WithdrawalCertificate> {
        self.produced_certs.get(&epoch)
    }

    /// The certificate inclusion observed on the MC for `epoch`.
    pub fn cert_inclusion_for(&self, epoch: EpochId) -> Option<&CertInclusion> {
        self.cert_inclusions.get(&epoch).map(Arc::as_ref)
    }

    /// Builds a fully proven BTR for a UTXO committed by the certificate
    /// of `anchor_epoch` (§5.5.3.2). The caller submits it to the MC.
    ///
    /// # Errors
    ///
    /// [`NodeError::Unavailable`] when the anchor material is missing;
    /// [`NodeError::Prove`] if the statement does not hold.
    pub fn create_btr(
        &self,
        anchor_epoch: EpochId,
        utxo: &Utxo,
        owner: &SecretKey,
        receiver: Address,
    ) -> Result<BackwardTransferRequest, NodeError> {
        let witness = self.ownership_witness("btr", anchor_epoch, utxo, owner, receiver)?;
        let public = withdrawal_inputs(utxo, receiver, witness.anchor_cert.mc_header.hash());
        Ok(BackwardTransferRequest {
            sidechain_id: self.params.sidechain_id,
            receiver,
            amount: utxo.amount,
            nullifier: utxo.nullifier(),
            proofdata: utxo_proofdata(utxo),
            proof: prove(&self.keys.btr_pk, &self.keys.btr_circuit, &public, &witness)?,
        })
    }

    /// Builds a fully proven CSW against the certificate of
    /// `anchor_epoch` (§5.5.3.3, direct mode).
    ///
    /// # Errors
    ///
    /// As for [`LatusNode::create_btr`].
    pub fn create_csw(
        &self,
        anchor_epoch: EpochId,
        utxo: &Utxo,
        owner: &SecretKey,
        receiver: Address,
    ) -> Result<CeasedSidechainWithdrawal, NodeError> {
        let witness = self.ownership_witness("csw", anchor_epoch, utxo, owner, receiver)?;
        let anchor_block = witness.anchor_cert.mc_header.hash();
        self.build_csw(utxo, receiver, anchor_block, CswWitness::Direct(witness))
    }

    /// Builds a historical CSW: ownership proven at `anchor_epoch`, then
    /// `mst_delta` links up to `latest_epoch` showing the slot untouched
    /// (Appendix A — works even if later states were withheld).
    ///
    /// # Errors
    ///
    /// As for [`LatusNode::create_btr`].
    pub fn create_historical_csw(
        &self,
        anchor_epoch: EpochId,
        latest_epoch: EpochId,
        utxo: &Utxo,
        owner: &SecretKey,
        receiver: Address,
        later_deltas: &BTreeMap<EpochId, MstDelta>,
    ) -> Result<CeasedSidechainWithdrawal, NodeError> {
        let base = self.ownership_witness("csw", anchor_epoch, utxo, owner, receiver)?;
        let mut later = Vec::new();
        for epoch in (anchor_epoch + 1)..=latest_epoch {
            let cert = self
                .cert_inclusion_for(epoch)
                .ok_or(NodeError::Unavailable("later certificate inclusion"))?
                .clone();
            let delta = later_deltas
                .get(&epoch)
                .ok_or(NodeError::Unavailable("later delta"))?
                .clone();
            later.push(DeltaLink { cert, delta });
        }
        let anchor_block = later
            .last()
            .map(|l| l.cert.mc_header.hash())
            .ok_or(NodeError::Unavailable("historical mode needs later epochs"))?;
        self.build_csw(
            utxo,
            receiver,
            anchor_block,
            CswWitness::Historical { base, later },
        )
    }

    fn build_csw(
        &self,
        utxo: &Utxo,
        receiver: Address,
        anchor_block: Digest32,
        witness: CswWitness,
    ) -> Result<CeasedSidechainWithdrawal, NodeError> {
        let public = withdrawal_inputs(utxo, receiver, anchor_block);
        let proof = prove(&self.keys.csw_pk, &self.keys.csw_circuit, &public, &witness)?;
        Ok(CeasedSidechainWithdrawal {
            sidechain_id: self.params.sidechain_id,
            receiver,
            amount: utxo.amount,
            nullifier: utxo.nullifier(),
            proofdata: utxo_proofdata(utxo),
            proof,
        })
    }

    fn ownership_witness(
        &self,
        domain: &str,
        anchor_epoch: EpochId,
        utxo: &Utxo,
        owner: &SecretKey,
        receiver: Address,
    ) -> Result<OwnershipWitness, NodeError> {
        let mst = self
            .epoch_msts
            .get(&anchor_epoch)
            .ok_or(NodeError::Unavailable("epoch MST snapshot"))?;
        let anchor_cert = self
            .cert_inclusion_for(anchor_epoch)
            .ok_or(NodeError::Unavailable("anchor certificate inclusion"))?
            .clone();
        let position = mst_position(utxo, self.params.mst_depth);
        let mst_proof = mst.proof(position);
        let anchor_block = anchor_cert.mc_header.hash();
        let authorization = sign_withdrawal(domain, owner, utxo, &receiver, &anchor_block);
        Ok(OwnershipWitness {
            utxo: *utxo,
            owner: owner.public_key(),
            authorization,
            mst_proof,
            anchor_cert,
        })
    }

    /// The delta committed for a closed epoch (what an honest node
    /// publishes; users collect these for historical proofs).
    pub fn epoch_delta(&self, epoch: EpochId) -> Option<&MstDelta> {
        self.epoch_deltas.get(&epoch)
    }

    /// Rolls the node back so that the last referenced MC block is
    /// `mc_hash` (mainchain fork resolution, §5.1: "SC blocks that refer
    /// to forked blocks in the MC would also be reverted").
    ///
    /// Returns the number of SC blocks reverted.
    ///
    /// # Errors
    ///
    /// [`NodeError::Unavailable`] when the target was never referenced.
    pub fn rollback_to_mc(&mut self, mc_hash: &Digest32) -> Result<usize, NodeError> {
        if self.last_mc_ref == *mc_hash {
            return Ok(0);
        }
        // Find the snapshot whose last_mc_ref matches.
        let target = self
            .snapshots
            .iter()
            .rposition(|s| s.last_mc_ref == *mc_hash)
            .ok_or(NodeError::Unavailable("rollback target not in history"))?;
        // The target snapshot and everything after it describe blocks
        // that are about to be gone: take it out, drop the rest.
        self.snapshots.truncate(target + 1);
        let snapshot = self.snapshots.pop_back().expect("target is in range");
        let reverted = self.chain.len() - snapshot.chain_len;
        // The first reverted block's slot stays spent: a second block
        // forged in it would equivocate.
        self.next_slot = self.chain[snapshot.chain_len].header.slot + 1;
        self.pending_view = None;
        self.state = snapshot.state;
        self.declared = snapshot.declared;
        self.epoch_builder = snapshot.epoch_builder;
        self.last_mc_ref = snapshot.last_mc_ref;
        self.chain.truncate(snapshot.chain_len);
        self.epoch_start = snapshot.epoch_start;
        // Un-observe everything the disconnected blocks taught us: a
        // certificate inclusion carried only by a reverted block must
        // not anchor a later proof, and if the rollback crosses an
        // epoch boundary, the closed epoch reopens — its archived
        // certificate, MST and delta describe a history that no longer
        // happened.
        self.cert_inclusions = snapshot.cert_inclusions;
        if snapshot.current_epoch < self.current_epoch {
            self.current_epoch = snapshot.current_epoch;
            self.produced_certs.split_off(&snapshot.current_epoch);
            self.epoch_msts.split_off(&snapshot.current_epoch);
            self.epoch_deltas.split_off(&snapshot.current_epoch);
        }
        Ok(reverted)
    }

    /// Spendable UTXOs of an address in the current state.
    pub fn utxos_of(&self, address: &Address) -> Vec<Utxo> {
        self.state
            .mst()
            .owned_by(address)
            .into_iter()
            .map(|(_, u)| u)
            .collect()
    }

    /// Balance of an address in the current state.
    pub fn balance_of(&self, address: &Address) -> Amount {
        self.state.balance_of(address)
    }
}

/// The public inputs of a BTR or CSW withdrawing `utxo` to `receiver`
/// against the certificate carried by MC block `anchor_block`.
fn withdrawal_inputs(utxo: &Utxo, receiver: Address, anchor_block: Digest32) -> PublicInputs {
    let sysdata = BtrSysData {
        last_cert_block: anchor_block,
        nullifier: utxo.nullifier(),
        receiver,
        amount: utxo.amount,
    };
    btr_public_inputs(&sysdata, &utxo_proofdata(utxo).merkle_root())
}

impl std::fmt::Debug for LatusNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatusNode")
            .field("sidechain", &self.params.sidechain_id)
            .field("height", &self.chain.len())
            .field("epoch", &self.current_epoch)
            .field("utxos", &self.state.mst().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::ReceiverMetadata;
    use crate::wallet::ScWallet;
    use zendoo_mainchain::chain::{Blockchain, ChainParams};
    use zendoo_mainchain::transaction::{McTransaction, TxOut};
    use zendoo_mainchain::wallet::Wallet;
    use zendoo_primitives::field::Fp;
    use zendoo_primitives::opcount::{measure, OpCount};
    use zendoo_snark::circuit::{constraint_cost, gadget_cost, Circuit};

    /// `receive_block` executes a block once, on a clone it then adopts:
    /// the follower must record exactly the transition steps (and
    /// per-step digests) the forger recorded while building the block.
    #[test]
    fn follower_epoch_builder_matches_forger_after_multi_transaction_block() {
        let mc_wallet = Wallet::from_seed(b"mc-user");
        let alice = ScWallet::from_seed(b"sc-alice");
        let sid = SidechainId::from_label("node-follower");
        let params = LatusParams::new(sid, 16);
        let schedule = EpochSchedule::new(2, 6, 2).unwrap();
        let keys = Arc::new(LatusKeys::generate(params, schedule, b"node-test"));
        let mut chain = Blockchain::new(ChainParams {
            genesis_outputs: vec![TxOut::regular(
                mc_wallet.address(),
                Amount::from_units(100_000),
            )],
            ..ChainParams::default()
        });
        let declaration =
            McTransaction::SidechainDeclaration(Box::new(keys.sidechain_config(&params, schedule)));
        chain
            .mine_next_block(mc_wallet.address(), vec![declaration], 1)
            .unwrap();
        let forger_keys = Keypair::from_seed(b"forger");
        let node = |keypair: Keypair| {
            LatusNode::new(
                params,
                schedule,
                ConsensusParams::with_bootstrap(forger_keys.public),
                Arc::clone(&keys),
                keypair,
                chain.tip_hash(),
            )
        };
        let mut forger = node(forger_keys.clone());
        let mut follower = node(Keypair::from_seed(b"follower"));

        // Two deposits, so the next block can carry two independent
        // withdrawals beside its synchronized halves.
        let meta = ReceiverMetadata {
            receiver: alice.address(),
            payback: mc_wallet.address(),
        };
        for time in 2..=3 {
            let ft = mc_wallet
                .forward_transfer(
                    &chain,
                    sid,
                    meta.to_bytes(),
                    Amount::from_units(1_000),
                    Amount::ZERO,
                )
                .unwrap();
            let mc_block = chain
                .mine_next_block(mc_wallet.address(), vec![ft], time)
                .unwrap();
            let sc_block = forger
                .sync_mainchain_block(
                    &mc_block,
                    &Blockchain::build_commitment(&mc_block.transactions),
                )
                .unwrap();
            follower.receive_block(&sc_block, &mc_block).unwrap();
        }
        for coin in forger.utxos_of(&alice.address()) {
            forger
                .submit_transaction(alice.withdraw_utxo(&coin, mc_wallet.address()))
                .unwrap();
        }
        let mc_block = chain
            .mine_next_block(mc_wallet.address(), vec![], 4)
            .unwrap();
        let sc_block = forger
            .sync_mainchain_block(
                &mc_block,
                &Blockchain::build_commitment(&mc_block.transactions),
            )
            .unwrap();
        assert_eq!(sc_block.transactions.len(), 2);
        follower.receive_block(&sc_block, &mc_block).unwrap();

        assert_eq!(follower.epoch_builder.len(), forger.epoch_builder.len());
        assert_eq!(follower.epoch_builder.len(), 3 * 2 + 2);
        assert_eq!(
            follower.epoch_builder.initial_digest(),
            forger.epoch_builder.initial_digest()
        );
        assert_eq!(
            follower.epoch_builder.final_digest(),
            forger.epoch_builder.final_digest()
        );
        assert_eq!(follower.state.digest(), forger.state.digest());
        // The rollback snapshot holds the pre-block state itself.
        let before = follower.snapshots.back().unwrap().state.digest();
        assert_eq!(before, forger.snapshots.back().unwrap().state.digest());
        assert_ne!(before, follower.state.digest());
    }

    /// A bad transfer signature in transition `k` of a multi-block epoch
    /// — recorded as a forger that never checked it would — is refused
    /// with the error the eager fold gives, transition `k`'s own
    /// `latus/input-auth`, by the epoch fold and by `produce_certificate`.
    #[test]
    fn a_bad_signature_in_transition_k_fails_as_the_eager_fold_does() {
        let mc_wallet = Wallet::from_seed(b"mc-user");
        let alice = Keypair::from_seed(b"sc-alice");
        let alice_address = Address::from_public_key(&alice.public);
        let sid = SidechainId::from_label("node-bad-signature");
        let params = LatusParams::new(sid, 16);
        let schedule = EpochSchedule::new(2, 4, 2).unwrap();
        let keys = Arc::new(LatusKeys::generate(params, schedule, b"node-test"));
        let mut chain = Blockchain::new(ChainParams {
            genesis_outputs: vec![TxOut::regular(
                mc_wallet.address(),
                Amount::from_units(100_000),
            )],
            ..ChainParams::default()
        });
        let declaration =
            McTransaction::SidechainDeclaration(Box::new(keys.sidechain_config(&params, schedule)));
        chain
            .mine_next_block(mc_wallet.address(), vec![declaration], 1)
            .unwrap();
        let forger = Keypair::from_seed(b"forger");
        let mut node = LatusNode::new(
            params,
            schedule,
            ConsensusParams::with_bootstrap(forger.public),
            Arc::clone(&keys),
            forger,
            chain.tip_hash(),
        );
        // Two deposits, then one payment in each of the epoch's last two
        // blocks.
        let meta = ReceiverMetadata {
            receiver: alice_address,
            payback: mc_wallet.address(),
        };
        for time in 2..=5 {
            let txs = if time <= 3 {
                vec![mc_wallet
                    .forward_transfer(
                        &chain,
                        sid,
                        meta.to_bytes(),
                        Amount::from_units(1_000),
                        Amount::ZERO,
                    )
                    .unwrap()]
            } else {
                let coin = node.utxos_of(&alice_address)[0];
                let pay = PaymentTx::create(
                    vec![(coin, &alice.secret)],
                    vec![(Address::from_label("bob"), coin.amount)],
                );
                node.submit_transaction(ScTransaction::Payment(pay))
                    .unwrap();
                vec![]
            };
            let mc_block = chain
                .mine_next_block(mc_wallet.address(), txs, time)
                .unwrap();
            node.sync_mainchain_block(
                &mc_block,
                &Blockchain::build_commitment(&mc_block.transactions),
            )
            .unwrap();
        }
        assert!(node.epoch_complete());

        // Transition k: the second payment, in the epoch's last block.
        let (_, witnesses) = node.epoch_builder.owned_chain();
        let payments: Vec<usize> = (0..witnesses.len())
            .filter(|&i| matches!(witnesses[i].tx, ScTransaction::Payment(_)))
            .collect();
        assert_eq!(payments.len(), 2);
        let k = payments[1];
        node.epoch_builder.tamper(k, |w| {
            if let ScTransaction::Payment(pay) = &mut w.tx {
                pay.inputs[0].signature = alice.secret.sign("zendoo/sc-sighash-v1", b"junk");
            }
        });

        let system = &keys.system;
        let (states, witnesses) = node.epoch_builder.owned_chain();
        let eager = (0..witnesses.len())
            .find_map(|i| {
                system
                    .prove_base(states[i], states[i + 1], &witnesses[i])
                    .err()
            })
            .expect("transition k is refused");
        let ProveError::Unsatisfied(unsatisfied) = &eager else {
            panic!("{eager:?}");
        };
        assert_eq!(unsatisfied.rule, "latus/input-auth");
        assert_eq!(
            system.prove_base(states[k], states[k + 1], &witnesses[k]),
            Err(eager.clone()),
            "the first refused transition is k"
        );

        assert_eq!(node.epoch_builder.prove(system), Err(eager.clone()));
        match node.produce_certificate() {
            Err(NodeError::Prove(error)) => assert_eq!(error, eager),
            other => panic!("certified over a bad signature: {other:?}"),
        }
    }

    /// Same-tick cross-chain transfers are validated against a kept view
    /// of the pending queue, each applying only the queue's new suffix.
    /// The oracle is the same node with the view dropped before every
    /// call — every submission rebuilt from `state`, as each used to be:
    /// the same `Ok` / `Err`, the same transfers, the same forged block.
    #[test]
    fn cross_transfers_validate_against_a_kept_view_of_the_queue() {
        let mc_wallet = Wallet::from_seed(b"mc-user");
        let alice = ScWallet::from_seed(b"sc-alice");
        let bob = ScWallet::from_seed(b"sc-bob");
        let sid = SidechainId::from_label("node-pending-view");
        let dest = SidechainId::from_label("node-pending-view-dest");
        let params = LatusParams::new(sid, 16);
        let schedule = EpochSchedule::new(2, 20, 2).unwrap();
        let keys = Arc::new(LatusKeys::generate(params, schedule, b"node-test"));
        let mut chain = Blockchain::new(ChainParams {
            genesis_outputs: vec![TxOut::regular(
                mc_wallet.address(),
                Amount::from_units(100_000),
            )],
            ..ChainParams::default()
        });
        let declaration =
            McTransaction::SidechainDeclaration(Box::new(keys.sidechain_config(&params, schedule)));
        chain
            .mine_next_block(mc_wallet.address(), vec![declaration], 1)
            .unwrap();
        let forger_keys = Keypair::from_seed(b"forger");
        let node = || {
            LatusNode::new(
                params,
                schedule,
                ConsensusParams::with_bootstrap(forger_keys.public),
                Arc::clone(&keys),
                forger_keys.clone(),
                chain.tip_hash(),
            )
        };
        // `kept` keeps its view between calls; `rebuilt` never has one.
        let (mut kept, mut rebuilt) = (node(), node());
        let meta = ReceiverMetadata {
            receiver: alice.address(),
            payback: mc_wallet.address(),
        };
        let mut time = 1;
        let mut sync_both = |chain: &mut Blockchain,
                             kept: &mut LatusNode,
                             rebuilt: &mut LatusNode,
                             txs: Vec<McTransaction>| {
            time += 1;
            let mc_block = chain
                .mine_next_block(mc_wallet.address(), txs, time)
                .unwrap();
            let block = kept
                .sync_mainchain_block(
                    &mc_block,
                    &Blockchain::build_commitment(&mc_block.transactions),
                )
                .unwrap();
            assert_eq!(
                block,
                rebuilt
                    .sync_mainchain_block(
                        &mc_block,
                        &Blockchain::build_commitment(&mc_block.transactions)
                    )
                    .unwrap()
            );
            assert!(kept.pending_view.is_none(), "a forged block drops the view");
            block
        };
        for _ in 0..8 {
            let ft = mc_wallet
                .forward_transfer(
                    &chain,
                    sid,
                    meta.to_bytes(),
                    Amount::from_units(1_000),
                    Amount::ZERO,
                )
                .unwrap();
            sync_both(&mut chain, &mut kept, &mut rebuilt, vec![ft]);
        }
        let coins = kept.utxos_of(&alice.address());
        assert_eq!(coins.len(), 8);

        // One tick: a split transfer, a whole-coin transfer, a plain
        // payment, a transfer racing the first for its coin, one racing
        // the plain payment for its coin, then four more that succeed.
        let payment = alice
            .pay(kept.state(), bob.address(), Amount::from_units(2_500))
            .unwrap();
        let ScTransaction::Payment(PaymentTx { inputs, .. }) = &payment else {
            panic!("pay builds a payment");
        };
        let paid_with: Vec<Utxo> = inputs.iter().map(|i| i.utxo).collect();
        assert_eq!(paid_with, coins[..3]);
        let secret = &alice.keypair().secret;
        let submit = |node: &mut LatusNode, coin: Utxo, units: u64| {
            zendoo_primitives::opcount::measure(|| {
                node.submit_cross_transfer(
                    vec![(coin, secret)],
                    Amount::from_units(units),
                    dest,
                    bob.address(),
                    alice.address(),
                )
                .map_err(|e| format!("{e:?}"))
            })
        };
        enum Step {
            Transfer(usize, u64),
            Pay,
        }
        use Step::{Pay, Transfer};
        let script = [
            (Transfer(3, 400), true),
            (Transfer(4, 1_000), true),
            (Pay, true),
            (Transfer(3, 100), false),
            (Transfer(0, 1_000), false),
            (Transfer(5, 300), true),
            (Transfer(6, 1_000), true),
            (Transfer(7, 999), true),
            (Transfer(7, 1), false),
        ];
        let mut costs = Vec::new();
        for (step, accepted) in script {
            match step {
                Pay => {
                    kept.submit_transaction(payment.clone()).unwrap();
                    rebuilt.submit_transaction(payment.clone()).unwrap();
                }
                Transfer(coin, units) => {
                    rebuilt.pending_view = None;
                    let (expected, full_cost) = submit(&mut rebuilt, coins[coin], units);
                    let (got, cost) = submit(&mut kept, coins[coin], units);
                    assert_eq!(got, expected, "coin {coin}, {units} units");
                    assert_eq!(got.is_ok(), accepted, "coin {coin}: {got:?}");
                    assert_eq!(kept.pending_view.is_some(), accepted);
                    costs.push((cost.permutations, full_cost.permutations));
                }
            }
        }
        assert_eq!(kept.pending.len(), 2 + 1 + 1 + 2 + 1 + 2);
        assert_eq!(kept.pending, rebuilt.pending);
        assert_eq!(
            kept.pending_cross_transfers(),
            rebuilt.pending_cross_transfers()
        );
        // The first submission meets an empty queue on both nodes. The
        // seventh (a split transfer like the first, right after an
        // accepted one) applies its own two transactions on the kept
        // view, whatever stands in the queue; rebuilt, it pays for the
        // seven queued before it as well.
        let (first, seventh) = (costs[0], costs[6]);
        assert_eq!(first.0, first.1);
        assert!(
            seventh.0 <= first.0 + first.0 / 4 && 3 * seventh.0 < seventh.1,
            "{costs:?}"
        );

        let block = sync_both(&mut chain, &mut kept, &mut rebuilt, vec![]);
        assert_eq!(
            block.transactions,
            kept.chain().last().unwrap().transactions
        );
        assert_eq!(
            block.transactions.len(),
            9,
            "every queued transaction forged"
        );
        assert_eq!(kept.state.digest(), rebuilt.state.digest());
        // The next tick starts from the forged state.
        let change = kept.utxos_of(&alice.address());
        let (got, _) = submit(&mut kept, change[0], 1);
        assert_eq!(got, submit(&mut rebuilt, change[0], 1).0);
        assert!(got.is_ok(), "{got:?}");
    }

    /// A mainchain whose genesis funds `miner`, with a Latus sidechain
    /// `label` of MST depth `depth` declared at height 1, and the
    /// sidechain's forger.
    fn deployment(
        label: &str,
        depth: u32,
        schedule: EpochSchedule,
        miner: &Wallet,
    ) -> (Blockchain, LatusNode) {
        let params = LatusParams::new(SidechainId::from_label(label), depth);
        let keys = Arc::new(LatusKeys::generate(params, schedule, b"node-test"));
        let mut chain = Blockchain::new(ChainParams {
            genesis_outputs: vec![TxOut::regular(miner.address(), Amount::from_units(100_000))],
            ..ChainParams::default()
        });
        let declaration =
            McTransaction::SidechainDeclaration(Box::new(keys.sidechain_config(&params, schedule)));
        chain
            .mine_next_block(miner.address(), vec![declaration], 1)
            .unwrap();
        let forger = Keypair::from_seed(b"forger");
        let node = LatusNode::new(
            params,
            schedule,
            ConsensusParams::with_bootstrap(forger.public),
            keys,
            forger,
            chain.tip_hash(),
        );
        (chain, node)
    }

    /// Mines the next MC block with `txs` and syncs `node` to it.
    fn mine(chain: &mut Blockchain, node: &mut LatusNode, miner: &Wallet, txs: Vec<McTransaction>) {
        let time = chain.height() + 1;
        let block = chain.mine_next_block(miner.address(), txs, time).unwrap();
        node.sync_mainchain_block(&block, &Blockchain::build_commitment(&block.transactions))
            .unwrap();
    }

    /// A forward transfer of `units` from `miner` to `receiver` on the
    /// sidechain.
    fn deposit(
        chain: &Blockchain,
        node: &LatusNode,
        miner: &Wallet,
        receiver: Address,
        units: u64,
    ) -> McTransaction {
        let meta = ReceiverMetadata {
            receiver,
            payback: miner.address(),
        };
        miner
            .forward_transfer(
                chain,
                node.params.sidechain_id,
                meta.to_bytes(),
                Amount::from_units(units),
                Amount::ZERO,
            )
            .unwrap()
    }

    /// Mines to the end of the node's epoch and certifies it, reading the
    /// certificate statement's operation counts and modelled cost off the
    /// witness `produce_certificate` proves.
    fn certify(
        chain: &mut Blockchain,
        node: &mut LatusNode,
        miner: &Wallet,
    ) -> (WithdrawalCertificate, OpCount, u64) {
        while !node.epoch_complete() {
            mine(chain, node, miner, vec![]);
        }
        let (cert, public, witness) = node.certificate_statement().unwrap();
        let circuit = &node.keys.wcert_circuit;
        let cost = constraint_cost(circuit, &public, &witness).unwrap();
        let ran = measure(|| circuit.check(&public, &witness)).1;
        let cert = node.seal_certificate(cert, &public, witness).unwrap();
        (cert, ran, cost)
    }

    /// The model half of the E1/E3 claim (the root
    /// `paper_claims::e1_e3_…` holds the mainchain half), read off the
    /// certificate statement the node proves. Epoch 0 credits a forward
    /// transfer and splits it in one payment into `PAYMENTS` outputs;
    /// epoch 1 spends each in its own payment. Both statements run
    /// exactly one in-circuit proof check, and the second runs exactly
    /// one permutation more per MST slot more that its epoch touched:
    /// (`PAYMENTS` spent + `PAYMENTS` created) − (1 minted + 1 spent +
    /// `PAYMENTS` created). Nothing else grows: the MC and SC header
    /// chains are SHA-256 work, which the model does not price.
    #[test]
    fn a_certificate_statement_is_one_proof_check_and_a_fold_per_touched_slot() {
        const PAYMENTS: u64 = 200;
        let miner = Wallet::from_seed(b"mc-user");
        let user = Keypair::from_seed(b"sc-user");
        let me = Address::from_public_key(&user.public);
        let schedule = EpochSchedule::new(2, 4, 2).unwrap();
        let (mut chain, mut node) = deployment("node-certificate-cost", 40, schedule, &miner);

        let ft = deposit(&chain, &node, &miner, me, PAYMENTS);
        mine(&mut chain, &mut node, &miner, vec![ft]);
        let funded = node.utxos_of(&me)[0];
        let split = PaymentTx::create(
            vec![(funded, &user.secret)],
            vec![(me, Amount::from_units(1)); PAYMENTS as usize],
        );
        node.submit_transaction(ScTransaction::Payment(split))
            .unwrap();
        let (small, small_ran, small_cost) = certify(&mut chain, &mut node, &miner);

        for coin in node.utxos_of(&me) {
            let pay = PaymentTx::create(vec![(coin, &user.secret)], vec![(me, coin.amount)]);
            node.submit_transaction(ScTransaction::Payment(pay))
                .unwrap();
        }
        let posted = McTransaction::Certificate(Box::new(small));
        mine(&mut chain, &mut node, &miner, vec![posted]);
        let (_, large_ran, large_cost) = certify(&mut chain, &mut node, &miner);

        for ran in [small_ran, large_ran] {
            assert_eq!((ran.proof_checks, ran.group_muls), (1, 1), "{ran:?}");
        }
        assert_eq!(
            large_ran.permutations - small_ran.permutations,
            (PAYMENTS + PAYMENTS) - (1 + 1 + PAYMENTS)
        );
        assert_eq!((small_ran.permutations, large_ran.permutations), (228, 426));
        for (ran, cost) in [(small_ran, small_cost), (large_ran, large_cost)] {
            assert_eq!(
                cost,
                gadget_cost::PROOF_VERIFY + ran.permutations * gadget_cost::POSEIDON_HASH2
            );
        }
        assert_eq!((small_cost, large_cost), (95_404, 143_518));
    }

    /// A digest enters a statement as two 128-bit limbs, and each limb
    /// has one value: any limb of a real certificate or BTR statement
    /// raised by 2¹²⁸ — which leaves its low 16 bytes, and so the digest
    /// they spell, as they were — is refused under the rule naming the
    /// input.
    #[test]
    fn a_digest_limb_raised_by_2_128_is_refused_by_name() {
        let miner = Wallet::from_seed(b"mc-user");
        let user = Keypair::from_seed(b"sc-user");
        let me = Address::from_public_key(&user.public);
        let schedule = EpochSchedule::new(2, 4, 2).unwrap();
        let (mut chain, mut node) = deployment("node-canonical-inputs", 16, schedule, &miner);
        let ft = deposit(&chain, &node, &miner, me, 400);
        mine(&mut chain, &mut node, &miner, vec![ft]);
        while !node.epoch_complete() {
            mine(&mut chain, &mut node, &miner, vec![]);
        }
        let mut two_128 = [0u8; 32];
        two_128[15] = 1;
        let two_128 = Fp::from_be_bytes_reduced(&two_128);
        let raised = |public: &PublicInputs, limb: usize| {
            let mut elements = public.elements().to_vec();
            elements[limb] += two_128;
            PublicInputs::from_elements(elements)
        };

        let (cert, public, witness) = node.certificate_statement().unwrap();
        let wcert = &node.keys.wcert_circuit;
        assert_eq!(wcert.check(&public, &witness), Ok(()));
        for (limbs, rule) in [
            (1..3, "wcert/bt-root-input"),
            (3..5, "wcert/prev-mc-end-input"),
            (5..7, "wcert/mc-end-input"),
            (7..9, "wcert/proofdata-input"),
        ] {
            for limb in limbs {
                let refused = wcert.check(&raised(&public, limb), &witness).unwrap_err();
                assert_eq!(refused.rule, rule, "limb {limb}");
            }
        }
        let cert = node.seal_certificate(cert, &public, witness).unwrap();
        mine(
            &mut chain,
            &mut node,
            &miner,
            vec![McTransaction::Certificate(Box::new(cert))],
        );

        let utxo = node.utxos_of(&me)[0];
        let receiver = Address::from_label("rescued");
        let witness = node
            .ownership_witness("btr", 0, &utxo, &user.secret, receiver)
            .unwrap();
        let public = withdrawal_inputs(&utxo, receiver, witness.anchor_cert.mc_header.hash());
        let btr = &node.keys.btr_circuit;
        assert_eq!(btr.check(&public, &witness), Ok(()));
        for (limbs, rule) in [
            (0..2, "btr/anchor-input"),
            (2..4, "btr/nullifier-input"),
            (4..6, "btr/receiver-input"),
            (7..9, "btr/proofdata-input"),
        ] {
            for limb in limbs {
                let refused = btr.check(&raised(&public, limb), &witness).unwrap_err();
                assert_eq!(refused.rule, rule, "limb {limb}");
            }
        }
    }
}
