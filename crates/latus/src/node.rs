//! The Latus full node: forging, mainchain synchronization, epoch
//! management and certificate production (paper §5.1, §5.4, §5.5).
//!
//! The node observes the mainchain block-by-block (the parent-child
//! relationship of §1: "sidechain nodes directly observe the mainchain"),
//! forges one sidechain block per observed MC block, accumulates the
//! epoch's transition witnesses, and at each withdrawal-epoch boundary
//! produces a certificate whose SNARK proof attests the entire epoch
//! (Fig 11). It also serves user-facing proof requests (BTR/CSW).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use zendoo_core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo_core::config::{SidechainConfig, SidechainConfigBuilder};
use zendoo_core::crosschain::{
    declared_transfers, escrow_address, CrossChainTransfer, InboundCrossTransfer,
};
use zendoo_core::epoch::EpochSchedule;
use zendoo_core::ids::{Address, Amount, EpochId, SidechainId};
use zendoo_core::withdrawal::{
    btr_public_inputs, BackwardTransferRequest, BtrSysData, CeasedSidechainWithdrawal,
};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::schnorr::{Keypair, SecretKey};
use zendoo_snark::backend::{prove, ProveError, ProvingKey, VerifyingKey};

use crate::block::{McBlockReference, McRefError, ScBlock, ScBlockHeader};
use crate::cert::{
    sign_withdrawal, utxo_proofdata, utxo_proofdata_schema, wcert_proofdata,
    wcert_proofdata_schema, BtrCircuit, CertInclusion, CswCircuit, CswWitness, DeltaLink,
    OwnershipWitness, WcertCircuit, WcertWitness,
};
use crate::consensus::{try_lead_slot, ConsensusParams, LeadershipProof, StakeDistribution};
use crate::mst::{mst_position, Mst, MstDelta, Utxo};
use crate::params::LatusParams;
use crate::proof::{proof_system, EpochProofBuilder, LatusProofSystem};
use crate::state::SidechainState;
use crate::tx::{
    apply_transaction, check_transaction, BackwardTransferTx, PaymentTx, ScTransaction, TxError,
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
    /// Proof generation failed (a bug or inconsistent state).
    Prove(ProveError),
    /// Certificate requested before the epoch's last MC block.
    EpochNotComplete,
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
            NodeError::Prove(e) => write!(f, "proving failed: {e}"),
            NodeError::EpochNotComplete => write!(f, "withdrawal epoch not complete"),
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

/// Snapshot for mainchain-reorg rollback. It costs O(block), not
/// O(state): the MST inside `state` is a root handle, `epoch_builder`
/// shares the epoch's witnesses block by block, and the certificate
/// inclusions are shared pointers.
struct NodeSnapshot {
    state: SidechainState,
    epoch_builder: EpochProofBuilder,
    last_mc_ref: Digest32,
    epoch_mc_headers: Vec<zendoo_mainchain::BlockHeader>,
    epoch_sc_headers: Vec<ScBlockHeader>,
    chain_len: usize,
    slot: u64,
    current_epoch: EpochId,
    /// Certificate inclusions observed so far. An MC reorg can
    /// disconnect the very block that carried a certificate; a
    /// rollback that kept the stale inclusion would later prove a
    /// certificate against a window that no longer carries it.
    cert_inclusions: BTreeMap<EpochId, Arc<CertInclusion>>,
}

/// A Latus full node / forger.
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
    pending: Vec<ScTransaction>,
    /// `state` with the first `.1` transactions of `pending` applied as
    /// the forger will apply them (failures skipped): what the next
    /// cross-chain transfer is validated against, kept between
    /// submissions so that each one applies only the queue's new
    /// suffix. Dropped wherever `pending` is taken or `state` changes.
    pending_view: Option<(SidechainState, usize)>,
    epoch_builder: EpochProofBuilder,
    current_epoch: EpochId,
    last_mc_ref: Digest32,
    epoch_mc_headers: Vec<zendoo_mainchain::BlockHeader>,
    epoch_sc_headers: Vec<ScBlockHeader>,
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
    /// Outbound cross-chain transfers awaiting declaration in a
    /// certificate (their escrow withdrawals sit in `pending`/state).
    pending_cross: Vec<CrossChainTransfer>,
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
            epoch_mc_headers: Vec::new(),
            epoch_sc_headers: Vec::new(),
            cert_inclusions: BTreeMap::new(),
            epoch_msts: BTreeMap::new(),
            epoch_deltas: BTreeMap::new(),
            produced_certs: BTreeMap::new(),
            stake: StakeDistribution::default(),
            stake_epoch: 0,
            next_slot: 0,
            pending_cross: Vec::new(),
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
        self.pending.push(tx);
        Ok(())
    }

    /// Initiates a sidechain→sidechain transfer: spends `inputs`
    /// (owned by one key) into an escrow withdrawal of exactly `amount`
    /// and registers the [`CrossChainTransfer`] for declaration in this
    /// epoch's certificate. When the inputs exceed `amount`, a change
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
        // here — a silently forge-dropped escrow would leave a stale
        // declared transfer behind. Pending transactions that would be
        // dropped at forge are skipped, mirroring the forger. A refusal
        // leaves the view taken: it may hold half of this transfer, and
        // the next call rebuilds it from `state`.
        let (mut view, applied) = self
            .pending_view
            .take()
            .unwrap_or_else(|| (self.state.clone(), 0));
        for tx in &self.pending[applied..] {
            let _ = apply_transaction(&self.params, &mut view, tx);
        }
        for tx in &txs {
            apply_transaction(&self.params, &mut view, tx)?;
        }
        self.pending.extend(txs);
        self.pending_view = Some((view, self.pending.len()));
        self.pending_cross.push(xct);
        self.xct_nonce += 1;
        Ok(xct)
    }

    /// Outbound cross-chain transfers not yet declared in a certificate.
    pub fn pending_cross_transfers(&self) -> &[CrossChainTransfer] {
        &self.pending_cross
    }

    /// Inbound cross-chain transfers credited on this sidechain.
    pub fn inbound_cross_transfers(&self) -> &[InboundCrossTransfer] {
        self.state.inbound_cross_transfers()
    }

    /// Observes the next mainchain block: forges the sidechain block
    /// referencing it (with any pending transactions), applies it, and
    /// tracks withdrawal-epoch boundaries (Fig 6/7).
    ///
    /// Returns the forged block.
    ///
    /// # Errors
    ///
    /// [`NodeError`] on non-contiguous MC blocks or malformed data.
    pub fn sync_mainchain_block(
        &mut self,
        mc_block: &zendoo_mainchain::Block,
    ) -> Result<ScBlock, NodeError> {
        if mc_block.header.parent != self.last_mc_ref {
            return Err(NodeError::NonContiguousMcBlock {
                expected: self.last_mc_ref,
                found: mc_block.header.parent,
            });
        }
        let reference = McBlockReference::derive(mc_block, &self.params.sidechain_id)?;

        // The rollback snapshot must describe the node *before* this
        // block, including which certificate inclusions it had seen.
        let pre_sync_inclusions = self.cert_inclusions.clone();

        // Record any certificate inclusion observed on the MC.
        if let Some((cert, proof)) = &reference.wcert {
            self.cert_inclusions.insert(
                cert.epoch_id,
                Arc::new(CertInclusion {
                    certificate: cert.clone(),
                    mc_header: mc_block.header,
                    inclusion: proof.clone(),
                }),
            );
        }

        // Refresh the stake snapshot at consensus-epoch boundaries.
        let slot_epoch = self.consensus.epoch_of_slot(self.next_slot);
        if slot_epoch != self.stake_epoch || (self.chain.is_empty() && self.stake.is_empty()) {
            self.stake = StakeDistribution::snapshot(&self.state);
            self.stake_epoch = slot_epoch;
        }

        // Find the forging slot (slot leadership lottery, §5.1).
        let leadership = self.find_leading_slot()?;

        // Snapshot for rollback, then build the block.
        let snapshot = NodeSnapshot {
            state: self.state.clone(),
            epoch_builder: self.epoch_builder.clone(),
            last_mc_ref: self.last_mc_ref,
            epoch_mc_headers: self.epoch_mc_headers.clone(),
            epoch_sc_headers: self.epoch_sc_headers.clone(),
            chain_len: self.chain.len(),
            slot: self.next_slot,
            current_epoch: self.current_epoch,
            cert_inclusions: pre_sync_inclusions,
        };

        let transactions = std::mem::take(&mut self.pending);
        self.pending_view = None;
        let result = self.forge_and_apply(reference, mc_block, transactions, leadership);
        match result {
            Ok(block) => {
                self.snapshots.push_back(snapshot);
                self.prune_snapshots();
                Ok(block)
            }
            Err(e) => {
                // Restore exactly (application mutates state lazily).
                self.state = snapshot.state;
                self.epoch_builder = snapshot.epoch_builder;
                self.last_mc_ref = snapshot.last_mc_ref;
                self.epoch_mc_headers = snapshot.epoch_mc_headers;
                self.epoch_sc_headers = snapshot.epoch_sc_headers;
                self.chain.truncate(snapshot.chain_len);
                self.next_slot = snapshot.slot;
                Err(e)
            }
        }
    }

    fn find_leading_slot(&mut self) -> Result<LeadershipProof, NodeError> {
        // The bootstrap authority (and anyone, while the chain is
        // entirely unstaked) forges without winning the lottery; the
        // VRF proof is still produced for auditability.
        if self.consensus.is_bootstrap_forger(&self.forger.public) || self.stake.total().is_zero() {
            let slot = self.next_slot;
            self.next_slot += 1;
            let (output, proof) =
                zendoo_primitives::vrf::prove(&self.forger.secret, &slot.to_be_bytes());
            return Ok(LeadershipProof {
                slot,
                output,
                proof,
            });
        }
        // Staked forgers search forward for a leading slot (expected
        // 1/φ(α) tries); a forger without stake never leads.
        for _ in 0..100_000u32 {
            let slot = self.next_slot;
            self.next_slot += 1;
            if let Some(leadership) =
                try_lead_slot(&self.consensus, &self.stake, &self.forger.secret, slot)
            {
                return Ok(leadership);
            }
        }
        Err(NodeError::Unavailable(
            "forger holds no stake and never wins a slot",
        ))
    }

    fn forge_and_apply(
        &mut self,
        reference: McBlockReference,
        mc_block: &zendoo_mainchain::Block,
        transactions: Vec<ScTransaction>,
        leadership: LeadershipProof,
    ) -> Result<ScBlock, NodeError> {
        let parent = self
            .chain
            .last()
            .map(|b| b.hash())
            .unwrap_or(Digest32::ZERO);
        let height = self.chain.len() as u64;

        // The synchronized halves are mandatory; their failure aborts
        // the block (the MC reference itself is malformed).
        let mut recorded = Vec::new();
        let sync_txs = [
            ScTransaction::ForwardTransfers(reference.forward_transfers.clone()),
            ScTransaction::BackwardTransferRequests(reference.backward_transfer_requests.clone()),
        ];
        for tx in &sync_txs {
            let witness = apply_transaction(&self.params, &mut self.state, tx)?;
            recorded.push((witness, self.state.digest()));
        }

        // Pending user transactions: conflicts (e.g. two payments racing
        // for one UTXO) are dropped, as a production forger would.
        let mut included = Vec::new();
        for tx in transactions {
            match apply_transaction(&self.params, &mut self.state, &tx) {
                Ok(witness) => {
                    recorded.push((witness, self.state.digest()));
                    included.push(tx);
                }
                Err(_) => { /* dropped from this block */ }
            }
        }

        let mut block = ScBlock {
            header: ScBlockHeader {
                parent,
                height,
                slot: leadership.slot,
                forger: self.forger.public,
                vrf_proof: leadership.proof,
                tx_root: Digest32::ZERO,
                mc_ref_hashes: vec![reference.mc_block_hash()],
                state_digest: self.state.digest(),
            },
            mc_references: vec![reference],
            transactions: included,
        };
        block.header.tx_root = block.compute_tx_root();

        self.epoch_builder.record_block(recorded);
        self.last_mc_ref = block.mc_references[0].mc_block_hash();
        self.epoch_mc_headers.push(mc_block.header);
        self.epoch_sc_headers.push(block.header.clone());
        self.chain.push(block.clone());
        Ok(block)
    }

    /// Validates and adopts a block forged by *another* node (the
    /// validator path): checks chain linkage, the 1:1 MC reference
    /// discipline, VRF slot leadership against the epoch's stake
    /// snapshot, and full stateful validity — recording the transition
    /// witnesses so this node can also serve proofs and certificates.
    ///
    /// # Errors
    ///
    /// [`NodeError`] naming the violated rule; the node state is
    /// unchanged on error.
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
        // Header linkage.
        let expected_parent = self
            .chain
            .last()
            .map(|b| b.hash())
            .unwrap_or(Digest32::ZERO);
        if block.header.parent != expected_parent || block.header.height != self.chain.len() as u64
        {
            return Err(NodeError::Unavailable("block does not extend our tip"));
        }
        if block.header.mc_ref_hashes != vec![mc_block.hash()] {
            return Err(NodeError::Unavailable(
                "block must reference exactly the observed MC block",
            ));
        }
        // Refresh the stake snapshot exactly as the forging path does,
        // then verify the forger's slot leadership (vacuous while the
        // chain is unstaked — the bootstrap authority window).
        let slot_epoch = self.consensus.epoch_of_slot(self.next_slot);
        if slot_epoch != self.stake_epoch || (self.chain.is_empty() && self.stake.is_empty()) {
            self.stake = StakeDistribution::snapshot(&self.state);
            self.stake_epoch = slot_epoch;
        }
        let leadership_ok = self.consensus.is_bootstrap_forger(&block.header.forger)
            || self.stake.total().is_zero()
            || crate::consensus::verify_block_leadership(
                &self.consensus,
                &self.stake,
                &block.header.forger,
                block.header.slot,
                &block.header.vrf_proof,
            );
        if !leadership_ok {
            return Err(NodeError::Unavailable("invalid slot leadership"));
        }

        // Execute the block once, on a clone: on error the clone is
        // dropped and the node is untouched; on success it becomes the
        // live state and the old state moves into the rollback snapshot.
        let mut next = self.state.clone();
        let recorded = crate::block::apply_block(&self.params, &mut next, block, self.last_mc_ref)
            .map_err(|_| NodeError::Unavailable("block failed stateful validation"))?;

        self.pending_view = None;
        let snapshot = NodeSnapshot {
            state: std::mem::replace(&mut self.state, next),
            epoch_builder: self.epoch_builder.clone(),
            last_mc_ref: self.last_mc_ref,
            epoch_mc_headers: self.epoch_mc_headers.clone(),
            epoch_sc_headers: self.epoch_sc_headers.clone(),
            chain_len: self.chain.len(),
            slot: self.next_slot,
            current_epoch: self.current_epoch,
            cert_inclusions: self.cert_inclusions.clone(),
        };
        self.epoch_builder.record_block(recorded);
        // Track certificate inclusions observed in the reference.
        for reference in &block.mc_references {
            if let Some((cert, proof)) = &reference.wcert {
                self.cert_inclusions.insert(
                    cert.epoch_id,
                    Arc::new(CertInclusion {
                        certificate: cert.clone(),
                        mc_header: mc_block.header,
                        inclusion: proof.clone(),
                    }),
                );
            }
        }
        self.last_mc_ref = mc_block.hash();
        self.epoch_mc_headers.push(mc_block.header);
        self.epoch_sc_headers.push(block.header.clone());
        self.chain.push(block.clone());
        self.next_slot = block.header.slot + 1;
        self.snapshots.push_back(snapshot);
        self.prune_snapshots();
        Ok(())
    }

    /// Returns `true` if the node has referenced the last MC block of
    /// the current withdrawal epoch and can produce its certificate.
    pub fn epoch_complete(&self) -> bool {
        self.epoch_mc_headers.len() == self.schedule.epoch_len() as usize
    }

    /// Closes the current withdrawal epoch: generates the recursive
    /// epoch proof, wraps it in the certificate SNARK, resets the
    /// transient state, and returns the certificate ready for MC
    /// submission (§5.5.3.1).
    ///
    /// # Errors
    ///
    /// [`NodeError::EpochNotComplete`] before the boundary;
    /// [`NodeError::Prove`] if any witness is inconsistent.
    pub fn produce_certificate(&mut self) -> Result<WithdrawalCertificate, NodeError> {
        if !self.epoch_complete() {
            return Err(NodeError::EpochNotComplete);
        }
        let epoch = self.current_epoch;
        let last_sc = self
            .epoch_sc_headers
            .last()
            .ok_or(NodeError::Unavailable("no SC blocks this epoch"))?
            .clone();

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

        // The recursive proof over the epoch (Fig 11).
        let state_proof = self.epoch_builder.prove(&self.keys.system)?;

        // Pair pending cross-chain transfers with the epoch's escrow
        // withdrawals, in BT-list order, *before* the destructive epoch
        // close — a pairing failure must leave the node state intact.
        // Transfers whose escrow did not land this epoch stay pending
        // for the next certificate. (An escrow withdrawal with no
        // declared transfer cannot arise through this node's own API —
        // `submit_transaction` rejects direct escrow withdrawals — but
        // a block from a hostile forger could carry one; failing here
        // without touching state keeps the error recoverable.)
        let escrow = escrow_address();
        let mut declared = Vec::new();
        let mut used = Vec::new();
        for bt in self
            .state
            .backward_transfers()
            .iter()
            .filter(|bt| bt.receiver == escrow)
        {
            let matched = self
                .pending_cross
                .iter()
                .enumerate()
                .find(|(i, xct)| !used.contains(i) && xct.amount == bt.amount);
            match matched {
                Some((i, xct)) => {
                    used.push(i);
                    declared.push(*xct);
                }
                None => {
                    return Err(NodeError::Unavailable(
                        "escrow withdrawal without a declared cross-chain transfer",
                    ));
                }
            }
        }
        used.sort_unstable();
        for i in used.into_iter().rev() {
            self.pending_cross.remove(i);
        }

        // Close the epoch's transients.
        let final_mst_root = self.state.mst().root();
        self.pending_view = None;
        let (bt_list, delta, touch_sequence) = self.state.end_epoch();

        let proofdata = wcert_proofdata(last_sc.hash(), final_mst_root, &delta, &declared);
        let mut cert = WithdrawalCertificate {
            sidechain_id: self.params.sidechain_id,
            epoch_id: epoch,
            quality: last_sc.height,
            bt_list: bt_list.clone(),
            proofdata,
            proof: zendoo_snark::backend::Proof::from_bytes(&[0u8; 65])
                .expect("zero proof placeholder"),
        };

        let prev_mc_end = self.epoch_mc_headers[0].parent;
        let mc_end = self.epoch_mc_headers.last().expect("epoch complete").hash();
        let sysdata = WcertSysData::for_certificate(&cert, prev_mc_end, mc_end);
        let public = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());

        let witness = WcertWitness {
            epoch_id: epoch,
            sc_headers: std::mem::take(&mut self.epoch_sc_headers),
            prev_sc_block,
            mc_headers: std::mem::take(&mut self.epoch_mc_headers),
            state_proof,
            prev_mst_root,
            final_mst_root,
            bt_list,
            delta: delta.clone(),
            touch_sequence,
            prev_cert: prev_cert_inclusion,
            declared,
        };
        cert.proof = prove(
            &self.keys.wcert_pk,
            &self.keys.wcert_circuit,
            &public,
            &witness,
        )?;

        // Archive per-epoch material for user proof services.
        self.epoch_msts.insert(epoch, self.state.mst().clone());
        self.epoch_deltas.insert(epoch, delta);
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
        let anchor_block = witness.anchor_cert.mc_header.hash();
        let btr = BackwardTransferRequest {
            sidechain_id: self.params.sidechain_id,
            receiver,
            amount: utxo.amount,
            nullifier: utxo.nullifier(),
            proofdata: utxo_proofdata(utxo),
            proof: {
                let sysdata = BtrSysData {
                    last_cert_block: anchor_block,
                    nullifier: utxo.nullifier(),
                    receiver,
                    amount: utxo.amount,
                };
                let public = btr_public_inputs(&sysdata, &utxo_proofdata(utxo).merkle_root());
                prove(&self.keys.btr_pk, &self.keys.btr_circuit, &public, &witness)?
            },
        };
        Ok(btr)
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
        let sysdata = BtrSysData {
            last_cert_block: anchor_block,
            nullifier: utxo.nullifier(),
            receiver,
            amount: utxo.amount,
        };
        let public = btr_public_inputs(&sysdata, &utxo_proofdata(utxo).merkle_root());
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
        self.pending_view = None;
        self.state = snapshot.state;
        self.epoch_builder = snapshot.epoch_builder;
        self.last_mc_ref = snapshot.last_mc_ref;
        self.epoch_mc_headers = snapshot.epoch_mc_headers;
        self.epoch_sc_headers = snapshot.epoch_sc_headers;
        self.chain.truncate(snapshot.chain_len);
        self.next_slot = snapshot.slot;
        // Un-observe everything the disconnected blocks taught us: a
        // certificate inclusion carried only by a reverted block must
        // not anchor a later proof, and if the rollback crosses an
        // epoch boundary, the closed epoch reopens — its archived
        // certificate, MST and delta describe a history that no longer
        // happened.
        self.cert_inclusions = snapshot.cert_inclusions;
        if snapshot.current_epoch < self.current_epoch {
            self.current_epoch = snapshot.current_epoch;
            let reopened = self.produced_certs.split_off(&snapshot.current_epoch);
            self.epoch_msts.split_off(&snapshot.current_epoch);
            self.epoch_deltas.split_off(&snapshot.current_epoch);
            // The reopened epoch's certificate consumed the transfers
            // it declared. Those whose escrow withdrawal survives in
            // the restored state (declarations follow BT-list order)
            // wait for the next certificate again — or it could never
            // pair them and the chain would stop certifying.
            let escrow = escrow_address();
            let bts = self.state.backward_transfers();
            let surviving = bts.iter().filter(|bt| bt.receiver == escrow).count();
            let declared = reopened
                .values()
                .next()
                .and_then(|cert| declared_transfers(cert).ok())
                .unwrap_or_default();
            self.pending_cross
                .splice(0..0, declared.into_iter().take(surviving));
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
            let sc_block = forger.sync_mainchain_block(&mc_block).unwrap();
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
        let sc_block = forger.sync_mainchain_block(&mc_block).unwrap();
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
    /// `latus/input-auth`, by the epoch fold, by `ParallelProver` on 1, 2
    /// and 4 lanes, and by `produce_certificate`.
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
            node.sync_mainchain_block(&mc_block).unwrap();
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
        for workers in [1, 2, 4] {
            let prover = zendoo_snark::parallel::ParallelProver::new(system, workers);
            assert_eq!(
                prover
                    .prove_chain(&states, &witnesses)
                    .map(|(proof, _)| proof),
                Err(eager.clone()),
                "{workers} lanes"
            );
        }
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
            let block = kept.sync_mainchain_block(&mc_block).unwrap();
            assert_eq!(block, rebuilt.sync_mainchain_block(&mc_block).unwrap());
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
}
