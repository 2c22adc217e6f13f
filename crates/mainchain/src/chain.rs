//! The mainchain state machine: block storage, Nakamoto fork choice,
//! connect/disconnect with full reorg support, and block building.
//!
//! Fork choice is by cumulative work (Def 3.1's Bitcoin-backbone model).
//! Block acceptance runs the three-stage [`crate::pipeline`]: stateless
//! precheck at submission, then atomic state application journaled
//! into a single [`crate::pipeline::BlockUndo`] record per block (a
//! received block's certificate/BTR/CSW proofs and transfer signatures
//! verified after the walk as one batch each) — so
//! reorgs of up to [`ChainParams::max_reorg_depth`] blocks are exact
//! state rollbacks (the mechanism exercised by the paper's "mainchain
//! forks resolution" property, §5.1) without retaining a full state
//! snapshot per block. A heavier branch rooted deeper than that is
//! refused before anything is disconnected.
//!
//! One block path: [`Blockchain::prepare_block`] is the only builder
//! (a one-pass greedy fill that records the proof verdicts of its dry
//! run) and [`Blockchain::submit`] the only way a block joins the
//! chain. What may accompany a block is its builder's verdicts, an
//! explicit argument threaded down to stage 3; without them stage 3
//! owes every proof and signature check it meets, and stage 2 verifies
//! them after the walk.
//! [`Blockchain::submit_block`] is the verdict-less call a receiving
//! node makes, and [`Blockchain::mine_next_block`] is strict prepare +
//! submit. The chain keeps no per-submission state.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use zendoo_core::commitment::{ScTxsCommitment, ScTxsCommitmentBuilder};
use zendoo_core::escrow::EscrowError;
use zendoo_core::ids::{Address, Amount};
use zendoo_core::settlement::SettlementError;
use zendoo_primitives::digest::Digest32;
use zendoo_telemetry::Telemetry;

use crate::block::{Block, BlockHeader};
use crate::mempool::TakenBatch;
use crate::pipeline::{self, BlockUndo, ProofVerdicts};
use crate::pow::{mine, Target};
use crate::registry::{RegistryError, SidechainRegistry};
use crate::sigbatch;
use crate::transaction::{CoinbaseTx, McTransaction, OutPoint, TxOut};
use crate::utxo::UtxoSet;

/// Consensus parameters.
#[derive(Clone, Debug)]
pub struct ChainParams {
    /// Fixed proof-of-work target.
    pub target: Target,
    /// Block subsidy paid to the coinbase.
    pub block_subsidy: Amount,
    /// Outputs granted in the genesis coinbase (test/sim premine).
    pub genesis_outputs: Vec<TxOut>,
    /// Maximum reorg depth for which undo data is retained.
    pub max_reorg_depth: usize,
    /// Mining attempt bound per block.
    pub max_mine_attempts: u64,
}

impl Default for ChainParams {
    fn default() -> Self {
        ChainParams {
            target: Target::EASIEST,
            block_subsidy: Amount::from_units(50_000),
            genesis_outputs: Vec::new(),
            max_reorg_depth: 128,
            max_mine_attempts: 10_000_000,
        }
    }
}

/// The full spendable/locked state at a chain tip.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainState {
    /// The UTXO set.
    pub utxos: UtxoSet,
    /// The sidechain registry (balances, certificates, nullifiers).
    pub registry: SidechainRegistry,
    /// Net coins minted so far (Σ coinbase − Σ fees). Conservation
    /// invariant: `utxos.total_value() + registry.total_locked() ==
    /// minted`.
    pub minted: Amount,
}

/// Validation failures for submitted blocks/transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockError {
    /// The parent block is unknown.
    UnknownParent(Digest32),
    /// The block was already marked invalid, or extends one: a block that
    /// failed to connect is marked invalid with every stored block above
    /// it, so nothing built on it is stored again.
    KnownInvalid(Digest32),
    /// Declared height does not follow the parent.
    BadHeight {
        /// Height in the submitted header.
        claimed: u64,
        /// Parent height + 1.
        expected: u64,
    },
    /// The header does not meet the required proof-of-work target.
    BadProofOfWork,
    /// Wrong target declared (fixed-difficulty chain).
    WrongTarget,
    /// `tx_root` does not match the body.
    TxRootMismatch,
    /// `scTxsCommitment` does not match the body.
    CommitmentMismatch,
    /// Missing or misplaced coinbase.
    BadCoinbase(&'static str),
    /// Two transactions in the block share an id.
    DuplicateTxid(Digest32),
    /// A transfer spends an unknown or already-spent output.
    MissingInput(OutPoint),
    /// A transfer spends the same output twice.
    DoubleSpendInBlock(OutPoint),
    /// A transfer input signature/address check failed.
    BadInputAuthorization {
        /// Index of the offending input.
        input: usize,
    },
    /// Output value exceeds input value.
    ValueImbalance,
    /// A transfer has no inputs.
    NoInputs,
    /// Amount arithmetic overflowed.
    AmountOverflow,
    /// A sidechain operation was rejected by the registry.
    Registry(RegistryError),
    /// A batched cross-chain settlement's metadata was forged or
    /// malformed (bad commitment, amount/carrier mismatch).
    Settlement(SettlementError),
    /// An escrow-kind output was spent (or created) outside the
    /// consensus settlement/refund rules — theft attempts land here.
    Escrow(EscrowError),
    /// Reorg deeper than the retained undo data.
    ReorgTooDeep,
    /// Mining exhausted the attempt bound.
    MiningFailed,
    /// The block was already submitted.
    Duplicate(Digest32),
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::UnknownParent(h) => write!(f, "unknown parent {h}"),
            BlockError::KnownInvalid(h) => write!(f, "block {h} is invalid"),
            BlockError::BadHeight { claimed, expected } => {
                write!(f, "height {claimed}, expected {expected}")
            }
            BlockError::BadProofOfWork => write!(f, "proof of work not met"),
            BlockError::WrongTarget => write!(f, "wrong difficulty target"),
            BlockError::TxRootMismatch => write!(f, "tx merkle root mismatch"),
            BlockError::CommitmentMismatch => write!(f, "scTxsCommitment mismatch"),
            BlockError::BadCoinbase(why) => write!(f, "bad coinbase: {why}"),
            BlockError::DuplicateTxid(id) => write!(f, "duplicate txid {id}"),
            BlockError::MissingInput(op) => write!(f, "missing input {op:?}"),
            BlockError::DoubleSpendInBlock(op) => write!(f, "double spend of {op:?}"),
            BlockError::BadInputAuthorization { input } => {
                write!(f, "input {input} authorization failed")
            }
            BlockError::ValueImbalance => write!(f, "outputs exceed inputs"),
            BlockError::NoInputs => write!(f, "transfer has no inputs"),
            BlockError::AmountOverflow => write!(f, "amount overflow"),
            BlockError::Registry(e) => write!(f, "sidechain registry: {e}"),
            BlockError::Settlement(e) => write!(f, "batched settlement: {e}"),
            BlockError::Escrow(e) => write!(f, "escrow consensus rule: {e}"),
            BlockError::ReorgTooDeep => write!(f, "reorg exceeds retained undo depth"),
            BlockError::MiningFailed => write!(f, "mining attempt bound exhausted"),
            BlockError::Duplicate(h) => write!(f, "duplicate block {h}"),
        }
    }
}

impl BlockError {
    /// The variant's stable name, used as the suffix of the
    /// per-variant `mc.reject.<variant>` telemetry counters.
    pub fn variant_name(&self) -> &'static str {
        match self {
            BlockError::UnknownParent(_) => "unknown_parent",
            BlockError::KnownInvalid(_) => "known_invalid",
            BlockError::BadHeight { .. } => "bad_height",
            BlockError::BadProofOfWork => "bad_proof_of_work",
            BlockError::WrongTarget => "wrong_target",
            BlockError::TxRootMismatch => "tx_root_mismatch",
            BlockError::CommitmentMismatch => "commitment_mismatch",
            BlockError::BadCoinbase(_) => "bad_coinbase",
            BlockError::DuplicateTxid(_) => "duplicate_txid",
            BlockError::MissingInput(_) => "missing_input",
            BlockError::DoubleSpendInBlock(_) => "double_spend_in_block",
            BlockError::BadInputAuthorization { .. } => "bad_input_authorization",
            BlockError::ValueImbalance => "value_imbalance",
            BlockError::NoInputs => "no_inputs",
            BlockError::AmountOverflow => "amount_overflow",
            BlockError::Registry(_) => "registry",
            BlockError::Settlement(_) => "settlement",
            BlockError::Escrow(_) => "escrow",
            BlockError::ReorgTooDeep => "reorg_too_deep",
            BlockError::MiningFailed => "mining_failed",
            BlockError::Duplicate(_) => "duplicate",
        }
    }
}

impl std::error::Error for BlockError {}

impl From<RegistryError> for BlockError {
    fn from(e: RegistryError) -> Self {
        BlockError::Registry(e)
    }
}

impl From<SettlementError> for BlockError {
    fn from(e: SettlementError) -> Self {
        BlockError::Settlement(e)
    }
}

impl From<EscrowError> for BlockError {
    fn from(e: EscrowError) -> Self {
        BlockError::Escrow(e)
    }
}

/// Outcome of a successful block submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The block extended the active tip.
    ExtendedActiveChain,
    /// Stored on a side branch; the active chain is unchanged.
    StoredOnFork,
    /// Triggered a reorganization.
    Reorganized {
        /// Hashes disconnected from the old branch (tip first).
        disconnected: Vec<Digest32>,
        /// Hashes connected on the new branch (fork-point first).
        connected: Vec<Digest32>,
    },
}

#[derive(Clone, Debug)]
struct StoredBlock {
    block: Block,
    /// The block's transaction ids, in order, as stage 1 computed them:
    /// stages 2 and 3 hash no transaction again, on first connection or
    /// on a reorg's reconnection. Kept while the block can still be
    /// connected: `prune_undo` empties it with the undo record.
    txids: Vec<Digest32>,
    cumulative_work: u128,
}

/// One active-chain state transition, exported for external
/// persistence layers (the `zendoo-store` journal tails these).
///
/// Events are recorded only after [`Blockchain::enable_event_log`] and
/// drained with [`Blockchain::drain_events`]. Deltas are *net* per
/// block: an output created and spent inside the same block never
/// appears (it was never part of the inter-block UTXO set). Reorgs
/// emit the exact disconnect/reconnect sequence the chain itself
/// performed, so replaying the stream always reproduces the active
/// tip's UTXO set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainEvent {
    /// A block joined the active chain.
    Connected {
        /// The block's hash.
        hash: Digest32,
        /// The block's height.
        height: u64,
        /// Outputs the block added to the UTXO set.
        created: Vec<(OutPoint, TxOut)>,
        /// Outputs the block consumed (previous values retained so the
        /// event is invertible without external context).
        spent: Vec<(OutPoint, TxOut)>,
    },
    /// The active tip was disconnected (a reorg rollback).
    Disconnected {
        /// The disconnected block's hash.
        hash: Digest32,
        /// The disconnected block's height.
        height: u64,
        /// The parent hash — the active tip after the rollback.
        parent: Digest32,
        /// Outpoints the rollback removes (they were created by the
        /// block).
        created: Vec<OutPoint>,
        /// Outputs the rollback restores (they were spent by the
        /// block).
        spent: Vec<(OutPoint, TxOut)>,
    },
}

impl ChainEvent {
    /// The subject block's hash.
    pub fn hash(&self) -> Digest32 {
        match self {
            ChainEvent::Connected { hash, .. } | ChainEvent::Disconnected { hash, .. } => *hash,
        }
    }

    /// The subject block's height.
    pub fn height(&self) -> u64 {
        match self {
            ChainEvent::Connected { height, .. } | ChainEvent::Disconnected { height, .. } => {
                *height
            }
        }
    }
}

/// Candidate transactions handed to the one-pass block builder,
/// carrying what admission already established about them.
///
/// Pool-sourced candidates (a [`TakenBatch`], or
/// [`BlockCandidates::admitted`]) passed the stage-1 stateless precheck
/// when they were admitted and bring the signature verdicts batch
/// admission recorded — the builder skips the redundant precheck
/// (counted on `mc.precheck.skipped`) and answers signature checks from
/// the verdict cache. A pool's template also brings the id each entry
/// was pooled under, and marks the entries pooled without a signature
/// check: the builder verifies those as one batch before its dry run.
/// Raw candidates (any plain `Vec` via `From`) get the explicit stage-1
/// pass at build time instead (counted on `mc.precheck.run`).
#[derive(Debug, Default)]
pub struct BlockCandidates {
    /// Candidate transactions, in template order.
    txs: Vec<McTransaction>,
    /// The id of each of `txs`, in the same order.
    txids: Vec<Digest32>,
    /// `true` when every candidate already passed stage-1 at
    /// admission.
    admitted: bool,
    /// Transfer-signature verdicts established at admission, keyed by
    /// [`crate::sigbatch::sig_cache_key`].
    sig_verdicts: HashMap<Digest32, bool>,
    /// Indexes into `txs` of the candidates pooled without a signature
    /// check, ascending.
    unverified: Vec<usize>,
}

impl BlockCandidates {
    /// Pool-sourced candidates: stage-1 already ran at admission, and
    /// `sig_verdicts` carries the signatures verified there.
    pub fn admitted(txs: Vec<McTransaction>, sig_verdicts: HashMap<Digest32, bool>) -> Self {
        BlockCandidates {
            txids: txs.iter().map(McTransaction::txid).collect(),
            txs,
            admitted: true,
            sig_verdicts,
            unverified: Vec::new(),
        }
    }
}

/// A pool's template: admitted candidates under the ids they were
/// pooled with, the unverified ones marked.
impl From<TakenBatch> for BlockCandidates {
    fn from(batch: TakenBatch) -> Self {
        debug_assert_eq!(batch.txids.len(), batch.txs.len(), "one id per entry");
        BlockCandidates {
            txs: batch.txs,
            txids: batch.txids,
            admitted: true,
            sig_verdicts: batch.sig_verdicts,
            unverified: batch.unverified,
        }
    }
}

/// Candidates of unknown provenance: stage-1 runs at build time.
impl From<Vec<McTransaction>> for BlockCandidates {
    fn from(txs: Vec<McTransaction>) -> Self {
        BlockCandidates {
            txids: txs.iter().map(McTransaction::txid).collect(),
            txs,
            ..Self::default()
        }
    }
}

/// A block assembled by [`Blockchain::prepare_block`]: the mined block,
/// the sc-txs commitment its header commits to, the candidates it had
/// to reject, and the proof verdicts recorded during the dry run, which
/// the builder hands to [`Blockchain::submit`] alongside the block
/// (stage 3 then re-verifies nothing the builder already checked).
#[derive(Debug)]
pub struct PreparedBlock {
    /// The assembled, mined (not yet submitted) block.
    pub block: Block,
    /// The block's sc-txs commitment, built once while mining: every
    /// sidechain node handed the block takes its part from this one
    /// tree instead of rebuilding it (stage 1 of [`Blockchain::submit`]
    /// still builds its own, to check the block against its header).
    pub commitment: Arc<ScTxsCommitment>,
    /// Candidates rejected during the one-pass greedy fill, with the
    /// rule each violated (in candidate order).
    pub rejected: Vec<(McTransaction, BlockError)>,
    /// Proof verdicts recorded by the dry run, keyed by statement
    /// identity.
    pub verdicts: ProofVerdicts,
}

/// The mainchain: block tree + active-chain state.
pub struct Blockchain {
    params: ChainParams,
    blocks: HashMap<Digest32, StoredBlock>,
    invalid: HashSet<Digest32>,
    /// Active chain block hashes, indexed by height.
    active: Vec<Digest32>,
    state: ChainState,
    /// Single undo record per active block (pruned beyond
    /// `max_reorg_depth`) — stage 3's journal, not a state snapshot.
    undo: HashMap<Digest32, BlockUndo>,
    genesis_hash: Digest32,
    /// Observability sink ([`Telemetry::disabled`] by default).
    telemetry: Telemetry,
    /// Connect/disconnect event log for external persistence layers;
    /// `None` (zero overhead) until [`Blockchain::enable_event_log`].
    event_log: Option<Vec<ChainEvent>>,
}

impl Blockchain {
    /// Creates a chain with a freshly mined genesis block.
    pub fn new(params: ChainParams) -> Self {
        let (genesis, _) = mine_block(
            &params,
            Digest32::ZERO,
            0,
            0,
            params.genesis_outputs.clone(),
            Vec::new(),
        )
        .expect("genesis mining must succeed at configured difficulty");
        let genesis_hash = genesis.hash();

        let mut state = ChainState::default();
        let genesis_total = Amount::checked_sum(params.genesis_outputs.iter().map(|o| o.amount))
            .expect("genesis premine fits in u64");
        let txid = genesis.transactions[0].txid();
        for (i, out) in params.genesis_outputs.iter().enumerate() {
            state.utxos.insert(
                OutPoint {
                    txid,
                    index: i as u32,
                },
                *out,
            );
        }
        state.minted = genesis_total;

        let mut blocks = HashMap::new();
        blocks.insert(
            genesis_hash,
            StoredBlock {
                block: genesis,
                txids: vec![txid],
                cumulative_work: params.target.work(),
            },
        );
        Blockchain {
            params,
            blocks,
            invalid: HashSet::new(),
            active: vec![genesis_hash],
            state,
            undo: HashMap::new(),
            genesis_hash,
            telemetry: Telemetry::disabled(),
            event_log: None,
        }
    }

    /// Starts recording [`ChainEvent`]s for every subsequent active-
    /// chain transition. Events accumulate until drained — a consumer
    /// that enables the log must tail [`Blockchain::drain_events`].
    /// Blocks connected *before* enabling (including genesis) are not
    /// replayed; consumers bootstrap from the current state instead.
    pub fn enable_event_log(&mut self) {
        if self.event_log.is_none() {
            self.event_log = Some(Vec::new());
        }
    }

    /// Takes every event recorded since the last drain, in the order
    /// the chain performed the transitions. Empty when the log is
    /// disabled.
    pub fn drain_events(&mut self) -> Vec<ChainEvent> {
        match &mut self.event_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Records the net delta of block `hash` at `height`, read off its
    /// undo journal against the post-block state: right after stage 3
    /// connected it (`connected`), or right before
    /// `pipeline::revert_block` disconnects it — the exact inverse. An
    /// output both created and spent inside the block is elided: it
    /// never existed in the inter-block UTXO set, so neither the store
    /// nor a reorg needs it.
    fn record_event(&mut self, hash: Digest32, height: u64, undo: &BlockUndo, connected: bool) {
        let Some(log) = self.event_log.as_mut() else {
            return;
        };
        let mut created = Vec::new();
        let mut spent = Vec::new();
        let mut ephemeral = HashSet::new();
        for op in undo.ops() {
            match op {
                pipeline::UtxoOp::Created(outpoint) => match self.state.utxos.get(outpoint) {
                    Some(out) => created.push((*outpoint, out)),
                    // Absent post-apply: created and spent in-block.
                    None => {
                        ephemeral.insert(*outpoint);
                    }
                },
                pipeline::UtxoOp::Spent(outpoint, out) => {
                    if !ephemeral.remove(outpoint) {
                        spent.push((*outpoint, *out));
                    }
                }
            }
        }
        log.push(if connected {
            ChainEvent::Connected {
                hash,
                height,
                created,
                spent,
            }
        } else {
            ChainEvent::Disconnected {
                hash,
                height,
                parent: self.blocks[&hash].block.header.parent,
                created: created.into_iter().map(|(outpoint, _)| outpoint).collect(),
                spent,
            }
        });
    }

    /// Attaches a telemetry handle; the three pipeline stages, block
    /// sizes, verdict-cache hits and per-variant rejection counters
    /// record through it. The default is [`Telemetry::disabled`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The chain's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Counts one rejection: the `mc.rejects` total plus the
    /// per-variant `mc.reject.<variant>` counter. The chain counts its
    /// own rejections; callers that filter transactions *before*
    /// submission (mempool admission, block builders) route theirs
    /// through here too, so every rejection lands on one set of
    /// counters.
    pub fn count_rejection(&self, error: &BlockError) {
        if self.telemetry.is_enabled() {
            self.telemetry.counter("mc.rejects", 1);
            self.telemetry
                .counter(&format!("mc.reject.{}", error.variant_name()), 1);
        }
    }

    /// The outputs the active block `hash` spent, read off its undo
    /// record: nothing for a block deeper than
    /// [`ChainParams::max_reorg_depth`] (its record is pruned) or off
    /// the active chain.
    pub fn spent_outputs(&self, hash: &Digest32) -> impl Iterator<Item = (&OutPoint, &TxOut)> {
        self.undo
            .get(hash)
            .into_iter()
            .flat_map(|undo| undo.ops())
            .filter_map(|op| match op {
                pipeline::UtxoOp::Spent(outpoint, out) => Some((outpoint, out)),
                pipeline::UtxoOp::Created(_) => None,
            })
    }

    /// The chain parameters.
    pub fn params(&self) -> &ChainParams {
        &self.params
    }

    /// The genesis block hash.
    pub fn genesis_hash(&self) -> Digest32 {
        self.genesis_hash
    }

    /// The active tip hash.
    pub fn tip_hash(&self) -> Digest32 {
        *self.active.last().expect("genesis always present")
    }

    /// The active tip height.
    pub fn height(&self) -> u64 {
        (self.active.len() - 1) as u64
    }

    /// The active-chain block hash at `height`.
    pub fn hash_at_height(&self, height: u64) -> Option<Digest32> {
        self.active.get(height as usize).copied()
    }

    /// A stored block by hash (active or fork).
    pub fn block(&self, hash: &Digest32) -> Option<&Block> {
        self.blocks.get(hash).map(|s| &s.block)
    }

    /// The active-chain block at `height`.
    pub fn block_at_height(&self, height: u64) -> Option<&Block> {
        self.hash_at_height(height).and_then(|h| self.block(&h))
    }

    /// Cumulative work of a stored block.
    pub fn cumulative_work(&self, hash: &Digest32) -> Option<u128> {
        self.blocks.get(hash).map(|s| s.cumulative_work)
    }

    /// The state at the active tip.
    pub fn state(&self) -> &ChainState {
        &self.state
    }

    /// Returns `true` if `hash` lies on the active chain.
    pub fn is_active(&self, hash: &Digest32) -> bool {
        self.blocks
            .get(hash)
            .map(|s| self.hash_at_height(s.block.header.height) == Some(*hash))
            .unwrap_or(false)
    }

    /// Builds the commitment tree for a transaction list (§4.1.3: FTs,
    /// BTRs and certificates; CSWs are excluded).
    pub fn build_commitment(transactions: &[McTransaction]) -> ScTxsCommitment {
        let mut builder = ScTxsCommitmentBuilder::new();
        for tx in transactions {
            match tx {
                McTransaction::Transfer(t) => {
                    for output in &t.outputs {
                        if let crate::transaction::Output::Forward(ft) = output {
                            builder.add_forward_transfer(ft.clone());
                        }
                    }
                }
                McTransaction::Certificate(cert) => {
                    // Structural duplicate certs are caught by validation;
                    // the builder ignores the duplicate here and the
                    // commitment check fails the block instead.
                    let _ = builder.add_certificate((**cert).clone());
                }
                McTransaction::Btr(btr) => {
                    builder.add_backward_transfer_request((**btr).clone());
                }
                McTransaction::Coinbase(_)
                | McTransaction::SidechainDeclaration(_)
                | McTransaction::Csw(_) => {}
            }
        }
        builder.build()
    }

    /// Submits a block as a receiving node sees it, with nothing
    /// accompanying it: validates, stores, and reorganizes if it creates
    /// a heavier chain. [`Blockchain::submit`] without verdicts.
    ///
    /// # Errors
    ///
    /// See [`Blockchain::submit`].
    pub fn submit_block(&mut self, block: Block) -> Result<SubmitOutcome, BlockError> {
        self.submit(block, None)
    }

    /// The one way a block joins the chain: validates, stores, and
    /// reorganizes if it creates a heavier chain. `verdicts` are the
    /// proof and signature verdicts its builder recorded
    /// ([`PreparedBlock::verdicts`]): they travel with the block down to
    /// stage 3, so each check is verified once per node, at admission or
    /// build time, instead of again at submission. They can only save
    /// work, never change the outcome (including the precise
    /// [`BlockError`] on rejection). Without them, stage 3 walks the
    /// block once, owing every proof and signature check it meets, and
    /// stage 2 verifies what it owes as one batch of each; so does every
    /// block a reorg connects.
    ///
    /// # Errors
    ///
    /// [`BlockError`] for structural violations immediately; stateful
    /// violations surface when the block's branch attempts activation.
    /// [`BlockError::ReorgTooDeep`] refuses a heavier branch rooted below
    /// the retained undo window and leaves the chain exactly as it was.
    /// [`BlockError::KnownInvalid`] refuses a block that failed to
    /// connect, or one built on it, with the chain untouched.
    pub fn submit(
        &mut self,
        block: Block,
        verdicts: Option<ProofVerdicts>,
    ) -> Result<SubmitOutcome, BlockError> {
        let result = self.submit_inner(block, verdicts);
        if let Err(error) = &result {
            self.count_rejection(error);
        }
        result
    }

    fn submit_inner(
        &mut self,
        block: Block,
        verdicts: Option<ProofVerdicts>,
    ) -> Result<SubmitOutcome, BlockError> {
        let hash = block.hash();
        if self.blocks.contains_key(&hash) {
            return Err(BlockError::Duplicate(hash));
        }
        if self.invalid.contains(&hash) || self.invalid.contains(&block.header.parent) {
            return Err(BlockError::KnownInvalid(hash));
        }
        // Stage 1: stateless precheck.
        let txids = {
            let _span = self.telemetry.span("mc.stage1.precheck");
            pipeline::precheck_block(self.params.target, &block)?
        };
        let parent = self
            .blocks
            .get(&block.header.parent)
            .ok_or(BlockError::UnknownParent(block.header.parent))?;
        let expected_height = parent.block.header.height + 1;
        if block.header.height != expected_height {
            return Err(BlockError::BadHeight {
                claimed: block.header.height,
                expected: expected_height,
            });
        }
        let cumulative_work = parent.cumulative_work + block.header.target.work();
        self.blocks.insert(
            hash,
            StoredBlock {
                block,
                txids,
                cumulative_work,
            },
        );
        let tip_work = self.cumulative_work(&self.tip_hash()).expect("tip stored");
        if cumulative_work <= tip_work {
            return Ok(SubmitOutcome::StoredOnFork);
        }
        let (disconnected, connected) = self.activate(hash, verdicts)?;
        if disconnected.is_empty() && connected.len() == 1 {
            Ok(SubmitOutcome::ExtendedActiveChain)
        } else {
            Ok(SubmitOutcome::Reorganized {
                disconnected,
                connected,
            })
        }
    }

    /// Makes `new_tip` the active tip, disconnecting/connecting as
    /// needed; `verdicts` belong to `new_tip`. On a connect failure, the
    /// offending block is invalidated with everything stored above it
    /// and the previous active chain is restored. A branch rooted below
    /// the retained undo window is refused before anything is
    /// disconnected.
    fn activate(
        &mut self,
        new_tip: Digest32,
        mut verdicts: Option<ProofVerdicts>,
    ) -> Result<(Vec<Digest32>, Vec<Digest32>), BlockError> {
        // Path from new_tip down to the first active ancestor: every
        // ancestor of a stored block is stored (`invalidate` keeps it so).
        let mut to_connect = Vec::new();
        let mut cursor = new_tip;
        while !self.is_active(&cursor) {
            to_connect.push(cursor);
            cursor = self.blocks[&cursor].block.header.parent;
        }
        let fork_height = self.blocks[&cursor].block.header.height as usize;
        to_connect.reverse();

        // Every block above the fork point must still have its undo
        // record: decide that before the first disconnect, so a refused
        // reorg leaves the active chain and the block store untouched.
        if self.active[fork_height + 1..]
            .iter()
            .any(|stale| !self.undo.contains_key(stale))
        {
            self.blocks.remove(&new_tip);
            return Err(BlockError::ReorgTooDeep);
        }

        // Disconnect the stale suffix.
        let mut disconnected = Vec::new();
        while self.active.len() > fork_height + 1 {
            disconnected.push(self.disconnect_tip());
        }

        // Connect the new branch.
        let mut connected = Vec::new();
        for hash in &to_connect {
            let carried = if *hash == new_tip {
                verdicts.take()
            } else {
                None
            };
            if let Err(e) = self.connect_block(*hash, carried) {
                // Invalidate and roll back to the previous chain.
                self.invalidate(*hash);
                for _ in &connected {
                    self.disconnect_tip();
                }
                for stale in disconnected.iter().rev() {
                    self.connect_block(*stale, None)
                        .expect("previously active block must reconnect");
                }
                return Err(e);
            }
            connected.push(*hash);
        }
        Ok((disconnected, connected))
    }

    /// Marks `bad` invalid and drops it from the store together with
    /// every stored block above it: those extend an invalid block, so no
    /// stored block ever has an invalid (or missing) ancestor, and a
    /// block built on any of them is refused as
    /// [`BlockError::KnownInvalid`] at submission. None of them is
    /// active: `bad` failed to connect.
    fn invalidate(&mut self, bad: Digest32) {
        let mut doomed = vec![bad];
        while let Some(hash) = doomed.pop() {
            self.blocks.remove(&hash);
            self.invalid.insert(hash);
            doomed.extend(
                self.blocks
                    .iter()
                    .filter(|(_, stored)| stored.block.header.parent == hash)
                    .map(|(child, _)| *child),
            );
        }
    }

    /// Disconnects the active tip, replaying its undo journal, and
    /// returns its hash. Callers only disconnect blocks whose undo
    /// record is retained (`activate` checks before it starts).
    fn disconnect_tip(&mut self) -> Digest32 {
        let tip = self.tip_hash();
        let undo = self
            .undo
            .remove(&tip)
            .expect("undo record checked before the first disconnect");
        self.record_event(tip, self.height(), &undo, false);
        pipeline::revert_block(&mut self.state, undo);
        self.active.pop();
        tip
    }

    /// Connects a stored block on top of the current tip. `verdicts` are
    /// what the block was submitted with, if anything: its builder's,
    /// from which stage 3 answers every check. Without them, stage 3
    /// walks the block once under [`ProofVerdicts::deferring`], and
    /// stage 2 verifies what the walk owes as one batch of proofs and
    /// one of signatures ([`ProofVerdicts::discharge`]). Only when a
    /// verdict fails does stage 3 run again, the walk reverted, on the
    /// discharged verdicts: it refuses the block with the inline
    /// validator's error and verifies nothing twice.
    fn connect_block(
        &mut self,
        hash: Digest32,
        verdicts: Option<ProofVerdicts>,
    ) -> Result<(), BlockError> {
        let StoredBlock { block, txids, .. } = &self.blocks[&hash];
        debug_assert_eq!(block.header.parent, self.tip_hash());
        // Stage 3: atomic application (reverts itself on failure).
        let stage3 = |state: &mut ChainState, verdicts: &ProofVerdicts| {
            let _span = self.telemetry.span("mc.stage3.apply");
            pipeline::apply_block(
                state,
                block,
                txids,
                hash,
                &self.active,
                self.params.block_subsidy,
                verdicts,
            )
        };
        let (verdicts, applied) = match verdicts {
            Some(verdicts) => {
                self.telemetry.counter("mc.stage2.verdicts_reused", 1);
                let applied = stage3(&mut self.state, &verdicts);
                (verdicts, applied)
            }
            None => {
                let deferred = ProofVerdicts::deferring();
                let walk = stage3(&mut self.state, &deferred);
                let discharged = {
                    let _span = self.telemetry.span("mc.stage2.verify");
                    deferred.discharge(&self.telemetry)
                };
                match discharged {
                    // Every answer the walk was given was the true one.
                    None => (deferred, walk),
                    Some(verdicts) => {
                        if let Ok(undo) = walk {
                            pipeline::revert_block(&mut self.state, undo);
                        }
                        let applied = stage3(&mut self.state, &verdicts);
                        (verdicts, applied)
                    }
                }
            }
        };
        // Whether or not the block connects: what stage 3 asked the
        // verdicts (a deferred check is neither a hit nor a miss).
        if self.telemetry.is_enabled() {
            let (hits, misses) = verdicts.proofs.stats();
            self.telemetry.counter("mc.verdict_cache.hit", hits);
            self.telemetry.counter("mc.verdict_cache.miss", misses);
            self.count_sig_cache(&verdicts);
        }
        let undo = applied?;
        if self.telemetry.is_enabled() {
            self.telemetry.counter("mc.blocks_connected", 1);
            self.telemetry
                .observe("mc.block_txs", block.transactions.len() as u64);
        }
        let height = block.header.height;
        self.record_event(hash, height, &undo, true);
        self.undo.insert(hash, undo);
        self.active.push(hash);
        self.prune_undo();
        Ok(())
    }

    /// Counts the signature-cache hits and misses on `mc.sig_cache.*`
    /// (nothing when no signature was checked).
    fn count_sig_cache(&self, verdicts: &ProofVerdicts) {
        let (hits, misses) = verdicts.sigs.stats();
        if hits + misses > 0 {
            self.telemetry.counter("mc.sig_cache.hit", hits);
            self.telemetry.counter("mc.sig_cache.miss", misses);
        }
    }

    /// Drops the undo record (and the stored ids) of the one block the
    /// last connect pushed below the undo window. Every block under it
    /// left the window on an earlier connect: the active chain only
    /// moves below the window by one block per connect, since `activate`
    /// refuses a reorg that would disconnect a block without its record.
    fn prune_undo(&mut self) {
        let Some(depth) = self
            .active
            .len()
            .checked_sub(self.params.max_reorg_depth + 1)
        else {
            return;
        };
        let hash = self.active[depth];
        // Below the undo window a block is never connected again
        // (`activate` refuses such a reorg first): its ids go with its
        // undo record.
        if self.undo.remove(&hash).is_some() {
            if let Some(stored) = self.blocks.get_mut(&hash) {
                stored.txids = Vec::new();
            }
        }
    }

    /// Assembles and mines (without submitting) the next block on the
    /// active tip in **one pass**: every candidate is applied in order
    /// to the live chain state under the block's undo journal, a
    /// failing candidate is rolled back to its mark and reported in
    /// [`PreparedBlock::rejected`] (the greedy fill a miner wants —
    /// without re-validating the accepted prefix per candidate), and
    /// every proof verified during the dry run is recorded in
    /// [`PreparedBlock::verdicts`] so [`Blockchain::submit`] never
    /// re-verifies it. The whole dry run is reverted through the same
    /// journal before this returns, on every path: the state is the
    /// tip's again, whatever the outcome.
    ///
    /// A plain `Vec<McTransaction>` is a list of raw candidates;
    /// pool-sourced candidates carrying admission context
    /// ([`BlockCandidates::admitted`]) skip the redundant stage-1
    /// precheck and answer signature checks from the admission verdict
    /// cache.
    ///
    /// # Errors
    ///
    /// [`BlockError::MiningFailed`] or amount overflow while assembling
    /// the coinbase; per-candidate failures are reported in the
    /// returned `rejected` list instead.
    pub fn prepare_block(
        &mut self,
        miner: Address,
        candidates: impl Into<BlockCandidates>,
        time: u64,
    ) -> Result<PreparedBlock, BlockError> {
        let BlockCandidates {
            txs: candidates,
            txids,
            admitted,
            mut sig_verdicts,
            unverified,
        } = candidates.into();
        // The candidates pooled without a signature check owe theirs
        // now: one batch against the pre-block state, before the dry
        // run consults the cache. Everything else costs nothing here.
        sig_verdicts.extend(sigbatch::verify_transfer_signatures(
            &self.state,
            unverified.iter().map(|&i| (&candidates[i], txids[i])),
            &self.telemetry,
        ));
        let height = self.height() + 1;
        let mut undo = BlockUndo::new(&self.state);
        let mut verdicts = ProofVerdicts::recording(sig_verdicts);
        pipeline::begin_block(&mut self.state, height, &mut undo);
        let mut fees = Amount::ZERO;
        let mut accepted = Vec::with_capacity(candidates.len());
        let mut rejected = Vec::new();
        for (tx, txid) in candidates.into_iter().zip(txids) {
            // Stage-1 stateless precheck: pool-sourced candidates
            // already passed it at admission, so the builder skips the
            // redundant pass (the counters prove the skip rate).
            if admitted {
                self.telemetry.counter("mc.precheck.skipped", 1);
            } else {
                self.telemetry.counter("mc.precheck.run", 1);
                if let Err(e) = pipeline::precheck_transaction(&tx) {
                    rejected.push((tx, e));
                    continue;
                }
            }
            let mark = undo.mark();
            match pipeline::apply_transaction(
                &mut self.state,
                &tx,
                txid,
                height,
                Digest32::ZERO,
                &self.active,
                &verdicts,
                &mut undo,
            ) {
                Ok(fee) => match fees.checked_add(fee) {
                    Some(total) => {
                        fees = total;
                        accepted.push((tx, txid));
                    }
                    None => {
                        undo.revert_to_mark(&mut self.state, mark);
                        rejected.push((tx, BlockError::AmountOverflow));
                    }
                },
                Err(e) => {
                    undo.revert_to_mark(&mut self.state, mark);
                    rejected.push((tx, e));
                }
            }
        }
        // Back to the tip's state before anything below can return.
        pipeline::revert_block(&mut self.state, undo);
        if self.telemetry.is_enabled() {
            self.count_sig_cache(&verdicts);
        }
        verdicts.freeze();
        for (_, error) in &rejected {
            self.count_rejection(error);
        }
        let subsidy = self
            .params
            .block_subsidy
            .checked_add(fees)
            .ok_or(BlockError::AmountOverflow)?;
        let (block, commitment) = mine_block(
            &self.params,
            self.tip_hash(),
            height,
            time,
            vec![TxOut::regular(miner, subsidy)],
            accepted,
        )
        .ok_or(BlockError::MiningFailed)?;
        Ok(PreparedBlock {
            block,
            commitment: Arc::new(commitment),
            rejected,
            verdicts,
        })
    }

    /// Fork-injection hook: mines `count` empty blocks (coinbase only,
    /// no fees) as a competing branch rooted at the stored block
    /// `base`, without mutating this chain or replaying its history —
    /// an empty branch block depends only on its parent hash, its
    /// height and the chain parameters, so reorg storms can synthesize
    /// branches in O(depth) instead of O(height). Block `i` of the
    /// branch is stamped `time_base + i`; callers pick distinct bases
    /// per injection so repeated forks at the same branch point yield
    /// distinct blocks. The branch is returned unsubmitted.
    ///
    /// # Errors
    ///
    /// [`BlockError::UnknownParent`] when `base` is not a stored block,
    /// [`BlockError::MiningFailed`] when the attempt bound is
    /// exhausted.
    pub fn mine_branch(
        &self,
        base: &Digest32,
        count: u64,
        miner: Address,
        time_base: u64,
    ) -> Result<Vec<Block>, BlockError> {
        let start = self
            .blocks
            .get(base)
            .map(|stored| stored.block.header.height)
            .ok_or(BlockError::UnknownParent(*base))?;
        let mut parent = *base;
        let mut branch = Vec::with_capacity(count as usize);
        for i in 0..count {
            let (block, _) = mine_block(
                &self.params,
                parent,
                start + 1 + i,
                time_base + i,
                vec![TxOut::regular(miner, self.params.block_subsidy)],
                Vec::new(),
            )
            .ok_or(BlockError::MiningFailed)?;
            parent = block.hash();
            branch.push(block);
        }
        Ok(branch)
    }

    /// Convenience: build, mine and submit the next block in one call,
    /// strictly — the first candidate the builder rejects is the error
    /// and nothing is submitted. The builder's recorded verdicts travel
    /// with the block.
    ///
    /// # Errors
    ///
    /// The first rejected candidate's [`BlockError`], else see
    /// [`Blockchain::prepare_block`] and [`Blockchain::submit`].
    pub fn mine_next_block(
        &mut self,
        miner: Address,
        transactions: Vec<McTransaction>,
        time: u64,
    ) -> Result<Block, BlockError> {
        let prepared = self.prepare_block(miner, transactions, time)?;
        if let Some((_, error)) = prepared.rejected.into_iter().next() {
            return Err(error);
        }
        self.submit(prepared.block.clone(), Some(prepared.verdicts))?;
        Ok(prepared.block)
    }
}

/// Assembles the block `coinbase_outputs` + `transactions` (each with
/// its id) on `parent` and mines its header. Returns the block with the
/// sc-txs commitment its header commits to; `None` when the attempt
/// bound is exhausted.
fn mine_block(
    params: &ChainParams,
    parent: Digest32,
    height: u64,
    time: u64,
    coinbase_outputs: Vec<TxOut>,
    transactions: Vec<(McTransaction, Digest32)>,
) -> Option<(Block, ScTxsCommitment)> {
    let coinbase = McTransaction::Coinbase(CoinbaseTx {
        height,
        outputs: coinbase_outputs,
    });
    let mut txids = Vec::with_capacity(transactions.len() + 1);
    txids.push(coinbase.txid());
    let mut all = Vec::with_capacity(transactions.len() + 1);
    all.push(coinbase);
    for (tx, txid) in transactions {
        all.push(tx);
        txids.push(txid);
    }
    let commitment = Blockchain::build_commitment(&all);
    let mut header = BlockHeader {
        parent,
        height,
        time,
        tx_root: Block::tx_root_of(&txids),
        sc_txs_commitment: commitment.root(),
        target: params.target,
        nonce: 0,
    };
    header.nonce = mine(
        &params.target,
        |nonce| {
            let mut h = header;
            h.nonce = nonce;
            h.hash()
        },
        params.max_mine_attempts,
    )?;
    Some((
        Block {
            header,
            transactions: all,
        },
        commitment,
    ))
}

impl std::fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blockchain")
            .field("height", &self.height())
            .field("tip", &self.tip_hash())
            .field("blocks", &self.blocks.len())
            .field("utxos", &self.state.utxos.len())
            .field("sidechains", &self.state.registry.len())
            .finish()
    }
}
