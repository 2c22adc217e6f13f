//! The staged block-acceptance pipeline.
//!
//! Block validation is split into three stages with explicit,
//! snapshottable boundaries:
//!
//! 1. **Stateless precheck** ([`precheck_block`]) — structure, proof of
//!    work, coinbase discipline, txid uniqueness and the
//!    `scTxsCommitment` rebuild. No chain state is consulted beyond the
//!    consensus parameters; [`precheck_transaction`] is the same stage
//!    applied to a single transaction at mempool admission. It hashes
//!    each transaction id once and returns the ids, which the chain
//!    stores beside the block for stages 2 and 3.
//! 2. **Parallel proof and signature verification**
//!    ([`verify_block_proofs`], [`crate::sigbatch`]) — every SNARK check
//!    the block owes (certificates, BTRs, CSWs) is collected into a
//!    work list and verified on scoped worker threads *before any state
//!    mutation*, one check per statement; every transfer signature
//!    whose input resolves in the pre-block state is collected beside
//!    them and verified as one batch equation per worker. The verdicts
//!    land in a [`ProofVerdicts`] cache keyed by full statement (or
//!    signature) identity, so stage 3 consumes them without re-deriving
//!    trust: a cache miss (the prefetch guessed a different statement
//!    than the stateful walk assembles, an input spends an output of
//!    the same block) silently falls back to inline verification —
//!    parallelism and batching are optimizations, never a semantic
//!    change.
//! 3. **Atomic state application** ([`apply_block`]) — the stateful
//!    walk. All mutations are journaled into a single [`BlockUndo`]
//!    record per block; on any failure the journal is replayed in
//!    reverse and the state is returned bit-identical. The same record
//!    serves reorg disconnects, replacing the full [`ChainState`]
//!    snapshot per block the chain used to retain (O(UTXO-set) memory
//!    per block, now O(block)).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use zendoo_core::ids::{Amount, EpochId, SidechainId};
use zendoo_core::settlement;
use zendoo_core::verifier::{self, ProofCheck};
use zendoo_primitives::digest::Digest32;
use zendoo_snark::batch::{self, BatchItem};
use zendoo_telemetry::Telemetry;

use crate::block::Block;
use crate::chain::{BlockError, ChainState};
use crate::registry::{RegistryUndo, SidechainRegistry};
use crate::transaction::{McTransaction, OutPoint, Output, TxOut};

// ---- Stage 1: stateless precheck -----------------------------------------

/// Stage-1 checks for one transaction, applied at mempool admission so
/// garbage never occupies pool space: coinbases cannot be submitted,
/// transfers must spend something, certificate cross-chain declarations
/// must decode and pair, settlement-tagged forward transfers must
/// carry a well-formed, unforged batch, and no transfer may forge an
/// escrow-kind output (only certificate maturation creates those).
///
/// # Errors
///
/// [`BlockError`] naming the violated rule.
pub fn precheck_transaction(tx: &McTransaction) -> Result<(), BlockError> {
    match tx {
        McTransaction::Coinbase(_) => Err(BlockError::BadCoinbase("coinbase not submittable")),
        McTransaction::Transfer(t) => {
            if t.inputs.is_empty() {
                return Err(BlockError::NoInputs);
            }
            for (i, output) in t.outputs.iter().enumerate() {
                match output {
                    Output::Forward(ft) => {
                        settlement::check_settlement_output(ft).map_err(BlockError::Settlement)?;
                    }
                    // Escrow-kind outputs only come into existence when
                    // a certificate's validated declaration matures —
                    // a submitted transaction forging one is garbage.
                    Output::Regular(out) if out.is_escrow() => {
                        return Err(BlockError::Escrow(
                            zendoo_core::escrow::EscrowError::ForgedOutput { output: i },
                        ));
                    }
                    Output::Regular(_) => {}
                }
            }
            Ok(())
        }
        McTransaction::Certificate(cert) => zendoo_core::crosschain::validate_declarations(cert)
            .map(|_| ())
            .map_err(|e| BlockError::Registry(crate::registry::RegistryError::CrossChain(e))),
        McTransaction::SidechainDeclaration(_) | McTransaction::Btr(_) | McTransaction::Csw(_) => {
            Ok(())
        }
    }
}

/// Stage-1 checks for a whole block: target/PoW, tx-root and commitment
/// consistency, coinbase discipline and txid uniqueness. Consults no
/// chain state beyond `expected_target`. Returns the block's txids, in
/// order: each transaction is hashed once here, and stages 2 and 3 take
/// its id from this list.
///
/// # Errors
///
/// [`BlockError`] naming the violated rule.
pub fn precheck_block(
    expected_target: crate::pow::Target,
    block: &Block,
) -> Result<Vec<Digest32>, BlockError> {
    if block.header.target != expected_target {
        return Err(BlockError::WrongTarget);
    }
    if !block.header.meets_target() {
        return Err(BlockError::BadProofOfWork);
    }
    let txids = block.txids();
    if Block::tx_root_of(&txids) != block.header.tx_root {
        return Err(BlockError::TxRootMismatch);
    }
    match block.transactions.first() {
        Some(McTransaction::Coinbase(cb)) if cb.height == block.header.height => {}
        Some(McTransaction::Coinbase(_)) => {
            return Err(BlockError::BadCoinbase("coinbase height mismatch"))
        }
        _ => {
            return Err(BlockError::BadCoinbase(
                "first transaction must be coinbase",
            ))
        }
    }
    if block.transactions[1..]
        .iter()
        .any(|tx| matches!(tx, McTransaction::Coinbase(_)))
    {
        return Err(BlockError::BadCoinbase("multiple coinbases"));
    }
    let mut seen = HashSet::with_capacity(txids.len());
    if let Some(duplicate) = txids.iter().find(|txid| !seen.insert(**txid)) {
        return Err(BlockError::DuplicateTxid(*duplicate));
    }
    let commitment = crate::chain::Blockchain::build_commitment(&block.transactions);
    if commitment.root() != block.header.sc_txs_commitment {
        return Err(BlockError::CommitmentMismatch);
    }
    Ok(txids)
}

// ---- Stage 2: parallel proof verification --------------------------------

/// One verdict cache: boolean outcomes by key, with one contract — a
/// hit can never change an outcome, because a miss runs the check
/// inline. A **recording** cache additionally memoizes every inline
/// outcome (interior mutability, so stage 3 records through the shared
/// reference it is handed).
#[derive(Debug, Default)]
pub struct VerdictCache {
    verdicts: RefCell<HashMap<Digest32, bool>>,
    recording: bool,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl VerdictCache {
    pub(crate) fn with_verdicts(verdicts: HashMap<Digest32, bool>) -> Self {
        VerdictCache {
            verdicts: RefCell::new(verdicts),
            ..Self::default()
        }
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.verdicts.borrow().len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The verdict for `key`: cached if known, `inline()` otherwise
    /// (memoized when recording).
    pub fn check(&self, key: Digest32, inline: impl FnOnce() -> bool) -> bool {
        if let Some(verdict) = self.verdicts.borrow().get(&key) {
            self.hits.set(self.hits.get().saturating_add(1));
            return *verdict;
        }
        self.misses.set(self.misses.get().saturating_add(1));
        let verdict = inline();
        if self.recording {
            self.verdicts.borrow_mut().insert(key, verdict);
        }
        verdict
    }

    /// `(hits, misses)` of every [`VerdictCache::check`] so far: a hit
    /// was answered from the cache, a miss ran the check inline.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

/// What stage 3 knows before it starts: the verdicts of a block's SNARK
/// checks, keyed by full statement identity ([`ProofCheck::key`]), and
/// the transfer-signature verdicts established as a batch — at mempool
/// admission or block build for a builder, in stage 2 for a node
/// receiving the block — keyed by [`crate::sigbatch::sig_cache_key`]
/// (txid + key + message + signature — a verdict can only answer the
/// exact check that produced it). Both are [`VerdictCache`]s, consulted
/// at exactly the point where the validator would verify inline.
///
/// A block builder threads a [`ProofVerdicts::recording`] cache through
/// its dry run and hands it to [`crate::chain::Blockchain::submit`]:
/// each proof and each signature is then verified at most once per node
/// — at admission or at build time — instead of again at submission.
#[derive(Debug, Default)]
pub struct ProofVerdicts {
    /// SNARK verdicts (prefetched by stage 2, or recorded by a dry run).
    pub proofs: VerdictCache,
    /// Transfer-signature verdicts (from admission, from the builder's
    /// batch, from stage 2, or recorded by a dry run).
    pub sigs: VerdictCache,
}

impl ProofVerdicts {
    /// Two empty caches: every check verifies inline.
    pub fn inline() -> Self {
        Self::default()
    }

    /// An empty proof cache and the signature verdicts established
    /// before the dry run, both memoizing every inline verification
    /// they run: a signature the batches did not reach (an input that
    /// resolves only inside the block) is verified once, by the
    /// builder's dry run, and never again at submission.
    pub fn recording(sigs: HashMap<Digest32, bool>) -> Self {
        ProofVerdicts {
            proofs: VerdictCache {
                recording: true,
                ..VerdictCache::default()
            },
            sigs: VerdictCache {
                recording: true,
                ..VerdictCache::with_verdicts(sigs)
            },
        }
    }

    fn prefetched(proofs: HashMap<Digest32, bool>) -> Self {
        ProofVerdicts {
            proofs: VerdictCache::with_verdicts(proofs),
            sigs: VerdictCache::default(),
        }
    }

    /// The verdict for `job`: cached if prefetched or previously
    /// recorded, inline otherwise.
    pub fn check(&self, job: &ProofCheck) -> bool {
        self.proofs.check(job.key(), || job.run())
    }

    /// Stops recording; the recorded verdicts stay (the shape
    /// [`crate::chain::Blockchain::submit`] consumes).
    pub fn freeze(&mut self) {
        self.proofs.recording = false;
        self.sigs.recording = false;
    }
}

/// Collects every SNARK check a block owes, in transaction order,
/// against a read-only view of the pre-block state.
///
/// The walk mirrors the stateful validator's statement assembly: a
/// certificate accepted earlier in the same block moves the BTR/CSW
/// anchor (`H(B_w)`) of later postings for that sidechain to the block
/// being validated, so the tracker carries per-sidechain anchor
/// overrides. Transactions whose statements cannot be assembled
/// (unknown sidechain, missing boundary block, disabled operation) are
/// skipped — stage 3 rejects them with the precise cheap-check error.
pub fn collect_proof_checks(
    state: &ChainState,
    block: &Block,
    block_hash: Digest32,
    active: &[Digest32],
) -> Vec<ProofCheck> {
    let boundary = |h: u64| active.get(h as usize).copied();
    let registry = &state.registry;
    // Per-sidechain `(epoch, anchor)` of the latest certificate, as it
    // evolves through the block.
    let mut anchors: HashMap<SidechainId, (Option<EpochId>, Digest32)> = HashMap::new();
    fn anchor_of(
        anchors: &mut HashMap<SidechainId, (Option<EpochId>, Digest32)>,
        registry: &SidechainRegistry,
        id: &SidechainId,
    ) -> (Option<EpochId>, Digest32) {
        *anchors.entry(*id).or_insert_with(|| {
            registry
                .get(id)
                .and_then(|e| e.certificates.iter().next_back())
                .map(|(epoch, accepted)| (Some(*epoch), accepted.mc_block))
                .unwrap_or((None, Digest32::ZERO))
        })
    }
    let mut checks = Vec::new();
    for tx in &block.transactions {
        match tx {
            McTransaction::Certificate(cert) => {
                let Some(entry) = registry.get(&cert.sidechain_id) else {
                    continue;
                };
                let schedule = entry.config.schedule;
                let prev_end = if cert.epoch_id == 0 {
                    if schedule.start_block() == 0 {
                        Some(Digest32::ZERO)
                    } else {
                        boundary(schedule.start_block() - 1)
                    }
                } else {
                    boundary(schedule.epoch_last_height(cert.epoch_id - 1))
                };
                let epoch_end = boundary(schedule.epoch_last_height(cert.epoch_id));
                if let (Some(prev_end), Some(epoch_end)) = (prev_end, epoch_end) {
                    checks.push(verifier::certificate_proof_check(
                        &entry.config,
                        cert,
                        prev_end,
                        epoch_end,
                    ));
                }
                // Acceptance would make this the latest certificate,
                // anchored at the block being validated.
                let (epoch, _) = anchor_of(&mut anchors, registry, &cert.sidechain_id);
                if epoch.is_none() || epoch <= Some(cert.epoch_id) {
                    anchors.insert(cert.sidechain_id, (Some(cert.epoch_id), block_hash));
                }
            }
            McTransaction::Btr(btr) => {
                let Some(entry) = registry.get(&btr.sidechain_id) else {
                    continue;
                };
                let (_, anchor) = anchor_of(&mut anchors, registry, &btr.sidechain_id);
                if let Some(check) = verifier::btr_proof_check(&entry.config, btr, anchor) {
                    checks.push(check);
                }
            }
            McTransaction::Csw(csw) => {
                let Some(entry) = registry.get(&csw.sidechain_id) else {
                    continue;
                };
                let (_, anchor) = anchor_of(&mut anchors, registry, &csw.sidechain_id);
                if let Some(check) = verifier::csw_proof_check(&entry.config, csw, anchor) {
                    checks.push(check);
                }
            }
            McTransaction::Coinbase(_)
            | McTransaction::Transfer(_)
            | McTransaction::SidechainDeclaration(_) => {}
        }
    }
    checks
}

/// Stage 2: collects a block's proof work list and verifies it on one
/// scoped thread per core (up to the list's size). Returns the filled
/// verdict cache for stage 3. Batch sizes and per-worker verify time
/// record through `telemetry` (see [`batch::verify_batch_with`]).
pub fn verify_block_proofs(
    state: &ChainState,
    block: &Block,
    block_hash: Digest32,
    active: &[Digest32],
    telemetry: &Telemetry,
) -> ProofVerdicts {
    let checks = collect_proof_checks(state, block, block_hash, active);
    if checks.is_empty() {
        return ProofVerdicts::inline();
    }
    let items: Vec<BatchItem> = checks
        .iter()
        .map(|c| BatchItem {
            vk: c.vk,
            inputs: c.inputs.clone(),
            proof: c.proof,
        })
        .collect();
    let outcomes = batch::verify_batch_with(&items, batch::default_workers(items.len()), telemetry);
    // Duplicate statements (same key) necessarily share a verdict.
    ProofVerdicts::prefetched(
        checks
            .iter()
            .zip(outcomes)
            .map(|(check, verdict)| (check.key(), verdict))
            .collect(),
    )
}

// ---- Stage 3: atomic application with a single undo record ---------------

/// One journaled UTXO-set mutation.
#[derive(Clone, Debug)]
pub(crate) enum UtxoOp {
    /// An output was created at this outpoint.
    Created(OutPoint),
    /// This output was spent (previous value retained for undo).
    Spent(OutPoint, TxOut),
}

/// The single undo record of one connected block: the journaled UTXO
/// mutations and [`RegistryUndo`] deltas (both replayed in reverse on
/// disconnect) plus the pre-block mint counter. Everything a reorg
/// needs, at O(block) size — the registry half used to be a full
/// [`SidechainRegistry`] clone per block, O(sidechains + nullifiers).
#[derive(Clone, Debug, Default)]
pub struct BlockUndo {
    ops: Vec<UtxoOp>,
    registry: RegistryUndo,
    minted: Amount,
}

/// A position inside a [`BlockUndo`] journal, for rolling back the
/// suffix written after it: a single failed transaction (the one-pass
/// block builder's per-candidate rollback), or the whole block from
/// the default mark, its start.
#[derive(Clone, Copy, Debug, Default)]
pub struct UndoMark {
    utxo_ops: usize,
    registry_ops: usize,
}

impl BlockUndo {
    /// An empty journal over `state` (stage 3 keeps it as the block's
    /// undo record; the block builder reverts its dry run on the live
    /// state through it).
    pub(crate) fn new(state: &ChainState) -> Self {
        BlockUndo {
            ops: Vec::new(),
            registry: RegistryUndo::default(),
            minted: state.minted,
        }
    }

    /// Number of journaled UTXO mutations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The journaled UTXO mutations, in application order (the chain
    /// event log derives connect/disconnect deltas from them).
    pub(crate) fn ops(&self) -> &[UtxoOp] {
        &self.ops
    }

    /// Returns `true` when the block touched no UTXOs.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The current journal position; pass to
    /// [`BlockUndo::revert_to_mark`] to roll back everything journaled
    /// after this point.
    pub fn mark(&self) -> UndoMark {
        UndoMark {
            utxo_ops: self.ops.len(),
            registry_ops: self.registry.len(),
        }
    }

    /// Reverts (and drops from the journal) every mutation recorded
    /// after `mark`, newest first — the per-transaction rollback used
    /// by the one-pass block builder when a candidate fails
    /// mid-application, and, from the journal's start, the whole-block
    /// rollback of [`revert_block`]. The one reverse replay of the
    /// journal.
    pub fn revert_to_mark(&mut self, state: &mut ChainState, mark: UndoMark) {
        for op in self.ops.drain(mark.utxo_ops..).rev() {
            match op {
                UtxoOp::Created(outpoint) => {
                    state.utxos.remove(&outpoint);
                }
                UtxoOp::Spent(outpoint, output) => {
                    state.utxos.insert(outpoint, output);
                }
            }
        }
        state
            .registry
            .revert_to(&mut self.registry, mark.registry_ops);
    }
}

fn create_utxo(state: &mut ChainState, undo: &mut BlockUndo, outpoint: OutPoint, output: TxOut) {
    let previous = state.utxos.insert(outpoint, output);
    debug_assert!(previous.is_none(), "outpoint collision at {outpoint:?}");
    undo.ops.push(UtxoOp::Created(outpoint));
}

fn spend_utxo(state: &mut ChainState, undo: &mut BlockUndo, outpoint: &OutPoint) -> TxOut {
    let spent = state.utxos.remove(outpoint).expect("presence checked");
    undo.ops.push(UtxoOp::Spent(*outpoint, spent));
    spent
}

/// Reverts a connected block, or the block builder's dry run: rolls
/// the whole journal back from its start and restores the pre-block
/// mint counter.
pub fn revert_block(state: &mut ChainState, mut undo: BlockUndo) {
    undo.revert_to_mark(state, UndoMark::default());
    state.minted = undo.minted;
}

/// Stage 3: applies a block's effects to `state`, journaling every
/// mutation. On success, returns the block's [`BlockUndo`]; on failure,
/// the partial journal is reverted and the state is untouched. `txids`
/// are the block's transaction ids in order, as [`precheck_block`]
/// returned them.
///
/// `verdicts` supplies the stage-2 proof verdicts; pass
/// [`ProofVerdicts::inline`] to verify every proof inline.
///
/// # Errors
///
/// [`BlockError`] naming the first violated rule, in the same order a
/// serial validator reports them.
pub fn apply_block(
    state: &mut ChainState,
    block: &Block,
    txids: &[Digest32],
    block_hash: Digest32,
    active: &[Digest32],
    block_subsidy: Amount,
    verdicts: &ProofVerdicts,
) -> Result<BlockUndo, BlockError> {
    assert_eq!(
        txids.len(),
        block.transactions.len(),
        "stage 3 takes one id per transaction"
    );
    let mut undo = BlockUndo::new(state);
    match apply_block_inner(
        state,
        block,
        txids,
        block_hash,
        active,
        block_subsidy,
        verdicts,
        &mut undo,
    ) {
        Ok(()) => Ok(undo),
        Err(e) => {
            revert_block(state, undo);
            Err(e)
        }
    }
}

/// Block start, shared by stage 3 and the block builder's dry run:
/// epoch bookkeeping at `height` — ceasing (Def 4.2) and certificate
/// maturity, whose payouts become UTXOs before any transaction runs.
pub(crate) fn begin_block(state: &mut ChainState, height: u64, undo: &mut BlockUndo) {
    let payouts = state.registry.begin_block(height, &mut undo.registry);
    for payout in payouts {
        for (i, bt) in payout.transfers.iter().enumerate() {
            create_utxo(
                state,
                undo,
                OutPoint {
                    txid: payout.certificate_digest,
                    index: i as u32,
                },
                bt.tx_out(),
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_block_inner(
    state: &mut ChainState,
    block: &Block,
    txids: &[Digest32],
    block_hash: Digest32,
    active: &[Digest32],
    block_subsidy: Amount,
    verdicts: &ProofVerdicts,
    undo: &mut BlockUndo,
) -> Result<(), BlockError> {
    let height = block.header.height;
    begin_block(state, height, undo);

    // Phase 1: non-coinbase transactions, accumulating fees.
    let mut fees = Amount::ZERO;
    for (tx, txid) in block.transactions.iter().zip(txids).skip(1) {
        let fee = apply_transaction(state, tx, *txid, height, block_hash, active, verdicts, undo)?;
        fees = fees.checked_add(fee).ok_or(BlockError::AmountOverflow)?;
    }

    // Phase 2: coinbase (applied last: its outputs are unspendable
    // within the creating block).
    let McTransaction::Coinbase(cb) = &block.transactions[0] else {
        return Err(BlockError::BadCoinbase(
            "first transaction must be coinbase",
        ));
    };
    if cb.outputs.iter().any(|o| o.is_escrow()) {
        return Err(BlockError::BadCoinbase(
            "coinbase cannot mint escrow outputs",
        ));
    }
    let cb_total = Amount::checked_sum(cb.outputs.iter().map(|o| o.amount))
        .ok_or(BlockError::AmountOverflow)?;
    let allowed = block_subsidy
        .checked_add(fees)
        .ok_or(BlockError::AmountOverflow)?;
    if cb_total > allowed {
        return Err(BlockError::BadCoinbase("claims more than subsidy + fees"));
    }
    for (i, out) in cb.outputs.iter().enumerate() {
        create_utxo(
            state,
            undo,
            OutPoint {
                txid: txids[0],
                index: i as u32,
            },
            *out,
        );
    }
    // Net minted coins: coinbase output minus recycled fees. Fees the
    // coinbase leaves unclaimed are burned, so the net can be negative.
    state.minted = state
        .minted
        .checked_sub(fees)
        .and_then(|minted| minted.checked_add(cb_total))
        .ok_or(BlockError::AmountOverflow)?;
    Ok(())
}

/// Applies one non-coinbase transaction whose id is `txid`, returning
/// its fee. Mutations are journaled into `undo`; proof checks consult
/// `verdicts`.
///
/// # Errors
///
/// [`BlockError`] naming the violated rule.
#[allow(clippy::too_many_arguments)]
pub fn apply_transaction(
    state: &mut ChainState,
    tx: &McTransaction,
    txid: Digest32,
    height: u64,
    block_hash: Digest32,
    active: &[Digest32],
    verdicts: &ProofVerdicts,
    undo: &mut BlockUndo,
) -> Result<Amount, BlockError> {
    let boundary = |h: u64| active.get(h as usize).copied();
    match tx {
        McTransaction::Coinbase(_) => Err(BlockError::BadCoinbase("coinbase not first")),
        McTransaction::Transfer(t) => {
            if t.inputs.is_empty() {
                return Err(BlockError::NoInputs);
            }
            // Uniqueness of spent outpoints within the transaction.
            let mut outpoints = HashSet::new();
            for input in &t.inputs {
                if !outpoints.insert(input.outpoint) {
                    return Err(BlockError::DoubleSpendInBlock(input.outpoint));
                }
            }
            // Authorization + input total. Regular inputs need a valid
            // signature from the output's key; escrow-kind inputs have
            // NO key — consensus authorizes (or rejects) the spend as a
            // whole below, and any signature present is ignored.
            let mut escrow_inputs: Vec<(Amount, zendoo_core::escrow::EscrowTag)> = Vec::new();
            let mut first_regular: Option<usize> = None;
            let mut total_in = Amount::ZERO;
            // The sighash is shared by every input — compute it at most
            // once per transaction, not per input.
            let mut sighash_memo: Option<Digest32> = None;
            let cached = verdicts.sigs.recording || !verdicts.sigs.is_empty();
            for (i, input) in t.inputs.iter().enumerate() {
                let spent = state
                    .utxos
                    .get(&input.outpoint)
                    .ok_or(BlockError::MissingInput(input.outpoint))?;
                match spent.kind {
                    crate::transaction::OutputKind::Regular => {
                        if zendoo_core::ids::Address::from_public_key(&input.pubkey)
                            != spent.address
                        {
                            return Err(BlockError::BadInputAuthorization { input: i });
                        }
                        let sighash = *sighash_memo.get_or_insert_with(|| t.sighash());
                        let ok = if cached {
                            verdicts.sigs.check(
                                crate::sigbatch::sig_cache_key(&txid, input, &sighash),
                                || input.verify_signature(&sighash),
                            )
                        } else {
                            input.verify_signature(&sighash)
                        };
                        if !ok {
                            return Err(BlockError::BadInputAuthorization { input: i });
                        }
                        first_regular.get_or_insert(i);
                    }
                    crate::transaction::OutputKind::Escrow(tag) => {
                        escrow_inputs.push((spent.amount, tag));
                    }
                }
                total_in = total_in
                    .checked_add(spent.amount)
                    .ok_or(BlockError::AmountOverflow)?;
            }
            let spends_escrow = !escrow_inputs.is_empty();
            // Escrow spends may not launder through regular inputs (or
            // vice versa): the exact-matching rule below needs the
            // whole transaction to be an escrow settlement/refund.
            if spends_escrow {
                if let Some(input) = first_regular {
                    return Err(BlockError::Escrow(
                        zendoo_core::escrow::EscrowError::MixedInputs { input },
                    ));
                }
            }
            let total_out = t.total_output().ok_or(BlockError::AmountOverflow)?;
            if total_out > total_in {
                return Err(BlockError::ValueImbalance);
            }
            // Output walk: decode settlement batches, forbid forged
            // escrow-kind outputs (only certificate maturation creates
            // them), and forbid escrowed value leaving through plain
            // forward transfers.
            let mut batches = Vec::new();
            let mut regular_outs = Vec::new();
            for (i, output) in t.outputs.iter().enumerate() {
                match output {
                    Output::Forward(ft) => {
                        match settlement::check_settlement_output(ft)
                            .map_err(BlockError::Settlement)?
                        {
                            Some(batch) => batches.push(batch),
                            None if spends_escrow => {
                                return Err(BlockError::Escrow(
                                    zendoo_core::escrow::EscrowError::PlainForward { output: i },
                                ));
                            }
                            None => {}
                        }
                    }
                    Output::Regular(out) => {
                        if out.is_escrow() {
                            return Err(BlockError::Escrow(
                                zendoo_core::escrow::EscrowError::ForgedOutput { output: i },
                            ));
                        }
                        regular_outs.push((out.address, out.amount));
                    }
                }
            }
            // The escrow consensus rule: every consumed escrow input is
            // claimed by exactly one settlement entry (window, dest,
            // payback, nullifier and amount all bind) or refunded
            // exactly while its destination cannot take delivery; no
            // output escapes the matching. This is what replaced the
            // well-known escrow key — theft paths die here.
            if spends_escrow || !batches.is_empty() {
                zendoo_core::escrow::validate_escrow_spend(
                    &escrow_inputs,
                    &batches,
                    &regular_outs,
                    |dest| {
                        state
                            .registry
                            .get(dest)
                            .is_some_and(|e| e.status == crate::registry::SidechainStatus::Active)
                    },
                )
                .map_err(BlockError::Escrow)?;
            }
            // Apply: spend inputs, create outputs, credit FTs.
            for input in &t.inputs {
                spend_utxo(state, undo, &input.outpoint);
            }
            for (i, output) in t.outputs.iter().enumerate() {
                match output {
                    Output::Regular(out) => {
                        create_utxo(
                            state,
                            undo,
                            OutPoint {
                                txid,
                                index: i as u32,
                            },
                            *out,
                        );
                    }
                    Output::Forward(ft) => {
                        state.registry.credit_forward_transfer(
                            &ft.sidechain_id,
                            ft.amount,
                            &mut undo.registry,
                        )?;
                    }
                }
            }
            Ok(total_in.checked_sub(total_out).expect("checked above"))
        }
        McTransaction::SidechainDeclaration(config) => {
            state
                .registry
                .declare((**config).clone(), height, &mut undo.registry)?;
            Ok(Amount::ZERO)
        }
        McTransaction::Certificate(cert) => {
            state.registry.accept_certificate(
                cert,
                height,
                block_hash,
                boundary,
                |job| verdicts.check(job),
                &mut undo.registry,
            )?;
            Ok(Amount::ZERO)
        }
        McTransaction::Btr(btr) => {
            state
                .registry
                .accept_btr(btr, |job| verdicts.check(job), &mut undo.registry)?;
            Ok(Amount::ZERO)
        }
        McTransaction::Csw(csw) => {
            let bt =
                state
                    .registry
                    .accept_csw(csw, |job| verdicts.check(job), &mut undo.registry)?;
            create_utxo(
                state,
                undo,
                OutPoint { txid, index: 0 },
                TxOut::regular(bt.receiver, bt.amount),
            );
            Ok(Amount::ZERO)
        }
    }
}
