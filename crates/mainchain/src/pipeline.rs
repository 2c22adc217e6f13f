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
//! 2. **Batched proof and signature verification**
//!    ([`ProofVerdicts`]) — the verdict of every SNARK check the block
//!    owes (certificates, BTRs, CSWs) and of every transfer signature,
//!    keyed by full statement (or signature) identity. A block that
//!    comes with its builder's verdicts brings them. A block that
//!    arrives alone is walked once by stage 3 under
//!    [`ProofVerdicts::deferring`], which answers each check `true` and
//!    records it as owed; [`ProofVerdicts::discharge`] then verifies the
//!    owed proofs as one parallel batch and the owed signatures as one
//!    batch equation per worker. When a verdict fails, stage 3 runs
//!    again with the discharged verdicts as its cache: that walk meets
//!    the first failing check in serial order and names it, and
//!    verifies nothing twice. Statements are assembled in one place,
//!    the walk; batching and deferral are optimizations, never a
//!    semantic change.
//! 3. **Atomic state application** ([`apply_block`]) — the stateful
//!    walk. All mutations are journaled into a single [`BlockUndo`]
//!    record per block; on any failure the journal is replayed in
//!    reverse and the state is returned bit-identical. The same record
//!    serves reorg disconnects, replacing the full [`ChainState`]
//!    snapshot per block the chain used to retain (O(UTXO-set) memory
//!    per block, now O(block)).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use zendoo_core::ids::Amount;
use zendoo_core::settlement;
use zendoo_core::verifier::ProofCheck;
use zendoo_primitives::digest::Digest32;
use zendoo_snark::batch::{self, BatchItem};
use zendoo_telemetry::Telemetry;

use crate::block::Block;
use crate::chain::{BlockError, ChainState};
use crate::registry::RegistryUndo;
use crate::sigbatch::{self, SigCheck};
use crate::transaction::{McTransaction, OutPoint, Output, TxIn, TxOut};

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

// ---- Stage 2: batched proof and signature verification -------------------

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
/// admission or block build for a builder, by the discharge of a
/// deferring walk for a node receiving the block — keyed by
/// [`sigbatch::sig_cache_key`] (txid + key + message + signature — a
/// verdict can only answer the exact check that produced it). Both are
/// [`VerdictCache`]s, consulted through [`ProofVerdicts::check`] and
/// `check_sig` at exactly the point where the validator
/// would verify inline.
///
/// A block builder threads a [`ProofVerdicts::recording`] cache through
/// its dry run and hands it to [`crate::chain::Blockchain::submit`]:
/// each proof and each signature is then verified at most once per node
/// — at admission or at build time — instead of again at submission. A
/// node receiving a block alone walks it under
/// [`ProofVerdicts::deferring`] and settles what the walk owes with
/// [`ProofVerdicts::discharge`].
#[derive(Debug, Default)]
pub struct ProofVerdicts {
    /// SNARK verdicts (recorded by a dry run, or discharged).
    pub proofs: VerdictCache,
    /// Transfer-signature verdicts (from admission, from the builder's
    /// batch, recorded by a dry run, or discharged).
    pub sigs: VerdictCache,
    /// The checks a deferring walk met, each answered `true` for now;
    /// `None` answers every check from the caches.
    owed: Option<RefCell<Owed>>,
}

/// What a deferring walk owes, in the order it met the checks.
#[derive(Debug, Default)]
struct Owed {
    proofs: Vec<ProofCheck>,
    sigs: Vec<SigCheck>,
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
            owed: None,
        }
    }

    /// Answers every proof and signature check `true` and records it as
    /// owed, for [`ProofVerdicts::discharge`]. A walk under it is the
    /// inline walk exactly when every owed check holds; the cheap rules
    /// (address binding, schema, quality, amounts) still run in place.
    pub fn deferring() -> Self {
        ProofVerdicts {
            owed: Some(RefCell::default()),
            ..Self::default()
        }
    }

    /// The verdict for `job`: owed when deferring, cached if recorded
    /// or discharged, inline otherwise.
    pub fn check(&self, job: &ProofCheck) -> bool {
        if let Some(owed) = &self.owed {
            owed.borrow_mut().proofs.push(job.clone());
            return true;
        }
        self.proofs.check(job.key(), || job.run())
    }

    /// The verdict for the signature of `tx_in`, input `input` of the
    /// transfer `txid` whose sighash is `sighash`: owed when deferring,
    /// cached if known, inline otherwise.
    pub(crate) fn check_sig(
        &self,
        txid: Digest32,
        input: usize,
        tx_in: &TxIn,
        sighash: Digest32,
    ) -> bool {
        if let Some(owed) = &self.owed {
            owed.borrow_mut().sigs.push(SigCheck {
                txid,
                input,
                tx_in: tx_in.clone(),
                sighash,
            });
            return true;
        }
        self.sigs
            .check(sigbatch::sig_cache_key(&txid, tx_in, &sighash), || {
                tx_in.verify_signature(&sighash)
            })
    }

    /// Takes and verifies what a deferring walk owes: its proofs as one
    /// parallel batch ([`batch::verify_batch_with`], `snark.batch.*`),
    /// its signatures as one batch equation per worker
    /// ([`sigbatch::verify_sig_batch_with`], `sig.batch.*`); nothing
    /// owed of a kind runs no batch of it. `None` when every owed check
    /// holds: each answer the walk was given was the true one, so its
    /// outcome is the inline validator's. Otherwise the verdicts, keyed
    /// where stage 3 looks them up, for the rerun that meets the first
    /// failing check in serial order — it meets no check the deferring
    /// walk did not, so it verifies nothing again.
    pub fn discharge(&self, telemetry: &Telemetry) -> Option<ProofVerdicts> {
        let Owed { proofs, sigs } = self.owed.as_ref().map(RefCell::take).unwrap_or_default();
        let proof_verdicts = if proofs.is_empty() {
            Vec::new()
        } else {
            let items: Vec<BatchItem> = proofs
                .iter()
                .map(|c| BatchItem {
                    vk: c.vk,
                    inputs: c.inputs.clone(),
                    proof: c.proof,
                })
                .collect();
            batch::verify_batch_with(&items, batch::default_workers(items.len()), telemetry)
        };
        let sig_verdicts = if sigs.is_empty() {
            Vec::new()
        } else {
            sigbatch::verify_sig_batch_with(&sigs, batch::default_workers(sigs.len()), telemetry)
        };
        if proof_verdicts
            .iter()
            .chain(&sig_verdicts)
            .all(|holds| *holds)
        {
            return None;
        }
        Some(ProofVerdicts {
            proofs: VerdictCache::with_verdicts(
                proofs
                    .iter()
                    .map(ProofCheck::key)
                    .zip(proof_verdicts)
                    .collect(),
            ),
            sigs: VerdictCache::with_verdicts(
                sigs.iter()
                    .map(SigCheck::cache_key)
                    .zip(sig_verdicts)
                    .collect(),
            ),
            owed: None,
        })
    }

    /// Stops recording and restarts the hit and miss counts; the
    /// recorded verdicts stay (the shape
    /// [`crate::chain::Blockchain::submit`] consumes).
    pub fn freeze(&mut self) {
        for cache in [&mut self.proofs, &mut self.sigs] {
            cache.recording = false;
            cache.hits.set(0);
            cache.misses.set(0);
        }
    }
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
/// Every proof and signature check consults `verdicts`: pass
/// [`ProofVerdicts::inline`] to verify each where it is met, or
/// [`ProofVerdicts::deferring`] to owe it to one batch.
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
/// its fee. Mutations are journaled into `undo`; proof and signature
/// checks consult `verdicts`.
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
                        if !verdicts.check_sig(txid, i, input, sighash) {
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
