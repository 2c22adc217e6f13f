//! State-transition proofs (paper §5.4, Figs 10–11).
//!
//! [`LatusTransitionVerifier`] is the single-transition relation fed to
//! the recursive SNARK system (Def 2.5): given the pre/post state digests
//! and a [`TransitionWitness`], it re-derives the post digest from the
//! pre digest using only witnessed data — Merkle paths, signatures and
//! accumulator folds — mirroring what the production base circuit
//! constrains. Its input signatures are deferred
//! (`verify_transition_deferred`), so the epoch's base layer checks every
//! transfer signature of the epoch as one batch equation.
//! [`EpochProofBuilder`] accumulates the per-transaction witnesses of a
//! withdrawal epoch and folds them into one constant-size proof via the
//! balanced merge tree of Fig 11.

use std::sync::Arc;
use zendoo_core::ids::Address;
use zendoo_core::transfer::BackwardTransfer;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::field::Fp;
use zendoo_primitives::smt::{SmtProof, WitnessError};
use zendoo_snark::circuit::{gadget_cost, Unsatisfied};
use zendoo_snark::deferred::Deferred;
use zendoo_snark::recursive::{RecursiveSystem, StateProof, TransitionVerifier};

use crate::mst::mst_position;
use crate::params::LatusParams;
use crate::state::{
    fold_backward_transfer, fold_delta_position, fold_sync, state_digest, SyncKind,
};
use crate::tx::{
    btr_claimed_utxo, classify_ft_metadata, ft_batch_output_utxo, ft_output_utxo, salvage_payback,
    BtrStep, FtEntryStep, FtKind, FtStep, LeafUpdate, ScTransaction, SignedInput,
    TransitionWitness, UpdateError, SC_SIGHASH_CONTEXT,
};

/// The Latus single-transition constraint system.
#[derive(Clone, Copy, Debug)]
pub struct LatusTransitionVerifier {
    params: LatusParams,
}

impl LatusTransitionVerifier {
    /// Creates the verifier for one Latus deployment.
    pub fn new(params: LatusParams) -> Self {
        LatusTransitionVerifier { params }
    }

    /// The deployment parameters.
    pub fn params(&self) -> &LatusParams {
        &self.params
    }
}

/// The proving system type for Latus state transitions.
pub type LatusProofSystem = RecursiveSystem<LatusTransitionVerifier>;

/// Bootstraps the recursive proving system for a deployment
/// (deterministic so that all nodes of a sidechain share keys).
pub fn proof_system(params: LatusParams, seed: &[u8]) -> LatusProofSystem {
    RecursiveSystem::new_deterministic(LatusTransitionVerifier::new(params), seed)
}

/// Pins a witnessed MST path to the deployment's tree: it reads its
/// index bits at this depth and walks at most `depth` levels. (A path
/// ends as soon as it meets an empty subtree or a lone leaf, so most are
/// much shorter.)
pub(crate) fn check_path_depth(
    path: &SmtProof,
    depth: u32,
    rule: &'static str,
) -> Result<(), Unsatisfied> {
    if path.depth() == depth && path.siblings().len() <= depth as usize {
        Ok(())
    } else {
        Err(Unsatisfied::new(
            rule,
            format!(
                "MST path of depth {} with {} siblings, the tree has depth {depth}",
                path.depth(),
                path.siblings().len()
            ),
        ))
    }
}

/// Running accumulator tuple during witness replay.
struct Replay {
    depth: u32,
    mst_root: Fp,
    bt_acc: Fp,
    delta_acc: Fp,
    sync_acc: Fp,
}

impl Replay {
    fn digest(&self) -> Fp {
        state_digest(self.mst_root, self.bt_acc, self.delta_acc, self.sync_acc)
    }

    /// Applies a leaf update, folding the delta accumulator.
    fn apply_update(&mut self, update: &LeafUpdate) -> Result<(), Unsatisfied> {
        check_path_depth(&update.path, self.depth, "latus/path-depth")?;
        self.mst_root = update.apply_to_root(&self.mst_root).map_err(|e| match e {
            UpdateError::Witness(WitnessError::SiblingOpening) => Unsatisfied::new(
                "latus/sibling-opening",
                "a removal must open its deepest sibling as the leaf or interior node it is",
            ),
            _ => Unsatisfied::new("latus/path", "leaf update path does not match running root"),
        })?;
        self.delta_acc = fold_delta_position(self.delta_acc, update.position());
        Ok(())
    }

    fn append_bt(&mut self, receiver: Address, amount: zendoo_core::ids::Amount) {
        let bt = BackwardTransfer { receiver, amount };
        self.bt_acc = fold_backward_transfer(self.bt_acc, &bt);
    }
}

/// Checks one signed input: ownership, signature and the matching
/// removal update; advances the replay. The ownership half
/// (address = H(key)) is checked here; the signature is stated into
/// `deferred`.
fn check_spend(
    replay: &mut Replay,
    input: &SignedInput,
    update: &LeafUpdate,
    sighash: &Digest32,
    depth: u32,
    index: usize,
    deferred: &mut Deferred,
) -> Result<(), Unsatisfied> {
    let auth = || {
        Unsatisfied::new(
            "latus/input-auth",
            format!("input {index} ownership/signature check failed"),
        )
    };
    if !input.owns_utxo() {
        return Err(auth());
    }
    deferred.signature(
        SC_SIGHASH_CONTEXT,
        &input.pubkey,
        sighash.as_bytes(),
        &input.signature,
        auth,
    )?;
    let expected_position = mst_position(&input.utxo, depth);
    if update.position() != expected_position {
        return Err(Unsatisfied::new(
            "latus/input-position",
            format!("input {index} update at wrong MST position"),
        ));
    }
    if update.old_leaf() != Some(input.utxo.leaf()) || update.new_leaf.is_some() {
        return Err(Unsatisfied::new(
            "latus/input-leaf",
            format!("input {index} update is not a removal of the spent utxo"),
        ));
    }
    replay.apply_update(update)
}

/// Checks that a collision rejection's evidence proves `position`
/// occupied under the running root: a membership proof of whatever leaf
/// sits there.
fn check_occupied_slot(
    replay: &Replay,
    position: u64,
    occupied: &SmtProof,
    ft_index: usize,
) -> Result<(), Unsatisfied> {
    if occupied.index() != position {
        return Err(Unsatisfied::new(
            "latus/ft-collision-pos",
            format!("ft {ft_index}: collision proof at wrong position"),
        ));
    }
    check_path_depth(occupied, replay.depth, "latus/path-depth")?;
    if occupied.value().is_none() || occupied.root() != Some(replay.mst_root) {
        return Err(Unsatisfied::new(
            "latus/ft-collision",
            format!("ft {ft_index}: slot not provably occupied"),
        ));
    }
    Ok(())
}

impl TransitionVerifier for LatusTransitionVerifier {
    type Witness = TransitionWitness;

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged(
            "zendoo/latus-transition",
            &[
                self.params.sidechain_id.0.as_bytes(),
                &self.params.mst_depth.to_be_bytes(),
            ],
        )
    }

    fn verify_transition(
        &self,
        from: &Fp,
        to: &Fp,
        w: &TransitionWitness,
    ) -> Result<(), Unsatisfied> {
        self.verify_transition_deferred(from, to, w, &mut Deferred::eager())
    }

    /// Every input signature of a payment or withdrawal is stated into
    /// `deferred`; everything else — the address = H(key) half of input
    /// authorization included — is checked where it stands.
    fn verify_transition_deferred(
        &self,
        from: &Fp,
        to: &Fp,
        w: &TransitionWitness,
        deferred: &mut Deferred,
    ) -> Result<(), Unsatisfied> {
        let depth = self.params.mst_depth;
        let mut replay = Replay {
            depth,
            mst_root: w.pre_mst_root,
            bt_acc: w.pre_bt_accumulator,
            delta_acc: w.pre_delta_accumulator,
            sync_acc: w.pre_sync_accumulator,
        };
        if *from != replay.digest() {
            return Err(Unsatisfied::new(
                "latus/from-digest",
                "pre-state digest does not match witnessed components",
            ));
        }

        match &w.tx {
            ScTransaction::Payment(tx) => {
                let sighash = tx.sighash();
                check_no_duplicate_inputs(&tx.inputs)?;
                check_value_balance(&tx.inputs, &tx.outputs, &[])?;
                if w.updates.len() != tx.inputs.len() + tx.outputs.len() {
                    return Err(Unsatisfied::new(
                        "latus/update-arity",
                        "payment update count mismatch",
                    ));
                }
                for (i, (input, update)) in tx.inputs.iter().zip(&w.updates).enumerate() {
                    check_spend(&mut replay, input, update, &sighash, depth, i, deferred)?;
                }
                for (output, update) in tx.outputs.iter().zip(&w.updates[tx.inputs.len()..]) {
                    if update.position() != mst_position(output, depth)
                        || update.old_leaf().is_some()
                        || update.new_leaf != Some(output.leaf())
                    {
                        return Err(Unsatisfied::new(
                            "latus/output-leaf",
                            "output update is not an insertion into an empty slot",
                        ));
                    }
                    replay.apply_update(update)?;
                }
            }
            ScTransaction::BackwardTransfer(tx) => {
                let sighash = tx.sighash();
                check_no_duplicate_inputs(&tx.inputs)?;
                check_value_balance(&tx.inputs, &[], &tx.backward_transfers)?;
                if w.updates.len() != tx.inputs.len() {
                    return Err(Unsatisfied::new(
                        "latus/update-arity",
                        "backward-transfer update count mismatch",
                    ));
                }
                for (i, (input, update)) in tx.inputs.iter().zip(&w.updates).enumerate() {
                    check_spend(&mut replay, input, update, &sighash, depth, i, deferred)?;
                }
                for bt in &tx.backward_transfers {
                    replay.append_bt(bt.receiver, bt.amount);
                }
            }
            ScTransaction::ForwardTransfers(tx) => {
                if !tx.binding.verify_forward_transfers(
                    &tx.mc_block,
                    &self.params.sidechain_id,
                    &tx.transfers,
                ) {
                    return Err(Unsatisfied::new(
                        "latus/ft-binding",
                        "forward transfers not bound to the MC block commitment",
                    ));
                }
                if w.ft_steps.len() != tx.transfers.len() {
                    return Err(Unsatisfied::new(
                        "latus/ft-arity",
                        "one step required per forward transfer",
                    ));
                }
                for (i, (ft, step)) in tx.transfers.iter().zip(&w.ft_steps).enumerate() {
                    // Classic 64-byte metadata, the tagged cross-chain
                    // form, or an aggregated settlement batch — the
                    // circuit mirrors the update semantics of
                    // `tx::apply_transaction` exactly via the shared
                    // classifier.
                    let kind = classify_ft_metadata(&self.params.sidechain_id, ft);
                    let single = match &kind {
                        FtKind::Classic { receiver, payback } => Some((*receiver, *payback)),
                        FtKind::Cross { meta } => Some((meta.receiver, meta.payback)),
                        FtKind::Settlement(_) | FtKind::Malformed => None,
                    };
                    match (&kind, single, step) {
                        (FtKind::Malformed, _, FtStep::RejectedMalformed) => {
                            // Mirrors `apply_forward_transfers`: a
                            // malformed FT refunds its full amount to
                            // the salvaged payback address. The circuit
                            // re-derives both, so a prover can neither
                            // redirect nor strand the refund.
                            replay.append_bt(salvage_payback(&ft.receiver_metadata), ft.amount);
                        }
                        (FtKind::Malformed, _, _) => {
                            return Err(Unsatisfied::new(
                                "latus/ft-malformed",
                                format!("ft {i}: malformed metadata must be rejected"),
                            ));
                        }
                        (_, Some((receiver, _)), FtStep::Minted(update)) => {
                            let utxo = ft_output_utxo(&tx.mc_block, i, receiver, ft.amount);
                            if update.position() != mst_position(&utxo, depth)
                                || update.old_leaf().is_some()
                                || update.new_leaf != Some(utxo.leaf())
                            {
                                return Err(Unsatisfied::new(
                                    "latus/ft-mint",
                                    format!("ft {i}: mint update malformed"),
                                ));
                            }
                            replay.apply_update(update)?;
                        }
                        (_, Some((receiver, payback)), FtStep::RejectedCollision { occupied }) => {
                            let utxo = ft_output_utxo(&tx.mc_block, i, receiver, ft.amount);
                            check_occupied_slot(&replay, mst_position(&utxo, depth), occupied, i)?;
                            replay.append_bt(payback, ft.amount);
                        }
                        (FtKind::Settlement(batch), _, FtStep::Settled(entry_steps)) => {
                            if entry_steps.len() != batch.transfers.len() {
                                return Err(Unsatisfied::new(
                                    "latus/ft-batch-arity",
                                    format!("ft {i}: one sub-step required per batch entry"),
                                ));
                            }
                            for (entry, (xct, entry_step)) in
                                batch.transfers.iter().zip(entry_steps).enumerate()
                            {
                                let utxo = ft_batch_output_utxo(
                                    &tx.mc_block,
                                    i,
                                    entry,
                                    xct.receiver,
                                    xct.amount,
                                );
                                match entry_step {
                                    FtEntryStep::Minted(update) => {
                                        if update.position() != mst_position(&utxo, depth)
                                            || update.old_leaf().is_some()
                                            || update.new_leaf != Some(utxo.leaf())
                                        {
                                            return Err(Unsatisfied::new(
                                                "latus/ft-batch-mint",
                                                format!(
                                                    "ft {i} entry {entry}: mint update malformed"
                                                ),
                                            ));
                                        }
                                        replay.apply_update(update)?;
                                    }
                                    FtEntryStep::RejectedCollision { occupied } => {
                                        check_occupied_slot(
                                            &replay,
                                            mst_position(&utxo, depth),
                                            occupied,
                                            i,
                                        )?;
                                        replay.append_bt(xct.payback, xct.amount);
                                    }
                                }
                            }
                        }
                        (FtKind::Settlement(_), _, _) => {
                            return Err(Unsatisfied::new(
                                "latus/ft-batch",
                                format!("ft {i}: settlement batch requires settled sub-steps"),
                            ));
                        }
                        (_, Some(_), _) => {
                            return Err(Unsatisfied::new(
                                "latus/ft-skip",
                                format!("ft {i}: well-formed transfer cannot be skipped"),
                            ));
                        }
                        (_, None, _) => unreachable!("single is Some for classic/cross"),
                    }
                }
                replay.sync_acc =
                    fold_sync(replay.sync_acc, SyncKind::ForwardTransfers, &tx.mc_block);
            }
            ScTransaction::BackwardTransferRequests(tx) => {
                if !tx.binding.verify_backward_transfer_requests(
                    &tx.mc_block,
                    &self.params.sidechain_id,
                    &tx.requests,
                ) {
                    return Err(Unsatisfied::new(
                        "latus/btr-binding",
                        "BTRs not bound to the MC block commitment",
                    ));
                }
                if w.btr_steps.len() != tx.requests.len() {
                    return Err(Unsatisfied::new(
                        "latus/btr-arity",
                        "one step required per request",
                    ));
                }
                for (i, (request, step)) in tx.requests.iter().zip(&w.btr_steps).enumerate() {
                    let claim = btr_claimed_utxo(request).filter(|u| {
                        u.amount == request.amount && u.nullifier() == request.nullifier
                    });
                    match (claim, step) {
                        (None, BtrStep::RejectedMalformed) => {}
                        (None, _) => {
                            return Err(Unsatisfied::new(
                                "latus/btr-malformed",
                                format!("btr {i}: malformed request must be rejected"),
                            ));
                        }
                        (Some(utxo), BtrStep::Fulfilled(update)) => {
                            if update.position() != mst_position(&utxo, depth)
                                || update.old_leaf() != Some(utxo.leaf())
                                || update.new_leaf.is_some()
                            {
                                return Err(Unsatisfied::new(
                                    "latus/btr-spend",
                                    format!("btr {i}: fulfilment update malformed"),
                                ));
                            }
                            replay.apply_update(update)?;
                            replay.append_bt(request.receiver, request.amount);
                        }
                        (Some(utxo), BtrStep::RejectedAbsent { path }) => {
                            let position = mst_position(&utxo, depth);
                            if path.index() != position {
                                return Err(Unsatisfied::new(
                                    "latus/btr-absent-pos",
                                    format!("btr {i}: absence proof at wrong position"),
                                ));
                            }
                            check_path_depth(path, depth, "latus/path-depth")?;
                            if path.root() != Some(replay.mst_root) {
                                return Err(Unsatisfied::new(
                                    "latus/btr-absent",
                                    format!("btr {i}: slot contents not proven"),
                                ));
                            }
                            if path.value() == Some(utxo.leaf()) {
                                return Err(Unsatisfied::new(
                                    "latus/btr-censor",
                                    format!("btr {i}: claimed utxo IS present — cannot reject"),
                                ));
                            }
                        }
                        (Some(_), BtrStep::RejectedMalformed) => {
                            return Err(Unsatisfied::new(
                                "latus/btr-skip",
                                format!("btr {i}: valid request cannot be skipped as malformed"),
                            ));
                        }
                    }
                }
                replay.sync_acc = fold_sync(
                    replay.sync_acc,
                    SyncKind::BackwardTransferRequests,
                    &tx.mc_block,
                );
            }
        }

        if *to != replay.digest() {
            return Err(Unsatisfied::new(
                "latus/to-digest",
                "post-state digest does not match replayed transition",
            ));
        }
        Ok(())
    }

    /// A model, not a circuit: it charges every witnessed MST path the
    /// siblings it actually carries (≈ log₂ of the occupancy). A
    /// fixed-shape circuit would pad each path to a bound it chooses.
    fn transition_cost(&self, w: &TransitionWitness) -> u64 {
        let path = |p: &SmtProof| p.siblings().len() as u64;
        let update = |u: &LeafUpdate| path(&u.path);
        let entry = |step: &FtEntryStep| match step {
            FtEntryStep::Minted(u) => update(u),
            FtEntryStep::RejectedCollision { occupied } => path(occupied),
        };
        let levels: u64 = w.updates.iter().map(update).sum::<u64>()
            + w.ft_steps
                .iter()
                .map(|step| match step {
                    FtStep::Minted(u) => update(u),
                    FtStep::RejectedCollision { occupied } => path(occupied),
                    FtStep::Settled(entries) => entries.iter().map(entry).sum(),
                    FtStep::RejectedMalformed => 0,
                })
                .sum::<u64>()
            + w.btr_steps
                .iter()
                .map(|step| match step {
                    BtrStep::Fulfilled(u) => update(u),
                    BtrStep::RejectedAbsent { path: p } => path(p),
                    BtrStep::RejectedMalformed => 0,
                })
                .sum::<u64>();
        let (sigs, folds) = match &w.tx {
            ScTransaction::Payment(tx) => (tx.inputs.len() as u64, 0u64),
            ScTransaction::BackwardTransfer(tx) => {
                (tx.inputs.len() as u64, tx.backward_transfers.len() as u64)
            }
            ScTransaction::ForwardTransfers(_) | ScTransaction::BackwardTransferRequests(_) => {
                (0, 2)
            }
        };
        sigs * gadget_cost::SCHNORR_VERIFY
            + levels * gadget_cost::MERKLE_STEP
            + (folds + 4) * gadget_cost::POSEIDON_HASH2
    }
}

fn check_no_duplicate_inputs(inputs: &[SignedInput]) -> Result<(), Unsatisfied> {
    if inputs.is_empty() {
        return Err(Unsatisfied::new("latus/no-inputs", "spend without inputs"));
    }
    let mut seen = std::collections::HashSet::new();
    for input in inputs {
        if !seen.insert(input.utxo.digest()) {
            return Err(Unsatisfied::new(
                "latus/duplicate-input",
                "utxo spent twice in one transaction",
            ));
        }
    }
    Ok(())
}

fn check_value_balance(
    inputs: &[SignedInput],
    outputs: &[crate::mst::Utxo],
    withdrawals: &[BackwardTransfer],
) -> Result<(), Unsatisfied> {
    let total_in = zendoo_core::ids::Amount::checked_sum(inputs.iter().map(|i| i.utxo.amount))
        .ok_or_else(|| Unsatisfied::new("latus/overflow", "input overflow"))?;
    let out = zendoo_core::ids::Amount::checked_sum(outputs.iter().map(|o| o.amount))
        .ok_or_else(|| Unsatisfied::new("latus/overflow", "output overflow"))?;
    let wd = zendoo_core::ids::Amount::checked_sum(withdrawals.iter().map(|w| w.amount))
        .ok_or_else(|| Unsatisfied::new("latus/overflow", "withdrawal overflow"))?;
    let total_out = out
        .checked_add(wd)
        .ok_or_else(|| Unsatisfied::new("latus/overflow", "total output overflow"))?;
    if total_out > total_in {
        return Err(Unsatisfied::new(
            "latus/imbalance",
            format!("outputs {total_out} exceed inputs {total_in}"),
        ));
    }
    Ok(())
}

/// Accumulates a withdrawal epoch's transitions and proves them
/// (Fig 11: block-level and epoch-level composition collapse into one
/// balanced fold over all transitions of the epoch).
///
/// Transitions are kept one shared chunk per SC block, so cloning the
/// builder — a node does, for every block's rollback snapshot — copies
/// one pointer per block of the epoch and no witness.
#[derive(Clone, Debug)]
pub struct EpochProofBuilder {
    initial: Fp,
    blocks: Vec<Arc<Vec<(TransitionWitness, Fp)>>>,
}

impl EpochProofBuilder {
    /// Starts an epoch at `initial_digest` (the post-reset state digest).
    pub fn new(initial_digest: Fp) -> Self {
        EpochProofBuilder {
            initial: initial_digest,
            blocks: Vec::new(),
        }
    }

    /// Records the transitions one SC block applied, in order, each with
    /// its post-state digest.
    pub fn record_block(&mut self, transitions: Vec<(TransitionWitness, Fp)>) {
        self.blocks.push(Arc::new(transitions));
    }

    fn transitions(&self) -> impl DoubleEndedIterator<Item = &(TransitionWitness, Fp)> {
        self.blocks.iter().flat_map(|block| block.iter())
    }

    /// Number of recorded transitions.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|block| block.len()).sum()
    }

    /// Returns `true` if no transition was recorded (empty epoch).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The initial state digest.
    pub fn initial_digest(&self) -> Fp {
        self.initial
    }

    /// The latest state digest.
    pub fn final_digest(&self) -> Fp {
        self.transitions()
            .next_back()
            .map_or(self.initial, |(_, digest)| *digest)
    }

    /// Folds all transitions into one proof. Returns `None` for an empty
    /// epoch (the certificate circuit then checks digest equality
    /// directly).
    ///
    /// # Errors
    ///
    /// Propagates unsatisfied transitions from the proving system.
    pub fn prove(
        &self,
        system: &LatusProofSystem,
    ) -> Result<Option<StateProof>, zendoo_snark::backend::ProveError> {
        if self.is_empty() {
            return Ok(None);
        }
        let (states, witnesses) = self.chain();
        system.prove_chain(&states, &witnesses).map(Some)
    }

    /// What [`EpochProofBuilder::prove`] folds: the state digests
    /// `s_0 … s_n` and the `n` witnesses between them.
    fn chain(&self) -> (Vec<Fp>, Vec<&TransitionWitness>) {
        let states = std::iter::once(self.initial)
            .chain(self.transitions().map(|(_, digest)| *digest))
            .collect();
        (states, self.transitions().map(|(w, _)| w).collect())
    }
}

#[cfg(test)]
impl EpochProofBuilder {
    /// The recorded chain with owned witnesses, for provers that take
    /// them so.
    pub(crate) fn owned_chain(&self) -> (Vec<Fp>, Vec<TransitionWitness>) {
        let (states, witnesses) = self.chain();
        (states, witnesses.into_iter().cloned().collect())
    }

    /// Rewrites the witness of transition `k` in place, as a forger
    /// recording a transition it never checked would.
    pub(crate) fn tamper(&mut self, k: usize, f: impl FnOnce(&mut TransitionWitness)) {
        let mut at = k;
        for block in &mut self.blocks {
            if at < block.len() {
                return f(&mut Arc::make_mut(block)[at].0);
            }
            at -= block.len();
        }
        panic!("no transition {k} recorded");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SidechainState;
    use crate::tx::{apply_transaction, PaymentTx};
    use zendoo_core::ids::{Amount, SidechainId};
    use zendoo_primitives::schnorr::Keypair;

    fn params() -> LatusParams {
        LatusParams::new(SidechainId::from_label("sc"), 16)
    }

    fn system() -> LatusProofSystem {
        proof_system(params(), b"test")
    }

    fn funded(owner: &Keypair, amounts: &[u64]) -> (SidechainState, Vec<crate::mst::Utxo>) {
        let mut state = SidechainState::new(16);
        let address = Address::from_public_key(&owner.public);
        let utxos: Vec<crate::mst::Utxo> = amounts
            .iter()
            .enumerate()
            .map(|(i, a)| crate::mst::Utxo {
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

    #[test]
    fn payment_transition_proves_and_verifies() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded(&alice, &[10]);
        let sys = system();
        let from = state.digest();
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![(Address::from_label("bob"), Amount::from_units(10))],
        ));
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        let to = state.digest();
        let proof = sys.prove_base(from, to, &witness).unwrap();
        assert!(sys.verify(&proof));
    }

    #[test]
    fn wrong_post_digest_rejected() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded(&alice, &[10]);
        let sys = system();
        let from = state.digest();
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![(Address::from_label("bob"), Amount::from_units(10))],
        ));
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        // Claim a different post state.
        let err = sys
            .prove_base(from, Fp::from_u64(12345), &witness)
            .unwrap_err();
        assert!(format!("{err}").contains("to-digest"));
    }

    #[test]
    fn tampered_witness_rejected() {
        let alice = Keypair::from_seed(b"alice");
        let mallory = Keypair::from_seed(b"mallory");
        let (mut state, utxos) = funded(&alice, &[10]);
        let sys = system();
        let from = state.digest();
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![(Address::from_label("bob"), Amount::from_units(10))],
        ));
        let mut witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        let to = state.digest();
        // Swap the signature for Mallory's.
        if let ScTransaction::Payment(p) = &mut witness.tx {
            p.inputs[0].signature = mallory.secret.sign("zendoo/sc-sighash-v1", b"junk");
        }
        let err = sys.prove_base(from, to, &witness).unwrap_err();
        assert!(format!("{err}").contains("input-auth"), "{err}");
    }

    #[test]
    fn witnessed_path_longer_than_the_tree_is_refused_by_name() {
        let alice = Keypair::from_seed(b"alice");
        let (mut state, utxos) = funded(&alice, &[10, 20]);
        let sys = system();
        let from = state.digest();
        let tx = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![(Address::from_label("bob"), Amount::from_units(10))],
        ));
        let witness = apply_transaction(&params(), &mut state, &tx).unwrap();
        let to = state.digest();
        // The honest path is as long as the occupancy makes it — two
        // leaves part at their first differing bit — not as the tree.
        let honest = witness.updates[0].path.clone();
        assert!(honest.siblings().len() < 16);
        sys.prove_base(from, to, &witness).unwrap();
        // A path with more siblings than the tree has levels (17, and 65
        // — beyond the index bits), or one read at another depth, is
        // refused by name, not by whatever root it happens to compute.
        for (depth, len) in [(16, 17), (16, 65), (15, 1), (17, 1)] {
            let mut tampered = witness.clone();
            let mut siblings = honest.siblings().to_vec();
            siblings.resize(len, Fp::from_u64(7));
            tampered.updates[0].path =
                SmtProof::from_parts(honest.index(), depth, siblings, honest.ending());
            let err = sys.prove_base(from, to, &tampered).unwrap_err();
            assert!(format!("{err}").contains("latus/path-depth"), "{err}");
        }
    }

    #[test]
    fn epoch_proof_over_multiple_transitions() {
        let alice = Keypair::from_seed(b"alice");
        let bob = Keypair::from_seed(b"bob");
        let (mut state, utxos) = funded(&alice, &[10, 20]);
        let sys = system();
        let mut builder = EpochProofBuilder::new(state.digest());

        // Alice pays Bob, Bob pays Carol.
        let tx1 = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![(
                Address::from_public_key(&bob.public),
                Amount::from_units(10),
            )],
        ));
        let w1 = apply_transaction(&params(), &mut state, &tx1).unwrap();
        builder.record_block(vec![(w1, state.digest())]);

        let bob_utxo = state.mst().owned_by(&Address::from_public_key(&bob.public))[0].1;
        let tx2 = ScTransaction::Payment(PaymentTx::create(
            vec![(bob_utxo, &bob.secret)],
            vec![(Address::from_label("carol"), Amount::from_units(10))],
        ));
        let w2 = apply_transaction(&params(), &mut state, &tx2).unwrap();
        builder.record_block(vec![(w2, state.digest())]);

        assert_eq!(builder.len(), 2);
        let proof = builder.prove(&sys).unwrap().expect("nonempty epoch");
        assert!(sys.verify(&proof));
        assert_eq!(proof.from_state(), builder.initial_digest());
        assert_eq!(proof.to_state(), builder.final_digest());
    }

    #[test]
    fn empty_epoch_produces_no_proof() {
        let state = SidechainState::new(16);
        let builder = EpochProofBuilder::new(state.digest());
        assert!(builder.prove(&system()).unwrap().is_none());
        assert_eq!(builder.initial_digest(), builder.final_digest());
    }

    #[test]
    fn transition_cost_scales_with_inputs() {
        let alice = Keypair::from_seed(b"alice");
        let verifier = LatusTransitionVerifier::new(params());
        let (mut state, utxos) = funded(&alice, &[10, 20, 30]);
        let small = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[0], &alice.secret)],
            vec![(Address::from_label("b"), Amount::from_units(10))],
        ));
        let w_small = apply_transaction(&params(), &mut state, &small).unwrap();
        let big = ScTransaction::Payment(PaymentTx::create(
            vec![(utxos[1], &alice.secret), (utxos[2], &alice.secret)],
            vec![
                (Address::from_label("b"), Amount::from_units(25)),
                (Address::from_label("c"), Amount::from_units(25)),
            ],
        ));
        let w_big = apply_transaction(&params(), &mut state, &big).unwrap();
        assert!(verifier.transition_cost(&w_big) > verifier.transition_cost(&w_small));
    }
}
