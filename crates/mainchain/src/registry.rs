//! The mainchain's sidechain registry: the CCTP state machine.
//!
//! Tracks, per registered sidechain: its immutable configuration (§4.2),
//! the **safeguard balance** (§4.1.2.2), its liveness status (Def 4.2),
//! accepted certificates per epoch with quality replacement (§4.1.2), the
//! consumed nullifier set (§4.1.2.1) and the anchor block for BTR/CSW
//! proofs (`H(B_w)`).
//!
//! Certificate payouts *mature* when the submission window closes: only
//! the highest-quality certificate of the epoch pays its backward
//! transfers. This realizes the paper's "the mainchain adopts a
//! certificate with the highest quality" without ever reverting payouts
//! of a lower-quality certificate accepted earlier in the same window.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use zendoo_core::certificate::WithdrawalCertificate;
use zendoo_core::config::SidechainConfig;
use zendoo_core::crosschain::{self, XctError};
use zendoo_core::escrow::EscrowTag;
use zendoo_core::ids::{Address, Amount, EpochId, Nullifier, SidechainId};
use zendoo_core::transfer::BackwardTransfer;
use zendoo_core::verifier::{self, ProofCheck, VerifyError};
use zendoo_core::withdrawal::{BackwardTransferRequest, CeasedSidechainWithdrawal};
use zendoo_primitives::digest::Digest32;

/// Liveness of a registered sidechain (Def 4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SidechainStatus {
    /// Posting certificates on schedule.
    Active,
    /// Missed a submission window; only CSWs may touch its balance.
    Ceased,
}

/// A certificate accepted into the registry (best-of-epoch so far).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcceptedCertificate {
    /// The certificate.
    pub certificate: WithdrawalCertificate,
    /// Hash of the MC block that carried it (the BTR anchor `B_w`).
    pub mc_block: Digest32,
    /// Whether the payout has matured (window closed).
    pub matured: bool,
}

/// Registry state for one sidechain.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SidechainEntry {
    /// Immutable creation-time configuration.
    pub config: SidechainConfig,
    /// The safeguard balance: forwarded minus withdrawn.
    pub balance: Amount,
    /// Liveness.
    pub status: SidechainStatus,
    /// Best accepted certificate per epoch.
    pub certificates: BTreeMap<EpochId, AcceptedCertificate>,
    /// MC height at which the sidechain was declared.
    pub declared_at: u64,
}

impl SidechainEntry {
    /// The most recently accepted certificate, if any.
    pub fn last_certificate(&self) -> Option<&AcceptedCertificate> {
        self.certificates.values().next_back()
    }

    /// The BTR/CSW anchor: hash of the block carrying the latest
    /// certificate, or zero before any certificate exists.
    pub fn last_certificate_block(&self) -> Digest32 {
        self.last_certificate()
            .map(|c| c.mc_block)
            .unwrap_or(Digest32::ZERO)
    }
}

/// One output of a matured certificate payout: a backward transfer,
/// tagged when it escrows declared cross-chain value — the chain layer
/// turns a tagged output into an escrow-*kind* UTXO that only the
/// consensus settlement/refund rules can spend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PayoutOutput {
    /// The receiving address.
    pub receiver: Address,
    /// The amount paid.
    pub amount: Amount,
    /// The escrow tag, for the escrow backward transfers paired with
    /// the certificate's declared cross-chain transfers; `None` for
    /// ordinary withdrawals.
    pub escrow: Option<EscrowTag>,
}

impl PayoutOutput {
    /// The UTXO this payout materializes as: escrow-kind when tagged.
    pub fn tx_out(&self) -> crate::transaction::TxOut {
        match self.escrow {
            Some(tag) => crate::transaction::TxOut::escrow(self.receiver, self.amount, tag),
            None => crate::transaction::TxOut::regular(self.receiver, self.amount),
        }
    }
}

/// A payout released when a certificate matures (or a CSW is accepted):
/// the chain layer turns these into spendable UTXOs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaturedPayout {
    /// The paying sidechain.
    pub sidechain_id: SidechainId,
    /// Digest of the certificate whose BTs pay out (UTXO txid base).
    pub certificate_digest: Digest32,
    /// The outputs to credit, in `BTList` order.
    pub transfers: Vec<PayoutOutput>,
}

/// Why the registry rejected an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// Unknown `ledgerId`.
    UnknownSidechain(SidechainId),
    /// The id is already registered (or reserved).
    IdUnavailable(SidechainId),
    /// The declared activation height is not in the future.
    ActivationNotInFuture {
        /// Declared start height.
        start_block: u64,
        /// Height of the declaring block.
        declared_at: u64,
    },
    /// Operation requires an active sidechain.
    SidechainCeased(SidechainId),
    /// Operation requires a ceased sidechain.
    SidechainStillActive(SidechainId),
    /// Certificate submitted outside its epoch's submission window.
    OutsideSubmissionWindow {
        /// The certificate's epoch.
        epoch: EpochId,
        /// The submitting block's height.
        height: u64,
    },
    /// The safeguard: withdrawal exceeds the sidechain balance
    /// (§4.1.2.2).
    SafeguardViolation {
        /// Requested amount.
        requested: Amount,
        /// Available balance.
        available: Amount,
    },
    /// Nullifier already consumed (double-spend attempt).
    NullifierReused(Nullifier),
    /// The posting failed CCTP verification (schema/quality/proof).
    Verify(VerifyError),
    /// The certificate's cross-chain declaration is invalid (escrow
    /// pairing, nullifier consistency, self-transfer, …).
    CrossChain(XctError),
    /// An epoch-boundary block hash was unavailable (internal error).
    MissingBoundaryBlock(u64),
    /// Amount arithmetic overflowed (adversarial input).
    AmountOverflow,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownSidechain(id) => write!(f, "unknown sidechain {id}"),
            RegistryError::IdUnavailable(id) => write!(f, "sidechain id {id} unavailable"),
            RegistryError::ActivationNotInFuture {
                start_block,
                declared_at,
            } => write!(
                f,
                "activation height {start_block} not after declaring height {declared_at}"
            ),
            RegistryError::SidechainCeased(id) => write!(f, "sidechain {id} is ceased"),
            RegistryError::SidechainStillActive(id) => {
                write!(f, "sidechain {id} is still active")
            }
            RegistryError::OutsideSubmissionWindow { epoch, height } => write!(
                f,
                "certificate for epoch {epoch} not acceptable at height {height}"
            ),
            RegistryError::SafeguardViolation {
                requested,
                available,
            } => write!(
                f,
                "safeguard: requested {requested} exceeds balance {available}"
            ),
            RegistryError::NullifierReused(n) => write!(f, "nullifier {n:?} already spent"),
            RegistryError::Verify(e) => write!(f, "verification failed: {e}"),
            RegistryError::CrossChain(e) => write!(f, "cross-chain declaration: {e}"),
            RegistryError::MissingBoundaryBlock(h) => {
                write!(f, "no block hash known at boundary height {h}")
            }
            RegistryError::AmountOverflow => write!(f, "amount arithmetic overflow"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<VerifyError> for RegistryError {
    fn from(e: VerifyError) -> Self {
        RegistryError::Verify(e)
    }
}

impl From<XctError> for RegistryError {
    fn from(e: XctError) -> Self {
        RegistryError::CrossChain(e)
    }
}

/// One journaled registry mutation, recorded by the mutation methods
/// and replayed in reverse by [`SidechainRegistry::revert`].
#[derive(Clone, Debug)]
enum RegistryOp {
    /// A sidechain was declared (undo: remove the entry).
    Declared(SidechainId),
    /// The safeguard balance was credited (undo: debit).
    Credited(SidechainId, Amount),
    /// The safeguard balance was debited (undo: credit).
    Debited(SidechainId, Amount),
    /// A certificate was inserted for `(id, epoch)`, displacing
    /// `previous` (undo: restore `previous` or remove).
    CertInserted {
        id: SidechainId,
        epoch: EpochId,
        previous: Option<Box<AcceptedCertificate>>,
    },
    /// A nullifier was consumed (undo: release it).
    NullifierInserted(SidechainId, Nullifier),
    /// The sidechain was marked ceased (undo: back to `Active`).
    Ceased(SidechainId),
    /// The `(id, epoch)` certificate matured (undo: unmature).
    Matured(SidechainId, EpochId),
}

/// An ordered journal of registry mutations — the registry half of a
/// block's undo record. Replaces the full [`SidechainRegistry`] clone
/// the chain used to retain per block: undo memory is now proportional
/// to what the block *changed*, not to the number of registered
/// sidechains or the size of the nullifier set.
#[derive(Clone, Debug, Default)]
pub struct RegistryUndo {
    ops: Vec<RegistryOp>,
}

impl RegistryUndo {
    /// Number of journaled mutations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when nothing was journaled.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends `other`'s ops after this journal's (keeps one journal
    /// per block while composing per-phase journals).
    pub fn append(&mut self, other: &mut RegistryUndo) {
        self.ops.append(&mut other.ops);
    }

    /// Truncates the journal back to `len` ops **without** reverting
    /// them (callers revert first via
    /// [`SidechainRegistry::revert_to`]).
    fn truncate(&mut self, len: usize) {
        self.ops.truncate(len);
    }
}

/// The registry of all sidechains known to the mainchain.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SidechainRegistry {
    entries: BTreeMap<SidechainId, SidechainEntry>,
    nullifiers: HashSet<(SidechainId, Nullifier)>,
}

impl SidechainRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a sidechain.
    pub fn get(&self, id: &SidechainId) -> Option<&SidechainEntry> {
        self.entries.get(id)
    }

    /// The best certificate accepted so far for `(id, epoch)`.
    pub fn accepted_certificate(
        &self,
        id: &SidechainId,
        epoch: EpochId,
    ) -> Option<&AcceptedCertificate> {
        self.entries.get(id)?.certificates.get(&epoch)
    }

    /// Iterates over all registered sidechains.
    pub fn iter(&self) -> impl Iterator<Item = (&SidechainId, &SidechainEntry)> {
        self.entries.iter()
    }

    /// Number of registered sidechains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no sidechain is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if a nullifier has been consumed for `id`.
    pub fn nullifier_spent(&self, id: &SidechainId, nullifier: &Nullifier) -> bool {
        self.nullifiers.contains(&(*id, *nullifier))
    }

    /// Reverts every mutation in `undo`, newest first. After this the
    /// registry is bit-identical to its state before the journaled
    /// methods ran.
    pub fn revert(&mut self, undo: RegistryUndo) {
        self.revert_ops(&undo.ops, 0);
    }

    /// Reverts the journal's suffix past `mark` (as returned by
    /// [`RegistryUndo::len`] before a mutation batch) and truncates the
    /// journal — per-transaction rollback inside one block's journal.
    pub fn revert_to(&mut self, undo: &mut RegistryUndo, mark: usize) {
        self.revert_ops(&undo.ops, mark);
        undo.truncate(mark);
    }

    fn revert_ops(&mut self, ops: &[RegistryOp], from: usize) {
        for op in ops[from..].iter().rev() {
            match op {
                RegistryOp::Declared(id) => {
                    self.entries.remove(id);
                }
                RegistryOp::Credited(id, amount) => {
                    let entry = self.entries.get_mut(id).expect("journaled entry exists");
                    entry.balance = entry
                        .balance
                        .checked_sub(*amount)
                        .expect("journaled credit reverts");
                }
                RegistryOp::Debited(id, amount) => {
                    let entry = self.entries.get_mut(id).expect("journaled entry exists");
                    entry.balance = entry
                        .balance
                        .checked_add(*amount)
                        .expect("journaled debit reverts");
                }
                RegistryOp::CertInserted {
                    id,
                    epoch,
                    previous,
                } => {
                    let entry = self.entries.get_mut(id).expect("journaled entry exists");
                    match previous {
                        Some(prev) => {
                            entry.certificates.insert(*epoch, (**prev).clone());
                        }
                        None => {
                            entry.certificates.remove(epoch);
                        }
                    }
                }
                RegistryOp::NullifierInserted(id, nullifier) => {
                    self.nullifiers.remove(&(*id, *nullifier));
                }
                RegistryOp::Ceased(id) => {
                    self.entries
                        .get_mut(id)
                        .expect("journaled entry exists")
                        .status = SidechainStatus::Active;
                }
                RegistryOp::Matured(id, epoch) => {
                    self.entries
                        .get_mut(id)
                        .expect("journaled entry exists")
                        .certificates
                        .get_mut(epoch)
                        .expect("journaled certificate exists")
                        .matured = false;
                }
            }
        }
    }

    /// Registers a new sidechain (§4.2), declared in a block at
    /// `declared_at`, journaling the mutation into `undo`.
    ///
    /// # Errors
    ///
    /// Rejects reused/reserved ids, invalid configs, and activation
    /// heights not strictly in the future.
    pub fn declare(
        &mut self,
        config: SidechainConfig,
        declared_at: u64,
        undo: &mut RegistryUndo,
    ) -> Result<(), RegistryError> {
        if config.id.is_reserved() || self.entries.contains_key(&config.id) {
            return Err(RegistryError::IdUnavailable(config.id));
        }
        config
            .validate()
            .map_err(|_| RegistryError::IdUnavailable(config.id))?;
        if config.schedule.start_block() <= declared_at {
            return Err(RegistryError::ActivationNotInFuture {
                start_block: config.schedule.start_block(),
                declared_at,
            });
        }
        let id = config.id;
        self.entries.insert(
            id,
            SidechainEntry {
                config,
                balance: Amount::ZERO,
                status: SidechainStatus::Active,
                certificates: BTreeMap::new(),
                declared_at,
            },
        );
        undo.ops.push(RegistryOp::Declared(id));
        Ok(())
    }

    /// Block-start processing at `height`: ceases sidechains whose window
    /// closed empty (Def 4.2) and matures the winning certificate of each
    /// window that closed — returning the payouts the chain must credit.
    /// Every mutation (ceasings, maturities, balance debits, consumed
    /// nullifiers) is journaled into `undo`.
    pub fn begin_block(&mut self, height: u64, undo: &mut RegistryUndo) -> Vec<MaturedPayout> {
        let mut payouts = Vec::new();
        for (id, entry) in self.entries.iter_mut() {
            if entry.status == SidechainStatus::Ceased {
                continue;
            }
            let schedule = entry.config.schedule;
            // Find the epoch whose window closes exactly at this height.
            let Some(current_epoch) = schedule.epoch_of_height(height) else {
                continue;
            };
            if current_epoch == 0 {
                continue;
            }
            let closing_epoch = current_epoch - 1;
            if schedule.ceasing_height(closing_epoch) != height {
                continue;
            }
            match entry.certificates.get_mut(&closing_epoch) {
                None => {
                    entry.status = SidechainStatus::Ceased;
                    undo.ops.push(RegistryOp::Ceased(*id));
                }
                Some(accepted) => {
                    accepted.matured = true;
                    undo.ops.push(RegistryOp::Matured(*id, closing_epoch));
                    let total = accepted
                        .certificate
                        .total_withdrawn()
                        .expect("checked at acceptance");
                    entry.balance = entry
                        .balance
                        .checked_sub(total)
                        .expect("safeguard checked at acceptance");
                    undo.ops.push(RegistryOp::Debited(*id, total));
                    // The winning certificate's cross-chain nullifiers
                    // are consumed now: only the matured certificate
                    // moves escrowed coins, so consuming earlier would
                    // break intra-window quality replacement (a better
                    // certificate redeclares the same transfers).
                    //
                    // Acceptance validated the declaration (decode +
                    // escrow pairing), so a failure here would mean the
                    // two stages diverged — and a silent fallback would
                    // mint the escrow BTs below as key-addressable
                    // *regular* UTXOs. Fail loudly instead.
                    let declared = crosschain::declared_transfers(&accepted.certificate)
                        .expect("declaration validated at certificate acceptance");
                    for xct in &declared {
                        if self.nullifiers.insert((*id, xct.nullifier)) {
                            undo.ops
                                .push(RegistryOp::NullifierInserted(*id, xct.nullifier));
                        }
                    }
                    if !accepted.certificate.bt_list.is_empty() {
                        // Escrow BTs pair with the declared transfers in
                        // order (enforced at certificate acceptance);
                        // each pairing yields the consensus tag the
                        // escrow-kind UTXO will carry. An escrow-
                        // addressed BT with no declaration left cannot
                        // exist for an accepted certificate — and must
                        // not silently mature untagged (it would be
                        // key-spendable at a public address).
                        let escrow = crosschain::escrow_address();
                        let mut next = 0usize;
                        let transfers = accepted
                            .certificate
                            .bt_list
                            .iter()
                            .map(|bt| {
                                let tag = if bt.receiver == escrow {
                                    let xct = declared.get(next).expect(
                                        "escrow pairing validated at certificate acceptance",
                                    );
                                    next += 1;
                                    Some(EscrowTag::for_transfer(xct, closing_epoch))
                                } else {
                                    None
                                };
                                PayoutOutput {
                                    receiver: bt.receiver,
                                    amount: bt.amount,
                                    escrow: tag,
                                }
                            })
                            .collect();
                        payouts.push(MaturedPayout {
                            sidechain_id: *id,
                            certificate_digest: accepted.certificate.digest(),
                            transfers,
                        });
                    }
                }
            }
        }
        payouts
    }

    /// Credits a forward transfer (the FT side of the safeguard),
    /// journaling the balance credit into `undo`.
    ///
    /// # Errors
    ///
    /// Unknown or ceased destination sidechains reject the transfer (the
    /// containing transaction is invalid).
    pub fn credit_forward_transfer(
        &mut self,
        id: &SidechainId,
        amount: Amount,
        undo: &mut RegistryUndo,
    ) -> Result<(), RegistryError> {
        let entry = self
            .entries
            .get_mut(id)
            .ok_or(RegistryError::UnknownSidechain(*id))?;
        if entry.status == SidechainStatus::Ceased {
            return Err(RegistryError::SidechainCeased(*id));
        }
        entry.balance = entry
            .balance
            .checked_add(amount)
            .ok_or(RegistryError::AmountOverflow)?;
        undo.ops.push(RegistryOp::Credited(*id, amount));
        Ok(())
    }

    /// Accepts a withdrawal certificate carried by the block at
    /// `height` / `block_hash` ("WCert Verification", §4.1.2),
    /// journaling the certificate insertion into `undo`.
    ///
    /// `boundary_hash(h)` must return the active-chain block hash at
    /// height `h` (for the `wcert_sysdata` epoch anchors). `check` is
    /// the SNARK check — the staged pipeline passes its stage-2 verdict
    /// cache, [`ProofCheck::run`] verifies inline; every cheap rule
    /// still runs here, in serial order.
    ///
    /// # Errors
    ///
    /// All rules of §4.1.2: active sidechain, correct window, increasing
    /// quality, valid SNARK, safeguard.
    pub fn accept_certificate<F, C>(
        &mut self,
        cert: &WithdrawalCertificate,
        height: u64,
        block_hash: Digest32,
        boundary_hash: F,
        check: C,
        undo: &mut RegistryUndo,
    ) -> Result<(), RegistryError>
    where
        F: Fn(u64) -> Option<Digest32>,
        C: FnOnce(&ProofCheck) -> bool,
    {
        let entry = self
            .entries
            .get_mut(&cert.sidechain_id)
            .ok_or(RegistryError::UnknownSidechain(cert.sidechain_id))?;
        if entry.status == SidechainStatus::Ceased {
            return Err(RegistryError::SidechainCeased(cert.sidechain_id));
        }
        let schedule = entry.config.schedule;
        if !schedule.in_submission_window(cert.epoch_id, height) {
            return Err(RegistryError::OutsideSubmissionWindow {
                epoch: cert.epoch_id,
                height,
            });
        }
        // Cross-chain declarations: escrow pairing, field consistency,
        // and replay protection against nullifiers consumed by already
        // matured certificates — checked before the SNARK so forged
        // declarations are named precisely. (Within the open window the
        // same nullifiers may legitimately reappear in a higher-quality
        // replacement certificate; those are not yet in the set.)
        let declared = crosschain::validate_declarations(cert)?;
        for xct in &declared {
            if self
                .nullifiers
                .contains(&(cert.sidechain_id, xct.nullifier))
            {
                return Err(RegistryError::NullifierReused(xct.nullifier));
            }
        }
        let entry = self
            .entries
            .get_mut(&cert.sidechain_id)
            .expect("looked up above");
        // Epoch boundary anchors (H(B^{i-1}_last), H(B^i_last)).
        let epoch_end = schedule.epoch_last_height(cert.epoch_id);
        let prev_end = if cert.epoch_id == 0 {
            if schedule.start_block() == 0 {
                Digest32::ZERO
            } else {
                boundary_hash(schedule.start_block() - 1).ok_or(
                    RegistryError::MissingBoundaryBlock(schedule.start_block() - 1),
                )?
            }
        } else {
            boundary_hash(schedule.epoch_last_height(cert.epoch_id - 1)).ok_or(
                RegistryError::MissingBoundaryBlock(schedule.epoch_last_height(cert.epoch_id - 1)),
            )?
        };
        let epoch_end_hash =
            boundary_hash(epoch_end).ok_or(RegistryError::MissingBoundaryBlock(epoch_end))?;

        let best_quality = entry
            .certificates
            .get(&cert.epoch_id)
            .map(|c| c.certificate.quality);
        verifier::verify_certificate_with(
            &entry.config,
            cert,
            best_quality,
            prev_end,
            epoch_end_hash,
            check,
        )?;

        // Safeguard (§4.1.2.2): cannot withdraw more than the balance.
        let total = cert
            .total_withdrawn()
            .ok_or(RegistryError::AmountOverflow)?;
        if total > entry.balance {
            return Err(RegistryError::SafeguardViolation {
                requested: total,
                available: entry.balance,
            });
        }
        let previous = entry.certificates.insert(
            cert.epoch_id,
            AcceptedCertificate {
                certificate: cert.clone(),
                mc_block: block_hash,
                matured: false,
            },
        );
        undo.ops.push(RegistryOp::CertInserted {
            id: cert.sidechain_id,
            epoch: cert.epoch_id,
            previous: previous.map(Box::new),
        });
        Ok(())
    }

    /// Accepts a backward transfer request (§4.1.2.1). Consumes the
    /// nullifier (journaled into `undo`); moves no coins. `check` is the
    /// SNARK check (see
    /// [`SidechainRegistry::accept_certificate`]).
    ///
    /// # Errors
    ///
    /// Unknown/ceased sidechain, disabled BTRs, reused nullifier, or
    /// invalid proof.
    pub fn accept_btr<C>(
        &mut self,
        btr: &BackwardTransferRequest,
        check: C,
        undo: &mut RegistryUndo,
    ) -> Result<(), RegistryError>
    where
        C: FnOnce(&ProofCheck) -> bool,
    {
        let entry = self
            .entries
            .get(&btr.sidechain_id)
            .ok_or(RegistryError::UnknownSidechain(btr.sidechain_id))?;
        if entry.status == SidechainStatus::Ceased {
            return Err(RegistryError::SidechainCeased(btr.sidechain_id));
        }
        let key = (btr.sidechain_id, btr.nullifier);
        if self.nullifiers.contains(&key) {
            return Err(RegistryError::NullifierReused(btr.nullifier));
        }
        verifier::verify_btr_with(&entry.config, btr, entry.last_certificate_block(), check)?;
        self.nullifiers.insert(key);
        undo.ops.push(RegistryOp::NullifierInserted(
            btr.sidechain_id,
            btr.nullifier,
        ));
        Ok(())
    }

    /// Accepts a ceased sidechain withdrawal (§5.5.3.3): consumes the
    /// nullifier, debits the balance (both journaled into `undo`) and
    /// returns the payout for the chain layer to credit. `check` is the
    /// SNARK check (see
    /// [`SidechainRegistry::accept_certificate`]).
    ///
    /// # Errors
    ///
    /// Requires a *ceased* sidechain, an enabled CSW key, a fresh
    /// nullifier, a valid proof, and the safeguard.
    pub fn accept_csw<C>(
        &mut self,
        csw: &CeasedSidechainWithdrawal,
        check: C,
        undo: &mut RegistryUndo,
    ) -> Result<BackwardTransfer, RegistryError>
    where
        C: FnOnce(&ProofCheck) -> bool,
    {
        let entry = self
            .entries
            .get_mut(&csw.sidechain_id)
            .ok_or(RegistryError::UnknownSidechain(csw.sidechain_id))?;
        if entry.status != SidechainStatus::Ceased {
            return Err(RegistryError::SidechainStillActive(csw.sidechain_id));
        }
        let key = (csw.sidechain_id, csw.nullifier);
        if self.nullifiers.contains(&key) {
            return Err(RegistryError::NullifierReused(csw.nullifier));
        }
        let anchor = entry.last_certificate_block();
        verifier::verify_csw_with(&entry.config, csw, anchor, check)?;
        if csw.amount > entry.balance {
            return Err(RegistryError::SafeguardViolation {
                requested: csw.amount,
                available: entry.balance,
            });
        }
        entry.balance = entry
            .balance
            .checked_sub(csw.amount)
            .expect("checked above");
        undo.ops
            .push(RegistryOp::Debited(csw.sidechain_id, csw.amount));
        self.nullifiers.insert(key);
        undo.ops.push(RegistryOp::NullifierInserted(
            csw.sidechain_id,
            csw.nullifier,
        ));
        Ok(BackwardTransfer {
            receiver: csw.receiver,
            amount: csw.amount,
        })
    }

    /// Sum of every sidechain balance (conservation audits).
    pub fn total_locked(&self) -> Amount {
        Amount::checked_sum(self.entries.values().map(|e| e.balance))
            .expect("total supply fits in u64")
    }
}
