//! The mainchain's sidechain registry: the CCTP state machine.
//!
//! Tracks, per registered sidechain: its immutable configuration (§4.2),
//! the **safeguard balance** (§4.1.2.2), its liveness status (Def 4.2),
//! accepted certificates per epoch with quality replacement (§4.1.2), the
//! consumed nullifier set (§4.1.2.1) and the height of the anchor block
//! for BTR/CSW proofs (`H(B_w)`, read off the active chain).
//!
//! Certificate payouts *mature* when the submission window closes: only
//! the highest-quality certificate of the epoch pays its backward
//! transfers. This realizes the paper's "the mainchain adopts a
//! certificate with the highest quality" without ever reverting payouts
//! of a lower-quality certificate accepted earlier in the same window.

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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SidechainStatus {
    /// Posting certificates on schedule.
    Active,
    /// Missed a submission window; only CSWs may touch its balance.
    Ceased,
}

/// A certificate accepted into the registry (best-of-epoch so far).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AcceptedCertificate {
    /// The certificate.
    pub certificate: WithdrawalCertificate,
    /// Height of the MC block that carried it: the active chain names
    /// the BTR/CSW anchor `B_w` there.
    pub mc_height: u64,
    /// Whether the payout has matured (window closed).
    pub matured: bool,
}

/// Registry state for one sidechain.
#[derive(Clone, Debug, PartialEq, Eq)]
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

    /// The BTR/CSW anchor `H(B_w)`: the hash `boundary_hash` names at
    /// the latest certificate's height (none when it rode in the block
    /// being applied), or zero before any certificate exists.
    fn anchor(
        &self,
        boundary_hash: impl Fn(u64) -> Option<Digest32>,
    ) -> Result<Digest32, RegistryError> {
        match self.last_certificate() {
            None => Ok(Digest32::ZERO),
            Some(c) => {
                boundary_hash(c.mc_height).ok_or(RegistryError::MissingBoundaryBlock(c.mc_height))
            }
        }
    }

    /// The epoch whose submission window closes exactly at `height`:
    /// the block at `height` ceases the sidechain or matures that
    /// epoch's certificate.
    fn epoch_closing_at(&self, height: u64) -> Option<EpochId> {
        let schedule = self.config.schedule;
        let closing = schedule.epoch_of_height(height)?.checked_sub(1)?;
        (schedule.ceasing_height(closing) == height).then_some(closing)
    }

    /// Whether the sidechain can take a forward transfer in the block
    /// at `height`: it is active, and that block's epoch bookkeeping
    /// does not cease it (a submission window closing there without a
    /// certificate, Def 4.2). The one cease rule, shared by
    /// [`SidechainRegistry::begin_block`] and anyone assembling a
    /// transaction for the next block.
    pub fn active_at(&self, height: u64) -> bool {
        self.status == SidechainStatus::Active
            && self
                .epoch_closing_at(height)
                .is_none_or(|epoch| self.certificates.contains_key(&epoch))
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
/// and replayed in reverse by [`SidechainRegistry::revert_to`].
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
}

/// The registry of all sidechains known to the mainchain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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

    /// Reverts the journal's suffix past `mark` (as returned by
    /// [`RegistryUndo::len`] before a mutation batch), newest first, and
    /// drops it from the journal — per-transaction rollback inside one
    /// block's journal, or the whole block from mark 0.
    pub fn revert_to(&mut self, undo: &mut RegistryUndo, mark: usize) {
        for op in undo.ops.drain(mark..).rev() {
            match op {
                RegistryOp::Declared(id) => {
                    self.entries.remove(&id);
                }
                RegistryOp::Credited(id, amount) => {
                    let entry = self.entries.get_mut(&id).expect("journaled entry exists");
                    entry.balance = entry
                        .balance
                        .checked_sub(amount)
                        .expect("journaled credit reverts");
                }
                RegistryOp::Debited(id, amount) => {
                    let entry = self.entries.get_mut(&id).expect("journaled entry exists");
                    entry.balance = entry
                        .balance
                        .checked_add(amount)
                        .expect("journaled debit reverts");
                }
                RegistryOp::CertInserted {
                    id,
                    epoch,
                    previous,
                } => {
                    let entry = self.entries.get_mut(&id).expect("journaled entry exists");
                    match previous {
                        Some(prev) => {
                            entry.certificates.insert(epoch, *prev);
                        }
                        None => {
                            entry.certificates.remove(&epoch);
                        }
                    }
                }
                RegistryOp::NullifierInserted(id, nullifier) => {
                    self.nullifiers.remove(&(id, nullifier));
                }
                RegistryOp::Ceased(id) => {
                    self.entries
                        .get_mut(&id)
                        .expect("journaled entry exists")
                        .status = SidechainStatus::Active;
                }
                RegistryOp::Matured(id, epoch) => {
                    self.entries
                        .get_mut(&id)
                        .expect("journaled entry exists")
                        .certificates
                        .get_mut(&epoch)
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
            let Some(closing_epoch) = entry.epoch_closing_at(height) else {
                continue;
            };
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
                    // A nullifier already in the set (consumed since
                    // acceptance by a BTR of the same sidechain) is left
                    // as it is: the escrow below still matures, and the
                    // next block settles it like any other.
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
                        // addressed BT with no declaration cannot exist
                        // for an accepted certificate — and must not
                        // silently mature untagged (it would be
                        // key-spendable at a public address).
                        let bt_list = &accepted.certificate.bt_list;
                        let pairs = crosschain::escrow_pairs(&declared, bt_list)
                            .expect("escrow pairing validated at certificate acceptance");
                        let transfers = bt_list
                            .iter()
                            .zip(pairs)
                            .map(|(bt, xct)| PayoutOutput {
                                receiver: bt.receiver,
                                amount: bt.amount,
                                escrow: xct.map(|xct| EscrowTag::for_transfer(xct, closing_epoch)),
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

    /// Accepts a withdrawal certificate carried by the block at `height`
    /// ("WCert Verification", §4.1.2), journaling the certificate
    /// insertion into `undo`.
    ///
    /// `boundary_hash(h)` must return the active-chain block hash at
    /// height `h` (for the `wcert_sysdata` epoch anchors). `check` is
    /// the SNARK check — the staged pipeline passes its verdicts
    /// ([`crate::pipeline::ProofVerdicts::check`]: cached, or owed to one
    /// batch), [`ProofCheck::run`] verifies inline; every cheap rule
    /// still runs here, in serial order. This is the one place the
    /// epoch-boundary anchors of a certificate's statement are read; a
    /// BTR's or CSW's anchor is read through the same `boundary_hash`.
    ///
    /// # Errors
    ///
    /// All rules of §4.1.2: active sidechain, correct window, increasing
    /// quality, valid SNARK, safeguard.
    pub fn accept_certificate(
        &mut self,
        cert: &WithdrawalCertificate,
        height: u64,
        boundary_hash: impl Fn(u64) -> Option<Digest32>,
        check: impl FnOnce(&ProofCheck) -> bool,
        undo: &mut RegistryUndo,
    ) -> Result<(), RegistryError> {
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
        let boundary = |h: u64| boundary_hash(h).ok_or(RegistryError::MissingBoundaryBlock(h));
        let prev_end = if cert.epoch_id == 0 {
            if schedule.start_block() == 0 {
                Digest32::ZERO
            } else {
                boundary(schedule.start_block() - 1)?
            }
        } else {
            boundary(schedule.epoch_last_height(cert.epoch_id - 1))?
        };
        let epoch_end_hash = boundary(schedule.epoch_last_height(cert.epoch_id))?;

        let best_quality = entry
            .certificates
            .get(&cert.epoch_id)
            .map(|c| c.certificate.quality);
        verifier::verify_certificate(
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
                mc_height: height,
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
    /// nullifier (journaled into `undo`); moves no coins.
    /// `boundary_hash` and `check` are as for
    /// [`SidechainRegistry::accept_certificate`]; the anchor is the block
    /// `boundary_hash` names at the latest certificate's height.
    ///
    /// # Errors
    ///
    /// Unknown/ceased sidechain, disabled BTRs, reused nullifier, an
    /// anchor the chain cannot name (the latest certificate rode in this
    /// same block), or invalid proof.
    pub fn accept_btr(
        &mut self,
        btr: &BackwardTransferRequest,
        boundary_hash: impl Fn(u64) -> Option<Digest32>,
        check: impl FnOnce(&ProofCheck) -> bool,
        undo: &mut RegistryUndo,
    ) -> Result<(), RegistryError> {
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
        verifier::verify_btr(&entry.config, btr, entry.anchor(boundary_hash)?, check)?;
        self.nullifiers.insert(key);
        undo.ops.push(RegistryOp::NullifierInserted(
            btr.sidechain_id,
            btr.nullifier,
        ));
        Ok(())
    }

    /// Accepts a ceased sidechain withdrawal (§5.5.3.3): consumes the
    /// nullifier, debits the balance (both journaled into `undo`) and
    /// returns the payout for the chain layer to credit. `boundary_hash`
    /// and `check` are as for [`SidechainRegistry::accept_btr`].
    ///
    /// # Errors
    ///
    /// Requires a *ceased* sidechain, an enabled CSW key, a fresh
    /// nullifier, a nameable anchor, a valid proof, and the safeguard.
    pub fn accept_csw(
        &mut self,
        csw: &CeasedSidechainWithdrawal,
        boundary_hash: impl Fn(u64) -> Option<Digest32>,
        check: impl FnOnce(&ProofCheck) -> bool,
        undo: &mut RegistryUndo,
    ) -> Result<BackwardTransfer, RegistryError> {
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
        let anchor = entry.anchor(boundary_hash)?;
        verifier::verify_csw(&entry.config, csw, anchor, check)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_core::config::SidechainConfigBuilder;
    use zendoo_core::proofdata::ProofData;
    use zendoo_snark::backend::{setup_deterministic, Proof};
    use zendoo_snark::circuit::{Circuit, Unsatisfied};
    use zendoo_snark::inputs::PublicInputs;

    /// A permissive circuit: only its verifying key is needed here.
    struct AcceptAll;

    impl Circuit for AcceptAll {
        type Witness = ();

        fn id(&self) -> Digest32 {
            Digest32::hash_bytes(b"registry-test/accept-all")
        }

        fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
            Ok(())
        }
    }

    /// A registry holding one sidechain declared at height 1, epoch 0
    /// over heights 2..=7, its submission window 8..=9.
    fn registry() -> (SidechainRegistry, SidechainId) {
        let (_, vk) = setup_deterministic(&AcceptAll, b"registry-test");
        let id = SidechainId::from_label("registry-test-sc");
        let config = SidechainConfigBuilder::new(id, vk)
            .start_block(2)
            .epoch_len(6)
            .submit_len(2)
            .build()
            .unwrap();
        let mut registry = SidechainRegistry::new();
        registry
            .declare(config, 1, &mut RegistryUndo::default())
            .unwrap();
        (registry, id)
    }

    fn certificate(id: SidechainId, bt_list: Vec<BackwardTransfer>) -> WithdrawalCertificate {
        WithdrawalCertificate {
            sidechain_id: id,
            epoch_id: 0,
            quality: 1,
            bt_list,
            proofdata: ProofData::empty(),
            proof: Proof::from_bytes(&[0u8; 65]).unwrap(),
        }
    }

    /// A certificate whose epoch boundary the caller cannot resolve is
    /// refused by name, with the height asked for, before any proof is
    /// checked and with nothing journaled.
    #[test]
    fn a_boundary_block_the_chain_cannot_name_is_refused_as_missing() {
        let (mut registry, id) = registry();
        let before = registry.clone();
        let mut undo = RegistryUndo::default();
        let mut accept = |boundary: &dyn Fn(u64) -> Option<Digest32>| {
            registry.accept_certificate(
                &certificate(id, Vec::new()),
                8,
                boundary,
                |_| panic!("no statement without its anchors"),
                &mut undo,
            )
        };
        // Epoch 0 starts after the block before activation, height 1.
        assert_eq!(
            accept(&|_| None),
            Err(RegistryError::MissingBoundaryBlock(1))
        );
        // It ends at height 7.
        assert_eq!(
            accept(&|h| (h != 7).then(|| Digest32::hash_bytes(&h.to_le_bytes()))),
            Err(RegistryError::MissingBoundaryBlock(7))
        );
        assert!(undo.is_empty());
        assert_eq!(registry, before);
    }

    /// Amounts past `u64::MAX` are refused by name: a forward transfer
    /// that would push the safeguard balance over, and a certificate
    /// whose backward transfers sum over — the state untouched by both.
    #[test]
    fn an_amount_past_u64_max_is_refused_as_amount_overflow() {
        let (mut registry, id) = registry();
        let mut undo = RegistryUndo::default();
        registry
            .credit_forward_transfer(&id, Amount::from_units(u64::MAX), &mut undo)
            .unwrap();
        let before = (registry.clone(), undo.len());
        assert_eq!(
            registry.credit_forward_transfer(&id, Amount::from_units(1), &mut undo),
            Err(RegistryError::AmountOverflow)
        );

        let half = BackwardTransfer {
            receiver: Address::from_label("registry-test-receiver"),
            amount: Amount::from_units(u64::MAX / 2 + 1),
        };
        assert_eq!(
            registry.accept_certificate(
                &certificate(id, vec![half, half]),
                8,
                |h| Some(Digest32::hash_bytes(&h.to_le_bytes())),
                |_| true,
                &mut undo,
            ),
            Err(RegistryError::AmountOverflow)
        );
        assert_eq!((registry, undo.len()), before);
    }
}
