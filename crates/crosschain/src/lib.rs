//! # zendoo-crosschain
//!
//! Sidechain→sidechain transfers routed through the Zendoo mainchain.
//!
//! The protocol (after "Trustless Cross-chain Communication for Zendoo
//! Sidechains", arXiv:2209.03907) reuses the certificate machinery of
//! the base paper end to end:
//!
//! 1. **Declare** — the source sidechain's withdrawal certificate
//!    carries a [`CrossChainTransfer`] list committed in its proofdata
//!    (covered by the certificate SNARK) and escrow-paired: each
//!    declared transfer is matched by a backward transfer of equal
//!    amount paying the escrow address, so declared value necessarily
//!    leaves the source sidechain's safeguard balance.
//! 2. **Mature** — the mainchain registry validates the declaration at
//!    certificate acceptance (escrow pairing, nullifier freshness) and,
//!    when the submission window closes, matures the winning
//!    certificate's escrow backward transfers into **escrow-kind**
//!    UTXOs: each carries an [`zendoo_core::escrow::EscrowTag`]
//!    (window, destination, payback, nullifier) and can only be spent
//!    through the consensus settlement/refund rules — no key, trusted
//!    or otherwise, authorizes an escrow spend.
//! 3. **Settle** — what to settle is read off the chain state:
//!    [`settlement_transactions`] groups the live escrow UTXOs by
//!    window and claims those bound for one live destination with a
//!    single transaction into one aggregated [`SettlementBatch`]
//!    forward transfer (per-receiver breakdown committed in its
//!    metadata), while unknown/ceased destinations share one refund
//!    transaction paying the senders' payback addresses. The function
//!    is stateless and holds no spending authority: consensus
//!    validates every claim against the escrow tags and accepts the
//!    same transactions from anyone — and rejects anything else.
//!    Every live escrow is settled by the next block, so no value is
//!    left in one.
//!
//! The full lifecycle, left to right:
//!
//! ```text
//!  source SC                mainchain (registry)                   dest SC
//!  ─────────                ────────────────────                   ───────
//!  submit_cross_transfer
//!    │ spend UTXOs, queue XCT
//!    ▼
//!  certificate ──declare──► accept_certificate:
//!  (escrow-paired BTs)        escrow pairing ✓
//!                             nullifier fresh ✓
//!                           window closes:
//!                             escrow-kind UTXOs  ─────► settlement_transactions
//!                                                       (batch by destination,
//!                             one settlement tx per ◄── refund ceased/unknown)
//!                             destination (or one
//!                             shared refund tx)
//!                           settlement FT in next block ───────► sync_mainchain_block:
//!                                                                mint one UTXO per
//!                                                                batch entry
//! ```
//!
//! The message/receipt types and verifier hooks live in
//! [`zendoo_core::crosschain`] (both chains and the mainchain registry
//! need them). [`CrossChainRouter`] reads receipts and per-window
//! settlement records back off connected blocks.
//!
//! # Examples
//!
//! ```
//! use zendoo_crosschain::CrossChainRouter;
//!
//! let router = CrossChainRouter::new();
//! assert_eq!(router.pending_count(), 0);
//! assert!(router.receipts().is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod router;

pub use router::{settlement_transactions, CrossChainRouter, SettlementRecord};
pub use zendoo_core::crosschain::{
    escrow_address, CrossChainReceipt, CrossChainTransfer, DeliveryStatus, RefundReason, XctError,
};
pub use zendoo_core::settlement::{SettlementBatch, SettlementError};
