//! The Latus system state (paper §5.2.1):
//! `state_t = (MST_t, backward_transfers_t)`.
//!
//! `backward_transfers` is the transient list of withdrawals collected in
//! the current withdrawal epoch; it resets when a certificate closes the
//! epoch. The state digest `s_t = H(state_t)` (§5.4) is a Poseidon hash
//! over four components:
//!
//! * the MST root,
//! * a running fold over appended backward transfers (so a transition
//!   witness needs only the pre-accumulator and the appended items),
//! * a running fold over touched MST positions (binding `mst_delta`,
//!   §5.5.3.1 / Appendix A, into the recursive proof),
//! * a running fold over synchronized MC block references (binding
//!   rule 5 of the WCert statement — "all MC blocks are referenced and
//!   all SC-related transactions processed" — into the proof).
//!
//! All three accumulators reset at each withdrawal-epoch boundary.

use zendoo_core::crosschain::InboundCrossTransfer;
use zendoo_core::ids::{Address, Amount};
use zendoo_core::transfer::BackwardTransfer;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::field::Fp;
use zendoo_primitives::poseidon;

use crate::mst::{Mst, MstDelta, Utxo};

/// Folds one backward transfer into the running accumulator.
pub fn fold_backward_transfer(acc: Fp, bt: &BackwardTransfer) -> Fp {
    let receiver = Fp::from_be_bytes_reduced(bt.receiver.0.as_bytes());
    let amount = Fp::from_u64(bt.amount.units());
    poseidon::hash_many(&[acc, receiver, amount])
}

/// The accumulator of an empty backward-transfer list.
pub fn empty_bt_accumulator() -> Fp {
    poseidon::hash_many(&[Fp::from_u64(0x6274)]) // "bt"
}

/// Computes the accumulator of a whole list (for verification).
pub fn bt_list_accumulator(bts: &[BackwardTransfer]) -> Fp {
    bts.iter().fold(empty_bt_accumulator(), |acc, bt| {
        fold_backward_transfer(acc, bt)
    })
}

/// Folds one touched MST position into the delta accumulator.
pub fn fold_delta_position(acc: Fp, position: u64) -> Fp {
    poseidon::hash2(&acc, &Fp::from_u64(position))
}

/// The accumulator of an untouched epoch.
pub fn empty_delta_accumulator() -> Fp {
    poseidon::hash_many(&[Fp::from_u64(0x6d64)]) // "md"
}

/// Computes the delta accumulator of a touch sequence.
pub fn delta_sequence_accumulator(positions: &[u64]) -> Fp {
    positions.iter().fold(empty_delta_accumulator(), |acc, p| {
        fold_delta_position(acc, *p)
    })
}

/// The two halves of a mainchain-reference sync (§5.5.1): every MC block
/// reference must process its forward transfers and its BTRs, each
/// folding a tagged entry so omissions are provable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncKind {
    /// The forward-transfers half (`FTTx`).
    ForwardTransfers,
    /// The backward-transfer-requests half (`BTRTx`).
    BackwardTransferRequests,
}

/// Folds one sync event into the accumulator.
pub fn fold_sync(acc: Fp, kind: SyncKind, mc_block: &Digest32) -> Fp {
    let tag = match kind {
        SyncKind::ForwardTransfers => Fp::from_u64(0xf7),
        SyncKind::BackwardTransferRequests => Fp::from_u64(0xb7),
    };
    let block = Fp::from_be_bytes_reduced(mc_block.as_bytes());
    poseidon::hash_many(&[acc, tag, block])
}

/// The accumulator before any sync this epoch.
pub fn empty_sync_accumulator() -> Fp {
    poseidon::hash_many(&[Fp::from_u64(0x7363)]) // "sc"
}

/// The sync accumulator implied by fully processing `mc_blocks` in
/// order (FT half then BTR half per block).
pub fn full_sync_accumulator(mc_blocks: &[Digest32]) -> Fp {
    mc_blocks.iter().fold(empty_sync_accumulator(), |acc, b| {
        let acc = fold_sync(acc, SyncKind::ForwardTransfers, b);
        fold_sync(acc, SyncKind::BackwardTransferRequests, b)
    })
}

/// The state digest
/// `s = Poseidon(mst_root, bt_acc, delta_acc, sync_acc)` (§5.4).
pub fn state_digest(mst_root: Fp, bt_acc: Fp, delta_acc: Fp, sync_acc: Fp) -> Fp {
    poseidon::hash_many(&[mst_root, bt_acc, delta_acc, sync_acc])
}

/// The digest of a fresh (or epoch-reset) state over `mst_root`.
pub fn epoch_start_digest(mst_root: Fp) -> Fp {
    state_digest(
        mst_root,
        empty_bt_accumulator(),
        empty_delta_accumulator(),
        empty_sync_accumulator(),
    )
}

/// The full sidechain state: the MST, the current epoch's transients —
/// its backward transfers and the ordered positions it touched, each
/// beside the running accumulator the state digest binds — the
/// mainchain-sync accumulator, and the log of inbound cross-chain
/// credits.
///
/// # Examples
///
/// ```
/// use zendoo_latus::state::SidechainState;
/// use zendoo_latus::mst::Utxo;
/// use zendoo_core::ids::{Address, Amount};
/// use zendoo_primitives::digest::Digest32;
///
/// let mut state = SidechainState::new(10);
/// let utxo = Utxo {
///     address: Address::from_label("alice"),
///     amount: Amount::from_units(10),
///     nonce: Digest32::hash_bytes(b"n"),
/// };
/// state.mst_mut().add(&utxo).unwrap();
/// assert_eq!(state.mst().balance_of(&Address::from_label("alice")),
///            Amount::from_units(10));
/// ```
#[derive(Clone, Debug)]
pub struct SidechainState {
    mst: Mst,
    backward_transfers: Vec<BackwardTransfer>,
    bt_accumulator: Fp,
    delta_accumulator: Fp,
    /// MST positions touched since the last epoch reset, in order: the
    /// witness behind the delta accumulator, and the one source of the
    /// epoch's `mst_delta` (the set of its positions, built by
    /// [`SidechainState::end_epoch`]).
    touch_sequence: Vec<u64>,
    sync_accumulator: Fp,
    /// Inbound cross-chain transfers credited on this sidechain, each a
    /// minted settlement-batch entry and so an escrow the mainchain
    /// matched (observability log; not part of the state digest — the
    /// credited UTXOs already are, through the MST root).
    inbound_cross: Vec<InboundCrossTransfer>,
}

impl SidechainState {
    /// An empty state over an MST of the given depth.
    pub fn new(mst_depth: u32) -> Self {
        SidechainState {
            mst: Mst::new(mst_depth),
            backward_transfers: Vec::new(),
            bt_accumulator: empty_bt_accumulator(),
            delta_accumulator: empty_delta_accumulator(),
            touch_sequence: Vec::new(),
            sync_accumulator: empty_sync_accumulator(),
            inbound_cross: Vec::new(),
        }
    }

    /// Read access to the MST.
    pub fn mst(&self) -> &Mst {
        &self.mst
    }

    /// Direct MST mutation (bootstrap/test helper). Protocol transitions
    /// should go through [`crate::tx`] application so that deltas and
    /// accumulators stay consistent.
    pub fn mst_mut(&mut self) -> &mut Mst {
        &mut self.mst
    }

    /// The transient backward transfers of the current epoch.
    pub fn backward_transfers(&self) -> &[BackwardTransfer] {
        &self.backward_transfers
    }

    /// The running backward-transfer accumulator.
    pub fn bt_accumulator(&self) -> Fp {
        self.bt_accumulator
    }

    /// The running delta accumulator.
    pub fn delta_accumulator(&self) -> Fp {
        self.delta_accumulator
    }

    /// The ordered touch sequence of the current epoch.
    pub fn touch_sequence(&self) -> &[u64] {
        &self.touch_sequence
    }

    /// The running mainchain-sync accumulator.
    pub fn sync_accumulator(&self) -> Fp {
        self.sync_accumulator
    }

    /// The state digest `s_t` (§5.4).
    pub fn digest(&self) -> Fp {
        state_digest(
            self.mst.root(),
            self.bt_accumulator,
            self.delta_accumulator,
            self.sync_accumulator,
        )
    }

    /// Records an MST insertion through the protocol path.
    pub(crate) fn insert_utxo(&mut self, utxo: &Utxo) -> Result<u64, crate::mst::MstError> {
        let position = self.mst.add(utxo)?;
        self.touch(position);
        Ok(position)
    }

    /// Records a batch of MST insertions through the protocol path: one
    /// tree write, then one touch per position in the order given.
    pub(crate) fn insert_utxos(&mut self, utxos: &[Utxo]) -> Result<(), crate::mst::MstError> {
        for position in self.mst.add_many(utxos)? {
            self.touch(position);
        }
        Ok(())
    }

    /// Records an MST removal through the protocol path.
    pub(crate) fn remove_utxo(&mut self, utxo: &Utxo) -> Result<u64, crate::mst::MstError> {
        let position = self.mst.remove(utxo)?;
        self.touch(position);
        Ok(position)
    }

    fn touch(&mut self, position: u64) {
        self.delta_accumulator = fold_delta_position(self.delta_accumulator, position);
        self.touch_sequence.push(position);
    }

    /// Appends a backward transfer (updating the accumulator).
    pub(crate) fn append_backward_transfer(&mut self, bt: BackwardTransfer) {
        self.bt_accumulator = fold_backward_transfer(self.bt_accumulator, &bt);
        self.backward_transfers.push(bt);
    }

    /// Folds a mainchain sync event.
    pub(crate) fn record_sync(&mut self, kind: SyncKind, mc_block: &Digest32) {
        self.sync_accumulator = fold_sync(self.sync_accumulator, kind, mc_block);
    }

    /// Logs an inbound cross-chain credit.
    pub(crate) fn record_inbound_cross(&mut self, inbound: InboundCrossTransfer) {
        self.inbound_cross.push(inbound);
    }

    /// Inbound cross-chain transfers credited so far (whole chain
    /// lifetime, not reset per epoch).
    pub fn inbound_cross_transfers(&self) -> &[InboundCrossTransfer] {
        &self.inbound_cross
    }

    /// Closes a withdrawal epoch: returns the certificate ingredients —
    /// `(bt_list, delta, touch_sequence)`, the delta being the set of the
    /// sequence's positions — and resets the transients (§5.2.1:
    /// "backward_transfers is transient and reset every new withdrawal
    /// epoch").
    pub fn end_epoch(&mut self) -> (Vec<BackwardTransfer>, MstDelta, Vec<u64>) {
        let bts = std::mem::take(&mut self.backward_transfers);
        let touches = std::mem::take(&mut self.touch_sequence);
        let mut delta = MstDelta::new(self.mst.depth());
        for &position in &touches {
            delta.touch(position);
        }
        self.bt_accumulator = empty_bt_accumulator();
        self.delta_accumulator = empty_delta_accumulator();
        self.sync_accumulator = empty_sync_accumulator();
        (bts, delta, touches)
    }

    /// Total value on the sidechain.
    pub fn total_value(&self) -> Amount {
        self.mst.total_value()
    }

    /// Spendable balance of an address.
    pub fn balance_of(&self, address: &Address) -> Amount {
        self.mst.balance_of(address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use zendoo_primitives::digest::Digest32;

    fn bt(addr: &str, amount: u64) -> BackwardTransfer {
        BackwardTransfer {
            receiver: Address::from_label(addr),
            amount: Amount::from_units(amount),
        }
    }

    fn utxo(n: u8) -> Utxo {
        Utxo {
            address: Address::from_label("a"),
            amount: Amount::from_units(1),
            nonce: Digest32::hash_bytes(&[n]),
        }
    }

    #[test]
    fn accumulator_matches_list_fold() {
        let mut state = SidechainState::new(8);
        let transfers = [bt("a", 1), bt("b", 2), bt("c", 3)];
        for t in &transfers {
            state.append_backward_transfer(*t);
        }
        assert_eq!(state.bt_accumulator(), bt_list_accumulator(&transfers));
        assert_eq!(state.backward_transfers().len(), 3);
    }

    #[test]
    fn delta_accumulator_matches_sequence_fold() {
        let mut state = SidechainState::new(8);
        state.insert_utxo(&utxo(1)).unwrap();
        state.insert_utxo(&utxo(2)).unwrap();
        state.remove_utxo(&utxo(1)).unwrap();
        assert_eq!(
            state.delta_accumulator(),
            delta_sequence_accumulator(state.touch_sequence())
        );
        assert_eq!(state.touch_sequence().len(), 3);
        // The epoch's delta is the set of those positions: 2 distinct.
        let (_, delta, touches) = state.end_epoch();
        assert_eq!(
            delta.iter().collect::<BTreeSet<_>>(),
            touches.iter().copied().collect()
        );
        assert_eq!(delta.count(), 2);
    }

    #[test]
    fn sync_accumulator_matches_full_fold() {
        let mut state = SidechainState::new(8);
        let blocks = [Digest32::hash_bytes(b"b1"), Digest32::hash_bytes(b"b2")];
        for b in &blocks {
            state.record_sync(SyncKind::ForwardTransfers, b);
            state.record_sync(SyncKind::BackwardTransferRequests, b);
        }
        assert_eq!(state.sync_accumulator(), full_sync_accumulator(&blocks));
    }

    #[test]
    fn digest_changes_with_every_component() {
        let mut state = SidechainState::new(8);
        let d0 = state.digest();
        state.insert_utxo(&utxo(1)).unwrap();
        let d1 = state.digest();
        assert_ne!(d0, d1);
        state.append_backward_transfer(bt("x", 5));
        let d2 = state.digest();
        assert_ne!(d1, d2);
        state.record_sync(SyncKind::ForwardTransfers, &Digest32::hash_bytes(b"b"));
        assert_ne!(state.digest(), d2);
    }

    #[test]
    fn end_epoch_resets_transients_but_not_mst() {
        let mut state = SidechainState::new(8);
        state.insert_utxo(&utxo(1)).unwrap();
        state.append_backward_transfer(bt("x", 5));
        state.record_sync(SyncKind::ForwardTransfers, &Digest32::hash_bytes(b"b"));
        let mst_root = state.mst().root();
        let (bts, delta, touches) = state.end_epoch();
        assert_eq!(bts.len(), 1);
        assert_eq!(touches.len(), 1);
        assert_eq!(
            delta.iter().collect::<BTreeSet<_>>(),
            touches.iter().copied().collect()
        );
        assert!(state.backward_transfers().is_empty());
        assert!(state.touch_sequence().is_empty());
        assert_eq!(state.bt_accumulator(), empty_bt_accumulator());
        assert_eq!(state.delta_accumulator(), empty_delta_accumulator());
        assert_eq!(state.sync_accumulator(), empty_sync_accumulator());
        assert_eq!(state.mst().root(), mst_root, "MST persists across epochs");
        // Post-reset digest equals the canonical epoch-start digest.
        assert_eq!(state.digest(), epoch_start_digest(mst_root));
    }

    #[test]
    fn bt_order_matters_for_accumulator() {
        assert_ne!(
            bt_list_accumulator(&[bt("a", 1), bt("b", 2)]),
            bt_list_accumulator(&[bt("b", 2), bt("a", 1)])
        );
    }
}
