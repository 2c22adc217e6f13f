//! The unspent-transaction-output set.
//!
//! A UTXO costs what it holds. Nearly every output is regular: an
//! address and an amount, 76 bytes with its outpoint. The few
//! escrow-kind outputs (cross-chain value awaiting settlement) also
//! carry a 132-byte [`zendoo_core::escrow::EscrowTag`]. So the set is
//! two maps — regular outputs as `(Address, Amount)`, escrows whole in
//! outpoint order — and an outpoint lives in at most one of them. The
//! escrow map is also the settlement index: [`UtxoSet::escrows`] walks
//! it, and no second bookkeeping follows `insert` and `remove`.

use std::collections::{BTreeMap, HashMap};
use zendoo_core::ids::{Address, Amount};

use crate::transaction::{OutPoint, OutputKind, TxOut};

/// The mainchain UTXO set: regular outputs by outpoint, and escrow-kind
/// outputs in their own ordered map (see the module docs). Every path
/// that edits the set — a block, its undo journal, a builder's
/// rollback — goes through `insert` and `remove`.
///
/// # Examples
///
/// ```
/// use zendoo_mainchain::utxo::UtxoSet;
/// use zendoo_mainchain::transaction::{OutPoint, TxOut};
/// use zendoo_core::ids::{Address, Amount};
/// use zendoo_primitives::digest::Digest32;
///
/// let mut set = UtxoSet::new();
/// let op = OutPoint { txid: Digest32::hash_bytes(b"tx"), index: 0 };
/// set.insert(op, TxOut::regular(Address::from_label("a"), Amount::from_units(5)));
/// assert!(set.get(&op).is_some());
/// assert_eq!(set.remove(&op).unwrap().amount, Amount::from_units(5));
/// assert!(set.get(&op).is_none());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UtxoSet {
    regular: HashMap<OutPoint, (Address, Amount)>,
    escrows: BTreeMap<OutPoint, TxOut>,
}

impl UtxoSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up an unspent output.
    pub fn get(&self, outpoint: &OutPoint) -> Option<TxOut> {
        self.regular
            .get(outpoint)
            .map(|&(address, amount)| TxOut::regular(address, amount))
            .or_else(|| self.escrows.get(outpoint).copied())
    }

    /// Returns `true` if `outpoint` is unspent.
    pub fn contains(&self, outpoint: &OutPoint) -> bool {
        self.regular.contains_key(outpoint) || self.escrows.contains_key(outpoint)
    }

    /// Adds a new unspent output. Returns the previous value if the
    /// outpoint was (erroneously) already present.
    pub fn insert(&mut self, outpoint: OutPoint, output: TxOut) -> Option<TxOut> {
        match output.kind {
            OutputKind::Regular => self
                .regular
                .insert(outpoint, (output.address, output.amount))
                .map(|(address, amount)| TxOut::regular(address, amount))
                .or_else(|| self.escrows.remove(&outpoint)),
            OutputKind::Escrow(_) => self
                .escrows
                .insert(outpoint, output)
                .or_else(|| self.remove_regular(&outpoint)),
        }
    }

    /// Spends an output, returning it.
    pub fn remove(&mut self, outpoint: &OutPoint) -> Option<TxOut> {
        self.remove_regular(outpoint)
            .or_else(|| self.escrows.remove(outpoint))
    }

    fn remove_regular(&mut self, outpoint: &OutPoint) -> Option<TxOut> {
        let (address, amount) = self.regular.remove(outpoint)?;
        Some(TxOut::regular(address, amount))
    }

    /// The live escrow-kind outputs, in outpoint order.
    pub fn escrows(&self) -> impl Iterator<Item = (&OutPoint, &TxOut)> {
        self.escrows.iter()
    }

    /// Number of unspent outputs.
    pub fn len(&self) -> usize {
        self.regular.len() + self.escrows.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.regular.is_empty() && self.escrows.is_empty()
    }

    /// Iterates over all `(outpoint, output)` entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&OutPoint, TxOut)> {
        let regular = self
            .regular
            .iter()
            .map(|(outpoint, &(address, amount))| (outpoint, TxOut::regular(address, amount)));
        regular.chain(self.escrows.iter().map(|(outpoint, out)| (outpoint, *out)))
    }

    /// Every output's address and amount, escrows included.
    fn holdings(&self) -> impl Iterator<Item = (&Address, Amount)> {
        let regular = self
            .regular
            .values()
            .map(|(address, amount)| (address, *amount));
        regular.chain(self.escrows.values().map(|out| (&out.address, out.amount)))
    }

    /// Total value held by `address`.
    pub fn balance_of(&self, address: &Address) -> Amount {
        Amount::checked_sum(
            self.holdings()
                .filter(|(holder, _)| *holder == address)
                .map(|(_, amount)| amount),
        )
        .expect("total supply fits in u64")
    }

    /// All outpoints owned by `address`, with their outputs.
    pub fn owned_by(&self, address: &Address) -> Vec<(OutPoint, TxOut)> {
        let mut owned: Vec<(OutPoint, TxOut)> = self
            .iter()
            .filter(|(_, o)| o.address == *address)
            .map(|(op, o)| (*op, o))
            .collect();
        owned.sort_by_key(|(op, _)| *op);
        owned
    }

    /// Total value of every unspent output (supply audit).
    pub fn total_value(&self) -> Amount {
        Amount::checked_sum(self.holdings().map(|(_, amount)| amount))
            .expect("total supply fits in u64")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_primitives::digest::Digest32;

    fn op(n: u8, index: u32) -> OutPoint {
        OutPoint {
            txid: Digest32::hash_bytes(&[n]),
            index,
        }
    }

    fn out(addr: &str, amount: u64) -> TxOut {
        TxOut::regular(Address::from_label(addr), Amount::from_units(amount))
    }

    #[test]
    fn balance_and_ownership() {
        let mut set = UtxoSet::new();
        set.insert(op(1, 0), out("alice", 5));
        set.insert(op(1, 1), out("alice", 7));
        set.insert(op(2, 0), out("bob", 11));
        assert_eq!(
            set.balance_of(&Address::from_label("alice")),
            Amount::from_units(12)
        );
        assert_eq!(set.owned_by(&Address::from_label("alice")).len(), 2);
        assert_eq!(set.total_value(), Amount::from_units(23));
    }

    #[test]
    fn double_spend_returns_none() {
        let mut set = UtxoSet::new();
        set.insert(op(1, 0), out("alice", 5));
        assert!(set.remove(&op(1, 0)).is_some());
        assert!(set.remove(&op(1, 0)).is_none());
    }

    #[test]
    fn the_escrow_index_follows_inserts_and_removes() {
        use zendoo_core::escrow::EscrowTag;
        use zendoo_core::ids::{Nullifier, SidechainId};
        let tag = EscrowTag {
            source: SidechainId::from_label("source"),
            epoch: 0,
            dest: SidechainId::from_label("dest"),
            payback: Address::from_label("payback"),
            nullifier: Nullifier(Digest32::hash_bytes(b"n")),
        };
        let escrow = TxOut::escrow(Address::from_label("escrow"), Amount::from_units(3), tag);
        let mut set = UtxoSet::new();
        set.insert(op(2, 0), escrow);
        set.insert(op(1, 0), out("alice", 5));
        set.insert(op(1, 1), escrow);
        let live = |set: &UtxoSet| set.escrows().map(|(op, _)| *op).collect::<Vec<_>>();
        let mut expected = vec![op(2, 0), op(1, 1)];
        expected.sort();
        assert_eq!(live(&set), expected);
        set.remove(&op(2, 0));
        assert_eq!(live(&set), vec![op(1, 1)]);
        // Overwriting an escrow with a regular output drops it too.
        set.insert(op(1, 1), out("bob", 3));
        assert!(live(&set).is_empty());
    }

    #[test]
    fn owned_by_is_deterministic() {
        let mut set = UtxoSet::new();
        for i in 0..10 {
            set.insert(op(i, 0), out("a", i as u64 + 1));
        }
        let first = set.owned_by(&Address::from_label("a"));
        let second = set.owned_by(&Address::from_label("a"));
        assert_eq!(first, second);
    }
}
