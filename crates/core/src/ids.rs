//! Protocol-level identifiers and quantities shared by both chains.

use std::fmt;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{Decode, DecodeError, Encode, Reader};

/// A unique identifier of a registered sidechain (`ledgerId` in the
/// paper). Derived from the hash of the sidechain-creation transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SidechainId(pub Digest32);

impl SidechainId {
    /// Derives the id from the creating transaction's digest.
    pub fn from_creation_tx(txid: &Digest32) -> Self {
        SidechainId(Digest32::hash_tagged(
            "zendoo/sidechain-id",
            &[txid.as_bytes()],
        ))
    }

    /// Deterministic id from a label — for tests and examples.
    pub fn from_label(label: &str) -> Self {
        SidechainId(Digest32::hash_tagged(
            "zendoo/sidechain-label",
            &[label.as_bytes()],
        ))
    }

    /// The low sentinel id used internally by the commitment tree.
    pub(crate) const MIN_SENTINEL: SidechainId = SidechainId(Digest32([0u8; 32]));

    /// The high sentinel id used internally by the commitment tree.
    pub(crate) const MAX_SENTINEL: SidechainId = SidechainId(Digest32([0xffu8; 32]));

    /// Returns `true` if this id collides with a commitment-tree sentinel
    /// (such ids are rejected at sidechain creation).
    pub fn is_reserved(&self) -> bool {
        *self == Self::MIN_SENTINEL || *self == Self::MAX_SENTINEL
    }
}

impl fmt::Debug for SidechainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SidechainId({})", self.0)
    }
}

impl fmt::Display for SidechainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Encode for SidechainId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }
}

/// A withdrawal-epoch number (`epochId`).
pub type EpochId = u32;

/// Certificate quality (§4.1.2): the mainchain adopts the
/// highest-quality certificate for an epoch.
pub type Quality = u64;

/// A mainchain address: the hash of a Schnorr public key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub Digest32);

impl Address {
    /// Derives an address from a compressed public key.
    pub fn from_public_key(pk: &zendoo_primitives::schnorr::PublicKey) -> Self {
        Address(Digest32::hash_tagged("zendoo/address", &[&pk.to_bytes()]))
    }

    /// Deterministic address from a label — tests and examples.
    pub fn from_label(label: &str) -> Self {
        Address(Digest32::hash_tagged(
            "zendoo/address-label",
            &[label.as_bytes()],
        ))
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({})", self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Encode for Address {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }
}

/// A nullifier: the unique identifier of coins claimed by a BTR or CSW
/// (§4.1.2.1). The mainchain rejects two submissions with the same
/// nullifier, providing double-spend prevention without sidechain state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nullifier(pub Digest32);

impl Nullifier {
    /// Derives the nullifier of a sidechain UTXO from its digest.
    pub fn from_utxo_digest(utxo: &Digest32) -> Self {
        Nullifier(Digest32::hash_tagged(
            "zendoo/nullifier",
            &[utxo.as_bytes()],
        ))
    }
}

impl fmt::Debug for Nullifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nullifier({})", self.0)
    }
}

impl Encode for Nullifier {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }
}

/// A coin amount in indivisible base units.
///
/// All arithmetic is checked: protocol code can never silently overflow a
/// balance.
///
/// # Examples
///
/// ```
/// use zendoo_core::ids::Amount;
///
/// let a = Amount::from_units(5);
/// let b = Amount::from_units(3);
/// assert_eq!(a.checked_add(b), Some(Amount::from_units(8)));
/// assert_eq!(b.checked_sub(a), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Amount(u64);

impl Amount {
    /// Zero coins.
    pub const ZERO: Amount = Amount(0);

    /// Constructs from base units.
    pub const fn from_units(units: u64) -> Self {
        Amount(units)
    }

    /// The raw unit count.
    pub const fn units(&self) -> u64 {
        self.0
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_add(rhs.0).map(Amount)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_sub(rhs.0).map(Amount)
    }

    /// Sums an iterator with overflow detection.
    pub fn checked_sum<I: IntoIterator<Item = Amount>>(iter: I) -> Option<Amount> {
        iter.into_iter()
            .try_fold(Amount::ZERO, |acc, x| acc.checked_add(x))
    }

    /// Returns `true` for the zero amount.
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Encode for Amount {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }
}

/// `Decode` for the newtypes above: the one field's decoding.
macro_rules! decode_newtype {
    ($($ty:ident($inner:ty)),*) => {$(
        impl Decode for $ty {
            const MIN_LEN: usize = <$inner>::MIN_LEN;
            fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok($ty(reader.read()?))
            }
        }
    )*};
}
decode_newtype!(
    SidechainId(Digest32),
    Address(Digest32),
    Nullifier(Digest32),
    Amount(u64)
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amount_checked_arithmetic() {
        let max = Amount::from_units(u64::MAX);
        assert_eq!(max.checked_add(Amount::from_units(1)), None);
        assert_eq!(Amount::ZERO.checked_sub(Amount::from_units(1)), None);
        assert_eq!(
            Amount::checked_sum([1, 2, 3].map(Amount::from_units)),
            Some(Amount::from_units(6))
        );
        assert_eq!(
            Amount::checked_sum([u64::MAX, 1].map(Amount::from_units)),
            None
        );
    }

    #[test]
    fn sidechain_id_derivation_is_stable() {
        let tx = Digest32::hash_bytes(b"creation-tx");
        assert_eq!(
            SidechainId::from_creation_tx(&tx),
            SidechainId::from_creation_tx(&tx)
        );
        assert_ne!(
            SidechainId::from_creation_tx(&tx),
            SidechainId::from_label("x")
        );
    }

    #[test]
    fn sentinels_are_reserved() {
        assert!(SidechainId::MIN_SENTINEL.is_reserved());
        assert!(SidechainId::MAX_SENTINEL.is_reserved());
        assert!(!SidechainId::from_label("app").is_reserved());
    }

    #[test]
    fn address_from_key_is_stable() {
        let kp = zendoo_primitives::schnorr::Keypair::from_seed(b"user");
        assert_eq!(
            Address::from_public_key(&kp.public),
            Address::from_public_key(&kp.public)
        );
    }

    #[test]
    fn nullifier_differs_from_input() {
        let utxo = Digest32::hash_bytes(b"utxo");
        assert_ne!(Nullifier::from_utxo_digest(&utxo).0, utxo);
    }
}
