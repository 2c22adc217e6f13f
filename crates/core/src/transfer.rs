//! Forward and backward transfers (paper §4.1.1, Def 4.1 / Def 4.3).

use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Encode};

use crate::ids::{Address, Amount, SidechainId};

/// A forward transfer: destroys coins on the mainchain and carries
/// sidechain-opaque receiver metadata (Def 4.1).
///
/// `FT = (ledgerId, receiverMetadata, amount)` — the mainchain validates
/// only `ledgerId` and `amount`; the metadata's semantics belong to the
/// sidechain (§4.1.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ForwardTransfer {
    /// Destination sidechain.
    pub sidechain_id: SidechainId,
    /// Opaque receiver metadata; the mainchain never interprets it.
    pub receiver_metadata: Vec<u8>,
    /// Coins to transfer.
    pub amount: Amount,
}

impl ForwardTransfer {
    /// The commitment-tree leaf digest of this transfer.
    pub fn digest(&self) -> Digest32 {
        digest("zendoo/ft", self)
    }
}

impl Encode for ForwardTransfer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.sidechain_id.encode_into(out);
        self.receiver_metadata.encode_into(out);
        self.amount.encode_into(out);
    }
}

/// A backward transfer: credits coins to a mainchain address when its
/// containing withdrawal certificate is accepted (Def 4.3).
///
/// `BT = (receiverAddr, amount)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BackwardTransfer {
    /// Mainchain address to credit.
    pub receiver: Address,
    /// Coins to credit.
    pub amount: Amount,
}

impl BackwardTransfer {
    /// The Merkle leaf digest of this transfer inside `MH(BTList)`.
    pub fn digest(&self) -> Digest32 {
        digest("zendoo/bt", self)
    }
}

impl Encode for BackwardTransfer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.receiver.encode_into(out);
        self.amount.encode_into(out);
    }
}

/// Computes `MH(BTList)`: the root of a Merkle tree whose leaves are the
/// backward transfers of a certificate (§4.1.2, `wcert_sysdata`).
pub fn bt_list_root(bt_list: &[BackwardTransfer]) -> Digest32 {
    use zendoo_primitives::merkle::{MerkleTree, Sha256Hasher};
    let leaves: Vec<[u8; 32]> = bt_list.iter().map(|bt| bt.digest().0).collect();
    Digest32(MerkleTree::<Sha256Hasher>::from_leaves(leaves).root())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(amount: u64) -> ForwardTransfer {
        ForwardTransfer {
            sidechain_id: SidechainId::from_label("sc"),
            receiver_metadata: vec![1, 2, 3],
            amount: Amount::from_units(amount),
        }
    }

    #[test]
    fn ft_digest_binds_all_fields() {
        let base = ft(5);
        let mut other = ft(5);
        other.receiver_metadata = vec![9];
        assert_ne!(base.digest(), other.digest());
        assert_ne!(base.digest(), ft(6).digest());
        assert_eq!(base.digest(), ft(5).digest());
    }

    #[test]
    fn bt_list_root_is_order_sensitive() {
        let a = BackwardTransfer {
            receiver: Address::from_label("a"),
            amount: Amount::from_units(1),
        };
        let b = BackwardTransfer {
            receiver: Address::from_label("b"),
            amount: Amount::from_units(2),
        };
        assert_ne!(bt_list_root(&[a, b]), bt_list_root(&[b, a]));
        assert_eq!(bt_list_root(&[a, b]), bt_list_root(&[a, b]));
    }

    #[test]
    fn empty_bt_list_has_stable_root() {
        assert_eq!(bt_list_root(&[]), bt_list_root(&[]));
        let a = BackwardTransfer {
            receiver: Address::from_label("a"),
            amount: Amount::from_units(1),
        };
        assert_ne!(bt_list_root(&[]), bt_list_root(&[a]));
    }
}
