//! Mainchain blocks and headers.
//!
//! The header carries `scTxsCommitment` (§4.1.3/§5.5.1), the root of the
//! sidechain-transactions commitment tree, so sidechain nodes can verify
//! their slice of a block from the header alone.

use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::Encode;
use zendoo_primitives::merkle::{MerkleTree, Sha256Hasher};
use zendoo_primitives::sha256::sha256d;

use crate::pow::Target;
use crate::transaction::McTransaction;

/// A mainchain block header (the paper's `MCBlockHeader`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockHeader {
    /// Hash of the parent block (`prevBlock`).
    pub parent: Digest32,
    /// Block height (genesis = 0).
    pub height: u64,
    /// Logical timestamp (simulation clock ticks).
    pub time: u64,
    /// Merkle root over the block's transaction ids.
    pub tx_root: Digest32,
    /// Root of the sidechain-transactions commitment tree
    /// (`scTxsCommitment`).
    pub sc_txs_commitment: Digest32,
    /// Proof-of-work target this block claims to meet.
    pub target: Target,
    /// Proof-of-work nonce.
    pub nonce: u64,
}

impl BlockHeader {
    /// The block hash: double SHA-256 of the canonical header encoding.
    pub fn hash(&self) -> Digest32 {
        Digest32(sha256d(&self.encoded()))
    }

    /// Returns `true` if the header's own hash meets its target.
    pub fn meets_target(&self) -> bool {
        self.target.is_met_by(&self.hash())
    }
}

impl Encode for BlockHeader {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.parent.encode_into(out);
        self.height.encode_into(out);
        self.time.encode_into(out);
        self.tx_root.encode_into(out);
        self.sc_txs_commitment.encode_into(out);
        self.target.0.encode_into(out);
        self.nonce.encode_into(out);
    }
}

/// A full mainchain block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Transactions; the first must be the coinbase.
    pub transactions: Vec<McTransaction>,
}

impl Block {
    /// The block hash (header hash).
    pub fn hash(&self) -> Digest32 {
        self.header.hash()
    }

    /// This block's transaction ids, in block order.
    pub fn txids(&self) -> Vec<Digest32> {
        self.transactions.iter().map(McTransaction::txid).collect()
    }

    /// The Merkle root over transaction ids already computed, in block
    /// order (the header's `tx_root` over [`Block::txids`]).
    pub fn tx_root_of(txids: &[Digest32]) -> Digest32 {
        let leaves: Vec<[u8; 32]> = txids.iter().map(|txid| txid.0).collect();
        Digest32(MerkleTree::<Sha256Hasher>::from_leaves(leaves).root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::CoinbaseTx;

    fn header() -> BlockHeader {
        BlockHeader {
            parent: Digest32::hash_bytes(b"parent"),
            height: 1,
            time: 7,
            tx_root: Digest32::ZERO,
            sc_txs_commitment: Digest32::ZERO,
            target: Target::EASIEST,
            nonce: 0,
        }
    }

    #[test]
    fn hash_changes_with_nonce() {
        let h1 = header();
        let mut h2 = header();
        h2.nonce = 1;
        assert_ne!(h1.hash(), h2.hash());
    }

    #[test]
    fn hash_commits_to_sc_txs_commitment() {
        let h1 = header();
        let mut h2 = header();
        h2.sc_txs_commitment = Digest32::hash_bytes(b"other");
        assert_ne!(h1.hash(), h2.hash());
    }

    #[test]
    fn tx_root_consistency() {
        let txs = vec![McTransaction::Coinbase(CoinbaseTx {
            height: 1,
            outputs: vec![],
        })];
        let mut block = Block {
            header: header(),
            transactions: txs,
        };
        block.header.tx_root = Block::tx_root_of(&block.txids());
        let mut bad = block.clone();
        bad.transactions.push(McTransaction::Coinbase(CoinbaseTx {
            height: 2,
            outputs: vec![],
        }));
        assert_ne!(Block::tx_root_of(&bad.txids()), bad.header.tx_root);
    }

    #[test]
    fn easiest_target_met_without_mining() {
        assert!(header().meets_target());
    }
}
