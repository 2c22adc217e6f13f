//! Merkle hash trees (paper Definition 2.2, Fig 2) and Merkle proofs.
//!
//! The tree is generic over a [`MerkleHasher`], because the two chains use
//! different node hashes: the mainchain commits with SHA-256
//! ([`Sha256Hasher`]) while the Latus sidechain commits with Poseidon
//! ([`PoseidonHasher`]) so its trees are SNARK-friendly (§5.4).

use crate::field::Fp;
use crate::poseidon;
use crate::sha256::sha256_tagged;
use std::fmt::Debug;
use std::sync::OnceLock;

/// A 2-to-1 node hash used to build Merkle trees.
///
/// This trait is sealed in spirit: the workspace provides the two hashers
/// the protocol needs, but downstream users may add more (e.g. for tests).
pub trait MerkleHasher {
    /// The node type (a digest or field element).
    type Node: Copy + Eq + Debug + Send + Sync;

    /// Combines two child nodes into a parent node.
    fn combine(left: &Self::Node, right: &Self::Node) -> Self::Node;

    /// The padding node used for absent leaves.
    fn empty() -> Self::Node;
}

/// SHA-256-based hasher over 32-byte nodes (mainchain side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sha256Hasher;

impl MerkleHasher for Sha256Hasher {
    type Node = [u8; 32];

    fn combine(left: &Self::Node, right: &Self::Node) -> Self::Node {
        sha256_tagged("zendoo/merkle-node", &[left, right])
    }

    fn empty() -> Self::Node {
        sha256_tagged("zendoo/merkle-empty", &[])
    }
}

/// Poseidon-based hasher over field-element nodes (sidechain side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoseidonHasher;

impl MerkleHasher for PoseidonHasher {
    type Node = Fp;

    fn combine(left: &Self::Node, right: &Self::Node) -> Self::Node {
        poseidon::hash2(left, right)
    }

    fn empty() -> Self::Node {
        static EMPTY: OnceLock<Fp> = OnceLock::new();
        *EMPTY.get_or_init(|| poseidon::hash_many(&[]))
    }
}

/// An in-memory Merkle hash tree built from a list of leaves (Fig 2).
///
/// Leaves are padded with [`MerkleHasher::empty`] up to the next power of
/// two. An empty input produces a single empty leaf.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::merkle::{MerkleTree, Sha256Hasher};
///
/// let leaves: Vec<[u8; 32]> = (0u8..5).map(|i| [i; 32]).collect();
/// let tree = MerkleTree::<Sha256Hasher>::from_leaves(leaves.clone());
/// let proof = tree.proof(3).unwrap();
/// assert!(proof.verify(&tree.root(), &leaves[3]));
/// ```
#[derive(Clone, Debug)]
pub struct MerkleTree<H: MerkleHasher> {
    /// `levels[0]` are the (padded) leaves; the last level is `[root]`.
    levels: Vec<Vec<H::Node>>,
    leaf_count: usize,
}

impl<H: MerkleHasher> MerkleTree<H> {
    /// Builds a tree over `leaves` (padding to a power of two).
    pub fn from_leaves(leaves: Vec<H::Node>) -> Self {
        let leaf_count = leaves.len();
        let mut padded = leaves;
        let width = leaf_count.max(1).next_power_of_two();
        padded.resize(width, H::empty());
        let mut levels = vec![padded];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let next: Vec<H::Node> = prev
                .chunks(2)
                .map(|pair| H::combine(&pair[0], &pair[1]))
                .collect();
            levels.push(next);
        }
        MerkleTree { levels, leaf_count }
    }

    /// The root node. A tree over zero leaves has the empty-leaf root.
    pub fn root(&self) -> H::Node {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of real (unpadded) leaves.
    pub fn len(&self) -> usize {
        self.leaf_count
    }

    /// Returns `true` if no real leaves were supplied.
    pub fn is_empty(&self) -> bool {
        self.leaf_count == 0
    }

    /// The (padded) leaf at `index`, if within the padded width.
    pub fn leaf(&self, index: usize) -> Option<H::Node> {
        self.levels[0].get(index).copied()
    }

    /// Produces the Merkle proof for the leaf at `index`.
    ///
    /// Returns `None` if `index` is outside the real leaf range.
    pub fn proof(&self, index: usize) -> Option<MerkleProof<H>> {
        if index >= self.leaf_count.max(1) {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            siblings.push(level[idx ^ 1]);
            idx >>= 1;
        }
        Some(MerkleProof {
            leaf_index: index as u64,
            siblings,
        })
    }
}

/// A proof of membership of a leaf in a [`MerkleTree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof<H: MerkleHasher> {
    leaf_index: u64,
    siblings: Vec<H::Node>,
}

impl<H: MerkleHasher> MerkleProof<H> {
    /// Constructs a proof from raw parts (used by serialization layers).
    pub fn from_parts(leaf_index: u64, siblings: Vec<H::Node>) -> Self {
        MerkleProof {
            leaf_index,
            siblings,
        }
    }

    /// The index of the proven leaf.
    pub fn leaf_index(&self) -> u64 {
        self.leaf_index
    }

    /// The sibling path, leaf level first.
    pub fn siblings(&self) -> &[H::Node] {
        &self.siblings
    }

    /// Recomputes the root from `leaf` and compares with `root`.
    pub fn verify(&self, root: &H::Node, leaf: &H::Node) -> bool {
        self.compute_root(leaf) == *root
    }

    /// Recomputes the root implied by this path for `leaf`.
    pub fn compute_root(&self, leaf: &H::Node) -> H::Node {
        let mut acc = *leaf;
        let mut idx = self.leaf_index;
        for sibling in &self.siblings {
            acc = if idx & 1 == 0 {
                H::combine(&acc, sibling)
            } else {
                H::combine(sibling, &acc)
            };
            idx >>= 1;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<[u8; 32]> {
        (0..n)
            .map(|i| sha256_tagged("leaf", &[&(i as u64).to_be_bytes()]))
            .collect()
    }

    #[test]
    fn single_leaf_tree() {
        let l = leaves(1);
        let tree = MerkleTree::<Sha256Hasher>::from_leaves(l.clone());
        assert_eq!(tree.root(), l[0]);
        let proof = tree.proof(0).unwrap();
        assert!(proof.verify(&tree.root(), &l[0]));
        assert!(proof.siblings().is_empty());
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let t1 = MerkleTree::<Sha256Hasher>::from_leaves(vec![]);
        let t2 = MerkleTree::<Sha256Hasher>::from_leaves(vec![]);
        assert_eq!(t1.root(), t2.root());
        assert!(t1.is_empty());
    }

    #[test]
    fn figure2_eight_leaf_structure() {
        // Fig 2: h1 = H(h21 | h22), h21 = H(h31 | h32) etc.
        let l = leaves(8);
        let tree = MerkleTree::<Sha256Hasher>::from_leaves(l.clone());
        let h = |a: &[u8; 32], b: &[u8; 32]| Sha256Hasher::combine(a, b);
        let h41 = l[0];
        let h31 = h(&h41, &l[1]);
        let h32 = h(&l[2], &l[3]);
        let h33 = h(&l[4], &l[5]);
        let h34 = h(&l[6], &l[7]);
        let h21 = h(&h31, &h32);
        let h22 = h(&h33, &h34);
        assert_eq!(tree.root(), h(&h21, &h22));
        // The paper's example: proving data4 (index 3) requires (h43, h31, h22).
        let proof = tree.proof(3).unwrap();
        assert_eq!(proof.siblings(), &[l[2], h31, h22]);
        assert!(proof.verify(&tree.root(), &l[3]));
    }

    #[test]
    fn proof_fails_for_wrong_leaf() {
        let l = leaves(8);
        let tree = MerkleTree::<Sha256Hasher>::from_leaves(l.clone());
        let proof = tree.proof(2).unwrap();
        assert!(!proof.verify(&tree.root(), &l[3]));
    }

    #[test]
    fn proof_fails_for_wrong_root() {
        let l = leaves(4);
        let tree = MerkleTree::<Sha256Hasher>::from_leaves(l.clone());
        let other = MerkleTree::<Sha256Hasher>::from_leaves(leaves(5));
        let proof = tree.proof(0).unwrap();
        assert!(!proof.verify(&other.root(), &l[0]));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let tree = MerkleTree::<Sha256Hasher>::from_leaves(leaves(5));
        assert!(tree.proof(5).is_none());
        assert!(tree.proof(100).is_none());
    }

    #[test]
    fn poseidon_tree_works() {
        let l: Vec<Fp> = (0..6).map(Fp::from_u64).collect();
        let tree = MerkleTree::<PoseidonHasher>::from_leaves(l.clone());
        for (i, leaf) in l.iter().enumerate() {
            let proof = tree.proof(i).unwrap();
            assert!(proof.verify(&tree.root(), leaf));
        }
    }

    #[test]
    fn padding_affects_root_vs_count() {
        // 5 and 6 identical leaves except the extra one must differ.
        let t5 = MerkleTree::<Sha256Hasher>::from_leaves(leaves(5));
        let t6 = MerkleTree::<Sha256Hasher>::from_leaves(leaves(6));
        assert_ne!(t5.root(), t6.root());
    }

    proptest! {
        #[test]
        fn prop_all_proofs_verify(n in 1usize..40) {
            let l = leaves(n);
            let tree = MerkleTree::<Sha256Hasher>::from_leaves(l.clone());
            for (i, leaf) in l.iter().enumerate() {
                let proof = tree.proof(i).unwrap();
                prop_assert!(proof.verify(&tree.root(), leaf));
            }
        }

        #[test]
        fn prop_cross_proofs_fail(n in 2usize..20, i in 0usize..20, j in 0usize..20) {
            prop_assume!(i < n && j < n && i != j);
            let l = leaves(n);
            let tree = MerkleTree::<Sha256Hasher>::from_leaves(l.clone());
            let proof = tree.proof(i).unwrap();
            prop_assert!(!proof.verify(&tree.root(), &l[j]));
        }
    }
}
