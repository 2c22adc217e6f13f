//! Fixed-depth sparse Merkle tree over Poseidon nodes.
//!
//! This is the data structure behind the Latus **Merkle State Tree**
//! (§5.2, Fig 9): a tree of fixed depth `D` whose `2^D` leaf slots are
//! either *occupied* (holding the hash of an unspent output) or *empty*
//! (the `H(Null)` constant). Empty subtrees hash to precomputed constants,
//! so storage and update cost are proportional to occupancy, not capacity.
//!
//! # The folding invariant
//!
//! `empty[l]`, the hash of an empty subtree of height `l`, does not depend
//! on the tree's depth: `empty[0] = H(Null)` and
//! `empty[l+1] = H(empty[l], empty[l])`. The table is computed once per
//! process, and wherever a node hash has both inputs equal to `empty[l]`
//! — walking up from an empty or just-cleared slot in a
//! [`SparseMerkleTree`] update or in [`SmtProof::compute_root`] — the
//! result is read from the table instead of recomputed. The value is the
//! one the permutation produced when the table was built, so roots and
//! proof verdicts are exactly those of hashing every level.

use crate::field::Fp;
use crate::merkle::{MerkleHasher, PoseidonHasher};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// Height of the tallest supported tree (indices are `u64`).
const MAX_DEPTH: u32 = 63;

fn empty_subtrees() -> &'static [Fp; MAX_DEPTH as usize + 1] {
    static EMPTY: OnceLock<[Fp; MAX_DEPTH as usize + 1]> = OnceLock::new();
    EMPTY.get_or_init(|| {
        let mut empty = [PoseidonHasher::empty(); MAX_DEPTH as usize + 1];
        for l in 1..empty.len() {
            empty[l] = PoseidonHasher::combine(&empty[l - 1], &empty[l - 1]);
        }
        empty
    })
}

/// The parent of `left` and `right` at `height` (the children's level):
/// the table entry when both are the empty subtree of that height, a
/// Poseidon combine otherwise.
fn parent(height: usize, left: &Fp, right: &Fp) -> Fp {
    let empty = empty_subtrees();
    match (empty.get(height), empty.get(height + 1)) {
        (Some(child), Some(folded)) if left == child && right == child => *folded,
        _ => PoseidonHasher::combine(left, right),
    }
}

/// Errors from sparse-tree operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmtError {
    /// The leaf index is outside `[0, 2^depth)`.
    IndexOutOfRange {
        /// Offending index.
        index: u64,
        /// Tree depth.
        depth: u32,
    },
    /// Attempted to occupy a slot that already holds a leaf.
    SlotOccupied(u64),
    /// Attempted to clear a slot that is already empty.
    SlotEmpty(u64),
}

impl std::fmt::Display for SmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmtError::IndexOutOfRange { index, depth } => {
                write!(f, "leaf index {index} out of range for depth {depth}")
            }
            SmtError::SlotOccupied(i) => write!(f, "slot {i} is already occupied"),
            SmtError::SlotEmpty(i) => write!(f, "slot {i} is already empty"),
        }
    }
}

impl std::error::Error for SmtError {}

/// A sparse Merkle tree of fixed depth with Poseidon node hashing.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::field::Fp;
/// use zendoo_primitives::smt::SparseMerkleTree;
///
/// let mut tree = SparseMerkleTree::new(3);
/// tree.insert(4, Fp::from_u64(77)).unwrap();
/// let proof = tree.proof(4);
/// assert!(proof.verify_occupied(&tree.root(), &Fp::from_u64(77)));
/// assert!(tree.proof(5).verify_empty(&tree.root()));
/// ```
#[derive(Clone, Debug)]
pub struct SparseMerkleTree {
    depth: u32,
    /// Occupied leaves only.
    leaves: BTreeMap<u64, Fp>,
    /// Interior nodes that differ from the empty-subtree constant,
    /// keyed by `(level, index)`; level 1..=depth.
    nodes: HashMap<(u32, u64), Fp>,
}

impl SparseMerkleTree {
    /// Maximum supported depth (indices are `u64`).
    pub const MAX_DEPTH: u32 = MAX_DEPTH;

    /// Creates an empty tree with `2^depth` slots.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds [`Self::MAX_DEPTH`].
    pub fn new(depth: u32) -> Self {
        assert!(
            (1..=Self::MAX_DEPTH).contains(&depth),
            "depth must be in 1..={}",
            Self::MAX_DEPTH
        );
        SparseMerkleTree {
            depth,
            leaves: BTreeMap::new(),
            nodes: HashMap::new(),
        }
    }

    /// The tree depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Total number of leaf slots, `2^depth`.
    pub fn capacity(&self) -> u64 {
        1u64 << self.depth
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Returns `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The current root.
    pub fn root(&self) -> Fp {
        self.node(self.depth, 0)
    }

    /// The leaf at `index`, if occupied.
    pub fn get(&self, index: u64) -> Option<Fp> {
        self.leaves.get(&index).copied()
    }

    /// Returns `true` if `index` holds a leaf.
    pub fn is_occupied(&self, index: u64) -> bool {
        self.leaves.contains_key(&index)
    }

    /// Iterates over `(index, leaf)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Fp)> + '_ {
        self.leaves.iter().map(|(k, v)| (*k, *v))
    }

    /// Occupies the empty slot at `index` with `leaf`.
    ///
    /// # Errors
    ///
    /// [`SmtError::SlotOccupied`] if the slot already holds a value
    /// (the MST collision case of §5.3.2), or
    /// [`SmtError::IndexOutOfRange`] for indices beyond capacity.
    pub fn insert(&mut self, index: u64, leaf: Fp) -> Result<(), SmtError> {
        self.check_range(index)?;
        if self.leaves.contains_key(&index) {
            return Err(SmtError::SlotOccupied(index));
        }
        self.leaves.insert(index, leaf);
        self.update_path(index);
        Ok(())
    }

    /// Clears the occupied slot at `index`, returning the removed leaf.
    ///
    /// # Errors
    ///
    /// [`SmtError::SlotEmpty`] if the slot holds no value.
    pub fn remove(&mut self, index: u64) -> Result<Fp, SmtError> {
        self.check_range(index)?;
        let removed = self
            .leaves
            .remove(&index)
            .ok_or(SmtError::SlotEmpty(index))?;
        self.update_path(index);
        Ok(removed)
    }

    /// Produces a (membership or absence) proof for slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range; use [`SparseMerkleTree::capacity`]
    /// to validate first when handling untrusted input.
    pub fn proof(&self, index: u64) -> SmtProof {
        assert!(
            index < self.capacity(),
            "index {index} out of range for depth {}",
            self.depth
        );
        let mut siblings = Vec::with_capacity(self.depth as usize);
        for level in 0..self.depth {
            let sibling_index = (index >> level) ^ 1;
            siblings.push(self.node(level, sibling_index));
        }
        SmtProof { index, siblings }
    }

    fn check_range(&self, index: u64) -> Result<(), SmtError> {
        if index >= self.capacity() {
            Err(SmtError::IndexOutOfRange {
                index,
                depth: self.depth,
            })
        } else {
            Ok(())
        }
    }

    /// Value of the node at `(level, index)`; level 0 = leaves.
    fn node(&self, level: u32, index: u64) -> Fp {
        let stored = if level == 0 {
            self.leaves.get(&index)
        } else {
            self.nodes.get(&(level, index))
        };
        stored
            .copied()
            .unwrap_or_else(|| empty_subtrees()[level as usize])
    }

    /// Recomputes interior nodes along the path from leaf `index` to root.
    fn update_path(&mut self, index: u64) {
        for level in 1..=self.depth {
            let node_index = index >> level;
            let left = self.node(level - 1, node_index * 2);
            let right = self.node(level - 1, node_index * 2 + 1);
            let value = parent(level as usize - 1, &left, &right);
            if value == empty_subtrees()[level as usize] {
                self.nodes.remove(&(level, node_index));
            } else {
                self.nodes.insert((level, node_index), value);
            }
        }
    }
}

/// A proof for one slot of a [`SparseMerkleTree`]: proves either the
/// membership of a specific leaf or the emptiness of the slot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmtProof {
    index: u64,
    siblings: Vec<Fp>,
}

impl SmtProof {
    /// Constructs a proof from raw parts (used by serialization layers;
    /// nothing about the parts is trusted until a root is checked).
    pub fn from_parts(index: u64, siblings: Vec<Fp>) -> Self {
        SmtProof { index, siblings }
    }

    /// The slot index the proof speaks about.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The sibling path (leaf level first). A proof for a tree of depth
    /// `D` has exactly `D` siblings; a verifier that knows `D` must check
    /// the length, because a shorter or longer path still computes *a*
    /// root.
    pub fn siblings(&self) -> &[Fp] {
        &self.siblings
    }

    /// Verifies that slot `index` holds exactly `leaf` under `root`.
    pub fn verify_occupied(&self, root: &Fp, leaf: &Fp) -> bool {
        self.compute_root(leaf) == *root
    }

    /// Verifies that slot `index` is empty under `root`.
    pub fn verify_empty(&self, root: &Fp) -> bool {
        self.compute_root(&empty_subtrees()[0]) == *root
    }

    /// Root implied by placing `leaf` at the proof's slot. Total: index
    /// bits beyond the 64th are zero, whatever the path length.
    pub fn compute_root(&self, leaf: &Fp) -> Fp {
        let mut acc = *leaf;
        for (level, sibling) in self.siblings.iter().enumerate() {
            let bit = if level < u64::BITS as usize {
                (self.index >> level) & 1
            } else {
                0
            };
            acc = if bit == 0 {
                parent(level, &acc, sibling)
            } else {
                parent(level, sibling, &acc)
            };
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_tree_roots_are_depth_dependent() {
        let t3 = SparseMerkleTree::new(3);
        let t4 = SparseMerkleTree::new(4);
        assert_ne!(t3.root(), t4.root());
        assert_eq!(SparseMerkleTree::new(3).root(), t3.root());
    }

    #[test]
    fn insert_changes_root_and_remove_restores_it() {
        let mut tree = SparseMerkleTree::new(4);
        let empty_root = tree.root();
        tree.insert(5, Fp::from_u64(42)).unwrap();
        assert_ne!(tree.root(), empty_root);
        assert_eq!(tree.remove(5).unwrap(), Fp::from_u64(42));
        assert_eq!(tree.root(), empty_root);
        assert!(tree.nodes.is_empty(), "node cache must shrink back");
    }

    #[test]
    fn double_insert_rejected() {
        let mut tree = SparseMerkleTree::new(4);
        tree.insert(3, Fp::from_u64(1)).unwrap();
        assert_eq!(
            tree.insert(3, Fp::from_u64(2)),
            Err(SmtError::SlotOccupied(3))
        );
    }

    #[test]
    fn remove_empty_rejected() {
        let mut tree = SparseMerkleTree::new(4);
        assert_eq!(tree.remove(3), Err(SmtError::SlotEmpty(3)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut tree = SparseMerkleTree::new(3);
        assert!(matches!(
            tree.insert(8, Fp::ZERO),
            Err(SmtError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn membership_and_absence_proofs() {
        let mut tree = SparseMerkleTree::new(5);
        tree.insert(7, Fp::from_u64(700)).unwrap();
        tree.insert(19, Fp::from_u64(1900)).unwrap();
        let root = tree.root();

        let p7 = tree.proof(7);
        assert!(p7.verify_occupied(&root, &Fp::from_u64(700)));
        assert!(!p7.verify_occupied(&root, &Fp::from_u64(701)));
        assert!(!p7.verify_empty(&root));

        let p8 = tree.proof(8);
        assert!(p8.verify_empty(&root));
        assert!(!p8.verify_occupied(&root, &Fp::from_u64(700)));
    }

    #[test]
    fn proof_invalidated_by_updates() {
        let mut tree = SparseMerkleTree::new(4);
        tree.insert(2, Fp::from_u64(5)).unwrap();
        let stale = tree.proof(2);
        let old_root = tree.root();
        tree.insert(9, Fp::from_u64(6)).unwrap();
        assert!(!stale.verify_occupied(&tree.root(), &Fp::from_u64(5)));
        assert!(stale.verify_occupied(&old_root, &Fp::from_u64(5)));
    }

    #[test]
    fn matches_paper_figure9_occupancy() {
        // Fig 9: depth 3, slots 0/4/6 occupied (1-indexed in the figure as
        // utxo1..3 at leaves 1, 5, 7 of 8 — we use 0-based 0, 4, 6).
        let mut tree = SparseMerkleTree::new(3);
        tree.insert(0, Fp::from_u64(1)).unwrap();
        tree.insert(4, Fp::from_u64(2)).unwrap();
        tree.insert(6, Fp::from_u64(3)).unwrap();
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.capacity(), 8);
        for i in [1u64, 2, 3, 5, 7] {
            assert!(tree.proof(i).verify_empty(&tree.root()));
        }
    }

    #[test]
    fn order_independence_of_root() {
        let mut a = SparseMerkleTree::new(6);
        let mut b = SparseMerkleTree::new(6);
        let entries = [(1u64, 10u64), (33, 20), (7, 30), (62, 40)];
        for (i, v) in entries {
            a.insert(i, Fp::from_u64(v)).unwrap();
        }
        for (i, v) in entries.iter().rev() {
            b.insert(*i, Fp::from_u64(*v)).unwrap();
        }
        assert_eq!(a.root(), b.root());
    }

    // Generated at the commit before the shared table replaced the
    // per-tree empty vector.
    #[test]
    fn known_answer_empty_roots() {
        for (depth, expected) in [
            (
                3,
                "44f8231f06414e57afcee1dda853b9ccaf27eae117e7131f37ebdd28632309cd",
            ),
            (
                40,
                "52ce519269773d1f6362f4de2df815133a2cc711fb273c73019cd41ac522092c",
            ),
            (
                48,
                "38844efde22f11de13f9b8b655457a18a8108c686b44de50ab388d56df4f53a0",
            ),
            (
                63,
                "5e89b17af5e5bc05cfab288c2f0dffd533f51abbe8479f3162d7aaef250bd6d3",
            ),
        ] {
            assert_eq!(SparseMerkleTree::new(depth).root(), Fp::from_hex(expected));
        }
        let mut tree = SparseMerkleTree::new(40);
        tree.insert(0x12_3456_789a, Fp::from_u64(77)).unwrap();
        tree.insert(5, Fp::from_u64(78)).unwrap();
        assert_eq!(
            tree.root(),
            Fp::from_hex("5cea0548edd549529a1eb0f727bf6fc18c4ee045efa71cdc4c2805293279dda6")
        );
    }

    #[test]
    fn membership_proof_never_proves_emptiness() {
        // The proof used to carry its own "empty leaf" constant, so a
        // prover who set it to X could pass off a slot holding X as
        // empty. The constant is now the verifier's.
        for x in [Fp::ZERO, Fp::from_u64(1), Fp::from_u64(700)] {
            let mut tree = SparseMerkleTree::new(5);
            tree.insert(7, x).unwrap();
            let proof = tree.proof(7);
            assert_eq!(proof.compute_root(&x), tree.root());
            assert!(!proof.verify_empty(&tree.root()));
        }
    }

    #[test]
    fn compute_root_is_total_in_the_path_length() {
        let mut tree = SparseMerkleTree::new(40);
        let leaf = Fp::from_u64(9);
        tree.insert(u64::MAX >> 24, leaf).unwrap();
        let exact = tree.proof(u64::MAX >> 24);
        assert!(exact.verify_occupied(&tree.root(), &leaf));
        let with_len = |len: usize| {
            let mut siblings = exact.siblings().to_vec();
            siblings.resize(len, Fp::from_u64(3));
            SmtProof::from_parts(u64::MAX, siblings)
        };
        // Neither panics, and a path of another length is another root.
        assert!(!with_len(39).verify_occupied(&tree.root(), &leaf));
        assert!(!with_len(65).verify_occupied(&tree.root(), &leaf));
        // Index bits beyond the 64th are zero: the accumulator is the
        // left child at levels 64 and up.
        let long = with_len(66);
        let mut acc = with_len(64).compute_root(&leaf);
        for sibling in &long.siblings()[64..] {
            acc = PoseidonHasher::combine(&acc, sibling);
        }
        assert_eq!(long.compute_root(&leaf), acc);
    }

    fn permutations<R>(f: impl FnOnce() -> R) -> (R, u64) {
        use crate::poseidon::PERMUTATIONS;
        empty_subtrees();
        let before = PERMUTATIONS.with(|n| n.get());
        let out = f();
        (out, PERMUTATIONS.with(|n| n.get()) - before)
    }

    #[test]
    fn folding_saves_the_expected_permutations() {
        // One leaf at slot 0; slot 2^20 shares its path from level 21 up,
        // so the 20 levels below are empty beside empty.
        let mut tree = SparseMerkleTree::new(40);
        tree.insert(0, Fp::from_u64(1)).unwrap();
        let (slot, leaf) = (1u64 << 20, Fp::from_u64(2));
        let proof = tree.proof(slot);
        let (_, old_root_cost) = permutations(|| proof.verify_empty(&tree.root()));
        assert_eq!(old_root_cost, 20);
        let (_, new_root_cost) = permutations(|| proof.compute_root(&leaf));
        assert_eq!(new_root_cost, 40);
        let (_, insert_cost) = permutations(|| tree.insert(slot, leaf).unwrap());
        assert_eq!(insert_cost, 40);
        let (_, remove_cost) = permutations(|| tree.remove(slot).unwrap());
        assert_eq!(remove_cost, 20);
        let (_, new_tree_cost) = permutations(|| SparseMerkleTree::new(40).root());
        assert_eq!(new_tree_cost, 0);
    }

    /// The tree as it was before folding: a per-tree empty vector and a
    /// combine at every level of every update.
    struct AlwaysHash {
        depth: u32,
        empty: Vec<Fp>,
        nodes: HashMap<(u32, u64), Fp>,
    }

    impl AlwaysHash {
        fn new(depth: u32) -> Self {
            let mut empty = vec![crate::poseidon::hash_many(&[])];
            for l in 0..depth as usize {
                empty.push(PoseidonHasher::combine(&empty[l], &empty[l]));
            }
            AlwaysHash {
                depth,
                empty,
                nodes: HashMap::new(),
            }
        }

        fn node(&self, level: u32, index: u64) -> Fp {
            let stored = self.nodes.get(&(level, index)).copied();
            stored.unwrap_or(self.empty[level as usize])
        }

        fn set(&mut self, index: u64, leaf: Option<Fp>) {
            match leaf {
                Some(leaf) => self.nodes.insert((0, index), leaf),
                None => self.nodes.remove(&(0, index)),
            };
            for level in 1..=self.depth {
                let i = index >> level;
                let value = PoseidonHasher::combine(
                    &self.node(level - 1, 2 * i),
                    &self.node(level - 1, 2 * i + 1),
                );
                self.nodes.insert((level, i), value);
            }
        }

        fn siblings(&self, index: u64) -> Vec<Fp> {
            (0..self.depth)
                .map(|level| self.node(level, (index >> level) ^ 1))
                .collect()
        }

        fn compute_root(&self, index: u64, leaf: &Fp) -> Fp {
            let mut acc = *leaf;
            for (level, sibling) in self.siblings(index).iter().enumerate() {
                acc = if (index >> level) & 1 == 0 {
                    PoseidonHasher::combine(&acc, sibling)
                } else {
                    PoseidonHasher::combine(sibling, &acc)
                };
            }
            acc
        }
    }

    /// Random insert/remove sequence at `depth`, in lock-step with the
    /// always-hash reference; then everything is removed again.
    fn differential(depth: u32, ops: &[(u64, u64)]) -> Result<(), TestCaseError> {
        let mut tree = SparseMerkleTree::new(depth);
        let mut reference = AlwaysHash::new(depth);
        let mask = (1u64 << depth) - 1;
        for (raw, val) in ops {
            // Cluster the slots so that paths share low levels too.
            let index = ((raw & 0xF) | ((raw >> 4) << (depth - 2))) & mask;
            let leaf = Fp::from_u64(*val);
            if tree.is_occupied(index) {
                tree.remove(index).unwrap();
                reference.set(index, None);
            } else {
                tree.insert(index, leaf).unwrap();
                reference.set(index, Some(leaf));
            }
            prop_assert_eq!(tree.root(), reference.node(depth, 0));
            for probe in [index, index ^ 1, index ^ (1 << (depth - 1))] {
                let proof = tree.proof(probe);
                prop_assert_eq!(proof.siblings(), &reference.siblings(probe)[..]);
                let held = tree.get(probe).unwrap_or(reference.empty[0]);
                prop_assert_eq!(proof.compute_root(&held), tree.root());
                prop_assert_eq!(
                    proof.compute_root(&leaf),
                    reference.compute_root(probe, &leaf)
                );
                prop_assert_eq!(proof.verify_empty(&tree.root()), !tree.is_occupied(probe));
            }
        }
        let occupied: Vec<u64> = tree.iter().map(|(i, _)| i).collect();
        for index in occupied {
            tree.remove(index).unwrap();
        }
        prop_assert_eq!(tree.root(), reference.empty[depth as usize]);
        prop_assert!(tree.nodes.is_empty(), "node map must shrink back to empty");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_matches_always_hash_reference(
            ops in proptest::collection::vec((0u64..64, 1u64..1_000_000), 1..24)
        ) {
            for depth in [6, 40, 48] {
                differential(depth, &ops)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_insert_remove_root_consistency(
            ops in proptest::collection::vec((0u64..64, 1u64..1_000_000), 1..40)
        ) {
            let mut tree = SparseMerkleTree::new(6);
            let mut reference = std::collections::BTreeMap::new();
            for (idx, val) in ops {
                if let std::collections::btree_map::Entry::Vacant(slot) = reference.entry(idx) {
                    tree.insert(idx, Fp::from_u64(val)).unwrap();
                    slot.insert(val);
                } else {
                    tree.remove(idx).unwrap();
                    reference.remove(&idx);
                }
            }
            // Rebuild from scratch and compare roots.
            let mut fresh = SparseMerkleTree::new(6);
            for (idx, val) in &reference {
                fresh.insert(*idx, Fp::from_u64(*val)).unwrap();
            }
            prop_assert_eq!(tree.root(), fresh.root());
            prop_assert_eq!(tree.len(), reference.len());
            // All membership proofs verify.
            for (idx, val) in &reference {
                prop_assert!(tree.proof(*idx).verify_occupied(&tree.root(), &Fp::from_u64(*val)));
            }
        }
    }
}
