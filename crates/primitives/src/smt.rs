//! Compact, persistent sparse Merkle tree over Poseidon.
//!
//! This is the data structure behind the Latus **Merkle State Tree**
//! (§5.2, Fig 9) and the indexer's inbound trees: a map from the
//! `2^depth` slot indices to field elements with membership and absence
//! proofs. It keeps Fig 9's map and both statements and departs from its
//! hash shape in one way — a subtree is hashed by what it *holds*, not by
//! how tall it is:
//!
//! * no occupant: the constant [`empty_hash`] (`H(Null)`);
//! * exactly one occupant `(index, value)`: [`leaf_hash`]`(index, value)`,
//!   at whatever height the subtree sits;
//! * anything else: `H_node(left, right)` of its two halves.
//!
//! The three are domain-separated (one Poseidon capacity constant each),
//! so a hash opens as exactly one kind, and `H_leaf` binds the **full**
//! index, so a leaf met high in the tree cannot stand in for a
//! neighbouring slot. The root depends only on the set of
//! `(index, value)` pairs. A write or a proof touches the ≈ log₂ n levels
//! the occupants actually share, whatever the depth.
//!
//! Nodes are immutable and [`Arc`]-shared and a write copies one path, so
//! `Clone` is a root handle: an old handle answers exactly as it did
//! before any number of later writes, and dropping it frees the nodes
//! nothing else shares.

use crate::field::Fp;
use crate::merkle::{MerkleHasher, PoseidonHasher};
use crate::poseidon;
use std::sync::Arc;

/// Height of the tallest supported tree (indices are `u64`).
const MAX_DEPTH: u32 = 63;

/// The hash of a subtree with no occupant, at any height (`H(Null)`).
pub fn empty_hash() -> Fp {
    PoseidonHasher::empty()
}

/// The hash of a subtree whose only occupant is `value` at slot `index`,
/// at any height.
pub fn leaf_hash(index: u64, value: &Fp) -> Fp {
    poseidon::hash_leaf(&Fp::from_u64(index), value)
}

/// `H_node` with the accumulated child on the side `right` says.
fn join(right: bool, acc: &Fp, sibling: &Fp) -> Fp {
    if right {
        poseidon::hash2(sibling, acc)
    } else {
        poseidon::hash2(acc, sibling)
    }
}

fn bit(index: u64, height: u32) -> bool {
    (index >> height) & 1 == 1
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

/// `None` is the empty subtree.
type Link<P> = Option<Arc<Node<P>>>;

#[derive(Debug)]
enum Node<P> {
    /// A subtree's only occupant, wherever the subtree sits.
    Leaf {
        index: u64,
        value: Fp,
        hash: Fp,
        payload: P,
    },
    /// A subtree with at least two occupants.
    Branch {
        hash: Fp,
        left: Link<P>,
        right: Link<P>,
    },
}

impl<P> Node<P> {
    fn hash(&self) -> Fp {
        match self {
            Node::Leaf { hash, .. } | Node::Branch { hash, .. } => *hash,
        }
    }

    fn opening(&self) -> NodeOpening {
        match self {
            Node::Leaf { index, value, .. } => NodeOpening::Leaf {
                index: *index,
                value: *value,
            },
            Node::Branch { left, right, .. } => NodeOpening::Interior {
                left: link_hash(left),
                right: link_hash(right),
            },
        }
    }
}

fn link_hash<P>(link: &Link<P>) -> Fp {
    link.as_ref().map_or_else(empty_hash, |node| node.hash())
}

fn branch<P>(left: Link<P>, right: Link<P>) -> Arc<Node<P>> {
    Arc::new(Node::Branch {
        hash: poseidon::hash2(&link_hash(&left), &link_hash(&right)),
        left,
        right,
    })
}

/// How many of `sorted` (indices, ascending, all below one node of
/// `height`) lie in that node's left half.
fn left_half<T>(sorted: &[(u64, T)], height: u32) -> usize {
    sorted.partition_point(|(index, _)| !bit(*index, height - 1))
}

/// Folds the canonical subtree of `height` that holds exactly `leaves`
/// (distinct, ascending, all below it): no occupant is `empty`, a lone
/// leaf stands for itself wherever it sits, anything else is `join` of
/// its two halves. Two leaves that share a prefix are pushed down to the
/// first bit where they differ, an empty half beside them on each level
/// between. Every node is visited once, so building a tree of hashes or
/// of nodes this way hashes each branch once.
fn compact<T: Clone>(
    height: u32,
    leaves: &[(u64, T)],
    empty: &impl Fn() -> T,
    join: &impl Fn(T, T) -> T,
) -> T {
    match leaves {
        [] => empty(),
        [(_, leaf)] => leaf.clone(),
        _ => {
            let (left, right) = leaves.split_at(left_half(leaves, height));
            join(
                compact(height - 1, left, empty, join),
                compact(height - 1, right, empty, join),
            )
        }
    }
}

/// The subtree of `height` at `link` with `leaves` (`Node::Leaf`s,
/// distinct, ascending, all below it) added. A branch the new leaves
/// pass through is rebuilt once, whatever the number below it.
fn insert_all<P>(
    link: &Link<P>,
    height: u32,
    leaves: &[(u64, Link<P>)],
) -> Result<Link<P>, SmtError> {
    let build = |leaves: &[(u64, Link<P>)]| {
        compact(height, leaves, &|| None, &|left, right| {
            Some(branch(left, right))
        })
    };
    match link.as_deref() {
        _ if leaves.is_empty() => Ok(link.clone()),
        None => Ok(build(leaves)),
        Some(Node::Leaf { index, .. }) => {
            let at = leaves.partition_point(|(new, _)| new < index);
            if leaves.get(at).is_some_and(|(new, _)| new == index) {
                return Err(SmtError::SlotOccupied(*index));
            }
            let mut all = leaves.to_vec();
            all.insert(at, (*index, link.clone()));
            Ok(build(&all))
        }
        Some(Node::Branch { left, right, .. }) => {
            let (to_left, to_right) = leaves.split_at(left_half(leaves, height));
            Ok(Some(branch(
                insert_all(left, height - 1, to_left)?,
                insert_all(right, height - 1, to_right)?,
            )))
        }
    }
}

/// The opening of the subtree at `link` along the walks to `indices`
/// (distinct, ascending, all below it): no hashing, every hash it
/// carries is one a node already holds.
fn open<P>(link: &Link<P>, height: u32, indices: &[u64]) -> Opened {
    match link.as_deref() {
        _ if indices.is_empty() => Opened::Hash(link_hash(link)),
        None => Opened::Empty,
        Some(Node::Leaf { index, value, .. }) => Opened::Leaf {
            index: *index,
            value: *value,
        },
        Some(Node::Branch { left, right, .. }) => {
            let half = indices.partition_point(|index| !bit(*index, height - 1));
            let (to_left, to_right) = indices.split_at(half);
            Opened::Interior(
                Box::new(open(left, height - 1, to_left)),
                Box::new(open(right, height - 1, to_right)),
            )
        }
    }
}

/// The subtree of `height` at `link` with slot `index` cleared, and the
/// value that was there.
fn remove_at<P>(link: &Link<P>, height: u32, index: u64) -> Result<(Link<P>, Fp), SmtError> {
    match link.as_deref() {
        Some(Node::Leaf {
            index: found,
            value,
            ..
        }) if *found == index => Ok((None, *value)),
        None | Some(Node::Leaf { .. }) => Err(SmtError::SlotEmpty(index)),
        Some(Node::Branch { left, right, .. }) => {
            let (left, right, value) = if bit(index, height - 1) {
                let (right, value) = remove_at(right, height - 1, index)?;
                (left.clone(), right, value)
            } else {
                let (left, value) = remove_at(left, height - 1, index)?;
                (left, right.clone(), value)
            };
            // A now-lone leaf floats up: its hash does not depend on
            // where it sits.
            let subtree = match (left, right) {
                (None, lone) | (lone, None)
                    if matches!(lone.as_deref(), None | Some(Node::Leaf { .. })) =>
                {
                    lone
                }
                (left, right) => Some(branch(left, right)),
            };
            Ok((subtree, value))
        }
    }
}

/// A compact, persistent sparse Merkle tree of fixed depth whose leaves
/// carry a payload `P` beside their field element (see the module docs).
/// [`SparseMerkleTree`] is the payload-free instance.
#[derive(Debug)]
pub struct Smt<P = ()> {
    depth: u32,
    len: usize,
    root: Link<P>,
}

/// A sparse Merkle tree of field elements.
///
/// # Examples
///
/// ```
/// use zendoo_primitives::field::Fp;
/// use zendoo_primitives::smt::SparseMerkleTree;
///
/// let mut tree = SparseMerkleTree::new(3);
/// tree.insert(4, Fp::from_u64(77)).unwrap();
/// let before = tree.clone(); // a root handle, not a copy
/// tree.insert(6, Fp::from_u64(78)).unwrap();
/// let proof = tree.proof(4);
/// assert!(proof.verify_occupied(&tree.root(), &Fp::from_u64(77)));
/// assert!(tree.proof(5).verify_empty(&tree.root()));
/// assert!(before.proof(6).verify_empty(&before.root()));
/// ```
pub type SparseMerkleTree = Smt<()>;

impl<P> Clone for Smt<P> {
    /// A second handle on the same nodes: O(1), no leaf is copied.
    fn clone(&self) -> Self {
        Smt {
            depth: self.depth,
            len: self.len,
            root: self.root.clone(),
        }
    }
}

impl<P> Smt<P> {
    /// Maximum supported depth (indices are `u64`).
    pub const MAX_DEPTH: u32 = MAX_DEPTH;

    /// Creates an empty tree with `2^depth` slots.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds [`Self::MAX_DEPTH`].
    pub fn new(depth: u32) -> Self {
        assert!(
            (1..=MAX_DEPTH).contains(&depth),
            "depth must be in 1..={MAX_DEPTH}"
        );
        Smt {
            depth,
            len: 0,
            root: None,
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
        self.len
    }

    /// Returns `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current root.
    pub fn root(&self) -> Fp {
        link_hash(&self.root)
    }

    /// The leaf node of slot `index`, if occupied.
    fn find(&self, index: u64) -> Option<(Fp, &P)> {
        let (mut link, mut height) = (&self.root, self.depth);
        loop {
            match link.as_deref()? {
                Node::Leaf {
                    index: found,
                    value,
                    payload,
                    ..
                } => return (*found == index).then_some((*value, payload)),
                Node::Branch { left, right, .. } => {
                    height -= 1;
                    link = if bit(index, height) { right } else { left };
                }
            }
        }
    }

    /// The leaf at `index`, if occupied.
    pub fn get(&self, index: u64) -> Option<Fp> {
        self.find(index).map(|(value, _)| value)
    }

    /// The payload stored with the leaf at `index`, if occupied.
    pub fn payload(&self, index: u64) -> Option<&P> {
        self.find(index).map(|(_, payload)| payload)
    }

    /// Returns `true` if `index` holds a leaf.
    pub fn is_occupied(&self, index: u64) -> bool {
        self.find(index).is_some()
    }

    /// Walks the occupied slots in index order:
    /// `(index, leaf, payload)`.
    pub fn iter(&self) -> Iter<'_, P> {
        Iter {
            stack: self.root.as_deref().into_iter().collect(),
        }
    }

    /// Occupies the empty slot at `index` with `leaf` and its `payload`.
    ///
    /// # Errors
    ///
    /// [`SmtError::SlotOccupied`] if the slot already holds a value
    /// (the MST collision case of §5.3.2), or
    /// [`SmtError::IndexOutOfRange`] for indices beyond capacity. The
    /// tree is unchanged on error.
    pub fn insert_with(&mut self, index: u64, leaf: Fp, payload: P) -> Result<(), SmtError> {
        self.insert_many(vec![(index, leaf, payload)])
    }

    /// Occupies every slot of `leaves` — `(index, leaf, payload)`, in any
    /// order — in one write: the tree sequential
    /// [`Smt::insert_with`]s reach, with each branch the new leaves
    /// touch hashed once instead of once per leaf below it.
    ///
    /// # Errors
    ///
    /// As [`Smt::insert_with`] for any of the slots; a slot named twice
    /// is [`SmtError::SlotOccupied`], as its second insertion would be.
    /// All or nothing: the tree is unchanged on error.
    pub fn insert_many(&mut self, mut leaves: Vec<(u64, Fp, P)>) -> Result<(), SmtError> {
        leaves.sort_unstable_by_key(|(index, _, _)| *index);
        for (at, (index, _, _)) in leaves.iter().enumerate() {
            self.check_range(*index)?;
            if at > 0 && leaves[at - 1].0 == *index {
                return Err(SmtError::SlotOccupied(*index));
            }
        }
        let count = leaves.len();
        let nodes: Vec<(u64, Link<P>)> = leaves
            .into_iter()
            .map(|(index, value, payload)| {
                let hash = leaf_hash(index, &value);
                let leaf = Node::Leaf {
                    index,
                    value,
                    hash,
                    payload,
                };
                (index, Some(Arc::new(leaf)))
            })
            .collect();
        self.root = insert_all(&self.root, self.depth, &nodes)?;
        self.len += count;
        Ok(())
    }

    /// Clears the occupied slot at `index`, returning the removed leaf.
    ///
    /// # Errors
    ///
    /// [`SmtError::SlotEmpty`] if the slot holds no value.
    pub fn remove(&mut self, index: u64) -> Result<Fp, SmtError> {
        self.check_range(index)?;
        let (root, value) = remove_at(&self.root, self.depth, index)?;
        self.root = root;
        self.len -= 1;
        Ok(value)
    }

    /// Produces a (membership or absence) proof for slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range; use [`Smt::capacity`] to
    /// validate first when handling untrusted input.
    pub fn proof(&self, index: u64) -> SmtProof {
        self.proof_with_sibling(index).0
    }

    /// [`Smt::proof`] plus the opening of the path's deepest sibling
    /// (`None` when the path has no sibling) — what a *removal* of
    /// `index` must witness, see [`SmtProof::roots_of_update`].
    ///
    /// # Panics
    ///
    /// As [`Smt::proof`].
    pub fn proof_with_sibling(&self, index: u64) -> (SmtProof, Option<NodeOpening>) {
        assert!(
            index < self.capacity(),
            "index {index} out of range for depth {}",
            self.depth
        );
        let (mut link, mut height) = (&self.root, self.depth);
        let mut siblings = Vec::new();
        let mut deepest = None;
        let ending = loop {
            match link.as_deref() {
                None => break Ending::Empty,
                Some(Node::Leaf { index, value, .. }) => {
                    break Ending::Leaf {
                        index: *index,
                        value: *value,
                    }
                }
                Some(Node::Branch { left, right, .. }) => {
                    height -= 1;
                    let (on, off) = if bit(index, height) {
                        (right, left)
                    } else {
                        (left, right)
                    };
                    siblings.push(link_hash(off));
                    deepest = off.as_deref();
                    link = on;
                }
            }
        };
        siblings.reverse();
        let proof = SmtProof {
            index,
            depth: self.depth,
            siblings,
            ending,
        };
        (proof, deepest.map(Node::opening))
    }

    /// The union of the walks from the root to the slots `indices` (in
    /// any order, repeats allowed): every node a walk passes through
    /// opened, each walk opened down to where it ends — an empty subtree
    /// or a lone leaf — and every subtree no walk enters kept as its
    /// hash. What a batch of insertions into those slots must witness,
    /// see [`SmtOpening::roots_of_inserts`]. Building it does no hashing.
    ///
    /// # Panics
    ///
    /// As [`Smt::proof`], for any of the indices.
    pub fn opening(&self, indices: &[u64]) -> SmtOpening {
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(last) = sorted.last() {
            assert!(
                *last < self.capacity(),
                "index {last} out of range for depth {}",
                self.depth
            );
        }
        SmtOpening {
            depth: self.depth,
            root: open(&self.root, self.depth, &sorted),
        }
    }

    /// Nodes of this tree that `other` does not share (same node, same
    /// place): what this handle alone keeps alive beside `other`.
    pub fn unshared_nodes(&self, other: &Self) -> usize {
        fn count<P>(a: &Link<P>, b: &Link<P>) -> usize {
            let Some(a) = a else { return 0 };
            if b.as_ref().is_some_and(|b| Arc::ptr_eq(a, b)) {
                return 0;
            }
            match (&**a, b.as_deref()) {
                (Node::Leaf { .. }, _) => 1,
                (
                    Node::Branch { left, right, .. },
                    Some(Node::Branch {
                        left: other_left,
                        right: other_right,
                        ..
                    }),
                ) => 1 + count(left, other_left) + count(right, other_right),
                (Node::Branch { left, right, .. }, _) => {
                    1 + count(left, &None) + count(right, &None)
                }
            }
        }
        count(&self.root, &other.root)
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
}

impl SparseMerkleTree {
    /// Occupies the empty slot at `index` with `leaf`
    /// ([`Smt::insert_with`] without a payload).
    ///
    /// # Errors
    ///
    /// As [`Smt::insert_with`].
    pub fn insert(&mut self, index: u64, leaf: Fp) -> Result<(), SmtError> {
        self.insert_with(index, leaf, ())
    }
}

/// In-order walk over a tree's occupied slots ([`Smt::iter`]).
#[derive(Debug)]
pub struct Iter<'a, P> {
    stack: Vec<&'a Node<P>>,
}

impl<'a, P> Iterator for Iter<'a, P> {
    type Item = (u64, Fp, &'a P);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stack.pop()? {
                Node::Leaf {
                    index,
                    value,
                    payload,
                    ..
                } => return Some((*index, *value, payload)),
                Node::Branch { left, right, .. } => {
                    self.stack.extend(right.as_deref());
                    self.stack.extend(left.as_deref());
                }
            }
        }
    }
}

/// What a proof's walk from the root ends in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ending {
    /// An empty subtree: every slot below it is empty.
    Empty,
    /// A subtree's only occupant: every *other* slot below it is empty.
    Leaf {
        /// The occupied slot.
        index: u64,
        /// What it holds.
        value: Fp,
    },
}

/// A node hash opened as the one kind it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeOpening {
    /// The node is a lone leaf.
    Leaf {
        /// The occupied slot.
        index: u64,
        /// What it holds.
        value: Fp,
    },
    /// The node has two children.
    Interior {
        /// Left child hash.
        left: Fp,
        /// Right child hash.
        right: Fp,
    },
}

impl NodeOpening {
    /// The hash this opening commits to.
    pub fn hash(&self) -> Fp {
        match self {
            NodeOpening::Leaf { index, value } => leaf_hash(*index, value),
            NodeOpening::Interior { left, right } => poseidon::hash2(left, right),
        }
    }
}

/// Why a witnessed update does not compute
/// ([`SmtProof::roots_of_update`], [`SmtOpening::roots_of_inserts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessError {
    /// The witness is not one of its tree: more siblings (or opened
    /// levels) than the tree has, an index beyond capacity, or an ending
    /// leaf outside the walked prefix.
    Malformed,
    /// An insertion into an occupied slot (or twice into one slot) or a
    /// removal from an empty one.
    WrongOccupancy,
    /// A removal whose deepest sibling is unopened, opened where there is
    /// none, or opened as something that does not hash to it.
    SiblingOpening,
    /// A walk to a slot the witness speaks about ends in a subtree it
    /// gives only as a hash.
    Unopened,
}

/// A proof for one slot of an [`Smt`]: the siblings of the walk from the
/// root towards the slot — at most `depth` of them — and what the walk
/// ends in. It proves membership when it ends in the slot's own leaf and
/// absence when it ends in an empty subtree or in another slot's leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmtProof {
    index: u64,
    depth: u32,
    siblings: Vec<Fp>,
    ending: Ending,
}

impl SmtProof {
    /// Constructs a proof from raw parts (used by serialization layers;
    /// nothing about the parts is trusted until a root is checked).
    pub fn from_parts(index: u64, depth: u32, siblings: Vec<Fp>, ending: Ending) -> Self {
        SmtProof {
            index,
            depth,
            siblings,
            ending,
        }
    }

    /// The slot index the proof speaks about.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The depth of the tree the proof claims to be of. It fixes which
    /// index bits the siblings stand for, so a verifier that knows its
    /// tree's depth must compare.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The sibling path, deepest first.
    pub fn siblings(&self) -> &[Fp] {
        &self.siblings
    }

    /// What the walk ends in.
    pub fn ending(&self) -> Ending {
        self.ending
    }

    /// What the proof says the slot holds (`None` = empty).
    pub fn value(&self) -> Option<Fp> {
        match self.ending {
            Ending::Leaf { index, value } if index == self.index => Some(value),
            _ => None,
        }
    }

    /// Verifies that slot `index` holds exactly `leaf` under `root`.
    pub fn verify_occupied(&self, root: &Fp, leaf: &Fp) -> bool {
        self.value() == Some(*leaf) && self.root() == Some(*root)
    }

    /// Verifies that slot `index` is empty under `root`.
    pub fn verify_empty(&self, root: &Fp) -> bool {
        self.value().is_none() && self.root() == Some(*root)
    }

    /// The root the proof implies; `None` for a path that is not one of
    /// a tree of its depth ([`WitnessError::Malformed`]).
    pub fn root(&self) -> Option<Fp> {
        let (_, found) = self.walk_end()?;
        Some(self.fold(0, found))
    }

    /// Height and hash of the subtree the walk ends in.
    fn walk_end(&self) -> Option<(u32, Fp)> {
        let walked = u32::try_from(self.siblings.len()).ok()?;
        if !(1..=MAX_DEPTH).contains(&self.depth)
            || walked > self.depth
            || self.index >> self.depth != 0
        {
            return None;
        }
        let height = self.depth - walked;
        match self.ending {
            Ending::Empty => Some((height, empty_hash())),
            // The leaf must lie below the node the walk reached, or it
            // says nothing about this slot.
            Ending::Leaf { index, value } => (index >> height == self.index >> height)
                .then(|| (height, leaf_hash(index, &value))),
        }
    }

    /// Folds `siblings[from..]` over `acc`, the hash of the node beside
    /// `siblings[from]`.
    fn fold(&self, from: usize, acc: Fp) -> Fp {
        let base = self.depth as usize - self.siblings.len();
        self.siblings
            .iter()
            .enumerate()
            .skip(from)
            .fold(acc, |acc, (i, sibling)| {
                join(bit(self.index, (base + i) as u32), &acc, sibling)
            })
    }

    /// Recomputes, from the witness alone, the root before and the
    /// *canonical* root after writing `new` (`None` = clear) into the
    /// proof's slot.
    ///
    /// An insertion beside a lone leaf pushes both down to the first bit
    /// where their indices differ. A removal must say what its deepest
    /// sibling is (`sibling`, from [`Smt::proof_with_sibling`]): a leaf
    /// floats up through the empty siblings above it, an interior node
    /// stays put — and since the opening must hash to the witnessed
    /// sibling, the prover has no say in which.
    ///
    /// # Errors
    ///
    /// [`WitnessError`]; the caller still has to compare the first root
    /// with the one it holds.
    pub fn roots_of_update(
        &self,
        new: Option<&Fp>,
        sibling: Option<&NodeOpening>,
    ) -> Result<(Fp, Fp), WitnessError> {
        let (height, found) = self.walk_end().ok_or(WitnessError::Malformed)?;
        let before = self.fold(0, found);
        let after = match (new, self.value()) {
            (Some(value), None) => {
                let leaf = leaf_hash(self.index, value);
                let subtree = match self.ending {
                    Ending::Empty => leaf,
                    Ending::Leaf { index: other, .. } => {
                        let split = u64::BITS - 1 - (other ^ self.index).leading_zeros();
                        let pair = join(bit(self.index, split), &leaf, &found);
                        (split + 1..height).fold(pair, |acc, level| {
                            join(bit(self.index, level), &acc, &empty_hash())
                        })
                    }
                };
                self.fold(0, subtree)
            }
            (None, Some(_)) => match (self.siblings.first(), sibling) {
                (None, None) => empty_hash(),
                (Some(deepest), Some(opening)) if opening.hash() == *deepest => match opening {
                    NodeOpening::Interior { .. } => self.fold(0, empty_hash()),
                    NodeOpening::Leaf { .. } => {
                        let empty = empty_hash();
                        let stop = self.siblings[1..]
                            .iter()
                            .position(|sibling| *sibling != empty)
                            .map_or(self.siblings.len(), |at| at + 1);
                        self.fold(stop, *deepest)
                    }
                },
                _ => return Err(WitnessError::SiblingOpening),
            },
            _ => return Err(WitnessError::WrongOccupancy),
        };
        Ok((before, after))
    }
}

/// One node of an [`SmtOpening`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum Opened {
    /// A subtree no walk enters, by its hash.
    Hash(Fp),
    /// A walk ends here, in a subtree with no occupant.
    Empty,
    /// A walk ends here, in a subtree whose only occupant this is.
    Leaf { index: u64, value: Fp },
    /// A node walks pass through, by its two children.
    Interior(Box<Opened>, Box<Opened>),
}

/// The union of the walks from an [`Smt`]'s root to a set of slots
/// ([`Smt::opening`]): each node on a walk opened, each walk down to the
/// empty subtree or lone leaf it ends in, every other subtree a hash.
/// The multi-slot twin of [`SmtProof`]: a node that several walks share
/// is in it — and is hashed by its verifier — once.
///
/// Nothing in it is trusted until the first root of
/// [`SmtOpening::roots_of_inserts`] is compared with a root the verifier
/// holds; what [`SmtOpening::occupant`] reports is true under that root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmtOpening {
    depth: u32,
    root: Opened,
}

impl SmtOpening {
    /// The depth of the tree the opening claims to be of (as
    /// [`SmtProof::depth`]: a verifier that knows its tree's depth must
    /// compare).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Interior nodes the walks pass through: the hashes, beyond the
    /// leaves the walks end in, that recomputing the root costs.
    pub fn opened_nodes(&self) -> usize {
        fn count(node: &Opened) -> usize {
            match node {
                Opened::Interior(left, right) => 1 + count(left) + count(right),
                _ => 0,
            }
        }
        count(&self.root)
    }

    /// What slot `index` holds under the opening (`None` = empty).
    ///
    /// # Errors
    ///
    /// [`WitnessError::Unopened`] if the walk to `index` ends in a
    /// subtree given as a hash; [`WitnessError::Malformed`] for an index
    /// beyond capacity or a walk that is not one of its tree.
    pub fn occupant(&self, index: u64) -> Result<Option<Fp>, WitnessError> {
        self.check_range(index)?;
        let (mut node, mut height) = (&self.root, self.depth);
        loop {
            match node {
                Opened::Hash(_) => return Err(WitnessError::Unopened),
                Opened::Empty => return Ok(None),
                Opened::Leaf {
                    index: found,
                    value,
                } if found >> height == index >> height => {
                    return Ok((*found == index).then_some(*value))
                }
                Opened::Interior(left, right) if height > 0 => {
                    height -= 1;
                    node = if bit(index, height) { right } else { left };
                }
                _ => return Err(WitnessError::Malformed),
            }
        }
    }

    /// Recomputes, from the witness alone, the root before and the
    /// *canonical* root after inserting `inserts` — `(index, leaf)`, in
    /// any order — into empty slots the opening reaches: each subtree
    /// that receives leaves is rebuilt from the set of its occupants by
    /// the push-down rule of [`SmtProof::roots_of_update`], each opened
    /// node is hashed once for each root, and an empty batch costs
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`WitnessError::Unopened`] if an insert's walk ends in a hash,
    /// [`WitnessError::WrongOccupancy`] for an occupied slot or one named
    /// twice, [`WitnessError::Malformed`] for an opening or index that is
    /// not one of a tree of its depth. The caller still has to compare
    /// the first root with the one it holds.
    pub fn roots_of_inserts(&self, inserts: &[(u64, Fp)]) -> Result<(Fp, Fp), WitnessError> {
        let mut leaves = Vec::with_capacity(inserts.len());
        for (index, value) in inserts {
            self.check_range(*index)?;
            leaves.push((*index, *value));
        }
        leaves.sort_unstable_by_key(|(index, _)| *index);
        if leaves.windows(2).any(|pair| pair[0].0 == pair[1].0) {
            return Err(WitnessError::WrongOccupancy);
        }
        for (index, leaf) in &mut leaves {
            *leaf = leaf_hash(*index, leaf);
        }
        roots_at(&self.root, self.depth, 0, &leaves)
    }

    fn check_range(&self, index: u64) -> Result<(), WitnessError> {
        if (1..=MAX_DEPTH).contains(&self.depth) && index >> self.depth == 0 {
            Ok(())
        } else {
            Err(WitnessError::Malformed)
        }
    }
}

/// [`SmtOpening::roots_of_inserts`] below `node`, the node of `height`
/// whose slots start with `prefix`; `leaves` are the hashed inserts below
/// it, distinct and ascending.
fn roots_at(
    node: &Opened,
    height: u32,
    prefix: u64,
    leaves: &[(u64, Fp)],
) -> Result<(Fp, Fp), WitnessError> {
    let rebuilt = |leaves: &[(u64, Fp)]| {
        compact(height, leaves, &empty_hash, &|left, right| {
            poseidon::hash2(&left, &right)
        })
    };
    match node {
        Opened::Hash(hash) if leaves.is_empty() => Ok((*hash, *hash)),
        Opened::Hash(_) => Err(WitnessError::Unopened),
        Opened::Empty => Ok((empty_hash(), rebuilt(leaves))),
        Opened::Leaf { index, value } if index >> height == prefix => {
            let found = leaf_hash(*index, value);
            let at = leaves.partition_point(|(new, _)| new < index);
            if leaves.get(at).is_some_and(|(new, _)| new == index) {
                return Err(WitnessError::WrongOccupancy);
            }
            let mut all = leaves.to_vec();
            all.insert(at, (*index, found));
            Ok((found, rebuilt(&all)))
        }
        Opened::Interior(left, right) if height > 0 => {
            let (to_left, to_right) = leaves.split_at(left_half(leaves, height));
            let (left_before, left_after) = roots_at(left, height - 1, prefix << 1, to_left)?;
            let (right_before, right_after) =
                roots_at(right, height - 1, (prefix << 1) | 1, to_right)?;
            let before = poseidon::hash2(&left_before, &right_before);
            let after = if leaves.is_empty() {
                before
            } else {
                poseidon::hash2(&left_after, &right_after)
            };
            Ok((before, after))
        }
        Opened::Leaf { .. } | Opened::Interior(..) => Err(WitnessError::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn fp(v: u64) -> Fp {
        Fp::from_u64(v)
    }

    fn tree_of(depth: u32, entries: &[(u64, u64)]) -> SparseMerkleTree {
        let mut tree = SparseMerkleTree::new(depth);
        for (index, value) in entries {
            tree.insert(*index, fp(*value)).unwrap();
        }
        tree
    }

    /// The definition, read off the module docs: slow, recursive, no
    /// sharing, no state.
    fn reference_root(entries: &BTreeMap<u64, Fp>, depth: u32) -> Fp {
        fn subtree(entries: &[(u64, Fp)], height: u32) -> Fp {
            match entries {
                [] => empty_hash(),
                [(index, value)] => leaf_hash(*index, value),
                _ => {
                    let half = entries.partition_point(|(index, _)| !bit(*index, height - 1));
                    poseidon::hash2(
                        &subtree(&entries[..half], height - 1),
                        &subtree(&entries[half..], height - 1),
                    )
                }
            }
        }
        let sorted: Vec<(u64, Fp)> = entries.iter().map(|(i, v)| (*i, *v)).collect();
        subtree(&sorted, depth)
    }

    fn node_count<P>(tree: &Smt<P>) -> usize {
        tree.unshared_nodes(&Smt::new(tree.depth()))
    }

    #[test]
    fn the_root_is_a_function_of_the_occupants_alone() {
        // Not of the depth (a lone leaf hashes where it sits) …
        assert_eq!(SparseMerkleTree::new(3).root(), empty_hash());
        assert_eq!(SparseMerkleTree::new(40).root(), empty_hash());
        assert_eq!(tree_of(3, &[(5, 9)]).root(), leaf_hash(5, &fp(9)));
        assert_eq!(tree_of(40, &[(5, 9)]).root(), leaf_hash(5, &fp(9)));
        // … nor of the insertion order.
        let entries = [(1u64, 10u64), (33, 20), (7, 30), (62, 40), (63, 50)];
        let mut reversed = entries;
        reversed.reverse();
        assert_eq!(tree_of(6, &entries).root(), tree_of(6, &reversed).root());
        // The three kinds of hash are told apart.
        assert_ne!(leaf_hash(1, &fp(2)), poseidon::hash2(&fp(1), &fp(2)));
        assert_ne!(leaf_hash(1, &fp(2)), poseidon::hash_many(&[fp(1), fp(2)]));
    }

    #[test]
    fn insert_changes_root_and_remove_restores_it() {
        let mut tree = SparseMerkleTree::new(4);
        tree.insert(5, fp(42)).unwrap();
        assert_ne!(tree.root(), empty_hash());
        assert_eq!(tree.remove(5).unwrap(), fp(42));
        assert_eq!(tree.root(), empty_hash());
        assert_eq!(node_count(&tree), 0);
        assert!(tree.is_empty());
    }

    #[test]
    fn double_insert_rejected_and_leaves_the_tree_alone() {
        let mut tree = tree_of(4, &[(3, 1), (9, 5)]);
        let root = tree.root();
        assert_eq!(tree.insert(3, fp(2)), Err(SmtError::SlotOccupied(3)));
        assert_eq!((tree.root(), tree.len()), (root, 2));
    }

    #[test]
    fn remove_empty_rejected() {
        let mut tree = tree_of(4, &[(2, 1)]);
        assert_eq!(tree.remove(3), Err(SmtError::SlotEmpty(3)));
        assert_eq!(
            SparseMerkleTree::new(4).remove(3),
            Err(SmtError::SlotEmpty(3))
        );
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut tree = SparseMerkleTree::new(3);
        assert!(matches!(
            tree.insert(8, Fp::ZERO),
            Err(SmtError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            tree.remove(8),
            Err(SmtError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn membership_and_absence_proofs() {
        let tree = tree_of(5, &[(7, 700), (19, 1900)]);
        let root = tree.root();

        let p7 = tree.proof(7);
        assert!(p7.verify_occupied(&root, &fp(700)));
        assert!(!p7.verify_occupied(&root, &fp(701)));
        assert!(!p7.verify_empty(&root));
        // One sibling: the two leaves part at the top bit.
        assert_eq!(p7.siblings(), &[leaf_hash(19, &fp(1900))]);

        // Slot 8 lies below slot 7's lone leaf: absent because the
        // subtree's only occupant is someone else.
        let p8 = tree.proof(8);
        assert_eq!(
            p8.ending(),
            Ending::Leaf {
                index: 7,
                value: fp(700)
            }
        );
        assert!(p8.verify_empty(&root));
        assert!(!p8.verify_occupied(&root, &fp(700)));
    }

    #[test]
    fn proof_invalidated_by_updates() {
        let mut tree = tree_of(4, &[(2, 5)]);
        let stale = tree.proof(2);
        let old_root = tree.root();
        tree.insert(9, fp(6)).unwrap();
        assert!(!stale.verify_occupied(&tree.root(), &fp(5)));
        assert!(stale.verify_occupied(&old_root, &fp(5)));
    }

    #[test]
    fn matches_paper_figure9_occupancy() {
        // Fig 9: depth 3, slots 0/4/6 occupied (1-indexed in the figure as
        // utxo1..3 at leaves 1, 5, 7 of 8 — we use 0-based 0, 4, 6).
        let tree = tree_of(3, &[(0, 1), (4, 2), (6, 3)]);
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.capacity(), 8);
        for i in [1u64, 2, 3, 5, 7] {
            assert!(tree.proof(i).verify_empty(&tree.root()));
        }
        let in_order: Vec<u64> = tree.iter().map(|(index, _, _)| index).collect();
        assert_eq!(in_order, [0, 4, 6]);
        // Same map and statements as the figure, another hash shape:
        // slot 0 is alone in its half, so it is hashed there.
        let right = poseidon::hash2(&leaf_hash(4, &fp(2)), &leaf_hash(6, &fp(3)));
        assert_eq!(tree.root(), poseidon::hash2(&leaf_hash(0, &fp(1)), &right));
    }

    // Regenerated for the compact definition (this PR changed it on
    // purpose): an empty tree is `H(Null)` and a lone leaf is `H_leaf`
    // at every depth, so what is pinned is those two constants and one
    // two-leaf tree per depth.
    #[test]
    fn known_answer_roots() {
        assert_eq!(
            empty_hash(),
            Fp::from_hex("afc43e46949c6cb15e8ff3930f57d94a4cee8ed0e0538547c0fdb07cd9b55e84")
        );
        assert_eq!(
            leaf_hash(0x12_3456_789a, &fp(77)),
            Fp::from_hex("3d4ec6aecd92b39851cbe6a2a4cf865993b54988c09aafce11820fdab4b3af4a")
        );
        for (depth, expected) in [
            (
                40,
                "4804054c700d7b222820987017f4e4e6795426a1ee2ed60e575953f541a89413",
            ),
            (
                48,
                "9a1af8d822b725aaf4d7846cc9d8a5db8b640eb8a6db03be10c209046cf9779f",
            ),
            (
                63,
                "ef97af227a14df053e3887f8fbb09071a2c23608a03d967496063a142e98b306",
            ),
        ] {
            let tree = tree_of(depth, &[(0x12_3456_789a, 77), (5, 78)]);
            assert_eq!(tree.root(), Fp::from_hex(expected), "depth {depth}");
        }
    }

    #[test]
    fn membership_proof_never_proves_emptiness() {
        for x in [Fp::ZERO, fp(1), fp(700), empty_hash()] {
            let mut tree = SparseMerkleTree::new(5);
            tree.insert(7, x).unwrap();
            tree.insert(9, fp(3)).unwrap();
            let proof = tree.proof(7);
            assert!(proof.verify_occupied(&tree.root(), &x));
            assert!(!proof.verify_empty(&tree.root()));
        }
    }

    /// Every way of bending a valid proof the verifier must refuse.
    #[test]
    fn tampered_proofs_are_refused() {
        let tree = tree_of(6, &[(5, 50), (7, 70), (40, 400)]);
        let root = tree.root();
        let member = tree.proof(5);
        assert!(member.verify_occupied(&root, &fp(50)));
        let with = |index: u64, siblings: Vec<Fp>, ending: Ending| {
            SmtProof::from_parts(index, 6, siblings, ending)
        };
        let siblings = member.siblings().to_vec();

        // A flipped sibling.
        let mut flipped = siblings.clone();
        flipped[0] = fp(1);
        assert!(!with(5, flipped, member.ending()).verify_occupied(&root, &fp(50)));
        // The wrong ending: slot 5 passed off as empty, or as holding
        // something else.
        assert!(!with(5, siblings.clone(), Ending::Empty).verify_empty(&root));
        let other = Ending::Leaf {
            index: 5,
            value: fp(51),
        };
        assert!(!with(5, siblings.clone(), other).verify_occupied(&root, &fp(51)));
        // The leaf must bind its index: slot 7 is occupied, and its
        // neighbour's (genuine) path and leaf do not prove otherwise.
        let neighbour = with(7, siblings.clone(), member.ending());
        assert_eq!(neighbour.root(), None, "leaf 5 is not below slot 7's walk");
        assert!(!neighbour.verify_empty(&root));
        // Nor does a leaf cut loose from the index it hashes.
        let unbound = Ending::Leaf {
            index: 4,
            value: fp(50),
        };
        assert!(!with(4, siblings.clone(), unbound).verify_occupied(&root, &fp(50)));
        // An over-long path, an index beyond capacity, another depth.
        let mut long = siblings.clone();
        long.resize(7, empty_hash());
        assert_eq!(with(5, long, member.ending()).root(), None);
        assert_eq!(with(64 + 5, siblings.clone(), member.ending()).root(), None);
        let deeper = SmtProof::from_parts(5, 7, siblings, member.ending());
        assert!(!deeper.verify_occupied(&root, &fp(50)));
    }

    #[test]
    fn update_witnesses_refuse_the_wrong_sibling_kind() {
        // 5 and 7 share a parent two levels down; 40 is across the root.
        let mut tree = tree_of(6, &[(5, 50), (7, 70), (40, 400)]);
        let before = tree.root();
        let (proof, sibling) = tree.proof_with_sibling(5);
        let sibling = sibling.expect("slot 7's leaf is beside");
        assert_eq!(
            sibling,
            NodeOpening::Leaf {
                index: 7,
                value: fp(70)
            }
        );
        tree.remove(5).unwrap();
        assert_eq!(
            proof.roots_of_update(None, Some(&sibling)),
            Ok((before, tree.root()))
        );
        // Slot 7 floated up beside slot 40: leaving it where it was is a
        // different, non-canonical root, and the witness cannot get there.
        let stayed = proof.fold(0, empty_hash());
        assert_ne!(stayed, tree.root());
        let swapped = NodeOpening::Interior {
            left: fp(1),
            right: fp(2),
        };
        for bad in [None, Some(&swapped)] {
            assert_eq!(
                proof.roots_of_update(None, bad),
                Err(WitnessError::SiblingOpening)
            );
        }
        // The other way round: an interior sibling opened as a leaf.
        let (proof, sibling) = tree.proof_with_sibling(40);
        assert!(matches!(sibling, Some(NodeOpening::Leaf { .. })));
        tree.insert(5, fp(50)).unwrap();
        let (proof_interior, sibling) = tree.proof_with_sibling(40);
        assert!(matches!(sibling, Some(NodeOpening::Interior { .. })));
        let as_leaf = NodeOpening::Leaf {
            index: 7,
            value: fp(70),
        };
        assert_eq!(
            proof_interior.roots_of_update(None, Some(&as_leaf)),
            Err(WitnessError::SiblingOpening)
        );
        // Occupancy: no insert over a leaf, no removal of nothing, no
        // opening where there is no sibling.
        assert_eq!(
            proof.roots_of_update(Some(&fp(1)), None),
            Err(WitnessError::WrongOccupancy)
        );
        assert_eq!(
            tree.proof(6).roots_of_update(None, None),
            Err(WitnessError::WrongOccupancy)
        );
        let lone = tree_of(6, &[(9, 90)]);
        let proof = lone.proof(9);
        assert_eq!(
            proof.roots_of_update(None, None),
            Ok((lone.root(), empty_hash()))
        );
        assert_eq!(
            proof.roots_of_update(None, Some(&as_leaf)),
            Err(WitnessError::SiblingOpening)
        );
    }

    #[test]
    fn an_old_handle_answers_as_before_and_frees_what_it_alone_held() {
        let mut tree = tree_of(40, &[(1, 10), (1 << 39, 20), (3 << 38, 30), (77, 40)]);
        let old = tree.clone();
        let (old_root, old_proof) = (old.root(), old.proof(77));
        let old_entries: Vec<_> = old.iter().map(|(i, v, _)| (i, v)).collect();
        assert_eq!(tree.unshared_nodes(&old), 0);

        tree.remove(77).unwrap();
        tree.insert(78, fp(41)).unwrap();
        tree.insert(1 << 20, fp(42)).unwrap();
        tree.remove(1 << 39).unwrap();

        assert_eq!(old.root(), old_root);
        assert_eq!(old.len(), 4);
        assert_eq!(old.get(77), Some(fp(40)));
        assert_eq!(old.get(78), None);
        assert_eq!(old.proof(77), old_proof);
        assert!(old_proof.verify_occupied(&old_root, &fp(40)));
        assert!(old.proof(78).verify_empty(&old_root));
        assert_eq!(
            old.iter().map(|(i, v, _)| (i, v)).collect::<Vec<_>>(),
            old_entries
        );
        // Slot 3 << 38 was never on a written path: one node, two owners.
        assert!(tree.unshared_nodes(&old) < node_count(&tree));

        // What only the old handle reaches dies with it; what the live
        // tree shares survives.
        let Some(Node::Branch { left, .. }) = old.root.as_deref() else {
            panic!("four leaves make a branch");
        };
        let only_old = Arc::downgrade(old.root.as_ref().unwrap());
        let only_old_below = Arc::downgrade(left.as_ref().unwrap());
        let shared = {
            let mut link = &tree.root;
            while let Some(Node::Branch { right, .. }) = link.as_deref() {
                link = right;
            }
            Arc::downgrade(link.as_ref().unwrap())
        };
        assert_eq!(shared.strong_count(), 2);
        drop(old);
        assert_eq!(only_old.strong_count(), 0);
        assert_eq!(only_old_below.strong_count(), 0);
        assert_eq!(shared.strong_count(), 1);
    }

    fn permutations<R>(f: impl FnOnce() -> R) -> (R, u64) {
        empty_hash();
        let (out, cost) = crate::opcount::measure(f);
        (out, cost.permutations)
    }

    /// The paper-shape claim (E5, after the compact definition): a write
    /// into a tree of `n` random leaves costs about log₂ n permutations,
    /// whatever the depth.
    #[test]
    fn a_write_costs_log_occupancy_not_depth() {
        const N: u64 = 1 << 10;
        const WRITES: u64 = 64;
        let raw = |i: u64| {
            let bytes = crate::sha256::sha256(&i.to_be_bytes());
            u64::from_be_bytes(bytes[..8].try_into().unwrap())
        };
        let log_n = u64::from(N.ilog2());
        let mut totals = Vec::new();
        for depth in [40u32, 63] {
            let slot = |i: u64| raw(i) >> (64 - depth);
            let mut tree = SparseMerkleTree::new(depth);
            for i in 0..N {
                tree.insert(slot(i), fp(i)).unwrap();
            }
            let mut total = 0;
            for i in N..N + WRITES {
                let (proof, _) = permutations(|| tree.proof(slot(i)));
                let (_, insert) = permutations(|| tree.insert(slot(i), fp(i)).unwrap());
                let (roots, verify) = permutations(|| proof.roots_of_update(Some(&fp(i)), None));
                assert_eq!(roots.map(|(_, after)| after), Ok(tree.root()));
                let (_, remove) = permutations(|| tree.remove(slot(i)).unwrap());
                // Random slots part within ~2 log₂ n bits: no single
                // write is far from the mean either.
                assert!(insert <= 2 * log_n + 2, "insert cost {insert}");
                assert!(remove <= insert, "remove {remove} > insert {insert}");
                assert!(verify <= 2 * insert + 1, "witness {verify} vs {insert}");
                total += insert;
            }
            assert!(
                total <= WRITES * (log_n + 3),
                "depth {depth}: {total} permutations for {WRITES} inserts beside {N} leaves"
            );
            totals.push(total);
        }
        // Depth is free: the same slots' leading bits, the same cost.
        assert_eq!(totals[0], totals[1]);
        let (_, new_tree) = permutations(|| SparseMerkleTree::new(63).root());
        assert_eq!(new_tree, 0);
    }

    /// Random insert/remove sequence at `depth`, in lock-step with the
    /// recursive reference; then everything is removed again.
    fn differential(depth: u32, ops: &[(u64, u64)]) -> Result<(), TestCaseError> {
        let mut tree = SparseMerkleTree::new(depth);
        let mut entries = BTreeMap::new();
        let mask = (1u64 << depth) - 1;
        for (raw, val) in ops {
            // Cluster the slots: neighbours that part at the last bit,
            // at the first, and in between.
            let index = ((raw & 0x7) | ((raw >> 3) << (depth - 3))) & mask;
            let leaf = fp(*val);
            let before = tree.root();
            let (proof, sibling) = tree.proof_with_sibling(index);
            prop_assert_eq!(proof.root(), Some(before));
            let witnessed = if tree.is_occupied(index) {
                prop_assert_eq!(tree.remove(index), Ok(entries[&index]));
                entries.remove(&index);
                proof.roots_of_update(None, sibling.as_ref())
            } else {
                tree.insert(index, leaf).unwrap();
                entries.insert(index, leaf);
                proof.roots_of_update(Some(&leaf), None)
            };
            let root = tree.root();
            prop_assert_eq!(root, reference_root(&entries, depth));
            prop_assert_eq!(witnessed, Ok((before, root)));
            prop_assert_eq!(tree.len(), entries.len());
            // Order independence: the same set, inserted backwards.
            let mut backwards = SparseMerkleTree::new(depth);
            for (index, leaf) in entries.iter().rev() {
                backwards.insert(*index, *leaf).unwrap();
            }
            prop_assert_eq!(backwards.root(), root);
            // Every membership proof, and absence beside each occupant.
            for (occupied, leaf) in &entries {
                let proof = tree.proof(*occupied);
                prop_assert!(proof.siblings().len() <= depth as usize);
                prop_assert!(proof.verify_occupied(&root, leaf));
                prop_assert!(!proof.verify_empty(&root));
                for probe in [occupied ^ 1, occupied ^ (1 << (depth - 1)), mask - occupied] {
                    let proof = tree.proof(probe);
                    prop_assert_eq!(proof.verify_empty(&root), !entries.contains_key(&probe));
                    prop_assert_eq!(proof.value(), entries.get(&probe).copied());
                    prop_assert_eq!(tree.get(probe), entries.get(&probe).copied());
                }
            }
            let walked: Vec<(u64, Fp)> = tree.iter().map(|(i, v, _)| (i, v)).collect();
            prop_assert_eq!(
                walked,
                entries.iter().map(|(i, v)| (*i, *v)).collect::<Vec<_>>()
            );
        }
        for index in entries.keys() {
            tree.remove(*index).unwrap();
        }
        prop_assert_eq!(tree.root(), empty_hash());
        prop_assert_eq!(node_count(&tree), 0);
        Ok(())
    }

    /// `batch` written into a tree of `initial` at `depth` in one
    /// [`Smt::insert_many`] and one insertion at a time must agree on
    /// everything a reader can ask, and the pre-tree's opening must
    /// witness the write. Slots are clustered as in [`differential`], so
    /// batches share prefixes and push down lone leaves already there.
    fn batch_against_sequential(
        depth: u32,
        initial: &[u64],
        batch: &[(u64, u64)],
    ) -> Result<(), TestCaseError> {
        let mask = (1u64 << depth) - 1;
        let slot = |raw: u64| ((raw & 0x7) | ((raw >> 3) << (depth - 3))) & mask;
        let mut tree = SparseMerkleTree::new(depth);
        for raw in initial {
            let _ = tree.insert(slot(*raw), fp(raw + 1));
        }
        let pre = tree.clone();
        let leaves: Vec<(u64, Fp)> = batch.iter().map(|(raw, v)| (slot(*raw), fp(*v))).collect();
        let indices: Vec<u64> = leaves.iter().map(|(index, _)| *index).collect();
        let opening = pre.opening(&indices);

        let mut sequential = pre.clone();
        let one_by_one = leaves
            .iter()
            .try_for_each(|(index, leaf)| sequential.insert(*index, *leaf));
        let witnessed = opening.roots_of_inserts(&leaves);
        let mut batched = pre.clone();
        let result = batched.insert_many(leaves.iter().map(|(i, v)| (*i, *v, ())).collect());
        prop_assert_eq!(result.is_ok(), one_by_one.is_ok());
        if result.is_err() {
            // All or nothing, and the witness refuses the same write.
            prop_assert_eq!((batched.root(), batched.len()), (pre.root(), pre.len()));
            prop_assert_eq!(witnessed, Err(WitnessError::WrongOccupancy));
            return Ok(());
        }
        let root = batched.root();
        prop_assert_eq!(root, sequential.root());
        prop_assert_eq!(witnessed, Ok((pre.root(), root)));
        prop_assert_eq!(batched.len(), sequential.len());
        let entries: BTreeMap<u64, Fp> = sequential.iter().map(|(i, v, _)| (i, v)).collect();
        prop_assert_eq!(root, reference_root(&entries, depth));
        prop_assert!(batched.iter().map(|(i, v, _)| (i, v)).eq(entries.clone()));
        for index in &indices {
            prop_assert_eq!(opening.occupant(*index), Ok(pre.get(*index)));
            for probe in [*index, index ^ 1, index ^ (1 << (depth - 1))] {
                prop_assert_eq!(batched.proof(probe), sequential.proof(probe));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_insert_many_equals_sequential_inserts(
            initial in proptest::collection::vec(0u64..64, 0..12),
            batch in proptest::collection::vec((0u64..64, 1u64..1_000_000), 0..12)
        ) {
            for depth in [6, 40, 63] {
                batch_against_sequential(depth, &initial, &batch)?;
            }
        }
    }

    #[test]
    fn insert_many_is_all_or_nothing() {
        let mut tree = tree_of(6, &[(5, 50), (40, 400)]);
        let (root, len) = (tree.root(), tree.len());
        for (bad, error) in [
            (vec![(7, 1), (5, 2)], SmtError::SlotOccupied(5)),
            (vec![(7, 1), (9, 2), (7, 3)], SmtError::SlotOccupied(7)),
            (
                vec![(7, 1), (64, 2)],
                SmtError::IndexOutOfRange {
                    index: 64,
                    depth: 6,
                },
            ),
        ] {
            let leaves = bad.into_iter().map(|(i, v)| (i, fp(v), ())).collect();
            assert_eq!(tree.insert_many(leaves), Err(error));
            assert_eq!((tree.root(), tree.len()), (root, len));
        }
        tree.insert_many(Vec::new()).unwrap();
        assert_eq!(tree.root(), root);
    }

    /// Every way of bending a valid opening the verifier must refuse.
    #[test]
    fn hostile_openings_are_refused() {
        // 5 and 7 share a parent two levels down; 40 is across the root.
        let tree = tree_of(6, &[(5, 50), (7, 70), (40, 400)]);
        let root = tree.root();
        let inserts = [(4, fp(4)), (33, fp(33))];
        let opening = tree.opening(&[4, 33]);
        let mut written = tree.clone();
        written
            .insert_many(inserts.iter().map(|(i, v)| (*i, *v, ())).collect())
            .unwrap();
        assert_eq!(
            opening.roots_of_inserts(&inserts),
            Ok((root, written.root()))
        );

        // A walk ending in a hash: slot 33 was not opened.
        let partial = tree.opening(&[4]);
        assert_eq!(partial.occupant(33), Err(WitnessError::Unopened));
        assert_eq!(
            partial.roots_of_inserts(&inserts),
            Err(WitnessError::Unopened)
        );
        // The same nodes read at another depth: the hashes do not say
        // which index bits they stand for, so the verifier compares
        // `depth()` with its tree's, as it does a proof's. Read anyway,
        // they do not witness this write.
        let honest = opening.roots_of_inserts(&inserts);
        for depth in [5, 7, 0, 64] {
            let other = SmtOpening {
                depth,
                ..opening.clone()
            };
            assert_ne!(other.roots_of_inserts(&inserts), honest, "depth {depth}");
        }
        // A tampered off-walk hash: another before-root.
        let mut tampered = opening.clone();
        let Opened::Interior(left, _) = &mut tampered.root else {
            panic!("three leaves open an interior root");
        };
        **left = Opened::Hash(fp(1));
        let (before, _) = tampered.roots_of_inserts(&[(33, fp(33))]).unwrap();
        assert_ne!(before, root);
        // A slot named twice, and a slot that is occupied.
        assert_eq!(
            opening.roots_of_inserts(&[(4, fp(4)), (4, fp(5))]),
            Err(WitnessError::WrongOccupancy)
        );
        let occupied = tree.opening(&[5]);
        assert_eq!(occupied.occupant(5), Ok(Some(fp(50))));
        assert_eq!(
            occupied.roots_of_inserts(&[(5, fp(1))]),
            Err(WitnessError::WrongOccupancy)
        );
        // The occupied slot claimed empty: its walk ends in `Empty` or in
        // a neighbouring slot's leaf alone. Either way the opening now agrees
        // to the write, and hashes to another root.
        let hide = |opening: &mut SmtOpening, with: Opened| {
            let mut node = &mut opening.root;
            while let Opened::Interior(left, right) = node {
                node = if matches!(**left, Opened::Hash(_)) {
                    right
                } else {
                    left
                };
            }
            *node = with;
        };
        for lie in [
            Opened::Empty,
            Opened::Leaf {
                index: 4,
                value: fp(50),
            },
        ] {
            let mut hidden = tree.opening(&[5]);
            hide(&mut hidden, lie);
            assert_eq!(hidden.occupant(5), Ok(None));
            let (before, _) = hidden.roots_of_inserts(&[(5, fp(1))]).unwrap();
            assert_ne!(before, root);
        }
        // A leaf outside the node it ends in, and an interior node below
        // the leaves: not openings of any tree.
        let mut outside = tree.opening(&[5]);
        hide(
            &mut outside,
            Opened::Leaf {
                index: 40,
                value: fp(400),
            },
        );
        assert_eq!(outside.occupant(5), Err(WitnessError::Malformed));
        assert_eq!(outside.roots_of_inserts(&[]), Err(WitnessError::Malformed));
        let too_deep = SmtOpening {
            depth: 1,
            root: Opened::Interior(
                Box::new(Opened::Interior(
                    Box::new(Opened::Empty),
                    Box::new(Opened::Empty),
                )),
                Box::new(Opened::Empty),
            ),
        };
        assert_eq!(too_deep.occupant(0), Err(WitnessError::Malformed));
        assert_eq!(too_deep.roots_of_inserts(&[]), Err(WitnessError::Malformed));
    }

    /// The batched write's cost, pinned: `insert_many` hashes each node
    /// it creates once, and its witness costs that plus the opened nodes
    /// and the leaves the walks end in. 64 writes into 2¹⁰ leaves share
    /// their top ≈ 6 levels, so the batch costs about half of 64 single
    /// writes.
    #[test]
    fn a_batch_hashes_each_touched_node_once() {
        const N: u64 = 1 << 10;
        const WRITES: u64 = 64;
        let raw = |i: u64| {
            let bytes = crate::sha256::sha256(&i.to_be_bytes());
            u64::from_be_bytes(bytes[..8].try_into().unwrap())
        };
        let slot = |i: u64| raw(i) >> (64 - 40);
        let mut tree = SparseMerkleTree::new(40);
        tree.insert_many((0..N).map(|i| (slot(i), fp(i), ())).collect())
            .unwrap();
        let leaves: Vec<(u64, Fp)> = (N..N + WRITES).map(|i| (slot(i), fp(i))).collect();
        let indices: Vec<u64> = leaves.iter().map(|(index, _)| *index).collect();

        let mut one_by_one = tree.clone();
        let (_, sequential) = permutations(|| {
            for (index, leaf) in &leaves {
                one_by_one.insert(*index, *leaf).unwrap();
            }
        });
        let (opening, open) = permutations(|| tree.opening(&indices));
        let pre = tree.clone();
        let (_, batch) = permutations(|| {
            tree.insert_many(leaves.iter().map(|(i, v)| (*i, *v, ())).collect())
                .unwrap()
        });
        let (roots, witness) = permutations(|| opening.roots_of_inserts(&leaves));

        assert_eq!(tree.root(), one_by_one.root());
        assert_eq!(roots, Ok((pre.root(), tree.root())));
        assert_eq!(open, 0, "an opening is read off the nodes");
        // The witness rebuilds what the write built, and hashes each
        // opened node and each leaf a walk ends in once more.
        let opened = opening.opened_nodes() as u64;
        assert!((batch + opened..=batch + opened + WRITES).contains(&witness));
        // ≈ 12.3 permutations a write one at a time, ≈ 6.4 in one batch.
        assert_eq!((sequential, batch, witness), (786, 410, 709));
        // An empty batch over an empty opening costs nothing at all.
        let (roots, nothing) = permutations(|| tree.opening(&[]).roots_of_inserts(&[]));
        assert_eq!((roots, nothing), (Ok((tree.root(), tree.root())), 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn prop_matches_recursive_reference(
            ops in proptest::collection::vec((0u64..64, 1u64..1_000_000), 1..20)
        ) {
            for depth in [6, 40, 63] {
                differential(depth, &ops)?;
            }
        }
    }
}
