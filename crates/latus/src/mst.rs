//! The Merkle State Tree (MST): Latus's UTXO accounting structure
//! (paper §5.2, Fig 9).
//!
//! The MST is a fixed-depth sparse Merkle tree whose leaves are UTXO
//! slots. `MST_Position(utxo)` deterministically assigns each UTXO a slot
//! independent of the current state; an occupied slot holds the Poseidon
//! leaf of its UTXO, and the tree is the compact, persistent one of
//! [`zendoo_primitives::smt`] (same map, same membership and absence
//! statements as Fig 9; a subtree with one occupant is hashed as that
//! leaf). Position collisions are possible and surface as
//! [`MstError::SlotCollision`] — the forward-transfer failure mode of
//! §5.3.2.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use zendoo_core::ids::{Address, Amount};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Encode};
use zendoo_primitives::field::Fp;
use zendoo_primitives::poseidon;
use zendoo_primitives::smt::{NodeOpening, Smt, SmtError, SmtProof};

/// An unspent output on the Latus sidechain: `(addr, amount, nonce)`
/// (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Utxo {
    /// Owner address (hash of a Schnorr public key).
    pub address: Address,
    /// Held amount.
    pub amount: Amount,
    /// Unique identifier.
    pub nonce: Digest32,
}

impl Utxo {
    /// A byte-level digest of the UTXO (nullifier preimage).
    pub fn digest(&self) -> Digest32 {
        digest("zendoo/sc-utxo", self)
    }

    /// The Poseidon leaf stored in the MST for this UTXO.
    pub fn leaf(&self) -> Fp {
        let addr = Fp::from_be_bytes_reduced(self.address.0.as_bytes());
        let amount = Fp::from_u64(self.amount.units());
        let nonce = Fp::from_be_bytes_reduced(self.nonce.as_bytes());
        poseidon::hash_many(&[addr, amount, nonce])
    }

    /// The nullifier claimed by a BTR/CSW for this UTXO
    /// (§5.5.3.2: "nullifier is the hash of the utxo").
    pub fn nullifier(&self) -> zendoo_core::ids::Nullifier {
        zendoo_core::ids::Nullifier::from_utxo_digest(&self.digest())
    }
}

impl Encode for Utxo {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.address.encode_into(out);
        self.amount.encode_into(out);
        self.nonce.encode_into(out);
    }
}

/// `MST_Position`: the deterministic, state-independent slot of a UTXO
/// in a tree of the given depth (§5.2).
pub fn mst_position(utxo: &Utxo, depth: u32) -> u64 {
    let d = Digest32::hash_tagged("zendoo/mst-position", &[utxo.digest().as_bytes()]);
    let mut first = [0u8; 8];
    first.copy_from_slice(&d.as_bytes()[..8]);
    let raw = u64::from_be_bytes(first);
    if depth >= 64 {
        raw
    } else {
        raw & ((1u64 << depth) - 1)
    }
}

/// MST operation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MstError {
    /// `MST_Position` maps the new UTXO onto an occupied slot
    /// (the FT-failure collision case, §5.3.2).
    SlotCollision {
        /// The contested position.
        position: u64,
    },
    /// The UTXO being spent is not in the tree.
    UnknownUtxo(Digest32),
    /// Internal sparse-tree error (range violations).
    Tree(SmtError),
}

impl std::fmt::Display for MstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MstError::SlotCollision { position } => {
                write!(f, "MST slot {position} already occupied")
            }
            MstError::UnknownUtxo(d) => write!(f, "utxo {d} not in MST"),
            MstError::Tree(e) => write!(f, "sparse tree error: {e}"),
        }
    }
}

impl std::error::Error for MstError {}

impl From<SmtError> for MstError {
    fn from(e: SmtError) -> Self {
        MstError::Tree(e)
    }
}

/// The Merkle State Tree: the sparse tree with each UTXO kept in its
/// leaf. `Clone` is a root handle (no UTXO is copied), so a snapshot of
/// the state or a closed epoch's tree costs one pointer.
///
/// # Examples
///
/// ```
/// use zendoo_latus::mst::{Mst, Utxo};
/// use zendoo_core::ids::{Address, Amount};
/// use zendoo_primitives::digest::Digest32;
///
/// let mut mst = Mst::new(8);
/// let utxo = Utxo {
///     address: Address::from_label("alice"),
///     amount: Amount::from_units(5),
///     nonce: Digest32::hash_bytes(b"n1"),
/// };
/// let pos = mst.add(&utxo).unwrap();
/// assert!(mst.contains(&utxo));
/// assert_eq!(mst.remove(&utxo).unwrap(), pos);
/// assert!(!mst.contains(&utxo));
/// ```
#[derive(Clone, Debug)]
pub struct Mst {
    tree: Smt<Utxo>,
}

impl Mst {
    /// Creates an empty MST of the given depth (`D_MST`).
    pub fn new(depth: u32) -> Self {
        Mst {
            tree: Smt::new(depth),
        }
    }

    /// The tree depth.
    pub fn depth(&self) -> u32 {
        self.tree.depth()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Returns `true` if no UTXO is stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The current MST root (`mst_t`).
    pub fn root(&self) -> Fp {
        self.tree.root()
    }

    /// Returns `true` if the exact UTXO is present.
    pub fn contains(&self, utxo: &Utxo) -> bool {
        self.position_of(utxo).is_some()
    }

    /// The UTXO at `position`, if occupied.
    pub fn utxo_at(&self, position: u64) -> Option<&Utxo> {
        self.tree.payload(position)
    }

    /// The Poseidon leaf at `position`, if occupied.
    pub fn leaf_at(&self, position: u64) -> Option<Fp> {
        self.tree.get(position)
    }

    /// The position of a stored UTXO: `MST_Position` is a function of
    /// the UTXO alone, so this is one slot lookup and a comparison.
    pub fn position_of(&self, utxo: &Utxo) -> Option<u64> {
        let position = mst_position(utxo, self.depth());
        (self.utxo_at(position) == Some(utxo)).then_some(position)
    }

    /// All UTXOs owned by `address`, in position order.
    pub fn owned_by(&self, address: &Address) -> Vec<(u64, Utxo)> {
        self.iter()
            .filter(|(_, utxo)| utxo.address == *address)
            .map(|(position, utxo)| (position, *utxo))
            .collect()
    }

    /// Total value held by `address`.
    pub fn balance_of(&self, address: &Address) -> Amount {
        Amount::checked_sum(
            self.iter()
                .filter(|(_, utxo)| utxo.address == *address)
                .map(|(_, utxo)| utxo.amount),
        )
        .expect("sidechain supply fits in u64")
    }

    /// Total value of all stored UTXOs.
    pub fn total_value(&self) -> Amount {
        Amount::checked_sum(self.iter().map(|(_, utxo)| utxo.amount))
            .expect("sidechain supply fits in u64")
    }

    /// Iterates over `(position, utxo)` in position order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Utxo)> {
        self.tree.iter().map(|(position, _, utxo)| (position, utxo))
    }

    /// Inserts a UTXO at its deterministic position, returning it.
    ///
    /// # Errors
    ///
    /// [`MstError::SlotCollision`] if the slot is taken.
    pub fn add(&mut self, utxo: &Utxo) -> Result<u64, MstError> {
        let position = mst_position(utxo, self.depth());
        match self.tree.insert_with(position, utxo.leaf(), *utxo) {
            Ok(()) => Ok(position),
            Err(SmtError::SlotOccupied(position)) => Err(MstError::SlotCollision { position }),
            Err(e) => Err(e.into()),
        }
    }

    /// Removes a stored UTXO, returning its position.
    ///
    /// # Errors
    ///
    /// [`MstError::UnknownUtxo`] if absent.
    pub fn remove(&mut self, utxo: &Utxo) -> Result<u64, MstError> {
        let position = self
            .position_of(utxo)
            .ok_or_else(|| MstError::UnknownUtxo(utxo.digest()))?;
        self.tree.remove(position)?;
        Ok(position)
    }

    /// Membership/absence proof for `position`.
    pub fn proof(&self, position: u64) -> SmtProof {
        self.tree.proof(position)
    }

    /// [`Mst::proof`] plus the opening of the path's deepest sibling:
    /// what spending the UTXO at `position` must witness.
    pub fn proof_with_sibling(&self, position: u64) -> (SmtProof, Option<NodeOpening>) {
        self.tree.proof_with_sibling(position)
    }

    /// Tree nodes this handle keeps alive that `other` does not share.
    pub fn unshared_nodes(&self, other: &Mst) -> usize {
        self.tree.unshared_nodes(&other.tree)
    }
}

/// The `mst_delta` bit vector of a withdrawal certificate
/// (§5.5.3.1, Appendix A): which MST leaves changed during an epoch.
///
/// Stored sparsely (set of touched positions) because production depths
/// make a dense bit vector infeasible; [`MstDelta::to_bit_string`]
/// renders the dense form for small trees (the Appendix A example).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MstDelta {
    depth: u32,
    touched: BTreeSet<u64>,
}

impl MstDelta {
    /// An empty delta for a tree of `depth`.
    pub fn new(depth: u32) -> Self {
        MstDelta {
            depth,
            touched: BTreeSet::new(),
        }
    }

    /// Records that `position` was modified.
    pub fn touch(&mut self, position: u64) {
        self.touched.insert(position);
    }

    /// Returns the bit for `position` (`true` = modified this epoch).
    pub fn bit(&self, position: u64) -> bool {
        self.touched.contains(&position)
    }

    /// Number of touched positions.
    pub fn count(&self) -> usize {
        self.touched.len()
    }

    /// The tree depth this delta describes.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Iterates over touched positions in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.touched.iter().copied()
    }

    /// Dense `0`/`1` rendering, leaf 0 first — usable only for small
    /// depths (Appendix A uses depth 3: `"11100001"`).
    ///
    /// # Panics
    ///
    /// Panics for depths above 20 (the dense form would be > 1M bits).
    pub fn to_bit_string(&self) -> String {
        assert!(self.depth <= 20, "dense rendering only for small trees");
        let capacity = 1u64 << self.depth;
        (0..capacity)
            .map(|i| if self.bit(i) { '1' } else { '0' })
            .collect()
    }

    /// Digest committed into certificate proofdata.
    pub fn digest(&self) -> Digest32 {
        let positions: Vec<u64> = self.touched.iter().copied().collect();
        digest("zendoo/mst-delta", &(self.depth, positions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn utxo(owner: &str, amount: u64, nonce: &[u8]) -> Utxo {
        Utxo {
            address: Address::from_label(owner),
            amount: Amount::from_units(amount),
            nonce: Digest32::hash_bytes(nonce),
        }
    }

    #[test]
    fn position_is_deterministic_and_state_independent() {
        let u = utxo("a", 5, b"n");
        let p1 = mst_position(&u, 8);
        let p2 = mst_position(&u, 8);
        assert_eq!(p1, p2);
        assert!(p1 < 256);
        // Different depth truncates differently but deterministically.
        assert_eq!(mst_position(&u, 4), p1 & 0xf);
    }

    #[test]
    fn add_remove_roundtrip_with_proofs() {
        let mut mst = Mst::new(10);
        let empty_root = mst.root();
        let u = utxo("alice", 7, b"n1");
        let pos = mst.add(&u).unwrap();
        assert_ne!(mst.root(), empty_root);
        let proof = mst.proof(pos);
        assert!(proof.verify_occupied(&mst.root(), &u.leaf()));
        mst.remove(&u).unwrap();
        assert_eq!(mst.root(), empty_root);
        assert!(mst.proof(pos).verify_empty(&mst.root()));
    }

    #[test]
    fn collision_detected() {
        // Find two utxos colliding at depth 4 (16 slots — birthday easily).
        let mut mst = Mst::new(4);
        let mut occupied = std::collections::HashMap::new();
        let mut found = false;
        for i in 0u64..200 {
            let u = utxo("x", 1, &i.to_be_bytes());
            let pos = mst_position(&u, 4);
            if let Some(_prev) = occupied.get(&pos) {
                mst.add(occupied_utxo(&occupied, pos)).unwrap_or(0);
                let err = mst.add(&u).unwrap_err();
                assert_eq!(err, MstError::SlotCollision { position: pos });
                found = true;
                break;
            }
            occupied.insert(pos, u);
        }
        assert!(found, "collision must occur in 200 draws over 16 slots");

        fn occupied_utxo(map: &std::collections::HashMap<u64, Utxo>, pos: u64) -> &Utxo {
            map.get(&pos).unwrap()
        }
    }

    #[test]
    fn unknown_utxo_removal_rejected() {
        let mut mst = Mst::new(8);
        let u = utxo("a", 1, b"n");
        assert!(matches!(mst.remove(&u), Err(MstError::UnknownUtxo(_))));
    }

    #[test]
    fn balances_and_ownership() {
        let mut mst = Mst::new(12);
        mst.add(&utxo("alice", 5, b"1")).unwrap();
        mst.add(&utxo("alice", 7, b"2")).unwrap();
        mst.add(&utxo("bob", 11, b"3")).unwrap();
        assert_eq!(
            mst.balance_of(&Address::from_label("alice")),
            Amount::from_units(12)
        );
        assert_eq!(mst.owned_by(&Address::from_label("alice")).len(), 2);
        assert_eq!(mst.total_value(), Amount::from_units(23));
        assert_eq!(mst.len(), 3);
    }

    #[test]
    fn leaf_binds_all_fields() {
        let base = utxo("a", 5, b"n");
        assert_ne!(base.leaf(), utxo("b", 5, b"n").leaf());
        assert_ne!(base.leaf(), utxo("a", 6, b"n").leaf());
        assert_ne!(base.leaf(), utxo("a", 5, b"m").leaf());
    }

    #[test]
    fn delta_records_touches() {
        let mut delta = MstDelta::new(3);
        delta.touch(0);
        delta.touch(1);
        delta.touch(2);
        delta.touch(7);
        assert_eq!(delta.to_bit_string(), "11100001");
        assert_eq!(delta.count(), 4);
        assert!(delta.bit(7));
        assert!(!delta.bit(3));
    }

    #[test]
    fn delta_digest_binds_positions_and_depth() {
        let mut a = MstDelta::new(3);
        a.touch(1);
        let mut b = MstDelta::new(3);
        b.touch(2);
        let mut c = MstDelta::new(4);
        c.touch(1);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn nullifier_matches_core_derivation() {
        let u = utxo("a", 5, b"n");
        assert_eq!(
            u.nullifier(),
            zendoo_core::ids::Nullifier::from_utxo_digest(&u.digest())
        );
    }
}
