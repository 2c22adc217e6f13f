//! The sidechain-transactions commitment (paper §4.1.3, Figs 4 and 12).
//!
//! Every mainchain block header carries `SCTxsCommitment`: the root of a
//! Merkle tree over per-sidechain subtrees, each committing to that
//! sidechain's forward transfers, backward transfer requests and (at most
//! one) withdrawal certificate in the block:
//!
//! ```text
//!            SCTxsCommitment
//!            /            \
//!      SC1Hash = H(TxsHash | WCertHash | SC1)   …
//!        /        \
//!   TxsHash     WCertHash
//!    /    \
//! FTHash  BTRHash
//! ```
//!
//! Sidechain nodes verify their slice of a block with a
//! [`ScMembershipProof`] (`mproof` of §5.5.1) and prove "no data for me in
//! this block" with a [`ScAbsenceProof`] (`proofOfNoData`). Absence proofs
//! work by neighbor bracketing: leaves are sorted by sidechain id and the
//! tree always contains two sentinel leaves with the minimum and maximum
//! ids, so any absent id has adjacent neighbors.

use std::collections::BTreeMap;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::merkle::{MerkleProof, MerkleTree, Sha256Hasher};

use crate::certificate::WithdrawalCertificate;
use crate::ids::SidechainId;
use crate::transfer::ForwardTransfer;
use crate::withdrawal::BackwardTransferRequest;

/// Everything one block contains for one sidechain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScBlockData {
    /// Forward transfers to this sidechain, in block order.
    pub forward_transfers: Vec<ForwardTransfer>,
    /// Backward transfer requests for this sidechain, in block order.
    pub backward_transfer_requests: Vec<BackwardTransferRequest>,
    /// The withdrawal certificate, if the block carries one
    /// (at most one per sidechain per block).
    pub certificate: Option<WithdrawalCertificate>,
}

impl ScBlockData {
    /// Returns `true` if there is nothing for this sidechain.
    pub fn is_empty(&self) -> bool {
        self.forward_transfers.is_empty()
            && self.backward_transfer_requests.is_empty()
            && self.certificate.is_none()
    }

    /// `FTHash`: root over forward-transfer leaves.
    pub fn ft_root(&self) -> Digest32 {
        let leaves: Vec<[u8; 32]> = self
            .forward_transfers
            .iter()
            .map(|ft| ft.digest().0)
            .collect();
        Digest32(MerkleTree::<Sha256Hasher>::from_leaves(leaves).root())
    }

    /// `BTRHash`: root over backward-transfer-request leaves.
    pub fn btr_root(&self) -> Digest32 {
        let leaves: Vec<[u8; 32]> = self
            .backward_transfer_requests
            .iter()
            .map(|btr| btr.digest().0)
            .collect();
        Digest32(MerkleTree::<Sha256Hasher>::from_leaves(leaves).root())
    }

    /// `TxsHash = H(FTHash ‖ BTRHash)`.
    pub fn txs_hash(&self) -> Digest32 {
        txs_hash(&self.ft_root(), &self.btr_root())
    }

    /// `WCertHash`: the certificate digest, or the no-certificate marker.
    pub fn wcert_hash(&self) -> Digest32 {
        wcert_hash(self.certificate.as_ref())
    }
}

/// `TxsHash = H(FTHash ‖ BTRHash)`.
pub fn txs_hash(ft_root: &Digest32, btr_root: &Digest32) -> Digest32 {
    Digest32::hash_tagged("zendoo/sc-txs", &[ft_root.as_bytes(), btr_root.as_bytes()])
}

/// `WCertHash` for an optional certificate.
pub fn wcert_hash(cert: Option<&WithdrawalCertificate>) -> Digest32 {
    match cert {
        Some(c) => Digest32::hash_tagged("zendoo/sc-wcert", &[c.digest().as_bytes()]),
        None => Digest32::hash_tagged("zendoo/sc-no-wcert", &[]),
    }
}

/// `SCHash = H(TxsHash ‖ WCertHash ‖ ledgerId)` — the per-sidechain leaf.
pub fn sc_leaf_hash(id: &SidechainId, txs: &Digest32, wcert: &Digest32) -> Digest32 {
    Digest32::hash_tagged(
        "zendoo/sc-leaf",
        &[txs.as_bytes(), wcert.as_bytes(), id.0.as_bytes()],
    )
}

fn sentinel_leaf(id: &SidechainId) -> (Digest32, Digest32) {
    let txs = Digest32::hash_tagged("zendoo/sc-sentinel-txs", &[]);
    let wcert = Digest32::hash_tagged("zendoo/sc-sentinel-wcert", &[id.0.as_bytes()]);
    (txs, wcert)
}

/// Accumulates a block's sidechain-related items and builds the
/// commitment tree.
///
/// # Examples
///
/// ```
/// use zendoo_core::commitment::ScTxsCommitmentBuilder;
/// use zendoo_core::ids::{Amount, SidechainId};
/// use zendoo_core::transfer::ForwardTransfer;
///
/// let mut builder = ScTxsCommitmentBuilder::new();
/// builder.add_forward_transfer(ForwardTransfer {
///     sidechain_id: SidechainId::from_label("app"),
///     receiver_metadata: vec![],
///     amount: Amount::from_units(10),
/// });
/// let commitment = builder.build();
/// let proof = commitment
///     .membership_proof(&SidechainId::from_label("app"))
///     .unwrap();
/// assert!(proof.verify(&commitment.root()));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ScTxsCommitmentBuilder {
    entries: BTreeMap<SidechainId, ScBlockData>,
}

/// Attempted to add a second certificate for the same sidechain to one
/// block ("only one WCert is allowed for each sidechain", Fig 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DuplicateCertificate(pub SidechainId);

impl std::fmt::Display for DuplicateCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block already contains a certificate for sidechain {}",
            self.0
        )
    }
}

impl std::error::Error for DuplicateCertificate {}

impl ScTxsCommitmentBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a forward transfer.
    pub fn add_forward_transfer(&mut self, ft: ForwardTransfer) -> &mut Self {
        self.entries
            .entry(ft.sidechain_id)
            .or_default()
            .forward_transfers
            .push(ft);
        self
    }

    /// Records a backward transfer request.
    pub fn add_backward_transfer_request(&mut self, btr: BackwardTransferRequest) -> &mut Self {
        self.entries
            .entry(btr.sidechain_id)
            .or_default()
            .backward_transfer_requests
            .push(btr);
        self
    }

    /// Records a withdrawal certificate.
    ///
    /// # Errors
    ///
    /// [`DuplicateCertificate`] if this block already carries one for the
    /// same sidechain.
    pub fn add_certificate(
        &mut self,
        cert: WithdrawalCertificate,
    ) -> Result<&mut Self, DuplicateCertificate> {
        let entry = self.entries.entry(cert.sidechain_id).or_default();
        if entry.certificate.is_some() {
            return Err(DuplicateCertificate(cert.sidechain_id));
        }
        entry.certificate = Some(cert);
        Ok(self)
    }

    /// Builds the commitment tree (always including the two sentinels).
    pub fn build(self) -> ScTxsCommitment {
        // Leaves sorted by id: BTreeMap iteration is ordered; sentinels
        // bracket all real ids.
        let sentinel = |id: SidechainId| {
            let (txs_hash, wcert_hash) = sentinel_leaf(&id);
            Leaf {
                id,
                roots: None,
                txs_hash,
                wcert_hash,
            }
        };
        let mut leaves = Vec::with_capacity(self.entries.len() + 2);
        leaves.push(sentinel(SidechainId::MIN_SENTINEL));
        for (id, data) in &self.entries {
            let (ft_root, btr_root) = (data.ft_root(), data.btr_root());
            leaves.push(Leaf {
                id: *id,
                roots: Some((ft_root, btr_root)),
                txs_hash: txs_hash(&ft_root, &btr_root),
                wcert_hash: data.wcert_hash(),
            });
        }
        leaves.push(sentinel(SidechainId::MAX_SENTINEL));

        let leaf_hashes: Vec<[u8; 32]> = leaves
            .iter()
            .map(|leaf| sc_leaf_hash(&leaf.id, &leaf.txs_hash, &leaf.wcert_hash).0)
            .collect();
        let tree = MerkleTree::<Sha256Hasher>::from_leaves(leaf_hashes);
        ScTxsCommitment {
            tree,
            leaves,
            entries: self.entries,
        }
    }
}

/// One leaf of the top tree: its id and the hashes its `SCHash` is
/// made of.
#[derive(Clone, Copy, Debug)]
struct Leaf {
    id: SidechainId,
    /// `(FTHash, BTRHash)`, kept so a membership proof hashes nothing
    /// [`ScTxsCommitmentBuilder::build`] already hashed; `None` for the
    /// two sentinels.
    roots: Option<(Digest32, Digest32)>,
    txs_hash: Digest32,
    wcert_hash: Digest32,
}

/// The built commitment for one block: the tree plus enough context to
/// produce membership and absence proofs.
#[derive(Clone, Debug)]
pub struct ScTxsCommitment {
    tree: MerkleTree<Sha256Hasher>,
    /// Sorted by id, sentinels included.
    leaves: Vec<Leaf>,
    entries: BTreeMap<SidechainId, ScBlockData>,
}

impl ScTxsCommitment {
    /// The root committed into the MC block header.
    pub fn root(&self) -> Digest32 {
        Digest32(self.tree.root())
    }

    /// The per-sidechain data this commitment was built from.
    pub fn data_for(&self, id: &SidechainId) -> Option<&ScBlockData> {
        self.entries.get(id)
    }

    /// Ids with data in this block (sentinels excluded).
    pub fn sidechain_ids(&self) -> impl Iterator<Item = &SidechainId> {
        self.entries.keys()
    }

    /// Produces the `mproof` of §5.5.1 for a sidechain present in the
    /// block: one Merkle path, no leaf re-hashed. Returns `None` if the
    /// block has no data for `id`.
    pub fn membership_proof(&self, id: &SidechainId) -> Option<ScMembershipProof> {
        let index = self.leaves.binary_search_by(|leaf| leaf.id.cmp(id)).ok()?;
        let leaf = &self.leaves[index];
        let (ft_root, btr_root) = leaf.roots?;
        Some(ScMembershipProof {
            sidechain_id: *id,
            ft_root,
            btr_root,
            wcert_hash: leaf.wcert_hash,
            merkle: self.tree.proof(index).expect("leaf index in range"),
        })
    }

    /// Produces the `proofOfNoData` of §5.5.1 for a sidechain absent from
    /// the block. Returns `None` if data for `id` is present (or `id` is a
    /// sentinel).
    pub fn absence_proof(&self, id: &SidechainId) -> Option<ScAbsenceProof> {
        if id.is_reserved() || self.entries.contains_key(id) {
            return None;
        }
        // Find bracketing leaves: largest < id and smallest > id. Because
        // the sentinels are always present, both exist and are adjacent.
        let right_pos = self.leaves.partition_point(|leaf| leaf.id < *id);
        let left_pos = right_pos - 1;
        let mk = |pos: usize| {
            let leaf = self.leaves[pos];
            NeighborLeaf {
                sidechain_id: leaf.id,
                txs_hash: leaf.txs_hash,
                wcert_hash: leaf.wcert_hash,
                merkle: self.tree.proof(pos).expect("leaf index in range"),
            }
        };
        Some(ScAbsenceProof {
            target: *id,
            left: mk(left_pos),
            right: mk(right_pos),
        })
    }
}

/// Proof that a sidechain's subtree — with specific FT/BTR roots and
/// certificate hash — is committed in a block's `SCTxsCommitment`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScMembershipProof {
    /// The proven sidechain.
    pub sidechain_id: SidechainId,
    /// The `FTHash` subtree root.
    pub ft_root: Digest32,
    /// The `BTRHash` subtree root.
    pub btr_root: Digest32,
    /// The `WCertHash` component.
    pub wcert_hash: Digest32,
    /// Path of the sidechain's leaf in the top tree.
    merkle: MerkleProof<Sha256Hasher>,
}

impl ScMembershipProof {
    /// Verifies the structural claim against a commitment root.
    pub fn verify(&self, root: &Digest32) -> bool {
        let txs = txs_hash(&self.ft_root, &self.btr_root);
        let leaf = sc_leaf_hash(&self.sidechain_id, &txs, &self.wcert_hash);
        self.merkle.verify(&root.0, &leaf.0)
    }

    /// Verifies that `fts` is exactly the block's forward-transfer list
    /// for this sidechain (the FT-consistency check of §5.5.2).
    pub fn verify_forward_transfers(&self, root: &Digest32, fts: &[ForwardTransfer]) -> bool {
        let leaves: Vec<[u8; 32]> = fts.iter().map(|ft| ft.digest().0).collect();
        let ft_root = Digest32(MerkleTree::<Sha256Hasher>::from_leaves(leaves).root());
        ft_root == self.ft_root && self.verify(root)
    }

    /// Verifies that `btrs` is exactly the block's BTR list for this
    /// sidechain (§5.5.3.2).
    pub fn verify_backward_transfer_requests(
        &self,
        root: &Digest32,
        btrs: &[BackwardTransferRequest],
    ) -> bool {
        let leaves: Vec<[u8; 32]> = btrs.iter().map(|btr| btr.digest().0).collect();
        let btr_root = Digest32(MerkleTree::<Sha256Hasher>::from_leaves(leaves).root());
        btr_root == self.btr_root && self.verify(root)
    }

    /// Verifies that `cert` (or no certificate) matches the committed
    /// `WCertHash`.
    pub fn verify_certificate(
        &self,
        root: &Digest32,
        cert: Option<&WithdrawalCertificate>,
    ) -> bool {
        wcert_hash(cert) == self.wcert_hash && self.verify(root)
    }
}

/// One bracketing neighbor inside a [`ScAbsenceProof`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborLeaf {
    /// The neighbor's sidechain id (may be a sentinel).
    pub sidechain_id: SidechainId,
    /// The neighbor leaf's `TxsHash` component.
    pub txs_hash: Digest32,
    /// The neighbor leaf's `WCertHash` component.
    pub wcert_hash: Digest32,
    merkle: MerkleProof<Sha256Hasher>,
}

impl NeighborLeaf {
    fn verify(&self, root: &Digest32) -> bool {
        let leaf = sc_leaf_hash(&self.sidechain_id, &self.txs_hash, &self.wcert_hash);
        self.merkle.verify(&root.0, &leaf.0)
    }
}

/// Proof that a block contains **no** data for a sidechain: two adjacent
/// leaves whose ids bracket the target id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScAbsenceProof {
    /// The id proven absent.
    pub target: SidechainId,
    /// The closest committed leaf with a smaller id.
    pub left: NeighborLeaf,
    /// The closest committed leaf with a larger id.
    pub right: NeighborLeaf,
}

impl ScAbsenceProof {
    /// Verifies the absence claim against a commitment root.
    pub fn verify(&self, root: &Digest32) -> bool {
        // Ids must strictly bracket the target…
        if !(self.left.sidechain_id < self.target && self.target < self.right.sidechain_id) {
            return false;
        }
        // …the leaves must be adjacent in the sorted tree…
        if self.right.merkle.leaf_index() != self.left.merkle.leaf_index() + 1 {
            return false;
        }
        // …and both must be committed.
        self.left.verify(root) && self.right.verify(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Address, Amount, Nullifier};
    use crate::proofdata::ProofData;
    use zendoo_snark::backend::Proof;

    fn proof() -> Proof {
        let kp = zendoo_primitives::schnorr::Keypair::from_seed(b"x");
        Proof::from_bytes(&kp.secret.sign("zendoo/snark-proof-v1", b"m").to_bytes()).unwrap()
    }

    fn ft(label: &str, amount: u64) -> ForwardTransfer {
        ForwardTransfer {
            sidechain_id: SidechainId::from_label(label),
            receiver_metadata: vec![7],
            amount: Amount::from_units(amount),
        }
    }

    fn btr(label: &str, amount: u64) -> BackwardTransferRequest {
        BackwardTransferRequest {
            sidechain_id: SidechainId::from_label(label),
            receiver: Address::from_label("u"),
            amount: Amount::from_units(amount),
            nullifier: Nullifier::from_utxo_digest(&Digest32::hash_bytes(label.as_bytes())),
            proofdata: ProofData::empty(),
            proof: proof(),
        }
    }

    fn cert(label: &str) -> WithdrawalCertificate {
        WithdrawalCertificate {
            sidechain_id: SidechainId::from_label(label),
            epoch_id: 0,
            quality: 1,
            bt_list: vec![],
            proofdata: ProofData::empty(),
            proof: proof(),
        }
    }

    fn build_three() -> ScTxsCommitment {
        let mut builder = ScTxsCommitmentBuilder::new();
        builder.add_forward_transfer(ft("a", 1));
        builder.add_forward_transfer(ft("a", 2));
        builder.add_forward_transfer(ft("b", 3));
        builder.add_backward_transfer_request(btr("b", 4));
        builder.add_certificate(cert("c")).unwrap();
        builder.build()
    }

    #[test]
    fn membership_proofs_verify() {
        let commitment = build_three();
        let root = commitment.root();
        for label in ["a", "b", "c"] {
            let id = SidechainId::from_label(label);
            let proof = commitment.membership_proof(&id).unwrap();
            assert!(proof.verify(&root), "membership for {label}");
        }
    }

    #[test]
    fn membership_proof_verifies_ft_list() {
        let commitment = build_three();
        let root = commitment.root();
        let id = SidechainId::from_label("a");
        let proof = commitment.membership_proof(&id).unwrap();
        assert!(proof.verify_forward_transfers(&root, &[ft("a", 1), ft("a", 2)]));
        // Wrong order or contents fail.
        assert!(!proof.verify_forward_transfers(&root, &[ft("a", 2), ft("a", 1)]));
        assert!(!proof.verify_forward_transfers(&root, &[ft("a", 1)]));
    }

    #[test]
    fn membership_proof_verifies_btr_list_and_cert() {
        let commitment = build_three();
        let root = commitment.root();
        let b = SidechainId::from_label("b");
        let pb = commitment.membership_proof(&b).unwrap();
        assert!(pb.verify_backward_transfer_requests(&root, &[btr("b", 4)]));
        assert!(!pb.verify_backward_transfer_requests(&root, &[]));
        assert!(pb.verify_certificate(&root, None));

        let c = SidechainId::from_label("c");
        let pc = commitment.membership_proof(&c).unwrap();
        assert!(pc.verify_certificate(&root, Some(&cert("c"))));
        assert!(!pc.verify_certificate(&root, None));
    }

    #[test]
    fn absence_proofs_verify_for_missing_ids() {
        let commitment = build_three();
        let root = commitment.root();
        for label in ["zzz", "absent", "mid"] {
            let id = SidechainId::from_label(label);
            if commitment.data_for(&id).is_some() {
                continue;
            }
            let proof = commitment.absence_proof(&id).unwrap();
            assert!(proof.verify(&root), "absence for {label}");
        }
    }

    #[test]
    fn absence_proof_unavailable_for_present_ids() {
        let commitment = build_three();
        assert!(commitment
            .absence_proof(&SidechainId::from_label("a"))
            .is_none());
        assert!(commitment
            .absence_proof(&SidechainId::MIN_SENTINEL)
            .is_none());
    }

    #[test]
    fn absence_proof_rejects_non_bracketing_target() {
        let commitment = build_three();
        let root = commitment.root();
        let absent = SidechainId::from_label("absent");
        let mut proof = commitment.absence_proof(&absent).unwrap();
        // Claim absence of an id outside the bracket.
        proof.target = proof.left.sidechain_id;
        assert!(!proof.verify(&root));
    }

    #[test]
    fn membership_and_absence_exclusive() {
        // The same id can never have both.
        let commitment = build_three();
        let root = commitment.root();
        let present = SidechainId::from_label("a");
        let absent = SidechainId::from_label("nope");
        assert!(commitment.membership_proof(&present).is_some());
        assert!(commitment.absence_proof(&present).is_none());
        assert!(commitment.membership_proof(&absent).is_none());
        let ap = commitment.absence_proof(&absent).unwrap();
        assert!(ap.verify(&root));
    }

    #[test]
    fn empty_block_commitment_supports_absence_everywhere() {
        let commitment = ScTxsCommitmentBuilder::new().build();
        let root = commitment.root();
        let proof = commitment
            .absence_proof(&SidechainId::from_label("anything"))
            .unwrap();
        assert!(proof.verify(&root));
    }

    #[test]
    fn duplicate_certificate_rejected() {
        let mut builder = ScTxsCommitmentBuilder::new();
        builder.add_certificate(cert("a")).unwrap();
        assert_eq!(
            builder.add_certificate(cert("a")).unwrap_err(),
            DuplicateCertificate(SidechainId::from_label("a"))
        );
    }

    #[test]
    fn root_changes_with_content() {
        let mut b1 = ScTxsCommitmentBuilder::new();
        b1.add_forward_transfer(ft("a", 1));
        let mut b2 = ScTxsCommitmentBuilder::new();
        b2.add_forward_transfer(ft("a", 2));
        assert_ne!(b1.build().root(), b2.build().root());
    }

    #[test]
    fn proof_from_one_block_fails_on_another() {
        let c1 = build_three();
        let mut builder = ScTxsCommitmentBuilder::new();
        builder.add_forward_transfer(ft("a", 99));
        let c2 = builder.build();
        let proof = c1.membership_proof(&SidechainId::from_label("a")).unwrap();
        assert!(!proof.verify(&c2.root()));
    }
}
