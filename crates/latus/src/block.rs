//! Latus sidechain blocks and mainchain block references (paper §5.5.1,
//! Figs 6–7).
//!
//! A sidechain block carries zero or more [`McBlockReference`]s — each
//! wrapping one MC block's header together with the synchronized
//! [`ForwardTransfersTx`] and [`BtrTx`] halves — plus regular sidechain
//! transactions. References must be contiguous: a block may only
//! reference the MC block following the last referenced one.

use zendoo_core::certificate::WithdrawalCertificate;
use zendoo_core::commitment::{wcert_hash, ScBlockData, ScMembershipProof, ScTxsCommitment};
use zendoo_core::ids::SidechainId;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Encode};
use zendoo_primitives::field::Fp;
use zendoo_primitives::merkle::{MerkleTree, Sha256Hasher};
use zendoo_primitives::schnorr::{PublicKey, SecretKey, Signature};
use zendoo_primitives::vrf::VrfProof;
use zendoo_snark::deferred::Deferred;

use crate::params::LatusParams;
use crate::state::SidechainState;
use crate::tx::{
    apply_transaction_with, BtrTx, ForwardTransfersTx, McRefBinding, McRefEvidence, ScTransaction,
    TransitionWitness, TxError,
};

/// A reference to one mainchain block (§5.5.1's `MCBlockReference`),
/// carrying both synchronization halves. Either half may have an empty
/// list (with absence/membership evidence); the `wcert` field records a
/// certificate observed for this sidechain in the referenced block.
/// [`McBlockReference::derive`] takes it from the block's sc-txs
/// commitment, the one tree every sidechain shares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McBlockReference {
    /// The synchronized forward transfers (`forwardTransfers`).
    pub forward_transfers: ForwardTransfersTx,
    /// The synchronized backward transfer requests (`btRequests`).
    pub backward_transfer_requests: BtrTx,
    /// The withdrawal certificate for this sidechain carried by the MC
    /// block, if any (`wcert`). It is not covered by the block hash:
    /// [`apply_block`] refuses it unless it hashes to the `WCertHash`
    /// the reference's membership evidence commits to (and requires
    /// `None` under `NoData` evidence), so that evidence is also the
    /// certificate's inclusion proof, which later certificates witness.
    pub wcert: Option<WithdrawalCertificate>,
}

/// Failures when deriving a reference from a mainchain block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McRefError {
    /// The commitment handed over is not the one the block's header
    /// commits to: another block's commitment, or a malformed block.
    CommitmentMismatch,
    /// The commitment tree could not produce the needed proof.
    ProofUnavailable,
}

impl std::fmt::Display for McRefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McRefError::CommitmentMismatch => {
                write!(f, "sc-txs commitment does not match the MC block header")
            }
            McRefError::ProofUnavailable => write!(f, "commitment proof unavailable"),
        }
    }
}

impl std::error::Error for McRefError {}

impl McBlockReference {
    /// Takes this sidechain's part of a mainchain block — the
    /// synchronization step of Fig 7: its FTs, BTRs and certificate,
    /// with commitment evidence from the header — out of the block's
    /// sc-txs commitment, built once for every sidechain and rebuilt by
    /// none.
    ///
    /// # Errors
    ///
    /// [`McRefError::CommitmentMismatch`] when `commitment` is not the
    /// one `mc_block`'s header commits to.
    pub fn derive(
        mc_block: &zendoo_mainchain::Block,
        commitment: &ScTxsCommitment,
        sidechain_id: &SidechainId,
    ) -> Result<Self, McRefError> {
        if commitment.root() != mc_block.header.sc_txs_commitment {
            return Err(McRefError::CommitmentMismatch);
        }
        let block_hash = mc_block.hash();
        let (evidence, data) = match commitment.data_for(sidechain_id) {
            Some(data) => (
                McRefEvidence::Membership(
                    commitment
                        .membership_proof(sidechain_id)
                        .ok_or(McRefError::ProofUnavailable)?,
                ),
                data.clone(),
            ),
            None => (
                McRefEvidence::NoData(
                    commitment
                        .absence_proof(sidechain_id)
                        .ok_or(McRefError::ProofUnavailable)?,
                ),
                ScBlockData::default(),
            ),
        };
        let binding = McRefBinding {
            header: mc_block.header,
            evidence,
        };
        Ok(McBlockReference {
            forward_transfers: ForwardTransfersTx {
                mc_block: block_hash,
                transfers: data.forward_transfers,
                binding: binding.clone(),
            },
            backward_transfer_requests: BtrTx {
                mc_block: block_hash,
                requests: data.backward_transfer_requests,
                binding,
            },
            wcert: data.certificate,
        })
    }

    /// The referenced MC block hash.
    pub fn mc_block_hash(&self) -> Digest32 {
        self.forward_transfers.mc_block
    }

    /// The referenced MC block header.
    pub fn mc_header(&self) -> &zendoo_mainchain::BlockHeader {
        &self.forward_transfers.binding.header
    }

    /// The membership proof of this sidechain's data in the referenced
    /// block, or `None` when the evidence proves the block has none.
    pub(crate) fn membership(&self) -> Option<&ScMembershipProof> {
        match &self.forward_transfers.binding.evidence {
            McRefEvidence::Membership(proof) => Some(proof),
            McRefEvidence::NoData(_) => None,
        }
    }
}

/// The context a forger signs its block header under.
const HEADER_CONTEXT: &str = "zendoo/sc-block-header-sig";

/// A Latus block header, signed by the forger that won its slot (§5.1):
/// the signature binds every other field, so a relay can change neither
/// the slot nor the forger a block claims.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScBlockHeader {
    /// Parent SC block hash (zero for the genesis block).
    pub parent: Digest32,
    /// Block height (genesis = 0).
    pub height: u64,
    /// The consensus slot this block was forged in.
    pub slot: u64,
    /// The forger's public key.
    pub forger: PublicKey,
    /// VRF proof of slot leadership (§5.1); `None` where leadership is
    /// vacuous (the bootstrap authority, or a chain nobody stakes in).
    pub vrf_proof: Option<VrfProof>,
    /// Merkle root over all contained transaction ids (sync + regular).
    pub tx_root: Digest32,
    /// Ordered MC block hashes referenced by this block.
    pub mc_ref_hashes: Vec<Digest32>,
    /// The state digest after applying this block.
    pub state_digest: Fp,
    /// The forger's Schnorr signature over every field above.
    pub signature: Signature,
}

impl ScBlockHeader {
    /// The block hash.
    pub fn hash(&self) -> Digest32 {
        digest("zendoo/sc-block-header", self)
    }

    /// The bytes the forger signs: every field but the signature.
    fn signed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.parent.encode_into(&mut out);
        self.height.encode_into(&mut out);
        self.slot.encode_into(&mut out);
        self.forger.to_bytes().encode_into(&mut out);
        self.vrf_proof
            .map(|proof| proof.to_bytes().to_vec())
            .encode_into(&mut out);
        self.tx_root.encode_into(&mut out);
        self.mc_ref_hashes.encode_into(&mut out);
        self.state_digest.encode_into(&mut out);
        out
    }

    /// Signs the header with the forger's key: the last step of forging.
    pub fn sign(&mut self, forger: &SecretKey) {
        self.signature = forger.sign(HEADER_CONTEXT, &self.signed_bytes());
    }

    /// States the forger's signature over the header into `sigs`.
    ///
    /// # Errors
    ///
    /// `on_fail()` when `sigs` is eager and the signature fails.
    pub fn authorize<E>(&self, sigs: &mut Deferred, on_fail: impl FnOnce() -> E) -> Result<(), E> {
        sigs.signature(
            HEADER_CONTEXT,
            &self.forger,
            &self.signed_bytes(),
            &self.signature,
            on_fail,
        )
    }
}

impl Encode for ScBlockHeader {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.signed_bytes());
        self.signature.to_bytes().encode_into(out);
    }
}

/// A full Latus block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScBlock {
    /// The header.
    pub header: ScBlockHeader,
    /// Mainchain block references, contiguous and in MC order.
    pub mc_references: Vec<McBlockReference>,
    /// Regular sidechain transactions (payments, backward transfers).
    pub transactions: Vec<ScTransaction>,
}

impl ScBlock {
    /// The block hash.
    pub fn hash(&self) -> Digest32 {
        self.header.hash()
    }

    /// All transactions in application order: per reference FTTx then
    /// BTRTx, then regular transactions.
    pub fn ordered_transactions(&self) -> Vec<ScTransaction> {
        let mut txs = Vec::new();
        for reference in &self.mc_references {
            txs.push(ScTransaction::ForwardTransfers(
                reference.forward_transfers.clone(),
            ));
            txs.push(ScTransaction::BackwardTransferRequests(
                reference.backward_transfer_requests.clone(),
            ));
        }
        txs.extend(self.transactions.iter().cloned());
        txs
    }

    /// Computes the Merkle root over the ordered transaction ids.
    pub fn compute_tx_root(&self) -> Digest32 {
        let leaves: Vec<[u8; 32]> = self
            .ordered_transactions()
            .iter()
            .map(|tx| tx.txid().0)
            .collect();
        Digest32(MerkleTree::<Sha256Hasher>::from_leaves(leaves).root())
    }
}

/// Block application failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScBlockError {
    /// Header `tx_root` mismatch.
    TxRootMismatch,
    /// Header `mc_ref_hashes` does not match the body references.
    McRefHashMismatch,
    /// References are not contiguous with the previously referenced MC
    /// block (§5.1's ordering rule).
    NonContiguousReference {
        /// Expected parent of the next referenced MC block.
        expected_parent: Digest32,
        /// Actual parent hash.
        actual_parent: Digest32,
    },
    /// A transaction failed to apply.
    Tx(TxError),
    /// Header `state_digest` does not match the post-application state.
    StateDigestMismatch,
    /// A reference's `wcert` is not the certificate its evidence commits
    /// to.
    WcertMismatch,
}

impl std::fmt::Display for ScBlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScBlockError::TxRootMismatch => write!(f, "tx root mismatch"),
            ScBlockError::McRefHashMismatch => write!(f, "mc reference hash list mismatch"),
            ScBlockError::NonContiguousReference {
                expected_parent,
                actual_parent,
            } => write!(
                f,
                "non-contiguous MC reference: expected parent {expected_parent}, got {actual_parent}"
            ),
            ScBlockError::Tx(e) => write!(f, "transaction failed: {e}"),
            ScBlockError::StateDigestMismatch => write!(f, "state digest mismatch"),
            ScBlockError::WcertMismatch => write!(f, "wcert does not match its evidence"),
        }
    }
}

impl std::error::Error for ScBlockError {}

impl From<TxError> for ScBlockError {
    fn from(e: TxError) -> Self {
        ScBlockError::Tx(e)
    }
}

/// Applies a block to `state`, returning each transition witness with
/// the state digest after its step, in order (what the epoch proof
/// records, Fig 10).
///
/// `last_referenced_mc` is the hash of the most recently referenced MC
/// block before this one (enforcing reference contiguity, §5.1). Input
/// signatures are stated into `sigs`: an `Ok` holds once it discharges.
///
/// # Errors
///
/// [`ScBlockError`]; the state may be partially mutated on error — the
/// caller (the node) applies to a clone and adopts it on success.
pub fn apply_block(
    params: &LatusParams,
    state: &mut SidechainState,
    block: &ScBlock,
    last_referenced_mc: Digest32,
    sigs: &mut Deferred,
) -> Result<Vec<(TransitionWitness, Fp)>, ScBlockError> {
    if block.compute_tx_root() != block.header.tx_root {
        return Err(ScBlockError::TxRootMismatch);
    }
    let body_hashes: Vec<Digest32> = block
        .mc_references
        .iter()
        .map(|r| r.mc_block_hash())
        .collect();
    if body_hashes != block.header.mc_ref_hashes {
        return Err(ScBlockError::McRefHashMismatch);
    }
    // Contiguity: each referenced MC block's parent must be the previous
    // referenced MC block. The evidence itself is checked against the
    // header by the synchronized transactions below.
    let mut expected_parent = last_referenced_mc;
    for reference in &block.mc_references {
        let actual_parent = reference.mc_header().parent;
        if actual_parent != expected_parent {
            return Err(ScBlockError::NonContiguousReference {
                expected_parent,
                actual_parent,
            });
        }
        expected_parent = reference.mc_block_hash();
        let committed = match reference.membership() {
            Some(proof) => wcert_hash(reference.wcert.as_ref()) == proof.wcert_hash,
            None => reference.wcert.is_none(),
        };
        if !committed {
            return Err(ScBlockError::WcertMismatch);
        }
    }

    let mut recorded = Vec::new();
    for tx in block.ordered_transactions() {
        let witness = apply_transaction_with(params, state, &tx, sigs)?;
        recorded.push((witness, state.digest()));
    }
    if state.digest() != block.header.state_digest {
        return Err(ScBlockError::StateDigestMismatch);
    }
    Ok(recorded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{try_lead_slot, ConsensusParams, StakeDistribution};
    use crate::tx::apply_transaction;
    use zendoo_core::ids::Amount;
    use zendoo_mainchain::chain::{Blockchain, ChainParams};
    use zendoo_mainchain::transaction::{McTransaction, Output, TxOut};
    use zendoo_mainchain::wallet::Wallet;
    use zendoo_primitives::schnorr::Keypair;

    fn sid() -> SidechainId {
        SidechainId::from_label("sc")
    }

    fn chain_with_ft() -> (Blockchain, Wallet) {
        let alice = Wallet::from_seed(b"alice");
        let params = ChainParams {
            genesis_outputs: vec![TxOut::regular(alice.address(), Amount::from_units(10_000))],
            ..ChainParams::default()
        };
        let mut chain = Blockchain::new(params);
        // Register the sidechain so the MC accepts FTs to it.
        struct AcceptAll;
        impl zendoo_snark::circuit::Circuit for AcceptAll {
            type Witness = ();
            fn id(&self) -> Digest32 {
                Digest32::hash_bytes(b"block-test/accept-all")
            }
            fn check(
                &self,
                _: &zendoo_snark::inputs::PublicInputs,
                _: &(),
            ) -> Result<(), zendoo_snark::circuit::Unsatisfied> {
                Ok(())
            }
        }
        let (_, vk) = zendoo_snark::backend::setup_deterministic(&AcceptAll, b"t");
        let config = zendoo_core::config::SidechainConfigBuilder::new(sid(), vk)
            .start_block(2)
            .epoch_len(10)
            .submit_len(3)
            .build()
            .unwrap();
        chain
            .mine_next_block(
                alice.address(),
                vec![McTransaction::SidechainDeclaration(Box::new(config))],
                0,
            )
            .unwrap();
        (chain, alice)
    }

    #[test]
    fn derive_reference_extracts_this_sidechains_data() {
        let (mut chain, alice) = chain_with_ft();
        let meta = crate::tx::ReceiverMetadata {
            receiver: zendoo_core::ids::Address::from_label("sc-alice"),
            payback: alice.address(),
        };
        let ft_tx = alice
            .forward_transfer(
                &chain,
                sid(),
                meta.to_bytes(),
                Amount::from_units(500),
                Amount::ZERO,
            )
            .unwrap();
        // Another sidechain's FT must not leak into our reference.
        let other_meta = crate::tx::ReceiverMetadata {
            receiver: zendoo_core::ids::Address::from_label("other"),
            payback: alice.address(),
        };
        let block = chain
            .mine_next_block(alice.address(), vec![ft_tx], 1)
            .unwrap();
        let _ = other_meta;

        let reference = McBlockReference::derive(
            &block,
            &Blockchain::build_commitment(&block.transactions),
            &sid(),
        )
        .unwrap();
        assert_eq!(reference.forward_transfers.transfers.len(), 1);
        assert_eq!(
            reference.forward_transfers.transfers[0].amount,
            Amount::from_units(500)
        );
        assert!(reference.backward_transfer_requests.requests.is_empty());
        assert!(reference.wcert.is_none());
        assert_eq!(reference.mc_block_hash(), block.hash());
    }

    #[test]
    fn derived_reference_applies_cleanly() {
        let (mut chain, alice) = chain_with_ft();
        let meta = crate::tx::ReceiverMetadata {
            receiver: zendoo_core::ids::Address::from_label("sc-alice"),
            payback: alice.address(),
        };
        let ft_tx = alice
            .forward_transfer(
                &chain,
                sid(),
                meta.to_bytes(),
                Amount::from_units(500),
                Amount::ZERO,
            )
            .unwrap();
        let block = chain
            .mine_next_block(alice.address(), vec![ft_tx], 1)
            .unwrap();
        let reference = McBlockReference::derive(
            &block,
            &Blockchain::build_commitment(&block.transactions),
            &sid(),
        )
        .unwrap();

        let params = LatusParams::new(sid(), 16);
        let mut state = SidechainState::new(16);
        let tx = ScTransaction::ForwardTransfers(reference.forward_transfers.clone());
        apply_transaction(&params, &mut state, &tx).unwrap();
        assert_eq!(
            state.balance_of(&zendoo_core::ids::Address::from_label("sc-alice")),
            Amount::from_units(500)
        );
    }

    fn empty_reference_for(chain: &mut Blockchain, miner: &Wallet) -> McBlockReference {
        let block = chain.mine_next_block(miner.address(), vec![], 7).unwrap();
        McBlockReference::derive(
            &block,
            &Blockchain::build_commitment(&block.transactions),
            &sid(),
        )
        .unwrap()
    }

    fn forge_test_block(
        params: &LatusParams,
        state: &mut SidechainState,
        parent: Digest32,
        height: u64,
        references: Vec<McBlockReference>,
        transactions: Vec<ScTransaction>,
    ) -> ScBlock {
        // Apply to compute the resulting digest.
        let mut scratch = state.clone();
        let mut block = ScBlock {
            header: ScBlockHeader {
                parent,
                height,
                slot: height,
                forger: Keypair::from_seed(b"forger").public,
                vrf_proof: None,
                tx_root: Digest32::ZERO,
                mc_ref_hashes: references.iter().map(|r| r.mc_block_hash()).collect(),
                state_digest: Fp::ZERO,
                signature: Signature::from_bytes(&[0; 65]).unwrap(),
            },
            mc_references: references,
            transactions,
        };
        for tx in block.ordered_transactions() {
            apply_transaction(params, &mut scratch, &tx).unwrap();
        }
        block.header.tx_root = block.compute_tx_root();
        block.header.state_digest = scratch.digest();
        block.header.sign(&Keypair::from_seed(b"forger").secret);
        *state = scratch;
        block
    }

    #[test]
    fn apply_block_validates_and_produces_witnesses() {
        let (mut chain, alice) = chain_with_ft();
        let genesis_hash = chain.tip_hash();
        let params = LatusParams::new(sid(), 16);
        let mut forge_state = SidechainState::new(16);
        let reference = empty_reference_for(&mut chain, &alice);
        let block = forge_test_block(
            &params,
            &mut forge_state,
            Digest32::ZERO,
            0,
            vec![reference],
            vec![],
        );

        let mut state = SidechainState::new(16);
        let witnesses = apply_block(
            &params,
            &mut state,
            &block,
            genesis_hash,
            &mut Deferred::eager(),
        )
        .unwrap();
        assert_eq!(witnesses.len(), 2, "FTTx + BTRTx halves");
        assert_eq!(state.digest(), block.header.state_digest);
    }

    /// The forger's signature covers every other header field: each one
    /// changed alone fails the eager check, by the caller's name.
    #[test]
    fn a_header_signature_binds_every_field() {
        let (mut chain, alice) = chain_with_ft();
        let params = LatusParams::new(sid(), 16);
        let reference = empty_reference_for(&mut chain, &alice);
        let block = forge_test_block(
            &params,
            &mut SidechainState::new(16),
            Digest32::ZERO,
            0,
            vec![reference],
            vec![],
        );
        let check = |header: &ScBlockHeader| header.authorize(&mut Deferred::eager(), || "bad");
        assert_eq!(check(&block.header), Ok(()));
        let other = Keypair::from_seed(b"other");
        let rewrites: [fn(&mut ScBlockHeader, &Keypair); 9] = [
            |h, _| h.parent = Digest32::hash_bytes(b"p"),
            |h, _| h.height += 1,
            |h, _| h.slot += 5,
            |h, k| h.forger = k.public,
            |h, k| {
                let alone = StakeDistribution::from_entries([(
                    zendoo_core::ids::Address::from_public_key(&k.public),
                    zendoo_core::ids::Amount::from_units(1),
                )]);
                let params = ConsensusParams::default();
                h.vrf_proof =
                    (0..).find_map(|slot| try_lead_slot(&params, &alone, &k.secret, slot));
            },
            |h, _| h.tx_root = Digest32::hash_bytes(b"t"),
            |h, _| h.mc_ref_hashes.push(Digest32::ZERO),
            |h, _| h.state_digest = Fp::from_u64(1),
            |h, k| h.signature = k.secret.sign(HEADER_CONTEXT, &h.signed_bytes()),
        ];
        for (i, rewrite) in rewrites.iter().enumerate() {
            let mut header = block.header.clone();
            rewrite(&mut header, &other);
            assert_eq!(check(&header), Err("bad"), "field {i}");
            assert_ne!(header.hash(), block.header.hash(), "field {i}");
        }
    }

    #[test]
    fn apply_block_rejects_non_contiguous_reference() {
        let (mut chain, alice) = chain_with_ft();
        let params = LatusParams::new(sid(), 16);
        let mut forge_state = SidechainState::new(16);
        let reference = empty_reference_for(&mut chain, &alice);
        let block = forge_test_block(
            &params,
            &mut forge_state,
            Digest32::ZERO,
            0,
            vec![reference],
            vec![],
        );
        let mut state = SidechainState::new(16);
        // Wrong predecessor: claim the reference follows a bogus block.
        let err = apply_block(
            &params,
            &mut state,
            &block,
            Digest32::hash_bytes(b"wrong-parent"),
            &mut Deferred::eager(),
        )
        .unwrap_err();
        assert!(matches!(err, ScBlockError::NonContiguousReference { .. }));
    }

    #[test]
    fn apply_block_rejects_wrong_state_digest() {
        let (mut chain, alice) = chain_with_ft();
        let genesis_hash = chain.tip_hash();
        let params = LatusParams::new(sid(), 16);
        let mut forge_state = SidechainState::new(16);
        let reference = empty_reference_for(&mut chain, &alice);
        let mut block = forge_test_block(
            &params,
            &mut forge_state,
            Digest32::ZERO,
            0,
            vec![reference],
            vec![],
        );
        block.header.state_digest = Fp::from_u64(99);
        block.header.tx_root = block.compute_tx_root();
        let mut state = SidechainState::new(16);
        let err = apply_block(
            &params,
            &mut state,
            &block,
            genesis_hash,
            &mut Deferred::eager(),
        )
        .unwrap_err();
        assert_eq!(err, ScBlockError::StateDigestMismatch);
    }

    // ---- The shared commitment against a scan of the transactions --------

    fn label(index: u8) -> SidechainId {
        SidechainId::from_label(&format!("eq-{index}"))
    }

    fn any_proof() -> zendoo_snark::backend::Proof {
        let signature = Keypair::from_seed(b"eq").secret.sign("eq", b"m");
        zendoo_snark::backend::Proof::from_bytes(&signature.to_bytes()).unwrap()
    }

    fn forward(to: u8, amount: u64) -> Output {
        Output::Forward(zendoo_core::transfer::ForwardTransfer {
            sidechain_id: label(to),
            receiver_metadata: vec![to, amount as u8],
            amount: Amount::from_units(amount),
        })
    }

    /// One mainchain transaction of a random mix: a transfer with one
    /// forward output (and a regular one), a transfer with two forward
    /// outputs to neighbouring chains, a BTR, or a certificate.
    fn mixed_tx(kind: u8, to: u8, amount: u64) -> McTransaction {
        match kind {
            0 => McTransaction::Transfer(zendoo_mainchain::transaction::TransferTx {
                inputs: vec![],
                outputs: vec![
                    forward(to, amount),
                    Output::Regular(TxOut::regular(
                        zendoo_core::ids::Address::from_label("change"),
                        Amount::from_units(amount),
                    )),
                ],
            }),
            1 => McTransaction::Transfer(zendoo_mainchain::transaction::TransferTx {
                inputs: vec![],
                outputs: vec![forward(to, amount), forward(to + 1, amount + 1)],
            }),
            2 => McTransaction::Btr(Box::new(zendoo_core::withdrawal::BackwardTransferRequest {
                sidechain_id: label(to),
                receiver: zendoo_core::ids::Address::from_label("user"),
                amount: Amount::from_units(amount),
                nullifier: zendoo_core::ids::Nullifier::from_utxo_digest(&Digest32::hash_bytes(
                    &amount.to_le_bytes(),
                )),
                proofdata: zendoo_core::proofdata::ProofData::empty(),
                proof: any_proof(),
            })),
            _ => McTransaction::Certificate(Box::new(WithdrawalCertificate {
                sidechain_id: label(to),
                epoch_id: amount as u32,
                quality: amount,
                bt_list: vec![],
                proofdata: zendoo_core::proofdata::ProofData::empty(),
                proof: any_proof(),
            })),
        }
    }

    /// The reference as `derive` used to build it: rebuild the
    /// commitment, then scan every transaction for this chain's data.
    fn scanned_reference(mc_block: &zendoo_mainchain::Block, id: &SidechainId) -> McBlockReference {
        let commitment = Blockchain::build_commitment(&mc_block.transactions);
        assert_eq!(commitment.root(), mc_block.header.sc_txs_commitment);
        let mut fts = Vec::new();
        let mut btrs = Vec::new();
        let mut wcert = None;
        for tx in &mc_block.transactions {
            match tx {
                McTransaction::Transfer(t) => {
                    for output in &t.outputs {
                        if let Output::Forward(ft) = output {
                            if ft.sidechain_id == *id {
                                fts.push(ft.clone());
                            }
                        }
                    }
                }
                McTransaction::Btr(btr) if btr.sidechain_id == *id => {
                    btrs.push((**btr).clone());
                }
                McTransaction::Certificate(cert) if cert.sidechain_id == *id => {
                    wcert = Some((**cert).clone());
                }
                _ => {}
            }
        }
        let evidence = match commitment.membership_proof(id) {
            Some(proof) => McRefEvidence::Membership(proof),
            None => McRefEvidence::NoData(commitment.absence_proof(id).unwrap()),
        };
        let binding = McRefBinding {
            header: mc_block.header,
            evidence,
        };
        McBlockReference {
            forward_transfers: ForwardTransfersTx {
                mc_block: mc_block.hash(),
                transfers: fts,
                binding: binding.clone(),
            },
            backward_transfer_requests: BtrTx {
                mc_block: mc_block.hash(),
                requests: btrs,
                binding,
            },
            wcert,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Every chain's reference taken from the one shared commitment
        /// equals the one a scan of the block's transactions builds,
        /// for chains with data and chains without.
        #[test]
        fn prop_reference_from_the_shared_commitment_equals_the_scan(
            mix in proptest::collection::vec((0u8..4, 0u8..6, 1u64..1_000), 0..24),
        ) {
            let mut transactions = vec![McTransaction::Coinbase(
                zendoo_mainchain::transaction::CoinbaseTx { height: 1, outputs: vec![] },
            )];
            let mut certified = std::collections::HashSet::new();
            for (kind, to, amount) in mix {
                // At most one certificate per chain and block (Fig 4).
                if kind == 3 && !certified.insert(to) {
                    continue;
                }
                transactions.push(mixed_tx(kind, to, amount));
            }
            let commitment = Blockchain::build_commitment(&transactions);
            let mut block = zendoo_mainchain::Block {
                header: zendoo_mainchain::BlockHeader {
                    parent: Digest32::hash_bytes(b"parent"),
                    height: 1,
                    time: 1,
                    tx_root: Digest32::ZERO,
                    sc_txs_commitment: commitment.root(),
                    target: zendoo_mainchain::pow::Target::EASIEST,
                    nonce: 0,
                },
                transactions,
            };
            block.header.tx_root = zendoo_mainchain::Block::tx_root_of(&block.txids());
            // Ids 0..=6 can carry data; 7 and 8 never do.
            for index in 0..9 {
                let id = label(index);
                let shared = McBlockReference::derive(&block, &commitment, &id).unwrap();
                proptest::prop_assert_eq!(shared, scanned_reference(&block, &id));
            }
        }
    }

    #[test]
    fn ordered_transactions_interleave_sync_then_regular() {
        let (mut chain, alice) = chain_with_ft();
        let params = LatusParams::new(sid(), 16);
        let mut forge_state = SidechainState::new(16);
        let reference = empty_reference_for(&mut chain, &alice);
        let block = forge_test_block(
            &params,
            &mut forge_state,
            Digest32::ZERO,
            0,
            vec![reference],
            vec![],
        );
        let ordered = block.ordered_transactions();
        assert!(matches!(ordered[0], ScTransaction::ForwardTransfers(_)));
        assert!(matches!(
            ordered[1],
            ScTransaction::BackwardTransferRequests(_)
        ));
    }
}
