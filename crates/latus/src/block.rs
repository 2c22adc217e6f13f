//! Latus sidechain blocks and mainchain block references (paper §5.5.1,
//! Figs 6–7).
//!
//! A sidechain block carries zero or more [`McBlockReference`]s — each
//! wrapping one MC block's header together with the synchronized
//! [`ForwardTransfersTx`] and [`BtrTx`] halves — plus regular sidechain
//! transactions. References must be contiguous: a block may only
//! reference the MC block following the last referenced one.

use serde::{Deserialize, Serialize};
use zendoo_core::certificate::WithdrawalCertificate;
use zendoo_core::ids::SidechainId;
use zendoo_mainchain::transaction::{McTransaction, Output};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Encode};
use zendoo_primitives::field::Fp;
use zendoo_primitives::merkle::{MerkleTree, Sha256Hasher};
use zendoo_primitives::schnorr::PublicKey;
use zendoo_primitives::vrf::VrfProof;

use crate::params::LatusParams;
use crate::state::SidechainState;
use crate::tx::{
    apply_transaction, BtrTx, ForwardTransfersTx, McRefBinding, McRefEvidence, ScTransaction,
    TransitionWitness, TxError,
};

/// A reference to one mainchain block (§5.5.1's `MCBlockReference`),
/// carrying both synchronization halves. Either half may have an empty
/// list (with absence/membership evidence); the `wcert` field records a
/// certificate observed for this sidechain in the referenced block.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct McBlockReference {
    /// The synchronized forward transfers (`forwardTransfers`).
    pub forward_transfers: ForwardTransfersTx,
    /// The synchronized backward transfer requests (`btRequests`).
    pub backward_transfer_requests: BtrTx,
    /// The withdrawal certificate for this sidechain carried by the MC
    /// block, if any (`wcert`), with its commitment membership proof —
    /// the inclusion evidence later certificates witness.
    pub wcert: Option<(
        WithdrawalCertificate,
        zendoo_core::commitment::ScMembershipProof,
    )>,
}

/// Failures when deriving a reference from a mainchain block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McRefError {
    /// The block's header commitment does not match its transactions —
    /// a malformed mainchain block.
    CommitmentMismatch,
    /// The commitment tree could not produce the needed proof.
    ProofUnavailable,
}

impl std::fmt::Display for McRefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McRefError::CommitmentMismatch => {
                write!(f, "MC block commitment does not match its transactions")
            }
            McRefError::ProofUnavailable => write!(f, "commitment proof unavailable"),
        }
    }
}

impl std::error::Error for McRefError {}

impl McBlockReference {
    /// Derives the reference for `sidechain_id` from a full MC block —
    /// the synchronization step of Fig 7: extract this sidechain's FTs,
    /// BTRs and certificate, with commitment evidence from the header.
    ///
    /// # Errors
    ///
    /// [`McRefError::CommitmentMismatch`] for malformed MC blocks.
    pub fn derive(
        mc_block: &zendoo_mainchain::Block,
        sidechain_id: &SidechainId,
    ) -> Result<Self, McRefError> {
        let commitment = zendoo_mainchain::Blockchain::build_commitment(&mc_block.transactions);
        if commitment.root() != mc_block.header.sc_txs_commitment {
            return Err(McRefError::CommitmentMismatch);
        }
        let block_hash = mc_block.hash();

        let mut fts = Vec::new();
        let mut btrs = Vec::new();
        let mut wcert = None;
        for tx in &mc_block.transactions {
            match tx {
                McTransaction::Transfer(t) => {
                    for output in &t.outputs {
                        if let Output::Forward(ft) = output {
                            if ft.sidechain_id == *sidechain_id {
                                fts.push(ft.clone());
                            }
                        }
                    }
                }
                McTransaction::Btr(btr) if btr.sidechain_id == *sidechain_id => {
                    btrs.push((**btr).clone());
                }
                McTransaction::Certificate(cert) if cert.sidechain_id == *sidechain_id => {
                    wcert = Some((**cert).clone());
                }
                _ => {}
            }
        }

        let membership = commitment.membership_proof(sidechain_id);
        let evidence = match membership.clone() {
            Some(proof) => McRefEvidence::Membership(proof),
            None => McRefEvidence::NoData(
                commitment
                    .absence_proof(sidechain_id)
                    .ok_or(McRefError::ProofUnavailable)?,
            ),
        };
        let binding = McRefBinding {
            header: mc_block.header,
            evidence,
        };
        let wcert = match (wcert, membership) {
            (Some(cert), Some(proof)) => Some((cert, proof)),
            _ => None,
        };
        Ok(McBlockReference {
            forward_transfers: ForwardTransfersTx {
                mc_block: block_hash,
                transfers: fts,
                binding: binding.clone(),
            },
            backward_transfer_requests: BtrTx {
                mc_block: block_hash,
                requests: btrs,
                binding,
            },
            wcert,
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
}

/// A Latus block header.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScBlockHeader {
    /// Parent SC block hash (zero for the genesis block).
    pub parent: Digest32,
    /// Block height (genesis = 0).
    pub height: u64,
    /// The consensus slot this block was forged in.
    pub slot: u64,
    /// The forger's public key.
    pub forger: PublicKey,
    /// VRF proof of slot leadership (§5.1).
    pub vrf_proof: VrfProof,
    /// Merkle root over all contained transaction ids (sync + regular).
    pub tx_root: Digest32,
    /// Ordered MC block hashes referenced by this block.
    pub mc_ref_hashes: Vec<Digest32>,
    /// The state digest after applying this block.
    pub state_digest: Fp,
}

impl ScBlockHeader {
    /// The block hash.
    pub fn hash(&self) -> Digest32 {
        digest("zendoo/sc-block-header", self)
    }
}

impl Encode for ScBlockHeader {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.parent.encode_into(out);
        self.height.encode_into(out);
        self.slot.encode_into(out);
        self.forger.to_bytes().encode_into(out);
        self.vrf_proof.to_bytes().to_vec().encode_into(out);
        self.tx_root.encode_into(out);
        self.mc_ref_hashes.encode_into(out);
        self.state_digest.encode_into(out);
    }
}

/// A full Latus block.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
/// block before this one (enforcing reference contiguity, §5.1).
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
    // referenced MC block.
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
    }

    let mut recorded = Vec::new();
    for tx in block.ordered_transactions() {
        let witness = apply_transaction(params, state, &tx)?;
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
    use zendoo_core::ids::Amount;
    use zendoo_mainchain::chain::{Blockchain, ChainParams};
    use zendoo_mainchain::transaction::TxOut;
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

        let reference = McBlockReference::derive(&block, &sid()).unwrap();
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
        let reference = McBlockReference::derive(&block, &sid()).unwrap();

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
        McBlockReference::derive(&block, &sid()).unwrap()
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
                vrf_proof: zendoo_primitives::vrf::prove(
                    &Keypair::from_seed(b"forger").secret,
                    b"slot",
                )
                .1,
                tx_root: Digest32::ZERO,
                mc_ref_hashes: references.iter().map(|r| r.mc_block_hash()).collect(),
                state_digest: Fp::ZERO,
            },
            mc_references: references,
            transactions,
        };
        for tx in block.ordered_transactions() {
            apply_transaction(params, &mut scratch, &tx).unwrap();
        }
        block.header.tx_root = block.compute_tx_root();
        block.header.state_digest = scratch.digest();
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
        let witnesses = apply_block(&params, &mut state, &block, genesis_hash).unwrap();
        assert_eq!(witnesses.len(), 2, "FTTx + BTRTx halves");
        assert_eq!(state.digest(), block.header.state_digest);
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
        let err = apply_block(&params, &mut state, &block, genesis_hash).unwrap_err();
        assert_eq!(err, ScBlockError::StateDigestMismatch);
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
