//! Mainchain transactions.
//!
//! The mainchain is UTXO-based (paper §4.1.1 footnote 2). A regular
//! transfer is multi-input/multi-output; forward transfers are special
//! unspendable outputs inside regular transactions, exactly as in the
//! paper's `Transaction` sketch. Sidechain creation, withdrawal
//! certificates, BTRs and CSWs are special transaction kinds
//! (§4.1.3's four cross-chain actions plus bootstrapping, §4.2).

use zendoo_core::config::SidechainConfig;
use zendoo_core::escrow::EscrowTag;
use zendoo_core::ids::{Address, Amount};
use zendoo_core::transfer::ForwardTransfer;
use zendoo_core::withdrawal::{BackwardTransferRequest, CeasedSidechainWithdrawal};
use zendoo_core::WithdrawalCertificate;
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Decode, DecodeError, Encode, Reader};
use zendoo_primitives::schnorr::{Keypair, PublicKey, SecretKey, Signature};

/// Signature context for transaction inputs.
pub(crate) const SIGHASH_CONTEXT: &str = "zendoo/mc-sighash-v1";

/// A reference to a spendable output: `(txid, output index)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OutPoint {
    /// The creating transaction (or certificate) digest.
    pub txid: Digest32,
    /// Index among that transaction's spendable outputs.
    pub index: u32,
}

impl Encode for OutPoint {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.txid.encode_into(out);
        self.index.encode_into(out);
    }
}

impl Decode for OutPoint {
    const MIN_LEN: usize = 32 + 4;
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OutPoint {
            txid: reader.read()?,
            index: reader.read()?,
        })
    }
}

/// How an output may be spent: by its address's key, or — for escrowed
/// cross-chain value — only through the consensus settlement/refund
/// rules ([`zendoo_core::escrow`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OutputKind {
    /// A regular pay-to-address output: spending requires a signature
    /// from the address's key.
    #[default]
    Regular,
    /// Consensus-escrowed cross-chain value. Signatures on inputs
    /// spending this output are ignored; the spend is valid only as a
    /// settlement matching the tag, or a refund to the tag's payback
    /// address while the tagged destination is not active. Only
    /// certificate maturation creates outputs of this kind — a transfer
    /// (or coinbase) declaring one is rejected outright.
    Escrow(EscrowTag),
}

impl Encode for OutputKind {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            OutputKind::Regular => 0u8.encode_into(out),
            OutputKind::Escrow(tag) => {
                1u8.encode_into(out);
                tag.encode_into(out);
            }
        }
    }
}

impl Decode for OutputKind {
    const MIN_LEN: usize = 1;
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read()? {
            0 => Ok(OutputKind::Regular),
            1 => Ok(OutputKind::Escrow(reader.read()?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// A spendable output: an address, an amount and the consensus
/// [`OutputKind`] governing how it may be spent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxOut {
    /// The controlled address (hash of a Schnorr public key). For
    /// escrow-kind outputs this is a pure marker — no key authorizes
    /// the spend.
    pub address: Address,
    /// The amount held.
    pub amount: Amount,
    /// The spending discipline.
    pub kind: OutputKind,
}

impl TxOut {
    /// A regular pay-to-address output.
    pub fn regular(address: Address, amount: Amount) -> Self {
        TxOut {
            address,
            amount,
            kind: OutputKind::Regular,
        }
    }

    /// A consensus-escrowed output tagged with `tag`.
    pub fn escrow(address: Address, amount: Amount, tag: EscrowTag) -> Self {
        TxOut {
            address,
            amount,
            kind: OutputKind::Escrow(tag),
        }
    }

    /// Returns `true` for escrow-kind outputs.
    pub fn is_escrow(&self) -> bool {
        matches!(self.kind, OutputKind::Escrow(_))
    }

    /// The escrow tag, when this is an escrow-kind output.
    pub fn escrow_tag(&self) -> Option<&EscrowTag> {
        match &self.kind {
            OutputKind::Escrow(tag) => Some(tag),
            OutputKind::Regular => None,
        }
    }
}

impl Encode for TxOut {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.address.encode_into(out);
        self.amount.encode_into(out);
        self.kind.encode_into(out);
    }
}

impl Decode for TxOut {
    const MIN_LEN: usize = 32 + 8 + OutputKind::MIN_LEN;
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxOut {
            address: reader.read()?,
            amount: reader.read()?,
            kind: reader.read()?,
        })
    }
}

/// An output of a transfer transaction: spendable or a forward transfer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Output {
    /// A regular spendable output.
    Regular(TxOut),
    /// A forward transfer: destroys coins on the mainchain and credits
    /// the destination sidechain's balance (Def 4.1).
    Forward(ForwardTransfer),
}

impl Output {
    /// The coin value carried by this output.
    pub fn amount(&self) -> Amount {
        match self {
            Output::Regular(o) => o.amount,
            Output::Forward(ft) => ft.amount,
        }
    }
}

impl Encode for Output {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Output::Regular(o) => {
                0u8.encode_into(out);
                o.encode_into(out);
            }
            Output::Forward(ft) => {
                1u8.encode_into(out);
                ft.encode_into(out);
            }
        }
    }
}

/// A transaction input: the outpoint it spends plus spending
/// authorization (public key whose hash matches the output's address and
/// a Schnorr signature over the sighash).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxIn {
    /// The spent output.
    pub outpoint: OutPoint,
    /// Key authorizing the spend.
    pub pubkey: PublicKey,
    /// Signature over the transaction sighash.
    pub signature: Signature,
}

impl TxIn {
    /// Verifies this input's signature over a precomputed sighash.
    /// Callers must separately check that the key hashes to the spent
    /// output's address (stage 3's `BadInputAuthorization` rule does);
    /// splitting the two lets batch admission verify many signatures
    /// without recomputing the sighash per input.
    pub fn verify_signature(&self, sighash: &Digest32) -> bool {
        self.pubkey
            .verify(SIGHASH_CONTEXT, sighash.as_bytes(), &self.signature)
    }
}

impl Encode for TxIn {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.outpoint.encode_into(out);
        self.pubkey.to_bytes().encode_into(out);
        self.signature.to_bytes().encode_into(out);
    }
}

/// A multi-input multi-output transfer, possibly with forward-transfer
/// outputs (the paper's regular transaction with FT outputs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransferTx {
    /// Spent outputs with authorization.
    pub inputs: Vec<TxIn>,
    /// Created outputs (regular and/or forward transfers).
    pub outputs: Vec<Output>,
}

impl TransferTx {
    /// The message every input signs: the transaction with signatures and
    /// keys blanked (outpoints + outputs only).
    pub fn sighash(&self) -> Digest32 {
        let outpoints: Vec<OutPoint> = self.inputs.iter().map(|i| i.outpoint).collect();
        sighash_of(&outpoints, &self.outputs)
    }

    /// Total value created by outputs (`None` on overflow).
    pub fn total_output(&self) -> Option<Amount> {
        Amount::checked_sum(self.outputs.iter().map(|o| o.amount()))
    }

    /// Builds and signs a transfer in one step: `spends` pairs each spent
    /// outpoint with the secret key controlling it.
    pub fn signed(spends: &[(OutPoint, &SecretKey)], outputs: Vec<Output>) -> Self {
        // The sighash covers no key and no signature, so it is known
        // before any input is signed: one signature per input.
        let outpoints: Vec<OutPoint> = spends.iter().map(|(outpoint, _)| *outpoint).collect();
        let sighash = sighash_of(&outpoints, &outputs);
        TransferTx {
            inputs: spends
                .iter()
                .map(|(outpoint, sk)| TxIn {
                    outpoint: *outpoint,
                    pubkey: sk.public_key(),
                    signature: sk.sign(SIGHASH_CONTEXT, sighash.as_bytes()),
                })
                .collect(),
            outputs,
        }
    }

    /// Builds a transaction claiming escrow-kind outputs.
    ///
    /// Escrow spends are authorized by consensus structure — the
    /// settlement/refund rules of [`zendoo_core::escrow`] — not by any
    /// key, so *anyone* may assemble one (typically the
    /// `CrossChainRouter`, but a block builder could too). The inputs
    /// are filled with signatures from the public, derivable
    /// [`escrow_claim_keypair`] purely so the transaction is
    /// well-formed and its id deterministic; consensus never consults
    /// them for escrow-kind inputs.
    pub fn escrow_claiming(outpoints: &[OutPoint], outputs: Vec<Output>) -> Self {
        let claim = escrow_claim_keypair();
        let spends: Vec<(OutPoint, &SecretKey)> = outpoints
            .iter()
            .map(|outpoint| (*outpoint, &claim.secret))
            .collect();
        Self::signed(&spends, outputs)
    }
}

impl Encode for TransferTx {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.inputs.encode_into(out);
        self.outputs.encode_into(out);
    }
}

/// The block-subsidy transaction (first in every block).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoinbaseTx {
    /// Height of the containing block (makes the txid unique).
    pub height: u64,
    /// Subsidy + fee outputs.
    pub outputs: Vec<TxOut>,
}

impl Encode for CoinbaseTx {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.height.encode_into(out);
        self.outputs.encode_into(out);
    }
}

/// A mainchain transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum McTransaction {
    /// Block subsidy.
    Coinbase(CoinbaseTx),
    /// Regular transfer (possibly carrying forward transfers).
    Transfer(TransferTx),
    /// Registers a new sidechain (§4.2). The declared config's id must be
    /// unused and unreserved.
    SidechainDeclaration(Box<SidechainConfig>),
    /// A withdrawal certificate posting (Def 4.4).
    Certificate(Box<WithdrawalCertificate>),
    /// A backward transfer request (Def 4.5).
    Btr(Box<BackwardTransferRequest>),
    /// A ceased sidechain withdrawal (Def 4.6).
    Csw(Box<CeasedSidechainWithdrawal>),
}

impl McTransaction {
    /// The transaction id.
    pub fn txid(&self) -> Digest32 {
        match self {
            McTransaction::Coinbase(tx) => digest("zendoo/mc-tx-coinbase", tx),
            McTransaction::Transfer(tx) => digest("zendoo/mc-tx-transfer", tx),
            McTransaction::SidechainDeclaration(config) => {
                digest("zendoo/mc-tx-declare", &DeclarationEncoding(config))
            }
            McTransaction::Certificate(cert) => digest("zendoo/mc-tx-cert", cert.as_ref()),
            McTransaction::Btr(btr) => digest("zendoo/mc-tx-btr", btr.as_ref()),
            McTransaction::Csw(csw) => digest("zendoo/mc-tx-csw", csw.as_ref()),
        }
    }

    /// Canonical encoded size in bytes: the [`Encode`] form of the
    /// inner payload plus one byte for the transaction-kind tag. The
    /// mempool uses this for byte budgeting and fee-rate ordering.
    pub fn encoded_size(&self) -> usize {
        1 + match self {
            McTransaction::Coinbase(tx) => tx.encoded().len(),
            McTransaction::Transfer(tx) => tx.encoded().len(),
            McTransaction::SidechainDeclaration(config) => {
                DeclarationEncoding(config).encoded().len()
            }
            McTransaction::Certificate(cert) => cert.as_ref().encoded().len(),
            McTransaction::Btr(btr) => btr.as_ref().encoded().len(),
            McTransaction::Csw(csw) => csw.as_ref().encoded().len(),
        }
    }

    /// Returns the forward transfers carried by this transaction.
    pub fn forward_transfers(&self) -> Vec<&ForwardTransfer> {
        match self {
            McTransaction::Transfer(tx) => tx
                .outputs
                .iter()
                .filter_map(|o| match o {
                    Output::Forward(ft) => Some(ft),
                    Output::Regular(_) => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// The transfer sighash over its two ingredients.
fn sighash_of(outpoints: &[OutPoint], outputs: &[Output]) -> Digest32 {
    digest(SIGHASH_CONTEXT, &(outpoints, outputs))
}

/// The keypair escrow-claiming transactions fill their inputs with.
///
/// **Not an authority.** The seed is public and anyone can derive it;
/// consensus ignores signatures on escrow-kind inputs entirely (the
/// spend is authorized by the settlement/refund rules, nothing else).
/// A shared deterministic filler just keeps escrow-claim transaction
/// ids identical across nodes.
pub fn escrow_claim_keypair() -> &'static Keypair {
    static CLAIM: std::sync::OnceLock<Keypair> = std::sync::OnceLock::new();
    CLAIM.get_or_init(|| Keypair::from_seed(b"zendoo/escrow-claim-v1"))
}

/// The address derived from [`escrow_claim_keypair`] — lets observers
/// recognize escrow-claiming transactions (e.g. refund transactions,
/// which carry no settlement batch) without consulting the UTXO set.
pub fn escrow_claim_address() -> Address {
    static ADDRESS: std::sync::OnceLock<Address> = std::sync::OnceLock::new();
    *ADDRESS.get_or_init(|| Address::from_public_key(&escrow_claim_keypair().public))
}

/// Canonical encoding of a sidechain declaration for id purposes.
struct DeclarationEncoding<'a>(&'a SidechainConfig);

impl Encode for DeclarationEncoding<'_> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.id.encode_into(out);
        self.0.schedule.start_block().encode_into(out);
        self.0.schedule.epoch_len().encode_into(out);
        self.0.schedule.submit_len().encode_into(out);
        self.0.wcert_vk.digest().encode_into(out);
        self.0
            .btr_vk
            .as_ref()
            .map(|vk| vk.digest())
            .encode_into(out);
        self.0
            .csw_vk
            .as_ref()
            .map(|vk| vk.digest())
            .encode_into(out);
        self.0.wcert_proofdata.encode_into(out);
        self.0.btr_proofdata.encode_into(out);
        self.0.csw_proofdata.encode_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_core::ids::SidechainId;
    use zendoo_primitives::schnorr::Keypair;

    fn keypair(seed: &[u8]) -> Keypair {
        Keypair::from_seed(seed)
    }

    fn outpoint(n: u8) -> OutPoint {
        OutPoint {
            txid: Digest32::hash_bytes(&[n]),
            index: 0,
        }
    }

    #[test]
    fn signed_transfer_inputs_verify() {
        let kp = keypair(b"alice");
        let tx = TransferTx::signed(
            &[(outpoint(1), &kp.secret)],
            vec![Output::Regular(TxOut::regular(
                Address::from_label("bob"),
                Amount::from_units(9),
            ))],
        );
        assert_eq!(tx.inputs[0].pubkey, kp.public);
        assert!(tx.inputs[0].verify_signature(&tx.sighash()));
    }

    #[test]
    fn signed_transfer_known_answer() {
        // Generated while `signed` still signed a placeholder first: the
        // single-pass form produces the same bytes.
        let (alice, bob) = (keypair(b"alice"), keypair(b"bob"));
        let tx = TransferTx::signed(
            &[(outpoint(1), &alice.secret), (outpoint(2), &bob.secret)],
            vec![Output::Regular(TxOut::regular(
                Address::from_label("carol"),
                Amount::from_units(9),
            ))],
        );
        assert_eq!(
            McTransaction::Transfer(tx).txid().to_hex(),
            "ddf7cb4c1674ee542d99c41be0eb06cde4cd575c7580191d06a507a5d6205200"
        );
    }

    #[test]
    fn wrong_key_fails_address_binding() {
        let alice = keypair(b"alice");
        let mallory = keypair(b"mallory");
        let spent = TxOut::regular(
            Address::from_public_key(&alice.public),
            Amount::from_units(10),
        );
        // Mallory signs with her own key: the signature holds, and the
        // key does not own the output.
        let tx = TransferTx::signed(&[(outpoint(1), &mallory.secret)], vec![]);
        assert!(tx.inputs[0].verify_signature(&tx.sighash()));
        assert_ne!(
            Address::from_public_key(&tx.inputs[0].pubkey),
            spent.address
        );
    }

    #[test]
    fn tampering_with_outputs_invalidates_signature() {
        let kp = keypair(b"alice");
        let mut tx = TransferTx::signed(
            &[(outpoint(1), &kp.secret)],
            vec![Output::Regular(TxOut::regular(
                Address::from_label("bob"),
                Amount::from_units(9),
            ))],
        );
        tx.outputs[0] = Output::Regular(TxOut::regular(
            Address::from_label("mallory"),
            Amount::from_units(9),
        ));
        assert!(!tx.inputs[0].verify_signature(&tx.sighash()));
    }

    #[test]
    fn forward_transfers_extracted() {
        let kp = keypair(b"alice");
        let ft = ForwardTransfer {
            sidechain_id: SidechainId::from_label("sc"),
            receiver_metadata: vec![1],
            amount: Amount::from_units(5),
        };
        let tx = McTransaction::Transfer(TransferTx::signed(
            &[(outpoint(1), &kp.secret)],
            vec![
                Output::Forward(ft.clone()),
                Output::Regular(TxOut::regular(
                    Address::from_label("change"),
                    Amount::from_units(4),
                )),
            ],
        ));
        assert_eq!(tx.forward_transfers(), vec![&ft]);
        assert!(McTransaction::Coinbase(CoinbaseTx {
            height: 0,
            outputs: vec![]
        })
        .forward_transfers()
        .is_empty());
    }

    #[test]
    fn txids_are_kind_separated() {
        let cb = McTransaction::Coinbase(CoinbaseTx {
            height: 5,
            outputs: vec![],
        });
        let transfer = McTransaction::Transfer(TransferTx {
            inputs: vec![],
            outputs: vec![],
        });
        assert_ne!(cb.txid(), transfer.txid());
    }

    #[test]
    fn total_output_detects_overflow() {
        let tx = TransferTx {
            inputs: vec![],
            outputs: vec![
                Output::Regular(TxOut::regular(
                    Address::from_label("a"),
                    Amount::from_units(u64::MAX),
                )),
                Output::Regular(TxOut::regular(
                    Address::from_label("b"),
                    Amount::from_units(1),
                )),
            ],
        };
        assert_eq!(tx.total_output(), None);
    }
}
