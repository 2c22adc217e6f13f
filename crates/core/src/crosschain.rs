//! Sidechain→sidechain transfers routed through the mainchain.
//!
//! Zendoo's mainchain already acts as a registry and settlement layer
//! for many decoupled sidechains; the follow-up work "Trustless
//! Cross-chain Communication for Zendoo Sidechains" (arXiv:2209.03907)
//! observes that the same certificate machinery lets two sidechains
//! exchange value *through* the mainchain without trusting each other's
//! consensus. This module holds the protocol-level pieces:
//!
//! * [`CrossChainTransfer`] — the transfer message: source/destination
//!   ledger ids, destination receiver, amount, a sender nonce, a
//!   mainchain payback address for the refund path, and the derived
//!   [`Nullifier`] that makes the message one-shot;
//! * an **escrow convention**: each declared transfer must be matched,
//!   in order, by a backward transfer of equal amount paying the escrow
//!   address inside the same certificate's `BTList` — so declaring a
//!   cross-chain transfer *necessarily* moves the coins out of the
//!   source sidechain's safeguard balance (conservation by
//!   construction, enforced by [`check_escrow_pairing`]);
//! * a **proofdata commitment**: the declared transfer list is encoded
//!   as one `Bytes` proofdata element ([`encode_xct_list`]). Since
//!   `MH(proofdata)` is part of the certificate's SNARK public input,
//!   the transfer list is covered by the certificate proof — the
//!   verifier hook used by both the mainchain registry and the Latus
//!   certificate circuit;
//! * [`CrossChainReceipt`] / [`DeliveryStatus`] — the per-transfer
//!   outcome record produced by the router in `zendoo-crosschain`.
//!
//! The delivery half (maturity tracking, nullifier bookkeeping across
//! epochs, forward-transfer injection and refunds) lives in the
//! `zendoo-crosschain` crate's `CrossChainRouter`.

use serde::{Deserialize, Serialize};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{digest, Encode};
use zendoo_primitives::schnorr::Keypair;

use crate::certificate::WithdrawalCertificate;
use crate::ids::{Address, Amount, Nullifier, SidechainId};
use crate::transfer::BackwardTransfer;

/// Version tag prefixing an encoded declared-transfer list. A proofdata
/// `Bytes` element starting with this magic is interpreted as a
/// cross-chain declaration by the mainchain.
pub const XCT_MAGIC: &[u8; 5] = b"XCTv1";

/// Byte length of one encoded [`CrossChainTransfer`].
pub const XCT_WIRE_LEN: usize = 32 + 32 + 32 + 8 + 8 + 32 + 32;

/// Byte length of the cross-chain receiver metadata carried by the
/// delivery forward transfer: `receiver ‖ payback ‖ source ‖ nonce`.
pub const XCT_METADATA_LEN: usize = 32 + 32 + 32 + 8;

/// A sidechain→sidechain transfer message.
///
/// Declared by the **source** sidechain as part of a withdrawal
/// certificate; delivered to the **destination** sidechain as a forward
/// transfer once the certificate matures on the mainchain.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CrossChainTransfer {
    /// The declaring (paying) sidechain.
    pub source: SidechainId,
    /// The receiving sidechain.
    pub dest: SidechainId,
    /// The receiver's address *on the destination sidechain*.
    pub receiver: Address,
    /// Coins to move.
    pub amount: Amount,
    /// Sender-chosen uniqueness nonce (per source sidechain).
    pub nonce: u64,
    /// Mainchain address refunded when delivery is impossible (unknown
    /// or ceased destination).
    pub payback: Address,
    /// The transfer's one-shot identifier; must equal
    /// [`CrossChainTransfer::derive_nullifier`].
    pub nullifier: Nullifier,
}

impl CrossChainTransfer {
    /// Builds a transfer with a consistent nullifier.
    pub fn new(
        source: SidechainId,
        dest: SidechainId,
        receiver: Address,
        amount: Amount,
        nonce: u64,
        payback: Address,
    ) -> Self {
        let mut xct = CrossChainTransfer {
            source,
            dest,
            receiver,
            amount,
            nonce,
            payback,
            nullifier: Nullifier(Digest32::ZERO),
        };
        xct.nullifier = xct.derive_nullifier();
        xct
    }

    /// Recomputes the canonical nullifier from the message fields.
    pub fn derive_nullifier(&self) -> Nullifier {
        Nullifier(Digest32::hash_tagged(
            "zendoo/xct-nullifier",
            &[
                self.source.0.as_bytes(),
                self.dest.0.as_bytes(),
                self.receiver.0.as_bytes(),
                &self.amount.units().to_be_bytes(),
                &self.nonce.to_be_bytes(),
                self.payback.0.as_bytes(),
            ],
        ))
    }

    /// Returns `true` when the carried nullifier matches the fields.
    pub fn nullifier_consistent(&self) -> bool {
        self.nullifier == self.derive_nullifier()
    }

    /// The message digest (receipt/bookkeeping identity).
    pub fn digest(&self) -> Digest32 {
        digest("zendoo/xct", self)
    }

    /// The receiver metadata the delivery forward transfer carries:
    /// `receiver ‖ payback ‖ source ‖ nonce` ([`XCT_METADATA_LEN`]
    /// bytes). The destination sidechain parses this with
    /// [`parse_cross_metadata`].
    pub fn receiver_metadata(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(XCT_METADATA_LEN);
        out.extend_from_slice(self.receiver.0.as_bytes());
        out.extend_from_slice(self.payback.0.as_bytes());
        out.extend_from_slice(self.source.0.as_bytes());
        out.extend_from_slice(&self.nonce.to_be_bytes());
        out
    }
}

impl Encode for CrossChainTransfer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.source.encode_into(out);
        self.dest.encode_into(out);
        self.receiver.encode_into(out);
        self.amount.encode_into(out);
        self.nonce.encode_into(out);
        self.payback.encode_into(out);
        self.nullifier.encode_into(out);
    }
}

/// Parsed cross-chain receiver metadata (the destination-side view of a
/// delivery forward transfer).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CrossChainMetadata {
    /// Destination-sidechain address to credit.
    pub receiver: Address,
    /// Mainchain refund address (used on slot collisions).
    pub payback: Address,
    /// The sidechain the coins came from.
    pub source: SidechainId,
    /// The originating transfer's nonce.
    pub nonce: u64,
}

/// Parses [`XCT_METADATA_LEN`]-byte cross-chain receiver metadata.
pub fn parse_cross_metadata(bytes: &[u8]) -> Option<CrossChainMetadata> {
    if bytes.len() != XCT_METADATA_LEN {
        return None;
    }
    let word = |i: usize| -> [u8; 32] {
        let mut out = [0u8; 32];
        out.copy_from_slice(&bytes[i * 32..(i + 1) * 32]);
        out
    };
    let mut nonce = [0u8; 8];
    nonce.copy_from_slice(&bytes[96..104]);
    Some(CrossChainMetadata {
        receiver: Address(Digest32(word(0))),
        payback: Address(Digest32(word(1))),
        source: SidechainId(Digest32(word(2))),
        nonce: u64::from_be_bytes(nonce),
    })
}

/// Seed of the historic "escrow authority" keypair. Only the derived
/// *address* matters now — it marks escrow backward transfers inside a
/// certificate's `BTList` — and the escrow UTXOs created for it carry
/// the consensus-enforced escrow output kind, so no key (this one
/// included) can authorize spending them.
const ESCROW_AUTHORITY_SEED: &[u8] = b"zendoo/xct-escrow-authority-v1";

/// The mainchain address escrow backward transfers must pay.
///
/// Purely a marker: it pairs a certificate's escrow backward transfers
/// with its declared cross-chain transfers. The UTXOs the mainchain
/// creates for matured escrow BTs carry the escrow *output kind*
/// ([`crate::escrow::EscrowTag`]), which is what actually governs
/// spending — a signature from the address's historic keypair grants
/// nothing.
///
/// Cached: deriving the public key costs a scalar multiplication, and
/// this sits on the per-certificate validation hot path.
pub fn escrow_address() -> Address {
    static ADDRESS: std::sync::OnceLock<Address> = std::sync::OnceLock::new();
    *ADDRESS
        .get_or_init(|| Address::from_public_key(&Keypair::from_seed(ESCROW_AUTHORITY_SEED).public))
}

/// Why a certificate's cross-chain declaration is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XctError {
    /// The declared-list bytes do not decode.
    Malformed,
    /// A declared transfer names a source other than the certifying
    /// sidechain.
    WrongSource {
        /// The bogus source id.
        declared: SidechainId,
    },
    /// A declared transfer's nullifier does not match its fields.
    BadNullifier,
    /// Source and destination are the same sidechain.
    SelfTransfer,
    /// A declared transfer moves zero coins.
    ZeroAmount,
    /// Declared transfers and escrow backward transfers do not pair up
    /// one-to-one in order.
    EscrowMismatch {
        /// Number of declared transfers.
        declared: usize,
        /// Number of escrow backward transfers in the `BTList`.
        escrowed: usize,
    },
    /// The `i`-th escrow backward transfer's amount differs from the
    /// `i`-th declared transfer's.
    AmountMismatch {
        /// Pair index.
        index: usize,
    },
    /// The same nullifier appears twice within one declaration.
    DuplicateNullifier(Nullifier),
}

impl std::fmt::Display for XctError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XctError::Malformed => write!(f, "declared transfer list undecodable"),
            XctError::WrongSource { declared } => {
                write!(
                    f,
                    "declared source {declared} is not the certifying sidechain"
                )
            }
            XctError::BadNullifier => write!(f, "nullifier does not match transfer fields"),
            XctError::SelfTransfer => write!(f, "source and destination sidechain are equal"),
            XctError::ZeroAmount => write!(f, "cross-chain transfer of zero coins"),
            XctError::EscrowMismatch { declared, escrowed } => write!(
                f,
                "{declared} declared transfers but {escrowed} escrow backward transfers"
            ),
            XctError::AmountMismatch { index } => {
                write!(f, "escrow amount mismatch at pair {index}")
            }
            XctError::DuplicateNullifier(n) => {
                write!(f, "nullifier {n:?} declared twice")
            }
        }
    }
}

impl std::error::Error for XctError {}

/// Encodes a declared-transfer list as one proofdata `Bytes` element:
/// `XCT_MAGIC ‖ count(u32, big-endian) ‖ transfers`.
pub fn encode_xct_list(xcts: &[CrossChainTransfer]) -> Vec<u8> {
    let mut out = Vec::with_capacity(XCT_MAGIC.len() + 4 + xcts.len() * XCT_WIRE_LEN);
    out.extend_from_slice(XCT_MAGIC);
    out.extend_from_slice(&(xcts.len() as u32).to_be_bytes());
    for xct in xcts {
        xct.encode_into(&mut out);
    }
    out
}

/// Decodes a declared-transfer list. `None` when `bytes` does not start
/// with [`XCT_MAGIC`] (the element is not a declaration); `Some(Err)`
/// when it claims to be one but is malformed.
pub fn decode_xct_list(bytes: &[u8]) -> Option<Result<Vec<CrossChainTransfer>, XctError>> {
    if bytes.len() < XCT_MAGIC.len() || &bytes[..XCT_MAGIC.len()] != XCT_MAGIC {
        return None;
    }
    let rest = &bytes[XCT_MAGIC.len()..];
    if rest.len() < 4 {
        return Some(Err(XctError::Malformed));
    }
    let count = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let body = &rest[4..];
    if body.len() != count * XCT_WIRE_LEN {
        return Some(Err(XctError::Malformed));
    }
    let word = |chunk: &[u8], i: usize| -> [u8; 32] {
        let mut out = [0u8; 32];
        out.copy_from_slice(&chunk[i..i + 32]);
        out
    };
    let mut xcts = Vec::with_capacity(count);
    for chunk in body.chunks_exact(XCT_WIRE_LEN) {
        let mut amount = [0u8; 8];
        amount.copy_from_slice(&chunk[96..104]);
        let mut nonce = [0u8; 8];
        nonce.copy_from_slice(&chunk[104..112]);
        xcts.push(CrossChainTransfer {
            source: SidechainId(Digest32(word(chunk, 0))),
            dest: SidechainId(Digest32(word(chunk, 32))),
            receiver: Address(Digest32(word(chunk, 64))),
            amount: Amount::from_units(u64::from_be_bytes(amount)),
            nonce: u64::from_be_bytes(nonce),
            payback: Address(Digest32(word(chunk, 112))),
            nullifier: Nullifier(Digest32(word(chunk, 144))),
        });
    }
    Some(Ok(xcts))
}

/// Extracts the declared cross-chain transfers from a certificate's
/// proofdata. Certificates without a declaration element yield an empty
/// list.
///
/// # Errors
///
/// [`XctError::Malformed`] when a magic-tagged element does not decode.
pub fn declared_transfers(
    cert: &WithdrawalCertificate,
) -> Result<Vec<CrossChainTransfer>, XctError> {
    for elem in &cert.proofdata.0 {
        if let crate::proofdata::ProofDataElem::Bytes(bytes) = elem {
            if let Some(decoded) = decode_xct_list(bytes) {
                return decoded;
            }
        }
    }
    Ok(Vec::new())
}

/// Checks the escrow-pairing conservation rule: the backward transfers
/// paying [`escrow_address`] inside `bt_list` must match `declared`
/// one-to-one, in order, with equal amounts.
///
/// # Errors
///
/// [`XctError::EscrowMismatch`] / [`XctError::AmountMismatch`].
pub fn check_escrow_pairing(
    declared: &[CrossChainTransfer],
    bt_list: &[BackwardTransfer],
) -> Result<(), XctError> {
    let escrow = escrow_address();
    let escrowed: Vec<&BackwardTransfer> =
        bt_list.iter().filter(|bt| bt.receiver == escrow).collect();
    if escrowed.len() != declared.len() {
        return Err(XctError::EscrowMismatch {
            declared: declared.len(),
            escrowed: escrowed.len(),
        });
    }
    for (index, (xct, bt)) in declared.iter().zip(&escrowed).enumerate() {
        if xct.amount != bt.amount {
            return Err(XctError::AmountMismatch { index });
        }
    }
    Ok(())
}

/// Full certificate-level validation of a cross-chain declaration, as
/// the mainchain performs at certificate acceptance: decoding, field
/// consistency, intra-certificate nullifier uniqueness and escrow
/// pairing. Returns the declared transfers (empty when none).
///
/// # Errors
///
/// [`XctError`] naming the violated rule.
pub fn validate_declarations(
    cert: &WithdrawalCertificate,
) -> Result<Vec<CrossChainTransfer>, XctError> {
    let declared = declared_transfers(cert)?;
    let mut seen = std::collections::HashSet::new();
    for xct in &declared {
        if xct.source != cert.sidechain_id {
            return Err(XctError::WrongSource {
                declared: xct.source,
            });
        }
        if !xct.nullifier_consistent() {
            return Err(XctError::BadNullifier);
        }
        if xct.dest == xct.source {
            return Err(XctError::SelfTransfer);
        }
        if xct.amount.is_zero() {
            return Err(XctError::ZeroAmount);
        }
        if !seen.insert(xct.nullifier) {
            return Err(XctError::DuplicateNullifier(xct.nullifier));
        }
    }
    check_escrow_pairing(&declared, &cert.bt_list)?;
    Ok(declared)
}

/// The terminal outcome of one cross-chain transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// Escrowed and waiting for source-certificate maturity.
    Pending,
    /// A forward transfer into the destination sidechain was issued.
    Delivered {
        /// Mainchain height the delivery transaction targets.
        mc_height: u64,
    },
    /// The escrowed coins were returned to the payback address.
    Refunded {
        /// Mainchain height the refund transaction targets.
        mc_height: u64,
        /// Why delivery was impossible.
        reason: RefundReason,
    },
    /// The declaration was rejected outright (nothing was escrowed for
    /// it, or the escrow could not be claimed).
    Rejected {
        /// The violated rule.
        reason: XctError,
    },
    /// The transfer replayed an already-consumed nullifier.
    ReplayRejected,
    /// The tracked certificate lost its window's quality race (or its
    /// payout is otherwise absent), so nothing was escrowed for this
    /// transfer; the winning certificate's own declaration supersedes
    /// it.
    NotEscrowed,
}

/// Why an escrowed transfer was refunded instead of delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefundReason {
    /// The destination sidechain was never registered.
    UnknownDestination,
    /// The destination sidechain ceased before delivery.
    CeasedDestination,
}

/// A per-transfer outcome record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrossChainReceipt {
    /// The transfer.
    pub transfer: CrossChainTransfer,
    /// Its outcome.
    pub status: DeliveryStatus,
}

/// Record of an inbound cross-chain transfer credited on a destination
/// sidechain (tracked by the Latus state for observability).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InboundCrossTransfer {
    /// The paying sidechain.
    pub source: SidechainId,
    /// The originating transfer's nonce.
    pub nonce: u64,
    /// The credited destination-side address.
    pub receiver: Address,
    /// Coins credited.
    pub amount: Amount,
    /// The MC block whose forward transfer delivered the coins.
    pub mc_block: Digest32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Address, Amount};
    use crate::proofdata::{ProofData, ProofDataElem};

    fn xct(nonce: u64, amount: u64) -> CrossChainTransfer {
        CrossChainTransfer::new(
            SidechainId::from_label("src"),
            SidechainId::from_label("dst"),
            Address::from_label("recv"),
            Amount::from_units(amount),
            nonce,
            Address::from_label("payback"),
        )
    }

    fn cert_with(
        declared: &[CrossChainTransfer],
        bt_list: Vec<BackwardTransfer>,
    ) -> WithdrawalCertificate {
        let kp = zendoo_primitives::schnorr::Keypair::from_seed(b"x");
        let sig = kp.secret.sign("zendoo/snark-proof-v1", b"m");
        WithdrawalCertificate {
            sidechain_id: SidechainId::from_label("src"),
            epoch_id: 0,
            quality: 1,
            bt_list,
            proofdata: ProofData(vec![ProofDataElem::Bytes(encode_xct_list(declared))]),
            proof: zendoo_snark::backend::Proof::from_bytes(&sig.to_bytes()).unwrap(),
        }
    }

    fn escrow_bt(amount: u64) -> BackwardTransfer {
        BackwardTransfer {
            receiver: escrow_address(),
            amount: Amount::from_units(amount),
        }
    }

    #[test]
    fn wire_roundtrip() {
        let list = vec![xct(1, 10), xct(2, 20)];
        let encoded = encode_xct_list(&list);
        assert_eq!(decode_xct_list(&encoded), Some(Ok(list)));
        assert_eq!(decode_xct_list(b"not-xct"), None);
        let mut truncated = encode_xct_list(&[xct(1, 10)]);
        truncated.pop();
        assert_eq!(decode_xct_list(&truncated), Some(Err(XctError::Malformed)));
    }

    #[test]
    fn nullifier_binds_every_field() {
        let base = xct(1, 10);
        assert!(base.nullifier_consistent());
        let mut other = base;
        other.nonce = 2;
        assert_ne!(base.derive_nullifier(), other.derive_nullifier());
        let mut tampered = base;
        tampered.amount = Amount::from_units(11);
        assert!(!tampered.nullifier_consistent());
    }

    #[test]
    fn metadata_roundtrip() {
        let t = xct(7, 33);
        let meta = parse_cross_metadata(&t.receiver_metadata()).unwrap();
        assert_eq!(meta.receiver, t.receiver);
        assert_eq!(meta.payback, t.payback);
        assert_eq!(meta.source, t.source);
        assert_eq!(meta.nonce, 7);
        assert!(parse_cross_metadata(&[0u8; 64]).is_none());
    }

    #[test]
    fn valid_declaration_accepted() {
        let list = [xct(1, 10), xct(2, 20)];
        let cert = cert_with(&list, vec![escrow_bt(10), escrow_bt(20)]);
        assert_eq!(validate_declarations(&cert).unwrap(), list.to_vec());
    }

    #[test]
    fn declaration_without_escrow_rejected() {
        let cert = cert_with(&[xct(1, 10)], vec![]);
        assert!(matches!(
            validate_declarations(&cert),
            Err(XctError::EscrowMismatch {
                declared: 1,
                escrowed: 0
            })
        ));
    }

    #[test]
    fn escrow_amount_mismatch_rejected() {
        let cert = cert_with(&[xct(1, 10)], vec![escrow_bt(9)]);
        assert!(matches!(
            validate_declarations(&cert),
            Err(XctError::AmountMismatch { index: 0 })
        ));
    }

    #[test]
    fn tampered_nullifier_rejected() {
        let mut bad = xct(1, 10);
        bad.nullifier = Nullifier(Digest32::hash_bytes(b"forged"));
        let cert = cert_with(&[bad], vec![escrow_bt(10)]);
        assert_eq!(validate_declarations(&cert), Err(XctError::BadNullifier));
    }

    #[test]
    fn wrong_source_and_self_transfer_rejected() {
        let mut foreign = xct(1, 10);
        foreign.source = SidechainId::from_label("other");
        foreign.nullifier = foreign.derive_nullifier();
        let cert = cert_with(&[foreign], vec![escrow_bt(10)]);
        assert!(matches!(
            validate_declarations(&cert),
            Err(XctError::WrongSource { .. })
        ));

        let mut circular = xct(1, 10);
        circular.dest = circular.source;
        circular.nullifier = circular.derive_nullifier();
        let cert = cert_with(&[circular], vec![escrow_bt(10)]);
        assert_eq!(validate_declarations(&cert), Err(XctError::SelfTransfer));
    }

    #[test]
    fn duplicate_nullifier_in_one_cert_rejected() {
        let t = xct(1, 10);
        let cert = cert_with(&[t, t], vec![escrow_bt(10), escrow_bt(10)]);
        assert!(matches!(
            validate_declarations(&cert),
            Err(XctError::DuplicateNullifier(_))
        ));
    }

    #[test]
    fn certificates_without_declarations_are_empty() {
        let kp = zendoo_primitives::schnorr::Keypair::from_seed(b"x");
        let sig = kp.secret.sign("zendoo/snark-proof-v1", b"m");
        let cert = WithdrawalCertificate {
            sidechain_id: SidechainId::from_label("src"),
            epoch_id: 0,
            quality: 1,
            bt_list: vec![],
            proofdata: ProofData::empty(),
            proof: zendoo_snark::backend::Proof::from_bytes(&sig.to_bytes()).unwrap(),
        };
        assert_eq!(validate_declarations(&cert).unwrap(), vec![]);
    }
}
