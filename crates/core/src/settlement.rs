//! Windowed batch settlement of matured cross-chain transfers.
//!
//! One maturity window of a source sidechain can release many escrowed
//! cross-chain transfers at once. Instead of one mainchain transaction
//! per transfer, the router aggregates every matured transfer of a
//! window bound for the same destination into a single
//! [`SettlementBatch`]: one multi-input mainchain transaction spending
//! all of that destination's escrow UTXOs into **one** forward transfer
//! whose receiver metadata carries the per-receiver breakdown.
//!
//! The batch is self-authenticating: its metadata embeds a
//! [`SettlementBatch::commitment`] over `(source, epoch, dest,
//! transfers)`. The mainchain recomputes the commitment when it applies
//! the settlement transaction and matches every entry against the
//! escrow-kind UTXOs the transaction consumes
//! ([`crate::escrow::validate_escrow_spend`]) — a forged or tampered
//! batch invalidates the whole block. The destination sidechain decodes
//! the same metadata to mint one UTXO per entry.

use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{decode_with, Encode};

use crate::crosschain::{encode_xct_entries, read_xct_entries, CrossChainTransfer, XCT_WIRE_LEN};
use crate::ids::{Amount, EpochId, SidechainId};
use crate::transfer::ForwardTransfer;

/// Version tag prefixing aggregated settlement receiver metadata. A
/// forward transfer whose metadata starts with this magic is a batched
/// cross-chain settlement.
pub const XSB_MAGIC: &[u8; 5] = b"XSBv1";

/// Fixed-size header of encoded settlement metadata:
/// `magic ‖ source ‖ epoch(u32) ‖ dest ‖ commitment ‖ count(u32)`.
pub const XSB_HEADER_LEN: usize = XSB_MAGIC.len() + 32 + 4 + 32 + 32 + 4;

/// All matured transfers of one maturity window `(source, epoch)` bound
/// for one destination sidechain, settled by a single mainchain
/// transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SettlementBatch {
    /// The sidechain whose certificate escrowed the transfers.
    pub source: SidechainId,
    /// The withdrawal epoch whose window matured.
    pub epoch: EpochId,
    /// The destination sidechain all entries are bound for.
    pub dest: SidechainId,
    /// The aggregated transfers, in escrow (BT-list) order.
    pub transfers: Vec<CrossChainTransfer>,
}

/// Why a settlement batch (or the transaction carrying it) is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SettlementError {
    /// The metadata bytes do not decode as a settlement batch.
    Malformed,
    /// The embedded commitment does not match the batch contents.
    ForgedCommitment {
        /// The commitment the metadata claims.
        claimed: Digest32,
        /// The commitment recomputed from the entries.
        actual: Digest32,
    },
    /// The batch declares no transfers.
    Empty,
    /// An entry's destination differs from the batch destination.
    DestMismatch {
        /// Index of the offending entry.
        index: usize,
    },
    /// An entry's source differs from the batch source.
    SourceMismatch {
        /// Index of the offending entry.
        index: usize,
    },
    /// An entry's nullifier does not match its fields.
    BadNullifier {
        /// Index of the offending entry.
        index: usize,
    },
    /// The forward transfer's amount differs from the entry total.
    AmountMismatch {
        /// Value of the carrying forward transfer.
        carried: Amount,
        /// Sum of the batch entries.
        declared: Amount,
    },
    /// The forward transfer carrying the batch targets a different
    /// sidechain than the batch destination.
    CarrierMismatch {
        /// Sidechain the forward transfer pays into.
        carried: SidechainId,
        /// Destination the batch declares.
        batch: SidechainId,
    },
    /// Amount arithmetic overflowed (adversarial input).
    AmountOverflow,
}

impl std::fmt::Display for SettlementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SettlementError::Malformed => write!(f, "settlement metadata undecodable"),
            SettlementError::ForgedCommitment { claimed, actual } => write!(
                f,
                "settlement commitment forged: claimed {claimed}, recomputed {actual}"
            ),
            SettlementError::Empty => write!(f, "settlement batch declares no transfers"),
            SettlementError::DestMismatch { index } => {
                write!(f, "entry {index} names a different destination")
            }
            SettlementError::SourceMismatch { index } => {
                write!(f, "entry {index} names a different source")
            }
            SettlementError::BadNullifier { index } => {
                write!(f, "entry {index} nullifier does not match its fields")
            }
            SettlementError::AmountMismatch { carried, declared } => write!(
                f,
                "forward transfer carries {carried} but entries sum to {declared}"
            ),
            SettlementError::CarrierMismatch { carried, batch } => write!(
                f,
                "forward transfer targets {carried} but the batch declares {batch}"
            ),
            SettlementError::AmountOverflow => write!(f, "amount arithmetic overflow"),
        }
    }
}

impl std::error::Error for SettlementError {}

impl SettlementBatch {
    /// Builds a batch, asserting nothing — call
    /// [`SettlementBatch::validate`] (or decode round-trip) for the
    /// structural rules.
    pub fn new(
        source: SidechainId,
        epoch: EpochId,
        dest: SidechainId,
        transfers: Vec<CrossChainTransfer>,
    ) -> Self {
        SettlementBatch {
            source,
            epoch,
            dest,
            transfers,
        }
    }

    /// Total value settled by the batch (`None` on overflow).
    pub fn total_amount(&self) -> Option<Amount> {
        Amount::checked_sum(self.transfers.iter().map(|t| t.amount))
    }

    /// The binding commitment over `(source, epoch, dest, transfers)`.
    pub fn commitment(&self) -> Digest32 {
        let mut entries = Vec::with_capacity(self.transfers.len() * XCT_WIRE_LEN);
        for xct in &self.transfers {
            xct.encode_into(&mut entries);
        }
        Digest32::hash_tagged(
            "zendoo/settlement-batch",
            &[
                self.source.0.as_bytes(),
                &self.epoch.to_be_bytes(),
                self.dest.0.as_bytes(),
                &entries,
            ],
        )
    }

    /// Structural validity: non-empty, uniform source/destination and
    /// consistent nullifiers.
    ///
    /// # Errors
    ///
    /// [`SettlementError`] naming the violated rule.
    pub fn validate(&self) -> Result<(), SettlementError> {
        if self.transfers.is_empty() {
            return Err(SettlementError::Empty);
        }
        for (index, xct) in self.transfers.iter().enumerate() {
            if xct.dest != self.dest {
                return Err(SettlementError::DestMismatch { index });
            }
            if xct.source != self.source {
                return Err(SettlementError::SourceMismatch { index });
            }
            if !xct.nullifier_consistent() {
                return Err(SettlementError::BadNullifier { index });
            }
        }
        Ok(())
    }

    /// Encodes the batch as forward-transfer receiver metadata:
    /// `XSB_MAGIC ‖ source ‖ epoch ‖ dest ‖ commitment ‖ count ‖
    /// entries` (entries in [`CrossChainTransfer`] wire form).
    pub fn receiver_metadata(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(XSB_HEADER_LEN + self.transfers.len() * XCT_WIRE_LEN);
        out.extend_from_slice(XSB_MAGIC);
        (self.source, self.epoch, self.dest).encode_into(&mut out);
        self.commitment().encode_into(&mut out);
        encode_xct_entries(&self.transfers, &mut out);
        out
    }

    /// The forward transfer settling this batch on the mainchain.
    pub fn forward_transfer(&self) -> Option<ForwardTransfer> {
        Some(ForwardTransfer {
            sidechain_id: self.dest,
            receiver_metadata: self.receiver_metadata(),
            amount: self.total_amount()?,
        })
    }
}

/// Decodes settlement receiver metadata. `None` when `bytes` does not
/// start with [`XSB_MAGIC`] (the metadata is not a settlement);
/// `Some(Err)` when it claims to be one but is malformed, forged, or
/// structurally invalid. `Some(Ok)` implies the embedded commitment
/// matched and [`SettlementBatch::validate`] passed.
pub fn decode_settlement_metadata(
    bytes: &[u8],
) -> Option<Result<SettlementBatch, SettlementError>> {
    bytes.strip_prefix(XSB_MAGIC.as_slice()).map(decode_tagged)
}

fn decode_tagged(body: &[u8]) -> Result<SettlementBatch, SettlementError> {
    let (batch, claimed) = decode_with(body, |r| {
        let (source, epoch, dest, claimed) = (r.read()?, r.read()?, r.read()?, r.read()?);
        let batch = SettlementBatch::new(source, epoch, dest, read_xct_entries(r)?);
        Ok((batch, claimed))
    })
    .map_err(|_| SettlementError::Malformed)?;
    let actual = batch.commitment();
    if actual != claimed {
        return Err(SettlementError::ForgedCommitment { claimed, actual });
    }
    batch.validate()?;
    Ok(batch)
}

/// Classifies one forward-transfer output for settlement purposes:
/// `Ok(None)` for a plain (non-settlement) transfer, `Ok(Some(batch))`
/// for a well-formed batch whose total equals the carried amount and
/// whose destination matches the carrying transfer, and `Err`
/// otherwise. The single source of truth for the per-output settlement
/// rule — both mempool admission and block application use it.
///
/// # Errors
///
/// [`SettlementError`] naming the violated rule.
pub fn check_settlement_output(
    ft: &ForwardTransfer,
) -> Result<Option<SettlementBatch>, SettlementError> {
    match decode_settlement_metadata(&ft.receiver_metadata) {
        None => Ok(None),
        Some(Err(e)) => Err(e),
        Some(Ok(batch)) => {
            let declared = batch
                .total_amount()
                .ok_or(SettlementError::AmountOverflow)?;
            if declared != ft.amount {
                return Err(SettlementError::AmountMismatch {
                    carried: ft.amount,
                    declared,
                });
            }
            if batch.dest != ft.sidechain_id {
                return Err(SettlementError::CarrierMismatch {
                    carried: ft.sidechain_id,
                    batch: batch.dest,
                });
            }
            Ok(Some(batch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Address;

    fn xct(nonce: u64, amount: u64) -> CrossChainTransfer {
        CrossChainTransfer::new(
            SidechainId::from_label("src"),
            SidechainId::from_label("dst"),
            Address::from_label(&format!("recv-{nonce}")),
            Amount::from_units(amount),
            nonce,
            Address::from_label("payback"),
        )
    }

    fn batch(n: usize) -> SettlementBatch {
        SettlementBatch::new(
            SidechainId::from_label("src"),
            3,
            SidechainId::from_label("dst"),
            (0..n).map(|i| xct(i as u64, 100 + i as u64)).collect(),
        )
    }

    #[test]
    fn metadata_roundtrip() {
        let b = batch(3);
        let decoded = decode_settlement_metadata(&b.receiver_metadata())
            .expect("tagged")
            .expect("valid");
        assert_eq!(decoded, b);
        assert!(decode_settlement_metadata(b"not-a-batch").is_none());
        // Classic 64-byte Latus metadata must not be mistaken for a batch.
        assert!(decode_settlement_metadata(&[0u8; 64]).is_none());
    }

    #[test]
    fn truncated_metadata_rejected() {
        let mut bytes = batch(2).receiver_metadata();
        bytes.pop();
        assert_eq!(
            decode_settlement_metadata(&bytes),
            Some(Err(SettlementError::Malformed))
        );
    }

    #[test]
    fn forged_commitment_rejected() {
        let b = batch(2);
        let mut bytes = b.receiver_metadata();
        // Tamper with one entry's amount (inside the entry region).
        let tamper_at = XSB_HEADER_LEN + 96;
        bytes[tamper_at] ^= 0x01;
        assert!(matches!(
            decode_settlement_metadata(&bytes),
            Some(Err(SettlementError::ForgedCommitment { .. }))
        ));
        // Tampering with the commitment itself is equally fatal.
        let mut bytes = b.receiver_metadata();
        bytes[XSB_MAGIC.len() + 68] ^= 0x01;
        assert!(matches!(
            decode_settlement_metadata(&bytes),
            Some(Err(SettlementError::ForgedCommitment { .. }))
        ));
    }

    #[test]
    fn empty_batch_rejected() {
        let empty = SettlementBatch::new(
            SidechainId::from_label("src"),
            0,
            SidechainId::from_label("dst"),
            vec![],
        );
        assert_eq!(
            decode_settlement_metadata(&empty.receiver_metadata()),
            Some(Err(SettlementError::Empty))
        );
    }

    #[test]
    fn mixed_destination_rejected() {
        let mut stray = xct(9, 50);
        stray.dest = SidechainId::from_label("elsewhere");
        stray.nullifier = stray.derive_nullifier();
        let mut b = batch(1);
        b.transfers.push(stray);
        assert!(matches!(
            decode_settlement_metadata(&b.receiver_metadata()),
            Some(Err(SettlementError::DestMismatch { index: 1 }))
        ));
    }

    /// A batch entry from another source chain is refused by name, on
    /// the decoded carrier and by the batch itself.
    #[test]
    fn a_batch_entry_from_another_source_is_refused_by_name() {
        let mut stray = xct(9, 50);
        stray.source = SidechainId::from_label("elsewhere");
        stray.nullifier = stray.derive_nullifier();
        let mut b = batch(2);
        b.transfers.push(stray);
        assert_eq!(
            b.validate(),
            Err(SettlementError::SourceMismatch { index: 2 })
        );
        assert!(matches!(
            decode_settlement_metadata(&b.receiver_metadata()),
            Some(Err(SettlementError::SourceMismatch { index: 2 }))
        ));
    }

    /// An entry whose nullifier is not the one its fields derive is
    /// refused by name, by the batch and on the decoded carrier: the
    /// commitment covers the entry as written, so it does not catch it.
    #[test]
    fn a_batch_entry_with_a_foreign_nullifier_is_refused_as_bad_nullifier() {
        let mut b = batch(3);
        b.transfers[1].nullifier = b.transfers[0].nullifier;
        assert_eq!(
            b.validate(),
            Err(SettlementError::BadNullifier { index: 1 })
        );
        assert_eq!(
            decode_settlement_metadata(&b.receiver_metadata()),
            Some(Err(SettlementError::BadNullifier { index: 1 }))
        );
        let ft = ForwardTransfer {
            sidechain_id: b.dest,
            receiver_metadata: b.receiver_metadata(),
            amount: b.total_amount().expect("small amounts"),
        };
        assert_eq!(
            check_settlement_output(&ft),
            Err(SettlementError::BadNullifier { index: 1 })
        );
    }

    #[test]
    fn commitment_binds_window_and_entries() {
        let a = batch(2);
        let mut other_epoch = a.clone();
        other_epoch.epoch = 4;
        assert_ne!(a.commitment(), other_epoch.commitment());
        let mut other_entries = a.clone();
        other_entries.transfers[0].amount = Amount::from_units(1);
        assert_ne!(a.commitment(), other_entries.commitment());
    }

    #[test]
    fn check_settlement_output_enforces_carrier_rules() {
        let b = batch(2);
        let ft = b.forward_transfer().unwrap();
        assert_eq!(check_settlement_output(&ft).unwrap(), Some(b.clone()));
        // A plain FT is not a settlement.
        let plain = ForwardTransfer {
            sidechain_id: b.dest,
            receiver_metadata: vec![0u8; 64],
            amount: Amount::from_units(1),
        };
        assert_eq!(check_settlement_output(&plain), Ok(None));
        // Amount skim.
        let mut skimmed = b.forward_transfer().unwrap();
        skimmed.amount = Amount::from_units(1);
        assert!(matches!(
            check_settlement_output(&skimmed),
            Err(SettlementError::AmountMismatch { .. })
        ));
        // Carrier targets a different sidechain than the batch.
        let mut misrouted = b.forward_transfer().unwrap();
        misrouted.sidechain_id = SidechainId::from_label("elsewhere");
        assert!(matches!(
            check_settlement_output(&misrouted),
            Err(SettlementError::CarrierMismatch { .. })
        ));
    }

    /// A batch whose entries sum past `u64::MAX` decodes — each entry is
    /// well formed and the commitment matches — and its carrier is
    /// refused by name when the entry total is taken. The check reads
    /// the output alone, which is left as it was.
    #[test]
    fn a_batch_whose_entries_sum_past_u64_max_is_refused_by_name() {
        let b = SettlementBatch::new(
            SidechainId::from_label("src"),
            3,
            SidechainId::from_label("dst"),
            vec![xct(0, u64::MAX), xct(1, 1)],
        );
        assert_eq!(b.forward_transfer(), None);
        let ft = ForwardTransfer {
            sidechain_id: b.dest,
            receiver_metadata: b.receiver_metadata(),
            amount: Amount::from_units(u64::MAX),
        };
        assert_eq!(
            decode_settlement_metadata(&ft.receiver_metadata),
            Some(Ok(b))
        );
        let before = ft.clone();
        assert_eq!(
            check_settlement_output(&ft),
            Err(SettlementError::AmountOverflow)
        );
        assert_eq!(ft, before);
    }

    #[test]
    fn forward_transfer_carries_total() {
        let b = batch(3);
        let ft = b.forward_transfer().unwrap();
        assert_eq!(ft.sidechain_id, b.dest);
        assert_eq!(ft.amount, b.total_amount().unwrap());
        let decoded = decode_settlement_metadata(&ft.receiver_metadata)
            .unwrap()
            .unwrap();
        assert_eq!(decoded, b);
    }
}
