//! The consensus-enforced escrow output kind.
//!
//! Escrowed cross-chain value used to be modeled as mainchain UTXOs
//! controlled by a well-known "escrow authority" keypair — a trusted
//! operator. That caveat is gone: when a withdrawal certificate's
//! cross-chain declaration matures, the mainchain now creates its
//! escrow UTXOs with a structural **escrow kind** carrying an
//! [`EscrowTag`] — the maturity window `(source, epoch)`, the declared
//! destination sidechain, the refund (payback) address and the
//! transfer's nullifier. Spending an escrow-kind output is authorized
//! by *consensus rules*, never by a signature:
//!
//! * a **settlement** spend must carry
//!   [`SettlementBatch`]-tagged forward transfers whose entries match
//!   the consumed escrow tags one-to-one (window, destination, payback
//!   and nullifier all bind — and the nullifier itself binds every
//!   transfer field, including the receiver);
//! * a **refund** spend is only valid while the tagged destination is
//!   *not* active (ceased or never registered), and must pay each
//!   consumed input's exact amount to its tagged payback address;
//! * everything else — key-signed spends (including the historic
//!   escrow-authority key), value splits, plain forward transfers,
//!   escrow-to-escrow laundering, fee skims — is rejected with a
//!   precise [`EscrowError`].
//!
//! The matching is exact and fee-free by construction: every consumed
//! input is claimed by exactly one settlement entry or one refund
//! output, and no output may be left unaccounted, so an escrow spend
//! can neither leak value to the miner nor to a third party.
//!
//! [`validate_escrow_spend`] is the single source of truth; the
//! mainchain's block pipeline applies it to every transaction that
//! consumes an escrow-kind input (or carries a settlement batch).

use zendoo_primitives::encode::{Decode, DecodeError, Encode, Reader};

use crate::crosschain::CrossChainTransfer;
use crate::ids::{Address, Amount, EpochId, Nullifier, SidechainId};
use crate::settlement::SettlementBatch;

/// The consensus tag carried by an escrow-kind output: everything the
/// mainchain needs to decide, structurally, where the value may go.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EscrowTag {
    /// The sidechain whose certificate escrowed the value.
    pub source: SidechainId,
    /// The withdrawal epoch of the escrowing certificate (together with
    /// `source`: the maturity window).
    pub epoch: EpochId,
    /// The declared destination sidechain.
    pub dest: SidechainId,
    /// The mainchain address refunded when delivery is impossible.
    pub payback: Address,
    /// The declared transfer's nullifier — binds the tag to every field
    /// of the transfer, including the destination-side receiver.
    pub nullifier: Nullifier,
}

impl EscrowTag {
    /// The tag of the escrow output backing `xct`, escrowed by a
    /// certificate for withdrawal epoch `epoch`.
    pub fn for_transfer(xct: &CrossChainTransfer, epoch: EpochId) -> Self {
        EscrowTag {
            source: xct.source,
            epoch,
            dest: xct.dest,
            payback: xct.payback,
            nullifier: xct.nullifier,
        }
    }
}

impl Encode for EscrowTag {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.source.encode_into(out);
        self.epoch.encode_into(out);
        self.dest.encode_into(out);
        self.payback.encode_into(out);
        self.nullifier.encode_into(out);
    }
}

impl Decode for EscrowTag {
    const MIN_LEN: usize = 32 + 4 + 32 + 32 + 32;
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EscrowTag {
            source: reader.read()?,
            epoch: reader.read()?,
            dest: reader.read()?,
            payback: reader.read()?,
            nullifier: reader.read()?,
        })
    }
}

/// Why a transaction touching escrow-kind outputs is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EscrowError {
    /// An escrow spend mixes in a non-escrow input.
    MixedInputs {
        /// Index of the offending (non-escrow) input.
        input: usize,
    },
    /// A transaction tries to *create* an escrow-kind output: escrow
    /// outputs only come into existence when a certificate's validated
    /// cross-chain declaration matures.
    ForgedOutput {
        /// Index of the offending output.
        output: usize,
    },
    /// An escrow spend carries a plain (non-settlement) forward
    /// transfer — escrowed value may only leave through a settlement
    /// batch or a refund.
    PlainForward {
        /// Index of the offending output.
        output: usize,
    },
    /// A settlement entry is not backed by a matching escrow input
    /// (window, destination, payback, nullifier and amount all bind).
    EntryUnbacked {
        /// Index of the batch among the transaction's settlement
        /// outputs.
        batch: usize,
        /// Index of the entry inside that batch.
        entry: usize,
    },
    /// An escrow input is neither claimed by a settlement entry nor
    /// refunded exactly (full amount to its tagged payback address).
    UnrefundedInput {
        /// Index among the consumed escrow inputs.
        input: usize,
    },
    /// An escrow input was routed to the refund path while its tagged
    /// destination sidechain is still active — refunds require a
    /// ceased or unregistered destination.
    RefundDestinationActive {
        /// Index among the consumed escrow inputs.
        input: usize,
    },
    /// A regular output of an escrow spend is not an exact refund of a
    /// consumed input (value may not leak to arbitrary addresses).
    UnmatchedOutput {
        /// Index among the transaction's regular outputs.
        output: usize,
    },
}

impl std::fmt::Display for EscrowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EscrowError::MixedInputs { input } => {
                write!(f, "escrow spend mixes non-escrow input {input}")
            }
            EscrowError::ForgedOutput { output } => {
                write!(f, "output {output} forges an escrow-kind output")
            }
            EscrowError::PlainForward { output } => {
                write!(
                    f,
                    "escrow spend carries plain forward transfer at output {output}"
                )
            }
            EscrowError::EntryUnbacked { batch, entry } => {
                write!(
                    f,
                    "settlement batch {batch} entry {entry} has no matching escrow input"
                )
            }
            EscrowError::UnrefundedInput { input } => {
                write!(
                    f,
                    "escrow input {input} neither settled nor refunded exactly"
                )
            }
            EscrowError::RefundDestinationActive { input } => {
                write!(
                    f,
                    "escrow input {input} refunded while its destination is still active"
                )
            }
            EscrowError::UnmatchedOutput { output } => {
                write!(f, "regular output {output} is not an exact refund")
            }
        }
    }
}

impl std::error::Error for EscrowError {}

/// The consensus rule for a transaction consuming escrow-kind inputs
/// (and/or carrying settlement batches): every consumed input must be
/// claimed by exactly one settlement entry — matching the tag's window,
/// destination, payback and nullifier, and the entry's amount — or by
/// exactly one refund output paying the tag's payback address the
/// input's full amount while the tagged destination is not active; and
/// no regular output may be left unaccounted. Matching is exact, so an
/// escrow spend pays zero fees and can leak nothing.
///
/// `inputs` lists the `(amount, tag)` of every consumed escrow input;
/// `batches` the decoded settlement batches carried by the
/// transaction's forward transfers (already validated against their
/// carriers by [`crate::settlement::check_settlement_output`]);
/// `regular_outputs` the `(address, amount)` of every regular output;
/// `dest_active(id)` must return whether `id` is a registered, active
/// sidechain at application time.
///
/// # Errors
///
/// [`EscrowError`] naming the first violated rule.
pub fn validate_escrow_spend<F>(
    inputs: &[(Amount, EscrowTag)],
    batches: &[SettlementBatch],
    regular_outputs: &[(Address, Amount)],
    dest_active: F,
) -> Result<(), EscrowError>
where
    F: Fn(&SidechainId) -> bool,
{
    let mut input_claimed = vec![false; inputs.len()];

    // Settlement entries claim their backing inputs one-to-one. The
    // expected tag is rebuilt from the entry itself, so any divergence
    // (forged window, rerouted destination, tampered receiver — which
    // changes the nullifier) simply fails to match.
    for (b, batch) in batches.iter().enumerate() {
        for (e, entry) in batch.transfers.iter().enumerate() {
            let expected = EscrowTag::for_transfer(entry, batch.epoch);
            let backing = inputs.iter().enumerate().position(|(k, (amount, tag))| {
                !input_claimed[k] && *tag == expected && *amount == entry.amount
            });
            match backing {
                Some(k) => input_claimed[k] = true,
                None => return Err(EscrowError::EntryUnbacked { batch: b, entry: e }),
            }
        }
    }

    // Unclaimed inputs must be refunded exactly — and only while the
    // tagged destination cannot take delivery.
    let mut output_claimed = vec![false; regular_outputs.len()];
    for (k, (amount, tag)) in inputs.iter().enumerate() {
        if input_claimed[k] {
            continue;
        }
        if dest_active(&tag.dest) {
            return Err(EscrowError::RefundDestinationActive { input: k });
        }
        let refund = regular_outputs
            .iter()
            .enumerate()
            .position(|(o, (address, value))| {
                !output_claimed[o] && *address == tag.payback && *value == *amount
            });
        match refund {
            Some(o) => output_claimed[o] = true,
            None => return Err(EscrowError::UnrefundedInput { input: k }),
        }
    }

    // No regular output may escape the matching: escrowed value goes to
    // settlement entries and exact refunds, nowhere else.
    if let Some(o) = output_claimed.iter().position(|claimed| !claimed) {
        return Err(EscrowError::UnmatchedOutput { output: o });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xct(nonce: u64, amount: u64) -> CrossChainTransfer {
        CrossChainTransfer::new(
            SidechainId::from_label("src"),
            SidechainId::from_label("dst"),
            Address::from_label(&format!("recv-{nonce}")),
            Amount::from_units(amount),
            nonce,
            Address::from_label(&format!("payback-{nonce}")),
        )
    }

    fn escrowed(transfers: &[CrossChainTransfer], epoch: EpochId) -> Vec<(Amount, EscrowTag)> {
        transfers
            .iter()
            .map(|t| (t.amount, EscrowTag::for_transfer(t, epoch)))
            .collect()
    }

    fn batch(transfers: Vec<CrossChainTransfer>, epoch: EpochId) -> SettlementBatch {
        SettlementBatch::new(
            SidechainId::from_label("src"),
            epoch,
            SidechainId::from_label("dst"),
            transfers,
        )
    }

    #[test]
    fn exact_settlement_accepted() {
        let transfers = vec![xct(1, 100), xct(2, 50)];
        let inputs = escrowed(&transfers, 3);
        let b = batch(transfers, 3);
        assert_eq!(validate_escrow_spend(&inputs, &[b], &[], |_| true), Ok(()));
    }

    #[test]
    fn refund_requires_inactive_destination() {
        let transfers = vec![xct(1, 100)];
        let inputs = escrowed(&transfers, 0);
        let refund = vec![(transfers[0].payback, transfers[0].amount)];
        assert_eq!(
            validate_escrow_spend(&inputs, &[], &refund, |_| false),
            Ok(())
        );
        assert_eq!(
            validate_escrow_spend(&inputs, &[], &refund, |_| true),
            Err(EscrowError::RefundDestinationActive { input: 0 })
        );
    }

    #[test]
    fn refund_to_wrong_address_or_amount_rejected() {
        let transfers = vec![xct(1, 100)];
        let inputs = escrowed(&transfers, 0);
        let to_mallory = vec![(Address::from_label("mallory"), Amount::from_units(100))];
        assert_eq!(
            validate_escrow_spend(&inputs, &[], &to_mallory, |_| false),
            Err(EscrowError::UnrefundedInput { input: 0 })
        );
        let short = vec![(transfers[0].payback, Amount::from_units(99))];
        assert_eq!(
            validate_escrow_spend(&inputs, &[], &short, |_| false),
            Err(EscrowError::UnrefundedInput { input: 0 })
        );
    }

    #[test]
    fn forged_window_or_dest_fails_to_match() {
        let transfers = vec![xct(1, 100)];
        let inputs = escrowed(&transfers, 3);
        // Wrong epoch in the claimed window.
        let wrong_epoch = batch(transfers.clone(), 4);
        assert_eq!(
            validate_escrow_spend(&inputs, &[wrong_epoch], &[], |_| true),
            Err(EscrowError::EntryUnbacked { batch: 0, entry: 0 })
        );
        // Tampered receiver: nullifier no longer matches the tag.
        let mut rerouted = transfers[0];
        rerouted.receiver = Address::from_label("mallory");
        rerouted.nullifier = rerouted.derive_nullifier();
        assert_eq!(
            validate_escrow_spend(&inputs, &[batch(vec![rerouted], 3)], &[], |_| true),
            Err(EscrowError::EntryUnbacked { batch: 0, entry: 0 })
        );
    }

    #[test]
    fn value_split_and_fee_skim_rejected() {
        let transfers = vec![xct(1, 100), xct(2, 50)];
        let inputs = escrowed(&transfers, 0);
        // Settle only the first, skim the second to fees: unrefunded.
        let partial = batch(vec![transfers[0]], 0);
        assert_eq!(
            validate_escrow_spend(&inputs, std::slice::from_ref(&partial), &[], |_| false),
            Err(EscrowError::UnrefundedInput { input: 1 })
        );
        // ...or to an attacker output: unmatched refund.
        let skim = vec![(Address::from_label("mallory"), Amount::from_units(50))];
        assert_eq!(
            validate_escrow_spend(&inputs, &[partial], &skim, |_| false),
            Err(EscrowError::UnrefundedInput { input: 1 })
        );
    }

    #[test]
    fn duplicate_entries_need_distinct_backing() {
        let t = xct(1, 100);
        let inputs = escrowed(&[t], 0);
        let doubled = batch(vec![t, t], 0);
        assert_eq!(
            validate_escrow_spend(&inputs, &[doubled], &[], |_| true),
            Err(EscrowError::EntryUnbacked { batch: 0, entry: 1 })
        );
    }

    #[test]
    fn extra_regular_output_rejected() {
        let transfers = vec![xct(1, 100)];
        let inputs = escrowed(&transfers, 0);
        let outs = vec![
            (transfers[0].payback, transfers[0].amount),
            (Address::from_label("mallory"), Amount::from_units(1)),
        ];
        assert_eq!(
            validate_escrow_spend(&inputs, &[], &outs, |_| false),
            Err(EscrowError::UnmatchedOutput { output: 1 })
        );
    }

    #[test]
    fn mixed_settlement_and_refund_in_one_window() {
        let deliver = xct(1, 100);
        let mut refund = xct(2, 50);
        refund.dest = SidechainId::from_label("ceased-dst");
        refund.nullifier = refund.derive_nullifier();
        let inputs = escrowed(&[deliver, refund], 0);
        let b = batch(vec![deliver], 0);
        let outs = vec![(refund.payback, refund.amount)];
        // Delivery dest active, refund dest inactive — per-input rule.
        let active_dest = deliver.dest;
        assert_eq!(
            validate_escrow_spend(&inputs, &[b], &outs, |id| *id == active_dest),
            Ok(())
        );
    }

    #[test]
    fn tag_binds_the_whole_transfer() {
        let t = xct(1, 100);
        let tag = EscrowTag::for_transfer(&t, 7);
        assert_eq!(tag.source, t.source);
        assert_eq!(tag.dest, t.dest);
        assert_eq!(tag.payback, t.payback);
        assert_eq!(tag.nullifier, t.nullifier);
        assert_eq!(tag.epoch, 7);
    }
}
