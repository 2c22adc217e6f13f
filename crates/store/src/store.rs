//! The journaled persistent UTXO store.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use zendoo_core::ids::{Address, Amount};
use zendoo_mainchain::{Blockchain, ChainEvent, OutPoint, TxOut};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{decode_with, DecodeError, Encode};
use zendoo_telemetry::Telemetry;

use crate::journal::{Journal, JournalStats};

const JOURNAL_FILE: &str = "utxo-journal.log";

/// Record tags (first payload byte).
const TAG_SNAPSHOT: u8 = 0;
const TAG_CONNECT: u8 = 1;
const TAG_DISCONNECT: u8 = 2;

/// Storage-layer failures.
#[derive(Debug)]
pub enum StoreError {
    /// The journal file could not be read or written.
    Io(io::Error),
    /// A journal record passed its checksum but failed to decode —
    /// a format-version mismatch or a writer bug, never silent.
    Codec(DecodeError),
    /// An event does not follow the store's tip (wrong height or
    /// parent) — the event stream and the store diverged.
    Discontinuity {
        /// What the store expected next.
        expected: String,
        /// What the event carried.
        got: String,
    },
    /// An event referenced a UTXO the store does not have (or already
    /// has, for a creation) — the mirrored set is corrupt.
    Inconsistent(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "journal io: {e}"),
            StoreError::Codec(e) => write!(f, "journal record: {e}"),
            StoreError::Discontinuity { expected, got } => {
                write!(
                    f,
                    "event stream discontinuity: expected {expected}, got {got}"
                )
            }
            StoreError::Inconsistent(what) => write!(f, "utxo mirror inconsistent: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Codec(e)
    }
}

/// The net UTXO-set change one applied event produced, with full
/// values on both sides — secondary indexes ([`crate::Indexer`])
/// update from these without keeping their own copy of the set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppliedDelta {
    /// Outputs now present that were not before.
    pub added: Vec<(OutPoint, TxOut)>,
    /// Outputs removed (their last values).
    pub removed: Vec<(OutPoint, TxOut)>,
}

/// In-memory mirror + append-only journal of the active chain's UTXO
/// set. See the crate docs for the durability contract.
pub struct UtxoStore {
    journal: Journal,
    utxos: BTreeMap<OutPoint, TxOut>,
    tip: Digest32,
    height: u64,
    /// `false` until a snapshot record seeds the store (a freshly
    /// created journal has no baseline yet).
    seeded: bool,
    replay_stats: JournalStats,
    telemetry: Telemetry,
}

impl UtxoStore {
    /// Opens (creating if needed) the store persisted in `dir`,
    /// replaying the journal into memory. Records a `store.replay`
    /// span plus `store.records_replayed` / `store.torn_bytes_discarded`
    /// counters.
    pub fn open(dir: &Path, telemetry: Telemetry) -> Result<UtxoStore, StoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);

        let mut utxos = BTreeMap::new();
        let mut tip = Digest32::ZERO;
        let mut height = 0u64;
        let mut seeded = false;
        let mut replay_error: Option<StoreError> = None;

        let (opened, _nanos) = telemetry.time("store.replay", || {
            Journal::open(&path, |payload| {
                if replay_error.is_some() {
                    return;
                }
                if let Err(e) =
                    replay_record(payload, &mut utxos, &mut tip, &mut height, &mut seeded)
                {
                    replay_error = Some(e);
                }
            })
        });
        let (journal, stats) = opened?;
        if let Some(e) = replay_error {
            return Err(e);
        }
        telemetry.counter("store.records_replayed", stats.records);
        telemetry.counter("store.torn_bytes_discarded", stats.torn_bytes);

        Ok(UtxoStore {
            journal,
            utxos,
            tip,
            height,
            seeded,
            replay_stats: stats,
            telemetry,
        })
    }

    /// Returns `true` once a snapshot baseline exists (i.e. the store
    /// was bootstrapped, this run or a previous one).
    pub fn is_seeded(&self) -> bool {
        self.seeded
    }

    /// What the opening replay found on disk.
    pub fn replay_stats(&self) -> &JournalStats {
        &self.replay_stats
    }

    /// Seeds a fresh store with a full snapshot of `chain`'s current
    /// state (committed immediately). Events recorded *before* the
    /// snapshot's tip must not be applied afterwards; bootstrap right
    /// after [`Blockchain::enable_event_log`], before the next block.
    pub fn bootstrap(&mut self, chain: &Blockchain) -> Result<(), StoreError> {
        let entries = sorted_utxos(chain);
        let mut payload = Vec::new();
        TAG_SNAPSHOT.encode_into(&mut payload);
        encode_state(
            &mut payload,
            chain.tip_hash(),
            chain.height(),
            entries.iter().copied(),
        );

        self.journal.append(&payload)?;
        self.utxos = entries.into_iter().map(|(op, out)| (*op, *out)).collect();
        self.tip = chain.tip_hash();
        self.height = chain.height();
        self.seeded = true;
        self.commit()?;
        Ok(())
    }

    /// Journals and applies one chain event, returning the net delta.
    /// Durable only after [`UtxoStore::commit`]. Records a
    /// `store.append` span.
    pub fn apply_event(&mut self, event: &ChainEvent) -> Result<AppliedDelta, StoreError> {
        let journal = &mut self.journal;
        let utxos = &mut self.utxos;
        let tip = &mut self.tip;
        let height = &mut self.height;
        let seeded = self.seeded;
        let (result, _nanos) = self.telemetry.time("store.append", || {
            let payload = encode_event(event);
            journal.append(&payload)?;
            apply_event_to(event, utxos, tip, height, seeded)
        });
        result
    }

    /// Fsyncs the journal: everything applied so far becomes durable.
    /// Records a `store.commit` span and a `store.utxos` gauge.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        let journal = &mut self.journal;
        let (result, _nanos) = self.telemetry.time("store.commit", || journal.commit());
        self.telemetry.gauge("store.utxos", self.utxos.len() as u64);
        result?;
        Ok(())
    }

    /// The persisted tip hash.
    pub fn tip(&self) -> Digest32 {
        self.tip
    }

    /// The persisted tip height.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Number of UTXOs in the mirrored set.
    pub fn utxo_count(&self) -> usize {
        self.utxos.len()
    }

    /// Looks up one output.
    pub fn get(&self, outpoint: &OutPoint) -> Option<&TxOut> {
        self.utxos.get(outpoint)
    }

    /// Iterates the mirrored set in canonical (outpoint) order.
    pub fn iter(&self) -> impl Iterator<Item = (&OutPoint, &TxOut)> {
        self.utxos.iter()
    }

    /// Sum of all mirrored outputs.
    pub fn total_value(&self) -> Amount {
        Amount::checked_sum(self.utxos.values().map(|o| o.amount)).expect("chain-invariant sum")
    }

    /// Sum of regular outputs controlled by `address`.
    pub fn balance_of(&self, address: &Address) -> Amount {
        Amount::checked_sum(
            self.utxos
                .values()
                .filter(|o| !o.is_escrow() && o.address == *address)
                .map(|o| o.amount),
        )
        .expect("chain-invariant sum")
    }

    /// Canonical digest of the persisted state: tip, height and the
    /// full UTXO set in outpoint order. Two stores (or a store and a
    /// live chain, via [`chain_state_digest`]) hold bit-identical
    /// state iff their digests match.
    pub fn state_digest(&self) -> Digest32 {
        digest_state(self.tip, self.height, self.utxos.iter())
    }

    /// The journal file's on-disk size in bytes.
    pub fn journal_bytes(&self) -> u64 {
        self.journal.len_bytes()
    }
}

/// The same canonical digest as [`UtxoStore::state_digest`], computed
/// from a live chain — the "in-memory" side of the persisted ==
/// in-memory comparison.
pub fn chain_state_digest(chain: &Blockchain) -> Digest32 {
    digest_state(
        chain.tip_hash(),
        chain.height(),
        sorted_utxos(chain).into_iter(),
    )
}

/// `chain`'s UTXO set by reference, in outpoint order.
fn sorted_utxos(chain: &Blockchain) -> Vec<(&OutPoint, &TxOut)> {
    let mut entries: Vec<_> = chain.state().utxos.iter().collect();
    entries.sort_unstable_by_key(|(op, _)| **op);
    entries
}

/// The digest of a state's canonical encoding ([`encode_state`]).
fn digest_state<'a>(
    tip: Digest32,
    height: u64,
    entries: impl ExactSizeIterator<Item = (&'a OutPoint, &'a TxOut)>,
) -> Digest32 {
    let mut buf = Vec::new();
    encode_state(&mut buf, tip, height, entries);
    Digest32::hash_tagged("zendoo.store.state", &[&buf])
}

/// The canonical encoding of a UTXO state — tip, height, then the
/// entries, which must be in outpoint order. A journal snapshot carries
/// it and the state digest hashes it.
fn encode_state<'a>(
    out: &mut Vec<u8>,
    tip: Digest32,
    height: u64,
    entries: impl ExactSizeIterator<Item = (&'a OutPoint, &'a TxOut)>,
) {
    tip.encode_into(out);
    height.encode_into(out);
    // The same bytes as `Vec<(OutPoint, TxOut)>`, read back as one.
    (entries.len() as u64).encode_into(out);
    for entry in entries {
        entry.encode_into(out);
    }
}

fn encode_event(event: &ChainEvent) -> Vec<u8> {
    let mut payload = Vec::new();
    match event {
        ChainEvent::Connected {
            hash,
            height,
            created,
            spent,
        } => {
            (TAG_CONNECT, hash, height).encode_into(&mut payload);
            (created, spent).encode_into(&mut payload);
        }
        ChainEvent::Disconnected {
            hash,
            height,
            parent,
            created,
            spent,
        } => {
            (TAG_DISCONNECT, hash, height).encode_into(&mut payload);
            (parent, created, spent).encode_into(&mut payload);
        }
    }
    payload
}

/// Applies one event to the in-memory mirror with continuity checks,
/// returning the net delta. Shared by live application and journal
/// replay (replay re-decodes into the same [`ChainEvent`] shape).
fn apply_event_to(
    event: &ChainEvent,
    utxos: &mut BTreeMap<OutPoint, TxOut>,
    tip: &mut Digest32,
    height: &mut u64,
    seeded: bool,
) -> Result<AppliedDelta, StoreError> {
    if !seeded {
        return Err(StoreError::Inconsistent(
            "event applied to an unseeded store (bootstrap first)",
        ));
    }
    match event {
        ChainEvent::Connected {
            hash,
            height: event_height,
            created,
            spent,
        } => {
            if *event_height != *height + 1 {
                return Err(StoreError::Discontinuity {
                    expected: format!("connect at height {}", *height + 1),
                    got: format!("connect of {hash} at height {event_height}"),
                });
            }
            let mut delta = AppliedDelta::default();
            for (outpoint, _) in spent {
                let Some(out) = utxos.remove(outpoint) else {
                    return Err(StoreError::Inconsistent("spent output not in store"));
                };
                delta.removed.push((*outpoint, out));
            }
            for (outpoint, out) in created {
                if utxos.insert(*outpoint, *out).is_some() {
                    return Err(StoreError::Inconsistent("created outpoint already present"));
                }
                delta.added.push((*outpoint, *out));
            }
            *tip = *hash;
            *height = *event_height;
            Ok(delta)
        }
        ChainEvent::Disconnected {
            hash,
            height: event_height,
            parent,
            created,
            spent,
        } => {
            if *hash != *tip || *event_height != *height {
                return Err(StoreError::Discontinuity {
                    expected: format!("disconnect of tip {} at height {}", tip, height),
                    got: format!("disconnect of {hash} at height {event_height}"),
                });
            }
            let mut delta = AppliedDelta::default();
            for outpoint in created {
                let Some(out) = utxos.remove(outpoint) else {
                    return Err(StoreError::Inconsistent("rolled-back output not in store"));
                };
                delta.removed.push((*outpoint, out));
            }
            for (outpoint, out) in spent {
                if utxos.insert(*outpoint, *out).is_some() {
                    return Err(StoreError::Inconsistent(
                        "restored outpoint already present",
                    ));
                }
                delta.added.push((*outpoint, *out));
            }
            *tip = *parent;
            *height = event_height - 1;
            Ok(delta)
        }
    }
}

/// Decodes and applies one journal record during replay.
fn replay_record(
    payload: &[u8],
    utxos: &mut BTreeMap<OutPoint, TxOut>,
    tip: &mut Digest32,
    height: &mut u64,
    seeded: &mut bool,
) -> Result<(), StoreError> {
    let (&tag, body) = payload.split_first().ok_or(DecodeError::UnexpectedEof)?;
    let event = match tag {
        TAG_SNAPSHOT => {
            let (snap_tip, snap_height, pairs): (_, _, Vec<_>) =
                decode_with(body, |r| Ok((r.read()?, r.read()?, r.read()?)))?;
            *utxos = pairs.into_iter().collect();
            *tip = snap_tip;
            *height = snap_height;
            *seeded = true;
            return Ok(());
        }
        TAG_CONNECT => decode_with(body, |r| {
            Ok(ChainEvent::Connected {
                hash: r.read()?,
                height: r.read()?,
                created: r.read()?,
                spent: r.read()?,
            })
        })?,
        TAG_DISCONNECT => decode_with(body, |r| {
            Ok(ChainEvent::Disconnected {
                hash: r.read()?,
                height: r.read()?,
                parent: r.read()?,
                created: r.read()?,
                spent: r.read()?,
            })
        })?,
        t => return Err(DecodeError::BadTag(t).into()),
    };
    apply_event_to(&event, utxos, tip, height, *seeded).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_mainchain::chain::ChainParams;
    use zendoo_mainchain::wallet::Wallet;

    /// The digest's value on a fixed chain of three blocks, one of them
    /// carrying a payment: a change to its encoding on either side, the
    /// persisted or the in-memory one, shows here.
    #[test]
    fn state_digest_known_answer() {
        let alice = Wallet::from_seed(b"digest-alice");
        let bob = Wallet::from_seed(b"digest-bob");
        let miner = Wallet::from_seed(b"digest-miner");
        let mut chain = Blockchain::new(ChainParams {
            genesis_outputs: vec![TxOut::regular(
                alice.address(),
                Amount::from_units(1_000_000),
            )],
            ..ChainParams::default()
        });
        for height in 1..=3u64 {
            let txs = if height == 2 {
                let pay = alice
                    .pay(
                        &chain,
                        bob.address(),
                        Amount::from_units(2_500),
                        Amount::from_units(10),
                    )
                    .expect("alice is funded");
                vec![pay]
            } else {
                vec![]
            };
            chain
                .mine_next_block(miner.address(), txs, height)
                .expect("block mines");
        }
        let mut dir = std::env::temp_dir();
        dir.push(format!("zendoo-store-{}-digest-kat", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = UtxoStore::open(&dir, Telemetry::disabled()).expect("store opens");
        store.bootstrap(&chain).expect("store seeds");
        let expected = "3e94012335f379bcbe679fb739f025cd75137fdb6d275420f4a61c1f7bc02413";
        assert_eq!(chain_state_digest(&chain).to_hex(), expected);
        assert_eq!(store.state_digest().to_hex(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
