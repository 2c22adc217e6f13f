//! The journaled persistent UTXO store.
//!
//! The in-memory mirror keeps the set as two maps, both in outpoint
//! order: regular outputs as `(Address, Amount)` — 76 bytes an entry
//! with the outpoint — and the few escrow-kind outputs whole, tag
//! included. An outpoint lives in at most one of them. The canonical
//! order that the snapshot record, the state digest and
//! [`UtxoStore::iter`] use is the two maps merged by outpoint, so the
//! bytes are those of one map of whole outputs.

use std::collections::btree_map::{self, Entry};
use std::collections::BTreeMap;
use std::io;
use std::iter::Peekable;
use std::path::Path;

use zendoo_core::escrow::EscrowTag;
use zendoo_core::ids::{Address, Amount};
use zendoo_mainchain::transaction::OutputKind;
use zendoo_mainchain::utxo::UtxoSet;
use zendoo_mainchain::{Blockchain, ChainEvent, OutPoint, TxOut};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::encode::{decode_with, Decode, DecodeError, Encode};
use zendoo_primitives::sha256::TaggedSha256;
use zendoo_telemetry::Telemetry;

use crate::journal::{Journal, JournalStats};

const JOURNAL_FILE: &str = "utxo-journal.log";

/// Record tags (first payload byte).
const TAG_SNAPSHOT: u8 = 0;
const TAG_CONNECT: u8 = 1;
const TAG_DISCONNECT: u8 = 2;

/// The state digest hashes its encoding through a buffer of about this
/// many bytes, never the whole encoding at once.
const DIGEST_CHUNK: usize = 1 << 16;

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

/// The mirrored set: regular outputs and escrow-kind outputs in two
/// maps (see the module docs).
#[derive(Clone, Default)]
struct Mirror {
    regular: BTreeMap<OutPoint, (Address, Amount)>,
    escrows: BTreeMap<OutPoint, TxOut>,
}

impl Mirror {
    /// A live set's entries, sorted into the two maps.
    fn of(live: &UtxoSet) -> Mirror {
        let regular = live
            .iter()
            .filter(|(_, out)| !out.is_escrow())
            .map(|(outpoint, out)| (*outpoint, (out.address, out.amount)));
        Mirror {
            regular: regular.collect(),
            escrows: live.escrows().map(|(op, out)| (*op, *out)).collect(),
        }
    }

    fn len(&self) -> usize {
        self.regular.len() + self.escrows.len()
    }

    fn get(&self, outpoint: &OutPoint) -> Option<TxOut> {
        self.regular
            .get(outpoint)
            .map(|&(address, amount)| TxOut::regular(address, amount))
            .or_else(|| self.escrows.get(outpoint).copied())
    }

    /// Adds an output at an outpoint neither map holds; returns `false`
    /// and writes nothing otherwise.
    fn insert_new(&mut self, outpoint: OutPoint, out: &TxOut) -> bool {
        match out.kind {
            OutputKind::Regular => match self.regular.entry(outpoint) {
                Entry::Vacant(slot) if !self.escrows.contains_key(&outpoint) => {
                    slot.insert((out.address, out.amount));
                    true
                }
                _ => false,
            },
            OutputKind::Escrow(_) => match self.escrows.entry(outpoint) {
                Entry::Vacant(slot) if !self.regular.contains_key(&outpoint) => {
                    slot.insert(*out);
                    true
                }
                _ => false,
            },
        }
    }

    fn remove(&mut self, outpoint: &OutPoint) -> Option<TxOut> {
        self.regular
            .remove(outpoint)
            .map(|(address, amount)| TxOut::regular(address, amount))
            .or_else(|| self.escrows.remove(outpoint))
    }

    /// Every entry, the two maps merged into outpoint order.
    fn iter(&self) -> Merged<'_> {
        Merged {
            regular: self.regular.iter().peekable(),
            escrows: self.escrows.iter().peekable(),
        }
    }
}

/// [`Mirror::iter`]: a merge of the two ordered maps.
struct Merged<'a> {
    regular: Peekable<btree_map::Iter<'a, OutPoint, (Address, Amount)>>,
    escrows: Peekable<btree_map::Iter<'a, OutPoint, TxOut>>,
}

impl<'a> Iterator for Merged<'a> {
    type Item = (&'a OutPoint, TxOut);

    fn next(&mut self) -> Option<Self::Item> {
        let regular_first = match (self.regular.peek(), self.escrows.peek()) {
            (Some((regular, _)), Some((escrow, _))) => regular < escrow,
            (regular, _) => regular.is_some(),
        };
        if regular_first {
            let (outpoint, &(address, amount)) = self.regular.next()?;
            Some((outpoint, TxOut::regular(address, amount)))
        } else {
            let (outpoint, out) = self.escrows.next()?;
            Some((outpoint, *out))
        }
    }
}

/// In-memory mirror + append-only journal of the active chain's UTXO
/// set. See the crate docs for the durability contract, and the module
/// docs for the mirror's layout.
pub struct UtxoStore {
    journal: Journal,
    utxos: Mirror,
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

        let mut utxos = Mirror::default();
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
        let utxos = Mirror::of(&chain.state().utxos);
        let mut payload = Vec::new();
        TAG_SNAPSHOT.encode_into(&mut payload);
        encode_state(
            &mut payload,
            chain.tip_hash(),
            chain.height(),
            &utxos,
            |_| {},
        );

        self.journal.append(&payload)?;
        self.utxos = utxos;
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
            let mut delta = AppliedDelta::default();
            apply_event_to(event, utxos, tip, height, seeded, Some(&mut delta))?;
            Ok(delta)
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
    pub fn get(&self, outpoint: &OutPoint) -> Option<TxOut> {
        self.utxos.get(outpoint)
    }

    /// Iterates the mirrored set in canonical (outpoint) order.
    pub fn iter(&self) -> impl Iterator<Item = (&OutPoint, TxOut)> {
        self.utxos.iter()
    }

    /// The regular outputs, as `(address, amount)`, in outpoint order.
    pub(crate) fn regular(&self) -> &BTreeMap<OutPoint, (Address, Amount)> {
        &self.utxos.regular
    }

    /// The escrow-kind outputs, in outpoint order.
    pub(crate) fn escrows(&self) -> &BTreeMap<OutPoint, TxOut> {
        &self.utxos.escrows
    }

    /// Sum of all mirrored outputs.
    pub fn total_value(&self) -> Amount {
        let regular = self.utxos.regular.values().map(|(_, amount)| *amount);
        let escrowed = self.utxos.escrows.values().map(|out| out.amount);
        Amount::checked_sum(regular.chain(escrowed)).expect("chain-invariant sum")
    }

    /// Sum of regular outputs controlled by `address`.
    pub fn balance_of(&self, address: &Address) -> Amount {
        Amount::checked_sum(
            self.utxos
                .regular
                .values()
                .filter(|(holder, _)| holder == address)
                .map(|(_, amount)| *amount),
        )
        .expect("chain-invariant sum")
    }

    /// Canonical digest of the persisted state: tip, height and the
    /// full UTXO set in outpoint order. Two stores (or a store and a
    /// live chain, via [`chain_state_digest`]) hold bit-identical
    /// state iff their digests match.
    pub fn state_digest(&self) -> Digest32 {
        digest_state(self.tip, self.height, &self.utxos)
    }

    /// Whether this store holds exactly `chain`'s state: the same tip,
    /// height and UTXO count, and every stored entry, in either map,
    /// present in the live set with an equal output. That is exact
    /// equality, which equal digests only imply; the live set is looked
    /// up, never sorted, encoded or hashed. Records a `store.verify`
    /// span.
    pub fn matches(&self, chain: &Blockchain) -> bool {
        let live = &chain.state().utxos;
        let Mirror { regular, escrows } = &self.utxos;
        let (same, _nanos) = self.telemetry.time("store.verify", || {
            self.tip == chain.tip_hash()
                && self.height == chain.height()
                && self.utxos.len() == live.len()
                && regular.iter().all(|(op, &(address, amount))| {
                    live.get(op) == Some(TxOut::regular(address, amount))
                })
                && escrows.iter().all(|(op, out)| live.get(op) == Some(*out))
        });
        same
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
    let utxos = Mirror::of(&chain.state().utxos);
    digest_state(chain.tip_hash(), chain.height(), &utxos)
}

/// The digest of a state's canonical encoding ([`encode_state`]), as
/// `Digest32::hash_tagged("zendoo.store.state", &[encoding])` gives it.
/// The encoding's length comes first — every field is fixed-width, and
/// an escrow adds its tag — then its bytes stream into the hash
/// [`DIGEST_CHUNK`] at a time.
fn digest_state(tip: Digest32, height: u64, utxos: &Mirror) -> Digest32 {
    let entries_len =
        utxos.len() * <(OutPoint, TxOut)>::MIN_LEN + utxos.escrows.len() * EscrowTag::MIN_LEN;
    let mut hasher = TaggedSha256::new("zendoo.store.state");
    hasher.segment((Digest32::MIN_LEN + 2 * u64::MIN_LEN + entries_len) as u64);
    let mut buf = Vec::new();
    encode_state(&mut buf, tip, height, utxos, |buf| {
        if buf.len() >= DIGEST_CHUNK {
            hasher.update(buf);
            buf.clear();
        }
    });
    hasher.update(&buf);
    Digest32(hasher.finalize())
}

/// The canonical encoding of a UTXO state — tip, height, then the
/// entries in outpoint order. A journal snapshot carries it and the
/// state digest hashes it. `spill` sees `out` after each entry and may
/// drain it.
fn encode_state(
    out: &mut Vec<u8>,
    tip: Digest32,
    height: u64,
    utxos: &Mirror,
    mut spill: impl FnMut(&mut Vec<u8>),
) {
    // The same bytes as `(Digest32, u64, Vec<(OutPoint, TxOut)>)`,
    // read back as one.
    (tip, height, utxos.len() as u64).encode_into(out);
    for entry in utxos.iter() {
        entry.encode_into(out);
        spill(out);
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
/// recording the net change in `delta` when one is given. Shared by
/// live application and journal replay (replay re-decodes into the same
/// [`ChainEvent`] shape, and keeps no delta).
fn apply_event_to(
    event: &ChainEvent,
    utxos: &mut Mirror,
    tip: &mut Digest32,
    height: &mut u64,
    seeded: bool,
    mut delta: Option<&mut AppliedDelta>,
) -> Result<(), StoreError> {
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
            for (outpoint, _) in spent {
                let Some(out) = utxos.remove(outpoint) else {
                    return Err(StoreError::Inconsistent("spent output not in store"));
                };
                if let Some(delta) = delta.as_deref_mut() {
                    delta.removed.push((*outpoint, out));
                }
            }
            for (outpoint, out) in created {
                if !utxos.insert_new(*outpoint, out) {
                    return Err(StoreError::Inconsistent("created outpoint already present"));
                }
            }
            if let Some(delta) = delta {
                delta.added.extend_from_slice(created);
            }
            *tip = *hash;
            *height = *event_height;
            Ok(())
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
            for outpoint in created {
                let Some(out) = utxos.remove(outpoint) else {
                    return Err(StoreError::Inconsistent("rolled-back output not in store"));
                };
                if let Some(delta) = delta.as_deref_mut() {
                    delta.removed.push((*outpoint, out));
                }
            }
            for (outpoint, out) in spent {
                if !utxos.insert_new(*outpoint, out) {
                    return Err(StoreError::Inconsistent(
                        "restored outpoint already present",
                    ));
                }
            }
            if let Some(delta) = delta {
                delta.added.extend_from_slice(spent);
            }
            *tip = *parent;
            *height = event_height - 1;
            Ok(())
        }
    }
}

/// Decodes and applies one journal record during replay.
fn replay_record(
    payload: &[u8],
    utxos: &mut Mirror,
    tip: &mut Digest32,
    height: &mut u64,
    seeded: &mut bool,
) -> Result<(), StoreError> {
    let (&tag, body) = payload.split_first().ok_or(DecodeError::UnexpectedEof)?;
    let event = match tag {
        TAG_SNAPSHOT => {
            // Decoded straight into the two maps' entries, which arrive
            // in outpoint order and are bulk-built.
            let (mut regular, mut escrows) = (Vec::new(), Vec::new());
            let mut ordered = true;
            let (snap_tip, snap_height) = decode_with(body, |r| {
                let head: (Digest32, u64) = (r.read()?, r.read()?);
                let len: u64 = r.read()?;
                if len > (body.len() / <(OutPoint, TxOut)>::MIN_LEN) as u64 {
                    return Err(DecodeError::BadLength(len));
                }
                regular.reserve(len as usize);
                let mut previous = None;
                for _ in 0..len {
                    let (outpoint, out): (OutPoint, TxOut) = r.read()?;
                    ordered &= previous < Some(outpoint);
                    previous = Some(outpoint);
                    match out.kind {
                        OutputKind::Regular => regular.push((outpoint, (out.address, out.amount))),
                        OutputKind::Escrow(_) => escrows.push((outpoint, out)),
                    }
                }
                Ok(head)
            })?;
            if !ordered {
                return Err(StoreError::Inconsistent("snapshot out of outpoint order"));
            }
            *utxos = Mirror {
                regular: regular.into_iter().collect(),
                escrows: escrows.into_iter().collect(),
            };
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
    apply_event_to(&event, utxos, tip, height, *seeded, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zendoo_core::ids::{Nullifier, SidechainId};
    use zendoo_mainchain::chain::ChainParams;
    use zendoo_mainchain::wallet::Wallet;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("zendoo-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn escrow_tag(dest: &str) -> EscrowTag {
        EscrowTag {
            source: SidechainId::from_label("source"),
            epoch: 3,
            dest: SidechainId::from_label(dest),
            payback: Address::from_label("payback"),
            nullifier: Nullifier(Digest32::hash_bytes(dest.as_bytes())),
        }
    }

    /// A chain of two blocks over a genesis holding two regular outputs
    /// and one escrow, and a store bootstrapped from it.
    fn chain_and_store(tag: &str) -> (Blockchain, UtxoStore, std::path::PathBuf) {
        let miner = Wallet::from_seed(b"matches-miner");
        let mut chain = Blockchain::new(ChainParams {
            genesis_outputs: vec![
                TxOut::regular(Address::from_label("alice"), Amount::from_units(500)),
                TxOut::regular(Address::from_label("bob"), Amount::from_units(70)),
                TxOut {
                    address: Address::from_label("escrow"),
                    amount: Amount::from_units(30),
                    kind: OutputKind::Escrow(escrow_tag("dest")),
                },
            ],
            ..ChainParams::default()
        });
        for height in 1..=2 {
            chain
                .mine_next_block(miner.address(), vec![], height)
                .expect("block mines");
        }
        let dir = temp_dir(tag);
        let mut store = UtxoStore::open(&dir, Telemetry::disabled()).expect("store opens");
        store.bootstrap(&chain).expect("store seeds");
        (chain, store, dir)
    }

    /// The stored entry holding `label`'s output.
    fn entry_of(store: &UtxoStore, label: &str) -> OutPoint {
        let address = Address::from_label(label);
        *store
            .iter()
            .find(|(_, out)| out.address == address)
            .expect("genesis output")
            .0
    }

    /// A store that differs from the live chain in exactly one respect
    /// does not match it; an untouched one does.
    #[test]
    fn matches_refuses_a_store_that_differs_in_one_respect() {
        let (chain, mut store, dir) = chain_and_store("matches");
        assert!(store.matches(&chain));
        let alice = entry_of(&store, "alice");
        let escrow = entry_of(&store, "escrow");
        let absent = OutPoint {
            txid: Digest32::hash_bytes(b"absent"),
            index: 0,
        };
        type Edit = fn(&mut UtxoStore, OutPoint, OutPoint, OutPoint);
        let edits: [(&str, Edit); 8] = [
            ("an entry's amount", |s, alice, _, _| {
                s.utxos.regular.get_mut(&alice).unwrap().1 = Amount::from_units(501);
            }),
            ("an entry's address", |s, alice, _, _| {
                s.utxos.regular.get_mut(&alice).unwrap().0 = Address::from_label("mallory");
            }),
            // A regular entry turned into an escrow moves between the maps.
            ("an entry's kind", |s, alice, _, _| {
                let (address, amount) = s.utxos.regular.remove(&alice).unwrap();
                let out = TxOut::escrow(address, amount, escrow_tag("dest"));
                s.utxos.escrows.insert(alice, out);
            }),
            ("an escrow's tag", |s, _, escrow, _| {
                s.utxos.escrows.get_mut(&escrow).unwrap().kind =
                    OutputKind::Escrow(escrow_tag("other"));
            }),
            ("a missing entry", |s, alice, _, _| {
                s.utxos.regular.remove(&alice);
            }),
            ("an extra entry", |s, alice, _, absent| {
                let entry = s.utxos.regular[&alice];
                s.utxos.regular.insert(absent, entry);
            }),
            ("an entry at another outpoint", |s, alice, _, absent| {
                let entry = s.utxos.regular.remove(&alice).unwrap();
                s.utxos.regular.insert(absent, entry);
            }),
            ("the tip", |s, _, _, _| {
                s.tip = Digest32::hash_bytes(b"another tip")
            }),
        ];
        for (respect, edit) in edits {
            let saved = (store.utxos.clone(), store.tip);
            edit(&mut store, alice, escrow, absent);
            assert!(!store.matches(&chain), "{respect} went unnoticed");
            (store.utxos, store.tip) = saved;
        }
        store.height += 1;
        assert!(!store.matches(&chain), "the height went unnoticed");
        store.height -= 1;
        assert!(store.matches(&chain));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Streaming the encoding through the hash in chunks gives the
    /// one-shot tagged hash of the whole encoding, across many chunks.
    #[test]
    fn the_streamed_digest_equals_the_hash_of_the_whole_encoding() {
        let entries: BTreeMap<OutPoint, TxOut> = (0..2_000u32)
            .map(|i| {
                let outpoint = OutPoint {
                    txid: Digest32::hash_bytes(&i.to_be_bytes()),
                    index: i % 3,
                };
                let address = Address::from_label(&format!("holder-{}", i % 17));
                let mut out = TxOut::regular(address, Amount::from_units(u64::from(i)));
                if i % 5 == 0 {
                    out.kind = OutputKind::Escrow(escrow_tag(&format!("dest-{}", i % 3)));
                }
                (outpoint, out)
            })
            .collect();
        let tip = Digest32::hash_bytes(b"tip");
        let mut mirror = Mirror::default();
        for (outpoint, out) in &entries {
            assert!(mirror.insert_new(*outpoint, out));
        }
        // The two maps merged give the bytes of one ordered list of
        // whole outputs.
        let whole = (tip, 9u64, entries.into_iter().collect::<Vec<_>>()).encoded();
        assert!(whole.len() > 3 * DIGEST_CHUNK);
        let mut encoded = Vec::new();
        encode_state(&mut encoded, tip, 9, &mirror, |_| {});
        assert_eq!(encoded, whole);
        assert_eq!(
            digest_state(tip, 9, &mirror),
            Digest32::hash_tagged("zendoo.store.state", &[&whole])
        );
        assert_eq!(
            digest_state(tip, 9, &Mirror::default()),
            Digest32::hash_tagged("zendoo.store.state", &[&(tip, 9u64, 0u64).encoded()])
        );
    }

    /// A record that passes its checksum but carries an unknown tag is
    /// a `Codec` refusal, not a torn tail.
    #[test]
    fn a_checksummed_record_with_an_unknown_tag_is_a_codec_refusal() {
        let (_, store, dir) = chain_and_store("codec");
        drop(store);
        let (mut journal, _) = Journal::open(&dir.join(JOURNAL_FILE), |_| {}).unwrap();
        journal.append(&[7, 1, 2, 3]).unwrap();
        journal.commit().unwrap();
        drop(journal);
        let refusal = UtxoStore::open(&dir, Telemetry::disabled()).err();
        assert!(
            matches!(refusal, Some(StoreError::Codec(DecodeError::BadTag(7)))),
            "{refusal:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot's entries must arrive in strictly ascending outpoint
    /// order, as the writer puts them: one repeated or out of order is
    /// refused by name, wherever each entry would be kept.
    #[test]
    fn a_snapshot_out_of_outpoint_order_is_inconsistent() {
        let dir = temp_dir("snapshot-order");
        let [low, high] = [1, 2].map(|n| OutPoint {
            txid: Digest32::hash_bytes(b"snapshot"),
            index: n,
        });
        let regular = TxOut::regular(Address::from_label("alice"), Amount::from_units(5));
        let escrow = TxOut::escrow(
            Address::from_label("escrow"),
            Amount::from_units(3),
            escrow_tag("dest"),
        );
        for entries in [
            vec![(high, regular), (low, regular)],
            vec![(low, regular), (low, escrow)],
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let (mut journal, _) = Journal::open(&dir.join(JOURNAL_FILE), |_| {}).unwrap();
            let mut payload = vec![TAG_SNAPSHOT];
            (Digest32::ZERO, 0u64, entries).encode_into(&mut payload);
            journal.append(&payload).unwrap();
            journal.commit().unwrap();
            drop(journal);
            let refusal = UtxoStore::open(&dir, Telemetry::disabled()).err();
            assert!(
                matches!(
                    refusal,
                    Some(StoreError::Inconsistent("snapshot out of outpoint order"))
                ),
                "{refusal:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_off_the_tip_are_discontinuities() {
        let (chain, mut store, dir) = chain_and_store("discontinuity");
        let wrong_height = ChainEvent::Connected {
            hash: Digest32::hash_bytes(b"block"),
            height: chain.height() + 2,
            created: vec![],
            spent: vec![],
        };
        let not_the_tip = ChainEvent::Disconnected {
            hash: Digest32::hash_bytes(b"not the tip"),
            height: chain.height(),
            parent: Digest32::ZERO,
            created: vec![],
            spent: vec![],
        };
        for event in [wrong_height, not_the_tip] {
            let refusal = store.apply_event(&event).err();
            assert!(
                matches!(refusal, Some(StoreError::Discontinuity { .. })),
                "{refusal:?}"
            );
        }
        assert!(store.matches(&chain));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spending_an_absent_output_or_recreating_a_present_one_is_inconsistent() {
        let (chain, mut store, dir) = chain_and_store("inconsistent");
        let alice = entry_of(&store, "alice");
        let out = store.get(&alice).unwrap();
        let absent = OutPoint {
            txid: Digest32::hash_bytes(b"absent"),
            index: 0,
        };
        let connect = |created, spent| ChainEvent::Connected {
            hash: Digest32::hash_bytes(b"block"),
            height: chain.height() + 1,
            created,
            spent,
        };
        let escrow = entry_of(&store, "escrow");
        let escrowed = store.get(&escrow).unwrap();
        let spend_absent = connect(vec![], vec![(absent, out)]);
        let recreate_present = connect(vec![(alice, out)], vec![]);
        // An outpoint one map holds is present to the other map too.
        let regular_over_escrow = connect(vec![(escrow, out)], vec![]);
        let escrow_over_regular = connect(vec![(alice, escrowed)], vec![]);
        for (event, what) in [
            (spend_absent, "spent output not in store"),
            (recreate_present, "created outpoint already present"),
            (regular_over_escrow, "created outpoint already present"),
            (escrow_over_regular, "created outpoint already present"),
        ] {
            let refusal = store.apply_event(&event).err();
            assert!(
                matches!(refusal, Some(StoreError::Inconsistent(w)) if w == what),
                "{refusal:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

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
        let dir = temp_dir("digest-kat");
        let mut store = UtxoStore::open(&dir, Telemetry::disabled()).expect("store opens");
        store.bootstrap(&chain).expect("store seeds");
        let expected = "3e94012335f379bcbe679fb739f025cd75137fdb6d275420f4a61c1f7bc02413";
        assert_eq!(chain_state_digest(&chain).to_hex(), expected);
        assert_eq!(store.state_digest().to_hex(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The digest's value on a state whose escrows sort between its
    /// regular outputs, recorded before the mirror was split in two:
    /// the merged walk of the two maps must give the bytes one map of
    /// whole outputs gave, on the live side, the store's side and
    /// after a replay of the snapshot.
    #[test]
    fn state_digest_known_answer_with_escrows_between_regular_outputs() {
        let miner = Wallet::from_seed(b"digest-escrows-miner");
        let regular = |label: &str, units| {
            TxOut::regular(Address::from_label(label), Amount::from_units(units))
        };
        let escrow = |dest: &str, units| {
            TxOut::escrow(
                Address::from_label("escrow"),
                Amount::from_units(units),
                escrow_tag(dest),
            )
        };
        let mut chain = Blockchain::new(ChainParams {
            genesis_outputs: vec![
                regular("alice", 500),
                escrow("dest-a", 30),
                regular("bob", 70),
                escrow("dest-b", 40),
                regular("carol", 9),
            ],
            ..ChainParams::default()
        });
        for height in 1..=2 {
            chain
                .mine_next_block(miner.address(), vec![], height)
                .expect("block mines");
        }
        let dir = temp_dir("digest-kat-escrows");
        let mut store = UtxoStore::open(&dir, Telemetry::disabled()).expect("store opens");
        store.bootstrap(&chain).expect("store seeds");
        let kinds: String = store
            .iter()
            .map(|(_, out)| if out.is_escrow() { 'e' } else { 'r' })
            .collect();
        assert!(kinds.contains("rer"), "escrows between regulars: {kinds}");
        let expected = "71e83935e242b4eb9575e30904680f5c3b89a2a6bf5b5851bc22f2b67fa9f45b";
        assert_eq!(chain_state_digest(&chain).to_hex(), expected);
        assert_eq!(store.state_digest().to_hex(), expected);
        drop(store);
        let reopened = UtxoStore::open(&dir, Telemetry::disabled()).expect("store reopens");
        assert_eq!(reopened.state_digest().to_hex(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
