//! Every crash point of a journal, enumerated rather than sampled.
//!
//! A store journals three records — the bootstrap snapshot and two
//! connected blocks — and the sweep then rebuilds the file as a crash
//! could leave it: cut at every byte offset, and, separately, with each
//! bit of its last frame flipped. Every reopen must land on the longest
//! committed prefix of whole records, bit-identical to the state the
//! store had after writing them, with exactly the rest counted as
//! `torn_bytes`; and the next record must append and survive a reopen.

use std::path::{Path, PathBuf};

use zendoo_core::ids::Amount;
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::wallet::Wallet;
use zendoo_mainchain::{ChainEvent, TxOut};
use zendoo_primitives::digest::Digest32;
use zendoo_store::UtxoStore;
use zendoo_telemetry::Telemetry;

const JOURNAL_FILE: &str = "utxo-journal.log";
/// The journal's file header (`ZSJ2`).
const MAGIC_LEN: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("zendoo-crash-points-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn genesis_chain(alice: &Wallet) -> Blockchain {
    let mut chain = Blockchain::new(ChainParams {
        genesis_outputs: vec![TxOut::regular(
            alice.address(),
            Amount::from_units(1_000_000),
        )],
        ..ChainParams::default()
    });
    chain.enable_event_log();
    chain
}

/// The journal of three committed records, each record's end offset,
/// the state digest after each record, and the two connect events.
struct Recorded {
    journal: Vec<u8>,
    ends: [usize; 3],
    digests: [Digest32; 3],
    events: Vec<ChainEvent>,
}

fn record(dir: &Path) -> Recorded {
    let alice = Wallet::from_seed(b"crash-alice");
    let bob = Wallet::from_seed(b"crash-bob");
    let miner = Wallet::from_seed(b"crash-miner");
    let mut chain = genesis_chain(&alice);
    let mut store = UtxoStore::open(dir, Telemetry::disabled()).unwrap();
    store.bootstrap(&chain).unwrap();
    store.commit().unwrap();
    let mut ends = vec![store.journal_bytes() as usize];
    let mut digests = vec![store.state_digest()];
    let pay = alice
        .pay(
            &chain,
            bob.address(),
            Amount::from_units(5_000),
            Amount::from_units(10),
        )
        .unwrap();
    chain
        .mine_next_block(miner.address(), vec![pay], 1)
        .unwrap();
    chain.mine_next_block(miner.address(), vec![], 2).unwrap();
    let events = chain.drain_events();
    assert_eq!(events.len(), 2, "one connect event a block");
    for event in &events {
        store.apply_event(event).unwrap();
        store.commit().unwrap();
        ends.push(store.journal_bytes() as usize);
        digests.push(store.state_digest());
    }
    drop(store);
    Recorded {
        journal: std::fs::read(dir.join(JOURNAL_FILE)).unwrap(),
        ends: ends.try_into().unwrap(),
        digests: digests.try_into().unwrap(),
        events,
    }
}

/// Reopens `dir` holding `contents` and checks it lands on the first
/// `records` records with `torn` bytes discarded; then appends the next
/// record and checks it survives a second reopen.
fn reopen_and_resume(dir: &Path, rec: &Recorded, contents: &[u8], records: usize, torn: usize) {
    std::fs::write(dir.join(JOURNAL_FILE), contents).unwrap();
    let mut store = UtxoStore::open(dir, Telemetry::disabled()).unwrap();
    let stats = store.replay_stats().clone();
    assert_eq!(stats.records as usize, records, "records replayed");
    assert_eq!(stats.torn_bytes as usize, torn, "torn bytes");
    assert_eq!(store.is_seeded(), records > 0);
    if records > 0 {
        assert_eq!(store.state_digest(), rec.digests[records - 1]);
    }
    match records {
        0 => store
            .bootstrap(&genesis_chain(&Wallet::from_seed(b"crash-alice")))
            .unwrap(),
        1 | 2 => {
            store.apply_event(&rec.events[records - 1]).unwrap();
        }
        _ => return,
    }
    store.commit().unwrap();
    drop(store);
    let store = UtxoStore::open(dir, Telemetry::disabled()).unwrap();
    assert_eq!(store.replay_stats().records as usize, records + 1);
    assert_eq!(store.replay_stats().torn_bytes, 0);
    assert_eq!(store.state_digest(), rec.digests[records]);
}

#[test]
fn a_cut_at_every_byte_offset_recovers_the_committed_prefix() {
    let dir = temp_dir("cut");
    let rec = record(&dir);
    assert_eq!(rec.ends[2], rec.journal.len());
    for cut in 0..=rec.journal.len() {
        // A file too short for its header is no journal: all of it is torn.
        let good = if cut < MAGIC_LEN {
            0
        } else {
            rec.ends
                .iter()
                .copied()
                .filter(|&end| end <= cut)
                .max()
                .unwrap_or(MAGIC_LEN)
        };
        let records = rec.ends.iter().filter(|&&end| end <= cut).count();
        reopen_and_resume(&dir, &rec, &rec.journal[..cut], records, cut - good);
    }
    println!("{} cut points", rec.journal.len() + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flip_of_any_bit_of_the_last_frame_drops_that_frame() {
    let dir = temp_dir("flip");
    let rec = record(&dir);
    let last = rec.ends[1]..rec.ends[2];
    for byte in last.clone() {
        for bit in 0..8 {
            let mut contents = rec.journal.clone();
            contents[byte] ^= 1 << bit;
            reopen_and_resume(&dir, &rec, &contents, 2, last.len());
        }
    }
    println!("{} flipped bits", last.len() * 8);
    let _ = std::fs::remove_dir_all(&dir);
}
