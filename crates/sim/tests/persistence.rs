//! World-level persistence contract: with `World::attach_persistence`
//! called right after `World::new`, the journaled store and indexer mirror the live world
//! bit-identically every tick — through kill-and-recover restarts,
//! torn journal tails, and mainchain reorgs — without perturbing the
//! run itself.

use std::path::{Path, PathBuf};

use zendoo_core::escrow::EscrowTag;
use zendoo_core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo_mainchain::transaction::OutputKind;
use zendoo_mainchain::{Blockchain, ChainEvent, OutPoint, TxOut};
use zendoo_primitives::digest::Digest32;
use zendoo_sim::{Action, Schedule, SimConfig, SimError, World};
use zendoo_store::{chain_state_digest, UtxoStore};
use zendoo_telemetry::Telemetry;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("zendoo-sim-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn config() -> SimConfig {
    SimConfig {
        workers: Some(1),
        ..SimConfig::with_sidechains(2)
    }
}

/// A fresh world persisting to `dir` from genesis on.
fn persisted_world(dir: &Path) -> World {
    let mut world = World::new(config());
    world.attach_persistence(dir).unwrap();
    world
}

fn schedule() -> Schedule {
    Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 50_000))
        .at(2, Action::CrossTransfer(0, 1, "alice".into(), 8_000))
        .at(5, Action::ScPayOn(0, "alice".into(), "bob".into(), 1_000))
}

/// The full persistence story in one run: per-tick digest equality,
/// a mid-run kill-and-recover, a crash mid-append (torn tail), the
/// indexer serving balance and pending-inbound queries, and the
/// persisted world ending bit-identical to an unpersisted twin.
#[test]
fn persisted_world_matches_in_memory_through_kills_and_torn_tails() {
    let dir = temp_dir("lockstep");
    let ticks = (config().epoch_len as u64 + 1) * 3;
    let mut world = persisted_world(&dir);
    let mut twin = World::new(config());
    let schedule = schedule();

    let mut max_pending = 0usize;
    let mut escrow_nullifier = None;
    for tick in 0..ticks {
        schedule.fire(&mut world, tick);
        world.step().unwrap();
        schedule.fire(&mut twin, tick);
        twin.step().unwrap();

        // Persisted state is bit-identical to the in-memory chain
        // after every single tick.
        let store = world.store().expect("persistence attached");
        assert_eq!(
            store.state_digest(),
            chain_state_digest(&world.chain),
            "persisted state diverged at tick {tick}"
        );

        // Track the cross transfer through the escrow index while it
        // is in flight.
        let indexer = world.indexer().expect("persistence attached");
        let dest = world.sidechain_id_at(1).unwrap();
        let pending = indexer.pending_inbound(&dest);
        max_pending = max_pending.max(pending.len());
        if let Some(entry) = pending.first() {
            assert_eq!(entry.amount.units(), 8_000);
            assert_eq!(entry.dest, dest);
            escrow_nullifier = Some(entry.nullifier);
        }

        if tick == 8 {
            // Kill-and-recover mid-run: the journal alone rebuilds the
            // store and indexer.
            world.reopen_persistence().unwrap();
        }
        if tick == 12 {
            // Crash mid-append: a frame header promising a record that
            // never finished. Recovery must discard exactly that tail.
            let journal = dir.join("utxo-journal.log");
            let mut contents = std::fs::read(&journal).unwrap();
            contents.extend_from_slice(&4096u32.to_be_bytes());
            contents.extend_from_slice(&[0xA5; 21]);
            std::fs::write(&journal, &contents).unwrap();
            world.reopen_persistence().unwrap();
            let stats = world.store().unwrap().replay_stats();
            assert_eq!(stats.torn_bytes, 25, "torn tail not discarded");
        }
    }

    // The escrow really flowed through the index: pending while in
    // flight, drained on settlement, terminal receipt read off the
    // settling block.
    assert!(max_pending >= 1, "cross transfer never showed as pending");
    let indexer = world.indexer().unwrap();
    assert_eq!(indexer.pending_total(), 0, "escrow stranded in the index");
    let nullifier = escrow_nullifier.expect("escrow was observed");
    let receipt = world
        .router
        .receipt_for(&nullifier)
        .expect("settled transfer has a receipt");
    assert_eq!(receipt.amount.units(), 8_000);
    assert_eq!(world.metrics.cross_transfers_delivered, 1);

    // Indexed balances agree with the chain for every named user.
    for name in ["alice", "bob"] {
        let address = world.user(name).unwrap().mc_address();
        assert_eq!(
            indexer.balance(&address),
            world.chain.state().utxos.balance_of(&address),
            "indexed balance diverged for {name}"
        );
    }

    // Persistence is write-only: the persisted world's outcome is
    // bit-identical to the unpersisted twin's.
    assert_eq!(world.chain.tip_hash(), twin.chain.tip_hash());
    assert_eq!(world.chain.height(), twin.chain.height());
    assert_eq!(world.metrics, twin.metrics);
    assert_eq!(world.router.receipts(), twin.router.receipts());
    assert!(world.conservation_holds() && world.safeguards_hold());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mainchain reorg rolls the store back in lockstep: disconnect
/// events rewind it to the fork base, the replacement branch reconnects
/// on top, and the journaled rollback survives a restart.
#[test]
fn reorg_rolls_the_persisted_store_back_in_lockstep() {
    let dir = temp_dir("reorg");
    let mut world = persisted_world(&dir);
    let schedule = Schedule::new()
        .at(0, Action::ForwardTransferTo(0, "alice".into(), 30_000))
        .at(1, Action::CrossTransfer(0, 1, "alice".into(), 5_000));
    for tick in 0..6 {
        schedule.fire(&mut world, tick);
        world.step().unwrap();
    }

    world.inject_mc_fork(2).unwrap();
    assert_eq!(world.metrics.reorgs, 1);
    // The fork's disconnects/connects drain into the store on the next
    // tick's sync.
    world.step().unwrap();
    assert_eq!(
        world.store().unwrap().state_digest(),
        chain_state_digest(&world.chain),
        "store diverged across the reorg"
    );

    // The journaled rollback replays on recovery, and the run
    // continues cleanly afterwards.
    world.reopen_persistence().unwrap();
    for _ in 0..8 {
        world.step().unwrap();
        assert_eq!(
            world.store().unwrap().state_digest(),
            chain_state_digest(&world.chain)
        );
    }
    assert!(world.conservation_holds() && world.safeguards_hold());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A block that connects on the store's tip and disconnects again,
/// spending `spent` and restoring `restored`: journaled like any other
/// events, it leaves the store's state edited in one respect — or, with
/// `parent` other than the tip, on another tip.
fn detour(
    store: &UtxoStore,
    spent: Vec<(OutPoint, TxOut)>,
    restored: Vec<(OutPoint, TxOut)>,
    parent: Digest32,
) -> Vec<ChainEvent> {
    let hash = Digest32::hash_bytes(b"detour");
    let height = store.height() + 1;
    vec![
        ChainEvent::Connected {
            hash,
            height,
            created: Vec::new(),
            spent,
        },
        ChainEvent::Disconnected {
            hash,
            height,
            parent,
            created: Vec::new(),
            spent: restored,
        },
    ]
}

/// A journal in `dir` holding `chain`'s state, in place of any there.
fn fresh_journal(dir: &Path, chain: &Blockchain) {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = UtxoStore::open(dir, Telemetry::disabled()).unwrap();
    store.bootstrap(chain).unwrap();
}

/// Journals `edit`'s events on the store persisted in `dir`.
fn edit_journal(dir: &Path, edit: &dyn Fn(&UtxoStore) -> Vec<ChainEvent>) {
    let mut store = UtxoStore::open(dir, Telemetry::disabled()).unwrap();
    for event in edit(&store) {
        store.apply_event(&event).unwrap();
    }
    store.commit().unwrap();
}

/// A journal that differs from the live chain in exactly one respect
/// is refused with `SimError::Store`, both when persistence attaches to
/// it and when a restart recovers it; one edited back to the live state
/// is accepted by both.
#[test]
fn a_journal_one_respect_off_the_live_chain_is_refused() {
    let (attach_dir, reopen_dir) = (temp_dir("refuse-attach"), temp_dir("refuse-reopen"));
    let mut world = World::new(config());
    let schedule = schedule();
    for tick in 0..4 {
        schedule.fire(&mut world, tick);
        world.step().unwrap();
    }
    type Edit = Box<dyn Fn(&UtxoStore) -> Vec<ChainEvent>>;
    let first = |store: &UtxoStore| {
        let (outpoint, out) = store.iter().next().expect("the chain holds outputs");
        (*outpoint, out)
    };
    let edits: Vec<(&str, Edit)> = vec![
        (
            "one entry's amount",
            Box::new(move |store| {
                let (outpoint, out) = first(store);
                let more = TxOut {
                    amount: out.amount.checked_add(Amount::from_units(1)).unwrap(),
                    ..out
                };
                detour(
                    store,
                    vec![(outpoint, out)],
                    vec![(outpoint, more)],
                    store.tip(),
                )
            }),
        ),
        (
            "one entry's kind",
            Box::new(move |store| {
                let (outpoint, out) = first(store);
                let escrow = TxOut {
                    kind: OutputKind::Escrow(EscrowTag {
                        source: SidechainId::from_label("source"),
                        epoch: 0,
                        dest: SidechainId::from_label("elsewhere"),
                        payback: Address::from_label("payback"),
                        nullifier: Nullifier(Digest32::hash_bytes(b"nullifier")),
                    }),
                    ..out
                };
                detour(
                    store,
                    vec![(outpoint, out)],
                    vec![(outpoint, escrow)],
                    store.tip(),
                )
            }),
        ),
        (
            "one missing entry",
            Box::new(move |store| detour(store, vec![first(store)], Vec::new(), store.tip())),
        ),
        (
            "one extra entry",
            Box::new(move |store| {
                let absent = OutPoint {
                    txid: Digest32::hash_bytes(b"absent"),
                    index: 0,
                };
                detour(
                    store,
                    Vec::new(),
                    vec![(absent, first(store).1)],
                    store.tip(),
                )
            }),
        ),
        (
            "the tip",
            Box::new(|store| {
                let elsewhere = Digest32::hash_bytes(b"another tip");
                detour(store, Vec::new(), Vec::new(), elsewhere)
            }),
        ),
        (
            "the height",
            Box::new(|store| {
                vec![ChainEvent::Connected {
                    hash: store.tip(),
                    height: store.height() + 1,
                    created: Vec::new(),
                    spent: Vec::new(),
                }]
            }),
        ),
    ];

    let refused = |outcome: Result<(), SimError>, respect: &str, path: &str| match outcome {
        Err(SimError::Store(_)) => {}
        other => panic!("{path} accepted a journal off in {respect}: {other:?}"),
    };
    for (respect, edit) in &edits {
        fresh_journal(&attach_dir, &world.chain);
        edit_journal(&attach_dir, edit.as_ref());
        refused(world.attach_persistence(&attach_dir), respect, "attach");

        let _ = std::fs::remove_dir_all(&reopen_dir);
        world.attach_persistence(&reopen_dir).unwrap();
        edit_journal(&reopen_dir, edit.as_ref());
        refused(world.reopen_persistence().map(|_| ()), respect, "reopen");
        assert!(world.store().is_none(), "a refused restart keeps no store");
    }

    // A detour that restores what it spent leaves the state as it was:
    // accepted both ways.
    let unchanged: Edit = Box::new(move |store| {
        let entry = first(store);
        detour(store, vec![entry], vec![entry], store.tip())
    });
    fresh_journal(&attach_dir, &world.chain);
    edit_journal(&attach_dir, unchanged.as_ref());
    world.attach_persistence(&attach_dir).unwrap();
    edit_journal(&attach_dir, unchanged.as_ref());
    let digest = world.reopen_persistence().unwrap();
    assert_eq!(digest, chain_state_digest(&world.chain));
    let _ = std::fs::remove_dir_all(&attach_dir);
    let _ = std::fs::remove_dir_all(&reopen_dir);
}
