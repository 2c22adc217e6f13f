//! World-level persistence contract: with `World::attach_persistence`
//! called right after `World::new`, the journaled store and indexer mirror the live world
//! bit-identically every tick — through kill-and-recover restarts,
//! torn journal tails, and mainchain reorgs — without perturbing the
//! run itself.

use std::path::{Path, PathBuf};

use zendoo_sim::{Action, Schedule, SimConfig, World};
use zendoo_store::chain_state_digest;

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
