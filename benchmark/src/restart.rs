//! The `node_restart` workload: `zendoo-store` driven directly with
//! seeded synthetic chain events.
//!
//! Set-up populates a journal. The run then kills the store without a
//! shutdown (dropping an uncommitted write, truncating the file to the
//! last commit and appending a torn partial frame) and cold-starts it —
//! `UtxoStore::open` + `Indexer::from_store` until the first query
//! answers — several times over; then a live phase applies blocks
//! durably (`apply_event` + `commit` + `Indexer::apply`) with mixed
//! queries between them. Writes beside reads beside recovery on one
//! SMT-backed structure: a change that buys rebuild time with insert or
//! query time shows here.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use zendoo_core::escrow::EscrowTag;
use zendoo_core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo_mainchain::chain::{Blockchain, ChainParams};
use zendoo_mainchain::{ChainEvent, OutPoint, TxOut};
use zendoo_primitives::digest::Digest32;
use zendoo_store::{Indexer, UtxoStore};
use zendoo_telemetry::Telemetry;

use crate::clock::Clock;
use crate::host::{self, ScratchDir};
use crate::result::{hex, RunResult};
use crate::stats::Modal;
use crate::RunOptions;

const JOURNAL_FILE: &str = "utxo-journal.log";
const DESTINATIONS: usize = 16;
/// Outputs per funded address after set-up (the balance index holds
/// a sixth as many entries as the UTXO set).
const OUTPUTS_PER_ADDRESS: usize = 6;
/// One live block in `EPOCH` carries the epoch's escrow batch, as on
/// the real chain, where certificates mint escrows and settlements
/// spend them at epoch boundaries.
const EPOCH: usize = 6;
/// `setup_s` is the median of 7 set-ups, `cold_start_s` the faster 2
/// of 5 cold starts (`RunResult::set_timing`): the shared host slows
/// stretches of seconds by half and a 1.3 s cold start sits wholly
/// inside one.
const SETUP_REPEATS: usize = 7;
const COLD_STARTS: usize = 5;

/// Sizes of one run, a pure function of `--seconds`.
#[derive(Clone, Copy, Debug)]
struct Sizes {
    populate_blocks: usize,
    populate_created: usize,
    populate_spent: usize,
    /// Escrow-kind outputs pending after set-up.
    pending: usize,
    live_blocks: usize,
    live_created: usize,
    live_spent: usize,
    /// Escrows minted / spent by each epoch block of the live phase.
    epoch_minted: usize,
    epoch_spent: usize,
    /// Mixed queries between two live blocks.
    queries: usize,
}

impl Sizes {
    fn of(seconds: u32) -> Sizes {
        let s = seconds.max(1) as usize;
        Sizes {
            populate_blocks: 20,
            populate_created: 300 * s,
            populate_spent: 15 * s,
            pending: 80 * s,
            live_blocks: (18 * s).max(2 * EPOCH),
            live_created: 1_000,
            live_spent: 50,
            epoch_minted: 60,
            epoch_spent: 30,
            queries: 1_000,
        }
    }
}

/// SplitMix64: the query mix and the addresses it asks for.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Seeded synthetic chain events, stateful so that every spend names an
/// output that exists.
struct Chain {
    seed: u64,
    /// Distinct funded addresses.
    addresses: u64,
    height: u64,
    outputs: u64,
    dests: Vec<SidechainId>,
    source: SidechainId,
    /// Regular outputs of the previous block, spendable by the next.
    spendable: Vec<(OutPoint, TxOut)>,
    /// Escrows minted and not yet spent, oldest first.
    escrows: std::collections::VecDeque<(OutPoint, TxOut, usize, Nullifier)>,
    escrows_minted: u64,
}

impl Chain {
    fn new(seed: u64, addresses: u64) -> Chain {
        let mut chain = Chain {
            seed,
            addresses: addresses.max(1),
            height: 0,
            outputs: 0,
            dests: Vec::new(),
            source: SidechainId(Digest32::ZERO),
            spendable: Vec::new(),
            escrows: std::collections::VecDeque::new(),
            escrows_minted: 0,
        };
        chain.dests = (0..DESTINATIONS as u64)
            .map(|d| SidechainId(chain.digest("dest", d)))
            .collect();
        chain.source = SidechainId(chain.digest("source", 0));
        chain
    }

    fn digest(&self, tag: &str, i: u64) -> Digest32 {
        Digest32::hash_tagged(
            "zendoo/benchmark-restart",
            &[tag.as_bytes(), &self.seed.to_be_bytes(), &i.to_be_bytes()],
        )
    }

    fn address(&self, i: u64) -> Address {
        Address(self.digest("addr", i % self.addresses))
    }

    /// The next block: `created` regular outputs, `minted` escrows,
    /// `spent` regular outputs of the previous block and the `settled`
    /// oldest escrows consumed.
    fn next_block(
        &mut self,
        created: usize,
        minted: usize,
        spent: usize,
        settled: usize,
    ) -> ChainEvent {
        self.height += 1;
        let mut created_now = Vec::with_capacity(created + minted);
        let mut regular = Vec::with_capacity(created);
        for i in 0..created + minted {
            let outpoint = OutPoint {
                txid: self.digest("tx", self.outputs),
                index: 0,
            };
            let address = self.address(self.outputs);
            let amount = Amount::from_units(1_000 + self.outputs % 9_000);
            self.outputs += 1;
            let out = if i < minted {
                let slot = (self.escrows_minted % DESTINATIONS as u64) as usize;
                let nullifier = Nullifier(self.digest("null", self.escrows_minted));
                self.escrows_minted += 1;
                let tag = EscrowTag {
                    source: self.source,
                    epoch: self.height as u32,
                    dest: self.dests[slot],
                    payback: address,
                    nullifier,
                };
                let out = TxOut::escrow(address, amount, tag);
                self.escrows.push_back((outpoint, out, slot, nullifier));
                out
            } else {
                let out = TxOut::regular(address, amount);
                regular.push((outpoint, out));
                out
            };
            created_now.push((outpoint, out));
        }
        let mut spent_now: Vec<(OutPoint, TxOut)> = self
            .spendable
            .drain(..spent.min(self.spendable.len()))
            .collect();
        for _ in 0..settled.min(self.escrows.len().saturating_sub(minted)) {
            let (outpoint, out, _, _) = self.escrows.pop_front().expect("length checked");
            spent_now.push((outpoint, out));
        }
        self.spendable = regular;
        ChainEvent::Connected {
            hash: self.digest("block", self.height),
            height: self.height,
            created: created_now,
            spent: spent_now,
        }
    }
}

/// Set-up: bootstraps a store in `dir` and journals the populate
/// blocks, committing once per block as a node does.
fn populate(dir: &Path, seed: u64, sizes: &Sizes) -> Result<(UtxoStore, Chain), String> {
    let _ = std::fs::remove_dir_all(dir);
    let genesis = Blockchain::new(ChainParams::default());
    let mut store =
        UtxoStore::open(dir, Telemetry::disabled()).map_err(|e| format!("open: {e}"))?;
    store
        .bootstrap(&genesis)
        .map_err(|e| format!("bootstrap: {e}"))?;
    let addresses = sizes.populate_blocks * sizes.populate_created / OUTPUTS_PER_ADDRESS;
    let mut chain = Chain::new(seed, addresses as u64);
    let per_block = sizes.pending.div_ceil(sizes.populate_blocks);
    for _ in 0..sizes.populate_blocks {
        let minted = per_block.min(sizes.pending - chain.escrows.len());
        let event = chain.next_block(sizes.populate_created, minted, sizes.populate_spent, 0);
        store
            .apply_event(&event)
            .map_err(|e| format!("apply: {e}"))?;
        store.commit().map_err(|e| format!("commit: {e}"))?;
    }
    Ok((store, chain))
}

/// Runs the workload and assembles its result.
///
/// # Errors
///
/// When the store cannot be created, written or recovered at all.
pub fn run(options: &RunOptions) -> Result<RunResult, String> {
    let sizes = Sizes::of(options.seconds);
    let mut result = RunResult {
        workload: "node_restart".into(),
        seed: options.seed,
        seconds: options.seconds,
        traced: options.traced,
        ..RunResult::default()
    };
    let scratch = ScratchDir::new("node_restart").map_err(|e| format!("scratch directory: {e}"))?;
    let dir = scratch.path().join("store");
    let journal = dir.join(JOURNAL_FILE);
    let mut clock = Clock::new(options.traced);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    // ---- set-up, several times over; the last journal is kept.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let started = Instant::now();
        built = Some(populate(&dir, options.seed, &sizes)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let (mut store, mut chain) = built.expect("SETUP_REPEATS > 0");
    result.set_median("setup_s", &setups);
    let mut indexer = Indexer::from_store(&store, Telemetry::disabled());
    let utxos_after_setup = store.utxo_count();

    // ---- kill and cold-start.
    let mut cold = Vec::new();
    let mut replay_ms = Vec::new();
    let mut rebuild_ms = Vec::new();
    let mut replay_per_block_ms = Vec::new();
    let mut records_replayed = 0;
    let mut torn_discarded = 0;
    let (mut digests_match, mut pending_exact, mut torn_exact) = (true, true, true);
    for round in 0..COLD_STARTS {
        let committed_len = store.journal_bytes();
        let committed_digest = store.state_digest();
        let committed_pending = indexer.pending_total();
        // A write the crash loses: appended, never committed.
        let mut doomed = Chain::new(options.seed ^ 0xdead, 1);
        doomed.height = chain.height;
        store
            .apply_event(&doomed.next_block(100, 0, 0, 0))
            .map_err(|e| format!("apply: {e}"))?;
        drop((store, indexer));
        // Killing a process leaves what the operating system holds;
        // losing power does not. Discard everything after the last
        // sync, then leave a frame the crash tore in half: a header
        // promising more payload than follows.
        let mut torn = 4_096u32.to_be_bytes().to_vec();
        torn.resize(12 + 61 + round * 7, 0xa5);
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .and_then(|mut file| {
                file.set_len(committed_len)?;
                file.write_all(&torn)?;
                file.sync_all()
            });
        file.map_err(|e| format!("tearing the journal: {e}"))?;

        clock.set_tick(round as u32);
        clock.enter("cold_start");
        let (opened, replay) =
            clock.system("replay", || UtxoStore::open(&dir, Telemetry::disabled()));
        store = opened.map_err(|e| format!("cold start: {e}"))?;
        let (rebuilt, rebuild) = clock.system("rebuild", || {
            Indexer::from_store(&store, Telemetry::disabled())
        });
        indexer = rebuilt;
        let probe = chain.address(round as u64);
        let (_, first_query) = clock.system("query", || {
            black_box(indexer.balance(&probe));
        });
        clock.exit();

        cold.push((replay + rebuild + first_query).as_secs_f64());
        replay_ms.push(ms(replay));
        rebuild_ms.push(ms(rebuild));
        let stats = store.replay_stats().clone();
        records_replayed = stats.records;
        torn_discarded += stats.torn_bytes;
        replay_per_block_ms.push(ms(replay) / stats.records.max(1) as f64);
        digests_match &= store.state_digest() == committed_digest;
        pending_exact &= indexer.pending_total() == committed_pending;
        torn_exact &= stats.torn_bytes == torn.len() as u64;
    }
    result.check(
        "state digest after each cold start equals the last commit's",
        digests_match,
    );
    result.check(
        "pending inbound total is exact after each cold start",
        pending_exact,
    );
    result.check("torn bytes are discarded exactly", torn_exact);
    result.set_timing("cold_start_s", &cold);
    result.set_timing("follower_block_ms", &replay_per_block_ms);
    let after_cold_starts = clock.system_time();

    // ---- live phase: durable block applies beside mixed queries.
    let wall = Instant::now();
    let mut rng = Rng(options.seed);
    let mut blocks = Modal::default();
    let (mut apply_us, mut commit_us, mut index_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut credit_ms = Vec::new();
    let mut query_us = Vec::new();
    // Per class: (queries, time). Balance, point, list, root.
    let mut classes = [(0u64, Duration::ZERO); 4];
    let (mut queries, mut unanswered) = (0u64, 0u64);
    for block in 0..sizes.live_blocks {
        clock.set_tick((COLD_STARTS + block) as u32);
        clock.enter("tick");
        let epoch_block = block % EPOCH == EPOCH - 1;
        let (minted, settled) = if epoch_block {
            (sizes.epoch_minted, sizes.epoch_spent)
        } else {
            (0, 0)
        };
        let event = chain.next_block(sizes.live_created, minted, sizes.live_spent, settled);
        let credited = match &event {
            ChainEvent::Connected { created, .. } => created.last().map(|(_, out)| out.address),
            ChainEvent::Disconnected { .. } => None,
        };
        let (delta, apply) = clock.system("apply_event", || store.apply_event(&event));
        let delta = delta.map_err(|e| format!("apply: {e}"))?;
        let (committed, commit) = clock.system("commit", || store.commit());
        committed.map_err(|e| format!("commit: {e}"))?;
        let (_, index) = clock.system("index", || indexer.apply(&delta));
        // The block's value is credited once a query answers for it.
        let (balance, first) = clock.system("query", || {
            credited.map(|address| indexer.balance(&address))
        });
        unanswered += u64::from(balance.is_none_or(|amount| amount.is_zero()));
        blocks.push(ms(apply + commit + index), epoch_block);
        apply_us.push(ms(apply) * 1e3);
        commit_us.push(ms(commit) * 1e3);
        index_us.push(ms(index) * 1e3);
        credit_ms.push(ms(apply + commit + index + first));

        // Mixed queries: 60% balance, 30% pending point, 5% pending
        // list, 5% inbound root — chosen and addressed by the seed,
        // grouped by class so each class is timed as one call.
        let mut plan: [Vec<u64>; 4] = Default::default();
        for _ in 0..sizes.queries {
            let class = match rng.below(100) {
                0..=59 => 0,
                60..=89 => 1,
                90..=94 => 2,
                _ => 3,
            };
            plan[class].push(rng.next());
        }
        let escrows = &chain.escrows;
        let dests = &chain.dests;
        let mut batch = Duration::ZERO;
        for (class, draws) in plan.iter().enumerate() {
            let (answered, took) = clock.system("query", || {
                let mut answered = 0u64;
                for draw in draws {
                    answered += u64::from(match class {
                        0 => {
                            black_box(indexer.balance(&chain.address(*draw)));
                            true
                        }
                        1 => {
                            let (_, _, slot, nullifier) =
                                &escrows[(*draw % escrows.len() as u64) as usize];
                            indexer
                                .pending_inbound_for(&dests[*slot], nullifier)
                                .is_some()
                        }
                        2 => !indexer
                            .pending_inbound(&dests[(*draw % DESTINATIONS as u64) as usize])
                            .is_empty(),
                        _ => indexer
                            .inbound_root(&dests[(*draw % DESTINATIONS as u64) as usize])
                            .is_some(),
                    });
                }
                answered
            });
            classes[class].0 += draws.len() as u64;
            classes[class].1 += took;
            queries += draws.len() as u64;
            unanswered += draws.len() as u64 - answered;
            batch += took;
        }
        query_us.push(ms(batch) * 1e3 / sizes.queries as f64);
        // A balance the index answers must be the one a scan of the
        // store finds (checked on two addresses a block, off the clock).
        let (wrong, _) = clock.outside("verify", || {
            (0..2)
                .map(|_| chain.address(rng.next()))
                .filter(|address| indexer.balance(address) != store.balance_of(address))
                .count() as u64
        });
        unanswered += wrong;
        clock.exit();
    }
    let live_system = clock.system_time() - after_cold_starts;
    let live_wall = wall.elapsed();

    let (digest, digest_took) = clock.outside("state_digest", || store.state_digest());
    let recount = Indexer::from_store(&store, Telemetry::disabled());
    result.check("every query answered what the store holds", unanswered == 0);
    result.check("the live index equals an index rebuilt from the store", {
        recount.pending_total() == indexer.pending_total()
            && indexer.pending_total() == chain.escrows.len()
            && chain
                .dests
                .iter()
                .all(|dest| recount.inbound_root(dest) == indexer.inbound_root(dest))
    });

    result.set(
        "ops_per_s",
        Some(queries as f64 / live_system.as_secs_f64()),
    );
    result.set_timing("block_ms", &blocks.all());
    result.set_timing("epoch_block_ms", &blocks.mode(true));
    result.set_timing("submit_us", &query_us);
    result.set_timing("credit_ms", &credit_ms);
    result.set("credit_blocks_p50", Some(1.0));
    result.set("peak_rss_mb", host::peak_rss_mb());

    result.attempted = queries + sizes.live_blocks as u64 + COLD_STARTS as u64;
    result.failed = unanswered
        + [digests_match, pending_exact, torn_exact]
            .iter()
            .filter(|held| !**held)
            .count() as u64;
    result.system_s = live_system.as_secs_f64();
    result.wall_s = live_wall.as_secs_f64();

    result.count("utxos.after_setup", utxos_after_setup);
    result.count("utxos.end", store.utxo_count());
    result.count("pending.end", indexer.pending_total());
    result.count("journal.bytes", store.journal_bytes());
    result.count("journal.records_replayed", records_replayed);
    result.count("journal.torn_bytes", torn_discarded);
    result.count("queries", queries);
    result.count("blocks.live", sizes.live_blocks);
    result.count("store.digest", hex(&digest));
    result.count("tip", hex(&store.tip()));

    if options.traced {
        result.set_median("store.replay_ms", &replay_ms);
        result.set_median("store.index_rebuild_ms", &rebuild_ms);
        result.set_median("store.apply_event_p50_us", &apply_us);
        result.set_median("store.commit_p50_us", &commit_us);
        result.set_median("store.indexer_apply_p50_us", &index_us);
        let per = |class: usize, scale: f64| {
            let (count, took) = classes[class];
            (count > 0).then(|| took.as_secs_f64() * scale / count as f64)
        };
        result.set("store.query_balance_ns", per(0, 1e9));
        result.set("store.query_pending_point_ns", per(1, 1e9));
        result.set("store.query_pending_list_us", per(2, 1e6));
        result.set("store.inbound_root_ns", per(3, 1e9));
        result.set("store.state_digest_ms", Some(ms(digest_took)));
        result.set("store.journal_bytes", Some(store.journal_bytes() as f64));
        result.set("store.records_replayed", Some(records_replayed as f64));
        result.set("store.torn_bytes", Some(torn_discarded as f64));
        result.set("telemetry.system_s", Some(live_system.as_secs_f64()));
        result.check(
            "each tick's system children sum to its system-clock time",
            crate::clock::tick_system_ns(clock.spans())
                .iter()
                .map(|(_, _, system)| u128::from(*system))
                .sum::<u128>()
                == live_system.as_nanos(),
        );
    }
    result.spans = clock.spans().to_vec();
    Ok(result)
}
