//! The three world workloads — `sc_mesh`, `mc_flood`, `bridge_rush` — on
//! one closed-loop driver: submit, step one mainchain block, let the
//! shadow nodes follow, poll for credits, repeat.
//!
//! The system is driven only through public functions and timed from
//! outside ([`Clock::system`]); everything not listed in a workload's
//! config is the crate default (`StepMode::default()`,
//! `VerifyMode::default()`), so a change to a default is measured.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zendoo_core::epoch::EpochSchedule;
use zendoo_core::ids::{Address, SidechainId};
use zendoo_crosschain::CrossChainRouter;
use zendoo_latus::consensus::ConsensusParams;
use zendoo_latus::node::LatusNode;
use zendoo_latus::params::LatusParams;
use zendoo_latus::tx::ReceiverMetadata;
use zendoo_loadgen::{LoadConfig, LoadGen, Population, Shape};
use zendoo_mainchain::mempool::MempoolConfig;
use zendoo_mainchain::transaction::{McTransaction, Output};
use zendoo_mainchain::{Block, Blockchain};
use zendoo_primitives::digest::Digest32;
use zendoo_primitives::schnorr::Keypair;
use zendoo_sim::{SimConfig, World};
use zendoo_telemetry::Snapshot;

use crate::clock::{self, Clock};
use crate::host::{self, ScratchDir};
use crate::result::{hex, RunResult};
use crate::stats::{median, quantile, Modal};
use crate::tracker::{Kind, Place, Tracker};
use crate::RunOptions;

/// The crate-default epoch (`SimConfig::default()`): 6 blocks, the first
/// 2 of the next epoch being the certificate submission window.
const EPOCH_LEN: u32 = 6;
const SUBMIT_LEN: u32 = 2;
/// A forward transfer whose MST slot is taken is refunded, not
/// credited. With ~600 live outputs a chain on `bridge_rush`, depth 16
/// collides in every run and depth 24 in one run of ten (measured: 2 of
/// 10 seeds); at 32 the odds are 3 in 10,000 a run and one run in some
/// sixty did collide; at 40 they are 1 in a million.
const MST_DEPTH: u32 = 40;
/// How many times a run sets the world up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Amounts on `sc_mesh`. Every forward transfer is a multiple of
/// `UNIT`; every tracked operation moves `UNIT + u` with a `u` unique
/// in the run and far below `UNIT`. A user only ever *spends* from its
/// home address and only ever *receives* tracked amounts elsewhere, so
/// every output at a home address is `k·UNIT − Σu` over that user's own
/// operations: change can never equal an awaited amount, and a credit
/// is never mistaken.
const UNIT: u64 = 1 << 24;
const FORWARD_UNITS: u64 = 8;
/// Large enough that the wallet's largest-first coin selection keeps
/// spending the genesis coin and never touches a backward-transfer
/// payout awaiting observation.
const MESH_FUNDING: u64 = 1 << 50;

/// Which world workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldKind {
    /// 8 sidechains × 4 named users exercising every lifecycle.
    ScMesh,
    /// A flash crowd of plain transfers into a small pool.
    McFlood,
    /// A rush of forward transfers across 8 sidechains.
    BridgeRush,
}

impl WorldKind {
    fn name(self) -> &'static str {
        match self {
            WorldKind::ScMesh => "sc_mesh",
            WorldKind::McFlood => "mc_flood",
            WorldKind::BridgeRush => "bridge_rush",
        }
    }
}

/// Sizes of one run, a pure function of `--seconds` so that counts
/// repeat exactly for one seed.
#[derive(Clone, Copy, Debug)]
struct Sizes {
    sidechains: usize,
    /// Ticks with submissions.
    load_ticks: u32,
    /// Generated population (load workloads).
    users: usize,
    /// Transactions offered per tick (load workloads).
    batch: usize,
    /// `MempoolConfig::max_count` override (`mc_flood`).
    pool_cap: Option<usize>,
    /// How many times the run kills and recovers the node's store;
    /// A restart here takes 0.6 ms (`sc_mesh`) to 7 ms and the shared
    /// host slows stretches of seconds by half, so the restarts span
    /// ≈2.5 s, long enough to hold a calm third.
    restarts: usize,
}

impl Sizes {
    fn of(kind: WorldKind, seconds: u32) -> Sizes {
        let s = seconds.max(1);
        let scaled = |per_second: u32, floor: u32, ceiling: u32| {
            (per_second * s).clamp(floor, ceiling) as usize
        };
        match kind {
            // ≈0.3 s of submits and step per loaded tick plus ≈1.1 s of
            // proving per epoch on the reference host: 4 epochs in 10 s.
            WorldKind::ScMesh => Sizes {
                sidechains: 8,
                load_ticks: EPOCH_LEN * (s * 2 / 5).max(1),
                users: 32,
                batch: 0,
                pool_cap: None,
                restarts: scaled(400, 40, 4_000),
            },
            // ≈0.25 s a tick at 200 transactions, most of it the
            // generator signing; the pool holds 90% of one batch, so
            // the crowd's surge bidders evict. Many small ticks rather
            // than few large ones: an epoch block here is a 25 ms
            // sample, and 8 of them hold still where 4 do not.
            WorldKind::McFlood => Sizes {
                sidechains: 2,
                load_ticks: (s * 24 / 5).max(EPOCH_LEN + 1),
                users: scaled(500, 400, 5_000),
                batch: scaled(20, 50, 200),
                pool_cap: Some(scaled(18, 45, 180)),
                restarts: scaled(40, 15, 400),
            },
            // ≈0.4 s a tick at 200 forward transfers plus ≈1.4 s of
            // proving per epoch.
            WorldKind::BridgeRush => Sizes {
                sidechains: 8,
                load_ticks: (s * 12 / 5).max(EPOCH_LEN + 1),
                users: scaled(500, 400, 5_000),
                batch: scaled(20, 50, 200),
                pool_cap: None,
                restarts: scaled(40, 15, 400),
            },
        }
    }
}

/// What every part of the driver shares.
struct Env {
    clock: Clock,
    world: World,
    ids: Vec<SidechainId>,
    tracker: Tracker,
    tick: u32,
    attempted: u64,
    failed: u64,
    /// One user request into the system, µs each.
    submits: Vec<f64>,
}

impl Env {
    fn fail(&mut self, operations: u64, what: &str, detail: impl std::fmt::Display) {
        eprintln!("tick {}: {what}: {detail}", self.tick);
        self.failed += operations;
    }
}

/// One `sc_mesh` user.
struct MeshUser {
    name: String,
    home: usize,
    /// The user this one pays: same seat on the successor chain.
    payee: String,
    mc_address: Address,
    home_address: Address,
    /// Where payments to the payee land: the payee's address on this
    /// user's home chain, which the payee never spends from.
    payee_address: Address,
    /// This user's address on the successor chain (cross-chain credit).
    successor_address: Address,
}

/// `sc_mesh` traffic: every lifecycle, on named users.
struct Mesh {
    users: Vec<MeshUser>,
    /// Seed-derived rotation of the user→operation assignment.
    rotation: usize,
    /// Next unique `u`.
    next_u: u64,
    /// Submit call µs by operation: pay, cross-chain, withdraw.
    by_op: [Vec<f64>; 3],
}

impl Mesh {
    fn submit(&mut self, env: &mut Env) {
        let tick = env.tick;
        for (seat, user) in self.users.iter().enumerate() {
            let home = env.ids[user.home];
            // A forward transfer into the home chain, every tick.
            let amount = (FORWARD_UNITS + u64::from(tick)) * UNIT;
            let at = env.clock.system_time();
            let world = &mut env.world;
            let (sent, _) = env.clock.system("submit", || {
                world.queue_forward_transfer_on(&home, &user.name, amount)
            });
            env.attempted += 1;
            match sent {
                Ok(()) => {
                    let place = Place::Sidechain(user.home);
                    env.tracker
                        .expect(Kind::Forward, place, user.home_address, amount, tick, at);
                }
                Err(error) => env.fail(1, "forward transfer refused", error),
            }
            // From tick 3 (the first forward transfers are spendable)
            // one sidechain operation per user and tick, rotating pay /
            // cross-chain / withdraw.
            if tick < 3 {
                continue;
            }
            let amount = UNIT + self.next_u;
            self.next_u += 1;
            let successor = (user.home + 1) % env.ids.len();
            let next = env.ids[successor];
            // The first chain sends no cross-chain transfers (it pays
            // instead), so that the traced run's independent validator
            // can certify it: a forger keeps its declarations off-chain,
            // and a validator cannot certify an epoch whose escrow
            // withdrawals it cannot pair with one.
            let op = match (seat + tick as usize + self.rotation) % 3 {
                1 if user.home == 0 => 0,
                op => op,
            };
            let at = env.clock.system_time();
            let world = &mut env.world;
            let (sent, took) = env.clock.system("submit", || match op {
                0 => world.sc_pay_on(&home, &user.name, &user.payee, amount),
                1 => world
                    .queue_cross_transfer(&home, &next, &user.name, amount)
                    .map(|_| ()),
                _ => world.sc_withdraw_on(&home, &user.name, amount),
            });
            env.attempted += 1;
            if let Err(error) = sent {
                env.fail(1, "sidechain operation refused", error);
                continue;
            }
            let micros = took.as_secs_f64() * 1e6;
            env.submits.push(micros);
            self.by_op[op].push(micros);
            let (kind, place, receiver) = match op {
                0 => (Kind::Pay, Place::Sidechain(user.home), user.payee_address),
                1 => (
                    Kind::Cross,
                    Place::Sidechain(successor),
                    user.successor_address,
                ),
                _ => (Kind::Backward, Place::Mainchain, user.mc_address),
            };
            env.tracker.expect(kind, place, receiver, amount, tick, at);
        }
    }
}

/// `mc_flood` / `bridge_rush` traffic: generated signed transactions
/// through `admit_mc_batch`.
struct Load {
    gen: LoadGen,
    /// Forward transfers, tracked on the sidechains (`bridge_rush`);
    /// otherwise plain transfers matched by txid (`mc_flood`).
    bridge: bool,
    batch: usize,
    pool_cap: usize,
    /// This tick's offered txids and the time their admission took.
    in_flight: HashSet<Digest32>,
    admit_took: Duration,
    admit_total: Duration,
    offered: u64,
    confirmed: u64,
    sig_checks: u64,
    pool_refused: u64,
    generator: Duration,
    /// `mc_flood`: submit→confirmed of each tick's transactions, ms.
    confirm_ms: Vec<f64>,
}

impl Load {
    fn submit(&mut self, env: &mut Env) -> Result<(), String> {
        let (gen, size) = (&mut self.gen, self.batch);
        let (batch, took) = env.clock.outside("generate", || gen.next_batch(size));
        self.generator += took;
        let at = env.clock.system_time();
        self.in_flight.clear();
        for tx in &batch {
            self.in_flight.insert(tx.txid());
            let McTransaction::Transfer(transfer) = tx else {
                continue;
            };
            for output in &transfer.outputs {
                let Output::Forward(ft) = output else {
                    continue;
                };
                let chain = env.ids.iter().position(|id| *id == ft.sidechain_id);
                let meta = ReceiverMetadata::parse(&ft.receiver_metadata);
                let (Some(chain), Some(meta)) = (chain, meta) else {
                    return Err("generator emitted an unroutable forward transfer".into());
                };
                env.tracker.expect(
                    Kind::Forward,
                    Place::Sidechain(chain),
                    meta.receiver,
                    ft.amount.units(),
                    env.tick,
                    at,
                );
            }
        }
        let offered = batch.len() as u64;
        let workers = host::workers();
        let world = &mut env.world;
        let (report, took) = env
            .clock
            .system("admit", || world.admit_mc_batch(batch, workers));
        self.admit_took = took;
        self.admit_total += took;
        self.offered += offered;
        self.sig_checks += report.sig_checks as u64;
        env.attempted += offered;
        env.submits
            .push(took.as_secs_f64() * 1e6 / offered.max(1) as f64);
        Ok(())
    }

    /// Folds the tick's block back into the generator and counts what
    /// confirmed. A valid transaction may miss the block for one reason
    /// only — the pool's budget (refused at the floor, or evicted by a
    /// higher bid), which is policy, not failure; any further shortfall
    /// is a failed operation.
    fn settle(&mut self, env: &mut Env, block: &Block, step_took: Duration) {
        let (gen, in_flight) = (&mut self.gen, &self.in_flight);
        let (confirmed, _) = env.clock.outside("settle", || {
            let population = gen.population_mut();
            population.settle_block(block);
            population.release_unconfirmed();
            block
                .transactions
                .iter()
                .filter(|tx| in_flight.contains(&tx.txid()))
                .count() as u64
        });
        let offered = self.in_flight.len() as u64;
        let others = block.transactions.len() as u64 - 1 - confirmed;
        let room = (self.pool_cap as u64).saturating_sub(others);
        let expected = offered.min(room);
        if confirmed < expected {
            let missed = expected - confirmed;
            env.fail(missed, "valid transactions missed the block", missed);
        }
        self.confirmed += confirmed;
        self.pool_refused += offered - confirmed.max(expected);
        if !self.bridge {
            self.confirm_ms
                .push((self.admit_took + step_took).as_secs_f64() * 1e3);
        }
    }
}

enum Traffic {
    Mesh(Mesh),
    Load(Box<Load>),
}

/// An independent mainchain validator plus, in the traced run, a shadow
/// router and a sidechain validator — all fed the world's output,
/// sharing none of its caches, timed per call, off the system clock.
struct Followers {
    chain: Blockchain,
    height: u64,
    /// `submit_block` ms; heavy = the block carries a certificate.
    blocks: Modal,
    txs: u64,
    block_txs: Vec<f64>,
    /// The sampled block with the most transactions (traced run).
    largest: Option<Block>,
    shadows: Option<Shadows>,
}

struct Shadows {
    router: CrossChainRouter,
    /// Built when chain 0 forges its first block, which names the
    /// forger the validator must accept while the chain is unstaked.
    node: Option<LatusNode>,
    sc_seen: usize,
    /// Cleared at the fault tail: the shadows keep no rollback state.
    live: bool,
    observe_us: Vec<f64>,
    collect_ms: Vec<f64>,
    receive_ms: Vec<f64>,
    certify_ms: Vec<f64>,
}

impl Followers {
    fn new(world: &World, traced: bool) -> Result<Followers, String> {
        let mut followers = Followers {
            chain: Blockchain::new(world.chain.params().clone()),
            height: 0,
            blocks: Modal::default(),
            txs: 0,
            block_txs: Vec::new(),
            largest: None,
            shadows: None,
        };
        // The declaration block precedes the first tick; it is fed but
        // not sampled.
        followers.follow(world, &mut Clock::new(false), false)?;
        followers.shadows = traced.then(|| Shadows {
            router: CrossChainRouter::new(),
            node: None,
            sc_seen: 0,
            live: true,
            observe_us: Vec::new(),
            collect_ms: Vec::new(),
            receive_ms: Vec::new(),
            certify_ms: Vec::new(),
        });
        Ok(followers)
    }

    /// Feeds every block above the follower's height. After a fork the
    /// caller lowers `height` to the fork base first.
    fn follow(&mut self, world: &World, clock: &mut Clock, sample: bool) -> Result<(), String> {
        while self.height < world.chain.height() {
            self.height += 1;
            let block = world
                .chain
                .block_at_height(self.height)
                .ok_or("active chain has a gap")?
                .clone();
            let txs = block.transactions.len();
            let carries_certificate = block
                .transactions
                .iter()
                .any(|tx| matches!(tx, McTransaction::Certificate(_)));
            let for_shadows = self.shadows.is_some().then(|| block.clone());
            let chain = &mut self.chain;
            let (outcome, took) = clock.outside("follow", || chain.submit_block(block));
            outcome.map_err(|e| format!("follower refused block {}: {e}", self.height))?;
            if sample {
                self.blocks
                    .push(took.as_secs_f64() * 1e3, carries_certificate);
                self.txs += txs as u64;
                self.block_txs.push(txs as f64);
            }
            if let (Some(shadows), Some(block)) = (&mut self.shadows, for_shadows) {
                shadows.follow(world, &self.chain, &block, clock)?;
                if sample
                    && self
                        .largest
                        .as_ref()
                        .is_none_or(|l| l.transactions.len() < txs)
                {
                    self.largest = Some(block);
                }
            }
        }
        Ok(())
    }
}

impl Shadows {
    fn follow(
        &mut self,
        world: &World,
        chain: &Blockchain,
        block: &Block,
        clock: &mut Clock,
    ) -> Result<(), String> {
        if !self.live {
            return Ok(());
        }
        // The world's coordinator observes block h, then collects the
        // matured deliveries for block h+1: the same two calls, in the
        // same order, against the follower's chain.
        let router = &mut self.router;
        let (_, took) = clock.outside("shadow.router.observe", || {
            router.observe_block(chain, block)
        });
        self.observe_us.push(took.as_secs_f64() * 1e6);
        let (_, took) = clock.outside("shadow.router.collect", || {
            std::hint::black_box(router.collect_deliveries(chain));
        });
        self.collect_ms.push(took.as_secs_f64() * 1e3);

        let id = world.sidechain_ids()[0];
        let instance = world.sidechain(&id).ok_or("first sidechain missing")?;
        let forged = instance.node.chain();
        let Some(first) = forged.first() else {
            return Ok(());
        };
        if self.node.is_none() {
            let schedule = EpochSchedule::new(2, EPOCH_LEN, SUBMIT_LEN)
                .map_err(|e| format!("epoch schedule: {e:?}"))?;
            self.node = Some(LatusNode::new(
                LatusParams::new(id, MST_DEPTH),
                schedule,
                ConsensusParams::with_bootstrap(first.header.forger),
                Arc::clone(&instance.keys),
                Keypair::from_seed(b"benchmark-validator"),
                block.header.parent,
            ));
        }
        let node = self.node.as_mut().expect("built above");
        for sc_block in &forged[self.sc_seen.min(forged.len())..] {
            let (outcome, took) =
                clock.outside("shadow.sc.receive", || node.receive_block(sc_block, block));
            outcome.map_err(|e| format!("sidechain validator refused a block: {e}"))?;
            self.receive_ms.push(took.as_secs_f64() * 1e3);
        }
        self.sc_seen = forged.len();
        if node.epoch_complete() {
            let (outcome, took) = clock.outside("shadow.sc.certify", || node.produce_certificate());
            outcome.map_err(|e| format!("sidechain validator could not certify: {e}"))?;
            self.certify_ms.push(took.as_secs_f64() * 1e3);
        }
        Ok(())
    }
}

fn seed_bytes(seed: u64) -> Vec<u8> {
    format!("zendoo-benchmark-{seed}").into_bytes()
}

/// Builds the world and its traffic source from the seed: key
/// generation, population, `World::new`. Returns the time
/// `Population::generate` and `World::new` took on their own.
fn set_up(
    kind: WorldKind,
    sizes: Sizes,
    options: &RunOptions,
) -> (World, Traffic, Duration, Duration) {
    let seed = options.seed;
    let mut config = SimConfig {
        mst_depth: MST_DEPTH,
        seed: seed_bytes(seed),
        telemetry: options.traced,
        ..SimConfig::with_sidechains(sizes.sidechains)
    };
    if let Some(max_count) = sizes.pool_cap {
        config.mempool = MempoolConfig {
            max_count,
            ..MempoolConfig::default()
        };
    }
    let pool_cap = config.mempool.max_count;
    if kind == WorldKind::ScMesh {
        let per_chain = sizes.users / sizes.sidechains;
        // Keys derive from the names, so the seed goes into the names.
        let name = |chain: usize, seat: usize| format!("s{seed}-c{chain}-u{seat}");
        let seats: Vec<(usize, usize)> = (0..sizes.sidechains)
            .flat_map(|chain| (0..per_chain).map(move |seat| (chain, seat)))
            .collect();
        config.genesis_users = seats
            .iter()
            .map(|&(chain, seat)| (name(chain, seat), MESH_FUNDING))
            .collect();
        let started = Instant::now();
        let world = World::new(config);
        let world_new = started.elapsed();
        let ids = world.sidechain_ids();
        let users = seats
            .iter()
            .map(|&(home, seat)| {
                let successor = (home + 1) % sizes.sidechains;
                let me = world.user(&name(home, seat)).expect("declared above");
                let payee = world.user(&name(successor, seat)).expect("declared above");
                MeshUser {
                    name: name(home, seat),
                    home,
                    payee: name(successor, seat),
                    mc_address: me.mc_address(),
                    home_address: me.sc_address_on(&ids[home]),
                    payee_address: payee.sc_address_on(&ids[home]),
                    successor_address: me.sc_address_on(&ids[successor]),
                }
            })
            .collect();
        let mesh = Mesh {
            users,
            rotation: (seed % 3) as usize,
            next_u: 1 + seed % 1_000,
            by_op: Default::default(),
        };
        return (world, Traffic::Mesh(mesh), Duration::ZERO, world_new);
    }
    let load = LoadConfig {
        users: sizes.users,
        seed,
        ..LoadConfig::default()
    };
    let started = Instant::now();
    let mut population = Population::generate(&load);
    let population_time = started.elapsed();
    config.genesis_users = Vec::new();
    config.extra_genesis_outputs = population.genesis_outputs();
    let started = Instant::now();
    let world = World::new(config);
    let world_new = started.elapsed();
    population.bind_genesis(&world.chain, 0);
    let bridge = kind == WorldKind::BridgeRush;
    let shape = if bridge {
        Shape::DrainTheBridge {
            sidechains: world.sidechain_ids().to_vec(),
        }
    } else {
        Shape::FlashCrowd {
            surge_bp: 1_000,
            surge_multiplier: 50,
        }
    };
    let load = Load {
        gen: LoadGen::new(population, shape, &load),
        bridge,
        batch: sizes.batch,
        pool_cap,
        in_flight: HashSet::new(),
        admit_took: Duration::ZERO,
        admit_total: Duration::ZERO,
        offered: 0,
        confirmed: 0,
        sig_checks: 0,
        pool_refused: 0,
        generator: Duration::ZERO,
        confirm_ms: Vec::new(),
    };
    (
        world,
        Traffic::Load(Box::new(load)),
        population_time,
        world_new,
    )
}

/// Looks every awaited receiver up on its chain and credits what
/// arrived. Harness work: off the system clock.
fn poll_credits(env: &mut Env) -> Result<(), String> {
    let (world, ids, tracker) = (&env.world, &env.ids, &mut env.tracker);
    let (tick, now) = (env.tick, env.clock.system_time());
    let (outcome, _) = env.clock.outside("poll", || {
        for (place, receiver) in tracker.awaited() {
            let amounts: Vec<u64> = match place {
                Place::Mainchain => world
                    .chain
                    .state()
                    .utxos
                    .owned_by(&receiver)
                    .iter()
                    .map(|(_, out)| out.amount.units())
                    .collect(),
                Place::Sidechain(chain) => world
                    .node_of(&ids[chain])
                    .map_err(|e| e.to_string())?
                    .utxos_of(&receiver)
                    .iter()
                    .map(|utxo| utxo.amount.units())
                    .collect(),
            };
            tracker.observe(place, receiver, &amounts, tick, now);
        }
        Ok(())
    });
    outcome
}

/// One tick's `World::step`, timed on the system clock. Returns its
/// duration and whether any sidechain produced a certificate in it.
fn step(env: &mut Env) -> Result<(Duration, bool), String> {
    let certificates = env.world.metrics.certificates_produced;
    let world = &mut env.world;
    let (outcome, took) = env.clock.system("step", || world.step());
    outcome.map_err(|e| format!("tick {}: step failed: {e}", env.tick))?;
    Ok((took, env.world.metrics.certificates_produced > certificates))
}

/// Runs one world workload and assembles its result.
///
/// # Errors
///
/// When the system refuses to make progress at all (a failing step, a
/// follower refusing a block); refused operations and failed checks are
/// reported in the result instead.
pub fn run(kind: WorldKind, options: &RunOptions) -> Result<RunResult, String> {
    let sizes = Sizes::of(kind, options.seconds);
    let mut result = RunResult {
        workload: kind.name().into(),
        seed: options.seed,
        seconds: options.seconds,
        traced: options.traced,
        ..RunResult::default()
    };

    // ---- set-up, several times over; the last world is the one driven.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let started = Instant::now();
        let parts = set_up(kind, sizes, options);
        setups.push(started.elapsed().as_secs_f64());
        built = Some(parts);
    }
    let (world, mut traffic, population_time, world_new) = built.expect("SETUP_REPEATS > 0");
    result.set_median("setup_s", &setups);

    let ids = world.sidechain_ids().to_vec();
    let mut followers = Followers::new(&world, options.traced)?;
    let mut env = Env {
        clock: Clock::new(options.traced),
        world,
        ids,
        tracker: Tracker::default(),
        tick: 0,
        attempted: 0,
        failed: 0,
        submits: Vec::new(),
    };
    let mut steps = Modal::default();
    let mut pending_peak = 0;
    let mut checks_held = true;

    // ---- the measured phase: loaded ticks, then (sc_mesh) a drain
    // until every tracked transfer is credited or 3 epochs pass.
    let wall = Instant::now();
    let drain_limit = sizes.load_ticks + 3 * EPOCH_LEN;
    loop {
        let loaded = env.tick < sizes.load_ticks;
        let draining = matches!(traffic, Traffic::Mesh(_)) && env.tracker.outstanding() > 0;
        if !(loaded || draining && env.tick < drain_limit) {
            break;
        }
        env.clock.set_tick(env.tick);
        env.clock.enter("tick");
        if loaded {
            match &mut traffic {
                Traffic::Mesh(mesh) => mesh.submit(&mut env),
                Traffic::Load(load) => load.submit(&mut env)?,
            }
        }
        let (took, certified) = step(&mut env)?;
        if loaded {
            steps.push(took.as_secs_f64() * 1e3, certified);
        }
        // One tick past the load: that block carries the certificates
        // of the last loaded epoch.
        let sampled = env.tick <= sizes.load_ticks;
        followers.follow(&env.world, &mut env.clock, sampled)?;
        if let Traffic::Load(load) = &mut traffic {
            let tip = env
                .world
                .chain
                .block_at_height(env.world.chain.height())
                .ok_or("tip block missing")?
                .clone();
            load.settle(&mut env, &tip, took);
        }
        poll_credits(&mut env)?;
        pending_peak = pending_peak.max(env.world.router.pending_count());
        checks_held &= env.world.conservation_holds() && env.world.safeguards_hold();
        env.clock.exit();
        env.tick += 1;
    }
    let measured_wall = wall.elapsed();
    let measured_system = env.clock.system_time();
    let measured_ticks = env.tick;

    // Whatever is still awaited at the deadline was neither credited
    // nor refunded: failed.
    env.failed += env.tracker.outstanding() as u64 + env.tracker.duplicates();
    result.check("every tracked transfer credited exactly once", {
        env.tracker.outstanding() == 0 && env.tracker.duplicates() == 0
    });
    result.check("follower tip equals world tip", {
        followers.chain.tip_hash() == env.world.chain.tip_hash()
    });

    // ---- the fault tail (sc_mesh): a depth-2 mainchain fork, then one
    // chain partitioned for 3 blocks and healed, then one more epoch.
    let mut fork_recover = None;
    let mut heal_replay = None;
    if matches!(traffic, Traffic::Mesh(_)) {
        if let Some(shadows) = &mut followers.shadows {
            shadows.live = false;
        }
        let world = &mut env.world;
        let (outcome, took) = env.clock.system("fork", || world.inject_mc_fork(2));
        outcome.map_err(|e| format!("fork injection failed: {e}"))?;
        fork_recover = Some(took.as_secs_f64() * 1e3);
        followers.height = env.world.chain.height() - 3;
        followers.follow(&env.world, &mut env.clock, false)?;
        result.check("follower tip equals world tip after the fork", {
            followers.chain.tip_hash() == env.world.chain.tip_hash()
        });

        let victim = env.ids[env.ids.len() - 1];
        env.world
            .inject_partition(&victim)
            .map_err(|e| format!("partition injection failed: {e}"))?;
        for after_heal in [false, true] {
            let ticks = if after_heal { EPOCH_LEN } else { 3 };
            for n in 0..ticks {
                env.clock.set_tick(env.tick);
                env.clock.enter("tick");
                let (took, _) = step(&mut env)?;
                if after_heal && n == 0 {
                    heal_replay = Some(took.as_secs_f64() * 1e3);
                }
                followers.follow(&env.world, &mut env.clock, false)?;
                checks_held &= env.world.conservation_holds() && env.world.safeguards_hold();
                env.clock.exit();
                env.tick += 1;
            }
            env.world.heal_partition(&victim);
        }
        result.check("follower tip equals world tip after the fault tail", {
            followers.chain.tip_hash() == env.world.chain.tip_hash()
        });
        result.check("the partitioned chain caught up", {
            env.world.metrics.blocks_replayed >= 3
                && env
                    .world
                    .shard(&victim)
                    .is_some_and(|shard| shard.backlog_len() == 0)
        });
    }
    result.check(
        "conservation and safeguards held after every tick",
        checks_held,
    );

    // ---- restart: attach a journaled store to the node, then kill and
    // recover it; `reopen_persistence` verifies the recovered digest
    // against the live chain. Last, because attaching switches the
    // chain's event log on.
    let scratch = ScratchDir::new(kind.name()).map_err(|e| format!("scratch directory: {e}"))?;
    env.world
        .attach_persistence(scratch.path())
        .map_err(|e| format!("attach persistence: {e}"))?;
    let probe_address = match &traffic {
        Traffic::Mesh(mesh) => mesh.users[0].mc_address,
        Traffic::Load(load) => load.gen.population().address_of(0),
    };
    let mut restarts = Vec::new();
    for _ in 0..sizes.restarts {
        let world = &mut env.world;
        let (outcome, took) = env.clock.system("restart", || {
            let digest = world.reopen_persistence()?;
            let balance = world
                .indexer()
                .map(|indexer| indexer.balance(&probe_address));
            Ok::<_, zendoo_sim::SimError>((digest, balance))
        });
        outcome.map_err(|e| format!("cold start failed: {e}"))?;
        restarts.push(took.as_secs_f64());
    }
    result.set_timing("cold_start_s", &restarts);

    // ---- end-to-end metrics.
    let tracker = &env.tracker;
    let (primary, completed) = match &traffic {
        Traffic::Mesh(_) => (Kind::Cross, tracker.credits().len() as u64),
        Traffic::Load(load) if load.bridge => (Kind::Forward, tracker.credits().len() as u64),
        Traffic::Load(load) => (Kind::Transfer, load.confirmed),
    };
    result.set(
        "ops_per_s",
        Some(completed as f64 / measured_system.as_secs_f64()),
    );
    result.set_timing("block_ms", &steps.all());
    result.set_timing("epoch_block_ms", &steps.mode(true));
    result.set_timing("submit_us", &env.submits);
    match &traffic {
        Traffic::Load(load) if !load.bridge => {
            result.set_timing("credit_ms", &load.confirm_ms);
            result.set("credit_blocks_p50", Some(1.0));
        }
        _ => {
            let (blocks, millis) = tracker.latencies(primary);
            result.set_timing("credit_ms", &millis);
            result.set_median("credit_blocks_p50", &blocks);
        }
    }
    result.set_timing("follower_block_ms", &followers.blocks.all());
    result.set("peak_rss_mb", host::peak_rss_mb());

    result.attempted = env.attempted;
    result.failed = env.failed;
    result.system_s = measured_system.as_secs_f64();
    result.wall_s = measured_wall.as_secs_f64();

    // ---- counts: everything that must repeat exactly for one seed.
    for kind in Kind::ALL {
        let (blocks, _) = tracker.latencies(kind);
        result.count(
            &format!("ops.{}.submitted", kind.name()),
            tracker.submitted(kind),
        );
        result.count(&format!("ops.{}.credited", kind.name()), blocks.len());
        result.count(
            &format!("ops.{}.blocks_p50", kind.name()),
            median(&blocks).unwrap_or(0.0),
        );
    }
    if let Traffic::Load(load) = &traffic {
        result.count("load.offered", load.offered);
        result.count("load.confirmed", load.confirmed);
        result.count("load.pool_refused", load.pool_refused);
        result.count("load.sig_checks", load.sig_checks);
    }
    result.count("ticks.measured", measured_ticks);
    result.count("ticks.total", env.tick);
    result.count("tip", hex(&env.world.chain.tip_hash()));
    result.count("metrics", env.world.metrics.report());
    result.count(
        "store.digest",
        env.world
            .store()
            .map_or_else(String::new, |store| hex(&store.state_digest())),
    );

    if options.traced {
        let layers = Layers {
            followers: &followers,
            steps: &steps,
            traffic: &traffic,
            pending_peak,
            population_time,
            world_new,
            fork_recover,
            heal_replay,
            measured_wall,
            measured_system,
        };
        layers.report(&env, &mut result);
        result.check(
            "each tick's system children sum to its system-clock time",
            ticks_add_up(&env.clock, measured_ticks, measured_system),
        );
    }
    result.spans = env.clock.spans().to_vec();
    Ok(result)
}

/// The traced run's own consistency check: summed over the measured
/// ticks, the `submit` / `admit` / `step` children of the `tick` spans
/// are the system clock of the measured phase, to the nanosecond.
fn ticks_add_up(clock: &Clock, measured_ticks: u32, measured_system: Duration) -> bool {
    let in_ticks: u64 = clock::tick_system_ns(clock.spans())
        .iter()
        .filter(|(tick, _, _)| *tick < measured_ticks)
        .map(|(_, _, system)| system)
        .sum();
    u128::from(in_ticks) == measured_system.as_nanos()
}

/// What the per-layer report needs beyond the shared environment.
struct Layers<'a> {
    followers: &'a Followers,
    steps: &'a Modal,
    traffic: &'a Traffic,
    pending_peak: usize,
    population_time: Duration,
    world_new: Duration,
    fork_recover: Option<f64>,
    heal_replay: Option<f64>,
    measured_wall: Duration,
    measured_system: Duration,
}

fn span_ms(snapshot: &Snapshot, path: &str) -> Option<f64> {
    snapshot
        .spans
        .get(path)
        .map(|stats| stats.total_nanos as f64 / 1e6)
}

fn hit_ratio(snapshot: &Snapshot, hit: &str, miss: &str) -> Option<f64> {
    let hit = *snapshot.counters.get(hit)? as f64;
    let miss = snapshot.counters.get(miss).copied().unwrap_or(0) as f64;
    (hit + miss > 0.0).then(|| hit / (hit + miss))
}

impl Layers<'_> {
    /// Per-layer metrics of a world run: harness timings around each
    /// public call, the shadow nodes, counts, and — where the program
    /// records them — its own spans (absent span: `None`, never an
    /// error, so a later change may rename one).
    fn report(&self, env: &Env, result: &mut RunResult) {
        let world = &env.world;
        let tracker = &env.tracker;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;

        // mainchain
        let follower_total: f64 = self.followers.blocks.total();
        result.set(
            "mainchain.follower_us_per_tx",
            (self.followers.txs > 0).then(|| follower_total * 1e3 / self.followers.txs as f64),
        );
        result.set_median(
            "mainchain.follower_cert_block_p50_ms",
            &self.followers.blocks.mode(true),
        );
        result.set_median("mainchain.block_txs_p50", &self.followers.block_txs);
        result.set(
            "mainchain.utxo_count_end",
            Some(world.chain.state().utxos.len() as f64),
        );
        if let Traffic::Load(load) = self.traffic {
            result.set(
                "mainchain.admit_us_per_tx",
                (load.offered > 0).then(|| ms(load.admit_total) * 1e3 / load.offered as f64),
            );
            result.set("mainchain.sig_checks", Some(load.sig_checks as f64));
            result.set("mainchain.pool_refused", Some(load.pool_refused as f64));
            result.set(
                "loadgen.batch_us_per_tx",
                (load.offered > 0).then(|| ms(load.generator) * 1e3 / load.offered as f64),
            );
            result.set(
                "loadgen.generator_share",
                Some(load.generator.as_secs_f64() / self.measured_wall.as_secs_f64()),
            );
            result.set(
                "loadgen.population_s",
                Some(self.population_time.as_secs_f64()),
            );
        }

        // core: the sidechain-transactions commitment of the run's
        // largest block, rebuilt as every validator rebuilds it.
        if let Some(block) = &self.followers.largest {
            const REPEATS: u32 = 20;
            let started = Instant::now();
            for _ in 0..REPEATS {
                std::hint::black_box(Blockchain::build_commitment(&block.transactions));
            }
            result.set(
                "core.sc_commitment_us",
                Some(ms(started.elapsed()) * 1e3 / f64::from(REPEATS)),
            );
        }

        // latus
        if let Traffic::Mesh(mesh) = self.traffic {
            result.set_median("latus.submit_pay_us", &mesh.by_op[0]);
            result.set_median("latus.submit_xct_us", &mesh.by_op[1]);
            result.set_median("latus.submit_withdraw_us", &mesh.by_op[2]);
            result.set("latus.submit_p99_us", quantile(&env.submits, 0.99));
            let (blocks, millis) = tracker.latencies(Kind::Backward);
            result.set_median("latus.bt_credit_p50_ms", &millis);
            result.set_median("latus.bt_credit_blocks_p50", &blocks);
        }
        result.set(
            "latus.sc_blocks_forged",
            Some(world.metrics.sc_blocks as f64),
        );
        result.set(
            "latus.certificates_produced",
            Some(world.metrics.certificates_produced as f64),
        );
        if let Ok(node) = world.node_of(&env.ids[0]) {
            let txs: Vec<f64> = node
                .chain()
                .iter()
                .map(|block| block.ordered_transactions().len() as f64)
                .collect();
            result.set_median("latus.sc_txs_per_block_p50", &txs);
            result.set("latus.mst_len_end", Some(node.state().mst().len() as f64));
        }
        if let Some(shadows) = &self.followers.shadows {
            result.set_median("latus.follower_receive_p50_ms", &shadows.receive_ms);
            result.set_median("latus.produce_certificate_p50_ms", &shadows.certify_ms);
            result.set_median("crosschain.observe_p50_us", &shadows.observe_us);
            result.set(
                "crosschain.collect_p95_ms",
                quantile(&shadows.collect_ms, 0.95),
            );
        }

        // crosschain
        result.set(
            "crosschain.delivered",
            Some(world.metrics.cross_transfers_delivered as f64),
        );
        result.set(
            "crosschain.refunded",
            Some(world.metrics.cross_transfers_refunded as f64),
        );
        let batches: Vec<f64> = world
            .router
            .settlements()
            .iter()
            .map(|record| record.transfers as f64)
            .collect();
        result.set_median("crosschain.settlement_batch_p50", &batches);
        result.set(
            "crosschain.settlement_txs_saved",
            Some(world.metrics.settlement_txs_saved as f64),
        );
        result.set("crosschain.pending_peak", Some(self.pending_peak as f64));

        // sim
        result.set("sim.world_new_ms", Some(ms(self.world_new)));
        result.set("sim.step_total_ms", Some(self.steps.total()));
        result.set("sim.fork_recover_ms", self.fork_recover);
        result.set("sim.heal_replay_ms", self.heal_replay);
        let (ft_blocks, _) = tracker.latencies(Kind::Forward);
        result.set_median("sim.ft_credit_blocks_p50", &ft_blocks);

        result.set(
            "telemetry.system_s",
            Some(self.measured_system.as_secs_f64()),
        );

        // The program's own spans, where it records them.
        let snapshot = world.telemetry_snapshot();
        for (metric, path) in [
            ("mainchain.prepare_ms", "tick.mc.prepare"),
            ("mainchain.submit_ms", "tick.mc.submit"),
            ("mainchain.stage1_ms", "mc.stage1.precheck"),
            ("mainchain.stage2_ms", "mc.stage2.verify"),
            ("mainchain.stage3_ms", "mc.stage3.apply"),
            ("mainchain.sig_batch_verify_ms", "sig.batch.verify"),
            ("latus.shard_sync_work_ms", "tick.shard.sync"),
            ("sim.coordinator_ms", "tick.coordinator"),
            ("sim.prologue_ms", "tick.prologue"),
            ("sim.fold_ms", "tick.fold"),
            ("sim.shard_critical_ms", "tick.shard.critical"),
        ] {
            result.set(metric, span_ms(&snapshot, path));
        }
        // Per restart, not summed over them.
        for (metric, path) in [
            ("store.replay_ms", "store.replay"),
            ("store.index_rebuild_ms", "indexer.coldstart"),
        ] {
            let stats = snapshot.spans.get(path).filter(|stats| stats.count > 0);
            result.set(
                metric,
                stats.map(|stats| stats.total_nanos as f64 / 1e6 / stats.count as f64),
            );
        }
        result.set(
            "latus.shard_sync_p50_ms",
            snapshot
                .spans
                .get("tick.shard.sync")
                .map(|stats| stats.nanos.quantile(0.5) as f64 / 1e6),
        );
        result.set(
            "mainchain.verdict_cache_hit_ratio",
            hit_ratio(&snapshot, "mc.verdict_cache.hit", "mc.verdict_cache.miss"),
        );
        result.set(
            "mainchain.sig_cache_hit_ratio",
            hit_ratio(&snapshot, "mc.sig_cache.hit", "mc.sig_cache.miss"),
        );
        result.set(
            "mainchain.precheck_skipped_ratio",
            hit_ratio(&snapshot, "mc.precheck.skipped", "mc.precheck.run"),
        );
        // The program records the slowest *shard* of a tick, not how
        // long its lanes ran (several shards back to back when there
        // are more shards than cores). What `tick` spent outside the
        // coordinator's serial parts is the lanes' wall time, to within
        // the block submission they overlap.
        let lanes = host::nproc().min(env.ids.len()) as f64;
        let tick = span_ms(&snapshot, "tick");
        let serial: f64 = ["tick.prologue", "tick.mc.prepare", "tick.fold"]
            .iter()
            .filter_map(|path| span_ms(&snapshot, path))
            .sum();
        let work = span_ms(&snapshot, "tick.shard.sync");
        result.set(
            "sim.parallel_efficiency",
            work.zip(tick)
                .filter(|(_, tick)| *tick > serial)
                .map(|(work, tick)| work / (lanes * (tick - serial))),
        );
        // Named children of `tick` ÷ `tick`: the serial parts plus the
        // longer of the block submission and the slowest shard.
        let overlapped = span_ms(&snapshot, "tick.mc.submit")
            .unwrap_or(0.0)
            .max(span_ms(&snapshot, "tick.shard.critical").unwrap_or(0.0));
        result.set(
            "sim.span_coverage",
            tick.filter(|tick| *tick > 0.0)
                .map(|tick| (serial + overlapped) / tick),
        );
    }
}
