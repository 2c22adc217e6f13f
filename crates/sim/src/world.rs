//! The simulation world: one mainchain, **any number** of Latus
//! sidechain deployments, a cross-chain router, named users on every
//! chain, deterministic time, and fault injection.
//!
//! The world is split into an **MC-side coordinator** (this module plus
//! [`crate::coordinator`]: the mainchain, its [`Miner`], the router,
//! the users and the global metrics) and one [`SidechainShard`] per
//! deployed sidechain (the node, its fault flags and per-chain
//! metrics). Each tick the coordinator mines the next mainchain block
//! and hands it to every shard; the shards run on scoped worker
//! threads ([`SimConfig::workers`] lanes), overlapped with the block's
//! own submission, and return ordered effect logs the coordinator
//! applies in declaration order — so a tick is bit-identical for every
//! worker count.
//!
//! The world drives each sidechain node block-by-block against the
//! shared mainchain, produces certificates per sidechain at epoch
//! boundaries, and routes declared [`CrossChainTransfer`]s between
//! sidechains through the [`CrossChainRouter`].
//!
//! # Examples
//!
//! Two sidechains exchange value through the mainchain, on two worker
//! lanes:
//!
//! ```
//! use zendoo_sim::{Schedule, Action, SimConfig, World};
//!
//! let mut config = SimConfig::with_sidechains(2);
//! config.workers = Some(2);
//! let mut world = World::new(config);
//!
//! let schedule = Schedule::new()
//!     .at(0, Action::ForwardTransferTo(0, "alice".into(), 10_000))
//!     .at(2, Action::CrossTransfer(0, 1, "alice".into(), 4_000));
//! schedule.run(&mut world, 14).unwrap();
//!
//! assert_eq!(world.metrics.cross_transfers_delivered, 1);
//! assert!(world.conservation_holds() && world.safeguards_hold());
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use zendoo_core::certificate::WithdrawalCertificate;
use zendoo_core::crosschain::{escrow_address, CrossChainTransfer};
use zendoo_core::epoch::EpochSchedule;
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_crosschain::{CrossChainRouter, RouterSnapshot};
use zendoo_latus::consensus::ConsensusParams;
use zendoo_latus::node::{LatusKeys, LatusNode, NodeError};
use zendoo_latus::params::LatusParams;
use zendoo_latus::tx::ReceiverMetadata;
use zendoo_latus::wallet::{ScWallet, ScWalletError};
use zendoo_mainchain::chain::{Blockchain, ChainParams, SubmitOutcome};
use zendoo_mainchain::mempool::{AdmitOutcome, MempoolConfig};
use zendoo_mainchain::miner::Miner;
use zendoo_mainchain::pipeline::VerifyMode;
use zendoo_mainchain::sigbatch::AdmissionReport;
use zendoo_mainchain::transaction::{McTransaction, TxOut};
use zendoo_mainchain::wallet::Wallet;
use zendoo_primitives::schnorr::Keypair;
use zendoo_primitives::smt;
use zendoo_snark::batch::fan_out;
use zendoo_store::{chain_state_digest, Indexer, StoreError, UtxoStore};
use zendoo_telemetry::{InMemoryRecorder, Snapshot, Telemetry};

use crate::coordinator;
use crate::metrics::Metrics;
use crate::shard::{ShardMetrics, SidechainShard};

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Labels of the simulated sidechains, in declaration order.
    pub sidechain_labels: Vec<String>,
    /// Withdrawal-epoch length in MC blocks (shared by all sidechains).
    pub epoch_len: u32,
    /// Certificate submission window.
    pub submit_len: u32,
    /// MST depth. The default, 63, leaves a §5.3.2 slot collision to
    /// chance ≈ 2⁻⁶³ a pair rather than to where the hash happens to put
    /// a test world's leaves; an MST write costs ≈ log₂ n + 2
    /// permutations at any depth.
    pub mst_depth: u32,
    /// Users funded at MC genesis: `(name, amount)`.
    pub genesis_users: Vec<(String, u64)>,
    /// Setup seed (keys are deterministic per seed).
    pub seed: Vec<u8>,
    /// Worker lanes for the per-sidechain phase of [`World::step`]:
    /// `None` (the default) uses one lane per available core. Clamped
    /// to the live shard count; `Some(1)` is an in-thread sequential
    /// loop with no spawn overhead — the determinism reference.
    /// Outcomes are bit-identical for every value; only the wall-clock
    /// profile changes.
    pub workers: Option<usize>,
    /// When `true` the world records telemetry into an
    /// [`InMemoryRecorder`] from construction on (spans, counters and
    /// histograms across the mainchain pipeline, the router and the
    /// shards); snapshot it via [`World::telemetry_snapshot`]. The
    /// default is `false`: every instrument site then hits the no-op
    /// recorder, whose cost is a single branch. Recording can also be
    /// switched on later via [`World::enable_telemetry`].
    pub telemetry: bool,
    /// How the mainchain checks the SNARK statements of a connecting
    /// block (see [`VerifyMode`]). Consensus outcomes are identical in
    /// both modes; `Aggregated` verifies one recursive block proof
    /// instead of one proof per statement. Switchable later via
    /// [`World::set_verify_mode`].
    pub verify_mode: VerifyMode,
    /// Capacity and sharding of the miner's MC mempool. The
    /// default budget is far above scenario-scale traffic (nothing is
    /// ever evicted); load tests shrink it to exercise fee-prioritized
    /// eviction under pressure.
    pub mempool: MempoolConfig,
    /// Extra mainchain genesis outputs appended after the
    /// [`SimConfig::genesis_users`] outputs. Load generation funds
    /// populations too large for named users through this hook.
    pub extra_genesis_outputs: Vec<TxOut>,
    /// When set, the world persists the mainchain's UTXO set through a
    /// journaled [`UtxoStore`] in this directory and serves
    /// balance/receipt/pending-inbound queries from an [`Indexer`]
    /// over it (both synced and fsynced at the end of every tick).
    /// `None` (the default) runs fully in memory. Can also be attached
    /// later via [`World::attach_persistence`].
    pub persist_dir: Option<std::path::PathBuf>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            sidechain_labels: vec!["sim-sidechain".into()],
            epoch_len: 6,
            submit_len: 2,
            mst_depth: 63,
            genesis_users: vec![("alice".into(), 1_000_000), ("bob".into(), 500_000)],
            seed: b"zendoo-sim".to_vec(),
            workers: None,
            telemetry: false,
            verify_mode: VerifyMode::default(),
            mempool: MempoolConfig::default(),
            extra_genesis_outputs: Vec::new(),
            persist_dir: None,
        }
    }
}

impl SimConfig {
    /// A default configuration with `n` sidechains (`sc-0` … `sc-{n-1}`).
    pub fn with_sidechains(n: usize) -> Self {
        SimConfig {
            sidechain_labels: (0..n).map(|i| format!("sc-{i}")).collect(),
            ..SimConfig::default()
        }
    }
}

/// A named participant: a mainchain wallet plus a sidechain wallet per
/// deployed sidechain.
#[derive(Clone, Debug)]
pub struct User {
    /// Mainchain wallet.
    pub wallet: Wallet,
    per_chain: BTreeMap<SidechainId, ScWallet>,
}

impl User {
    /// The user's mainchain address.
    pub fn mc_address(&self) -> Address {
        self.wallet.address()
    }

    /// The user's wallet on a deployed sidechain.
    ///
    /// # Panics
    ///
    /// When the world never deployed `id` — every [`World`] entry point
    /// answers that with [`SimError::UnknownSidechain`] before asking.
    fn sc_wallet_on(&self, id: &SidechainId) -> &ScWallet {
        self.per_chain
            .get(id)
            .unwrap_or_else(|| panic!("no keys on undeployed sidechain {id}"))
    }

    /// The user's keypair on a deployed sidechain; panics when the
    /// world never deployed `id`.
    pub fn sc_keys_on(&self, id: &SidechainId) -> &Keypair {
        self.sc_wallet_on(id).keypair()
    }

    /// The user's address on a deployed sidechain; panics like
    /// [`User::sc_keys_on`].
    pub fn sc_address_on(&self, id: &SidechainId) -> Address {
        self.sc_wallet_on(id).address()
    }
}

/// One deployed Latus sidechain inside the world.
pub struct ScInstance {
    /// Human label (from [`SimConfig::sidechain_labels`]).
    pub label: String,
    /// The sidechain id.
    pub id: SidechainId,
    /// The Latus node (forger + prover).
    pub node: LatusNode,
    /// Shared proving material.
    pub keys: Arc<LatusKeys>,
}

/// Simulation-level failures.
#[derive(Debug)]
pub enum SimError {
    /// Unknown user name.
    UnknownUser(String),
    /// Unknown sidechain (bad index or id).
    UnknownSidechain(String),
    /// A mainchain operation failed.
    Chain(zendoo_mainchain::BlockError),
    /// A wallet operation failed.
    Wallet(zendoo_mainchain::wallet::WalletError),
    /// A sidechain node operation failed.
    Node(NodeError),
    /// A fault-injection request conflicts with the world's current
    /// state (e.g. partitioning a shard that is already stalled).
    Config(&'static str),
    /// A requested mainchain fork cannot be injected: the depth must
    /// be at least 1, leave the sidechain-declaration block on the
    /// active chain, and fit inside the chain's `max_reorg_depth` undo
    /// window (beyond it neither the registry journal nor the router
    /// snapshots can rewind).
    ForkTooDeep {
        /// The requested fork depth in blocks.
        requested: u64,
        /// The deepest fork this world can currently inject.
        max: u64,
    },
    /// The persistent store failed (journal I/O, corrupt record, or
    /// recovered state contradicting the live chain).
    Store(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownUser(name) => write!(f, "unknown user {name}"),
            SimError::UnknownSidechain(what) => write!(f, "unknown sidechain {what}"),
            SimError::Chain(e) => write!(f, "mainchain: {e}"),
            SimError::Wallet(e) => write!(f, "wallet: {e}"),
            SimError::Node(e) => write!(f, "node: {e}"),
            SimError::Config(what) => write!(f, "fault injection: {what}"),
            SimError::ForkTooDeep { requested, max } => write!(
                f,
                "fork depth {requested} out of range (deepest injectable fork: {max})"
            ),
            SimError::Store(what) => write!(f, "store: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<zendoo_mainchain::BlockError> for SimError {
    fn from(e: zendoo_mainchain::BlockError) -> Self {
        SimError::Chain(e)
    }
}

impl From<zendoo_mainchain::wallet::WalletError> for SimError {
    fn from(e: zendoo_mainchain::wallet::WalletError) -> Self {
        SimError::Wallet(e)
    }
}

impl From<NodeError> for SimError {
    fn from(e: NodeError) -> Self {
        SimError::Node(e)
    }
}

/// Insufficient sidechain funds read as the node would report the
/// resulting transaction: inputs below outputs.
impl From<ScWalletError> for SimError {
    fn from(e: ScWalletError) -> Self {
        let ScWalletError::InsufficientFunds {
            requested,
            available,
        } = e;
        SimError::Node(NodeError::Tx(zendoo_latus::tx::TxError::ValueImbalance {
            input: available,
            output: requested,
        }))
    }
}

impl From<StoreError> for SimError {
    fn from(e: StoreError) -> Self {
        SimError::Store(e.to_string())
    }
}

/// The simulation world: the MC-side coordinator state plus one
/// [`SidechainShard`] per deployed sidechain.
pub struct World {
    /// The mainchain.
    pub chain: Blockchain,
    /// Per-sidechain shards (instance + faults + per-chain metrics),
    /// keyed by id.
    pub(crate) shards: BTreeMap<SidechainId, SidechainShard>,
    /// Sidechain ids in declaration order.
    pub(crate) order: Vec<SidechainId>,
    /// Named users.
    pub users: HashMap<String, User>,
    /// Collected metrics.
    pub metrics: Metrics,
    /// The cross-chain transfer router.
    pub router: CrossChainRouter,
    /// The mainchain miner: admission into its fee-prioritized pool
    /// (capacity from [`SimConfig::mempool`]), the block template the
    /// tick prepares, and re-pooling after a reorg.
    pub(crate) miner: Miner,
    /// When `true`, certificates of *all* sidechains are produced but
    /// not submitted (the withheld-certificate fault).
    pub withhold_certificates: bool,
    /// Router receipt-stream cursor already folded into `metrics`.
    pub(crate) receipts_cursor: u64,
    /// Router settlement windows already folded into `metrics`.
    pub(crate) settlements_seen: usize,
    /// Per-block router undo records keyed by the pre-block chain tip,
    /// so `inject_mc_fork` can rewind the router (and the
    /// receipt-derived metrics) alongside the registry undo records
    /// (pruned to the chain's reorg window).
    pub(crate) router_undo: Vec<RouterUndo>,
    /// Digests of every forged competing certificate injected by a
    /// quality war — the audit ground truth: none of these may ever
    /// appear as an accepted certificate in the registry. Append-only
    /// on purpose (a reorg never legitimizes a forgery, so the set is
    /// not part of the router undo records).
    pub(crate) forged_certs: BTreeSet<zendoo_primitives::digest::Digest32>,
    pub(crate) time: u64,
    /// Worker lanes for the shard phase ([`SimConfig::workers`]).
    pub(crate) workers: Option<usize>,
    /// The telemetry handle shared by the chain, the router, the
    /// miner's pool and the coordinator (disabled unless
    /// [`SimConfig::telemetry`] or [`World::enable_telemetry`]).
    pub(crate) telemetry: Telemetry,
    /// The sink behind `telemetry` when recording is on.
    pub(crate) recorder: Option<Arc<InMemoryRecorder>>,
    /// Durable UTXO store + indexer, when persistence is attached
    /// ([`SimConfig::persist_dir`] / [`World::attach_persistence`]).
    pub(crate) persistence: Option<Persistence>,
}

/// The persistence stack one world drives: the journaled store, the
/// indexer derived from its deltas, and the indexer's private cursor
/// into the router's receipt stream.
pub(crate) struct Persistence {
    pub(crate) dir: std::path::PathBuf,
    pub(crate) store: UtxoStore,
    pub(crate) indexer: Indexer,
    pub(crate) receipts_cursor: u64,
}

/// Everything a mainchain fork must rewind besides the chain itself:
/// the router state at the pre-block tip plus the receipt-derived
/// metric counters — without the latter, transfers re-settled on the
/// replacement branch would be double-counted.
#[derive(Clone)]
pub(crate) struct RouterUndo {
    /// The chain tip this record is consistent with.
    tip: zendoo_primitives::digest::Digest32,
    router: RouterSnapshot,
    receipts_cursor: u64,
    settlements_seen: usize,
    cross_delivered: u64,
    cross_refunded: u64,
    cross_rejected: u64,
    settlement_windows: u64,
    settlement_txs: u64,
    settlement_txs_saved: u64,
}

impl World {
    /// Bootstraps the world: genesis, one declaration per configured
    /// sidechain (all in one block), one node per sidechain.
    pub fn new(config: SimConfig) -> Self {
        assert!(
            !config.sidechain_labels.is_empty(),
            "at least one sidechain required"
        );
        let sidechain_ids: Vec<SidechainId> = config
            .sidechain_labels
            .iter()
            .map(|label| SidechainId::from_label(label))
            .collect();
        // Set-up is key derivation — one mainchain wallet and one wallet
        // per sidechain for every user, one trusted setup per sidechain —
        // and every key is a pure function of its seed: derive them on
        // the tick's worker lanes, results in declaration order.
        let workers = coordinator::lanes(config.workers);
        let users: HashMap<String, User> = fan_out(
            &config.genesis_users,
            workers,
            || (),
            |(name, _)| {
                // The first chain's seed carries no chain label: every
                // recorded digest of a single-chain run depends on it.
                let per_chain: BTreeMap<SidechainId, ScWallet> = config
                    .sidechain_labels
                    .iter()
                    .zip(&sidechain_ids)
                    .enumerate()
                    .map(|(i, (label, id))| {
                        let seed = if i == 0 {
                            format!("sc-{name}")
                        } else {
                            format!("sc-{label}-{name}")
                        };
                        (*id, ScWallet::from_seed(seed.as_bytes()))
                    })
                    .collect();
                (
                    name.clone(),
                    User {
                        wallet: Wallet::from_seed(format!("mc-{name}").as_bytes()),
                        per_chain,
                    },
                )
            },
        )
        .into_iter()
        .collect();

        let chain_params = ChainParams {
            genesis_outputs: config
                .genesis_users
                .iter()
                .map(|(name, amount)| {
                    TxOut::regular(users[name].mc_address(), Amount::from_units(*amount))
                })
                .chain(config.extra_genesis_outputs.iter().cloned())
                .collect(),
            ..ChainParams::default()
        };
        let mut chain = Blockchain::new(chain_params);
        let (telemetry, recorder) = if config.telemetry {
            let (telemetry, recorder) = Telemetry::in_memory();
            (telemetry, Some(recorder))
        } else {
            (Telemetry::disabled(), None)
        };
        chain.set_telemetry(telemetry.clone());
        chain.set_verify_mode(config.verify_mode);
        let mut miner = Miner::new(Wallet::from_seed(b"sim-miner").address(), config.mempool);
        miner.set_telemetry(telemetry.clone());

        let schedule = EpochSchedule::new(2, config.epoch_len, config.submit_len)
            .expect("simulation schedule valid");
        let all_keys = fan_out(
            &sidechain_ids,
            workers,
            || (),
            |id| {
                let params = LatusParams::new(*id, config.mst_depth);
                let keys = LatusKeys::generate(params, schedule, &config.seed);
                (params, Arc::new(keys))
            },
        );
        let mut declarations = Vec::new();
        let mut prepared = Vec::new();
        for ((label, id), (params, keys)) in config
            .sidechain_labels
            .iter()
            .zip(&sidechain_ids)
            .zip(all_keys)
        {
            declarations.push(McTransaction::SidechainDeclaration(Box::new(
                keys.sidechain_config(&params, schedule),
            )));
            prepared.push((label.clone(), *id, params, keys));
        }
        chain
            .mine_next_block(miner.address(), declarations, 1)
            .expect("declaration block");

        // Process-wide constants are charged to the first call that
        // builds them (`opcount`): build them here, so that no shard's
        // `latus.*` counters depend on which world or lane ran first.
        escrow_address();
        smt::empty_hash();

        let mut shards = BTreeMap::new();
        for (i, (label, id, params, keys)) in prepared.into_iter().enumerate() {
            let forger = if i == 0 {
                Keypair::from_seed(b"sim-forger")
            } else {
                Keypair::from_seed(format!("sim-forger-{label}").as_bytes())
            };
            let mut node = LatusNode::new(
                params,
                schedule,
                ConsensusParams::with_bootstrap(forger.public),
                Arc::clone(&keys),
                forger,
                chain.tip_hash(),
            );
            node.set_reorg_horizon(chain.params().max_reorg_depth + 1);
            shards.insert(
                id,
                SidechainShard::new(ScInstance {
                    label,
                    id,
                    node,
                    keys,
                }),
            );
        }

        let mut world = World {
            chain,
            shards,
            order: sidechain_ids,
            users,
            metrics: Metrics::default(),
            router: {
                let mut router = CrossChainRouter::new();
                router.set_telemetry(telemetry.clone());
                router
            },
            miner,
            withhold_certificates: false,
            receipts_cursor: 0,
            settlements_seen: 0,
            router_undo: Vec::new(),
            forged_certs: BTreeSet::new(),
            time: 1,
            workers: config.workers,
            telemetry,
            recorder,
            persistence: None,
        };
        // Anchor snapshot: the router state at the bootstrap tip, so
        // forks reaching back to the first stepped block can rewind it.
        let anchor = world.capture_router_undo(world.chain.tip_hash());
        world.router_undo.push(anchor);
        if let Some(dir) = &config.persist_dir {
            world
                .attach_persistence(dir)
                .expect("SimConfig::persist_dir must be usable");
        }
        world
    }

    /// Attaches durable persistence: the chain starts logging
    /// connect/disconnect events, and a journaled [`UtxoStore`] plus
    /// [`Indexer`] in `dir` mirror it from this tick on (synced and
    /// fsynced at the end of every [`World::step`]). A fresh directory
    /// is bootstrapped with a snapshot of the current state; an
    /// existing journal must already match the live chain exactly.
    ///
    /// # Errors
    ///
    /// [`SimError::Store`] when the journal cannot be opened/written or
    /// holds state that contradicts the live chain.
    pub fn attach_persistence(&mut self, dir: &std::path::Path) -> Result<(), SimError> {
        let mut store = UtxoStore::open(dir, self.telemetry.clone())?;
        if !store.is_seeded() {
            store.bootstrap(&self.chain)?;
        } else if store.state_digest() != chain_state_digest(&self.chain) {
            return Err(SimError::Store(format!(
                "journal in {} holds a different chain state (height {} vs {})",
                dir.display(),
                store.height(),
                self.chain.height(),
            )));
        }
        self.chain.enable_event_log();
        let mut indexer = Indexer::from_store(&store, self.telemetry.clone());
        indexer.ingest_receipts(self.router.receipts_since(0));
        self.persistence = Some(Persistence {
            dir: dir.to_path_buf(),
            store,
            indexer,
            receipts_cursor: self.router.receipts_recorded(),
        });
        Ok(())
    }

    /// Kill-and-recover: drops the live store/indexer (as a crashed
    /// process would) and rebuilds both purely from the journal on
    /// disk, verifying the recovered state is bit-identical to the
    /// in-memory chain. Returns the recovered state digest.
    ///
    /// # Errors
    ///
    /// [`SimError::Store`] when no persistence is attached, the journal
    /// cannot be reopened, or the recovered state diverges from the
    /// live chain.
    pub fn reopen_persistence(&mut self) -> Result<zendoo_primitives::digest::Digest32, SimError> {
        let Some(persistence) = self.persistence.take() else {
            return Err(SimError::Store("no persistence attached".into()));
        };
        let dir = persistence.dir;
        drop((persistence.store, persistence.indexer));

        let store = UtxoStore::open(&dir, self.telemetry.clone())?;
        let digest = store.state_digest();
        if digest != chain_state_digest(&self.chain) {
            return Err(SimError::Store(format!(
                "journal in {} recovered to height {} but the live chain is at {}",
                dir.display(),
                store.height(),
                self.chain.height(),
            )));
        }
        let mut indexer = Indexer::from_store(&store, self.telemetry.clone());
        // Receipts live with the router, not the journal: re-ingest the
        // full retained stream.
        indexer.ingest_receipts(self.router.receipts_since(0));
        self.persistence = Some(Persistence {
            dir,
            store,
            indexer,
            receipts_cursor: self.router.receipts_recorded(),
        });
        Ok(digest)
    }

    /// The durable UTXO store, when persistence is attached.
    pub fn store(&self) -> Option<&UtxoStore> {
        self.persistence.as_ref().map(|p| &p.store)
    }

    /// The indexer over the durable store, when persistence is
    /// attached.
    pub fn indexer(&self) -> Option<&Indexer> {
        self.persistence.as_ref().map(|p| &p.indexer)
    }

    /// Drains this tick's chain events into the store (journal +
    /// fsync), folds the deltas into the indexer, and ingests fresh
    /// router receipts. No-op without attached persistence.
    fn persist_sync(&mut self) -> Result<(), SimError> {
        if self.persistence.is_none() {
            return Ok(());
        }
        let events = self.chain.drain_events();
        let persistence = self.persistence.as_mut().expect("checked above");
        for event in &events {
            let delta = persistence.store.apply_event(event)?;
            persistence.indexer.apply(&delta);
        }
        persistence.store.commit()?;
        // A fork rewind truncates the router's receipt log; clamp so
        // the cursor never points past it.
        let recorded = self.router.receipts_recorded();
        if persistence.receipts_cursor > recorded {
            persistence.receipts_cursor = recorded;
        }
        persistence
            .indexer
            .ingest_receipts(self.router.receipts_since(persistence.receipts_cursor));
        persistence.receipts_cursor = recorded;
        Ok(())
    }

    /// Captures the router state and receipt-derived metric counters,
    /// consistent with chain tip `tip`.
    pub(crate) fn capture_router_undo(
        &self,
        tip: zendoo_primitives::digest::Digest32,
    ) -> RouterUndo {
        RouterUndo {
            tip,
            router: self.router.snapshot(),
            receipts_cursor: self.receipts_cursor,
            settlements_seen: self.settlements_seen,
            cross_delivered: self.metrics.cross_transfers_delivered,
            cross_refunded: self.metrics.cross_transfers_refunded,
            cross_rejected: self.metrics.cross_transfers_rejected,
            settlement_windows: self.metrics.settlement_windows,
            settlement_txs: self.metrics.settlement_txs,
            settlement_txs_saved: self.metrics.settlement_txs_saved,
        }
    }

    /// Restores a [`RouterUndo`] record: router state, stream cursors
    /// and the receipt-derived metric counters.
    fn restore_router_undo(&mut self, undo: RouterUndo) {
        self.router.restore(undo.router);
        self.receipts_cursor = undo.receipts_cursor;
        self.settlements_seen = undo.settlements_seen;
        self.metrics.cross_transfers_delivered = undo.cross_delivered;
        self.metrics.cross_transfers_refunded = undo.cross_refunded;
        self.metrics.cross_transfers_rejected = undo.cross_rejected;
        self.metrics.settlement_windows = undo.settlement_windows;
        self.metrics.settlement_txs = undo.settlement_txs;
        self.metrics.settlement_txs_saved = undo.settlement_txs_saved;
    }

    // ---- Lookup -------------------------------------------------------

    /// Looks up a user.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownUser`].
    pub fn user(&self, name: &str) -> Result<&User, SimError> {
        self.users
            .get(name)
            .ok_or_else(|| SimError::UnknownUser(name.into()))
    }

    /// Sidechain ids in declaration order.
    pub fn sidechain_ids(&self) -> &[SidechainId] {
        &self.order
    }

    /// The id of the `index`-th declared sidechain.
    pub fn sidechain_id_at(&self, index: usize) -> Result<SidechainId, SimError> {
        self.order
            .get(index)
            .copied()
            .ok_or_else(|| SimError::UnknownSidechain(format!("index {index}")))
    }

    /// A deployed sidechain instance.
    pub fn sidechain(&self, id: &SidechainId) -> Option<&ScInstance> {
        self.shards.get(id).map(|shard| &shard.instance)
    }

    /// A sidechain's shard (instance + fault flags + per-chain
    /// metrics + inbound view).
    pub fn shard(&self, id: &SidechainId) -> Option<&SidechainShard> {
        self.shards.get(id)
    }

    /// A shard's per-chain metrics.
    pub fn shard_metrics_of(&self, id: &SidechainId) -> Option<&ShardMetrics> {
        self.shards.get(id).map(|shard| &shard.metrics)
    }

    /// The transfers currently routed toward `id` (this shard's
    /// private copy of the router partition, as of the last tick).
    pub fn pending_inbound_of(&self, id: &SidechainId) -> &[CrossChainTransfer] {
        self.shards
            .get(id)
            .map(|shard| shard.pending_inbound())
            .unwrap_or(&[])
    }

    /// The ids of shards quarantined by a contained panic, in id
    /// order.
    pub fn quarantined_sidechains(&self) -> Vec<SidechainId> {
        self.shards
            .values()
            .filter(|shard| shard.quarantined)
            .map(|shard| shard.id())
            .collect()
    }

    fn instance(&self, id: &SidechainId) -> Result<&ScInstance, SimError> {
        self.shards
            .get(id)
            .map(|shard| &shard.instance)
            .ok_or_else(|| SimError::UnknownSidechain(id.to_string()))
    }

    fn instance_mut(&mut self, id: &SidechainId) -> Result<&mut ScInstance, SimError> {
        self.shards
            .get_mut(id)
            .map(|shard| &mut shard.instance)
            .ok_or_else(|| SimError::UnknownSidechain(id.to_string()))
    }

    /// The node of a specific sidechain.
    pub fn node_of(&self, id: &SidechainId) -> Result<&LatusNode, SimError> {
        Ok(&self.instance(id)?.node)
    }

    /// Mutable access to a sidechain's node, for driving it past what
    /// the world's own entry points accept (adversarial tests submit
    /// transfers the world would refuse to build).
    pub fn node_of_mut(&mut self, id: &SidechainId) -> Result<&mut LatusNode, SimError> {
        Ok(&mut self.instance_mut(id)?.node)
    }

    // ---- Actions ------------------------------------------------------

    /// Queues a mainchain transaction for the next mined block through
    /// the miner's single admission path
    /// ([`Miner::submit_transaction`]: stage-1 precheck, fee resolution
    /// against the confirmed UTXO set, pooling). A refused submission —
    /// structurally invalid, or ranked below a full pool's floor —
    /// counts as a rejection; duplicates are dropped silently.
    pub fn queue_mc_tx(&mut self, tx: McTransaction) {
        let certificate = matches!(tx, McTransaction::Certificate(_));
        match self.miner.submit_transaction(&self.chain, tx) {
            Ok(AdmitOutcome::Admitted | AdmitOutcome::Duplicate) => {}
            Ok(AdmitOutcome::RejectedFull) | Err(_) => self.metrics.note_rejection(certificate),
        }
    }

    /// Admits a whole batch through the miner's fee-aware,
    /// batch-verified admission path ([`Miner::submit_batch`]): all
    /// transfer signatures verified on `workers` scoped threads, the
    /// verdicts pooled alongside each entry so the next block build
    /// re-verifies nothing. The admitted set is identical for every
    /// `workers` value; rejections land on the same counters as
    /// [`World::queue_mc_tx`] rejections.
    pub fn admit_mc_batch(&mut self, txs: Vec<McTransaction>, workers: usize) -> AdmissionReport {
        let World {
            chain,
            miner,
            metrics,
            ..
        } = self;
        miner.submit_batch(chain, txs, workers, |tx, _| {
            metrics.note_rejection(matches!(tx, McTransaction::Certificate(_)));
        })
    }

    /// Quality-war injection: pools a forged competitor of `honest`
    /// whose claimed quality is shifted by `delta`. The forgery keeps
    /// the honest proof, which therefore no longer matches its own
    /// statement (quality is bound into the certificate's public
    /// inputs), so consensus rejects it at the SNARK check — or, for a
    /// stale lower-quality replay processed after the honest winner, at
    /// the strictly-increasing-quality rule. The digest is recorded in
    /// [`World::forged_certificate_digests`] so audits can prove no
    /// forgery is ever accepted.
    pub(crate) fn pool_forged_competitor(&mut self, honest: &WithdrawalCertificate, delta: i64) {
        let mut forged = honest.clone();
        // Saturation is intentional here: the forged quality is
        // adversarial input, not an account — clamping at the domain
        // bounds just yields a different (equally invalid) forgery.
        forged.quality = if delta >= 0 {
            honest.quality.saturating_add(delta as u64)
        } else {
            honest.quality.saturating_sub(delta.unsigned_abs())
        };
        if forged.quality == honest.quality {
            return;
        }
        self.forged_certs.insert(forged.digest());
        self.metrics.certificates_forged += 1;
        self.queue_mc_tx(McTransaction::Certificate(Box::new(forged)));
    }

    /// Digests of every forged competing certificate injected so far
    /// (quality wars). Audits assert the registry never accepts one.
    pub fn forged_certificate_digests(&self) -> &BTreeSet<zendoo_primitives::digest::Digest32> {
        &self.forged_certs
    }

    /// Queues a forward transfer from a user to their own address on a
    /// sidechain.
    ///
    /// # Errors
    ///
    /// [`SimError`] on unknown users/sidechains or insufficient funds.
    pub fn queue_forward_transfer_on(
        &mut self,
        sc: &SidechainId,
        name: &str,
        amount: u64,
    ) -> Result<(), SimError> {
        self.instance(sc)?;
        let user = self.user(name)?.clone();
        let meta = ReceiverMetadata {
            receiver: user.sc_address_on(sc),
            payback: user.mc_address(),
        };
        let tx = user.wallet.forward_transfer(
            &self.chain,
            *sc,
            meta.to_bytes(),
            Amount::from_units(amount),
            Amount::ZERO,
        )?;
        self.queue_mc_tx(tx);
        self.metrics.forward_transfers += 1;
        Ok(())
    }

    /// Queues a forward transfer whose receiver metadata is
    /// deliberately corrupted (one trailing byte beyond the classic
    /// 64-byte layout): the destination sidechain classifies it as
    /// malformed and must refund the full amount to the payback slot
    /// the blob still carries — the user's MC address — through the
    /// consensus-checked backward-transfer path. Fault scenarios use
    /// this to prove malformed deposits are never stranded in the
    /// registry balance.
    ///
    /// # Errors
    ///
    /// [`SimError`] on unknown users/sidechains or insufficient funds.
    pub fn queue_malformed_forward_transfer_on(
        &mut self,
        sc: &SidechainId,
        name: &str,
        amount: u64,
    ) -> Result<(), SimError> {
        self.instance(sc)?;
        let user = self.user(name)?.clone();
        let mut blob = ReceiverMetadata {
            receiver: user.sc_address_on(sc),
            payback: user.mc_address(),
        }
        .to_bytes();
        // Corrupt the envelope (wrong length), keeping the payback slot
        // at bytes 32..64 intact for the salvage rule.
        blob.push(0xFF);
        let tx = user.wallet.forward_transfer(
            &self.chain,
            *sc,
            blob,
            Amount::from_units(amount),
            Amount::ZERO,
        )?;
        self.queue_mc_tx(tx);
        self.metrics.forward_transfers += 1;
        self.metrics.forward_transfers_malformed += 1;
        Ok(())
    }

    /// Submits a payment between users on a sidechain.
    ///
    /// # Errors
    ///
    /// [`SimError`] on unknown users/sidechains or insufficient funds.
    pub fn sc_pay_on(
        &mut self,
        sc: &SidechainId,
        from: &str,
        to: &str,
        amount: u64,
    ) -> Result<(), SimError> {
        let state = self.instance(sc)?.node.state();
        let sender = self.user(from)?.sc_wallet_on(sc);
        let receiver = self.user(to)?.sc_address_on(sc);
        let tx = sender.pay(state, receiver, Amount::from_units(amount))?;
        self.instance_mut(sc)?.node.submit_transaction(tx)?;
        self.metrics.sc_payments += 1;
        Ok(())
    }

    /// Initiates a sidechain→mainchain withdrawal (whole-UTXO: change
    /// also returns to the user's MC address).
    ///
    /// # Errors
    ///
    /// [`SimError`] on unknown users/sidechains or insufficient funds.
    pub fn sc_withdraw_on(
        &mut self,
        sc: &SidechainId,
        name: &str,
        amount: u64,
    ) -> Result<(), SimError> {
        let state = self.instance(sc)?.node.state();
        let user = self.user(name)?;
        let tx =
            user.sc_wallet_on(sc)
                .withdraw(state, user.mc_address(), Amount::from_units(amount))?;
        self.instance_mut(sc)?.node.submit_transaction(tx)?;
        self.metrics.backward_transfers += 1;
        Ok(())
    }

    /// Initiates a sidechain→sidechain transfer: `name` moves `amount`
    /// from their account on `from_sc` to their account on `to_sc`,
    /// routed through the mainchain. Returns the transfer message.
    ///
    /// # Errors
    ///
    /// [`SimError`] on unknown chains/users or insufficient funds.
    pub fn queue_cross_transfer(
        &mut self,
        from_sc: &SidechainId,
        to_sc: &SidechainId,
        name: &str,
        amount: u64,
    ) -> Result<CrossChainTransfer, SimError> {
        let state = self.instance(from_sc)?.node.state();
        self.instance(to_sc)?;
        let user = self.user(name)?;
        let (receiver, payback) = (user.sc_address_on(to_sc), user.mc_address());
        let wallet = user.sc_wallet_on(from_sc).clone();
        let amount = Amount::from_units(amount);
        let (selected, _) = wallet.select(state, amount)?;
        let secret = &wallet.keypair().secret;
        let inputs = selected.into_iter().map(|utxo| (utxo, secret)).collect();
        let xct = self
            .instance_mut(from_sc)?
            .node
            .submit_cross_transfer(inputs, amount, *to_sc, receiver, payback)?;
        self.metrics.cross_transfers_initiated += 1;
        Ok(xct)
    }

    /// Starts withholding certificates for one sidechain only.
    pub fn withhold_certificates_for(&mut self, sc: &SidechainId) {
        if let Some(shard) = self.shards.get_mut(sc) {
            shard.withheld = true;
        }
    }

    /// Resumes certificate submission for one sidechain.
    pub fn resume_certificates_for(&mut self, sc: &SidechainId) {
        if let Some(shard) = self.shards.get_mut(sc) {
            shard.withheld = false;
        }
    }

    /// Injects a crash fault: the shard panics at its next sync (before
    /// mutating its node), is quarantined by the containment logic and
    /// — having stopped certifying — eventually ceases on the
    /// mainchain, like any other liveness fault.
    pub fn inject_shard_panic(&mut self, sc: &SidechainId) {
        if let Some(shard) = self.shards.get_mut(sc) {
            shard.panic_next_sync = true;
        }
    }

    /// Injects a network partition: the shard stops receiving mainchain
    /// blocks and buffers them instead.
    /// Heals via [`World::heal_partition`] (the backlog replays at the
    /// shard's next sync). A no-op error if the chain is unknown or the
    /// shard is already partitioned/diverged.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSidechain`] for undeclared chains;
    /// [`SimError::Config`] when the shard is already stalled.
    pub fn inject_partition(&mut self, sc: &SidechainId) -> Result<(), SimError> {
        let shard = self
            .shards
            .get_mut(sc)
            .ok_or_else(|| SimError::UnknownSidechain(sc.to_string()))?;
        if shard.stalled() {
            return Err(SimError::Config("shard already partitioned or diverged"));
        }
        shard.partitioned = true;
        self.metrics.partitions += 1;
        Ok(())
    }

    /// Heals a partition injected by [`World::inject_partition`]. The
    /// buffered canonical blocks replay into the node at the shard's
    /// next sync (possibly producing several certificates at once if
    /// epoch boundaries were crossed; late ones are rejected by the
    /// submission window, so a partition outlasting the window still
    /// ceases the chain, per the paper's Def 4.2). Idempotent.
    pub fn heal_partition(&mut self, sc: &SidechainId) {
        if let Some(shard) = self.shards.get_mut(sc) {
            shard.partitioned = false;
        }
    }

    /// Injects a relay equivocation: a faulty relay forges a phantom
    /// successor of the current tip (valid proof-of-work, never adopted
    /// by the mainchain) and delivers it to this shard only. The node
    /// accepts it — it extends the tip the node knows — and diverges
    /// from the canonical chain; subsequent canonical blocks no longer
    /// connect and are buffered until [`World::heal_relay`] rolls the
    /// node back to the last truly canonical block. Equivocation can
    /// thus stall a shard (liveness) but never splits settled value
    /// (safety) — audited by the conservation checks.
    ///
    /// Returns the phantom block's hash.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSidechain`] for undeclared chains;
    /// [`SimError::Config`] when the shard is already stalled;
    /// [`SimError::Node`] if the node refuses the phantom block.
    pub fn inject_relay_equivocation(
        &mut self,
        sc: &SidechainId,
    ) -> Result<zendoo_primitives::digest::Digest32, SimError> {
        let shard = self
            .shards
            .get_mut(sc)
            .ok_or_else(|| SimError::UnknownSidechain(sc.to_string()))?;
        if shard.stalled() {
            return Err(SimError::Config("shard already partitioned or diverged"));
        }
        // The tip is the last block the node shares with the canonical
        // chain — the heal target.
        let tip = self.chain.tip_hash();
        let phantom = self
            .chain
            .mine_branch(&tip, 1, self.miner.address(), 800_000 + self.time)?
            .pop()
            .expect("mine_branch(count=1) yields one block");
        shard.adopt_phantom(&phantom)?;
        self.metrics.sc_blocks += 1;
        self.metrics.relay_equivocations += 1;
        self.time += 1;
        Ok(phantom.hash())
    }

    /// Heals a relay equivocation: rolls the diverged node back to the
    /// last canonical block it shares with the mainchain, after which
    /// the buffered canonical backlog replays at its next sync. Returns
    /// the number of SC blocks reverted (0 if the shard was not
    /// diverged).
    ///
    /// # Errors
    ///
    /// [`SimError::Node`] if the rollback target left the node's
    /// history.
    pub fn heal_relay(&mut self, sc: &SidechainId) -> Result<usize, SimError> {
        let Some(shard) = self.shards.get_mut(sc) else {
            return Ok(0);
        };
        let reverted = shard.heal_relay()?;
        self.metrics.sc_blocks_reverted += reverted as u64;
        Ok(reverted)
    }

    /// Starts a certificate quality war on one sidechain: every honest
    /// certificate it produces is pooled surrounded by forged
    /// competitors claiming adjacent quality (one front-running with
    /// `quality + 1`, one trailing with `quality − 1`). The forgeries
    /// carry the honest proof, which no longer matches their claimed
    /// quality, so consensus rejects every one — audited via
    /// [`World::forged_certificate_digests`].
    pub fn start_quality_war(&mut self, sc: &SidechainId) {
        if let Some(shard) = self.shards.get_mut(sc) {
            shard.quality_war = true;
        }
    }

    /// Ends a quality war started by [`World::start_quality_war`].
    pub fn end_quality_war(&mut self, sc: &SidechainId) {
        if let Some(shard) = self.shards.get_mut(sc) {
            shard.quality_war = false;
        }
    }

    // ---- Progression --------------------------------------------------

    /// The mainchain's current proof-verification mode.
    pub fn verify_mode(&self) -> VerifyMode {
        self.chain.verify_mode()
    }

    /// Switches how the mainchain checks the SNARK statements of a
    /// connecting block (see [`VerifyMode`]). Consensus outcomes are
    /// identical in both modes; only the verification cost profile
    /// changes.
    pub fn set_verify_mode(&mut self, mode: VerifyMode) {
        self.chain.set_verify_mode(mode);
    }

    /// The world's telemetry handle (shared by the chain, the router
    /// and the coordinator). Disabled unless [`SimConfig::telemetry`]
    /// was set or [`World::enable_telemetry`] was called.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Switches telemetry recording on (idempotent). All subsequent
    /// steps record into an in-memory recorder; anything recorded
    /// before the switch is lost (the disabled recorder drops
    /// everything).
    pub fn enable_telemetry(&mut self) {
        if self.recorder.is_some() {
            return;
        }
        let (telemetry, recorder) = Telemetry::in_memory();
        self.chain.set_telemetry(telemetry.clone());
        self.router.set_telemetry(telemetry.clone());
        self.miner.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self.recorder = Some(recorder);
    }

    /// A deterministic snapshot of everything recorded so far: spans
    /// (`tick`, `mc.stage1.precheck` … `mc.stage3.apply`,
    /// `snark.batch.verify`, `router.observe`, `tick.shard.sync`),
    /// counters (`mc.reject.*`, `mc.verdict_cache.*`, `router.*`,
    /// `shard.*`) and histograms (`router.settlement.batch_size`,
    /// `mc.block_txs`, …). Empty when recording is off. Render it with
    /// [`zendoo_telemetry::render_report`].
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.recorder
            .as_ref()
            .map(|recorder| recorder.snapshot())
            .unwrap_or_default()
    }

    /// Merges a shard-local snapshot into the world recorder (used by
    /// the coordinator, which absorbs shard effects in declaration
    /// order so the aggregate is identical for every worker count).
    pub(crate) fn absorb_shard_telemetry(&mut self, snapshot: &Snapshot) {
        if let Some(recorder) = &self.recorder {
            recorder.absorb(snapshot);
        }
    }

    /// Advances the world by one mainchain block: drains matured
    /// cross-chain deliveries into the mempool, mines the queued
    /// transactions, feeds the block to the router and to every
    /// sidechain shard, and — at epoch boundaries — produces and
    /// (unless withheld) submits each sidechain's certificate.
    ///
    /// The per-sidechain phase runs on [`SimConfig::workers`] scoped
    /// worker lanes, overlapped with the block's submission; the result
    /// is bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// [`SimError`] on chain/node failures (contained shard panics are
    /// *not* errors: the shard is quarantined and counted in
    /// [`Metrics::shard_panics`]).
    pub fn step(&mut self) -> Result<(), SimError> {
        coordinator::step(self)?;
        self.persist_sync()
    }

    /// Folds freshly produced router receipts and settlement records
    /// into the metrics.
    pub(crate) fn sync_cross_metrics(&mut self) {
        use zendoo_core::crosschain::DeliveryStatus;
        for receipt in self.router.receipts_since(self.receipts_cursor) {
            match receipt.status {
                DeliveryStatus::Delivered { .. } => self.metrics.cross_transfers_delivered += 1,
                DeliveryStatus::Refunded { .. } => self.metrics.cross_transfers_refunded += 1,
                DeliveryStatus::Rejected { .. }
                | DeliveryStatus::ReplayRejected
                | DeliveryStatus::NotEscrowed => self.metrics.cross_transfers_rejected += 1,
                DeliveryStatus::Pending => {}
            }
        }
        self.receipts_cursor = self.router.receipts_recorded();
        for record in &self.router.settlements()[self.settlements_seen..] {
            self.metrics.settlement_windows += 1;
            self.metrics.settlement_txs += (record.delivery_txs + record.refund_txs) as u64;
            // Batching can only shrink a window's transaction count: the
            // router emits at most one delivery tx per destination plus
            // one shared refund tx, never more txs than transfers. An
            // underflow here is a router accounting bug, not a value to
            // clamp away.
            let saved = record
                .transfers
                .checked_sub(record.delivery_txs + record.refund_txs)
                .unwrap_or_else(|| {
                    debug_assert!(
                        false,
                        "settlement window emitted more txs ({} + {}) than transfers ({})",
                        record.delivery_txs, record.refund_txs, record.transfers
                    );
                    0
                });
            self.metrics.settlement_txs_saved += saved as u64;
        }
        self.settlements_seen = self.router.settlements().len();
    }

    /// Runs `n` steps.
    ///
    /// # Errors
    ///
    /// Stops at the first failing step.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// The first declared sidechain's node: every chain shares one
    /// epoch schedule, so it is the world's epoch clock.
    fn first_node(&self) -> &LatusNode {
        &self.shards[&self.order[0]].instance.node
    }

    /// Runs until the first declared sidechain has certified `epochs`
    /// more withdrawal epochs (or the step budget runs out).
    ///
    /// # Errors
    ///
    /// [`SimError`] on failures.
    pub fn run_epochs(&mut self, epochs: u32) -> Result<(), SimError> {
        let target = self.first_node().current_epoch() + epochs;
        let mut budget = 10_000u32;
        while self.first_node().current_epoch() < target && budget > 0 {
            self.step()?;
            budget -= 1;
        }
        Ok(())
    }

    /// Injects a mainchain fork: builds `depth + 1` empty blocks on the
    /// branch point `depth` blocks below the tip, triggering a reorg;
    /// re-pools the disconnected transactions ([`Miner::on_reorg`]);
    /// rewinds the cross-chain router to its snapshot at the fork base
    /// (so queued escrows, nullifier reservations and receipts roll
    /// back in lock-step with the registry undo records) and lets it
    /// observe the branch; and rewrites what each shard will be fed
    /// ([`SidechainShard::reorg`]) before running the ordinary shard
    /// phase over the replacement branch — so a node certifies at
    /// every epoch boundary the branch crosses, a stalled shard buffers
    /// the branch, and a shard that is merely behind catches up.
    ///
    /// Returns the total number of SC blocks reverted across chains.
    ///
    /// # Errors
    ///
    /// [`SimError::ForkTooDeep`] when `depth` is 0 or exceeds the
    /// deepest currently injectable fork (the tip height minus the
    /// genesis block, capped by the chain's `max_reorg_depth` undo
    /// window); other [`SimError`]s if the reorg cannot be performed.
    /// Once the chain has reorganized every shard is still served; the
    /// first shard error, in declaration order, is reported last.
    pub fn inject_mc_fork(&mut self, depth: u64) -> Result<usize, SimError> {
        let height = self.chain.height();
        // Saturation is intentional: at genesis (height 0) there is
        // simply no injectable fork, which the `depth > max` check below
        // reports as `ForkTooDeep` — not an accounting underflow.
        let max = height
            .saturating_sub(1)
            .min(self.chain.params().max_reorg_depth as u64);
        if depth == 0 || depth > max {
            return Err(SimError::ForkTooDeep {
                requested: depth,
                max,
            });
        }
        let fork_base = self
            .chain
            .hash_at_height(height - depth)
            .expect("fork base exists");

        // Mine the competing branch directly off the stored fork base
        // (monotone time base keeps repeated forks from colliding on
        // identical headers).
        let time_base = 900_000 + self.time;
        let branch =
            self.chain
                .mine_branch(&fork_base, depth + 1, self.miner.address(), time_base)?;
        let mut disconnected = Vec::new();
        for block in &branch {
            if let SubmitOutcome::Reorganized {
                disconnected: hashes,
                ..
            } = self.chain.submit_block(block.clone())?
            {
                self.metrics.reorgs += 1;
                disconnected = hashes;
            }
        }
        // The next step's block builder rejects any re-pooled
        // transaction that became invalid on the new branch.
        for tx in self.miner.on_reorg(&self.chain, &disconnected) {
            self.metrics
                .note_rejection(matches!(tx, McTransaction::Certificate(_)));
        }
        // Rewind the router (and the receipt-derived metrics) to the
        // fork base, then let it observe the replacement branch —
        // recording one undo entry per branch block so a later fork
        // based *inside* this branch can also rewind.
        if let Some(at) = self
            .router_undo
            .iter()
            .rposition(|undo| undo.tip == fork_base)
        {
            let undo = self.router_undo[at].clone();
            self.restore_router_undo(undo);
            self.router_undo.truncate(at + 1);
            for block in &branch {
                let undo = self.capture_router_undo(block.header.parent);
                self.router_undo.push(undo);
                self.router.observe_block(&self.chain, block);
            }
        }
        // The shard phase of a fork (a rare path, one lane): every live
        // shard in declaration order, its effects folded like a tick's.
        let mut partition = self.router.pending_by_destination();
        let withhold_all = self.withhold_certificates;
        let record = self.telemetry.is_enabled();
        let mut reverted = 0;
        let mut first_error = None;
        for id in self.order.clone() {
            let shard = self.shards.get_mut(&id).expect("declared");
            if shard.quarantined {
                continue;
            }
            let error = match shard.reorg(&fork_base, &disconnected) {
                Ok(shard_reverted) => {
                    reverted += shard_reverted;
                    let inbound = partition.remove(&id).unwrap_or_default();
                    let effects = shard.sync_and_certify(&branch, withhold_all, inbound, record);
                    coordinator::apply_effects(self, effects)
                }
                Err(error) => Some(SimError::Node(error)),
            };
            first_error = first_error.or(error);
        }
        self.metrics.sc_blocks_reverted += reverted as u64;
        self.time = time_base + depth + 1;
        first_error.map_or(Ok(reverted), Err)
    }

    // ---- Audits -------------------------------------------------------

    /// A sidechain's balance held on the mainchain (safeguard).
    pub fn sidechain_balance_of(&self, id: &SidechainId) -> Amount {
        self.chain
            .state()
            .registry
            .get(id)
            .map(|e| e.balance)
            .unwrap_or(Amount::ZERO)
    }

    /// The registry status of a sidechain.
    pub fn sidechain_status_of(
        &self,
        id: &SidechainId,
    ) -> Option<zendoo_mainchain::SidechainStatus> {
        self.chain.state().registry.get(id).map(|e| e.status)
    }

    /// Audits the global conservation invariant: MC UTXO value plus all
    /// locked sidechain balances equals net minted coins. (Escrowed
    /// cross-chain value in flight is an MC UTXO, so it is covered.)
    pub fn conservation_holds(&self) -> bool {
        let state = self.chain.state();
        state
            .utxos
            .total_value()
            .checked_add(state.registry.total_locked())
            == Some(state.minted)
    }

    /// Audits the per-sidechain safeguard: no sidechain's on-chain value
    /// exceeds the balance the mainchain holds for it. Quarantined
    /// shards are skipped (a contained panic leaves no guarantee about
    /// the node's in-memory state; the mainchain-side invariants are
    /// still audited by [`World::conservation_holds`]).
    pub fn safeguards_hold(&self) -> bool {
        self.shards
            .values()
            .filter(|shard| !shard.quarantined)
            .all(|shard| {
                shard.instance.node.state().total_value()
                    <= self.sidechain_balance_of(&shard.instance.id)
            })
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("mc_height", &self.chain.height())
            .field("sidechains", &self.order.len())
            .field("sc_height", &self.first_node().chain().len())
            .field("epoch", &self.first_node().current_epoch())
            .field("metrics", &self.metrics)
            .finish()
    }
}
