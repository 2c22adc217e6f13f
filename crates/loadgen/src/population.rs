//! A deterministic keyed-user population and its confirmed-UTXO
//! ledger.
//!
//! Every user is a real [`Wallet`] derived eagerly from the population
//! seed, funded by one genesis output, and tracked as a single-UTXO
//! self-pay chain: each generated transaction spends the user's
//! current confirmed outpoint, and [`Population::settle`] advances the
//! chain when the mainchain confirms it. Generation never double-
//! spends — a user with an in-flight transaction is skipped until the
//! transaction confirms or [`Population::release_unconfirmed`] resets
//! it — so the traffic a [`crate::LoadGen`] emits is valid against the
//! confirmed chain by construction (and stays deterministic: the whole
//! population state is a pure function of the seed and the settled
//! txid sequence).

use std::collections::HashMap;

use zendoo_core::ids::{Address, Amount};
use zendoo_mainchain::chain::Blockchain;
use zendoo_mainchain::transaction::{OutPoint, TxOut};
use zendoo_mainchain::wallet::Wallet;
use zendoo_primitives::digest::Digest32;

/// Sizing and fee knobs for a generated population.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Number of keyed users (each funded by one genesis output).
    pub users: usize,
    /// Genesis funding per user, in units.
    pub funding: u64,
    /// Seed for key derivation and traffic randomness.
    pub seed: u64,
    /// Lowest fee (units) a generated transaction pays.
    pub fee_min: u64,
    /// Highest fee (units) a generated transaction pays.
    pub fee_max: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            users: 10_000,
            funding: 1_000_000,
            seed: 42,
            fee_min: 1,
            fee_max: 1_000,
        }
    }
}

/// The outcome a generated transaction commits when it confirms.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingSpend {
    /// The in-flight transaction.
    pub txid: Digest32,
    /// The user's next confirmed coin: the change output this
    /// transaction creates (`None` exhausts the user).
    pub next: Option<(OutPoint, Amount)>,
}

/// One keyed user: a wallet plus its current confirmed coin.
#[derive(Clone, Debug)]
pub(crate) struct LoadUser {
    pub wallet: Wallet,
    /// The user's single confirmed UTXO (`None` before
    /// [`Population::bind_genesis`] or once exhausted).
    pub coin: Option<(OutPoint, Amount)>,
    /// The unconfirmed spend of `coin`, if one is in flight.
    pub pending: Option<PendingSpend>,
}

/// User `index` of the population seeded `seed`, not yet funded.
fn derive_user(seed: u64, index: usize) -> LoadUser {
    LoadUser {
        wallet: Wallet::from_seed(format!("loadgen-{seed}-user-{index}").as_bytes()),
        coin: None,
        pending: None,
    }
}

/// A deterministic population of funded users.
///
/// # Examples
///
/// ```
/// use zendoo_loadgen::{LoadConfig, Population};
/// use zendoo_mainchain::chain::{Blockchain, ChainParams};
///
/// let config = LoadConfig { users: 100, ..LoadConfig::default() };
/// let mut population = Population::generate(&config);
/// let params = ChainParams {
///     genesis_outputs: population.genesis_outputs(),
///     ..ChainParams::default()
/// };
/// let chain = Blockchain::new(params);
/// population.bind_genesis(&chain, 0);
/// assert_eq!(population.len(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct Population {
    pub(crate) users: Vec<LoadUser>,
    /// In-flight txid → user index, for O(confirmed) settlement.
    in_flight: HashMap<Digest32, usize>,
    funding: Amount,
}

impl Population {
    /// Derives `config.users` wallets eagerly from `config.seed`.
    /// Derivation is the expensive part of construction (one key
    /// derivation per user) and is paid exactly once; the same
    /// population can then back any number of traffic shapes. Each
    /// wallet is a function of the seed and its index alone, so the
    /// indices are split into one contiguous run per core and the runs
    /// concatenated in order.
    pub fn generate(config: &LoadConfig) -> Self {
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
        let run = config.users.div_ceil(lanes).max(1);
        let users = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..config.users)
                .step_by(run)
                .map(|start| {
                    let end = (start + run).min(config.users);
                    scope.spawn(move || {
                        (start..end)
                            .map(|i| derive_user(config.seed, i))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            runs.into_iter()
                .flat_map(|run| run.join().expect("key derivation panicked"))
                .collect()
        });
        Population {
            users,
            in_flight: HashMap::new(),
            funding: Amount::from_units(config.funding),
        }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Returns `true` for an empty population.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Number of transactions currently awaiting confirmation.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// A user's mainchain address.
    pub fn address_of(&self, index: usize) -> Address {
        self.users[index].wallet.address()
    }

    /// One genesis funding output per user, in user order. Hand these
    /// to [`zendoo_mainchain::chain::ChainParams::genesis_outputs`]
    /// (or `SimConfig::extra_genesis_outputs`), then call
    /// [`Population::bind_genesis`] once the chain exists.
    pub fn genesis_outputs(&self) -> Vec<TxOut> {
        self.users
            .iter()
            .map(|user| TxOut::regular(user.wallet.address(), self.funding))
            .collect()
    }

    /// Binds every user to their genesis coin: output `first_index + i`
    /// of the genesis coinbase. `first_index` is the number of genesis
    /// outputs that precede this population's (0 when
    /// [`Population::genesis_outputs`] *is* the premine; the named
    /// users' count when appended via `extra_genesis_outputs`).
    ///
    /// # Panics
    ///
    /// If the expected outpoints are not in the confirmed UTXO set
    /// (wrong `first_index`, or funding already spent).
    pub fn bind_genesis(&mut self, chain: &Blockchain, first_index: u32) {
        let genesis = chain
            .block(&chain.genesis_hash())
            .expect("genesis block exists");
        let txid = genesis.transactions[0].txid();
        for (i, user) in self.users.iter_mut().enumerate() {
            let outpoint = OutPoint {
                txid,
                index: first_index + i as u32,
            };
            let funded = chain
                .state()
                .utxos
                .get(&outpoint)
                .unwrap_or_else(|| panic!("population coin {i} missing at {outpoint:?}"));
            assert_eq!(
                funded.address,
                user.wallet.address(),
                "population coin {i} funds a different address (first_index wrong?)"
            );
            user.coin = Some((outpoint, funded.amount));
            user.pending = None;
        }
        self.in_flight.clear();
    }

    /// Records `txid` as user `index`'s in-flight spend.
    pub(crate) fn mark_pending(&mut self, index: usize, spend: PendingSpend) {
        self.in_flight.insert(spend.txid, index);
        self.users[index].pending = Some(spend);
    }

    /// Returns `true` if user `index` can spend right now (funded, no
    /// spend in flight).
    pub(crate) fn available(&self, index: usize) -> bool {
        let user = &self.users[index];
        user.pending.is_none() && user.coin.is_some()
    }

    /// Advances every user whose in-flight transaction appears in
    /// `confirmed`: their tracked coin becomes the confirmed change
    /// output. O(confirmed), independent of the population size.
    pub fn settle<I: IntoIterator<Item = Digest32>>(&mut self, confirmed: I) {
        for txid in confirmed {
            let Some(index) = self.in_flight.remove(&txid) else {
                continue;
            };
            let user = &mut self.users[index];
            if let Some(pending) = user.pending.take() {
                user.coin = pending.next;
            }
        }
    }

    /// Convenience: settles every transaction of a confirmed block.
    pub fn settle_block(&mut self, block: &zendoo_mainchain::block::Block) {
        self.settle(block.transactions.iter().map(|tx| tx.txid()));
    }

    /// Forgets every in-flight spend without advancing coins: users
    /// whose transactions were evicted, rejected or orphaned retry
    /// from their last *confirmed* coin. (A released transaction that
    /// later confirms anyway is re-settled harmlessly: `settle` skips
    /// unknown txids.)
    pub fn release_unconfirmed(&mut self) {
        for index in std::mem::take(&mut self.in_flight).into_values() {
            self.users[index].pending = None;
        }
    }
}
