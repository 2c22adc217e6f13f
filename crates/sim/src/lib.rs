//! # zendoo-sim
//!
//! A deterministic multi-sidechain scenario simulator for the Zendoo
//! reproduction: a [`world::World`] wires a real mainchain to any
//! number of real Latus nodes, settling cross-chain transfers as the
//! chain state calls for.
//! [`events::Schedule`] is the one script of a world (tick-indexed
//! [`Action`]s, transactions and faults alike) and its
//! [`Schedule::run`] audits every tick with a [`ConservationAuditor`].
//! [`scenarios`] provides the canned experiments used by tests and
//! examples, including the liveness fault (withheld certificates →
//! ceasing), mainchain fork injection (§5.1's fork-resolution property) and
//! sidechain→sidechain transfer lifecycles.
//!
//! # Sharded stepping
//!
//! The world is an MC-side **coordinator** plus one [`shard`] per
//! sidechain; since the mainchain never executes sidechain logic (the
//! paper's decoupling), the per-tick sidechain phase fans out over
//! [`SimConfig::workers`] worker threads:
//!
//! ```text
//!                ┌──────────── coordinator ────────────┐
//!  tick t:       │ settle every live escrow            │
//!                │ build, mine and connect the block   │
//!                │ (one walk on the live state)        │
//!                ├──── scoped worker threads ──────────┤
//!                │ router observes  ║ shard sc-0 sync  │
//!                │ the block's      ║ shard sc-1 sync  │
//!                │ settlements      ║ shard sc-2 …     │
//!                │                  ║   + certify      │
//!                ├─────────────────────────────────────┤
//!                │ apply ShardEffects in declaration   │
//!                │ order; fold receipts into metrics   │
//!                └─────────────────────────────────────┘
//! ```
//!
//! Shards return ordered effect logs the coordinator applies in
//! declaration order, so a tick is **bit-identical** for every worker
//! count (`tests/determinism.rs`); a panicking shard is
//! quarantined and its chain ceases like any liveness-faulty
//! sidechain. See the "Concurrency model" section of `ARCHITECTURE.md`
//! and `docs/SCENARIOS.md` for the scenario ↔ paper map.
//!
//! # Examples
//!
//! ```no_run
//! use zendoo_sim::scenarios;
//!
//! let world = scenarios::happy_path(2).unwrap();
//! println!("{}", world.metrics.report());
//! assert!(world.conservation_holds());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod coordinator;
pub mod events;
pub mod metrics;
pub mod scenarios;
pub mod shard;
pub mod world;

pub use audit::{AuditSnapshot, AuditViolation, ConservationAuditor};
pub use events::{Action, RunError, Schedule};
pub use metrics::Metrics;
pub use shard::{ShardEffects, SidechainShard};
pub use world::{ScInstance, SimConfig, SimError, User, World};
