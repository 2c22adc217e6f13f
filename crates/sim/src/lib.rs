//! # zendoo-sim
//!
//! A deterministic multi-sidechain scenario simulator for the Zendoo
//! reproduction: a [`world::World`] wires a real mainchain to any
//! number of real Latus nodes plus a cross-chain router,
//! [`events::Schedule`] scripts tick-indexed actions (transfers,
//! payments, withdrawals, cross-chain hops, faults), and [`scenarios`]
//! provides the canned experiments used by tests and benchmarks —
//! including the liveness fault (withheld certificates → ceasing),
//! mainchain fork injection (§5.1's fork-resolution property) and
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
//!  tick t:       │ router snapshot → settle matured    │
//!                │ prepare block (one-pass, records    │
//!                │ proof verdicts)                     │
//!                ├──── scoped worker threads ──────────┤
//!                │ submit block     ║ shard sc-0 sync  │
//!                │ (stage 2 reuses  ║ shard sc-1 sync  │
//!                │  verdicts,       ║ shard sc-2 …     │
//!                │  stage 3 applies)║   + certify      │
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
pub mod faults;
pub mod metrics;
pub mod scenarios;
pub mod shard;
pub mod world;

pub use audit::{AuditSnapshot, AuditViolation, ConservationAuditor};
pub use events::{Action, Schedule};
pub use faults::{Fault, FaultPlan, RunError};
pub use metrics::Metrics;
pub use shard::{ShardEffects, ShardMetrics, SidechainShard};
pub use world::{ScInstance, SimConfig, SimError, User, World};
pub use zendoo_mainchain::pipeline::VerifyMode;
