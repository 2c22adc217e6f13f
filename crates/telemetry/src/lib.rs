//! # zendoo-telemetry
//!
//! The workspace's observability layer: hierarchical timed **spans**,
//! **counters**, **gauges** and log2-bucketed **histograms** with
//! percentile estimation, all recorded through one clonable
//! [`Telemetry`] handle. A disabled handle costs one null check per
//! call site and never reads the clock.
//!
//! Like `crates/support/`, this crate has **zero dependencies**: the
//! build environment is offline, so everything is implemented in-repo.
//!
//! # Model
//!
//! * A [`Telemetry`] handle is disabled ([`Telemetry::disabled`], the
//!   default everywhere) or records into one shared [`Snapshot`]
//!   ([`Telemetry::in_memory`]). Every instrumented component (the
//!   mainchain, the cross-chain router, the store, the simulation
//!   world) owns a clone; the handle itself reads what was recorded
//!   ([`Telemetry::snapshot`], [`Telemetry::drain`]) and folds in
//!   snapshots built elsewhere ([`Telemetry::absorb`]).
//! * **Spans** carry their hierarchy in their **name**: dotted paths
//!   such as `mc.stage2.verify` or `tick.mc.prepare`. The
//!   [`render_report`] tree is built from those paths, so nesting is a
//!   naming convention, not hidden thread-local state — which keeps
//!   recording deterministic across thread schedules (see
//!   `docs/OBSERVABILITY.md` for the convention).
//! * A [`Snapshot`] is `BTreeMap`s keyed by name, so iteration order
//!   (and the rendered report) is fixed regardless of the order events
//!   arrived in. Snapshots [`Snapshot::merge`] commutatively, which is
//!   how the sim's per-shard snapshots fold into the world's handle in
//!   declaration order.
//!
//! # Examples
//!
//! Record a span, a counter and a histogram, then inspect the
//! aggregate:
//!
//! ```
//! use zendoo_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::in_memory();
//! {
//!     let _span = telemetry.span("work.step");
//!     telemetry.counter("work.items", 3);
//!     telemetry.observe("work.batch_size", 16);
//! }
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counters["work.items"], 3);
//! assert_eq!(snapshot.spans["work.step"].count, 1);
//! assert_eq!(snapshot.histograms["work.batch_size"].max(), 16);
//! ```
//!
//! A disabled handle records nothing and never reads the clock:
//!
//! ```
//! use zendoo_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::disabled();
//! assert!(!telemetry.is_enabled());
//! let _span = telemetry.span("never.recorded"); // a null check
//! telemetry.counter("never.counted", 1);
//! assert!(telemetry.snapshot().is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod handle;
pub mod hist;
pub mod snapshot;

pub use handle::{Span, Telemetry};
pub use hist::Histogram;
pub use snapshot::{render_report, Snapshot, SpanStats};
