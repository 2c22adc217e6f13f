//! # zendoo-telemetry
//!
//! The workspace's observability layer: hierarchical timed **spans**,
//! atomic **counters** and **gauges**, and log2-bucketed **histograms**
//! with percentile estimation — all behind a pluggable [`Recorder`]
//! sink whose default is a true no-op (a disabled [`Telemetry`] handle
//! costs one branch per call site and never reads the clock).
//!
//! Like `crates/support/`, this crate has **zero dependencies**: the
//! build environment is offline, so everything is implemented in-repo.
//!
//! # Model
//!
//! * A [`Telemetry`] handle is a cheaply clonable `Arc` around a
//!   [`Recorder`]. Every instrumented component (the mainchain, the
//!   cross-chain router, the simulation world) owns a handle;
//!   [`Telemetry::disabled`] is the default everywhere.
//! * **Spans** carry their hierarchy in their **name**: dotted paths
//!   such as `mc.stage2.verify` or `tick.mc.prepare`. The
//!   [`render_report`] tree is built from those paths, so nesting is a
//!   naming convention, not hidden thread-local state — which keeps
//!   recording deterministic across thread schedules (see
//!   `docs/OBSERVABILITY.md` for the convention).
//! * The [`InMemoryRecorder`] aggregates everything into a
//!   [`Snapshot`]: `BTreeMap`s keyed by name, so iteration order (and
//!   the rendered report) is fixed regardless of the
//!   order events arrived in. Snapshots [`Snapshot::merge`]
//!   commutatively, which is how per-shard recorders fold into the
//!   world's recorder in declaration order.
//!
//! # Examples
//!
//! Record a span, a counter and a histogram, then inspect the
//! aggregate:
//!
//! ```
//! use zendoo_telemetry::Telemetry;
//!
//! let (telemetry, recorder) = Telemetry::in_memory();
//! {
//!     let _span = telemetry.span("work.step");
//!     telemetry.counter("work.items", 3);
//!     telemetry.observe("work.batch_size", 16);
//! }
//! let snapshot = recorder.snapshot();
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
//! let _span = telemetry.span("never.recorded"); // ~a branch
//! telemetry.counter("never.counted", 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod memory;
pub mod recorder;

pub use hist::{Counter, Gauge, Histogram};
pub use memory::{render_report, InMemoryRecorder, Snapshot, SpanStats};
pub use recorder::{NoopRecorder, Recorder, Span, Telemetry};
