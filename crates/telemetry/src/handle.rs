//! The clonable [`Telemetry`] handle every instrumented component owns.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::snapshot::Snapshot;

/// A cheaply clonable telemetry handle: disabled, or recording into one
/// [`Snapshot`] that every clone shares.
///
/// Components store one of these (defaulting to
/// [`Telemetry::disabled`]) and call [`Telemetry::span`],
/// [`Telemetry::counter`], [`Telemetry::gauge`] and
/// [`Telemetry::observe`] on their hot paths. Every call first checks
/// [`Telemetry::is_enabled`] — a null check — and a disabled handle
/// does nothing else: its spans never read the clock. A recording
/// handle aggregates (it does not buffer) under a mutex, so memory stays
/// bounded however long a scenario runs.
///
/// # Examples
///
/// ```
/// use zendoo_telemetry::Telemetry;
///
/// let telemetry = Telemetry::in_memory();
/// {
///     let _guard = telemetry.span("demo.outer");
///     telemetry.counter("demo.events", 1);
/// }
/// assert_eq!(telemetry.snapshot().spans["demo.outer"].count, 1);
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Mutex<Snapshot>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The default disabled handle (a null check per call).
    pub fn disabled() -> Self {
        Telemetry { sink: None }
    }

    /// A handle recording into a fresh, empty snapshot.
    pub fn in_memory() -> Self {
        Telemetry {
            sink: Some(Arc::default()),
        }
    }

    /// Whether the handle is recording.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The shared snapshot, locked; `None` when disabled.
    fn lock(&self) -> Option<MutexGuard<'_, Snapshot>> {
        let sink = self.sink.as_ref()?;
        Some(sink.lock().expect("no thread panics while recording"))
    }

    /// Applies `record` to the shared snapshot, if there is one.
    fn record(&self, record: impl FnOnce(&mut Snapshot)) {
        if let Some(mut snapshot) = self.lock() {
            record(&mut snapshot);
        }
    }

    /// A copy of everything recorded so far (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        self.lock()
            .map(|snapshot| snapshot.clone())
            .unwrap_or_default()
    }

    /// Takes everything recorded so far, leaving the handle's snapshot
    /// empty (empty when disabled).
    pub fn drain(&self) -> Snapshot {
        self.lock()
            .map(|mut snapshot| std::mem::take(&mut *snapshot))
            .unwrap_or_default()
    }

    /// Folds an externally built snapshot (e.g. a shard's) into this
    /// handle's; does nothing when disabled.
    pub fn absorb(&self, other: &Snapshot) {
        self.record(|snapshot| snapshot.merge(other));
    }

    /// Starts a timed span named by the dotted `path` (e.g.
    /// `"mc.stage2.verify"`). The returned guard records the elapsed
    /// wall time when dropped; when the handle is disabled the clock
    /// is never read.
    pub fn span(&self, path: &'static str) -> Span<'_> {
        Span {
            telemetry: self,
            path,
            start: self.is_enabled().then(Instant::now),
        }
    }

    /// Records one completed span occurrence with an externally
    /// measured duration — for call sites that must time work even
    /// when telemetry is off (see [`Telemetry::time`]).
    pub fn span_nanos(&self, path: &str, nanos: u64) {
        self.record(|snapshot| snapshot.add_span(path, nanos));
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter(&self, name: &str, delta: u64) {
        self.record(|snapshot| snapshot.add_counter(name, delta));
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge(&self, name: &str, value: u64) {
        self.record(|snapshot| snapshot.set_gauge(name, value));
    }

    /// Records one sample into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.record(|snapshot| snapshot.add_observation(name, value));
    }

    /// Runs `f`, **always** measuring its wall time, recording a span
    /// only when enabled, and returning `(result, nanos)`.
    ///
    /// This is the bridge for callers that need the measurement
    /// whether or not the handle records (e.g. the sim coordinator's
    /// span accounting).
    ///
    /// # Examples
    ///
    /// ```
    /// use zendoo_telemetry::Telemetry;
    ///
    /// let telemetry = Telemetry::disabled();
    /// let (sum, nanos) = telemetry.time("math.sum", || 2 + 2);
    /// assert_eq!(sum, 4);
    /// let _ = nanos; // measured even though nothing was recorded
    /// ```
    pub fn time<R>(&self, path: &str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let result = f();
        let nanos = start.elapsed().as_nanos() as u64;
        self.span_nanos(path, nanos);
        (result, nanos)
    }
}

/// RAII guard for a timed span; records elapsed wall time on drop.
/// Created by [`Telemetry::span`].
#[derive(Debug)]
pub struct Span<'a> {
    telemetry: &'a Telemetry,
    path: &'static str,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.telemetry
                .span_nanos(self.path, start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        {
            let _span = telemetry.span("a.b");
            telemetry.counter("c", 1);
            telemetry.gauge("g", 2);
            telemetry.observe("h", 3);
        }
        assert!(telemetry.snapshot().is_empty());
        assert!(telemetry.drain().is_empty());
    }

    #[test]
    fn absorbing_into_a_disabled_handle_does_nothing() {
        let mut shard = Snapshot::default();
        shard.add_counter("shard.events", 4);
        let telemetry = Telemetry::disabled();
        telemetry.absorb(&shard);
        assert!(telemetry.snapshot().is_empty());
    }

    #[test]
    fn in_memory_handle_records_everything() {
        let telemetry = Telemetry::in_memory();
        {
            let _span = telemetry.span("tick.total");
            telemetry.counter("events", 2);
            telemetry.counter("events", 3);
            telemetry.gauge("depth", 9);
            telemetry.observe("sizes", 4);
            telemetry.observe("sizes", 8);
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.spans["tick.total"].count, 1);
        assert_eq!(snap.counters["events"], 5);
        assert_eq!(snap.gauges["depth"], 9);
        assert_eq!(snap.histograms["sizes"].count(), 2);
        assert_eq!(snap.histograms["sizes"].max(), 8);
    }

    #[test]
    fn a_clone_records_into_the_same_snapshot() {
        let telemetry = Telemetry::in_memory();
        let clone = telemetry.clone();
        telemetry.counter("events", 1);
        clone.counter("events", 2);
        clone.span_nanos("work", 5);
        assert_eq!(telemetry.snapshot(), clone.snapshot());
        assert_eq!(telemetry.snapshot().counters["events"], 3);
        assert_eq!(telemetry.snapshot().spans["work"].total_nanos, 5);
    }

    #[test]
    fn absorb_merges_and_drain_empties() {
        let telemetry = Telemetry::in_memory();
        telemetry.counter("events", 1);
        let mut shard = Snapshot::default();
        shard.add_counter("events", 2);
        shard.add_span("tick.shard.sync", 7);
        telemetry.absorb(&shard);

        let drained = telemetry.drain();
        assert_eq!(drained.counters["events"], 3);
        assert_eq!(drained.spans["tick.shard.sync"].count, 1);
        assert!(telemetry.snapshot().is_empty());
        assert!(telemetry.drain().is_empty());
    }

    #[test]
    fn time_measures_even_when_disabled() {
        let telemetry = Telemetry::disabled();
        let (value, _nanos) = telemetry.time("work", || 7u32);
        assert_eq!(value, 7);

        let telemetry = Telemetry::in_memory();
        let (_, nanos) = telemetry.time("work", || std::hint::black_box(1 + 1));
        let snap = telemetry.snapshot();
        assert_eq!(snap.spans["work"].count, 1);
        assert_eq!(snap.spans["work"].total_nanos, nanos);
    }
}
