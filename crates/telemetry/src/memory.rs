//! The aggregating [`InMemoryRecorder`], its deterministic
//! [`Snapshot`], the [`render_report`] span tree, and the
//! `BENCH_*.json`-shaped emission.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::hist::Histogram;
use crate::recorder::Recorder;

/// Aggregate statistics for one span path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed occurrences.
    pub count: u64,
    /// Total wall nanoseconds across occurrences (saturating).
    pub total_nanos: u64,
    /// Distribution of per-occurrence nanoseconds.
    pub nanos: Histogram,
}

impl SpanStats {
    /// Records one occurrence of `nanos` wall time.
    pub fn record(&mut self, nanos: u64) {
        self.count = self.count.saturating_add(1);
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.nanos.record(nanos);
    }

    /// Folds `other` into `self` (commutative).
    pub fn merge(&mut self, other: &SpanStats) {
        self.count = self.count.saturating_add(other.count);
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.nanos.merge(&other.nanos);
    }
}

/// A deterministic aggregate of everything a recorder saw.
///
/// All maps are `BTreeMap`s keyed by event name, so iteration order —
/// and therefore [`render_report`] output — is fixed regardless of the order events arrived in.
///
/// # Examples
///
/// ```
/// use zendoo_telemetry::Snapshot;
///
/// let mut a = Snapshot::default();
/// a.add_counter("x", 1);
/// let mut b = Snapshot::default();
/// b.add_counter("x", 2);
/// a.merge(&b);
/// assert_eq!(a.counters["x"], 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Span statistics keyed by dotted path.
    pub spans: BTreeMap<String, SpanStats>,
    /// Counter totals keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values keyed by name (last write wins; merge takes max).
    pub gauges: BTreeMap<String, u64>,
    /// Histograms keyed by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// Records one span occurrence.
    pub fn add_span(&mut self, path: &str, nanos: u64) {
        self.spans
            .entry(path.to_string())
            .or_default()
            .record(nanos);
    }

    /// Adds `delta` to the counter `name` (saturating).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        let slot = self.counters.entry(name.to_string()).or_default();
        *slot = slot.saturating_add(delta);
    }

    /// Sets the gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one histogram sample.
    pub fn add_observation(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Folds `other` into `self`. Spans, counters and histograms merge
    /// commutatively; gauges (point-in-time values) keep the maximum,
    /// which is order-independent and reads as a high-water mark.
    pub fn merge(&mut self, other: &Snapshot) {
        for (path, stats) in &other.spans {
            self.spans.entry(path.clone()).or_default().merge(stats);
        }
        for (name, delta) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_default();
            *slot = slot.saturating_add(*delta);
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_default();
            *slot = (*slot).max(*value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }
}

/// A [`Recorder`] that aggregates events into a [`Snapshot`] under a
/// mutex. Aggregation (not buffering) keeps memory bounded no matter
/// how long a scenario runs, and the `BTreeMap`-backed snapshot keeps
/// output deterministic.
#[derive(Debug, Default)]
pub struct InMemoryRecorder {
    inner: Mutex<Snapshot>,
}

impl InMemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.lock().expect("telemetry lock").clone()
    }

    /// Takes the current snapshot, leaving the recorder empty.
    pub fn drain(&self) -> Snapshot {
        std::mem::take(&mut *self.inner.lock().expect("telemetry lock"))
    }

    /// Folds an externally built snapshot (e.g. from a shard-local
    /// recorder) into this one.
    pub fn absorb(&self, snapshot: &Snapshot) {
        self.inner.lock().expect("telemetry lock").merge(snapshot);
    }
}

impl Recorder for InMemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }
    fn record_span(&self, path: &str, nanos: u64) {
        self.inner
            .lock()
            .expect("telemetry lock")
            .add_span(path, nanos);
    }
    fn add(&self, name: &str, delta: u64) {
        self.inner
            .lock()
            .expect("telemetry lock")
            .add_counter(name, delta);
    }
    fn gauge(&self, name: &str, value: u64) {
        self.inner
            .lock()
            .expect("telemetry lock")
            .set_gauge(name, value);
    }
    fn observe(&self, name: &str, value: u64) {
        self.inner
            .lock()
            .expect("telemetry lock")
            .add_observation(name, value);
    }
}

/// Renders a snapshot as a human-readable report: the span tree
/// (nesting derived from dotted paths) with total/self wall time and
/// p50/p99 per node, followed by counters, gauges and histograms.
///
/// "Self" time is a node's total minus the totals of its direct
/// children; for leaves the two are equal.
///
/// # Examples
///
/// ```
/// use zendoo_telemetry::{render_report, Snapshot};
///
/// let mut snap = Snapshot::default();
/// snap.add_span("tick", 1_000);
/// snap.add_span("tick.mc", 600);
/// snap.add_counter("blocks", 3);
/// let report = render_report(&snap);
/// assert!(report.contains("tick"));
/// assert!(report.contains("blocks"));
/// ```
pub fn render_report(snapshot: &Snapshot) -> String {
    let mut out = String::new();

    if !snapshot.spans.is_empty() {
        out.push_str("spans (total / self / p50 / p99 per call):\n");
        // Sorted BTreeMap order means a parent path immediately
        // precedes its children; depth = number of dots below the
        // shallowest ancestor present.
        for (path, stats) in &snapshot.spans {
            let depth = path.matches('.').count();
            let children_total: u64 = snapshot
                .spans
                .iter()
                .filter(|(p, _)| {
                    p.strip_prefix(path.as_str())
                        .and_then(|rest| rest.strip_prefix('.'))
                        .map(|rest| !rest.contains('.'))
                        .unwrap_or(false)
                })
                .map(|(_, s)| s.total_nanos)
                .sum();
            let self_nanos = stats.total_nanos.saturating_sub(children_total);
            let name = path.rsplit('.').next().unwrap_or(path);
            let _ = writeln!(
                out,
                "{:indent$}{name:<24} {:>12} {:>12} {:>10} {:>10}  x{}",
                "",
                fmt_nanos(stats.total_nanos),
                fmt_nanos(self_nanos),
                fmt_nanos(stats.nanos.quantile(0.50)),
                fmt_nanos(stats.nanos.quantile(0.99)),
                stats.count,
                indent = depth * 2,
            );
        }
    }

    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "  {name:<40} {value}");
        }
    }

    if !snapshot.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "  {name:<40} {value}");
        }
    }

    if !snapshot.histograms.is_empty() {
        out.push_str("histograms (count / p50 / p90 / p99 / max):\n");
        for (name, h) in &snapshot.histograms {
            let _ = writeln!(
                out,
                "  {name:<32} {:>8} {:>8} {:>8} {:>8} {:>8}",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max(),
            );
        }
    }

    out
}

/// Formats nanoseconds with a unit suffix for the report.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.add_span("tick", 10_000);
        s.add_span("tick.mc", 6_000);
        s.add_span("tick.mc.verify", 4_000);
        s.add_span("tick.shards", 3_000);
        s.add_counter("mc.blocks", 5);
        s.set_gauge("router.pending", 2);
        s.add_observation("mc.block_txs", 7);
        s
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = sample();
        let mut b = Snapshot::default();
        b.add_span("tick", 2_000);
        b.add_counter("mc.blocks", 1);
        b.add_counter("other", 9);
        b.set_gauge("router.pending", 5);
        b.add_observation("mc.block_txs", 3);

        let mut ab = a.clone();
        ab.merge(&b);
        b.merge(&a);
        a = b;
        assert_eq!(ab, a);
        assert_eq!(ab.counters["mc.blocks"], 6);
        assert_eq!(ab.gauges["router.pending"], 5);
        assert_eq!(ab.spans["tick"].count, 2);
    }

    #[test]
    fn report_shows_tree_and_self_time() {
        let report = render_report(&sample());
        // Parent "mc" total is 6us, children (verify) account for 4us:
        // self should render as 2.0us.
        assert!(report.contains("mc"), "{report}");
        assert!(report.contains("2.0us"), "{report}");
        assert!(report.contains("counters:"), "{report}");
        assert!(report.contains("mc.blocks"), "{report}");
    }

    #[test]
    fn drain_resets() {
        let rec = InMemoryRecorder::new();
        rec.add("x", 1);
        assert!(!rec.drain().is_empty());
        assert!(rec.snapshot().is_empty());
    }
}
