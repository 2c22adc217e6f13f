//! The system clock and the harness tracer.
//!
//! Every call into the system under test goes through [`Clock::system`],
//! which times it from outside and adds the duration to the *system
//! clock*: wall time accumulated inside timed calls, and nowhere else.
//! Load generation, credit polling and shadow nodes go through
//! [`Clock::outside`] and never advance it — `LoadGen::next_batch` alone
//! costs more per transaction than the mainchain spends admitting it, so
//! leaking it into a system metric would measure the generator.
//!
//! In a traced run both kinds of call also leave a [`Span`] (name,
//! start, end, parent, tick), kept in memory and written out when the
//! run ends.

use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran (`tick`, `submit`, `admit`, `step`, `generate`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the clock was created.
    pub start_ns: u64,
    /// End, nanoseconds since the clock was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The tick the span belongs to (spans of one tick share it).
    pub tick: u32,
    /// Whether the interval counted toward the system clock.
    pub system: bool,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// System-clock accounting plus (when tracing) span recording.
pub struct Clock {
    origin: Instant,
    system: Duration,
    tracing: bool,
    tick: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Clock {
    /// A clock at zero; `tracing` switches span recording on.
    pub fn new(tracing: bool) -> Self {
        Clock {
            origin: Instant::now(),
            system: Duration::ZERO,
            tracing,
            tick: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The system clock: total time spent inside [`Clock::system`].
    pub fn system_time(&self) -> Duration {
        self.system
    }

    /// Sets the tick id stamped on subsequent spans.
    pub fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Times one call into the system under test and advances the
    /// system clock by its duration. The closure cannot reach the clock,
    /// so system calls never nest and harness work never runs inside
    /// one.
    pub fn system<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let (out, took) = self.timed(name, true, f);
        self.system += took;
        (out, took)
    }

    /// Times harness-side work (generation, polling, shadow nodes): it
    /// is traced, but the system clock does not move.
    pub fn outside<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        self.timed(name, false, f)
    }

    /// Opens a grouping span (`tick`, `cold_start`) that later calls
    /// nest under until [`Clock::exit`]. Never counts toward the system
    /// clock itself; a no-op when not tracing.
    pub fn enter(&mut self, name: &'static str) {
        if self.tracing {
            let now = self.origin.elapsed().as_nanos() as u64;
            self.open.push(self.spans.len());
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: self.open.iter().rev().nth(1).copied(),
                tick: self.tick,
                system: false,
            });
        }
    }

    /// Closes the innermost span opened by [`Clock::enter`].
    pub fn exit(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    fn timed<R>(
        &mut self,
        name: &'static str,
        system: bool,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        if self.tracing {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + took.as_nanos() as u64,
                parent: self.open.last().copied(),
                tick: self.tick,
                system,
            });
        }
        (out, took)
    }
}

/// A span's self time: its duration minus the part of its interval its
/// direct children cover (overlapping children are not counted twice,
/// and a child is clipped to its parent).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.nanos() - covered
}

/// Per tick: `(tick span duration, Σ system children)` in nanoseconds —
/// the second is exactly what the tick added to the system clock.
pub fn tick_system_ns(spans: &[Span]) -> Vec<(u32, u64, u64)> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "tick")
        .map(|(index, tick)| {
            let system = spans
                .iter()
                .filter(|s| s.parent == Some(index) && s.system)
                .map(Span::nanos)
                .sum();
            (tick.tick, tick.nanos(), system)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            tick: 0,
            system: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("tick", 100, 1_100, None),
            span("submit", 100, 300, Some(0)),
            // Overlaps `submit` by 100 ns: covered once.
            span("admit", 200, 500, Some(0)),
            span("step", 600, 1_000, Some(0)),
            // A grandchild covers its own parent only.
            span("inner", 650, 700, Some(3)),
            // A child leaking past the parent is clipped.
            span("late", 1_050, 1_500, Some(0)),
        ];
        // Cover: [100,500) + [600,1000) + [1050,1100) = 850 of 1000.
        assert_eq!(self_time_ns(&spans, 0), 150);
        assert_eq!(self_time_ns(&spans, 3), 350);
        assert_eq!(self_time_ns(&spans, 1), 200);
    }

    #[test]
    fn system_clock_counts_only_system_calls() {
        let mut clock = Clock::new(true);
        clock.set_tick(7);
        clock.enter("tick");
        // Generator and polling time, each far longer than the system
        // calls, must not leak into the system clock.
        clock.outside("generate", || std::thread::sleep(Duration::from_millis(30)));
        clock.system("admit", || std::thread::sleep(Duration::from_millis(5)));
        clock.outside("poll", || std::thread::sleep(Duration::from_millis(30)));
        clock.system("step", || std::thread::sleep(Duration::from_millis(5)));
        clock.exit();
        let system = clock.system_time();
        assert!(system >= Duration::from_millis(10), "{system:?}");
        assert!(system < Duration::from_millis(30), "{system:?}");

        // The tick's system children sum to the system clock exactly.
        let ticks = tick_system_ns(clock.spans());
        assert_eq!(ticks.len(), 1);
        let (tick, wall, in_system) = ticks[0];
        assert_eq!(tick, 7);
        assert_eq!(u128::from(in_system), system.as_nanos());
        assert!(wall >= 70_000_000, "{wall}");
        let names: Vec<_> = clock
            .spans()
            .iter()
            .map(|s| (s.name, s.system, s.parent))
            .collect();
        assert_eq!(
            names,
            [
                ("tick", false, None),
                ("generate", false, Some(0)),
                ("admit", true, Some(0)),
                ("poll", false, Some(0)),
                ("step", true, Some(0))
            ]
        );
        // Everything in the tick is under a named child: its self time
        // is the harness's own bookkeeping, a sliver of the tick.
        assert!(self_time_ns(clock.spans(), 0) < wall / 10);
    }

    #[test]
    fn untraced_clock_accounts_the_same_way_without_spans() {
        let mut clock = Clock::new(false);
        clock.enter("tick");
        clock.outside("generate", || std::thread::sleep(Duration::from_millis(20)));
        let (_, took) = clock.system("step", || std::thread::sleep(Duration::from_millis(2)));
        clock.exit();
        assert_eq!(clock.system_time(), took);
        assert!(clock.spans().is_empty());
    }
}
