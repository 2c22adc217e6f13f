//! Smoke check of the disabled-telemetry contract: on the default
//! disabled `Telemetry` handle (no snapshot behind it), every instrument
//! site must cost about one null check — no clock reads, no allocation,
//! no locking.
//!
//! The bound here is deliberately loose (it runs in debug mode on
//! arbitrarily noisy CI hosts): it will not catch a few extra
//! nanoseconds, but it fails loudly if a disabled path ever grows a
//! `format!`, a mutex or a syscall.

use std::time::Instant;

use zendoo_telemetry::Telemetry;

/// Iterations per instrument kind.
const ITERS: u64 = 200_000;
/// Average per-call budget, in nanoseconds. A branch costs ~1 ns; a
/// debug-build call through a closure costs tens; an accidental
/// allocation, clock read or lock costs hundreds to thousands.
const BUDGET_NANOS_PER_CALL: u64 = 1_000;

#[test]
fn disabled_handle_overhead_is_about_a_branch() {
    let telemetry = Telemetry::disabled();
    assert!(!telemetry.is_enabled());

    let start = Instant::now();
    let mut guard = 0u64;
    for i in 0..ITERS {
        // One of each instrument kind per iteration. The span guard
        // must not read the clock while disabled.
        let _span = telemetry.span("noop.span");
        telemetry.counter("noop.counter", 1);
        telemetry.gauge("noop.gauge", i);
        telemetry.observe("noop.histogram", i);
        telemetry.span_nanos("noop.span_nanos", i);
        // Defeat dead-code elimination of the loop body.
        guard = guard.wrapping_add(i);
    }
    let elapsed = start.elapsed().as_nanos() as u64;
    assert_ne!(guard, 1);

    let calls = ITERS * 5;
    let per_call = elapsed / calls;
    assert!(
        per_call <= BUDGET_NANOS_PER_CALL,
        "disabled instrument calls average {per_call} ns \
         (budget {BUDGET_NANOS_PER_CALL} ns) — a disabled path is \
         doing real work (allocation, clock read or lock?)"
    );
}
