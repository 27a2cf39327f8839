//! The hot-path recording API.
//!
//! Instrumented code calls [`op_start`] at the top of an operation and one
//! of the `record_*` functions at each exit point. When recording is
//! disabled (the default) the entire path is **one relaxed atomic load** —
//! no `Instant::now()`, no histogram touch — so benchmarks are unaffected.
//!
//! When recording is enabled, `op_start` *samples*: only every Nth call per
//! thread takes a timestamp (N = [`sample_interval`], default
//! [`DEFAULT_SAMPLE_INTERVAL`]). A clock read costs ~50 ns on commodity
//! hardware — two of them per op would be a large fraction of a DRAM-hit
//! fetch — so sampling is what keeps the enabled recorder inside the < 5%
//! overhead budget while leaving quantile estimates unbiased. The interval
//! is prime so the sampled position rotates through workload loops instead
//! of phase-locking onto one op type. Set the interval to 1 to time every
//! operation (tests and offline analysis).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::op::Op;

/// Default `op_start` sampling interval: time one in every 31 calls.
pub const DEFAULT_SAMPLE_INTERVAL: u32 = 31;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_INTERVAL: AtomicU32 = AtomicU32::new(DEFAULT_SAMPLE_INTERVAL);

thread_local! {
    /// Calls remaining on this thread until the next sampled timestamp.
    static COUNTDOWN: Cell<u32> = const { Cell::new(0) };
}

/// Is latency recording enabled? Single relaxed load; safe on hot paths.
#[inline(always)]
pub fn enabled() -> bool {
    // relaxed: enable flag is a hint; a stale reading records or skips one extra event.
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable latency recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// How many `op_start` calls share one timestamp (1 = time every call).
#[inline]
pub fn sample_interval() -> u32 {
    // relaxed: sampling knob; any recent value is acceptable.
    SAMPLE_INTERVAL.load(Ordering::Relaxed)
}

/// Set the `op_start` sampling interval. Clamped to at least 1. Use 1 to
/// time every operation; larger values trade histogram sample count for
/// lower hot-path overhead.
pub fn set_sample_interval(n: u32) {
    SAMPLE_INTERVAL.store(n.max(1), Ordering::SeqCst);
}

/// Start timing an operation: `Some(now)` when recording is enabled *and*
/// this call is sampled, `None` (free) otherwise. Pass the result to a
/// `record_*` function — they no-op on `None`.
#[inline(always)]
pub fn op_start() -> Option<Instant> {
    if !enabled() {
        return None;
    }
    // relaxed: sampling knob, as `sample_interval`.
    let n = SAMPLE_INTERVAL.load(Ordering::Relaxed);
    if n <= 1 {
        return Some(Instant::now());
    }
    COUNTDOWN.with(|c| {
        let left = c.get();
        if left == 0 {
            c.set(n - 1);
            Some(Instant::now())
        } else {
            c.set(left - 1);
            None
        }
    })
}

/// Record a finished duration into `op`'s histogram.
#[inline]
pub fn record_duration(op: Op, d: Duration) {
    crate::registry().histogram(op).record(d.as_nanos() as u64);
}

/// Record an operation begun at `start` (no-op when `start` is `None`).
#[inline]
pub fn record_since(op: Op, start: Option<Instant>) {
    if let Some(t) = start {
        record_duration(op, t.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = crate::test_guard();
        set_enabled(false);
        assert!(op_start().is_none());
        let before = crate::registry().histogram(Op::TxnAbort).snapshot().count;
        record_since(Op::TxnAbort, op_start());
        let after = crate::registry().histogram(Op::TxnAbort).snapshot().count;
        assert_eq!(before, after);
    }

    #[test]
    fn enabled_recorder_fills_histogram() {
        let _g = crate::test_guard();
        set_enabled(true);
        set_sample_interval(1);
        let before = crate::registry()
            .histogram(Op::MigNvmToSsd)
            .snapshot()
            .count;
        let start = op_start();
        assert!(start.is_some());
        record_since(Op::MigNvmToSsd, start);
        let after = crate::registry()
            .histogram(Op::MigNvmToSsd)
            .snapshot()
            .count;
        assert_eq!(after, before + 1);
        set_enabled(false);
        set_sample_interval(DEFAULT_SAMPLE_INTERVAL);
    }

    #[test]
    fn sampling_times_one_in_n_calls() {
        let _g = crate::test_guard();
        set_enabled(true);
        set_sample_interval(8);
        // Drain any residual countdown left by earlier tests on this thread,
        // then check the steady-state cadence: exactly one Some per 8 calls.
        while op_start().is_none() {}
        for _ in 0..3 {
            for _ in 0..7 {
                assert!(op_start().is_none());
            }
            assert!(op_start().is_some());
        }
        set_enabled(false);
        set_sample_interval(DEFAULT_SAMPLE_INTERVAL);
    }
}
