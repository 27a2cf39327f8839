//! Retry/backoff policy for device I/O.
//!
//! Injected transient faults (see `spitfire_device::fault`) are absorbed
//! by the device crate's bounded retry loop (`spitfire_device::retry_io_with`),
//! counted here; injected fatal faults —
//! and transients that keep failing past the budget — escalate to
//! [`BufferError::FatalIo`] with a `during` label naming the path that was
//! executing. Non-injected device errors (bounds violations, missing
//! pages, bad page sizes) pass through unchanged so callers can keep
//! matching on them.

use std::time::Instant;

use spitfire_device::retry_io_with;
pub(crate) use spitfire_device::IO_RETRY_LIMIT;
use spitfire_obs::{record_since, Op};

use crate::error::BufferError;
use crate::metrics::BufferMetrics;

/// Retry budget for *opportunistic* I/O — background maintenance
/// pre-evictions. Failing fast is correct there: an abandoned pre-eviction
/// just leaves the page for the inline path (which retries with the full
/// [`IO_RETRY_LIMIT`]), while burning the whole backoff schedule per page
/// would stall an entire write-back batch behind one flaky device.
pub(crate) const MAINT_RETRY_LIMIT: u32 = 2;

/// Run `f` through the device crate's retry loop with the full
/// [`IO_RETRY_LIMIT`] budget. Each retry bumps `metrics.io_retries` and
/// emits an `io_retry` obs event; escalation bumps `metrics.io_fatal`.
pub(crate) fn retry_device_io<T>(
    metrics: &BufferMetrics,
    during: &'static str,
    f: impl FnMut() -> spitfire_device::Result<T>,
) -> Result<T, BufferError> {
    retry_device_io_n(metrics, during, IO_RETRY_LIMIT, f)
}

/// [`retry_device_io`] with a caller-chosen retry budget (see
/// [`MAINT_RETRY_LIMIT`] for when a smaller one is right).
pub(crate) fn retry_device_io_n<T>(
    metrics: &BufferMetrics,
    during: &'static str,
    limit: u32,
    f: impl FnMut() -> spitfire_device::Result<T>,
) -> Result<T, BufferError> {
    let on_retry = || {
        metrics.record_io_retry();
        record_since(Op::IoRetry, Some(Instant::now()));
    };
    retry_io_with(limit, on_retry, f).map_err(|e| {
        if e.is_injected() {
            metrics.record_io_fatal();
            BufferError::FatalIo { during, source: e }
        } else {
            BufferError::Device(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitfire_device::DeviceError;

    #[test]
    fn transient_errors_are_absorbed() {
        let metrics = BufferMetrics::new();
        let mut failures = 3;
        let out = retry_device_io(&metrics, "test op", || {
            if failures > 0 {
                failures -= 1;
                Err(DeviceError::InjectedTransient { op: "read" })
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(metrics.snapshot().io_retries, 3);
        assert_eq!(metrics.snapshot().io_fatal, 0);
    }

    #[test]
    fn fatal_errors_escalate_with_context() {
        let metrics = BufferMetrics::new();
        let out: Result<(), _> = retry_device_io(&metrics, "ssd write", || {
            Err(DeviceError::InjectedFatal { op: "write" })
        });
        match out.unwrap_err() {
            BufferError::FatalIo { during, source } => {
                assert_eq!(during, "ssd write");
                assert_eq!(source, DeviceError::InjectedFatal { op: "write" });
            }
            other => panic!("expected FatalIo, got {other:?}"),
        }
        assert_eq!(metrics.snapshot().io_fatal, 1);
    }

    #[test]
    fn retry_budget_exhaustion_escalates() {
        let metrics = BufferMetrics::new();
        let out: Result<(), _> = retry_device_io(&metrics, "pool read", || {
            Err(DeviceError::InjectedTransient { op: "read" })
        });
        assert!(matches!(out, Err(BufferError::FatalIo { .. })));
        assert_eq!(metrics.snapshot().io_retries, u64::from(IO_RETRY_LIMIT));
        assert_eq!(metrics.snapshot().io_fatal, 1);
    }

    #[test]
    fn contract_errors_pass_through_unwrapped() {
        let metrics = BufferMetrics::new();
        let out: Result<(), _> =
            retry_device_io(&metrics, "ssd read", || Err(DeviceError::PageNotFound(7)));
        assert!(matches!(
            out,
            Err(BufferError::Device(DeviceError::PageNotFound(7)))
        ));
        assert_eq!(metrics.snapshot().io_retries, 0);
        assert_eq!(metrics.snapshot().io_fatal, 0);
    }
}
