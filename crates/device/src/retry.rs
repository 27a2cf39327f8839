//! The one bounded retry loop for transient device errors.
//!
//! Injected transient faults (see [`crate::fault`]) are absorbed with an
//! exponential micro-backoff (2 µs, 4 µs, ... capped at 64 µs). Every
//! other error — and a transient one that outlives the budget — is
//! returned unchanged, so each caller keeps its own escalation policy
//! (the buffer manager wraps it in `FatalIo`, the WAL and the snapshot
//! store surface the device error).

use std::time::Duration;

use crate::Result;

/// Default retry budget for one operation.
pub const IO_RETRY_LIMIT: u32 = 8;

/// Run `f`, retrying retryable errors ([`crate::DeviceError::is_retryable`])
/// up to `limit` times. `on_retry` runs once per retry, before the backoff
/// sleep — the buffer manager counts `io_retries` there. Nothing but the
/// call to `f` sits on the success path (hence `#[inline]`: the buffer
/// manager calls this on every frame read and write).
#[inline]
pub fn retry_io_with<T>(
    limit: u32,
    mut on_retry: impl FnMut(),
    mut f: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Err(e) if e.is_retryable() && attempt < limit => {
                attempt += 1;
                on_retry();
                std::thread::sleep(Duration::from_micros(1 << attempt.min(6)));
            }
            other => return other,
        }
    }
}

/// [`retry_io_with`] at [`IO_RETRY_LIMIT`] with no per-retry hook: the
/// discipline of the log devices and the snapshot store, which have no
/// buffer-manager metrics to charge.
#[inline]
pub fn retry_io<T>(f: impl FnMut() -> Result<T>) -> Result<T> {
    retry_io_with(IO_RETRY_LIMIT, || {}, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceError;

    #[test]
    fn retries_transients_up_to_the_limit_and_counts_each_one() {
        let (mut calls, mut retries) = (0u32, 0u32);
        let out: Result<()> = retry_io_with(
            3,
            || retries += 1,
            || {
                calls += 1;
                Err(DeviceError::InjectedTransient { op: "read" })
            },
        );
        assert_eq!(out, Err(DeviceError::InjectedTransient { op: "read" }));
        assert_eq!((calls, retries), (4, 3));
    }

    #[test]
    fn other_errors_and_successes_return_at_once() {
        let mut calls = 0u32;
        let out: Result<()> = retry_io(|| {
            calls += 1;
            Err(DeviceError::PageNotFound(7))
        });
        assert_eq!(out, Err(DeviceError::PageNotFound(7)));
        assert_eq!(calls, 1);
        let mut failures = 2;
        let out = retry_io(|| {
            if failures > 0 {
                failures -= 1;
                Err(DeviceError::InjectedTransient { op: "write" })
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
    }
}
