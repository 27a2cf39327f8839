//! Optimistic version latch for lock coupling (Leis et al., cited as \[24\]
//! in the paper §5.2).
//!
//! Readers never modify the latch word: they read the version, do their
//! work, and re-check the version. A concurrent writer bumps the version,
//! causing readers to restart. The B+Tree in `spitfire-index` couples these
//! latches down the tree, which is the "optimistic lock coupling" technique
//! the paper credits for reducing index contention once NVM removes most of
//! the I/O bottleneck.
//!
//! The word is a lock bit under a version counter. There is one latch per
//! page, in the buffer manager's page descriptor; `spitfire-modelcheck`
//! checks read-vs-write exhaustively (`version_latch_read_vs_write`) and
//! must kill the seeded `LatchUnlockRelaxed` mutant.

use crate::atomic::{AtomicU64, Ordering};

/// Low bit = write-locked; the rest is the version counter.
const LOCKED: u64 = 0b01;
const VERSION_STEP: u64 = 0b10;

/// Returned when an optimistic read or upgrade must restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimisticError;

impl std::fmt::Display for OptimisticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "optimistic validation failed; restart the operation")
    }
}

impl std::error::Error for OptimisticError {}

/// A version-based optimistic latch.
#[derive(Debug, Default)]
pub struct VersionLatch {
    word: AtomicU64,
}

impl VersionLatch {
    /// A fresh, unlocked latch at version zero.
    pub const fn new() -> Self {
        VersionLatch {
            word: AtomicU64::new(0),
        }
    }

    /// Begin an optimistic read: returns the current version, or an error if
    /// the latch is write-locked.
    pub fn read_lock(&self) -> Result<u64, OptimisticError> {
        let v = self.word.load(Ordering::Acquire);
        if v & LOCKED != 0 {
            return Err(OptimisticError);
        }
        Ok(v)
    }

    /// Validate an optimistic read begun at `version`.
    pub fn read_unlock(&self, version: u64) -> Result<(), OptimisticError> {
        if self.word.load(Ordering::Acquire) == version {
            Ok(())
        } else {
            Err(OptimisticError)
        }
    }

    /// Atomically upgrade an optimistic read at `version` to a write lock.
    pub fn upgrade(&self, version: u64) -> Result<(), OptimisticError> {
        // relaxed: failure means "restart the whole operation"; no state
        // read under the failed upgrade is ever used.
        self.word
            .compare_exchange(
                version,
                version | LOCKED,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .map(|_| ())
            .map_err(|_| OptimisticError)
    }

    /// Acquire the write lock, spinning until it is free.
    pub fn write_lock(&self) {
        let mut spins = 0u32;
        loop {
            // relaxed: spin-loop seed and CAS failure are both retried;
            // the successful acquire CAS orders the critical section.
            let v = self.word.load(Ordering::Relaxed);
            if v & LOCKED == 0
                && self
                    .word
                    // relaxed: failed CAS just re-seeds the spin loop
                    .compare_exchange_weak(v, v | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            spins += 1;
            if spins < 16 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Release a write lock, bumping the version so optimistic readers
    /// restart.
    pub fn write_unlock(&self) {
        // Clear LOCKED (+1 step wraps the low bits correctly because the
        // word was `version | LOCKED`). Release pairs with `read_lock`'s
        // acquire: whoever reads the new version reads everything written
        // under the lock. (Mutant LatchUnlockRelaxed drops it; the
        // read-vs-write model check must then validate a torn pair.)
        // relaxed: the weak arm is the seeded mutant only.
        let order = mutant_ordering!(LatchUnlockRelaxed, Ordering::Release, Ordering::Relaxed);
        self.word.fetch_add(VERSION_STEP - LOCKED, order);
    }

    /// Whether the latch is currently write-locked (diagnostics only).
    pub fn is_locked(&self) -> bool {
        // relaxed: advisory snapshot for diagnostics; stale by the time
        // the caller looks at it.
        self.word.load(Ordering::Relaxed) & LOCKED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_validates_when_no_writer() {
        let l = VersionLatch::new();
        let v = l.read_lock().unwrap();
        l.read_unlock(v).unwrap();
    }

    #[test]
    fn write_invalidates_concurrent_read() {
        let l = VersionLatch::new();
        let v = l.read_lock().unwrap();
        l.write_lock();
        l.write_unlock();
        assert_eq!(l.read_unlock(v), Err(OptimisticError));
    }

    #[test]
    fn read_fails_while_locked() {
        let l = VersionLatch::new();
        l.write_lock();
        assert_eq!(l.read_lock(), Err(OptimisticError));
        l.write_unlock();
        assert!(l.read_lock().is_ok());
    }

    #[test]
    fn upgrade_succeeds_only_on_same_version() {
        let l = VersionLatch::new();
        let v = l.read_lock().unwrap();
        l.upgrade(v).unwrap();
        l.write_unlock();
        // Version moved on; the old snapshot can no longer upgrade.
        assert_eq!(l.upgrade(v), Err(OptimisticError));
    }

    #[test]
    fn concurrent_writers_serialize() {
        const PER: u64 = if cfg!(miri) { 25 } else { 500 };
        let latch = Arc::new(VersionLatch::new());
        let value = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let latch = Arc::clone(&latch);
                let value = Arc::clone(&value);
                std::thread::spawn(move || {
                    for _ in 0..PER {
                        latch.write_lock();
                        let v = value.load(Ordering::Relaxed);
                        value.store(v + 1, Ordering::Relaxed);
                        latch.write_unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(value.load(Ordering::Relaxed), 4 * PER);
    }

    #[test]
    fn version_advances_monotonically() {
        let l = VersionLatch::new();
        let v0 = l.read_lock().unwrap();
        l.write_lock();
        l.write_unlock();
        let v1 = l.read_lock().unwrap();
        assert!(v1 > v0);
        assert_eq!(v1 & LOCKED, 0);
    }
}
