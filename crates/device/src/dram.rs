//! Emulated DRAM: a byte-addressable arena with DRAM-speed cost accounting.

use std::cell::UnsafeCell;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::cost::{AccessPattern, CostModel, TimeScale};
use crate::error::DeviceError;
use crate::fault::{FaultInjector, FaultOp, Outcome};
use crate::profile::{DeviceKind, DeviceProfile};
use crate::stats::DeviceStats;
use crate::Result;

/// A fixed-capacity byte arena.
///
/// # Safety contract
///
/// The arena intentionally permits concurrent mutation through `&self`
/// because buffer frames are accessed by many threads. Callers (the buffer
/// manager) must guarantee that concurrent accesses to *overlapping* byte
/// ranges are synchronized externally — Spitfire does this with per-page
/// latches (paper §5.2). Bounds are always checked; only range-disjointness
/// is delegated to the caller. A violation is a logic bug in the caller and
/// results in torn bytes, never memory unsafety outside the arena.
///
/// One *sanctioned* overlap exists: shadow-copy migrations deliberately
/// read a page while writers may be mutating it (a validated-discard
/// read). The copy is never used unless the page's pin-word version check
/// proves no write overlapped the copy window; a torn copy is discarded.
/// Such reads are still data races in the C++/Rust memory-model sense —
/// ThreadSanitizer would flag them — but they cannot produce memory
/// unsafety here, and staleness is excluded by the version protocol (see
/// `spitfire_sync::PinWord::shadow_commit` and DESIGN.md "Shadow-copy
/// migrations").
pub(crate) struct Arena {
    data: UnsafeCell<Box<[u8]>>,
    capacity: usize,
}

// SAFETY: all mutation goes through raw-pointer copies on range-checked
// offsets; disjointness of concurrently accessed ranges is part of the
// documented caller contract above.
unsafe impl Sync for Arena {}
unsafe impl Send for Arena {}

impl Arena {
    pub(crate) fn new(capacity: usize) -> Self {
        Arena {
            data: UnsafeCell::new(vec![0u8; capacity].into_boxed_slice()),
            capacity,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    fn check(&self, offset: usize, len: usize) -> Result<()> {
        if offset
            .checked_add(len)
            .map_or(true, |end| end > self.capacity)
        {
            return Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    pub(crate) fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.check(offset, buf.len())?;
        // SAFETY: range checked above; disjointness per the type contract.
        unsafe {
            let base = (*self.data.get()).as_ptr().add(offset);
            std::ptr::copy_nonoverlapping(base, buf.as_mut_ptr(), buf.len());
        }
        Ok(())
    }

    pub(crate) fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.check(offset, data.len())?;
        // SAFETY: range checked above; disjointness per the type contract.
        unsafe {
            let base = (*self.data.get()).as_mut_ptr().add(offset);
            std::ptr::copy_nonoverlapping(data.as_ptr(), base, data.len());
        }
        Ok(())
    }
}

/// Emulated DRAM device: a byte arena fronted by a DRAM [`CostModel`].
///
/// The buffer manager places its DRAM buffer pool frames here. Accesses are
/// range-addressed; the frame layout is owned by the caller.
pub struct DramDevice {
    arena: Arena,
    cost: CostModel,
    stats: Arc<DeviceStats>,
    injector: RwLock<Option<Arc<FaultInjector>>>,
}

impl DramDevice {
    /// A DRAM device of `capacity` bytes with Table 1 characteristics.
    pub fn new(capacity: usize, scale: TimeScale) -> Self {
        Self::with_profile(capacity, DeviceProfile::dram(), scale)
    }

    /// A DRAM device with a custom profile (used by tests and what-if
    /// experiments).
    pub fn with_profile(capacity: usize, profile: DeviceProfile, scale: TimeScale) -> Self {
        DramDevice {
            arena: Arena::new(capacity),
            cost: CostModel::new(profile, scale),
            stats: Arc::new(DeviceStats::new()),
            injector: RwLock::new(None),
        }
    }

    /// Attach (or detach with `None`) a chaos fault injector; every
    /// subsequent read/write consults it first.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.write() = injector;
    }

    fn fault(&self, op: FaultOp, offset: usize, len: usize) -> Outcome {
        match &*self.injector.read() {
            Some(inj) => inj.decide(DeviceKind::Dram, op, offset as u64, len),
            None => Outcome::Proceed,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Shared handle to this device's counters.
    pub fn stats(&self) -> Arc<DeviceStats> {
        Arc::clone(&self.stats)
    }

    /// The device profile in effect.
    pub fn profile(&self) -> &DeviceProfile {
        self.cost.profile()
    }

    /// Change the emulated-delay scale (load phases run at
    /// [`TimeScale::ZERO`], measurement at [`TimeScale::REAL`]).
    pub fn set_time_scale(&self, scale: TimeScale) {
        self.cost.set_scale(scale);
    }

    /// Read `buf.len()` bytes starting at `offset`.
    pub fn read(&self, offset: usize, buf: &mut [u8], pattern: AccessPattern) -> Result<()> {
        if let Outcome::Fail(e) = self.fault(FaultOp::Read, offset, buf.len()) {
            return Err(e);
        }
        self.arena.read(offset, buf)?;
        let eff = self.cost.charge_read(buf.len(), pattern);
        self.stats.record_read(eff);
        Ok(())
    }

    /// Write `data` starting at `offset`.
    pub fn write(&self, offset: usize, data: &[u8], pattern: AccessPattern) -> Result<()> {
        // DRAM is volatile, so torn-write/drop-flush outcomes degenerate to
        // plain success; only error injection applies.
        if let Outcome::Fail(e) = self.fault(FaultOp::Write, offset, data.len()) {
            return Err(e);
        }
        self.arena.write(offset, data)?;
        let eff = self.cost.charge_write(data.len(), pattern);
        self.stats.record_write(eff);
        Ok(())
    }
}

impl std::fmt::Debug for DramDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramDevice")
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_writes() {
        let d = DramDevice::new(4096, TimeScale::ZERO);
        d.write(100, b"hello", AccessPattern::Random).unwrap();
        let mut buf = [0u8; 5];
        d.read(100, &mut buf, AccessPattern::Random).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn bounds_are_enforced() {
        let d = DramDevice::new(64, TimeScale::ZERO);
        let err = d.write(60, b"too long", AccessPattern::Random).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfBounds { .. }));
        let mut buf = [0u8; 1];
        assert!(d.read(64, &mut buf, AccessPattern::Random).is_err());
        // Offset overflow must not panic.
        assert!(d.read(usize::MAX, &mut buf, AccessPattern::Random).is_err());
    }

    #[test]
    fn stats_count_effective_bytes() {
        let d = DramDevice::new(4096, TimeScale::ZERO);
        d.write(0, &[1u8; 10], AccessPattern::Random).unwrap();
        // DRAM granularity is 64 B, so a 10 B write moves 64 B.
        assert_eq!(d.stats().snapshot().bytes_written, 64);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let d = Arc::new(DramDevice::new(64 * 16, TimeScale::ZERO));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let pattern = [i as u8; 64];
                    for _ in 0..100 {
                        d.write(i * 64, &pattern, AccessPattern::Random).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..16usize {
            let mut buf = [0u8; 64];
            d.read(i * 64, &mut buf, AccessPattern::Random).unwrap();
            assert_eq!(buf, [i as u8; 64]);
        }
    }
}
