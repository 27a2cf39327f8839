//! SSD page store: block-addressable page device with SSD-speed cost
//! accounting, backed by either an emulated in-memory arena or a real
//! file with direct I/O ([`crate::FileSsdDevice`]).

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::cost::{AccessPattern, CostModel, TimeScale};
use crate::error::DeviceError;
use crate::fault::{FaultInjector, FaultOp, Outcome};
use crate::file_ssd::FileSsdDevice;
use crate::nvm::PersistenceTracking;
use crate::profile::{DeviceKind, DeviceProfile};
use crate::stats::DeviceStats;
use crate::Result;

/// Number of lock shards for the emulated page map; power of two.
const SHARDS: usize = 64;

/// Which store implementation backs an [`SsdDevice`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SsdBackendConfig {
    /// The emulated in-memory arena with cost-model delays (the default;
    /// deterministic, no filesystem dependency).
    #[default]
    Emulated,
    /// A real file written through `pwrite`/`pread` with `O_DIRECT` when
    /// the filesystem supports it. Emulated delays are disabled — the
    /// device's own latency is the measurement. `path: None` uses a
    /// unique temporary file removed when the device drops.
    File {
        /// Backing-file path; `None` for an auto-removed temp file.
        path: Option<PathBuf>,
    },
}

/// Durability bookkeeping mirroring an OS page cache: writes land in the
/// volatile page map and only become crash-safe once [`SsdDevice::sync`]
/// copies them into the synced image (the emulated fsync barrier).
struct SyncedImage {
    /// Page images as of the last successful `sync`.
    synced: Mutex<HashMap<u64, Box<[u8]>>>,
    /// Pages written (or overwritten) since the last `sync`.
    dirty: Mutex<HashSet<u64>>,
}

/// The two store implementations behind the shared fault/cost/stats
/// plumbing of [`SsdDevice`].
enum Backend {
    Mem {
        shards: Vec<RwLock<HashMap<u64, Box<[u8]>>>>,
        durability: Option<SyncedImage>,
    },
    File(FileSsdDevice),
}

/// SSD page store: whole-page reads and writes only.
///
/// Unlike [`crate::NvmDevice`], the CPU cannot address individual bytes —
/// every transfer moves an entire page, which is the defining property that
/// makes a DRAM (or NVM) buffer mandatory for SSD-resident data (paper §1).
///
/// The default backend is an unbounded sharded hash map from page id to
/// page image with emulated Optane-SSD (P4800X) timing; capacity
/// accounting is the caller's concern (the database simply grows the SSD
/// as pages are allocated, as in the paper's experiments where the SSD
/// always holds the whole database). [`SsdDevice::with_backend`] selects
/// a real backing file instead ([`SsdBackendConfig::File`]); fault
/// injection, stats, and the durability model behave identically on both.
pub struct SsdDevice {
    backend: Backend,
    page_size: usize,
    cost: CostModel,
    stats: Arc<DeviceStats>,
    injector: RwLock<Option<Arc<FaultInjector>>>,
}

impl SsdDevice {
    /// An SSD storing `page_size`-byte pages with Table 1 characteristics.
    /// Writes are treated as durable immediately (no crash model), matching
    /// the historical behavior; use [`SsdDevice::with_tracking`] with
    /// [`PersistenceTracking::Full`] for recovery tests.
    pub fn new(page_size: usize, scale: TimeScale) -> Self {
        Self::with_profile(page_size, DeviceProfile::optane_ssd(), scale)
    }

    /// An SSD with the requested durability bookkeeping. Under
    /// [`PersistenceTracking::Full`], writes are volatile until
    /// [`SsdDevice::sync`] and [`SsdDevice::simulate_crash`] rolls back to
    /// the last synced image — the SSD analogue of the NVM device's
    /// unflushed-line discard.
    pub fn with_tracking(
        page_size: usize,
        scale: TimeScale,
        tracking: PersistenceTracking,
    ) -> Self {
        let mut dev = Self::with_profile(page_size, DeviceProfile::optane_ssd(), scale);
        if tracking == PersistenceTracking::Full {
            if let Backend::Mem { durability, .. } = &mut dev.backend {
                *durability = Some(SyncedImage {
                    synced: Mutex::new(HashMap::new()),
                    dirty: Mutex::new(HashSet::new()),
                });
            }
        }
        dev
    }

    /// An SSD with the chosen backend ([`SsdBackendConfig`]). The file
    /// backend propagates open errors; the emulated backend is infallible.
    pub fn with_backend(
        page_size: usize,
        scale: TimeScale,
        tracking: PersistenceTracking,
        backend: &SsdBackendConfig,
    ) -> Result<Self> {
        match backend {
            SsdBackendConfig::Emulated => Ok(Self::with_tracking(page_size, scale, tracking)),
            SsdBackendConfig::File { path } => {
                let file = FileSsdDevice::new(
                    page_size,
                    path.clone(),
                    tracking == PersistenceTracking::Full,
                )?;
                let mut dev = Self::with_profile(page_size, DeviceProfile::optane_ssd(), scale);
                dev.backend = Backend::File(file);
                Ok(dev)
            }
        }
    }

    /// An SSD with a custom profile (emulated backend).
    pub fn with_profile(page_size: usize, profile: DeviceProfile, scale: TimeScale) -> Self {
        SsdDevice {
            backend: Backend::Mem {
                shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
                durability: None,
            },
            page_size,
            cost: CostModel::new(profile, scale),
            stats: Arc::new(DeviceStats::new()),
            injector: RwLock::new(None),
        }
    }

    /// Whether this device is backed by a real file (no emulated delays).
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backend, Backend::File(_))
    }

    /// The file backend, when active (diagnostics: path, direct-I/O flag).
    pub fn file_backend(&self) -> Option<&FileSsdDevice> {
        match &self.backend {
            Backend::File(f) => Some(f),
            Backend::Mem { .. } => None,
        }
    }

    /// Attach (or detach with `None`) a chaos fault injector; every
    /// subsequent page read/write/sync consults it first.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.write() = injector;
    }

    fn fault(&self, op: FaultOp, pid: u64, len: usize) -> Outcome {
        match &*self.injector.read() {
            // Page ops expose `pid * page_size` as the byte offset so
            // offset-range predicates can target page ranges.
            Some(inj) => inj.decide(
                DeviceKind::Ssd,
                op,
                pid.wrapping_mul(self.page_size as u64),
                len,
            ),
            None => Outcome::Proceed,
        }
    }

    fn mem_mark_dirty(&self, pid: u64) {
        if let Backend::Mem {
            durability: Some(d),
            ..
        } = &self.backend
        {
            d.dirty.lock().insert(pid);
        }
    }

    /// The fixed page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Shared handle to this device's counters.
    pub fn stats(&self) -> Arc<DeviceStats> {
        Arc::clone(&self.stats)
    }

    /// The device profile in effect.
    pub fn profile(&self) -> &DeviceProfile {
        self.cost.profile()
    }

    /// Change the emulated-delay scale (no effect on the file backend,
    /// whose latency is the real device's).
    pub fn set_time_scale(&self, scale: TimeScale) {
        self.cost.set_scale(scale);
    }

    fn shard(&self, pid: u64) -> &RwLock<HashMap<u64, Box<[u8]>>> {
        let Backend::Mem { shards, .. } = &self.backend else {
            unreachable!("shard() is only called on the emulated backend");
        };
        &shards[(pid as usize) & (SHARDS - 1)]
    }

    /// Read page `pid` into `buf` (must be exactly one page long).
    pub fn read_page(&self, pid: u64, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(DeviceError::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        if let Outcome::Fail(e) = self.fault(FaultOp::Read, pid, buf.len()) {
            return Err(e);
        }
        match &self.backend {
            Backend::Mem { .. } => {
                {
                    let shard = self.shard(pid).read();
                    let page = shard.get(&pid).ok_or(DeviceError::PageNotFound(pid))?;
                    buf.copy_from_slice(page);
                }
                let eff = self.cost.charge_read(self.page_size, AccessPattern::Random);
                self.stats.record_read(eff);
            }
            Backend::File(f) => {
                f.read_page(pid, buf)?;
                self.stats.record_read(self.page_size);
            }
        }
        Ok(())
    }

    /// Read the run of pages `pids` into `buf` (exactly the run's length
    /// in pages) as one sequential request: the read counterpart of
    /// [`SsdDevice::write_pages`]. Returns how many pages it read: the
    /// run's length, or `n` when page `pids.start + n` does not exist (a
    /// read stops at the first missing page).
    ///
    /// The fault hook runs once per page, in page order, as a
    /// [`SsdDevice::read_page`] loop would run it (the missing page that
    /// ends the run included); an injected failure fails the request.
    /// The emulated backend charges the pages it read once, at sequential
    /// rates, and counts one read op; the file backend issues one
    /// `pread` over them.
    pub fn read_pages(&self, pids: std::ops::Range<u64>, buf: &mut [u8]) -> Result<usize> {
        let want = pids.end.saturating_sub(pids.start) as usize;
        if buf.len() != want * self.page_size {
            return Err(DeviceError::BadPageSize {
                expected: want * self.page_size,
                got: buf.len(),
            });
        }
        let mut n = 0;
        for pid in pids.clone() {
            if let Outcome::Fail(e) = self.fault(FaultOp::Read, pid, self.page_size) {
                return Err(e);
            }
            let out = &mut buf[n * self.page_size..(n + 1) * self.page_size];
            match &self.backend {
                Backend::Mem { .. } => match self.shard(pid).read().get(&pid) {
                    Some(page) => out.copy_from_slice(page),
                    None => break,
                },
                Backend::File(f) if !f.contains(pid) => break,
                Backend::File(_) => {}
            }
            n += 1;
        }
        if n == 0 {
            return Ok(0);
        }
        let bytes = n * self.page_size;
        match &self.backend {
            Backend::Mem { .. } => {
                let eff = self.cost.charge_read(bytes, AccessPattern::Sequential);
                self.stats.record_read(eff);
            }
            Backend::File(f) => {
                f.read_pages(pids.start, &mut buf[..bytes])?;
                self.stats.record_read(bytes);
            }
        }
        Ok(n)
    }

    /// Store `data[..keep]` as page `pid` in the emulated arena. For a
    /// torn write (`keep` short of a full page) an existing page keeps its
    /// old tail bytes and a fresh page gets a zero tail — the page
    /// "exists" either way.
    fn mem_store(&self, pid: u64, data: &[u8], keep: usize) {
        let mut shard = self.shard(pid).write();
        match shard.get_mut(&pid) {
            Some(page) => page[..keep].copy_from_slice(&data[..keep]),
            None => {
                let mut page = vec![0u8; self.page_size].into_boxed_slice();
                page[..keep].copy_from_slice(&data[..keep]);
                shard.insert(pid, page);
            }
        }
    }

    fn write_page_inner(&self, pid: u64, data: &[u8], pattern: AccessPattern) -> Result<()> {
        if data.len() != self.page_size {
            return Err(DeviceError::BadPageSize {
                expected: self.page_size,
                got: data.len(),
            });
        }
        let keep = match self.fault(FaultOp::Write, pid, data.len()) {
            Outcome::Fail(e) => return Err(e),
            Outcome::Truncate(keep) => keep,
            Outcome::Proceed | Outcome::Drop => data.len(),
        };
        match &self.backend {
            Backend::Mem { .. } => {
                self.mem_store(pid, data, keep);
                self.mem_mark_dirty(pid);
                let eff = self.cost.charge_write(self.page_size, pattern);
                self.stats.record_write(eff);
            }
            Backend::File(f) => {
                f.write_page(pid, data, keep)?;
                self.stats.record_write(self.page_size);
            }
        }
        Ok(())
    }

    /// Write `data` (exactly one page) as page `pid`, creating it if absent.
    ///
    /// Volatile until [`SsdDevice::sync`] when durability tracking is on.
    pub fn write_page(&self, pid: u64, data: &[u8]) -> Result<()> {
        self.write_page_inner(pid, data, AccessPattern::Random)
    }

    /// Append-style sequential write used by the log writer: identical to
    /// [`SsdDevice::write_page`] but charged at sequential-write rates
    /// and always replacing the full page image.
    pub fn append_page(&self, pid: u64, data: &[u8]) -> Result<()> {
        if data.len() != self.page_size {
            return Err(DeviceError::BadPageSize {
                expected: self.page_size,
                got: data.len(),
            });
        }
        let keep = match self.fault(FaultOp::Write, pid, data.len()) {
            Outcome::Fail(e) => return Err(e),
            Outcome::Truncate(keep) => keep,
            Outcome::Proceed | Outcome::Drop => data.len(),
        };
        match &self.backend {
            Backend::Mem { .. } => {
                if keep == self.page_size {
                    // In place where the page exists: snapshot blocks are
                    // reused lowest-first, so most appends land on one.
                    self.mem_store(pid, data, keep);
                } else {
                    // A torn append leaves zeros, not the old image, past
                    // what it kept.
                    let mut page = vec![0u8; self.page_size].into_boxed_slice();
                    page[..keep].copy_from_slice(&data[..keep]);
                    self.shard(pid).write().insert(pid, page);
                }
                self.mem_mark_dirty(pid);
                let eff = self
                    .cost
                    .charge_write(self.page_size, AccessPattern::Sequential);
                self.stats.record_write(eff);
            }
            Backend::File(f) => {
                f.write_page(pid, data, keep)?;
                self.stats.record_write(self.page_size);
            }
        }
        Ok(())
    }

    /// Submit a batch of pages as one sorted multi-page write (the
    /// maintenance/checkpoint write-back fast path): page ids are sorted,
    /// contiguous runs are coalesced into single submissions on the file
    /// backend, and the whole batch is charged at sequential-write rates.
    /// The caller issues the single [`SsdDevice::sync`] that makes the
    /// batch durable.
    ///
    /// When a fault injector is attached the batch degrades to per-page
    /// writes so every page gets its own fault decision (torn writes,
    /// per-page transients) exactly as if [`SsdDevice::write_page`] had
    /// been called in a loop. Returns the number of device submissions.
    pub fn write_pages(&self, pages: &mut Vec<(u64, &[u8])>) -> Result<usize> {
        for (_, data) in pages.iter() {
            if data.len() != self.page_size {
                return Err(DeviceError::BadPageSize {
                    expected: self.page_size,
                    got: data.len(),
                });
            }
        }
        let faulted = self.injector.read().is_some();
        if let (Backend::File(f), false) = (&self.backend, faulted) {
            let n = f.write_pages(pages)?;
            for _ in pages.iter() {
                self.stats.record_write(self.page_size);
            }
            return Ok(n);
        }
        pages.sort_unstable_by_key(|(pid, _)| *pid);
        for (pid, data) in pages.iter() {
            self.write_page_inner(*pid, data, AccessPattern::Sequential)?;
        }
        Ok(pages.len())
    }

    /// Durability barrier (fsync): make every write since the last sync
    /// crash-safe. A no-op for the emulated backend without durability
    /// tracking; a real `fdatasync` on the file backend. A dropped-flush
    /// fault returns `Ok` while leaving the pages volatile.
    pub fn sync(&self) -> Result<()> {
        match self.fault(FaultOp::Sync, 0, 0) {
            Outcome::Fail(e) => return Err(e),
            Outcome::Drop => return Ok(()),
            Outcome::Proceed | Outcome::Truncate(_) => {}
        }
        match &self.backend {
            Backend::Mem { durability, .. } => {
                let Some(d) = durability else {
                    return Ok(());
                };
                let dirty: Vec<u64> = d.dirty.lock().drain().collect();
                let mut bytes = 0usize;
                let mut synced = d.synced.lock();
                for pid in dirty {
                    if let Some(page) = self.shard(pid).read().get(&pid) {
                        bytes += page.len();
                        synced.insert(pid, page.clone());
                    }
                }
                self.stats.record_flush(bytes);
                self.stats.record_fence();
            }
            Backend::File(f) => {
                let bytes = f.sync()?;
                self.stats.record_flush(bytes);
                self.stats.record_fence();
            }
        }
        Ok(())
    }

    /// Model power loss: roll the page store back to the last synced
    /// image, discarding every un-synced write — the block-device analogue
    /// of [`crate::NvmDevice::simulate_crash`]. A no-op without tracking.
    pub fn simulate_crash(&self) {
        match &self.backend {
            Backend::Mem {
                shards, durability, ..
            } => {
                let Some(d) = durability else { return };
                d.dirty.lock().clear();
                let synced = d.synced.lock();
                for shard in shards {
                    shard.write().clear();
                }
                for (pid, page) in synced.iter() {
                    self.shard(*pid).write().insert(*pid, page.clone());
                }
            }
            Backend::File(f) => f.simulate_crash(),
        }
    }

    /// Give pages `pids` back to the device (TRIM): they stop existing at
    /// once and stay gone across [`SsdDevice::simulate_crash`], whether or
    /// not they were ever synced. The caller must already have made
    /// durable whatever stops it from reading them again (the WAL persists
    /// its new base cursor first). Absent pages are skipped; nothing is
    /// charged or counted, and no fault is injected.
    ///
    /// The emulated backend frees the images (page map, dirty set, synced
    /// image). The file backend only forgets the pages — see
    /// [`FileSsdDevice::discard`].
    pub fn discard(&self, pids: std::ops::Range<u64>) {
        match &self.backend {
            Backend::Mem { durability, .. } => {
                for pid in pids.clone() {
                    self.shard(pid).write().remove(&pid);
                }
                if let Some(d) = durability {
                    let (mut dirty, mut synced) = (d.dirty.lock(), d.synced.lock());
                    for pid in pids {
                        dirty.remove(&pid);
                        synced.remove(&pid);
                    }
                }
            }
            Backend::File(f) => f.discard(pids),
        }
    }

    /// Whether page `pid` exists on the device.
    pub fn contains(&self, pid: u64) -> bool {
        match &self.backend {
            Backend::Mem { .. } => self.shard(pid).read().contains_key(&pid),
            Backend::File(f) => f.contains(pid),
        }
    }

    /// Number of pages currently stored.
    pub fn page_count(&self) -> usize {
        match &self.backend {
            Backend::Mem { shards, .. } => shards.iter().map(|s| s.read().len()).sum(),
            Backend::File(f) => f.page_count(),
        }
    }

    /// Occupied capacity in bytes.
    pub fn used_bytes(&self) -> u64 {
        self.page_count() as u64 * self.page_size as u64
    }

    /// Highest page id stored, if any (used by recovery to restore the
    /// page allocator).
    pub fn max_page_id(&self) -> Option<u64> {
        match &self.backend {
            Backend::Mem { shards, .. } => shards
                .iter()
                .filter_map(|s| s.read().keys().max().copied())
                .max(),
            Backend::File(f) => f.max_page_id(),
        }
    }
}

impl std::fmt::Debug for SsdDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdDevice")
            .field("page_size", &self.page_size)
            .field("pages", &self.page_count())
            .field("file_backed", &self.is_file_backed())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> SsdDevice {
        SsdDevice::new(4096, TimeScale::ZERO)
    }

    fn file_ssd(tracking: PersistenceTracking) -> SsdDevice {
        SsdDevice::with_backend(
            4096,
            TimeScale::ZERO,
            tracking,
            &SsdBackendConfig::File { path: None },
        )
        .expect("file-backed ssd")
    }

    #[test]
    fn write_then_read_page() {
        let d = ssd();
        let page = vec![7u8; 4096];
        d.write_page(42, &page).unwrap();
        let mut buf = vec![0u8; 4096];
        d.read_page(42, &mut buf).unwrap();
        assert_eq!(buf, page);
        assert_eq!(d.page_count(), 1);
        assert!(d.contains(42));
        assert!(!d.contains(43));
    }

    #[test]
    fn missing_page_is_an_error() {
        let d = ssd();
        let mut buf = vec![0u8; 4096];
        assert_eq!(
            d.read_page(1, &mut buf).unwrap_err(),
            DeviceError::PageNotFound(1)
        );
    }

    #[test]
    fn wrong_buffer_size_is_rejected() {
        let d = ssd();
        let mut small = vec![0u8; 100];
        assert!(matches!(
            d.read_page(1, &mut small).unwrap_err(),
            DeviceError::BadPageSize {
                expected: 4096,
                got: 100
            }
        ));
        assert!(d.write_page(1, &small).is_err());
    }

    #[test]
    fn overwrite_replaces_content() {
        let d = ssd();
        d.write_page(9, &vec![1u8; 4096]).unwrap();
        d.write_page(9, &vec![2u8; 4096]).unwrap();
        let mut buf = vec![0u8; 4096];
        d.read_page(9, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
        assert_eq!(d.page_count(), 1);
    }

    #[test]
    fn append_over_an_existing_page_replaces_the_whole_image() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule, Trigger};
        let d = ssd();
        let mut buf = vec![0u8; 4096];
        d.append_page(3, &vec![1u8; 4096]).unwrap();
        d.append_page(3, &vec![2u8; 4096]).unwrap();
        d.read_page(3, &mut buf).unwrap();
        assert_eq!(buf, vec![2u8; 4096]);
        assert_eq!(d.page_count(), 1);

        // Torn: a prefix of the new image, then zeros — never the old tail.
        let torn = FaultRule::any(Trigger::Always, FaultKind::TornWrite);
        d.set_fault_injector(Some(Arc::new(FaultInjector::new(
            FaultPlan::new(5).rule(torn),
        ))));
        d.append_page(3, &vec![9u8; 4096]).unwrap();
        d.set_fault_injector(None);
        d.read_page(3, &mut buf).unwrap();
        let kept = buf.iter().take_while(|&&b| b == 9).count();
        assert!(kept < 4096);
        assert!(
            buf[kept..].iter().all(|&b| b == 0),
            "old image past the tear"
        );
    }

    #[test]
    fn concurrent_writers_to_distinct_pages() {
        let d = Arc::new(ssd());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for round in 0..50u64 {
                        d.write_page(i, &vec![(i + round) as u8; 4096]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.page_count(), 8);
        for i in 0..8u64 {
            let mut buf = vec![0u8; 4096];
            d.read_page(i, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == buf[0]));
        }
    }

    #[test]
    fn used_bytes_tracks_page_count() {
        let d = ssd();
        d.write_page(1, &vec![0u8; 4096]).unwrap();
        d.write_page(2, &vec![0u8; 4096]).unwrap();
        assert_eq!(d.used_bytes(), 8192);
    }

    #[test]
    fn unsynced_writes_are_lost_on_crash() {
        let d = SsdDevice::with_tracking(4096, TimeScale::ZERO, PersistenceTracking::Full);
        d.write_page(1, &vec![1u8; 4096]).unwrap();
        d.sync().unwrap();
        d.write_page(1, &vec![9u8; 4096]).unwrap(); // overwrite, un-synced
        d.write_page(2, &vec![2u8; 4096]).unwrap(); // new page, un-synced
        d.simulate_crash();
        let mut buf = vec![0u8; 4096];
        d.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "page 1 rolled back to synced image");
        assert_eq!(
            d.read_page(2, &mut buf).unwrap_err(),
            DeviceError::PageNotFound(2),
            "never-synced page vanishes"
        );
        assert_eq!(d.page_count(), 1);
    }

    #[test]
    fn discarded_pages_are_gone_for_good() {
        for d in [
            SsdDevice::with_tracking(4096, TimeScale::ZERO, PersistenceTracking::Full),
            file_ssd(PersistenceTracking::Full),
        ] {
            for pid in 0..4u64 {
                d.write_page(pid, &vec![pid as u8; 4096]).unwrap();
            }
            d.sync().unwrap();
            d.write_page(2, &vec![9u8; 4096]).unwrap(); // dirty again
            d.write_page(4, &vec![4u8; 4096]).unwrap(); // never synced
            let before = d.stats().snapshot();
            d.discard(1..5);
            assert_eq!(d.stats().snapshot(), before, "discard is not charged");
            assert_eq!(d.page_count(), 1);
            assert_eq!(d.used_bytes(), 4096);
            // Neither the synced image nor a pre-image brings them back.
            d.simulate_crash();
            assert!(d.contains(0));
            assert!((1..5).all(|pid| !d.contains(pid)));
            d.sync().unwrap();
            d.simulate_crash();
            assert_eq!(d.page_count(), 1);
            // A discarded id is an ordinary fresh page afterwards.
            d.write_page(2, &vec![7u8; 4096]).unwrap();
            let mut buf = vec![0u8; 4096];
            d.read_page(2, &mut buf).unwrap();
            assert_eq!(buf[0], 7);
        }
    }

    #[test]
    fn crash_without_tracking_is_a_noop() {
        let d = ssd();
        d.write_page(5, &vec![5u8; 4096]).unwrap();
        d.simulate_crash();
        assert!(d.contains(5));
        d.sync().unwrap(); // also a no-op
    }

    #[test]
    fn sync_counts_fence_and_flushed_bytes() {
        let d = SsdDevice::with_tracking(4096, TimeScale::ZERO, PersistenceTracking::Full);
        d.write_page(1, &vec![1u8; 4096]).unwrap();
        d.write_page(2, &vec![2u8; 4096]).unwrap();
        d.sync().unwrap();
        let s = d.stats().snapshot();
        assert_eq!(s.fences, 1);
        assert_eq!(s.bytes_flushed, 8192);
        // Clean sync flushes nothing new but still fences.
        d.sync().unwrap();
        assert_eq!(d.stats().snapshot().bytes_flushed, 8192);
    }

    #[test]
    fn file_backend_round_trip_and_crash_model() {
        let d = file_ssd(PersistenceTracking::Full);
        assert!(d.is_file_backed());
        d.write_page(1, &vec![1u8; 4096]).unwrap();
        d.sync().unwrap();
        d.write_page(1, &vec![9u8; 4096]).unwrap();
        d.write_page(2, &vec![2u8; 4096]).unwrap();
        d.simulate_crash();
        let mut buf = vec![0u8; 4096];
        d.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "file page rolled back to synced image");
        assert!(!d.contains(2));
        let s = d.stats().snapshot();
        assert!(s.read_ops >= 1 && s.write_ops >= 3 && s.fences == 1);
    }

    #[test]
    fn file_backend_batched_writes() {
        let d = file_ssd(PersistenceTracking::Counters);
        let pages: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; 4096]).collect();
        let mut batch: Vec<(u64, &[u8])> = vec![
            (3, &pages[0]),
            (1, &pages[1]),
            (2, &pages[2]),
            (9, &pages[3]),
        ];
        let submissions = d.write_pages(&mut batch).unwrap();
        assert_eq!(submissions, 2, "1..=3 coalesce, 9 stands alone");
        d.sync().unwrap();
        let mut buf = vec![0u8; 4096];
        d.read_page(2, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
        assert_eq!(d.page_count(), 4);
    }

    /// Both backends, with pages 0..6 holding `pid + 1` and page 6 absent.
    fn backends_with_six_pages() -> [SsdDevice; 2] {
        let devices = [
            SsdDevice::with_tracking(4096, TimeScale::ZERO, PersistenceTracking::Full),
            file_ssd(PersistenceTracking::Full),
        ];
        for d in &devices {
            for pid in 0..6u64 {
                let mut page = vec![pid as u8 + 1; 4096];
                page[4095] = 0xA0 ^ pid as u8;
                d.write_page(pid, &page).unwrap();
            }
            d.sync().unwrap();
        }
        devices
    }

    #[test]
    fn read_pages_returns_what_a_read_page_loop_returns_in_one_op() {
        for d in backends_with_six_pages() {
            let mut one = vec![0u8; 4096];
            let mut looped = Vec::new();
            for pid in 1..5u64 {
                d.read_page(pid, &mut one).unwrap();
                looped.extend_from_slice(&one);
            }
            let before = d.stats().snapshot();
            let mut run = vec![0u8; 4 * 4096];
            assert_eq!(d.read_pages(1..5, &mut run).unwrap(), 4);
            assert_eq!(run, looped, "file-backed: {}", d.is_file_backed());
            let delta = d.stats().snapshot().delta(&before);
            assert_eq!((delta.read_ops, delta.bytes_read), (1, 4 * 4096));
            // An empty run reads and counts nothing.
            assert_eq!(d.read_pages(3..3, &mut []).unwrap(), 0);
            assert_eq!(d.stats().snapshot().delta(&before).read_ops, 1);
        }
    }

    #[test]
    fn read_pages_stops_at_the_first_missing_page() {
        for d in backends_with_six_pages() {
            let mut run = vec![0u8; 4 * 4096];
            assert_eq!(d.read_pages(4..8, &mut run).unwrap(), 2);
            assert_eq!((run[0], run[4096], run[8192]), (5, 6, 0));
            assert_eq!(d.read_pages(6..10, &mut run).unwrap(), 0);
            assert!(matches!(
                d.read_pages(0..2, &mut run),
                Err(DeviceError::BadPageSize { .. })
            ));
        }
    }

    #[test]
    fn read_pages_consults_the_fault_hook_once_per_page() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule, Trigger};
        let injector = |kind| {
            let rule = FaultRule::any(Trigger::NthOp(3), kind).on_op(FaultOp::Read);
            Some(Arc::new(FaultInjector::new(FaultPlan::new(1).rule(rule))))
        };
        for d in backends_with_six_pages() {
            // The third page's decision fails the request, as it fails the
            // third `read_page` of a loop.
            let mut run = vec![0u8; 5 * 4096];
            d.set_fault_injector(injector(FaultKind::Fatal));
            assert_eq!(
                d.read_pages(0..5, &mut run).unwrap_err(),
                DeviceError::InjectedFatal { op: "read" }
            );
            d.set_fault_injector(injector(FaultKind::Fatal));
            let mut one = vec![0u8; 4096];
            let looped: Vec<_> = (0..5).map(|pid| d.read_page(pid, &mut one)).collect();
            assert!(looped[..2].iter().all(Result::is_ok));
            assert_eq!(looped[2], Err(DeviceError::InjectedFatal { op: "read" }));
            // A transient one is retryable, and the retry reads the run.
            let inj = injector(FaultKind::Transient);
            d.set_fault_injector(inj.clone());
            let read = crate::retry_io(|| d.read_pages(0..5, &mut run)).unwrap();
            assert_eq!(read, 5);
            assert_eq!(inj.unwrap().stats().transient, 1);
            // The missing page that ends a run gets its decision too, and
            // nothing past it does.
            let counting = Arc::new(FaultInjector::new(FaultPlan::new(1).rule(
                FaultRule::any(Trigger::NthOp(u64::MAX), FaultKind::Fatal).on_op(FaultOp::Read),
            )));
            d.set_fault_injector(Some(Arc::clone(&counting)));
            let mut run = vec![0u8; 4 * 4096];
            assert_eq!(d.read_pages(4..8, &mut run).unwrap(), 2);
            assert_eq!(counting.stats().matched, 3);
            d.set_fault_injector(None);
        }
    }

    #[test]
    fn batched_writes_on_emulated_backend_match_per_page() {
        let d = SsdDevice::with_tracking(4096, TimeScale::ZERO, PersistenceTracking::Full);
        let a = vec![5u8; 4096];
        let b = vec![6u8; 4096];
        let mut batch: Vec<(u64, &[u8])> = vec![(7, &a), (8, &b)];
        assert_eq!(d.write_pages(&mut batch).unwrap(), 2);
        d.simulate_crash();
        assert!(!d.contains(7), "batched writes are volatile until sync");
    }
}
