//! The Spitfire buffer manager (paper §5).
//!
//! One [`BufferManager`] owns up to two buffer pools (DRAM and NVM) over an
//! SSD, a unified mapping table of shared page descriptors (Figure 4), the
//! CLOCK replacement state per pool, and the probabilistic data migration
//! policy (§3). See the crate docs for the full data-flow picture.
//!
//! # Concurrency protocol
//!
//! All copy-state transitions take the descriptor mutex, which is never
//! held across device I/O (except for fine-grained granule loads, whose
//! I/O is sub-microsecond NVM/DRAM traffic). Two invariants make this
//! deadlock-free:
//!
//! * a thread never holds two descriptor mutexes at once (evictions use
//!   `try_lock` and skip on failure);
//! * nothing waits for a pin to drain: an exclusive claim needs the copy's
//!   pin word to close at zero, a retiring shadow move skips a pinned
//!   source before its I/O and spins a bounded budget at commit, and a
//!   flush writes a pinned copy and leaves it dirty.
//!
//! A copy's guards are counted in its [`spitfire_sync::PinWord`] and
//! nowhere else: the slow path pins under the mutex
//! ([`spitfire_sync::PinWord::pin_locked`]), the fast path below without
//! it, and every guard drops the same way.
//!
//! Layered *above* the mutex protocol is the optimistic hit fast path
//! (paper §5.2, DESIGN.md "Lock-free hit path"): a fetch of a stably
//! resident page pins it through the descriptor's
//! [`spitfire_sync::PinWord`] with a single CAS and never touches the
//! mutex. The word proves residency to readers, the mutex serializes
//! writers, and a reader that loses a race simply restarts into the mutex
//! path.
//!
//! # Tier moves
//!
//! There is one protocol per tier move, chosen from state the code can
//! observe — never from an option: **shadow when the word is open and the
//! move does device I/O; exclusive claim otherwise.**
//!
//! * A *shadow* move (promotion NVM→DRAM, dirty DRAM eviction, dirty NVM
//!   write-back, flush of a full-frame DRAM copy) copies the bytes
//!   while the source stays `Resident` with its word open, and commits
//!   through [`spitfire_sync::PinWord::shadow_commit`] only if no write
//!   overlapped the copy window and every pin drained. Readers never stall
//!   behind the transfer; a raced copy is discarded and the source stays
//!   authoritative. The claim/finish pair and its transition rules live in
//!   the `shadow` submodule.
//! * An *exclusive* claim closes the word, proves the optimistic pin count
//!   zero, and marks the copy `Busy`/`Loading`. It remains the right tool
//!   where there is no I/O window to shadow or no reader to stall: clean
//!   discards and retirements, NVM copies whose word is already closed
//!   because a DRAM copy shadows them, and every fine-grained / mini-page
//!   move (granule I/O runs under the mutex anyway).
//!
//! See DESIGN.md "Shadow-copy migrations" for the transition table.
//!
//! # Layout
//!
//! The `impl BufferManager` is split by concern across sibling files (the
//! `fgops` precedent): `fetch` (hit fast path, mutex slow path, loads),
//! `evict` (frame allocation, DRAM/NVM eviction, batched write-back),
//! `flush` (the checkpoint's home flush, and the single-page flush whose
//! callers are the `migration` bench and core tests), `shadow` (the
//! shadow claim/finish pair),
//! `maintain` (watermark refill cycles, pressure probe), `recover` (crash
//! simulation and NVM-scan recovery), `report` (gauges, obs export,
//! quiescence assertions).

mod evict;
mod fetch;
mod flush;
mod maintain;
mod recover;
mod report;
mod shadow;
#[cfg(test)]
mod test_support;

pub use flush::HomeFlush;
pub use maintain::MemoryPressure;

use std::sync::Arc;

use spitfire_device::{DeviceError, DeviceStats, FaultInjector, NvmDevice, SsdDevice};
use spitfire_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use spitfire_sync::lock::RwLock;
use spitfire_sync::{AdmissionQueue, ConcurrentMap};

use crate::background::MaintSignal;
use crate::config::{BufferManagerConfig, Hierarchy};
use crate::descriptor::{CopyState, Dirt, SharedPageDesc};
use crate::error::BufferError;
use crate::fgpage::MiniSlabs;
use crate::io::retry_device_io;
use crate::metrics::{BufferMetrics, MetricsSnapshot};
use crate::policy::{page_coin, Coin, MigrationPolicy, PolicyCell};
use crate::pool::Pool;
use crate::types::{PageId, Tier};
use crate::Result;

/// Global id source distinguishing managers in per-thread caches.
static NEXT_MGR_ID: AtomicU64 = AtomicU64::new(1);

/// Multi-threaded three-tier buffer manager.
pub struct BufferManager {
    config: BufferManagerConfig,
    pub(crate) mapping: ConcurrentMap<u64, Arc<SharedPageDesc>>,
    /// Tier-1 pool: DRAM, or the memory-mode composite device.
    tier1: Option<Pool>,
    /// Tier-2 pool: app-direct NVM.
    nvm: Option<Pool>,
    ssd: SsdDevice,
    policy: PolicyCell,
    admission: Option<AdmissionQueue>,
    pub(crate) metrics: Arc<BufferMetrics>,
    next_pid: AtomicU64,
    /// This manager's id in the per-thread descriptor caches.
    mgr_id: u64,
    /// Bumped when the mapping table is discarded (`simulate_crash`) so
    /// per-thread descriptor caches drop entries for dead descriptors.
    cache_epoch: AtomicU64,
    pub(crate) mini: Option<MiniSlabs>,
    /// Wake-up signal shared with an attached [`crate::Maintenance`] service;
    /// `None` until one is created.
    maint: RwLock<Option<Arc<MaintSignal>>>,
    /// True while maintenance workers are running — the allocation path
    /// checks this flag (relaxed) before paying for watermark math.
    maint_active: AtomicBool,
}

impl BufferManager {
    /// Build a buffer manager from `config`.
    pub fn new(config: BufferManagerConfig) -> Result<Self> {
        config.validate()?;
        let scale = config.time_scale;
        let page = config.page_size;
        let metrics = Arc::new(BufferMetrics::new());
        let (tier1, nvm) = if config.memory_mode {
            (
                Some(Pool::memory_mode(
                    config.nvm_capacity,
                    config.dram_capacity,
                    page,
                    scale,
                    Arc::clone(&metrics),
                )),
                None,
            )
        } else {
            let t1 = (config.dram_capacity > 0)
                .then(|| Pool::dram(config.dram_capacity, page, scale, Arc::clone(&metrics)));
            let t2 = (config.nvm_capacity > 0).then(|| {
                Pool::nvm(
                    config.nvm_capacity,
                    page,
                    scale,
                    config.persistence,
                    Arc::clone(&metrics),
                )
            });
            (t1, t2)
        };
        // HyMem's admission queue holds half the NVM buffer's pages (§6.5).
        let admission = nvm
            .as_ref()
            .map(|pool| AdmissionQueue::new((pool.n_frames() / 2).max(1)));
        let mini = config
            .mini_pages
            .then(|| MiniSlabs::new(page, config.fine_grained.expect("validated")));
        let ssd = SsdDevice::with_backend(page, scale, config.persistence, &config.ssd_backend)
            .map_err(BufferError::Device)?;
        Ok(BufferManager {
            mapping: ConcurrentMap::new(),
            tier1,
            nvm,
            ssd,
            policy: PolicyCell::new(config.policy),
            admission,
            metrics,
            next_pid: AtomicU64::new(0),
            // relaxed: id allocation only needs uniqueness, which the RMW
            // gives regardless of ordering.
            mgr_id: NEXT_MGR_ID.fetch_add(1, Ordering::Relaxed),
            cache_epoch: AtomicU64::new(0),
            mini,
            maint: RwLock::new(None),
            maint_active: AtomicBool::new(false),
            config,
        })
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &BufferManagerConfig {
        &self.config
    }

    /// The storage hierarchy in effect.
    pub fn hierarchy(&self) -> Hierarchy {
        self.config.hierarchy()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.config.page_size
    }

    /// Number of pages allocated so far.
    pub fn page_count(&self) -> u64 {
        self.next_pid.load(Ordering::Acquire)
    }

    /// The active migration policy.
    pub fn policy(&self) -> MigrationPolicy {
        self.policy.load()
    }

    /// Administrative handle grouping every runtime mutator — see
    /// [`Admin`].
    pub fn admin(&self) -> Admin<'_> {
        Admin { bm: self }
    }

    /// Buffer metrics counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Reset buffer metrics and device counters (between experiment
    /// phases).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
        if let Some(p) = &self.tier1 {
            p.device_stats().reset();
        }
        if let Some(p) = &self.nvm {
            p.device_stats().reset();
        }
        self.ssd.stats().reset();
    }

    /// Device counters for `tier`, if the tier exists in this hierarchy.
    pub fn device_stats(&self, tier: Tier) -> Option<Arc<DeviceStats>> {
        match tier {
            Tier::Dram => self.tier1.as_ref().map(Pool::device_stats),
            Tier::Nvm => self.nvm.as_ref().map(Pool::device_stats),
            Tier::Ssd => Some(self.ssd.stats()),
        }
    }

    /// Number of page frames in the DRAM (tier-1) pool.
    pub fn dram_frames(&self) -> usize {
        self.tier1.as_ref().map_or(0, Pool::n_frames)
    }

    /// Number of page frames in the NVM pool.
    pub fn nvm_frames(&self) -> usize {
        self.nvm.as_ref().map_or(0, Pool::n_frames)
    }

    /// Direct handle to the NVM device (recovery tests, WAL sharing).
    pub fn nvm_device(&self) -> Option<&NvmDevice> {
        self.nvm.as_ref().and_then(Pool::nvm_device)
    }

    /// Memory-mode cache hit/miss counters, when running in memory mode.
    pub fn memory_mode_cache(&self) -> Option<(u64, u64)> {
        self.tier1
            .as_ref()
            .and_then(Pool::memory_mode_device)
            .map(|d| (d.cache_hits(), d.cache_misses()))
    }

    pub(crate) fn tier1_pool(&self) -> &Pool {
        self.tier1
            .as_ref()
            .expect("tier-1 pool exists for this guard")
    }

    pub(crate) fn nvm_pool(&self) -> &Pool {
        self.nvm.as_ref().expect("NVM pool exists for this guard")
    }

    /// Flip `coin` for `desc`'s page. A probability strictly between 0 and
    /// 1 draws the page's next coin: it takes the page's draw count and
    /// reads [`page_coin`] at it, so the outcome depends on the seed, the
    /// page and how many coins the page has drawn, and on nothing any
    /// thread did elsewhere. A degenerate probability draws nothing and
    /// leaves the count alone.
    fn flip_coin(&self, desc: &SharedPageDesc, coin: Coin) -> bool {
        self.policy.flip(coin, || {
            // relaxed: the count only numbers this page's draws; racing
            // draws take distinct counts in either order, and the count
            // orders no other memory.
            let n = desc.draws.fetch_add(1, Ordering::Relaxed);
            page_coin(self.config.seed, desc.pid.0, coin, n)
        })
    }

    /// Allocate a fresh zeroed page. The page initially resides on SSD
    /// (paper §1: "initially, a newly-allocated page resides on SSD").
    pub fn allocate_page(&self) -> Result<PageId> {
        let pid = PageId(self.next_pid.fetch_add(1, Ordering::AcqRel));
        let zeros = vec![0u8; self.config.page_size];
        retry_device_io(&self.metrics, "page allocation", || {
            self.ssd.write_page(pid.0, &zeros)
        })?;
        Ok(pid)
    }

    /// Force an fsync barrier on the SSD: everything written so far
    /// survives [`BufferManager::simulate_crash`].
    pub fn sync_ssd(&self) -> Result<()> {
        retry_device_io(&self.metrics, "ssd sync", || self.ssd.sync())
    }

    /// Read `pid`'s SSD image into `buf`, retrying transient faults. A page
    /// whose backing vanished in a crash (allocated but never synced) reads
    /// as zeros — the durable content of a freshly allocated page.
    fn read_ssd_page(&self, pid: PageId, buf: &mut [u8]) -> Result<()> {
        match retry_device_io(&self.metrics, "ssd read", || self.ssd.read_page(pid.0, buf)) {
            Ok(()) => Ok(()),
            Err(BufferError::Device(DeviceError::PageNotFound(_))) => {
                buf.fill(0);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn descriptor(&self, pid: PageId) -> Result<Arc<SharedPageDesc>> {
        // relaxed: suffices for this bounds check — a caller can only hold
        // a valid pid through some channel that happens-after the
        // `fetch_add` in `allocate_page` (a return value, a message, a
        // page read), and that edge makes the incremented counter visible
        // to a relaxed load too. Acquire bought nothing — there is no
        // release store this load needs to pair with for correctness —
        // and the optimistic fast path skips the check entirely:
        // presence in the mapping table proves the pid was validated.
        if pid.0 >= self.next_pid.load(Ordering::Relaxed) {
            return Err(BufferError::UnknownPage(pid));
        }
        Ok(self
            .mapping
            .get_or_insert_with(pid.0, || Arc::new(SharedPageDesc::new(pid))))
    }

    /// Run `f` on the descriptor of a page the caller holds pinned: from
    /// the per-thread cache the guard's fetch filled, as for the guard's
    /// drop, with the mapping table as the fallback for a stolen slot.
    /// `None` when the descriptor died in a crash. `f` must not fetch.
    pub(crate) fn with_desc<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&SharedPageDesc) -> R,
    ) -> Option<R> {
        match self.with_cached_desc(pid, f) {
            Ok(r) => Some(r),
            Err(f) => self.mapping.get(&pid.0).map(|desc| f(&desc)),
        }
    }

    /// Raise the pinned copy's dirt to `dirt` (guard write).
    pub(crate) fn mark_dirty(&self, pid: PageId, in_dram_slot: bool, dirt: Dirt) {
        self.with_desc(pid, |desc| {
            let mut st = desc.state.lock();
            if let Some(CopyState::Resident { dirt: d, .. } | CopyState::Busy { dirt: d, .. }) =
                st.slot_mut(in_dram_slot)
            {
                *d = (*d).max(dirt);
            }
            // Stamp the write end onto the pin word: a shadow copy taken
            // during this write's window observes the bump and discards its
            // (possibly torn) copy. Bumping while the guard's pin is still
            // held is what makes the shadow commit's drain + version
            // re-check airtight — see `PinWord::shadow_commit`.
            desc.pin_word(in_dram_slot).bump_version();
        });
    }
}

/// Administrative handle over a [`BufferManager`]: every runtime mutator
/// that used to live as a free-standing `set_*` method on the manager is
/// grouped here, so the manager's own surface is read-mostly and the
/// mutating entry points are greppable as `admin()` calls.
///
/// Obtained from [`BufferManager::admin`]; borrows the manager, so it is
/// cheap to create on demand and cannot outlive it.
pub struct Admin<'a> {
    bm: &'a BufferManager,
}

impl Admin<'_> {
    /// Swap the active migration policy (used by the adaptive tuner, §4).
    pub fn set_policy(&self, policy: MigrationPolicy) {
        self.bm.policy.store(policy);
    }

    /// Change the emulated-delay scale on every device at runtime. Load
    /// phases run at [`spitfire_device::TimeScale::ZERO`] (no delays),
    /// measurement at `REAL`; counters are unaffected.
    pub fn set_time_scale(&self, scale: spitfire_device::TimeScale) {
        if let Some(p) = &self.bm.tier1 {
            p.set_time_scale(scale);
        }
        if let Some(p) = &self.bm.nvm {
            p.set_time_scale(scale);
        }
        self.bm.ssd.set_time_scale(scale);
    }

    /// Install (or clear) a fault injector on every device in the
    /// hierarchy. Chaos harness entry point; `None` restores fault-free
    /// operation.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        if let Some(p) = &self.bm.tier1 {
            p.set_fault_injector(injector.clone());
        }
        if let Some(p) = &self.bm.nvm {
            p.set_fault_injector(injector.clone());
        }
        self.bm.ssd.set_fault_injector(injector);
    }

    /// Restore the page-id allocator after recovery (ids present only on
    /// SSD are the caller's to account for, e.g. from the `next_page_id` a
    /// checkpoint's manifest records).
    pub fn set_next_page_id(&self, next: u64) {
        self.bm.next_pid.fetch_max(next, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for BufferManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferManager")
            .field("hierarchy", &self.hierarchy())
            .field("dram_frames", &self.dram_frames())
            .field("nvm_frames", &self.nvm_frames())
            .field("pages", &self.page_count())
            .finish_non_exhaustive()
    }
}

/// Run `f` with a thread-local scratch buffer of `len` bytes. Re-entrant:
/// nested calls each get their own buffer from a per-thread pool.
pub(crate) fn with_page_buf<T>(len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
    thread_local! {
        static POOL: std::cell::RefCell<Vec<Vec<u8>>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    if buf.len() < len {
        buf.resize(len, 0);
    }
    let out = f(&mut buf[..len]);
    POOL.with(|p| p.borrow_mut().push(buf));
    out
}
