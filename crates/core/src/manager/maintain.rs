//! The buffer manager's side of the background maintenance service
//! ([`crate::background`]): watermark refill cycles, the wake-up signal,
//! and the memory-pressure probe that front ends poll.

use std::sync::Arc;

use spitfire_sync::atomic::Ordering;

use super::evict::ClaimedNvm;
use super::BufferManager;
use crate::background::{CycleStats, MaintSignal, Maintenance};
use crate::config::{
    DRAM_HIGH_WATERMARK, DRAM_LOW_WATERMARK, MAINTENANCE_BATCH, NVM_HIGH_WATERMARK,
    NVM_LOW_WATERMARK,
};
use crate::descriptor::Dirt;
use crate::pool::Pool;
use crate::types::FrameId;

impl BufferManager {
    /// Create a [`Maintenance`] service handle for this manager (requires
    /// an `Arc` so worker threads can hold the manager alive). The handle
    /// starts inert: call [`Maintenance::start`] for worker threads, or
    /// drive deterministic cycles with [`Maintenance::tick`].
    pub fn maintenance(self: &Arc<Self>) -> Maintenance {
        Maintenance::new(Arc::clone(self))
    }

    /// Free frames currently available in the (DRAM, NVM) pools.
    pub fn free_frames(&self) -> (usize, usize) {
        (
            self.tier1.as_ref().map_or(0, Pool::free_frames),
            self.nvm.as_ref().map_or(0, Pool::free_frames),
        )
    }

    /// Cheap point-in-time memory-pressure reading for admission control.
    ///
    /// Reads only the pools' O(1) free-frame counters and one metrics
    /// counter — a handful of relaxed atomic loads, safe to call on every
    /// admission decision. A front end should shed or delay *new* work
    /// while [`MemoryPressure::below_low_watermark`] holds or
    /// `backpressure_fallbacks` keeps climbing between readings: both mean
    /// maintenance is not keeping up and fetches are about to run eviction
    /// I/O inline.
    pub fn pressure(&self) -> MemoryPressure {
        let (dram_free, dram_low) = match &self.tier1 {
            Some(p) => (
                p.free_frames(),
                watermark_frames(p.n_frames(), DRAM_LOW_WATERMARK),
            ),
            None => (0, 0),
        };
        let (nvm_free, nvm_low) = match &self.nvm {
            Some(p) => (
                p.free_frames(),
                watermark_frames(p.n_frames(), NVM_LOW_WATERMARK),
            ),
            None => (0, 0),
        };
        MemoryPressure {
            dram_free,
            dram_low,
            nvm_free,
            nvm_low,
            backpressure_fallbacks: self.metrics.backpressure_fallbacks(),
        }
    }

    /// Attach the wake-up signal of a maintenance service (one at a time;
    /// a newly attached signal replaces the previous one).
    pub(crate) fn attach_maint_signal(&self, sig: Arc<MaintSignal>) {
        *self.maint.write() = Some(sig);
    }

    /// Detach the maintenance signal and stop treating the service as
    /// active.
    pub(crate) fn detach_maint_signal(&self) {
        // relaxed: see `alloc_frame` — allocators observing the flag late
        // merely pick the other (still correct) allocation path.
        self.maint_active.store(false, Ordering::Relaxed);
        *self.maint.write() = None;
    }

    /// Flip the fast "workers are running" flag checked by `alloc_frame`.
    pub(crate) fn set_maint_active(&self, active: bool) {
        // relaxed: see `alloc_frame`.
        self.maint_active.store(active, Ordering::Relaxed);
    }

    /// Wake the maintenance workers (no-op without an attached service).
    pub(super) fn kick_maintenance(&self) {
        if let Some(sig) = self.maint.read().as_ref() {
            sig.kick();
        }
    }

    /// One maintenance cycle: refill each pool's free list up to its high
    /// watermark by evicting replacement-policy victims, batching dirty-NVM
    /// write-backs behind a single fsync. Called from maintenance worker threads and
    /// from deterministic [`Maintenance::tick`]s; safe (but pointless) to
    /// call concurrently with itself. The cycle snapshots the crash epoch
    /// and aborts when `simulate_crash` invalidates it mid-cycle.
    pub(crate) fn maintenance_cycle(&self) -> CycleStats {
        let epoch0 = self.cache_epoch.load(Ordering::Acquire);
        let mut stats = CycleStats::default();
        self.metrics.record_maint_cycle();
        if let Some(pool) = &self.tier1 {
            let target = watermark_frames(pool.n_frames(), DRAM_HIGH_WATERMARK);
            stats.freed_dram = self.refill_dram(pool, target, epoch0);
        }
        if let Some(pool) = &self.nvm {
            let target = watermark_frames(pool.n_frames(), NVM_HIGH_WATERMARK);
            let (freed, wrote) = self.refill_nvm(pool, target, MAINTENANCE_BATCH, epoch0);
            stats.freed_nvm = freed;
            stats.nvm_writebacks = wrote;
        }
        self.metrics
            .record_maint_evictions((stats.freed_dram + stats.freed_nvm) as u64);
        stats
    }

    /// Refill the DRAM free list to `target` frames by evicting
    /// replacement-policy victims. DRAM evictions need no write-back
    /// batching (their SSD writes are not individually synced — durability
    /// comes from WAL/checkpoint syncs), but victims are still *selected*
    /// in batches so queue-based policies lock once per batch.
    fn refill_dram(&self, pool: &Pool, target: usize, epoch0: u64) -> usize {
        let mut freed = 0;
        let budget = pool.n_frames() * 2 + 16;
        let mut attempts = 0;
        let mut victims: Vec<FrameId> = Vec::new();
        while attempts < budget {
            let free = pool.free_frames();
            if free >= target || self.cache_epoch.load(Ordering::Acquire) != epoch0 {
                break;
            }
            let want = (target - free).min(budget - attempts).max(1);
            victims.clear();
            pool.next_victims(want, &mut victims);
            if victims.is_empty() {
                break;
            }
            for victim in victims.drain(..) {
                attempts += 1;
                freed += usize::from(self.try_evict_victim(true, victim));
            }
        }
        freed
    }

    /// Refill the NVM free list to `target` frames. Victims that owe the
    /// SSD nothing (clean, or hint dirt only) are dropped immediately; ones
    /// with data dirt accumulate into batches of `batch` pages evicted with
    /// one fsync each (the maintenance service's amortization of the device
    /// cost model's per-sync latency).
    fn refill_nvm(&self, pool: &Pool, target: usize, batch: usize, epoch0: u64) -> (usize, usize) {
        let mut freed = 0;
        let mut wrote = 0;
        let budget = pool.n_frames() * 2 + 16;
        let mut attempts = 0;
        loop {
            if pool.free_frames() >= target
                || attempts >= budget
                || self.cache_epoch.load(Ordering::Acquire) != epoch0
            {
                break;
            }
            let freed_before = freed;
            let mut dirty_batch: Vec<ClaimedNvm> = Vec::new();
            // One policy call per batch: queue-based policies take their
            // internal lock once here instead of once per candidate.
            let want = batch
                .min(budget - attempts)
                .min(target.saturating_sub(pool.free_frames()))
                .max(1);
            let mut cands: Vec<FrameId> = Vec::new();
            pool.next_victims(want, &mut cands);
            if cands.is_empty() {
                break;
            }
            for victim in cands {
                attempts += 1;
                let Some(vpid) = pool.owner(victim) else {
                    continue;
                };
                let Some(desc) = self.mapping.get(&vpid.0) else {
                    continue;
                };
                match self.claim_nvm_victim(&desc, victim) {
                    Some((Dirt::Data, claim)) => dirty_batch.push((desc, victim, claim)),
                    // What must survive is on SSD already: drop it now.
                    Some((dirt, _)) => {
                        self.discard_nvm_copy(&desc, victim, dirt);
                        freed += 1;
                    }
                    None => {}
                }
            }
            if dirty_batch.is_empty() {
                if freed == freed_before {
                    break; // no evictable victims left
                }
                continue;
            }
            let (n, _) = self.write_back_nvm_batch(dirty_batch);
            wrote += n;
            freed += n;
            if n == 0 && freed == freed_before {
                break; // write-backs failing (injected faults): give up
            }
        }
        (freed, wrote)
    }
}

/// Translate a fractional watermark into a frame count: `ceil(n * frac)`,
/// so any non-zero watermark on a non-empty pool demands at least one
/// free frame.
pub(super) fn watermark_frames(n_frames: usize, frac: f64) -> usize {
    (n_frames as f64 * frac).ceil() as usize
}

/// Point-in-time memory-pressure reading from [`BufferManager::pressure`].
///
/// Free-frame counts are compared against the maintenance *low* watermarks
/// (the level at which workers are woken to refill): below them, a fetch
/// miss is likely to run eviction inline. `backpressure_fallbacks` is the
/// cumulative count of exactly those inline evictions — a caller polling
/// pressure should treat a rising delta as overload even when the free
/// counts look momentarily healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryPressure {
    /// Free frames in the DRAM pool (0 without a DRAM tier).
    pub dram_free: usize,
    /// DRAM low watermark in frames (0 without a DRAM tier).
    pub dram_low: usize,
    /// Free frames in the NVM pool (0 without an NVM tier).
    pub nvm_free: usize,
    /// NVM low watermark in frames (0 without an NVM tier).
    pub nvm_low: usize,
    /// Cumulative fetches that ran eviction inline because the free list
    /// was empty (see `MetricsSnapshot::backpressure_fallbacks`).
    pub backpressure_fallbacks: u64,
}

impl MemoryPressure {
    /// Whether any tier's free frames sit below its low watermark.
    pub fn below_low_watermark(&self) -> bool {
        self.dram_free < self.dram_low || self.nvm_free < self.nvm_low
    }
}
