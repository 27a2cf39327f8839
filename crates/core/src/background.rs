//! Background maintenance service: watermark-driven pre-eviction and
//! batched write-back, off the fetch miss path.
//!
//! A fetch miss needs a free frame. Without this service the miss pays
//! for victim selection, dirty write-back, and NVM→SSD migration inline —
//! the foreground stalls Spitfire's migration machinery creates under
//! write-heavy workloads. The [`Maintenance`] service keeps each pool's
//! free list above a configurable low watermark by evicting CLOCK victims
//! ahead of demand and writing dirty NVM pages back in batches (one fsync
//! per batch instead of one per page), so the common miss is a single
//! bitmap pop. When workers fall behind, `fetch` transparently falls back
//! to the old inline eviction loop and bumps the `backpressure_fallbacks`
//! counter.
//!
//! Two driving modes share the same cycle implementation
//! (`BufferManager::maintenance_cycle`):
//!
//! * **threaded** — [`Maintenance::start`] spawns the configured number of
//!   worker threads, woken by the allocation path whenever a free list
//!   dips below its low watermark (and periodically as a fallback);
//! * **manual** — [`Maintenance::tick`] runs one cycle inline on the
//!   caller's thread. The chaos explorer uses this mode: no free-running
//!   threads means fault draws and crash schedules stay deterministic.
//!
//! Around a (simulated) crash, [`Maintenance::stop`] joins every worker,
//! so no maintenance I/O can race the crash; [`Maintenance::start`]
//! spawns them again after recovery. Cycles additionally snapshot the
//! manager's crash epoch and abort when it changes under them.

use spitfire_sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::config::MAINTENANCE_WORKERS;
use crate::manager::BufferManager;

/// What one maintenance cycle accomplished (returned by
/// [`Maintenance::tick`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CycleStats {
    /// DRAM frames freed by pre-eviction.
    pub freed_dram: usize,
    /// NVM frames freed by pre-eviction.
    pub freed_nvm: usize,
    /// Dirty NVM pages written back to SSD (subset of `freed_nvm`).
    pub nvm_writebacks: usize,
}

/// Wake-up channel between the manager's allocation path and the worker
/// threads.
pub(crate) struct MaintSignal {
    state: Mutex<SignalState>,
    /// Workers wait here between cycles (with the configured interval as
    /// a timeout, so refill happens even without kicks).
    work_cv: Condvar,
    /// Pending-kick hint so the allocation path takes the mutex at most
    /// once per outstanding kick.
    kicked_hint: AtomicBool,
}

#[derive(Default)]
struct SignalState {
    kicked: bool,
    stop: bool,
}

impl MaintSignal {
    fn new() -> Self {
        MaintSignal {
            state: Mutex::new(SignalState::default()),
            work_cv: Condvar::new(),
            kicked_hint: AtomicBool::new(false),
        }
    }

    /// Wake the workers for an immediate cycle (free list dipped below the
    /// low watermark).
    pub(crate) fn kick(&self) {
        // relaxed: the hint only dedups kicks; a suppressed kick is
        // recovered by the workers' periodic timed wait, and the real
        // signal travels through the mutex-protected state below.
        if self.kicked_hint.swap(true, Ordering::Relaxed) {
            return; // a kick is already pending
        }
        let mut st = self.state.lock();
        st.kicked = true;
        self.work_cv.notify_all();
    }
}

/// Lifecycle handle for the background maintenance service of one
/// [`BufferManager`], created by [`BufferManager::maintenance`].
///
/// The handle starts inert. [`start`](Self::start) spawns the worker
/// threads configured in [`MaintenanceConfig`](crate::MaintenanceConfig);
/// [`tick`](Self::tick) instead drives one cycle deterministically on the
/// caller's thread. Dropping the handle stops the workers and detaches the
/// service from the manager.
pub struct Maintenance {
    bm: Arc<BufferManager>,
    sig: Arc<MaintSignal>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Maintenance {
    pub(crate) fn new(bm: Arc<BufferManager>) -> Self {
        let sig = Arc::new(MaintSignal::new());
        bm.attach_maint_signal(Arc::clone(&sig));
        Maintenance {
            bm,
            sig,
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Spawn the configured worker threads (idempotent while running).
    /// From this point fetch misses prefer the pre-evicted free list and
    /// count inline evictions as backpressure fallbacks.
    pub fn start(&self) {
        let mut workers = self.workers.lock();
        if !workers.is_empty() {
            return;
        }
        {
            let mut st = self.sig.state.lock();
            st.stop = false;
            st.kicked = true; // fill to the high watermark right away
        }
        let interval = Duration::from_micros(self.bm.config().maintenance.interval_us.max(1));
        for _ in 0..MAINTENANCE_WORKERS {
            let bm = Arc::clone(&self.bm);
            let sig = Arc::clone(&self.sig);
            workers.push(std::thread::spawn(move || worker_loop(&bm, &sig, interval)));
        }
        self.bm.set_maint_active(true);
    }

    /// Whether worker threads are currently running.
    pub fn is_running(&self) -> bool {
        !self.workers.lock().is_empty()
    }

    /// Stop and join the worker threads (idempotent; also runs on drop).
    /// Fetches revert to fully inline eviction.
    pub fn stop(&self) {
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        if handles.is_empty() {
            return;
        }
        self.bm.set_maint_active(false);
        {
            let mut st = self.sig.state.lock();
            st.stop = true;
            self.sig.work_cv.notify_all();
        }
        for h in handles {
            let _ = h.join();
        }
        self.sig.state.lock().stop = false;
    }

    /// Run one maintenance cycle inline on the caller's thread and return
    /// what it did. This is the deterministic mode: single-threaded
    /// drivers (the chaos explorer) interleave ticks with foreground work
    /// at fixed points, keeping policy/fault draw sequences reproducible.
    pub fn tick(&self) -> CycleStats {
        self.bm.maintenance_cycle()
    }
}

impl Drop for Maintenance {
    fn drop(&mut self) {
        self.stop();
        self.bm.detach_maint_signal();
    }
}

impl std::fmt::Debug for Maintenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Maintenance")
            .field("running", &self.is_running())
            .field("config", &self.bm.config().maintenance)
            .finish_non_exhaustive()
    }
}

/// Worker thread body: wait for a kick (or the periodic interval), run one
/// cycle, repeat.
fn worker_loop(bm: &Arc<BufferManager>, sig: &Arc<MaintSignal>, interval: Duration) {
    loop {
        {
            let mut st = sig.state.lock();
            loop {
                if st.stop {
                    return;
                }
                if st.kicked {
                    st.kicked = false;
                    // relaxed: hint reset; the authoritative flag lives
                    // under the mutex (see `kick`).
                    sig.kicked_hint.store(false, Ordering::Relaxed);
                    break;
                }
                // Periodic refill: a timed-out wait runs a cycle even
                // without a kick (covers kicks suppressed by the hint
                // racing a concurrent cycle).
                if sig.work_cv.wait_for(&mut st, interval).timed_out() && !st.stop {
                    st.kicked = false;
                    // relaxed: hint reset, as above.
                    sig.kicked_hint.store(false, Ordering::Relaxed);
                    break;
                }
            }
        }
        bm.maintenance_cycle();
    }
}
