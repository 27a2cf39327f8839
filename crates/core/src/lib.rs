//! # Spitfire — a three-tier buffer manager for volatile and non-volatile memory
//!
//! This crate is the core of a from-scratch Rust reproduction of
//! *Spitfire: A Three-Tier Buffer Manager for Volatile and Non-Volatile
//! Memory* (Zhou, Arulraj, Pavlo, Cohen — SIGMOD 2021): a multi-threaded
//! buffer manager for a DRAM–NVM–SSD storage hierarchy.
//!
//! ## The idea
//!
//! Classic buffer managers assume data must be copied to DRAM before the
//! CPU can touch it. NVM (Intel Optane DC PMMs) breaks that assumption: the
//! CPU can operate on NVM-resident pages directly, at latencies close to
//! DRAM. Spitfire therefore makes all four data-placement decisions
//! *probabilistic* (paper §3):
//!
//! | knob  | decision                                                |
//! |-------|---------------------------------------------------------|
//! | `D_r` | promote NVM page to DRAM on read                        |
//! | `D_w` | route a write through DRAM instead of writing NVM       |
//! | `N_r` | admit an SSD page to NVM (vs. straight to DRAM) on read |
//! | `N_w` | admit a DRAM-evicted dirty page to NVM (vs. SSD)        |
//!
//! Lazy settings (e.g. the Spitfire-Lazy preset ⟨0.01, 0.01, 0.2, 1⟩) keep
//! only genuinely hot pages in DRAM, reduce DRAM↔NVM traffic, and lower the
//! duplication between the two buffers (the *inclusivity ratio*, §3.3). An
//! [`adaptive::AnnealingTuner`] adjusts the policy online (§4).
//!
//! ## Quick start
//!
//! Typed fetches ([`BufferManager::fetch_read`] /
//! [`BufferManager::fetch_write`]) make intent part of the guard's type:
//! only a [`WriteGuard`] has `write` methods, so writing through a
//! read-intent fetch is a compile error. Runtime mutators live on the
//! [`manager::Admin`] handle (`bm.admin()`), and the background
//! [`Maintenance`] service keeps eviction I/O off the fetch miss path:
//!
//! ```
//! use std::sync::Arc;
//! use spitfire_core::{BufferManager, BufferManagerConfig, MigrationPolicy};
//! use spitfire_device::TimeScale;
//!
//! let config = BufferManagerConfig::builder()
//!     .page_size(4096)
//!     .dram_capacity(16 * 4096)
//!     .nvm_capacity(64 * 4096)
//!     .policy(MigrationPolicy::lazy())
//!     .time_scale(TimeScale::ZERO) // no emulated delays in doc tests
//!     .build()
//!     .unwrap();
//! let bm = Arc::new(BufferManager::new(config).unwrap());
//!
//! // Background maintenance: pre-evicts CLOCK victims (fixed free-frame
//! // watermarks per tier) and batches dirty write-backs so a fetch miss
//! // is a free-list pop, not inline I/O.
//! let maintenance = bm.maintenance();
//! maintenance.start();
//!
//! // Runtime mutators are grouped behind one admin() handle.
//! bm.admin().set_policy(MigrationPolicy::eager());
//!
//! let pid = bm.allocate_page().unwrap();
//! {
//!     let guard = bm.fetch_write(pid).unwrap();
//!     guard.write(0, b"hello, tiered storage").unwrap();
//! }
//! let guard = bm.fetch_read(pid).unwrap();
//! let mut buf = [0u8; 21];
//! guard.read(0, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello, tiered storage");
//! drop(guard);
//!
//! maintenance.stop(); // or just drop the handle
//! ```
//!
//! Around a simulated crash, stop the workers first
//! ([`Maintenance::stop`]), recover, then [`Maintenance::start`] them
//! again. Single-threaded harnesses that need reproducible schedules skip
//! `start()` and drive cycles with [`Maintenance::tick`].
//!
//! ## Module map
//!
//! * [`manager`] / [`BufferManager`] — fetch, migration, eviction (§5).
//!   Every page's descriptor also carries one optimistic content latch,
//!   reached through a pin ([`PageGuard::latch`]); the manager never takes
//!   it — the B+tree in `spitfire-index` couples them down a descent.
//! * [`background`] / [`Maintenance`] — watermark pre-eviction and batched
//!   write-back off the miss path.
//! * [`policy`] — the ⟨D_r, D_w, N_r, N_w⟩ taxonomy (§3) and presets
//!   (Table 3).
//! * [`adaptive`] — simulated-annealing policy tuning (§4).
//! * `fgpage` / `fgops` — cache-line-grained loading and mini pages
//!   (§2.1, Figures 2/11/12).
//! * [`metrics`] — tier hits, migration paths, inclusivity ratio (Table 2).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod background;
mod config;
mod descriptor;
mod error;
mod fgops;
mod fgpage;
mod guard;
mod io;
pub mod manager;
pub mod metrics;
pub mod policy;
mod pool;
#[cfg(test)]
mod replacement;
mod types;

pub use background::{CycleStats, Maintenance};
pub use config::{
    BufferManagerConfig, BufferManagerConfigBuilder, ConfigError, Hierarchy, MaintenanceConfig,
    PolicyConfig, MAINTENANCE_BATCH,
};
pub use error::BufferError;
pub use guard::{PageGuard, ReadGuard, WriteGuard};
pub use manager::{Admin, BufferManager, HomeFlush, MemoryPressure};
pub use metrics::{MetricsSnapshot, ShadowPath};
pub use policy::{Coin, MigrationPolicy, NvmAdmission, PolicyCell};
pub use types::{AccessIntent, FrameId, MigrationPath, PageId, Tier};

/// Result alias for buffer manager operations.
pub type Result<T> = std::result::Result<T, BufferError>;
