//! Emulated storage devices for the Spitfire three-tier buffer manager.
//!
//! The Spitfire paper (SIGMOD 2021) is evaluated on Intel Optane DC Persistent
//! Memory Modules and an Optane SSD. This crate replaces that hardware with an
//! in-process emulation that preserves the properties the paper's results
//! depend on:
//!
//! * **Relative performance** — each device carries a [`DeviceProfile`]
//!   (latency, bandwidth, access granularity, price) seeded from Table 1 of
//!   the paper, and a [`CostModel`] that charges real wall-clock time for each
//!   access using a bandwidth-reservation scheme, so saturation under
//!   multi-threading emerges naturally.
//! * **Byte-addressability of NVM** — [`NvmDevice`] exposes load/store-style
//!   range reads and writes at arbitrary offsets, while [`SsdDevice`] only
//!   supports whole-page transfers.
//! * **Persistence semantics** — [`NvmDevice`] models the `clwb`/`sfence`
//!   protocol: written bytes sit in a volatile "CPU cache" shadow until they
//!   are explicitly flushed, and [`NvmDevice::simulate_crash`] discards
//!   everything that was not persisted, which is what the recovery protocol
//!   in `spitfire-txn` is tested against.
//! * **Memory mode** — [`MemoryModeDevice`] models DRAM acting as a
//!   direct-mapped write-back cache in front of NVM (the configuration the
//!   paper compares against app-direct mode in Figure 5).
//!
//! All emulated delays scale with a [`TimeScale`]; unit tests run with
//! [`TimeScale::ZERO`] (no delay, counters only) while experiments use
//! [`TimeScale::REAL`].

#![warn(missing_docs)]
#![warn(clippy::all)]

mod cost;
mod dram;
mod error;
pub mod fault;
mod file_ssd;
mod memory_mode;
mod nvm;
mod profile;
mod retry;
mod ssd;
mod stats;

pub use cost::{charge_overhead_calibration, AccessPattern, CostModel, TimeScale};
pub use dram::DramDevice;
pub use error::DeviceError;
pub use fault::{
    FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, FaultStats, Trigger, MEDIA_BLOCK,
};
pub use file_ssd::FileSsdDevice;
pub use memory_mode::MemoryModeDevice;
pub use nvm::{NvmDevice, PersistenceTracking};
pub use profile::{DeviceKind, DeviceProfile};
pub use retry::{retry_io, retry_io_with, IO_RETRY_LIMIT};
pub use ssd::{SsdBackendConfig, SsdDevice};
pub use stats::{DeviceStats, StatsSnapshot};

/// Result alias used throughout the device crate.
pub type Result<T> = std::result::Result<T, DeviceError>;

/// Size of one CPU cache line in bytes; the unit of `clwb` flushing.
pub const CACHE_LINE: usize = 64;
