//! Generation-numbered, checksummed snapshot files for instant restart.
//!
//! A snapshot *store* is a dedicated SSD device whose page size is the
//! database page size — the device's transfer unit — so every **block** is
//! exactly one device page:
//!
//! | block | holds                                                         |
//! |-------|---------------------------------------------------------------|
//! | 0     | the **superblock**: the two newest generations (number,       |
//! |       | manifest block, fence LSN), whole-page CRC-32                 |
//! | ≥ 1   | a **metadata block**: a 48-byte header *inside* the page      |
//! |       | (magic, CRC-32, kind, generation, sequence) + payload: an     |
//! |       | index run, or the generation's manifest                       |
//!
//! Each checkpoint writes one *generation*: full index runs and a
//! manifest that lists them. Page images are not the store's business:
//! the checkpointer writes every dirty DRAM page to its SSD home before
//! the generation installs, and NVM-resident pages are persistent where
//! they lie, so the data a generation stands for is the main SSD plus the
//! NVM buffer. A generation never needs another one: validation and
//! recovery read its manifest and runs, nothing else.
//!
//! **Liveness rule.** The superblock keeps the two newest generations
//! (the newest and the fallback recovery uses when the newest fails a
//! checksum). A block is free exactly when neither of them, nor a writer
//! in flight, references it. Writers take the lowest free block first and
//! hand their blocks back when dropped or failed, so the store's high
//! water is two retained generations plus one writer, however long it
//! runs. [`SnapshotStore::reload`] rebuilds the free set from the
//! superblock and the manifests it can read; [`SnapshotStore::check`]
//! walks the invariants.
//!
//! A generation is installed atomically by rewriting and syncing the
//! superblock after its blocks are durable (the emulated-device analogue
//! of an atomic rename); the in-memory list changes only after that sync
//! succeeds. A generation is *valid* only if its manifest and every block
//! the manifest lists pass their checksums, all re-read from the device;
//! recovery falls back one generation on any mismatch. The writer holds
//! one block of scratch plus the pending index run. A manifest that cannot
//! list its index-run blocks in one block is an error, never a truncation.
//!
//! The checksum is the canonical [`spitfire_sync::crc32`] — CRC-32C, the
//! polynomial the CPU has an instruction for — shared with the WAL framing
//! and the server wire protocol. This crate knows nothing
//! about transactions: the checkpointer and the recovery path in
//! `crates/txn` drive it.

#![warn(missing_docs)]

mod format;
mod store;

pub use format::{BlockKind, Manifest, TableMeta, BLOCK_HEADER};
pub use store::{GenerationInfo, SnapshotStore, SnapshotWriter};

/// Errors from snapshot reading/writing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The underlying device failed (possibly injected by the fault plane).
    Device(spitfire_device::DeviceError),
    /// A block or superblock failed structural validation. For one
    /// generation's block recovery treats this as "generation invalid" and
    /// falls back to the other retained one; an unreadable superblock, or
    /// no retained generation that validates, fails recovery with it.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Device(e) => write!(f, "snapshot device error: {e}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Device(e) => Some(e),
            SnapshotError::Corrupt(_) => None,
        }
    }
}

impl From<spitfire_device::DeviceError> for SnapshotError {
    fn from(e: spitfire_device::DeviceError) -> Self {
        SnapshotError::Device(e)
    }
}

/// Result alias for snapshot operations.
pub type Result<T> = std::result::Result<T, SnapshotError>;
